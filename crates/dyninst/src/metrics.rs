//! Metric instantiation: turning an MDL declaration into live snippets.
//!
//! Paradyn "compiles the descriptions into code that is inserted into
//! running applications at precisely the moment when the particular metric
//! is requested" (§6.3). [`instantiate_all`] is that moment: for each
//! request it allocates one primitive (counter or timer), compiles each
//! `foreach point` action list into a [`Snippet`] guarded by the request's
//! predicates (the focus constraint), and inserts every snippet of the
//! batch under one lock. Dropping a request is
//! [`MetricInstance::uninstall`], which removes every snippet — returning
//! those points to their unperturbed state.

use crate::manager::{InstrumentationManager, SnippetHandle};
use crate::mdl::{MdlAction, MetricDecl};
use crate::primitive::{CounterId, PrimitiveStore, TimerId};
use crate::snippet::{Op, Pred, SentenceArg, Snippet};
use std::sync::Arc;

/// The primitive backing a metric instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricPrimitive {
    /// Counter-based metric (operations, bytes, percent).
    Counter(CounterId),
    /// Timer-based metric (seconds, in clock ticks).
    Timer(TimerId),
}

/// A live, instrumented metric: one primitive plus the snippets feeding it.
#[derive(Debug)]
pub struct MetricInstance {
    /// The declaration this instance was built from, shared with the
    /// catalogue that holds it.
    pub decl: Arc<MetricDecl>,
    /// Where the measurement accumulates.
    pub primitive: MetricPrimitive,
    handles: Vec<SnippetHandle>,
    installed: bool,
}

impl MetricInstance {
    /// Reads the raw accumulated value: counter value, or timer ticks as of
    /// `now`.
    pub fn read_raw(&self, prims: &PrimitiveStore, now: u64) -> i64 {
        match self.primitive {
            MetricPrimitive::Counter(c) => prims.read_counter(c),
            MetricPrimitive::Timer(t) => prims.read_timer(t, now) as i64,
        }
    }

    /// Reads the value in the metric's declared units; `ticks_per_second`
    /// converts timer ticks to seconds.
    pub fn value(&self, prims: &PrimitiveStore, now: u64, ticks_per_second: f64) -> f64 {
        match self.primitive {
            MetricPrimitive::Counter(c) => prims.read_counter(c) as f64,
            MetricPrimitive::Timer(t) => prims.read_timer(t, now) as f64 / ticks_per_second,
        }
    }

    /// Removes every snippet this instance installed. Idempotent.
    pub fn uninstall(&mut self, mgr: &InstrumentationManager) {
        if !self.installed {
            return;
        }
        mgr.remove_all(self.handles.drain(..));
        self.installed = false;
    }

    /// True while the instance's snippets are installed.
    pub fn installed(&self) -> bool {
        self.installed
    }
}

fn compile_action(action: MdlAction, primitive: MetricPrimitive) -> Op {
    match (action, primitive) {
        (MdlAction::IncrCounter(n), MetricPrimitive::Counter(c)) => Op::IncrCounter(c, n),
        (MdlAction::IncrCounterArg, MetricPrimitive::Counter(c)) => Op::IncrCounterByArg(c),
        (MdlAction::StartProcessTimer, MetricPrimitive::Timer(t)) => Op::StartProcessTimer(t),
        (MdlAction::StopProcessTimer, MetricPrimitive::Timer(t)) => Op::StopProcessTimer(t),
        (MdlAction::StartWallTimer, MetricPrimitive::Timer(t)) => Op::StartWallTimer(t),
        (MdlAction::StopWallTimer, MetricPrimitive::Timer(t)) => Op::StopWallTimer(t),
        (MdlAction::ActivateSentence, _) => Op::SasActivate(SentenceArg::FromContext),
        (MdlAction::DeactivateSentence, _) => Op::SasDeactivate(SentenceArg::FromContext),
        // The MDL checker rejects unit/primitive mismatches; reaching here
        // means the declaration bypassed `parse_mdl`.
        (a, p) => panic!("MDL action {a:?} incompatible with primitive {p:?}"),
    }
}

/// Instantiates `decl` with guard predicates `guard` (the focus
/// constraints: a question-satisfied check, a node restriction, ...): a
/// batch of one for [`instantiate_all`].
pub fn instantiate(
    mgr: &InstrumentationManager,
    decl: &MetricDecl,
    guard: Vec<Pred>,
) -> MetricInstance {
    instantiate_all(mgr, vec![(Arc::new(decl.clone()), guard)])
        .pop()
        .expect("one instance per request")
}

/// Instantiates a batch of `(declaration, guard)` requests, returning one
/// instance per request in batch order. Each request gets its own
/// primitive; every snippet of the batch is inserted under one write lock
/// ([`InstrumentationManager::insert_all`]), so each touched point's plan
/// is rebuilt once per batch, not once per snippet.
pub fn instantiate_all(
    mgr: &InstrumentationManager,
    requests: Vec<(Arc<MetricDecl>, Vec<Pred>)>,
) -> Vec<MetricInstance> {
    let prims = mgr.primitives();
    let mut snippets = Vec::new();
    let mut instances: Vec<MetricInstance> = requests
        .into_iter()
        .map(|(decl, guard)| {
            let primitive = if decl.is_timer() {
                MetricPrimitive::Timer(prims.new_timer())
            } else {
                MetricPrimitive::Counter(prims.new_counter())
            };
            for pa in &decl.points {
                let ops = pa
                    .actions
                    .iter()
                    .map(|&a| compile_action(a, primitive))
                    .collect();
                let snippet = Snippet::guarded(guard.clone(), ops);
                snippets.push((mgr.point(&pa.point), snippet, 0));
            }
            MetricInstance {
                decl,
                primitive,
                handles: Vec::new(),
                installed: true,
            }
        })
        .collect();
    let mut handles = mgr.insert_all(snippets).into_iter();
    for inst in &mut instances {
        inst.handles = handles.by_ref().take(inst.decl.points.len()).collect();
    }
    instances
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdl::parse_mdl;
    use crate::snippet::ExecCtx;

    fn mgr() -> InstrumentationManager {
        InstrumentationManager::new()
    }

    #[test]
    fn counter_metric_counts_events() {
        let m = mgr();
        let file = parse_mdl(
            r#"metric sends { name "Sends"; units operations;
               foreach point "msg:send" { incrCounter 1; } }"#,
        )
        .unwrap();
        let inst = instantiate(&m, &file.metrics[0], vec![]);
        let p = m.point("msg:send");
        for _ in 0..5 {
            m.execute(p, &mut ExecCtx::basic(0, 0));
        }
        assert_eq!(inst.read_raw(m.primitives(), 0), 5);
        assert_eq!(inst.value(m.primitives(), 0, 1e6), 5.0);
    }

    #[test]
    fn timer_metric_accumulates_process_time() {
        let m = mgr();
        let file = parse_mdl(
            r#"metric t { name "T"; units seconds;
               foreach point "entry" { startProcessTimer; }
               foreach point "exit" { stopProcessTimer; } }"#,
        )
        .unwrap();
        let inst = instantiate(&m, &file.metrics[0], vec![]);
        let entry = m.point("entry");
        let exit = m.point("exit");
        let mut ctx = ExecCtx::basic(0, 0);
        ctx.process_now = 100;
        m.execute(entry, &mut ctx);
        ctx.process_now = 400;
        m.execute(exit, &mut ctx);
        assert_eq!(inst.read_raw(m.primitives(), 0), 300);
        // 300 ticks at 1000 ticks/s = 0.3 s.
        assert!((inst.value(m.primitives(), 0, 1000.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn uninstall_stops_measurement_and_is_idempotent() {
        let m = mgr();
        let file = parse_mdl(
            r#"metric c { name "C"; units operations;
               foreach point "p" { incrCounter 1; } }"#,
        )
        .unwrap();
        let mut inst = instantiate(&m, &file.metrics[0], vec![]);
        let p = m.point("p");
        m.execute(p, &mut ExecCtx::basic(0, 0));
        inst.uninstall(&m);
        assert!(!inst.installed());
        m.execute(p, &mut ExecCtx::basic(0, 0));
        assert_eq!(inst.read_raw(m.primitives(), 0), 1);
        inst.uninstall(&m); // no-op
        assert_eq!(m.snippet_count(p), 0);
    }

    #[test]
    fn guard_constrains_to_node() {
        let m = mgr();
        let file = parse_mdl(
            r#"metric c { name "C"; units operations;
               foreach point "p" { incrCounter 1; } }"#,
        )
        .unwrap();
        let inst = instantiate(&m, &file.metrics[0], vec![Pred::NodeIs(2)]);
        let p = m.point("p");
        m.execute(p, &mut ExecCtx::basic(0, 0));
        m.execute(p, &mut ExecCtx::basic(2, 0));
        assert_eq!(inst.read_raw(m.primitives(), 0), 1);
    }

    #[test]
    fn two_instances_have_independent_primitives() {
        let m = mgr();
        let file = parse_mdl(
            r#"metric c { name "C"; units operations;
               foreach point "p" { incrCounter 1; } }"#,
        )
        .unwrap();
        let i1 = instantiate(&m, &file.metrics[0], vec![]);
        let i2 = instantiate(&m, &file.metrics[0], vec![Pred::NodeIs(1)]);
        let p = m.point("p");
        m.execute(p, &mut ExecCtx::basic(0, 0));
        assert_eq!(i1.read_raw(m.primitives(), 0), 1);
        assert_eq!(i2.read_raw(m.primitives(), 0), 0);
    }

    #[test]
    fn byte_metric_reads_payload() {
        let m = mgr();
        let file = parse_mdl(
            r#"metric b { name "Bytes"; units bytes;
               foreach point "send" { incrCounterArg; } }"#,
        )
        .unwrap();
        let inst = instantiate(&m, &file.metrics[0], vec![]);
        let p = m.point("send");
        let mut ctx = ExecCtx::basic(0, 0);
        ctx.arg = 1024;
        m.execute(p, &mut ctx);
        ctx.arg = 512;
        m.execute(p, &mut ctx);
        assert_eq!(inst.read_raw(m.primitives(), 0), 1536);
    }
}
