//! The Metric Manager: on-request instantiation of MDL metrics, focus
//! constraints, and the mapping instrumentation that feeds the SAS.
//!
//! §6.3: "Paradyn compiles the descriptions into code that is inserted into
//! running applications at precisely the moment when the particular metric
//! is requested." A [`MetricRequest`] is one such insertion; dropping the
//! request (`cancel`) removes every snippet again.

use crate::catalogue::figure9_catalogue;
use crate::datamgr::{DataManager, FocusError};
use cmrts_sim::{CmrtsPoints, Machine};
use dyninst_sim::mdl::{parse_mdl, MdlFile, MetricDecl};
use dyninst_sim::{
    instantiate_all, InstrumentationManager, MetricInstance, Op, Pred, SentenceArg, Snippet,
    SnippetHandle,
};
use pdmap::hierarchy::Focus;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Failure to satisfy a metric request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// No metric with that name or id is in the catalogue.
    UnknownMetric(String),
    /// The focus could not be resolved.
    Focus(FocusError),
    /// The tool has no program loaded, so no machine can run the
    /// experiment.
    NoProgram,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::UnknownMetric(m) => write!(f, "unknown metric '{m}'"),
            RequestError::Focus(e) => write!(f, "focus error: {e}"),
            RequestError::NoProgram => write!(f, "no program loaded"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<FocusError> for RequestError {
    fn from(e: FocusError) -> Self {
        RequestError::Focus(e)
    }
}

/// A focus resolved to its guard predicates, or why it cannot be.
pub(crate) type ResolvedFocus = Result<Vec<Pred>, FocusError>;

/// A live metric request: metric × focus, instrumented and accumulating.
#[derive(Debug)]
pub struct MetricRequest {
    /// The requested metric's declaration, shared with the catalogue.
    pub decl: Arc<MetricDecl>,
    /// The focus it is constrained to.
    pub focus: Focus,
    /// How much of the fleet this request's value covers. A local
    /// (single-process) request is complete by construction; a
    /// multi-daemon frontend stamps the session's coverage here so a
    /// value computed while a node is quarantined is labeled, never
    /// silently low (see `daemonset::Coverage`).
    pub coverage: crate::daemonset::Coverage,
    instance: MetricInstance,
    ticks_per_second: f64,
}

impl MetricRequest {
    /// The current value in the metric's declared units, as of the
    /// machine's wall clock.
    pub fn value(&self, machine: &Machine) -> f64 {
        self.instance.value(
            machine.manager().primitives(),
            machine.wall_clock(),
            self.ticks_per_second,
        )
    }

    /// The raw primitive value (counter value or timer ticks).
    pub fn raw(&self, machine: &Machine) -> i64 {
        self.instance
            .read_raw(machine.manager().primitives(), machine.wall_clock())
    }

    /// The §6 answer as an interval: [`MetricRequest::value`] widened by
    /// the request's [`Coverage`](crate::daemonset::Coverage) stamp
    /// (`max_per_sample` prices lost samples — pass the session's max
    /// observed per-sample cost, or `0.0` when no samples were lost).
    /// Complete coverage yields the degenerate point, so this is a strict
    /// generalisation of the scalar answer.
    pub fn value_interval(
        &self,
        machine: &Machine,
        max_per_sample: f64,
    ) -> pdmap::interval::Interval {
        self.coverage
            .bound_mass(self.value(machine), max_per_sample)
    }

    /// Removes the request's instrumentation (idempotent).
    pub fn cancel(&mut self, mgr: &InstrumentationManager) {
        self.instance.uninstall(mgr);
    }

    /// True while the request's snippets are installed.
    pub fn active(&self) -> bool {
        self.instance.installed()
    }

    /// The backing primitive (for timer-state inspection).
    pub fn primitive(&self) -> dyninst_sim::MetricPrimitive {
        self.instance.primitive
    }
}

/// The metric manager: the catalogue plus request machinery.
pub struct MetricManager {
    mgr: Arc<InstrumentationManager>,
    /// Catalogue order; every request shares its declaration.
    decls: Vec<Arc<MetricDecl>>,
    by_key: BTreeMap<String, usize>,
}

impl MetricManager {
    /// Creates a manager pre-loaded with the Figure 9 catalogue.
    pub fn new(mgr: Arc<InstrumentationManager>) -> Self {
        let mut mm = Self {
            mgr,
            decls: Vec::new(),
            by_key: BTreeMap::new(),
        };
        mm.install_file(figure9_catalogue());
        mm
    }

    fn install_file(&mut self, file: MdlFile) {
        for m in file.metrics {
            let idx = self.decls.len();
            self.by_key.insert(m.id.clone(), idx);
            self.by_key.insert(m.name.clone(), idx);
            self.decls.push(Arc::new(m));
        }
    }

    /// Adds user-defined metrics from MDL source (§6.3: users can define
    /// new metrics).
    pub fn add_mdl(&mut self, src: &str) -> Result<usize, dyninst_sim::MdlError> {
        let file = parse_mdl(src)?;
        let n = file.metrics.len();
        self.install_file(file);
        Ok(n)
    }

    /// All metric display names, catalogue order.
    pub fn metric_names(&self) -> Vec<&str> {
        self.decls.iter().map(|m| m.name.as_str()).collect()
    }

    /// Looks up a declaration by id or display name.
    pub fn decl(&self, name: &str) -> Option<&MetricDecl> {
        self.by_key.get(name).map(|&i| &*self.decls[i])
    }

    /// Requests `metric` constrained to `focus`: resolves the focus to
    /// guard predicates via the data manager, instantiates the MDL
    /// declaration, and inserts the snippets.
    pub fn request(
        &self,
        metric: &str,
        data: &DataManager,
        focus: &Focus,
        ticks_per_second: f64,
    ) -> Result<MetricRequest, RequestError> {
        self.request_in(&self.mgr, metric, data, focus, ticks_per_second)
    }

    /// Like [`MetricManager::request`], but inserts the snippets into an
    /// arbitrary instrumentation manager instead of the catalogue's own.
    /// The pure-experiment path uses this to instrument a *private*
    /// per-run manager, so concurrent experiments never execute each
    /// other's snippets against shared primitives.
    pub fn request_in(
        &self,
        mgr: &Arc<InstrumentationManager>,
        metric: &str,
        data: &DataManager,
        focus: &Focus,
        ticks_per_second: f64,
    ) -> Result<MetricRequest, RequestError> {
        let guard = data.resolve_focus(focus);
        self.request_all(mgr, &[(metric, focus, &guard)], ticks_per_second)
            .pop()
            .expect("one result per request")
    }

    /// Requests a batch of `(metric, focus, resolved guard)` into `mgr`,
    /// returning one result per request in batch order. Each focus arrives
    /// already resolved to its guard predicates (or its resolution
    /// error), so a run that measures several metrics at one focus
    /// resolves it once. An unknown metric is reported before a focus
    /// error, as [`MetricManager::request_in`] does. Every snippet of the
    /// batch is installed under one lock, and each request shares its
    /// catalogue declaration.
    pub(crate) fn request_all(
        &self,
        mgr: &Arc<InstrumentationManager>,
        batch: &[(&str, &Focus, &ResolvedFocus)],
        ticks_per_second: f64,
    ) -> Vec<Result<MetricRequest, RequestError>> {
        let mut requests = Vec::with_capacity(batch.len());
        let decls: Vec<Result<Arc<MetricDecl>, RequestError>> = batch
            .iter()
            .map(|&(metric, _, guard)| {
                let decl = self
                    .by_key
                    .get(metric)
                    .map(|&i| self.decls[i].clone())
                    .ok_or_else(|| RequestError::UnknownMetric(metric.to_string()))?;
                requests.push((decl.clone(), guard.clone()?));
                Ok(decl)
            })
            .collect();
        let mut instances = instantiate_all(mgr, requests).into_iter();
        decls
            .into_iter()
            .zip(batch)
            .map(|(decl, &(_, focus, _))| {
                Ok(MetricRequest {
                    decl: decl?,
                    focus: focus.clone(),
                    coverage: crate::daemonset::Coverage::default(),
                    instance: instances.next().expect("one instance per request"),
                    ticks_per_second,
                })
            })
            .collect()
    }

    /// The shared instrumentation manager.
    pub fn manager(&self) -> &Arc<InstrumentationManager> {
        &self.mgr
    }
}

/// The mapping instrumentation: SAS activate/deactivate snippets installed
/// at the substrate's entry/exit point pairs (§4.1's mapping points + the
/// §6.1 dispatcher→SAS channel). Removable as a unit — §5: "Paradyn allows
/// users to turn on or turn off all dynamic mapping instrumentation points
/// at once."
#[derive(Debug)]
pub struct MappingInstrumentation {
    handles: Vec<SnippetHandle>,
    installed: bool,
}

impl MappingInstrumentation {
    /// Installs activate/deactivate snippets at every sentence-carrying
    /// point pair of the CMRTS.
    pub fn install(mgr: &InstrumentationManager) -> Self {
        let points = CmrtsPoints::intern(mgr.registry());
        let pairs = [
            (points.array_enter, points.array_exit),
            (points.stmt_entry, points.stmt_exit),
            (points.block_entry, points.block_exit),
            (points.reduce_entry, points.reduce_exit),
            (points.xform_entry, points.xform_exit),
            (points.scan_entry, points.scan_exit),
            (points.sort_entry, points.sort_exit),
            (points.compute_entry, points.compute_exit),
            (points.io_entry, points.io_exit),
            (points.msg_send, points.msg_send_done),
        ];
        // Activations run before any metric guard reads the SAS;
        // deactivations run after guarded timer stops have fired.
        let activate = || Snippet::new(vec![Op::SasActivate(SentenceArg::FromContext)]);
        let deactivate = || Snippet::new(vec![Op::SasDeactivate(SentenceArg::FromContext)]);
        let snippets = pairs
            .into_iter()
            .flat_map(|(entry, exit)| [(entry, activate(), -10), (exit, deactivate(), 10)])
            .collect();
        Self {
            handles: mgr.insert_all(snippets),
            installed: true,
        }
    }

    /// Removes all mapping snippets (idempotent).
    pub fn remove(&mut self, mgr: &InstrumentationManager) {
        if !self.installed {
            return;
        }
        mgr.remove_all(self.handles.drain(..));
        self.installed = false;
    }

    /// True while installed.
    pub fn installed(&self) -> bool {
        self.installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmrts_sim::MachineConfig;
    use pdmap::model::Namespace;

    struct Fixture {
        ns: Namespace,
        mgr: Arc<InstrumentationManager>,
        dm: Arc<DataManager>,
        compiled: cmf_lang::Compiled,
    }

    fn fixture() -> Fixture {
        let ns = Namespace::new();
        let mgr = Arc::new(InstrumentationManager::new());
        let compiled = cmf_lang::compile(
            cmf_lang::samples::FIGURE4,
            &ns,
            &cmf_lang::CompileOptions::default(),
        )
        .unwrap();
        let dm = Arc::new(DataManager::new(ns.clone(), "CM Fortran"));
        dm.import_pif(&compiled.pif).unwrap();
        dm.ensure_machine(4);
        Fixture {
            ns,
            mgr,
            dm,
            compiled,
        }
    }

    fn machine(f: &Fixture) -> Machine {
        Machine::new(
            MachineConfig {
                nodes: 4,
                ..MachineConfig::default()
            },
            f.ns.clone(),
            f.mgr.clone(),
            f.compiled.program().clone(),
        )
        .unwrap()
    }

    #[test]
    fn whole_program_metric_counts_everything() {
        let f = fixture();
        let mm = MetricManager::new(f.mgr.clone());
        let req = mm
            .request("Summations", &f.dm, &Focus::whole_program(), 1e9)
            .unwrap();
        let mut m = machine(&f);
        m.run();
        // One SUM on 4 nodes: each node participates once.
        assert_eq!(req.value(&m), 4.0);
    }

    #[test]
    fn request_interval_widens_with_its_coverage_stamp() {
        let f = fixture();
        let mm = MetricManager::new(f.mgr.clone());
        let mut req = mm
            .request("Summations", &f.dm, &Focus::whole_program(), 1e9)
            .unwrap();
        let mut m = machine(&f);
        m.run();
        // The default stamp is zero-valued Coverage (0/0 nodes): complete
        // by convention, so the interval is a point.
        assert!(req.value_interval(&m, 1.0).is_point());
        // Restamping with a degraded fleet widens the same answer.
        req.coverage = crate::daemonset::Coverage {
            nodes_reporting: 2,
            nodes_total: 4,
            samples_lost: 1,
        };
        let iv = req.value_interval(&m, 1.0);
        assert_eq!(iv.lo, 4.0, "observed mass is the lower bound");
        assert!((iv.hi - 10.0).abs() < 1e-12, "(4 + 1×1) × 4/2 = 10: {iv}");
    }

    #[test]
    fn timer_metric_reports_seconds() {
        let f = fixture();
        let mm = MetricManager::new(f.mgr.clone());
        let tps = 1e9;
        let req = mm
            .request("Computation Time", &f.dm, &Focus::whole_program(), tps)
            .unwrap();
        let mut m = machine(&f);
        m.run();
        let v = req.value(&m);
        assert!(v > 0.0);
        // 2 fused fills over 2×1024 elements at elem_compute ticks each,
        // summed across the overlapping node timers — bounded by total
        // element-ticks.
        let upper = (2.0 * 1024.0 * m.cost_model().elem_compute as f64) / tps;
        assert!(v <= upper * 1.01, "v={v}, upper={upper}");
    }

    #[test]
    fn array_constrained_metric_separates_a_from_b() {
        let f = fixture();
        let mm = MetricManager::new(f.mgr.clone());
        let mut m = machine(&f);
        // The SAS must see array activity: install mapping instrumentation.
        let mut mi = MappingInstrumentation::install(&f.mgr);
        let focus_a = Focus::whole_program().select("CMFarrays", "/hpfex.fcm/HPFEX/A");
        let focus_b = Focus::whole_program().select("CMFarrays", "/hpfex.fcm/HPFEX/B");
        let sum_a = mm.request("Summations", &f.dm, &focus_a, 1e9).unwrap();
        let sum_b = mm.request("Summations", &f.dm, &focus_b, 1e9).unwrap();
        let max_b = mm.request("MAXVAL Count", &f.dm, &focus_b, 1e9).unwrap();
        m.run();
        assert_eq!(sum_a.value(&m), 4.0, "SUM(A) on 4 nodes");
        assert_eq!(sum_b.value(&m), 0.0, "B is never summed");
        assert_eq!(max_b.value(&m), 4.0, "MAXVAL(B) on 4 nodes");
        mi.remove(&f.mgr);
    }

    #[test]
    fn node_constrained_metric() {
        let f = fixture();
        let mm = MetricManager::new(f.mgr.clone());
        let focus = Focus::whole_program().select("Machine", "/node#0");
        let req = mm.request("Node Activations", &f.dm, &focus, 1e9).unwrap();
        let all = mm
            .request("Node Activations", &f.dm, &Focus::whole_program(), 1e9)
            .unwrap();
        let mut m = machine(&f);
        m.run();
        let blocks = m.summary().blocks_dispatched as f64;
        assert_eq!(req.value(&m), blocks);
        assert_eq!(all.value(&m), blocks * 4.0);
    }

    #[test]
    fn cancel_stops_accumulation() {
        let f = fixture();
        let mm = MetricManager::new(f.mgr.clone());
        let mut req = mm
            .request("Broadcasts", &f.dm, &Focus::whole_program(), 1e9)
            .unwrap();
        assert!(req.active());
        req.cancel(&f.mgr);
        assert!(!req.active());
        let mut m = machine(&f);
        m.run();
        assert_eq!(req.value(&m), 0.0);
    }

    #[test]
    fn unknown_metric_and_bad_focus_error() {
        let f = fixture();
        let mm = MetricManager::new(f.mgr.clone());
        assert!(matches!(
            mm.request("Quux", &f.dm, &Focus::whole_program(), 1e9),
            Err(RequestError::UnknownMetric(_))
        ));
        let focus = Focus::whole_program().select("CMFarrays", "/missing");
        assert!(matches!(
            mm.request("Summations", &f.dm, &focus, 1e9),
            Err(RequestError::Focus(_))
        ));
    }

    #[test]
    fn user_defined_mdl_metric() {
        let f = fixture();
        let mut mm = MetricManager::new(f.mgr.clone());
        let n = mm
            .add_mdl(
                r#"metric my_allocs { name "My Allocations"; units operations;
                   foreach point "cmrts::alloc:return" { incrCounter 1; } }"#,
            )
            .unwrap();
        assert_eq!(n, 1);
        let req = mm
            .request("My Allocations", &f.dm, &Focus::whole_program(), 1e9)
            .unwrap();
        let mut m = machine(&f);
        m.run();
        assert_eq!(req.value(&m), 2.0, "A and B allocated");
    }

    #[test]
    fn mapping_instrumentation_is_removable() {
        let f = fixture();
        let mut mi = MappingInstrumentation::install(&f.mgr);
        assert!(mi.installed());
        mi.remove(&f.mgr);
        mi.remove(&f.mgr); // idempotent
        assert!(!mi.installed());
        // With it removed, array-constrained metrics see nothing.
        let mm = MetricManager::new(f.mgr.clone());
        let focus_a = Focus::whole_program().select("CMFarrays", "/hpfex.fcm/HPFEX/A");
        let req = mm.request("Summations", &f.dm, &focus_a, 1e9).unwrap();
        let mut m = machine(&f);
        m.run();
        assert_eq!(req.value(&m), 0.0);
    }

    #[test]
    fn array_constrained_timer_stops_cleanly() {
        // A guarded *timer* exercises the priority ordering: the guard must
        // still hold at the exit point when the stop runs (mapping
        // deactivations are priority +10, after metric snippets).
        let f = fixture();
        let mm = MetricManager::new(f.mgr.clone());
        let _mi = MappingInstrumentation::install(&f.mgr);
        let focus_a = Focus::whole_program().select("CMFarrays", "/hpfex.fcm/HPFEX/A");
        let t_a = mm.request("Summation Time", &f.dm, &focus_a, 1e9).unwrap();
        let t_all = mm
            .request("Reduction Time", &f.dm, &Focus::whole_program(), 1e9)
            .unwrap();
        let mut m = machine(&f);
        m.run();
        let v_a = t_a.value(&m);
        assert!(v_a > 0.0, "focused timer accumulated");
        assert!(v_a <= t_all.value(&m) + 1e-12, "SUM(A) ⊆ all reductions");
        // The timer actually stopped (not still running at run end).
        match t_a.primitive() {
            dyninst_sim::MetricPrimitive::Timer(t) => {
                assert!(!f.mgr.primitives().timer_running(t), "timer must stop");
            }
            other => panic!("expected timer, got {other:?}"),
        }
    }

    #[test]
    fn statement_constrained_metric() {
        let f = fixture();
        let mm = MetricManager::new(f.mgr.clone());
        let _mi = MappingInstrumentation::install(&f.mgr);
        // Line 5 is ASUM = SUM(A): constrain p2p traffic to it.
        let focus = Focus::whole_program().select("CMFstmts", "/hpfex.fcm/HPFEX/line#5");
        let req = mm
            .request("Point-to-Point Operations", &f.dm, &focus, 1e9)
            .unwrap();
        let all = mm
            .request(
                "Point-to-Point Operations",
                &f.dm,
                &Focus::whole_program(),
                1e9,
            )
            .unwrap();
        let mut m = machine(&f);
        m.run();
        // SUM(A) tree on 4 nodes: 3 + 1-to-CP = 4 sends; MAXVAL(B) adds 4
        // more to the unconstrained metric.
        assert_eq!(req.value(&m), 4.0);
        assert_eq!(all.value(&m), 8.0);
    }
}
