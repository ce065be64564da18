//! The simulated CM-5: one control processor plus `P` processing nodes.
//!
//! The machine executes a [`Program`] step by step. Each node code block is
//! broadcast to the nodes, dispatched (firing the §6.1 dispatcher points
//! with the block's argument arrays), executed SPMD over the nodes'
//! subgrids, and cleaned up. Every activity of Figure 9 — computation,
//! reductions, transformations, scans, sorts, argument processing,
//! broadcasts, cleanups, idle time, node activations, point-to-point
//! traffic, file I/O — advances deterministic virtual clocks and fires an
//! instrumentation point.
//!
//! Array data is real: chunks live on their owning node, collectives
//! exchange actual values, and results are bit-identical to a sequential
//! reference (property-tested). Message accounting is derived from layout
//! ownership, so traffic is exact, not sampled.

// Node loops index several parallel per-node vectors (clocks, t0s, chunks);
// iterator adaptors over just one of them obscure rather than clarify.
#![allow(clippy::needless_range_loop)]

use crate::cost::CostModel;
use crate::ir::{ArrayDecl, Instr, NodeCodeBlock, NodeOp, Operand, Program, ScalarExpr, Step};
use crate::layout::Layout;
use crate::points::{CmrtsPoints, CONTROL_PROCESSOR};
use crate::trace::{Event, Trace};
use crate::types::{ArrayId, Distribution, ReduceKind};
use dyninst_sim::{ExecCtx, InstrumentationManager, PointId};
use pdmap::model::{Namespace, SentenceId};
use pdmap::sas::{LocalSas, Question, QuestionExpr, QuestionId, Snapshot};
use std::sync::{Arc, OnceLock};

/// Span site for one control-processor step, interned once so every
/// `Machine` in the process shares it (see `pdmap-obs`).
fn step_obs_site() -> &'static pdmap_obs::SpanSite {
    static SITE: OnceLock<pdmap_obs::SpanSite> = OnceLock::new();
    SITE.get_or_init(|| pdmap_obs::span_site("cmrts", "step"))
}

/// Machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processing nodes (≥ 1).
    pub nodes: usize,
    /// The cost model.
    pub cost: CostModel,
    /// Record a ground-truth event trace.
    pub trace: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            cost: CostModel::default(),
            trace: true,
        }
    }
}

/// Information pushed to a [`MappingSink`] when an array is allocated —
/// the §6.1 step-1 flow: "the dynamic instrumentation library notifies
/// Paradyn of the new array, establishes a unique identifier for the array,
/// and tells Paradyn which subregion of the array is stored on which node".
#[derive(Clone, Debug)]
pub struct ArrayAllocInfo {
    /// Run-time array identifier.
    pub array: ArrayId,
    /// Source-level name.
    pub name: String,
    /// Extents.
    pub extents: Vec<usize>,
    /// Distribution.
    pub dist: Distribution,
    /// Per-node `(node, rows, elems)` subgrid sizes.
    pub subgrids: Vec<(usize, usize, usize)>,
}

/// Receiver of dynamic mapping information (the Paradyn daemon side of the
/// §5 dynamic mapping interface).
pub trait MappingSink: Send + Sync {
    /// An array was allocated and distributed.
    fn array_allocated(&self, info: &ArrayAllocInfo);
    /// An array was freed.
    fn array_freed(&self, array: ArrayId);
}

/// Captures a SAS snapshot whenever `point` fires (optionally only while
/// `question` is satisfied on the firing node). Used by the Figure 5
/// regeneration to photograph the SAS "at the moment when a message is
/// sent as part of the computation of the sum of array A".
#[derive(Clone, Copy, Debug)]
pub struct SnapshotTrigger {
    /// The point to watch.
    pub point: PointId,
    /// Optional gating question (evaluated on the firing node's SAS).
    pub question: Option<QuestionId>,
    /// Capture only the first match.
    pub once: bool,
}

/// A captured snapshot.
#[derive(Clone, Debug)]
pub struct CapturedSnapshot {
    /// Node whose SAS was photographed.
    pub node: usize,
    /// Wall tick of the capture.
    pub wall: u64,
    /// The SAS contents.
    pub snapshot: Snapshot,
}

struct NodeState {
    clock: u64,
    sas: LocalSas,
    chunks: Vec<Option<Vec<f64>>>,
    idle_ticks: u64,
}

/// Summary statistics of a completed run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Final control-processor clock (ticks).
    pub cp_clock: u64,
    /// Maximum node clock (ticks).
    pub max_node_clock: u64,
    /// Node code blocks dispatched.
    pub blocks_dispatched: u64,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Broadcasts sent.
    pub broadcasts: u64,
}

/// The simulated machine.
pub struct Machine {
    config: MachineConfig,
    ns: Namespace,
    mgr: Arc<InstrumentationManager>,
    points: CmrtsPoints,
    program: Program,
    layouts: Vec<Layout>,
    nodes: Vec<NodeState>,
    scalars: Vec<f64>,
    cp_clock: u64,
    trace: Trace,
    sink: Option<Arc<dyn MappingSink>>,
    mapping_enabled: bool,
    trigger: Option<SnapshotTrigger>,
    snapshots: Vec<CapturedSnapshot>,
    send_sentences: Vec<SentenceId>,
    summary: RunSummary,
}

impl Machine {
    /// Builds a machine for `program` (validated) over a shared namespace
    /// and instrumentation manager.
    pub fn new(
        config: MachineConfig,
        ns: Namespace,
        mgr: Arc<InstrumentationManager>,
        program: Program,
    ) -> Result<Self, crate::ir::IrError> {
        program.validate()?;
        assert!(config.nodes > 0, "machine needs at least one node");
        let points = CmrtsPoints::intern(mgr.registry());
        let cmrts = ns.level("CMRTS");
        let sends = ns.verb(cmrts, "SendsMessage", "node sends a point-to-point message");
        let send_sentences = (0..config.nodes)
            .map(|i| {
                let noun = ns.noun(cmrts, &format!("node#{i}"), "processing node");
                ns.say(sends, [noun])
            })
            .collect();
        let layouts = program
            .arrays
            .iter()
            .map(|d| Layout::new(d.rows(), d.row_width().max(1), config.nodes, d.dist))
            .collect();
        let nodes = (0..config.nodes)
            .map(|_| NodeState {
                clock: 0,
                sas: LocalSas::new(ns.clone()),
                chunks: vec![None; program.arrays.len()],
                idle_ticks: 0,
            })
            .collect();
        let trace = if config.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let scalars = vec![0.0; program.scalars.len()];
        Ok(Self {
            config,
            ns,
            mgr,
            points,
            program,
            layouts,
            nodes,
            scalars,
            cp_clock: 0,
            trace,
            sink: None,
            mapping_enabled: true,
            trigger: None,
            snapshots: Vec::new(),
            send_sentences,
            summary: RunSummary::default(),
        })
    }

    /// The machine's namespace.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// The instrumentation manager.
    pub fn manager(&self) -> &Arc<InstrumentationManager> {
        &self.mgr
    }

    /// The interned CMRTS points.
    pub fn points(&self) -> &CmrtsPoints {
        &self.points
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The layout of an array.
    pub fn layout(&self, a: ArrayId) -> Layout {
        self.layouts[a.index()]
    }

    /// Number of processing nodes.
    pub fn num_nodes(&self) -> usize {
        self.config.nodes
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.config.cost
    }

    /// Installs the dynamic-mapping sink.
    pub fn set_mapping_sink(&mut self, sink: Arc<dyn MappingSink>) {
        self.sink = Some(sink);
    }

    /// Turns the flow of dynamic mapping information on or off (§5:
    /// "Paradyn allows users to turn on or turn off all dynamic mapping
    /// instrumentation points at once").
    pub fn set_mapping_enabled(&mut self, on: bool) {
        self.mapping_enabled = on;
    }

    /// Arms a snapshot trigger.
    pub fn set_snapshot_trigger(&mut self, trigger: SnapshotTrigger) {
        self.trigger = Some(trigger);
    }

    /// Snapshots captured so far.
    pub fn snapshots(&self) -> &[CapturedSnapshot] {
        &self.snapshots
    }

    /// Registers a conjunction question on every node's SAS, returning the
    /// shared id.
    pub fn register_question_all(&mut self, q: &Question) -> QuestionId {
        let mut last = None;
        for n in &mut self.nodes {
            let qid = n.sas.register_question(q);
            if let Some(prev) = last {
                assert_eq!(prev, qid);
            }
            last = Some(qid);
        }
        last.expect("at least one node")
    }

    /// Registers an expression question on every node's SAS.
    pub fn register_expr_all(&mut self, name: &str, e: &QuestionExpr) -> QuestionId {
        let mut last = None;
        for n in &mut self.nodes {
            let qid = n.sas.register_expr(name, e);
            if let Some(prev) = last {
                assert_eq!(prev, qid);
            }
            last = Some(qid);
        }
        last.expect("at least one node")
    }

    /// Runs `f` against one node's SAS.
    pub fn with_node_sas<R>(&mut self, node: usize, f: impl FnOnce(&mut LocalSas) -> R) -> R {
        f(&mut self.nodes[node].sas)
    }

    /// Ticks a node has spent waiting for the control processor.
    pub fn node_idle_ticks(&self, node: usize) -> u64 {
        self.nodes[node].idle_ticks
    }

    /// The machine-global wall clock (max of all clocks).
    pub fn wall_clock(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.clock)
            .max()
            .unwrap_or(0)
            .max(self.cp_clock)
    }

    /// A front-end scalar's value by name.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.program
            .scalar_by_name(name)
            .map(|s| self.scalars[s.index()])
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Run statistics.
    pub fn summary(&self) -> RunSummary {
        self.summary
    }

    /// Gathers an array into a global row-major vector (tool-side only —
    /// not part of the simulated execution).
    pub fn gather(&self, a: ArrayId) -> Vec<f64> {
        let layout = self.layouts[a.index()];
        let mut out = vec![0.0; layout.total_elems()];
        for (node, state) in self.nodes.iter().enumerate() {
            let Some(chunk) = &state.chunks[a.index()] else {
                continue;
            };
            for (local, global) in layout.owned_rows(node).iter().enumerate() {
                let src = &chunk[local * layout.row_width..(local + 1) * layout.row_width];
                out[global * layout.row_width..(global + 1) * layout.row_width]
                    .copy_from_slice(src);
            }
        }
        out
    }

    fn scatter(&mut self, a: ArrayId, data: &[f64]) {
        let layout = self.layouts[a.index()];
        debug_assert_eq!(data.len(), layout.total_elems());
        for (node, state) in self.nodes.iter_mut().enumerate() {
            let chunk = state.chunks[a.index()]
                .as_mut()
                .expect("scatter to unallocated array");
            for (local, global) in layout.owned_rows(node).iter().enumerate() {
                chunk[local * layout.row_width..(local + 1) * layout.row_width].copy_from_slice(
                    &data[global * layout.row_width..(global + 1) * layout.row_width],
                );
            }
        }
    }

    /// Fires an instrumentation point on a node (or the CP) and services
    /// the snapshot trigger.
    fn fire(
        &mut self,
        node: Option<usize>,
        point: PointId,
        sentence: Option<SentenceId>,
        arg: i64,
    ) {
        let cp = self.cp_clock;
        match node {
            Some(i) => {
                let state = &mut self.nodes[i];
                let mut ctx = ExecCtx {
                    node: i as u32,
                    process_now: state.clock,
                    wall_now: state.clock.max(cp),
                    sentence,
                    arg,
                    sas: Some(&mut state.sas),
                };
                self.mgr.execute(point, &mut ctx);
                if let Some(t) = self.trigger {
                    if t.point == point
                        && (!t.once || self.snapshots.is_empty())
                        && t.question.is_none_or(|q| state.sas.satisfied(q))
                    {
                        let snap = state.sas.snapshot();
                        self.snapshots.push(CapturedSnapshot {
                            node: i,
                            wall: state.clock.max(cp),
                            snapshot: snap,
                        });
                    }
                }
            }
            None => {
                let mut ctx = ExecCtx {
                    node: CONTROL_PROCESSOR,
                    process_now: cp,
                    wall_now: cp,
                    sentence,
                    arg,
                    sas: None,
                };
                self.mgr.execute(point, &mut ctx);
            }
        }
    }

    /// Executes the whole program.
    pub fn run(&mut self) -> RunSummary {
        self.run_with(|_, _| {})
    }

    /// Executes the whole program, invoking `observer(machine, step_index)`
    /// after every control-processor step — the tool side uses this to
    /// sample metric streams at step granularity.
    pub fn run_with(&mut self, mut observer: impl FnMut(&Machine, usize)) -> RunSummary {
        let steps = std::mem::take(&mut self.program.steps);
        for (i, step) in steps.iter().enumerate() {
            self.run_step(step);
            observer(self, i);
        }
        self.program.steps = steps;
        self.summary.cp_clock = self.cp_clock;
        self.summary.max_node_clock = self.nodes.iter().map(|n| n.clock).max().unwrap_or(0);
        self.summary
    }

    fn run_step(&mut self, step: &Step) {
        let _obs = pdmap_obs::span(step_obs_site());
        match step {
            Step::Alloc(a) => self.do_alloc(*a),
            Step::Free(a) => self.do_free(*a),
            Step::ScalarAssign { dst, expr } => {
                self.scalars[dst.index()] = self.eval_scalar(expr);
                self.cp_clock += self.config.cost.cp_step_cost;
            }
            Step::Ncb(ncb) => self.run_ncb(ncb),
        }
    }

    fn eval_scalar(&self, e: &ScalarExpr) -> f64 {
        match e {
            ScalarExpr::Const(c) => *c,
            ScalarExpr::Scalar(s) => self.scalars[s.index()],
            ScalarExpr::Bin(op, a, b) => op.apply(self.eval_scalar(a), self.eval_scalar(b)),
        }
    }

    fn do_alloc(&mut self, a: ArrayId) {
        let layout = self.layouts[a.index()];
        for (node, state) in self.nodes.iter_mut().enumerate() {
            state.chunks[a.index()] = Some(vec![0.0; layout.elems_on(node)]);
        }
        self.cp_clock += self.config.cost.cp_step_cost;
        self.fire(None, self.points.alloc_return, None, a.0 as i64);
        let t = self.cp_clock;
        self.trace.push_with(|| Event::Alloc { array: a, t });
        if self.mapping_enabled {
            if let Some(sink) = &self.sink {
                let decl: &ArrayDecl = &self.program.arrays[a.index()];
                let info = ArrayAllocInfo {
                    array: a,
                    name: decl.name.clone(),
                    extents: decl.extents.clone(),
                    dist: decl.dist,
                    subgrids: (0..self.config.nodes)
                        .map(|n| (n, layout.rows_on(n), layout.elems_on(n)))
                        .collect(),
                };
                sink.array_allocated(&info);
            }
        }
    }

    fn do_free(&mut self, a: ArrayId) {
        for state in &mut self.nodes {
            state.chunks[a.index()] = None;
        }
        self.cp_clock += self.config.cost.cp_step_cost;
        self.fire(None, self.points.free_point, None, a.0 as i64);
        let t = self.cp_clock;
        self.trace.push_with(|| Event::Free { array: a, t });
        if self.mapping_enabled {
            if let Some(sink) = &self.sink {
                sink.array_freed(a);
            }
        }
    }

    /// Dispatch + execute + cleanup of one node code block.
    fn run_ncb(&mut self, ncb: &NodeCodeBlock) {
        let cost = self.config.cost;
        self.summary.blocks_dispatched += 1;

        // Control processor broadcasts the activation.
        let bcast_bytes = 64 + 8 * ncb.args.len() as u64;
        self.fire(None, self.points.bcast_send, None, bcast_bytes as i64);
        let t_bcast = self.cp_clock;
        self.trace.push_with(|| Event::Broadcast {
            bytes: bcast_bytes,
            t: t_bcast,
        });
        self.summary.broadcasts += 1;
        let arrival = self.cp_clock + cost.bcast_cost(bcast_bytes);

        // Nodes: idle until arrival, activate, process arguments.
        for i in 0..self.config.nodes {
            if self.nodes[i].clock < arrival {
                let t0 = self.nodes[i].clock;
                self.fire(Some(i), self.points.idle_entry, None, 0);
                self.nodes[i].clock = arrival;
                self.nodes[i].idle_ticks += arrival - t0;
                self.fire(Some(i), self.points.idle_exit, None, 0);
                self.trace.push_with(|| Event::Idle {
                    node: i as u32,
                    t0,
                    t1: arrival,
                });
            }
            self.fire(Some(i), self.points.bcast_recv, None, bcast_bytes as i64);
            self.fire(Some(i), self.points.node_activate, None, 0);
            self.nodes[i].clock += cost.dispatch_cost;
            let t_act = self.nodes[i].clock;
            self.trace.push_with(|| Event::NodeActivate {
                node: i as u32,
                block: ncb.name.clone(),
                t: t_act,
            });

            let nargs = ncb.args.len() as u32;
            let t0 = self.nodes[i].clock;
            self.fire(Some(i), self.points.args_entry, None, nargs as i64);
            self.nodes[i].clock += nargs as u64 * cost.arg_cost;
            self.fire(Some(i), self.points.args_exit, None, nargs as i64);
            let t1 = self.nodes[i].clock;
            self.trace.push_with(|| Event::ArgsProcessed {
                node: i as u32,
                count: nargs,
                t0,
                t1,
            });

            // Dispatcher reports block, statements, and argument arrays
            // (§6.1: the dispatcher sends the block's input arguments to
            // the SAS).
            self.fire(Some(i), self.points.block_entry, ncb.block_sentence, 0);
            for &s in &ncb.line_sentences {
                self.fire(Some(i), self.points.stmt_entry, Some(s), 0);
            }
            for &(a, s) in &ncb.array_sentences {
                self.fire(Some(i), self.points.array_enter, Some(s), a.0 as i64);
            }
        }

        // The body.
        for instr in &ncb.body {
            self.run_instr(instr);
        }

        // Exits in reverse order, then vector-unit cleanup.
        for i in 0..self.config.nodes {
            for &(a, s) in ncb.array_sentences.iter().rev() {
                self.fire(Some(i), self.points.array_exit, Some(s), a.0 as i64);
            }
            for &s in ncb.line_sentences.iter().rev() {
                self.fire(Some(i), self.points.stmt_exit, Some(s), 0);
            }
            self.fire(Some(i), self.points.block_exit, ncb.block_sentence, 0);

            let t0 = self.nodes[i].clock;
            self.fire(Some(i), self.points.cleanup_entry, None, 0);
            self.nodes[i].clock += cost.cleanup_cost;
            self.fire(Some(i), self.points.cleanup_exit, None, 0);
            let t1 = self.nodes[i].clock;
            self.trace.push_with(|| Event::Cleanup {
                node: i as u32,
                t0,
                t1,
            });
        }

        // CP waits for completion.
        let max_node = self.nodes.iter().map(|n| n.clock).max().unwrap_or(0);
        self.cp_clock = self.cp_clock.max(max_node) + cost.cp_step_cost;
    }

    fn run_instr(&mut self, instr: &Instr) {
        match &instr.op {
            NodeOp::Fill { dst, value } => self.elementwise(instr, *dst, &[], |args| {
                let v = args.resolve_value(value);
                move |_, _| v
            }),
            NodeOp::Ramp { dst, start, step } => {
                let (start, step) = (*start, *step);
                self.elementwise(instr, *dst, &[], move |_| {
                    move |global_idx, _| start + step * global_idx as f64
                })
            }
            NodeOp::Copy { dst, src } => {
                let src = *src;
                self.elementwise(instr, *dst, &[src], move |_| move |_, srcs: &[f64]| srcs[0])
            }
            NodeOp::BinOp { dst, a, b, op } => {
                let (a, b, op) = (*a, *b, *op);
                let mut srcs = Vec::new();
                if let Operand::Array(x) = a {
                    srcs.push(x);
                }
                if let Operand::Array(y) = b {
                    srcs.push(y);
                }
                self.elementwise(instr, *dst, &srcs.clone(), move |args| {
                    let av = args.scalar_of(&a);
                    let bv = args.scalar_of(&b);
                    let a_is_arr = matches!(a, Operand::Array(_));
                    let b_is_arr = matches!(b, Operand::Array(_));
                    move |_, srcs: &[f64]| {
                        let mut k = 0;
                        let x = if a_is_arr {
                            let v = srcs[k];
                            k += 1;
                            v
                        } else {
                            av
                        };
                        let y = if b_is_arr { srcs[k] } else { bv };
                        op.apply(x, y)
                    }
                })
            }
            NodeOp::Reduce { kind, src, dst } => self.reduce(instr, *kind, *src, *dst),
            NodeOp::Scan { kind, src, dst } => self.scan(instr, *kind, *src, *dst),
            NodeOp::Shift {
                dst,
                src,
                offset,
                circular,
                dim,
            } => self.shift(instr, *dst, *src, *offset, *circular, *dim),
            NodeOp::Transpose { dst, src } => self.transpose(instr, *dst, *src),
            NodeOp::Sort { dst, src } => self.sort(instr, *dst, *src),
            NodeOp::FileIo { bytes, write } => self.file_io(instr, *bytes, *write),
            NodeOp::Compare { dst, a, b, cmp } => {
                let (a, b, cmp) = (*a, *b, *cmp);
                let mut srcs = Vec::new();
                if let Operand::Array(x) = a {
                    srcs.push(x);
                }
                if let Operand::Array(y) = b {
                    srcs.push(y);
                }
                self.elementwise(instr, *dst, &srcs.clone(), move |args| {
                    let av = args.scalar_of(&a);
                    let bv = args.scalar_of(&b);
                    let a_is_arr = matches!(a, Operand::Array(_));
                    let b_is_arr = matches!(b, Operand::Array(_));
                    move |_, srcs: &[f64]| {
                        let mut k = 0;
                        let x = if a_is_arr {
                            let v = srcs[k];
                            k += 1;
                            v
                        } else {
                            av
                        };
                        let y = if b_is_arr { srcs[k] } else { bv };
                        if cmp.apply(x, y) {
                            1.0
                        } else {
                            0.0
                        }
                    }
                })
            }
            NodeOp::Select {
                dst,
                mask,
                on_true,
                on_false,
            } => {
                let (mask, on_true, on_false) = (*mask, *on_true, *on_false);
                let mut srcs = vec![mask];
                if let Operand::Array(x) = on_true {
                    srcs.push(x);
                }
                if let Operand::Array(y) = on_false {
                    srcs.push(y);
                }
                self.elementwise(instr, *dst, &srcs.clone(), move |args| {
                    let tv = args.scalar_of(&on_true);
                    let fv = args.scalar_of(&on_false);
                    let t_is_arr = matches!(on_true, Operand::Array(_));
                    let f_is_arr = matches!(on_false, Operand::Array(_));
                    move |_, srcs: &[f64]| {
                        let m = srcs[0];
                        let mut k = 1;
                        let t = if t_is_arr {
                            let v = srcs[k];
                            k += 1;
                            v
                        } else {
                            tv
                        };
                        let f = if f_is_arr { srcs[k] } else { fv };
                        if m != 0.0 {
                            t
                        } else {
                            f
                        }
                    }
                })
            }
        }
    }

    /// Shared element-wise execution: `make_f` builds, from the scalars, a
    /// function from (global linear index, source elements) to the
    /// destination value, which runs on every node's chunks.
    fn elementwise<F, G>(&mut self, instr: &Instr, dst: ArrayId, srcs: &[ArrayId], make_f: F)
    where
        F: FnOnce(&ScalarEnv<'_>) -> G,
        G: Fn(usize, &[f64]) -> f64,
    {
        let layout = self.layouts[dst.index()];
        let cost = self.config.cost;
        let f = make_f(&ScalarEnv {
            scalars: &self.scalars,
        });
        for (node, state) in self.nodes.iter_mut().enumerate() {
            mutate_node_chunk(state, layout, dst, srcs, node, &f);
        }
        for node in 0..self.config.nodes {
            let elems = layout.elems_on(node) as u64;
            let t0 = self.nodes[node].clock;
            self.fire(
                Some(node),
                self.points.compute_entry,
                instr.sentence,
                elems as i64,
            );
            self.nodes[node].clock += elems * cost.elem_compute;
            self.fire(
                Some(node),
                self.points.compute_exit,
                instr.sentence,
                elems as i64,
            );
            let t1 = self.nodes[node].clock;
            self.trace.push_with(|| Event::Compute {
                node: node as u32,
                elems,
                t0,
                t1,
            });
        }
    }

    fn reduce_points(&self, kind: ReduceKind) -> (PointId, PointId) {
        match kind {
            ReduceKind::Sum => (self.points.reduce_sum_entry, self.points.reduce_sum_exit),
            ReduceKind::Max => (self.points.reduce_max_entry, self.points.reduce_max_exit),
            ReduceKind::Min => (self.points.reduce_min_entry, self.points.reduce_min_exit),
        }
    }

    /// Sends a simulated point-to-point message, advancing clocks and
    /// firing points. Returns the delivery tick.
    fn send_message(&mut self, from: usize, to: usize, bytes: u64) -> u64 {
        let cost = self.config.cost;
        self.fire(
            Some(from),
            self.points.msg_send,
            Some(self.send_sentences[from]),
            bytes as i64,
        );
        let t_send = self.nodes[from].clock;
        self.fire(
            Some(from),
            self.points.msg_send_done,
            Some(self.send_sentences[from]),
            bytes as i64,
        );
        let arrival = t_send + cost.msg_cost(bytes);
        let t_recv = self.nodes[to].clock.max(arrival);
        self.nodes[to].clock = t_recv;
        self.fire(Some(to), self.points.msg_recv, None, bytes as i64);
        self.trace.push_with(|| Event::Message {
            from: from as u32,
            to: to as u32,
            bytes,
            t_send,
            t_recv,
        });
        self.summary.messages += 1;
        t_recv
    }

    fn reduce(
        &mut self,
        instr: &Instr,
        kind: ReduceKind,
        src: ArrayId,
        dst: crate::types::ScalarId,
    ) {
        let cost = self.config.cost;
        let (entry, exit) = self.reduce_points(kind);
        let p = self.config.nodes;
        let mut t0s = vec![0u64; p];

        // Local partial reductions.
        let mut partials = vec![kind.identity(); p];
        for node in 0..p {
            t0s[node] = self.nodes[node].clock;
            self.fire(Some(node), self.points.reduce_entry, instr.sentence, 0);
            self.fire(Some(node), entry, instr.sentence, 0);
            let chunk = self.nodes[node].chunks[src.index()]
                .as_deref()
                .expect("reduce on unallocated array");
            let mut acc = kind.identity();
            for &v in chunk {
                acc = kind.combine(acc, v);
            }
            partials[node] = acc;
            self.nodes[node].clock += chunk.len() as u64 * cost.elem_reduce;
        }

        // Binary combining tree toward node 0.
        let mut stride = 1;
        while stride < p {
            let mut r = 0;
            while r + stride < p {
                let sender = r + stride;
                self.send_message(sender, r, 8);
                self.nodes[r].clock += cost.elem_reduce;
                partials[r] = kind.combine(partials[r], partials[sender]);
                r += 2 * stride;
            }
            stride *= 2;
        }

        // Node 0 returns the scalar to the control processor.
        self.fire(
            Some(0),
            self.points.msg_send,
            Some(self.send_sentences[0]),
            8,
        );
        self.fire(
            Some(0),
            self.points.msg_send_done,
            Some(self.send_sentences[0]),
            8,
        );
        let t_send = self.nodes[0].clock;
        let t_recv = self.cp_clock.max(t_send + cost.msg_cost(8));
        self.cp_clock = t_recv;
        self.trace.push_with(|| Event::Message {
            from: 0,
            to: CONTROL_PROCESSOR,
            bytes: 8,
            t_send,
            t_recv,
        });
        self.summary.messages += 1;
        self.scalars[dst.index()] = partials[0];

        for node in 0..p {
            self.fire(Some(node), exit, instr.sentence, 0);
            self.fire(Some(node), self.points.reduce_exit, instr.sentence, 0);
            let (t0, t1) = (t0s[node], self.nodes[node].clock);
            self.trace.push_with(|| Event::Reduce {
                node: node as u32,
                kind,
                array: src,
                t0,
                t1,
            });
        }
    }

    fn scan(&mut self, instr: &Instr, kind: ReduceKind, src: ArrayId, dst: ArrayId) {
        let layout = self.layouts[src.index()];
        assert_eq!(
            layout.dist,
            Distribution::Block,
            "scan requires block distribution"
        );
        let cost = self.config.cost;
        let p = self.config.nodes;
        let mut t0s = vec![0u64; p];
        let mut totals = vec![kind.identity(); p];

        // Local inclusive scans.
        for node in 0..p {
            t0s[node] = self.nodes[node].clock;
            self.fire(Some(node), self.points.scan_entry, instr.sentence, 0);
            let src_chunk = self.nodes[node].chunks[src.index()]
                .as_ref()
                .expect("scan src unallocated")
                .clone();
            let mut acc = kind.identity();
            let out: Vec<f64> = src_chunk
                .iter()
                .map(|&v| {
                    acc = kind.combine(acc, v);
                    acc
                })
                .collect();
            totals[node] = acc;
            let n = out.len() as u64;
            *self.nodes[node].chunks[dst.index()]
                .as_mut()
                .expect("scan dst unallocated") = out;
            self.nodes[node].clock += n * cost.elem_reduce;
        }

        // Offset chain: node i forwards the running prefix to node i+1.
        let mut offset = kind.identity();
        for node in 1..p {
            offset = kind.combine(offset, totals[node - 1]);
            self.send_message(node - 1, node, 8);
            let chunk = self.nodes[node].chunks[dst.index()]
                .as_mut()
                .expect("scan dst unallocated");
            for v in chunk.iter_mut() {
                *v = kind.combine(offset, *v);
            }
            let n = layout.elems_on(node) as u64;
            self.nodes[node].clock += n * cost.elem_reduce;
        }

        for node in 0..p {
            self.fire(Some(node), self.points.scan_exit, instr.sentence, 0);
            let (t0, t1) = (t0s[node], self.nodes[node].clock);
            self.trace.push_with(|| Event::Scan {
                node: node as u32,
                array: src,
                t0,
                t1,
            });
        }
    }

    fn shift(
        &mut self,
        instr: &Instr,
        dst: ArrayId,
        src: ArrayId,
        offset: i64,
        circular: bool,
        dim: usize,
    ) {
        let layout = self.layouts[src.index()];
        assert_eq!(
            layout.dist,
            Distribution::Block,
            "shift requires block distribution"
        );
        let cost = self.config.cost;
        let p = self.config.nodes;
        let rows = layout.rows as i64;
        let (entry, exit, kind) = if circular {
            (self.points.rotate_entry, self.points.rotate_exit, "rotate")
        } else {
            (self.points.shift_entry, self.points.shift_exit, "shift")
        };

        // Data: compute globally, scatter.
        let data = self.gather(src);
        let width = layout.row_width;
        let mut out = vec![0.0; data.len()];
        if dim == 0 {
            for r in 0..rows {
                let s = r - offset;
                let s = if circular {
                    Some(s.rem_euclid(rows.max(1)))
                } else if s >= 0 && s < rows {
                    Some(s)
                } else {
                    None
                };
                if let Some(s) = s {
                    let (r, s) = (r as usize, s as usize);
                    out[r * width..(r + 1) * width]
                        .copy_from_slice(&data[s * width..(s + 1) * width]);
                }
            }
        } else {
            // Within-row shift: entirely node-local.
            let w = width as i64;
            for r in 0..rows as usize {
                for c in 0..width {
                    let sc = c as i64 - offset;
                    let sc = if circular {
                        Some(sc.rem_euclid(w.max(1)))
                    } else if sc >= 0 && sc < w {
                        Some(sc)
                    } else {
                        None
                    };
                    if let Some(sc) = sc {
                        out[r * width + c] = data[r * width + sc as usize];
                    }
                }
            }
        }

        let mut t0s = vec![0u64; p];
        for node in 0..p {
            t0s[node] = self.nodes[node].clock;
            self.fire(Some(node), self.points.xform_entry, instr.sentence, 0);
            self.fire(Some(node), entry, instr.sentence, 0);
            // Local movement cost.
            self.nodes[node].clock += layout.elems_on(node) as u64 * cost.elem_move;
        }

        // Message accounting: rows crossing node boundaries (dim 0 only —
        // within-row shifts never leave the node).
        if dim == 0 {
            let mut pair_bytes = std::collections::BTreeMap::<(usize, usize), u64>::new();
            for r in 0..rows {
                let s = r - offset;
                let s = if circular {
                    s.rem_euclid(rows.max(1))
                } else if s >= 0 && s < rows {
                    s
                } else {
                    continue;
                };
                let from = layout.owner(s as usize);
                let to = layout.owner(r as usize);
                if from != to {
                    *pair_bytes.entry((from, to)).or_insert(0) += cost.bytes_for(width);
                }
            }
            for ((from, to), bytes) in pair_bytes {
                self.send_message(from, to, bytes);
            }
        }

        self.scatter(dst, &out);
        for node in 0..p {
            self.fire(Some(node), exit, instr.sentence, 0);
            self.fire(Some(node), self.points.xform_exit, instr.sentence, 0);
            let (t0, t1) = (t0s[node], self.nodes[node].clock);
            self.trace.push_with(|| Event::Transform {
                node: node as u32,
                kind,
                array: dst,
                t0,
                t1,
            });
        }
    }

    fn transpose(&mut self, instr: &Instr, dst: ArrayId, src: ArrayId) {
        let src_layout = self.layouts[src.index()];
        let dst_layout = self.layouts[dst.index()];
        assert_eq!(src_layout.dist, Distribution::Block);
        let cost = self.config.cost;
        let p = self.config.nodes;
        let (r, c) = (src_layout.rows, src_layout.row_width);

        let data = self.gather(src);
        let mut out = vec![0.0; data.len()];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = data[i * c + j];
            }
        }

        let mut t0s = vec![0u64; p];
        for node in 0..p {
            t0s[node] = self.nodes[node].clock;
            self.fire(Some(node), self.points.xform_entry, instr.sentence, 0);
            self.fire(Some(node), self.points.transpose_entry, instr.sentence, 0);
            self.nodes[node].clock += src_layout.elems_on(node) as u64 * cost.elem_move;
        }

        // All-to-all: element (i, j) moves owner_src(i) -> owner_dst(j).
        for from in 0..p {
            let rows_from = src_layout.rows_on(from) as u64;
            if rows_from == 0 {
                continue;
            }
            for to in 0..p {
                if from == to {
                    continue;
                }
                let cols_to = dst_layout.rows_on(to) as u64;
                if cols_to == 0 {
                    continue;
                }
                let bytes = rows_from * cols_to * cost.elem_bytes;
                self.send_message(from, to, bytes);
            }
        }

        self.scatter(dst, &out);
        for node in 0..p {
            self.fire(Some(node), self.points.transpose_exit, instr.sentence, 0);
            self.fire(Some(node), self.points.xform_exit, instr.sentence, 0);
            let (t0, t1) = (t0s[node], self.nodes[node].clock);
            self.trace.push_with(|| Event::Transform {
                node: node as u32,
                kind: "transpose",
                array: dst,
                t0,
                t1,
            });
        }
    }

    fn sort(&mut self, instr: &Instr, dst: ArrayId, src: ArrayId) {
        let layout = self.layouts[src.index()];
        assert_eq!(
            layout.dist,
            Distribution::Block,
            "sort requires block distribution"
        );
        let cost = self.config.cost;
        let p = self.config.nodes;

        // Data: global sort, scatter.
        let mut data = self.gather(src);
        data.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        let mut t0s = vec![0u64; p];
        for node in 0..p {
            t0s[node] = self.nodes[node].clock;
            self.fire(Some(node), self.points.sort_entry, instr.sentence, 0);
            // Local sort.
            self.nodes[node].clock += cost.sort_cost(layout.elems_on(node));
        }

        // Odd-even transposition merge over blocks: p rounds of pairwise
        // block exchanges.
        for round in 0..p {
            let mut i = round % 2;
            while i + 1 < p {
                let bytes_l = cost.bytes_for(layout.elems_on(i));
                let bytes_r = cost.bytes_for(layout.elems_on(i + 1));
                if bytes_l + bytes_r > 0 {
                    self.send_message(i, i + 1, bytes_l);
                    self.send_message(i + 1, i, bytes_r);
                    // Merge cost on both nodes; they synchronise.
                    let merged = (layout.elems_on(i) + layout.elems_on(i + 1)) as u64;
                    let t =
                        self.nodes[i].clock.max(self.nodes[i + 1].clock) + merged * cost.elem_move;
                    self.nodes[i].clock = t;
                    self.nodes[i + 1].clock = t;
                }
                i += 2;
            }
        }

        self.scatter(dst, &data);
        for node in 0..p {
            self.fire(Some(node), self.points.sort_exit, instr.sentence, 0);
            let (t0, t1) = (t0s[node], self.nodes[node].clock);
            self.trace.push_with(|| Event::Sort {
                node: node as u32,
                array: src,
                t0,
                t1,
            });
        }
    }

    fn file_io(&mut self, instr: &Instr, bytes: u64, write: bool) {
        let cost = self.config.cost;
        let t0 = self.cp_clock;
        self.fire(None, self.points.io_entry, instr.sentence, bytes as i64);
        self.cp_clock += bytes * cost.io_byte_cost;
        self.fire(None, self.points.io_exit, instr.sentence, bytes as i64);
        let t1 = self.cp_clock;
        self.trace.push_with(|| Event::FileIo {
            bytes,
            write,
            t0,
            t1,
        });
    }
}

/// Applies an element-wise function to one node's destination chunk.
fn mutate_node_chunk<G>(
    state: &mut NodeState,
    layout: Layout,
    dst: ArrayId,
    srcs: &[ArrayId],
    node: usize,
    f: &G,
) where
    G: Fn(usize, &[f64]) -> f64,
{
    let mut dst_chunk = state.chunks[dst.index()]
        .take()
        .expect("elementwise on unallocated dst");
    {
        let src_chunks: Vec<&[f64]> = srcs
            .iter()
            .map(|s| {
                if *s == dst {
                    // src == dst: operate on the taken chunk.
                    &[][..]
                } else {
                    state.chunks[s.index()]
                        .as_deref()
                        .expect("elementwise on unallocated src")
                }
            })
            .collect();
        let width = layout.row_width;
        let mut src_vals = vec![0.0; srcs.len()];
        for (local_row, global_row) in layout.owned_rows(node).iter().enumerate() {
            for col in 0..width {
                let li = local_row * width + col;
                let gi = global_row * width + col;
                for (k, sc) in src_chunks.iter().enumerate() {
                    src_vals[k] = if sc.is_empty() { dst_chunk[li] } else { sc[li] };
                }
                dst_chunk[li] = f(gi, &src_vals);
            }
        }
    }
    state.chunks[dst.index()] = Some(dst_chunk);
}

/// Access to front-end scalars for element-wise closures.
struct ScalarEnv<'a> {
    scalars: &'a [f64],
}

impl ScalarEnv<'_> {
    fn resolve_value(&self, o: &Operand) -> f64 {
        match o {
            Operand::Const(c) => *c,
            Operand::Scalar(s) => self.scalars[s.index()],
            Operand::Array(_) => panic!("Fill value cannot be an array"),
        }
    }

    fn scalar_of(&self, o: &Operand) -> f64 {
        match o {
            Operand::Const(c) => *c,
            Operand::Scalar(s) => self.scalars[s.index()],
            Operand::Array(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;
    use crate::types::{BinOpKind, ScalarId};

    fn machine_for(program: Program, nodes: usize) -> Machine {
        let ns = Namespace::new();
        let mgr = Arc::new(InstrumentationManager::new());
        Machine::new(
            MachineConfig {
                nodes,
                ..MachineConfig::default()
            },
            ns,
            mgr,
            program,
        )
        .unwrap()
    }

    #[test]
    fn fill_ramp_and_gather() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[10], Distribution::Block);
        b.simple_ncb(
            "blk1",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 1.0,
                step: 1.0,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 4);
        m.run();
        let data = m.gather(a);
        assert_eq!(data, (1..=10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn binop_with_scalar_and_const() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[8], Distribution::Block);
        let c = b.alloc("C", &[8], Distribution::Block);
        b.simple_ncb(
            "blk1",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 0.0,
                step: 1.0,
            },
        );
        b.simple_ncb(
            "blk2",
            &[a, c],
            NodeOp::BinOp {
                dst: c,
                a: Operand::Array(a),
                b: Operand::Const(2.0),
                op: BinOpKind::Mul,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 3);
        m.run();
        assert_eq!(m.gather(c), vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn reduce_sum_max_min_match_reference() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[17], Distribution::Block);
        let ssum = b.scalar("S");
        let smax = b.scalar("MAX");
        let smin = b.scalar("MIN");
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: -3.0,
                step: 1.5,
            },
        );
        for (kind, dst) in [
            (ReduceKind::Sum, ssum),
            (ReduceKind::Max, smax),
            (ReduceKind::Min, smin),
        ] {
            b.simple_ncb("red", &[a], NodeOp::Reduce { kind, src: a, dst });
        }
        let mut m = machine_for(b.build().unwrap(), 4);
        m.run();
        let data: Vec<f64> = (0..17).map(|i| -3.0 + 1.5 * i as f64).collect();
        let sum: f64 = data.iter().sum();
        assert!((m.scalar("S").unwrap() - sum).abs() < 1e-9);
        assert_eq!(m.scalar("MAX").unwrap(), *data.last().unwrap());
        assert_eq!(m.scalar("MIN").unwrap(), data[0]);
    }

    #[test]
    fn reduction_sends_tree_messages() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[16], Distribution::Block);
        let s = b.scalar("S");
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Reduce {
                kind: ReduceKind::Sum,
                src: a,
                dst: s,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 4);
        m.run();
        // Tree: 4 nodes -> 3 internal messages (2 then 1), + 1 to the CP.
        let msgs: Vec<_> = m
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Message { .. }))
            .collect();
        assert_eq!(msgs.len(), 4);
        assert_eq!(m.summary().messages, 4);
    }

    #[test]
    fn scan_matches_prefix_sum() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[10], Distribution::Block);
        let d = b.alloc("D", &[10], Distribution::Block);
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 1.0,
                step: 1.0,
            },
        );
        b.simple_ncb(
            "s",
            &[a, d],
            NodeOp::Scan {
                kind: ReduceKind::Sum,
                src: a,
                dst: d,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 4);
        m.run();
        let expect: Vec<f64> = (1..=10)
            .scan(0.0, |acc, i| {
                *acc += i as f64;
                Some(*acc)
            })
            .collect();
        assert_eq!(m.gather(d), expect);
    }

    #[test]
    fn cshift_wraps_and_eoshift_zero_fills() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[6], Distribution::Block);
        let r = b.alloc("R", &[6], Distribution::Block);
        let e = b.alloc("E", &[6], Distribution::Block);
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 0.0,
                step: 1.0,
            },
        );
        b.simple_ncb(
            "c",
            &[a, r],
            NodeOp::Shift {
                dst: r,
                src: a,
                offset: 2,
                circular: true,
                dim: 0,
            },
        );
        b.simple_ncb(
            "o",
            &[a, e],
            NodeOp::Shift {
                dst: e,
                src: a,
                offset: -1,
                circular: false,
                dim: 0,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 3);
        m.run();
        assert_eq!(m.gather(r), vec![4.0, 5.0, 0.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.gather(e), vec![1.0, 2.0, 3.0, 4.0, 5.0, 0.0]);
    }

    #[test]
    fn within_row_shift_is_local_and_correct() {
        let mut b = ProgramBuilder::new("t");
        let m2 = b.alloc("M", &[2, 4], Distribution::Block);
        let d = b.alloc("D", &[2, 4], Distribution::Block);
        b.simple_ncb(
            "r",
            &[m2],
            NodeOp::Ramp {
                dst: m2,
                start: 0.0,
                step: 1.0,
            },
        );
        b.simple_ncb(
            "c",
            &[m2, d],
            NodeOp::Shift {
                dst: d,
                src: m2,
                offset: 1,
                circular: true,
                dim: 1,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 2);
        m.run();
        // Row 0: [0,1,2,3] rotated by 1 -> [3,0,1,2]; row 1 similarly.
        assert_eq!(m.gather(d), vec![3.0, 0.0, 1.0, 2.0, 7.0, 4.0, 5.0, 6.0]);
        // No messages beyond zero: within-row shifts never communicate.
        assert_eq!(m.summary().messages, 0);
    }

    #[test]
    fn dim1_shift_requires_2d() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[8], Distribution::Block);
        b.simple_ncb(
            "c",
            &[a],
            NodeOp::Shift {
                dst: a,
                src: a,
                offset: 1,
                circular: true,
                dim: 1,
            },
        );
        assert!(b.build().unwrap_err().0.contains("2-D"));
    }

    #[test]
    fn shift_across_nodes_generates_messages() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[8], Distribution::Block);
        let d = b.alloc("D", &[8], Distribution::Block);
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 0.0,
                step: 1.0,
            },
        );
        b.simple_ncb(
            "c",
            &[a, d],
            NodeOp::Shift {
                dst: d,
                src: a,
                offset: 1,
                circular: true,
                dim: 0,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 4);
        m.run();
        // Each boundary row crosses: 4 node pairs exchange (3 forward + wrap).
        assert!(m.summary().messages >= 3);
    }

    #[test]
    fn transpose_2d() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[2, 3], Distribution::Block);
        let t = b.alloc("T", &[3, 2], Distribution::Block);
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 0.0,
                step: 1.0,
            },
        );
        b.simple_ncb("t", &[a, t], NodeOp::Transpose { dst: t, src: a });
        let mut m = machine_for(b.build().unwrap(), 2);
        m.run();
        // A = [[0,1,2],[3,4,5]]; T = [[0,3],[1,4],[2,5]].
        assert_eq!(m.gather(t), vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn sort_orders_globally() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[9], Distribution::Block);
        let d = b.alloc("D", &[9], Distribution::Block);
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 8.0,
                step: -1.0,
            },
        );
        b.simple_ncb("s", &[a, d], NodeOp::Sort { dst: d, src: a });
        let mut m = machine_for(b.build().unwrap(), 3);
        m.run();
        assert_eq!(m.gather(d), (0..9).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn scalar_assign_on_cp() {
        let mut b = ProgramBuilder::new("t");
        let x = b.scalar("X");
        let y = b.scalar("Y");
        b.step(Step::ScalarAssign {
            dst: x,
            expr: ScalarExpr::Const(21.0),
        });
        b.step(Step::ScalarAssign {
            dst: y,
            expr: ScalarExpr::Bin(
                BinOpKind::Mul,
                Box::new(ScalarExpr::Scalar(x)),
                Box::new(ScalarExpr::Const(2.0)),
            ),
        });
        let mut m = machine_for(b.build().unwrap(), 1);
        m.run();
        assert_eq!(m.scalar("Y"), Some(42.0));
    }

    #[test]
    fn clocks_advance_and_idle_is_recorded() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[64], Distribution::Block);
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 0.0,
                step: 1.0,
            },
        );
        b.simple_ncb(
            "f",
            &[a],
            NodeOp::Fill {
                dst: a,
                value: Operand::Const(0.0),
            },
        );
        let mut m = machine_for(b.build().unwrap(), 4);
        let s = m.run();
        assert!(s.cp_clock > 0);
        assert!(s.max_node_clock > 0);
        assert!(m.wall_clock() >= s.max_node_clock);
        // Every node idled at least once (before the first broadcast).
        for n in 0..4 {
            assert!(m.node_idle_ticks(n) > 0, "node {n}");
        }
        assert_eq!(s.blocks_dispatched, 2);
        assert_eq!(s.broadcasts, 2);
    }

    #[test]
    fn file_io_advances_cp_clock() {
        let mut b = ProgramBuilder::new("t");
        b.step(Step::Ncb(NodeCodeBlock {
            name: "io".into(),
            body: vec![Instr::bare(NodeOp::FileIo {
                bytes: 100,
                write: true,
            })],
            ..NodeCodeBlock::default()
        }));
        let mut m = machine_for(b.build().unwrap(), 2);
        let before = m.cp_clock;
        m.run();
        assert!(m.cp_clock > before);
        assert!(m.trace().events().iter().any(|e| matches!(
            e,
            Event::FileIo {
                bytes: 100,
                write: true,
                ..
            }
        )));
    }

    #[test]
    fn alloc_notifies_mapping_sink_when_enabled() {
        use pdmap::util::Mutex;
        #[derive(Default)]
        struct Recorder {
            allocs: Mutex<Vec<ArrayAllocInfo>>,
            frees: Mutex<Vec<ArrayId>>,
        }
        impl MappingSink for Recorder {
            fn array_allocated(&self, info: &ArrayAllocInfo) {
                self.allocs.lock().push(info.clone());
            }
            fn array_freed(&self, array: ArrayId) {
                self.frees.lock().push(array);
            }
        }
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[12], Distribution::Block);
        let c = b.array("B", &[4], Distribution::Block);
        b.step(Step::Alloc(c));
        b.step(Step::Free(a));
        let mut m = machine_for(b.build().unwrap(), 3);
        let rec = Arc::new(Recorder::default());
        m.set_mapping_sink(rec.clone());
        m.run();
        let allocs = rec.allocs.lock();
        assert_eq!(allocs.len(), 2);
        assert_eq!(allocs[0].name, "A");
        assert_eq!(allocs[0].subgrids.len(), 3);
        let total: usize = allocs[0].subgrids.iter().map(|&(_, _, e)| e).sum();
        assert_eq!(total, 12);
        assert_eq!(rec.frees.lock().as_slice(), &[a]);
    }

    #[test]
    fn mapping_disabled_suppresses_sink() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counter(AtomicUsize);
        impl MappingSink for Counter {
            fn array_allocated(&self, _: &ArrayAllocInfo) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn array_freed(&self, _: ArrayId) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut b = ProgramBuilder::new("t");
        b.alloc("A", &[4], Distribution::Block);
        let mut m = machine_for(b.build().unwrap(), 1);
        let c = Arc::new(Counter::default());
        m.set_mapping_sink(c.clone());
        m.set_mapping_enabled(false);
        m.run();
        assert_eq!(c.0.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn reduce_scalar_lands_on_cp_after_messages() {
        // The CP clock must reflect the reduction round trip.
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[32], Distribution::Block);
        let s = b.scalar("S");
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 1.0,
                step: 0.0,
            },
        );
        b.simple_ncb(
            "red",
            &[a],
            NodeOp::Reduce {
                kind: ReduceKind::Sum,
                src: a,
                dst: s,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 8);
        m.run();
        assert_eq!(m.scalar("S"), Some(32.0));
        // The CP received a message from node 0.
        assert!(m.trace().events().iter().any(|e| matches!(
            e,
            Event::Message { from: 0, to, .. } if *to == CONTROL_PROCESSOR
        )));
    }

    #[test]
    fn single_node_machine_works() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[5], Distribution::Block);
        let s = b.scalar("S");
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 1.0,
                step: 1.0,
            },
        );
        b.simple_ncb(
            "red",
            &[a],
            NodeOp::Reduce {
                kind: ReduceKind::Sum,
                src: a,
                dst: s,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 1);
        m.run();
        assert_eq!(m.scalar("S"), Some(15.0));
        // Only the node->CP message.
        assert_eq!(m.summary().messages, 1);
    }

    #[test]
    fn cyclic_distribution_elementwise() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[7], Distribution::Cyclic);
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 0.0,
                step: 2.0,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 3);
        m.run();
        assert_eq!(m.gather(a), vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn in_place_binop_src_equals_dst() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[6], Distribution::Block);
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 1.0,
                step: 1.0,
            },
        );
        b.simple_ncb(
            "sq",
            &[a],
            NodeOp::BinOp {
                dst: a,
                a: Operand::Array(a),
                b: Operand::Array(a),
                op: BinOpKind::Mul,
            },
        );
        let mut m = machine_for(b.build().unwrap(), 2);
        m.run();
        assert_eq!(m.gather(a), vec![1.0, 4.0, 9.0, 16.0, 25.0, 36.0]);
    }

    #[test]
    fn compare_and_select_elementwise() {
        use crate::types::CmpKind;
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[8], Distribution::Block);
        let mask = b.alloc("MASK", &[8], Distribution::Block);
        let out = b.alloc("OUT", &[8], Distribution::Block);
        b.simple_ncb(
            "r",
            &[a],
            NodeOp::Ramp {
                dst: a,
                start: 0.0,
                step: 1.0,
            },
        );
        b.simple_ncb(
            "c",
            &[a, mask],
            NodeOp::Compare {
                dst: mask,
                a: Operand::Array(a),
                b: Operand::Const(4.0),
                cmp: CmpKind::Ge,
            },
        );
        b.simple_ncb(
            "s",
            &[a, mask, out],
            NodeOp::Select {
                dst: out,
                mask,
                on_true: Operand::Array(a),
                on_false: Operand::Const(-1.0),
            },
        );
        let mut m = machine_for(b.build().unwrap(), 3);
        m.run();
        assert_eq!(m.gather(mask), vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(
            m.gather(out),
            vec![-1.0, -1.0, -1.0, -1.0, 4.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn scalar_operand_reads_frontend_value() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc("A", &[4], Distribution::Block);
        let s = b.scalar("S");
        b.step(Step::ScalarAssign {
            dst: s,
            expr: ScalarExpr::Const(10.0),
        });
        b.simple_ncb(
            "f",
            &[a],
            NodeOp::Fill {
                dst: a,
                value: Operand::Scalar(s),
            },
        );
        let mut m = machine_for(b.build().unwrap(), 2);
        m.run();
        assert_eq!(m.gather(a), vec![10.0; 4]);
        let _ = ScalarId(0);
    }
}
