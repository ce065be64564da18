//! The Performance Consultant.
//!
//! §5: "Paradyn also includes an automated module (called the Performance
//! Consultant) to help users find performance problems in their
//! applications." Following the Paradyn W³ search model, the consultant
//! tests *why* hypotheses (which kind of time dominates?) and refines true
//! ones along the *where* axis (which statement? which array? which node?).
//!
//! Real Paradyn inserts and removes instrumentation for each experiment
//! within a single long-running execution. The simulator's runs are short
//! and deterministic, so experiments instrument fresh runs instead; since
//! instrumentation never moves the simulated clock, one run can measure
//! many foci at once, as the paper evaluates many questions against one
//! SAS (§4.2.2).
//!
//! # The wave search
//!
//! [`search`] (one worker) and [`search_parallel`] (`available_parallelism`
//! workers) are one depth-synchronous search. A *wave* is every
//! `(hypothesis, focus)` item at one refinement depth, starting with the
//! six hypotheses at the whole program. A wave skips the foci the
//! [`MeasurementCache`](crate::mcache) holds, measures the rest in chunks
//! of at most [`MAX_FOCI_PER_RUN`] foci — one [`Paradyn::run_experiments`]
//! machine run per chunk, the workers taking chunks off a shared cursor —
//! fills the cache from each run, then evaluates its items in slot order
//! and queues the refinements of the explored ones as the next wave.
//! Results land in a slot arena in refinement order, so the tree and its
//! [`render`] do not depend on the worker count or the cap.
//!
//! # Coverage-aware verdicts
//!
//! A hypothesis test over a degraded fleet must not produce a confidently
//! wrong answer. Every experiment therefore measures with a session
//! [`Coverage`] stamp and tests an *interval* estimate `[lo, hi]` of the
//! ratio against the threshold, widened by that coverage (see
//! [`Coverage::bound_mass`] for the widening rule): the verdict is
//! [`Verdict::True`] only when the whole interval is above the threshold,
//! [`Verdict::False`] only when it is entirely at-or-below, and
//! [`Verdict::Unknown`] when the interval straddles it — the honest answer
//! when missing nodes or lost samples could move the ratio across the
//! line. With complete coverage the interval is a point and the verdicts
//! are exactly the classic boolean ones.
//!
//! Failed experiments are `Unknown` too: a `measure` error or a zero-wall
//! run yields no evidence, so the node carries an explanatory note instead
//! of a fabricated ratio (zero-wall experiments are counted under the
//! `consultant.zero_wall` self-observation counter).

use crate::daemonset::Coverage;
use crate::mcache::{self, Measured, MeasuredBatch};
use crate::metrics::RequestError;
use crate::tool::Paradyn;
use pdmap::hierarchy::Focus;
use pdmap::interval::{Interval, Side};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The most foci one machine run measures. Every (metric, focus) request
/// installs its own snippets and primitive, so the cap bounds a run's host
/// memory and install time. A point execution visits only the requests
/// its node and active sentences can match (the instrumentation manager's
/// plan), so per-point work does not grow with the other foci (DESIGN §16
/// measures other caps).
pub const MAX_FOCI_PER_RUN: usize = 64;

/// Span site for evaluating one hypothesis experiment, interned once
/// (`pdmap-obs`).
fn experiment_obs_site() -> &'static pdmap_obs::SpanSite {
    static SITE: OnceLock<pdmap_obs::SpanSite> = OnceLock::new();
    SITE.get_or_init(|| pdmap_obs::span_site("consultant", "experiment"))
}

/// Span site for one multi-focus machine run of a wave.
fn run_obs_site() -> &'static pdmap_obs::SpanSite {
    static SITE: OnceLock<pdmap_obs::SpanSite> = OnceLock::new();
    SITE.get_or_init(|| pdmap_obs::span_site("consultant", "run"))
}

/// Memoised where-axis refinements. Every hypothesis in a search explores
/// the same foci, so without this the data manager recomputes identical
/// candidate lists once per hypothesis; hits and misses are counted under
/// `consultant.cache_hit` / `consultant.cache_miss`. Entries are
/// `Arc<[Focus]>` shared with the data manager, so a hit costs one
/// refcount bump, not a list clone.
type RefinementCache = HashMap<Focus, Arc<[Focus]>>;

/// A "why" hypothesis: a time metric whose share of the wall clock is
/// tested against a threshold.
#[derive(Clone, Copy, Debug)]
pub struct Hypothesis {
    /// Hypothesis name (e.g. `ExcessiveCommunication`).
    pub name: &'static str,
    /// The Figure 9 time metric backing it.
    pub metric: &'static str,
}

/// The default hypothesis set.
pub const HYPOTHESES: &[Hypothesis] = &[
    Hypothesis {
        name: "ExcessiveCommunication",
        metric: "Point-to-Point Time",
    },
    Hypothesis {
        name: "ExcessiveBroadcast",
        metric: "Broadcast Time",
    },
    Hypothesis {
        name: "ExcessiveIdleTime",
        metric: "Idle Time",
    },
    Hypothesis {
        name: "ExcessiveReductionTime",
        metric: "Reduction Time",
    },
    Hypothesis {
        name: "ExcessiveSortTime",
        metric: "Sort Time",
    },
    Hypothesis {
        name: "ExcessiveIOTime",
        metric: "File I/O Time",
    },
];

/// Search configuration.
#[derive(Clone, Copy, Debug)]
pub struct ConsultantConfig {
    /// A hypothesis is true when `metric / wall > threshold`.
    pub threshold: f64,
    /// Maximum where-axis refinement depth below the whole program.
    pub max_depth: usize,
}

impl Default for ConsultantConfig {
    fn default() -> Self {
        Self {
            threshold: 0.10,
            max_depth: 2,
        }
    }
}

/// A tri-state hypothesis verdict: the boolean of the classic consultant
/// plus the honest third answer for experiments whose evidence cannot
/// decide (degraded coverage straddling the threshold, failed or zero-wall
/// measurements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The whole interval estimate is above the threshold.
    True,
    /// The whole interval estimate is at or below the threshold.
    False,
    /// The evidence cannot decide: the interval straddles the threshold,
    /// or the experiment produced no usable measurement.
    Unknown,
}

impl Verdict {
    /// True for [`Verdict::True`] only.
    pub fn is_true(self) -> bool {
        self == Verdict::True
    }

    /// True when the verdict is decided either way (not `Unknown`).
    pub fn is_decided(self) -> bool {
        self != Verdict::Unknown
    }

    /// The fixed-width marker used by [`render`]: `[TRUE ]`, `[false]`,
    /// or `[?????]`.
    pub fn marker(self) -> &'static str {
        match self {
            Verdict::True => "[TRUE ]",
            Verdict::False => "[false]",
            Verdict::Unknown => "[?????]",
        }
    }
}

/// One node of the search tree.
#[derive(Clone, Debug)]
pub struct ExperimentNode {
    /// Hypothesis tested.
    pub hypothesis: String,
    /// Focus tested at.
    pub focus: Focus,
    /// Measured metric value (seconds).
    pub value: f64,
    /// Wall time of the experiment's run (seconds).
    pub wall: f64,
    /// `value / wall` — the observed point estimate (a lower bound on the
    /// true ratio when coverage is incomplete).
    pub ratio: f64,
    /// The coverage-widened bound on the true ratio; degenerate (`lo ==
    /// hi == ratio`) with complete coverage.
    pub interval: Interval,
    /// The fleet coverage the experiment ran under.
    pub coverage: Coverage,
    /// Tri-state verdict from testing `interval` against the threshold.
    pub verdict: Verdict,
    /// Why the verdict is `Unknown` when no measurement backs it (a
    /// `measure` error or a zero-wall run); `None` for measured nodes.
    pub note: Option<String>,
    /// Refinements explored under a true (or threshold-straddling) verdict.
    pub children: Vec<ExperimentNode>,
}

/// Builds an [`ExperimentNode`] from one pure measurement outcome: the
/// whole verdict logic.
fn evaluate(
    tool: &Paradyn,
    config: &ConsultantConfig,
    h: &Hypothesis,
    focus: &Focus,
    measured: Result<Measured, RequestError>,
) -> ExperimentNode {
    match measured {
        // A failed experiment is evidence of nothing: Unknown, with the
        // error preserved — never a fabricated 0.0/1.0 ratio.
        Err(e) => ExperimentNode {
            hypothesis: h.name.to_string(),
            focus: focus.clone(),
            value: 0.0,
            wall: 0.0,
            ratio: 0.0,
            interval: Interval::unknown(),
            coverage: tool.session_coverage(),
            verdict: Verdict::Unknown,
            note: Some(format!("measurement failed: {e}")),
            children: Vec::new(),
        },
        Ok(m) if m.wall <= 0.0 => {
            // A zero-wall run cannot support a ratio; count it and answer
            // honestly instead of collapsing to 0.0 (= a false verdict).
            pdmap_obs::counter("consultant.zero_wall").incr();
            ExperimentNode {
                hypothesis: h.name.to_string(),
                focus: focus.clone(),
                value: m.value,
                wall: m.wall,
                ratio: 0.0,
                interval: Interval::unknown(),
                coverage: m.coverage,
                verdict: Verdict::Unknown,
                note: Some("zero-wall experiment".to_string()),
                children: Vec::new(),
            }
        }
        Ok(m) => {
            let ratio = m.value / m.wall;
            let interval = m
                .coverage
                .bound_mass(m.value, tool.session_max_sample_cost())
                .scale(1.0 / m.wall);
            let verdict = match interval.classify(config.threshold) {
                Side::Above => Verdict::True,
                Side::Below => Verdict::False,
                Side::Straddles => Verdict::Unknown,
            };
            ExperimentNode {
                hypothesis: h.name.to_string(),
                focus: focus.clone(),
                value: m.value,
                wall: m.wall,
                ratio,
                interval,
                coverage: m.coverage,
                verdict,
                note: None,
                children: Vec::new(),
            }
        }
    }
}

/// The refinement rule: true verdicts refine as always; a *measured*
/// straddling verdict also refines (the flagged subtree may still localise
/// the suspect); a `False` or unmeasured-`Unknown` parent is **early-cut**
/// — its interval can no longer be changed by any child measurement
/// (`False`: the whole interval is at-or-below the threshold; unmeasured:
/// repeating a failed experiment at child foci yields no new evidence), so
/// the subtree is pruned before a single child experiment runs, counted
/// under `consultant.early_cut`.
fn should_explore(node: &ExperimentNode, depth: usize, config: &ConsultantConfig) -> bool {
    let explore = match node.verdict {
        Verdict::True => true,
        Verdict::Unknown => node.note.is_none(),
        Verdict::False => false,
    };
    if !explore && depth < config.max_depth {
        pdmap_obs::counter("consultant.early_cut").incr();
    }
    explore && depth < config.max_depth
}

/// Cached where-axis refinement lookup.
fn refinements(tool: &Paradyn, cache: &mut RefinementCache, focus: &Focus) -> Arc<[Focus]> {
    let counter = match cache.contains_key(focus) {
        true => "consultant.cache_hit",
        false => "consultant.cache_miss",
    };
    pdmap_obs::counter(counter).incr();
    let computed = || tool.data().refinement_candidates(focus);
    cache.entry(focus.clone()).or_insert_with(computed).clone()
}

/// Runs the consultant search over a loaded [`Paradyn`] tool with one
/// worker: the wave search of the module docs.
pub fn search(tool: &Paradyn, config: &ConsultantConfig) -> Vec<ExperimentNode> {
    wave_search(tool, config, 1)
}

/// Runs the consultant search with `available_parallelism` workers. Same
/// experiments, same verdicts, byte-identical [`render`] output as
/// [`search`]; a wave's runs spread over the workers.
pub fn search_parallel(tool: &Paradyn, config: &ConsultantConfig) -> Vec<ExperimentNode> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    wave_search(tool, config, cores)
}

/// One wave item: a hypothesis to test at a focus, with the slot its
/// result lands in.
struct Item {
    hyp: Hypothesis,
    focus: Focus,
    depth: usize,
    slot: usize,
}

/// One arena slot. Children are slot indices recorded in refinement-
/// candidate order, so the assembled tree is the refinement order.
#[derive(Default)]
struct Slot {
    node: Option<ExperimentNode>,
    children: Vec<usize>,
}

fn wave_search(tool: &Paradyn, config: &ConsultantConfig, workers: usize) -> Vec<ExperimentNode> {
    pdmap_obs::counter("consultant.pool.searches").incr();
    // One machine run at a focus serves every hypothesis metric.
    let metrics: Vec<String> = HYPOTHESES.iter().map(|h| h.metric.to_string()).collect();
    let mut refined = RefinementCache::new();
    let mut slots: Vec<Slot> = HYPOTHESES.iter().map(|_| Slot::default()).collect();
    let mut wave: Vec<Item> = HYPOTHESES
        .iter()
        .enumerate()
        .map(|(slot, h)| Item {
            hyp: *h,
            focus: Focus::whole_program(),
            depth: 0,
            slot,
        })
        .collect();
    while !wave.is_empty() {
        let measured = measure_wave(tool, &metrics, &wave, workers);
        let mut next = Vec::new();
        for (item, m) in wave.iter().zip(measured) {
            let node = {
                let _experiment = pdmap_obs::span(experiment_obs_site());
                evaluate(tool, config, &item.hyp, &item.focus, m)
            };
            if should_explore(&node, item.depth, config) {
                for focus in refinements(tool, &mut refined, &item.focus).iter() {
                    let slot = slots.len();
                    slots.push(Slot::default());
                    slots[item.slot].children.push(slot);
                    next.push(Item {
                        hyp: item.hyp,
                        focus: focus.clone(),
                        depth: item.depth + 1,
                        slot,
                    });
                }
            }
            slots[item.slot].node = Some(node);
        }
        wave = next;
    }
    (0..HYPOTHESES.len())
        .map(|i| assemble(&mut slots, i))
        .collect()
}

/// Steps 1–4 of a wave (see the module docs): every item's measurement
/// outcome, in item order. Each item counts one cache hit or miss — a
/// miss for the first item at each focus this wave measured.
fn measure_wave(
    tool: &Paradyn,
    metrics: &[String],
    wave: &[Item],
    workers: usize,
) -> Vec<Result<Measured, RequestError>> {
    let cache = tool.measurement_cache();
    let (_, _, epoch) = tool.session_stamp();
    let program = tool.program_hash();
    if program == 0 {
        // Nothing loaded: no machine can run and nothing is cached.
        return wave.iter().map(|_| Err(RequestError::NoProgram)).collect();
    }
    // 1. Distinct foci in item order, with their cache keys. The cache
    // answers what it holds; `pending` counts, per focus, the items a run
    // must answer.
    let mut index: HashMap<&Focus, usize> = HashMap::new();
    let mut foci: Vec<(&Focus, String)> = Vec::new();
    let at: Vec<usize> = wave
        .iter()
        .map(|item| {
            *index.entry(&item.focus).or_insert_with(|| {
                foci.push((&item.focus, item.focus.to_string()));
                foci.len() - 1
            })
        })
        .collect();
    let mut pending = vec![0u64; foci.len()];
    let cached: Vec<_> = wave
        .iter()
        .zip(&at)
        .map(|(item, &f)| {
            let c = cache.get(item.hyp.metric, &foci[f].1, program, epoch);
            pending[f] += u64::from(c.is_none());
            c
        })
        .collect();
    let todo: Vec<usize> = (0..foci.len()).filter(|&f| pending[f] > 0).collect();
    // 2. As few runs of at most the cap as keep every worker busy, the
    // foci spread evenly over them.
    let runs = todo
        .len()
        .div_ceil(MAX_FOCI_PER_RUN)
        .max(workers.min(todo.len()));
    let size = todo.len().div_ceil(runs.max(1)).max(1);
    let chunks: Vec<&[usize]> = todo.chunks(size).collect();
    // 3–4. Each worker takes chunks off the cursor, runs one machine per
    // chunk and fills the cache from it.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done: Vec<(usize, MeasuredBatch)> = Vec::new();
        while let Some(chunk) = chunks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let chunk_foci: Vec<Focus> = chunk.iter().map(|&f| foci[f].0.clone()).collect();
            let batches = {
                let _run = pdmap_obs::span(run_obs_site());
                tool.run_experiments(metrics, &chunk_foci)
            };
            let batches: Vec<MeasuredBatch> = batches.into_iter().map(Arc::new).collect();
            let fill = chunk.iter().zip(&batches);
            cache.fill(
                program,
                epoch,
                fill.map(|(&f, b)| (foci[f].1.clone(), b.clone(), pending[f]))
                    .collect(),
            );
            done.extend(chunk.iter().copied().zip(batches));
        }
        done
    };
    let threads = workers.min(chunks.len());
    pdmap_obs::counter("consultant.pool.workers").add(threads as u64);
    // Machine runs stay off the calling thread, whose heap the caller's
    // own work keeps using.
    let mut batch_of: Vec<Option<MeasuredBatch>> = vec![None; foci.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(work)).collect();
        for w in workers {
            for (f, batch) in w.join().expect("wave worker panicked") {
                batch_of[f] = Some(batch);
            }
        }
    });
    let ran = |f: usize, metric| {
        let batch = batch_of[f].as_ref().expect("every pending focus was run");
        mcache::answer(batch, metric).expect("a run measures every hypothesis metric")
    };
    cached
        .into_iter()
        .zip(wave.iter().zip(&at))
        .map(|(c, (item, &f))| c.unwrap_or_else(|| ran(f, item.hyp.metric)))
        .collect()
}

/// Rebuilds the tree below `idx` from the slot arena, child order as
/// recorded at push time.
fn assemble(slots: &mut [Slot], idx: usize) -> ExperimentNode {
    let children = std::mem::take(&mut slots[idx].children);
    let mut node = slots[idx].node.take().expect("every queued slot is filled");
    node.children = children.into_iter().map(|c| assemble(slots, c)).collect();
    node
}

/// Where-axis refinements of a focus (delegates to the data manager).
pub fn refinement_candidates(tool: &Paradyn, focus: &Focus) -> Arc<[Focus]> {
    tool.data().refinement_candidates(focus)
}

/// Walks a search forest and returns a violation report for every node
/// whose decided verdict is *not* backed by its interval — a `True`/`False`
/// answer while the interval straddles the threshold, which the
/// coverage-aware consultant must never emit. Empty means the invariant
/// holds; the chaos drill and CI fail on any entry.
pub fn audit(results: &[ExperimentNode], threshold: f64) -> Vec<String> {
    let mut violations = Vec::new();
    fn walk(node: &ExperimentNode, threshold: f64, out: &mut Vec<String>) {
        if node.verdict.is_decided() && node.interval.classify(threshold) == Side::Straddles {
            out.push(format!(
                "{} @ {}: verdict {:?} from straddling interval {} (coverage {})",
                node.hypothesis, node.focus, node.verdict, node.interval, node.coverage
            ));
        }
        for c in &node.children {
            walk(c, threshold, out);
        }
    }
    for node in results {
        walk(node, threshold, &mut violations);
    }
    violations
}

/// Renders the search tree, Performance Consultant style. Nodes measured
/// under complete coverage render exactly as the classic consultant did;
/// degraded or undecidable nodes carry their interval and coverage so a
/// degraded-fleet report is *visibly* degraded.
pub fn render(results: &[ExperimentNode]) -> String {
    let mut out = String::new();
    for node in results {
        render_node(node, 0, &mut out);
    }
    out
}

/// Formats a ratio bound end as a percentage, tolerating the unbounded
/// upper end of an unmeasured experiment.
fn pct(x: f64) -> String {
    if x.is_infinite() {
        "?".to_string()
    } else {
        format!("{:.1}%", x * 100.0)
    }
}

fn render_node(node: &ExperimentNode, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    if let Some(note) = &node.note {
        // An unmeasured experiment has no ratio; printing "0.0% of wall
        // time" would fabricate a measurement that never happened.
        write!(
            out,
            "{} {} @ {} ({note})",
            node.verdict.marker(),
            node.hypothesis,
            node.focus
        )
        .unwrap();
    } else {
        write!(
            out,
            "{} {} @ {} — {:.1}% of wall time",
            node.verdict.marker(),
            node.hypothesis,
            node.focus,
            node.ratio * 100.0
        )
        .unwrap();
        if !node.coverage.is_complete() || !node.interval.is_point() {
            write!(
                out,
                " in [{}, {}] ({}/{} nodes, >={} samples lost)",
                pct(node.interval.lo),
                pct(node.interval.hi),
                node.coverage.nodes_reporting,
                node.coverage.nodes_total,
                node.coverage.samples_lost
            )
            .unwrap();
        }
    }
    out.push('\n');
    for c in &node.children {
        render_node(c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemonset::SessionCoverage;
    use crate::tool::Experiment;
    use cmrts_sim::MachineConfig;

    /// A communication-heavy program: sorts and transposes dominate.
    const COMM_HEAVY: &str = "\
PROGRAM COMMY
REAL A(512), B(512)
A = 1.0
B = SORT(A)
B = SORT(B)
A = CSHIFT(B, 7)
END
";

    fn tool_for(src: &str, nodes: usize) -> Paradyn {
        let mut t = Paradyn::new(MachineConfig {
            nodes,
            ..MachineConfig::default()
        });
        t.load_source(src).unwrap();
        t
    }

    #[test]
    fn finds_communication_bottleneck() {
        let t = tool_for(COMM_HEAVY, 4);
        let results = search(&t, &ConsultantConfig::default());
        let comm = results
            .iter()
            .find(|r| r.hypothesis == "ExcessiveCommunication")
            .unwrap();
        assert!(comm.verdict.is_true(), "ratio was {}", comm.ratio);
        assert!(comm.interval.is_point(), "full coverage, point estimate");
        let sorty = results
            .iter()
            .find(|r| r.hypothesis == "ExcessiveSortTime")
            .unwrap();
        assert!(sorty.verdict.is_true());
    }

    #[test]
    fn true_hypotheses_are_refined() {
        let t = tool_for(COMM_HEAVY, 4);
        let results = search(
            &t,
            &ConsultantConfig {
                threshold: 0.05,
                max_depth: 1,
            },
        );
        let comm = results
            .iter()
            .find(|r| r.hypothesis == "ExcessiveCommunication")
            .unwrap();
        assert!(!comm.children.is_empty(), "refinements explored");
        // Some refinement points at a specific statement or node.
        let shown = render(&results);
        assert!(shown.contains("[TRUE ]"));
        assert!(shown.contains("node#") || shown.contains("line#"));
    }

    #[test]
    fn io_free_program_rejects_io_hypothesis() {
        let t = tool_for(COMM_HEAVY, 2);
        let results = search(&t, &ConsultantConfig::default());
        let io = results
            .iter()
            .find(|r| r.hypothesis == "ExcessiveIOTime")
            .unwrap();
        assert_eq!(io.verdict, Verdict::False);
        assert!(io.children.is_empty());
    }

    #[test]
    fn parallel_search_renders_byte_identical_to_sequential() {
        let t = tool_for(COMM_HEAVY, 4);
        let config = ConsultantConfig {
            threshold: 0.05,
            max_depth: 2,
        };
        let sequential = render(&search(&t, &config));
        for _ in 0..3 {
            let parallel = render(&search_parallel(&t, &config));
            assert_eq!(
                sequential, parallel,
                "parallel search must render byte-identical to the baseline"
            );
        }
    }

    #[test]
    fn parallel_search_shares_runs_through_the_measurement_cache() {
        let t = tool_for(COMM_HEAVY, 4);
        t.clear_measurement_cache();
        let results = search_parallel(&t, &ConsultantConfig::default());
        assert_eq!(results.len(), HYPOTHESES.len());
        let st = t.measurement_cache_stats();
        // Six root experiments at the same whole-program focus: one run,
        // five hits — plus whatever the refinement levels share.
        assert!(st.hits >= 5, "expected ≥5 cache hits, got {st:?}");
        let experiments: u64 = {
            fn count(n: &ExperimentNode) -> u64 {
                1 + n.children.iter().map(count).sum::<u64>()
            }
            results.iter().map(count).sum()
        };
        assert_eq!(st.hits + st.misses, experiments);
        assert!(
            st.misses < experiments,
            "machine runs saved: {} runs for {experiments} experiments",
            st.misses
        );
    }

    #[test]
    fn waves_account_every_experiment_and_run_exactly() {
        let t = tool_for(COMM_HEAVY, 4);
        let config = ConsultantConfig {
            threshold: 0.05,
            max_depth: 2,
        };
        t.clear_measurement_cache();
        let tree = search(&t, &config);
        let st = t.measurement_cache_stats();
        // Distinct foci per depth: one wave each.
        fn walk(n: &ExperimentNode, depth: usize, waves: &mut Vec<Vec<Focus>>) -> u64 {
            waves.resize(waves.len().max(depth + 1), Vec::new());
            if !waves[depth].contains(&n.focus) {
                waves[depth].push(n.focus.clone());
            }
            1 + n
                .children
                .iter()
                .map(|c| walk(c, depth + 1, waves))
                .sum::<u64>()
        }
        let mut waves = Vec::new();
        let experiments: u64 = tree.iter().map(|n| walk(n, 0, &mut waves)).sum();
        assert_eq!(waves.len(), 3, "COMM_HEAVY refines to depth 2");
        let foci: usize = waves.iter().map(Vec::len).sum();
        assert_eq!(st.hits + st.misses, experiments);
        assert_eq!(st.misses, foci as u64, "one miss per focus a wave measured");
        let runs: usize = waves
            .iter()
            .map(|w| w.len().div_ceil(MAX_FOCI_PER_RUN))
            .sum();
        assert_eq!(st.runs, runs as u64, "one worker: one run per chunk");
        // A warm repeat runs nothing; an epoch bump measures again.
        search_parallel(&t, &config);
        let warm = t.measurement_cache_stats();
        assert_eq!((warm.runs, warm.misses), (st.runs, st.misses));
        assert_eq!(warm.hits, st.hits + experiments);
        t.set_session_coverage(None);
        search_parallel(&t, &config);
        let bumped = t.measurement_cache_stats();
        assert_eq!(bumped.misses, st.misses * 2);
        assert!(bumped.runs > warm.runs);
    }

    #[test]
    fn refinement_candidates_prefer_arrays_over_subregions() {
        let t = tool_for(COMM_HEAVY, 2);
        // Populate subregions dynamically.
        let mut m = t.new_machine().unwrap();
        m.run();
        let cands = refinement_candidates(&t, &Focus::whole_program());
        let paths: Vec<String> = cands.iter().map(|f| f.to_string()).collect();
        assert!(paths.iter().any(|p| p.ends_with("/A")), "{paths:?}");
        assert!(
            !paths.iter().any(|p| p.contains("sub#")),
            "first refinement stops at arrays: {paths:?}"
        );
        // Refining from the array focus reaches its subregions.
        let array_focus = cands
            .iter()
            .find(|f| f.to_string().ends_with("/A"))
            .unwrap();
        let deeper = refinement_candidates(&t, array_focus);
        assert!(deeper.iter().any(|f| f.to_string().contains("sub#")));
    }

    #[test]
    fn degraded_fleet_flips_borderline_verdicts_to_unknown() {
        let t = tool_for(COMM_HEAVY, 4);
        let full = search(&t, &ConsultantConfig::default());
        // 3 of 4 nodes reporting: every False whose hi = ratio × 4/3 crosses
        // the threshold must become Unknown; clear-cut ones stay decided.
        t.set_session_coverage(Some(SessionCoverage {
            coverage: Coverage {
                nodes_reporting: 3,
                nodes_total: 4,
                samples_lost: 0,
            },
            max_sample_cost: 0.0,
        }));
        let degraded = search(&t, &ConsultantConfig::default());
        for (f, d) in full.iter().zip(&degraded) {
            match f.verdict {
                // lo is the observed ratio, unchanged by widening: True holds.
                Verdict::True => assert_eq!(d.verdict, Verdict::True, "{}", d.hypothesis),
                Verdict::False => assert!(
                    d.verdict != Verdict::True,
                    "{}: False may weaken to Unknown, never flip to True",
                    d.hypothesis
                ),
                Verdict::Unknown => {}
            }
            assert!(!d.coverage.is_complete());
            assert!(d.interval.hi >= d.interval.lo);
        }
        // The report is visibly degraded and the invariant audit is clean.
        let shown = render(&degraded);
        assert!(shown.contains("3/4 nodes"), "{shown}");
        assert!(audit(&degraded, 0.10).is_empty());
    }

    #[test]
    fn unknown_verdict_for_failed_measurement() {
        let t = tool_for(COMM_HEAVY, 2);
        let bogus = Hypothesis {
            name: "ExcessivePhantomTime",
            metric: "No Such Metric",
        };
        let config = ConsultantConfig::default();
        let measured = t.run_experiment(&Experiment {
            metric: bogus.metric.to_string(),
            focus: Focus::whole_program(),
        });
        assert!(matches!(measured, Err(RequestError::UnknownMetric(_))));
        let node = evaluate(&t, &config, &bogus, &Focus::whole_program(), measured);
        assert_eq!(node.verdict, Verdict::Unknown);
        let note = node
            .note
            .clone()
            .expect("failed measurement carries a note");
        assert!(note.contains("measurement failed"), "{note}");
        assert!(
            node.children.is_empty() && !should_explore(&node, 0, &config),
            "unmeasured Unknown is terminal"
        );
        let shown = render(&[node]);
        assert!(shown.contains("[?????]"), "{shown}");
        assert!(shown.contains("measurement failed"), "{shown}");
        assert!(
            !shown.contains("% of wall time"),
            "an unmeasured node must not fabricate a ratio: {shown}"
        );
    }

    #[test]
    fn unloaded_tool_searches_to_unknown_not_panic() {
        let t = Paradyn::new(MachineConfig::default());
        for results in [
            search(&t, &ConsultantConfig::default()),
            search_parallel(&t, &ConsultantConfig::default()),
        ] {
            assert_eq!(results.len(), HYPOTHESES.len());
            for node in &results {
                assert_eq!(node.verdict, Verdict::Unknown);
                let note = node.note.as_deref().unwrap();
                assert!(note.contains("no program loaded"), "{note}");
            }
        }
    }

    #[test]
    fn search_reuses_refinements_and_records_experiment_spans() {
        // The registry is global to the test binary, so measure deltas.
        let snap0 = pdmap_obs::snapshot();
        let hits0 = snap0.counter("consultant.cache_hit");
        let spans0 = snap0
            .site("consultant", "experiment")
            .map_or(0, |s| s.count);

        let t = tool_for(COMM_HEAVY, 4);
        let results = search(
            &t,
            &ConsultantConfig {
                threshold: 0.05,
                max_depth: 1,
            },
        );
        let experiments: usize = {
            fn count(n: &ExperimentNode) -> usize {
                1 + n.children.iter().map(count).sum::<usize>()
            }
            results.iter().map(count).sum()
        };

        let snap = pdmap_obs::snapshot();
        // Several hypotheses refine the same whole-program focus; all but
        // the first hit the cache.
        assert!(
            snap.counter("consultant.cache_hit") > hits0,
            "refinements of a repeated focus must come from the cache"
        );
        let spans = snap.site("consultant", "experiment").unwrap().count;
        assert!(
            spans - spans0 >= experiments as u64,
            "every experiment records a span: {} new spans for {experiments} experiments",
            spans - spans0
        );
    }

    #[test]
    fn early_cuts_are_counted() {
        // The obs registry is global to the test binary, so assert a
        // monotone lower bound (the delta may include concurrent tests'
        // cuts), derived from the tree the search actually produced.
        let t = tool_for(COMM_HEAVY, 4);
        let config = ConsultantConfig::default();
        let before = pdmap_obs::snapshot().counter("consultant.early_cut");
        let seq = search(&t, &config);
        let after = pdmap_obs::snapshot().counter("consultant.early_cut");
        fn cuts(n: &ExperimentNode, depth: usize, config: &ConsultantConfig) -> u64 {
            let cut = depth < config.max_depth
                && (n.verdict == Verdict::False
                    || (n.verdict == Verdict::Unknown && n.note.is_some()));
            u64::from(cut)
                + n.children
                    .iter()
                    .map(|c| cuts(c, depth + 1, config))
                    .sum::<u64>()
        }
        let expected: u64 = seq.iter().map(|n| cuts(n, 0, &config)).sum();
        assert!(expected > 0, "COMM_HEAVY decides some hypotheses False");
        assert!(
            after - before >= expected,
            "each cut subtree increments the counter: {} < {expected}",
            after - before
        );
    }

    #[test]
    fn audit_flags_handcrafted_violations() {
        let bad = ExperimentNode {
            hypothesis: "Fabricated".into(),
            focus: Focus::whole_program(),
            value: 0.09,
            wall: 1.0,
            ratio: 0.09,
            interval: Interval::new(0.09, 0.12),
            coverage: Coverage {
                nodes_reporting: 3,
                nodes_total: 4,
                samples_lost: 0,
            },
            verdict: Verdict::False,
            note: None,
            children: Vec::new(),
        };
        let v = audit(&[bad], 0.10);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("Fabricated"), "{v:?}");
    }
}
