//! Consultant storm: the wave search against a replay of the per-node
//! baseline it replaced, over a communication-heavy sample, emitting one
//! JSON object with the speedup, the machine runs the waves saved, and
//! the measurement cache's hit rate.
//!
//! The baseline is replayed, not searched: one timed
//! [`Paradyn::run_experiment`] per node of the wave search's tree — one
//! uncached single-metric machine run per experiment, which is what the
//! recursive per-node search paid — with every replayed value and wall
//! checked against the tree bit for bit (`values_match`).
//!
//! ```sh
//! cargo run -p pdmap-bench --release --bin consultant_storm
//! cargo run -p pdmap-bench --release --bin consultant_storm -- \
//!     --reps 5 --coverage 3/4 --lost 2 --max-sample-cost 1e-6
//! ```
//!
//! The run is also a gate: it exits nonzero if the one-worker and
//! N-worker renders differ (under full *or* degraded coverage), if a
//! replayed value differs from the tree, if `consultant::audit` finds a
//! decided verdict resting on a straddling interval, or if the speedup
//! falls under 2x on a machine with at least 4 cores. CI parses the JSON
//! and re-asserts the same facts.

use paradyn_tool::consultant::{
    audit, render, search, search_parallel, ConsultantConfig, HYPOTHESES,
};
use paradyn_tool::{Coverage, Experiment, ExperimentNode, Paradyn, SessionCoverage};
use std::time::Instant;

/// A storm of communication: repeated global sorts, a transpose, and
/// shifts over 2048-element arrays dwarf the element-wise work, so the
/// search explores a deep True subtree under the communication hypotheses
/// and early-cuts the rest.
const STORMY: &str = "\
PROGRAM STORMY
REAL A(2048), B(2048), C(2048), M(32, 32), T(32, 32)
A = 1.0
B = SORT(A)
B = SORT(B)
C = SORT(B)
M = 2.0
T = TRANSPOSE(M)
A = CSHIFT(C, 7)
C = CSHIFT(A, -3)
ASUM = SUM(A)
END
";

struct Options {
    reps: u32,
    coverage: (usize, usize),
    lost: u64,
    max_sample_cost: f64,
}

fn parse_options() -> Options {
    let mut opts = Options {
        reps: 3,
        coverage: (3, 4),
        lost: 2,
        max_sample_cost: 1e-6,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--reps" => {
                opts.reps = value_for("--reps").parse().unwrap_or_else(|e| {
                    eprintln!("--reps expects a count: {e}");
                    std::process::exit(2);
                });
                if opts.reps == 0 {
                    eprintln!("--reps must be at least 1");
                    std::process::exit(2);
                }
            }
            "--coverage" => {
                let v = value_for("--coverage");
                let parsed = v
                    .split_once('/')
                    .and_then(|(r, n)| Some((r.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
                match parsed {
                    Some((r, n)) if n > 0 && r <= n => opts.coverage = (r, n),
                    _ => {
                        eprintln!("--coverage expects R/N with R <= N, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--lost" => {
                opts.lost = value_for("--lost").parse().unwrap_or_else(|e| {
                    eprintln!("--lost expects a count: {e}");
                    std::process::exit(2);
                });
            }
            "--max-sample-cost" => {
                opts.max_sample_cost = value_for("--max-sample-cost").parse().unwrap_or_else(|e| {
                    eprintln!("--max-sample-cost expects a number: {e}");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Every node of a search forest, depth first.
fn nodes(forest: &[ExperimentNode]) -> Vec<&ExperimentNode> {
    let mut out = Vec::new();
    for n in forest {
        out.push(n);
        out.extend(nodes(&n.children));
    }
    out
}

/// Replays the per-node baseline over a tree: one uncached single-metric
/// run per node. Returns the replay's wall milliseconds and whether every
/// value and wall equals the tree's, bit for bit.
fn replay(tool: &Paradyn, tree: &[ExperimentNode]) -> (f64, bool) {
    let nodes = nodes(tree);
    let experiments: Vec<Experiment> = nodes
        .iter()
        .map(|n| Experiment {
            metric: HYPOTHESES
                .iter()
                .find(|h| h.name == n.hypothesis)
                .expect("a catalogue hypothesis")
                .metric
                .to_string(),
            focus: n.focus.clone(),
        })
        .collect();
    let t0 = Instant::now();
    let measured: Vec<_> = experiments.iter().map(|e| tool.run_experiment(e)).collect();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let matches = nodes.iter().zip(&measured).all(|(n, m)| {
        m.as_ref().is_ok_and(|m| {
            m.value.to_bits() == n.value.to_bits() && m.wall.to_bits() == n.wall.to_bits()
        })
    });
    (ms, matches)
}

/// One search from a cleared measurement cache, so it measures every
/// focus itself.
fn cold(
    tool: &Paradyn,
    config: &ConsultantConfig,
    run: fn(&Paradyn, &ConsultantConfig) -> Vec<ExperimentNode>,
) -> Vec<ExperimentNode> {
    tool.clear_measurement_cache();
    run(tool, config)
}

fn main() {
    let opts = parse_options();
    let (reporting, total) = opts.coverage;
    let mut tool = Paradyn::new(cmrts_sim::MachineConfig {
        nodes: total,
        ..cmrts_sim::MachineConfig::default()
    });
    tool.load_source(STORMY).expect("sample compiles");
    let config = ConsultantConfig {
        threshold: 0.05,
        max_depth: 2,
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Full-coverage frame: best-of-reps wall time for the wave search and
    // for the replayed baseline. Every wave rep starts from a cleared
    // cache, so the hit rate below is intra-search sharing, not
    // rep-to-rep reuse.
    let mut par_ms = f64::INFINITY;
    let mut par_tree = Vec::new();
    for _ in 0..opts.reps {
        let t0 = Instant::now();
        par_tree = cold(&tool, &config, search_parallel);
        par_ms = par_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let st = tool.measurement_cache_stats();
    let (hits, misses, runs_par) = (st.hits, st.misses, st.runs);
    let mut seq_ms = f64::INFINITY;
    let mut values_match = true;
    for _ in 0..opts.reps {
        let (ms, matches) = replay(&tool, &par_tree);
        seq_ms = seq_ms.min(ms);
        values_match &= matches;
    }
    let one_worker = cold(&tool, &config, search);
    let identical_full = render(&one_worker) == render(&par_tree);
    let audit_ok = audit(&one_worker, config.threshold).is_empty()
        && audit(&par_tree, config.threshold).is_empty();

    let runs_seq = nodes(&par_tree).len() as u64;
    let runs_saved = runs_seq.saturating_sub(runs_par);
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let speedup = seq_ms / par_ms;

    // Degraded frame: the coverage stamp bumps the epoch (invalidating the
    // cache), one worker and N must still agree byte for byte, the tree
    // must still replay exactly, and no decided verdict may rest on a
    // straddling interval.
    tool.set_session_coverage(Some(SessionCoverage {
        coverage: Coverage {
            nodes_reporting: reporting,
            nodes_total: total,
            samples_lost: opts.lost,
        },
        max_sample_cost: opts.max_sample_cost,
    }));
    let one_deg = cold(&tool, &config, search);
    let par_deg = cold(&tool, &config, search_parallel);
    values_match &= replay(&tool, &par_deg).1;
    let identical_degraded = render(&one_deg) == render(&par_deg);
    let audit_ok_degraded = audit(&one_deg, config.threshold).is_empty()
        && audit(&par_deg, config.threshold).is_empty();

    let identical_renders = identical_full && identical_degraded;
    println!(
        "{{\n  \"speedup\": {speedup:.3},\n  \"seq_ms\": {seq_ms:.3},\n  \"par_ms\": {par_ms:.3},\n  \"runs_seq\": {runs_seq},\n  \"runs_par\": {runs_par},\n  \"runs_saved\": {runs_saved},\n  \"mcache_hits\": {hits},\n  \"mcache_misses\": {misses},\n  \"hit_rate\": {hit_rate:.4},\n  \"identical_renders\": {identical_renders},\n  \"values_match\": {values_match},\n  \"audit_ok\": {audit_ok},\n  \"audit_ok_degraded\": {audit_ok_degraded},\n  \"cores\": {cores},\n  \"workers\": {cores}\n}}"
    );

    if !identical_renders {
        eprintln!("FAILED: the N-worker render differs from the one-worker render");
        std::process::exit(3);
    }
    if !values_match {
        eprintln!("FAILED: a replayed single-metric run differs from the wave search's tree");
        std::process::exit(3);
    }
    if !audit_ok || !audit_ok_degraded {
        eprintln!("FAILED: verdict audit found decided verdicts on straddling intervals");
        std::process::exit(3);
    }
    if cores >= 4 && speedup < 2.0 {
        eprintln!("FAILED: speedup {speedup:.2}x < 2x on {cores} cores");
        std::process::exit(4);
    }
}
