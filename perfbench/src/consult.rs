//! `consult`: one analyst session against the simulated CM-5.
//!
//! Set-up compiles the seeded program and loads it into a fresh tool.
//! Each session then clears the measurement cache and runs
//! `search_parallel` → `render` → `audit`; after the sessions comes a
//! seeded batch of single `Paradyn::measure` queries across the where
//! axis. Nothing crosses a transport, so ingest changes must read flat
//! here.

use crate::gen;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Mode;
use cmf_lang::CompileOptions;
use paradyn_tool::consultant::{audit, render, search_parallel, ConsultantConfig};
use paradyn_tool::{Experiment, ExperimentNode, Paradyn};
use pdmap::hierarchy::Focus;
use std::collections::HashSet;
use std::time::{Duration, Instant};

const CONFIG: ConsultantConfig = ConsultantConfig {
    threshold: 0.05,
    max_depth: 2,
};
/// Fresh set-ups per session; `setup_s` is the median over the run.
const SETUP_REPS: usize = 3;
/// Fewest timed sessions per run and mode, whatever the time budget.
const MIN_SESSIONS: usize = 3;
/// Queries after each session; a run times at least 120, enough for p90
/// to have ten samples beyond it.
const QUERY_BLOCK: usize = 40;
/// The seeded query list the blocks walk through.
const QUERY_POOL: usize = 1000;

fn machine() -> cmrts_sim::MachineConfig {
    cmrts_sim::MachineConfig {
        nodes: gen::NODES,
        ..cmrts_sim::MachineConfig::default()
    }
}

/// Compiles and loads `src` into a fresh tool, timing both calls.
fn set_up(src: &str, tracer: &Tracer, rep: u64) -> (Paradyn, Duration, Duration) {
    tracer.span("bench.setup", None, rep, |id| {
        let mut tool = Paradyn::new(machine());
        let t0 = Instant::now();
        let compiled = tracer
            .span("cmf.compile", id, rep, |_| {
                cmf_lang::compile(src, tool.namespace(), &CompileOptions::default())
            })
            .expect("generated program compiles");
        let t1 = Instant::now();
        tracer
            .span("datamgr.load", id, rep, |_| tool.load(&compiled))
            .expect("generated program loads");
        (tool, t1 - t0, t1.elapsed())
    })
}

fn count_nodes(nodes: &[ExperimentNode]) -> usize {
    nodes.iter().map(|n| 1 + count_nodes(&n.children)).sum()
}

fn notes(nodes: &[ExperimentNode], out: &mut Vec<String>) {
    for n in nodes {
        if let Some(note) = &n.note {
            out.push(format!("{} @ {}: {note}", n.hypothesis, n.focus));
        }
        notes(&n.children, out);
    }
}

fn foci(nodes: &[ExperimentNode], seen: &mut HashSet<Focus>, out: &mut Vec<Focus>) {
    for n in nodes {
        if seen.insert(n.focus.clone()) {
            out.push(n.focus.clone());
        }
        foci(&n.children, seen, out);
    }
}

/// One session's figures: search, render, audit, and its query block.
struct Session {
    secs: f64,
    query_ms: Vec<f64>,
    render_audit: Duration,
    violations: Vec<String>,
    notes: Vec<String>,
    experiments: usize,
    hits: u64,
    misses: u64,
}

/// Runs one session; returns its figures, verdict tree and render.
fn session(tool: &Paradyn, tracer: &Tracer, group: u64) -> (Session, Vec<ExperimentNode>, String) {
    tool.clear_measurement_cache();
    let t0 = Instant::now();
    let (tree, render, violations, render_audit) =
        tracer.span("bench.session", None, group, |id| {
            let tree = tracer.span("consultant.search_parallel", id, group, |_| {
                search_parallel(tool, &CONFIG)
            });
            let t1 = Instant::now();
            let (render, violations) = tracer.span("consultant.render_audit", id, group, |_| {
                (render(&tree), audit(&tree, CONFIG.threshold))
            });
            (tree, render, violations, t1.elapsed())
        });
    let secs = t0.elapsed().as_secs_f64();
    let stats = tool.measurement_cache_stats();
    let mut found = Vec::new();
    notes(&tree, &mut found);
    let s = Session {
        secs,
        query_ms: Vec::new(),
        render_audit,
        violations,
        notes: found,
        experiments: count_nodes(&tree),
        hits: stats.hits,
        misses: stats.misses,
    };
    (s, tree, render)
}

/// Times `QUERY_BLOCK` single-metric queries, then checks each against
/// the batch the last search cached at the same (metric, focus): bit for
/// bit, and without a cache miss, so every query hit a measured focus.
/// Returns the latencies in ms.
fn query_block(
    tool: &Paradyn,
    queries: &[(String, gen::QueryFocus)],
    next: &mut usize,
    tracer: &Tracer,
    r: &mut Report,
) -> Vec<f64> {
    let batch = gen::hypothesis_metrics();
    let mut query_ms = Vec::with_capacity(QUERY_BLOCK);
    let mut answers = Vec::with_capacity(QUERY_BLOCK);
    for _ in 0..QUERY_BLOCK {
        let i = *next % queries.len();
        *next += 1;
        let (metric, qf) = &queries[i];
        let focus = qf.focus();
        let group = 1_000_000 + *next as u64;
        let t0 = Instant::now();
        let out = tracer.span("bench.query", None, group, |id| {
            tracer.span("paradyn.measure", id, group, |_| {
                tool.measure(metric, &focus)
            })
        });
        query_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        answers.push((i, out));
    }
    let before = tool.measurement_cache_stats();
    for (i, answer) in answers {
        let (metric, qf) = &queries[i];
        let exp = Experiment {
            metric: metric.clone(),
            focus: qf.focus(),
        };
        match (answer, tool.experiment_cached(&exp, &batch)) {
            (Ok((v, _)), Ok(m)) if v.to_bits() == m.value.to_bits() => {}
            (a, b) => r.fail(
                1,
                format!("query {metric} @ {}: {a:?} vs cached {b:?}", exp.focus),
            ),
        }
    }
    let misses = tool.measurement_cache_stats().misses - before.misses;
    r.check(misses == 0, misses, || {
        format!("{misses} queries fell outside the foci the search measured")
    });
    query_ms
}

pub fn run(seed: u64, budget: Duration, tracer: &Tracer, r: &mut Report) {
    let src = gen::program(seed);
    let queries = gen::queries(seed, QUERY_POOL);
    let start = Instant::now();
    // A traced run rotates untraced, traced and obs-off sessions so that
    // the tracing and obs overheads compare like with like, and keeps a
    // share of its budget for the per-layer replays.
    let (modes, session_budget): (&[Mode], _) = if tracer.on() {
        (
            &[Mode::Plain, Mode::Traced, Mode::ObsOff],
            budget.mul_f64(0.6),
        )
    } else {
        (&[Mode::Plain], budget)
    };
    let quiet = Tracer::new(false);

    // Each session loads the program into fresh tools, runs one search,
    // and asks a block of queries, so set-up, verdict and query times are
    // all sampled across the whole run. The first session warms caches and
    // the allocator: its outputs are checked, its times are not kept.
    let (mut setups, mut compiles, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let mut sessions: Vec<(Mode, Session)> = Vec::new();
    let mut next_query = 0;
    let mut first_render = None;
    let mut last_tree = Vec::new();
    let mut tool = None;
    while sessions.len() <= MIN_SESSIONS * modes.len() || start.elapsed() < session_budget {
        let i = sessions.len();
        let mode = modes[i % modes.len()];
        let t = if mode == Mode::Traced { tracer } else { &quiet };
        pdmap_obs::set_enabled(mode != Mode::ObsOff);
        for rep in 0..SETUP_REPS {
            let t0 = Instant::now();
            let (fresh, compile, load) = set_up(&src, t, (i * SETUP_REPS + rep) as u64);
            if i > 0 {
                setups.push(t0.elapsed().as_secs_f64());
                compiles.push(compile.as_secs_f64() * 1e3);
                loads.push(load.as_secs_f64() * 1e3);
            }
            tool = Some(fresh);
        }
        let tool = tool.as_ref().expect("a set-up ran");
        let (mut s, tree, render) = session(tool, t, i as u64);
        s.query_ms = query_block(tool, &queries, &mut next_query, t, r);
        pdmap_obs::set_enabled(true);
        if i == 0 {
            r.set("peak_rss_mb", crate::report::peak_rss_mb());
        }

        let first = first_render.get_or_insert_with(|| render.clone());
        r.check(s.violations.is_empty(), 1, || {
            format!("session {i}: audit found {:?}", s.violations)
        });
        r.check(s.notes.is_empty(), 1, || {
            format!("session {i}: unmeasured nodes {:?}", s.notes)
        });
        r.check(render == *first, 1, || {
            format!("session {i}: render differs from session 0")
        });
        last_tree = tree;
        sessions.push((mode, s));
    }

    let timed = &sessions[1..];
    let verdicts: Vec<f64> = timed.iter().map(|(_, s)| s.secs).collect();
    let experiments = sessions[0].1.experiments;
    r.set("setup_s", median(&setups));
    r.set("verdict_s", median(&verdicts));
    r.set(
        "samples_per_s",
        median(
            &verdicts
                .iter()
                .map(|v| experiments as f64 / v)
                .collect::<Vec<_>>(),
        ),
    );
    r.set_queries(
        &timed
            .iter()
            .filter(|(m, _)| *m == Mode::Plain)
            .flat_map(|(_, s)| s.query_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    r.attempted += sessions
        .iter()
        .map(|(_, s)| 1 + s.query_ms.len() as u64)
        .sum::<u64>();
    r.fact("sessions", sessions.len() as f64);
    r.fact("setups", setups.len() as f64);
    r.fact("experiments_per_session", experiments as f64);
    r.fact("machine_runs_per_session", sessions[0].1.misses as f64);

    if tracer.on() {
        let tool = tool.expect("a set-up ran");
        layers(&tool, &src, tracer, timed, &last_tree, &queries, r);
        r.set("cmf.compile_ms", median(&compiles));
        r.set("datamgr.load_ms", median(&loads));
        r.set(
            "consultant.render_ms",
            median(
                &timed
                    .iter()
                    .map(|(_, s)| s.render_audit.as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
        crate::overheads(
            r,
            &timed.iter().map(|(m, s)| (*m, s.secs)).collect::<Vec<_>>(),
        );
    }
}

/// The traced run's per-layer figures that need calls of their own:
/// single-threaded replays of every machine run the search made, with
/// and without mapping instrumentation, SAS activation counts, and timed
/// request and refinement calls.
fn layers(
    tool: &Paradyn,
    src: &str,
    tracer: &Tracer,
    sessions: &[(Mode, Session)],
    tree: &[ExperimentNode],
    queries: &[(String, gen::QueryFocus)],
    r: &mut Report,
) {
    let batch = gen::hypothesis_metrics();
    let mut seen = HashSet::new();
    let mut measured = Vec::new();
    foci(tree, &mut seen, &mut measured);

    // A twin tool with the §5 mapping instrumentation off.
    let (mut twin, _, _) = set_up(src, &Tracer::new(false), 0);
    twin.set_mapping_instrumentation(false);
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    for (i, focus) in measured.iter().enumerate() {
        let group = 2_000_000 + i as u64;
        let t0 = Instant::now();
        tracer.span("cmrts.run_experiment_batch", None, group, |_| {
            tool.run_experiment_batch(&batch, focus)
        });
        on_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        twin.run_experiment_batch(&batch, focus);
        off_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let run_on = median(&on_ms);
    let run_off = median(&off_ms);
    r.set("cmrts.run_ms_p50", run_on);

    let mut m = tool.new_machine().expect("program loaded");
    m.run();
    let activations: u64 = (0..m.num_nodes())
        .map(|k| m.with_node_sas(k, |sas| sas.stats().activations))
        .sum();
    r.set("sas.activations_per_run", activations as f64);
    r.set("sas.mapping_share", (run_on - run_off) / run_on);
    r.set(
        "sas.ns_per_activation",
        (run_on - run_off) * 1e6 / activations.max(1) as f64,
    );

    let mut request_us = Vec::new();
    for (i, (metric, qf)) in queries.iter().enumerate() {
        let focus = qf.focus();
        let t0 = Instant::now();
        let req = tracer.span("metrics.request", None, 3_000_000 + i as u64, |_| {
            tool.request(metric, &focus)
        });
        request_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Ok(mut req) = req {
            req.cancel(tool.manager());
        }
    }
    r.set("metrics.request_us", median(&request_us));

    let mut refine_us = Vec::new();
    for (i, focus) in measured.iter().enumerate() {
        let t0 = Instant::now();
        tracer.span(
            "datamgr.refinement_candidates",
            None,
            4_000_000 + i as u64,
            |_| tool.data().refinement_candidates(focus),
        );
        refine_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    r.set("datamgr.refine_us", median(&refine_us));

    let runs: Vec<f64> = sessions.iter().map(|(_, s)| s.misses as f64).collect();
    let ratios: Vec<f64> = sessions
        .iter()
        .map(|(_, s)| s.hits as f64 / (s.hits + s.misses).max(1) as f64)
        .collect();
    r.set("cmrts.runs", median(&runs));
    r.set("mcache.hit_ratio", median(&ratios));
    r.set("consultant.experiments", count_nodes(tree) as f64);
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(paradyn_tool::consultant::HYPOTHESES.len());
    let verdict = median(&sessions.iter().map(|(_, s)| s.secs).collect::<Vec<_>>());
    r.set(
        "consultant.busy_ratio",
        on_ms.iter().sum::<f64>() / 1e3 / (verdict * workers as f64),
    );
    r.fact("foci_measured", measured.len() as f64);
}
