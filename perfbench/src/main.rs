//! The repository's benchmark: one seeded workload per run, driven through
//! the public APIs of `paradyn-tool`, `pdmapd`, `pdmap-transport`,
//! `cmrts-sim` and `cmf-lang`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload consult --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that reports the per-layer metrics. Every
//! run checks the program's outputs. The last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! holds host and input facts. See `perfbench/README.md` for the metric
//! definitions.

mod consult;
mod fleet;
mod gen;
mod report;
mod stats;
mod trace;

use report::Report;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// How one session of a traced run is measured: untraced, traced, or
/// untraced with the program's own obs recording switched off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Traced,
    ObsOff,
}

/// `obs.overhead_pct` and `bench.trace_overhead_pct` from the primary
/// end-to-end time of each session, by mode.
pub fn overheads(r: &mut Report, times: &[(Mode, f64)]) {
    let med = |mode: Mode| {
        stats::median(
            &times
                .iter()
                .filter(|(m, _)| *m == mode)
                .map(|(_, t)| *t)
                .collect::<Vec<_>>(),
        )
    };
    let (plain, traced, obs_off) = (med(Mode::Plain), med(Mode::Traced), med(Mode::ObsOff));
    r.set("obs.overhead_pct", (plain - obs_off) / obs_off * 100.0);
    r.set("bench.trace_overhead_pct", (traced - plain) / plain * 100.0);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => trace = Some(num(&value)? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload consult|ingest|relay_wide --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let tracer = Tracer::new(args.trace);
    let (steal0, total0) = report::cpu_jiffies();
    let mut r = Report::default();
    match args.workload.as_str() {
        "consult" => consult::run(args.seed, budget, &tracer, &mut r),
        "ingest" => fleet::run(fleet::Shape::Ingest, args.seed, budget, &tracer, &mut r),
        "relay_wide" => fleet::run(fleet::Shape::RelayWide, args.seed, budget, &tracer, &mut r),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (consult, ingest, relay_wide)");
            return ExitCode::from(2);
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.fact("cores", cores as f64);
    r.fact("seed", args.seed as f64);
    let (steal1, total1) = report::cpu_jiffies();
    r.fact(
        "cpu_steal_share",
        (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
    );
    if tracer.on() {
        let (frames, steps) = report::isolation_counts();
        r.set("transport.frames", frames as f64);
        r.set("cmrts.steps", steps as f64);
        let spans = tracer.take();
        r.set("bench.layer_coverage", trace::layer_coverage(&spans));
        let mut summary = String::new();
        for (name, ns) in trace::self_time_by_name(&spans) {
            summary += &format!("  {name:<36} self {:>12.3} ms\n", ns as f64 / 1e6);
        }
        eprint!("self time per layer (traced sessions):\n{summary}");
        if let Err(e) = write_spans(&args.workload, args.seed, &spans) {
            eprintln!("perfbench: spans not written: {e}");
        }
    }
    for cause in &r.rejected {
        eprintln!("perfbench: REJECTED: {cause}");
    }
    for cause in &r.failures {
        eprintln!("perfbench: FAILED: {cause}");
    }
    println!("{}", r.facts_line());
    println!("{}", r.result_line(args.trace));
    ExitCode::SUCCESS
}

/// Writes the run's spans as JSON lines next to the build output.
fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) -> std::io::Result<()> {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into()),
    )
    .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, trace::to_json_lines(spans))?;
    eprintln!("spans: {}", path.display());
    Ok(())
}
