//! Self-observation trace capture: runs a distributed-SAS workload and a
//! daemon sample stream over TCP, then exports the tool's own span stream
//! as a Chrome `trace_event` JSON file (load it in `about:tracing` or
//! [Perfetto](https://ui.perfetto.dev)) plus a plain-text summary and the
//! perturbation self-report on stdout.
//!
//! ```sh
//! cargo run -p pdmap-bench --release --bin obs_trace -- trace.json
//! cargo run -p pdmap-bench --release --bin obs_trace -- trace.json 4 8
//! ```
//!
//! Arg 1 (optional): output path for the trace JSON (default
//! `obs_trace.json`). Arg 2 (optional): number of client queries (default
//! 8). Arg 3 (optional): server disk reads per query (default 16). Exits
//! nonzero if the run recorded no spans — CI uses this as the smoke
//! assertion that self-instrumentation is alive.

use paradyn_tool::{DaemonSet, DataManager, InstrLibEndpoint};
use pdmap::model::Namespace;
use pdmap_transport::{Backend, TransportConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use sys_sim::db::DbSystem;

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "obs_trace.json".to_string());
    let queries: u32 = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("queries must be an integer"))
        .unwrap_or(8);
    let reads: usize = std::env::args()
        .nth(3)
        .map(|s| s.parse().expect("reads must be an integer"))
        .unwrap_or(16);

    // Workload 1: the §4.2.3 distributed database over TCP. Every
    // activation forwards a sentence across the wire, exercising the
    // transport/tcp, sas, and queue span sites.
    let ns = Namespace::new();
    let mut db = DbSystem::over(ns, true, Backend::Tcp);
    for q in 0..queries {
        db.watch_query(q);
    }
    for q in 0..queries {
        db.run_query(q, reads);
        db.background_read();
    }
    eprintln!(
        "db workload: {} reads, {} SAS messages",
        db.total_reads(),
        db.messages()
    );

    // Workload 2: the §5 daemon protocol over TCP — the instrumentation
    // library streams metric samples, a one-link session drains and
    // decodes them.
    let link = Backend::Tcp.link(&TransportConfig::default());
    let endpoint = InstrLibEndpoint::over_transport(link.client.clone());
    let dm = Arc::new(DataManager::new(Namespace::new(), "CM Fortran"));
    let mut set = DaemonSet::over_transports(vec![("daemon".into(), link.server.clone())], dm);
    let samples = 64usize;
    for i in 0..samples {
        endpoint.send_sample("Computation Time", "/", i as u64, i as f64 * 0.5);
    }
    let pumped = set.pump_until_samples(samples, Duration::from_secs(5));
    eprintln!("daemon workload: {pumped} samples drained");

    // Export: Chrome trace to disk, summary and perturbation to stdout.
    let snap = pdmap_obs::snapshot();
    let trace = pdmap_obs::chrome_trace_json(&snap);
    if let Err(e) = std::fs::write(&out_path, &trace) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", pdmap_obs::summary_text(&snap));
    let report = pdmap_obs::perturbation_report();
    println!("{}", report.summary_line());
    println!("trace written to {out_path} ({} bytes)", trace.len());

    if snap.span_count() == 0 {
        eprintln!("error: workload recorded no spans — self-instrumentation is dead");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
