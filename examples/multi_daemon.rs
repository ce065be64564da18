//! A multi-daemon measurement session (§4.2.3): three Paradyn daemons with
//! deliberately skewed clocks feed one tool over TCP. The tool imports
//! each daemon's mapping information into its own Data Manager shard,
//! aligns every daemon's clock via probe exchanges, and merges the three
//! sample streams into one — sorted on the tool clock, not the daemons'.
//!
//! ```sh
//! cargo run --example multi_daemon
//! ```
//!
//! The daemons here run on threads (`pdmapd::spawn`) so the example is
//! self-contained; `cargo run -p pdmap-bench --bin multi_daemon` drives
//! the same session against real `pdmapd` child processes.

use paradyn_tool::{export_shard_obs, DaemonSet, DataManager};
use pdmap::model::Namespace;
use pdmap_transport::TransportConfig;
use pdmapd::{DaemonConfig, RunningDaemon, UpstreamConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Three daemons: one 40 ms fast, one true, one 40 ms slow.
    let skews = [40_000_000i64, 0, -40_000_000];
    let daemons: Vec<RunningDaemon> = skews
        .iter()
        .map(|&skew_ns| {
            pdmapd::spawn(DaemonConfig {
                upstream: UpstreamConfig {
                    skew_ns,
                    linger: Duration::from_secs(2),
                    ..UpstreamConfig::default()
                },
                samples: 5,
                period: Duration::from_millis(4),
                ..DaemonConfig::default()
            })
            .expect("bind a daemon listener")
        })
        .collect();
    let addrs: Vec<_> = daemons.iter().map(|d| d.addr).collect();
    println!("daemons listening on {addrs:?}\n");

    // One shard per daemon: imports and samples from different daemons
    // never touch the same lock.
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 3));
    let mut set = DaemonSet::connect(&addrs, TransportConfig::default(), data);
    set.clock_sync(5, Duration::from_secs(10))
        .expect("every daemon answers clock probes");

    // A recovered offset = clock-origin difference + injected skew. The
    // threaded daemons share this process's clock, so their origin
    // difference is exactly pdmapd's deliberate CLOCK_BASE_NS and the
    // remainder is the recovered skew (± half the probe round trip).
    println!("clock alignment (offset = daemon clock - tool clock):");
    for (i, &skew) in skews.iter().enumerate() {
        let c = set.conn(i).clock();
        let recovered_skew = c.offset_ns - pdmapd::CLOCK_BASE_NS as i64;
        println!(
            "  daemon {i}: injected skew {:>+4} ms, recovered {:>+8.3} ms (rtt {:.3} ms)",
            skew / 1_000_000,
            recovered_skew as f64 / 1e6,
            c.rtt_ns as f64 / 1e6
        );
    }

    set.pump_until_samples(15, Duration::from_secs(10));

    println!("\nwhere axis after importing three daemons' mappings:");
    println!("{}", set.data().render_where_axis());

    println!("merged sample stream (tool clock):");
    for s in set.merged_samples() {
        println!(
            "  {:>10.3} ms  daemon {}  {} = {}  (daemon wall {:.3} ms)",
            s.aligned_ns as f64 / 1e6,
            s.daemon,
            s.metric,
            s.value,
            s.wall as f64 / 1e6
        );
    }

    println!("\nper-shard data-manager counters (self-mapped as MDL metrics):");
    for (m, v) in export_shard_obs(set.data()) {
        if v > 0 {
            println!("  {:<40} {v}", m.name);
        }
    }

    for d in daemons {
        let _ = d.join();
    }
}
