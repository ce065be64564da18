//! The `pdmapd` binary: one Paradyn daemon process — or, with `--relay`,
//! one interior node of a daemon aggregation tree.
//!
//! ```sh
//! pdmapd --listen 127.0.0.1:0 --skew-ns 50000000 --samples 16
//! pdmapd --relay --listen 127.0.0.1:0 --child 10.0.0.1:7001 --child 10.0.0.2:7001
//! ```
//!
//! The first stdout line is `PDMAPD LISTENING <addr>` (flushed), so a
//! parent that spawned the process with port 0 can read the bound address
//! and hand it to the tool's `DaemonSet` — or to another relay's
//! `--child` flag. Everything else goes to stderr.
//!
//! Exit codes are distinct per failure class, so a supervisor (or the
//! chaos bench) can tell them apart without parsing stderr:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | session completed |
//! | 2    | bad arguments |
//! | 3    | could not bind the listen address |
//! | 4    | session error: no tool connected before `--connect-timeout-ms` |
//! | 5    | relay session error: no parent, or no child ever synced |

use pdmap_transport::TcpServer;
use pdmapd::{serve_relay_until, serve_until, DaemonConfig, RelayConfig, UpstreamConfig};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Bad arguments.
const EXIT_USAGE: u8 = 2;
/// The listen address could not be bound.
const EXIT_BIND: u8 = 3;
/// The session failed (no tool connected within the timeout).
const EXIT_SESSION: u8 = 4;
/// The relay session failed (no parent connected, or no child synced).
const EXIT_RELAY: u8 = 5;

fn usage() -> ! {
    eprintln!(
        "usage: pdmapd [--listen ADDR] [--skew-ns N] [--samples N] \
         [--period-ms N] [--linger-ms N] [--connect-timeout-ms N] [--nodes N] \
         [--batch N] [--secret PASSPHRASE] [--obs-period MS] [--obs-trace PATH] \
         [--parent ADDR ...] [--failover-ms N] [--replay-ring N]\n\
         \x20      pdmapd --relay [--listen ADDR] [--child ADDR ...] \
         [--skew-ns N] [--batch N] [--flush-ms N] [--linger-ms N] \
         [--connect-timeout-ms N] [--secret PASSPHRASE] [--obs-period MS] \
         [--obs-trace PATH] [--parent ADDR ...] [--failover-ms N] \
         [--replay-ring N]\n\
         \x20      (--parent lists standby parents to beacon when the \
         upstream link dies; a --relay with no --child is a standby that \
         adopts beaconing orphans)"
    );
    std::process::exit(EXIT_USAGE as i32);
}

/// Parses a flag's value, or prints the usage and exits.
fn parse<T: std::str::FromStr>(value: String) -> T {
    value.parse().unwrap_or_else(|_| usage())
}

/// Parses a flag's value in milliseconds.
fn millis(value: String) -> Duration {
    Duration::from_millis(parse(value))
}

/// The node the command line asks for.
enum Mode {
    Leaf(DaemonConfig),
    Relay(RelayConfig),
}

/// Parses the flags: the parent-link ones both modes share into one
/// [`UpstreamConfig`], each mode's own into its config; `--relay` picks
/// the mode.
fn parse_args() -> Mode {
    let mut relay = false;
    let mut upstream = UpstreamConfig::default();
    // `--batch` means samples per frame to a leaf and the flush threshold
    // to a relay; each mode keeps its own default.
    let mut batch = None;
    let mut daemon = DaemonConfig::default();
    let mut tree = RelayConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || {
            args.next().unwrap_or_else(|| {
                eprintln!("pdmapd: {flag} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--relay" => relay = true,
            "--child" => tree.children.push(parse(val())),
            "--listen" => upstream.listen = val(),
            "--skew-ns" => upstream.skew_ns = parse(val()),
            "--samples" => daemon.samples = parse(val()),
            "--period-ms" => daemon.period = millis(val()),
            "--linger-ms" => upstream.linger = millis(val()),
            "--connect-timeout-ms" => upstream.connect_timeout = millis(val()),
            "--nodes" => daemon.nodes = parse(val()),
            "--batch" => batch = Some(parse(val())),
            "--flush-ms" => tree.flush_interval = millis(val()),
            "--secret" => upstream.secret = Some(pdmap_transport::secret_from_str(&val())),
            "--obs-period" => upstream.obs_period = Some(millis(val())),
            "--obs-trace" => upstream.obs_trace = Some(val().into()),
            "--parent" => upstream.parents.push(parse(val())),
            "--failover-ms" => upstream.failover_timeout = millis(val()),
            "--replay-ring" => upstream.replay_ring = parse(val()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("pdmapd: unknown flag '{other}'");
                usage()
            }
        }
    }
    // A relay with no children is a *standby*: it binds, waits for a
    // parent, and adopts orphans that beacon it — but only when failover
    // is in play, otherwise it is a configuration mistake.
    if relay && tree.children.is_empty() && upstream.failover_timeout.is_zero() {
        eprintln!("pdmapd: --relay without --child requires --failover-ms (standby mode)");
        usage();
    }
    if !relay && !tree.children.is_empty() {
        eprintln!("pdmapd: --child only makes sense with --relay");
        usage();
    }
    if relay {
        Mode::Relay(RelayConfig {
            upstream,
            batch: batch.unwrap_or(tree.batch),
            ..tree
        })
    } else {
        Mode::Leaf(DaemonConfig {
            upstream,
            batch: batch.unwrap_or(daemon.batch),
            ..daemon
        })
    }
}

fn run_leaf(server: Arc<TcpServer>, cfg: DaemonConfig) -> ExitCode {
    let report = serve_until(server, &cfg, &AtomicBool::new(false));
    eprintln!(
        "pdmapd: connected={} samples={} batches={} probes={} steps={} graceful={} skew_ns={} \
         obs_samples={} obs_snapshots={} failovers={} replayed={} epoch={}",
        report.tool_connected,
        report.samples_sent,
        report.batches_sent,
        report.probes_answered,
        report.workload_steps,
        report.graceful_shutdown,
        cfg.upstream.skew_ns,
        report.obs_samples_sent,
        report.obs_snapshots,
        report.failovers,
        report.batches_replayed,
        report.epoch
    );
    if report.tool_connected {
        ExitCode::SUCCESS
    } else {
        eprintln!("pdmapd: no tool connected within the timeout");
        ExitCode::from(EXIT_SESSION)
    }
}

fn run_relay(server: Arc<TcpServer>, cfg: RelayConfig) -> ExitCode {
    let report = serve_relay_until(server, &cfg, &AtomicBool::new(false));
    eprintln!(
        "pdmapd-relay: parent={} synced={}/{} forwarded={} batches={} goodbyes={} lost={} \
         graceful={} skew_ns={} obs_samples={} obs_snapshots={} failovers={} replayed={} \
         suppressed={} adopted={} epoch={} decode_errors={}",
        report.parent_connected,
        report.children_synced,
        cfg.children.len(),
        report.samples_forwarded,
        report.batches_sent,
        report.child_goodbyes,
        report.samples_lost,
        report.graceful_shutdown,
        cfg.upstream.skew_ns,
        report.obs_samples_sent,
        report.obs_snapshots,
        report.failovers,
        report.batches_replayed,
        report.replays_suppressed,
        report.children_adopted,
        report.epoch,
        report.decode_errors
    );
    if !report.parent_connected {
        eprintln!("pdmapd-relay: no parent connected within the timeout");
        return ExitCode::from(EXIT_RELAY);
    }
    if !cfg.children.is_empty() && report.children_synced == 0 && report.children_adopted == 0 {
        eprintln!("pdmapd-relay: no child completed clock sync");
        return ExitCode::from(EXIT_RELAY);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mode = parse_args();
    let upstream = match &mode {
        Mode::Leaf(cfg) => &cfg.upstream,
        Mode::Relay(cfg) => &cfg.upstream,
    };
    let server = match upstream.bind() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pdmapd: cannot bind {}: {e}", upstream.listen);
            return ExitCode::from(EXIT_BIND);
        }
    };
    println!("PDMAPD LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();
    match mode {
        Mode::Leaf(cfg) => run_leaf(server, cfg),
        Mode::Relay(cfg) => run_relay(server, cfg),
    }
}
