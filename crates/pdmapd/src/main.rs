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

use pdmapd::{serve, DaemonConfig, RelayConfig};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
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

/// Both modes' flags, parsed together; `relay` selects which config wins.
struct Args {
    relay: bool,
    daemon: DaemonConfig,
    tree: RelayConfig,
}

fn parse_args() -> Args {
    let mut relay = false;
    let mut daemon = DaemonConfig::default();
    let mut tree = RelayConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("pdmapd: {what} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--relay" => relay = true,
            "--child" => match val("--child").parse() {
                Ok(addr) => tree.children.push(addr),
                Err(_) => usage(),
            },
            "--listen" => {
                daemon.listen = val("--listen");
                tree.listen = daemon.listen.clone();
            }
            "--skew-ns" => match val("--skew-ns").parse() {
                Ok(v) => {
                    daemon.skew_ns = v;
                    tree.skew_ns = v;
                }
                Err(_) => usage(),
            },
            "--samples" => match val("--samples").parse() {
                Ok(v) => daemon.samples = v,
                Err(_) => usage(),
            },
            "--period-ms" => match val("--period-ms").parse() {
                Ok(v) => daemon.period = Duration::from_millis(v),
                Err(_) => usage(),
            },
            "--linger-ms" => match val("--linger-ms").parse() {
                Ok(v) => {
                    daemon.linger = Duration::from_millis(v);
                    tree.linger = daemon.linger;
                }
                Err(_) => usage(),
            },
            "--connect-timeout-ms" => match val("--connect-timeout-ms").parse() {
                Ok(v) => {
                    daemon.connect_timeout = Duration::from_millis(v);
                    tree.connect_timeout = daemon.connect_timeout;
                }
                Err(_) => usage(),
            },
            "--nodes" => match val("--nodes").parse() {
                Ok(v) => daemon.nodes = v,
                Err(_) => usage(),
            },
            "--batch" => match val("--batch").parse() {
                Ok(v) => {
                    daemon.batch = v;
                    tree.batch = v;
                }
                Err(_) => usage(),
            },
            "--flush-ms" => match val("--flush-ms").parse() {
                Ok(v) => tree.flush_interval = Duration::from_millis(v),
                Err(_) => usage(),
            },
            "--secret" => {
                let secret = pdmap_transport::secret_from_str(&val("--secret"));
                daemon.secret = Some(secret);
                tree.secret = Some(secret);
            }
            "--obs-period" => match val("--obs-period").parse() {
                Ok(v) => {
                    let period = Some(Duration::from_millis(v));
                    daemon.obs_period = period;
                    tree.obs_period = period;
                }
                Err(_) => usage(),
            },
            "--obs-trace" => {
                let path = std::path::PathBuf::from(val("--obs-trace"));
                daemon.obs_trace = Some(path.clone());
                tree.obs_trace = Some(path);
            }
            "--parent" => match val("--parent").parse() {
                Ok(addr) => {
                    daemon.parents.push(addr);
                    tree.parents.push(addr);
                }
                Err(_) => usage(),
            },
            "--failover-ms" => match val("--failover-ms").parse() {
                Ok(v) => {
                    daemon.failover_timeout = Duration::from_millis(v);
                    tree.failover_timeout = daemon.failover_timeout;
                }
                Err(_) => usage(),
            },
            "--replay-ring" => match val("--replay-ring").parse() {
                Ok(v) => {
                    daemon.replay_ring = v;
                    tree.replay_ring = v;
                }
                Err(_) => usage(),
            },
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
    if relay && tree.children.is_empty() && tree.failover_timeout.is_zero() {
        eprintln!("pdmapd: --relay without --child requires --failover-ms (standby mode)");
        usage();
    }
    if !relay && !tree.children.is_empty() {
        eprintln!("pdmapd: --child only makes sense with --relay");
        usage();
    }
    Args {
        relay,
        daemon,
        tree,
    }
}

fn run_leaf(cfg: DaemonConfig) -> ExitCode {
    let server = match pdmap_transport::TcpServer::bind_with_secret(&cfg.listen, cfg.secret) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pdmapd: cannot bind {}: {e}", cfg.listen);
            return ExitCode::from(EXIT_BIND);
        }
    };
    println!("PDMAPD LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();

    let report = serve(server, &cfg);
    eprintln!(
        "pdmapd: connected={} samples={} batches={} probes={} steps={} graceful={} skew_ns={} \
         obs_samples={} obs_snapshots={} failovers={} replayed={} epoch={}",
        report.tool_connected,
        report.samples_sent,
        report.batches_sent,
        report.probes_answered,
        report.workload_steps,
        report.graceful_shutdown,
        cfg.skew_ns,
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

fn run_relay(cfg: RelayConfig) -> ExitCode {
    let server = match pdmap_transport::TcpServer::bind_with_secret(&cfg.listen, cfg.secret) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pdmapd: cannot bind {}: {e}", cfg.listen);
            return ExitCode::from(EXIT_BIND);
        }
    };
    println!("PDMAPD LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();

    let report = pdmapd::serve_relay_until(server, &cfg, &AtomicBool::new(false));
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
        cfg.skew_ns,
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
    let args = parse_args();
    if args.relay {
        run_relay(args.tree)
    } else {
        run_leaf(args.daemon)
    }
}
