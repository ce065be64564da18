//! # pdmapd — the standalone Paradyn daemon process
//!
//! §4.2.3/§5 of the paper: Paradyn runs one daemon per node of the
//! parallel machine; the application-linked instrumentation library sends
//! mapping information and performance data to its daemon, and the daemons
//! forward everything to the tool's Data Manager. The seed reproduced the
//! protocol but ran every "daemon" as a thread inside the tool process;
//! `pdmapd` is the real thing — a separate process that
//!
//! 1. listens on TCP speaking the `pdmap-transport` frame protocol,
//! 2. compiles a CM Fortran workload and ships its PIF (static mapping
//!    information) as a [`PifBlob`] frame,
//! 3. drives the workload with an [`InstrLibEndpoint`] as its mapping
//!    sink, so dynamic allocations cross the wire exactly as in §5,
//! 4. streams periodic metric samples stamped with the **daemon's own
//!    clock**, and
//! 5. answers `DaemonMsg::ClockProbe`s so the tool can align those
//!    stamps (`paradyn_tool::daemonset` holds the offset math).
//!
//! A configurable `skew_ns` is added to every clock read — in real
//! deployments the skew between hosts is whatever it is; here it is
//! injected so tests can prove alignment does something. A leaf and a
//! relay ([`relay`]) serve their parent with the same session code
//! ([`UpstreamConfig`] and the `upstream` module: probe replies, seeds,
//! failover, Goodbye). The library exposes [`spawn`] and [`spawn_relay`]
//! so tests and examples can run nodes in-process (threads);
//! `src/main.rs` wraps the same loops in a binary whose first stdout line
//! is `PDMAPD LISTENING <addr>` for parents that spawn it with
//! `--listen 127.0.0.1:0`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod relay;
mod selfobs;
mod upstream;

use cmrts_sim::MachineConfig;
use paradyn_tool::daemon::InstrLibEndpoint;
use pdmap::model::Namespace;
use pdmap_transport::{send_wire, BatchBuilder, PifBlob, TcpServer, Transport};
pub use relay::{serve_relay_until, spawn_relay, RelayConfig, RelayReport, RunningRelay};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use upstream::Upstream;
pub use upstream::{Running, UpstreamConfig, WATERMARK_UNKNOWN};

/// Configuration for one daemon process (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// The link to the tool (or relay) above this daemon.
    pub upstream: UpstreamConfig,
    /// Metric samples to stream after the workload runs.
    pub samples: u32,
    /// Gap between consecutive samples.
    pub period: Duration,
    /// Nodes of the simulated machine driving the workload.
    pub nodes: usize,
    /// Samples per outgoing frame. `1` sends classic per-sample
    /// `DaemonMsg::Sample` frames (the flat-session baseline); anything
    /// larger accumulates `SampleBatch` frames of up to this many
    /// samples, flushed at the batch boundary and at session end.
    pub batch: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            upstream: UpstreamConfig::default(),
            samples: 16,
            period: Duration::from_millis(2),
            nodes: 4,
            batch: 1,
        }
    }
}

/// What one [`serve_until`] run did — printed by the binary, asserted by
/// tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    /// Clock probes answered.
    pub probes_answered: u64,
    /// Metric samples sent.
    pub samples_sent: u32,
    /// `SampleBatch` frames sent (zero when `batch` is 1).
    pub batches_sent: u32,
    /// Instruction blocks the workload machine dispatched.
    pub workload_steps: u64,
    /// Health-telemetry samples among `samples_sent` (zero with
    /// `obs_period: None`).
    pub obs_samples_sent: u32,
    /// Self-observation snapshots taken.
    pub obs_snapshots: u32,
    /// Whether a tool connected before the timeout (nothing is sent
    /// otherwise).
    pub tool_connected: bool,
    /// Whether the session ended with the drain + final-flush handshake:
    /// a `DaemonMsg::Goodbye` announcing `samples_sent` was delivered
    /// (on request, or as the natural end's final flush). A crashed or
    /// killed daemon leaves this false — its loss stays unannounced,
    /// which is what the tool's coverage accounting expects.
    pub graceful_shutdown: bool,
    /// Upstream handovers survived (parent died, a new parent adopted us).
    pub failovers: u32,
    /// Ring batches replayed to new parents across all handovers.
    pub batches_replayed: u64,
    /// Final topology epoch (one bump per handover).
    pub epoch: u64,
}

/// A daemon running on a background thread (in-process stand-in for the
/// `pdmapd` binary, used by tests and examples).
pub type RunningDaemon = Running<ServeReport>;

/// Binds `cfg.upstream.listen` and runs [`serve_until`] on a background
/// thread.
pub fn spawn(cfg: DaemonConfig) -> std::io::Result<RunningDaemon> {
    let server = cfg.upstream.bind()?;
    Running::start(server, "pdmapd-serve", move |server, stop| {
        serve_until(server, &cfg, stop)
    })
}

/// Base added to the daemon clock so a negative skew cannot clamp early
/// stamps at zero. Real daemon clocks have arbitrary origins relative to
/// the tool's — this constant just guarantees ours do too; alignment
/// removes it like any other origin difference.
pub const CLOCK_BASE_NS: u64 = 1_000_000_000;

/// The daemon's clock: the process monotonic clock plus the base origin
/// plus the injected skew.
pub(crate) fn daemon_now(skew_ns: i64) -> u64 {
    (pdmap_obs::now_ns() as i64 + CLOCK_BASE_NS as i64 + skew_ns).max(0) as u64
}

/// Whether the link to the tool is up. When it died mid-session, pause
/// upward sends, keep answering whoever dials in, and wait for an
/// adoption seed (see [`Upstream::orphaned`]): `true` again once the
/// handover completed and the session can resume on the new link.
fn parent_up(up: &mut Upstream<'_>, stop: &AtomicBool) -> bool {
    if up.server.is_alive() {
        return true;
    }
    let Some(mut wait) = up.orphaned() else {
        return false;
    };
    while up.keep_waiting(&mut wait, stop) {
        if up.poll().seeded {
            return true;
        }
    }
    false
}

/// Copies the parent session's counts into the report and writes the
/// span dump.
fn finish(up: Upstream<'_>, mut report: ServeReport) -> ServeReport {
    up.close();
    report.probes_answered = up.probes_answered;
    report.failovers = up.failovers;
    report.batches_replayed = up.batches_replayed;
    report.epoch = up.uplink.epoch;
    report.obs_snapshots = up.obs.map_or(0, |s| s.snapshots);
    report
}

/// Runs the daemon loop on the caller's thread until the session completes
/// (connect → PIF → workload → samples → linger), the connect timeout
/// expires, or a stop is requested. `stop` is the process's
/// SIGTERM-equivalent (the binary cannot install real signal handlers
/// without adding a libc dependency, so the flag — or a wire-level
/// `DaemonMsg::Shutdown` — plays that role). When raised, the loop
/// drains late probes, sends its final-flush `DaemonMsg::Goodbye`, and
/// returns; a torn-down transport (crash) makes it return without the
/// Goodbye.
pub fn serve_until(server: Arc<TcpServer>, cfg: &DaemonConfig, stop: &AtomicBool) -> ServeReport {
    let mut up = Upstream::new(&server, &cfg.upstream, "daemon");
    let mut report = ServeReport::default();

    // Phase 0: wait for the tool.
    if !up.await_parent(stop) {
        return finish(up, report);
    }
    report.tool_connected = true;

    // Phase 1: static mapping information — compile the workload and ship
    // its PIF, as the real daemon does "just after [it] load[s] each
    // application executable" (§5).
    let ns = Namespace::new();
    let compiled = cmf_lang::compile(
        cmf_lang::samples::FIGURE4,
        &ns,
        &cmf_lang::CompileOptions::default(),
    )
    .expect("embedded FIGURE4 workload must compile");
    let pif_text = pdmap_pif::write(&compiled.pif);
    let _ = send_wire(&*server as &dyn Transport, &PifBlob(pif_text.into_bytes()));

    // Phase 2: dynamic mapping information — run the workload with the
    // wire endpoint as its mapping sink, so allocations cross the wire.
    let endpoint = InstrLibEndpoint::over_transport(server.clone() as Arc<dyn Transport>);
    let mgr = Arc::new(dyninst_sim::InstrumentationManager::new());
    let mut machine = cmrts_sim::Machine::new(
        MachineConfig {
            nodes: cfg.nodes,
            ..MachineConfig::default()
        },
        ns,
        mgr,
        compiled.program().clone(),
    )
    .expect("embedded workload must load");
    machine.set_mapping_sink(Arc::new(endpoint));
    let summary = machine.run();
    report.workload_steps = summary.blocks_dispatched;
    up.poll();

    // Phase 3: performance data — periodic samples on the daemon clock,
    // interleaved with polls of the tool link so a concurrent clock_sync
    // works. With `batch > 1`, samples accumulate into SampleBatch frames
    // (one frame per `batch` samples plus a final partial flush) instead
    // of one frame each — the leaf's half of the relay tree's frame
    // economy. Every upward batch goes through the uplink, which stamps
    // it (epoch, seq) and rings it, so a handover can resend exactly what
    // the old parent never passed on. A stop request (flag or wire
    // Shutdown) breaks out to the drain.
    let endpoint = InstrLibEndpoint::over_transport(server.clone() as Arc<dyn Transport>);
    let mut pending = BatchBuilder::default();
    let flush_batch =
        |pending: &mut BatchBuilder, report: &mut ServeReport, up: &mut Upstream<'_>| {
            if !pending.is_empty() && up.uplink.send(&*server, pending.take()) {
                report.batches_sent += 1;
            }
        };
    // Health telemetry: a due self-sample ships as an ordinary
    // SampleBatch under this daemon's obs focus. The rows count into
    // `samples_sent`, so the Goodbye's announcement (and every relay
    // ledger above us) stays exact with telemetry on.
    let ship_obs = |up: &mut Upstream<'_>, report: &mut ServeReport| {
        let mut batch = BatchBuilder::default();
        let n = up.sample_self(&mut batch, Vec::new);
        flush_batch(&mut batch, report, up);
        report.samples_sent += n;
        report.obs_samples_sent += n;
    };
    let mut i = 0;
    while i < cfg.samples && !up.stopping(stop) {
        // A dead parent ends the stream, unless a failover budget lets a
        // new parent adopt this leaf first.
        if !parent_up(&mut up, stop) {
            break;
        }
        if cfg.batch > 1 {
            pending.push(
                "Computation Time".into(),
                "<whole program>".into(),
                up.now(),
                i as f64,
            );
            if pending.len() >= cfg.batch as usize {
                flush_batch(&mut pending, &mut report, &mut up);
            }
        } else {
            endpoint.send_sample("Computation Time", "<whole program>", up.now(), i as f64);
        }
        report.samples_sent += 1;
        i += 1;
        up.poll();
        ship_obs(&mut up, &mut report);
        std::thread::sleep(cfg.period);
    }
    flush_batch(&mut pending, &mut report, &mut up);

    // Phase 4: linger so late probes (and probe rounds racing the final
    // sample) still get answers; a stop request skips straight to the
    // final flush. A parent death here still gets the failover window, so
    // the final Goodbye can close the ledger on the new link.
    let linger_until = Instant::now() + cfg.upstream.linger;
    while Instant::now() < linger_until && !up.stopping(stop) {
        if !parent_up(&mut up, stop) {
            break;
        }
        up.poll();
        ship_obs(&mut up, &mut report);
        std::thread::sleep(Duration::from_millis(1));
    }

    // Phase 5: the final flush — graceful on request *and* at the natural
    // end of the session, so the tool can always close the conservation
    // law. Late probes are drained first. Only a crash (dead transport)
    // leaves the loss unannounced.
    up.poll();
    report.graceful_shutdown = up.goodbye(u64::from(report.samples_sent));
    finish(up, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradyn_tool::{DaemonSet, DataManager};
    use pdmap_transport::TransportConfig;

    #[test]
    fn tool_session_against_two_threaded_daemons_over_tcp() {
        let mk = |skew_ns: i64| {
            spawn(DaemonConfig {
                upstream: UpstreamConfig {
                    skew_ns,
                    linger: Duration::from_secs(2),
                    ..UpstreamConfig::default()
                },
                samples: 6,
                ..DaemonConfig::default()
            })
            .expect("bind")
        };
        let (d0, d1) = (mk(30_000_000), mk(-30_000_000));
        let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 2));
        let mut set = DaemonSet::connect(&[d0.addr, d1.addr], TransportConfig::default(), data);
        set.clock_sync(4, Duration::from_secs(10)).expect("sync");
        set.pump_until_samples(12, Duration::from_secs(10));

        // Mappings from both daemons landed (static PIF + dynamic allocs).
        assert!(set.data().with_mappings(|m| m.len()) > 0, "PIF imported");
        for i in 0..2 {
            assert!(
                set.data().shard_stats(i).imports > 0,
                "shard {i} saw imports"
            );
            assert!(set.conn(i).samples_received() > 0, "daemon {i} sampled");
            assert!(set.conn(i).pif_imports() > 0, "daemon {i} shipped a PIF");
        }
        let axis = set.data().render_where_axis();
        assert!(axis.contains("CMFarrays"), "{axis}");

        // The merged stream is one stream, nondecreasing in aligned time,
        // and the recovered offsets reflect the injected ±30 ms skews.
        let merged = set.merged_samples();
        assert!(merged.len() >= 12);
        assert!(merged
            .windows(2)
            .all(|w| w[0].aligned_ns <= w[1].aligned_ns));
        let (o0, o1) = (set.conn(0).clock().offset_ns, set.conn(1).clock().offset_ns);
        assert!(
            o0 - o1 > 40_000_000,
            "skew difference must be visible: {o0} vs {o1}"
        );
        for d in [d0, d1] {
            let r = d.join().expect("daemon report");
            assert!(r.tool_connected && r.probes_answered > 0);
            assert_eq!(r.samples_sent, 6);
        }
    }
}
