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
//! 5. answers [`DaemonMsg::ClockProbe`]s so the tool can align those
//!    stamps (`paradyn_tool::daemonset` holds the offset math).
//!
//! A configurable `skew_ns` is added to every clock read — in real
//! deployments the skew between hosts is whatever it is; here it is
//! injected so tests can prove alignment does something. The library
//! exposes [`serve`]/[`spawn`] so tests and examples can run daemons
//! in-process (threads); `src/main.rs` wraps the same loop in a binary
//! whose first stdout line is `PDMAPD LISTENING <addr>` for parents that
//! spawn it with `--listen 127.0.0.1:0`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod failover;
pub mod relay;
mod selfobs;

use cmrts_sim::MachineConfig;
pub use failover::WATERMARK_UNKNOWN;
use paradyn_tool::daemon::{DaemonMsg, InstrLibEndpoint};
use pdmap::model::Namespace;
use pdmap_transport::{
    send_wire, BatchBuilder, FrameKind, PifBlob, TcpServer, TopologyMsg, Transport, WirePayload,
};
pub use relay::{serve_relay_until, spawn_relay, RelayConfig, RelayReport, RunningRelay};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for one daemon process (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Listen address; use port 0 to let the OS pick.
    pub listen: String,
    /// Injected clock skew (ns), added to every clock read — both probe
    /// replies and sample stamps, consistently, like a fast/slow host.
    pub skew_ns: i64,
    /// Metric samples to stream after the workload runs.
    pub samples: u32,
    /// Gap between consecutive samples.
    pub period: Duration,
    /// How long to keep answering clock probes after the last sample.
    pub linger: Duration,
    /// How long to wait for the tool to connect before giving up.
    pub connect_timeout: Duration,
    /// Nodes of the simulated machine driving the workload.
    pub nodes: usize,
    /// Samples per outgoing frame. `1` sends classic per-sample
    /// [`DaemonMsg::Sample`] frames (the flat-session baseline); anything
    /// larger accumulates [`SampleBatch`] frames of up to this many
    /// samples, flushed at the batch boundary and at session end.
    pub batch: u32,
    /// Shared secret for the transport's challenge/response handshake;
    /// `None` accepts any peer (the pre-auth protocol).
    pub secret: Option<[u8; 16]>,
    /// Self-observation period: every this long, snapshot the daemon's
    /// own `pdmap-obs` registry and ship it upstream as health telemetry
    /// (see the `selfobs` module). `None` (the default) sends none.
    pub obs_period: Option<Duration>,
    /// Write a `pdmap_obs::span_dump` of this process's spans here at
    /// session end, for the merged fleet trace exporter.
    pub obs_trace: Option<std::path::PathBuf>,
    /// Ordered standby parents. When the upstream link dies the daemon
    /// pauses, waits to be adopted, and after half the failover budget
    /// beacons each standby in order, inviting it to dial back.
    pub parents: Vec<SocketAddr>,
    /// How long to survive an upstream death awaiting adoption before
    /// giving up like a plain crash. Zero disables failover entirely
    /// (the pre-failover behavior).
    pub failover_timeout: Duration,
    /// Bound on the replay ring of recent upward batches.
    pub replay_ring: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            skew_ns: 0,
            samples: 16,
            period: Duration::from_millis(2),
            linger: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(30),
            nodes: 4,
            batch: 1,
            secret: None,
            obs_period: None,
            obs_trace: None,
            parents: Vec::new(),
            failover_timeout: Duration::ZERO,
            replay_ring: 64,
        }
    }
}

/// What one [`serve`] run did — printed by the binary, asserted by tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    /// Clock probes answered.
    pub probes_answered: u64,
    /// Metric samples sent.
    pub samples_sent: u32,
    /// [`SampleBatch`] frames sent (zero when `batch` is 1).
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
    /// a [`DaemonMsg::Goodbye`] announcing `samples_sent` was delivered
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
pub struct RunningDaemon {
    /// The bound listen address.
    pub addr: SocketAddr,
    server: Arc<TcpServer>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<ServeReport>,
}

/// Renders a serve-thread panic payload as a diagnostic string, so a
/// crashed daemon thread yields an `Err` the caller can report instead of
/// a second panic that aborts the caller too.
pub(crate) fn panic_diagnostic(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        format!("serve thread panicked: {s}")
    } else if let Some(s) = e.downcast_ref::<String>() {
        format!("serve thread panicked: {s}")
    } else {
        "serve thread panicked".into()
    }
}

impl RunningDaemon {
    /// Waits for the daemon to finish. `Err` carries the panic message if
    /// the serve thread crashed — the caller keeps control either way.
    pub fn join(self) -> Result<ServeReport, String> {
        self.handle.join().map_err(panic_diagnostic)
    }

    /// SIGTERM-equivalent: asks the serve loop to drain and send its
    /// final-flush [`DaemonMsg::Goodbye`], then exit. Returns immediately;
    /// [`RunningDaemon::join`] collects the report.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// SIGKILL-equivalent: tears the transport down mid-session — no
    /// drain, no Goodbye, exactly what a crashed daemon looks like to the
    /// tool — and reaps the serve thread.
    pub fn kill(self) -> Result<ServeReport, String> {
        self.server.close();
        self.stop.store(true, Ordering::Release);
        self.handle.join().map_err(panic_diagnostic)
    }
}

/// Binds `cfg.listen` and runs [`serve_until`] on a background thread.
pub fn spawn(cfg: DaemonConfig) -> std::io::Result<RunningDaemon> {
    let server = TcpServer::bind_with_secret(&cfg.listen, cfg.secret)?;
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let server = server.clone();
        let stop = stop.clone();
        std::thread::Builder::new()
            .name("pdmapd-serve".into())
            .spawn(move || serve_until(server, &cfg, &stop))?
    };
    Ok(RunningDaemon {
        addr,
        server,
        stop,
        handle,
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

/// What one drain of the parent-facing receive queue produced.
#[derive(Default)]
struct Inbox {
    /// Clock probes answered.
    answered: u64,
    /// A wire-level [`DaemonMsg::Shutdown`] arrived.
    shutdown: bool,
    /// A [`TopologyMsg`] watermark seed from an adopting parent arrived
    /// (its children list names this daemon).
    seed: Option<TopologyMsg>,
}

/// Drains the server's receive queue, answering clock probes with the
/// skewed clock and capturing adoption seeds. Everything else inbound is
/// tool→daemon control this daemon does not consume, and is dropped.
fn answer_probes(server: &TcpServer, skew_ns: i64) -> Inbox {
    let mut inbox = Inbox::default();
    let me = server.local_addr().to_string();
    while let Ok(Some(frame)) = server.try_recv() {
        if frame.kind == FrameKind::Topology {
            if let Ok(msg) = TopologyMsg::from_frame(&frame) {
                if msg.children.iter().any(|c| c.addr == me) {
                    inbox.seed = Some(msg);
                }
            }
            continue;
        }
        match DaemonMsg::from_frame(&frame) {
            Ok(DaemonMsg::ClockProbe { token, t_tool_ns }) => {
                let reply = DaemonMsg::ClockReply {
                    token,
                    t_tool_ns,
                    t_daemon_ns: daemon_now(skew_ns),
                };
                if send_wire(server as &dyn Transport, &reply).is_ok() {
                    inbox.answered += 1;
                }
            }
            Ok(DaemonMsg::Shutdown) => inbox.shutdown = true,
            _ => {}
        }
    }
    inbox
}

/// Drains late probes, then announces the session's send count in a
/// [`DaemonMsg::Goodbye`] — the final flush frame that lets the tool close
/// the conservation law (`announced == received + lost`). Returns whether
/// the Goodbye was actually delivered to the transport.
fn flush_goodbye(server: &TcpServer, report: &mut ServeReport, skew_ns: i64) -> bool {
    report.probes_answered += answer_probes(server, skew_ns).answered;
    send_wire(
        server as &dyn Transport,
        &DaemonMsg::Goodbye {
            samples_sent: report.samples_sent,
        },
    )
    .is_ok()
}

/// Runs the daemon loop on the caller's thread until the session completes
/// (connect → PIF → workload → samples → linger) or the connect timeout
/// expires. Equivalent to [`serve_until`] with a stop flag nobody sets.
pub fn serve(server: Arc<TcpServer>, cfg: &DaemonConfig) -> ServeReport {
    serve_until(server, cfg, &AtomicBool::new(false))
}

/// Applies an adoption seed: replay the ring suffix past the watermark
/// the new parent already folded in ([`WATERMARK_UNKNOWN`] when it names
/// no mark for us) and count the handover. Factored out of
/// [`await_adoption`] because a fast adopter can dial in *before* this
/// daemon's own liveness timeout notices the old parent died — the seed
/// then arrives in the ordinary sample loop and must not be dropped.
fn apply_seed(
    server: &TcpServer,
    up: &mut failover::Uplink,
    report: &mut ServeReport,
    seed: &TopologyMsg,
) {
    let me = server.local_addr().to_string();
    let w = seed
        .children
        .iter()
        .find(|c| c.addr == me)
        .map_or(failover::WATERMARK_UNKNOWN, |c| c.watermark);
    report.batches_replayed += up.replay(server as &dyn Transport, w);
    report.failovers += 1;
}

/// The upstream link died mid-session: pause upward sends, keep answering
/// clock probes from whoever dials in, and wait for an adoption seed —
/// the [`TopologyMsg`] naming this daemon and the watermark to replay
/// past. After half the budget with no adopter, beacon each standby
/// parent in order, inviting one to dial back. Returns `true` when the
/// handover completed and the session should resume on the new link.
fn await_adoption(
    server: &TcpServer,
    cfg: &DaemonConfig,
    up: &mut failover::Uplink,
    report: &mut ServeReport,
    stop: &AtomicBool,
) -> bool {
    if cfg.failover_timeout.is_zero() {
        return false;
    }
    let start = Instant::now();
    let deadline = start + cfg.failover_timeout;
    // Beacon the standbys one at a time, spaced across the second half of
    // the budget — two standbys adopting the same orphan would each fold
    // its stream upward and double count the subtree.
    let mut next_beacon = start + cfg.failover_timeout / 2;
    let spacing = cfg.failover_timeout / (2 * cfg.parents.len().max(1) as u32);
    let mut standby = 0usize;
    let me = server.local_addr().to_string();
    while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
        let inbox = answer_probes(server, cfg.skew_ns);
        report.probes_answered += inbox.answered;
        if inbox.shutdown {
            return false;
        }
        if let Some(seed) = inbox.seed {
            apply_seed(server, up, report, &seed);
            return true;
        }
        if standby < cfg.parents.len() && Instant::now() >= next_beacon {
            let mut tcfg = pdmap_transport::TransportConfig::default();
            if let Some(secret) = cfg.secret {
                tcfg = tcfg.with_secret(secret);
            }
            failover::send_beacon(cfg.parents[standby], &up.beacon_msg(&me), tcfg);
            standby += 1;
            next_beacon += spacing;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// [`serve`], but interruptible: `stop` is the process's SIGTERM-equivalent
/// (the binary cannot install real signal handlers without adding a libc
/// dependency, so the flag — or a wire-level [`DaemonMsg::Shutdown`] —
/// plays that role). When raised, the loop drains late probes, sends its
/// final-flush [`DaemonMsg::Goodbye`], and returns; a torn-down transport
/// (crash) makes it return without the Goodbye.
pub fn serve_until(server: Arc<TcpServer>, cfg: &DaemonConfig, stop: &AtomicBool) -> ServeReport {
    let mut report = ServeReport::default();
    let stopping = |shutdown_msg: bool| shutdown_msg || stop.load(Ordering::Acquire);

    // Phase 0: wait for the tool. The transport accepts in the background;
    // sending before a connection exists would just error. (`is_alive` is
    // false here by definition — no connections yet — so only the timeout
    // and the stop flag can end the wait.)
    let deadline = Instant::now() + cfg.connect_timeout;
    while server.connections() == 0 {
        if Instant::now() >= deadline || stopping(false) {
            return report;
        }
        std::thread::sleep(Duration::from_millis(1));
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
    let inbox = answer_probes(&server, cfg.skew_ns);
    report.probes_answered += inbox.answered;
    let mut shutdown_msg = inbox.shutdown;

    // Phase 3: performance data — periodic samples on the daemon clock,
    // interleaved with probe answering so a concurrent clock_sync works.
    // With `batch > 1`, samples accumulate into SampleBatch frames (one
    // frame per `batch` samples plus a final partial flush) instead of one
    // frame each — the leaf's half of the relay tree's frame economy.
    // A stop request (flag or wire Shutdown) breaks out to the drain.
    let endpoint = InstrLibEndpoint::over_transport(server.clone() as Arc<dyn Transport>);
    let mut pending = BatchBuilder::default();
    // Every upward batch is stamped (epoch, seq) and retained in the
    // uplink's replay ring, so a handover can resend exactly what the old
    // parent never passed on.
    let mut up = failover::Uplink::new(cfg.replay_ring);
    let flush_batch =
        |pending: &mut BatchBuilder, report: &mut ServeReport, up: &mut failover::Uplink| {
            if pending.is_empty() {
                return;
            }
            if up.send(&*server as &dyn Transport, pending.take()) {
                report.batches_sent += 1;
            }
        };
    // Health telemetry: snapshot our own registry every `obs_period` and
    // ship it as an ordinary SampleBatch under this daemon's obs focus.
    // The rows count into `samples_sent`, so the Goodbye's announcement
    // (and every relay ledger above us) stays exact with telemetry on.
    let mut obs = cfg.obs_period.map(|p| {
        selfobs::SelfSampler::new(
            p,
            paradyn_tool::selfmap::obs_focus("daemon", &server.local_addr().to_string()),
        )
    });
    let ship_obs = |obs: &mut Option<selfobs::SelfSampler>,
                    report: &mut ServeReport,
                    up: &mut failover::Uplink| {
        let Some(sampler) = obs.as_mut() else { return };
        let Some(rows) = sampler.due_rows() else {
            return;
        };
        let wall = daemon_now(cfg.skew_ns);
        let mut batch = BatchBuilder::default();
        for (metric, value) in rows {
            batch.push(metric, sampler.focus().to_string(), wall, value);
        }
        let n = batch.len() as u32;
        if up.send(&*server as &dyn Transport, batch.take()) {
            report.batches_sent += 1;
        }
        report.samples_sent += n;
        report.obs_samples_sent += n;
    };
    let mut i = 0;
    while i < cfg.samples {
        if stopping(shutdown_msg) {
            break;
        }
        if !server.is_alive() {
            // The parent died. With a failover budget, pause and wait to
            // be adopted instead of abandoning the session.
            if await_adoption(&server, cfg, &mut up, &mut report, stop) {
                continue;
            }
            break;
        }
        if cfg.batch > 1 {
            pending.push(
                "Computation Time".into(),
                "<whole program>".into(),
                daemon_now(cfg.skew_ns),
                i as f64,
            );
            if pending.len() >= cfg.batch as usize {
                flush_batch(&mut pending, &mut report, &mut up);
            }
        } else {
            endpoint.send_sample(
                "Computation Time",
                "<whole program>",
                daemon_now(cfg.skew_ns),
                i as f64,
            );
        }
        report.samples_sent += 1;
        i += 1;
        let inbox = answer_probes(&server, cfg.skew_ns);
        report.probes_answered += inbox.answered;
        shutdown_msg |= inbox.shutdown;
        if let Some(seed) = inbox.seed {
            apply_seed(&server, &mut up, &mut report, &seed);
        }
        ship_obs(&mut obs, &mut report, &mut up);
        std::thread::sleep(cfg.period);
    }
    flush_batch(&mut pending, &mut report, &mut up);

    // Phase 4: linger so late probes (and probe rounds racing the final
    // sample) still get answers; a stop request skips straight to the
    // final flush. A parent death here still gets the failover window, so
    // the final Goodbye can close the ledger on the new link.
    let linger_until = Instant::now() + cfg.linger;
    while Instant::now() < linger_until && !stopping(shutdown_msg) {
        if !server.is_alive() {
            if await_adoption(&server, cfg, &mut up, &mut report, stop) {
                continue;
            }
            break;
        }
        let inbox = answer_probes(&server, cfg.skew_ns);
        report.probes_answered += inbox.answered;
        shutdown_msg |= inbox.shutdown;
        if let Some(seed) = inbox.seed {
            apply_seed(&server, &mut up, &mut report, &seed);
        }
        ship_obs(&mut obs, &mut report, &mut up);
        std::thread::sleep(Duration::from_millis(1));
    }

    // Phase 5: the final flush — graceful on request *and* at the natural
    // end of the session, so the tool can always close the conservation
    // law. Only a crash (dead transport) leaves the loss unannounced.
    report.epoch = up.epoch;
    report.graceful_shutdown = flush_goodbye(&server, &mut report, cfg.skew_ns);
    if let Some(sampler) = &obs {
        report.obs_snapshots = sampler.snapshots;
    }
    if let Some(path) = &cfg.obs_trace {
        let dump = pdmap_obs::span_dump(
            &pdmap_obs::snapshot(),
            selfobs::SelfSampler::origin_delta_ns(cfg.skew_ns),
        );
        let _ = std::fs::write(path, dump);
    }
    report
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
                skew_ns,
                samples: 6,
                linger: Duration::from_secs(2),
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
