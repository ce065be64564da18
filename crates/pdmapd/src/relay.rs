//! # Relay mode — hierarchical aggregation of daemon streams
//!
//! Flat sessions connect the tool to every daemon directly, which stops
//! scaling exactly where the paper's machines start: hundreds of nodes
//! means hundreds of sockets, clock handshakes, and per-sample frames all
//! terminating in one process. `pdmapd --relay` interposes a fan-in tree:
//! each relay dials a handful of children (leaf daemons or further
//! relays), merges their streams, and forwards **one** aggregated stream
//! upward. The tool sees a relay as a single high-volume daemon.
//!
//! Three invariants make the tree transparent to the analyses upstream:
//!
//! 1. **Transitive clock alignment.** The relay probes each child with
//!    [`DaemonMsg::ClockProbe`]s stamped from its *own reported clock*
//!    (the skewed clock it answers its parent's probes with) and keeps the
//!    minimum-RTT offset, exactly like `DaemonSet::clock_sync`. Every
//!    forwarded sample's wall stamp is moved by that offset
//!    ([`pdmap::columns::align`]), so it lands on the relay's reported
//!    clock — and the parent's ordinary sync of the relay completes the
//!    chain. Skew correction composes level by level; no one needs a
//!    global clock.
//! 2. **Conservation at every level.** Children announce their send
//!    counts in [`DaemonMsg::Goodbye`]; the relay computes per-child loss
//!    (`announced − received − prior delivery`), folds it into the
//!    [`DaemonMsg::SubtreeCoverage`] it sends upward, and announces its
//!    *own* forwarded count in its final Goodbye. At every tree level
//!    `announced == received + lost` — a silent gap anywhere becomes a
//!    visible coverage deficit at the root. Each child's books are a
//!    [`LinkLedger`], the type the tool keeps per connection, so the
//!    rules are the same code at every level.
//! 3. **Batched forwarding.** Samples travel upward in
//!    [`SampleBatch`] frames (shared metric/focus dictionary,
//!    delta-encoded stamps), so a relay with `F` children costs the
//!    parent one frame per flush instead of one per sample. A flush sends
//!    everything pending as one frame; [`RelayConfig::batch`] is the
//!    pending count that triggers it, not a cap on the frame. Relayed
//!    samples stay columns end to end: a child batch decodes to
//!    [`BatchColumns`], its dictionary is remapped into the pending
//!    [`BatchBuilder`] once per entry and its walls re-timed in one column
//!    pass, and the flush encodes the columns directly.
//!
//! Mapping information is forwarded too: dynamic allocation messages pass
//! through verbatim, and PIF blobs are deduplicated by content — a fleet
//! running one executable ships its static mapping once per relay, not
//! once per leaf.

use crate::daemon_now;
use crate::failover::{self, Uplink};
use paradyn_tool::daemon::{is_beacon, DaemonMsg, LinkLedger};
use paradyn_tool::Coverage;
use pdmap::columns::align;
use pdmap_transport::{
    send_wire, BatchBuilder, BatchColumns, FrameKind, SourceMark, TcpClient, TcpServer, TopoChild,
    TopologyMsg, Transport, TransportConfig, WirePayload,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for one relay process (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct RelayConfig {
    /// Listen address for the parent (tool or higher relay); port 0 lets
    /// the OS pick.
    pub listen: String,
    /// Child endpoints to dial — leaf daemons or further relays.
    pub children: Vec<SocketAddr>,
    /// Injected skew (ns) on the relay's own reported clock, so tests can
    /// prove the transitive correction does something.
    pub skew_ns: i64,
    /// Flush threshold: once this many samples are pending, the next
    /// flush sends them all upward as one [`SampleBatch`] frame (which
    /// may carry more than `batch` samples when children deliver faster
    /// than the relay flushes).
    pub batch: u32,
    /// Flush a partial batch after this long, so a trickle of samples
    /// never waits for a full frame.
    pub flush_interval: Duration,
    /// How long to wait for the parent to connect before giving up.
    pub connect_timeout: Duration,
    /// Clock-probe rounds per child during the initial sync.
    pub sync_rounds: u32,
    /// Bound on the whole child sync phase (and on each drain-for-goodbye
    /// wait during shutdown).
    pub sync_timeout: Duration,
    /// How long to keep answering parent probes after the subtree ends.
    pub linger: Duration,
    /// Shared secret for both the upward listener and the child dials.
    pub secret: Option<[u8; 16]>,
    /// Transport tuning for the child dials (liveness timeout, reconnect
    /// policy). Tests shrink these so dead-child detection is immediate;
    /// the secret is applied on top.
    pub child_transport: TransportConfig,
    /// Self-observation period: every this long, snapshot the relay's own
    /// `pdmap-obs` registry (plus its subtree rollup) and enqueue it on
    /// the upward stream. `None` (the default) sends none.
    pub obs_period: Option<Duration>,
    /// Write a `pdmap_obs::span_dump` of this process's spans here at
    /// session end, for the merged fleet trace exporter.
    pub obs_trace: Option<std::path::PathBuf>,
    /// Standby parents, in escalation order. When the upstream link dies
    /// and nobody re-adopts this relay within half of `failover_timeout`,
    /// it beacons these addresses one by one, inviting a dial-back.
    pub parents: Vec<SocketAddr>,
    /// Total budget for surviving an upstream death: pause upward sends,
    /// answer probes from whoever dials in, replay the ring on a watermark
    /// seed. `Duration::ZERO` (the default) disables failover — an
    /// upstream death ends the session as before.
    pub failover_timeout: Duration,
    /// Bound on the upward replay ring (batches retained for handover).
    pub replay_ring: usize,
}

impl Default for RelayConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            children: Vec::new(),
            skew_ns: 0,
            batch: 64,
            flush_interval: Duration::from_millis(5),
            connect_timeout: Duration::from_secs(30),
            sync_rounds: 4,
            sync_timeout: Duration::from_secs(10),
            linger: Duration::from_millis(500),
            secret: None,
            child_transport: TransportConfig::default(),
            obs_period: None,
            obs_trace: None,
            parents: Vec::new(),
            failover_timeout: Duration::ZERO,
            replay_ring: 64,
        }
    }
}

/// What one relay session did — printed by the binary, asserted by tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct RelayReport {
    /// Whether a parent connected before the timeout.
    pub parent_connected: bool,
    /// Children whose clock sync completed.
    pub children_synced: usize,
    /// Samples forwarded upward (the count the final Goodbye announces).
    pub samples_forwarded: u64,
    /// Upward [`SampleBatch`] frames sent.
    pub batches_sent: u64,
    /// Parent clock probes answered.
    pub probes_answered: u64,
    /// Children that announced a [`DaemonMsg::Goodbye`].
    pub child_goodbyes: usize,
    /// Samples known lost below this relay (children's announced minus
    /// received, plus their own reported subtree losses).
    pub samples_lost: u64,
    /// Whether the session ended with the final-flush handshake (last
    /// [`DaemonMsg::SubtreeCoverage`] + [`DaemonMsg::Goodbye`] delivered).
    pub graceful_shutdown: bool,
    /// Health-telemetry samples enqueued on the upward stream — counted
    /// into `samples_forwarded` by the flush that carries them (zero with
    /// `obs_period: None`).
    pub obs_samples_sent: u64,
    /// Self-observation snapshots taken.
    pub obs_snapshots: u32,
    /// Upstream handovers survived (watermark seeds accepted).
    pub failovers: u32,
    /// Batches resent from the replay ring across those handovers.
    pub batches_replayed: u64,
    /// Child batches suppressed by the sequence watermark — replays the
    /// child resent that this relay had already folded in.
    pub replays_suppressed: u64,
    /// Orphans this relay adopted (beaconed leaves/relays plus the
    /// grandchildren of its own dead child relays).
    pub children_adopted: usize,
    /// Final topology epoch (bumps on every handover and adoption).
    pub epoch: u64,
    /// Child frames dropped because they failed to decode — samples they
    /// carried surface as the child's loss, this names the cause.
    pub decode_errors: u64,
}

/// One child link: its books ([`LinkLedger`]) and the relay's side of the
/// link — the transport, the probe in flight, the pre-sync backlog.
struct Child {
    tx: Arc<TcpClient>,
    /// The child's listen address — the identity that survives
    /// re-parenting (topology announcements and source marks key on it).
    addr: SocketAddr,
    ledger: LinkLedger,
    synced: bool,
    /// Probe in flight: `(token, t0_on_relay_clock)`.
    pending_probe: Option<(u64, u64)>,
    /// Frames that arrived before the child's sync finished; replayed
    /// through the normal dispatch once the offset is known.
    backlog: Vec<pdmap_transport::Frame>,
}

impl Child {
    /// A fresh link to `addr`, keeping the books in `ledger`.
    fn link(addr: SocketAddr, tcfg: TransportConfig, ledger: LinkLedger) -> Self {
        Child {
            tx: TcpClient::connect(addr, tcfg),
            addr,
            ledger,
            synced: false,
            pending_probe: None,
            backlog: Vec::new(),
        }
    }

    /// The child finished: announced its Goodbye, went dark, or was
    /// re-parented.
    fn done(&self) -> bool {
        self.ledger.is_subtree_adopted()
            || self.ledger.announced_sent().is_some()
            || !self.tx.is_alive()
    }
}

/// A relay running on a background thread (in-process stand-in for the
/// `pdmapd --relay` binary, used by tests and the fleet bench).
pub struct RunningRelay {
    /// The bound upward listen address.
    pub addr: SocketAddr,
    server: Arc<TcpServer>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<RelayReport>,
}

impl RunningRelay {
    /// Waits for the relay to finish and returns its report, or the
    /// panic's diagnostic if the serve thread panicked — a poisoned relay
    /// is a report for the caller, never a second panic on the reaper.
    pub fn join(self) -> Result<RelayReport, String> {
        self.handle.join().map_err(crate::panic_diagnostic)
    }

    /// SIGTERM-equivalent: drain the subtree, flush, send the final
    /// coverage + Goodbye upward, exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// SIGKILL-equivalent: tears the upward transport down mid-session —
    /// no flush, no Goodbye — and reaps the serve thread. The parent sees
    /// the whole subtree go dark at once.
    pub fn kill(self) -> Result<RelayReport, String> {
        self.server.close();
        self.stop.store(true, Ordering::Release);
        self.handle.join().map_err(crate::panic_diagnostic)
    }
}

/// Binds `cfg.listen` and runs [`serve_relay_until`] on a background
/// thread.
pub fn spawn_relay(cfg: RelayConfig) -> std::io::Result<RunningRelay> {
    let server = TcpServer::bind_with_secret(&cfg.listen, cfg.secret)?;
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let server = server.clone();
        let stop = stop.clone();
        std::thread::Builder::new()
            .name("pdmapd-relay".into())
            .spawn(move || serve_relay_until(server, &cfg, &stop))?
    };
    Ok(RunningRelay {
        addr,
        server,
        stop,
        handle,
    })
}

/// Everything mutable the relay session threads through its loop.
struct RelaySession<'a> {
    server: &'a TcpServer,
    cfg: &'a RelayConfig,
    report: RelayReport,
    children: Vec<Child>,
    /// Samples rewritten onto the relay clock, awaiting the next flush.
    pending: BatchBuilder,
    last_flush: Instant,
    /// Content hashes of PIF blobs already forwarded.
    pifs_seen: HashSet<u64>,
    /// The last coverage sent upward, to only resend on change.
    last_coverage: Option<Coverage>,
    /// Raised by a wire-level [`DaemonMsg::Shutdown`] from the parent.
    shutdown_msg: bool,
    /// Periodic self-sampling (None with `obs_period: None`).
    obs: Option<crate::selfobs::SelfSampler>,
    /// Upward batch sequencing, epoch, and the handover replay ring.
    uplink: Uplink,
    /// Transport tuning for child dials — kept so adoption dials use the
    /// same liveness/secret settings as the configured children.
    tcfg: TransportConfig,
    /// `(epoch, child addrs)` last announced upward, to only resend the
    /// topology on membership or epoch change.
    last_topology: Option<(u64, Vec<String>)>,
    /// Set by [`RelaySession::serve_parent`] when a watermark seed for
    /// this relay arrived — the signal that a new parent adopted us.
    reseeded: bool,
}

impl<'a> RelaySession<'a> {
    /// A session with no children yet, serving the parent on `server`.
    fn new(server: &'a TcpServer, cfg: &'a RelayConfig) -> Self {
        let mut tcfg = cfg.child_transport;
        if let Some(secret) = cfg.secret {
            tcfg = tcfg.with_secret(secret);
        }
        RelaySession {
            server,
            cfg,
            report: RelayReport::default(),
            children: Vec::new(),
            pending: BatchBuilder::default(),
            last_flush: Instant::now(),
            pifs_seen: HashSet::new(),
            last_coverage: None,
            shutdown_msg: false,
            obs: cfg.obs_period.map(|p| {
                crate::selfobs::SelfSampler::new(
                    p,
                    paradyn_tool::selfmap::obs_focus("relay", &server.local_addr().to_string()),
                )
            }),
            uplink: Uplink::new(cfg.replay_ring),
            tcfg,
            last_topology: None,
            reseeded: false,
        }
    }

    fn now(&self) -> u64 {
        daemon_now(self.cfg.skew_ns)
    }

    /// Drains parent→relay frames: answers clock probes from the relay's
    /// reported clock, notes a Shutdown request, and handles the two
    /// topology roles that arrive on the upward socket — a watermark
    /// **seed** from a parent that just adopted this relay (replay the
    /// ring past it), and a **beacon** from an orphan asking this relay to
    /// become its parent.
    fn serve_parent(&mut self) {
        while let Ok(Some(frame)) = self.server.try_recv() {
            if frame.kind == FrameKind::Topology {
                if let Ok(msg) = TopologyMsg::from_frame(&frame) {
                    if is_beacon(&msg) {
                        self.adopt_orphan(&msg);
                    } else {
                        let me = self.server.local_addr().to_string();
                        if let Some(tc) = msg.children.iter().find(|c| c.addr == me) {
                            self.report.batches_replayed += self
                                .uplink
                                .replay(self.server as &dyn Transport, tc.watermark);
                            self.report.failovers += 1;
                            self.reseeded = true;
                            self.announce_topology(true);
                        }
                    }
                }
                continue;
            }
            match DaemonMsg::from_frame(&frame) {
                Ok(DaemonMsg::ClockProbe { token, t_tool_ns }) => {
                    let reply = DaemonMsg::ClockReply {
                        token,
                        t_tool_ns,
                        t_daemon_ns: self.now(),
                    };
                    if send_wire(self.server as &dyn Transport, &reply).is_ok() {
                        self.report.probes_answered += 1;
                    }
                }
                Ok(DaemonMsg::Shutdown) => self.shutdown_msg = true,
                _ => {}
            }
        }
    }

    /// Dials an adopted child at `tc.addr` — unless a live child already
    /// has that address — and starts its clock sync. Its books start from
    /// the watermark and prior delivery in `tc`, so its replay dedups here
    /// and its final Goodbye still closes the account. Returns whether it
    /// was dialed.
    fn adopt(&mut self, tc: &TopoChild) -> bool {
        let Ok(addr) = tc.addr.parse::<SocketAddr>() else {
            return false;
        };
        if self
            .children
            .iter()
            .any(|c| c.addr == addr && !c.ledger.is_subtree_adopted())
        {
            return false;
        }
        let ledger = LinkLedger::adopted(tc.watermark, tc.received);
        self.children.push(Child::link(addr, self.tcfg, ledger));
        self.probe_child(self.children.len() - 1);
        true
    }

    /// Adopts a beaconing orphan, seeding its replay from the delivered
    /// watermark it beaconed.
    fn adopt_orphan(&mut self, msg: &TopologyMsg) {
        if self.adopt(&msg.children[0]) {
            self.report.children_adopted += 1;
            self.uplink.epoch += 1;
            self.announce_topology(true);
        }
    }

    /// Adopts the children of every dead child relay directly, from its
    /// [`LinkLedger::orphans`] plan: the exact-conservation path, seeded
    /// from the per-grandchild source marks the dead child delivered
    /// before it died (marks ride *in* data frames, so a held mark proves
    /// the data through it already arrived — replay past it is gapless
    /// and duplicate-free).
    fn adopt_grandchildren(&mut self) {
        for i in 0..self.children.len() {
            if self.children[i].tx.is_alive() {
                continue;
            }
            let Some(plan) = self.children[i].ledger.orphans() else {
                continue;
            };
            let adopted = plan.iter().filter(|tc| self.adopt(tc)).count();
            if adopted > 0 {
                self.report.children_adopted += adopted;
                self.uplink.epoch += 1;
                self.announce_topology(true);
            }
        }
    }

    /// Announces this relay's live child set (and their delivery marks)
    /// upward, iff membership or epoch changed since the last send — the
    /// parent's dial list should this relay die.
    fn announce_topology(&mut self, force: bool) {
        let live: Vec<&Child> = self
            .children
            .iter()
            .filter(|c| !c.ledger.is_subtree_adopted())
            .collect();
        if live.is_empty() {
            return;
        }
        let addrs: Vec<String> = live.iter().map(|c| c.addr.to_string()).collect();
        let key = (self.uplink.epoch, addrs);
        if !force && self.last_topology.as_ref() == Some(&key) {
            return;
        }
        let msg = TopologyMsg {
            epoch: self.uplink.epoch,
            origin: self.server.local_addr().to_string(),
            children: live
                .iter()
                .map(|c| {
                    let (watermark, received) = c.ledger.watermark();
                    TopoChild {
                        addr: c.addr.to_string(),
                        watermark,
                        received,
                    }
                })
                .collect(),
        };
        if send_wire(self.server as &dyn Transport, &msg).is_ok() {
            self.last_topology = Some(key);
        }
    }

    /// The relay's own failover: the upstream link died, so pause upward
    /// sends (children keep streaming into `pending`) and wait for a new
    /// parent to dial in and seed a replay. At half the budget, beacon
    /// the standby parents one by one. Returns true once re-adopted.
    fn await_upstream(&mut self, stop: &AtomicBool) -> bool {
        if self.cfg.failover_timeout.is_zero() {
            return false;
        }
        let start = Instant::now();
        let deadline = start + self.cfg.failover_timeout;
        let mut next_beacon = start + self.cfg.failover_timeout / 2;
        let spacing = self.cfg.failover_timeout / (2 * self.cfg.parents.len().max(1) as u32);
        let mut standby = 0usize;
        self.reseeded = false;
        while Instant::now() < deadline && !stop.load(Ordering::Acquire) && !self.shutdown_msg {
            self.serve_parent();
            if self.reseeded {
                self.reseeded = false;
                return true;
            }
            for i in 0..self.children.len() {
                self.pump_child(i);
            }
            if standby < self.cfg.parents.len() && Instant::now() >= next_beacon {
                let msg = self
                    .uplink
                    .beacon_msg(&self.server.local_addr().to_string());
                failover::send_beacon(self.cfg.parents[standby], &msg, self.tcfg);
                standby += 1;
                next_beacon += spacing;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// One probe round against child `i` using the relay's reported clock
    /// as the reference — the step that makes alignment transitive.
    fn probe_child(&mut self, i: usize) {
        let token = (i as u64) << 32 | u64::from(self.children[i].ledger.clock().rounds);
        let t0 = self.now();
        let probe = DaemonMsg::ClockProbe {
            token,
            t_tool_ns: t0,
        };
        if send_wire(&*self.children[i].tx as &dyn Transport, &probe).is_ok() {
            self.children[i].pending_probe = Some((token, t0));
        }
    }

    /// Pumps child `i` once. During sync, `ClockReply`s feed the offset
    /// estimate and everything else is backlogged; after sync, frames go
    /// straight to [`RelaySession::dispatch_child_frame`].
    fn pump_child(&mut self, i: usize) {
        while let Ok(Some(frame)) = self.children[i].tx.try_recv() {
            if self.children[i].synced {
                self.dispatch_child_frame(i, &frame);
                continue;
            }
            if frame.kind == FrameKind::Daemon {
                if let Ok(DaemonMsg::ClockReply {
                    token, t_daemon_ns, ..
                }) = DaemonMsg::from_frame(&frame)
                {
                    let child = &mut self.children[i];
                    if let Some((want, t0)) = child.pending_probe {
                        if token == want {
                            let clock = child.ledger.clock_mut();
                            clock.observe(t0, t_daemon_ns, daemon_now(self.cfg.skew_ns));
                            child.pending_probe = None;
                            if clock.rounds >= self.cfg.sync_rounds {
                                child.synced = true;
                                self.report.children_synced += 1;
                                // An adopted child gets its watermark seed
                                // the moment its clock is aligned — its
                                // ring replay lands before live traffic.
                                let origin = self.server.local_addr().to_string();
                                let addr = child.addr.to_string();
                                if let Some(seed) =
                                    child.ledger.seed_msg(self.uplink.epoch, &origin, &addr)
                                {
                                    if send_wire(&*child.tx as &dyn Transport, &seed).is_ok() {
                                        child.ledger.seed_paid();
                                    }
                                }
                                self.replay_backlog(i);
                            } else {
                                self.probe_child(i);
                            }
                        }
                    }
                    continue;
                }
            }
            self.children[i].backlog.push(frame);
        }
    }

    fn replay_backlog(&mut self, i: usize) {
        for frame in std::mem::take(&mut self.children[i].backlog) {
            self.dispatch_child_frame(i, &frame);
        }
    }

    /// Routes one post-sync child frame: the child's books fold it first
    /// (a replayed batch stops there); samples are moved onto the relay
    /// clock and batched, mapping info is forwarded (PIFs deduped by
    /// content). A frame that fails to decode is dropped and counted.
    fn dispatch_child_frame(&mut self, i: usize, frame: &pdmap_transport::Frame) {
        let ledger = &mut self.children[i].ledger;
        let offset = ledger.clock().offset_ns;
        match frame.kind {
            FrameKind::SampleBatch => match BatchColumns::from_frame(frame) {
                Ok(batch) if ledger.fold_batch(&batch) => {
                    self.pending.append(batch, |wall| align(wall, offset));
                }
                Ok(_) => {}
                Err(_) => self.report.decode_errors += 1,
            },
            FrameKind::Topology => match TopologyMsg::from_frame(frame) {
                Ok(msg) => ledger.fold_topology(msg),
                Err(_) => self.report.decode_errors += 1,
            },
            FrameKind::PifBlob => {
                let mut h = DefaultHasher::new();
                frame.payload.hash(&mut h);
                if self.pifs_seen.insert(h.finish()) {
                    // The payload is already an encoded `PifBlob`:
                    // forward it unchanged.
                    let _ = self.server.send(FrameKind::PifBlob, frame.payload.clone());
                }
            }
            FrameKind::Daemon => match DaemonMsg::from_frame(frame) {
                Ok(msg) => {
                    ledger.fold_msg(&msg);
                    match msg {
                        DaemonMsg::Sample {
                            metric,
                            focus,
                            wall,
                            value,
                        } => self.pending.push(metric, focus, align(wall, offset), value),
                        DaemonMsg::ArrayAllocated { .. } | DaemonMsg::ArrayFreed { .. } => {
                            let _ = send_wire(self.server as &dyn Transport, &msg);
                        }
                        _ => {}
                    }
                }
                Err(_) => self.report.decode_errors += 1,
            },
            _ => {}
        }
    }

    /// Composes the subtree's coverage from every child's books: a child
    /// reports while its transport is alive or after it said Goodbye.
    fn coverage(&self) -> Coverage {
        self.children
            .iter()
            .map(|c| {
                let reporting = c.ledger.announced_sent().is_some() || c.tx.is_alive();
                c.ledger.coverage(reporting)
            })
            .sum()
    }

    /// Sends [`DaemonMsg::SubtreeCoverage`] upward iff it changed since
    /// the last send (`force` for the final flush).
    fn report_coverage(&mut self, force: bool) {
        let cov = self.coverage();
        if !force && self.last_coverage == Some(cov) {
            return;
        }
        let msg = DaemonMsg::SubtreeCoverage {
            nodes_reporting: cov.nodes_reporting as u32,
            nodes_total: cov.nodes_total as u32,
            samples_lost: cov.samples_lost,
        };
        if send_wire(self.server as &dyn Transport, &msg).is_ok() {
            self.last_coverage = Some(cov);
        }
        self.report.samples_lost = cov.samples_lost;
    }

    /// Flushes every pending sample upward as one sequenced
    /// [`SampleBatch`] frame once `batch` samples are pending (or a
    /// partial batch has waited `flush_interval`, or `force`), stamped
    /// with cumulative per-child source marks so the parent can seed
    /// exact adoptions if this relay dies. The uplink rings the columns
    /// for handover replay; `samples_forwarded` counts them as announced
    /// whether or not this send landed — a failed send is either replayed
    /// (no loss) or becomes visible loss at the parent.
    fn flush(&mut self, force: bool) {
        let due = self.pending.len() >= self.cfg.batch.max(1) as usize
            || (!self.pending.is_empty()
                && (force || self.last_flush.elapsed() >= self.cfg.flush_interval));
        if !due {
            return;
        }
        let mut batch = self.pending.take();
        let n = batch.len() as u64;
        batch.sources = self
            .children
            .iter()
            .filter(|c| !c.ledger.is_subtree_adopted())
            .map(|c| {
                let (through_seq, samples) = c.ledger.watermark();
                SourceMark {
                    origin: c.addr.to_string(),
                    through_seq,
                    samples,
                }
            })
            .collect();
        if self.uplink.send(self.server as &dyn Transport, batch) {
            self.report.batches_sent += 1;
        }
        self.report.samples_forwarded += n;
        self.last_flush = Instant::now();
    }

    /// If an obs period has elapsed, snapshots this relay's own registry
    /// plus its subtree rollup and enqueues the rows on `pending` — the
    /// interior node's health folded into the same upward stream as its
    /// children's. Stamps are already on the relay clock (no rewrite),
    /// and the ordinary [`RelaySession::flush`] counts the rows into
    /// `samples_forwarded`, keeping conservation exact.
    fn sample_self(&mut self) {
        let (mut rows, focus) = {
            let Some(sampler) = self.obs.as_mut() else {
                return;
            };
            let Some(rows) = sampler.due_rows() else {
                return;
            };
            (rows, sampler.focus().to_string())
        };
        let cov = self.coverage();
        rows.push((
            paradyn_tool::selfmap::OBS_SUBTREE_REPORTING.into(),
            cov.nodes_reporting as f64,
        ));
        rows.push((
            paradyn_tool::selfmap::OBS_SUBTREE_TOTAL.into(),
            cov.nodes_total as f64,
        ));
        rows.push((
            paradyn_tool::selfmap::OBS_SUBTREE_LOST.into(),
            cov.samples_lost as f64,
        ));
        let wall = daemon_now(self.cfg.skew_ns);
        self.report.obs_samples_sent += rows.len() as u64;
        for (metric, value) in rows {
            self.pending.push(metric, focus.clone(), wall, value);
        }
    }
}

/// Session epilogue shared by every exit path: totals the children's books
/// (Goodbyes, suppressed replays), records how many obs snapshots ran and
/// writes the span dump if one was requested.
fn finish(mut s: RelaySession<'_>) -> RelayReport {
    s.report.epoch = s.uplink.epoch;
    for c in &s.children {
        s.report.child_goodbyes += usize::from(c.ledger.announced_sent().is_some());
        s.report.replays_suppressed += c.ledger.replays_suppressed();
    }
    if let Some(sampler) = &s.obs {
        s.report.obs_snapshots = sampler.snapshots;
    }
    if let Some(path) = &s.cfg.obs_trace {
        let dump = pdmap_obs::span_dump(
            &pdmap_obs::snapshot(),
            crate::selfobs::SelfSampler::origin_delta_ns(s.cfg.skew_ns),
        );
        let _ = std::fs::write(path, dump);
    }
    s.report
}

/// Runs the relay loop on the caller's thread until the subtree completes,
/// the parent requests shutdown, or `stop` is raised. See the module docs
/// for the invariants; the phase structure mirrors [`crate::serve_until`]:
/// wait for the parent, sync the children, stream, drain, final flush.
pub fn serve_relay_until(
    server: Arc<TcpServer>,
    cfg: &RelayConfig,
    stop: &AtomicBool,
) -> RelayReport {
    let mut s = RelaySession::new(&server, cfg);

    // Phase 0: wait for the parent, exactly like a leaf waits for its tool.
    let deadline = Instant::now() + cfg.connect_timeout;
    while server.connections() == 0 {
        if Instant::now() >= deadline || stop.load(Ordering::Acquire) {
            return finish(s);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    s.report.parent_connected = true;

    // Phase 1: dial the children and start their clock sync. The relay is
    // the "tool" of its children: the same transport handshake, the same
    // probe protocol, just referenced to this relay's reported clock.
    for (i, &addr) in cfg.children.iter().enumerate() {
        s.children
            .push(Child::link(addr, s.tcfg, LinkLedger::default()));
        s.probe_child(i);
    }
    let sync_deadline = Instant::now() + cfg.sync_timeout;
    loop {
        s.serve_parent();
        for i in 0..s.children.len() {
            s.pump_child(i);
            // Leaves answer probes only once their workload phase ends, so
            // a probe can sit unanswered for a while; re-send rather than
            // stall the round.
            if !s.children[i].synced && s.children[i].pending_probe.is_none() {
                s.probe_child(i);
            }
        }
        let all = s.children.iter().all(|c| c.synced || !c.tx.is_alive());
        if all || Instant::now() >= sync_deadline || stop.load(Ordering::Acquire) || s.shutdown_msg
        {
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    // A child that never synced is treated as dark from the start; replay
    // whatever it did send (mapping info is offset-free).
    for i in 0..s.children.len() {
        if !s.children[i].synced {
            s.replay_backlog(i);
        }
    }
    s.report_coverage(true);
    s.announce_topology(true);

    // Phase 2: stream. Merge child frames, flush batches, answer parent
    // probes, resend coverage when the subtree changes, until every child
    // is done (Goodbye, dark, or re-parented) or a shutdown is requested.
    // Children adopted mid-stream sync here; a dead child relay with a
    // known topology gets its subtree adopted; an upstream death enters
    // the failover wait instead of ending the session (when budgeted). A
    // standby relay (no children yet) keeps serving until told to stop.
    loop {
        s.serve_parent();
        for i in 0..s.children.len() {
            s.pump_child(i);
            if !s.children[i].synced
                && s.children[i].pending_probe.is_none()
                && s.children[i].tx.is_alive()
            {
                s.probe_child(i);
            }
        }
        s.adopt_grandchildren();
        s.sample_self();
        s.flush(false);
        s.report_coverage(false);
        if stop.load(Ordering::Acquire) || s.shutdown_msg {
            break;
        }
        if !server.is_alive() {
            if s.await_upstream(stop) {
                // A new parent folded us in: it has the replayed ring but
                // not the last coverage snapshot — resend unconditionally.
                s.report_coverage(true);
                continue;
            }
            break;
        }
        if !s.children.is_empty() && s.children.iter().all(Child::done) {
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }

    // Phase 3: drain. Forward the shutdown downward if we are stopping
    // early, then give children until the sync timeout to flush and say
    // Goodbye — their conservation counts feed our final coverage.
    if !server.is_alive() {
        // Parent tore the link down (our SIGKILL shape): nothing to flush
        // to; report what happened and leave the loss unannounced.
        return finish(s);
    }
    for c in &s.children {
        if c.ledger.announced_sent().is_none() && c.tx.is_alive() {
            let _ = send_wire(&*c.tx as &dyn Transport, &DaemonMsg::Shutdown);
        }
    }
    let drain_deadline = Instant::now() + cfg.sync_timeout;
    while !s.children.iter().all(Child::done) && Instant::now() < drain_deadline {
        s.serve_parent();
        for i in 0..s.children.len() {
            s.pump_child(i);
        }
        s.flush(false);
        std::thread::sleep(Duration::from_micros(500));
    }
    for i in 0..s.children.len() {
        s.pump_child(i);
    }
    // The subtree is done: send the tail now rather than after the
    // linger, which can be far longer than `flush_interval`.
    s.flush(true);

    // Phase 4: linger so parent probe rounds racing the end still get
    // answers, then the final flush: last batch, final coverage, Goodbye
    // announcing the forwarded count — in that order, so the parent's
    // conservation check sees a complete ledger.
    let linger_until = Instant::now() + cfg.linger;
    while Instant::now() < linger_until && server.is_alive() && !s.shutdown_msg {
        s.serve_parent();
        std::thread::sleep(Duration::from_millis(1));
    }
    s.serve_parent();
    s.flush(true);
    s.report_coverage(true);
    let goodbye = DaemonMsg::Goodbye {
        samples_sent: u32::try_from(s.report.samples_forwarded).unwrap_or(u32::MAX),
    };
    s.report.graceful_shutdown = send_wire(&*server as &dyn Transport, &goodbye).is_ok();
    finish(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undecodable_child_frames_are_counted_not_folded() {
        let server = TcpServer::bind("127.0.0.1:0").expect("bind");
        let cfg = RelayConfig::default();
        let mut s = RelaySession::new(&server, &cfg);
        let tcfg = TransportConfig {
            reconnect: pdmap_transport::ReconnectPolicy {
                max_attempts: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let child = Child::link(addr, tcfg, LinkLedger::default());
        child.tx.close();
        s.children.push(child);
        let mut rows = BatchBuilder::default();
        rows.push("m".into(), "f".into(), 10, 1.0);
        rows.push("m".into(), "f".into(), 20, 2.0);
        let good = BatchColumns {
            seq: 1,
            ..rows.take()
        }
        .to_frame();
        // The count claims more samples than the payload carries.
        let mut corrupt = good.clone();
        corrupt.payload[0] = 9;
        s.dispatch_child_frame(0, &corrupt);
        assert_eq!(s.report.decode_errors, 1);
        assert_eq!(s.children[0].ledger.samples_received(), 0, "nothing folded");
        assert!(s.pending.is_empty());
        // An undecodable Daemon frame counts too; a good batch still folds.
        s.dispatch_child_frame(
            0,
            &pdmap_transport::Frame::data(FrameKind::Daemon, vec![0xFF]),
        );
        assert_eq!(s.report.decode_errors, 2);
        s.dispatch_child_frame(0, &good);
        assert_eq!(s.children[0].ledger.samples_received(), 2);
        assert_eq!(s.pending.len(), 2);
        assert_eq!(s.report.decode_errors, 2);
    }
}
