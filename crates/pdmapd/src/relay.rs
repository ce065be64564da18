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
//!    [`SampleBatch`](pdmap_transport::SampleBatch) frames (shared
//!    metric/focus dictionary, delta-encoded stamps), so a relay with `F`
//!    children costs the parent one frame per flush instead of one per
//!    sample. A flush sends everything pending as one frame;
//!    [`RelayConfig::batch`] is the pending count that triggers it, not a
//!    cap on the frame. Relayed samples stay columns end to end: a child
//!    batch decodes to [`BatchColumns`], its dictionary is remapped into
//!    the pending [`BatchBuilder`] once per entry and its walls re-timed
//!    in one column pass, and the flush encodes the columns directly.
//!
//! Mapping information is forwarded too: dynamic allocation messages pass
//! through verbatim, and PIF blobs are deduplicated by content — a fleet
//! running one executable ships its static mapping once per relay, not
//! once per leaf.
//!
//! Toward its parent a relay is a node like a leaf: it serves the parent
//! link with the same session code (the `upstream` module — probe
//! replies, seeds, failover wait, self-sampling, Goodbye). What is its own
//! is the subtree: its children, the pending builder, coverage and
//! topology, and one place (`RelaySession::serve_parent`) where it
//! reacts to a seed or beacon the parent link brought.

use crate::upstream::{Running, Upstream, UpstreamConfig};
use paradyn_tool::daemon::{DaemonMsg, LinkLedger};
use paradyn_tool::selfmap::{OBS_SUBTREE_LOST, OBS_SUBTREE_REPORTING, OBS_SUBTREE_TOTAL};
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
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for one relay process (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct RelayConfig {
    /// The link to the parent (tool or higher relay) above this relay.
    pub upstream: UpstreamConfig,
    /// Child endpoints to dial — leaf daemons or further relays.
    pub children: Vec<SocketAddr>,
    /// Flush threshold: once this many samples are pending, the next
    /// flush sends them all upward as one `SampleBatch` frame (which
    /// may carry more than `batch` samples when children deliver faster
    /// than the relay flushes).
    pub batch: u32,
    /// Flush a partial batch after this long, so a trickle of samples
    /// never waits for a full frame.
    pub flush_interval: Duration,
    /// Clock-probe rounds per child during the initial sync.
    pub sync_rounds: u32,
    /// Bound on the whole child sync phase (and on each drain-for-goodbye
    /// wait during shutdown).
    pub sync_timeout: Duration,
    /// Transport tuning for the child dials (liveness timeout, reconnect
    /// policy). Tests shrink these so dead-child detection is immediate;
    /// the upstream secret is applied on top.
    pub child_transport: TransportConfig,
}

impl Default for RelayConfig {
    fn default() -> Self {
        Self {
            upstream: UpstreamConfig::default(),
            children: Vec::new(),
            batch: 64,
            flush_interval: Duration::from_millis(5),
            sync_rounds: 4,
            sync_timeout: Duration::from_secs(10),
            child_transport: TransportConfig::default(),
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
    /// Upward `SampleBatch` frames sent.
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
pub type RunningRelay = Running<RelayReport>;

/// Binds `cfg.upstream.listen` and runs [`serve_relay_until`] on a
/// background thread.
pub fn spawn_relay(cfg: RelayConfig) -> std::io::Result<RunningRelay> {
    let server = cfg.upstream.bind()?;
    Running::start(server, "pdmapd-relay", move |server, stop| {
        serve_relay_until(server, &cfg, stop)
    })
}

/// Everything mutable the relay session threads through its loop.
struct RelaySession<'a> {
    /// The session with the parent: probes, seeds, the uplink, failover.
    up: Upstream<'a>,
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
    /// Transport tuning for child dials — kept so adoption dials use the
    /// same liveness/secret settings as the configured children.
    tcfg: TransportConfig,
    /// `(epoch, child addrs)` last announced upward, to only resend the
    /// topology on membership or epoch change.
    last_topology: Option<(u64, Vec<String>)>,
}

impl<'a> RelaySession<'a> {
    /// A session with no children yet, serving the parent on `server`.
    fn new(server: &'a TcpServer, cfg: &'a RelayConfig) -> Self {
        RelaySession {
            up: Upstream::new(server, &cfg.upstream, "relay"),
            cfg,
            report: RelayReport::default(),
            children: Vec::new(),
            pending: BatchBuilder::default(),
            last_flush: Instant::now(),
            pifs_seen: HashSet::new(),
            last_coverage: None,
            tcfg: cfg.upstream.dial_transport(cfg.child_transport),
            last_topology: None,
        }
    }

    /// Polls the parent link ([`Upstream::poll`]) in any phase and reacts:
    /// adopts each beaconing orphan, and after a seed re-sends the
    /// topology and the coverage, which the new parent lacks (unchanged
    /// coverage would never be re-sent otherwise). True after a seed.
    fn serve_parent(&mut self) -> bool {
        let polled = self.up.poll();
        for beacon in &polled.beacons {
            self.adopt_orphan(beacon);
        }
        if polled.seeded {
            self.announce_topology(true);
            self.report_coverage(true);
        }
        polled.seeded
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
            self.up.uplink.epoch += 1;
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
                self.up.uplink.epoch += 1;
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
        let key = (self.up.uplink.epoch, addrs);
        if !force && self.last_topology.as_ref() == Some(&key) {
            return;
        }
        let msg = TopologyMsg {
            epoch: self.up.uplink.epoch,
            origin: self.up.addr.clone(),
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
        if send_wire(self.up.server as &dyn Transport, &msg).is_ok() {
            self.last_topology = Some(key);
        }
    }

    /// Whether the link to the parent is up. When it died — the relay's
    /// own failover — pause upward sends (children keep streaming into
    /// `pending`) and wait for a new parent to dial in and seed a replay
    /// (see [`Upstream::orphaned`]): true again once re-adopted.
    fn parent_up(&mut self, stop: &AtomicBool) -> bool {
        if self.up.server.is_alive() {
            return true;
        }
        let Some(mut wait) = self.up.orphaned() else {
            return false;
        };
        while self.up.keep_waiting(&mut wait, stop) {
            if self.serve_parent() {
                return true;
            }
            for i in 0..self.children.len() {
                self.pump_child(i);
            }
        }
        false
    }

    /// One probe round against child `i` using the relay's reported clock
    /// as the reference — the step that makes alignment transitive.
    fn probe_child(&mut self, i: usize) {
        let token = (i as u64) << 32 | u64::from(self.children[i].ledger.clock().rounds);
        let t0 = self.up.now();
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
                            clock.observe(t0, t_daemon_ns, self.up.now());
                            child.pending_probe = None;
                            if clock.rounds >= self.cfg.sync_rounds {
                                child.synced = true;
                                self.report.children_synced += 1;
                                // An adopted child gets its watermark seed
                                // the moment its clock is aligned — its
                                // ring replay lands before live traffic.
                                let addr = child.addr.to_string();
                                if let Some(seed) = child.ledger.seed_msg(
                                    self.up.uplink.epoch,
                                    &self.up.addr,
                                    &addr,
                                ) {
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
                    let _ = self
                        .up
                        .server
                        .send(FrameKind::PifBlob, frame.payload.clone());
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
                            let _ = send_wire(self.up.server as &dyn Transport, &msg);
                        }
                        _ => {}
                    }
                }
                Err(_) => self.report.decode_errors += 1,
            },
            _ => {}
        }
    }

    /// Sends [`DaemonMsg::SubtreeCoverage`] upward iff it changed since
    /// the last send (`force` for the final flush).
    fn report_coverage(&mut self, force: bool) {
        let cov = coverage(&self.children);
        if !force && self.last_coverage == Some(cov) {
            return;
        }
        let msg = DaemonMsg::SubtreeCoverage {
            nodes_reporting: cov.nodes_reporting as u32,
            nodes_total: cov.nodes_total as u32,
            samples_lost: cov.samples_lost,
        };
        if send_wire(self.up.server as &dyn Transport, &msg).is_ok() {
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
        if self.up.uplink.send(self.up.server, batch) {
            self.report.batches_sent += 1;
        }
        self.report.samples_forwarded += n;
        self.last_flush = Instant::now();
    }

    /// If an obs period has elapsed, enqueues this relay's own telemetry
    /// plus its subtree rollup on `pending` ([`Upstream::sample_self`]) —
    /// the interior node's health folded into the same upward stream as
    /// its children's. Stamps are already on the relay clock (no
    /// rewrite), and the ordinary [`RelaySession::flush`] counts the rows
    /// into `samples_forwarded`, keeping conservation exact.
    fn sample_self(&mut self) {
        let children = &self.children;
        let n = self.up.sample_self(&mut self.pending, || {
            let cov = coverage(children);
            vec![
                (OBS_SUBTREE_REPORTING.into(), cov.nodes_reporting as f64),
                (OBS_SUBTREE_TOTAL.into(), cov.nodes_total as f64),
                (OBS_SUBTREE_LOST.into(), cov.samples_lost as f64),
            ]
        });
        self.report.obs_samples_sent += u64::from(n);
    }
}

/// Composes the subtree's coverage from every child's books: a child
/// reports while its transport is alive or after it said Goodbye.
fn coverage(children: &[Child]) -> Coverage {
    children
        .iter()
        .map(|c| {
            let reporting = c.ledger.announced_sent().is_some() || c.tx.is_alive();
            c.ledger.coverage(reporting)
        })
        .sum()
}

/// Session epilogue shared by every exit path: totals the children's books
/// (Goodbyes, suppressed replays) and the parent session's, which also
/// writes the span dump if one was requested.
fn finish(mut s: RelaySession<'_>) -> RelayReport {
    for c in &s.children {
        s.report.child_goodbyes += usize::from(c.ledger.announced_sent().is_some());
        s.report.replays_suppressed += c.ledger.replays_suppressed();
    }
    s.up.close();
    s.report.probes_answered = s.up.probes_answered;
    s.report.failovers = s.up.failovers;
    s.report.batches_replayed = s.up.batches_replayed;
    s.report.epoch = s.up.uplink.epoch;
    s.report.obs_snapshots = s.up.obs.map_or(0, |o| o.snapshots);
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
    if !s.up.await_parent(stop) {
        return finish(s);
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
        if all || Instant::now() >= sync_deadline || s.up.stopping(stop) {
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
    // the failover wait instead of ending the session (when budgeted),
    // and a seed — in the wait or here, when an adopter dials in before
    // this relay noticed its parent died — re-sends coverage and topology
    // from `serve_parent`. A standby relay (no children yet) keeps
    // serving until told to stop.
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
        if s.up.stopping(stop) {
            break;
        }
        if !s.parent_up(stop) {
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
    // answers — a stop request skips straight on — then the final flush:
    // last batch, final coverage, Goodbye announcing the forwarded count —
    // in that order, so the parent's conservation check sees a complete
    // ledger.
    let linger_until = Instant::now() + cfg.upstream.linger;
    while Instant::now() < linger_until && server.is_alive() && !s.up.stopping(stop) {
        s.serve_parent();
        std::thread::sleep(Duration::from_millis(1));
    }
    s.serve_parent();
    s.flush(true);
    s.report_coverage(true);
    s.report.graceful_shutdown = s.up.goodbye(s.report.samples_forwarded);
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

    /// Receives frames on `t` until `done` holds for one, returning every
    /// frame before it; panics after 10 s.
    fn frames_until(
        t: &dyn Transport,
        done: impl Fn(&pdmap_transport::Frame) -> bool,
    ) -> Vec<pdmap_transport::Frame> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut before = Vec::new();
        loop {
            match t.try_recv() {
                Ok(Some(f)) if done(&f) => return before,
                Ok(Some(f)) => before.push(f),
                _ => {
                    assert!(Instant::now() < deadline, "frame never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    #[test]
    fn a_seed_in_the_stream_phase_resends_coverage_to_the_new_parent() {
        let server = TcpServer::bind("127.0.0.1:0").expect("bind");
        let cfg = RelayConfig::default();
        let mut s = RelaySession::new(&server, &cfg);
        // One dark child: the subtree reads 0/1.
        let tcfg = TransportConfig {
            reconnect: pdmap_transport::ReconnectPolicy {
                max_attempts: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let child = Child::link("127.0.0.1:9".parse().unwrap(), tcfg, LinkLedger::default());
        child.tx.close();
        s.children.push(child);
        let is_coverage = |f: &pdmap_transport::Frame| {
            matches!(
                DaemonMsg::from_frame(f),
                Ok(DaemonMsg::SubtreeCoverage { .. })
            )
        };

        // The old parent received that coverage, then went away.
        let old = TcpClient::connect(server.local_addr(), TransportConfig::default());
        while server.connections() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        s.report_coverage(false);
        frames_until(&*old, is_coverage);
        old.close();

        // A new parent dials in and seeds the relay before the relay
        // noticed the old link died: the seed lands in the main loop.
        let new = TcpClient::connect(server.local_addr(), TransportConfig::default());
        let seed = TopologyMsg {
            epoch: 1,
            origin: "tool".into(),
            children: vec![TopoChild {
                addr: server.local_addr().to_string(),
                watermark: 0,
                received: 0,
            }],
        };
        send_wire(&*new as &dyn Transport, &seed).expect("send seed");
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.up.failovers == 0 {
            assert!(Instant::now() < deadline, "seed never applied");
            // One main-loop pass.
            s.serve_parent();
            s.flush(false);
            s.report_coverage(false);
            std::thread::sleep(Duration::from_millis(1));
        }

        // A probe's reply marks the end of what the pass sent.
        let probe = DaemonMsg::ClockProbe {
            token: 7,
            t_tool_ns: 0,
        };
        send_wire(&*new as &dyn Transport, &probe).expect("send probe");
        while s.up.probes_answered == 0 {
            assert!(Instant::now() < deadline, "probe never answered");
            s.serve_parent();
            std::thread::sleep(Duration::from_millis(1));
        }
        let sent = frames_until(&*new, |f| {
            matches!(DaemonMsg::from_frame(f), Ok(DaemonMsg::ClockReply { .. }))
        });
        let kinds: Vec<_> = sent.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec![FrameKind::Topology, FrameKind::Daemon]);
        assert_eq!(
            DaemonMsg::from_frame(&sent[1]).unwrap(),
            DaemonMsg::SubtreeCoverage {
                nodes_reporting: 0,
                nodes_total: 1,
                samples_lost: 0,
            },
            "the new parent learns the subtree's coverage"
        );
    }
}
