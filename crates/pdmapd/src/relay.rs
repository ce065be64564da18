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
//! 1. **Transitive clock alignment.** The relay reads each child through
//!    a [`ChildLink`], the type the tool reads each daemon through, and
//!    paces its clock sync the same way: [`RelayConfig::sync_rounds`]
//!    [`DaemonMsg::ClockProbe`]s, each waiting up to
//!    [`RelayConfig::sync_timeout`] for its reply, stamped from the
//!    relay's *own reported clock* (the skewed clock it answers its
//!    parent's probes with). It keeps the minimum-RTT offset and holds the
//!    child's frames until that sync ends, so none lands on an unknown
//!    clock.
//!    Every forwarded sample's wall stamp is moved by the offset
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
//!    batch decodes to [`BatchColumns`](pdmap_transport::BatchColumns),
//!    its dictionary is remapped into the upstream session's pending
//!    [`BatchBuilder`](pdmap_transport::BatchBuilder) once per entry and
//!    its walls re-timed in one column pass, and the flush encodes the
//!    columns directly.
//!
//! Mapping information is forwarded too: dynamic allocation messages pass
//! through verbatim, and PIF blobs, decoded like every child frame, are
//! deduplicated by content — a fleet running one executable ships its
//! static mapping once per relay, not once per leaf.
//!
//! Toward its parent a relay is a node like a leaf: it serves the parent
//! link with the same session code (the `upstream` module — probe
//! replies, seeds, failover wait, self-sampling, the one upward stream
//! and its flush, Goodbye). What is its own is the subtree: its
//! children, when to flush and the source marks a flush carries,
//! coverage and topology, and one place (`RelaySession::serve_parent`)
//! where it reacts to a seed or beacon the parent link brought. A
//! topology announcement is always preceded by a flush, so a watermark
//! it names never counts rows still pending here.
//!
//! The failover wait is the session's too: `serve_parent` polls the
//! parent link in every phase — sync, stream, drain, linger — and that
//! poll steps the one wait. So the relay waits for adoption in whichever
//! phase its parent dies, and meanwhile pumps its children, holds their
//! rows pending, and in its stream phase still adopts its dead child
//! relays' children. It announces no topology until a seed, which
//! re-sends topology and coverage.

use crate::upstream::{Running, Upstream, UpstreamConfig};
use paradyn_tool::daemon::{Arrival, ChildLink, DaemonMsg, LinkLedger};
use paradyn_tool::selfmap::{OBS_SUBTREE_LOST, OBS_SUBTREE_REPORTING, OBS_SUBTREE_TOTAL};
use paradyn_tool::Coverage;
use pdmap::columns::align;
use pdmap_transport::{
    send_wire, SourceMark, TcpClient, TcpServer, TopoChild, TopologyMsg, Transport, TransportConfig,
};
use std::collections::HashSet;
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
    /// Clock probes a child's sync sends, each waiting up to
    /// `sync_timeout` for its reply; the sync ends once they are spent or
    /// the child's link dies, and the child's frames wait until then.
    pub sync_rounds: u32,
    /// How long each child clock probe waits for its reply; also the bound
    /// on the whole child sync phase (a sync still in flight carries on
    /// into the stream phase) and on each drain-for-goodbye wait during
    /// shutdown.
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
    /// Children whose clock sync installed an estimate (at least one of
    /// its `sync_rounds` probes answered).
    pub children_synced: usize,
    /// Rows flushed upward, telemetry included: the count the final
    /// Goodbye announces.
    pub samples_forwarded: u64,
    /// Upward `SampleBatch` frames a live connection accepted.
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
    /// Health-telemetry rows added to the upward stream — counted into
    /// `samples_forwarded` by the flush that carries them (zero with
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
    /// carried surface as the child's loss, this names the cause. Each is
    /// also counted under `daemon.error.codec`, as at the tool.
    pub decode_errors: u64,
}

/// The child finished: announced its Goodbye, went dark, or was
/// re-parented.
fn done(child: &ChildLink) -> bool {
    child.is_subtree_adopted() || child.announced_sent().is_some() || !child.transport().is_alive()
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
    /// The child links, each keyed by the child's listen address — the
    /// identity that survives re-parenting (topology announcements and
    /// source marks key on it).
    children: Vec<ChildLink>,
    last_flush: Instant,
    /// PIF blobs already forwarded, by content.
    pifs_seen: HashSet<Vec<u8>>,
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
            last_flush: Instant::now(),
            pifs_seen: HashSet::new(),
            last_coverage: None,
            tcfg: cfg.upstream.dial_transport(cfg.child_transport),
            last_topology: None,
        }
    }

    /// Polls the parent link ([`Upstream::poll`], which also steps the
    /// failover wait) in any phase and reacts:
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

    /// Dials the child at `addr`, keeping its books in `ledger`, and
    /// starts its clock sync, whose probes [`RelaySession::pump_children`]
    /// stamps from the relay's reported clock — the reference that makes
    /// alignment transitive.
    fn dial(&mut self, addr: SocketAddr, ledger: LinkLedger) {
        let tx = TcpClient::connect(addr, self.tcfg);
        let mut child = ChildLink::new(addr.to_string(), tx, ledger);
        child.start_sync(self.cfg.sync_rounds, self.cfg.sync_timeout);
        self.children.push(child);
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
        let key = addr.to_string();
        if self
            .children
            .iter()
            .any(|c| c.addr() == key && !c.is_subtree_adopted())
        {
            return false;
        }
        self.dial(addr, LinkLedger::adopted(tc.watermark, tc.received));
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
            if self.children[i].transport().is_alive() {
                continue;
            }
            let Some(plan) = self.children[i].orphans() else {
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
    /// parent's dial list should this relay die. Every pending row is
    /// flushed first: a mark counts the rows folded here, and a parent
    /// that adopts a child from this announcement credits them as
    /// delivered, so none may still be waiting in this relay. An orphaned
    /// relay cannot flush, so it announces nothing until a seed.
    fn announce_topology(&mut self, force: bool) {
        let addrs: Vec<String> = self.live().map(|c| c.addr().to_string()).collect();
        if addrs.is_empty() || self.up.orphaned() {
            return;
        }
        let key = (self.up.uplink.epoch, addrs);
        if !force && self.last_topology.as_ref() == Some(&key) {
            return;
        }
        self.flush(true);
        let msg = TopologyMsg {
            epoch: self.up.uplink.epoch,
            origin: self.up.addr.clone(),
            children: self
                .live()
                .map(|c| {
                    let (watermark, received) = c.watermark();
                    TopoChild {
                        addr: c.addr().to_string(),
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

    /// The children whose subtree has not been adopted away.
    fn live(&self) -> impl Iterator<Item = &ChildLink> {
        self.children.iter().filter(|c| !c.is_subtree_adopted())
    }

    /// Pumps every child once: lands what its link reads (a sync in flight
    /// holds it) and paces its sync ([`ChildLink::pace_sync`]) one step:
    /// `sync_rounds` probes, each waiting up to `sync_timeout`, cut short
    /// if the link dies. A sync that ends lands what it held in this pump.
    fn pump_children(&mut self) {
        for i in 0..self.children.len() {
            loop {
                while let Ok(Some(arrival)) = self.children[i].recv(|| self.up.now()) {
                    self.land(i, arrival);
                }
                let child = &mut self.children[i];
                if !child.pace_sync(self.up.now()) {
                    break;
                }
                // An adopted child's watermark seed goes out the moment its
                // clock is aligned: its ring replay lands before live traffic.
                let synced = child.end_sync(self.up.uplink.epoch, &self.up.addr);
                self.report.children_synced += usize::from(synced);
            }
        }
    }

    /// Lands one arrival from child `i`: samples move onto the relay clock
    /// and join the pending batch, mapping information is forwarded (PIFs
    /// once per content), a rejected frame is counted.
    fn land(&mut self, i: usize, arrival: Arrival) {
        let offset = self.children[i].clock().offset_ns;
        match arrival {
            Arrival::Batch(batch) => self.up.pending.append(batch, |wall| align(wall, offset)),
            Arrival::Msg(DaemonMsg::Sample {
                metric,
                focus,
                wall,
                value,
            }) => self
                .up
                .pending
                .push(metric, focus, align(wall, offset), value),
            Arrival::Msg(mapping) => {
                let _ = send_wire(self.up.server as &dyn Transport, &mapping);
            }
            Arrival::Pif(blob) if !self.pifs_seen.contains(&blob.0) => {
                let _ = send_wire(self.up.server as &dyn Transport, &blob);
                self.pifs_seen.insert(blob.0);
            }
            Arrival::Rejected(_) => self.report.decode_errors += 1,
            Arrival::Pif(_) | Arrival::Absorbed => {}
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

    /// Flushes the upward stream ([`Upstream::flush`]) once `batch` rows
    /// are pending (or a partial batch has waited `flush_interval`, or
    /// `force`), stamped with cumulative per-child source marks so the
    /// parent can seed exact adoptions if this relay dies.
    fn flush(&mut self, force: bool) {
        let pending = self.up.pending.len();
        let due = pending >= self.cfg.batch.max(1) as usize
            || (pending > 0 && (force || self.last_flush.elapsed() >= self.cfg.flush_interval));
        if !due {
            return;
        }
        let sources = self
            .live()
            .map(|c| {
                let (through_seq, samples) = c.watermark();
                SourceMark {
                    origin: c.addr().to_string(),
                    through_seq,
                    samples,
                }
            })
            .collect();
        self.up.flush(sources);
        self.last_flush = Instant::now();
    }

    /// If an obs period has elapsed, adds this relay's own telemetry plus
    /// its subtree rollup to the upward stream ([`Upstream::sample_self`])
    /// — the interior node's health folded into the same stream as its
    /// children's. Stamps are already on the relay clock (no rewrite), and
    /// the ordinary [`RelaySession::flush`] counts the rows into
    /// `samples_forwarded`, keeping conservation exact.
    fn sample_self(&mut self) {
        let children = &self.children;
        self.up.sample_self(|| {
            let cov = coverage(children);
            vec![
                (OBS_SUBTREE_REPORTING.into(), cov.nodes_reporting as f64),
                (OBS_SUBTREE_TOTAL.into(), cov.nodes_total as f64),
                (OBS_SUBTREE_LOST.into(), cov.samples_lost as f64),
            ]
        });
    }
}

/// Composes the subtree's coverage from every child's books: a child
/// reports while its transport is alive or after it said Goodbye.
fn coverage(children: &[ChildLink]) -> Coverage {
    children
        .iter()
        .map(|c| {
            let reporting = c.announced_sent().is_some() || c.transport().is_alive();
            c.coverage(reporting)
        })
        .sum()
}

/// Session epilogue shared by every exit path: totals the children's books
/// (Goodbyes, suppressed replays) and the parent session's, which also
/// writes the span dump if one was requested.
fn finish(mut s: RelaySession<'_>) -> RelayReport {
    for c in &s.children {
        s.report.child_goodbyes += usize::from(c.announced_sent().is_some());
        s.report.replays_suppressed += c.replays_suppressed();
    }
    s.up.close();
    s.report.samples_forwarded = s.up.samples_sent;
    s.report.batches_sent = s.up.batches_sent;
    s.report.obs_samples_sent = s.up.obs_samples_sent;
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

    // Phase 1: dial the children and sync their clocks. The relay is the
    // "tool" of its children: the same transport handshake, the same child
    // link, just referenced to this relay's reported clock. Leaves answer
    // probes only once their workload phase ends, so a sync still in
    // flight at the deadline carries on into the stream phase.
    for &addr in &cfg.children {
        s.dial(addr, LinkLedger::default());
    }
    let sync_deadline = Instant::now() + cfg.sync_timeout;
    loop {
        s.serve_parent();
        s.pump_children();
        let all = s.children.iter().all(|c| !c.syncing());
        let over = all || Instant::now() >= sync_deadline || s.up.stopping(stop);
        if s.up.phase_over(over, stop) {
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    s.report_coverage(true);
    s.announce_topology(true);

    // Phase 2: stream. Merge child frames, flush batches, answer parent
    // probes, resend coverage when the subtree changes, until every child
    // is done (Goodbye, dark, or re-parented) or a shutdown is requested.
    // Children adopted mid-stream sync here; a dead child relay with a
    // known topology gets its subtree adopted, also while this relay is
    // orphaned. An upstream death starts the failover wait (when
    // budgeted): the loop goes on, holding its rows pending, and does not
    // end until a seed adopts the relay or the parent is lost. A seed —
    // in the wait, or before this relay noticed its parent died —
    // re-sends coverage and topology from `serve_parent`. A standby relay
    // (no children yet) keeps serving until told to stop.
    loop {
        s.serve_parent();
        s.pump_children();
        s.adopt_grandchildren();
        s.sample_self();
        s.flush(false);
        s.report_coverage(false);
        let finished = !s.children.is_empty() && s.children.iter().all(done);
        if s.up.phase_over(finished || s.up.stopping(stop), stop) {
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }

    // Phase 3: drain. Forward the shutdown downward if we are stopping
    // early, then give children until the sync timeout to flush and say
    // Goodbye — their conservation counts feed our final coverage. A
    // parent that dies now is waited for as in the stream phase.
    if !server.is_alive() {
        // Parent tore the link down (our SIGKILL shape): nothing to flush
        // to; report what happened and leave the loss unannounced. The
        // link is what counts here, not the wait: a killed relay with a
        // budget is orphaned, not lost, and its children must stay
        // running for their adopters rather than be sent Shutdown.
        return finish(s);
    }
    for c in &s.children {
        if c.announced_sent().is_none() && c.transport().is_alive() {
            let _ = send_wire(&**c.transport(), &DaemonMsg::Shutdown);
        }
    }
    let drain_deadline = Instant::now() + cfg.sync_timeout;
    while !s.up.phase_over(
        s.children.iter().all(done) || Instant::now() >= drain_deadline,
        stop,
    ) {
        s.serve_parent();
        s.pump_children();
        s.flush(false);
        std::thread::sleep(Duration::from_micros(500));
    }
    // A sync still in flight ends here, so nothing it held is left behind.
    for c in &mut s.children {
        c.end_sync(s.up.uplink.epoch, &s.up.addr);
    }
    s.pump_children();
    // The subtree is done: send the tail now rather than after the
    // linger, which can be far longer than `flush_interval`.
    s.flush(true);

    // Phase 4: linger so parent probe rounds racing the end still get
    // answers — a stop request skips straight on, and a parent death here
    // starts the failover wait, which the linger outlasts, so a relay
    // adopted now still says Goodbye to its new parent — then the final
    // flush: last batch, final coverage, Goodbye announcing the forwarded
    // count — in that order, so the parent's conservation check sees a
    // complete ledger.
    let linger_until = Instant::now() + cfg.upstream.linger;
    while !s
        .up
        .phase_over(Instant::now() >= linger_until || s.up.stopping(stop), stop)
    {
        s.serve_parent();
        std::thread::sleep(Duration::from_millis(1));
    }
    s.serve_parent();
    s.flush(true);
    s.report_coverage(true);
    s.report.graceful_shutdown = s.up.goodbye();
    finish(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmap_transport::{BatchBuilder, BatchColumns, Frame, FrameKind, PifBlob, WirePayload};

    #[test]
    fn undecodable_child_frames_are_counted_not_folded() {
        let server = TcpServer::bind("127.0.0.1:0").expect("bind");
        let cfg = RelayConfig::default();
        let mut s = RelaySession::new(&server, &cfg);
        // An in-process link stands in for a synced child: the test writes
        // its frames and the relay reads them through the child link.
        let link = pdmap_transport::Backend::InProc.link(&TransportConfig::default());
        s.children
            .push(ChildLink::new("child", link.client, LinkLedger::default()));
        let child = link.server;
        let feed = |s: &mut RelaySession<'_>, frame: &Frame| {
            child.send(frame.kind, frame.payload.clone()).unwrap();
            s.pump_children();
        };
        // The registry is global to the test binary, so check the counter
        // moved rather than its value.
        let codec = || pdmap_obs::counter("daemon.error.codec").get();
        let before = codec();
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
        feed(&mut s, &corrupt);
        assert_eq!(s.report.decode_errors, 1);
        assert_eq!(s.children[0].samples_received(), 0, "nothing folded");
        assert!(s.up.pending.is_empty());
        // An undecodable Daemon frame counts too; a good batch still folds.
        feed(&mut s, &Frame::data(FrameKind::Daemon, vec![0xFF]));
        assert_eq!(s.report.decode_errors, 2);
        feed(&mut s, &good);
        assert_eq!(s.children[0].samples_received(), 2);
        assert_eq!(s.up.pending.len(), 2);
        assert_eq!(s.report.decode_errors, 2);
        // A PIF blob is decoded before it is forwarded: a truncated one is
        // counted and never reaches the parent; a good one is forwarded.
        let pif = PifBlob(b"MAPPING\n".to_vec()).to_frame();
        let mut truncated = pif.clone();
        truncated.payload.pop();
        feed(&mut s, &truncated);
        assert_eq!(s.report.decode_errors, 3);
        assert!(s.pifs_seen.is_empty(), "nothing forwarded");
        feed(&mut s, &pif);
        assert_eq!(s.pifs_seen.len(), 1, "the good blob is forwarded");
        assert_eq!(s.report.decode_errors, 3);
        // Every rejection is counted as the tool counts its own.
        assert!(codec() >= before + 3, "daemon.error.codec moved by each");
    }

    #[test]
    fn a_child_that_answers_no_probe_ends_its_sync_and_lands_what_it_held() {
        let server = TcpServer::bind("127.0.0.1:0").expect("bind");
        let cfg = RelayConfig {
            sync_rounds: 2,
            sync_timeout: Duration::from_millis(300),
            ..RelayConfig::default()
        };
        let mut s = RelaySession::new(&server, &cfg);
        // The child takes the relay's dial and answers nothing; once the
        // first probe arrives it sends a batch, which the sync must hold.
        let child = TcpServer::bind("127.0.0.1:0").expect("bind child");
        s.dial(child.local_addr(), LinkLedger::default());
        let mut rows = BatchBuilder::default();
        rows.push("m".into(), "f".into(), 10, 1.0);
        rows.push("m".into(), "f".into(), 20, 2.0);
        let mut batch = Some(
            BatchColumns {
                seq: 1,
                ..rows.take()
            }
            .to_frame(),
        );
        let mut probes = 0;
        let read_probes = |probes: &mut usize| {
            while let Ok(Some(f)) = child.try_recv() {
                let probe = matches!(DaemonMsg::from_frame(&f), Ok(DaemonMsg::ClockProbe { .. }));
                *probes += usize::from(probe);
            }
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.children[0].syncing() {
            assert!(Instant::now() < deadline, "the sync never ended");
            s.pump_children();
            read_probes(&mut probes);
            if probes > 0 {
                if let Some(f) = batch.take() {
                    child.send(f.kind, f.payload).expect("send batch");
                }
            }
            if s.children[0].syncing() {
                assert!(s.up.pending.is_empty(), "a sync in flight holds the batch");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        while s.up.pending.len() < 2 || probes < 2 {
            assert!(Instant::now() < deadline, "the held batch never landed");
            s.pump_children();
            read_probes(&mut probes);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(probes, 2, "sync_rounds probes, no more");
        assert_eq!(s.up.pending.len(), 2, "the held batch lands");
        assert_eq!(s.children[0].clock().rounds, 0, "no estimate");
        assert_eq!(s.report.children_synced, 0);
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
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let child = ChildLink::new(
            addr.to_string(),
            TcpClient::connect(addr, tcfg),
            LinkLedger::default(),
        );
        child.transport().close();
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
