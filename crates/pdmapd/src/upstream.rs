//! A node's session with its parent: the upward half that a leaf daemon
//! and a relay share.
//!
//! The paper's daemons forward mapping information and samples to their
//! parent over one channel (§4.2.3, §5). Whatever a node does below that
//! channel, it serves its parent with this module's [`Upstream`]: one
//! wait for the parent, one poll of the parent link in every phase
//! (probe replies from the skewed clock, a remembered Shutdown, seeds,
//! beacons handed to the caller), the node's one upward stream, the
//! self-sampler, the failover wait, the Goodbye and the span dump.
//!
//! **One upward stream.** Every row a node sends its parent — a leaf's
//! samples, a relay's re-timed child rows, either node's telemetry —
//! joins the session's pending [`BatchBuilder`] and leaves through
//! [`Upstream::flush`], which stamps, rings and sends it as one
//! `SampleBatch` and counts its rows; the Goodbye announces that count.
//! The callers only decide when to flush: a leaf every `batch` rows, a
//! relay at its threshold or interval.
//!
//! **Failover.** The [`Uplink`] stamps a monotonic topology **epoch** and
//! batch **sequence** into every upward batch and keeps a bounded
//! **replay ring** of recent batches. When the upstream link dies, the
//! node is **orphaned**: it waits to be adopted. A new parent (the tool's
//! supervisor, the dead parent's parent, or a standby relay from
//! `--parent`) dials the node's listen socket, completes the usual clock
//! sync, and sends a [`TopologyMsg`] **watermark seed** naming the node
//! and the highest batch sequence it has already folded in. The node
//! bumps its epoch and replays exactly the ring suffix past the watermark
//! — no double count, no silent gap. When nobody adopts the node within
//! half its failover budget, it **beacons** each standby parent in turn:
//! a short-lived dial carrying its own address and delivered watermark,
//! inviting the standby to dial back and adopt it.
//!
//! The wait is a state of the session, not a loop of its own: the
//! [`Upstream::poll`] that every phase of either node kind makes steps
//! it. A poll that finds the parent link dead starts the wait, or loses
//! the parent at once when there is no failover budget. Later polls
//! beacon the next standby when it is due and lose the parent once the
//! budget is spent. A seed ends the wait; it is applied in whatever phase
//! it arrives, since a fast adopter can dial in before the node notices
//! its old parent died. [`Upstream::phase_over`] holds every phase loop
//! to one rule: none ends while the node is orphaned, unless it is
//! stopping, and each ends once the parent is lost. While orphaned,
//! [`Upstream::flush`] keeps rows pending and [`Upstream::sample_self`]
//! takes no snapshot, so the adopter receives the rows under fresh
//! sequences, and a relay announces no topology whose watermarks would
//! count rows still pending.

use crate::daemon_now;
use crate::selfobs::SelfSampler;
use paradyn_tool::daemon::{is_beacon, DaemonMsg};
use paradyn_tool::selfmap::obs_focus;
use pdmap_transport::{
    send_wire, BatchBuilder, BatchColumns, FrameKind, SourceMark, TcpClient, TcpServer, TopoChild,
    TopologyMsg, Transport, TransportConfig, WirePayload,
};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The settings of a node's link to its parent, shared by leaves and
/// relays (the CLI flags of both modes map onto these 1:1).
#[derive(Clone, Debug)]
pub struct UpstreamConfig {
    /// Listen address for the parent; port 0 lets the OS pick.
    pub listen: String,
    /// Injected clock skew (ns), added to every clock read — probe
    /// replies and sample stamps alike, like a fast or slow host.
    pub skew_ns: i64,
    /// How long to wait for the parent to connect before giving up.
    pub connect_timeout: Duration,
    /// How long to keep answering parent probes once the node's own
    /// stream has ended.
    pub linger: Duration,
    /// Shared secret for the transport's challenge/response handshake on
    /// every link; `None` accepts any peer.
    pub secret: Option<[u8; 16]>,
    /// Self-observation period: every this long, ship the node's own
    /// `pdmap-obs` registry upstream as health telemetry (see the
    /// `selfobs` module). `None` (the default) sends none.
    pub obs_period: Option<Duration>,
    /// Write a `pdmap_obs::span_dump` of this process's spans here at
    /// session end, for the merged fleet trace exporter.
    pub obs_trace: Option<PathBuf>,
    /// Standby parents, in the order they are beaconed after an upstream
    /// death.
    pub parents: Vec<SocketAddr>,
    /// How long to survive an upstream death awaiting adoption before
    /// giving up like a plain crash. Zero (the default) disables
    /// failover.
    pub failover_timeout: Duration,
    /// Bound on the replay ring of recent upward batches.
    pub replay_ring: usize,
}

impl Default for UpstreamConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            skew_ns: 0,
            connect_timeout: Duration::from_secs(30),
            linger: Duration::from_millis(500),
            secret: None,
            obs_period: None,
            obs_trace: None,
            parents: Vec::new(),
            failover_timeout: Duration::ZERO,
            replay_ring: 64,
        }
    }
}

impl UpstreamConfig {
    /// Binds the parent-facing listener on `listen`, with the secret.
    pub fn bind(&self) -> std::io::Result<Arc<TcpServer>> {
        TcpServer::bind_with_secret(&self.listen, self.secret)
    }

    /// `base` with this link's secret applied, for the node's own dials.
    pub(crate) fn dial_transport(&self, base: TransportConfig) -> TransportConfig {
        TransportConfig {
            secret: self.secret.or(base.secret),
            ..base
        }
    }
}

/// The upward-streaming state of one node: epoch, batch sequence, the
/// replay ring, and the delivered-watermark bookkeeping.
pub(crate) struct Uplink {
    /// Current topology epoch; bumped on every re-parenting handover.
    pub epoch: u64,
    /// Last batch sequence stamped (1-based; 0 = nothing sent yet).
    pub seq: u64,
    /// Highest sequence whose send was accepted by a live connection.
    pub delivered_seq: u64,
    /// Cumulative samples in batches through `delivered_seq`.
    pub delivered_samples: u64,
    cap: usize,
    ring: VecDeque<BatchColumns>,
}

impl Uplink {
    pub fn new(cap: usize) -> Self {
        Self {
            epoch: 0,
            seq: 0,
            delivered_seq: 0,
            delivered_samples: 0,
            cap: cap.max(1),
            ring: VecDeque::new(),
        }
    }

    /// Stamps, sends, and rings one batch upward. The batch itself is
    /// retained in the ring whether or not the send succeeded — a batch
    /// that died with the old parent is exactly what a handover must
    /// replay.
    pub fn send(&mut self, server: &dyn Transport, mut batch: BatchColumns) -> bool {
        self.seq += 1;
        batch.epoch = self.epoch;
        batch.seq = self.seq;
        let n = batch.len() as u64;
        let ok = send_wire(server, &batch).is_ok();
        self.ring.push_back(batch);
        while self.ring.len() > self.cap {
            self.ring.pop_front();
        }
        if ok {
            self.delivered_seq = self.seq;
            self.delivered_samples += n;
        }
        ok
    }

    /// Replays the ring suffix past `watermark` to the (new) parent,
    /// re-stamped with a freshly bumped epoch and re-encoded. Returns the
    /// number of batches replayed.
    pub fn replay(&mut self, server: &dyn Transport, watermark: u64) -> u64 {
        self.epoch += 1;
        let mut replayed = 0u64;
        for b in self.ring.iter_mut().filter(|b| b.seq > watermark) {
            b.epoch = self.epoch;
            if send_wire(server, &*b).is_ok() {
                replayed += 1;
                if b.seq > self.delivered_seq {
                    self.delivered_seq = b.seq;
                    self.delivered_samples += b.len() as u64;
                }
            }
        }
        replayed
    }

    /// The beacon this node sends a standby parent: its own address and
    /// delivered watermark as a single self-entry, so the standby can
    /// dial back, seed the replay, and account the prior delivery.
    pub fn beacon_msg(&self, origin: &str) -> TopologyMsg {
        TopologyMsg {
            epoch: self.epoch,
            origin: origin.into(),
            children: vec![TopoChild {
                addr: origin.into(),
                watermark: self.delivered_seq,
                received: self.delivered_samples,
            }],
        }
    }
}

/// Dials `standby` just long enough to deliver `msg`: close flushes it
/// (or counts it lost) before returning. The standby answers by dialing
/// the orphan's listen address back — the beacon connection itself never
/// carries session traffic.
fn send_beacon(standby: SocketAddr, msg: &TopologyMsg, tcfg: TransportConfig) {
    let tx = TcpClient::connect(standby, tcfg);
    let _ = send_wire(&*tx as &dyn Transport, msg);
    tx.close();
}

/// What one [`Upstream::poll`] brought that the node itself must act on.
#[derive(Default)]
pub(crate) struct Polled {
    /// A seed adopted this node; the ring was replayed past its watermark.
    pub seeded: bool,
    /// Orphans' beacons inviting this node to adopt them (a relay's job).
    pub beacons: Vec<TopologyMsg>,
}

/// The clock of one failover wait: its budget, and when to beacon which
/// standby (see [`Upstream::poll`]).
struct FailoverWait {
    deadline: Instant,
    next_beacon: Instant,
    standby: usize,
}

/// One node's session with its parent (see the module docs).
pub(crate) struct Upstream<'a> {
    pub server: &'a TcpServer,
    cfg: &'a UpstreamConfig,
    /// This node's listen address, the identity seeds and beacons name —
    /// built once, so an empty poll allocates nothing.
    pub addr: String,
    /// Upward batch sequencing, the topology epoch, and the replay ring.
    pub uplink: Uplink,
    /// Rows awaiting the next [`Upstream::flush`].
    pub pending: BatchBuilder,
    /// Rows flushed upward: the count the Goodbye announces.
    pub samples_sent: u64,
    /// Flushed batches a live connection accepted.
    pub batches_sent: u64,
    /// Telemetry rows [`Upstream::sample_self`] appended.
    pub obs_samples_sent: u64,
    /// The node's role in its telemetry focus (`daemon` or `relay`).
    role: &'static str,
    /// Periodic self-sampling, from the first [`Upstream::sample_self`].
    pub obs: Option<SelfSampler>,
    /// A wire-level [`DaemonMsg::Shutdown`] arrived from the parent.
    shutdown: bool,
    /// The failover wait in flight (see [`Upstream::orphaned`]).
    wait: Option<FailoverWait>,
    /// The parent is gone for good (see [`Upstream::lost`]).
    lost: bool,
    /// Clock probes answered.
    pub probes_answered: u64,
    /// Seeds applied: handovers to a new parent.
    pub failovers: u32,
    /// Ring batches replayed across those handovers.
    pub batches_replayed: u64,
}

impl<'a> Upstream<'a> {
    /// A session serving the parent on `server`; `role` names the node
    /// in its telemetry focus (`daemon` or `relay`).
    pub fn new(server: &'a TcpServer, cfg: &'a UpstreamConfig, role: &'static str) -> Self {
        Upstream {
            server,
            cfg,
            addr: server.local_addr().to_string(),
            role,
            obs: None,
            uplink: Uplink::new(cfg.replay_ring),
            pending: BatchBuilder::default(),
            samples_sent: 0,
            batches_sent: 0,
            obs_samples_sent: 0,
            shutdown: false,
            wait: None,
            lost: false,
            probes_answered: 0,
            failovers: 0,
            batches_replayed: 0,
        }
    }

    /// The node's reported clock (see [`daemon_now`]).
    pub fn now(&self) -> u64 {
        daemon_now(self.cfg.skew_ns)
    }

    /// Waits for the parent to dial in (sending before a connection
    /// exists would just error). False when the connect timeout expired
    /// or `stop` was raised first.
    pub fn await_parent(&self, stop: &AtomicBool) -> bool {
        let deadline = Instant::now() + self.cfg.connect_timeout;
        while self.server.connections() == 0 {
            if Instant::now() >= deadline || stop.load(Ordering::Acquire) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Whether the session should wind down: the process's stop flag (its
    /// SIGTERM-equivalent) is raised, or the parent sent a wire-level
    /// [`DaemonMsg::Shutdown`].
    pub fn stopping(&self, stop: &AtomicBool) -> bool {
        self.shutdown || stop.load(Ordering::Acquire)
    }

    /// Whether a failover wait is in flight: the parent link died and no
    /// seed has adopted the node yet.
    pub fn orphaned(&self) -> bool {
        self.wait.is_some()
    }

    /// Whether the parent is gone for good: its link died with no failover
    /// budget, or the budget was spent before a seed arrived.
    pub fn lost(&self) -> bool {
        self.lost
    }

    /// Whether a phase loop ends, its own work being `done`: always once
    /// the parent is lost; otherwise when `done`, but not while a failover
    /// wait is in flight, unless the node is stopping.
    pub fn phase_over(&self, done: bool, stop: &AtomicBool) -> bool {
        self.lost() || (done && (!self.orphaned() || self.stopping(stop)))
    }

    /// Drains the parent link, then steps the failover wait. Answers clock
    /// probes from the node's reported clock, remembers a Shutdown, and
    /// applies a watermark seed that names this node (replays the ring
    /// past it, counts the handover and ends the wait). Beacons are
    /// returned for the caller to act on; everything else inbound is
    /// parent→node control this node does not consume, and is dropped.
    pub fn poll(&mut self) -> Polled {
        let mut polled = Polled::default();
        while let Ok(Some(frame)) = self.server.try_recv() {
            if frame.kind == FrameKind::Topology {
                let Ok(msg) = TopologyMsg::from_frame(&frame) else {
                    continue;
                };
                if is_beacon(&msg) {
                    polled.beacons.push(msg);
                } else if let Some(tc) = msg.children.iter().find(|c| c.addr == self.addr) {
                    self.batches_replayed += self.uplink.replay(self.server, tc.watermark);
                    self.failovers += 1;
                    self.wait = None;
                    polled.seeded = true;
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
                        self.probes_answered += 1;
                    }
                }
                Ok(DaemonMsg::Shutdown) => self.shutdown = true,
                _ => {}
            }
        }
        self.step_wait();
        polled
    }

    /// One step of the failover wait. A dead parent link starts it — or,
    /// with no failover budget, loses the parent at once. In flight, it
    /// beacons the next standby once that is due and loses the parent once
    /// the budget is spent. The standbys are beaconed one at a time,
    /// spaced across the second half of the budget — two standbys adopting
    /// the same orphan would each fold its stream upward and double count
    /// the subtree.
    fn step_wait(&mut self) {
        let now = Instant::now();
        let budget = self.cfg.failover_timeout;
        match &mut self.wait {
            None if self.lost || self.server.is_alive() => {}
            None if budget.is_zero() => self.lost = true,
            None => {
                self.wait = Some(FailoverWait {
                    deadline: now + budget,
                    next_beacon: now + budget / 2,
                    standby: 0,
                });
            }
            Some(wait) if now >= wait.deadline => {
                self.wait = None;
                self.lost = true;
            }
            Some(wait) if now >= wait.next_beacon && wait.standby < self.cfg.parents.len() => {
                let tcfg = self.cfg.dial_transport(TransportConfig::default());
                let beacon = self.uplink.beacon_msg(&self.addr);
                send_beacon(self.cfg.parents[wait.standby], &beacon, tcfg);
                wait.standby += 1;
                wait.next_beacon += budget / (2 * self.cfg.parents.len() as u32);
            }
            Some(_) => {}
        }
    }

    /// When a self-observation period has elapsed, appends this node's
    /// telemetry rows — its registry's, then `extra`'s — to the pending
    /// batch, stamped now under its obs focus; returns how many. The first
    /// call starts the sampler, so its null-span calibration runs once the
    /// node streams, not while a fleet of processes is still starting up.
    /// An orphaned node takes no snapshot.
    pub fn sample_self(&mut self, extra: impl FnOnce() -> Vec<(String, f64)>) -> u32 {
        let Some(period) = self.cfg.obs_period.filter(|_| !self.orphaned()) else {
            return 0;
        };
        let sampler = self
            .obs
            .get_or_insert_with(|| SelfSampler::new(period, obs_focus(self.role, &self.addr)));
        let Some(mut rows) = sampler.due_rows() else {
            return 0;
        };
        rows.extend(extra());
        let wall = daemon_now(self.cfg.skew_ns);
        let n = rows.len() as u32;
        for (metric, value) in rows {
            self.pending
                .push(metric, sampler.focus().to_string(), wall, value);
        }
        self.obs_samples_sent += u64::from(n);
        n
    }

    /// Sends every pending row upward as one batch carrying `sources`:
    /// the uplink stamps and rings it, so a handover can replay it. The
    /// rows count as sent whether or not this send landed — a failed send
    /// is either replayed or becomes visible loss at the parent. Nothing
    /// pending sends nothing, and an orphaned node keeps its rows pending
    /// for the parent that adopts it.
    pub fn flush(&mut self, sources: Vec<SourceMark>) {
        if self.pending.is_empty() || self.orphaned() {
            return;
        }
        let mut batch = self.pending.take();
        batch.sources = sources;
        self.samples_sent += batch.len() as u64;
        if self.uplink.send(self.server, batch) {
            self.batches_sent += 1;
        }
    }

    /// Sends the final [`DaemonMsg::Goodbye`] announcing the rows flushed
    /// upward, so the parent can close the conservation law
    /// (`announced == received + lost`); call it after the last flush.
    /// Returns whether it was accepted.
    pub fn goodbye(&self) -> bool {
        let samples_sent = u32::try_from(self.samples_sent).unwrap_or(u32::MAX);
        send_wire(
            self.server as &dyn Transport,
            &DaemonMsg::Goodbye { samples_sent },
        )
        .is_ok()
    }

    /// Ends the session: writes the span dump if one was requested.
    pub fn close(&self) {
        if let Some(path) = &self.cfg.obs_trace {
            let dump = pdmap_obs::span_dump(
                &pdmap_obs::snapshot(),
                SelfSampler::origin_delta_ns(self.cfg.skew_ns),
            );
            let _ = std::fs::write(path, dump);
        }
    }
}

/// A node serving on a background thread: the in-process stand-in for
/// the `pdmapd` binary that tests, examples and benches run.
pub struct Running<R> {
    /// The bound listen address.
    pub addr: SocketAddr,
    server: Arc<TcpServer>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<R>,
}

/// Renders a serve-thread panic payload as a diagnostic string, so a
/// crashed node thread yields an `Err` the caller can report instead of
/// a second panic that aborts the caller too.
fn panic_diagnostic(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        format!("serve thread panicked: {s}")
    } else if let Some(s) = e.downcast_ref::<String>() {
        format!("serve thread panicked: {s}")
    } else {
        "serve thread panicked".into()
    }
}

impl<R: Send + 'static> Running<R> {
    /// Runs `serve` over `server` on a background thread named `name`.
    pub(crate) fn start(
        server: Arc<TcpServer>,
        name: &str,
        serve: impl FnOnce(Arc<TcpServer>, &AtomicBool) -> R + Send + 'static,
    ) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let (srv, flag) = (server.clone(), stop.clone());
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || serve(srv, &flag))?;
        Ok(Running {
            addr: server.local_addr(),
            server,
            stop,
            handle,
        })
    }
}

impl<R> Running<R> {
    /// Waits for the node to finish. `Err` carries the panic message if
    /// the serve thread crashed — the caller keeps control either way.
    pub fn join(self) -> Result<R, String> {
        self.handle.join().map_err(panic_diagnostic)
    }

    /// SIGTERM-equivalent: asks the node to wind down — a relay drains
    /// its subtree first — and send its final flush ending in a
    /// [`DaemonMsg::Goodbye`], then exit. Returns immediately;
    /// [`Running::join`] collects the report.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// SIGKILL-equivalent: tears the upward transport down mid-session —
    /// no drain, no Goodbye, exactly what a crashed node looks like to
    /// its parent (a relay's whole subtree goes dark at once) — and reaps
    /// the serve thread.
    pub fn kill(self) -> Result<R, String> {
        self.server.close();
        self.stop.store(true, Ordering::Release);
        self.handle.join().map_err(panic_diagnostic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmap_transport::InProcEnd;

    /// `n` one-key rows tagged with `tag`, as the columns a sender builds.
    fn batch(n: usize, tag: f64) -> BatchColumns {
        let mut b = BatchBuilder::default();
        for i in 0..n {
            b.push("m".into(), "f".into(), 1_000 + i as u64, tag);
        }
        b.take()
    }

    fn recv_all(end: &InProcEnd) -> Vec<BatchColumns> {
        let mut got = Vec::new();
        while let Ok(Some(f)) = end.try_recv() {
            got.push(BatchColumns::from_frame(&f).unwrap());
        }
        got
    }

    #[test]
    fn uplink_stamps_monotonic_seq_and_rings_failed_sends() {
        let (a, b) = InProcEnd::pair(&TransportConfig::default());
        let mut up = Uplink::new(8);
        assert!(up.send(&*a, batch(3, 1.0)));
        assert!(up.send(&*a, batch(2, 2.0)));
        let got = recv_all(&b);
        assert_eq!((got[0].epoch, got[0].seq), (0, 1));
        assert_eq!(got[0].value, vec![1.0; 3]);
        assert_eq!(up.delivered_seq, 2);
        assert_eq!(up.delivered_samples, 5);
        // A dead link: the send fails but the batch stays in the ring.
        a.close();
        assert!(!up.send(&*a, batch(4, 3.0)));
        assert_eq!(up.seq, 3);
        assert_eq!(up.delivered_seq, 2, "failed send never advances delivery");
        assert_eq!(up.ring.len(), 3);
    }

    #[test]
    fn replay_resends_exactly_the_suffix_past_the_watermark() {
        let (a, b) = InProcEnd::pair(&TransportConfig::default());
        let mut up = Uplink::new(8);
        for i in 0..5 {
            up.send(&*a, batch(2, i as f64));
        }
        let sent = recv_all(&b);
        // The new parent has folded through seq 3: replay 4 and 5 only,
        // re-stamped with the bumped epoch and otherwise unchanged.
        let replayed = up.replay(&*a, 3);
        assert_eq!(replayed, 2);
        assert_eq!(up.epoch, 1, "handover bumps the epoch");
        let mut got = recv_all(&b);
        assert_eq!(
            got.iter().map(|x| (x.epoch, x.seq)).collect::<Vec<_>>(),
            vec![(1, 4), (1, 5)]
        );
        for (again, first) in got.iter_mut().zip(&sent[3..]) {
            again.epoch = first.epoch;
            assert_eq!(
                again, first,
                "a replay re-stamps the epoch and nothing else"
            );
        }
        // A second handover re-stamps the same ring entries again.
        assert_eq!(up.replay(&*a, 4), 1);
        let got = recv_all(&b);
        assert_eq!((got[0].epoch, got[0].seq), (2, 5));
    }

    #[test]
    fn ring_is_bounded() {
        let (a, _b) = InProcEnd::pair(&TransportConfig::default());
        let mut up = Uplink::new(4);
        for i in 0..20 {
            up.send(&*a, batch(1, i as f64));
        }
        assert_eq!(up.ring.len(), 4);
        assert_eq!(up.ring.front().unwrap().seq, 17);
        assert_eq!(up.ring.front().unwrap().value, vec![16.0]);
    }

    /// Waits for `done` with a 10 s deadline, naming `what` on a timeout.
    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A parent dialed into `server`, once the server counts its link.
    fn dial_parent(server: &TcpServer) -> Arc<TcpClient> {
        let parent = TcpClient::connect(server.local_addr(), TransportConfig::default());
        wait_for("the parent's link", || server.connections() == 1);
        parent
    }

    /// Closes `parent` and waits until `server` counts no link.
    fn lose_parent(server: &TcpServer, parent: &TcpClient) {
        parent.close();
        wait_for("the link's death", || server.connections() == 0);
    }

    /// Receives on `t` until a frame of `kind` arrives; panics after 10 s.
    fn recv_kind(t: &dyn Transport, kind: FrameKind) -> pdmap_transport::Frame {
        let mut got = None;
        wait_for("a frame", || {
            while let Ok(Some(f)) = t.try_recv() {
                if f.kind == kind {
                    got = Some(f);
                    return true;
                }
            }
            false
        });
        got.expect("frame")
    }

    #[test]
    fn without_a_budget_a_dead_link_loses_the_parent_at_the_next_poll() {
        let server = TcpServer::bind("127.0.0.1:0").expect("bind");
        let cfg = UpstreamConfig::default();
        let mut up = Upstream::new(&server, &cfg, "daemon");
        let parent = dial_parent(&server);
        up.poll();
        assert!(!up.orphaned() && !up.lost());
        lose_parent(&server, &parent);
        up.poll();
        assert!(up.lost(), "no budget: the parent is lost at once");
        assert!(!up.orphaned());
        assert!(up.phase_over(false, &AtomicBool::new(false)));
    }

    #[test]
    fn an_orphan_keeps_its_rows_until_a_seed_replays_past_the_watermark() {
        let server = TcpServer::bind("127.0.0.1:0").expect("bind");
        let cfg = UpstreamConfig {
            failover_timeout: Duration::from_secs(60),
            ..UpstreamConfig::default()
        };
        let mut up = Upstream::new(&server, &cfg, "daemon");
        let row = |up: &mut Upstream<'_>, tag: f64| {
            up.pending.push("m".into(), "f".into(), 1_000, tag);
            up.flush(Vec::new());
        };
        let first = dial_parent(&server);
        row(&mut up, 1.0);
        row(&mut up, 2.0);
        assert_eq!(up.uplink.delivered_seq, 2);
        lose_parent(&server, &first);
        up.poll();
        assert!(up.orphaned() && !up.lost());
        row(&mut up, 3.0);
        assert_eq!(up.pending.len(), 1, "an orphan keeps its rows pending");
        assert_eq!(up.uplink.seq, 2, "and stamps no sequence");
        assert_eq!(up.samples_sent, 2);
        let stop = AtomicBool::new(false);
        assert!(!up.phase_over(true, &stop), "no phase ends while orphaned");
        stop.store(true, Ordering::Release);
        assert!(up.phase_over(true, &stop), "a stop ends the phase");

        // A new parent has folded through seq 1 and seeds this node.
        let second = dial_parent(&server);
        let seed = TopologyMsg {
            epoch: 1,
            origin: "tool".into(),
            children: vec![TopoChild {
                addr: up.addr.clone(),
                watermark: 1,
                received: 1,
            }],
        };
        send_wire(&*second as &dyn Transport, &seed).expect("send seed");
        wait_for("the seed", || {
            up.poll();
            !up.orphaned()
        });
        assert_eq!((up.failovers, up.batches_replayed), (1, 1));
        let replayed =
            BatchColumns::from_frame(&recv_kind(&*second, FrameKind::SampleBatch)).unwrap();
        assert_eq!((replayed.epoch, replayed.seq), (1, 2), "seq 2 replayed");
        assert_eq!(replayed.value, vec![2.0]);
        // The kept row leaves on the next flush, to the new parent.
        up.flush(Vec::new());
        assert_eq!((up.uplink.seq, up.samples_sent), (3, 3));
        let kept = BatchColumns::from_frame(&recv_kind(&*second, FrameKind::SampleBatch)).unwrap();
        assert_eq!(kept.seq, 3);
        assert_eq!(kept.value, vec![3.0]);
    }

    #[test]
    fn a_spent_budget_beacons_the_standby_and_loses_the_parent() {
        let server = TcpServer::bind("127.0.0.1:0").expect("bind");
        let standby = TcpServer::bind("127.0.0.1:0").expect("bind standby");
        let budget = Duration::from_millis(200);
        let cfg = UpstreamConfig {
            failover_timeout: budget,
            parents: vec![standby.local_addr()],
            ..UpstreamConfig::default()
        };
        let mut up = Upstream::new(&server, &cfg, "daemon");
        let parent = dial_parent(&server);
        lose_parent(&server, &parent);
        let t0 = Instant::now();
        up.poll();
        assert!(up.orphaned());
        wait_for("the spent budget", || {
            up.poll();
            up.lost()
        });
        assert!(t0.elapsed() >= budget, "the wait lasted its budget");
        assert!(!up.orphaned(), "a lost parent ends the wait");
        // Half-way through, the wait beaconed its one standby.
        let beacon = TopologyMsg::from_frame(&recv_kind(&*standby, FrameKind::Topology)).unwrap();
        assert!(is_beacon(&beacon));
        assert_eq!(beacon.origin, up.addr);
    }

    #[test]
    fn beacon_shape_is_a_self_entry() {
        let up = Uplink::new(4);
        let msg = up.beacon_msg("127.0.0.1:7001");
        assert!(is_beacon(&msg));
        let announce = TopologyMsg {
            epoch: 0,
            origin: "127.0.0.1:8000".into(),
            children: vec![TopoChild {
                addr: "127.0.0.1:7001".into(),
                watermark: 0,
                received: 0,
            }],
        };
        assert!(!is_beacon(&announce));
    }
}
