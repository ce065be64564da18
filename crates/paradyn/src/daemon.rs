//! The daemon wire protocol.
//!
//! §5: "The Paradyn dynamic instrumentation library sends dynamic mapping
//! information to the Paradyn daemon process using the same communication
//! channel used for performance data. The dynamic instrumentation library,
//! linked into every application program that is measured by Paradyn,
//! contains interface procedures that allow the application to describe
//! mappings while it executes. The dynamic instrumentation library sends
//! the mapping information to the Paradyn daemons, and the daemons forward
//! the mapping information to the Data Manager."
//!
//! In the original system this crossed process boundaries; here the channel
//! is a `pdmap-transport` link, so the same endpoint and the same tool-side
//! drain ([`crate::daemonset::DaemonSet`], one link or many) run over an
//! in-process bounded queue or a real TCP socket with identical observable
//! behaviour. Messages ride [`FrameKind::Daemon`] frames as
//! length-prefixed binary payloads ([`WirePayload`]); the codec rejects
//! malformed input instead of guessing.
//!
//! A parent — the tool or a `pdmapd` relay — reads each child link through
//! one [`ChildLink`] and keeps its books in one [`LinkLedger`]: clock
//! offset, conservation counts across lives, replay watermark, source
//! marks, subtree report, topology and the adoption seed. The probe
//! exchange and its pacing, the decode and fold of every frame, the frames
//! held while a clock sync is in flight, and the conservation, dedup and
//! adoption rules are one piece of code at every level of the tree.

use crate::daemonset::Coverage;
use cmrts_sim::machine::{ArrayAllocInfo, MappingSink};
use cmrts_sim::{ArrayId, Distribution};
use pdmap_transport::{
    send_wire, BatchColumns, CodecError, Frame, FrameKind, PayloadReader, PifBlob, TopoChild,
    TopologyMsg, Transport, TransportError, TransportStats, WirePayload,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Span sites for the daemon channel, interned once (see `pdmap-obs`).
pub(crate) struct DaemonObs {
    send: pdmap_obs::SpanSite,
    /// One drain pass of a tool-side link that handled frames.
    pub(crate) deliver: pdmap_obs::SpanSite,
}

pub(crate) fn daemon_obs() -> &'static DaemonObs {
    static OBS: OnceLock<DaemonObs> = OnceLock::new();
    OBS.get_or_init(|| DaemonObs {
        send: pdmap_obs::span_site("daemon", "send"),
        deliver: pdmap_obs::span_site("daemon", "deliver"),
    })
}

/// A message on the daemon channel.
#[derive(Clone, Debug, PartialEq)]
pub enum DaemonMsg {
    /// An array was allocated and distributed (dynamic mapping info).
    ArrayAllocated {
        /// Run-time array id.
        id: u32,
        /// Source-level name.
        name: String,
        /// Extents.
        extents: Vec<usize>,
        /// Distribution.
        dist: Distribution,
        /// `(node, rows, elems)` subgrids.
        subgrids: Vec<(usize, usize, usize)>,
    },
    /// An array was freed.
    ArrayFreed {
        /// Run-time array id.
        id: u32,
    },
    /// A metric sample (performance data shares the channel).
    Sample {
        /// Metric display name.
        metric: String,
        /// Focus, rendered.
        focus: String,
        /// Wall tick.
        wall: u64,
        /// Sampled value.
        value: f64,
    },
    /// Clock-offset probe (tool → daemon): the tool stamps its own clock
    /// and a token; the daemon must echo both back immediately. Used by
    /// multi-daemon sessions to align per-daemon `wall` stamps onto the
    /// tool clock (bounded by the probe's round trip).
    ClockProbe {
        /// Correlates a reply with its probe.
        token: u64,
        /// Tool clock (`pdmap_obs::now_ns`) at probe send.
        t_tool_ns: u64,
    },
    /// Clock-offset reply (daemon → tool): the echoed probe plus the
    /// daemon's clock at the moment it handled the probe.
    ClockReply {
        /// Token copied from the probe.
        token: u64,
        /// Tool clock copied from the probe.
        t_tool_ns: u64,
        /// Daemon clock when the probe was handled.
        t_daemon_ns: u64,
    },
    /// Graceful-shutdown request (tool → daemon): the SIGTERM-equivalent on
    /// a wire with no process signals. The daemon should stop sampling,
    /// drain, and answer with a [`DaemonMsg::Goodbye`] before exiting.
    Shutdown,
    /// Final flush frame (daemon → tool): announces how many samples the
    /// daemon sent over its lifetime, so the tool can compute the exact
    /// sample-sequence gap (`announced - received`) instead of guessing.
    Goodbye {
        /// Samples the daemon sent on this session (its side of the
        /// conservation law).
        samples_sent: u32,
    },
    /// Aggregated coverage report (relay → parent): how much of the
    /// subtree below a relay is alive and how many samples it lost. A leaf
    /// daemon never sends this; its parent derives `1/1` coverage from the
    /// link itself. Relays resend it whenever the subtree changes, so the
    /// parent composes fleet coverage from the latest report per child.
    SubtreeCoverage {
        /// Leaf daemons below this peer that are currently reporting.
        nodes_reporting: u32,
        /// Leaf daemons the subtree was configured with.
        nodes_total: u32,
        /// Samples known lost below this peer (bounded estimates included).
        samples_lost: u64,
    },
}

/// A decode failure on the daemon channel, classified so error *rates*
/// per failure mode are observable, not just totals. Every construction
/// bumps the `daemon.error.<kind>` counter in `pdmap-obs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DaemonError {
    /// A binary payload codec failure (wrong frame kind, unknown tag,
    /// truncation, trailing garbage).
    Codec(String),
    /// The transport itself failed while receiving (link closed, I/O
    /// error) — distinct from a bad frame, since the *link* is at fault.
    Recv(String),
}

impl DaemonError {
    /// Stable lowercase variant name, used to key the per-variant error
    /// counter (`daemon.error.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            DaemonError::Codec(_) => "codec",
            DaemonError::Recv(_) => "recv",
        }
    }

    /// The human-readable detail carried by the variant.
    pub fn detail(&self) -> &str {
        match self {
            DaemonError::Codec(s) | DaemonError::Recv(s) => s,
        }
    }
}

/// Bumps the per-variant error counter and passes the error through —
/// every `DaemonError` construction site routes here.
pub(crate) fn track_error(e: DaemonError) -> DaemonError {
    pdmap_obs::counter(&format!("daemon.error.{}", e.kind())).incr();
    e
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "daemon protocol error ({}): {}",
            self.kind(),
            self.detail()
        )
    }
}

impl std::error::Error for DaemonError {}

/// The payload tag of a [`DaemonMsg::ClockReply`]: a child link spots a
/// reply by it without decoding frames it will hold.
const CLOCK_REPLY_TAG: u8 = 4;

impl WirePayload for DaemonMsg {
    const KIND: FrameKind = FrameKind::Daemon;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        use pdmap_transport::wire::put;
        match self {
            DaemonMsg::ArrayAllocated {
                id,
                name,
                extents,
                dist,
                subgrids,
            } => {
                put::u8(out, 0);
                put::u32(out, *id);
                put::str(out, name);
                put::u32(out, extents.len() as u32);
                for &e in extents {
                    put::u64(out, e as u64);
                }
                put::str(out, dist.name());
                put::u32(out, subgrids.len() as u32);
                for &(n, r, e) in subgrids {
                    put::u64(out, n as u64);
                    put::u64(out, r as u64);
                    put::u64(out, e as u64);
                }
            }
            DaemonMsg::ArrayFreed { id } => {
                put::u8(out, 1);
                put::u32(out, *id);
            }
            DaemonMsg::Sample {
                metric,
                focus,
                wall,
                value,
            } => {
                put::u8(out, 2);
                put::str(out, metric);
                put::str(out, focus);
                put::u64(out, *wall);
                put::f64(out, *value);
            }
            DaemonMsg::ClockProbe { token, t_tool_ns } => {
                put::u8(out, 3);
                put::u64(out, *token);
                put::u64(out, *t_tool_ns);
            }
            DaemonMsg::ClockReply {
                token,
                t_tool_ns,
                t_daemon_ns,
            } => {
                put::u8(out, CLOCK_REPLY_TAG);
                put::u64(out, *token);
                put::u64(out, *t_tool_ns);
                put::u64(out, *t_daemon_ns);
            }
            DaemonMsg::Shutdown => put::u8(out, 5),
            DaemonMsg::Goodbye { samples_sent } => {
                put::u8(out, 6);
                put::u32(out, *samples_sent);
            }
            DaemonMsg::SubtreeCoverage {
                nodes_reporting,
                nodes_total,
                samples_lost,
            } => {
                put::u8(out, 7);
                put::u32(out, *nodes_reporting);
                put::u32(out, *nodes_total);
                put::u64(out, *samples_lost);
            }
        }
    }

    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => {
                let id = r.u32()?;
                let name = r.str()?;
                let extents = (0..r.u32()?)
                    .map(|_| r.u64().map(|v| v as usize))
                    .collect::<Result<Vec<_>, _>>()?;
                let dist_s = r.str()?;
                let dist = Distribution::parse(&dist_s)
                    .ok_or_else(|| CodecError::new(format!("bad distribution '{dist_s}'")))?;
                let subgrids = (0..r.u32()?)
                    .map(|_| Ok((r.u64()? as usize, r.u64()? as usize, r.u64()? as usize)))
                    .collect::<Result<Vec<_>, CodecError>>()?;
                Ok(DaemonMsg::ArrayAllocated {
                    id,
                    name,
                    extents,
                    dist,
                    subgrids,
                })
            }
            1 => Ok(DaemonMsg::ArrayFreed { id: r.u32()? }),
            2 => Ok(DaemonMsg::Sample {
                metric: r.str()?,
                focus: r.str()?,
                wall: r.u64()?,
                value: r.f64()?,
            }),
            3 => Ok(DaemonMsg::ClockProbe {
                token: r.u64()?,
                t_tool_ns: r.u64()?,
            }),
            CLOCK_REPLY_TAG => Ok(DaemonMsg::ClockReply {
                token: r.u64()?,
                t_tool_ns: r.u64()?,
                t_daemon_ns: r.u64()?,
            }),
            5 => Ok(DaemonMsg::Shutdown),
            6 => Ok(DaemonMsg::Goodbye {
                samples_sent: r.u32()?,
            }),
            7 => Ok(DaemonMsg::SubtreeCoverage {
                nodes_reporting: r.u32()?,
                nodes_total: r.u32()?,
                samples_lost: r.u64()?,
            }),
            tag => Err(CodecError::new(format!("unknown DaemonMsg tag {tag}"))),
        }
    }
}

/// The application side: encodes mapping information onto the wire. Install
/// as the machine's [`MappingSink`].
pub struct InstrLibEndpoint {
    tx: Arc<dyn Transport>,
}

impl MappingSink for InstrLibEndpoint {
    fn array_allocated(&self, info: &ArrayAllocInfo) {
        let _span = pdmap_obs::span(&daemon_obs().send);
        let msg = DaemonMsg::ArrayAllocated {
            id: info.array.0,
            name: info.name.clone(),
            extents: info.extents.clone(),
            dist: info.dist,
            subgrids: info.subgrids.clone(),
        };
        let _ = send_wire(&*self.tx, &msg);
    }

    fn array_freed(&self, array: ArrayId) {
        let _span = pdmap_obs::span(&daemon_obs().send);
        let _ = send_wire(&*self.tx, &DaemonMsg::ArrayFreed { id: array.0 });
    }
}

impl InstrLibEndpoint {
    /// Wraps an already-connected transport — how `pdmapd` builds its
    /// endpoint over the TCP server it listens on, rather than over one
    /// half of an in-process [`Link`](pdmap_transport::Link).
    pub fn over_transport(tx: Arc<dyn Transport>) -> Self {
        Self { tx }
    }

    /// Sends a metric sample over the same channel (performance data and
    /// mapping information share the wire, as in the paper) as a loose
    /// [`DaemonMsg::Sample`]: it carries no batch sequence, so no handover
    /// replays it. `pdmapd` sends its samples in sequenced batches instead.
    pub fn send_sample(&self, metric: &str, focus: &str, wall: u64, value: f64) {
        let _span = pdmap_obs::span(&daemon_obs().send);
        let _ = send_wire(
            &*self.tx,
            &DaemonMsg::Sample {
                metric: metric.to_string(),
                focus: focus.to_string(),
                wall,
                value,
            },
        );
    }

    /// This end's transport self-metrics.
    pub fn transport_stats(&self) -> TransportStats {
        self.tx.stats()
    }
}

/// A per-link clock-offset estimate: the child's clock minus the parent's,
/// from the bounded-round-trip probe exchange (see the `daemonset` module
/// docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClockEstimate {
    /// Child clock minus parent clock, in ns. Subtract from a child wall
    /// stamp to land on the parent clock.
    pub offset_ns: i64,
    /// Round-trip time of the winning (minimum-RTT) probe; the alignment
    /// error is bounded by half of this.
    pub rtt_ns: u64,
    /// Probe rounds that completed.
    pub rounds: u32,
}

impl ClockEstimate {
    /// Folds one completed probe round — sent at `t0` and answered at `t1`
    /// on the parent's clock, stamped `t_child` by the child — keeping the
    /// minimum-RTT round's offset `t_child − (t0 + rtt/2)`.
    pub fn observe(&mut self, t0: u64, t_child: u64, t1: u64) {
        let rtt = t1.saturating_sub(t0);
        if self.rounds == 0 || rtt < self.rtt_ns {
            self.offset_ns = t_child as i64 - (t0 + rtt / 2) as i64;
            self.rtt_ns = rtt;
        }
        self.rounds += 1;
    }
}

/// True when `msg` is an orphan's self-beacon (one child entry naming the
/// origin itself) rather than a subtree announcement or watermark seed.
pub fn is_beacon(msg: &TopologyMsg) -> bool {
    msg.children.len() == 1 && msg.children[0].addr == msg.origin
}

/// Everything a parent knows about one child link — the books the tool
/// ([`crate::daemonset::DaemonConn`]) and a `pdmapd` relay keep for each
/// child with this one type:
///
/// * the child's [`ClockEstimate`];
/// * the sample account of each life of the link,
///   `announced == received + prior + lost`: samples received here,
///   samples the child delivered to a previous parent before it was
///   adopted, and the send count its Goodbye announced;
/// * the batch-sequence watermark that suppresses handover replays, and
///   the per-grandchild source marks riding in the child's batches;
/// * a relay child's subtree report and topology announcement — and from
///   those, its [`Coverage`] and its adoption plan;
/// * the watermark seed still owed to an adopted child.
///
/// The link's [`ChildLink`] keeps the transport side (the link, the probe
/// in flight, the frames a sync holds); the parent keeps its own verdict on
/// whether the link is reporting.
#[derive(Clone, Debug, Default)]
pub struct LinkLedger {
    clock: ClockEstimate,
    /// Samples received over every life of the link.
    received: u64,
    /// Samples received in the current life (since connect or readmission).
    life_received: u64,
    /// Samples the child delivered to a previous parent before this one
    /// adopted it — credited, not lost, against its announced count.
    prior: u64,
    /// Send count the current life's Goodbye announced, if it arrived.
    announced: Option<u64>,
    /// Known losses of the ended lives.
    lost_prior: u64,
    /// Highest batch sequence folded in — the replay-dedup watermark.
    last_seq: u64,
    /// Replayed batches the watermark suppressed.
    replays_suppressed: u64,
    /// Cumulative per-grandchild delivery marks from the child's batches:
    /// `origin -> (through_seq, samples)`.
    source_marks: HashMap<String, (u64, u64)>,
    /// The latest subtree report — present iff the child is a relay.
    subtree: Option<Coverage>,
    /// The child's latest topology announcement: the adoption map.
    topo: Option<TopologyMsg>,
    /// The child's subtree was re-parented; its nodes report elsewhere.
    adopted_away: bool,
    /// `(through_seq, samples)` seed still owed to an adopted child.
    seed: Option<(u64, u64)>,
}

impl LinkLedger {
    /// The books of a child adopted from a dead parent: its replay
    /// watermark and prior delivery stand from the start, and it is owed
    /// the seed that tells it where to replay from.
    pub fn adopted(watermark: u64, prior: u64) -> Self {
        Self {
            last_seq: watermark,
            prior,
            seed: Some((watermark, prior)),
            ..Self::default()
        }
    }

    /// The clock estimate from the last completed sync.
    pub fn clock(&self) -> ClockEstimate {
        self.clock
    }

    /// Samples received over every life of the link.
    pub fn samples_received(&self) -> u64 {
        self.received
    }

    /// The send count announced by this life's Goodbye, if it arrived.
    pub fn announced_sent(&self) -> Option<u64> {
        self.announced
    }

    /// Replayed batches the sequence watermark suppressed — each one a
    /// duplicate that a handover replayed and dedup caught.
    pub fn replays_suppressed(&self) -> u64 {
        self.replays_suppressed
    }

    /// The child's latest topology announcement, if it is a relay.
    pub fn topology(&self) -> Option<&TopologyMsg> {
        self.topo.as_ref()
    }

    /// The subtree coverage the child last reported — `Some` when it is a
    /// relay, `None` for a leaf daemon.
    pub fn subtree_coverage(&self) -> Option<Coverage> {
        self.subtree
    }

    /// True once the child's subtree was adopted by this parent directly.
    pub fn is_subtree_adopted(&self) -> bool {
        self.adopted_away
    }

    /// The current life's exact loss once its Goodbye arrived: the
    /// announced count minus everything delivered (here and before).
    fn life_lost(&self) -> Option<u64> {
        self.announced
            .map(|a| a.saturating_sub(self.life_received + self.prior))
    }

    /// This link's known sample loss: the ended lives' plus the current
    /// one's once its Goodbye arrives. A lower bound — a child killed
    /// before announcing contributes nothing here, only to the node
    /// deficit of [`LinkLedger::coverage`].
    pub fn samples_lost(&self) -> u64 {
        self.lost_prior + self.life_lost().unwrap_or(0)
    }

    /// Ends the current life before the link is re-dialed: its loss joins
    /// the ended lives' and is returned (`None` when it ended
    /// unannounced). A readmitted child is a restarted one with a fresh
    /// sequence space — unless it is an adopted child still owed its
    /// seed, whose watermark must stand so its ring replay dedups here.
    pub(crate) fn new_life(&mut self) -> Option<u64> {
        let gap = self.life_lost();
        self.lost_prior += gap.unwrap_or(0);
        self.life_received = 0;
        self.announced = None;
        if self.seed.is_none() {
            self.last_seq = 0;
        }
        gap
    }

    fn count(&mut self, n: u64) {
        self.received += n;
        self.life_received += n;
    }

    /// Folds one sample batch into the books; false for a handover replay
    /// at or below the watermark (counted, to be dropped). Seq 0 marks an
    /// unsequenced batch, never deduped. A source mark proves the
    /// grandchild's data through its `through_seq` arrived here — the
    /// exact replay watermark should this child die.
    pub(crate) fn fold_batch(&mut self, batch: &BatchColumns) -> bool {
        if batch.seq != 0 && batch.seq <= self.last_seq {
            self.replays_suppressed += 1;
            return false;
        }
        self.last_seq = self.last_seq.max(batch.seq);
        for m in &batch.sources {
            let e = self.source_marks.entry(m.origin.clone()).or_insert((0, 0));
            if m.through_seq >= e.0 {
                *e = (m.through_seq, m.samples);
            }
        }
        self.count(batch.len() as u64);
        true
    }

    /// Folds the books' part of one daemon-channel message: a loose sample
    /// counts as received, a Goodbye announces the life's send count, a
    /// subtree report replaces the last. The rest is the parent's to route.
    pub(crate) fn fold_msg(&mut self, msg: &DaemonMsg) {
        match *msg {
            DaemonMsg::Sample { .. } => self.count(1),
            DaemonMsg::Goodbye { samples_sent } => self.announced = Some(u64::from(samples_sent)),
            DaemonMsg::SubtreeCoverage {
                nodes_reporting,
                nodes_total,
                samples_lost,
            } => {
                self.subtree = Some(Coverage {
                    nodes_reporting: nodes_reporting as usize,
                    nodes_total: nodes_total as usize,
                    samples_lost,
                });
            }
            _ => {}
        }
    }

    /// Keeps the child's topology announcement. An orphan's self-beacon
    /// carries no subtree and is not one.
    pub(crate) fn fold_topology(&mut self, msg: TopologyMsg) {
        if !is_beacon(&msg) {
            self.topo = Some(msg);
        }
    }

    /// What this link adds to its parent's coverage, given the parent's
    /// own verdict on whether it is `reporting`: a leaf is a `1/1`
    /// subtree and a relay its last-reported one — all of it dark when the
    /// link is not reporting, never silently one node — plus the link's
    /// known loss. A link whose subtree was adopted away adds only its own
    /// known loss: its nodes re-report under their new parents.
    pub fn coverage(&self, reporting: bool) -> Coverage {
        if self.adopted_away {
            return Coverage {
                samples_lost: self.samples_lost(),
                ..Coverage::default()
            };
        }
        let sub = self.subtree.unwrap_or(Coverage::complete(1));
        Coverage {
            nodes_reporting: if reporting { sub.nodes_reporting } else { 0 },
            nodes_total: sub.nodes_total,
            samples_lost: self.samples_lost() + sub.samples_lost,
        }
    }

    /// The delivered-atomic mark of this link: the highest sequence folded
    /// and the child's cumulative samples (received here plus prior) — what
    /// a relay announces upward so its parent can adopt this child.
    pub fn watermark(&self) -> (u64, u64) {
        (self.last_seq, self.received + self.prior)
    }

    /// The adoption plan for a dead relay's children, taken once: every
    /// child of its last announcement, with the exact watermark a source
    /// mark proved delivered here or else the announcement's own. `None`
    /// when there is nothing to adopt: no announcement, adopted already,
    /// or the link said Goodbye — a relay says Goodbye only after its
    /// children finished or were sent Shutdown. The parent decides the
    /// link is dead.
    pub fn orphans(&mut self) -> Option<Vec<TopoChild>> {
        if self.adopted_away || self.announced.is_some() {
            return None;
        }
        let topo = self.topo.take()?;
        self.adopted_away = true;
        let marks = std::mem::take(&mut self.source_marks);
        let plan = topo.children.into_iter().map(|tc| {
            let (watermark, received) = marks
                .get(&tc.addr)
                .copied()
                .unwrap_or((tc.watermark, tc.received));
            TopoChild {
                watermark,
                received,
                ..tc
            }
        });
        Some(plan.collect())
    }

    /// The seed still owed to this adopted child — a [`TopologyMsg`] from
    /// `origin` naming the child at `addr`, the highest sequence folded in
    /// and its prior delivery, so it replays exactly its ring suffix past
    /// the mark. Send it once the child's clock is synced; `None` once
    /// [`LinkLedger::seed_paid`].
    pub(crate) fn seed_msg(&self, epoch: u64, origin: &str, addr: &str) -> Option<TopologyMsg> {
        let (watermark, received) = self.seed?;
        Some(TopologyMsg {
            epoch,
            origin: origin.into(),
            children: vec![TopoChild {
                addr: addr.into(),
                watermark,
                received,
            }],
        })
    }

    /// Records the owed seed as delivered.
    pub(crate) fn seed_paid(&mut self) {
        self.seed = None;
    }
}

/// Tokens correlate clock probes with their replies. One counter serves
/// every child link in the process, so a reply matches only its probe.
static PROBE_TOKENS: AtomicU64 = AtomicU64::new(1);

/// What one frame from a child comes to once [`ChildLink::recv`] has
/// decoded it and folded it into the link's books.
#[derive(Debug)]
pub enum Arrival {
    /// A sample batch past the replay watermark: land its rows.
    Batch(BatchColumns),
    /// A loose [`DaemonMsg::Sample`] to land, or mapping information to
    /// forward: a [`DaemonMsg::ArrayAllocated`] or [`DaemonMsg::ArrayFreed`].
    Msg(DaemonMsg),
    /// Static mapping information to import or forward.
    Pif(PifBlob),
    /// A frame that failed to decode, counted under `daemon.error.codec`.
    Rejected(DaemonError),
    /// Nothing to land: the books or the clock sync took the frame whole
    /// (a suppressed replay, a Goodbye, a subtree report, a topology, a
    /// probe reply), or the sync in flight holds it.
    Absorbed,
}

/// One child link as its parent — the tool or a relay — reads it: the
/// child's transport, address and [`LinkLedger`] (read through `Deref`).
/// [`ChildLink::recv`] decodes a frame, folds it into the books and
/// returns one [`Arrival`] to land or forward.
///
/// **Clock sync.** A sync runs from [`ChildLink::start_sync`] to
/// [`ChildLink::end_sync`]: each reply folds into its minimum-RTT estimate
/// and every other frame is held, so nothing lands on a clock about to be
/// replaced. The held frames are read first once the sync ends, timed with
/// its estimate (or the old one, if no probe was answered). Both parents
/// pace it the same way: each [`ChildLink::pace_sync`] sends the next of
/// the sync's probes once the last was answered or ran out of patience,
/// and says when the sync may end. The parent only decides how often to
/// call it: the tool's `clock_sync` and adoption until every link's sync
/// ends, a readmission once per supervision pass, a relay once per pump.
pub struct ChildLink {
    tx: Arc<dyn Transport>,
    addr: String,
    ledger: LinkLedger,
    /// The sync in flight: the estimate its replies have built so far.
    sync: Option<ClockEstimate>,
    /// Probes the sync in flight has yet to send.
    probes_left: u32,
    /// How long each probe waits for its reply.
    patience: Duration,
    /// The probe in flight: `(token, t0 on the parent's clock)`.
    probe: Option<(u64, u64)>,
    /// Held frames: the first `released` an ended sync let go, then those
    /// the sync in flight holds.
    held: VecDeque<Frame>,
    released: usize,
}

impl Deref for ChildLink {
    type Target = LinkLedger;
    fn deref(&self) -> &LinkLedger {
        &self.ledger
    }
}

impl DerefMut for ChildLink {
    fn deref_mut(&mut self) -> &mut LinkLedger {
        &mut self.ledger
    }
}

impl ChildLink {
    /// A link to the child at `addr` over `tx`, keeping its books in
    /// `ledger`. Until a sync starts, frames land as they arrive.
    pub fn new(addr: impl Into<String>, tx: Arc<dyn Transport>, ledger: LinkLedger) -> Self {
        Self {
            tx,
            addr: addr.into(),
            ledger,
            sync: None,
            probes_left: 0,
            patience: Duration::ZERO,
            probe: None,
            held: VecDeque::new(),
            released: 0,
        }
    }

    /// The child's address (or label): its identity in seeds, topology
    /// announcements and source marks.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The link's transport.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.tx
    }

    /// Closes the transport and reads from `tx` instead, a readmitted
    /// child's fresh link. The books start a new life that keeps the ended
    /// life's loss, returned (`None` when it ended unannounced).
    pub fn redial(&mut self, tx: Arc<dyn Transport>) -> Option<u64> {
        self.tx.close();
        self.tx = tx;
        self.ledger.new_life()
    }

    /// True while a sync is in flight.
    pub fn syncing(&self) -> bool {
        self.sync.is_some()
    }

    /// Starts a clock sync of `rounds` probes (at least one), each waiting
    /// up to `patience` for its reply; [`ChildLink::pace_sync`] sends them.
    /// Until [`ChildLink::end_sync`], the link holds every frame but the
    /// replies.
    pub fn start_sync(&mut self, rounds: u32, patience: Duration) {
        self.sync = Some(ClockEstimate::default());
        self.probes_left = rounds.max(1);
        self.patience = patience;
    }

    /// Paces the sync in flight at `now` on the parent's clock: sends the
    /// next probe, stamped `now`, once the last one was answered or has
    /// waited its patience. True once the sync may end — its probes are
    /// spent, or its link is dead — and false while a probe is out, or
    /// when no sync is in flight.
    pub fn pace_sync(&mut self, now: u64) -> bool {
        if self.sync.is_none() || !self.tx.is_alive() {
            return self.sync.is_some();
        }
        let waited = |(_, t0): (u64, u64)| Duration::from_nanos(now.saturating_sub(t0));
        if self.probe.map(waited).is_some_and(|w| w < self.patience) {
            return false;
        }
        if self.probes_left == 0 {
            return true;
        }
        self.probes_left -= 1;
        let token = PROBE_TOKENS.fetch_add(1, Ordering::Relaxed);
        let probe = DaemonMsg::ClockProbe {
            token,
            t_tool_ns: now,
        };
        self.probe = send_wire(&*self.tx, &probe).is_ok().then_some((token, now));
        false
    }

    /// Ends the sync in flight and releases what it held. When at least
    /// one probe was answered, its estimate becomes the link's clock and an
    /// adopted child is sent its owed seed, from `origin` and stamped with
    /// the topology `epoch`. Returns whether the estimate was installed.
    pub fn end_sync(&mut self, epoch: u64, origin: &str) -> bool {
        self.probe = None;
        self.released = self.held.len();
        match self.sync.take() {
            Some(est) if est.rounds > 0 => self.ledger.clock = est,
            _ => return false,
        }
        if let Some(seed) = self.ledger.seed_msg(epoch, origin, &self.addr) {
            if send_wire(&*self.tx, &seed).is_ok() {
                self.ledger.seed_paid();
            }
        }
        true
    }

    /// Reads the next frame (those the last sync released come first) and
    /// returns what it comes to. A reply to the probe in flight folds into
    /// the sync's estimate, `now` reading its receipt on the parent's
    /// clock; while a sync is in flight, every other frame is held.
    /// `Ok(None)` when nothing is queued.
    pub fn recv(&mut self, now: impl FnOnce() -> u64) -> Result<Option<Arrival>, TransportError> {
        if self.released > 0 {
            self.released -= 1;
            if let Some(frame) = self.held.pop_front() {
                return Ok(Some(self.fold(&frame)));
            }
        }
        let Some(frame) = self.tx.try_recv()? else {
            return Ok(None);
        };
        // Only a reply is decoded before it is known whether the frame is
        // held, so no frame is decoded twice.
        if frame.kind == FrameKind::Daemon && frame.payload.first() == Some(&CLOCK_REPLY_TAG) {
            if let Ok(DaemonMsg::ClockReply {
                token, t_daemon_ns, ..
            }) = DaemonMsg::from_frame(&frame)
            {
                match (self.probe, self.sync.as_mut()) {
                    (Some((want, t0)), Some(est)) if token == want => {
                        est.observe(t0, t_daemon_ns, now());
                        self.probe = None;
                    }
                    _ => {} // stale: its round was abandoned
                }
                return Ok(Some(Arrival::Absorbed));
            }
        }
        if self.sync.is_some() {
            self.held.push_back(frame);
            return Ok(Some(Arrival::Absorbed));
        }
        Ok(Some(self.fold(&frame)))
    }

    /// Decodes one frame and folds it into the books, returning what is
    /// left for the parent.
    fn fold(&mut self, frame: &Frame) -> Arrival {
        let ledger = &mut self.ledger;
        let arrival = match frame.kind {
            // A replay at or below the watermark stops at the books.
            FrameKind::SampleBatch => BatchColumns::from_frame(frame).map(|batch| {
                if ledger.fold_batch(&batch) {
                    Arrival::Batch(batch)
                } else {
                    Arrival::Absorbed
                }
            }),
            FrameKind::Daemon => DaemonMsg::from_frame(frame).map(|msg| {
                ledger.fold_msg(&msg);
                match msg {
                    DaemonMsg::Sample { .. }
                    | DaemonMsg::ArrayAllocated { .. }
                    | DaemonMsg::ArrayFreed { .. } => Arrival::Msg(msg),
                    // Goodbye and SubtreeCoverage are the books' alone; a
                    // probe echoed back or a shutdown request bouncing to
                    // the parent's side carries nothing.
                    _ => Arrival::Absorbed,
                }
            }),
            FrameKind::PifBlob => PifBlob::from_frame(frame).map(Arrival::Pif),
            FrameKind::Topology => TopologyMsg::from_frame(frame).map(|msg| {
                ledger.fold_topology(msg);
                Arrival::Absorbed
            }),
            // Heartbeats, acks and hellos are consumed inside the transport;
            // anything else surfacing here has no daemon-channel meaning.
            _ => Ok(Arrival::Absorbed),
        };
        arrival.unwrap_or_else(|e| Arrival::Rejected(track_error(DaemonError::Codec(e.0))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmap_transport::{BatchBuilder, SourceMark};

    #[test]
    fn alloc_roundtrip() {
        let m = DaemonMsg::ArrayAllocated {
            id: 3,
            name: "TOT".into(),
            extents: vec![64, 64],
            dist: Distribution::Block,
            subgrids: vec![(0, 16, 1024), (1, 16, 1024)],
        };
        assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
    }

    #[test]
    fn sample_roundtrip_with_awkward_names() {
        let m = DaemonMsg::Sample {
            metric: "Point-to-Point Time".into(),
            focus: "CMFarrays/a|b, Machine/node#1".into(),
            wall: 12345,
            value: 0.0625,
        };
        assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
    }

    #[test]
    fn free_roundtrip_and_errors() {
        let m = DaemonMsg::ArrayFreed { id: 9 };
        assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
        let empty = pdmap_transport::Frame::data(FrameKind::Daemon, Vec::new());
        assert!(DaemonMsg::from_frame(&empty).is_err());
        let bad_dist = DaemonMsg::ArrayAllocated {
            id: 1,
            name: "A".into(),
            extents: vec![8],
            dist: Distribution::Block,
            subgrids: Vec::new(),
        };
        let mut frame = bad_dist.to_frame();
        let at = frame.payload.len() - 9; // the 'b' of "block"
        frame.payload[at] = b'x';
        assert!(DaemonMsg::from_frame(&frame).is_err());
    }

    #[test]
    fn binary_codec_rejects_corrupt_payloads() {
        let m = DaemonMsg::ArrayFreed { id: 1 };
        let mut frame = m.to_frame();
        frame.payload[0] = 77; // unknown tag
        assert!(DaemonMsg::from_frame(&frame).is_err());
        let mut frame = m.to_frame();
        frame.payload.push(0); // trailing garbage
        assert!(DaemonMsg::from_frame(&frame).is_err());
        let frame = pdmap_transport::Frame::data(FrameKind::Daemon, vec![0, 1]); // truncated
        assert!(DaemonMsg::from_frame(&frame).is_err());
    }

    #[test]
    fn clock_messages_roundtrip() {
        let probe = DaemonMsg::ClockProbe {
            token: 7,
            t_tool_ns: 123,
        };
        let reply = DaemonMsg::ClockReply {
            token: 7,
            t_tool_ns: 123,
            t_daemon_ns: 456,
        };
        for m in [probe, reply] {
            assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
        }
    }

    #[test]
    fn lifecycle_messages_roundtrip() {
        for m in [
            DaemonMsg::Shutdown,
            DaemonMsg::Goodbye { samples_sent: 42 },
            DaemonMsg::SubtreeCoverage {
                nodes_reporting: 7,
                nodes_total: 8,
                samples_lost: 12_000,
            },
        ] {
            assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
        }
    }

    #[test]
    fn clock_estimate_keeps_the_minimum_rtt_round() {
        let mut c = ClockEstimate::default();
        c.observe(1_000, 5_150, 1_100); // rtt 100: offset 5_150 − 1_050
        c.observe(2_000, 6_005, 2_010); // rtt 10 wins: 6_005 − 2_005
        c.observe(3_000, 0, 3_500); // a slower round changes nothing
        let want = ClockEstimate {
            offset_ns: 4_000,
            rtt_ns: 10,
            rounds: 3,
        };
        assert_eq!(c, want);
    }

    /// `n` one-key rows in a batch with sequence `seq`.
    fn batch(seq: u64, n: usize) -> BatchColumns {
        let mut rows = BatchBuilder::default();
        for i in 0..n {
            rows.push("m".into(), "f".into(), i as u64, 1.0);
        }
        BatchColumns { seq, ..rows.take() }
    }

    /// `l` after receiving `received` samples in an unsequenced batch and
    /// folding `msgs`.
    fn ledger(mut l: LinkLedger, received: usize, msgs: &[DaemonMsg]) -> LinkLedger {
        assert!(l.fold_batch(&batch(0, received)));
        for m in msgs {
            l.fold_msg(m);
        }
        l
    }

    fn goodbye(samples_sent: u32) -> DaemonMsg {
        DaemonMsg::Goodbye { samples_sent }
    }

    fn subtree(nodes_reporting: u32, nodes_total: u32, samples_lost: u64) -> DaemonMsg {
        DaemonMsg::SubtreeCoverage {
            nodes_reporting,
            nodes_total,
            samples_lost,
        }
    }

    fn cov(l: &LinkLedger, reporting: bool) -> (usize, usize, u64) {
        let c = l.coverage(reporting);
        (c.nodes_reporting, c.nodes_total, c.samples_lost)
    }

    /// A relay's announcement of `(addr, watermark, received)` children.
    fn announcement(origin: &str, children: &[(&str, u64, u64)]) -> TopologyMsg {
        TopologyMsg {
            epoch: 0,
            origin: origin.into(),
            children: children
                .iter()
                .map(|&(addr, watermark, received)| TopoChild {
                    addr: addr.into(),
                    watermark,
                    received,
                })
                .collect(),
        }
    }

    #[test]
    fn leaf_link_coverage_is_one_of_one() {
        let l = ledger(LinkLedger::default(), 10, &[goodbye(10)]);
        assert_eq!(cov(&l, true), (1, 1, 0), "goodbye'd leaf reports fully");
        let l = ledger(LinkLedger::default(), 7, &[goodbye(10)]);
        assert_eq!(cov(&l, true), (1, 1, 3), "announced minus received is lost");
    }

    #[test]
    fn dark_relay_loses_its_whole_subtree() {
        let l = ledger(LinkLedger::default(), 5, &[subtree(4, 4, 0)]);
        assert_eq!(
            cov(&l, false),
            (0, 4, 0),
            "a link not reporting darkens its whole subtree, loss unannounced"
        );
        let l = ledger(LinkLedger::default(), 9, &[subtree(3, 4, 2), goodbye(9)]);
        assert_eq!(
            cov(&l, true),
            (3, 4, 2),
            "a goodbye'd relay passes its subtree report through"
        );
    }

    #[test]
    fn adopted_child_accounts_prior_delivery() {
        let l = ledger(LinkLedger::adopted(2, 6), 4, &[goodbye(10)]);
        assert_eq!(
            cov(&l, true),
            (1, 1, 0),
            "announced == received-here + delivered-to-dead-parent: no loss"
        );
        let l = ledger(LinkLedger::adopted(2, 6), 3, &[goodbye(10)]);
        assert_eq!(
            cov(&l, true),
            (1, 1, 1),
            "the handover window stays labeled"
        );
    }

    #[test]
    fn a_new_life_keeps_the_ended_lifes_loss() {
        let mut l = ledger(LinkLedger::default(), 3, &[goodbye(5)]);
        assert_eq!(l.new_life(), Some(2));
        assert_eq!(l.samples_lost(), 2, "the ended life's loss stays");
        let mut l = ledger(l, 1, &[goodbye(1)]);
        assert_eq!(l.samples_lost(), 2, "a clean life adds nothing");
        assert_eq!(l.new_life(), Some(0));
        assert_eq!(l.new_life(), None, "an unannounced life's loss is unknown");
        assert_eq!(l.samples_received(), 4, "received counts every life");

        // The prior delivery is credited when the life ends, too.
        let mut l = ledger(LinkLedger::adopted(2, 5), 3, &[goodbye(8)]);
        assert_eq!(l.samples_lost(), 0);
        assert_eq!(
            l.new_life(),
            Some(0),
            "delivered to the dead relay, not lost"
        );
        assert_eq!(l.samples_lost(), 0);
    }

    #[test]
    fn the_watermark_dedups_replays_until_a_restart() {
        let mut l = LinkLedger::default();
        assert!(l.fold_batch(&batch(1, 2)));
        assert!(!l.fold_batch(&batch(1, 2)), "a replay at the watermark");
        assert!(l.fold_batch(&batch(0, 1)), "unsequenced: never deduped");
        assert_eq!((l.replays_suppressed(), l.samples_received()), (1, 3));
        l.new_life();
        assert!(l.fold_batch(&batch(1, 2)), "a restart begins at seq 1");

        // An adopted child still owed its seed keeps the seeded watermark.
        let mut l = LinkLedger::adopted(4, 9);
        l.new_life();
        assert!(!l.fold_batch(&batch(3, 1)));
        let seed = l.seed_msg(1, "tool", "a").expect("seed owed");
        assert_eq!(seed.children, announcement("", &[("a", 4, 9)]).children);
        l.seed_paid();
        assert!(l.seed_msg(1, "tool", "a").is_none());
    }

    #[test]
    fn a_goodbyed_relay_orphans_nothing() {
        let mut l = LinkLedger::default();
        l.fold_topology(announcement("relay", &[("a", 1, 3), ("b", 1, 3)]));
        let mut marked = batch(1, 2);
        marked.sources = vec![SourceMark {
            origin: "a".into(),
            through_seq: 2,
            samples: 5,
        }];
        assert!(l.fold_batch(&marked));

        let mut finished = l.clone();
        finished.fold_msg(&goodbye(2));
        assert!(finished.orphans().is_none(), "its children were shut down");
        assert!(!finished.is_subtree_adopted());

        let plan = l.orphans().expect("a dead relay's children are adopted");
        assert_eq!(
            plan,
            announcement("", &[("a", 2, 5), ("b", 1, 3)]).children,
            "a delivered source mark beats the announcement"
        );
        assert!(l.orphans().is_none(), "the plan is taken once");
    }

    #[test]
    fn adopted_away_link_keeps_only_its_known_loss() {
        let mut l = ledger(LinkLedger::default(), 3, &[goodbye(5)]);
        l.new_life();
        let mut l = ledger(l, 5, &[subtree(2, 2, 1)]);
        l.fold_topology(announcement("relay", &[("a", 0, 0)]));
        assert!(l.orphans().is_some());
        assert!(l.is_subtree_adopted());
        assert_eq!(
            cov(&l, false),
            (0, 0, 2),
            "its nodes re-report under their new parents; its own loss stays"
        );
    }

    #[test]
    fn a_beacon_is_not_a_topology() {
        let mut l = LinkLedger::default();
        let beacon = announcement("127.0.0.1:7001", &[("127.0.0.1:7001", 3, 9)]);
        assert!(is_beacon(&beacon));
        l.fold_topology(beacon);
        assert!(l.topology().is_none());
        assert!(l.orphans().is_none());
        let relay = announcement("127.0.0.1:8000", &[("127.0.0.1:7001", 0, 0)]);
        assert!(!is_beacon(&relay));
        l.fold_topology(relay);
        assert!(l.topology().is_some());
    }
}
