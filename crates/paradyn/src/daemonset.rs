//! Multi-daemon sessions: N `pdmapd` processes feeding one tool.
//!
//! §4.2.3: the real Paradyn runs "a daemon per node" and merges their
//! sample streams into one Data Manager. A [`DaemonSet`] is the tool side
//! of that topology: it connects to N daemon addresses over the
//! `pdmap-transport` frame protocol, pumps every link, routes each
//! connection's mapping information into the one [`DataManager`], and
//! aligns each daemon's `wall` stamps onto the tool clock so the merged
//! stream sorts correctly.
//!
//! # Clock alignment
//!
//! `pdmap_obs::now_ns` is *per-process* (ns since that process's origin),
//! so two daemons' wall stamps are mutually meaningless — the offsets
//! between processes are arbitrary and large. [`DaemonSet::clock_sync`]
//! runs the classic bounded-round-trip exchange per daemon: the tool sends
//! [`DaemonMsg::ClockProbe`] carrying its clock `t0`, the daemon echoes it
//! back with its own clock `t_d`, and on receipt at `t1` the tool computes
//!
//! ```text
//! rtt    = t1 − t0
//! offset = t_d − (t0 + rtt/2)        // daemon clock − tool clock
//! ```
//!
//! The estimate's error is bounded by `rtt/2`; over several rounds the
//! minimum-RTT round wins (least queueing noise,
//! [`ClockEstimate::observe`](crate::daemon::ClockEstimate::observe)).
//! Every sample from that daemon is then mapped to tool time as
//! `aligned = wall − offset` ([`pdmap::columns::align`]) as it lands.
//!
//! Each connection reads its daemon through a [`ChildLink`], as a relay
//! reads each child, so both parents follow one hold rule and one pacing.
//! A frame that arrives while its link's sync is in flight lands when the
//! sync ends, timed with that sync's estimate (a failed sync lands it with
//! the estimate the link already had). A readmitted daemon's first samples
//! land on its new clock, and no row is re-timed after it lands. Every
//! sync is paced by [`ChildLink::pace_sync`]: a probe at a time, each
//! waiting up to its round timeout, until the probes are spent or the link
//! dies. `clock_sync` starts every admitted link's sync and steps them
//! together, so every link's first probe goes out before any link's second.
//!
//! # Shards
//!
//! Connection `i` keeps its books in shard `i % shard_count` of the data
//! manager: relaxed import, sample and lock-wait counters. Its mapping
//! information merges into the manager's one where axis, under the
//! catalogue lock; samples move only the shard's counters (see
//! `datamgr`'s module docs for the invariants).
//!
//! # The sample spine
//!
//! Every sample lands in one [`SampleColumns`] the set owns, in arrival
//! order: a `SampleBatch` frame decodes straight to columns and its
//! dictionary is interned once per frame; a loose [`DaemonMsg::Sample`]
//! is a one-row push. The pooled drain partitions by owner — a pass lends
//! each link, with landing columns of its own, to the one worker that
//! drains it, and the set appends the landings after the pass — so no
//! link or sample store is shared while links drain. Landing columns are
//! recycled across passes, and a link lands at most 16,384 rows a pass,
//! so what a landing retains stays small. A row is aligned once, as it
//! lands, with its link's offset at that moment. Readers stay columnar
//! (the cost bound, the per-key streams), and visit rows in merge order
//! through [`SampleColumns::merge_walk`], a merge of each link's run;
//! [`DaemonSet::merged_samples`] is the render edge that materializes
//! [`AlignedSample`] rows. `Obs *` telemetry is classified while a frame's
//! strings still exist and handed to the fleet-health view as rows.
//!
//! # Supervision and partial failure
//!
//! §4.2.4 concedes that mapping information can be lost or delayed; a set
//! that assumes every daemon stays up silently biases every merged metric
//! the moment one dies. Each connection therefore carries a supervisor
//! state machine ([`DaemonHealth`]):
//!
//! ```text
//!            silence/errors            dead link or error burst
//! Healthy ──────────────────▶ Degraded ─────────────────────▶ Quarantined
//!    ▲                           │                                 │
//!    │                           ▼ (recovers on traffic)           │ retry with
//!    │◀──────────────────────────┘                                 │ capped backoff
//!    │                                                             ▼
//!    └──────────────────────── Recovered ◀─────────── reconnect + clock re-sync
//! ```
//!
//! [`DaemonSet::supervise`] drives the transitions from heartbeat age,
//! decode-error rate and clock-sync failures (thresholds in
//! [`SupervisorPolicy`]). Quarantined daemons are excluded from pumping
//! and retried with capped exponential backoff + jitter. A retry re-dials
//! (via the connection's reconnect factory) and starts the clock re-sync,
//! which each later supervision pass steps once, so no pass waits on a
//! probe and a daemon that stays dead never stalls the session. A sync
//! that installs an estimate readmits the daemon, relies on the data
//! manager's content-hash dedup to absorb the re-shipped PIF, and logs a
//! [`RecoveryReport`] with the sample-sequence gap; one that does not
//! closes the fresh link and backs off. Every transition bumps a
//! `daemonset.*` counter so the tool's self-mapping (`selfmap`) can
//! display its own failure handling.
//!
//! Loss is *accounted*, never silent: [`Coverage`] labels every merged
//! result with how many nodes actually reported and a lower bound on the
//! samples lost (exact when the daemon announced its send count in a
//! [`DaemonMsg::Goodbye`]; otherwise the missing node itself is the
//! signal). A lost shard's cost is a bound, never silently zero. The
//! books behind it — per-life conservation counts, the replay watermark,
//! source marks, subtree report, topology and adoption seed — are each
//! connection's [`LinkLedger`], the type a relay keeps per child; a
//! readmission starts a new life that keeps the ended life's loss.

use crate::daemon::{
    daemon_obs, track_error, Arrival, ChildLink, DaemonError, DaemonMsg, LinkLedger,
};
use crate::datamgr::DataManager;
use crate::selfmap;
use crate::stream::Stream;
use cmrts_sim::machine::ArrayAllocInfo;
use cmrts_sim::ArrayId;
use pdmap::columns::{align, SampleColumns};
use pdmap::intern::{self, Symbol};
use pdmap::interval::Interval;
use pdmap::model::Namespace;
use pdmap_transport::{send_wire, TcpClient, Transport, TransportConfig};
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::ops::Deref;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, surviving poison. A drain's panic is caught off the
/// lock by its worker and re-raised by [`DaemonSet::pump_parallel`] once
/// every connection is back in the set.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A metric sample stamped onto the tool clock, as one row.
///
/// The session stores samples as columns ([`DaemonSet::samples`]); rows
/// exist only at the edges: [`DaemonSet::merged_samples`] materializes
/// them for rendering, and drains hand `Obs *` telemetry to the
/// fleet-health view as rows. Names are interned [`Symbol`]s
/// ([`Symbol::as_str`] gives the string), so a row is 40 bytes of plain
/// data with no refcount to touch.
#[derive(Clone, Debug, PartialEq)]
pub struct AlignedSample {
    /// Index of the daemon connection that delivered it.
    pub daemon: usize,
    /// Metric display name.
    pub metric: Symbol,
    /// Focus, rendered.
    pub focus: Symbol,
    /// The daemon's original wall stamp (its own clock).
    pub wall: u64,
    /// The stamp mapped onto the tool clock (`wall − offset`).
    pub aligned_ns: u64,
    /// Sampled value.
    pub value: f64,
}

/// What one drain lands: its samples as columns, plus the `Obs *`
/// telemetry rows among them as [`Symbol`]-named rows, classified while
/// the frame's strings still exist (resolving a [`Symbol`] takes the
/// symbol table's read lock). The drain pool recycles landings across
/// passes, cleared with their capacity kept.
#[derive(Default)]
struct Landing {
    cols: SampleColumns,
    telemetry: Vec<AlignedSample>,
}

impl Landing {
    fn clear(&mut self) {
        self.cols.clear();
        self.telemetry.clear();
    }
}

/// Rows one link lands in one drain pass: the pass stops taking the
/// link's frames once it has landed this many, and the rest of a backlog
/// stays queued for the next pass. It bounds what a recycled landing
/// retains; being per link, a backlogged link cannot starve the links a
/// worker claims after it.
const MAX_ROWS_PER_PASS: usize = 16_384;

/// True for fleet-health telemetry: an `Obs *` metric under a
/// [`selfmap::OBS_FOCUS_PREFIX`] focus. Everything else is application
/// data.
fn is_telemetry(metric: &str, focus: &str) -> bool {
    focus.starts_with(selfmap::OBS_FOCUS_PREFIX) && metric.starts_with("Obs ")
}

/// Clock synchronisation failed for one daemon (no reply within the
/// timeout — link dead or daemon not answering probes).
#[derive(Clone, Debug)]
pub struct ClockSyncError {
    /// Connection index within the set.
    pub daemon: usize,
    /// Address (or label) of the connection.
    pub addr: String,
}

impl fmt::Display for ClockSyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "clock sync with daemon {} ({}) timed out",
            self.daemon, self.addr
        )
    }
}

impl std::error::Error for ClockSyncError {}

/// Supervisor state of one daemon connection (see the module docs for the
/// transition diagram).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DaemonHealth {
    /// Reporting normally.
    Healthy,
    /// Suspicious (stale heartbeat or elevated decode-error rate) but still
    /// pumped; recovers to Healthy on its own when traffic resumes.
    Degraded,
    /// Excluded from pumping; retried with capped backoff.
    Quarantined,
    /// Readmitted after a successful retry (fresh link, clock re-synced);
    /// becomes Healthy at the next supervision pass.
    Recovered,
}

impl DaemonHealth {
    /// Stable lowercase name, used in logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            DaemonHealth::Healthy => "healthy",
            DaemonHealth::Degraded => "degraded",
            DaemonHealth::Quarantined => "quarantined",
            DaemonHealth::Recovered => "recovered",
        }
    }
}

/// Thresholds driving the supervisor state machine.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorPolicy {
    /// Silence (no frame received) after which a connection is Degraded.
    pub degrade_after: Duration,
    /// Silence with a dead transport after which it is Quarantined.
    pub quarantine_after: Duration,
    /// Decode errors in the current life after which it is Degraded.
    pub degrade_errors: usize,
    /// Decode errors in the current life after which it is Quarantined.
    pub quarantine_errors: usize,
    /// Backoff schedule for readmission retries (capped exponential with
    /// deterministic jitter — the transport's own reconnect curve).
    pub retry: pdmap_transport::ReconnectPolicy,
    /// Clock probes a readmission's (or an adoption's) sync sends; the
    /// daemon is readmitted once the sync ends with at least one answered.
    pub retry_sync_rounds: u32,
    /// How long each of those probes waits for its reply. A sync none of
    /// whose probes is answered fails, and the retry backs off.
    pub retry_sync_timeout: Duration,
    /// When true, quarantining a connection that announced a topology (a
    /// relay) re-parents its orphaned children: the supervisor dials each
    /// child directly, seeds its replay watermark from the relay's last
    /// announcement, and folds the subtree back into coverage. Off by
    /// default: without failover-aware daemons (`pdmapd --failover-ms`),
    /// a dark subtree should stay visibly dark, not half-adopted.
    pub adopt_orphans: bool,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            degrade_after: Duration::from_secs(2),
            quarantine_after: Duration::from_secs(4),
            degrade_errors: 8,
            quarantine_errors: 64,
            retry: pdmap_transport::ReconnectPolicy::default(),
            retry_sync_rounds: 3,
            retry_sync_timeout: Duration::from_secs(2),
            adopt_orphans: false,
        }
    }
}

/// How much of the fleet a merged answer actually covers. Attached to
/// [`DaemonSet::merged_samples`]/[`DaemonSet::merged_streams`] (and, via
/// the tool layer, to metric request results) so a degraded answer is
/// *labeled* degraded: a lost shard shows up as `nodes_reporting <
/// nodes_total` and a `samples_lost` lower bound, never as a silent zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Daemons currently admitted to the session (not quarantined).
    pub nodes_reporting: usize,
    /// Daemons the session was built over.
    pub nodes_total: usize,
    /// Lower bound on samples lost: exact per-daemon when the daemon
    /// announced its send count in a [`DaemonMsg::Goodbye`]; a daemon that
    /// died unannounced contributes only to the node deficit (its loss is
    /// unknowable, which is precisely why it must not read as zero).
    pub samples_lost: u64,
}

impl Coverage {
    /// True when every node reported and no announced sample is missing.
    pub fn is_complete(&self) -> bool {
        self.nodes_reporting == self.nodes_total && self.samples_lost == 0
    }

    /// Complete coverage over `nodes` nodes — what a single-process tool
    /// stamps on its own results.
    pub fn complete(nodes: usize) -> Self {
        Self {
            nodes_reporting: nodes,
            nodes_total: nodes,
            samples_lost: 0,
        }
    }

    /// The fraction of the fleet that is *not* reporting:
    /// `1 - nodes_reporting/nodes_total` (zero for an empty fleet).
    pub fn missing_fraction(&self) -> f64 {
        if self.nodes_total == 0 {
            0.0
        } else {
            1.0 - self.nodes_reporting as f64 / self.nodes_total as f64
        }
    }

    /// Bounds the true total metric mass given what was actually observed.
    ///
    /// `observed` is the mass accumulated from the reporting part of the
    /// fleet; `max_per_sample` is the largest per-sample contribution seen
    /// (so lost samples can be bounded). The returned interval:
    ///
    /// * `lo = observed` — missing contributions are nonnegative, so the
    ///   observed mass is a genuine lower bound;
    /// * `hi = (observed + samples_lost × max_per_sample) × total/reporting`
    ///   — lost samples each contributed at most the max observed cost,
    ///   and each silent node at most as much, pro-rata, as the reporting
    ///   ones plus their share of the lost mass.
    ///
    /// Complete coverage collapses to the point `[observed, observed]`, so
    /// interval-aware consumers reproduce point-estimate behaviour exactly
    /// when nothing was lost. A fleet with *no* reporting nodes yields
    /// `[0, +inf)`: nothing was observed, nothing is ruled out. The width
    /// is monotone in both `samples_lost` and the node deficit.
    pub fn bound_mass(&self, observed: f64, max_per_sample: f64) -> Interval {
        if self.nodes_reporting == 0 && self.nodes_total > 0 {
            return Interval::unknown();
        }
        let lost_mass = self.samples_lost as f64 * max_per_sample.max(0.0);
        let scale = if self.nodes_reporting > 0 {
            self.nodes_total as f64 / self.nodes_reporting as f64
        } else {
            1.0
        };
        Interval::new(observed, (observed + lost_mass) * scale)
    }
}

/// The per-session label a multi-daemon frontend pushes into a
/// [`crate::tool::Paradyn`]: the fleet's [`Coverage`] plus the largest
/// per-sample metric contribution observed so far (the bound used to price
/// lost samples in [`Coverage::bound_mass`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SessionCoverage {
    /// How much of the fleet is reporting.
    pub coverage: Coverage,
    /// Largest per-sample value seen on the merged stream; `0.0` when the
    /// session has seen no samples (the lost-mass term then vanishes, but
    /// the node-deficit widening still applies).
    pub max_sample_cost: f64,
}

impl std::iter::Sum for Coverage {
    fn sum<I: Iterator<Item = Coverage>>(iter: I) -> Self {
        iter.fold(Coverage::default(), |a, b| Coverage {
            nodes_reporting: a.nodes_reporting + b.nodes_reporting,
            nodes_total: a.nodes_total + b.nodes_total,
            samples_lost: a.samples_lost + b.samples_lost,
        })
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} nodes reporting, >={} samples lost",
            self.nodes_reporting, self.nodes_total, self.samples_lost
        )
    }
}

/// One successful readmission, recorded by [`DaemonSet::supervise`].
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Connection index within the set.
    pub daemon: usize,
    /// Address (or label) of the connection.
    pub addr: String,
    /// Failed retries before the one that succeeded.
    pub attempts: u32,
    /// The previous life's sample-sequence gap: `Some(n)` when that life
    /// ended with a Goodbye announcing its send count (n = announced −
    /// received − prior delivery), `None` when the daemon died without
    /// announcing.
    pub gap: Option<u64>,
}

/// A one-line rollup of the session's recovery history — readmissions,
/// subtree re-parentings, and the readmitted lives' total announced gap —
/// the label run_report prints as its `recovery:` banner. Built by
/// [`DaemonSet::recovery_summary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Quarantined connections successfully readmitted.
    pub readmissions: usize,
    /// Dead relays whose subtrees were re-parented.
    pub reparents: usize,
    /// Orphaned children re-homed as direct connections.
    pub nodes_rehomed: usize,
    /// Total announced sample gap of the readmitted lives — a lower bound
    /// (lives that died unannounced contribute nothing here, and a relay
    /// is re-parented only when it died unannounced).
    pub gap: u64,
}

impl fmt::Display for RecoverySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} readmissions, {} re-parents ({} nodes re-homed), >={} samples gap",
            self.readmissions, self.reparents, self.nodes_rehomed, self.gap
        )
    }
}

/// One subtree re-parenting, recorded by [`DaemonSet::supervise`] when a
/// quarantined relay's orphaned children were adopted as direct
/// connections (see [`SupervisorPolicy::adopt_orphans`]).
#[derive(Clone, Debug)]
pub struct ReparentReport {
    /// Connection index of the quarantined relay.
    pub daemon: usize,
    /// Address (or label) of the quarantined relay.
    pub addr: String,
    /// Addresses of the children adopted from its last topology
    /// announcement (in announcement order). The children's in-flight
    /// batches replay to the new parent and dedup by sequence.
    pub subtree: Vec<String>,
    /// The set-wide topology epoch this adoption established.
    pub epoch: u64,
}

/// A factory producing a fresh tool-side transport for a daemon — how a
/// quarantined connection is re-dialed (possibly at a new address, if the
/// daemon restarted on a different port).
pub type ReconnectFn = Box<dyn Fn() -> Arc<dyn Transport> + Send>;

/// Dials an arbitrary address on behalf of the set — how orphaned subtree
/// members (addresses learned only at quarantine time, from the dead
/// relay's topology announcement) are adopted. `Arc` so per-connection
/// reconnect factories for adopted children can share it.
pub type DialFn = Arc<dyn Fn(SocketAddr) -> Arc<dyn Transport> + Send + Sync>;

/// Health telemetry about one fleet node, assembled from the `Obs *`
/// samples the node ships about itself under a
/// [`selfmap::OBS_FOCUS_PREFIX`] focus (see `pdmapd --obs-period`).
///
/// Keyed by the node's focus label, *not* by connection: a relay's link
/// multiplexes its whole subtree, so one connection can carry many nodes'
/// telemetry — and a leaf that dies behind a healthy relay goes stale
/// here while the relay's connection stays green.
#[derive(Clone, Debug)]
pub struct NodeHealth {
    /// Connection index that last delivered this node's telemetry.
    pub daemon: usize,
    /// The node's focus label, e.g. `Tool/daemon:127.0.0.1:7001`.
    pub label: String,
    /// Tool-side arrival time of the freshest telemetry sample.
    pub last_seen: Instant,
    /// Latest aligned (tool-clock) stamp on this node's telemetry.
    pub last_aligned_ns: u64,
    /// Telemetry samples received from this node so far.
    pub samples: u64,
    /// Latest value per telemetry metric name.
    metrics: HashMap<Symbol, f64>,
}

impl NodeHealth {
    /// The latest value of one telemetry metric, if the node reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(&intern::lookup(name)?).copied()
    }

    /// All metric names this node has reported (unordered).
    pub fn metric_names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(|k| k.as_str())
    }

    /// Rebuilds `(component, verb, count, total_ns)` span-site totals from
    /// the node's Time/Count rows — the shape [`selfmap::ask_obs_totals`]
    /// answers questions over. Counter, perturbation and subtree rows do
    /// not parse as sites and are excluded by construction.
    pub fn site_totals(&self) -> Vec<selfmap::SiteTotal> {
        let mut by_site: HashMap<(String, String), (u64, u64)> = HashMap::new();
        for (name, &v) in &self.metrics {
            let Some((component, verb, is_time)) = selfmap::parse_obs_metric(name.as_str()) else {
                continue;
            };
            let entry = by_site
                .entry((component.to_string(), verb.to_string()))
                .or_default();
            if is_time {
                entry.1 = v as u64;
            } else {
                entry.0 = v as u64;
            }
        }
        by_site
            .into_iter()
            .map(|((c, v), (count, total_ns))| (c, v, count, total_ns))
            .collect()
    }
}

/// The tool's live view of fleet self-telemetry: one [`NodeHealth`] per
/// reporting node, updated as `Obs *` samples drain through the set. A
/// node that *never* reported is invisible here — heartbeat silence (the
/// supervisor's existing signal) covers that case; this view catches the
/// node that was reporting and stopped.
#[derive(Clone, Debug, Default)]
pub struct FleetHealth {
    nodes: Vec<NodeHealth>,
}

impl FleetHealth {
    /// Every node seen so far, in first-report order.
    pub fn nodes(&self) -> &[NodeHealth] {
        &self.nodes
    }

    /// The node reporting under `label`, if any.
    pub fn node(&self, label: &str) -> Option<&NodeHealth> {
        self.nodes.iter().find(|n| n.label == label)
    }

    /// Number of nodes that have reported telemetry.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has reported yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes whose freshest telemetry is at least `max_age` old — nodes
    /// that were reporting and went dark.
    pub fn stale(&self, max_age: Duration) -> Vec<&NodeHealth> {
        let now = Instant::now();
        self.nodes
            .iter()
            .filter(|n| now.duration_since(n.last_seen) >= max_age)
            .collect()
    }

    /// True when connection `i` has delivered telemetry and *all* of it
    /// has gone stale — the per-connection degrade signal. One stale leaf
    /// behind a busy relay does not trip this; the whole link's telemetry
    /// falling silent does.
    fn conn_stale(&self, i: usize, now: Instant, max_age: Duration) -> bool {
        let mut any = false;
        for n in &self.nodes {
            if n.daemon == i {
                any = true;
                if now.duration_since(n.last_seen) < max_age {
                    return false;
                }
            }
        }
        any
    }

    /// Folds one telemetry sample into the node it describes.
    fn observe(&mut self, s: &AlignedSample) {
        let focus = s.focus.as_str();
        match self.nodes.iter_mut().find(|n| n.label == focus) {
            Some(n) => {
                n.daemon = s.daemon;
                n.last_seen = Instant::now();
                n.last_aligned_ns = n.last_aligned_ns.max(s.aligned_ns);
                n.samples += 1;
                n.metrics.insert(s.metric, s.value);
            }
            None => {
                let mut metrics = HashMap::new();
                metrics.insert(s.metric, s.value);
                self.nodes.push(NodeHealth {
                    daemon: s.daemon,
                    label: focus.to_string(),
                    last_seen: Instant::now(),
                    last_aligned_ns: s.aligned_ns,
                    samples: 1,
                    metrics,
                });
            }
        }
    }
}

/// Fleet-wide perturbation rollup: the sum of every reporting node's
/// self-measured observation cost (see `pdmap_obs::PerturbationReport`),
/// assembled from the four `Obs perturbation *` telemetry rows.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FleetPerturbation {
    /// Nodes whose telemetry included a perturbation estimate.
    pub nodes: usize,
    /// Total spans recorded across those nodes.
    pub spans: u64,
    /// Estimated total measurement overhead, ns (spans × each node's
    /// calibrated null-span cost).
    pub overhead_ns: u64,
    /// Total span nanoseconds those nodes reported (pre-correction).
    pub reported_ns: u64,
}

impl FleetPerturbation {
    /// Overhead as a fraction of reported span time (0 when nothing was
    /// reported — no evidence of perturbation is not evidence of none,
    /// but there is nothing to scale against).
    pub fn overhead_fraction(&self) -> f64 {
        if self.reported_ns == 0 {
            0.0
        } else {
            self.overhead_ns as f64 / self.reported_ns as f64
        }
    }
}

impl fmt::Display for FleetPerturbation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes self-observing: {} spans, ~{} ns overhead / {} ns reported ({:.2}%)",
            self.nodes,
            self.spans,
            self.overhead_ns,
            self.reported_ns,
            self.overhead_fraction() * 100.0
        )
    }
}

/// One daemon connection: the link as the tool reads it — a [`ChildLink`],
/// the type a relay keeps per child, read through `Deref` (and through it
/// the link's [`LinkLedger`] books) — plus the tool's own side: its shard,
/// its supervisor state and its decode errors.
pub struct DaemonConn {
    link: ChildLink,
    shard: usize,
    pif_imports: u64,
    decode_errors: Vec<DaemonError>,
    health: DaemonHealth,
    /// When the last frame (of any kind) arrived on this link.
    last_frame: Instant,
    /// `decode_errors.len()` when the current life started, so error-rate
    /// thresholds look at the current link, not ancient history.
    errors_at_life_start: usize,
    retry_attempt: u32,
    next_retry: Option<Instant>,
    reconnect: Option<ReconnectFn>,
    /// The loss of the life the last re-dial ended, reported once the
    /// readmission's sync succeeds.
    gap: Option<u64>,
}

impl Deref for DaemonConn {
    type Target = ChildLink;
    fn deref(&self) -> &ChildLink {
        &self.link
    }
}

impl DaemonConn {
    fn new(addr: String, tx: Arc<dyn Transport>, shard: usize, ledger: LinkLedger) -> Self {
        Self {
            link: ChildLink::new(addr, tx, ledger),
            shard,
            pif_imports: 0,
            decode_errors: Vec::new(),
            health: DaemonHealth::Healthy,
            last_frame: Instant::now(),
            errors_at_life_start: 0,
            retry_attempt: 0,
            next_retry: None,
            reconnect: None,
            gap: None,
        }
    }

    /// The data-manager shard that counts this connection's imports and
    /// samples.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// PIF blobs received from this daemon (including duplicates of
    /// already-imported catalogues).
    pub fn pif_imports(&self) -> u64 {
        self.pif_imports
    }

    /// Decode/receive errors on this link.
    pub fn decode_errors(&self) -> &[DaemonError] {
        &self.decode_errors
    }

    /// Current supervisor state.
    pub fn health(&self) -> DaemonHealth {
        self.health
    }

    /// This end's transport self-metrics.
    pub fn transport_stats(&self) -> pdmap_transport::TransportStats {
        self.link.transport().stats()
    }

    /// Quarantines the link: it is not pumped until a retry, due at `now`
    /// plus the policy's first backoff, readmits it.
    fn quarantine(&mut self, now: Instant, policy: &SupervisorPolicy) {
        self.health = DaemonHealth::Quarantined;
        self.retry_attempt = 0;
        self.next_retry = Some(now + policy.retry.delay_for(0));
        set_obs().quarantine.incr();
    }

    /// Starts a readmission once the quarantined link's retry is due: ends
    /// the dead life (its announced loss joins the ledger's ended lives and
    /// is kept for the recovery report), re-dials through the reconnect
    /// factory and starts the fresh link's sync. An adopted child whose
    /// first sync failed is paid its seed once this one completes; the
    /// daemon re-ships its PIF on reconnect, and the data manager's
    /// content-hash dedup absorbs the duplicate. False when none started.
    fn redial_if_due(&mut self, now: Instant, policy: &SupervisorPolicy) -> bool {
        // A re-parented relay must not be re-dialed: its old children now
        // report directly, and a restarted relay re-attaching them would
        // double every sample.
        if self.is_subtree_adopted() || self.next_retry.is_some_and(|t| now < t) {
            return false;
        }
        set_obs().retry.incr();
        let Some(factory) = self.reconnect.as_ref() else {
            // No way back; keep backing off so we don't spin.
            self.retry_attempt = self.retry_attempt.saturating_add(1);
            self.next_retry = Some(now + policy.retry.delay_for(self.retry_attempt));
            return false;
        };
        self.gap = self.link.redial(factory());
        self.errors_at_life_start = self.decode_errors.len();
        let (rounds, patience) = (policy.retry_sync_rounds, policy.retry_sync_timeout);
        self.link.start_sync(rounds, patience);
        true
    }

    /// Decode errors in the current life (since connect or readmission).
    fn life_errors(&self) -> usize {
        self.decode_errors
            .len()
            .saturating_sub(self.errors_at_life_start)
    }

    /// Drains the frames currently queued on this link — those an ended
    /// clock sync released come first — landing samples in `out` and
    /// forwarding mapping information to `data`, until the link is empty
    /// or has landed [`MAX_ROWS_PER_PASS`] rows. Returns the frames read.
    /// A pass that read frames is one `daemon`/`deliver` span, timed from
    /// its first frame; polling an empty link reads no clock.
    fn drain(&mut self, data: &DataManager, out: &mut Landing, index: usize) -> usize {
        let mut t0 = None;
        let mut n = 0;
        let start = out.cols.len();
        while out.cols.len() - start < MAX_ROWS_PER_PASS {
            let arrival = match self.link.recv(pdmap_obs::now_ns) {
                Ok(Some(arrival)) => arrival,
                Ok(None) => break,
                Err(e) => {
                    // A link failure is recorded (and counted as
                    // `daemon.error.recv`), never silently swallowed; it
                    // ends only this pass, so later drains retry. Link
                    // errors are sticky: repeats are deduped.
                    let err = track_error(DaemonError::Recv(e.to_string()));
                    if self.decode_errors.last() != Some(&err) {
                        self.decode_errors.push(err);
                    }
                    break;
                }
            };
            if n == 0 && pdmap_obs::enabled() {
                t0 = Some(pdmap_obs::now_ns());
            }
            n += 1;
            self.last_frame = Instant::now();
            self.land(arrival, data, out, index);
        }
        if let Some(t0) = t0 {
            let dur = pdmap_obs::now_ns().saturating_sub(t0);
            pdmap_obs::record_span(&daemon_obs().deliver, t0, dur);
        }
        n
    }

    /// Lands one arrival. A batch or a loose sample goes into `out` at the
    /// link's offset and is counted on the shard, its `Obs *` telemetry
    /// classified while the names are still strings (a batch's once per
    /// dictionary entry); an allocation merges into the where axis; a PIF
    /// blob is imported; a rejected frame is logged.
    fn land(&mut self, arrival: Arrival, data: &DataManager, out: &mut Landing, index: usize) {
        let offset = self.link.clock().offset_ns;
        match arrival {
            Arrival::Batch(batch) => {
                data.note_samples_on(self.shard, batch.len() as u64);
                out.cols.extend_batch(index as u32, offset, &batch);
                let obs: Vec<Option<(Symbol, Symbol)>> = batch
                    .dict
                    .iter()
                    .map(|(m, f)| is_telemetry(m, f).then(|| (intern::sym(m), intern::sym(f))))
                    .collect();
                if obs.iter().any(Option::is_some) {
                    for (i, &k) in batch.key.iter().enumerate() {
                        if let Some((metric, focus)) = obs[k as usize] {
                            out.telemetry.push(AlignedSample {
                                daemon: index,
                                metric,
                                focus,
                                wall: batch.wall[i],
                                aligned_ns: align(batch.wall[i], offset),
                                value: batch.value[i],
                            });
                        }
                    }
                }
            }
            Arrival::Msg(DaemonMsg::Sample {
                metric,
                focus,
                wall,
                value,
            }) => {
                data.note_samples_on(self.shard, 1);
                let aligned_ns = align(wall, offset);
                let (m, f) = (intern::sym(&metric), intern::sym(&focus));
                out.cols
                    .push(index as u32, intern::key(m, f), wall, aligned_ns, value);
                if is_telemetry(&metric, &focus) {
                    out.telemetry.push(AlignedSample {
                        daemon: index,
                        metric: m,
                        focus: f,
                        wall,
                        aligned_ns,
                        value,
                    });
                }
            }
            Arrival::Msg(DaemonMsg::ArrayAllocated {
                id,
                name,
                extents,
                dist,
                subgrids,
            }) => {
                data.array_allocated_on(
                    self.shard,
                    &ArrayAllocInfo {
                        array: ArrayId(id),
                        name,
                        extents,
                        dist,
                        subgrids,
                    },
                );
            }
            Arrival::Pif(blob) => {
                self.pif_imports += 1;
                let failed = match String::from_utf8(blob.0) {
                    Ok(text) => data
                        .import_pif_text(self.shard, &text)
                        .err()
                        .map(|e| e.to_string()),
                    Err(_) => Some("pif blob is not utf-8".into()),
                };
                if let Some(detail) = failed {
                    let err = track_error(DaemonError::Codec(detail));
                    self.decode_errors.push(err);
                }
            }
            Arrival::Rejected(e) => self.decode_errors.push(e),
            // An array free keeps nothing: the where axis lists every array
            // allocated.
            Arrival::Msg(_) | Arrival::Absorbed => {}
        }
    }

    /// One step of this link's sync in flight: reads what is queued (a
    /// reply folds into the sync, the rest is held) and paces the probes
    /// ([`ChildLink::pace_sync`]). Once the sync may end, it ends, paying an
    /// adopted child's seed with the set's `epoch`, and what it held lands
    /// on the new estimate (the old one if no probe was answered).
    /// `Some(installed)` once it ended, `None` while it is in flight.
    fn step_sync(
        &mut self,
        data: &DataManager,
        out: &mut Landing,
        index: usize,
        epoch: u64,
    ) -> Option<bool> {
        self.drain(data, out, index);
        if !self.link.pace_sync(pdmap_obs::now_ns()) {
            return None;
        }
        let synced = self.link.end_sync(epoch, "tool");
        self.drain(data, out, index);
        Some(synced)
    }
}

/// Cached `pdmap-obs` counters for supervisor transitions, so the tool's
/// own failure handling shows up in its self-mapping.
struct SetObs {
    quarantine: Arc<pdmap_obs::Counter>,
    degraded: Arc<pdmap_obs::Counter>,
    recovered: Arc<pdmap_obs::Counter>,
    retry: Arc<pdmap_obs::Counter>,
    /// Workers spawned into drain pools (`daemonset.pool.workers`) — the
    /// fleet-wide pool size, since pools never shrink.
    pool_workers: Arc<pdmap_obs::Counter>,
    /// Parallel drain passes dispatched (`daemonset.pool.drains`).
    pool_drains: Arc<pdmap_obs::Counter>,
    /// Degrades triggered by stale self-telemetry (`daemonset.obs_stale`).
    obs_stale: Arc<pdmap_obs::Counter>,
    /// Subtrees re-parented after relay quarantine (`daemonset.reparent`).
    reparent: Arc<pdmap_obs::Counter>,
    /// Orphaned children adopted as direct conns (`daemonset.adopted`).
    adopted: Arc<pdmap_obs::Counter>,
}

fn set_obs() -> &'static SetObs {
    static OBS: std::sync::OnceLock<SetObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| SetObs {
        quarantine: pdmap_obs::counter("daemonset.quarantine"),
        degraded: pdmap_obs::counter("daemonset.degraded"),
        recovered: pdmap_obs::counter("daemonset.recovered"),
        retry: pdmap_obs::counter("daemonset.retry"),
        pool_workers: pdmap_obs::counter("daemonset.pool.workers"),
        pool_drains: pdmap_obs::counter("daemonset.pool.drains"),
        obs_stale: pdmap_obs::counter("daemonset.obs_stale"),
        reparent: pdmap_obs::counter("daemonset.reparent"),
        adopted: pdmap_obs::counter("daemonset.adopted"),
    })
}

/// One link lent to the drain pool for a pass: its index, the connection
/// by value, a recycled landing to fill, and the data manager.
struct Job {
    index: usize,
    conn: DaemonConn,
    landing: Landing,
    data: Arc<DataManager>,
}

/// A drained job handed back with the frames its drain read, or with the
/// drain's panic: then the landing holds the rows landed before the
/// panic, which the link's books already count.
type Reply = (Job, std::thread::Result<usize>);

/// A persistent bounded worker pool draining daemon connections — the
/// fleet-scale replacement for thread-per-connection scoped spawns. Built
/// lazily at the first [`DaemonSet::pump_parallel`] with
/// `min(connections, available_parallelism)` workers, which then live for
/// the session. A pass sends each admitted link as a [`Job`] on one
/// channel, the first idle worker claims it, so a slow link never blocks
/// the others, and every job comes back as one [`Reply`] on the other.
/// The one worker draining a connection owns it, so no connection needs
/// a lock.
struct DrainPool {
    /// `None` once the pool drops: the closed channel ends every worker.
    jobs: Option<mpsc::Sender<Job>>,
    replies: mpsc::Receiver<Reply>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Landings the set has absorbed, cleared for the next pass's jobs.
    spare: Vec<Landing>,
}

impl DrainPool {
    fn new(size: usize) -> Self {
        let (jobs, queue) = mpsc::channel();
        let (done, replies) = mpsc::channel();
        let queue = Arc::new(Mutex::new(queue));
        let workers = (0..size.max(1))
            .map(|_| {
                let (queue, done) = (queue.clone(), done.clone());
                set_obs().pool_workers.incr();
                std::thread::Builder::new()
                    .name("pdmap-drain".into())
                    .spawn(move || Self::worker(&queue, &done))
                    .expect("spawn drain worker")
            })
            .collect();
        Self {
            jobs: Some(jobs),
            replies,
            workers,
            spare: Vec::new(),
        }
    }

    /// Claims jobs until the job channel closes: the idle worker holding
    /// the queue's lock takes the next job and lets go of the lock before
    /// it drains. A drain's panic goes back in the reply, so the worker
    /// lives on.
    fn worker(queue: &Mutex<mpsc::Receiver<Job>>, done: &mpsc::Sender<Reply>) {
        loop {
            let Ok(mut job) = lock(queue).recv() else {
                return;
            };
            let frames = panic::catch_unwind(AssertUnwindSafe(|| {
                job.conn.drain(&job.data, &mut job.landing, job.index)
            }));
            if done.send((job, frames)).is_err() {
                return;
            }
        }
    }

    /// Drains every admitted link of `conns` once, each lent to the
    /// workers as a job; `conns` gets every connection back in index
    /// order. Returns the frames read, or the first panic a drain raised,
    /// and each job's landing in link order; hand the landings back
    /// through [`DrainPool::recycle`].
    fn run(
        &mut self,
        conns: &mut Vec<DaemonConn>,
        data: &Arc<DataManager>,
    ) -> (std::thread::Result<usize>, Vec<Landing>) {
        set_obs().pool_drains.incr();
        let jobs = self.jobs.as_ref().expect("the job channel closes on drop");
        let mut slots: Vec<Option<DaemonConn>> = Vec::with_capacity(conns.len());
        let mut lent = 0;
        for (index, conn) in conns.drain(..).enumerate() {
            if conn.health == DaemonHealth::Quarantined {
                slots.push(Some(conn));
                continue;
            }
            slots.push(None);
            let landing = self.spare.pop().unwrap_or_default();
            let job = Job {
                index,
                conn,
                landing,
                data: data.clone(),
            };
            jobs.send(job)
                .expect("drain workers live as long as the pool");
            lent += 1;
        }
        let mut frames = Ok(0);
        let mut landed = Vec::with_capacity(lent);
        for _ in 0..lent {
            let (job, drained) = self.replies.recv().expect("every job gets a reply");
            frames = frames.and_then(|total| drained.map(|n| total + n));
            slots[job.index] = Some(job.conn);
            landed.push((job.index, job.landing));
        }
        conns.extend(slots.into_iter().map(|c| c.expect("every link is back")));
        landed.sort_unstable_by_key(|&(index, _)| index);
        (frames, landed.into_iter().map(|(_, l)| l).collect())
    }

    /// Takes back a pass's landings once the set has absorbed them: each
    /// is cleared with its capacity kept for a job of the next pass, so
    /// drains land into pages already faulted in instead of fresh ones.
    fn recycle(&mut self, landed: Vec<Landing>) {
        self.spare.extend(landed.into_iter().map(|mut l| {
            l.clear();
            l
        }));
    }
}

impl Drop for DrainPool {
    fn drop(&mut self) {
        self.jobs = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The tool side of a multi-daemon session (see the module docs).
pub struct DaemonSet {
    data: Arc<DataManager>,
    conns: Vec<DaemonConn>,
    /// Every sample landed so far, in arrival order.
    samples: SampleColumns,
    policy: SupervisorPolicy,
    recoveries: Vec<RecoveryReport>,
    reparents: Vec<ReparentReport>,
    /// How to dial an address first learned at quarantine time (an
    /// orphaned subtree member). Installed by [`DaemonSet::connect`];
    /// absent for transport-injected sets unless [`DaemonSet::set_dialer`]
    /// provides one — without it, orphans cannot be adopted.
    dialer: Option<DialFn>,
    /// Monotonic set-wide topology epoch, bumped per adoption.
    epoch: u64,
    /// Built lazily at the first [`DaemonSet::pump_parallel`].
    pool: Option<DrainPool>,
    /// Per-node health assembled from streamed `Obs *` telemetry.
    health_view: FleetHealth,
}

impl DaemonSet {
    /// Connects to `addrs` over TCP, one [`TcpClient`] per daemon,
    /// counting connection `i` on data-manager shard `i % shard_count`.
    /// Connection establishment is asynchronous (the transport reconnects
    /// until the server appears), so this returns immediately;
    /// [`DaemonSet::clock_sync`] is the natural "is everyone up" barrier.
    ///
    /// Each connection gets a default reconnect factory that re-dials the
    /// same address with the same config, so [`DaemonSet::supervise`] can
    /// readmit a quarantined daemon that restarted on its old port;
    /// [`DaemonSet::set_reconnect`] overrides it for restarts elsewhere.
    pub fn connect(addrs: &[SocketAddr], cfg: TransportConfig, data: Arc<DataManager>) -> Self {
        let transports: Vec<(String, Arc<dyn Transport>)> = addrs
            .iter()
            .map(|a| {
                (
                    a.to_string(),
                    TcpClient::connect(*a, cfg) as Arc<dyn Transport>,
                )
            })
            .collect();
        let mut set = Self::over_transports(transports, data);
        for (conn, &addr) in set.conns.iter_mut().zip(addrs) {
            conn.reconnect = Some(Box::new(move || {
                TcpClient::connect(addr, cfg) as Arc<dyn Transport>
            }));
        }
        // Addresses inside an orphaned subtree are only learned at
        // quarantine time, so adoption needs a general dialer too.
        set.dialer = Some(Arc::new(move |a: SocketAddr| {
            TcpClient::connect(a, cfg) as Arc<dyn Transport>
        }));
        set
    }

    /// Builds a set over already-connected transports — the seam used by
    /// in-process tests (and any future backend): element `i` of
    /// `transports` is `(label, tool-side transport of daemon i)`.
    pub fn over_transports(
        transports: Vec<(String, Arc<dyn Transport>)>,
        data: Arc<DataManager>,
    ) -> Self {
        let shards = data.shard_count();
        let conns = transports
            .into_iter()
            .enumerate()
            .map(|(i, (addr, tx))| DaemonConn::new(addr, tx, i % shards, LinkLedger::default()))
            .collect();
        Self {
            data,
            conns,
            samples: SampleColumns::new(),
            policy: SupervisorPolicy::default(),
            recoveries: Vec::new(),
            reparents: Vec::new(),
            dialer: None,
            epoch: 0,
            pool: None,
            health_view: FleetHealth::default(),
        }
    }

    /// Number of daemon connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when the set has no connections.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// The shared data manager.
    pub fn data(&self) -> &Arc<DataManager> {
        &self.data
    }

    /// Connection `i`.
    pub fn conn(&self, i: usize) -> &DaemonConn {
        &self.conns[i]
    }

    /// The drain-pool size, once the pool exists (after the first
    /// [`DaemonSet::pump_parallel`]).
    pub fn pool_size(&self) -> Option<usize> {
        self.pool.as_ref().map(|p| p.workers.len())
    }

    /// The active supervisor thresholds.
    pub fn policy(&self) -> SupervisorPolicy {
        self.policy
    }

    /// Replaces the supervisor thresholds (tests shrink them to make
    /// failure detection immediate).
    pub fn set_policy(&mut self, policy: SupervisorPolicy) {
        self.policy = policy;
    }

    /// Installs the reconnect factory used to re-dial daemon `i` after
    /// quarantine — e.g. pointing at the new port of a restarted daemon.
    pub fn set_reconnect(&mut self, i: usize, f: ReconnectFn) {
        self.conns[i].reconnect = Some(f);
    }

    /// Supervisor state of daemon `i`.
    pub fn health(&self, i: usize) -> DaemonHealth {
        self.conns[i].health
    }

    /// Installs the dialer used to adopt orphaned subtree members —
    /// addresses first seen in a dead relay's topology announcement.
    /// [`DaemonSet::connect`] installs a TCP one; transport-injected sets
    /// (tests) provide their own seam here.
    pub fn set_dialer(&mut self, f: DialFn) {
        self.dialer = Some(f);
    }

    /// Readmissions logged so far (in the order they happened).
    pub fn recoveries(&self) -> &[RecoveryReport] {
        &self.recoveries
    }

    /// Subtree re-parentings logged so far (in the order they happened).
    pub fn reparents(&self) -> &[ReparentReport] {
        &self.reparents
    }

    /// Rolls the recovery history up into the `recovery:` banner label —
    /// `None` while nothing has been readmitted or re-parented, so a
    /// clean session's report stays byte-identical.
    pub fn recovery_summary(&self) -> Option<RecoverySummary> {
        if self.recoveries.is_empty() && self.reparents.is_empty() {
            return None;
        }
        Some(RecoverySummary {
            readmissions: self.recoveries.len(),
            reparents: self.reparents.len(),
            nodes_rehomed: self.reparents.iter().map(|r| r.subtree.len()).sum(),
            gap: self.recoveries.iter().filter_map(|r| r.gap).sum(),
        })
    }

    /// The set-wide topology epoch (bumped once per adoption).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How much of the fleet the session currently covers — attach this to
    /// anything computed from the merged stream.
    ///
    /// Tree-aware: each link adds its [`LinkLedger::coverage`] — a relay
    /// its whole subtree's node counts and losses, a leaf daemon `1/1` —
    /// reporting unless quarantined. A quarantined relay therefore costs
    /// the session its entire subtree — never silently one node.
    pub fn coverage(&self) -> Coverage {
        self.conns
            .iter()
            .map(|c| c.coverage(c.health != DaemonHealth::Quarantined))
            .sum()
    }

    /// Syncs every admitted daemon's clock with `rounds` probes, keeping
    /// each daemon's minimum-RTT estimate. The links sync together, paced
    /// as a relay paces its children ([`ChildLink::pace_sync`]): every
    /// link's first probe goes out before any link's second, and each
    /// probe waits up to `timeout` for its reply. A daemon that answers
    /// none is quarantined (scheduled for retry) and the first to fail is
    /// reported in the returned error — the *other* daemons still get
    /// their estimates, so the set stays usable around the failure.
    ///
    /// Frames that arrive during a link's sync land when it ends, on its
    /// estimate (the old one if it failed). Landed rows are never re-timed:
    /// rows a caller drains before the set's first `clock_sync` keep
    /// offset 0, so sync before pumping.
    pub fn clock_sync(&mut self, rounds: u32, timeout: Duration) -> Result<(), ClockSyncError> {
        for conn in &mut self.conns {
            if conn.health != DaemonHealth::Quarantined {
                conn.link.start_sync(rounds, timeout);
            }
        }
        match self.finish_syncs().first() {
            Some(&i) => Err(ClockSyncError {
                daemon: i,
                addr: self.conns[i].addr().to_string(),
            }),
            None => Ok(()),
        }
    }

    /// Paces the syncs in flight on admitted links together, one step per
    /// link a pass, until every one has ended. A link whose sync installed
    /// no estimate is quarantined; returns those links in the order they
    /// failed. A readmission's sync is left to [`DaemonSet::supervise`].
    fn finish_syncs(&mut self) -> Vec<usize> {
        let data = self.data.clone();
        let mut landed = Landing::default();
        let mut failed = Vec::new();
        let syncing = |c: &DaemonConn| c.health != DaemonHealth::Quarantined && c.syncing();
        while self.conns.iter().any(syncing) {
            for (i, conn) in self.conns.iter_mut().enumerate() {
                if syncing(conn) && conn.step_sync(&data, &mut landed, i, self.epoch) == Some(false)
                {
                    conn.quarantine(Instant::now(), &self.policy);
                    failed.push(i);
                }
            }
            std::thread::yield_now();
        }
        self.absorb(&landed);
        failed
    }

    /// One supervision pass: drives every connection's state machine (see
    /// the module docs) and paces readmissions. A due retry re-dials and
    /// starts the link's sync; this pass and the next each take one step
    /// of it ([`ChildLink::pace_sync`]: `retry_sync_rounds` probes, each
    /// waiting up to `retry_sync_timeout`), so no pass waits on a probe.
    /// The link stays quarantined until its sync installs an estimate.
    /// Call it from the same loop that pumps; it is cheap when nothing is
    /// wrong. Returns the post-pass [`Coverage`].
    pub fn supervise(&mut self) -> Coverage {
        let now = Instant::now();
        let policy = self.policy;
        let data = self.data.clone();
        let mut landed = Landing::default();
        // Telemetry staleness per connection: a link whose self-reports
        // all went dark is degraded even while other frames keep its
        // heartbeat fresh — the daemon's watchdog stopped barking.
        let obs_stale: Vec<bool> = (0..self.conns.len())
            .map(|i| self.health_view.conn_stale(i, now, policy.degrade_after))
            .collect();
        for (i, conn) in self.conns.iter_mut().enumerate() {
            match conn.health {
                // Readmitted last pass; traffic (or its absence) now speaks
                // for itself again.
                DaemonHealth::Recovered => conn.health = DaemonHealth::Healthy,
                DaemonHealth::Healthy | DaemonHealth::Degraded => {
                    let silence = now.duration_since(conn.last_frame);
                    let errs = conn.life_errors();
                    let dead = !conn.link.transport().is_alive();
                    if errs >= policy.quarantine_errors
                        || (dead && silence >= policy.quarantine_after)
                    {
                        conn.quarantine(now, &policy);
                    } else if dead
                        || errs >= policy.degrade_errors
                        || silence >= policy.degrade_after
                        || obs_stale[i]
                    {
                        if conn.health == DaemonHealth::Healthy {
                            conn.health = DaemonHealth::Degraded;
                            set_obs().degraded.incr();
                            if obs_stale[i] {
                                set_obs().obs_stale.incr();
                            }
                        }
                    } else if conn.health == DaemonHealth::Degraded {
                        conn.health = DaemonHealth::Healthy;
                    }
                }
                DaemonHealth::Quarantined => {
                    // A readmission takes one step of its sync a pass.
                    if !conn.syncing() && !conn.redial_if_due(now, &policy) {
                        continue;
                    }
                    match conn.step_sync(&data, &mut landed, i, self.epoch) {
                        None => {}
                        Some(true) => {
                            conn.health = DaemonHealth::Recovered;
                            conn.last_frame = now;
                            conn.next_retry = None;
                            set_obs().recovered.incr();
                            self.recoveries.push(RecoveryReport {
                                daemon: i,
                                addr: conn.addr().to_string(),
                                attempts: std::mem::take(&mut conn.retry_attempt),
                                gap: conn.gap,
                            });
                        }
                        Some(false) => {
                            conn.link.transport().close();
                            conn.retry_attempt = conn.retry_attempt.saturating_add(1);
                            conn.next_retry =
                                Some(now + policy.retry.delay_for(conn.retry_attempt));
                        }
                    }
                }
            }
        }
        self.absorb(&landed);
        if policy.adopt_orphans {
            self.adopt_orphans();
        }
        self.coverage()
    }

    /// Re-parents every newly quarantined relay's orphaned subtree: each
    /// child in the relay's [`LinkLedger::orphans`] plan is dialed
    /// directly, clock-synced, and seeded with the exact replay watermark
    /// this set already folded in. The orphans sync together, paced as
    /// [`DaemonSet::clock_sync`] paces its links. The orphan replays its
    /// ring suffix past the seed; anything the dead relay managed to
    /// forward arrives twice and is suppressed by the new link's watermark
    /// — no double count, no silent gap.
    fn adopt_orphans(&mut self) {
        let Some(dialer) = self.dialer.clone() else {
            return;
        };
        let policy = self.policy;
        // Pass 1: claim the plans of newly quarantined relays.
        let mut work = Vec::new();
        for (i, c) in self.conns.iter_mut().enumerate() {
            if c.health == DaemonHealth::Quarantined {
                if let Some(plan) = c.link.orphans() {
                    work.push((i, c.addr().to_string(), plan));
                }
            }
        }
        let shards = self.data.shard_count();
        let (rounds, timeout) = (policy.retry_sync_rounds, policy.retry_sync_timeout);
        for (i, addr, plan) in work {
            self.epoch += 1;
            set_obs().reparent.incr();
            let mut subtree = Vec::new();
            for tc in plan {
                subtree.push(tc.addr.clone());
                if self.conns.iter().any(|c| c.addr() == tc.addr) {
                    // Already a direct connection (e.g. adopted from an
                    // earlier failure, or dual-homed): never dial twice.
                    continue;
                }
                let Ok(sock) = tc.addr.parse::<SocketAddr>() else {
                    continue;
                };
                let d = dialer.clone();
                let idx = self.conns.len();
                let ledger = LinkLedger::adopted(tc.watermark, tc.received);
                let mut conn = DaemonConn::new(tc.addr, dialer(sock), idx % shards, ledger);
                conn.health = DaemonHealth::Recovered;
                conn.reconnect = Some(Box::new(move || d(sock)));
                conn.link.start_sync(rounds, timeout);
                set_obs().adopted.incr();
                self.conns.push(conn);
            }
            self.reparents.push(ReparentReport {
                daemon: i,
                addr,
                subtree,
                epoch: self.epoch,
            });
        }
        // An orphan that answers no probe is quarantined with its owed seed:
        // the ordinary retry machinery readmits it and pays the seed once
        // the orphan answers.
        self.finish_syncs();
    }

    /// Asks daemon `i` to shut down gracefully (drain, then announce its
    /// send count in a [`DaemonMsg::Goodbye`]). Returns false if the
    /// request could not even be queued.
    pub fn shutdown(&self, i: usize) -> bool {
        send_wire(&**self.conns[i].link.transport(), &DaemonMsg::Shutdown).is_ok()
    }

    /// Asks every admitted daemon to shut down, then pumps until each has
    /// announced its send count (or `timeout` elapses). The returned
    /// [`Coverage`] is the session's final conservation report.
    pub fn shutdown_all(&mut self, timeout: Duration) -> Coverage {
        for conn in &self.conns {
            if conn.health != DaemonHealth::Quarantined {
                let _ = send_wire(&**conn.link.transport(), &DaemonMsg::Shutdown);
            }
        }
        self.pump_until(timeout, |set| {
            set.conns
                .iter()
                .all(|c| c.health == DaemonHealth::Quarantined || c.announced_sent().is_some())
        });
        self.coverage()
    }

    /// Drains every admitted link concurrently through the persistent
    /// drain pool — `min(connections, available_parallelism)` long-lived
    /// workers, each claiming the next link of the pass as it goes idle
    /// and landing it into its own columns, which the set appends after
    /// the pass in link order and hands back for the next. The pool is
    /// built at the first call and reused for the session: a drain pass
    /// sends one job per link, not one thread spawn per connection.
    /// Quarantined connections are never drained, and each link lands at
    /// most 16,384 rows a pass. Returns frames processed.
    ///
    /// # Panics
    ///
    /// Re-raises a drain's panic once every connection is back in the set
    /// and every landing, the panicked drain's partial one too, is
    /// absorbed. The workers survive it.
    pub fn pump_parallel(&mut self) -> usize {
        if self
            .conns
            .iter()
            .all(|c| c.health == DaemonHealth::Quarantined)
        {
            return 0;
        }
        let pool = self.pool.get_or_insert_with(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            DrainPool::new(self.conns.len().min(cores))
        });
        let (frames, landed) = pool.run(&mut self.conns, &self.data);
        for l in &landed {
            self.absorb(l);
        }
        if let Some(pool) = &mut self.pool {
            pool.recycle(landed);
        }
        frames.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Appends one drain's landing to the session: its columns to the
    /// sample store, its telemetry rows to the fleet-health view.
    fn absorb(&mut self, landed: &Landing) {
        self.samples.append(&landed.cols);
        for row in &landed.telemetry {
            self.health_view.observe(row);
        }
    }

    /// Pumps all links until at least `want` samples have been received in
    /// total (across the session's lifetime) or `timeout` elapses. Drains
    /// through the pooled parallel path, so a large fleet never serializes
    /// on one thread. Returns the session's sample total.
    pub fn pump_until_samples(&mut self, want: usize, timeout: Duration) -> usize {
        self.pump_until(timeout, |set| set.samples.len() >= want);
        self.samples.len()
    }

    /// Pumps every admitted link ([`DaemonSet::pump_parallel`]) until `done`
    /// holds or `timeout` elapses. No link can wake it, so it polls: after
    /// a pass that read nothing it yields, up to 64 times in a row, then
    /// sleeps 200 µs a pass until frames flow again.
    fn pump_until(&mut self, timeout: Duration, done: impl Fn(&Self) -> bool) {
        let deadline = Instant::now() + timeout;
        let mut idle = 0u32;
        loop {
            let got = self.pump_parallel();
            if done(self) || Instant::now() >= deadline {
                return;
            }
            if got > 0 {
                idle = 0;
            } else if idle < 64 {
                idle += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    /// All samples received so far, as columns in arrival order.
    pub fn samples(&self) -> &SampleColumns {
        &self.samples
    }

    /// The largest per-sample value received so far — the per-sample cost
    /// bound [`Coverage::bound_mass`] prices lost samples at. O(1): the
    /// sample store keeps it as rows land.
    pub fn max_sample_value(&self) -> f64 {
        self.samples.max_value()
    }

    /// The session label to stamp on a coverage-aware tool
    /// ([`crate::tool::Paradyn::set_session_coverage`]): the current
    /// [`Coverage`] plus the max observed per-sample cost.
    pub fn session_coverage(&self) -> SessionCoverage {
        SessionCoverage {
            coverage: self.coverage(),
            max_sample_cost: self.max_sample_value(),
        }
    }

    /// The fleet-health view assembled from streamed telemetry — current
    /// as of the last pump or supervision pass.
    pub fn fleet_health(&self) -> &FleetHealth {
        &self.health_view
    }

    /// Asks a span-site question about a *remote* node — "how much time
    /// did the node reporting as `label` spend in `component` `verb`?" —
    /// answered from its streamed telemetry through the same SAS
    /// machinery as the local [`selfmap::ask_obs`]. Returns `None` when
    /// the node has not reported or the site never ran there.
    pub fn ask_fleet_obs(
        &self,
        ns: &Namespace,
        label: &str,
        component: &str,
        verb: &str,
    ) -> Option<u64> {
        let node = self.health_view.node(label)?;
        selfmap::ask_obs_totals(ns, &node.site_totals(), component, verb)
    }

    /// Aggregates every reporting node's self-measured perturbation
    /// estimate into one fleet rollup; `None` until some node has shipped
    /// its `Obs perturbation *` rows.
    pub fn fleet_perturbation(&self) -> Option<FleetPerturbation> {
        let mut agg = FleetPerturbation::default();
        for n in self.health_view.nodes() {
            let Some(spans) = n.metric(selfmap::OBS_PERTURB_SPANS) else {
                continue;
            };
            agg.nodes += 1;
            agg.spans += spans as u64;
            agg.overhead_ns += n.metric(selfmap::OBS_PERTURB_OVERHEAD).unwrap_or(0.0) as u64;
            agg.reported_ns += n.metric(selfmap::OBS_PERTURB_REPORTED).unwrap_or(0.0) as u64;
        }
        (agg.nodes > 0).then_some(agg)
    }

    /// The merged sample stream, sorted by aligned (tool-clock) time —
    /// the single stream the paper's front end consumes. Stable, so
    /// same-instant samples keep arrival order. The render edge of the
    /// sample columns: the [`SampleColumns::merge_walk`] writes each row
    /// once, into a vector of exactly the session's length. The result
    /// carries the session's [`Coverage`], so a merge computed over a
    /// degraded fleet is labeled as such instead of silently reading low.
    pub fn merged_samples(&self) -> Merged {
        let cols = &self.samples;
        let pairs = intern::key_pairs();
        let rows = cols
            .merge_walk()
            .map(|i| {
                let (metric, focus) = pairs[cols.keys()[i].index()];
                AlignedSample {
                    daemon: cols.daemons()[i] as usize,
                    metric,
                    focus,
                    wall: cols.walls()[i],
                    aligned_ns: cols.aligneds()[i],
                    value: cols.values()[i],
                }
            })
            .collect();
        Labelled {
            rows,
            coverage: self.coverage(),
        }
    }

    /// Groups the merged stream into one [`Stream`] per (metric, focus)
    /// pair, in first-seen order on the tool clock. Rows are counted per
    /// key first, so each stream is allocated once at its exact length;
    /// the merge walk then fills them, each row indexing its stream by key
    /// id. A key's strings are materialized once, when its stream opens.
    /// Units are unknown at this layer (the wire protocol does not carry
    /// them). Carries the same [`Coverage`] label as
    /// [`DaemonSet::merged_samples`].
    pub fn merged_streams(&self) -> MergedStreams {
        let cols = &self.samples;
        let pairs = intern::key_pairs();
        let mut rows = vec![0usize; pairs.len()];
        for k in cols.keys() {
            rows[k.index()] += 1;
        }
        let mut slot = vec![usize::MAX; pairs.len()];
        let mut out: Vec<Stream> = Vec::new();
        for i in cols.merge_walk() {
            let k = cols.keys()[i].index();
            if slot[k] == usize::MAX {
                slot[k] = out.len();
                out.push(Stream {
                    metric: pairs[k].0.as_str().to_string(),
                    focus: pairs[k].1.as_str().to_string(),
                    units: String::new(),
                    samples: Vec::with_capacity(rows[k]),
                });
            }
            out[slot[k]]
                .samples
                .push((cols.aligneds()[i], cols.values()[i]));
        }
        Labelled {
            rows: out,
            coverage: self.coverage(),
        }
    }
}

/// Rows merged across the fleet — [`DaemonSet::merged_samples`]'s aligned
/// samples or [`DaemonSet::merged_streams`]'s per-key streams — plus the
/// [`Coverage`] they were computed under. Derefs to the row vector, so
/// slice-style consumers keep working; the label rides along for anyone
/// who asks.
#[derive(Clone, Debug)]
pub struct Labelled<T> {
    rows: Vec<T>,
    coverage: Coverage,
}

/// The merged, aligned sample stream and its [`Coverage`] label.
pub type Merged = Labelled<AlignedSample>;

/// The merged per-(metric, focus) streams and their [`Coverage`] label.
pub type MergedStreams = Labelled<Stream>;

impl<T> Labelled<T> {
    /// How much of the fleet these rows cover.
    pub fn coverage(&self) -> Coverage {
        self.coverage
    }
}

impl<T> Deref for Labelled<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.rows
    }
}

impl<T> IntoIterator for Labelled<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a Labelled<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selfmap::{
        obs_count_metric, obs_focus, obs_time_metric, OBS_PERTURB_NULL, OBS_PERTURB_OVERHEAD,
        OBS_PERTURB_REPORTED, OBS_PERTURB_SPANS,
    };
    use pdmap::model::Namespace;
    use pdmap_transport::{
        Backend, Frame, FrameKind, PifBlob, TopologyMsg, TransportError, TransportStats,
        WirePayload,
    };
    use std::sync::atomic::{AtomicU64, Ordering};

    /// An in-process fake `pdmapd`: answers clock probes with a skewed
    /// clock and lets the test send samples with the same skew — the
    /// process-boundary behaviour of `pdmapd` without the processes.
    struct FakeDaemon {
        tx: Arc<dyn Transport>,
        skew_ns: i64,
    }

    /// Origin of every fake daemon's clock, like `pdmapd`'s clock base: a
    /// negative skew must not clamp at zero in a process younger than it.
    const FAKE_CLOCK_BASE_NS: i64 = 1_000_000_000;

    impl FakeDaemon {
        fn now(&self) -> u64 {
            (pdmap_obs::now_ns() as i64 + FAKE_CLOCK_BASE_NS + self.skew_ns) as u64
        }

        fn answer_probes(&self) {
            while let Ok(Some(frame)) = self.tx.try_recv() {
                if let Ok(DaemonMsg::ClockProbe { token, t_tool_ns }) =
                    DaemonMsg::from_frame(&frame)
                {
                    let _ = send_wire(
                        &*self.tx,
                        &DaemonMsg::ClockReply {
                            token,
                            t_tool_ns,
                            t_daemon_ns: self.now(),
                        },
                    );
                }
            }
        }

        fn send_sample(&self, metric: &str, value: f64) {
            self.send_focused(metric, "/", value);
        }

        fn send_focused(&self, metric: &str, focus: &str, value: f64) {
            let _ = send_wire(
                &*self.tx,
                &DaemonMsg::Sample {
                    metric: metric.into(),
                    focus: focus.into(),
                    wall: self.now(),
                    value,
                },
            );
        }
    }

    fn set_with_skews(skews: &[i64]) -> (DaemonSet, Vec<FakeDaemon>) {
        let cfg = TransportConfig::default();
        let mut transports = Vec::new();
        let mut daemons = Vec::new();
        for (i, &skew_ns) in skews.iter().enumerate() {
            let link = Backend::InProc.link(&cfg);
            transports.push((format!("fake#{i}"), link.client));
            daemons.push(FakeDaemon {
                tx: link.server,
                skew_ns,
            });
        }
        let data = Arc::new(DataManager::sharded(
            Namespace::new(),
            "CM Fortran",
            skews.len(),
        ));
        (DaemonSet::over_transports(transports, data), daemons)
    }

    /// Clock sync + probe answering interleaved: the fake daemons answer
    /// from a helper thread while the tool syncs.
    fn sync(set: &mut DaemonSet, daemons: &[FakeDaemon]) {
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for d in daemons {
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        d.answer_probes();
                        std::thread::yield_now();
                    }
                });
            }
            set.clock_sync(5, Duration::from_secs(2)).unwrap();
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn clock_sync_recovers_injected_skew() {
        let skews = [50_000_000i64, -50_000_000];
        let (mut set, daemons) = set_with_skews(&skews);
        sync(&mut set, &daemons);
        for (i, &skew) in skews.iter().enumerate() {
            let est = set.conn(i).clock();
            assert_eq!(est.rounds, 5);
            let err = (est.offset_ns - (FAKE_CLOCK_BASE_NS + skew)).unsigned_abs();
            // The estimate's error is bounded by rtt/2; allow headroom for
            // a loaded CI box, but ±50 ms skews must be clearly separated.
            assert!(
                err <= est.rtt_ns / 2 + 5_000_000,
                "daemon {i}: offset {} vs skew {skew} (rtt {})",
                est.offset_ns,
                est.rtt_ns
            );
        }
    }

    /// A tool-side transport that logs which link sent each frame.
    struct Logged {
        inner: Arc<dyn Transport>,
        link: usize,
        sends: Arc<Mutex<Vec<usize>>>,
    }

    impl Transport for Logged {
        fn send(&self, kind: FrameKind, payload: Vec<u8>) -> Result<(), TransportError> {
            lock(&self.sends).push(self.link);
            self.inner.send(kind, payload)
        }
        fn try_recv(&self) -> Result<Option<Frame>, TransportError> {
            self.inner.try_recv()
        }
        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
        fn is_alive(&self) -> bool {
            self.inner.is_alive()
        }
        fn close(&self) {
            self.inner.close()
        }
        fn backend_name(&self) -> &'static str {
            "logged"
        }
    }

    #[test]
    fn clock_sync_sends_every_links_first_probe_before_any_second() {
        let sends = Arc::new(Mutex::new(Vec::new()));
        let mut transports: Vec<(String, Arc<dyn Transport>)> = Vec::new();
        let mut daemons = Vec::new();
        for link in 0..3 {
            let l = Backend::InProc.link(&TransportConfig::default());
            let inner = l.client;
            let sends = sends.clone();
            transports.push((
                format!("fake#{link}"),
                Arc::new(Logged { inner, link, sends }),
            ));
            daemons.push(FakeDaemon {
                tx: l.server,
                skew_ns: 0,
            });
        }
        let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 3));
        let mut set = DaemonSet::over_transports(transports, data);
        sync(&mut set, &daemons);
        let sends = lock(&sends).clone();
        assert_eq!(sends.len(), 15, "five probes a link: {sends:?}");
        let mut first = sends[..3].to_vec();
        first.sort_unstable();
        assert_eq!(
            first,
            [0, 1, 2],
            "every link's first probe goes out before any link's second: {sends:?}"
        );
        for i in 0..3 {
            assert_eq!(set.conn(i).clock().rounds, 5, "link {i}");
        }
    }

    #[test]
    fn merged_stream_sorts_by_aligned_time_under_skew() {
        // Daemon 0 runs 50 ms fast, daemon 1 runs 50 ms slow. Samples are
        // sent alternately with real gaps between them, so the true send
        // order is 0,1,2,... (encoded in the value). Raw wall stamps order
        // all of daemon 1 before daemon 0 — a 100 ms split across a ~40 ms
        // experiment — so an unaligned merge is provably wrong, and the
        // aligned merge must recover the send order.
        let (mut set, daemons) = set_with_skews(&[50_000_000, -50_000_000]);
        sync(&mut set, &daemons);
        let n = 8usize;
        for i in 0..n {
            daemons[i % 2].send_sample("M", i as f64);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(set.pump_until_samples(n, Duration::from_secs(5)), n);

        let merged = set.merged_samples();
        let aligned_order: Vec<f64> = merged.iter().map(|s| s.value).collect();
        let want: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert_eq!(aligned_order, want, "aligned merge = true send order");
        assert!(
            merged
                .windows(2)
                .all(|w| w[0].aligned_ns <= w[1].aligned_ns),
            "merged stream is nondecreasing in aligned time"
        );

        let cols = set.samples();
        let mut by_wall: Vec<usize> = (0..cols.len()).collect();
        by_wall.sort_by_key(|&i| cols.walls()[i]);
        let wall_order: Vec<f64> = by_wall.iter().map(|&i| cols.values()[i]).collect();
        assert_ne!(
            wall_order, want,
            "raw wall stamps mis-order the merge; alignment is load-bearing"
        );
        assert_eq!(
            set.data().shard_stats(0).samples + set.data().shard_stats(1).samples,
            n as u64
        );
    }

    /// The merge before the walk: a stable sort of every row by aligned
    /// time, each row carrying its names as strings.
    fn sorted_rows(cols: &SampleColumns) -> Vec<(usize, String, String, u64, u64, f64)> {
        let mut perm: Vec<usize> = (0..cols.len()).collect();
        perm.sort_by_key(|&i| cols.aligneds()[i]);
        perm.into_iter()
            .map(|i| {
                let (m, f) = cols.keys()[i].pair();
                (
                    cols.daemons()[i] as usize,
                    m.to_string(),
                    f.to_string(),
                    cols.walls()[i],
                    cols.aligneds()[i],
                    cols.values()[i],
                )
            })
            .collect()
    }

    /// A seeded store of `rows` rows over five links landing in chunks:
    /// three keys, coarse clock steps (so rows tie within and across
    /// links), link 2 silent, and link 3's clock restarting mid-stream.
    /// Each row is aligned as it lands with its link's entry in `offsets`.
    fn seeded_store(seed: u64, rows: usize, offsets: &[i64; 5]) -> SampleColumns {
        let mut rng = pdmap::util::SplitMix64::new(seed);
        let keys: Vec<_> = [("M", "/a"), ("M", "/b"), ("N", "/a")]
            .iter()
            .map(|(m, f)| intern::key(intern::sym(m), intern::sym(f)))
            .collect();
        let mut clock = [0u64; 5];
        let mut cols = SampleColumns::new();
        while cols.len() < rows {
            let d = [0, 1, 3, 4][rng.usize_in(0..4)];
            for _ in 0..1 + rng.usize_in(0..12) {
                if d == 3 && rng.usize_in(0..50) == 0 {
                    clock[3] /= 3;
                }
                clock[d] += 10 * rng.usize_in(0..3) as u64;
                let key = keys[rng.usize_in(0..keys.len())];
                let value = rng.usize_in(0..1000) as f64;
                cols.push(d as u32, key, clock[d], align(clock[d], offsets[d]), value);
            }
        }
        cols
    }

    #[test]
    fn merged_outputs_match_the_sorted_merge_on_seeded_stores() {
        let (mut set, _daemons) = set_with_skews(&[0]);
        for seed in 0..40u64 {
            // Every link at offset 0, then links shifted by their own
            // offsets (link 3's early rows clamping to zero).
            for offsets in [[0; 5], [0, 15, 0, 2_000, -30]] {
                set.samples = seeded_store(seed, 200 + 40 * seed as usize, &offsets);
                let want = sorted_rows(&set.samples);
                let merged: Vec<_> = set
                    .merged_samples()
                    .iter()
                    .map(|s| {
                        let (m, f) = (s.metric.to_string(), s.focus.to_string());
                        (s.daemon, m, f, s.wall, s.aligned_ns, s.value)
                    })
                    .collect();
                assert_eq!(merged, want, "seed {seed}, offsets {offsets:?}");
                // The streams: the sorted rows grouped per key, keys in
                // first-seen order.
                let mut streams: Vec<Stream> = Vec::new();
                for (_, m, f, _, aligned, value) in &want {
                    let at = streams.iter().position(|s| s.metric == *m && s.focus == *f);
                    let at = at.unwrap_or_else(|| {
                        streams.push(Stream {
                            metric: m.clone(),
                            focus: f.clone(),
                            ..Stream::default()
                        });
                        streams.len() - 1
                    });
                    streams[at].samples.push((*aligned, *value));
                }
                let got = set.merged_streams();
                assert_eq!(format!("{:?}", *got), format!("{streams:?}"), "seed {seed}");
                assert!(
                    got.iter().all(|s| s.samples.capacity() == s.samples.len()),
                    "each stream is allocated at its exact length"
                );
            }
        }
    }

    #[test]
    fn a_merged_row_stays_lean() {
        assert!(
            std::mem::size_of::<AlignedSample>() <= 40,
            "{} bytes",
            std::mem::size_of::<AlignedSample>()
        );
    }

    #[test]
    fn a_backlog_past_the_per_link_bound_lands_over_several_passes() {
        let (mut set, daemons) = set_with_skews(&[0, 0]);
        let wall = daemons[0].now();
        let per_frame = 4_096;
        let frames = 2 * MAX_ROWS_PER_PASS / per_frame + 3;
        for seq in 0..frames {
            let batch = seq_batch(
                seq as u64 + 1,
                0,
                per_frame,
                wall + (seq * per_frame) as u64,
            );
            send_wire(&*daemons[0].tx, &batch).unwrap();
        }
        daemons[1].send_sample("M", 1.0);
        let backlog = frames * per_frame;
        set.pump_parallel();
        let landed =
            |set: &DaemonSet, d: u32| set.samples().daemons().iter().filter(|&&x| x == d).count();
        let first = landed(&set, 0);
        assert!(
            (MAX_ROWS_PER_PASS..MAX_ROWS_PER_PASS + per_frame).contains(&first),
            "one pass lands {first} of link 0's {backlog} rows"
        );
        assert_eq!(
            landed(&set, 1),
            1,
            "the link after a backlog is not starved"
        );
        let want = backlog + 1;
        assert_eq!(set.pump_until_samples(want, Duration::from_secs(5)), want);
        assert_eq!(set.conn(0).samples_received(), backlog as u64);
        let values: Vec<f64> = set
            .merged_samples()
            .iter()
            .filter(|s| s.daemon == 0)
            .map(|s| s.value)
            .collect();
        let sent: Vec<f64> = (0..frames)
            .flat_map(|_| (0..per_frame).map(|i| i as f64))
            .collect();
        assert_eq!(values, sent, "every row landed once, in order");
    }

    #[test]
    fn two_conn_borrows_in_one_expression_read_one_link() {
        let (mut set, daemons) = set_with_skews(&[0]);
        daemons[0].send_sample("M", 1.0);
        assert_eq!(set.pump_until_samples(1, Duration::from_secs(5)), 1);
        assert_eq!(
            (set.conn(0).samples_received(), set.conn(0).pif_imports()),
            (1, 0)
        );
    }

    #[test]
    fn mappings_and_streams_flow_through_the_set() {
        let (mut set, daemons) = set_with_skews(&[0, 0]);
        sync(&mut set, &daemons);
        for (i, d) in daemons.iter().enumerate() {
            let _ = send_wire(
                &*d.tx,
                &DaemonMsg::ArrayAllocated {
                    id: i as u32,
                    name: format!("ARR{i}"),
                    extents: vec![64],
                    dist: cmrts_sim::Distribution::Block,
                    subgrids: vec![(i, 32, 32), (i + 2, 32, 32)],
                },
            );
            d.send_sample("Computation Time", 1.0 + i as f64);
        }
        set.pump_until_samples(2, Duration::from_secs(5));
        assert_eq!(set.data().shard_stats(0).imports, 1);
        assert_eq!(set.data().shard_stats(1).imports, 1);
        let axis = set.data().render_where_axis();
        assert!(axis.contains("ARR0") && axis.contains("ARR1"), "{axis}");
        let streams = set.merged_streams();
        assert_eq!(streams.len(), 1, "one (metric, focus) pair");
        assert_eq!(streams[0].len(), 2);
        assert_eq!(streams[0].metric, "Computation Time");
    }

    #[test]
    fn pump_parallel_feeds_all_shards() {
        let (mut set, daemons) = set_with_skews(&[0, 0, 0, 0]);
        for (i, d) in daemons.iter().enumerate() {
            for k in 0..8 {
                d.send_sample("M", (i * 8 + k) as f64);
            }
        }
        let mut total = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while total < 32 && Instant::now() < deadline {
            set.pump_parallel();
            total = set.samples().len();
        }
        assert_eq!(total, 32);
        for i in 0..4 {
            assert_eq!(set.data().shard_stats(i).samples, 8, "shard {i}");
            assert_eq!(set.conn(i).samples_received(), 8);
        }
    }

    /// Thresholds shrunk so a test detects failure in milliseconds, not
    /// seconds.
    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            degrade_after: Duration::from_millis(5),
            quarantine_after: Duration::from_millis(10),
            degrade_errors: 2,
            quarantine_errors: 4,
            retry: pdmap_transport::ReconnectPolicy {
                max_attempts: 10,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
                jitter_seed: 1,
            },
            retry_sync_rounds: 2,
            retry_sync_timeout: Duration::from_millis(500),
            adopt_orphans: false,
        }
    }

    /// Spawns a throwaway fake daemon behind a reconnect factory: each
    /// call opens a fresh in-process link with an answering thread on the
    /// far end, exactly what a restarted `pdmapd` looks like to the tool.
    fn reconnectable_fake(skew_ns: i64) -> ReconnectFn {
        Box::new(move || {
            let link = Backend::InProc.link(&TransportConfig::default());
            let server = link.server.clone();
            std::thread::spawn(move || {
                let fd = FakeDaemon {
                    tx: server,
                    skew_ns,
                };
                let deadline = Instant::now() + Duration::from_secs(5);
                while fd.tx.is_alive() && Instant::now() < deadline {
                    fd.answer_probes();
                    std::thread::yield_now();
                }
            });
            link.client
        })
    }

    #[test]
    fn a_pass_lends_every_link_and_puts_each_back_in_place() {
        let (mut set, daemons) = set_with_skews(&[0, 0, 0]);
        set.set_policy(fast_policy());
        let in_place = |set: &DaemonSet| (0..3).all(|i| set.conn(i).addr() == format!("fake#{i}"));
        for _ in 0..fast_policy().quarantine_errors {
            daemons[1].tx.send(FrameKind::Daemon, vec![77]).unwrap(); // unknown tag
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while set.health(1) != DaemonHealth::Quarantined && Instant::now() < deadline {
            set.pump_parallel();
            assert!(
                in_place(&set),
                "every pass puts each link back at its index"
            );
            set.supervise();
            std::thread::yield_now();
        }
        assert_eq!(set.health(1), DaemonHealth::Quarantined);

        for (i, d) in daemons.iter().enumerate() {
            d.send_sample("M", i as f64);
        }
        set.pump_parallel();
        let mut rows = set.samples().daemons().to_vec();
        rows.sort_unstable();
        assert_eq!(rows, [0, 2], "the quarantined link's sample stays queued");
        assert_eq!(set.len(), 3);
        for i in 0..3 {
            assert_eq!(set.conn(i).addr(), format!("fake#{i}"));
            assert_eq!(
                set.conn(i).samples_received(),
                u64::from(i != 1),
                "link {i}"
            );
        }
        assert_eq!(set.health(1), DaemonHealth::Quarantined);
    }

    /// A tool-side transport whose second `try_recv` panics, once the
    /// first has handed over a frame: a drain that panics mid-pass.
    struct PanicsOnce {
        inner: Arc<dyn Transport>,
        calls: AtomicU64,
    }

    impl Transport for PanicsOnce {
        fn send(&self, kind: FrameKind, payload: Vec<u8>) -> Result<(), TransportError> {
            self.inner.send(kind, payload)
        }
        fn try_recv(&self) -> Result<Option<Frame>, TransportError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) == 1 {
                panic!("injected drain panic");
            }
            self.inner.try_recv()
        }
        fn stats(&self) -> TransportStats {
            self.inner.stats()
        }
        fn is_alive(&self) -> bool {
            self.inner.is_alive()
        }
        fn close(&self) {
            self.inner.close()
        }
        fn backend_name(&self) -> &'static str {
            "panics-once"
        }
    }

    #[test]
    fn a_panicking_drain_reaches_the_caller_with_every_link_back() {
        let cfg = TransportConfig::default();
        let (l0, l1) = (Backend::InProc.link(&cfg), Backend::InProc.link(&cfg));
        let panicky = Arc::new(PanicsOnce {
            inner: l1.client,
            calls: AtomicU64::new(0),
        });
        let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 2));
        let transports: Vec<(String, Arc<dyn Transport>)> =
            vec![("fake#0".into(), l0.client), ("fake#1".into(), panicky)];
        let mut set = DaemonSet::over_transports(transports, data);
        let daemons = [l0.server, l1.server].map(|tx| FakeDaemon { tx, skew_ns: 0 });
        daemons[0].send_sample("M", 0.0);
        daemons[1].send_sample("M", 1.0);
        daemons[1].send_sample("M", 2.0);

        // Pumped on a helper thread, so a pass that never ends fails the
        // wait below instead of hanging the suite.
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let pumped = panic::catch_unwind(AssertUnwindSafe(|| set.pump_parallel()));
            let _ = tx.send((set, pumped));
        });
        let (mut set, pumped) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("pump_parallel returns after a drain panicked");
        helper.join().unwrap();
        let payload = pumped.expect_err("the drain's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected drain panic")
        );
        assert_eq!(set.len(), 2);
        for i in 0..2 {
            assert_eq!(set.conn(i).addr(), format!("fake#{i}"));
        }
        // Link 0's sample and the one link 1 landed before its panic are in
        // the store, in link order, as in each link's books.
        assert_eq!(set.samples().daemons(), [0, 1]);
        for i in 0..2 {
            assert_eq!(set.conn(i).samples_received(), 1, "link {i}");
            assert_eq!(set.data().shard_stats(i).samples, 1, "shard {i}");
        }

        // The workers survived: the next pass lands link 1's next sample.
        set.pump_parallel();
        assert_eq!(set.samples().daemons(), [0, 1, 1]);
        assert_eq!(set.samples().values().last(), Some(&2.0));
        assert_eq!(set.conn(1).samples_received(), 2);
    }

    #[test]
    fn dead_daemon_is_quarantined_then_readmitted() {
        let (mut set, daemons) = set_with_skews(&[0, 0]);
        sync(&mut set, &daemons);
        set.set_policy(fast_policy());
        assert!(set.coverage().is_complete());

        // Kill daemon 0's link; daemon 1 keeps talking (its samples keep
        // its heartbeat fresh, so only the dead link degrades).
        daemons[0].tx.close();
        std::thread::sleep(Duration::from_millis(15));
        let deadline = Instant::now() + Duration::from_secs(5);
        while set.health(0) != DaemonHealth::Quarantined && Instant::now() < deadline {
            daemons[1].send_sample("keepalive", 0.0);
            set.pump_parallel();
            set.supervise();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(set.health(0), DaemonHealth::Quarantined);
        assert_eq!(set.health(1), DaemonHealth::Healthy);
        let cov = set.coverage();
        assert_eq!(
            (cov.nodes_reporting, cov.nodes_total),
            (1, 2),
            "lost node must show in coverage: {cov}"
        );
        assert!(!cov.is_complete());

        // The daemon "restarts": readmission re-dials through the factory,
        // re-syncs the clock, and coverage returns to complete.
        set.set_reconnect(0, reconnectable_fake(0));
        supervise_until(&mut set, |s| s.health(0) != DaemonHealth::Quarantined);
        assert!(
            matches!(
                set.health(0),
                DaemonHealth::Recovered | DaemonHealth::Healthy
            ),
            "daemon 0 should be readmitted, is {:?}",
            set.health(0)
        );
        assert_eq!(set.coverage().nodes_reporting, 2);
        let rec = &set.recoveries()[0];
        assert_eq!(rec.daemon, 0);
        assert_eq!(rec.gap, None, "died unannounced: gap unknowable");
        assert!(set.conn(0).clock().rounds > 0, "clock re-synced on readmit");
    }

    #[test]
    fn a_readmitted_daemons_first_sample_lands_on_its_new_clock() {
        // A daemon synced at skew 0 dies. Its restart runs 500 ms ahead
        // and sends a sample before it answers any probe: the readmission
        // sync holds the sample and lands it on the new estimate, not on
        // the dead process's clock.
        let (mut set, daemons) = set_with_skews(&[0]);
        sync(&mut set, &daemons);
        set.set_policy(SupervisorPolicy {
            retry_sync_timeout: Duration::from_secs(5),
            ..fast_policy()
        });
        daemons[0].tx.close();
        supervise_until(&mut set, |s| s.health(0) == DaemonHealth::Quarantined);
        assert_eq!(set.health(0), DaemonHealth::Quarantined);

        let skew_ns = 500_000_000;
        let sent_at = Arc::new(AtomicU64::new(0));
        let stamp = sent_at.clone();
        set.set_reconnect(
            0,
            Box::new(move || {
                let link = Backend::InProc.link(&TransportConfig::default());
                let fd = FakeDaemon {
                    tx: link.server.clone(),
                    skew_ns,
                };
                let stamp = stamp.clone();
                std::thread::spawn(move || {
                    let t = pdmap_obs::now_ns();
                    stamp.store(t, Ordering::Relaxed);
                    let wall = (t as i64 + FAKE_CLOCK_BASE_NS + skew_ns) as u64;
                    let first = DaemonMsg::Sample {
                        metric: "restarted".into(),
                        focus: "/".into(),
                        wall,
                        value: 1.0,
                    };
                    let _ = send_wire(&*fd.tx, &first);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while fd.tx.is_alive() && Instant::now() < deadline {
                        fd.answer_probes();
                        std::thread::yield_now();
                    }
                });
                link.client
            }),
        );
        supervise_until(&mut set, |s| !s.recoveries().is_empty());
        assert_eq!(set.recoveries().len(), 1, "readmitted on the first retry");

        let est = set.conn(0).clock();
        let bound = est.rtt_ns / 2 + 5_000_000;
        let moved = (est.offset_ns - (FAKE_CLOCK_BASE_NS + skew_ns)).unsigned_abs();
        assert!(
            moved <= bound,
            "new offset {} (rtt {})",
            est.offset_ns,
            est.rtt_ns
        );
        let cols = set.samples();
        let row = (0..cols.len())
            .find(|&i| cols.keys()[i].pair().0.as_str() == "restarted")
            .expect("the sample landed with the readmission");
        let sent = sent_at.load(Ordering::Relaxed);
        let off = (cols.aligneds()[row] as i64 - sent as i64).unsigned_abs();
        assert!(
            off <= bound,
            "the first sample landed {off} ns from its send time (offset {}, rtt {})",
            est.offset_ns,
            est.rtt_ns
        );
    }

    #[test]
    fn a_readmission_that_is_never_answered_stalls_no_supervise_pass() {
        let (mut set, daemons) = set_with_skews(&[0]);
        sync(&mut set, &daemons);
        set.set_policy(SupervisorPolicy {
            retry_sync_rounds: 2,
            retry_sync_timeout: Duration::from_secs(1),
            ..fast_policy()
        });
        daemons[0].tx.close();
        supervise_until(&mut set, |s| s.health(0) == DaemonHealth::Quarantined);
        assert_eq!(set.health(0), DaemonHealth::Quarantined);

        // The restart takes the link but never answers a probe.
        let dials = Arc::new(AtomicU64::new(0));
        let restarts: Arc<Mutex<Vec<Arc<dyn Transport>>>> = Arc::default();
        let (d, r) = (dials.clone(), restarts.clone());
        set.set_reconnect(
            0,
            Box::new(move || {
                d.fetch_add(1, Ordering::Relaxed);
                let link = Backend::InProc.link(&TransportConfig::default());
                lock(&r).push(link.server);
                link.client
            }),
        );

        // The pass that dials returns at once, the sync still in flight.
        let deadline = Instant::now() + Duration::from_secs(5);
        let took = loop {
            assert!(Instant::now() < deadline, "the retry never came due");
            let t = Instant::now();
            set.supervise();
            if dials.load(Ordering::Relaxed) > 0 {
                break t.elapsed();
            }
            std::thread::yield_now();
        };
        let dialed = Instant::now();
        assert!(
            took < Duration::from_millis(500),
            "the dialing pass took {took:?}"
        );
        assert!(set.conn(0).syncing(), "the sync is left to later passes");
        assert_eq!(set.health(0), DaemonHealth::Quarantined);

        // Later passes pace it: two probes of a second each, then the sync
        // fails, the fresh link is closed and the retry backs off.
        supervise_until(&mut set, |s| !s.conn(0).syncing());
        assert!(!set.conn(0).syncing(), "the sync ended");
        assert!(dialed.elapsed() >= Duration::from_millis(1_900));
        assert_eq!(set.health(0), DaemonHealth::Quarantined);
        assert!(set.recoveries().is_empty());
        assert!(!set.conn(0).transport().is_alive());
        assert_eq!(set.conns[0].retry_attempt, 1);
        assert!(set.conns[0].next_retry.is_some());
        assert_eq!(dials.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clock_sync_failure_names_the_daemon_and_spares_the_rest() {
        // Daemon 1 never answers probes; daemon 0 is healthy.
        let (mut set, daemons) = set_with_skews(&[0, 0]);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let err = std::thread::scope(|s| {
            let stop = &stop;
            let d0 = &daemons[0];
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    d0.answer_probes();
                    std::thread::yield_now();
                }
            });
            let err = set
                .clock_sync(2, Duration::from_millis(100))
                .expect_err("daemon 1 must fail the sync");
            stop.store(true, Ordering::Relaxed);
            err
        });
        assert_eq!(err.daemon, 1);
        assert_eq!(err.addr, "fake#1");
        assert!(err.to_string().contains("fake#1"), "{err}");
        // The failure quarantined 1 but daemon 0 is synced and usable.
        assert_eq!(set.health(1), DaemonHealth::Quarantined);
        assert_eq!(set.health(0), DaemonHealth::Healthy);
        assert!(set.conn(0).clock().rounds > 0);
        daemons[0].send_sample("M", 7.0);
        assert_eq!(set.pump_until_samples(1, Duration::from_secs(5)), 1);
        let cov = set.merged_samples().coverage();
        assert_eq!((cov.nodes_reporting, cov.nodes_total), (1, 2));
    }

    #[test]
    fn goodbye_makes_sample_loss_exact() {
        let (mut set, daemons) = set_with_skews(&[0]);
        sync(&mut set, &daemons);
        for i in 0..3 {
            daemons[0].send_sample("M", i as f64);
        }
        set.pump_until_samples(3, Duration::from_secs(5));
        assert_eq!(set.coverage().samples_lost, 0);

        // The daemon claims it sent 5; we saw 3 — exactly 2 lost.
        let _ = send_wire(&*daemons[0].tx, &DaemonMsg::Goodbye { samples_sent: 5 });
        pump_until_goodbye(&mut set, 0);
        assert_eq!(set.conn(0).announced_sent(), Some(5));
        assert_eq!(set.conn(0).samples_lost(), 2);
        let cov = set.merged_samples().coverage();
        assert_eq!(cov.samples_lost, 2, "loss is a bound, never silent: {cov}");
        assert!(!cov.is_complete());
    }

    #[test]
    fn complete_coverage_bounds_collapse_to_points() {
        let cov = Coverage::complete(4);
        assert_eq!(cov.missing_fraction(), 0.0);
        let iv = cov.bound_mass(3.5, 10.0);
        assert!(iv.is_point(), "{iv}");
        assert_eq!(iv.lo, 3.5);
    }

    #[test]
    fn node_deficit_and_lost_samples_widen_monotonically() {
        // 3 of 4 reporting, no lost samples: hi scales by 4/3, lo stays.
        let cov34 = Coverage {
            nodes_reporting: 3,
            nodes_total: 4,
            samples_lost: 0,
        };
        let iv = cov34.bound_mass(3.0, 1.0);
        assert_eq!(iv.lo, 3.0);
        assert!((iv.hi - 4.0).abs() < 1e-12, "{iv}");

        // Lost samples add max-cost mass before the node scaling.
        let mut widths = Vec::new();
        for lost in 0..5u64 {
            let cov = Coverage {
                samples_lost: lost,
                ..cov34
            };
            widths.push(cov.bound_mass(3.0, 1.0).width());
        }
        assert!(
            widths.windows(2).all(|w| w[0] < w[1]),
            "width monotone in loss: {widths:?}"
        );

        // And monotone in the node deficit too.
        let mut deficit_widths = Vec::new();
        for reporting in (1..=4usize).rev() {
            let cov = Coverage {
                nodes_reporting: reporting,
                nodes_total: 4,
                samples_lost: 0,
            };
            deficit_widths.push(cov.bound_mass(3.0, 1.0).width());
        }
        assert!(
            deficit_widths.windows(2).all(|w| w[0] < w[1]),
            "width monotone in deficit: {deficit_widths:?}"
        );
    }

    #[test]
    fn zero_reporting_nodes_bound_nothing() {
        let cov = Coverage {
            nodes_reporting: 0,
            nodes_total: 4,
            samples_lost: 0,
        };
        let iv = cov.bound_mass(0.0, 1.0);
        assert_eq!(iv.lo, 0.0);
        assert!(iv.hi.is_infinite());
    }

    #[test]
    fn session_coverage_tracks_max_sample() {
        let (mut set, daemons) = set_with_skews(&[0]);
        sync(&mut set, &daemons);
        daemons[0].send_sample("M", 2.0);
        daemons[0].send_sample("M", 7.0);
        daemons[0].send_sample("M", 3.0);
        set.pump_until_samples(3, Duration::from_secs(5));
        let label = set.session_coverage();
        assert_eq!(label.max_sample_cost, 7.0);
        assert!(label.coverage.is_complete());
    }

    #[test]
    fn shutdown_all_collects_goodbyes() {
        let (mut set, daemons) = set_with_skews(&[0, 0]);
        sync(&mut set, &daemons);
        for (i, d) in daemons.iter().enumerate() {
            d.send_sample("M", i as f64);
        }
        set.pump_until_samples(2, Duration::from_secs(5));

        // Fake the daemon side of graceful shutdown: on Shutdown, reply
        // with a Goodbye announcing the true send count.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let cov = std::thread::scope(|s| {
            let stop = &stop;
            for d in &daemons {
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        while let Ok(Some(frame)) = d.tx.try_recv() {
                            if matches!(DaemonMsg::from_frame(&frame), Ok(DaemonMsg::Shutdown)) {
                                let _ = send_wire(&*d.tx, &DaemonMsg::Goodbye { samples_sent: 1 });
                            }
                        }
                        std::thread::yield_now();
                    }
                });
            }
            let cov = set.shutdown_all(Duration::from_secs(5));
            stop.store(true, Ordering::Relaxed);
            cov
        });
        assert_eq!((cov.nodes_reporting, cov.nodes_total), (2, 2));
        assert_eq!(cov.samples_lost, 0, "everything announced was received");
        assert!(cov.is_complete());
        assert_eq!(set.conn(0).announced_sent(), Some(1));
        assert_eq!(set.conn(1).announced_sent(), Some(1));
    }

    #[test]
    fn drain_pool_is_built_once_and_reused() {
        let (mut set, daemons) = set_with_skews(&[0, 0, 0]);
        assert_eq!(set.pool_size(), None, "no pool before the first drain");
        for d in &daemons {
            d.send_sample("M", 1.0);
        }
        set.pump_until_samples(3, Duration::from_secs(5));
        let size = set.pool_size().expect("pool built by first parallel drain");
        assert!((1..=3).contains(&size), "min(conns, cores): {size}");
        for d in &daemons {
            d.send_sample("M", 2.0);
        }
        set.pump_until_samples(6, Duration::from_secs(5));
        assert_eq!(set.pool_size(), Some(size), "pool persists across drains");
        assert_eq!(set.samples().len(), 6);
    }

    #[test]
    fn sample_batches_drain_like_individual_samples() {
        let (mut set, daemons) = set_with_skews(&[0]);
        sync(&mut set, &daemons);
        let wall = daemons[0].now();
        let batch = pdmap_transport::SampleBatch {
            samples: (0..5)
                .map(|i| pdmap_transport::BatchSample {
                    metric: "M".into(),
                    focus: "/".into(),
                    wall: wall + i * 1_000,
                    value: i as f64,
                })
                .collect(),
            ..Default::default()
        };
        send_wire(&*daemons[0].tx, &batch).unwrap();
        assert_eq!(set.pump_until_samples(5, Duration::from_secs(5)), 5);
        assert_eq!(set.conn(0).samples_received(), 5);
        assert_eq!(set.data().shard_stats(0).samples, 5);
        let merged = set.merged_samples();
        let values: Vec<f64> = merged.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn batches_loose_samples_and_telemetry_land_on_one_spine() {
        // One link 40 ms fast: a sequenced batch lands before the clock
        // sync, then loose samples on the same keys and a batch of `Obs *`
        // telemetry rows. Walls rise with send order; the rows drained
        // before the sync keep offset 0, so they sort after the synced ones.
        let (mut set, daemons) = set_with_skews(&[40_000_000]);
        let d = &daemons[0];
        let base = d.now();
        let telemetry = obs_focus("daemon", "fake#0");
        let obs_time = obs_time_metric("daemon", "deliver");
        let obs_count = obs_count_metric("daemon", "deliver");
        let sent: Vec<(&str, &str, f64)> = vec![
            ("CPU time", "/", 1.5),
            ("Summations", "/CMFarrays/bow.fcm", 2.0),
            ("CPU time", "/", 2.5),
            ("Summations", "/CMFarrays/bow.fcm", 96.0),
            ("CPU time", "/", 0.25),
            (obs_time.as_str(), telemetry.as_str(), 3.0),
            (obs_count.as_str(), telemetry.as_str(), 4.0),
        ];
        let wall = |k: usize| base + k as u64 * 1_000;
        let batch = |seq: u64, range: std::ops::Range<usize>| pdmap_transport::SampleBatch {
            samples: range
                .map(|k| pdmap_transport::BatchSample {
                    metric: sent[k].0.into(),
                    focus: sent[k].1.into(),
                    wall: wall(k),
                    value: sent[k].2,
                })
                .collect(),
            seq,
            ..Default::default()
        };
        send_wire(&*d.tx, &batch(1, 0..2)).unwrap();
        assert_eq!(set.pump_until_samples(2, Duration::from_secs(5)), 2);
        assert_eq!(
            set.samples().aligneds(),
            &[wall(0), wall(1)],
            "before the sync a sample lands on its own clock"
        );

        sync(&mut set, &daemons);
        for (k, &(metric, focus, value)) in sent.iter().enumerate().take(5).skip(2) {
            let msg = DaemonMsg::Sample {
                metric: metric.into(),
                focus: focus.into(),
                wall: wall(k),
                value,
            };
            send_wire(&*d.tx, &msg).unwrap();
        }
        send_wire(&*d.tx, &batch(2, 5..7)).unwrap();
        assert_eq!(set.pump_until_samples(7, Duration::from_secs(5)), 7);

        let offset = set.conn(0).clock().offset_ns;
        let skew = FAKE_CLOCK_BASE_NS + 40_000_000;
        assert!(
            (offset - skew).abs() < 20_000_000,
            "the skew was estimated: {offset}"
        );
        let tool = |k: usize| (wall(k) as i64 - offset).max(0) as u64;
        let landed = |k: usize| if k < 2 { wall(k) } else { tool(k) };
        assert_eq!(
            set.samples().aligneds(),
            (0..7).map(landed).collect::<Vec<_>>(),
            "each row keeps the offset its link had when it landed"
        );

        // One stream per key, keys in first-seen merge order.
        let stream = |ks: &[usize]| Stream {
            metric: sent[ks[0]].0.into(),
            focus: sent[ks[0]].1.into(),
            samples: ks.iter().map(|&k| (landed(k), sent[k].2)).collect(),
            ..Stream::default()
        };
        let want = vec![
            stream(&[2, 4, 0]),
            stream(&[3, 1]),
            stream(&[5]),
            stream(&[6]),
        ];
        assert_eq!(format!("{:?}", *set.merged_streams()), format!("{want:?}"));

        let node = set.fleet_health().node(&telemetry).expect("batched node");
        assert_eq!(node.samples, 2);
        assert_eq!(node.metric(&obs_count), Some(4.0));
        assert_eq!(set.fleet_health().len(), 1, "app samples are not nodes");
        assert_eq!(set.session_coverage().max_sample_cost, 96.0);
    }

    #[test]
    fn relay_subtree_coverage_composes_into_the_sets() {
        // Conn 0 is a leaf (1/1); conn 1 is a relay standing for a 4-node
        // subtree with one node already dark and 3 samples lost below it.
        let (mut set, daemons) = set_with_skews(&[0, 0]);
        sync(&mut set, &daemons);
        send_wire(
            &*daemons[1].tx,
            &DaemonMsg::SubtreeCoverage {
                nodes_reporting: 3,
                nodes_total: 4,
                samples_lost: 3,
            },
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while set.conn(1).subtree_coverage().is_none() && Instant::now() < deadline {
            set.pump_parallel();
        }
        assert_eq!(
            set.conn(1).subtree_coverage(),
            Some(Coverage {
                nodes_reporting: 3,
                nodes_total: 4,
                samples_lost: 3,
            })
        );
        let cov = set.coverage();
        assert_eq!((cov.nodes_reporting, cov.nodes_total), (4, 5));
        assert_eq!(cov.samples_lost, 3);

        // Quarantining the relay must cost its whole subtree, not one node.
        set.set_policy(fast_policy());
        daemons[1].tx.close();
        supervise_until(&mut set, |s| s.health(1) == DaemonHealth::Quarantined);
        let cov = set.coverage();
        assert_eq!(
            (cov.nodes_reporting, cov.nodes_total),
            (1, 5),
            "a dark relay removes its entire subtree from coverage"
        );
    }

    /// Ships a synthetic telemetry snapshot — the rows `pdmapd --obs-period`
    /// would send — for a node reporting as `focus`.
    fn send_telemetry(d: &FakeDaemon, focus: &str) {
        d.send_focused(&obs_time_metric("daemon", "deliver"), focus, 2_000_000.0);
        d.send_focused(&obs_count_metric("daemon", "deliver"), focus, 4.0);
        d.send_focused(OBS_PERTURB_SPANS, focus, 4.0);
        d.send_focused(OBS_PERTURB_NULL, focus, 25.0);
        d.send_focused(OBS_PERTURB_OVERHEAD, focus, 100.0);
        d.send_focused(OBS_PERTURB_REPORTED, focus, 2_000_000.0);
    }

    #[test]
    fn fleet_health_assembles_nodes_and_answers_remote_questions() {
        let (mut set, daemons) = set_with_skews(&[0]);
        sync(&mut set, &daemons);
        let focus = obs_focus("daemon", "fake#0");
        send_telemetry(&daemons[0], &focus);
        daemons[0].send_sample("Computation Time", 1.0); // app data, not telemetry
        set.pump_until_samples(7, Duration::from_secs(5));

        let health = set.fleet_health();
        assert_eq!(health.len(), 1, "app samples must not create nodes");
        let node = health.node(&focus).expect("node visible");
        assert_eq!(node.daemon, 0);
        assert_eq!(node.samples, 6);
        assert_eq!(node.metric(OBS_PERTURB_SPANS), Some(4.0));

        // The SAS question about the remote node, answered from telemetry.
        let ns = Namespace::new();
        assert_eq!(
            set.ask_fleet_obs(&ns, &focus, "daemon", "deliver"),
            Some(2_000_000),
            "remote span-site question answered from streamed rows"
        );
        assert_eq!(
            set.ask_fleet_obs(&ns, &focus, "daemon", "send"),
            None,
            "a site the node never ran is not satisfied"
        );
        assert_eq!(
            set.ask_fleet_obs(&ns, "Tool/daemon:unknown", "daemon", "deliver"),
            None,
            "an unreported node is not satisfied"
        );
    }

    #[test]
    fn fleet_perturbation_aggregates_across_nodes() {
        let (mut set, daemons) = set_with_skews(&[0, 0]);
        sync(&mut set, &daemons);
        assert!(set.fleet_perturbation().is_none(), "no telemetry yet");
        send_telemetry(&daemons[0], &obs_focus("daemon", "fake#0"));
        send_telemetry(&daemons[1], &obs_focus("daemon", "fake#1"));
        set.pump_until_samples(12, Duration::from_secs(5));
        let p = set.fleet_perturbation().expect("both nodes reported");
        assert_eq!(p.nodes, 2);
        assert_eq!(p.spans, 8);
        assert_eq!(p.overhead_ns, 200);
        assert_eq!(p.reported_ns, 4_000_000);
        assert!((p.overhead_fraction() - 200.0 / 4_000_000.0).abs() < 1e-12);
        let banner = p.to_string();
        assert!(banner.contains("2 nodes"), "{banner}");
        assert!(banner.contains('%'), "{banner}");
    }

    #[test]
    fn stale_telemetry_degrades_a_chatty_connection() {
        let (mut set, daemons) = set_with_skews(&[0]);
        sync(&mut set, &daemons);
        set.set_policy(fast_policy());
        let focus = obs_focus("daemon", "fake#0");
        send_telemetry(&daemons[0], &focus);
        set.pump_until_samples(6, Duration::from_secs(5));
        assert_eq!(set.supervise().nodes_reporting, 1);
        assert_eq!(set.health(0), DaemonHealth::Healthy, "fresh telemetry");

        // Telemetry stops but application traffic keeps the heartbeat
        // fresh: silence-based degrade must NOT fire, staleness must.
        std::thread::sleep(Duration::from_millis(10));
        daemons[0].send_sample("keepalive", 0.0);
        set.pump_parallel();
        set.supervise();
        assert_eq!(
            set.health(0),
            DaemonHealth::Degraded,
            "stale telemetry degrades even a chatty link"
        );
        assert_eq!(
            set.fleet_health()
                .stale(set.policy().degrade_after)
                .first()
                .map(|n| n.label.as_str()),
            Some(focus.as_str()),
            "the stale node is named"
        );

        // Fresh telemetry clears the flag at the next pass.
        send_telemetry(&daemons[0], &focus);
        set.pump_until_samples(13, Duration::from_secs(5));
        set.supervise();
        assert_eq!(set.health(0), DaemonHealth::Healthy, "recovers on traffic");
    }

    fn seq_batch(seq: u64, epoch: u64, n: usize, wall: u64) -> pdmap_transport::SampleBatch {
        pdmap_transport::SampleBatch {
            samples: (0..n)
                .map(|i| pdmap_transport::BatchSample {
                    metric: "M".into(),
                    focus: "/".into(),
                    wall: wall + i as u64,
                    value: i as f64,
                })
                .collect(),
            epoch,
            seq,
            sources: Vec::new(),
        }
    }

    #[test]
    fn replayed_batches_are_suppressed_by_the_seq_watermark() {
        let (mut set, daemons) = set_with_skews(&[0]);
        sync(&mut set, &daemons);
        let wall = daemons[0].now();
        send_wire(&*daemons[0].tx, &seq_batch(1, 0, 3, wall)).unwrap();
        send_wire(&*daemons[0].tx, &seq_batch(2, 0, 2, wall)).unwrap();
        assert_eq!(set.pump_until_samples(5, Duration::from_secs(5)), 5);
        assert_eq!(set.conn(0).replays_suppressed(), 0);

        // A handover replays seq 2 under a bumped epoch: exactly one
        // suppression, zero new samples.
        send_wire(&*daemons[0].tx, &seq_batch(2, 1, 2, wall)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while set.conn(0).replays_suppressed() == 0 && Instant::now() < deadline {
            set.pump_parallel();
            std::thread::yield_now();
        }
        assert_eq!(set.conn(0).replays_suppressed(), 1);
        assert_eq!(set.conn(0).samples_received(), 5, "no double count");

        // Fresh seqs past the watermark still land; legacy unsequenced
        // batches (seq 0) are never deduped.
        send_wire(&*daemons[0].tx, &seq_batch(3, 1, 1, wall)).unwrap();
        send_wire(&*daemons[0].tx, &seq_batch(0, 0, 1, wall)).unwrap();
        assert_eq!(set.pump_until_samples(7, Duration::from_secs(5)), 7);
        assert_eq!(set.conn(0).replays_suppressed(), 1);
    }

    #[test]
    fn recovery_summary_rolls_up_readmissions_and_reparents() {
        let (mut set, _daemons) = set_with_skews(&[0]);
        assert!(set.recovery_summary().is_none(), "clean session: no banner");
        set.recoveries.push(RecoveryReport {
            daemon: 0,
            addr: "a".into(),
            attempts: 1,
            gap: Some(2),
        });
        set.reparents.push(ReparentReport {
            daemon: 0,
            addr: "a".into(),
            subtree: vec!["b".into(), "c".into()],
            epoch: 1,
        });
        let s = set.recovery_summary().unwrap();
        assert_eq!(
            (s.readmissions, s.reparents, s.nodes_rehomed, s.gap),
            (1, 1, 2, 2)
        );
        assert_eq!(
            s.to_string(),
            "1 readmissions, 1 re-parents (2 nodes re-homed), >=2 samples gap"
        );
    }

    /// A dialer seam standing in for the orphaned child of a dead relay:
    /// every dial opens an in-process link whose far end answers clock
    /// probes and records the [`TopologyMsg`] watermark seeds it is sent,
    /// then hands the server end to the test once the helper stops.
    struct OrphanDialer {
        seeds: Arc<Mutex<Vec<TopologyMsg>>>,
        servers: Arc<Mutex<Vec<Arc<dyn Transport>>>>,
        stop: Arc<std::sync::atomic::AtomicBool>,
    }

    impl OrphanDialer {
        fn new() -> Self {
            Self {
                seeds: Arc::new(Mutex::new(Vec::new())),
                servers: Arc::new(Mutex::new(Vec::new())),
                stop: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            }
        }

        fn dialer(&self) -> DialFn {
            let seeds = self.seeds.clone();
            let servers = self.servers.clone();
            let stop = self.stop.clone();
            Arc::new(move |_addr| {
                let link = Backend::InProc.link(&TransportConfig::default());
                lock(&servers).push(link.server.clone());
                let server = link.server.clone();
                let seeds = seeds.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                        while let Ok(Some(frame)) = server.try_recv() {
                            match frame.kind {
                                FrameKind::Topology => {
                                    if let Ok(msg) = TopologyMsg::from_frame(&frame) {
                                        lock(&seeds).push(msg);
                                    }
                                }
                                FrameKind::Daemon => {
                                    if let Ok(DaemonMsg::ClockProbe { token, t_tool_ns }) =
                                        DaemonMsg::from_frame(&frame)
                                    {
                                        let _ = send_wire(
                                            &*server,
                                            &DaemonMsg::ClockReply {
                                                token,
                                                t_tool_ns,
                                                t_daemon_ns: pdmap_obs::now_ns(),
                                            },
                                        );
                                    }
                                }
                                _ => {}
                            }
                        }
                        std::thread::yield_now();
                    }
                });
                link.client
            })
        }
    }

    /// A one-link set whose link is a relay with orphan adoption on and
    /// `dialer` standing in for its child: the relay announced `child`,
    /// and its batch carries a source mark proving the child's data
    /// through seq 2 (5 samples) already arrived here — a tighter
    /// watermark than the announcement's own (seq 1, 3 samples).
    fn relay_set(child: &str, dialer: &OrphanDialer) -> (DaemonSet, Vec<FakeDaemon>) {
        let (mut set, daemons) = set_with_skews(&[0]);
        sync(&mut set, &daemons);
        let mut policy = fast_policy();
        policy.adopt_orphans = true;
        set.set_policy(policy);
        set.set_dialer(dialer.dialer());
        let announcement = TopologyMsg {
            epoch: 0,
            origin: "fake#0".into(),
            children: vec![pdmap_transport::TopoChild {
                addr: child.into(),
                watermark: 1,
                received: 3,
            }],
        };
        send_wire(&*daemons[0].tx, &announcement).unwrap();
        let mut batch = seq_batch(1, 0, 2, daemons[0].now());
        batch.sources = vec![pdmap_transport::SourceMark {
            origin: child.into(),
            through_seq: 2,
            samples: 5,
        }];
        send_wire(&*daemons[0].tx, &batch).unwrap();
        assert_eq!(set.pump_until_samples(2, Duration::from_secs(5)), 2);
        assert!(set.conn(0).topology().is_some(), "announcement folded in");
        (set, daemons)
    }

    /// Runs supervision passes until `done` holds (at most five seconds).
    fn supervise_until(set: &mut DaemonSet, done: impl Fn(&DaemonSet) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(set) && Instant::now() < deadline {
            set.supervise();
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Pumps until conn `i`'s Goodbye has arrived (at most five seconds).
    fn pump_until_goodbye(set: &mut DaemonSet, i: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while set.conn(i).announced_sent().is_none() && Instant::now() < deadline {
            set.pump_parallel();
            std::thread::yield_now();
        }
    }

    #[test]
    fn quarantined_relay_subtree_is_adopted_with_exact_watermarks() {
        let child = "127.0.0.1:47101";
        let dialer = OrphanDialer::new();
        let (mut set, daemons) = relay_set(child, &dialer);

        // Kill the relay; supervision must quarantine it and re-parent the
        // orphan: dial it, sync it, and seed the *mark's* watermark.
        daemons[0].tx.close();
        supervise_until(&mut set, |s| !s.reparents().is_empty());
        let rep = set.reparents().first().expect("subtree adopted").clone();
        assert_eq!((rep.daemon, rep.epoch), (0, 1));
        assert_eq!(rep.subtree, vec![child.to_string()]);
        assert_eq!(set.len(), 2, "the orphan is now a direct connection");
        assert_eq!(set.conn(1).addr(), child);
        assert!(set.conn(0).is_subtree_adopted());
        assert_eq!(set.epoch(), 1);

        let deadline = Instant::now() + Duration::from_secs(5);
        while lock(&dialer.seeds).is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let seed = lock(&dialer.seeds).first().cloned().expect("seed sent");
        assert_eq!(seed.origin, "tool");
        assert_eq!(seed.children[0].addr, child);
        assert_eq!(
            (seed.children[0].watermark, seed.children[0].received),
            (2, 5),
            "the delivered-atomic source mark beats the stale announcement"
        );

        // The dead relay's subtree no longer counts against coverage (its
        // node reports directly now), and the relay is never re-dialed —
        // a restarted relay re-attaching the child would double count.
        let cov = set.supervise();
        assert_eq!((cov.nodes_reporting, cov.nodes_total), (1, 1), "{cov}");
        assert!(set.recoveries().is_empty(), "no readmission for the relay");

        // End-to-end dedup through the seeded watermark: the orphan
        // replays its ring suffix (seq ≤ 2 suppressed, seq 3 folded).
        dialer.stop.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        let orphan = lock(&dialer.servers).first().cloned().expect("dialed once");
        send_wire(&*orphan, &seq_batch(2, 1, 5, pdmap_obs::now_ns())).unwrap();
        send_wire(&*orphan, &seq_batch(3, 1, 4, pdmap_obs::now_ns())).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while set.conn(1).replays_suppressed() == 0 && Instant::now() < deadline {
            set.pump_parallel();
            std::thread::yield_now();
        }
        assert_eq!(set.conn(1).replays_suppressed(), 1, "replay suppressed");
        assert_eq!(set.conn(1).samples_received(), 4, "only the fresh batch");
        assert_eq!(
            set.recovery_summary().unwrap().nodes_rehomed,
            1,
            "the banner counts the re-homed orphan"
        );
    }

    #[test]
    fn a_relay_that_said_goodbye_is_not_reparented() {
        // A relay says Goodbye only after its children finished or were
        // sent Shutdown: when its link then closes, nobody is orphaned.
        let dialer = OrphanDialer::new();
        let (mut set, daemons) = relay_set("127.0.0.1:47102", &dialer);
        send_wire(&*daemons[0].tx, &DaemonMsg::Goodbye { samples_sent: 2 }).unwrap();
        pump_until_goodbye(&mut set, 0);
        daemons[0].tx.close();
        supervise_until(&mut set, |s| s.health(0) == DaemonHealth::Quarantined);
        set.supervise();
        dialer.stop.store(true, Ordering::Relaxed);
        assert_eq!(set.health(0), DaemonHealth::Quarantined);
        assert!(set.reparents().is_empty(), "no re-parent");
        assert_eq!((set.len(), set.epoch()), (1, 0), "the child is not dialed");
        assert!(set.recovery_summary().is_none(), "nothing to report");
    }

    #[test]
    fn readmitting_an_adopted_daemon_keeps_its_prior_delivery() {
        let dialer = OrphanDialer::new();
        let (mut set, daemons) = relay_set("127.0.0.1:47103", &dialer);
        daemons[0].tx.close();
        supervise_until(&mut set, |s| s.len() == 2);
        dialer.stop.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));

        // The orphan delivered 5 samples to the dead relay and 3 here, and
        // its Goodbye announces all 8: nothing lost.
        let orphan = lock(&dialer.servers).first().cloned().expect("dialed once");
        send_wire(&*orphan, &seq_batch(3, 1, 3, pdmap_obs::now_ns())).unwrap();
        send_wire(&*orphan, &DaemonMsg::Goodbye { samples_sent: 8 }).unwrap();
        pump_until_goodbye(&mut set, 1);
        assert_eq!(set.conn(1).samples_lost(), 0);

        // Its link closes and it is readmitted: the ended life's loss is
        // still zero, in the recovery report and in coverage.
        orphan.close();
        set.set_reconnect(1, reconnectable_fake(0));
        supervise_until(&mut set, |s| !s.recoveries().is_empty());
        assert_eq!(set.recoveries()[0].gap, Some(0), "prior delivery is no gap");
        let cov = set.coverage();
        assert_eq!(cov.samples_lost, 0, "{cov}");
    }

    /// A one-link set over an in-process link, and the link's far end.
    fn one_link(data: Arc<DataManager>) -> (DaemonSet, Arc<dyn Transport>, Arc<dyn Transport>) {
        let link = Backend::InProc.link(&TransportConfig::default());
        let tool_end = link.server.clone();
        let set = DaemonSet::over_transports(vec![("one".into(), tool_end.clone())], data);
        (set, tool_end, link.client)
    }

    #[test]
    fn codec_and_recv_errors_are_counted_and_a_sticky_one_logged_once() {
        // The registry is global to the test binary and other tests raise
        // the same errors concurrently, so check that each counter moved.
        let get = |kind: &str| pdmap_obs::counter(&format!("daemon.error.{kind}")).get();
        let (codec, recv) = (get("codec"), get("recv"));
        let data = Arc::new(DataManager::new(Namespace::new(), "CM Fortran"));
        let (mut set, tool_end, far_end) = one_link(data);
        far_end.send(FrameKind::Daemon, vec![77]).unwrap(); // unknown tag
        set.pump_parallel();
        tool_end.close();
        set.pump_parallel();
        set.pump_parallel();
        let conn = set.conn(0);
        let kinds: Vec<&str> = conn.decode_errors().iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            ["codec", "recv"],
            "a sticky recv error is logged once"
        );
        assert!(get("codec") > codec, "counter for codec");
        assert!(get("recv") >= recv + 2, "every recv failure is counted");
        for err in conn.decode_errors() {
            assert!(err.to_string().contains(err.kind()), "{err}");
        }
    }

    #[test]
    fn pump_until_samples_returns_as_soon_as_want_is_met() {
        let (mut set, daemons) = set_with_skews(&[0]);
        for _ in 0..4 {
            daemons[0].send_sample("M", 0.0);
        }
        let t0 = Instant::now();
        assert_eq!(set.pump_until_samples(4, Duration::from_secs(5)), 4);
        // Everything was already queued: no sleep cycle should be paid.
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(50), "took {took:?}");
    }

    #[test]
    fn machine_drives_the_wire_end_to_end() {
        // The machine's sink is the wire endpoint; the drain runs the same
        // merge as the direct-sink path, so both build one where axis.
        let loaded = || {
            let mut tool = crate::tool::Paradyn::new(cmrts_sim::MachineConfig {
                nodes: 2,
                ..cmrts_sim::MachineConfig::default()
            });
            tool.load_source(cmf_lang::samples::FIGURE4).unwrap();
            tool
        };
        let tool = loaded();
        let (mut set, _, far_end) = one_link(tool.data().clone());
        let mut m = tool.new_machine().unwrap();
        let endpoint = crate::daemon::InstrLibEndpoint::over_transport(far_end);
        m.set_mapping_sink(Arc::new(endpoint)); // replace direct sink
        m.run();
        let n = set.pump_parallel();
        assert!(n >= 2, "A and B allocations crossed the wire, got {n}");
        let direct = loaded();
        direct.new_machine().unwrap().run();
        let axis = tool.render_where_axis();
        assert!(axis.contains("sub#0"), "{axis}");
        assert_eq!(axis, direct.render_where_axis());
    }

    #[test]
    fn an_unapplicable_wire_pif_is_rejected_once() {
        let data = Arc::new(DataManager::new(Namespace::new(), "CM Fortran"));
        let (mut set, _, far_end) = one_link(data);
        let text = "MAPPING\nsource = {a, NoSuchVerb}\ndestination = {b, AlsoMissing}\n";
        for _ in 0..2 {
            send_wire(&*far_end, &PifBlob(text.as_bytes().to_vec())).unwrap();
        }
        set.pump_parallel();
        let conn = set.conn(0);
        assert_eq!(conn.pif_imports(), 2);
        let errors: Vec<&str> = conn.decode_errors().iter().map(|e| e.detail()).collect();
        // The re-shipment is a duplicate of a text already seen.
        assert_eq!(errors, ["pif apply: unknown verb 'NoSuchVerb' in mapping"]);
    }
}
