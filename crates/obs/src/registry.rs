//! The process-wide observability registry.
//!
//! The registry interns span sites, named counters and histograms, and
//! keeps a list of every thread's span ring. Interning takes a lock, but
//! call sites are expected to cache the returned handles (`SpanSite`,
//! `Arc<Counter>`, `Arc<Histogram>`) in a `OnceLock`, so the hot
//! recording paths never touch the registry again.
//!
//! [`snapshot`] copies everything out without stopping writers: counters
//! and histograms are relaxed atomic loads, and span rings are read
//! through their per-slot seqlocks.

use crate::clock::now_ns;
use crate::metrics::{Counter, Histogram, HistogramSnapshot};
use crate::span::{SiteId, SiteSnapshot, SpanEvent, SpanRing, SpanSite, DEFAULT_RING_CAPACITY};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Locks a registry table, recovering from poisoning. A panic while a
/// holder had the lock leaves only interned handles and counters behind —
/// never a torn invariant — so observability must keep working instead of
/// cascading the panic into every later span or counter call.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The span sites the tool stack instruments, as `(component, verb, time
/// description, count description)`. Components double as NV nouns and
/// verbs as NV verbs; `pdmap-paradyn`'s `selfmap` module generates the
/// "Tool" level's Time and Count metric for each site from this table.
pub const KNOWN_SITES: &[(&str, &str, &str, &str)] = &[
    (
        "transport/inproc",
        "send",
        "Nanoseconds spent enqueueing frames on the in-process backend.",
        "Spans recorded enqueueing frames on the in-process backend.",
    ),
    (
        "transport/inproc",
        "deliver",
        "Nanoseconds spent delivering frames from the in-process backend.",
        "Spans recorded delivering frames from the in-process backend.",
    ),
    (
        "transport/tcp",
        "send",
        "Nanoseconds spent sending frames on the TCP backend.",
        "Spans recorded sending frames on the TCP backend.",
    ),
    (
        "transport/tcp",
        "deliver",
        "Nanoseconds spent delivering frames from the TCP backend.",
        "Spans recorded delivering frames from the TCP backend.",
    ),
    (
        "transport/tcp",
        "reconnect",
        "Nanoseconds spent re-establishing lost TCP connections.",
        "Spans recorded re-establishing lost TCP connections.",
    ),
    (
        "daemon",
        "send",
        "Nanoseconds the instrumentation library spent encoding and sending daemon messages.",
        "Spans recorded encoding and sending daemon messages.",
    ),
    (
        "daemon",
        "deliver",
        "Nanoseconds the daemon spent pumping and decoding inbound messages.",
        "Spans recorded pumping and decoding inbound daemon messages.",
    ),
    (
        "sas",
        "push",
        "Nanoseconds spent activating sentences, including forwarding.",
        "Spans recorded activating sentences.",
    ),
    (
        "sas",
        "pop",
        "Nanoseconds spent deactivating sentences, including forwarding.",
        "Spans recorded deactivating sentences.",
    ),
    (
        "sas",
        "evaluate",
        "Nanoseconds spent evaluating performance questions.",
        "Spans recorded evaluating performance questions.",
    ),
    (
        "sas",
        "deliver",
        "Nanoseconds spent applying forwarded sentence updates on receiving nodes.",
        "Spans recorded applying forwarded sentence updates.",
    ),
    (
        "datamgr",
        "import",
        "Nanoseconds the Data Manager spent importing mapping information.",
        "Spans recorded importing mapping information.",
    ),
    (
        "cmrts",
        "step",
        "Nanoseconds the simulated CM-5 spent executing control-processor steps.",
        "Control-processor steps executed by the simulated CM-5.",
    ),
    (
        "consultant",
        "experiment",
        "Nanoseconds the consultant spent evaluating hypothesis experiments.",
        "Hypothesis experiments the consultant evaluated.",
    ),
    (
        "consultant",
        "run",
        "Nanoseconds the consultant spent in multi-focus machine runs.",
        "Multi-focus machine runs the consultant's wave search made.",
    ),
];

struct Registry {
    enabled: AtomicBool,
    next_tid: AtomicU64,
    sites: Mutex<SiteTable>,
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    histograms: Mutex<HashMap<String, Arc<Histogram>>>,
    rings: Mutex<Vec<Arc<SpanRing>>>,
}

#[derive(Default)]
struct SiteTable {
    /// Registration order; index == SiteId.
    entries: Vec<SiteEntry>,
    by_name: HashMap<(String, String), u16>,
}

struct SiteEntry {
    component: String,
    verb: String,
    stats: Arc<crate::span::SiteStats>,
}

fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        enabled: AtomicBool::new(true),
        next_tid: AtomicU64::new(0),
        sites: Mutex::new(SiteTable::default()),
        counters: Mutex::new(HashMap::new()),
        histograms: Mutex::new(HashMap::new()),
        rings: Mutex::new(Vec::new()),
    })
}

/// Whether span/metric recording is on (default: on). Recording calls
/// check this with a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Handles stay valid; disabled
/// spans cost one atomic load.
pub fn set_enabled(on: bool) {
    global().enabled.store(on, Ordering::Relaxed);
}

/// Interns (or finds) the span site `component`/`verb` and returns a
/// cheap clonable handle. Call once and cache the handle.
///
/// # Panics
/// Panics if more than `u16::MAX` distinct sites are registered.
pub fn span_site(component: &str, verb: &str) -> SpanSite {
    let mut table = lock(&global().sites);
    let key = (component.to_string(), verb.to_string());
    if let Some(&id) = table.by_name.get(&key) {
        return SpanSite {
            id: SiteId(id),
            stats: Arc::clone(&table.entries[id as usize].stats),
        };
    }
    let id = u16::try_from(table.entries.len()).expect("too many span sites");
    let stats = Arc::new(crate::span::SiteStats::default());
    table.entries.push(SiteEntry {
        component: key.0.clone(),
        verb: key.1.clone(),
        stats: Arc::clone(&stats),
    });
    table.by_name.insert(key, id);
    SpanSite {
        id: SiteId(id),
        stats,
    }
}

/// Resolves a site id back to its `(component, verb)` names, or `None`
/// for an id never interned (e.g. from a stale snapshot).
pub fn site_name(id: SiteId) -> Option<(String, String)> {
    let table = lock(&global().sites);
    table
        .entries
        .get(id.index())
        .map(|e| (e.component.clone(), e.verb.clone()))
}

/// Interns (or finds) the named counter. Cache the handle.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = lock(&global().counters);
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new())),
    )
}

/// Interns (or finds) the named histogram. Cache the handle.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = lock(&global().histograms);
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new())),
    )
}

thread_local! {
    static THREAD_RING: RingHandle = RingHandle::register();
}

struct RingHandle {
    ring: Arc<SpanRing>,
}

impl RingHandle {
    fn register() -> Self {
        let reg = global();
        let mut rings = lock(&reg.rings);
        // A finished thread's ring passes to the next new thread, so a
        // process that keeps spawning short-lived workers holds no more
        // rings than it ever ran threads at once.
        if let Some(ring) = rings.iter().find(|r| r.reclaim()) {
            return Self {
                ring: Arc::clone(ring),
            };
        }
        let tid = reg.next_tid.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(SpanRing::new(tid, DEFAULT_RING_CAPACITY));
        rings.push(Arc::clone(&ring));
        Self { ring }
    }
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        self.ring.retire();
    }
}

/// Runs `f` with the calling thread's span ring, registering the ring on
/// first use. Returns `None` if the thread is already tearing down its
/// locals (the span is then dropped from the trace but still aggregated).
pub(crate) fn with_thread_ring<R>(f: impl FnOnce(&SpanRing) -> R) -> Option<R> {
    THREAD_RING.try_with(|h| f(&h.ring)).ok()
}

/// A consistent-enough, point-in-time copy of everything the registry
/// holds. Taken without stopping any writer.
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    /// When the snapshot was taken, ns since the process origin.
    pub taken_ns: u64,
    /// Per-site aggregates, in site-id order (registration order).
    pub sites: Vec<SiteSnapshot>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Raw span events from every thread ring, sorted by start time.
    pub spans: Vec<SpanEvent>,
    /// Events lost to ring wraparound across all threads (aggregates in
    /// `sites` still include them).
    pub spans_dropped: u64,
    /// Number of span rings: the most threads that recorded spans at
    /// once (a finished thread's ring passes to a later thread).
    pub threads: u64,
}

impl ObsSnapshot {
    /// Total completed spans across all sites (aggregate counts, immune
    /// to ring wraparound).
    pub fn span_count(&self) -> u64 {
        self.sites.iter().map(|s| s.count).sum()
    }

    /// The aggregate row for one site, if it recorded anything.
    pub fn site(&self, component: &str, verb: &str) -> Option<&SiteSnapshot> {
        self.sites
            .iter()
            .find(|s| s.component == component && s.verb == verb)
    }

    /// The value of one named counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// One named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Snapshots every site, counter, histogram and span ring without
/// stopping writers.
pub fn snapshot() -> ObsSnapshot {
    let reg = global();
    let taken_ns = now_ns();

    let sites = {
        let table = lock(&reg.sites);
        table
            .entries
            .iter()
            .map(|e| SiteSnapshot {
                component: e.component.clone(),
                verb: e.verb.clone(),
                count: e.stats.count.load(Ordering::Relaxed),
                total_ns: e.stats.total_ns.load(Ordering::Relaxed),
                hist: e.stats.hist.snapshot(),
            })
            .collect()
    };

    let mut counters: Vec<(String, u64)> = {
        let map = lock(&reg.counters);
        map.iter().map(|(n, c)| (n.clone(), c.get())).collect()
    };
    counters.sort_by(|a, b| a.0.cmp(&b.0));

    let mut histograms: Vec<(String, HistogramSnapshot)> = {
        let map = lock(&reg.histograms);
        map.iter().map(|(n, h)| (n.clone(), h.snapshot())).collect()
    };
    histograms.sort_by(|a, b| a.0.cmp(&b.0));

    let mut spans = Vec::new();
    let mut spans_dropped = 0u64;
    let rings: Vec<Arc<SpanRing>> = lock(&reg.rings).clone();
    for ring in &rings {
        spans_dropped += ring.snapshot_into(&mut spans);
    }
    spans.sort_by_key(|e| (e.start_ns, e.tid, e.seq));

    ObsSnapshot {
        taken_ns,
        sites,
        counters,
        histograms,
        spans,
        spans_dropped,
        threads: rings.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{record_span, span};

    #[test]
    fn interning_is_stable_and_shared() {
        let a = span_site("test/interning", "send");
        let b = span_site("test/interning", "send");
        assert_eq!(a.id(), b.id());
        let c = span_site("test/interning", "deliver");
        assert_ne!(a.id(), c.id());
        assert_eq!(
            site_name(a.id()),
            Some(("test/interning".into(), "send".into()))
        );

        let k1 = counter("test.interning.counter");
        let k2 = counter("test.interning.counter");
        k1.incr();
        k2.incr();
        assert_eq!(k1.get(), 2, "same underlying cell");
    }

    #[test]
    fn snapshot_sees_spans_counters_histograms() {
        let site = span_site("test/snapshot", "evaluate");
        record_span(&site, 100, 50);
        {
            let _g = span(&site);
        }
        counter("test.snapshot.events").add(3);
        histogram("test.snapshot.lat_ns").record(7);

        let snap = snapshot();
        let row = snap.site("test/snapshot", "evaluate").unwrap();
        assert!(row.count >= 2);
        assert!(row.total_ns >= 50);
        assert!(snap.counter("test.snapshot.events") >= 3);
        let h = snap.histogram("test.snapshot.lat_ns").unwrap();
        assert!(h.count >= 1);
        assert!(snap.threads >= 1);
        assert!(snap.spans.iter().any(|e| e.site == site.id()));
        // Sorted by start time.
        assert!(snap
            .spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn finished_threads_hand_their_rings_on() {
        let site = span_site("test/handoff", "run");
        let rings = || lock(&global().rings).len();
        let before = rings();
        for _ in 0..50 {
            let site = site.clone();
            std::thread::spawn(move || drop(span(&site)))
                .join()
                .unwrap();
        }
        // Each thread finishes before the next starts, so each reuses a
        // retired ring; other tests' threads may add a few of their own.
        assert!(rings() - before < 25, "{} new rings", rings() - before);
        let snap = snapshot();
        assert!(snap.site("test/handoff", "run").unwrap().count >= 50);
    }

    #[test]
    fn disabling_stops_recording() {
        let site = span_site("test/disable", "send");
        let before = snapshot()
            .site("test/disable", "send")
            .map_or(0, |s| s.count);
        set_enabled(false);
        {
            let _g = span(&site);
        }
        record_span(&site, 1, 1);
        set_enabled(true);
        let after = snapshot()
            .site("test/disable", "send")
            .map_or(0, |s| s.count);
        assert_eq!(before, after, "disabled spans record nothing");
        {
            let _g = span(&site);
        }
        let reenabled = snapshot().site("test/disable", "send").unwrap().count;
        assert!(reenabled > after, "re-enabled spans record again");
    }

    #[test]
    fn known_sites_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(c, v, _, _) in KNOWN_SITES {
            assert!(seen.insert((c, v)), "duplicate site {c}/{v}");
        }
        assert!(KNOWN_SITES.len() >= 12);
    }
}
