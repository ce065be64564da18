//! Per-thread lock-free span recording.
//!
//! A **span** is one enter/exit interval at a named **site** (component +
//! verb, e.g. `transport/tcp` / `send`). Recording is designed for hot
//! paths:
//!
//! * per-site aggregates (count, total time, latency histogram) are plain
//!   atomics shared through an [`Arc`], updated wait-free at span exit;
//! * the raw event stream goes into a fixed-size **per-thread ring
//!   buffer** of seqlock slots. The owning thread is the only writer, so
//!   writes never contend; a snapshot reads the slots without stopping the
//!   writer and discards any record it catches mid-write (generation
//!   check). When the ring wraps, the oldest events are overwritten and
//!   counted as dropped — aggregates are unaffected.
//!
//! Everything is `std` atomics; no unsafe code.

use crate::clock::now_ns;
use crate::metrics::{Histogram, HistogramSnapshot};
use crate::registry;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-thread ring capacity (slots). Must be a power of two.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Dense identifier of a registered span site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SiteId(pub(crate) u16);

impl SiteId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Shared per-site aggregates, updated at every span exit.
#[derive(Debug, Default)]
pub(crate) struct SiteStats {
    pub(crate) count: AtomicU64,
    pub(crate) total_ns: AtomicU64,
    pub(crate) hist: Histogram,
}

impl SiteStats {
    #[inline]
    fn record(&self, dur_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(dur_ns, Ordering::Relaxed);
        self.hist.record(dur_ns);
    }
}

/// A registered span site: the handle call sites cache (in a `OnceLock`)
/// so the span hot path never touches the registry lock.
#[derive(Clone)]
pub struct SpanSite {
    pub(crate) id: SiteId,
    pub(crate) stats: Arc<SiteStats>,
}

impl SpanSite {
    /// The site's dense id.
    pub fn id(&self) -> SiteId {
        self.id
    }
}

impl std::fmt::Debug for SpanSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpanSite({})", self.id.0)
    }
}

/// One seqlock slot. The generation is 0 while a write is in progress and
/// `record_index + 1` once the record is published; it strictly increases
/// per slot, so a reader that sees the same nonzero generation before and
/// after reading the payload fields has a consistent record.
#[derive(Debug)]
struct Slot {
    gen: AtomicU64,
    site: AtomicU64,
    start: AtomicU64,
    dur: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            gen: AtomicU64::new(0),
            site: AtomicU64::new(0),
            start: AtomicU64::new(0),
            dur: AtomicU64::new(0),
        }
    }
}

/// A fixed-size span ring owned by one thread. Only the owning thread
/// writes; any thread may snapshot.
#[derive(Debug)]
pub struct SpanRing {
    tid: u64,
    retired: AtomicBool,
    /// Total records ever written (not capped by capacity).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl SpanRing {
    /// Creates a ring with `capacity` slots (rounded up to a power of two,
    /// minimum 2) for the pseudo-thread-id `tid`.
    pub fn new(tid: u64, capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        Self {
            tid,
            retired: AtomicBool::new(false),
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    /// The ring's dense id, assigned at registration and kept when a
    /// later thread takes the ring over.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// Total records ever written.
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Marks the owning thread as finished (the ring's history remains
    /// readable until a new owner overwrites it).
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Takes a retired ring over for a new owning thread; `false` if the
    /// ring still has an owner. The old owner recorded its last span
    /// before retiring, so the ring keeps a single writer: the Acquire here
    /// pairs with the Release store in [`SpanRing::retire`].
    pub(crate) fn reclaim(&self) -> bool {
        self.retired
            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Appends a record. Must only be called by the owning thread; all
    /// cells are atomics so a misuse cannot corrupt memory, only interleave
    /// records.
    #[inline]
    pub fn record(&self, site: SiteId, start_ns: u64, dur_ns: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (self.slots.len() - 1)];
        // Invalidate while writing. The fence orders the invalidation
        // before the payload stores: a reader that loads any of the new
        // payload also sees `gen == 0` (or later) on its re-check, and
        // discards the record. Pairs with the reader's acquire fence.
        slot.gen.store(0, Ordering::Release);
        fence(Ordering::Release);
        slot.site.store(site.0 as u64, Ordering::Relaxed);
        slot.start.store(start_ns, Ordering::Relaxed);
        slot.dur.store(dur_ns, Ordering::Relaxed);
        slot.gen.store(h + 1, Ordering::Release); // publish (1-based index)
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copies every consistent record out of the ring without stopping the
    /// writer. Returns how many records have been overwritten (lost to
    /// wraparound) as of this read.
    pub fn snapshot_into(&self, out: &mut Vec<SpanEvent>) -> u64 {
        for slot in self.slots.iter() {
            let g1 = slot.gen.load(Ordering::Acquire);
            if g1 == 0 {
                continue; // never written, or mid-write
            }
            let site = slot.site.load(Ordering::Relaxed);
            let start = slot.start.load(Ordering::Relaxed);
            let dur = slot.dur.load(Ordering::Relaxed);
            // Orders the payload loads before the re-check of `gen`; pairs
            // with the writer's release fence.
            fence(Ordering::Acquire);
            if slot.gen.load(Ordering::Acquire) != g1 {
                continue; // overwritten while reading
            }
            out.push(SpanEvent {
                tid: self.tid,
                seq: g1 - 1,
                site: SiteId(site as u16),
                start_ns: start,
                dur_ns: dur,
            });
        }
        self.written().saturating_sub(self.slots.len() as u64)
    }
}

/// One completed span copied out of a ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Dense id of the recording ring: one thread's, or several
    /// threads' that ran one after another.
    pub tid: u64,
    /// Per-ring record index (0-based, monotone).
    pub seq: u64,
    /// The site the span was recorded at.
    pub site: SiteId,
    /// Start timestamp, ns since the process origin.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

impl SpanEvent {
    /// End timestamp, ns since the process origin.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// An RAII span: records `[construction, drop]` at its site. Obtain via
/// [`span`].
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard<'a> {
    site: Option<&'a SpanSite>,
    start: u64,
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(site) = self.site {
            let dur = now_ns().saturating_sub(self.start);
            finish_span(site, self.start, dur);
        }
    }
}

/// Starts a span at `site`. When recording is disabled the guard is a
/// no-op costing one atomic load.
#[inline]
pub fn span(site: &SpanSite) -> SpanGuard<'_> {
    if registry::enabled() {
        SpanGuard {
            site: Some(site),
            start: now_ns(),
        }
    } else {
        SpanGuard {
            site: None,
            start: 0,
        }
    }
}

/// Records an already-measured span (for paths where a guard is awkward,
/// e.g. "only count this if a frame actually arrived"). No-op while
/// recording is disabled.
#[inline]
pub fn record_span(site: &SpanSite, start_ns: u64, dur_ns: u64) {
    if registry::enabled() {
        finish_span(site, start_ns, dur_ns);
    }
}

#[inline]
fn finish_span(site: &SpanSite, start_ns: u64, dur_ns: u64) {
    site.stats.record(dur_ns);
    registry::with_thread_ring(|ring| ring.record(site.id, start_ns, dur_ns));
}

/// Aggregated view of one site in a snapshot.
#[derive(Clone, Debug)]
pub struct SiteSnapshot {
    /// Component noun, e.g. `transport/tcp`.
    pub component: String,
    /// Verb, e.g. `send`.
    pub verb: String,
    /// Completed spans recorded at this site.
    pub count: u64,
    /// Sum of span durations in ns.
    pub total_ns: u64,
    /// Latency histogram of span durations (ns).
    pub hist: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_losses() {
        let ring = SpanRing::new(7, 8);
        for i in 0..20u64 {
            ring.record(SiteId(0), i * 10, 1);
        }
        let mut out = Vec::new();
        let dropped = ring.snapshot_into(&mut out);
        assert_eq!(dropped, 12, "20 written into 8 slots");
        assert_eq!(out.len(), 8);
        let mut seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>(), "newest survive");
        assert!(out.iter().all(|e| e.tid == 7));
        assert!(out.iter().all(|e| e.start_ns == e.seq * 10));
    }

    #[test]
    fn ring_capacity_rounds_to_power_of_two() {
        let ring = SpanRing::new(0, 9);
        for i in 0..16u64 {
            ring.record(SiteId(1), i, 2);
        }
        let mut out = Vec::new();
        assert_eq!(ring.snapshot_into(&mut out), 0, "16 slots hold 16");
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn snapshot_while_writing_yields_only_consistent_records() {
        // A seeded multi-thread loop: one writer hammers the ring while
        // readers snapshot concurrently. Every accepted record must be
        // internally consistent (the payload encodes its own seq).
        const N: u64 = 200_000;
        let ring = Arc::new(SpanRing::new(3, 64));
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..N {
                    // start = 3*seq, dur = seq + 1: readable invariants.
                    ring.record(SiteId((i % 5) as u16), i * 3, i + 1);
                }
            })
        };
        // A handshake, not a timing guess: snapshot only once the writer
        // has published a ring's worth of records, so every snapshot holds
        // at least 63 of them, and keep going until it has published all.
        while ring.written() < 64 {
            std::thread::yield_now();
        }
        let mut checked = 0u64;
        loop {
            let finished = ring.written() == N;
            let mut out = Vec::new();
            ring.snapshot_into(&mut out);
            for e in &out {
                assert_eq!(e.start_ns, e.seq * 3, "torn record escaped seqlock");
                assert_eq!(e.dur_ns, e.seq + 1, "torn record escaped seqlock");
                assert_eq!(e.site.0 as u64, e.seq % 5);
                checked += 1;
            }
            if finished {
                break;
            }
        }
        writer.join().unwrap();
        assert!(checked > 0, "snapshots observed live records");
        // Final snapshot sees exactly the last 64 records.
        let mut out = Vec::new();
        let dropped = ring.snapshot_into(&mut out);
        assert_eq!(out.len(), 64);
        assert_eq!(dropped, N - 64);
    }

    #[test]
    fn span_event_end() {
        let e = SpanEvent {
            tid: 0,
            seq: 0,
            site: SiteId(0),
            start_ns: u64::MAX - 1,
            dur_ns: 10,
        };
        assert_eq!(e.end_ns(), u64::MAX, "saturates instead of wrapping");
    }
}
