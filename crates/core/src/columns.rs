//! Columnar (structure-of-arrays) sample storage — the tool's one sample
//! store.
//!
//! A [`SampleColumns`] holds parallel `daemon`/`key`/`wall`/`aligned`/
//! `value` columns instead of a vector of per-sample structs: 32 bytes a
//! row. Batches land via [`SampleColumns::extend_batch`]: the frame's
//! small (metric, focus) dictionary is interned to [`Key`]s once, then the
//! sample columns are bulk-appended with skew correction applied as a
//! column pass — no per-sample string handling, no per-sample `Arc`
//! refcount traffic. A loose sample is a one-row [`SampleColumns::push`].
//! A row is aligned once, as it lands, with the offset its link had then;
//! nothing re-times a row afterwards. Downstream stages stay columnar: the
//! merge of per-worker landings ([`SampleColumns::append`]), the merge order
//! ([`SampleColumns::merge_walk`]), and the per-key fold with histogram
//! fills and coverage interval widening ([`SampleColumns::fold`]). String
//! names are materialized only at the render edge, via [`Symbol::as_str`].

use crate::intern::{self, Key, Symbol};
use crate::interval::Interval;
use pdmap_transport::BatchColumns;
use std::ops::Range;

/// Parallel sample columns. All five columns always have equal length;
/// every mutator preserves that invariant, which is why the columns are
/// private behind slice accessors.
#[derive(Clone, Debug, Default)]
pub struct SampleColumns {
    daemon: Vec<u32>,
    key: Vec<Key>,
    wall: Vec<u64>,
    aligned: Vec<u64>,
    value: Vec<f64>,
    /// Running `fold(0.0, f64::max)` of the value column, kept by the
    /// three writers of values (`push`, `extend_batch`, `append`).
    max_value: f64,
}

impl SampleColumns {
    /// Empty columns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty columns with room for `n` samples in every column.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            daemon: Vec::with_capacity(n),
            key: Vec::with_capacity(n),
            wall: Vec::with_capacity(n),
            aligned: Vec::with_capacity(n),
            value: Vec::with_capacity(n),
            max_value: 0.0,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// True when no samples have landed.
    pub fn is_empty(&self) -> bool {
        self.wall.is_empty()
    }

    /// Drops every row but keeps the columns' capacity, so columns reused
    /// for the next landing write into pages already faulted in.
    pub fn clear(&mut self) {
        self.daemon.clear();
        self.key.clear();
        self.wall.clear();
        self.aligned.clear();
        self.value.clear();
        self.max_value = 0.0;
    }

    /// Appends one sample row.
    pub fn push(&mut self, daemon: u32, key: Key, wall: u64, aligned: u64, value: f64) {
        self.daemon.push(daemon);
        self.key.push(key);
        self.wall.push(wall);
        self.aligned.push(aligned);
        self.value.push(value);
        self.max_value = self.max_value.max(value);
    }

    /// Bulk-appends a decoded wire batch from `daemon`, applying the
    /// daemon's clock offset as it lands (`aligned = wall − offset`,
    /// clamped at zero). The batch dictionary is interned once; each
    /// sample then costs three integer column pushes and one float push.
    pub fn extend_batch(&mut self, daemon: u32, offset_ns: i64, batch: &BatchColumns) {
        let dict: Vec<Key> = batch
            .dict
            .iter()
            .map(|(m, f)| intern::key(intern::sym(m), intern::sym(f)))
            .collect();
        let n = batch.len();
        self.daemon.resize(self.daemon.len() + n, daemon);
        self.value.extend_from_slice(&batch.value);
        self.max_value = batch.value.iter().copied().fold(self.max_value, f64::max);
        self.wall.extend_from_slice(&batch.wall);
        self.aligned
            .extend(batch.wall.iter().map(|&w| align(w, offset_ns)));
        self.key.extend(batch.key.iter().map(|&k| dict[k as usize]));
    }

    /// Appends all of `other` — how per-worker landings merge. Keys are
    /// process-wide ids, so this is a plain copy of every column.
    pub fn append(&mut self, other: &SampleColumns) {
        self.daemon.extend_from_slice(&other.daemon);
        self.key.extend_from_slice(&other.key);
        self.wall.extend_from_slice(&other.wall);
        self.aligned.extend_from_slice(&other.aligned);
        self.value.extend_from_slice(&other.value);
        self.max_value = self.max_value.max(other.max_value);
    }

    /// The rows' merge order, as a walk: row indices in aligned (tool-clock)
    /// time, same-instant rows in arrival order — exactly a stable sort of
    /// the rows by aligned time, without an n-entry permutation.
    ///
    /// Each daemon's rows form one run. A daemon's rows normally arrive in
    /// aligned order already, so its run is just its row ranges; a daemon
    /// whose rows did not (a relay merging several children, a clock that
    /// restarted) has its own rows sorted first. The walk then merges the
    /// runs through a loser tree over their heads keyed by `(aligned,
    /// row)`, so a tie across daemons breaks by arrival and each step costs
    /// `log2(daemons)` comparisons, not a scan of every head. The columns
    /// themselves stay in arrival order.
    pub fn merge_walk(&self) -> MergeWalk<'_> {
        struct Scan {
            ranges: Vec<Range<u32>>,
            ordered: bool,
            last: u64,
        }
        let mut scans: Vec<Scan> = Vec::new();
        let mut i = 0;
        while i < self.len() {
            let d = self.daemon[i] as usize;
            let start = i;
            while i < self.len() && self.daemon[i] as usize == d {
                i += 1;
            }
            if scans.len() <= d {
                scans.resize_with(d + 1, || Scan {
                    ranges: Vec::new(),
                    ordered: true,
                    last: 0,
                });
            }
            let scan = &mut scans[d];
            let seg = &self.aligned[start..i];
            scan.ordered &= scan.last <= seg[0] && seg.windows(2).all(|w| w[0] <= w[1]);
            scan.last = seg[seg.len() - 1];
            scan.ranges.push(start as u32..i as u32);
        }
        let runs = scans
            .into_iter()
            .map(|scan| {
                if scan.ordered {
                    return scan.ranges;
                }
                let mut rows: Vec<u32> = scan.ranges.into_iter().flatten().collect();
                rows.sort_by_key(|&r| self.aligned[r as usize]);
                let mut ranges: Vec<Range<u32>> = Vec::new();
                for r in rows {
                    match ranges.last_mut() {
                        Some(last) if last.end == r => last.end += 1,
                        _ => ranges.push(r..r + 1),
                    }
                }
                ranges
            })
            .map(|ranges| Run {
                ranges: ranges.into_iter(),
                at: 0..0,
            });
        MergeWalk::new(&self.aligned, runs.collect())
    }

    /// The daemon column.
    pub fn daemons(&self) -> &[u32] {
        &self.daemon
    }

    /// The interned (metric, focus) key column.
    pub fn keys(&self) -> &[Key] {
        &self.key
    }

    /// The sender-clock wall column (nanoseconds).
    pub fn walls(&self) -> &[u64] {
        &self.wall
    }

    /// The skew-corrected tool-clock column (nanoseconds).
    pub fn aligneds(&self) -> &[u64] {
        &self.aligned
    }

    /// The value column.
    pub fn values(&self) -> &[f64] {
        &self.value
    }

    /// The largest value landed, or `0.0` if none is larger: the value
    /// column's `fold(0.0, f64::max)`, kept as the rows land so reading it
    /// costs nothing.
    pub fn max_value(&self) -> f64 {
        self.max_value
    }

    /// Folds the columns into one [`KeyFold`] per (metric, focus) key, in
    /// first-seen order. "Last" means "latest delivered", not "latest on
    /// the tool clock". Each row indexes a slot table by its key id; no
    /// row is hashed and no string is touched.
    pub fn fold(&self) -> Vec<((Symbol, Symbol), KeyFold)> {
        let pairs = intern::key_pairs();
        let mut slot = vec![u32::MAX; pairs.len()];
        let mut out: Vec<((Symbol, Symbol), KeyFold)> = Vec::new();
        for i in 0..self.len() {
            let k = self.key[i].index();
            if slot[k] == u32::MAX {
                slot[k] = out.len() as u32;
                out.push((pairs[k], KeyFold::default()));
            }
            out[slot[k] as usize]
                .1
                .observe(self.aligned[i], self.value[i]);
        }
        out
    }
}

/// One daemon's rows in merge order (see [`SampleColumns::merge_walk`]):
/// the stretch being read and the stretches after it.
struct Run {
    ranges: std::vec::IntoIter<Range<u32>>,
    at: Range<u32>,
}

impl Run {
    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if let Some(row) = self.at.next() {
                return Some(row);
            }
            self.at = self.ranges.next()?;
        }
    }
}

/// A run's head as a tournament key: aligned time, then row index. An
/// exhausted run holds [`DONE`], which loses to every row.
type Head = (u64, u32);
const DONE: Head = (u64::MAX, u32::MAX);

/// `a < b`, without branches: which run wins a match is a coin toss when
/// daemons interleave finely, and a mispredicted branch costs more than
/// evaluating both halves.
#[inline]
fn precedes(a: Head, b: Head) -> bool {
    (a.0 < b.0) | ((a.0 == b.0) & (a.1 < b.1))
}

/// The merge order of a [`SampleColumns`], one row index at a time: see
/// [`SampleColumns::merge_walk`].
pub struct MergeWalk<'a> {
    aligned: &'a [u64],
    runs: Vec<Run>,
    /// Each run's head ([`DONE`] past its end, and for padding runs).
    heads: Vec<Head>,
    /// A loser tree over the heads: node `n`'s children are `2n` and
    /// `2n + 1`, the leaves sit at `width + run`, and each inner node
    /// holds the run that lost the match there; `winner` won them all.
    losers: Vec<u32>,
    winner: u32,
    width: usize,
    left: usize,
}

impl<'a> MergeWalk<'a> {
    fn new(aligned: &'a [u64], mut runs: Vec<Run>) -> Self {
        let width = runs.len().next_power_of_two();
        let mut heads = vec![DONE; width];
        for (head, run) in heads.iter_mut().zip(&mut runs) {
            if let Some(row) = run.next() {
                *head = Self::head(aligned, row);
            }
        }
        // Play the first tournament bottom-up, keeping each match's loser.
        let mut won = vec![0u32; 2 * width];
        for run in 0..width {
            won[width + run] = run as u32;
        }
        let mut losers = vec![0u32; width];
        for n in (1..width).rev() {
            let (a, b) = (won[2 * n], won[2 * n + 1]);
            let b_wins = precedes(heads[b as usize], heads[a as usize]);
            won[n] = if b_wins { b } else { a };
            losers[n] = if b_wins { a } else { b };
        }
        MergeWalk {
            aligned,
            runs,
            heads,
            losers,
            winner: won[1],
            width,
            left: aligned.len(),
        }
    }

    #[inline]
    fn head(aligned: &[u64], row: u32) -> Head {
        (aligned[row as usize], row)
    }
}

impl Iterator for MergeWalk<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let run = self.winner as usize;
        let head = self.heads[run];
        if head == DONE {
            return None;
        }
        let mut key = match self.runs[run].next() {
            Some(row) => Self::head(self.aligned, row),
            None => DONE,
        };
        self.heads[run] = key;
        // Replay the winner's matches on its way to the root.
        let mut winner = run as u32;
        let mut n = (self.width + run) / 2;
        while n > 0 {
            let loser = self.losers[n];
            let loser_key = self.heads[loser as usize];
            let swap = precedes(loser_key, key);
            self.losers[n] = if swap { winner } else { loser };
            winner = if swap { loser } else { winner };
            key = if swap { loser_key } else { key };
            n /= 2;
        }
        self.winner = winner;
        self.left -= 1;
        Some(head.1 as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for MergeWalk<'_> {}

/// Skew correction: sender wall minus the estimated offset, clamped at
/// zero (a daemon whose clock runs behind the tool cannot produce samples
/// from before the session started). The one place a sender's stamp is
/// moved onto its parent's clock — the tool's landing and a relay's
/// forwarding both call it.
#[inline]
pub fn align(wall: u64, offset_ns: i64) -> u64 {
    (wall as i64 - offset_ns).max(0) as u64
}

/// Per-key aggregate state produced by [`SampleColumns::fold`]: the
/// counts, extrema, latest reading, and a log2 histogram of value
/// magnitudes (bucket `k` holds values in `[2^k, 2^(k+1))`, bucket 0 also
/// holds everything below 1).
#[derive(Clone, Debug)]
pub struct KeyFold {
    /// Samples folded in.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
    /// The most recently folded value.
    pub last: f64,
    /// Aligned time of the most recently folded value.
    pub last_aligned: u64,
    /// Log2 histogram of value magnitudes.
    pub hist: [u32; 64],
}

impl Default for KeyFold {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
            last_aligned: 0,
            hist: [0; 64],
        }
    }
}

impl KeyFold {
    /// Folds one sample in.
    #[inline]
    pub fn observe(&mut self, aligned: u64, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
        self.last_aligned = aligned;
        // Bucket by the value's binary exponent, read straight from the
        // bit pattern: exact (floor(log2), no float rounding at bucket
        // edges) and branch-cheap on a per-sample path. NaN lands in the
        // top bucket with the infinities.
        let mag = value.abs();
        let bucket = if mag < 1.0 {
            0
        } else {
            (((mag.to_bits() >> 52) & 0x7FF) as usize - 1023).min(63)
        };
        self.hist[bucket] += 1;
    }

    /// The coverage-widened mass interval for this key: the folded sum is
    /// the proven lower bound, and each of `lost` samples could have
    /// carried at most `max_sample_cost` — the same pessimistic pricing
    /// the session's `Coverage::bound_mass` applies at the verdict edge.
    pub fn widened(&self, lost: u64, max_sample_cost: f64) -> Interval {
        Interval::new(self.sum, self.sum + lost as f64 * max_sample_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::SplitMix64;

    fn batch() -> BatchColumns {
        BatchColumns {
            epoch: 1,
            seq: 5,
            sources: Vec::new(),
            dict: vec![
                ("Messages".into(), "<whole program>".into()),
                ("Messages".into(), "Machine/node#1".into()),
            ],
            key: vec![0, 1, 0, 0],
            wall: vec![1_000, 1_100, 1_200, 1_300],
            value: vec![1.0, 2.0, 3.0, 4.0],
        }
    }

    /// Interns the pair `(metric, focus)` as a key.
    fn key(metric: &str, focus: &str) -> Key {
        intern::key(intern::sym(metric), intern::sym(focus))
    }

    #[test]
    fn extend_batch_interns_once_and_aligns_on_landing() {
        let mut cols = SampleColumns::new();
        cols.extend_batch(7, 100, &batch());
        assert_eq!(cols.len(), 4);
        assert_eq!(cols.daemons(), &[7, 7, 7, 7]);
        assert_eq!(cols.aligneds(), &[900, 1_000, 1_100, 1_200]);
        assert_eq!(cols.walls(), &[1_000, 1_100, 1_200, 1_300]);
        let (m, f) = cols.keys()[1].pair();
        assert_eq!((m.as_str(), f.as_str()), ("Messages", "Machine/node#1"));
        // Repeated keys share one id, the same id a loose sample gets.
        assert_eq!(cols.keys()[0], cols.keys()[2]);
        assert_eq!(cols.keys()[0], key("Messages", "<whole program>"));
        assert_ne!(cols.keys()[0], cols.keys()[1]);
        // Negative corrected times clamp at zero.
        let mut late = SampleColumns::new();
        late.extend_batch(0, 2_000, &batch());
        assert_eq!(late.aligneds()[0], 0);
    }

    #[test]
    fn align_saturates_at_zero() {
        assert_eq!(align(100, 40), 60);
        assert_eq!(align(100, -40), 140);
        assert_eq!(align(100, 500), 0);
    }

    #[test]
    fn append_and_merge_walk_merge_landings() {
        let (ka, kb) = (key("m", "a"), key("m", "b"));
        let mut s0 = SampleColumns::new();
        s0.push(0, ka, 30, 30, 1.0);
        s0.push(0, ka, 10, 10, 2.0);
        let mut s1 = SampleColumns::new();
        s1.push(1, kb, 10, 10, 3.0);
        let mut merged = SampleColumns::new();
        merged.append(&s0);
        merged.append(&s1);
        assert_eq!(merged.daemons(), &[0, 0, 1], "append keeps arrival order");
        assert_eq!(merged.keys(), &[ka, ka, kb], "keys copy as ids");
        // Daemon 0's rows are out of order, so its run is sorted first;
        // the tie at t=10 keeps arrival order (s0 before s1).
        assert_eq!(merged.merge_walk().collect::<Vec<_>>(), vec![1, 2, 0]);
        assert_eq!(merged.merge_walk().len(), 3, "the walk knows its length");
        assert_eq!(SampleColumns::new().merge_walk().next(), None);
    }

    /// The reference merge order: row indices stably sorted by aligned time.
    fn stable_sort_order(cols: &SampleColumns) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..cols.len()).collect();
        perm.sort_by_key(|&i| cols.aligneds()[i]);
        perm
    }

    /// A seeded random store shaped like a session's: up to 5 daemons
    /// whose rows land in chunks of 1-8 interleaved across daemons, each
    /// stamped from its own rising clock with coarse steps so that rows
    /// tie within and across daemons, and aligned as it lands with its
    /// daemon's entry in `offsets`. Daemon 2 never sends (an empty link)
    /// and, when `disorder` holds, daemon 3's clock jumps back mid-stream
    /// (a restart), so its rows are out of aligned order.
    fn random_store(seed: u64, disorder: bool, offsets: &[i64; 5]) -> SampleColumns {
        let mut rng = SplitMix64::new(seed);
        let daemons = 1 + rng.usize_in(0..5) as u32;
        let k = key("m", "f");
        let mut clock = vec![0u64; daemons as usize];
        let mut cols = SampleColumns::new();
        let rows = rng.usize_in(0..400);
        while cols.len() < rows {
            let d = rng.usize_in(0..daemons as usize) as u32;
            if d == 2 {
                continue;
            }
            for _ in 0..1 + rng.usize_in(0..8) {
                if disorder && d == 3 && rng.usize_in(0..40) == 0 {
                    clock[3] /= 2;
                }
                clock[d as usize] += 10 * rng.usize_in(0..3) as u64;
                let wall = clock[d as usize];
                let aligned = align(wall, offsets[d as usize]);
                cols.push(d, k, wall, aligned, cols.len() as f64);
            }
        }
        cols
    }

    #[test]
    fn merge_walk_visits_rows_in_stable_sort_order() {
        let mut disordered = 0;
        for seed in 0..300u64 {
            let cols = random_store(seed, seed % 2 == 1, &[0; 5]);
            let walked: Vec<usize> = cols.merge_walk().collect();
            assert_eq!(walked, stable_sort_order(&cols), "seed {seed}");
            let d3: Vec<u64> = (0..cols.len())
                .filter(|&i| cols.daemons()[i] == 3)
                .map(|i| cols.aligneds()[i])
                .collect();
            disordered += usize::from(d3.windows(2).any(|w| w[0] > w[1]));
            // Each link landing at its own offset (and some rows clamping
            // to zero): the walk still matches the sort.
            let shifted = random_store(seed, seed % 2 == 1, &[0, 25, -40, 1_000, 5]);
            let walked: Vec<usize> = shifted.merge_walk().collect();
            assert_eq!(walked, stable_sort_order(&shifted), "seed {seed}, shifted");
        }
        assert!(disordered > 10, "the stores exercise the sorted fallback");
    }

    #[test]
    fn clear_keeps_capacity_and_resets_the_running_max() {
        let mut cols = SampleColumns::new();
        cols.extend_batch(0, 0, &batch());
        let cap = cols.walls().as_ptr();
        cols.clear();
        assert!(cols.is_empty());
        assert_eq!(cols.max_value(), 0.0);
        cols.extend_batch(1, 0, &batch());
        assert_eq!(cols.walls().as_ptr(), cap, "the same allocation is reused");
        assert_eq!(cols.daemons(), &[1, 1, 1, 1]);
    }

    #[test]
    fn running_max_equals_a_fold_of_the_value_column() {
        let k = key("m", "f");
        let scan = |c: &SampleColumns| c.values().iter().copied().fold(0.0, f64::max);
        let mut cols = SampleColumns::new();
        assert_eq!(cols.max_value(), 0.0, "empty columns start at 0.0");
        cols.push(0, k, 1, 1, -5.0);
        assert_eq!(cols.max_value(), scan(&cols), "a negative value keeps 0.0");
        cols.extend_batch(1, 0, &batch());
        assert_eq!((cols.max_value(), scan(&cols)), (4.0, 4.0));
        cols.push(2, k, 2, 2, 2.5);
        let mut landing = SampleColumns::new();
        landing.push(3, k, 3, 3, 9.5);
        landing.extend_batch(3, 10, &batch());
        cols.append(&landing);
        assert_eq!((cols.max_value(), scan(&cols)), (9.5, 9.5));
        cols.append(&SampleColumns::new());
        // Links landing at their own offsets, one clamped to zero, move no
        // value.
        cols.extend_batch(4, 400, &batch());
        cols.extend_batch(5, 2_000, &batch());
        cols.push(6, k, 3, align(3, 300), 1.0);
        assert_eq!(cols.aligneds()[cols.len() - 5], 0, "clamped at zero");
        assert_eq!((cols.max_value(), scan(&cols)), (9.5, 9.5));
        assert_eq!(cols.clone().max_value(), 9.5);
    }

    #[test]
    fn fold_fills_histograms_and_widens_intervals() {
        let mut cols = SampleColumns::new();
        cols.extend_batch(0, 0, &batch());
        let folds = cols.fold();
        assert_eq!(folds.len(), 2, "two distinct keys, first-seen order");
        let (key, f) = &folds[0];
        assert_eq!(key.0.as_str(), "Messages");
        assert_eq!(key.1.as_str(), "<whole program>");
        assert_eq!(f.count, 3);
        assert_eq!(f.sum, 8.0);
        assert_eq!((f.min, f.max, f.last), (1.0, 4.0, 4.0));
        assert_eq!(f.last_aligned, 1_300);
        // Values 1, 3, 4 land in log2 buckets 0, 1, 2.
        assert_eq!((f.hist[0], f.hist[1], f.hist[2]), (1, 1, 1));
        // Widening: sum is the floor, each lost sample prices at the cap.
        let iv = f.widened(2, 0.5);
        assert_eq!((iv.lo, iv.hi), (8.0, 9.0));
        // No loss collapses to a point.
        assert!(f.widened(0, 0.5).is_point());
    }
}
