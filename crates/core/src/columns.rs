//! Columnar (structure-of-arrays) sample storage — the tool's one sample
//! store.
//!
//! A [`SampleColumns`] holds parallel `daemon`/`metric`/`focus`/`wall`/
//! `aligned`/`value` columns instead of a vector of per-sample structs.
//! Batches land via [`SampleColumns::extend_batch`]: the frame's small
//! (metric, focus) dictionary is interned to [`Symbol`]s once, then the
//! sample columns are bulk-appended with skew correction applied as a
//! column pass — no per-sample string handling, no per-sample `Arc`
//! refcount traffic. A loose sample is a one-row [`SampleColumns::push`].
//! Downstream stages stay columnar: clock re-alignment
//! ([`SampleColumns::realign_all`]), the merge of per-worker landings
//! ([`SampleColumns::append`]), the merge order
//! ([`SampleColumns::aligned_order`]), and the per-key fold with
//! histogram fills and coverage interval widening
//! ([`SampleColumns::fold`]). String names are materialized only at the
//! render edge, via [`Symbol::as_str`].

use crate::intern::{self, Symbol};
use crate::interval::Interval;
use crate::util::FxHashMap;
use pdmap_transport::BatchColumns;

/// Parallel sample columns. All six columns always have equal length;
/// every mutator preserves that invariant, which is why the columns are
/// private behind slice accessors.
#[derive(Clone, Debug, Default)]
pub struct SampleColumns {
    daemon: Vec<u32>,
    metric: Vec<Symbol>,
    focus: Vec<Symbol>,
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
            metric: Vec::with_capacity(n),
            focus: Vec::with_capacity(n),
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

    /// Appends one sample row.
    pub fn push(
        &mut self,
        daemon: u32,
        metric: Symbol,
        focus: Symbol,
        wall: u64,
        aligned: u64,
        value: f64,
    ) {
        self.daemon.push(daemon);
        self.metric.push(metric);
        self.focus.push(focus);
        self.wall.push(wall);
        self.aligned.push(aligned);
        self.value.push(value);
        self.max_value = self.max_value.max(value);
    }

    /// Bulk-appends a decoded wire batch from `daemon`, applying the
    /// daemon's clock offset as it lands (`aligned = wall − offset`,
    /// clamped at zero). The batch dictionary is interned once; each
    /// sample then costs four integer column pushes and one float push.
    pub fn extend_batch(&mut self, daemon: u32, offset_ns: i64, batch: &BatchColumns) {
        let dict: Vec<(Symbol, Symbol)> = batch
            .dict
            .iter()
            .map(|(m, f)| (intern::sym(m), intern::sym(f)))
            .collect();
        let n = batch.len();
        self.daemon.resize(self.daemon.len() + n, daemon);
        self.metric.reserve(n);
        self.focus.reserve(n);
        self.value.extend_from_slice(&batch.value);
        self.max_value = batch.value.iter().copied().fold(self.max_value, f64::max);
        self.wall.extend_from_slice(&batch.wall);
        self.aligned
            .extend(batch.wall.iter().map(|&w| align(w, offset_ns)));
        for &k in &batch.key {
            let (m, f) = dict[k as usize];
            self.metric.push(m);
            self.focus.push(f);
        }
    }

    /// Re-applies skew correction to every sample in one pass, each under
    /// its daemon's offset: `offsets` is indexed by daemon id (daemons
    /// beyond the table keep offset 0).
    pub fn realign_all(&mut self, offsets: &[i64]) {
        for i in 0..self.len() {
            let off = offsets.get(self.daemon[i] as usize).copied().unwrap_or(0);
            self.aligned[i] = align(self.wall[i], off);
        }
    }

    /// Appends all of `other` — how per-worker landings merge.
    pub fn append(&mut self, other: &SampleColumns) {
        self.daemon.extend_from_slice(&other.daemon);
        self.metric.extend_from_slice(&other.metric);
        self.focus.extend_from_slice(&other.focus);
        self.wall.extend_from_slice(&other.wall);
        self.aligned.extend_from_slice(&other.aligned);
        self.value.extend_from_slice(&other.value);
        self.max_value = self.max_value.max(other.max_value);
    }

    /// The rows' merge order: row indices stably sorted by aligned
    /// (tool-clock) time, so same-instant samples keep arrival order. The
    /// columns themselves stay in arrival order.
    pub fn aligned_order(&self) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_by_key(|&i| self.aligned[i as usize]);
        perm
    }

    /// The daemon column.
    pub fn daemons(&self) -> &[u32] {
        &self.daemon
    }

    /// The interned metric column.
    pub fn metrics(&self) -> &[Symbol] {
        &self.metric
    }

    /// The interned focus column.
    pub fn foci(&self) -> &[Symbol] {
        &self.focus
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
    /// the tool clock". Key comparisons are u32 pairs; no strings are
    /// touched.
    pub fn fold(&self) -> Vec<((Symbol, Symbol), KeyFold)> {
        // The two u32 symbol ids pack into one u64 hash key, so the
        // per-sample lookup hashes a single integer.
        let mut index: FxHashMap<u64, usize> = FxHashMap::default();
        let mut out: Vec<((Symbol, Symbol), KeyFold)> = Vec::new();
        for i in 0..self.len() {
            let key = (self.metric[i], self.focus[i]);
            let packed = (key.0.index() as u64) << 32 | key.1.index() as u64;
            let slot = *index.entry(packed).or_insert_with(|| {
                out.push((key, KeyFold::default()));
                out.len() - 1
            });
            out[slot].1.observe(self.aligned[i], self.value[i]);
        }
        out
    }
}

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

    #[test]
    fn extend_batch_interns_once_and_aligns_on_landing() {
        let mut cols = SampleColumns::new();
        cols.extend_batch(7, 100, &batch());
        assert_eq!(cols.len(), 4);
        assert_eq!(cols.daemons(), &[7, 7, 7, 7]);
        assert_eq!(cols.aligneds(), &[900, 1_000, 1_100, 1_200]);
        assert_eq!(cols.walls(), &[1_000, 1_100, 1_200, 1_300]);
        assert_eq!(cols.metrics()[0].as_str(), "Messages");
        assert_eq!(cols.foci()[1].as_str(), "Machine/node#1");
        // Repeated keys share one symbol pair.
        assert_eq!(cols.metrics()[0], cols.metrics()[2]);
        assert_eq!(cols.foci()[0], cols.foci()[2]);
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
    fn realign_all_recorrects_each_daemon_by_its_offset() {
        let mut cols = SampleColumns::new();
        cols.extend_batch(0, 0, &batch());
        cols.extend_batch(1, 0, &batch());
        cols.extend_batch(2, 0, &batch());
        cols.realign_all(&[100, 500]);
        assert_eq!(cols.aligneds()[0], 900, "daemon 0 by its offset");
        assert_eq!(cols.aligneds()[4], 500, "daemon 1 by its offset");
        assert_eq!(cols.aligneds()[8], 1_000, "past the table: offset 0");
    }

    #[test]
    fn append_and_aligned_order_merge_landings() {
        let m = intern::sym("m");
        let fa = intern::sym("a");
        let fb = intern::sym("b");
        let mut s0 = SampleColumns::new();
        s0.push(0, m, fa, 30, 30, 1.0);
        s0.push(0, m, fa, 10, 10, 2.0);
        let mut s1 = SampleColumns::new();
        s1.push(1, m, fb, 10, 10, 3.0);
        let mut merged = SampleColumns::new();
        merged.append(&s0);
        merged.append(&s1);
        assert_eq!(merged.daemons(), &[0, 0, 1], "append keeps arrival order");
        // Stable: the tie at t=10 keeps arrival order (s0 before s1).
        assert_eq!(merged.aligned_order(), vec![1, 2, 0]);
    }

    #[test]
    fn running_max_equals_a_fold_of_the_value_column() {
        let m = intern::sym("m");
        let f = intern::sym("f");
        let scan = |c: &SampleColumns| c.values().iter().copied().fold(0.0, f64::max);
        let mut cols = SampleColumns::new();
        assert_eq!(cols.max_value(), 0.0, "empty columns start at 0.0");
        cols.push(0, m, f, 1, 1, -5.0);
        assert_eq!(cols.max_value(), scan(&cols), "a negative value keeps 0.0");
        cols.extend_batch(1, 0, &batch());
        assert_eq!((cols.max_value(), scan(&cols)), (4.0, 4.0));
        cols.push(2, m, f, 2, 2, 2.5);
        let mut landing = SampleColumns::new();
        landing.push(3, m, f, 3, 3, 9.5);
        landing.extend_batch(3, 10, &batch());
        cols.append(&landing);
        assert_eq!((cols.max_value(), scan(&cols)), (9.5, 9.5));
        cols.append(&SampleColumns::new());
        cols.realign_all(&[100, 200, 300, 400]);
        assert_eq!(cols.max_value(), scan(&cols), "realignment moves no value");
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
