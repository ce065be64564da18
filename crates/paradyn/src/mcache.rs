//! The content-addressed measurement cache behind the consultant.
//!
//! The simulator is deterministic: an experiment's value is a pure function
//! of `(metric, focus, program, session coverage)`. Every hypothesis at a
//! focus shares the same wall-clock run and differs only in which counter
//! it reads, so one machine run serves all six. [`MeasurementCache`] makes
//! that sharing explicit: entries are **batches** — one machine run's worth
//! of metric values at a focus — addressed by content, not identity:
//!
//! ```text
//! key = (focus, program content-hash, coverage epoch)
//! val = [(metric, Result<Measured>)]   // every hypothesis metric, one run
//! ```
//!
//! * the **program content-hash** changes whenever a different program (or
//!   the same program under a different machine shape) is loaded, so a
//!   reloaded tool can never serve another program's measurements;
//! * the **coverage epoch** is bumped by every session-coverage change
//!   (`Paradyn::set_session_coverage`) and every mapping-instrumentation
//!   toggle, so a fleet degradation mid-search *invalidates* every cached
//!   interval instead of serving a stale narrow one — the PR 5 audit
//!   invariant (no decided verdict over a straddling interval) keeps
//!   holding because stale-epoch entries are unreachable by construction
//!   (lookups always carry the current epoch) and are purged on the next
//!   insert.
//!
//! # Filling and reading
//!
//! There is one way in: a caller runs the machine itself and `fill`
//! stores the batches of that run, one per focus it measured; `get`, a
//! lookup that never fills, answers from a stored batch. The consultant's
//! wave search gets every item and fills a whole multi-focus run at a
//! time; `Paradyn::experiment_cached` gets one experiment and fills a
//! one-focus run; `Paradyn::measure` only gets.
//!
//! Every experiment answered counts exactly one hit or one miss, so
//! `hits + misses` is the number of experiments answered and `misses` the
//! number of (focus, epoch) batches measured; `runs` counts the machine
//! runs that filled them.
//!
//! # Concurrency
//!
//! The map is sharded by key hash; a `get` takes one shared (read) lock
//! on one shard, so readers never block each other, and writes (one per
//! distinct focus in a whole search) are rare. A batch is stored whole,
//! so nothing is ever in flight in the cache: two callers that miss one
//! focus at once each run the machine, and the later `fill` replaces the
//! earlier batch with equal values. Hits and misses are counted under the
//! `consultant.mcache_hit` / `consultant.mcache_miss` observability
//! counters (self-mapped through `selfmap::TOOL_COUNTERS`).

use crate::metrics::RequestError;
use pdmap::util::{FxHasher, RwLock};
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::daemonset::Coverage;

/// One pure experiment outcome: the metric's value, the run's wall
/// seconds, and the [`Coverage`] the session stamped it with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// Metric value in its declared units.
    pub value: f64,
    /// Wall seconds of the (deterministic) run.
    pub wall: f64,
    /// The fleet coverage the value was computed under.
    pub coverage: Coverage,
}

/// The full address of a cached measurement batch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct BatchKey {
    /// Rendered focus path.
    focus: String,
    /// Content hash of the loaded program (PIF text × machine shape).
    program: u64,
    /// Session coverage epoch at request time.
    epoch: u64,
}

/// One machine run's worth of metric values at a focus, in request order.
pub type MeasuredBatch = Arc<Vec<(String, Result<Measured, RequestError>)>>;

/// `metric`'s entry in a batch, if the batch measured it.
pub(crate) fn answer(
    batch: &MeasuredBatch,
    metric: &str,
) -> Option<Result<Measured, RequestError>> {
    batch
        .iter()
        .find(|(m, _)| m == metric)
        .map(|(_, r)| r.clone())
}

/// Point-in-time cache counters (see [`MeasurementCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McacheStats {
    /// Experiments answered from a cached batch.
    pub hits: u64,
    /// Experiments whose batch had to be measured: the first experiment
    /// at each (focus, epoch) a run filled.
    pub misses: u64,
    /// Machine runs that filled the cache; one run may fill many foci.
    pub runs: u64,
}

struct McacheObs {
    hit: Arc<pdmap_obs::Counter>,
    miss: Arc<pdmap_obs::Counter>,
}

fn obs() -> &'static McacheObs {
    static OBS: OnceLock<McacheObs> = OnceLock::new();
    OBS.get_or_init(|| McacheObs {
        hit: pdmap_obs::counter("consultant.mcache_hit"),
        miss: pdmap_obs::counter("consultant.mcache_miss"),
    })
}

const SHARDS: usize = 16;

/// The sharded, read-mostly measurement cache. See the module docs.
pub struct MeasurementCache {
    shards: Vec<RwLock<HashMap<BatchKey, MeasuredBatch>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    runs: AtomicU64,
}

impl Default for MeasurementCache {
    fn default() -> Self {
        Self::new()
    }
}

impl MeasurementCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            runs: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &BatchKey) -> &RwLock<HashMap<BatchKey, MeasuredBatch>> {
        // The epoch is deliberately excluded from shard selection: every
        // epoch of a focus lands in the same shard, so the insert-time
        // purge below can drop stale-epoch entries without visiting the
        // other shards.
        let mut h = FxHasher::default();
        h.write(key.focus.as_bytes());
        h.write_u64(key.program);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Counts `n` experiments answered from a batch already measured.
    fn count_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
        obs().hit.add(n);
    }

    /// Counts one batch measured for the first experiment at its focus.
    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs().miss.incr();
    }

    /// Non-filling lookup: answers `metric` at `(focus, program, epoch)`
    /// from the cached batch. An answer counts one hit. `None` — nothing
    /// cached there, or a batch without that metric — counts nothing: this
    /// lookup never counts a miss and never runs a machine.
    pub(crate) fn get(
        &self,
        metric: &str,
        focus: &str,
        program: u64,
        epoch: u64,
    ) -> Option<Result<Measured, RequestError>> {
        let key = BatchKey {
            focus: focus.to_string(),
            program,
            epoch,
        };
        let found = answer(self.shard_of(&key).read().get(&key)?, metric)?;
        self.count_hits(1);
        Some(found)
    }

    /// Stores the batches one machine run measured under `(program,
    /// epoch)`, as `(focus, batch, experiments)` triples: `experiments` is
    /// how many experiments the caller answers from that focus's batch.
    /// Counts the run and, per focus, one miss for the first of those
    /// experiments and one hit for each of the others, which share the run.
    pub(crate) fn fill(&self, program: u64, epoch: u64, run: Vec<(String, MeasuredBatch, u64)>) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        for (focus, batch, experiments) in run {
            let key = BatchKey {
                focus,
                program,
                epoch,
            };
            {
                let mut g = self.shard_of(&key).write();
                // A changed program or a bumped coverage epoch makes every
                // old entry unreachable; drop them on the way in so a long
                // session never accumulates stale intervals.
                g.retain(|k, _| k.program == program && k.epoch == epoch);
                g.insert(key, batch);
            }
            self.count_miss();
            self.count_hits(experiments.saturating_sub(1));
        }
    }

    /// Hit, miss and run counters since construction (or the last
    /// [`clear`]).
    ///
    /// [`clear`]: MeasurementCache::clear
    pub fn stats(&self) -> McacheStats {
        McacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and zeroes the counters (bench hygiene between
    /// repetitions; sessions never need this — the epoch does the work).
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.runs.store(0, Ordering::Relaxed);
    }

    /// Number of cached batches (distinct foci × epochs × programs).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(pairs: &[(&str, f64)]) -> MeasuredBatch {
        Arc::new(
            pairs
                .iter()
                .map(|&(m, v)| {
                    (
                        m.to_string(),
                        Ok(Measured {
                            value: v,
                            wall: 1.0,
                            coverage: Coverage::complete(1),
                        }),
                    )
                })
                .collect(),
        )
    }

    /// One experiment served as `Paradyn::experiment_cached` serves it:
    /// from the cache, or else by one `run` whose batch is filled in.
    fn serve(
        c: &MeasurementCache,
        metric: &str,
        focus: &str,
        program: u64,
        epoch: u64,
        run: impl FnOnce() -> MeasuredBatch,
    ) -> Option<Result<Measured, RequestError>> {
        c.get(metric, focus, program, epoch).or_else(|| {
            let measured = run();
            c.fill(program, epoch, vec![(focus.into(), measured.clone(), 1)]);
            answer(&measured, metric)
        })
    }

    #[test]
    fn second_metric_at_same_focus_is_a_hit() {
        let c = MeasurementCache::new();
        let mut runs = 0;
        let r = serve(&c, "m1", "/", 7, 0, || {
            runs += 1;
            batch(&[("m1", 1.0), ("m2", 2.0)])
        });
        assert_eq!(r.unwrap().unwrap().value, 1.0);
        let r2 = serve(&c, "m2", "/", 7, 0, || {
            runs += 1;
            batch(&[])
        });
        assert_eq!(r2.unwrap().unwrap().value, 2.0);
        assert_eq!(runs, 1, "one machine run serves both metrics");
        assert_eq!(
            c.stats(),
            McacheStats {
                hits: 1,
                misses: 1,
                runs: 1
            }
        );
    }

    #[test]
    fn fill_stores_one_run_over_many_foci_and_get_never_fills() {
        let c = MeasurementCache::new();
        assert!(
            c.get("m1", "/a", 7, 0).is_none(),
            "empty cache answers nothing"
        );
        assert_eq!(c.stats(), McacheStats::default(), "and counts nothing");
        // One run over two foci: three experiments at /a, one at /b.
        c.fill(
            7,
            0,
            vec![
                ("/a".into(), batch(&[("m1", 1.0), ("m2", 2.0)]), 3),
                ("/b".into(), batch(&[("m1", 5.0), ("m2", 6.0)]), 1),
            ],
        );
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.runs), (2, 2, 1));
        assert_eq!(c.get("m2", "/a", 7, 0).unwrap().unwrap().value, 2.0);
        assert_eq!(c.get("m1", "/b", 7, 0).unwrap().unwrap().value, 5.0);
        assert!(
            c.get("m3", "/a", 7, 0).is_none(),
            "metric outside the batch"
        );
        assert!(c.get("m1", "/a", 7, 1).is_none(), "another epoch");
        let st = c.stats();
        assert_eq!(
            (st.hits, st.misses, st.runs),
            (4, 2, 1),
            "get counts hits only"
        );
        // A served experiment shares a filled batch instead of running.
        let r = serve(&c, "m1", "/a", 7, 0, || unreachable!("cached"));
        assert_eq!(r.unwrap().unwrap().value, 1.0);
        // A fill under a new epoch purges the old epoch's batch there.
        c.fill(7, 1, vec![("/a".into(), batch(&[("m1", 9.0)]), 1)]);
        assert!(c.get("m1", "/a", 7, 0).is_none());
        assert_eq!(c.get("m1", "/a", 7, 1).unwrap().unwrap().value, 9.0);
        assert_eq!(c.stats().runs, 2);
    }

    #[test]
    fn epoch_bump_invalidates_and_purges() {
        let c = MeasurementCache::new();
        let _ = serve(&c, "m", "/", 7, 0, || batch(&[("m", 1.0)]));
        assert_eq!(c.len(), 1);
        // Same focus, new epoch: miss, and the stale entry is purged.
        let r = serve(&c, "m", "/", 7, 1, || batch(&[("m", 5.0)]));
        assert_eq!(r.unwrap().unwrap().value, 5.0);
        assert_eq!(c.stats().misses, 2, "epoch bump forces a re-measure");
        assert_eq!(c.len(), 1, "stale-epoch batch was dropped");
    }

    #[test]
    fn program_hash_separates_programs() {
        let c = MeasurementCache::new();
        let _ = serve(&c, "m", "/", 1, 0, || batch(&[("m", 1.0)]));
        let r = serve(&c, "m", "/", 2, 0, || batch(&[("m", 9.0)]));
        assert_eq!(r.unwrap().unwrap().value, 9.0);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn missing_metric_in_cached_batch_returns_none() {
        let c = MeasurementCache::new();
        let _ = serve(&c, "m1", "/", 7, 0, || batch(&[("m1", 1.0)]));
        assert!(c.get("other", "/", 7, 0).is_none());
    }

    #[test]
    fn clear_resets_everything() {
        let c = MeasurementCache::new();
        let _ = serve(&c, "m", "/", 7, 0, || batch(&[("m", 1.0)]));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), McacheStats::default());
    }
}
