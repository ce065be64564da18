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
//! The consultant's wave search fills the cache a whole run at a time:
//! `fill` stores the batches of one multi-focus run, and `get` — a lookup
//! that never fills — is how the wave skips foci already measured and how
//! `Paradyn::measure` answers a query at a searched focus without a run.
//! [`MeasurementCache::get_or_fill`] serves one experiment at a time
//! (`Paradyn::experiment_cached`).
//!
//! Every experiment answered counts exactly one hit or one miss, so
//! `hits + misses` is the number of experiments answered and `misses` the
//! number of (focus, epoch) batches measured; `runs` counts the machine
//! runs that filled them.
//!
//! # Concurrency
//!
//! The map is sharded by key hash; the read path takes one shared
//! (read) lock on one shard — readers never block each other, and writes
//! (one per distinct focus in a whole search) are rare. In-flight
//! [`get_or_fill`](MeasurementCache::get_or_fill) runs are deduplicated:
//! the first experiment to ask for a focus inserts a pending cell and runs
//! the machine; every overlapping experiment blocks on that cell's condvar
//! and shares the one measurement. Hits and misses are counted under the
//! `consultant.mcache_hit` / `consultant.mcache_miss` observability
//! counters (self-mapped through `selfmap::TOOL_COUNTERS`).

use crate::metrics::RequestError;
use pdmap::util::{FxHasher, RwLock};
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::time::Duration;

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

/// `None` while the inserting experiment's machine run is still in flight.
struct Cell {
    state: std::sync::Mutex<Option<MeasuredBatch>>,
    ready: Condvar,
}

/// Point-in-time cache counters (see [`MeasurementCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct McacheStats {
    /// Experiments answered from a cached (or in-flight shared) batch.
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
    shards: Vec<RwLock<HashMap<BatchKey, Arc<Cell>>>>,
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

    fn shard_of(&self, key: &BatchKey) -> &RwLock<HashMap<BatchKey, Arc<Cell>>> {
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
    /// from the cached batch, waiting out a fill still in flight. An answer
    /// counts one hit. `None` — nothing cached there, or a batch without
    /// that metric — counts nothing: this lookup never counts a miss and
    /// never runs a machine.
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
        let cell = self.shard_of(&key).read().get(&key).cloned()?;
        let found = answer(&Self::wait_ready(&cell), metric)?;
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
            let cell = Arc::new(Cell {
                state: std::sync::Mutex::new(Some(batch)),
                ready: Condvar::new(),
            });
            {
                let mut g = self.shard_of(&key).write();
                g.retain(|k, _| k.program == program && k.epoch == epoch);
                g.insert(key, cell);
            }
            self.count_miss();
            self.count_hits(experiments.saturating_sub(1));
        }
    }

    /// Looks up the batch for `(focus, program, epoch)`, running `fill`
    /// (one instrumented machine run producing every metric of the batch)
    /// exactly once per distinct key — concurrent callers for the same key
    /// block on the in-flight run and share its result. Returns the entry
    /// for `metric`, or `None` if the cached batch does not carry that
    /// metric (the caller measures directly).
    pub fn get_or_fill(
        &self,
        metric: &str,
        focus: &str,
        program: u64,
        epoch: u64,
        fill: impl FnOnce() -> MeasuredBatch,
    ) -> Option<Result<Measured, RequestError>> {
        // Fast path: shared lock only. Experiments at a focus the cache
        // already holds never take the write lock.
        if let Some(found) = self.get(metric, focus, program, epoch) {
            return Some(found);
        }
        let key = BatchKey {
            focus: focus.to_string(),
            program,
            epoch,
        };
        let shard = self.shard_of(&key);
        // Slow path: race to insert the pending cell.
        let (cell, winner) = {
            let mut g = shard.write();
            // A changed program or a bumped coverage epoch makes every old
            // entry unreachable; drop them on the way in so a long session
            // never accumulates stale intervals.
            g.retain(|k, _| k.program == program && k.epoch == epoch);
            match g.get(&key).cloned() {
                Some(cell) => (cell, false),
                None => {
                    let cell = Arc::new(Cell {
                        state: std::sync::Mutex::new(None),
                        ready: Condvar::new(),
                    });
                    g.insert(key, cell.clone());
                    (cell, true)
                }
            }
        };
        if !winner {
            let batch = Self::wait_ready(&cell);
            self.count_hits(1);
            return answer(&batch, metric);
        }
        self.count_miss();
        self.runs.fetch_add(1, Ordering::Relaxed);
        let batch = fill();
        {
            let mut st = cell.state.lock().unwrap_or_else(|e| e.into_inner());
            *st = Some(batch.clone());
        }
        cell.ready.notify_all();
        answer(&batch, metric)
    }

    fn wait_ready(cell: &Cell) -> MeasuredBatch {
        let mut st = cell.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.is_none() {
            // Timed re-check, like the daemonset drain pool: a missed
            // notify on an oversubscribed host costs 5 ms, not a hang.
            st = cell
                .ready
                .wait_timeout(st, Duration::from_millis(5))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        st.clone().expect("cell filled")
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

    #[test]
    fn second_metric_at_same_focus_is_a_hit() {
        let c = MeasurementCache::new();
        let mut runs = 0;
        let r = c.get_or_fill("m1", "/", 7, 0, || {
            runs += 1;
            batch(&[("m1", 1.0), ("m2", 2.0)])
        });
        assert_eq!(r.unwrap().unwrap().value, 1.0);
        let r2 = c.get_or_fill("m2", "/", 7, 0, || {
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
        // get_or_fill shares a filled batch instead of running.
        let r = c.get_or_fill("m1", "/a", 7, 0, || unreachable!("cached"));
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
        let _ = c.get_or_fill("m", "/", 7, 0, || batch(&[("m", 1.0)]));
        assert_eq!(c.len(), 1);
        // Same focus, new epoch: miss, and the stale entry is purged.
        let r = c.get_or_fill("m", "/", 7, 1, || batch(&[("m", 5.0)]));
        assert_eq!(r.unwrap().unwrap().value, 5.0);
        assert_eq!(c.stats().misses, 2, "epoch bump forces a re-measure");
        assert_eq!(c.len(), 1, "stale-epoch batch was dropped");
    }

    #[test]
    fn program_hash_separates_programs() {
        let c = MeasurementCache::new();
        let _ = c.get_or_fill("m", "/", 1, 0, || batch(&[("m", 1.0)]));
        let r = c.get_or_fill("m", "/", 2, 0, || batch(&[("m", 9.0)]));
        assert_eq!(r.unwrap().unwrap().value, 9.0);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn missing_metric_in_cached_batch_returns_none() {
        let c = MeasurementCache::new();
        let _ = c.get_or_fill("m1", "/", 7, 0, || batch(&[("m1", 1.0)]));
        assert!(c
            .get_or_fill("other", "/", 7, 0, || batch(&[("other", 3.0)]))
            .is_none());
    }

    #[test]
    fn concurrent_same_focus_shares_one_fill() {
        let c = Arc::new(MeasurementCache::new());
        let runs = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for i in 0..8 {
                let c = c.clone();
                let runs = runs.clone();
                let metric = format!("m{}", i % 4);
                s.spawn(move || {
                    let r = c.get_or_fill(&metric, "/f", 7, 0, || {
                        runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        // A slow fill widens the race window.
                        std::thread::sleep(Duration::from_millis(10));
                        batch(&[("m0", 0.0), ("m1", 1.0), ("m2", 2.0), ("m3", 3.0)])
                    });
                    assert!(r.unwrap().is_ok());
                });
            }
        });
        assert_eq!(
            runs.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "all eight experiments share one machine run"
        );
        let st = c.stats();
        assert_eq!(st.hits + st.misses, 8);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let c = MeasurementCache::new();
        let _ = c.get_or_fill("m", "/", 7, 0, || batch(&[("m", 1.0)]));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), McacheStats::default());
    }
}
