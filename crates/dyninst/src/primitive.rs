//! Instrumentation primitives: counters and timers (paper §4.1).
//!
//! Primitives live in a [`PrimitiveStore`] shared between the tool (which
//! allocates and samples them) and the instrumented application threads
//! (which update them from snippet code). Counters are plain atomic adds.
//! Timers follow Paradyn semantics: `start`/`stop` pairs may nest; the
//! timer accumulates elapsed time while at least one start is outstanding.
//!
//! Time is a `u64` tick count supplied by the caller — the CMRTS simulator
//! passes its per-node virtual process clock for process timers and the
//! machine clock for wall timers, keeping every measurement deterministic.

use pdmap::util::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};

/// Identifies a counter in a [`PrimitiveStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CounterId(pub(crate) u32);

/// Identifies a timer in a [`PrimitiveStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u32);

impl fmt::Debug for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CounterId({})", self.0)
    }
}

impl fmt::Debug for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimerId({})", self.0)
    }
}

#[derive(Debug, Default)]
struct Timer {
    /// Accumulated ticks over completed start/stop windows.
    accumulated: AtomicU64,
    /// Nesting depth of outstanding starts.
    depth: AtomicU32,
    /// Tick at which the outermost outstanding start fired.
    started_at: AtomicU64,
}

/// Shared storage for counters and timers.
///
/// Allocation (`new_counter`/`new_timer`) takes its vector's write lock.
/// Every update and read takes that vector's read lock and moves the
/// primitive's atomics in place (primitives are stored inline, so a
/// request allocates no heap cell of its own); readers share the lock, so
/// only an allocation makes them wait. Each timer is only ever driven from
/// one node thread (its snippets run on that node), so the relaxed
/// orderings are sufficient; cross-thread sampling sees a consistent
/// *monotone under-estimate* while a timer is running, and the exact value
/// once stopped.
#[derive(Default)]
pub struct PrimitiveStore {
    counters: RwLock<Vec<AtomicI64>>,
    timers: RwLock<Vec<Timer>>,
}

impl PrimitiveStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a counter, initialised to zero.
    pub fn new_counter(&self) -> CounterId {
        let mut g = self.counters.write();
        let id = CounterId(g.len() as u32);
        g.push(AtomicI64::new(0));
        id
    }

    /// Allocates a timer, initialised to zero accumulated ticks.
    pub fn new_timer(&self) -> TimerId {
        let mut g = self.timers.write();
        let id = TimerId(g.len() as u32);
        g.push(Timer::default());
        id
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn incr(&self, id: CounterId, delta: i64) {
        let g = self.counters.read();
        g[id.0 as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn read_counter(&self, id: CounterId) -> i64 {
        self.counters.read()[id.0 as usize].load(Ordering::Relaxed)
    }

    /// Resets a counter to zero, returning the previous value.
    pub fn reset_counter(&self, id: CounterId) -> i64 {
        self.counters.read()[id.0 as usize].swap(0, Ordering::Relaxed)
    }

    /// Starts (or nests) a timer at tick `now`.
    #[inline]
    pub fn start_timer(&self, id: TimerId, now: u64) {
        let g = self.timers.read();
        let t = &g[id.0 as usize];
        if t.depth.fetch_add(1, Ordering::Relaxed) == 0 {
            t.started_at.store(now, Ordering::Relaxed);
        }
    }

    /// Stops one nesting level of a timer at tick `now`. An unmatched stop
    /// is ignored (counted nowhere — the snippet compiler pairs them).
    #[inline]
    pub fn stop_timer(&self, id: TimerId, now: u64) {
        let g = self.timers.read();
        let t = &g[id.0 as usize];
        let depth = t.depth.load(Ordering::Relaxed);
        if depth == 0 {
            return;
        }
        if depth == 1 {
            let started = t.started_at.load(Ordering::Relaxed);
            t.accumulated
                .fetch_add(now.saturating_sub(started), Ordering::Relaxed);
        }
        t.depth.store(depth - 1, Ordering::Relaxed);
    }

    /// Reads a timer's accumulated ticks; if it is currently running, the
    /// in-progress window up to `now` is included.
    pub fn read_timer(&self, id: TimerId, now: u64) -> u64 {
        let g = self.timers.read();
        let t = &g[id.0 as usize];
        let mut acc = t.accumulated.load(Ordering::Relaxed);
        if t.depth.load(Ordering::Relaxed) > 0 {
            acc += now.saturating_sub(t.started_at.load(Ordering::Relaxed));
        }
        acc
    }

    /// True if the timer has an outstanding start.
    pub fn timer_running(&self, id: TimerId) -> bool {
        self.timers.read()[id.0 as usize]
            .depth
            .load(Ordering::Relaxed)
            > 0
    }

    /// Number of allocated counters.
    pub fn num_counters(&self) -> usize {
        self.counters.read().len()
    }

    /// Number of allocated timers.
    pub fn num_timers(&self) -> usize {
        self.timers.read().len()
    }
}

impl fmt::Debug for PrimitiveStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PrimitiveStore({} counters, {} timers)",
            self.num_counters(),
            self.num_timers()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_incr_and_read() {
        let p = PrimitiveStore::new();
        let c = p.new_counter();
        p.incr(c, 5);
        p.incr(c, -2);
        assert_eq!(p.read_counter(c), 3);
        assert_eq!(p.reset_counter(c), 3);
        assert_eq!(p.read_counter(c), 0);
    }

    #[test]
    fn timer_accumulates_windows() {
        let p = PrimitiveStore::new();
        let t = p.new_timer();
        p.start_timer(t, 100);
        p.stop_timer(t, 150);
        p.start_timer(t, 200);
        p.stop_timer(t, 210);
        assert_eq!(p.read_timer(t, 999), 60);
        assert!(!p.timer_running(t));
    }

    #[test]
    fn timer_nesting_counts_outer_window() {
        let p = PrimitiveStore::new();
        let t = p.new_timer();
        p.start_timer(t, 0);
        p.start_timer(t, 10); // nested
        p.stop_timer(t, 20);
        assert!(p.timer_running(t));
        p.stop_timer(t, 50);
        assert_eq!(p.read_timer(t, 999), 50);
    }

    #[test]
    fn running_timer_read_includes_progress() {
        let p = PrimitiveStore::new();
        let t = p.new_timer();
        p.start_timer(t, 1000);
        assert_eq!(p.read_timer(t, 1500), 500);
        p.stop_timer(t, 2000);
        assert_eq!(p.read_timer(t, 9999), 1000);
    }

    #[test]
    fn unmatched_stop_is_ignored() {
        let p = PrimitiveStore::new();
        let t = p.new_timer();
        p.stop_timer(t, 50);
        assert_eq!(p.read_timer(t, 100), 0);
    }

    #[test]
    fn counters_are_independent() {
        let p = PrimitiveStore::new();
        let a = p.new_counter();
        let b = p.new_counter();
        p.incr(a, 1);
        assert_eq!(p.read_counter(a), 1);
        assert_eq!(p.read_counter(b), 0);
        assert_eq!(p.num_counters(), 2);
    }

    #[test]
    fn concurrent_counter_updates() {
        let p = PrimitiveStore::new();
        let c = p.new_counter();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = &p;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        p.incr(c, 1);
                    }
                });
            }
        });
        assert_eq!(p.read_counter(c), 40_000);
    }

    #[test]
    fn allocation_while_updating() {
        // Allocating new primitives must not disturb existing ones.
        let p = PrimitiveStore::new();
        let c = p.new_counter();
        p.incr(c, 7);
        for _ in 0..100 {
            p.new_counter();
            p.new_timer();
        }
        assert_eq!(p.read_counter(c), 7);
    }
}
