//! The bounded frame queue behind every sending end.
//!
//! The seed's unbounded text channel let a fast producer grow memory
//! without limit; here every send queue has a capacity and an explicit
//! [`Backpressure`] policy, with drops accounted in the transport stats so
//! losses are always explainable.

use crate::frame::Frame;
use crate::stats::StatsCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What to do when a bounded send queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backpressure {
    /// The sender blocks until space frees up (lossless, propagates
    /// pressure to the producer).
    Block,
    /// The oldest queued frame is discarded and counted as a drop (bounded
    /// latency, explicit loss).
    DropOldest,
}

/// A bounded MPMC frame queue with drop accounting.
pub struct BoundedQueue {
    inner: Mutex<VecDeque<Frame>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    policy: Backpressure,
    closed: AtomicBool,
    stats: Arc<StatsCell>,
}

impl BoundedQueue {
    /// Creates a queue of at most `capacity` frames.
    pub fn new(capacity: usize, policy: Backpressure, stats: Arc<StatsCell>) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            policy,
            closed: AtomicBool::new(false),
            stats,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Frame>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues a frame, applying the backpressure policy. `Err` only after
    /// [`BoundedQueue::close`].
    pub fn push(&self, frame: Frame) -> Result<(), Closed> {
        let mut g = self.lock();
        // Time actually spent blocked on a full queue (recorded only when
        // the Block policy made us wait at least once).
        let mut wait_start: Option<u64> = None;
        loop {
            if self.closed.load(Ordering::Acquire) {
                record_queue_wait(wait_start);
                return Err(Closed);
            }
            if g.len() < self.capacity {
                break;
            }
            match self.policy {
                Backpressure::DropOldest => {
                    g.pop_front();
                    self.stats.on_drop(1);
                    break;
                }
                Backpressure::Block => {
                    if wait_start.is_none() && pdmap_obs::enabled() {
                        wait_start = Some(pdmap_obs::now_ns());
                    }
                    g = self.not_full.wait(g).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        record_queue_wait(wait_start);
        g.push_back(frame);
        self.stats.observe_queue_depth(g.len());
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<Frame> {
        let popped = self.lock().pop_front();
        if popped.is_some() {
            self.not_full.notify_one();
        }
        popped
    }

    /// Pops, waiting up to `timeout` for a frame. `None` on timeout or
    /// close-with-empty-queue.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<Frame> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.lock();
        loop {
            if let Some(f) = g.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(f);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .not_empty
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
    }

    /// Moves queued frames to `out`, oldest first, under one lock hold:
    /// it stops at the first frame whose encoded size would overrun
    /// `budget` bytes, or once `out` holds `max` frames. How a writer
    /// takes a whole burst at once.
    pub fn pop_burst(&self, out: &mut Vec<Frame>, mut budget: usize, max: usize) {
        let mut g = self.lock();
        let before = out.len();
        while out.len() < max {
            match g.front() {
                Some(f) if f.encoded_len() <= budget => {
                    budget -= f.encoded_len();
                    out.extend(g.pop_front());
                }
                _ => break,
            }
        }
        drop(g);
        if out.len() > before {
            self.not_full.notify_all();
        }
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every queued frame, returning them (used to account losses
    /// when a link is abandoned).
    pub fn drain(&self) -> Vec<Frame> {
        let drained: Vec<Frame> = self.lock().drain(..).collect();
        self.not_full.notify_all();
        drained
    }

    /// True after [`BoundedQueue::close`].
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closes the queue: pushes fail, blocked waiters wake. `closed` is
    /// set under the queue's lock, so a waiter that found the queue open
    /// is already waiting when the wake comes.
    pub fn close(&self) {
        let g = self.lock();
        self.closed.store(true, Ordering::Release);
        drop(g);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

#[inline]
fn record_queue_wait(start: Option<u64>) {
    if let Some(t0) = start {
        crate::obs::obs()
            .queue_wait_ns
            .record(pdmap_obs::now_ns().saturating_sub(t0));
    }
}

/// The queue (or transport) was closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    fn q(cap: usize, policy: Backpressure) -> (BoundedQueue, Arc<StatsCell>) {
        let stats = Arc::new(StatsCell::default());
        (BoundedQueue::new(cap, policy, stats.clone()), stats)
    }

    fn frame(tag: u8) -> Frame {
        Frame::data(FrameKind::Daemon, vec![tag])
    }

    #[test]
    fn fifo_order() {
        let (q, _) = q(10, Backpressure::Block);
        for i in 0..5 {
            q.push(frame(i)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.try_pop().unwrap().payload, vec![i]);
        }
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn drop_oldest_counts_drops() {
        let (q, stats) = q(3, Backpressure::DropOldest);
        for i in 0..7 {
            q.push(frame(i)).unwrap();
        }
        assert_eq!(stats.snapshot().drops, 4);
        assert_eq!(q.len(), 3);
        // The survivors are the newest three.
        assert_eq!(q.try_pop().unwrap().payload, vec![4]);
        assert_eq!(stats.snapshot().max_queue_depth, 3);
    }

    #[test]
    fn block_policy_waits_for_space() {
        let stats = Arc::new(StatsCell::default());
        let q = Arc::new(BoundedQueue::new(2, Backpressure::Block, stats.clone()));
        q.push(frame(0)).unwrap();
        q.push(frame(1)).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(frame(2)));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 2, "producer must be blocked");
        q.try_pop();
        t.join().unwrap().unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(stats.snapshot().drops, 0);
    }

    #[test]
    fn close_unblocks_and_fails_pushes() {
        let stats = Arc::new(StatsCell::default());
        let q = Arc::new(BoundedQueue::new(1, Backpressure::Block, stats));
        q.push(frame(0)).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(frame(1)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), Err(Closed));
        assert_eq!(q.push(frame(2)), Err(Closed));
        // Draining still works after close.
        assert_eq!(q.drain().len(), 1);
    }

    #[test]
    fn close_racing_a_blocking_push_always_fails_it() {
        for round in 0..2000 {
            let stats = Arc::new(StatsCell::default());
            let q = Arc::new(BoundedQueue::new(1, Backpressure::Block, stats));
            q.push(frame(0)).unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            let q2 = q.clone();
            let pusher = std::thread::spawn(move || tx.send(q2.push(frame(1))));
            q.close();
            // A lost wake leaves the push blocked for good: the deadline
            // fails the test instead of hanging it.
            let pushed = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("round {round}: the push missed the close"));
            assert_eq!(pushed, Err(Closed), "round {round}");
            pusher.join().unwrap().unwrap();
        }
    }

    #[test]
    fn pop_timeout_returns_none_when_idle() {
        let (q, _) = q(2, Backpressure::Block);
        let start = std::time::Instant::now();
        assert!(q.pop_timeout(Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn pop_burst_stops_at_the_byte_budget_and_the_frame_cap() {
        let (q, _) = q(10, Backpressure::Block);
        for i in 0..6 {
            q.push(frame(i)).unwrap();
        }
        let one = frame(0).encoded_len();
        let mut out = Vec::new();
        // Three frames fit the budget; the fourth would overrun it.
        q.pop_burst(&mut out, 3 * one + one / 2, 10);
        assert_eq!(out.len(), 3);
        // The frame cap counts what `out` already holds.
        q.pop_burst(&mut out, usize::MAX, 4);
        assert_eq!(out.len(), 4);
        let order: Vec<u8> = out.iter().map(|f| f.payload[0]).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 2);
    }
}
