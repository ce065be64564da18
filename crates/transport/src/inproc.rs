//! The in-process backend: a pair of bounded frame queues.
//!
//! This is the seed architecture's single-process wiring, upgraded with the
//! transport contract: bounded queues, backpressure accounting, sequence
//! stamping and self-metrics — so a program measured in-process and one
//! measured over TCP report through identical machinery.

use crate::config::TransportConfig;
use crate::frame::{Frame, FrameKind};
use crate::obs;
use crate::queue::BoundedQueue;
use crate::stats::{FrameTally, StatsCell, TransportStats};
use crate::{Backend, Transport, TransportError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One end of an in-process duplex link.
pub struct InProcEnd {
    out: Arc<BoundedQueue>,
    inc: Arc<BoundedQueue>,
    /// Cleared when either end closes.
    open: Arc<AtomicBool>,
    next_seq: AtomicU64,
    stats: Arc<StatsCell>,
}

impl InProcEnd {
    /// Creates a connected pair of ends. Frames sent on one are received on
    /// the other.
    pub fn pair(cfg: &TransportConfig) -> (Arc<InProcEnd>, Arc<InProcEnd>) {
        let stats_a = Arc::new(StatsCell::default());
        let stats_b = Arc::new(StatsCell::default());
        // Each direction's queue charges drops to its *sender's* stats.
        let a_to_b = Arc::new(BoundedQueue::new(
            cfg.capacity,
            cfg.backpressure,
            stats_a.clone(),
        ));
        let b_to_a = Arc::new(BoundedQueue::new(
            cfg.capacity,
            cfg.backpressure,
            stats_b.clone(),
        ));
        let open = Arc::new(AtomicBool::new(true));
        let a = Arc::new(InProcEnd {
            out: a_to_b.clone(),
            inc: b_to_a.clone(),
            open: open.clone(),
            next_seq: AtomicU64::new(1),
            stats: stats_a,
        });
        let b = Arc::new(InProcEnd {
            out: b_to_a,
            inc: a_to_b,
            open,
            next_seq: AtomicU64::new(1),
            stats: stats_b,
        });
        (a, b)
    }
}

impl Transport for InProcEnd {
    fn send(&self, kind: FrameKind, payload: Vec<u8>) -> Result<(), TransportError> {
        if !self.open.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let t0 = obs::clock();
        let mut frame = Frame::data(kind, payload);
        frame.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let tally = FrameTally::of(&frame);
        self.out.push(frame).map_err(|_| TransportError::Closed)?;
        self.stats.on_frame_sent(tally);
        obs::sent(Backend::InProc, kind, t0);
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<Frame>, TransportError> {
        let t0 = obs::clock();
        match self.inc.try_pop() {
            Some(f) => {
                self.stats.on_frame_received(FrameTally::of(&f));
                obs::delivered(Backend::InProc, f.kind, t0);
                Ok(Some(f))
            }
            None if !self.open.load(Ordering::Acquire) => Err(TransportError::Closed),
            None => Ok(None),
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }

    fn is_alive(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }

    fn close(&self) {
        self.open.store(false, Ordering::Release);
        self.out.close();
        self.inc.close();
    }

    fn backend_name(&self) -> &'static str {
        "in-proc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Backpressure;

    #[test]
    fn duplex_delivery_and_stats() {
        let (a, b) = InProcEnd::pair(&TransportConfig::default());
        a.send(FrameKind::Daemon, b"ping".to_vec()).unwrap();
        b.send(FrameKind::Daemon, b"pong".to_vec()).unwrap();
        let at_b = b.try_recv().unwrap().unwrap();
        assert_eq!(at_b.payload, b"ping");
        assert_eq!(at_b.seq, 1);
        assert_eq!(a.try_recv().unwrap().unwrap().payload, b"pong");
        assert_eq!(a.stats().frames_sent, 1);
        assert_eq!(b.stats().frames_received, 1);
        assert!(a.stats().bytes_sent > 4);
    }

    #[test]
    fn sequences_increment_per_end() {
        let (a, b) = InProcEnd::pair(&TransportConfig::default());
        for _ in 0..3 {
            a.send(FrameKind::SasForward, vec![]).unwrap();
        }
        let seqs: Vec<u64> = (0..3).map(|_| b.try_recv().unwrap().unwrap().seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn drop_oldest_accounts_losses() {
        let cfg = TransportConfig::with_capacity(2).backpressure(Backpressure::DropOldest);
        let (a, b) = InProcEnd::pair(&cfg);
        for i in 0..5u8 {
            a.send(FrameKind::Daemon, vec![i]).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(Some(f)) = b.try_recv() {
            got.push(f.payload[0]);
        }
        assert_eq!(got, vec![3, 4]);
        let s = a.stats();
        assert_eq!(s.frames_sent, 5);
        assert_eq!(s.drops, 3);
        assert_eq!(s.frames_sent - s.drops, got.len() as u64);
    }

    #[test]
    fn close_propagates_to_both_ends() {
        let (a, b) = InProcEnd::pair(&TransportConfig::default());
        assert!(a.is_alive() && b.is_alive());
        b.close();
        assert!(!a.is_alive());
        assert_eq!(
            a.send(FrameKind::Daemon, vec![]).unwrap_err(),
            TransportError::Closed
        );
        assert_eq!(b.try_recv().unwrap_err(), TransportError::Closed);
    }
}
