//! Transport self-metrics.
//!
//! A measurement tool must be able to measure itself: every backend keeps a
//! [`StatsCell`] of atomic counters, snapshotted into the plain
//! [`TransportStats`], whose rows ([`TRANSPORT_ROWS`]) the tool layer
//! exports as its Figure-9-style "Transport" metric level.

use crate::frame::{Frame, FrameKind};
use crate::wire::SampleBatch;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one data frame adds to a transport's counters: its encoded bytes
/// and, for a [`SampleBatch`] frame, the samples it carries.
#[derive(Clone, Copy, Debug)]
pub struct FrameTally {
    bytes: u64,
    samples: u64,
}

impl FrameTally {
    /// The tally of `frame`; a batch whose count cannot be read carries
    /// no samples.
    pub fn of(frame: &Frame) -> Self {
        let samples = match frame.kind {
            FrameKind::SampleBatch => SampleBatch::peek_count(&frame.payload).unwrap_or(0),
            _ => 0,
        };
        FrameTally {
            bytes: frame.encoded_len() as u64,
            samples: samples as u64,
        }
    }
}

/// Shared atomic counters updated by the transport hot paths.
#[derive(Debug, Default)]
pub struct StatsCell {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
    drops: AtomicU64,
    duplicates: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    heartbeats_sent: AtomicU64,
    heartbeats_received: AtomicU64,
    acks_sent: AtomicU64,
    acks_received: AtomicU64,
    max_queue_depth: AtomicU64,
    auth_failures: AtomicU64,
    samples_batched_sent: AtomicU64,
    samples_batched_received: AtomicU64,
    writes: AtomicU64,
}

impl StatsCell {
    /// Records a data frame accepted for delivery.
    pub fn on_frame_sent(&self, t: FrameTally) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(t.bytes, Ordering::Relaxed);
        self.samples_batched_sent
            .fetch_add(t.samples, Ordering::Relaxed);
    }

    /// Records a data frame delivered to the receiving application.
    pub fn on_frame_received(&self, t: FrameTally) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received.fetch_add(t.bytes, Ordering::Relaxed);
        self.samples_batched_received
            .fetch_add(t.samples, Ordering::Relaxed);
    }

    /// Records `n` dropped frames (backpressure policy or link failure).
    pub fn on_drop(&self, n: u64) {
        self.drops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a duplicate data frame suppressed by sequence tracking.
    pub fn on_duplicate(&self) {
        self.duplicates.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a failed connection attempt.
    pub fn on_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful re-establishment of a lost connection.
    pub fn on_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a heartbeat probe sent.
    pub fn on_heartbeat_sent(&self) {
        self.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a heartbeat probe received.
    pub fn on_heartbeat_received(&self) {
        self.heartbeats_received.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an acknowledgement sent.
    pub fn on_ack_sent(&self) {
        self.acks_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an acknowledgement received.
    pub fn on_ack_received(&self) {
        self.acks_received.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a peer rejected by the authenticated Hello handshake.
    pub fn on_auth_failure(&self) {
        self.auth_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one socket write call.
    pub fn on_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds an observed queue depth into the high-water mark.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            heartbeats_sent: self.heartbeats_sent.load(Ordering::Relaxed),
            heartbeats_received: self.heartbeats_received.load(Ordering::Relaxed),
            acks_sent: self.acks_sent.load(Ordering::Relaxed),
            acks_received: self.acks_received.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            samples_batched_sent: self.samples_batched_sent.load(Ordering::Relaxed),
            samples_batched_received: self.samples_batched_received.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of transport self-metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Data frames accepted for delivery and written to the wire/queue.
    pub frames_sent: u64,
    /// Encoded bytes of those frames.
    pub bytes_sent: u64,
    /// Data frames delivered to the receiving application.
    pub frames_received: u64,
    /// Encoded bytes of those frames.
    pub bytes_received: u64,
    /// Frames discarded: backpressure (`DropOldest`) or link give-up.
    pub drops: u64,
    /// Redelivered frames suppressed by sequence tracking after reconnect.
    pub duplicates: u64,
    /// Failed connection attempts.
    pub retries: u64,
    /// Connections re-established after a loss.
    pub reconnects: u64,
    /// Heartbeat probes sent.
    pub heartbeats_sent: u64,
    /// Heartbeat probes received (includes echoes).
    pub heartbeats_received: u64,
    /// Acknowledgements sent.
    pub acks_sent: u64,
    /// Acknowledgements received.
    pub acks_received: u64,
    /// High-water mark of the bounded send queue.
    pub max_queue_depth: u64,
    /// Peers rejected by the authenticated Hello handshake (wrong or
    /// missing tag); a rejected peer never reaches the session.
    pub auth_failures: u64,
    /// Samples carried out in `SampleBatch` frames (counted per sample, not
    /// per frame — this is the conservation-relevant unit).
    pub samples_batched_sent: u64,
    /// Samples carried in by `SampleBatch` frames.
    pub samples_batched_received: u64,
    /// Socket write calls issued (zero in-process). `frames_sent / writes`
    /// is the mean number of frames a write carries.
    pub writes: u64,
}

/// The "Transport" level of the tool's self-measurement, one row per
/// [`TransportStats`] counter in catalogue order: `(metric name, MDL units,
/// description)`. The tool generates its "Transport" metric catalogue from
/// this table, and [`TransportStats::rows`] pairs it with values.
pub const TRANSPORT_ROWS: [(&str, &str, &str); 17] = [
    (
        "Transport Frames Sent",
        "operations",
        "Data frames accepted for delivery.",
    ),
    (
        "Transport Bytes Sent",
        "bytes",
        "Encoded bytes of frames accepted for delivery.",
    ),
    (
        "Transport Frames Received",
        "operations",
        "Data frames delivered to the receiving application.",
    ),
    (
        "Transport Bytes Received",
        "bytes",
        "Encoded bytes of delivered frames.",
    ),
    (
        "Transport Drops",
        "operations",
        "Frames discarded by backpressure or link give-up.",
    ),
    (
        "Transport Duplicates",
        "operations",
        "Redelivered frames suppressed by sequence tracking.",
    ),
    (
        "Transport Retries",
        "operations",
        "Failed connection attempts.",
    ),
    (
        "Transport Reconnects",
        "operations",
        "Connections re-established after a loss.",
    ),
    (
        "Transport Heartbeats Sent",
        "operations",
        "Liveness probes sent on idle links.",
    ),
    (
        "Transport Heartbeats Received",
        "operations",
        "Liveness probes received, including echoes.",
    ),
    (
        "Transport Acks Sent",
        "operations",
        "Delivery acknowledgements sent.",
    ),
    (
        "Transport Acks Received",
        "operations",
        "Delivery acknowledgements received.",
    ),
    (
        "Transport Max Queue Depth",
        "operations",
        "High-water mark of the bounded send queue.",
    ),
    (
        "Transport Auth Failures",
        "operations",
        "Peers rejected by the authenticated Hello handshake.",
    ),
    (
        "Transport Batched Samples Sent",
        "operations",
        "Samples carried out in SampleBatch frames (per sample, not per frame).",
    ),
    (
        "Transport Batched Samples Received",
        "operations",
        "Samples carried in by SampleBatch frames.",
    ),
    (
        "Transport Writes",
        "operations",
        "Socket write calls issued; frames sent per write is the mean burst.",
    ),
];

impl TransportStats {
    /// `(metric name, value)` rows in [`TRANSPORT_ROWS`] order.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        let values = [
            self.frames_sent,
            self.bytes_sent,
            self.frames_received,
            self.bytes_received,
            self.drops,
            self.duplicates,
            self.retries,
            self.reconnects,
            self.heartbeats_sent,
            self.heartbeats_received,
            self.acks_sent,
            self.acks_received,
            self.max_queue_depth,
            self.auth_failures,
            self.samples_batched_sent,
            self.samples_batched_received,
            self.writes,
        ];
        TRANSPORT_ROWS
            .iter()
            .zip(values)
            .map(|(&(name, _, _), v)| (name, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(bytes: u64, samples: u64) -> FrameTally {
        FrameTally { bytes, samples }
    }

    #[test]
    fn snapshot_reflects_counters() {
        let c = StatsCell::default();
        c.on_frame_sent(tally(100, 0));
        c.on_frame_sent(tally(20, 0));
        c.on_frame_received(tally(100, 0));
        c.on_drop(3);
        c.on_retry();
        c.on_reconnect();
        c.observe_queue_depth(5);
        c.observe_queue_depth(2);
        let s = c.snapshot();
        assert_eq!(s.frames_sent, 2);
        assert_eq!(s.bytes_sent, 120);
        assert_eq!(s.frames_received, 1);
        assert_eq!(s.drops, 3);
        assert_eq!(s.retries, 1);
        assert_eq!(s.reconnects, 1);
        assert_eq!(s.max_queue_depth, 5);
    }

    #[test]
    fn rows_cover_every_field() {
        let s = TransportStats::default();
        assert_eq!(s.rows().len(), 17);
        let names: std::collections::BTreeSet<_> = s.rows().iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), 17, "metric names must be distinct");
    }

    #[test]
    fn batched_sample_counters_accumulate() {
        let c = StatsCell::default();
        c.on_frame_sent(tally(700, 64));
        c.on_frame_sent(tally(60, 3));
        c.on_frame_received(tally(700, 64));
        let s = c.snapshot();
        assert_eq!(s.samples_batched_sent, 67);
        assert_eq!(s.samples_batched_received, 64);
    }

    #[test]
    fn a_frame_tallies_its_bytes_and_its_batch_count() {
        let mut rows = crate::wire::BatchBuilder::default();
        for i in 0..5 {
            rows.push("m".into(), "f".into(), i, 1.0);
        }
        let batch = crate::WirePayload::to_frame(&rows.take());
        let t = FrameTally::of(&batch);
        assert_eq!((t.bytes, t.samples), (batch.encoded_len() as u64, 5));
        let other = Frame::data(FrameKind::Daemon, vec![5; 9]);
        let t = FrameTally::of(&other);
        assert_eq!((t.bytes, t.samples), (other.encoded_len() as u64, 0));
    }
}
