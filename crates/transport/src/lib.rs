//! `pdmap-transport`: the wire between measured programs and the tool.
//!
//! The paper's Paradyn integration (§5) runs an instrumentation library
//! inside the measured program and a daemon outside it; everything the tool
//! learns — array allocations, metric samples, forwarded shared-array
//! updates, PIF records — crosses that boundary. The seed reproduced the
//! boundary with in-process channels; this crate gives it a real contract:
//!
//! * a versioned, length-prefixed binary frame format ([`frame`]),
//! * a payload codec for typed messages ([`wire`]),
//! * two interchangeable backends behind one object-safe [`Transport`]
//!   trait — an in-process bounded channel ([`inproc`]) and a threaded TCP
//!   implementation on `std::net` ([`tcp`]),
//! * heartbeat liveness, reconnection with deterministic seeded backoff,
//!   bounded send queues with explicit [`queue::Backpressure`], and
//! * self-metrics ([`stats`]) so the transport can be measured by the same
//!   catalogue machinery as the programs it carries.
//!
//! The crate is std-only with a single in-workspace dependency,
//! `pdmap-obs`, through which the hot paths record spans and latency
//! histograms (frame encode/decode, per-kind send/receive, queue waits,
//! reconnects). It sits near the bottom of the workspace graph and must
//! build offline anywhere the toolchain does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod fault;
pub mod frame;
pub mod inproc;
mod obs;
pub mod queue;
pub mod stats;
pub mod tcp;
pub mod wire;

pub use backend::{Backend, Link};
pub use config::{secret_from_str, ReconnectPolicy, TransportConfig};
pub use fault::{FaultDecision, FaultInjector, FaultPlan, FaultStats};
pub use frame::{Frame, FrameError, FrameKind};
pub use inproc::InProcEnd;
pub use queue::Backpressure;
pub use stats::{StatsCell, TransportStats, TRANSPORT_ROWS};
pub use tcp::{TcpClient, TcpServer};
pub use wire::{
    BatchBuilder, BatchColumns, BatchSample, CodecError, PayloadReader, PifBlob, SampleBatch,
    SourceMark, TopoChild, TopologyMsg, WirePayload,
};

use std::fmt;

/// A failure at the transport layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The link was closed (locally, or abandoned after reconnection gave
    /// up) — no further sends will succeed.
    Closed,
    /// An I/O-level failure the caller may want to surface.
    Io(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Io(msg) => write!(f, "transport i/o error: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One end of a duplex message link. Object-safe so callers hold
/// `Arc<dyn Transport>` and swap backends without generic plumbing.
pub trait Transport: Send + Sync {
    /// Queues a payload for delivery. May block (or drop the oldest queued
    /// frame) according to the configured backpressure policy.
    fn send(&self, kind: FrameKind, payload: Vec<u8>) -> Result<(), TransportError>;

    /// Pops the next received data frame, if any. `Ok(None)` means "nothing
    /// right now"; `Err(Closed)` means nothing will ever arrive again.
    fn try_recv(&self) -> Result<Option<Frame>, TransportError>;

    /// A snapshot of this end's self-metrics.
    fn stats(&self) -> TransportStats;

    /// True while the link is usable (peer heard from within the liveness
    /// timeout, not closed, not abandoned).
    fn is_alive(&self) -> bool;

    /// Shuts the link down. Idempotent.
    fn close(&self);

    /// Short backend identifier for diagnostics (`"in-proc"`, `"tcp-client"`…).
    fn backend_name(&self) -> &'static str;
}

/// Sends a typed message over any transport (generic helpers live outside
/// the trait to keep it object-safe).
pub fn send_wire<M: WirePayload>(t: &dyn Transport, msg: &M) -> Result<(), TransportError> {
    let frame = msg.to_frame();
    t.send(frame.kind, frame.payload)
}

/// Receives and decodes the next message of type `M`, skipping nothing:
/// a frame of a different kind is an error (callers multiplexing kinds
/// should match on [`Frame::kind`] themselves).
pub fn recv_wire<M: WirePayload>(t: &dyn Transport) -> Result<Option<M>, TransportError> {
    match t.try_recv()? {
        None => Ok(None),
        Some(frame) => M::from_frame(&frame)
            .map(Some)
            .map_err(|e| TransportError::Io(e.to_string())),
    }
}

/// Drains every currently queued frame from a transport end.
pub fn drain_frames(t: &dyn Transport) -> Vec<Frame> {
    let mut out = Vec::new();
    while let Ok(Some(f)) = t.try_recv() {
        out.push(f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_helpers_roundtrip_over_inproc() {
        let (a, b) = InProcEnd::pair(&TransportConfig::default());
        let blob = PifBlob(b"array A partition".to_vec());
        send_wire(&*a, &blob).unwrap();
        let got: Option<PifBlob> = recv_wire(&*b).unwrap();
        assert_eq!(got, Some(blob));
        assert!(recv_wire::<PifBlob>(&*b).unwrap().is_none());
    }

    #[test]
    fn trait_is_object_safe() {
        let (a, _b) = InProcEnd::pair(&TransportConfig::default());
        let t: std::sync::Arc<dyn Transport> = a;
        assert_eq!(t.backend_name(), "in-proc");
    }
}
