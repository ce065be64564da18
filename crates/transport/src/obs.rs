//! Cached `pdmap-obs` handles for the transport hot paths.
//!
//! Interning a span site or histogram takes the registry lock, so every
//! handle the transport records against is resolved exactly once into
//! this `OnceLock`-backed struct. The hot paths then pay only the
//! lock-free recording cost (and a single relaxed load when recording is
//! disabled).

use crate::backend::Backend;
use crate::frame::FrameKind;
use pdmap_obs::{Counter, Histogram, SpanSite};
use std::sync::{Arc, OnceLock};

pub(crate) struct TransportObs {
    pub(crate) inproc_send: SpanSite,
    pub(crate) inproc_deliver: SpanSite,
    pub(crate) tcp_send: SpanSite,
    pub(crate) tcp_deliver: SpanSite,
    pub(crate) tcp_reconnect: SpanSite,
    /// Time to encode one frame into bytes (`transport.frame.encode_ns`).
    pub(crate) encode_ns: Arc<Histogram>,
    /// Time to decode one frame from bytes or a stream
    /// (`transport.frame.decode_ns`).
    pub(crate) decode_ns: Arc<Histogram>,
    /// Time a `Block`-policy sender actually spent waiting for queue
    /// space (`transport.queue.wait_ns`; only recorded when it waited).
    pub(crate) queue_wait_ns: Arc<Histogram>,
    /// Per-frame-kind send latency (`transport.send_ns.<kind>`), indexed
    /// by the kind's wire byte.
    pub(crate) send_ns: [Arc<Histogram>; FrameKind::ALL.len()],
    /// Per-frame-kind receive latency (`transport.recv_ns.<kind>`).
    pub(crate) recv_ns: [Arc<Histogram>; FrameKind::ALL.len()],
    /// Peers rejected by the authenticated Hello handshake
    /// (`transport.auth_failures`).
    pub(crate) auth_failures: Arc<Counter>,
}

pub(crate) fn obs() -> &'static TransportObs {
    static OBS: OnceLock<TransportObs> = OnceLock::new();
    OBS.get_or_init(|| TransportObs {
        inproc_send: pdmap_obs::span_site("transport/inproc", "send"),
        inproc_deliver: pdmap_obs::span_site("transport/inproc", "deliver"),
        tcp_send: pdmap_obs::span_site("transport/tcp", "send"),
        tcp_deliver: pdmap_obs::span_site("transport/tcp", "deliver"),
        tcp_reconnect: pdmap_obs::span_site("transport/tcp", "reconnect"),
        encode_ns: pdmap_obs::histogram("transport.frame.encode_ns"),
        decode_ns: pdmap_obs::histogram("transport.frame.decode_ns"),
        queue_wait_ns: pdmap_obs::histogram("transport.queue.wait_ns"),
        send_ns: FrameKind::ALL
            .map(|k| pdmap_obs::histogram(&format!("transport.send_ns.{}", k.name()))),
        recv_ns: FrameKind::ALL
            .map(|k| pdmap_obs::histogram(&format!("transport.recv_ns.{}", k.name()))),
        auth_failures: pdmap_obs::counter("transport.auth_failures"),
    })
}

/// Starts timing one transport call: the start stamp while recording is
/// on, else `None`, and the call records nothing.
pub(crate) fn clock() -> Option<u64> {
    pdmap_obs::enabled().then(pdmap_obs::now_ns)
}

/// Records a send of a `kind` frame over `backend`, timed from `t0` (see
/// [`clock`]): its span and its latency in `transport.send_ns.<kind>`.
pub(crate) fn sent(backend: Backend, kind: FrameKind, t0: Option<u64>) {
    let Some(t0) = t0 else { return };
    let o = obs();
    let site = match backend {
        Backend::InProc => &o.inproc_send,
        Backend::Tcp => &o.tcp_send,
    };
    record(site, &o.send_ns[kind.to_u8() as usize], t0);
}

/// Records the delivery of a `kind` frame over `backend`, timed from `t0`
/// (see [`clock`]): its span and its latency in `transport.recv_ns.<kind>`.
pub(crate) fn delivered(backend: Backend, kind: FrameKind, t0: Option<u64>) {
    let Some(t0) = t0 else { return };
    let o = obs();
    let site = match backend {
        Backend::InProc => &o.inproc_deliver,
        Backend::Tcp => &o.tcp_deliver,
    };
    record(site, &o.recv_ns[kind.to_u8() as usize], t0);
}

fn record(site: &SpanSite, latency: &Histogram, t0: u64) {
    let dur = pdmap_obs::now_ns().saturating_sub(t0);
    pdmap_obs::record_span(site, t0, dur);
    latency.record(dur);
}
