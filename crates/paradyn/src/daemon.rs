//! The daemon wire protocol.
//!
//! §5: "The Paradyn dynamic instrumentation library sends dynamic mapping
//! information to the Paradyn daemon process using the same communication
//! channel used for performance data. The dynamic instrumentation library,
//! linked into every application program that is measured by Paradyn,
//! contains interface procedures that allow the application to describe
//! mappings while it executes. The dynamic instrumentation library sends
//! the mapping information to the Paradyn daemons, and the daemons forward
//! the mapping information to the Data Manager."
//!
//! In the original system this crossed process boundaries; here the channel
//! is a `pdmap-transport` link, so the same endpoint/daemon pair runs over
//! an in-process bounded queue or a real TCP socket with identical
//! observable behaviour. Messages ride [`FrameKind::Daemon`] frames as
//! length-prefixed binary payloads ([`WirePayload`]); the codec rejects
//! malformed input instead of guessing.

use crate::datamgr::DataManager;
use cmrts_sim::machine::{ArrayAllocInfo, MappingSink};
use cmrts_sim::{ArrayId, Distribution};
use pdmap_transport::{
    send_wire, Backend, CodecError, FrameKind, Link, PayloadReader, Transport, TransportConfig,
    TransportStats, WirePayload,
};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Span sites for the daemon channel, interned once (see `pdmap-obs`).
struct DaemonObs {
    send: pdmap_obs::SpanSite,
    deliver: pdmap_obs::SpanSite,
}

fn daemon_obs() -> &'static DaemonObs {
    static OBS: OnceLock<DaemonObs> = OnceLock::new();
    OBS.get_or_init(|| DaemonObs {
        send: pdmap_obs::span_site("daemon", "send"),
        deliver: pdmap_obs::span_site("daemon", "deliver"),
    })
}

/// A message on the daemon channel.
#[derive(Clone, Debug, PartialEq)]
pub enum DaemonMsg {
    /// An array was allocated and distributed (dynamic mapping info).
    ArrayAllocated {
        /// Run-time array id.
        id: u32,
        /// Source-level name.
        name: String,
        /// Extents.
        extents: Vec<usize>,
        /// Distribution.
        dist: Distribution,
        /// `(node, rows, elems)` subgrids.
        subgrids: Vec<(usize, usize, usize)>,
    },
    /// An array was freed.
    ArrayFreed {
        /// Run-time array id.
        id: u32,
    },
    /// A metric sample (performance data shares the channel).
    Sample {
        /// Metric display name.
        metric: String,
        /// Focus, rendered.
        focus: String,
        /// Wall tick.
        wall: u64,
        /// Sampled value.
        value: f64,
    },
    /// Clock-offset probe (tool → daemon): the tool stamps its own clock
    /// and a token; the daemon must echo both back immediately. Used by
    /// multi-daemon sessions to align per-daemon `wall` stamps onto the
    /// tool clock (bounded by the probe's round trip).
    ClockProbe {
        /// Correlates a reply with its probe.
        token: u64,
        /// Tool clock (`pdmap_obs::now_ns`) at probe send.
        t_tool_ns: u64,
    },
    /// Clock-offset reply (daemon → tool): the echoed probe plus the
    /// daemon's clock at the moment it handled the probe.
    ClockReply {
        /// Token copied from the probe.
        token: u64,
        /// Tool clock copied from the probe.
        t_tool_ns: u64,
        /// Daemon clock when the probe was handled.
        t_daemon_ns: u64,
    },
    /// Graceful-shutdown request (tool → daemon): the SIGTERM-equivalent on
    /// a wire with no process signals. The daemon should stop sampling,
    /// drain, and answer with a [`DaemonMsg::Goodbye`] before exiting.
    Shutdown,
    /// Final flush frame (daemon → tool): announces how many samples the
    /// daemon sent over its lifetime, so the tool can compute the exact
    /// sample-sequence gap (`announced - received`) instead of guessing.
    Goodbye {
        /// Samples the daemon sent on this session (its side of the
        /// conservation law).
        samples_sent: u32,
    },
    /// Aggregated coverage report (relay → parent): how much of the
    /// subtree below a relay is alive and how many samples it lost. A leaf
    /// daemon never sends this; its parent derives `1/1` coverage from the
    /// link itself. Relays resend it whenever the subtree changes, so the
    /// parent composes fleet coverage from the latest report per child.
    SubtreeCoverage {
        /// Leaf daemons below this peer that are currently reporting.
        nodes_reporting: u32,
        /// Leaf daemons the subtree was configured with.
        nodes_total: u32,
        /// Samples known lost below this peer (bounded estimates included).
        samples_lost: u64,
    },
}

/// A decode failure on the daemon channel, classified so error *rates*
/// per failure mode are observable, not just totals. Every construction
/// bumps the `daemon.error.<kind>` counter in `pdmap-obs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DaemonError {
    /// A binary payload codec failure (wrong frame kind, unknown tag,
    /// truncation, trailing garbage).
    Codec(String),
    /// The transport itself failed while receiving (link closed, I/O
    /// error) — distinct from a bad frame, since the *link* is at fault.
    Recv(String),
}

impl DaemonError {
    /// Stable lowercase variant name, used to key the per-variant error
    /// counter (`daemon.error.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            DaemonError::Codec(_) => "codec",
            DaemonError::Recv(_) => "recv",
        }
    }

    /// The human-readable detail carried by the variant.
    pub fn detail(&self) -> &str {
        match self {
            DaemonError::Codec(s) | DaemonError::Recv(s) => s,
        }
    }
}

/// Bumps the per-variant error counter and passes the error through —
/// every `DaemonError` construction site routes here.
fn track(e: DaemonError) -> DaemonError {
    pdmap_obs::counter(&format!("daemon.error.{}", e.kind())).incr();
    e
}

/// Crate-internal alias so other modules (the multi-daemon session) route
/// their error constructions through the same counters.
pub(crate) fn track_error(e: DaemonError) -> DaemonError {
    track(e)
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "daemon protocol error ({}): {}",
            self.kind(),
            self.detail()
        )
    }
}

impl std::error::Error for DaemonError {}

impl WirePayload for DaemonMsg {
    const KIND: FrameKind = FrameKind::Daemon;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        use pdmap_transport::wire::put;
        match self {
            DaemonMsg::ArrayAllocated {
                id,
                name,
                extents,
                dist,
                subgrids,
            } => {
                put::u8(out, 0);
                put::u32(out, *id);
                put::str(out, name);
                put::u32(out, extents.len() as u32);
                for &e in extents {
                    put::u64(out, e as u64);
                }
                put::str(out, dist.name());
                put::u32(out, subgrids.len() as u32);
                for &(n, r, e) in subgrids {
                    put::u64(out, n as u64);
                    put::u64(out, r as u64);
                    put::u64(out, e as u64);
                }
            }
            DaemonMsg::ArrayFreed { id } => {
                put::u8(out, 1);
                put::u32(out, *id);
            }
            DaemonMsg::Sample {
                metric,
                focus,
                wall,
                value,
            } => {
                put::u8(out, 2);
                put::str(out, metric);
                put::str(out, focus);
                put::u64(out, *wall);
                put::f64(out, *value);
            }
            DaemonMsg::ClockProbe { token, t_tool_ns } => {
                put::u8(out, 3);
                put::u64(out, *token);
                put::u64(out, *t_tool_ns);
            }
            DaemonMsg::ClockReply {
                token,
                t_tool_ns,
                t_daemon_ns,
            } => {
                put::u8(out, 4);
                put::u64(out, *token);
                put::u64(out, *t_tool_ns);
                put::u64(out, *t_daemon_ns);
            }
            DaemonMsg::Shutdown => put::u8(out, 5),
            DaemonMsg::Goodbye { samples_sent } => {
                put::u8(out, 6);
                put::u32(out, *samples_sent);
            }
            DaemonMsg::SubtreeCoverage {
                nodes_reporting,
                nodes_total,
                samples_lost,
            } => {
                put::u8(out, 7);
                put::u32(out, *nodes_reporting);
                put::u32(out, *nodes_total);
                put::u64(out, *samples_lost);
            }
        }
    }

    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => {
                let id = r.u32()?;
                let name = r.str()?;
                let extents = (0..r.u32()?)
                    .map(|_| r.u64().map(|v| v as usize))
                    .collect::<Result<Vec<_>, _>>()?;
                let dist_s = r.str()?;
                let dist = Distribution::parse(&dist_s)
                    .ok_or_else(|| CodecError::new(format!("bad distribution '{dist_s}'")))?;
                let subgrids = (0..r.u32()?)
                    .map(|_| Ok((r.u64()? as usize, r.u64()? as usize, r.u64()? as usize)))
                    .collect::<Result<Vec<_>, CodecError>>()?;
                Ok(DaemonMsg::ArrayAllocated {
                    id,
                    name,
                    extents,
                    dist,
                    subgrids,
                })
            }
            1 => Ok(DaemonMsg::ArrayFreed { id: r.u32()? }),
            2 => Ok(DaemonMsg::Sample {
                metric: r.str()?,
                focus: r.str()?,
                wall: r.u64()?,
                value: r.f64()?,
            }),
            3 => Ok(DaemonMsg::ClockProbe {
                token: r.u64()?,
                t_tool_ns: r.u64()?,
            }),
            4 => Ok(DaemonMsg::ClockReply {
                token: r.u64()?,
                t_tool_ns: r.u64()?,
                t_daemon_ns: r.u64()?,
            }),
            5 => Ok(DaemonMsg::Shutdown),
            6 => Ok(DaemonMsg::Goodbye {
                samples_sent: r.u32()?,
            }),
            7 => Ok(DaemonMsg::SubtreeCoverage {
                nodes_reporting: r.u32()?,
                nodes_total: r.u32()?,
                samples_lost: r.u64()?,
            }),
            tag => Err(CodecError::new(format!("unknown DaemonMsg tag {tag}"))),
        }
    }
}

/// The application side: encodes mapping information onto the wire. Install
/// as the machine's [`MappingSink`].
pub struct InstrLibEndpoint {
    tx: Arc<dyn Transport>,
}

impl MappingSink for InstrLibEndpoint {
    fn array_allocated(&self, info: &ArrayAllocInfo) {
        let _span = pdmap_obs::span(&daemon_obs().send);
        let msg = DaemonMsg::ArrayAllocated {
            id: info.array.0,
            name: info.name.clone(),
            extents: info.extents.clone(),
            dist: info.dist,
            subgrids: info.subgrids.clone(),
        };
        let _ = send_wire(&*self.tx, &msg);
    }

    fn array_freed(&self, array: ArrayId) {
        let _span = pdmap_obs::span(&daemon_obs().send);
        let _ = send_wire(&*self.tx, &DaemonMsg::ArrayFreed { id: array.0 });
    }
}

impl InstrLibEndpoint {
    /// Wraps an already-connected transport — how `pdmapd` builds its
    /// endpoint over the TCP server it listens on, rather than over one
    /// half of an in-process [`Link`].
    pub fn over_transport(tx: Arc<dyn Transport>) -> Self {
        Self { tx }
    }

    /// Sends any daemon-channel message, surfacing transport failures
    /// (the sink paths deliberately swallow them; process drivers that own
    /// their lifecycle want to see a dead link).
    pub fn send_msg(&self, msg: &DaemonMsg) -> Result<(), pdmap_transport::TransportError> {
        let _span = pdmap_obs::span(&daemon_obs().send);
        send_wire(&*self.tx, msg)
    }

    /// Sends a metric sample over the same channel (performance data and
    /// mapping information share the wire, as in the paper).
    pub fn send_sample(&self, metric: &str, focus: &str, wall: u64, value: f64) {
        let _span = pdmap_obs::span(&daemon_obs().send);
        let _ = send_wire(
            &*self.tx,
            &DaemonMsg::Sample {
                metric: metric.to_string(),
                focus: focus.to_string(),
                wall,
                value,
            },
        );
    }

    /// This end's transport self-metrics.
    pub fn transport_stats(&self) -> TransportStats {
        self.tx.stats()
    }
}

/// The tool side: decodes the stream and forwards mapping information to
/// the Data Manager; metric samples are collected for the front end.
pub struct Daemon {
    link: Link,
    data: Arc<DataManager>,
    samples: Vec<DaemonMsg>,
    decode_errors: Vec<DaemonError>,
}

impl Daemon {
    /// Creates a connected endpoint/daemon pair over an in-process wire
    /// (the single-process topology of the seed).
    pub fn pair(data: Arc<DataManager>) -> (InstrLibEndpoint, Daemon) {
        Self::over(Backend::InProc, data)
    }

    /// Creates a connected endpoint/daemon pair over the chosen backend
    /// with default transport configuration.
    pub fn over(backend: Backend, data: Arc<DataManager>) -> (InstrLibEndpoint, Daemon) {
        Self::over_with(backend, &TransportConfig::default(), data)
    }

    /// As [`Daemon::over`], with explicit transport configuration.
    pub fn over_with(
        backend: Backend,
        cfg: &TransportConfig,
        data: Arc<DataManager>,
    ) -> (InstrLibEndpoint, Daemon) {
        let link = backend.link(cfg);
        (
            InstrLibEndpoint {
                tx: link.client.clone(),
            },
            Daemon {
                link,
                data,
                samples: Vec::new(),
                decode_errors: Vec::new(),
            },
        )
    }

    /// Drains everything currently on the wire, forwarding mapping messages
    /// to the Data Manager. Returns how many messages were processed.
    pub fn pump(&mut self) -> usize {
        // Timed manually: pump_until polls in a tight loop, so an empty
        // pass records no span (only actual request handling is costed).
        let t0 = if pdmap_obs::enabled() {
            Some(pdmap_obs::now_ns())
        } else {
            None
        };
        let mut n = 0;
        loop {
            match self.link.server.try_recv() {
                Ok(Some(frame)) => {
                    n += 1;
                    match DaemonMsg::from_frame(&frame) {
                        Ok(msg) => self.dispatch(msg),
                        Err(e) => self.decode_errors.push(track(DaemonError::Codec(e.0))),
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // A receive failure is the *link*'s fault, not a bad
                    // frame — record it (`daemon.error.recv`) instead of
                    // exiting silently, and end only this drain pass so
                    // later pumps retry. Link errors are sticky, so dedupe
                    // consecutive repeats to keep the log bounded.
                    let err = track(DaemonError::Recv(e.to_string()));
                    if self.decode_errors.last() != Some(&err) {
                        self.decode_errors.push(err);
                    }
                    break;
                }
            }
        }
        if n > 0 {
            if let Some(t0) = t0 {
                let dur = pdmap_obs::now_ns().saturating_sub(t0);
                pdmap_obs::record_span(&daemon_obs().deliver, t0, dur);
            }
        }
        n
    }

    /// Pumps until `want` messages have been processed in total or
    /// `timeout` elapses — needed over TCP, where delivery is asynchronous.
    /// Returns the total processed during this call.
    ///
    /// Drains before ever sleeping and returns the moment `want` is met;
    /// while short, it spins on `yield_now` and then falls back to brief
    /// parks, so a message arriving right after a drain costs microseconds
    /// to notice, not a fixed multi-millisecond poll.
    pub fn pump_until(&mut self, want: usize, timeout: std::time::Duration) -> usize {
        let deadline = std::time::Instant::now() + timeout;
        let mut n = self.pump();
        let mut spins = 0u32;
        while n < want && std::time::Instant::now() < deadline {
            if spins < 64 {
                spins += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let got = self.pump();
            if got > 0 {
                spins = 0; // traffic is flowing; stay in the fast path
            }
            n += got;
        }
        n
    }

    fn dispatch(&mut self, msg: DaemonMsg) {
        match msg {
            DaemonMsg::ArrayAllocated {
                id,
                name,
                extents,
                dist,
                subgrids,
            } => {
                let info = ArrayAllocInfo {
                    array: ArrayId(id),
                    name,
                    extents,
                    dist,
                    subgrids,
                };
                // Forward "in exactly the same way as ... static mapping
                // information" — via the sink interface.
                self.data.array_allocated(&info);
            }
            DaemonMsg::ArrayFreed { id } => {
                self.data.array_freed(ArrayId(id));
            }
            sample @ DaemonMsg::Sample { .. } => self.samples.push(sample),
            DaemonMsg::ClockProbe { token, t_tool_ns } => {
                // Answer on the same link so in-process daemons support the
                // multi-daemon clock handshake too.
                let _ = send_wire(
                    &*self.link.server,
                    &DaemonMsg::ClockReply {
                        token,
                        t_tool_ns,
                        t_daemon_ns: pdmap_obs::now_ns(),
                    },
                );
            }
            // A stray reply reaching a daemon (not a tool) carries no data
            // to forward; ignore it. Shutdown/Goodbye/SubtreeCoverage are
            // session-lifecycle messages the in-process daemon has no
            // lifecycle for.
            DaemonMsg::ClockReply { .. }
            | DaemonMsg::Shutdown
            | DaemonMsg::Goodbye { .. }
            | DaemonMsg::SubtreeCoverage { .. } => {}
        }
    }

    /// Metric samples received so far.
    pub fn samples(&self) -> &[DaemonMsg] {
        &self.samples
    }

    /// Undecodable frames encountered (kept for diagnosis, never fatal).
    pub fn decode_errors(&self) -> &[DaemonError] {
        &self.decode_errors
    }

    /// The daemon side's transport self-metrics.
    pub fn transport_stats(&self) -> TransportStats {
        self.link.server.stats()
    }

    /// Which backend this daemon's link runs over.
    pub fn backend_name(&self) -> &'static str {
        self.link.server.backend_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmap::model::Namespace;

    #[test]
    fn alloc_roundtrip() {
        let m = DaemonMsg::ArrayAllocated {
            id: 3,
            name: "TOT".into(),
            extents: vec![64, 64],
            dist: Distribution::Block,
            subgrids: vec![(0, 16, 1024), (1, 16, 1024)],
        };
        assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
    }

    #[test]
    fn sample_roundtrip_with_awkward_names() {
        let m = DaemonMsg::Sample {
            metric: "Point-to-Point Time".into(),
            focus: "CMFarrays/a|b, Machine/node#1".into(),
            wall: 12345,
            value: 0.0625,
        };
        assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
    }

    #[test]
    fn free_roundtrip_and_errors() {
        let m = DaemonMsg::ArrayFreed { id: 9 };
        assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
        let empty = pdmap_transport::Frame::data(FrameKind::Daemon, Vec::new());
        assert!(DaemonMsg::from_frame(&empty).is_err());
        let bad_dist = DaemonMsg::ArrayAllocated {
            id: 1,
            name: "A".into(),
            extents: vec![8],
            dist: Distribution::Block,
            subgrids: Vec::new(),
        };
        let mut frame = bad_dist.to_frame();
        let at = frame.payload.len() - 9; // the 'b' of "block"
        frame.payload[at] = b'x';
        assert!(DaemonMsg::from_frame(&frame).is_err());
    }

    #[test]
    fn every_error_variant_bumps_its_counter() {
        // The registry is global to the test binary and other tests raise
        // the same errors concurrently, so check that each counter moved.
        let get = |kind: &str| pdmap_obs::counter(&format!("daemon.error.{kind}")).get();
        let dm = Arc::new(DataManager::new(Namespace::new(), "CM Fortran"));
        let (endpoint, mut daemon) = Daemon::pair(dm);
        let (codec, recv) = (get("codec"), get("recv"));
        endpoint.tx.send(FrameKind::Daemon, vec![77]).unwrap(); // unknown tag
        daemon.pump();
        daemon.link.server.close();
        daemon.pump();
        let kinds: Vec<&str> = daemon.decode_errors().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["codec", "recv"]);
        assert!(get("codec") > codec, "counter for codec");
        assert!(get("recv") > recv, "counter for recv");
        for err in daemon.decode_errors() {
            assert!(err.to_string().contains(err.kind()), "{err}");
        }
    }

    #[test]
    fn binary_codec_rejects_corrupt_payloads() {
        let m = DaemonMsg::ArrayFreed { id: 1 };
        let mut frame = m.to_frame();
        frame.payload[0] = 77; // unknown tag
        assert!(DaemonMsg::from_frame(&frame).is_err());
        let mut frame = m.to_frame();
        frame.payload.push(0); // trailing garbage
        assert!(DaemonMsg::from_frame(&frame).is_err());
        let frame = pdmap_transport::Frame::data(FrameKind::Daemon, vec![0, 1]); // truncated
        assert!(DaemonMsg::from_frame(&frame).is_err());
    }

    #[test]
    fn clock_messages_roundtrip() {
        let probe = DaemonMsg::ClockProbe {
            token: 7,
            t_tool_ns: 123,
        };
        let reply = DaemonMsg::ClockReply {
            token: 7,
            t_tool_ns: 123,
            t_daemon_ns: 456,
        };
        for m in [probe, reply] {
            assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
        }
    }

    #[test]
    fn lifecycle_messages_roundtrip() {
        for m in [
            DaemonMsg::Shutdown,
            DaemonMsg::Goodbye { samples_sent: 42 },
            DaemonMsg::SubtreeCoverage {
                nodes_reporting: 7,
                nodes_total: 8,
                samples_lost: 12_000,
            },
        ] {
            assert_eq!(DaemonMsg::from_frame(&m.to_frame()).unwrap(), m);
        }
    }

    #[test]
    fn daemon_answers_clock_probes_on_the_same_link() {
        let dm = Arc::new(DataManager::new(Namespace::new(), "CM Fortran"));
        let (endpoint, mut daemon) = Daemon::pair(dm);
        endpoint
            .send_msg(&DaemonMsg::ClockProbe {
                token: 42,
                t_tool_ns: 5,
            })
            .unwrap();
        assert_eq!(daemon.pump(), 1);
        let mut got = None;
        for _ in 0..1000 {
            if let Ok(Some(m)) = pdmap_transport::recv_wire::<DaemonMsg>(&*endpoint.tx) {
                got = Some(m);
                break;
            }
            std::thread::yield_now();
        }
        match got {
            Some(DaemonMsg::ClockReply {
                token: 42,
                t_tool_ns: 5,
                t_daemon_ns,
            }) => assert!(t_daemon_ns > 0),
            other => panic!("expected clock reply, got {other:?}"),
        }
        // Probes never pollute the sample stream.
        assert!(daemon.samples().is_empty());
    }

    #[test]
    fn pump_records_receive_errors_and_keeps_working() {
        let dm = Arc::new(DataManager::new(Namespace::new(), "CM Fortran"));
        let (_endpoint, mut daemon) = Daemon::pair(dm);
        let before = pdmap_obs::counter("daemon.error.recv").get();
        daemon.link.server.close();
        daemon.pump();
        assert_eq!(daemon.decode_errors().len(), 1, "error recorded, not lost");
        assert!(matches!(daemon.decode_errors()[0], DaemonError::Recv(_)));
        assert_eq!(pdmap_obs::counter("daemon.error.recv").get(), before + 1);
        // Pumping again still works and does not balloon the error log with
        // the same sticky failure (the counter keeps counting occurrences).
        daemon.pump();
        assert_eq!(daemon.decode_errors().len(), 1);
        assert_eq!(pdmap_obs::counter("daemon.error.recv").get(), before + 2);
    }

    #[test]
    fn pump_until_returns_as_soon_as_want_is_met() {
        let dm = Arc::new(DataManager::new(Namespace::new(), "CM Fortran"));
        let (endpoint, mut daemon) = Daemon::pair(dm);
        for i in 0..4 {
            endpoint.send_sample("M", "/", i, 0.0);
        }
        let t0 = std::time::Instant::now();
        let n = daemon.pump_until(4, std::time::Duration::from_secs(5));
        assert_eq!(n, 4);
        // Everything was already queued: no sleep cycle should be paid.
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(50),
            "took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn daemon_forwards_to_data_manager() {
        let ns = Namespace::new();
        let dm = Arc::new(DataManager::new(ns, "CM Fortran"));
        let (endpoint, mut daemon) = Daemon::pair(dm.clone());
        endpoint.array_allocated(&ArrayAllocInfo {
            array: ArrayId(0),
            name: "A".into(),
            extents: vec![32],
            dist: Distribution::Block,
            subgrids: vec![(0, 16, 16), (1, 16, 16)],
        });
        endpoint.send_sample("Summations", "<whole program>", 10, 4.0);
        assert_eq!(daemon.pump(), 2);
        assert_eq!(dm.dynamic_arrays().len(), 1);
        assert_eq!(daemon.samples().len(), 1);
        assert!(daemon.decode_errors().is_empty());
        assert_eq!(daemon.transport_stats().frames_received, 2);
        assert_eq!(endpoint.transport_stats().frames_sent, 2);
        // Where axis gained the subregions via the wire.
        let axis = dm.render_where_axis();
        assert!(axis.contains("sub#1"), "{axis}");
    }

    #[test]
    fn machine_drives_the_wire_end_to_end() {
        // The machine's sink is the wire endpoint; the daemon forwards to
        // the data manager exactly like the direct-sink path.
        let mut tool = crate::tool::Paradyn::new(cmrts_sim::MachineConfig {
            nodes: 2,
            ..cmrts_sim::MachineConfig::default()
        });
        tool.load_source(cmf_lang::samples::FIGURE4).unwrap();
        let (endpoint, mut daemon) = Daemon::pair(tool.data().clone());
        let mut m = tool.new_machine().unwrap();
        m.set_mapping_sink(Arc::new(endpoint)); // replace direct sink
        m.run();
        let n = daemon.pump();
        assert!(n >= 2, "A and B allocations crossed the wire, got {n}");
        let axis = tool.render_where_axis();
        assert!(axis.contains("sub#0"));
    }

    #[test]
    fn daemon_runs_identically_over_tcp() {
        let ns = Namespace::new();
        let dm = Arc::new(DataManager::new(ns, "CM Fortran"));
        let (endpoint, mut daemon) = Daemon::over(Backend::Tcp, dm.clone());
        assert_eq!(daemon.backend_name(), "tcp-server");
        endpoint.array_allocated(&ArrayAllocInfo {
            array: ArrayId(0),
            name: "A".into(),
            extents: vec![32],
            dist: Distribution::Block,
            subgrids: vec![(0, 16, 16), (1, 16, 16)],
        });
        endpoint.send_sample("Summations", "<whole program>", 10, 4.0);
        let n = daemon.pump_until(2, std::time::Duration::from_secs(5));
        assert_eq!(n, 2);
        assert_eq!(dm.dynamic_arrays().len(), 1);
        assert_eq!(daemon.samples().len(), 1);
        assert!(daemon.decode_errors().is_empty());
    }
}
