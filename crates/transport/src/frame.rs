//! The framed binary wire format.
//!
//! Every message crossing a transport link is one frame:
//!
//! ```text
//! +-------+---------+------+----------+-----------+=============+
//! | magic | version | kind | sequence |  length   |   payload   |
//! | 2 "PD"|   u8    |  u8  |  u64 LE  |  u32 LE   | `length` B  |
//! +-------+---------+------+----------+-----------+=============+
//! ```
//!
//! The sequence number is stamped by the sending transport for data frames
//! (1-based, 0 means "unsequenced") and reused by [`FrameKind::Ack`] frames
//! to acknowledge the highest contiguous sequence delivered, which is what
//! lets a reconnecting client resend exactly the unacknowledged suffix.

use std::fmt;
use std::io::{self, Read, Write};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"PD";
/// Current wire version. Decoders reject anything else.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Refuse payloads above this size (a corrupt length prefix otherwise asks
/// the decoder to allocate gigabytes).
pub const MAX_PAYLOAD: usize = 16 << 20;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A daemon protocol message (array alloc/free, metric sample).
    Daemon,
    /// A distributed-SAS forwarding notification.
    SasForward,
    /// An opaque PIF record blob (static mapping information in transit).
    PifBlob,
    /// Liveness probe; carries no payload. Echoed by receivers.
    Heartbeat,
    /// Acknowledges delivery of every data frame with `seq <= frame.seq`.
    Ack,
    /// Client identification sent on every (re)connect; the payload is the
    /// stable 8-byte client id that keys receiver-side dedup state.
    Hello,
    /// Many metric samples in one frame: a dictionary of (metric, focus)
    /// pairs plus delta-encoded timestamps, prefixed with the sample count
    /// so conservation audits can account batches without decoding them.
    SampleBatch,
    /// Aggregation-tree topology: a relay announces its child addresses
    /// and per-child delivery watermarks to its parent (re-sent on
    /// change), an orphaned node beacons itself to a standby parent, and
    /// an adopting parent seeds the orphan's replay watermark.
    Topology,
}

impl FrameKind {
    /// Every kind, in wire-byte order (`ALL[k.to_u8()] == k`).
    pub const ALL: [FrameKind; 8] = [
        FrameKind::Daemon,
        FrameKind::SasForward,
        FrameKind::PifBlob,
        FrameKind::Heartbeat,
        FrameKind::Ack,
        FrameKind::Hello,
        FrameKind::SampleBatch,
        FrameKind::Topology,
    ];

    /// Stable lowercase identifier, used to key per-kind metrics
    /// (`transport.send_ns.daemon` and friends).
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Daemon => "daemon",
            FrameKind::SasForward => "sas_forward",
            FrameKind::PifBlob => "pif_blob",
            FrameKind::Heartbeat => "heartbeat",
            FrameKind::Ack => "ack",
            FrameKind::Hello => "hello",
            FrameKind::SampleBatch => "sample_batch",
            FrameKind::Topology => "topology",
        }
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            FrameKind::Daemon => 0,
            FrameKind::SasForward => 1,
            FrameKind::PifBlob => 2,
            FrameKind::Heartbeat => 3,
            FrameKind::Ack => 4,
            FrameKind::Hello => 5,
            FrameKind::SampleBatch => 6,
            FrameKind::Topology => 7,
        }
    }

    pub(crate) fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => FrameKind::Daemon,
            1 => FrameKind::SasForward,
            2 => FrameKind::PifBlob,
            3 => FrameKind::Heartbeat,
            4 => FrameKind::Ack,
            5 => FrameKind::Hello,
            6 => FrameKind::SampleBatch,
            7 => FrameKind::Topology,
            _ => return None,
        })
    }
}

/// A decode failure at the frame layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// The buffer ends before the frame does.
    Truncated,
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::TooLarge(n) => write!(f, "payload of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One wire frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Data-frame sequence number (0 = unsequenced) or acked sequence.
    pub seq: u64,
    /// Kind-specific bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A data frame; the transport stamps the sequence at send time.
    pub fn data(kind: FrameKind, payload: Vec<u8>) -> Self {
        Self {
            kind,
            seq: 0,
            payload,
        }
    }

    /// A liveness probe.
    pub fn heartbeat() -> Self {
        Self {
            kind: FrameKind::Heartbeat,
            seq: 0,
            payload: Vec::new(),
        }
    }

    /// An acknowledgement of every sequence `<= seq`.
    pub fn ack(seq: u64) -> Self {
        Self {
            kind: FrameKind::Ack,
            seq,
            payload: Vec::new(),
        }
    }

    /// Total encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// The frame's 16-byte header; the payload follows it on the wire.
    pub fn header(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..2].copy_from_slice(&MAGIC);
        h[2] = VERSION;
        h[3] = self.kind.to_u8();
        h[4..12].copy_from_slice(&self.seq.to_le_bytes());
        h[12..16].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        h
    }

    /// Appends the encoded frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let t0 = crate::obs::clock();
        out.extend_from_slice(&self.header());
        out.extend_from_slice(&self.payload);
        if let Some(t0) = t0 {
            crate::obs::obs()
                .encode_ns
                .record(pdmap_obs::now_ns().saturating_sub(t0));
        }
    }

    /// Encodes to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame from the front of `buf`, returning it and the
    /// number of bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        let t0 = crate::obs::clock();
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated);
        }
        if buf[0..2] != MAGIC {
            return Err(FrameError::BadMagic([buf[0], buf[1]]));
        }
        if buf[2] != VERSION {
            return Err(FrameError::BadVersion(buf[2]));
        }
        let kind = FrameKind::from_u8(buf[3]).ok_or(FrameError::BadKind(buf[3]))?;
        let seq = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        let len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge(len));
        }
        if buf.len() < HEADER_LEN + len {
            return Err(FrameError::Truncated);
        }
        let payload = buf[HEADER_LEN..HEADER_LEN + len].to_vec();
        if let Some(t0) = t0 {
            crate::obs::obs()
                .decode_ns
                .record(pdmap_obs::now_ns().saturating_sub(t0));
        }
        Ok((Frame { kind, seq, payload }, HEADER_LEN + len))
    }

    /// Writes the frame to a byte stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Reads one frame from a byte stream. `Ok(None)` on clean EOF at a
    /// frame boundary; frame-layer corruption maps to
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<Frame>> {
        let mut header = [0u8; HEADER_LEN];
        match r.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        // Decode timing starts once the header has arrived, so blocking for
        // an idle link does not pollute the histogram.
        let t0 = crate::obs::clock();
        if header[0..2] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameError::BadMagic([header[0], header[1]]),
            ));
        }
        if header[2] != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameError::BadVersion(header[2]),
            ));
        }
        let kind = FrameKind::from_u8(header[3]).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, FrameError::BadKind(header[3]))
        })?;
        let seq = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameError::TooLarge(len),
            ));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        if let Some(t0) = t0 {
            crate::obs::obs()
                .decode_ns
                .record(pdmap_obs::now_ns().saturating_sub(t0));
        }
        Ok(Some(Frame { kind, seq, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_table_matches_wire_bytes() {
        for (i, k) in FrameKind::ALL.iter().enumerate() {
            assert_eq!(k.to_u8() as usize, i);
            assert_eq!(FrameKind::from_u8(i as u8), Some(*k));
        }
        assert_eq!(FrameKind::from_u8(FrameKind::ALL.len() as u8), None);
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [
            FrameKind::Daemon,
            FrameKind::SasForward,
            FrameKind::PifBlob,
            FrameKind::SampleBatch,
        ] {
            let f = Frame {
                kind,
                seq: 42,
                payload: vec![1, 2, 3, 255],
            };
            let bytes = f.encode();
            assert_eq!(bytes.len(), f.encoded_len());
            let (g, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(g, f);
        }
        let hb = Frame::heartbeat();
        assert_eq!(Frame::decode(&hb.encode()).unwrap().0, hb);
        let ack = Frame::ack(17);
        assert_eq!(Frame::decode(&ack.encode()).unwrap().0.seq, 17);
    }

    #[test]
    fn truncation_at_every_boundary() {
        let f = Frame {
            kind: FrameKind::Daemon,
            seq: 9,
            payload: vec![7; 20],
        };
        let bytes = f.encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Frame::decode(&bytes[..cut]).unwrap_err(),
                FrameError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let mut bytes = Frame::heartbeat().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic(_))
        ));
        let mut bytes = Frame::heartbeat().encode();
        bytes[2] = 99;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadVersion(99)));
        let mut bytes = Frame::heartbeat().encode();
        bytes[3] = 200;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadKind(200)));
        let mut bytes = Frame::heartbeat().encode();
        bytes[12..16].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn stream_read_write() {
        let frames = vec![
            Frame::data(FrameKind::Daemon, b"hello".to_vec()),
            Frame::heartbeat(),
            Frame::data(FrameKind::SasForward, vec![0; 1000]),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            f.write_to(&mut buf).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut r).unwrap().unwrap(), f);
        }
        assert!(Frame::read_from(&mut r).unwrap().is_none());
    }

    #[test]
    fn stream_read_rejects_midframe_eof() {
        let f = Frame::data(FrameKind::PifBlob, vec![1; 64]);
        let bytes = f.encode();
        let mut r = &bytes[..bytes.len() - 1];
        assert!(Frame::read_from(&mut r).is_err());
    }
}
