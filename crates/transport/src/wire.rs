//! Payload codec: how typed messages become frame payload bytes.
//!
//! The transport crate stays at the bottom of the dependency graph, so it
//! does not know the concrete message types. Higher layers implement
//! [`WirePayload`] for their types (`DaemonMsg` in `paradyn-tool`,
//! `SasMessage` in `pdmap`) using the little-endian primitives here.

use crate::frame::{Frame, FrameKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A payload-level decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl CodecError {
    /// Shorthand constructor.
    pub fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// A message type that can ride a frame payload.
pub trait WirePayload: Sized {
    /// Which frame kind carries this type.
    const KIND: FrameKind;

    /// Appends the encoded message to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decodes a message from a payload reader. Implementations should
    /// consume exactly what they encoded.
    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, CodecError>;

    /// Encodes into a ready-to-send frame (sequence stamped by the
    /// transport at send time).
    fn to_frame(&self) -> Frame {
        let mut payload = Vec::new();
        self.encode_payload(&mut payload);
        Frame::data(Self::KIND, payload)
    }

    /// Decodes from a received frame, checking the kind and that the whole
    /// payload is consumed.
    fn from_frame(frame: &Frame) -> Result<Self, CodecError> {
        if frame.kind != Self::KIND {
            return Err(CodecError::new(format!(
                "expected {:?} frame, got {:?}",
                Self::KIND,
                frame.kind
            )));
        }
        let mut r = PayloadReader::new(&frame.payload);
        let msg = Self::decode_payload(&mut r)?;
        r.finish()?;
        Ok(msg)
    }
}

/// Little-endian write primitives.
pub mod put {
    /// Appends a `u8`.
    pub fn u8(out: &mut Vec<u8>, v: u8) {
        out.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` (IEEE-754 bits).
    pub fn f64(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(out: &mut Vec<u8>, s: &str) {
        u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn bytes(out: &mut Vec<u8>, b: &[u8]) {
        u32(out, b.len() as u32);
        out.extend_from_slice(b);
    }

    /// Appends an LEB128 variable-length `u64` (1 byte for values < 128).
    pub fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    /// Appends a zigzag-mapped variable-length `i64` (small magnitudes of
    /// either sign stay short — timestamp deltas in a merged stream go
    /// backwards as often as forwards).
    pub fn zigzag(out: &mut Vec<u8>, v: i64) {
        varint(out, ((v << 1) ^ (v >> 63)) as u64);
    }
}

/// A checked cursor over payload bytes.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError::new(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::new("string field is not UTF-8"))
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads an LEB128 variable-length `u64`.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                if shift == 63 && b > 1 {
                    return Err(CodecError::new("varint overflows u64"));
                }
                return Ok(v);
            }
        }
        Err(CodecError::new("varint longer than 10 bytes"))
    }

    /// Reads a zigzag-mapped variable-length `i64`.
    pub fn zigzag(&mut self) -> Result<i64, CodecError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the payload was fully consumed (trailing garbage means
    /// a version skew or corruption — never silently ignore it).
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::new(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// An opaque PIF blob: text records shipped as bytes. The transport gives
/// them a typed wrapper so file imports can share the wire with everything
/// else, as the paper's daemons do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PifBlob(pub Vec<u8>);

impl WirePayload for PifBlob {
    const KIND: FrameKind = FrameKind::PifBlob;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put::bytes(out, &self.0);
    }

    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        Ok(PifBlob(r.bytes()?))
    }
}

/// One metric sample inside a [`SampleBatch`].
///
/// Names are `Arc<str>` so decoding a batch allocates once per *distinct*
/// (metric, focus) pair in the frame's dictionary; every sample referencing
/// the pair is a refcount bump.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSample {
    /// Metric display name (e.g. `"Computation Time"`).
    pub metric: Arc<str>,
    /// Focus the sample maps to (e.g. `"<whole program>"`).
    pub focus: Arc<str>,
    /// Sender-clock wall timestamp in nanoseconds.
    pub wall: u64,
    /// Sample value.
    pub value: f64,
}

/// Cumulative provenance for one upstream child folded into a batch: "this
/// batch (and every batch before it on this link) carries everything I have
/// received from `origin` through its batch sequence `through_seq`".
///
/// Marks ride *inside* SampleBatch frames so a receiver's per-child
/// watermark advances atomically with the data it covers — there is no
/// window where a watermark describes samples that were never delivered
/// (silent gap) or lags samples that were (duplicate on replay).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceMark {
    /// The child's listen address (its stable identity in the tree).
    pub origin: String,
    /// Highest child batch sequence folded into sent batches so far.
    pub through_seq: u64,
    /// Cumulative samples received from this child so far.
    pub samples: u64,
}

/// Many samples in one frame.
///
/// Wire layout, chosen so conservation accounting never requires a full
/// decode and repeated (metric, focus) pairs cost one varint each:
///
/// ```text
/// u32 count                       -- FIRST, so peek_count() works
/// varint epoch                    -- sender's topology epoch
/// varint seq                      -- sender's batch sequence (1-based)
/// varint sources_len
/// sources_len x (str origin, varint through_seq, varint samples)
/// u32 dict_len
/// dict_len x (str metric, str focus)
/// u64 base_wall                   -- wall of the first sample (0 if empty)
/// count x (varint dict_idx, zigzag wall_delta, f64 value)
/// ```
///
/// `wall_delta` is relative to the previous sample's wall (the first
/// sample's to `base_wall`, so it is zero). Deltas are signed because a
/// relay merges child streams whose corrected timestamps interleave
/// non-monotonically. `epoch` is bumped by the sender on every
/// re-parenting handover and `seq` is its own monotonic batch counter, so
/// a receiver that seeds a watermark from a failed parent's books can
/// suppress exactly the replayed batches it has already folded in.
///
/// This row form and [`BatchColumns`] share one encoder, `write_batch`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SampleBatch {
    /// The batched samples, in send order.
    pub samples: Vec<BatchSample>,
    /// Sender's topology epoch (bumped on every re-parenting handover).
    pub epoch: u64,
    /// Sender's own batch sequence, 1-based (0 = unsequenced).
    pub seq: u64,
    /// Per-child cumulative watermarks covered by this batch.
    pub sources: Vec<SourceMark>,
}

impl SampleBatch {
    /// Reads the sample count off the front of an encoded payload without
    /// decoding the batch — the hook transports use to account batched
    /// samples on their hot paths.
    pub fn peek_count(payload: &[u8]) -> Option<u32> {
        let head = payload.get(0..4)?;
        Some(u32::from_le_bytes(head.try_into().unwrap()))
    }
}

impl WirePayload for BatchColumns {
    const KIND: FrameKind = FrameKind::SampleBatch;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        write_batch(
            out,
            self.epoch,
            self.seq,
            &self.sources,
            &self.dict,
            &self.key,
            &self.wall,
            &self.value,
        );
    }

    /// Reads the sample triples straight off the payload slice, never
    /// materializing per-sample structs.
    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        let count = r.u32()? as usize;
        let epoch = r.varint()?;
        let seq = r.varint()?;
        let sources_len = r.varint()? as usize;
        let mut sources = Vec::with_capacity(sources_len.min(r.remaining() / 6 + 1));
        for _ in 0..sources_len {
            let origin = r.str()?;
            let through_seq = r.varint()?;
            let samples = r.varint()?;
            sources.push(SourceMark {
                origin,
                through_seq,
                samples,
            });
        }
        let dict_len = r.u32()? as usize;
        if dict_len > count {
            return Err(CodecError::new(format!(
                "batch dictionary of {dict_len} entries exceeds sample count {count}"
            )));
        }
        let mut dict: Vec<(String, String)> = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            let metric = r.str()?;
            let focus = r.str()?;
            dict.push((metric, focus));
        }
        let base_wall = r.u64()?;
        // Same allocation cap as the struct decode: >=10 bytes per sample.
        let cap = count.min(r.remaining() / 10 + 1);
        let mut key = Vec::with_capacity(cap);
        let mut wall = Vec::with_capacity(cap);
        let mut value = Vec::with_capacity(cap);
        let mut prev = base_wall;
        // The sample triples are the hot loop of the whole ingest path:
        // read them straight off the payload slice with a one-byte varint
        // fast path, deferring to the general reader only for multi-byte
        // varints (rare: dict indices are small and wall deltas tight).
        let buf = r.buf;
        let mut pos = r.pos;
        for _ in 0..count {
            let (idx, p) = fast_varint(buf, pos)?;
            let idx = idx as usize;
            if idx >= dict.len() {
                return Err(CodecError::new(format!(
                    "batch dict index {idx} out of range"
                )));
            }
            let (zz, p) = fast_varint(buf, p)?;
            let w = prev.wrapping_add(((zz >> 1) as i64 ^ -((zz & 1) as i64)) as u64);
            let Some(bytes) = buf.get(p..p + 8) else {
                return Err(CodecError::new(format!(
                    "payload truncated: wanted 8 bytes at offset {p}, have {}",
                    buf.len().saturating_sub(p)
                )));
            };
            pos = p + 8;
            key.push(idx as u32);
            wall.push(w);
            value.push(f64::from_bits(u64::from_le_bytes(
                bytes.try_into().unwrap(),
            )));
            prev = w;
        }
        r.pos = pos;
        Ok(BatchColumns {
            epoch,
            seq,
            sources,
            dict,
            key,
            wall,
            value,
        })
    }
}

/// LEB128 varint read off a raw slice: single-byte values (the common
/// case for dictionary indices and delta-coded walls) cost one branch;
/// anything longer takes the general [`PayloadReader::varint`] path,
/// including its overflow checks.
#[inline]
fn fast_varint(buf: &[u8], pos: usize) -> Result<(u64, usize), CodecError> {
    match buf.get(pos) {
        Some(&b) if b & 0x80 == 0 => Ok((u64::from(b), pos + 1)),
        Some(_) => {
            let mut r = PayloadReader { buf, pos };
            let v = r.varint()?;
            Ok((v, r.pos))
        }
        None => Err(CodecError::new(format!(
            "payload truncated: wanted 1 bytes at offset {pos}, have 0"
        ))),
    }
}

/// A [`SampleBatch`] as structure-of-arrays: the per-sample
/// `key`/`wall`/`value` columns plus the (metric, focus) dictionary they
/// index. This is the hot representation on both sides of the wire — a
/// receiver interns the small dictionary once per frame and then
/// bulk-appends three flat columns, and a relay remaps it and re-encodes
/// ([`BatchBuilder`]), instead of cloning two `Arc<str>`s per sample into
/// an array-of-structs. Column lengths are always equal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchColumns {
    /// Sender's topology epoch (see [`SampleBatch::epoch`]).
    pub epoch: u64,
    /// Sender's batch sequence (see [`SampleBatch::seq`]).
    pub seq: u64,
    /// Per-child cumulative watermarks covered by this batch.
    pub sources: Vec<SourceMark>,
    /// Distinct (metric, focus) pairs, in first-seen order.
    pub dict: Vec<(String, String)>,
    /// Per-sample index into `dict`.
    pub key: Vec<u32>,
    /// Per-sample sender-clock wall timestamps (nanoseconds).
    pub wall: Vec<u64>,
    /// Per-sample values.
    pub value: Vec<f64>,
}

impl BatchColumns {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// True when the batch carries no samples.
    pub fn is_empty(&self) -> bool {
        self.key.is_empty()
    }
}

impl WirePayload for SampleBatch {
    const KIND: FrameKind = FrameKind::SampleBatch;

    /// The row front end of `write_batch`: each distinct (metric, focus)
    /// pair gets its first-seen dictionary slot through a hash index over
    /// the samples' borrowed names — no string copies, no dictionary scan.
    /// The index is sized for every sample being distinct, so it never
    /// rehashes.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        let n = self.samples.len();
        let mut index: HashMap<(&str, &str), u32> = HashMap::with_capacity(n);
        let mut dict: Vec<(&str, &str)> = Vec::new();
        let mut key = Vec::with_capacity(n);
        let mut wall = Vec::with_capacity(n);
        let mut value = Vec::with_capacity(n);
        for s in &self.samples {
            let pair = (&*s.metric, &*s.focus);
            let slot = *index.entry(pair).or_insert_with(|| {
                dict.push(pair);
                dict.len() as u32 - 1
            });
            key.push(slot);
            wall.push(s.wall);
            value.push(s.value);
        }
        write_batch(
            out,
            self.epoch,
            self.seq,
            &self.sources,
            &dict,
            &key,
            &wall,
            &value,
        );
    }

    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        let count = r.u32()? as usize;
        let epoch = r.varint()?;
        let seq = r.varint()?;
        let sources_len = r.varint()? as usize;
        // Each mark needs >= 6 encoded bytes; cap the allocation by what
        // the payload could actually carry.
        let mut sources = Vec::with_capacity(sources_len.min(r.remaining() / 6 + 1));
        for _ in 0..sources_len {
            let origin = r.str()?;
            let through_seq = r.varint()?;
            let samples = r.varint()?;
            sources.push(SourceMark {
                origin,
                through_seq,
                samples,
            });
        }
        let dict_len = r.u32()? as usize;
        if dict_len > count {
            return Err(CodecError::new(format!(
                "batch dictionary of {dict_len} entries exceeds sample count {count}"
            )));
        }
        let mut dict: Vec<(Arc<str>, Arc<str>)> = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            let metric: Arc<str> = r.str()?.into();
            let focus: Arc<str> = r.str()?.into();
            dict.push((metric, focus));
        }
        let base_wall = r.u64()?;
        // Each sample needs >= 10 encoded bytes, so a corrupt count cannot
        // ask for a larger allocation than the payload could carry.
        let mut samples = Vec::with_capacity(count.min(r.remaining() / 10 + 1));
        let mut prev = base_wall;
        for _ in 0..count {
            let idx = r.varint()? as usize;
            let (metric, focus) = dict
                .get(idx)
                .ok_or_else(|| CodecError::new(format!("batch dict index {idx} out of range")))?;
            let wall = prev.wrapping_add(r.zigzag()? as u64);
            let value = r.f64()?;
            samples.push(BatchSample {
                metric: metric.clone(),
                focus: focus.clone(),
                wall,
                value,
            });
            prev = wall;
        }
        Ok(SampleBatch {
            samples,
            epoch,
            seq,
            sources,
        })
    }
}

/// The one writer of the [`SampleBatch`] layout, linear in samples plus
/// dictionary entries. `key[i]` indexes `dict`; the three columns have
/// equal length.
#[allow(clippy::too_many_arguments)]
fn write_batch<S: AsRef<str>>(
    out: &mut Vec<u8>,
    epoch: u64,
    seq: u64,
    sources: &[SourceMark],
    dict: &[(S, S)],
    key: &[u32],
    wall: &[u64],
    value: &[f64],
) {
    debug_assert!(key.len() == wall.len() && wall.len() == value.len());
    put::u32(out, key.len() as u32);
    put::varint(out, epoch);
    put::varint(out, seq);
    put::varint(out, sources.len() as u64);
    for m in sources {
        put::str(out, &m.origin);
        put::varint(out, m.through_seq);
        put::varint(out, m.samples);
    }
    put::u32(out, dict.len() as u32);
    for (metric, focus) in dict {
        put::str(out, metric.as_ref());
        put::str(out, focus.as_ref());
    }
    let base_wall = wall.first().copied().unwrap_or(0);
    put::u64(out, base_wall);
    let mut prev = base_wall;
    for ((&k, &w), &v) in key.iter().zip(wall).zip(value) {
        put::varint(out, u64::from(k));
        put::zigzag(out, w.wrapping_sub(prev) as i64);
        put::f64(out, v);
        prev = w;
    }
}

/// A [`BatchColumns`] being assembled from decoded batches and loose rows:
/// the key/wall/value columns plus a (metric, focus) → slot index that
/// holds the dictionary's names until [`BatchBuilder::take`]. Appending a
/// decoded batch remaps its dictionary once per entry and copies its
/// columns in one pass each — how a relay merges its children's streams
/// without a per-sample struct. Slots are assigned in first-seen order,
/// so the built batch encodes exactly as the [`SampleBatch`] of the same
/// rows would.
#[derive(Debug, Default)]
pub struct BatchBuilder {
    index: HashMap<(String, String), u32>,
    key: Vec<u32>,
    wall: Vec<u64>,
    value: Vec<f64>,
}

impl BatchBuilder {
    /// Rows gathered since the last [`BatchBuilder::take`].
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// True when no row is waiting.
    pub fn is_empty(&self) -> bool {
        self.key.is_empty()
    }

    /// The dictionary slot of `(metric, focus)`, assigned on first sight.
    fn slot(&mut self, metric: String, focus: String) -> u32 {
        let next = self.index.len() as u32;
        *self.index.entry((metric, focus)).or_insert(next)
    }

    /// Appends one row.
    pub fn push(&mut self, metric: String, focus: String, wall: u64, value: f64) {
        let slot = self.slot(metric, focus);
        self.key.push(slot);
        self.wall.push(wall);
        self.value.push(value);
    }

    /// Appends every row of `batch` in order, each wall mapped through
    /// `shift` (a relay's rewrite onto its own clock). The batch's epoch,
    /// sequence and source marks are not carried over.
    pub fn append(&mut self, batch: BatchColumns, shift: impl Fn(u64) -> u64) {
        let remap: Vec<u32> = batch
            .dict
            .into_iter()
            .map(|(metric, focus)| self.slot(metric, focus))
            .collect();
        self.key
            .extend(batch.key.iter().map(|&k| remap[k as usize]));
        self.wall.extend(batch.wall.iter().map(|&w| shift(w)));
        self.value.extend_from_slice(&batch.value);
    }

    /// Takes the gathered rows as a [`BatchColumns`] with its dictionary
    /// in slot order, leaving the builder empty. Epoch, sequence and
    /// source marks are the sender's to stamp.
    pub fn take(&mut self) -> BatchColumns {
        let mut dict = vec![(String::new(), String::new()); self.index.len()];
        for (pair, slot) in self.index.drain() {
            dict[slot as usize] = pair;
        }
        BatchColumns {
            dict,
            key: std::mem::take(&mut self.key),
            wall: std::mem::take(&mut self.wall),
            value: std::mem::take(&mut self.value),
            ..BatchColumns::default()
        }
    }
}

/// One child entry inside a [`TopologyMsg`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopoChild {
    /// The child's listen address.
    pub addr: String,
    /// Highest child batch `seq` the announcer has folded upstream.
    pub watermark: u64,
    /// Cumulative samples the announcer has received from this child.
    pub received: u64,
}

/// Aggregation-tree topology announcement ([`FrameKind::Topology`]).
///
/// Three roles share the frame:
/// - *announcement* (relay -> parent): `origin` is the relay's listen
///   address, `children` its direct children with delivery watermarks.
///   Re-sent whenever membership or epoch changes, so the parent always
///   holds a recent map of the subtree for adoption.
/// - *beacon* (orphan -> standby parent): `children` is empty; `origin`
///   tells the standby which listen address to dial back.
/// - *watermark seed* (adopter -> orphan): one `children` entry naming the
///   orphan itself; `watermark` is the highest batch seq the adopting side
///   has already folded in, so the orphan replays exactly the suffix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopologyMsg {
    /// Announcer's topology epoch.
    pub epoch: u64,
    /// Announcer's own listen address.
    pub origin: String,
    /// Direct children and their delivery watermarks.
    pub children: Vec<TopoChild>,
}

impl WirePayload for TopologyMsg {
    const KIND: FrameKind = FrameKind::Topology;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put::varint(out, self.epoch);
        put::str(out, &self.origin);
        put::varint(out, self.children.len() as u64);
        for c in &self.children {
            put::str(out, &c.addr);
            put::varint(out, c.watermark);
            put::varint(out, c.received);
        }
    }

    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        let epoch = r.varint()?;
        let origin = r.str()?;
        let n = r.varint()? as usize;
        let mut children = Vec::with_capacity(n.min(r.remaining() / 6 + 1));
        for _ in 0..n {
            let addr = r.str()?;
            let watermark = r.varint()?;
            let received = r.varint()?;
            children.push(TopoChild {
                addr,
                watermark,
                received,
            });
        }
        Ok(TopologyMsg {
            epoch,
            origin,
            children,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut out = Vec::new();
        put::u8(&mut out, 7);
        put::u32(&mut out, 0xDEAD_BEEF);
        put::u64(&mut out, u64::MAX - 1);
        put::f64(&mut out, -0.5);
        put::str(&mut out, "héllo|wörld\n");
        put::bytes(&mut out, &[1, 2, 3]);
        let mut r = PayloadReader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert_eq!(r.str().unwrap(), "héllo|wörld\n");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_payload_errors() {
        let mut out = Vec::new();
        put::str(&mut out, "abcdef");
        let mut r = PayloadReader::new(&out[..5]);
        assert!(r.str().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let blob = PifBlob(b"noun A level L".to_vec());
        let mut frame = blob.to_frame();
        assert_eq!(PifBlob::from_frame(&frame).unwrap(), blob);
        frame.payload.push(0);
        assert!(PifBlob::from_frame(&frame).is_err());
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut frame = PifBlob(vec![1]).to_frame();
        frame.kind = FrameKind::Daemon;
        assert!(PifBlob::from_frame(&frame).is_err());
    }

    #[test]
    fn varint_and_zigzag_roundtrip() {
        let cases_u = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let cases_i = [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN];
        let mut out = Vec::new();
        for v in cases_u {
            put::varint(&mut out, v);
        }
        for v in cases_i {
            put::zigzag(&mut out, v);
        }
        let mut r = PayloadReader::new(&out);
        for v in cases_u {
            assert_eq!(r.varint().unwrap(), v);
        }
        for v in cases_i {
            assert_eq!(r.zigzag().unwrap(), v);
        }
        r.finish().unwrap();
        // Small values stay one byte.
        let mut one = Vec::new();
        put::varint(&mut one, 100);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn varint_rejects_overflow() {
        // 11 continuation bytes never terminate within u64.
        let bytes = [0xFFu8; 11];
        assert!(PayloadReader::new(&bytes).varint().is_err());
    }

    fn sample(metric: &str, focus: &str, wall: u64, value: f64) -> BatchSample {
        BatchSample {
            metric: metric.into(),
            focus: focus.into(),
            wall,
            value,
        }
    }

    #[test]
    fn sample_batch_roundtrips_and_peeks() {
        let batch = SampleBatch {
            samples: vec![
                sample("Computation Time", "<whole program>", 1_000_000, 1.0),
                sample("Computation Time", "<whole program>", 1_000_500, 2.0),
                // Out-of-order wall from a merged sibling stream.
                sample("Messages", "node 3", 999_000, 3.0),
                sample("Computation Time", "<whole program>", 1_001_000, 4.0),
            ],
            ..SampleBatch::default()
        };
        let frame = batch.to_frame();
        assert_eq!(frame.kind, FrameKind::SampleBatch);
        assert_eq!(SampleBatch::peek_count(&frame.payload), Some(4));
        assert_eq!(SampleBatch::from_frame(&frame).unwrap(), batch);
        // Dictionary makes repeats cheap: 4 samples, 2 dict entries.
        let empty = SampleBatch::default();
        let ef = empty.to_frame();
        assert_eq!(SampleBatch::peek_count(&ef.payload), Some(0));
        assert_eq!(SampleBatch::from_frame(&ef).unwrap(), empty);
    }

    #[test]
    fn sample_batch_carries_epoch_seq_and_source_marks() {
        let batch = SampleBatch {
            samples: vec![sample("Messages", "node 1", 500, 2.0)],
            epoch: 7,
            seq: 19,
            sources: vec![
                SourceMark {
                    origin: "127.0.0.1:7001".into(),
                    through_seq: 12,
                    samples: 340,
                },
                SourceMark {
                    origin: "127.0.0.1:7002".into(),
                    through_seq: 9,
                    samples: 128,
                },
            ],
        };
        let frame = batch.to_frame();
        // Provenance never disturbs the cheap conservation peek.
        assert_eq!(SampleBatch::peek_count(&frame.payload), Some(1));
        assert_eq!(SampleBatch::from_frame(&frame).unwrap(), batch);
    }

    #[test]
    fn topology_msg_roundtrips_in_all_three_roles() {
        // Announcement: relay with two children.
        let announce = TopologyMsg {
            epoch: 2,
            origin: "127.0.0.1:8000".into(),
            children: vec![
                TopoChild {
                    addr: "127.0.0.1:8001".into(),
                    watermark: 11,
                    received: 900,
                },
                TopoChild {
                    addr: "127.0.0.1:8002".into(),
                    watermark: 0,
                    received: 0,
                },
            ],
        };
        let frame = announce.to_frame();
        assert_eq!(frame.kind, FrameKind::Topology);
        assert_eq!(TopologyMsg::from_frame(&frame).unwrap(), announce);
        // Beacon: origin only, no children.
        let beacon = TopologyMsg {
            epoch: 3,
            origin: "127.0.0.1:8001".into(),
            children: Vec::new(),
        };
        assert_eq!(TopologyMsg::from_frame(&beacon.to_frame()).unwrap(), beacon);
        // Trailing garbage is rejected like every other payload.
        let mut frame = announce.to_frame();
        frame.payload.push(0);
        assert!(TopologyMsg::from_frame(&frame).is_err());
    }

    #[test]
    fn columnar_decode_agrees_with_struct_decode() {
        let batch = SampleBatch {
            samples: vec![
                sample("Computation Time", "<whole program>", 1_000_000, 1.0),
                sample("Messages", "node 3", 999_000, 3.0),
                sample("Computation Time", "<whole program>", 1_001_000, 4.0),
            ],
            epoch: 2,
            seq: 11,
            sources: vec![SourceMark {
                origin: "127.0.0.1:9001".into(),
                through_seq: 10,
                samples: 30,
            }],
        };
        let frame = batch.to_frame();
        let cols = BatchColumns::from_frame(&frame).unwrap();
        assert_eq!(cols.len(), batch.samples.len());
        assert_eq!(cols.epoch, batch.epoch);
        assert_eq!(cols.seq, batch.seq);
        assert_eq!(cols.sources, batch.sources);
        for (i, s) in batch.samples.iter().enumerate() {
            let (m, f) = &cols.dict[cols.key[i] as usize];
            assert_eq!((m.as_str(), f.as_str()), (&*s.metric, &*s.focus));
            assert_eq!(cols.wall[i], s.wall);
            assert_eq!(cols.value[i], s.value);
        }
        // Repeated pairs share one dictionary entry in both decodes.
        assert_eq!(cols.dict.len(), 2);
        // An empty batch decodes to empty columns.
        let empty = SampleBatch::default().to_frame();
        let ec = BatchColumns::from_frame(&empty).unwrap();
        assert!(ec.is_empty());
        // Kind mismatch and corrupt counts are rejected like the struct path.
        assert!(BatchColumns::from_frame(&PifBlob(vec![1]).to_frame()).is_err());
        let mut bad = batch.to_frame();
        bad.payload[0] = 9;
        assert!(BatchColumns::from_frame(&bad).is_err());
    }

    #[test]
    fn sample_batch_rejects_corrupt_dict_index() {
        let batch = SampleBatch {
            samples: vec![sample("m", "f", 10, 1.0)],
            ..SampleBatch::default()
        };
        let mut frame = batch.to_frame();
        // The dict index is the first byte after count, dict, and base_wall.
        // Corrupt the count instead: claim more samples than encoded.
        frame.payload[0] = 9;
        assert!(SampleBatch::from_frame(&frame).is_err());
    }

    #[test]
    fn sample_batch_dictionary_amortizes_repeats() {
        let many = SampleBatch {
            samples: (0..1000)
                .map(|i| {
                    sample(
                        "Computation Time",
                        "<whole program>",
                        5_000 + i * 7,
                        i as f64,
                    )
                })
                .collect(),
            epoch: 3,
            seq: 42,
            sources: vec![SourceMark {
                origin: "127.0.0.1:9001".into(),
                through_seq: 41,
                samples: 41_000,
            }],
        };
        let encoded = many.to_frame().payload;
        // ~11 bytes/sample amortized vs ~50+ for per-sample frames with
        // repeated strings and headers.
        assert!(
            encoded.len() < many.samples.len() * 16,
            "len={}",
            encoded.len()
        );
        assert_eq!(SampleBatch::from_frame(&many.to_frame()).unwrap(), many);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sample_batch_payload_golden() {
        // Source marks, a repeated key and a negative wall delta, as the
        // dictionary-scan encoder that `write_batch` replaced wrote them:
        // the row front end, the columns and the builder must all match.
        let golden = concat!(
            "03000000", // count
            "03",       // epoch
            "11",       // seq 17
            "01",       // one source mark
            "0e000000",
            "3132372e302e302e313a37303031", // "127.0.0.1:7001"
            "09",                           // through_seq
            "ac02",                         // samples 300
            "02000000",                     // dict_len
            "10000000",
            "436f6d7075746174696f6e2054696d65", // "Computation Time"
            "0f000000",
            "3c77686f6c652070726f6772616d3e", // "<whole program>"
            "08000000",
            "4d65737361676573", // "Messages"
            "06000000",
            "6e6f64652033",     // "node 3"
            "40420f0000000000", // base_wall 1,000,000
            "00",
            "00",
            "000000000000f83f", // slot 0, +0, 1.5
            "01",
            "cf0f",
            "00000000000000c0", // slot 1, -1000, -2.0
            "00",
            "c413",
            "000000000000d03f", // slot 0, +1250, 0.25
        );
        let batch = SampleBatch {
            samples: vec![
                sample("Computation Time", "<whole program>", 1_000_000, 1.5),
                sample("Messages", "node 3", 999_000, -2.0),
                sample("Computation Time", "<whole program>", 1_000_250, 0.25),
            ],
            epoch: 3,
            seq: 17,
            sources: vec![SourceMark {
                origin: "127.0.0.1:7001".into(),
                through_seq: 9,
                samples: 300,
            }],
        };
        let frame = batch.to_frame();
        assert_eq!(hex(&frame.payload), golden);
        let cols = BatchColumns::from_frame(&frame).unwrap();
        assert_eq!(hex(&cols.to_frame().payload), golden);
        let mut built = BatchBuilder::default();
        for s in &batch.samples {
            built.push(s.metric.to_string(), s.focus.to_string(), s.wall, s.value);
        }
        let built = BatchColumns {
            epoch: 3,
            seq: 17,
            sources: batch.sources.clone(),
            ..built.take()
        };
        assert_eq!(built, cols);
        assert_eq!(hex(&built.to_frame().payload), golden);
    }

    #[test]
    fn relay_merge_encodes_like_the_struct_encoder() {
        // Two children whose dictionaries overlap on "Messages/node 1",
        // on clocks 300 ns ahead and 700 ns behind, plus one loose row.
        let shift = |off: i64| move |w: u64| (w as i64 - off).max(0) as u64;
        let a = SampleBatch {
            samples: vec![
                sample("Computation Time", "<whole program>", 10_000, 1.0),
                sample("Messages", "node 1", 10_200, 2.0),
                sample("Computation Time", "<whole program>", 10_100, 3.0),
            ],
            epoch: 1,
            seq: 4,
            sources: vec![SourceMark {
                origin: "127.0.0.1:7001".into(),
                through_seq: 2,
                samples: 9,
            }],
        };
        let b = SampleBatch {
            samples: vec![
                sample("Messages", "node 2", 9_000, 4.0),
                sample("Messages", "node 1", 9_500, 5.0),
            ],
            seq: 8,
            ..SampleBatch::default()
        };
        let (off_a, off_b) = (300, -700);
        let mut pending = BatchBuilder::default();
        pending.append(
            BatchColumns::from_frame(&a.to_frame()).unwrap(),
            shift(off_a),
        );
        pending.append(
            BatchColumns::from_frame(&b.to_frame()).unwrap(),
            shift(off_b),
        );
        pending.push("Messages".into(), "node 2".into(), 9_800, 6.0);
        assert_eq!(pending.len(), 6);
        let marks = vec![SourceMark {
            origin: "127.0.0.1:7002".into(),
            through_seq: 8,
            samples: 2,
        }];
        let merged = BatchColumns {
            epoch: 2,
            seq: 5,
            sources: marks.clone(),
            ..pending.take()
        };
        assert!(pending.is_empty());
        assert_eq!(merged.dict.len(), 3, "overlapping keys share one slot");

        // The struct encoder over the same rows, rewritten by hand.
        let mut rows = Vec::new();
        for (batch, off) in [(&a, off_a), (&b, off_b)] {
            for s in &batch.samples {
                rows.push(BatchSample {
                    wall: shift(off)(s.wall),
                    ..s.clone()
                });
            }
        }
        rows.push(sample("Messages", "node 2", 9_800, 6.0));
        let expect = SampleBatch {
            samples: rows,
            epoch: 2,
            seq: 5,
            sources: marks,
        };
        assert_eq!(merged.to_frame().payload, expect.to_frame().payload);

        // A taken builder starts over: slots restart at zero.
        pending.push("Messages".into(), "node 2".into(), 1, 1.0);
        let again = pending.take();
        assert_eq!(again.dict, vec![("Messages".into(), "node 2".into())]);
        assert_eq!(again.key, vec![0]);
    }
}
