//! The TCP backend: threaded accept loop, client reconnect with seeded
//! exponential backoff, heartbeat liveness, at-least-once delivery with
//! receiver-side dedup so every loss is explained by a drop counter, and
//! frames that reach the socket in bursts.
//!
//! No async runtime: the §5 daemon topology (instrumentation library →
//! daemon) has a handful of long-lived links, not ten thousand sockets.
//! A [`TcpClient`] runs a writer thread, which drains the bounded send
//! queue onto the socket and emits heartbeats when idle, and a reader
//! thread, which consumes acks and inbound frames. A [`TcpServer`] runs
//! one accept thread and, per accepted connection, a reader thread (dedup,
//! acks, heartbeat echoes) and a writer thread.
//!
//! Frames reach the socket in bursts:
//!
//! * [`TcpServer`]'s `send` encodes the frame once, straight into each
//!   live connection's outbox, and returns. It blocks only while an outbox
//!   holds 64 KiB: `Block` backpressure, one level above the socket
//!   buffer. A payload too big for the outbox moves in whole instead of
//!   being copied. The connection's writer takes the whole outbox and
//!   writes it in one call.
//! * The client writer pops a frame, takes every frame queued behind it up
//!   to 16 KiB, moves them into the in-flight list and writes the burst in
//!   one call. A reconnect replays the in-flight suffix the same way.
//! * Both ends read through a 16 KiB buffer, so one `read` yields every
//!   frame of the peer's burst. A read burst ends when the buffer holds no
//!   whole frame, so the next read could block; each end hands frames to
//!   the application a read burst at a time.
//! * Control frames (the auth challenge, heartbeat echoes, acks) share a
//!   connection's outbox but never wait for room in it.
//!
//! Every transport buffer stays under glibc's 128 KiB mmap threshold.
//! [`TransportStats::writes`] counts socket writes, so `frames_sent /
//! writes` is the mean burst.
//!
//! Delivery accounting: the client writer stamps every data frame with a
//! sequence number and keeps it in an in-flight list until the server
//! acknowledges it. The server acks once per read burst: at the end of
//! each, before the next read can block, it acks the highest sequence it
//! delivered. On reconnect the client re-sends a `Hello` (its stable id)
//! followed by the unacknowledged suffix; the server's per-client `last
//! delivered` sequence suppresses redeliveries. A client frame is
//! therefore either delivered exactly once or counted in `drops`
//! (backpressure, link give-up, or close) — never silently lost.
//!
//! Closing loses no queued frame silently:
//!
//! * [`TcpClient`]'s close refuses new sends and flushes while the link is
//!   up, bounded by the liveness timeout. It waits until every frame is
//!   acked, the link is lost (close never redials a lost link) or time
//!   runs out, then counts what is left in `drops`, so `frames_sent ==
//!   delivered + drops` holds after close too.
//! * [`TcpServer`]'s close writes each live connection's outbox before it
//!   shuts the sockets down, within a bounded wait.
//! * [`TcpServer::kick_all`] stays an immediate sever: it is the fault
//!   hook, and whatever its outboxes held is gone with the connections.

use crate::config::{auth_tag, ct_eq, splitmix64, TransportConfig};
use crate::frame::{Frame, FrameKind, HEADER_LEN};
use crate::obs;
use crate::queue::BoundedQueue;
use crate::stats::{FrameTally, StatsCell, TransportStats};
use crate::{Backend, Transport, TransportError};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Bytes of data frames a server connection's outbox holds before `send`
/// blocks.
const OUTBOX: usize = 64 << 10;
/// Outbox room past [`OUTBOX`] for control frames, which never wait.
const CONTROL_ROOM: usize = 4 << 10;
/// The client's write burst and both ends' read buffer.
const BURST: usize = 16 << 10;
/// How long [`TcpServer`]'s close waits for its outboxes to drain.
const CLOSE_FLUSH: Duration = Duration::from_secs(2);

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Waits on `cv` for up to `d`.
fn wait_for<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>, d: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(g, d).unwrap_or_else(|e| e.into_inner()).0
}

/// Sleeps up to `d`, waking early once `stop` holds.
fn sleep_unless(d: Duration, stop: impl Fn() -> bool) {
    let deadline = Instant::now() + d;
    while !stop() {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

/// Writes all of `bufs`, in order, with as few (vectored) socket write
/// calls as the kernel takes, counting each call.
fn write_counted(
    mut s: &TcpStream,
    mut bufs: &mut [IoSlice<'_>],
    stats: &StatsCell,
) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        stats.on_write();
        match s.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// True when `buf` starts with a whole frame, so reading the next frame
/// from a reader that holds `buf` cannot block: false means the read burst
/// is consumed.
fn holds_frame(buf: &[u8]) -> bool {
    buf.len() >= HEADER_LEN
        && buf.len() - HEADER_LEN
            >= u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize
}

/// Process-wide source of distinct client ids (mixed with the config seed
/// so two processes with different seeds cannot collide).
static CLIENT_COUNTER: AtomicU64 = AtomicU64::new(1);

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

struct ConnSlot {
    stream: Option<TcpStream>,
    generation: u64,
    /// The writer has exited and counted what it could not deliver.
    finished: bool,
}

/// Written-but-unacknowledged data frames, and what the reader knows of
/// the link they went out on.
#[derive(Default)]
struct InFlight {
    /// Oldest first.
    frames: VecDeque<Frame>,
    /// The newest connection generation whose stream the reader saw end.
    lost: u64,
}

struct ClientShared {
    addr: SocketAddr,
    cfg: TransportConfig,
    client_id: u64,
    /// Closed by close and by give-up: no new sends.
    queue: BoundedQueue,
    inflight: Mutex<InFlight>,
    /// Wakes the writer: an ack retired frames, the reader lost the link,
    /// or the threads must stop.
    settled: Condvar,
    /// Incoming data frames (server → client direction).
    recv: Mutex<VecDeque<Frame>>,
    conn: Mutex<ConnSlot>,
    conn_cv: Condvar,
    last_seen: Mutex<Instant>,
    /// The threads must exit: the writer finished, or close ran out of
    /// time.
    stopped: AtomicBool,
    /// Set when reconnection was abandoned; queued frames became drops.
    failed: AtomicBool,
    stats: Arc<StatsCell>,
}

impl ClientShared {
    /// True once close was asked for or the link abandoned.
    fn closing(&self) -> bool {
        self.queue.is_closed()
    }

    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Wakes a writer waiting for acks. The lock hold orders the wake after
    /// any state change the writer checks under that lock.
    fn wake_writer(&self) {
        drop(lock(&self.inflight));
        self.settled.notify_all();
    }

    /// Stops both threads wherever they wait or block.
    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.wake_writer();
        if let Some(s) = &lock(&self.conn).stream {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.conn_cv.notify_all();
    }

    /// Waits up to `d` for the writer to finish.
    fn await_finished(&self, d: Duration) -> bool {
        let deadline = Instant::now() + d;
        let mut slot = lock(&self.conn);
        while !slot.finished {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            slot = wait_for(&self.conn_cv, slot, deadline - now);
        }
        true
    }
}

/// The client end of a TCP link. Cheap to share (`Arc` inside).
pub struct TcpClient {
    shared: Arc<ClientShared>,
}

impl TcpClient {
    /// Connects to a [`TcpServer`] (the connection itself is established by
    /// the background writer thread, so this returns immediately and the
    /// reconnect machinery handles a not-yet-listening server too).
    pub fn connect(addr: SocketAddr, cfg: TransportConfig) -> Arc<Self> {
        let stats = Arc::new(StatsCell::default());
        let client_id = CLIENT_COUNTER
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ cfg.reconnect.jitter_seed;
        let shared = Arc::new(ClientShared {
            addr,
            cfg,
            client_id,
            queue: BoundedQueue::new(cfg.capacity, cfg.backpressure, stats.clone()),
            inflight: Mutex::new(InFlight::default()),
            settled: Condvar::new(),
            recv: Mutex::new(VecDeque::new()),
            conn: Mutex::new(ConnSlot {
                stream: None,
                generation: 0,
                finished: false,
            }),
            conn_cv: Condvar::new(),
            last_seen: Mutex::new(Instant::now()),
            stopped: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            stats,
        });
        {
            let s = shared.clone();
            std::thread::Builder::new()
                .name("pdmap-transport-writer".into())
                .spawn(move || writer_loop(&s))
                .expect("spawn transport writer");
        }
        {
            let s = shared.clone();
            std::thread::Builder::new()
                .name("pdmap-transport-reader".into())
                .spawn(move || reader_loop(&s))
                .expect("spawn transport reader");
        }
        Arc::new(Self { shared })
    }

    /// Frames accepted but not yet acknowledged by the server (queued +
    /// in-flight). Zero means everything sent so far was delivered or
    /// dropped-with-accounting.
    pub fn backlog(&self) -> usize {
        self.shared.queue.len() + lock(&self.shared.inflight).frames.len()
    }

    /// True once reconnection has been abandoned (`max_attempts` exceeded).
    pub fn is_failed(&self) -> bool {
        self.shared.failed.load(Ordering::Acquire)
    }
}

/// Runs the client half of the connection handshake on a fresh stream:
/// when a secret is configured, awaits the server's challenge Hello and
/// computes the response tag; then sends our Hello (id, or id + tag) and
/// replays the unacknowledged suffix, in bursts of up to [`BURST`] bytes
/// encoded into `buf`. `false` means this connection is unusable and the
/// attempt failed.
fn client_handshake(shared: &ClientShared, s: &mut TcpStream, buf: &mut Vec<u8>) -> bool {
    let hello_payload = match shared.cfg.secret {
        Some(secret) => {
            // The challenge must arrive promptly; without a timeout a
            // server that accepts but never challenges (e.g. one not
            // configured for auth) would wedge the writer thread. The
            // server sends nothing else before our answer, so this
            // unbuffered read cannot swallow the reader's frames.
            let _ = s.set_read_timeout(Some(shared.cfg.liveness_timeout));
            let nonce = match Frame::read_from(s) {
                Ok(Some(f)) if f.kind == FrameKind::Hello && f.payload.len() == 8 => {
                    u64::from_le_bytes(f.payload[..8].try_into().expect("8 bytes"))
                }
                _ => return false,
            };
            let _ = s.set_read_timeout(None);
            let mut p = shared.client_id.to_le_bytes().to_vec();
            p.extend_from_slice(&auth_tag(&secret, nonce, shared.client_id).to_le_bytes());
            p
        }
        None => shared.client_id.to_le_bytes().to_vec(),
    };
    buf.clear();
    Frame::data(FrameKind::Hello, hello_payload).encode_into(buf);
    let inflight = lock(&shared.inflight);
    for f in &inflight.frames {
        if buf.len() + f.encoded_len() > BURST {
            if write_counted(s, &mut [IoSlice::new(buf)], &shared.stats).is_err() {
                return false;
            }
            buf.clear();
        }
        f.encode_into(buf);
    }
    write_counted(s, &mut [IoSlice::new(buf)], &shared.stats).is_ok()
}

/// Connects (or reconnects) and runs the handshake, retrying with backoff.
/// `None` when the link is stopped, closing (close dials at most the
/// first connection and never retries), or abandoned.
fn establish(
    shared: &ClientShared,
    ever_connected: &mut bool,
    attempt: &mut u32,
    buf: &mut Vec<u8>,
) -> Option<(TcpStream, u64)> {
    // A re-establishment (not the first connect) is a reconnect span: it
    // covers every failed attempt and backoff sleep until the link is back.
    let reconnect_start = if *ever_connected && pdmap_obs::enabled() {
        Some(pdmap_obs::now_ns())
    } else {
        None
    };
    loop {
        if shared.stopped() || (shared.closing() && *ever_connected) {
            return None;
        }
        if let Ok(mut s) = TcpStream::connect(shared.addr) {
            let _ = s.set_nodelay(true);
            if client_handshake(shared, &mut s, buf) {
                if *ever_connected {
                    shared.stats.on_reconnect();
                    if let Some(t0) = reconnect_start {
                        let dur = pdmap_obs::now_ns().saturating_sub(t0);
                        pdmap_obs::record_span(&crate::obs::obs().tcp_reconnect, t0, dur);
                    }
                }
                *ever_connected = true;
                *attempt = 0;
                // Publish to the reader.
                let generation = {
                    let mut slot = lock(&shared.conn);
                    slot.stream = Some(s.try_clone().expect("clone TCP stream"));
                    slot.generation += 1;
                    slot.generation
                };
                shared.conn_cv.notify_all();
                *lock(&shared.last_seen) = Instant::now();
                return Some((s, generation));
            }
        }
        shared.stats.on_retry();
        *attempt += 1;
        if *attempt >= shared.cfg.reconnect.max_attempts {
            // Abandoned: the writer's exit counts every frame as a drop.
            shared.failed.store(true, Ordering::Release);
            shared.queue.close();
            return None;
        }
        if shared.closing() {
            return None;
        }
        sleep_unless(shared.cfg.reconnect.delay_for(*attempt - 1), || {
            shared.stopped() || shared.closing()
        });
    }
}

fn writer_loop(shared: &ClientShared) {
    let mut link: Option<(TcpStream, u64)> = None;
    let mut ever_connected = false;
    let mut attempt: u32 = 0;
    let mut next_seq = 1u64;
    let mut buf = Vec::with_capacity(BURST);
    let mut burst: Vec<Frame> = Vec::new();
    while !shared.stopped() {
        if link.is_none() {
            link = establish(shared, &mut ever_connected, &mut attempt, &mut buf);
        }
        let Some((s, generation)) = &link else {
            break; // closing, stopped or abandoned
        };
        let room = {
            let inflight = lock(&shared.inflight);
            if inflight.lost >= *generation {
                drop(inflight);
                link = None;
                continue;
            }
            let flushed = shared.closing() && shared.queue.is_empty();
            if flushed && inflight.frames.is_empty() {
                break; // close delivered everything
            }
            let room = shared.cfg.capacity.saturating_sub(inflight.frames.len());
            if room == 0 || flushed {
                // Wait for acks rather than growing the in-flight list
                // without bound when the receiver lags (or, closing, for
                // the last acks).
                drop(wait_for(
                    &shared.settled,
                    inflight,
                    shared.cfg.heartbeat_every,
                ));
                continue;
            }
            room
        };
        let ok = match shared.queue.pop_timeout(shared.cfg.heartbeat_every) {
            Some(first) => {
                let budget = BURST.saturating_sub(first.encoded_len());
                burst.push(first);
                shared.queue.pop_burst(&mut burst, budget, room);
                buf.clear();
                // Stamp and hold the burst in flight *before* writing it,
                // so a mid-write failure can never lose a frame.
                let mut inflight = lock(&shared.inflight);
                for mut f in burst.drain(..) {
                    f.seq = next_seq;
                    next_seq += 1;
                    f.encode_into(&mut buf);
                    inflight.frames.push_back(f);
                }
                drop(inflight);
                let ok = write_counted(s, &mut [IoSlice::new(&buf)], &shared.stats).is_ok();
                if buf.capacity() > 2 * BURST {
                    // A frame past the burst bound grew the buffer.
                    buf = Vec::with_capacity(BURST);
                }
                ok
            }
            None if shared.closing() => true,
            None => {
                let beat = Frame::heartbeat().header();
                let ok = write_counted(s, &mut [IoSlice::new(&beat)], &shared.stats).is_ok();
                if ok {
                    shared.stats.on_heartbeat_sent();
                }
                ok
            }
        };
        if !ok {
            link = None;
        }
    }
    // Whatever is still queued or unacknowledged can no longer be
    // delivered: it is an accounted loss.
    shared.queue.close();
    shared.stop();
    let left = shared.queue.drain().len() + lock(&shared.inflight).frames.drain(..).count();
    shared.stats.on_drop(left as u64);
    lock(&shared.conn).finished = true;
    shared.conn_cv.notify_all();
}

fn reader_loop(shared: &ClientShared) {
    let mut seen_gen = 0u64;
    let mut burst = Vec::new();
    loop {
        // Wait for a fresh connection generation. Both ways out — a
        // generation `establish` publishes and `stop` — change what this
        // loop checks under the `conn` lock before they notify, so the
        // wait needs no timer.
        let stream = {
            let mut slot = lock(&shared.conn);
            loop {
                if shared.stopped() {
                    return;
                }
                if slot.generation > seen_gen {
                    if let Some(s) = &slot.stream {
                        seen_gen = slot.generation;
                        break s.try_clone().expect("clone TCP stream");
                    }
                }
                slot = shared.conn_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Read until the connection is lost, handing frames over a read
        // burst at a time, then await the next generation.
        let mut reader = BufReader::with_capacity(BURST, stream);
        while let Ok(Some(frame)) = Frame::read_from(&mut reader) {
            match frame.kind {
                FrameKind::Heartbeat => shared.stats.on_heartbeat_received(),
                FrameKind::Ack => {
                    shared.stats.on_ack_received();
                    let mut inflight = lock(&shared.inflight);
                    while inflight.frames.front().is_some_and(|f| f.seq <= frame.seq) {
                        inflight.frames.pop_front();
                    }
                    drop(inflight);
                    shared.settled.notify_all();
                }
                FrameKind::Hello => {}
                _ => {
                    shared.stats.on_frame_received(FrameTally::of(&frame));
                    burst.push(frame);
                }
            }
            if !holds_frame(reader.buffer()) {
                deliver(shared, &mut burst);
            }
        }
        deliver(shared, &mut burst);
        lock(&shared.inflight).lost = seen_gen;
        shared.settled.notify_all();
    }
}

/// Hands the application the oldest frame a reader delivered to `inbox`,
/// timing the delivery — both ends' `try_recv`.
fn pop_inbox(inbox: &Mutex<VecDeque<Frame>>) -> Result<Option<Frame>, TransportError> {
    let t0 = obs::clock();
    let frame = lock(inbox).pop_front();
    if let Some(f) = &frame {
        obs::delivered(Backend::Tcp, f.kind, t0);
    }
    Ok(frame)
}

/// Hands a consumed read burst to the application.
fn deliver(shared: &ClientShared, burst: &mut Vec<Frame>) {
    *lock(&shared.last_seen) = Instant::now();
    if !burst.is_empty() {
        lock(&shared.recv).extend(burst.drain(..));
    }
}

impl Transport for TcpClient {
    fn send(&self, kind: FrameKind, payload: Vec<u8>) -> Result<(), TransportError> {
        let sh = &self.shared;
        if sh.closing() {
            return Err(TransportError::Closed);
        }
        let t0 = obs::clock();
        // The writer stamps the sequence as it takes the frame, so the
        // wire order and the sequence order are one.
        let frame = Frame::data(kind, payload);
        let tally = FrameTally::of(&frame);
        sh.queue.push(frame).map_err(|_| TransportError::Closed)?;
        sh.stats.on_frame_sent(tally);
        obs::sent(Backend::Tcp, kind, t0);
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<Frame>, TransportError> {
        pop_inbox(&self.shared.recv)
    }

    fn stats(&self) -> TransportStats {
        self.shared.stats.snapshot()
    }

    fn is_alive(&self) -> bool {
        let sh = &self.shared;
        !sh.closing() && lock(&sh.last_seen).elapsed() < sh.cfg.liveness_timeout
    }

    /// Refuses new sends, then flushes: returns once every frame is acked
    /// or counted in `drops` (see the module docs). Waits at most about
    /// twice the liveness timeout.
    fn close(&self) {
        let sh = &self.shared;
        sh.queue.close();
        sh.wake_writer();
        if !sh.await_finished(sh.cfg.liveness_timeout) {
            // Out of time: stop the writer where it stands; its exit
            // counts the rest.
            sh.stop();
            sh.await_finished(sh.cfg.liveness_timeout);
        }
    }

    fn backend_name(&self) -> &'static str {
        "tcp-client"
    }
}

impl Drop for TcpClient {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// One connection's encoded, not yet written frames.
struct Outbox {
    /// Encoded frames, oldest first.
    bytes: Vec<u8>,
    /// A payload too big for `bytes`, moved in whole: it goes on the wire
    /// at offset `.0` of `bytes`, right after its header.
    big: Option<(usize, Vec<u8>)>,
    /// Close asked for a flush: the writer writes what is queued, then
    /// exits.
    closing: bool,
    /// The writer is parked, waiting for bytes.
    idle: bool,
    /// The writer exited; nothing more is written.
    done: bool,
}

impl Outbox {
    fn is_empty(&self) -> bool {
        self.bytes.is_empty() && self.big.is_none()
    }
}

/// An outbox buffer: room for [`OUTBOX`] bytes of data frames plus
/// [`CONTROL_ROOM`], so appending never makes it double.
fn outbox_buffer() -> Vec<u8> {
    Vec::with_capacity(OUTBOX + CONTROL_ROOM)
}

struct ConnHandle {
    stream: TcpStream,
    alive: AtomicBool,
    outbox: Mutex<Outbox>,
    /// Wakes the writer: bytes queued, or the connection closing or
    /// severed.
    ready: Condvar,
    /// Wakes senders and close: the writer took the outbox, or exited.
    drained: Condvar,
}

impl ConnHandle {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            alive: AtomicBool::new(true),
            outbox: Mutex::new(Outbox {
                bytes: outbox_buffer(),
                big: None,
                closing: false,
                idle: false,
                done: false,
            }),
            ready: Condvar::new(),
            drained: Condvar::new(),
        }
    }

    fn alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Queues a data frame, waiting while the outbox is full. A payload
    /// past [`OUTBOX`] moves in whole — taken from `frame` when `last`,
    /// cloned otherwise. False when the connection is gone or closing.
    fn queue_data(&self, frame: &mut Frame, last: bool) -> bool {
        let big = frame.encoded_len() > OUTBOX;
        let need = if big { HEADER_LEN } else { frame.encoded_len() };
        let mut o = lock(&self.outbox);
        loop {
            if o.closing || o.done || !self.alive() {
                return false;
            }
            if o.bytes.len() + need <= OUTBOX && !(big && o.big.is_some()) {
                break;
            }
            o = self.drained.wait(o).unwrap_or_else(|e| e.into_inner());
        }
        if big {
            o.bytes.extend_from_slice(&frame.header());
            let payload = if last {
                std::mem::take(&mut frame.payload)
            } else {
                frame.payload.clone()
            };
            o.big = Some((o.bytes.len(), payload));
        } else {
            frame.encode_into(&mut o.bytes);
        }
        self.wake(o);
        true
    }

    /// Queues a control frame; it never waits for room. False when the
    /// connection is gone.
    fn queue_control(&self, frame: &Frame) -> bool {
        let mut o = lock(&self.outbox);
        if o.done || !self.alive() {
            return false;
        }
        frame.encode_into(&mut o.bytes);
        self.wake(o);
        true
    }

    fn wake(&self, o: MutexGuard<'_, Outbox>) {
        let idle = o.idle;
        drop(o);
        if idle {
            self.ready.notify_one();
        }
    }

    /// Close's flush: the writer writes what is queued, then exits; waits
    /// for that until `deadline`.
    fn flush(&self, deadline: Instant) {
        let mut o = lock(&self.outbox);
        o.closing = true;
        self.ready.notify_one();
        self.drained.notify_all();
        while !o.done && self.alive() {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            o = wait_for(&self.drained, o, deadline - now);
        }
    }

    /// Cuts the connection at once; whatever the outbox holds is gone.
    fn sever(&self) {
        {
            let _o = lock(&self.outbox);
            self.alive.store(false, Ordering::Release);
        }
        self.ready.notify_all();
        self.drained.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// A connection's writer thread: takes the whole outbox and writes it,
/// until the connection is severed, fails, or closes with nothing left.
fn conn_writer(c: &ConnHandle, stats: &StatsCell) {
    // The buffer being written; it trades places with the outbox's.
    let mut bytes = outbox_buffer();
    loop {
        let big = {
            let mut o = lock(&c.outbox);
            while o.is_empty() && !o.closing && c.alive() {
                o.idle = true;
                o = c.ready.wait(o).unwrap_or_else(|e| e.into_inner());
                o.idle = false;
            }
            if o.is_empty() || !c.alive() {
                o.done = true;
                drop(o);
                c.drained.notify_all();
                return;
            }
            std::mem::swap(&mut o.bytes, &mut bytes);
            o.big.take()
        };
        c.drained.notify_all();
        let (head, payload, tail) = match &big {
            None => (&bytes[..], &[][..], &[][..]),
            Some((at, payload)) => (&bytes[..*at], &payload[..], &bytes[*at..]),
        };
        let mut parts = [
            IoSlice::new(head),
            IoSlice::new(payload),
            IoSlice::new(tail),
        ];
        if write_counted(&c.stream, &mut parts, stats).is_err() {
            c.sever();
        }
        bytes.clear();
        if bytes.capacity() > OUTBOX + CONTROL_ROOM {
            // A pile-up of control frames outgrew it.
            bytes = outbox_buffer();
        }
    }
}

struct ServerShared {
    recv: Mutex<VecDeque<Frame>>,
    /// Registered connections, copy-on-write: `send` clones the `Arc`,
    /// not the list.
    conns: Mutex<Arc<Vec<Arc<ConnHandle>>>>,
    /// When set, every accepted connection must pass the challenge/response
    /// handshake before its handle is registered (before any of its frames
    /// can reach the session).
    secret: Option<[u8; 16]>,
    /// Highest contiguous sequence delivered, per client id — survives the
    /// client's reconnects, which is what makes redelivery detectable.
    delivered: Mutex<HashMap<u64, u64>>,
    closed: AtomicBool,
    next_seq: AtomicU64,
    stats: Arc<StatsCell>,
}

impl ServerShared {
    fn register(&self, c: Arc<ConnHandle>) {
        let mut conns = lock(&self.conns);
        let mut next = Vec::clone(&conns);
        next.push(c);
        *conns = Arc::new(next);
    }

    fn unregister(&self, c: &Arc<ConnHandle>) {
        let mut conns = lock(&self.conns);
        if conns.iter().any(|x| Arc::ptr_eq(x, c)) {
            let next = conns
                .iter()
                .filter(|x| !Arc::ptr_eq(x, c))
                .cloned()
                .collect();
            *conns = Arc::new(next);
        }
    }

    /// Unregisters every connection, returning them.
    fn take_conns(&self) -> Arc<Vec<Arc<ConnHandle>>> {
        std::mem::take(&mut *lock(&self.conns))
    }
}

/// The accepting end of a TCP link. Fan-in: frames from every connected
/// client surface through one [`Transport::try_recv`].
pub struct TcpServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
}

impl TcpServer {
    /// Binds and starts the accept loop. Use `"127.0.0.1:0"` to let the OS
    /// pick a port, then read it back with [`TcpServer::local_addr`].
    pub fn bind(addr: &str) -> std::io::Result<Arc<Self>> {
        Self::bind_with_secret(addr, None)
    }

    /// Like [`TcpServer::bind`], but when `secret` is set every accepted
    /// connection must answer the challenge/response Hello before it is
    /// admitted: the server sends an 8-byte nonce, the client must reply
    /// with `client_id || tag(secret, nonce, client_id)`, compared in
    /// constant time. A peer that answers wrongly (or not at all within the
    /// handshake timeout) is counted in `auth_failures` and disconnected
    /// without ever reaching the session.
    pub fn bind_with_secret(addr: &str, secret: Option<[u8; 16]>) -> std::io::Result<Arc<Self>> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            recv: Mutex::new(VecDeque::new()),
            conns: Mutex::default(),
            secret,
            delivered: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            next_seq: AtomicU64::new(1),
            stats: Arc::new(StatsCell::default()),
        });
        {
            let s = shared.clone();
            std::thread::Builder::new()
                .name("pdmap-transport-accept".into())
                .spawn(move || accept_loop(&listener, &s))
                .expect("spawn transport accept loop");
        }
        Ok(Arc::new(Self {
            shared,
            addr: local,
        }))
    }

    /// The bound address (for clients to connect to).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Severs every live connection at once, without flushing and without
    /// stopping the listener — the fault-injection hook used to exercise
    /// client reconnection.
    pub fn kick_all(&self) {
        for c in self.shared.take_conns().iter() {
            c.sever();
        }
    }

    /// Number of currently live connections.
    pub fn connections(&self) -> usize {
        lock(&self.shared.conns)
            .iter()
            .filter(|c| c.alive())
            .count()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.closed.load(Ordering::Acquire) {
                    break;
                }
                let _ = stream.set_nodelay(true);
                let read_half = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let handle = Arc::new(ConnHandle::new(stream));
                // With auth enabled, registration waits until the peer has
                // answered the challenge (conn_loop) — an unauthenticated
                // peer must never receive broadcasts or count as a
                // connection.
                if shared.secret.is_none() {
                    shared.register(handle.clone());
                }
                {
                    let (h, stats) = (handle.clone(), shared.stats.clone());
                    std::thread::Builder::new()
                        .name("pdmap-transport-conn-writer".into())
                        .spawn(move || conn_writer(&h, &stats))
                        .expect("spawn transport conn writer");
                }
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name("pdmap-transport-conn".into())
                    .spawn(move || conn_loop(read_half, &handle, &sh))
                    .expect("spawn transport conn reader");
            }
            Err(_) => {
                if shared.closed.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    }
}

/// Process-wide nonce sequence for auth challenges; mixed with the clock so
/// two servers in one process still challenge differently.
static NONCE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Runs the server half of the challenge/response handshake. Returns the
/// authenticated client id, or `None` if the peer failed (wrong tag, no
/// Hello, or silence past the handshake timeout).
fn server_auth(
    reader: &mut BufReader<TcpStream>,
    handle: &ConnHandle,
    secret: &[u8; 16],
) -> Option<u64> {
    let nonce = splitmix64(
        pdmap_obs::now_ns()
            ^ NONCE_COUNTER
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    if !handle.queue_control(&Frame::data(FrameKind::Hello, nonce.to_le_bytes().to_vec())) {
        return None;
    }
    // Bound the wait for the response so a silent peer cannot pin this
    // thread; the timeout is cleared once the peer is admitted.
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)));
    let verdict = match Frame::read_from(reader) {
        Ok(Some(f)) if f.kind == FrameKind::Hello && f.payload.len() == 16 => {
            let client_id = u64::from_le_bytes(f.payload[..8].try_into().expect("8 bytes"));
            let expect = auth_tag(secret, nonce, client_id).to_le_bytes();
            ct_eq(&f.payload[8..], &expect).then_some(client_id)
        }
        _ => None,
    };
    let _ = reader.get_ref().set_read_timeout(None);
    verdict
}

fn conn_loop(stream: TcpStream, handle: &Arc<ConnHandle>, shared: &Arc<ServerShared>) {
    let mut reader = BufReader::with_capacity(BURST, stream);
    // Client id 0 = a peer that never said Hello (still works, but its
    // dedup state is shared with other anonymous peers).
    let mut client_id = 0u64;
    if let Some(secret) = &shared.secret {
        match server_auth(&mut reader, handle, secret) {
            Some(id) => {
                client_id = id;
                shared.register(handle.clone());
            }
            None => {
                shared.stats.on_auth_failure();
                crate::obs::obs().auth_failures.incr();
                handle.sever();
                return;
            }
        }
    }
    // The current read burst's fresh frames, and the highest sequence it
    // carried: delivered and acked together once the buffer runs dry.
    let mut burst = Vec::new();
    let mut ack = 0u64;
    while !shared.closed.load(Ordering::Acquire) {
        let Ok(Some(frame)) = Frame::read_from(&mut reader) else {
            break;
        };
        match frame.kind {
            FrameKind::Hello => {
                if frame.payload.len() == 8 {
                    client_id = u64::from_le_bytes(frame.payload[..8].try_into().unwrap());
                }
            }
            FrameKind::Heartbeat => {
                shared.stats.on_heartbeat_received();
                if !handle.queue_control(&Frame::heartbeat()) {
                    break;
                }
                shared.stats.on_heartbeat_sent();
            }
            FrameKind::Ack => shared.stats.on_ack_received(),
            _ => {
                let seq = frame.seq;
                let fresh = {
                    let mut delivered = lock(&shared.delivered);
                    let last = delivered.entry(client_id).or_insert(0);
                    if seq != 0 && seq <= *last {
                        false
                    } else {
                        if seq != 0 {
                            *last = seq;
                        }
                        true
                    }
                };
                if fresh {
                    shared.stats.on_frame_received(FrameTally::of(&frame));
                    burst.push(frame);
                } else {
                    shared.stats.on_duplicate();
                }
                ack = ack.max(seq);
            }
        }
        if !holds_frame(reader.buffer()) {
            // The read burst is consumed: deliver it, then ack it, before
            // the next read can block.
            if !burst.is_empty() {
                lock(&shared.recv).extend(burst.drain(..));
            }
            if ack != 0 {
                if !handle.queue_control(&Frame::ack(ack)) {
                    break;
                }
                shared.stats.on_ack_sent();
                ack = 0;
            }
        }
    }
    // Frames the dedup state already counts as delivered must surface.
    lock(&shared.recv).extend(burst);
    handle.sever();
    shared.unregister(handle);
}

impl Transport for TcpServer {
    /// Broadcasts to every live connection (the daemon → instrumentation
    /// direction carries control traffic, so best-effort fan-out fits).
    /// Returns once the frame is queued in an outbox, not once it is
    /// written.
    fn send(&self, kind: FrameKind, payload: Vec<u8>) -> Result<(), TransportError> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let t0 = obs::clock();
        let mut frame = Frame::data(kind, payload);
        frame.seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        let tally = FrameTally::of(&frame);
        let conns = lock(&self.shared.conns).clone();
        let mut queued = false;
        for (i, c) in conns.iter().enumerate() {
            queued |= c.queue_data(&mut frame, i + 1 == conns.len());
        }
        if !queued {
            return Err(if self.shared.closed.load(Ordering::Acquire) {
                TransportError::Closed
            } else {
                TransportError::Io("no live connections".into())
            });
        }
        self.shared.stats.on_frame_sent(tally);
        obs::sent(Backend::Tcp, kind, t0);
        Ok(())
    }

    fn try_recv(&self) -> Result<Option<Frame>, TransportError> {
        pop_inbox(&self.shared.recv)
    }

    fn stats(&self) -> TransportStats {
        self.shared.stats.snapshot()
    }

    fn is_alive(&self) -> bool {
        !self.shared.closed.load(Ordering::Acquire) && self.connections() > 0
    }

    /// Refuses new sends, writes every live connection's outbox (waiting
    /// at most two seconds for all of them), then shuts the sockets down.
    /// Idempotent.
    fn close(&self) {
        if self.shared.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        let conns = self.shared.take_conns();
        let deadline = Instant::now() + CLOSE_FLUSH;
        for c in conns.iter() {
            c.flush(deadline);
            c.sever();
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    fn backend_name(&self) -> &'static str {
        "tcp-server"
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Backpressure;

    fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    fn recv_all<T: Transport>(end: &Arc<T>, want: usize, timeout: Duration) -> Vec<Frame> {
        let mut out = Vec::new();
        let deadline = Instant::now() + timeout;
        while out.len() < want && Instant::now() < deadline {
            match end.try_recv().unwrap() {
                Some(f) => out.push(f),
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        out
    }

    #[test]
    fn loopback_delivery() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(server.local_addr(), TransportConfig::default());
        for i in 0..50u8 {
            client.send(FrameKind::Daemon, vec![i]).unwrap();
        }
        let got = recv_all(&server, 50, Duration::from_secs(5));
        assert_eq!(got.len(), 50);
        for (i, f) in got.iter().enumerate() {
            assert_eq!(f.payload, vec![i as u8]);
            assert_eq!(f.kind, FrameKind::Daemon);
        }
        assert!(wait_until(Duration::from_secs(2), || client.backlog() == 0));
        assert_eq!(client.stats().frames_sent, 50);
        assert_eq!(server.stats().frames_received, 50);
        assert!(client.is_alive());
        client.close();
    }

    #[test]
    fn heartbeats_keep_link_alive() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let cfg = TransportConfig {
            heartbeat_every: Duration::from_millis(20),
            liveness_timeout: Duration::from_millis(500),
            ..Default::default()
        };
        let client = TcpClient::connect(server.local_addr(), cfg);
        std::thread::sleep(Duration::from_millis(200));
        assert!(client.is_alive());
        assert!(client.stats().heartbeats_sent >= 3);
        assert!(client.stats().heartbeats_received >= 1, "server echoes");
        client.close();
    }

    #[test]
    fn reconnect_after_kick_resends_unacked() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let mut cfg = TransportConfig::with_capacity(256);
        cfg.heartbeat_every = Duration::from_millis(10);
        cfg.reconnect.base_delay = Duration::from_millis(5);
        cfg.reconnect.max_attempts = 200;
        let client = TcpClient::connect(server.local_addr(), cfg);
        for i in 0..20u8 {
            client.send(FrameKind::Daemon, vec![i]).unwrap();
        }
        let first = recv_all(&server, 20, Duration::from_secs(5));
        assert_eq!(first.len(), 20);
        server.kick_all();
        // Send through the outage; the writer detects the dead socket and
        // reconnects with backoff.
        for i in 20..40u8 {
            client.send(FrameKind::Daemon, vec![i]).unwrap();
        }
        let second = recv_all(&server, 20, Duration::from_secs(10));
        assert_eq!(second.len(), 20, "all frames arrive after reconnect");
        assert!(client.stats().reconnects >= 1);
        assert_eq!(client.stats().drops, 0, "Block policy loses nothing");
        // Dedup: sent == distinct received.
        let mut seen: Vec<u8> = first.iter().chain(&second).map(|f| f.payload[0]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 40);
        client.close();
    }

    #[test]
    fn abandoned_link_accounts_every_frame() {
        // Nothing is listening and never will be.
        let mut cfg = TransportConfig::with_capacity(8).backpressure(Backpressure::DropOldest);
        cfg.reconnect.max_attempts = 3;
        cfg.reconnect.base_delay = Duration::from_millis(1);
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap(); // discard port, closed
        let client = TcpClient::connect(addr, cfg);
        let mut accepted = 0u64;
        for i in 0..30u8 {
            if client.send(FrameKind::Daemon, vec![i]).is_ok() {
                accepted += 1;
            }
        }
        assert!(wait_until(Duration::from_secs(5), || client.is_failed()));
        assert!(
            wait_until(Duration::from_secs(2), || {
                let s = client.stats();
                s.drops == accepted
            }),
            "every accepted frame becomes an accounted drop: {:?} accepted={accepted}",
            client.stats()
        );
        assert!(client.stats().retries >= 3);
        assert!(!client.is_alive());
        assert_eq!(
            client.send(FrameKind::Daemon, vec![0]).unwrap_err(),
            TransportError::Closed
        );
    }

    #[test]
    fn auth_admits_matching_secret_and_session_works() {
        let secret = crate::config::secret_from_str("chaos-matrix");
        let server = TcpServer::bind_with_secret("127.0.0.1:0", Some(secret)).unwrap();
        let client = TcpClient::connect(
            server.local_addr(),
            TransportConfig::default().with_secret(secret),
        );
        for i in 0..10u8 {
            client.send(FrameKind::Daemon, vec![i]).unwrap();
        }
        let got = recv_all(&server, 10, Duration::from_secs(5));
        assert_eq!(got.len(), 10);
        assert_eq!(server.stats().auth_failures, 0);
        assert!(wait_until(Duration::from_secs(2), || server.connections() == 1));
        // The server → client direction works post-auth too.
        server.send(FrameKind::PifBlob, b"ok".to_vec()).unwrap();
        assert!(wait_until(Duration::from_secs(2), || {
            client.stats().frames_received >= 1
        }));
        client.close();
    }

    #[test]
    fn wrong_secret_is_rejected_before_any_session_frame() {
        let server = TcpServer::bind_with_secret(
            "127.0.0.1:0",
            Some(crate::config::secret_from_str("right")),
        )
        .unwrap();
        let mut cfg =
            TransportConfig::default().with_secret(crate::config::secret_from_str("wrong"));
        cfg.reconnect.max_attempts = 3;
        cfg.reconnect.base_delay = Duration::from_millis(1);
        let client = TcpClient::connect(server.local_addr(), cfg);
        let _ = client.send(FrameKind::Daemon, vec![1]);
        assert!(
            wait_until(Duration::from_secs(5), || server.stats().auth_failures >= 1),
            "server must count the rejection: {:?}",
            server.stats()
        );
        // The rejected peer never reached the session: no registered
        // connection, no delivered frame.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.connections(), 0);
        assert_eq!(server.stats().frames_received, 0);
        assert!(server.try_recv().unwrap().is_none());
        client.close();
    }

    #[test]
    fn secretless_client_rejected_by_auth_server() {
        let server = TcpServer::bind_with_secret(
            "127.0.0.1:0",
            Some(crate::config::secret_from_str("right")),
        )
        .unwrap();
        // A legacy 8-byte Hello (no tag) must fail the handshake.
        let mut cfg = TransportConfig::default();
        cfg.reconnect.max_attempts = 2;
        cfg.reconnect.base_delay = Duration::from_millis(1);
        let client = TcpClient::connect(server.local_addr(), cfg);
        let _ = client.send(FrameKind::Daemon, vec![1]);
        assert!(wait_until(Duration::from_secs(5), || {
            server.stats().auth_failures >= 1
        }));
        assert_eq!(server.stats().frames_received, 0);
        client.close();
    }

    #[test]
    fn server_broadcast_reaches_client() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(server.local_addr(), TransportConfig::default());
        assert!(wait_until(Duration::from_secs(5), || server.connections() == 1));
        server
            .send(FrameKind::PifBlob, b"records".to_vec())
            .unwrap();
        let got = recv_all(&client, 1, Duration::from_secs(5));
        assert_eq!(got.len(), 1, "the broadcast must reach the client");
        assert_eq!(got[0].kind, FrameKind::PifBlob);
        assert_eq!(got[0].payload, b"records");
        assert_eq!(server.stats().frames_sent, 1);
        assert_eq!(client.stats().frames_received, 1);
        client.close();
    }

    #[test]
    fn server_bursts_arrive_whole_in_order_and_close_flushes_the_tail() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(server.local_addr(), TransportConfig::default());
        assert!(wait_until(Duration::from_secs(5), || server.connections() == 1));
        // Mostly small frames, some mid-sized, one past the burst bound
        // and one past the outbox.
        const N: usize = 10_000;
        let payload = |i: usize| -> Vec<u8> {
            let len = match i {
                4_000 => BURST + 123,
                7_000 => OUTBOX + 4_567,
                _ if i.is_multiple_of(101) => 2_000 + i % 700,
                _ => i % 48,
            };
            (0..len).map(|k| (i.wrapping_mul(31) + k) as u8).collect()
        };
        for i in 0..N {
            server.send(FrameKind::PifBlob, payload(i)).unwrap();
        }
        // The last frame is queued right before close, which must flush it.
        server.send(FrameKind::Daemon, payload(N)).unwrap();
        server.close();
        let got = recv_all(&client, N + 1, Duration::from_secs(10));
        assert_eq!(got.len(), N + 1, "every frame arrives");
        for (i, f) in got.iter().enumerate() {
            let kind = if i == N {
                FrameKind::Daemon
            } else {
                FrameKind::PifBlob
            };
            assert_eq!((f.kind, f.seq), (kind, i as u64 + 1), "frame {i} in order");
            assert!(f.payload == payload(i), "frame {i} arrives byte-identical");
        }
        assert_eq!(client.stats().frames_received, N as u64 + 1);
        assert!(server.stats().writes >= 1);
        client.close();
    }

    #[test]
    fn holds_frame_needs_the_whole_frame() {
        let bytes = Frame::data(FrameKind::Daemon, vec![7; 40]).encode();
        assert!(holds_frame(&bytes));
        assert!(holds_frame(&[&bytes[..], &bytes[..5]].concat()));
        for cut in 0..bytes.len() {
            assert!(!holds_frame(&bytes[..cut]), "cut at {cut}");
        }
    }

    #[test]
    fn client_close_delivers_or_counts_every_frame() {
        // Frames still queued or unacked when close is called are flushed
        // over the live link, never silently lost: delivered + drops == N,
        // and what arrived is the sent prefix, in order.
        const N: usize = 2_000;
        for round in 0..5u8 {
            let server = TcpServer::bind("127.0.0.1:0").unwrap();
            let client = TcpClient::connect(server.local_addr(), TransportConfig::default());
            let payload = |i: usize| vec![round; 1 + i % 64];
            for i in 0..N {
                client.send(FrameKind::Daemon, payload(i)).unwrap();
            }
            client.close();
            assert_eq!(client.backlog(), 0, "close settles every frame");
            let drops = client.stats().drops as usize;
            let got = recv_all(&server, N.saturating_sub(drops), Duration::from_secs(5));
            assert_eq!(
                got.len() + drops,
                N,
                "round {round}: received {} + drops {drops} != sent {N}",
                got.len()
            );
            assert_eq!(client.stats().frames_sent, N as u64);
            for (i, f) in got.iter().enumerate() {
                assert_eq!(f.payload, payload(i), "round {round}: frame {i}");
            }
            assert!(
                client
                    .send(FrameKind::Daemon, vec![0])
                    .is_err_and(|e| e == TransportError::Closed),
                "a closed client refuses sends"
            );
        }
    }
}
