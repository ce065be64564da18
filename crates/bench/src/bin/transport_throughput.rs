//! Transport throughput measurement: frames/sec and bytes/sec for both
//! backends across a queue-depth sweep, printed as JSON to stdout.
//!
//! ```sh
//! cargo run -p pdmap-bench --release --bin transport_throughput
//! cargo run -p pdmap-bench --release --bin transport_throughput -- 200 64,256
//! ```
//!
//! Arg 1 (optional): per-cell measurement budget in milliseconds (default
//! 100). Arg 2 (optional): comma-separated queue capacities to sweep
//! (default `16,64,256,1024`). The workload is a sender thread pushing
//! fixed-size [`PifBlob`] frames as fast as the bounded queue admits them
//! (Block backpressure — nothing drops, so frames/sec measures true
//! end-to-end delivery) while the main thread drains the other end. Every
//! capacity runs client → server over both backends, and server → client
//! over TCP: the direction every `pdmapd` link streams in, where the
//! server's outbox, not the queue capacity, bounds what is in flight.
//! Each TCP cell prints `frames_per_write`, the sender's frames sent per
//! socket write: the mean burst.
//!
//! Each cell also reports `frame_type_latency_ns`: the pdmap-obs receive
//! latency histogram per frame type, diffed across the cell so concurrent
//! cells don't pollute each other. A final `drop_window` section runs a
//! deliberately overloaded `DropOldest` link and feeds its rising
//! [`TransportStats::drops`](pdmap_transport::TransportStats::drops) into
//! an [`AdaptiveSampler`], printing the
//! interval trajectory (multiplicative back-off, additive recovery) and
//! the `sent == delivered + drops` conservation check.

use pdmap_obs::{AdaptiveSampler, HistogramSnapshot, SamplerConfig};
use pdmap_transport::{
    drain_frames, send_wire, Backend, Backpressure, FrameKind, PifBlob, TransportConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAYLOAD_LEN: usize = 128;

/// Snapshots the per-frame-type receive-latency histograms, in
/// [`FrameKind::ALL`] order.
fn recv_hist_snaps() -> Vec<(&'static str, HistogramSnapshot)> {
    FrameKind::ALL
        .iter()
        .map(|k| {
            let h = pdmap_obs::histogram(&format!("transport.recv_ns.{}", k.name()));
            (k.name(), h.snapshot())
        })
        .collect()
}

/// Renders one histogram as a JSON object with stable keys.
fn latency_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .iter()
        .map(|&(lo, c)| format!("[{lo},{c}]"))
        .collect();
    format!(
        concat!(
            "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},",
            "\"p99_ns\":{},\"max_ns\":{},\"buckets\":[{}]}}"
        ),
        h.count,
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
        h.max,
        buckets.join(",")
    )
}

/// Which end of the link sends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    ClientToServer,
    ServerToClient,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::ClientToServer => "client_to_server",
            Direction::ServerToClient => "server_to_client",
        }
    }
}

struct Cell {
    backend: &'static str,
    direction: Direction,
    capacity: usize,
    frames: u64,
    bytes: u64,
    elapsed: Duration,
    max_queue_depth: u64,
    /// The sender's frames per socket write (TCP only).
    frames_per_write: Option<f64>,
    /// Per-frame-type receive latency recorded during this cell only.
    recv_latency: Vec<(&'static str, HistogramSnapshot)>,
}

impl Cell {
    fn frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.elapsed.as_secs_f64()
    }

    fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.elapsed.as_secs_f64()
    }

    fn json(&self) -> String {
        let latency: Vec<String> = self
            .recv_latency
            .iter()
            .map(|(kind, h)| format!("\"{}\":{}", kind, latency_json(h)))
            .collect();
        let per_write = self
            .frames_per_write
            .map_or(String::new(), |r| format!("\"frames_per_write\":{r:.2},"));
        format!(
            concat!(
                "{{\"backend\":\"{}\",\"direction\":\"{}\",\"queue_capacity\":{},",
                "\"frames\":{},\"wire_bytes\":{},\"elapsed_ms\":{:.3},",
                "\"frames_per_sec\":{:.1},\"bytes_per_sec\":{:.1},",
                "\"max_queue_depth\":{},{}\"frame_type_latency_ns\":{{{}}}}}"
            ),
            self.backend,
            self.direction.name(),
            self.capacity,
            self.frames,
            self.bytes,
            self.elapsed.as_secs_f64() * 1e3,
            self.frames_per_sec(),
            self.bytes_per_sec(),
            self.max_queue_depth,
            per_write,
            latency.join(","),
        )
    }
}

/// Runs one (backend, direction, capacity) cell for roughly `budget`,
/// returning the measured delivery rate.
fn run_cell(backend: Backend, direction: Direction, capacity: usize, budget: Duration) -> Cell {
    let cfg = TransportConfig::with_capacity(capacity);
    let link = backend.link(&cfg);
    let (tx, rx) = match direction {
        Direction::ClientToServer => (&link.client, &link.server),
        Direction::ServerToClient => (&link.server, &link.client),
    };
    let stop = Arc::new(AtomicBool::new(false));
    let before = recv_hist_snaps();

    let sender = {
        let tx = Arc::clone(tx);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let blob = PifBlob(vec![0xAB; PAYLOAD_LEN]);
            while !stop.load(Ordering::Relaxed) {
                if send_wire(tx.as_ref(), &blob).is_err() {
                    break;
                }
            }
        })
    };

    let start = Instant::now();
    let mut frames = 0u64;
    while start.elapsed() < budget {
        let drained = drain_frames(rx.as_ref());
        if drained.is_empty() {
            std::thread::yield_now();
        }
        frames += drained.len() as u64;
    }
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    // Unblock a sender stuck on a full queue, then drain its tail so the
    // thread can observe the stop flag and exit.
    for f in drain_frames(rx.as_ref()) {
        drop(f);
    }
    sender.join().expect("sender thread must not panic");

    let stats = tx.stats();
    link.close();
    let recv_latency: Vec<(&'static str, HistogramSnapshot)> = before
        .iter()
        .zip(recv_hist_snaps())
        .filter_map(|((name, b), (_, a))| {
            let d = a.minus(b);
            (d.count > 0).then_some((*name, d))
        })
        .collect();
    Cell {
        backend: match backend {
            Backend::InProc => "inproc",
            Backend::Tcp => "tcp",
        },
        direction,
        capacity,
        frames,
        bytes: frames * (PAYLOAD_LEN as u64 + 4), // put::bytes length prefix
        elapsed,
        max_queue_depth: stats.max_queue_depth,
        frames_per_write: (backend == Backend::Tcp)
            .then(|| stats.frames_sent as f64 / stats.writes.max(1) as f64),
        recv_latency,
    }
}

struct DropWindowReport {
    sent: u64,
    delivered: u64,
    drops: u64,
    conservation_ok: bool,
    config: SamplerConfig,
    final_interval: u64,
    windows: Vec<pdmap_obs::SamplerWindow>,
}

impl DropWindowReport {
    fn json(&self) -> String {
        let windows: Vec<String> = self
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{{\"drops_total\":{},\"drops_delta\":{},\"interval\":{}}}",
                    w.drops_total, w.drops_delta, w.interval
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"backend\":\"inproc\",\"queue_capacity\":4,",
                "\"backpressure\":\"drop_oldest\",",
                "\"sent\":{},\"delivered\":{},\"drops\":{},",
                "\"conservation_ok\":{},",
                "\"sampler\":{{\"base_interval\":{},\"max_interval\":{},",
                "\"final_interval\":{},\"windows\":[{}]}}}}"
            ),
            self.sent,
            self.delivered,
            self.drops,
            self.conservation_ok,
            self.config.base_interval,
            self.config.max_interval,
            self.final_interval,
            windows.join(","),
        )
    }
}

/// Overloads a tiny `DropOldest` link while nobody drains it, sampling the
/// drop counter into an [`AdaptiveSampler`]; then drains everything and
/// lets the sampler observe the now-quiet link so the interval recovers.
fn run_drop_window(budget: Duration) -> DropWindowReport {
    let cfg = TransportConfig::with_capacity(4).backpressure(Backpressure::DropOldest);
    let link = Backend::InProc.link(&cfg);
    let stop = Arc::new(AtomicBool::new(false));
    let sender = {
        let client = Arc::clone(&link.client);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let blob = PifBlob(vec![0xCD; PAYLOAD_LEN]);
            while !stop.load(Ordering::Relaxed) {
                if send_wire(client.as_ref(), &blob).is_err() {
                    break;
                }
            }
        })
    };

    let config = SamplerConfig {
        base_interval: 1,
        max_interval: 64,
        increase_factor: 2,
        decrease_step: 8,
    };
    let mut sampler = AdaptiveSampler::new(config);
    // Baseline window, then the congestion phase proper.
    sampler.observe_drops(link.client.stats().drops);
    // Congestion phase: the queue holds 4 frames and nobody drains it, so
    // DropOldest evicts continuously. Each window closes once fresh drops
    // have landed (bounded by `pause` against a descheduled sender), so
    // the trajectory shows the full multiplicative ramp.
    let deadline = Instant::now() + budget;
    let pause = (budget / 8).max(Duration::from_millis(1));
    let mut last_drops = link.client.stats().drops;
    while Instant::now() < deadline && sampler.interval() < config.max_interval {
        let window_start = Instant::now();
        loop {
            let d = link.client.stats().drops;
            if d > last_drops || window_start.elapsed() > pause {
                last_drops = d;
                break;
            }
            // Sleep, don't spin: on a single core a spinning observer
            // starves the sender and no drops ever land in the window.
            std::thread::sleep(Duration::from_micros(50));
        }
        sampler.observe_drops(last_drops);
    }
    stop.store(true, Ordering::Relaxed);
    sender.join().expect("sender thread must not panic");

    while !drain_frames(link.server.as_ref()).is_empty() {}
    // Recovery phase: the link is quiet, so each clean window walks the
    // interval back down additively until it reaches base again.
    for _ in 0..32 {
        if sampler.interval() == config.base_interval {
            break;
        }
        sampler.observe_drops(link.client.stats().drops);
    }

    let sent_stats = link.client.stats();
    let recv_stats = link.server.stats();
    link.close();
    DropWindowReport {
        sent: sent_stats.frames_sent,
        delivered: recv_stats.frames_received,
        drops: sent_stats.drops,
        conservation_ok: sent_stats.frames_sent == recv_stats.frames_received + sent_stats.drops,
        config,
        final_interval: sampler.interval(),
        windows: sampler.windows().to_vec(),
    }
}

/// Parses `s`, or prints the usage line to stderr and exits 2.
fn parse_or_exit<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{what} must be an integer, got {s:?}");
        eprintln!("usage: transport_throughput [budget_ms] [cap1,cap2,...]");
        std::process::exit(2);
    })
}

fn main() {
    let budget_ms: u64 = std::env::args()
        .nth(1)
        .map_or(100, |s| parse_or_exit(&s, "budget_ms"));
    let capacities: Vec<usize> = std::env::args().nth(2).map_or_else(
        || vec![16, 64, 256, 1024],
        |s| {
            s.split(',')
                .map(|c| parse_or_exit(c, "each capacity"))
                .collect()
        },
    );
    let budget = Duration::from_millis(budget_ms);

    let mut cells = Vec::new();
    for (backend, direction) in [
        (Backend::InProc, Direction::ClientToServer),
        (Backend::Tcp, Direction::ClientToServer),
        (Backend::Tcp, Direction::ServerToClient),
    ] {
        for &capacity in &capacities {
            cells.push(run_cell(backend, direction, capacity, budget));
        }
    }
    let drop_window = run_drop_window(budget);

    println!("{{");
    println!("  \"payload_len\": {PAYLOAD_LEN},");
    println!("  \"budget_ms\": {budget_ms},");
    println!("  \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        println!("    {}{}", cell.json(), comma);
    }
    println!("  ],");
    println!("  \"drop_window\": {}", drop_window.json());
    println!("}}");
}
