//! `ingest` and `relay_wide`: seeded leaf streams landing at the tool.
//!
//! One generator thread plays every leaf: during set-up it ships the
//! compiled program's PIF and answers clock probes; in the timed window it
//! pushes pre-encoded frames as fast as Block backpressure admits; then
//! each leaf says Goodbye. The tool's calling thread connects, syncs
//! clocks, drains with the production `pump_until_samples`, and asks for
//! `merged_streams` and `session_coverage`. No machine ever runs.
//!
//! * `ingest` — 4 in-process links, 1,024-sample `SampleBatch` frames over
//!   48 keys: the tool-side spine (decode, skew alignment, shard landing,
//!   merge, sort, per-key grouping) is the whole cost.
//! * `relay_wide` — TCP, 2,048 keys. Leaf A sends 256-sample batches
//!   through an in-process `pdmapd` relay with the default `RelayConfig`;
//!   leaf B sends loose `DaemonMsg::Sample` frames straight to the tool,
//!   the shape of `pdmapd --batch 1`.

use crate::gen::{self, Key, Row};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Mode;
use paradyn_tool::daemon::DaemonMsg;
use paradyn_tool::{DaemonSet, DataManager, Stream};
use pdmap::model::Namespace;
use pdmap_transport::{
    send_wire, Backend, BatchSample, Frame, FrameKind, PifBlob, SampleBatch, TcpServer, Transport,
    TransportConfig, WirePayload,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Ingest,
    RelayWide,
}

/// Base of every leaf's synthetic clock, so negative skews stay positive.
const CLOCK_BASE_NS: u64 = 1_000_000_000;
/// Clock-probe rounds per link during set-up.
const SYNC_ROUNDS: u32 = 5;
/// Bound on each wait for the fleet (sync, set-up, landing, Goodbyes).
const WAIT: Duration = Duration::from_secs(30);
/// `session_coverage` calls after each session, by workload: a scan of
/// every landed sample, about 15 ms over `ingest`'s 2M samples and 1 ms
/// over `relay_wide`'s 330K. A run times at least 120, enough for p90 to
/// have ten samples beyond it.
fn query_block(shape: Shape) -> usize {
    match shape {
        Shape::Ingest => 40,
        Shape::RelayWide => 120,
    }
}
/// Fewest timed sessions per run and mode, whatever the time budget.
const MIN_SESSIONS: usize = 3;

/// One leaf's pre-encoded stream.
struct LeafPlan {
    frames: Vec<Frame>,
    per_frame: u64,
    samples: u64,
    skew: i64,
}

/// Everything the generator synthesises, outside every timed window.
struct Plan {
    keys: Vec<Key>,
    pif: Vec<u8>,
    leaves: Vec<LeafPlan>,
    /// Send order: `(leaf, frame)`.
    schedule: Vec<(usize, usize)>,
    reference: Vec<(u64, f64)>,
    total: u64,
    encode_ns: u64,
    compile_ms: f64,
}

fn plan(shape: Shape, seed: u64) -> Plan {
    let t0 = Instant::now();
    let ns = Namespace::new();
    let compiled = cmf_lang::compile(&gen::program(seed), &ns, &Default::default())
        .expect("generated program compiles");
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pif = compiled.pif_text.into_bytes();
    let (keys, layout): (_, &[(usize, usize, bool)]) = match shape {
        // (frames, samples per frame, batched) per leaf.
        Shape::Ingest => (gen::keys(seed, 6, 8), &[(512, 1024, true); 4]),
        Shape::RelayWide => (
            gen::keys(seed, 16, 128),
            &[(1024, 256, true), (65_536, 1, false)],
        ),
    };
    let skews = gen::skews(seed, layout.len());
    let mut reference = vec![(0u64, 0.0f64); keys.len()];
    let mut encode_ns = 0u64;
    let mut leaves = Vec::new();
    for (leaf, &(frames, per, batched)) in layout.iter().enumerate() {
        let rows = gen::rows(
            seed,
            leaf,
            frames * per,
            keys.len(),
            CLOCK_BASE_NS,
            skews[leaf],
        );
        for row in &rows {
            let r = &mut reference[row.key as usize];
            r.0 += 1;
            r.1 += row.value;
        }
        let encoded = rows
            .chunks(per)
            .enumerate()
            .map(|(i, chunk)| encode(&keys, chunk, batched, i as u64 + 1, &mut encode_ns))
            .collect();
        leaves.push(LeafPlan {
            frames: encoded,
            per_frame: per as u64,
            samples: rows.len() as u64,
            skew: skews[leaf],
        });
    }
    // Interleave so every leaf streams for the whole window.
    let longest = leaves.iter().map(|l| l.frames.len()).max().unwrap_or(0);
    let mut schedule = Vec::new();
    let mut next = vec![0usize; leaves.len()];
    for step in 0..longest {
        for (leaf, l) in leaves.iter().enumerate() {
            let due = (step + 1) * l.frames.len() / longest;
            while next[leaf] < due {
                schedule.push((leaf, next[leaf]));
                next[leaf] += 1;
            }
        }
    }
    let total = leaves.iter().map(|l| l.samples).sum();
    Plan {
        keys,
        pif,
        leaves,
        schedule,
        reference,
        total,
        encode_ns,
        compile_ms,
    }
}

fn encode(keys: &[Key], rows: &[Row], batched: bool, seq: u64, ns: &mut u64) -> Frame {
    if !batched {
        let [row] = rows else {
            panic!("a loose frame carries one sample")
        };
        let (metric, focus) = &keys[row.key as usize];
        return DaemonMsg::Sample {
            metric: metric.to_string(),
            focus: focus.to_string(),
            wall: row.wall,
            value: row.value,
        }
        .to_frame();
    }
    let batch = SampleBatch {
        samples: rows
            .iter()
            .map(|r| BatchSample {
                metric: keys[r.key as usize].0.clone(),
                focus: keys[r.key as usize].1.clone(),
                wall: r.wall,
                value: r.value,
            })
            .collect(),
        epoch: 1,
        seq,
        sources: Vec::new(),
    };
    let t0 = Instant::now();
    let frame = batch.to_frame();
    *ns += t0.elapsed().as_nanos() as u64;
    frame
}

/// A leaf's end of its link; TCP leaves keep their server to see the
/// peer connect.
struct Leaf {
    tx: Arc<dyn Transport>,
    server: Option<Arc<TcpServer>>,
    skew: i64,
}

impl Leaf {
    fn connected(&self) -> bool {
        self.server.as_ref().is_none_or(|s| s.connections() > 0)
    }

    /// Answers queued clock probes from the leaf's skewed clock.
    fn answer_probes(&self) {
        while let Ok(Some(frame)) = self.tx.try_recv() {
            if let Ok(DaemonMsg::ClockProbe { token, t_tool_ns }) = DaemonMsg::from_frame(&frame) {
                let t_daemon_ns =
                    (pdmap_obs::now_ns() as i64 + CLOCK_BASE_NS as i64 + self.skew) as u64;
                let _ = send_wire(
                    &*self.tx,
                    &DaemonMsg::ClockReply {
                        token,
                        t_tool_ns,
                        t_daemon_ns,
                    },
                );
            }
        }
    }
}

/// What the generator thread did in one session.
#[derive(Default)]
struct Sent {
    samples: Vec<u64>,
    send_ns: u64,
    errors: Vec<String>,
}

/// The generator thread: set-up service until `go`, then the stream, then
/// a Goodbye per leaf.
fn generate(
    plan: &Plan,
    leaves: &[Leaf],
    mut payloads: Vec<Vec<u8>>,
    go: &AtomicBool,
    abort: &AtomicBool,
    tracer: &Tracer,
    group: u64,
) -> Sent {
    let mut sent = Sent {
        samples: vec![0; leaves.len()],
        ..Sent::default()
    };
    let mut pif_sent = vec![false; leaves.len()];
    while !go.load(Ordering::Acquire) {
        if abort.load(Ordering::Acquire) {
            return sent;
        }
        for (i, leaf) in leaves.iter().enumerate() {
            if !pif_sent[i] && leaf.connected() {
                pif_sent[i] = send_wire(&*leaf.tx, &PifBlob(plan.pif.clone())).is_ok();
            }
            leaf.answer_probes();
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    tracer.span("bench.generator", None, group, |id| {
        for (k, &(leaf, frame)) in plan.schedule.iter().enumerate() {
            let kind = plan.leaves[leaf].frames[frame].kind;
            let payload = std::mem::take(&mut payloads[k]);
            let t0 = Instant::now();
            let out = tracer.span("transport.send", id, group, |_| {
                leaves[leaf].tx.send(kind, payload)
            });
            sent.send_ns += t0.elapsed().as_nanos() as u64;
            if let Err(e) = out {
                // A torn link: the rest of the stream is never sent, and
                // the landing check counts it as failed.
                sent.errors
                    .push(format!("leaf {leaf} frame {frame}: send failed: {e}"));
                break;
            }
            sent.samples[leaf] += plan.leaves[leaf].per_frame;
        }
    });
    for (i, leaf) in leaves.iter().enumerate() {
        let goodbye = DaemonMsg::Goodbye {
            samples_sent: sent.samples[i] as u32,
        };
        if let Err(e) = send_wire(&*leaf.tx, &goodbye) {
            sent.errors.push(format!("leaf {i}: Goodbye failed: {e}"));
        }
    }
    sent
}

/// One session's figures.
#[derive(Default)]
struct Session {
    setup_s: f64,
    window_s: f64,
    clock_sync_ms: f64,
    send_ms: f64,
    max_queue_depth: u64,
    drain_busy_ns: u64,
    pumps: u64,
    empty_pumps: u64,
    lock_wait_ms: f64,
    shard_skew: f64,
    merge_ms: f64,
    streams_ms: f64,
    coverage_ms: f64,
    bytes_received: u64,
    relay: Option<pdmapd::RelayReport>,
    query_ms: Vec<f64>,
}

/// The production `pump_until_samples` loop with each `pump_parallel`
/// call timed: the traced twin of the untraced drain.
fn traced_drain(
    set: &mut DaemonSet,
    want: usize,
    tracer: &Tracer,
    parent: Option<u32>,
    group: u64,
    s: &mut Session,
) {
    let deadline = Instant::now() + WAIT;
    let mut spins = 0u32;
    loop {
        let t0 = Instant::now();
        let got = tracer.span("daemonset.pump_parallel", parent, group, |_| {
            set.pump_parallel()
        });
        s.pumps += 1;
        if got == 0 {
            s.empty_pumps += 1;
        } else {
            s.drain_busy_ns += t0.elapsed().as_nanos() as u64;
        }
        if set.samples().len() >= want || Instant::now() >= deadline {
            return;
        }
        if got > 0 {
            spins = 0;
        } else if spins < 64 {
            spins += 1;
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Pumps until `done` holds or [`WAIT`] passes; false on timeout.
fn pump_until(set: &mut DaemonSet, mut done: impl FnMut(&DaemonSet) -> bool) -> bool {
    let deadline = Instant::now() + WAIT;
    loop {
        set.pump_parallel();
        if done(set) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn session(
    shape: Shape,
    plan: &Plan,
    mode: Mode,
    tracer: &Tracer,
    group: u64,
    r: &mut Report,
) -> Session {
    let payloads: Vec<Vec<u8>> = plan
        .schedule
        .iter()
        .map(|&(leaf, frame)| plan.leaves[leaf].frames[frame].payload.clone())
        .collect();
    let cfg = TransportConfig::default();
    // Leaf sockets belong to the generator, so they are bound before the
    // tool's set-up clock starts.
    let servers: Vec<Arc<TcpServer>> = match shape {
        Shape::Ingest => Vec::new(),
        Shape::RelayWide => (0..plan.leaves.len())
            .map(|_| TcpServer::bind("127.0.0.1:0").expect("bind a loopback leaf"))
            .collect(),
    };
    let go = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let mut s = Session::default();

    let setup_t0 = Instant::now();
    let setup_span = tracer.open("bench.setup", None, group);
    let (leaves, mut set, relay) = tracer.span("daemonset.connect", setup_span, group, |_| {
        let data = Arc::new(DataManager::sharded(
            Namespace::new(),
            "CM Fortran",
            plan.leaves.len(),
        ));
        match shape {
            Shape::Ingest => {
                let mut leaves = Vec::new();
                let mut tool_ends = Vec::new();
                for (i, l) in plan.leaves.iter().enumerate() {
                    let link = Backend::InProc.link(&cfg);
                    tool_ends.push((format!("leaf#{i}"), link.client));
                    leaves.push(Leaf {
                        tx: link.server,
                        server: None,
                        skew: l.skew,
                    });
                }
                (leaves, DaemonSet::over_transports(tool_ends, data), None)
            }
            Shape::RelayWide => {
                let relay = pdmapd::spawn_relay(pdmapd::RelayConfig {
                    children: vec![servers[0].local_addr()],
                    ..pdmapd::RelayConfig::default()
                })
                .expect("spawn the relay");
                let set = DaemonSet::connect(&[relay.addr, servers[1].local_addr()], cfg, data);
                let leaves = servers
                    .iter()
                    .zip(&plan.leaves)
                    .map(|(srv, l)| Leaf {
                        tx: srv.clone() as Arc<dyn Transport>,
                        server: Some(srv.clone()),
                        skew: l.skew,
                    })
                    .collect::<Vec<_>>();
                (leaves, set, Some(relay))
            }
        }
    });

    std::thread::scope(|scope| {
        let generator =
            scope.spawn(|| generate(plan, &leaves, payloads, &go, &abort, tracer, group));
        let t0 = Instant::now();
        let synced = tracer.span("daemonset.clock_sync", setup_span, group, |_| {
            set.clock_sync(SYNC_ROUNDS, WAIT)
        });
        s.clock_sync_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = synced {
            r.fail(0, format!("session {group}: {e}"));
        }
        // Set-up ends when every link has shipped its PIF and the relay
        // has synced its child and reported its subtree.
        let ready = tracer.span("daemonset.pump_parallel", setup_span, group, |_| {
            pump_until(&mut set, |set| {
                (0..set.len()).all(|i| set.conn(i).pif_imports() > 0)
                    && (shape == Shape::Ingest || set.conn(0).subtree_coverage().is_some())
            })
        });
        r.check(ready, 0, || {
            format!("session {group}: fleet set-up timed out")
        });
        s.setup_s = setup_t0.elapsed().as_secs_f64();
        tracer.close(setup_span);
        if !ready {
            abort.store(true, Ordering::Release);
            let _ = generator.join();
            if let Some(relay) = relay {
                let _ = relay.kill();
            }
            return;
        }

        let want = plan.total as usize;
        let t0 = Instant::now();
        go.store(true, Ordering::Release);
        let (streams, coverage) = tracer.span("bench.session", None, group, |id| {
            if mode == Mode::Traced {
                tracer.span("daemonset.pump_until_samples", id, group, |id| {
                    traced_drain(&mut set, want, tracer, id, group, &mut s)
                });
            } else {
                set.pump_until_samples(want, WAIT);
            }
            let t1 = Instant::now();
            let streams = tracer.span("daemonset.merged_streams", id, group, |_| {
                set.merged_streams()
            });
            let t2 = Instant::now();
            let coverage = tracer.span("daemonset.session_coverage", id, group, |_| {
                set.session_coverage()
            });
            s.streams_ms = (t2 - t1).as_secs_f64() * 1e3;
            s.coverage_ms = t2.elapsed().as_secs_f64() * 1e3;
            (streams, coverage)
        });
        s.window_s = t0.elapsed().as_secs_f64();

        // A window that timed out can leave the generator blocked on a full
        // queue: keep draining, and close the links if it still hangs.
        let deadline = Instant::now() + WAIT;
        while !generator.is_finished() && Instant::now() < deadline {
            set.pump_parallel();
            std::thread::sleep(Duration::from_millis(1));
        }
        if !generator.is_finished() {
            r.fail(
                0,
                format!("session {group}: generator stalled; links closed"),
            );
            for leaf in &leaves {
                leaf.tx.close();
            }
        }
        let sent = generator.join().expect("generator thread");
        s.send_ms = sent.send_ns as f64 / 1e6;
        for e in &sent.errors {
            r.fail(0, format!("session {group}: {e}"));
        }
        let block = query_block(shape);
        for i in 0..block {
            let q = 1_000_000 + group * block as u64 + i as u64;
            let t0 = Instant::now();
            tracer.span("bench.query", None, q, |id| {
                tracer.span("daemonset.session_coverage", id, q, |_| {
                    set.session_coverage()
                })
            });
            s.query_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }

        // After the window: collect the Goodbyes (asking the relay to skip
        // its linger) and check what landed.
        if relay.is_some() {
            set.shutdown(0);
        }
        let said_goodbye = pump_until(&mut set, |set| {
            (0..set.len()).all(|i| set.conn(i).announced_sent().is_some())
        });
        r.check(said_goodbye, 0, || {
            format!("session {group}: Goodbyes timed out")
        });
        if let Some(relay) = relay {
            match relay.join() {
                Ok(report) => s.relay = Some(report),
                Err(e) => r.fail(0, format!("session {group}: relay: {e}")),
            }
        }
        let t0 = Instant::now();
        let merged = set.merged_samples();
        s.merge_ms = t0.elapsed().as_secs_f64() * 1e3;
        check(
            plan, &set, &sent, &streams, &merged, coverage, s.relay, group, r,
        );

        let shards: Vec<_> = (0..set.data().shard_count())
            .map(|k| set.data().shard_stats(k))
            .collect();
        s.lock_wait_ms = shards.iter().map(|st| st.lock_wait_ns).sum::<u64>() as f64 / 1e6;
        let most = shards.iter().map(|st| st.samples).max().unwrap_or(0);
        let least = shards.iter().map(|st| st.samples).min().unwrap_or(0);
        s.shard_skew = most as f64 / least.max(1) as f64;
        for i in 0..set.len() {
            let st = set.conn(i).transport_stats();
            s.bytes_received += st.bytes_received;
            s.max_queue_depth = s.max_queue_depth.max(st.max_queue_depth);
        }
        for leaf in &leaves {
            s.max_queue_depth = s.max_queue_depth.max(leaf.tx.stats().max_queue_depth);
        }
    });
    for leaf in &leaves {
        leaf.tx.close();
    }
    s
}

/// The output checks of one session; every missing sample is a failed
/// operation, with its cause.
#[allow(clippy::too_many_arguments)]
fn check(
    plan: &Plan,
    set: &DaemonSet,
    sent: &Sent,
    streams: &[Stream],
    merged: &[paradyn_tool::AlignedSample],
    coverage: paradyn_tool::SessionCoverage,
    relay: Option<pdmapd::RelayReport>,
    group: u64,
    r: &mut Report,
) {
    let landed = set.samples().len() as u64;
    r.check(landed == plan.total, plan.total.abs_diff(landed), || {
        format!("session {group}: {landed} of {} samples landed", plan.total)
    });
    for i in 0..set.len() {
        let conn = set.conn(i);
        let want = sent.samples[i];
        r.check(conn.samples_received() == want, 0, || {
            format!(
                "session {group}: link {i} received {} of {want}",
                conn.samples_received()
            )
        });
        // A rejected frame costs exactly the samples it carried, which the
        // landing checks count; its cause is recorded either way.
        for e in conn.decode_errors() {
            r.reject(format!("session {group}: link {i} rejected a frame: {e:?}"));
        }
    }
    let cov = set.coverage();
    r.check(
        coverage.coverage.is_complete() && cov.is_complete() && cov.samples_lost == 0,
        cov.samples_lost,
        || {
            format!(
                "session {group}: coverage {} at the window's end, {cov} after Goodbye",
                coverage.coverage
            )
        },
    );
    if let Some(report) = relay {
        r.check(report.samples_forwarded == sent.samples[0], 0, || {
            format!(
                "session {group}: relay forwarded {} of leaf A's {}",
                report.samples_forwarded, sent.samples[0]
            )
        });
    }
    r.check(
        merged
            .windows(2)
            .all(|w| w[0].aligned_ns <= w[1].aligned_ns),
        0,
        || format!("session {group}: merged order decreases in aligned time"),
    );
    if let Err((ops, cause)) = check_keys(&plan.keys, &plan.reference, streams) {
        r.fail(ops, format!("session {group}: {cause}"));
    }
}

/// Per-key counts and sums of `streams` against the reference computed
/// from the generator's rows. `Err` carries the samples in error and why.
fn check_keys(
    keys: &[Key],
    reference: &[(u64, f64)],
    streams: &[Stream],
) -> Result<(), (u64, String)> {
    let index: HashMap<(&str, &str), usize> = keys
        .iter()
        .enumerate()
        .map(|(i, (m, f))| ((&**m, &**f), i))
        .collect();
    let mut got = vec![(0u64, 0.0f64); keys.len()];
    let mut bad = 0u64;
    let mut causes = Vec::new();
    for st in streams {
        match index.get(&(st.metric.as_str(), st.focus.as_str())) {
            Some(&k) => {
                got[k].0 += st.samples.len() as u64;
                got[k].1 += st.samples.iter().map(|&(_, v)| v).sum::<f64>();
                if st.samples.windows(2).any(|w| w[0].0 > w[1].0) {
                    causes.push(format!(
                        "stream ({}, {}) is out of order",
                        st.metric, st.focus
                    ));
                }
            }
            None => {
                bad += st.samples.len() as u64;
                causes.push(format!("unknown key ({}, {})", st.metric, st.focus));
            }
        }
    }
    for (k, (want, have)) in reference.iter().zip(&got).enumerate() {
        if want.0 != have.0 || want.1 != have.1 {
            bad += want.0.abs_diff(have.0).max(1);
            causes.push(format!(
                "key ({}, {}): {} samples summing to {} vs reference {} summing to {}",
                keys[k].0, keys[k].1, have.0, have.1, want.0, want.1
            ));
        }
    }
    if causes.is_empty() {
        Ok(())
    } else {
        causes.truncate(4);
        Err((bad, causes.join("; ")))
    }
}

pub fn run(shape: Shape, seed: u64, budget: Duration, tracer: &Tracer, r: &mut Report) {
    let plan = plan(shape, seed);
    let start = Instant::now();
    let modes: &[Mode] = if tracer.on() {
        &[Mode::Plain, Mode::Traced, Mode::ObsOff]
    } else {
        &[Mode::Plain]
    };
    let quiet = Tracer::new(false);
    // The first session warms caches and the allocator: its outputs are
    // checked, its times are not kept.
    let mut sessions: Vec<(Mode, Session)> = Vec::new();
    while sessions.len() <= MIN_SESSIONS * modes.len() || start.elapsed() < budget {
        let mode = modes[sessions.len() % modes.len()];
        pdmap_obs::set_enabled(mode != Mode::ObsOff);
        let t = if mode == Mode::Traced { tracer } else { &quiet };
        let s = session(shape, &plan, mode, t, sessions.len() as u64, r);
        pdmap_obs::set_enabled(true);
        if sessions.is_empty() {
            r.set("peak_rss_mb", crate::report::peak_rss_mb());
        }
        r.attempted += plan.total;
        sessions.push((mode, s));
    }
    let timed = &sessions[1..];
    let all =
        |f: &dyn Fn(&Session) -> f64| -> Vec<f64> { timed.iter().map(|(_, s)| f(s)).collect() };
    let queries: Vec<f64> = timed
        .iter()
        .filter(|(m, _)| *m == Mode::Plain)
        .flat_map(|(_, s)| s.query_ms.iter().copied())
        .collect();
    r.set("setup_s", median(&all(&|s| s.setup_s)));
    r.set("verdict_s", median(&all(&|s| s.window_s)));
    r.set(
        "samples_per_s",
        median(&all(&|s| plan.total as f64 / s.window_s)),
    );
    r.set_queries(&queries);
    r.fact("sessions", sessions.len() as f64);
    r.fact("samples_per_session", plan.total as f64);
    r.fact("keys", plan.keys.len() as f64);

    if tracer.on() {
        let traced: Vec<&Session> = timed
            .iter()
            .filter(|(m, _)| *m == Mode::Traced)
            .map(|(_, s)| s)
            .collect();
        let med =
            |f: &dyn Fn(&Session) -> f64| median(&traced.iter().map(|s| f(s)).collect::<Vec<_>>());
        let frame_bytes: usize = plan
            .leaves
            .iter()
            .flat_map(|l| &l.frames)
            .map(|f| f.payload.len())
            .sum();
        let batched: u64 = plan
            .leaves
            .iter()
            .filter(|l| {
                l.frames
                    .first()
                    .is_some_and(|f| f.kind == FrameKind::SampleBatch)
            })
            .map(|l| l.samples)
            .sum();
        r.set("cmf.compile_ms", plan.compile_ms);
        r.set(
            "wire.encode_ns_per_sample",
            plan.encode_ns as f64 / batched.max(1) as f64,
        );
        r.set(
            "wire.bytes_per_sample",
            med(&|s| s.bytes_received as f64 / plan.total as f64),
        );
        r.set("transport.send_ms", med(&|s| s.send_ms));
        r.set(
            "transport.max_queue_depth",
            med(&|s| s.max_queue_depth as f64),
        );
        r.set("daemonset.clock_sync_ms", med(&|s| s.clock_sync_ms));
        r.set(
            "daemonset.drain_ns_per_sample",
            med(&|s| s.drain_busy_ns as f64 / plan.total as f64),
        );
        r.set(
            "daemonset.empty_pump_ratio",
            med(&|s| s.empty_pumps as f64 / s.pumps.max(1) as f64),
        );
        r.set("datamgr.lock_wait_ms", med(&|s| s.lock_wait_ms));
        r.set("datamgr.shard_skew", med(&|s| s.shard_skew));
        r.set("daemonset.merge_ms", med(&|s| s.merge_ms));
        r.set("daemonset.streams_ms", med(&|s| s.streams_ms));
        r.set("daemonset.coverage_ms", med(&|s| s.coverage_ms));
        if shape == Shape::RelayWide {
            let relay =
                |f: &dyn Fn(&pdmapd::RelayReport) -> f64| med(&|s| s.relay.as_ref().map_or(0.0, f));
            r.set(
                "relay.samples_per_batch",
                relay(&|rep| rep.samples_forwarded as f64 / rep.batches_sent.max(1) as f64),
            );
            r.set(
                "relay.forwarded",
                relay(&|rep| rep.samples_forwarded as f64),
            );
        }
        r.fact("frame_payload_bytes", frame_bytes as f64);
        crate::overheads(
            r,
            &timed
                .iter()
                .map(|(m, s)| (*m, s.window_s))
                .collect::<Vec<_>>(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Vec<Key>, Vec<(u64, f64)>, Vec<Stream>) {
        let keys = gen::keys(5, 2, 2);
        let rows = gen::rows(5, 0, 64, keys.len(), 0, 0);
        let mut reference = vec![(0u64, 0.0f64); keys.len()];
        let mut streams: Vec<Stream> = keys
            .iter()
            .map(|(m, f)| Stream {
                metric: m.to_string(),
                focus: f.to_string(),
                units: String::new(),
                samples: Vec::new(),
            })
            .collect();
        for row in &rows {
            reference[row.key as usize].0 += 1;
            reference[row.key as usize].1 += row.value;
            streams[row.key as usize]
                .samples
                .push((row.wall, row.value));
        }
        (keys, reference, streams)
    }

    #[test]
    fn reference_check_accepts_the_generated_stream() {
        let (keys, reference, streams) = fixture();
        assert_eq!(check_keys(&keys, &reference, &streams), Ok(()));
    }

    #[test]
    fn reference_check_rejects_a_dropped_sample() {
        let (keys, reference, mut streams) = fixture();
        streams[1].samples.pop();
        assert!(check_keys(&keys, &reference, &streams).is_err());
    }

    #[test]
    fn reference_check_rejects_a_duplicated_sample() {
        let (keys, reference, mut streams) = fixture();
        let dup = streams[2].samples[0];
        streams[2].samples.insert(0, dup);
        assert!(check_keys(&keys, &reference, &streams).is_err());
    }

    #[test]
    fn reference_check_rejects_a_rekeyed_sample() {
        let (keys, reference, mut streams) = fixture();
        // Move one sample to another key: both keys' counts go wrong even
        // though the total is unchanged.
        let moved = streams[0].samples.pop().expect("key 0 has samples");
        streams[3].samples.push(moved);
        streams[3].samples.sort_by_key(|&(t, _)| t);
        let (bad, cause) = check_keys(&keys, &reference, &streams).unwrap_err();
        assert_eq!(bad, 2, "{cause}");
    }

    #[test]
    fn schedule_interleaves_every_frame_exactly_once() {
        let p = plan(Shape::RelayWide, 1);
        assert_eq!(p.schedule.len(), 1024 + 65_536);
        let a: Vec<usize> = p
            .schedule
            .iter()
            .filter(|s| s.0 == 0)
            .map(|s| s.1)
            .collect();
        assert_eq!(a, (0..1024).collect::<Vec<_>>());
        assert_eq!(p.total, 262_144 + 65_536);
    }
}
