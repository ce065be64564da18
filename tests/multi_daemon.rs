//! Multi-daemon session integration: N daemons (threaded `pdmapd`
//! instances speaking real TCP) feeding one tool through the public API —
//! clock alignment under injected skew, sharded concurrent import/deliver,
//! and the per-shard observability exports.

use paradyn_tool::{export_shard_obs, DaemonMsg, DaemonSet, DataManager};
use pdmap::model::Namespace;
use pdmap_transport::{
    send_wire, Backend, FaultDecision, FaultInjector, FaultPlan, Transport, TransportConfig,
    WirePayload,
};
use pdmapd::{DaemonConfig, UpstreamConfig, CLOCK_BASE_NS};
use std::sync::Arc;
use std::time::Duration;

fn session(skews: &[i64], samples: u32) -> (DaemonSet, Vec<pdmapd::RunningDaemon>) {
    let daemons: Vec<_> = skews
        .iter()
        .map(|&skew_ns| {
            pdmapd::spawn(DaemonConfig {
                upstream: UpstreamConfig {
                    skew_ns,
                    linger: Duration::from_secs(3),
                    ..UpstreamConfig::default()
                },
                samples,
                period: Duration::from_millis(4),
                ..DaemonConfig::default()
            })
            .expect("bind daemon listener")
        })
        .collect();
    let addrs: Vec<_> = daemons.iter().map(|d| d.addr).collect();
    let data = Arc::new(DataManager::sharded(
        Namespace::new(),
        "CM Fortran",
        skews.len(),
    ));
    let mut set = DaemonSet::connect(&addrs, TransportConfig::default(), data);
    set.clock_sync(5, Duration::from_secs(10))
        .expect("all daemons answer clock probes");
    (set, daemons)
}

#[test]
fn two_daemon_merge_is_ordered_under_50ms_skew() {
    // ±50 ms injected skew: raw wall stamps from the two daemons disagree
    // by ~100 ms while real sends are ~4 ms apart, so only a correct
    // offset estimate can interleave the merge.
    let skews = [50_000_000i64, -50_000_000];
    let (mut set, daemons) = session(&skews, 6);
    assert_eq!(set.pump_until_samples(12, Duration::from_secs(10)), 12);

    // The daemons share this process's clock, so the recovered offset is
    // CLOCK_BASE_NS + skew up to the rtt-bounded estimate error.
    for (i, &skew) in skews.iter().enumerate() {
        let c = set.conn(i).clock();
        let err = (c.offset_ns - CLOCK_BASE_NS as i64 - skew).unsigned_abs();
        assert!(
            err <= c.rtt_ns / 2 + 5_000_000,
            "daemon {i}: recovered {} vs injected {skew} (rtt {})",
            c.offset_ns,
            c.rtt_ns
        );
    }

    let merged = set.merged_samples();
    assert_eq!(merged.len(), 12);
    assert!(
        merged
            .windows(2)
            .all(|w| w[0].aligned_ns <= w[1].aligned_ns),
        "merged stream must be nondecreasing in aligned time"
    );
    // Within each daemon the send order (sample value) survives the merge.
    for d in 0..2 {
        let vals: Vec<f64> = merged
            .iter()
            .filter(|s| s.daemon == d)
            .map(|s| s.value)
            .collect();
        assert!(vals.windows(2).all(|w| w[0] < w[1]), "daemon {d}: {vals:?}");
    }
    // And the raw walls really were ~100 ms apart — the skew did happen.
    let wall_gap = merged
        .iter()
        .filter(|s| s.daemon == 0)
        .map(|s| s.wall)
        .min()
        .unwrap() as i64
        - merged
            .iter()
            .filter(|s| s.daemon == 1)
            .map(|s| s.wall)
            .max()
            .unwrap() as i64;
    assert!(
        wall_gap > 50_000_000,
        "raw walls must show the skew (gap {wall_gap})"
    );
    for d in daemons {
        assert!(d.join().expect("daemon report").tool_connected);
    }
}

#[test]
fn four_daemons_import_and_deliver_into_parallel_shards() {
    let (mut set, daemons) = session(&[0, 0, 0, 0], 4);
    set.pump_until_samples(16, Duration::from_secs(10));

    // Static mappings arrived over the wire (PIF blobs) exactly once in
    // the shared catalogue, but every daemon's shipment was counted on its
    // own shard.
    assert!(set.data().with_mappings(|m| m.len()) > 0);
    let axis = set.data().render_where_axis();
    assert!(
        axis.contains("CMFarrays") && axis.contains("sub#0"),
        "{axis}"
    );

    for i in 0..4 {
        let st = set.data().shard_stats(i);
        assert!(st.imports > 0, "shard {i} imported");
        assert_eq!(st.samples, 4, "shard {i} delivered");
        assert!(set.conn(i).decode_errors().is_empty());
    }
    // The per-shard counters surface through the generated MDL catalogue.
    let rows = export_shard_obs(set.data());
    assert_eq!(rows.len(), 4 * 3);
    assert!(rows
        .iter()
        .filter(|(m, _)| m.name.ends_with("samples"))
        .all(|&(_, v)| v == 4));
    for d in daemons {
        let _ = d.join();
    }
}

#[test]
fn partition_loss_obeys_the_conservation_law() {
    // A fake daemon sends through a FaultInjector whose plan carves a
    // partition window out of the send sequence, then announces its send
    // count with a Goodbye. The books must close exactly:
    //
    //   announced == received + samples_lost
    //   samples_lost == injector.partition_dropped
    //
    // No silent zero: the partitioned frames show up as labeled loss, not
    // as a smaller-but-complete-looking measurement.
    let plan = FaultPlan::parse("seed=42 partition=8..16").expect("plan parses");
    assert_eq!(
        plan,
        FaultPlan {
            seed: 42,
            partitions: vec![(8, 16)],
            ..FaultPlan::none()
        },
        "the plan grammar is byte-reproducible"
    );

    let cfg = TransportConfig::default();
    let link = Backend::InProc.link(&cfg);
    let injector = FaultInjector::wrap(link.server.clone(), plan);
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 1));
    let mut set = DaemonSet::over_transports(vec![("fake#0".into(), link.client)], data);

    // Clock sync first: with 3 rounds the replies occupy injector indices
    // 0..3, clear of the partition window at [8, 16).
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let answerer = &injector;
        let stop_ref = &stop;
        s.spawn(move || {
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                while let Ok(Some(frame)) = answerer.try_recv() {
                    if let Ok(DaemonMsg::ClockProbe { token, t_tool_ns }) =
                        DaemonMsg::from_frame(&frame)
                    {
                        let _ = send_wire(
                            &**answerer,
                            &DaemonMsg::ClockReply {
                                token,
                                t_tool_ns,
                                t_daemon_ns: pdmap_obs::now_ns(),
                            },
                        );
                    }
                }
                std::thread::yield_now();
            }
        });
        set.clock_sync(3, Duration::from_secs(5)).expect("sync");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // 20 samples through the partition, then the announcement.
    const SENT: u32 = 20;
    for i in 0..SENT {
        send_wire(
            &*injector,
            &DaemonMsg::Sample {
                metric: "cpu".into(),
                focus: "/".into(),
                wall: pdmap_obs::now_ns(),
                value: f64::from(i),
            },
        )
        .expect("send through injector");
    }
    send_wire(&*injector, &DaemonMsg::Goodbye { samples_sent: SENT }).expect("goodbye");

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while set.conn(0).announced_sent().is_none() && std::time::Instant::now() < deadline {
        set.pump_parallel();
        std::thread::yield_now();
    }
    assert_eq!(set.conn(0).announced_sent(), Some(u64::from(SENT)));

    // The injector's own books balance, and its fault log is exactly the
    // partition window — reproducible from the seed, frame for frame.
    let stats = injector.fault_stats();
    assert!(stats.conservation_ok(), "{stats:?}");
    assert!(
        stats.partition_dropped > 0,
        "the window must have eaten sends"
    );
    assert_eq!(
        injector.fault_log(),
        (8..16)
            .map(|i| (i, FaultDecision::Partitioned))
            .collect::<Vec<_>>()
    );

    // The tool's books balance against the announcement: every announced
    // sample is either received or counted lost, and the loss equals what
    // the injector ate.
    let received = set.conn(0).samples_received();
    let cov = set.coverage();
    assert_eq!(
        u64::from(SENT),
        received + cov.samples_lost,
        "announced == received + lost ({cov})"
    );
    assert_eq!(cov.samples_lost, stats.partition_dropped);
    assert!(!cov.is_complete() || cov.samples_lost == 0);
    assert_eq!(
        set.merged_samples().coverage().samples_lost,
        cov.samples_lost
    );
}
