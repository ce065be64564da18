//! Relay failover end to end: re-parenting orphaned subtrees with exact
//! conservation through topology changes.
//!
//! Eight drills, one per adoption path or gap (no double count, no silent
//! gap, through any topology change):
//!
//! * **Grandchild adoption.** In a 3-level tree (leaves → mid relays →
//!   root relay → tool), SIGKILL one mid relay. The root adopts the dead
//!   child's grandchildren from its last topology announcement, seeds
//!   their replay with the exact per-child source marks it folded from
//!   the dead relay's batches, and coverage returns to 4/4 — with
//!   conservation *exact*: every sample every leaf sent is in the tool's
//!   merged stream, zero lost, zero duplicated, clocks still chained.
//! * **Beaconed standby.** A leaf with an ordered standby list loses its
//!   parent, beacons the standby relay, and is dialed back and adopted —
//!   samples keep flowing through the new route with no duplicates.
//! * **A relay's own failover.** In tool → root relay → mid relay →
//!   leaves, SIGKILL the root. The tool adopts the mid relay from the
//!   root's last announcement and seeds it; the mid relay, waiting out its
//!   own failover budget, replays its ring past the seed, and the tool
//!   ends with exactly what the leaves sent.
//! * **Seeded fault plan.** A partition window plus duplicate injection
//!   on an uplink, then a watermark-seeded replay: the sequence watermark
//!   suppresses every transport-level duplicate, the replay fills every
//!   partition-dropped batch, and the session closes conserved.
//! * **A batch of one.** A leaf at the default `batch` sends every sample
//!   as a sequenced, ringed batch of one, so the tail a dead relay never
//!   flushed is replayed to the tool that adopts the leaf.
//! * **Flush before announce.** A relay that dies before it flushes on
//!   its own still delivered every row its topology announcement
//!   counted, so the adopter's prior-delivery credit is never a gap.
//! * **A wait past the stream phase.** A relay whose parent dies while it
//!   lingers waits for adoption there too, and the tool adopts it.
//! * **Adoption while orphaned.** A relay waiting for its own adopter
//!   still adopts the leaf of a child relay that died meanwhile.

use paradyn_tool::daemon::DaemonMsg;
use paradyn_tool::{DaemonSet, DataManager, SupervisorPolicy};
use pdmap::model::Namespace;
use pdmap_transport::{
    send_wire, BatchSample, FaultInjector, FaultPlan, FrameKind, InProcEnd, ReconnectPolicy,
    SampleBatch, TcpClient, Transport, TransportConfig,
};
use pdmapd::{
    spawn, spawn_relay, DaemonConfig, RelayConfig, RunningDaemon, RunningRelay, UpstreamConfig,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A transport that notices a dead peer in ~300 ms instead of seconds.
fn fast_transport() -> TransportConfig {
    TransportConfig {
        liveness_timeout: Duration::from_millis(400),
        heartbeat_every: Duration::from_millis(50),
        reconnect: ReconnectPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
            jitter_seed: 0xFA57,
        },
        ..TransportConfig::default()
    }
}

fn fast_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        degrade_after: Duration::from_millis(200),
        quarantine_after: Duration::from_millis(400),
        retry: ReconnectPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(100),
            jitter_seed: 3,
        },
        retry_sync_rounds: 1,
        retry_sync_timeout: Duration::from_millis(300),
        ..SupervisorPolicy::default()
    }
}

/// A leaf that survives an upstream death: pauses, awaits adoption, and
/// replays its ring to whoever seeds it. `parents` is the ordered standby
/// list it beacons when nobody shows up.
fn failover_leaf(skew_ns: i64, parents: Vec<SocketAddr>) -> RunningDaemon {
    spawn(DaemonConfig {
        upstream: UpstreamConfig {
            skew_ns,
            linger: Duration::from_secs(20),
            parents,
            failover_timeout: Duration::from_secs(10),
            ..UpstreamConfig::default()
        },
        samples: 100_000,
        batch: 4,
        period: Duration::from_millis(1),
        ..DaemonConfig::default()
    })
    .expect("bind leaf")
}

fn relay_over(children: Vec<SocketAddr>, skew_ns: i64) -> RunningRelay {
    spawn_relay(RelayConfig {
        upstream: UpstreamConfig {
            skew_ns,
            linger: Duration::from_secs(20),
            failover_timeout: Duration::from_secs(10),
            ..UpstreamConfig::default()
        },
        children,
        batch: 16,
        flush_interval: Duration::from_millis(2),
        child_transport: fast_transport(),
        ..RelayConfig::default()
    })
    .expect("bind relay")
}

fn tool_over(addrs: &[SocketAddr], shards: usize) -> DaemonSet {
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", shards));
    let mut set = DaemonSet::connect(addrs, fast_transport(), data);
    set.set_policy(fast_policy());
    set
}

#[test]
fn mid_relay_death_reparents_grandchildren_with_exact_conservation() {
    let t_start = pdmap_obs::now_ns();
    // Leaves and relays carry distinct injected skews so the post-adoption
    // clock chain has something real to correct.
    let leaves: Vec<_> = [200_000_000i64, -200_000_000, 300_000_000, -300_000_000]
        .iter()
        .map(|&s| failover_leaf(s, Vec::new()))
        .collect();
    let m1 = relay_over(vec![leaves[0].addr, leaves[1].addr], 150_000_000);
    let m2 = relay_over(vec![leaves[2].addr, leaves[3].addr], -150_000_000);
    let root = relay_over(vec![m1.addr, m2.addr], 80_000_000);
    let mut set = tool_over(&[root.addr], 2);
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    set.pump_until_samples(32, Duration::from_secs(30));

    // The root composes subtree coverage through both mid relays: 4/4.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        set.pump_parallel();
        let cov = set.coverage();
        if (cov.nodes_reporting, cov.nodes_total) == (4, 4) {
            break;
        }
        assert!(Instant::now() < deadline, "tree never reported 4/4");
        std::thread::sleep(Duration::from_millis(2));
    }

    // SIGKILL-equivalent on a mid relay: its two leaves pause, the root
    // adopts them from the dead relay's last topology announcement, and
    // coverage heals back to 4/4 on the same session.
    // The handover may be seamless from the tool's vantage (the root can
    // adopt between two pumps), so the proof of re-parenting is in the
    // end-state reports below — here we only require coverage to settle
    // back at 4/4 and the stream to keep moving.
    let _ = m1.kill();
    let deadline = Instant::now() + Duration::from_secs(25);
    loop {
        set.pump_parallel();
        let cov = set.coverage();
        if (cov.nodes_reporting, cov.nodes_total) == (4, 4) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "subtree never re-parented: {cov}",
            cov = set.coverage()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Give the root's adoption machinery time to complete (notice the
    // dead child, dial the grandchildren, re-sync their clocks, seed the
    // replay) while the surviving subtree keeps streaming.
    let before = set.samples().len();
    let settle = Instant::now() + Duration::from_secs(3);
    while Instant::now() < settle {
        set.pump_parallel();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(set.samples().len() >= before + 16, "stream kept moving");
    let t_end = pdmap_obs::now_ns();

    // Transitive clock chaining survives the handover: the adopted leaves'
    // stamps are now corrected by root-offset + leaf-offset (no dead relay
    // in the chain) and still land inside the tool-clock window.
    let merged = set.merged_samples();
    assert!(merged
        .windows(2)
        .all(|w| w[0].aligned_ns <= w[1].aligned_ns));
    let margin = 100_000_000u64;
    for s in merged.iter() {
        assert!(
            s.aligned_ns + margin >= t_start && s.aligned_ns <= t_end + margin,
            "aligned stamp {} outside tool window [{t_start}, {t_end}]",
            s.aligned_ns
        );
    }

    // Graceful stop: conservation is exact *through the topology change*.
    let cov = set.shutdown_all(Duration::from_secs(15));
    assert_eq!((cov.nodes_reporting, cov.nodes_total), (4, 4));
    assert_eq!(cov.samples_lost, 0, "zero loss across the handover");
    assert!(cov.is_complete());
    let announced = set.conn(0).announced_sent().expect("root said Goodbye");
    assert_eq!(announced, set.conn(0).samples_received());

    let root_rep = root.join().expect("root report");
    assert!(root_rep.parent_connected && root_rep.graceful_shutdown);
    assert_eq!(root_rep.children_adopted, 2, "both grandchildren re-homed");
    assert!(root_rep.epoch >= 1, "adoption bumps the topology epoch");
    assert_eq!(root_rep.samples_lost, 0);
    let m2_rep = m2.join().expect("m2 report");
    assert!(m2_rep.graceful_shutdown);
    assert_eq!(m2_rep.children_adopted, 0);

    // Every sample every leaf sent is in the tool's stream: no double
    // count (replays suppressed by the watermark), no silent gap (the
    // ring replayed the in-flight window past the exact source marks).
    let mut total_sent = 0u64;
    for (i, l) in leaves.into_iter().enumerate() {
        let rep = l.join().expect("leaf report");
        assert!(rep.graceful_shutdown);
        total_sent += u64::from(rep.samples_sent);
        if i < 2 {
            assert_eq!(rep.failovers, 1, "orphaned leaf {i} survived a handover");
            assert!(rep.epoch >= 1);
        } else {
            assert_eq!(rep.failovers, 0, "leaf {i} never lost its parent");
        }
    }
    assert_eq!(
        set.conn(0).samples_received(),
        total_sent,
        "received == sent exactly, through the re-parenting"
    );
}

#[test]
fn beaconed_standby_adopts_an_orphaned_leaf() {
    // Standby relay: no children yet — it idles, serving its parent link,
    // until an orphan's beacon invites it to dial back.
    let standby = relay_over(Vec::new(), 50_000_000);
    // Short failover budget so the beacon goes out quickly after the leaf
    // notices its parent died.
    let leaf = spawn(DaemonConfig {
        upstream: UpstreamConfig {
            linger: Duration::from_secs(20),
            parents: vec![standby.addr],
            failover_timeout: Duration::from_secs(4),
            ..UpstreamConfig::default()
        },
        samples: 100_000,
        batch: 4,
        period: Duration::from_millis(1),
        ..DaemonConfig::default()
    })
    .expect("bind leaf");
    let primary = relay_over(vec![leaf.addr], 0);
    let mut set = tool_over(&[primary.addr, standby.addr], 2);
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");

    // Samples flow through the primary first.
    let deadline = Instant::now() + Duration::from_secs(20);
    while set.conn(0).samples_received() < 8 {
        set.pump_parallel();
        assert!(Instant::now() < deadline, "primary route never delivered");
        std::thread::sleep(Duration::from_millis(2));
    }

    // SIGKILL the primary: the leaf pauses, waits half its budget for an
    // adopter, then beacons the standby, which dials back, syncs clocks,
    // seeds the replay watermark, and forwards on the second tool link.
    let _ = primary.kill();
    let deadline = Instant::now() + Duration::from_secs(30);
    while set.conn(1).samples_received() < 8 {
        set.supervise();
        set.pump_parallel();
        assert!(
            Instant::now() < deadline,
            "standby never took over the stream"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let cov = set.shutdown_all(Duration::from_secs(15));
    // The dead primary's last subtree label (1 node) stays a visible
    // deficit — the standby's adopted leaf reports, the stale label does
    // not. Honest double-entry bookkeeping, never a silent zero.
    assert_eq!((cov.nodes_reporting, cov.nodes_total), (1, 2));

    // No duplicates through the handover: the leaf's values are unique
    // (0, 1, 2, …), so any replay the watermark failed to suppress would
    // show up as a repeated value at the tool.
    let values: Vec<u64> = set.samples().values().iter().map(|&v| v as u64).collect();
    let distinct: std::collections::HashSet<_> = values.iter().copied().collect();
    assert_eq!(values.len(), distinct.len(), "no duplicate samples at tool");

    let leaf_rep = leaf.join().expect("leaf report");
    assert_eq!(leaf_rep.failovers, 1, "leaf survived exactly one handover");
    assert!(leaf_rep.epoch >= 1);
    assert!(leaf_rep.graceful_shutdown);
    let standby_rep = standby.join().expect("standby report");
    assert_eq!(standby_rep.children_adopted, 1, "beacon led to adoption");
    assert!(standby_rep.graceful_shutdown);

    // Conservation with the beacon watermark is conservative: never a
    // duplicate, at worst a labeled loss of the in-flight window that
    // died inside the primary.
    let received = set.conn(0).samples_received() + set.conn(1).samples_received();
    assert!(received <= u64::from(leaf_rep.samples_sent));
    assert!(received >= 16, "both routes contributed");
}

#[test]
fn tool_adopts_a_mid_relay_when_the_root_dies() {
    let leaves: Vec<_> = [120_000_000i64, -120_000_000]
        .iter()
        .map(|&s| failover_leaf(s, Vec::new()))
        .collect();
    let mid = relay_over(vec![leaves[0].addr, leaves[1].addr], 70_000_000);
    let root = relay_over(vec![mid.addr], -50_000_000);
    let mut set = tool_over(&[root.addr], 2);
    set.set_policy(SupervisorPolicy {
        adopt_orphans: true,
        ..fast_policy()
    });
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        set.pump_parallel();
        let cov = set.coverage();
        if (cov.nodes_reporting, cov.nodes_total) == (2, 2) && set.samples().len() >= 16 {
            break;
        }
        assert!(Instant::now() < deadline, "tree never reported 2/2");
        std::thread::sleep(Duration::from_millis(2));
    }

    // SIGKILL the root: the supervisor quarantines it and adopts the mid
    // relay from the root's last announcement, seeded with the source
    // mark the root's batches carried; the stream resumes on the new link.
    let _ = root.kill();
    let deadline = Instant::now() + Duration::from_secs(25);
    loop {
        set.supervise();
        set.pump_parallel();
        let cov = set.coverage();
        if set.reparents().len() == 1
            && set.len() == 2
            && (cov.nodes_reporting, cov.nodes_total) == (2, 2)
            && set.conn(1).samples_received() >= 16
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "mid relay never adopted: {cov}",
            cov = set.coverage()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let cov = set.shutdown_all(Duration::from_secs(15));
    assert_eq!((cov.nodes_reporting, cov.nodes_total), (2, 2));
    assert_eq!(cov.samples_lost, 0, "zero loss across the relay's handover");
    let mid_rep = mid.join().expect("mid report");
    assert_eq!(mid_rep.failovers, 1, "the mid relay was re-seeded once");
    assert!(mid_rep.graceful_shutdown);
    let mut total_sent = 0u64;
    for l in leaves {
        let rep = l.join().expect("leaf report");
        assert!(rep.graceful_shutdown);
        assert_eq!(rep.failovers, 0, "the leaves never lost their parent");
        total_sent += u64::from(rep.samples_sent);
    }
    assert_eq!(
        set.conn(0).samples_received() + set.conn(1).samples_received(),
        total_sent,
        "received == sent exactly, through the relay's re-parenting"
    );
}

#[test]
fn seeded_partition_window_heals_by_replay_without_duplicates() {
    // An in-process uplink with deterministic faults on the sender side:
    // a partition window swallowing a run of batches, plus random
    // duplication — the two failure modes a handover must neutralize.
    let (relay_end, tool_end) = InProcEnd::pair(&TransportConfig::default());
    // The uplink is a TCP stream — in order, no mid-stream holes — so a
    // partition is a *tail* window from the receiver's view: everything
    // after the link went dark vanished until the handover replays it.
    let plan = FaultPlan::parse("seed=11 dup=0.25 partition=6..10").expect("plan");
    let faulty = FaultInjector::wrap(relay_end.clone() as Arc<dyn Transport>, plan);

    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 1));
    let mut set =
        DaemonSet::over_transports(vec![("relay".into(), tool_end as Arc<dyn Transport>)], data);

    // Ten sequenced batches, one unique sample each, through the faults.
    let total = 10u64;
    let mut ring: Vec<SampleBatch> = Vec::new();
    for seq in 1..=total {
        let batch = SampleBatch {
            samples: vec![BatchSample {
                metric: "Computation Time".into(),
                focus: "<whole program>".into(),
                wall: 1_000_000 + seq,
                value: seq as f64,
            }],
            epoch: 0,
            seq,
            sources: Vec::new(),
        };
        ring.push(batch.clone());
        let _ = send_wire(&*faulty as &dyn Transport, &batch);
    }
    set.pump_parallel();
    let stats = faulty.fault_stats();
    assert!(stats.partition_dropped >= 1, "the window dropped something");
    let delivered_first = total - stats.partition_dropped;
    assert_eq!(set.conn(0).samples_received(), delivered_first);
    assert_eq!(
        set.conn(0).replays_suppressed(),
        stats.duplicated,
        "every injected duplicate was suppressed by the seq watermark"
    );

    // Handover: replay the whole ring under a bumped epoch, as a node
    // seeded with watermark 0 does. The receiver keeps exactly the
    // batches the partition ate and suppresses the rest.
    for b in &ring {
        let mut again = b.clone();
        again.epoch = 1;
        send_wire(&*relay_end as &dyn Transport, &again).expect("replay");
    }
    let _ = send_wire(
        &*relay_end as &dyn Transport,
        &DaemonMsg::Goodbye {
            samples_sent: total as u32,
        },
    );
    set.pump_parallel();

    assert_eq!(
        set.conn(0).samples_received(),
        total,
        "replay filled every partition-dropped batch — no silent gap"
    );
    let values: Vec<u64> = set.samples().values().iter().map(|&v| v as u64).collect();
    let distinct: std::collections::HashSet<_> = values.iter().copied().collect();
    assert_eq!(values.len(), distinct.len(), "no double count");
    assert_eq!(
        set.conn(0).replays_suppressed(),
        stats.duplicated + delivered_first,
        "suppressed == injected dups + already-delivered replays, exactly"
    );
    // Conservation closes: the Goodbye announces `total`, all received.
    assert_eq!(set.conn(0).announced_sent(), Some(total));
    let cov = set.coverage();
    assert_eq!(cov.samples_lost, 0);
    assert!(cov.is_complete());
}

/// A leaf at the default `batch` of one row per upward batch, with a
/// failover budget. Its linger outlasts the relay it is about to lose:
/// were its Goodbye to reach the relay first, the relay would flush its
/// whole subtree and exit.
fn batch_of_one_leaf(samples: u32) -> RunningDaemon {
    spawn(DaemonConfig {
        upstream: UpstreamConfig {
            linger: Duration::from_secs(3),
            failover_timeout: Duration::from_secs(10),
            ..UpstreamConfig::default()
        },
        samples,
        period: Duration::from_millis(1),
        ..DaemonConfig::default()
    })
    .expect("bind leaf")
}

/// A relay over `child` whose interval never elapses in a test: it
/// flushes once `batch` rows are pending, or when it announces, which it
/// does once `sync_rounds` probe replies synced the child.
fn slow_relay(child: SocketAddr, batch: u32, sync_rounds: u32) -> RunningRelay {
    spawn_relay(RelayConfig {
        upstream: UpstreamConfig {
            linger: Duration::from_secs(20),
            ..UpstreamConfig::default()
        },
        children: vec![child],
        batch,
        flush_interval: Duration::from_secs(60),
        sync_rounds,
        child_transport: fast_transport(),
        ..RelayConfig::default()
    })
    .expect("bind relay")
}

/// The tool over `relay`, adopting the orphans of a dead relay.
fn adopting_tool(relay: &RunningRelay) -> DaemonSet {
    let mut set = tool_over(&[relay.addr], 2);
    set.set_policy(SupervisorPolicy {
        adopt_orphans: true,
        ..fast_policy()
    });
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    set
}

/// Pumps `set` until `done` holds; panics after 25 s.
fn pump_until(set: &mut DaemonSet, what: &str, done: impl Fn(&DaemonSet) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(25);
    while !done(set) {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        set.supervise();
        set.pump_parallel();
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// SIGKILLs `relay`, lets the tool adopt its one leaf as connection 1,
/// and waits for the leaf's own Goodbye there. Returns the leaf's values
/// as they landed at the tool and its announced count.
fn kill_relay_and_adopt(set: &mut DaemonSet, relay: RunningRelay) -> (Vec<u64>, u64) {
    let _ = relay.kill();
    pump_until(set, "the leaf's Goodbye on an adopted link", |set| {
        set.reparents().len() == 1 && set.len() == 2 && set.conn(1).announced_sent().is_some()
    });
    set.shutdown_all(Duration::from_secs(15));
    let values = set.samples().values().iter().map(|&v| v as u64).collect();
    (values, set.conn(1).announced_sent().expect("Goodbye"))
}

#[test]
fn a_batch_of_one_leaf_replays_the_tail_a_dead_relay_never_flushed() {
    let leaf = batch_of_one_leaf(40);
    // One probe reply ends the child sync, so at most a few rows are
    // pending when the relay announces (and flushes). After that it
    // flushes every 16 rows: the tool holds 32 and more once two such
    // flushes landed, and the tail after them waits for a flush that
    // never comes.
    let relay = slow_relay(leaf.addr, 16, 1);
    let mut set = adopting_tool(&relay);
    pump_until(&mut set, "32 of the leaf's rows at the tool", |set| {
        set.conn(0).samples_received() >= 32
    });

    let (mut values, sent) = kill_relay_and_adopt(&mut set, relay);
    assert_eq!(sent, 40);
    assert_eq!(
        set.conn(1).samples_lost(),
        0,
        "the adopted leaf replayed the tail: nothing lost"
    );
    values.sort_unstable();
    assert_eq!(
        values,
        (0..40).collect::<Vec<u64>>(),
        "each value landed exactly once"
    );
    let rep = leaf.join().expect("leaf report");
    assert_eq!(rep.failovers, 1, "the leaf was adopted once");
    assert!(rep.batches_replayed > 0, "the tail came from the ring");
    assert_eq!(rep.samples_sent, 40);
}

#[test]
fn a_relay_announces_no_row_it_has_not_delivered() {
    let leaf = batch_of_one_leaf(40);
    // The relay never flushes on its own: only its announcement can. A
    // reply waits for a leaf poll (one per sample), so eight of them
    // leave rows pending when the sync ends and the relay announces.
    let relay = slow_relay(leaf.addr, 1_000, 8);
    let mut set = adopting_tool(&relay);
    pump_until(&mut set, "the relay's announcement", |set| {
        set.conn(0).topology().is_some()
    });
    let counted = set.conn(0).topology().expect("announcement").children[0].received;
    assert!(counted > 0, "rows were pending when the relay announced");

    let (values, sent) = kill_relay_and_adopt(&mut set, relay);
    assert_eq!(sent, 40);
    let distinct: std::collections::HashSet<_> = values.iter().copied().collect();
    assert_eq!(values.len(), distinct.len(), "no value landed twice");
    assert_eq!(
        values.len() as u64 + set.conn(1).samples_lost(),
        sent,
        "every value the leaf announced landed once or is counted lost"
    );
    assert!(
        set.conn(0).samples_received() >= counted,
        "the relay delivered every row its announcement counted"
    );
    leaf.join().expect("leaf report");
}

#[test]
fn a_relay_whose_parent_dies_while_it_lingers_is_adopted() {
    let leaf = spawn(DaemonConfig {
        upstream: UpstreamConfig {
            linger: Duration::from_millis(300),
            ..UpstreamConfig::default()
        },
        samples: 10,
        period: Duration::from_millis(1),
        ..DaemonConfig::default()
    })
    .expect("bind leaf");
    // The mid relay's threshold and interval never trip: it announces
    // (and flushes) once the leaf's first probe reply synced it, and the
    // rest of its rows wait for the flush that follows its drain.
    let mid = spawn_relay(RelayConfig {
        upstream: UpstreamConfig {
            linger: Duration::from_secs(20),
            failover_timeout: Duration::from_secs(10),
            ..UpstreamConfig::default()
        },
        children: vec![leaf.addr],
        batch: 1_000,
        flush_interval: Duration::from_secs(60),
        sync_rounds: 1,
        child_transport: fast_transport(),
        ..RelayConfig::default()
    })
    .expect("bind mid relay");
    let root = relay_over(vec![mid.addr], 0);
    let mut set = adopting_tool(&root);
    pump_until(&mut set, "the leaf's 10 samples at the tool", |set| {
        set.conn(0).samples_received() >= 10
    });

    // The tail reached the tool, so the mid relay's subtree is done and
    // the mid relay is past its stream phase. Its parent dies now.
    let _ = root.kill();
    // A relay announces its topology on every seed: the adopter's link
    // carries one only once the mid relay was seeded.
    pump_until(&mut set, "the mid relay adopted and seeded", |set| {
        set.reparents().len() == 1 && set.len() == 2 && set.conn(1).topology().is_some()
    });

    let cov = set.shutdown_all(Duration::from_secs(15));
    assert_eq!((cov.nodes_reporting, cov.nodes_total), (1, 1));
    assert_eq!(cov.samples_lost, 0, "nothing lost across the handover");
    assert_eq!(set.conn(1).announced_sent(), Some(10));
    let mid_rep = mid.join().expect("mid report");
    assert_eq!(mid_rep.failovers, 1, "the mid relay was seeded once");
    assert!(mid_rep.graceful_shutdown);
    assert!(leaf.join().expect("leaf report").graceful_shutdown);
}

#[test]
fn an_orphaned_relay_still_adopts_its_dead_child_relays_leaf() {
    let leaf = failover_leaf(0, Vec::new());
    let lower = relay_over(vec![leaf.addr], 0);
    let upper = spawn_relay(RelayConfig {
        upstream: UpstreamConfig {
            failover_timeout: Duration::from_secs(5),
            ..UpstreamConfig::default()
        },
        children: vec![lower.addr],
        batch: 16,
        flush_interval: Duration::from_millis(2),
        child_transport: fast_transport(),
        ..RelayConfig::default()
    })
    .expect("bind upper relay");
    // A bare parent: it answers nothing and only watches the stream.
    let parent = TcpClient::connect(upper.addr, TransportConfig::default());
    // The lower relay sends its topology before its second batch, and the
    // upper relay never splits a batch it folds across two of its own, so
    // once two batches reach the parent the upper relay holds that
    // topology.
    let deadline = Instant::now() + Duration::from_secs(25);
    let mut batches = 0;
    while batches < 2 {
        match parent.try_recv() {
            Ok(Some(f)) => batches += usize::from(f.kind == FrameKind::SampleBatch),
            _ => {
                assert!(Instant::now() < deadline, "no batches reached the parent");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    // The upper relay is orphaned; then its child relay dies too.
    parent.close();
    let _ = lower.kill();
    // Nobody adopts the upper relay: it ends once its budget is spent.
    let rep = upper.join().expect("upper report");
    assert_eq!(
        rep.children_adopted, 1,
        "the orphaned relay adopted its dead child relay's leaf"
    );
    leaf.stop();
    let leaf_rep = leaf.join().expect("leaf report");
    assert_eq!(leaf_rep.failovers, 1, "the leaf was adopted once");
}
