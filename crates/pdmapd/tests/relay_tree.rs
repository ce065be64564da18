//! Two-level relay trees end to end: leaves → relays → tool.
//!
//! Three properties are on trial (ISSUE: hierarchical aggregation must be
//! transparent to the analyses upstream):
//!
//! * **Conservation.** After a graceful stop, `announced == received +
//!   lost` holds exactly at the root — every sample a leaf sent is either
//!   in the tool's merged stream or accounted lost, through two levels of
//!   batching and forwarding.
//! * **Transitive clocks.** Leaves and relays carry distinct injected
//!   skews (hundreds of ms); forwarded stamps must land on the tool clock
//!   within probe-RTT error, proving child-offset + relay-offset chaining.
//! * **Coverage degradation.** Killing a leaf costs exactly one node of
//!   `Coverage.nodes_reporting`; killing a relay costs its whole subtree —
//!   never a silent zero either way.
//! * **No stranded tail.** A partial batch still pending when the subtree
//!   finishes is sent at once, not after the relay's linger.

use paradyn_tool::{DaemonSet, DataManager, SupervisorPolicy};
use pdmap::model::Namespace;
use pdmap_transport::{ReconnectPolicy, TransportConfig};
use pdmapd::{
    spawn, spawn_relay, DaemonConfig, RelayConfig, RunningDaemon, RunningRelay, UpstreamConfig,
};
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

fn leaf(skew_ns: i64, samples: u32) -> RunningDaemon {
    spawn(DaemonConfig {
        upstream: UpstreamConfig {
            skew_ns,
            linger: Duration::from_secs(20),
            ..UpstreamConfig::default()
        },
        samples,
        batch: 4,
        period: Duration::from_millis(1),
        ..DaemonConfig::default()
    })
    .expect("bind leaf")
}

fn relay_over(children: &[&RunningDaemon], skew_ns: i64) -> RunningRelay {
    spawn_relay(RelayConfig {
        upstream: UpstreamConfig {
            skew_ns,
            linger: Duration::from_secs(20),
            ..UpstreamConfig::default()
        },
        children: children.iter().map(|d| d.addr).collect(),
        batch: 16,
        flush_interval: Duration::from_millis(2),
        child_transport: fast_transport(),
        ..RelayConfig::default()
    })
    .expect("bind relay")
}

/// Builds the standard 2×2 tree and a tool session over the relay layer.
fn tree_2x2(
    leaf_skews: [i64; 4],
    relay_skews: [i64; 2],
    samples: u32,
) -> (Vec<RunningDaemon>, Vec<RunningRelay>, DaemonSet) {
    let leaves: Vec<_> = leaf_skews.iter().map(|&s| leaf(s, samples)).collect();
    let relays = vec![
        relay_over(&[&leaves[0], &leaves[1]], relay_skews[0]),
        relay_over(&[&leaves[2], &leaves[3]], relay_skews[1]),
    ];
    let addrs: Vec<_> = relays.iter().map(|r| r.addr).collect();
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 2));
    let mut set = DaemonSet::connect(&addrs, fast_transport(), data);
    set.set_policy(fast_policy());
    (leaves, relays, set)
}

/// Pumps until both relay connections have delivered a subtree report.
fn await_subtree_reports(set: &mut DaemonSet) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        set.pump_parallel();
        if (0..2).all(|i| set.conn(i).subtree_coverage().is_some()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("relays never reported subtree coverage");
}

#[test]
fn two_level_tree_conserves_samples_and_chains_clocks() {
    let t_start = pdmap_obs::now_ns();
    let (leaves, relays, mut set) = tree_2x2(
        [200_000_000, -200_000_000, 300_000_000, -300_000_000],
        [150_000_000, -150_000_000],
        12,
    );
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    let total = 4 * 12;
    assert_eq!(
        set.pump_until_samples(total, Duration::from_secs(30)),
        total,
        "every leaf sample reaches the root through two levels of batching"
    );
    await_subtree_reports(&mut set);
    let t_end = pdmap_obs::now_ns();

    // Coverage composed from the relays' reports: 4 leaves, all reporting.
    let cov = set.coverage();
    assert_eq!((cov.nodes_reporting, cov.nodes_total), (4, 4));

    // Transitive clock chaining: every aligned stamp lands inside the
    // experiment's tool-clock window (±100 ms for probe error), while the
    // injected skews are 150–300 ms — an unchained stamp would miss by at
    // least one skew, an unrewritten one by the whole 1 s clock base.
    let merged = set.merged_samples();
    assert_eq!(merged.len(), total);
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

    // Mapping information reaches the tool only through the relays: the
    // leaves' PIF places their arrays under the program, and the arrays'
    // allocations add one subregion per leaf node.
    let axis = set.data().render_where_axis();
    let subs: String = (0..4).map(|n| format!("        sub#{n}\n")).collect();
    let arrays = format!("CMFarrays\n  hpfex.fcm\n    HPFEX\n      A\n{subs}      B\n{subs}");
    assert!(axis.contains(&arrays), "where axis:\n{axis}");

    // Graceful stop: conservation is exact at the root.
    let cov = set.shutdown_all(Duration::from_secs(15));
    assert_eq!((cov.nodes_reporting, cov.nodes_total), (4, 4));
    assert_eq!(cov.samples_lost, 0, "nothing lost on the graceful path");
    assert!(cov.is_complete());
    let mut forwarded = 0;
    for i in 0..2 {
        let announced = set.conn(i).announced_sent().expect("relay said Goodbye");
        assert_eq!(
            announced,
            set.conn(i).samples_received(),
            "relay {i}: announced == received + lost with lost == 0"
        );
        forwarded += announced;
        assert_eq!(
            set.conn(i).decode_errors(),
            &[],
            "relay {i}: every forwarded frame decodes"
        );
    }
    assert_eq!(forwarded, total as u64, "the tree forwarded every sample");

    for r in relays {
        let rep = r.join().expect("relay report");
        assert!(rep.parent_connected && rep.graceful_shutdown);
        assert_eq!(rep.children_synced, 2);
        assert_eq!(rep.child_goodbyes, 2);
        assert_eq!(rep.samples_lost, 0);
        assert!(rep.batches_sent <= rep.samples_forwarded / 2);
    }
    for l in leaves {
        let rep = l.join().expect("leaf report");
        assert!(rep.graceful_shutdown);
        assert_eq!(rep.samples_sent, 12);
        assert!(rep.batches_sent >= 3, "leaf sent batched frames");
    }
}

#[test]
fn killing_a_leaf_costs_exactly_one_reporting_node() {
    let (mut leaves, relays, mut set) = tree_2x2([0, 0, 0, 0], [0, 0], 100_000);
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    set.pump_until_samples(16, Duration::from_secs(30));
    await_subtree_reports(&mut set);
    assert_eq!(set.coverage().nodes_reporting, 4);

    // SIGKILL-equivalent on one leaf: its relay must notice, degrade its
    // subtree report by exactly one, and the root must see 3/4.
    let _ = leaves.remove(0).kill();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        set.pump_parallel();
        let cov = set.coverage();
        if (cov.nodes_reporting, cov.nodes_total) == (3, 4) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leaf death never surfaced: {cov}",
            cov = set.coverage()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The surviving subtree keeps streaming through the same session.
    let before = set.samples().len();
    set.pump_until_samples(before + 8, Duration::from_secs(15));
    assert!(set.samples().len() >= before + 8);

    let cov = set.shutdown_all(Duration::from_secs(15));
    assert_eq!(
        (cov.nodes_reporting, cov.nodes_total),
        (3, 4),
        "the dead leaf stays a visible deficit through shutdown"
    );
    for r in relays {
        r.stop();
        let _ = r.join();
    }
    for l in leaves {
        l.stop();
        let _ = l.join();
    }
}

#[test]
fn killing_a_relay_darkens_its_whole_subtree() {
    let (leaves, mut relays, mut set) = tree_2x2([0, 0, 0, 0], [0, 0], 100_000);
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    set.pump_until_samples(16, Duration::from_secs(30));
    await_subtree_reports(&mut set);
    assert_eq!(set.coverage().nodes_reporting, 4);

    // SIGKILL-equivalent on a relay: the tool quarantines the link and the
    // whole 2-leaf subtree leaves coverage at once — 2/4, not 3/4.
    let _ = relays.remove(0).kill();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        set.supervise();
        set.pump_parallel();
        let cov = set.coverage();
        if (cov.nodes_reporting, cov.nodes_total) == (2, 4) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "relay death never surfaced: {cov}",
            cov = set.coverage()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let cov = set.shutdown_all(Duration::from_secs(15));
    assert_eq!((cov.nodes_reporting, cov.nodes_total), (2, 4));
    for r in relays {
        r.stop();
        let _ = r.join();
    }
    for l in leaves {
        l.stop();
        let _ = l.join();
    }
}

#[test]
fn relay_sends_its_tail_before_lingering() {
    // The leaf's 10 samples never fill the relay's 1000-sample batch, and
    // its 60 s flush interval never elapses: only the end of the subtree
    // can send them, and it must do so before the 30 s linger.
    let leaf = spawn(DaemonConfig {
        upstream: UpstreamConfig {
            linger: Duration::from_millis(300),
            ..UpstreamConfig::default()
        },
        samples: 10,
        batch: 4,
        period: Duration::from_millis(1),
        ..DaemonConfig::default()
    })
    .expect("bind leaf");
    let relay = spawn_relay(RelayConfig {
        upstream: UpstreamConfig {
            linger: Duration::from_secs(30),
            ..UpstreamConfig::default()
        },
        children: vec![leaf.addr],
        batch: 1000,
        flush_interval: Duration::from_secs(60),
        child_transport: fast_transport(),
        ..RelayConfig::default()
    })
    .expect("bind relay");
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 1));
    let mut set = DaemonSet::connect(&[relay.addr], fast_transport(), data);
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    assert_eq!(
        set.pump_until_samples(10, Duration::from_secs(10)),
        10,
        "the tail lands within 10 s"
    );
    assert_eq!(
        set.conn(0).announced_sent(),
        None,
        "the relay is still lingering: its Goodbye has not been sent"
    );

    // Cut the linger short; the ledger still closes.
    let cov = set.shutdown_all(Duration::from_secs(15));
    assert_eq!(cov.samples_lost, 0);
    assert_eq!(set.conn(0).announced_sent(), Some(10));
    let rep = relay.join().expect("relay report");
    assert!(rep.graceful_shutdown);
    assert_eq!(rep.samples_forwarded, 10);
    assert_eq!(rep.decode_errors, 0);
    assert!(leaf.join().expect("leaf report").graceful_shutdown);
}
