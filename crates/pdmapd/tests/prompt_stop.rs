//! A stop request ends a node promptly, whatever phase it is in.
//!
//! * **A wire Shutdown during the adoption wait.** A leaf whose parent
//!   died is waiting to be adopted; a client that dials in and sends
//!   `Shutdown` gets the Goodbye at once, not after the leaf's linger.
//! * **The stop flag during a relay's linger.** `RunningRelay::stop`
//!   drains the subtree and sends the final flush without waiting out
//!   the linger.
//!
//! Each linger is far longer than the bound the test allows, so a node
//! that lingers anyway fails the test instead of slowing it.

use paradyn_tool::daemon::DaemonMsg;
use paradyn_tool::{DaemonSet, DataManager};
use pdmap::model::Namespace;
use pdmap_transport::{
    send_wire, Frame, FrameKind, TcpClient, TcpServer, Transport, TransportConfig, WirePayload,
};
use pdmapd::{spawn, spawn_relay, DaemonConfig, RelayConfig, UpstreamConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Receives on `t` until a frame satisfies `want`; false once `within`
/// has passed without one.
fn await_frame(t: &dyn Transport, within: Duration, want: impl Fn(&Frame) -> bool) -> bool {
    let deadline = Instant::now() + within;
    while Instant::now() < deadline {
        match t.try_recv() {
            Ok(Some(f)) if want(&f) => return true,
            Ok(Some(_)) => {}
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    false
}

fn is_goodbye(f: &Frame) -> bool {
    matches!(DaemonMsg::from_frame(f), Ok(DaemonMsg::Goodbye { .. }))
}

#[test]
fn wire_shutdown_during_the_adoption_wait_ends_the_leaf_at_once() {
    let standby = TcpServer::bind("127.0.0.1:0").expect("bind standby");
    let leaf = spawn(DaemonConfig {
        upstream: UpstreamConfig {
            linger: Duration::from_secs(30),
            parents: vec![standby.local_addr()],
            failover_timeout: Duration::from_secs(8),
            ..UpstreamConfig::default()
        },
        samples: 100_000,
        batch: 4,
        period: Duration::from_millis(1),
        ..DaemonConfig::default()
    })
    .expect("bind leaf");

    // The first parent sees the stream start, then goes away.
    let first = TcpClient::connect(leaf.addr, TransportConfig::default());
    assert!(
        await_frame(&*first, Duration::from_secs(30), |f| f.kind
            == FrameKind::SampleBatch),
        "the leaf never streamed"
    );
    first.close();

    // The beacon proves the leaf is in its adoption wait.
    assert!(
        await_frame(&*standby, Duration::from_secs(30), |f| f.kind
            == FrameKind::Topology),
        "the leaf never beaconed its standby"
    );

    // A client dials in and asks the orphan to shut down.
    let second = TcpClient::connect(leaf.addr, TransportConfig::default());
    send_wire(&*second as &dyn Transport, &DaemonMsg::Shutdown).expect("queue shutdown");
    assert!(
        await_frame(&*second, Duration::from_secs(5), is_goodbye),
        "no Goodbye within 5 s of the Shutdown (the linger is 30 s)"
    );
    let rep = leaf.join().expect("leaf report");
    assert!(rep.graceful_shutdown);
    assert_eq!(rep.failovers, 0, "nobody adopted the leaf");
}

#[test]
fn stop_ends_a_lingering_relay_at_once() {
    let leaf = spawn(DaemonConfig {
        samples: 100_000,
        batch: 4,
        period: Duration::from_millis(1),
        ..DaemonConfig::default()
    })
    .expect("bind leaf");
    let relay = spawn_relay(RelayConfig {
        upstream: UpstreamConfig {
            linger: Duration::from_secs(20),
            ..UpstreamConfig::default()
        },
        children: vec![leaf.addr],
        ..RelayConfig::default()
    })
    .expect("bind relay");
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 1));
    let mut set = DaemonSet::connect(&[relay.addr], TransportConfig::default(), data);
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    assert!(
        set.pump_until_samples(8, Duration::from_secs(15)) >= 8,
        "samples flow through the relay"
    );

    let t0 = Instant::now();
    relay.stop();
    let rep = relay.join().expect("relay report");
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "stop took {took:?} against a 20 s linger"
    );
    assert!(rep.graceful_shutdown);
    assert_eq!(rep.child_goodbyes, 1, "the subtree was drained first");
    assert!(leaf.join().expect("leaf report").graceful_shutdown);
}
