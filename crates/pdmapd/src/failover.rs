//! Upstream failover machinery shared by leaves and relays.
//!
//! A node that streams upward (leaf daemon or relay) owns an [`Uplink`]:
//! the monotonic topology **epoch** and batch **sequence** stamped into
//! every upward batch, plus a bounded **replay ring** of recent
//! batches. When the upstream link dies, the node pauses upward sends and
//! waits to be adopted: a new parent (the tool's supervisor, the dead
//! parent's parent, or a standby relay from `--parent`) dials the node's
//! listen socket, completes the usual clock sync, and sends a
//! [`TopologyMsg`] **watermark seed** naming the node and the highest
//! batch sequence the adopting side has already folded in. The node bumps
//! its epoch and replays exactly the ring suffix past the watermark — no
//! double count, no silent gap, and the receiver's sequence watermark
//! suppresses anything replayed twice.
//!
//! When nobody adopts the node within half its failover budget, it
//! **beacons**: a short-lived dial to each standby parent carrying a
//! [`TopologyMsg`] that names its own listen address and delivered
//! watermark, inviting the standby to dial back and adopt it.

use pdmap_transport::{
    send_wire, BatchColumns, TcpClient, TopoChild, TopologyMsg, Transport, TransportConfig,
};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Watermark value meaning "the adopter has no history for this node —
/// replay from your own delivered watermark" (a standby relay that never
/// saw the orphan before, as opposed to a parent seeding exact marks).
pub const WATERMARK_UNKNOWN: u64 = u64::MAX;

/// The upward-streaming state of one node: epoch, batch sequence, the
/// replay ring, and the delivered-watermark bookkeeping.
pub(crate) struct Uplink {
    /// Current topology epoch; bumped on every re-parenting handover.
    pub epoch: u64,
    /// Last batch sequence stamped (1-based; 0 = nothing sent yet).
    pub seq: u64,
    /// Highest sequence whose send was accepted by a live connection.
    pub delivered_seq: u64,
    /// Cumulative samples in batches through `delivered_seq`.
    pub delivered_samples: u64,
    cap: usize,
    ring: VecDeque<BatchColumns>,
}

impl Uplink {
    pub fn new(cap: usize) -> Self {
        Self {
            epoch: 0,
            seq: 0,
            delivered_seq: 0,
            delivered_samples: 0,
            cap: cap.max(1),
            ring: VecDeque::new(),
        }
    }

    /// Stamps, sends, and rings one batch upward. The batch itself is
    /// retained in the ring whether or not the send succeeded — a batch
    /// that died with the old parent is exactly what a handover must
    /// replay.
    pub fn send(&mut self, server: &dyn Transport, mut batch: BatchColumns) -> bool {
        self.seq += 1;
        batch.epoch = self.epoch;
        batch.seq = self.seq;
        let n = batch.len() as u64;
        let ok = send_wire(server, &batch).is_ok();
        self.ring.push_back(batch);
        while self.ring.len() > self.cap {
            self.ring.pop_front();
        }
        if ok {
            self.delivered_seq = self.seq;
            self.delivered_samples += n;
        }
        ok
    }

    /// Replays the ring suffix past `watermark` to the (new) parent,
    /// re-stamped with a freshly bumped epoch and re-encoded.
    /// [`WATERMARK_UNKNOWN`] falls back to our own delivered watermark —
    /// conservative: never a duplicate, at worst a labeled loss of the
    /// in-flight window. Returns the number of batches replayed.
    pub fn replay(&mut self, server: &dyn Transport, watermark: u64) -> u64 {
        let from = if watermark == WATERMARK_UNKNOWN {
            self.delivered_seq
        } else {
            watermark
        };
        self.epoch += 1;
        let mut replayed = 0u64;
        for b in self.ring.iter_mut().filter(|b| b.seq > from) {
            b.epoch = self.epoch;
            if send_wire(server, &*b).is_ok() {
                replayed += 1;
                if b.seq > self.delivered_seq {
                    self.delivered_seq = b.seq;
                    self.delivered_samples += b.len() as u64;
                }
            }
        }
        replayed
    }

    /// The beacon this node sends a standby parent: its own address and
    /// delivered watermark as a single self-entry, so the standby can
    /// dial back, seed the replay, and account the prior delivery.
    pub fn beacon_msg(&self, origin: &str) -> TopologyMsg {
        TopologyMsg {
            epoch: self.epoch,
            origin: origin.into(),
            children: vec![TopoChild {
                addr: origin.into(),
                watermark: self.delivered_seq,
                received: self.delivered_samples,
            }],
        }
    }
}

/// Dials `standby` just long enough to deliver `msg`, then closes. The
/// standby answers by dialing the orphan's listen address back — the
/// beacon connection itself never carries session traffic.
pub(crate) fn send_beacon(standby: SocketAddr, msg: &TopologyMsg, tcfg: TransportConfig) {
    let tx = TcpClient::connect(standby, tcfg);
    if send_wire(&*tx as &dyn Transport, msg).is_err() {
        return;
    }
    let deadline = Instant::now() + Duration::from_millis(500);
    while tx.backlog() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    tx.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradyn_tool::daemon::is_beacon;
    use pdmap_transport::{BatchBuilder, InProcEnd, WirePayload};

    /// `n` one-key rows tagged with `tag`, as the columns a sender builds.
    fn batch(n: usize, tag: f64) -> BatchColumns {
        let mut b = BatchBuilder::default();
        for i in 0..n {
            b.push("m".into(), "f".into(), 1_000 + i as u64, tag);
        }
        b.take()
    }

    fn recv_all(end: &InProcEnd) -> Vec<BatchColumns> {
        let mut got = Vec::new();
        while let Ok(Some(f)) = end.try_recv() {
            got.push(BatchColumns::from_frame(&f).unwrap());
        }
        got
    }

    #[test]
    fn uplink_stamps_monotonic_seq_and_rings_failed_sends() {
        let (a, b) = InProcEnd::pair(&TransportConfig::default());
        let mut up = Uplink::new(8);
        assert!(up.send(&*a, batch(3, 1.0)));
        assert!(up.send(&*a, batch(2, 2.0)));
        let got = recv_all(&b);
        assert_eq!((got[0].epoch, got[0].seq), (0, 1));
        assert_eq!(got[0].value, vec![1.0; 3]);
        assert_eq!(up.delivered_seq, 2);
        assert_eq!(up.delivered_samples, 5);
        // A dead link: the send fails but the batch stays in the ring.
        a.close();
        assert!(!up.send(&*a, batch(4, 3.0)));
        assert_eq!(up.seq, 3);
        assert_eq!(up.delivered_seq, 2, "failed send never advances delivery");
        assert_eq!(up.ring.len(), 3);
    }

    #[test]
    fn replay_resends_exactly_the_suffix_past_the_watermark() {
        let (a, b) = InProcEnd::pair(&TransportConfig::default());
        let mut up = Uplink::new(8);
        for i in 0..5 {
            up.send(&*a, batch(2, i as f64));
        }
        let sent = recv_all(&b);
        // The new parent has folded through seq 3: replay 4 and 5 only,
        // re-stamped with the bumped epoch and otherwise unchanged.
        let replayed = up.replay(&*a, 3);
        assert_eq!(replayed, 2);
        assert_eq!(up.epoch, 1, "handover bumps the epoch");
        let mut got = recv_all(&b);
        assert_eq!(
            got.iter().map(|x| (x.epoch, x.seq)).collect::<Vec<_>>(),
            vec![(1, 4), (1, 5)]
        );
        for (again, first) in got.iter_mut().zip(&sent[3..]) {
            again.epoch = first.epoch;
            assert_eq!(
                again, first,
                "a replay re-stamps the epoch and nothing else"
            );
        }
        // A second handover re-stamps the same ring entries again.
        assert_eq!(up.replay(&*a, 4), 1);
        let got = recv_all(&b);
        assert_eq!((got[0].epoch, got[0].seq), (2, 5));
    }

    #[test]
    fn unknown_watermark_replays_from_own_delivered_mark() {
        let (a, b) = InProcEnd::pair(&TransportConfig::default());
        let mut up = Uplink::new(8);
        up.send(&*a, batch(1, 0.0));
        a.close();
        up.send(&*a, batch(1, 1.0)); // undelivered
        drop(b);
        let (c, d) = InProcEnd::pair(&TransportConfig::default());
        let replayed = up.replay(&*c, WATERMARK_UNKNOWN);
        assert_eq!(replayed, 1, "only the undelivered suffix — never a dup");
        let got = recv_all(&d);
        assert_eq!((got[0].seq, got[0].value[0]), (2, 1.0));
        assert_eq!(up.delivered_samples, 2);
    }

    #[test]
    fn ring_is_bounded() {
        let (a, _b) = InProcEnd::pair(&TransportConfig::default());
        let mut up = Uplink::new(4);
        for i in 0..20 {
            up.send(&*a, batch(1, i as f64));
        }
        assert_eq!(up.ring.len(), 4);
        assert_eq!(up.ring.front().unwrap().seq, 17);
        assert_eq!(up.ring.front().unwrap().value, vec![16.0]);
    }

    #[test]
    fn beacon_shape_is_a_self_entry() {
        let up = Uplink::new(4);
        let msg = up.beacon_msg("127.0.0.1:7001");
        assert!(is_beacon(&msg));
        let announce = TopologyMsg {
            epoch: 0,
            origin: "127.0.0.1:8000".into(),
            children: vec![TopoChild {
                addr: "127.0.0.1:7001".into(),
                watermark: 0,
                received: 0,
            }],
        };
        assert!(!is_beacon(&announce));
    }
}
