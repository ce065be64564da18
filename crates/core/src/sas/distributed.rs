//! Distributed-memory SAS with cross-node sentence forwarding (§4.2.3).
//!
//! "Some interesting performance questions can only be answered using
//! information about sentence activity on more than one node. ... the
//! client's SAS would need to send one sentence (i.e., *client query is
//! active*) to the server's SAS whenever that sentence became active or
//! inactive."
//!
//! [`DistributedSas`] pairs a [`ShardedSas`] with per-node **forwarding
//! rules**. When a sentence matching a rule becomes (in)active on the rule's
//! source node, an activation/deactivation message is sent toward the
//! destination node over a `pdmap-transport` link; the destination applies
//! it to its own SAS as a proxy sentence. Delivery is explicit
//! ([`DistributedSas::pump`]) for deterministic tests, or immediate in
//! auto-deliver mode (which, over an asynchronous backend such as TCP,
//! waits until every sent message has been applied, so the observable
//! semantics match the in-process backend exactly).

use crate::model::{Namespace, SentenceId};
use crate::sas::question::{Question, QuestionId, SentencePattern};
use crate::sas::shared::{SasHandle, ShardedSas};
use crate::util::Mutex;
use pdmap_transport::{
    send_wire, Backend, CodecError, FrameKind, Link, PayloadReader, TransportConfig,
    TransportStats, WirePayload,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Span sites for the SAS hot operations, interned once (see
/// `pdmap-obs`). Sentences about the tool's own SAS activity flow from
/// here into the "Tool" level that `pdmap-paradyn`'s `selfmap` module
/// generates from `pdmap_obs::KNOWN_SITES`.
struct SasObs {
    push: pdmap_obs::SpanSite,
    pop: pdmap_obs::SpanSite,
    evaluate: pdmap_obs::SpanSite,
    deliver: pdmap_obs::SpanSite,
}

fn sas_obs() -> &'static SasObs {
    static OBS: OnceLock<SasObs> = OnceLock::new();
    OBS.get_or_init(|| SasObs {
        push: pdmap_obs::span_site("sas", "push"),
        pop: pdmap_obs::span_site("sas", "pop"),
        evaluate: pdmap_obs::span_site("sas", "evaluate"),
        deliver: pdmap_obs::span_site("sas", "deliver"),
    })
}

/// Forward sentences matching `pattern` from one node's SAS to `to_node`'s.
#[derive(Clone, Debug)]
pub struct ForwardingRule {
    /// Which local sentences are remotely interesting.
    pub pattern: SentencePattern,
    /// The node whose SAS needs them.
    pub to_node: usize,
}

/// Whether a forwarded message activates or deactivates the proxy sentence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SasOp {
    /// Proxy becomes active on the destination.
    Activate,
    /// Proxy becomes inactive on the destination.
    Deactivate,
}

/// One in-flight SAS forwarding message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SasMessage {
    /// Node the sentence is active on.
    pub from_node: usize,
    /// Activation or deactivation.
    pub op: SasOp,
    /// The sentence (namespaces are machine-global, so the id is valid on
    /// every node).
    pub sid: SentenceId,
}

impl WirePayload for SasMessage {
    const KIND: FrameKind = FrameKind::SasForward;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        use pdmap_transport::wire::put;
        put::u64(out, self.from_node as u64);
        put::u8(
            out,
            match self.op {
                SasOp::Activate => 0,
                SasOp::Deactivate => 1,
            },
        );
        put::u64(out, self.sid.index() as u64);
    }

    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, CodecError> {
        let from_node = r.u64()? as usize;
        let op = match r.u8()? {
            0 => SasOp::Activate,
            1 => SasOp::Deactivate,
            tag => return Err(CodecError::new(format!("unknown SasOp tag {tag}"))),
        };
        let sid = SentenceId::from_index(r.u64()? as usize);
        Ok(SasMessage { from_node, op, sid })
    }
}

/// Per-node SASes plus the forwarding machinery.
pub struct DistributedSas {
    sharded: ShardedSas,
    /// rules[n] = rules whose source node is n.
    rules: Mutex<Vec<Vec<ForwardingRule>>>,
    /// links[n] = the transport link carrying messages toward node n:
    /// senders use `links[n].client`, node n's pump drains `links[n].server`.
    links: Vec<Link>,
    auto_deliver: AtomicBool,
    messages_sent: AtomicU64,
    messages_delivered: AtomicU64,
}

impl DistributedSas {
    /// Creates `nodes` per-node SASes with no forwarding rules, linked by
    /// in-process transports (the seed's single-process topology).
    pub fn new(ns: Namespace, nodes: usize) -> Self {
        Self::with_backend(ns, nodes, Backend::InProc)
    }

    /// As [`DistributedSas::new`], but choosing the transport backend the
    /// forwarding messages cross.
    pub fn with_backend(ns: Namespace, nodes: usize, backend: Backend) -> Self {
        Self::with_backend_cfg(ns, nodes, backend, &TransportConfig::default())
    }

    /// As [`DistributedSas::with_backend`], with explicit transport
    /// configuration.
    pub fn with_backend_cfg(
        ns: Namespace,
        nodes: usize,
        backend: Backend,
        cfg: &TransportConfig,
    ) -> Self {
        Self {
            sharded: ShardedSas::new(ns, nodes),
            rules: Mutex::new(vec![Vec::new(); nodes]),
            links: (0..nodes).map(|_| backend.link(cfg)).collect(),
            auto_deliver: AtomicBool::new(false),
            messages_sent: AtomicU64::new(0),
            messages_delivered: AtomicU64::new(0),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.sharded.num_nodes()
    }

    /// The underlying per-node SAS collection (for registering questions,
    /// snapshots, etc.).
    pub fn sharded(&self) -> &ShardedSas {
        &self.sharded
    }

    /// When enabled, forwarded messages are applied to the destination SAS
    /// immediately instead of waiting for [`DistributedSas::pump`].
    pub fn set_auto_deliver(&self, on: bool) {
        self.auto_deliver.store(on, Ordering::Release);
    }

    /// Installs a forwarding rule at `from_node`.
    pub fn add_rule(&self, from_node: usize, rule: ForwardingRule) {
        assert!(rule.to_node < self.num_nodes(), "destination out of range");
        self.rules.lock()[from_node].push(rule);
    }

    /// Activates `sid` on `node`, forwarding to any interested remote SAS.
    pub fn activate(&self, node: usize, sid: SentenceId) {
        let _span = pdmap_obs::span(&sas_obs().push);
        self.sharded.node(node).activate(sid);
        self.forward(node, sid, SasOp::Activate);
    }

    /// Deactivates `sid` on `node`, forwarding the deactivation too.
    pub fn deactivate(&self, node: usize, sid: SentenceId) {
        let _span = pdmap_obs::span(&sas_obs().pop);
        self.sharded.node(node).deactivate(sid);
        self.forward(node, sid, SasOp::Deactivate);
    }

    fn forward(&self, node: usize, sid: SentenceId, op: SasOp) {
        let sentence = self.sharded.namespace().sentence_def(sid);
        let rules = self.rules.lock();
        for rule in &rules[node] {
            if rule.pattern.matches(&sentence) {
                let msg = SasMessage {
                    from_node: node,
                    op,
                    sid,
                };
                if send_wire(&*self.links[rule.to_node].client, &msg).is_ok() {
                    self.messages_sent.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(rules);
        if self.auto_deliver.load(Ordering::Acquire) {
            // Match the synchronous semantics of the in-process path on any
            // backend: wait until everything sent has been applied.
            self.pump_settled(Duration::from_secs(10));
        }
    }

    /// Delivers all messages currently arrived at node `node`'s SAS,
    /// returning how many were applied. Over an asynchronous backend a
    /// message that was sent but is still in flight is NOT delivered by
    /// this call — use [`DistributedSas::pump_settled`] to wait for it.
    pub fn pump_node(&self, node: usize) -> usize {
        // Timed manually: pump_settled polls this in a tight loop, so an
        // empty pass records nothing (only actual deliveries are spans).
        let t0 = if pdmap_obs::enabled() {
            Some(pdmap_obs::now_ns())
        } else {
            None
        };
        let mut delivered = 0;
        while let Ok(Some(frame)) = self.links[node].server.try_recv() {
            let msg = SasMessage::from_frame(&frame)
                .expect("SAS forwarding frames are encoded by this module");
            let h = self.sharded.node(node);
            match msg.op {
                SasOp::Activate => h.activate(msg.sid),
                SasOp::Deactivate => h.deactivate(msg.sid),
            }
            delivered += 1;
        }
        self.messages_delivered
            .fetch_add(delivered as u64, Ordering::Relaxed);
        if delivered > 0 {
            if let Some(t0) = t0 {
                let dur = pdmap_obs::now_ns().saturating_sub(t0);
                pdmap_obs::record_span(&sas_obs().deliver, t0, dur);
            }
        }
        delivered
    }

    /// Delivers all arrived messages on all nodes.
    pub fn pump(&self) -> usize {
        (0..self.num_nodes()).map(|n| self.pump_node(n)).sum()
    }

    /// Pumps until every sent message has been delivered (or `timeout`
    /// elapses), returning how many were applied. On the in-process backend
    /// a single pass suffices; over TCP this absorbs delivery latency so
    /// both backends observe identical final states.
    pub fn pump_settled(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut delivered = self.pump();
        while self.messages_delivered.load(Ordering::Relaxed)
            < self.messages_sent.load(Ordering::Relaxed)
        {
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
            delivered += self.pump();
        }
        delivered
    }

    /// Aggregated transport self-metrics over every per-node link
    /// (sender side), e.g. for the tool's Transport metric catalogue.
    pub fn transport_stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for link in &self.links {
            let s = link.client.stats();
            total.frames_sent += s.frames_sent;
            total.bytes_sent += s.bytes_sent;
            total.drops += s.drops;
            total.retries += s.retries;
            total.reconnects += s.reconnects;
            let r = link.server.stats();
            total.frames_received += r.frames_received;
            total.bytes_received += r.bytes_received;
            total.duplicates += r.duplicates;
            total.max_queue_depth = total.max_queue_depth.max(s.max_queue_depth);
        }
        total
    }

    /// Which backend the forwarding links run over.
    pub fn backend_name(&self) -> &'static str {
        self.links
            .first()
            .map(|l| l.client.backend_name())
            .unwrap_or("none")
    }

    /// Registers a conjunction question on every node.
    pub fn register_question_all(&self, q: &Question) -> QuestionId {
        self.sharded.register_question_all(q)
    }

    /// Is `qid` satisfied on `node` (given the forwarded proxies delivered
    /// so far)?
    pub fn satisfied_on(&self, node: usize, qid: QuestionId) -> bool {
        let _span = pdmap_obs::span(&sas_obs().evaluate);
        self.sharded.satisfied_on(node, qid)
    }

    /// Total forwarding messages generated.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Total forwarding messages applied at their destination.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NounId, VerbId};

    struct Fx {
        ns: Namespace,
        query: VerbId,
        read: VerbId,
        q17: NounId,
        disk: NounId,
    }

    /// The paper's distributed-database example: a client runs queries, a
    /// server reads from disk on its behalf.
    fn fx() -> Fx {
        let ns = Namespace::new();
        let db = ns.level("DB");
        Fx {
            query: ns.verb(db, "RunsQuery", ""),
            read: ns.verb(db, "ReadsDisk", ""),
            q17: ns.noun(db, "query#17", ""),
            disk: ns.noun(db, "disk0", ""),
            ns,
        }
    }

    const CLIENT: usize = 0;
    const SERVER: usize = 1;

    #[test]
    fn forwarding_delivers_proxy_sentences() {
        let f = fx();
        let d = DistributedSas::new(f.ns.clone(), 2);
        d.add_rule(
            CLIENT,
            ForwardingRule {
                pattern: SentencePattern::any_noun(f.query),
                to_node: SERVER,
            },
        );
        let q = f.ns.say(f.query, [f.q17]);
        d.activate(CLIENT, q);
        // Not yet delivered.
        assert!(!d.sharded().node(SERVER).is_active(q));
        assert_eq!(d.pump(), 1);
        assert!(d.sharded().node(SERVER).is_active(q));
        d.deactivate(CLIENT, q);
        d.pump();
        assert!(!d.sharded().node(SERVER).is_active(q));
        assert_eq!(d.messages_sent(), 2);
        assert_eq!(d.messages_delivered(), 2);
    }

    #[test]
    fn cross_node_question_answered_at_server() {
        let f = fx();
        let d = DistributedSas::new(f.ns.clone(), 2);
        d.set_auto_deliver(true);
        d.add_rule(
            CLIENT,
            ForwardingRule {
                pattern: SentencePattern::noun_verb(f.q17, f.query),
                to_node: SERVER,
            },
        );
        // "server reads from disk, client query is active"
        let qid = d.register_question_all(&Question::new(
            "server disk reads for query#17",
            vec![
                SentencePattern::noun_verb(f.disk, f.read),
                SentencePattern::noun_verb(f.q17, f.query),
            ],
        ));
        let query = f.ns.say(f.query, [f.q17]);
        let read = f.ns.say(f.read, [f.disk]);

        d.activate(SERVER, read);
        assert!(!d.satisfied_on(SERVER, qid), "query not active yet");
        d.activate(CLIENT, query);
        assert!(d.satisfied_on(SERVER, qid), "proxy makes question true");
        d.deactivate(CLIENT, query);
        assert!(!d.satisfied_on(SERVER, qid));
    }

    #[test]
    fn unmatched_sentences_are_not_forwarded() {
        let f = fx();
        let d = DistributedSas::new(f.ns.clone(), 2);
        d.add_rule(
            CLIENT,
            ForwardingRule {
                pattern: SentencePattern::any_noun(f.query),
                to_node: SERVER,
            },
        );
        let read = f.ns.say(f.read, [f.disk]);
        d.activate(CLIENT, read); // a read, not a query: no forwarding
        assert_eq!(d.messages_sent(), 0);
        assert_eq!(d.pump(), 0);
    }

    #[test]
    fn local_questions_need_no_messages() {
        // "all of the performance questions listed in Figure 6 can be
        // answered without sharing any information between nodes."
        let f = fx();
        let d = DistributedSas::new(f.ns.clone(), 4);
        let qid = d.register_question_all(&Question::new(
            "reads",
            vec![SentencePattern::any_noun(f.read)],
        ));
        let read = f.ns.say(f.read, [f.disk]);
        d.activate(2, read);
        assert!(d.satisfied_on(2, qid));
        assert!(!d.satisfied_on(0, qid));
        assert_eq!(d.messages_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn rule_destination_validated() {
        let f = fx();
        let d = DistributedSas::new(f.ns.clone(), 2);
        d.add_rule(
            0,
            ForwardingRule {
                pattern: SentencePattern::any_noun(f.query),
                to_node: 7,
            },
        );
    }

    /// Runs the client/server scenario over a backend and returns every
    /// observable: per-node activity, question verdicts, message counts.
    fn observe(backend: Backend) -> (Vec<bool>, bool, u64, u64) {
        let f = fx();
        let d = DistributedSas::with_backend(f.ns.clone(), 2, backend);
        d.add_rule(
            CLIENT,
            ForwardingRule {
                pattern: SentencePattern::any_noun(f.query),
                to_node: SERVER,
            },
        );
        let qid = d.register_question_all(&Question::new(
            "reads for q17",
            vec![
                SentencePattern::noun_verb(f.disk, f.read),
                SentencePattern::noun_verb(f.q17, f.query),
            ],
        ));
        let query = f.ns.say(f.query, [f.q17]);
        let read = f.ns.say(f.read, [f.disk]);
        d.activate(SERVER, read);
        d.activate(CLIENT, query);
        d.pump_settled(Duration::from_secs(10));
        let active = vec![
            d.sharded().node(CLIENT).is_active(query),
            d.sharded().node(SERVER).is_active(query),
            d.sharded().node(SERVER).is_active(read),
        ];
        (
            active,
            d.satisfied_on(SERVER, qid),
            d.messages_sent(),
            d.messages_delivered(),
        )
    }

    #[test]
    fn both_backends_observe_identical_results() {
        let inproc = observe(Backend::InProc);
        let tcp = observe(Backend::Tcp);
        assert_eq!(inproc, tcp);
        assert_eq!(inproc, (vec![true, true, true], true, 1, 1));
    }

    #[test]
    fn pump_node_only_drains_one_inbox() {
        let f = fx();
        let d = DistributedSas::new(f.ns.clone(), 3);
        d.add_rule(
            0,
            ForwardingRule {
                pattern: SentencePattern::any_noun(f.query),
                to_node: 1,
            },
        );
        d.add_rule(
            0,
            ForwardingRule {
                pattern: SentencePattern::any_noun(f.query),
                to_node: 2,
            },
        );
        let q = f.ns.say(f.query, [f.q17]);
        d.activate(0, q);
        assert_eq!(d.pump_node(1), 1);
        assert!(d.sharded().node(1).is_active(q));
        assert!(!d.sharded().node(2).is_active(q));
        assert_eq!(d.pump_node(2), 1);
        assert!(d.sharded().node(2).is_active(q));
    }
}
