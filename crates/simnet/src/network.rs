//! Message routing between the server and workers.
//!
//! A [`Router`] owns one unbounded crossbeam channel per node; each node
//! claims its [`Endpoint`], which can send to any other node and receive
//! its own messages. Every charged send is recorded in the shared
//! [`TrafficStats`]. The threaded MD-GAN runtime moves each endpoint into
//! its node's OS thread; the sequential runtimes need no endpoints at all
//! (they carry messages with [`Wire`](crate::Wire)).
//!
//! Attaching a [`FaultPlan`] (see [`Router::with_faults`]) makes
//! [`Endpoint::send_data`] subject every data-carrying message to seeded
//! drops, duplication and delays, with a bounded stop-and-wait retry loop.
//! Control messages keep using [`Endpoint::send`] and stay reliable.
//! Duplicate copies are flagged on the [`Envelope`] and silently deduped by
//! every receive path, modelling transport-level sequence-number dedup: the
//! application never observes them, only the counters do.
//!
//! Nothing here waits on a clock. A fate is drawn when a message is sent,
//! so the sender knows at once whether it was lost, and a receiver that is
//! owed a message can block until it (or the sender's word that it was
//! lost) arrives.

use crate::fault::{Delivery, FaultPlan, FaultState};
use crate::stats::TrafficStats;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use md_telemetry::{Counter, Phase, Recorder, SpanKind, TraceCtx, Track};
use std::sync::Arc;

/// Node identifier; [`SERVER`] is 0, workers are `1..=N`.
pub type NodeId = usize;

/// The central server's node id.
pub const SERVER: NodeId = 0;

/// A routed message.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Wire size charged for this message, in bytes.
    pub bytes: u64,
    /// Spurious duplicate copy injected by the fault layer. Receive paths
    /// skip these; they exist only so the wire-level counters are honest.
    pub duplicate: bool,
    /// Causal trace context: the trace this message belongs to and the
    /// span id of the send attempt that delivered it. [`TraceCtx::NONE`]
    /// on untraced sends; receive paths record a `recv` instant linked to
    /// `ctx.span` when it is set.
    pub ctx: TraceCtx,
    /// Payload.
    pub msg: M,
}

/// The destination endpoint (and every clone of its sender) is gone.
///
/// In the experiments this only happens on bugs — simulated crashes keep
/// draining their queue precisely so that liveness stays invisible to
/// senders — but robust callers can treat it like a drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendError {
    /// The unreachable destination.
    pub to: NodeId,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "destination endpoint {} dropped", self.to)
    }
}

impl std::error::Error for SendError {}

/// Builds the mesh of channels for `1 + workers` nodes.
pub struct Router<M> {
    senders: Vec<Sender<Envelope<M>>>,
    receivers: Vec<Option<Receiver<Envelope<M>>>>,
    stats: Arc<TrafficStats>,
    telemetry: Option<Arc<Recorder>>,
    faults: Option<Arc<FaultState>>,
}

impl<M: Send> Router<M> {
    /// Creates a router for one server plus `workers` workers.
    pub fn new(workers: usize) -> Self {
        let nodes = workers + 1;
        let mut senders = Vec::with_capacity(nodes);
        let mut receivers = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        Router {
            senders,
            receivers,
            stats: Arc::new(TrafficStats::new(nodes)),
            telemetry: None,
            faults: None,
        }
    }

    /// Attaches a telemetry recorder: every subsequently claimed endpoint
    /// records a `comm` span plus message/byte counters per send.
    pub fn with_telemetry(mut self, recorder: Arc<Recorder>) -> Self {
        self.telemetry = Some(recorder);
        self
    }

    /// Instantiates `plan` for this cluster: subsequently claimed endpoints
    /// apply it to every [`Endpoint::send_data`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(FaultState::new(plan, self.nodes())));
        self
    }

    /// Total node count (server included).
    pub fn nodes(&self) -> usize {
        self.senders.len()
    }

    /// The shared traffic counters.
    pub fn stats(&self) -> Arc<TrafficStats> {
        Arc::clone(&self.stats)
    }

    /// Claims the endpoint of `node`. Each endpoint can be taken once.
    ///
    /// # Panics
    /// Panics if taken twice or out of range.
    pub fn endpoint(&mut self, node: NodeId) -> Endpoint<M> {
        let rx = self.receivers[node]
            .take()
            .unwrap_or_else(|| panic!("endpoint {node} already taken"));
        Endpoint {
            id: node,
            senders: self.senders.clone(),
            rx,
            stats: Arc::clone(&self.stats),
            telemetry: self.telemetry.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Claims all endpoints in node order, for code that drives every node
    /// from one thread (tests and microbenchmarks).
    pub fn all_endpoints(&mut self) -> Vec<Endpoint<M>> {
        (0..self.nodes()).map(|n| self.endpoint(n)).collect()
    }
}

/// One node's communication handle.
pub struct Endpoint<M> {
    id: NodeId,
    senders: Vec<Sender<Envelope<M>>>,
    rx: Receiver<Envelope<M>>,
    stats: Arc<TrafficStats>,
    telemetry: Option<Arc<Recorder>>,
    faults: Option<Arc<FaultState>>,
}

impl<M: Send> Endpoint<M> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `msg` of wire size `bytes` to `to`, recording traffic.
    /// Reliable (never subject to fault injection) — the control plane.
    ///
    /// Returns [`SendError`] if the destination endpoint has been dropped.
    pub fn send(&self, to: NodeId, msg: M, bytes: u64) -> Result<(), SendError> {
        self.send_ctx(to, msg, bytes, TraceCtx::NONE)
    }

    /// [`send`](Self::send) under a trace context: when `ctx` carries a
    /// trace and tracing is on, the attempt records a `send` instant on
    /// this node's track and its span id rides on the envelope, linking
    /// the receiver's `recv` back to it.
    pub fn send_ctx(&self, to: NodeId, msg: M, bytes: u64, ctx: TraceCtx) -> Result<(), SendError> {
        self.stats.record(self.id, to, bytes);
        self.post(to, msg, bytes, ctx)
    }

    /// A control message outside the simulated network model: delivered
    /// and seen by the telemetry like [`send`](Self::send), but never
    /// charged to the [`TrafficStats`] — for exchanges such as a checkpoint
    /// gather, which must not perturb the traffic a resumed run replays.
    pub fn send_uncharged(&self, to: NodeId, msg: M) -> Result<(), SendError> {
        self.post(to, msg, 0, TraceCtx::NONE)
    }

    /// Enqueues one reliable attempt, counted and traced but not charged.
    fn post(&self, to: NodeId, msg: M, bytes: u64, ctx: TraceCtx) -> Result<(), SendError> {
        assert_ne!(to, self.id, "node {to} sending to itself");
        let _span = self.telemetry.as_deref().map(|t| {
            t.incr(Counter::MsgsSent, 1);
            t.incr(Counter::BytesSent, bytes);
            t.span(Phase::Comm)
        });
        let sent = self.telemetry.as_deref().map_or(0, |t| {
            t.trace_instant(
                SpanKind::Send {
                    to: to as u32,
                    bytes,
                    attempt: 1,
                },
                Track::node(self.id),
                ctx,
                ctx.trace.saturating_sub(1),
            )
        });
        self.senders[to]
            .send(Envelope {
                from: self.id,
                bytes,
                duplicate: false,
                ctx: TraceCtx {
                    trace: ctx.trace,
                    span: sent,
                },
                msg,
            })
            .map_err(|_| SendError { to })
    }

    /// Sends one data-carrying message through the fault layer (when one is
    /// attached): each of up to `1 + retries` attempts draws a seeded fate
    /// at the sender's virtual tick `tick` and charges its own wire bytes.
    /// Without a fault plan this is exactly [`send`](Self::send) (one
    /// attempt, always delivered).
    ///
    /// The returned [`Delivery`] reports whether the payload reached the
    /// receiver's queue; a dropped destination endpoint also reads as
    /// non-delivery.
    pub fn send_data(&self, to: NodeId, msg: M, bytes: u64, tick: u64, retries: u32) -> Delivery
    where
        M: Clone,
    {
        self.send_data_ctx(to, msg, bytes, tick, retries, TraceCtx::NONE)
    }

    /// [`send_data`](Self::send_data) under a trace context: every fault
    /// attempt (drops, retransmissions, the delivering send) records an
    /// instant span chained to its predecessor, and the delivering
    /// attempt's span id rides on the envelope.
    pub fn send_data_ctx(
        &self,
        to: NodeId,
        msg: M,
        bytes: u64,
        tick: u64,
        retries: u32,
        ctx: TraceCtx,
    ) -> Delivery
    where
        M: Clone,
    {
        assert_ne!(to, self.id, "node {to} sending to itself");
        let Some(faults) = self.faults.as_deref() else {
            let ok = self.send_ctx(to, msg, bytes, ctx).is_ok();
            return Delivery {
                delivered: ok,
                duplicated: false,
                delayed: false,
                attempts: 1,
            };
        };
        let _span = self.telemetry.as_deref().map(|t| t.span(Phase::Comm));
        let mut enqueued = true;
        let mut d = faults.transmit(
            self.id,
            to,
            tick,
            bytes,
            retries,
            &self.stats,
            self.telemetry.as_deref(),
            ctx,
            |duplicate, sent| {
                enqueued &= self.senders[to]
                    .send(Envelope {
                        from: self.id,
                        bytes,
                        duplicate,
                        ctx: TraceCtx {
                            trace: ctx.trace,
                            span: sent,
                        },
                        msg: msg.clone(),
                    })
                    .is_ok();
            },
        );
        d.delivered &= enqueued;
        d
    }

    /// Records a `recv` instant on this node's track, linked to the send
    /// attempt that delivered `e`. A no-op for untraced envelopes.
    fn note_recv(&self, e: &Envelope<M>) {
        if e.ctx.span == 0 {
            return;
        }
        if let Some(t) = self.telemetry.as_deref() {
            t.trace_instant(
                SpanKind::Recv {
                    from: e.from as u32,
                    bytes: e.bytes,
                },
                Track::node(self.id),
                e.ctx,
                e.ctx.trace.saturating_sub(1),
            );
        }
    }

    /// Blocking receive (duplicate copies are skipped).
    pub fn recv(&self) -> Envelope<M> {
        loop {
            let e = self.rx.recv().expect("all senders dropped");
            if !e.duplicate {
                self.note_recv(&e);
                return e;
            }
        }
    }

    /// Non-blocking receive (duplicate copies are skipped).
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        loop {
            match self.rx.try_recv() {
                Ok(e) if e.duplicate => continue,
                Ok(e) => {
                    self.note_recv(&e);
                    return Some(e);
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return None,
            }
        }
    }

    /// Receives exactly `n` messages and returns them sorted by sender id —
    /// the deterministic gather used at synchronization barriers
    /// (the server's `GETFEEDBACKFROMWORKERS()` in Algorithm 1).
    pub fn recv_n_sorted(&self, n: usize) -> Vec<Envelope<M>> {
        let mut out: Vec<Envelope<M>> = (0..n).map(|_| self.recv()).collect();
        out.sort_by_key(|e| e.from);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_roundtrip() {
        let mut router: Router<String> = Router::new(2);
        let eps = router.all_endpoints();
        eps[0].send(1, "hi".into(), 2).unwrap();
        let e = eps[1].recv();
        assert_eq!(e.from, 0);
        assert_eq!(e.msg, "hi");
        assert_eq!(e.bytes, 2);
        assert!(!e.duplicate);
    }

    #[test]
    fn traffic_is_recorded_on_send() {
        let mut router: Router<u32> = Router::new(2);
        let eps = router.all_endpoints();
        let stats = router.stats();
        eps[1].send(2, 7, 123).unwrap();
        let r = stats.report();
        assert_eq!(r.ingress[2], 123);
        assert_eq!(r.egress[1], 123);
    }

    #[test]
    fn uncharged_send_delivers_without_touching_traffic() {
        let mut router: Router<u32> = Router::new(2);
        let eps = router.all_endpoints();
        let stats = router.stats();
        eps[1].send_uncharged(SERVER, 7).unwrap();
        assert_eq!(eps[SERVER].recv().msg, 7);
        assert_eq!(stats.state_words(), TrafficStats::new(3).state_words());
    }

    #[test]
    fn send_to_dropped_endpoint_errors() {
        let mut router: Router<u8> = Router::new(1);
        let server = router.endpoint(SERVER);
        drop(router.endpoint(1));
        drop(router); // drops the router's sender clones too
        assert_eq!(server.send(1, 9, 1), Err(SendError { to: 1 }));
    }

    #[test]
    fn recv_n_sorted_orders_by_sender() {
        let mut router: Router<usize> = Router::new(3);
        let eps = router.all_endpoints();
        // Send out of order.
        eps[3].send(SERVER, 30, 1).unwrap();
        eps[1].send(SERVER, 10, 1).unwrap();
        eps[2].send(SERVER, 20, 1).unwrap();
        let got = eps[0].recv_n_sorted(3);
        assert_eq!(
            got.iter().map(|e| e.from).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(
            got.iter().map(|e| e.msg).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn threaded_ping_pong() {
        let mut router: Router<u64> = Router::new(1);
        let server = router.endpoint(SERVER);
        let worker = router.endpoint(1);
        let h = std::thread::spawn(move || {
            for _ in 0..100 {
                let e = worker.recv();
                worker.send(SERVER, e.msg + 1, 8).unwrap();
            }
        });
        for i in 0..100u64 {
            server.send(1, i, 8).unwrap();
            let e = server.recv();
            assert_eq!(e.msg, i + 1);
        }
        h.join().unwrap();
        let r = router.stats().report();
        assert_eq!(r.total_bytes(), 200 * 8);
    }

    #[test]
    fn try_recv_empty_returns_none() {
        let mut router: Router<u8> = Router::new(1);
        let eps = router.all_endpoints();
        assert!(eps[1].try_recv().is_none());
        eps[0].send(1, 9, 1).unwrap();
        assert_eq!(eps[1].try_recv().unwrap().msg, 9);
    }

    #[test]
    fn telemetry_records_comm_spans_and_counters() {
        let rec = Arc::new(Recorder::enabled());
        let mut router: Router<u8> = Router::new(2).with_telemetry(Arc::clone(&rec));
        let eps = router.all_endpoints();
        eps[0].send(1, 1, 100).unwrap();
        eps[1].send(2, 2, 50).unwrap();
        eps[2].recv();
        assert_eq!(rec.phase_stats(Phase::Comm).count, 2);
        assert_eq!(rec.counter(Counter::MsgsSent), 2);
        assert_eq!(rec.counter(Counter::BytesSent), 150);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn endpoint_single_claim() {
        let mut router: Router<u8> = Router::new(1);
        let _a = router.endpoint(0);
        let _b = router.endpoint(0);
    }

    #[test]
    #[should_panic(expected = "sending to itself")]
    fn self_send_rejected() {
        let mut router: Router<u8> = Router::new(1);
        let eps = router.all_endpoints();
        eps[1].send(1, 0, 1).unwrap();
    }

    #[test]
    fn send_data_without_plan_is_plain_send() {
        let mut router: Router<u8> = Router::new(1);
        let eps = router.all_endpoints();
        let d = eps[0].send_data(1, 42, 10, 0, 3);
        assert!(d.delivered && d.attempts == 1);
        assert_eq!(eps[1].recv().msg, 42);
        assert_eq!(router.stats().report().dropped_bytes, 0);
    }

    #[test]
    fn send_data_applies_fault_plan_and_retries() {
        // Always-drop plan: nothing arrives, every attempt is charged.
        let mut router: Router<u8> = Router::new(1).with_faults(FaultPlan::lossy(3, 1.0));
        let eps = router.all_endpoints();
        let d = eps[0].send_data(1, 42, 10, 0, 2);
        assert!(!d.delivered);
        assert_eq!(d.attempts, 3);
        assert!(eps[1].try_recv().is_none());
        let r = router.stats().report();
        assert_eq!(r.bytes_sent(), 30);
        assert_eq!(r.dropped_bytes, 30);
        assert_eq!(r.retries, 2);
        assert_eq!(r.bytes_delivered(), 0);
    }

    #[test]
    fn duplicates_are_invisible_to_receivers_but_counted() {
        let plan = FaultPlan {
            seed: 5,
            duplicate: 1.0,
            ..FaultPlan::none()
        };
        let rec = Arc::new(Recorder::enabled());
        let mut router: Router<u8> = Router::new(1)
            .with_faults(plan)
            .with_telemetry(Arc::clone(&rec));
        let eps = router.all_endpoints();
        let d = eps[0].send_data(1, 7, 4, 0, 0);
        assert!(d.delivered && d.duplicated);
        // Exactly one application-visible copy.
        assert_eq!(eps[1].recv().msg, 7);
        assert!(eps[1].try_recv().is_none());
        assert_eq!(router.stats().report().dup_msgs, 1);
        assert_eq!(rec.counter(Counter::MsgsDuplicated), 1);
    }

    #[test]
    fn traced_send_links_recv_to_the_send_attempt() {
        let rec = Arc::new(Recorder::traced());
        let mut router: Router<u8> = Router::new(1).with_telemetry(Arc::clone(&rec));
        let eps = router.all_endpoints();
        let root = rec.trace_root(0);
        eps[1].send_ctx(SERVER, 7, 16, root.ctx()).unwrap();
        eps[0].recv();
        drop(root);
        let spans = rec.trace_spans();
        let send = spans
            .iter()
            .find(|s| matches!(s.kind, SpanKind::Send { .. }))
            .expect("send span");
        let recv = spans
            .iter()
            .find(|s| matches!(s.kind, SpanKind::Recv { .. }))
            .expect("recv span");
        assert_eq!(send.track, Track::Worker(1));
        assert_eq!(recv.track, Track::Server);
        assert_eq!(recv.parent, send.span, "recv links to the delivering send");
        assert_eq!(recv.trace, send.trace);
    }

    #[test]
    fn traced_retry_chain_is_causally_linked() {
        // Find a seed whose first fate on link 1→0 drops and second
        // delivers, so one retransmission resolves the send.
        let seed = (0..1000)
            .find(|&s| {
                let p = FaultPlan::lossy(s, 0.5);
                p.fate(1, 0, 0, 0) == crate::fault::Fate::Drop
                    && p.fate(1, 0, 1, 0) == crate::fault::Fate::Deliver
            })
            .expect("some seed drops first and delivers second");
        let rec = Arc::new(Recorder::traced());
        let mut router: Router<u8> = Router::new(1)
            .with_faults(FaultPlan::lossy(seed, 0.5))
            .with_telemetry(Arc::clone(&rec));
        let eps = router.all_endpoints();
        let root = rec.trace_root(0);
        let d = eps[1].send_data_ctx(SERVER, 9, 32, 0, 2, root.ctx());
        assert!(d.delivered);
        assert_eq!(d.attempts, 2);
        eps[0].recv();
        drop(root);
        let spans = rec.trace_spans();
        let dropped = spans
            .iter()
            .find(|s| matches!(s.kind, SpanKind::Dropped { .. }))
            .expect("drop span");
        let retry = spans
            .iter()
            .find(|s| matches!(s.kind, SpanKind::Send { attempt: 2, .. }))
            .expect("retry span");
        let recv = spans
            .iter()
            .find(|s| matches!(s.kind, SpanKind::Recv { .. }))
            .expect("recv span");
        // drop → retry → recv, one causal chain.
        assert_eq!(retry.parent, dropped.span);
        assert_eq!(recv.parent, retry.span);
        assert_eq!(dropped.trace, recv.trace);
    }

    #[test]
    fn untraced_sends_record_no_spans() {
        let rec = Arc::new(Recorder::traced());
        let mut router: Router<u8> = Router::new(1).with_telemetry(Arc::clone(&rec));
        let eps = router.all_endpoints();
        eps[0].send(1, 1, 8).unwrap();
        eps[1].recv();
        let d = eps[0].send_data(1, 2, 8, 0, 0);
        assert!(d.delivered);
        eps[1].recv();
        assert!(rec.trace_spans().is_empty(), "NONE ctx stays untraced");
    }
}
