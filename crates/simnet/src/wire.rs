//! One logical message over one simulated link, for runtimes that move
//! tensors in place instead of through [`Endpoint`](crate::Endpoint) queues.

use crate::fault::FaultState;
use crate::stats::TrafficStats;
use md_telemetry::{Counter, Recorder, SpanKind, TraceCtx, Track};

/// The link layer of an in-process runtime: where a message is charged,
/// counted, traced and — with a fault plan — possibly lost.
///
/// The two arms stay distinct on purpose: a [`FaultState`] with an empty
/// plan still draws a fate per attempt, so `faults: None` is the reliable
/// network and not a shortcut for it. The runtimes' perfect-network tests
/// are what hold the two equal.
#[derive(Clone, Copy)]
pub struct Wire<'a> {
    /// Byte accounting every message is charged to.
    pub stats: &'a TrafficStats,
    /// `None`: every message arrives. `Some`: every attempt draws its fate.
    pub faults: Option<&'a FaultState>,
    /// Retransmissions a lost attempt is allowed (lossy arm only).
    pub retries: u32,
    /// Send counters and, under a traced context, the send/recv instants.
    pub telemetry: &'a Recorder,
}

impl<'a> Wire<'a> {
    /// Carries `bytes` from node `from` to node `to` at virtual time `tick`.
    ///
    /// Returns the receiver-side trace context — the `Recv` instant on
    /// `to`'s track, which whatever the receiver does next hangs off — or
    /// `None` when the fault layer lost the message for good. The `Send`
    /// (and any drop/retry chain before it) is parented on `ctx`.
    pub fn carry(
        &self,
        from: usize,
        to: usize,
        bytes: u64,
        tick: u64,
        ctx: TraceCtx,
    ) -> Option<TraceCtx> {
        let recv = |sent: u64| {
            let link = TraceCtx {
                trace: ctx.trace,
                span: sent,
            };
            let kind = SpanKind::Recv {
                from: from as u32,
                bytes,
            };
            self.telemetry
                .trace_instant(kind, Track::node(to), link, tick)
        };
        let span = match self.faults {
            None => {
                self.stats.record(from, to, bytes);
                self.telemetry.incr(Counter::MsgsSent, 1);
                self.telemetry.incr(Counter::BytesSent, bytes);
                let kind = SpanKind::Send {
                    to: to as u32,
                    bytes,
                    attempt: 1,
                };
                recv(
                    self.telemetry
                        .trace_instant(kind, Track::node(from), ctx, tick),
                )
            }
            Some(faults) => {
                // No real queue to pop the envelope from: the receive is
                // stamped inside the deliver hook, where an endpoint would.
                let mut span = 0;
                let fate = faults.transmit(
                    from,
                    to,
                    tick,
                    bytes,
                    self.retries,
                    self.stats,
                    Some(self.telemetry),
                    ctx,
                    |duplicate, sent| {
                        if !duplicate && sent != 0 {
                            span = recv(sent);
                        }
                    },
                );
                if !fate.delivered {
                    return None;
                }
                span
            }
        };
        Some(TraceCtx {
            trace: ctx.trace,
            span,
        })
    }

    /// The same wire over the control plane, which never loses a message
    /// (bootstrap-on-join travels this way even on a lossy data network).
    pub fn reliable(&self) -> Wire<'a> {
        Wire {
            faults: None,
            ..*self
        }
    }
}
