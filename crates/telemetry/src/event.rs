//! Typed run events with JSONL rendering.

use crate::json::Object;

/// A structured event emitted by a training runtime.
///
/// Events are coarse-grained (per iteration / swap / fault, never
/// per-message) so a bounded ring buffer retains a useful run history.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// One global iteration completed.
    IterDone {
        /// Iteration index.
        iter: usize,
        /// Workers still alive after this iteration.
        alive: usize,
    },
    /// A discriminator-swap round completed.
    SwapDone {
        /// Iteration at which the swap ran.
        iter: usize,
        /// Number of discriminators that moved.
        moved: usize,
    },
    /// A worker crashed (crash-fault injection or runtime failure).
    WorkerFault {
        /// Iteration at which the fault was observed.
        iter: usize,
        /// The crashed worker.
        worker: usize,
    },
    /// An evaluation pass completed.
    EvalDone {
        /// Iteration evaluated at.
        iter: usize,
        /// Inception-score-like metric.
        is_score: f64,
        /// FID-like metric.
        fid: f64,
    },
    /// An asynchronous update arrived computed against stale parameters.
    StaleUpdate {
        /// Iteration at which the update was applied.
        iter: usize,
        /// Worker that sent the update.
        worker: usize,
        /// Age of the update in iterations.
        staleness: usize,
    },
    /// The server's failure detector started suspecting a worker after
    /// consecutive missed feedbacks.
    WorkerSuspected {
        /// Iteration the suspicion was raised at.
        iter: usize,
        /// The suspected worker.
        worker: usize,
    },
    /// A previously suspected worker was heard from again.
    WorkerRejoined {
        /// Iteration the worker was heard at.
        iter: usize,
        /// The rejoining worker.
        worker: usize,
    },
    /// A new worker joined the cluster (elastic membership).
    WorkerJoined {
        /// Iteration the join took effect at.
        iter: usize,
        /// The joining worker.
        worker: usize,
    },
    /// A worker departed gracefully after draining its final feedback.
    WorkerLeft {
        /// Iteration of the worker's last contribution.
        iter: usize,
        /// The departing worker.
        worker: usize,
    },
    /// The failure detector permanently evicted a worker after its
    /// eviction timeout expired (suspicion became a verdict).
    WorkerEvicted {
        /// Iteration the eviction was decided at.
        iter: usize,
        /// The evicted worker.
        worker: usize,
    },
    /// The server's feedback forensics flagged a worker as a suspected
    /// free-rider after a persistent outlier streak (§VII.3 defense).
    WorkerFlagged {
        /// Iteration the flag was raised at.
        iter: usize,
        /// The flagged worker.
        worker: usize,
        /// `|ln‖F‖ − median(ln‖F‖)|` at the flagging observation.
        norm_score: f64,
        /// Cosine against the worker's own previous feedback.
        self_cos: f64,
        /// Cosine against the same-group peer consensus (NaN when the
        /// group was too small to score).
        peer_cos: f64,
    },
    /// A previously flagged worker scored as an inlier on a probe and was
    /// cleared (its feedbacks count again).
    WorkerCleared {
        /// Iteration the flag was lifted at.
        iter: usize,
        /// The cleared worker.
        worker: usize,
    },
    /// A flagged free-rider crossed the failure detector's eviction
    /// threshold and was permanently removed from the membership view
    /// (always accompanied by a [`Event::WorkerEvicted`]).
    FreeriderEvicted {
        /// Iteration the eviction was decided at.
        iter: usize,
        /// The evicted free-rider.
        worker: usize,
    },
    /// A joining worker finished bootstrapping its discriminator from a
    /// snapshot held by the server or a peer.
    BootstrapDone {
        /// Iteration the bootstrap completed at.
        iter: usize,
        /// The bootstrapped worker.
        worker: usize,
        /// Snapshot size moved over the wire, in bytes.
        bytes: u64,
    },
    /// A federated/gossip round completed.
    RoundDone {
        /// Round index.
        round: usize,
    },
    /// The health monitor found a NaN/Inf or an exploded magnitude.
    NanDetected {
        /// Iteration at which the divergence was detected.
        iter: usize,
        /// Stable verdict label (`non_finite_loss`, `exploded`, ...).
        verdict: &'static str,
    },
    /// The supervisor rolled training back to its last good checkpoint.
    Rollback {
        /// Iteration the rollback was triggered at.
        iter: usize,
        /// Iteration training restarted from.
        to_iter: usize,
    },
    /// A checkpoint was durably written.
    CheckpointWritten {
        /// Iteration the checkpoint captures.
        iter: usize,
        /// Serialized size in bytes.
        bytes: u64,
    },
    /// A run resumed from an on-disk checkpoint.
    Resumed {
        /// Iteration the run resumed at.
        iter: usize,
    },
    /// Escape hatch for runtime-specific one-offs.
    Custom {
        /// Event name (snake_case).
        name: &'static str,
        /// Free-form numeric payload.
        value: f64,
    },
}

impl Event {
    /// The event's type tag as used in JSONL output.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::IterDone { .. } => "iter_done",
            Event::SwapDone { .. } => "swap_done",
            Event::WorkerFault { .. } => "worker_fault",
            Event::EvalDone { .. } => "eval_done",
            Event::StaleUpdate { .. } => "stale_update",
            Event::WorkerSuspected { .. } => "worker_suspected",
            Event::WorkerRejoined { .. } => "worker_rejoined",
            Event::WorkerJoined { .. } => "worker_joined",
            Event::WorkerLeft { .. } => "worker_left",
            Event::WorkerEvicted { .. } => "worker_evicted",
            Event::WorkerFlagged { .. } => "worker_flagged",
            Event::WorkerCleared { .. } => "worker_cleared",
            Event::FreeriderEvicted { .. } => "freerider_evicted",
            Event::BootstrapDone { .. } => "bootstrap_done",
            Event::RoundDone { .. } => "round_done",
            Event::NanDetected { .. } => "nan_detected",
            Event::Rollback { .. } => "rollback",
            Event::CheckpointWritten { .. } => "checkpoint_written",
            Event::Resumed { .. } => "resumed",
            Event::Custom { .. } => "custom",
        }
    }

    /// The worker this event concerns, if any.
    pub fn worker(&self) -> Option<usize> {
        match self {
            Event::WorkerFault { worker, .. }
            | Event::StaleUpdate { worker, .. }
            | Event::WorkerSuspected { worker, .. }
            | Event::WorkerRejoined { worker, .. }
            | Event::WorkerJoined { worker, .. }
            | Event::WorkerLeft { worker, .. }
            | Event::WorkerEvicted { worker, .. }
            | Event::WorkerFlagged { worker, .. }
            | Event::WorkerCleared { worker, .. }
            | Event::FreeriderEvicted { worker, .. }
            | Event::BootstrapDone { worker, .. } => Some(*worker),
            _ => None,
        }
    }
}

/// An [`Event`] stamped with nanoseconds since recorder start.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// Nanoseconds since the owning recorder was created.
    pub t_ns: u64,
    /// The event payload.
    pub event: Event,
}

impl TimedEvent {
    /// Renders as one compact JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        let o = Object::new()
            .field_str("type", self.event.kind())
            .field_u64("t_ns", self.t_ns);
        match &self.event {
            Event::IterDone { iter, alive } => o
                .field_u64("iter", *iter as u64)
                .field_u64("alive", *alive as u64),
            Event::SwapDone { iter, moved } => o
                .field_u64("iter", *iter as u64)
                .field_u64("moved", *moved as u64),
            Event::WorkerFault { iter, worker } => o
                .field_u64("iter", *iter as u64)
                .field_u64("worker", *worker as u64),
            Event::EvalDone {
                iter,
                is_score,
                fid,
            } => o
                .field_u64("iter", *iter as u64)
                .field_f64("is", *is_score)
                .field_f64("fid", *fid),
            Event::StaleUpdate {
                iter,
                worker,
                staleness,
            } => o
                .field_u64("iter", *iter as u64)
                .field_u64("worker", *worker as u64)
                .field_u64("staleness", *staleness as u64),
            Event::WorkerSuspected { iter, worker }
            | Event::WorkerRejoined { iter, worker }
            | Event::WorkerJoined { iter, worker }
            | Event::WorkerLeft { iter, worker }
            | Event::WorkerEvicted { iter, worker }
            | Event::WorkerCleared { iter, worker }
            | Event::FreeriderEvicted { iter, worker } => o
                .field_u64("iter", *iter as u64)
                .field_u64("worker", *worker as u64),
            Event::WorkerFlagged {
                iter,
                worker,
                norm_score,
                self_cos,
                peer_cos,
            } => o
                .field_u64("iter", *iter as u64)
                .field_u64("worker", *worker as u64)
                .field_f64("norm_score", *norm_score)
                .field_f64("self_cos", *self_cos)
                .field_f64("peer_cos", *peer_cos),
            Event::BootstrapDone {
                iter,
                worker,
                bytes,
            } => o
                .field_u64("iter", *iter as u64)
                .field_u64("worker", *worker as u64)
                .field_u64("bytes", *bytes),
            Event::RoundDone { round } => o.field_u64("round", *round as u64),
            Event::NanDetected { iter, verdict } => o
                .field_u64("iter", *iter as u64)
                .field_str("verdict", verdict),
            Event::Rollback { iter, to_iter } => o
                .field_u64("iter", *iter as u64)
                .field_u64("to_iter", *to_iter as u64),
            Event::CheckpointWritten { iter, bytes } => {
                o.field_u64("iter", *iter as u64).field_u64("bytes", *bytes)
            }
            Event::Resumed { iter } => o.field_u64("iter", *iter as u64),
            Event::Custom { name, value } => o.field_str("name", name).field_f64("value", *value),
        }
        .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        assert_eq!(Event::IterDone { iter: 0, alive: 1 }.kind(), "iter_done");
        assert_eq!(
            Event::StaleUpdate {
                iter: 1,
                worker: 2,
                staleness: 3
            }
            .kind(),
            "stale_update"
        );
    }

    #[test]
    fn worker_extraction() {
        assert_eq!(Event::WorkerFault { iter: 5, worker: 3 }.worker(), Some(3));
        assert_eq!(Event::IterDone { iter: 5, alive: 4 }.worker(), None);
    }

    #[test]
    fn jsonl_lines_render() {
        let e = TimedEvent {
            t_ns: 42,
            event: Event::EvalDone {
                iter: 100,
                is_score: 2.5,
                fid: 31.0,
            },
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"eval_done","t_ns":42,"iter":100,"is":2.5,"fid":31.0}"#
        );
        let f = TimedEvent {
            t_ns: 7,
            event: Event::SwapDone { iter: 9, moved: 4 },
        };
        assert_eq!(
            f.to_json(),
            r#"{"type":"swap_done","t_ns":7,"iter":9,"moved":4}"#
        );
    }
}
