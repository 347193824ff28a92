//! MD-GAN (Algorithm 1): one generator on the server, one discriminator
//! per worker, peer-to-peer discriminator swaps.
//!
//! * [`server`] — the generator-learning procedure (§IV-B): k-batch
//!   generation, SPLIT distribution, feedback aggregation and Adam update.
//! * [`worker`] — the discriminator-learning procedure (§IV-C): L local
//!   steps on `(X_r, X_d)` and the error feedback `F_n = ∂B̃(X_g)/∂x`;
//!   Algorithm 1's worker side, written once — a worker's turn (compute,
//!   attack, codec, span, tally) and a swap's receive side — which every
//!   runtime calls, keeping only its own uplink.
//! * `round` — Algorithm 1's server side, written once: a `Coordinator`
//!   whose `round` spells one global iteration over a `Cluster` transport,
//!   and the steps another schedule reuses (churn, forensics, eviction,
//!   the permutation swap).
//! * [`trainer`] — the deterministic sequential runtime (used by all
//!   experiments): the coordinator over the workers themselves
//!   (`InProcess`), in the interaction order of the paper's emulation.
//! * [`threaded`] — the coordinator over one thread per node and
//!   `md-simnet` endpoints, bit-for-bit equivalent to the sequential
//!   runtime given the same seed.
//! * [`asynchronous`] — §VII.1: one Adam step per arriving feedback, its
//!   own schedule over the same server, the same `InProcess` workers and
//!   links, the same round steps and checkpoint sections.

pub mod asynchronous;
pub(crate) mod round;
pub mod server;
pub mod threaded;
pub mod trainer;
pub mod worker;

use md_tensor::Tensor;

/// Messages exchanged in the threaded runtime.
#[derive(Clone, Debug)]
pub enum MdMsg {
    /// Server → worker: the two generated batches of a global iteration
    /// (`X_g` trains the generator via feedback, `X_d` trains D).
    Batches {
        /// Global iteration these batches belong to (the virtual tick the
        /// feedback is sent at).
        iter: usize,
        /// Which generated batch `X_g` came from (for feedback grouping).
        g_id: usize,
        /// Generated batch used for the error feedback.
        xg: Tensor,
        /// Labels the generator was conditioned on for `xg`.
        xg_labels: Vec<usize>,
        /// Generated batch used for discriminator training.
        xd: Tensor,
        /// Labels for `xd`.
        xd_labels: Vec<usize>,
    },
    /// Worker → server: the error feedback `F_n` on `X_g`.
    Feedback {
        /// Generated-batch id this feedback refers to.
        g_id: usize,
        /// `∂B̃/∂x` for every element of the batch.
        grad: Tensor,
    },
    /// Server → worker: swap your discriminator to worker `to`.
    SwapTo {
        /// Destination worker id (1-based node id).
        to: usize,
        /// Global iteration the swap fires at (the sender's virtual tick
        /// for the discriminator transfer).
        iter: usize,
    },
    /// Worker → worker: discriminator parameters (the gossip swap).
    Disc {
        /// Flat parameter vector `θ`.
        params: Vec<f32>,
    },
    /// Server → worker: ship your full training state (checkpoint gather).
    ///
    /// A control message outside the simulated network model: checkpoint
    /// persistence must not perturb traffic accounting, or a resumed run
    /// would stop being bit-identical to an uninterrupted one.
    StateRequest,
    /// Worker → server: the complete worker state answering a
    /// [`StateRequest`](MdMsg::StateRequest).
    WorkerState {
        /// 1-based worker id.
        id: usize,
        /// Flat discriminator parameters `θ`.
        disc: Vec<f32>,
        /// Adam step count of the discriminator optimizer.
        adam_t: u64,
        /// Adam first moments.
        opt_m: Vec<f32>,
        /// Adam second moments.
        opt_v: Vec<f32>,
        /// The worker's recorded [`DelayedEcho`](crate::byzantine::Attack::DelayedEcho)
        /// feedback, once it has one.
        echo: Option<Tensor>,
    },
    /// Server → worker: crash silently (robust mode's fail-stop injection).
    ///
    /// Unlike [`Stop`](MdMsg::Stop) the worker keeps draining its queue
    /// without answering, so its death is observable only through the
    /// feedbacks it no longer sends — exactly what the failure detector
    /// must infer.
    Crash,
    /// Stands in for a [`Feedback`](MdMsg::Feedback) or a swap
    /// [`Disc`](MdMsg::Disc) that will never arrive: the fault layer lost
    /// it, or the swap source crashed. Whoever knows (the sender, which
    /// drew the fate, or the server, which holds the ground truth) sends
    /// it uncharged in the payload's place, so every receiver waits for an
    /// exact count of answers and never for a clock.
    Lost,
    /// Server → worker: ship your discriminator parameters so a joining
    /// worker can bootstrap from them. The worker answers with
    /// [`Disc`](MdMsg::Disc) charged at full parameter cost — unlike
    /// [`StateRequest`](MdMsg::StateRequest) this *is* part of the
    /// simulated network (a join really moves a snapshot over the wire).
    DiscPull {
        /// Global iteration of the join (the reply's virtual tick).
        iter: usize,
    },
    /// Server → joining worker: a discriminator snapshot serialized as a
    /// checkpoint-v2 blob (see [`bootstrap_blob`]). The joiner installs it
    /// before processing its first batches.
    Bootstrap {
        /// Checkpoint-v2 bytes holding one `disc` section.
        blob: Vec<u8>,
    },
    /// Server → worker: terminate (end of training or simulated crash).
    Stop,
}

/// Serializes a discriminator snapshot for bootstrap-on-join, reusing the
/// checkpoint-v2 section format (CRC-protected, versioned) so the wire
/// blob and the on-disk format stay one codebase.
pub fn bootstrap_blob(iter: u64, disc: &[f32]) -> Vec<u8> {
    let mut ck = crate::checkpoint::Checkpoint::new(iter);
    ck.push("disc", disc.to_vec());
    ck.to_bytes().to_vec()
}

/// Decodes a [`bootstrap_blob`] back into flat discriminator parameters.
pub fn bootstrap_disc(blob: &[u8]) -> std::io::Result<Vec<f32>> {
    let ck = crate::checkpoint::Checkpoint::from_bytes(blob)?;
    Ok(ck.require("disc")?.to_vec())
}
