//! # mdgan-core
//!
//! The paper's contribution: **MD-GAN**, a training algorithm for
//! generative adversarial networks over datasets spread across `N` workers,
//! with a *single generator* hosted on the central server and one
//! discriminator per worker, swapped peer-to-peer to prevent overfitting
//! (Hardy, Le Merrer & Sericola, IPDPS 2019).
//!
//! The crate contains:
//!
//! * [`config`] — hyper-parameter records for every competitor,
//! * [`arch`] — the paper's GAN architectures (MLP and CNN, §V-A.b),
//!   parameterized by image size, plus paper-scale parameter counts,
//! * [`mdgan`] — Algorithm 1: the server's generator-learning procedure
//!   (batch generation, SPLIT distribution, feedback aggregation, Adam
//!   update) and the workers' discriminator-learning procedure (L local
//!   steps, error feedback `F_n`, gossip swap), in both a deterministic
//!   sequential runtime and a thread-per-node runtime over `md-simnet`,
//! * [`federation`] — N local GANs plus periodic averaging, written once
//!   for the two averaging baselines below,
//! * [`flgan`] — the paper's adaptation of federated learning to GANs
//!   (each worker trains a full GAN; the server averages G and D every E
//!   epochs),
//! * [`gossip`] — the fully decentralized gossip-GAN baseline of the
//!   authors' prior work \[24\] (motivates MD-GAN in §VI),
//! * [`compression`], [`byzantine`], [`mdgan::asynchronous`] — the §VII
//!   perspectives (traffic compression, adversarial workers + robust
//!   aggregation, asynchronous updates), implemented,
//! * [`standalone`] — the single-server baseline,
//! * [`eval`] — score timelines (MS/IS + FID every `eval_every`
//!   iterations, as in Figures 3-6),
//! * [`complexity`] — the closed-form computation/memory/communication
//!   models of Tables II-IV and Figure 2,
//! * [`experiments`] — reusable runners behind every figure of §V.

pub mod arch;
pub mod byzantine;
pub mod checkpoint;
pub mod complexity;
pub mod compression;
pub mod config;
pub mod defense;
pub mod error;
pub mod eval;
pub mod experiments;
pub mod federation;
pub mod flgan;
pub mod gossip;
pub mod mdgan;
pub mod standalone;
pub mod supervisor;

pub use arch::ArchSpec;
pub use config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
pub use error::TrainError;
pub use eval::{Evaluator, ScoreTimeline};
pub use mdgan::trainer::MdGan;
pub use supervisor::{
    train_curve, Recoverable, SupervisorConfig, SupervisorReport, TrainSupervisor,
};
