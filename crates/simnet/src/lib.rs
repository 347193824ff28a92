//! # md-simnet
//!
//! A simulated distributed cluster for the MD-GAN experiments.
//!
//! The paper *emulates* its distributed deployment ("computation order of
//! interactions ... are preserved; raw timing performances ... are in this
//! context inaccessible"). This crate reproduces that methodology:
//!
//! * [`network::Router`] / [`network::Endpoint`] — message passing between
//!   one central server (node 0) and `N` workers (nodes `1..=N`) over
//!   crossbeam channels, one thread per node,
//! * [`stats::TrafficStats`] — byte-accurate ingress/egress accounting per
//!   node and per link class (server→worker, worker→server,
//!   worker→worker), the quantities behind Tables III/IV and Figure 2,
//! * [`fault::CrashSchedule`] — fail-stop worker crashes (worker and its
//!   data shard disappear), the mechanism behind Figure 5,
//! * [`fault::FaultPlan`] / [`fault::FaultState`] — seeded, deterministic
//!   lossy-network injection (drops, duplication, bounded delay,
//!   partitions) applied per data send,
//! * [`wire::Wire`] — one logical message over one link (charged, counted,
//!   traced, possibly lost) for runtimes that have no endpoint queues,
//! * [`detect::FailureDetector`] — timeout-based worker suspicion (with
//!   optional permanent eviction) for the oracle-free robust runtimes,
//! * [`membership::ChurnPlan`] / [`membership::Membership`] — seeded
//!   join/leave/crash schedules and the epoch-numbered alive view that
//!   elastic runs rebalance the SPLIT and swap schedules over.

pub mod detect;
pub mod fault;
pub mod membership;
pub mod network;
pub mod stats;
pub mod wire;

pub use detect::{FailureDetector, Liveness};
pub use fault::{CrashSchedule, Delivery, Fate, FaultPlan, FaultState, Partition, PartitionScope};
pub use membership::{ChurnEvent, ChurnKind, ChurnPlan, MemberStatus, Membership};
pub use network::{Endpoint, Envelope, NodeId, Router, SendError, SERVER};
pub use stats::{LinkClass, TrafficReport, TrafficStats};
pub use wire::Wire;
