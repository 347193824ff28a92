//! Asynchronous MD-GAN — the paper's §VII.1 perspective, implemented.
//!
//! > "Instead \[of\] waiting \[for\] all F every global iteration, the server
//! > may compute a gradient Δw and apply it each time it receives a single
//! > F_n. Fresh batches of data can be generated frequently, so that they
//! > can be sent to idle workers. [...] because of asynchronous updates,
//! > there is no guarantee that the parameters w of a worker n at time t
//! > (used to generate X_g^n) are the same at time t+Δt when it sends its
//! > F_n to the server. [...] the training task nevertheless works well if
//! > the learning rate is adapted in consequence \[14\], \[31\]."
//!
//! Design:
//! * The server keeps a ring of pending generated batches, each stamped
//!   with the generator *version* (number of Adam steps) it was produced
//!   by. A worker gets fresh batches the moment it reports in.
//! * Each incoming feedback is applied immediately: one backward pass over
//!   its (possibly stale) pending batch and one Adam step, scaled by a
//!   staleness-aware factor `1/(1 + staleness)^damping` (the standard
//!   staleness-aware async-SGD rule of Zhang et al. \[14\]).
//! * The sequential runtime simulates asynchrony deterministically: worker
//!   completion order is drawn from a stream keyed by the event count,
//!   with a configurable "speed" skew, so slow-worker staleness patterns
//!   are reproducible.
//!
//! Only the schedule is this module's: update-count ticks, who reports
//! next, staleness damping, the swap cadence, leaves at the event boundary
//! and eviction on the first flag. The population is the sequential
//! runtime's `InProcess` — workers, attack states, fault plan — and a
//! worker's turn, the swap-in, bootstrap-on-join, crashes, leaves and the
//! forensics verdicts are the steps `mdgan::worker` and `mdgan::round`
//! spell once for every runtime.

use crate::arch::ArchSpec;
use crate::byzantine::{push_echoes, restore_echoes};
use crate::checkpoint::Checkpoint;
use crate::compression::Codec;
use crate::config::{MdGanConfig, SwapPolicy};
use crate::defense::FeedbackForensics;
use crate::error::{ckerr, TrainError};
use crate::eval::{Evaluator, ScoreTimeline};
use crate::mdgan::round::{
    alive, arrivals, attack_states, build_parts, depart, evict, permute, verdicts, Call, Cluster,
    SCHED_STREAM, SWAP_STREAM,
};
use crate::mdgan::server::MdServer;
use crate::mdgan::trainer::{wire, InProcess};
use crate::mdgan::worker::{push_workers, restore_workers, Batch};
use md_data::Dataset;
use md_nn::param::batch_bytes;
use md_simnet::{ChurnKind, Membership, TrafficReport, TrafficStats};
use md_telemetry::{Event, Phase, Recorder, TraceCtx, Track};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;
use std::sync::Arc;

/// Configuration of the asynchronous runtime.
#[derive(Clone, Copy, Debug)]
pub struct AsyncConfig {
    /// Staleness damping exponent: the effective update scale is
    /// `1/(1+staleness)^damping`. `0.0` disables staleness awareness.
    pub staleness_damping: f32,
    /// Per-worker relative speed skew in `[0, 1)`: `0` makes all workers
    /// equally fast (uniform completion order), larger values make low-id
    /// workers increasingly likely to report first, creating persistent
    /// staleness for the others.
    pub speed_skew: f32,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            staleness_damping: 0.5,
            speed_skew: 0.3,
        }
    }
}

/// One worker's in-flight work unit.
struct InFlight {
    /// Generator version that produced the batches.
    version: u64,
    xg: Batch,
    xd: Batch,
    /// Noise that produced `xg` (for the server-side replay).
    zg: Tensor,
    /// Trace context of the dispatch that produced this unit: the worker's
    /// later compute + feedback hang off it, so staleness is visible as a
    /// cross-event causal edge in the exported trace. Not checkpointed
    /// (trace ids are transient per-process); restored units are untraced.
    ctx: TraceCtx,
}

/// Statistics of an asynchronous run.
#[derive(Clone, Copy, Debug, Default)]
pub struct AsyncStats {
    /// Total feedbacks applied (= generator updates).
    pub updates: u64,
    /// Sum of observed staleness values.
    pub staleness_sum: u64,
    /// Maximum observed staleness.
    pub staleness_max: u64,
}

impl AsyncStats {
    /// Mean staleness per update.
    pub fn mean_staleness(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.staleness_sum as f64 / self.updates as f64
        }
    }
}

/// The asynchronous MD-GAN system (deterministic simulation).
pub struct AsyncMdGan {
    server: MdServer,
    /// The workers, their attack states and — robust configs only — the
    /// fault plan, whose virtual tick here is the applied-update count.
    cluster: InProcess,
    in_flight: Vec<Option<InFlight>>,
    cfg: MdGanConfig,
    acfg: AsyncConfig,
    stats: Arc<TrafficStats>,
    /// Key of the scheduler streams (refills and the reporter pick),
    /// stepped by `events`, and of the swap streams, stepped by `updates`.
    key: u64,
    version: u64,
    updates: u64,
    /// Events that reached the scheduler, applied or not: a starved, lost
    /// or quarantined event moves no update count but must not replay.
    events: u64,
    async_stats: AsyncStats,
    swap_interval: usize,
    object_size: usize,
    telemetry: Arc<Recorder>,
    /// Epoch-numbered cluster view. Churn-plan iterations are interpreted
    /// in *update* time (the async notion of a tick): an event with
    /// `iter = t` fires before the event that applies update `t`.
    membership: Membership,
    /// Index of the next unapplied churn event (events are kept sorted).
    churn_cursor: usize,
    /// Server-side free-rider forensics. The async runtime has no failure
    /// detector, so a freshly flagged worker is evicted immediately.
    forensics: FeedbackForensics,
}

impl AsyncMdGan {
    /// Builds the system; seeds/shards exactly like the synchronous runtime.
    pub fn new(spec: &ArchSpec, shards: Vec<Dataset>, cfg: MdGanConfig, acfg: AsyncConfig) -> Self {
        let object_size = shards[0].object_size();
        let swap_interval = cfg.swap_interval(shards[0].len());
        let total = cfg.total_workers();
        let (server, workers, key) = build_parts(spec, shards, &cfg);
        let attacks = attack_states(&cfg, &workers);
        AsyncMdGan {
            server,
            cluster: InProcess::new(&cfg, workers, attacks),
            in_flight: (0..total).map(|_| None).collect(),
            acfg,
            stats: Arc::new(TrafficStats::new(1 + total)),
            key,
            version: 0,
            updates: 0,
            events: 0,
            async_stats: AsyncStats::default(),
            swap_interval,
            object_size,
            telemetry: Arc::new(Recorder::disabled()),
            membership: Membership::new(cfg.workers, total),
            churn_cursor: 0,
            forensics: FeedbackForensics::new(cfg.defense, total),
            cfg,
        }
    }

    /// The current membership view (epoch-numbered).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Attaches a telemetry recorder (the default is a disabled no-op one).
    pub fn with_telemetry(mut self, recorder: Arc<Recorder>) -> Self {
        self.telemetry = recorder;
        self
    }

    /// The attached telemetry recorder.
    pub fn telemetry(&self) -> &Arc<Recorder> {
        &self.telemetry
    }

    /// Generator updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Async-specific statistics.
    pub fn async_stats(&self) -> AsyncStats {
        self.async_stats
    }

    /// The server generator.
    pub fn generator_mut(&mut self) -> &mut md_nn::gan::Generator {
        &mut self.server.gen
    }

    /// Flat generator parameters.
    pub fn gen_params(&self) -> Vec<f32> {
        self.server.gen_params()
    }

    /// Traffic snapshot.
    pub fn traffic(&self) -> TrafficReport {
        self.stats.report()
    }

    /// Dispatches fresh batches, drawn from `sched`, to a worker with no
    /// in-flight work, over `call`'s link. The dispatched unit is stamped
    /// with the downlink's context so the worker's eventual compute links
    /// back to this dispatch.
    fn dispatch(&mut self, wi: usize, call: &Call, sched: &mut Rng64) {
        let tick = self.updates;
        let _span = call
            .telemetry
            .span_at(Phase::GenForward, Track::Server, call.ctx, tick);
        let b = self.cfg.hyper.batch;
        let zg = self.server.gen.sample_z(b, sched);
        let lg = self.server.gen.sample_labels(b, sched);
        let xg = self.server.gen.generate(&zg, &lg, true);
        let zd = self.server.gen.sample_z(b, sched);
        let ld = self.server.gen.sample_labels(b, sched);
        let xd = self.server.gen.generate(&zd, &ld, true);
        let down_bytes = 2 * batch_bytes(b, self.object_size);
        // A lost dispatch leaves the worker idle until the next event
        // re-dispatches fresh batches.
        let link = wire(&self.cluster.faults, call);
        let Some(ctx) = link.carry(0, wi + 1, down_bytes, tick, call.ctx) else {
            return;
        };
        self.in_flight[wi] = Some(InFlight {
            version: self.version,
            xg: (xg, lg),
            xd: (xd, ld),
            zg,
            ctx,
        });
    }

    /// The scheduler stream the next event draws from.
    fn sched_stream(&self) -> Rng64 {
        Rng64::keyed(self.key, SCHED_STREAM, self.events)
    }

    /// Picks which alive worker reports next. With `speed_skew = s`, the
    /// weight of the j-th alive worker is `(1-s)^j` — low ids finish first
    /// in expectation, so high ids accumulate staleness.
    fn next_reporter(&self, alive: &[usize], sched: &mut Rng64) -> usize {
        debug_assert!(!alive.is_empty());
        let s = self.acfg.speed_skew.clamp(0.0, 0.95);
        if s == 0.0 || alive.len() == 1 {
            return alive[sched.below(alive.len())];
        }
        let weights: Vec<f32> = (0..alive.len()).map(|j| (1.0 - s).powi(j as i32)).collect();
        let total: f32 = weights.iter().sum();
        let mut draw = sched.uniform() * total;
        for (j, &w) in weights.iter().enumerate() {
            if draw < w {
                return alive[j];
            }
            draw -= w;
        }
        *alive.last().unwrap()
    }

    /// One asynchronous event: a worker completes its local work, its
    /// feedback is applied immediately (one Adam step), and it is handed
    /// fresh batches. Returns the worker that reported, or `None` if all
    /// workers have crashed.
    pub fn step_event(&mut self) -> Option<usize> {
        let t = self.updates as usize;
        // Own handles, so what the shared steps are lent borrows nothing of
        // `self`. Every message's virtual tick is the applied-update count.
        let (telemetry, stats) = (Arc::clone(&self.telemetry), Arc::clone(&self.stats));
        let retries = self.cfg.robust.retries;
        let call = |tick: u64, ctx: TraceCtx| Call {
            iter: tick as usize,
            ctx,
            stats: &stats,
            telemetry: &telemetry,
            retries,
            feedback_codec: Codec::None,
        };
        let boundary = call(self.updates, TraceCtx::NONE);

        // Crashes and churn fire once their update-time tick is reached.
        // There is no synchronous iteration to drain through, so a graceful
        // leave departs at the event boundary. In-flight work dies with its
        // worker.
        let events = self.cfg.churn.events();
        let due = events[self.churn_cursor..].partition_point(|e| e.iter <= t);
        let due = &events[self.churn_cursor..self.churn_cursor + due];
        self.churn_cursor += due.len();
        let (cluster, membership) = (&mut self.cluster, &mut self.membership);
        arrivals(cluster, membership, &self.cfg.crash, due, &boundary);
        for ev in due.iter().filter(|e| e.kind == ChurnKind::Leave) {
            depart(cluster, membership, ev, &boundary);
        }
        for (slot, fl) in self.in_flight.iter_mut().enumerate() {
            if !cluster.present(slot) {
                *fl = None;
            }
        }
        let alive = alive(&self.cluster, &self.membership);
        if alive.is_empty() {
            return None;
        }

        // Root the event's trace on the applied-update count.
        let root = telemetry.trace_root(self.updates);
        let rctx = root.ctx();

        // Fill idle workers (on a lossy network a dispatch may be dropped,
        // leaving the worker idle for this event). The refills and the pick
        // draw in order from the event's one scheduler stream.
        let mut sched = self.sched_stream();
        self.events += 1;
        for &wi in &alive {
            if self.in_flight[wi].is_none() {
                self.dispatch(wi, &call(self.updates, rctx), &mut sched);
            }
        }
        let ready: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&w| self.in_flight[w].is_some())
            .collect();
        if ready.is_empty() {
            // Every dispatch this round was lost. The event passes with no
            // progress; the next one re-dispatches.
            telemetry.event(Event::Custom {
                name: "async_starved",
                value: t as f64,
            });
            return Some(alive[0]);
        }

        // The compute hangs off the dispatch that produced the unit
        // (possibly a previous event — staleness as a causal edge).
        let wi = self.next_reporter(&ready, &mut sched);
        let fl = self.in_flight[wi].take().expect("reporter had work");
        let worker = self.cluster.workers[wi].as_mut().expect("reporter alive");
        let attack = &mut self.cluster.attacks[wi];
        let (feedback, bytes, fctx) = worker.turn(
            attack,
            &fl.xd,
            &fl.xg,
            Codec::None,
            &telemetry,
            fl.ctx,
            self.updates,
        );
        let link = wire(&self.cluster.faults, &boundary);
        if link.carry(wi + 1, 0, bytes, self.updates, fctx).is_none() {
            // The feedback was lost on the wire: the local work is wasted
            // and the generator never sees it.
            return Some(wi);
        }

        // Feedback forensics on the single delivered feedback: the async
        // server scores each arrival against the running population norms
        // and the sender's own history (no same-iteration peer group
        // exists, so the peer-cosine signal stays unscored). There is no
        // failure detector on this path, so a freshly flagged worker is
        // evicted on the spot. A quarantined feedback was delivered (bytes
        // charged) but is not allowed to touch the generator.
        if self.cfg.defense.enabled {
            let (membership, forensics) = (&mut self.membership, &mut self.forensics);
            let verdict = verdicts(forensics, &[(wi, 0, &feedback)], &boundary)[0];
            if verdict.newly_flagged {
                evict(membership, forensics, wi, true, &boundary);
                return Some(wi);
            }
            if verdict.quarantined {
                return Some(wi);
            }
        }

        // Staleness-aware immediate update: replay the stale batch's
        // forward pass, then apply a damped gradient.
        let staleness = self.version - fl.version;
        self.async_stats.updates += 1;
        self.async_stats.staleness_sum += staleness;
        self.async_stats.staleness_max = self.async_stats.staleness_max.max(staleness);
        let scale = if self.acfg.staleness_damping > 0.0 {
            (1.0 / (1.0 + staleness as f32)).powf(self.acfg.staleness_damping)
        } else {
            1.0
        };

        if staleness > 0 {
            telemetry.event(Event::StaleUpdate {
                iter: t,
                worker: wi + 1,
                staleness: staleness as usize,
            });
        }
        let upd_span = telemetry.span_at(Phase::GUpdate, Track::Server, rctx, self.updates);
        let _ = self.server.gen.generate(&fl.zg, &fl.xg.1, true);
        self.server.gen.backward_first(&feedback.scale(scale));
        self.server.apply_external_step();
        drop(upd_span);
        self.version += 1;
        self.updates += 1;

        // Gossip swap on the same cadence as the synchronous runtime:
        // N applied updates ≈ one synchronous global iteration.
        if self.cfg.swap != SwapPolicy::Disabled
            && (self.updates as usize).is_multiple_of(self.swap_interval * self.cfg.workers.max(1))
        {
            let swap_span = telemetry.span_at(Phase::Swap, Track::Server, rctx, self.updates);
            let swap = call(self.updates, swap_span.ctx());
            let rng = &mut Rng64::keyed(self.key, SWAP_STREAM, self.updates);
            if let Some(moved) = permute(&mut self.cluster, &alive, self.cfg.swap, rng, &swap) {
                telemetry.event(Event::SwapDone { iter: t, moved });
            }
        }
        telemetry.event(Event::IterDone {
            iter: t,
            alive: alive.len(),
        });
        Some(wi)
    }

    /// Runs until `n_updates` generator updates have been applied, scoring
    /// every `eval_every` updates.
    pub fn train(
        &mut self,
        n_updates: usize,
        eval_every: usize,
        mut evaluator: Option<&mut Evaluator>,
    ) -> ScoreTimeline {
        let mut timeline = ScoreTimeline::new();
        for u in 0..=n_updates {
            if u > 0 && self.step_event().is_none() {
                break;
            }
            if let Some(ev) = evaluator.as_deref_mut() {
                if u % eval_every.max(1) == 0 || u == n_updates {
                    ev.score_point(&mut self.server.gen, u, &self.telemetry, &mut timeline);
                }
            }
        }
        timeline
    }

    /// Captures the full asynchronous state — including every worker's
    /// *in-flight* batch (its tensors, labels and generator version), which
    /// an older generator produced and no counter can regenerate — and the
    /// echo attackers' recorded feedbacks. No stream position is saved:
    /// the scheduler streams are keyed by the event count and the swap
    /// streams by the update count, both in `counters`.
    ///
    /// Robust-mode state (per-link fault RNG) is *not* captured; resuming
    /// a lossy run restarts the link fates cold (see DESIGN.md §10).
    pub fn checkpoint(&self) -> Checkpoint {
        let mut ck = Checkpoint::new(self.updates);
        let gen_t = self.server.push_sections(&mut ck);
        push_workers(&mut ck, self.cluster.worker_states(), gen_t);
        let in_flight: Vec<u64> = self
            .in_flight
            .iter()
            .map(|f| u64::from(f.is_some()))
            .collect();
        let labels = |l: &[usize]| l.iter().map(|&l| l as u64).collect();
        for (i, fl) in self.in_flight.iter().enumerate() {
            let Some(fl) = fl else { continue };
            ck.push_tensor(&format!("fl_{i}_xg"), &fl.xg.0);
            ck.push_tensor(&format!("fl_{i}_xd"), &fl.xd.0);
            ck.push_tensor(&format!("fl_{i}_zg"), &fl.zg);
            ck.push_u64(format!("fl_{i}_lg"), labels(&fl.xg.1));
            ck.push_u64(format!("fl_{i}_ld"), labels(&fl.xd.1));
            ck.push_u64(format!("fl_{i}_ver"), vec![fl.version]);
        }
        ck.push_u64("in_flight", in_flight);
        ck.push_u64(
            "counters",
            vec![
                self.version,
                self.updates,
                self.async_stats.updates,
                self.async_stats.staleness_sum,
                self.async_stats.staleness_max,
                self.events,
            ],
        );
        ck.push_u64("traffic", self.stats.state_words());
        // Only churn-enabled runs carry membership state, keeping the
        // default-path checkpoint format byte-identical.
        if !self.cfg.churn.is_none() {
            ck.push_u64("membership", self.membership.state_words());
            ck.push_u64("churn_cursor", vec![self.churn_cursor as u64]);
        }
        push_echoes(&mut ck, self.cluster.echoes());
        ck
    }

    /// Restores a checkpoint taken on an identically configured system.
    /// Missing or length-mismatched sections are errors, not silent skips.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
        let n = self.in_flight.len();
        self.server.restore_sections(ck)?;
        restore_workers(ck, &mut self.cluster.workers)?;
        restore_echoes(ck, &mut self.cluster.attacks)?;

        let mask = ck.require_u64_len("in_flight", n).map_err(ckerr)?.to_vec();
        for (i, &present) in mask.iter().enumerate() {
            if present == 0 {
                self.in_flight[i] = None;
                continue;
            }
            let labels = |name: &str| -> Result<Vec<usize>, TrainError> {
                let words = ck.require_u64(name).map_err(ckerr)?;
                Ok(words.iter().map(|&l| l as usize).collect())
            };
            let tensor = |name: &str| ck.require_tensor(name).map_err(ckerr);
            self.in_flight[i] = Some(InFlight {
                version: ck
                    .require_u64_len(&format!("fl_{i}_ver"), 1)
                    .map_err(ckerr)?[0],
                xg: (
                    tensor(&format!("fl_{i}_xg"))?,
                    labels(&format!("fl_{i}_lg"))?,
                ),
                xd: (
                    tensor(&format!("fl_{i}_xd"))?,
                    labels(&format!("fl_{i}_ld"))?,
                ),
                zg: tensor(&format!("fl_{i}_zg"))?,
                ctx: TraceCtx::NONE,
            });
        }

        let counters = ck.require_u64_len("counters", 6).map_err(ckerr)?;
        self.version = counters[0];
        self.updates = counters[1];
        self.async_stats = AsyncStats {
            updates: counters[2],
            staleness_sum: counters[3],
            staleness_max: counters[4],
        };
        self.events = counters[5];
        self.stats
            .load_state_words(ck.require_u64("traffic").map_err(ckerr)?)
            .map_err(TrainError::Checkpoint)?;
        if !self.cfg.churn.is_none() {
            self.membership
                .load_state_words(ck.require_u64("membership").map_err(ckerr)?)
                .map_err(TrainError::Checkpoint)?;
            self.churn_cursor = ck.require_u64_len("churn_cursor", 1).map_err(ckerr)?[0] as usize;
            for slot in 0..self.membership.len() {
                if self.membership.status(slot) == md_simnet::MemberStatus::Left {
                    self.stats.retire(slot + 1);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::Attack;
    use crate::config::{GanHyper, KPolicy};
    use md_data::synthetic::mnist_like;
    use md_simnet::ChurnPlan;

    fn build(acfg: AsyncConfig) -> AsyncMdGan {
        build_with(acfg, |_| {})
    }

    /// As [`build`], with `edit` applied to the config first.
    fn build_with(acfg: AsyncConfig, edit: impl FnOnce(&mut MdGanConfig)) -> AsyncMdGan {
        let data = mnist_like(12, 4 * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(4, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut cfg = MdGanConfig {
            workers: 4,
            k: KPolicy::One,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Derangement,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 100,
            seed: 7,
            crash: Default::default(),
            ..MdGanConfig::default()
        };
        edit(&mut cfg);
        AsyncMdGan::new(&spec, shards, cfg, acfg)
    }

    fn build_lossy(drop: f32, seed: u64) -> AsyncMdGan {
        build_with(AsyncConfig::default(), |c| {
            c.fault = md_simnet::FaultPlan::lossy(seed, drop);
        })
    }

    #[test]
    fn every_event_updates_the_generator() {
        let mut md = build(AsyncConfig::default());
        let before = md.gen_params();
        md.step_event();
        assert_ne!(before, md.gen_params());
        assert_eq!(md.updates(), 1);
    }

    #[test]
    fn staleness_accumulates_under_skew() {
        let mut md = build(AsyncConfig {
            staleness_damping: 0.5,
            speed_skew: 0.8,
        });
        for _ in 0..60 {
            md.step_event();
        }
        let s = md.async_stats();
        assert_eq!(s.updates, 60);
        assert!(
            s.staleness_max >= 1,
            "skewed scheduling must create staleness"
        );
        assert!(s.mean_staleness() > 0.0);
    }

    #[test]
    fn uniform_speed_still_has_bounded_staleness() {
        let mut md = build(AsyncConfig {
            staleness_damping: 0.0,
            speed_skew: 0.0,
        });
        for _ in 0..60 {
            md.step_event();
        }
        // With N workers the staleness cannot exceed the in-flight window.
        assert!(md.async_stats().staleness_max <= 60);
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut md = build(AsyncConfig::default());
            for _ in 0..25 {
                md.step_event();
            }
            md.gen_params()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn params_stay_finite_with_damping() {
        let mut md = build(AsyncConfig {
            staleness_damping: 1.0,
            speed_skew: 0.9,
        });
        for _ in 0..100 {
            md.step_event();
        }
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn telemetry_records_stale_updates_and_phases() {
        use md_telemetry::Counter;
        let rec = Arc::new(Recorder::enabled());
        let mut md = build(AsyncConfig {
            staleness_damping: 0.5,
            speed_skew: 0.8,
        })
        .with_telemetry(Arc::clone(&rec));
        for _ in 0..60 {
            md.step_event();
        }
        // One d_feedback + one g_update span per applied event.
        assert_eq!(rec.phase_stats(Phase::DFeedback).count, 60);
        assert_eq!(rec.phase_stats(Phase::GUpdate).count, 60);
        // Dispatches refill idle workers: at least one per event.
        assert!(rec.phase_stats(Phase::GenForward).count >= 60);
        assert_eq!(rec.counter(Counter::Iterations), 60);
        // Telemetry's stale-update counter mirrors AsyncStats exactly.
        let observed_stale = rec.counter(Counter::StaleUpdates);
        assert!(
            observed_stale > 0,
            "skewed scheduling must create staleness"
        );
        let feedbacks: u64 = rec.worker_stats().iter().map(|w| w.feedbacks).sum();
        assert_eq!(feedbacks, 60);
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        for attack in crate::byzantine::EVERY_ATTACK {
            assert_resume_is_bit_identical(attack);
        }
    }

    /// Resume ≡ uninterrupted with worker 1 running `attack`: 20 events
    /// against 12, a checkpoint through the wire format, a fresh system
    /// restoring it and the remaining 8. The in-flight batches were drawn
    /// by older generators, so this passes only if they are captured and
    /// restored exactly.
    fn assert_resume_is_bit_identical(attack: Attack) {
        let mk = || build_with(AsyncConfig::default(), |c| c.attacks = vec![attack]);
        let mut full = mk();
        for _ in 0..20 {
            full.step_event();
        }

        let mut first = mk();
        for _ in 0..12 {
            first.step_event();
        }
        let bytes = first.checkpoint().to_bytes();
        drop(first);

        let mut resumed = mk();
        let ck = Checkpoint::from_bytes(&bytes).unwrap();
        assert!(ck.section_names().all(|n| !n.starts_with("rng")));
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.updates(), 12);
        for _ in 0..8 {
            resumed.step_event();
        }
        assert_eq!(resumed.gen_params(), full.gen_params(), "{attack:?}");
        assert_eq!(resumed.traffic(), full.traffic());
        let (a, b) = (resumed.async_stats(), full.async_stats());
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.staleness_sum, b.staleness_sum);
    }

    #[test]
    fn restore_rejects_missing_in_flight_tensor() {
        let mut md = build(AsyncConfig::default());
        md.step_event();
        let err = md.restore(&Checkpoint::new(1)).unwrap_err();
        assert!(err.to_string().contains("generator"), "got: {err}");
    }

    #[test]
    fn lossy_async_is_seed_deterministic_and_drops_traffic() {
        let run = || {
            let mut md = build_lossy(0.25, 9);
            for _ in 0..40 {
                md.step_event();
            }
            (md.gen_params(), md.traffic())
        };
        let (p1, t1) = run();
        let (p2, t2) = run();
        assert_eq!(p1, p2, "same fault seed must replay identically");
        assert_eq!(t1.dropped_bytes, t2.dropped_bytes);
        assert!(t1.dropped_msgs > 0, "25% drop must lose messages");
        assert_eq!(
            t1.bytes_sent(),
            t1.bytes_delivered() + t1.dropped_bytes,
            "conservation"
        );
        assert!(p1.iter().all(|v| v.is_finite()));
    }

    /// An event that applies no update — here a feedback lost on the
    /// uplink — still moves the scheduler on: the next event draws its
    /// refills and its reporter from a fresh stream, so the worker whose
    /// feedback was lost is neither re-sent the batch it just answered nor
    /// re-picked by the same draw.
    #[test]
    fn a_lost_feedback_does_not_replay_the_next_event() {
        let mut md = build_lossy(0.3, 9);
        md.cfg.robust.retries = 0;
        let mut lost = 0;
        for _ in 0..40 {
            let (updates, before) = (md.updates(), md.traffic());
            let stream = md.sched_stream().next_u64();
            let Some(wi) = md.step_event() else { break };
            let after = md.traffic();
            if md.updates() == updates
                && after.egress[wi + 1] > before.egress[wi + 1]
                && after.ingress[0] == before.ingress[0]
            {
                lost += 1;
                assert!(md.in_flight[wi].is_none(), "the lost unit is spent");
                assert_ne!(md.sched_stream().next_u64(), stream, "event replayed");
            }
        }
        assert!(lost > 0, "a 30% uplink drop must lose a feedback");
    }

    #[test]
    fn total_loss_starves_but_terminates() {
        let mut md = build_lossy(1.0, 3);
        md.cfg.robust.retries = 0;
        let before = md.gen_params();
        for _ in 0..20 {
            assert!(md.step_event().is_some(), "alive workers keep the run up");
        }
        // Nothing ever arrived: the generator never moved.
        assert_eq!(md.gen_params(), before);
        assert_eq!(md.updates(), 0);
        assert_eq!(md.traffic().bytes_delivered(), 0);
    }

    fn build_churn() -> AsyncMdGan {
        use md_simnet::ChurnEvent;
        let events = vec![
            ChurnEvent {
                iter: 5,
                worker: 5,
                kind: ChurnKind::Join,
            },
            ChurnEvent {
                iter: 10,
                worker: 2,
                kind: ChurnKind::Crash,
            },
            ChurnEvent {
                iter: 15,
                worker: 1,
                kind: ChurnKind::Leave,
            },
        ];
        let churn = ChurnPlan::from_events(4, events).unwrap();
        let total = churn.max_workers(4);
        let data = mnist_like(12, total * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(total, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let cfg = MdGanConfig {
            workers: 4,
            k: KPolicy::One,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Derangement,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 100,
            seed: 7,
            crash: Default::default(),
            churn,
            ..MdGanConfig::default()
        };
        AsyncMdGan::new(&spec, shards, cfg, AsyncConfig::default())
    }

    #[test]
    fn churn_evolves_view_and_stays_deterministic() {
        let run = || {
            let mut md = build_churn();
            for _ in 0..25 {
                md.step_event();
            }
            (md.gen_params(), md.membership().clone(), md.traffic())
        };
        let (p1, m1, t1) = run();
        let (p2, m2, t2) = run();
        assert_eq!(p1, p2, "churned async run must be seed-deterministic");
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
        // 4 initial → join (5) → crash (4) → leave (3).
        assert_eq!(m1.alive_count(), 3);
        assert_eq!(m1.epoch(), 3);
        assert!(p1.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn churn_resume_is_bit_identical() {
        let mut full = build_churn();
        for _ in 0..20 {
            full.step_event();
        }
        let mut first = build_churn();
        for _ in 0..12 {
            first.step_event();
        }
        let ck = first.checkpoint();
        assert!(ck.get_u64("membership").is_some());
        let bytes = ck.to_bytes();
        drop(first);
        let mut resumed = build_churn();
        resumed
            .restore(&Checkpoint::from_bytes(&bytes).unwrap())
            .unwrap();
        for _ in 0..8 {
            resumed.step_event();
        }
        assert_eq!(resumed.gen_params(), full.gen_params());
        assert_eq!(resumed.traffic(), full.traffic());
        assert_eq!(resumed.membership(), full.membership());
    }

    #[test]
    fn traffic_is_charged_per_event() {
        let mut md = build(AsyncConfig::default());
        for _ in 0..10 {
            md.step_event();
        }
        let r = md.traffic();
        // Every applied feedback cost bd upward.
        let d = (12 * 12) as u64;
        assert_eq!(
            r.bytes(md_simnet::LinkClass::WorkerToServer),
            10 * 4 * d * 4
        );
        // Dispatches: ≥ one 2bd send per applied event (idle refills).
        assert!(r.bytes(md_simnet::LinkClass::ServerToWorker) >= 10 * 2 * 4 * d * 4);
    }

    #[test]
    fn async_defense_evicts_a_freerider_immediately_on_flag() {
        use md_telemetry::Counter;
        let rec = Arc::new(Recorder::enabled());
        let mut md = build_with(AsyncConfig::default(), |c| {
            c.attacks = vec![Attack::PureNoise { std: 5.0 }];
            c.defense.enabled = true;
        })
        .with_telemetry(Arc::clone(&rec));
        for _ in 0..80 {
            if md.step_event().is_none() {
                break;
            }
        }
        // The noise fabricator was flagged and evicted on the spot (the
        // async path has no failure detector to graduate through).
        assert_eq!(rec.counter(Counter::WorkersFlagged), 1);
        assert_eq!(rec.counter(Counter::FreeridersEvicted), 1);
        assert_eq!(md.membership().status(0), md_simnet::MemberStatus::Evicted);
        for w in 1..4 {
            assert_eq!(md.membership().status(w), md_simnet::MemberStatus::Alive);
        }
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }
}
