//! Dynamic cluster membership: epoch-numbered views and seeded churn.
//!
//! The paper trains on a *fixed* star of `N` discriminators; this module
//! generalizes that to a cluster whose alive set changes mid-run. Two
//! pieces:
//!
//! * [`ChurnPlan`] — a deterministic schedule of join / graceful-leave /
//!   crash events, either written out explicitly
//!   ([`from_events`](ChurnPlan::from_events)) or generated from a seed
//!   ([`seeded`](ChurnPlan::seeded)) with the same SplitMix64 fate-stream
//!   design as [`FaultPlan`](crate::FaultPlan), so every runtime consuming
//!   the same plan sees the exact same membership history.
//! * [`Membership`] — the server's view of the cluster: one
//!   [`MemberStatus`] per worker slot plus an epoch counter that bumps on
//!   every transition. The alive view at a given epoch drives the k-batch
//!   SPLIT and the discriminator-swap schedule.
//!
//! Worker ids are 1-based (`1..=N`, node 0 is the server) to match
//! [`CrashSchedule`](crate::CrashSchedule); [`Membership`] methods take
//! 0-based *slots* (`id - 1`) to match the core crate's worker indexing.
//!
//! Ordering contract: within one iteration, crashes apply first, then
//! joins, while graceful leaves take effect at the *end* of the iteration
//! (the leaver drains: it computes and reports one final feedback before
//! departing). [`ChurnPlan`] stores events pre-sorted in that order.

use crate::fault::splitmix;

/// What happens to a worker at a churn event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChurnKind {
    /// A crashed worker disappears at the start of the iteration without
    /// contributing anything.
    Crash,
    /// A new worker appears at the start of the iteration, bootstraps its
    /// discriminator, and contributes feedback that same iteration.
    Join,
    /// A graceful leave: the worker participates fully in the event's
    /// iteration (drain + final feedback) and departs at its end.
    Leave,
}

impl ChurnKind {
    fn rank(self) -> u8 {
        match self {
            ChurnKind::Crash => 0,
            ChurnKind::Join => 1,
            ChurnKind::Leave => 2,
        }
    }
}

/// One membership transition at a given training iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Training iteration (0-based) the event fires at.
    pub iter: usize,
    /// Worker id, 1-based (node 0 is the server).
    pub worker: usize,
    /// The transition.
    pub kind: ChurnKind,
}

/// A deterministic membership schedule.
///
/// Like [`FaultPlan`](crate::FaultPlan), a plan is pure data computed
/// up-front: every runtime handed the same plan replays the same joins,
/// leaves, and crashes at the same iterations, which is what makes the
/// sequential and threaded runtimes bit-identical under churn.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ChurnPlan {
    seed: u64,
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// The empty plan: membership never changes.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// Whether this plan contains no events.
    pub fn is_none(&self) -> bool {
        self.events.is_empty()
    }

    /// Builds a plan from explicit events.
    ///
    /// Events are sorted into canonical order (iteration, then crash <
    /// join < leave, then worker id) and validated against `initial`
    /// workers: joiner ids must be dense above `initial`, no worker joins
    /// or departs twice, and a joiner's departure must come after its
    /// join.
    pub fn from_events(initial: usize, events: Vec<ChurnEvent>) -> Result<Self, String> {
        let mut events = events;
        events.sort_by_key(|e| (e.iter, e.kind.rank(), e.worker));
        let joins: Vec<usize> = events
            .iter()
            .filter(|e| e.kind == ChurnKind::Join)
            .map(|e| e.worker)
            .collect();
        for (j, &id) in joins.iter().enumerate() {
            let want = initial + 1 + j;
            if id != want {
                return Err(format!(
                    "join #{} has worker id {}, expected dense id {} (initial = {})",
                    j, id, want, initial
                ));
            }
        }
        let total = initial + joins.len();
        let mut joined_at = vec![None; total];
        let mut departed = vec![false; total];
        for ev in &events {
            if ev.worker == 0 || ev.worker > total {
                return Err(format!(
                    "event {:?} targets worker {} outside 1..={}",
                    ev.kind, ev.worker, total
                ));
            }
            let slot = ev.worker - 1;
            match ev.kind {
                ChurnKind::Join => {
                    if slot < initial {
                        return Err(format!("worker {} is initial, it cannot join", ev.worker));
                    }
                    joined_at[slot] = Some(ev.iter);
                }
                ChurnKind::Leave | ChurnKind::Crash => {
                    if departed[slot] {
                        return Err(format!("worker {} departs twice", ev.worker));
                    }
                    if slot >= initial {
                        match joined_at[slot] {
                            // A joiner may depart the same iteration at the
                            // earliest (join applies first by rank order).
                            Some(j) if j <= ev.iter => {}
                            _ => {
                                return Err(format!(
                                    "worker {} departs at iter {} before joining",
                                    ev.worker, ev.iter
                                ));
                            }
                        }
                    }
                    departed[slot] = true;
                }
            }
        }
        Ok(ChurnPlan { seed: 0, events })
    }

    /// Generates a plan from a seed: per iteration in `1..iters`, at most
    /// one crash, one join, and one graceful leave, each fired with the
    /// given per-iteration probability. Leave/crash victims are drawn from
    /// the set alive at that point of the schedule (never below one
    /// survivor); joiner ids are dense above `initial`.
    ///
    /// The draw is a pure SplitMix64 stream over `(seed, iter, stream)`,
    /// mirroring [`FaultPlan::fate`](crate::FaultPlan::fate): the same
    /// seed always yields the same plan.
    pub fn seeded(
        seed: u64,
        initial: usize,
        iters: usize,
        join_rate: f64,
        leave_rate: f64,
        crash_rate: f64,
    ) -> Self {
        let mut events = Vec::new();
        let mut alive: Vec<usize> = (1..=initial).collect();
        let mut next_id = initial + 1;
        for iter in 1..iters {
            if unit(draw(seed, iter, 0)) < crash_rate && alive.len() > 1 {
                let victim = alive.remove(draw(seed, iter, 1) as usize % alive.len());
                events.push(ChurnEvent {
                    iter,
                    worker: victim,
                    kind: ChurnKind::Crash,
                });
            }
            if unit(draw(seed, iter, 2)) < join_rate {
                events.push(ChurnEvent {
                    iter,
                    worker: next_id,
                    kind: ChurnKind::Join,
                });
                alive.push(next_id);
                alive.sort_unstable();
                next_id += 1;
            }
            if unit(draw(seed, iter, 3)) < leave_rate && alive.len() > 1 {
                let victim = alive.remove(draw(seed, iter, 4) as usize % alive.len());
                events.push(ChurnEvent {
                    iter,
                    worker: victim,
                    kind: ChurnKind::Leave,
                });
            }
        }
        events.sort_by_key(|e| (e.iter, e.kind.rank(), e.worker));
        ChurnPlan { seed, events }
    }

    /// The seed the plan was generated from (0 for explicit plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All events in canonical order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Events firing at `iter`, in canonical (crash, join, leave) order.
    pub fn events_at(&self, iter: usize) -> impl Iterator<Item = &ChurnEvent> {
        self.events.iter().filter(move |e| e.iter == iter)
    }

    /// Number of events of a kind.
    pub fn count(&self, kind: ChurnKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Number of join events (each adds one worker slot to the universe).
    pub fn joins(&self) -> usize {
        self.count(ChurnKind::Join)
    }

    /// Total worker slots a run starting with `initial` workers needs:
    /// every joiner is pre-allocated a slot so its model/RNG state can be
    /// constructed identically on every runtime.
    pub fn max_workers(&self, initial: usize) -> usize {
        initial + self.joins()
    }
}

/// One draw from the plan's fate stream.
fn draw(seed: u64, iter: usize, stream: u64) -> u64 {
    let s = splitmix(seed ^ stream.wrapping_mul(0x00C4_EC11));
    splitmix(s ^ (iter as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Maps a hash to a uniform f64 in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Lifecycle state of one worker slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberStatus {
    /// Slot reserved for a joiner that has not arrived yet.
    Pending,
    /// Participating in training.
    Alive,
    /// Departed gracefully (drained, final feedback delivered).
    Left,
    /// Fail-stop crashed (oracle knowledge).
    Crashed,
    /// Permanently removed by the failure detector after sustained
    /// suspicion — never rejoins.
    Evicted,
}

impl MemberStatus {
    fn as_word(self) -> u64 {
        match self {
            MemberStatus::Pending => 0,
            MemberStatus::Alive => 1,
            MemberStatus::Left => 2,
            MemberStatus::Crashed => 3,
            MemberStatus::Evicted => 4,
        }
    }

    fn from_word(w: u64) -> Result<Self, String> {
        Ok(match w {
            0 => MemberStatus::Pending,
            1 => MemberStatus::Alive,
            2 => MemberStatus::Left,
            3 => MemberStatus::Crashed,
            4 => MemberStatus::Evicted,
            _ => return Err(format!("unknown member status word {w}")),
        })
    }
}

/// The server's epoch-numbered view of cluster membership.
///
/// Slots are 0-based worker indices over the full universe (`initial`
/// workers plus every planned joiner). The epoch bumps on every
/// transition, so two views are interchangeable iff their epochs match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Membership {
    status: Vec<MemberStatus>,
    epoch: u64,
}

impl Membership {
    /// A view with `initial` alive workers and `total - initial` pending
    /// joiner slots, at epoch 0.
    pub fn new(initial: usize, total: usize) -> Self {
        assert!(initial <= total, "initial {initial} exceeds total {total}");
        let mut status = vec![MemberStatus::Alive; initial];
        status.resize(total, MemberStatus::Pending);
        Membership { status, epoch: 0 }
    }

    /// The view a run of `initial` workers under `plan` starts from.
    pub fn for_plan(initial: usize, plan: &ChurnPlan) -> Self {
        Membership::new(initial, plan.max_workers(initial))
    }

    /// Total slots (alive or not).
    pub fn len(&self) -> usize {
        self.status.len()
    }

    /// Whether the view has no slots.
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    /// Current view epoch (number of transitions applied).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Status of a slot.
    pub fn status(&self, slot: usize) -> MemberStatus {
        self.status[slot]
    }

    /// Whether a slot is currently alive.
    pub fn is_alive(&self, slot: usize) -> bool {
        self.status[slot] == MemberStatus::Alive
    }

    /// Ascending 0-based slots of alive workers — the view the SPLIT and
    /// swap schedules are computed over.
    pub fn alive(&self) -> Vec<usize> {
        (0..self.len()).filter(|&s| self.is_alive(s)).collect()
    }

    /// Number of alive workers.
    pub fn alive_count(&self) -> usize {
        self.status
            .iter()
            .filter(|&&s| s == MemberStatus::Alive)
            .count()
    }

    /// Applies one churn event (worker id 1-based). Errors when the
    /// transition is invalid for the slot's current status.
    pub fn apply(&mut self, ev: &ChurnEvent) -> Result<(), String> {
        if ev.worker == 0 || ev.worker > self.len() {
            return Err(format!(
                "churn event targets worker {} outside 1..={}",
                ev.worker,
                self.len()
            ));
        }
        let slot = ev.worker - 1;
        let cur = self.status[slot];
        let next = match (ev.kind, cur) {
            (ChurnKind::Join, MemberStatus::Pending) => MemberStatus::Alive,
            (ChurnKind::Leave, MemberStatus::Alive) => MemberStatus::Left,
            (ChurnKind::Crash, MemberStatus::Alive) => MemberStatus::Crashed,
            _ => {
                return Err(format!(
                    "cannot apply {:?} to worker {} in status {:?}",
                    ev.kind, ev.worker, cur
                ));
            }
        };
        self.status[slot] = next;
        self.epoch += 1;
        Ok(())
    }

    /// Marks a slot crashed outside a plan (the legacy
    /// [`CrashSchedule`](crate::CrashSchedule) path). Returns whether the
    /// view changed.
    pub fn crash(&mut self, slot: usize) -> bool {
        if self.status[slot] == MemberStatus::Alive {
            self.status[slot] = MemberStatus::Crashed;
            self.epoch += 1;
            true
        } else {
            false
        }
    }

    /// Permanently evicts a slot (detector-driven). Idempotent; workers
    /// that already departed stay in their terminal state. Returns whether
    /// the view changed.
    pub fn evict(&mut self, slot: usize) -> bool {
        match self.status[slot] {
            MemberStatus::Alive | MemberStatus::Pending | MemberStatus::Crashed => {
                self.status[slot] = MemberStatus::Evicted;
                self.epoch += 1;
                true
            }
            MemberStatus::Left | MemberStatus::Evicted => false,
        }
    }

    /// Flattens the view for checkpointing: `[total, epoch, status×total]`.
    pub fn state_words(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(2 + self.len());
        w.push(self.len() as u64);
        w.push(self.epoch);
        w.extend(self.status.iter().map(|s| s.as_word()));
        w
    }

    /// Restores a view captured by [`state_words`](Self::state_words).
    pub fn load_state_words(&mut self, words: &[u64]) -> Result<(), String> {
        if words.len() < 2 || words[0] as usize != self.len() || words.len() != 2 + self.len() {
            return Err(format!(
                "membership words for {} slots / {} words, expected {} slots / {} words",
                words.first().copied().unwrap_or(0),
                words.len(),
                self.len(),
                2 + self.len()
            ));
        }
        let mut status = Vec::with_capacity(self.len());
        for &w in &words[2..] {
            status.push(MemberStatus::from_word(w)?);
        }
        self.epoch = words[1];
        self.status = status;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(iter: usize, worker: usize, kind: ChurnKind) -> ChurnEvent {
        ChurnEvent { iter, worker, kind }
    }

    #[test]
    fn explicit_plan_sorts_and_validates() {
        let plan = ChurnPlan::from_events(
            2,
            vec![
                ev(5, 3, ChurnKind::Join),
                ev(5, 1, ChurnKind::Crash),
                ev(8, 3, ChurnKind::Leave),
            ],
        )
        .unwrap();
        // Crash sorts before join at the same iteration.
        assert_eq!(plan.events()[0].kind, ChurnKind::Crash);
        assert_eq!(plan.events()[1].kind, ChurnKind::Join);
        assert_eq!(plan.joins(), 1);
        assert_eq!(plan.max_workers(2), 3);
        assert_eq!(plan.events_at(5).count(), 2);
        assert!(!plan.is_none());
        assert!(ChurnPlan::none().is_none());
    }

    #[test]
    fn explicit_plan_rejects_bad_schedules() {
        // Non-dense joiner id.
        assert!(ChurnPlan::from_events(2, vec![ev(1, 5, ChurnKind::Join)]).is_err());
        // Initial worker "joining".
        assert!(ChurnPlan::from_events(2, vec![ev(1, 2, ChurnKind::Join)]).is_err());
        // Departure before join.
        assert!(ChurnPlan::from_events(
            2,
            vec![ev(1, 3, ChurnKind::Leave), ev(4, 3, ChurnKind::Join)]
        )
        .is_err());
        // Double departure.
        assert!(ChurnPlan::from_events(
            2,
            vec![ev(1, 1, ChurnKind::Leave), ev(2, 1, ChurnKind::Crash)]
        )
        .is_err());
        // Worker id 0 is the server.
        assert!(ChurnPlan::from_events(2, vec![ev(1, 0, ChurnKind::Crash)]).is_err());
    }

    #[test]
    fn seeded_plan_is_deterministic_and_valid() {
        let a = ChurnPlan::seeded(7, 8, 64, 0.2, 0.1, 0.2);
        let b = ChurnPlan::seeded(7, 8, 64, 0.2, 0.1, 0.2);
        assert_eq!(a, b, "same seed, same plan");
        let c = ChurnPlan::seeded(8, 8, 64, 0.2, 0.1, 0.2);
        assert_ne!(a, c, "different seed, different plan");
        // The generated schedule must be self-consistent: replay it.
        let reparsed = ChurnPlan::from_events(8, a.events().to_vec()).unwrap();
        assert_eq!(reparsed.events(), a.events());
        let mut m = Membership::for_plan(8, &a);
        for iter in 0..64 {
            for ev in a.events().iter().filter(|e| e.iter == iter) {
                m.apply(ev).unwrap();
            }
            assert!(m.alive_count() >= 1, "never below one survivor");
        }
    }

    #[test]
    fn seeded_zero_rates_is_empty() {
        assert!(ChurnPlan::seeded(7, 8, 64, 0.0, 0.0, 0.0).is_none());
    }

    #[test]
    fn membership_transitions_bump_epoch() {
        let mut m = Membership::new(2, 3);
        assert_eq!(m.alive(), vec![0, 1]);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.status(2), MemberStatus::Pending);
        m.apply(&ev(3, 3, ChurnKind::Join)).unwrap();
        assert_eq!(m.alive(), vec![0, 1, 2]);
        assert_eq!(m.epoch(), 1);
        m.apply(&ev(4, 1, ChurnKind::Crash)).unwrap();
        assert_eq!(m.alive(), vec![1, 2]);
        m.apply(&ev(5, 2, ChurnKind::Leave)).unwrap();
        assert_eq!(m.alive(), vec![2]);
        assert_eq!(m.epoch(), 3);
        // Invalid transitions are rejected and leave the view unchanged.
        assert!(m.apply(&ev(6, 1, ChurnKind::Crash)).is_err());
        assert!(m.apply(&ev(6, 3, ChurnKind::Join)).is_err());
        assert!(m.apply(&ev(6, 9, ChurnKind::Crash)).is_err());
        assert_eq!(m.epoch(), 3);
    }

    #[test]
    fn evict_is_permanent_and_idempotent() {
        let mut m = Membership::new(3, 3);
        assert!(m.evict(1));
        assert_eq!(m.status(1), MemberStatus::Evicted);
        assert!(!m.evict(1), "second evict is a no-op");
        assert_eq!(m.epoch(), 1);
        // A graceful leaver is not retroactively evicted.
        m.apply(&ev(1, 3, ChurnKind::Leave)).unwrap();
        assert!(!m.evict(2));
        assert_eq!(m.status(2), MemberStatus::Left);
        // A crashed worker can still be evicted (suspicion confirmed).
        assert!(m.crash(0));
        assert!(m.evict(0));
        assert_eq!(m.alive(), Vec::<usize>::new());
    }

    #[test]
    fn state_words_roundtrip() {
        let mut m = Membership::new(2, 4);
        m.apply(&ev(1, 3, ChurnKind::Join)).unwrap();
        m.crash(0);
        m.evict(1);
        let words = m.state_words();
        let mut fresh = Membership::new(2, 4);
        fresh.load_state_words(&words).unwrap();
        assert_eq!(fresh, m);
        let mut wrong = Membership::new(2, 5);
        assert!(wrong.load_state_words(&words).is_err());
        assert!(fresh.load_state_words(&words[..2]).is_err());
        let mut bad = words.clone();
        bad[2] = 99;
        assert!(fresh.load_state_words(&bad).is_err());
    }
}
