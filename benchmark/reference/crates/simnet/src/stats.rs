//! Byte-accurate traffic accounting.
//!
//! Every message carries its wire size; counters are atomic so the threaded
//! runtime can update them concurrently. The per-class totals correspond
//! exactly to the rows of the paper's Table III (`C→W`, `W→C`, `W→W`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which logical link a message travelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Central server to a worker.
    ServerToWorker,
    /// Worker to the central server.
    WorkerToServer,
    /// Worker to worker (the discriminator swap path).
    WorkerToWorker,
}

impl LinkClass {
    /// Classifies a (from, to) pair given that node 0 is the server.
    pub fn of(from: usize, to: usize) -> LinkClass {
        match (from, to) {
            (0, _) => LinkClass::ServerToWorker,
            (_, 0) => LinkClass::WorkerToServer,
            _ => LinkClass::WorkerToWorker,
        }
    }

    fn index(self) -> usize {
        match self {
            LinkClass::ServerToWorker => 0,
            LinkClass::WorkerToServer => 1,
            LinkClass::WorkerToWorker => 2,
        }
    }
}

/// Concurrent traffic counters for a cluster of `1 + N` nodes.
///
/// Sent-side counters (`egress`, `class_*`) tally every attempt put on the
/// wire; `ingress` tallies what actually reached a receiver. On a perfect
/// network the two coincide (the legacy [`record`](Self::record) bumps
/// both); under an injected [`FaultPlan`](crate::FaultPlan) they are
/// reconciled by the fault counters:
/// `bytes_sent == bytes_delivered + dropped_bytes`, with duplicated bytes
/// accounted separately (a spurious extra copy is neither "sent" by the
/// application nor part of its delivered payload).
///
/// Under elastic membership, links can point at workers that are no
/// longer (or not yet) part of the cluster. Recording is therefore
/// tolerant rather than panicking: attempts touching an out-of-range
/// node id are ignored, and [`retire`](Self::retire)d nodes have their
/// counters *frozen* — historical totals stay in every report, but no
/// new traffic is accounted against a departed peer.
#[derive(Debug)]
pub struct TrafficStats {
    ingress: Vec<AtomicU64>,
    egress: Vec<AtomicU64>,
    retired: Vec<AtomicBool>,
    class_bytes: [AtomicU64; 3],
    class_msgs: [AtomicU64; 3],
    dropped_msgs: AtomicU64,
    dropped_bytes: AtomicU64,
    dup_msgs: AtomicU64,
    dup_bytes: AtomicU64,
    delayed_msgs: AtomicU64,
    retries: AtomicU64,
}

impl TrafficStats {
    /// Creates counters for `nodes` nodes (server included).
    pub fn new(nodes: usize) -> Self {
        TrafficStats {
            ingress: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            egress: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            retired: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            class_bytes: Default::default(),
            class_msgs: Default::default(),
            dropped_msgs: AtomicU64::new(0),
            dropped_bytes: AtomicU64::new(0),
            dup_msgs: AtomicU64::new(0),
            dup_bytes: AtomicU64::new(0),
            delayed_msgs: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Number of nodes tracked.
    pub fn nodes(&self) -> usize {
        self.ingress.len()
    }

    /// Freezes a departed node's counters: its historical totals remain
    /// in every report and checkpoint, but subsequent attempts touching
    /// it are ignored on both ends. Irreversible (a re-used id would
    /// conflate two lifetimes of traffic).
    pub fn retire(&self, node: usize) {
        if let Some(r) = self.retired.get(node) {
            r.store(true, Ordering::Relaxed);
        }
    }

    /// Whether a node's counters are frozen (out-of-range ids count as
    /// retired: traffic to them is never accounted).
    pub fn is_retired(&self, node: usize) -> bool {
        self.retired
            .get(node)
            .map(|r| r.load(Ordering::Relaxed))
            .unwrap_or(true)
    }

    /// Records one message of `bytes` from `from` to `to`, sent *and*
    /// delivered (the perfect-network path). Ignored entirely when either
    /// endpoint is retired or out of range, so the sent/delivered
    /// reconciliation invariants keep holding per attempt.
    pub fn record(&self, from: usize, to: usize, bytes: u64) {
        if self.is_retired(from) || self.is_retired(to) {
            return;
        }
        self.record_attempt(from, to, bytes);
        self.record_delivery(to, bytes);
    }

    /// Records the sent side of one attempt (egress + per-class totals).
    /// Ignored when either endpoint is retired or out of range.
    pub fn record_attempt(&self, from: usize, to: usize, bytes: u64) {
        if self.is_retired(from) || self.is_retired(to) {
            return;
        }
        self.egress[from].fetch_add(bytes, Ordering::Relaxed);
        let c = LinkClass::of(from, to).index();
        self.class_bytes[c].fetch_add(bytes, Ordering::Relaxed);
        self.class_msgs[c].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the delivered side of one attempt (receiver ingress).
    /// Ignored when the receiver is retired or out of range.
    pub fn record_delivery(&self, to: usize, bytes: u64) {
        if self.is_retired(to) {
            return;
        }
        self.ingress[to].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one attempt lost in transit.
    pub fn record_dropped(&self, bytes: u64) {
        self.dropped_msgs.fetch_add(1, Ordering::Relaxed);
        self.dropped_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one spurious duplicate copy delivered by the network.
    pub fn record_duplicated(&self, bytes: u64) {
        self.dup_msgs.fetch_add(1, Ordering::Relaxed);
        self.dup_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one message delivered late.
    pub fn record_delayed(&self) {
        self.delayed_msgs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retransmission attempt.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Flattens every counter into a `u64` vector for checkpointing:
    /// `[nodes, ingress×n, egress×n, class_bytes×3, class_msgs×3,
    /// dropped_msgs, dropped_bytes, dup_msgs, dup_bytes, delayed_msgs,
    /// retries]`. Retirement flags are *not* persisted — they are
    /// membership state, re-derived from the restored view — so the wire
    /// format is unchanged from pre-elastic checkpoints.
    pub fn state_words(&self) -> Vec<u64> {
        let n = self.nodes();
        let mut w = Vec::with_capacity(2 * n + 13);
        w.push(n as u64);
        w.extend(self.ingress.iter().map(|a| a.load(Ordering::Relaxed)));
        w.extend(self.egress.iter().map(|a| a.load(Ordering::Relaxed)));
        w.extend(self.class_bytes.iter().map(|a| a.load(Ordering::Relaxed)));
        w.extend(self.class_msgs.iter().map(|a| a.load(Ordering::Relaxed)));
        w.push(self.dropped_msgs.load(Ordering::Relaxed));
        w.push(self.dropped_bytes.load(Ordering::Relaxed));
        w.push(self.dup_msgs.load(Ordering::Relaxed));
        w.push(self.dup_bytes.load(Ordering::Relaxed));
        w.push(self.delayed_msgs.load(Ordering::Relaxed));
        w.push(self.retries.load(Ordering::Relaxed));
        w
    }

    /// Restores counters captured by [`state_words`](Self::state_words).
    /// Errors when the word count or node count does not match this
    /// instance.
    pub fn load_state_words(&self, words: &[u64]) -> Result<(), String> {
        let n = self.nodes();
        if words.len() != 2 * n + 13 || words[0] != n as u64 {
            return Err(format!(
                "traffic counters for {} nodes / {} words, expected {} nodes / {} words",
                words.first().copied().unwrap_or(0),
                words.len(),
                n,
                2 * n + 13
            ));
        }
        for (a, &w) in self.ingress.iter().zip(&words[1..1 + n]) {
            a.store(w, Ordering::Relaxed);
        }
        for (a, &w) in self.egress.iter().zip(&words[1 + n..1 + 2 * n]) {
            a.store(w, Ordering::Relaxed);
        }
        let tail = &words[1 + 2 * n..];
        for (a, &w) in self.class_bytes.iter().zip(&tail[0..3]) {
            a.store(w, Ordering::Relaxed);
        }
        for (a, &w) in self.class_msgs.iter().zip(&tail[3..6]) {
            a.store(w, Ordering::Relaxed);
        }
        self.dropped_msgs.store(tail[6], Ordering::Relaxed);
        self.dropped_bytes.store(tail[7], Ordering::Relaxed);
        self.dup_msgs.store(tail[8], Ordering::Relaxed);
        self.dup_bytes.store(tail[9], Ordering::Relaxed);
        self.delayed_msgs.store(tail[10], Ordering::Relaxed);
        self.retries.store(tail[11], Ordering::Relaxed);
        Ok(())
    }

    /// Immutable snapshot of all counters.
    pub fn report(&self) -> TrafficReport {
        TrafficReport {
            ingress: self
                .ingress
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            egress: self
                .egress
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            class_bytes: [
                self.class_bytes[0].load(Ordering::Relaxed),
                self.class_bytes[1].load(Ordering::Relaxed),
                self.class_bytes[2].load(Ordering::Relaxed),
            ],
            class_msgs: [
                self.class_msgs[0].load(Ordering::Relaxed),
                self.class_msgs[1].load(Ordering::Relaxed),
                self.class_msgs[2].load(Ordering::Relaxed),
            ],
            dropped_msgs: self.dropped_msgs.load(Ordering::Relaxed),
            dropped_bytes: self.dropped_bytes.load(Ordering::Relaxed),
            dup_msgs: self.dup_msgs.load(Ordering::Relaxed),
            dup_bytes: self.dup_bytes.load(Ordering::Relaxed),
            delayed_msgs: self.delayed_msgs.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the traffic counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficReport {
    /// Bytes received per node (index 0 = server).
    pub ingress: Vec<u64>,
    /// Bytes sent per node.
    pub egress: Vec<u64>,
    /// Total bytes per [`LinkClass`] (S→W, W→S, W→W).
    pub class_bytes: [u64; 3],
    /// Message counts per [`LinkClass`].
    pub class_msgs: [u64; 3],
    /// Attempts lost to injected faults.
    pub dropped_msgs: u64,
    /// Bytes lost to injected faults.
    pub dropped_bytes: u64,
    /// Spurious duplicate copies the network delivered.
    pub dup_msgs: u64,
    /// Bytes moved by spurious duplicate copies.
    pub dup_bytes: u64,
    /// Messages delivered late.
    pub delayed_msgs: u64,
    /// Retransmission attempts after drops.
    pub retries: u64,
}

impl TrafficReport {
    /// Total bytes put on the wire by senders (attempts, retries included).
    pub fn bytes_sent(&self) -> u64 {
        self.egress.iter().sum()
    }

    /// Total bytes that reached a receiver, duplicates excluded.
    pub fn bytes_delivered(&self) -> u64 {
        self.ingress.iter().sum()
    }
    /// Bytes of a link class.
    pub fn bytes(&self, class: LinkClass) -> u64 {
        self.class_bytes[class.index()]
    }

    /// Message count of a link class.
    pub fn msgs(&self, class: LinkClass) -> u64 {
        self.class_msgs[class.index()]
    }

    /// Total bytes moved in the whole system.
    pub fn total_bytes(&self) -> u64 {
        self.class_bytes.iter().sum()
    }

    /// Maximum per-node ingress over the workers only (paper Figure 2's
    /// "maximal ingress traffic" at workers).
    pub fn max_worker_ingress(&self) -> u64 {
        self.ingress.iter().skip(1).copied().max().unwrap_or(0)
    }

    /// Server ingress bytes.
    pub fn server_ingress(&self) -> u64 {
        self.ingress[0]
    }

    /// Difference report: `self - earlier` (for per-iteration measurements).
    ///
    /// Saturates at zero instead of panicking: under relaxed concurrent
    /// recording, a later snapshot can transiently lag an earlier one on
    /// individual counters, and callers may also pass baselines from a
    /// different (restarted) stats instance.
    pub fn since(&self, earlier: &TrafficReport) -> TrafficReport {
        TrafficReport {
            ingress: self
                .ingress
                .iter()
                .zip(&earlier.ingress)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            egress: self
                .egress
                .iter()
                .zip(&earlier.egress)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            class_bytes: [
                self.class_bytes[0].saturating_sub(earlier.class_bytes[0]),
                self.class_bytes[1].saturating_sub(earlier.class_bytes[1]),
                self.class_bytes[2].saturating_sub(earlier.class_bytes[2]),
            ],
            class_msgs: [
                self.class_msgs[0].saturating_sub(earlier.class_msgs[0]),
                self.class_msgs[1].saturating_sub(earlier.class_msgs[1]),
                self.class_msgs[2].saturating_sub(earlier.class_msgs[2]),
            ],
            dropped_msgs: self.dropped_msgs.saturating_sub(earlier.dropped_msgs),
            dropped_bytes: self.dropped_bytes.saturating_sub(earlier.dropped_bytes),
            dup_msgs: self.dup_msgs.saturating_sub(earlier.dup_msgs),
            dup_bytes: self.dup_bytes.saturating_sub(earlier.dup_bytes),
            delayed_msgs: self.delayed_msgs.saturating_sub(earlier.delayed_msgs),
            retries: self.retries.saturating_sub(earlier.retries),
        }
    }

    /// Converts to the dependency-neutral summary md-telemetry's
    /// `RunRecord` embeds.
    pub fn telemetry_summary(&self) -> md_telemetry::TrafficSummary {
        md_telemetry::TrafficSummary {
            ingress: self.ingress.clone(),
            egress: self.egress.clone(),
            messages: self.class_msgs.iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_words_roundtrip_restores_every_counter() {
        let s = TrafficStats::new(3);
        s.record(0, 1, 100);
        s.record(2, 0, 40);
        s.record_dropped(7);
        s.record_duplicated(3);
        s.record_delayed();
        s.record_retry();
        let words = s.state_words();
        let fresh = TrafficStats::new(3);
        fresh.load_state_words(&words).unwrap();
        assert_eq!(fresh.report(), s.report());
        // Wrong node count is rejected.
        assert!(TrafficStats::new(4).load_state_words(&words).is_err());
        assert!(fresh.load_state_words(&words[..5]).is_err());
    }

    #[test]
    fn link_classification() {
        assert_eq!(LinkClass::of(0, 3), LinkClass::ServerToWorker);
        assert_eq!(LinkClass::of(2, 0), LinkClass::WorkerToServer);
        assert_eq!(LinkClass::of(1, 2), LinkClass::WorkerToWorker);
    }

    #[test]
    fn record_updates_all_counters() {
        let s = TrafficStats::new(3);
        s.record(0, 1, 100);
        s.record(1, 0, 40);
        s.record(1, 2, 7);
        let r = s.report();
        assert_eq!(r.egress, vec![100, 47, 0]);
        assert_eq!(r.ingress, vec![40, 100, 7]);
        assert_eq!(r.bytes(LinkClass::ServerToWorker), 100);
        assert_eq!(r.bytes(LinkClass::WorkerToServer), 40);
        assert_eq!(r.bytes(LinkClass::WorkerToWorker), 7);
        assert_eq!(r.msgs(LinkClass::WorkerToWorker), 1);
        assert_eq!(r.total_bytes(), 147);
    }

    #[test]
    fn conservation_total_egress_equals_total_ingress() {
        let s = TrafficStats::new(5);
        for (f, t, b) in [
            (0, 1, 10u64),
            (1, 0, 20),
            (2, 3, 30),
            (4, 2, 40),
            (0, 4, 50),
        ] {
            s.record(f, t, b);
        }
        let r = s.report();
        assert_eq!(r.ingress.iter().sum::<u64>(), r.egress.iter().sum::<u64>());
    }

    #[test]
    fn since_computes_deltas() {
        let s = TrafficStats::new(2);
        s.record(0, 1, 5);
        let before = s.report();
        s.record(0, 1, 11);
        let delta = s.report().since(&before);
        assert_eq!(delta.ingress[1], 11);
        assert_eq!(delta.msgs(LinkClass::ServerToWorker), 1);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        // Baseline from a *different* (busier) stats instance: every
        // counter in `earlier` exceeds `self`'s.
        let busy = TrafficStats::new(2);
        busy.record(0, 1, 100);
        busy.record(1, 0, 100);
        let earlier = busy.report();
        let fresh = TrafficStats::new(2);
        fresh.record(0, 1, 30);
        let delta = fresh.report().since(&earlier);
        assert_eq!(delta.ingress, vec![0, 0]);
        assert_eq!(delta.egress, vec![0, 0]);
        assert_eq!(delta.class_bytes, [0, 0, 0]);
        assert_eq!(delta.class_msgs, [0, 0, 0]);
    }

    #[test]
    fn telemetry_summary_mirrors_report() {
        let s = TrafficStats::new(3);
        s.record(0, 1, 10);
        s.record(1, 2, 5);
        s.record(2, 0, 1);
        let r = s.report();
        let t = r.telemetry_summary();
        assert_eq!(t.ingress, r.ingress);
        assert_eq!(t.egress, r.egress);
        assert_eq!(t.messages, 3);
        assert_eq!(t.total_bytes(), r.total_bytes());
    }

    #[test]
    fn max_worker_ingress_excludes_server() {
        let s = TrafficStats::new(3);
        s.record(1, 0, 1000); // server ingress, must not count
        s.record(0, 2, 60);
        let r = s.report();
        assert_eq!(r.max_worker_ingress(), 60);
        assert_eq!(r.server_ingress(), 1000);
    }

    #[test]
    fn fault_counters_reconcile_sent_and_delivered() {
        let s = TrafficStats::new(2);
        // Attempt 1: dropped; attempt 2 (retry): delivered + duplicated.
        s.record_attempt(0, 1, 50);
        s.record_dropped(50);
        s.record_retry();
        s.record_attempt(0, 1, 50);
        s.record_delivery(1, 50);
        s.record_duplicated(50);
        s.record_delayed();
        let r = s.report();
        assert_eq!(r.bytes_sent(), 100);
        assert_eq!(r.bytes_delivered(), 50);
        assert_eq!(r.bytes_sent(), r.bytes_delivered() + r.dropped_bytes);
        assert_eq!(r.dup_bytes, 50);
        assert_eq!(r.retries, 1);
        assert_eq!(r.delayed_msgs, 1);
        assert_eq!(r.msgs(LinkClass::ServerToWorker), 2, "both attempts sent");
    }

    #[test]
    fn since_covers_fault_counters() {
        let s = TrafficStats::new(2);
        s.record_attempt(0, 1, 10);
        s.record_dropped(10);
        let before = s.report();
        s.record_retry();
        s.record_duplicated(4);
        let d = s.report().since(&before);
        assert_eq!(d.dropped_bytes, 0);
        assert_eq!(d.retries, 1);
        assert_eq!(d.dup_bytes, 4);
    }

    #[test]
    fn out_of_range_links_are_ignored_not_panicking() {
        let s = TrafficStats::new(3);
        // A link to a worker slot that no longer (or does not yet) exist.
        s.record(0, 7, 100);
        s.record(7, 0, 100);
        s.record_attempt(0, 9, 10);
        s.record_delivery(9, 10);
        let r = s.report();
        assert_eq!(r.bytes_sent(), 0);
        assert_eq!(r.bytes_delivered(), 0);
        assert_eq!(r.total_bytes(), 0);
    }

    #[test]
    fn retired_peer_counters_freeze_not_drop() {
        let s = TrafficStats::new(3);
        s.record(0, 2, 100);
        s.record(2, 0, 40);
        s.retire(2);
        assert!(s.is_retired(2));
        // New traffic touching the retired peer is unaccounted on both
        // ends (no server egress for a dead downlink either).
        s.record(0, 2, 999);
        s.record(2, 0, 999);
        s.record(1, 2, 999);
        let r = s.report();
        // Historical totals survive — frozen, not dropped.
        assert_eq!(r.ingress[2], 100);
        assert_eq!(r.egress[2], 40);
        assert_eq!(r.server_ingress(), 40);
        assert_eq!(r.egress[0], 100);
        assert_eq!(r.total_bytes(), 140);
        // Other links keep accounting normally.
        s.record(0, 1, 7);
        assert_eq!(s.report().ingress[1], 7);
        // Conservation still holds: no half-recorded attempts.
        let r = s.report();
        assert_eq!(r.bytes_sent(), r.bytes_delivered());
    }

    #[test]
    fn retired_flags_do_not_change_checkpoint_format() {
        let s = TrafficStats::new(3);
        s.record(0, 1, 10);
        s.retire(1);
        let words = s.state_words();
        assert_eq!(words.len(), 2 * 3 + 13, "wire format unchanged");
        let fresh = TrafficStats::new(3);
        fresh.load_state_words(&words).unwrap();
        assert_eq!(fresh.report(), s.report());
        assert!(!fresh.is_retired(1), "retirement is not persisted");
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let s = Arc::new(TrafficStats::new(4));
        let mut handles = Vec::new();
        for t in 1..4usize {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record(t, 0, 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let r = s.report();
        assert_eq!(r.server_ingress(), 9000);
        assert_eq!(r.msgs(LinkClass::WorkerToServer), 3000);
    }
}
