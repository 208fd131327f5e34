//! Runtime safety checking.
//!
//! Paxos's safety property — no two nodes decide different commands for
//! the same slot — is machine-checked on every run: each replica reports
//! every commit it learns to a shared [`SafetyMonitor`], which records the
//! first decision per `(space, slot)` and flags any later disagreement.
//! Protocols with per-replica instance spaces (EPaxos) use `space` to
//! separate them; Multi-Paxos and PigPaxos use space 0.
//!
//! Each space keeps its decisions in a slot window (the structure behind
//! [`crate::Log`]): a ring buffer from slot 0 upward, so recording a
//! commit is index arithmetic, plus a small overflow map for slots far
//! past the window's end. A hostile far-ahead slot therefore costs one
//! overflow entry and is still checked against later reports for it.

use crate::command::RequestId;
use crate::slot_window::SlotWindow;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Default)]
struct Inner {
    /// First decision per slot, one window per space.
    decided: BTreeMap<u32, SlotWindow<RequestId>>,
    violations: Vec<String>,
    commits: u64,
}

/// Shared handle to the run's safety checker. Cloning shares state.
/// Thread-safe so the same monitor works under the simulator and the
/// real-thread runtime.
#[derive(Debug, Clone, Default)]
pub struct SafetyMonitor(Arc<Mutex<Inner>>);

impl SafetyMonitor {
    /// Fresh monitor.
    pub fn new() -> Self {
        SafetyMonitor::default()
    }

    /// Report that a node learned `(space, slot) = id`. Counts one commit
    /// observation and records a violation on disagreement.
    pub fn record(&self, space: u32, slot: u64, id: RequestId) {
        let mut inner = self.0.lock();
        inner.commits += 1;
        let prev = *inner
            .decided
            .entry(space)
            .or_default()
            .get_or_insert_with(slot, || id);
        if prev != id {
            let msg =
                format!("safety violation: space {space} slot {slot} decided as {prev} and {id}");
            inner.violations.push(msg);
        }
    }

    /// Distinct decided slots.
    pub fn decided_count(&self) -> u64 {
        self.0.lock().decided.values().map(|w| w.len() as u64).sum()
    }

    /// Snapshot of every decision, sorted by `(space, slot)` — lets
    /// tests assert ordering properties (e.g. per-client FIFO under
    /// batching) on the actual decided log.
    pub fn decisions(&self) -> Vec<((u32, u64), RequestId)> {
        let inner = self.0.lock();
        inner
            .decided
            .iter()
            .flat_map(|(&space, w)| w.iter_from(0).map(move |(slot, &id)| ((space, slot), id)))
            .collect()
    }

    /// Total commit observations (each replica's learn counts once).
    pub fn commit_observations(&self) -> u64 {
        self.0.lock().commits
    }

    /// All recorded violations.
    pub fn violations(&self) -> Vec<String> {
        self.0.lock().violations.clone()
    }

    /// Panic if any violation was recorded (used by tests and the
    /// harness).
    pub fn assert_safe(&self) {
        let v = self.violations();
        assert!(v.is_empty(), "consensus safety violated: {v:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn id(seq: u64) -> RequestId {
        RequestId {
            client: NodeId(9),
            seq,
        }
    }

    #[test]
    fn agreement_is_fine() {
        let m = SafetyMonitor::new();
        m.record(0, 0, id(1));
        m.record(0, 0, id(1));
        m.record(0, 1, id(2));
        assert!(m.violations().is_empty());
        assert_eq!(m.decided_count(), 2);
        assert_eq!(m.commit_observations(), 3);
        m.assert_safe();
    }

    #[test]
    fn disagreement_detected() {
        let m = SafetyMonitor::new();
        m.record(0, 0, id(1));
        m.record(0, 0, id(2));
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains("slot 0"));
    }

    #[test]
    fn spaces_are_independent() {
        let m = SafetyMonitor::new();
        m.record(0, 0, id(1));
        m.record(1, 0, id(2)); // same slot, different space: fine
        assert!(m.violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "safety violated")]
    fn assert_safe_panics_on_violation() {
        let m = SafetyMonitor::new();
        m.record(0, 0, id(1));
        m.record(0, 0, id(2));
        m.assert_safe();
    }

    #[test]
    fn clones_share_state() {
        let m = SafetyMonitor::new();
        let m2 = m.clone();
        m.record(0, 0, id(1));
        m2.record(0, 0, id(2));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn far_ahead_slot_is_checked_without_resize() {
        let m = SafetyMonitor::new();
        m.record(0, 0, id(1));
        let far = u64::MAX - 1;
        m.record(0, far, id(2));
        let window = |m: &SafetyMonitor| m.0.lock().decided[&0].window_len();
        assert_eq!(window(&m), 1, "no window resize");
        m.record(0, far, id(2));
        assert!(m.violations().is_empty());
        m.record(0, far, id(3));
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains(&format!("slot {far}")));
        assert_eq!(window(&m), 1);
        assert_eq!(m.decided_count(), 2);
        assert_eq!(m.decisions(), vec![((0, 0), id(1)), ((0, far), id(2))]);
    }

    #[test]
    fn overflow_decision_migrates_into_the_window() {
        use crate::slot_window::GAP;
        let m = SafetyMonitor::new();
        let far = GAP + 5;
        m.record(0, far, id(far));
        for s in 0..far {
            m.record(0, s, id(s));
        }
        assert_eq!(m.0.lock().decided[&0].window_len() as u64, far + 1);
        m.record(0, far, id(0));
        assert_eq!(m.violations().len(), 1, "migrated decision still checked");
        assert_eq!(m.decided_count(), far + 1);
    }
}
