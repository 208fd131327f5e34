//! The replicated command log.
//!
//! A slot-indexed log with the usual Multi-Paxos life cycle per slot:
//! *accepted* (under some ballot) → *committed* → *executed*. Execution
//! is strictly in slot order with no gaps, which is what gives
//! linearizability of commands.
//!
//! Entries live in a slot window: a ring buffer whose front is the
//! compaction floor, so every lookup on the decide path is index
//! arithmetic, and compaction pops the executed prefix off the front. A
//! slot far past the window's end (a stale or hostile far-ahead `P2a`
//! or `LearnRep`) lands in a small overflow map and costs one entry, not
//! a resize; it moves into the window once the window's end reaches it.

use crate::ballot::Ballot;
use crate::command::Command;
use crate::slot_window::SlotWindow;

/// One slot's state.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Ballot under which the current value was accepted.
    pub ballot: Ballot,
    /// The accepted command.
    pub command: Command,
    /// Set once the slot's value is decided.
    pub committed: bool,
    /// Set once the command has been applied to the state machine.
    pub executed: bool,
}

/// A slot-indexed replicated log.
///
/// Supports **compaction**: once slots are executed, [`Log::truncate_below`]
/// drops them (their effect lives on in a state-machine snapshot) and
/// [`Log::compacted_up_to`] records the floor, which is also the front
/// of the slot window. Accepts and commits for slots below the executed
/// frontier are ignored — an executed slot is decided by definition, so
/// a late message about it is stale.
#[derive(Debug, Default, Clone)]
pub struct Log {
    entries: SlotWindow<LogEntry>,
    /// Next slot the leader will propose into.
    next_slot: u64,
    /// Lowest slot that has not been executed yet.
    execute_cursor: u64,
    /// Slots below this have been truncated away (compaction floor).
    compacted: u64,
    /// Approximate payload bytes of retained entries (diagnostics).
    retained_bytes: usize,
    /// Approximate payload bytes of retained *executed* entries — the
    /// truncatable prefix, and therefore the byte-based compaction
    /// trigger input (the unexecuted tail cannot be truncated, so
    /// counting it would make a small threshold fire on every wave
    /// while freeing nothing).
    executed_bytes: usize,
}

impl Log {
    /// Empty log; slots start at 0.
    pub fn new() -> Self {
        Log::default()
    }

    /// Allocate the next free slot for a proposal.
    pub fn allocate_slot(&mut self) -> u64 {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }

    /// Record an accepted `(ballot, command)` in `slot`, overwriting any
    /// value accepted under a lower or equal ballot. Returns `false` (and
    /// leaves the entry alone) only if the slot holds an uncommitted value
    /// under a higher ballot. A slot that is already committed or executed
    /// is decided, so the accept is a no-op that returns `true`.
    pub fn accept(&mut self, slot: u64, ballot: Ballot, command: Command) -> bool {
        if slot >= self.next_slot {
            self.next_slot = slot + 1;
        }
        if slot < self.execute_cursor {
            // Already executed (possibly truncated away): decided, so
            // the accept is a no-op — and must not re-insert an entry
            // below the cursor after compaction.
            return true;
        }
        match self.entries.get_mut(slot) {
            Some(e) if e.committed => true, // decided: accept is a no-op
            Some(e) if e.ballot > ballot => false,
            Some(e) => {
                e.ballot = ballot;
                self.retained_bytes = self
                    .retained_bytes
                    .saturating_sub(e.command.payload_bytes())
                    + command.payload_bytes();
                e.command = command;
                true
            }
            None => {
                self.retained_bytes += command.payload_bytes();
                self.entries.get_or_insert_with(slot, || LogEntry {
                    ballot,
                    command,
                    committed: false,
                    executed: false,
                });
                true
            }
        }
    }

    /// Mark a slot committed with the given command (idempotent). If the
    /// slot held a different uncommitted value, the committed value wins.
    pub fn commit(&mut self, slot: u64, ballot: Ballot, command: Command) {
        if slot >= self.next_slot {
            self.next_slot = slot + 1;
        }
        if slot < self.execute_cursor {
            // Executed (and possibly compacted away): a late commit for
            // it must not re-insert an entry below the cursor.
            return;
        }
        let bytes = &mut self.retained_bytes;
        let e = self.entries.get_or_insert_with(slot, || {
            *bytes += command.payload_bytes();
            LogEntry {
                ballot,
                command: command.clone(),
                committed: false,
                executed: false,
            }
        });
        if !e.committed {
            e.ballot = ballot;
            self.retained_bytes = self
                .retained_bytes
                .saturating_sub(e.command.payload_bytes())
                + command.payload_bytes();
            e.command = command;
            e.committed = true;
        }
    }

    /// The next command ready to execute: the lowest committed, unexecuted
    /// slot with no uncommitted gap below it.
    pub fn next_executable(&self) -> Option<(u64, &Command)> {
        let e = self.entries.get(self.execute_cursor)?;
        if e.committed && !e.executed {
            Some((self.execute_cursor, &e.command))
        } else {
            None
        }
    }

    /// Mark the execute-cursor slot done and advance the cursor.
    /// Panics if called out of order.
    pub fn mark_executed(&mut self, slot: u64) {
        assert_eq!(slot, self.execute_cursor, "out-of-order execution");
        let e = self
            .entries
            .get_mut(slot)
            .expect("executing a missing slot");
        assert!(e.committed, "executing an uncommitted slot");
        e.executed = true;
        self.executed_bytes += e.command.payload_bytes();
        self.execute_cursor += 1;
    }

    /// Entry at `slot`, if any.
    pub fn get(&self, slot: u64) -> Option<&LogEntry> {
        self.entries.get(slot)
    }

    /// Next slot a proposal would go into.
    pub fn next_slot(&self) -> u64 {
        self.next_slot
    }

    /// Lowest unexecuted slot.
    pub fn execute_cursor(&self) -> u64 {
        self.execute_cursor
    }

    /// Number of committed slots.
    pub fn committed_count(&self) -> u64 {
        self.entries
            .iter_from(0)
            .filter(|(_, e)| e.committed)
            .count() as u64
    }

    /// Number of retained entries — the memory footprint compaction
    /// bounds (and [`crate::CompactionStats`] tracks the maximum of).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Compaction floor: every slot below it has been truncated away
    /// (executed, and its effect captured by a snapshot). 0 until the
    /// first truncation.
    pub fn compacted_up_to(&self) -> u64 {
        self.compacted
    }

    /// Approximate payload bytes of all retained entries.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// Approximate payload bytes of the retained *executed* prefix —
    /// what a truncation at the executed frontier would free. The
    /// byte-based compaction trigger compares against this, not
    /// [`Log::retained_bytes`]: the unexecuted tail survives every
    /// truncation, so counting it would fire compaction on every
    /// execution wave without bounding anything.
    pub fn executed_bytes(&self) -> usize {
        self.executed_bytes
    }

    /// Drop every entry below `up_to`. Only the executed prefix may be
    /// truncated — the caller must hold a snapshot covering `[0, up_to)`.
    /// Panics if `up_to` exceeds the executed frontier (compaction must
    /// never drop undecided or unexecuted slots).
    pub fn truncate_below(&mut self, up_to: u64) {
        assert!(
            up_to <= self.execute_cursor,
            "truncating above the executed frontier ({} > {})",
            up_to,
            self.execute_cursor
        );
        if up_to <= self.compacted {
            return;
        }
        self.entries.truncate_below(up_to);
        self.compacted = up_to;
        self.recompute_bytes();
    }

    /// Install a snapshot covering `[0, up_to)`: drop every entry below
    /// `up_to` and advance the execute cursor there (the state machine
    /// was restored separately). Entries at or above `up_to` survive —
    /// they may already hold accepted or committed tail values. No-op
    /// (returns `false`) when the snapshot is not ahead of this log.
    pub fn install_snapshot(&mut self, up_to: u64) -> bool {
        if up_to <= self.execute_cursor {
            return false;
        }
        self.entries.truncate_below(up_to);
        self.execute_cursor = up_to;
        self.next_slot = self.next_slot.max(up_to);
        self.compacted = self.compacted.max(up_to);
        self.recompute_bytes();
        true
    }

    fn recompute_bytes(&mut self) {
        let entries = || self.entries.iter_from(0).map(|(_, e)| e);
        self.retained_bytes = entries().map(|e| e.command.payload_bytes()).sum();
        self.executed_bytes = entries()
            .filter(|e| e.executed)
            .map(|e| e.command.payload_bytes())
            .sum();
    }

    /// True if any unexecuted entry (accepted or committed) at or above
    /// the execute cursor carries `id`. This is the duplicate-suppression
    /// window the session table cannot see: a command that is already
    /// committed but still waiting on a lower slot to execute is in
    /// neither the leader's outstanding set nor the session table, and
    /// re-proposing a client retry of it would decide the command twice.
    pub fn has_unexecuted_command(&self, id: crate::command::RequestId) -> bool {
        self.entries
            .iter_from(self.execute_cursor)
            .any(|(_, e)| !e.executed && e.command.id == id)
    }

    /// Highest sequence number of `client`'s commands in the unexecuted
    /// window (accepted or committed, not yet executed). Used to rebuild
    /// a leader's per-client proposal floor after re-election.
    pub fn highest_unexecuted_seq(&self, client: simnet::NodeId) -> Option<u64> {
        self.entries
            .iter_from(self.execute_cursor)
            .filter(|(_, e)| !e.executed && e.command.id.client == client)
            .map(|(_, e)| e.command.id.seq)
            .max()
    }

    /// Every `(slot, ballot, command)` at or above `from_slot`, committed
    /// or not — the phase-1b payload. Reporting *committed* entries too is
    /// what keeps a new leader from filling a slot that was already
    /// decided elsewhere (and since the commit watermark only advances
    /// over committed prefixes, `from_slot` bounds the payload to the
    /// in-flight window).
    pub fn entries_from(&self, from_slot: u64) -> Vec<(u64, Ballot, Command)> {
        self.entries
            .iter_from(from_slot)
            .map(|(s, e)| (s, e.ballot, e.command.clone()))
            .collect()
    }

    /// Slots in `[from, to)` that have no entry (holes a recovering leader
    /// fills with no-ops).
    pub fn holes(&self, from: u64, to: u64) -> Vec<u64> {
        (from..to)
            .filter(|&s| self.entries.get(s).is_none())
            .collect()
    }

    /// True if any accepted-but-uncommitted entry at or above `from`
    /// writes `key` — the "pending write" check of Paxos Quorum Reads.
    pub fn has_uncommitted_write(&self, key: crate::command::Key, from: u64) -> bool {
        self.entries.iter_from(from).any(|(_, e)| {
            !e.committed && !e.command.op.is_read() && e.command.op.key() == Some(key)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Operation, RequestId};
    use simnet::NodeId;

    fn cmd(seq: u64) -> Command {
        Command {
            id: RequestId {
                client: NodeId(100),
                seq,
            },
            op: Operation::Get(seq),
        }
    }

    fn b(r: u32) -> Ballot {
        Ballot::new(r, NodeId(0))
    }

    #[test]
    fn allocate_monotonic() {
        let mut log = Log::new();
        assert_eq!(log.allocate_slot(), 0);
        assert_eq!(log.allocate_slot(), 1);
        assert_eq!(log.next_slot(), 2);
    }

    #[test]
    fn accept_higher_ballot_overwrites() {
        let mut log = Log::new();
        assert!(log.accept(0, b(1), cmd(1)));
        assert!(log.accept(0, b(2), cmd(2)));
        assert_eq!(log.get(0).unwrap().command, cmd(2));
    }

    #[test]
    fn accept_lower_ballot_rejected() {
        let mut log = Log::new();
        assert!(log.accept(0, b(2), cmd(2)));
        assert!(!log.accept(0, b(1), cmd(1)));
        assert_eq!(log.get(0).unwrap().command, cmd(2));
    }

    #[test]
    fn accept_extends_next_slot() {
        let mut log = Log::new();
        log.accept(5, b(1), cmd(1));
        assert_eq!(log.next_slot(), 6);
    }

    #[test]
    fn commit_then_execute_in_order() {
        let mut log = Log::new();
        log.accept(0, b(1), cmd(1));
        log.accept(1, b(1), cmd(2));
        log.commit(1, b(1), cmd(2));
        assert!(log.next_executable().is_none(), "slot 0 not committed yet");
        log.commit(0, b(1), cmd(1));
        let (s, c) = log.next_executable().unwrap();
        assert_eq!((s, c.clone()), (0, cmd(1)));
        log.mark_executed(0);
        let (s, c) = log.next_executable().unwrap();
        assert_eq!((s, c.clone()), (1, cmd(2)));
        log.mark_executed(1);
        assert!(log.next_executable().is_none());
        assert_eq!(log.execute_cursor(), 2);
    }

    #[test]
    fn commit_is_idempotent_and_sticky() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        log.commit(0, b(9), cmd(2)); // later commit with different value ignored
        assert_eq!(log.get(0).unwrap().command, cmd(1));
        assert!(log.get(0).unwrap().committed);
    }

    #[test]
    fn commit_overrides_uncommitted_accept() {
        let mut log = Log::new();
        log.accept(0, b(5), cmd(5));
        log.commit(0, b(1), cmd(1)); // decided value wins regardless of ballot
        assert_eq!(log.get(0).unwrap().command, cmd(1));
    }

    #[test]
    fn accept_on_committed_slot_is_noop() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        assert!(log.accept(0, b(9), cmd(9)));
        assert_eq!(log.get(0).unwrap().command, cmd(1));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_execution_panics() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        log.commit(1, b(1), cmd(2));
        log.mark_executed(1);
    }

    #[test]
    fn entries_and_holes_for_recovery() {
        let mut log = Log::new();
        log.accept(0, b(1), cmd(1));
        log.commit(0, b(1), cmd(1));
        log.accept(2, b(1), cmd(3)); // slot 1 is a hole
                                     // Phase-1b payload: committed AND accepted entries from `from`.
        let all = log.entries_from(0);
        assert_eq!(all.iter().map(|e| e.0).collect::<Vec<_>>(), vec![0, 2]);
        let tail = log.entries_from(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].0, 2);
        assert_eq!(log.holes(0, 3), vec![1]);
        assert_eq!(log.committed_count(), 1);
    }

    #[test]
    fn truncate_drops_executed_prefix_only() {
        let mut log = Log::new();
        for s in 0..4 {
            log.commit(s, b(1), cmd(s));
        }
        log.mark_executed(0);
        log.mark_executed(1);
        assert!(log.retained_bytes() > 0);
        log.truncate_below(2);
        assert_eq!(log.compacted_up_to(), 2);
        assert_eq!(log.len(), 2, "unexecuted committed tail survives");
        assert!(log.get(0).is_none());
        assert!(log.get(2).is_some());
        assert_eq!(log.execute_cursor(), 2);
        // Late messages about truncated slots are stale no-ops.
        assert!(log.accept(0, b(9), cmd(9)), "accept below cursor acks");
        log.commit(1, b(9), cmd(9));
        assert!(log.get(0).is_none());
        assert!(log.get(1).is_none());
        // Execution continues over the tail.
        log.mark_executed(2);
        log.mark_executed(3);
    }

    #[test]
    #[should_panic(expected = "above the executed frontier")]
    fn truncate_above_executed_frontier_panics() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        log.truncate_below(1); // slot 0 committed but not executed
    }

    #[test]
    fn install_snapshot_jumps_cursor_and_keeps_tail() {
        let mut log = Log::new();
        log.accept(5, b(1), cmd(5));
        log.commit(6, b(1), cmd(6));
        assert!(log.install_snapshot(5), "snapshot ahead of empty prefix");
        assert_eq!(log.execute_cursor(), 5);
        assert_eq!(log.compacted_up_to(), 5);
        assert_eq!(log.next_slot(), 7);
        assert!(log.get(5).is_some(), "tail entry at the boundary kept");
        assert!(!log.install_snapshot(3), "stale snapshot rejected");
        log.commit(5, b(1), cmd(5));
        log.mark_executed(5);
        log.mark_executed(6);
        assert_eq!(log.execute_cursor(), 7);
    }

    #[test]
    fn retained_bytes_track_truncation() {
        let mut log = Log::new();
        for s in 0..8 {
            log.commit(s, b(1), cmd(s));
            log.mark_executed(s);
        }
        let full = log.retained_bytes();
        log.truncate_below(8);
        assert!(full > 0);
        assert_eq!(log.retained_bytes(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn unexecuted_command_window() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        log.accept(2, b(1), cmd(3)); // committed slot 0 + accepted slot 2
        assert!(
            log.has_unexecuted_command(cmd(1).id),
            "committed, not yet executed"
        );
        assert!(
            log.has_unexecuted_command(cmd(3).id),
            "accepted, not yet executed"
        );
        log.mark_executed(0);
        assert!(
            !log.has_unexecuted_command(cmd(1).id),
            "executed commands leave the window"
        );
        assert!(log.has_unexecuted_command(cmd(3).id));
    }

    #[test]
    fn far_ahead_slot_costs_one_entry() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(0));
        let window = log.entries.window_len();
        let far = u64::MAX - 1;
        assert!(log.accept(far, b(1), cmd(7)));
        log.commit(far, b(1), cmd(7));
        assert_eq!(log.entries.window_len(), window, "no window resize");
        assert_eq!(log.len(), 2);
        assert!(log.get(far).unwrap().committed);
        assert_eq!(log.entries_from(1).len(), 1);
        assert!(log.has_unexecuted_command(cmd(7).id));
    }

    #[test]
    fn overflow_entry_migrates_when_execution_reaches_it() {
        use crate::slot_window::GAP;
        let mut log = Log::new();
        let far = GAP + 10;
        log.commit(far, b(1), cmd(far));
        assert_eq!(log.entries.window_len(), 0);
        for s in 0..far {
            log.commit(s, b(1), cmd(s));
            let (slot, _) = log.next_executable().unwrap();
            log.mark_executed(slot);
        }
        assert_eq!(log.entries.window_len() as u64, far + 1, "migrated");
        assert_eq!(log.next_executable().unwrap().0, far);
        log.mark_executed(far);
        log.truncate_below(far + 1);
        assert!(log.is_empty());
        assert_eq!(log.retained_bytes(), 0);
    }
}
