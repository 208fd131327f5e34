//! A slot-indexed window: the per-slot container behind [`crate::Log`]
//! and [`crate::SafetyMonitor`].
//!
//! Consensus slots are dense and mostly touched near the front of the
//! in-flight range, so a ring buffer indexed by `slot - base` turns
//! every lookup into index arithmetic. The window covers
//! `[base, base + cells.len())`; its front is the lowest retained slot
//! and it is popped from the front when a prefix is dropped.
//!
//! A slot more than [`GAP`] past the window's end is not allowed to
//! stretch the ring (a stale or hostile far-ahead slot such as
//! `u64::MAX - 1` would otherwise cost a resize to match). It goes to a
//! `BTreeMap` overflow instead and costs one entry. Overflow slots
//! always lie past the window's end; once the end reaches one, it moves
//! into the window.

use std::collections::{BTreeMap, VecDeque};

/// How far past the window's end a slot may land and still be stored in
/// the window; slots further out go to the overflow map.
pub(crate) const GAP: u64 = 65_536;

/// Slot-indexed storage with a ring-buffer window and a sparse overflow.
#[derive(Debug, Clone)]
pub(crate) struct SlotWindow<T> {
    /// Slot held by `cells[0]`; every slot below it was dropped.
    base: u64,
    cells: VecDeque<Option<T>>,
    /// Number of `Some` cells.
    occupied: usize,
    /// Entries at slots past the window's end.
    overflow: BTreeMap<u64, T>,
}

impl<T> Default for SlotWindow<T> {
    fn default() -> Self {
        SlotWindow {
            base: 0,
            cells: VecDeque::new(),
            occupied: 0,
            overflow: BTreeMap::new(),
        }
    }
}

impl<T> SlotWindow<T> {
    /// One past the highest slot the window covers.
    fn end(&self) -> u64 {
        self.base + self.cells.len() as u64
    }

    /// Index of `slot` in `cells`, if the window covers it.
    fn index(&self, slot: u64) -> Option<usize> {
        let i = slot.checked_sub(self.base)?;
        (i < self.cells.len() as u64).then_some(i as usize)
    }

    /// Entry at `slot`, if any.
    pub(crate) fn get(&self, slot: u64) -> Option<&T> {
        match self.index(slot) {
            Some(i) => self.cells[i].as_ref(),
            None if slot >= self.base => self.overflow.get(&slot),
            None => None,
        }
    }

    /// Mutable entry at `slot`, if any.
    pub(crate) fn get_mut(&mut self, slot: u64) -> Option<&mut T> {
        match self.index(slot) {
            Some(i) => self.cells[i].as_mut(),
            None if slot >= self.base => self.overflow.get_mut(&slot),
            None => None,
        }
    }

    /// The entry at `slot`, inserting `f()` if it is empty. Panics if
    /// `slot` lies below the window's front (that prefix was dropped).
    pub(crate) fn get_or_insert_with(&mut self, slot: u64, f: impl FnOnce() -> T) -> &mut T {
        assert!(slot >= self.base, "slot {slot} below the window front");
        let end = self.end();
        if slot >= end {
            if slot - end >= GAP {
                return self.overflow.entry(slot).or_insert_with(f);
            }
            self.cells
                .resize_with((slot - self.base + 1) as usize, || None);
            self.migrate();
        }
        let cell = &mut self.cells[(slot - self.base) as usize];
        if cell.is_none() {
            self.occupied += 1;
        }
        cell.get_or_insert_with(f)
    }

    /// Number of stored entries.
    pub(crate) fn len(&self) -> usize {
        self.occupied + self.overflow.len()
    }

    /// Every entry at or above `from`, in slot order.
    pub(crate) fn iter_from(&self, from: u64) -> impl Iterator<Item = (u64, &T)> {
        let start = from.saturating_sub(self.base).min(self.cells.len() as u64);
        let first = self.base + start;
        self.cells
            .range(start as usize..)
            .enumerate()
            .filter_map(move |(i, c)| c.as_ref().map(|v| (first + i as u64, v)))
            .chain(self.overflow.range(from..).map(|(&s, v)| (s, v)))
    }

    /// Drop every entry below `up_to` and move the window's front there.
    pub(crate) fn truncate_below(&mut self, up_to: u64) {
        if up_to <= self.base {
            return;
        }
        let n = (up_to - self.base).min(self.cells.len() as u64) as usize;
        let dropped = self.cells.drain(..n).filter(Option::is_some).count();
        self.occupied -= dropped;
        self.base = up_to;
        if !self.overflow.is_empty() {
            self.overflow = self.overflow.split_off(&up_to);
            self.migrate();
        }
    }

    /// Move overflow entries the window's end has reached into the
    /// window. Overflow keys are strictly increasing, so each one lands
    /// either inside the window or exactly at its end.
    fn migrate(&mut self) {
        loop {
            let end = self.end();
            let Some(e) = self.overflow.first_entry() else {
                break;
            };
            if *e.key() > end {
                break;
            }
            let (slot, v) = e.remove_entry();
            let i = (slot - self.base) as usize;
            if i == self.cells.len() {
                self.cells.push_back(Some(v));
            } else {
                debug_assert!(self.cells[i].is_none(), "overflow shadowed a cell");
                self.cells[i] = Some(v);
            }
            self.occupied += 1;
        }
    }

    /// Cells the window spans, occupied or not.
    #[cfg(test)]
    pub(crate) fn window_len(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(w: &SlotWindow<u64>, from: u64) -> Vec<u64> {
        w.iter_from(from).map(|(s, _)| s).collect()
    }

    #[test]
    fn truncation_pops_front_and_drops_overflow_below() {
        let mut w = SlotWindow::default();
        for s in 0..4 {
            w.get_or_insert_with(s, || s);
        }
        w.get_or_insert_with(u64::MAX - 1, || 7);
        w.get_or_insert_with(GAP + 100, || 8);
        w.truncate_below(2);
        assert_eq!(slots(&w, 0), vec![2, 3, GAP + 100, u64::MAX - 1]);
        // Jumping past the window's end empties it; the overflow entry
        // at the new front moves in.
        w.truncate_below(GAP + 100);
        assert_eq!(w.window_len(), 1);
        assert_eq!(w.get(GAP + 100), Some(&8));
        assert_eq!(w.len(), 2);
        assert_eq!(w.get(3), None);
    }
}
