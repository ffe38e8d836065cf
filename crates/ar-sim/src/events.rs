//! A classic future-event list for event-driven components.

use ar_types::Cycle;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Scheduled<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// A future-event list: events are scheduled for a cycle and popped in
/// chronological order (FIFO among events scheduled for the same cycle).
///
/// # Example
///
/// ```
/// use ar_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(10, "refresh");
/// q.schedule(3, "respond");
/// assert_eq!(q.pop_next(), Some((3, "respond")));
/// assert_eq!(q.pop_next(), Some((10, "refresh")));
/// assert_eq!(q.pop_next(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    /// Last cycle popped; used to detect scheduling in the past.
    last_popped: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, last_popped: 0 }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at the given cycle.
    ///
    /// Scheduling an event earlier than the last popped event is allowed but
    /// it will be delivered immediately after (time does not rewind).
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at: at.max(self.last_popped), seq, event });
    }

    /// Pops the chronologically next event together with its cycle.
    pub fn pop_next(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|s| {
            self.last_popped = s.at;
            (s.at, s.event)
        })
    }

    /// Pops the next event only if it is scheduled at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, E)> {
        if self.heap.peek().map(|s| s.at <= now).unwrap_or(false) {
            self.pop_next()
        } else {
            None
        }
    }

    /// The cycle of the next scheduled event, if any.
    pub fn next_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The cycle of the most recently popped event (the queue's notion of
    /// "now", which `schedule` clamps to).
    pub fn last_popped(&self) -> Cycle {
        self.last_popped
    }

    /// Visits pending events ordered by (cycle, scheduling order) — exactly
    /// the order `pop_next` would deliver them. Checkpoint snapshots persist
    /// this order and replay it through `schedule` on a queue primed with
    /// [`EventQueue::restore_last_popped`]; fresh sequence numbers assigned in
    /// replay order preserve same-cycle FIFO delivery.
    pub fn state_entries(&self) -> Vec<(Cycle, &E)> {
        let mut pending: Vec<&Scheduled<E>> = self.heap.iter().collect();
        pending.sort_by_key(|s| (s.at, s.seq));
        pending.into_iter().map(|s| (s.at, &s.event)).collect()
    }

    /// Restores the "now" watermark from a checkpoint. Call before replaying
    /// the serialized events so `schedule`'s past-clamp behaves identically
    /// to the snapshotted queue.
    pub fn restore_last_popped(&mut self, last_popped: Cycle) {
        self.last_popped = last_popped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5, 'b');
        q.schedule(1, 'a');
        q.schedule(9, 'c');
        assert_eq!(q.pop_next(), Some((1, 'a')));
        assert_eq!(q.pop_next(), Some((5, 'b')));
        assert_eq!(q.pop_next(), Some((9, 'c')));
    }

    #[test]
    fn same_cycle_events_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop_next().unwrap().1, 1);
        assert_eq!(q.pop_next().unwrap().1, 2);
        assert_eq!(q.pop_next().unwrap().1, 3);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(10, "later");
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(10), Some((10, "later")));
        assert!(q.is_empty());
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(10, "a");
        assert_eq!(q.pop_next(), Some((10, "a")));
        q.schedule(5, "late");
        assert_eq!(q.pop_next(), Some((10, "late")));
    }

    #[test]
    fn next_at_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_at(), None);
        q.schedule(7, ());
        q.schedule(3, ());
        assert_eq!(q.next_at(), Some(3));
        assert_eq!(q.len(), 2);
    }
}
