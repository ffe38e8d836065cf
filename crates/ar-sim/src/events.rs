//! An in-order future-event list for constant-delay stages.

use ar_types::Cycle;
use std::collections::VecDeque;

/// A future-event list whose events are scheduled in non-decreasing cycle
/// order: a FIFO of `(cycle, event)`. Its front is always the next event
/// due, so popping is O(1) and needs no heap.
///
/// A stage with one constant delay fills it in order by construction: every
/// event is scheduled at `now + delay`, and `now` never decreases. Events
/// due in the same cycle pop in scheduling order.
///
/// # Example
///
/// ```
/// use ar_sim::EventFifo;
///
/// let mut q = EventFifo::new();
/// q.schedule(3, "request");
/// q.schedule(3, "response");
/// assert_eq!(q.pop_due(2), None);
/// assert_eq!(q.pop_due(3), Some("request"));
/// assert_eq!(q.next_at(), Some(3));
/// ```
#[derive(Debug)]
pub struct EventFifo<E> {
    events: VecDeque<(Cycle, E)>,
}

impl<E> Default for EventFifo<E> {
    fn default() -> Self {
        EventFifo { events: VecDeque::new() }
    }
}

impl<E> EventFifo<E> {
    /// Creates an empty event list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at cycle `at`, which must not precede the cycle of
    /// the last event scheduled (debug builds assert it).
    pub fn schedule(&mut self, at: Cycle, event: E) {
        debug_assert!(
            self.last_at().is_none_or(|last| last <= at),
            "event at cycle {at} scheduled after one at a later cycle"
        );
        self.events.push_back((at, event));
    }

    /// Pops the next event if it is scheduled at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<E> {
        match self.events.front() {
            Some(&(at, _)) if at <= now => self.events.pop_front().map(|(_, event)| event),
            _ => None,
        }
    }

    /// The cycle of the next event, if any.
    pub fn next_at(&self) -> Option<Cycle> {
        self.events.front().map(|&(at, _)| at)
    }

    /// The cycle of the last event scheduled, if any is pending.
    pub fn last_at(&self) -> Option<Cycle> {
        self.events.back().map(|&(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Visits the pending events in pop order.
    pub fn entries(&self) -> impl Iterator<Item = (Cycle, &E)> {
        self.events.iter().map(|(at, event)| (*at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventFifo::new();
        q.schedule(1, 'a');
        q.schedule(5, 'b');
        q.schedule(9, 'c');
        assert_eq!(q.pop_due(0), None, "nothing is due before cycle 1");
        assert_eq!(q.pop_due(5), Some('a'));
        assert_eq!(q.pop_due(5), Some('b'));
        assert_eq!(q.pop_due(8), None, "a later event never overtakes");
        assert_eq!(q.pop_due(20), Some('c'));
        assert!(q.is_empty() && q.next_at().is_none());
    }

    #[test]
    fn same_cycle_events_are_fifo() {
        let mut q = EventFifo::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop_due(5), Some(1));
        assert_eq!(q.pop_due(5), Some(2));
        assert_eq!(q.pop_due(5), Some(3));
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventFifo::new();
        q.schedule(10, "later");
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(10), Some("later"));
        assert!(q.is_empty());
    }

    #[test]
    fn next_at_reports_earliest() {
        let mut q = EventFifo::new();
        assert_eq!(q.next_at(), None);
        q.schedule(3, 'x');
        q.schedule(7, 'y');
        assert_eq!(q.next_at(), Some(3));
        assert_eq!(q.last_at(), Some(7));
        assert_eq!(q.len(), 2);
        assert_eq!(q.entries().collect::<Vec<_>>(), vec![(3, &'x'), (7, &'y')]);
    }
}
