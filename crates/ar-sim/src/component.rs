//! The event-driven component layer of the simulation kernel.
//!
//! The original system model advanced in lock-step: every core, router, AR
//! engine, DRAM channel and HMC vault was ticked on every cycle, so almost
//! all wall-clock time went into visiting components with nothing to do. The
//! types in this module invert that relationship: a [`Component`] *requests*
//! the next cycle at which it has internal work ([`NextWake`]), the system
//! driver keeps those requests in a [`WakeTable`], and it only wakes
//! components that are due.
//!
//! # Contract
//!
//! The equivalence of the event-driven kernel with the lock-step reference
//! rests on two rules every `Component` implementation must obey:
//!
//! 1. **Spurious wakes are harmless.** Waking a component at a cycle where it
//!    has no due work must be a behavioural no-op (identical observable state
//!    and statistics afterwards). The lock-step driver exploits this by
//!    waking everything on every cycle.
//! 2. **Wake requests are conservative.** After `wake(now)` returns
//!    `NextWake::At(t)`, the component must have no observable state change
//!    scheduled strictly before `t`; after `NextWake::Idle` it must be inert
//!    until externally stimulated (a push, an injected packet, a delivered
//!    completion). Whoever stimulates a sleeping component is responsible for
//!    re-arming it in the driver's calendar.
//!
//! Under these rules, skipping a cycle in which no component is due is
//! exactly equivalent to simulating it — which is what
//! `ar_system::System::run` does, and what the lock-step-vs-event-driven
//! equivalence tests verify end to end.
//!
//! # Example
//!
//! ```
//! use ar_sim::{Component, NextWake, SchedCtx};
//! use ar_types::Cycle;
//!
//! /// A timer that fires once, `delay` cycles after being armed.
//! struct Timer {
//!     fire_at: Option<Cycle>,
//!     fired: u32,
//! }
//!
//! impl Component for Timer {
//!     fn next_wake(&self, _now: Cycle) -> NextWake {
//!         NextWake::from_next(self.fire_at)
//!     }
//!     fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
//!         if self.fire_at == Some(now) {
//!             self.fire_at = None;
//!             self.fired += 1;
//!         }
//!         self.next_wake(now)
//!     }
//! }
//!
//! let mut timer = Timer { fire_at: Some(7), fired: 0 };
//! // A driver sleeps until the requested cycle, then wakes the component.
//! assert_eq!(timer.next_wake(0), NextWake::At(7));
//! let mut ctx = SchedCtx::new(7);
//! assert_eq!(timer.wake(7, &mut ctx), NextWake::Idle);
//! assert_eq!(timer.fired, 1);
//! ```

use ar_types::Cycle;

/// When a component next has internal work to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextWake {
    /// Wake the component at the given cycle (the driver clamps requests
    /// that are already in the past to the next processed cycle).
    At(Cycle),
    /// The component has no internal work: it sleeps until an external
    /// stimulus re-arms it.
    Idle,
}

impl NextWake {
    /// Builds a wake request from an optional next-event cycle.
    pub fn from_next(next: Option<Cycle>) -> NextWake {
        match next {
            Some(at) => NextWake::At(at),
            None => NextWake::Idle,
        }
    }

    /// The earlier of two wake requests (`Idle` is the neutral element).
    pub fn min_with(self, other: NextWake) -> NextWake {
        match (self, other) {
            (NextWake::At(a), NextWake::At(b)) => NextWake::At(a.min(b)),
            (NextWake::At(a), NextWake::Idle) | (NextWake::Idle, NextWake::At(a)) => {
                NextWake::At(a)
            }
            (NextWake::Idle, NextWake::Idle) => NextWake::Idle,
        }
    }

    /// Folds an optional cycle into this wake request.
    pub fn min_opt(self, next: Option<Cycle>) -> NextWake {
        self.min_with(NextWake::from_next(next))
    }

    /// The requested cycle, if any.
    pub fn cycle(self) -> Option<Cycle> {
        match self {
            NextWake::At(at) => Some(at),
            NextWake::Idle => None,
        }
    }

    /// Returns true if the component requested to sleep.
    pub fn is_idle(self) -> bool {
        self == NextWake::Idle
    }
}

/// Context handed to a component while it is being woken.
///
/// Currently it only carries the cycle being processed; it exists as the
/// extension point for driver-mediated services a component may need
/// mid-wake, without having to change every `wake` signature.
#[derive(Debug, Clone, Copy)]
pub struct SchedCtx {
    now: Cycle,
}

impl SchedCtx {
    /// Creates a context for the cycle being processed.
    pub fn new(now: Cycle) -> Self {
        SchedCtx { now }
    }

    /// The cycle being processed.
    pub fn now(&self) -> Cycle {
        self.now
    }
}

/// A timed simulation component scheduled through wake-up requests instead of
/// per-cycle polling.
pub trait Component {
    /// The next cycle at which this component has internal work, assuming no
    /// further external stimulus. Must be conservative: no observable state
    /// change may be pending strictly before the returned cycle.
    fn next_wake(&self, now: Cycle) -> NextWake;

    /// Performs all work due at `now` and returns the new wake request.
    /// Waking a component with no due work must be a behavioural no-op.
    fn wake(&mut self, now: Cycle, ctx: &mut SchedCtx) -> NextWake;
}

/// The value of a slot with no pending wake-up.
const NONE: Cycle = Cycle::MAX;

/// A driver's wake-up calendar: one pending cycle per dense key slot,
/// min-merged when a key is scheduled again.
///
/// Keeping only a key's earliest request is exact under the [`Component`]
/// contract. A later request is dropped only when the key comes due first,
/// and the driver re-arms every due key from its fresh
/// [`Component::next_wake`] in the same step. That fresh request already
/// covers all of the key's pending work, so a wake at the dropped cycle
/// would have been a spurious one — a no-op by the contract.
#[derive(Debug)]
pub struct WakeTable {
    at: Vec<Cycle>,
    /// The earliest pending cycle over all slots ([`NONE`] when empty).
    next: Cycle,
}

impl WakeTable {
    /// A calendar of `slots` keys, none of them scheduled.
    pub fn new(slots: usize) -> Self {
        WakeTable { at: vec![NONE; slots], next: NONE }
    }

    /// Schedules a wake-up of `slot` at cycle `at`; the slot keeps the
    /// earlier of this and any request still pending.
    #[inline]
    pub fn schedule(&mut self, slot: usize, at: Cycle) {
        debug_assert!(at != NONE, "cycle {at} is reserved for an empty slot");
        self.at[slot] = self.at[slot].min(at);
        self.next = self.next.min(at);
    }

    /// Schedules a wake-up from a component's [`NextWake`] request (`Idle`
    /// requests are dropped).
    #[inline]
    pub fn schedule_next(&mut self, slot: usize, wake: NextWake) {
        if let NextWake::At(at) = wake {
            self.schedule(slot, at);
        }
    }

    /// Arms an event-triggered wake of `slot`: it fires at the next cycle the
    /// driver processes, whenever that is.
    #[inline]
    pub fn wake(&mut self, slot: usize) {
        self.schedule(slot, 0);
    }

    /// The earliest pending wake-up, if any. The driver processes
    /// `max(next_cycle, now + 1)` next, so a request for a cycle already
    /// processed fires at the next one.
    #[inline]
    pub fn next_cycle(&self) -> Option<Cycle> {
        (self.next != NONE).then_some(self.next)
    }

    /// Overwrites `due` with one flag per slot — set for every slot whose
    /// wake-up is at or before `now` — and removes those wake-ups.
    #[inline]
    pub fn pop_due_into(&mut self, now: Cycle, due: &mut [bool]) {
        debug_assert_eq!(due.len(), self.at.len(), "one due flag per slot");
        let mut next = NONE;
        for (at, due) in self.at.iter_mut().zip(due) {
            *due = *at <= now;
            if *due {
                *at = NONE;
            } else {
                next = next.min(*at);
            }
        }
        self.next = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A component that performs one unit of work per cycle for `remaining`
    /// cycles, then idles until `push`ed again.
    struct Worker {
        remaining: u32,
        work_done: u32,
    }

    impl Worker {
        fn push(&mut self, units: u32) {
            self.remaining += units;
        }
    }

    impl Component for Worker {
        fn next_wake(&self, now: Cycle) -> NextWake {
            if self.remaining > 0 {
                NextWake::At(now + 1)
            } else {
                NextWake::Idle
            }
        }

        fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
            if self.remaining > 0 {
                self.remaining -= 1;
                self.work_done += 1;
            }
            self.next_wake(now)
        }
    }

    #[test]
    fn next_wake_min_folds_correctly() {
        assert_eq!(NextWake::At(3).min_with(NextWake::At(7)), NextWake::At(3));
        assert_eq!(NextWake::Idle.min_with(NextWake::At(7)), NextWake::At(7));
        assert_eq!(NextWake::At(7).min_with(NextWake::Idle), NextWake::At(7));
        assert_eq!(NextWake::Idle.min_with(NextWake::Idle), NextWake::Idle);
        assert_eq!(NextWake::Idle.min_opt(Some(4)), NextWake::At(4));
        assert_eq!(NextWake::At(2).min_opt(None), NextWake::At(2));
        assert_eq!(NextWake::Idle.cycle(), None);
        assert!(NextWake::Idle.is_idle());
    }

    #[test]
    fn component_wake_and_rearm_cycle() {
        // Drive a Worker exactly the way the system driver does: wake it only
        // when due, re-arm from its NextWake, re-arm on external stimulus.
        let mut worker = Worker { remaining: 2, work_done: 0 };
        let mut pending = Some(0);
        let mut now = 0;
        let mut processed = Vec::new();
        while let Some(next) = pending.take() {
            now = next.max(now);
            processed.push(now);
            let mut ctx = SchedCtx::new(now);
            pending = worker.wake(now, &mut ctx).cycle();
        }
        // Two units of work, one per cycle, then idle: cycles 0 and 1 only.
        assert_eq!(processed, vec![0, 1]);
        assert_eq!(worker.work_done, 2);
        assert_eq!(worker.next_wake(now), NextWake::Idle);

        // External stimulus: the caller must re-arm the sleeping component.
        worker.push(1);
        assert_eq!(worker.next_wake(5), NextWake::At(6));
        let mut ctx = SchedCtx::new(6);
        assert_eq!(worker.wake(6, &mut ctx), NextWake::Idle);
        assert_eq!(worker.work_done, 3);
    }

    #[test]
    fn spurious_wake_is_a_no_op() {
        let mut worker = Worker { remaining: 0, work_done: 0 };
        let mut ctx = SchedCtx::new(4);
        assert_eq!(worker.wake(4, &mut ctx), NextWake::Idle);
        assert_eq!(worker.work_done, 0);
    }

    fn pop(table: &mut WakeTable, now: Cycle) -> Vec<usize> {
        let mut due = vec![false; table.at.len()];
        table.pop_due_into(now, &mut due);
        (0..due.len()).filter(|&slot| due[slot]).collect()
    }

    #[test]
    fn scheduler_pops_due_keys_deduplicated() {
        let mut table = WakeTable::new(4);
        table.schedule(1, 9);
        table.schedule(1, 5);
        table.schedule(1, 5); // duplicate
        table.schedule(1, 7);
        table.schedule(2, 5);
        table.schedule(3, 9);
        assert_eq!(table.next_cycle(), Some(5));
        assert!(pop(&mut table, 4).is_empty());
        assert_eq!(pop(&mut table, 5), vec![1, 2], "a key is due once, at its earliest request");
        assert_eq!(table.next_cycle(), Some(9));
        assert!(pop(&mut table, 8).is_empty());
        assert_eq!(pop(&mut table, 100), vec![3], "slot 1's later requests merged into cycle 5");
        assert_eq!(table.next_cycle(), None);
    }

    #[test]
    fn wake_fires_at_the_next_processed_cycle() {
        let mut table = WakeTable::new(3);
        table.schedule(0, 7);
        assert_eq!(pop(&mut table, 7), vec![0]);
        // An event-triggered wake after the clock reached 7: due at the next
        // pop, whatever its cycle, and it pulls `next_cycle` below `now + 1`.
        table.wake(2);
        assert_eq!(table.next_cycle(), Some(0));
        assert_eq!(pop(&mut table, 8), vec![2]);
        // A request for a cycle already processed behaves the same.
        table.schedule(1, 3);
        assert_eq!(pop(&mut table, 9), vec![1]);
    }

    #[test]
    fn next_cycle_after_a_pop_is_the_earliest_remaining_request() {
        let mut table = WakeTable::new(5);
        for (slot, at) in [(0, 12), (1, 4), (2, 30), (3, 4), (4, 20)] {
            table.schedule(slot, at);
        }
        assert_eq!(pop(&mut table, 4), vec![1, 3]);
        assert_eq!(table.next_cycle(), Some(12));
        assert_eq!(pop(&mut table, 25), vec![0, 4]);
        assert_eq!(table.next_cycle(), Some(30));
        // Re-arming a popped slot during the step lowers it again.
        table.schedule(0, 26);
        assert_eq!(table.next_cycle(), Some(26));
    }

    #[test]
    fn idle_requests_are_not_scheduled() {
        let mut table = WakeTable::new(2);
        table.schedule_next(1, NextWake::Idle);
        assert_eq!(table.next_cycle(), None);
        assert!(pop(&mut table, Cycle::MAX - 1).is_empty());
        table.schedule_next(1, NextWake::At(3));
        assert_eq!(table.next_cycle(), Some(3));
        assert_eq!(pop(&mut table, 3), vec![1]);
    }
}
