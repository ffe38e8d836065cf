//! The out-of-order core timing model.

use crate::fastforward::{self, FastForward, MIN_SKIPPED_CYCLES};
use crate::mi::{MessageInterface, OffloadCommand, OffloadKind};
use ar_sim::{Component, NextWake, SchedCtx};
use ar_types::config::CoreConfig;
use ar_types::json::{Json, JsonError};
use ar_types::{Addr, CoreId, Cycle, ReduceOp, ThreadId, WorkItem, WorkStream};
use std::collections::VecDeque;

/// The kind of memory access a core sends into the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An atomic read-modify-write.
    Atomic,
}

/// A memory request emitted by a core. Request ids are unique per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Core-local request identifier.
    pub req_id: u64,
    /// Accessed address.
    pub addr: Addr,
    /// Access kind.
    pub kind: MemAccessKind,
}

/// Everything a core produced during one tick.
#[derive(Debug, Default, Clone)]
pub struct CoreOutput {
    /// Memory requests to send into the cache hierarchy.
    pub mem_requests: Vec<MemAccess>,
}

/// Why the core could not retire or issue anything in a cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles stalled with a memory access at the ROB head.
    pub memory: u64,
    /// Cycles stalled waiting for a gather result.
    pub gather: u64,
    /// Cycles stalled at a barrier.
    pub barrier: u64,
    /// Cycles stalled because the Message Interface was full.
    pub offload: u64,
    /// Cycles in which the ROB was full.
    pub rob_full: u64,
}

impl StallBreakdown {
    /// Total stall cycles.
    pub fn total(&self) -> u64 {
        self.memory + self.gather + self.barrier + self.offload + self.rob_full
    }
}

/// Why a parked core is blocked. Only the event-waiting causes appear here:
/// a core never parks on an offload (Message-Interface-full) or ROB-pressure
/// stall with a retirable head, because those resolve through the regular
/// per-cycle machinery rather than an external completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Blocked on a memory response ([`Core::complete_mem`]).
    Memory,
    /// Blocked on a gather result ([`Core::complete_gather`]).
    Gather,
    /// Blocked at a barrier ([`Core::release_barrier`]).
    Barrier,
}

/// Interval-based stall bookkeeping of a parked core.
///
/// While parked, the core is provably inert: its ROB head waits on an
/// external event and the issue stage cannot make progress either, so every
/// skipped cycle would have been a stall tick attributed to `cause`. The
/// whole interval is settled in one shot by the first tick after `since`
/// (see [`Core::tick`]), which keeps the stall counters byte-identical to
/// per-cycle accrual.
#[derive(Debug, Clone, Copy)]
struct Parked {
    /// First core cycle whose stall has not yet been added to the counters.
    since: Cycle,
    /// Stall cause at the ROB head for every cycle of the parked interval
    /// (the head cannot change state without unparking the core).
    cause: StallCause,
    /// Set once an external completion flipped a ROB slot: the core must be
    /// ticked again, and [`Core::is_parked`] stops reporting it as inert.
    runnable: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SlotState {
    Ready(Cycle),
    WaitingMem(u64),
    WaitingGather(Addr),
    WaitingBarrier(u32),
}

#[derive(Debug, Clone, Copy)]
struct RobSlot {
    insns: u32,
    state: SlotState,
}

/// One out-of-order core executing a [`WorkStream`].
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    issue_width: u32,
    rob_entries: usize,
    max_outstanding_mem: usize,
    stream: WorkStream,
    partial_compute: u32,
    rob: VecDeque<RobSlot>,
    rob_insns: usize,
    outstanding_mem: usize,
    next_req_id: u64,
    mi: MessageInterface,
    /// Memory requests produced by [`Component::wake`], drained by the
    /// system through [`Core::take_requests`].
    pending_requests: Vec<MemAccess>,
    instructions_retired: u64,
    cycles: u64,
    stalls: StallBreakdown,
    /// Interval-accounting state while the core sleeps on an external event.
    parked: Option<Parked>,
    /// Id of the one unresolved barrier in the ROB, if any (the issue stage
    /// stops at a barrier, so a second one cannot enter before the first is
    /// released).
    waiting_barrier_id: Option<u32>,
    /// Pending analytically-scheduled bulk compute/drain interval (armed by
    /// an event-driven driver through [`Core::try_fast_forward`]; never set
    /// by per-cycle ticking).
    fast_forward: Option<FastForward>,
    updates_offloaded: u64,
    gathers_offloaded: u64,
}

impl Core {
    /// Creates a core that will execute `stream`.
    pub fn new(id: CoreId, cfg: &CoreConfig, stream: WorkStream) -> Self {
        Core {
            id,
            issue_width: cfg.issue_width,
            rob_entries: cfg.rob_entries,
            max_outstanding_mem: cfg.max_outstanding_mem,
            stream,
            partial_compute: 0,
            rob: VecDeque::new(),
            rob_insns: 0,
            outstanding_mem: 0,
            next_req_id: 0,
            mi: MessageInterface::new(cfg.mi_queue_depth),
            pending_requests: Vec::new(),
            instructions_retired: 0,
            cycles: 0,
            stalls: StallBreakdown::default(),
            parked: None,
            waiting_barrier_id: None,
            fast_forward: None,
            updates_offloaded: 0,
            gathers_offloaded: 0,
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The thread running on this core (one thread per core).
    pub fn thread(&self) -> ThreadId {
        ThreadId::new(self.id.index())
    }

    /// Mutable access to the core's Message Interface (drained by the system).
    pub fn mi_mut(&mut self) -> &mut MessageInterface {
        &mut self.mi
    }

    /// Read-only access to the Message Interface.
    pub fn mi(&self) -> &MessageInterface {
        &self.mi
    }

    /// Dynamic instructions retired so far.
    pub fn instructions_retired(&self) -> u64 {
        self.instructions_retired
    }

    /// Core cycles ticked so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Stall breakdown so far.
    pub fn stalls(&self) -> StallBreakdown {
        self.stalls
    }

    /// Updates offloaded through the MI so far.
    pub fn updates_offloaded(&self) -> u64 {
        self.updates_offloaded
    }

    /// Gathers offloaded through the MI so far.
    pub fn gathers_offloaded(&self) -> u64 {
        self.gathers_offloaded
    }

    /// Returns true once the stream is exhausted, the ROB has drained and the
    /// MI is empty.
    pub fn is_done(&self) -> bool {
        self.stream.is_empty()
            && self.partial_compute == 0
            && self.rob.is_empty()
            && self.mi.is_empty()
    }

    /// If the core is blocked at a barrier, returns the barrier id. O(1):
    /// the id is tracked when the barrier issues and cleared when it is
    /// released — at most one barrier can be unresolved at a time, because
    /// the issue stage stops at it. (The barrier-release scan runs every
    /// network cycle over every core, so this must not walk the ROB.)
    pub fn waiting_barrier(&self) -> Option<u32> {
        debug_assert_eq!(
            self.waiting_barrier_id,
            self.rob.iter().find_map(|s| match s.state {
                SlotState::WaitingBarrier(id) => Some(id),
                _ => None,
            }),
            "the tracked barrier id diverged from the ROB scan"
        );
        self.waiting_barrier_id
    }

    /// Returns true while the core sleeps on an external event: its ROB head
    /// waits on a memory response, gather result or barrier release, the
    /// issue stage is blocked too, and no completion has arrived yet.
    ///
    /// Skipping [`Core::tick`] for a parked core is behaviour-preserving:
    /// the first tick after the event settles the whole skipped interval
    /// into the stall counter per-cycle accrual would have used (and into
    /// [`Core::cycles`]). The event delivery methods ([`Core::complete_mem`],
    /// [`Core::complete_gather`], [`Core::release_barrier`]) clear this flag,
    /// so the driver ticks the core again exactly when a per-cycle driver
    /// would first see it make progress.
    pub fn is_parked(&self) -> bool {
        self.parked.as_ref().is_some_and(|p| !p.runnable)
    }

    /// Marks a parked core runnable after an external completion flipped one
    /// of its ROB slots. The pending interval stays recorded; the next tick
    /// settles it.
    fn unpark(&mut self) {
        if let Some(parked) = &mut self.parked {
            parked.runnable = true;
        }
    }

    /// Adds the parked interval `[since, now)` to the stall counter of the
    /// recorded cause (and to the cycle counter), making the totals identical
    /// to what per-cycle ticking over the skipped interval would have
    /// accrued. No-op when the core is not parked.
    fn settle(&mut self, now: Cycle) {
        if let Some(parked) = self.parked.take() {
            let span = now.saturating_sub(parked.since);
            if span > 0 {
                self.cycles += span;
                match parked.cause {
                    StallCause::Memory => self.stalls.memory += span,
                    StallCause::Gather => self.stalls.gather += span,
                    StallCause::Barrier => self.stalls.barrier += span,
                }
            }
        }
    }

    /// Settles any still-open lazy interval — a parked stall interval or a
    /// pending fast-forwarded compute interval — up to (excluding) `end`,
    /// the first core cycle the simulation did not process. Called by the
    /// system when a run is cut off by the cycle limit or an observer stop,
    /// so truncated reports match per-cycle accrual too.
    pub fn settle_to(&mut self, end: Cycle) {
        self.settle_compute_to(end);
        self.settle(end);
    }

    /// Fully settles the core at `end` for a snapshot: like
    /// [`Core::settle_to`], but a fast-forwarded interval extending past
    /// `end` is dropped after its elapsed prefix is applied. The next real
    /// tick would drop it anyway ([`Core::tick`] supersedes pending
    /// intervals), and an event-driven driver resuming from the restored
    /// state re-arms an equivalent interval, so the report cannot tell —
    /// while [`Core::state_to_json`] gets the settled core it requires.
    pub fn settle_for_snapshot(&mut self, end: Cycle) {
        self.settle_to(end);
        self.fast_forward = None;
    }

    // ------------------------------------------------------------------
    // Bulk compute fast-forward
    // ------------------------------------------------------------------

    /// Attempts to arm a fast-forwarded interval starting at core cycle
    /// `since` (the cycle after the tick that just ran). Succeeds only when
    /// the upcoming cycles are provably pure — every ROB slot is already
    /// retirable and the stream head is a compute run (or, with an empty
    /// stream and Message Interface, a plain ROB drain) — and when the
    /// closed-form schedule covers at least
    /// [`MIN_SKIPPED_CYCLES`]
    /// cycles. See the [`crate::fastforward`] module docs for the interval
    /// shapes and the purity argument.
    ///
    /// Only event-driven drivers call this; per-cycle ticking never arms an
    /// interval, which keeps the lock-step kernel a genuine per-cycle
    /// oracle for the analytic schedule.
    pub fn try_fast_forward(&mut self, since: Cycle) -> bool {
        if self.fast_forward.is_some() || self.parked.is_some() || self.outstanding_mem > 0 {
            return false;
        }
        let head_compute =
            self.partial_compute > 0 || matches!(self.stream.peek(), Some(WorkItem::Compute(_)));
        let drain = !head_compute
            && self.partial_compute == 0
            && self.stream.is_empty()
            && self.mi.is_empty()
            && !self.rob.is_empty();
        if !head_compute && !drain {
            return false;
        }
        // Nothing external may be able to intervene: every ROB slot must
        // already be retirable. (A waiting slot is exactly what a memory
        // completion, gather result or barrier release could flip.)
        if !self.rob.iter().all(|s| matches!(s.state, SlotState::Ready(t) if t <= since)) {
            return false;
        }
        let w = u64::from(self.issue_width);
        let q = self.rob_insns as u64;
        let skippable = if head_compute {
            let run = self.compute_run_insns();
            fastforward::plan_compute(q, run, w, self.rob_entries as u64)
        } else {
            fastforward::plan_drain(q, w)
        };
        if skippable < MIN_SKIPPED_CYCLES {
            return false;
        }
        self.fast_forward =
            Some(FastForward { since, until: since + skippable, applied_to: since });
        true
    }

    /// Compute instructions at the stream head: the unissued remainder of
    /// the current compute item plus every consecutive `Compute` item after
    /// it.
    fn compute_run_insns(&self) -> u64 {
        u64::from(self.partial_compute)
            + self
                .stream
                .iter()
                .map_while(|item| match item {
                    WorkItem::Compute(n) => Some(u64::from(*n)),
                    _ => None,
                })
                .sum::<u64>()
    }

    /// The first core cycle at which a pending fast-forwarded interval needs
    /// its next real tick, if one is armed.
    pub fn fast_forward_until(&self) -> Option<Cycle> {
        self.fast_forward.map(|ff| ff.until)
    }

    /// Returns true while `now` lies inside a pending fast-forwarded
    /// interval. The event-driven driver skips the core's tick for such
    /// cycles — their effects are applied analytically by the settle that
    /// precedes the next real tick.
    pub fn is_fast_forwarding(&self, now: Cycle) -> bool {
        self.fast_forward.is_some_and(|ff| now < ff.until)
    }

    /// Applies the not-yet-settled prefix `[applied_to, min(end, until))` of
    /// a pending fast-forwarded interval: cycle and retirement counters,
    /// stream consumption and the final ROB occupancy, all exactly as
    /// per-cycle ticking over those cycles would have left them. No-op
    /// without a pending interval, so callers (the IPC sampler, truncation
    /// paths) can invoke it unconditionally. A partial settle keeps the
    /// remainder of the interval pending.
    pub fn settle_compute_to(&mut self, end: Cycle) {
        let Some(ff) = self.fast_forward else { return };
        let stop = end.min(ff.until);
        if stop <= ff.applied_to {
            return;
        }
        let d = stop - ff.applied_to;
        let rem = self.compute_run_insns();
        let adv = fastforward::advance(
            self.rob_insns as u64,
            rem,
            u64::from(self.issue_width),
            self.rob_entries as u64,
            d,
        );
        self.cycles += d;
        self.instructions_retired += adv.retired;
        self.consume_issued(adv.issued);
        // Rebuild the ROB as merged ready slots. Any partitioning of a
        // contiguous run of retirable slots is behaviourally identical: the
        // retire stage crosses slot boundaries while its budget lasts, the
        // issue stage only inspects the youngest slot's *state*, and every
        // merged instruction was (or becomes) ready no later than `stop`,
        // which is the earliest cycle the next tick can observe it.
        self.rob.clear();
        let mut left = adv.rob_insns;
        while left > 0 {
            let chunk = left.min(u64::from(u32::MAX));
            self.rob.push_back(RobSlot { insns: chunk as u32, state: SlotState::Ready(stop) });
            left -= chunk;
        }
        self.rob_insns = adv.rob_insns as usize;
        self.fast_forward =
            if stop == ff.until { None } else { Some(FastForward { applied_to: stop, ..ff }) };
    }

    /// Removes `issued` instructions from the head of the compute run,
    /// popping stream items and updating the partially-issued remainder the
    /// way per-cycle issuing would have.
    fn consume_issued(&mut self, mut n: u64) {
        let from_partial = u64::from(self.partial_compute).min(n);
        self.partial_compute -= from_partial as u32;
        n -= from_partial;
        while n > 0 {
            match self.stream.pop() {
                Some(WorkItem::Compute(m)) => {
                    if u64::from(m) <= n {
                        n -= u64::from(m);
                    } else {
                        self.partial_compute = m - n as u32;
                        n = 0;
                    }
                }
                other => unreachable!("fast-forward issued past the compute run: {other:?}"),
            }
        }
    }

    /// Marks the memory request `req_id` as completed at cycle `now`.
    pub fn complete_mem(&mut self, req_id: u64, now: Cycle) {
        for slot in &mut self.rob {
            if slot.state == SlotState::WaitingMem(req_id) {
                slot.state = SlotState::Ready(now);
                self.outstanding_mem = self.outstanding_mem.saturating_sub(1);
                self.unpark();
                return;
            }
        }
    }

    /// Marks a pending gather on `target` as completed at cycle `now`.
    pub fn complete_gather(&mut self, target: Addr, now: Cycle) {
        let mut flipped = false;
        for slot in &mut self.rob {
            if slot.state == SlotState::WaitingGather(target) {
                slot.state = SlotState::Ready(now);
                flipped = true;
            }
        }
        if flipped {
            self.unpark();
        }
    }

    /// Releases a barrier the core is waiting at.
    pub fn release_barrier(&mut self, id: u32, now: Cycle) {
        let mut flipped = false;
        for slot in &mut self.rob {
            if slot.state == SlotState::WaitingBarrier(id) {
                slot.state = SlotState::Ready(now);
                flipped = true;
            }
        }
        if flipped {
            if self.waiting_barrier_id == Some(id) {
                self.waiting_barrier_id = None;
            }
            self.unpark();
        }
    }

    fn rob_space(&self) -> usize {
        self.rob_entries.saturating_sub(self.rob_insns)
    }

    /// [`Core::rob_space`] clamped into the `u32` domain of the per-cycle
    /// issue arithmetic. `rob_entries` is a `usize`, so on 64-bit hosts the
    /// free space can exceed `u32::MAX`; a plain `as` cast would *truncate*
    /// (e.g. `2^32 + 2` → `2`) and silently throttle — or spuriously block —
    /// the issue stage on huge-ROB configurations. Saturating keeps the cap
    /// inactive whenever the true space exceeds any possible `take`.
    fn rob_space_u32(&self) -> u32 {
        let space = self.rob_space();
        let clamped = u32::try_from(space).unwrap_or(u32::MAX);
        debug_assert!(
            clamped as usize == space || space > u32::MAX as usize,
            "the rob_space clamp must only engage past the u32 cast boundary"
        );
        clamped
    }

    fn retire(&mut self, now: Cycle) -> u32 {
        let mut budget = self.issue_width;
        while budget > 0 {
            let Some(front) = self.rob.front_mut() else { break };
            match front.state {
                SlotState::Ready(t) if t <= now => {
                    let take = front.insns.min(budget);
                    front.insns -= take;
                    budget -= take;
                    self.instructions_retired += u64::from(take);
                    self.rob_insns -= take as usize;
                    if front.insns == 0 {
                        self.rob.pop_front();
                    }
                }
                _ => break,
            }
        }
        self.issue_width - budget
    }

    /// Drains the memory requests issued by [`Component::wake`] calls since
    /// the last drain, in issue order.
    pub fn take_requests(&mut self) -> Vec<MemAccess> {
        std::mem::take(&mut self.pending_requests)
    }

    /// Drains the same requests as [`Core::take_requests`] without giving up
    /// the buffer, so its capacity is reused by later wakes — the
    /// allocation-free form the system's hot loop uses.
    pub fn drain_requests(&mut self) -> std::vec::Drain<'_, MemAccess> {
        self.pending_requests.drain(..)
    }

    /// Advances the core by one core cycle, returning any memory requests it
    /// issued.
    ///
    /// If the core was parked (see [`Core::is_parked`]), the skipped interval
    /// is settled into the stall counters first, so ticking per cycle and
    /// sleeping until the blocking event produce identical statistics.
    pub fn tick(&mut self, now: Cycle) -> CoreOutput {
        let mut out = CoreOutput::default();
        self.tick_into(now, &mut out.mem_requests);
        out
    }

    /// The allocation-free body of [`Core::tick`]: issued memory requests are
    /// appended to `out` instead of being returned in a fresh vector.
    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemAccess>) {
        // A real tick supersedes any pending fast-forwarded interval: the
        // already-elapsed prefix settles analytically, cycle `now` (and
        // whatever follows) is handled per cycle.
        self.settle_compute_to(now);
        self.fast_forward = None;
        self.settle(now);
        self.cycles += 1;
        let retired = self.retire(now);

        let mut budget = self.issue_width;
        let mut issued = 0u32;
        let mut blocked_reason: Option<&'static str> = None;

        while budget > 0 {
            if self.rob_space() == 0 {
                blocked_reason = Some("rob");
                break;
            }
            // Do not issue past an unresolved barrier, nor past an unresolved
            // gather: the gathered value is the result of the offloaded
            // reduction, so program order after the Gather must observe it
            // (it also acts as the completion fence for the flow's updates).
            match self.rob.back().map(|s| s.state) {
                Some(SlotState::WaitingBarrier(_)) => {
                    blocked_reason = Some("barrier");
                    break;
                }
                Some(SlotState::WaitingGather(_)) => {
                    blocked_reason = Some("gather");
                    break;
                }
                _ => {}
            }
            if self.partial_compute == 0 {
                match self.stream.peek() {
                    Some(WorkItem::Compute(_)) => {
                        if let Some(WorkItem::Compute(n)) = self.stream.pop() {
                            self.partial_compute = n;
                        }
                    }
                    Some(_) => {}
                    None => break,
                }
            }
            if self.partial_compute > 0 {
                let take = self.partial_compute.min(budget).min(self.rob_space_u32());
                if take == 0 {
                    blocked_reason = Some("rob");
                    break;
                }
                self.rob.push_back(RobSlot { insns: take, state: SlotState::Ready(now + 1) });
                self.rob_insns += take as usize;
                self.partial_compute -= take;
                budget -= take;
                issued += take;
                continue;
            }
            let Some(&item) = self.stream.peek() else { break };
            match item {
                WorkItem::Compute(_) => unreachable!("handled above"),
                WorkItem::Load(addr) | WorkItem::Store(addr) | WorkItem::AtomicRmw { addr } => {
                    if self.outstanding_mem >= self.max_outstanding_mem {
                        blocked_reason = Some("mem");
                        break;
                    }
                    let kind = match item {
                        WorkItem::Load(_) => MemAccessKind::Read,
                        WorkItem::Store(_) => MemAccessKind::Write,
                        _ => MemAccessKind::Atomic,
                    };
                    let insns = item.instruction_count() as u32;
                    let req_id = self.next_req_id;
                    self.next_req_id += 1;
                    out.push(MemAccess { req_id, addr, kind });
                    self.rob.push_back(RobSlot { insns, state: SlotState::WaitingMem(req_id) });
                    self.rob_insns += insns as usize;
                    self.outstanding_mem += 1;
                    self.stream.pop();
                    budget = budget.saturating_sub(insns);
                    issued += insns;
                }
                WorkItem::Update { op, src1, src2, imm, target } => {
                    if !self.mi.has_space() {
                        blocked_reason = Some("offload");
                        break;
                    }
                    self.mi.try_push(OffloadCommand {
                        thread: self.thread(),
                        kind: OffloadKind::Update { op, src1, src2, imm, target },
                    });
                    self.updates_offloaded += 1;
                    let insns = item.instruction_count() as u32;
                    self.rob.push_back(RobSlot { insns, state: SlotState::Ready(now + 1) });
                    self.rob_insns += insns as usize;
                    self.stream.pop();
                    budget = budget.saturating_sub(insns);
                    issued += insns;
                }
                WorkItem::Gather { target, op, num_threads, wait } => {
                    if !self.mi.has_space() {
                        blocked_reason = Some("offload");
                        break;
                    }
                    self.mi.try_push(OffloadCommand {
                        thread: self.thread(),
                        kind: OffloadKind::Gather { target, op, num_threads },
                    });
                    self.gathers_offloaded += 1;
                    // A waiting gather blocks like a synchronising load; a
                    // fire-and-forget gather retires immediately and the
                    // result is picked up from memory later.
                    let state = if wait {
                        SlotState::WaitingGather(target)
                    } else {
                        SlotState::Ready(now + 1)
                    };
                    self.rob.push_back(RobSlot { insns: 1, state });
                    self.rob_insns += 1;
                    self.stream.pop();
                    budget -= 1;
                    issued += 1;
                }
                WorkItem::Barrier { id } => {
                    self.rob.push_back(RobSlot { insns: 1, state: SlotState::WaitingBarrier(id) });
                    self.rob_insns += 1;
                    self.waiting_barrier_id = Some(id);
                    self.stream.pop();
                    issued += 1;
                    blocked_reason = Some("barrier");
                    break;
                }
            }
        }

        // Stall accounting: a cycle with no retirement and no issue is a stall
        // attributed to whatever blocks the ROB head (or the issue stage).
        if retired == 0 && issued == 0 && !self.is_done() {
            let head_cause = match self.rob.front().map(|s| s.state) {
                Some(SlotState::WaitingMem(_)) => {
                    self.stalls.memory += 1;
                    Some(StallCause::Memory)
                }
                Some(SlotState::WaitingGather(_)) => {
                    self.stalls.gather += 1;
                    Some(StallCause::Gather)
                }
                Some(SlotState::WaitingBarrier(_)) => {
                    self.stalls.barrier += 1;
                    Some(StallCause::Barrier)
                }
                _ => {
                    match blocked_reason {
                        Some("offload") => self.stalls.offload += 1,
                        Some("rob") => self.stalls.rob_full += 1,
                        Some("mem") => self.stalls.memory += 1,
                        Some("barrier") => self.stalls.barrier += 1,
                        Some("gather") => self.stalls.gather += 1,
                        _ => {}
                    }
                    None
                }
            };
            // Park: with the ROB head waiting on an external event, the only
            // way the *issue* stage could still make progress without one is
            // a Message-Interface drain freeing an "offload"-blocked slot, so
            // every other fully-stalled cycle repeats identically until a
            // completion arrives. Future cycles are settled at the next tick.
            if let Some(cause) = head_cause {
                if blocked_reason != Some("offload") {
                    self.parked = Some(Parked { since: now + 1, cause, runnable: false });
                }
            }
        }
    }
}

fn opt_addr_to_json(addr: Option<Addr>) -> Json {
    addr.map_or(Json::Null, |a| Json::hex_u64(a.as_u64()))
}

fn opt_addr_from_json(doc: &Json, key: &str) -> Result<Option<Addr>, JsonError> {
    match doc.req(key)? {
        Json::Null => Ok(None),
        _ => Ok(Some(Addr::new(doc.req_hex_u64(key)?))),
    }
}

fn op_from_json(doc: &Json, key: &str) -> Result<ReduceOp, JsonError> {
    let name = doc.req_str(key)?;
    ReduceOp::from_name(name).ok_or_else(|| JsonError::state(format!("unknown reduce op {name:?}")))
}

/// Encodes one queued offload command for checkpointed state.
pub fn offload_command_to_json(cmd: &OffloadCommand) -> Json {
    let kind = match cmd.kind {
        OffloadKind::Update { op, src1, src2, imm, target } => Json::obj([
            ("t", Json::from("update")),
            ("op", Json::from(op.to_string())),
            ("src1", Json::hex_u64(src1.as_u64())),
            ("src2", opt_addr_to_json(src2)),
            ("imm", imm.map_or(Json::Null, Json::hex_f64)),
            ("target", Json::hex_u64(target.as_u64())),
        ]),
        OffloadKind::Gather { target, op, num_threads } => Json::obj([
            ("t", Json::from("gather")),
            ("target", Json::hex_u64(target.as_u64())),
            ("op", Json::from(op.to_string())),
            ("num_threads", Json::from(num_threads)),
        ]),
    };
    Json::obj([("thread", Json::from(cmd.thread.index())), ("kind", kind)])
}

/// Decodes a command produced by [`offload_command_to_json`].
///
/// # Errors
///
/// Returns a [`JsonError`] on an unknown tag or missing field.
pub fn offload_command_from_json(doc: &Json) -> Result<OffloadCommand, JsonError> {
    let kind_doc = doc.req("kind")?;
    let kind = match kind_doc.req_str("t")? {
        "update" => OffloadKind::Update {
            op: op_from_json(kind_doc, "op")?,
            src1: Addr::new(kind_doc.req_hex_u64("src1")?),
            src2: opt_addr_from_json(kind_doc, "src2")?,
            imm: match kind_doc.req("imm")? {
                Json::Null => None,
                _ => Some(kind_doc.req_hex_f64("imm")?),
            },
            target: Addr::new(kind_doc.req_hex_u64("target")?),
        },
        "gather" => OffloadKind::Gather {
            target: Addr::new(kind_doc.req_hex_u64("target")?),
            op: op_from_json(kind_doc, "op")?,
            num_threads: kind_doc.req_u32("num_threads")?,
        },
        other => return Err(JsonError::state(format!("unknown offload kind {other:?}"))),
    };
    Ok(OffloadCommand { thread: ThreadId::new(doc.req_usize("thread")?), kind })
}

impl SlotState {
    fn state_to_json(self) -> Json {
        match self {
            SlotState::Ready(at) => Json::obj([("t", Json::from("ready")), ("at", Json::from(at))]),
            SlotState::WaitingMem(req_id) => {
                Json::obj([("t", Json::from("mem")), ("req_id", Json::hex_u64(req_id))])
            }
            SlotState::WaitingGather(target) => {
                Json::obj([("t", Json::from("gather")), ("target", Json::hex_u64(target.as_u64()))])
            }
            SlotState::WaitingBarrier(id) => {
                Json::obj([("t", Json::from("barrier")), ("id", Json::from(id))])
            }
        }
    }

    fn state_from_json(doc: &Json) -> Result<SlotState, JsonError> {
        Ok(match doc.req_str("t")? {
            "ready" => SlotState::Ready(doc.req_u64("at")?),
            "mem" => SlotState::WaitingMem(doc.req_hex_u64("req_id")?),
            "gather" => SlotState::WaitingGather(Addr::new(doc.req_hex_u64("target")?)),
            "barrier" => SlotState::WaitingBarrier(doc.req_u32("id")?),
            other => return Err(JsonError::state(format!("unknown ROB slot state {other:?}"))),
        })
    }
}

impl Core {
    /// Encodes the core's dynamic state for a checkpoint.
    ///
    /// Snapshots are taken at a settled boundary: the system clears any
    /// pending fast-forward interval and settles parked stall intervals via
    /// [`Core::settle_to`] first (both are report-neutral operations), and
    /// drains `pending_requests` every cycle — so none of the three needs to
    /// travel.
    ///
    /// # Panics
    ///
    /// Panics if the core still holds an unsettled lazy interval or undrained
    /// requests, which would make the snapshot lossy.
    pub fn state_to_json(&self) -> Json {
        assert!(
            self.parked.is_none() && self.fast_forward.is_none(),
            "snapshot requires settled lazy intervals (call settle_to first)"
        );
        assert!(self.pending_requests.is_empty(), "snapshot requires drained core requests");
        Json::obj([
            ("stream_remaining", Json::from(self.stream.len())),
            ("partial_compute", Json::from(self.partial_compute)),
            (
                "rob",
                Json::arr(self.rob.iter().map(|slot| {
                    Json::obj([
                        ("insns", Json::from(slot.insns)),
                        ("state", slot.state.state_to_json()),
                    ])
                })),
            ),
            ("next_req_id", Json::hex_u64(self.next_req_id)),
            (
                "mi",
                Json::obj([
                    ("queue", Json::arr(self.mi.iter().map(offload_command_to_json))),
                    ("accepted", Json::from(self.mi.accepted())),
                    ("rejected", Json::from(self.mi.rejected())),
                ]),
            ),
            ("instructions_retired", Json::from(self.instructions_retired)),
            ("cycles", Json::from(self.cycles)),
            (
                "stalls",
                Json::obj([
                    ("memory", Json::from(self.stalls.memory)),
                    ("gather", Json::from(self.stalls.gather)),
                    ("barrier", Json::from(self.stalls.barrier)),
                    ("offload", Json::from(self.stalls.offload)),
                    ("rob_full", Json::from(self.stalls.rob_full)),
                ]),
            ),
            ("updates_offloaded", Json::from(self.updates_offloaded)),
            ("gathers_offloaded", Json::from(self.gathers_offloaded)),
        ])
    }

    /// Restores the dynamic state captured by [`Core::state_to_json`] onto a
    /// freshly constructed core whose stream was regenerated from the same
    /// deterministic workload. Derived bookkeeping (ROB instruction count,
    /// outstanding memory requests, the tracked barrier id) is recomputed
    /// from the restored ROB rather than trusted from the document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when a field is missing or malformed, or when
    /// the regenerated stream is shorter than the checkpoint's remainder.
    pub fn load_state(&mut self, doc: &Json) -> Result<(), JsonError> {
        let remaining = doc.req_usize("stream_remaining")?;
        if self.stream.len() < remaining {
            return Err(JsonError::state(format!(
                "stream mismatch: checkpoint wants {remaining} remaining items, \
                 the regenerated stream has {}",
                self.stream.len()
            )));
        }
        while self.stream.len() > remaining {
            self.stream.pop();
        }
        self.partial_compute = doc.req_u32("partial_compute")?;
        self.rob.clear();
        self.rob_insns = 0;
        self.outstanding_mem = 0;
        self.waiting_barrier_id = None;
        for slot_doc in doc.req_array("rob")? {
            let slot = RobSlot {
                insns: slot_doc.req_u32("insns")?,
                state: SlotState::state_from_json(slot_doc.req("state")?)?,
            };
            self.rob_insns += slot.insns as usize;
            match slot.state {
                SlotState::WaitingMem(_) => self.outstanding_mem += 1,
                SlotState::WaitingBarrier(id) => self.waiting_barrier_id = Some(id),
                _ => {}
            }
            self.rob.push_back(slot);
        }
        self.next_req_id = doc.req_hex_u64("next_req_id")?;
        let mi_doc = doc.req("mi")?;
        let queue = mi_doc
            .req_array("queue")?
            .iter()
            .map(offload_command_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if queue.len() > self.mi.depth() {
            return Err(JsonError::state("checkpointed MI queue exceeds the configured depth"));
        }
        self.mi.load_state(queue, mi_doc.req_u64("accepted")?, mi_doc.req_u64("rejected")?);
        self.instructions_retired = doc.req_u64("instructions_retired")?;
        self.cycles = doc.req_u64("cycles")?;
        let stalls = doc.req("stalls")?;
        self.stalls = StallBreakdown {
            memory: stalls.req_u64("memory")?,
            gather: stalls.req_u64("gather")?,
            barrier: stalls.req_u64("barrier")?,
            offload: stalls.req_u64("offload")?,
            rob_full: stalls.req_u64("rob_full")?,
        };
        self.updates_offloaded = doc.req_u64("updates_offloaded")?;
        self.gathers_offloaded = doc.req_u64("gathers_offloaded")?;
        self.pending_requests.clear();
        self.parked = None;
        self.fast_forward = None;
        Ok(())
    }
}

impl Component for Core {
    fn next_wake(&self, now: Cycle) -> NextWake {
        // A running core retires/issues and accounts stalls every core cycle.
        // Finished cores are inert for good; parked cores are inert until an
        // external completion re-arms them (whoever delivers the completion
        // is responsible for waking the core, per the Component contract) —
        // their skipped stall cycles are settled at the next tick. A core
        // inside a fast-forwarded interval needs no tick before the
        // interval's end: its intermediate cycles are applied analytically.
        if self.is_done() || self.is_parked() {
            NextWake::Idle
        } else if let Some(until) = self.fast_forward_until() {
            NextWake::At(until.max(now + 1))
        } else {
            NextWake::At(now + 1)
        }
    }

    fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
        // Honor the Component contract: a done core has no due work, so
        // waking it must be a no-op (`tick` would still count a cycle).
        if self.is_done() {
            return NextWake::Idle;
        }
        let mut pending = std::mem::take(&mut self.pending_requests);
        self.tick_into(now, &mut pending);
        self.pending_requests = pending;
        self.next_wake(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_types::ReduceOp;

    fn cfg() -> CoreConfig {
        CoreConfig::default()
    }

    fn core_with(items: Vec<WorkItem>) -> Core {
        let mut stream = WorkStream::new(ThreadId::new(0));
        stream.extend(items);
        Core::new(CoreId::new(0), &cfg(), stream)
    }

    #[test]
    fn compute_only_stream_finishes_and_counts_instructions() {
        let mut c = core_with(vec![WorkItem::Compute(100)]);
        for t in 0..200 {
            c.tick(t);
            if c.is_done() {
                break;
            }
        }
        assert!(c.is_done());
        assert_eq!(c.instructions_retired(), 100);
        // 8-wide core should need roughly 100/8 cycles, certainly < 40.
        assert!(c.cycles() < 40, "cycles = {}", c.cycles());
    }

    #[test]
    fn load_blocks_until_memory_completes() {
        let mut c = core_with(vec![WorkItem::Load(Addr::new(0x40)), WorkItem::Compute(1)]);
        let out = c.tick(0);
        assert_eq!(out.mem_requests.len(), 1);
        let req = out.mem_requests[0];
        assert_eq!(req.kind, MemAccessKind::Read);
        // Without a completion the core cannot retire the load.
        for t in 1..50 {
            c.tick(t);
        }
        assert!(!c.is_done());
        assert!(c.stalls().memory > 0);
        c.complete_mem(req.req_id, 50);
        for t in 51..60 {
            c.tick(t);
        }
        assert!(c.is_done());
    }

    #[test]
    fn outstanding_memory_requests_are_bounded() {
        let items: Vec<WorkItem> = (0..64).map(|i| WorkItem::Load(Addr::new(i * 64))).collect();
        let mut c = core_with(items);
        let mut total_reqs = 0;
        for t in 0..10 {
            total_reqs += c.tick(t).mem_requests.len();
        }
        assert!(total_reqs <= cfg().max_outstanding_mem);
    }

    #[test]
    fn updates_are_fire_and_forget_through_mi() {
        let items: Vec<WorkItem> = (0..4)
            .map(|i| WorkItem::Update {
                op: ReduceOp::Sum,
                src1: Addr::new(i * 64),
                src2: None,
                imm: None,
                target: Addr::new(0x8000),
            })
            .collect();
        let mut c = core_with(items);
        for t in 0..10 {
            c.tick(t);
            // Drain the MI like the system would.
            while c.mi_mut().pop().is_some() {}
        }
        assert!(c.is_done());
        assert_eq!(c.updates_offloaded(), 4);
    }

    #[test]
    fn full_mi_stalls_the_core() {
        let items: Vec<WorkItem> = (0..64)
            .map(|i| WorkItem::Update {
                op: ReduceOp::Sum,
                src1: Addr::new(i * 64),
                src2: None,
                imm: None,
                target: Addr::new(0x8000),
            })
            .collect();
        let mut c = core_with(items);
        // Never drain the MI: the core must eventually stall on offload.
        for t in 0..100 {
            c.tick(t);
        }
        assert!(!c.is_done());
        assert!(c.stalls().offload > 0);
    }

    #[test]
    fn gather_blocks_until_result_arrives() {
        let mut c = core_with(vec![WorkItem::Gather {
            target: Addr::new(0x8000),
            op: ReduceOp::Sum,
            num_threads: 1,
            wait: true,
        }]);
        for t in 0..20 {
            c.tick(t);
            while c.mi_mut().pop().is_some() {}
        }
        assert!(!c.is_done());
        assert!(c.stalls().gather > 0);
        c.complete_gather(Addr::new(0x8000), 20);
        for t in 21..30 {
            c.tick(t);
        }
        assert!(c.is_done());
        assert_eq!(c.gathers_offloaded(), 1);
    }

    #[test]
    fn barrier_blocks_until_released() {
        let mut c = core_with(vec![WorkItem::Barrier { id: 7 }, WorkItem::Compute(8)]);
        for t in 0..10 {
            c.tick(t);
        }
        assert_eq!(c.waiting_barrier(), Some(7));
        assert!(!c.is_done());
        c.release_barrier(7, 10);
        for t in 11..20 {
            c.tick(t);
        }
        assert!(c.is_done());
        assert!(c.stalls().barrier > 0);
        assert!(c.stalls().total() >= c.stalls().barrier);
    }

    #[test]
    fn atomic_emits_atomic_access() {
        let mut c = core_with(vec![WorkItem::AtomicRmw { addr: Addr::new(0x100) }]);
        let out = c.tick(0);
        assert_eq!(out.mem_requests[0].kind, MemAccessKind::Atomic);
    }

    #[test]
    fn blocked_core_parks_and_settles_like_per_cycle_accrual() {
        let items = vec![WorkItem::Load(Addr::new(0x40)), WorkItem::Compute(4)];
        // Reference: tick every cycle.
        let mut eager = core_with(items.clone());
        let req = eager.tick(0).mem_requests[0];
        for t in 1..40 {
            eager.tick(t);
        }
        eager.complete_mem(req.req_id, 40);
        for t in 40..45 {
            eager.tick(t);
        }
        // Lazy: skip every cycle for which the core reports itself parked.
        let mut lazy = core_with(items);
        let req = lazy.tick(0).mem_requests[0];
        let mut ticks = 1u64;
        for t in 1..40 {
            if !lazy.is_parked() {
                lazy.tick(t);
                ticks += 1;
            }
        }
        assert!(lazy.is_parked(), "core must park on the blocking load");
        lazy.complete_mem(req.req_id, 40);
        assert!(!lazy.is_parked(), "completion must make the core runnable");
        for t in 40..45 {
            lazy.tick(t);
            ticks += 1;
        }
        assert!(eager.is_done() && lazy.is_done());
        assert_eq!(lazy.stalls(), eager.stalls(), "settled interval must equal per-cycle accrual");
        assert_eq!(lazy.cycles(), eager.cycles());
        assert_eq!(lazy.instructions_retired(), eager.instructions_retired());
        assert!(ticks < eager.cycles(), "the lazy run must actually skip ticks");
    }

    #[test]
    fn spurious_tick_of_parked_core_is_harmless() {
        let mut c = core_with(vec![WorkItem::Load(Addr::new(0x40))]);
        let req = c.tick(0).mem_requests[0];
        c.tick(1);
        assert!(c.is_parked());
        // A driver that ignores the parked hint (the lock-step kernel) keeps
        // ticking: each tick settles a zero-length interval and re-parks.
        c.tick(2);
        c.tick(3);
        assert!(c.is_parked());
        assert_eq!(c.stalls().memory, 3);
        c.complete_mem(req.req_id, 10);
        c.tick(10);
        assert!(c.is_done());
        // Cycles 1..=9 stalled on memory exactly as per-cycle ticking would,
        // and every cycle 0..=10 is counted as ticked.
        assert_eq!(c.stalls().memory, 9);
        assert_eq!(c.cycles(), 11);
    }

    #[test]
    fn truncated_run_settles_parked_interval_at_the_end() {
        let mut c = core_with(vec![WorkItem::Load(Addr::new(0x40))]);
        c.tick(0);
        c.tick(1);
        assert!(c.is_parked());
        c.settle_to(100);
        // Cycles 0 and 1 ticked (cycle 1 stalled), cycles 2..=99 settled.
        assert_eq!(c.stalls().memory, 99);
        assert_eq!(c.cycles(), 100);
        assert!(!c.is_parked(), "settling consumes the parked state");
    }

    #[test]
    fn mi_backpressure_never_parks() {
        // Head blocked on memory *and* issue blocked on a full MI: the MI is
        // drained by the system each network cycle, so the core must keep
        // ticking (parking would miss the post-drain issue opportunity).
        let mut items = vec![WorkItem::Load(Addr::new(0x40))];
        items.extend((0..64).map(|i| WorkItem::Update {
            op: ReduceOp::Sum,
            src1: Addr::new(0x1000 + i * 64),
            src2: None,
            imm: None,
            target: Addr::new(0x8000),
        }));
        let mut c = core_with(items);
        for t in 0..50 {
            c.tick(t);
        }
        assert!(c.stalls().offload > 0 || c.stalls().memory > 0);
        assert!(!c.is_parked(), "offload-blocked cores must not park");
    }

    #[test]
    fn parked_core_reports_idle_wake() {
        let mut c = core_with(vec![WorkItem::Load(Addr::new(0x40))]);
        let req = c.tick(0).mem_requests[0];
        c.tick(1);
        assert_eq!(c.next_wake(1), NextWake::Idle);
        c.complete_mem(req.req_id, 5);
        assert_eq!(c.next_wake(5), NextWake::At(6));
    }

    /// Drives a core to completion, either per cycle (`ff = false`) or
    /// arming/skipping fast-forwarded intervals the way the event-driven
    /// kernel does (`ff = true`). Memory requests complete after a fixed
    /// per-id delay so both styles see the identical event schedule. Returns
    /// the number of real ticks executed.
    fn drive_ff(items: &[WorkItem], ff: bool) -> (Core, u64) {
        let mut c = core_with(items.to_vec());
        let mut completions: Vec<(Cycle, u64)> = Vec::new();
        let mut ticks = 0u64;
        for t in 0..200_000u64 {
            let mut due: Vec<u64> = Vec::new();
            completions.retain(|&(at, id)| {
                if at == t {
                    due.push(id);
                    false
                } else {
                    true
                }
            });
            for id in due {
                c.complete_mem(id, t);
            }
            if c.is_done() {
                break;
            }
            if ff && c.is_fast_forwarding(t) {
                continue;
            }
            let out = c.tick(t);
            for req in out.mem_requests {
                completions.push((t + 20 + req.req_id % 5, req.req_id));
            }
            ticks += 1;
            if ff {
                c.try_fast_forward(t + 1);
            }
        }
        assert!(c.is_done(), "drive must finish");
        (c, ticks)
    }

    #[test]
    fn fast_forward_matches_per_cycle_on_compute_heavy_streams() {
        for items in [
            vec![WorkItem::Compute(10_000)],
            vec![WorkItem::Compute(513), WorkItem::Compute(4_000), WorkItem::Compute(1)],
            // The run ends at a non-compute item: the interval must stop
            // before the cycle that could peek at the store.
            vec![
                WorkItem::Compute(2_000),
                WorkItem::Store(Addr::new(0x80)),
                WorkItem::Compute(777),
            ],
        ] {
            let (eager, eager_ticks) = drive_ff(&items, false);
            let (lazy, lazy_ticks) = drive_ff(&items, true);
            assert_eq!(lazy.cycles(), eager.cycles(), "{items:?}");
            assert_eq!(lazy.instructions_retired(), eager.instructions_retired(), "{items:?}");
            assert_eq!(lazy.stalls(), eager.stalls(), "{items:?}");
            assert!(
                lazy_ticks < eager_ticks / 4,
                "fast-forward must skip the bulk of the block: {lazy_ticks} vs {eager_ticks}"
            );
        }
    }

    #[test]
    fn fast_forward_drain_finishes_on_the_per_cycle_done_cycle() {
        // The drain interval at the end of the stream excludes the final
        // retirement cycle, so the done transition happens in a real tick on
        // exactly the per-cycle cycle (barrier release and quiescence depend
        // on that).
        let items = vec![WorkItem::Compute(512)];
        let (eager, eager_ticks) = drive_ff(&items, false);
        let (lazy, lazy_ticks) = drive_ff(&items, true);
        assert_eq!(lazy.cycles(), eager.cycles());
        assert_eq!(lazy.instructions_retired(), eager.instructions_retired());
        assert!(lazy_ticks < eager_ticks);
    }

    #[test]
    fn fast_forward_split_points_match_per_cycle_prefixes() {
        let items = vec![WorkItem::Compute(4_096)];
        let mut eager = core_with(items.clone());
        let mut lazy = core_with(items);
        eager.tick(0);
        lazy.tick(0);
        assert!(lazy.try_fast_forward(1), "a 4k block must arm");
        let until = lazy.fast_forward_until().expect("armed");
        let mut t = 1u64;
        for p in [2u64, 7, 63, 200, until] {
            assert!(p <= until, "probe past the interval");
            while t < p {
                eager.tick(t);
                t += 1;
            }
            // Settling a prefix (the IPC sampler's view) must reproduce the
            // per-cycle counters at that exact boundary.
            lazy.settle_compute_to(p);
            assert_eq!(lazy.instructions_retired(), eager.instructions_retired(), "at {p}");
            assert_eq!(lazy.cycles(), eager.cycles(), "at {p}");
        }
        // From the interval's end both drive identically to completion.
        while !eager.is_done() {
            eager.tick(t);
            lazy.tick(t);
            t += 1;
        }
        assert!(lazy.is_done());
        assert_eq!(lazy.instructions_retired(), eager.instructions_retired());
        assert_eq!(lazy.cycles(), eager.cycles());
        assert_eq!(lazy.stalls(), eager.stalls());
    }

    #[test]
    fn spurious_tick_mid_interval_settles_the_prefix_and_cancels_the_rest() {
        let items = vec![WorkItem::Compute(4_096)];
        let mut eager = core_with(items.clone());
        let mut lazy = core_with(items);
        eager.tick(0);
        lazy.tick(0);
        assert!(lazy.try_fast_forward(1));
        for t in 1..50 {
            eager.tick(t);
        }
        // A driver that ignores the interval (the lock-step kernel never has
        // one, but the contract must hold) ticks mid-interval: the prefix
        // settles, the remainder is re-derived per cycle.
        lazy.tick(49);
        assert!(lazy.fast_forward_until().is_none(), "a real tick cancels the pending interval");
        assert_eq!(lazy.instructions_retired(), eager.instructions_retired());
        assert_eq!(lazy.cycles(), eager.cycles());
    }

    #[test]
    fn fast_forward_refuses_states_an_external_event_could_flip() {
        // Outstanding memory: a completion could arrive mid-interval.
        let mut c = core_with(vec![WorkItem::Load(Addr::new(0x40)), WorkItem::Compute(4_096)]);
        c.tick(0);
        assert!(!c.try_fast_forward(1), "an in-flight load forbids fast-forwarding");
        // Ticking on, the block fills the ROB behind the blocked load and
        // the core parks on it: still ineligible.
        for t in 1..20 {
            c.tick(t);
        }
        assert!(c.is_parked());
        assert!(!c.try_fast_forward(20));

        // A barrier at the ROB head could be released externally.
        let mut c = core_with(vec![WorkItem::Barrier { id: 1 }, WorkItem::Compute(4_096)]);
        c.tick(0);
        assert!(!c.try_fast_forward(1), "a waiting barrier forbids fast-forwarding");

        // Short blocks are not worth an interval.
        let mut c = core_with(vec![WorkItem::Compute(16)]);
        c.tick(0);
        assert!(
            !c.try_fast_forward(1),
            "an 8-wide core swallows 16 insns without skippable cycles"
        );

        // A non-empty Message Interface forbids the end-of-stream drain
        // (`is_done` keys off the MI, whose drain timing is external).
        let mut c = core_with(vec![WorkItem::Update {
            op: ReduceOp::Sum,
            src1: Addr::new(0x40),
            src2: None,
            imm: None,
            target: Addr::new(0x8000),
        }]);
        c.tick(0);
        assert!(!c.try_fast_forward(1), "a queued offload command forbids the drain interval");
    }

    #[test]
    fn fast_forwarding_core_reports_the_interval_end_as_next_wake() {
        let mut c = core_with(vec![WorkItem::Compute(4_096)]);
        c.tick(0);
        assert!(c.try_fast_forward(1));
        let until = c.fast_forward_until().expect("armed");
        assert!(until > 1 + MIN_SKIPPED_CYCLES);
        assert_eq!(c.next_wake(1), NextWake::At(until));
        assert!(c.is_fast_forwarding(until - 1));
        assert!(!c.is_fast_forwarding(until));
    }

    #[test]
    fn state_json_round_trip_resumes_identically() {
        let items = vec![
            WorkItem::Compute(40),
            WorkItem::Load(Addr::new(0x40)),
            WorkItem::Update {
                op: ReduceOp::Mac,
                src1: Addr::new(0x80),
                src2: Some(Addr::new(0xc0)),
                imm: None,
                target: Addr::new(0x8000),
            },
            WorkItem::Compute(10),
            WorkItem::Gather {
                target: Addr::new(0x8000),
                op: ReduceOp::Mac,
                num_threads: 1,
                wait: true,
            },
            WorkItem::Compute(5),
        ];
        let mut original = core_with(items.clone());
        let mut req_ids = Vec::new();
        for t in 0..8u64 {
            req_ids.extend(original.tick(t).mem_requests.iter().map(|r| r.req_id));
        }
        // Snapshot at the settled boundary, exactly as the system does. The
        // load is still in flight and the gather blocks issue, so the ROB
        // holds waiting slots and the stream a remainder.
        original.settle_to(8);
        let text = original.state_to_json().render();
        let doc = Json::parse(&text).unwrap();
        assert!(doc.req_usize("stream_remaining").unwrap() > 0, "snapshot too late");
        let mut restored = core_with(items.clone());
        restored.load_state(&doc).unwrap();
        assert_eq!(restored.cycles(), original.cycles());
        assert_eq!(restored.waiting_barrier(), original.waiting_barrier());

        // Drive both to completion under the identical external schedule.
        for t in 8..400u64 {
            for core in [&mut original, &mut restored] {
                if t == 40 {
                    for &id in &req_ids {
                        core.complete_mem(id, t);
                    }
                }
                if t == 80 {
                    core.complete_gather(Addr::new(0x8000), t);
                }
                if !core.is_done() && !core.is_parked() {
                    core.tick(t);
                }
                while core.mi_mut().pop().is_some() {}
            }
        }
        assert!(original.is_done() && restored.is_done());
        assert_eq!(restored.cycles(), original.cycles());
        assert_eq!(restored.instructions_retired(), original.instructions_retired());
        assert_eq!(restored.stalls(), original.stalls());
        assert_eq!(restored.updates_offloaded(), original.updates_offloaded());
        assert_eq!(restored.gathers_offloaded(), original.gathers_offloaded());

        // A checkpoint that claims more remaining work than the regenerated
        // stream carries must be rejected, not silently truncated.
        let mut short = core_with(Vec::new());
        let err = short.load_state(&doc).unwrap_err();
        assert!(err.message.contains("stream mismatch"), "{err}");
        // Hostile input: a malformed ROB slot must fail loudly.
        let bad = Json::parse(&text.replace("\"ready\"", "\"teleport\"")).unwrap();
        let mut fresh = core_with(items);
        assert!(fresh.load_state(&bad).is_err());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn huge_rob_space_is_not_truncated_by_the_u32_cast() {
        // Regression: `rob_space()` is a usize; with `rob_entries` past the
        // u32 boundary, the old `as u32` cast wrapped (2^32 + 2 -> 2) and
        // capped the first cycle's issue at 2 instructions instead of the
        // full issue width.
        let cfg = CoreConfig { rob_entries: u32::MAX as usize + 2, ..CoreConfig::default() };
        let mut stream = WorkStream::new(ThreadId::new(0));
        stream.push(WorkItem::Compute(64));
        let mut c = Core::new(CoreId::new(0), &cfg, stream);
        c.tick(0);
        c.tick(1);
        assert_eq!(
            c.instructions_retired(),
            u64::from(cfg.issue_width),
            "the first cycle's issue must not be capped by a truncated ROB-space cast"
        );
    }
}
