//! A single HMC vault: its controller queue and DRAM banks.

use ar_sim::{Component, LatencyQueue, NextWake, SchedCtx};
use ar_types::config::HmcConfig;
use ar_types::json::{Json, JsonError};
use ar_types::{Addr, Cycle};
use std::collections::VecDeque;

/// A memory request presented to a vault controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultRequest {
    /// Caller-chosen identifier returned in the response.
    pub id: u64,
    /// Byte address of the access.
    pub addr: Addr,
    /// True for writes.
    pub is_write: bool,
}

impl VaultRequest {
    /// Convenience constructor for a read.
    pub fn read(id: u64, addr: Addr) -> Self {
        VaultRequest { id, addr, is_write: false }
    }

    /// Convenience constructor for a write.
    pub fn write(id: u64, addr: Addr) -> Self {
        VaultRequest { id, addr, is_write: true }
    }

    /// Encodes the request for checkpointed state (ids carry tag bits, so
    /// they travel as hex).
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            ("id", Json::hex_u64(self.id)),
            ("addr", Json::hex_u64(self.addr.as_u64())),
            ("w", Json::from(self.is_write)),
        ])
    }

    /// Decodes a request produced by [`VaultRequest::state_to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn state_from_json(doc: &Json) -> Result<VaultRequest, JsonError> {
        Ok(VaultRequest {
            id: doc.req_hex_u64("id")?,
            addr: Addr::new(doc.req_hex_u64("addr")?),
            is_write: doc.req_bool("w")?,
        })
    }
}

/// A completed vault access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultResponse {
    /// Identifier of the originating request.
    pub id: u64,
    /// Address of the access.
    pub addr: Addr,
    /// True if the original request was a write.
    pub is_write: bool,
    /// Cycle at which the access completed.
    pub completed_at: Cycle,
}

impl VaultResponse {
    /// Encodes the response for checkpointed state.
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            ("id", Json::hex_u64(self.id)),
            ("addr", Json::hex_u64(self.addr.as_u64())),
            ("w", Json::from(self.is_write)),
            ("completed_at", Json::from(self.completed_at)),
        ])
    }

    /// Decodes a response produced by [`VaultResponse::state_to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn state_from_json(doc: &Json) -> Result<VaultResponse, JsonError> {
        Ok(VaultResponse {
            id: doc.req_hex_u64("id")?,
            addr: Addr::new(doc.req_hex_u64("addr")?),
            is_write: doc.req_bool("w")?,
            completed_at: doc.req_u64("completed_at")?,
        })
    }
}

/// One vault: a bounded controller queue plus per-bank busy tracking.
#[derive(Debug)]
pub struct Vault {
    queue: VecDeque<VaultRequest>,
    bank_busy_until: Vec<Cycle>,
    completed: LatencyQueue<VaultResponse>,
    banks: usize,
    access_latency: Cycle,
    bank_occupancy: Cycle,
    bank_busy_penalty: Cycle,
    queue_depth: usize,
    /// Earliest cycle at which the TSV command bus can issue the next
    /// request (one issue per cycle). Lets [`Vault::tick`] drain the whole
    /// backlog in one wake by assigning each request its virtual issue
    /// cycle, instead of being re-woken every cycle while queued.
    next_issue_at: Cycle,
    accesses: u64,
    bank_conflicts: u64,
}

impl Vault {
    /// Creates a vault from the cube configuration.
    pub fn new(cfg: &HmcConfig) -> Self {
        // Reserve both queues up front: the controller queue is bounded by
        // its configured depth, and the batch drain can move a full
        // controller queue into the completion queue while a previous
        // batch's accesses are still completing, so two queue depths plus
        // one access per bank covers the completion queue's occupancy.
        Vault {
            queue: VecDeque::with_capacity(cfg.vault_queue_depth),
            bank_busy_until: vec![0; cfg.banks_per_vault],
            completed: LatencyQueue::with_capacity(
                2 * (cfg.vault_queue_depth + cfg.banks_per_vault),
            ),
            banks: cfg.banks_per_vault,
            access_latency: cfg.vault_access_latency,
            bank_occupancy: cfg.bank_occupancy,
            bank_busy_penalty: cfg.bank_busy_penalty,
            queue_depth: cfg.vault_queue_depth,
            next_issue_at: 0,
            accesses: 0,
            bank_conflicts: 0,
        }
    }

    /// Returns true if the controller queue has room.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_depth
    }

    /// Current controller queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request; returns false if the queue is full.
    pub fn push(&mut self, req: VaultRequest) -> bool {
        if !self.can_accept() {
            return false;
        }
        self.queue.push_back(req);
        true
    }

    fn bank_of(&self, addr: Addr) -> usize {
        (addr.block_index() % self.banks as u64) as usize
    }

    /// Advances the vault controller: drains *every* queued request in one
    /// batch, charging each its issue cycle on the one-per-cycle TSV command
    /// bus.
    ///
    /// The TSV command bandwidth still admits only one issue per cycle, so
    /// the `k`-th queued request is issued at virtual cycle
    /// `max(now, next_issue_cursor) + k` with the per-bank busy/penalty rules
    /// applied in that order — exactly the cycle a per-cycle driver would
    /// have issued it at, because arrivals are FIFO and a request arriving
    /// mid-backlog queues *behind* the already-virtual-issued ones (the
    /// cursor persists across wakes). Draining the backlog in one wake means
    /// the vault never needs per-cycle re-arms while queued: after a drain
    /// its only future event is a completion ([`Vault::next_completion_at`]).
    pub fn tick(&mut self, now: Cycle) {
        let mut issue_at = self.next_issue_at.max(now);
        while let Some(head) = self.queue.pop_front() {
            let bank = self.bank_of(head.addr);
            let busy_until = self.bank_busy_until[bank];
            let conflict = busy_until > issue_at;
            let start = if conflict { busy_until + self.bank_busy_penalty } else { issue_at };
            if conflict {
                self.bank_conflicts += 1;
            }
            let done = start + self.access_latency;
            self.bank_busy_until[bank] = start + self.bank_occupancy.max(1);
            self.accesses += 1;
            self.completed.push_at(
                done,
                VaultResponse {
                    id: head.id,
                    addr: head.addr,
                    is_write: head.is_write,
                    completed_at: done,
                },
            );
            issue_at += 1;
        }
        self.next_issue_at = issue_at;
    }

    /// Removes one completed access available by `now`.
    pub fn pop_response(&mut self, now: Cycle) -> Option<VaultResponse> {
        self.completed.pop_ready(now)
    }

    /// Returns true if requests are waiting in the controller queue.
    pub fn has_queued(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Completion cycle of the earliest outstanding access, if any.
    pub fn next_completion_at(&self) -> Option<Cycle> {
        self.completed.next_ready_at()
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that had to wait for a busy bank.
    pub fn bank_conflicts(&self) -> u64 {
        self.bank_conflicts
    }

    /// Returns true if no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.completed.is_empty()
    }

    /// Serializes the vault's dynamic state (queue contents, bank cursors,
    /// in-flight completions, counters). Configuration-derived fields travel
    /// as code, not data.
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            ("queue", Json::Arr(self.queue.iter().map(VaultRequest::state_to_json).collect())),
            (
                "bank_busy_until",
                Json::Arr(self.bank_busy_until.iter().map(|&c| Json::from(c)).collect()),
            ),
            (
                "completed",
                Json::Arr(
                    self.completed
                        .state_entries()
                        .into_iter()
                        .map(|(at, resp)| {
                            Json::obj([("at", Json::from(at)), ("resp", resp.state_to_json())])
                        })
                        .collect(),
                ),
            ),
            ("next_issue_at", Json::from(self.next_issue_at)),
            ("accesses", Json::from(self.accesses)),
            ("bank_conflicts", Json::from(self.bank_conflicts)),
        ])
    }

    /// Restores dynamic state onto a freshly constructed vault.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed or inconsistent
    /// with this vault's configuration (queue deeper than the configured
    /// depth, bank vector of the wrong length).
    pub fn load_state(&mut self, doc: &Json) -> Result<(), JsonError> {
        let queue = doc.req_array("queue")?;
        if queue.len() > self.queue_depth {
            return Err(JsonError::state(format!(
                "vault queue holds {} requests but the configured depth is {}",
                queue.len(),
                self.queue_depth
            )));
        }
        let banks = doc.req_array("bank_busy_until")?;
        if banks.len() != self.banks {
            return Err(JsonError::state(format!(
                "bank_busy_until has {} entries but the vault has {} banks",
                banks.len(),
                self.banks
            )));
        }
        self.queue.clear();
        for entry in queue {
            self.queue.push_back(VaultRequest::state_from_json(entry)?);
        }
        for (slot, entry) in self.bank_busy_until.iter_mut().zip(banks) {
            *slot = entry
                .as_u64()
                .ok_or_else(|| JsonError::state("bank_busy_until entry is not a cycle"))?;
        }
        self.completed = LatencyQueue::with_capacity(2 * (self.queue_depth + self.banks));
        for entry in doc.req_array("completed")? {
            let at = entry.req_u64("at")?;
            self.completed.push_at(at, VaultResponse::state_from_json(entry.req("resp")?)?);
        }
        self.next_issue_at = doc.req_u64("next_issue_at")?;
        self.accesses = doc.req_u64("accesses")?;
        self.bank_conflicts = doc.req_u64("bank_conflicts")?;
        Ok(())
    }
}

impl Component for Vault {
    fn next_wake(&self, now: Cycle) -> NextWake {
        // After a wake the queue is empty (tick drains the whole batch), so
        // the only future events are completions. A non-empty queue can only
        // mean an external push since the last wake: drain it next cycle.
        if self.has_queued() {
            NextWake::At(now + 1)
        } else {
            NextWake::from_next(self.next_completion_at())
        }
    }

    fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
        self.tick(now);
        self.next_wake(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HmcConfig {
        HmcConfig::default()
    }

    #[test]
    fn read_completes_after_access_latency() {
        let mut v = Vault::new(&cfg());
        assert!(v.push(VaultRequest::read(1, Addr::new(0x40))));
        v.tick(0);
        assert!(v.pop_response(cfg().vault_access_latency - 1).is_none());
        let r = v.pop_response(cfg().vault_access_latency).unwrap();
        assert_eq!(r.id, 1);
        assert!(v.is_idle());
    }

    #[test]
    fn bank_conflict_adds_penalty() {
        let mut v = Vault::new(&cfg());
        // Two accesses to the same bank (same block index modulo banks).
        let a = Addr::new(0);
        let b = Addr::new(64 * 32 * 8); // same bank after vault/bank interleave
        v.push(VaultRequest::read(1, a));
        v.push(VaultRequest::read(2, b));
        v.tick(0);
        v.tick(1);
        assert_eq!(v.accesses(), 2);
        assert_eq!(v.bank_conflicts(), 1);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let mut v = Vault::new(&cfg());
        v.push(VaultRequest::read(1, Addr::new(0)));
        v.push(VaultRequest::read(2, Addr::new(64)));
        v.tick(0);
        v.tick(1);
        assert_eq!(v.bank_conflicts(), 0);
    }

    #[test]
    fn batch_drain_charges_one_issue_per_cycle() {
        // Three requests to three different banks, drained in ONE tick: the
        // TSV command bus still issues one per cycle, so completions are
        // staggered exactly as per-cycle ticking would stagger them.
        let mut v = Vault::new(&cfg());
        v.push(VaultRequest::read(1, Addr::new(0)));
        v.push(VaultRequest::read(2, Addr::new(64)));
        v.push(VaultRequest::read(3, Addr::new(128)));
        v.tick(0);
        assert!(!v.has_queued(), "tick must drain the whole backlog");
        assert_eq!(v.accesses(), 3);
        assert_eq!(v.bank_conflicts(), 0);
        let l = cfg().vault_access_latency;
        for (t, id) in [(l, 1), (l + 1, 2), (l + 2, 3)] {
            assert!(v.pop_response(t.saturating_sub(1)).is_none(), "id {id} must not be early");
            assert_eq!(v.pop_response(t).unwrap().id, id);
        }
        assert!(v.is_idle());
    }

    #[test]
    fn issue_cursor_persists_across_wakes() {
        // A request arriving while a previous batch is still (virtually)
        // issuing queues behind it, exactly like the per-cycle model.
        let mut v = Vault::new(&cfg());
        v.push(VaultRequest::read(1, Addr::new(0)));
        v.push(VaultRequest::read(2, Addr::new(64)));
        v.tick(0); // virtual issues at cycles 0 and 1
        v.push(VaultRequest::read(3, Addr::new(128)));
        v.tick(1); // cursor is 2: id 3 issues at cycle 2, not 1
        let l = cfg().vault_access_latency;
        assert_eq!(v.next_completion_at(), Some(l));
        let mut last = None;
        for t in 0..l + 3 {
            while let Some(r) = v.pop_response(t) {
                last = Some((t, r.id));
            }
        }
        assert_eq!(last, Some((l + 2, 3)));
    }

    #[test]
    fn drained_vault_wakes_only_for_completions() {
        let mut v = Vault::new(&cfg());
        v.push(VaultRequest::read(1, Addr::new(0)));
        assert_eq!(v.next_wake(0), NextWake::At(1), "external push wakes the drain");
        v.tick(0);
        let l = cfg().vault_access_latency;
        assert_eq!(v.next_wake(0), NextWake::At(l), "post-drain wake is the completion");
        assert_eq!(v.pop_response(l).unwrap().id, 1);
        assert_eq!(v.next_wake(l), NextWake::Idle);
    }

    #[test]
    fn state_json_round_trip_resumes_identically() {
        let mut v = Vault::new(&cfg());
        // In-flight completion, a pending queue entry and a moved issue
        // cursor, with one bank conflict already accrued.
        v.push(VaultRequest::read(1 << 62 | 1, Addr::new(0)));
        v.push(VaultRequest::write(1 << 62 | 2, Addr::new(64 * 32 * 8)));
        v.tick(0);
        v.push(VaultRequest::read(1 << 62 | 3, Addr::new(64)));
        let doc = Json::parse(&v.state_to_json().render()).unwrap();
        let mut r = Vault::new(&cfg());
        r.load_state(&doc).unwrap();
        let l = cfg().vault_access_latency;
        for t in 1..4 * l {
            v.tick(t);
            r.tick(t);
            loop {
                match (v.pop_response(t), r.pop_response(t)) {
                    (None, None) => break,
                    (a, b) => assert_eq!(a, b, "divergence at cycle {t}"),
                }
            }
        }
        assert_eq!(v.accesses(), r.accesses());
        assert_eq!(v.bank_conflicts(), r.bank_conflicts());
        assert!(v.is_idle() && r.is_idle());
    }

    #[test]
    fn load_state_rejects_inconsistent_configuration() {
        let mut v = Vault::new(&cfg());
        for i in 0..3 {
            v.push(VaultRequest::read(i, Addr::new(64 * i)));
        }
        let doc = v.state_to_json();
        let mut shallow = Vault::new(&HmcConfig { vault_queue_depth: 2, ..cfg() });
        let err = shallow.load_state(&doc).unwrap_err();
        assert!(err.to_string().contains("depth"), "unexpected error: {err}");
        let mut narrow = Vault::new(&HmcConfig { banks_per_vault: 2, ..cfg() });
        let err = narrow.load_state(&doc).unwrap_err();
        assert!(err.to_string().contains("banks"), "unexpected error: {err}");
    }

    #[test]
    fn queue_depth_enforced() {
        let mut v = Vault::new(&HmcConfig { vault_queue_depth: 2, ..cfg() });
        assert!(v.push(VaultRequest::read(1, Addr::new(0))));
        assert!(v.push(VaultRequest::read(2, Addr::new(64))));
        assert!(!v.push(VaultRequest::read(3, Addr::new(128))));
        assert!(!v.can_accept());
        assert_eq!(v.queue_len(), 2);
    }
}
