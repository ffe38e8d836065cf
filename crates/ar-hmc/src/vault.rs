//! A single HMC vault: its controller's admission and issue cursors.

use ar_types::config::HmcConfig;
use ar_types::json::{Json, JsonError};
use ar_types::{Addr, Cycle};

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
    /// Encodes the response for checkpointed state (ids carry tag bits, so
    /// they travel as hex).
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

/// One vault controller, reduced to the cursors that fix each access's
/// timing. Requests reach it in push order with non-decreasing arrival
/// cycles. It admits them first come first served, at most
/// `vault_queue_depth` per cycle, and issues one per cycle on the TSV
/// command bus. Its banks' busy-until cycles live in the cube's flat bank
/// array.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Vault {
    /// The last cycle at which the controller admitted a request.
    admitted_at: Cycle,
    /// Requests admitted at `admitted_at`, at most the queue depth.
    admitted: usize,
    /// Earliest cycle at which the TSV command bus can issue the next
    /// request.
    next_issue_at: Cycle,
    accesses: u64,
    bank_conflicts: u64,
}

/// The timing of one access, fixed when its request is pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Access {
    /// Cycle at which the controller admitted the request.
    pub(crate) admitted: Cycle,
    /// Cycle at which the bank access completed.
    pub(crate) done: Cycle,
}

impl Vault {
    /// Admits a request that reaches the controller at `arrival` and issues
    /// it to its bank. `banks` holds this vault's bank busy-until cycles.
    pub(crate) fn access(
        &mut self,
        arrival: Cycle,
        addr: Addr,
        banks: &mut [Cycle],
        cfg: &HmcConfig,
    ) -> Access {
        let admitted = if arrival > self.admitted_at {
            self.admitted = 1;
            arrival
        } else if self.admitted < cfg.vault_queue_depth {
            self.admitted += 1;
            self.admitted_at
        } else {
            self.admitted = 1;
            self.admitted_at + 1
        };
        self.admitted_at = admitted;
        let issue_at = self.next_issue_at.max(admitted);
        self.next_issue_at = issue_at + 1;
        let bank = &mut banks[(addr.block_index() % banks.len() as u64) as usize];
        let start = if *bank > issue_at {
            self.bank_conflicts += 1;
            *bank + cfg.bank_busy_penalty
        } else {
            issue_at
        };
        *bank = start + cfg.bank_occupancy.max(1);
        self.accesses += 1;
        Access { admitted, done: start + cfg.vault_access_latency }
    }

    /// Total accesses served.
    pub(crate) fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that had to wait for a busy bank.
    pub(crate) fn bank_conflicts(&self) -> u64 {
        self.bank_conflicts
    }

    /// Serializes the vault's cursors and counters together with its bank
    /// busy-until cycles.
    pub(crate) fn state_to_json(&self, banks: &[Cycle]) -> Json {
        Json::obj([
            ("admitted_at", Json::from(self.admitted_at)),
            ("admitted", Json::from(self.admitted)),
            ("next_issue_at", Json::from(self.next_issue_at)),
            ("bank_busy_until", Json::Arr(banks.iter().map(|&c| Json::from(c)).collect())),
            ("accesses", Json::from(self.accesses)),
            ("bank_conflicts", Json::from(self.bank_conflicts)),
        ])
    }

    /// Restores the vault's cursors, counters and bank busy-until cycles.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed, admits more
    /// requests in one cycle than `queue_depth`, or lists a number of banks
    /// other than `banks.len()`.
    pub(crate) fn load_state(
        &mut self,
        doc: &Json,
        banks: &mut [Cycle],
        queue_depth: usize,
    ) -> Result<(), JsonError> {
        let admitted = doc.req_usize("admitted")?;
        if admitted > queue_depth {
            return Err(JsonError::state(format!(
                "vault admitted {admitted} requests in one cycle but the configured queue depth \
                 is {queue_depth}"
            )));
        }
        let busy = doc.req_array("bank_busy_until")?;
        if busy.len() != banks.len() {
            return Err(JsonError::state(format!(
                "bank_busy_until has {} entries but the vault has {} banks",
                busy.len(),
                banks.len()
            )));
        }
        for (slot, entry) in banks.iter_mut().zip(busy) {
            *slot = entry
                .as_u64()
                .ok_or_else(|| JsonError::state("bank_busy_until entry is not a cycle"))?;
        }
        *self = Vault {
            admitted_at: doc.req_u64("admitted_at")?,
            admitted,
            next_issue_at: doc.req_u64("next_issue_at")?,
            accesses: doc.req_u64("accesses")?,
            bank_conflicts: doc.req_u64("bank_conflicts")?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HmcCube;
    use ar_sim::NextWake;
    use ar_types::CubeId;

    fn cfg() -> HmcConfig {
        HmcConfig::default()
    }

    /// A fresh vault and its banks under `cfg`.
    fn vault(cfg: &HmcConfig) -> (Vault, Vec<Cycle>) {
        (Vault::default(), vec![0; cfg.banks_per_vault])
    }

    /// Pushes `(arrival, address)` pairs in order and returns each access's
    /// timing.
    fn push(
        (vault, banks): &mut (Vault, Vec<Cycle>),
        cfg: &HmcConfig,
        requests: &[(Cycle, u64)],
    ) -> Vec<Access> {
        requests.iter().map(|&(at, a)| vault.access(at, Addr::new(a), banks, cfg)).collect()
    }

    #[test]
    fn read_completes_after_access_latency() {
        let mut v = vault(&cfg());
        let timings = push(&mut v, &cfg(), &[(0, 0x40)]);
        assert_eq!(timings, [Access { admitted: 0, done: cfg().vault_access_latency }]);
        assert_eq!(v.0.accesses(), 1);
    }

    #[test]
    fn bank_conflict_adds_penalty() {
        // Two accesses to the same bank (same block index modulo banks): the
        // second starts when the bank frees, plus the penalty.
        let c = cfg();
        let mut v = vault(&c);
        let timings = push(&mut v, &c, &[(0, 0), (0, 64 * 32 * 8)]);
        assert_eq!(v.0.accesses(), 2);
        assert_eq!(v.0.bank_conflicts(), 1);
        let start = c.bank_occupancy + c.bank_busy_penalty;
        assert_eq!(timings[1].done, start + c.vault_access_latency);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let mut v = vault(&cfg());
        push(&mut v, &cfg(), &[(0, 0), (0, 64)]);
        assert_eq!(v.0.bank_conflicts(), 0);
    }

    #[test]
    fn batch_drain_charges_one_issue_per_cycle() {
        // Three requests to three banks, admitted together in one cycle,
        // drain onto the TSV command bus one issue per cycle, so their
        // completions are staggered.
        let l = cfg().vault_access_latency;
        let mut v = vault(&cfg());
        let timings = push(&mut v, &cfg(), &[(0, 0), (0, 64), (0, 128)]);
        assert_eq!(v.0.bank_conflicts(), 0);
        assert!(timings.iter().all(|t| t.admitted == 0));
        let done: Vec<Cycle> = timings.iter().map(|t| t.done).collect();
        assert_eq!(done, [l, l + 1, l + 2]);
    }

    #[test]
    fn issue_cursor_persists_across_wakes() {
        // A request admitted while an earlier batch is still issuing queues
        // behind it: two issue at cycles 0 and 1, so one admitted at cycle 1
        // issues at 2.
        let l = cfg().vault_access_latency;
        let mut v = vault(&cfg());
        let timings = push(&mut v, &cfg(), &[(0, 0), (0, 64), (1, 128)]);
        assert_eq!(timings[2], Access { admitted: 1, done: l + 2 });
    }

    #[test]
    fn drained_vault_wakes_only_for_completions() {
        // A vault asks its cube for no wake of its own: not to admit, not to
        // issue, not to retry a request that found the queue full. With
        // depth 1, three same-cycle requests to vault 0 are admitted a cycle
        // apart, and the cube wakes once per completion, then sleeps once
        // the vault has drained.
        let c = HmcConfig { vault_queue_depth: 1, ..cfg() };
        let mut cube = HmcCube::new(CubeId::new(0), &c, 16);
        let addrs = [0, 64 * 32, 2 * 64 * 32];
        for (id, &a) in (0u64..).zip(&addrs) {
            assert_eq!(cube.vault_of(Addr::new(a)), 0);
            cube.try_push(0, VaultRequest::read(id, Addr::new(a))).unwrap();
        }
        assert_eq!(cube.vault_queue_rejections(), 1 + 2, "the backlog waits for admission");
        // The same vault on its own times each access; its response returns
        // one crossbar traversal after it completes.
        let arrivals: Vec<(Cycle, u64)> = addrs.iter().map(|&a| (c.crossbar_latency, a)).collect();
        let returns: Vec<Cycle> = push(&mut vault(&c), &c, &arrivals)
            .iter()
            .map(|t| t.done + c.crossbar_latency)
            .collect();
        let mut wakes = Vec::new();
        while let NextWake::At(t) = cube.next_wake() {
            assert_eq!(cube.pop_response(t - 1), None, "nothing returns before the wake");
            assert!(cube.pop_response(t).is_some(), "a wake returns a response");
            wakes.push(t);
        }
        assert_eq!(wakes, returns);
        assert!(cube.is_idle());
    }

    #[test]
    fn queue_depth_enforced() {
        // Depth 2: five requests arriving at cycle 3 are admitted two per
        // cycle, in push order; a request arriving at 4 queues behind them,
        // and one arriving at 9 finds the queue empty.
        let c = HmcConfig { vault_queue_depth: 2, ..cfg() };
        let mut v = vault(&c);
        let requests = [(3, 0), (3, 64), (3, 128), (3, 192), (3, 256), (4, 320), (9, 384)];
        let admitted: Vec<Cycle> = push(&mut v, &c, &requests).iter().map(|t| t.admitted).collect();
        assert_eq!(admitted, [3, 3, 4, 4, 5, 5, 9]);
    }

    #[test]
    fn state_json_round_trip_resumes_identically() {
        // A moved issue cursor, a busy bank, one bank conflict and a full
        // admission cycle.
        let c = HmcConfig { vault_queue_depth: 2, ..cfg() };
        let mut v = vault(&c);
        push(&mut v, &c, &[(5, 0), (5, 64 * 32 * 8), (5, 64)]);
        let doc = Json::parse(&v.0.state_to_json(&v.1).render()).unwrap();
        let mut restored = vault(&c);
        restored.0.load_state(&doc, &mut restored.1, c.vault_queue_depth).unwrap();
        assert_eq!(restored.1, v.1);
        let later = [(6, 0), (6, 64), (6, 64 * 32 * 8), (7, 128), (30, 0)];
        assert_eq!(push(&mut v, &c, &later), push(&mut restored, &c, &later));
        assert_eq!(v.0.accesses(), restored.0.accesses());
        assert_eq!(v.0.bank_conflicts(), restored.0.bank_conflicts());
    }

    #[test]
    fn load_state_rejects_inconsistent_configuration() {
        let c = cfg();
        let mut v = vault(&c);
        push(&mut v, &c, &[(0, 0), (0, 64), (0, 128)]);
        let doc = v.0.state_to_json(&v.1);
        let err = Vault::default().load_state(&doc, &mut [0; 8], 2).unwrap_err();
        assert!(err.to_string().contains("configured queue depth is 2"), "{err}");
        let err = Vault::default().load_state(&doc, &mut [0; 2], 16).unwrap_err();
        assert!(err.to_string().contains("but the vault has 2 banks"), "{err}");
    }
}
