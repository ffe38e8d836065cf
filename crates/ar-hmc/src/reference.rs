//! The per-cycle cube model that [`crate::HmcCube`] replaced, kept as a test
//! oracle. A request crosses an inbound crossbar FIFO and enters its vault's
//! bounded controller queue, or a cube-wide retry list when that queue is
//! full. Each cycle the retries go first, then the arrivals. A vault tick
//! issues its whole queue in one batch into a completion heap, and completed
//! accesses cross back on an outbound FIFO. The model is ticked every cycle.

use crate::vault::{VaultRequest, VaultResponse};
use ar_sim::LatencyQueue;
use ar_types::addr::AddressMap;
use ar_types::config::HmcConfig;
use ar_types::Cycle;
use std::collections::VecDeque;

struct ReferenceVault {
    queue: VecDeque<VaultRequest>,
    bank_busy_until: Vec<Cycle>,
    completed: LatencyQueue<VaultResponse>,
    next_issue_at: Cycle,
}

impl ReferenceVault {
    fn has_queued(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Issues every queued request, one per cycle from
    /// `max(now, next_issue_at)`. Returns the bank conflicts.
    fn tick(&mut self, now: Cycle, cfg: &HmcConfig) -> u64 {
        let mut conflicts = 0;
        let mut issue_at = self.next_issue_at.max(now);
        while let Some(head) = self.queue.pop_front() {
            let bank = (head.addr.block_index() % cfg.banks_per_vault as u64) as usize;
            let busy_until = self.bank_busy_until[bank];
            let conflict = busy_until > issue_at;
            let start = if conflict { busy_until + cfg.bank_busy_penalty } else { issue_at };
            conflicts += u64::from(conflict);
            let done = start + cfg.vault_access_latency;
            self.bank_busy_until[bank] = start + cfg.bank_occupancy.max(1);
            let resp = VaultResponse {
                id: head.id,
                addr: head.addr,
                is_write: head.is_write,
                completed_at: done,
            };
            self.completed.push_at(done, resp);
            issue_at += 1;
        }
        self.next_issue_at = issue_at;
        conflicts
    }
}

/// The per-cycle reference cube.
pub(crate) struct ReferenceCube {
    cfg: HmcConfig,
    map: AddressMap,
    vaults: Vec<ReferenceVault>,
    inbound: VecDeque<(Cycle, VaultRequest)>,
    retry: Vec<VaultRequest>,
    outbound: VecDeque<(Cycle, VaultResponse)>,
    accesses: u64,
    bank_conflicts: u64,
    rejected: u64,
}

impl ReferenceCube {
    pub(crate) fn new(cfg: &HmcConfig, network_cubes: usize) -> Self {
        let vault = || ReferenceVault {
            queue: VecDeque::new(),
            bank_busy_until: vec![0; cfg.banks_per_vault],
            completed: LatencyQueue::new(),
            next_issue_at: 0,
        };
        ReferenceCube {
            cfg: cfg.clone(),
            map: AddressMap::new(network_cubes, cfg.vaults, cfg.banks_per_vault),
            vaults: (0..cfg.vaults).map(|_| vault()).collect(),
            inbound: VecDeque::new(),
            retry: Vec::new(),
            outbound: VecDeque::new(),
            accesses: 0,
            bank_conflicts: 0,
            rejected: 0,
        }
    }

    pub(crate) fn push(&mut self, now: Cycle, req: VaultRequest) {
        self.inbound.push_back((now + self.cfg.crossbar_latency, req));
    }

    fn dispatch(&mut self, req: VaultRequest) {
        let vault = &mut self.vaults[self.map.vault_of(req.addr)];
        if vault.queue.len() < self.cfg.vault_queue_depth {
            vault.queue.push_back(req);
        } else {
            self.rejected += 1;
            self.retry.push(req);
        }
    }

    /// One cube cycle: retries, then arrivals, then every vault's batch
    /// issue and due completions in ascending vault order.
    pub(crate) fn tick(&mut self, now: Cycle) {
        for req in std::mem::take(&mut self.retry) {
            self.dispatch(req);
        }
        while self.inbound.front().is_some_and(|&(at, _)| at <= now) {
            let (_, req) = self.inbound.pop_front().expect("front exists");
            self.dispatch(req);
        }
        for vault in &mut self.vaults {
            if vault.has_queued() {
                self.accesses += vault.queue.len() as u64;
                self.bank_conflicts += vault.tick(now, &self.cfg);
            }
            while let Some(resp) = vault.completed.pop_ready(now) {
                self.outbound.push_back((now + self.cfg.crossbar_latency, resp));
            }
        }
    }

    pub(crate) fn pop_response(&mut self, now: Cycle) -> Option<VaultResponse> {
        match self.outbound.front() {
            Some(&(at, _)) if at <= now => self.outbound.pop_front().map(|(_, resp)| resp),
            _ => None,
        }
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.inbound.is_empty()
            && self.retry.is_empty()
            && self.outbound.is_empty()
            && self.vaults.iter().all(|v| !v.has_queued() && v.completed.is_empty())
    }

    pub(crate) fn accesses(&self) -> u64 {
        self.accesses
    }

    pub(crate) fn bank_conflicts(&self) -> u64 {
        self.bank_conflicts
    }

    pub(crate) fn rejected(&self) -> u64 {
        self.rejected
    }
}
