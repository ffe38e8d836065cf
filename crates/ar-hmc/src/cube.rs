//! A whole memory cube: 32 vaults behind the intra-cube crossbar.

use crate::vault::{Vault, VaultRequest, VaultResponse};
use ar_sim::NextWake;
use ar_types::addr::AddressMap;
use ar_types::config::HmcConfig;
use ar_types::json::{Json, JsonError};
use ar_types::{Addr, CubeId, Cycle};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A response on the cube's calendar. Every response crosses back in the
/// same crossbar latency, so ordering by completion cycle is ordering by
/// return cycle.
#[derive(Debug)]
struct Pending {
    vault: usize,
    /// Push order within the cube.
    seq: u64,
    resp: VaultResponse,
}

impl Pending {
    /// The calendar's pop order: (completion cycle, vault, push order).
    fn key(&self) -> (Cycle, usize, u64) {
        (self.resp.completed_at, self.vault, self.seq)
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the first response pops first.
        other.key().cmp(&self.key())
    }
}

/// One HMC: the vaults of the cube plus the crossbar latency between the
/// link I/O / ARE side and the vault controllers.
///
/// The cube does no per-cycle work. A request's whole timing is fixed when
/// it is pushed, and its response waits on one calendar until it is due
/// back at the link side.
#[derive(Debug)]
pub struct HmcCube {
    id: CubeId,
    cfg: HmcConfig,
    map: AddressMap,
    vaults: Vec<Vault>,
    /// Every bank's busy-until cycle, `banks_per_vault` per vault in vault
    /// order.
    banks: Vec<Cycle>,
    /// Responses on their way back, popped by (return cycle, vault, push
    /// order).
    responses: BinaryHeap<Pending>,
    pushed: u64,
    rejected: u64,
}

impl HmcCube {
    /// Creates a cube. `network_cubes` is the total number of cubes in the
    /// memory network (needed for the address interleaving).
    pub fn new(id: CubeId, cfg: &HmcConfig, network_cubes: usize) -> Self {
        HmcCube {
            id,
            cfg: cfg.clone(),
            map: AddressMap::new(network_cubes, cfg.vaults, cfg.banks_per_vault),
            vaults: vec![Vault::default(); cfg.vaults],
            banks: vec![0; cfg.vaults * cfg.banks_per_vault],
            responses: BinaryHeap::new(),
            pushed: 0,
            rejected: 0,
        }
    }

    /// This cube's identifier.
    pub fn id(&self) -> CubeId {
        self.id
    }

    /// The vault within this cube that owns `addr`.
    pub fn vault_of(&self, addr: Addr) -> usize {
        self.map.vault_of(addr)
    }

    /// Accepts a memory request at the crossbar's link side at `now` and
    /// fixes its whole timing at once.
    ///
    /// The request reaches its vault controller `crossbar_latency` cycles
    /// later. The vault admits requests in push order, at most
    /// `vault_queue_depth` per cycle, so a request that finds the cycle's
    /// admissions used up waits for a later one; each cycle it waits counts
    /// as one vault-queue rejection. The vault then issues it, one request
    /// per cycle on the TSV command bus and after its bank frees, and the
    /// response crosses back `crossbar_latency` cycles after the access
    /// completes.
    ///
    /// Callers must push every request of a cycle before they pop that
    /// cycle's responses. That keeps a zero crossbar latency exact: the
    /// vault admits a request in the cycle it was pushed, behind every
    /// request pushed before it.
    ///
    /// # Errors
    ///
    /// Never rejects at the crossbar (the crossbar has elastic buffering);
    /// the `Result` is kept for interface symmetry with the DRAM system.
    pub fn try_push(&mut self, now: Cycle, req: VaultRequest) -> Result<(), VaultRequest> {
        let v = self.vault_of(req.addr);
        let per_vault = self.cfg.banks_per_vault;
        let arrival = now.saturating_add(self.cfg.crossbar_latency);
        let banks = &mut self.banks[v * per_vault..(v + 1) * per_vault];
        let access = self.vaults[v].access(arrival, req.addr, banks, &self.cfg);
        self.rejected += access.admitted - arrival;
        let resp = VaultResponse {
            id: req.id,
            addr: req.addr,
            is_write: req.is_write,
            completed_at: access.done,
        };
        self.responses.push(Pending { vault: v, seq: self.pushed, resp });
        self.pushed += 1;
        Ok(())
    }

    /// The cycle at which the next response is due back at the link side.
    fn next_return_at(&self) -> Option<Cycle> {
        self.responses.peek().map(|p| p.resp.completed_at.saturating_add(self.cfg.crossbar_latency))
    }

    /// Removes one completed access that has crossed back over the crossbar
    /// by `now`.
    pub fn pop_response(&mut self, now: Cycle) -> Option<VaultResponse> {
        match self.next_return_at() {
            Some(at) if at <= now => self.responses.pop().map(|p| p.resp),
            _ => None,
        }
    }

    /// The cube's wake-up request: the cycle its next response is due back,
    /// or `Idle` when none is in flight.
    pub fn next_wake(&self) -> NextWake {
        NextWake::from_next(self.next_return_at())
    }

    /// Total DRAM accesses served by this cube.
    pub fn accesses(&self) -> u64 {
        self.vaults.iter().map(Vault::accesses).sum()
    }

    /// Total bank conflicts observed by this cube.
    pub fn bank_conflicts(&self) -> u64 {
        self.vaults.iter().map(Vault::bank_conflicts).sum()
    }

    /// Cycles requests waited for room in a vault queue, summed over
    /// requests: one rejection per cycle a request found its vault's
    /// admissions used up.
    pub fn vault_queue_rejections(&self) -> u64 {
        self.rejected
    }

    /// Returns true if no response is in flight.
    pub fn is_idle(&self) -> bool {
        self.responses.is_empty()
    }

    /// Number of vaults.
    pub fn vaults(&self) -> usize {
        self.vaults.len()
    }

    /// Serializes the cube's dynamic state: each vault's cursors, counters
    /// and bank busy-until cycles, the responses in flight in pop order, and
    /// the rejection counter.
    pub fn state_to_json(&self) -> Json {
        let banks = self.banks.chunks(self.cfg.banks_per_vault);
        let vaults = self.vaults.iter().zip(banks).map(|(vault, banks)| vault.state_to_json(banks));
        let mut pending: Vec<&Pending> = self.responses.iter().collect();
        pending.sort_by_key(|p| p.key());
        Json::obj([
            ("vaults", Json::Arr(vaults.collect())),
            ("pending", Json::Arr(pending.iter().map(|p| p.resp.state_to_json()).collect())),
            ("rejected", Json::from(self.rejected)),
        ])
    }

    /// Restores dynamic state onto a freshly constructed cube. `now` is the
    /// resume cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed, or when it
    /// disagrees with this cube's configuration or with the resume cycle: a
    /// vault count or bank vector of the wrong length, a vault that
    /// admitted more requests in one cycle than the queue depth, responses
    /// out of pop order, or a response due back before `now`.
    pub fn load_state(&mut self, now: Cycle, doc: &Json) -> Result<(), JsonError> {
        let vaults = doc.req_array("vaults")?;
        if vaults.len() != self.vaults.len() {
            return Err(JsonError::state(format!(
                "checkpoint has {} vaults but the cube is configured with {}",
                vaults.len(),
                self.vaults.len()
            )));
        }
        let banks = self.banks.chunks_mut(self.cfg.banks_per_vault);
        for ((vault, banks), entry) in self.vaults.iter_mut().zip(banks).zip(vaults) {
            vault.load_state(entry, banks, self.cfg.vault_queue_depth)?;
        }
        self.responses.clear();
        let mut last = None;
        for (seq, entry) in (0..).zip(doc.req_array("pending")?) {
            let resp = VaultResponse::state_from_json(entry)?;
            let pending = Pending { vault: self.vault_of(resp.addr), seq, resp };
            let returns_at = resp.completed_at.saturating_add(self.cfg.crossbar_latency);
            if returns_at < now {
                return Err(JsonError::state(format!(
                    "vault response {:#x} returns at cycle {returns_at}, before the resume cycle \
                     {now}",
                    resp.id
                )));
            }
            let key = (resp.completed_at, pending.vault);
            if last.is_some_and(|last| last > key) {
                return Err(JsonError::state(format!(
                    "vault response {:#x} (completed at cycle {}, vault {}) is listed after a \
                     later one: pending responses must be in pop order",
                    resp.id, key.0, key.1
                )));
            }
            last = Some(key);
            self.responses.push(pending);
        }
        self.pushed = self.responses.len() as u64;
        self.rejected = doc.req_u64("rejected")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceCube;

    /// Pops every response due at `now`.
    fn pop_all(cube: &mut HmcCube, now: Cycle) -> Vec<VaultResponse> {
        std::iter::from_fn(|| cube.pop_response(now)).collect()
    }

    #[test]
    fn request_roundtrip_through_crossbar_and_vault() {
        let cfg = HmcConfig::default();
        let mut cube = HmcCube::new(CubeId::new(3), &cfg, 16);
        cube.try_push(0, VaultRequest::read(42, Addr::new(0x1000))).unwrap();
        let mut resp = None;
        for t in 0..200 {
            if let Some(r) = cube.pop_response(t) {
                resp = Some((t, r));
                break;
            }
        }
        let (t, r) = resp.expect("must complete");
        assert_eq!(r.id, 42);
        // Round trip must include two crossbar traversals plus the DRAM access.
        assert_eq!(t, 2 * cfg.crossbar_latency + cfg.vault_access_latency);
        assert!(cube.is_idle());
        assert_eq!(cube.accesses(), 1);
    }

    #[test]
    fn many_requests_spread_over_vaults_all_complete() {
        let cfg = HmcConfig::default();
        let mut cube = HmcCube::new(CubeId::new(0), &cfg, 16);
        let total = 256u64;
        for i in 0..total {
            cube.try_push(0, VaultRequest::read(i, Addr::new(i * 64))).unwrap();
        }
        let mut done = 0;
        for t in 0..10_000 {
            done += pop_all(&mut cube, t).len() as u64;
            if done == total {
                break;
            }
        }
        assert_eq!(done, total);
        assert_eq!(cube.accesses(), total);
        assert_eq!(cube.vaults(), 32);
    }

    #[test]
    fn busy_cube_rearms_at_completions_not_per_cycle() {
        // A cube holding requests sleeps until its first response is due
        // back at the link side: two crossbar traversals plus the access.
        let cfg = HmcConfig::default();
        let mut cube = HmcCube::new(CubeId::new(0), &cfg, 16);
        assert_eq!(cube.next_wake(), NextWake::Idle);
        for i in 0..8u64 {
            cube.try_push(0, VaultRequest::read(i, Addr::new(i * 64))).unwrap();
        }
        assert!(!cube.is_idle());
        let first = 2 * cfg.crossbar_latency + cfg.vault_access_latency;
        assert_eq!(cube.next_wake(), NextWake::At(first));
        assert!(pop_all(&mut cube, first - 1).is_empty(), "nothing returns early");
        assert_eq!(pop_all(&mut cube, first).len(), 8, "eight vaults complete together");
        assert_eq!(cube.next_wake(), NextWake::Idle);
    }

    /// A cube mid-flight: a hot vault with a backlog waiting for queue
    /// space, and responses from spread-out vaults in flight.
    fn busy_cube(cfg: &HmcConfig) -> HmcCube {
        let mut cube = HmcCube::new(CubeId::new(5), cfg, 16);
        for i in 0..24u64 {
            // Half hammer one vault (filling its queue), half spread out.
            let addr = if i % 2 == 0 { i * 64 * 32 } else { i * 64 };
            cube.try_push(0, VaultRequest::read((1 << 62) | i, Addr::new(addr))).unwrap();
        }
        cube
    }

    #[test]
    fn state_json_round_trip_resumes_identically() {
        let cfg = HmcConfig { vault_queue_depth: 2, ..HmcConfig::default() };
        let mut cube = busy_cube(&cfg);
        let snap_at = cfg.crossbar_latency + cfg.vault_access_latency + 2;
        for t in 0..snap_at {
            pop_all(&mut cube, t);
        }
        assert!(!cube.is_idle(), "snapshot must capture in-flight state");
        let doc = Json::parse(&cube.state_to_json().render()).unwrap();
        let mut restored = HmcCube::new(CubeId::new(5), &cfg, 16);
        restored.load_state(snap_at, &doc).unwrap();
        assert_eq!(restored.state_to_json(), doc, "the restored state renders identically");
        assert_eq!(cube.next_wake(), restored.next_wake());
        for t in snap_at..snap_at + 5_000 {
            if t < snap_at + 100 && t % 7 == 0 {
                // Later pushes queue behind the restored cursors.
                let req = VaultRequest::write(t, Addr::new(t * 64 * 32));
                cube.try_push(t, req).unwrap();
                restored.try_push(t, req).unwrap();
            }
            assert_eq!(pop_all(&mut cube, t), pop_all(&mut restored, t), "divergence at {t}");
            if t > snap_at + 100 && cube.is_idle() && restored.is_idle() {
                break;
            }
        }
        assert!(cube.is_idle() && restored.is_idle(), "both cubes must drain");
        assert_eq!(cube.accesses(), restored.accesses());
        assert_eq!(cube.bank_conflicts(), restored.bank_conflicts());
        assert_eq!(cube.vault_queue_rejections(), restored.vault_queue_rejections());
    }

    /// Restores `doc` onto a fresh cube of `cfg` at `now` and returns the
    /// error message.
    fn load_error(cfg: &HmcConfig, now: Cycle, doc: &Json) -> String {
        let mut cube = HmcCube::new(CubeId::new(5), cfg, 16);
        cube.load_state(now, doc).unwrap_err().to_string()
    }

    /// The state of `cube` with `edit` applied to one named array field.
    fn edited(cube: &HmcCube, field: &str, edit: impl FnOnce(&mut Vec<Json>)) -> Json {
        let mut doc = cube.state_to_json();
        let Json::Obj(fields) = &mut doc else { panic!("cube state is an object") };
        let Some((_, Json::Arr(entries))) = fields.iter_mut().find(|(k, _)| k == field) else {
            panic!("{field} is an array")
        };
        edit(entries);
        doc
    }

    /// Replaces field `key` of the JSON object `entry`.
    fn set(entry: &mut Json, key: &str, value: Json) {
        let Json::Obj(fields) = entry else { panic!("an object") };
        fields.iter_mut().find(|(k, _)| k == key).expect("field exists").1 = value;
    }

    #[test]
    fn load_state_rejects_crossbar_cycles_that_decrease() {
        // The calendar lists responses in pop order. Swapping two that
        // return in different cycles, or two that return in the same cycle
        // from different vaults, lists a later one first.
        let cfg = HmcConfig { vault_queue_depth: 2, ..HmcConfig::default() };
        let cube = busy_cube(&cfg);
        HmcCube::new(CubeId::new(5), &cfg, 16)
            .load_state(0, &cube.state_to_json())
            .expect("the snapshot as written restores");
        let pending = cube.state_to_json().req_array("pending").unwrap().to_vec();
        let completed = |i: usize| pending[i].req_u64("completed_at").unwrap();
        let later = (1..pending.len()).find(|&i| completed(i) > completed(0)).unwrap();
        let swapped = edited(&cube, "pending", |p| p.swap(0, later));
        let err = load_error(&cfg, 0, &swapped);
        assert!(err.contains("must be in pop order"), "unexpected error: {err}");
        assert_eq!(completed(0), completed(1), "the first two return together");
        let swapped = edited(&cube, "pending", |p| p.swap(0, 1));
        let err = load_error(&cfg, 0, &swapped);
        assert!(err.contains("must be in pop order"), "unexpected error: {err}");
    }

    #[test]
    fn load_state_rejects_responses_due_before_the_resume_cycle() {
        // The first response returns at 2 + 22 + 2 = 26: a snapshot resumed
        // at 27 would have popped it already.
        let cfg = HmcConfig::default();
        let cube = busy_cube(&cfg);
        let first = 2 * cfg.crossbar_latency + cfg.vault_access_latency;
        let doc = cube.state_to_json();
        HmcCube::new(CubeId::new(5), &cfg, 16).load_state(first, &doc).expect("due at resume");
        let err = load_error(&cfg, first + 1, &doc);
        assert!(
            err.contains(&format!(
                "returns at cycle {first}, before the resume cycle {}",
                first + 1
            )),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn load_state_rejects_a_bank_vector_of_the_wrong_length() {
        let cfg = HmcConfig::default();
        let cube = busy_cube(&cfg);
        let doc = edited(&cube, "vaults", |vaults| {
            let banks = vaults[3].req_array("bank_busy_until").unwrap()[1..].to_vec();
            set(&mut vaults[3], "bank_busy_until", Json::Arr(banks));
        });
        let err = load_error(&cfg, 0, &doc);
        assert!(err.contains("7 entries but the vault has 8 banks"), "unexpected error: {err}");
    }

    #[test]
    fn load_state_rejects_an_admission_count_above_the_queue_depth() {
        let cfg = HmcConfig { vault_queue_depth: 2, ..HmcConfig::default() };
        let cube = busy_cube(&cfg);
        let doc = edited(&cube, "vaults", |vaults| {
            assert_eq!(vaults[0].req_u64("admitted").unwrap(), 2, "the hot vault is full");
            set(&mut vaults[0], "admitted", Json::from(3u64));
        });
        let err = load_error(&cfg, 0, &doc);
        assert!(
            err.contains("admitted 3 requests in one cycle but the configured queue depth is 2"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn load_state_rejects_wrong_vault_count() {
        let cfg = HmcConfig::default();
        let cube = HmcCube::new(CubeId::new(0), &cfg, 16);
        let doc = cube.state_to_json();
        let small = HmcConfig { vaults: 8, ..cfg };
        let mut other = HmcCube::new(CubeId::new(0), &small, 16);
        let err = other.load_state(0, &doc).unwrap_err();
        assert!(err.to_string().contains("vaults"), "unexpected error: {err}");
    }

    #[test]
    fn vault_mapping_consistent_with_address_map() {
        let cfg = HmcConfig::default();
        let cube = HmcCube::new(CubeId::new(0), &cfg, 16);
        let map = AddressMap::new(16, cfg.vaults, cfg.banks_per_vault);
        for i in 0..100u64 {
            let a = Addr::new(i * 64);
            assert_eq!(cube.vault_of(a), map.vault_of(a));
        }
    }

    #[test]
    fn hot_vault_backpressure_is_retried_not_lost() {
        let cfg = HmcConfig { vault_queue_depth: 2, ..HmcConfig::default() };
        let mut cube = HmcCube::new(CubeId::new(0), &cfg, 16);
        // All requests map to the same vault (stride = vaults * block).
        let total = 64u64;
        for i in 0..total {
            cube.try_push(0, VaultRequest::read(i, Addr::new(i * 64 * 32))).unwrap();
        }
        let mut done = 0;
        for t in 0..100_000 {
            done += pop_all(&mut cube, t).len() as u64;
            if done == total {
                break;
            }
        }
        assert_eq!(done, total);
        // Two requests are admitted per cycle: the k-th pair waits k cycles.
        assert_eq!(cube.vault_queue_rejections(), 2 * (0..total / 2).sum::<u64>());
    }

    /// Drives the cube and the per-cycle reference model with the same
    /// random bursty traffic, pushing each cycle's requests before popping
    /// its responses, and requires identical `(cycle, response)` sequences
    /// and counters.
    fn matches_the_reference_model(cfg: &HmcConfig, seed: u64) {
        let mut cube = HmcCube::new(CubeId::new(1), cfg, 16);
        let mut reference = ReferenceCube::new(cfg, 16);
        let mut rng = ar_sim::SimRng::seed_from_u64(seed);
        let vaults = cfg.vaults as u64;
        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
        let mut pushed = 0u64;
        let mut t = 0;
        while t < 1_500 || !cube.is_idle() || !reference.is_idle() {
            let burst = match rng.next_below(100) {
                // Now and then a burst deeper than any queue hits one vault.
                0 if t < 1_500 => 40,
                1..=30 if t < 1_500 => rng.next_below(6),
                _ => 0,
            };
            let hot = rng.next_below(vaults);
            for _ in 0..burst {
                // Half the requests hit one vault, so its queue overflows.
                let block = if burst == 40 || rng.chance(0.5) {
                    hot + rng.next_below(4) * vaults
                } else {
                    rng.next_below(1 << 20)
                };
                let req = if rng.chance(0.3) {
                    VaultRequest::write(pushed, Addr::new(block * 64))
                } else {
                    VaultRequest::read(pushed, Addr::new(block * 64))
                };
                cube.try_push(t, req).unwrap();
                reference.push(t, req);
                pushed += 1;
            }
            reference.tick(t);
            theirs.extend(std::iter::from_fn(|| reference.pop_response(t)).map(|r| (t, r)));
            ours.extend(pop_all(&mut cube, t).into_iter().map(|r| (t, r)));
            t += 1;
            assert!(t < 200_000, "cube never drained");
        }
        let label = format!("{cfg:?}, seed {seed}");
        assert_eq!(ours.len() as u64, pushed, "every request must complete: {label}");
        assert_eq!(ours, theirs, "response sequences differ: {label}");
        assert_eq!(cube.accesses(), reference.accesses(), "{label}");
        assert_eq!(cube.bank_conflicts(), reference.bank_conflicts(), "{label}");
        assert_eq!(cube.vault_queue_rejections(), reference.rejected(), "{label}");
        assert!(reference.rejected() > 0, "the bursts must overflow a queue: {label}");
    }

    #[test]
    fn issue_at_push_matches_the_per_cycle_reference_model() {
        let mut seed = 0;
        for vaults in [32, 70] {
            for vault_queue_depth in [1, 2, 3, 16] {
                for crossbar_latency in [0, 1, 2] {
                    for vault_access_latency in [4, 22] {
                        let cfg = HmcConfig {
                            vaults,
                            vault_queue_depth,
                            crossbar_latency,
                            vault_access_latency,
                            ..HmcConfig::default()
                        };
                        seed += 1;
                        matches_the_reference_model(&cfg, seed);
                    }
                }
            }
        }
    }
}
