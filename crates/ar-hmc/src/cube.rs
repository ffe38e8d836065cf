//! A whole memory cube: 32 vaults behind the intra-cube crossbar.

use crate::vault::{Vault, VaultRequest, VaultResponse};
use ar_sim::{Component, EventFifo, NextWake, SchedCtx};
use ar_types::addr::AddressMap;
use ar_types::config::HmcConfig;
use ar_types::json::{Json, JsonError};
use ar_types::{Addr, CubeId, Cycle};

/// Serializes one direction of the crossbar, front first.
fn crossing_to_json<T>(queue: &EventFifo<T>, encode: impl Fn(&T) -> Json) -> Json {
    let entry =
        |(at, item): (Cycle, &T)| Json::obj([("at", Json::from(at)), ("item", encode(item))]);
    Json::Arr(queue.entries().map(entry).collect())
}

/// Decodes the entries of [`crossing_to_json`]. A queue whose cycles
/// decrease is rejected: its front would no longer be the next item to
/// finish crossing.
fn crossing_from_json<T>(
    entries: &[Json],
    decode: impl Fn(&Json) -> Result<T, JsonError>,
) -> Result<EventFifo<T>, JsonError> {
    let mut queue = EventFifo::new();
    for entry in entries {
        let at = entry.req_u64("at")?;
        if queue.last_at().is_some_and(|last| last > at) {
            return Err(JsonError::state(format!(
                "crossbar entry at cycle {at} follows one at a later cycle"
            )));
        }
        queue.schedule(at, decode(entry.req("item")?)?);
    }
    Ok(queue)
}

/// One HMC: the vaults of the cube plus the crossbar latency between the
/// link I/O / ARE side and the vault controllers.
#[derive(Debug)]
pub struct HmcCube {
    id: CubeId,
    vaults: Vec<Vault>,
    /// Requests crossing the crossbar towards a vault controller. Every item
    /// crosses in the same `crossbar_latency`, so the queue is in ready
    /// order.
    inbound: EventFifo<VaultRequest>,
    /// Responses crossing the crossbar back towards the link I/O / ARE.
    outbound: EventFifo<VaultResponse>,
    map: AddressMap,
    crossbar_latency: Cycle,
    /// Requests that found their vault queue full and are waiting to retry.
    retry: Vec<VaultRequest>,
    /// One bit per vault (bit `v % 64` of word `v / 64`), set while the
    /// vault holds queued or in-flight work. A vault only gains work in
    /// [`HmcCube::dispatch`] and only loses it inside [`HmcCube::tick`],
    /// which clears the bit of every visited vault left idle, so a clear bit
    /// always means an idle vault.
    busy: Vec<u64>,
    /// Earliest vault-side event, folded over the busy vaults during the
    /// last [`HmcCube::tick`]. Vault state only changes inside `tick`, so the
    /// cache lets [`Component::next_wake`] stay O(1) instead of re-scanning
    /// the vaults.
    vault_wake: NextWake,
    rejected: u64,
}

impl HmcCube {
    /// Creates a cube. `network_cubes` is the total number of cubes in the
    /// memory network (needed for the address interleaving).
    pub fn new(id: CubeId, cfg: &HmcConfig, network_cubes: usize) -> Self {
        HmcCube {
            id,
            vaults: (0..cfg.vaults).map(|_| Vault::new(cfg)).collect(),
            inbound: EventFifo::new(),
            outbound: EventFifo::new(),
            map: AddressMap::new(network_cubes, cfg.vaults, cfg.banks_per_vault),
            crossbar_latency: cfg.crossbar_latency,
            retry: Vec::new(),
            busy: vec![0; cfg.vaults.div_ceil(64)],
            vault_wake: NextWake::Idle,
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

    /// Accepts a memory request arriving at the crossbar at `now`.
    ///
    /// # Errors
    ///
    /// Never rejects at the crossbar (the crossbar has elastic buffering);
    /// the `Result` is kept for interface symmetry with the DRAM system.
    pub fn try_push(&mut self, now: Cycle, req: VaultRequest) -> Result<(), VaultRequest> {
        self.inbound.schedule(now.saturating_add(self.crossbar_latency), req);
        Ok(())
    }

    /// Advances the cube to `now`. Only the vaults in the busy set are
    /// visited, in ascending vault order; an idle vault is never touched (its
    /// tick would be a no-op), so the cost of a cube cycle is proportional to
    /// the number of busy vaults rather than the vault count. Each visited
    /// vault drains its whole backlog in the one call (see [`Vault::tick`]),
    /// so after this returns the cube's next event is a completion or retry —
    /// never a "queue still busy" per-cycle re-arm.
    pub fn tick(&mut self, now: Cycle) {
        // Retry requests that previously found a full vault queue.
        if !self.retry.is_empty() {
            let pending = std::mem::take(&mut self.retry);
            for req in pending {
                self.dispatch(req);
            }
        }
        // Move requests that finished crossing the crossbar into their vaults.
        while let Some(req) = self.inbound.pop_due(now) {
            self.dispatch(req);
        }
        // Advance the busy vaults, collect due completions, fold the earliest
        // remaining vault event into the wake cache, and drop the vaults left
        // idle from the busy set. Idle vaults would fold in `Idle`, the
        // neutral element, so skipping them leaves the fold exact.
        let mut vault_wake = NextWake::Idle;
        for (w, word) in self.busy.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let vault = &mut self.vaults[w * 64 + bit as usize];
                if vault.has_queued() {
                    vault.tick(now);
                }
                if vault.next_completion_at().is_some_and(|at| at <= now) {
                    while let Some(resp) = vault.pop_response(now) {
                        self.outbound.schedule(now.saturating_add(self.crossbar_latency), resp);
                    }
                }
                vault_wake = vault_wake.min_with(vault.next_wake(now));
                if vault.is_idle() {
                    *word &= !(1 << bit);
                }
            }
        }
        self.vault_wake = vault_wake;
    }

    fn dispatch(&mut self, req: VaultRequest) {
        let v = self.vault_of(req.addr);
        if self.vaults[v].push(req) {
            self.busy[v / 64] |= 1 << (v % 64);
        } else {
            // A full queue means the vault is busy and its bit is already set.
            self.rejected += 1;
            self.retry.push(req);
        }
    }

    /// Removes one completed access that has crossed back over the crossbar
    /// by `now`.
    pub fn pop_response(&mut self, now: Cycle) -> Option<VaultResponse> {
        self.outbound.pop_due(now)
    }

    /// Total DRAM accesses served by this cube.
    pub fn accesses(&self) -> u64 {
        self.vaults.iter().map(Vault::accesses).sum()
    }

    /// Total bank conflicts observed by this cube.
    pub fn bank_conflicts(&self) -> u64 {
        self.vaults.iter().map(Vault::bank_conflicts).sum()
    }

    /// Times a request had to be re-queued because a vault queue was full.
    pub fn vault_queue_rejections(&self) -> u64 {
        self.rejected
    }

    /// Returns true if the cube has no queued or in-flight work. Reads the
    /// busy set instead of probing every vault.
    pub fn is_idle(&self) -> bool {
        self.inbound.is_empty()
            && self.outbound.is_empty()
            && self.retry.is_empty()
            && self.busy.iter().all(|&word| word == 0)
    }

    /// Number of vaults.
    pub fn vaults(&self) -> usize {
        self.vaults.len()
    }

    /// Serializes the cube's dynamic state: every vault, both crossbar
    /// queues, the retry list, and the rejection counter. The busy set and
    /// the vault wake cache are derived state and are recomputed by
    /// [`HmcCube::load_state`].
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            ("vaults", Json::Arr(self.vaults.iter().map(Vault::state_to_json).collect())),
            ("inbound", crossing_to_json(&self.inbound, VaultRequest::state_to_json)),
            ("outbound", crossing_to_json(&self.outbound, VaultResponse::state_to_json)),
            ("retry", Json::Arr(self.retry.iter().map(VaultRequest::state_to_json).collect())),
            ("rejected", Json::from(self.rejected)),
        ])
    }

    /// Restores dynamic state onto a freshly constructed cube. `now` is the
    /// resume cycle; the busy set is rebuilt from the restored vaults, and
    /// the vault wake cache is recomputed by folding every restored vault's
    /// next event, exactly as [`HmcCube::tick`] folds it.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed, its vault
    /// count disagrees with this cube's configuration, or a crossbar queue's
    /// cycles decrease.
    pub fn load_state(&mut self, now: Cycle, doc: &Json) -> Result<(), JsonError> {
        let vaults = doc.req_array("vaults")?;
        if vaults.len() != self.vaults.len() {
            return Err(JsonError::state(format!(
                "checkpoint has {} vaults but the cube is configured with {}",
                vaults.len(),
                self.vaults.len()
            )));
        }
        for (vault, entry) in self.vaults.iter_mut().zip(vaults) {
            vault.load_state(entry)?;
        }
        self.inbound =
            crossing_from_json(doc.req_array("inbound")?, VaultRequest::state_from_json)?;
        self.outbound =
            crossing_from_json(doc.req_array("outbound")?, VaultResponse::state_from_json)?;
        self.retry.clear();
        for entry in doc.req_array("retry")? {
            self.retry.push(VaultRequest::state_from_json(entry)?);
        }
        self.rejected = doc.req_u64("rejected")?;
        let mut vault_wake = NextWake::Idle;
        self.busy.fill(0);
        for (v, vault) in self.vaults.iter().enumerate() {
            vault_wake = vault_wake.min_with(vault.next_wake(now));
            if !vault.is_idle() {
                self.busy[v / 64] |= 1 << (v % 64);
            }
        }
        self.vault_wake = vault_wake;
        Ok(())
    }
}

impl Component for HmcCube {
    fn next_wake(&self, now: Cycle) -> NextWake {
        let mut wake = self.vault_wake;
        if !self.retry.is_empty() {
            wake = wake.min_with(NextWake::At(now + 1));
        }
        wake = wake.min_opt(self.inbound.next_at());
        // The system pops crossed-back responses from `outbound`, so their
        // readiness is a wake-up of this cube too.
        wake = wake.min_opt(self.outbound.next_at());
        wake
    }

    fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
        self.tick(now);
        self.next_wake(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_through_crossbar_and_vault() {
        let cfg = HmcConfig::default();
        let mut cube = HmcCube::new(CubeId::new(3), &cfg, 16);
        cube.try_push(0, VaultRequest::read(42, Addr::new(0x1000))).unwrap();
        let mut resp = None;
        for t in 0..200 {
            cube.tick(t);
            if let Some(r) = cube.pop_response(t) {
                resp = Some((t, r));
                break;
            }
        }
        let (t, r) = resp.expect("must complete");
        assert_eq!(r.id, 42);
        // Round trip must include two crossbar traversals plus the DRAM access.
        assert!(t >= 2 * cfg.crossbar_latency + cfg.vault_access_latency);
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
            cube.tick(t);
            while cube.pop_response(t).is_some() {
                done += 1;
            }
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
        // The batched vault drain removes per-cycle re-arms: after a tick
        // with a deep backlog, the cube's next wake is the earliest future
        // event (crossbar delivery or vault completion), strictly later than
        // `now + 1` once the crossbar has drained.
        let cfg = HmcConfig::default();
        let mut cube = HmcCube::new(CubeId::new(0), &cfg, 16);
        for i in 0..8u64 {
            cube.try_push(0, VaultRequest::read(i, Addr::new(i * 64))).unwrap();
        }
        // Let the requests cross the crossbar and be drained into the banks.
        let arrive = cfg.crossbar_latency;
        cube.tick(arrive);
        assert!(!cube.is_idle());
        let wake = cube.next_wake(arrive);
        let first_done = arrive + cfg.vault_access_latency;
        assert_eq!(
            wake,
            ar_sim::NextWake::At(first_done),
            "a drained cube must sleep until its first completion"
        );
    }

    #[test]
    fn state_json_round_trip_resumes_identically() {
        // Snapshot a cube mid-flight — requests on the crossbar, a hot vault
        // with retries pending, responses crossing back — and check the
        // restored cube produces the same response trace and counters.
        let cfg = HmcConfig { vault_queue_depth: 2, ..HmcConfig::default() };
        let mut cube = HmcCube::new(CubeId::new(5), &cfg, 16);
        for i in 0..24u64 {
            // Half hammer one vault (forcing retries), half spread out.
            let addr = if i % 2 == 0 { i * 64 * 32 } else { i * 64 };
            cube.try_push(0, VaultRequest::read((1 << 62) | i, Addr::new(addr))).unwrap();
        }
        let snap_at = cfg.crossbar_latency + 2;
        for t in 0..=snap_at {
            cube.tick(t);
            while cube.pop_response(t).is_some() {}
        }
        assert!(!cube.is_idle(), "snapshot must capture in-flight state");
        let doc = Json::parse(&cube.state_to_json().render()).unwrap();
        let mut restored = HmcCube::new(CubeId::new(5), &cfg, 16);
        restored.load_state(snap_at, &doc).unwrap();
        assert_eq!(cube.next_wake(snap_at), restored.next_wake(snap_at), "wake cache mismatch");
        for t in snap_at + 1..snap_at + 5_000 {
            cube.tick(t);
            restored.tick(t);
            loop {
                match (cube.pop_response(t), restored.pop_response(t)) {
                    (None, None) => break,
                    (a, b) => assert_eq!(a, b, "divergence at cycle {t}"),
                }
            }
            if cube.is_idle() && restored.is_idle() {
                break;
            }
        }
        assert!(cube.is_idle() && restored.is_idle(), "both cubes must drain");
        assert_eq!(cube.accesses(), restored.accesses());
        assert_eq!(cube.bank_conflicts(), restored.bank_conflicts());
        assert_eq!(cube.vault_queue_rejections(), restored.vault_queue_rejections());
    }

    #[test]
    fn load_state_rejects_crossbar_cycles_that_decrease() {
        // Requests pushed at cycles 0 and 1 sit on the inbound crossbar in
        // that order; a snapshot listing them the other way round would
        // leave the later one at the front of the queue.
        let cfg = HmcConfig::default();
        let mut cube = HmcCube::new(CubeId::new(0), &cfg, 16);
        cube.try_push(0, VaultRequest::read(1, Addr::new(0x40))).unwrap();
        cube.try_push(1, VaultRequest::read(2, Addr::new(0x80))).unwrap();
        let doc = cube.state_to_json();
        let mut restored = HmcCube::new(CubeId::new(0), &cfg, 16);
        restored.load_state(0, &doc).expect("the snapshot as written restores");
        let mut swapped = doc;
        let Json::Obj(fields) = &mut swapped else { panic!("cube state is an object") };
        let Some((_, Json::Arr(inbound))) = fields.iter_mut().find(|(k, _)| k == "inbound") else {
            panic!("inbound is an array")
        };
        assert_eq!(inbound.len(), 2);
        inbound.swap(0, 1);
        let err = restored.load_state(0, &swapped).unwrap_err();
        assert!(err.to_string().contains("crossbar entry"), "unexpected error: {err}");
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

    /// The full-scan definitions the busy set replaces: the cube is idle
    /// exactly when both crossbar queues and the retry list are empty and
    /// every vault is idle, and its next wake is the fold of every vault's
    /// next event plus the retry list and both crossbar queues.
    fn assert_busy_set_matches_full_scan(cube: &HmcCube, now: Cycle) {
        let scan_idle = cube.inbound.is_empty()
            && cube.outbound.is_empty()
            && cube.retry.is_empty()
            && cube.vaults.iter().all(Vault::is_idle);
        assert_eq!(cube.is_idle(), scan_idle, "is_idle disagrees with the full scan at {now}");
        let mut scan_wake = cube
            .vaults
            .iter()
            .fold(NextWake::Idle, |wake, vault| wake.min_with(Component::next_wake(vault, now)));
        if !cube.retry.is_empty() {
            scan_wake = scan_wake.min_with(NextWake::At(now + 1));
        }
        scan_wake = scan_wake.min_opt(cube.inbound.next_at()).min_opt(cube.outbound.next_at());
        assert_eq!(
            cube.next_wake(now),
            scan_wake,
            "next_wake disagrees with the full scan at {now}"
        );
    }

    fn random_traffic_keeps_busy_set_exact(vaults: usize, seed: u64) {
        let cfg = HmcConfig { vaults, vault_queue_depth: 3, ..HmcConfig::default() };
        let mut cube = HmcCube::new(CubeId::new(1), &cfg, 16);
        let mut rng = ar_sim::SimRng::seed_from_u64(seed);
        let mut pushed = 0u64;
        let mut done = 0u64;
        let mut t = 0;
        while t < 4_000 || !cube.is_idle() {
            // Bursty arrivals for the first stretch, then drain to idle.
            if t < 4_000 && rng.chance(0.3) {
                for _ in 0..rng.next_below(6) {
                    // Half the requests hit vault 0, so its queue overflows.
                    let block = if rng.chance(0.5) {
                        rng.next_below(4) * vaults as u64
                    } else {
                        rng.next_below(1 << 20)
                    };
                    let req = if rng.chance(0.3) {
                        VaultRequest::write(pushed, Addr::new(block * 64))
                    } else {
                        VaultRequest::read(pushed, Addr::new(block * 64))
                    };
                    cube.try_push(t, req).unwrap();
                    pushed += 1;
                }
            }
            cube.tick(t);
            while cube.pop_response(t).is_some() {
                done += 1;
            }
            assert_busy_set_matches_full_scan(&cube, t);
            t += 1;
            assert!(t < 200_000, "cube never drained");
        }
        assert!(pushed > 0);
        assert_eq!(done, pushed, "every request must complete");
        assert!(cube.vault_queue_rejections() > 0, "the hot vault must exercise retries");
    }

    #[test]
    fn busy_set_tracks_the_full_scan() {
        // The paper's 32 vaults fit one bit word; 70 vaults span two.
        for (vaults, seed) in [(32, 1), (32, 2), (32, 3), (70, 4), (70, 5), (70, 6)] {
            random_traffic_keeps_busy_set_exact(vaults, seed);
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
            cube.tick(t);
            while cube.pop_response(t).is_some() {
                done += 1;
            }
            if done == total {
                break;
            }
        }
        assert_eq!(done, total);
        assert!(cube.vault_queue_rejections() > 0);
    }
}
