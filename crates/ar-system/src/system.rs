//! The event-driven full-system model.
//!
//! One [`System`] wires together every substrate of the evaluation platform
//! (Table 4.1): the out-of-order cores and their Message Interfaces, the
//! coherent two-level cache hierarchy, the on-chip mesh, and either the DDR
//! DRAM baseline or the dragonfly memory network of HMC cubes with one
//! Active-Routing Engine per cube. The system advances in memory-network
//! cycles (1 GHz); the cores tick twice per network cycle (2 GHz).
//!
//! Time advances through the [`ar_sim::Component`] layer: every top-level
//! component (the core cluster, the memory network, each cube, each AR
//! engine, the DRAM backend, the IPC sampler) is identified by a `SysKey`
//! and registers its next wake-up cycle in a dense [`ar_sim::WakeTable`]
//! that holds one pending cycle per key. The driver in [`System::run`] only processes
//! cycles at which some component is due and, within such a cycle, only
//! wakes the due components — idle routers, vaults and engines cost
//! nothing. Cores blocked on a memory
//! response, gather result or barrier park (`ar_cpu::Core::is_parked`) and
//! are skipped too; the whole cluster sleeps once every core is parked and
//! is re-armed by the memory side when it delivers the unblocking event,
//! with each parked core settling its stalled interval — split by cause —
//! at the next tick. Cores grinding through bulk compute blocks are
//! *fast-forwarded* (`ar_cpu::Core::try_fast_forward`): the block's
//! retire/issue schedule is computed in closed form and the core sleeps
//! until the block's end, with IPC samples and truncations splitting the
//! interval exactly. [`System::run_lockstep`] drives the *same* per-cycle
//! step over every cycle and every component (including parked cores),
//! exactly like the original lock-step simulator; the two kernels produce
//! cycle-identical [`SimReport`]s (asserted by the equivalence tests), the
//! event-driven one just skips the cycles and components that provably do
//! nothing.
//!
//! Alongside the timing model the system keeps a *functional memory* (a map
//! from address to f64). Offloaded operand reads return values from it and
//! offloaded writes/gather results update it, so every simulation produces
//! numerical reduction results that the tests compare against the workload's
//! reference values.

use crate::observer::{Observer, ObserverHub, RunInfo, Sample, SimEvent};
use crate::report::{CubeActivity, DataMovement, LatencyBreakdown, SimReport, StallSummary};

use active_routing::{ActiveRoutingEngine, AreOutput, HostOffloadController, HostOutput};
use ar_cache::{AccessKind, CacheHierarchy, HitLevel};
use ar_cpu::{Core, MemAccess, MemAccessKind};
use ar_dram::{DramRequest, DramSystem};
use ar_hmc::{HmcCube, VaultRequest};
use ar_network::{DragonflyTopology, MemoryNetwork, MeshNoc};
use ar_sim::{Component, LatencyQueue, NextWake, SchedCtx, TimeSeries, WakeTable};
use ar_types::addr::AddressMap;
use ar_types::config::{MemoryMode, SystemConfig};
use ar_types::error::ConfigError;
use ar_types::hash::FastHashMap;
use ar_types::ids::NetNode;
use ar_types::json::{Json, JsonError};
use ar_types::packet::{Packet, PacketKind};
use ar_types::{Addr, CubeId, Cycle, PortId, WorkItem, WorkStream};
use std::collections::VecDeque;

/// Extra core cycles charged to an atomic read-modify-write for its
/// directory round trip, on top of the normal write path.
const ATOMIC_COHERENCE_PENALTY: u64 = 16;

/// Core-cycle window over which the IPC time series is sampled (Fig. 5.8).
const IPC_WINDOW_CORE_CYCLES: u64 = 2048;

/// Scheduling key of one top-level component of the system.
///
/// The granularity is deliberately coarse (the whole core cluster is one
/// key, a cube with its 32 vaults is one key): a key must be worth the
/// calendar bookkeeping, and the intra-component skipping is handled by the
/// component itself through its own [`Component::next_wake`] logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SysKey {
    /// The core cluster: core pipelines, barrier release, MI drain.
    Cores,
    /// The DDR DRAM backend, including the system-side retry queue.
    Dram,
    /// The memory network.
    Network,
    /// One HMC cube (crossbar + vaults), due when a vault response is due
    /// back at its link side.
    Cube(usize),
    /// One per-cube Active-Routing Engine.
    Engine(usize),
    /// The windowed IPC sampler (keeps the Fig. 5.8 series cycle-exact even
    /// when the kernel skips over the sampling boundary).
    Ipc,
}

/// Why a vault access was issued (used to dispatch its completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VaultPurpose {
    /// A normal cache-block read/write on behalf of a core transaction.
    Normal { txn: u64 },
    /// An operand read issued by a cube's Active-Routing Engine.
    AreRead { cube: usize, access_id: u64 },
    /// A write issued by an ARE (mov / const_assign / nothing to return).
    AreWrite,
}

/// One outstanding core memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemTxn {
    core: usize,
    req_id: u64,
    /// Host port the request was injected at (HMC mode).
    port: PortId,
    /// Core cycles of on-chip return latency to add once the response reaches
    /// the memory controller.
    noc_return: u64,
    is_write: bool,
}

/// The memory substrate behind the caches.
#[derive(Debug)]
enum Backend {
    Dram(Box<DramSystem>),
    Hmc(Box<HmcBackend>),
}

#[derive(Debug)]
struct HmcBackend {
    network: MemoryNetwork,
    cubes: Vec<HmcCube>,
    engines: Vec<ActiveRoutingEngine>,
    controller: Option<HostOffloadController>,
    topology: DragonflyTopology,
}

/// Memory-footprint diagnostics of a finished run
/// ([`System::run_with_footprint`]): the simulator's own in-flight storage,
/// not a property of the simulated machine. Zero on the DRAM backend, which
/// has no packet pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunFootprint {
    /// Peak number of simultaneously pooled in-flight packets.
    pub peak_packets_in_flight: usize,
    /// Slots the packet pool ended the run with (its free list never
    /// shrinks, so this is also the storage high-water mark).
    pub packet_pool_capacity: usize,
}

/// The full-system model.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    label: String,
    workload: String,
    map: AddressMap,
    cores: Vec<Core>,
    caches: CacheHierarchy,
    noc: MeshNoc,
    backend: Backend,
    /// Functional memory contents.
    func_mem: FastHashMap<u64, f64>,
    /// Completions scheduled for core memory requests, in core cycles.
    core_completions: LatencyQueue<(usize, u64)>,
    /// Outstanding core memory transactions by transaction id.
    mem_txns: FastHashMap<u64, MemTxn>,
    /// Purpose of every outstanding vault access, by vault request id.
    vault_purpose: FastHashMap<u64, VaultPurpose>,
    next_txn: u64,
    next_vault_id: u64,
    /// DRAM requests that found a full channel queue and wait to be retried.
    retry_dram: Vec<(Cycle, u64, Addr, bool)>,
    /// Components stimulated during the current step, whose wake-up must be
    /// re-armed in the wake table before the step ends. Deduplicated on push
    /// through `arm_flags` (one slot per [`SysKey`]), so membership checks
    /// and the end-of-step sweep stay O(1) per key.
    armq: Vec<SysKey>,
    /// One dirty flag per `SysKey` slot (see [`System::key_slot`]).
    arm_flags: Vec<bool>,
    /// One flag per `SysKey` slot, written by the wake table at the start of
    /// every event-kernel step: set exactly for the keys due in that step, so
    /// "is this component due?" is one array read. The lock-step kernel never
    /// reads it.
    due_flags: Vec<bool>,
    /// Cores that have fully retired their stream. A core's done flag only
    /// flips during its own wake, so the counter is maintained in the cores
    /// phase and makes the cluster-activity check O(1).
    cores_done: usize,
    /// Cached busy flag per `SysKey` slot (cubes, engines, DRAM). A
    /// component's state only changes in a cycle that stimulates it, so the
    /// end-of-step re-arm sweep keeps these flags (and `busy_count`) exact
    /// while touching only the components that actually did work.
    busy: Vec<bool>,
    /// Number of `true` entries in `busy` — the global outstanding-work
    /// counter behind the O(1) [`System::is_finished`] check.
    busy_count: usize,
    /// Final gathered reduction results.
    gather_results: Vec<(Addr, f64)>,
    /// Windowed IPC samples.
    ipc_series: TimeSeries,
    last_ipc_sample_insns: u64,
    /// Bytes of HMC DRAM traffic (64 B per normal access, 8 B per operand).
    hmc_bytes: u64,
    /// Back-invalidations performed for offloaded updates.
    back_invalidations: u64,
    /// Whether the event-driven kernel may arm bulk compute fast-forward
    /// intervals on the cores (see [`System::with_fast_forward`]). The
    /// lock-step reference ignores the knob — it never fast-forwards.
    fast_forward: bool,
    /// Reusable controller-output buffer of the Message-Interface drain, so
    /// submitting a command allocates nothing (its back-invalidate list
    /// doubles as the batch applied after each cycle's submissions).
    host_scratch: HostOutput,
    /// Reusable `(core, request)` buffer of the cores phase, so the hot
    /// per-core-cycle loop allocates nothing.
    core_requests: Vec<(usize, MemAccess)>,
    /// Dense per-core gate of the event kernel's cluster sub-loop: the
    /// first core cycle at which core `i` needs its next tick. `0` means
    /// every cycle, `u64::MAX` means sleeping (done, or parked until an
    /// external completion resets the slot), and a fast-forwarding core
    /// carries its interval's end. The per-core state lives behind several
    /// pointer chases inside `Core`; this array keeps the skip decision —
    /// made `cores × core-cycles` times per run — on one cache line.
    /// Spurious zeroes are harmless (a woken core re-derives its state);
    /// the invariant is only that no slot overshoots the core's true next
    /// due tick. The lock-step kernel ignores the gate and ticks everything.
    core_wake_at: Vec<Cycle>,
    /// Dense per-core "Message Interface holds commands" flags plus their
    /// population count. Commands only enter an MI during the core's own
    /// wake and only leave in the drain phase, so both sites keep the flags
    /// exact; the drain loop and the cluster wake-up calculation then never
    /// touch an idle core's queue.
    mi_pending: Vec<bool>,
    /// Number of `true` entries in `mi_pending`.
    mi_pending_cores: usize,
    /// Reusable inbox of the HMC delivery sub-phase: the packets delivered
    /// at every cube it handles, cube after cube in ascending order.
    cube_inbox: VecDeque<Packet>,
    /// `(cube, packet count)` of each cube in `cube_inbox`, in the same
    /// order (reused across cycles).
    cube_deliveries: Vec<(usize, usize)>,
    /// Reusable engine-output buffer of the delivery sub-phase, applied and
    /// emptied after each cube's engine tick.
    are_output: AreOutput,
    /// Reusable engine-output merge buffer.
    are_scratch: Vec<(usize, AreOutput)>,
    /// Pool of emptied engine-output accumulators recycled between the
    /// vault-completion merge and the apply step.
    are_spare: Vec<AreOutput>,
    /// Reusable vault-completion merge buffer.
    completion_scratch: Vec<(usize, ar_hmc::VaultResponse)>,
    /// First network cycle the run loop has not yet processed: 0 on a fresh
    /// system, advanced by every [`System::advance`] epilogue, restored by
    /// [`System::load_state`]. The next run (full or prefix) resumes here.
    resume_cycle: Cycle,
    /// The `now` value the run loop last ended on — what a report records as
    /// the runtime if no further cycles are processed. Equal to
    /// `resume_cycle` after a truncation, one less after a completion or an
    /// observer stop (those break *after* processing cycle `now`).
    report_cycle: Cycle,
    /// Whether a previous prefix already drove the system to quiescence;
    /// later runs then return immediately with the recorded boundary.
    prefix_completed: bool,
}

impl System {
    /// Builds a system for `cfg` running the given per-thread work streams
    /// over the given initial memory image.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is inconsistent, when
    /// the number of streams does not match the core count, or when the
    /// streams contain offload instructions but the configured scheme never
    /// offloads.
    pub fn new(
        cfg: SystemConfig,
        streams: Vec<WorkStream>,
        memory: Vec<(Addr, f64)>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if streams.len() != cfg.cores.count {
            return Err(ConfigError::new(format!(
                "expected {} work streams (one per core), got {}",
                cfg.cores.count,
                streams.len()
            )));
        }
        let offloads_in_streams = streams.iter().any(|s| s.iter().any(WorkItem::is_offload));
        if offloads_in_streams && !cfg.scheme.offloads() {
            return Err(ConfigError::new(
                "work streams contain Update/Gather items but the scheme never offloads",
            ));
        }

        let map = cfg.address_map();
        let cores: Vec<Core> = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| Core::new(ar_types::CoreId::new(i), &cfg.cores, s))
            .collect();
        let caches = CacheHierarchy::new(cfg.cores.count, &cfg.caches);
        let noc =
            MeshNoc::new(cfg.noc.mesh_width, cfg.noc.hop_latency, cfg.noc.link_bytes_per_cycle);

        let backend = match cfg.memory_mode {
            MemoryMode::DdrBaseline => Backend::Dram(Box::new(DramSystem::new(&cfg.dram))),
            MemoryMode::HmcNetwork => {
                let topology = DragonflyTopology::new(
                    cfg.network.cubes,
                    cfg.network.groups,
                    cfg.network.host_ports,
                );
                let network = MemoryNetwork::new(
                    topology.clone(),
                    cfg.network.hop_latency,
                    cfg.network.link_bytes_per_cycle,
                );
                let cubes = (0..cfg.network.cubes)
                    .map(|c| HmcCube::new(CubeId::new(c), &cfg.hmc, cfg.network.cubes))
                    .collect();
                let engines = (0..cfg.network.cubes)
                    .map(|c| {
                        ActiveRoutingEngine::new(CubeId::new(c), &cfg.are, topology.clone(), map)
                    })
                    .collect();
                let controller = cfg
                    .scheme
                    .offloads()
                    .then(|| HostOffloadController::new(cfg.scheme, topology.clone(), map));
                Backend::Hmc(Box::new(HmcBackend { network, cubes, engines, controller, topology }))
            }
        };

        let func_mem = memory.into_iter().map(|(a, v)| (a.as_u64(), v)).collect();
        let cores_done = cores.iter().filter(|c| c.is_done()).count();
        let core_wake_at = cores.iter().map(|c| if c.is_done() { u64::MAX } else { 0 }).collect();
        let mi_pending = vec![false; cores.len()];
        // One slot per possible SysKey, sized from the cube count of the
        // *constructed* backend rather than from layout assumptions about the
        // config: the DRAM baseline instantiates no cubes (its network config
        // is never validated against the slot layout), so sizing from
        // `cfg.network.cubes` would alias or overrun if the two disagreed.
        let cube_count = Self::backend_cube_count(&backend);
        let slot_count = 4 + 2 * cube_count;
        Ok(System {
            cores_done,
            busy: vec![false; slot_count],
            busy_count: 0,
            cube_inbox: VecDeque::new(),
            cube_deliveries: Vec::new(),
            are_output: AreOutput::default(),
            are_scratch: Vec::new(),
            are_spare: Vec::new(),
            completion_scratch: Vec::new(),
            label: String::new(),
            workload: String::new(),
            map,
            cores,
            caches,
            noc,
            backend,
            func_mem,
            core_completions: LatencyQueue::new(),
            mem_txns: FastHashMap::default(),
            vault_purpose: FastHashMap::default(),
            next_txn: 0,
            next_vault_id: 0,
            retry_dram: Vec::new(),
            armq: Vec::new(),
            arm_flags: vec![false; slot_count],
            due_flags: vec![false; slot_count],
            gather_results: Vec::new(),
            // Sized for the worst-case sample count up front, so the
            // sampler never reallocates mid-run (the zero-alloc steady-state
            // gate measures this); the spare capacity is dropped again when
            // the report is built.
            ipc_series: TimeSeries::with_capacity(
                (cfg.max_cycles / IPC_WINDOW_CORE_CYCLES)
                    .saturating_mul(cfg.core_cycles_per_network_cycle())
                    .min(1 << 20) as usize
                    + 2,
            ),
            last_ipc_sample_insns: 0,
            hmc_bytes: 0,
            back_invalidations: 0,
            fast_forward: true,
            host_scratch: HostOutput::default(),
            core_requests: Vec::new(),
            core_wake_at,
            mi_pending,
            mi_pending_cores: 0,
            resume_cycle: 0,
            report_cycle: 0,
            prefix_completed: false,
            cfg,
        })
    }

    /// Number of cubes the backend actually instantiated (0 for the DRAM
    /// baseline) — the source of truth for the slot tables.
    fn backend_cube_count(backend: &Backend) -> usize {
        match backend {
            Backend::Dram(_) => 0,
            Backend::Hmc(hmc) => hmc.cubes.len(),
        }
    }

    /// Enables or disables bulk compute fast-forwarding in the event-driven
    /// kernel (default: enabled).
    ///
    /// When enabled, a core whose ROB holds only retirable slots and whose
    /// stream head is a compute run computes the run's retire/issue schedule
    /// in closed form (`ar_cpu::Core::try_fast_forward`) and sleeps until
    /// the interval's end instead of being ticked every core cycle; the
    /// end-of-stream ROB drain is covered the same way. IPC samples,
    /// observer stops and the cycle limit landing inside an interval split
    /// it (`Core::settle_compute_to`), so the [`SimReport`] is byte-identical
    /// either way — the knob only decides wall-clock placement of the work,
    /// which is what lets the equivalence suite carry an on/off axis and the
    /// bench regression gate compare the two. [`System::run_lockstep`]
    /// ignores the knob: the per-cycle reference is the oracle the analytic
    /// schedule is validated against.
    #[must_use]
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Sets the labels recorded in the report.
    pub fn with_labels(mut self, workload: impl Into<String>, config: impl Into<String>) -> Self {
        self.workload = workload.into();
        self.label = config.into();
        self
    }

    /// Reads the functional memory (mainly for tests).
    pub fn read_memory(&self, addr: Addr) -> f64 {
        self.func_mem.get(&addr.as_u64()).copied().unwrap_or(0.0)
    }

    /// Runs the simulation to completion (or to the configured cycle limit)
    /// with the event-driven kernel and returns the report.
    ///
    /// Components are only woken at cycles where they have due work, and
    /// cycles in which no component is due are skipped entirely. The
    /// resulting [`SimReport`] is cycle-identical to
    /// [`System::run_lockstep`].
    pub fn run(self) -> SimReport {
        self.run_with(false, &mut [])
    }

    /// Runs the event-driven kernel and also returns the run's
    /// [`RunFootprint`] — the simulator's own peak in-flight storage.
    ///
    /// The extra value is diagnostic only and never appears in the
    /// [`SimReport`]: reports are pinned byte-identical across kernels and
    /// golden snapshots, while the footprint describes the simulator process,
    /// not the simulated machine.
    pub fn run_with_footprint(self) -> (SimReport, RunFootprint) {
        self.run_with_diagnostics(false, &mut [])
    }

    /// Runs the simulation with the lock-step reference kernel: every cycle
    /// is processed and every component is woken on each of them, exactly
    /// like the original cycle-driven simulator.
    ///
    /// This exists to validate the event-driven kernel (the equivalence
    /// tests assert identical reports from both drivers) and to benchmark
    /// against it; simulations should use [`System::run`].
    pub fn run_lockstep(self) -> SimReport {
        self.run_with(true, &mut [])
    }

    /// Runs the event-driven kernel with the given streaming observers
    /// attached (see [`crate::Observer`]). Observation never changes the
    /// simulated behaviour; an observer can only cut the run short.
    pub fn run_observed(self, observers: &mut [Box<dyn Observer>]) -> SimReport {
        self.run_with(false, observers)
    }

    /// Runs the lock-step reference kernel with observers attached. The
    /// event stream is identical to [`System::run_observed`] (events are tied
    /// to simulated cycles, not to kernel scheduling).
    pub fn run_lockstep_observed(self, observers: &mut [Box<dyn Observer>]) -> SimReport {
        self.run_with(true, observers)
    }

    fn run_with(self, lockstep: bool, observers: &mut [Box<dyn Observer>]) -> SimReport {
        self.run_with_diagnostics(lockstep, observers).0
    }

    fn run_with_diagnostics(
        mut self,
        lockstep: bool,
        observers: &mut [Box<dyn Observer>],
    ) -> (SimReport, RunFootprint) {
        let max_cycles = if self.cfg.max_cycles == 0 { u64::MAX } else { self.cfg.max_cycles };
        let mut hub = ObserverHub::new(observers);
        hub.start(&RunInfo { workload: &self.workload, config_label: &self.label, cfg: &self.cfg });
        let (now, completed) = self.advance(max_cycles, lockstep, &mut hub);
        let footprint = match &self.backend {
            Backend::Hmc(hmc) => RunFootprint {
                peak_packets_in_flight: hmc.network.peak_in_flight(),
                packet_pool_capacity: hmc.network.pool_capacity(),
            },
            Backend::Dram(_) => RunFootprint::default(),
        };
        let report = self.into_report(now, completed);
        hub.finish(&report);
        (report, footprint)
    }

    /// Runs the kernel loop from [`System::resume_cycle`] up to `max_cycles`
    /// and returns the `(now, completed)` pair the epilogue reports from:
    /// the cycle the loop ended on and whether the system quiesced.
    /// `max_cycles` is the caller's horizon — the configured cycle limit for
    /// a full run, the prefix stop for [`System::run_prefix`]; nothing inside
    /// the loop reads `cfg.max_cycles`, so both stop the same way.
    ///
    /// The loop is resumable: each call rebuilds the wake calendar from the
    /// components' own `next_wake` probes (plus a conservative wake of every
    /// memory-side component when resuming past cycle 0 — a spurious wake is
    /// a no-op under the component contract), runs, and records the boundary
    /// in `resume_cycle`/`report_cycle`/`prefix_completed` so a later call —
    /// on this instance or on one restored from its snapshot — continues
    /// exactly where this one stopped. All cores are left fully settled at
    /// the boundary, which is what [`Core::state_to_json`] requires.
    fn advance(
        &mut self,
        max_cycles: Cycle,
        lockstep: bool,
        hub: &mut ObserverHub<'_>,
    ) -> (Cycle, bool) {
        if self.prefix_completed || self.resume_cycle >= max_cycles {
            // A previous prefix already covered this horizon (or quiesced
            // outright): the loop has nothing to do, and the report boundary
            // is wherever that run ended, capped at the caller's horizon
            // (a truncated run reports `now == max_cycles`).
            return (self.report_cycle.min(max_cycles), self.prefix_completed);
        }
        let start = self.resume_cycle;
        let mut wakes = WakeTable::new(self.due_flags.len());
        wakes.wake(Self::key_slot(SysKey::Cores));
        // `next_ipc_boundary` of the cycle *before* the resume point: for a
        // fresh run this is `next_ipc_boundary(0)` exactly as before, and on
        // a resume it also catches a sample boundary landing on the resume
        // cycle itself (the prefix run never processed that cycle).
        wakes
            .schedule(Self::key_slot(SysKey::Ipc), self.next_ipc_boundary(start.saturating_sub(1)));
        if start > 0 {
            // A rebuilt calendar has forgotten every in-flight wake-up, so
            // wake each memory-side component once at the resume cycle; each
            // re-arms itself from its own state, and a component with nothing
            // due treats the wake as a no-op.
            match &self.backend {
                Backend::Dram(_) => wakes.wake(Self::key_slot(SysKey::Dram)),
                Backend::Hmc(hmc) => {
                    wakes.wake(Self::key_slot(SysKey::Network));
                    for c in 0..hmc.cubes.len() {
                        wakes.wake(Self::key_slot(SysKey::Cube(c)));
                        wakes.wake(Self::key_slot(SysKey::Engine(c)));
                    }
                }
            }
        }
        let mut now: Cycle = start;
        let mut completed = false;
        // First network cycle the kernel did *not* process: cores still
        // parked when the run ends settle their open stall intervals up to
        // this boundary. Breaking out after `step(now)` means cycle `now`
        // was fully processed (the lock-step reference ticked parked cores
        // through it), so the boundary is `now + 1` there; running the loop
        // to exhaustion leaves `now == max_cycles` unprocessed.
        let mut first_unprocessed = max_cycles;
        while now < max_cycles {
            if !lockstep {
                wakes.pop_due_into(now, &mut self.due_flags);
            }
            self.step(now, !lockstep, &mut wakes, hub);
            if self.is_finished() {
                completed = true;
                first_unprocessed = now + 1;
                break;
            }
            if hub.stopped() {
                first_unprocessed = now + 1;
                break;
            }
            now = if lockstep {
                now + 1
            } else {
                match wakes.next_cycle() {
                    Some(at) => at.clamp(now + 1, max_cycles),
                    // Nothing scheduled and not finished: no state can change
                    // any more, so idle out to the cycle limit exactly like
                    // the lock-step loop would.
                    None => max_cycles,
                }
            };
        }
        // Saturating: with no cycle limit (`max_cycles == 0` ⇒ u64::MAX) an
        // idled-out run would otherwise overflow the core-cycle conversion.
        // `settle_for_snapshot` also drops a compute interval split by the
        // boundary after applying its elapsed prefix — report-neutral, and
        // it leaves the cores in the fully settled state a snapshot needs.
        let ratio = self.cfg.core_cycles_per_network_cycle();
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.settle_for_snapshot(first_unprocessed.saturating_mul(ratio));
            // Settling consumed any parked interval, so the stale wake gate
            // must not keep skipping the core — a resumed run has to tick it
            // until it re-parks, exactly like a run restored from the
            // serialized snapshot (load_state rebuilds the same gates).
            self.core_wake_at[i] = if core.is_done() { u64::MAX } else { 0 };
        }
        self.resume_cycle = first_unprocessed;
        self.report_cycle = now;
        self.prefix_completed = completed;
        (now, completed)
    }

    /// Runs the event-driven (or lock-step) kernel up to — but not past —
    /// network cycle `until`, leaving the system in a resumable, snapshot-
    /// ready state. Returns `true` when the system quiesced within the
    /// prefix.
    ///
    /// The prefix boundary is enforced exactly like a configured cycle
    /// limit: the cores settle every lazy interval at it, so a later
    /// [`System::run`] (or another prefix) continues byte-identically to a
    /// single uninterrupted run. A `until` at or past the configured
    /// `max_cycles` simply runs to that limit.
    pub fn run_prefix(&mut self, until: Cycle, lockstep: bool) -> bool {
        let limit = if self.cfg.max_cycles == 0 { u64::MAX } else { self.cfg.max_cycles };
        let mut hub = ObserverHub::new(&mut []);
        let (_, completed) = self.advance(until.min(limit), lockstep, &mut hub);
        completed
    }

    /// The configuration the system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The generated-workload name recorded via [`System::with_labels`].
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// First network cycle the run loop has not yet processed — `0` on a
    /// fresh system, the prefix boundary after [`System::run_prefix`].
    pub fn resume_cycle(&self) -> Cycle {
        self.resume_cycle
    }

    /// Whether a previous (prefix) run already drove the system to
    /// quiescence.
    pub fn prefix_completed(&self) -> bool {
        self.prefix_completed
    }

    /// Total instructions retired so far across all cores. The sampling
    /// harness reads this between prefix runs to form per-window IPC.
    pub fn instructions_retired(&self) -> u64 {
        self.cores.iter().map(Core::instructions_retired).sum()
    }

    /// Encodes the system's complete dynamic state for a checkpoint.
    ///
    /// Only *dynamic* state travels: the configuration, labels, workload
    /// streams and every piece of derived bookkeeping (address map, busy
    /// counters, wake gates, scratch buffers) are reconstructed from code by
    /// [`System::load_state`]. Snapshots are taken at a settled run boundary
    /// — after [`System::run_prefix`] or a finished run — where every core is
    /// settled.
    ///
    /// Identifiers carrying tag bits (request/transaction/vault ids,
    /// addresses) travel as hex bit patterns, functional-memory values and
    /// IPC samples as bit-exact hex floats, and plain counters as JSON
    /// numbers.
    ///
    /// # Panics
    ///
    /// Panics if called away from a run boundary (an unsettled core), which
    /// would make the snapshot lossy.
    pub fn state_to_json(&self) -> Json {
        let mut func_mem: Vec<(u64, f64)> =
            self.func_mem.iter().map(|(addr, value)| (*addr, *value)).collect();
        func_mem.sort_by_key(|(addr, _)| *addr);
        let mut mem_txns: Vec<(u64, MemTxn)> =
            self.mem_txns.iter().map(|(txn, m)| (*txn, *m)).collect();
        mem_txns.sort_by_key(|(txn, _)| *txn);
        let mut vault_purpose: Vec<(u64, VaultPurpose)> =
            self.vault_purpose.iter().map(|(id, p)| (*id, *p)).collect();
        vault_purpose.sort_by_key(|(id, _)| *id);
        let backend = match &self.backend {
            Backend::Dram(dram) => {
                Json::obj([("t", Json::from("dram")), ("dram", dram.state_to_json())])
            }
            Backend::Hmc(hmc) => Json::obj([
                ("t", Json::from("hmc")),
                ("network", hmc.network.state_to_json()),
                ("cubes", Json::arr(hmc.cubes.iter().map(HmcCube::state_to_json))),
                ("engines", Json::arr(hmc.engines.iter().map(ActiveRoutingEngine::state_to_json))),
                (
                    "controller",
                    hmc.controller
                        .as_ref()
                        .map_or(Json::Null, HostOffloadController::state_to_json),
                ),
            ]),
        };
        Json::obj([
            ("cores", Json::arr(self.cores.iter().map(Core::state_to_json))),
            ("caches", self.caches.state_to_json()),
            ("noc", self.noc.state_to_json()),
            ("backend", backend),
            (
                "func_mem",
                Json::arr(func_mem.into_iter().map(|(addr, value)| {
                    Json::obj([("addr", Json::hex_u64(addr)), ("value", Json::hex_f64(value))])
                })),
            ),
            (
                "core_completions",
                Json::arr(self.core_completions.state_entries().into_iter().map(
                    |(at, (core, req_id))| {
                        Json::obj([
                            ("at", Json::from(at)),
                            ("core", Json::from(*core)),
                            ("req_id", Json::hex_u64(*req_id)),
                        ])
                    },
                )),
            ),
            (
                "mem_txns",
                Json::arr(mem_txns.into_iter().map(|(txn, m)| {
                    Json::obj([
                        ("txn", Json::hex_u64(txn)),
                        // The store-buffer write-back sentinel (`usize::MAX`)
                        // must survive the trip, so the core index travels as
                        // a hex bit pattern.
                        ("core", Json::hex_u64(m.core as u64)),
                        ("req_id", Json::hex_u64(m.req_id)),
                        ("port", Json::from(m.port.index())),
                        ("noc_return", Json::from(m.noc_return)),
                        ("is_write", Json::from(m.is_write)),
                    ])
                })),
            ),
            (
                "vault_purpose",
                Json::arr(vault_purpose.into_iter().map(|(id, purpose)| {
                    let tagged = match purpose {
                        VaultPurpose::Normal { txn } => {
                            Json::obj([("t", Json::from("normal")), ("txn", Json::hex_u64(txn))])
                        }
                        VaultPurpose::AreRead { cube, access_id } => Json::obj([
                            ("t", Json::from("are_read")),
                            ("cube", Json::from(cube)),
                            ("access_id", Json::hex_u64(access_id)),
                        ]),
                        VaultPurpose::AreWrite => Json::obj([("t", Json::from("are_write"))]),
                    };
                    Json::obj([("id", Json::hex_u64(id)), ("purpose", tagged)])
                })),
            ),
            ("next_txn", Json::from(self.next_txn)),
            ("next_vault_id", Json::from(self.next_vault_id)),
            (
                "retry_dram",
                Json::arr(self.retry_dram.iter().map(|(at, id, addr, is_write)| {
                    Json::obj([
                        ("at", Json::from(*at)),
                        ("id", Json::hex_u64(*id)),
                        ("addr", Json::hex_u64(addr.as_u64())),
                        ("is_write", Json::from(*is_write)),
                    ])
                })),
            ),
            (
                "gather_results",
                Json::arr(self.gather_results.iter().map(|(addr, value)| {
                    Json::obj([
                        ("addr", Json::hex_u64(addr.as_u64())),
                        ("value", Json::hex_f64(*value)),
                    ])
                })),
            ),
            (
                "ipc_series",
                Json::arr(
                    self.ipc_series
                        .points()
                        .iter()
                        .map(|(x, y)| Json::arr([Json::hex_f64(*x), Json::hex_f64(*y)])),
                ),
            ),
            ("last_ipc_sample_insns", Json::from(self.last_ipc_sample_insns)),
            ("hmc_bytes", Json::from(self.hmc_bytes)),
            ("back_invalidations", Json::from(self.back_invalidations)),
            ("resume_cycle", Json::from(self.resume_cycle)),
            ("report_cycle", Json::from(self.report_cycle)),
            ("completed", Json::from(self.prefix_completed)),
        ])
    }

    /// Restores the dynamic state captured by [`System::state_to_json`] onto
    /// a freshly constructed system (same configuration, workload streams
    /// regenerated from the same deterministic generator).
    ///
    /// Derived bookkeeping — done/parked core gates, Message-Interface
    /// flags, the per-component busy table behind the O(1) quiescence check —
    /// is recomputed from the restored components rather than trusted from
    /// the document, and structural disagreements (wrong core/cube counts,
    /// out-of-range indices) are rejected rather than silently accepted.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed, references
    /// components this configuration does not have, or disagrees with the
    /// regenerated workload streams.
    pub fn load_state(&mut self, doc: &Json) -> Result<(), JsonError> {
        // The resume cycle is parsed first: cube restores check that no
        // pending vault response was due before it.
        let resume_cycle = doc.req_u64("resume_cycle")?;
        let report_cycle = doc.req_u64("report_cycle")?;
        let completed = doc.req_bool("completed")?;

        let cores = doc.req_array("cores")?;
        if cores.len() != self.cores.len() {
            return Err(JsonError::state(format!(
                "checkpoint has {} cores but the system is configured with {}",
                cores.len(),
                self.cores.len()
            )));
        }
        for (core, state) in self.cores.iter_mut().zip(cores) {
            core.load_state(state)?;
        }
        self.caches.load_state(doc.req("caches")?)?;
        self.noc.load_state(doc.req("noc")?)?;

        let backend_doc = doc.req("backend")?;
        match &mut self.backend {
            Backend::Dram(dram) => {
                if backend_doc.req_str("t")? != "dram" {
                    return Err(JsonError::state(
                        "checkpoint backend is not the configured DRAM baseline",
                    ));
                }
                dram.load_state(backend_doc.req("dram")?)?;
            }
            Backend::Hmc(hmc) => {
                if backend_doc.req_str("t")? != "hmc" {
                    return Err(JsonError::state(
                        "checkpoint backend is not the configured HMC network",
                    ));
                }
                hmc.network.load_state(backend_doc.req("network")?)?;
                let cubes = backend_doc.req_array("cubes")?;
                let engines = backend_doc.req_array("engines")?;
                if cubes.len() != hmc.cubes.len() || engines.len() != hmc.engines.len() {
                    return Err(JsonError::state(format!(
                        "checkpoint has {} cubes / {} engines but the system is configured \
                         with {}",
                        cubes.len(),
                        engines.len(),
                        hmc.cubes.len()
                    )));
                }
                for (cube, state) in hmc.cubes.iter_mut().zip(cubes) {
                    cube.load_state(resume_cycle, state)?;
                }
                for (engine, state) in hmc.engines.iter_mut().zip(engines) {
                    engine.load_state(state)?;
                }
                let controller_doc = backend_doc.req("controller")?;
                match &mut hmc.controller {
                    Some(controller) => {
                        if matches!(controller_doc, Json::Null) {
                            return Err(JsonError::state(
                                "checkpoint lacks host-controller state but the scheme offloads",
                            ));
                        }
                        controller.load_state(controller_doc)?;
                    }
                    None => {
                        if !matches!(controller_doc, Json::Null) {
                            return Err(JsonError::state(
                                "checkpoint has host-controller state but the scheme never \
                                 offloads",
                            ));
                        }
                    }
                }
            }
        }

        self.func_mem.clear();
        for entry in doc.req_array("func_mem")? {
            let addr = entry.req_hex_u64("addr")?;
            let value = entry.req_hex_f64("value")?;
            if self.func_mem.insert(addr, value).is_some() {
                return Err(JsonError::state("duplicate functional-memory address"));
            }
        }

        self.core_completions = LatencyQueue::new();
        for entry in doc.req_array("core_completions")? {
            let at = entry.req_u64("at")?;
            let core = entry.req_usize("core")?;
            if core >= self.cores.len() {
                return Err(JsonError::state("core completion for an out-of-range core"));
            }
            self.core_completions.push_at(at, (core, entry.req_hex_u64("req_id")?));
        }

        // Responses travel back through the transaction's port: a host port
        // of the memory network, or a memory controller of the DRAM baseline.
        let port_count = match &self.backend {
            Backend::Dram(_) => self.cfg.noc.memory_controllers,
            Backend::Hmc(_) => self.cfg.network.host_ports,
        };
        self.mem_txns.clear();
        for entry in doc.req_array("mem_txns")? {
            let txn = entry.req_hex_u64("txn")?;
            let core = entry.req_hex_u64("core")? as usize;
            if core != usize::MAX && core >= self.cores.len() {
                return Err(JsonError::state("memory transaction for an out-of-range core"));
            }
            let port = entry.req_usize("port")?;
            if port >= port_count {
                return Err(JsonError::state(format!(
                    "memory transaction on port {port}, but the system has {port_count} ports"
                )));
            }
            let m = MemTxn {
                core,
                req_id: entry.req_hex_u64("req_id")?,
                port: PortId::new(port),
                noc_return: entry.req_u64("noc_return")?,
                is_write: entry.req_bool("is_write")?,
            };
            if self.mem_txns.insert(txn, m).is_some() {
                return Err(JsonError::state("duplicate memory-transaction id"));
            }
        }

        let cube_count = Self::backend_cube_count(&self.backend);
        self.vault_purpose.clear();
        for entry in doc.req_array("vault_purpose")? {
            let id = entry.req_hex_u64("id")?;
            let tagged = entry.req("purpose")?;
            let purpose = match tagged.req_str("t")? {
                "normal" => VaultPurpose::Normal { txn: tagged.req_hex_u64("txn")? },
                "are_read" => {
                    let cube = tagged.req_usize("cube")?;
                    if cube >= cube_count {
                        return Err(JsonError::state("operand read for an out-of-range cube"));
                    }
                    VaultPurpose::AreRead { cube, access_id: tagged.req_hex_u64("access_id")? }
                }
                "are_write" => VaultPurpose::AreWrite,
                other => {
                    return Err(JsonError::state(format!("unknown vault purpose {other:?}")));
                }
            };
            if self.vault_purpose.insert(id, purpose).is_some() {
                return Err(JsonError::state("duplicate vault-access id"));
            }
        }

        self.next_txn = doc.req_u64("next_txn")?;
        self.next_vault_id = doc.req_u64("next_vault_id")?;

        self.retry_dram.clear();
        for entry in doc.req_array("retry_dram")? {
            self.retry_dram.push((
                entry.req_u64("at")?,
                entry.req_hex_u64("id")?,
                Addr::new(entry.req_hex_u64("addr")?),
                entry.req_bool("is_write")?,
            ));
        }

        self.gather_results.clear();
        for entry in doc.req_array("gather_results")? {
            self.gather_results
                .push((Addr::new(entry.req_hex_u64("addr")?), entry.req_hex_f64("value")?));
        }

        debug_assert!(self.ipc_series.points().is_empty(), "restore onto a fresh system");
        for point in doc.req_array("ipc_series")? {
            let pair = point
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| JsonError::state("IPC sample is not an [x, y] pair"))?;
            let x = pair[0]
                .as_hex_f64()
                .ok_or_else(|| JsonError::state("IPC sample x is not a hex float"))?;
            let y = pair[1]
                .as_hex_f64()
                .ok_or_else(|| JsonError::state("IPC sample y is not a hex float"))?;
            self.ipc_series.push(x, y);
        }
        self.last_ipc_sample_insns = doc.req_u64("last_ipc_sample_insns")?;
        self.hmc_bytes = doc.req_u64("hmc_bytes")?;
        self.back_invalidations = doc.req_u64("back_invalidations")?;
        self.resume_cycle = resume_cycle;
        self.report_cycle = report_cycle;
        self.prefix_completed = completed;

        // ------------------------------------------------------------------
        // Derived state: recomputed, never trusted from the document.
        // ------------------------------------------------------------------
        self.armq.clear();
        self.arm_flags.fill(false);
        self.cores_done = self.cores.iter().filter(|c| c.is_done()).count();
        self.mi_pending_cores = 0;
        for (i, core) in self.cores.iter().enumerate() {
            // A restored core is never parked or fast-forwarding (the lazy
            // intervals were settled at the snapshot boundary): done cores
            // sleep, everything else is re-examined at the resume cycle.
            self.core_wake_at[i] = if core.is_done() { u64::MAX } else { 0 };
            let mi_now = !core.mi().is_empty();
            self.mi_pending[i] = mi_now;
            self.mi_pending_cores += usize::from(mi_now);
        }
        let busy_keys: Vec<SysKey> = match &self.backend {
            Backend::Dram(_) => vec![SysKey::Dram],
            Backend::Hmc(hmc) => {
                (0..hmc.cubes.len()).flat_map(|c| [SysKey::Cube(c), SysKey::Engine(c)]).collect()
            }
        };
        self.busy.fill(false);
        self.busy_count = 0;
        for key in busy_keys {
            let busy = self.component_busy(key);
            self.busy[Self::key_slot(key)] = busy;
            self.busy_count += usize::from(busy);
        }
        Ok(())
    }

    /// Processes one memory-network cycle.
    ///
    /// In the event kernel (`event`), `due_flags` marks the components whose
    /// wake-ups the table popped for `now`; the lock-step driver treats every
    /// component as due. The phase order within a cycle is fixed — cores,
    /// barriers, Message Interfaces, memory backend, IPC sampling — and
    /// matches the original lock-step simulator; gating a phase on its key
    /// only skips work that would have been a no-op. Every due key that
    /// still has work is re-armed from its fresh `next_wake` before the step
    /// ends, which is what lets the wake table keep one request per key.
    fn step(&mut self, now: Cycle, event: bool, wakes: &mut WakeTable, hub: &mut ObserverHub<'_>) {
        debug_assert!(self.armq.is_empty());
        let due_flags = std::mem::take(&mut self.due_flags);
        let flags = event.then_some(&due_flags[..]);
        let is_due = |key: SysKey| flags.is_none_or(|flags| flags[Self::key_slot(key)]);
        let ratio = self.cfg.core_cycles_per_network_cycle();

        // ------------------------------------------------------------------
        // Core cluster: pipelines, barrier release, Message Interfaces.
        // ------------------------------------------------------------------
        if is_due(SysKey::Cores) && self.cores_active() {
            // The event-driven kernel also skips *parked* cores (blocked on a
            // memory response, gather result or barrier; see
            // `Core::is_parked`) and cores inside a fast-forwarded compute
            // interval (`Core::is_fast_forwarding`): their skipped cycles are
            // settled in one shot by the tick that follows the unblocking
            // event or the interval's end. The lock-step reference keeps
            // ticking every core per cycle — and never arms an interval — so
            // it stays the per-cycle oracle the settle arithmetic must match.
            self.step_cores(now, ratio, event, wakes, hub);
        }

        // ------------------------------------------------------------------
        // Memory side.
        // ------------------------------------------------------------------
        // A component stimulated by an earlier phase of this same cycle (e.g.
        // a DRAM request issued by the cores phase) must be processed by its
        // own phase *this* cycle, exactly as the lock-step order does — the
        // armq doubles as that same-cycle stimulus record.
        match self.backend {
            Backend::Dram(_) => {
                let dram_due = is_due(SysKey::Dram) || self.stimulated(SysKey::Dram);
                self.step_dram(now, dram_due);
            }
            Backend::Hmc(_) => self.step_hmc(now, flags, hub),
        }

        // ------------------------------------------------------------------
        // Bookkeeping.
        // ------------------------------------------------------------------
        self.sample_ipc(now, ratio, hub);
        if is_due(SysKey::Ipc) {
            wakes.schedule(Self::key_slot(SysKey::Ipc), self.next_ipc_boundary(now));
        }

        // Re-arm every component woken or stimulated during this cycle
        // (`armq` is already deduplicated by the push-side flags), and
        // refresh its cached busy flag: a component's state only changes in
        // a cycle that touches it, so this sweep keeps the outstanding-work
        // counter behind `is_finished` exact.
        let mut touched = std::mem::take(&mut self.armq);
        for &key in &touched {
            let slot = Self::key_slot(key);
            self.arm_flags[slot] = false;
            let busy = self.component_busy(key);
            if busy != self.busy[slot] {
                self.busy[slot] = busy;
                if busy {
                    self.busy_count += 1;
                } else {
                    self.busy_count -= 1;
                }
            }
            wakes.schedule_next(slot, self.next_wake_of(now, key));
        }
        touched.clear();
        self.armq = touched;
        self.due_flags = due_flags;
    }

    /// The cores phase of one network cycle: the per-core-cycle sub-loop
    /// (completion delivery, pipeline wakes, memory issue), barrier release
    /// and the Message-Interface drain, then the cluster's next wake-up.
    fn step_cores(
        &mut self,
        now: Cycle,
        ratio: u64,
        event_kernel: bool,
        wakes: &mut WakeTable,
        hub: &mut ObserverHub<'_>,
    ) {
        let mut ctx = SchedCtx::new(now);
        for sub in 0..ratio {
            let core_cycle = now * ratio + sub;
            // Deliver finished memory requests first so dependent work
            // can issue in the same cycle.
            while let Some((core, req_id)) = self.core_completions.pop_ready(core_cycle) {
                self.cores[core].complete_mem(req_id, core_cycle);
                // The completion may unpark the core: re-open its gate
                // (spuriously waking a still-blocked core is harmless).
                self.core_wake_at[core] = 0;
            }
            let mut requests = std::mem::take(&mut self.core_requests);
            let mut newly_done = 0;
            for (i, core) in self.cores.iter_mut().enumerate() {
                if event_kernel {
                    // The dense gate folds done, parked and
                    // fast-forwarding into one contiguous load.
                    if self.core_wake_at[i] > core_cycle {
                        continue;
                    }
                    // An unpark site may spuriously re-open the gate of
                    // an already-done core (e.g. a fire-and-forget
                    // gather result arriving after its issuer retired
                    // everything): restore the gate without re-counting
                    // the core's done transition.
                    if core.is_done() {
                        self.core_wake_at[i] = u64::MAX;
                        continue;
                    }
                } else if core.is_done() {
                    continue;
                }
                core.wake(core_cycle, &mut ctx);
                requests.extend(core.drain_requests().map(|req| (i, req)));
                // Offload commands only enter the MI during the wake:
                // refresh the drain phase's dense flag.
                let mi_now = !core.mi().is_empty();
                if mi_now != self.mi_pending[i] {
                    self.mi_pending[i] = mi_now;
                    if mi_now {
                        self.mi_pending_cores += 1;
                    } else {
                        self.mi_pending_cores -= 1;
                    }
                }
                // A core only transitions to done while it retires, i.e.
                // during its own wake — count the transition here, and
                // refresh the gate from the wake's outcome.
                if core.is_done() {
                    newly_done += 1;
                    self.core_wake_at[i] = u64::MAX;
                } else if core.is_parked() {
                    self.core_wake_at[i] = u64::MAX;
                } else if event_kernel && self.fast_forward && core.try_fast_forward(core_cycle + 1)
                {
                    self.core_wake_at[i] = core.fast_forward_until().expect("interval just armed");
                } else {
                    self.core_wake_at[i] = 0;
                }
            }
            self.cores_done += newly_done;
            for (core, req) in requests.drain(..) {
                self.handle_core_memory_request(core_cycle, core, req);
            }
            self.core_requests = requests;
        }
        self.release_barriers(now * ratio, hub);
        self.drain_message_interfaces(now);
        // Re-arm lazily: every network cycle while some core still ticks
        // (or has Message-Interface commands to drain), otherwise only at
        // the next pending completion delivery. A fully parked cluster
        // sleeps until the memory side stimulates it.
        wakes.schedule_next(Self::key_slot(SysKey::Cores), self.cores_next_wake(now));
    }

    /// Whether a memory-side component currently holds in-flight work.
    /// Core-side keys always report idle here; the cluster is tracked by
    /// `cores_done` and `core_completions` instead.
    fn component_busy(&self, key: SysKey) -> bool {
        match (key, &self.backend) {
            (SysKey::Dram, Backend::Dram(dram)) => !dram.is_idle(),
            (SysKey::Cube(c), Backend::Hmc(hmc)) => !hmc.cubes[c].is_idle(),
            (SysKey::Engine(c), Backend::Hmc(hmc)) => !hmc.engines[c].is_idle(),
            _ => false,
        }
    }

    /// Dense index of a scheduling key into `arm_flags`, `due_flags` and
    /// `busy`.
    fn key_slot(key: SysKey) -> usize {
        match key {
            SysKey::Cores => 0,
            SysKey::Dram => 1,
            SysKey::Network => 2,
            SysKey::Ipc => 3,
            SysKey::Cube(c) => 4 + 2 * c,
            SysKey::Engine(c) => 5 + 2 * c,
        }
    }

    /// Records that `key` was stimulated this cycle (deduplicated). A free
    /// function over the two fields so call sites holding a borrow of
    /// `self.backend` can still record stimuli.
    fn stimulate(armq: &mut Vec<SysKey>, arm_flags: &mut [bool], key: SysKey) {
        let slot = Self::key_slot(key);
        debug_assert!(
            slot < arm_flags.len(),
            "stimulated {key:?} (slot {slot}) outside the {}-slot table — slot table out of \
             sync with the backend's cube count",
            arm_flags.len()
        );
        if !arm_flags[slot] {
            arm_flags[slot] = true;
            armq.push(key);
        }
    }

    /// Returns true if `key` was stimulated earlier in the current step.
    fn stimulated(&self, key: SysKey) -> bool {
        let slot = Self::key_slot(key);
        debug_assert!(
            slot < self.arm_flags.len(),
            "queried {key:?} (slot {slot}) outside the {}-slot table",
            self.arm_flags.len()
        );
        self.arm_flags[slot]
    }

    /// Returns true while the core cluster still has work: an unfinished
    /// core, or an in-flight completion that must be delivered. O(1): the
    /// done-core counter is maintained in the cores phase.
    fn cores_active(&self) -> bool {
        self.cores_done < self.cores.len() || !self.core_completions.is_empty()
    }

    /// The core cluster's wake-up request.
    ///
    /// The cluster must be processed every network cycle while any core can
    /// still tick (not done, not parked, not fast-forwarding) or holds
    /// undrained Message-Interface commands (the MI serialises one command
    /// per core per network cycle regardless of the core's pipeline being
    /// blocked). A fast-forwarding core needs its next tick only at its
    /// interval's end, and a parked core only when its completion is
    /// delivered — both at exactly the network cycle whose sub-loop contains
    /// the core-cycle deadline, so the settling tick lands on the same cycle
    /// the lock-step kernel processes it. A cluster with nothing but sleeping
    /// cores idles until the earliest such deadline (or until the memory side
    /// stimulates it).
    fn cores_next_wake(&self, now: Cycle) -> NextWake {
        // Undrained Message-Interface commands keep the cluster hot (the MI
        // serialises one command per network cycle regardless of the
        // pipeline being blocked).
        if self.mi_pending_cores > 0 {
            return NextWake::At(now + 1);
        }
        let ratio = self.cfg.core_cycles_per_network_cycle();
        let mut wake = NextWake::Idle;
        for &at in &self.core_wake_at {
            match at {
                u64::MAX => {}
                // A runnable core ticks every cycle — nothing can be earlier.
                0 => return NextWake::At(now + 1),
                // The tick at core cycle `at` belongs to the network cycle
                // whose sub-loop covers it.
                at => wake = wake.min_with(NextWake::At((at / ratio).max(now + 1))),
            }
        }
        match self.core_completions.next_ready_at() {
            Some(at) => wake.min_with(NextWake::At((at / ratio).max(now + 1))),
            None => wake,
        }
    }

    /// The wake-up request of a top-level component, queried after it was
    /// woken or stimulated.
    fn next_wake_of(&self, now: Cycle, key: SysKey) -> NextWake {
        match (key, &self.backend) {
            (SysKey::Dram, Backend::Dram(dram)) => self
                .retry_dram
                .iter()
                .fold(dram.next_wake(now), |wake, (at, ..)| wake.min_with(NextWake::At(*at))),
            (SysKey::Network, Backend::Hmc(hmc)) => hmc.network.next_wake(now),
            (SysKey::Cube(c), Backend::Hmc(hmc)) => hmc.cubes[c].next_wake(),
            (SysKey::Engine(c), Backend::Hmc(hmc)) => hmc.engines[c].next_wake(now),
            // The memory side re-arms a sleeping cluster when it delivers a
            // completion or gather result to it (the cores phase itself
            // re-arms inline).
            (SysKey::Cores, _) => self.cores_next_wake(now),
            // The IPC sampler re-arms inline in `step`.
            _ => NextWake::Idle,
        }
    }

    /// The next network cycle after `now` at which the IPC window boundary
    /// falls (i.e. `cycle * ratio` is a multiple of the window).
    fn next_ipc_boundary(&self, now: Cycle) -> Cycle {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let ratio = self.cfg.core_cycles_per_network_cycle().max(1);
        let period = (IPC_WINDOW_CORE_CYCLES / gcd(IPC_WINDOW_CORE_CYCLES, ratio)).max(1);
        (now / period + 1) * period
    }

    // ------------------------------------------------------------------
    // Core side
    // ------------------------------------------------------------------

    fn handle_core_memory_request(&mut self, core_cycle: Cycle, core: usize, req: MemAccess) {
        let kind = match req.kind {
            MemAccessKind::Read => AccessKind::Read,
            MemAccessKind::Write => AccessKind::Write,
            MemAccessKind::Atomic => AccessKind::Atomic,
        };
        let result = self.caches.access(core, req.addr, kind);
        let core_tile = self.noc.core_tile(core);
        let bank_tile = self.noc.bank_tile(result.l2_bank);
        let atomic_penalty = if kind == AccessKind::Atomic { ATOMIC_COHERENCE_PENALTY } else { 0 };

        match result.hit {
            Some(HitLevel::L1) => {
                let done = core_cycle + self.cfg.caches.l1_hit_latency + atomic_penalty;
                self.core_completions.push_at(done, (core, req.req_id));
            }
            Some(HitLevel::L2) => {
                let arrive = self.noc.transfer(core_cycle, core_tile, bank_tile, 16);
                let served = arrive + self.cfg.caches.l2_hit_latency;
                let back = self.noc.transfer(served, bank_tile, core_tile, 80);
                self.core_completions.push_at(back + atomic_penalty, (core, req.req_id));
            }
            None => {
                // Miss: travel to the memory controller and out to memory.
                let mc = self.memory_port_of(req.addr);
                let mc_tile = self.noc.mc_tile(mc.index());
                let at_bank = self.noc.transfer(core_cycle, core_tile, bank_tile, 16);
                let at_mc = self.noc.transfer(at_bank, bank_tile, mc_tile, 16);
                let noc_return = self.noc.ideal_latency(mc_tile, bank_tile, 80)
                    + self.noc.ideal_latency(bank_tile, core_tile, 80)
                    + atomic_penalty;
                let txn = self.next_txn;
                self.next_txn += 1;
                self.mem_txns.insert(
                    txn,
                    MemTxn {
                        core,
                        req_id: req.req_id,
                        port: mc,
                        noc_return,
                        is_write: kind.is_write(),
                    },
                );
                let network_now = at_mc / self.cfg.core_cycles_per_network_cycle();
                self.issue_memory_access(network_now, txn, req.addr, kind.is_write());
            }
        }

        // Dirty evictions move a block back to memory without blocking anyone.
        for _ in 0..result.writebacks {
            let network_now = core_cycle / self.cfg.core_cycles_per_network_cycle();
            self.issue_writeback(network_now, req.addr);
        }
    }

    fn memory_port_of(&self, addr: Addr) -> PortId {
        match &self.backend {
            Backend::Dram(dram) => {
                PortId::new(dram.channel_of(addr) % self.cfg.noc.memory_controllers)
            }
            Backend::Hmc(hmc) => {
                let cube = CubeId::new(self.map.cube_of(addr));
                hmc.topology.nearest_port(cube)
            }
        }
    }

    fn issue_memory_access(&mut self, now: Cycle, txn: u64, addr: Addr, is_write: bool) {
        match &mut self.backend {
            Backend::Dram(dram) => {
                let req = if is_write {
                    DramRequest::write(txn, addr)
                } else {
                    DramRequest::read(txn, addr)
                };
                if dram.try_push(now, req).is_err() {
                    // Channel queue full: retry on the next network cycle.
                    self.retry_dram.push((now + 1, txn, addr, is_write));
                }
                Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Dram);
            }
            Backend::Hmc(hmc) => {
                let port = self.mem_txns.get(&txn).map(|t| t.port).unwrap_or(PortId::new(0));
                let cube = CubeId::new(self.map.cube_of(addr));
                let kind = if is_write {
                    PacketKind::WriteReq { req_id: txn, addr }
                } else {
                    PacketKind::ReadReq { req_id: txn, addr }
                };
                let packet = Packet::from_host(txn | (1 << 59), port, cube, kind, now);
                hmc.network.inject(now, packet);
                Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Network);
            }
        }
    }

    fn issue_writeback(&mut self, now: Cycle, addr: Addr) {
        match &mut self.backend {
            Backend::Dram(dram) => {
                let id = self.next_txn | (1 << 58);
                self.next_txn += 1;
                let _ = dram.try_push(now, DramRequest::write(id, addr));
                Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Dram);
            }
            Backend::Hmc(hmc) => {
                let id = self.next_txn | (1 << 58);
                self.next_txn += 1;
                let cube = CubeId::new(self.map.cube_of(addr));
                let port = hmc.topology.nearest_port(cube);
                let packet = Packet::from_host(
                    id,
                    port,
                    cube,
                    PacketKind::WriteReq { req_id: id, addr },
                    now,
                );
                self.mem_txns.insert(
                    id,
                    MemTxn { core: usize::MAX, req_id: 0, port, noc_return: 0, is_write: true },
                );
                hmc.network.inject(now, packet);
                Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Network);
            }
        }
    }

    fn release_barriers(&mut self, core_cycle: Cycle, hub: &mut ObserverHub<'_>) {
        // Running min over the waiting cores; this probes every network cycle,
        // so it must not allocate.
        let mut lowest: Option<u32> = None;
        for core in &self.cores {
            if core.is_done() {
                continue;
            }
            match core.waiting_barrier() {
                Some(id) => lowest = Some(lowest.map_or(id, |m| m.min(id))),
                None => return, // someone is still running: no release possible
            }
        }
        let Some(id) = lowest else {
            return;
        };
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.release_barrier(id, core_cycle);
            // Released cores must tick again; re-open every live gate (the
            // cores not at this barrier were runnable anyway).
            if !core.is_done() {
                self.core_wake_at[i] = 0;
            }
        }
        if !hub.is_empty() {
            hub.emit(&SimEvent::BarrierReleased { core_cycle, id });
        }
    }

    // ------------------------------------------------------------------
    // Offload side
    // ------------------------------------------------------------------

    fn drain_message_interfaces(&mut self, now: Cycle) {
        if self.mi_pending_cores == 0 {
            return;
        }
        let Backend::Hmc(hmc) = &mut self.backend else {
            return;
        };
        let Some(controller) = hmc.controller.as_mut() else {
            return;
        };
        // The cycle's submissions batch into the reused controller buffer
        // (append order is submission order), so the hot path allocates
        // nothing and the batched injection below is indistinguishable from
        // injecting after every submit.
        self.host_scratch.clear();
        let mut newly_done = 0;
        for (i, core) in self.cores.iter_mut().enumerate() {
            if !self.mi_pending[i] {
                continue;
            }
            // One offload command per core per network cycle (the MI serialises
            // register writes into packets at the network clock).
            if let Some(cmd) = core.mi_mut().pop() {
                controller.submit_into(now, cmd, &mut self.host_scratch);
                if core.mi().is_empty() {
                    self.mi_pending[i] = false;
                    self.mi_pending_cores -= 1;
                }
                // Draining the last Message-Interface command can be the
                // core's final pending work: a non-empty MI keeps `is_done`
                // false, so this pop is a possible done transition.
                if core.is_done() {
                    newly_done += 1;
                    self.core_wake_at[i] = u64::MAX;
                }
            }
        }
        self.cores_done += newly_done;
        // Submitting MI commands only produces packets and back-invalidations
        // (gather completions arrive through the host ports).
        debug_assert!(self.host_scratch.completions.is_empty());
        if !self.host_scratch.packets.is_empty() {
            for (_, packet) in self.host_scratch.packets.drain(..) {
                hmc.network.inject(now, packet);
            }
            Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Network);
        }
        for addr in self.host_scratch.back_invalidate.drain(..) {
            let (copies, _dirty) = self.caches.back_invalidate(addr);
            if copies > 0 {
                self.back_invalidations += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Memory side
    // ------------------------------------------------------------------

    fn step_dram(&mut self, now: Cycle, dram_due: bool) {
        if !dram_due {
            return;
        }
        // Retry requests that found their channel queue full.
        let retries = std::mem::take(&mut self.retry_dram);
        for (at, txn, addr, is_write) in retries {
            if at <= now {
                self.issue_memory_access(now, txn, addr, is_write);
            } else {
                self.retry_dram.push((at, txn, addr, is_write));
            }
        }
        let ratio = self.cfg.core_cycles_per_network_cycle();
        let mut ctx = SchedCtx::new(now);
        let Backend::Dram(dram) = &mut self.backend else { return };
        dram.wake(now, &mut ctx);
        while let Some(resp) = dram.pop_response(now) {
            if let Some(txn) = self.mem_txns.remove(&resp.id) {
                if txn.core != usize::MAX {
                    let done = now * ratio + txn.noc_return.max(1);
                    self.core_completions.push_at(done, (txn.core, txn.req_id));
                    // A sleeping cluster must be re-armed for the delivery.
                    Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Cores);
                }
            }
        }
        Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Dram);
    }

    /// One HMC-side network cycle, in four sub-phases with the same order as
    /// the original lock-step loop: the network tick, the per-cube delivery /
    /// engine sub-phase, the per-cube vault-response sub-phase, and the host
    /// ports. Both per-cube sub-phases visit cubes in ascending index order.
    /// Cubes take vault requests only in the delivery sub-phase, before
    /// their responses are popped, which is the order
    /// [`HmcCube::try_push`] requires.
    /// `due` holds the step's due flags by key slot (`None`: lock-step,
    /// everything due).
    fn step_hmc(&mut self, now: Cycle, due: Option<&[bool]>, hub: &mut ObserverHub<'_>) {
        let is_due = |key: SysKey| due.is_none_or(|flags| flags[Self::key_slot(key)]);
        let ratio = self.cfg.core_cycles_per_network_cycle();
        let mut ctx = SchedCtx::new(now);
        // Split-borrow the backend once.
        let Backend::Hmc(hmc) = &mut self.backend else { return };
        let hmc = hmc.as_mut();

        if is_due(SysKey::Network) {
            hmc.network.wake(now, &mut ctx);
            Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Network);
        }

        // 1. Packets delivered at cubes, and the engines' own pipelines, for
        // every cube with a pending delivery or a due engine. Every such
        // inbox is drained before any cube is handled: the drains free the
        // packet-pool slots that this sub-phase's injections reuse, so the
        // order fixes which slot each new packet takes (and with it the
        // checkpoint bytes). A packet injected here, even a zero-hop one to
        // its own cube, is handled next cycle.
        let mut inbox = std::mem::take(&mut self.cube_inbox);
        let mut deliveries = std::mem::take(&mut self.cube_deliveries);
        for c in 0..hmc.cubes.len() {
            let cube_id = CubeId::new(c);
            if !hmc.network.has_delivery_at_cube(cube_id) && !is_due(SysKey::Engine(c)) {
                continue;
            }
            let before = inbox.len();
            hmc.network.drain_at_cube_into(cube_id, &mut inbox);
            deliveries.push((c, inbox.len() - before));
        }
        // Then cube by cube: vault requests and engine packets in arrival
        // order, the engine's pipeline tick, and the engine's output applied
        // at once.
        let mut out = std::mem::take(&mut self.are_output);
        for (c, count) in deliveries.drain(..) {
            let Backend::Hmc(hmc) = &mut self.backend else { return };
            let (cube, engine) = (&mut hmc.cubes[c], &mut hmc.engines[c]);
            for packet in inbox.drain(..count) {
                let req = match packet.kind {
                    PacketKind::ReadReq { req_id, addr } => VaultRequest::read(req_id, addr),
                    PacketKind::WriteReq { req_id, addr } => VaultRequest::write(req_id, addr),
                    // Responses are only ever destined to host ports.
                    PacketKind::ReadResp { .. } | PacketKind::WriteAck { .. } => continue,
                    PacketKind::Active(_) => {
                        engine.handle_packet_into(now, packet, &mut out);
                        continue;
                    }
                };
                let _ = cube.try_push(now, req);
                self.vault_purpose.insert(req.id, VaultPurpose::Normal { txn: req.id });
                self.hmc_bytes += 64;
                Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Cube(c));
            }
            engine.tick_into(now, &mut out);
            Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Engine(c));
            self.apply_cube_output(now, c, &mut out);
        }
        self.are_output = out;
        self.cube_inbox = inbox;
        self.cube_deliveries = deliveries;

        let Backend::Hmc(hmc) = &mut self.backend else { return };
        let hmc = hmc.as_mut();

        // 2. Collect the vault responses due back at the cubes' link sides,
        // in pop order: from every cube that is due, or was handed a request
        // earlier this cycle (with zero crossbar and access latencies, its
        // response is due at once).
        let mut vault_completions = std::mem::take(&mut self.completion_scratch);
        for (c, cube) in hmc.cubes.iter_mut().enumerate() {
            if !is_due(SysKey::Cube(c)) && !self.arm_flags[Self::key_slot(SysKey::Cube(c))] {
                continue;
            }
            while let Some(resp) = cube.pop_response(now) {
                vault_completions.push((c, resp));
            }
            Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Cube(c));
        }
        let mut are_outputs = std::mem::take(&mut self.are_scratch);
        for (c, resp) in vault_completions.drain(..) {
            match self.vault_purpose.remove(&resp.id) {
                Some(VaultPurpose::Normal { txn }) => {
                    if let Some(info) = self.mem_txns.get(&txn) {
                        let kind = if info.is_write {
                            PacketKind::WriteAck { req_id: txn, addr: resp.addr }
                        } else {
                            PacketKind::ReadResp { req_id: txn, addr: resp.addr }
                        };
                        let packet = Packet::new(
                            txn | (1 << 59),
                            NetNode::Cube(CubeId::new(c)),
                            NetNode::Host(info.port),
                            kind,
                            now,
                        );
                        hmc.network.inject(now, packet);
                        Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Network);
                    }
                }
                Some(VaultPurpose::AreRead { cube, access_id }) => {
                    let value = self.func_mem.get(&resp.addr.as_u64()).copied().unwrap_or(0.0);
                    let mut out = self.are_spare.pop().unwrap_or_default();
                    hmc.engines[cube].complete_vault_read_into(now, access_id, value, &mut out);
                    are_outputs.push((cube, out));
                    Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Engine(cube));
                }
                Some(VaultPurpose::AreWrite) | None => {}
            }
        }
        self.completion_scratch = vault_completions;
        self.apply_are_outputs(now, &mut are_outputs);
        self.are_scratch = are_outputs;

        let Backend::Hmc(hmc) = &mut self.backend else { return };
        let hmc = hmc.as_mut();

        // 3. Packets delivered at the host ports. Completions accumulate in
        // the reused host-output scratch (empty outside the drain phases), so
        // the steady-state port loop allocates nothing.
        let mut scratch = std::mem::take(&mut self.host_scratch);
        debug_assert!(scratch.is_empty(), "the host scratch must be drained between phases");
        for p in 0..self.cfg.network.host_ports {
            let port = PortId::new(p);
            if !hmc.network.has_delivery_at_host(port) {
                continue;
            }
            while let Some(packet) = hmc.network.pop_at_host(port) {
                match &packet.kind {
                    PacketKind::ReadResp { req_id, .. } | PacketKind::WriteAck { req_id, .. } => {
                        if let Some(txn) = self.mem_txns.remove(req_id) {
                            if txn.core != usize::MAX {
                                let done = now * ratio + txn.noc_return.max(1);
                                self.core_completions.push_at(done, (txn.core, txn.req_id));
                                // Re-arm a sleeping cluster for the delivery.
                                Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Cores);
                            }
                        }
                    }
                    PacketKind::Active(_) => {
                        if let Some(controller) = hmc.controller.as_mut() {
                            controller.handle_port_packet_into(now, port, &packet, &mut scratch);
                        }
                    }
                    _ => {}
                }
            }
        }
        for done in scratch.completions.drain(..) {
            self.func_mem.insert(done.target.as_u64(), done.value);
            self.gather_results.push((done.target, done.value));
            if !hub.is_empty() {
                hub.emit(&SimEvent::GatherCompleted {
                    network_cycle: now,
                    target: done.target,
                    value: done.value,
                });
            }
            let core_cycle = now * ratio;
            for thread in &done.threads {
                if thread.index() < self.cores.len() {
                    self.cores[thread.index()].complete_gather(done.target, core_cycle);
                    // The gather result unparks its waiting cores: re-open
                    // their gates and re-arm the sleeping cluster. A
                    // fire-and-forget gather can complete after its issuer
                    // already finished — a done core's gate stays closed.
                    if !self.cores[thread.index()].is_done() {
                        self.core_wake_at[thread.index()] = 0;
                        Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Cores);
                    }
                }
            }
            // Close the recycling loop: the thread list goes back to the
            // controller for the next gather barrier.
            if let Some(controller) = hmc.controller.as_mut() {
                controller.recycle_thread_list(done.threads);
            }
        }
        self.host_scratch = scratch;
    }

    /// Applies collected engine outputs (network injections, operand vault
    /// accesses) in emission order, draining `outputs` and recycling the
    /// emptied accumulators through the spare pool.
    fn apply_are_outputs(&mut self, now: Cycle, outputs: &mut Vec<(usize, AreOutput)>) {
        for (cube, mut out) in outputs.drain(..) {
            self.apply_cube_output(now, cube, &mut out);
            self.are_spare.push(out);
        }
    }

    /// Applies one cube's engine output in emission order, draining its
    /// lists in place so the buffer keeps its capacity for reuse.
    fn apply_cube_output(&mut self, now: Cycle, cube: usize, out: &mut AreOutput) {
        let Backend::Hmc(hmc) = &mut self.backend else { return };
        let hmc = hmc.as_mut();
        for packet in out.packets.drain(..) {
            // Packets whose destination is the local cube are handled by
            // this cube's own engine next cycle via the network's
            // zero-hop delivery.
            hmc.network.inject(now, packet);
            Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Network);
        }
        for access in out.vault_accesses.drain(..) {
            let id = (1 << 62) | self.next_vault_id;
            self.next_vault_id += 1;
            let purpose = match access.write_value {
                Some(value) => {
                    self.func_mem.insert(access.addr.as_u64(), value);
                    VaultPurpose::AreWrite
                }
                None => VaultPurpose::AreRead { cube, access_id: access.id },
            };
            self.vault_purpose.insert(id, purpose);
            let req = if access.write_value.is_some() {
                VaultRequest::write(id, access.addr)
            } else {
                VaultRequest::read(id, access.addr)
            };
            let _ = hmc.cubes[cube].try_push(now, req);
            Self::stimulate(&mut self.armq, &mut self.arm_flags, SysKey::Cube(cube));
            self.hmc_bytes += 8;
        }
    }

    // ------------------------------------------------------------------
    // Bookkeeping
    // ------------------------------------------------------------------

    fn sample_ipc(&mut self, now: Cycle, ratio: u64, hub: &mut ObserverHub<'_>) {
        let core_cycle = now * ratio;
        if core_cycle == 0 || !core_cycle.is_multiple_of(IPC_WINDOW_CORE_CYCLES) {
            return;
        }
        // A sample boundary landing inside a fast-forwarded compute interval
        // splits it: the prefix up to the end of this network cycle's core
        // sub-cycles settles (matching the ticks the lock-step kernel has
        // executed by this point in its step), the remainder stays pending.
        // Parked cores need no settling here — a blocked core retires
        // nothing, so its instruction count is already exact.
        for core in &mut self.cores {
            core.settle_compute_to(core_cycle + ratio);
        }
        let total: u64 = self.cores.iter().map(Core::instructions_retired).sum();
        let delta = total - self.last_ipc_sample_insns;
        self.last_ipc_sample_insns = total;
        let ipc = delta as f64 / IPC_WINDOW_CORE_CYCLES as f64;
        self.ipc_series.push(core_cycle as f64, ipc);
        if !hub.is_empty() {
            hub.emit(&SimEvent::Sample(Sample {
                network_cycle: now,
                core_cycle,
                instructions: total,
                window_ipc: ipc,
            }));
        }
    }

    /// Whether the whole system is quiescent. O(1): the core cluster is
    /// covered by the done-core counter and the completion queue, the memory
    /// side by the cached busy-component counter maintained in `step`'s
    /// re-arm sweep (plus the already-O(1) network and controller checks).
    fn is_finished(&self) -> bool {
        let finished = self.cores_done == self.cores.len()
            && self.core_completions.is_empty()
            && match &self.backend {
                Backend::Dram(_) => self.busy_count == 0 && self.retry_dram.is_empty(),
                Backend::Hmc(hmc) => {
                    self.busy_count == 0
                        && hmc.network.is_quiescent()
                        && hmc
                            .controller
                            .as_ref()
                            .map(HostOffloadController::is_idle)
                            .unwrap_or(true)
                }
            };
        debug_assert_eq!(
            finished,
            self.is_finished_scan(),
            "the quiescence tracker diverged from the full component scan"
        );
        finished
    }

    /// The original full-scan quiescence check, kept as the debug-mode oracle
    /// for the counter-based [`System::is_finished`].
    fn is_finished_scan(&self) -> bool {
        if !self.cores.iter().all(Core::is_done) {
            return false;
        }
        if !self.core_completions.is_empty() {
            return false;
        }
        match &self.backend {
            Backend::Dram(dram) => dram.is_idle() && self.retry_dram.is_empty(),
            Backend::Hmc(hmc) => {
                hmc.network.is_quiescent()
                    && hmc.cubes.iter().all(HmcCube::is_idle)
                    && hmc.engines.iter().all(ActiveRoutingEngine::is_idle)
                    && hmc.controller.as_ref().map(HostOffloadController::is_idle).unwrap_or(true)
            }
        }
    }

    /// Number of cores currently inside a pending fast-forwarded interval
    /// (crate-internal: the arming probe the kernel tests use, since the
    /// whole point of fast-forwarding is that reports cannot tell).
    #[cfg(test)]
    fn cores_fast_forwarding(&self) -> usize {
        self.cores.iter().filter(|c| c.fast_forward_until().is_some()).count()
    }

    fn into_report(self, network_cycles: u64, completed: bool) -> SimReport {
        let ratio = self.cfg.core_cycles_per_network_cycle();
        let cache = self.caches.stats();
        let mut stalls = StallSummary::default();
        let mut instructions = 0;
        let mut updates_offloaded = 0;
        let mut gathers_offloaded = 0;
        // Parked cores were settled by `run_with` before this is called, so
        // the per-core stall counters already reflect every processed cycle.
        for core in &self.cores {
            let s = core.stalls();
            stalls.memory += s.memory;
            stalls.gather += s.gather;
            stalls.barrier += s.barrier;
            stalls.offload += s.offload;
            stalls.rob_full += s.rob_full;
            instructions += core.instructions_retired();
            updates_offloaded += core.updates_offloaded();
            gathers_offloaded += core.gathers_offloaded();
        }

        let mut report = SimReport {
            workload: self.workload,
            config_label: self.label,
            network_cycles,
            core_cycles: network_cycles * ratio,
            instructions,
            completed,
            stalls,
            l1_accesses: cache.l1_accesses,
            l1_hits: cache.l1_hits,
            l2_accesses: cache.l2_accesses,
            l2_hits: cache.l2_hits,
            invalidations: cache.invalidations + cache.back_invalidations,
            updates_offloaded,
            gathers_offloaded,
            noc_byte_hops: self.noc.byte_hops(),
            gather_results: self.gather_results,
            ipc_series: {
                // Drop the sampler's up-front reservation (sized for the
                // worst-case window count) before the series is retained in
                // the report.
                let mut series = self.ipc_series;
                series.shrink_to_fit();
                series
            },
            network_clock_ghz: self.cfg.network.clock_ghz,
            ..SimReport::default()
        };

        match self.backend {
            Backend::Dram(dram) => {
                report.dram_bytes = dram.bytes();
                report.data_movement = DataMovement {
                    norm_req_bytes: dram.accesses() * 16,
                    norm_resp_bytes: dram.bytes(),
                    active_req_bytes: 0,
                    active_resp_bytes: 0,
                };
            }
            Backend::Hmc(hmc) => {
                let net = hmc.network.stats();
                report.hmc_bytes = self.hmc_bytes;
                report.network_byte_hops = net.bit_hops / 8;
                report.data_movement = DataMovement {
                    norm_req_bytes: net.norm_req_bytes,
                    norm_resp_bytes: net.norm_resp_bytes,
                    active_req_bytes: net.active_req_bytes,
                    active_resp_bytes: net.active_resp_bytes,
                };
                let mut activity = CubeActivity::default();
                let mut samples = 0u64;
                let mut req_sum = 0u64;
                let mut stall_sum = 0u64;
                let mut resp_sum = 0u64;
                let mut are_ops = 0u64;
                for engine in &hmc.engines {
                    let s = engine.stats();
                    activity.updates_computed.push(s.updates_computed);
                    activity.operands_served.push(s.operands_served);
                    activity.operand_buffer_stalls.push(s.operand_buffer_stall_cycles);
                    samples += s.latency_samples;
                    req_sum += s.request_latency_sum;
                    stall_sum += s.stall_latency_sum;
                    resp_sum += s.response_latency_sum;
                    are_ops += s.alu_ops;
                }
                report.are_ops = are_ops;
                report.cube_activity = activity;
                if samples > 0 {
                    report.update_latency = LatencyBreakdown {
                        request: req_sum as f64 / samples as f64,
                        stall: stall_sum as f64 / samples as f64,
                        response: resp_sum as f64 / samples as f64,
                    };
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_types::ThreadId;

    /// A system whose cores each run one huge compute block.
    fn compute_block_system() -> System {
        let mut cfg = SystemConfig::small();
        cfg.max_cycles = 1_000_000;
        let streams = (0..cfg.cores.count)
            .map(|t| {
                let mut s = WorkStream::new(ThreadId::new(t));
                s.push(WorkItem::Compute(100_000));
                s
            })
            .collect();
        System::new(cfg, streams, Vec::new()).expect("valid configuration")
    }

    /// Drives `steps` cycles through `System::step` the way `run_with` does,
    /// in event or lock-step mode.
    fn drive_steps(sys: &mut System, event: bool, steps: u64) {
        let mut wakes = WakeTable::new(sys.due_flags.len());
        wakes.wake(System::key_slot(SysKey::Cores));
        wakes.schedule(System::key_slot(SysKey::Ipc), sys.next_ipc_boundary(0));
        let mut hub = ObserverHub::new(&mut []);
        for now in 0..steps {
            if event {
                wakes.pop_due_into(now, &mut sys.due_flags);
            }
            sys.step(now, event, &mut wakes, &mut hub);
        }
    }

    /// The arming probe: reports are byte-identical with and without
    /// fast-forwarding (that is the whole contract), so this is the one
    /// place that verifies the event kernel's cores phase really arms
    /// intervals on compute blocks — and that the lock-step reference and
    /// the disabled knob never do.
    #[test]
    fn event_kernel_arms_fast_forward_on_compute_blocks() {
        let mut sys = compute_block_system();
        drive_steps(&mut sys, true, 4);
        assert_eq!(
            sys.cores_fast_forwarding(),
            sys.cores.len(),
            "every compute-block core must be inside a fast-forwarded interval"
        );

        let mut lockstep = compute_block_system();
        drive_steps(&mut lockstep, false, 4);
        assert_eq!(lockstep.cores_fast_forwarding(), 0, "the per-cycle oracle must never arm");

        let mut disabled = compute_block_system().with_fast_forward(false);
        drive_steps(&mut disabled, true, 4);
        assert_eq!(disabled.cores_fast_forwarding(), 0, "the knob must gate arming");
    }

    /// With every core fast-forwarding, the cluster must sleep until the
    /// earliest interval end instead of re-arming every network cycle.
    #[test]
    fn fast_forwarding_cluster_sleeps_until_the_interval_end() {
        let mut sys = compute_block_system();
        drive_steps(&mut sys, true, 4);
        let until = sys.cores[0].fast_forward_until().expect("armed");
        let ratio = sys.cfg.core_cycles_per_network_cycle();
        match sys.cores_next_wake(3) {
            NextWake::At(at) => {
                assert_eq!(at, until / ratio, "cluster must wake at the interval end")
            }
            NextWake::Idle => panic!("a fast-forwarding cluster still has scheduled work"),
        }
    }

    /// A system whose cores each issue a long run of `Update` offloads
    /// against a back-pressuring Message Interface.
    fn offload_run_system() -> System {
        let mut cfg = SystemConfig::small().with_scheme(ar_types::config::OffloadScheme::ArfTid);
        cfg.max_cycles = 1_000_000;
        let streams = (0..cfg.cores.count)
            .map(|t| {
                let mut s = WorkStream::new(ThreadId::new(t));
                for i in 0..2_000u64 {
                    s.push(WorkItem::Update {
                        op: ar_types::ReduceOp::Sum,
                        src1: Addr::new(0x10_0000 + (t as u64 * 2_000 + i) * 8),
                        src2: None,
                        imm: None,
                        target: Addr::new(0x80_0000 + t as u64 * 64),
                    });
                }
                s.push(WorkItem::Gather {
                    target: Addr::new(0x80_0000 + t as u64 * 64),
                    op: ar_types::ReduceOp::Sum,
                    num_threads: 1,
                    wait: true,
                });
                s
            })
            .collect();
        System::new(cfg, streams, Vec::new()).expect("valid configuration")
    }

    /// End-to-end: the offload-regime run, whose cluster stays hot while
    /// the Message Interfaces drain one command per network cycle, finishes
    /// with the identical report on the event kernel and the per-cycle
    /// oracle.
    #[test]
    fn planned_and_ticked_offload_runs_report_identically() {
        let event = offload_run_system().run();
        let lockstep = offload_run_system().run_lockstep();
        assert_eq!(event, lockstep, "the event kernel must match the per-cycle oracle");
        assert!(event.completed);
        assert_eq!(event.updates_offloaded, 4 * 2_000);
    }
}
