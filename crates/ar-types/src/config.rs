//! System configuration corresponding to Table 4.1 of the paper, plus the
//! evaluated scheme configurations of Section 5.1.

use crate::addr::{AddressMap, DramAddressMap};
use crate::error::ConfigError;
use crate::json::Json;
use std::fmt;

/// Which main-memory substrate the system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryMode {
    /// Conventional DDR DRAM attached to 4 memory controllers (the `DRAM`
    /// baseline configuration).
    DdrBaseline,
    /// A memory network of HMCs in a dragonfly topology (`HMC`, `ART` and the
    /// `ARF` configurations).
    HmcNetwork,
}

/// The Active-Routing offloading scheme (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OffloadScheme {
    /// No offloading: all work executes on the host (DRAM and HMC baselines).
    None,
    /// Active-Routing-Tree: a single tree per flow rooted at a static port.
    Art,
    /// Active-Routing-Forest interleaved by thread id across the 4 ports.
    ArfTid,
    /// Active-Routing-Forest interleaved by operand address (nearest port).
    ArfAddr,
    /// ARF-tid with the dynamic-offloading runtime knob of Section 5.4:
    /// phases with good locality run on the host, others are offloaded.
    ArfTidAdaptive,
}

impl OffloadScheme {
    /// Returns true if the scheme offloads Update/Gather to the memory network.
    pub fn offloads(self) -> bool {
        !matches!(self, OffloadScheme::None)
    }
}

impl fmt::Display for OffloadScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OffloadScheme::None => "none",
            OffloadScheme::Art => "ART",
            OffloadScheme::ArfTid => "ARF-tid",
            OffloadScheme::ArfAddr => "ARF-addr",
            OffloadScheme::ArfTidAdaptive => "ARF-tid-adaptive",
        };
        f.write_str(s)
    }
}

/// The six named configurations evaluated in Chapter 5: the five plotted in
/// Figs. 5.1–5.7 ([`NamedConfig::ALL`]) plus the dynamic-offloading variant
/// of the Section 5.4 case study ([`NamedConfig::ALL_WITH_ADAPTIVE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedConfig {
    /// DDR baseline, everything on the host.
    Dram,
    /// HMC memory network, everything on the host.
    Hmc,
    /// HMC network + Active-Routing through a single static port.
    Art,
    /// HMC network + Active-Routing-Forest by thread id.
    ArfTid,
    /// HMC network + Active-Routing-Forest by operand address.
    ArfAddr,
    /// HMC network + ARF-tid with dynamic offloading (Section 5.4).
    ArfTidAdaptive,
}

impl NamedConfig {
    /// The five configurations plotted in Figs. 5.1 and 5.5-5.7. The
    /// adaptive variant is deliberately absent here (the paper only evaluates
    /// it in the Fig. 5.8 case study); use
    /// [`NamedConfig::ALL_WITH_ADAPTIVE`] to cover every variant.
    pub const ALL: [NamedConfig; 5] = [
        NamedConfig::Dram,
        NamedConfig::Hmc,
        NamedConfig::Art,
        NamedConfig::ArfTid,
        NamedConfig::ArfAddr,
    ];

    /// Every named configuration, including `ARF-tid-adaptive` (Section 5.4).
    pub const ALL_WITH_ADAPTIVE: [NamedConfig; 6] = [
        NamedConfig::Dram,
        NamedConfig::Hmc,
        NamedConfig::Art,
        NamedConfig::ArfTid,
        NamedConfig::ArfAddr,
        NamedConfig::ArfTidAdaptive,
    ];

    /// The memory mode of this configuration.
    pub fn memory_mode(self) -> MemoryMode {
        match self {
            NamedConfig::Dram => MemoryMode::DdrBaseline,
            _ => MemoryMode::HmcNetwork,
        }
    }

    /// Parses a configuration display name (as produced by
    /// [`fmt::Display`], case-insensitively): `"DRAM"`, `"HMC"`, `"ART"`,
    /// `"ARF-tid"`, `"ARF-addr"`, `"ARF-tid-adaptive"`.
    pub fn parse(name: &str) -> Option<Self> {
        NamedConfig::ALL_WITH_ADAPTIVE
            .into_iter()
            .find(|c| c.to_string().eq_ignore_ascii_case(name))
    }

    /// The offload scheme of this configuration.
    pub fn scheme(self) -> OffloadScheme {
        match self {
            NamedConfig::Dram | NamedConfig::Hmc => OffloadScheme::None,
            NamedConfig::Art => OffloadScheme::Art,
            NamedConfig::ArfTid => OffloadScheme::ArfTid,
            NamedConfig::ArfAddr => OffloadScheme::ArfAddr,
            NamedConfig::ArfTidAdaptive => OffloadScheme::ArfTidAdaptive,
        }
    }
}

impl fmt::Display for NamedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NamedConfig::Dram => "DRAM",
            NamedConfig::Hmc => "HMC",
            NamedConfig::Art => "ART",
            NamedConfig::ArfTid => "ARF-tid",
            NamedConfig::ArfAddr => "ARF-addr",
            NamedConfig::ArfTidAdaptive => "ARF-tid-adaptive",
        };
        f.write_str(s)
    }
}

/// Host core parameters ("CPU Core" row of Table 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Number of out-of-order cores.
    pub count: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Issue/commit width in instructions per core cycle.
    pub issue_width: u32,
    /// Reorder buffer capacity (limits in-flight instructions).
    pub rob_entries: usize,
    /// Maximum outstanding memory requests per core (MSHR-like limit).
    pub max_outstanding_mem: usize,
    /// Depth of the Message Interface queue for offload packets.
    pub mi_queue_depth: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            count: 16,
            clock_ghz: 2.0,
            issue_width: 8,
            rob_entries: 64,
            max_outstanding_mem: 16,
            mi_queue_depth: 16,
        }
    }
}

/// Cache hierarchy parameters ("L1I/DCache" and "L2Cache" rows of Table 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Private L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency in core cycles.
    pub l1_hit_latency: u64,
    /// Shared S-NUCA L2 size in bytes (total across banks).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 bank access latency in core cycles (excluding NoC hops).
    pub l2_hit_latency: u64,
    /// Number of L2 banks (one per mesh tile).
    pub l2_banks: usize,
    /// MSHRs per core for outstanding L1 misses.
    pub mshrs: usize,
    /// Cache block size in bytes.
    pub block_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l1_hit_latency: 2,
            l2_bytes: 16 * 1024 * 1024,
            l2_ways: 16,
            l2_hit_latency: 14,
            l2_banks: 16,
            mshrs: 16,
            block_bytes: 64,
        }
    }
}

/// On-chip network parameters ("NoC" row of Table 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Mesh width (4 for a 4x4 mesh).
    pub mesh_width: usize,
    /// Per-hop latency in core cycles (router + link).
    pub hop_latency: u64,
    /// Link bandwidth in bytes per core cycle.
    pub link_bytes_per_cycle: u32,
    /// Number of memory controllers placed at the mesh corners.
    pub memory_controllers: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig { mesh_width: 4, hop_latency: 3, link_bytes_per_cycle: 32, memory_controllers: 4 }
    }
}

/// DDR DRAM baseline parameters ("Memory / DRAM Baseline" row of Table 4.1).
/// Timing values are in memory-bus cycles at 800 MHz (DDR-1600-like), matching
/// the tRCD=14 / tRAS=34 / tRP=14 / tCL=14 / tBL=4 values in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of memory controllers / channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-to-column delay.
    pub t_rcd: u64,
    /// Row-access strobe (activate to precharge).
    pub t_ras: u64,
    /// Row precharge time.
    pub t_rp: u64,
    /// CAS latency.
    pub t_cl: u64,
    /// Burst length in bus cycles.
    pub t_bl: u64,
    /// Rank-to-rank switching delay.
    pub t_rr: u64,
    /// Memory bus clock in GHz.
    pub bus_ghz: f64,
    /// Per-channel request queue depth.
    pub queue_depth: usize,
    /// Total capacity in GiB (for reporting only).
    pub capacity_gib: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 4,
            ranks_per_channel: 4,
            banks_per_rank: 64,
            t_rcd: 14,
            t_ras: 34,
            t_rp: 14,
            t_cl: 14,
            t_bl: 4,
            t_rr: 1,
            bus_ghz: 0.8,
            queue_depth: 32,
            capacity_gib: 64,
        }
    }
}

impl DramConfig {
    /// Address map implied by this configuration.
    pub fn address_map(&self) -> DramAddressMap {
        DramAddressMap::new(self.channels, self.ranks_per_channel, self.banks_per_rank)
    }
}

/// HMC cube parameters ("HMC" row of Table 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct HmcConfig {
    /// Capacity per cube in GiB (for reporting only).
    pub capacity_gib: usize,
    /// Number of stacked DRAM layers.
    pub layers: usize,
    /// Vaults per cube.
    pub vaults: usize,
    /// Banks per vault.
    pub banks_per_vault: usize,
    /// Vault DRAM access latency (activate+read) in network cycles.
    pub vault_access_latency: u64,
    /// Additional latency when the access conflicts with a busy bank.
    pub bank_busy_penalty: u64,
    /// Vault controller queue depth.
    pub vault_queue_depth: usize,
    /// Cycles a bank stays busy after serving an access.
    pub bank_occupancy: u64,
    /// Intra-cube crossbar traversal latency in network cycles.
    pub crossbar_latency: u64,
}

impl Default for HmcConfig {
    fn default() -> Self {
        HmcConfig {
            capacity_gib: 4,
            layers: 4,
            vaults: 32,
            banks_per_vault: 8,
            vault_access_latency: 22,
            bank_busy_penalty: 8,
            vault_queue_depth: 16,
            bank_occupancy: 11,
            crossbar_latency: 2,
        }
    }
}

/// Memory-network parameters ("HMC-Net" row of Table 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Number of memory cubes.
    pub cubes: usize,
    /// Number of host access ports (HMC controllers).
    pub host_ports: usize,
    /// Number of dragonfly groups.
    pub groups: usize,
    /// Link width in lanes.
    pub lanes: usize,
    /// Per-lane signalling rate in Gbps.
    pub gbps_per_lane: f64,
    /// Network (switch) clock in GHz.
    pub clock_ghz: f64,
    /// Per-hop router latency in network cycles.
    pub hop_latency: u64,
    /// Number of virtual channels per physical link.
    pub virtual_channels: usize,
    /// Input buffer depth per VC, in packets.
    pub vc_buffer_packets: usize,
    /// Link bandwidth in bytes per network cycle, derived from lanes * rate.
    pub link_bytes_per_cycle: u32,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        // 16 lanes * 12.5 Gbps = 200 Gbps = 25 GB/s per direction; at 1 GHz
        // that is 25 bytes per network cycle (we round to 24 = 1.5 flits).
        NetworkConfig {
            cubes: 16,
            host_ports: 4,
            groups: 4,
            lanes: 16,
            gbps_per_lane: 12.5,
            clock_ghz: 1.0,
            hop_latency: 3,
            virtual_channels: 2,
            vc_buffer_packets: 8,
            link_bytes_per_cycle: 24,
        }
    }
}

/// Active-Routing Engine parameters (Section 3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct AreConfig {
    /// Maximum number of concurrently tracked flows per cube.
    pub flow_table_entries: usize,
    /// Number of operand buffer entries per cube.
    pub operand_buffers: usize,
    /// Number of ALU operations the ARE can start per network cycle.
    pub alu_issue_per_cycle: u32,
    /// Extra decode latency for active packets, in network cycles.
    pub decode_latency: u64,
    /// Updates-per-flow threshold used by the adaptive scheme
    /// (`CACHE_BLK_SIZE/stride1 + CACHE_BLK_SIZE/stride2` in the paper's case
    /// study); kept as an explicit knob here.
    pub adaptive_threshold: u64,
}

impl Default for AreConfig {
    fn default() -> Self {
        AreConfig {
            flow_table_entries: 64,
            operand_buffers: 128,
            alu_issue_per_cycle: 2,
            decode_latency: 1,
            adaptive_threshold: 16,
        }
    }
}

/// Energy constants used by the power model (Section 4.1): 5 pJ/bit per
/// memory-network hop, 12 pJ/bit per HMC access, 39 pJ/bit per DRAM access.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Energy per bit per memory-network hop, in picojoules.
    pub pj_per_bit_hop: f64,
    /// Energy per bit of HMC memory access, in picojoules.
    pub pj_per_bit_hmc: f64,
    /// Energy per bit of DDR DRAM access, in picojoules.
    pub pj_per_bit_dram: f64,
    /// Energy per L1 access in picojoules (CACTI-style constant).
    pub pj_per_l1_access: f64,
    /// Energy per L2 access in picojoules (CACTI-style constant).
    pub pj_per_l2_access: f64,
    /// Energy per on-chip NoC hop per bit in picojoules.
    pub pj_per_bit_noc_hop: f64,
    /// Energy per ARE ALU operation in picojoules.
    pub pj_per_are_op: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            pj_per_bit_hop: 5.0,
            pj_per_bit_hmc: 12.0,
            pj_per_bit_dram: 39.0,
            pj_per_l1_access: 20.0,
            pj_per_l2_access: 120.0,
            pj_per_bit_noc_hop: 1.0,
            pj_per_are_op: 15.0,
        }
    }
}

/// Complete system configuration (Table 4.1 plus the scheme under test).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Host core parameters.
    pub cores: CoreConfig,
    /// Cache hierarchy parameters.
    pub caches: CacheConfig,
    /// On-chip network parameters.
    pub noc: NocConfig,
    /// DDR baseline parameters.
    pub dram: DramConfig,
    /// HMC cube parameters.
    pub hmc: HmcConfig,
    /// Memory-network parameters.
    pub network: NetworkConfig,
    /// Active-Routing Engine parameters.
    pub are: AreConfig,
    /// Power/energy constants.
    pub power: PowerConfig,
    /// Main-memory substrate.
    pub memory_mode: MemoryMode,
    /// Offloading scheme.
    pub scheme: OffloadScheme,
    /// Safety limit on simulated network cycles (0 = unlimited).
    pub max_cycles: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper()
    }
}

impl SystemConfig {
    /// The configuration of Table 4.1: 16 O3 cores @ 2 GHz, 16 KB L1, 16 MB
    /// S-NUCA L2, 4x4 mesh, 16-cube dragonfly memory network, HMC memory,
    /// no offloading (the `HMC` baseline).
    pub fn paper() -> Self {
        SystemConfig {
            cores: CoreConfig::default(),
            caches: CacheConfig::default(),
            noc: NocConfig::default(),
            dram: DramConfig::default(),
            hmc: HmcConfig::default(),
            network: NetworkConfig::default(),
            are: AreConfig::default(),
            power: PowerConfig::default(),
            memory_mode: MemoryMode::HmcNetwork,
            scheme: OffloadScheme::None,
            max_cycles: 200_000_000,
        }
    }

    /// A scaled-down configuration for fast unit tests: 4 cores, 4 cubes in a
    /// single group, smaller caches. The architecture is identical.
    pub fn small() -> Self {
        let mut cfg = SystemConfig::paper();
        cfg.cores.count = 4;
        cfg.caches.l2_bytes = 1024 * 1024;
        cfg.caches.l2_banks = 4;
        cfg.noc.mesh_width = 2;
        cfg.network.cubes = 4;
        cfg.network.groups = 2;
        cfg.network.host_ports = 2;
        cfg.dram.channels = 2;
        cfg.max_cycles = 20_000_000;
        cfg
    }

    /// The weak-scaling configuration: a 10x machine over the paper's
    /// (Table 4.1) design point — 160 cores on a 13x13 mesh driving a
    /// 160-cube dragonfly of 10 groups (16 cubes per group, all-to-all
    /// intra-group, 8 host access ports). The per-component architecture
    /// (cores, caches, HMC internals, ARE) is identical to
    /// [`SystemConfig::paper`]; only the machine is wider, which is what the
    /// `kernel_weak_scaling` bench group measures in-flight footprint and
    /// wall clock against.
    pub fn scaled() -> Self {
        let mut cfg = SystemConfig::paper();
        cfg.cores.count = 160;
        cfg.noc.mesh_width = 13;
        cfg.network.cubes = 160;
        cfg.network.groups = 10;
        cfg.network.host_ports = 8;
        cfg
    }

    /// Returns a copy configured as one of the named evaluation configs.
    #[must_use]
    pub fn named(mut self, named: NamedConfig) -> Self {
        self.memory_mode = named.memory_mode();
        self.scheme = named.scheme();
        self
    }

    /// Returns a copy with the given offloading scheme (implies the HMC
    /// memory network when the scheme offloads).
    #[must_use]
    pub fn with_scheme(mut self, scheme: OffloadScheme) -> Self {
        self.scheme = scheme;
        if scheme.offloads() {
            self.memory_mode = MemoryMode::HmcNetwork;
        }
        self
    }

    /// Returns a copy with the given memory mode.
    #[must_use]
    pub fn with_memory_mode(mut self, mode: MemoryMode) -> Self {
        self.memory_mode = mode;
        self
    }

    /// Address map of the HMC memory network implied by this configuration.
    pub fn address_map(&self) -> AddressMap {
        AddressMap::new(self.network.cubes, self.hmc.vaults, self.hmc.banks_per_vault)
    }

    /// Number of core cycles per network cycle (2 in the paper: 2 GHz cores,
    /// 1 GHz memory-network clock).
    pub fn core_cycles_per_network_cycle(&self) -> u64 {
        (self.cores.clock_ghz / self.network.clock_ghz).round().max(1.0) as u64
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency found,
    /// e.g. zero cores, zero HMC vaults, banks or vault queue depth, a mesh
    /// too small for the memory controllers, cube count not divisible by
    /// the group count, or an offloading scheme combined with the DDR
    /// baseline.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores.count == 0 {
            return Err(ConfigError::new("core count must be non-zero"));
        }
        if self.cores.rob_entries == 0 || self.cores.issue_width == 0 {
            return Err(ConfigError::new("ROB size and issue width must be non-zero"));
        }
        if self.network.cubes == 0 || self.network.host_ports == 0 {
            return Err(ConfigError::new("memory network needs at least one cube and one port"));
        }
        for (field, size) in [
            ("hmc.vaults", self.hmc.vaults),
            ("hmc.banks_per_vault", self.hmc.banks_per_vault),
            ("hmc.vault_queue_depth", self.hmc.vault_queue_depth),
        ] {
            if size == 0 {
                return Err(ConfigError::new(format!("{field} must be non-zero")));
            }
        }
        if !self.network.cubes.is_multiple_of(self.network.groups) {
            return Err(ConfigError::new("cube count must be divisible by dragonfly group count"));
        }
        if self.network.host_ports > self.network.groups {
            return Err(ConfigError::new(
                "at most one host access port per dragonfly group is supported",
            ));
        }
        if self.noc.mesh_width * self.noc.mesh_width < self.cores.count {
            return Err(ConfigError::new("mesh is too small for the configured core count"));
        }
        if self.scheme.offloads() && self.memory_mode == MemoryMode::DdrBaseline {
            return Err(ConfigError::new(
                "Active-Routing offloading requires the HMC memory network",
            ));
        }
        if self.caches.block_bytes != 64 {
            return Err(ConfigError::new("only 64-byte cache blocks are supported"));
        }
        if self.are.operand_buffers == 0 || self.are.flow_table_entries == 0 {
            return Err(ConfigError::new("ARE needs at least one flow entry and operand buffer"));
        }
        Ok(())
    }

    /// Encodes every field of the configuration as a [`Json`] document.
    ///
    /// This is a one-way encoding used for *content addressing*: the
    /// sweep-server result cache includes it (canonically rendered) in each
    /// cache key, so changing any timing parameter, platform dimension or
    /// the cycle limit automatically invalidates the affected entries. There
    /// is deliberately no `from_json` — configurations travel as code, only
    /// their identity travels as data.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "cores",
                Json::obj([
                    ("count", Json::from(self.cores.count)),
                    ("clock_ghz", Json::from(self.cores.clock_ghz)),
                    ("issue_width", Json::from(self.cores.issue_width)),
                    ("rob_entries", Json::from(self.cores.rob_entries)),
                    ("max_outstanding_mem", Json::from(self.cores.max_outstanding_mem)),
                    ("mi_queue_depth", Json::from(self.cores.mi_queue_depth)),
                ]),
            ),
            (
                "caches",
                Json::obj([
                    ("l1_bytes", Json::from(self.caches.l1_bytes)),
                    ("l1_ways", Json::from(self.caches.l1_ways)),
                    ("l1_hit_latency", Json::from(self.caches.l1_hit_latency)),
                    ("l2_bytes", Json::from(self.caches.l2_bytes)),
                    ("l2_ways", Json::from(self.caches.l2_ways)),
                    ("l2_hit_latency", Json::from(self.caches.l2_hit_latency)),
                    ("l2_banks", Json::from(self.caches.l2_banks)),
                    ("mshrs", Json::from(self.caches.mshrs)),
                    ("block_bytes", Json::from(self.caches.block_bytes)),
                ]),
            ),
            (
                "noc",
                Json::obj([
                    ("mesh_width", Json::from(self.noc.mesh_width)),
                    ("hop_latency", Json::from(self.noc.hop_latency)),
                    ("link_bytes_per_cycle", Json::from(self.noc.link_bytes_per_cycle)),
                    ("memory_controllers", Json::from(self.noc.memory_controllers)),
                ]),
            ),
            (
                "dram",
                Json::obj([
                    ("channels", Json::from(self.dram.channels)),
                    ("ranks_per_channel", Json::from(self.dram.ranks_per_channel)),
                    ("banks_per_rank", Json::from(self.dram.banks_per_rank)),
                    ("t_rcd", Json::from(self.dram.t_rcd)),
                    ("t_ras", Json::from(self.dram.t_ras)),
                    ("t_rp", Json::from(self.dram.t_rp)),
                    ("t_cl", Json::from(self.dram.t_cl)),
                    ("t_bl", Json::from(self.dram.t_bl)),
                    ("t_rr", Json::from(self.dram.t_rr)),
                    ("bus_ghz", Json::from(self.dram.bus_ghz)),
                    ("queue_depth", Json::from(self.dram.queue_depth)),
                    ("capacity_gib", Json::from(self.dram.capacity_gib)),
                ]),
            ),
            (
                "hmc",
                Json::obj([
                    ("capacity_gib", Json::from(self.hmc.capacity_gib)),
                    ("layers", Json::from(self.hmc.layers)),
                    ("vaults", Json::from(self.hmc.vaults)),
                    ("banks_per_vault", Json::from(self.hmc.banks_per_vault)),
                    ("vault_access_latency", Json::from(self.hmc.vault_access_latency)),
                    ("bank_busy_penalty", Json::from(self.hmc.bank_busy_penalty)),
                    ("vault_queue_depth", Json::from(self.hmc.vault_queue_depth)),
                    ("bank_occupancy", Json::from(self.hmc.bank_occupancy)),
                    ("crossbar_latency", Json::from(self.hmc.crossbar_latency)),
                ]),
            ),
            (
                "network",
                Json::obj([
                    ("cubes", Json::from(self.network.cubes)),
                    ("host_ports", Json::from(self.network.host_ports)),
                    ("groups", Json::from(self.network.groups)),
                    ("lanes", Json::from(self.network.lanes)),
                    ("gbps_per_lane", Json::from(self.network.gbps_per_lane)),
                    ("clock_ghz", Json::from(self.network.clock_ghz)),
                    ("hop_latency", Json::from(self.network.hop_latency)),
                    ("virtual_channels", Json::from(self.network.virtual_channels)),
                    ("vc_buffer_packets", Json::from(self.network.vc_buffer_packets)),
                    ("link_bytes_per_cycle", Json::from(self.network.link_bytes_per_cycle)),
                ]),
            ),
            (
                "are",
                Json::obj([
                    ("flow_table_entries", Json::from(self.are.flow_table_entries)),
                    ("operand_buffers", Json::from(self.are.operand_buffers)),
                    ("alu_issue_per_cycle", Json::from(self.are.alu_issue_per_cycle)),
                    ("decode_latency", Json::from(self.are.decode_latency)),
                    ("adaptive_threshold", Json::from(self.are.adaptive_threshold)),
                ]),
            ),
            (
                "power",
                Json::obj([
                    ("pj_per_bit_hop", Json::from(self.power.pj_per_bit_hop)),
                    ("pj_per_bit_hmc", Json::from(self.power.pj_per_bit_hmc)),
                    ("pj_per_bit_dram", Json::from(self.power.pj_per_bit_dram)),
                    ("pj_per_l1_access", Json::from(self.power.pj_per_l1_access)),
                    ("pj_per_l2_access", Json::from(self.power.pj_per_l2_access)),
                    ("pj_per_bit_noc_hop", Json::from(self.power.pj_per_bit_noc_hop)),
                    ("pj_per_are_op", Json::from(self.power.pj_per_are_op)),
                ]),
            ),
            (
                "memory_mode",
                Json::from(match self.memory_mode {
                    MemoryMode::DdrBaseline => "ddr_baseline",
                    MemoryMode::HmcNetwork => "hmc_network",
                }),
            ),
            ("scheme", Json::from(self.scheme.to_string())),
            ("max_cycles", Json::from(self.max_cycles)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table_4_1() {
        let cfg = SystemConfig::paper();
        assert_eq!(cfg.cores.count, 16);
        assert_eq!(cfg.cores.issue_width, 8);
        assert_eq!(cfg.cores.rob_entries, 64);
        assert_eq!(cfg.caches.l1_bytes, 16 * 1024);
        assert_eq!(cfg.caches.l2_bytes, 16 * 1024 * 1024);
        assert_eq!(cfg.noc.mesh_width, 4);
        assert_eq!(cfg.dram.channels, 4);
        assert_eq!(cfg.dram.t_rcd, 14);
        assert_eq!(cfg.hmc.vaults, 32);
        assert_eq!(cfg.network.cubes, 16);
        assert_eq!(cfg.network.host_ports, 4);
        assert_eq!(cfg.network.lanes, 16);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn small_config_is_valid() {
        assert!(SystemConfig::small().validate().is_ok());
    }

    #[test]
    fn scaled_config_is_a_valid_10x_machine() {
        let cfg = SystemConfig::scaled();
        assert!(cfg.validate().is_ok());
        let paper = SystemConfig::paper();
        assert_eq!(cfg.cores.count, 10 * paper.cores.count);
        assert_eq!(cfg.network.cubes, 10 * paper.network.cubes);
        assert!(cfg.network.cubes.is_multiple_of(cfg.network.groups));
        assert!(cfg.network.host_ports <= cfg.network.groups);
        // The per-component architecture is unchanged.
        assert_eq!(cfg.hmc, paper.hmc);
        assert_eq!(cfg.caches, paper.caches);
        assert_eq!(cfg.are, paper.are);
    }

    #[test]
    fn named_configs_map_to_modes_and_schemes() {
        assert_eq!(NamedConfig::Dram.memory_mode(), MemoryMode::DdrBaseline);
        assert_eq!(NamedConfig::Hmc.scheme(), OffloadScheme::None);
        assert_eq!(NamedConfig::Art.scheme(), OffloadScheme::Art);
        assert_eq!(NamedConfig::ArfTid.memory_mode(), MemoryMode::HmcNetwork);
        let cfg = SystemConfig::paper().named(NamedConfig::ArfAddr);
        assert_eq!(cfg.scheme, OffloadScheme::ArfAddr);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn offload_on_dram_is_rejected() {
        let mut cfg = SystemConfig::paper();
        cfg.memory_mode = MemoryMode::DdrBaseline;
        cfg.scheme = OffloadScheme::ArfTid;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn with_scheme_forces_hmc_network() {
        let cfg = SystemConfig::paper()
            .with_memory_mode(MemoryMode::DdrBaseline)
            .with_scheme(OffloadScheme::Art);
        assert_eq!(cfg.memory_mode, MemoryMode::HmcNetwork);
    }

    #[test]
    fn clock_ratio_is_two() {
        assert_eq!(SystemConfig::paper().core_cycles_per_network_cycle(), 2);
    }

    #[test]
    fn invalid_group_division_rejected() {
        let mut cfg = SystemConfig::paper();
        cfg.network.groups = 3;
        assert!(cfg.validate().is_err());
    }

    /// The paper configuration with one HMC size set to zero, and the
    /// message its validation fails with.
    fn zero_hmc_size(zero: fn(&mut HmcConfig)) -> String {
        let mut cfg = SystemConfig::paper();
        zero(&mut cfg.hmc);
        cfg.validate().unwrap_err().to_string()
    }

    #[test]
    fn zero_vaults_are_rejected() {
        let err = zero_hmc_size(|hmc| hmc.vaults = 0);
        assert!(err.contains("hmc.vaults must be non-zero"), "{err}");
    }

    #[test]
    fn zero_banks_per_vault_are_rejected() {
        let err = zero_hmc_size(|hmc| hmc.banks_per_vault = 0);
        assert!(err.contains("hmc.banks_per_vault must be non-zero"), "{err}");
    }

    #[test]
    fn zero_vault_queue_depth_is_rejected() {
        let err = zero_hmc_size(|hmc| hmc.vault_queue_depth = 0);
        assert!(err.contains("hmc.vault_queue_depth must be non-zero"), "{err}");
    }

    #[test]
    fn all_with_adaptive_extends_the_plotted_five() {
        assert_eq!(NamedConfig::ALL_WITH_ADAPTIVE[..5], NamedConfig::ALL);
        assert_eq!(NamedConfig::ALL_WITH_ADAPTIVE[5], NamedConfig::ArfTidAdaptive);
        assert!(!NamedConfig::ALL.contains(&NamedConfig::ArfTidAdaptive));
    }

    #[test]
    fn scheme_display_names() {
        assert_eq!(OffloadScheme::ArfTid.to_string(), "ARF-tid");
        assert_eq!(NamedConfig::Dram.to_string(), "DRAM");
        assert_eq!(NamedConfig::ArfTidAdaptive.to_string(), "ARF-tid-adaptive");
    }

    #[test]
    fn config_json_identity_tracks_every_knob() {
        let paper = SystemConfig::paper().to_json();
        // Distinct configurations get distinct content addresses...
        assert_ne!(paper.content_hash(), SystemConfig::small().to_json().content_hash());
        let mut tweaked = SystemConfig::paper();
        tweaked.hmc.vault_access_latency += 1;
        assert_ne!(paper.content_hash(), tweaked.to_json().content_hash());
        let mut limited = SystemConfig::paper();
        limited.max_cycles /= 2;
        assert_ne!(paper.content_hash(), limited.to_json().content_hash());
        // ...while an identical clone hashes identically.
        assert_eq!(paper.content_hash(), SystemConfig::paper().to_json().content_hash());
        // Spot-check the encoding itself.
        assert_eq!(
            paper.get("cores").and_then(|c| c.get("count")).and_then(Json::as_u64),
            Some(16)
        );
        assert_eq!(paper.get("scheme").and_then(Json::as_str), Some("none"));
    }
}
