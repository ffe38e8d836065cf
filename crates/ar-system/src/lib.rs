//! Full-system integration of the Active-Routing evaluation platform.
//!
//! This crate wires every substrate together into the system of Fig. 3.1 /
//! Table 4.1 and runs it cycle by cycle:
//!
//! * 16 out-of-order cores ([`ar_cpu`]) executing per-thread
//!   [`ar_types::WorkStream`]s, with private L1s and a shared S-NUCA L2 kept
//!   coherent by a directory ([`ar_cache`]), connected by a 4×4 mesh
//!   ([`ar_network::MeshNoc`]);
//! * either the DDR DRAM baseline ([`ar_dram`]) or a 16-cube dragonfly memory
//!   network of HMCs ([`ar_network::MemoryNetwork`], [`ar_hmc`]) with one
//!   Active-Routing Engine per cube ([`active_routing`]);
//! * the host offload controller that turns Message-Interface commands into
//!   active packets and collects gather results.
//!
//! # Driving experiments
//!
//! The experiment-driver surface has three layers:
//!
//! * [`SimulationBuilder`] (via [`Simulation::builder`]) — one run: pair a
//!   base [`ar_types::config::SystemConfig`] with a named configuration, any
//!   [`ar_workloads::Workload`] and a size class, optionally attach
//!   streaming [`Observer`]s, and [`Simulation::run`] it to a [`SimReport`];
//! * [`Sweep`] — a configs × workloads × sizes matrix fanned out over
//!   `std::thread` workers with deterministic, thread-count-independent
//!   result ordering;
//! * [`System`] — the raw model, for hand-built
//!   [`ar_types::WorkStream`]s and memory images.
//!
//! A sweep point can also travel as a [`CellKey`] — workload name, named
//! configuration, size and knobs — which is how the `ar-serve` sweep server
//! schedules, deduplicates and content-addresses remote runs.
//! Every run produces a [`SimReport`], the single input from which the
//! experiments crate regenerates each figure of the paper's evaluation;
//! [`SimReport::to_json`] / [`SimReport::from_json`] serialise it through
//! the in-tree [`ar_types::json`] shim.
//!
//! # Example
//!
//! ```
//! use ar_system::Simulation;
//! use ar_types::config::{NamedConfig, SystemConfig};
//! use ar_workloads::{SizeClass, WorkloadKind};
//!
//! let mut cfg = SystemConfig::small();
//! cfg.max_cycles = 2_000_000;
//! let report = Simulation::builder()
//!     .config(cfg)
//!     .named(NamedConfig::ArfTid)
//!     .workload(WorkloadKind::Reduce)
//!     .size(SizeClass::Tiny)
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! assert!(report.completed);
//! assert!(report.updates_offloaded > 0);
//! ```

pub mod builder;
pub mod checkpoint;
pub mod observer;
pub mod report;
pub mod runner;
pub mod sampling;
pub mod sweep;
pub mod system;

pub use builder::{variant_for_scheme, Simulation, SimulationBuilder};
pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA_VERSION};
pub use observer::{
    DeadlineStop, Observer, ObserverControl, RunInfo, Sample, SampleRecorder, SimEvent,
};
pub use report::{CubeActivity, DataMovement, LatencyBreakdown, SimReport, StallSummary};
pub use runner::{variant_for, verify_gathers};
pub use sampling::{SampledMetric, SampledReport, SamplingPlan};
pub use sweep::{
    warm_fan_out, CellKey, CellKnobs, Sweep, SweepCell, SweepResults, CACHE_SCHEMA_VERSION,
};
pub use system::{RunFootprint, System};
