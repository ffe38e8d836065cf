//! The typed experiment-driver entry point: [`Simulation`] and
//! [`SimulationBuilder`].
//!
//! The builder pairs a base [`SystemConfig`] with a [`NamedConfig`], a
//! [`Workload`] (one of the built-in [`ar_workloads::WorkloadKind`]s or any
//! custom implementation), a [`SizeClass`] and optional streaming
//! [`Observer`]s, and produces a ready-to-run [`Simulation`]. It subsumed
//! (and has since replaced) the free-function drivers that used to live in
//! [`crate::runner`]; that module now only keeps the verification helpers.
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
//! let sim = Simulation::builder()
//!     .config(cfg)
//!     .named(NamedConfig::ArfTid)
//!     .workload(WorkloadKind::Reduce)
//!     .size(SizeClass::Tiny)
//!     .build()
//!     .expect("valid configuration");
//! let references = sim.references().to_vec();
//! let report = sim.run();
//! assert!(report.completed);
//! assert_eq!(ar_system::runner::verify_gathers(&report, &references), 0);
//! ```

use crate::checkpoint::Checkpoint;
use crate::observer::Observer;
use crate::report::SimReport;
use crate::system::System;
use ar_types::config::{MemoryMode, NamedConfig, SystemConfig};
use ar_types::error::ConfigError;
use ar_types::{Addr, Cycle};
use ar_workloads::{SizeClass, Variant, Workload};
use std::sync::Arc;

/// A fully wired simulation: the system, its attached observers, and the
/// workload's functional reference results.
pub struct Simulation {
    system: System,
    observers: Vec<Box<dyn Observer>>,
    references: Vec<(Addr, f64)>,
    lockstep: bool,
    size: SizeClass,
    variant: Variant,
}

impl Simulation {
    /// Starts building a simulation. See the [module docs](self) for the
    /// full call chain.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::new()
    }

    /// The workload's functional reference results (`(target, expected)`),
    /// for checking the run's gathered values with
    /// [`crate::runner::verify_gathers`]. Empty for baseline variants.
    pub fn references(&self) -> &[(Addr, f64)] {
        &self.references
    }

    /// Runs the simulation to completion (or to the cycle limit, or to an
    /// observer-requested stop) and returns the report.
    pub fn run(mut self) -> SimReport {
        if self.lockstep {
            self.system.run_lockstep_observed(&mut self.observers)
        } else {
            self.system.run_observed(&mut self.observers)
        }
    }

    /// Runs the configured kernel forward to network cycle `until` (or the
    /// configured cycle limit, whichever is lower) and stops at a settled
    /// boundary that [`Simulation::checkpoint`] can snapshot. Returns whether
    /// the run quiesced within the prefix. May be called repeatedly; a later
    /// [`Simulation::run`] continues from the boundary and produces the same
    /// report as an uninterrupted run.
    pub fn run_prefix(&mut self, until: Cycle) -> bool {
        self.system.run_prefix(until, self.lockstep)
    }

    /// Snapshots the complete dynamic state at the current settled boundary
    /// (cycle 0 on a fresh simulation, or wherever [`Simulation::run_prefix`]
    /// stopped). Restore with [`SimulationBuilder::from_checkpoint`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            config_hash: self.system.config().to_json().content_hash(),
            workload: self.system.workload().to_string(),
            size: self.size,
            variant: self.variant,
            cycle: self.system.resume_cycle(),
            completed: self.system.prefix_completed(),
            state: self.system.state_to_json(),
        }
    }

    /// Unwraps the underlying [`System`], discarding observers — for callers
    /// that need the raw run methods (e.g. the kernel benchmarks).
    pub fn into_system(self) -> System {
        self.system
    }

    /// The underlying [`System`], for reading run progress between
    /// [`Simulation::run_prefix`] calls (e.g. the sampling harness).
    pub fn system(&self) -> &System {
        &self.system
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("system", &self.system)
            .field("observers", &self.observers.len())
            .field("references", &self.references.len())
            .field("lockstep", &self.lockstep)
            .finish()
    }
}

/// Builder for a [`Simulation`]; create one with [`Simulation::builder`].
///
/// Only the workload is mandatory. Defaults: the Table 4.1 base
/// configuration ([`SystemConfig::paper`]), no named overlay,
/// [`SizeClass::Small`], the variant implied by the offload scheme, no
/// observers, the event-driven kernel.
pub struct SimulationBuilder {
    base: SystemConfig,
    named: Option<NamedConfig>,
    workload: Option<Arc<dyn Workload>>,
    size: SizeClass,
    variant: Option<Variant>,
    observers: Vec<Box<dyn Observer>>,
    lockstep: bool,
    fast_forward: Option<bool>,
    drain_fast_forward: Option<bool>,
    checkpoint: Option<Checkpoint>,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// Creates a builder with the defaults described on the type.
    pub fn new() -> Self {
        SimulationBuilder {
            base: SystemConfig::paper(),
            named: None,
            workload: None,
            size: SizeClass::Small,
            variant: None,
            observers: Vec::new(),
            lockstep: false,
            fast_forward: None,
            drain_fast_forward: None,
            checkpoint: None,
        }
    }

    /// Restores a [`Checkpoint`] instead of starting from cycle 0, and
    /// adopts the checkpoint's size class and variant.
    ///
    /// The caller still supplies the configuration and workload — a
    /// checkpoint carries only dynamic state plus identity, never code or
    /// streams (see [`crate::checkpoint`]). [`SimulationBuilder::build`]
    /// fails when the rebuilt configuration or regenerated workload does not
    /// match the one the snapshot was taken under. Report-neutral kernel
    /// knobs (fast-forwarding, drain, lock-step) may
    /// differ freely between the snapshotting run and the restored one.
    #[must_use]
    pub fn from_checkpoint(mut self, checkpoint: Checkpoint) -> Self {
        self.size = checkpoint.size;
        self.variant = Some(checkpoint.variant);
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Sets the base system configuration (platform dimensions, timings,
    /// cycle limit). Applied before the named overlay.
    #[must_use]
    pub fn config(mut self, base: SystemConfig) -> Self {
        self.base = base;
        self
    }

    /// Overlays one of the named evaluation configurations (memory mode +
    /// offload scheme) and uses its display name as the report label.
    #[must_use]
    pub fn named(mut self, named: NamedConfig) -> Self {
        self.named = Some(named);
        self
    }

    /// Sets the workload. Accepts any [`Workload`], including the built-in
    /// [`ar_workloads::WorkloadKind`] variants.
    #[must_use]
    pub fn workload(mut self, workload: impl Workload + 'static) -> Self {
        self.workload = Some(Arc::new(workload));
        self
    }

    /// Sets the workload from an already-shared handle (e.g. one obtained
    /// from a [`ar_workloads::WorkloadRegistry`]).
    #[must_use]
    pub fn workload_arc(mut self, workload: Arc<dyn Workload>) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the problem-size class (default [`SizeClass::Small`]).
    #[must_use]
    pub fn size(mut self, size: SizeClass) -> Self {
        self.size = size;
        self
    }

    /// Overrides the workload variant. Without this, the variant follows the
    /// offload scheme: baselines run [`Variant::Baseline`], the adaptive
    /// scheme runs [`Variant::Adaptive`], every other scheme
    /// [`Variant::Active`] — the pairing of Section 5.1.
    #[must_use]
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = Some(variant);
        self
    }

    /// Attaches a streaming [`Observer`]. May be called repeatedly; events
    /// fan out to every observer in attachment order.
    #[must_use]
    pub fn observer(mut self, observer: impl Observer + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Uses the lock-step reference kernel instead of the event-driven one
    /// (for equivalence tests and benchmarks).
    #[must_use]
    pub fn lockstep(mut self) -> Self {
        self.lockstep = true;
        self
    }

    /// Forces bulk compute fast-forwarding on or off (see
    /// [`System::with_fast_forward`]).
    ///
    /// Without this call the builder decides automatically from the
    /// generated workload's compute-block statistics
    /// ([`ar_workloads::GeneratedWorkload::compute_block_stats`]): the fast
    /// path is armed only when some block is at least
    /// [`ar_cpu::PROFITABLE_BLOCK_INSNS`] instructions long, because shorter
    /// blocks never yield a skippable interval and the per-tick eligibility
    /// probes would be pure overhead. The [`SimReport`] is byte-identical in
    /// every mode — the equivalence suite's on/off axis asserts exactly that
    /// — so the knob (and the auto decision) only place wall-clock work.
    /// Ignored by the lock-step reference kernel, which never fast-forwards.
    #[must_use]
    pub fn fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = Some(enabled);
        self
    }

    /// Forces offload-drain fast-forwarding on or off (see
    /// [`System::with_drain_fast_forward`]).
    ///
    /// Without this call the builder enables the drain planner exactly when
    /// the generated workload offloads at all (`updates > 0`): a workload
    /// with no `Update` items can never enter the MI-full drain regime, so
    /// the per-cycle arming probe would be pure overhead. As with compute
    /// fast-forwarding, the [`SimReport`] is byte-identical in every mode —
    /// the equivalence suite's on/off axis asserts exactly that — so the
    /// knob only places wall-clock work. Ignored by the lock-step reference
    /// kernel, which never plans drain windows.
    #[must_use]
    pub fn drain_fast_forward(mut self, enabled: bool) -> Self {
        self.drain_fast_forward = Some(enabled);
        self
    }

    /// Generates the workload, validates the configuration and wires the
    /// system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when no workload was set or when the
    /// (overlaid) configuration is inconsistent.
    pub fn build(self) -> Result<Simulation, ConfigError> {
        let workload = self.workload.ok_or_else(|| {
            ConfigError::new("SimulationBuilder needs a workload (.workload(..))")
        })?;
        let cfg = match self.named {
            Some(named) => self.base.named(named),
            None => self.base,
        };
        let variant = self.variant.unwrap_or_else(|| variant_for_scheme(cfg.scheme));
        let generated = workload.generate(cfg.cores.count, self.size, variant);
        let label = match self.named {
            Some(named) => named.to_string(),
            None if cfg.scheme.offloads() => cfg.scheme.to_string(),
            None => match cfg.memory_mode {
                MemoryMode::DdrBaseline => "DRAM".to_string(),
                MemoryMode::HmcNetwork => "HMC".to_string(),
            },
        };
        let fast_forward = self.fast_forward.unwrap_or_else(|| {
            generated.compute_block_stats().longest_block >= ar_cpu::PROFITABLE_BLOCK_INSNS
        });
        let drain_fast_forward = self.drain_fast_forward.unwrap_or(generated.updates > 0);
        let mut system = System::new(cfg, generated.streams, generated.memory)?
            .with_labels(generated.name, label)
            .with_fast_forward(fast_forward)
            .with_drain_fast_forward(drain_fast_forward);
        if let Some(ck) = &self.checkpoint {
            let config_hash = system.config().to_json().content_hash();
            if ck.config_hash != config_hash {
                return Err(ConfigError::new(format!(
                    "checkpoint was taken under configuration {:016x} but the builder \
                     produced {config_hash:016x}; restore requires the identical \
                     base/named configuration",
                    ck.config_hash
                )));
            }
            if ck.workload != system.workload() {
                return Err(ConfigError::new(format!(
                    "checkpoint belongs to workload {:?} but the builder generated {:?}",
                    ck.workload,
                    system.workload()
                )));
            }
            if ck.size != self.size || ck.variant != variant {
                return Err(ConfigError::new(format!(
                    "checkpoint is a {}/{} run but the builder is configured for {}/{}",
                    ck.size, ck.variant, self.size, variant
                )));
            }
            system.load_state(&ck.state).map_err(|e| {
                ConfigError::new(format!("checkpoint state failed to restore: {}", e.message))
            })?;
        }
        Ok(Simulation {
            system,
            observers: self.observers,
            references: generated.references,
            lockstep: self.lockstep,
            size: self.size,
            variant,
        })
    }
}

/// The workload variant implied by an offload scheme (Section 5.1 / 5.4):
/// baselines run the unoptimised kernels, the adaptive scheme the
/// dynamically offloaded ones, everything else the offloaded ones. The
/// single source of this pairing — the builder and the deprecated
/// [`crate::runner::variant_for`] alias both delegate here.
pub fn variant_for_scheme(scheme: ar_types::config::OffloadScheme) -> Variant {
    use ar_types::config::OffloadScheme;
    match scheme {
        OffloadScheme::None => Variant::Baseline,
        OffloadScheme::ArfTidAdaptive => Variant::Adaptive,
        OffloadScheme::Art | OffloadScheme::ArfTid | OffloadScheme::ArfAddr => Variant::Active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{ObserverControl, SampleRecorder, SimEvent};
    use ar_workloads::{GeneratedWorkload, WorkloadKind};

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::small();
        cfg.max_cycles = 2_000_000;
        cfg
    }

    #[test]
    fn builder_requires_a_workload() {
        let err = Simulation::builder().config(small_cfg()).build();
        assert!(err.is_err());
    }

    #[test]
    fn builder_matches_the_cell_key_path() {
        let cfg = small_cfg();
        let via_builder = Simulation::builder()
            .config(cfg.clone())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Reduce)
            .size(SizeClass::Tiny)
            .build()
            .expect("valid")
            .run();
        // The sweep server executes cells through CellKey::configure; the
        // two construction paths must stay behaviourally identical.
        let via_cell = crate::CellKey::new("reduce", NamedConfig::ArfTid, SizeClass::Tiny)
            .configure(&cfg, std::sync::Arc::new(WorkloadKind::Reduce))
            .build()
            .expect("valid")
            .run();
        assert_eq!(via_builder, via_cell);
    }

    #[test]
    fn variant_follows_the_scheme_unless_overridden() {
        assert_eq!(variant_for_scheme(NamedConfig::Hmc.scheme()), Variant::Baseline);
        assert_eq!(variant_for_scheme(NamedConfig::ArfTidAdaptive.scheme()), Variant::Adaptive);
        assert_eq!(variant_for_scheme(NamedConfig::Art.scheme()), Variant::Active);

        // Forcing the baseline variant onto an offloading config runs it
        // without any offloads.
        let report = Simulation::builder()
            .config(small_cfg())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Mac)
            .size(SizeClass::Tiny)
            .variant(Variant::Baseline)
            .build()
            .expect("valid")
            .run();
        assert!(report.completed);
        assert_eq!(report.updates_offloaded, 0);
    }

    #[test]
    fn labels_without_a_named_config_fall_back_to_the_scheme() {
        let mut cfg = small_cfg();
        cfg.memory_mode = MemoryMode::DdrBaseline;
        let report = Simulation::builder()
            .config(cfg)
            .workload(WorkloadKind::Reduce)
            .size(SizeClass::Tiny)
            .build()
            .expect("valid")
            .run();
        assert_eq!(report.config_label, "DRAM");
        assert_eq!(report.workload, "reduce");
    }

    #[test]
    fn observers_stream_events_and_can_stop_the_run() {
        // A full run streams samples and gathers.
        let report = Simulation::builder()
            .config(small_cfg())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Reduce)
            .size(SizeClass::Tiny)
            .observer(SampleRecorder::new())
            .build()
            .expect("valid")
            .run();
        assert!(report.completed);

        // An immediately-stopping observer truncates it.
        struct StopNow;
        impl crate::Observer for StopNow {
            fn on_event(&mut self, _: &SimEvent) -> ObserverControl {
                ObserverControl::Stop
            }
        }
        let stopped = Simulation::builder()
            .config(small_cfg())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Reduce)
            .size(SizeClass::Tiny)
            .observer(StopNow)
            .build()
            .expect("valid")
            .run();
        assert!(!stopped.completed, "an early stop must report an incomplete run");
    }

    fn arf_tid_reduce() -> SimulationBuilder {
        Simulation::builder()
            .config(small_cfg())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Reduce)
            .size(SizeClass::Tiny)
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let full = arf_tid_reduce().build().expect("valid").run();

        // Snapshot mid-run, push the checkpoint through its on-disk JSON
        // encoding, restore into a fresh simulation, run to the end.
        let mut warm = arf_tid_reduce().build().expect("valid");
        assert!(!warm.run_prefix(500), "prefix must stop before quiescence");
        let ck = warm.checkpoint();
        assert_eq!(ck.cycle, 500);
        let wire = ar_types::json::Json::parse(&ck.to_json().render()).expect("valid JSON");
        let restored = crate::Checkpoint::from_json(&wire).expect("decodes");
        assert_eq!(restored, ck);
        let resumed = arf_tid_reduce().from_checkpoint(restored).build().expect("restores").run();
        assert_eq!(resumed, full, "restored run must reproduce the full report");

        // The kernel knobs are report-neutral across the restore boundary:
        // resume the same snapshot on the lock-step kernel.
        let lockstep = arf_tid_reduce().from_checkpoint(ck).lockstep().build().expect("ok").run();
        assert_eq!(lockstep, full);
    }

    #[test]
    fn checkpoints_can_stack_across_repeated_prefixes() {
        let full = arf_tid_reduce().build().expect("valid").run();
        let mut sim = arf_tid_reduce().build().expect("valid");
        // Walk the run in prefix hops, re-snapshotting and re-restoring at
        // every boundary; the final report must still be byte-identical.
        for hop in [1_000u64, 7_777, 20_000] {
            sim.run_prefix(hop);
            let ck = sim.checkpoint();
            sim = arf_tid_reduce().from_checkpoint(ck).build().expect("restores");
        }
        assert_eq!(sim.run(), full);
    }

    #[test]
    fn mismatched_checkpoints_are_rejected() {
        let mut sim = arf_tid_reduce().build().expect("valid");
        sim.run_prefix(1_000);
        let ck = sim.checkpoint();

        // Wrong workload.
        let err = Simulation::builder()
            .config(small_cfg())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Mac)
            .size(SizeClass::Tiny)
            .from_checkpoint(ck.clone())
            .build();
        assert!(err.is_err(), "workload mismatch must fail");

        // Wrong named configuration (different config hash).
        let err = Simulation::builder()
            .config(small_cfg())
            .named(NamedConfig::Art)
            .workload(WorkloadKind::Reduce)
            .size(SizeClass::Tiny)
            .from_checkpoint(ck.clone())
            .build();
        assert!(err.is_err(), "config mismatch must fail");

        // Overriding the checkpoint's size after restoring it must fail.
        let err = arf_tid_reduce().from_checkpoint(ck).size(SizeClass::Small).build();
        assert!(err.is_err(), "size mismatch must fail");
    }

    #[test]
    fn custom_workloads_run_through_the_builder() {
        struct ComputeOnly;
        impl Workload for ComputeOnly {
            fn name(&self) -> &str {
                "compute_only"
            }
            fn generate(
                &self,
                threads: usize,
                _size: SizeClass,
                variant: Variant,
            ) -> GeneratedWorkload {
                let mut kernel = active_routing::ActiveKernel::new(threads);
                for t in 0..threads {
                    kernel.compute(t, 64);
                }
                GeneratedWorkload {
                    name: "compute_only".to_string(),
                    variant,
                    streams: kernel.into_streams(),
                    memory: Vec::new(),
                    references: Vec::new(),
                    updates: 0,
                }
            }
        }
        let report = Simulation::builder()
            .config(small_cfg())
            .named(NamedConfig::Hmc)
            .workload(ComputeOnly)
            .size(SizeClass::Tiny)
            .build()
            .expect("valid")
            .run();
        assert!(report.completed);
        assert_eq!(report.workload, "compute_only");
        assert!(report.instructions > 0);
    }
}
