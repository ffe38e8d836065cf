//! Parallel experiment sweeps over a configs × workloads × sizes matrix.
//!
//! A [`Sweep`] fans the cross product out onto `std::thread` workers (the
//! simulator itself stays single-threaded and deterministic per run) and
//! returns the reports in a deterministic order — workload-major, then
//! configuration, then size — that is byte-identical to running the same
//! points serially. This is the engine behind the `ar-experiments` figure
//! matrix and the `--json` CLI output.
//!
//! # Example
//!
//! ```
//! use ar_system::Sweep;
//! use ar_types::config::{NamedConfig, SystemConfig};
//! use ar_workloads::{SizeClass, WorkloadKind};
//!
//! let mut cfg = SystemConfig::small();
//! cfg.max_cycles = 2_000_000;
//! let results = Sweep::new(cfg)
//!     .configs([NamedConfig::Hmc, NamedConfig::ArfTid])
//!     .workloads([WorkloadKind::Reduce, WorkloadKind::Mac])
//!     .size(SizeClass::Tiny)
//!     .threads(2)
//!     .run()
//!     .expect("valid sweep");
//! assert_eq!(results.len(), 4);
//! let hmc = results.report("reduce", NamedConfig::Hmc, SizeClass::Tiny).unwrap();
//! let arf = results.report("reduce", NamedConfig::ArfTid, SizeClass::Tiny).unwrap();
//! assert!(arf.completed && hmc.completed);
//! ```

use crate::builder::{Simulation, SimulationBuilder};
use crate::report::SimReport;
use ar_types::config::{NamedConfig, SystemConfig};
use ar_types::error::ConfigError;
use ar_types::json::{Json, JsonError};
use ar_workloads::{SizeClass, Workload, WorkloadKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Version stamp of the cached-report key schema.
///
/// Every [`CellKey::cache_key`] document embeds this constant, so bumping it
/// orphans (invalidates) every existing sweep-server cache entry at once.
/// Bump it whenever the *semantics* of a [`SimReport`] change without the
/// inputs changing — a counter means something new, a timing-model fix alters
/// results for identical configurations, a field is added or removed — i.e.
/// whenever the golden-report corpus under `tests/fixtures/` has to be
/// regenerated. Configuration and workload changes never need a bump: they
/// are part of the key itself.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// Execution knobs of one sweep cell. The default keeps the builder's own
/// choices: the automatic fast-forward decision and the base
/// configuration's cycle limit.
///
/// The one kernel knob, `fast_forward`, places wall-clock work without
/// affecting the [`SimReport`] — the equivalence suite pins byte-identical
/// reports in both modes — so it is deliberately *excluded* from
/// [`CellKey::cache_key`]: a report computed with fast-forwarding off is a
/// sound cache hit for a later request that leaves it on. `cycle_limit`
/// truncates the simulation and therefore *is* part of the key (folded into
/// the effective configuration's `max_cycles`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellKnobs {
    /// Forces bulk compute fast-forwarding on or off; `None` keeps the
    /// builder's automatic decision ([`SimulationBuilder::fast_forward`]).
    pub fast_forward: Option<bool>,
    /// Overrides the base configuration's `max_cycles` when set.
    pub cycle_limit: Option<u64>,
}

/// The identity of one sweep cell: which workload, under which named
/// configuration, at which size, with which [`CellKnobs`].
///
/// This is the unit the sweep server schedules and caches by. The workload
/// travels as its registry *name* (resolved against an
/// [`ar_workloads::WorkloadRegistry`] on the executing side) so a cell key
/// can cross a process boundary; [`CellKey::to_json`] / [`CellKey::from_json`]
/// are the wire encoding and [`CellKey::cache_key`] the canonical
/// content-address document.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Workload name, as returned by [`Workload::name`].
    pub workload: String,
    /// Named configuration of the cell.
    pub config: NamedConfig,
    /// Problem-size class of the cell.
    pub size: SizeClass,
    /// Execution knobs.
    pub knobs: CellKnobs,
}

impl CellKey {
    /// A cell key with default knobs.
    pub fn new(workload: impl Into<String>, config: NamedConfig, size: SizeClass) -> Self {
        CellKey { workload: workload.into(), config, size, knobs: CellKnobs::default() }
    }

    /// Returns a copy with the given knobs.
    #[must_use]
    pub fn with_knobs(mut self, knobs: CellKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// A short human-readable label (`workload/config/size`).
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.workload, self.config, self.size)
    }

    /// The [`SimulationBuilder`] for this cell over a base configuration:
    /// named overlay, size, and every knob applied. Callers attach observers
    /// and `build()` — both [`Sweep::run`] and the sweep server execute
    /// cells through here, so a cached report and a fresh run share one
    /// construction path.
    pub fn configure(&self, base: &SystemConfig, workload: Arc<dyn Workload>) -> SimulationBuilder {
        let mut cfg = base.clone();
        if let Some(limit) = self.knobs.cycle_limit {
            cfg.max_cycles = limit;
        }
        let mut builder = Simulation::builder()
            .config(cfg)
            .named(self.config)
            .workload_arc(workload)
            .size(self.size);
        if let Some(ff) = self.knobs.fast_forward {
            builder = builder.fast_forward(ff);
        }
        builder
    }

    /// The canonical cache-key document of this cell over a base
    /// configuration: `{schema, workload, size, config, base}` where `base`
    /// is the *effective* configuration — named overlay applied and
    /// `cycle_limit` folded into `max_cycles`, so the same effective limit
    /// expressed either way produces the same key. The report-neutral
    /// `fast_forward` knob is excluded; see [`CellKnobs`].
    ///
    /// Content-hash this document ([`Json::content_hash`]) to get the cache
    /// address of the cell's report.
    pub fn cache_key(&self, base: &SystemConfig) -> Json {
        let mut effective = base.clone().named(self.config);
        if let Some(limit) = self.knobs.cycle_limit {
            effective.max_cycles = limit;
        }
        Json::obj([
            ("schema", Json::from(CACHE_SCHEMA_VERSION)),
            ("workload", Json::from(self.workload.clone())),
            ("size", Json::from(self.size.to_string())),
            ("config", Json::from(self.config.to_string())),
            ("base", effective.to_json()),
        ])
    }

    /// The content hash of [`CellKey::cache_key`] — the cell's cache address
    /// under the given base configuration.
    pub fn cache_hash(&self, base: &SystemConfig) -> u64 {
        self.cache_key(base).content_hash()
    }

    /// Encodes the cell key (including knobs) for the wire.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.clone())),
            ("config", Json::from(self.config.to_string())),
            ("size", Json::from(self.size.to_string())),
            ("fast_forward", self.knobs.fast_forward.map(Json::from).unwrap_or(Json::Null)),
            ("cycle_limit", self.knobs.cycle_limit.map(Json::from).unwrap_or(Json::Null)),
        ])
    }

    /// Decodes a [`CellKey::to_json`] document. Fields it does not know are
    /// ignored, so documents from clients that still send a retired knob
    /// decode to the same key.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when a field is missing, mistyped, or names
    /// an unknown configuration or size class.
    pub fn from_json(doc: &Json) -> Result<CellKey, JsonError> {
        fn bad(what: &str) -> JsonError {
            JsonError { message: format!("missing or mistyped cell field {what:?}"), offset: 0 }
        }
        let workload =
            doc.get("workload").and_then(Json::as_str).ok_or_else(|| bad("workload"))?.to_string();
        let config = doc
            .get("config")
            .and_then(Json::as_str)
            .and_then(NamedConfig::parse)
            .ok_or_else(|| bad("config"))?;
        let size = doc
            .get("size")
            .and_then(Json::as_str)
            .and_then(SizeClass::parse)
            .ok_or_else(|| bad("size"))?;
        let knobs = CellKnobs {
            fast_forward: match doc.get("fast_forward") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_bool().ok_or_else(|| bad("fast_forward"))?),
            },
            cycle_limit: match doc.get("cycle_limit") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| bad("cycle_limit"))?),
            },
        };
        Ok(CellKey { workload, config, size, knobs })
    }
}

/// One completed sweep point.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Workload name of this point.
    pub workload: String,
    /// Named configuration of this point.
    pub config: NamedConfig,
    /// Size class of this point.
    pub size: SizeClass,
    /// The simulation report.
    pub report: SimReport,
}

/// The results of a sweep, in deterministic workload-major order
/// (`for workload { for config { for size { .. } } }`), independent of the
/// worker-thread count.
#[derive(Debug, Clone, Default)]
pub struct SweepResults {
    /// The completed points, in sweep order.
    pub cells: Vec<SweepCell>,
}

impl SweepResults {
    /// Number of completed points.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns true for an empty sweep.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The report of one `(workload, config, size)` point, if it was swept.
    pub fn report(
        &self,
        workload: &str,
        config: NamedConfig,
        size: SizeClass,
    ) -> Option<&SimReport> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.config == config && c.size == size)
            .map(|c| &c.report)
    }

    /// Iterates over the reports in sweep order.
    pub fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.cells.iter().map(|c| &c.report)
    }
}

/// A configs × workloads × sizes sweep driver. See the [module docs](self).
pub struct Sweep {
    base: SystemConfig,
    configs: Vec<NamedConfig>,
    workloads: Vec<Arc<dyn Workload>>,
    sizes: Vec<SizeClass>,
    threads: usize,
}

impl Sweep {
    /// Creates a sweep over the given base configuration with empty axes and
    /// one worker thread.
    pub fn new(base: SystemConfig) -> Self {
        Sweep { base, configs: Vec::new(), workloads: Vec::new(), sizes: Vec::new(), threads: 1 }
    }

    /// Appends named configurations to the config axis.
    #[must_use]
    pub fn configs(mut self, configs: impl IntoIterator<Item = NamedConfig>) -> Self {
        self.configs.extend(configs);
        self
    }

    /// Appends one named configuration.
    #[must_use]
    pub fn config(mut self, config: NamedConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Appends built-in workloads to the workload axis.
    #[must_use]
    pub fn workloads(mut self, kinds: impl IntoIterator<Item = WorkloadKind>) -> Self {
        for kind in kinds {
            self.workloads.push(Arc::new(kind));
        }
        self
    }

    /// Appends one workload (built-in or custom).
    #[must_use]
    pub fn workload(mut self, workload: impl Workload + 'static) -> Self {
        self.workloads.push(Arc::new(workload));
        self
    }

    /// Appends one already-shared workload handle (e.g. from a
    /// [`ar_workloads::WorkloadRegistry`]).
    #[must_use]
    pub fn workload_arc(mut self, workload: Arc<dyn Workload>) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Appends size classes to the size axis.
    #[must_use]
    pub fn sizes(mut self, sizes: impl IntoIterator<Item = SizeClass>) -> Self {
        self.sizes.extend(sizes);
        self
    }

    /// Appends one size class.
    #[must_use]
    pub fn size(mut self, size: SizeClass) -> Self {
        self.sizes.push(size);
        self
    }

    /// Sets the worker-thread count. `1` (the default) runs serially on the
    /// calling thread; `0` uses the machine's available parallelism. The
    /// results are identical for every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of points the sweep will run.
    pub fn point_count(&self) -> usize {
        self.configs.len() * self.workloads.len() * self.sizes.len()
    }

    /// The [`CellKey`] of every point, in sweep order (workload-major, then
    /// configuration, then size) with default knobs — the request a client
    /// sends to a sweep server to compute this matrix remotely.
    pub fn cell_keys(&self) -> Vec<CellKey> {
        self.workloads
            .iter()
            .flat_map(|w| {
                self.configs.iter().flat_map(move |&c| {
                    self.sizes.iter().map(move |&s| CellKey::new(w.name(), c, s))
                })
            })
            .collect()
    }

    /// Runs every point and returns the reports in sweep order.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when an axis is empty or the base
    /// configuration is inconsistent under one of the named overlays — both
    /// checked before any simulation starts. Building an individual point
    /// can still fail mid-sweep (e.g. a custom [`Workload`] whose streams
    /// offload under a non-offloading configuration); the sweep then stops
    /// claiming new points, finishes only the points already in flight, and
    /// returns the first error in sweep order.
    pub fn run(&self) -> Result<SweepResults, ConfigError> {
        if self.configs.is_empty() || self.workloads.is_empty() || self.sizes.is_empty() {
            return Err(ConfigError::new(
                "a sweep needs at least one config, one workload and one size",
            ));
        }
        for &config in &self.configs {
            self.base.clone().named(config).validate()?;
        }

        // The job list in deterministic sweep order; workers claim jobs by
        // index and write results back by index, so the output order never
        // depends on scheduling.
        let jobs: Vec<(Arc<dyn Workload>, NamedConfig, SizeClass)> = self
            .workloads
            .iter()
            .flat_map(|w| {
                self.configs
                    .iter()
                    .flat_map(move |&c| self.sizes.iter().map(move |&s| (w.clone(), c, s)))
            })
            .collect();

        let workers = match self.threads {
            0 => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            n => n,
        }
        .min(jobs.len())
        .max(1);

        let run_job = |(workload, config, size): &(Arc<dyn Workload>, NamedConfig, SizeClass)| {
            let key = CellKey::new(workload.name(), *config, *size);
            let report = key.configure(&self.base, workload.clone()).build()?.run();
            Ok::<SweepCell, ConfigError>(SweepCell {
                workload: report.workload.clone(),
                config: *config,
                size: *size,
                report,
            })
        };

        let mut cells: Vec<SweepCell> = Vec::with_capacity(jobs.len());
        if workers == 1 {
            for job in &jobs {
                cells.push(run_job(job)?);
            }
        } else {
            let next = AtomicUsize::new(0);
            let failed = std::sync::atomic::AtomicBool::new(false);
            let slots: Vec<Mutex<Option<Result<SweepCell, ConfigError>>>> =
                jobs.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        // Stop claiming new points once any worker hit an
                        // error; in-flight points still finish.
                        if failed.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let result = run_job(job);
                        if result.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    });
                }
            });
            for slot in slots {
                // Unfilled slots only exist after a failure cut the sweep
                // short; the error surfaces from an earlier filled slot (the
                // first in sweep order once cells are collected below) or,
                // for claimed-but-skipped points, from the flag.
                match slot.into_inner().expect("result slot poisoned") {
                    Some(result) => cells.push(result?),
                    None => {
                        debug_assert!(failed.load(Ordering::Relaxed));
                        break;
                    }
                }
            }
        }
        Ok(SweepResults { cells })
    }
}

/// Runs one cell's shared prefix **exactly once**, snapshots it, and fans a
/// family of report-neutral [`CellKnobs`] variants out from that single
/// checkpoint, each resumed and run to completion on its own worker thread.
///
/// This is the warm-up-once sweep shape: when a matrix varies only the
/// kernel knob (the fast-forward mode) over one `(workload, config, size)`
/// identity, the cold prefix is identical across every variant — the knob
/// is report-neutral by the pinned equivalence invariant — so simulating it
/// per variant is pure waste. The warm-up runs
/// under `cell`'s own knobs to network cycle `prefix` (capped at the cycle
/// limit), and every variant resumes from the resulting [`crate::Checkpoint`];
/// restored runs are byte-identical to uninterrupted ones, so the returned
/// reports (in `variants` order) match a cold sweep of the same cells.
///
/// # Errors
///
/// Returns a [`ConfigError`] when the cell fails to build, when a variant
/// changes `cycle_limit` (the one knob that is *not* report-neutral — a
/// different limit is a different cell), or when a variant fails to build or
/// restore.
pub fn warm_fan_out(
    base: &SystemConfig,
    workload: Arc<dyn Workload>,
    cell: &CellKey,
    prefix: u64,
    variants: &[CellKnobs],
) -> Result<Vec<SimReport>, ConfigError> {
    for v in variants {
        if v.cycle_limit != cell.knobs.cycle_limit {
            return Err(ConfigError::new(format!(
                "warm fan-out variants must share the cell's cycle limit ({:?}), got {:?}: \
                 a different limit is a different cell, not a kernel knob",
                cell.knobs.cycle_limit, v.cycle_limit
            )));
        }
    }
    let mut warm = cell.configure(base, workload.clone()).build()?;
    warm.run_prefix(prefix);
    let checkpoint = warm.checkpoint();
    drop(warm);

    let slots: Vec<Mutex<Option<Result<SimReport, ConfigError>>>> =
        variants.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for (i, &knobs) in variants.iter().enumerate() {
            let workload = workload.clone();
            let checkpoint = checkpoint.clone();
            let slots = &slots;
            scope.spawn(move || {
                let result = cell
                    .clone()
                    .with_knobs(knobs)
                    .configure(base, workload)
                    .from_checkpoint(checkpoint)
                    .build()
                    .map(Simulation::run);
                *slots[i].lock().expect("fan-out slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("fan-out slot poisoned").expect("worker filled slot"))
        .collect()
}

impl std::fmt::Debug for Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("configs", &self.configs)
            .field("workloads", &self.workloads.iter().map(|w| w.name()).collect::<Vec<_>>())
            .field("sizes", &self.sizes)
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::small();
        cfg.max_cycles = 2_000_000;
        cfg
    }

    #[test]
    fn empty_axes_are_rejected_before_running() {
        assert!(Sweep::new(small_cfg()).run().is_err());
        assert!(Sweep::new(small_cfg()).config(NamedConfig::Hmc).run().is_err());
        let sweep =
            Sweep::new(small_cfg()).config(NamedConfig::Hmc).workloads([WorkloadKind::Reduce]);
        assert!(sweep.run().is_err(), "missing size axis");
        assert_eq!(sweep.point_count(), 0);
    }

    #[test]
    fn results_are_ordered_workload_major() {
        let results = Sweep::new(small_cfg())
            .configs([NamedConfig::Hmc, NamedConfig::ArfTid])
            .workloads([WorkloadKind::Reduce, WorkloadKind::Mac])
            .size(SizeClass::Tiny)
            .run()
            .expect("valid sweep");
        let order: Vec<(String, NamedConfig)> =
            results.cells.iter().map(|c| (c.workload.clone(), c.config)).collect();
        assert_eq!(
            order,
            vec![
                ("reduce".to_string(), NamedConfig::Hmc),
                ("reduce".to_string(), NamedConfig::ArfTid),
                ("mac".to_string(), NamedConfig::Hmc),
                ("mac".to_string(), NamedConfig::ArfTid),
            ]
        );
        assert!(results.report("mac", NamedConfig::ArfTid, SizeClass::Tiny).is_some());
        assert!(results.report("mac", NamedConfig::Dram, SizeClass::Tiny).is_none());
        assert_eq!(results.reports().count(), 4);
    }

    #[test]
    fn parallel_and_serial_sweeps_are_identical() {
        let make = |threads| {
            Sweep::new(small_cfg())
                .configs([NamedConfig::Hmc, NamedConfig::ArfTid, NamedConfig::ArfAddr])
                .workloads([WorkloadKind::Reduce, WorkloadKind::Mac])
                .size(SizeClass::Tiny)
                .threads(threads)
        };
        let serial = make(1).run().expect("serial run");
        for threads in [2, 3, 8] {
            let parallel = make(threads).run().expect("parallel run");
            assert_eq!(parallel.len(), serial.len());
            for (a, b) in parallel.cells.iter().zip(&serial.cells) {
                assert_eq!(a.workload, b.workload);
                assert_eq!(a.config, b.config);
                assert_eq!(a.report, b.report, "{}/{}", a.workload, a.config);
            }
        }
    }

    #[test]
    fn cell_keys_enumerate_in_sweep_order_and_round_trip_the_wire() {
        let sweep = Sweep::new(small_cfg())
            .configs([NamedConfig::Hmc, NamedConfig::ArfTid])
            .workloads([WorkloadKind::Reduce, WorkloadKind::Mac])
            .sizes([SizeClass::Tiny]);
        let keys = sweep.cell_keys();
        assert_eq!(keys.len(), sweep.point_count());
        let labels: Vec<String> = keys.iter().map(CellKey::label).collect();
        assert_eq!(
            labels,
            ["reduce/HMC/tiny", "reduce/ARF-tid/tiny", "mac/HMC/tiny", "mac/ARF-tid/tiny"]
        );
        for key in &keys {
            let wired = CellKey::from_json(&key.to_json()).expect("well-formed key doc");
            assert_eq!(&wired, key);
        }
        // Knobs survive the wire too, including explicit fast-forward forcing.
        let knobbed = keys[0]
            .clone()
            .with_knobs(CellKnobs { fast_forward: Some(false), cycle_limit: Some(12_345) });
        assert_eq!(CellKey::from_json(&knobbed.to_json()).unwrap(), knobbed);
        // Clients built while the kernel still had its run-ahead, thread or
        // offload-drain knobs send them on every key; the fields are
        // ignored, so such a document decodes to the same key and hits the
        // same cache entry. (The run-ahead wire name is spelled in two
        // pieces: the knob no longer exists anywhere else.)
        let retired_knobs = [
            (concat!("cross", "_cycle"), Json::Null),
            (concat!("cross", "_cycle"), Json::from(true)),
            (concat!("cross", "_cycle"), Json::from(false)),
            ("threads", Json::from(1u64)),
            ("threads", Json::from(4u64)),
            ("drain_fast_forward", Json::from(true)),
            ("drain_fast_forward", Json::from(false)),
        ];
        let base = small_cfg();
        for key in [&keys[0], &knobbed] {
            for (knob, value) in &retired_knobs {
                let mut legacy = key.to_json();
                let Json::Obj(pairs) = &mut legacy else { unreachable!("keys encode as objects") };
                pairs.push((knob.to_string(), value.clone()));
                let decoded = CellKey::from_json(&legacy).expect("legacy key doc decodes");
                assert_eq!(&decoded, key);
                assert_eq!(decoded.cache_hash(&base), key.cache_hash(&base));
            }
        }
        // Malformed documents are rejected.
        assert!(CellKey::from_json(&Json::parse(r#"{"workload":"x"}"#).unwrap()).is_err());
        let bad_cfg = r#"{"workload":"mac","config":"NOPE","size":"tiny","threads":1}"#;
        assert!(CellKey::from_json(&Json::parse(bad_cfg).unwrap()).is_err());
    }

    #[test]
    fn cache_keys_ignore_report_neutral_knobs_and_track_semantic_ones() {
        let base = small_cfg();
        let key = CellKey::new("pagerank", NamedConfig::ArfTid, SizeClass::Tiny);
        let addr = key.cache_hash(&base);
        // The fast-forward knob never changes the report, so both forced
        // modes must share the cache address...
        for ff in [true, false] {
            let neutral =
                key.clone().with_knobs(CellKnobs { fast_forward: Some(ff), cycle_limit: None });
            assert_eq!(neutral.cache_hash(&base), addr);
        }
        // ...while the cycle limit, the named config, the size, the workload
        // and any base-config field all do change it.
        let limited =
            key.clone().with_knobs(CellKnobs { cycle_limit: Some(99), ..CellKnobs::default() });
        assert_ne!(limited.cache_hash(&base), addr);
        assert_ne!(
            CellKey::new("spmv", NamedConfig::ArfTid, SizeClass::Tiny).cache_hash(&base),
            addr
        );
        assert_ne!(
            CellKey::new("pagerank", NamedConfig::Hmc, SizeClass::Tiny).cache_hash(&base),
            addr
        );
        assert_ne!(
            CellKey::new("pagerank", NamedConfig::ArfTid, SizeClass::Small).cache_hash(&base),
            addr
        );
        let mut tweaked = base.clone();
        tweaked.hmc.vault_access_latency += 1;
        assert_ne!(key.cache_hash(&tweaked), addr);
        // A cycle limit equal to the base max_cycles folds away: the key is
        // the *effective* configuration.
        let folded = key
            .clone()
            .with_knobs(CellKnobs { cycle_limit: Some(base.max_cycles), ..CellKnobs::default() });
        assert_eq!(folded.cache_hash(&base), addr);
        assert_eq!(
            key.cache_key(&base).get("schema").and_then(Json::as_u64),
            Some(u64::from(CACHE_SCHEMA_VERSION))
        );
    }

    #[test]
    fn configured_cells_reproduce_sweep_reports() {
        let base = small_cfg();
        let results = Sweep::new(base.clone())
            .config(NamedConfig::ArfTid)
            .workloads([WorkloadKind::Mac])
            .size(SizeClass::Tiny)
            .run()
            .expect("valid sweep");
        let key = CellKey::new("mac", NamedConfig::ArfTid, SizeClass::Tiny);
        let direct =
            key.configure(&base, Arc::new(WorkloadKind::Mac)).build().expect("valid cell").run();
        assert_eq!(&direct, &results.cells[0].report);
        // The cycle-limit knob truncates the run.
        let truncated = key
            .with_knobs(CellKnobs { cycle_limit: Some(100), ..CellKnobs::default() })
            .configure(&base, Arc::new(WorkloadKind::Mac))
            .build()
            .expect("valid cell")
            .run();
        assert!(!truncated.completed);
    }

    #[test]
    fn warm_fan_out_matches_cold_runs_and_rejects_limit_drift() {
        let base = small_cfg();
        let cell = CellKey::new("reduce", NamedConfig::ArfTid, SizeClass::Tiny);
        let variants = [
            CellKnobs::default(),
            CellKnobs { fast_forward: Some(true), ..CellKnobs::default() },
            CellKnobs { fast_forward: Some(false), ..CellKnobs::default() },
        ];
        let warm = warm_fan_out(&base, Arc::new(WorkloadKind::Reduce), &cell, 400, &variants)
            .expect("fan-out runs");
        assert_eq!(warm.len(), variants.len());
        // Every variant resumed from one shared prefix must reproduce its
        // cold, uncheckpointed run — which by the equivalence invariant is
        // the same report for all of them.
        let cold = cell
            .configure(&base, Arc::new(WorkloadKind::Reduce))
            .build()
            .expect("valid cell")
            .run();
        for (report, knobs) in warm.iter().zip(&variants) {
            assert_eq!(report, &cold, "variant {knobs:?} diverged from the cold run");
        }

        // cycle_limit is semantic, not report-neutral: a variant that drifts
        // from the cell's limit is a different cell and must be rejected.
        let drifted = [CellKnobs { cycle_limit: Some(99), ..CellKnobs::default() }];
        assert!(warm_fan_out(&base, Arc::new(WorkloadKind::Reduce), &cell, 400, &drifted).is_err());
    }

    #[test]
    fn invalid_named_overlay_fails_fast() {
        let mut cfg = small_cfg();
        cfg.network.groups = 3; // cubes=4 not divisible by 3
        let err = Sweep::new(cfg)
            .config(NamedConfig::Hmc)
            .workloads([WorkloadKind::Reduce])
            .size(SizeClass::Tiny)
            .run();
        assert!(err.is_err());
    }
}
