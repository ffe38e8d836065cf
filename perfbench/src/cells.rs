//! Building and running one simulated cell, traced or not, and the checks
//! every cell's report must pass.

use crate::trace;
use ar_system::{
    verify_gathers, Observer, ObserverControl, RunInfo, SimEvent, SimReport, Simulation,
};
use ar_types::config::{NamedConfig, SystemConfig};
use ar_types::Addr;
use ar_workloads::{GeneratedWorkload, SizeClass, Variant, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which parts of the machine a configuration simulates: DRAM is cores,
/// caches and DDR; HMC adds the memory network; active adds the engines and
/// the host offload controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Dram,
    Hmc,
    Active,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Dram, Class::Hmc, Class::Active];

    pub fn of(config: NamedConfig) -> Class {
        match config {
            NamedConfig::Dram => Class::Dram,
            NamedConfig::Hmc => Class::Hmc,
            _ => Class::Active,
        }
    }

    /// Name of the span around `Simulation::run` for this class.
    pub fn run_span(self) -> &'static str {
        match self {
            Class::Dram => "ar-system.run.dram",
            Class::Hmc => "ar-system.run.hmc",
            Class::Active => "ar-system.run.active",
        }
    }
}

/// One simulation of the benchmark: a workload under a named configuration.
#[derive(Clone)]
pub struct Cell {
    /// Stable id, used to compare a cell's reports across passes.
    pub id: u32,
    pub workload: Arc<dyn Workload>,
    pub config: NamedConfig,
    pub base: SystemConfig,
    pub size: SizeClass,
}

impl Cell {
    pub fn class(&self) -> Class {
        Class::of(self.config)
    }

    fn builder(&self, workload: Arc<dyn Workload>) -> ar_system::SimulationBuilder {
        Simulation::builder()
            .config(self.base.clone())
            .named(self.config)
            .workload_arc(workload)
            .size(self.size)
    }
}

/// What running one cell produced.
pub struct CellRun {
    pub report: SimReport,
    pub references: Vec<(Addr, f64)>,
    /// Host seconds in `SimulationBuilder::build` (generation included).
    pub build_s: f64,
    /// Host seconds in the run itself.
    pub run_s: f64,
    /// Peak pooled in-flight packets (untraced runs only).
    pub peak_packets: Option<usize>,
}

/// Builds and runs `cell` at the builder's defaults. A traced run records
/// spans around generation, build and run, and attaches an observer that
/// splits the run's host time at IPC samples and pagerank's barrier; an
/// untraced run goes through `System::run_with_footprint` instead, which
/// runs the same kernel without observers.
pub fn run(cell: &Cell) -> CellRun {
    let traced = trace::enabled();
    let start = Instant::now();
    let sim = trace::span("ar-system.build", Some(cell.id), || {
        let workload: Arc<dyn Workload> = if traced {
            Arc::new(TimedWorkload { inner: cell.workload.clone(), cell: cell.id })
        } else {
            cell.workload.clone()
        };
        let mut builder = cell.builder(workload);
        if traced {
            builder = builder.observer(HostClock::new(cell.id));
        }
        builder.build().expect("benchmark cells use valid built-in configurations")
    });
    let built = Instant::now();
    let references = sim.references().to_vec();
    let (report, peak_packets) = if traced {
        (trace::span(cell.class().run_span(), Some(cell.id), || sim.run()), None)
    } else {
        let (report, footprint) = sim.into_system().run_with_footprint();
        (report, Some(footprint.peak_packets_in_flight))
    };
    let end = Instant::now();
    CellRun {
        report,
        references,
        build_s: (built - start).as_secs_f64(),
        run_s: (end - built).as_secs_f64(),
        peak_packets,
    }
}

/// Runs `cell` on the event kernel and on the lock-step reference kernel and
/// returns whether both reports agree and the run completed.
pub fn kernels_agree(cell: &Cell) -> bool {
    let event = cell.builder(cell.workload.clone()).build().expect("valid cell").run();
    let lockstep =
        cell.builder(cell.workload.clone()).lockstep().build().expect("valid cell").run();
    event.completed && event == lockstep
}

/// Fails a report that did not complete or whose gathered reductions differ
/// from the workload's functional reference; returns the reason.
pub fn check_report(report: &SimReport, references: &[(Addr, f64)]) -> Result<(), String> {
    if !report.completed {
        return Err(format!("{}/{} did not complete", report.workload, report.config_label));
    }
    match verify_gathers(report, references) {
        0 => Ok(()),
        n => Err(format!(
            "{}/{}: {n} gathered values differ from the reference",
            report.workload, report.config_label
        )),
    }
}

/// Remembers the first report of every cell and fails later ones that
/// differ: simulated statistics must repeat exactly between passes.
#[derive(Default)]
pub struct FirstReports {
    pub reports: BTreeMap<u32, SimReport>,
}

impl FirstReports {
    pub fn check(&mut self, id: u32, report: &SimReport) -> Result<(), String> {
        match self.reports.get(&id) {
            None => {
                self.reports.insert(id, report.clone());
                Ok(())
            }
            Some(first) if first == report => Ok(()),
            Some(_) => Err(format!(
                "{}/{}: report differs from the first pass",
                report.workload, report.config_label
            )),
        }
    }
}

/// Reference results of a built-in cell, for reports computed elsewhere (the
/// sweep server): the workload generated locally with the variant its
/// configuration runs.
pub fn references_of(
    workload: &dyn Workload,
    cores: usize,
    size: SizeClass,
    config: NamedConfig,
) -> Vec<(Addr, f64)> {
    workload.generate(cores, size, ar_system::variant_for(config)).references
}

/// Delegates to a workload and records a span around its generation.
struct TimedWorkload {
    inner: Arc<dyn Workload>,
    cell: u32,
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn generate(&self, threads: usize, size: SizeClass, variant: Variant) -> GeneratedWorkload {
        trace::span("ar-workloads.generate", Some(self.cell), || {
            self.inner.generate(threads, size, variant)
        })
    }
}

/// Splits a traced run's host time: one `ar-system.window` span between
/// consecutive IPC samples, and for pagerank an `ar-system.phase.scatter`
/// span up to the first barrier release and an `ar-system.phase.update` span
/// after it.
struct HostClock {
    cell: u32,
    pagerank: bool,
    start: Instant,
    last_sample: Instant,
    scatter_end: Option<Instant>,
}

impl HostClock {
    fn new(cell: u32) -> Self {
        let now = Instant::now();
        HostClock { cell, pagerank: false, start: now, last_sample: now, scatter_end: None }
    }
}

impl Observer for HostClock {
    fn on_start(&mut self, run: &RunInfo<'_>) {
        self.pagerank = run.workload == "pagerank";
        self.start = Instant::now();
        self.last_sample = self.start;
    }

    fn on_event(&mut self, event: &SimEvent) -> ObserverControl {
        let now = Instant::now();
        match event {
            SimEvent::Sample(_) => {
                trace::record("ar-system.window", Some(self.cell), self.last_sample, now);
                self.last_sample = now;
            }
            SimEvent::BarrierReleased { id: 1, .. } if self.pagerank => {
                trace::record("ar-system.phase.scatter", Some(self.cell), self.start, now);
                self.scatter_end = Some(now);
            }
            _ => {}
        }
        ObserverControl::Continue
    }

    fn on_finish(&mut self, _report: &SimReport) {
        if let Some(scatter_end) = self.scatter_end {
            trace::record("ar-system.phase.update", Some(self.cell), scatter_end, Instant::now());
        }
    }
}
