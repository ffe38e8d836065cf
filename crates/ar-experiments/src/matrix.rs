//! The workload × configuration run matrix shared by Figures 5.1 and 5.4-5.7.
//!
//! Since the driver redesign the matrix is a thin shape adapter over
//! [`ar_system::Sweep`]: the runs fan out over worker threads (one per
//! available core by default) and the reports come back in deterministic
//! row/column order, identical to a serial run. When a sweep server is
//! configured ([`crate::backend::use_server`]) the cells are resolved
//! remotely instead, against the server's persistent report cache; the
//! simulator's determinism makes the two paths byte-identical.

use crate::backend;
use crate::scale::ExperimentScale;
use ar_system::{CellKey, SimReport, Sweep};
use ar_types::config::NamedConfig;
use ar_workloads::WorkloadKind;

/// The reports of running a set of workloads under a set of configurations.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Workloads, in row order.
    pub workloads: Vec<WorkloadKind>,
    /// Configurations, in column order.
    pub configs: Vec<NamedConfig>,
    /// `reports[w][c]` is the run of `workloads[w]` under `configs[c]`.
    pub reports: Vec<Vec<SimReport>>,
}

impl Matrix {
    /// Runs every workload under every configuration at the given scale,
    /// fanning the cells out over one worker thread per available core.
    ///
    /// # Panics
    ///
    /// Panics if the scale's base configuration is invalid (it never is for
    /// the built-in scales).
    pub fn run(
        workloads: &[WorkloadKind],
        configs: &[NamedConfig],
        scale: ExperimentScale,
    ) -> Self {
        Matrix::run_with_threads(workloads, configs, scale, 0)
    }

    /// [`Matrix::run`] with an explicit worker-thread count (`1` = serial,
    /// `0` = available parallelism). The reports are identical for every
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if the scale's base configuration is invalid (it never is for
    /// the built-in scales).
    pub fn run_with_threads(
        workloads: &[WorkloadKind],
        configs: &[NamedConfig],
        scale: ExperimentScale,
        threads: usize,
    ) -> Self {
        if let Some(addr) = backend::server() {
            return Matrix::run_via_server(&addr, workloads, configs, scale);
        }
        let results = Sweep::new(scale.system_config())
            .configs(configs.iter().copied())
            .workloads(workloads.iter().copied())
            .size(scale.size_class())
            .threads(threads)
            .run()
            .expect("built-in scales are valid");
        // The sweep order is workload-major over a single size, i.e. exactly
        // row-major over this matrix.
        let mut cells = results.cells.into_iter();
        let reports = workloads
            .iter()
            .map(|_| {
                configs
                    .iter()
                    .map(|_| cells.next().expect("sweep covers every cell").report)
                    .collect()
            })
            .collect();
        Matrix { workloads: workloads.to_vec(), configs: configs.to_vec(), reports }
    }

    /// Resolves the matrix through the sweep server at `addr`; cells the
    /// server has cached come back without simulating.
    ///
    /// # Panics
    ///
    /// Panics when the server is unreachable, fails a cell, or — the
    /// correctness guard — simulates a different base configuration than
    /// this scale (see [`backend::connect`]).
    fn run_via_server(
        addr: &str,
        workloads: &[WorkloadKind],
        configs: &[NamedConfig],
        scale: ExperimentScale,
    ) -> Self {
        let mut client = backend::connect(addr, scale).unwrap_or_else(|e| panic!("{e}"));
        let cells: Vec<CellKey> = workloads
            .iter()
            .flat_map(|w| {
                configs.iter().map(move |&c| CellKey::new(w.name(), c, scale.size_class()))
            })
            .collect();
        let outcomes = client
            .run_cells(&cells)
            .unwrap_or_else(|e| panic!("sweep server {addr} failed the matrix: {e}"));
        let cached = outcomes.iter().filter(|o| o.cached).count();
        eprintln!(
            "[ar-experiments] sweep server resolved {} cells ({} cached, {} computed)",
            outcomes.len(),
            cached,
            outcomes.len() - cached
        );
        // The request was laid out row-major, so the outcomes (which arrive
        // in request order) reshape directly.
        let mut outcomes = outcomes.into_iter();
        let reports = workloads
            .iter()
            .map(|_| {
                configs
                    .iter()
                    .map(|_| outcomes.next().expect("server answers every cell").report)
                    .collect()
            })
            .collect();
        Matrix { workloads: workloads.to_vec(), configs: configs.to_vec(), reports }
    }

    /// Runs the five benchmarks under the five configurations of Fig. 5.1(a).
    pub fn benchmarks(scale: ExperimentScale) -> Self {
        Matrix::run(&WorkloadKind::BENCHMARKS, &NamedConfig::ALL, scale)
    }

    /// Runs the four microbenchmarks under the five configurations of
    /// Fig. 5.1(b).
    pub fn microbenchmarks(scale: ExperimentScale) -> Self {
        Matrix::run(&WorkloadKind::MICROBENCHMARKS, &NamedConfig::ALL, scale)
    }

    /// The report of one `(workload, config)` cell.
    pub fn report(&self, workload: WorkloadKind, config: NamedConfig) -> Option<&SimReport> {
        let w = self.workloads.iter().position(|&x| x == workload)?;
        let c = self.configs.iter().position(|&x| x == config)?;
        Some(&self.reports[w][c])
    }

    /// Iterates over `(workload, config, report)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (WorkloadKind, NamedConfig, &SimReport)> {
        self.workloads.iter().enumerate().flat_map(move |(wi, &w)| {
            self.configs.iter().enumerate().map(move |(ci, &c)| (w, c, &self.reports[wi][ci]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_matrix_runs_and_indexes() {
        let m = Matrix::run(
            &[WorkloadKind::Reduce],
            &[NamedConfig::Hmc, NamedConfig::ArfTid],
            ExperimentScale::Quick,
        );
        assert_eq!(m.reports.len(), 1);
        assert_eq!(m.reports[0].len(), 2);
        let hmc = m.report(WorkloadKind::Reduce, NamedConfig::Hmc).unwrap();
        let arf = m.report(WorkloadKind::Reduce, NamedConfig::ArfTid).unwrap();
        assert!(hmc.completed && arf.completed);
        assert!(m.report(WorkloadKind::Mac, NamedConfig::Hmc).is_none());
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn matrix_cells_land_in_their_labelled_slots_regardless_of_threads() {
        for threads in [1, 4] {
            let m = Matrix::run_with_threads(
                &[WorkloadKind::Reduce, WorkloadKind::Mac],
                &[NamedConfig::Hmc, NamedConfig::ArfTid],
                ExperimentScale::Quick,
                threads,
            );
            for (workload, config, report) in m.iter() {
                assert_eq!(report.workload, workload.to_string());
                assert_eq!(report.config_label, config.to_string());
            }
        }
    }
}
