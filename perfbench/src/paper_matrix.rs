//! `paper_matrix`: the 45 cells behind Figs 5.1, 5.2 and 5.4–5.7 (nine
//! workloads under the five plotted configurations on the paper machine at
//! `ExperimentScale::Full`), rendered through the figure functions.

use crate::cells::{self, check_report, Cell, FirstReports};
use crate::{trace, Bench, Checks, Pass};
use ar_experiments::energy::{figure_energy, EnergyMetric};
use ar_experiments::{latency, speedup, traffic, ExperimentScale, Matrix, Table};
use ar_sim::SimRng;
use ar_system::SimReport;
use ar_types::config::NamedConfig;
use ar_workloads::WorkloadKind;
use std::sync::Arc;
use std::time::Instant;

/// The matrix, run serially (one worker) in a seed-shuffled cell order.
pub struct PaperMatrix {
    cells: Vec<Cell>,
    rng: SimRng,
    first: FirstReports,
}

impl PaperMatrix {
    pub fn new(seed: u64) -> Self {
        let scale = ExperimentScale::Full;
        let cells = matrix_cells(scale);
        PaperMatrix { cells, rng: SimRng::seed_from_u64(seed), first: FirstReports::default() }
    }
}

/// Every workload under every plotted configuration at `scale`, workload-major
/// (the row-major order of the figure matrices); a cell's id is its index.
pub fn matrix_cells(scale: ExperimentScale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for workload in WorkloadKind::ALL {
        for config in NamedConfig::ALL {
            cells.push(Cell {
                id: cells.len() as u32,
                workload: Arc::new(workload),
                config,
                base: scale.system_config(),
                size: scale.size_class(),
            });
        }
    }
    cells
}

/// The nine matrix-backed figure tables of `ar-experiments --all` (5.1a/b,
/// 5.2a/b, 5.4a/b, 5.5, 5.6, 5.7) from reports laid out as [`matrix_cells`]
/// orders them.
fn figure_tables(reports: Vec<SimReport>) -> Vec<Table> {
    let configs = NamedConfig::ALL.to_vec();
    let mut reports = reports.into_iter();
    let mut matrix = |workloads: &[WorkloadKind]| Matrix {
        workloads: workloads.to_vec(),
        configs: configs.clone(),
        reports: workloads.iter().map(|_| reports.by_ref().take(configs.len()).collect()).collect(),
    };
    let bench = matrix(&WorkloadKind::BENCHMARKS);
    let micro = matrix(&WorkloadKind::MICROBENCHMARKS);
    vec![
        speedup::figure_5_1(&bench, "Figure 5.1(a)"),
        speedup::figure_5_1(&micro, "Figure 5.1(b)"),
        latency::figure_5_2(&bench, "Figure 5.2(a)"),
        latency::figure_5_2(&micro, "Figure 5.2(b)"),
        traffic::figure_5_4(&bench, "Figure 5.4(a)"),
        traffic::figure_5_4(&micro, "Figure 5.4(b)"),
        figure_energy(&bench, EnergyMetric::Power, "Figure 5.5"),
        figure_energy(&bench, EnergyMetric::Energy, "Figure 5.6"),
        figure_energy(&bench, EnergyMetric::EnergyDelayProduct, "Figure 5.7"),
    ]
}

/// Fails figure tables that are missing rows or hold a value that is not a
/// finite, non-negative number, or whose normalisation baseline does not
/// read 1: the DRAM column of the speedup and EDP tables, each workload's
/// HMC total in the traffic tables and its DRAM total in the power and
/// energy tables.
fn check_figures(tables: &[Table]) -> Result<(), String> {
    let (bench, micro) = (WorkloadKind::BENCHMARKS.len(), WorkloadKind::MICROBENCHMARKS.len());
    let (lat, traf, all) =
        (latency::LATENCY_CONFIGS.len(), traffic::TRAFFIC_CONFIGS.len(), NamedConfig::ALL.len());
    let rows = [
        bench + 1,
        micro + 1,
        bench * lat,
        micro * lat,
        bench * traf,
        micro * traf,
        bench * all,
        bench * all,
        bench + 1,
    ];
    if tables.len() != rows.len() {
        return Err(format!("{} figure tables, expected {}", tables.len(), rows.len()));
    }
    for (table, &expected) in tables.iter().zip(&rows) {
        if table.rows.len() != expected {
            return Err(format!("{}: {} rows, expected {expected}", table.title, table.rows.len()));
        }
        for (row, values) in &table.rows {
            if values.len() != table.columns.len()
                || values.iter().any(|v| !(*v >= 0.0 && v.is_finite()))
            {
                return Err(format!("{}: row {row} holds {values:?}", table.title));
            }
        }
    }
    let is_one = |table: &Table, row: &str, column: &str| match table.value(row, column) {
        Some(v) if (v - 1.0).abs() < 1e-9 => Ok(()),
        v => Err(format!("{}: {row} {column} is {v:?}, not 1", table.title)),
    };
    let (dram, hmc) = (NamedConfig::Dram.to_string(), NamedConfig::Hmc.to_string());
    for table in [&tables[0], &tables[1], &tables[8]] {
        for (row, _) in &table.rows {
            is_one(table, row, &dram)?;
        }
    }
    for (tables, baseline) in [(&tables[4..6], &hmc), (&tables[6..8], &dram)] {
        for table in tables {
            let suffix = format!("/{baseline}");
            for (row, _) in table.rows.iter().filter(|(row, _)| row.ends_with(&suffix)) {
                is_one(table, row, "total")?;
            }
        }
    }
    Ok(())
}

/// Renders the figure tables from a pass's reports inside the
/// `ar-experiments.tables` span, then checks them.
pub fn tables_check(reports: Vec<SimReport>) -> Result<(), String> {
    let tables = trace::span("ar-experiments.tables", None, || {
        let tables = figure_tables(reports);
        for table in &tables {
            std::hint::black_box(table.to_string());
        }
        tables
    });
    check_figures(&tables)
}

impl Bench for PaperMatrix {
    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        self.rng.shuffle(&mut order);
        let start = Instant::now();
        let mut pass = Pass::default();
        let mut reports: Vec<Option<SimReport>> = vec![None; self.cells.len()];
        for index in order {
            let cell = &self.cells[index];
            let run = cells::run(cell);
            pass.add_cell(cell.id, &run);
            checks.record(
                check_report(&run.report, &run.references)
                    .and_then(|()| self.first.check(cell.id, &run.report)),
            );
            reports[index] = Some(run.report);
        }
        let reports = reports.into_iter().map(|r| r.expect("every cell ran")).collect();
        checks.record(tables_check(reports));
        pass.wall_s = start.elapsed().as_secs_f64() - pass.setup_s();
        pass
    }

    fn first_reports(&self) -> &FirstReports {
        &self.first
    }

    fn describe(&self) -> String {
        format!("cells={} workers=1 scale=full size=medium", self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_tables() -> Vec<Table> {
        let reports =
            matrix_cells(ExperimentScale::Quick).iter().map(|c| cells::run(c).report).collect();
        figure_tables(reports)
    }

    #[test]
    fn figure_check_accepts_real_tables_and_rejects_broken_ones() {
        let tables = quick_tables();
        assert_eq!(check_figures(&tables), Ok(()));

        assert!(check_figures(&tables[..8]).is_err(), "a table is missing");
        let mut short = tables.clone();
        short[2].rows.pop();
        assert!(check_figures(&short).is_err(), "a latency row is missing");
        let mut nan = tables.clone();
        nan[3].rows[0].1[1] = f64::NAN;
        assert!(check_figures(&nan).is_err(), "a value is not a number");
        let mut negative = tables.clone();
        negative[6].rows[2].1[0] = -0.5;
        assert!(check_figures(&negative).is_err(), "a value is negative");
        let mut baseline = tables;
        let row = baseline[4].rows.iter().position(|(r, _)| r.ends_with("/HMC")).unwrap();
        baseline[4].rows[row].1[4] = 0.9;
        assert!(check_figures(&baseline).is_err(), "the HMC traffic total is not 1");
    }

    #[test]
    fn figure_check_rejects_empty_reports() {
        let reports = vec![SimReport::default(); matrix_cells(ExperimentScale::Quick).len()];
        assert!(check_figures(&figure_tables(reports)).is_err());
    }
}
