//! `serve_cache`: an in-process sweep server (one worker, fresh cache
//! directory, quick-scale base) driven the way `ar-experiments --cached`
//! drives it: a fresh connection and one `run_cells` request per figure
//! matrix, the five benchmarks and then the four microbenchmarks. A cold pass
//! misses on every cell (simulate and store); the warm passes after it hit on
//! every cell (read and decode). A traced pass also reads every cell straight
//! from the server's cache directory through `ReportCache::load`, which times
//! the cache layer apart from the socket.

use crate::cells::{check_report, references_of, Cell, FirstReports};
use crate::paper_matrix::{matrix_cells, tables_check};
use crate::{trace, Bench, Checks, Pass};
use ar_experiments::ExperimentScale;
use ar_serve::{ReportCache, ServerConfig, SweepClient, SweepServer};
use ar_sim::SimRng;
use ar_system::{CellKey, SimReport};
use ar_types::config::NamedConfig;
use ar_types::Addr;
use ar_workloads::WorkloadKind;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

/// Warm passes after each cold pass.
const WARM_PASSES: usize = 2;

/// Server set-ups timed per pass.
const SETUP_SAMPLES: usize = 16;

pub struct ServeCache {
    cells: Vec<Cell>,
    /// Indices into `cells` of each figure matrix: one request each.
    matrices: [Vec<usize>; 2],
    references: Vec<Vec<(Addr, f64)>>,
    rng: SimRng,
    first: FirstReports,
    work_dir: PathBuf,
    rounds: u32,
}

impl ServeCache {
    pub fn new(seed: u64, work_dir: PathBuf) -> Self {
        let scale = ExperimentScale::Quick;
        let cells = matrix_cells(scale);
        let cores = scale.system_config().cores.count;
        let references = cells
            .iter()
            .map(|c| references_of(c.workload.as_ref(), cores, c.size, c.config))
            .collect();
        // `matrix_cells` is workload-major with the benchmarks first.
        let split = WorkloadKind::BENCHMARKS.len() * NamedConfig::ALL.len();
        ServeCache {
            matrices: [(0..split).collect(), (split..cells.len()).collect()],
            cells,
            references,
            rng: SimRng::seed_from_u64(seed),
            first: FirstReports::default(),
            work_dir,
            rounds: 0,
        }
    }

    /// The two matrix requests of a pass, each in a seed-shuffled cell order.
    fn requests(&mut self) -> [Vec<usize>; 2] {
        let mut requests = self.matrices.clone();
        for order in &mut requests {
            self.rng.shuffle(order);
        }
        requests
    }
}

/// Resolves `cells` in one request on a fresh connection, as
/// `ar-experiments --cached` resolves a figure matrix. Fails unless every
/// cell comes back as itself, from the cache exactly when `hit` is expected.
/// Returns every cell's report in request order and the seconds the request
/// took, connecting included.
fn request(addr: SocketAddr, cells: &[&Cell], hit: bool) -> Result<(Vec<SimReport>, f64), String> {
    let keys: Vec<CellKey> = cells.iter().map(|c| key_of(c)).collect();
    let (name, pass) =
        if hit { ("ar-serve.request.hit", "warm") } else { ("ar-serve.request.miss", "cold") };
    let start = Instant::now();
    let outcomes = trace::span(name, None, || SweepClient::connect(addr)?.run_cells(&keys));
    let seconds = start.elapsed().as_secs_f64();
    let outcomes = outcomes.map_err(|e| format!("{pass} request failed: {e}"))?;
    let mut reports = Vec::with_capacity(outcomes.len());
    for (outcome, key) in outcomes.into_iter().zip(&keys) {
        if outcome.cell != *key || outcome.cached != hit {
            return Err(format!(
                "{}: answered {} with cached={} on the {pass} pass",
                key.label(),
                outcome.cell.label(),
                outcome.cached
            ));
        }
        reports.push(outcome.report);
    }
    Ok((reports, seconds))
}

fn key_of(cell: &Cell) -> CellKey {
    CellKey::new(cell.workload.name(), cell.config, cell.size)
}

impl Bench for ServeCache {
    fn pass(&mut self, checks: &mut Checks) -> Pass {
        let dir = self.work_dir.join(format!("serve-cache-{}-{}", std::process::id(), self.rounds));
        self.rounds += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let base = ExperimentScale::Quick.system_config();

        // Set-up takes well under a millisecond, so it is timed several
        // times over the same empty cache and the fastest counts; the last
        // server stays up, with a control connection for its counters.
        let mut setups = Vec::new();
        let (server, mut control) = loop {
            let start = Instant::now();
            let (server, control) = trace::span("ar-serve.bind", None, || {
                let config = ServerConfig::new(base.clone(), &dir).workers(1);
                let server = SweepServer::bind("127.0.0.1:0", config)
                    .expect("bind an in-process sweep server on loopback")
                    .spawn();
                let control =
                    SweepClient::connect(server.addr()).expect("connect to the sweep server");
                (server, control)
            });
            setups.push(start.elapsed().as_secs_f64());
            if setups.len() == SETUP_SAMPLES {
                break (server, control);
            }
            drop(control);
            checks.record(server.shutdown().map_err(|e| format!("server shutdown failed: {e}")));
        };
        let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
        let mut pass = Pass { setup: vec![(0, fastest)], ..Pass::default() };
        let addr = server.addr();

        let run_start = Instant::now();
        let requests = self.requests();
        let mut cold: Vec<Option<SimReport>> = vec![None; self.cells.len()];
        trace::span("ar-serve.cold_pass", None, || {
            for (m, order) in requests.iter().enumerate() {
                let cells: Vec<&Cell> = order.iter().map(|&i| &self.cells[i]).collect();
                let (reports, seconds) = match request(addr, &cells, false) {
                    Ok(answer) => answer,
                    Err(e) => {
                        checks.record(Err(e));
                        continue;
                    }
                };
                pass.sim_s.push((m as u32, seconds));
                pass.op_ms.push((m as u32, seconds * 1e3));
                for (&i, report) in order.iter().zip(reports) {
                    let id = self.cells[i].id;
                    pass.sim_cycles += report.network_cycles;
                    let checked = check_report(&report, &self.references[i])
                        .and_then(|()| self.first.check(id, &report));
                    checks.record(checked.map(|()| cold[i] = Some(report)));
                }
            }
        });

        for warm in 1..=WARM_PASSES {
            let requests = self.requests();
            trace::span("ar-serve.warm_pass", None, || {
                for (m, order) in requests.iter().enumerate() {
                    let cells: Vec<&Cell> = order.iter().map(|&i| &self.cells[i]).collect();
                    let (reports, seconds) = match request(addr, &cells, true) {
                        Ok(answer) => answer,
                        Err(e) => {
                            checks.record(Err(e));
                            continue;
                        }
                    };
                    pass.op_ms.push(((warm * requests.len() + m) as u32, seconds * 1e3));
                    for (&i, report) in order.iter().zip(reports) {
                        checks.record(match &cold[i] {
                            Some(first) if *first == report => Ok(()),
                            _ => Err(format!(
                                "{}/{}: warm report differs from cold",
                                report.workload, report.config_label
                            )),
                        });
                    }
                }
            });
        }
        let reports: Option<Vec<SimReport>> = cold.iter().cloned().collect();
        if let Some(reports) = reports {
            checks.record(tables_check(reports));
        }
        pass.wall_s = run_start.elapsed().as_secs_f64();

        if trace::enabled() {
            let cache = ReportCache::new(&dir);
            for (cell, cold) in self.cells.iter().zip(&cold) {
                let key = key_of(cell).cache_key(&base);
                let loaded = trace::span("ar-serve.cache.load", Some(cell.id), || cache.load(&key));
                checks.record(match (loaded, cold) {
                    (Some(loaded), Some(cold)) if loaded == *cold => Ok(()),
                    _ => Err(format!(
                        "{}: cached entry differs from the cold report",
                        key_of(cell).label()
                    )),
                });
            }
        }

        let expected = (self.cells.len() as u64, (self.cells.len() * WARM_PASSES) as u64);
        checks.record(match control.stats() {
            Ok(s) if (s.runs, s.cache_hits) == expected => {
                pass.server = Some((s.cache_hits, s.runs));
                Ok(())
            }
            Ok(s) => Err(format!("server counted {} runs and {} hits", s.runs, s.cache_hits)),
            Err(e) => Err(format!("stats request failed: {e}")),
        });
        drop(control);
        checks.record(server.shutdown().map_err(|e| format!("server shutdown failed: {e}")));
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    fn first_reports(&self) -> &FirstReports {
        &self.first
    }

    fn describe(&self) -> String {
        format!(
            "cells={} server_workers=1 clients=1 requests_per_pass=2 warm_passes={WARM_PASSES} \
             scale=quick",
            self.cells.len()
        )
    }
}
