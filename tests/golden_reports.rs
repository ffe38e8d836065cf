//! Golden-report regression corpus.
//!
//! A pinned set of (config, workload, size) cells is simulated with the
//! event-driven kernel and compared field-for-field against serialized
//! [`SimReport`]s checked into `tests/fixtures/` (via `ar_types::json`). The
//! corpus freezes the *absolute* timing model — cycle counts, stall
//! breakdowns, byte counters, gather results, IPC series — so a change that
//! keeps the two kernels equivalent but silently shifts the simulated
//! numbers (the failure mode the cross-kernel suite cannot see) still fails
//! review.
//!
//! To regenerate after an intentional timing-model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and commit the refreshed fixtures together with the change that explains
//! them.

use active_routing_repro::ar_system::{SimReport, Simulation};
use active_routing_repro::ar_types::config::{NamedConfig, SystemConfig};
use active_routing_repro::ar_types::json::Json;
use active_routing_repro::ar_workloads::{SizeClass, WorkloadKind};
use std::path::PathBuf;

/// The pinned corpus: one cell per named configuration, spread over
/// application benchmarks and microbenchmarks.
const CELLS: [(NamedConfig, WorkloadKind, SizeClass); 6] = [
    (NamedConfig::Dram, WorkloadKind::Spmv, SizeClass::Tiny),
    (NamedConfig::Hmc, WorkloadKind::Pagerank, SizeClass::Tiny),
    (NamedConfig::Art, WorkloadKind::Reduce, SizeClass::Tiny),
    (NamedConfig::ArfTid, WorkloadKind::Pagerank, SizeClass::Tiny),
    (NamedConfig::ArfAddr, WorkloadKind::Backprop, SizeClass::Tiny),
    (NamedConfig::ArfTidAdaptive, WorkloadKind::Lud, SizeClass::Tiny),
];

fn quick_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::small();
    cfg.caches.l1_bytes = 2 * 1024;
    cfg.caches.l2_bytes = 8 * 1024;
    cfg.max_cycles = 10_000_000;
    cfg
}

fn fixture_path(config: NamedConfig, kind: WorkloadKind, size: SizeClass) -> PathBuf {
    let name = format!("{kind}_{config}_{size}.json").to_lowercase().replace(['-', ' '], "_");
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn simulate(config: NamedConfig, kind: WorkloadKind, size: SizeClass) -> SimReport {
    Simulation::builder()
        .config(quick_cfg())
        .named(config)
        .workload(kind)
        .size(size)
        .build()
        .expect("valid configuration")
        .run()
}

#[test]
fn golden_corpus_matches_fixtures() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1");
    let mut regenerated = Vec::new();
    for (config, kind, size) in CELLS {
        let label = format!("{kind}/{config}/{size}");
        let report = simulate(config, kind, size);
        assert!(report.completed, "{label}: corpus cell must finish");
        let path = fixture_path(config, kind, size);
        if update {
            std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
            std::fs::write(&path, report.to_json().render()).expect("write fixture");
            regenerated.push(label);
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{label}: missing fixture {} ({e}); run UPDATE_GOLDEN=1 cargo test \
                 --test golden_reports to (re)generate the corpus",
                path.display()
            )
        });
        let golden = SimReport::from_json(&Json::parse(&text).expect("well-formed fixture JSON"))
            .expect("fixture must deserialize");
        // Field-by-field on the headline counters first for readable diffs,
        // then the whole report (covers every remaining field).
        assert_eq!(report.network_cycles, golden.network_cycles, "{label}: network cycles");
        assert_eq!(report.instructions, golden.instructions, "{label}: instructions");
        assert_eq!(report.stalls, golden.stalls, "{label}: stall breakdown");
        assert_eq!(report.data_movement, golden.data_movement, "{label}: data movement");
        assert_eq!(report.gather_results, golden.gather_results, "{label}: gather results");
        assert_eq!(report, golden, "{label}: full report drifted from the golden fixture");
    }
    if update {
        eprintln!(
            "regenerated {} golden fixtures ({}); rerun without UPDATE_GOLDEN to verify",
            regenerated.len(),
            regenerated.join(", ")
        );
    }
}

/// Bulk compute fast-forwarding must reproduce the frozen corpus
/// *unchanged*: the analytic retire/issue schedule (and the end-of-stream
/// ROB drain it also covers) is a pure wall-clock optimisation, so forcing
/// it on — the builder's stats-driven default keeps it off for these
/// short-block workloads — must match the exact bytes the per-cycle issue
/// path pinned. Skipped under `UPDATE_GOLDEN=1`, where fixtures are
/// regenerated from the default kernel.
#[test]
fn golden_corpus_matches_fixtures_with_fast_forward() {
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        eprintln!("UPDATE_GOLDEN=1: skipping the fast-forward comparison (regeneration mode)");
        return;
    }
    for (config, kind, size) in CELLS {
        let label = format!("{kind}/{config}/{size} @ fast_forward");
        let report = Simulation::builder()
            .config(quick_cfg())
            .named(config)
            .workload(kind)
            .size(size)
            .fast_forward(true)
            .build()
            .expect("valid configuration")
            .run();
        let path = fixture_path(config, kind, size);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{label}: missing fixture {} ({e})", path.display()));
        let golden = SimReport::from_json(&Json::parse(&text).expect("well-formed fixture JSON"))
            .expect("fixture must deserialize");
        assert_eq!(report, golden, "{label}: fast-forward drifted from the golden fixture");
    }
}

/// The corpus must round-trip through the JSON shim losslessly — otherwise a
/// fixture mismatch could be a serialization artefact rather than a timing
/// drift.
#[test]
fn corpus_reports_round_trip_through_json() {
    let (config, kind, size) = CELLS[3];
    let report = simulate(config, kind, size);
    let text = report.to_json().render();
    let parsed = SimReport::from_json(&Json::parse(&text).expect("valid JSON"))
        .expect("round-trip must parse");
    assert_eq!(parsed, report);
}
