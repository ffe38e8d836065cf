//! Weak-scaling gate: the 10x machine must stay affordable relative to the
//! paper machine, pinned against a recorded baseline.
//!
//! The `Scaled` size class exists so capacity questions ("does the scheme
//! still work with 10x the cubes?") can be answered without renting a
//! cluster; that only holds while a scaled run costs a predictable multiple
//! of a paper run. This gate runs the weak-scaling workload — the same 512
//! offloaded updates per thread on every machine, so total work grows with
//! the machine — on the quick, paper and scaled machines, and fails if the
//! measured scaled/paper wall-clock ratio regresses more than 15% past the
//! ratio recorded in `BENCH_weak_scaling.json`. Comparing ratios rather than
//! absolute times keeps the gate portable across runners; the interleaved
//! best-of timing (see `kernel_regression.rs`) keeps slow drift on a shared
//! runner from skewing one side.
//!
//! The same run doubles as the artifact recorder: setting
//! `WEAK_SCALING_RECORD=1` rewrites `BENCH_weak_scaling.json` with the
//! host's CPU count and the machine table (wall clock, heap allocations per simulated network cycle
//! via [`bench::CountingAlloc`], peak RSS from `VmHWM`, and the packet
//! pool's peak in-flight footprint from
//! [`ar_system::System::run_with_footprint`]) instead of gating. Machines
//! are measured in ascending size order because `VmHWM` is a monotone
//! process-wide high-water mark: each sample is taken before a larger
//! machine has run, so it reflects that machine's own peak.
//!
//! Compiled only with optimizations (`cargo test --release -p bench`): debug
//! timings would make the ratio meaningless. CI runs it in the bench-smoke
//! step.

#![cfg(not(debug_assertions))]

use ar_system::Simulation;
use ar_types::config::{NamedConfig, SystemConfig};
use ar_types::json::Json;
use ar_workloads::SizeClass;
use bench::CountingAlloc;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The committed baseline artifact, relative to this crate.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_weak_scaling.json");

/// Per-thread offload work; total work scales with the machine's core count.
const BURSTS: bench::OffloadBursts = bench::OffloadBursts { updates_per_thread: 512 };

/// Allowed regression of the scaled/paper wall-clock ratio past the baseline.
const HEADROOM: f64 = 1.15;

fn build(base: &SystemConfig, size: SizeClass) -> ar_system::System {
    Simulation::builder()
        .config(base.clone())
        .named(NamedConfig::ArfTid)
        .workload(BURSTS)
        .size(size)
        .build()
        .expect("valid configuration")
        .into_system()
}

/// Interleaved best-of-N (see `kernel_regression.rs`): each round times both
/// sides back to back so runner-wide drift cancels out of the ratio.
fn ab_best_of(
    n: usize,
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> (Duration, Duration) {
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    for _ in 0..n {
        best_a = best_a.min(a());
        best_b = best_b.min(b());
    }
    (best_a, best_b)
}

fn timed(sys: ar_system::System) -> Duration {
    let start = Instant::now();
    let report = sys.run();
    let elapsed = start.elapsed();
    assert!(report.completed);
    elapsed
}

/// The process's peak resident set in KiB, from `VmHWM` in
/// `/proc/self/status` (0 where the file is unavailable).
fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// One machine's measured row of the artifact. Wall clock is filled in
/// separately so paper and scaled can share an interleaved timing.
struct MachineRow {
    scale: &'static str,
    cores: usize,
    cubes: usize,
    network_cycles: u64,
    updates_offloaded: u64,
    allocs_per_cycle: f64,
    peak_rss_kib: u64,
    peak_packets_in_flight: usize,
    packet_pool_capacity: usize,
    wall: Duration,
}

/// Runs one diagnostic pass on a machine: report + packet-pool footprint via
/// `run_with_footprint`, allocation delta across the run, and the RSS
/// high-water mark sampled immediately afterwards (call in ascending machine
/// order). Also serves as that machine's warm-up for the timed runs.
fn measure(scale: &'static str, base: &SystemConfig, size: SizeClass) -> MachineRow {
    let before = CountingAlloc::allocations();
    let (report, footprint) = build(base, size).run_with_footprint();
    let allocs = CountingAlloc::allocations() - before;
    assert!(report.completed, "{scale}: the weak-scaling run must complete");
    assert!(report.updates_offloaded > 0, "{scale}: the weak-scaling run must offload");
    MachineRow {
        scale,
        cores: base.cores.count,
        cubes: base.network.cubes,
        network_cycles: report.network_cycles,
        updates_offloaded: report.updates_offloaded,
        allocs_per_cycle: allocs as f64 / report.network_cycles.max(1) as f64,
        peak_rss_kib: peak_rss_kib(),
        peak_packets_in_flight: footprint.peak_packets_in_flight,
        packet_pool_capacity: footprint.packet_pool_capacity,
        wall: Duration::ZERO,
    }
}

fn to_json(rows: &[MachineRow], ratio: f64) -> Json {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("schema", Json::from(1_u64)),
        ("host_cpus", Json::from(host_cpus)),
        ("workload", Json::from("offload_bursts")),
        ("updates_per_thread", Json::from(BURSTS.updates_per_thread)),
        ("scaled_over_paper_wall_ratio", Json::from(ratio)),
        (
            "machines",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("scale", Json::from(r.scale)),
                    ("cores", Json::from(r.cores)),
                    ("cubes", Json::from(r.cubes)),
                    ("network_cycles", Json::from(r.network_cycles)),
                    ("updates_offloaded", Json::from(r.updates_offloaded)),
                    ("wall_seconds", Json::from(r.wall.as_secs_f64())),
                    ("allocs_per_cycle", Json::from(r.allocs_per_cycle)),
                    ("peak_rss_kib", Json::from(r.peak_rss_kib)),
                    ("peak_packets_in_flight", Json::from(r.peak_packets_in_flight)),
                    ("packet_pool_capacity", Json::from(r.packet_pool_capacity)),
                ])
            })),
        ),
    ])
}

#[test]
fn scaled_machine_holds_the_recorded_weak_scaling_ratio() {
    let quick_base = bench::BENCH_SCALE.system_config();
    let paper_base = ar_experiments::ExperimentScale::Full.system_config();
    let scaled_base = SystemConfig::scaled();

    // Diagnostics in ascending machine order (VmHWM is monotone); these runs
    // also warm each machine's build path for the timed runs below.
    let mut quick = measure("quick", &quick_base, SizeClass::Small);
    quick.wall = (0..3).map(|_| timed(build(&quick_base, SizeClass::Small))).min().unwrap();
    let mut paper = measure("paper", &paper_base, SizeClass::Paper);
    let mut scaled = measure("scaled", &scaled_base, SizeClass::Scaled);

    // The gated quantity: scaled/paper wall-clock ratio, interleaved.
    let (paper_wall, scaled_wall) = ab_best_of(
        3,
        || timed(build(&paper_base, SizeClass::Paper)),
        || timed(build(&scaled_base, SizeClass::Scaled)),
    );
    paper.wall = paper_wall;
    scaled.wall = scaled_wall;
    let ratio = scaled_wall.as_secs_f64() / paper_wall.as_secs_f64();
    println!(
        "weak scaling: quick {:?} / paper {paper_wall:?} / scaled {scaled_wall:?} \
         (scaled/paper {ratio:.2}x, peak in flight {} -> {} -> {})",
        quick.wall,
        quick.peak_packets_in_flight,
        paper.peak_packets_in_flight,
        scaled.peak_packets_in_flight,
    );

    let rows = [quick, paper, scaled];
    if std::env::var_os("WEAK_SCALING_RECORD").is_some() {
        let text = to_json(&rows, ratio).render();
        std::fs::write(BASELINE_PATH, text + "\n").expect("write BENCH_weak_scaling.json");
        println!("recorded baseline to {BASELINE_PATH}");
        return;
    }

    let baseline = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        panic!(
            "missing weak-scaling baseline {BASELINE_PATH} ({e}); record one with \
             WEAK_SCALING_RECORD=1 cargo test --release -p bench --test weak_scaling"
        )
    });
    let baseline_ratio = Json::parse(&baseline)
        .expect("BENCH_weak_scaling.json parses")
        .get("scaled_over_paper_wall_ratio")
        .and_then(Json::as_f64)
        .expect("baseline records scaled_over_paper_wall_ratio");
    assert!(
        ratio <= baseline_ratio * HEADROOM,
        "the scaled machine regressed past the recorded weak-scaling baseline: \
         scaled/paper wall ratio {ratio:.2} vs recorded {baseline_ratio:.2} \
         (+{HEADROOM:.2}x head-room)"
    );
}
