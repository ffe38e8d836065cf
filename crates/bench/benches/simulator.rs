//! Micro-benchmarks of the simulator substrates themselves (ablation-style):
//! how fast the memory network, the HMC cube model and a single-workload
//! full-system run execute. These are not paper figures; they track the cost
//! of the building blocks so regressions in the simulator are visible.

use ar_system::Simulation;
use ar_types::config::NamedConfig;
use ar_workloads::{SizeClass, WorkloadKind};
use bench::BENCH_SCALE;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_single_runs(c: &mut Criterion) {
    let base = BENCH_SCALE.system_config();
    let mut group = c.benchmark_group("full_system_single_run");
    group.sample_size(10);
    for (name, config) in [
        ("reduce_hmc", NamedConfig::Hmc),
        ("reduce_arf_tid", NamedConfig::ArfTid),
        ("reduce_arf_addr", NamedConfig::ArfAddr),
        ("reduce_art", NamedConfig::Art),
        ("reduce_dram", NamedConfig::Dram),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                Simulation::builder()
                    .config(base.clone())
                    .named(config)
                    .workload(WorkloadKind::Reduce)
                    .size(SizeClass::Tiny)
                    .build()
                    .expect("valid configuration")
                    .run()
            })
        });
    }
    group.finish();
}

/// Event-driven vs lock-step kernel throughput on the workloads the
/// scheduler targets: sparse ones (pagerank, spmv) where most components
/// idle most cycles, and a dense one (sgemm) as the no-regression control.
/// Both kernels produce identical reports (see the equivalence tests); only
/// the wall-clock differs. The printed cycle counts let
/// simulated-cycles-per-wall-second be derived from the reported times.
fn bench_kernel_throughput(c: &mut Criterion) {
    let base = BENCH_SCALE.system_config();
    let mut group = c.benchmark_group("kernel_throughput");
    group.sample_size(10);
    for (name, workload) in [
        ("pagerank", WorkloadKind::Pagerank),
        ("spmv", WorkloadKind::Spmv),
        ("sgemm", WorkloadKind::Sgemm),
    ] {
        let build = || {
            Simulation::builder()
                .config(base.clone())
                .named(NamedConfig::ArfTid)
                .workload(workload)
                .size(SizeClass::Small)
                .build()
                .expect("valid configuration")
                .into_system()
        };
        let report = build().run();
        println!(
            "kernel_throughput/{name}: {} simulated network cycles per run",
            report.network_cycles
        );
        group.bench_function(&format!("{name}_event_driven"), |b| b.iter(|| build().run()));
        group.bench_function(&format!("{name}_lockstep"), |b| b.iter(|| build().run_lockstep()));
    }
    group.finish();
}

/// Bulk compute fast-forwarding on the workload shape it targets: long
/// compute blocks between cache misses (`bench::ComputeBursts`). The event
/// kernel computes each block's retire/issue schedule in closed form and
/// sleeps the core for the block's duration; the `_off` rows run the same
/// simulation with per-cycle issuing (the PR 4 event kernel), and the
/// lock-step row is the full per-cycle reference. All three produce
/// byte-identical reports — only the wall clock differs. The built-in
/// workloads (see `kernel_throughput`) carry only short blocks and are
/// unaffected either way; the release regression gate pins that too.
fn bench_kernel_fastforward(c: &mut Criterion) {
    let base = BENCH_SCALE.system_config();
    let mut group = c.benchmark_group("kernel_fastforward");
    group.sample_size(10);
    for (name, blocks, insns) in
        [("bursts_100k", 24usize, 100_000u32), ("bursts_8k", 96, 8_192), ("bursts_512", 384, 512)]
    {
        let bursts = bench::ComputeBursts { blocks_per_thread: blocks, block_insns: insns };
        let build = |fast_forward: bool| {
            Simulation::builder()
                .config(base.clone())
                .named(NamedConfig::Hmc)
                .workload(bursts)
                .size(SizeClass::Tiny)
                .fast_forward(fast_forward)
                .build()
                .expect("valid configuration")
                .into_system()
        };
        let report = build(true).run();
        println!(
            "kernel_fastforward/{name}: {} simulated network cycles per run",
            report.network_cycles
        );
        group.bench_function(&format!("{name}_fast_forward"), |b| b.iter(|| build(true).run()));
        group.bench_function(&format!("{name}_off"), |b| b.iter(|| build(false).run()));
        group
            .bench_function(&format!("{name}_lockstep"), |b| b.iter(|| build(true).run_lockstep()));
    }
    group.finish();
}

/// The system-level offload-drain fast-forward on the workload shape it
/// targets: long MI-full `Update` runs (`bench::OffloadBursts`) under the
/// ARF-tid offload scheme. The event kernel plans each back-pressured drain
/// interval in closed form (`ar_system::drain`) and sleeps the whole core
/// cluster until the interval ends, submitting the planned commands from a
/// precomputed outbox; the `_off` rows run the same simulation with the
/// planner disabled (per-cycle MI pops, the PR 5 event kernel), and the
/// lock-step row is the full per-cycle reference. All three produce
/// byte-identical reports — only the wall clock differs. Quick scale gates
/// the planner's win on a small cluster; paper scale is the configuration
/// the figure-regeneration runs actually pay for.
fn bench_kernel_offload(c: &mut Criterion) {
    let scales: [(&str, ar_types::config::SystemConfig, usize, usize); 2] = [
        ("quick", BENCH_SCALE.system_config(), 4_096, 10),
        ("paper", ar_experiments::ExperimentScale::Full.system_config(), 8_192, 3),
    ];
    for (scale, base, updates, samples) in scales {
        let mut group = c.benchmark_group(format!("kernel_offload_{scale}"));
        group.sample_size(samples);
        let bursts = bench::OffloadBursts { updates_per_thread: updates };
        let build = |drain: bool| {
            Simulation::builder()
                .config(base.clone())
                .named(NamedConfig::ArfTid)
                .workload(bursts)
                .size(SizeClass::Tiny)
                .drain_fast_forward(drain)
                .build()
                .expect("valid configuration")
                .into_system()
        };
        let report = build(true).run();
        println!(
            "kernel_offload_{scale}: {} simulated network cycles, {} updates offloaded per run",
            report.network_cycles, report.updates_offloaded
        );
        group.bench_function("bursts_drain_fast_forward", |b| b.iter(|| build(true).run()));
        group.bench_function("bursts_off", |b| b.iter(|| build(false).run()));
        group.bench_function("bursts_lockstep", |b| b.iter(|| build(true).run_lockstep()));
        group.finish();
    }
}

/// Weak scaling of the event kernel across the machine size classes: the
/// same per-thread offload work (`bench::OffloadBursts`, 512 updates per
/// thread) on the quick machine, the paper's 16-core/16-cube machine and the
/// 10x weak-scaling machine (`SystemConfig::scaled()`: 160 cores, 160 cubes,
/// 10 dragonfly groups). Because the work is per-thread, total work grows
/// with the machine, and ideal weak scaling would hold wall clock per
/// simulated cycle constant; the printed cycle counts and the pooled
/// network's peak in-flight footprint make the deviation measurable. The
/// release gate (`tests/weak_scaling.rs`) pins the scaled/paper wall-clock
/// ratio against `BENCH_weak_scaling.json`.
fn bench_kernel_weak_scaling(c: &mut Criterion) {
    let scales: [(&str, ar_types::config::SystemConfig, SizeClass, usize); 3] = [
        ("quick", BENCH_SCALE.system_config(), SizeClass::Small, 10),
        ("paper", ar_experiments::ExperimentScale::Full.system_config(), SizeClass::Paper, 10),
        ("scaled", ar_types::config::SystemConfig::scaled(), SizeClass::Scaled, 3),
    ];
    let bursts = bench::OffloadBursts { updates_per_thread: 512 };
    let mut group = c.benchmark_group("kernel_weak_scaling");
    for (scale, base, size, samples) in scales {
        group.sample_size(samples);
        let build = || {
            Simulation::builder()
                .config(base.clone())
                .named(NamedConfig::ArfTid)
                .workload(bursts)
                .size(size)
                .build()
                .expect("valid configuration")
                .into_system()
        };
        let (report, footprint) = build().run_with_footprint();
        println!(
            "kernel_weak_scaling/{scale}: {} simulated network cycles, {} updates offloaded, \
             peak {} packets in flight per run",
            report.network_cycles, report.updates_offloaded, footprint.peak_packets_in_flight
        );
        group.bench_function(scale, |b| b.iter(|| build().run()));
    }
    group.finish();
}

/// Checkpoint/restore costs and the warm-fan-out sweep pattern. `snapshot`
/// prices serializing a mid-run system to its checkpoint JSON, `restore`
/// prices building a simulation back out of one (state decode + load), and
/// the `fan_out_*` pair compares warm-up-once-then-fan-out (one shared
/// prefix, N resumed variants) against N cold full runs of the same
/// report-neutral knob variants — the shared prefix is simulated once
/// instead of N times, which is the pattern's entire win. All fanned
/// reports are byte-identical to their cold runs (asserted by the sweep
/// unit tests and the checkpoint property suite).
fn bench_kernel_checkpoint(c: &mut Criterion) {
    use ar_system::{warm_fan_out, CellKey, CellKnobs};
    use std::sync::Arc;

    let base = BENCH_SCALE.system_config();
    let mut group = c.benchmark_group("kernel_checkpoint");
    group.sample_size(10);
    let build = || {
        Simulation::builder()
            .config(base.clone())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Pagerank)
            .size(SizeClass::Small)
            .build()
            .expect("valid configuration")
    };
    let full = build().run();
    let prefix = full.network_cycles / 2;
    let mut warm = build();
    warm.run_prefix(prefix);
    let rendered = warm.checkpoint().to_json().render();
    println!(
        "kernel_checkpoint: {} simulated network cycles per run, snapshot at {prefix} \
         ({} checkpoint bytes)",
        full.network_cycles,
        rendered.len()
    );
    group.bench_function("snapshot", |b| b.iter(|| warm.checkpoint().to_json().render()));
    let ck = warm.checkpoint();
    group.bench_function("restore", |b| {
        b.iter(|| build_restore(&base, ck.clone()).expect("valid restore"))
    });

    // Three report-neutral knob variants, the warm-fan-out shape: one shared
    // prefix + three resumed tails, vs three cold full runs.
    let variants = [
        CellKnobs::default(),
        CellKnobs { drain_fast_forward: Some(false), ..CellKnobs::default() },
        CellKnobs { fast_forward: Some(false), ..CellKnobs::default() },
    ];
    let cell = CellKey::new("pagerank", NamedConfig::ArfTid, SizeClass::Small);
    let workload: Arc<dyn ar_workloads::Workload> = Arc::new(WorkloadKind::Pagerank);
    group.bench_function("fan_out_warm", |b| {
        b.iter(|| {
            warm_fan_out(&base, workload.clone(), &cell, prefix, &variants).expect("valid fan-out")
        })
    });
    group.bench_function("fan_out_cold", |b| {
        b.iter(|| {
            variants
                .iter()
                .map(|knobs| {
                    cell.clone()
                        .with_knobs(*knobs)
                        .configure(&base, workload.clone())
                        .build()
                        .expect("valid configuration")
                        .run()
                })
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// Builds a pagerank/ARF-tid/Small simulation restored from `ck` (split out
/// so the `restore` row prices exactly the decode + state-load path).
fn build_restore(
    base: &ar_types::config::SystemConfig,
    ck: ar_system::Checkpoint,
) -> Result<ar_system::Simulation, ar_types::error::ConfigError> {
    Simulation::builder()
        .config(base.clone())
        .named(NamedConfig::ArfTid)
        .workload(WorkloadKind::Pagerank)
        .size(SizeClass::Small)
        .from_checkpoint(ck)
        .build()
}

fn bench_workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generation");
    group.sample_size(20);
    for kind in [WorkloadKind::Pagerank, WorkloadKind::Sgemm, WorkloadKind::Spmv] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| kind.generate(4, SizeClass::Small, ar_workloads::Variant::Active))
        });
    }
    group.finish();
}

criterion_group!(
    simulator,
    bench_single_runs,
    bench_kernel_throughput,
    bench_kernel_fastforward,
    bench_kernel_offload,
    bench_kernel_weak_scaling,
    bench_kernel_checkpoint,
    bench_workload_generation
);
criterion_main!(simulator);
