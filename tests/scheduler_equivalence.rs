//! Lock-step vs event-driven kernel equivalence.
//!
//! The event-driven scheduler in `ar-sim`/`ar-system` must be a pure
//! wall-clock optimisation: skipping a cycle (or a component within a cycle)
//! is only legal when processing it would have been a no-op. These tests
//! build the same system twice and assert that [`System::run`] (event-driven)
//! and [`System::run_lockstep`] (every component, every cycle) produce
//! *identical* [`SimReport`]s — every cycle count, stall counter, byte
//! counter, latency breakdown, gather result and IPC sample.
//!
//! This suite is the safety net of the lazy timing models: parked cores
//! (interval-based stall accounting) and batched vault drains are skipped by
//! the event-driven kernel but exercised per cycle by the lock-step
//! reference, so any divergence in their settle/batch arithmetic surfaces
//! here as a report mismatch. The full matrix covers **all nine built-in
//! workloads × all six named configurations** at quick scale, one test per
//! workload, with every assertion naming its (workload, config) cell.
//!
//! Finally every cell carries a **snapshot/restore axis**: the run is
//! split at its halfway cycle through a [`Checkpoint`] round-tripped
//! through its serialized JSON form (exactly like a restore from disk),
//! and the resumed run must be byte-identical to the uninterrupted one.

use active_routing_repro::ar_system::{
    Checkpoint, DeadlineStop, SimReport, Simulation, SimulationBuilder,
};
use active_routing_repro::ar_types::config::{NamedConfig, SystemConfig};
use active_routing_repro::ar_types::Json;
use active_routing_repro::ar_workloads::{SizeClass, WorkloadKind};

fn quick_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::small();
    cfg.caches.l1_bytes = 2 * 1024;
    cfg.caches.l2_bytes = 8 * 1024;
    cfg.max_cycles = 10_000_000;
    cfg
}

fn builder(config: NamedConfig, kind: WorkloadKind, size: SizeClass) -> SimulationBuilder {
    Simulation::builder().config(quick_cfg()).named(config).workload(kind).size(size)
}

fn run_both(config: NamedConfig, kind: WorkloadKind, size: SizeClass) -> (SimReport, SimReport) {
    let event = builder(config, kind, size).build().expect("valid configuration").run();
    let lockstep =
        builder(config, kind, size).lockstep().build().expect("valid configuration").run();
    (event, lockstep)
}

fn assert_identical(event: &SimReport, lockstep: &SimReport, label: &str) {
    // Compare the load-bearing scalars individually first so a mismatch
    // reports *what* diverged, then the whole report (which also covers the
    // gather results and the IPC series).
    assert_eq!(event.network_cycles, lockstep.network_cycles, "{label}: network cycles");
    assert_eq!(event.core_cycles, lockstep.core_cycles, "{label}: core cycles");
    assert_eq!(event.instructions, lockstep.instructions, "{label}: instructions");
    assert_eq!(event.completed, lockstep.completed, "{label}: completion");
    assert_eq!(event.stalls, lockstep.stalls, "{label}: stall breakdown");
    assert_eq!(event.l1_accesses, lockstep.l1_accesses, "{label}: L1 accesses");
    assert_eq!(event.l2_accesses, lockstep.l2_accesses, "{label}: L2 accesses");
    assert_eq!(event.updates_offloaded, lockstep.updates_offloaded, "{label}: updates");
    assert_eq!(event.gathers_offloaded, lockstep.gathers_offloaded, "{label}: gathers");
    assert_eq!(event.update_latency, lockstep.update_latency, "{label}: update latency");
    assert_eq!(event.data_movement, lockstep.data_movement, "{label}: data movement");
    assert_eq!(event.noc_byte_hops, lockstep.noc_byte_hops, "{label}: NoC byte hops");
    assert_eq!(event.network_byte_hops, lockstep.network_byte_hops, "{label}: net byte hops");
    assert_eq!(event.hmc_bytes, lockstep.hmc_bytes, "{label}: HMC bytes");
    assert_eq!(event.dram_bytes, lockstep.dram_bytes, "{label}: DRAM bytes");
    assert_eq!(event.are_ops, lockstep.are_ops, "{label}: ARE ops");
    assert_eq!(event.cube_activity, lockstep.cube_activity, "{label}: cube activity");
    assert_eq!(event.gather_results, lockstep.gather_results, "{label}: gather results");
    assert_eq!(event, lockstep, "{label}: full report");
}

/// Shared matrix helper: runs one workload under every named configuration
/// (the five plotted ones plus ARF-tid-adaptive) with both kernels and
/// asserts identical reports, naming the failing (workload, config) cell.
/// Each cell then sweeps the **fast-forward axis**: bulk compute
/// fast-forwarding forced on and off (the builder's default is decided by
/// the workload's compute-block statistics, so both forced modes genuinely
/// differ from some default) — the analytic retire/issue schedule may never
/// change a single report byte.
///
/// The final sweep is the **offload-drain axis**: the closed-form drain
/// planner forced on and off (the builder's default enables it exactly when
/// the workload offloads, so both forced modes differ from some default). A
/// planned drain window replays the whole MI-full interval — retire/issue
/// schedules, Message-Interface pops, host submissions, stall attribution —
/// from the scalar model, and none of it may change a single report byte.
fn assert_workload_equivalence(kind: WorkloadKind) {
    for named in NamedConfig::ALL_WITH_ADAPTIVE {
        let (event, lockstep) = run_both(named, kind, SizeClass::Tiny);
        assert!(event.completed, "{kind}/{named}: run must finish within the cycle limit");
        assert_identical(&event, &lockstep, &format!("{kind}/{named}"));
        for ff in [true, false] {
            let fast = builder(named, kind, SizeClass::Tiny)
                .fast_forward(ff)
                .build()
                .expect("valid configuration")
                .run();
            assert_identical(&event, &fast, &format!("{kind}/{named} @ fast_forward={ff}"));
        }
        for dff in [true, false] {
            let drained = builder(named, kind, SizeClass::Tiny)
                .drain_fast_forward(dff)
                .build()
                .expect("valid configuration")
                .run();
            assert_identical(
                &event,
                &drained,
                &format!("{kind}/{named} @ drain_fast_forward={dff}"),
            );
        }
        // The snapshot/restore axis: split the cell at its halfway cycle,
        // round-trip the checkpoint through its serialized form and resume;
        // the spliced run must be byte-identical to the uninterrupted one.
        let split = (event.network_cycles / 2).max(1);
        let mut warm = builder(named, kind, SizeClass::Tiny).build().expect("valid configuration");
        warm.run_prefix(split);
        let doc = Json::parse(&warm.checkpoint().to_json().render())
            .expect("checkpoints render to valid JSON");
        let ck = Checkpoint::from_json(&doc).expect("rendered checkpoints decode");
        let resumed = builder(named, kind, SizeClass::Tiny)
            .from_checkpoint(ck)
            .build()
            .expect("valid restore")
            .run();
        assert_identical(&event, &resumed, &format!("{kind}/{named} @ restored from {split}"));
    }
}

#[test]
fn backprop_equivalence_across_all_configs() {
    assert_workload_equivalence(WorkloadKind::Backprop);
}

#[test]
fn lud_equivalence_across_all_configs() {
    assert_workload_equivalence(WorkloadKind::Lud);
}

#[test]
fn pagerank_equivalence_across_all_configs() {
    assert_workload_equivalence(WorkloadKind::Pagerank);
}

#[test]
fn sgemm_equivalence_across_all_configs() {
    assert_workload_equivalence(WorkloadKind::Sgemm);
}

#[test]
fn spmv_equivalence_across_all_configs() {
    assert_workload_equivalence(WorkloadKind::Spmv);
}

#[test]
fn reduce_equivalence_across_all_configs() {
    assert_workload_equivalence(WorkloadKind::Reduce);
}

#[test]
fn rand_reduce_equivalence_across_all_configs() {
    assert_workload_equivalence(WorkloadKind::RandReduce);
}

#[test]
fn mac_equivalence_across_all_configs() {
    assert_workload_equivalence(WorkloadKind::Mac);
}

#[test]
fn rand_mac_equivalence_across_all_configs() {
    assert_workload_equivalence(WorkloadKind::RandMac);
}

/// Regression: at small (not tiny) scale, `lud`'s fire-and-forget gathers
/// can deliver their results *after* the issuing core has already retired
/// everything — the completion must not perturb the done-core bookkeeping
/// (a done core re-counted as "newly done" once inflated the counter, shut
/// the cluster phase down with Message-Interface commands still queued, and
/// livelocked the run to the cycle limit). The Tiny-size matrix above never
/// reaches this interleaving, so this cell pins it at `SizeClass::Small`
/// across both kernels and both fast-forward modes.
#[test]
fn late_gather_completions_after_core_retirement_keep_kernels_equivalent() {
    let event = builder(NamedConfig::ArfTid, WorkloadKind::Lud, SizeClass::Small)
        .build()
        .expect("valid")
        .run();
    assert!(event.completed, "the event kernel must finish the small lud run");
    let lockstep = builder(NamedConfig::ArfTid, WorkloadKind::Lud, SizeClass::Small)
        .lockstep()
        .build()
        .expect("valid")
        .run();
    assert_identical(&event, &lockstep, "lud/ARF-tid @ small");
    for ff in [true, false] {
        let fast = builder(NamedConfig::ArfTid, WorkloadKind::Lud, SizeClass::Small)
            .fast_forward(ff)
            .build()
            .expect("valid")
            .run();
        assert_identical(&event, &fast, &format!("lud/ARF-tid @ small fast_forward={ff}"));
    }
}

/// The cycle limit must cut both kernels off at the same point with the same
/// (incomplete) statistics — including the stall intervals of cores that are
/// still parked when the limit strikes, which the event-driven kernel settles
/// at report time.
#[test]
fn cycle_limit_truncates_both_kernels_identically() {
    let mut cfg = quick_cfg();
    cfg.max_cycles = 500;
    let truncated = |lockstep: bool| {
        let mut b = Simulation::builder()
            .config(cfg.clone())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Pagerank)
            .size(SizeClass::Tiny);
        if lockstep {
            b = b.lockstep();
        }
        b.build().expect("valid").run()
    };
    let event = truncated(false);
    let lockstep = truncated(true);
    assert!(!event.completed, "500 cycles must not be enough");
    assert_identical(&event, &lockstep, "truncated pagerank/ARF-tid");
    assert_eq!(event.network_cycles, 500);
    // Forced fast-forwarding must settle any interval the limit cuts
    // through to the identical truncated numbers.
    for ff in [true, false] {
        let fast = Simulation::builder()
            .config(cfg.clone())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Pagerank)
            .size(SizeClass::Tiny)
            .fast_forward(ff)
            .build()
            .expect("valid")
            .run();
        assert_identical(&event, &fast, &format!("truncated pagerank @ fast_forward={ff}"));
    }
    // The drain planner caps every window at `max_cycles - 1`, so a forced-on
    // run must hit the limit with the identical truncated numbers.
    let drained = Simulation::builder()
        .config(cfg.clone())
        .named(NamedConfig::ArfTid)
        .workload(WorkloadKind::Pagerank)
        .size(SizeClass::Tiny)
        .drain_fast_forward(true)
        .build()
        .expect("valid")
        .run();
    assert_identical(&event, &drained, "truncated pagerank @ drain_fast_forward=true");
}

/// An observer stopping the run early must also leave both kernels with
/// identical (incomplete) statistics. This cuts the run *after* a fully
/// processed cycle — unlike the cycle-limit exit — so it pins the settlement
/// boundary for cores that are still parked when the stop lands.
#[test]
fn observer_stop_truncates_both_kernels_identically() {
    for deadline in [1024u64, 2048, 3072] {
        let run = |lockstep: bool| {
            let mut b = builder(NamedConfig::ArfTid, WorkloadKind::Pagerank, SizeClass::Small)
                .observer(DeadlineStop::at(deadline));
            if lockstep {
                b = b.lockstep();
            }
            b.build().expect("valid").run()
        };
        let event = run(false);
        let lockstep = run(true);
        assert!(!event.completed, "deadline {deadline} must cut the small run short");
        assert_identical(&event, &lockstep, &format!("deadline-{deadline} pagerank/ARF-tid"));
        // Windows never arm while an observer has stopped the run, and the
        // stop boundary can never land inside a window (drain arming is
        // excluded on IPC boundaries, where deadline stops fire) — forced-on
        // planning must truncate to the identical report.
        let drained = builder(NamedConfig::ArfTid, WorkloadKind::Pagerank, SizeClass::Small)
            .observer(DeadlineStop::at(deadline))
            .drain_fast_forward(true)
            .build()
            .expect("valid")
            .run();
        assert_identical(
            &event,
            &drained,
            &format!("deadline-{deadline} pagerank @ drain_fast_forward=true"),
        );
    }
}

/// Same truncation check on a baseline (no-offload) configuration, where the
/// parked-core path is exercised through plain memory stalls.
#[test]
fn cycle_limit_truncates_identically_on_the_dram_baseline() {
    let mut cfg = quick_cfg();
    cfg.max_cycles = 60;
    let truncated = |lockstep: bool| {
        let mut b = Simulation::builder()
            .config(cfg.clone())
            .named(NamedConfig::Dram)
            .workload(WorkloadKind::Spmv)
            .size(SizeClass::Tiny);
        if lockstep {
            b = b.lockstep();
        }
        b.build().expect("valid").run()
    };
    let event = truncated(false);
    let lockstep = truncated(true);
    assert!(!event.completed, "60 cycles must not be enough");
    assert_identical(&event, &lockstep, "truncated spmv/DRAM");
}
