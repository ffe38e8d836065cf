//! Event-driven vs lock-step property suite for offload-heavy runs.
//!
//! While a core offloads, its Message Interface (Section 3.1.2) sends one
//! command per network cycle, so the event kernel must keep the core
//! cluster awake through a back-pressured `Update` run and let it sleep
//! again once the queues empty. The correctness contract is *byte
//! identity*: for any offload mix, any core shape and any truncation, the
//! event kernel's report must equal the lock-step reference's. This suite
//! sweeps that contract over randomized inputs, all driven by the
//! workspace's deterministic [`SimRng`]:
//!
//! * random Message-Interface depths, issue widths and ROB sizes;
//! * random command mixes — long `Update` runs interrupted by loads,
//!   computes, two-operand ops and gathers;
//! * IPC sample probes ([`Sample`] streams compared sample-for-sample) and
//!   random `max_cycles` truncations.

use active_routing_repro::ar_sim::SimRng;
use active_routing_repro::ar_system::{
    Observer, ObserverControl, Sample, SimEvent, SimReport, Simulation,
};
use active_routing_repro::ar_types::config::{CoreConfig, OffloadScheme, SystemConfig};
use active_routing_repro::ar_types::{Addr, ReduceOp, ThreadId, WorkItem, WorkStream};
use active_routing_repro::ar_workloads::{GeneratedWorkload, SizeClass, Variant, Workload};
use std::sync::{Arc, Mutex};

/// A randomized offload-heavy workload: every thread issues a few long
/// `Update` runs against a back-pressuring Message Interface, salted with
/// the other item kinds, then closes its flow with a gather. Generation is a
/// pure function of the seed, so every builder call sees the identical
/// streams.
struct OffloadMix {
    seed: u64,
}

impl Workload for OffloadMix {
    fn name(&self) -> &str {
        "offload_mix"
    }

    fn generate(&self, threads: usize, _size: SizeClass, variant: Variant) -> GeneratedWorkload {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut updates = 0u64;
        let streams = (0..threads)
            .map(|t| {
                let mut s = WorkStream::new(ThreadId::new(t));
                let target = Addr::new(0x3000_0000 + t as u64 * 64);
                let bursts = 1 + rng.index(3);
                for _ in 0..bursts {
                    // A short non-offload prelude so runs start at
                    // data-dependent cycles (and some start at cycle 0).
                    match rng.next_below(4) {
                        0 => s.push(WorkItem::Compute(1 + rng.next_below(60) as u32)),
                        1 => s.push(WorkItem::Load(Addr::new(
                            0x4_0000 + rng.next_below(1 << 10) * 8,
                        ))),
                        _ => {}
                    }
                    // The update run: long enough to fill any MI depth and
                    // back-pressure for many cycles.
                    let run = 20 + rng.next_below(400);
                    for i in 0..run {
                        let src1 = Addr::new(0x1000_0000 + (t as u64 * 4096 + i) * 8);
                        let (op, src2) = if rng.chance(0.3) {
                            (ReduceOp::Mac, Some(Addr::new(0x2000_0000 + i * 8)))
                        } else {
                            (ReduceOp::Sum, None)
                        };
                        s.push(WorkItem::Update { op, src1, src2, imm: None, target });
                        updates += 1;
                    }
                }
                s.push(WorkItem::Gather {
                    target,
                    op: ReduceOp::Sum,
                    num_threads: 1,
                    wait: rng.chance(0.5),
                });
                s
            })
            .collect();
        GeneratedWorkload {
            name: "offload_mix".to_string(),
            variant,
            streams,
            memory: Vec::new(),
            references: Vec::new(),
            updates,
        }
    }
}

/// A random core shape. Tiny MI depths and ROBs maximize back-pressure;
/// wide shapes maximize the issue rate the Message Interface must absorb.
fn random_cfg(rng: &mut SimRng) -> SystemConfig {
    let mut cfg = SystemConfig::small().with_scheme(OffloadScheme::ArfTid);
    cfg.max_cycles = 10_000_000;
    cfg.cores = CoreConfig {
        count: cfg.cores.count,
        issue_width: [1, 2, 8][rng.index(3)],
        rob_entries: [4, 16, 64][rng.index(3)],
        mi_queue_depth: [1, 2, 4, 8][rng.index(4)],
        ..cfg.cores
    };
    cfg
}

fn assert_reports_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.network_cycles, b.network_cycles, "{label}: network cycles");
    assert_eq!(a.instructions, b.instructions, "{label}: instructions");
    assert_eq!(a.stalls, b.stalls, "{label}: stall breakdown");
    assert_eq!(a.updates_offloaded, b.updates_offloaded, "{label}: updates");
    assert_eq!(a.gather_results, b.gather_results, "{label}: gather results");
    assert_eq!(a, b, "{label}: full report");
}

/// The main differential sweep: random core shapes × random command mixes,
/// each run on the event kernel and the lock-step reference — two
/// byte-identical reports per case.
#[test]
fn offload_mixes_are_byte_identical_across_kernels_and_shapes() {
    let mut rng = SimRng::seed_from_u64(0xD4A1_FF5D);
    for case in 0..10u64 {
        let cfg = random_cfg(&mut rng);
        let seed = rng.next_u64();
        let build = || {
            Simulation::builder()
                .config(cfg.clone())
                .workload(OffloadMix { seed })
                .size(SizeClass::Tiny)
        };
        let event = build().build().expect("valid").run();
        assert!(event.completed, "case {case}: the offload mix must finish");
        assert!(event.updates_offloaded > 0, "case {case}: the mix must offload");
        let lockstep = build().lockstep().build().expect("valid").run();
        assert_reports_identical(&event, &lockstep, &format!("case {case}: event vs lock-step"));
    }
}

/// An observer that shares its recorded samples so two runs' streams can be
/// compared (the bundled `SampleRecorder` is consumed by the run).
#[derive(Clone, Default)]
struct SharedSamples(Arc<Mutex<Vec<Sample>>>);

impl Observer for SharedSamples {
    fn on_event(&mut self, event: &SimEvent) -> ObserverControl {
        if let SimEvent::Sample(sample) = event {
            self.0.lock().expect("sample log").push(*sample);
        }
        ObserverControl::Continue
    }
}

/// IPC samples taken while cores issue offload runs must match the
/// lock-step kernel sample-for-sample: every sample reads the same settled
/// counts.
#[test]
fn ipc_samples_during_offload_runs_match_per_cycle() {
    let mut rng = SimRng::seed_from_u64(0x1BC_B80B);
    for case in 0..4u64 {
        let cfg = random_cfg(&mut rng);
        let seed = rng.next_u64();
        let run = |lockstep: bool| {
            let samples = SharedSamples::default();
            let mut b = Simulation::builder()
                .config(cfg.clone())
                .workload(OffloadMix { seed })
                .size(SizeClass::Tiny)
                .observer(samples.clone());
            if lockstep {
                b = b.lockstep();
            }
            let report = b.build().expect("valid").run();
            let log = samples.0.lock().expect("sample log").clone();
            (report, log)
        };
        let (event_report, event_samples) = run(false);
        let (lockstep_report, lockstep_samples) = run(true);
        assert!(event_report.completed, "case {case}: run must finish");
        assert_eq!(event_report, lockstep_report, "case {case}: kernels diverged");
        assert_eq!(event_samples, lockstep_samples, "case {case}: sample streams diverged");
    }
}

/// Random `max_cycles` truncations: a limit landing anywhere — including
/// inside a back-pressured `Update` run — must settle both kernels to
/// identical (incomplete) statistics.
#[test]
fn random_cycle_limits_truncate_identically() {
    let mut rng = SimRng::seed_from_u64(0x7B0_C833);
    let mut truncated = 0u64;
    for case in 0..8u64 {
        let mut cfg = random_cfg(&mut rng);
        let seed = rng.next_u64();
        cfg.max_cycles = 50 + rng.next_below(3_000);
        let build = || {
            Simulation::builder()
                .config(cfg.clone())
                .workload(OffloadMix { seed })
                .size(SizeClass::Tiny)
        };
        let event = build().build().expect("valid").run();
        let lockstep = build().lockstep().build().expect("valid").run();
        assert_reports_identical(&event, &lockstep, &format!("case {case}: truncated runs"));
        if !event.completed {
            truncated += 1;
            assert_eq!(event.network_cycles, cfg.max_cycles, "case {case}: cut at the limit");
        }
    }
    assert!(truncated >= 4, "the limit sweep must actually truncate runs (hit {truncated})");
}
