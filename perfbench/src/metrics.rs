//! The benchmark's metrics: what each one is called, its unit and better
//! direction, which end-to-end metric a per-layer one should move, and how
//! each value is derived from passes, spans and reports.

use crate::cells::{Class, FirstReports};
use crate::stats::{geometric_mean, median, percentile, ratio};
use crate::trace::{self, Span};
use crate::Pass;
use ar_system::SimReport;
use ar_types::config::{NamedConfig, PowerConfig};
use ar_workloads::WorkloadKind;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a per-layer metric should show: for each workload, the end-to-end
/// metrics it should move there, plus a qualifying note.
pub struct Moves {
    pub on: &'static [(&'static str, &'static [&'static str])],
    pub note: &'static str,
}

impl Moves {
    /// Moves nothing: end-to-end metrics themselves.
    const NONE: Moves = Moves { on: &[], note: "" };

    /// One line, e.g. `setup_s on paper_matrix`.
    pub fn describe(&self) -> String {
        let targets: Vec<String> = self
            .on
            .iter()
            .map(|(workload, metrics)| format!("{} on {workload}", metrics.join(", ")))
            .collect();
        let line = targets.join("; ");
        match (line.is_empty(), self.note.is_empty()) {
            (_, true) => line,
            (true, false) => self.note.to_string(),
            (false, false) => format!("{line} ({})", self.note),
        }
    }
}

/// One metric the benchmark prints.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// For a per-layer metric, what it should move. Per-layer metrics have
    /// no place for this in `BENCHMARK.json`, whose entries hold exactly a
    /// name, a unit and a direction; the traced run writes it with every
    /// value instead.
    pub moves: Moves,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, moves: Moves) -> Spec {
    Spec { name, unit, better, moves }
}

use Better::{Higher, Lower};

/// Printed by every untraced run (host time unless the name says otherwise).
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Lower, Moves::NONE),
    spec("wall_s", "s", Lower, Moves::NONE),
    spec("sim_cycles_per_s", "1/s", Higher, Moves::NONE),
    spec("op_ms_p50", "ms", Lower, Moves::NONE),
    spec("op_ms_p90", "ms", Lower, Moves::NONE),
    spec("peak_rss_mib", "MiB", Lower, Moves::NONE),
];

const SETUP: Moves = Moves { on: &[("paper_matrix", &["setup_s"])], note: "" };
const RUN_DRAM_HMC: Moves = Moves {
    on: &[
        ("paper_matrix", &["wall_s", "sim_cycles_per_s", "op_ms_p50"]),
        ("serve_cache", &["wall_s", "sim_cycles_per_s", "op_ms_p90"]),
    ],
    note: "on serve_cache through the cold requests only",
};
const RUN_ACTIVE: Moves = Moves {
    on: &[
        ("paper_matrix", &["wall_s", "sim_cycles_per_s", "op_ms_p90"]),
        ("serve_cache", &["wall_s", "sim_cycles_per_s", "op_ms_p90"]),
    ],
    note: "on serve_cache through the cold requests only",
};
const PAGERANK_WALL: Moves =
    Moves { on: &[("paper_matrix", &["wall_s"])], note: "through the pagerank cells" };
const SERVE_COLD: Moves =
    Moves { on: &[("serve_cache", &["wall_s", "sim_cycles_per_s", "op_ms_p90"])], note: "" };
const SERVE_WARM: Moves =
    Moves { on: &[("serve_cache", &["wall_s", "op_ms_p50"])], note: "the warm requests" };
const FIDELITY: Moves = Moves {
    on: &[],
    note: "none on host time: simulated, identical across simulator-speed changes",
};

/// Printed by every traced run. Host-time metrics come from the traced
/// passes' spans; the rest are simulated statistics of the reports.
pub const PER_LAYER: &[Spec] = &[
    spec("ar-workloads.generate_ms", "ms", Lower, SETUP),
    spec("ar-system.build_ms", "ms", Lower, SETUP),
    spec("ar-system.run_ms.dram", "ms", Lower, RUN_DRAM_HMC),
    spec("ar-system.run_ms.hmc", "ms", Lower, RUN_DRAM_HMC),
    spec("ar-system.run_ms.active", "ms", Lower, RUN_ACTIVE),
    spec("ar-system.ns_per_sim_cycle.dram", "ns/cycle", Lower, RUN_DRAM_HMC),
    spec("ar-system.ns_per_sim_cycle.hmc", "ns/cycle", Lower, RUN_DRAM_HMC),
    spec("ar-system.ns_per_sim_cycle.active", "ns/cycle", Lower, RUN_ACTIVE),
    spec(
        "ar-system.phase_ms.scatter",
        "ms",
        Lower,
        Moves {
            on: &[("paper_matrix", &["wall_s"])],
            note: "through the pagerank cells; not by offload-path changes",
        },
    ),
    spec(
        "ar-system.phase_ms.update",
        "ms",
        Lower,
        Moves {
            on: &[("paper_matrix", &["wall_s"])],
            note: "through the pagerank cells; by offload-path changes",
        },
    ),
    spec("ar-system.window_ms_p50", "ms", Lower, PAGERANK_WALL),
    spec("ar-system.window_ms_p99", "ms", Lower, PAGERANK_WALL),
    spec(
        "ar-system.peak_packets_in_flight",
        "count",
        Lower,
        Moves { on: &[("paper_matrix", &["peak_rss_mib"])], note: "" },
    ),
    spec(
        "ar-experiments.tables_ms",
        "ms",
        Lower,
        Moves { on: &[("paper_matrix", &["wall_s"]), ("serve_cache", &["wall_s"])], note: "" },
    ),
    spec("ar-serve.cold_s", "s", Lower, SERVE_COLD),
    spec("ar-serve.warm_s", "s", Lower, SERVE_WARM),
    spec("ar-serve.miss_ms", "ms", Lower, SERVE_COLD),
    spec("ar-serve.hit_ms", "ms", Lower, SERVE_WARM),
    spec("ar-serve.hits", "count", Higher, SERVE_WARM),
    spec("ar-serve.runs", "count", Lower, SERVE_COLD),
    spec("ar-types.json.encode_us", "us", Lower, SERVE_COLD),
    spec("ar-types.json.decode_us", "us", Lower, SERVE_WARM),
    spec("ar-types.json.report_bytes", "B", Lower, SERVE_WARM),
    spec(
        "perfbench.trace_overhead_s",
        "s",
        Lower,
        Moves { on: &[], note: "nothing: traced minus untraced wall_s" },
    ),
    spec("ar-cpu.ipc.dram", "insn/cycle", Higher, FIDELITY),
    spec("ar-cpu.ipc.hmc", "insn/cycle", Higher, FIDELITY),
    spec("ar-cpu.ipc.active", "insn/cycle", Higher, FIDELITY),
    spec("ar-cpu.stall_per_cycle.memory.dram", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.memory.hmc", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.memory.active", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.gather.dram", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.gather.hmc", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.gather.active", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.barrier.dram", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.barrier.hmc", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.barrier.active", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.offload.dram", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.offload.hmc", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.offload.active", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.rob_full.dram", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.rob_full.hmc", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cpu.stall_per_cycle.rob_full.active", "cycle/cycle", Lower, FIDELITY),
    spec("ar-cache.l1_hit_rate.dram", "ratio", Higher, FIDELITY),
    spec("ar-cache.l1_hit_rate.hmc", "ratio", Higher, FIDELITY),
    spec("ar-cache.l1_hit_rate.active", "ratio", Higher, FIDELITY),
    spec("ar-cache.l2_hit_rate.dram", "ratio", Higher, FIDELITY),
    spec("ar-cache.l2_hit_rate.hmc", "ratio", Higher, FIDELITY),
    spec("ar-cache.l2_hit_rate.active", "ratio", Higher, FIDELITY),
    spec("ar-cache.invalidations", "count", Lower, FIDELITY),
    spec("ar-network.byte_hops", "byte-hops", Lower, FIDELITY),
    spec("ar-network.noc_byte_hops", "byte-hops", Lower, FIDELITY),
    spec("ar-hmc.bytes", "B", Lower, FIDELITY),
    spec("ar-dram.bytes", "B", Lower, FIDELITY),
    spec("active-routing.updates_offloaded", "count", Higher, FIDELITY),
    spec("active-routing.are_ops", "count", Higher, FIDELITY),
    spec("active-routing.latency.request", "cycles", Lower, FIDELITY),
    spec("active-routing.latency.stall", "cycles", Lower, FIDELITY),
    spec("active-routing.latency.response", "cycles", Lower, FIDELITY),
    spec("active-routing.operand_stall_cycles", "cycles", Lower, FIDELITY),
    spec("active-routing.active_req_bytes", "B", Lower, FIDELITY),
    spec("ar-power.edp", "J.s", Lower, FIDELITY),
    spec("model.arf_tid_speedup_gmean", "x", Higher, FIDELITY),
    spec("model.arf_tid_bytes_over_hmc", "x", Lower, FIDELITY),
];

/// Metric values by name. A metric a workload does not exercise keeps 0.
pub type Values = BTreeMap<&'static str, f64>;

/// Each key's smallest value over the passes' keyed timings.
fn best_by_key<'a>(timings: impl Iterator<Item = &'a Vec<(u32, f64)>>) -> Vec<f64> {
    let mut best: BTreeMap<u32, f64> = BTreeMap::new();
    for &(key, value) in timings.flatten() {
        let slot = best.entry(key).or_insert(value);
        *slot = slot.min(value);
    }
    best.into_values().collect()
}

/// End-to-end metrics over the untraced passes. Interference from other
/// work on a shared host only ever adds time, and it comes in bursts shorter
/// than a pass, so a run's timings are its best: each cell's fastest set-up,
/// simulation and latency, summed (or ranked) over cells. `wall_s` is the
/// summed fastest simulations plus the fastest rest of a pass (the figure
/// tables; for the sweep server also the warm passes).
pub fn end_to_end(passes: &[Pass], peak_rss_mib: f64) -> Values {
    let setup_s: f64 = best_by_key(passes.iter().map(|p| &p.setup)).iter().sum();
    let sim_s: f64 = best_by_key(passes.iter().map(|p| &p.sim_s)).iter().sum();
    let rest_s = passes
        .iter()
        .map(|p| p.wall_s - p.sim_s.iter().map(|&(_, s)| s).sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    let sim_cycles = passes.first().map_or(0, |p| p.sim_cycles);
    let op_ms = best_by_key(passes.iter().map(|p| &p.op_ms));
    Values::from([
        ("setup_s", setup_s),
        ("wall_s", sim_s + rest_s),
        ("sim_cycles_per_s", ratio(sim_cycles as f64, sim_s)),
        ("op_ms_p50", percentile(&op_ms, 50.0)),
        ("op_ms_p90", percentile(&op_ms, 90.0)),
        ("peak_rss_mib", peak_rss_mib),
    ])
}

/// One traced pass: what it measured and the spans it recorded.
pub struct TracedPass {
    pub pass: Pass,
    pub spans: Vec<Span>,
}

fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
}

fn durations_ms<'a>(traced: &'a [TracedPass], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    traced
        .iter()
        .flat_map(move |t| t.spans.iter().filter(move |s| s.name == name))
        .map(|s| s.duration_ns() as f64 / 1e6)
}

/// Host-time per-layer metrics from the traced passes' spans, plus the
/// footprint of the untraced ones and the tracing overhead.
pub fn host_time(traced: &[TracedPass], untraced: &[Pass], first: &FirstReports) -> Values {
    let per_pass =
        |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let sum_ms = |name: &'static str| per_pass(&|t| total_ns(&t.spans, name) as f64 / 1e6);
    let pct =
        |name: &'static str, p: f64| percentile(&durations_ms(traced, name).collect::<Vec<_>>(), p);
    let mut values = Values::new();
    values.insert("ar-workloads.generate_ms", sum_ms("ar-workloads.generate"));
    values.insert(
        "ar-system.build_ms",
        per_pass(&|t| {
            let own = trace::self_times_ns(&t.spans);
            let builds = t.spans.iter().zip(own).filter(|(s, _)| s.name == "ar-system.build");
            builds.map(|(_, ns)| ns).sum::<u64>() as f64 / 1e6
        }),
    );
    for (class, run_ms, ns_per_cycle) in [
        (Class::Dram, "ar-system.run_ms.dram", "ar-system.ns_per_sim_cycle.dram"),
        (Class::Hmc, "ar-system.run_ms.hmc", "ar-system.ns_per_sim_cycle.hmc"),
        (Class::Active, "ar-system.run_ms.active", "ar-system.ns_per_sim_cycle.active"),
    ] {
        values.insert(run_ms, sum_ms(class.run_span()));
        let (mut ns, mut cycles) = (0u64, 0u64);
        for span in traced.iter().flat_map(|t| &t.spans).filter(|s| s.name == class.run_span()) {
            ns += span.duration_ns();
            cycles +=
                span.cell.and_then(|id| first.reports.get(&id)).map_or(0, |r| r.network_cycles);
        }
        values.insert(ns_per_cycle, ratio(ns as f64, cycles as f64));
    }
    values.insert("ar-system.phase_ms.scatter", sum_ms("ar-system.phase.scatter"));
    values.insert("ar-system.phase_ms.update", sum_ms("ar-system.phase.update"));
    values.insert("ar-system.window_ms_p50", pct("ar-system.window", 50.0));
    values.insert("ar-system.window_ms_p99", pct("ar-system.window", 99.0));
    let peak = untraced.iter().map(|p| p.peak_packets).max().unwrap_or(0);
    values.insert("ar-system.peak_packets_in_flight", peak as f64);
    values.insert("ar-experiments.tables_ms", sum_ms("ar-experiments.tables"));
    values.insert("ar-serve.cold_s", sum_ms("ar-serve.cold_pass") / 1e3);
    values.insert(
        "ar-serve.warm_s",
        median(&durations_ms(traced, "ar-serve.warm_pass").collect::<Vec<_>>()) / 1e3,
    );
    // Cold matrix requests per cell they computed.
    values.insert(
        "ar-serve.miss_ms",
        per_pass(&|t| {
            let runs = t.pass.server.map_or(0, |(_, runs)| runs);
            ratio(total_ns(&t.spans, "ar-serve.request.miss") as f64 / 1e6, runs as f64)
        }),
    );
    values.insert("ar-serve.hit_ms", pct("ar-serve.cache.load", 50.0));
    if let Some((hits, runs)) = traced.iter().rev().find_map(|t| t.pass.server) {
        values.insert("ar-serve.hits", hits as f64);
        values.insert("ar-serve.runs", runs as f64);
    }
    values.insert("ar-types.json.encode_us", pct("ar-types.json.encode", 50.0) * 1e3);
    values.insert("ar-types.json.decode_us", pct("ar-types.json.decode", 50.0) * 1e3);
    let bytes: Vec<f64> =
        first.reports.values().map(|r| r.to_json().render().len() as f64).collect();
    values.insert("ar-types.json.report_bytes", median(&bytes));
    // `wall_s` is a run's fastest pass, so the overhead compares the fastest
    // traced pass with the fastest untraced one.
    let best = |walls: &mut dyn Iterator<Item = f64>| walls.fold(f64::INFINITY, f64::min);
    let overhead = best(&mut traced.iter().map(|t| t.pass.wall_s))
        - best(&mut untraced.iter().map(|p| p.wall_s));
    values.insert("perfbench.trace_overhead_s", overhead);
    values
}

/// Counters summed over a group of reports.
#[derive(Default)]
struct Totals {
    instructions: f64,
    core_cycles: f64,
    stalls: [f64; 5],
    l1: (f64, f64),
    l2: (f64, f64),
}

impl Totals {
    fn add(&mut self, r: &SimReport) {
        self.instructions += r.instructions as f64;
        self.core_cycles += r.core_cycles as f64;
        let s = r.stalls;
        for (total, stall) in
            self.stalls.iter_mut().zip([s.memory, s.gather, s.barrier, s.offload, s.rob_full])
        {
            *total += stall as f64;
        }
        self.l1.0 += r.l1_hits as f64;
        self.l1.1 += r.l1_accesses as f64;
        self.l2.0 += r.l2_hits as f64;
        self.l2.1 += r.l2_accesses as f64;
    }
}

/// The configuration a report's label names.
fn config_of(report: &SimReport) -> Option<NamedConfig> {
    NamedConfig::ALL_WITH_ADAPTIVE.into_iter().find(|c| c.to_string() == report.config_label)
}

/// Simulated statistics of the first pass's reports, aggregated per class
/// of configuration. They repeat exactly from run to run.
pub fn simulated(first: &FirstReports) -> Values {
    let reports: Vec<(Class, &SimReport)> =
        first.reports.values().filter_map(|r| config_of(r).map(|c| (Class::of(c), r))).collect();
    let mut values = Values::new();
    const STALLS: [[&str; 3]; 5] = [
        [
            "ar-cpu.stall_per_cycle.memory.dram",
            "ar-cpu.stall_per_cycle.memory.hmc",
            "ar-cpu.stall_per_cycle.memory.active",
        ],
        [
            "ar-cpu.stall_per_cycle.gather.dram",
            "ar-cpu.stall_per_cycle.gather.hmc",
            "ar-cpu.stall_per_cycle.gather.active",
        ],
        [
            "ar-cpu.stall_per_cycle.barrier.dram",
            "ar-cpu.stall_per_cycle.barrier.hmc",
            "ar-cpu.stall_per_cycle.barrier.active",
        ],
        [
            "ar-cpu.stall_per_cycle.offload.dram",
            "ar-cpu.stall_per_cycle.offload.hmc",
            "ar-cpu.stall_per_cycle.offload.active",
        ],
        [
            "ar-cpu.stall_per_cycle.rob_full.dram",
            "ar-cpu.stall_per_cycle.rob_full.hmc",
            "ar-cpu.stall_per_cycle.rob_full.active",
        ],
    ];
    const IPC: [&str; 3] = ["ar-cpu.ipc.dram", "ar-cpu.ipc.hmc", "ar-cpu.ipc.active"];
    const L1: [&str; 3] =
        ["ar-cache.l1_hit_rate.dram", "ar-cache.l1_hit_rate.hmc", "ar-cache.l1_hit_rate.active"];
    const L2: [&str; 3] =
        ["ar-cache.l2_hit_rate.dram", "ar-cache.l2_hit_rate.hmc", "ar-cache.l2_hit_rate.active"];
    for (k, class) in Class::ALL.into_iter().enumerate() {
        let mut t = Totals::default();
        reports.iter().filter(|(c, _)| *c == class).for_each(|(_, r)| t.add(r));
        values.insert(IPC[k], ratio(t.instructions, t.core_cycles));
        for (names, stall) in STALLS.iter().zip(t.stalls) {
            values.insert(names[k], ratio(stall, t.core_cycles));
        }
        values.insert(L1[k], ratio(t.l1.0, t.l1.1));
        values.insert(L2[k], ratio(t.l2.0, t.l2.1));
    }

    let sum = |f: &dyn Fn(&SimReport) -> f64| reports.iter().map(|(_, r)| f(r)).sum::<f64>();
    let power = PowerConfig::default();
    values.insert("ar-cache.invalidations", sum(&|r| r.invalidations as f64));
    values.insert("ar-network.byte_hops", sum(&|r| r.network_byte_hops as f64));
    values.insert("ar-network.noc_byte_hops", sum(&|r| r.noc_byte_hops as f64));
    values.insert("ar-hmc.bytes", sum(&|r| r.hmc_bytes as f64));
    values.insert("ar-dram.bytes", sum(&|r| r.dram_bytes as f64));
    values.insert("ar-power.edp", sum(&|r| r.energy_delay_product(&power)));

    let active: Vec<&SimReport> =
        reports.iter().filter(|(c, _)| *c == Class::Active).map(|(_, r)| *r).collect();
    let active_sum = |f: &dyn Fn(&SimReport) -> f64| active.iter().map(|r| f(r)).sum::<f64>();
    let updates = active_sum(&|r| r.updates_offloaded as f64);
    values.insert("active-routing.updates_offloaded", updates);
    values.insert("active-routing.are_ops", active_sum(&|r| r.are_ops as f64));
    let weighted = |f: fn(&SimReport) -> f64| {
        ratio(active_sum(&|r| f(r) * r.updates_offloaded as f64), updates)
    };
    values.insert("active-routing.latency.request", weighted(|r| r.update_latency.request));
    values.insert("active-routing.latency.stall", weighted(|r| r.update_latency.stall));
    values.insert("active-routing.latency.response", weighted(|r| r.update_latency.response));
    values.insert(
        "active-routing.operand_stall_cycles",
        active_sum(&|r| r.cube_activity.operand_buffer_stalls.iter().sum::<u64>() as f64),
    );
    values.insert(
        "active-routing.active_req_bytes",
        active_sum(&|r| r.data_movement.active_req_bytes as f64),
    );

    // Fig 5.1(a) and Fig 5.4(a): ARF-tid over its baselines on the five
    // benchmarks, for the benchmarks the workload ran under both configs.
    let find = |workload: &str, config: NamedConfig| {
        reports
            .iter()
            .map(|(_, r)| *r)
            .find(|r| r.workload == workload && r.config_label == config.to_string())
    };
    let over = |baseline: NamedConfig, f: fn(&SimReport, &SimReport) -> f64| {
        let ratios: Vec<f64> = WorkloadKind::BENCHMARKS
            .iter()
            .filter_map(|w| {
                Some(f(find(w.name(), NamedConfig::ArfTid)?, find(w.name(), baseline)?))
            })
            .collect();
        geometric_mean(&ratios)
    };
    values.insert(
        "model.arf_tid_speedup_gmean",
        over(NamedConfig::Dram, |arf, dram| arf.speedup_over(dram)),
    );
    values.insert(
        "model.arf_tid_bytes_over_hmc",
        over(NamedConfig::Hmc, |arf, hmc| {
            ratio(arf.data_movement.total() as f64, hmc.data_movement.total() as f64)
        }),
    );
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_types::Json;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are used once");
    }

    fn benchmark_json() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_mapping_names_listed_metrics_and_workloads() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let host_time = PER_LAYER.iter().take_while(|s| s.name != "perfbench.trace_overhead_s");
        assert_eq!(host_time.clone().count(), 23);
        for spec in host_time {
            assert!(!spec.moves.on.is_empty(), "{} moves nothing", spec.name);
        }
        for spec in PER_LAYER {
            assert!(!spec.moves.describe().is_empty(), "{}", spec.name);
            for (workload, metrics) in spec.moves.on {
                assert!(workloads.contains(workload), "{}: {workload}", spec.name);
                assert!(!metrics.is_empty(), "{}: nothing on {workload}", spec.name);
                for metric in *metrics {
                    assert!(
                        END_TO_END.iter().any(|e| e.name == *metric),
                        "{}: {metric}",
                        spec.name
                    );
                }
            }
        }
        assert!(END_TO_END.iter().all(|s| s.moves.describe().is_empty()));
    }

    #[test]
    fn mappings_read_as_one_line() {
        assert_eq!(SETUP.describe(), "setup_s on paper_matrix");
        assert_eq!(
            RUN_DRAM_HMC.describe(),
            "wall_s, sim_cycles_per_s, op_ms_p50 on paper_matrix; \
             wall_s, sim_cycles_per_s, op_ms_p90 on serve_cache \
             (on serve_cache through the cold requests only)"
        );
        assert_eq!(FIDELITY.describe(), FIDELITY.note);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = benchmark_json();
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_array).expect("metric list");
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (entry, spec) in listed.iter().zip(specs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(spec.unit),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(spec.better.name()),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn derived_metrics_are_all_listed() {
        let first = FirstReports::default();
        let names = simulated(&first).into_keys().chain(host_time(&[], &[], &first).into_keys());
        for name in names {
            assert!(PER_LAYER.iter().any(|s| s.name == name), "{name} is not in PER_LAYER");
        }
        for name in end_to_end(&[], 1.0).into_keys() {
            assert!(END_TO_END.iter().any(|s| s.name == name), "{name} is not in END_TO_END");
        }
    }

    #[test]
    fn end_to_end_takes_each_cells_best_pass() {
        let pass = |wall_s, setup: [f64; 2], sim: [f64; 2]| Pass {
            setup: vec![(0, setup[0]), (1, setup[1])],
            wall_s,
            sim_cycles: 600,
            sim_s: vec![(0, sim[0]), (1, sim[1])],
            op_ms: vec![(0, 1e3 * (setup[0] + sim[0])), (1, 1e3 * (setup[1] + sim[1]))],
            ..Pass::default()
        };
        let passes = [pass(4.5, [0.5, 0.2], [1.0, 3.0]), pass(3.5, [0.3, 0.4], [2.0, 1.0])];
        let values = end_to_end(&passes, 12.5);
        // Fastest simulations 1 + 1 s, fastest rest min(0.5, 0.5) s.
        assert!((values["wall_s"] - 2.5).abs() < 1e-12);
        assert!((values["setup_s"] - 0.5).abs() < 1e-12, "0.3 + 0.2");
        assert!((values["sim_cycles_per_s"] - 300.0).abs() < 1e-9, "600 cycles over 1 + 1 s");
        // Best latencies: cell 0 1500 ms, cell 1 1400 ms.
        assert!((values["op_ms_p50"] - 1450.0).abs() < 1e-9);
        assert_eq!(values["peak_rss_mib"], 12.5);
    }

    #[test]
    fn simulated_statistics_aggregate_per_class() {
        let report =
            |workload: &str, config: NamedConfig, cycles: u64, instructions: u64| SimReport {
                workload: workload.to_string(),
                config_label: config.to_string(),
                network_cycles: cycles,
                core_cycles: 2 * cycles,
                instructions,
                completed: true,
                ..SimReport::default()
            };
        let mut first = FirstReports::default();
        first.reports.insert(0, report("lud", NamedConfig::Dram, 100, 400));
        first.reports.insert(1, report("lud", NamedConfig::ArfTid, 50, 100));
        first.reports.insert(2, report("lud", NamedConfig::Art, 150, 300));
        let values = simulated(&first);
        assert_eq!(values["ar-cpu.ipc.dram"], 2.0);
        // (100 + 300) instructions over (100 + 300) core cycles.
        assert_eq!(values["ar-cpu.ipc.active"], 1.0);
        assert_eq!(values["ar-cpu.ipc.hmc"], 0.0);
        assert_eq!(values["model.arf_tid_speedup_gmean"], 2.0);
        assert_eq!(values["model.arf_tid_bytes_over_hmc"], 0.0);
    }
}
