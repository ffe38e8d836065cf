//! Property suite for checkpoint/restore (`ar_system::checkpoint` + the
//! `SimulationBuilder::from_checkpoint` restore path).
//!
//! The correctness contract is the same byte identity the scheduler
//! equivalence suite pins, extended across a snapshot boundary: for any
//! topology, workload and split cycle, a run snapshotted mid-flight —
//! round-tripped through its serialized JSON form, exactly like a restore
//! from disk — and resumed on *any* kernel must produce the report of the
//! uninterrupted run, byte for byte. This suite sweeps that contract over
//! randomized inputs driven by the workspace's deterministic [`SimRng`]:
//!
//! * random dragonfly shapes and hop/vault latency geometries — the state
//!   being serialized spans in-flight packets, vault calendars and engine
//!   flow tables at arbitrary depths;
//! * random split cycles drawn uniformly from each run's *actual* length
//!   (measured by a full pre-run), so every snapshot lands mid-flight;
//! * restores onto the event-driven kernel, the lock-step reference and
//!   the sharded kernel (`threads ∈ {1, 4}`);
//! * stacked snapshots: re-checkpointing a restored run at a later cycle
//!   must compose (restore-of-restore equals the straight run);
//! * hostile bytes: truncations and field corruptions of the serialized
//!   form must fail to decode — never restore to a diverging simulation.

use active_routing_repro::ar_sim::SimRng;
use active_routing_repro::ar_system::{Checkpoint, SimReport, Simulation, SimulationBuilder};
use active_routing_repro::ar_types::config::{NamedConfig, SystemConfig};
use active_routing_repro::ar_types::Json;
use active_routing_repro::ar_workloads::{SizeClass, WorkloadKind};

/// Valid dragonfly shapes: `cubes` divides into `groups`, `host_ports <=
/// groups`. Spans single-group up to the paper's 16-cube geometry.
const TOPOLOGIES: [(usize, usize, usize); 4] = [(4, 1, 1), (4, 2, 2), (8, 4, 2), (16, 4, 4)];

fn random_cfg(rng: &mut SimRng) -> SystemConfig {
    let mut cfg = SystemConfig::small();
    let (cubes, groups, ports) = TOPOLOGIES[rng.index(TOPOLOGIES.len())];
    cfg.network.cubes = cubes;
    cfg.network.groups = groups;
    cfg.network.host_ports = ports;
    cfg.network.hop_latency = [1, 2, 3, 5][rng.index(4)];
    cfg.hmc.vault_access_latency = [4, 10, 22][rng.index(3)];
    cfg.max_cycles = 10_000_000;
    cfg
}

/// Snapshots `sim` and round-trips the checkpoint through its rendered JSON
/// form — the exact bytes a restore from disk would decode.
fn wire_checkpoint(sim: &Simulation) -> Checkpoint {
    let rendered = sim.checkpoint().to_json().render();
    let doc = Json::parse(&rendered).expect("checkpoints render to valid JSON");
    let ck = Checkpoint::from_json(&doc).expect("rendered checkpoints decode");
    assert_eq!(ck, sim.checkpoint(), "the wire round trip must be lossless");
    ck
}

/// A deferred builder for one restore target (a kernel/thread-count combo).
type KernelBuilder<'a> = Box<dyn Fn() -> SimulationBuilder + 'a>;

fn assert_reports_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.network_cycles, b.network_cycles, "{label}: network cycles");
    assert_eq!(a.instructions, b.instructions, "{label}: instructions");
    assert_eq!(a.stalls, b.stalls, "{label}: stall breakdown");
    assert_eq!(a.hmc_bytes, b.hmc_bytes, "{label}: HMC bytes");
    assert_eq!(a, b, "{label}: full report");
    assert_eq!(a.to_json().render(), b.to_json().render(), "{label}: rendered bytes");
}

/// The main differential sweep: random geometries × workloads × split
/// cycles, each snapshot restored through the wire form onto the default
/// event-driven kernel, the lock-step reference and the sharded kernel.
#[test]
fn random_mid_run_snapshots_restore_byte_identically_across_kernels() {
    let kinds =
        [WorkloadKind::Reduce, WorkloadKind::Spmv, WorkloadKind::Mac, WorkloadKind::Pagerank];
    let configs = [NamedConfig::Hmc, NamedConfig::ArfTid, NamedConfig::Art];
    let mut rng = SimRng::seed_from_u64(0xC4EC_4001);
    for case in 0..6u64 {
        let cfg = random_cfg(&mut rng);
        let kind = kinds[rng.index(kinds.len())];
        let named = configs[rng.index(configs.len())];
        let build = || {
            Simulation::builder()
                .config(cfg.clone())
                .named(named)
                .workload(kind)
                .size(SizeClass::Tiny)
        };
        let full = build().build().expect("valid").run();
        assert!(full.completed, "case {case}: the reference run must finish");
        assert!(full.network_cycles > 2, "case {case}: the run must have a mid-flight region");
        // A split drawn from the run's actual length: every case genuinely
        // snapshots with live state in the network.
        let split = 1 + rng.next_below(full.network_cycles - 1);
        let label = format!("case {case} ({kind}/{named}, split {split})");

        let mut warm = build().build().expect("valid");
        assert!(!warm.run_prefix(split), "{label}: the prefix must stop mid-run");
        let ck = wire_checkpoint(&warm);
        assert_eq!(ck.cycle, split, "{label}: the snapshot records its split cycle");
        assert!(!ck.completed, "{label}: a mid-run snapshot is not quiesced");
        drop(warm);

        let restores: [(&str, KernelBuilder); 4] = [
            ("event kernel", Box::new(&build)),
            ("lock-step", Box::new(|| build().lockstep())),
            ("threads=1", Box::new(|| build().threads(1))),
            ("threads=4", Box::new(|| build().threads(4))),
        ];
        for (kernel, builder) in restores {
            let resumed =
                builder().from_checkpoint(ck.clone()).build().expect("valid restore").run();
            assert_reports_identical(&full, &resumed, &format!("{label} restored on {kernel}"));
        }
    }
}

/// Stacked snapshots compose: restoring, running further, re-snapshotting
/// and restoring again lands on the same report as the straight run.
#[test]
fn stacked_snapshots_compose_across_random_split_chains() {
    let mut rng = SimRng::seed_from_u64(0x057A_C4EC);
    for case in 0..4u64 {
        let cfg = random_cfg(&mut rng);
        let kind = [WorkloadKind::Reduce, WorkloadKind::Mac][rng.index(2)];
        let build = || {
            Simulation::builder()
                .config(cfg.clone())
                .named(NamedConfig::ArfTid)
                .workload(kind)
                .size(SizeClass::Tiny)
        };
        let full = build().build().expect("valid").run();
        assert!(full.network_cycles > 4, "case {case}: the run must span two split points");
        // Two ordered split points inside the run.
        let first = 1 + rng.next_below(full.network_cycles / 2);
        let second = first + 1 + rng.next_below(full.network_cycles - first - 1);

        let mut warm = build().build().expect("valid");
        warm.run_prefix(first);
        let first_ck = wire_checkpoint(&warm);
        let mut resumed =
            build().from_checkpoint(first_ck).build().expect("valid restore mid-chain");
        resumed.run_prefix(second);
        let second_ck = wire_checkpoint(&resumed);
        assert_eq!(second_ck.cycle, second, "case {case}: the re-snapshot is at the later split");
        let final_report = build().from_checkpoint(second_ck).build().expect("valid restore").run();
        assert_reports_identical(
            &full,
            &final_report,
            &format!("case {case} (splits {first} -> {second})"),
        );
    }
}

/// Hostile bytes never restore: truncations at every JSON-valid prefix
/// length and single-field corruptions must fail to decode. A checkpoint
/// either round-trips losslessly or is rejected — there is no third state
/// where damaged bytes restore into a silently diverging simulation.
#[test]
fn truncated_and_corrupted_checkpoint_bytes_fail_to_decode() {
    let mut warm = Simulation::builder()
        .config(SystemConfig::small())
        .named(NamedConfig::ArfTid)
        .workload(WorkloadKind::Reduce)
        .size(SizeClass::Tiny)
        .build()
        .expect("valid");
    warm.run_prefix(300);
    let rendered = warm.checkpoint().to_json().render();

    // Truncations: random cut points plus the two interesting extremes.
    let mut rng = SimRng::seed_from_u64(0x7246CA7E);
    let mut cuts: Vec<usize> = (0..64).map(|_| rng.index(rendered.len())).collect();
    cuts.push(0);
    cuts.push(rendered.len() - 1);
    for cut in cuts {
        let truncated = &rendered[..cut];
        let decoded = Json::parse(truncated).ok().and_then(|doc| Checkpoint::from_json(&doc).ok());
        assert!(decoded.is_none(), "a {cut}-byte truncation must not decode to a checkpoint");
    }

    // Field corruptions. Schema, size, variant and cycle damage must fail
    // at decode time; a config-hash or workload swap decodes (the values
    // are well-formed) but must then be rejected by the restore's identity
    // validation. Either way, damaged bytes never reach a running system.
    for (field, value, decodes) in [
        ("schema", "999", false),
        ("config_hash", "\"00000000deadbeef\"", true),
        ("workload", "\"no_such_workload\"", true),
        ("size", "\"enormous\"", false),
        ("variant", "\"imaginary\"", false),
        ("cycle", "\"not-a-cycle\"", false),
    ] {
        let needle = format!("\"{field}\":");
        let start = rendered.find(&needle).unwrap_or_else(|| panic!("field {field} present"));
        let value_start = start + needle.len();
        let value_end = value_start
            + rendered[value_start..].find([',', '}']).expect("scalar fields end at a delimiter");
        let corrupted = format!("{}{}{}", &rendered[..value_start], value, &rendered[value_end..]);
        let decoded = Json::parse(&corrupted).ok().and_then(|doc| Checkpoint::from_json(&doc).ok());
        match decoded {
            None => assert!(!decodes, "corrupt {field} should have decoded"),
            Some(ck) => {
                assert!(decodes, "corrupt {field} must fail to decode");
                let restore = Simulation::builder()
                    .config(SystemConfig::small())
                    .named(NamedConfig::ArfTid)
                    .workload(WorkloadKind::Reduce)
                    .size(SizeClass::Tiny)
                    .from_checkpoint(ck)
                    .build();
                assert!(restore.is_err(), "a mismatched {field} checkpoint must not restore");
            }
        }
    }
}

/// Points every in-flight memory transaction of a checkpoint at `port` and
/// returns how many were rewritten.
fn redirect_transaction_ports(ck: &mut Checkpoint, port: usize) -> usize {
    let Json::Obj(fields) = &mut ck.state else { panic!("system state is an object") };
    let (_, txns) = fields.iter_mut().find(|(k, _)| k == "mem_txns").expect("state has mem_txns");
    let Json::Arr(txns) = txns else { panic!("mem_txns is an array") };
    for txn in txns.iter_mut() {
        let Json::Obj(fields) = txn else { panic!("a transaction is an object") };
        let (_, value) = fields.iter_mut().find(|(k, _)| k == "port").expect("txn has a port");
        *value = Json::from(port);
    }
    txns.len()
}

/// A transaction's port is where its response travels back to, so a port
/// the machine does not have must be rejected at restore time — not accepted
/// and then crash the resumed run when the response is routed.
#[test]
fn out_of_range_transaction_ports_fail_to_restore() {
    let cfg = SystemConfig::small();
    for (named, ports) in [
        (NamedConfig::Hmc, cfg.network.host_ports),
        (NamedConfig::Dram, cfg.noc.memory_controllers),
    ] {
        let build = || {
            Simulation::builder()
                .config(cfg.clone())
                .named(named)
                .workload(WorkloadKind::Pagerank)
                .size(SizeClass::Tiny)
        };
        let mut warm = build().build().expect("valid");
        assert!(!warm.run_prefix(200), "{named}: the prefix must stop mid-run");
        for port in [ports, 99] {
            let mut ck = wire_checkpoint(&warm);
            assert!(redirect_transaction_ports(&mut ck, port) > 0, "{named}: no txn in flight");
            let restore = build().from_checkpoint(ck).build();
            assert!(restore.is_err(), "{named}: a txn on port {port} of {ports} must not restore");
        }
    }
}

/// The field `key` of a JSON object.
fn field_mut<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = doc else { panic!("{key}'s parent is an object") };
    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("{key} present")).1
}

fn array_mut(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Arr(items) = doc else { panic!("an array") };
    items
}

/// Points the first operand slot found in some engine's `list` — an ALU
/// operation of `alu_queue`, or a local operand read of `pending_reads` —
/// at pool entry 4096 (`free == false`) or at a free entry of that engine's
/// pool. Returns whether a slot was rewritten.
fn redirect_first_operand_slot(ck: &mut Checkpoint, list: &str, free: bool) -> bool {
    let engines = array_mut(field_mut(field_mut(&mut ck.state, "backend"), "engines"));
    for engine in engines {
        let free_slot =
            array_mut(field_mut(field_mut(engine, "operands"), "free")).first().cloned();
        let target = if free { free_slot } else { Some(Json::from(4096u64)) };
        let Some(target) = target else { continue };
        for entry in array_mut(field_mut(engine, list)) {
            let owner = match list {
                "pending_reads" => field_mut(entry, "purpose"),
                _ => entry,
            };
            if list == "pending_reads" && *field_mut(owner, "t") != Json::from("local") {
                continue;
            }
            let slot = field_mut(owner, "slot");
            if *slot != Json::Null {
                *slot = target;
                return true;
            }
        }
    }
    false
}

/// An operand slot indexes the engine's operand pool, so a restored ALU
/// operation or outstanding local operand read must name an entry the
/// restored pool holds — not be accepted and then crash the resumed run
/// when the first commit or operand arrival indexes the pool.
#[test]
fn operand_slots_the_pool_does_not_hold_fail_to_restore() {
    let build = || {
        Simulation::builder()
            .config(SystemConfig::small())
            .named(NamedConfig::ArfTid)
            .workload(WorkloadKind::Mac)
            .size(SizeClass::Tiny)
    };
    let mut warm = build().build().expect("valid");
    assert!(!warm.run_prefix(200), "the prefix must stop mid-run");
    let pristine = wire_checkpoint(&warm);
    assert!(build().from_checkpoint(pristine.clone()).build().is_ok(), "the snapshot restores");
    for (list, free) in [("alu_queue", false), ("alu_queue", true), ("pending_reads", false)] {
        let mut ck = pristine.clone();
        assert!(redirect_first_operand_slot(&mut ck, list, free), "no slotted {list} entry");
        let restore = build().from_checkpoint(ck).build();
        let target = if free { "a free entry" } else { "entry 4096" };
        assert!(restore.is_err(), "the {list} slot pointing at {target} must not restore");
    }
    // A free stack listing its top entry twice, in place of another empty
    // entry, still covers the pool's size, but would hand that entry to two
    // updates.
    let mut ck = pristine;
    let engine = &mut array_mut(field_mut(field_mut(&mut ck.state, "backend"), "engines"))[0];
    let free = array_mut(field_mut(field_mut(engine, "operands"), "free"));
    assert!(free.len() >= 2, "engine 0 has two free operand entries");
    let top = free.len() - 1;
    free[top - 1] = free[top].clone();
    let err =
        build().from_checkpoint(ck).build().expect_err("a duplicated free entry must not restore");
    assert!(err.to_string().contains("listed twice"), "{err}");
}
