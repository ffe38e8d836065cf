//! Construction allocation gate.
//!
//! Building a simulation should cost what its run touches. A cache's tag
//! sets materialise on first fill, so `System::new` allocates the same number
//! of times whatever the cache capacity, and the paper machine builds in a
//! few thousand allocations rather than one per cache set (17,408 sets for
//! its L1s and L2 banks). The count comes from the process-wide
//! [`bench::CountingAlloc`], so it is host-independent; it lives in a test
//! binary of its own because that counter would see any other test's
//! allocations.

use ar_system::{variant_for_scheme, System};
use ar_types::config::{NamedConfig, SystemConfig};
use ar_workloads::{SizeClass, WorkloadKind};
use bench::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling on `System::new`'s allocations for the paper machine on ARF-tid.
const MAX_BUILD_ALLOCATIONS: u64 = 4_000;

/// Heap allocations `System::new` makes for `cfg` on ARF-tid with pagerank's
/// full-scale (`Medium`) inputs. Generating the workload is not counted.
fn build_allocations(cfg: SystemConfig) -> u64 {
    let cfg = cfg.named(NamedConfig::ArfTid);
    let variant = variant_for_scheme(cfg.scheme);
    let generated = WorkloadKind::Pagerank.generate(cfg.cores.count, SizeClass::Medium, variant);
    let before = CountingAlloc::allocations();
    let system = System::new(cfg, generated.streams, generated.memory).expect("valid config");
    let allocations = CountingAlloc::allocations() - before;
    drop(system);
    allocations
}

#[test]
fn building_the_paper_machine_allocates_independently_of_cache_capacity() {
    let paper = SystemConfig::paper();
    let with = |resize: fn(&mut SystemConfig)| {
        let mut cfg = paper.clone();
        resize(&mut cfg);
        build_allocations(cfg)
    };
    let base = build_allocations(paper.clone());
    let l2_64_mib = with(|cfg| cfg.caches.l2_bytes = 64 << 20);
    let l1_64_kib = with(|cfg| cfg.caches.l1_bytes = 64 << 10);
    println!(
        "System::new allocations on the paper machine (ARF-tid): {base}; \
         with a 64 MiB L2 {l2_64_mib}; with 64 KiB L1s {l1_64_kib}"
    );
    assert_eq!(l2_64_mib, base, "a larger L2 must not add build-time allocations");
    assert_eq!(l1_64_kib, base, "larger L1s must not add build-time allocations");
    assert!(
        base < MAX_BUILD_ALLOCATIONS,
        "System::new made {base} allocations for the paper machine \
         (limit {MAX_BUILD_ALLOCATIONS})"
    );
}
