//! End-to-end tests of the sweep server: a real daemon on an ephemeral
//! port, real TCP clients, a real on-disk cache.
//!
//! Covered here (unit tests inside `ar-serve` cover the cache store and the
//! wire encodings in isolation):
//!
//! * fresh runs land in the cache, and a second request returns a report
//!   that is byte-identical to the fresh one;
//! * two clients asking for the same in-flight cell share one run
//!   (in-flight dedup), with both receiving the shared report;
//! * progress streaming delivers `running` and IPC `progress` events;
//! * the cache outlives the server: a new daemon over the same directory
//!   serves everything from disk (zero recomputed cells);
//! * a full sweep matrix resubmitted through the server recomputes nothing;
//! * a workload that panics mid-run fails its own cell with a `cell_error`
//!   event while the rest of the batch — and the daemon — keep working;
//! * warm requests answer in milliseconds: no reply line waits for the
//!   client's delayed ACK;
//! * a request line past `MAX_REQUEST_LINE` gets an `error` event and a
//!   closed connection instead of an ever-growing server buffer.

use active_routing_repro::ar_serve::protocol::MAX_REQUEST_LINE;
use active_routing_repro::ar_serve::{CellStatus, Event, ServerConfig, SweepClient, SweepServer};
use active_routing_repro::ar_system::{CellKey, Sweep};
use active_routing_repro::ar_types::config::{NamedConfig, SystemConfig};
use active_routing_repro::ar_types::Json;
use active_routing_repro::ar_workloads::{
    GeneratedWorkload, SizeClass, Variant, Workload, WorkloadKind, WorkloadRegistry,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn quick_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::small();
    cfg.max_cycles = 2_000_000;
    cfg
}

fn temp_cache(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("ar-sweep-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn start(tag: &str, workers: usize) -> (active_routing_repro::ar_serve::RunningServer, PathBuf) {
    let cache = temp_cache(tag);
    let server =
        SweepServer::bind("127.0.0.1:0", ServerConfig::new(quick_cfg(), &cache).workers(workers))
            .expect("bind an ephemeral port")
            .spawn();
    (server, cache)
}

#[test]
fn cached_reports_are_byte_identical_to_fresh_ones() {
    let (server, cache) = start("bytes", 2);
    let mut client = SweepClient::connect(server.addr()).expect("connect");
    client.ping().expect("server answers pings");

    let cells = [
        CellKey::new("reduce", NamedConfig::ArfTid, SizeClass::Tiny),
        CellKey::new("mac", NamedConfig::Hmc, SizeClass::Tiny),
    ];
    let fresh = client.run_cells(&cells).expect("fresh run");
    assert!(fresh.iter().all(|o| !o.cached), "first pass computes everything");
    assert!(fresh.iter().all(|o| o.status == CellStatus::Queued));

    let cached = client.run_cells(&cells).expect("cached run");
    assert!(cached.iter().all(|o| o.cached), "second pass is all cache hits");
    assert!(cached.iter().all(|o| o.status == CellStatus::Hit));
    for (fresh, cached) in fresh.iter().zip(&cached) {
        assert_eq!(fresh.report, cached.report, "{}", fresh.cell.label());
        assert_eq!(
            fresh.report.to_json().render(),
            cached.report.to_json().render(),
            "{}: cached report must be byte-identical to the fresh one",
            fresh.cell.label()
        );
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.runs, 2, "two simulations executed");
    assert_eq!(stats.cache_hits, 2, "two hits on the second pass");
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn concurrent_clients_share_one_in_flight_run() {
    // One worker: the first cell of the batch occupies it, so the second
    // cell stays queued while the second client asks for it — dedup must
    // attach the second client to the queued job instead of re-running it.
    let (server, cache) = start("dedup", 1);
    let occupier = CellKey::new("reduce", NamedConfig::ArfTid, SizeClass::Small);
    let target = CellKey::new("mac", NamedConfig::ArfTid, SizeClass::Tiny);

    let addr = server.addr();
    let handle = std::thread::spawn(move || {
        let mut first = SweepClient::connect(addr).expect("first client connects");
        first.run_cells(&[occupier, target]).expect("first client's batch")
    });

    // Wait until both jobs are registered, then ask for the queued one.
    let mut second = SweepClient::connect(server.addr()).expect("second client connects");
    while second.stats().expect("stats").in_flight < 2 {
        std::thread::yield_now();
    }
    let target = CellKey::new("mac", NamedConfig::ArfTid, SizeClass::Tiny);
    let joined = second.run_cells(std::slice::from_ref(&target)).expect("joined run");
    assert_eq!(joined[0].status, CellStatus::Joined, "second client rides the queued job");
    assert!(joined[0].shared, "the run is marked shared");
    assert!(!joined[0].cached, "a shared run is not a cache hit");

    let first = handle.join().expect("first client finishes");
    assert_eq!(first[1].report, joined[0].report, "both clients get the one report");
    assert!(first[1].shared, "the originating client sees the sharing too");

    let stats = second.stats().expect("stats");
    assert_eq!(stats.runs, 2, "occupier + target: each cell simulated exactly once");
    assert_eq!(stats.dedup_joins, 1, "one join recorded");
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn progress_streams_while_a_cell_runs() {
    let (server, cache) = start("progress", 1);
    let mut client = SweepClient::connect(server.addr()).expect("connect");
    // A Small cell: long enough (several IPC windows of 2048 core cycles)
    // that samples are guaranteed; a Tiny run can finish inside the first
    // window and legitimately stream nothing.
    let cells = [CellKey::new("reduce", NamedConfig::ArfTid, SizeClass::Small)];
    let (mut running, mut progress) = (0usize, 0usize);
    let (outcomes, totals) = client
        .run_cells_observed(&cells, true, |event| {
            use active_routing_repro::ar_serve::Event;
            match event {
                Event::Running { .. } => running += 1,
                Event::Progress { .. } => progress += 1,
                _ => {}
            }
        })
        .expect("observed run");
    assert_eq!(outcomes.len(), 1);
    assert_eq!(totals.runs, 1);
    assert_eq!(running, 1, "exactly one running notice for a fresh cell");
    assert!(progress > 0, "IPC samples stream while the cell simulates");

    // A cache hit streams no progress (nothing runs).
    let (_, progress_events) = {
        let mut progress = 0usize;
        let r = client
            .run_cells_observed(&cells, true, |event| {
                if matches!(event, active_routing_repro::ar_serve::Event::Progress { .. }) {
                    progress += 1;
                }
            })
            .expect("cached run");
        (r, progress)
    };
    assert_eq!(progress_events, 0, "cache hits stream no samples");
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn the_cache_outlives_the_server_and_matrices_resubmit_for_free() {
    let cache = temp_cache("restart");
    let sweep = Sweep::new(quick_cfg())
        .configs([NamedConfig::Hmc, NamedConfig::ArfTid])
        .workloads([WorkloadKind::Reduce, WorkloadKind::Mac])
        .size(SizeClass::Tiny);
    let cells = sweep.cell_keys();

    // First daemon: compute the whole matrix.
    let server =
        SweepServer::bind("127.0.0.1:0", ServerConfig::new(quick_cfg(), &cache).workers(2))
            .expect("bind")
            .spawn();
    let mut client = SweepClient::connect(server.addr()).expect("connect");
    let fresh = client.run_cells(&cells).expect("fresh matrix");
    assert_eq!(fresh.iter().filter(|o| !o.cached).count(), cells.len());
    // The local sweep and the served matrix agree cell by cell.
    let local = sweep.run().expect("local sweep");
    for (outcome, cell) in fresh.iter().zip(&local.cells) {
        assert_eq!(outcome.report, cell.report, "{}", outcome.cell.label());
    }
    server.shutdown().expect("clean shutdown");

    // Second daemon over the same directory: zero recomputed cells.
    let server =
        SweepServer::bind("127.0.0.1:0", ServerConfig::new(quick_cfg(), &cache).workers(2))
            .expect("rebind")
            .spawn();
    let mut client = SweepClient::connect(server.addr()).expect("reconnect");
    let resubmitted = client.run_cells(&cells).expect("resubmitted matrix");
    assert!(
        resubmitted.iter().all(|o| o.cached),
        "a restarted server serves the whole matrix from disk"
    );
    assert_eq!(server.stats().runs, 0, "zero cells recomputed");
    for (fresh, cached) in fresh.iter().zip(&resubmitted) {
        assert_eq!(
            fresh.report.to_json().render(),
            cached.report.to_json().render(),
            "{}: byte-identical across a server restart",
            fresh.cell.label()
        );
    }
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn panicking_workloads_fail_their_cell_not_the_server() {
    /// A deliberately broken scenario: generation panics, the way a buggy
    /// custom workload registered through [`ServerConfig::registry`] would.
    struct Panicker;

    impl Workload for Panicker {
        fn name(&self) -> &str {
            "panicker"
        }

        fn generate(&self, _: usize, _: SizeClass, _: Variant) -> GeneratedWorkload {
            panic!("synthetic workload failure");
        }
    }

    let cache = temp_cache("panic");
    let mut registry = WorkloadRegistry::builtin();
    registry.register(Panicker);
    let server = SweepServer::bind(
        "127.0.0.1:0",
        ServerConfig::new(quick_cfg(), &cache).workers(1).registry(registry),
    )
    .expect("bind an ephemeral port")
    .spawn();
    let mut client = SweepClient::connect(server.addr()).expect("connect");

    // One doomed cell, one healthy cell, in a single batch.
    let cells = [
        CellKey::new("panicker", NamedConfig::ArfTid, SizeClass::Tiny),
        CellKey::new("reduce", NamedConfig::ArfTid, SizeClass::Tiny),
    ];
    let mut failures = Vec::new();
    let mut completed = Vec::new();
    let err = client
        .run_cells_observed(&cells, false, |event| match event {
            Event::CellError { index, message } => failures.push((*index, message.clone())),
            Event::Done { index, .. } => completed.push(*index),
            _ => {}
        })
        .expect_err("a panicking cell fails the batch");
    assert!(err.to_string().contains("panicked"), "{err}");
    assert_eq!(failures.len(), 1, "exactly one cell_error event: {failures:?}");
    let (index, message) = &failures[0];
    assert_eq!(*index, 0, "the failure names the panicking cell");
    assert!(message.contains("panicked"), "{message}");
    assert!(message.contains("synthetic workload failure"), "panic payload surfaces: {message}");
    assert_eq!(completed, vec![1], "the healthy cell of the same batch still completes");

    // The worker survived the unwind: the same connection keeps serving,
    // and the healthy cell's report made it into the cache.
    client.ping().expect("server still answers pings after a panic");
    let good = [CellKey::new("reduce", NamedConfig::ArfTid, SizeClass::Tiny)];
    let outcomes = client.run_cells(&good).expect("healthy cells still run");
    assert!(outcomes[0].cached, "the pre-panic healthy run was cached");
    assert!(outcomes[0].report.completed);
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn unknown_workloads_fail_the_cell_not_the_server() {
    let (server, cache) = start("unknown", 1);
    let mut client = SweepClient::connect(server.addr()).expect("connect");
    let bogus = [CellKey::new("no_such_workload", NamedConfig::Hmc, SizeClass::Tiny)];
    let err = client.run_cells(&bogus).expect_err("unknown workloads are an error");
    assert!(err.to_string().contains("no_such_workload"), "{err}");

    // The same connection stays usable; real work still runs.
    let good = [CellKey::new("reduce", NamedConfig::Hmc, SizeClass::Tiny)];
    let outcomes = client.run_cells(&good).expect("valid cell still works");
    assert!(outcomes[0].report.completed);
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn warm_requests_do_not_wait_for_delayed_acks() {
    let (server, cache) = start("latency", 1);
    let addr = server.addr();
    let cells = [CellKey::new("reduce", NamedConfig::Hmc, SizeClass::Tiny)];
    let mut client = SweepClient::connect(addr).expect("connect");
    assert!(!client.run_cells(&cells).expect("cold run")[0].cached);
    let warm = |client: &mut SweepClient| {
        let outcomes = client.run_cells(&cells).expect("warm request");
        assert!(outcomes[0].cached, "the cell was stored by the cold run");
    };

    // A warm reply is three flushed lines (`accepted`, `done`, `sweep_done`).
    // With Nagle's algorithm on the server's socket, each line after the
    // first waits for the client's delayed ACK, 40 ms or more on Linux, so
    // neither bound below can be met; without it a request takes about a
    // millisecond. Best-of runs keep neighbouring tests' load out.
    let fresh_connection = (0..5)
        .map(|_| {
            let start = Instant::now();
            warm(&mut SweepClient::connect(addr).expect("connect"));
            start.elapsed()
        })
        .min()
        .expect("five samples");
    assert!(
        fresh_connection < Duration::from_millis(20),
        "a warm one-cell request on a fresh connection took {fresh_connection:?}"
    );
    let back_to_back = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..5 {
                warm(&mut client);
            }
            start.elapsed()
        })
        .min()
        .expect("three samples");
    assert!(
        back_to_back < Duration::from_millis(100),
        "five back-to-back warm requests on one connection took {back_to_back:?}"
    );
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn overlong_request_lines_get_an_error_and_a_closed_connection() {
    let (server, cache) = start("overlong", 1);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // A server that never gives up on the line would block this read
    // forever; fail instead.
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set a read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the socket"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");
    assert!(line.contains("\"hello\""), "{line}");

    // One byte past the bound and no newline. The server reads every byte
    // before it gives up, so closing sends a FIN rather than a reset and
    // the error event arrives intact.
    stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).expect("send the overlong line");
    line.clear();
    reader.read_line(&mut line).expect("the error event");
    let event =
        Event::from_json(&Json::parse(line.trim()).expect("one JSON line")).expect("a known event");
    match event {
        Event::Error { message } => assert!(message.contains("longer than"), "{message}"),
        other => panic!("expected an error event, got {other:?}"),
    }
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("a clean close"), 0, "EOF after the error");

    // Other connections are unaffected.
    SweepClient::connect(server.addr()).expect("reconnect").ping().expect("ping");
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(cache);
}
