//! The sweep daemon: a TCP listener, a FIFO job scheduler with in-flight
//! dedup, and a persistent worker pool.
//!
//! One [`SweepServer`] owns one base [`SystemConfig`], one [`ReportCache`]
//! directory and one workload registry. Each accepted connection gets a
//! handler thread that translates [`Request`]s into scheduler operations;
//! a fixed pool of worker threads drains the job queue in strict FIFO
//! order. Cells are identified by their cache address (the content hash of
//! [`CellKey::cache_key`]), which makes in-flight dedup trivial: a second
//! request for a cell that is already queued or running *subscribes* to the
//! existing job instead of enqueueing a duplicate, and every subscriber
//! receives the one shared report when the run finishes.
//!
//! Progress flows the other way through a per-run [`Observer`]: IPC samples
//! taken inside the simulation kernel are fanned out to every subscriber
//! that asked for them, while the run itself stays byte-deterministic
//! (observers never influence simulated timing).

use crate::cache::ReportCache;
use crate::protocol::{
    read_request_line, write_line, CellStatus, Event, Request, StatsSnapshot, PROTOCOL_VERSION,
};
use ar_system::{CellKey, Observer, ObserverControl, SimEvent, SimReport, CACHE_SCHEMA_VERSION};
use ar_types::config::SystemConfig;
use ar_types::hash::fnv1a_64;
use ar_workloads::WorkloadRegistry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Configuration of a [`SweepServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Base system configuration every cell is resolved against.
    pub base: SystemConfig,
    /// Root directory of the persistent report cache.
    pub cache_dir: PathBuf,
    /// Worker-thread count (`0` = available parallelism).
    pub workers: usize,
    /// The workloads cells are resolved against (default: the built-ins).
    pub registry: WorkloadRegistry,
}

impl ServerConfig {
    /// A single-worker server over `base` caching into `cache_dir`, serving
    /// the built-in workloads.
    pub fn new(base: SystemConfig, cache_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            base,
            cache_dir: cache_dir.into(),
            workers: 1,
            registry: WorkloadRegistry::builtin(),
        }
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the workload registry (tests use this to shadow a built-in
    /// with an instrumented or failing variant).
    #[must_use]
    pub fn registry(mut self, registry: WorkloadRegistry) -> Self {
        self.registry = registry;
        self
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("cache_dir", &self.cache_dir)
            .field("workers", &self.workers)
            .field("workloads", &self.registry.len())
            .finish_non_exhaustive()
    }
}

/// An update sent from the scheduler/workers to one subscribed connection.
enum JobUpdate {
    Running { index: usize },
    Progress { index: usize, network_cycle: u64, window_ipc: f64 },
    Done { index: usize, cached: bool, shared: bool, report: Arc<SimReport> },
    Failed { index: usize, message: String },
}

/// One connection's interest in one job.
struct Subscriber {
    /// Cell index in the subscriber's own request.
    index: usize,
    /// Channel back to the subscriber's handler thread.
    tx: mpsc::Sender<JobUpdate>,
    /// Whether this subscriber wants IPC progress samples.
    progress: bool,
}

/// A queued or running simulation job, keyed by cache address.
struct Job {
    key: CellKey,
    running: bool,
    subscribers: Vec<Subscriber>,
}

/// The scheduler state guarded by [`Shared::state`].
#[derive(Default)]
struct SchedState {
    /// Cache addresses in arrival order — strict FIFO.
    queue: VecDeque<u64>,
    /// All queued or running jobs by cache address.
    jobs: HashMap<u64, Job>,
    /// Set once; workers exit, queued jobs fail, the accept loop stops.
    shutdown: bool,
}

/// State shared by the accept loop, handler threads and workers.
struct Shared {
    base: SystemConfig,
    base_hash: u64,
    cache: ReportCache,
    registry: WorkloadRegistry,
    state: Mutex<SchedState>,
    work_ready: Condvar,
    runs: AtomicU64,
    cache_hits: AtomicU64,
    dedup_joins: AtomicU64,
}

impl Shared {
    fn stats(&self) -> StatsSnapshot {
        let in_flight =
            self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).jobs.len() as u64;
        StatsSnapshot {
            runs: self.runs.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            dedup_joins: self.dedup_joins.load(Ordering::Relaxed),
            in_flight,
        }
    }

    /// Initiates shutdown: fails every still-queued job, wakes the workers
    /// so they observe the flag, and pokes the accept loop with a throwaway
    /// connection so it re-checks the flag.
    fn shutdown(&self, addr: SocketAddr) {
        let failed = {
            let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            let queued: Vec<u64> = st.queue.drain(..).collect();
            let mut failed = Vec::new();
            for hash in queued {
                if let Some(job) = st.jobs.remove(&hash) {
                    failed.push(job);
                }
            }
            failed
        };
        for job in failed {
            for sub in job.subscribers {
                let _ = sub.tx.send(JobUpdate::Failed {
                    index: sub.index,
                    message: "server shutting down".to_string(),
                });
            }
        }
        self.work_ready.notify_all();
        // Unblock `TcpListener::accept`; the loop sees `shutdown` and exits.
        let _ = TcpStream::connect(addr);
    }
}

/// Streams kernel IPC samples to every progress-subscribed connection of
/// one job, including connections that join while the run is in flight.
struct ProgressForwarder {
    shared: Arc<Shared>,
    hash: u64,
}

impl Observer for ProgressForwarder {
    fn on_event(&mut self, event: &SimEvent) -> ObserverControl {
        if let SimEvent::Sample(sample) = event {
            let st = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(job) = st.jobs.get(&self.hash) {
                for sub in &job.subscribers {
                    if sub.progress {
                        let _ = sub.tx.send(JobUpdate::Progress {
                            index: sub.index,
                            network_cycle: sample.network_cycle,
                            window_ipc: sample.window_ipc,
                        });
                    }
                }
            }
        }
        ObserverControl::Continue
    }
}

/// A bound-but-not-yet-running sweep server. See the [module docs](self).
pub struct SweepServer {
    listener: TcpListener,
    addr: SocketAddr,
    workers: usize,
    shared: Arc<Shared>,
}

impl SweepServer {
    /// Binds a server (e.g. to `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<SweepServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            n => n,
        };
        let base_hash = config.base.to_json().content_hash();
        let shared = Arc::new(Shared {
            base: config.base,
            base_hash,
            cache: ReportCache::new(config.cache_dir),
            registry: config.registry,
            state: Mutex::new(SchedState::default()),
            work_ready: Condvar::new(),
            runs: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            dedup_joins: AtomicU64::new(0),
        });
        Ok(SweepServer { listener, addr, workers, shared })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the server on the calling thread until a shutdown request
    /// arrives: spawns the worker pool, then accepts and serves connections.
    ///
    /// # Errors
    ///
    /// Propagates accept errors (worker and handler threads never abort the
    /// server).
    pub fn run(self) -> io::Result<()> {
        let workers: Vec<JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let shared = self.shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let result = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) => break Err(e),
            };
            if self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).shutdown
            {
                break Ok(());
            }
            let shared = self.shared.clone();
            let addr = self.addr;
            std::thread::spawn(move || {
                let _ = serve_connection(&shared, stream, addr);
            });
        };
        self.shared.work_ready.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        result
    }

    /// Spawns [`SweepServer::run`] on a background thread and returns a
    /// handle for tests and embedding.
    pub fn spawn(self) -> RunningServer {
        let addr = self.addr;
        let shared = self.shared.clone();
        let thread = std::thread::spawn(move || self.run());
        RunningServer { addr, shared, thread }
    }
}

/// A handle to a server running on a background thread.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// Shuts the server down and joins its thread. Queued cells fail;
    /// running cells finish first.
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's exit status.
    pub fn shutdown(self) -> io::Result<()> {
        self.shared.shutdown(self.addr);
        self.thread.join().map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// One worker: pop the FIFO queue, re-check the cache, simulate, persist,
/// fan the report out to every subscriber.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Claim the oldest queued job (or exit on shutdown).
        let (hash, key) = {
            let mut st = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(hash) = st.queue.pop_front() {
                    let job = st.jobs.get_mut(&hash).expect("queued jobs stay registered");
                    job.running = true;
                    for sub in &job.subscribers {
                        let _ = sub.tx.send(JobUpdate::Running { index: sub.index });
                    }
                    break (hash, job.key.clone());
                }
                st = shared.work_ready.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };

        // The entry may have appeared since the accept-time cache check
        // (another server instance sharing the directory, a prior run with
        // an equivalent effective key) — re-check before paying for a run.
        let cache_key = key.cache_key(&shared.base);
        if let Some(report) = shared.cache.load(&cache_key) {
            shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            finish_job(shared, hash, Ok((Arc::new(report), true)));
            continue;
        }

        let outcome = match shared.registry.get(&key.workload) {
            None => Err(format!("unknown workload {:?}", key.workload)),
            Some(workload) => {
                // A panicking workload or simulation must fail only its own
                // cell, never the worker: catch the unwind, report it as a
                // per-cell failure to every subscriber, and keep serving.
                // (The poison-tolerant locks above keep the scheduler usable
                // even when the panic unwound through a held guard.)
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let built = key
                        .configure(&shared.base, workload)
                        .observer(ProgressForwarder { shared: shared.clone(), hash })
                        .build();
                    match built {
                        Err(e) => Err(format!("invalid cell {}: {e}", key.label())),
                        Ok(simulation) => {
                            let report = simulation.run();
                            shared.runs.fetch_add(1, Ordering::Relaxed);
                            // A failed persist is not a failed run: the report
                            // is still correct, the cell just stays uncached.
                            let _ = shared.cache.store(&cache_key, &report);
                            Ok((Arc::new(report), false))
                        }
                    }
                }));
                run.unwrap_or_else(|panic| {
                    Err(format!("cell {} panicked: {}", key.label(), panic_message(&*panic)))
                })
            }
        };
        finish_job(shared, hash, outcome);
    }
}

/// The panic payload's message, for the per-cell failure report.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Removes a finished job and fans its outcome out to every subscriber.
fn finish_job(shared: &Shared, hash: u64, outcome: Result<(Arc<SimReport>, bool), String>) {
    let job = shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .jobs
        .remove(&hash)
        .expect("running jobs stay registered");
    let shared_run = job.subscribers.len() > 1;
    for sub in job.subscribers {
        let update = match &outcome {
            Ok((report, cached)) => JobUpdate::Done {
                index: sub.index,
                cached: *cached,
                shared: shared_run,
                report: report.clone(),
            },
            Err(message) => JobUpdate::Failed { index: sub.index, message: message.clone() },
        };
        let _ = sub.tx.send(update);
    }
}

/// Serves one client connection until EOF or a protocol error.
fn serve_connection(
    shared: &Arc<Shared>,
    stream: TcpStream,
    server_addr: SocketAddr,
) -> io::Result<()> {
    // Every reply is a run of small lines, each flushed as it is written.
    // Under Nagle's algorithm each line after the first would wait for the
    // client's delayed ACK, 40 ms or more on Linux.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_line(
        &mut writer,
        &Event::Hello {
            proto: PROTOCOL_VERSION,
            schema: CACHE_SCHEMA_VERSION,
            base_hash: shared.base_hash,
        }
        .to_json(),
    )?;
    loop {
        let doc = match read_request_line(&mut reader) {
            Ok(Some(doc)) => doc,
            Ok(None) => return Ok(()),
            Err(e) => {
                let event = Event::Error { message: format!("malformed request: {e}") };
                let _ = write_line(&mut writer, &event.to_json());
                return Err(e);
            }
        };
        match Request::from_json(&doc) {
            Err(e) => {
                let event = Event::Error { message: format!("bad request: {e}") };
                let _ = write_line(&mut writer, &event.to_json());
                return Ok(());
            }
            Ok(Request::Ping) => write_line(&mut writer, &Event::Pong.to_json())?,
            Ok(Request::Stats) => {
                write_line(&mut writer, &Event::Stats(shared.stats()).to_json())?;
            }
            Ok(Request::Shutdown) => {
                write_line(&mut writer, &Event::ShuttingDown.to_json())?;
                shared.shutdown(server_addr);
                return Ok(());
            }
            Ok(Request::Run { progress, cells }) => {
                serve_run(shared, &mut writer, progress, &cells)?;
            }
        }
    }
}

/// Handles one [`Request::Run`]: disposes of every cell (hit / queue /
/// join), then forwards job updates until all pending cells resolve.
fn serve_run(
    shared: &Arc<Shared>,
    writer: &mut BufWriter<TcpStream>,
    progress: bool,
    cells: &[CellKey],
) -> io::Result<()> {
    let (tx, rx) = mpsc::channel::<JobUpdate>();
    let mut pending = 0usize;
    let (mut hits, mut fresh, mut joined) = (0usize, 0usize, 0usize);
    // Cache hits are buffered so all `accepted` lines precede any `done`.
    let mut hit_reports: Vec<(usize, SimReport)> = Vec::new();

    for (index, cell) in cells.iter().enumerate() {
        // Rendered once: the dedup map, the `accepted` line and the cache
        // lookup all address the cell by this text and its hash.
        let canonical = cell.cache_key(&shared.base).canonical_render();
        let hash = fnv1a_64(canonical.as_bytes());
        let subscriber = || Subscriber { index, tx: tx.clone(), progress };

        let status = {
            let mut st = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(job) = st.jobs.get_mut(&hash) {
                // In-flight dedup: ride the existing run.
                if job.running {
                    let _ = tx.send(JobUpdate::Running { index });
                }
                job.subscribers.push(subscriber());
                shared.dedup_joins.fetch_add(1, Ordering::Relaxed);
                joined += 1;
                pending += 1;
                CellStatus::Joined
            } else if st.shutdown {
                let _ = tx
                    .send(JobUpdate::Failed { index, message: "server shutting down".to_string() });
                pending += 1;
                CellStatus::Queued
            } else {
                drop(st);
                if let Some(report) = shared.cache.load_canonical(hash, &canonical) {
                    shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                    hit_reports.push((index, report));
                    hits += 1;
                    CellStatus::Hit
                } else {
                    // Re-take the lock; another connection may have queued
                    // this very cell while we were reading the cache.
                    let mut st =
                        shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    pending += 1;
                    if let Some(job) = st.jobs.get_mut(&hash) {
                        if job.running {
                            let _ = tx.send(JobUpdate::Running { index });
                        }
                        job.subscribers.push(subscriber());
                        shared.dedup_joins.fetch_add(1, Ordering::Relaxed);
                        joined += 1;
                        CellStatus::Joined
                    } else {
                        st.jobs.insert(
                            hash,
                            Job {
                                key: cell.clone(),
                                running: false,
                                subscribers: vec![subscriber()],
                            },
                        );
                        st.queue.push_back(hash);
                        shared.work_ready.notify_one();
                        fresh += 1;
                        CellStatus::Queued
                    }
                }
            }
        };
        write_line(writer, &Event::Accepted { index, key_hash: hash, status }.to_json())?;
    }
    drop(tx);

    for (index, report) in hit_reports {
        let event = Event::Done { index, cached: true, shared: false, report: Box::new(report) };
        write_line(writer, &event.to_json())?;
    }

    while pending > 0 {
        let update = rx.recv().map_err(|_| {
            io::Error::other("scheduler dropped a pending cell (server shutting down?)")
        })?;
        let event = match update {
            JobUpdate::Running { index } => Event::Running { index },
            JobUpdate::Progress { index, network_cycle, window_ipc } => {
                Event::Progress { index, network_cycle, window_ipc }
            }
            JobUpdate::Done { index, cached, shared, report } => {
                pending -= 1;
                Event::Done { index, cached, shared, report: Box::new(report.as_ref().clone()) }
            }
            JobUpdate::Failed { index, message } => {
                pending -= 1;
                Event::CellError { index, message }
            }
        };
        write_line(writer, &event.to_json())?;
    }
    write_line(writer, &Event::SweepDone { hits, runs: fresh, joined }.to_json())
}
