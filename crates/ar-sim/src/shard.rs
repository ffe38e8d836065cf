//! A persistent worker pool for ticking independent shards of a system
//! concurrently.
//!
//! In the full system a *shard* is one HMC cube together with its
//! Active-Routing engine. Within a cycle the kernel runs one tick job per
//! participating cube shard, and determinism is preserved by construction:
//! [`WorkerPool::run`] executes one job per shard and *returns only when
//! every job has finished*, so all cross-shard effects a job records in its
//! per-shard outbox can be applied serially, in fixed shard-index order, at
//! the phase boundary. Results are independent of the worker count because
//! jobs only touch their own shard and their own outbox.
//!
//! # Example
//!
//! ```
//! use ar_sim::WorkerPool;
//!
//! // Tick two shards concurrently; each job mutates only its own slot.
//! let mut pool = WorkerPool::new(2);
//! let mut outboxes = vec![Vec::new(); 2];
//! pool.run(&mut outboxes, |shard, outbox| outbox.push(shard));
//! // Merge in fixed shard-index order: deterministic regardless of threads.
//! let merged: Vec<usize> = outboxes.concat();
//! assert_eq!(merged, vec![0, 1]);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A batch of indexed work published to the pool: `len` items, each executed
/// by `call(data, index)` exactly once.
#[derive(Clone, Copy)]
struct ErasedJob {
    data: *const (),
    len: usize,
    call: unsafe fn(*const (), usize),
}

// SAFETY: the job only crosses threads inside `WorkerPool::run`, which keeps
// the pointed-to batch alive (and the caller blocked) until every item has
// completed; the item type is constrained to `Send` and the closure to
// `Sync` at the `run` signature.
unsafe impl Send for ErasedJob {}

/// Pads a hot atomic onto its own cache line: the epoch the workers spin on,
/// the claim counter and the completion counter are all written at batch
/// frequency by different threads, and false sharing between them is pure
/// dispatch latency.
#[repr(align(128))]
#[derive(Default)]
struct Padded<T>(T);

struct PoolShared {
    /// Batch generation. Bumped with `Release` after the job slot is
    /// written; workers `Acquire`-load it, so observing a new epoch makes
    /// the job slot visible.
    epoch: Padded<AtomicU64>,
    /// The published batch for the current epoch. Only written by the
    /// single caller of `run`, only read by workers after the epoch bump.
    job: std::cell::UnsafeCell<Option<ErasedJob>>,
    /// Next item index to claim (work is self-scheduled).
    next: Padded<AtomicUsize>,
    /// Items not yet completed in the current batch.
    pending: Padded<AtomicUsize>,
    /// The registration word: [`PUBLISHING`] in the high bit, the count of
    /// workers currently inside a batch in the low bits. Packing both into
    /// *one* atomic is what makes the handshake airtight — every register,
    /// deregister and publish-gate operation is an RMW on the same variable,
    /// so they are totally ordered and each side always observes the other:
    /// a worker that registers mid-publish sees the bit and retreats; a
    /// publisher's gate CAS fails while any worker is registered. A plain
    /// two-variable scheme has no such guarantee (a load may miss the other
    /// side's latest RMW), which is exactly the stale-batch hole this
    /// closes.
    state: Padded<AtomicUsize>,
    /// Workers currently blocked on the condvar. Lets the publisher skip the
    /// notify entirely while everyone is still spinning — the common case
    /// when batches arrive back to back. Checked with an RMW (which always
    /// observes the latest value), and incremented under the park mutex
    /// *after* a final epoch re-check, so a skipped notify can never strand
    /// a worker that was about to park.
    parked: Padded<AtomicUsize>,
    shutdown: AtomicBool,
    /// Parking lot for idle workers (the mutex guards no data — the condvar
    /// predicate is the epoch/shutdown pair).
    park: Mutex<()>,
    work: Condvar,
    /// First panic observed while executing a batch item, rethrown by `run`.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: the `UnsafeCell` job slot is synchronized through the
// registration protocol described on `PoolShared::state`: it is only
// written between a successful publish-gate CAS (which requires zero
// registered workers) and the bit-clear, and only read by workers whose
// registration RMW observed the bit clear — the two sides cannot overlap.
unsafe impl Sync for PoolShared {}

/// High bit of [`PoolShared::state`]: a publish (batch-state swap) is in
/// progress.
const PUBLISHING: usize = 1 << (usize::BITS - 1);

/// How many times a worker polls for a new batch before parking on the
/// condvar. Batches arrive back to back within a dispatch burst (a worker
/// stays hot across a burst), while between bursts — and on hosts where the
/// pool is oversubscribed — parking promptly matters more than the futex
/// wake it costs on the next dispatch.
const SPIN_ROUNDS: u32 = 8_192;

/// A persistent pool of worker threads for per-shard jobs.
///
/// Workers are spawned once and reused for every batch (no per-cycle thread
/// spawn); an idle worker spins briefly and then parks on a condvar.
/// [`WorkerPool::run`] publishes a batch of jobs over a mutable slice, the
/// caller participates in executing it, and the call returns only when every
/// job has finished — which is what makes lending the slice's borrows to the
/// workers sound, scoped-thread style, without spawning.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads()).finish()
    }
}

impl WorkerPool {
    /// Creates a pool that executes batches on `threads` threads in total:
    /// the calling thread plus `threads - 1` persistent workers. `threads`
    /// of 0 or 1 spawns no workers (every batch runs serially on the
    /// caller); 0 is *not* interpreted as "available parallelism" here —
    /// resolve that policy at the API that owns the knob.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            epoch: Padded(AtomicU64::new(0)),
            job: std::cell::UnsafeCell::new(None),
            next: Padded(AtomicUsize::new(0)),
            pending: Padded(AtomicUsize::new(0)),
            state: Padded(AtomicUsize::new(0)),
            parked: Padded(AtomicUsize::new(0)),
            shutdown: AtomicBool::new(false),
            park: Mutex::new(()),
            work: Condvar::new(),
            panic: Mutex::new(None),
        });
        let workers = (1..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ar-sim-shard-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn shard worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Total threads that execute a batch (workers + the caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(index, &mut items[index])` for every item, distributing items
    /// over the pool's threads, and returns when all of them have completed.
    /// Items are claimed dynamically, so the *execution order and placement
    /// are nondeterministic* — `f` must confine its effects to its own item
    /// (each item is a disjoint `&mut`), which is exactly the per-shard
    /// outbox discipline.
    ///
    /// A panic in any invocation of `f` is caught, the remaining items still
    /// run, and the first panic is rethrown on the caller once the batch has
    /// drained.
    ///
    /// Takes `&mut self` deliberately: one batch at a time is a soundness
    /// invariant of the publish protocol (two concurrent publishers would
    /// race on the shared batch state), and the exclusive borrow makes it a
    /// compile-time guarantee instead of a usage convention.
    pub fn run<T, F>(&mut self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if items.len() <= 1 || self.workers.is_empty() {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }

        struct Batch<'a, T, F> {
            items: *mut T,
            f: &'a F,
        }
        unsafe fn call_one<T, F: Fn(usize, &mut T)>(data: *const (), index: usize) {
            // SAFETY: `data` points at the `Batch` on the caller's stack,
            // alive until `run` returns; each index is claimed exactly once,
            // so the `&mut` items are disjoint.
            let batch = unsafe { &*(data as *const Batch<'_, T, F>) };
            (batch.f)(index, unsafe { &mut *batch.items.add(index) });
        }
        let batch = Batch { items: items.as_mut_ptr(), f: &f };
        let job =
            ErasedJob { data: (&raw const batch).cast(), len: items.len(), call: call_one::<T, F> };

        // Open the publish window: the gate CAS succeeds only when no worker
        // is registered in a batch and no publish is in flight, and it sets
        // the PUBLISHING bit in the same RMW. Because registrations are RMWs
        // on this same word, the gate and the registrations are totally
        // ordered: a straggler still claiming indices of the previous batch
        // holds the count non-zero (gate waits), and a worker that registers
        // after the gate observes the bit and retreats — the batch state
        // below is never swapped under anyone. `&mut self` guarantees a
        // single publisher.
        while self
            .shared
            .state
            .0
            .compare_exchange(0, PUBLISHING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            std::hint::spin_loop();
        }

        // Publish the batch: job slot and claim/completion counters first,
        // then the epoch bump that announces it, then close the publish
        // window (Release — a worker whose registration reads the cleared
        // bit sees the whole batch state).
        // SAFETY: inside the publish window no worker reads the slot (the
        // gate/retreat protocol above), so the exclusive write is race-free.
        unsafe { *self.shared.job.get() = Some(job) };
        self.shared.next.0.store(0, Ordering::Relaxed);
        self.shared.pending.0.store(items.len(), Ordering::Relaxed);
        self.shared.epoch.0.fetch_add(1, Ordering::Release);
        self.shared.state.0.fetch_and(!PUBLISHING, Ordering::Release);
        // Skip the notify while every worker is still spinning (batches
        // arriving back to back — the hot path). The parked check is an RMW
        // so it cannot read a stale zero: if a worker's registration as
        // parked is ordered before it, the notify happens; if after, the
        // worker's final epoch re-check under the park mutex (sequenced
        // after its parked RMW, which synchronizes with this one) already
        // sees the bump and it never waits.
        if self.shared.parked.0.compare_exchange(0, 0, Ordering::AcqRel, Ordering::Acquire).is_err()
        {
            let _guard = self.shared.park.lock().expect("pool mutex");
            self.shared.work.notify_all();
        }

        // The caller is a full participant.
        execute_batch(&self.shared, job);

        // Wait until every claimed item has completed (workers may still be
        // finishing items the caller did not claim) — `pending == 0` is what
        // makes returning (and thus dropping the borrowed batch) sound.
        // Spinning is usually right (straggler items are the same size as
        // the ones just executed), but yield eventually in case a worker was
        // descheduled mid-item.
        let mut spins = 0u32;
        while self.shared.pending.0.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }

        // Take the payload out before rethrowing so the guard is dropped
        // first — unwinding through a held guard would poison the mutex.
        let panic = self.shared.panic.lock().expect("pool mutex").take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.park.lock().expect("pool mutex");
            self.shared.work.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Claims and executes items of the published batch until none are left.
fn execute_batch(shared: &PoolShared, job: ErasedJob) {
    loop {
        let index = shared.next.0.fetch_add(1, Ordering::Relaxed);
        if index >= job.len {
            break;
        }
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, index) }));
        if let Err(payload) = result {
            let mut slot = shared.panic.lock().expect("pool mutex");
            slot.get_or_insert(payload);
        }
        shared.pending.0.fetch_sub(1, Ordering::Release);
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        // Wait for a new batch: spin briefly, then park.
        let mut spins = 0u32;
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if shared.epoch.0.load(Ordering::Acquire) != seen_epoch {
                break;
            }
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                let mut guard = shared.park.lock().expect("pool mutex");
                shared.parked.0.fetch_add(1, Ordering::AcqRel);
                while shared.epoch.0.load(Ordering::Acquire) == seen_epoch
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    guard = shared.work.wait(guard).expect("pool mutex");
                }
                shared.parked.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        // Register in the state word before touching any batch state. The
        // registration is an RMW on the same word as the publish gate, so
        // the two sides are totally ordered and exactly one of these holds:
        //
        // (a) the registration is ordered before the gate CAS — the gate
        //     waits for the deregistration, so the batch state stays frozen
        //     while this worker is inside (a stale batch is harmless: its
        //     `next` is exhausted, the claim loop exits without touching the
        //     job data);
        // (b) the registration observed the PUBLISHING bit — the batch
        //     state may be mid-swap, so retreat and retry;
        // (c) the registration observed a cleared bit after a finished
        //     publish — reading any value in the RMW chain headed by the
        //     publisher's Release clear synchronizes with it, so the whole
        //     batch state (job slot, `next`, `pending`, epoch) of the
        //     latest publication is visible.
        let was = shared.state.0.fetch_add(1, Ordering::AcqRel);
        if was & PUBLISHING != 0 {
            shared.state.0.fetch_sub(1, Ordering::Release);
            continue;
        }
        let epoch = shared.epoch.0.load(Ordering::Acquire);
        if epoch == seen_epoch {
            shared.state.0.fetch_sub(1, Ordering::Release);
            continue;
        }
        // SAFETY: by (a)/(c) above, the slot holds a fully published job and
        // cannot be rewritten while this worker's registration is held.
        let job = unsafe { (*shared.job.get()).expect("epoch bumped without a job") };
        execute_batch(shared, job);
        seen_epoch = epoch;
        shared.state.0.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_item_exactly_once() {
        let mut pool = WorkerPool::new(4);
        let mut counts = vec![0u64; 1024];
        for round in 1..=3u64 {
            pool.run(&mut counts, |i, c| *c += i as u64 + round);
        }
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(*c, 3 * i as u64 + 6, "item {i} ran a wrong number of times");
        }
    }

    #[test]
    fn pool_results_are_independent_of_thread_count() {
        let reference: Vec<u64> = (0..257).map(|i| i * i + 1).collect();
        for threads in [1, 2, 4, 8] {
            let mut pool = WorkerPool::new(threads);
            let mut items = vec![0u64; 257];
            pool.run(&mut items, |i, v| *v = (i * i + 1) as u64);
            assert_eq!(items, reference, "results diverged at {threads} threads");
        }
    }

    #[test]
    fn pool_with_one_thread_runs_inline() {
        let mut pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut items = vec![0u32; 8];
        pool.run(&mut items, |i, v| *v = i as u32);
        assert_eq!(items, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_propagates_a_job_panic_after_draining() {
        let mut pool = WorkerPool::new(2);
        let mut items = vec![0u32; 64];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut items, |i, v| {
                if i == 13 {
                    panic!("boom");
                }
                *v = 1;
            });
        }));
        assert!(result.is_err(), "the job panic must surface on the caller");
        // The pool survives the panic and runs the next batch normally.
        let mut again = vec![0u32; 64];
        pool.run(&mut again, |_, v| *v = 2);
        assert!(again.iter().all(|&v| v == 2));
    }

    #[test]
    fn pool_borrows_caller_state_scoped() {
        // The jobs borrow a slice and a closure from the caller's stack;
        // completion-before-return is what makes this sound.
        let mut pool = WorkerPool::new(3);
        let offsets: Vec<u64> = (0..100).collect();
        let mut out = vec![0u64; 100];
        pool.run(&mut out, |i, v| *v = offsets[i] + 1);
        assert_eq!(out[99], 100);
    }
}
