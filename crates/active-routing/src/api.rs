//! The Active-Routing programming interface (Section 3.1.1).
//!
//! The paper exposes two calls to application code:
//!
//! ```c
//! Update(void *src1, void *src2, void *target, int op);
//! Gather(void *target, int num_threads);
//! ```
//!
//! [`ActiveKernel`] is the Rust equivalent for this reproduction: a builder
//! that records the per-thread sequence of offloaded `Update`/`Gather` calls
//! (plus ordinary loads, stores and compute for the phases that are not
//! offloaded) as [`WorkStream`]s consumed by the core timing model, together
//! with the initial contents of the simulated memory and a functionally
//! computed *reference* result for every reduction target. The reference is
//! what the simulated in-network reduction must reproduce bit-for-bit up to
//! floating-point associativity.

use ar_types::hash::FastHashMap;
use ar_types::{Addr, ReduceOp, ThreadId, WorkItem, WorkStream};

/// Builder for an Active-Routing kernel: per-thread work streams, the initial
/// memory image, and reference reduction results.
///
/// # Example
///
/// ```
/// use active_routing::ActiveKernel;
/// use ar_types::{Addr, ReduceOp};
///
/// let mut k = ActiveKernel::new(2);
/// let a = Addr::new(0x1000);
/// let b = Addr::new(0x2000);
/// let sum = Addr::new(0x8000);
/// k.write_memory(a, 3.0);
/// k.write_memory(b, 4.0);
/// k.update(0, ReduceOp::Mac, a, Some(b), None, sum);
/// k.gather_all(sum, ReduceOp::Mac);
/// assert_eq!(k.reference(sum), Some(12.0));
/// assert_eq!(k.streams().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActiveKernel {
    threads: usize,
    streams: Vec<WorkStream>,
    /// The initial memory image handed to the simulator. Its keys come from
    /// in-process generators, so the maps use the fast deterministic hasher.
    initial_memory: FastHashMap<u64, f64>,
    /// The results of `mov`/`const_assign` updates applied so far, in
    /// program order. The functional reference reads this overlay first,
    /// then the initial image, so the image is never copied.
    overlay: FastHashMap<u64, f64>,
    references: FastHashMap<u64, (ReduceOp, f64)>,
    update_count: u64,
}

impl ActiveKernel {
    /// Creates a kernel executed by `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a kernel needs at least one thread");
        ActiveKernel {
            threads,
            streams: (0..threads).map(|t| WorkStream::new(ThreadId::new(t))).collect(),
            initial_memory: FastHashMap::default(),
            overlay: FastHashMap::default(),
            references: FastHashMap::default(),
            update_count: 0,
        }
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total `Update` calls recorded so far.
    pub fn update_count(&self) -> u64 {
        self.update_count
    }

    /// Writes a value into the initial memory image. It also replaces what
    /// an earlier `mov`/`const_assign` left at `addr`, so later reads see it.
    pub fn write_memory(&mut self, addr: Addr, value: f64) {
        self.initial_memory.insert(addr.as_u64(), value);
        if let Some(moved) = self.overlay.get_mut(&addr.as_u64()) {
            *moved = value;
        }
    }

    /// Writes a contiguous array of f64 values starting at `base` (8-byte
    /// elements) and returns the address of each element.
    pub fn write_array(&mut self, base: Addr, values: &[f64]) -> Vec<Addr> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let a = base.offset(i as u64 * 8);
                self.write_memory(a, v);
                a
            })
            .collect()
    }

    /// Reads a value from the kernel's working memory (0.0 when never
    /// written), honouring updates already applied by `mov`/`const_assign`
    /// calls — i.e. what the simulated kernel would observe at this point of
    /// the program.
    pub fn read_memory(&self, addr: Addr) -> f64 {
        let key = addr.as_u64();
        self.overlay.get(&key).or_else(|| self.initial_memory.get(&key)).copied().unwrap_or(0.0)
    }

    /// The *initial* memory image as `(address, value)` pairs — the state the
    /// simulated memory starts from, before any recorded update executes.
    pub fn memory_image(&self) -> Vec<(Addr, f64)> {
        let mut v: Vec<(Addr, f64)> =
            self.initial_memory.iter().map(|(&a, &x)| (Addr::new(a), x)).collect();
        // Keys are unique, so an unstable sort yields the one sorted order.
        v.sort_unstable_by_key(|(a, _)| a.as_u64());
        v
    }

    /// Appends an ordinary block of `n` ALU instructions to a thread.
    pub fn compute(&mut self, thread: usize, n: u32) {
        self.stream_mut(thread).push(WorkItem::Compute(n));
    }

    /// Appends an ordinary load to a thread.
    pub fn load(&mut self, thread: usize, addr: Addr) {
        self.stream_mut(thread).push(WorkItem::Load(addr));
    }

    /// Appends an ordinary store to a thread.
    pub fn store(&mut self, thread: usize, addr: Addr) {
        self.stream_mut(thread).push(WorkItem::Store(addr));
    }

    /// Appends an atomic read-modify-write (the baseline `atomic +=` pattern).
    pub fn atomic_rmw(&mut self, thread: usize, addr: Addr) {
        self.stream_mut(thread).push(WorkItem::AtomicRmw { addr });
    }

    /// Appends a barrier with the given id to every thread.
    pub fn barrier_all(&mut self, id: u32) {
        for stream in &mut self.streams {
            stream.push(WorkItem::Barrier { id });
        }
    }

    /// The paper's `Update(src1, src2, target, op)` call, issued by `thread`.
    ///
    /// The call is recorded in the thread's work stream *and* applied to the
    /// functional reference so [`ActiveKernel::reference`] returns the value
    /// the in-network reduction must produce.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range or if a two-operand operation is
    /// missing `src2`.
    pub fn update(
        &mut self,
        thread: usize,
        op: ReduceOp,
        src1: Addr,
        src2: Option<Addr>,
        imm: Option<f64>,
        target: Addr,
    ) {
        assert!(op.operand_count() < 2 || src2.is_some(), "{op} needs two source operands");
        self.apply_reference(op, src1, src2, imm, target);
        self.update_count += 1;
        self.stream_mut(thread).push(WorkItem::Update { op, src1, src2, imm, target });
    }

    /// The paper's `Gather(target, num_threads)` call issued by one thread,
    /// with `num_threads` equal to the kernel's thread count (the common case
    /// of a reduction shared by every thread).
    pub fn gather(&mut self, thread: usize, target: Addr, op: ReduceOp) {
        let num_threads = self.threads as u32;
        self.gather_from(thread, target, op, num_threads);
    }

    /// `Gather(target, num_threads)` with an explicit participant count — used
    /// when a flow is private to fewer threads than the whole kernel (e.g. one
    /// output element of a matrix multiplication owned by a single thread).
    /// The issuing thread waits for the result.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn gather_from(&mut self, thread: usize, target: Addr, op: ReduceOp, num_threads: u32) {
        assert!(num_threads > 0, "a gather needs at least one participating thread");
        self.stream_mut(thread).push(WorkItem::Gather { target, op, num_threads, wait: true });
    }

    /// A fire-and-forget `Gather`: the reduction is triggered but the issuing
    /// thread does not wait for the result and continues with independent
    /// work (e.g. the next output element of a matrix multiplication). Use
    /// the waiting variants when later code reads the result or overwrites
    /// the flow's source operands.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn gather_async(&mut self, thread: usize, target: Addr, op: ReduceOp, num_threads: u32) {
        assert!(num_threads > 0, "a gather needs at least one participating thread");
        self.stream_mut(thread).push(WorkItem::Gather { target, op, num_threads, wait: false });
    }

    /// Issues the `Gather` from every thread (the common pattern at the end of
    /// a parallel reduction loop).
    pub fn gather_all(&mut self, target: Addr, op: ReduceOp) {
        for t in 0..self.threads {
            self.gather(t, target, op);
        }
    }

    /// The functionally computed reference value of the reduction targeting
    /// `target`, or `None` when no reduction update ever targeted it.
    pub fn reference(&self, target: Addr) -> Option<f64> {
        self.references.get(&target.block_key()).map(|(_, v)| *v)
    }

    /// All reference reduction results as `(target, value)` pairs.
    pub fn references(&self) -> Vec<(Addr, f64)> {
        let mut v: Vec<(Addr, f64)> =
            self.references.iter().map(|(&a, &(_, x))| (Addr::new(a), x)).collect();
        v.sort_unstable_by_key(|(a, _)| a.as_u64());
        v
    }

    /// The per-thread work streams. Threads with no recorded work have empty
    /// streams.
    pub fn streams(&self) -> &[WorkStream] {
        &self.streams
    }

    /// Consumes the kernel and returns its work streams.
    pub fn into_streams(self) -> Vec<WorkStream> {
        self.streams
    }

    fn stream_mut(&mut self, thread: usize) -> &mut WorkStream {
        assert!(thread < self.threads, "thread {thread} out of range (threads = {})", self.threads);
        &mut self.streams[thread]
    }

    fn apply_reference(
        &mut self,
        op: ReduceOp,
        src1: Addr,
        src2: Option<Addr>,
        imm: Option<f64>,
        target: Addr,
    ) {
        let a = match op {
            ReduceOp::ConstAssign => imm.unwrap_or(0.0),
            _ => self.read_memory(src1),
        };
        let b = src2.map(|s| self.read_memory(s)).unwrap_or(0.0);
        if op.is_reduction() {
            let entry = self.references.entry(target.block_key()).or_insert((op, op.identity()));
            entry.1 = op.apply(entry.1, a, b);
        } else {
            // mov / const_assign update the functional memory image so later
            // updates reading the target observe the new value.
            self.overlay.insert(target.as_u64(), op.apply(0.0, a, b));
        }
    }
}

/// Internal helper: the key under which a reduction target is tracked — the
/// exact target address, matching the flow identification used by the host
/// offload controller.
trait BlockKey {
    fn block_key(&self) -> u64;
}

impl BlockKey for Addr {
    fn block_key(&self) -> u64 {
        self.as_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_reference_matches_hand_computation() {
        let mut k = ActiveKernel::new(4);
        let sum = Addr::new(0x8000);
        let a = k.write_array(Addr::new(0x1000), &[1.0, 2.0, 3.0, 4.0]);
        let b = k.write_array(Addr::new(0x2000), &[10.0, 20.0, 30.0, 40.0]);
        for (t, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            k.update(t % 4, ReduceOp::Mac, *x, Some(*y), None, sum);
        }
        k.gather_all(sum, ReduceOp::Mac);
        assert_eq!(k.reference(sum), Some(10.0 + 40.0 + 90.0 + 160.0));
        assert_eq!(k.update_count(), 4);
        // Every thread got one update and one gather.
        for s in k.streams() {
            assert_eq!(s.update_count(), 1);
            assert_eq!(s.len(), 2);
        }
    }

    #[test]
    fn mov_and_const_assign_update_the_memory_image() {
        let mut k = ActiveKernel::new(1);
        let src = Addr::new(0x100);
        let dst = Addr::new(0x200);
        k.write_memory(src, 9.0);
        k.update(0, ReduceOp::Mov, src, None, None, dst);
        assert_eq!(k.read_memory(dst), 9.0);
        k.update(0, ReduceOp::ConstAssign, dst, None, Some(0.5), dst);
        assert_eq!(k.read_memory(dst), 0.5);
        assert_eq!(k.reference(dst), None, "non-reductions have no gatherable reference");
    }

    #[test]
    fn write_memory_after_a_mov_replaces_the_moved_value() {
        let mut k = ActiveKernel::new(1);
        let (src, dst) = (Addr::new(0x100), Addr::new(0x200));
        k.write_memory(src, 9.0);
        k.update(0, ReduceOp::Mov, src, None, None, dst);
        k.write_memory(dst, 4.0);
        assert_eq!(k.read_memory(dst), 4.0);
        k.write_memory(src, 1.0);
        assert_eq!(k.read_memory(src), 1.0);
        assert_eq!(k.memory_image(), vec![(src, 1.0), (dst, 4.0)]);
    }

    #[test]
    fn pagerank_style_absdiff_reference() {
        // diff += |next_pr - pr| over three vertices, as in Fig. 3.2.
        let mut k = ActiveKernel::new(2);
        let diff = Addr::new(0x9000);
        let pr = k.write_array(Addr::new(0x1000), &[0.2, 0.3, 0.5]);
        let next = k.write_array(Addr::new(0x3000), &[0.25, 0.25, 0.5]);
        for i in 0..3 {
            k.update(i % 2, ReduceOp::AbsDiff, next[i], Some(pr[i]), None, diff);
        }
        k.gather_all(diff, ReduceOp::AbsDiff);
        let expected = (0.25f64 - 0.2).abs() + (0.25f64 - 0.3).abs();
        assert!((k.reference(diff).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn min_reduction_reference() {
        let mut k = ActiveKernel::new(1);
        let m = Addr::new(0x7000);
        let xs = k.write_array(Addr::new(0x1000), &[5.0, -2.0, 7.0]);
        for x in xs {
            k.update(0, ReduceOp::Min, x, None, None, m);
        }
        assert_eq!(k.reference(m), Some(-2.0));
    }

    #[test]
    fn memory_image_is_sorted_and_complete() {
        let mut k = ActiveKernel::new(1);
        k.write_memory(Addr::new(0x200), 2.0);
        k.write_memory(Addr::new(0x100), 1.0);
        let img = k.memory_image();
        assert_eq!(img.len(), 2);
        assert!(img[0].0 < img[1].0);
        assert_eq!(k.read_memory(Addr::new(0x999)), 0.0);
    }

    #[test]
    fn baseline_items_are_recorded_per_thread() {
        let mut k = ActiveKernel::new(2);
        k.compute(0, 10);
        k.load(0, Addr::new(0x40));
        k.store(1, Addr::new(0x80));
        k.atomic_rmw(1, Addr::new(0xc0));
        k.barrier_all(3);
        assert_eq!(k.streams()[0].len(), 3);
        assert_eq!(k.streams()[1].len(), 3);
        let streams = k.into_streams();
        assert_eq!(streams.len(), 2);
    }

    #[test]
    #[should_panic(expected = "needs two source operands")]
    fn two_operand_update_without_src2_panics() {
        let mut k = ActiveKernel::new(1);
        k.update(0, ReduceOp::Mac, Addr::new(0), None, None, Addr::new(0x100));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_thread_panics() {
        let mut k = ActiveKernel::new(1);
        k.compute(3, 1);
    }
}
