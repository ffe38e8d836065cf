//! The per-thread work representation consumed by the core timing model.
//!
//! Instead of instrumenting x86 binaries with Pin (as the paper's McSimA+
//! front-end does), the workloads in this reproduction emit a stream of
//! [`WorkItem`]s per thread: compute blocks, loads/stores, atomic
//! read-modify-writes, and the `Update`/`Gather` offload commands of the
//! Active-Routing programming interface. The core model executes these items
//! through an ROB-limited out-of-order window, so the memory- and
//! offload-traffic timing matches what an execution-driven simulation of the
//! same kernel would produce to first order.

use crate::addr::Addr;
use crate::ids::ThreadId;
use crate::op::ReduceOp;
use std::collections::VecDeque;

/// One unit of work executed by a thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkItem {
    /// `n` back-to-back ALU instructions with no memory access.
    Compute(u32),
    /// A load from the given address (goes through the cache hierarchy).
    Load(Addr),
    /// A store to the given address (write-allocate, goes through the caches).
    Store(Addr),
    /// An atomic read-modify-write on a (typically shared) address. Models the
    /// `atomic diff += loc_diff` pattern of the baseline kernels: it costs a
    /// coherence round trip that invalidates other sharers.
    AtomicRmw {
        /// Address of the shared variable.
        addr: Addr,
    },
    /// An offloaded `Update(src1, src2, target, op)` command (Section 3.1.1).
    Update {
        /// Operation to perform near data.
        op: ReduceOp,
        /// First source operand address.
        src1: Addr,
        /// Optional second source operand address.
        src2: Option<Addr>,
        /// Optional immediate operand (for `const_assign`).
        imm: Option<f64>,
        /// Target (accumulator) address identifying the flow.
        target: Addr,
    },
    /// An offloaded `Gather(target, num_threads)` command.
    Gather {
        /// Target (accumulator) address identifying the flow.
        target: Addr,
        /// Reduction operation of the flow (needed to merge tree results).
        op: ReduceOp,
        /// Number of threads participating in the implicit barrier at the
        /// ARTree root.
        num_threads: u32,
        /// If true, the issuing thread blocks (and does not issue younger
        /// instructions) until the gathered result returns — required when
        /// later code reads the result or overwrites the flow's operands. If
        /// false, the gather is fire-and-forget and later independent work
        /// overlaps with the in-network reduction.
        wait: bool,
    },
    /// A software barrier: the thread blocks until all threads reach the
    /// barrier with the same id.
    Barrier {
        /// Barrier identifier (must be issued in the same order by every
        /// participating thread).
        id: u32,
    },
}

impl WorkItem {
    /// Number of dynamic instructions this item represents (used for IPC
    /// accounting, Fig. 5.8).
    pub fn instruction_count(&self) -> u64 {
        match self {
            WorkItem::Compute(n) => u64::from(*n),
            WorkItem::Load(_) | WorkItem::Store(_) => 1,
            WorkItem::AtomicRmw { .. } => 2,
            // An Update is the extended instruction plus the address
            // generation feeding the MI registers.
            WorkItem::Update { .. } => 3,
            WorkItem::Gather { .. } => 1,
            WorkItem::Barrier { .. } => 1,
        }
    }

    /// Returns true if the item accesses memory through the cache hierarchy.
    pub fn is_memory_access(&self) -> bool {
        matches!(self, WorkItem::Load(_) | WorkItem::Store(_) | WorkItem::AtomicRmw { .. })
    }

    /// Returns true if the item is an Active-Routing offload command.
    pub fn is_offload(&self) -> bool {
        matches!(self, WorkItem::Update { .. } | WorkItem::Gather { .. })
    }
}

/// The full stream of work items for one thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkStream {
    /// The thread that executes this stream.
    pub thread: ThreadId,
    items: VecDeque<WorkItem>,
}

impl WorkStream {
    /// Creates an empty stream for the given thread.
    pub fn new(thread: ThreadId) -> Self {
        WorkStream { thread, items: VecDeque::new() }
    }

    /// Appends one item to the stream.
    pub fn push(&mut self, item: WorkItem) {
        self.items.push_back(item);
    }

    /// Appends all items from an iterator.
    pub fn extend<I: IntoIterator<Item = WorkItem>>(&mut self, items: I) {
        self.items.extend(items);
    }

    /// Removes and returns the next item, or `None` when the stream is done.
    pub fn pop(&mut self) -> Option<WorkItem> {
        self.items.pop_front()
    }

    /// Peeks at the next item without consuming it.
    pub fn peek(&self) -> Option<&WorkItem> {
        self.items.front()
    }

    /// Number of remaining items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns true if no items remain.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the remaining items.
    pub fn iter(&self) -> impl Iterator<Item = &WorkItem> {
        self.items.iter()
    }

    /// Total number of dynamic instructions represented by the remaining
    /// items.
    pub fn instruction_count(&self) -> u64 {
        self.items.iter().map(WorkItem::instruction_count).sum()
    }

    /// Number of remaining `Update` items (used by the experiments to report
    /// offload counts).
    pub fn update_count(&self) -> u64 {
        self.items.iter().filter(|i| matches!(i, WorkItem::Update { .. })).count() as u64
    }

    /// Number of remaining memory-access items.
    pub fn memory_access_count(&self) -> u64 {
        self.items.iter().filter(|i| i.is_memory_access()).count() as u64
    }
}

impl FromIterator<WorkItem> for WorkStream {
    fn from_iter<I: IntoIterator<Item = WorkItem>>(iter: I) -> Self {
        let mut s = WorkStream::new(ThreadId::new(0));
        s.extend(iter);
        s
    }
}

impl Extend<WorkItem> for WorkStream {
    fn extend<I: IntoIterator<Item = WorkItem>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_fifo() {
        let mut s = WorkStream::new(ThreadId::new(1));
        s.push(WorkItem::Compute(4));
        s.push(WorkItem::Load(Addr::new(64)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop(), Some(WorkItem::Compute(4)));
        assert_eq!(s.pop(), Some(WorkItem::Load(Addr::new(64))));
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn instruction_counting() {
        let mut s = WorkStream::new(ThreadId::new(0));
        s.push(WorkItem::Compute(10));
        s.push(WorkItem::Load(Addr::new(0)));
        s.push(WorkItem::Update {
            op: ReduceOp::Mac,
            src1: Addr::new(0),
            src2: Some(Addr::new(64)),
            imm: None,
            target: Addr::new(128),
        });
        assert_eq!(s.instruction_count(), 10 + 1 + 3);
        assert_eq!(s.update_count(), 1);
        assert_eq!(s.memory_access_count(), 1);
    }

    #[test]
    fn item_classification() {
        assert!(WorkItem::Load(Addr::new(0)).is_memory_access());
        assert!(!WorkItem::Compute(1).is_memory_access());
        assert!(WorkItem::Gather {
            target: Addr::new(0),
            op: ReduceOp::Sum,
            num_threads: 4,
            wait: true
        }
        .is_offload());
        assert!(!WorkItem::Barrier { id: 0 }.is_offload());
    }

    #[test]
    fn collect_from_iterator() {
        let s: WorkStream = (0..5).map(|i| WorkItem::Load(Addr::new(i * 64))).collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().count(), 5);
    }
}
