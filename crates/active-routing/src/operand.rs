//! Operand buffer management (Section 3.2.3, Fig. 3.3c).
//!
//! Two-operand updates (`sum += A[i] * B[i]`) reserve an operand buffer entry
//! at their compute cube, because the two operand responses can arrive at
//! different times. Single-operand reductions bypass the buffer entirely —
//! the optimisation called out in the paper to free buffer resources for the
//! two-operand flows.

use ar_types::json::{Json, JsonError};
use ar_types::{FlowId, ReduceOp};

/// One operand buffer entry (Fig. 3.3c): the owning flow plus two value/ready
/// slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperandEntry {
    /// Flow the pending update belongs to.
    pub flow: FlowId,
    /// The operation the update will perform once both operands are ready.
    pub op: ReduceOp,
    /// Identifier of the pending update (for latency tracking).
    pub update_id: u64,
    /// First operand value, if it has arrived.
    pub op_value1: Option<f64>,
    /// Second operand value, if it has arrived.
    pub op_value2: Option<f64>,
}

impl OperandEntry {
    /// Creates an empty entry for an update of `flow`.
    pub fn new(flow: FlowId, op: ReduceOp, update_id: u64) -> Self {
        OperandEntry { flow, op, update_id, op_value1: None, op_value2: None }
    }

    /// Records the arrival of operand `which` (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `which` is not 0 or 1.
    pub fn record(&mut self, which: u8, value: f64) {
        match which {
            0 => self.op_value1 = Some(value),
            1 => self.op_value2 = Some(value),
            _ => panic!("operand index must be 0 or 1"),
        }
    }

    /// Returns both operand values once both have arrived.
    pub fn ready(&self) -> Option<(f64, f64)> {
        match (self.op_value1, self.op_value2) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }

    /// Serializes the entry for checkpointed state (values as IEEE-754 bits).
    pub fn state_to_json(&self) -> Json {
        let value = |v: Option<f64>| v.map_or(Json::Null, Json::hex_f64);
        Json::obj([
            ("flow", self.flow.state_to_json()),
            ("op", Json::from(self.op.to_string())),
            ("update_id", Json::hex_u64(self.update_id)),
            ("v1", value(self.op_value1)),
            ("v2", value(self.op_value2)),
        ])
    }

    /// Decodes an entry produced by [`OperandEntry::state_to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing fields or an unknown op name.
    pub fn state_from_json(doc: &Json) -> Result<OperandEntry, JsonError> {
        let op = doc.req_str("op")?;
        let op = ReduceOp::from_name(op)
            .ok_or_else(|| JsonError::state(format!("unknown reduce op {op:?}")))?;
        let value = |key: &str| -> Result<Option<f64>, JsonError> {
            match doc.req(key)? {
                Json::Null => Ok(None),
                v => Ok(Some(v.as_hex_f64().ok_or_else(|| {
                    JsonError::state(format!("operand {key} is not an f64 bit pattern"))
                })?)),
            }
        };
        Ok(OperandEntry {
            flow: FlowId::state_from_json(doc.req("flow")?)?,
            op,
            update_id: doc.req_hex_u64("update_id")?,
            op_value1: value("v1")?,
            op_value2: value("v2")?,
        })
    }
}

/// The pool of operand buffer entries of one ARE.
#[derive(Debug)]
pub struct OperandPool {
    slots: Vec<Option<OperandEntry>>,
    free: Vec<usize>,
    high_watermark: usize,
    allocations: u64,
    failed_allocations: u64,
}

impl OperandPool {
    /// Creates a pool with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "operand pool capacity must be non-zero");
        OperandPool {
            slots: vec![None; capacity],
            free: (0..capacity).rev().collect(),
            high_watermark: 0,
            allocations: 0,
            failed_allocations: 0,
        }
    }

    /// Attempts to reserve an entry; returns its index or `None` when the
    /// pool is exhausted (the update must stall, Fig. 5.3).
    pub fn try_reserve(&mut self, flow: FlowId, op: ReduceOp, update_id: u64) -> Option<usize> {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(OperandEntry::new(flow, op, update_id));
                self.allocations += 1;
                self.high_watermark = self.high_watermark.max(self.in_use());
                Some(idx)
            }
            None => {
                self.failed_allocations += 1;
                None
            }
        }
    }

    /// Reads a reserved entry (`None` if `index` is out of range or free).
    pub fn get(&self, index: usize) -> Option<&OperandEntry> {
        self.slots.get(index).and_then(Option::as_ref)
    }

    /// Accesses a reserved entry.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut OperandEntry> {
        self.slots.get_mut(index).and_then(Option::as_mut)
    }

    /// Releases an entry, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn release(&mut self, index: usize) -> Option<OperandEntry> {
        let entry = self.slots[index].take();
        if entry.is_some() {
            self.free.push(index);
        }
        entry
    }

    /// Number of entries currently reserved.
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Returns true if no entry is free.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Maximum simultaneous occupancy seen.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Number of successful reservations.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Number of reservation attempts that failed because the pool was full.
    pub fn failed_allocations(&self) -> u64 {
        self.failed_allocations
    }

    /// Serializes the pool's dynamic state. The free stack is stored in
    /// order — reservation order after a restore must match the original
    /// pool's, since slot indices flow into packet-visible operand slots.
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            (
                "slots",
                Json::Arr(
                    self.slots
                        .iter()
                        .map(|s| s.as_ref().map_or(Json::Null, OperandEntry::state_to_json))
                        .collect(),
                ),
            ),
            ("free", Json::Arr(self.free.iter().map(|&i| Json::from(i)).collect())),
            ("high_watermark", Json::from(self.high_watermark)),
            ("allocations", Json::from(self.allocations)),
            ("failed_allocations", Json::from(self.failed_allocations)),
        ])
    }

    /// Restores dynamic state onto a freshly constructed pool.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed or inconsistent
    /// with this pool's capacity (wrong slot count, free index out of range
    /// or pointing at an occupied slot).
    pub fn load_state(&mut self, doc: &Json) -> Result<(), JsonError> {
        let slots = doc.req_array("slots")?;
        if slots.len() != self.slots.len() {
            return Err(JsonError::state(format!(
                "checkpoint has {} operand slots but the pool is configured with {}",
                slots.len(),
                self.slots.len()
            )));
        }
        for (slot, entry) in self.slots.iter_mut().zip(slots) {
            *slot = match entry {
                Json::Null => None,
                doc => Some(OperandEntry::state_from_json(doc)?),
            };
        }
        self.free.clear();
        for index in doc.req_array("free")? {
            let index = index
                .as_u64()
                .ok_or_else(|| JsonError::state("free-stack entry is not an index"))?
                as usize;
            if self.slots.get(index).is_none_or(|slot| slot.is_some()) {
                return Err(JsonError::state(format!(
                    "free-stack index {index} is out of range or occupied"
                )));
            }
            self.free.push(index);
        }
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        if occupied + self.free.len() != self.slots.len() {
            return Err(JsonError::state(
                "operand pool state is inconsistent: free stack does not cover the empty slots",
            ));
        }
        self.high_watermark = doc.req_usize("high_watermark")?;
        self.allocations = doc.req_u64("allocations")?;
        self.failed_allocations = doc.req_u64("failed_allocations")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_types::PortId;

    fn fid() -> FlowId {
        FlowId::new(0x40, PortId::new(1))
    }

    #[test]
    fn reserve_fill_release_cycle() {
        let mut pool = OperandPool::new(2);
        let idx = pool.try_reserve(fid(), ReduceOp::Mac, 7).expect("space available");
        assert_eq!(pool.in_use(), 1);
        let e = pool.get_mut(idx).unwrap();
        assert!(e.ready().is_none());
        e.record(0, 2.0);
        assert!(e.ready().is_none());
        e.record(1, 3.0);
        assert_eq!(e.ready(), Some((2.0, 3.0)));
        let released = pool.release(idx).unwrap();
        assert_eq!(released.update_id, 7);
        assert_eq!(pool.in_use(), 0);
        assert!(pool.release(idx).is_none(), "double release returns None");
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut pool = OperandPool::new(1);
        assert!(pool.try_reserve(fid(), ReduceOp::Mac, 0).is_some());
        assert!(pool.is_full());
        assert!(pool.try_reserve(fid(), ReduceOp::Mac, 1).is_none());
        assert_eq!(pool.failed_allocations(), 1);
        assert_eq!(pool.allocations(), 1);
        assert_eq!(pool.high_watermark(), 1);
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn freed_slot_is_reusable() {
        let mut pool = OperandPool::new(1);
        let a = pool.try_reserve(fid(), ReduceOp::Mac, 0).unwrap();
        pool.release(a);
        let b = pool.try_reserve(fid(), ReduceOp::AbsDiff, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "0 or 1")]
    fn bad_operand_index_panics() {
        let mut e = OperandEntry::new(fid(), ReduceOp::Mac, 0);
        e.record(2, 1.0);
    }
}
