//! The per-cube Active-Routing Engine (Section 3.2, Fig. 3.3a and Fig. 3.4).
//!
//! One [`ActiveRoutingEngine`] sits on each cube's intra-cube crossbar. It
//! decodes the active packets delivered to its cube and implements the three
//! phases of Active-Routing processing:
//!
//! * **tree construction** — an Update packet that is not destined for this
//!   cube registers (or extends) the flow's ARTree state and is forwarded one
//!   hop towards its compute cube;
//! * **near-data processing** — an Update destined for this cube reserves an
//!   operand buffer (two-operand operations) or takes the single-operand
//!   bypass, requests its operands from the local vaults or a remote cube,
//!   and commits the operation into the flow's partial result through the ALU;
//! * **network aggregation** — Gather requests mark the flow and are
//!   replicated down the tree; once every update counted at a node has
//!   committed in its subtree, the node replies to its parent with its partial
//!   result and releases the flow entry.
//!
//! The engine is a pure state machine over packets: it does not own the
//! network or the vaults. Every call returns an [`AreOutput`] listing the
//! packets to inject into the memory network and the vault accesses to
//! perform; the full-system model in `ar-system` (or a unit test) plumbs
//! them. Operand *values* come from a functional memory owned by the caller
//! and are handed back through [`ActiveRoutingEngine::complete_vault_read`].

use crate::flow::FlowTable;
use crate::operand::OperandPool;
use ar_network::DragonflyTopology;
use ar_sim::{Component, LatencyQueue, NextWake, SchedCtx};
use ar_types::addr::AddressMap;
use ar_types::config::AreConfig;
use ar_types::hash::FastHashMap;
use ar_types::ids::NetNode;
use ar_types::json::{Json, JsonError};
use ar_types::packet::{ActiveKind, OperandSlot, Packet, PacketKind};
use ar_types::{Addr, CubeId, Cycle, FlowId, ReduceOp};
use std::collections::VecDeque;

/// A read or write the engine wants performed against the local cube's
/// vaults. Reads are answered through
/// [`ActiveRoutingEngine::complete_vault_read`]; writes are fire-and-forget
/// (the caller applies the value to its functional memory and charges the
/// vault timing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VaultAccess {
    /// Engine-local identifier of the access (unique per engine).
    pub id: u64,
    /// Byte address of the access.
    pub addr: Addr,
    /// `Some(value)` for writes (the value to store), `None` for reads.
    pub write_value: Option<f64>,
}

impl VaultAccess {
    /// Returns true if this access is a write.
    pub fn is_write(&self) -> bool {
        self.write_value.is_some()
    }
}

/// Everything the engine produced while handling one event.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct AreOutput {
    /// Packets to inject into the memory network (source is this cube).
    pub packets: Vec<Packet>,
    /// Accesses to perform against the local cube's vaults.
    pub vault_accesses: Vec<VaultAccess>,
}

impl AreOutput {
    /// Merges another output into this one, draining `other` in place.
    ///
    /// Both lists are appended, so within each list the emission order of
    /// `other` is preserved after `self`'s; `other` is left empty with its
    /// capacity intact, ready to be recycled as an accumulator. Callers that
    /// combine outputs of several engines (the sharded kernel's per-cube
    /// outbox merge) must merge in ascending cube-index order: packets
    /// injected into the memory network in the same cycle are queued per
    /// link in merge order, so any other order would change link-level FIFO
    /// order and with it the report.
    pub fn merge_from(&mut self, other: &mut AreOutput) {
        self.packets.append(&mut other.packets);
        self.vault_accesses.append(&mut other.vault_accesses);
    }

    /// Clears both lists, keeping their capacity for reuse.
    pub fn clear(&mut self) {
        self.packets.clear();
        self.vault_accesses.clear();
    }

    /// Returns true if nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty() && self.vault_accesses.is_empty()
    }
}

/// One completed update's latency breakdown (Fig. 5.2): request (host port to
/// compute cube), stall (waiting for an operand buffer at the compute cube)
/// and response (operand fetch plus ALU) components, in network cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateLatencySample {
    /// Unique id of the update.
    pub update_id: u64,
    /// Cycles from MI injection to arrival at the compute cube.
    pub request: u64,
    /// Cycles spent waiting at the compute cube before operands were requested.
    pub stall: u64,
    /// Cycles from operand request to commit.
    pub response: u64,
}

impl UpdateLatencySample {
    /// Total roundtrip latency of the update.
    pub fn total(&self) -> u64 {
        self.request + self.stall + self.response
    }
}

/// Aggregate statistics of one Active-Routing Engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AreStats {
    /// Updates that arrived at this cube (as a tree node, destined or not).
    pub updates_received: u64,
    /// Updates computed at this cube (the "update distribution" of Fig. 5.3).
    pub updates_computed: u64,
    /// Updates forwarded towards their compute cube.
    pub updates_forwarded: u64,
    /// Update commits performed by the ALU.
    pub updates_committed: u64,
    /// Operand requests issued to the local vaults.
    pub operand_reads_local: u64,
    /// Operand requests sent to remote cubes.
    pub operand_reads_remote: u64,
    /// Operand requests served on behalf of remote cubes (the "operand
    /// distribution" of Fig. 5.3).
    pub operands_served: u64,
    /// Cycles updates spent stalled waiting for a free operand buffer
    /// (the "operand buffer stalls" heatmap of Fig. 5.3).
    pub operand_buffer_stall_cycles: u64,
    /// ALU operations performed.
    pub alu_ops: u64,
    /// In-memory writes performed for non-reduction updates (mov /
    /// const_assign).
    pub memory_writes: u64,
    /// Gather requests handled.
    pub gather_requests: u64,
    /// Gather responses sent to a parent.
    pub gather_responses_sent: u64,
    /// Flows registered in the flow table over the engine's lifetime.
    pub flows_registered: u64,
    /// Number of latency samples accumulated.
    pub latency_samples: u64,
    /// Sum of request latencies over all samples.
    pub request_latency_sum: u64,
    /// Sum of stall latencies over all samples.
    pub stall_latency_sum: u64,
    /// Sum of response latencies over all samples.
    pub response_latency_sum: u64,
}

impl AreStats {
    /// Serializes the statistics for checkpointed state.
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            ("updates_received", Json::from(self.updates_received)),
            ("updates_computed", Json::from(self.updates_computed)),
            ("updates_forwarded", Json::from(self.updates_forwarded)),
            ("updates_committed", Json::from(self.updates_committed)),
            ("operand_reads_local", Json::from(self.operand_reads_local)),
            ("operand_reads_remote", Json::from(self.operand_reads_remote)),
            ("operands_served", Json::from(self.operands_served)),
            ("operand_buffer_stall_cycles", Json::from(self.operand_buffer_stall_cycles)),
            ("alu_ops", Json::from(self.alu_ops)),
            ("memory_writes", Json::from(self.memory_writes)),
            ("gather_requests", Json::from(self.gather_requests)),
            ("gather_responses_sent", Json::from(self.gather_responses_sent)),
            ("flows_registered", Json::from(self.flows_registered)),
            ("latency_samples", Json::from(self.latency_samples)),
            ("request_latency_sum", Json::from(self.request_latency_sum)),
            ("stall_latency_sum", Json::from(self.stall_latency_sum)),
            ("response_latency_sum", Json::from(self.response_latency_sum)),
        ])
    }

    /// Decodes statistics produced by [`AreStats::state_to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn state_from_json(doc: &Json) -> Result<AreStats, JsonError> {
        Ok(AreStats {
            updates_received: doc.req_u64("updates_received")?,
            updates_computed: doc.req_u64("updates_computed")?,
            updates_forwarded: doc.req_u64("updates_forwarded")?,
            updates_committed: doc.req_u64("updates_committed")?,
            operand_reads_local: doc.req_u64("operand_reads_local")?,
            operand_reads_remote: doc.req_u64("operand_reads_remote")?,
            operands_served: doc.req_u64("operands_served")?,
            operand_buffer_stall_cycles: doc.req_u64("operand_buffer_stall_cycles")?,
            alu_ops: doc.req_u64("alu_ops")?,
            memory_writes: doc.req_u64("memory_writes")?,
            gather_requests: doc.req_u64("gather_requests")?,
            gather_responses_sent: doc.req_u64("gather_responses_sent")?,
            flows_registered: doc.req_u64("flows_registered")?,
            latency_samples: doc.req_u64("latency_samples")?,
            request_latency_sum: doc.req_u64("request_latency_sum")?,
            stall_latency_sum: doc.req_u64("stall_latency_sum")?,
            response_latency_sum: doc.req_u64("response_latency_sum")?,
        })
    }

    /// Mean request latency in cycles.
    pub fn mean_request_latency(&self) -> f64 {
        mean(self.request_latency_sum, self.latency_samples)
    }

    /// Mean operand-buffer stall latency in cycles.
    pub fn mean_stall_latency(&self) -> f64 {
        mean(self.stall_latency_sum, self.latency_samples)
    }

    /// Mean response latency in cycles.
    pub fn mean_response_latency(&self) -> f64 {
        mean(self.response_latency_sum, self.latency_samples)
    }
}

fn mean(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// Context of an update being processed at this cube.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UpdateContext {
    flow: FlowId,
    op: ReduceOp,
    update_id: u64,
    /// Cycle the MI injected the update (from the packet).
    issued_at: Cycle,
    /// Cycle the update arrived at this (compute) cube.
    arrived_at: Cycle,
    /// Cycle its operand requests were issued.
    requested_at: Cycle,
    /// Target address (needed by non-reduction updates that write memory).
    target: Addr,
    /// Immediate operand (const_assign).
    imm: Option<f64>,
    /// True if the flow table tracks this update (reduction ops only).
    tracked: bool,
}

/// Why a local vault read was issued.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ReadPurpose {
    /// Operand `which` of an update computed at this cube.
    LocalOperand { ctx: UpdateContext, slot: Option<usize>, which: u8 },
    /// Operand fetch on behalf of a remote cube's update; the value is sent
    /// back in an OperandResp packet.
    RemoteOperand {
        requester: NetNode,
        flow: FlowId,
        slot: Option<OperandSlot>,
        which: u8,
        update_id: u64,
        op: ReduceOp,
    },
}

/// A two-operand update waiting for a free operand buffer entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StalledUpdate {
    ctx: UpdateContext,
    src1: Addr,
    src2: Addr,
    stalled_since: Cycle,
}

/// An operation whose operands are ready, waiting in the ALU pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AluOp {
    ctx: UpdateContext,
    src1: f64,
    src2: f64,
    slot: Option<usize>,
}

/// The Active-Routing Engine of one memory cube.
#[derive(Debug)]
pub struct ActiveRoutingEngine {
    cube: CubeId,
    topology: DragonflyTopology,
    map: AddressMap,
    flows: FlowTable,
    operands: OperandPool,
    decode_latency: Cycle,
    alu_issue_per_cycle: u32,
    /// Updates waiting for an operand buffer entry.
    stalled: VecDeque<StalledUpdate>,
    /// Outstanding local vault reads issued by this engine. Keyed by small
    /// integers and probed on every operand fetch/completion, so it uses the
    /// deterministic [`FastHashMap`]; it is never iterated.
    pending_reads: FastHashMap<u64, ReadPurpose>,
    /// Operations waiting for (or inside) the ALU pipeline.
    alu_queue: LatencyQueue<AluOp>,
    /// Output produced by [`Component::wake`], drained by the system through
    /// [`ActiveRoutingEngine::take_output`].
    pending_output: AreOutput,
    next_access_id: u64,
    next_packet_seq: u64,
    stats: AreStats,
}

impl ActiveRoutingEngine {
    /// Creates the engine for `cube` in a memory network described by
    /// `topology` with address interleaving `map`.
    pub fn new(
        cube: CubeId,
        cfg: &AreConfig,
        topology: DragonflyTopology,
        map: AddressMap,
    ) -> Self {
        ActiveRoutingEngine {
            cube,
            topology,
            map,
            flows: FlowTable::new(cfg.flow_table_entries),
            operands: OperandPool::new(cfg.operand_buffers),
            decode_latency: cfg.decode_latency,
            alu_issue_per_cycle: cfg.alu_issue_per_cycle.max(1),
            stalled: VecDeque::new(),
            pending_reads: FastHashMap::default(),
            alu_queue: LatencyQueue::new(),
            pending_output: AreOutput::default(),
            next_access_id: 0,
            next_packet_seq: 0,
            stats: AreStats::default(),
        }
    }

    /// The cube this engine belongs to.
    pub fn cube(&self) -> CubeId {
        self.cube
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &AreStats {
        &self.stats
    }

    /// Read-only access to the flow table (for tests and reporting).
    pub fn flows(&self) -> &FlowTable {
        &self.flows
    }

    /// Read-only access to the operand buffer pool.
    pub fn operand_pool(&self) -> &OperandPool {
        &self.operands
    }

    /// Returns true when the engine holds no in-flight work: no live flows,
    /// no stalled updates, no outstanding vault reads and an empty ALU
    /// pipeline.
    pub fn is_idle(&self) -> bool {
        self.flows.is_empty()
            && self.stalled.is_empty()
            && self.pending_reads.is_empty()
            && self.alu_queue.is_empty()
    }

    /// Returns true when the engine holds no in-flight *data processing* work
    /// but may still track flows waiting for their gather.
    pub fn is_quiescent(&self) -> bool {
        self.stalled.is_empty() && self.pending_reads.is_empty() && self.alu_queue.is_empty()
    }

    fn next_packet_id(&mut self) -> u64 {
        let id = ((self.cube.index() as u64) << 40) | self.next_packet_seq;
        self.next_packet_seq += 1;
        id
    }

    fn next_access(&mut self) -> u64 {
        let id = self.next_access_id;
        self.next_access_id += 1;
        id
    }

    fn cube_of(&self, addr: Addr) -> CubeId {
        CubeId::new(self.map.cube_of(addr))
    }

    fn make_packet(&mut self, dst: NetNode, kind: ActiveKind, now: Cycle) -> Packet {
        let id = self.next_packet_id();
        Packet::new(id, NetNode::Cube(self.cube), dst, PacketKind::Active(kind), now)
    }

    /// Handles one packet delivered to this cube by the memory network.
    ///
    /// # Panics
    ///
    /// Panics if the packet is not an active packet; normal memory packets
    /// are handled by the vault controllers, not the ARE.
    pub fn handle_packet(&mut self, now: Cycle, packet: Packet) -> AreOutput {
        let mut out = AreOutput::default();
        self.handle_packet_into(now, packet, &mut out);
        out
    }

    /// Like [`ActiveRoutingEngine::handle_packet`], but appends into a
    /// caller-owned output so a driver handling many packets per cycle can
    /// reuse one accumulator instead of allocating per packet.
    pub fn handle_packet_into(&mut self, now: Cycle, packet: Packet, out: &mut AreOutput) {
        let PacketKind::Active(kind) = packet.kind else {
            panic!("ARE only decodes active packets, got {:?}", packet.kind)
        };
        let now = now + self.decode_latency;
        match kind {
            ActiveKind::Update { .. } => self.handle_update(now, packet.src, kind, out),
            ActiveKind::OperandReq { .. } => self.handle_operand_req(now, packet.src, kind, out),
            ActiveKind::OperandResp { .. } => self.handle_operand_resp(now, kind, out),
            ActiveKind::GatherReq { .. } => self.handle_gather_req(now, packet.src, kind, out),
            ActiveKind::GatherResp { .. } => self.handle_gather_resp(now, packet.src, kind, out),
        }
    }

    fn handle_update(&mut self, now: Cycle, from: NetNode, kind: ActiveKind, out: &mut AreOutput) {
        let ActiveKind::Update {
            flow,
            op,
            src1,
            src2,
            imm,
            compute_cube,
            thread,
            update_id,
            issued_at,
        } = kind
        else {
            unreachable!("handle_update called with a non-update packet")
        };
        self.stats.updates_received += 1;
        let tracked = op.is_reduction();
        if tracked {
            let was_known = self.flows.get(&flow).is_some();
            let entry = self.flows.entry_or_register(flow, op, from);
            if !was_known {
                self.stats.flows_registered += 1;
            }
            entry.req_counter += 1;
        }

        if compute_cube != self.cube {
            // Tree construction: extend the ARTree one hop towards the compute
            // cube and forward the update.
            self.stats.updates_forwarded += 1;
            let next =
                self.topology.next_hop(NetNode::Cube(self.cube), NetNode::Cube(compute_cube));
            if tracked {
                if let Some(entry) = self.flows.get_mut(&flow) {
                    entry.children.insert(next);
                }
            }
            let fwd = ActiveKind::Update {
                flow,
                op,
                src1,
                src2,
                imm,
                compute_cube,
                thread,
                update_id,
                issued_at,
            };
            let packet = self.make_packet(next, fwd, now);
            out.packets.push(packet);
            return;
        }

        // Near-data processing at the compute cube.
        self.stats.updates_computed += 1;
        let ctx = UpdateContext {
            flow,
            op,
            update_id,
            issued_at,
            arrived_at: now,
            requested_at: now,
            target: Addr::new(flow.target),
            imm,
            tracked,
        };
        match op.operand_count() {
            0 => self.start_zero_operand(now, ctx, out),
            1 => self.start_single_operand(now, ctx, src1, out),
            _ => {
                let src2 = src2.expect("two-operand update must carry src2");
                self.start_two_operand(now, ctx, src1, src2, out)
            }
        }
    }

    fn start_zero_operand(&mut self, now: Cycle, ctx: UpdateContext, out: &mut AreOutput) {
        // const_assign / nop: write the immediate (if any) to the target and
        // commit straight away — there is nothing to fetch.
        if let (ReduceOp::ConstAssign, Some(value)) = (ctx.op, ctx.imm) {
            let id = self.next_access();
            out.vault_accesses.push(VaultAccess { id, addr: ctx.target, write_value: Some(value) });
            self.stats.memory_writes += 1;
        }
        self.alu_queue.push_after(
            now,
            ctx.op.alu_latency(),
            AluOp { ctx, src1: ctx.imm.unwrap_or(0.0), src2: 0.0, slot: None },
        );
    }

    fn start_single_operand(
        &mut self,
        now: Cycle,
        mut ctx: UpdateContext,
        src1: Addr,
        out: &mut AreOutput,
    ) {
        // Single-operand bypass: no operand buffer entry is reserved.
        ctx.requested_at = now;
        self.issue_operand_fetch(now, ctx, src1, None, 0, out);
    }

    fn start_two_operand(
        &mut self,
        now: Cycle,
        ctx: UpdateContext,
        src1: Addr,
        src2: Addr,
        out: &mut AreOutput,
    ) {
        match self.operands.try_reserve(ctx.flow, ctx.op, ctx.update_id) {
            Some(slot) => self.issue_two_operand(now, ctx, src1, src2, slot, out),
            None => {
                self.stalled.push_back(StalledUpdate { ctx, src1, src2, stalled_since: now });
            }
        }
    }

    fn issue_two_operand(
        &mut self,
        now: Cycle,
        mut ctx: UpdateContext,
        src1: Addr,
        src2: Addr,
        slot: usize,
        out: &mut AreOutput,
    ) {
        ctx.requested_at = now;
        self.issue_operand_fetch(now, ctx, src1, Some(slot), 0, out);
        self.issue_operand_fetch(now, ctx, src2, Some(slot), 1, out);
    }

    /// Issues the fetch of one operand: a local vault read when the operand
    /// lives in this cube, otherwise an OperandReq packet to the owning cube.
    fn issue_operand_fetch(
        &mut self,
        now: Cycle,
        ctx: UpdateContext,
        addr: Addr,
        slot: Option<usize>,
        which: u8,
        out: &mut AreOutput,
    ) {
        let owner = self.cube_of(addr);
        if owner == self.cube {
            self.stats.operand_reads_local += 1;
            let id = self.next_access();
            self.pending_reads.insert(id, ReadPurpose::LocalOperand { ctx, slot, which });
            out.vault_accesses.push(VaultAccess { id, addr, write_value: None });
        } else {
            self.stats.operand_reads_remote += 1;
            let kind = ActiveKind::OperandReq {
                flow: ctx.flow,
                slot: slot.map(|index| OperandSlot { cube: self.cube, index }),
                addr,
                which,
                update_id: ctx.update_id,
                op: ctx.op,
            };
            // Remember the in-flight remote fetch so the OperandResp can be
            // matched back to its update context.
            let key = remote_key(ctx.update_id, which);
            self.pending_reads.insert(key, ReadPurpose::LocalOperand { ctx, slot, which });
            let packet = self.make_packet(NetNode::Cube(owner), kind, now);
            out.packets.push(packet);
        }
    }

    fn handle_operand_req(
        &mut self,
        _now: Cycle,
        from: NetNode,
        kind: ActiveKind,
        out: &mut AreOutput,
    ) {
        let ActiveKind::OperandReq { flow, slot, addr, which, update_id, op } = kind else {
            unreachable!("handle_operand_req called with a different packet")
        };
        self.stats.operands_served += 1;
        let id = self.next_access();
        self.pending_reads.insert(
            id,
            ReadPurpose::RemoteOperand { requester: from, flow, slot, which, update_id, op },
        );
        out.vault_accesses.push(VaultAccess { id, addr, write_value: None });
    }

    fn handle_operand_resp(&mut self, now: Cycle, kind: ActiveKind, _out: &mut AreOutput) {
        let ActiveKind::OperandResp { which, value, update_id, .. } = kind else {
            unreachable!("handle_operand_resp called with a different packet")
        };
        let key = remote_key(update_id, which);
        let Some(ReadPurpose::LocalOperand { ctx, slot, which }) = self.pending_reads.remove(&key)
        else {
            // The response does not match any outstanding fetch; drop it.
            return;
        };
        self.operand_arrived(now, ctx, slot, which, value);
    }

    /// Delivers the value of a local vault read previously requested through
    /// [`AreOutput::vault_accesses`].
    pub fn complete_vault_read(&mut self, now: Cycle, access_id: u64, value: f64) -> AreOutput {
        let mut out = AreOutput::default();
        self.complete_vault_read_into(now, access_id, value, &mut out);
        out
    }

    /// Like [`ActiveRoutingEngine::complete_vault_read`], but appends into a
    /// caller-owned output.
    pub fn complete_vault_read_into(
        &mut self,
        now: Cycle,
        access_id: u64,
        value: f64,
        out: &mut AreOutput,
    ) {
        let Some(purpose) = self.pending_reads.remove(&access_id) else {
            return;
        };
        match purpose {
            ReadPurpose::LocalOperand { ctx, slot, which } => {
                self.operand_arrived(now, ctx, slot, which, value);
            }
            ReadPurpose::RemoteOperand { requester, flow, slot, which, update_id, op } => {
                let kind = ActiveKind::OperandResp { flow, slot, which, value, update_id, op };
                let packet = self.make_packet(requester, kind, now);
                out.packets.push(packet);
            }
        }
    }

    fn operand_arrived(
        &mut self,
        now: Cycle,
        ctx: UpdateContext,
        slot: Option<usize>,
        which: u8,
        value: f64,
    ) {
        match slot {
            None => {
                // Single-operand bypass: straight to the ALU.
                self.alu_queue.push_after(
                    now,
                    ctx.op.alu_latency(),
                    AluOp { ctx, src1: value, src2: 0.0, slot: None },
                );
            }
            Some(index) => {
                let ready = {
                    let entry = self
                        .operands
                        .get_mut(index)
                        .expect("operand buffer entry must exist while its update is in flight");
                    entry.record(which, value);
                    entry.ready()
                };
                if let Some((a, b)) = ready {
                    self.alu_queue.push_after(
                        now,
                        ctx.op.alu_latency(),
                        AluOp { ctx, src1: a, src2: b, slot: Some(index) },
                    );
                }
            }
        }
    }

    fn handle_gather_req(
        &mut self,
        now: Cycle,
        from: NetNode,
        kind: ActiveKind,
        out: &mut AreOutput,
    ) {
        let ActiveKind::GatherReq { flow, op, expected_at_root, thread } = kind else {
            unreachable!("handle_gather_req called with a different packet")
        };
        self.stats.gather_requests += 1;
        let was_known = self.flows.get(&flow).is_some();
        let entry = self.flows.entry_or_register(flow, op, from);
        if !was_known {
            self.stats.flows_registered += 1;
        }
        entry.gather_arrivals += 1;
        entry.gather_expected = entry.gather_expected.max(expected_at_root);
        if entry.gather_arrivals < entry.gather_expected {
            // Implicit barrier at the root: wait for the remaining gathers.
            return;
        }
        entry.gflag = true;
        let children: Vec<NetNode> = entry.children.iter().copied().collect();
        for child in children {
            let kind = ActiveKind::GatherReq { flow, op, expected_at_root: 1, thread };
            let packet = self.make_packet(child, kind, now);
            out.packets.push(packet);
        }
        self.try_complete(now, flow, out);
    }

    fn handle_gather_resp(
        &mut self,
        now: Cycle,
        from: NetNode,
        kind: ActiveKind,
        out: &mut AreOutput,
    ) {
        let ActiveKind::GatherResp { flow, value, updates } = kind else {
            unreachable!("handle_gather_resp called with a different packet")
        };
        if let Some(entry) = self.flows.get_mut(&flow) {
            entry.absorb_child(from, value);
            entry.resp_counter += updates;
        }
        self.try_complete(now, flow, out);
    }

    /// If the subtree rooted at this cube has finished (gather requested and
    /// every counted update committed), reply to the parent and release the
    /// flow entry.
    fn try_complete(&mut self, now: Cycle, flow: FlowId, out: &mut AreOutput) {
        let done = match self.flows.get(&flow) {
            Some(entry) => entry.gflag && entry.req_counter == entry.resp_counter,
            None => false,
        };
        if !done {
            return;
        }
        let entry = self.flows.release(&flow).expect("checked above");
        self.stats.gather_responses_sent += 1;
        let kind = ActiveKind::GatherResp { flow, value: entry.result, updates: entry.req_counter };
        let packet = self.make_packet(entry.parent, kind, now);
        out.packets.push(packet);
    }

    /// Drains the output accumulated by [`Component::wake`] calls since the
    /// last drain.
    pub fn take_output(&mut self) -> AreOutput {
        std::mem::take(&mut self.pending_output)
    }

    /// Advances the engine by one network cycle: retries updates stalled on
    /// the operand buffer pool and commits operations leaving the ALU.
    pub fn tick(&mut self, now: Cycle) -> AreOutput {
        let mut out = AreOutput::default();
        self.tick_into(now, &mut out);
        out
    }

    /// Like [`ActiveRoutingEngine::tick`], but appends into a caller-owned
    /// output.
    pub fn tick_into(&mut self, now: Cycle, out: &mut AreOutput) {
        // Retry stalled two-operand updates while buffer entries are free.
        while let Some(stalled) = self.stalled.front().copied() {
            match self.operands.try_reserve(stalled.ctx.flow, stalled.ctx.op, stalled.ctx.update_id)
            {
                Some(slot) => {
                    self.stalled.pop_front();
                    self.stats.operand_buffer_stall_cycles +=
                        now.saturating_sub(stalled.stalled_since);
                    self.issue_two_operand(now, stalled.ctx, stalled.src1, stalled.src2, slot, out);
                }
                None => {
                    // Account one stall cycle for every update still waiting.
                    self.stats.operand_buffer_stall_cycles += self.stalled.len() as u64;
                    break;
                }
            }
        }

        // Commit up to `alu_issue_per_cycle` operations whose ALU latency has
        // elapsed.
        for _ in 0..self.alu_issue_per_cycle {
            let Some(op) = self.alu_queue.pop_ready(now) else { break };
            self.commit(now, op, out);
        }
    }

    fn commit(&mut self, now: Cycle, alu: AluOp, out: &mut AreOutput) {
        self.stats.alu_ops += 1;
        self.stats.updates_committed += 1;
        let ctx = alu.ctx;

        if let Some(index) = alu.slot {
            self.operands.release(index);
        }

        if ctx.tracked {
            let contribution = ctx.op.apply(ctx.op.identity(), alu.src1, alu.src2);
            if let Some(entry) = self.flows.get_mut(&ctx.flow) {
                entry.commit_value(contribution);
            }
            self.record_latency(now, &ctx);
            self.try_complete(now, ctx.flow, out);
        } else {
            // Non-reduction update (mov): write the fetched value to the
            // target address in this cube's memory.
            if ctx.op == ReduceOp::Mov {
                let id = self.next_access();
                out.vault_accesses.push(VaultAccess {
                    id,
                    addr: ctx.target,
                    write_value: Some(alu.src1),
                });
                self.stats.memory_writes += 1;
            }
            self.record_latency(now, &ctx);
        }
    }

    /// Serializes the engine's dynamic state: flow table, operand pool,
    /// stalled updates, outstanding reads (sorted by key for a stable
    /// rendering), the ALU pipeline, any undrained wake output, the id
    /// counters and the statistics.
    pub fn state_to_json(&self) -> Json {
        let mut reads: Vec<(&u64, &ReadPurpose)> = self.pending_reads.iter().collect();
        reads.sort_by_key(|(&key, _)| key);
        Json::obj([
            ("flows", self.flows.state_to_json()),
            ("operands", self.operands.state_to_json()),
            (
                "stalled",
                Json::Arr(
                    self.stalled
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("ctx", s.ctx.state_to_json()),
                                ("src1", Json::hex_u64(s.src1.as_u64())),
                                ("src2", Json::hex_u64(s.src2.as_u64())),
                                ("stalled_since", Json::from(s.stalled_since)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "pending_reads",
                Json::Arr(
                    reads
                        .into_iter()
                        .map(|(&key, purpose)| {
                            Json::obj([
                                ("key", Json::hex_u64(key)),
                                ("purpose", purpose.state_to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "alu_queue",
                Json::Arr(
                    self.alu_queue
                        .state_entries()
                        .into_iter()
                        .map(|(at, op)| {
                            Json::obj([
                                ("at", Json::from(at)),
                                ("ctx", op.ctx.state_to_json()),
                                ("src1", Json::hex_f64(op.src1)),
                                ("src2", Json::hex_f64(op.src2)),
                                ("slot", opt_index_to_json(op.slot)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("pending_output", self.pending_output.state_to_json()),
            ("next_access_id", Json::from(self.next_access_id)),
            ("next_packet_seq", Json::from(self.next_packet_seq)),
            ("stats", self.stats.state_to_json()),
        ])
    }

    /// Restores dynamic state onto a freshly constructed engine.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed or inconsistent
    /// with this engine's configuration (the flow table and operand pool
    /// perform their own validation), when an outstanding read or ALU
    /// operation names an operand slot the restored pool does not hold, or
    /// when a flow's port, parent or child, a remote read's requester or an
    /// output packet's source, destination or compute cube is not a node of
    /// the topology.
    pub fn load_state(&mut self, doc: &Json) -> Result<(), JsonError> {
        self.flows.load_state(doc.req("flows")?)?;
        // Gathers route to a flow's parent and children; a flow's port names
        // the host port whose tree it belongs to.
        for entry in self.flows.iter() {
            let flow = entry.flow;
            self.topology.check_node(NetNode::Host(flow.port), || format!("{flow} port"))?;
            self.topology.check_node(entry.parent, || format!("{flow} parent"))?;
            for &child in &entry.children {
                self.topology.check_node(child, || format!("{flow} child"))?;
            }
        }
        self.operands.load_state(doc.req("operands")?)?;
        self.stalled.clear();
        for entry in doc.req_array("stalled")? {
            self.stalled.push_back(StalledUpdate {
                ctx: UpdateContext::state_from_json(entry.req("ctx")?)?,
                src1: Addr::new(entry.req_hex_u64("src1")?),
                src2: Addr::new(entry.req_hex_u64("src2")?),
                stalled_since: entry.req_u64("stalled_since")?,
            });
        }
        self.pending_reads.clear();
        for entry in doc.req_array("pending_reads")? {
            let key = entry.req_hex_u64("key")?;
            let purpose = ReadPurpose::state_from_json(entry.req("purpose")?)?;
            if let ReadPurpose::RemoteOperand { requester, .. } = purpose {
                self.topology.check_node(requester, || "remote read requester".to_string())?;
            }
            if self.pending_reads.insert(key, purpose).is_some() {
                return Err(JsonError::state("duplicate pending-read key in engine state"));
            }
        }
        self.alu_queue = LatencyQueue::new();
        for entry in doc.req_array("alu_queue")? {
            self.alu_queue.push_at(
                entry.req_u64("at")?,
                AluOp {
                    ctx: UpdateContext::state_from_json(entry.req("ctx")?)?,
                    src1: entry.req_hex_f64("src1")?,
                    src2: entry.req_hex_f64("src2")?,
                    slot: opt_index_from_json(entry, "slot")?,
                },
            );
        }
        // The first commit or operand arrival indexes the operand pool with
        // these slots, so each must name an entry the restored pool holds.
        let local_slots = self.pending_reads.values().filter_map(|purpose| match purpose {
            ReadPurpose::LocalOperand { slot, .. } => *slot,
            ReadPurpose::RemoteOperand { .. } => None,
        });
        let alu_slots = self.alu_queue.state_entries().into_iter().filter_map(|(_, op)| op.slot);
        if let Some(index) =
            local_slots.chain(alu_slots).find(|&index| self.operands.get(index).is_none())
        {
            return Err(JsonError::state(format!(
                "operand slot {index} is out of range or free in the restored operand pool"
            )));
        }
        self.pending_output = AreOutput::state_from_json(doc.req("pending_output")?)?;
        for packet in &self.pending_output.packets {
            self.topology.check_packet(packet)?;
        }
        self.next_access_id = doc.req_u64("next_access_id")?;
        self.next_packet_seq = doc.req_u64("next_packet_seq")?;
        self.stats = AreStats::state_from_json(doc.req("stats")?)?;
        Ok(())
    }

    fn record_latency(&mut self, now: Cycle, ctx: &UpdateContext) {
        let request = ctx.arrived_at.saturating_sub(ctx.issued_at);
        let stall = ctx.requested_at.saturating_sub(ctx.arrived_at);
        let response = now.saturating_sub(ctx.requested_at);
        self.stats.latency_samples += 1;
        self.stats.request_latency_sum += request;
        self.stats.stall_latency_sum += stall;
        self.stats.response_latency_sum += response;
    }
}

impl Component for ActiveRoutingEngine {
    fn next_wake(&self, now: Cycle) -> NextWake {
        // Stalled updates retry (and accrue stall statistics) every cycle;
        // otherwise the next ALU completion is the next internal event.
        // Packet handling and vault-read completions are external stimuli:
        // the caller re-arms the engine after delivering them.
        if !self.stalled.is_empty() {
            NextWake::At(now + 1)
        } else {
            NextWake::from_next(self.alu_queue.next_ready_at())
        }
    }

    fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
        // Append straight into the pending output — no per-wake allocation.
        let mut out = std::mem::take(&mut self.pending_output);
        self.tick_into(now, &mut out);
        self.pending_output = out;
        self.next_wake(now)
    }
}

/// Key used to match an OperandResp back to the update that requested it.
/// Remote fetches are keyed in the same map as local vault reads; the top bit
/// separates the two namespaces.
fn remote_key(update_id: u64, which: u8) -> u64 {
    (1 << 63) | (update_id << 1) | u64::from(which & 1)
}

fn op_to_json(op: ReduceOp) -> Json {
    Json::from(op.to_string())
}

fn op_from_json(doc: &Json, key: &str) -> Result<ReduceOp, JsonError> {
    let name = doc.req_str(key)?;
    ReduceOp::from_name(name).ok_or_else(|| JsonError::state(format!("unknown reduce op {name:?}")))
}

fn opt_f64_to_json(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::hex_f64)
}

fn opt_f64_from_json(doc: &Json, key: &str) -> Result<Option<f64>, JsonError> {
    match doc.req(key)? {
        Json::Null => Ok(None),
        v => v.as_hex_f64().map(Some).ok_or_else(|| {
            JsonError::state(format!("field {key:?} is not an f64 bit pattern or null"))
        }),
    }
}

/// Decodes an operand position, which [`OperandEntry::record`] only accepts
/// as 0 or 1.
///
/// [`OperandEntry::record`]: crate::operand::OperandEntry::record
fn which_from_json(doc: &Json) -> Result<u8, JsonError> {
    match doc.req_u32("which")? {
        which @ (0 | 1) => Ok(which as u8),
        other => Err(JsonError::state(format!("operand position {other} is not 0 or 1"))),
    }
}

fn opt_index_to_json(v: Option<usize>) -> Json {
    v.map_or(Json::Null, Json::from)
}

fn opt_index_from_json(doc: &Json, key: &str) -> Result<Option<usize>, JsonError> {
    match doc.req(key)? {
        Json::Null => Ok(None),
        v => v
            .as_u64()
            .map(|i| Some(i as usize))
            .ok_or_else(|| JsonError::state(format!("field {key:?} is not an index or null"))),
    }
}

impl UpdateContext {
    fn state_to_json(&self) -> Json {
        Json::obj([
            ("flow", self.flow.state_to_json()),
            ("op", op_to_json(self.op)),
            ("update_id", Json::hex_u64(self.update_id)),
            ("issued_at", Json::from(self.issued_at)),
            ("arrived_at", Json::from(self.arrived_at)),
            ("requested_at", Json::from(self.requested_at)),
            ("target", Json::hex_u64(self.target.as_u64())),
            ("imm", opt_f64_to_json(self.imm)),
            ("tracked", Json::from(self.tracked)),
        ])
    }

    fn state_from_json(doc: &Json) -> Result<UpdateContext, JsonError> {
        Ok(UpdateContext {
            flow: FlowId::state_from_json(doc.req("flow")?)?,
            op: op_from_json(doc, "op")?,
            update_id: doc.req_hex_u64("update_id")?,
            issued_at: doc.req_u64("issued_at")?,
            arrived_at: doc.req_u64("arrived_at")?,
            requested_at: doc.req_u64("requested_at")?,
            target: Addr::new(doc.req_hex_u64("target")?),
            imm: opt_f64_from_json(doc, "imm")?,
            tracked: doc.req_bool("tracked")?,
        })
    }
}

impl ReadPurpose {
    fn state_to_json(&self) -> Json {
        match self {
            ReadPurpose::LocalOperand { ctx, slot, which } => Json::obj([
                ("t", Json::from("local")),
                ("ctx", ctx.state_to_json()),
                ("slot", opt_index_to_json(*slot)),
                ("which", Json::from(u64::from(*which))),
            ]),
            ReadPurpose::RemoteOperand { requester, flow, slot, which, update_id, op } => {
                let slot = slot.map_or(Json::Null, |s| {
                    Json::obj([
                        ("cube", Json::from(s.cube.index())),
                        ("index", Json::from(s.index)),
                    ])
                });
                Json::obj([
                    ("t", Json::from("remote")),
                    ("requester", requester.state_to_json()),
                    ("flow", flow.state_to_json()),
                    ("slot", slot),
                    ("which", Json::from(u64::from(*which))),
                    ("update_id", Json::hex_u64(*update_id)),
                    ("op", op_to_json(*op)),
                ])
            }
        }
    }

    fn state_from_json(doc: &Json) -> Result<ReadPurpose, JsonError> {
        match doc.req_str("t")? {
            "local" => Ok(ReadPurpose::LocalOperand {
                ctx: UpdateContext::state_from_json(doc.req("ctx")?)?,
                slot: opt_index_from_json(doc, "slot")?,
                which: which_from_json(doc)?,
            }),
            "remote" => {
                let slot = match doc.req("slot")? {
                    Json::Null => None,
                    s => Some(OperandSlot {
                        cube: CubeId::new(s.req_usize("cube")?),
                        index: s.req_usize("index")?,
                    }),
                };
                Ok(ReadPurpose::RemoteOperand {
                    requester: NetNode::state_from_json(doc.req("requester")?)?,
                    flow: FlowId::state_from_json(doc.req("flow")?)?,
                    slot,
                    which: which_from_json(doc)?,
                    update_id: doc.req_hex_u64("update_id")?,
                    op: op_from_json(doc, "op")?,
                })
            }
            other => Err(JsonError::state(format!("unknown read purpose tag {other:?}"))),
        }
    }
}

impl VaultAccess {
    /// Serializes the access for checkpointed state.
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            ("id", Json::hex_u64(self.id)),
            ("addr", Json::hex_u64(self.addr.as_u64())),
            ("write_value", opt_f64_to_json(self.write_value)),
        ])
    }

    /// Decodes an access produced by [`VaultAccess::state_to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn state_from_json(doc: &Json) -> Result<VaultAccess, JsonError> {
        Ok(VaultAccess {
            id: doc.req_hex_u64("id")?,
            addr: Addr::new(doc.req_hex_u64("addr")?),
            write_value: opt_f64_from_json(doc, "write_value")?,
        })
    }
}

impl AreOutput {
    /// Serializes the output lists for checkpointed state.
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            ("packets", Json::Arr(self.packets.iter().map(Packet::state_to_json).collect())),
            (
                "vault_accesses",
                Json::Arr(self.vault_accesses.iter().map(VaultAccess::state_to_json).collect()),
            ),
        ])
    }

    /// Decodes an output produced by [`AreOutput::state_to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn state_from_json(doc: &Json) -> Result<AreOutput, JsonError> {
        let mut out = AreOutput::default();
        for packet in doc.req_array("packets")? {
            out.packets.push(Packet::state_from_json(packet)?);
        }
        for access in doc.req_array("vault_accesses")? {
            out.vault_accesses.push(VaultAccess::state_from_json(access)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_types::ids::{PortId, ThreadId};

    const PAGE: u64 = 4096;

    fn topo() -> DragonflyTopology {
        DragonflyTopology::paper()
    }

    fn map() -> AddressMap {
        AddressMap::default()
    }

    fn engine(cube: usize) -> ActiveRoutingEngine {
        ActiveRoutingEngine::new(CubeId::new(cube), &AreConfig::default(), topo(), map())
    }

    fn flow(target: u64) -> FlowId {
        FlowId::new(target, PortId::new(0))
    }

    fn update_packet(
        to_cube: usize,
        flow_id: FlowId,
        op: ReduceOp,
        src1: u64,
        src2: Option<u64>,
        compute: usize,
        update_id: u64,
    ) -> Packet {
        Packet::new(
            update_id,
            NetNode::Host(PortId::new(0)),
            NetNode::Cube(CubeId::new(to_cube)),
            PacketKind::Active(ActiveKind::Update {
                flow: flow_id,
                op,
                src1: Addr::new(src1),
                src2: src2.map(Addr::new),
                imm: None,
                compute_cube: CubeId::new(compute),
                thread: ThreadId::new(0),
                update_id,
                issued_at: 0,
            }),
            0,
        )
    }

    fn gather_packet(to_cube: usize, flow_id: FlowId, op: ReduceOp, expected: u32) -> Packet {
        Packet::new(
            9999,
            NetNode::Host(PortId::new(0)),
            NetNode::Cube(CubeId::new(to_cube)),
            PacketKind::Active(ActiveKind::GatherReq {
                flow: flow_id,
                op,
                expected_at_root: expected,
                thread: ThreadId::new(0),
            }),
            0,
        )
    }

    /// Runs the engine until its ALU/stall queues drain, feeding vault reads
    /// back with values from `mem`, and returns all packets it emitted.
    fn run_engine(
        eng: &mut ActiveRoutingEngine,
        mut pending: Vec<AreOutput>,
        mem: &dyn Fn(Addr) -> f64,
        cycles: u64,
    ) -> Vec<Packet> {
        let mut packets = Vec::new();
        for now in 1..cycles {
            let mut outs = std::mem::take(&mut pending);
            outs.push(eng.tick(now));
            let mut next = Vec::new();
            for out in outs {
                packets.extend(out.packets);
                for access in out.vault_accesses {
                    if access.write_value.is_none() {
                        next.push(eng.complete_vault_read(now, access.id, mem(access.addr)));
                    }
                }
            }
            pending = next;
        }
        packets
    }

    #[test]
    fn single_operand_local_update_commits_into_flow_result() {
        // Cube 0 owns page 0; a Sum update on an address in page 0 computes
        // locally and accumulates into the flow entry.
        let mut eng = engine(0);
        let f = flow(0x40);
        let out = eng.handle_packet(0, update_packet(0, f, ReduceOp::Sum, 0x80, None, 0, 1));
        assert_eq!(out.packets.len(), 0);
        assert_eq!(out.vault_accesses.len(), 1);
        assert!(!out.vault_accesses[0].is_write());
        let packets = run_engine(&mut eng, vec![out], &|_| 2.5, 20);
        assert!(packets.is_empty(), "no gather yet, nothing should leave the cube");
        let entry = eng.flows().get(&f).expect("flow registered");
        assert_eq!(entry.req_counter, 1);
        assert_eq!(entry.resp_counter, 1);
        assert!((entry.result - 2.5).abs() < 1e-12);
        assert_eq!(eng.stats().updates_computed, 1);
        assert_eq!(eng.stats().operand_reads_local, 1);
    }

    #[test]
    fn update_not_for_this_cube_is_forwarded_towards_compute_cube() {
        // Cube 0 receives an update whose compute cube is 9 (different group):
        // it must register the flow, record a child and forward one hop.
        let mut eng = engine(0);
        let f = flow(0x40);
        let out = eng.handle_packet(0, update_packet(0, f, ReduceOp::Sum, 9 * PAGE, None, 9, 7));
        assert_eq!(out.packets.len(), 1);
        let fwd = &out.packets[0];
        assert_eq!(fwd.src, NetNode::Cube(CubeId::new(0)));
        let next = topo().next_hop(NetNode::Cube(CubeId::new(0)), NetNode::Cube(CubeId::new(9)));
        assert_eq!(fwd.dst, next);
        let entry = eng.flows().get(&f).unwrap();
        assert_eq!(entry.req_counter, 1);
        assert!(entry.children.contains(&next));
        assert_eq!(eng.stats().updates_forwarded, 1);
        assert_eq!(eng.stats().updates_computed, 0);
    }

    #[test]
    fn two_operand_update_with_remote_operand_sends_operand_request() {
        // Compute at cube 0; src1 in cube 0, src2 in cube 1: one local read
        // plus one OperandReq packet to cube 1.
        let mut eng = engine(0);
        let f = flow(0x40);
        let out = eng
            .handle_packet(0, update_packet(0, f, ReduceOp::Mac, 0x100, Some(PAGE + 0x100), 0, 3));
        assert_eq!(out.vault_accesses.len(), 1);
        assert_eq!(out.packets.len(), 1);
        match &out.packets[0].kind {
            PacketKind::Active(ActiveKind::OperandReq { addr, which, .. }) => {
                assert_eq!(*addr, Addr::new(PAGE + 0x100));
                assert_eq!(*which, 1);
            }
            other => panic!("expected OperandReq, got {other:?}"),
        }
        assert_eq!(out.packets[0].dst, NetNode::Cube(CubeId::new(1)));
        assert_eq!(eng.stats().operand_reads_remote, 1);
    }

    #[test]
    fn remote_operand_request_is_served_and_answered() {
        // Cube 1 receives an OperandReq from cube 0: it reads its vault and
        // replies with an OperandResp carrying the value.
        let mut eng = engine(1);
        let req = Packet::new(
            11,
            NetNode::Cube(CubeId::new(0)),
            NetNode::Cube(CubeId::new(1)),
            PacketKind::Active(ActiveKind::OperandReq {
                flow: flow(0x40),
                slot: Some(OperandSlot { cube: CubeId::new(0), index: 0 }),
                addr: Addr::new(PAGE + 0x200),
                which: 1,
                update_id: 3,
                op: ReduceOp::Mac,
            }),
            0,
        );
        let out = eng.handle_packet(0, req);
        assert_eq!(out.vault_accesses.len(), 1);
        let resp = eng.complete_vault_read(5, out.vault_accesses[0].id, 4.0);
        assert_eq!(resp.packets.len(), 1);
        assert_eq!(resp.packets[0].dst, NetNode::Cube(CubeId::new(0)));
        match &resp.packets[0].kind {
            PacketKind::Active(ActiveKind::OperandResp { value, which, update_id, .. }) => {
                assert_eq!(*value, 4.0);
                assert_eq!(*which, 1);
                assert_eq!(*update_id, 3);
            }
            other => panic!("expected OperandResp, got {other:?}"),
        }
        assert_eq!(eng.stats().operands_served, 1);
        assert!(eng.is_idle());
    }

    #[test]
    fn mac_update_completes_when_both_operands_arrive() {
        let mut eng = engine(0);
        let f = flow(0x40);
        let out = eng
            .handle_packet(0, update_packet(0, f, ReduceOp::Mac, 0x100, Some(PAGE + 0x100), 0, 3));
        // Complete the local read (operand 0 = 3.0).
        let local_id = out.vault_accesses[0].id;
        let _ = eng.complete_vault_read(1, local_id, 3.0);
        // Deliver the remote operand response (operand 1 = 4.0).
        let resp = Packet::new(
            12,
            NetNode::Cube(CubeId::new(1)),
            NetNode::Cube(CubeId::new(0)),
            PacketKind::Active(ActiveKind::OperandResp {
                flow: f,
                slot: Some(OperandSlot { cube: CubeId::new(0), index: 0 }),
                which: 1,
                value: 4.0,
                update_id: 3,
                op: ReduceOp::Mac,
            }),
            2,
        );
        let _ = eng.handle_packet(2, resp);
        let _ = run_engine(&mut eng, Vec::new(), &|_| 0.0, 20);
        let entry = eng.flows().get(&f).unwrap();
        assert!((entry.result - 12.0).abs() < 1e-12);
        assert_eq!(entry.resp_counter, 1);
        assert_eq!(eng.operand_pool().in_use(), 0, "buffer entry must be released");
        assert!(eng.stats().latency_samples == 1);
    }

    #[test]
    fn operand_buffer_exhaustion_stalls_and_recovers() {
        let cfg = AreConfig { operand_buffers: 1, ..AreConfig::default() };
        let mut eng = ActiveRoutingEngine::new(CubeId::new(0), &cfg, topo(), map());
        let f = flow(0x40);
        let mut outs = Vec::new();
        for i in 0..4u64 {
            outs.push(eng.handle_packet(
                0,
                update_packet(0, f, ReduceOp::Mac, 0x100 + i * 64, Some(0x800 + i * 64), 0, i),
            ));
        }
        assert!(eng.stats().operand_buffer_stall_cycles == 0);
        let _ = run_engine(&mut eng, outs, &|_| 1.0, 100);
        let entry = eng.flows().get(&f).unwrap();
        assert_eq!(entry.req_counter, 4);
        assert_eq!(entry.resp_counter, 4);
        assert!((entry.result - 4.0).abs() < 1e-12, "4 × (1.0 * 1.0)");
        assert!(eng.stats().operand_buffer_stall_cycles > 0, "stalls must be recorded");
        assert!(eng.is_quiescent());
    }

    #[test]
    fn gather_after_local_completion_replies_to_parent_and_releases_flow() {
        let mut eng = engine(0);
        let f = flow(0x40);
        let out = eng.handle_packet(0, update_packet(0, f, ReduceOp::Sum, 0x80, None, 0, 1));
        let _ = run_engine(&mut eng, vec![out], &|_| 5.0, 20);
        let out = eng.handle_packet(30, gather_packet(0, f, ReduceOp::Sum, 1));
        assert_eq!(out.packets.len(), 1);
        match &out.packets[0].kind {
            PacketKind::Active(ActiveKind::GatherResp { value, updates, .. }) => {
                assert!((value - 5.0).abs() < 1e-12);
                assert_eq!(*updates, 1);
            }
            other => panic!("expected GatherResp, got {other:?}"),
        }
        assert_eq!(out.packets[0].dst, NetNode::Host(PortId::new(0)));
        assert!(eng.flows().is_empty(), "flow entry must be released");
        assert!(eng.is_idle());
    }

    #[test]
    fn gather_before_commit_waits_for_processing_to_finish() {
        let mut eng = engine(0);
        let f = flow(0x40);
        let out = eng.handle_packet(0, update_packet(0, f, ReduceOp::Sum, 0x80, None, 0, 1));
        // Gather arrives while the operand read is still outstanding.
        let g = eng.handle_packet(1, gather_packet(0, f, ReduceOp::Sum, 1));
        assert!(g.packets.is_empty(), "must not respond before the update commits");
        // Now the operand arrives and the commit triggers the response.
        let _ = eng.complete_vault_read(2, out.vault_accesses[0].id, 7.0);
        let packets = run_engine(&mut eng, Vec::new(), &|_| 0.0, 20);
        assert_eq!(packets.len(), 1);
        match &packets[0].kind {
            PacketKind::Active(ActiveKind::GatherResp { value, .. }) => {
                assert!((value - 7.0).abs() < 1e-12)
            }
            other => panic!("expected GatherResp, got {other:?}"),
        }
    }

    #[test]
    fn gather_request_is_replicated_to_children() {
        // Cube 0 forwarded updates towards cube 9: it has a child. The gather
        // must be replicated to that child and only answered after the child's
        // response arrives.
        let mut eng = engine(0);
        let f = flow(0x40);
        let fwd = eng.handle_packet(0, update_packet(0, f, ReduceOp::Sum, 9 * PAGE, None, 9, 7));
        let child = fwd.packets[0].dst;
        let out = eng.handle_packet(10, gather_packet(0, f, ReduceOp::Sum, 1));
        assert_eq!(out.packets.len(), 1, "gather replicated to the child only");
        assert_eq!(out.packets[0].dst, child);
        // Child's subtree finishes with value 20 over 1 update.
        let resp = Packet::new(
            99,
            child,
            NetNode::Cube(CubeId::new(0)),
            PacketKind::Active(ActiveKind::GatherResp { flow: f, value: 20.0, updates: 1 }),
            20,
        );
        let done = eng.handle_packet(20, resp);
        assert_eq!(done.packets.len(), 1);
        match &done.packets[0].kind {
            PacketKind::Active(ActiveKind::GatherResp { value, updates, .. }) => {
                assert!((value - 20.0).abs() < 1e-12);
                assert_eq!(*updates, 1);
            }
            other => panic!("expected GatherResp, got {other:?}"),
        }
        assert!(eng.flows().is_empty());
    }

    #[test]
    fn gather_barrier_waits_for_expected_arrivals() {
        let mut eng = engine(0);
        let f = flow(0x40);
        let out = eng.handle_packet(0, update_packet(0, f, ReduceOp::Sum, 0x80, None, 0, 1));
        let _ = run_engine(&mut eng, vec![out], &|_| 1.0, 20);
        // Two threads participate: the first gather must not trigger the
        // reduction.
        let g1 = eng.handle_packet(30, gather_packet(0, f, ReduceOp::Sum, 2));
        assert!(g1.packets.is_empty());
        let g2 = eng.handle_packet(31, gather_packet(0, f, ReduceOp::Sum, 2));
        assert_eq!(g2.packets.len(), 1);
    }

    #[test]
    fn gather_for_unknown_flow_returns_identity() {
        // A tree port that never saw updates of the flow must still answer the
        // gather with the identity element so the host-side merge is neutral.
        let mut eng = engine(0);
        let f = flow(0x77);
        let out = eng.handle_packet(0, gather_packet(0, f, ReduceOp::Sum, 1));
        assert_eq!(out.packets.len(), 1);
        match &out.packets[0].kind {
            PacketKind::Active(ActiveKind::GatherResp { value, updates, .. }) => {
                assert_eq!(*value, 0.0);
                assert_eq!(*updates, 0);
            }
            other => panic!("expected GatherResp, got {other:?}"),
        }
    }

    #[test]
    fn const_assign_writes_immediate_without_flow_state() {
        let mut eng = engine(0);
        let target = 0x40u64;
        let pkt = Packet::new(
            1,
            NetNode::Host(PortId::new(0)),
            NetNode::Cube(CubeId::new(0)),
            PacketKind::Active(ActiveKind::Update {
                flow: flow(target),
                op: ReduceOp::ConstAssign,
                src1: Addr::new(target),
                src2: None,
                imm: Some(0.15),
                compute_cube: CubeId::new(0),
                thread: ThreadId::new(0),
                update_id: 1,
                issued_at: 0,
            }),
            0,
        );
        let out = eng.handle_packet(0, pkt);
        assert_eq!(out.vault_accesses.len(), 1);
        assert_eq!(out.vault_accesses[0].write_value, Some(0.15));
        assert!(eng.flows().is_empty(), "const_assign must not register a flow");
        let _ = run_engine(&mut eng, Vec::new(), &|_| 0.0, 10);
        assert!(eng.is_idle());
        assert_eq!(eng.stats().memory_writes, 1);
    }

    #[test]
    fn mov_update_reads_source_and_writes_target() {
        let mut eng = engine(0);
        let target = 0x40u64;
        let pkt = Packet::new(
            1,
            NetNode::Host(PortId::new(0)),
            NetNode::Cube(CubeId::new(0)),
            PacketKind::Active(ActiveKind::Update {
                flow: flow(target),
                op: ReduceOp::Mov,
                src1: Addr::new(0x200),
                src2: None,
                imm: None,
                compute_cube: CubeId::new(0),
                thread: ThreadId::new(0),
                update_id: 1,
                issued_at: 0,
            }),
            0,
        );
        let out = eng.handle_packet(0, pkt);
        assert_eq!(out.vault_accesses.len(), 1);
        assert!(!out.vault_accesses[0].is_write());
        let after = eng.complete_vault_read(1, out.vault_accesses[0].id, 3.25);
        assert!(after.vault_accesses.is_empty(), "write happens at commit, not arrival");
        // Run the ALU to commit the mov and emit the write.
        let mut write = None;
        for now in 2..20 {
            let out = eng.tick(now);
            for a in out.vault_accesses {
                write = Some(a);
            }
        }
        let write = write.expect("mov must write its target");
        assert_eq!(write.addr, Addr::new(target));
        assert_eq!(write.write_value, Some(3.25));
    }

    #[test]
    fn latency_breakdown_components_are_recorded() {
        let mut eng = engine(0);
        let f = flow(0x40);
        let pkt = update_packet(0, f, ReduceOp::Sum, 0x80, None, 0, 1);
        // Pretend the MI injected the update at cycle 0 but it only reached
        // the cube at cycle 50: request latency must be ~50.
        let out = eng.handle_packet(50, pkt);
        let _ = eng.complete_vault_read(80, out.vault_accesses[0].id, 1.0);
        let _ = run_engine(&mut eng, Vec::new(), &|_| 0.0, 100);
        let stats = eng.stats();
        assert_eq!(stats.latency_samples, 1);
        assert!(stats.mean_request_latency() >= 50.0);
        assert!(stats.mean_response_latency() >= 29.0);
        assert_eq!(stats.mean_stall_latency(), 0.0);
    }

    #[test]
    fn state_json_round_trip_resumes_identically() {
        // Capture an engine mid-flight: a stalled two-operand update (pool of
        // one), outstanding local and remote operand fetches, ALU work in the
        // pipe and live flow state. The restored engine must emit the same
        // packet trace and finish with identical stats.
        let cfg = AreConfig { operand_buffers: 1, ..AreConfig::default() };
        let mut eng = ActiveRoutingEngine::new(CubeId::new(0), &cfg, topo(), map());
        let f = flow(0x40);
        let mut outs = Vec::new();
        // Two MAC updates on a one-entry pool: the second stalls.
        for i in 0..2u64 {
            outs.push(eng.handle_packet(
                0,
                update_packet(0, f, ReduceOp::Mac, 0x100 + i * 64, Some(0x800 + i * 64), 0, i),
            ));
        }
        // A MAC with a remote src2: leaves a remote pending read.
        outs.push(
            eng.handle_packet(0, update_packet(0, f, ReduceOp::Mac, 0x300, Some(PAGE), 0, 7)),
        );
        // An operand served for another cube: leaves a remote-purpose read.
        let req = Packet::new(
            11,
            NetNode::Cube(CubeId::new(1)),
            NetNode::Cube(CubeId::new(0)),
            PacketKind::Active(ActiveKind::OperandReq {
                flow: f,
                slot: Some(OperandSlot { cube: CubeId::new(1), index: 0 }),
                addr: Addr::new(0x700),
                which: 0,
                update_id: 40,
                op: ReduceOp::Mac,
            }),
            0,
        );
        outs.push(eng.handle_packet(0, req));
        assert!(!eng.is_quiescent(), "snapshot must capture in-flight work");
        let doc = Json::parse(&eng.state_to_json().render()).unwrap();
        let mut restored = ActiveRoutingEngine::new(CubeId::new(0), &cfg, topo(), map());
        restored.load_state(&doc).unwrap();
        assert_eq!(eng.next_wake(0), restored.next_wake(0));
        // Drive both forward with identical stimuli and compare everything
        // they emit. Collect the outstanding reads once (same ids in both).
        let reads: Vec<VaultAccess> = outs
            .iter()
            .flat_map(|o| o.vault_accesses.iter().copied())
            .filter(|a| !a.is_write())
            .collect();
        for access in &reads {
            let a = eng.complete_vault_read(1, access.id, 2.0);
            let b = restored.complete_vault_read(1, access.id, 2.0);
            assert_eq!(a, b, "divergent read completion for access {}", access.id);
        }
        for now in 2..200 {
            let a = eng.tick(now);
            let b = restored.tick(now);
            assert_eq!(a, b, "divergent tick at cycle {now}");
            // Answer newly issued reads and remote operand requests
            // identically in both engines.
            for acc in a.vault_accesses.iter().filter(|acc| !acc.is_write()) {
                let ra = eng.complete_vault_read(now, acc.id, 3.0);
                let rb = restored.complete_vault_read(now, acc.id, 3.0);
                assert_eq!(ra, rb);
            }
            for packet in &a.packets {
                let PacketKind::Active(ActiveKind::OperandReq {
                    flow,
                    slot,
                    which,
                    update_id,
                    op,
                    ..
                }) = packet.kind
                else {
                    continue;
                };
                let resp = Packet::new(
                    500 + update_id,
                    packet.dst,
                    packet.src,
                    PacketKind::Active(ActiveKind::OperandResp {
                        flow,
                        slot,
                        which,
                        value: 5.0,
                        update_id,
                        op,
                    }),
                    now,
                );
                let ra = eng.handle_packet(now, resp.clone());
                let rb = restored.handle_packet(now, resp);
                assert_eq!(ra, rb);
            }
        }
        assert_eq!(eng.stats(), restored.stats());
        assert_eq!(eng.flows().len(), restored.flows().len());
        assert_eq!(eng.operand_pool().in_use(), restored.operand_pool().in_use());
        assert!(eng.is_quiescent() && restored.is_quiescent());
        // A forged tag must be rejected, never silently mis-restored.
        let hostile = Json::parse(&doc.render().replace("\"local\"", "\"teleport\"")).unwrap();
        let mut fresh = ActiveRoutingEngine::new(CubeId::new(0), &cfg, topo(), map());
        assert!(fresh.load_state(&hostile).is_err());
        // So must an operand position `OperandEntry::record` cannot take.
        let rendered = doc.render();
        assert!(rendered.contains("\"which\":0"), "a pending read records its operand position");
        let hostile = Json::parse(&rendered.replacen("\"which\":0", "\"which\":7", 1)).unwrap();
        let mut fresh = ActiveRoutingEngine::new(CubeId::new(0), &cfg, topo(), map());
        assert!(fresh.load_state(&hostile).is_err());
    }

    #[test]
    fn load_state_rejects_nodes_outside_the_topology() {
        // Cube 0 serves an operand for cube 1, which leaves a remote-purpose
        // read. Each case puts one node id the paper topology (16 cubes, 4
        // host ports) lacks into the snapshot: the read's requester, a field
        // of a packet waiting in the engine's output, or a flow entry's
        // parent, child or port.
        let mut eng = engine(0);
        let req = Packet::new(
            11,
            NetNode::Cube(CubeId::new(1)),
            NetNode::Cube(CubeId::new(0)),
            PacketKind::Active(ActiveKind::OperandReq {
                flow: flow(0x40),
                slot: Some(OperandSlot { cube: CubeId::new(1), index: 0 }),
                addr: Addr::new(0x700),
                which: 0,
                update_id: 40,
                op: ReduceOp::Mac,
            }),
            0,
        );
        eng.handle_packet(0, req);
        let good = update_packet(9, flow(0x40), ReduceOp::Sum, 0x80, None, 9, 3);
        let output_with = |packet: Packet| {
            let output = Json::obj([
                ("packets", Json::arr([packet.state_to_json()])),
                ("vault_accesses", Json::Arr(Vec::new())),
            ]);
            Some(("pending_output", output))
        };
        let flows_with = |port: usize, parent: NetNode, child: Option<NetNode>| {
            let mut table = FlowTable::new(1);
            let id = FlowId::new(0x40, PortId::new(port));
            table.entry_or_register(id, ReduceOp::Sum, parent).children.extend(child);
            Some(("flows", table.state_to_json()))
        };
        let host = NetNode::Host(PortId::new(0));
        let cube99 = NetNode::Cube(CubeId::new(99));
        let cases = [
            ("requester", None, "remote read requester cube16"),
            (
                "src",
                output_with(Packet { src: NetNode::Host(PortId::new(4)), ..good.clone() }),
                "packet 0x3 src host-port4",
            ),
            ("dst", output_with(Packet { dst: cube99, ..good.clone() }), "packet 0x3 dst cube99"),
            (
                "compute_cube",
                output_with(update_packet(9, flow(0x40), ReduceOp::Sum, 0x80, None, 16, 3)),
                "packet 0x3 compute_cube cube16",
            ),
            ("parent", flows_with(0, cube99, None), "flow(0x40@port0) parent cube99"),
            ("children", flows_with(0, host, Some(cube99)), "flow(0x40@port0) child cube99"),
            ("port", flows_with(9, host, None), "flow(0x40@port9) port host-port9"),
        ];
        for (field, replaced, expected) in cases {
            let mut doc = eng.state_to_json();
            let Json::Obj(fields) = &mut doc else { panic!("engine state is an object") };
            for (key, value) in fields.iter_mut() {
                match &replaced {
                    Some((name, new)) if key == name => *value = new.clone(),
                    None if key == "pending_reads" => {
                        let rendered = value.render();
                        assert!(rendered.contains(r#""requester":{"cube":1}"#), "{rendered}");
                        *value = Json::parse(
                            &rendered
                                .replace(r#""requester":{"cube":1}"#, r#""requester":{"cube":16}"#),
                        )
                        .unwrap();
                    }
                    _ => {}
                }
            }
            let err = engine(0).load_state(&doc).unwrap_err().to_string();
            assert!(
                err.contains(&format!("{expected} is not a node of this topology")),
                "{field}: got {err}"
            );
        }
    }

    /// `AreOutput::merge_from` is the sharded kernel's outbox-combining
    /// primitive: merging per-cube outputs in ascending cube-index order
    /// must reproduce exactly the concatenation the serial per-cube loop
    /// emits — per list, in emission order, with nothing reordered across
    /// cube boundaries. (Same-cycle packets queue per link in merge order,
    /// so any permutation would change link-level FIFO order and the
    /// report; `System::step_hmc` debug-asserts the ascending order.) The
    /// merge borrows and drains its source in place — no clone, and the
    /// drained source keeps its buffers for recycling.
    #[test]
    fn merge_preserves_cube_index_emission_order() {
        // Three per-cube outputs with overlapping, interleavable content.
        let f = flow(0x40);
        let per_cube: Vec<AreOutput> = (0..3u64)
            .map(|c| AreOutput {
                packets: (0..2)
                    .map(|i| update_packet(5, f, ReduceOp::Sum, 0x80, None, 5, c * 10 + i))
                    .collect(),
                vault_accesses: (0..2)
                    .map(|i| VaultAccess {
                        id: c * 10 + i,
                        addr: Addr::new(0x1000 + (c * 10 + i) * 8),
                        write_value: None,
                    })
                    .collect(),
            })
            .collect();
        let mut merged = AreOutput::default();
        let mut sources = per_cube.clone();
        for out in &mut sources {
            let cap = out.packets.capacity();
            merged.merge_from(out);
            assert!(out.is_empty(), "merge_from drains its source in place");
            assert_eq!(out.packets.capacity(), cap, "a drained source keeps its buffers");
        }
        let serial: Vec<u64> =
            per_cube.iter().flat_map(|o| o.packets.iter().map(|p| p.id)).collect();
        assert_eq!(merged.packets.iter().map(|p| p.id).collect::<Vec<_>>(), serial);
        let serial_accesses: Vec<u64> =
            per_cube.iter().flat_map(|o| o.vault_accesses.iter().map(|a| a.id)).collect();
        assert_eq!(merged.vault_accesses.iter().map(|a| a.id).collect::<Vec<_>>(), serial_accesses);
        // Merging is deterministic: the same inputs merge to the same output.
        let mut again = AreOutput::default();
        let mut sources = per_cube.clone();
        for out in &mut sources {
            again.merge_from(out);
        }
        assert_eq!(again, merged);
        // And `clear` resets content but keeps the buffers.
        let cap = (merged.packets.capacity(), merged.vault_accesses.capacity());
        merged.clear();
        assert!(merged.is_empty());
        assert_eq!((merged.packets.capacity(), merged.vault_accesses.capacity()), cap);
    }
}
