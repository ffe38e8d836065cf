//! Packet-level model of the memory network.
//!
//! Every directed link of the dragonfly (including the host-port links) is a
//! bandwidth-limited, in-order channel; routers forward packets hop by hop
//! under minimal routing. Congestion therefore appears as queueing delay on
//! the oversubscribed links — exactly the effect that makes the static ART
//! scheme lose to the forest schemes in the paper (Section 5.2.2).

use crate::dragonfly::DragonflyTopology;
use ar_sim::{BandwidthLink, Component, NextWake, SchedCtx};
use ar_types::ids::{CubeId, NetNode, PortId};
use ar_types::json::{Json, JsonError};
use ar_types::packet::{ActiveKind, Packet, PacketKind};
use ar_types::pool::{PacketPool, PacketRef};
use ar_types::Cycle;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Aggregate traffic statistics of the memory network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets injected into the network.
    pub packets_injected: u64,
    /// Packets delivered to their destination.
    pub packets_delivered: u64,
    /// Total bytes injected (per packet, counted once).
    pub bytes_injected: u64,
    /// Sum over traversed links of packet bits (for the 5 pJ/bit/hop model).
    pub bit_hops: u64,
    /// Bytes of normal (non-active) request packets injected.
    pub norm_req_bytes: u64,
    /// Bytes of normal (non-active) response packets injected.
    pub norm_resp_bytes: u64,
    /// Bytes of active request packets (Update, operand request, gather
    /// request) injected.
    pub active_req_bytes: u64,
    /// Bytes of active response packets (operand response, gather response)
    /// injected.
    pub active_resp_bytes: u64,
    /// Sum of end-to-end packet latencies in network cycles.
    pub total_latency: u64,
}

impl NetworkStats {
    /// Serializes the statistics for checkpointed state.
    pub fn state_to_json(&self) -> Json {
        Json::obj([
            ("packets_injected", Json::from(self.packets_injected)),
            ("packets_delivered", Json::from(self.packets_delivered)),
            ("bytes_injected", Json::from(self.bytes_injected)),
            ("bit_hops", Json::from(self.bit_hops)),
            ("norm_req_bytes", Json::from(self.norm_req_bytes)),
            ("norm_resp_bytes", Json::from(self.norm_resp_bytes)),
            ("active_req_bytes", Json::from(self.active_req_bytes)),
            ("active_resp_bytes", Json::from(self.active_resp_bytes)),
            ("total_latency", Json::from(self.total_latency)),
        ])
    }

    /// Decodes statistics produced by [`NetworkStats::state_to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn state_from_json(doc: &Json) -> Result<NetworkStats, JsonError> {
        Ok(NetworkStats {
            packets_injected: doc.req_u64("packets_injected")?,
            packets_delivered: doc.req_u64("packets_delivered")?,
            bytes_injected: doc.req_u64("bytes_injected")?,
            bit_hops: doc.req_u64("bit_hops")?,
            norm_req_bytes: doc.req_u64("norm_req_bytes")?,
            norm_resp_bytes: doc.req_u64("norm_resp_bytes")?,
            active_req_bytes: doc.req_u64("active_req_bytes")?,
            active_resp_bytes: doc.req_u64("active_resp_bytes")?,
            total_latency: doc.req_u64("total_latency")?,
        })
    }

    /// Total bytes of off-chip data movement (normal + active).
    pub fn total_bytes(&self) -> u64 {
        self.norm_req_bytes + self.norm_resp_bytes + self.active_req_bytes + self.active_resp_bytes
    }

    /// Mean end-to-end packet latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.packets_delivered as f64
        }
    }
}

/// A packet on a link: its pool handle and its send order, which breaks ties
/// between packets that arrive in the same cycle on different links.
#[derive(Debug, Clone, Copy)]
struct Flight {
    sent: u64,
    packet: PacketRef,
}

/// One arrival-calendar entry: a busy link keyed by its head packet's
/// `(arrival cycle, send order)`. Send orders are unique, so entries never
/// tie.
type Head = Reverse<(Cycle, u64, u32)>;

/// The memory network: dragonfly topology + per-link channels + per-node
/// delivery queues.
///
/// The network is event-driven: [`MemoryNetwork::tick`] only touches the
/// links with arrivals due, and [`MemoryNetwork::next_wake`] reports the
/// next arrival so the system driver can sleep until then. Links live in a
/// dense table sorted by their `(from, to)` endpoints, and a first-hop table
/// built once from [`DragonflyTopology::next_hop`] maps every
/// `(node, destination)` pair to the index of its outgoing link, so a hop
/// costs two array reads. An idle link is never visited.
///
/// The arrival calendar holds one entry per *busy link*, not per packet.
/// A link is an in-order FIFO whose packets are sent in increasing send
/// order with non-decreasing arrival cycles, so its head is its earliest
/// `(arrival, send order)` and the calendar of heads pops packets in exactly
/// the global `(arrival, send order)` sequence a per-packet calendar would.
/// Popping a head re-keys the link on its next packet in place.
///
/// In-flight packets live in a [`PacketPool`]: a packet's bytes move into
/// the pool once at [`MemoryNetwork::inject`] and out once when popped at
/// its destination; in between, the link buffers and delivery queues only
/// move 8-byte [`PacketRef`] handles, and per-hop bandwidth charging reads
/// the pool's cached wire size. Pooling is placement-only — routing order,
/// stats and delivery order are identical to moving packets by value.
#[derive(Debug)]
pub struct MemoryNetwork {
    topology: DragonflyTopology,
    /// Storage for every in-flight packet; the queues below hold handles.
    pool: PacketPool,
    /// Every directed link of the topology, sorted by `ends`.
    links: Vec<BandwidthLink<Flight>>,
    /// The `(from, to)` endpoints of `links[i]`, sorted ascending.
    ends: Vec<(NetNode, NetNode)>,
    /// First-hop table: `route[node_slot(from) * nodes + node_slot(to)]` is
    /// the index into `links` of the link a packet at `from` bound for `to`
    /// leaves on (`u32::MAX` on the diagonal, where nothing is sent).
    route: Vec<u32>,
    delivered_cube: Vec<VecDeque<PacketRef>>,
    delivered_host: Vec<VecDeque<PacketRef>>,
    /// The arrival calendar: one [`Head`] per busy link.
    arrivals: BinaryHeap<Head>,
    /// Send order of the next packet put on a link.
    next_sent: u64,
    /// Arrival cycle of the most recently popped packet.
    last_arrival: Cycle,
    /// Packets sitting in a delivery queue, awaiting `pop_at_*`.
    delivered: usize,
    stats: NetworkStats,
    hop_latency: Cycle,
    link_bytes_per_cycle: u32,
}

impl MemoryNetwork {
    /// Builds the network for a topology with the given per-hop latency
    /// (router pipeline + wire) and per-link bandwidth.
    pub fn new(topology: DragonflyTopology, hop_latency: Cycle, link_bytes_per_cycle: u32) -> Self {
        let mut ends = topology.directed_links();
        ends.sort_unstable();
        let links =
            ends.iter().map(|_| BandwidthLink::new(hop_latency, link_bytes_per_cycle)).collect();
        let nodes: Vec<NetNode> = (0..topology.cubes())
            .map(|c| NetNode::Cube(CubeId::new(c)))
            .chain((0..topology.host_ports()).map(|p| NetNode::Host(PortId::new(p))))
            .collect();
        let mut route = Vec::with_capacity(nodes.len() * nodes.len());
        for &from in &nodes {
            for &to in &nodes {
                route.push(if from == to {
                    u32::MAX
                } else {
                    let next = topology.next_hop(from, to);
                    let link = ends
                        .binary_search(&(from, next))
                        .unwrap_or_else(|_| panic!("no link {from} -> {next}"));
                    link as u32
                });
            }
        }
        let delivered_cube = (0..topology.cubes()).map(|_| VecDeque::new()).collect();
        let delivered_host = (0..topology.host_ports()).map(|_| VecDeque::new()).collect();
        MemoryNetwork {
            topology,
            pool: PacketPool::new(),
            links,
            ends,
            route,
            delivered_cube,
            delivered_host,
            arrivals: BinaryHeap::new(),
            next_sent: 0,
            last_arrival: 0,
            delivered: 0,
            stats: NetworkStats::default(),
            hop_latency,
            link_bytes_per_cycle,
        }
    }

    /// The topology the network is built on.
    pub fn topology(&self) -> &DragonflyTopology {
        &self.topology
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Dense index of a node in the first-hop table: cubes first, then host
    /// ports.
    fn node_slot(&self, node: NetNode) -> usize {
        match node {
            NetNode::Cube(c) => c.index(),
            NetNode::Host(p) => self.topology.cubes() + p.index(),
        }
    }

    /// Index into `links` of the link a packet at `from` bound for `to`
    /// leaves on. `from` must differ from `to`.
    fn route_link(&self, from: NetNode, to: NetNode) -> usize {
        let nodes = self.topology.cubes() + self.topology.host_ports();
        self.route[self.node_slot(from) * nodes + self.node_slot(to)] as usize
    }

    /// Index into `links` of the link `from -> to`, if the topology has it.
    fn link_index(&self, from: NetNode, to: NetNode) -> Option<usize> {
        self.ends.binary_search(&(from, to)).ok()
    }

    fn classify(&mut self, packet: &Packet, bytes: u64) {
        match &packet.kind {
            PacketKind::ReadReq { .. } | PacketKind::WriteReq { .. } => {
                self.stats.norm_req_bytes += bytes;
            }
            PacketKind::ReadResp { .. } | PacketKind::WriteAck { .. } => {
                self.stats.norm_resp_bytes += bytes;
            }
            PacketKind::Active(a) => match a {
                ActiveKind::Update { .. }
                | ActiveKind::OperandReq { .. }
                | ActiveKind::GatherReq { .. } => self.stats.active_req_bytes += bytes,
                ActiveKind::OperandResp { .. } | ActiveKind::GatherResp { .. } => {
                    self.stats.active_resp_bytes += bytes;
                }
            },
        }
    }

    /// Injects a packet at its source node. The packet moves into the pool
    /// here and starts routing immediately (or is delivered directly if
    /// source equals destination).
    pub fn inject(&mut self, now: Cycle, packet: Packet) {
        let bytes = packet.size_bytes();
        self.stats.packets_injected += 1;
        self.stats.bytes_injected += u64::from(bytes);
        self.classify(&packet, u64::from(bytes));
        let src = packet.src;
        let r = self.pool.alloc(packet);
        self.process_at(now, src, r);
    }

    fn deliver(&mut self, now: Cycle, r: PacketRef) {
        let packet = self.pool.get(r);
        let (dst, injected_at) = (packet.dst, packet.injected_at);
        self.stats.packets_delivered += 1;
        self.stats.total_latency += now.saturating_sub(injected_at);
        self.delivered += 1;
        match dst {
            NetNode::Cube(c) => self.delivered_cube[c.index()].push_back(r),
            NetNode::Host(p) => self.delivered_host[p.index()].push_back(r),
        }
    }

    fn process_at(&mut self, now: Cycle, node: NetNode, r: PacketRef) {
        let dst = self.pool.get(r).dst;
        if node == dst {
            self.deliver(now, r);
            return;
        }
        let link = self.route_link(node, dst);
        let bytes = self.pool.size_bytes(r);
        self.pool.get_mut(r).hops += 1;
        self.stats.bit_hops += u64::from(bytes) * 8;
        let sent = self.next_sent;
        self.next_sent += 1;
        let was_idle = self.links[link].is_idle();
        let arrives_at = self.links[link].send(now, bytes, Flight { sent, packet: r });
        if was_idle {
            self.arrivals.push(Reverse((arrives_at, sent, link as u32)));
        }
    }

    /// Advances the network to `now`: packets whose arrival is due are
    /// forwarded to the next hop or delivered. Only links with due arrivals
    /// are visited, in `(arrival, send order)` order — FIFO among same-cycle
    /// arrivals.
    pub fn tick(&mut self, now: Cycle) {
        loop {
            let (at, link, packet) = {
                let Some(mut head) = self.arrivals.peek_mut() else { break };
                let Reverse((at, _, link)) = *head;
                if at > now {
                    break;
                }
                let l = link as usize;
                let flight =
                    self.links[l].pop_arrived(now).expect("a calendar head is an in-flight packet");
                match self.links[l].in_flight_entries().next() {
                    Some((next_at, next)) => *head = Reverse((next_at, next.sent, link)),
                    None => {
                        PeekMut::pop(head);
                    }
                }
                (at, l, flight.packet)
            };
            self.last_arrival = at;
            self.process_at(now, self.ends[link].1, packet);
        }
    }

    /// Returns true if a packet is waiting in the given cube's delivery
    /// queue.
    pub fn has_delivery_at_cube(&self, cube: CubeId) -> bool {
        !self.delivered_cube[cube.index()].is_empty()
    }

    /// Returns true if a packet is waiting in the given host port's delivery
    /// queue.
    pub fn has_delivery_at_host(&self, port: PortId) -> bool {
        !self.delivered_host[port.index()].is_empty()
    }

    /// Removes the next packet delivered at a cube, if any. The packet moves
    /// out of the pool and its slot is recycled.
    pub fn pop_at_cube(&mut self, cube: CubeId) -> Option<Packet> {
        let r = self.delivered_cube[cube.index()].pop_front()?;
        self.delivered -= 1;
        Some(self.pool.free(r))
    }

    /// Appends a cube's delivery queue to `inbox` in arrival order, moving
    /// each packet out of the pool. Equivalent to calling
    /// [`MemoryNetwork::pop_at_cube`] until it returns `None`, but
    /// allocation-free for a caller that recycles one inbox buffer every
    /// cycle: `inbox` keeps its spare capacity and the pool recycles the
    /// slots.
    pub fn drain_at_cube_into(&mut self, cube: CubeId, inbox: &mut VecDeque<Packet>) {
        let Self { pool, delivered_cube, delivered, .. } = self;
        let queue = &mut delivered_cube[cube.index()];
        *delivered -= queue.len();
        while let Some(r) = queue.pop_front() {
            inbox.push_back(pool.free(r));
        }
    }

    /// Removes the next packet delivered at a host port, if any. The packet
    /// moves out of the pool and its slot is recycled.
    pub fn pop_at_host(&mut self, port: PortId) -> Option<Packet> {
        let r = self.delivered_host[port.index()].pop_front()?;
        self.delivered -= 1;
        Some(self.pool.free(r))
    }

    /// Number of packets currently buffered or in flight anywhere in the
    /// network (used to detect quiescence). The counts are tracked
    /// incrementally, so this is O(1).
    pub fn in_flight(&self) -> usize {
        // Every pooled packet is on a link or in a delivery queue.
        self.pool.live()
    }

    /// Peak number of simultaneously in-flight packets over the run — the
    /// pool's high-water mark, i.e. the in-flight packet footprint.
    pub fn peak_in_flight(&self) -> usize {
        self.pool.high_water()
    }

    /// Slots the in-flight packet pool has grown to (live + free).
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Returns true if nothing is queued or in flight.
    pub fn is_quiescent(&self) -> bool {
        self.in_flight() == 0
    }

    /// Total queueing cycles accumulated on the link out of a host port
    /// (useful to observe the ART single-port hotspot).
    pub fn host_port_queueing(&self, port: PortId) -> u64 {
        let node = NetNode::Host(port);
        let cube = NetNode::Cube(self.topology.host_cube(port));
        self.link_index(node, cube).map_or(0, |l| self.links[l].queueing_cycles())
    }

    /// Per-hop latency the network was configured with.
    pub fn hop_latency(&self) -> Cycle {
        self.hop_latency
    }

    /// Per-link bandwidth (bytes per cycle) the network was configured with.
    pub fn link_bandwidth(&self) -> u32 {
        self.link_bytes_per_cycle
    }

    /// Serializes the network's dynamic state: per-link channel state with
    /// in-flight packets resolved to full packet bodies, the delivery queues,
    /// the arrival calendar (in deterministic pop order), and the traffic
    /// statistics. Idle links with zeroed counters are omitted — a freshly
    /// constructed network already has them.
    pub fn state_to_json(&self) -> Json {
        let links = self
            .ends
            .iter()
            .zip(&self.links)
            .filter(|(_, link)| {
                link.free_at() > 0
                    || link.in_flight() > 0
                    || link.bytes_transferred() > 0
                    || link.queueing_cycles() > 0
            })
            .map(|(&(a, b), link)| {
                let in_flight = link
                    .in_flight_entries()
                    .map(|(at, flight)| {
                        Json::obj([
                            ("at", Json::from(at)),
                            ("packet", self.pool.get(flight.packet).state_to_json()),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("a", a.state_to_json()),
                    ("b", b.state_to_json()),
                    ("free_at", Json::from(link.free_at())),
                    ("bytes_transferred", Json::from(link.bytes_transferred())),
                    ("packets_transferred", Json::from(link.packets_transferred())),
                    ("queueing_cycles", Json::from(link.queueing_cycles())),
                    ("in_flight", Json::Arr(in_flight)),
                ])
            })
            .collect();
        let deliveries = |queues: &[VecDeque<PacketRef>]| {
            Json::Arr(
                queues
                    .iter()
                    .map(|q| {
                        Json::Arr(q.iter().map(|&r| self.pool.get(r).state_to_json()).collect())
                    })
                    .collect(),
            )
        };
        // Every in-flight packet in calendar pop order.
        let mut pending: Vec<(Cycle, u64, usize)> = self
            .links
            .iter()
            .enumerate()
            .flat_map(|(l, link)| link.in_flight_entries().map(move |(at, f)| (at, f.sent, l)))
            .collect();
        pending.sort_unstable();
        let arrivals = pending
            .into_iter()
            .map(|(at, _, link)| {
                let (a, b) = self.ends[link];
                Json::obj([
                    ("at", Json::from(at)),
                    ("a", a.state_to_json()),
                    ("b", b.state_to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("links", Json::Arr(links)),
            ("delivered_cube", deliveries(&self.delivered_cube)),
            ("delivered_host", deliveries(&self.delivered_host)),
            ("arrivals", Json::Arr(arrivals)),
            ("arrivals_last_popped", Json::from(self.last_arrival)),
            ("stats", self.stats.state_to_json()),
        ])
    }

    /// Restores dynamic state onto a freshly constructed network, allocating
    /// every serialized packet into a fresh pool in deterministic order.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the document is malformed, references a
    /// link or node that does not exist in this network's topology (a
    /// packet's source, destination or `Update` compute cube included), or
    /// describes arrivals no in-order link could hold.
    pub fn load_state(&mut self, doc: &Json) -> Result<(), JsonError> {
        fn link_key(doc: &Json) -> Result<(NetNode, NetNode), JsonError> {
            Ok((NetNode::state_from_json(doc.req("a")?)?, NetNode::state_from_json(doc.req("b")?)?))
        }
        self.stats = NetworkStats::state_from_json(doc.req("stats")?)?;
        let no_link = |(a, b): (NetNode, NetNode)| {
            JsonError::state(format!("no link {a} -> {b} in this topology"))
        };
        // Each link's in-flight packets, oldest first. They join their link
        // once the arrival calendar below has given each its send order.
        let mut unscheduled: Vec<VecDeque<(Cycle, PacketRef)>> =
            self.links.iter().map(|_| VecDeque::new()).collect();
        for entry in doc.req_array("links")? {
            let key = link_key(entry)?;
            let l = self.link_index(key.0, key.1).ok_or_else(|| no_link(key))?;
            self.links[l].restore_state(
                entry.req_u64("free_at")?,
                entry.req_u64("bytes_transferred")?,
                entry.req_u64("packets_transferred")?,
                entry.req_u64("queueing_cycles")?,
            );
            for flight in entry.req_array("in_flight")? {
                let at = flight.req_u64("at")?;
                if unscheduled[l].back().is_some_and(|&(prev, _)| prev > at) {
                    return Err(JsonError::state(format!(
                        "link {} -> {} delivers its in-flight packets out of order",
                        key.0, key.1
                    )));
                }
                let packet = Packet::state_from_json(flight.req("packet")?)?;
                self.topology.check_packet(&packet)?;
                unscheduled[l].push_back((at, self.pool.alloc(packet)));
            }
        }
        let topology = &self.topology;
        let restore_deliveries = |queues: &mut Vec<VecDeque<PacketRef>>,
                                  pool: &mut PacketPool,
                                  delivered: &mut usize,
                                  key: &str|
         -> Result<(), JsonError> {
            let docs = doc.req_array(key)?;
            if docs.len() != queues.len() {
                return Err(JsonError::state(format!(
                    "{key} has {} queues but the topology provides {}",
                    docs.len(),
                    queues.len()
                )));
            }
            for (queue, entries) in queues.iter_mut().zip(docs) {
                queue.clear();
                for packet in entries
                    .as_array()
                    .ok_or_else(|| JsonError::state(format!("{key} queue is not an array")))?
                {
                    let packet = Packet::state_from_json(packet)?;
                    topology.check_packet(&packet)?;
                    queue.push_back(pool.alloc(packet));
                    *delivered += 1;
                }
            }
            Ok(())
        };
        self.delivered = 0;
        restore_deliveries(
            &mut self.delivered_cube,
            &mut self.pool,
            &mut self.delivered,
            "delivered_cube",
        )?;
        restore_deliveries(
            &mut self.delivered_host,
            &mut self.pool,
            &mut self.delivered,
            "delivered_host",
        )?;
        // The calendar lists every in-flight packet in pop order; a packet's
        // position is its send order. Each arrival must name a link of this
        // topology, and each link's arrivals must be exactly its in-flight
        // packets in order — otherwise `tick` would pop a link that has
        // nothing in flight or strand a packet nothing wakes.
        self.last_arrival = doc.req_u64("arrivals_last_popped")?;
        let arrivals = doc.req_array("arrivals")?;
        for (sent, entry) in (0u64..).zip(arrivals) {
            let at = entry.req_u64("at")?;
            let key = link_key(entry)?;
            let l = self.link_index(key.0, key.1).ok_or_else(|| no_link(key))?;
            let packet = match unscheduled[l].pop_front() {
                Some((due, packet)) if due == at => packet,
                _ => {
                    return Err(JsonError::state(format!(
                        "arrival at cycle {at} on link {} -> {} matches none of its in-flight \
                         packets",
                        key.0, key.1
                    )))
                }
            };
            if at < self.last_arrival {
                return Err(JsonError::state(format!(
                    "arrival at cycle {at} on link {} -> {} precedes the last popped arrival \
                     at cycle {}",
                    key.0, key.1, self.last_arrival
                )));
            }
            self.links[l].restore_in_flight(at, Flight { sent, packet });
        }
        for (&(a, b), rest) in self.ends.iter().zip(&unscheduled) {
            if !rest.is_empty() {
                return Err(JsonError::state(format!(
                    "link {a} -> {b} has a packet in flight with no scheduled arrival"
                )));
            }
        }
        self.next_sent = arrivals.len() as u64;
        self.arrivals = self
            .links
            .iter()
            .enumerate()
            .filter_map(|(l, link)| {
                let (at, head) = link.in_flight_entries().next()?;
                Some(Reverse((at, head.sent, l as u32)))
            })
            .collect();
        Ok(())
    }
}

impl Component for MemoryNetwork {
    fn next_wake(&self, now: Cycle) -> NextWake {
        // Undrained delivery queues must be looked at on the very next cycle;
        // otherwise the next link arrival is the next observable change.
        if self.delivered > 0 {
            NextWake::At(now + 1)
        } else {
            NextWake::from_next(self.arrivals.peek().map(|&Reverse((at, ..))| at))
        }
    }

    fn wake(&mut self, now: Cycle, _ctx: &mut SchedCtx) -> NextWake {
        self.tick(now);
        self.next_wake(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ar_types::Addr;

    fn read_req(id: u64, from_port: usize, to_cube: usize, now: Cycle) -> Packet {
        Packet::from_host(
            id,
            PortId::new(from_port),
            CubeId::new(to_cube),
            PacketKind::ReadReq { req_id: id, addr: Addr::new(0x40) },
            now,
        )
    }

    fn drain(net: &mut MemoryNetwork, cube: usize, until: Cycle) -> Vec<Packet> {
        let mut out = Vec::new();
        for t in 0..until {
            net.tick(t);
            while let Some(p) = net.pop_at_cube(CubeId::new(cube)) {
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn packet_reaches_destination_cube() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        net.inject(0, read_req(1, 0, 9, 0));
        let got = drain(&mut net, 9, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, 1);
        assert!(got[0].hops >= 2, "port 0 to cube 9 requires several hops");
        assert_eq!(net.stats().packets_delivered, 1);
        assert!(net.is_quiescent());
    }

    #[test]
    fn local_cube_delivery_is_direct() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        // cube 0 sends to itself: delivered without traversing links.
        let p = Packet::new(
            7,
            NetNode::Cube(CubeId::new(0)),
            NetNode::Cube(CubeId::new(0)),
            PacketKind::WriteAck { req_id: 7, addr: Addr::new(0) },
            5,
        );
        net.inject(5, p);
        assert_eq!(net.pop_at_cube(CubeId::new(0)).unwrap().hops, 0);
    }

    #[test]
    fn response_returns_to_host_port() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 2, 16);
        let p = Packet::new(
            3,
            NetNode::Cube(CubeId::new(6)),
            NetNode::Host(PortId::new(1)),
            PacketKind::ReadResp { req_id: 3, addr: Addr::new(0x80) },
            0,
        );
        net.inject(0, p);
        let mut got = None;
        for t in 0..300 {
            net.tick(t);
            if let Some(p) = net.pop_at_host(PortId::new(1)) {
                got = Some(p);
                break;
            }
        }
        let got = got.expect("response must arrive");
        assert_eq!(got.id, 3);
        assert!(net.stats().norm_resp_bytes > 0);
    }

    #[test]
    fn nearer_destinations_arrive_sooner() {
        let mut near_net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        let mut far_net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        near_net.inject(0, read_req(1, 0, 1, 0));
        far_net.inject(0, read_req(2, 0, 10, 0));
        let mut near_t = None;
        let mut far_t = None;
        for t in 0..500 {
            near_net.tick(t);
            far_net.tick(t);
            if near_t.is_none() && near_net.pop_at_cube(CubeId::new(1)).is_some() {
                near_t = Some(t);
            }
            if far_t.is_none() && far_net.pop_at_cube(CubeId::new(10)).is_some() {
                far_t = Some(t);
            }
        }
        assert!(near_t.unwrap() < far_t.unwrap());
    }

    #[test]
    fn port_congestion_accumulates_queueing() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        // Blast many packets through port 0 in the same cycle: the single
        // host link must serialize them.
        for i in 0..64 {
            net.inject(0, read_req(i, 0, (i % 15 + 1) as usize, 0));
        }
        for t in 0..2000 {
            net.tick(t);
            for c in 0..16 {
                while net.pop_at_cube(CubeId::new(c)).is_some() {}
            }
        }
        assert!(net.host_port_queueing(PortId::new(0)) > 0);
        assert_eq!(net.stats().packets_delivered, 64);
    }

    #[test]
    fn drain_at_cube_into_drains_the_whole_delivery_queue_in_order() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 16);
        // One packet still on a link, so the in-flight count is checked
        // against something other than zero.
        net.inject(0, read_req(9, 0, 5, 0));
        for id in 0..4 {
            // Zero-hop self-delivery lands in the queue immediately.
            let p = Packet::new(
                id,
                NetNode::Cube(CubeId::new(2)),
                NetNode::Cube(CubeId::new(2)),
                PacketKind::WriteAck { req_id: id, addr: Addr::new(0) },
                0,
            );
            net.inject(0, p);
        }
        assert!(net.has_delivery_at_cube(CubeId::new(2)));
        assert_eq!(net.in_flight(), 5);
        let mut inbox = VecDeque::from([read_req(99, 0, 2, 0)]);
        net.drain_at_cube_into(CubeId::new(2), &mut inbox);
        assert_eq!(inbox.iter().map(|p| p.id).collect::<Vec<_>>(), vec![99, 0, 1, 2, 3]);
        assert!(!net.has_delivery_at_cube(CubeId::new(2)));
        assert_eq!(net.in_flight(), 1, "draining the inbox must keep the in-flight count exact");
        net.drain_at_cube_into(CubeId::new(2), &mut inbox);
        assert_eq!(inbox.len(), 5, "an emptied queue drains nothing");
    }

    #[test]
    fn state_json_round_trip_resumes_identically() {
        // Congest the network, snapshot with packets on links, in delivery
        // queues and mid-serialization, then check the restored network
        // delivers the identical packet trace with identical stats.
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        let ports = net.topology().host_ports();
        for i in 0..48u64 {
            net.inject(0, read_req(i, i as usize % ports, (i % 15 + 1) as usize, 0));
        }
        let snap_at = 7;
        for t in 0..=snap_at {
            net.tick(t);
        }
        assert!(!net.is_quiescent(), "snapshot must capture in-flight packets");
        let doc = Json::parse(&net.state_to_json().render()).unwrap();
        let mut restored = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        restored.load_state(&doc).unwrap();
        assert_eq!(net.in_flight(), restored.in_flight());
        assert_eq!(net.next_wake(snap_at), restored.next_wake(snap_at));
        for t in snap_at + 1..3_000 {
            net.tick(t);
            restored.tick(t);
            for c in 0..16 {
                loop {
                    match (net.pop_at_cube(CubeId::new(c)), restored.pop_at_cube(CubeId::new(c))) {
                        (None, None) => break,
                        (a, b) => assert_eq!(a, b, "cube {c} divergence at cycle {t}"),
                    }
                }
            }
            if net.is_quiescent() && restored.is_quiescent() {
                break;
            }
        }
        assert!(net.is_quiescent() && restored.is_quiescent(), "both networks must drain");
        assert_eq!(net.stats(), restored.stats());
        assert_eq!(
            net.host_port_queueing(PortId::new(0)),
            restored.host_port_queueing(PortId::new(0))
        );
    }

    #[test]
    fn load_state_rejects_unknown_link() {
        let net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        let mut doc = net.state_to_json();
        // Forge a link between two hosts — no such link exists.
        if let Json::Obj(fields) = &mut doc {
            for (key, value) in fields.iter_mut() {
                if key == "links" {
                    *value = Json::Arr(vec![Json::obj([
                        ("a", NetNode::Host(PortId::new(0)).state_to_json()),
                        ("b", NetNode::Host(PortId::new(1)).state_to_json()),
                        ("free_at", Json::from(9u64)),
                        ("bytes_transferred", Json::from(0u64)),
                        ("packets_transferred", Json::from(0u64)),
                        ("queueing_cycles", Json::from(0u64)),
                        ("in_flight", Json::Arr(Vec::new())),
                    ])]);
                }
            }
        }
        let mut restored = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        let err = restored.load_state(&doc).unwrap_err();
        assert!(err.to_string().contains("no link"), "unexpected error: {err}");
    }

    #[test]
    fn load_state_rejects_arrivals_that_do_not_match_the_links() {
        // One packet on the `host 0 -> cube 0` link. Each case moves its
        // scheduled arrival onto another link (or drops it) in a snapshot
        // and expects a decode error.
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        net.inject(0, read_req(1, 0, 9, 0));
        let (cube5, cube6) = (NetNode::Cube(CubeId::new(5)), NetNode::Cube(CubeId::new(6)));
        assert!(net.link_index(cube5, cube6).is_some_and(|l| net.links[l].is_idle()));
        let cases = [
            // A link the topology lacks.
            (Some((NetNode::Host(PortId::new(1)), NetNode::Cube(CubeId::new(9)))), "no link host"),
            // A real link with nothing in flight.
            (Some((cube5, cube6)), "matches none"),
            // No arrival at all: the in-flight packet would never be woken.
            (None, "no scheduled arrival"),
        ];
        for (moved_to, expected) in cases {
            let mut doc = net.state_to_json();
            let Json::Obj(fields) = &mut doc else { panic!("network state is an object") };
            let Some((_, Json::Arr(arrivals))) = fields.iter_mut().find(|(k, _)| k == "arrivals")
            else {
                panic!("arrivals is an array")
            };
            match moved_to {
                Some((a, b)) => {
                    let Json::Obj(first) = &mut arrivals[0] else { panic!("arrival is an object") };
                    for (key, value) in first.iter_mut() {
                        match key.as_str() {
                            "a" => *value = a.state_to_json(),
                            "b" => *value = b.state_to_json(),
                            _ => {}
                        }
                    }
                }
                None => arrivals.clear(),
            }
            let mut restored = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
            let err = restored.load_state(&doc).unwrap_err();
            assert!(err.to_string().contains(expected), "expected {expected:?}, got: {err}");
        }
    }

    fn field_mut<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(fields) = doc else { panic!("{key}'s parent is an object") };
        &mut fields.iter_mut().find(|(k, _)| k == key).expect("field present").1
    }

    #[test]
    fn load_state_rejects_arrivals_no_in_order_link_could_hold() {
        // Two packets queue on the `host 0 -> cube 0` link. A link delivers
        // in order and the calendar never pops into the past, so a snapshot
        // whose link arrivals decrease, or whose arrival precedes the last
        // popped one, cannot be restored.
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        net.inject(0, read_req(1, 0, 9, 0));
        net.inject(0, read_req(2, 0, 9, 0));
        let mut reordered = net.state_to_json();
        let Json::Arr(links) = field_mut(&mut reordered, "links") else { panic!("an array") };
        let Json::Arr(in_flight) = field_mut(&mut links[0], "in_flight") else {
            panic!("an array")
        };
        assert_eq!(in_flight.len(), 2, "both packets queue on the first link");
        in_flight.swap(0, 1);
        let mut late = net.state_to_json();
        *field_mut(&mut late, "arrivals_last_popped") = Json::from(1_000u64);
        for (doc, expected) in [(reordered, "out of order"), (late, "precedes the last popped")] {
            let mut restored = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
            let err = restored.load_state(&doc).unwrap_err();
            assert!(err.to_string().contains(expected), "expected {expected:?}, got: {err}");
        }
    }

    #[test]
    fn load_state_rejects_packets_naming_nodes_outside_the_topology() {
        // An `Update` from host 0 towards cube 9 waits on its first link. Each
        // case swaps in a copy with one node id the paper topology (16 cubes,
        // 4 host ports) lacks, in flight or in a delivery queue.
        let update = Packet::new(
            1,
            NetNode::Host(PortId::new(0)),
            NetNode::Cube(CubeId::new(9)),
            PacketKind::Active(ActiveKind::Update {
                flow: ar_types::ids::FlowId::new(0x40, PortId::new(0)),
                op: ar_types::ReduceOp::Sum,
                src1: Addr::new(0x80),
                src2: None,
                imm: None,
                compute_cube: CubeId::new(9),
                thread: ar_types::ids::ThreadId::new(0),
                update_id: 1,
                issued_at: 0,
            }),
            0,
        );
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
        net.inject(0, update.clone());
        let mut far_compute = update.clone();
        let PacketKind::Active(ActiveKind::Update { compute_cube, .. }) = &mut far_compute.kind
        else {
            unreachable!()
        };
        *compute_cube = CubeId::new(16);
        let cases = [
            (
                "links",
                Packet { src: NetNode::Host(PortId::new(4)), ..update.clone() },
                "src host-port4",
            ),
            (
                "links",
                Packet { dst: NetNode::Cube(CubeId::new(99)), ..update.clone() },
                "dst cube99",
            ),
            ("links", far_compute, "compute_cube cube16"),
            (
                "delivered_cube",
                Packet { dst: NetNode::Cube(CubeId::new(16)), ..update },
                "dst cube16",
            ),
        ];
        for (site, packet, expected) in cases {
            let mut doc = net.state_to_json();
            let Json::Arr(site_entries) = field_mut(&mut doc, site) else { panic!("an array") };
            if site == "links" {
                let link = site_entries
                    .iter_mut()
                    .find(|link| link.req_array("in_flight").is_ok_and(|f| !f.is_empty()))
                    .expect("the update is in flight");
                let Json::Arr(in_flight) = field_mut(link, "in_flight") else { panic!("an array") };
                *field_mut(&mut in_flight[0], "packet") = packet.state_to_json();
            } else {
                site_entries[0] = Json::arr([packet.state_to_json()]);
            }
            let mut restored = MemoryNetwork::new(DragonflyTopology::paper(), 3, 8);
            let err = restored.load_state(&doc).unwrap_err().to_string();
            assert!(
                err.contains(&format!("packet 0x1 {expected} is not a node of this topology")),
                "expected {expected:?}, got: {err}"
            );
        }
    }

    /// The per-packet arrival calendar the per-link heads replace: every send
    /// pushes its own `(arrival, send order, link)` entry into one global
    /// heap. Routes with [`DragonflyTopology::next_hop`] directly, not with
    /// the first-hop table.
    struct PerPacketCalendar {
        topology: DragonflyTopology,
        ends: Vec<(NetNode, NetNode)>,
        links: Vec<BandwidthLink<u64>>,
        arrivals: BinaryHeap<Reverse<(Cycle, u64, usize)>>,
        sent: u64,
        /// Destination and wire size by packet id.
        packets: std::collections::HashMap<u64, (NetNode, u32)>,
        delivered: Vec<(NetNode, u64)>,
        /// Cycles in which more than one packet arrived.
        tied_cycles: u64,
    }

    impl PerPacketCalendar {
        fn new(topology: DragonflyTopology, hop_latency: Cycle, bytes_per_cycle: u32) -> Self {
            let mut ends = topology.directed_links();
            ends.sort_unstable();
            let links =
                ends.iter().map(|_| BandwidthLink::new(hop_latency, bytes_per_cycle)).collect();
            PerPacketCalendar {
                topology,
                ends,
                links,
                arrivals: BinaryHeap::new(),
                sent: 0,
                packets: Default::default(),
                delivered: Vec::new(),
                tied_cycles: 0,
            }
        }

        fn inject(&mut self, now: Cycle, packet: &Packet) {
            self.packets.insert(packet.id, (packet.dst, packet.size_bytes()));
            self.process_at(now, packet.src, packet.id);
        }

        fn process_at(&mut self, now: Cycle, node: NetNode, id: u64) {
            let (dst, bytes) = self.packets[&id];
            if node == dst {
                self.delivered.push((node, id));
                return;
            }
            let next = self.topology.next_hop(node, dst);
            let link = self.ends.binary_search(&(node, next)).expect("a topology link");
            let at = self.links[link].send(now, bytes, id);
            self.arrivals.push(Reverse((at, self.sent, link)));
            self.sent += 1;
        }

        fn tick(&mut self, now: Cycle) {
            let mut popped = 0;
            while let Some(&Reverse((at, _, link))) = self.arrivals.peek() {
                if at > now {
                    break;
                }
                self.arrivals.pop();
                popped += 1;
                let id = self.links[link].pop_arrived(now).expect("one arrival per entry");
                self.process_at(now, self.ends[link].1, id);
            }
            self.tied_cycles += u64::from(popped > 1);
        }

        /// Every in-flight packet as `(link, arrival, id)`, link by link.
        fn on_links(&self) -> Vec<(usize, Cycle, u64)> {
            let per_link = self.links.iter().enumerate();
            per_link
                .flat_map(|(l, link)| link.in_flight_entries().map(move |(at, &id)| (l, at, id)))
                .collect()
        }
    }

    fn on_links(net: &MemoryNetwork) -> Vec<(usize, Cycle, u64)> {
        let per_link = net.links.iter().enumerate();
        per_link
            .flat_map(|(l, link)| {
                link.in_flight_entries().map(move |(at, f)| (l, at, net.pool.get(f.packet).id))
            })
            .collect()
    }

    /// Drives random traffic through `net` and the per-packet reference side
    /// by side. After every cycle each link must hold the same packets with
    /// the same arrival cycles — a hop taken in another order would queue
    /// differently — and every node must have received the same packets in
    /// the same order. Halfway through, `net` is replaced by its own
    /// `state_to_json`/`load_state` round trip. Returns the number of cycles
    /// in which several packets arrived, i.e. the send-order tie-break
    /// decided the order.
    fn assert_calendar_matches_per_packet_order(topology: DragonflyTopology, seed: u64) -> u64 {
        let (hop_latency, bandwidth) = (2, 8);
        let mut net = MemoryNetwork::new(topology.clone(), hop_latency, bandwidth);
        let mut reference = PerPacketCalendar::new(topology.clone(), hop_latency, bandwidth);
        let nodes: Vec<NetNode> = (0..topology.cubes())
            .map(|c| NetNode::Cube(CubeId::new(c)))
            .chain((0..topology.host_ports()).map(|p| NetNode::Host(PortId::new(p))))
            .collect();
        let mut rng = ar_sim::SimRng::seed_from_u64(seed);
        let (inject_until, snap_at) = (300, 150);
        let mut id = 0u64;
        let mut t = 0;
        while t < inject_until || !net.is_quiescent() {
            net.tick(t);
            reference.tick(t);
            let mut expected = std::mem::take(&mut reference.delivered);
            expected.sort_by_key(|&(node, _)| net.node_slot(node));
            let mut got = Vec::new();
            for &node in &nodes {
                let pop = |net: &mut MemoryNetwork| match node {
                    NetNode::Cube(c) => net.pop_at_cube(c),
                    NetNode::Host(p) => net.pop_at_host(p),
                };
                while let Some(packet) = pop(&mut net) {
                    assert_eq!(packet.dst, node, "delivered to the wrong node");
                    got.push((node, packet.id));
                }
            }
            assert_eq!(got, expected, "deliveries diverged at cycle {t} ({topology:?})");
            if t < inject_until && rng.chance(0.6) {
                for _ in 0..1 + rng.next_below(8) {
                    let (src, dst) = (nodes[rng.index(nodes.len())], nodes[rng.index(nodes.len())]);
                    let addr = Addr::new(rng.next_below(1 << 20) * 64);
                    let kind = match rng.next_below(3) {
                        0 => PacketKind::ReadReq { req_id: id, addr },
                        1 => PacketKind::ReadResp { req_id: id, addr },
                        _ => PacketKind::WriteReq { req_id: id, addr },
                    };
                    let packet = Packet::new(id, src, dst, kind, t);
                    reference.inject(t, &packet);
                    net.inject(t, packet);
                    id += 1;
                }
            }
            assert_eq!(on_links(&net), reference.on_links(), "links diverged at cycle {t}");
            let head = net.arrivals.peek().map(|&Reverse((at, ..))| at);
            let reference_head = reference.arrivals.peek().map(|&Reverse((at, ..))| at);
            assert_eq!(head, reference_head, "next arrival diverged at cycle {t}");
            if t == snap_at {
                let doc = Json::parse(&net.state_to_json().render()).unwrap();
                net = MemoryNetwork::new(topology.clone(), hop_latency, bandwidth);
                net.load_state(&doc).unwrap();
            }
            t += 1;
            assert!(t < 100_000, "the network never drained");
        }
        assert!(reference.arrivals.is_empty(), "the reference must drain with the network");
        assert_eq!(net.stats().packets_delivered, id);
        reference.tied_cycles
    }

    #[test]
    fn per_link_heads_pop_in_per_packet_calendar_order() {
        let ties = assert_calendar_matches_per_packet_order(DragonflyTopology::paper(), 1);
        assert!(ties > 0, "no two packets ever arrived in the same cycle");
        let scaled = ar_types::config::SystemConfig::scaled().network;
        let scaled = DragonflyTopology::new(scaled.cubes, scaled.groups, scaled.host_ports);
        assert!(assert_calendar_matches_per_packet_order(scaled, 2) > 0);
        for (seed, (cubes, groups, ports)) in (3..).zip([(1, 1, 1), (4, 2, 2), (9, 3, 3)]) {
            assert_calendar_matches_per_packet_order(
                DragonflyTopology::new(cubes, groups, ports),
                seed,
            );
        }
    }

    /// Every `(from, to)` pair routes onto the link `from -> next_hop`, and
    /// the link table is exactly the topology's sorted directed links.
    fn assert_tables_match_topology(topology: DragonflyTopology) {
        let net = MemoryNetwork::new(topology.clone(), 1, 16);
        let mut expected = topology.directed_links();
        expected.sort();
        assert_eq!(net.ends, expected, "link table of {topology:?}");
        assert_eq!(net.links.len(), expected.len());
        let nodes: Vec<NetNode> = (0..topology.cubes())
            .map(|c| NetNode::Cube(CubeId::new(c)))
            .chain((0..topology.host_ports()).map(|p| NetNode::Host(PortId::new(p))))
            .collect();
        for &from in &nodes {
            for &to in &nodes {
                if from != to {
                    let link = net.route_link(from, to);
                    assert_eq!(
                        net.ends[link],
                        (from, topology.next_hop(from, to)),
                        "route {from} -> {to} in {topology:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_hop_table_follows_next_hop_on_every_geometry() {
        // The paper machine, the 160-cube scaled machine, and small ones.
        assert_tables_match_topology(DragonflyTopology::paper());
        let scaled = ar_types::config::SystemConfig::scaled().network;
        assert_tables_match_topology(DragonflyTopology::new(
            scaled.cubes,
            scaled.groups,
            scaled.host_ports,
        ));
        for (cubes, groups, ports) in [(1, 1, 1), (4, 2, 2), (6, 3, 1), (9, 3, 3), (8, 4, 4)] {
            assert_tables_match_topology(DragonflyTopology::new(cubes, groups, ports));
        }
    }

    #[test]
    fn traffic_classification_splits_active_and_normal() {
        let mut net = MemoryNetwork::new(DragonflyTopology::paper(), 1, 16);
        net.inject(0, read_req(1, 0, 2, 0));
        let gather = Packet::from_host(
            2,
            PortId::new(0),
            CubeId::new(0),
            PacketKind::Active(ActiveKind::GatherReq {
                flow: ar_types::FlowId::new(0x100, PortId::new(0)),
                op: ar_types::ReduceOp::Sum,
                expected_at_root: 1,
                thread: ar_types::ThreadId::new(0),
            }),
            0,
        );
        net.inject(0, gather);
        let s = net.stats();
        assert!(s.norm_req_bytes > 0);
        assert!(s.active_req_bytes > 0);
        assert_eq!(s.norm_resp_bytes, 0);
        assert_eq!(s.total_bytes(), s.norm_req_bytes + s.active_req_bytes);
    }

    #[test]
    fn bit_hops_grow_with_distance() {
        let mut a = MemoryNetwork::new(DragonflyTopology::paper(), 1, 16);
        let mut b = MemoryNetwork::new(DragonflyTopology::paper(), 1, 16);
        a.inject(0, read_req(1, 0, 1, 0));
        b.inject(0, read_req(1, 0, 9, 0));
        for t in 0..200 {
            a.tick(t);
            b.tick(t);
        }
        assert!(b.stats().bit_hops > a.stats().bit_hops);
    }
}
