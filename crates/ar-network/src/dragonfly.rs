//! The dragonfly topology of the memory network (Table 4.1: "16 cube
//! Dragonfly, 4 controllers, minimal routing").
//!
//! Cubes are partitioned into groups. Within a group every cube is directly
//! connected to every other cube (fully-connected local channels). Each pair
//! of groups is connected by exactly one global channel, terminated at a
//! deterministic "gateway" cube on each side. Host access ports (the HMC
//! controllers on the processor die) attach to the first cube of each group,
//! which matches the figure in the paper where the host links enter the
//! network at cubes 0, 4, 8 and 12.
//!
//! Minimal routing therefore takes at most four network hops:
//! `host port -> entry cube -> source gateway -> destination gateway ->
//! destination cube`.

use ar_types::ids::{CubeId, NetNode, PortId};
use ar_types::json::JsonError;
use ar_types::packet::{ActiveKind, Packet, PacketKind};

/// The dragonfly topology: pure connectivity and routing functions, no state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DragonflyTopology {
    cubes: usize,
    groups: usize,
    host_ports: usize,
}

impl DragonflyTopology {
    /// Creates a dragonfly with `cubes` cubes in `groups` equal groups and
    /// `host_ports` host access ports (one per group, starting from group 0).
    ///
    /// # Panics
    ///
    /// Panics if `cubes` is not divisible by `groups`, if any count is zero,
    /// or if `host_ports > groups`.
    pub fn new(cubes: usize, groups: usize, host_ports: usize) -> Self {
        assert!(cubes > 0 && groups > 0 && host_ports > 0, "counts must be non-zero");
        assert_eq!(cubes % groups, 0, "cubes must divide evenly into groups");
        assert!(host_ports <= groups, "at most one host port per group");
        DragonflyTopology { cubes, groups, host_ports }
    }

    /// The paper's topology: 16 cubes, 4 groups, 4 host ports.
    pub fn paper() -> Self {
        DragonflyTopology::new(16, 4, 4)
    }

    /// Total number of cubes.
    pub fn cubes(&self) -> usize {
        self.cubes
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Number of host access ports.
    pub fn host_ports(&self) -> usize {
        self.host_ports
    }

    /// Checks a node id decoded from checkpointed state against this
    /// topology. Routing indexes its tables by node, so a restored id must
    /// pass before anything routes to or from it.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the field `what` describes when `node`
    /// is not a node of this topology.
    pub fn check_node(
        &self,
        node: NetNode,
        what: impl FnOnce() -> String,
    ) -> Result<(), JsonError> {
        let known = match node {
            NetNode::Cube(c) => c.index() < self.cubes,
            NetNode::Host(p) => p.index() < self.host_ports,
        };
        if known {
            Ok(())
        } else {
            Err(JsonError::state(format!(
                "{} {node} is not a node of this topology ({} cubes, {} host ports)",
                what(),
                self.cubes,
                self.host_ports
            )))
        }
    }

    /// Checks every node a decoded packet names: its source, its destination
    /// and, for an `Update`, its compute cube. An operand slot names the
    /// cube whose engine buffers the operand, which is the requester: the
    /// source of an `OperandReq` and the destination of an `OperandResp`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the packet and the first field that is
    /// not a node of this topology, or whose operand slot is not on its
    /// requester.
    pub fn check_packet(&self, packet: &Packet) -> Result<(), JsonError> {
        let id = packet.id;
        self.check_node(packet.src, || format!("packet {id:#x} src"))?;
        self.check_node(packet.dst, || format!("packet {id:#x} dst"))?;
        let (slot, requester) = match packet.kind {
            PacketKind::Active(ActiveKind::Update { compute_cube, .. }) => {
                let compute = NetNode::Cube(compute_cube);
                return self.check_node(compute, || format!("packet {id:#x} compute_cube"));
            }
            PacketKind::Active(ActiveKind::OperandReq { slot, .. }) => (slot, packet.src),
            PacketKind::Active(ActiveKind::OperandResp { slot, .. }) => (slot, packet.dst),
            _ => return Ok(()),
        };
        match slot {
            Some(slot) if NetNode::Cube(slot.cube) != requester => Err(JsonError::state(format!(
                "packet {id:#x} operand slot is on {} but its requester is {requester}",
                slot.cube
            ))),
            _ => Ok(()),
        }
    }

    /// Cubes per group.
    pub fn group_size(&self) -> usize {
        self.cubes / self.groups
    }

    /// The group a cube belongs to.
    pub fn group_of(&self, cube: CubeId) -> usize {
        cube.index() / self.group_size()
    }

    /// The cube's index within its group.
    pub fn local_index(&self, cube: CubeId) -> usize {
        cube.index() % self.group_size()
    }

    /// The cube that host access port `port` attaches to (first cube of the
    /// port's group).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn host_cube(&self, port: PortId) -> CubeId {
        assert!(port.index() < self.host_ports, "port out of range");
        CubeId::new(port.index() * self.group_size())
    }

    /// The gateway cube in `group` that terminates the global channel towards
    /// `other_group`.
    fn gateway(&self, group: usize, other_group: usize) -> CubeId {
        debug_assert_ne!(group, other_group);
        // Distribute the (groups - 1) global channels of a group across its
        // cubes round-robin.
        let slot = if other_group < group { other_group } else { other_group - 1 };
        let local = slot % self.group_size();
        CubeId::new(group * self.group_size() + local)
    }

    /// All direct neighbours of a cube (local fully-connected links, global
    /// links it terminates, and its host port if any).
    pub fn neighbors(&self, cube: CubeId) -> Vec<NetNode> {
        let mut out = Vec::new();
        let group = self.group_of(cube);
        let base = group * self.group_size();
        for i in 0..self.group_size() {
            let other = CubeId::new(base + i);
            if other != cube {
                out.push(NetNode::Cube(other));
            }
        }
        for other_group in 0..self.groups {
            if other_group != group && self.gateway(group, other_group) == cube {
                out.push(NetNode::Cube(self.gateway(other_group, group)));
            }
        }
        for p in 0..self.host_ports {
            if self.host_cube(PortId::new(p)) == cube {
                out.push(NetNode::Host(PortId::new(p)));
            }
        }
        out
    }

    /// The next hop from `from` towards `to` under minimal routing.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub fn next_hop(&self, from: NetNode, to: NetNode) -> NetNode {
        assert_ne!(from, to, "no next hop from a node to itself");
        match (from, to) {
            (NetNode::Host(p), _) => NetNode::Cube(self.host_cube(p)),
            (NetNode::Cube(c), NetNode::Host(p)) => {
                let hc = self.host_cube(p);
                if c == hc {
                    NetNode::Host(p)
                } else {
                    self.next_hop(NetNode::Cube(c), NetNode::Cube(hc))
                }
            }
            (NetNode::Cube(c), NetNode::Cube(d)) => {
                let gc = self.group_of(c);
                let gd = self.group_of(d);
                if gc == gd {
                    // Fully connected within the group.
                    NetNode::Cube(d)
                } else {
                    let gw_src = self.gateway(gc, gd);
                    if c == gw_src {
                        NetNode::Cube(self.gateway(gd, gc))
                    } else {
                        NetNode::Cube(gw_src)
                    }
                }
            }
        }
    }

    /// The full minimal path from `from` to `to`, inclusive of both endpoints.
    pub fn path(&self, from: NetNode, to: NetNode) -> Vec<NetNode> {
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            cur = self.next_hop(cur, to);
            path.push(cur);
            debug_assert!(path.len() <= self.cubes + 2, "routing loop detected");
        }
        path
    }

    /// Number of links traversed on the minimal path from `from` to `to`.
    /// Walks the route with [`DragonflyTopology::next_hop`] instead of
    /// materializing it: this runs per memory request (port selection,
    /// writeback targeting), where a per-call `Vec` would dominate the event
    /// loop's allocation profile.
    pub fn hop_count(&self, from: NetNode, to: NetNode) -> u32 {
        let mut cur = from;
        let mut hops = 0;
        while cur != to {
            cur = self.next_hop(cur, to);
            hops += 1;
            debug_assert!(hops <= self.cubes as u32 + 2, "routing loop detected");
        }
        hops
    }

    /// The last cube that the minimal paths from `entry` to `a` and from
    /// `entry` to `b` have in common — the *split point* at which a
    /// two-operand Update reserves its operand buffer and replicates operand
    /// requests (Section 3.3.2). Walks both routes in lock-step without
    /// materializing them (this runs per offloaded two-operand Update).
    pub fn last_common_cube(&self, entry: CubeId, a: CubeId, b: CubeId) -> CubeId {
        let (a, b) = (NetNode::Cube(a), NetNode::Cube(b));
        let mut x = NetNode::Cube(entry);
        let mut y = x;
        let mut last = entry;
        loop {
            if x != y {
                break;
            }
            if let NetNode::Cube(c) = x {
                last = c;
            }
            if x == a || y == b {
                // One path ended; nothing further can be common to both.
                break;
            }
            x = self.next_hop(x, a);
            y = self.next_hop(y, b);
        }
        last
    }

    /// The host access port closest (in hops) to `cube`; ties break towards
    /// the lowest port index. Used by the ARF-addr scheme.
    pub fn nearest_port(&self, cube: CubeId) -> PortId {
        let mut best = PortId::new(0);
        let mut best_hops = u32::MAX;
        for p in 0..self.host_ports {
            let port = PortId::new(p);
            let hops = self.hop_count(NetNode::Host(port), NetNode::Cube(cube));
            if hops < best_hops {
                best_hops = hops;
                best = port;
            }
        }
        best
    }

    /// All directed links `(from, to)` of the topology, including host links.
    pub fn directed_links(&self) -> Vec<(NetNode, NetNode)> {
        let mut links = Vec::new();
        for c in 0..self.cubes {
            let cube = CubeId::new(c);
            for n in self.neighbors(cube) {
                links.push((NetNode::Cube(cube), n));
                if n.is_host() {
                    links.push((n, NetNode::Cube(cube)));
                }
            }
        }
        links
    }
}

impl Default for DragonflyTopology {
    fn default() -> Self {
        DragonflyTopology::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_nodes(t: &DragonflyTopology) -> Vec<NetNode> {
        let mut v: Vec<NetNode> = (0..t.cubes()).map(|c| NetNode::Cube(CubeId::new(c))).collect();
        v.extend((0..t.host_ports()).map(|p| NetNode::Host(PortId::new(p))));
        v
    }

    #[test]
    fn paper_topology_shape() {
        let t = DragonflyTopology::paper();
        assert_eq!(t.cubes(), 16);
        assert_eq!(t.group_size(), 4);
        assert_eq!(t.host_cube(PortId::new(0)), CubeId::new(0));
        assert_eq!(t.host_cube(PortId::new(3)), CubeId::new(12));
        assert_eq!(t.group_of(CubeId::new(7)), 1);
        assert_eq!(t.local_index(CubeId::new(7)), 3);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let t = DragonflyTopology::paper();
        for c in 0..t.cubes() {
            let cube = NetNode::Cube(CubeId::new(c));
            for n in t.neighbors(CubeId::new(c)) {
                if let NetNode::Cube(nc) = n {
                    assert!(t.neighbors(nc).contains(&cube), "link {cube}->{n} is not symmetric");
                }
            }
        }
    }

    #[test]
    fn every_pair_is_routable_within_bound() {
        let t = DragonflyTopology::paper();
        for a in all_nodes(&t) {
            for b in all_nodes(&t) {
                if a == b {
                    continue;
                }
                let path = t.path(a, b);
                assert_eq!(*path.first().unwrap(), a);
                assert_eq!(*path.last().unwrap(), b);
                // host -> cube -> gw -> gw -> cube -> host is the longest
                assert!(path.len() <= 6, "path {a}->{b} too long: {path:?}");
                // Consecutive nodes must be neighbours.
                for w in path.windows(2) {
                    match (w[0], w[1]) {
                        (NetNode::Cube(c), n) => assert!(t.neighbors(c).contains(&n)),
                        (NetNode::Host(p), NetNode::Cube(c)) => assert_eq!(t.host_cube(p), c),
                        _ => panic!("host-to-host link in path"),
                    }
                }
            }
        }
    }

    #[test]
    fn intra_group_routing_is_single_hop() {
        let t = DragonflyTopology::paper();
        assert_eq!(t.hop_count(NetNode::Cube(CubeId::new(1)), NetNode::Cube(CubeId::new(3))), 1);
    }

    #[test]
    fn inter_group_routing_uses_gateways() {
        let t = DragonflyTopology::paper();
        let hops = t.hop_count(NetNode::Cube(CubeId::new(1)), NetNode::Cube(CubeId::new(9)));
        assert!((1..=3).contains(&hops));
    }

    #[test]
    fn split_point_is_on_both_paths() {
        let t = DragonflyTopology::paper();
        let entry = CubeId::new(0);
        let a = CubeId::new(15);
        let b = CubeId::new(12);
        let split = t.last_common_cube(entry, a, b);
        let pa = t.path(NetNode::Cube(entry), NetNode::Cube(a));
        let pb = t.path(NetNode::Cube(entry), NetNode::Cube(b));
        assert!(pa.contains(&NetNode::Cube(split)));
        assert!(pb.contains(&NetNode::Cube(split)));
    }

    #[test]
    fn split_point_with_same_cube_operands() {
        let t = DragonflyTopology::paper();
        assert_eq!(
            t.last_common_cube(CubeId::new(0), CubeId::new(5), CubeId::new(5)),
            CubeId::new(5)
        );
        assert_eq!(
            t.last_common_cube(CubeId::new(3), CubeId::new(3), CubeId::new(3)),
            CubeId::new(3)
        );
    }

    #[test]
    fn nearest_port_of_attached_cube_is_its_port() {
        let t = DragonflyTopology::paper();
        assert_eq!(t.nearest_port(CubeId::new(0)), PortId::new(0));
        assert_eq!(t.nearest_port(CubeId::new(12)), PortId::new(3));
        // Any cube maps to a valid port.
        for c in 0..16 {
            assert!(t.nearest_port(CubeId::new(c)).index() < 4);
        }
    }

    #[test]
    fn small_two_group_topology_routes() {
        let t = DragonflyTopology::new(4, 2, 2);
        for a in all_nodes(&t) {
            for b in all_nodes(&t) {
                if a != b {
                    assert!(!t.path(a, b).is_empty());
                }
            }
        }
    }

    #[test]
    fn directed_links_cover_host_ports() {
        let t = DragonflyTopology::paper();
        let links = t.directed_links();
        assert!(links.contains(&(NetNode::Host(PortId::new(0)), NetNode::Cube(CubeId::new(0)))));
        assert!(links.contains(&(NetNode::Cube(CubeId::new(0)), NetNode::Host(PortId::new(0)))));
    }

    #[test]
    #[should_panic(expected = "cubes must divide")]
    fn invalid_group_count_panics() {
        let _ = DragonflyTopology::new(16, 3, 2);
    }

    #[test]
    fn check_packet_rejects_operand_slots_off_their_requester() {
        // Cube 2 buffers an operand that cube 7 reads for it: the request
        // travels 2 -> 7 and the response 7 -> 2, both naming cube 2's slot.
        use ar_types::packet::OperandSlot;
        use ar_types::{Addr, FlowId, ReduceOp};
        let t = DragonflyTopology::paper();
        let (requester, owner) = (NetNode::Cube(CubeId::new(2)), NetNode::Cube(CubeId::new(7)));
        let flow = FlowId::new(0x40, PortId::new(0));
        let packets = |cube: usize| {
            let slot = Some(OperandSlot { cube: CubeId::new(cube), index: 3 });
            let (which, update_id, op) = (0, 9, ReduceOp::Mac);
            let req =
                ActiveKind::OperandReq { flow, slot, addr: Addr::new(0x80), which, update_id, op };
            let resp = ActiveKind::OperandResp { flow, slot, which, value: 1.5, update_id, op };
            [
                Packet::new(1, requester, owner, PacketKind::Active(req), 0),
                Packet::new(2, owner, requester, PacketKind::Active(resp), 0),
            ]
        };
        for packet in packets(2) {
            t.check_packet(&packet).expect("a slot on the requester is valid");
        }
        for cube in [7, 99] {
            for packet in packets(cube) {
                let err = t.check_packet(&packet).unwrap_err().to_string();
                let expected = format!(
                    "packet {:#x} operand slot is on cube{cube} but its requester is cube2",
                    packet.id
                );
                assert!(err.contains(&expected), "expected {expected:?}, got: {err}");
            }
        }
    }
}
