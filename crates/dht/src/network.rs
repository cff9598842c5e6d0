//! Whole-network Pastry view: per-node routing state, hop-by-hop routing
//! with hop/latency accounting, and membership churn.
//!
//! The simulator builds each node's routing table and leaf set from global
//! knowledge (the standard omniscient construction used in DHT simulation —
//! equivalent to the state a completed Pastry join protocol converges to),
//! then *routes* strictly hop-by-hop through per-node state, so hop counts
//! and per-hop latencies faithfully reflect a decentralized deployment.

use crate::leafset::{LeafSet, DEFAULT_SIDE};
use crate::nodeid::{NodeId, DIGIT_BASE, NUM_DIGITS};
use crate::routing_table::RoutingTable;
use spidernet_sim::trace::{TraceBuffer, TraceEvent};
use spidernet_util::id::PeerId;
use spidernet_util::par::par_map_with;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound::{Excluded, Unbounded};

/// Per-node Pastry state.
#[derive(Clone, Debug)]
pub struct PastryNode {
    id: NodeId,
    peer: PeerId,
    table: RoutingTable,
    leaves: LeafSet,
}

impl PastryNode {
    /// This node's ring id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of populated routing-table cells (diagnostics).
    pub fn table_size(&self) -> usize {
        self.table.len()
    }
}

/// The result of routing one message.
#[derive(Clone, Debug)]
pub struct RouteOutcome {
    /// Peers visited, starting with the source and ending with the node
    /// that accepted delivery (the replica root for the key).
    pub path: Vec<PeerId>,
    /// Total overlay latency accumulated along the path, ms.
    pub latency_ms: f64,
}

impl RouteOutcome {
    /// Overlay hops taken (path length minus one).
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// The delivering node.
    pub fn destination(&self) -> PeerId {
        *self.path.last().expect("path includes at least the source")
    }
}

/// A complete Pastry network over a set of overlay peers.
#[derive(Clone, Debug)]
pub struct PastryNetwork {
    nodes: HashMap<PeerId, PastryNode>,
    ring: BTreeMap<NodeId, PeerId>,
    leaf_side: usize,
}

impl PastryNetwork {
    /// Builds the network for `peers`. `proximity(a, b)` supplies the
    /// overlay latency between two peers, used both to pick
    /// routing-table entries (Pastry's locality heuristic) and to account
    /// per-hop latency during routing.
    pub fn build(peers: &[PeerId], proximity: &mut dyn FnMut(PeerId, PeerId) -> f64) -> Self {
        let mut net =
            PastryNetwork { nodes: HashMap::new(), ring: BTreeMap::new(), leaf_side: DEFAULT_SIDE };
        for &p in peers {
            let id = NodeId::from_peer_index(p.raw());
            net.ring.insert(id, p);
        }
        let membership: Vec<(NodeId, PeerId)> = net.ring.iter().map(|(k, v)| (*k, *v)).collect();
        if membership.len() <= INCREMENTAL_BUILD_THRESHOLD {
            for &(id, peer) in &membership {
                let mut table = RoutingTable::new(id);
                let mut leaves = LeafSet::new(id, net.leaf_side);
                for &(oid, opeer) in &membership {
                    if oid == id {
                        continue;
                    }
                    table.insert(oid, opeer, proximity(peer, opeer));
                    leaves.insert(oid, opeer);
                }
                net.nodes.insert(peer, PastryNode { id, peer, table, leaves });
            }
        } else {
            for i in 0..membership.len() {
                let node = build_node_incremental(&membership, i, net.leaf_side, &mut |a, b| {
                    proximity(a, b)
                });
                net.nodes.insert(node.peer, node);
            }
        }
        net
    }

    /// [`PastryNetwork::build`] with per-node construction sharded across
    /// `threads` workers. Requires a shareable proximity function (pure,
    /// e.g. a coordinate-space delay); every node's state is a pure
    /// function of the sorted membership, so the result is identical for
    /// any thread count. Always uses the incremental O(n·log n)
    /// construction, whatever the network size.
    pub fn build_parallel(
        peers: &[PeerId],
        proximity: &(dyn Fn(PeerId, PeerId) -> f64 + Sync),
        threads: usize,
    ) -> Self {
        let mut net =
            PastryNetwork { nodes: HashMap::new(), ring: BTreeMap::new(), leaf_side: DEFAULT_SIDE };
        for &p in peers {
            let id = NodeId::from_peer_index(p.raw());
            net.ring.insert(id, p);
        }
        let membership: Vec<(NodeId, PeerId)> = net.ring.iter().map(|(k, v)| (*k, *v)).collect();
        let leaf_side = net.leaf_side;
        let membership_ref = &membership;
        let built = par_map_with(threads, (0..membership.len()).collect(), |_, i| {
            build_node_incremental(membership_ref, i, leaf_side, &mut |a, b| proximity(a, b))
        });
        for node in built {
            net.nodes.insert(node.peer, node);
        }
        net
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True if `peer` is a live member.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.nodes.contains_key(&peer)
    }

    /// The ring id of a live peer.
    pub fn node_id(&self, peer: PeerId) -> Option<NodeId> {
        self.nodes.get(&peer).map(|n| n.id)
    }

    /// Per-node state (diagnostics/tests).
    pub fn node(&self, peer: PeerId) -> Option<&PastryNode> {
        self.nodes.get(&peer)
    }

    /// The globally correct replica root for `key`: the live node with the
    /// numerically closest id. Used as the ground truth in tests and by the
    /// directory's churn repair.
    pub fn responsible(&self, key: NodeId) -> Option<PeerId> {
        let mut best: Option<(u128, NodeId, PeerId)> = None;
        // Check the nearest ring neighbors on both sides of the key.
        let succ = self.ring.range(key..).next().or_else(|| self.ring.iter().next());
        let pred = self.ring.range(..=key).next_back().or_else(|| self.ring.iter().next_back());
        for cand in [succ, pred].into_iter().flatten() {
            let (id, peer) = (*cand.0, *cand.1);
            let d = id.ring_distance(&key);
            match best {
                Some((bd, bid, _)) if bd < d || (bd == d && bid < id) => {}
                _ => best = Some((d, id, peer)),
            }
        }
        best.map(|(_, _, p)| p)
    }

    /// Routes a message from `start` toward `key`, hop by hop through
    /// per-node state. `latency(a, b)` supplies per-hop latency.
    ///
    /// Returns the visited path; delivery happens at the node that finds
    /// itself numerically closest among its leaf set (Pastry's termination
    /// rule).
    pub fn route(
        &self,
        start: PeerId,
        key: NodeId,
        latency: &mut dyn FnMut(PeerId, PeerId) -> f64,
    ) -> Option<RouteOutcome> {
        let mut cur = self.nodes.get(&start)?;
        let mut path = vec![start];
        let mut total = 0.0;
        // log_16(2^128) = 32 rows; 4x slack covers fallback detours.
        for _ in 0..128 {
            let next_peer = self.next_hop(cur, key);
            match next_peer {
                None => return Some(RouteOutcome { path, latency_ms: total }),
                Some(np) => {
                    total += latency(cur.peer, np);
                    path.push(np);
                    cur = self.nodes.get(&np).expect("next hop is a live node");
                }
            }
        }
        // Routing loop — should be unreachable with consistent state.
        None
    }

    /// [`PastryNetwork::route`] plus observability: records a
    /// [`TraceEvent::DhtLookup`] with the hop count into `trace` (a no-op
    /// when the `trace` feature is off).
    pub fn route_traced(
        &self,
        start: PeerId,
        key: NodeId,
        latency: &mut dyn FnMut(PeerId, PeerId) -> f64,
        trace: &mut TraceBuffer,
    ) -> Option<RouteOutcome> {
        let out = self.route(start, key, latency)?;
        trace.record(TraceEvent::DhtLookup { hops: out.hops() as u32 });
        Some(out)
    }

    /// Pastry's per-hop decision from the live node `peer` toward `key`:
    /// `None` means `peer` is the delivery point. This is the primitive a
    /// message-passing deployment calls at every forwarding step.
    pub fn next_hop_from(&self, peer: PeerId, key: NodeId) -> Option<Option<PeerId>> {
        self.nodes.get(&peer).map(|n| self.next_hop(n, key))
    }

    /// Pastry's per-hop decision at `node` for `key`.
    fn next_hop(&self, node: &PastryNode, key: NodeId) -> Option<PeerId> {
        if node.id == key {
            return None;
        }
        // 1. Leaf-set range: jump to the numerically closest leaf (or stop
        //    if the owner is closest).
        if node.leaves.covers(key) {
            return node.leaves.closest_to(key).map(|(_, p)| p);
        }
        // 2. Prefix routing: use the table cell for the key's next digit.
        let here_prefix = node.id.shared_prefix_len(&key);
        if let Some(cell) = node.table.lookup(key) {
            debug_assert!(cell.id.shared_prefix_len(&key) > here_prefix);
            return Some(cell.peer);
        }
        // 3. Rare case: any known node with no shorter prefix that is
        //    numerically closer to the key.
        let mut best: Option<(u128, PeerId)> = None;
        let here_dist = node.id.ring_distance(&key);
        for (cid, cpeer) in node
            .table
            .cells()
            .map(|c| (c.id, c.peer))
            .chain(node.leaves.members())
        {
            if cid.shared_prefix_len(&key) >= here_prefix {
                let d = cid.ring_distance(&key);
                if d < here_dist && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, cpeer));
                }
            }
        }
        best.map(|(_, p)| p)
    }

    /// Adds a node to the network, building its state and announcing it to
    /// every other node (the end state of a Pastry join).
    pub fn add_node(&mut self, peer: PeerId, proximity: &mut dyn FnMut(PeerId, PeerId) -> f64) {
        let id = NodeId::from_peer_index(peer.raw());
        let mut table = RoutingTable::new(id);
        let mut leaves = LeafSet::new(id, self.leaf_side);
        for (&oid, &opeer) in &self.ring {
            table.insert(oid, opeer, proximity(peer, opeer));
            leaves.insert(oid, opeer);
        }
        for node in self.nodes.values_mut() {
            node.table.insert(id, peer, proximity(node.peer, peer));
            node.leaves.insert(id, peer);
        }
        self.ring.insert(id, peer);
        self.nodes.insert(peer, PastryNode { id, peer, table, leaves });
    }

    /// Removes a departed node and repairs the leaf set of every survivor
    /// that held it (the converged end state of Pastry's failure recovery).
    /// A leaf set keeps only the nearest ids on each side, so refilling it
    /// from the survivor's `leaf_side` ring successors and predecessors
    /// yields exactly the set a refill from the whole membership would;
    /// survivors that never held the departed id are already converged.
    /// Routing-table holes are left to the fallback path, as in real Pastry
    /// before lazy repair fills them.
    pub fn remove_node(&mut self, peer: PeerId) {
        let Some(node) = self.nodes.remove(&peer) else { return };
        self.ring.remove(&node.id);
        let side = self.leaf_side;
        for survivor in self.nodes.values_mut() {
            survivor.table.remove(node.id);
            if !survivor.leaves.remove(node.id) {
                continue;
            }
            // Cyclic windows; on rings smaller than 2 × side + 1 they
            // overlap, and `insert` ignores the repeats.
            let (id, ring) = (survivor.id, &self.ring);
            let after = || ring.range((Excluded(id), Unbounded));
            let succ = after().chain(ring.range(..id)).take(side);
            let pred = ring.range(..id).rev().chain(after().rev()).take(side);
            for (&oid, &opeer) in succ.chain(pred) {
                survivor.leaves.insert(oid, opeer);
            }
        }
    }

    /// Live peers (arbitrary order).
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.nodes.keys().copied()
    }
}

/// Above this membership size, [`PastryNetwork::build`] switches from the
/// omniscient O(n²) construction to the incremental O(n·log n) one. Below
/// it the two differ only in cost, but the omniscient path is kept so that
/// paper-scale worlds reproduce the seed state cell-for-cell (the golden
/// trace tests pin its hop counts).
pub const INCREMENTAL_BUILD_THRESHOLD: usize = 4096;

/// Candidates sampled per routing-table cell by the incremental build.
/// The full candidate set for a cell is a contiguous range of the sorted
/// ring (every id with the cell's prefix); sampling a bounded, evenly
/// spaced subset keeps construction O(n·log n) while still letting the
/// proximity heuristic pick a close entry. Routing correctness never
/// depends on the choice — delivery terminates through the leaf set.
const CELL_CANDIDATE_SAMPLES: usize = 6;

/// Builds one node's routing state from the sorted ring membership:
/// leaf sets from the `leaf_side` ring-window neighbors on each side
/// (identical to the omniscient construction, which also keeps exactly
/// the nearest `side` per direction), and routing-table cells from
/// binary-searched prefix ranges with bounded candidate sampling.
fn build_node_incremental(
    membership: &[(NodeId, PeerId)],
    i: usize,
    leaf_side: usize,
    proximity: &mut dyn FnMut(PeerId, PeerId) -> f64,
) -> PastryNode {
    let n = membership.len();
    let (id, peer) = membership[i];
    let mut leaves = LeafSet::new(id, leaf_side);
    // Ring-window neighbors: sorted order == clockwise order, so the
    // `leaf_side` successors/predecessors are exactly the converged set.
    for step in 1..=leaf_side.min(n.saturating_sub(1)) {
        let (sid, speer) = membership[(i + step) % n];
        if sid != id {
            leaves.insert(sid, speer);
        }
        let (pid, ppeer) = membership[(i + n - step) % n];
        if pid != id {
            leaves.insert(pid, ppeer);
        }
    }

    let mut table = RoutingTable::new(id);
    for row in 0..NUM_DIGITS {
        // Row `row` candidates share digits [0, row) with the owner. Once
        // that prefix range holds nobody but the owner, every deeper row
        // is empty — stop. With random ids this bounds the loop at
        // ~log₁₆(n) + O(1) rows.
        if row > 0 {
            let (lo, hi) = prefix_range(id, row - 1, id.digit(row - 1));
            let start = membership.partition_point(|&(m, _)| m.0 < lo);
            let end = membership.partition_point(|&(m, _)| m.0 <= hi);
            if end - start <= 1 {
                break;
            }
        }
        let own_digit = id.digit(row);
        for digit in 0..DIGIT_BASE {
            if digit == own_digit {
                continue;
            }
            let (lo, hi) = prefix_range(id, row, digit);
            // Sorted-ring slice of ids in [lo, hi].
            let start = membership.partition_point(|&(m, _)| m.0 < lo);
            let end = membership.partition_point(|&(m, _)| m.0 <= hi);
            if start == end {
                continue;
            }
            // Evenly spaced deterministic sample; closest by proximity
            // wins, first-seen on ties (matching RoutingTable::insert).
            let len = end - start;
            let samples = CELL_CANDIDATE_SAMPLES.min(len);
            let mut best: Option<(f64, NodeId, PeerId)> = None;
            for s in 0..samples {
                let idx = start + s * len / samples;
                let (cid, cpeer) = membership[idx];
                let d = proximity(peer, cpeer);
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, cid, cpeer));
                }
            }
            if let Some((d, cid, cpeer)) = best {
                table.insert(cid, cpeer, d);
            }
        }
    }
    PastryNode { id, peer, table, leaves }
}

/// Inclusive `u128` value range of ids whose digits match `id` on
/// `[0, row)` and have `digit` at position `row`.
fn prefix_range(id: NodeId, row: usize, digit: usize) -> (u128, u128) {
    let shift = 128 - 4 * (row + 1);
    let keep_mask: u128 = if row == 0 { 0 } else { u128::MAX << (128 - 4 * row) };
    let lo = (id.0 & keep_mask) | ((digit as u128) << shift);
    let span: u128 = if shift == 0 { 0 } else { (1u128 << shift) - 1 };
    (lo, lo | span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidernet_util::rng::rng_for;

    fn flat_latency(_: PeerId, _: PeerId) -> f64 {
        1.0
    }

    fn build(n: u64) -> PastryNetwork {
        let peers: Vec<PeerId> = (0..n).map(PeerId::new).collect();
        PastryNetwork::build(&peers, &mut flat_latency)
    }

    #[test]
    fn routing_reaches_the_responsible_node() {
        let net = build(64);
        for probe in 0..200u64 {
            let key = NodeId::from_peer_index(10_000 + probe);
            let start = PeerId::new(probe % 64);
            let out = net.route(start, key, &mut flat_latency).expect("no loop");
            assert_eq!(
                out.destination(),
                net.responsible(key).unwrap(),
                "probe {probe} from {start}"
            );
        }
    }

    #[test]
    fn hop_counts_are_logarithmic() {
        let net = build(256);
        let mut worst = 0;
        for probe in 0..100u64 {
            let key = NodeId::from_peer_index(55_000 + probe);
            let out = net.route(PeerId::new(probe % 256), key, &mut flat_latency).unwrap();
            worst = worst.max(out.hops());
        }
        // ceil(log_16 256) = 2; leaf-set hops can add a couple more.
        assert!(worst <= 5, "worst-case hops {worst}");
    }

    #[test]
    fn routing_to_own_key_is_zero_hops() {
        let net = build(32);
        let p = PeerId::new(7);
        let key = net.node_id(p).unwrap();
        let out = net.route(p, key, &mut flat_latency).unwrap();
        assert_eq!(out.hops(), 0);
        assert_eq!(out.destination(), p);
        assert_eq!(out.latency_ms, 0.0);
    }

    #[test]
    fn latency_accumulates_per_hop() {
        let net = build(64);
        let key = NodeId::from_peer_index(99_999);
        let out = net.route(PeerId::new(0), key, &mut |_, _| 7.5).unwrap();
        assert!((out.latency_ms - 7.5 * out.hops() as f64).abs() < 1e-9);
    }

    #[test]
    fn departure_reroutes_to_new_responsible() {
        let mut net = build(48);
        let key = NodeId::from_peer_index(123_456);
        let old_root = net.responsible(key).unwrap();
        net.remove_node(old_root);
        let new_root = net.responsible(key).unwrap();
        assert_ne!(old_root, new_root);
        for start in (0..48).map(PeerId::new) {
            if !net.contains(start) {
                continue;
            }
            let out = net.route(start, key, &mut flat_latency).unwrap();
            assert_eq!(out.destination(), new_root, "from {start}");
        }
    }

    /// The departure repair `remove_node` ran before the ring-window
    /// refill: every survivor is re-offered the whole membership. Kept as
    /// the oracle the ring-window repair must match.
    fn remove_node_full_refill(net: &mut PastryNetwork, peer: PeerId) {
        let Some(node) = net.nodes.remove(&peer) else { return };
        net.ring.remove(&node.id);
        let membership: Vec<(NodeId, PeerId)> = net.ring.iter().map(|(k, v)| (*k, *v)).collect();
        for survivor in net.nodes.values_mut() {
            survivor.table.remove(node.id);
            survivor.leaves.remove(node.id);
            for &(oid, opeer) in &membership {
                if oid != survivor.id {
                    survivor.leaves.insert(oid, opeer);
                }
            }
        }
    }

    #[test]
    fn ring_window_repair_matches_full_membership_refill() {
        let mut rng = rng_for(12, "leaf-repair-oracle");
        let overlap_below = 2 * DEFAULT_SIDE + 1;
        let mut overlapping_steps = 0;
        for trial in 0..48u64 {
            // Even trials start below the overlap size, odd ones anywhere
            // up to 64; a random walk of departures and (re)joins then
            // keeps the ring between 1 and 64 nodes.
            let start = if trial % 2 == 0 {
                rng.gen_range(2..overlap_below as u64)
            } else {
                rng.gen_range(2..65u64)
            };
            let mut live: Vec<PeerId> = (0..start).map(PeerId::new).collect();
            let mut dead: Vec<PeerId> = Vec::new();
            let mut next = start;
            let mut net = PastryNetwork::build(&live, &mut flat_latency);
            let mut reference = net.clone();
            for step in 0..50 {
                let depart = live.len() >= 64 || (live.len() > 1 && rng.gen_range(0..2u32) == 0);
                if depart {
                    let victim = live.swap_remove(rng.gen_range(0..live.len()));
                    net.remove_node(victim);
                    remove_node_full_refill(&mut reference, victim);
                    dead.push(victim);
                } else {
                    let joiner = if !dead.is_empty() && rng.gen_range(0..2u32) == 0 {
                        dead.swap_remove(rng.gen_range(0..dead.len()))
                    } else {
                        let fresh = PeerId::new(next);
                        next += 1;
                        fresh
                    };
                    net.add_node(joiner, &mut flat_latency);
                    reference.add_node(joiner, &mut flat_latency);
                    live.push(joiner);
                }
                if live.len() < overlap_below {
                    overlapping_steps += 1;
                }
                assert_eq!(net.ring, reference.ring, "trial {trial} step {step}: ring");
                for (peer, want) in &reference.nodes {
                    let got: Vec<(NodeId, PeerId)> = net.nodes[peer].leaves.members().collect();
                    let want: Vec<(NodeId, PeerId)> = want.leaves.members().collect();
                    assert_eq!(got, want, "trial {trial} step {step}: leaf set of {peer}");
                }
            }
        }
        assert!(overlapping_steps > 100, "only {overlapping_steps} steps on overlapping rings");
    }

    #[test]
    fn arrival_takes_over_keys_it_is_closest_to() {
        let mut net = build(16);
        // Add many nodes; every key must afterwards route to the global
        // closest node.
        for p in 100..140u64 {
            net.add_node(PeerId::new(p), &mut flat_latency);
        }
        assert_eq!(net.len(), 56);
        for probe in 0..50u64 {
            let key = NodeId::from_peer_index(7_000 + probe);
            let out = net.route(PeerId::new(3), key, &mut flat_latency).unwrap();
            assert_eq!(out.destination(), net.responsible(key).unwrap());
        }
    }

    #[test]
    fn two_node_network_routes() {
        let net = build(2);
        let key = NodeId::from_peer_index(42);
        let out = net.route(PeerId::new(0), key, &mut flat_latency).unwrap();
        assert_eq!(out.destination(), net.responsible(key).unwrap());
        assert!(out.hops() <= 1);
    }

    #[test]
    fn route_from_unknown_peer_is_none() {
        let net = build(4);
        assert!(net.route(PeerId::new(99), NodeId::new(1), &mut flat_latency).is_none());
    }

    #[test]
    fn next_hop_from_walks_to_delivery() {
        // Manually following next_hop_from must terminate at the
        // responsible node — the primitive the threaded runtime uses.
        let net = build(48);
        for probe in 0..30u64 {
            let key = NodeId::from_peer_index(90_000 + probe);
            let mut cur = PeerId::new(probe % 48);
            let mut hops = 0;
            loop {
                match net.next_hop_from(cur, key) {
                    Some(Some(next)) => {
                        cur = next;
                        hops += 1;
                        assert!(hops < 64, "routing loop");
                    }
                    Some(None) => break,
                    None => panic!("walked onto a dead peer"),
                }
            }
            assert_eq!(cur, net.responsible(key).unwrap(), "probe {probe}");
        }
        assert!(net.next_hop_from(PeerId::new(999), NodeId::new(1)).is_none());
    }

    #[test]
    fn incremental_build_routes_to_responsible() {
        let peers: Vec<PeerId> = (0..500).map(PeerId::new).collect();
        let net = PastryNetwork::build_parallel(&peers, &|_, _| 1.0, 1);
        assert_eq!(net.len(), 500);
        for probe in 0..200u64 {
            let key = NodeId::from_peer_index(31_000 + probe);
            let start = PeerId::new(probe % 500);
            let out = net.route(start, key, &mut flat_latency).expect("no loop");
            assert_eq!(out.destination(), net.responsible(key).unwrap(), "probe {probe}");
        }
    }

    #[test]
    fn incremental_hop_counts_stay_logarithmic() {
        let peers: Vec<PeerId> = (0..2000).map(PeerId::new).collect();
        let net = PastryNetwork::build_parallel(&peers, &|_, _| 1.0, 1);
        let mut worst = 0;
        for probe in 0..100u64 {
            let key = NodeId::from_peer_index(77_000 + probe);
            let out = net.route(PeerId::new(probe % 2000), key, &mut flat_latency).unwrap();
            worst = worst.max(out.hops());
        }
        // ceil(log_16 2000) = 3; sampled tables may add leaf-set detours.
        assert!(worst <= 7, "worst-case hops {worst}");
    }

    #[test]
    fn parallel_build_is_thread_invariant() {
        let peers: Vec<PeerId> = (0..300).map(PeerId::new).collect();
        // A proximity with real structure, so cell choices matter.
        let prox = |a: PeerId, b: PeerId| ((a.raw() * 31 + b.raw() * 17) % 97) as f64;
        let reference = PastryNetwork::build_parallel(&peers, &prox, 1);
        for threads in [2usize, 8] {
            let net = PastryNetwork::build_parallel(&peers, &prox, threads);
            for &p in &peers {
                let a = reference.node(p).unwrap();
                let b = net.node(p).unwrap();
                let cells_a: Vec<(NodeId, PeerId)> = a.table.cells().map(|c| (c.id, c.peer)).collect();
                let cells_b: Vec<(NodeId, PeerId)> = b.table.cells().map(|c| (c.id, c.peer)).collect();
                assert_eq!(cells_a, cells_b, "tables diverged at {threads} threads for {p}");
                let leaves_a: Vec<(NodeId, PeerId)> = a.leaves.members().collect();
                let leaves_b: Vec<(NodeId, PeerId)> = b.leaves.members().collect();
                assert_eq!(leaves_a, leaves_b, "leaves diverged at {threads} threads for {p}");
            }
        }
    }

    #[test]
    fn incremental_leaf_sets_match_omniscient_construction() {
        let peers: Vec<PeerId> = (0..300).map(PeerId::new).collect();
        let omniscient = PastryNetwork::build(&peers, &mut flat_latency);
        let incremental = PastryNetwork::build_parallel(&peers, &|_, _| 1.0, 1);
        for &p in &peers {
            let a: Vec<(NodeId, PeerId)> =
                omniscient.node(p).unwrap().leaves.members().collect();
            let b: Vec<(NodeId, PeerId)> =
                incremental.node(p).unwrap().leaves.members().collect();
            assert_eq!(a, b, "leaf set diverged for {p}");
        }
    }

    #[test]
    fn proximity_prefers_close_table_entries() {
        // With a proximity metric that makes peer 1 very close to peer 0,
        // peer 0's table should prefer peer 1 over same-cell alternatives.
        let peers: Vec<PeerId> = (0..32).map(PeerId::new).collect();
        let mut prox = |a: PeerId, b: PeerId| {
            if (a.raw(), b.raw()) == (0, 1) || (a.raw(), b.raw()) == (1, 0) {
                0.1
            } else {
                50.0
            }
        };
        let net = PastryNetwork::build(&peers, &mut prox);
        let n0 = net.node(PeerId::new(0)).unwrap();
        let id1 = net.node_id(PeerId::new(1)).unwrap();
        // Find the cell where node 1 would live; it must contain node 1
        // (nothing can beat 0.1ms proximity).
        let row = n0.id().shared_prefix_len(&id1);
        let _ = row;
        assert!(
            n0.table.cells().any(|c| c.peer == PeerId::new(1)),
            "closest peer missing from routing table"
        );
    }
}
