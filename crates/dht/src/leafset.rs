//! The Pastry leaf set: the L/2 numerically closest live nodes on each side
//! of a node's identifier, used for the final hop(s) of routing and for the
//! replica-root decision.

use crate::nodeid::NodeId;
use spidernet_util::id::PeerId;

/// A leaf-set member: ring id plus its hosting peer.
type Member = (NodeId, PeerId);
/// Directional distance function over the ring.
type DistFn = fn(&NodeId, &NodeId) -> u128;

/// Default leaf-set capacity per side (Pastry uses L = 16, i.e. 8 per side).
pub const DEFAULT_SIDE: usize = 8;

/// A node's leaf set.
#[derive(Clone, Debug)]
pub struct LeafSet {
    owner: NodeId,
    side: usize,
    /// Clockwise successors, nearest first: ids with the smallest positive
    /// clockwise distance from the owner.
    cw: Vec<(NodeId, PeerId)>,
    /// Counter-clockwise predecessors, nearest first.
    ccw: Vec<(NodeId, PeerId)>,
}

impl LeafSet {
    /// An empty leaf set for `owner` holding up to `side` nodes per side.
    pub fn new(owner: NodeId, side: usize) -> Self {
        assert!(side >= 1);
        LeafSet { owner, side, cw: Vec::new(), ccw: Vec::new() }
    }

    /// The id this leaf set belongs to.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Offers a node for membership; keeps the closest `side` per side.
    pub fn insert(&mut self, id: NodeId, peer: PeerId) {
        if id == self.owner {
            return;
        }
        let cw_dist = self.owner.clockwise_distance(&id);
        // A node belongs to the clockwise side if going clockwise reaches it
        // sooner than going counter-clockwise.
        let (list, dist_of): (&mut Vec<Member>, DistFn) =
            if cw_dist <= u128::MAX / 2 {
                (&mut self.cw, |o, i| o.clockwise_distance(i))
            } else {
                (&mut self.ccw, |o, i| i.clockwise_distance(o))
            };
        if list.iter().any(|(e, _)| *e == id) {
            return;
        }
        list.push((id, peer));
        let owner = self.owner;
        list.sort_by_key(|(e, _)| dist_of(&owner, e));
        list.truncate(self.side);
    }

    /// Removes a departed node; returns whether it was a member.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let before = self.len();
        self.cw.retain(|(e, _)| *e != id);
        self.ccw.retain(|(e, _)| *e != id);
        self.len() != before
    }

    /// All members, both sides.
    pub fn members(&self) -> impl Iterator<Item = (NodeId, PeerId)> + '_ {
        self.cw.iter().chain(self.ccw.iter()).copied()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.cw.len() + self.ccw.len()
    }

    /// True if no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns true if `key` lies within the span covered by the leaf set
    /// (between the farthest ccw member and the farthest cw member) — the
    /// condition under which Pastry routes directly to the numerically
    /// closest leaf.
    pub fn covers(&self, key: NodeId) -> bool {
        if self.cw.is_empty() || self.ccw.is_empty() {
            // A sparsely-filled leaf set (tiny network) covers everything.
            return true;
        }
        let cw_edge = self.owner.clockwise_distance(&self.cw.last().expect("non-empty").0);
        let ccw_edge = self.ccw.last().expect("non-empty").0.clockwise_distance(&self.owner);
        let key_cw = self.owner.clockwise_distance(&key);
        let key_ccw = key.clockwise_distance(&self.owner);
        key_cw <= cw_edge || key_ccw <= ccw_edge
    }

    /// The member (or the owner) numerically closest to `key` by ring
    /// distance. Returns `None` for the owner itself (i.e. the owner is the
    /// closest), `Some(peer)` otherwise.
    pub fn closest_to(&self, key: NodeId) -> Option<(NodeId, PeerId)> {
        let mut best: Option<(NodeId, PeerId)> = None;
        let mut best_dist = self.owner.ring_distance(&key);
        for (id, peer) in self.members() {
            let d = id.ring_distance(&key);
            // Tie-break toward the smaller id for determinism.
            if d < best_dist || (d == best_dist && best.is_some_and(|(b, _)| id < b)) {
                best_dist = d;
                best = Some((id, peer));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(x: u128) -> NodeId {
        NodeId::new(x)
    }

    fn ls(owner: u128, side: usize, members: &[u128]) -> LeafSet {
        let mut l = LeafSet::new(id(owner), side);
        for (i, &m) in members.iter().enumerate() {
            l.insert(id(m), PeerId::new(i as u64));
        }
        l
    }

    #[test]
    fn keeps_closest_per_side() {
        let l = ls(100, 2, &[101, 102, 103, 99, 98, 97]);
        let cw: Vec<u128> = l.cw.iter().map(|(e, _)| e.0).collect();
        let ccw: Vec<u128> = l.ccw.iter().map(|(e, _)| e.0).collect();
        assert_eq!(cw, vec![101, 102]);
        assert_eq!(ccw, vec![99, 98]);
    }

    #[test]
    fn owner_and_duplicates_ignored() {
        let mut l = ls(100, 4, &[101]);
        l.insert(id(100), PeerId::new(9));
        l.insert(id(101), PeerId::new(9));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn remove_departed() {
        let mut l = ls(100, 4, &[101, 99]);
        assert!(l.remove(id(101)));
        assert!(!l.remove(id(101)), "a non-member is not removed");
        assert_eq!(l.len(), 1);
        assert_eq!(l.members().next().unwrap().0 .0, 99);
    }

    #[test]
    fn covers_span_between_edges() {
        let l = ls(100, 2, &[110, 120, 90, 80]);
        assert!(l.covers(id(105)));
        assert!(l.covers(id(120)));
        assert!(l.covers(id(85)));
        assert!(!l.covers(id(121)));
        assert!(!l.covers(id(79)));
        assert!(!l.covers(id(u128::MAX / 2)));
    }

    #[test]
    fn sparse_leafset_covers_everything() {
        let l = ls(100, 2, &[110]); // only cw side populated
        assert!(l.covers(id(u128::MAX)));
    }

    #[test]
    fn closest_to_prefers_owner_when_nearest() {
        let l = ls(100, 2, &[110, 90]);
        assert!(l.closest_to(id(101)).is_none()); // owner at distance 1 wins
        let (nid, _) = l.closest_to(id(107)).unwrap();
        assert_eq!(nid.0, 110);
        let (nid, _) = l.closest_to(id(93)).unwrap();
        assert_eq!(nid.0, 90);
    }

    #[test]
    fn wraparound_membership() {
        // Owner near the top of the ring: successors wrap through zero.
        let top = u128::MAX - 5;
        let l = ls(top, 2, &[u128::MAX - 1, 3, top - 10]);
        let cw: Vec<u128> = l.cw.iter().map(|(e, _)| e.0).collect();
        assert_eq!(cw, vec![u128::MAX - 1, 3]);
        let ccw: Vec<u128> = l.ccw.iter().map(|(e, _)| e.0).collect();
        assert_eq!(ccw, vec![top - 10]);
        assert!(l.covers(id(0)));
    }
}
