//! The Pastry routing table: `NUM_DIGITS` rows × `DIGIT_BASE` columns.
//!
//! Row `r` holds nodes sharing exactly `r` leading digits with the owner;
//! column `c` within the row holds a node whose digit `r` is `c`. When
//! several candidates fit a cell, Pastry keeps the one closest by the
//! network proximity metric — here, overlay latency supplied by the
//! network builder.

use crate::nodeid::{NodeId, DIGIT_BASE, NUM_DIGITS};
use spidernet_util::id::PeerId;

/// One routing-table cell: a known node plus its proximity to the owner.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Ring id of the referenced node.
    pub id: NodeId,
    /// Overlay peer hosting it.
    pub peer: PeerId,
    /// Proximity metric (overlay latency, ms) from the table's owner.
    pub proximity: f64,
}

/// A node's routing table.
///
/// Rows are allocated lazily: with random ids only the top
/// `~log₁₆(nodes) + O(1)` rows ever hold an entry, and an eagerly
/// allocated `NUM_DIGITS × DIGIT_BASE` grid costs ~20 KB per node —
/// gigabytes at 10^5–10^6 peers. A row beyond `rows.len()` is
/// indistinguishable from an allocated all-`None` row.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    owner: NodeId,
    rows: Vec<[Option<Cell>; DIGIT_BASE]>,
}

impl RoutingTable {
    /// An empty table for `owner`.
    pub fn new(owner: NodeId) -> Self {
        RoutingTable { owner, rows: Vec::new() }
    }

    /// The table owner's id.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Offers a node for the table. It lands in row
    /// `shared_prefix_len(owner, id)`, column `id.digit(row)`; an occupied
    /// cell is replaced only by a closer (lower-proximity) candidate.
    pub fn insert(&mut self, id: NodeId, peer: PeerId, proximity: f64) {
        if id == self.owner {
            return;
        }
        let row = self.owner.shared_prefix_len(&id);
        debug_assert!(row < NUM_DIGITS);
        let col = id.digit(row);
        debug_assert_ne!(col, self.owner.digit(row), "cell digit equals owner digit");
        if row >= self.rows.len() {
            self.rows.resize(row + 1, [None; DIGIT_BASE]);
        }
        let cell = &mut self.rows[row][col];
        match cell {
            Some(existing) if existing.proximity <= proximity && existing.id != id => {}
            _ => *cell = Some(Cell { id, peer, proximity }),
        }
    }

    /// Removes a departed node. [`RoutingTable::insert`] only ever places
    /// `id` in row `shared_prefix_len(owner, id)`, column `id.digit(row)`,
    /// so that one cell is cleared, and only while it holds `id`: a node
    /// that lost the cell's proximity contest leaves the holder in place.
    pub fn remove(&mut self, id: NodeId) {
        let row = self.owner.shared_prefix_len(&id);
        if row >= self.rows.len() {
            return;
        }
        let cell = &mut self.rows[row][id.digit(row)];
        if cell.is_some_and(|c| c.id == id) {
            *cell = None;
        }
    }

    /// The cell for routing `key`: row = shared prefix length with the
    /// owner, column = the key's next digit. `None` if the cell is empty
    /// (or the key equals the owner's id region, where the leaf set takes
    /// over).
    pub fn lookup(&self, key: NodeId) -> Option<Cell> {
        let row = self.owner.shared_prefix_len(&key);
        if row >= self.rows.len() {
            return None;
        }
        self.rows[row][key.digit(row)]
    }

    /// All populated cells (for the "rare case" fallback scan and for
    /// state-transfer during joins).
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        self.rows.iter().flat_map(|r| r.iter().flatten().copied())
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.rows.iter().map(|r| r.iter().flatten().count()).sum()
    }

    /// True if no cells are populated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(top_digits: &[usize]) -> NodeId {
        let mut v: u128 = 0;
        for (i, &d) in top_digits.iter().enumerate() {
            v |= (d as u128) << (124 - 4 * i);
        }
        NodeId::new(v)
    }

    #[test]
    fn insert_places_by_prefix_and_digit() {
        let owner = nid(&[0xA, 0xB]);
        let mut rt = RoutingTable::new(owner);
        let other = nid(&[0xA, 0xC]); // shares 1 digit, next digit C
        rt.insert(other, PeerId::new(1), 5.0);
        let got = rt.lookup(nid(&[0xA, 0xC, 0x3])).unwrap();
        assert_eq!(got.id, other);
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn closer_candidate_replaces() {
        let owner = nid(&[0xA]);
        let mut rt = RoutingTable::new(owner);
        let c1 = nid(&[0xB, 0x1]);
        let c2 = nid(&[0xB, 0x2]);
        rt.insert(c1, PeerId::new(1), 10.0);
        rt.insert(c2, PeerId::new(2), 3.0); // same cell (row 0, col B), closer
        let got = rt.lookup(nid(&[0xB])).unwrap();
        assert_eq!(got.id, c2);
        assert_eq!(rt.len(), 1);
        // A farther candidate does not displace it.
        rt.insert(c1, PeerId::new(1), 10.0);
        assert_eq!(rt.lookup(nid(&[0xB])).unwrap().id, c2);
    }

    #[test]
    fn owner_never_inserted() {
        let owner = nid(&[0xA]);
        let mut rt = RoutingTable::new(owner);
        rt.insert(owner, PeerId::new(0), 0.0);
        assert!(rt.is_empty());
    }

    #[test]
    fn remove_clears_cells() {
        let owner = nid(&[0xA]);
        let mut rt = RoutingTable::new(owner);
        let c = nid(&[0xB]);
        rt.insert(c, PeerId::new(1), 1.0);
        rt.remove(c);
        assert!(rt.is_empty());
        assert!(rt.lookup(nid(&[0xB])).is_none());

        // `loser` lost cell (0, B) to the closer `holder`; removing it
        // leaves the holder in place, and removing the holder clears it.
        let holder = nid(&[0xB, 0x1]);
        let loser = nid(&[0xB, 0x2]);
        rt.insert(holder, PeerId::new(2), 1.0);
        rt.insert(loser, PeerId::new(3), 5.0);
        rt.remove(loser);
        assert_eq!(rt.lookup(nid(&[0xB])).unwrap().id, holder);
        assert_eq!(rt.len(), 1);
        rt.remove(owner);
        rt.remove(nid(&[0xA, 0x7])); // a row never allocated
        assert_eq!(rt.len(), 1);
        rt.remove(holder);
        assert!(rt.is_empty());
    }

    #[test]
    fn lookup_uses_deeper_rows_for_longer_prefixes() {
        let owner = nid(&[0xA, 0xB, 0xC]);
        let mut rt = RoutingTable::new(owner);
        let shallow = nid(&[0x1]);
        let deep = nid(&[0xA, 0xB, 0xD]);
        rt.insert(shallow, PeerId::new(1), 1.0);
        rt.insert(deep, PeerId::new(2), 1.0);
        assert_eq!(rt.lookup(nid(&[0x1, 0xF])).unwrap().id, shallow);
        assert_eq!(rt.lookup(nid(&[0xA, 0xB, 0xD, 0x9])).unwrap().id, deep);
    }

    #[test]
    fn rows_allocate_lazily() {
        let owner = nid(&[0xA, 0xB, 0xC]);
        let mut rt = RoutingTable::new(owner);
        assert_eq!(rt.rows.len(), 0, "fresh table holds no rows");
        rt.insert(nid(&[0xA, 0xB, 0xD]), PeerId::new(1), 1.0); // row 2
        assert_eq!(rt.rows.len(), 3, "rows grow only to the deepest insert");
        // Lookups beyond the allocated depth behave like empty rows.
        assert!(rt.lookup(nid(&[0xA, 0xB, 0xC, 0x5])).is_none());
        assert_eq!(rt.lookup(nid(&[0xA, 0xB, 0xD])).unwrap().peer, PeerId::new(1));
    }

    #[test]
    fn cells_iterates_all() {
        let owner = nid(&[0xA]);
        let mut rt = RoutingTable::new(owner);
        rt.insert(nid(&[0xB]), PeerId::new(1), 1.0);
        rt.insert(nid(&[0xC]), PeerId::new(2), 1.0);
        rt.insert(nid(&[0xA, 0x1]), PeerId::new(3), 1.0);
        assert_eq!(rt.cells().count(), 3);
    }
}
