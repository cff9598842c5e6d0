//! Generational slot arena: dense `u32` indices with safe recycling.
//!
//! The million-peer world state keeps its hot tables as flat `Vec`s keyed
//! by dense indices. Entities that churn (soft-state reservations, queued
//! events, revived peers' per-session records) recycle their slots, and a
//! recycled slot must never be reachable through a stale handle — a
//! crash→revive cycle that hands peer *B* the slot peer *A* used to own
//! cannot let a leftover reference to *A* read or mutate *B*'s row.
//!
//! [`SlotArena`] solves this the way dslab's `simcore` and typed-arena
//! designs do: every slot carries a generation counter, and a [`SlotKey`]
//! is only valid while its generation matches the slot's. Freeing a slot
//! bumps the generation, so every key minted before the free goes stale
//! atomically. Iteration order is slot-index order, which — because slots
//! are handed out lowest-free-first from a sorted free list — is stable
//! and deterministic for any fixed sequence of insert/remove calls.

/// Handle to an entry in a [`SlotArena`]: a dense slot index plus the
/// generation the slot had when the entry was inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotKey {
    /// Dense slot index.
    pub slot: u32,
    /// Generation the slot had at insertion.
    pub gen: u32,
}

impl SlotKey {
    /// Packs the key into a single `u64` (`gen` in the high half) for
    /// storage in `u64`-shaped token types. Round-trips via
    /// [`SlotKey::from_raw`].
    #[inline]
    pub const fn to_raw(self) -> u64 {
        ((self.gen as u64) << 32) | self.slot as u64
    }

    /// Unpacks a key previously produced by [`SlotKey::to_raw`].
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        SlotKey { slot: raw as u32, gen: (raw >> 32) as u32 }
    }
}

#[derive(Clone, Debug)]
struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// A generational arena over dense `u32` slots.
///
/// * `insert` is O(1) amortized and reuses the lowest free slot first, so
///   slot assignment is a pure function of the insert/remove history;
/// * `get`/`get_mut`/`remove` validate the key's generation — operations
///   through a stale key are rejected (`None`/`false`), never aliased;
/// * `iter` walks live entries in slot order.
#[derive(Clone, Debug)]
pub struct SlotArena<T> {
    slots: Vec<Slot<T>>,
    /// Free slot indices, kept as a min-heap on the negated index via
    /// sorted-descending `Vec` (pop takes the smallest).
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for SlotArena<T> {
    fn default() -> Self {
        SlotArena { slots: Vec::new(), free: Vec::new(), live: 0 }
    }
}

impl<T> SlotArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        SlotArena::default()
    }

    /// An empty arena with capacity for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        SlotArena { slots: Vec::with_capacity(n), free: Vec::new(), live: 0 }
    }

    /// Inserts a value, returning its key. Reuses the lowest free slot.
    pub fn insert(&mut self, value: T) -> SlotKey {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.value.is_none());
            s.value = Some(value);
            return SlotKey { slot, gen: s.gen };
        }
        let slot = self.slots.len() as u32;
        self.slots.push(Slot { gen: 0, value: Some(value) });
        SlotKey { slot, gen: 0 }
    }

    /// The value behind `key`, if the key is still current.
    #[inline]
    pub fn get(&self, key: SlotKey) -> Option<&T> {
        self.slots
            .get(key.slot as usize)
            .filter(|s| s.gen == key.gen)
            .and_then(|s| s.value.as_ref())
    }

    /// Mutable access behind `key`, if the key is still current.
    #[inline]
    pub fn get_mut(&mut self, key: SlotKey) -> Option<&mut T> {
        self.slots
            .get_mut(key.slot as usize)
            .filter(|s| s.gen == key.gen)
            .and_then(|s| s.value.as_mut())
    }

    /// Removes and returns the value behind `key`. A stale or already
    /// freed key returns `None` and changes nothing. Freeing bumps the
    /// slot's generation, invalidating every outstanding copy of `key`.
    pub fn remove(&mut self, key: SlotKey) -> Option<T> {
        let s = self.slots.get_mut(key.slot as usize)?;
        if s.gen != key.gen || s.value.is_none() {
            return None;
        }
        let value = s.value.take();
        s.gen = s.gen.wrapping_add(1);
        self.live -= 1;
        // Keep the free list sorted descending so `pop` hands out the
        // lowest index first (deterministic slot assignment).
        let pos = self.free.partition_point(|&f| f > key.slot);
        self.free.insert(pos, key.slot);
        value
    }

    /// True if `key` still addresses a live entry.
    #[inline]
    pub fn contains(&self, key: SlotKey) -> bool {
        self.get(key).is_some()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live entries in slot-index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotKey, &T)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| (SlotKey { slot: i as u32, gen: s.gen }, v))
        })
    }

    /// Removes every entry for which `keep` returns false, in slot order.
    pub fn retain(&mut self, mut keep: impl FnMut(SlotKey, &T) -> bool) {
        let doomed: Vec<SlotKey> = self
            .iter()
            .filter_map(|(k, v)| (!keep(k, v)).then_some(k))
            .collect();
        for k in doomed {
            self.remove(k);
        }
    }

    /// Drops every entry (generations are kept, so old keys stay stale).
    pub fn clear(&mut self) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.value.take().is_some() {
                s.gen = s.gen.wrapping_add(1);
                let slot = i as u32;
                let pos = self.free.partition_point(|&f| f > slot);
                self.free.insert(pos, slot);
            }
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut a = SlotArena::new();
        let k = a.insert("x");
        assert_eq!(a.get(k), Some(&"x"));
        assert_eq!(a.len(), 1);
        assert_eq!(a.remove(k), Some("x"));
        assert!(a.is_empty());
        assert_eq!(a.get(k), None);
    }

    #[test]
    fn recycled_slot_does_not_alias_live_entry() {
        // The churn scenario: A crashes (its slot is freed), B revives into
        // the recycled slot. A's old key must not read or free B's entry.
        let mut a = SlotArena::new();
        let key_a = a.insert("peer-a");
        assert_eq!(a.remove(key_a), Some("peer-a"));
        let key_b = a.insert("peer-b");
        assert_eq!(key_b.slot, key_a.slot, "slot should be recycled");
        assert_ne!(key_b.gen, key_a.gen, "generation must advance");
        assert_eq!(a.get(key_a), None, "stale key must not alias");
        assert_eq!(a.remove(key_a), None, "stale free must be a no-op");
        assert_eq!(a.get(key_b), Some(&"peer-b"));
    }

    #[test]
    fn double_remove_is_a_no_op() {
        let mut a = SlotArena::new();
        let k = a.insert(7);
        assert_eq!(a.remove(k), Some(7));
        assert_eq!(a.remove(k), None);
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn lowest_free_slot_is_reused_first() {
        let mut a = SlotArena::new();
        let ks: Vec<_> = (0..4).map(|i| a.insert(i)).collect();
        a.remove(ks[2]);
        a.remove(ks[0]);
        // Lowest index first, regardless of free order.
        assert_eq!(a.insert(10).slot, 0);
        assert_eq!(a.insert(11).slot, 2);
        assert_eq!(a.insert(12).slot, 4);
    }

    #[test]
    fn iteration_is_slot_ordered() {
        let mut a = SlotArena::new();
        let k0 = a.insert("a");
        let _k1 = a.insert("b");
        let _k2 = a.insert("c");
        a.remove(k0);
        a.insert("d"); // recycles slot 0
        let order: Vec<&str> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, vec!["d", "b", "c"]);
    }

    #[test]
    fn slot_assignment_is_deterministic_for_fixed_history() {
        let run = || {
            let mut a = SlotArena::new();
            let mut keys = Vec::new();
            for i in 0..50u32 {
                keys.push(a.insert(i));
                if i % 3 == 0 {
                    let victim = keys[(i as usize) / 2];
                    a.remove(victim);
                }
            }
            keys
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn raw_round_trip() {
        let k = SlotKey { slot: 123, gen: 456 };
        assert_eq!(SlotKey::from_raw(k.to_raw()), k);
    }

    #[test]
    fn retain_and_clear_invalidate_keys() {
        let mut a = SlotArena::new();
        let keys: Vec<_> = (0..6).map(|i| a.insert(i)).collect();
        a.retain(|_, &v| v % 2 == 0);
        assert_eq!(a.len(), 3);
        assert!(a.contains(keys[0]) && !a.contains(keys[1]));
        a.clear();
        assert!(a.is_empty());
        for k in keys {
            assert!(!a.contains(k));
        }
    }
}
