//! Indexed event core for large-scale simulation.
//!
//! At 10^5–10^6 peers the event queue dominates allocation traffic, so
//! the simulator uses this flat core in the style of dslab's `simcore`:
//!
//! * events are `Copy` — a `(u32 handler, u64 payload)` pair, no per-event
//!   allocation;
//! * handlers are dense `u32` ids registered once up front;
//! * cancellation is by generation: scheduling returns an [`EventKey`]
//!   (slot + generation), and cancelling bumps the slot's generation so
//!   the heap entry is lazily discarded when popped. No heap surgery, no
//!   tombstone allocation.
//!
//! Determinism: events pop earliest-time-first with insertion-sequence
//! tie-breaking, so a loop that drains events due at a given tick
//! processes them in the order they were scheduled.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Dense id of a registered event handler (a consumer-side dispatch tag —
/// the core never calls anything, it just hands the id back on pop).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HandlerId(pub u32);

/// Handle to a scheduled (and not yet fired) event, for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventKey {
    slot: u32,
    gen: u32,
}

/// A fired event: which handler it targets and its packed payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fired {
    /// Virtual time the event was scheduled for.
    pub at: SimTime,
    /// Target handler.
    pub handler: HandlerId,
    /// Caller-defined payload (typically a slab index or packed ids).
    pub payload: u64,
}

#[derive(Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for earliest-first pop out of the max-heap.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy)]
struct Slot {
    gen: u32,
    handler: HandlerId,
    payload: u64,
}

/// The indexed event core.
///
/// Slots for in-flight events are recycled lowest-first; a slot's
/// generation advances when its event fires or is cancelled, so stale
/// [`EventKey`]s can never cancel a later event that reused the slot.
pub struct EventCore {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<HeapEntry>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    handlers: Vec<String>,
    live: usize,
    processed: u64,
    cancelled: u64,
}

impl Default for EventCore {
    fn default() -> Self {
        Self::new()
    }
}

impl EventCore {
    /// An empty core at time zero.
    pub fn new() -> Self {
        EventCore {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            handlers: Vec::new(),
            live: 0,
            processed: 0,
            cancelled: 0,
        }
    }

    /// Registers a handler name, returning its dense id. Names are not
    /// deduplicated — register once and keep the id.
    pub fn register_handler(&mut self, name: &str) -> HandlerId {
        let id = HandlerId(self.handlers.len() as u32);
        self.handlers.push(name.to_owned());
        id
    }

    /// The name `handler` was registered under.
    pub fn handler_name(&self, handler: HandlerId) -> &str {
        &self.handlers[handler.0 as usize]
    }

    /// Current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event for `handler` at absolute time `at` (clamped to
    /// `now` if in the past). Returns a key usable with [`EventCore::cancel`].
    pub fn schedule(&mut self, at: SimTime, handler: HandlerId, payload: u64) -> EventKey {
        let at = at.max(self.now);
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.handler = handler;
                sl.payload = payload;
                s
            }
            None => {
                self.slots.push(Slot { gen: 0, handler, payload });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[slot as usize].gen;
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { at, seq, slot, gen });
        self.live += 1;
        EventKey { slot, gen }
    }

    /// Cancels a scheduled event. Returns `true` if the key was current
    /// (the event will not fire); a stale key — the event already fired,
    /// or was cancelled and its slot reused — is a no-op returning `false`.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        match self.slots.get_mut(key.slot as usize) {
            Some(sl) if sl.gen == key.gen => {
                sl.gen = sl.gen.wrapping_add(1);
                self.release_slot(key.slot);
                self.live -= 1;
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Pops the next live event, advancing virtual time. Stale heap
    /// entries (cancelled events) are skipped for free.
    pub fn pop(&mut self) -> Option<Fired> {
        while let Some(entry) = self.heap.pop() {
            let sl = &mut self.slots[entry.slot as usize];
            if sl.gen != entry.gen {
                continue; // cancelled
            }
            sl.gen = sl.gen.wrapping_add(1);
            let fired = Fired { at: entry.at, handler: sl.handler, payload: sl.payload };
            self.release_slot(entry.slot);
            self.live -= 1;
            self.processed += 1;
            self.now = entry.at;
            return Some(fired);
        }
        None
    }

    /// Pops every live event due at or before `until` (and advances `now`
    /// to `until` even if nothing fires).
    pub fn pop_until(&mut self, until: SimTime) -> Vec<Fired> {
        let mut out = Vec::new();
        while let Some(&entry) = self.heap.peek() {
            if entry.at > until {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry");
            let sl = &mut self.slots[entry.slot as usize];
            if sl.gen != entry.gen {
                continue;
            }
            sl.gen = sl.gen.wrapping_add(1);
            out.push(Fired { at: entry.at, handler: sl.handler, payload: sl.payload });
            self.release_slot(entry.slot);
            self.live -= 1;
            self.processed += 1;
        }
        self.now = self.now.max(until);
        out
    }

    /// Timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&entry) = self.heap.peek() {
            if self.slots[entry.slot as usize].gen == entry.gen {
                return Some(entry.at);
            }
            self.heap.pop();
        }
        None
    }

    /// Live (scheduled, not fired, not cancelled) events.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Events fired so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Events cancelled so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    fn release_slot(&mut self, slot: u32) {
        let pos = self.free.partition_point(|&f| f > slot);
        self.free.insert(pos, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut core = EventCore::new();
        let h = core.register_handler("h");
        core.schedule(t(5.0), h, 50);
        core.schedule(t(1.0), h, 10);
        core.schedule(t(5.0), h, 51);
        let fired: Vec<u64> = std::iter::from_fn(|| core.pop()).map(|f| f.payload).collect();
        assert_eq!(fired, vec![10, 50, 51]);
        assert_eq!(core.now(), t(5.0));
        assert_eq!(core.processed(), 3);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut core = EventCore::new();
        let h = core.register_handler("h");
        let a = core.schedule(t(1.0), h, 1);
        core.schedule(t(2.0), h, 2);
        assert!(core.cancel(a));
        assert_eq!(core.pending(), 1);
        let fired: Vec<u64> = std::iter::from_fn(|| core.pop()).map(|f| f.payload).collect();
        assert_eq!(fired, vec![2]);
        assert_eq!(core.cancelled(), 1);
    }

    #[test]
    fn stale_key_cannot_cancel_recycled_slot() {
        let mut core = EventCore::new();
        let h = core.register_handler("h");
        let a = core.schedule(t(1.0), h, 1);
        assert!(core.cancel(a));
        // Slot is recycled for a new event; the stale key must not hit it.
        let b = core.schedule(t(2.0), h, 2);
        assert!(!core.cancel(a), "stale key aliased a recycled slot");
        assert!(core.cancel(b));
        assert!(core.pop().is_none());
    }

    #[test]
    fn fired_event_key_goes_stale() {
        let mut core = EventCore::new();
        let h = core.register_handler("h");
        let a = core.schedule(t(1.0), h, 1);
        assert!(core.pop().is_some());
        assert!(!core.cancel(a), "cancelling a fired event must be a no-op");
    }

    #[test]
    fn pop_until_drains_due_events_in_order() {
        let mut core = EventCore::new();
        let h = core.register_handler("h");
        for (at, p) in [(3.0, 30), (1.0, 10), (3.0, 31), (7.0, 70)] {
            core.schedule(t(at), h, p);
        }
        let due: Vec<u64> = core.pop_until(t(3.0)).iter().map(|f| f.payload).collect();
        assert_eq!(due, vec![10, 30, 31]);
        assert_eq!(core.now(), t(3.0));
        assert_eq!(core.pending(), 1);
        assert_eq!(core.peek_time(), Some(t(7.0)));
    }

    #[test]
    fn no_allocation_payloads_round_trip_handlers() {
        let mut core = EventCore::new();
        let expiry = core.register_handler("session-expiry");
        let sweep = core.register_handler("maintenance-sweep");
        core.schedule(t(1.0), sweep, 0);
        core.schedule(t(1.0), expiry, 42);
        let fired = core.pop_until(t(1.0));
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].handler, sweep);
        assert_eq!(core.handler_name(fired[1].handler), "session-expiry");
        assert_eq!(fired[1].payload, 42);
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut core = EventCore::new();
        let h = core.register_handler("h");
        core.schedule(t(5.0), h, 1);
        core.pop();
        core.schedule(t(1.0), h, 2);
        let f = core.pop().unwrap();
        assert_eq!(f.at, t(5.0));
    }
}
