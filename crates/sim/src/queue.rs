//! The simulator's one event queue.
//!
//! Every simulated clock pops its events from an [`EventQueue`]: the
//! session expiries of `spidernet-core`'s `Scenario` and the congestion
//! driver's rate recalcs, and the in-process cluster and each socket
//! daemon in `spidernet-runtime`. An item is due at a model time in
//! milliseconds (`f64`); the queue pops the earliest due item first, and
//! items due at the same time in the order they were pushed.
//!
//! Keys are `f64` ms because the runtime's clocks are: messages carry
//! float `at_ms` timestamps and a daemon reads its clock off the wall, so
//! rounding their due times to integer µs would reorder events. Callers
//! on the integer-µs [`SimTime`](crate::time::SimTime) clock push
//! `as_ms()`, which keeps their order (see that module's docs).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Items due at model ms, popped earliest first and in push order on ties.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Items pushed so far: the next item's `seq`.
    pushed: u64,
}

struct Entry<T> {
    due: f64,
    /// Push order, which breaks ties between equal due times.
    seq: u64,
    item: T,
}

impl<T> Ord for Entry<T> {
    /// Reversed, so the max-heap pops the earliest due time first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.due.total_cmp(&self.due).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), pushed: 0 }
    }
}

impl<T> EventQueue<T> {
    /// Queues `item`, due at model ms `due`.
    pub fn push(&mut self, due: f64, item: T) {
        let seq = self.pushed;
        self.pushed += 1;
        self.heap.push(Entry { due, seq, item });
    }

    /// Model ms the earliest item is due at.
    pub fn next_due(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.due)
    }

    /// Pops the earliest item, with its due time, if it is due by
    /// `deadline` (inclusive).
    pub fn pop_due(&mut self, deadline: f64) -> Option<(f64, T)> {
        if self.heap.peek()?.due <= deadline {
            self.heap.pop().map(|e| (e.due, e.item))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn drain<T>(q: &mut EventQueue<T>, deadline: f64) -> Vec<T> {
        std::iter::from_fn(|| q.pop_due(deadline)).map(|(_, item)| item).collect()
    }

    #[test]
    fn pops_in_due_then_push_order() {
        let mut q = EventQueue::default();
        for (due, item) in [(5.0, 50), (1.0, 10), (5.0, 51), (0.5, 5), (5.0, 52)] {
            q.push(due, item);
        }
        assert_eq!(q.pop_due(f64::INFINITY), Some((0.5, 5)));
        assert_eq!(drain(&mut q, f64::INFINITY), vec![10, 50, 51, 52]);
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn pop_due_stops_after_an_inclusive_deadline() {
        let mut q = EventQueue::default();
        assert_eq!(q.next_due(), None);
        for (due, item) in [(3.0, 30), (1.0, 10), (3.0, 31), (7.0, 70)] {
            q.push(due, item);
        }
        assert_eq!(q.next_due(), Some(1.0));
        assert_eq!(q.pop_due(0.5), None, "nothing is due before 1 ms");
        assert_eq!(drain(&mut q, 3.0), vec![10, 30, 31], "an item due at the deadline pops");
        assert_eq!(q.next_due(), Some(7.0));
        q.push(2.0, 20);
        assert_eq!(q.next_due(), Some(2.0), "a push ahead of the head moves it");
        assert_eq!(drain(&mut q, 7.0), vec![20, 70]);
    }

    #[test]
    fn sim_time_keys_keep_their_order_through_as_ms() {
        // One microsecond apart near 10^12 µs (about 11.6 model days):
        // pushed latest first, they pop in time order, and the equal
        // pair in push order.
        let base = 1_000_000_000_000u64;
        let mut q = EventQueue::default();
        for (us, item) in [(base + 2, 'd'), (base + 1, 'b'), (base, 'a'), (base + 1, 'c')] {
            q.push(SimTime::from_micros(us).as_ms(), item);
        }
        let keys: Vec<f64> = (0..3).map(|k| SimTime::from_micros(base + k).as_ms()).collect();
        assert!(keys[0] < keys[1] && keys[1] < keys[2], "distinct microseconds collide");
        assert_eq!(drain(&mut q, keys[1]), vec!['a', 'b', 'c']);
        assert_eq!(q.pop_due(f64::INFINITY), Some((keys[2], 'd')));
    }
}
