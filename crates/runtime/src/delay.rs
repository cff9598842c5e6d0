//! The daemon's wall-time delay queue: it holds each item for its model
//! delay (× `time_scale`) before handing it on. A socket daemon runs one
//! for outbound frames and one for its own timers; the in-process
//! cluster steps model time instead ([`crate::cluster`]).

use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Entry<T> {
    due: Instant,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct State<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
}

impl<T> Inner<T> {
    fn push(&self, item: T, wall: Duration) {
        let mut q = self.state.lock().expect("a delay-queue user panicked");
        let seq = q.seq;
        q.seq += 1;
        q.heap.push(Entry { due: Instant::now() + wall, seq, item });
        self.cond.notify_one();
    }
}

/// A wall-time delay queue with a dedicated pump thread. Items fire in
/// due order (ties in push order); the handler may re-queue an item it was
/// handed by returning it with an extra model delay.
pub(crate) struct DelayQueue<T> {
    inner: Arc<Inner<T>>,
    scale: f64,
}

impl<T: Send + 'static> DelayQueue<T> {
    /// Starts the pump thread, which runs for the life of the process.
    /// `scale` is wall seconds per model second.
    pub(crate) fn start<F>(scale: f64, mut handle: F) -> DelayQueue<T>
    where
        F: FnMut(T) -> Option<(T, f64)> + Send + 'static,
    {
        let inner = Arc::new(Inner {
            state: Mutex::new(State { heap: BinaryHeap::new(), seq: 0 }),
            cond: Condvar::new(),
        });
        let pump = inner.clone();
        std::thread::spawn(move || loop {
            let mut q = pump.state.lock().expect("a delay-queue user panicked");
            let now = Instant::now();
            let wait = match q.heap.peek() {
                Some(e) if e.due <= now => {
                    let e = q.heap.pop().expect("peeked");
                    drop(q);
                    if let Some((item, extra_ms)) = handle(e.item) {
                        pump.push(item, wall(extra_ms, scale));
                    }
                    continue;
                }
                Some(e) => e.due - now,
                None => Duration::from_millis(50),
            };
            let _ = pump.cond.wait_timeout(q, wait).expect("a delay-queue user panicked");
        });
        DelayQueue { inner, scale }
    }

    /// Queues `item` to fire after `model_ms` of model time.
    pub(crate) fn push(&self, item: T, model_ms: f64) {
        self.inner.push(item, wall(model_ms, self.scale));
    }
}

/// Model ms to compressed wall time (negative delays fire at once).
fn wall(model_ms: f64, scale: f64) -> Duration {
    Duration::from_secs_f64((model_ms * scale / 1_000.0).max(0.0))
}
