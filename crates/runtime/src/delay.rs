//! The wall-time network layer both transports share: a delay queue that
//! holds each item for its model delay (× `time_scale`) before handing it
//! on, and the sender-side fault rule applied as items leave it.
//!
//! The in-process cluster runs one queue for all of its peers' traffic and
//! timers; a socket daemon runs one for outbound frames and one for its
//! own timers. Either way a [`NetFaultConfig`](crate::NetFaultConfig)
//! means the same thing: [`roll_faults`] is the only place it is applied.

use crate::node::World;
use spidernet_util::rng::Rng;
use spidernet_wire::WireMsg;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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
    shutdown: bool,
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

impl<T> Clone for DelayQueue<T> {
    fn clone(&self) -> Self {
        DelayQueue { inner: self.inner.clone(), scale: self.scale }
    }
}

impl<T: Send + 'static> DelayQueue<T> {
    /// Starts the pump thread. `scale` is wall seconds per model second.
    pub(crate) fn start<F>(scale: f64, mut handle: F) -> (DelayQueue<T>, JoinHandle<()>)
    where
        F: FnMut(T) -> Option<(T, f64)> + Send + 'static,
    {
        let inner = Arc::new(Inner {
            state: Mutex::new(State { heap: BinaryHeap::new(), seq: 0, shutdown: false }),
            cond: Condvar::new(),
        });
        let pump = inner.clone();
        let pump_thread = std::thread::spawn(move || loop {
            let mut q = pump.state.lock().expect("a delay-queue user panicked");
            if q.shutdown {
                return;
            }
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
        (DelayQueue { inner, scale }, pump_thread)
    }

    /// Queues `item` to fire after `model_ms` of model time.
    pub(crate) fn push(&self, item: T, model_ms: f64) {
        self.inner.push(item, wall(model_ms, self.scale));
    }

    /// Stops the pump thread; queued items are dropped.
    pub(crate) fn shutdown(&self) {
        self.inner.state.lock().expect("a delay-queue user panicked").shutdown = true;
        self.inner.cond.notify_one();
    }
}

/// Model ms to compressed wall time (negative delays fire at once).
fn wall(model_ms: f64, scale: f64) -> Duration {
    Duration::from_secs_f64((model_ms * scale / 1_000.0).max(0.0))
}

/// What the fault injector decided for one outbound wire message.
pub(crate) enum Fault {
    /// Hand it on now.
    Deliver,
    /// Lost (counted in [`World::msgs_dropped`]).
    Drop,
    /// Hold it back this many more model ms, then deliver it without
    /// rolling again.
    Delay(f64),
}

/// The two-step fault rule, applied at the sender's network layer once per
/// message: a droppable frame ([`WireMsg::droppable`]) is rolled for loss,
/// and a survivor may draw extra uniform delay. Everything else (and every
/// message when the config is inactive) delivers without touching `rng`.
/// Callers must not roll a message they re-queued for [`Fault::Delay`].
pub(crate) fn roll_faults(world: &World, msg: &WireMsg, rng: &mut Rng) -> Fault {
    let faults = world.cfg.faults;
    if !faults.is_active() || !msg.droppable() {
        return Fault::Deliver;
    }
    if faults.drop_prob > 0.0 && rng.gen::<f64>() < faults.drop_prob {
        world.msgs_dropped.fetch_add(1, Ordering::Relaxed);
        return Fault::Drop;
    }
    if faults.extra_delay_ms > 0.0 {
        return Fault::Delay(rng.gen::<f64>() * faults.extra_delay_ms);
    }
    Fault::Deliver
}
