//! Structured protocol tracing.
//!
//! The experiment drivers need to see *inside* a run — which sessions
//! spawned how many probes, where budget was split, when soft state
//! churned, how long a backup switch took — not just end-state counters.
//! [`TraceBuffer`] records typed [`TraceEvent`]s into a pre-allocated ring
//! so the hot path never allocates; when the `trace` cargo feature is
//! disabled the buffer is a zero-sized no-op and every `record` call
//! compiles away.

/// Why a BCP probe was discarded before completing its branch walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The accumulated partial QoS already violated the request bound.
    Qos,
    /// The candidate peer failed the resource admission check.
    Admission,
}

/// One typed protocol event.
///
/// Events are small `Copy` values; identifiers are raw `u64`s so the sim
/// crate stays independent of the core model types.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A BCP probe was spawned (initial, per-hop child, or final leg).
    ProbeSpawned {
        /// Composition session the probe belongs to.
        session: u64,
        /// Hop depth along the branch (0 = source).
        depth: u16,
        /// Probe budget carried at the spawn point.
        budget: u32,
    },
    /// A BCP probe was discarded mid-walk.
    ProbeDropped {
        /// Composition session the probe belonged to.
        session: u64,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A soft (probe-time) resource reservation was placed on a peer.
    SoftAlloc {
        /// The reserving peer.
        peer: u64,
    },
    /// A soft reservation was released (explicitly or by TTL expiry).
    SoftRelease {
        /// The peer whose reservation was returned.
        peer: u64,
    },
    /// Proactive recovery switched a session onto a backup graph.
    BackupSwitch {
        /// The recovered session.
        session: u64,
        /// The failed peer that triggered the switch.
        from: u64,
        /// Head peer of the promoted backup graph.
        to: u64,
        /// Detection + switchover latency.
        latency_ms: f64,
    },
    /// A DHT lookup or registration was routed to its directory node.
    DhtLookup {
        /// Overlay routing hops the message traversed.
        hops: u32,
    },
    /// A fault-injection plan changed a peer's liveness.
    FaultInjected {
        /// Plan time unit the action fired at.
        unit: u64,
        /// The affected peer.
        peer: u64,
        /// `true` for a crash, `false` for a revive.
        crash: bool,
    },
    /// The recovery layer resolved a primary-graph failure: either it
    /// switched to the backup at `rank` (`reactive` = false) or it
    /// exhausted `rank` backups and fell through to reactive BCP
    /// (`reactive` = true).
    RecoverySwitch {
        /// The affected session.
        session: u64,
        /// Backup rank promoted, or — when `reactive` — backups tried.
        rank: u32,
        /// True if the session needed a reactive re-composition.
        reactive: bool,
    },
    /// A transport connection to a peer was established (socket
    /// deployments: outbound TCP dial + handshake completed).
    ConnOpened {
        /// The remote peer.
        peer: u64,
    },
    /// A transport connection was torn down (write failure, EOF, or the
    /// peer was declared unreachable).
    ConnClosed {
        /// The remote peer.
        peer: u64,
    },
    /// A dial attempt to a peer failed and will be retried with backoff.
    ConnRetry {
        /// The remote peer.
        peer: u64,
        /// Zero-based attempt number that failed.
        attempt: u32,
    },
    /// The event transport's bounded outbound queue for a peer was full
    /// and shed a droppable media frame rather than queueing it.
    ConnBackpressure {
        /// The congested remote peer.
        peer: u64,
        /// Encoded size of the frame that was shed, bytes.
        shed_bytes: u64,
    },
    /// A peer's outbound queue depth crossed its high-water mark (half
    /// the shed threshold) — early warning that backpressure is close.
    QueueDepth {
        /// The remote peer.
        peer: u64,
        /// Bytes currently queued toward the peer.
        queued_bytes: u64,
    },
    /// An optimal-baseline enumeration finished, summarizing how much of
    /// the candidate combo space branch-and-bound pruning cut away.
    BaselinePruned {
        /// Composition session of the run.
        session: u64,
        /// Candidate positions considered (`examined + pruned`; equals the
        /// capped combo count).
        considered: u64,
        /// Leaves fully evaluated.
        examined: u64,
        /// Leaves skipped by admissible prefix pruning.
        pruned: u64,
    },
}

/// Default ring capacity (events). At ~40 bytes per event this is well
/// under a megabyte per overlay instance.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

/// Ring-buffered event sink (`trace` feature enabled).
///
/// Backing storage is reserved in full on the first `record`, so the
/// steady-state hot path is an indexed store — no allocation, no
/// branching beyond the wrap check. Once the ring is full, the oldest
/// event is overwritten and counted in [`TraceBuffer::overwritten`].
#[cfg(feature = "trace")]
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    overwritten: u64,
}

#[cfg(feature = "trace")]
impl TraceBuffer {
    /// A buffer with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A buffer holding at most `cap` events (minimum 1).
    pub fn with_capacity(cap: usize) -> Self {
        TraceBuffer { buf: Vec::new(), cap: cap.max(1), head: 0, overwritten: 0 }
    }

    /// Records one event. O(1); allocates only on the very first call.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            if self.buf.capacity() < self.cap {
                self.buf.reserve_exact(self.cap - self.buf.capacity());
            }
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.buf.len() as u64 + self.overwritten
    }

    /// Events lost to ring overwrite.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// The buffered events whose global sequence number is ≥ `mark`
    /// (a value previously returned by [`TraceBuffer::recorded`]).
    /// Events older than the ring window are gone; the slice starts at
    /// whichever is newer.
    pub fn events_since(&self, mark: u64) -> Vec<TraceEvent> {
        let oldest = self.overwritten; // global index of buf[head]
        let skip = mark.saturating_sub(oldest) as usize;
        let mut all = self.events();
        if skip >= all.len() {
            return Vec::new();
        }
        all.split_off(skip)
    }

    /// Empties the ring (capacity and overwrite count are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    /// Appends another buffer's events, oldest first — used when the
    /// parallel harness folds per-trial buffers together. Deterministic:
    /// purely sequential replay of `other` into `self`.
    pub fn merge(&mut self, other: &TraceBuffer) {
        for ev in other.events() {
            self.record(ev);
        }
        self.overwritten += other.overwritten;
    }
}

#[cfg(feature = "trace")]
impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new()
    }
}

/// No-op event sink (`trace` feature disabled): a zero-sized type whose
/// `record` compiles to nothing, keeping call sites identical either way.
#[cfg(not(feature = "trace"))]
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceBuffer;

#[cfg(not(feature = "trace"))]
impl TraceBuffer {
    /// A buffer with the default capacity (no-op).
    pub fn new() -> Self {
        TraceBuffer
    }

    /// A buffer holding at most `cap` events (no-op).
    pub fn with_capacity(_cap: usize) -> Self {
        TraceBuffer
    }

    /// Records one event (compiled out).
    #[inline(always)]
    pub fn record(&mut self, _ev: TraceEvent) {}

    /// Events currently buffered (always 0).
    pub fn len(&self) -> usize {
        0
    }

    /// Always true.
    pub fn is_empty(&self) -> bool {
        true
    }

    /// Total events ever recorded (always 0).
    pub fn recorded(&self) -> u64 {
        0
    }

    /// Events lost to ring overwrite (always 0).
    pub fn overwritten(&self) -> u64 {
        0
    }

    /// The buffered events (always empty).
    pub fn events(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Events since `mark` (always empty).
    pub fn events_since(&self, _mark: u64) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Empties the ring (no-op).
    pub fn clear(&mut self) {}

    /// Merges another buffer (no-op).
    pub fn merge(&mut self, _other: &TraceBuffer) {}
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    fn probe(n: u64) -> TraceEvent {
        TraceEvent::ProbeSpawned { session: n, depth: 0, budget: 1 }
    }

    #[test]
    fn records_in_order() {
        let mut t = TraceBuffer::with_capacity(8);
        for i in 0..5 {
            t.record(probe(i));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.events(), (0..5).map(probe).collect::<Vec<_>>());
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut t = TraceBuffer::with_capacity(4);
        for i in 0..7 {
            t.record(probe(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.recorded(), 7);
        assert_eq!(t.overwritten(), 3);
        assert_eq!(t.events(), (3..7).map(probe).collect::<Vec<_>>());
    }

    #[test]
    fn events_since_mark() {
        let mut t = TraceBuffer::with_capacity(16);
        t.record(probe(0));
        t.record(probe(1));
        let mark = t.recorded();
        t.record(probe(2));
        t.record(probe(3));
        assert_eq!(t.events_since(mark), vec![probe(2), probe(3)]);
        assert!(t.events_since(t.recorded()).is_empty());
    }

    #[test]
    fn events_since_survives_wraparound() {
        let mut t = TraceBuffer::with_capacity(4);
        t.record(probe(0));
        let mark = t.recorded(); // = 1
        for i in 1..6 {
            t.record(probe(i));
        }
        // Oldest surviving event is #2; the mark points below the window,
        // so everything buffered comes back.
        assert_eq!(t.events_since(mark), (2..6).map(probe).collect::<Vec<_>>());
    }

    #[test]
    fn merge_replays_in_order() {
        let mut a = TraceBuffer::with_capacity(8);
        a.record(probe(0));
        let mut b = TraceBuffer::with_capacity(8);
        b.record(probe(1));
        b.record(probe(2));
        a.merge(&b);
        assert_eq!(a.events(), vec![probe(0), probe(1), probe(2)]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut t = TraceBuffer::with_capacity(4);
        for i in 0..6 {
            t.record(probe(i));
        }
        t.clear();
        assert!(t.is_empty());
        t.record(probe(9));
        assert_eq!(t.events(), vec![probe(9)]);
    }
}
