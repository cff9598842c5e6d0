//! Live overlay resource state: peer capacities, link bandwidth, soft
//! (probe-time) and committed (session-time) allocations, and peer
//! liveness.
//!
//! In a deployment this state is sharded across peers — each peer admits
//! against its own CPU/memory and its adjacent links. The simulator holds
//! it in one table indexed by peer, but protocol code only touches a peer's
//! entries in steps that execute *at* that peer, so the semantics match the
//! fully decentralized system.
//!
//! **Soft resource allocation** (paper §4.2 step 2.1): when a probe visits
//! a peer, required resources are tentatively reserved so that concurrent
//! probes cannot jointly over-admit; reservations expire after a timeout
//! unless confirmed. Here the probing engine releases a request's
//! reservations explicitly at selection time, and the expiry clock handles
//! probes that die mid-flight.

use crate::paths::PathTable;
use spidernet_sim::time::SimTime;
use spidernet_sim::trace::{TraceBuffer, TraceEvent};
use spidernet_topology::flow::{FlowKey, FlowNet, LinkId};
use spidernet_topology::{EdgeId, Hop, Overlay};
use spidernet_util::arena::{SlotArena, SlotKey};
use spidernet_util::error::{Error, Result};
use spidernet_util::id::PeerId;
use spidernet_util::res::ResourceVector;
use std::collections::BTreeMap;

/// Token identifying one soft reservation.
///
/// Packs a generational [`SlotKey`] into the soft-allocation arena, so a
/// token released (or expired) and whose slot was recycled by a later
/// reservation goes stale instead of aliasing the new holder.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SoftToken(u64);

/// A committed per-session allocation, returned by [`OverlayState::commit`]
/// and passed back to [`OverlayState::release`] at teardown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionAllocation {
    /// Per-peer end-system resources held.
    pub peers: Vec<(PeerId, ResourceVector)>,
    /// Bandwidth held on each hop crossed. Empty in flow mode, where
    /// streams share links elastically instead of reserving hard
    /// bandwidth.
    pub links: Vec<(Hop, f64)>,
    /// Flow handles, one per stream, when the shared-bandwidth flow
    /// model is enabled ([`OverlayState::enable_flow_model`]).
    pub flows: Vec<FlowKey>,
}

/// A session's bandwidth demand for [`OverlayState::commit`]: streams over
/// overlay routes, each a run of hops in path order with the rate it
/// carries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkDemand {
    /// Every stream's hops, back to back.
    hops: Vec<Hop>,
    /// Each stream's end in `hops` and its rate, Mbit/s.
    streams: Vec<(usize, f64)>,
}

impl LinkDemand {
    /// Appends a stream carrying `bw` Mbit/s over `hops`, given in path
    /// order.
    pub fn push_stream(&mut self, hops: impl IntoIterator<Item = Hop>, bw: f64) {
        self.hops.extend(hops);
        self.streams.push((self.hops.len(), bw));
    }

    /// Appends a stream carrying `bw` Mbit/s over the overlay route
    /// `from → to` ([`PathTable::route`]), its hops in path order. Returns
    /// `false`, appending nothing, when the pair has no route.
    pub(crate) fn push_route(
        &mut self,
        overlay: &Overlay,
        paths: &mut PathTable,
        from: PeerId,
        to: PeerId,
        bw: f64,
    ) -> bool {
        let start = self.hops.len();
        let hops = &mut self.hops;
        if !paths.route(overlay, from, to, |hop| hops.push(hop)) {
            self.hops.truncate(start);
            return false;
        }
        // The walk runs from `to` back to `from`.
        self.hops[start..].reverse();
        self.streams.push((self.hops.len(), bw));
        true
    }

    /// Each stream's hops, in path order, with its rate.
    fn streams(&self) -> impl Iterator<Item = (&[Hop], f64)> + '_ {
        let mut start = 0;
        self.streams.iter().map(move |&(end, bw)| {
            let hops = &self.hops[start..end];
            start = end;
            (hops, bw)
        })
    }
}

#[derive(Clone)]
struct SoftAlloc {
    peer: PeerId,
    res: ResourceVector,
    expires: SimTime,
    // Allocation sequence number. Slot order is recycling order, not
    // allocation order, so expiry sweeps sort on this to release in the
    // same order the old token-ordered ledger did (the released amounts
    // fold into per-peer float accumulators).
    seq: u64,
}

/// Per-peer access-link bandwidth, used by the geometric (scale) overlay
/// mode where paths are direct and bandwidth is charged at the two
/// endpoints' access links instead of per overlay hop.
#[derive(Clone)]
struct AccessLinks {
    capacity: Vec<f64>,
    committed: Vec<f64>,
}

/// Shared-bandwidth (flow) mode books: the [`FlowNet`] plus the flow
/// link of every overlay link, by [`EdgeId`] (geo: of every peer's access
/// link, by peer).
#[derive(Clone)]
struct FlowBook {
    net: FlowNet,
    flow_links: Vec<LinkId>,
}

/// The overlay's live resource state.
#[derive(Clone)]
pub struct OverlayState {
    capacity: Vec<ResourceVector>,
    soft: Vec<ResourceVector>,
    committed: Vec<ResourceVector>,
    alive: Vec<bool>,
    // The overlay graph's links by `EdgeId`: `(lo, hi)` endpoints,
    // capacity and hard-reserved bandwidth. Empty on a geometric overlay.
    link_ends: Vec<(u32, u32)>,
    link_capacity: Vec<f64>,
    link_committed: Vec<f64>,
    // Each peer's links as `(neighbor, link)`, to map a path step to the
    // link it crosses. Empty on a geometric overlay.
    incident: Vec<Vec<(u32, EdgeId)>>,
    access: Option<AccessLinks>,
    // `Some` once `enable_flow_model` switches bandwidth to elastic
    // max-min fair sharing; `None` keeps the paper's hard reservations.
    flows: Option<FlowBook>,
    soft_allocs: SlotArena<SoftAlloc>,
    next_seq: u64,
    // Load-shedding watermark ψ (fraction of CPU capacity). Non-finite
    // (the default `INFINITY`) disables crossing tracking entirely.
    shed_watermark: f64,
    // How many times any peer's CPU utilization crossed the watermark in
    // either direction. Folded into the compose-cache epoch so cached
    // qualified-replica pools are invalidated exactly when a peer's
    // shed/no-shed classification may have changed.
    watermark_crossings: u64,
}

impl OverlayState {
    /// Initializes state from an overlay: every peer gets
    /// `peer_capacity`, every overlay link its topology capacity.
    pub fn new(overlay: &Overlay, peer_capacity: ResourceVector) -> Self {
        let n = overlay.peer_count();
        let g = overlay.graph();
        let ids = 0..g.edge_count() as EdgeId;
        let link_ends = ids
            .clone()
            .map(|id| {
                let (a, b) = g.endpoints(id);
                (a.min(b) as u32, a.max(b) as u32)
            })
            .collect();
        let link_capacity = ids.map(|id| g.edge_attrs(id).capacity_mbps).collect();
        let incident = if overlay.is_geo() {
            Vec::new()
        } else {
            (0..n).map(|v| g.neighbor_edges(v).map(|(u, id, _)| (u as u32, id)).collect()).collect()
        };
        let access = overlay.is_geo().then(|| AccessLinks {
            capacity: (0..n)
                .map(|i| overlay.access_capacity(PeerId::from(i)).unwrap_or(0.0))
                .collect(),
            committed: vec![0.0; n],
        });
        OverlayState {
            capacity: vec![peer_capacity; n],
            soft: vec![ResourceVector::ZERO; n],
            committed: vec![ResourceVector::ZERO; n],
            alive: vec![true; n],
            link_ends,
            link_capacity,
            link_committed: vec![0.0; g.edge_count()],
            incident,
            access,
            flows: None,
            soft_allocs: SlotArena::new(),
            next_seq: 0,
            shed_watermark: f64::INFINITY,
            watermark_crossings: 0,
        }
    }

    /// Sets the load-shedding watermark ψ used for crossing tracking.
    /// Pass `f64::INFINITY` (the default) to disable tracking.
    pub fn set_shed_watermark(&mut self, psi: f64) {
        self.shed_watermark = psi;
    }

    /// How many times any peer's CPU utilization crossed the watermark
    /// (in either direction) since construction. Monotone; meaningful
    /// only while a finite watermark is set.
    pub fn watermark_crossings(&self) -> u64 {
        self.watermark_crossings
    }

    /// Fraction of a peer's CPU capacity held by soft + committed
    /// allocations. Dead peers and zero-capacity peers report 1.0.
    pub fn cpu_utilization(&self, peer: PeerId) -> f64 {
        let i = peer.index();
        let cap = self.capacity[i].cpu();
        if !self.alive[i] || cap <= 0.0 {
            return 1.0;
        }
        (self.soft[i].cpu() + self.committed[i].cpu()) / cap
    }

    /// `1 − available/capacity` on a peer's CPU, the load term of BCP's
    /// next-hop ranking (1.0 for a zero-capacity peer): the CPU terms of
    /// [`OverlayState::capacity`] and [`OverlayState::available`], read as
    /// scalars.
    #[inline]
    pub fn cpu_load(&self, peer: PeerId) -> f64 {
        let i = peer.index();
        let cap = self.capacity[i].cpu();
        let avail = if self.alive[i] {
            ((cap - self.soft[i].cpu()).max(0.0) - self.committed[i].cpu()).max(0.0)
        } else {
            0.0
        };
        if cap > 0.0 {
            1.0 - avail / cap
        } else {
            1.0
        }
    }

    // Records a watermark crossing if `peer`'s utilization moved from one
    // side of ψ to the other. `before` is the pre-mutation utilization.
    fn note_watermark(&mut self, peer: PeerId, before: f64) {
        if !self.shed_watermark.is_finite() {
            return;
        }
        let after = self.cpu_utilization(peer);
        if (before >= self.shed_watermark) != (after >= self.shed_watermark) {
            self.watermark_crossings += 1;
        }
    }

    /// Overrides one peer's capacity (heterogeneous populations).
    pub fn set_capacity(&mut self, peer: PeerId, cap: ResourceVector) {
        self.capacity[peer.index()] = cap;
    }

    /// A peer's total capacity.
    pub fn capacity(&self, peer: PeerId) -> ResourceVector {
        self.capacity[peer.index()]
    }

    /// A peer's currently available resources: capacity minus soft and
    /// committed holdings; zero for a dead peer.
    pub fn available(&self, peer: PeerId) -> ResourceVector {
        if !self.alive[peer.index()] {
            return ResourceVector::ZERO;
        }
        self.capacity[peer.index()]
            .saturating_sub(&self.soft[peer.index()])
            .saturating_sub(&self.committed[peer.index()])
    }

    /// Liveness flag.
    pub fn is_alive(&self, peer: PeerId) -> bool {
        self.alive[peer.index()]
    }

    /// Marks a peer failed. Its committed and soft holdings become moot
    /// (available() is zero while dead); sessions referencing it are the
    /// recovery layer's problem.
    pub fn fail_peer(&mut self, peer: PeerId) {
        self.alive[peer.index()] = false;
    }

    /// Revives a failed peer with a clean slate (a rejoining peer restarts
    /// its components; stale holdings from before the failure are dropped).
    pub fn revive_peer(&mut self, peer: PeerId) {
        let i = peer.index();
        self.alive[i] = true;
        self.soft[i] = ResourceVector::ZERO;
        self.committed[i] = ResourceVector::ZERO;
        self.soft_allocs.retain(|_, a| a.peer != peer);
    }

    /// Live peers (diagnostics).
    pub fn live_peers(&self) -> Vec<PeerId> {
        (0..self.alive.len()).filter(|&i| self.alive[i]).map(PeerId::from).collect()
    }

    // --- soft (probe-time) reservations -------------------------------

    /// Attempts a soft reservation of `res` on `peer`, expiring at
    /// `expires`. Fails if the peer is dead or lacks headroom. A
    /// successful reservation records a [`TraceEvent::SoftAlloc`].
    pub fn soft_allocate(
        &mut self,
        peer: PeerId,
        res: ResourceVector,
        expires: SimTime,
        trace: &mut TraceBuffer,
    ) -> Result<SoftToken> {
        if !self.alive[peer.index()] || !res.fits_within(&self.available(peer)) {
            return Err(Error::AdmissionRejected { peer: peer.raw() });
        }
        let before = self.cpu_utilization(peer);
        self.soft[peer.index()] = self.soft[peer.index()].add(&res);
        self.note_watermark(peer, before);
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.soft_allocs.insert(SoftAlloc { peer, res, expires, seq });
        trace.record(TraceEvent::SoftAlloc { peer: peer.raw() });
        Ok(SoftToken(key.to_raw()))
    }

    /// Releases a soft reservation, recording a
    /// [`TraceEvent::SoftRelease`]. Idempotent against the expiry sweep:
    /// once [`OverlayState::expire_soft`] has reclaimed a token, a late
    /// `release_soft` on the same token returns `false` and credits
    /// nothing — the token is consumed by whichever path releases it
    /// first, so availability can never be double-credited.
    pub fn release_soft(&mut self, token: SoftToken, trace: &mut TraceBuffer) -> bool {
        if let Some(a) = self.soft_allocs.remove(SlotKey::from_raw(token.0)) {
            let before = self.cpu_utilization(a.peer);
            self.soft[a.peer.index()] = self.soft[a.peer.index()].saturating_sub(&a.res);
            self.note_watermark(a.peer, before);
            trace.record(TraceEvent::SoftRelease { peer: a.peer.raw() });
            true
        } else {
            false
        }
    }

    /// Drops every reservation whose deadline has passed. Returns how many
    /// expired. Releases run in allocation (`seq`) order — the same order
    /// the token-ordered ledger used — so the per-peer float accumulators
    /// fold identically.
    pub fn expire_soft(&mut self, now: SimTime, trace: &mut TraceBuffer) -> usize {
        let mut expired: Vec<(u64, SlotKey)> = self
            .soft_allocs
            .iter()
            .filter(|(_, a)| a.expires <= now)
            .map(|(k, a)| (a.seq, k))
            .collect();
        expired.sort_unstable_by_key(|&(seq, _)| seq);
        for &(_, k) in &expired {
            self.release_soft(SoftToken(k.to_raw()), trace);
        }
        expired.len()
    }

    /// Number of outstanding soft reservations.
    pub fn soft_count(&self) -> usize {
        self.soft_allocs.len()
    }

    /// Verifies the soft-allocation books: for every peer, the sum of its
    /// live [`SoftAlloc`] entries must equal the per-peer soft ledger (to
    /// float tolerance). The fault lab and the model checker call this
    /// after every step — a double release, a missed expiry, or a leaked
    /// reservation shows up here as a ledger mismatch. (A dead peer may
    /// still hold unexpired entries: [`OverlayState::fail_peer`] leaves
    /// the books alone and [`OverlayState::revive_peer`] clears entries
    /// and ledger together, so the equality holds through churn too.)
    pub fn verify_soft_accounting(&self) -> std::result::Result<(), String> {
        let mut sums = vec![ResourceVector::ZERO; self.soft.len()];
        let mut counts = vec![0usize; self.soft.len()];
        for (_, a) in self.soft_allocs.iter() {
            sums[a.peer.index()] = sums[a.peer.index()].add(&a.res);
            counts[a.peer.index()] += 1;
        }
        for i in 0..self.soft.len() {
            let ledger = &self.soft[i];
            let sum = &sums[i];
            if (ledger.cpu() - sum.cpu()).abs() > 1e-6
                || (ledger.memory() - sum.memory()).abs() > 1e-6
            {
                return Err(format!(
                    "peer {i}: soft ledger {:?} != sum of {} live reservations {:?}",
                    ledger, counts[i], sum
                ));
            }
        }
        Ok(())
    }

    /// A peer's total soft-reserved load (invariant checks).
    pub fn soft_load(&self, peer: PeerId) -> ResourceVector {
        self.soft[peer.index()]
    }

    /// A peer's total committed (session-time) load (invariant checks).
    pub fn committed_load(&self, peer: PeerId) -> ResourceVector {
        self.committed[peer.index()]
    }

    // --- link bandwidth ------------------------------------------------

    /// The hop a path step `a → b` crosses: the overlay link `{a, b}`, or
    /// on a geometric overlay the direct hop; `None` if `a` and `b` are not
    /// linked.
    fn hop_between(&self, a: PeerId, b: PeerId) -> Option<Hop> {
        if self.access.is_some() {
            return Some(Hop::direct(a, b));
        }
        let to = b.index();
        self.incident.get(a.index())?.iter().find(|&&(n, _)| n as usize == to).map(|&(_, id)| Hop::Link(id))
    }

    /// Available bandwidth on the direct overlay link `{a, b}`, Mbit/s
    /// ([`OverlayState::hop_available`]). Zero if the link does not exist.
    /// In geo mode every pair is linked.
    pub fn link_available(&self, a: PeerId, b: PeerId) -> f64 {
        self.hop_between(a, b).map_or(0.0, |hop| self.hop_available(hop))
    }

    /// Available bandwidth on one route hop, Mbit/s: zero if either
    /// endpoint is dead. A link offers its capacity less its committed
    /// bandwidth; a geometric overlay's direct hop the tighter of its two
    /// endpoints' free access-link bandwidth. In flow mode streams are
    /// elastic, so bandwidth never gates admission or evaluation: a hop
    /// offers its static capacity, and contention shows up in delivered
    /// rate instead.
    #[inline]
    pub fn hop_available(&self, hop: Hop) -> f64 {
        match hop {
            Hop::Link(id) => {
                let i = id as usize;
                let (a, b) = self.link_ends[i];
                if !self.alive[a as usize] || !self.alive[b as usize] {
                    return 0.0;
                }
                if self.flows.is_some() {
                    return self.link_capacity[i];
                }
                (self.link_capacity[i] - self.link_committed[i]).max(0.0)
            }
            Hop::Direct(a, b) => {
                let (a, b) = (a as usize, b as usize);
                if !self.alive[a] || !self.alive[b] {
                    return 0.0;
                }
                let acc = self.access.as_ref().expect("direct hops are a geometric overlay's");
                if self.flows.is_some() {
                    return acc.capacity[a].min(acc.capacity[b]).max(0.0);
                }
                let fa = (acc.capacity[a] - acc.committed[a]).max(0.0);
                let fb = (acc.capacity[b] - acc.committed[b]).max(0.0);
                fa.min(fb)
            }
        }
    }

    // --- shared-bandwidth (flow) mode -----------------------------------

    /// Switches bandwidth accounting from hard per-link reservations to
    /// the shared-bandwidth flow model: committed streams become flows
    /// over their route's links with max-min fair-share rates
    /// ([`spidernet_topology::flow::FlowNet`]). Admission stops gating on
    /// bandwidth (CPU admission and ψ shedding are untouched); instead
    /// the *delivered* rate of each session degrades under contention
    /// ([`OverlayState::delivered_fraction`]). Idempotent; there is no
    /// way back because released hard reservations and live flows would
    /// not reconcile.
    pub fn enable_flow_model(&mut self) {
        if self.flows.is_some() {
            return;
        }
        let mut net = FlowNet::new();
        let flow_links = match &self.access {
            // Geo mode: one flow link per peer access pipe.
            Some(acc) => acc.capacity.iter().map(|&c| net.add_link(c.max(0.0))).collect(),
            None => {
                // Flow links are added in ascending `(lo, hi)` order, so
                // their numbering (and every downstream float fold) does
                // not depend on the order the overlay numbered its links.
                let mut order: Vec<EdgeId> = (0..self.link_ends.len() as EdgeId).collect();
                order.sort_unstable_by_key(|&id| self.link_ends[id as usize]);
                let mut by_id: Vec<(EdgeId, LinkId)> = order
                    .into_iter()
                    .map(|id| (id, net.add_link(self.link_capacity[id as usize])))
                    .collect();
                by_id.sort_unstable_by_key(|&(id, _)| id);
                by_id.into_iter().map(|(_, flow)| flow).collect()
            }
        };
        self.flows = Some(FlowBook { net, flow_links });
    }

    /// Whether the shared-bandwidth flow model is active.
    pub fn flow_model_enabled(&self) -> bool {
        self.flows.is_some()
    }

    /// Live flows in the flow model (0 when disabled).
    pub fn flow_count(&self) -> usize {
        self.flows.as_ref().map(|b| b.net.flow_count()).unwrap_or(0)
    }

    /// `(epoch, recalcs)` of the flow model: mutations seen and lazy
    /// rate recomputes actually run. `(0, 0)` when disabled.
    pub fn flow_stats(&self) -> (u64, u64) {
        self.flows.as_ref().map(|b| (b.net.epoch(), b.net.recalcs())).unwrap_or((0, 0))
    }

    /// Fraction of a session's demanded stream bandwidth actually
    /// delivered under max-min fair sharing: the minimum over its flows
    /// of `rate / demand`. 1.0 when the flow model is off or the session
    /// crosses no network links.
    pub fn delivered_fraction(&mut self, alloc: &SessionAllocation) -> f64 {
        let Some(book) = &mut self.flows else { return 1.0 };
        let mut frac = 1.0f64;
        for &k in &alloc.flows {
            if let (Some(rate), Some(demand)) = (book.net.rate(k), book.net.demand(k)) {
                if demand > 0.0 {
                    frac = frac.min((rate / demand).clamp(0.0, 1.0));
                }
            }
        }
        frac
    }

    /// Sum of a session's fair-share flow rates in Mbps (its delivered
    /// network goodput). Equals the demanded total when uncontended;
    /// 0.0 when the flow model is off or the session crosses no links.
    pub fn session_goodput(&mut self, alloc: &SessionAllocation) -> f64 {
        let Some(book) = &mut self.flows else { return 0.0 };
        alloc.flows.iter().filter_map(|&k| book.net.rate(k)).sum()
    }

    /// Sum of a session's demanded flow bandwidth in Mbps (0.0 with the
    /// flow model off).
    pub fn session_demand_mbps(&self, alloc: &SessionAllocation) -> f64 {
        let Some(book) = &self.flows else { return 0.0 };
        alloc.flows.iter().filter_map(|&k| book.net.demand(k)).sum()
    }

    /// Utilization ρ ∈ [0, 1] of the flow link(s) behind a route hop
    /// (geo: the worse of the two endpoints' access pipes). 0 when the
    /// flow model is off. Feeds contention-aware delay queries
    /// (`PathTable::contended_delay`).
    pub fn link_stress(&mut self, hop: Hop) -> f64 {
        let Some(book) = &mut self.flows else { return 0.0 };
        let links = match hop {
            Hop::Link(id) => [id as usize; 2],
            Hop::Direct(a, b) => [a as usize, b as usize],
        };
        let mut stress = 0.0f64;
        for i in links {
            stress = stress.max(1.0 - book.net.link_headroom(book.flow_links[i]));
        }
        stress
    }

    /// A peer's residual bandwidth headroom in [0, 1]: the minimum
    /// `1 − ρ` over its incident flow links (dead peers report 0). With
    /// the flow model off this falls back to the peer's free CPU
    /// fraction — the best congestion proxy hard reservations offer.
    /// This is the residual-capacity factor of marketplace bids.
    pub fn peer_headroom(&mut self, peer: PeerId) -> f64 {
        let i = peer.index();
        if !self.alive[i] {
            return 0.0;
        }
        match &mut self.flows {
            Some(book) => {
                if self.access.is_some() {
                    return book.net.link_headroom(book.flow_links[i]).min(1.0);
                }
                let mut h = 1.0f64;
                for &(_, id) in &self.incident[i] {
                    h = h.min(book.net.link_headroom(book.flow_links[id as usize]));
                }
                h
            }
            None => {
                let cap = self.capacity[i].cpu();
                if cap <= 0.0 {
                    return 0.0;
                }
                (self.available(peer).cpu() / cap).clamp(0.0, 1.0)
            }
        }
    }

    /// Checks the flow model's fair-share safety invariants (rates within
    /// demand, per-link totals within capacity). `Ok` when disabled.
    pub fn verify_flow_invariants(&mut self) -> std::result::Result<(), String> {
        match &mut self.flows {
            Some(book) => book.net.verify_invariants(),
            None => Ok(()),
        }
    }

    // --- committed (session-time) allocations ---------------------------

    /// Atomically commits a session's demand: per-peer resources and
    /// per-stream bandwidth over overlay routes. On any shortfall nothing
    /// is taken.
    pub fn commit(
        &mut self,
        peer_demand: &[(PeerId, ResourceVector)],
        link_demand: &LinkDemand,
    ) -> Result<SessionAllocation> {
        // Feasibility pass.
        for &(p, res) in peer_demand {
            if !self.alive[p.index()] || !res.fits_within(&self.available(p)) {
                return Err(Error::AdmissionRejected { peer: p.raw() });
            }
        }
        let mut alloc = SessionAllocation {
            peers: Vec::with_capacity(peer_demand.len()),
            ..SessionAllocation::default()
        };
        if let Some(book) = &mut self.flows {
            // Flow mode: streams are elastic — no link feasibility gate
            // and no hard bandwidth bookkeeping. Each stream that crosses
            // the network becomes one flow over its links; contention
            // shows up as a delivered fraction below 1, not as a rejection.
            let mut links: Vec<LinkId> = Vec::new();
            for (hops, bw) in link_demand.streams() {
                if hops.is_empty() {
                    continue; // same-peer stream: no network links
                }
                links.clear();
                for &hop in hops {
                    match hop {
                        Hop::Link(id) => links.push(book.flow_links[id as usize]),
                        Hop::Direct(a, b) => {
                            links.push(book.flow_links[a as usize]);
                            if b != a {
                                links.push(book.flow_links[b as usize]);
                            }
                        }
                    }
                }
                alloc.flows.push(book.net.add_flow(&links, bw));
            }
            self.take_peers(peer_demand, &mut alloc);
            return Ok(alloc);
        }
        // Aggregate per-hop bandwidth (routes may share links), each hop's
        // demand summed in stream order.
        let mut per_hop: Vec<(Hop, f64)> = Vec::with_capacity(link_demand.hops.len());
        for (hops, bw) in link_demand.streams() {
            for &hop in hops {
                match per_hop.iter_mut().find(|(h, _)| *h == hop) {
                    Some((_, need)) => *need += bw,
                    None => per_hop.push((hop, bw)),
                }
            }
        }
        // A link must cover its own demand. A geometric overlay's hop
        // charges both endpoints' access links, so feasibility aggregates
        // per endpoint (two hops sharing an endpoint draw from the same
        // access pipe); its hops are sorted first, so those float folds do
        // not depend on the order routes name their hops.
        if self.access.is_some() {
            per_hop.sort_unstable_by_key(|&(hop, _)| hop);
        }
        let mut per_peer: BTreeMap<usize, f64> = BTreeMap::new();
        for &(hop, need) in &per_hop {
            match hop {
                Hop::Link(id) => {
                    let free = self.link_capacity[id as usize] - self.link_committed[id as usize];
                    if free < need - 1e-12 {
                        let (a, b) = self.link_ends[id as usize];
                        return Err(Error::Network(format!(
                            "link ({a}, {b}) lacks {need} Mbps ({free} free)"
                        )));
                    }
                }
                Hop::Direct(a, b) => {
                    *per_peer.entry(a as usize).or_insert(0.0) += need;
                    if b != a {
                        *per_peer.entry(b as usize).or_insert(0.0) += need;
                    }
                }
            }
        }
        if let Some(acc) = &self.access {
            for (&i, &need) in &per_peer {
                let free = acc.capacity[i] - acc.committed[i];
                if free < need - 1e-12 {
                    return Err(Error::Network(format!(
                        "access link of peer {i} lacks {need} Mbps ({free} free)"
                    )));
                }
            }
        }
        // Take everything.
        self.take_peers(peer_demand, &mut alloc);
        for &(hop, need) in &per_hop {
            match hop {
                Hop::Link(id) => self.link_committed[id as usize] += need,
                Hop::Direct(a, b) => {
                    let acc = self.access.as_mut().expect("direct hops are a geometric overlay's");
                    acc.committed[a as usize] += need;
                    if b != a {
                        acc.committed[b as usize] += need;
                    }
                }
            }
        }
        alloc.links = per_hop;
        Ok(alloc)
    }

    // Commits every peer demand, recording it in `alloc`.
    fn take_peers(&mut self, peer_demand: &[(PeerId, ResourceVector)], alloc: &mut SessionAllocation) {
        for &(p, res) in peer_demand {
            let before = self.cpu_utilization(p);
            self.committed[p.index()] = self.committed[p.index()].add(&res);
            self.note_watermark(p, before);
            alloc.peers.push((p, res));
        }
    }

    /// Releases a committed allocation at session teardown.
    pub fn release(&mut self, alloc: &SessionAllocation) {
        for &(p, res) in &alloc.peers {
            let before = self.cpu_utilization(p);
            self.committed[p.index()] = self.committed[p.index()].saturating_sub(&res);
            self.note_watermark(p, before);
        }
        for &(hop, bw) in &alloc.links {
            match hop {
                Hop::Link(id) => {
                    let used = &mut self.link_committed[id as usize];
                    *used = (*used - bw).max(0.0);
                }
                Hop::Direct(a, b) => {
                    let acc = self.access.as_mut().expect("direct hops are a geometric overlay's");
                    let (a, b) = (a as usize, b as usize);
                    acc.committed[a] = (acc.committed[a] - bw).max(0.0);
                    if b != a {
                        acc.committed[b] = (acc.committed[b] - bw).max(0.0);
                    }
                }
            }
        }
        if let Some(book) = &mut self.flows {
            for &k in &alloc.flows {
                book.net.remove_flow(k);
            }
        }
    }
}

#[cfg(test)]
impl OverlayState {
    /// The link demand of streams given as overlay peer paths, refusing a
    /// path step that crosses no overlay link.
    pub(crate) fn path_demand(&self, paths: &[(Vec<PeerId>, f64)]) -> Result<LinkDemand> {
        let mut demand = LinkDemand::default();
        for (path, bw) in paths {
            let hops = path.windows(2).map(|w| {
                let (a, b) = (w[0], w[1]);
                self.hop_between(a, b).ok_or_else(|| {
                    Error::Network(format!("path step {a} -> {b} crosses no overlay link"))
                })
            });
            demand.push_stream(hops.collect::<Result<Vec<Hop>>>()?, *bw);
        }
        Ok(demand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidernet_topology::inet::{generate_power_law, InetConfig};
    use spidernet_topology::overlay::OverlayConfig;

    fn overlay() -> Overlay {
        let ip = generate_power_law(&InetConfig { nodes: 120, ..InetConfig::default() }, 2);
        Overlay::build(
            &ip,
            &OverlayConfig { peers: 24, neighbors: 4 },
            2,
        )
    }

    fn state() -> OverlayState {
        OverlayState::new(&overlay(), ResourceVector::new(1.0, 256.0))
    }

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn initial_availability_equals_capacity() {
        let s = state();
        let p = PeerId::new(0);
        assert_eq!(s.available(p), s.capacity(p));
        assert!(s.is_alive(p));
        assert_eq!(s.live_peers().len(), 24);
    }

    #[test]
    fn soft_allocation_reduces_availability_until_released() {
        let mut s = state();
        let p = PeerId::new(1);
        let tok = s.soft_allocate(p, ResourceVector::new(0.4, 100.0), t(1000.0), &mut TraceBuffer::new()).unwrap();
        let avail = s.available(p);
        assert!((avail.cpu() - 0.6).abs() < 1e-12);
        s.release_soft(tok, &mut TraceBuffer::new());
        assert_eq!(s.available(p), s.capacity(p));
    }

    #[test]
    fn soft_allocation_rejects_overcommit() {
        let mut s = state();
        let p = PeerId::new(2);
        s.soft_allocate(p, ResourceVector::new(0.8, 10.0), t(1000.0), &mut TraceBuffer::new()).unwrap();
        let err = s.soft_allocate(p, ResourceVector::new(0.3, 10.0), t(1000.0), &mut TraceBuffer::new());
        assert_eq!(err.unwrap_err(), Error::AdmissionRejected { peer: 2 });
    }

    #[test]
    fn concurrent_probes_cannot_jointly_over_admit() {
        // The paper's motivation for soft allocation: two probes that each
        // fit alone must not both pass when together they exceed capacity.
        let mut s = state();
        let p = PeerId::new(3);
        let half = ResourceVector::new(0.6, 100.0);
        assert!(s.soft_allocate(p, half, t(1000.0), &mut TraceBuffer::new()).is_ok());
        assert!(s.soft_allocate(p, half, t(1000.0), &mut TraceBuffer::new()).is_err());
    }

    #[test]
    fn expiry_drops_overdue_reservations() {
        let mut s = state();
        let p = PeerId::new(4);
        s.soft_allocate(p, ResourceVector::new(0.5, 10.0), t(100.0), &mut TraceBuffer::new()).unwrap();
        s.soft_allocate(p, ResourceVector::new(0.3, 10.0), t(300.0), &mut TraceBuffer::new()).unwrap();
        assert_eq!(s.expire_soft(t(100.0), &mut TraceBuffer::new()), 1);
        assert_eq!(s.soft_count(), 1);
        assert!((s.available(p).cpu() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn releasing_unknown_token_is_noop() {
        let mut s = state();
        let p = PeerId::new(5);
        let tok = s.soft_allocate(p, ResourceVector::new(0.1, 1.0), t(10.0), &mut TraceBuffer::new()).unwrap();
        assert!(s.release_soft(tok, &mut TraceBuffer::new()));
        assert!(!s.release_soft(tok, &mut TraceBuffer::new())); // double release
        assert_eq!(s.available(p), s.capacity(p));
    }

    #[test]
    fn expiry_boundary_is_inclusive() {
        // `expire_soft` uses `expires <= now`: a token expiring exactly at
        // `now` is swept, one microsecond later survives.
        let mut s = state();
        let p = PeerId::new(7);
        s.soft_allocate(p, ResourceVector::new(0.2, 8.0), t(100.0), &mut TraceBuffer::new())
            .unwrap();
        s.soft_allocate(p, ResourceVector::new(0.3, 8.0), t(100.001), &mut TraceBuffer::new())
            .unwrap();
        assert_eq!(s.expire_soft(t(100.0), &mut TraceBuffer::new()), 1);
        assert_eq!(s.soft_count(), 1);
        assert!((s.soft_load(p).cpu() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn late_release_after_expiry_sweep_does_not_double_credit() {
        // A probe releases its reservation *after* the expiry clock already
        // reclaimed it (the `expires == now` boundary case). The second
        // release must consume nothing: with two tokens on the same peer,
        // double-crediting the first would zero the soft load and make the
        // peer look emptier than it is.
        let mut s = state();
        let p = PeerId::new(8);
        let early = s
            .soft_allocate(p, ResourceVector::new(0.3, 16.0), t(50.0), &mut TraceBuffer::new())
            .unwrap();
        let _late = s
            .soft_allocate(p, ResourceVector::new(0.4, 16.0), t(500.0), &mut TraceBuffer::new())
            .unwrap();
        assert_eq!(s.expire_soft(t(50.0), &mut TraceBuffer::new()), 1);
        assert!((s.soft_load(p).cpu() - 0.4).abs() < 1e-12);
        // Late release of the already-expired token: no-op, no credit.
        assert!(!s.release_soft(early, &mut TraceBuffer::new()));
        assert!((s.soft_load(p).cpu() - 0.4).abs() < 1e-12, "double-credited availability");
        assert!((s.available(p).cpu() - 0.6).abs() < 1e-12);
        assert_eq!(s.soft_count(), 1);
    }

    #[test]
    fn release_before_expiry_sweep_at_boundary_does_not_double_credit() {
        // The reversed ordering of the case above: the probe's explicit
        // release lands *first*, then the expiry clock sweeps the exact
        // `expires == now` boundary. The sweep must find the token gone
        // and reclaim nothing — releasing it a second time would credit
        // the peer twice from the other direction.
        let mut s = state();
        let p = PeerId::new(8);
        let early = s
            .soft_allocate(p, ResourceVector::new(0.3, 16.0), t(50.0), &mut TraceBuffer::new())
            .unwrap();
        let _late = s
            .soft_allocate(p, ResourceVector::new(0.4, 16.0), t(500.0), &mut TraceBuffer::new())
            .unwrap();
        assert!(s.release_soft(early, &mut TraceBuffer::new()));
        assert!((s.soft_load(p).cpu() - 0.4).abs() < 1e-12);
        // The sweep at the released token's exact deadline: nothing left
        // to expire at t=50, the unexpired token is untouched.
        assert_eq!(s.expire_soft(t(50.0), &mut TraceBuffer::new()), 0);
        assert!((s.soft_load(p).cpu() - 0.4).abs() < 1e-12, "double-credited availability");
        assert!((s.available(p).cpu() - 0.6).abs() < 1e-12);
        assert_eq!(s.soft_count(), 1);
        s.verify_soft_accounting().unwrap();
    }

    #[test]
    fn soft_accounting_stays_exact_through_churn() {
        // The ledger-vs-arena invariant the fault lab and model checker
        // lean on: sum of live reservations == per-peer soft ledger,
        // through allocate / release / expire / fail / revive.
        let mut s = state();
        let (pa, pb) = (PeerId::new(12), PeerId::new(13));
        let mut tr = TraceBuffer::new();
        let a = s.soft_allocate(pa, ResourceVector::new(0.2, 8.0), t(100.0), &mut tr).unwrap();
        let _b = s.soft_allocate(pa, ResourceVector::new(0.3, 8.0), t(200.0), &mut tr).unwrap();
        let _c = s.soft_allocate(pb, ResourceVector::new(0.5, 8.0), t(150.0), &mut tr).unwrap();
        s.verify_soft_accounting().unwrap();
        s.release_soft(a, &mut tr);
        s.verify_soft_accounting().unwrap();
        s.expire_soft(t(160.0), &mut tr);
        s.verify_soft_accounting().unwrap();
        s.fail_peer(pa);
        s.revive_peer(pa); // drops pa's entries and zeroes its ledger together
        s.verify_soft_accounting().unwrap();
        assert_eq!(s.soft_count(), 0);
    }

    #[test]
    fn dead_peers_have_nothing_available() {
        let mut s = state();
        let p = PeerId::new(6);
        s.fail_peer(p);
        assert!(!s.is_alive(p));
        assert_eq!(s.available(p), ResourceVector::ZERO);
        assert!(s.soft_allocate(p, ResourceVector::new(0.1, 1.0), t(10.0), &mut TraceBuffer::new()).is_err());
        s.revive_peer(p);
        assert_eq!(s.available(p), s.capacity(p));
    }

    #[test]
    fn commit_and_release_roundtrip() {
        let ov = overlay();
        let mut s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        // Pick a real overlay link for the bandwidth path.
        let (a, b, e) = ov.graph().edges().next().unwrap();
        let (pa, pb) = (PeerId::from(a), PeerId::from(b));
        let alloc = s
            .commit(
                &[(pa, ResourceVector::new(0.2, 64.0))],
                &s.path_demand(&[(vec![pa, pb], 10.0)]).unwrap(),
            )
            .unwrap();
        assert!((s.available(pa).cpu() - 0.8).abs() < 1e-12);
        assert!((s.link_available(pa, pb) - (e.capacity_mbps - 10.0)).abs() < 1e-9);
        s.release(&alloc);
        assert_eq!(s.available(pa), s.capacity(pa));
        assert!((s.link_available(pa, pb) - e.capacity_mbps).abs() < 1e-9);
    }

    #[test]
    fn commit_is_atomic_on_failure() {
        let ov = overlay();
        let mut s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        let (a, b, _) = ov.graph().edges().next().unwrap();
        let (pa, pb) = (PeerId::from(a), PeerId::from(b));
        // Second peer demand exceeds capacity → whole commit must fail and
        // leave the first peer untouched.
        let err = s.commit(
            &[
                (pa, ResourceVector::new(0.2, 64.0)),
                (pb, ResourceVector::new(5.0, 64.0)),
            ],
            &LinkDemand::default(),
        );
        assert!(err.is_err());
        assert_eq!(s.available(pa), s.capacity(pa));
    }

    #[test]
    fn commit_rejects_bandwidth_overload() {
        let ov = overlay();
        let mut s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        let (a, b, e) = ov.graph().edges().next().unwrap();
        let (pa, pb) = (PeerId::from(a), PeerId::from(b));
        let err = s.commit(&[], &s.path_demand(&[(vec![pa, pb], e.capacity_mbps + 1.0)]).unwrap());
        assert!(err.is_err());
        assert!((s.link_available(pa, pb) - e.capacity_mbps).abs() < 1e-9);
    }

    #[test]
    fn flow_mode_admits_elastically_and_degrades_delivery() {
        let ov = overlay();
        let mut s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        s.enable_flow_model();
        assert!(s.flow_model_enabled());
        let (a, b, e) = ov.graph().edges().next().unwrap();
        let (pa, pb) = (PeerId::from(a), PeerId::from(b));
        // Two streams that together exceed the link are both admitted —
        // hard reservations would reject the second one...
        let big = e.capacity_mbps * 0.8;
        let s1 = s.commit(&[], &s.path_demand(&[(vec![pa, pb], big)]).unwrap()).unwrap();
        let s2 = s.commit(&[], &s.path_demand(&[(vec![pa, pb], big)]).unwrap()).unwrap();
        assert!(s1.links.is_empty(), "flow mode holds no hard link reservations");
        assert_eq!(s.flow_count(), 2);
        // ...but each only receives its max-min fair share.
        let f1 = s.delivered_fraction(&s1);
        assert!((f1 - 0.5 / 0.8).abs() < 1e-9, "fair share fraction: {f1}");
        let hop = Hop::Link(ov.graph().edge_id(a, b).unwrap());
        assert!(s.link_stress(hop) > 1.0 - 1e-9, "saturated link must read ρ≈1");
        assert!(s.verify_flow_invariants().is_ok());
        // Evaluation still sees static capacity: admission never gates.
        assert!((s.link_available(pa, pb) - e.capacity_mbps).abs() < 1e-9);
        s.release(&s2);
        assert!((s.delivered_fraction(&s1) - 1.0).abs() < 1e-12);
        assert_eq!(s.flow_count(), 1);
        s.release(&s1);
        assert_eq!(s.flow_count(), 0);
        assert!(s.peer_headroom(pa) > 1.0 - 1e-9);
        let (epoch, recalcs) = s.flow_stats();
        assert_eq!(epoch, 4, "two adds + two removes");
        assert!(recalcs >= 1);
    }

    #[test]
    fn flow_mode_geo_squeezes_shared_access_pipes() {
        use spidernet_topology::overlay::GeoConfig;
        let ov = Overlay::build_geo(&GeoConfig { peers: 16, ..GeoConfig::default() }, 5);
        let mut s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        s.enable_flow_model();
        let (pa, pb, pc) = (PeerId::new(0), PeerId::new(1), PeerId::new(2));
        let cap_a = ov.access_capacity(pa).unwrap();
        // Two full-pipe streams out of pa share its access link.
        let a1 = s.commit(&[], &s.path_demand(&[(vec![pa, pb], cap_a)]).unwrap()).unwrap();
        let a2 = s.commit(&[], &s.path_demand(&[(vec![pa, pc], cap_a)]).unwrap()).unwrap();
        let f = s.delivered_fraction(&a1);
        assert!(f < 1.0 - 1e-9, "shared access pipe must degrade delivery: {f}");
        assert!(s.verify_flow_invariants().is_ok());
        assert!(s.peer_headroom(pa) < 1e-6, "pa's pipe is saturated");
        s.release(&a1);
        s.release(&a2);
        assert!((s.delivered_fraction(&a1) - 1.0).abs() < 1e-12, "stale keys are inert");
        assert_eq!(s.flow_count(), 0);
    }

    #[test]
    fn shared_links_aggregate_demand_within_one_commit() {
        let ov = overlay();
        let mut s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        let (a, b, e) = ov.graph().edges().next().unwrap();
        let (pa, pb) = (PeerId::from(a), PeerId::from(b));
        // Two branch paths over the same link: demands add.
        let alloc = s
            .commit(&[], &s.path_demand(&[(vec![pa, pb], 10.0), (vec![pa, pb], 5.0)]).unwrap())
            .unwrap();
        assert!((s.link_available(pa, pb) - (e.capacity_mbps - 15.0)).abs() < 1e-9);
        s.release(&alloc);
    }

    #[test]
    fn path_demand_refuses_a_step_that_crosses_no_link() {
        // A demand over a non-adjacent pair names no overlay link: however
        // small, it has no hop to charge, so no link demand (and no
        // phantom link) comes of it, in either bandwidth mode. A geometric
        // overlay links every pair directly.
        let ov = overlay();
        assert!(!ov.graph().has_edge(0, 1), "the fixture must not link peers 0 and 1");
        let (p0, p1) = (PeerId::new(0), PeerId::new(1));
        for flow_model in [false, true] {
            for bw in [0.0, 1e-13, 1.0] {
                let mut s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
                if flow_model {
                    s.enable_flow_model();
                }
                let got = s.path_demand(&[(vec![p0, p1], bw)]);
                assert!(
                    matches!(got, Err(Error::Network(_))),
                    "flow {flow_model}, {bw} Mbps: {got:?}"
                );
            }
        }
        use spidernet_topology::overlay::GeoConfig;
        let geo = Overlay::build_geo(&GeoConfig { peers: 16, ..GeoConfig::default() }, 5);
        let s = OverlayState::new(&geo, ResourceVector::new(1.0, 256.0));
        assert_eq!(
            s.path_demand(&[(vec![p0, p1], 1.0)]).unwrap().hops,
            vec![Hop::direct(p0, p1)]
        );
    }

    #[test]
    fn commit_takes_routes_in_path_order() {
        // A stream's route is walked from its far end back; the demand
        // keeps it in path order, so a commit folds per-hop sums and
        // reports hops in first-crossed order, exactly as over the peer
        // path, and two streams over one link add up.
        let ov = overlay();
        let mut paths = PathTable::new();
        let (a, b) = (PeerId::new(0), PeerId::new(17));
        let path = paths.peer_path(&ov, a, b).unwrap();
        assert!(path.len() > 2, "the route must cross several links");
        let mut s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        let mut demand = LinkDemand::default();
        assert!(demand.push_route(&ov, &mut paths, a, b, 2.5));
        assert!(demand.push_route(&ov, &mut paths, a, b, 1.5));
        assert_eq!(demand, s.path_demand(&[(path.clone(), 2.5), (path.clone(), 1.5)]).unwrap());
        let alloc = s.commit(&[], &demand).unwrap();
        let want: Vec<(Hop, f64)> = path
            .windows(2)
            .map(|w| (Hop::Link(ov.graph().edge_id(w[0].index(), w[1].index()).unwrap()), 4.0))
            .collect();
        assert_eq!(alloc.links, want);
        s.release(&alloc);
        for w in path.windows(2) {
            assert_eq!(s.link_available(w[0], w[1]), ov.link(w[0], w[1]).unwrap().capacity_mbps);
        }
    }

    #[test]
    fn recycled_token_slot_does_not_alias_new_reservation() {
        // Crash→revive churn: a reservation freed by revive_peer has its
        // slot recycled by a later reservation. The stale token must not
        // release (or double-credit) the new holder's reservation.
        let mut s = state();
        let (pa, pb) = (PeerId::new(9), PeerId::new(10));
        let stale = s
            .soft_allocate(pa, ResourceVector::new(0.5, 32.0), t(1000.0), &mut TraceBuffer::new())
            .unwrap();
        s.fail_peer(pa);
        s.revive_peer(pa); // frees pa's ledger entries → slot goes back to the pool
        let fresh = s
            .soft_allocate(pb, ResourceVector::new(0.25, 16.0), t(1000.0), &mut TraceBuffer::new())
            .unwrap();
        assert_ne!(stale, fresh, "recycled slot must mint a different token");
        assert!(!s.release_soft(stale, &mut TraceBuffer::new()), "stale token must be inert");
        assert!((s.soft_load(pb).cpu() - 0.25).abs() < 1e-12);
        assert!(s.release_soft(fresh, &mut TraceBuffer::new()));
        assert_eq!(s.soft_count(), 0);
    }

    #[test]
    fn geo_mode_charges_access_links_at_endpoints() {
        use spidernet_topology::overlay::GeoConfig;
        let ov = Overlay::build_geo(&GeoConfig { peers: 16, ..GeoConfig::default() }, 5);
        let mut s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        let (pa, pb, pc) = (PeerId::new(0), PeerId::new(1), PeerId::new(2));
        let free_a = s.link_available(pa, pb).max(s.link_available(pa, pc));
        assert!(free_a > 0.0, "geo mode links every pair through access capacity");
        // Two sessions through pa draw from the same access pipe.
        let bw = 4.0;
        let demand = s.path_demand(&[(vec![pa, pb], bw), (vec![pa, pc], bw)]).unwrap();
        let alloc = s.commit(&[], &demand).unwrap();
        let after = s.link_available(pa, pb);
        let expected = (ov.access_capacity(pa).unwrap() - 2.0 * bw)
            .min(ov.access_capacity(pb).unwrap() - bw);
        assert!((after - expected.max(0.0)).abs() < 1e-9);
        // Saturating the access link is rejected atomically.
        let huge = ov.access_capacity(pa).unwrap() + 1.0;
        assert!(s.commit(&[], &s.path_demand(&[(vec![pa, pb], huge)]).unwrap()).is_err());
        s.release(&alloc);
        let restored = s.link_available(pa, pb);
        let cap = ov.access_capacity(pa).unwrap().min(ov.access_capacity(pb).unwrap());
        assert!((restored - cap).abs() < 1e-9);
    }

    #[test]
    fn watermark_crossings_count_both_directions() {
        let mut s = state();
        let p = PeerId::new(11);
        assert_eq!(s.watermark_crossings(), 0);
        // No finite watermark → no tracking.
        let tok = s
            .soft_allocate(p, ResourceVector::new(0.6, 8.0), t(1000.0), &mut TraceBuffer::new())
            .unwrap();
        assert_eq!(s.watermark_crossings(), 0);
        s.release_soft(tok, &mut TraceBuffer::new());
        s.set_shed_watermark(0.5);
        assert!((s.cpu_utilization(p) - 0.0).abs() < 1e-12);
        // 0.0 → 0.6 crosses ψ=0.5 upward; releasing crosses back down.
        let tok = s
            .soft_allocate(p, ResourceVector::new(0.6, 8.0), t(1000.0), &mut TraceBuffer::new())
            .unwrap();
        assert_eq!(s.watermark_crossings(), 1);
        assert!((s.cpu_utilization(p) - 0.6).abs() < 1e-12);
        s.release_soft(tok, &mut TraceBuffer::new());
        assert_eq!(s.watermark_crossings(), 2);
        // Small moves that stay on one side do not count.
        let tok = s
            .soft_allocate(p, ResourceVector::new(0.2, 8.0), t(1000.0), &mut TraceBuffer::new())
            .unwrap();
        assert_eq!(s.watermark_crossings(), 2);
        s.release_soft(tok, &mut TraceBuffer::new());
        assert_eq!(s.watermark_crossings(), 2);
        // Committed load counts toward utilization too.
        let alloc =
            s.commit(&[(p, ResourceVector::new(0.7, 8.0))], &LinkDemand::default()).unwrap();
        assert_eq!(s.watermark_crossings(), 3);
        s.release(&alloc);
        assert_eq!(s.watermark_crossings(), 4);
        // Dead peers report full utilization.
        s.fail_peer(p);
        assert_eq!(s.cpu_utilization(p), 1.0);
    }

    #[test]
    fn nonexistent_link_has_zero_bandwidth() {
        let ov = overlay();
        let s = OverlayState::new(&ov, ResourceVector::new(1.0, 256.0));
        // Find a non-adjacent pair.
        let g = ov.graph();
        let mut pair = None;
        'outer: for x in 0..g.node_count() {
            for y in (x + 1)..g.node_count() {
                if !g.has_edge(x, y) {
                    pair = Some((x, y));
                    break 'outer;
                }
            }
        }
        let (x, y) = pair.expect("mesh is not complete");
        assert_eq!(s.link_available(PeerId::from(x), PeerId::from(y)), 0.0);
    }
}
