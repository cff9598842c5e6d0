//! Shared-bandwidth flow model: max-min fair-share rates over links.
//!
//! Each active stream is a *flow* crossing a set of links; every link has
//! a fixed capacity shared fairly among the flows crossing it. Rates are
//! the classic max-min ("water-filling") allocation, recomputed lazily
//! whenever the flow set changes (dslab-network style: recalc on flow
//! add/remove, not per-packet).
//!
//! # Determinism and order-independence
//!
//! The recompute uses *uniform progressive filling*: each round raises
//! every unfixed flow's rate by the same increment
//!
//! ```text
//! delta = min( min over links l with n_l > 0 of residual_l / n_l,
//!              min over unfixed flows f of demand_f − rate_f )
//! ```
//!
//! then freezes flows that hit their demand or sit on a saturated link.
//! Every operation is a min/compare or a uniform add over the same
//! values regardless of which slot a flow occupies, so the final rates
//! are **bitwise identical no matter the order flows were inserted** at
//! the same model time — the property the congestion experiments pin.

/// Handle to a link registered in a [`FlowNet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// The dense index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Generational handle to a flow registered in a [`FlowNet`].
///
/// Slots are recycled; the generation makes stale keys inert rather
/// than aliasing a later flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    slot: u32,
    generation: u32,
}

#[derive(Clone, Debug)]
struct FlowSlot {
    generation: u32,
    live: bool,
    demand: f64,
    /// Sorted, deduplicated link indices this flow crosses.
    links: Vec<u32>,
}

/// The shared-bandwidth network: links with capacities plus the set of
/// active flows, with lazily recomputed max-min fair-share rates.
#[derive(Clone, Debug, Default)]
pub struct FlowNet {
    capacity: Vec<f64>,
    slots: Vec<FlowSlot>,
    free: Vec<u32>,
    live: usize,
    /// Per-slot allocated rate (valid when `!dirty`).
    rates: Vec<f64>,
    /// Per-link total allocated bandwidth (valid when `!dirty`).
    usage: Vec<f64>,
    dirty: bool,
    epoch: u64,
    recalcs: u64,
}

/// A flow freezes as demand-met when `demand − rate` drops below this.
const EPS_DEMAND: f64 = 1e-12;
/// A link counts as saturated when its residual drops below this.
const EPS_LINK: f64 = 1e-9;

impl FlowNet {
    /// An empty network.
    pub fn new() -> FlowNet {
        FlowNet::default()
    }

    /// Registers a link with the given capacity (≥ 0, in the same unit
    /// as flow demands — Mbps throughout this codebase).
    pub fn add_link(&mut self, capacity_mbps: f64) -> LinkId {
        assert!(
            capacity_mbps.is_finite() && capacity_mbps >= 0.0,
            "link capacity must be finite and non-negative"
        );
        let id = LinkId(self.capacity.len() as u32);
        self.capacity.push(capacity_mbps);
        self.usage.push(0.0);
        id
    }

    /// A link's fixed capacity.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.capacity[link.index()]
    }

    /// Adds a flow with the given demand over `links` (duplicates are
    /// collapsed — a flow crosses each link at most once). A flow with
    /// no links runs at its full demand.
    pub fn add_flow(&mut self, links: &[LinkId], demand: f64) -> FlowKey {
        assert!(demand.is_finite() && demand >= 0.0, "flow demand must be finite and non-negative");
        let mut ls: Vec<u32> = links.iter().map(|l| l.0).collect();
        ls.sort_unstable();
        ls.dedup();
        if let Some(&max) = ls.last() {
            assert!((max as usize) < self.capacity.len(), "flow references unknown link");
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let f = &mut self.slots[s as usize];
                f.live = true;
                f.demand = demand;
                f.links = ls;
                s
            }
            None => {
                self.slots.push(FlowSlot { generation: 0, live: true, demand, links: ls });
                self.rates.push(0.0);
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        self.dirty = true;
        self.epoch += 1;
        FlowKey { slot, generation: self.slots[slot as usize].generation }
    }

    /// Removes a flow. Returns false (and changes nothing) for a stale
    /// or unknown key.
    pub fn remove_flow(&mut self, key: FlowKey) -> bool {
        let Some(f) = self.slots.get_mut(key.slot as usize) else { return false };
        if !f.live || f.generation != key.generation {
            return false;
        }
        f.live = false;
        f.generation = f.generation.wrapping_add(1);
        f.links = Vec::new();
        self.free.push(key.slot);
        self.live -= 1;
        self.dirty = true;
        self.epoch += 1;
        true
    }

    /// Whether `key` refers to a live flow.
    pub fn contains(&self, key: FlowKey) -> bool {
        self.slots
            .get(key.slot as usize)
            .is_some_and(|f| f.live && f.generation == key.generation)
    }

    /// Number of live flows.
    pub fn flow_count(&self) -> usize {
        self.live
    }

    /// A flow's demand (None for stale keys).
    pub fn demand(&self, key: FlowKey) -> Option<f64> {
        let f = self.slots.get(key.slot as usize)?;
        (f.live && f.generation == key.generation).then_some(f.demand)
    }

    /// A flow's current max-min fair-share rate (None for stale keys).
    /// Recomputes if the flow set changed since the last query.
    pub fn rate(&mut self, key: FlowKey) -> Option<f64> {
        if !self.contains(key) {
            return None;
        }
        self.recompute_if_dirty();
        Some(self.rates[key.slot as usize])
    }

    /// Total bandwidth currently allocated over a link.
    pub fn link_usage(&mut self, link: LinkId) -> f64 {
        self.recompute_if_dirty();
        self.usage[link.index()]
    }

    /// `1 − usage/capacity` for a link, clamped to `[0, 1]`; a
    /// zero-capacity link has no headroom.
    pub fn link_headroom(&mut self, link: LinkId) -> f64 {
        self.recompute_if_dirty();
        let cap = self.capacity[link.index()];
        if cap <= 0.0 {
            return 0.0;
        }
        ((cap - self.usage[link.index()]) / cap).clamp(0.0, 1.0)
    }

    /// Bumped on every flow add/remove (cache invalidation hook).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many full rate recomputes have run (lazy: bounded by the
    /// number of queries, not by the number of mutations).
    pub fn recalcs(&self) -> u64 {
        self.recalcs
    }

    fn recompute_if_dirty(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.recalcs += 1;
        let nlinks = self.capacity.len();
        let mut residual = self.capacity.clone();
        let mut crossing = vec![0u32; nlinks];
        // `unfixed[s]`: slot still accumulating rate.
        let mut unfixed: Vec<bool> = Vec::with_capacity(self.slots.len());
        for (s, f) in self.slots.iter().enumerate() {
            self.rates[s] = 0.0;
            let active = f.live && f.demand > EPS_DEMAND;
            unfixed.push(active);
            if active {
                for &l in &f.links {
                    crossing[l as usize] += 1;
                }
            }
        }
        let mut remaining = unfixed.iter().filter(|&&a| a).count();
        // Each round fixes ≥ 1 flow (demand met or link saturated), so
        // this bound is generous; it guards against float pathologies.
        let mut rounds = self.slots.len() + nlinks + 2;
        while remaining > 0 && rounds > 0 {
            rounds -= 1;
            // The uniform increment: limited by the tightest per-flow
            // fair share on any loaded link and by the closest demand.
            let mut delta = f64::INFINITY;
            for l in 0..nlinks {
                if crossing[l] > 0 {
                    let share = residual[l].max(0.0) / f64::from(crossing[l]);
                    if share < delta {
                        delta = share;
                    }
                }
            }
            for (s, f) in self.slots.iter().enumerate() {
                if unfixed[s] {
                    let gap = f.demand - self.rates[s];
                    if gap < delta {
                        delta = gap;
                    }
                }
            }
            if !delta.is_finite() {
                break;
            }
            let delta = delta.max(0.0);
            if delta > 0.0 {
                for (s, f) in self.slots.iter().enumerate() {
                    if unfixed[s] {
                        self.rates[s] += delta;
                        let _ = f;
                    }
                }
                for l in 0..nlinks {
                    if crossing[l] > 0 {
                        residual[l] -= delta * f64::from(crossing[l]);
                    }
                }
            }
            // Freeze flows that met demand or sit on a saturated link.
            for (s, f) in self.slots.iter().enumerate() {
                if !unfixed[s] {
                    continue;
                }
                let done = f.demand - self.rates[s] <= EPS_DEMAND
                    || f.links.iter().any(|&l| residual[l as usize] <= EPS_LINK);
                if done {
                    unfixed[s] = false;
                    remaining -= 1;
                    for &l in &f.links {
                        crossing[l as usize] -= 1;
                    }
                }
            }
        }
        debug_assert_eq!(remaining, 0, "progressive filling failed to converge");
        for (l, r) in residual.iter().enumerate() {
            self.usage[l] = self.capacity[l] - r;
        }
    }

    /// Checks the fair-share safety invariants, returning a description
    /// of the first violation: every flow rate is within `[0, demand]`
    /// and every link's allocated total stays within capacity (to float
    /// slack).
    pub fn verify_invariants(&mut self) -> Result<(), String> {
        self.recompute_if_dirty();
        let mut per_link = vec![0.0f64; self.capacity.len()];
        for (s, f) in self.slots.iter().enumerate() {
            if !f.live {
                continue;
            }
            let r = self.rates[s];
            if !(0.0..=f.demand + 1e-9).contains(&r) {
                return Err(format!("flow slot {s}: rate {r} outside [0, {}]", f.demand));
            }
            for &l in &f.links {
                per_link[l as usize] += r;
            }
        }
        for (l, &total) in per_link.iter().enumerate() {
            let cap = self.capacity[l];
            if total > cap + 1e-6 {
                return Err(format!("link {l}: allocated {total} exceeds capacity {cap}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_flow_gets_full_demand() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.add_flow(&[l], 10.0);
        assert_eq!(net.rate(f), Some(10.0));
        assert!((net.link_usage(l) - 10.0).abs() < 1e-12);
        assert!(net.verify_invariants().is_ok());
    }

    #[test]
    fn equal_flows_split_a_bottleneck_evenly() {
        let mut net = FlowNet::new();
        let l = net.add_link(90.0);
        let a = net.add_flow(&[l], 100.0);
        let b = net.add_flow(&[l], 100.0);
        let c = net.add_flow(&[l], 100.0);
        for f in [a, b, c] {
            assert!((net.rate(f).unwrap() - 30.0).abs() < 1e-9);
        }
        assert!(net.verify_invariants().is_ok());
    }

    #[test]
    fn small_demand_frees_share_for_the_rest() {
        // Classic max-min: demands 5, 100, 100 on a 90-capacity link →
        // 5, 42.5, 42.5.
        let mut net = FlowNet::new();
        let l = net.add_link(90.0);
        let small = net.add_flow(&[l], 5.0);
        let big1 = net.add_flow(&[l], 100.0);
        let big2 = net.add_flow(&[l], 100.0);
        assert!((net.rate(small).unwrap() - 5.0).abs() < 1e-9);
        assert!((net.rate(big1).unwrap() - 42.5).abs() < 1e-9);
        assert!((net.rate(big2).unwrap() - 42.5).abs() < 1e-9);
    }

    #[test]
    fn multi_link_flow_is_limited_by_its_tightest_link() {
        let mut net = FlowNet::new();
        let wide = net.add_link(100.0);
        let narrow = net.add_link(10.0);
        let through = net.add_flow(&[wide, narrow], 50.0);
        let local = net.add_flow(&[wide], 50.0);
        assert!((net.rate(through).unwrap() - 10.0).abs() < 1e-9);
        // The local flow picks up what the through flow cannot use.
        assert!((net.rate(local).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn removal_returns_bandwidth() {
        let mut net = FlowNet::new();
        let l = net.add_link(60.0);
        let a = net.add_flow(&[l], 60.0);
        let b = net.add_flow(&[l], 60.0);
        assert!((net.rate(a).unwrap() - 30.0).abs() < 1e-9);
        assert!(net.remove_flow(b));
        assert!((net.rate(a).unwrap() - 60.0).abs() < 1e-9);
        // Stale key is inert.
        assert!(!net.remove_flow(b));
        assert_eq!(net.rate(b), None);
    }

    #[test]
    fn slot_reuse_does_not_alias_old_keys() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let a = net.add_flow(&[l], 1.0);
        assert!(net.remove_flow(a));
        let b = net.add_flow(&[l], 2.0);
        assert!(!net.contains(a));
        assert_eq!(net.demand(a), None);
        assert_eq!(net.demand(b), Some(2.0));
    }

    #[test]
    fn zero_capacity_link_pins_flows_to_zero() {
        let mut net = FlowNet::new();
        let dead = net.add_link(0.0);
        let f = net.add_flow(&[dead], 5.0);
        assert_eq!(net.rate(f), Some(0.0));
        assert!(net.verify_invariants().is_ok());
    }

    #[test]
    fn linkless_flow_runs_at_demand() {
        let mut net = FlowNet::new();
        let f = net.add_flow(&[], 7.5);
        assert_eq!(net.rate(f), Some(7.5));
    }

    #[test]
    fn insertion_order_is_bitwise_irrelevant() {
        // Three links, five flows with awkward demands; insert in two
        // different orders and compare every rate bit-for-bit.
        let caps = [37.0, 11.0, 91.0];
        let specs: [(&[usize], f64); 5] = [
            (&[0, 1], 13.3),
            (&[1], 7.7),
            (&[0, 2], 55.5),
            (&[2], 100.0),
            (&[0, 1, 2], 3.1),
        ];
        let build = |order: &[usize]| {
            let mut net = FlowNet::new();
            let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
            let mut keys = vec![None; specs.len()];
            for &i in order {
                let (ls, d) = specs[i];
                let ls: Vec<LinkId> = ls.iter().map(|&j| links[j]).collect();
                keys[i] = Some(net.add_flow(&ls, d));
            }
            let rates: Vec<u64> =
                keys.iter().map(|k| net.rate(k.unwrap()).unwrap().to_bits()).collect();
            rates
        };
        let fwd = build(&[0, 1, 2, 3, 4]);
        let rev = build(&[4, 3, 2, 1, 0]);
        let shuffled = build(&[2, 0, 4, 1, 3]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd, shuffled);
    }

    #[test]
    fn epoch_and_recalcs_track_mutations_lazily() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        assert_eq!(net.epoch(), 0);
        let a = net.add_flow(&[l], 1.0);
        let b = net.add_flow(&[l], 1.0);
        assert_eq!(net.epoch(), 2);
        assert_eq!(net.recalcs(), 0, "no query yet, no recompute");
        let _ = net.rate(a);
        let _ = net.rate(b);
        assert_eq!(net.recalcs(), 1, "one recompute serves both queries");
        net.remove_flow(a);
        assert_eq!(net.epoch(), 3);
        let _ = net.rate(b);
        assert_eq!(net.recalcs(), 2);
    }
}
