//! Keyword-based service discovery on top of the DHT (paper §3).
//!
//! *Registration*: a peer sharing a service component hashes the component's
//! function name into a key and stores the component's static metadata at
//! the key's replica root. *Discovery*: any peer hashes the same name,
//! routes a query to the root, and receives the metadata list of all
//! functionally duplicated components.

use crate::network::{PastryNetwork, RouteOutcome};
use crate::nodeid::NodeId;
use spidernet_sim::trace::TraceBuffer;
use spidernet_util::hash::function_key;
use spidernet_util::id::{ComponentId, FunctionId, PeerId};

/// Static metadata registered for one service component.
///
/// The paper stores "location, input QoS, output QoS" — location is the
/// hosting peer; the QoS/resource profile is resolved from the component
/// registry in `spidernet-core` via `component`, keeping the wire record
/// small.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceMeta {
    /// The registered component.
    pub component: ComponentId,
    /// The peer hosting it.
    pub peer: PeerId,
    /// The abstract function it provides.
    pub function: FunctionId,
}

/// The DHT-backed service directory.
///
/// Storage is held per responsible peer, exactly as a deployment would
/// shard it; every operation routes through the Pastry network and reports
/// the hops/latency it cost, which the Fig. 10 experiment accounts as
/// "service discovery time".
///
/// Layout is dense: the outer table is a `Vec` indexed by the responsible
/// peer's dense id (an empty row means "holds nothing", replacing the old
/// map's absent key), and each row is a key-sorted `Vec`. Ascending-index
/// iteration over the outer `Vec` is ascending-`PeerId` iteration, and the
/// sorted rows iterate in ascending key order — the exact orders the old
/// `BTreeMap`-of-`BTreeMap` walked during churn-time re-homing, so
/// replica-list order is unchanged and identical across processes.
#[derive(Clone, Debug, Default)]
pub struct ServiceDirectory {
    /// `store[peer.index()]` = key-sorted replica metadata lists.
    store: Vec<Vec<(u128, Vec<ServiceMeta>)>>,
}

/// The replica list for `key` in one peer's row, inserting an empty list
/// at the sorted position if the key is new.
fn list_mut(row: &mut Vec<(u128, Vec<ServiceMeta>)>, key: u128) -> &mut Vec<ServiceMeta> {
    match row.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(pos) => &mut row[pos].1,
        Err(pos) => {
            row.insert(pos, (key, Vec::new()));
            &mut row[pos].1
        }
    }
}

impl ServiceDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        ServiceDirectory { store: Vec::new() }
    }

    fn row_mut(&mut self, peer: PeerId) -> &mut Vec<(u128, Vec<ServiceMeta>)> {
        let i = peer.index();
        if i >= self.store.len() {
            self.store.resize_with(i + 1, Vec::new);
        }
        &mut self.store[i]
    }

    /// Registers a component under `function_name`, routing from the
    /// hosting peer to the key's replica root. Returns the route taken;
    /// the routing cost is recorded into `trace`.
    pub fn register(
        &mut self,
        net: &PastryNetwork,
        function_name: &str,
        meta: ServiceMeta,
        latency: &mut dyn FnMut(PeerId, PeerId) -> f64,
        trace: &mut TraceBuffer,
    ) -> Option<RouteOutcome> {
        let key = function_key(function_name);
        let out = net.route_traced(meta.peer, NodeId::new(key), latency, trace)?;
        let root = out.destination();
        let list = list_mut(self.row_mut(root), key);
        if !list.iter().any(|m| m.component == meta.component) {
            list.push(meta);
        }
        Some(out)
    }

    /// Looks up the replica list for `function_name` from `from`. Returns
    /// the metadata list, borrowed from the replica root's store (empty if
    /// nothing registered), and the query route; the routing cost is
    /// recorded into `trace`.
    pub fn lookup(
        &self,
        net: &PastryNetwork,
        from: PeerId,
        function_name: &str,
        latency: &mut dyn FnMut(PeerId, PeerId) -> f64,
        trace: &mut TraceBuffer,
    ) -> Option<(&[ServiceMeta], RouteOutcome)> {
        let key = function_key(function_name);
        let out = net.route_traced(from, NodeId::new(key), latency, trace)?;
        let list = self
            .store
            .get(out.destination().index())
            .and_then(|row| {
                row.binary_search_by_key(&key, |&(k, _)| k).ok().map(|pos| row[pos].1.as_slice())
            })
            .unwrap_or_default();
        Some((list, out))
    }

    /// Handles a peer departure:
    /// 1. metadata *hosted by* the departed peer migrates to each key's new
    ///    replica root (Pastry re-replication);
    /// 2. registrations *referring to components on* the departed peer are
    ///    dropped everywhere (their services are gone).
    ///
    /// Call after [`PastryNetwork::remove_node`].
    pub fn handle_departure(&mut self, net: &PastryNetwork, departed: PeerId) {
        let di = departed.index();
        let hosted = if di < self.store.len() {
            std::mem::take(&mut self.store[di])
        } else {
            Vec::new()
        };
        for (key, list) in hosted {
            if let Some(new_root) = net.responsible(NodeId::new(key)) {
                let dst = list_mut(self.row_mut(new_root), key);
                for m in list {
                    if m.peer != departed && !dst.iter().any(|e| e.component == m.component) {
                        dst.push(m);
                    }
                }
            }
        }
        for row in &mut self.store {
            for (_, list) in row.iter_mut() {
                list.retain(|m| m.peer != departed);
            }
        }
    }

    /// After a peer arrival, keys whose replica root changed must migrate
    /// to the new node. Call after [`PastryNetwork::add_node`].
    pub fn handle_arrival(&mut self, net: &PastryNetwork) {
        let mut moves: Vec<(PeerId, u128, Vec<ServiceMeta>)> = Vec::new();
        for (hi, row) in self.store.iter().enumerate() {
            let holder = PeerId::from(hi);
            for &(key, ref list) in row {
                let root = net.responsible(NodeId::new(key)).expect("non-empty network");
                if root != holder {
                    moves.push((holder, key, list.clone()));
                }
            }
        }
        for (holder, key, list) in moves {
            if let Some(row) = self.store.get_mut(holder.index()) {
                if let Ok(pos) = row.binary_search_by_key(&key, |&(k, _)| k) {
                    row.remove(pos);
                }
            }
            let root = net.responsible(NodeId::new(key)).expect("non-empty network");
            let dst = list_mut(self.row_mut(root), key);
            for m in list {
                if !dst.iter().any(|e| e.component == m.component) {
                    dst.push(m);
                }
            }
        }
    }

    /// Total registrations held (diagnostics).
    pub fn total_entries(&self) -> usize {
        self.store.iter().flat_map(|row| row.iter()).map(|(_, l)| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(_: PeerId, _: PeerId) -> f64 {
        1.0
    }

    fn setup(n: u64) -> (PastryNetwork, ServiceDirectory) {
        let peers: Vec<PeerId> = (0..n).map(PeerId::new).collect();
        (PastryNetwork::build(&peers, &mut flat), ServiceDirectory::new())
    }

    fn meta(c: u64, p: u64, f: u64) -> ServiceMeta {
        ServiceMeta {
            component: ComponentId::new(c),
            peer: PeerId::new(p),
            function: FunctionId::new(f),
        }
    }

    #[test]
    fn register_then_lookup_returns_all_replicas() {
        let (net, mut dir) = setup(32);
        dir.register(&net, "transcode", meta(1, 3, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        dir.register(&net, "transcode", meta(2, 9, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        dir.register(&net, "filter", meta(3, 9, 1), &mut flat, &mut TraceBuffer::new()).unwrap();

        let (list, _) = dir.lookup(&net, PeerId::new(20), "transcode", &mut flat, &mut TraceBuffer::new()).unwrap();
        let mut comps: Vec<u64> = list.iter().map(|m| m.component.raw()).collect();
        comps.sort_unstable();
        assert_eq!(comps, vec![1, 2]);

        let (list, _) = dir.lookup(&net, PeerId::new(20), "filter", &mut flat, &mut TraceBuffer::new()).unwrap();
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn replicas_of_one_function_share_one_root() {
        let (net, mut dir) = setup(32);
        let o1 = dir.register(&net, "scale", meta(1, 0, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        let o2 = dir.register(&net, "scale", meta(2, 17, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        assert_eq!(o1.destination(), o2.destination());
    }

    #[test]
    fn duplicate_registration_is_idempotent() {
        let (net, mut dir) = setup(16);
        dir.register(&net, "f", meta(1, 2, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        dir.register(&net, "f", meta(1, 2, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        assert_eq!(dir.total_entries(), 1);
    }

    #[test]
    fn unknown_function_yields_empty_list() {
        let (net, dir) = setup(16);
        let (list, _) = dir.lookup(&net, PeerId::new(0), "nothing", &mut flat, &mut TraceBuffer::new()).unwrap();
        assert!(list.is_empty());
    }

    #[test]
    fn lookup_cost_is_logarithmic_hops() {
        let (net, mut dir) = setup(128);
        dir.register(&net, "f", meta(1, 0, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        let (_, out) = dir.lookup(&net, PeerId::new(64), "f", &mut flat, &mut TraceBuffer::new()).unwrap();
        assert!(out.hops() <= 5, "hops {}", out.hops());
    }

    #[test]
    fn departure_migrates_hosted_keys() {
        let (mut net, mut dir) = setup(48);
        dir.register(&net, "g", meta(1, 5, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        let root = net
            .route(PeerId::new(5), NodeId::new(function_key("g")), &mut flat)
            .unwrap()
            .destination();
        net.remove_node(root);
        dir.handle_departure(&net, root);
        let (list, out) = dir.lookup(&net, PeerId::new(1), "g", &mut flat, &mut TraceBuffer::new()).unwrap();
        assert_eq!(list.len(), 1, "metadata lost after root departure");
        assert_ne!(out.destination(), root);
    }

    #[test]
    fn departure_drops_registrations_of_dead_components() {
        let (mut net, mut dir) = setup(48);
        dir.register(&net, "g", meta(1, 5, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        dir.register(&net, "g", meta(2, 6, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        net.remove_node(PeerId::new(5));
        dir.handle_departure(&net, PeerId::new(5));
        let (list, _) = dir.lookup(&net, PeerId::new(1), "g", &mut flat, &mut TraceBuffer::new()).unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].peer, PeerId::new(6));
    }

    #[test]
    fn arrival_migrates_keys_to_new_root() {
        let (mut net, mut dir) = setup(8);
        dir.register(&net, "h", meta(1, 2, 0), &mut flat, &mut TraceBuffer::new()).unwrap();
        // Add nodes until the root for "h" changes.
        let key = NodeId::new(function_key("h"));
        let old_root = net.responsible(key).unwrap();
        let mut p = 1000u64;
        while net.responsible(key).unwrap() == old_root && p < 1200 {
            net.add_node(PeerId::new(p), &mut flat);
            p += 1;
        }
        assert_ne!(net.responsible(key).unwrap(), old_root, "root never moved");
        dir.handle_arrival(&net);
        let (list, _) = dir.lookup(&net, PeerId::new(0), "h", &mut flat, &mut TraceBuffer::new()).unwrap();
        assert_eq!(list.len(), 1, "metadata lost after arrival migration");
    }
}
