//! Function graphs: required service functions connected by dependency and
//! commutation links (paper §2.1, Fig. 4).
//!
//! A *dependency link* `F_a → F_b` means F_b consumes F_a's output. A
//! *commutation link* `{F_a, F_b}` means the two functions' composition
//! order may be exchanged (e.g. color filtering and image scaling). The
//! graph of dependency links must be a DAG.
//!
//! **Composition patterns.** The paper derives alternative composition
//! orders per hop during probing; we pre-enumerate them at the source as
//! *patterns* — one dependency DAG per achievable ordering — which covers
//! exactly the same candidate set (each per-hop exchange decision
//! corresponds to choosing one pattern) while keeping the per-hop logic
//! simple. Each subset of commutation links is applied as a transposition
//! of the two functions' positions; orderings that would create a cycle are
//! discarded.

use spidernet_util::error::{Error, Result};
use spidernet_util::id::FunctionId;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// A function graph over dependency and commutation links.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionGraph {
    nodes: Vec<FunctionId>,
    deps: Vec<(usize, usize)>,
    commutations: Vec<(usize, usize)>,
}

impl FunctionGraph {
    /// Builds and validates a function graph.
    ///
    /// Requirements: at least one node; dependency edges form a DAG over
    /// valid node indices with no self-loops; commutation pairs reference
    /// valid, distinct nodes; the dependency relation is weakly connected
    /// (a composite service is one workflow, not several).
    pub fn new(
        nodes: Vec<FunctionId>,
        deps: Vec<(usize, usize)>,
        commutations: Vec<(usize, usize)>,
    ) -> Result<Self> {
        if nodes.is_empty() {
            return Err(Error::InvalidFunctionGraph("no nodes".into()));
        }
        let n = nodes.len();
        for &(a, b) in &deps {
            if a >= n || b >= n {
                return Err(Error::InvalidFunctionGraph(format!("edge ({a},{b}) out of range")));
            }
            if a == b {
                return Err(Error::InvalidFunctionGraph(format!("self-loop on {a}")));
            }
        }
        for &(a, b) in &commutations {
            if a >= n || b >= n || a == b {
                return Err(Error::InvalidFunctionGraph(format!(
                    "bad commutation pair ({a},{b})"
                )));
            }
        }
        let g = FunctionGraph { nodes, deps, commutations };
        if g.topo_order().is_none() {
            return Err(Error::InvalidFunctionGraph("dependency cycle".into()));
        }
        if n > 1 && !g.weakly_connected() {
            return Err(Error::InvalidFunctionGraph("not weakly connected".into()));
        }
        Ok(g)
    }

    /// A linear chain `F_0 → F_1 → … → F_{k-1}` over functions `0..k`.
    pub fn linear(k: usize) -> FunctionGraph {
        Self::linear_of(&(0..k as u64).map(FunctionId::new).collect::<Vec<_>>())
    }

    /// A linear chain over the given functions, in order.
    pub fn linear_of(functions: &[FunctionId]) -> FunctionGraph {
        let deps = (0..functions.len().saturating_sub(1)).map(|i| (i, i + 1)).collect();
        FunctionGraph::new(functions.to_vec(), deps, Vec::new())
            .expect("linear chains are always valid")
    }

    /// Number of function nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The function at node index `i`.
    pub fn function(&self, i: usize) -> FunctionId {
        self.nodes[i]
    }

    /// All node functions in index order.
    pub fn functions(&self) -> &[FunctionId] {
        &self.nodes
    }

    /// Dependency edges.
    pub fn deps(&self) -> &[(usize, usize)] {
        &self.deps
    }

    /// Commutation pairs.
    pub fn commutations(&self) -> &[(usize, usize)] {
        &self.commutations
    }

    /// Dependency successors of node `i`.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.deps.iter().filter(move |(a, _)| *a == i).map(|(_, b)| *b)
    }

    /// Dependency predecessors of node `i`.
    pub fn predecessors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.deps.iter().filter(move |(_, b)| *b == i).map(|(a, _)| *a)
    }

    /// Nodes with no predecessors (entry functions fed by the source).
    pub fn entry_nodes(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.predecessors(i).next().is_none()).collect()
    }

    /// Nodes with no successors (exit functions feeding the destination).
    pub fn exit_nodes(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.successors(i).next().is_none()).collect()
    }

    /// A topological order of the dependency DAG, or `None` if cyclic.
    /// Kahn's algorithm over one buffer: the queue it pops from is the
    /// order it returns, and each node's newly freed successors join it
    /// sorted, so the order is deterministic.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for &(_, b) in &self.deps {
            indeg[b] += 1;
        }
        let mut order: Vec<usize> = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| indeg[i] == 0));
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            let freed = order.len();
            for s in self.successors(v) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    order.push(s);
                }
            }
            order[freed..].sort_unstable();
        }
        (order.len() == n).then_some(order)
    }

    fn weakly_connected(&self) -> bool {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(a, b) in &self.deps {
                let other = if a == v {
                    b
                } else if b == v {
                    a
                } else {
                    continue;
                };
                if !seen[other] {
                    seen[other] = true;
                    count += 1;
                    stack.push(other);
                }
            }
        }
        count == n
    }

    /// True if the dependency relation is a single path (linear
    /// composition).
    pub fn is_linear(&self) -> bool {
        self.entry_nodes().len() == 1
            && self.exit_nodes().len() == 1
            && (0..self.len()).all(|i| self.successors(i).count() <= 1)
    }

    /// All branch paths: every dependency path from an entry node to an
    /// exit node, in node indices. A probe traverses exactly one branch
    /// path (paper §4.3); a linear graph has exactly one.
    pub fn branch_paths(&self) -> Vec<Vec<usize>> {
        let mut paths = Vec::new();
        self.branch_paths_into(&mut paths);
        paths
    }

    /// [`FunctionGraph::branch_paths`] written into `paths`, reusing its
    /// buffers: each path is built in the slot it ends in, a sibling
    /// starting from a copy of the prefix it shares with the path before.
    pub(crate) fn branch_paths_into(&self, paths: &mut Vec<Vec<usize>>) {
        let mut done = 0;
        for entry in (0..self.len()).filter(|&i| self.predecessors(i).next().is_none()) {
            let slot = path_slot(paths, done);
            slot.clear();
            slot.push(entry);
            self.extend_branch(paths, &mut done, 1);
        }
        paths.truncate(done);
        paths.sort_unstable();
    }

    /// Completes every branch path extending the prefix `paths[*done][..len]`
    /// into `paths[*done..]`, advancing `*done` past each completed path.
    fn extend_branch(&self, paths: &mut Vec<Vec<usize>>, done: &mut usize, len: usize) {
        let last = paths[*done][len - 1];
        let mut sibling = false;
        for s in self.successors(last) {
            if sibling {
                // The previous successor's paths are complete; the last of
                // them still holds the shared prefix.
                path_slot(paths, *done);
                let (head, tail) = paths.split_at_mut(*done);
                tail[0].clear();
                tail[0].extend_from_slice(&head[*done - 1][..len]);
            }
            sibling = true;
            let slot = &mut paths[*done];
            slot.truncate(len);
            slot.push(s);
            self.extend_branch(paths, done, len + 1);
        }
        if !sibling {
            *done += 1;
        }
    }

    /// The number of branch paths, counted without building them.
    pub(crate) fn branch_count(&self) -> usize {
        (0..self.len())
            .filter(|&i| self.predecessors(i).next().is_none())
            .map(|entry| self.paths_from(entry))
            .sum()
    }

    /// Dependency paths from node `v` to an exit node.
    fn paths_from(&self, v: usize) -> usize {
        let mut successors = self.successors(v).peekable();
        if successors.peek().is_none() {
            return 1;
        }
        successors.map(|s| self.paths_from(s)).sum()
    }

    /// Enumerates composition patterns: for each subset of commutation
    /// links, swap the two functions' positions and keep the result if the
    /// dependency relation stays acyclic. Patterns are deduplicated; the
    /// original graph is always first. A graph with no commutation link is
    /// its own only pattern and is returned as is, borrowed.
    pub fn patterns(&self) -> Cow<'_, [FunctionGraph]> {
        if self.commutations.is_empty() {
            return Cow::Borrowed(std::slice::from_ref(self));
        }
        let k = self.commutations.len();
        let mut out: Vec<FunctionGraph> = Vec::new();
        let mut seen: BTreeSet<Vec<FunctionId>> = BTreeSet::new();
        // Cap blow-up: commutation links are few in practice (the paper's
        // examples have one or two), but guard against adversarial inputs.
        let subsets = 1u32 << k.min(10);
        for mask in 0..subsets {
            let mut perm: Vec<usize> = (0..self.len()).collect();
            for (bit, &(a, b)) in self.commutations.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    perm.swap(a, b);
                }
            }
            // Node positions stay fixed; the *functions* move: position i
            // now carries the function originally at perm[i].
            let nodes: Vec<FunctionId> = perm.iter().map(|&i| self.nodes[i]).collect();
            let candidate = FunctionGraph {
                nodes: nodes.clone(),
                deps: self.deps.clone(),
                commutations: Vec::new(),
            };
            if candidate.topo_order().is_some() && seen.insert(nodes) {
                if mask == 0 {
                    out.insert(0, candidate);
                } else {
                    out.push(candidate);
                }
            }
        }
        Cow::Owned(out)
    }
}

/// Slot `i` of `paths`, pushed empty when `paths` is shorter.
fn path_slot(paths: &mut Vec<Vec<usize>>, i: usize) -> &mut Vec<usize> {
    if paths.len() == i {
        paths.push(Vec::new());
    }
    &mut paths[i]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(x: u64) -> FunctionId {
        FunctionId::new(x)
    }

    /// The paper's Fig. 4 shape: F1 → F2, F1 → F3 → F5, F2 → F4 → F5 with
    /// commutation {F3, F4}. Simplified here to a diamond:
    /// 0→1→3, 0→2→3 with commutation {1, 2}.
    fn diamond_with_commutation() -> FunctionGraph {
        FunctionGraph::new(
            vec![fid(0), fid(1), fid(2), fid(3)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![(1, 2)],
        )
        .unwrap()
    }

    #[test]
    fn linear_chain_shape() {
        let g = FunctionGraph::linear(4);
        assert_eq!(g.len(), 4);
        assert!(g.is_linear());
        assert_eq!(g.entry_nodes(), vec![0]);
        assert_eq!(g.exit_nodes(), vec![3]);
        assert_eq!(g.topo_order().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(g.branch_paths(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn single_node_graph() {
        let g = FunctionGraph::linear(1);
        assert_eq!(g.branch_paths(), vec![vec![0]]);
        assert!(g.is_linear());
    }

    #[test]
    fn validation_rejects_cycles() {
        let err = FunctionGraph::new(vec![fid(0), fid(1)], vec![(0, 1), (1, 0)], vec![]);
        assert!(matches!(err, Err(Error::InvalidFunctionGraph(_))));
    }

    #[test]
    fn validation_rejects_disconnected() {
        let err = FunctionGraph::new(vec![fid(0), fid(1), fid(2)], vec![(0, 1)], vec![]);
        assert!(err.is_err());
    }

    #[test]
    fn validation_rejects_bad_indices_and_self_loops() {
        assert!(FunctionGraph::new(vec![fid(0)], vec![(0, 5)], vec![]).is_err());
        assert!(FunctionGraph::new(vec![fid(0), fid(1)], vec![(0, 0)], vec![]).is_err());
        assert!(FunctionGraph::new(vec![fid(0), fid(1)], vec![(0, 1)], vec![(1, 1)]).is_err());
        assert!(FunctionGraph::new(vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn dag_branch_paths() {
        let g = diamond_with_commutation();
        assert!(!g.is_linear());
        let paths = g.branch_paths();
        assert_eq!(paths, vec![vec![0, 1, 3], vec![0, 2, 3]]);
    }

    #[test]
    fn branch_paths_reuse_their_buffers_and_count_without_building() {
        // Two entries into a fork whose second arm forks again: six paths.
        let g = FunctionGraph::new(
            (0..7).map(fid).collect(),
            vec![(0, 2), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6)],
            vec![],
        )
        .unwrap();
        let want = vec![
            vec![0, 2, 3],
            vec![0, 2, 4, 5],
            vec![0, 2, 4, 6],
            vec![1, 2, 3],
            vec![1, 2, 4, 5],
            vec![1, 2, 4, 6],
        ];
        assert_eq!(g.branch_count(), 6);
        let diamond = diamond_with_commutation();
        let diamond_paths = diamond.branch_paths();
        // One buffer through a shorter, a longer and a shorter graph again.
        let mut paths = vec![vec![9; 8]; 3];
        for (graph, want) in [(&diamond, &diamond_paths), (&g, &want), (&diamond, &diamond_paths)] {
            graph.branch_paths_into(&mut paths);
            assert_eq!(&paths, want);
            assert_eq!(graph.branch_count(), want.len());
        }
    }

    #[test]
    fn successors_and_predecessors() {
        let g = diamond_with_commutation();
        let succ: Vec<usize> = g.successors(0).collect();
        assert_eq!(succ, vec![1, 2]);
        let pred: Vec<usize> = g.predecessors(3).collect();
        assert_eq!(pred, vec![1, 2]);
    }

    #[test]
    fn patterns_of_commutation_free_graph_is_identity() {
        let g = FunctionGraph::linear(3);
        let pats = g.patterns();
        assert_eq!(pats.len(), 1);
        assert_eq!(pats[0].functions(), g.functions());
    }

    #[test]
    fn chain_commutation_yields_two_orders() {
        // 0 → 1 → 2 with {1, 2} commutable: orders 012 and 021.
        let g = FunctionGraph::new(
            vec![fid(10), fid(11), fid(12)],
            vec![(0, 1), (1, 2)],
            vec![(1, 2)],
        )
        .unwrap();
        let pats = g.patterns();
        assert_eq!(pats.len(), 2);
        assert_eq!(pats[0].functions(), &[fid(10), fid(11), fid(12)]);
        assert_eq!(pats[1].functions(), &[fid(10), fid(12), fid(11)]);
        // Patterns expose no further commutations.
        assert!(pats.iter().all(|p| p.commutations().is_empty()));
    }

    #[test]
    fn diamond_commutation_swaps_branches() {
        let g = diamond_with_commutation();
        let pats = g.patterns();
        assert_eq!(pats.len(), 2);
        // Swapped pattern carries F2 on the first branch.
        assert_eq!(pats[1].function(1), fid(2));
        assert_eq!(pats[1].function(2), fid(1));
        // Dependency structure is preserved.
        assert_eq!(pats[1].deps(), g.deps());
    }

    #[test]
    fn two_commutations_yield_up_to_four_patterns() {
        // 0→1→2→3 with {0,1} and {2,3} commutable.
        let g = FunctionGraph::new(
            vec![fid(0), fid(1), fid(2), fid(3)],
            vec![(0, 1), (1, 2), (2, 3)],
            vec![(0, 1), (2, 3)],
        )
        .unwrap();
        let pats = g.patterns();
        assert_eq!(pats.len(), 4);
        let orders: BTreeSet<Vec<u64>> =
            pats.iter().map(|p| p.functions().iter().map(|f| f.raw()).collect()).collect();
        assert!(orders.contains(&vec![0, 1, 2, 3]));
        assert!(orders.contains(&vec![1, 0, 2, 3]));
        assert!(orders.contains(&vec![0, 1, 3, 2]));
        assert!(orders.contains(&vec![1, 0, 3, 2]));
    }

    #[test]
    fn topo_order_is_deterministic() {
        let g = diamond_with_commutation();
        assert_eq!(g.topo_order().unwrap(), g.topo_order().unwrap());
    }
}
