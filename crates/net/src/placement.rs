//! Which reactor thread owns which node.
//!
//! In a sequential execution a request is a causal chain of messages
//! along tree edges; every hop whose two ends live on different reactors
//! is a thread switch. [`place`] deals the nodes out in contiguous blocks
//! of a depth-first preorder, so each reactor owns connected subtrees
//! plus the path above them, and a chain crosses reactors only where it
//! leaves a block (DESIGN.md §9, "Placement").

use oat_core::tree::{NodeId, Tree};

/// The reactor (`0..pool`) owning each node, indexed by node id.
///
/// Walks the tree depth-first from node 0, visiting neighbours highest
/// id first, and gives the `i`-th node visited to reactor
/// `i * pool / n`. Each reactor so holds one contiguous preorder range;
/// sizes differ by at most one, and none is empty for `1 ≤ pool ≤ n`.
///
/// The order is highest id first on purpose. The mechanism does not care
/// about child order, but the benchmark's concurrent readings do: they
/// sit on a race between the frontends at leaves 15 and 30 of
/// `kary:31:2`, decided by which thread owns which of the nine nodes on
/// the path between them (DESIGN.md §9, "What the benchmark's
/// `pipe-mixed` reads"). Highest first puts the root with the last root
/// subtree, so with two reactors 15, 7, 3, 1 share one and 0, 2, 6, 14,
/// 30 the other — the split `id % 2` gave. Lowest first mirrors that
/// split, which changes which frontend leads. Do not flip it silently.
pub(crate) fn place(tree: &Tree, pool: usize) -> Vec<usize> {
    let n = tree.len();
    let mut reactor = vec![0; n];
    let mut seen = vec![false; n];
    let mut stack = vec![NodeId(0)];
    seen[0] = true;
    let mut i = 0;
    while let Some(u) = stack.pop() {
        reactor[u.idx()] = i * pool / n;
        i += 1;
        // Pushed ascending, so the highest unvisited neighbour pops next.
        for &v in tree.nbrs(u) {
            if !seen[v.idx()] {
                seen[v.idx()] = true;
                stack.push(v);
            }
        }
    }
    reactor
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_workloads::{caterpillar, random_tree};

    /// The highest-first preorder, written recursively as a reference.
    fn preorder(tree: &Tree) -> Vec<NodeId> {
        fn walk(tree: &Tree, u: NodeId, from: Option<NodeId>, out: &mut Vec<NodeId>) {
            out.push(u);
            for &v in tree.nbrs(u).iter().rev() {
                if Some(v) != from {
                    walk(tree, v, Some(u), out);
                }
            }
        }
        let mut out = Vec::new();
        walk(tree, NodeId(0), None, &mut out);
        out
    }

    fn crossings(tree: &Tree, reactor: &[usize]) -> usize {
        tree.undirected_edges()
            .iter()
            .filter(|(a, b)| reactor[a.idx()] != reactor[b.idx()])
            .count()
    }

    #[test]
    fn placement_is_balanced_contiguous_preorder_blocks() {
        let mut trees = vec![
            ("path:9", Tree::path(9)),
            ("path:2", Tree::path(2)),
            ("star:9", Tree::star(9)),
            ("kary:15:2", Tree::kary(15, 2)),
            ("kary:31:2", Tree::kary(31, 2)),
            ("caterpillar:5:3", caterpillar(5, 3)),
        ];
        for seed in 0..100 {
            let n = 1 + (seed as usize * 7) % 40;
            trees.push(("random", random_tree(n, seed)));
        }
        for (name, tree) in &trees {
            let n = tree.len();
            let order = preorder(tree);
            assert_eq!(
                order.len(),
                n,
                "{name}: the reference walk visits every node"
            );
            for pool in 1..=4.min(n) {
                let reactor = place(tree, pool);
                assert_eq!(reactor.len(), n, "{name} pool {pool}");
                let mut sizes = vec![0usize; pool];
                for &r in &reactor {
                    sizes[r] += 1;
                }
                assert_eq!(sizes.iter().sum::<usize>(), n, "{name} pool {pool}");
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(*lo >= 1, "{name} pool {pool}: an empty reactor {sizes:?}");
                assert!(hi - lo <= 1, "{name} pool {pool}: unbalanced {sizes:?}");
                // Reactor indices never fall along the preorder, so each
                // reactor's nodes form one contiguous range of it.
                let along: Vec<usize> = order.iter().map(|u| reactor[u.idx()]).collect();
                assert!(
                    along.windows(2).all(|w| w[0] <= w[1]),
                    "{name} pool {pool}: not contiguous {along:?}"
                );
            }
        }
    }

    #[test]
    fn placement_crossing_counts() {
        let t = Tree::kary(31, 2);
        let two = place(&t, 2);
        assert_eq!(crossings(&t, &two), 1);
        assert_ne!(two[0], two[1], "the one crossing edge is 0-1");
        assert_eq!(crossings(&t, &place(&t, 3)), 6);
        assert_eq!(crossings(&t, &place(&t, 4)), 4);
        for n in [2, 5, 9, 31] {
            let p = Tree::path(n);
            for pool in 1..=4.min(n) {
                assert_eq!(crossings(&p, &place(&p, pool)), pool - 1, "path:{n}");
            }
        }
    }

    /// The benchmark's concurrent workloads race the frontends at leaves
    /// 15 and 30 of `kary:31:2`, and which one leads depends on which
    /// thread owns each node on the path between them (DESIGN.md §9).
    /// The placement keeps every one of them where `id % 2` put it.
    #[test]
    fn frontend_path_keeps_the_parity_split() {
        let reactor = place(&Tree::kary(31, 2), 2);
        for id in [1, 3, 7, 15, 0, 2, 6, 14, 30] {
            assert_eq!(
                reactor[id],
                id % 2,
                "node {id} left the reactor id % 2 gave it"
            );
        }
    }
}
