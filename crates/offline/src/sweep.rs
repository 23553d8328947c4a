//! One pass over `σ` that advances every ordered pair's machine.
//!
//! Lemma 3.9 bills a lease-based algorithm, and the offline optimum, as
//! a sum of per-ordered-pair costs over `σ(u,v)`. Every request lands in
//! exactly one of `σ(c,p)` and `σ(p,c)` for each tree edge (child `c`,
//! parent `p` in the canonical rooting at node 0):
//!
//! * a write at `x` is a `W` of `σ(c,p)` when `x` lies below `c`, else
//!   of `σ(p,c)`;
//! * a combine at `x` is an `R` of `σ(p,c)` when `x` lies below `c`,
//!   else of `σ(c,p)`.
//!
//! So one scan of `σ`, with one preorder-interval test per edge, feeds
//! every pair's machine its events in sequence order, without
//! materialising any `σ(u,v)`. The totals in [`crate::opt_dp`],
//! [`crate::replay`] and [`crate::nopt`] are all this sweep with a
//! different per-pair machine; [`oat_core::request::sigma`] stays the
//! definition the sweep is tested against.

use oat_core::request::{EdgeEvent, Request};
use oat_core::tree::{NodeId, Tree};

/// One tree edge as the sweep sees it.
struct Edge {
    /// Preorder number of the child `c`.
    lo: u32,
    /// Number of nodes below (and including) `c`: `x` is below `c` iff
    /// `pre[x] - lo < size`.
    size: u32,
    /// The [`Tree::dir_edge_index`] of `(c, p)` and of `(p, c)`.
    pairs: [usize; 2],
}

/// Runs one machine per ordered pair over `seq`, each started from
/// `init` and fed its `σ(u,v)` through `step`. The result holds the
/// final machines indexed by [`Tree::dir_edge_index`].
pub(crate) fn sweep<V, M: Clone>(
    tree: &Tree,
    seq: &[Request<V>],
    init: M,
    mut step: impl FnMut(&mut M, EdgeEvent),
) -> Vec<M> {
    let (pre, edges) = preorder_edges(tree);
    // `machines[e]` holds the machines of `(c, p)` and `(p, c)`.
    let mut machines = vec![[init.clone(), init.clone()]; edges.len()];
    for q in seq {
        let pos = pre[q.node.idx()];
        let write = q.op.is_write();
        let ev = if write { EdgeEvent::W } else { EdgeEvent::R };
        for (e, m) in edges.iter().zip(&mut machines) {
            // A write below `c` and a combine outside it go to `σ(c,p)`.
            let below = pos.wrapping_sub(e.lo) < e.size;
            step(&mut m[(below != write) as usize], ev);
        }
    }
    let mut out = vec![init; tree.num_dir_edges()];
    for (e, [m_up, m_down]) in edges.iter().zip(machines) {
        out[e.pairs[0]] = m_up;
        out[e.pairs[1]] = m_down;
    }
    out
}

/// Preorder numbers of the nodes (DFS from node 0) and the sweep's
/// table of tree edges.
fn preorder_edges(tree: &Tree) -> (Vec<u32>, Vec<Edge>) {
    let n = tree.len();
    let mut pre = vec![0u32; n];
    let mut parent = vec![NodeId(0); n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![NodeId(0)];
    while let Some(u) = stack.pop() {
        pre[u.idx()] = order.len() as u32;
        order.push(u);
        for &w in tree.nbrs(u) {
            if w != parent[u.idx()] {
                parent[w.idx()] = u;
                stack.push(w);
            }
        }
    }
    let edges = order[1..]
        .iter()
        .map(|&c| {
            let p = parent[c.idx()];
            Edge {
                lo: pre[c.idx()],
                size: tree.subtree_size(c, p) as u32,
                pairs: [tree.dir_edge_index(c, p), tree.dir_edge_index(p, c)],
            }
        })
        .collect();
    (pre, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_core::request::sigma;

    #[test]
    fn sweep_feeds_every_pair_its_sigma() {
        let tree = Tree::from_edges(7, &[(0, 3), (3, 1), (3, 6), (0, 2), (2, 5), (5, 4)]).unwrap();
        let seq: Vec<Request<i64>> = (0..60u32)
            .map(|i| {
                let x = NodeId((i * 5 + 2) % 7);
                if i % 3 == 0 {
                    Request::combine(x)
                } else {
                    Request::write(x, i as i64)
                }
            })
            .collect();
        let fed = sweep(&tree, &seq, Vec::new(), |evs, ev| evs.push(ev));
        for (u, v) in tree.dir_edges() {
            assert_eq!(
                fed[tree.dir_edge_index(u, v)],
                sigma(&tree, &seq, u, v),
                "pair ({u},{v})"
            );
        }
    }

    #[test]
    fn single_node_tree_has_no_pairs() {
        let tree = Tree::path(1);
        let seq = vec![Request::combine(NodeId(0)), Request::write(NodeId(0), 1)];
        assert!(sweep(&tree, &seq, 0u64, |c, _| *c += 1).is_empty());
    }
}
