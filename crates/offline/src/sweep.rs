//! One pass over `σ` that advances every ordered pair's machine, doing
//! O(depth) work per request.
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
//! So between two requests below `c`, `σ(c,p)` receives only `R`s (one
//! per combine elsewhere) and `σ(p,c)` only `W`s (one per write
//! elsewhere). The sweep counts combines and writes globally, and visits
//! an edge only when a request lands below its child, on the request's
//! path to the root: it first catches `(c,p)` up with the run of `R`s
//! since its last visit and `(p,c)` with the run of `W`s, then feeds the
//! request's own event. After the last request every edge is caught up
//! once. Each machine's `run(ev, k)` equals `k` single steps, so every
//! pair still sees its `σ(u,v)` in sequence order, and no `σ(u,v)` is
//! materialised. The totals in [`crate::opt_dp`], [`crate::replay`] and
//! [`crate::nopt`] are all this sweep with a different per-pair machine;
//! [`oat_core::request::sigma`] stays the definition the sweep is tested
//! against.

use oat_core::request::{EdgeEvent, Request};
use oat_core::tree::{NodeId, Tree};

/// Runs one machine per ordered pair over `seq`, each started from
/// `init` and fed its `σ(u,v)` through `run(machine, ev, k)`, which must
/// act as `k` consecutive `ev`s (`k ≥ 1`). The result holds the final
/// machines indexed by [`Tree::dir_edge_index`].
pub(crate) fn sweep<V, M: Clone>(
    tree: &Tree,
    seq: &[Request<V>],
    init: M,
    mut run: impl FnMut(&mut M, EdgeEvent, u64),
) -> Vec<M> {
    let n = tree.len();
    let root = NodeId(0);
    let parent: Vec<u32> = tree
        .nodes()
        .map(|x| {
            if x == root {
                0
            } else {
                tree.u_parent(root, x).0
            }
        })
        .collect();
    // For a child `c`: `machines[c]` holds the machines of `(c, p)` and
    // `(p, c)`, and `seen[c]` the combines and writes counted when its
    // edge was last caught up. Slot 0 (the root) is unused.
    let mut machines = vec![[init.clone(), init.clone()]; n];
    let mut seen = vec![[0u64; 2]; n];
    // Combines and writes so far.
    let mut now = [0u64; 2];
    for q in seq {
        let (ev, write) = if q.op.is_write() {
            (EdgeEvent::W, 1)
        } else {
            (EdgeEvent::R, 0)
        };
        // Everything counted since an edge's last visit, up to `q`,
        // landed outside its child.
        let before = now;
        now[write] += 1;
        let mut c = q.node.idx();
        while c != 0 {
            let m = &mut machines[c];
            catch_up(m, seen[c], before, &mut run);
            // A write below `c` goes to `σ(c,p)`, a combine to `σ(p,c)`.
            run(&mut m[1 - write], ev, 1);
            seen[c] = now;
            c = parent[c] as usize;
        }
    }
    let mut out = vec![init; tree.num_dir_edges()];
    for (c, (mut m, seen)) in machines.into_iter().zip(seen).enumerate().skip(1) {
        catch_up(&mut m, seen, now, &mut run);
        let [up, down] = m;
        let (c, p) = (NodeId(c as u32), NodeId(parent[c]));
        out[tree.dir_edge_index(c, p)] = up;
        out[tree.dir_edge_index(p, c)] = down;
    }
    out
}

/// Feeds `(c, p)` the combines and `(p, c)` the writes counted between
/// `from` and `to`, as one run each.
fn catch_up<M>(
    m: &mut [M; 2],
    from: [u64; 2],
    to: [u64; 2],
    run: &mut impl FnMut(&mut M, EdgeEvent, u64),
) {
    for (i, ev) in [EdgeEvent::R, EdgeEvent::W].into_iter().enumerate() {
        let k = to[i] - from[i];
        if k > 0 {
            run(&mut m[i], ev, k);
        }
    }
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
        let fed = sweep(&tree, &seq, Vec::new(), |evs, ev, k| {
            evs.extend(std::iter::repeat_n(ev, k as usize))
        });
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
        assert!(sweep(&tree, &seq, 0u64, |c, _, k| *c += k).is_empty());
    }

    /// A request touches only the edges on its path to the root: at most
    /// three machine calls each (two catch-up runs and its own event),
    /// plus at most two catch-up runs per edge after the last request.
    #[test]
    fn work_per_request_is_linear_in_depth() {
        let tree = Tree::kary(4095, 2);
        let leaf = NodeId(4094);
        let depth = tree.distance(NodeId(0), leaf) as u64;
        assert_eq!(depth, 11);
        let len = 10_000u64;
        let seq: Vec<Request<i64>> = (0..len)
            .map(|i| {
                if i % 7 == 0 {
                    Request::write(leaf, i as i64)
                } else {
                    Request::combine(leaf)
                }
            })
            .collect();
        let mut calls = 0u64;
        sweep(&tree, &seq, (), |_, _, _| calls += 1);
        let edges = tree.num_edges() as u64;
        assert!(
            calls <= 3 * depth * len + 2 * edges,
            "{calls} machine calls for {len} requests at depth {depth} on {edges} edges"
        );
    }
}
