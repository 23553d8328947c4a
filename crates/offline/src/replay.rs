//! Analytic cost replays.
//!
//! Lemma 4.5: `C_RWW(σ, u, v) = C_RWW(σ(u,v), u, v)` — RWW's per-pair cost
//! is fully determined by the projected event sequence and the
//! deterministic automaton of Figure 2/Figure 3. These functions compute
//! `C_RWW(σ)` (and the `(a,b)` generalisation) *without* the simulator.
//!
//! Agreement between [`rww_total_cost`] and the simulator's measured
//! message totals is one of the repository's strongest integration tests:
//! it ties the distributed mechanism (probes cascading through the tree,
//! update identifiers, release bookkeeping) to the paper's per-edge
//! accounting, edge by edge.
//!
//! The totals run each pair's automaton inside the one sweep of
//! [`crate::sweep`], which feeds it runs of identical events; the
//! per-pair functions replay `σ(u,v)` itself.

use oat_core::request::{sigma, EdgeEvent, Request};
use oat_core::tree::{NodeId, Tree};

use crate::cost_model::{run, AbAutomaton, RwwAutomaton};
use crate::sweep::sweep;

/// Analytic `C_RWW(σ, u, v)` for one ordered pair.
pub fn rww_pair_cost<V>(tree: &Tree, seq: &[Request<V>], u: NodeId, v: NodeId) -> u64 {
    RwwAutomaton::replay(&sigma(tree, seq, u, v))
}

/// Analytic `C_RWW(σ)`: sum over all ordered pairs.
pub fn rww_total_cost<V>(tree: &Tree, seq: &[Request<V>]) -> u64 {
    billed_total(tree, seq, RwwAutomaton::new(), RwwAutomaton::step)
}

/// Analytic per-pair cost of the abstract `(a,b)`-algorithm.
pub fn ab_pair_cost<V>(
    tree: &Tree,
    seq: &[Request<V>],
    a: u32,
    b: u32,
    u: NodeId,
    v: NodeId,
) -> u64 {
    AbAutomaton::replay(a, b, &sigma(tree, seq, u, v))
}

/// Analytic total cost of the abstract `(a,b)`-algorithm.
pub fn ab_total_cost<V>(tree: &Tree, seq: &[Request<V>], a: u32, b: u32) -> u64 {
    billed_total(tree, seq, AbAutomaton::new(a, b), AbAutomaton::step)
}

/// Sum over all ordered pairs of the costs a deterministic automaton,
/// started as `init` on every pair, charges along `σ(u,v)`; `step`
/// executes one event and returns its cost.
pub(crate) fn billed_total<V, A: Copy + PartialEq>(
    tree: &Tree,
    seq: &[Request<V>],
    init: A,
    step: impl Fn(&mut A, EdgeEvent) -> u64,
) -> u64 {
    sweep(tree, seq, (init, 0u64), |(aut, cost), ev, k| {
        *cost += run(aut, ev, k, &step)
    })
    .iter()
    .map(|(_, cost)| cost)
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oat_core::agg::SumI64;
    use oat_core::policy::rww::RwwSpec;
    use oat_core::tree::Tree;
    use oat_sim::{run_sequential, Schedule};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn analytic_matches_simulator_on_pair() {
        let tree = Tree::pair();
        let seq = vec![
            Request::combine(n(1)),
            Request::write(n(0), 1),
            Request::write(n(0), 2),
            Request::combine(n(1)),
            Request::write(n(0), 3),
        ];
        let sim = run_sequential(&tree, SumI64, &RwwSpec, Schedule::Fifo, &seq, false);
        assert_eq!(rww_total_cost(&tree, &seq), sim.total_msgs());
    }

    #[test]
    fn analytic_matches_simulator_on_deep_tree() {
        let tree = Tree::kary(15, 2);
        let mut seq = Vec::new();
        // A deterministic but irregular pattern over the whole tree.
        for i in 0..60u32 {
            let node = n((i * 7 + 3) % 15);
            if (i * 13) % 5 < 2 {
                seq.push(Request::combine(node));
            } else {
                seq.push(Request::write(node, i as i64));
            }
        }
        let sim = run_sequential(&tree, SumI64, &RwwSpec, Schedule::Fifo, &seq, false);
        assert_eq!(rww_total_cost(&tree, &seq), sim.total_msgs());
    }

    #[test]
    fn per_pair_costs_match_simulator_stats() {
        let tree = Tree::path(5);
        let seq = vec![
            Request::combine(n(4)),
            Request::write(n(0), 5),
            Request::write(n(1), 6),
            Request::combine(n(0)),
            Request::write(n(4), 2),
            Request::write(n(4), 3),
            Request::combine(n(2)),
        ];
        let sim = run_sequential(&tree, SumI64, &RwwSpec, Schedule::Fifo, &seq, false);
        for (u, v) in tree.dir_edges().collect::<Vec<_>>() {
            assert_eq!(
                rww_pair_cost(&tree, &seq, u, v),
                sim.engine.stats().pair_cost(tree_ref(&sim), u, v),
                "pair ({u},{v})"
            );
        }
    }

    fn tree_ref<S: oat_core::policy::PolicySpec, A: oat_core::agg::AggOp>(
        r: &oat_sim::SeqResult<S, A>,
    ) -> &Tree {
        r.engine.tree()
    }
}
