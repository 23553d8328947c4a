//! Executable invariants for quiescent states.
//!
//! These are the structural lemmas of Section 3 and the RWW invariant of
//! Section 4, phrased as checks over a quiescent [`Engine`]:
//!
//! * **Lemma 3.1** — `u.taken[v] = v.granted[u]` for all neighbours,
//! * **Lemma 3.2** — `u.granted[v]` implies `u.taken[w]` for all `w ≠ v`,
//! * **Lemma 3.4** — `pndg` and every `snt[·]` are empty,
//! * **I3 (Lemma 3.11)** — for every taken neighbour `v`, `u.aval[v]`
//!   equals `⊕` over the current local values of `subtree(v, u)` (we check
//!   against ground truth, which subsumes `I1`/`I2` at quiescence),
//! * **I4 (Lemma 4.2)** — RWW's lease-counter invariant,
//! * the mechanism's own ledger audit (`MechNode::ledger_ok`), which is
//!   ours rather than the paper's: the orderings its `uaw` and
//!   `sntupdates` operations rely on.
//!
//! All checks return `Err(description)` on the first violation so tests
//! and property tests produce useful diagnostics.

use oat_core::agg::AggOp;
use oat_core::policy::rww::RwwSpec;
use oat_core::policy::PolicySpec;
use oat_core::tree::NodeId;

use crate::engine::Engine;

/// Lemma 3.1: lease views agree across each edge.
pub fn check_taken_granted_symmetry<S: PolicySpec, A: AggOp>(
    eng: &Engine<S, A>,
) -> Result<(), String> {
    let tree = eng.tree();
    for (u, v) in tree.dir_edges().collect::<Vec<_>>() {
        let ui = tree.nbr_index(u, v).expect("adjacent");
        let vi = tree.nbr_index(v, u).expect("adjacent");
        let t = eng.node(u).taken(ui);
        let g = eng.node(v).granted(vi);
        if t != g {
            return Err(format!(
                "Lemma 3.1 violated: {u}.taken[{v}]={t} but {v}.granted[{u}]={g}"
            ));
        }
    }
    Ok(())
}

/// Lemma 3.2: a grant pins all other incident leases.
pub fn check_grant_implies_taken<S: PolicySpec, A: AggOp>(
    eng: &Engine<S, A>,
) -> Result<(), String> {
    let tree = eng.tree();
    for u in tree.nodes() {
        let node = eng.node(u);
        for (vi, &v) in tree.nbrs(u).iter().enumerate() {
            if node.granted(vi) {
                for (wi, &w) in tree.nbrs(u).iter().enumerate() {
                    if wi != vi && !node.taken(wi) {
                        return Err(format!(
                            "Lemma 3.2 violated at {u}: granted[{v}] but not taken[{w}]"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Lemma 3.4: no pending bookkeeping survives a quiescent state.
pub fn check_no_pending<S: PolicySpec, A: AggOp>(eng: &Engine<S, A>) -> Result<(), String> {
    if !eng.is_quiescent() {
        return Err("network is not quiescent".into());
    }
    for u in eng.tree().nodes() {
        let node = eng.node(u);
        if !node.pndg().is_empty() {
            return Err(format!("Lemma 3.4 violated: {u}.pndg = {:?}", node.pndg()));
        }
        if !node.snt_all_empty() {
            return Err(format!("Lemma 3.4 violated: {u}.snt not empty"));
        }
    }
    Ok(())
}

/// I3 against ground truth: cached subtree aggregates along taken leases
/// match `⊕` over the actual local values of the subtree.
pub fn check_aval_ground_truth<S: PolicySpec, A: AggOp>(
    eng: &Engine<S, A>,
    op: &A,
) -> Result<(), String> {
    let tree = eng.tree();
    for u in tree.nodes() {
        let node = eng.node(u);
        for (vi, &v) in tree.nbrs(u).iter().enumerate() {
            if !node.taken(vi) {
                continue;
            }
            let truth = op.fold(
                tree.subtree_nodes(v, u)
                    .iter()
                    .map(|&x| eng.node(x).val())
                    .collect::<Vec<_>>(),
            );
            if *node.aval(vi) != truth {
                return Err(format!(
                    "I3 violated at {u}: aval[{v}] = {:?}, subtree truth = {truth:?}",
                    node.aval(vi)
                ));
            }
        }
    }
    Ok(())
}

/// Every node's ledger self-audit ([`oat_core::mechanism::MechNode::ledger_ok`]):
/// `uaw` sets ascending, `sntupdates` queues increasing, no id from the
/// future. Holds in every state, quiescent or not.
pub fn check_ledgers<S: PolicySpec, A: AggOp>(eng: &Engine<S, A>) -> Result<(), String> {
    eng.tree().nodes().try_for_each(|u| eng.node(u).ledger_ok())
}

/// All structural checks applicable to any lease-based algorithm.
pub fn check_all<S: PolicySpec, A: AggOp>(eng: &Engine<S, A>, op: &A) -> Result<(), String> {
    check_ledgers(eng)?;
    check_no_pending(eng)?;
    check_taken_granted_symmetry(eng)?;
    check_grant_implies_taken(eng)?;
    check_aval_ground_truth(eng, op)
}

/// I4 (Lemma 4.2), specific to RWW: for every node `u` and neighbour `v`:
/// if `¬taken[v]` then `uaw[v] = ∅`; else if `grntd() \ {v} = ∅` then
/// `lt[v] + |uaw[v]| = 2 ∧ lt[v] > 0`; else `lt[v] = 2`.
pub fn check_rww_i4<A: AggOp>(eng: &Engine<RwwSpec, A>) -> Result<(), String> {
    let tree = eng.tree();
    for u in tree.nodes() {
        let node = eng.node(u);
        let grants: Vec<usize> = (0..tree.degree(u)).filter(|&i| node.granted(i)).collect();
        for (vi, &v) in tree.nbrs(u).iter().enumerate() {
            let lt = node.policy().lt(vi) as usize;
            let uaw = node.uaw(vi).len();
            if !node.taken(vi) {
                if uaw != 0 {
                    return Err(format!("I4: {u} not taken[{v}] but uaw = {uaw}"));
                }
            } else if grants.iter().all(|&g| g == vi) {
                if lt + uaw != 2 || lt == 0 {
                    return Err(format!(
                        "I4: {u} taken[{v}], lone grant case: lt={lt}, |uaw|={uaw}"
                    ));
                }
            } else if lt != 2 {
                return Err(format!("I4: {u} taken[{v}], other grants: lt={lt} != 2"));
            }
        }
    }
    Ok(())
}

/// The lease graph `G(Q)`: directed edges `(u, v)` with `u.granted[v]`
/// (Section 3.2). Returned as a list of ordered pairs.
pub fn lease_graph<S: PolicySpec, A: AggOp>(eng: &Engine<S, A>) -> Vec<(NodeId, NodeId)> {
    let tree = eng.tree();
    let mut out = Vec::new();
    for u in tree.nodes() {
        for (vi, &v) in tree.nbrs(u).iter().enumerate() {
            if eng.node(u).granted(vi) {
                out.push((u, v));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use oat_core::agg::SumI64;
    use oat_core::request::Request;
    use oat_core::tree::Tree;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn invariants_hold_after_mixed_run() {
        let tree = Tree::kary(10, 3);
        let mut eng = Engine::new(tree, SumI64, &RwwSpec, Schedule::Fifo, false);
        let seq = vec![
            Request::combine(n(7)),
            Request::write(n(2), 4),
            Request::combine(n(9)),
            Request::write(n(0), 3),
            Request::write(n(5), 2),
            Request::combine(n(1)),
        ];
        let chunk = crate::sequential::run_sequential_on(&mut eng, &seq, 0);
        assert_eq!(chunk.combines.len(), 3);
        check_all(&eng, &SumI64).unwrap();
        check_rww_i4(&eng).unwrap();
    }

    #[test]
    fn lease_graph_after_combine_points_at_reader() {
        let tree = Tree::path(3);
        let mut eng = Engine::new(tree, SumI64, &RwwSpec, Schedule::Fifo, false);
        eng.initiate_combine(n(0));
        eng.run_to_quiescence();
        let lg = lease_graph(&eng);
        // All leases direct updates toward node 0: 2->1 and 1->0.
        assert!(lg.contains(&(n(1), n(0))));
        assert!(lg.contains(&(n(2), n(1))));
        assert_eq!(lg.len(), 2);
    }
}
