//! End-to-end engine properties over the Unix-socket transport (the
//! barrier, retire-order and partial-bound tests run tcp too):
//! partial sequences are monotone in coverage, refinement sequences
//! strictly increase per key, and finals converge to the sequential
//! oracle exactly — per key and per window, across operators, window
//! modes, and seeds.

use oat_core::agg::{AggOp, MaxI64, MinI64, SumI64};
use oat_core::policy::rww::RwwSpec;
use oat_core::tree::Tree;
use oat_net::{Cluster, NetConfig, TransportKind};
use oat_query::{oracle_finals, run, OpKind, QueryRun, QuerySpec};
use oat_workloads::facts::{phase_facts, uniform_facts, zipf_facts, Fact};
use std::collections::{HashMap, HashSet};
use std::io;

fn check(spec: &QuerySpec, facts: &[Fact], tree: &Tree) {
    check_on(TransportKind::Uds, spec, facts, tree);
}

/// Runs `spec` on a fresh cluster folding with `op`.
fn run_under<A: AggOp<Value = i64>>(
    op: A,
    transport: TransportKind,
    spec: &QuerySpec,
    facts: &[Fact],
    tree: &Tree,
) -> io::Result<QueryRun> {
    let cfg = NetConfig {
        transport,
        ..NetConfig::default()
    };
    let c = Cluster::spawn_with(tree, op, &RwwSpec, false, Default::default(), cfg)?;
    run(&c, spec, facts)
}

/// Runs `spec` under the operator `oat query` pairs with it and checks
/// every verdict; returns the run for further checks.
fn check_on(transport: TransportKind, spec: &QuerySpec, facts: &[Fact], tree: &Tree) -> QueryRun {
    let run = match spec.op {
        OpKind::Sum | OpKind::Count => run_under(SumI64, transport, spec, facts, tree),
        OpKind::Min => run_under(MinI64, transport, spec, facts, tree),
        OpKind::Max => run_under(MaxI64, transport, spec, facts, tree),
    }
    .unwrap();
    assert!(run.coverage_monotone(), "{spec}: coverage regressed");
    assert!(run.refine_seq_monotone(), "{spec}: refine_seq regressed");
    assert!(
        run.matches_oracle(facts),
        "{spec}: finals {:?} != oracle {:?}",
        run.finals,
        oracle_finals(spec, facts)
    );
    // A final closes its window: the key's later partials belong to
    // later windows.
    let mut closed: HashMap<u32, u64> = HashMap::new();
    for p in &run.partials {
        if let Some(&w) = closed.get(&p.key) {
            assert!(
                p.window > w,
                "{spec}: {p:?} follows the final of window {w}"
            );
        }
        if p.is_final {
            closed.insert(p.key, p.window);
        }
    }
    if !facts.is_empty() {
        assert!(
            run.min_partials_per_key() >= 3,
            "{spec}: a key refined fewer than 3 times"
        );
        let last = run.partials.last().unwrap();
        assert!(
            (last.coverage - 1.0).abs() < 1e-12,
            "{spec}: final coverage"
        );
        assert_eq!(last.staleness, 0, "{spec}: final staleness");
    }
    run
}

fn spec(op: OpKind, group: bool, window: &str) -> QuerySpec {
    let mut s = op.name().to_string();
    if group {
        s.push_str(" group by key");
    }
    if !window.is_empty() {
        s.push_str(" window ");
        s.push_str(window);
    }
    s.parse().unwrap()
}

#[test]
fn sum_group_by_converges_to_oracle() {
    let tree = Tree::kary(5, 2);
    let facts = zipf_facts(120, 4, 1.2, 2, 11);
    check(&spec(OpKind::Sum, true, ""), &facts, &tree);
}

#[test]
fn count_without_group_by() {
    let tree = Tree::path(4);
    let facts = uniform_facts(80, 6, 2, 3);
    check(&spec(OpKind::Count, false, ""), &facts, &tree);
}

#[test]
fn min_and_max_group_by() {
    let tree = Tree::star(4);
    let facts = uniform_facts(90, 3, 2, 5);
    check(&spec(OpKind::Min, true, ""), &facts, &tree);
    check(&spec(OpKind::Max, true, ""), &facts, &tree);
}

#[test]
fn tumbling_windows_finalize_exactly() {
    let tree = Tree::kary(5, 2);
    // 2ms gap, 40ms windows: ~20 facts per window, several windows.
    let facts = zipf_facts(150, 4, 1.2, 2, 17);
    check(&spec(OpKind::Sum, true, "tumbling(40ms)"), &facts, &tree);
}

#[test]
fn window_finals_wait_for_propagation() {
    // 2ms gaps, 4ms windows: a boundary every other fact, so each final
    // is read right behind the acks of the writes it must reflect. An
    // ack means "applied at that node", not "visible at the root":
    // without the barrier's quiesce these finals miss the oracle.
    let tree = Tree::kary(7, 2);
    let s = spec(OpKind::Sum, true, "tumbling(4ms)");
    for transport in [TransportKind::Tcp, TransportKind::Uds] {
        for seed in 0..20 {
            eprintln!("barrier: {} seed={seed}", transport.name());
            check_on(transport, &s, &zipf_facts(60, 4, 1.2, 2, seed), &tree);
        }
    }
}

#[test]
fn window_reset_and_next_fact_stay_ordered_per_shard() {
    // One key over two nodes alternates shards, and 2ms windows over
    // 1ms gaps hold two facts each: under min/max every boundary resets
    // both shards, and the next fact rewrites one of them right behind
    // its reset. A reset applied after that fact erases it from the
    // next final.
    let tree = Tree::path(2);
    for transport in [TransportKind::Tcp, TransportKind::Uds] {
        for op in [OpKind::Min, OpKind::Max] {
            for seed in 0..3 {
                let s = spec(op, true, "tumbling(2ms)");
                eprintln!("reset order: {} {s} seed={seed}", transport.name());
                check_on(transport, &s, &uniform_facts(40, 1, 1, seed), &tree);
            }
        }
    }
}

#[test]
fn window_compensation_and_next_fact_share_writer_zero() {
    // The same stream under sum: each window's first fact goes to node
    // 0, right behind the boundary's compensation write on writer 0's
    // connection. Both carry node 0's absolute value, so applied out of
    // order the compensation erases that fact from the next final.
    let tree = Tree::path(2);
    let s = spec(OpKind::Sum, true, "tumbling(2ms)");
    for transport in [TransportKind::Tcp, TransportKind::Uds] {
        for seed in 0..3 {
            eprintln!("compensation order: {} seed={seed}", transport.name());
            check_on(transport, &s, &uniform_facts(40, 1, 1, seed), &tree);
        }
    }
}

#[test]
fn count_partials_stay_within_their_final() {
    // A count only grows within a window, so no partial of a (key,
    // window) may exceed that window's final. Resetting the closed
    // window's shards broke this: the resets reached the root after the
    // final, and the pushes they caused mixed the old window's counts
    // into the new one's partials. 5 ms windows over 1 ms gaps close a
    // window every five facts.
    let tree = Tree::kary(7, 2);
    let s = spec(OpKind::Count, true, "tumbling(5ms)");
    for transport in [TransportKind::Tcp, TransportKind::Uds] {
        for seed in 1..=3 {
            let run = check_on(transport, &s, &zipf_facts(400, 4, 1.2, 1, seed), &tree);
            let finals: HashMap<(u32, u64), i64> = run
                .finals
                .iter()
                .map(|f| ((f.key, f.window), f.value))
                .collect();
            let over: Vec<_> = run
                .partials
                .iter()
                .filter(|p| !p.is_final)
                .filter(|p| finals.get(&(p.key, p.window)).is_some_and(|&f| p.value > f))
                .collect();
            assert!(
                over.is_empty(),
                "{} seed={seed}: {} partials exceed their window's final, first {:?}",
                transport.name(),
                over.len(),
                over[0]
            );
        }
    }
}

#[test]
fn every_partial_window_gets_a_final() {
    // A key's window is open from its first fact in it until its final:
    // a partial stamped with a (key, window) that never gets a final
    // refines nothing. Stamping a closed key with the next window did
    // that to the push its retire write causes whenever the key had no
    // fact in that window. 5 ms windows over 1 ms gaps close a window
    // every five facts, so most keys skip most windows.
    let tree = Tree::kary(7, 2);
    let s = spec(OpKind::Count, true, "tumbling(5ms)");
    for transport in [TransportKind::Tcp, TransportKind::Uds] {
        for seed in 1..=3 {
            let run = check_on(transport, &s, &zipf_facts(400, 4, 1.2, 1, seed), &tree);
            let finals: HashSet<(u32, u64)> =
                run.finals.iter().map(|f| (f.key, f.window)).collect();
            let orphans: Vec<_> = run
                .partials
                .iter()
                .filter(|p| !p.is_final && !finals.contains(&(p.key, p.window)))
                .collect();
            assert!(
                orphans.is_empty(),
                "{} seed={seed}: {} partials of a window with no final, first {:?}",
                transport.name(),
                orphans.len(),
                orphans[0]
            );
        }
    }
}

#[test]
fn run_refuses_a_cluster_of_another_monoid() {
    // The engine's accumulators fold with the query's operator and the
    // nodes with the cluster's; only the pairings `oat query` uses run.
    let tree = Tree::path(3);
    let facts = uniform_facts(20, 2, 1, 1);
    let uds = TransportKind::Uds;
    for op in [OpKind::Sum, OpKind::Count, OpKind::Min, OpKind::Max] {
        let s = spec(op, true, "");
        for (cluster_op, res) in [
            ("sum(i64)", run_under(SumI64, uds, &s, &facts, &tree)),
            ("min(i64)", run_under(MinI64, uds, &s, &facts, &tree)),
            ("max(i64)", run_under(MaxI64, uds, &s, &facts, &tree)),
        ] {
            let paired = match op {
                OpKind::Sum | OpKind::Count => "sum(i64)",
                OpKind::Min => "min(i64)",
                OpKind::Max => "max(i64)",
            };
            match res {
                Ok(run) => {
                    assert_eq!(cluster_op, paired, "{s} ran on {cluster_op}");
                    assert!(run.matches_oracle(&facts), "{s} on {cluster_op}");
                }
                Err(e) => {
                    assert_ne!(cluster_op, paired, "{s} on {cluster_op}: {e}");
                    assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}");
                    let msg = e.to_string();
                    assert!(msg.contains(op.name()) && msg.contains(cluster_op), "{msg}");
                }
            }
        }
    }
}

#[test]
fn sliding_window_retires_expired_facts() {
    let tree = Tree::path(4);
    let facts = uniform_facts(100, 3, 1, 23);
    check(&spec(OpKind::Sum, true, "last-10"), &facts, &tree);
    check(&spec(OpKind::Max, true, "last-7"), &facts, &tree);
}

#[test]
fn empty_stream_is_a_clean_noop() {
    let tree = Tree::path(3);
    check(&spec(OpKind::Sum, true, ""), &[], &tree);
}

#[test]
fn seeded_sweep_converges_across_modes() {
    // A compact seeded sweep standing in for a full proptest harness:
    // stream kind x window mode x seed, all on one small tree.
    let tree = Tree::kary(4, 2);
    for seed in [1u64, 2, 3] {
        for (kind, facts) in [
            ("uniform", uniform_facts(60, 3, 2, seed)),
            ("zipf", zipf_facts(60, 3, 1.3, 2, seed)),
            ("phases", phase_facts(60, 3, 2, seed)),
        ] {
            for window in ["", "last-8", "tumbling(30ms)"] {
                let s = spec(OpKind::Sum, true, window);
                eprintln!("sweep: {kind} seed={seed} window={window:?}");
                check(&s, &facts, &tree);
            }
        }
    }
}
