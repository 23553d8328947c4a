//! End-to-end engine properties over the in-process ring transport
//! (the barrier test runs all three): partial sequences are monotone in
//! coverage, refinement sequences strictly increase per key, and finals
//! converge to the sequential oracle exactly — per key and per window,
//! across operators, window modes, and seeds.

use oat_core::agg::{MaxI64, MinI64, SumI64};
use oat_core::policy::rww::RwwSpec;
use oat_core::tree::Tree;
use oat_net::{Cluster, NetConfig, TransportKind};
use oat_query::{oracle_finals, run, OpKind, QuerySpec};
use oat_workloads::facts::{phase_facts, uniform_facts, zipf_facts, Fact};
use std::collections::HashMap;

fn check(spec: &QuerySpec, facts: &[Fact], tree: &Tree) {
    check_on(TransportKind::Ring, spec, facts, tree);
}

fn check_on(transport: TransportKind, spec: &QuerySpec, facts: &[Fact], tree: &Tree) {
    let cfg = NetConfig {
        transport,
        ..NetConfig::default()
    };
    let run = match spec.op {
        OpKind::Sum | OpKind::Count => {
            let c = Cluster::spawn_with(tree, SumI64, &RwwSpec, false, Default::default(), cfg)
                .unwrap();
            run(&c, spec, facts).unwrap()
        }
        OpKind::Min => {
            let c = Cluster::spawn_with(tree, MinI64, &RwwSpec, false, Default::default(), cfg)
                .unwrap();
            run(&c, spec, facts).unwrap()
        }
        OpKind::Max => {
            let c = Cluster::spawn_with(tree, MaxI64, &RwwSpec, false, Default::default(), cfg)
                .unwrap();
            run(&c, spec, facts).unwrap()
        }
    };
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
    for transport in [TransportKind::Tcp, TransportKind::Uds, TransportKind::Ring] {
        for seed in 0..20 {
            eprintln!("barrier: {} seed={seed}", transport.name());
            check_on(transport, &s, &zipf_facts(60, 4, 1.2, 2, seed), &tree);
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
