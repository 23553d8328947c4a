//! Theorems 1–3 end-to-end on the real simulator.
//!
//! * Theorem 1: `C_RWW(σ) ≤ 5/2 · C_OPT(σ)` on every workload we can
//!   generate, with the adversarial sequence achieving equality.
//! * Theorem 2: per ordered pair, `C_RWW(σ,u,v) ≤ 5 · epochs + O(1)`
//!   (the structure behind the factor-5 bound against nice algorithms).
//! * Theorem 3: every `(a,b)`-algorithm suffers ≥ 5/2 on its adversary.
//! * Lemma 4.5 / Lemma 3.9: analytic per-pair replay equals the
//!   simulator's per-edge message accounting, pair by pair.

use oat::offline::adversary::{adv_sequence, adv_tree};
use oat::offline::nopt::{epoch_count, rww_epoch_bound};
use oat::offline::ratio::{measure_policy, measure_rww};
use oat::offline::replay::{ab_total_cost, rww_pair_cost, rww_total_cost};
use oat::offline::{opt_total_cost, RatioReport};
use oat::prelude::*;
use oat::sim::{run_sequential, Schedule};
use oat_core::request::sigma;
use proptest::prelude::*;

fn workloads_for(tree: &Tree, seed: u64) -> Vec<(String, Vec<oat_core::request::Request<i64>>)> {
    vec![
        (
            "uniform 30% writes".into(),
            oat::workloads::uniform(tree, 300, 0.3, seed),
        ),
        (
            "uniform 70% writes".into(),
            oat::workloads::uniform(tree, 300, 0.7, seed ^ 1),
        ),
        (
            "hotspot".into(),
            oat::workloads::hotspot(
                tree,
                300,
                0.5,
                2.min(tree.len()),
                2.min(tree.len()),
                seed ^ 2,
            ),
        ),
        (
            "phases".into(),
            oat::workloads::phases(tree, &[(150, 0.1), (150, 0.9)], seed ^ 3),
        ),
    ]
}

#[test]
fn theorem1_holds_across_topologies_and_workloads() {
    let topologies: Vec<(&str, Tree)> = vec![
        ("pair", Tree::pair()),
        ("path16", Tree::path(16)),
        ("star16", Tree::star(16)),
        ("kary31", Tree::kary(31, 3)),
        ("random24", oat::workloads::random_tree(24, 11)),
        ("caterpillar", oat::workloads::caterpillar(6, 3)),
    ];
    for (tname, tree) in topologies {
        for (wname, seq) in workloads_for(&tree, 99) {
            let rep: RatioReport = measure_rww(&tree, &seq);
            assert_eq!(
                rep.analytic_cost,
                Some(rep.online_cost),
                "analytic/simulated divergence on {tname}/{wname}"
            );
            if let Some(ratio) = rep.ratio_vs_opt() {
                assert!(
                    ratio <= 2.5 + 1e-9,
                    "Theorem 1 violated on {tname}/{wname}: {ratio}"
                );
            }
        }
    }
}

#[test]
fn theorem1_is_tight_on_the_adversary() {
    let tree = adv_tree();
    let seq = adv_sequence(1, 2, 1000);
    let rep = measure_rww(&tree, &seq);
    let ratio = rep.ratio_vs_opt().unwrap();
    assert!((ratio - 2.5).abs() < 5e-3, "tightness: got {ratio}");
}

#[test]
fn theorem2_epoch_structure_per_pair() {
    for seed in 0..6u64 {
        let tree = oat::workloads::random_tree(14, seed);
        let seq = oat::workloads::uniform(&tree, 400, 0.5, seed ^ 7);
        let res = run_sequential(&tree, SumI64, &RwwSpec, Schedule::Fifo, &seq, false);
        for (u, v) in tree.dir_edges().collect::<Vec<_>>() {
            let events = sigma(&tree, &seq, u, v);
            let epochs = epoch_count(&events);
            let cost = res.engine.stats().pair_cost(&tree, u, v);
            assert!(
                cost <= rww_epoch_bound(epochs),
                "pair ({u},{v}): cost {cost} > 5·{epochs}+5"
            );
        }
    }
}

#[test]
fn theorem3_every_ab_algorithm_at_least_5_over_2() {
    let tree = adv_tree();
    for a in 1..=3u32 {
        for b in 1..=5u32 {
            let seq = adv_sequence(a, b, 400);
            let alg = ab_total_cost(&tree, &seq, a, b) as f64;
            let opt = opt_total_cost(&tree, &seq) as f64;
            assert!(
                alg / opt >= 2.5 - 0.02,
                "({a},{b}) beat the lower bound: {}",
                alg / opt
            );
        }
    }
}

#[test]
fn baselines_can_be_arbitrarily_bad_but_rww_cannot() {
    // Pull-all on a read-heavy workload and push-all on a write-heavy
    // workload blow up with tree size; RWW stays within 5/2 of OPT on
    // both. This is the paper's core motivation quantified.
    let tree = Tree::star(32);
    let read_heavy = oat::workloads::uniform(&tree, 400, 0.05, 5);
    let write_heavy = oat::workloads::uniform(&tree, 400, 0.95, 6);

    let pull_rh = measure_policy(&NeverLeaseSpec, &tree, &read_heavy);
    let rww_rh = measure_rww(&tree, &read_heavy);
    assert!(
        pull_rh.ratio_vs_opt().unwrap() > 10.0,
        "pull-all should be terrible on read-heavy: {:?}",
        pull_rh.ratio_vs_opt()
    );
    assert!(rww_rh.ratio_vs_opt().unwrap() <= 2.5 + 1e-9);

    let rww_wh = measure_rww(&tree, &write_heavy);
    assert!(rww_wh.ratio_vs_opt().unwrap() <= 2.5 + 1e-9);
}

#[test]
fn lemma_4_5_analytic_bills_equal_the_simulator_on_random_shapes() {
    // 200 seeded (tree, σ) cases over four shapes, n ≤ 64, |σ| ≤ 400:
    // the analytic RWW and (1,3) totals are the simulator's message
    // counts exactly. (a,b) with a > 1 is left out: `AbSpec` counts
    // probes as a proxy for combines, and it cannot see a write whose
    // update never reaches the granting node (oat-core's `policy::ab`),
    // so (2,2) differs from its automaton on some shapes.
    let mut s = 0x45u64;
    let mut draw = |below: u64| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) % below
    };
    for case in 0..200 {
        let n = 2 + draw(63) as usize;
        let (name, tree) = match case % 4 {
            0 => {
                let seed = draw(1 << 30);
                (
                    format!("random:{n}:{seed}"),
                    oat::workloads::random_tree(n, seed),
                )
            }
            1 => {
                let legs = draw(4) as usize;
                let spine = (n / (legs + 1)).max(2);
                (
                    format!("caterpillar:{spine}:{legs}"),
                    oat::workloads::caterpillar(spine, legs),
                )
            }
            2 => (format!("star:{n}"), Tree::star(n)),
            _ => (format!("path:{n}"), Tree::path(n)),
        };
        let len = 1 + draw(400) as usize;
        let wf = draw(11) as f64 / 10.0;
        let seq = oat::workloads::uniform(&tree, len, wf, draw(1 << 30));
        let at = format!("case {case}: {name}, uniform:{wf}:{len}");
        let sim = run_sequential(&tree, SumI64, &RwwSpec, Schedule::Fifo, &seq, false);
        assert_eq!(rww_total_cost(&tree, &seq), sim.total_msgs(), "RWW, {at}");
        let sim = run_sequential(
            &tree,
            SumI64,
            &AbSpec::new(1, 3),
            Schedule::Fifo,
            &seq,
            false,
        );
        assert_eq!(
            ab_total_cost(&tree, &seq, 1, 3),
            sim.total_msgs(),
            "(1,3), {at}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn analytic_replay_equals_simulation_per_pair(
        n in 2usize..16,
        tseed in any::<u64>(),
        wseed in any::<u64>(),
        wf in 0.0f64..1.0,
    ) {
        let tree = oat::workloads::random_tree(n, tseed);
        let seq = oat::workloads::uniform(&tree, 100, wf, wseed);
        let res = run_sequential(&tree, SumI64, &RwwSpec, Schedule::Fifo, &seq, false);
        for (u, v) in tree.dir_edges().collect::<Vec<_>>() {
            prop_assert_eq!(
                rww_pair_cost(&tree, &seq, u, v),
                res.engine.stats().pair_cost(&tree, u, v),
                "pair ({},{})", u, v
            );
        }
        // Lemma 3.9: pair costs partition the total.
        let total: u64 = tree
            .dir_edges()
            .map(|(u, v)| res.engine.stats().pair_cost(&tree, u, v))
            .sum();
        prop_assert_eq!(total, res.total_msgs());
    }

    #[test]
    fn theorem1_random(n in 2usize..14, tseed in any::<u64>(), wseed in any::<u64>(), wf in 0.0f64..1.0) {
        let tree = oat::workloads::random_tree(n, tseed);
        let seq = oat::workloads::uniform(&tree, 150, wf, wseed);
        let rep = measure_rww(&tree, &seq);
        if let Some(ratio) = rep.ratio_vs_opt() {
            prop_assert!(ratio <= 2.5 + 1e-9, "ratio {}", ratio);
        } else {
            prop_assert_eq!(rep.online_cost, 0, "no OPT cost implies no online cost");
        }
    }
}
