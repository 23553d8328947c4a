//! **E9 — Theorem 4**: lease-based algorithms are causally consistent in
//! concurrent executions — and strict consistency genuinely fails there,
//! so the causal guarantee is the meaningful one.
//!
//! Two execution substrates: the seeded interleaving simulator and the
//! one-thread-per-node runtime. The causal column must read `ok`
//! everywhere; the strict-miss column shows why Section 5 needs a weaker
//! model.

use oat_consistency::check_causal;
use oat_core::agg::SumI64;
use oat_core::policy::rww::RwwSpec;
use oat_core::tree::Tree;
use oat_sim::concurrent::{run_concurrent, Completion};

use crate::table::Table;

/// Runs E9.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E9 / Theorem 4 — causal consistency in concurrent executions",
        &[
            "substrate",
            "topology",
            "seed",
            "combines",
            "strict misses",
            "causal",
        ],
    );
    t.note(
        "threads rows run on OS threads: the number of log pairs the checker \
         compares varies with the schedule, so they show the verdict only",
    );
    let topologies = vec![
        ("path-10", Tree::path(10)),
        ("3ary-13", Tree::kary(13, 3)),
        ("random-12", oat_workloads::random_tree(12, 5)),
    ];
    for (tname, tree) in &topologies {
        for seed in 0..4u64 {
            let seq = oat_workloads::uniform(tree, 150, 0.5, seed * 31 + 7);
            let res = run_concurrent(tree, SumI64, &RwwSpec, &seq, seed, 0.8);
            let combines = res
                .completions
                .iter()
                .filter(|c| matches!(c, Completion::Combine { .. }))
                .count();
            let logs: Vec<_> = tree
                .nodes()
                .map(|u| res.engine.node(u).ghost().unwrap().log.clone())
                .collect();
            let causal = match check_causal(&SumI64, &logs) {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("VIOLATION {e:?}"),
            };
            t.row(vec![
                "interleaved".into(),
                (*tname).into(),
                seed.to_string(),
                combines.to_string(),
                res.strict_misses().to_string(),
                causal,
            ]);
        }
        // Threaded substrate.
        let seq = oat_workloads::uniform(tree, 150, 0.5, 99);
        let res = oat_concurrent::run_threaded(tree, SumI64, &RwwSpec, &seq, None);
        let causal = match check_causal(&SumI64, &res.logs) {
            Ok(_) => "ok".to_string(),
            Err(e) => format!("VIOLATION {e:?}"),
        };
        t.row(vec![
            "threads".into(),
            (*tname).into(),
            "-".into(),
            res.combine_values.len().to_string(),
            "-".into(),
            causal,
        ]);
    }
    vec![t, hierarchy_table()]
}

/// E9b: where concurrent lease-based executions sit in the consistency
/// hierarchy (strict ⟹ sequential ⟹ causal).
fn hierarchy_table() -> Table {
    use oat_consistency::{check_sequentially_consistent, own_histories};

    let mut t = Table::new(
        "E9b / consistency hierarchy — sampled concurrent runs (path-5, 24 requests)",
        &[
            "seed",
            "strict misses",
            "sequentially consistent",
            "causally consistent",
        ],
    );
    t.note("strict ⟹ sequential ⟹ causal; concurrency preserves only causal (Theorem 4)");
    let tree = Tree::path(5);
    let mut sc_fail = 0;
    for seed in 0..8u64 {
        let seq = oat_workloads::uniform(&tree, 24, 0.5, seed);
        let res = run_concurrent(&tree, SumI64, &RwwSpec, &seq, seed, 0.7);
        let logs: Vec<_> = tree
            .nodes()
            .map(|u| res.engine.node(u).ghost().unwrap().log.clone())
            .collect();
        let causal = check_causal(&SumI64, &logs).is_ok();
        let sc = check_sequentially_consistent(&SumI64, &own_histories(&logs)).is_some();
        if !sc {
            sc_fail += 1;
        }
        t.row(vec![
            seed.to_string(),
            res.strict_misses().to_string(),
            if sc { "yes".into() } else { "NO".into() },
            if causal {
                "yes".into()
            } else {
                "VIOLATED".into()
            },
        ]);
    }
    t.note(format!(
        "sequential consistency failed on {sc_fail}/8 sampled runs; the deterministic IRIW \
         construction in tests/consistency_hierarchy.rs always separates it"
    ));
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn causal_everywhere() {
        let tables = super::run();
        for row in &tables[0].rows {
            assert!(row[5].starts_with("ok"), "{row:?}");
        }
        // The hierarchy table: causal column always yes.
        for row in &tables[1].rows {
            assert_eq!(row[3], "yes", "{row:?}");
        }
    }
}
