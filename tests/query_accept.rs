//! Acceptance tests for the progressive query layer (`oat-query`):
//! the same declarative query converges to the sequential oracle on
//! both client transports, and kill9 chaos runs, with and without
//! windows, never regress their partial sequence — including runs that
//! kill node 0, which holds every `sum`/`count` retire write.

use oat::core::agg::SumI64;
use oat::core::fault::{CrashNode, FaultPlan};
use oat::core::policy::rww::RwwSpec;
use oat::core::tree::{NodeId, Tree};
use oat::net::{Cluster, DurabilityMode, NetConfig, TransportKind, WalConfig};
use oat::query::{run, QuerySpec};
use oat::workloads::facts::{zipf_facts, Fact};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("oat-query-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The ISSUE acceptance scenario: `sum group by key window
/// tumbling(100ms)` over a seeded zipf fact stream emits at least three
/// progressively refined partials per key whose finals match the
/// sequential oracle exactly, with monotone coverage — on both client
/// transports, tcp and uds (the name counts a third, in-process transport
/// that no longer exists).
#[test]
fn tumbling_group_by_accepts_on_all_three_transports() {
    let tree = Tree::kary(5, 2);
    let spec: QuerySpec = "sum group by key window tumbling(100ms)".parse().unwrap();
    // 4 ms gaps: 25 facts per 100 ms window, 6 windows over the run.
    let facts = zipf_facts(150, 3, 1.2, 4, 0xACC);
    for transport in [TransportKind::Tcp, TransportKind::Uds] {
        let cfg = NetConfig {
            transport,
            ..NetConfig::default()
        };
        let cluster =
            Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, FaultPlan::default(), cfg)
                .unwrap_or_else(|e| panic!("spawn {}: {e}", transport.name()));
        let result = run(&cluster, &spec, &facts)
            .unwrap_or_else(|e| panic!("query on {}: {e}", transport.name()));
        let t = transport.name();
        assert!(result.matches_oracle(&facts), "{t}: finals diverge");
        assert!(result.coverage_monotone(), "{t}: coverage regressed");
        assert!(result.refine_seq_monotone(), "{t}: refine_seq regressed");
        assert!(
            result.min_partials_per_key() >= 3,
            "{t}: a key refined fewer than 3 times ({})",
            result.min_partials_per_key()
        );
        assert!(
            result.finals.len() > 3,
            "{t}: tumbling must finalize several (key, window) pairs"
        );
        assert!(result.stats.pushes_rx > 0, "{t}: no pushed refinements");
    }
}

/// Runs `spec` over `facts` on `kary:7:2` with a WAL while the two
/// `victims` are kill9'd once each has delivered 10 and 20 messages
/// respectively, and checks what every kill9 run must hold: both kills
/// fired, finals equal the sequential oracle, the partial sequence
/// (coverage, per-key refinement seq) never regresses across the kills,
/// and no node stays dead.
fn check_under_kill9(name: &str, victims: [u32; 2], spec: &QuerySpec, facts: &[Fact]) {
    let tree = Tree::kary(7, 2);
    let wal_dir = tmpdir(name);
    let plan = FaultPlan {
        seed: 7,
        kill9s: victims
            .into_iter()
            .zip([10, 20])
            .map(|(node, after_delivered)| CrashNode {
                node: NodeId(node),
                after_delivered,
            })
            .collect(),
        ..FaultPlan::default()
    };
    let cfg = NetConfig {
        durability: DurabilityMode::Wal(WalConfig::new(&wal_dir)),
        ..NetConfig::default()
    };
    let cluster =
        Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, plan, cfg).expect("spawn kill9");
    let result = run(&cluster, spec, facts).expect("query under kill9");

    let (kill9s, _, _) = cluster.injected().snapshot_process();
    assert_eq!(kill9s, 2, "{spec}: both scheduled process kills must fire");
    assert!(
        result.matches_oracle(facts),
        "{spec}: written values must survive kill9: finals diverge"
    );
    assert!(
        result.coverage_monotone(),
        "{spec}: coverage regressed across kill9"
    );
    assert!(result.refine_seq_monotone(), "{spec}: refine_seq regressed");
    assert!(result.min_partials_per_key() >= 3);

    let report = cluster.shutdown();
    assert_eq!(report.faults.kill9s, 2);
    assert!(report.dead_nodes.is_empty(), "no node may stay wedged");
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Kill9 chaos: two process kills mid-stream, each after the last write
/// to a shard the killed node holds. The stream opens with one fact of
/// a cold key per node (key 3 never recurs); a fault-free run has
/// delivered at most 7 messages at any node by then, so the kills at 10
/// and 20 hit nodes 1 and 2 after key 3's only writes to them. The
/// finals still equal the oracle because every tree's written value is
/// durable at its node — nothing is written twice.
#[test]
fn kill9_chaos_partials_never_regress_and_finals_stay_exact() {
    let spec: QuerySpec = "sum group by key".parse().unwrap();
    let mut facts: Vec<Fact> = (0..7)
        .map(|i| Fact {
            key: 3,
            val: 100 + i,
            at_ms: 0,
        })
        .collect();
    facts.extend(zipf_facts(120, 3, 1.2, 2, 0x9111));
    check_under_kill9("kill9", [1, 2], &spec, &facts);
}

/// Kill9 chaos over tumbling windows: with 2 ms gaps a 10 ms window
/// closes every five facts, so the kills and the reconnects they force
/// fall among the rounds that close windows — under `sum`, one
/// compensating write per closed key at node 0. The compensation
/// cancels the running folds the killed nodes hold, so a restart that
/// lost an acked shard value leaves the next final off the oracle.
#[test]
fn kill9_chaos_across_window_resets_keeps_finals_exact() {
    let spec: QuerySpec = "sum group by key window tumbling(10ms)".parse().unwrap();
    check_under_kill9(
        "kill9-window",
        [1, 2],
        &spec,
        &zipf_facts(160, 3, 1.2, 2, 0x9111),
    );
}

/// Kill9 of the node that holds the compensation: node 0 carries every
/// `sum`/`count` retire write — one per closed tumbling window and key,
/// one per `last-N` eviction — and is killed first, then node 1. Its
/// restart must restore the compensated value it acked, or the finals
/// after the kill count retired facts again.
#[test]
fn kill9_of_node_zero_keeps_compensated_finals_exact() {
    for query in [
        "sum group by key window tumbling(10ms)",
        "count group by key window tumbling(10ms)",
        "sum group by key window last-5",
    ] {
        let spec: QuerySpec = query.parse().unwrap();
        for seed in 1..=3 {
            eprintln!("kill9 of node 0: `{spec}` seed={seed}");
            let facts = zipf_facts(160, 3, 1.2, 2, seed);
            check_under_kill9("kill9-node0", [0, 1], &spec, &facts);
        }
    }
}
