//! Acceptance tests for the progressive query layer (`oat-query`):
//! the same declarative query converges to the sequential oracle on
//! all three transports, and kill9 chaos runs, with and without
//! tumbling windows, never regress their partial sequence.

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
/// sequential oracle exactly, with monotone coverage — on every
/// transport.
#[test]
fn tumbling_group_by_accepts_on_all_three_transports() {
    let tree = Tree::kary(5, 2);
    let spec: QuerySpec = "sum group by key window tumbling(100ms)".parse().unwrap();
    // 4 ms gaps: 25 facts per 100 ms window, 6 windows over the run.
    let facts = zipf_facts(150, 3, 1.2, 4, 0xACC);
    for transport in [TransportKind::Tcp, TransportKind::Uds, TransportKind::Ring] {
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

/// Runs `spec` over `facts` on `kary:7:2` with a WAL while nodes 1 and
/// 2 are kill9'd once each node has delivered 10 and 20 messages, and
/// checks what every kill9 run must hold: both kills fired, finals
/// equal the sequential oracle, the partial sequence (coverage, per-key
/// refinement seq) never regresses across the kills, and no node stays
/// dead.
fn check_under_kill9(name: &str, spec: &QuerySpec, facts: &[Fact]) {
    let tree = Tree::kary(7, 2);
    let wal_dir = tmpdir(name);
    let plan = FaultPlan {
        seed: 7,
        kill9s: vec![
            CrashNode {
                node: NodeId(1),
                after_delivered: 10,
            },
            CrashNode {
                node: NodeId(2),
                after_delivered: 20,
            },
        ],
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
    check_under_kill9("kill9", &spec, &facts);
}

/// Kill9 chaos over tumbling windows: with 2 ms gaps a 10 ms window
/// closes every five facts, so the kills and the reconnects they force
/// fall among rounds of window resets. A reset lost to a kill leaves
/// the closed window's value in the shard, and the next final misses
/// the oracle.
#[test]
fn kill9_chaos_across_window_resets_keeps_finals_exact() {
    let spec: QuerySpec = "sum group by key window tumbling(10ms)".parse().unwrap();
    check_under_kill9("kill9-window", &spec, &zipf_facts(160, 3, 1.2, 2, 0x9111));
}
