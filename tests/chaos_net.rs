//! Chaos parity: the TCP cluster under injected faults.
//!
//! The headline robustness property: a seeded workload replayed
//! sequentially (each request driven to completion and the network
//! drained before the next) returns **exactly the oracle value for
//! every combine**, even while the transport underneath drops,
//! duplicates and delays frames, has whole TCP connections killed
//! mid-run, and has a node's automaton crashed and restarted by its
//! supervisor. Strict consistency is the mechanism's contract; the
//! fault-recovery machinery (sequenced exactly-once edge links,
//! reconnect with retransmit, peer-reset + revoke cascade, client
//! timeout/retry) exists to uphold it, and this test is where that
//! claim is cashed in.
//!
//! Message *counts* are not compared under chaos — recovery traffic
//! (re-probes, resets, revokes) legitimately adds messages. The
//! fault-free parity suite (`net_parity.rs`) pins the counts; this
//! suite pins the values and the recovery bookkeeping.

use std::path::PathBuf;
use std::time::Duration;

use oat::core::agg::SumI64;
use oat::core::fault::{CrashNode, FaultPlan, KillConn};
use oat::core::policy::rww::RwwSpec;
use oat::core::request::{ReqOp, Request};
use oat::core::tree::{NodeId, Tree};
use oat::net::{Cluster, ClusterClient, DurabilityMode, NetConfig, TransportKind, WalConfig};
use oat::workloads::uniform;
use oat_obs::Json;

/// Fresh per-test WAL directory under the system temp dir.
fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("oat-chaos-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Per-read client timeout. Far above one reconnect (a few ms), so a retry
/// means real loss (a crashed waiter), not impatience with recovery
/// latency.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(250);
/// Retries per blocking read before a client gives up (generous: the
/// test asserts completion, the timeout only bounds a true wedge).
const CLIENT_RETRIES: u32 = 120;
/// Per-request quiescence deadline.
const DRAIN: Duration = Duration::from_secs(30);

/// Replays `seq` sequentially against `cluster` with retrying clients,
/// asserting every combine returns the running oracle (sum of each
/// node's last written value). Returns the number of combines checked.
fn replay_against_oracle(cluster: &Cluster<SumI64>, seq: &[Request<i64>]) -> usize {
    let tree = cluster.tree();
    let mut clients: Vec<Option<ClusterClient<i64>>> = (0..tree.len()).map(|_| None).collect();
    let mut last = vec![0i64; tree.len()];
    let mut combines = 0;
    for (i, q) in seq.iter().enumerate() {
        let slot = &mut clients[q.node.idx()];
        let client = match slot {
            Some(c) => c,
            None => {
                let mut c = cluster.client(q.node).expect("client connect");
                c.set_timeout(Some(CLIENT_TIMEOUT), CLIENT_RETRIES)
                    .expect("arm timeout");
                slot.insert(c)
            }
        };
        match &q.op {
            ReqOp::Write(v) => {
                client
                    .write(*v)
                    .unwrap_or_else(|e| panic!("request {i}: write failed: {e}"));
                last[q.node.idx()] = *v;
            }
            ReqOp::Combine => {
                let got = client
                    .combine()
                    .unwrap_or_else(|e| panic!("request {i}: combine failed: {e}"));
                let want: i64 = last.iter().sum();
                assert_eq!(
                    got, want,
                    "request {i}: combine at {:?} diverged from the oracle",
                    q.node
                );
                combines += 1;
            }
        }
        assert!(
            cluster.quiesce_for(DRAIN),
            "request {i}: cluster failed to drain within {DRAIN:?}"
        );
    }
    combines
}

#[test]
fn full_chaos_run_matches_the_sequential_oracle() {
    // The acceptance scenario: probabilistic drop/duplicate/delay on
    // every edge, two scheduled connection kills on distinct tree
    // edges, and one non-root node crashed mid-run — every combine
    // must still equal the oracle and the cluster must quiesce.
    let tree = Tree::kary(10, 3);
    let seq = uniform(&tree, 90, 0.5, 0xC0DE);
    let plan = FaultPlan {
        seed: 7,
        drop_p: 0.05,
        dup_p: 0.05,
        delay_p: 0.05,
        // Root edges carry traffic in any workload, so small frame
        // thresholds guarantee both kills actually fire.
        kills: vec![
            KillConn {
                from: NodeId(0),
                to: NodeId(1),
                after_frames: 3,
            },
            KillConn {
                from: NodeId(2),
                to: NodeId(0),
                after_frames: 4,
            },
        ],
        // Node 2 is internal (children 7, 8, 9) and not the root.
        crashes: vec![CrashNode {
            node: NodeId(2),
            after_delivered: 5,
        }],
        ..FaultPlan::default()
    };

    let cluster =
        Cluster::spawn_with_faults(&tree, SumI64, &RwwSpec, false, plan).expect("spawn chaos");
    let combines = replay_against_oracle(&cluster, &seq);
    assert!(combines > 10, "workload must actually exercise combines");

    // The injection ledger records what was actually done to the run.
    let (drops, dups, delays, kills, crashes) = cluster.injected().snapshot();
    assert_eq!(kills, 2, "both scheduled connection kills must fire");
    assert_eq!(crashes, 1, "the scheduled crash must fire");
    assert!(
        drops + dups + delays > 0,
        "probabilistic faults must have fired on a run this size"
    );

    // Per-node metrics must surface the recovery work while the
    // cluster is still alive (metrics_json is the operator's view).
    let m2 = cluster.node_metrics(NodeId(2)).expect("metrics node 2");
    assert_eq!(m2.restarts, 1, "node 2 was crashed exactly once");
    let metrics = Json::parse(&cluster.metrics_json().expect("metrics json")).expect("parse");
    let restarts = metrics.items()[2].at(&["faults", "restarts"]);
    assert_eq!(restarts.and_then(Json::as_u64), Some(1));
    // Exactly-once delivery: every injected duplicate was discarded by
    // a receiving sequencer (kill-replay overlap may add more).
    let mut dup_drops = 0;
    for u in tree.nodes() {
        dup_drops += cluster.node_metrics(u).expect("metrics").dup_drops;
    }
    assert!(
        dup_drops >= dups,
        "sequencers must have dropped all {dups} injected duplicates (saw {dup_drops})"
    );

    let report = cluster.shutdown();
    assert!(report.dead_nodes.is_empty(), "no node may stay wedged");
    assert_eq!(report.faults.restarts, 1);
    // Each kill severs one TCP connection, which is then re-dialed and
    // re-accepted: at least one reconnect per kill, possibly counted on
    // both endpoints.
    assert!(
        report.faults.reconnects >= 2,
        "both killed connections must come back (saw {})",
        report.faults.reconnects
    );
    // Dropped/delayed first transmissions and kill-lost buffers are all
    // recovered through retransmission.
    assert!(
        report.faults.retransmits > 0,
        "injected loss must show up as retransmits"
    );
}

#[test]
fn chaos_run_matches_the_oracle_on_every_transport() {
    // The fault seams sit *above* the byte pipe (the injector acts on
    // sequenced sends, the kill severs the stream object), so drop,
    // duplicate, delay, and connection-kill must all fire — and all be
    // recovered from — identically on TCP and Unix sockets, and on the
    // local pipes and socketpairs that carry the edges whatever the
    // transport: a pipe with no kernel underneath still misbehaves on
    // demand.
    for transport in [TransportKind::Tcp, TransportKind::Uds] {
        let name = transport.name();
        let tree = Tree::kary(10, 3);
        let seq = uniform(&tree, 70, 0.5, 0x5AFE);
        let plan = FaultPlan {
            seed: 31,
            drop_p: 0.05,
            dup_p: 0.05,
            delay_p: 0.05,
            // A root edge carries traffic in any workload, so a small
            // frame threshold guarantees the kill actually fires.
            kills: vec![KillConn {
                from: NodeId(0),
                to: NodeId(1),
                after_frames: 3,
            }],
            ..FaultPlan::default()
        };
        let cfg = NetConfig {
            transport,
            ..NetConfig::default()
        };
        let cluster = Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, plan, cfg)
            .unwrap_or_else(|e| panic!("{name}: spawn failed: {e}"));
        let combines = replay_against_oracle(&cluster, &seq);
        assert!(combines > 5, "{name}: workload must exercise combines");

        let (drops, dups, delays, kills, _) = cluster.injected().snapshot();
        assert_eq!(kills, 1, "{name}: the scheduled connection kill must fire");
        assert!(
            drops + dups + delays > 0,
            "{name}: probabilistic faults must have fired on a run this size"
        );

        let report = cluster.shutdown();
        assert!(
            report.dead_nodes.is_empty(),
            "{name}: no node may stay wedged"
        );
        assert!(
            report.faults.reconnects >= 1,
            "{name}: the killed connection must come back (saw {})",
            report.faults.reconnects
        );
        assert!(
            report.faults.retransmits > 0,
            "{name}: injected loss must show up as retransmits"
        );
    }
}

#[test]
fn crash_only_chaos_preserves_written_state() {
    // Crash-restart in isolation (no link faults): a node is killed
    // after its writes have propagated; the supervisor restores its
    // durable value, neighbours revoke and re-probe, and combines
    // keep returning the oracle.
    let tree = Tree::path(5);
    let plan = FaultPlan {
        seed: 11,
        crashes: vec![CrashNode {
            node: NodeId(2),
            after_delivered: 2,
        }],
        ..FaultPlan::default()
    };
    let cluster = Cluster::spawn_with_faults(&tree, SumI64, &RwwSpec, false, plan).expect("spawn");

    let mut seq = Vec::new();
    for u in 0..5 {
        seq.push(Request::write(NodeId(u), (u as i64 + 1) * 10));
    }
    // Combines at the endpoints force full-path fan-outs through the
    // crash site, before and after the crash fires.
    for _ in 0..6 {
        seq.push(Request::combine(NodeId(0)));
        seq.push(Request::combine(NodeId(4)));
    }
    seq.push(Request::write(NodeId(2), -7));
    seq.push(Request::combine(NodeId(0)));

    let combines = replay_against_oracle(&cluster, &seq);
    assert_eq!(combines, 13);

    let (_, _, _, kills, crashes) = cluster.injected().snapshot();
    assert_eq!((kills, crashes), (0, 1));
    let report = cluster.shutdown();
    assert_eq!(report.faults.restarts, 1);
    assert_eq!(report.faults.reconnects, 0, "no connection was killed");
    assert!(report.dead_nodes.is_empty());
}

#[test]
fn root_crash_chaos_preserves_written_state() {
    // The root is special: it grants leases downward and anchors every
    // full-tree fan-out, so crashing it exercises the revoke cascade
    // from the top. Same contract as any other crash: durable values
    // survive, combines keep matching the oracle, nothing wedges.
    let tree = Tree::path(5);
    let plan = FaultPlan {
        seed: 17,
        crashes: vec![CrashNode {
            node: NodeId(0),
            after_delivered: 2,
        }],
        ..FaultPlan::default()
    };
    let cluster = Cluster::spawn_with_faults(&tree, SumI64, &RwwSpec, false, plan).expect("spawn");

    let mut seq = Vec::new();
    for u in 0..5 {
        seq.push(Request::write(NodeId(u), (u as i64 + 1) * 100));
    }
    for _ in 0..6 {
        seq.push(Request::combine(NodeId(4)));
        seq.push(Request::combine(NodeId(0)));
    }
    seq.push(Request::write(NodeId(0), -3));
    seq.push(Request::combine(NodeId(4)));

    let combines = replay_against_oracle(&cluster, &seq);
    assert_eq!(combines, 13);

    let (_, _, _, kills, crashes) = cluster.injected().snapshot();
    assert_eq!((kills, crashes), (0, 1));
    let report = cluster.shutdown();
    assert_eq!(report.faults.restarts, 1);
    assert_eq!(report.faults.kill9s, 0);
    assert!(report.dead_nodes.is_empty());
}

#[test]
fn kill9_chaos_with_wal_recovers_and_matches_the_oracle() {
    // The durability acceptance scenario: probabilistic drops and
    // duplicates on every edge, one connection kill, and two process
    // kills — the root and an internal node — with state recovered
    // from the write-ahead log. Every combine must still equal the
    // oracle, and the ledger, per-node metrics, and cluster report
    // must agree on what happened — on every transport, since a kill9
    // severs and redials every connection the node held, and on both
    // kinds of edge: with one reactor every edge is a local pipe, so the
    // drops, dups, the connection kill and both kill9s all land
    // in-process; with one reactor per node every edge is a socketpair.
    // With two reactors the killed edge 0–1 is the one between them: its
    // dialer redials, and the fresh socketpair crosses the peer
    // reactor's mailbox mid-run.
    let tree = Tree::kary(10, 3);
    let transports = [TransportKind::Tcp, TransportKind::Uds];
    let runs = transports
        .into_iter()
        .flat_map(|t| [1, 2, tree.len()].map(|pool| (t, pool)));
    for (transport, pool) in runs {
        let name = format!("{}/pool {pool}", transport.name());
        let seq = uniform(&tree, 90, 0.5, 0xD15C);
        let wal_dir = tmpdir(&format!("kill9-accept-{}-{pool}", transport.name()));
        let plan = FaultPlan {
            seed: 23,
            drop_p: 0.05,
            dup_p: 0.05,
            kills: vec![KillConn {
                from: NodeId(0),
                to: NodeId(1),
                after_frames: 3,
            }],
            // Node 0 is the root; node 2 is internal (children 7, 8, 9).
            kill9s: vec![
                CrashNode {
                    node: NodeId(0),
                    after_delivered: 6,
                },
                CrashNode {
                    node: NodeId(2),
                    after_delivered: 5,
                },
            ],
            ..FaultPlan::default()
        };
        let cfg = NetConfig {
            durability: DurabilityMode::Wal(WalConfig::new(&wal_dir)),
            transport,
            threads: Some(pool),
            ..NetConfig::default()
        };
        let cluster = Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, plan, cfg)
            .unwrap_or_else(|e| panic!("{name}: spawn kill9 failed: {e}"));
        let crossing = cluster.reactor_of(NodeId(0)) != cluster.reactor_of(NodeId(1));
        assert_eq!(crossing, pool > 1, "{name}: where the killed edge sits");
        let combines = replay_against_oracle(&cluster, &seq);
        assert!(
            combines > 10,
            "{name}: workload must actually exercise combines"
        );

        let (kill9s, _, _) = cluster.injected().snapshot_process();
        assert_eq!(kill9s, 2, "{name}: both scheduled process kills must fire");
        let (_, dups, _, kills, crashes) = cluster.injected().snapshot();
        assert_eq!(kills, 1, "{name}");
        assert_eq!(crashes, 0, "{name}");
        assert!(
            dups > 0,
            "{name}: duplicates must have fired on a run this size"
        );

        // Per-node metrics surface the process kill and the WAL work.
        let m2 = cluster.node_metrics(NodeId(2)).expect("metrics node 2");
        assert_eq!(
            m2.kill9s, 1,
            "{name}: node 2 was process-killed exactly once"
        );
        assert_eq!(m2.restarts, 1, "{name}: a kill9 counts as a restart");
        assert_eq!(
            m2.wal_replays, 1,
            "{name}: recovery replayed the node's log"
        );
        assert!(m2.wal_records > 0 && m2.wal_fsyncs > 0, "{name}");
        let metrics = Json::parse(&cluster.metrics_json().expect("metrics json")).expect("parse");
        let kill9s = metrics.items()[2].at(&["faults", "kill9s"]);
        assert_eq!(kill9s.and_then(Json::as_u64), Some(1), "{name}");

        let report = cluster.shutdown();
        assert!(
            report.dead_nodes.is_empty(),
            "{name}: no node may stay wedged"
        );
        assert_eq!(report.faults.kill9s, 2, "{name}");
        assert_eq!(
            report.faults.restarts, 2,
            "{name}: restarts must equal crashes + kill9s"
        );
        assert!(report.faults.reconnects >= 1, "{name}: {:?}", report.faults);
        assert_eq!(
            report.io.socket_edge_bytes > 0,
            pool > 1,
            "{name}: {:?}",
            report.io
        );
        // The WAL directory was fresh, so cold start found nothing: every
        // replay on the books is a kill9 recovery.
        assert_eq!(report.wal.replays, 2, "{name}");
        assert!(report.wal.records > 0 && report.wal.fsyncs > 0, "{name}");
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}

#[test]
fn torn_tail_kill9_renumbers_the_restart_past_what_the_peer_saw() {
    // A kill9 resets the node's links: its first frames after the
    // restart — the RESET among them — carry sequence numbers from 1
    // again, numbers the peer has already delivered. The new
    // incarnation in the reconnect hello is what moves them past the
    // peer's watermark: the peer zeroes it and drops what it buffered
    // for the dead incarnation rather than trim the new frames as
    // delivered. A lost RESET leaves the neighbour's leases on the dead
    // incarnation standing, and a later combine diverges. Twelve seeds,
    // with the torn-tail fault armed; nothing rewrites the log.
    for seed in 1..=12 {
        let tree = Tree::path(5);
        let wal_dir = tmpdir(&format!("torn-renumber-{seed}"));
        let plan = FaultPlan {
            seed,
            kill9s: vec![CrashNode {
                node: NodeId(2),
                after_delivered: 4 + seed % 3,
            }],
            torn_tail_max: 1 << 20,
            ..FaultPlan::default()
        };
        let cfg = NetConfig {
            durability: DurabilityMode::Wal(WalConfig {
                dir: wal_dir.clone(),
                fsync_every: 10_000,
                snapshot_every: 1_000_000,
            }),
            ..NetConfig::default()
        };
        let cluster =
            Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, plan, cfg).expect("spawn torn");
        // Cold full-path combines push node 2 past the kill threshold on
        // pure link traffic (probes and responses), then writes and
        // combines check recovery end to end.
        let mut seq = Vec::new();
        for _ in 0..2 {
            seq.push(Request::combine(NodeId(0)));
            seq.push(Request::combine(NodeId(4)));
        }
        for u in 0..5 {
            seq.push(Request::write(NodeId(u), (u as i64 + 1) * 11));
        }
        for _ in 0..4 {
            seq.push(Request::combine(NodeId(0)));
            seq.push(Request::combine(NodeId(4)));
        }
        assert_eq!(replay_against_oracle(&cluster, &seq), 12, "seed {seed}");
        let report = cluster.shutdown();
        assert!(report.dead_nodes.is_empty(), "seed {seed}");
        assert_eq!(report.faults.kill9s, 1, "seed {seed}");
        assert!(
            report.faults.reconnects >= 1,
            "seed {seed}: {:?}",
            report.faults
        );
        assert_eq!(report.wal.replays, 1, "seed {seed}");
        assert_eq!(
            report.wal.snapshots, 0,
            "seed {seed}: nothing rewrites the log"
        );
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
}

#[test]
fn torn_tail_recovery_converges_with_bounded_loss() {
    // A machine crash that loses the page cache: the torn-tail fault
    // chops unsynced bytes off the log at recovery, here at a kill9
    // mid-workload. The log holds nothing but writes and epochs, each
    // synced before the node acts on it whatever the group-commit batch
    // says, so the loss is bounded by zero, and every combine equals
    // the oracle.
    let tree = Tree::path(5);
    let wal_dir = tmpdir("torn-tail");
    let plan = FaultPlan {
        seed: 29,
        kill9s: vec![CrashNode {
            node: NodeId(2),
            after_delivered: 4,
        }],
        torn_tail_max: 64,
        ..FaultPlan::default()
    };
    let cfg = NetConfig {
        durability: DurabilityMode::Wal(WalConfig {
            dir: wal_dir.clone(),
            fsync_every: 10_000,
            snapshot_every: 1_000_000,
        }),
        ..NetConfig::default()
    };
    let cluster =
        Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, plan, cfg).expect("spawn torn");

    // Two cold full-path combines push node 2 past the kill threshold
    // on pure link traffic (probes/responses, no local writes), then
    // writes and combines check recovery end to end.
    let mut seq = vec![Request::combine(NodeId(0)), Request::combine(NodeId(4))];
    for u in 0..5 {
        seq.push(Request::write(NodeId(u), (u as i64 + 1) * 11));
    }
    for _ in 0..4 {
        seq.push(Request::combine(NodeId(0)));
        seq.push(Request::combine(NodeId(4)));
    }
    assert_eq!(replay_against_oracle(&cluster, &seq), 10);

    let (kill9s, torn_tails, _) = cluster.injected().snapshot_process();
    assert_eq!(kill9s, 1, "the scheduled process kill must fire");
    assert_eq!(torn_tails, 0, "every record was synced: nothing to tear");
    let report = cluster.shutdown();
    assert!(report.dead_nodes.is_empty());
    let wal = report.wal;
    assert_eq!(wal.replays, 1);
    assert_eq!((wal.torn_events, wal.torn_bytes), (0, 0));
    assert_eq!(wal.fsyncs, wal.records, "every record synced");
    // Five writes, one birth epoch per node and the restart's epoch; a
    // write the kill9 cut off before its ack is retried and logged
    // again.
    assert!((11..=13).contains(&wal.records), "{wal:?}");
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn crash_keeps_forest_values_without_a_rewrite() {
    // The in-memory backend: a crash destroys every automaton instance,
    // and each comes back holding its written value — forest trees as
    // much as tree 0, with no client writing anything again. Combines
    // from both path ends cross the crash site before and after the
    // crash fires (at node 2's second delivered message, inside the
    // first combine).
    let tree = Tree::path(5);
    let plan = FaultPlan {
        seed: 11,
        crashes: vec![CrashNode {
            node: NodeId(2),
            after_delivered: 2,
        }],
        ..FaultPlan::default()
    };
    let cluster = Cluster::spawn_with_faults(&tree, SumI64, &RwwSpec, false, plan).expect("spawn");
    let mut clients: Vec<ClusterClient<i64>> = tree
        .nodes()
        .map(|u| {
            let mut c = cluster.client(u).expect("client connect");
            c.set_timeout(Some(CLIENT_TIMEOUT), CLIENT_RETRIES)
                .expect("arm timeout");
            c
        })
        .collect();
    for (u, c) in clients.iter_mut().enumerate() {
        c.write_tree(3, (u as i64 + 1) * 10).expect("forest write");
    }
    assert!(cluster.quiesce_for(DRAIN));
    for round in 0..4 {
        for end in [0, 4] {
            let got = clients[end].combine_tree(3).expect("forest combine");
            assert_eq!(got, 150, "round {round}: combine at node {end}");
            assert!(cluster.quiesce_for(DRAIN));
        }
    }
    let (_, _, _, _, crashes) = cluster.injected().snapshot();
    assert_eq!(crashes, 1, "the scheduled crash must fire");
    drop(clients);
    let report = cluster.shutdown();
    assert_eq!(report.faults.restarts, 1);
    assert!(report.dead_nodes.is_empty());
}

#[test]
fn cold_start_replays_the_wal_across_cluster_spawns() {
    // Durability across process lifetimes: a cluster writes values on
    // tree 0 and on forest trees 3 and 7, and shuts down; a second
    // cluster spawned on the same WAL directory recovers every node's
    // value on every tree at cold start and serves the same totals.
    let tree = Tree::path(3);
    let wal_dir = tmpdir("cold-start");
    let cfg = NetConfig {
        durability: DurabilityMode::Wal(WalConfig::new(&wal_dir)),
        ..NetConfig::default()
    };

    let cluster = Cluster::spawn_with(
        &tree,
        SumI64,
        &RwwSpec,
        false,
        FaultPlan::default(),
        cfg.clone(),
    )
    .expect("spawn first incarnation");
    for u in 0..3 {
        let mut c = cluster.client(NodeId(u)).expect("client");
        c.write((u as i64 + 1) * 100).expect("write");
        c.write_tree(3, u as i64 + 1).expect("write tree 3");
        c.write_tree(7, (u as i64 + 1) * 10_000)
            .expect("write tree 7");
    }
    cluster.quiesce();
    let mut c = cluster.client(NodeId(0)).expect("client");
    assert_eq!(c.combine().expect("combine"), 600);
    cluster.quiesce();
    drop(c);
    let report = cluster.shutdown();
    assert!(report.wal.records > 0, "writes must have hit the log");

    let cluster = Cluster::spawn_with(&tree, SumI64, &RwwSpec, false, FaultPlan::default(), cfg)
        .expect("spawn second incarnation");
    assert!(
        cluster.quiesce_for(DRAIN),
        "cold-start resets must drain before serving"
    );
    let mut c = cluster.client(NodeId(2)).expect("client");
    c.set_timeout(Some(CLIENT_TIMEOUT), CLIENT_RETRIES)
        .expect("arm timeout");
    assert_eq!(
        c.combine().expect("combine after cold start"),
        600,
        "recovered durable values must reproduce the pre-shutdown total"
    );
    cluster.quiesce();
    drop(c);
    let mut root = cluster.client(NodeId(0)).expect("client");
    root.set_timeout(Some(CLIENT_TIMEOUT), CLIENT_RETRIES)
        .expect("arm timeout");
    for (t, want) in [(3, 6), (7, 60_000)] {
        assert_eq!(
            root.combine_tree(t)
                .expect("forest combine after cold start"),
            want,
            "tree {t}: recovered forest values must reproduce the pre-shutdown total"
        );
        cluster.quiesce();
    }
    drop(root);
    let report = cluster.shutdown();
    assert_eq!(
        report.wal.replays, 3,
        "every node must have replayed its log at cold start"
    );
    assert!(report.dead_nodes.is_empty());
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn empty_fault_plan_is_free_and_ledger_stays_zero() {
    // spawn_with_faults(empty) must behave exactly like spawn: zero
    // injected events, zero recovery work, counts identical to the
    // fault-free run (net_parity.rs pins those against the simulator).
    let tree = Tree::star(6);
    let seq = uniform(&tree, 40, 0.5, 0xFACE);
    let cluster = Cluster::spawn_with_faults(&tree, SumI64, &RwwSpec, false, FaultPlan::default())
        .expect("spawn");
    let combines = replay_against_oracle(&cluster, &seq);
    assert!(combines > 0);
    assert_eq!(cluster.injected().snapshot(), (0, 0, 0, 0, 0));
    let report = cluster.shutdown();
    assert_eq!(report.faults, oat::net::FaultCounters::default());
    assert_eq!(report.abandoned, 0);
    assert!(report.dead_nodes.is_empty());
}

#[test]
fn multi_client_pipelined_replay_answers_every_request() {
    // The M-clients-per-node driver on a reliable substrate: every
    // request answered, every message delivered, combine count intact.
    let tree = Tree::kary(10, 3);
    let seq = uniform(&tree, 120, 0.5, 0x3C3C);
    let expected_combines = seq.iter().filter(|q| q.op.is_combine()).count();
    let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).expect("spawn");
    let pipe = cluster.replay_pipelined_multi(&seq, 4, 3).expect("replay");
    cluster.quiesce();
    assert_eq!(pipe.combines.len(), expected_combines);
    for w in pipe.combines.windows(2) {
        assert!(w[0].0 < w[1].0, "combine indices sorted and unique");
    }
    assert_eq!(pipe.latencies.len(), seq.len());
    let report = cluster.shutdown();
    assert_eq!(report.delivered, report.stats.total());
}

#[test]
fn concurrent_pipelined_chaos_is_causally_consistent() {
    // The concurrent chaos oracle (satellite of the observability PR):
    // strict oracle equality is only defined for sequential replays, so
    // the pipelined driver under faults is checked against the paper's
    // *causal* consistency criterion instead (Theorem 4, Section 5).
    // Ghost logs record every node's gather-write history; the checker
    // rebuilds gwlog/gwlog' and validates value compatibility, write
    // coherence, serialization, and causal order. Crash faults are
    // excluded — a restart discards the crashed node's ghost log, which
    // would void the serialization bookkeeping, not the property.
    let tree = Tree::kary(10, 3);
    let seq = uniform(&tree, 150, 0.5, 0xBEEF);
    let plan = FaultPlan {
        seed: 13,
        drop_p: 0.04,
        dup_p: 0.04,
        delay_p: 0.04,
        // Root edges carry traffic in any workload; tiny thresholds
        // guarantee both kills fire even though leases keep the total
        // frame count low.
        kills: vec![
            KillConn {
                from: NodeId(0),
                to: NodeId(1),
                after_frames: 2,
            },
            KillConn {
                from: NodeId(2),
                to: NodeId(0),
                after_frames: 3,
            },
        ],
        crashes: Vec::new(),
        ..FaultPlan::default()
    };
    let cluster =
        Cluster::spawn_with_faults(&tree, SumI64, &RwwSpec, true, plan).expect("spawn chaos");
    let expected_combines = seq.iter().filter(|q| q.op.is_combine()).count();
    // Two clients per active node, four requests in flight each: real
    // concurrency — cross-node order is free and per-node order is only
    // FIFO within each client's share.
    let pipe = cluster
        .replay_pipelined_multi(&seq, 4, 2)
        .expect("pipelined replay under faults");
    assert_eq!(
        pipe.combines.len(),
        expected_combines,
        "every combine must complete despite injected faults"
    );
    assert!(
        cluster.quiesce_for(DRAIN),
        "cluster failed to drain after pipelined chaos"
    );

    let (drops, dups, delays, kills, _) = cluster.injected().snapshot();
    assert_eq!(kills, 2, "both scheduled kills must fire");
    assert!(
        drops + dups + delays > 0,
        "probabilistic faults must have fired on a run this size"
    );

    let report = cluster.shutdown();
    assert!(report.dead_nodes.is_empty(), "no node may stay wedged");
    let logs = report
        .logs
        .expect("ghost logs survive a crash-free chaos run");
    let causal = oat::consistency::check_causal(&SumI64, &logs)
        .unwrap_or_else(|v| panic!("causal consistency violated under concurrent chaos: {v:?}"));
    // Concurrent combines at a node coalesce onto one in-flight fan-out
    // (T1's `Coalesced` outcome), so the log holds between 1 and
    // `expected_combines` gathers. Every write is logged exactly once.
    assert!(
        causal.gathers >= 1 && causal.gathers <= expected_combines,
        "gather count out of range: {causal:?}"
    );
    let expected_writes = seq.len() - expected_combines;
    assert_eq!(causal.writes, expected_writes);
    assert!(
        causal.checked_pairs > 0,
        "the checker must have validated real work: {causal:?}"
    );
}
