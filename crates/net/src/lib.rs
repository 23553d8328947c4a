//! # oat-net — the lease mechanism as a real cluster
//!
//! The simulator (`oat-sim`) delivers messages by popping a queue; the
//! threaded runtime (`oat-concurrent`) uses in-process channels. This
//! crate goes the last step: every tree node is served behind its own
//! listener, every tree edge is a persistent connection carrying
//! length-prefixed frames ([`frame`]), and clients talk to any node
//! over the same protocol to issue `combine` / `write` requests or
//! pull metrics snapshots. The byte pipe underneath is pluggable
//! ([`transport`], selected by [`NetConfig::transport`]): loopback TCP
//! (the default), Unix-domain sockets, or in-process SPSC byte rings
//! with a socketpair doorbell — the protocol and every fault/recovery
//! seam are identical across the three.
//!
//! Each node is a sans-IO core (`core.rs`: instances, links, clients,
//! subscriptions, restarts, with no socket and no clock) driven by a
//! readiness-based reactor over a persistent epoll(7) registration
//! (`reactor.rs`; DESIGN.md §11): a fixed pool of event-loop threads
//! (default `min(cores, 4)`, tunable via [`NetConfig`]) owns the nodes in
//! contiguous depth-first preorder blocks — connected subtrees, so a
//! sequential request's hops mostly stay on one thread (`placement.rs`)
//! — and only moves bytes between sockets and cores.
//!
//! The node automaton is the *same* [`oat_core::MechNode`] the simulator
//! drives — transports differ, the mechanism does not. Because sequential
//! executions of lease-based algorithms are schedule-independent in both
//! returned values and message counts (the confluence property the
//! simulator's property tests establish), a seeded workload replayed with
//! [`Cluster::replay_sequential`] reproduces the simulator's per-edge,
//! per-kind [`oat_sim::MsgStats`] *exactly* — the parity tests in
//! `tests/net_parity.rs` assert this across topologies, workloads, and
//! policies.
//!
//! ```no_run
//! use oat_core::{agg::SumI64, policy::rww::RwwSpec, tree::{NodeId, Tree}};
//! use oat_net::Cluster;
//!
//! let tree = Tree::kary(7, 2);
//! let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).unwrap();
//! let mut client = cluster.client(NodeId(3)).unwrap();
//! client.write(5).unwrap();
//! cluster.quiesce();
//! assert_eq!(cluster.client(NodeId(6)).unwrap().combine().unwrap(), 5);
//! let report = cluster.shutdown();
//! println!("total messages: {}", report.stats.total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod core;
pub mod durability;
pub mod frame;
mod link;
pub mod metrics;
mod placement;
mod reactor;
mod transport;

pub use crate::core::FaultCounters;
pub use cluster::{
    Cluster, ClusterClient, ClusterReport, DurabilityMode, NetConfig, NetSeqChunk, PipelinedChunk,
    Response, WalConfig,
};
pub use durability::{WalCounters, WalDurability, WalState};
pub use metrics::NodeMetrics;
pub use transport::{NodeAddr, TransportKind};

#[cfg(test)]
mod tests {
    use super::*;
    use oat_core::agg::SumI64;
    use oat_core::policy::baseline::NeverLeaseSpec;
    use oat_core::policy::rww::RwwSpec;
    use oat_core::request::Request;
    use oat_core::tree::{NodeId, Tree};
    use std::time::{Duration, Instant};

    #[test]
    fn pair_combine_write_combine_matches_figure() {
        // The doc example of run_sequential, over real sockets: cold
        // combine costs probe+response, leased write one update, warm
        // combine is free.
        let tree = Tree::pair();
        let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).unwrap();
        let mut client = cluster.client(NodeId(1)).unwrap();

        let before = cluster.total_messages();
        assert_eq!(client.combine().unwrap(), 0);
        cluster.quiesce();
        assert_eq!(cluster.total_messages() - before, 2);

        let mut writer = cluster.client(NodeId(0)).unwrap();
        writer.write(7).unwrap();
        cluster.quiesce();
        assert_eq!(cluster.total_messages(), 3);

        assert_eq!(client.combine().unwrap(), 7);
        cluster.quiesce();
        assert_eq!(cluster.total_messages(), 3, "warm read must be free");

        let report = cluster.shutdown();
        assert_eq!(report.stats.total(), 3);
        assert_eq!(report.delivered, 3);
    }

    #[test]
    fn replay_matches_simulator_counts_on_a_star() {
        let tree = Tree::star(6);
        let seq: Vec<Request<i64>> = (0..24)
            .map(|i| {
                let node = NodeId(i % 6);
                if i % 3 == 0 {
                    Request::combine(node)
                } else {
                    Request::write(node, i as i64 * 3 - 20)
                }
            })
            .collect();
        let sim = oat_sim::run_sequential(
            &tree,
            SumI64,
            &RwwSpec,
            oat_sim::Schedule::Fifo,
            &seq,
            false,
        );
        let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).unwrap();
        let net = cluster.replay_sequential(&seq).unwrap();
        assert_eq!(net.combines, sim.combines);
        assert_eq!(net.per_request_msgs, sim.per_request_msgs);
        let report = cluster.shutdown();
        assert_eq!(report.stats.total(), sim.engine.stats().total());
    }

    #[test]
    fn metrics_snapshot_reflects_leases_and_counts() {
        let tree = Tree::path(3);
        let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).unwrap();
        let mut client = cluster.client(NodeId(2)).unwrap();
        assert_eq!(client.combine().unwrap(), 0);
        cluster.quiesce();

        // RWW: the combine at node 2 takes leases along the whole path.
        let m0 = cluster.node_metrics(NodeId(0)).unwrap();
        assert_eq!(m0.leases_granted, 1);
        assert_eq!(m0.sent_by_kind[1], 1, "node 0 sent one response");
        let m2 = cluster.node_metrics(NodeId(2)).unwrap();
        assert_eq!(m2.leases_taken, 1);
        assert_eq!(m2.combines_served, 1);
        assert_eq!(m2.queue_depth, 0, "nothing left undispatched");

        let metrics = oat_obs::Json::parse(&cluster.metrics_json().unwrap()).unwrap();
        let nodes: Vec<_> = metrics
            .items()
            .iter()
            .map(|m| m.get("node").and_then(|n| n.as_u64()))
            .collect();
        assert_eq!(nodes, [Some(0), Some(1), Some(2)]);
        let stats = oat_obs::Json::parse(&cluster.stats_json().unwrap()).unwrap();
        assert_eq!(stats.get("total").and_then(|n| n.as_u64()), Some(4));
    }

    #[test]
    fn metrics_count_forest_trees_too() {
        // Forest-only traffic: a write and a combine on tree 3, none on
        // tree 0. RWW leases tree 3 along the whole path, and the
        // combine is served at node 2.
        let cluster = Cluster::spawn(&Tree::path(3), SumI64, &RwwSpec, false).unwrap();
        cluster.client(NodeId(0)).unwrap().write_tree(3, 4).unwrap();
        let mut reader = cluster.client(NodeId(2)).unwrap();
        assert_eq!(reader.combine_tree(3).unwrap(), 4);
        cluster.quiesce();
        let m2 = cluster.node_metrics(NodeId(2)).unwrap();
        assert_eq!((m2.combines_served, m2.leases_taken), (1, 1));
        let m0 = cluster.node_metrics(NodeId(0)).unwrap();
        assert_eq!(m0.leases_granted, 1);
        assert_eq!(m0.pending_combines, 0);
        cluster.shutdown();
    }

    #[test]
    fn never_lease_cluster_stays_pull_only() {
        let tree = Tree::path(4);
        let cluster = Cluster::spawn(&tree, SumI64, &NeverLeaseSpec, false).unwrap();
        let mut c = cluster.client(NodeId(0)).unwrap();
        c.write(3).unwrap();
        cluster.quiesce();
        assert_eq!(
            cluster.total_messages(),
            0,
            "writes are free without leases"
        );
        assert_eq!(c.combine().unwrap(), 3);
        cluster.quiesce();
        // Pull-all: probe+response on every edge.
        assert_eq!(cluster.total_messages(), 6);
        let report = cluster.shutdown();
        assert_eq!(report.stats.kind_totals(), [3, 3, 0, 0]);
    }

    #[test]
    fn malformed_connections_do_not_kill_a_node() {
        use std::io::Write;
        let tree = Tree::path(3);
        let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, false).unwrap();
        cluster.client(NodeId(1)).unwrap().write(9).unwrap();
        cluster.quiesce();

        // A stranger with an unknown hello tag, one with a truncated
        // frame, and a client that sends a garbage request: each must be
        // dropped without killing the acceptor or the node.
        let NodeAddr::Tcp(addr) = cluster.addrs()[1].clone() else {
            panic!("default transport is TCP");
        };
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(&[3, 0, 0, 0, 99, 0xde, 0xad]).unwrap();
        drop(s);
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(&[255, 255]).unwrap();
        drop(s);
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        frame::write_frame(&mut s, frame::TAG_HELLO_CLIENT, &[]).unwrap();
        frame::write_frame(&mut s, frame::TAG_REQ_WRITE, &[1, 2, 3]).unwrap();
        drop(s);

        // New connections to the same node still work end to end.
        let mut c = cluster.client(NodeId(1)).unwrap();
        assert_eq!(c.combine().unwrap(), 9);
        cluster.quiesce();
        cluster.shutdown();
    }

    #[test]
    fn ghost_logs_survive_shutdown() {
        let tree = Tree::pair();
        let cluster = Cluster::spawn(&tree, SumI64, &RwwSpec, true).unwrap();
        let mut c = cluster.client(NodeId(0)).unwrap();
        c.write(1).unwrap();
        assert_eq!(c.combine().unwrap(), 1);
        cluster.quiesce();
        let report = cluster.shutdown();
        let logs = report.logs.expect("ghost enabled");
        assert_eq!(logs.len(), 2);
        assert!(logs[0].len() >= 2, "write + combine recorded at node 0");
    }

    /// `try_next_response(Duration::ZERO)` does not block — 1 000 empty
    /// polls used to take 4 s, each clamped up to a 1 ms read timeout —
    /// and still returns a push once it is there. Run on `tree`, after
    /// `prior` (when non-zero) was written to it at the other node: a
    /// priming push of that value proves the tree's one instance here
    /// answered, not a second automaton beside it.
    fn zero_wait_polls_return_at_once(transport: TransportKind, tree: u32, prior: i64) {
        let cfg = NetConfig {
            transport,
            ..NetConfig::default()
        };
        let cluster = Cluster::spawn_with(
            &Tree::pair(),
            SumI64,
            &RwwSpec,
            false,
            Default::default(),
            cfg,
        )
        .unwrap();
        if prior != 0 {
            cluster
                .client(NodeId(1))
                .unwrap()
                .write_tree(tree, prior)
                .unwrap();
            cluster.quiesce();
        }
        let mut sub = cluster.client(NodeId(0)).unwrap();
        sub.subscribe(tree).unwrap();
        // A non-zero wait still waits: the priming push lands inside it.
        let primed = sub.try_next_response(Duration::from_secs(5)).unwrap();
        assert!(
            matches!(
                primed,
                Some((_, Response::Partial { tree: t, value, .. })) if t == tree && value == prior
            ),
            "no priming push: {primed:?}"
        );

        let started = Instant::now();
        for _ in 0..1000 {
            assert_eq!(sub.try_next_response(Duration::ZERO).unwrap(), None);
        }
        let took = started.elapsed();
        assert!(took < Duration::from_millis(250), "empty polls: {took:?}");

        cluster
            .client(NodeId(1))
            .unwrap()
            .write_tree(tree, 7)
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let pushed = loop {
            if let Some((_, resp)) = sub.try_next_response(Duration::ZERO).unwrap() {
                break resp;
            }
            assert!(Instant::now() < deadline, "the push never arrived");
            std::thread::yield_now();
        };
        assert!(
            matches!(
                pushed,
                Response::Partial { tree: t, value: 7, .. } if t == tree
            ),
            "pushed: {pushed:?}"
        );
        cluster.quiesce();
        cluster.shutdown();
    }

    #[test]
    fn zero_wait_polls_return_at_once_tcp() {
        zero_wait_polls_return_at_once(TransportKind::Tcp, 1, 0);
        zero_wait_polls_return_at_once(TransportKind::Tcp, 0, 5);
    }

    #[test]
    fn zero_wait_polls_return_at_once_uds() {
        zero_wait_polls_return_at_once(TransportKind::Uds, 1, 0);
        zero_wait_polls_return_at_once(TransportKind::Uds, 0, 5);
    }

    #[test]
    fn zero_wait_polls_return_at_once_ring() {
        zero_wait_polls_return_at_once(TransportKind::Ring, 1, 0);
        zero_wait_polls_return_at_once(TransportKind::Ring, 0, 5);
    }

    /// A write ack that arrives before the metrics reply on the same
    /// connection is kept for the caller's next `next_response`.
    #[test]
    fn metrics_keeps_a_pipelined_ack_for_next_response() {
        for transport in [TransportKind::Tcp, TransportKind::Uds, TransportKind::Ring] {
            let cfg = NetConfig {
                transport,
                ..NetConfig::default()
            };
            let cluster = Cluster::spawn_with(
                &Tree::pair(),
                SumI64,
                &RwwSpec,
                false,
                Default::default(),
                cfg,
            )
            .unwrap();
            let mut c = cluster.client(NodeId(0)).unwrap();
            c.set_timeout(Some(Duration::from_millis(300)), 0).unwrap();
            let id = c.submit_write(5).unwrap();
            c.metrics().unwrap();
            let got = c.next_response();
            assert!(
                matches!(got, Ok((got_id, Response::Write)) if got_id == id),
                "{}: the ack for write {id} was lost: {got:?}",
                transport.name()
            );
            cluster.quiesce();
            cluster.shutdown();
        }
    }
}
