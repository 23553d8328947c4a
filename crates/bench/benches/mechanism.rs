//! Mechanism handler cost under a standing lease.
//!
//! The node is an interior node of `kary:7:2` on the path between two
//! frontends: it holds a lease from its parent and both children and has
//! granted one to its parent and to one child, and nothing breaks. Every
//! update from that child is forwarded to the parent, so `uaw[child]`
//! and the `sntupdates` queue of that child grow by one entry per update
//! for as long as the lease stands.
//!
//! * `t5_update/N`: [`BATCH`] further updates at each of [`NODES`] nodes
//!   with `N` ids outstanding — the cost must not depend on `N`.
//! * `t6_release/N`: the parent's release of all `N` ids, which ends the
//!   lease and cascades a release of `uaw[child]` to the child. It reads
//!   `N` ids off the message and hands `N` on, so it is linear in `N` by
//!   its inputs alone.
//!
//! Preparing the nodes (clones of the `N`-entry state, plus one update
//! each so that the clone's exact-fit buffers have grown) is not timed.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use oat_core::agg::SumI64;
use oat_core::mechanism::{MechNode, Outbox};
use oat_core::message::Message;
use oat_core::policy::rww::{RwwNode, RwwSpec};
use oat_core::policy::PolicySpec;
use oat_core::tree::{NodeId, Tree};

type Node = MechNode<RwwNode, SumI64>;

/// Nodes per timed unit.
const NODES: u64 = 16;
/// Updates per node per timed unit.
const BATCH: u64 = 16;

const PARENT: NodeId = NodeId(0);
const NODE: NodeId = NodeId(1);
const CHILD: NodeId = NodeId(3);
const OTHER_CHILD: NodeId = NodeId(4);

fn response() -> Message<i64> {
    Message::Response {
        x: 0,
        flag: true,
        epoch: 0,
        wlog: None,
    }
}

fn update(id: u64) -> Message<i64> {
    Message::Update {
        x: id as i64,
        id,
        wlog: None,
    }
}

/// The node after a read at a frontend behind the parent and one behind
/// `CHILD`, then `outstanding` updates from `CHILD`.
fn standing_lease(outstanding: u64) -> Node {
    let tree = Tree::kary(7, 2);
    let mut node = MechNode::new(&tree, NODE, SumI64, RwwSpec.build(tree.degree(NODE)), false);
    let mut out: Outbox<i64> = Vec::new();
    node.handle_message(PARENT, Message::Probe { epoch: 0 }, &mut out);
    node.handle_message(CHILD, response(), &mut out);
    node.handle_message(OTHER_CHILD, response(), &mut out);
    node.handle_message(CHILD, Message::Probe { epoch: 0 }, &mut out);
    node.handle_message(PARENT, response(), &mut out);
    for id in 1..=outstanding {
        out.clear();
        node.handle_message(CHILD, update(id), &mut out);
    }
    assert_eq!(node.uaw(node.nbr_index(CHILD)).len() as u64, outstanding);
    assert_eq!(node.sntupdates_len() as u64, outstanding);
    node
}

fn bench_standing_lease(c: &mut Criterion) {
    let mut g = c.benchmark_group("mechanism/standing_lease");
    for outstanding in [8u64, 512, 8192] {
        let base = standing_lease(outstanding);

        g.throughput(Throughput::Elements(NODES * BATCH));
        g.bench_with_input(
            BenchmarkId::new("t5_update", outstanding),
            &outstanding,
            |b, _| {
                b.iter_batched(
                    || {
                        let mut out = Vec::with_capacity(4);
                        let nodes: Vec<Node> = (0..NODES)
                            .map(|_| {
                                let mut node = base.clone();
                                node.handle_message(CHILD, update(outstanding + 1), &mut out);
                                node
                            })
                            .collect();
                        (nodes, out)
                    },
                    |(mut nodes, mut out): (Vec<Node>, Outbox<i64>)| {
                        for node in &mut nodes {
                            for id in outstanding + 2..outstanding + 2 + BATCH {
                                out.clear();
                                node.handle_message(CHILD, update(id), &mut out);
                            }
                        }
                        (nodes, out)
                    },
                    BatchSize::LargeInput,
                )
            },
        );

        // Everything the node forwarded to the parent is still unread
        // there: the release names all of it.
        let unread: Vec<u64> = (1..=outstanding).collect();
        g.throughput(Throughput::Elements(NODES));
        g.bench_with_input(
            BenchmarkId::new("t6_release", outstanding),
            &outstanding,
            |b, _| {
                b.iter_batched(
                    || {
                        let nodes: Vec<Node> = (0..NODES).map(|_| base.clone()).collect();
                        let releases: Vec<Message<i64>> = (0..NODES)
                            .map(|_| Message::Release {
                                ids: unread.clone(),
                            })
                            .collect();
                        (nodes, releases, Vec::with_capacity(4))
                    },
                    |(mut nodes, releases, mut out): (Vec<Node>, Vec<_>, Outbox<i64>)| {
                        for (node, release) in nodes.iter_mut().zip(releases) {
                            node.handle_message(PARENT, release, &mut out);
                        }
                        assert_eq!(
                            out.len() as u64,
                            NODES,
                            "each release cascades to the child"
                        );
                        (nodes, out)
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_standing_lease);
criterion_main!(benches);
