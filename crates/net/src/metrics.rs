//! Per-node runtime metrics, served over the wire on request.
//!
//! Each node answers a metrics request with a [`NodeMetrics`] snapshot of
//! its *own* activity: messages it has sent per outgoing directed edge and
//! per kind, its current lease relationships over every tree it serves,
//! work-queue gauge readings, and combine bookkeeping. Cluster-wide views
//! are client-side merges of these per-node snapshots (see
//! `Cluster::stats`).

use oat_core::wire::{put_u32, put_u64, WireError, WireReader};
use oat_obs::Json;
use oat_sim::stats::with_kind_counts;

/// A snapshot of one node's runtime counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMetrics {
    /// The reporting node's id.
    pub node: u32,
    /// Messages this node has *sent*, per kind, in
    /// [`MsgKind::ALL`](oat_core::message::MsgKind::ALL) order.
    pub sent_by_kind: [u64; 4],
    /// Network messages this node has *received* and processed.
    pub delivered: u64,
    /// Per outgoing directed edge: `(neighbour, counts per kind)`.
    pub edges: Vec<(u32, [u64; 4])>,
    /// Leases this node currently holds from a neighbour (`taken`),
    /// one per neighbour and tree.
    pub leases_taken: u32,
    /// Leases this node has granted a neighbour (`granted`), one per
    /// neighbour and tree.
    pub leases_granted: u32,
    /// Work items decoded but not yet dispatched. Decode and dispatch
    /// share one input, so a snapshot (itself an input) reads 0.
    pub queue_depth: u64,
    /// Most work items one input decoded before dispatching them.
    pub queue_peak: u64,
    /// Combine requests parked awaiting responses, on every tree.
    pub pending_combines: u64,
    /// Combine requests this node has answered, on every tree.
    pub combines_served: u64,
    /// Edge connections re-established after a failure.
    pub reconnects: u64,
    /// Sequenced frames re-sent by post-reconnect replays.
    pub retransmits: u64,
    /// Frames discarded by the edge sequencer (duplicates, out-of-window
    /// arrivals, undecodable payloads).
    pub dup_drops: u64,
    /// Always 0: no timer re-sends a frame since a lost frame severs its
    /// connection. The field and its slot in the metrics frame stay while
    /// the benchmark's retries ledger still reads them.
    pub timeouts: u64,
    /// Times this node's automaton crashed and was restarted.
    pub restarts: u64,
    /// Times client intake was parked because an edge retransmit buffer
    /// crossed the backpressure high watermark.
    pub backpressure_stalls: u64,
    /// Times this node was killed process-style (state dropped) and
    /// recovered from its durability backend.
    pub kill9s: u64,
    /// WAL records appended by the durability backend (0 for `Memory`).
    pub wal_records: u64,
    /// WAL group-commit fsync batches issued.
    pub wal_fsyncs: u64,
    /// WAL recovery replays performed (cold start or kill9 restart).
    pub wal_replays: u64,
    /// Bytes discarded from the WAL tail on recovery (torn writes).
    pub wal_torn_bytes: u64,
    /// Snapshots written by the durability backend.
    pub wal_snapshots: u64,
}

impl NodeMetrics {
    /// Wire encoding (field order as declared; edge list length-prefixed).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.node);
        for c in self.sent_by_kind {
            put_u64(out, c);
        }
        put_u64(out, self.delivered);
        put_u32(out, self.edges.len() as u32);
        for (to, counts) in &self.edges {
            put_u32(out, *to);
            for c in counts {
                put_u64(out, *c);
            }
        }
        put_u32(out, self.leases_taken);
        put_u32(out, self.leases_granted);
        put_u64(out, self.queue_depth);
        put_u64(out, self.queue_peak);
        put_u64(out, self.pending_combines);
        put_u64(out, self.combines_served);
        put_u64(out, self.reconnects);
        put_u64(out, self.retransmits);
        put_u64(out, self.dup_drops);
        put_u64(out, self.timeouts);
        put_u64(out, self.restarts);
        put_u64(out, self.backpressure_stalls);
        put_u64(out, self.kill9s);
        put_u64(out, self.wal_records);
        put_u64(out, self.wal_fsyncs);
        put_u64(out, self.wal_replays);
        put_u64(out, self.wal_torn_bytes);
        put_u64(out, self.wal_snapshots);
    }

    /// Decodes a snapshot, requiring full consumption of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let node = r.u32("metrics node")?;
        let mut sent_by_kind = [0u64; 4];
        for c in &mut sent_by_kind {
            *c = r.u64("metrics sent_by_kind")?;
        }
        let delivered = r.u64("metrics delivered")?;
        let n_edges = r.u32("metrics edge count")? as usize;
        let mut edges = Vec::with_capacity(n_edges.min(4096));
        for _ in 0..n_edges {
            let to = r.u32("metrics edge peer")?;
            let mut counts = [0u64; 4];
            for c in &mut counts {
                *c = r.u64("metrics edge counts")?;
            }
            edges.push((to, counts));
        }
        let metrics = NodeMetrics {
            node,
            sent_by_kind,
            delivered,
            edges,
            leases_taken: r.u32("metrics leases_taken")?,
            leases_granted: r.u32("metrics leases_granted")?,
            queue_depth: r.u64("metrics queue_depth")?,
            queue_peak: r.u64("metrics queue_peak")?,
            pending_combines: r.u64("metrics pending_combines")?,
            combines_served: r.u64("metrics combines_served")?,
            reconnects: r.u64("metrics reconnects")?,
            retransmits: r.u64("metrics retransmits")?,
            dup_drops: r.u64("metrics dup_drops")?,
            timeouts: r.u64("metrics timeouts")?,
            restarts: r.u64("metrics restarts")?,
            backpressure_stalls: r.u64("metrics backpressure_stalls")?,
            kill9s: r.u64("metrics kill9s")?,
            wal_records: r.u64("metrics wal_records")?,
            wal_fsyncs: r.u64("metrics wal_fsyncs")?,
            wal_replays: r.u64("metrics wal_replays")?,
            wal_torn_bytes: r.u64("metrics wal_torn_bytes")?,
            wal_snapshots: r.u64("metrics wal_snapshots")?,
        };
        r.finish("metrics trailing bytes")?;
        Ok(metrics)
    }

    /// Total messages this node has sent.
    pub fn sent_total(&self) -> u64 {
        self.sent_by_kind.iter().sum()
    }

    /// The node's metrics document (`oat serve metrics N`): fields and
    /// edges in a fixed order, message counts per
    /// [`MsgKind`](oat_core::message::MsgKind).
    pub fn to_json(&self) -> Json {
        let sent = Json::obj().with("total", self.sent_total());
        let edges = self
            .edges
            .iter()
            .map(|(to, counts)| with_kind_counts(Json::obj().with("to", *to), counts));
        Json::obj()
            .with("node", self.node)
            .with("sent", with_kind_counts(sent, &self.sent_by_kind))
            .with("delivered", self.delivered)
            .with("edges", edges.collect::<Vec<_>>())
            .with(
                "leases",
                Json::obj()
                    .with("taken", self.leases_taken)
                    .with("granted", self.leases_granted),
            )
            .with(
                "queue",
                Json::obj()
                    .with("depth", self.queue_depth)
                    .with("peak", self.queue_peak),
            )
            .with(
                "combines",
                Json::obj()
                    .with("pending", self.pending_combines)
                    .with("served", self.combines_served),
            )
            .with(
                "faults",
                Json::obj()
                    .with("reconnects", self.reconnects)
                    .with("retransmits", self.retransmits)
                    .with("dup_drops", self.dup_drops)
                    .with("timeouts", self.timeouts)
                    .with("restarts", self.restarts)
                    .with("kill9s", self.kill9s)
                    .with("backpressure_stalls", self.backpressure_stalls),
            )
            .with(
                "wal",
                Json::obj()
                    .with("records", self.wal_records)
                    .with("fsyncs", self.wal_fsyncs)
                    .with("replays", self.wal_replays)
                    .with("torn_bytes", self.wal_torn_bytes)
                    .with("snapshots", self.wal_snapshots),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeMetrics {
        NodeMetrics {
            node: 3,
            sent_by_kind: [1, 2, 3, 4],
            delivered: 9,
            edges: vec![(0, [1, 0, 0, 0]), (7, [0, 2, 3, 4])],
            leases_taken: 2,
            leases_granted: 1,
            queue_depth: 0,
            queue_peak: 5,
            pending_combines: 0,
            combines_served: 6,
            reconnects: 1,
            retransmits: 2,
            dup_drops: 3,
            timeouts: 4,
            restarts: 5,
            backpressure_stalls: 6,
            kill9s: 7,
            wal_records: 80,
            wal_fsyncs: 9,
            wal_replays: 2,
            wal_torn_bytes: 11,
            wal_snapshots: 1,
        }
    }

    #[test]
    fn wire_roundtrip() {
        let m = sample();
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(NodeMetrics::decode(&buf).unwrap(), m);
        // Strictness: trailing garbage rejected.
        buf.push(0);
        assert!(NodeMetrics::decode(&buf).is_err());
    }

    #[test]
    fn json_shape() {
        let doc = Json::parse(&sample().to_json().to_pretty()).expect("metrics parse");
        let num = |path: &[&str]| doc.at(path).and_then(Json::as_u64);
        assert_eq!(num(&["node"]), Some(3));
        assert_eq!(num(&["sent", "total"]), Some(10));
        assert_eq!(num(&["leases", "taken"]), Some(2));
        assert_eq!(num(&["leases", "granted"]), Some(1));
        let edge = &doc.get("edges").expect("edges").items()[1];
        let keys: Vec<&str> = edge.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["to", "probe", "response", "update", "release"]);
        assert_eq!(edge.get("to").and_then(Json::as_u64), Some(7));
        assert_eq!(edge.get("response").and_then(Json::as_u64), Some(2));
        for (group, want) in [
            (
                "faults",
                &[
                    ("reconnects", 1),
                    ("retransmits", 2),
                    ("dup_drops", 3),
                    ("timeouts", 4),
                    ("restarts", 5),
                    ("kill9s", 7),
                    ("backpressure_stalls", 6),
                ][..],
            ),
            (
                "wal",
                &[
                    ("records", 80),
                    ("fsyncs", 9),
                    ("replays", 2),
                    ("torn_bytes", 11),
                    ("snapshots", 1),
                ][..],
            ),
        ] {
            let got: Vec<(&str, u64)> = doc
                .get(group)
                .expect(group)
                .entries()
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_u64().expect("a count")))
                .collect();
            assert_eq!(got, want, "{group}");
        }
    }
}
