//! Message accounting.
//!
//! The paper's cost measure is the total number of messages exchanged
//! (Section 2); the competitive analysis decomposes it per ordered pair of
//! neighbours (Lemma 3.9): `C(σ, u, v)` counts probes `v→u`, responses
//! `u→v`, updates `u→v`, and releases `v→u`. [`MsgStats`] keeps a counter
//! per `(directed edge, message kind)` so both the global total and every
//! `C(σ, u, v)` can be read off after a run.

use oat_core::message::MsgKind;
use oat_core::tree::{NodeId, Tree};
use oat_obs::Json;

/// Per-directed-edge, per-kind message counters.
#[derive(Clone, Debug)]
pub struct MsgStats {
    per_edge: Vec<[u64; 4]>,
}

impl MsgStats {
    /// Zeroed counters for a tree.
    pub fn new(tree: &Tree) -> Self {
        MsgStats {
            per_edge: vec![[0; 4]; tree.num_dir_edges()],
        }
    }

    /// Records one message sent over the directed edge with dense index
    /// `edge`.
    #[inline]
    pub fn record(&mut self, edge: usize, kind: MsgKind) {
        self.per_edge[edge][kind.index()] += 1;
    }

    /// Adds `count` messages of `kind` on directed edge `edge` — for
    /// rebuilding counters from a remote node's metrics snapshot.
    #[inline]
    pub fn add(&mut self, edge: usize, kind: MsgKind, count: u64) {
        self.per_edge[edge][kind.index()] += count;
    }

    /// Raw per-directed-edge counters, indexed by dense directed-edge
    /// index, kinds in [`MsgKind::ALL`] order.
    pub fn per_edge_counts(&self) -> &[[u64; 4]] {
        &self.per_edge
    }

    /// Total messages of all kinds.
    pub fn total(&self) -> u64 {
        self.per_edge.iter().flatten().sum()
    }

    /// Total messages of one kind.
    pub fn total_kind(&self, kind: MsgKind) -> u64 {
        self.per_edge.iter().map(|c| c[kind.index()]).sum()
    }

    /// The ordered-pair cost `C(σ, u, v)` of Lemma 3.9: probes `v→u`,
    /// responses `u→v`, updates `u→v`, releases `v→u`.
    pub fn pair_cost(&self, tree: &Tree, u: NodeId, v: NodeId) -> u64 {
        let vu = tree.dir_edge_index(v, u);
        let uv = tree.dir_edge_index(u, v);
        self.per_edge[vu][MsgKind::Probe.index()]
            + self.per_edge[uv][MsgKind::Response.index()]
            + self.per_edge[uv][MsgKind::Update.index()]
            + self.per_edge[vu][MsgKind::Release.index()]
    }

    /// Messages crossing the undirected edge `{u, v}` in either direction.
    pub fn edge_total(&self, tree: &Tree, u: NodeId, v: NodeId) -> u64 {
        let uv = tree.dir_edge_index(u, v);
        let vu = tree.dir_edge_index(v, u);
        self.per_edge[uv].iter().sum::<u64>() + self.per_edge[vu].iter().sum::<u64>()
    }

    /// Adds every counter of `other` into `self`. Used by the TCP runtime,
    /// where each node thread records only its own sends and the cluster
    /// merges the per-node counters into one simulator-comparable view.
    pub fn merge(&mut self, other: &MsgStats) {
        assert_eq!(
            self.per_edge.len(),
            other.per_edge.len(),
            "merging stats from different trees"
        );
        for (mine, theirs) in self.per_edge.iter_mut().zip(&other.per_edge) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    /// Totals per kind, in [`MsgKind::ALL`] order.
    pub fn kind_totals(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for counters in &self.per_edge {
            for (o, c) in out.iter_mut().zip(counters) {
                *o += c;
            }
        }
        out
    }

    /// The `stats` document: totals, then every directed edge's
    /// per-kind counts — Lemma 3.9's cost split.
    ///
    /// Shared by `oat-sim` and `oat-net`, so a simulator run and a live
    /// cluster's `oat serve stats` compare field for field. Edges appear
    /// in dense directed-edge-index order, kinds in [`MsgKind::ALL`]
    /// order, zero counters included.
    pub fn to_json(&self, tree: &Tree) -> Json {
        let edges = self.per_edge.iter().enumerate().map(|(i, counts)| {
            let (from, to) = tree.dir_edge(i);
            with_kind_counts(Json::obj().with("from", from.0).with("to", to.0), counts)
        });
        Json::obj()
            .with("total", self.total())
            .with(
                "by_kind",
                with_kind_counts(Json::obj(), &self.kind_totals()),
            )
            .with("edges", edges.collect::<Vec<_>>())
    }
}

/// Appends one `kind: count` field per [`MsgKind::ALL`] kind to `obj`.
pub fn with_kind_counts(obj: Json, counts: &[u64; 4]) -> Json {
    MsgKind::ALL
        .iter()
        .zip(counts)
        .fold(obj, |o, (kind, &c)| o.with(kind.name(), c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_cost_decomposition_matches_edge_total() {
        // Lemma 3.9: messages over {u,v} = C(σ,u,v) + C(σ,v,u).
        let tree = Tree::path(3);
        let mut s = MsgStats::new(&tree);
        let u = NodeId(0);
        let v = NodeId(1);
        s.record(tree.dir_edge_index(v, u), MsgKind::Probe);
        s.record(tree.dir_edge_index(u, v), MsgKind::Response);
        s.record(tree.dir_edge_index(u, v), MsgKind::Update);
        s.record(tree.dir_edge_index(v, u), MsgKind::Release);
        s.record(tree.dir_edge_index(u, v), MsgKind::Probe);
        s.record(tree.dir_edge_index(v, u), MsgKind::Response);
        assert_eq!(s.pair_cost(&tree, u, v), 4);
        assert_eq!(s.pair_cost(&tree, v, u), 2);
        assert_eq!(s.edge_total(&tree, u, v), 6);
        assert_eq!(
            s.pair_cost(&tree, u, v) + s.pair_cost(&tree, v, u),
            s.edge_total(&tree, u, v)
        );
        assert_eq!(s.total(), 6);
        assert_eq!(s.total_kind(MsgKind::Probe), 2);
    }

    #[test]
    fn merge_adds_counters() {
        let tree = Tree::path(3);
        let mut a = MsgStats::new(&tree);
        let mut b = MsgStats::new(&tree);
        a.record(0, MsgKind::Probe);
        b.record(0, MsgKind::Probe);
        b.record(1, MsgKind::Update);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.total_kind(MsgKind::Probe), 2);
        assert_eq!(a.kind_totals(), [2, 0, 1, 0]);
    }

    #[test]
    fn json_export_is_complete_and_deterministic() {
        let tree = Tree::path(2);
        let mut s = MsgStats::new(&tree);
        s.record(tree.dir_edge_index(NodeId(1), NodeId(0)), MsgKind::Probe);
        s.record(tree.dir_edge_index(NodeId(0), NodeId(1)), MsgKind::Response);
        let text = s.to_json(&tree).to_pretty();
        let doc = Json::parse(&text).expect("stats parse");
        assert_eq!(doc.get("total").and_then(Json::as_u64), Some(2));
        let by_kind: Vec<(&str, u64)> = doc
            .get("by_kind")
            .expect("by_kind")
            .entries()
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_u64().expect("a count")))
            .collect();
        assert_eq!(
            by_kind,
            [("probe", 1), ("response", 1), ("update", 0), ("release", 0)]
        );
        // Both directed edges appear, even the all-zero counters.
        let ends: Vec<(u64, u64)> = doc
            .get("edges")
            .expect("edges")
            .items()
            .iter()
            .map(|e| {
                (
                    e.get("from").and_then(Json::as_u64).unwrap(),
                    e.get("to").and_then(Json::as_u64).unwrap(),
                )
            })
            .collect();
        assert_eq!(ends.len(), 2);
        assert!(ends.contains(&(0, 1)) && ends.contains(&(1, 0)));
        assert_eq!(text, s.to_json(&tree).to_pretty());
    }
}
