//! # online-aggregation-trees
//!
//! A complete, from-scratch implementation of **“Online Aggregation over
//! Trees”** (C. G. Plaxton, M. Tiwari, P. Yalagandula; IPPS 2007):
//! lease-based aggregation over tree networks, the online algorithm
//! **RWW**, the offline optima it competes against, the Figure-5 linear
//! program behind the 5/2-competitiveness proof, and the strict/causal
//! consistency machinery of Sections 3 and 5.
//!
//! ## Quick start
//!
//! ```
//! use oat::prelude::*;
//!
//! // An 8-node balanced binary tree computing a SUM aggregate with the
//! // paper's RWW lease policy.
//! let tree = Tree::kary(8, 2);
//! let mut sys = AggregationSystem::new(tree, SumI64, RwwSpec);
//!
//! sys.write(NodeId(5), 10);
//! sys.write(NodeId(2), 32);
//! assert_eq!(sys.read(NodeId(0)), 42);   // pulls via probe/response
//! assert_eq!(sys.read(NodeId(0)), 42);   // answered locally via leases
//!
//! // Message accounting, per the paper's cost model:
//! println!("messages: {}", sys.messages_sent());
//! ```
//!
//! ## Crate map
//!
//! * [`core`] — tree topology, `⊕` operators, the Figure-1
//!   mechanism, policies (RWW, `(a,b)`, push-all, pull-all),
//! * [`sim`] — deterministic simulator (sequential + concurrent
//!   executors, invariant checks),
//! * [`offline`] — Figure-2 cost model, OPT dynamic program,
//!   NOPT epoch bound, Theorem-3 adversary,
//! * [`lp`] — Figure-4 state machine, Figure-5 LP, simplex,
//! * [`consistency`] — strict and causal checkers,
//! * [`multi`] — SDIMS-style multi-attribute layer,
//! * [`modelcheck`] — exhaustive interleaving exploration,
//! * [`workloads`] — topology and request generators,
//! * [`concurrent`] — one-thread-per-node runtime,
//! * [`net`] — TCP cluster runtime (`oat serve` / `oat chaos`),
//! * [`query`] — progressive continuous queries over a forest of
//!   per-key trees (`oat query`),
//! * [`mlap`] — the second problem family: Multi-Level Aggregation
//!   with deadline and linear-delay cost models (`oat mlap`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use oat_concurrent as concurrent;
pub use oat_consistency as consistency;
pub use oat_core as core;
pub use oat_lp as lp;
pub use oat_mlap as mlap;
pub use oat_modelcheck as modelcheck;
pub use oat_multi as multi;
pub use oat_net as net;
pub use oat_offline as offline;
pub use oat_query as query;
pub use oat_sim as sim;
pub use oat_wal as wal;
pub use oat_workloads as workloads;

use oat_core::agg::AggOp;
use oat_core::mechanism::CombineOutcome;
use oat_core::policy::PolicySpec;
use oat_core::tree::{NodeId, Tree};
use oat_sim::{Engine, Schedule};

/// Everything needed for typical use, one `use` away.
pub mod prelude {
    pub use crate::AggregationSystem;
    pub use oat_core::agg::{AggOp, AvgI64, BoolOr, MaxI64, MeanValue, MinI64, SumF64, SumI64};
    pub use oat_core::policy::ab::AbSpec;
    pub use oat_core::policy::baseline::{AlwaysLeaseSpec, NeverLeaseSpec};
    pub use oat_core::policy::rww::RwwSpec;
    pub use oat_core::request::Request;
    pub use oat_core::tree::{NodeId, Tree};
    pub use oat_multi::MultiSystem;
}

/// A ready-to-use aggregation system: the Figure-1 mechanism over a tree,
/// with synchronous (sequential-execution) `read`/`write` operations.
///
/// This facade drives the deterministic simulator with the paper's
/// sequential semantics: every operation runs to quiescence before
/// returning, so reads are strictly consistent (Lemma 3.12). For
/// concurrent semantics, use [`oat_sim::concurrent`] or
/// [`oat_concurrent`] directly.
pub struct AggregationSystem<S: PolicySpec, A: AggOp> {
    engine: Engine<S, A>,
}

impl<S: PolicySpec, A: AggOp> AggregationSystem<S, A> {
    /// Builds a system over `tree` with aggregation operator `op` and
    /// lease policy `spec`.
    pub fn new(tree: Tree, op: A, spec: S) -> Self {
        AggregationSystem {
            engine: Engine::new(tree, op, &spec, Schedule::Fifo, false),
        }
    }

    /// Like [`AggregationSystem::new`] but with the Section-5 ghost logs
    /// enabled, so [`AggregationSystem::read_with_provenance`] works
    /// (costs memory proportional to the write history).
    pub fn with_provenance(tree: Tree, op: A, spec: S) -> Self {
        AggregationSystem {
            engine: Engine::new(tree, op, &spec, Schedule::Fifo, true),
        }
    }

    /// Pre-establishes all leases (Astrolabe-style warm start): every
    /// read is local from the start and every write is pushed everywhere.
    pub fn prewarm(&mut self) {
        self.engine.prewarm_leases();
    }

    /// Writes `value` as the local value of `node` and propagates along
    /// the current lease graph.
    pub fn write(&mut self, node: NodeId, value: A::Value) {
        self.engine.initiate_write(node, value);
        let done = self.engine.run_to_quiescence();
        debug_assert!(done.is_empty());
    }

    /// Returns the global aggregate value at `node` (a `combine`
    /// request), possibly setting leases along the way.
    pub fn read(&mut self, node: NodeId) -> A::Value {
        match self.engine.initiate_combine(node) {
            CombineOutcome::Done(v) => v,
            CombineOutcome::Pending => {
                let done = self.engine.run_to_quiescence();
                done.into_iter()
                    .find(|(n, _)| *n == node)
                    .expect("combine completes within its sequential execution")
                    .1
            }
            CombineOutcome::Coalesced => {
                unreachable!("sequential facade never overlaps requests")
            }
        }
    }

    /// A combine *with provenance* — the paper's `gather` request
    /// (Section 5): returns the aggregate plus, per node, the index of
    /// the most recent write reflected in it (`-1` = none). Requires
    /// [`AggregationSystem::with_provenance`].
    pub fn read_with_provenance(&mut self, node: NodeId) -> (A::Value, Vec<i64>) {
        let v = self.read(node);
        let ghost = self
            .engine
            .node(node)
            .ghost()
            .expect("provenance requires AggregationSystem::with_provenance");
        (v, ghost.recent_writes(self.engine.tree().len()))
    }

    /// Total messages exchanged so far (the paper's cost measure).
    pub fn messages_sent(&self) -> u64 {
        self.engine.stats().total()
    }

    /// The underlying engine, for statistics and invariant inspection.
    pub fn engine(&self) -> &Engine<S, A> {
        &self.engine
    }

    /// The tree topology.
    pub fn tree(&self) -> &Tree {
        self.engine.tree()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_roundtrip() {
        let mut sys = AggregationSystem::new(Tree::star(5), SumI64, RwwSpec);
        sys.write(NodeId(1), 3);
        sys.write(NodeId(2), 4);
        assert_eq!(sys.read(NodeId(3)), 7);
        let before = sys.messages_sent();
        assert_eq!(sys.read(NodeId(3)), 7);
        assert_eq!(sys.messages_sent(), before, "second read is lease-local");
    }

    #[test]
    fn facade_gather_provenance() {
        let mut sys = AggregationSystem::with_provenance(Tree::path(3), SumI64, RwwSpec);
        sys.write(NodeId(2), 5);
        sys.write(NodeId(2), 6);
        let (v, prov) = sys.read_with_provenance(NodeId(0));
        assert_eq!(v, 6);
        // Node 2's second write (index 1) is the most recent reflected;
        // nodes 0 and 1 never wrote.
        assert_eq!(prov, vec![-1, -1, 1]);
    }

    #[test]
    fn facade_with_min_operator() {
        let mut sys = AggregationSystem::new(Tree::path(4), MinI64, RwwSpec);
        sys.write(NodeId(0), 9);
        sys.write(NodeId(3), -2);
        assert_eq!(sys.read(NodeId(1)), -2);
    }

    #[test]
    fn facade_prewarm_reads_are_free() {
        let mut sys = AggregationSystem::new(Tree::kary(6, 2), SumI64, AlwaysLeaseSpec);
        sys.prewarm();
        assert_eq!(sys.read(NodeId(5)), 0);
        assert_eq!(sys.messages_sent(), 0);
        sys.write(NodeId(0), 5);
        assert!(sys.messages_sent() > 0, "write pushed updates");
        let m = sys.messages_sent();
        assert_eq!(sys.read(NodeId(5)), 5);
        assert_eq!(sys.messages_sent(), m);
    }
}
