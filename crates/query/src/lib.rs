//! # oat-query — progressive online aggregation over a forest of trees
//!
//! The paper's mechanism answers one aggregate over one tree. Online
//! aggregation (Hellerstein et al.; DeepOLA for the modern treatment)
//! asks for something stronger: start answering *before* all the data
//! has arrived, and refine the answer continuously with an explicit
//! handle on how much of the input it reflects. This crate layers that
//! query model on top of the existing cluster runtime:
//!
//! * [`spec`] — declarative query specs:
//!   `agg(op) [group by key] [window last-N | tumbling(T)]`, where `op`
//!   is any of `sum`/`min`/`max`/`count` (all monoids the node automaton
//!   already aggregates),
//! * [`engine`] — the continuous-query engine. A `group by key` query
//!   instantiates a **forest**: one lazily-created tree per observed
//!   key, all multiplexed over the same nodes, reactors, and
//!   connections (tree ids ≥ 1; tree 0 stays the sim-parity pinned
//!   built-in). Facts are sharded across nodes as absolute-valued
//!   per-shard accumulators; every tree's written value is durable at
//!   its node, so finals stay exact across a crash or kill9 with
//!   nothing written twice,
//! * [`oracle`] — the sequential reference: the exact per-key,
//!   per-window aggregate a single fold over the fact stream produces.
//!   Engine finals must match it exactly at quiescence.
//!
//! `oat query --json` reports a [`QueryRun`] as the `oat-query-v1`
//! document (built in the CLI with `oat_obs::json`), and the benchmark's
//! `query-groupby` workload drives [`run`] directly.
//!
//! Every emitted partial carries freshness metadata: the count of
//! acknowledged writes it reflects (`last_write_seq`), the number of
//! still-outstanding writes (`staleness`), and the fraction of the
//! total stream already applied (`coverage`, monotone by construction
//! because the stream is pre-generated and acknowledgements only
//! accumulate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod oracle;
pub mod spec;

pub use engine::{run, PartialRecord, QueryRun, RefineStats};
pub use oracle::{oracle_finals, Final};
pub use spec::{OpKind, QuerySpec, WindowSpec};
