//! The progressive-query workload: `oat_query::run` of
//! `sum group by key window tumbling(100ms)` over a Zipf-keyed fact
//! stream — the only workload on the forest (`TAG_SUB` / `TAG_PARTIAL`)
//! path and the query engine's settlement pass.
//!
//! One run makes a warm-up query and then [`QUERY_REPEATS`] timed
//! queries, each on a fresh cluster (forest values persist in a
//! cluster, so a second query on the same one would read the first
//! one's shards). Every metric is the median over the timed queries.

use std::time::Instant;

use oat::core::request::Request;
use oat::core::tree::{NodeId, Tree};
use oat::net::DurabilityMode;
use oat::offline::opt_dp::opt_total_cost;
use oat::query::{QueryRun, QuerySpec};
use oat::workloads::Fact;

use crate::cluster::{self, NodeTotals, Retries};
use crate::gen::{self, SplitMix};
use crate::metrics::LayerValues;
use crate::proc_stat::ProcSample;
use crate::stats::{median, mid_band_mean, quantile_sorted, supported_quantile, tail_band_mean};
use crate::workload::{Workload, QUERY_KEYS, QUERY_NODES, QUERY_REPEATS};

/// The query every run executes.
pub const QUERY: &str = "sum group by key window tumbling(100ms)";

/// What one run of the query workload measured. The `Vec`s hold one
/// value per timed query.
#[derive(Debug, Default)]
pub struct QueryOutcome {
    /// Facts ingested (timed queries) plus finals checked.
    pub attempted: u64,
    /// Facts of queries that failed, plus finals that missed the oracle.
    pub failed: u64,
    /// Oracle violations and I/O problems.
    pub problems: Vec<String>,
    /// Seconds from the start of the run to the end of the warm-up query.
    pub setup_s: f64,
    /// Facts ÷ time to exact finals.
    pub facts_per_s: Vec<f64>,
    /// Median over keys of the time to the key's first partial, ms.
    pub first_partial_p50_ms: Vec<f64>,
    /// Time between two consecutive facts entering the engine, µs: the
    /// p50 region, smoothed like the cluster workloads' latency.
    pub step_mid_us: Vec<f64>,
    /// The p99 region of that time, smoothed, µs.
    pub step_tail_us: Vec<f64>,
    /// Forest messages per fact, all timed queries.
    pub msgs_per_fact: f64,
    /// Those messages ÷ the offline optimum of the reference placement.
    pub ratio_vs_opt: f64,
    /// Per-layer values (traced runs).
    pub layer: LayerValues,
    /// What the nodes retried, all queries (for the overload guard).
    pub retries: Retries,
}

/// The offline optimum for ingesting `facts` one tree per key, the
/// key's facts placed round-robin over the nodes from offset `key`
/// (the placement the engine documents), with a read at the root — the
/// subscriber — after every fact.
pub fn reference_opt(tree: &Tree, facts: &[Fact]) -> u64 {
    let n = tree.len() as u64;
    let mut per_key: std::collections::BTreeMap<u32, Vec<Request<i64>>> = Default::default();
    for f in facts {
        let seq = per_key.entry(f.key).or_default();
        let placed = (seq.len() / 2) as u64;
        let node = NodeId(((u64::from(f.key) + placed) % n) as u32);
        seq.push(Request::write(node, f.val));
        seq.push(Request::combine(NodeId(0)));
    }
    per_key.values().map(|seq| opt_total_cost(tree, seq)).sum()
}

/// Wall-clock ms at which the engine had accepted its `i`-th fact, read
/// off the partials (each carries the acked and outstanding write counts
/// at emission); then the gaps between consecutive facts, in ns.
fn fact_steps_ns(run: &QueryRun) -> Vec<u64> {
    let mut first_seen: Vec<(u64, f64)> = Vec::new();
    for p in &run.partials {
        let submitted = p.last_write_seq + p.staleness;
        if first_seen.last().is_none_or(|(s, _)| *s < submitted) {
            first_seen.push((submitted, p.wall_ms));
        }
    }
    first_seen
        .windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1)
        .map(|w| ((w[1].1 - w[0].1) * 1e6).max(0.0) as u64)
        .collect()
}

/// One query on a fresh cluster: its result and the nodes' counters.
fn one_query(
    workload: &Workload,
    tree: &Tree,
    spec: &QuerySpec,
    facts: &[Fact],
) -> Result<(std::io::Result<QueryRun>, NodeTotals), String> {
    let cluster = cluster::spawn(tree, workload.transport, DurabilityMode::Memory)?;
    let result = oat::query::run(&cluster, spec, facts);
    cluster.quiesce();
    let totals = NodeTotals::read(&cluster)?;
    cluster.shutdown();
    Ok((result, totals))
}

/// Runs the query workload once: `count` timed facts in
/// [`QUERY_REPEATS`] queries after one warm-up query of the same size.
pub fn run(
    workload: &Workload,
    count: usize,
    seed: u64,
    traced: bool,
) -> Result<QueryOutcome, String> {
    let t0 = Instant::now();
    let spec: QuerySpec = QUERY
        .parse()
        .map_err(|e: String| format!("query spec: {e}"))?;
    let tree = Tree::kary(QUERY_NODES, 2);
    let per_query = count / QUERY_REPEATS;

    // Inputs and oracles for every query, warm-up first.
    let mut seeds = SplitMix::new(seed);
    let streams: Vec<Vec<Fact>> = (0..=QUERY_REPEATS)
        .map(|_| gen::fact_stream(per_query, QUERY_KEYS, seeds.next_u64()))
        .collect();
    let opt: u64 = streams[1..].iter().map(|f| reference_opt(&tree, f)).sum();

    let mut out = QueryOutcome::default();
    let mut msgs = 0u64;
    let mut staleness: Vec<u64> = Vec::new();
    let mut gaps_ns: Vec<u64> = Vec::new();
    let mut steps_ns: Vec<u64> = Vec::new();
    let (mut partials, mut pushes, mut t95) = (0u64, 0u64, Vec::new());
    let mut proc_before = None;
    for (i, facts) in streams.iter().enumerate() {
        let timed = i > 0;
        if i == 1 {
            out.setup_s = t0.elapsed().as_secs_f64();
            if traced {
                oat_obs::install(oat_obs::DEFAULT_RING_CAPACITY);
                proc_before = Some(ProcSample::now());
            }
        }
        let (result, totals) = one_query(workload, &tree, &spec, facts)?;
        out.retries.absorb(totals.retries());
        if !timed {
            if let Err(e) = result {
                return Err(format!("warm-up query: {e}"));
            }
            continue;
        }
        out.attempted += facts.len() as u64;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                out.failed += facts.len() as u64;
                out.problems.push(format!("query {i}: {e}"));
                continue;
            }
        };
        out.attempted += run.finals.len() as u64;
        if !run.matches_oracle(facts) {
            out.failed += run.finals.len() as u64;
            out.problems.push(format!(
                "query {i}: finals differ from the sequential oracle"
            ));
        }
        if !run.coverage_monotone() {
            out.problems.push(format!("query {i}: coverage went down"));
        }
        if !run.refine_seq_monotone() {
            out.problems
                .push(format!("query {i}: a key's refine_seq did not increase"));
        }
        msgs += totals.sent_total();
        out.facts_per_s
            .push(facts.len() as f64 / (run.stats.elapsed_ms / 1e3));
        out.first_partial_p50_ms
            .push(run.stats.first_partial_p50_ms);
        let mut steps = fact_steps_ns(&run);
        steps.sort_unstable();
        if let (Some(mid), Some(tail)) = (mid_band_mean(&steps), tail_band_mean(&steps)) {
            out.step_mid_us.push(mid / 1e3);
            out.step_tail_us.push(tail / 1e3);
        }
        if traced {
            steps_ns.extend(&steps);
            partials += run.stats.partials_total;
            pushes += run.stats.pushes_rx;
            t95.extend(run.stats.t95_coverage_ms);
            staleness.extend(run.partials.iter().map(|p| p.staleness));
            gaps_ns.extend(
                run.partials
                    .windows(2)
                    .map(|w| ((w[1].wall_ms - w[0].wall_ms) * 1e6).max(0.0) as u64),
            );
        }
    }
    let facts_total = (per_query * QUERY_REPEATS).max(1) as f64;
    out.msgs_per_fact = msgs as f64 / facts_total;
    out.ratio_vs_opt = msgs as f64 / opt.max(1) as f64;

    if let Some(before) = proc_before {
        let after = ProcSample::now();
        oat_obs::disable();
        let trace = oat_obs::drain();
        staleness.sort_unstable();
        gaps_ns.sort_unstable();
        steps_ns.sort_unstable();
        let v = &mut out.layer;
        cluster::trace_layer_values(&trace, v);
        let step_us = |q| quantile_sorted(&steps_ns, q).unwrap_or(0) as f64 / 1e3;
        v.set("net.cluster.lat_p50_us", step_us(0.5));
        v.set(
            "net.cluster.lat_p99_us",
            step_us(supported_quantile(steps_ns.len(), 0.99)),
        );
        v.set("net.node.msgs_per_req", out.msgs_per_fact);
        v.set(
            "query.engine.partials_per_fact",
            partials as f64 / facts_total,
        );
        v.set("query.engine.pushes_rx", pushes as f64);
        v.set(
            "query.engine.staleness_p50",
            quantile_sorted(&staleness, 0.5).unwrap_or(0) as f64,
        );
        v.set("query.engine.t95_coverage_ms", median(&t95).unwrap_or(0.0));
        v.set(
            "query.engine.refine_gap_p99_ms",
            quantile_sorted(&gaps_ns, supported_quantile(gaps_ns.len(), 0.99)).unwrap_or(0) as f64
                / 1e6,
        );
        v.set(
            "proc.cpu_us_per_req",
            after.cpu_us_since(&before) / facts_total,
        );
        v.set(
            "proc.ctx_switches_per_req",
            after.ctx_switches_since(&before) as f64 / facts_total,
        );
        v.set("proc.rss_peak_mb", after.rss_peak_mb);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_opt_counts_every_key_tree() {
        let tree = Tree::kary(QUERY_NODES, 2);
        let facts = gen::fact_stream(200, QUERY_KEYS, 42);
        let all = reference_opt(&tree, &facts);
        let key0: Vec<Fact> = facts.iter().copied().filter(|f| f.key == 0).collect();
        let rest: Vec<Fact> = facts.iter().copied().filter(|f| f.key != 0).collect();
        assert!(all > 0);
        assert_eq!(
            all,
            reference_opt(&tree, &key0) + reference_opt(&tree, &rest)
        );
    }
}
