//! The stable `oat-query-v1` report schema.
//!
//! Hand-rolled like the other JSON emitters (no serde in the offline
//! image). The document is the `oat query --json` CLI output, and the CI
//! query smoke greps its schema tag and verdict fields, so field names
//! here are pinned — add fields, never rename.

use crate::engine::QueryRun;
use oat_workloads::facts::Fact;

/// Schema tag for the query report document.
pub const QUERY_SCHEMA: &str = "oat-query-v1";

/// Run parameters echoed into the report.
#[derive(Clone, Debug)]
pub struct ReportMeta<'a> {
    /// Fact-stream generator name (`uniform` / `zipf` / `phases`).
    pub stream: &'a str,
    /// Stream seed.
    pub seed: u64,
    /// Number of distinct keys in the stream.
    pub keys: u32,
    /// Transport name (`tcp` / `uds` / `ring`).
    pub transport: &'a str,
    /// Tree spec string.
    pub tree: &'a str,
    /// Policy spec string.
    pub policy: &'a str,
}

fn opt_ms(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "null".to_string(),
    }
}

/// Renders the full `oat-query-v1` document: spec echo, verdicts
/// (oracle match, monotonicity), refinement-latency stats, finals with
/// their oracle values, and the complete partial sequence.
pub fn report_json(run: &QueryRun, facts: &[Fact], meta: &ReportMeta<'_>) -> String {
    let oracle = crate::oracle::oracle_finals(&run.spec, facts);
    let mut finals = String::from("[");
    let mut sorted = run.finals.clone();
    sorted.sort_by_key(|f| (f.key, f.window));
    for (i, f) in sorted.iter().enumerate() {
        if i > 0 {
            finals.push_str(", ");
        }
        let want = oracle
            .iter()
            .find(|o| o.key == f.key && o.window == f.window)
            .map(|o| o.value.to_string())
            .unwrap_or_else(|| "null".to_string());
        finals.push_str(&format!(
            "{{\"key\": {}, \"window\": {}, \"value\": {}, \"oracle\": {}}}",
            f.key, f.window, f.value, want
        ));
    }
    finals.push(']');
    let mut partials = String::from("[");
    for (i, p) in run.partials.iter().enumerate() {
        if i > 0 {
            partials.push_str(", ");
        }
        partials.push_str(&format!(
            "{{\"key\": {}, \"window\": {}, \"refine_seq\": {}, \"value\": {}, \"coverage\": {:.6}, \"last_write_seq\": {}, \"staleness\": {}, \"at_ms\": {}, \"wall_ms\": {:.3}, \"final\": {}}}",
            p.key,
            p.window,
            p.refine_seq,
            p.value,
            p.coverage,
            p.last_write_seq,
            p.staleness,
            p.at_ms,
            p.wall_ms,
            p.is_final
        ));
    }
    partials.push(']');
    format!(
        "{{\n  \"schema\": \"{QUERY_SCHEMA}\",\n  \"spec\": \"{}\",\n  \"config\": {{\"stream\": \"{}\", \"facts\": {}, \"keys\": {}, \"seed\": {}, \"transport\": \"{}\", \"tree\": \"{}\", \"policy\": \"{}\"}},\n  \"oracle_match\": {},\n  \"coverage_monotone\": {},\n  \"refine_seq_monotone\": {},\n  \"min_partials_per_key\": {},\n  \"refinement\": {{\"elapsed_ms\": {:.3}, \"first_partial_p50_ms\": {:.3}, \"first_partial_p99_ms\": {:.3}, \"t95_coverage_ms\": {}, \"partials_total\": {}, \"pushes_rx\": {}}},\n  \"finals\": {},\n  \"partials\": {}\n}}",
        run.spec,
        meta.stream,
        facts.len(),
        meta.keys,
        meta.seed,
        meta.transport,
        meta.tree,
        meta.policy,
        run.matches_oracle(facts),
        run.coverage_monotone(),
        run.refine_seq_monotone(),
        run.min_partials_per_key(),
        run.stats.elapsed_ms,
        run.stats.first_partial_p50_ms,
        run.stats.first_partial_p99_ms,
        opt_ms(run.stats.t95_coverage_ms),
        run.stats.partials_total,
        run.stats.pushes_rx,
        finals,
        partials,
    )
}
