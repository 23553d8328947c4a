//! `BENCHMARK.json`, rendered from the registries so the file at the
//! root of the repository cannot drift from what the program prints
//! (`oat-benchmark contract` writes it; a test compares).

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::WORKLOADS;

/// Seconds one run measures for: as long as the driver's time limit for
/// all its runs (4 + 22 per gated workload, each with its set-ups) allows
/// with a quarter to spare, because a slow spell of a shared host lasts
/// up to a minute and a run has to see past it.
pub const RUN_SECONDS: u64 = 20;

/// The contract document.
pub fn benchmark_json() -> Json {
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| Json::obj().with("name", w.name).with("why", w.why))
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.name())
                .with("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Json> = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.name())
        })
        .collect();
    Json::obj()
        .with(
            "command",
            vec![Json::from("bash"), Json::from("benchmark/run.sh")],
        )
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_contract_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert!(
            Json::parse(&text).expect("BENCHMARK.json parses") == benchmark_json(),
            "BENCHMARK.json differs from the registries: regenerate it with \
             `benchmark/run.sh contract > BENCHMARK.json`"
        );
    }
}
