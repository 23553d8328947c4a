//! The harness end to end, at quick size: a sequential run passes its
//! simulator-parity oracle and prints the driver's result shape, and a
//! traced run fills every per-layer metric its workload exercises and
//! writes its spans out.

use oat_benchmark::json::Json;
use oat_benchmark::metrics::{END_TO_END, PER_LAYER};
use oat_benchmark::runner::{self, RunOpts};
use oat_benchmark::workload;

fn opts(trace: bool) -> RunOpts {
    RunOpts {
        seed: 42,
        seconds: 20,
        trace,
        quick: true,
    }
}

#[test]
fn sequential_quick_run_is_correct_and_prints_the_result_shape() {
    let w = workload::by_name("seq-uniform").unwrap();
    let result = runner::run(w, &opts(false)).expect("quick seq-uniform runs");
    assert!(result.correct(), "{:?}", result.problems);
    assert!(result.attempted as usize >= result.count);

    let line = runner::result_line(&result, false);
    let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = line.get("metrics").unwrap();
    assert_eq!(metrics.entries().len(), END_TO_END.len());
    for m in &END_TO_END {
        let v = metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{} missing", m.name));
        assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
        let value = v.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite() && value > 0.0, "{} = {value}", m.name);
    }
    // The last line must survive a round trip through a JSON parser.
    assert_eq!(Json::parse(&line.to_line()).unwrap(), line);
}

#[test]
fn traced_quick_run_reports_every_per_layer_metric() {
    let w = workload::by_name("durable-mixed").unwrap();
    let result = runner::run(w, &opts(true)).expect("quick traced durable-mixed runs");
    assert!(result.correct(), "{:?}", result.problems);
    let line = runner::result_line(&result, true);
    let metrics = line.get("metrics").unwrap();
    assert_eq!(metrics.entries().len(), PER_LAYER.len());
    // Everything but the query engine's own counters and the
    // sequential-only quiesce wait is exercised by a durable pipelined
    // run, so it must have been measured, not defaulted.
    for m in PER_LAYER {
        let measured = result.per_layer.get(m.name).is_some();
        let not_exercised =
            m.name.starts_with("query.engine.") || m.name == "net.cluster.quiesce_wait_us";
        assert!(measured || not_exercised, "{} was not measured", m.name);
    }
    for name in [
        "net.durability.wal_records_per_req",
        "wal.append_ns",
        "poll.wakeup_rtt_ns",
    ] {
        assert!(result.per_layer.get(name).unwrap() > 0.0, "{name}");
    }

    // The client spans, kept in memory during the run, were written out:
    // at least one wait per request of the traced half, and submits.
    let path = result
        .spans_file
        .as_ref()
        .expect("a traced run names its spans file");
    let spans = std::fs::read_to_string(path).expect("the spans file exists");
    let _ = std::fs::remove_file(path);
    let mut lines = spans.lines();
    assert_eq!(lines.next(), Some("name\tlane\treq\tstart_ns\tdur_ns"));
    let (mut waits, mut submits) = (0, 0);
    for line in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), 5, "{line}");
        assert!(
            fields[1..].iter().all(|f| f.parse::<u64>().is_ok()),
            "{line}"
        );
        match fields[0] {
            "net.cluster.client_wait" => waits += 1,
            "net.cluster.client_submit" => submits += 1,
            other => panic!("unexpected span {other} on a pipelined run"),
        }
    }
    assert!(
        waits >= result.count / 2 && submits > 0,
        "{waits} waits, {submits} submits"
    );
}
