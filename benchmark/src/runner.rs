//! Runs one workload in this process and renders its result: the
//! one-line result object the driver reads, and a detail object with
//! spreads, configuration and anything an oracle objected to.

use std::path::{Path, PathBuf};

use crate::cluster::{self, ClusterOutcome, ClusterRun, Retries};
use crate::gen::SplitMix;
use crate::json::Json;
use crate::lane::Span;
use crate::metrics::{self, LayerValues, END_TO_END, PER_LAYER};
use crate::query::{self, QueryOutcome};
use crate::stats::Spread;
use crate::workload::{Drive, Workload, QUERY_REPEATS, REACTOR_THREADS, ROUNDS};
use crate::{micro, stats};

/// Options of one run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed part is sized for.
    pub seconds: u64,
    /// Traced pass (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// 1/20 size, all oracles on.
    pub quick: bool,
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What the oracles and the I/O layer objected to (empty = correct).
    pub problems: Vec<String>,
    /// What the nodes retried over the whole run. A storm is one of
    /// the `problems`; anything less is printed and kept.
    pub retries: Retries,
    /// The CPU the run pinned itself and its threads to (`None`: the
    /// kernel refused and the run floated).
    pub pinned_cpu: Option<usize>,
    /// End-to-end metrics (untraced runs): one spread per name.
    pub end_to_end: Vec<(&'static str, Spread)>,
    /// Per-layer metrics (traced runs).
    pub per_layer: LayerValues,
    /// Requests (or facts) in the run.
    pub count: usize,
    /// How long the discarded warm-ups took (cluster workloads; median
    /// over rounds). Informational: in no metric.
    pub warmup_s: Option<Spread>,
    /// Where the client spans of a traced cluster run were written.
    pub spans_file: Option<PathBuf>,
}

impl RunResult {
    fn empty(count: usize) -> RunResult {
        RunResult {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            retries: Retries::default(),
            pinned_cpu: None,
            end_to_end: Vec::new(),
            per_layer: LayerValues::default(),
            count,
            warmup_s: None,
            spans_file: None,
        }
    }

    /// Every output matched its oracle and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn spread_or_problem(
    name: &'static str,
    spread: Option<Spread>,
    problems: &mut Vec<String>,
) -> (&'static str, Spread) {
    let spread = spread.filter(|s| s.value.is_finite() && s.value > 0.0);
    if spread.is_none() {
        problems.push(format!("{name}: nothing measured"));
    }
    (name, spread.unwrap_or(Spread::exact(0.0)))
}

/// The rounds of one cluster measurement, in order.
#[derive(Debug, Default)]
struct Measured(Vec<ClusterOutcome>);

impl Measured {
    /// A per-slice series of the named metric, pooled over the rounds.
    fn pooled(&self, metric: &str, series: fn(&ClusterOutcome) -> &[f64]) -> Option<Spread> {
        let rounds: Vec<&[f64]> = self.0.iter().map(series).collect();
        Spread::of_slices(&rounds, metrics::end_to_end(metric)?.better)
    }

    /// One value per round.
    fn per_round(&self, value: fn(&ClusterOutcome) -> f64) -> Option<Spread> {
        Spread::of(&self.0.iter().map(value).collect::<Vec<_>>())
    }

    /// Moves the rounds' counts and complaints into `result`.
    fn absorb_into(self, result: &mut RunResult) {
        for o in self.0 {
            result.attempted += o.attempted;
            result.failed += o.failed;
            result.problems.extend(o.problems);
            result.retries.absorb(o.retries);
        }
    }
}

/// Measures `workload` in `rounds` rounds of `count / rounds` requests,
/// each a fresh cluster with its own request stream.
fn measure_cluster(
    workload: &Workload,
    count: usize,
    rounds: usize,
    seed: u64,
    traced: bool,
    tmp: &Path,
) -> Result<Measured, String> {
    let mut seeds = SplitMix::new(seed);
    (0..rounds)
        .map(|_| {
            cluster::run(&ClusterRun {
                workload,
                count: count / rounds,
                seed: seeds.next_u64(),
                traced,
                tmp,
            })
        })
        .collect::<Result<_, _>>()
        .map(Measured)
}

/// Where an end-to-end metric of a cluster workload comes from.
enum Series {
    /// A value per slice: a timing, read off the pooled slices.
    Slices(fn(&ClusterOutcome) -> &[f64]),
    /// A value per round: a count or a set-up time.
    Rounds(fn(&ClusterOutcome) -> f64),
}

fn cluster_end_to_end(m: &Measured, problems: &mut Vec<String>) -> Vec<(&'static str, Spread)> {
    use Series::{Rounds, Slices};
    let series: [(&'static str, Series); 8] = [
        ("req_per_s", Slices(|o| &o.req_per_s)),
        ("lat_p50_us", Slices(|o| &o.lat_mid_us)),
        ("lat_p99_us", Slices(|o| &o.lat_tail_us)),
        ("msgs_per_req", Rounds(|o| o.msgs_per_req)),
        ("ratio_vs_opt", Rounds(|o| o.ratio_vs_opt)),
        ("facts_per_s", Slices(|o| &o.writes_per_s)),
        ("first_partial_p50_ms", Slices(|o| &o.combine_mean_ms)),
        ("setup_s", Rounds(|o| o.setup_s)),
    ];
    series
        .into_iter()
        .map(|(name, series)| {
            let spread = match series {
                Slices(of) => m.pooled(name, of),
                Rounds(of) => m.per_round(of),
            };
            spread_or_problem(name, spread, problems)
        })
        .collect()
}

fn query_end_to_end(o: &QueryOutcome, problems: &mut Vec<String>) -> Vec<(&'static str, Spread)> {
    // (name, one value per query or one for the run, is a timing)
    let series: [(&'static str, &[f64], bool); 8] = [
        ("req_per_s", &o.facts_per_s, true),
        ("lat_p50_us", &o.step_mid_us, true),
        ("lat_p99_us", &o.step_tail_us, true),
        ("msgs_per_req", &[o.msgs_per_fact], false),
        ("ratio_vs_opt", &[o.ratio_vs_opt], false),
        ("facts_per_s", &o.facts_per_s, true),
        ("first_partial_p50_ms", &o.first_partial_p50_ms, true),
        ("setup_s", &[o.setup_s], false),
    ];
    series
        .into_iter()
        .map(|(name, values, timing)| {
            let spread = if timing {
                // Read like a cluster workload's, each query (a fresh
                // cluster) standing for a round of one slice.
                let rounds: Vec<&[f64]> = values.chunks(1).collect();
                metrics::end_to_end(name).and_then(|m| Spread::of_slices(&rounds, m.better))
            } else {
                Spread::of(values)
            };
            spread_or_problem(name, spread, problems)
        })
        .collect()
}

/// Runs `workload` once under `opts`, on one CPU
/// ([`crate::proc_stat::pin_to_one_cpu`]). Scratch files (WAL
/// directories, the spans of a traced run) go under
/// `std::env::temp_dir()`, which `run.sh` points into the build
/// directory.
///
/// Untraced: the full count, giving the end-to-end metrics. Traced: the
/// micro sections, then the workload twice at half the count — tracing
/// off, then on — so the per-layer figures come with the overhead
/// tracing added to this very run.
pub fn run(workload: &'static Workload, opts: &RunOpts) -> Result<RunResult, String> {
    let tmp = std::env::temp_dir();
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let mut result = RunResult::empty(workload.count(opts.seconds, opts.quick));
    result.pinned_cpu = crate::proc_stat::pin_to_one_cpu();
    if opts.trace {
        run_traced(workload, opts, &tmp, &mut result)?;
    } else {
        result.end_to_end = match workload.drive {
            Drive::Query => {
                let o = query::run(workload, result.count, opts.seed, false)?;
                let e2e = query_end_to_end(&o, &mut result.problems);
                absorb_query(&mut result, o);
                e2e
            }
            _ => {
                let m = measure_cluster(workload, result.count, ROUNDS, opts.seed, false, &tmp)?;
                let e2e = cluster_end_to_end(&m, &mut result.problems);
                result.warmup_s = m.per_round(|o| o.warmup_s);
                m.absorb_into(&mut result);
                e2e
            }
        };
    }
    result.problems.extend(result.retries.storm());
    Ok(result)
}

fn run_traced(
    workload: &'static Workload,
    opts: &RunOpts,
    tmp: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    result.per_layer = micro::run_all(opts.seed, tmp)?;
    let half = result.count / 2;
    let (plain_rate, traced_rate) = match workload.drive {
        Drive::Query => {
            let half = (half / QUERY_REPEATS).max(1) * QUERY_REPEATS;
            let plain = query::run(workload, half, opts.seed, false)?;
            let traced = query::run(workload, half, opts.seed, true)?;
            result.per_layer.merge(&traced.layer);
            let rates = (
                stats::median(&plain.facts_per_s),
                stats::median(&traced.facts_per_s),
            );
            absorb_query(result, plain);
            absorb_query(result, traced);
            rates
        }
        _ => {
            let plain = measure_cluster(workload, half, 1, opts.seed, false, tmp)?;
            let traced = measure_cluster(workload, half, 1, opts.seed, true, tmp)?;
            let path = tmp.join(format!("spans-{}.tsv", workload.name));
            for o in &traced.0 {
                result.per_layer.merge(&o.layer);
                write_spans(&path, &o.spans)?;
            }
            result.spans_file = Some(path);
            // Both halves through the same estimator as the untraced pass.
            let rate = |m: &Measured| m.pooled("req_per_s", |o| &o.req_per_s).map(|s| s.value);
            let rates = (rate(&plain), rate(&traced));
            plain.absorb_into(result);
            traced.absorb_into(result);
            rates
        }
    };
    match (plain_rate, traced_rate) {
        (Some(plain), Some(traced)) if plain > 0.0 => result
            .per_layer
            .set("obs.trace_overhead_pct", (plain - traced) / plain * 100.0),
        _ => result
            .problems
            .push("obs.trace_overhead_pct: a half measured nothing".into()),
    }
    Ok(())
}

fn absorb_query(result: &mut RunResult, o: QueryOutcome) {
    result.attempted += o.attempted;
    result.failed += o.failed;
    result.problems.extend(o.problems);
    result.retries.absorb(o.retries);
}

/// Writes the client spans of a traced round, kept in memory until now,
/// one per line: name, lane, request (the spans of one request share it;
/// the request is their cause), start and duration in ns.
fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    use std::io::Write;
    let write = || -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tlane\treq\tstart_ns\tdur_ns")?;
        for s in spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                s.lane,
                s.req,
                s.start_ns,
                s.dur_ns
            )?;
        }
        w.flush()
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}

/// `{"value": .., "unit": ..}`: how the driver wants a metric.
fn reading(value: impl Into<Json>, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

fn strings(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

/// The object the driver reads from the last line of standard output:
/// exactly `correct`, `attempted`, `failed`, `metrics`; the metrics are
/// every end-to-end metric (untraced) or every per-layer metric
/// (traced; one a workload does not exercise reads 0).
pub fn result_line(result: &RunResult, trace: bool) -> Json {
    let mut metrics = Json::obj();
    if trace {
        for m in PER_LAYER {
            let value = result.per_layer.get(m.name).unwrap_or(0.0);
            metrics.set(m.name, reading(value, m.unit));
        }
    } else {
        for m in &END_TO_END {
            let value = result
                .end_to_end
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, s)| s.value);
            metrics.set(m.name, reading(value, m.unit));
        }
    }
    Json::obj()
        .with("correct", result.correct())
        .with("attempted", result.attempted.max(1))
        .with("failed", result.failed)
        .with("metrics", metrics)
}

/// Everything else worth keeping from a run: the spreads behind the
/// medians, what was run, and what (if anything) went wrong.
pub fn detail(result: &RunResult, workload: &Workload, opts: &RunOpts) -> Json {
    let mut e2e = Json::obj();
    for (name, s) in &result.end_to_end {
        let unit = crate::metrics::end_to_end(name).map_or("", |m| m.unit);
        e2e.set(
            name,
            reading(s.value, unit)
                .with("median", s.median)
                .with("iqr", s.iqr)
                .with("n", s.n)
                .with("round_iqr", s.round_iqr),
        );
    }
    let mut layers = Json::obj();
    if opts.trace {
        for m in PER_LAYER {
            layers.set(
                m.name,
                match result.per_layer.get(m.name) {
                    Some(value) => reading(value, m.unit),
                    None => {
                        reading(Json::Null, m.unit).with("reason", "not exercised by this workload")
                    }
                },
            );
        }
    }
    Json::obj()
        .with("workload", workload.name)
        .with("why", workload.why)
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("quick", opts.quick)
        .with("trace", opts.trace)
        .with("count", result.count)
        .with("correct", result.correct())
        .with("ops_attempted", result.attempted)
        .with("ops_failed", result.failed)
        .with("problems", strings(&result.problems))
        .with(
            "retries",
            Json::obj()
                .with("retransmits", result.retries.retransmits)
                .with("rto_timeouts", result.retries.rto_timeouts)
                .with("dup_drops", result.retries.dup_drops)
                .with("reconnects", result.retries.reconnects)
                .with("frames_sent", result.retries.frames_sent),
        )
        .with(
            "config",
            Json::obj()
                .with(
                    "nproc",
                    std::thread::available_parallelism().map_or(0, |p| p.get()),
                )
                .with(
                    "pinned_cpu",
                    result
                        .pinned_cpu
                        .map_or(Json::Null, |cpu| Json::from(cpu as u64)),
                )
                .with("reactor_threads", REACTOR_THREADS)
                .with("generator_threads", workload.generators())
                .with("transport", workload.transport.name())
                .with("durability", if workload.wal { "wal:8" } else { "memory" })
                .with("loop", "closed"),
        )
        .with(
            "warmup_s",
            result.warmup_s.map_or(Json::Null, |s| {
                Json::obj().with("value", s.median).with("iqr", s.iqr)
            }),
        )
        .with(
            "spans_file",
            result
                .spans_file
                .as_ref()
                .map_or(Json::Null, |p| Json::Str(p.display().to_string())),
        )
        .with("end_to_end", e2e)
        .with("per_layer", layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round of 100 requests (plus the two final combines) whose
    /// slices ran at `rates` requests per second.
    fn round(rates: &[f64], retransmits: u64) -> ClusterOutcome {
        ClusterOutcome {
            attempted: 102,
            retries: Retries {
                retransmits,
                frames_sent: 250,
                ..Retries::default()
            },
            setup_s: 0.2,
            req_per_s: rates.to_vec(),
            writes_per_s: rates.iter().map(|r| r / 2.0).collect(),
            lat_mid_us: rates.iter().map(|r| 5000.0 / r).collect(),
            lat_tail_us: vec![900.0; rates.len()],
            combine_mean_ms: vec![0.2; rates.len()],
            msgs_per_req: 6.2,
            ratio_vs_opt: 1.6,
            ..ClusterOutcome::default()
        }
    }

    fn result_of(m: Measured) -> RunResult {
        let mut result = RunResult::empty(200);
        result.end_to_end = cluster_end_to_end(&m, &mut result.problems);
        m.absorb_into(&mut result);
        result.problems.extend(result.retries.storm());
        result
    }

    fn value(result: &RunResult, name: &str) -> Spread {
        result
            .end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1
    }

    /// Timings report the quartile of the pooled slices on their better
    /// side, counts and set-up the median of the rounds; a stall's
    /// retransmits are printed and change nothing.
    #[test]
    fn a_run_reports_better_quartiles_of_slices_and_keeps_an_isolated_stall() {
        let slow_half = [50.0, 50.0, 100.0, 100.0];
        let result = result_of(Measured(vec![round(&slow_half, 2), round(&slow_half, 0)]));
        let rate = value(&result, "req_per_s");
        assert_eq!((rate.value, rate.median, rate.n), (100.0, 75.0, 8));
        let lat = value(&result, "lat_p50_us");
        assert_eq!((lat.value, lat.median), (50.0, 75.0));
        assert_eq!(value(&result, "setup_s").value, 0.2);
        assert_eq!(value(&result, "msgs_per_req").value, 6.2);

        assert!(result.correct(), "{:?}", result.problems);
        assert_eq!((result.attempted, result.failed), (204, 0));
        assert_eq!(result.retries.retransmits, 2);
        let line = result_line(&result, false);
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(204.0));
        assert_eq!(
            line.at(&["metrics", "req_per_s", "value"])
                .and_then(Json::as_f64),
            Some(100.0)
        );
    }

    /// The overload guard end to end: rounds whose nodes re-sent more
    /// than a hundredth of their frames fail the run.
    #[test]
    fn a_retransmit_storm_fails_the_run() {
        let result = result_of(Measured(vec![round(&[1.0; 4], 300), round(&[1.0; 4], 0)]));
        assert!(!result.correct());
        assert_eq!(result.problems.len(), 1, "{:?}", result.problems);
        assert!(result.problems[0].starts_with("retransmit storm"));
        let line = result_line(&result, false);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    }
}
