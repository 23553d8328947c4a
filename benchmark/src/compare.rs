//! `compare A.json B.json`: is result set B (the change) no worse than
//! result set A (the parent) on every end-to-end metric of every
//! workload, by the bound the benchmark fixed for that metric?

use crate::json::Json;
use crate::metrics::{is_exact, Better, END_TO_END};
use crate::workload::WORKLOADS;

/// What `compare` concluded about one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A and both spreads are inside it.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is not worse beyond the bound, but a spread is wider than the
    /// bound, so "unchanged" cannot be claimed either.
    Unresolved,
    /// An exact count differs between two runs of the same inputs.
    Mismatch,
    /// A set lacks the workload or the metric.
    Missing,
}

impl Verdict {
    /// Whether this verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Mismatch | Verdict::Missing)
    }

    /// Column text.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Missing => "MISSING",
        }
    }
}

/// One side's reading of a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// What the run reported: the better-side quartile over its slices
    /// for a timing, the median over its rounds (or queries) otherwise.
    pub value: f64,
    /// Inter-quartile range of the medians of the run's rounds (or of
    /// its queries): each is a fresh cluster, so this is how far repeats
    /// of the measurement disagree.
    pub iqr: f64,
}

impl Reading {
    /// The spread as a share of the value. (A set holds one run per
    /// workload; its rounds stand in for the run-to-run spread, which
    /// needs several sets.)
    pub fn spread(&self) -> f64 {
        if self.value > 0.0 {
            self.iqr / self.value
        } else {
            0.0
        }
    }
}

/// Judges one metric: `a` is the parent's reading, `b` the change's.
/// `exact` marks a count that must repeat to the last digit.
pub fn judge(a: Reading, b: Reading, better: Better, bound: f64, exact: bool) -> Verdict {
    if exact {
        return if a.value == b.value {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        };
    }
    if !(a.value.is_finite() && b.value.is_finite()) || a.value <= 0.0 {
        return Verdict::Missing;
    }
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name, or `ops_failed_share`.
    pub metric: &'static str,
    /// Parent's reading.
    pub a: Option<Reading>,
    /// Change's reading.
    pub b: Option<Reading>,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn reading(set: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let m = set.at(&["workloads", workload, "end_to_end", metric])?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        iqr: m.get("round_iqr")?.as_f64()?,
    })
}

fn failed_share(set: &Json, workload: &str) -> Option<f64> {
    let w = set.at(&["workloads", workload])?;
    let attempted = w.get("ops_attempted")?.as_f64()?;
    let failed = w.get("ops_failed")?.as_f64()?;
    let correct = w.get("correct").and_then(Json::as_bool).unwrap_or(false);
    // A run an oracle rejected failed as a whole, whatever it counted.
    Some(if correct {
        failed / attempted.max(1.0)
    } else {
        (failed / attempted.max(1.0)).max(f64::MIN_POSITIVE)
    })
}

/// Compares two result sets. Exact counts are only held to equality
/// when both sets ran the same inputs (seed, seconds, quick).
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let same_inputs = ["seed", "seconds", "quick"]
        .iter()
        .all(|k| a.get(k).is_some() && a.get(k) == b.get(k));
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (ra, rb) = (reading(a, w.name, m.name), reading(b, w.name, m.name));
            let verdict = match (ra, rb) {
                (Some(ra), Some(rb)) => judge(
                    ra,
                    rb,
                    m.better,
                    m.bound,
                    same_inputs && is_exact(w.name, m.name),
                ),
                _ => Verdict::Missing,
            };
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                a: ra,
                b: rb,
                bound: m.bound,
                verdict,
            });
        }
        let (fa, fb) = (failed_share(a, w.name), failed_share(b, w.name));
        rows.push(Row {
            workload: w.name,
            metric: "ops_failed_share",
            a: fa.map(|value| Reading { value, iqr: 0.0 }),
            b: fb.map(|value| Reading { value, iqr: 0.0 }),
            bound: 0.0,
            verdict: match (fa, fb) {
                (Some(fa), Some(fb)) if fb > fa => Verdict::Worse,
                (Some(_), Some(_)) => Verdict::Ok,
                _ => Verdict::Missing,
            },
        });
    }
    rows
}

/// Renders the rows as a table: both values, both IQRs (of the
/// rounds' medians), the bound and the verdict.
pub fn render(rows: &[Row]) -> String {
    let num = |r: Option<Reading>, f: fn(Reading) -> f64| {
        r.map_or("-".to_string(), |r| format!("{:.6}", f(r)))
    };
    let mut out = format!(
        "{:<14} {:<21} {:>16} {:>14} {:>16} {:>14} {:>6}  {}\n",
        "workload", "metric", "A value", "A iqr", "B value", "B iqr", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<21} {:>16} {:>14} {:>16} {:>14} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            num(r.a, |r| r.value),
            num(r.a, |r| r.iqr),
            num(r.b, |r| r.value),
            num(r.b, |r| r.iqr),
            r.bound * 100.0,
            r.verdict.name()
        ));
    }
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    out.push_str(&format!(
        "{} rows, {failing} failing, {unresolved} unresolved\n",
        rows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, iqr: f64) -> Reading {
        Reading { value, iqr }
    }

    #[test]
    fn worse_beyond_the_bound_fails_in_either_direction() {
        // Lower is better: +12% latency against a 10% bound.
        assert_eq!(
            judge(r(100.0, 1.0), r(112.0, 1.0), Better::Lower, 0.10, false),
            Verdict::Worse
        );
        // Higher is better: −12% throughput.
        assert_eq!(
            judge(r(100.0, 1.0), r(88.0, 1.0), Better::Higher, 0.10, false),
            Verdict::Worse
        );
        assert!(Verdict::Worse.fails());
    }

    #[test]
    fn within_the_bound_or_better_passes() {
        assert_eq!(
            judge(r(100.0, 1.0), r(108.0, 1.0), Better::Lower, 0.10, false),
            Verdict::Ok
        );
        assert_eq!(
            judge(r(100.0, 1.0), r(93.0, 1.0), Better::Higher, 0.10, false),
            Verdict::Ok
        );
        // A large improvement is not a regression.
        assert_eq!(
            judge(r(100.0, 1.0), r(50.0, 1.0), Better::Lower, 0.10, false),
            Verdict::Ok
        );
        assert!(!Verdict::Ok.fails());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        assert_eq!(
            judge(r(100.0, 15.0), r(101.0, 1.0), Better::Lower, 0.10, false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(r(100.0, 1.0), r(101.0, 15.0), Better::Lower, 0.10, false),
            Verdict::Unresolved
        );
        assert!(!Verdict::Unresolved.fails());
        // Worse beyond the bound stays worse however wide the spread.
        assert_eq!(
            judge(r(100.0, 30.0), r(120.0, 30.0), Better::Lower, 0.10, false),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counts_must_agree_to_the_last_digit() {
        assert_eq!(
            judge(r(7.2031, 0.0), r(7.2031, 0.0), Better::Lower, 0.05, true),
            Verdict::Ok
        );
        assert_eq!(
            judge(r(7.2031, 0.0), r(7.2032, 0.0), Better::Lower, 0.05, true),
            Verdict::Mismatch
        );
        assert!(Verdict::Mismatch.fails());
    }

    fn set(seed: u64, msgs: f64, failed: u64) -> Json {
        let mut workloads = Json::obj();
        for w in &WORKLOADS {
            let mut e2e = Json::obj();
            for m in &END_TO_END {
                let value = if m.name == "msgs_per_req" {
                    msgs
                } else {
                    100.0
                };
                e2e.set(
                    m.name,
                    Json::obj()
                        .with("value", value)
                        .with("round_iqr", value / 1000.0),
                );
            }
            workloads.set(
                w.name,
                Json::obj()
                    .with("correct", failed == 0)
                    .with("ops_attempted", 1000u64)
                    .with("ops_failed", failed)
                    .with("end_to_end", e2e),
            );
        }
        Json::obj()
            .with("seed", seed)
            .with("seconds", 10u64)
            .with("quick", false)
            .with("workloads", workloads)
    }

    #[test]
    fn identical_sets_pass_and_every_pair_gets_a_row() {
        let rows = compare(&set(42, 7.2, 0), &set(42, 7.2, 0));
        assert_eq!(rows.len(), WORKLOADS.len() * (END_TO_END.len() + 1));
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Ok),
            "{}",
            render(&rows)
        );
    }

    #[test]
    fn exact_counts_bind_only_on_equal_inputs() {
        let rows = compare(&set(42, 7.20, 0), &set(42, 7.21, 0));
        let bad: Vec<_> = rows.iter().filter(|r| r.verdict.fails()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(
            (bad[0].workload, bad[0].metric),
            ("seq-uniform", "msgs_per_req")
        );
        assert_eq!(bad[0].verdict, Verdict::Mismatch);
        // Another seed is another sequence: the bound applies instead.
        let rows = compare(&set(42, 7.20, 0), &set(7, 7.21, 0));
        assert!(rows.iter().all(|r| !r.verdict.fails()));
    }

    #[test]
    fn a_risen_failure_share_fails() {
        let rows = compare(&set(42, 7.2, 0), &set(42, 7.2, 3));
        let bad: Vec<_> = rows.iter().filter(|r| r.verdict.fails()).collect();
        assert_eq!(bad.len(), WORKLOADS.len());
        assert!(bad.iter().all(|r| r.metric == "ops_failed_share"));
        // The other way round it fell, which is fine.
        assert!(compare(&set(42, 7.2, 3), &set(42, 7.2, 0))
            .iter()
            .all(|r| !r.verdict.fails()));
    }

    #[test]
    fn a_missing_workload_fails() {
        let full = set(42, 7.2, 0);
        let empty = Json::obj().with("workloads", Json::obj());
        assert!(compare(&full, &empty)
            .iter()
            .all(|r| r.verdict == Verdict::Missing));
    }
}
