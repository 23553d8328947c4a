//! Declarative query specs and their parser.
//!
//! Grammar (whitespace-separated, case-insensitive keywords):
//!
//! ```text
//! SPEC   := OP [ "group" "by" "key" ] [ "window" WINDOW ]
//! OP     := "sum" | "min" | "max" | "count"
//! WINDOW := "last-" N            (sliding window over the last N facts)
//!         | "tumbling(" T "ms)"  (fact-time windows of T milliseconds)
//! ```
//!
//! Examples: `sum`, `count group by key`,
//! `sum group by key window tumbling(100ms)`, `max window last-50`.

use std::fmt;
use std::str::FromStr;

/// Which monoid the query folds. `count` runs the cluster under integer
/// sum with every fact mapped to `1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Wrapping integer sum.
    Sum,
    /// Minimum (`i64::MAX` identity).
    Min,
    /// Maximum (`i64::MIN` identity).
    Max,
    /// Fact count (sum of `1` per fact).
    Count,
}

impl OpKind {
    /// Identity element of the operator's value domain.
    pub fn identity(self) -> i64 {
        match self {
            OpKind::Sum | OpKind::Count => 0,
            OpKind::Min => i64::MAX,
            OpKind::Max => i64::MIN,
        }
    }

    /// `a ⊕ b` on already-mapped values.
    pub fn combine(self, a: i64, b: i64) -> i64 {
        match self {
            OpKind::Sum | OpKind::Count => a.wrapping_add(b),
            OpKind::Min => a.min(b),
            OpKind::Max => a.max(b),
        }
    }

    /// Maps a raw fact value into the operator's domain (`count`
    /// discards the value and contributes `1`).
    pub fn map_val(self, v: i64) -> i64 {
        match self {
            OpKind::Count => 1,
            _ => v,
        }
    }

    /// Whether `⊕` has an inverse: `sum` and `count` form a group under
    /// wrapping addition, so a retired contribution is cancelled by
    /// adding its negation; `min` and `max` must refold what survives.
    pub fn is_group(self) -> bool {
        matches!(self, OpKind::Sum | OpKind::Count)
    }

    /// Spec keyword for this operator.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Sum => "sum",
            OpKind::Min => "min",
            OpKind::Max => "max",
            OpKind::Count => "count",
        }
    }
}

/// Windowing mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSpec {
    /// Unwindowed: the aggregate covers the whole stream.
    None,
    /// Sliding window over the last `N` facts of each group. Expiring
    /// facts are *retired*: under `sum`/`count` node 0 subtracts the
    /// expired value; under `min`/`max` the expired fact's shard is
    /// refolded from the surviving ring contents and re-written.
    LastN(usize),
    /// Tumbling fact-time windows of the given width in milliseconds.
    /// A group's window is finalized (exactly) when its first fact of a
    /// later window arrives; then node 0 cancels the closed window's
    /// total (`sum`/`count`) or the group's shards reset to identity
    /// (`min`/`max`).
    Tumbling(u64),
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowSpec::None => write!(f, "none"),
            WindowSpec::LastN(n) => write!(f, "last-{n}"),
            WindowSpec::Tumbling(ms) => write!(f, "tumbling({ms}ms)"),
        }
    }
}

/// A parsed query spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// The aggregation operator.
    pub op: OpKind,
    /// Whether the query groups by fact key (forest of per-key trees)
    /// or aggregates the whole stream as one group (a single tree).
    pub group_by_key: bool,
    /// Windowing mode.
    pub window: WindowSpec,
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op.name())?;
        if self.group_by_key {
            write!(f, " group by key")?;
        }
        if self.window != WindowSpec::None {
            write!(f, " window {}", self.window)?;
        }
        Ok(())
    }
}

impl FromStr for QuerySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<QuerySpec, String> {
        let toks: Vec<String> = s.split_whitespace().map(str::to_ascii_lowercase).collect();
        let mut it = toks.iter().map(String::as_str).peekable();
        let op = match it.next() {
            Some("sum") => OpKind::Sum,
            Some("min") => OpKind::Min,
            Some("max") => OpKind::Max,
            Some("count") => OpKind::Count,
            Some(other) => return Err(format!("unknown operator {other:?} (sum|min|max|count)")),
            None => return Err("empty query spec".into()),
        };
        let mut spec = QuerySpec {
            op,
            group_by_key: false,
            window: WindowSpec::None,
        };
        while let Some(tok) = it.next() {
            match tok {
                "group" => {
                    if it.next() != Some("by") || it.next() != Some("key") {
                        return Err("expected `group by key`".into());
                    }
                    if spec.group_by_key {
                        return Err("duplicate `group by key`".into());
                    }
                    spec.group_by_key = true;
                }
                "window" => {
                    if spec.window != WindowSpec::None {
                        return Err("duplicate `window` clause".into());
                    }
                    let w = it.next().ok_or("expected window after `window`")?;
                    spec.window = parse_window(w)?;
                }
                other => return Err(format!("unexpected token {other:?}")),
            }
        }
        Ok(spec)
    }
}

fn parse_window(w: &str) -> Result<WindowSpec, String> {
    if let Some(n) = w.strip_prefix("last-") {
        let n: usize = n.parse().map_err(|_| format!("bad window size in {w:?}"))?;
        if n == 0 {
            return Err("window last-0 is empty".into());
        }
        return Ok(WindowSpec::LastN(n));
    }
    if let Some(inner) = w
        .strip_prefix("tumbling(")
        .and_then(|r| r.strip_suffix(')'))
    {
        let ms = inner
            .strip_suffix("ms")
            .ok_or(format!("tumbling width needs an `ms` suffix in {w:?}"))?;
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad tumbling width in {w:?}"))?;
        if ms == 0 {
            return Err("tumbling(0ms) is empty".into());
        }
        return Ok(WindowSpec::Tumbling(ms));
    }
    Err(format!("unknown window {w:?} (last-N | tumbling(Tms))"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let s: QuerySpec = "sum group by key window tumbling(100ms)".parse().unwrap();
        assert_eq!(
            s,
            QuerySpec {
                op: OpKind::Sum,
                group_by_key: true,
                window: WindowSpec::Tumbling(100),
            }
        );
        let s: QuerySpec = "MAX window last-50".parse().unwrap();
        assert_eq!(s.op, OpKind::Max);
        assert!(!s.group_by_key);
        assert_eq!(s.window, WindowSpec::LastN(50));
        let s: QuerySpec = "count".parse().unwrap();
        assert_eq!(s.op, OpKind::Count);
        assert_eq!(s.window, WindowSpec::None);
    }

    #[test]
    fn display_roundtrips() {
        for src in [
            "sum",
            "count group by key",
            "min window last-7",
            "max group by key window tumbling(250ms)",
        ] {
            let spec: QuerySpec = src.parse().unwrap();
            assert_eq!(spec.to_string(), src);
            let again: QuerySpec = spec.to_string().parse().unwrap();
            assert_eq!(again, spec);
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "avg",
            "sum group key",
            "sum window",
            "sum window last-0",
            "sum window tumbling(0ms)",
            "sum window tumbling(5s)",
            "sum window forever",
            "sum group by key group by key",
            "sum window last-3 window last-4",
            "sum extra",
        ] {
            assert!(bad.parse::<QuerySpec>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn op_monoids() {
        for op in [OpKind::Sum, OpKind::Min, OpKind::Max, OpKind::Count] {
            let e = op.identity();
            for v in [-5i64, 0, 7] {
                let m = op.map_val(v);
                assert_eq!(op.combine(e, m), m);
                assert_eq!(op.combine(m, e), m);
            }
        }
        assert_eq!(OpKind::Count.map_val(-100), 1);
        assert!(OpKind::Sum.is_group() && OpKind::Count.is_group());
        assert!(!OpKind::Min.is_group() && !OpKind::Max.is_group());
    }
}
