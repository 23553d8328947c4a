//! What one generator thread records: per-slice latencies and durations
//! for the end-to-end metrics and, on a traced run, a span around every
//! call into the client.

use std::time::{Duration, Instant};

use crate::stats::{SlicePlan, SLICES};

/// The client call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// `submit_*` + `flush`: the client's own work.
    Submit,
    /// Blocked in `next_response`.
    Wait,
    /// Blocked in `Cluster::quiesce`.
    Quiesce,
}

impl SpanKind {
    /// Span name in the written trace (`layer.call`).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Submit => "net.cluster.client_submit",
            SpanKind::Wait => "net.cluster.client_wait",
            SpanKind::Quiesce => "net.cluster.quiesce_wait",
        }
    }
}

/// One recorded span. Spans of one request share `req`; the request is
/// their cause (client spans have no nesting of their own).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which call.
    pub kind: SpanKind,
    /// Generator thread.
    pub lane: u8,
    /// Index of the (first) request the call served, in the lane's stream.
    pub req: u32,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u32,
}

/// One slice of one lane.
#[derive(Clone, Debug, Default)]
pub struct SliceRec {
    /// Wall time from the previous slice's last completion to this one's.
    pub dur: Duration,
    /// Submit→response latency of every request completed in the slice.
    pub lat_ns: Vec<u32>,
    /// The combines among them.
    pub combine_lat_ns: Vec<u32>,
    /// Writes completed in the slice.
    pub writes: usize,
}

/// One generator thread's record of a run.
#[derive(Debug)]
pub struct Lane {
    id: u8,
    plan: SlicePlan,
    epoch: Instant,
    done: usize,
    slice_start: Instant,
    /// When the first request completed: the cold path is through, and
    /// set-up ends here.
    pub first_done: Option<Instant>,
    /// When the last warm-up request completed (timing starts here).
    pub warm_end: Option<Instant>,
    /// The timed slices.
    pub slices: Vec<SliceRec>,
    /// Operations that failed (I/O error, timeout, wrong or missing
    /// response).
    pub failed: u64,
    /// What went wrong, first few only.
    pub problems: Vec<String>,
    /// Client spans (traced runs only).
    pub spans: Option<Vec<Span>>,
}

impl Lane {
    /// A lane about to complete `total` requests. `epoch` is the run's
    /// time origin (spans are stamped relative to it).
    pub fn new(id: usize, total: usize, epoch: Instant, traced: bool) -> Lane {
        let plan = SlicePlan::new(total);
        let now = Instant::now();
        Lane {
            id: id as u8,
            plan,
            epoch,
            done: 0,
            slice_start: now,
            first_done: None,
            warm_end: (plan.warmup == 0).then_some(now),
            // Sized up front so the timed loop never reallocates.
            slices: (0..SLICES)
                .map(|_| SliceRec {
                    lat_ns: Vec::with_capacity(plan.timed / SLICES + 1),
                    combine_lat_ns: Vec::with_capacity(plan.timed / SLICES + 1),
                    ..SliceRec::default()
                })
                .collect(),
            failed: 0,
            problems: Vec::new(),
            spans: traced.then(|| Vec::with_capacity(2 * total + 16)),
        }
    }

    /// Whether spans are being recorded.
    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// Requests completed so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Records the completion, at `now`, of a request submitted at
    /// `submitted`.
    pub fn complete(&mut self, now: Instant, submitted: Instant, is_combine: bool) {
        self.first_done.get_or_insert(now);
        match self.plan.slice_of(self.done) {
            None => {
                if self.done + 1 == self.plan.warmup {
                    self.warm_end = Some(now);
                    self.slice_start = now;
                }
            }
            Some(k) => {
                let lat = now
                    .duration_since(submitted)
                    .as_nanos()
                    .min(u128::from(u32::MAX)) as u32;
                let rec = &mut self.slices[k];
                rec.lat_ns.push(lat);
                if is_combine {
                    rec.combine_lat_ns.push(lat);
                } else {
                    rec.writes += 1;
                }
                if self.plan.slice_of(self.done + 1) != Some(k)
                    || self.done + 1 == self.plan.warmup + self.plan.timed
                {
                    rec.dur = now.duration_since(self.slice_start);
                    self.slice_start = now;
                }
            }
        }
        self.done += 1;
    }

    /// Records a span `[start, end]` serving request `req` (no-op on an
    /// untraced run).
    pub fn span(&mut self, kind: SpanKind, req: usize, start: Instant, end: Instant) {
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span {
                kind,
                lane: self.id,
                req: req as u32,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: end
                    .duration_since(start)
                    .as_nanos()
                    .min(u128::from(u32::MAX)) as u32,
            });
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(why());
        }
    }

    /// Counts every operation not yet completed as failed (the lane hit
    /// an error it cannot continue past).
    pub fn abandon(&mut self, total: usize, why: String) {
        let missing = total.saturating_sub(self.done) as u64;
        self.failed += missing;
        self.problems
            .push(format!("{why}; {missing} operations never completed"));
    }

    /// Total span time of `kind` that started after warm-up, in ns.
    pub fn timed_span_ns(&self, kind: SpanKind) -> u64 {
        let Some(warm_end) = self.warm_end else {
            return 0;
        };
        let from = warm_end.duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .iter()
            .flatten()
            .filter(|s| s.kind == kind && s.start_ns >= from)
            .map(|s| u64::from(s.dur_ns))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_completions_are_not_sampled() {
        let epoch = Instant::now();
        let mut lane = Lane::new(0, 200, epoch, false);
        for i in 0..200 {
            let now = Instant::now();
            lane.complete(now, now, i % 2 == 0);
        }
        assert!(lane.first_done.is_some() && lane.first_done <= lane.warm_end);
        let sampled: usize = lane.slices.iter().map(|s| s.lat_ns.len()).sum();
        assert_eq!(sampled, 180);
        assert!(lane.slices.iter().all(|s| s.lat_ns.len() == 9));
        let combines: usize = lane.slices.iter().map(|s| s.combine_lat_ns.len()).sum();
        let writes: usize = lane.slices.iter().map(|s| s.writes).sum();
        assert_eq!(combines + writes, 180);
    }

    #[test]
    fn slice_durations_tile_the_timed_part() {
        let epoch = Instant::now();
        let mut lane = Lane::new(0, 50, epoch, false);
        let mut last = epoch;
        for _ in 0..50 {
            last = Instant::now();
            lane.complete(last, last, false);
        }
        let sum: Duration = lane.slices.iter().map(|s| s.dur).sum();
        assert_eq!(sum, last.duration_since(lane.warm_end.unwrap()));
    }

    #[test]
    fn abandoned_operations_count_as_failed() {
        let mut lane = Lane::new(0, 40, Instant::now(), false);
        let now = Instant::now();
        lane.complete(now, now, true);
        lane.abandon(40, "connection reset".into());
        assert_eq!(lane.failed, 39);
        lane.fail(|| "wrong value".into());
        assert_eq!(lane.failed, 40);
        assert_eq!(lane.problems.len(), 2);
    }

    #[test]
    fn spans_only_on_traced_lanes_and_only_timed_ones_are_summed() {
        let epoch = Instant::now();
        let mut plain = Lane::new(0, 10, epoch, false);
        plain.span(SpanKind::Wait, 0, epoch, Instant::now());
        assert!(plain.spans.is_none());

        let mut lane = Lane::new(1, 10, epoch, true);
        let a = Instant::now();
        lane.span(SpanKind::Wait, 0, epoch, a); // before warm-up ends
        lane.complete(a, a, true); // 10% of 10 = 1 warm-up completion
        let b = a + Duration::from_micros(5);
        lane.span(SpanKind::Wait, 1, a, b);
        lane.span(SpanKind::Submit, 1, a, b);
        assert_eq!(lane.timed_span_ns(SpanKind::Wait), 5_000);
        assert_eq!(lane.timed_span_ns(SpanKind::Submit), 5_000);
        assert_eq!(lane.timed_span_ns(SpanKind::Quiesce), 0);
    }
}
