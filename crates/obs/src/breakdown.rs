//! Span-aware request phase breakdown.
//!
//! Matches the client-side request events (`req_start`/`req_end`) against
//! the node-side events for the same request (`req_recv`, `req_serve`,
//! `resp_tx`) and splits each request's wall time into four contiguous
//! phases:
//!
//! | phase      | interval                        | dominated by |
//! |------------|---------------------------------|--------------|
//! | `poll`     | submit → node decodes the frame | kernel + reactor readiness wake-up |
//! | `queue`    | decode → handler starts         | work queued behind other dispatches |
//! | `dispatch` | handler start → response queued | handler time, plus the probe fan-out wait for parked combines |
//! | `wire`     | response queued → client reads  | write queue flush + kernel + client wake-up |
//!
//! The phases partition `[submit, response]` exactly, so their sum equals
//! the client-observed latency by construction; the bench harness
//! cross-checks the breakdown's latency histogram against its own
//! independent `Instant`-based measurements.
//!
//! Client events are keyed by `(ring, node, req id)` and node events by
//! `(node, conn, req id)`; the conn id is not known client-side, so pairs
//! are matched greedily by requiring the node's decode timestamp to fall
//! inside the client's request window — unambiguous because a connection's
//! req ids are strictly increasing and at most one incarnation of a req id
//! is in flight per connection.

use std::collections::HashMap;

use crate::event::{Event, EventKind};
use crate::hist::LogHistogram;

/// Per-phase latency histograms over the matched requests (nanosecond
/// samples).
#[derive(Clone, Debug, Default)]
pub struct PhaseBreakdown {
    /// Client request pairs (`req_start` + `req_end`) observed.
    pub requests: u64,
    /// Pairs successfully matched to a full node-side record.
    pub matched: u64,
    /// Submit → node decode.
    pub poll: LogHistogram,
    /// Decode → handler start.
    pub queue: LogHistogram,
    /// Handler start → response queued.
    pub dispatch: LogHistogram,
    /// Response queued → client read.
    pub wire: LogHistogram,
    /// Client-observed wall time (equals the sum of the four phases per
    /// request).
    pub latency: LogHistogram,
}

#[derive(Default, Clone, Copy)]
struct NodeRecord {
    recv_ts: u64,
    serve_ts: u64,
    resp_ts: u64,
    consumed: bool,
}

/// Computes the phase breakdown from a drained event stream (ascending
/// timestamps not required; events are grouped by key).
pub fn phase_breakdown(events: &[Event]) -> PhaseBreakdown {
    // Node-side records keyed by (node, conn, req id).
    let mut node_side: HashMap<(u32, u32, u64), NodeRecord> = HashMap::new();
    // Client-side windows keyed by (ring, node, req id).
    let mut starts: HashMap<(u32, u32, u64), u64> = HashMap::new();
    let mut pairs: Vec<(u32, u64, u64, u64)> = Vec::new(); // (node, req, start, end)
    for e in events {
        match e.kind {
            EventKind::ReqRecv => {
                node_side.entry((e.a, e.b, e.c)).or_default().recv_ts = e.ts_ns;
            }
            EventKind::ReqServe => {
                node_side.entry((e.a, e.b, e.c)).or_default().serve_ts = e.ts_ns;
            }
            EventKind::RespTx => {
                node_side.entry((e.a, e.b, e.c)).or_default().resp_ts = e.ts_ns;
            }
            EventKind::ReqStart => {
                starts.insert((e.tid, e.a, e.c), e.ts_ns);
            }
            EventKind::ReqEnd => {
                if let Some(start) = starts.remove(&(e.tid, e.a, e.c)) {
                    pairs.push((e.a, e.c, start, e.ts_ns));
                }
            }
            _ => {}
        }
    }

    // Index complete node records by (node, req id); multiple connections
    // can reuse a req id, hence the Vec.
    let mut by_req: HashMap<(u32, u64), Vec<NodeRecord>> = HashMap::new();
    for ((node, _conn, req), rec) in node_side {
        if rec.recv_ts > 0 && rec.serve_ts >= rec.recv_ts && rec.resp_ts >= rec.serve_ts {
            by_req.entry((node, req)).or_default().push(rec);
        }
    }

    let mut out = PhaseBreakdown {
        requests: pairs.len() as u64,
        ..PhaseBreakdown::default()
    };
    pairs.sort_by_key(|&(_, _, start, _)| start);
    for (node, req, start, end) in pairs {
        out.latency.record(end.saturating_sub(start));
        let Some(candidates) = by_req.get_mut(&(node, req)) else {
            continue;
        };
        // Earliest unconsumed record whose decode falls in the window.
        let Some(rec) = candidates
            .iter_mut()
            .filter(|r| !r.consumed && r.recv_ts >= start && r.resp_ts <= end)
            .min_by_key(|r| r.recv_ts)
        else {
            continue;
        };
        rec.consumed = true;
        out.matched += 1;
        out.poll.record(rec.recv_ts - start);
        out.queue.record(rec.serve_ts - rec.recv_ts);
        out.dispatch.record(rec.resp_ts - rec.serve_ts);
        out.wire.record(end - rec.resp_ts);
    }
    out
}

/// Per-edge wire latency over the matched `frame_tx`/`frame_rx` pairs.
#[derive(Clone, Debug, Default)]
pub struct WireLatency {
    /// `frame_tx` events observed.
    pub tx: u64,
    /// Pairs matched to the corresponding `frame_rx` on the receiving
    /// node (frames lost, retransmitted out of window, or still in
    /// flight at drain time stay unmatched).
    pub matched: u64,
    /// Enqueue-at-sender → decode-at-receiver latency histogram
    /// (nanosecond samples).
    pub hist: LogHistogram,
}

/// Matches each `frame_tx` against the `frame_rx` for the same frame and
/// records the transit time: [`wire_latency_by_edge`] merged over edges.
pub fn wire_latency(events: &[Event]) -> WireLatency {
    let mut out = WireLatency::default();
    for (_, w) in wire_latency_by_edge(events) {
        out.tx += w.tx;
        out.matched += w.matched;
        out.hist.merge(&w.hist);
    }
    out
}

/// Matches each `frame_tx` against the `frame_rx` for the same frame and
/// records the transit time per directed edge: one [`WireLatency`] per
/// `(from, to)` node pair that transmitted at least one frame, sorted
/// by edge for stable display. Both events carry
/// `c = (link seq << 8) | tag`, and the per-link sequence number is
/// unique per direction, so a tx at `(from, to, c)` pairs with exactly
/// the rx at `(to, from, c)`.
pub fn wire_latency_by_edge(events: &[Event]) -> Vec<((u32, u32), WireLatency)> {
    let mut tx: HashMap<(u32, u32, u64), u64> = HashMap::new();
    let mut edges: HashMap<(u32, u32), WireLatency> = HashMap::new();
    for e in events {
        if e.kind == EventKind::FrameTx {
            tx.insert((e.a, e.b, e.c), e.ts_ns);
            edges.entry((e.a, e.b)).or_default().tx += 1;
        }
    }
    for e in events {
        if e.kind == EventKind::FrameRx {
            if let Some(&sent) = tx.get(&(e.b, e.a, e.c)) {
                if e.ts_ns >= sent {
                    // Attribute to the sending direction (b → a), the
                    // same keying as the per-edge message counters.
                    let w = edges.entry((e.b, e.a)).or_default();
                    w.matched += 1;
                    w.hist.record(e.ts_ns - sent);
                }
            }
        }
    }
    let mut out: Vec<_> = edges.into_iter().collect();
    out.sort_by_key(|&(k, _)| k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, tid: u32, ts_ns: u64, a: u32, b: u32, c: u64) -> Event {
        Event {
            ts_ns,
            dur_ns: 0,
            kind,
            tid,
            a,
            b,
            c,
        }
    }

    #[test]
    fn phases_partition_the_request_window() {
        let events = vec![
            ev(EventKind::ReqStart, 9, 100, 3, 0, 1),
            ev(EventKind::ReqRecv, 1, 140, 3, 5, 1),
            ev(EventKind::ReqServe, 1, 150, 3, 5, 1),
            ev(EventKind::RespTx, 1, 180, 3, 5, 1),
            ev(EventKind::ReqEnd, 9, 200, 3, 0, 1),
        ];
        let b = phase_breakdown(&events);
        assert_eq!((b.requests, b.matched), (1, 1));
        assert_eq!(b.poll.quantile(0.5), 40);
        assert_eq!(b.queue.quantile(0.5), 10);
        assert_eq!(b.dispatch.quantile(0.5), 30);
        assert_eq!(b.wire.quantile(0.5), 20);
        assert_eq!(b.latency.quantile(0.5), 100);
        let sum = b.poll.quantile(0.5)
            + b.queue.quantile(0.5)
            + b.dispatch.quantile(0.5)
            + b.wire.quantile(0.5);
        assert_eq!(sum, b.latency.quantile(0.5), "phases sum to latency");
    }

    #[test]
    fn same_req_id_on_two_connections_disambiguates_by_window() {
        // Two clients (rings 8 and 9, conns 1 and 2) both use req id 1 on
        // node 0, with disjoint windows.
        let events = vec![
            ev(EventKind::ReqStart, 8, 100, 0, 0, 1),
            ev(EventKind::ReqRecv, 0, 110, 0, 1, 1),
            ev(EventKind::ReqServe, 0, 115, 0, 1, 1),
            ev(EventKind::RespTx, 0, 120, 0, 1, 1),
            ev(EventKind::ReqEnd, 8, 130, 0, 0, 1),
            ev(EventKind::ReqStart, 9, 500, 0, 0, 1),
            ev(EventKind::ReqRecv, 0, 540, 0, 2, 1),
            ev(EventKind::ReqServe, 0, 541, 0, 2, 1),
            ev(EventKind::RespTx, 0, 542, 0, 2, 1),
            ev(EventKind::ReqEnd, 9, 600, 0, 0, 1),
        ];
        let b = phase_breakdown(&events);
        assert_eq!((b.requests, b.matched), (2, 2));
        assert_eq!(b.poll.quantile(0.0), 10);
        assert_eq!(b.poll.quantile(1.0), 40);
    }

    #[test]
    fn unmatched_requests_still_count_latency() {
        let events = vec![
            ev(EventKind::ReqStart, 9, 100, 3, 0, 1),
            ev(EventKind::ReqEnd, 9, 160, 3, 0, 1),
        ];
        let b = phase_breakdown(&events);
        assert_eq!((b.requests, b.matched), (1, 0));
        assert_eq!(b.latency.count(), 1);
        assert_eq!(b.poll.count(), 0);
    }

    #[test]
    fn wire_latency_matches_tx_rx_by_seq_and_edge() {
        const TAG: u64 = 3;
        let c = |seq: u64| (seq << 8) | TAG;
        let events = vec![
            // Frame seq 1 on edge 0→1: 50ns transit.
            ev(EventKind::FrameTx, 0, 100, 0, 1, c(1)),
            ev(EventKind::FrameRx, 1, 150, 1, 0, c(1)),
            // Frame seq 1 on the reverse edge 1→0 reuses the seq without
            // colliding: 70ns transit.
            ev(EventKind::FrameTx, 1, 200, 1, 0, c(1)),
            ev(EventKind::FrameRx, 0, 270, 0, 1, c(1)),
            // Frame seq 2 on 0→1 was lost: tx without rx.
            ev(EventKind::FrameTx, 0, 300, 0, 1, c(2)),
        ];
        let w = wire_latency(&events);
        assert_eq!((w.tx, w.matched), (3, 2));
        assert_eq!(w.hist.quantile(0.0), 50);
        assert_eq!(w.hist.quantile(1.0), 70);
    }

    #[test]
    fn wire_latency_by_edge_splits_directions() {
        const TAG: u64 = 3;
        let c = |seq: u64| (seq << 8) | TAG;
        let events = vec![
            ev(EventKind::FrameTx, 0, 100, 0, 1, c(1)),
            ev(EventKind::FrameRx, 1, 150, 1, 0, c(1)),
            ev(EventKind::FrameTx, 1, 200, 1, 0, c(1)),
            ev(EventKind::FrameRx, 0, 270, 0, 1, c(1)),
            // Lost frame: counted in tx for 0→1, never matched.
            ev(EventKind::FrameTx, 0, 300, 0, 1, c(2)),
        ];
        let edges = wire_latency_by_edge(&events);
        assert_eq!(edges.len(), 2);
        let (k0, w0) = &edges[0];
        assert_eq!(*k0, (0, 1));
        assert_eq!((w0.tx, w0.matched), (2, 1));
        assert_eq!(w0.hist.quantile(0.5), 50);
        let (k1, w1) = &edges[1];
        assert_eq!(*k1, (1, 0));
        assert_eq!((w1.tx, w1.matched), (1, 1));
        assert_eq!(w1.hist.quantile(0.5), 70);
    }

    #[test]
    fn wire_latency_ignores_unrelated_events() {
        let events = vec![
            ev(EventKind::ReqStart, 9, 100, 3, 0, 1),
            ev(EventKind::FrameRx, 1, 150, 1, 0, (1 << 8) | 3),
        ];
        let w = wire_latency(&events);
        assert_eq!((w.tx, w.matched), (0, 0));
        assert_eq!(w.hist.count(), 0);
    }
}
