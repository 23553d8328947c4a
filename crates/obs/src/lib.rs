//! # oat-obs
//!
//! The observability substrate shared by the simulator, the TCP runtime,
//! and the bench harness:
//!
//! * [`event`] — the fixed-size [`event::Event`] record and its taxonomy
//!   ([`event::EventKind`], grouped into coarse categories for filtering).
//! * [`ring`] — per-thread lock-free ring buffers behind a process-global
//!   sink, with a constant-cost fast path when tracing is disabled (one
//!   relaxed atomic load). See the [`trace_event!`] / [`trace_span!`]
//!   macros.
//! * [`hist`] — log-bucketed, mergeable latency histograms (HDR-style)
//!   with a ≤ 1/64 relative error bound on reported quantiles.
//! * [`export`] — the stable `oat-trace-v1` JSONL schema and the Chrome
//!   `trace_event` JSON format (loadable in `chrome://tracing` /
//!   Perfetto).
//! * [`json`] — the one JSON value, writer and strict reader behind
//!   every document the workspace emits.
//! * [`breakdown`] — matches client-side request events against node-side
//!   serve events and attributes each request's wall time to
//!   poll / queue / dispatch / wire phases.
//!
//! The crate has no dependencies and performs no allocation on the event
//! fast path; everything heavier (sorting, matching, JSON) happens at
//! drain/export time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod ring;

pub use breakdown::{
    phase_breakdown, wire_latency, wire_latency_by_edge, PhaseBreakdown, WireLatency,
};
pub use event::{Event, EventKind};
pub use export::{to_chrome, to_jsonl};
pub use hist::LogHistogram;
pub use json::Json;
pub use ring::{
    disable, drain, emit, enabled, install, now_ns, span, Trace, DEFAULT_RING_CAPACITY,
};

/// Emits one instantaneous trace event when the sink is enabled.
///
/// Expands to a single relaxed atomic load plus a branch when tracing is
/// off; the argument expressions are not evaluated in that case.
#[macro_export]
macro_rules! trace_event {
    ($kind:expr, $a:expr, $b:expr, $c:expr) => {
        if $crate::enabled() {
            $crate::emit($kind, 0, $a, $b, $c);
        }
    };
}

/// Closes a span opened with [`now_ns`] and emits it when enabled.
///
/// `$t0` is the value returned by [`now_ns`] at span start (`0` when the
/// sink was off, in which case nothing is emitted — spans never straddle
/// an enable/disable edge).
#[macro_export]
macro_rules! trace_span {
    ($kind:expr, $t0:expr, $a:expr, $b:expr, $c:expr) => {
        if $t0 != 0 && $crate::enabled() {
            $crate::span($kind, $t0, $a, $b, $c);
        }
    };
}
