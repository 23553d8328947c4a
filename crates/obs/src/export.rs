//! Trace exporters: the stable `oat-trace-v1` JSONL schema and Chrome's
//! `trace_event` JSON (loadable in `chrome://tracing` / Perfetto).
//!
//! ## `oat-trace-v1`
//!
//! Line 1 is a header object:
//!
//! ```json
//! {"schema":"oat-trace-v1","events":N,"dropped":D,"rings":R}
//! ```
//!
//! followed by one object per event, ascending by timestamp:
//!
//! ```json
//! {"ts_ns":123,"kind":"frame_tx","cat":"frame","tid":0,"a":3,"b":1,"c":9,"dur_ns":0}
//! ```
//!
//! Field meanings per kind are documented on
//! [`crate::event::EventKind`]; the *shape* of a record never varies, so
//! consumers can parse every line with one schema. All output is plain
//! ASCII with deterministic key order.

use crate::event::Event;
use crate::json::Json;
use crate::ring::Trace;

/// Renders the `oat-trace-v1` JSONL document.
pub fn to_jsonl(trace: &Trace) -> String {
    let header = Json::obj()
        .with("schema", "oat-trace-v1")
        .with("events", trace.events.len())
        .with("dropped", trace.dropped)
        .with("rings", trace.rings);
    let mut out = header.to_line() + "\n";
    for e in &trace.events {
        let record = Json::obj()
            .with("ts_ns", e.ts_ns)
            .with("kind", e.kind.name())
            .with("cat", e.kind.category())
            .with("tid", e.tid)
            .with("a", e.a)
            .with("b", e.b)
            .with("c", e.c)
            .with("dur_ns", e.dur_ns);
        out.push_str(&record.to_line());
        out.push('\n');
    }
    out
}

/// Renders a Chrome `trace_event` JSON document (the "JSON object
/// format": a top-level object with a `traceEvents` array).
///
/// Span kinds become `ph:"X"` complete events with microsecond `ts`/`dur`
/// (Chrome's native unit); instants become `ph:"i"` with thread scope.
/// The payload words ride in `args`.
pub fn to_chrome(trace: &Trace) -> String {
    let events = trace.events.iter().map(chrome_record).collect::<Vec<_>>();
    Json::obj()
        .with("displayTimeUnit", "ms")
        .with("traceEvents", events)
        .to_line()
        + "\n"
}

fn chrome_record(e: &Event) -> Json {
    let ts_us = e.ts_ns as f64 / 1000.0;
    let record = Json::obj()
        .with("name", e.kind.name())
        .with("cat", e.kind.category());
    let record = if e.kind.is_span() {
        let dur_us = f64::from(e.dur_ns) / 1000.0;
        record.with("ph", "X").with("ts", ts_us).with("dur", dur_us)
    } else {
        record.with("ph", "i").with("s", "t").with("ts", ts_us)
    };
    let args = Json::obj().with("a", e.a).with("b", e.b).with("c", e.c);
    record
        .with("pid", 1u32)
        .with("tid", e.tid)
        .with("args", args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    /// A small deterministic trace exercising an instant, a span, and
    /// payload extremes.
    pub(crate) fn sample_trace() -> Trace {
        let ev = |ts_ns, dur_ns, kind, tid, a, b, c| Event {
            ts_ns,
            dur_ns,
            kind,
            tid,
            a,
            b,
            c,
        };
        Trace {
            events: vec![
                ev(1, 0, EventKind::ReqStart, 0, 3, 0, 1),
                ev(1500, 0, EventKind::FrameRx, 1, 3, 1, 9),
                ev(2000, 250_000, EventKind::ReqServe, 1, 3, 7, 1),
                ev(999_999_999, 0, EventKind::Restart, 2, u32::MAX, 0, u64::MAX),
            ],
            dropped: 5,
            rings: 3,
        }
    }

    #[test]
    fn jsonl_golden() {
        let got = to_jsonl(&sample_trace());
        let want = r#"{"schema":"oat-trace-v1","events":4,"dropped":5,"rings":3}
{"ts_ns":1,"kind":"req_start","cat":"request","tid":0,"a":3,"b":0,"c":1,"dur_ns":0}
{"ts_ns":1500,"kind":"frame_rx","cat":"frame","tid":1,"a":3,"b":1,"c":9,"dur_ns":0}
{"ts_ns":2000,"kind":"req_serve","cat":"request","tid":1,"a":3,"b":7,"c":1,"dur_ns":250000}
{"ts_ns":999999999,"kind":"restart","cat":"fault","tid":2,"a":4294967295,"b":0,"c":18446744073709551615,"dur_ns":0}
"#;
        assert_eq!(got, want);
    }

    #[test]
    fn chrome_golden() {
        let got = to_chrome(&sample_trace());
        let want = concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":["#,
            r#"{"name":"req_start","cat":"request","ph":"i","s":"t","ts":0.001,"pid":1,"tid":0,"args":{"a":3,"b":0,"c":1}},"#,
            r#"{"name":"frame_rx","cat":"frame","ph":"i","s":"t","ts":1.5,"pid":1,"tid":1,"args":{"a":3,"b":1,"c":9}},"#,
            r#"{"name":"req_serve","cat":"request","ph":"X","ts":2.0,"dur":250.0,"pid":1,"tid":1,"args":{"a":3,"b":7,"c":1}},"#,
            r#"{"name":"restart","cat":"fault","ph":"i","s":"t","ts":999999.999,"pid":1,"tid":2,"args":{"a":4294967295,"b":0,"c":18446744073709551615}}"#,
            "]}\n"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn jsonl_records_parse_back_to_the_events() {
        let trace = sample_trace();
        let text = to_jsonl(&trace);
        let mut lines = text
            .lines()
            .map(|l| Json::parse(l).expect("one JSON value per line"));
        let header = lines.next().expect("a header line");
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some("oat-trace-v1")
        );
        assert_eq!(header.get("events").and_then(Json::as_u64), Some(4));
        for (record, e) in lines.zip(&trace.events) {
            let num = |k: &str| record.get(k).and_then(Json::as_u64);
            assert_eq!(num("ts_ns"), Some(e.ts_ns));
            assert_eq!(
                record.get("cat").and_then(Json::as_str),
                Some(e.kind.category())
            );
            assert_eq!(num("c"), Some(e.c), "u64 payloads are exact");
        }
    }
}
