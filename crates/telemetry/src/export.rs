//! Chrome trace-event JSON export (loadable in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev)).
//!
//! The mapping from [`SpanRecord`]s:
//!
//! * every [`Track`] becomes one timeline (`pid` 0, `tid` =
//!   [`Track::tid`]), named via `thread_name` metadata events;
//! * spans with duration become `"ph":"X"` complete events, instants
//!   (`t0 == t1`) become thread-scoped `"ph":"i"` events;
//! * timestamps are wall microseconds since recorder creation; each
//!   event's `args` also carry the trace id, span/parent ids and the
//!   *virtual tick* (global iteration), so both clock domains survive
//!   export;
//! * causal edges that cross tracks — a feedback `recv` back to the
//!   `send` attempt that delivered it, a retransmission back to the
//!   dropped attempt it replaces — become flow events (`"ph":"s"` /
//!   `"ph":"f"`), which the viewers draw as arrows.

use crate::json::{array, Object};
use crate::trace::{SpanKind, SpanRecord, Track};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Microsecond timestamp with sub-µs precision preserved.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

fn base_event(ph: &str, tid: u64, ts_ns: u64, name: &str) -> Object {
    Object::new()
        .field_str("ph", ph)
        .field_u64("pid", 0)
        .field_u64("tid", tid)
        .field_raw("ts", &us(ts_ns))
        .field_str("name", name)
}

fn span_args(s: &SpanRecord) -> String {
    let mut o = Object::new()
        .field_u64("trace", s.trace)
        .field_u64("span", s.span)
        .field_u64("parent", s.parent)
        .field_u64("tick", s.tick);
    match s.kind {
        SpanKind::Send { to, bytes, attempt } => {
            o = o
                .field_u64("to", u64::from(to))
                .field_u64("bytes", bytes)
                .field_u64("attempt", u64::from(attempt));
        }
        SpanKind::Recv { from, bytes } => {
            o = o
                .field_u64("from", u64::from(from))
                .field_u64("bytes", bytes);
        }
        SpanKind::Dropped { to, attempt } => {
            o = o
                .field_u64("to", u64::from(to))
                .field_u64("attempt", u64::from(attempt));
        }
        SpanKind::Dup { to } => {
            o = o.field_u64("to", u64::from(to));
        }
        SpanKind::Iter | SpanKind::Phase(_) | SpanKind::PoolTask => {}
    }
    o.build()
}

fn category(kind: &SpanKind) -> &'static str {
    match kind {
        SpanKind::Iter => "iter",
        SpanKind::Phase(_) => "phase",
        SpanKind::PoolTask => "pool",
        _ => "net",
    }
}

/// True when the `parent → child` edge should be drawn as a flow arrow:
/// message delivery (`recv` back to its `send`) and retransmission chains
/// (`retry`/`send` back to the `drop` it replaces).
fn is_flow_edge(child: &SpanRecord) -> bool {
    match child.kind {
        SpanKind::Recv { .. } => true,
        SpanKind::Send { attempt, .. } => attempt > 1,
        _ => false,
    }
}

/// Renders a span dump as one Chrome trace-event JSON document.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    // Emit in start order so per-track timelines read monotonically even
    // if the caller hands over an unsorted dump.
    let mut spans: Vec<SpanRecord> = spans.to_vec();
    spans.sort_by_key(|s| (s.t0_ns, s.span));
    let spans = &spans[..];
    let mut events: Vec<String> = Vec::with_capacity(spans.len() * 2 + 8);
    // Track metadata: name + stable sort order.
    let mut tracks: BTreeMap<u64, Track> = BTreeMap::new();
    for s in spans {
        tracks.entry(s.track.tid()).or_insert(s.track);
    }
    for (tid, track) in &tracks {
        events.push(
            base_event("M", *tid, 0, "thread_name")
                .field_raw(
                    "args",
                    &Object::new().field_str("name", &track.name()).build(),
                )
                .build(),
        );
        events.push(
            base_event("M", *tid, 0, "thread_sort_index")
                .field_raw("args", &Object::new().field_u64("sort_index", *tid).build())
                .build(),
        );
    }
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span, s)).collect();
    for s in spans {
        let name = s.kind.name();
        let cat = category(&s.kind);
        if s.t1_ns > s.t0_ns {
            events.push(
                base_event("X", s.track.tid(), s.t0_ns, name)
                    .field_str("cat", cat)
                    .field_raw("dur", &us(s.t1_ns - s.t0_ns))
                    .field_raw("args", &span_args(s))
                    .build(),
            );
        } else {
            events.push(
                base_event("i", s.track.tid(), s.t0_ns, name)
                    .field_str("cat", cat)
                    .field_str("s", "t")
                    .field_raw("args", &span_args(s))
                    .build(),
            );
        }
        if is_flow_edge(s) {
            if let Some(p) = by_id.get(&s.parent) {
                // Flow id = the child span id (unique per edge). The
                // start sits at the parent's end, the finish at the
                // child's start (clamped so the arrow never points
                // backwards in viewer time).
                let t_start = p.t1_ns.min(s.t0_ns);
                events.push(
                    base_event("s", p.track.tid(), t_start, "msg")
                        .field_str("cat", "flow")
                        .field_u64("id", s.span)
                        .build(),
                );
                events.push(
                    base_event("f", s.track.tid(), s.t0_ns.max(t_start), "msg")
                        .field_str("cat", "flow")
                        .field_str("bp", "e")
                        .field_u64("id", s.span)
                        .build(),
                );
            }
        }
    }
    Object::new()
        .field_raw("traceEvents", &array(events))
        .field_str("displayTimeUnit", "ms")
        .field_raw(
            "otherData",
            &Object::new().field_str("source", "md-telemetry").build(),
        )
        .build()
}

/// Sanitizes `name` into a filename stem.
fn stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Where [`write_chrome_trace`] puts the trace named `name` under `dir`:
/// `<dir>/<name>.trace.json`, the name sanitized into a filename stem.
pub fn chrome_trace_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{}.trace.json", stem(name)))
}

/// Writes `spans` to [`chrome_trace_path`], creating `dir` (e.g.
/// `results/traces`) as needed. Returns the written path.
pub fn write_chrome_trace(
    dir: &Path,
    name: &str,
    spans: &[SpanRecord],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = chrome_trace_path(dir, name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(chrome_trace_json(spans).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::recorder::Phase;
    use crate::trace::TraceCtx;
    use crate::Recorder;

    fn sample_spans() -> Vec<SpanRecord> {
        let r = Recorder::traced();
        let root = r.trace_root(0);
        {
            let gen = r.span_at(Phase::GenForward, Track::Server, root.ctx(), 0);
            drop(gen);
            let fb = r.span_at(Phase::DFeedback, Track::Worker(1), root.ctx(), 0);
            let dropped = r.trace_instant(
                SpanKind::Dropped { to: 0, attempt: 1 },
                Track::Worker(1),
                fb.ctx(),
                0,
            );
            let sent = r.trace_instant(
                SpanKind::Send {
                    to: 0,
                    bytes: 64,
                    attempt: 2,
                },
                Track::Worker(1),
                TraceCtx {
                    trace: fb.ctx().trace,
                    span: dropped,
                },
                0,
            );
            r.trace_instant(
                SpanKind::Recv { from: 1, bytes: 64 },
                Track::Server,
                TraceCtx {
                    trace: fb.ctx().trace,
                    span: sent,
                },
                0,
            );
        }
        drop(root);
        r.trace_spans()
    }

    #[test]
    fn export_parses_and_names_tracks() {
        let doc = chrome_trace_json(&sample_spans());
        let v = parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        // Track metadata names both tracks.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
            })
            .collect();
        assert!(names.contains(&"server"));
        assert!(names.contains(&"worker 1"));
    }

    #[test]
    fn retry_chain_exports_linked_flows() {
        let doc = chrome_trace_json(&sample_spans());
        let v = parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let starts: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("s"))
            .filter_map(|e| e.get("id").and_then(Value::as_f64))
            .collect();
        let finishes: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("f"))
            .filter_map(|e| e.get("id").and_then(Value::as_f64))
            .collect();
        // One flow for drop→retry, one for send→recv; starts and
        // finishes pair up by id.
        assert_eq!(starts.len(), 2);
        let mut a = starts.clone();
        let mut b = finishes.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b);
        // The retry event itself is named "retry".
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("retry")));
    }

    #[test]
    fn per_track_timestamps_are_monotone() {
        let doc = chrome_trace_json(&sample_spans());
        let v = parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let mut last: std::collections::BTreeMap<u64, f64> = Default::default();
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).unwrap();
            if ph != "X" && ph != "i" {
                continue;
            }
            let tid = e.get("tid").and_then(Value::as_f64).unwrap() as u64;
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            let prev = last.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
            assert!(ts >= prev, "track {tid} went backwards: {prev} > {ts}");
        }
    }

    #[test]
    fn write_creates_dir_and_sanitizes_name() {
        let dir = std::env::temp_dir().join(format!(
            "md-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = write_chrome_trace(&dir, "fig5 lossy/mnist", &sample_spans()).unwrap();
        assert!(path.ends_with("fig5_lossy_mnist.trace.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(parse(&body).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
