//! Spans the benchmark records around its own calls into the crates.
//!
//! Kept in memory and written when the run ends; off for every run that
//! reports end-to-end metrics.

use md_telemetry::json::Object;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// The timed unit the call belongs to (0 = set-up).
    unit: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Call count, total time and self time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// The span log of one run.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

/// Handle of an open span; close it with [`Spans::close`].
#[must_use = "an open span must be closed"]
pub struct Open(Option<usize>);

impl Spans {
    /// A log that records nothing.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// A recording log.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with timed unit `unit`.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            unit: self.unit,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn close(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Records `f` as one span.
    pub fn record<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        self.close(span);
        out
    }

    /// Totals per span name, self time = span minus its children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = Object::new()
                .field_u64("id", id as u64)
                .field_str("name", s.name)
                .field_u64("unit", s.unit)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns);
            o = match s.parent {
                Some(p) => o.field_u64("parent", p as u64),
                None => o.field_raw("parent", "null"),
            };
            writeln!(w, "{}", o.build())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::enabled();
        let outer = s.open("outer");
        s.record("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.record("inner", || ());
        s.close(outer);
        let t = s.totals();
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["outer"].count, 1);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert!(t["inner"].total_ns >= 5_000_000);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut s = Spans::disabled();
        assert_eq!(s.record("x", || 7), 7);
        assert!(s.totals().is_empty());
    }
}
