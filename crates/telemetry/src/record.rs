//! [`RunRecord`]: the end-of-run artifact.
//!
//! One record bundles everything needed to understand a run after the
//! fact — config, score timeline, traffic, per-phase histograms,
//! per-worker tallies, the retained event history and, when tracing is
//! on, the span-capture tally — and serializes as JSONL (one
//! self-describing object per line, `type`-tagged) so files stream
//! through standard tooling.

use crate::json::{self, Object};
use crate::recorder::{Counter, Phase, Recorder};
use crate::trace::CriticalPathReport;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One evaluation point on the score timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct ScorePoint {
    /// Run label (e.g. `mdgan_n4`).
    pub label: String,
    /// Iteration the scores were measured at.
    pub iter: usize,
    /// Inception-score-like metric.
    pub is_score: f64,
    /// FID-like metric.
    pub fid: f64,
}

/// Neutral view of a traffic report (mirrors simnet's `TrafficReport`
/// without depending on it — telemetry stays zero-dependency).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficSummary {
    /// Bytes received per node.
    pub ingress: Vec<u64>,
    /// Bytes sent per node.
    pub egress: Vec<u64>,
    /// Messages sent in total.
    pub messages: u64,
}

impl TrafficSummary {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.egress.iter().sum()
    }
}

/// Neutral view of the md-tensor worker-pool counters (mirrors
/// `md_tensor::pool::PoolStats` without depending on it — telemetry stays
/// zero-dependency). Attached to a [`RunRecord`] this shows whether kernel
/// calls reused the persistent pool (`threads_spawned == pool_size` in
/// steady state) or fell back to sequential execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Live worker threads in the pool.
    pub pool_size: u64,
    /// OS threads spawned since process start (== `pool_size` unless a
    /// worker died).
    pub threads_spawned: u64,
    /// Parallel jobs dispatched to the pool.
    pub jobs: u64,
    /// Kernel calls that ran sequentially (below threshold or nested).
    pub seq_jobs: u64,
    /// Individual task indices executed by pool workers.
    pub tasks: u64,
    /// Total nanoseconds pool workers spent executing tasks.
    pub busy_ns: u64,
}

/// Neutral view of the md-tensor workspace (recycling buffer pool)
/// counters — mirrors `md_tensor::workspace::WorkspaceStats` without
/// depending on it. Attached to a [`RunRecord`] this shows whether the
/// run's steady state was allocation-free: once warm, `ws_misses` stops
/// growing and every tensor buffer is served by recycling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceCounters {
    /// Buffer requests served from the recycling pool (no allocation).
    pub ws_hits: u64,
    /// Buffer requests that fell through to the allocator.
    pub ws_misses: u64,
    /// Total bytes of allocation traffic avoided by hits.
    pub ws_bytes_recycled: u64,
}

/// End-of-run artifact; build with the setters, then
/// [`RunRecord::write_jsonl`] under `results/`.
#[derive(Default)]
pub struct RunRecord {
    name: String,
    config_json: Option<String>,
    scores: Vec<ScorePoint>,
    traffic: Option<TrafficSummary>,
    pool: Option<PoolCounters>,
    workspace: Option<WorkspaceCounters>,
    critical: Option<CriticalPathReport>,
    extra: Vec<(String, f64)>,
}

impl RunRecord {
    /// A record for the run called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        RunRecord {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Attaches the run configuration as a pre-rendered JSON object.
    pub fn with_config_json(mut self, config: impl Into<String>) -> Self {
        self.config_json = Some(config.into());
        self
    }

    /// Attaches the score timeline.
    pub fn with_scores(mut self, scores: Vec<ScorePoint>) -> Self {
        self.scores = scores;
        self
    }

    /// Appends more score points — for records that bundle several labelled
    /// curves (one figure = many runs).
    pub fn with_scores_appended(mut self, scores: Vec<ScorePoint>) -> Self {
        self.scores.extend(scores);
        self
    }

    /// Attaches the traffic summary.
    pub fn with_traffic(mut self, traffic: TrafficSummary) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Attaches worker-pool counters sampled at the end of the run.
    pub fn with_pool_counters(mut self, pool: PoolCounters) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches workspace (buffer-pool) counters sampled at the end of the
    /// run.
    pub fn with_workspace_counters(mut self, workspace: WorkspaceCounters) -> Self {
        self.workspace = Some(workspace);
        self
    }

    /// Attaches the critical-path analysis extracted from a traced run:
    /// per-iteration `critical_iter` lines (which worker gated the
    /// generator update) plus per-worker `straggler` rollup lines.
    pub fn with_critical_path(mut self, report: CriticalPathReport) -> Self {
        self.critical = Some(report);
        self
    }

    /// Attaches a free-form named metric (wall time, final score, …).
    pub fn with_metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.extra.push((name.into(), value));
        self
    }

    /// Renders the record plus the recorder's state as JSONL lines.
    pub fn to_jsonl(&self, rec: &Recorder) -> String {
        let mut lines = Vec::new();

        let mut head = Object::new()
            .field_str("type", "run")
            .field_str("name", &self.name)
            .field_u64("elapsed_ns", rec.elapsed_ns());
        for (k, v) in &self.extra {
            head = head.field_f64(k, *v);
        }
        lines.push(head.build());

        if let Some(cfg) = &self.config_json {
            lines.push(
                Object::new()
                    .field_str("type", "config")
                    .field_raw("config", cfg)
                    .build(),
            );
        }

        for p in Phase::ALL {
            let s = rec.phase_stats(p);
            if s.count == 0 {
                continue;
            }
            lines.push(
                Object::new()
                    .field_str("type", "phase")
                    .field_str("name", p.as_str())
                    .field_u64("count", s.count)
                    .field_u64("p50_ns", s.p50)
                    .field_u64("p90_ns", s.p90)
                    .field_u64("p99_ns", s.p99)
                    .field_u64("max_ns", s.max)
                    .field_u64("total_ns", s.sum)
                    .build(),
            );
        }

        let mut counters = Object::new().field_str("type", "counters");
        for c in Counter::ALL {
            counters = counters.field_u64(c.as_str(), rec.counter(c));
        }
        lines.push(counters.build());

        for (i, w) in rec.worker_stats().iter().enumerate() {
            lines.push(
                Object::new()
                    .field_str("type", "worker")
                    .field_u64("worker", i as u64)
                    .field_u64("feedbacks", w.feedbacks)
                    .field_u64("faults", w.faults)
                    .field_u64("swaps_in", w.swaps_in)
                    .field_u64("stale_updates", w.stale_updates)
                    .field_u64("local_steps", w.local_steps)
                    .build(),
            );
        }

        if let Some(p) = &self.pool {
            lines.push(
                Object::new()
                    .field_str("type", "pool")
                    .field_u64("pool_size", p.pool_size)
                    .field_u64("threads_spawned", p.threads_spawned)
                    .field_u64("jobs", p.jobs)
                    .field_u64("seq_jobs", p.seq_jobs)
                    .field_u64("tasks", p.tasks)
                    .field_u64("busy_ns", p.busy_ns)
                    .build(),
            );
        }

        if let Some(w) = &self.workspace {
            lines.push(
                Object::new()
                    .field_str("type", "workspace")
                    .field_u64("ws_hits", w.ws_hits)
                    .field_u64("ws_misses", w.ws_misses)
                    .field_u64("ws_bytes_recycled", w.ws_bytes_recycled)
                    .build(),
            );
        }

        if let Some(t) = &self.traffic {
            lines.push(
                Object::new()
                    .field_str("type", "traffic")
                    .field_raw("ingress", &json::array_u64(&t.ingress))
                    .field_raw("egress", &json::array_u64(&t.egress))
                    .field_u64("messages", t.messages)
                    .field_u64("total_bytes", t.total_bytes())
                    .build(),
            );
        }

        if let Some(cp) = &self.critical {
            for it in &cp.iters {
                lines.push(
                    Object::new()
                        .field_str("type", "critical_iter")
                        .field_u64("iter", it.iter)
                        .field_u64("gating_worker", u64::from(it.gating_worker))
                        .field_u64("gate_ns", it.gate_ns)
                        .field_u64("retries", u64::from(it.retries))
                        .field_u64("retry_delay_ns", it.retry_delay_ns)
                        .build(),
                );
            }
            for w in &cp.per_worker {
                lines.push(
                    Object::new()
                        .field_str("type", "straggler")
                        .field_u64("worker", u64::from(w.worker))
                        .field_u64("gated", w.gated)
                        .field_u64("observed", w.observed)
                        .field_u64("slack_mean_ns", w.slack_mean_ns())
                        .field_u64("slack_max_ns", w.slack_max_ns)
                        .field_u64("retries", w.retries)
                        .build(),
                );
            }
        }

        for s in &self.scores {
            lines.push(
                Object::new()
                    .field_str("type", "score")
                    .field_str("label", &s.label)
                    .field_u64("iter", s.iter as u64)
                    .field_f64("is", s.is_score)
                    .field_f64("fid", s.fid)
                    .build(),
            );
        }

        if rec.trace_enabled() {
            lines.push(
                Object::new()
                    .field_str("type", "trace")
                    .field_u64("spans", rec.trace_span_count())
                    .field_u64("dropped", rec.trace_spans_dropped())
                    .build(),
            );
        }

        for e in rec.events() {
            lines.push(e.to_json());
        }
        let dropped = rec.events_dropped();
        if dropped > 0 {
            lines.push(
                Object::new()
                    .field_str("type", "events_dropped")
                    .field_u64("count", dropped)
                    .build(),
            );
        }

        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Where [`RunRecord::write_jsonl`] puts the record under `dir`:
    /// `<dir>/<name>.telemetry.jsonl`.
    pub fn jsonl_path(&self, dir: impl AsRef<Path>) -> PathBuf {
        dir.as_ref().join(format!("{}.telemetry.jsonl", self.name))
    }

    /// Writes the record to [`RunRecord::jsonl_path`], creating `dir` if
    /// needed, and returns the path written.
    pub fn write_jsonl(&self, dir: impl AsRef<Path>, rec: &Recorder) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir.as_ref())?;
        let path = self.jsonl_path(dir);
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_jsonl(rec).as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn busy_recorder() -> Recorder {
        let r = Recorder::enabled();
        {
            let _s = r.span(Phase::GenForward);
        }
        {
            let _s = r.span(Phase::Swap);
        }
        r.event(Event::IterDone { iter: 0, alive: 2 });
        r.event(Event::WorkerFault { iter: 1, worker: 1 });
        r.worker_feedback(0);
        r
    }

    #[test]
    fn jsonl_contains_all_sections() {
        let rec = busy_recorder();
        let rr = RunRecord::new("unit")
            .with_config_json(r#"{"workers":2}"#)
            .with_scores(vec![ScorePoint {
                label: "unit".into(),
                iter: 10,
                is_score: 1.5,
                fid: 30.0,
            }])
            .with_traffic(TrafficSummary {
                ingress: vec![5, 0],
                egress: vec![0, 5],
                messages: 1,
            })
            .with_metric("wall_s", 0.25);
        let text = rr.to_jsonl(&rec);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains(r#""type":"run""#) && lines[0].contains(r#""wall_s":0.25"#));
        assert!(text.contains(r#""type":"config","config":{"workers":2}"#));
        assert!(text.contains(r#""name":"gen_forward""#));
        assert!(text.contains(r#""name":"swap""#));
        assert!(text.contains(r#""type":"counters""#));
        assert!(text.contains(r#""type":"worker","worker":0,"feedbacks":1"#));
        assert!(text.contains(r#""type":"traffic"#));
        assert!(text.contains(r#""total_bytes":5"#));
        assert!(text.contains(r#""type":"score","label":"unit","iter":10,"is":1.5,"fid":30.0"#));
        assert!(text.contains(r#""type":"iter_done""#));
        assert!(text.contains(r#""type":"worker_fault""#));
        // Every line parses as a flat JSON object by the crude brace test.
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        }
    }

    #[test]
    fn pool_counters_render_as_one_line() {
        let rec = Recorder::enabled();
        let rr = RunRecord::new("pool").with_pool_counters(PoolCounters {
            pool_size: 3,
            threads_spawned: 3,
            jobs: 40,
            seq_jobs: 7,
            tasks: 120,
            busy_ns: 9000,
        });
        let text = rr.to_jsonl(&rec);
        assert!(text.contains(
            r#""type":"pool","pool_size":3,"threads_spawned":3,"jobs":40,"seq_jobs":7,"tasks":120,"busy_ns":9000"#
        ));
        // Omitted when never attached.
        assert!(!RunRecord::new("nopool")
            .to_jsonl(&rec)
            .contains(r#""type":"pool""#));
    }

    #[test]
    fn workspace_counters_render_as_one_line() {
        let rec = Recorder::enabled();
        let rr = RunRecord::new("ws").with_workspace_counters(WorkspaceCounters {
            ws_hits: 100,
            ws_misses: 4,
            ws_bytes_recycled: 8192,
        });
        let text = rr.to_jsonl(&rec);
        assert!(text.contains(
            r#""type":"workspace","ws_hits":100,"ws_misses":4,"ws_bytes_recycled":8192"#
        ));
        // Omitted when never attached.
        assert!(!RunRecord::new("nows")
            .to_jsonl(&rec)
            .contains(r#""type":"workspace""#));
    }

    #[test]
    fn appended_scores_accumulate_across_curves() {
        let rec = Recorder::enabled();
        let mk = |label: &str| {
            vec![ScorePoint {
                label: label.into(),
                iter: 1,
                is_score: 1.0,
                fid: 2.0,
            }]
        };
        let rr = RunRecord::new("multi")
            .with_scores_appended(mk("a"))
            .with_scores_appended(mk("b"));
        let text = rr.to_jsonl(&rec);
        assert!(text.contains(r#""label":"a""#));
        assert!(text.contains(r#""label":"b""#));
    }

    #[test]
    fn empty_phases_are_omitted() {
        let rec = Recorder::enabled();
        let text = RunRecord::new("idle").to_jsonl(&rec);
        assert!(!text.contains(r#""type":"phase""#));
        assert!(text.contains(r#""type":"counters""#));
    }

    #[test]
    fn trace_line_counts_captured_and_dropped_spans() {
        let traced = Recorder::traced();
        for iter in 0..3 {
            let _root = traced.trace_root(iter);
        }
        let text = RunRecord::new("traced").to_jsonl(&traced);
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(r#""type":"trace""#))
            .collect();
        assert_eq!(lines, [r#"{"type":"trace","spans":3,"dropped":0}"#]);
        // No line at all when span capture is off.
        let text = RunRecord::new("untraced").to_jsonl(&busy_recorder());
        assert!(!text.contains(r#""type":"trace""#));
    }

    #[test]
    fn write_jsonl_creates_file() {
        let rec = busy_recorder();
        let dir = std::env::temp_dir().join("md_telemetry_test");
        let path = RunRecord::new("filetest").write_jsonl(&dir, &rec).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert!(read.contains(r#""type":"run""#));
        assert!(path.to_string_lossy().ends_with("filetest.telemetry.jsonl"));
        std::fs::remove_file(path).ok();
    }
}
