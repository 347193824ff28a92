//! Live introspection endpoint: Prometheus-style text exposition over a
//! plain `std::net` TCP listener.
//!
//! Opt-in and fully decoupled from the training loop: a background
//! thread owns the listener and renders a fresh snapshot of the shared
//! [`Recorder`] per scrape — counters as `mdgan_<name>_total`, phase
//! histograms as `mdgan_phase_duration_ns` summaries (p50/p90/p99),
//! per-worker tallies, the failure-detector suspect set (replayed from
//! the event ring), plus caller-registered gauges (the bench harness
//! registers tensor-pool and workspace gauges). This is the stepping
//! stone to the ROADMAP's `md-serve` daemon.
//!
//! The exposition format is the Prometheus text format v0.0.4; any HTTP
//! request on the socket gets a `200 text/plain` with the full snapshot.

use crate::recorder::{Counter, Phase, Recorder};
use crate::Event;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A caller-registered gauge: scraped live, labels optional
/// (pre-rendered, e.g. `{worker="3"}` or empty).
pub struct Gauge {
    /// Metric family name (`mdgan_pool_busy_ns`, ...).
    pub name: String,
    /// One-line HELP text.
    pub help: String,
    /// Snapshot function; returns `(labels, value)` samples.
    #[allow(clippy::type_complexity)]
    pub read: Box<dyn Fn() -> Vec<(String, f64)> + Send + Sync>,
}

impl Gauge {
    /// A label-free gauge.
    pub fn new(name: &str, help: &str, read: impl Fn() -> f64 + Send + Sync + 'static) -> Self {
        Gauge {
            name: name.to_string(),
            help: help.to_string(),
            read: Box::new(move || vec![(String::new(), read())]),
        }
    }
}

fn sample(out: &mut String, name: &str, labels: &str, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        out.push_str(&format!("{name}{labels} {}\n", v as i64));
    } else {
        out.push_str(&format!("{name}{labels} {v}\n"));
    }
}

/// Renders one exposition snapshot of `rec` (plus `gauges`).
pub fn render(rec: &Recorder, gauges: &[Gauge]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP mdgan_up Whether the run is live.\n# TYPE mdgan_up gauge\nmdgan_up 1\n");
    out.push_str("# HELP mdgan_uptime_seconds Wall seconds since the recorder was created.\n");
    out.push_str("# TYPE mdgan_uptime_seconds gauge\n");
    sample(
        &mut out,
        "mdgan_uptime_seconds",
        "",
        rec.elapsed_ns() as f64 / 1e9,
    );
    for c in Counter::ALL {
        let name = format!("mdgan_{}_total", c.as_str());
        out.push_str(&format!("# TYPE {name} counter\n"));
        sample(&mut out, &name, "", rec.counter(c) as f64);
    }
    out.push_str(
        "# HELP mdgan_phase_duration_ns Wall time per phase (log-bucketed estimates).\n\
         # TYPE mdgan_phase_duration_ns summary\n",
    );
    for p in Phase::ALL {
        let s = rec.phase_stats(p);
        if s.count == 0 {
            continue;
        }
        let ph = p.as_str();
        for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
            sample(
                &mut out,
                "mdgan_phase_duration_ns",
                &format!("{{phase=\"{ph}\",quantile=\"{q}\"}}"),
                v as f64,
            );
        }
        sample(
            &mut out,
            "mdgan_phase_duration_ns_sum",
            &format!("{{phase=\"{ph}\"}}"),
            s.sum as f64,
        );
        sample(
            &mut out,
            "mdgan_phase_duration_ns_count",
            &format!("{{phase=\"{ph}\"}}"),
            s.count as f64,
        );
    }
    let workers = rec.worker_stats();
    if !workers.is_empty() {
        out.push_str("# TYPE mdgan_worker_feedbacks_total counter\n");
        for (i, w) in workers.iter().enumerate() {
            sample(
                &mut out,
                "mdgan_worker_feedbacks_total",
                &format!("{{worker=\"{i}\"}}"),
                w.feedbacks as f64,
            );
        }
    }
    // Failure-detector suspect set, replayed from the retained events:
    // a worker is currently suspected iff its last suspected/rejoined
    // transition was "suspected".
    let mut suspected: std::collections::BTreeMap<usize, bool> = Default::default();
    for e in rec.events() {
        match e.event {
            Event::WorkerSuspected { worker, .. } => {
                suspected.insert(worker, true);
            }
            Event::WorkerRejoined { worker, .. } => {
                suspected.insert(worker, false);
            }
            _ => {}
        }
    }
    if !suspected.is_empty() {
        out.push_str(
            "# HELP mdgan_worker_suspected 1 while the failure detector suspects the worker.\n\
             # TYPE mdgan_worker_suspected gauge\n",
        );
        for (w, sus) in suspected {
            sample(
                &mut out,
                "mdgan_worker_suspected",
                &format!("{{worker=\"{w}\"}}"),
                if sus { 1.0 } else { 0.0 },
            );
        }
    }
    // Forensics flag set, replayed the same way: a worker is currently
    // flagged iff its last flagged/cleared transition was "flagged".
    let mut flagged: std::collections::BTreeMap<usize, bool> = Default::default();
    for e in rec.events() {
        match e.event {
            Event::WorkerFlagged { worker, .. } => {
                flagged.insert(worker, true);
            }
            Event::WorkerCleared { worker, .. } => {
                flagged.insert(worker, false);
            }
            _ => {}
        }
    }
    if !flagged.is_empty() {
        out.push_str(
            "# HELP mdgan_worker_flagged 1 while the feedback forensics flags the worker as a free-rider.\n\
             # TYPE mdgan_worker_flagged gauge\n",
        );
        for (w, f) in flagged {
            sample(
                &mut out,
                "mdgan_worker_flagged",
                &format!("{{worker=\"{w}\"}}"),
                if f { 1.0 } else { 0.0 },
            );
        }
    }
    if rec.trace_enabled() {
        out.push_str("# TYPE mdgan_trace_spans gauge\n");
        sample(
            &mut out,
            "mdgan_trace_spans",
            "",
            rec.trace_spans().len() as f64,
        );
    }
    for g in gauges {
        out.push_str(&format!(
            "# HELP {} {}\n# TYPE {} gauge\n",
            g.name, g.help, g.name
        ));
        for (labels, v) in (g.read)() {
            sample(&mut out, &g.name, &labels, v);
        }
    }
    out
}

/// Handle to the background exposition server; shuts down on drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and
    /// serves scrapes of `rec` from a background thread until dropped.
    pub fn spawn(
        rec: Arc<Recorder>,
        addr: &str,
        gauges: Vec<Gauge>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("md-metrics".to_string())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Scrape errors only lose one response.
                            let _ = serve_one(stream, &rec, &gauges);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

fn serve_one(mut stream: TcpStream, rec: &Recorder, gauges: &[Gauge]) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Drain the request line + headers (best effort; any request gets
    // the same snapshot).
    let mut buf = [0u8; 1024];
    let mut seen: Vec<u8> = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                seen.extend_from_slice(&buf[..n]);
                if seen.windows(4).any(|w| w == b"\r\n\r\n") || seen.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render(rec, gauges);
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(resp.as_bytes())
}

/// Spawns a server only when an address is configured: the explicit
/// `addr` argument wins, else the `METRICS_ADDR` environment variable.
/// Returns `None` (and a stderr note on bind failure) otherwise.
pub fn serve_if_configured(
    rec: &Arc<Recorder>,
    addr: Option<&str>,
    gauges: Vec<Gauge>,
) -> Option<MetricsServer> {
    let addr = match addr {
        Some(a) => a.to_string(),
        None => std::env::var("METRICS_ADDR").ok()?,
    };
    match MetricsServer::spawn(Arc::clone(rec), &addr, gauges) {
        Ok(s) => {
            eprintln!("metrics: serving on http://{}/metrics", s.addr());
            Some(s)
        }
        Err(e) => {
            eprintln!("metrics: failed to bind {addr}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn render_contains_required_families() {
        let rec = Recorder::enabled();
        rec.event(Event::IterDone { iter: 0, alive: 3 });
        {
            let _s = rec.span(Phase::GUpdate);
        }
        rec.event(Event::WorkerSuspected { iter: 1, worker: 2 });
        let out = render(
            &rec,
            &[Gauge::new("mdgan_pool_size", "pool threads", || 4.0)],
        );
        assert!(out.contains("mdgan_up 1"));
        assert!(out.contains("mdgan_iterations_total 1"));
        assert!(out.contains("# TYPE mdgan_phase_duration_ns summary"));
        assert!(out.contains("mdgan_phase_duration_ns{phase=\"g_update\",quantile=\"0.5\"}"));
        assert!(out.contains("mdgan_phase_duration_ns_count{phase=\"g_update\"} 1"));
        assert!(out.contains("mdgan_worker_suspected{worker=\"2\"} 1"));
        assert!(out.contains("mdgan_pool_size 4"));
    }

    #[test]
    fn rejoin_clears_the_suspect_gauge() {
        let rec = Recorder::enabled();
        rec.event(Event::WorkerSuspected { iter: 1, worker: 2 });
        rec.event(Event::WorkerRejoined { iter: 2, worker: 2 });
        let out = render(&rec, &[]);
        assert!(out.contains("mdgan_worker_suspected{worker=\"2\"} 0"));
    }

    #[test]
    fn server_serves_scrapes_and_shuts_down() {
        let rec = Arc::new(Recorder::enabled());
        rec.incr(Counter::Iterations, 7);
        let srv = MetricsServer::spawn(Arc::clone(&rec), "127.0.0.1:0", vec![]).unwrap();
        let addr = srv.addr();
        let resp = scrape(addr);
        assert!(resp.starts_with("HTTP/1.1 200 OK"));
        assert!(resp.contains("text/plain; version=0.0.4"));
        assert!(resp.contains("mdgan_iterations_total 7"));
        // Counters move between scrapes: the endpoint is live, not a
        // start-of-run snapshot.
        rec.incr(Counter::Iterations, 1);
        assert!(scrape(addr).contains("mdgan_iterations_total 8"));
        drop(srv);
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Accept a race where the OS still completes one connect
                // after shutdown; a second attempt must fail.
                std::thread::sleep(Duration::from_millis(50));
                TcpStream::connect(addr).is_err()
            }
        );
    }

    #[test]
    fn serve_if_configured_requires_an_address() {
        let rec = Arc::new(Recorder::enabled());
        std::env::remove_var("METRICS_ADDR");
        assert!(serve_if_configured(&rec, None, vec![]).is_none());
        let s = serve_if_configured(&rec, Some("127.0.0.1:0"), vec![]).unwrap();
        assert!(scrape(s.addr()).contains("mdgan_up 1"));
    }
}
