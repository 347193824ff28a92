//! The four workloads, their set-up, and the loop that times them.
//!
//! All four share the paper's defaults — `k = ⌊log₂N⌋`, `E = 1`,
//! derangement swap, `Codec::None`, no faults, churn or attacks, recorder
//! disabled — and a shard of [`SHARD_SIZE`] images per worker, so a swap
//! comes every `400 / b` iterations and a run of seconds crosses several.

use crate::reference::Reference;
use crate::spans::Spans;
use crate::sys;
use md_data::{DataSpec, Dataset};
use md_telemetry::Recorder;
use md_tensor::rng::Rng64;
use mdgan_core::complexity::{ModelSize, SysParams};
use mdgan_core::mdgan::threaded::{run_threaded_with, ThreadedResult};
use mdgan_core::{ArchSpec, GanHyper, MdGan, MdGanConfig};
use std::sync::Arc;
use std::time::Instant;

/// Images per worker shard (`m`).
pub const SHARD_SIZE: usize = 400;

/// Which architecture and dataset family a workload trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// `ArchSpec::paper_mnist_mlp()` on 28² MNIST-like images.
    PaperMlp,
    /// `ArchSpec::cnn_cifar_scaled(32)` on 32² CIFAR-like images.
    CifarCnn,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses and the ones it
    /// bypasses.
    pub why: &'static str,
    pub net: Net,
    /// Workers `N`.
    pub workers: usize,
    /// Batch size `b`.
    pub batch: usize,
    /// `md-tensor` thread cap, the `TENSOR_THREADS` of the run.
    pub tensor_threads: usize,
    /// Generator iterations in one timed unit: 1 for `MdGan::step`, a whole
    /// `run_threaded` call for the threaded runtime.
    pub iters_per_unit: usize,
    /// Units of a full-length fixed-count run (`--seed-test` runs a tenth).
    pub full_units: usize,
    /// The unit after which peak memory is read. The workspace pool keeps
    /// growing for tens of iterations, so memory is a function of the
    /// iteration count, and a window that ends on the clock must read it
    /// at a fixed one.
    pub rss_units: usize,
    /// What the frozen baseline does alone on the sandbox host in its fast
    /// mode. The gated timings are these three scaled by the paired ratio,
    /// so they read as iterations per second and milliseconds whatever the
    /// host is doing to both sides.
    pub baseline_iters_per_s: f64,
    pub baseline_cpu_ms_per_iter: f64,
    pub baseline_setup_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mlp_b10_seq",
        why: "paper MNIST-MLP, N=10, b=10, 1 thread: skinny 10-row GEMMs, Adam over 0.67M params per worker and 2.7 MB swaps make it bandwidth- and copy-bound; conv code does nothing here",
        net: Net::PaperMlp,
        workers: 10,
        batch: 10,
        tensor_threads: 1,
        iters_per_unit: 1,
        full_units: 400,
        rss_units: 40,
        baseline_iters_per_s: 14.6,
        baseline_cpu_ms_per_iter: 68.4,
        baseline_setup_s: 0.055,
    },
    Workload {
        name: "cnn_b10_seq",
        why: "paper CIFAR10 CNN, N=10, b=10, 1 thread: implicit-GEMM conv and conv-transpose, batchnorm and minibatch discrimination at tiny shapes do the work; dense GEMM and swap bytes do little",
        net: Net::CifarCnn,
        workers: 10,
        batch: 10,
        tensor_threads: 1,
        iters_per_unit: 1,
        full_units: 480,
        rss_units: 40,
        baseline_iters_per_s: 16.5,
        baseline_cpu_ms_per_iter: 60.6,
        baseline_setup_s: 0.172,
    },
    Workload {
        name: "cnn_b10_thr2",
        why: "same CNN through run_threaded, N=2 worker threads (= nproc): the only workload crossing md-simnet endpoints, message clones and thread hand-off; runtime changes must not move cnn_b10_seq",
        net: Net::CifarCnn,
        workers: 2,
        batch: 10,
        tensor_threads: 1,
        iters_per_unit: 60,
        full_units: 40,
        rss_units: 4,
        baseline_iters_per_s: 70.0,
        baseline_cpu_ms_per_iter: 20.2,
        baseline_setup_s: 0.038,
    },
    Workload {
        name: "mlp_b100_mt2",
        why: "paper MLP at the paper's other batch size b=100, 2 tensor threads: 100-row compute-bound GEMMs above the parallel gate; GEMM thread scaling shows here and must leave mlp_b10_seq unchanged",
        net: Net::PaperMlp,
        workers: 10,
        batch: 100,
        tensor_threads: 2,
        iters_per_unit: 1,
        full_units: 180,
        rss_units: 24,
        baseline_iters_per_s: 5.2,
        baseline_cpu_ms_per_iter: 266.0,
        baseline_setup_s: 0.055,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How long a timed window lasts.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// At least this many seconds (and one whole swap period), and at
    /// least `min_units` units.
    Seconds { seconds: f64, min_units: usize },
    /// This many units, rounded up to whole swap periods.
    Units(usize),
}

/// FNV-1a over the bit patterns of `params`: equal only for bit-identical
/// generators.
pub fn checksum(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in params {
        for byte in p.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The Table III closed form for a workload's traffic.
#[derive(Clone, Copy, Debug)]
pub struct TrafficForm {
    /// Bytes of one iteration: `2bd` down and `bd` up per worker.
    pub per_iter: u64,
    /// Bytes of one swap round: `|θ|` per worker.
    pub per_swap: u64,
    /// Iterations between swaps, `⌊mE/b⌋`.
    pub swap_interval: usize,
}

impl TrafficForm {
    /// Bytes of `iters` iterations that start on a swap-period boundary.
    pub fn expected(&self, iters: usize) -> u64 {
        iters as u64 * self.per_iter + (iters / self.swap_interval) as u64 * self.per_swap
    }
}

impl Workload {
    pub fn spec(&self) -> ArchSpec {
        match self.net {
            Net::PaperMlp => ArchSpec::paper_mnist_mlp(),
            Net::CifarCnn => ArchSpec::cnn_cifar_scaled(32),
        }
    }

    /// The dataset of `N·m` images made from `seed`.
    pub fn data_spec(&self, seed: u64) -> DataSpec {
        let n = self.workers * SHARD_SIZE;
        match self.net {
            Net::PaperMlp => DataSpec::mnist(28, n, seed),
            Net::CifarCnn => DataSpec::cifar(32, n, seed),
        }
    }

    pub fn config(&self, seed: u64) -> MdGanConfig {
        MdGanConfig {
            workers: self.workers,
            hyper: GanHyper {
                batch: self.batch,
                ..GanHyper::default()
            },
            seed,
            ..MdGanConfig::default()
        }
    }

    pub fn threaded(&self) -> bool {
        self.iters_per_unit > 1
    }

    /// Builds one generator and one discriminator to count `|w|` and `|θ|`;
    /// call it outside any timer.
    pub fn traffic_form(&self) -> TrafficForm {
        let spec = self.spec();
        let mut rng = Rng64::seed_from_u64(0);
        let cfg = self.config(0);
        let sys = SysParams {
            n: self.workers,
            b: self.batch,
            d: spec.object_size(),
            k: cfg.k.resolve(self.workers),
            m: SHARD_SIZE,
            e: 1.0,
            iters: 0,
            model: ModelSize {
                gen: spec.build_generator(&mut rng).num_params(),
                disc: spec.build_discriminator(&mut rng).num_params(),
            },
        };
        TrafficForm {
            per_iter: sys.mdgan_c2w_server_bytes() + sys.mdgan_w2c_server_bytes(),
            per_swap: self.workers as u64 * sys.mdgan_w2w_bytes(),
            swap_interval: cfg.swap_interval(SHARD_SIZE),
        }
    }

    /// Everything a run pays before its first iteration: dataset
    /// synthesis, `shard_iid`, and trainer construction.
    pub fn setup(&self, seed: u64, form: TrafficForm, spans: &mut Spans) -> Session {
        let outer = spans.open("setup");
        let spec = self.spec();
        let cfg = self.config(seed);
        let data = spans.record("data.generate", || self.data_spec(seed).generate());
        let shards = spans.record("data.shard_iid", || {
            data.shard_iid(self.workers, &mut Rng64::seed_from_u64(seed))
        });
        drop(data);
        let trainer = if self.threaded() {
            // The threaded runtime builds its trainer inside every call;
            // a zero-iteration call is that construction and nothing else.
            let copy = shards.clone();
            spans.record("core.run_threaded", || {
                run_threaded_with(&spec, copy, cfg.clone(), None, 0, 0, disabled())
            });
            Trainer::Threaded {
                shards,
                warm_checksum: None,
            }
        } else {
            let md = spans.record("core.mdgan_new", || MdGan::new(&spec, shards, cfg.clone()));
            Trainer::Sequential {
                md: Some(Box::new(md)),
                warm: false,
            }
        };
        spans.close(outer);
        Session {
            workload: *self,
            spec,
            cfg,
            form,
            trainer,
        }
    }
}

/// A recorder that records nothing: what every untraced unit reports to.
pub fn disabled() -> Arc<Recorder> {
    Arc::new(Recorder::disabled())
}

enum Trainer {
    Sequential {
        /// `None` only while a recorder is being attached.
        md: Option<Box<MdGan>>,
        /// Whether the untimed warm-up iteration has run.
        warm: bool,
    },
    Threaded {
        /// The shards every `run_threaded` call starts from.
        shards: Vec<Dataset>,
        /// The generator the untimed warm-up call ended on, which every
        /// later call — the same run from the same seed — must reproduce.
        warm_checksum: Option<u64>,
    },
}

/// A set-up workload, ready to be timed.
pub struct Session {
    workload: Workload,
    spec: ArchSpec,
    cfg: MdGanConfig,
    form: TrafficForm,
    trainer: Trainer,
}

/// `md-tensor` workspace and pool counters at one moment.
struct Counters {
    ws: md_tensor::workspace::WorkspaceStats,
    pool: md_tensor::pool::PoolStats,
}

impl Counters {
    fn now() -> Self {
        Counters {
            ws: md_tensor::workspace::stats(),
            pool: md_tensor::pool::stats(),
        }
    }
}

/// What one timed window measured.
pub struct Window {
    pub iters_per_unit: usize,
    /// Wall seconds of each unit.
    pub wall_s: Vec<f64>,
    /// Process CPU seconds of each unit.
    pub cpu_s: Vec<f64>,
    /// Wall and CPU seconds of the baseline unit paired with each unit;
    /// empty when the window ran unpaired.
    pub ref_wall_s: Vec<f64>,
    pub ref_cpu_s: Vec<f64>,
    /// Units whose output check failed.
    pub failed: usize,
    /// `VmHWM` in MiB once `rss_units` units were done, if the window got
    /// that far.
    pub peak_rss_mb: Option<f64>,
    /// Bytes moved over the whole swap periods of the window.
    pub bytes: u64,
    /// Iterations those bytes belong to.
    pub bytes_iters: usize,
    /// What the Table III closed form says those iterations move.
    pub bytes_expected: u64,
    /// Checksum of the generator the window ended on.
    pub gen_checksum: u64,
    /// `md-tensor` workspace and pool counter deltas over the window.
    pub ws_hits: u64,
    pub ws_misses: u64,
    pub pool_jobs: u64,
    start: Instant,
    before: Counters,
}

impl Window {
    fn open(workload: &Workload) -> Self {
        Window {
            iters_per_unit: workload.iters_per_unit,
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
            ref_wall_s: Vec::new(),
            ref_cpu_s: Vec::new(),
            failed: 0,
            peak_rss_mb: None,
            bytes: 0,
            bytes_iters: 0,
            bytes_expected: 0,
            gen_checksum: 0,
            ws_hits: 0,
            ws_misses: 0,
            pool_jobs: 0,
            start: Instant::now(),
            before: Counters::now(),
        }
    }

    pub fn iters(&self) -> usize {
        self.wall_s.len() * self.iters_per_unit
    }

    pub fn bytes_per_iter(&self) -> f64 {
        self.bytes as f64 / self.bytes_iters as f64
    }

    /// Whether the measured bytes equal the closed form, to the byte.
    pub fn bytes_exact(&self) -> bool {
        self.bytes == self.bytes_expected
    }

    /// Times one unit of the code under test and, if the window is paired,
    /// one baseline unit, the two taking turns to go first; then reads
    /// peak memory if this was the unit to read it after.
    fn time_unit<T>(
        &mut self,
        workload: &Workload,
        reference: &mut Option<&mut Reference>,
        unit: impl FnOnce() -> T,
    ) -> T {
        let baseline_first = self.wall_s.len() % 2 == 1;
        if baseline_first {
            self.time_baseline(reference);
        }
        let cpu0 = sys::process_cpu_s();
        let t0 = Instant::now();
        let out = unit();
        self.wall_s.push(t0.elapsed().as_secs_f64());
        self.cpu_s.push(sys::process_cpu_s() - cpu0);
        if !baseline_first {
            self.time_baseline(reference);
        }
        if self.wall_s.len() == workload.rss_units {
            self.peak_rss_mb = Some(sys::peak_rss_mib());
        }
        out
    }

    fn time_baseline(&mut self, reference: &mut Option<&mut Reference>) {
        if let Some(r) = reference {
            let cpu0 = sys::process_cpu_s();
            let t0 = Instant::now();
            r.unit();
            self.ref_wall_s.push(t0.elapsed().as_secs_f64());
            self.ref_cpu_s.push(sys::process_cpu_s() - cpu0);
        }
    }

    /// Whether `budget` is spent, whole swap periods aside.
    fn spent(&self, budget: Budget) -> bool {
        match budget {
            Budget::Seconds { seconds, min_units } => {
                self.start.elapsed().as_secs_f64() >= seconds && self.wall_s.len() >= min_units
            }
            Budget::Units(n) => self.wall_s.len() >= n,
        }
    }

    fn close(mut self) -> Self {
        let after = Counters::now();
        self.ws_hits = after.ws.hits - self.before.ws.hits;
        self.ws_misses = after.ws.misses - self.before.ws.misses;
        self.pool_jobs = after.pool.jobs - self.before.pool.jobs;
        self
    }
}

impl Session {
    /// Routes the trainer's telemetry into `recorder` from now on.
    pub fn attach(&mut self, recorder: &Arc<Recorder>) {
        if let Trainer::Sequential { md, .. } = &mut self.trainer {
            let trainer = md.take().expect("trainer present between runs");
            *md = Some(Box::new(trainer.with_telemetry(Arc::clone(recorder))));
        }
    }

    /// Times units until `budget` is spent, after one untimed unit (pool
    /// spawn, workspace fill) on the first call. `recorder` is where the
    /// threaded runtime reports; the sequential one reports where
    /// [`attach`] said. With a `reference`, each unit is paired with one
    /// baseline unit.
    ///
    /// [`attach`]: Session::attach
    pub fn run(
        &mut self,
        budget: Budget,
        recorder: &Arc<Recorder>,
        spans: &mut Spans,
        mut reference: Option<&mut Reference>,
    ) -> Window {
        let (workload, form) = (self.workload, self.form);
        match &mut self.trainer {
            Trainer::Sequential { md, warm } => {
                let md = md.as_mut().expect("trainer present between runs");
                if !std::mem::replace(warm, true) {
                    md.step();
                }
                let anchor_iters = md.iterations();
                let anchor_bytes = md.traffic().total_bytes();
                let mut win = Window::open(&workload);
                loop {
                    spans.set_unit(win.wall_s.len() as u64 + 1);
                    win.time_unit(&workload, &mut reference, || {
                        spans.record("core.step", || md.step())
                    });
                    if md.generator_mut().net.params_finite_max_abs().is_none() {
                        win.failed += 1;
                    }
                    // Traffic is read on swap-period boundaries only, so
                    // bytes per iteration does not depend on where the
                    // clock happened to stop the window.
                    let done_iters = md.iterations() - anchor_iters;
                    let on_boundary = done_iters.is_multiple_of(form.swap_interval);
                    if on_boundary {
                        let report = spans.record("core.traffic", || md.traffic());
                        win.bytes = report.total_bytes() - anchor_bytes;
                        win.bytes_iters = done_iters;
                        win.bytes_expected = form.expected(done_iters);
                    }
                    let whole_periods = match budget {
                        Budget::Seconds { .. } => win.bytes_iters > 0,
                        Budget::Units(_) => on_boundary,
                    };
                    if win.spent(budget) && whole_periods {
                        break;
                    }
                }
                win.gen_checksum = checksum(&md.gen_params());
                win.close()
            }
            Trainer::Threaded {
                shards,
                warm_checksum,
            } => {
                let iters = workload.iters_per_unit;
                let (spec, cfg) = (self.spec, &self.cfg);
                let call = |spans: &mut Spans| -> ThreadedResult {
                    let copy = shards.clone();
                    spans.record("core.run_threaded", || {
                        run_threaded_with(
                            &spec,
                            copy,
                            cfg.clone(),
                            None,
                            iters,
                            0,
                            Arc::clone(recorder),
                        )
                    })
                };
                let expected = *warm_checksum
                    .get_or_insert_with(|| checksum(&call(&mut Spans::disabled()).gen_params));
                let mut win = Window::open(&workload);
                win.gen_checksum = expected;
                loop {
                    spans.set_unit(win.wall_s.len() as u64 + 1);
                    let result = win.time_unit(&workload, &mut reference, || call(spans));
                    // Every call starts at iteration 0, so the closed form
                    // applies call by call.
                    let bytes = result.traffic.total_bytes();
                    let exact = bytes == form.expected(iters);
                    win.bytes += bytes;
                    win.bytes_iters += iters;
                    win.bytes_expected += form.expected(iters);
                    let finite = result.gen_params.iter().all(|p| p.is_finite());
                    if !(finite && exact && checksum(&result.gen_params) == expected) {
                        win.failed += 1;
                    }
                    if win.spent(budget) {
                        break;
                    }
                }
                win.close()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn closed_form_counts_one_swap_per_period() {
        let f = TrafficForm {
            per_iter: 10,
            per_swap: 1000,
            swap_interval: 40,
        };
        assert_eq!(f.expected(39), 390);
        assert_eq!(f.expected(40), 1400);
        assert_eq!(f.expected(100), 3000);
    }

    #[test]
    fn checksum_separates_bit_patterns() {
        assert_eq!(checksum(&[1.0, 2.0]), checksum(&[1.0, 2.0]));
        assert_ne!(checksum(&[1.0, 2.0]), checksum(&[2.0, 1.0]));
        assert_ne!(checksum(&[0.0]), checksum(&[-0.0]));
    }
}
