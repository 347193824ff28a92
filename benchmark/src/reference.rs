//! The frozen baseline: the same workload built from the crates under
//! `reference/`, a verbatim copy of the workspace at the commit this
//! benchmark was defined on.
//!
//! Memory-system interference on the host moves every timing of these
//! workloads by tens of percent over minutes (README "Noise study"), far
//! more than any bound worth gating on. So each timed unit of the code
//! under test is paired with one unit of this baseline run right beside
//! it, and the gated timings are the ratio of the two — which the
//! interference cancels out of.

use crate::workload::{Net, Workload, SHARD_SIZE};
use ref_core::mdgan::threaded::run_threaded;
use ref_core::{ArchSpec, GanHyper, MdGan, MdGanConfig};
use ref_data::DataSpec;
use ref_tensor::rng::Rng64;

/// A set-up baseline trainer.
pub struct Reference {
    unit: Box<dyn FnMut()>,
}

impl Reference {
    /// Sets `w` up on the frozen crates exactly as `Workload::setup` does
    /// on the current ones: dataset, shards, trainer, and for the threaded
    /// runtime the zero-iteration call that stands for its construction.
    pub fn setup(w: &Workload, seed: u64) -> Self {
        ref_tensor::parallel::set_max_threads(w.tensor_threads);
        let n = w.workers * SHARD_SIZE;
        let (spec, data) = match w.net {
            Net::PaperMlp => (ArchSpec::paper_mnist_mlp(), DataSpec::mnist(28, n, seed)),
            Net::CifarCnn => (ArchSpec::cnn_cifar_scaled(32), DataSpec::cifar(32, n, seed)),
        };
        let shards = data
            .generate()
            .shard_iid(w.workers, &mut Rng64::seed_from_u64(seed));
        let cfg = MdGanConfig {
            workers: w.workers,
            hyper: GanHyper {
                batch: w.batch,
                ..GanHyper::default()
            },
            seed,
            ..MdGanConfig::default()
        };
        let unit: Box<dyn FnMut()> = if w.threaded() {
            run_threaded(&spec, shards.clone(), cfg.clone(), None, 0, 0);
            let iters = w.iters_per_unit;
            Box::new(move || {
                run_threaded(&spec, shards.clone(), cfg.clone(), None, iters, 0);
            })
        } else {
            let mut md = MdGan::new(&spec, shards, cfg);
            Box::new(move || md.step())
        };
        Reference { unit }
    }

    /// One unit: an iteration, or a whole `run_threaded` call.
    pub fn unit(&mut self) {
        (self.unit)()
    }
}
