//! The metric catalogue — the one list `BENCHMARK.json`, the result lines
//! and the README table are checked against — and the collector a run
//! fills.

use md_telemetry::json::Object;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "iters_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "cpu_ms_per_iter",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "bytes_per_iter",
        unit: "bytes",
        better: "lower",
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        // The process holds the trainer under test and the frozen baseline;
        // the baseline's half never moves, so half of 5 %.
        bound: 0.025,
    },
];

/// A metric of a single layer, named `<crate>.<what>`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const MLP_B10: &str = "iters_per_s on mlp_b10_seq; none on cnn_*";
const MLP_B100: &str = "iters_per_s, cpu_ms_per_iter on mlp_b100_mt2";
const CNN: &str = "iters_per_s on cnn_b10_seq, cnn_b10_thr2; none on mlp_*";
const MLP: &str = "iters_per_s on mlp_b10_seq, mlp_b100_mt2";
const SETUP: &str = "setup_s on all";
const THR: &str = "iters_per_s, cpu_ms_per_iter on cnn_b10_thr2 only";
const SEQ_B10: &str = "iters_per_s on mlp_b10_seq, cnn_b10_seq; bytes_per_iter must not move";
const LATER: &str = "none of the four workloads; baseline for later issues";
const EVAL: &str = "outside every timed window; sizes the evaluation share of a figure run";
const DIAG: &str = "ungated; says how disturbed the run was";

pub const PER_LAYER: [PerLayer; 70] = [
    layer("tensor.gemm_nn_b10_gflops", "GFLOP/s", "higher", MLP_B10),
    layer("tensor.gemm_nt_b10_gflops", "GFLOP/s", "higher", MLP_B10),
    layer("tensor.gemm_tn_b10_gflops", "GFLOP/s", "higher", MLP_B10),
    layer("tensor.gemm_nn_b100_gflops", "GFLOP/s", "higher", MLP_B100),
    layer(
        "tensor.gemm_nn_b100_mt_speedup",
        "ratio",
        "higher",
        MLP_B100,
    ),
    layer("tensor.gemm_sq512_gflops", "GFLOP/s", "higher", MLP_B100),
    layer("tensor.gemm_sq512_pct_of_peak", "%", "higher", MLP_B100),
    layer(
        "host.fma_peak_gflops",
        "GFLOP/s",
        "higher",
        "the roof of tensor.gemm_sq512_pct_of_peak",
    ),
    layer(
        "host.stream_gbps",
        "GB/s",
        "higher",
        "the bandwidth roof of the b10 GEMMs and Adam",
    ),
    layer("tensor.conv_d_first_fwd_ms", "ms", "lower", CNN),
    layer("tensor.conv_d_first_bwd_ms", "ms", "lower", CNN),
    layer("tensor.conv_d_last_fwd_ms", "ms", "lower", CNN),
    layer("tensor.conv_d_last_bwd_ms", "ms", "lower", CNN),
    layer("tensor.convt_g_first_fwd_ms", "ms", "lower", CNN),
    layer("tensor.convt_g_first_bwd_ms", "ms", "lower", CNN),
    layer("tensor.convt_g_last_fwd_ms", "ms", "lower", CNN),
    layer("tensor.convt_g_last_bwd_ms", "ms", "lower", CNN),
    layer(
        "tensor.ws_misses_per_iter",
        "count/iter",
        "lower",
        "peak_rss_mb on all",
    ),
    layer(
        "tensor.ws_hits_per_iter",
        "count/iter",
        "lower",
        "peak_rss_mb on all",
    ),
    layer(
        "tensor.pool_jobs_per_iter",
        "count/iter",
        "lower",
        "cpu_ms_per_iter on mlp_b100_mt2",
    ),
    layer("nn.dense_fwd_ms", "ms", "lower", MLP),
    layer("nn.dense_bwd_ms", "ms", "lower", MLP),
    layer("nn.adam_ns_per_param", "ns/param", "lower", MLP),
    layer("nn.mlp_d_fwd_bwd_ms", "ms", "lower", MLP),
    layer("nn.mlp_g_fwd_bwd_ms", "ms", "lower", MLP),
    layer("nn.conv_fwd_ms", "ms", "lower", CNN),
    layer("nn.conv_bwd_ms", "ms", "lower", CNN),
    layer("nn.convt_fwd_ms", "ms", "lower", CNN),
    layer("nn.convt_bwd_ms", "ms", "lower", CNN),
    layer("nn.batchnorm_fwd_ms", "ms", "lower", CNN),
    layer("nn.batchnorm_bwd_ms", "ms", "lower", CNN),
    layer("nn.minibatch_fwd_ms", "ms", "lower", CNN),
    layer("nn.minibatch_bwd_ms", "ms", "lower", CNN),
    layer("nn.cnn_d_fwd_bwd_ms", "ms", "lower", CNN),
    layer("nn.cnn_g_fwd_bwd_ms", "ms", "lower", CNN),
    layer("data.generate_ms", "ms", "lower", SETUP),
    layer("data.shard_iid_ms", "ms", "lower", SETUP),
    layer("core.mdgan_new_ms", "ms", "lower", SETUP),
    layer(
        "data.sample_batch_us",
        "us",
        "lower",
        "iters_per_s on all (small share)",
    ),
    layer("simnet.send_recv_us", "us", "lower", THR),
    layer("simnet.stats_record_ns", "ns", "lower", THR),
    layer("simnet.transmit_ns", "ns", "lower", THR),
    layer("core.threaded_speedup", "ratio", "higher", THR),
    layer("core.server_wait_share", "share", "lower", THR),
    layer("core.gen_forward_ms", "ms", "lower", SEQ_B10),
    layer("core.d_feedback_ms", "ms", "lower", SEQ_B10),
    layer("core.g_update_ms", "ms", "lower", SEQ_B10),
    layer(
        "core.swap_ms",
        "ms",
        "lower",
        "iters_per_s on mlp_b10_seq (2.7 MB per swap)",
    ),
    layer("core.comm_ms", "ms", "lower", THR),
    layer("core.unattributed_share", "share", "lower", SEQ_B10),
    layer("core.worker_process_ms", "ms", "lower", SEQ_B10),
    layer(
        "core.codec_roundtrip_us",
        "us",
        "lower",
        "iters_per_s on mlp_b10_seq (the hidden copy under Codec::None)",
    ),
    layer("core.flgan_iter_ms", "ms", "lower", LATER),
    layer("core.standalone_iter_ms", "ms", "lower", LATER),
    layer("core.worker_compute_ratio", "ratio", "lower", LATER),
    layer("core.async_update_ms", "ms", "lower", LATER),
    layer("core.robust_step_ms", "ms", "lower", LATER),
    layer("core.checkpoint_encode_ms", "ms", "lower", LATER),
    layer("core.checkpoint_decode_ms", "ms", "lower", LATER),
    layer(
        "core.bytes_vs_formula",
        "ratio",
        "lower",
        "bytes_per_iter on all; must stay 1",
    ),
    layer("metrics.evaluator_setup_s", "s", "lower", EVAL),
    layer("metrics.evaluate_ms", "ms", "lower", EVAL),
    layer("metrics.fid_ms", "ms", "lower", EVAL),
    layer("metrics.fid_end", "fid", "lower", EVAL),
    layer(
        "telemetry.disabled_probe_ns",
        "ns",
        "lower",
        "iters_per_s on all (recorder disabled)",
    ),
    layer(
        "telemetry.trace_overhead_pct",
        "%",
        "lower",
        "none; the cost of the traced run itself",
    ),
    layer("host.slow_share", "share", "lower", DIAG),
    layer("host.fast_tail_support", "count", "higher", DIAG),
    layer("host.window_iters_per_s", "1/s", "higher", DIAG),
    layer("host.median_iters_per_s", "1/s", "higher", DIAG),
];

/// Named values collected by one run.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of a result line: every catalogue entry, in
    /// catalogue order, and nothing else.
    ///
    /// # Panics
    /// Panics when a catalogue metric was not collected or is not finite:
    /// a result line with a hole would silently drop a gated number.
    pub fn to_json<'a>(&self, catalogue: impl Iterator<Item = (&'a str, &'a str)>) -> String {
        let mut obj = Object::new();
        for (name, unit) in catalogue {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite");
            obj = obj.field_raw(
                name,
                &Object::new()
                    .field_f64("value", value)
                    .field_str("unit", unit)
                    .build(),
            );
        }
        obj.build()
    }

    /// One `name value unit` line per catalogue metric.
    pub fn print<'a>(&self, catalogue: impl Iterator<Item = (&'a str, &'a str)>) {
        for (name, unit) in catalogue {
            if let Some(v) = self.get(name) {
                println!("{name:<36} {v:>16.6} {unit}");
            }
        }
    }
}

/// Seconds one driver run measures (`run_seconds`), and the default of
/// `--seconds`.
pub const RUN_SECONDS: u32 = 30;

/// The text of `BENCHMARK.json`: the contract's six keys, filled from the
/// catalogue and the workload list.
pub fn manifest_json() -> String {
    let lines = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = crate::workload::WORKLOADS
        .iter()
        .map(|w| {
            Object::new()
                .field_str("name", w.name)
                .field_str("why", w.why)
                .build()
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Object::new()
                .field_str("name", m.name)
                .field_str("unit", m.unit)
                .field_str("better", m.better)
                .field_f64("bound", m.bound)
                .build()
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Object::new()
                .field_str("name", m.name)
                .field_str("unit", m.unit)
                .field_str("better", m.better)
                .build()
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        md_telemetry::json::array(command.iter().map(|c| md_telemetry::json::string(c))),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

/// The README's layer-metric table: what each should move.
pub fn layer_table() -> String {
    let mut out =
        String::from("| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.moves
        ));
    }
    out
}

pub fn end_to_end_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

pub fn per_layer_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use md_telemetry::json::{parse, Value};

    fn strs<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn benchmark_json_is_the_printed_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate BENCHMARK.json with --manifest"
        );
        let parsed = parse(&on_disk).expect("BENCHMARK.json parses");
        let keys = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ];
        match &parsed {
            Value::Obj(members) => {
                assert_eq!(
                    members.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                    keys
                )
            }
            other => panic!("not an object: {other:?}"),
        }
        assert!(on_disk.len() <= 64 << 10);
        assert_eq!(
            parsed
                .get("workloads")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(WORKLOADS.len())
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in end_to_end_names().chain(per_layer_names()) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn result_json_has_every_metric_once() {
        let mut m = Metrics::default();
        for (i, (name, _)) in end_to_end_names().enumerate() {
            m.put(name, i as f64 + 0.5);
        }
        let v = parse(&m.to_json(end_to_end_names())).unwrap();
        for (i, (name, unit)) in end_to_end_names().enumerate() {
            let entry = v.get(name).unwrap();
            assert_eq!(
                entry.get("value").and_then(Value::as_f64),
                Some(i as f64 + 0.5)
            );
            assert_eq!(strs(entry, "unit"), unit);
        }
    }
}
