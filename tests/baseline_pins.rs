//! The two averaging baselines pinned **across commits**: FL-GAN (FedAvg
//! over N local GANs) and gossip GAN (pairwise averaging, also under
//! churn). The in-crate tests compare two runs of the same build; these
//! constants were recorded before the baselines shared one federation
//! core (and re-recorded when the transcendentals moved from the host libm
//! to `md_tensor::math`, and when training draws became keyed streams,
//! which moved gossip's pairings), so a refactor that moved a seed, an RNG
//! draw, a checkpoint section, a byte charge or a traced transfer fails
//! here. They hold at every `TENSOR_THREADS` width.

use mdgan_repro::core::config::{FlGanConfig, GanHyper};
use mdgan_repro::core::flgan::FlGan;
use mdgan_repro::core::gossip::GossipGan;
use mdgan_repro::core::ArchSpec;
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::data::Dataset;
use mdgan_repro::simnet::{ChurnEvent, ChurnKind, ChurnPlan, TrafficReport};
use mdgan_repro::telemetry::{Recorder, SpanKind};
use mdgan_repro::tensor::rng::Rng64;
use std::collections::HashMap;
use std::sync::Arc;

const IMG: usize = 12;
/// `m / b = 4`: nine steps cross two averaging / gossip rounds.
const STEPS: usize = 9;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn params_hash(params: &[f32]) -> u64 {
    let bytes: Vec<u8> = params.iter().flat_map(|x| x.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn shards(total: usize) -> Vec<Dataset> {
    mnist_like(IMG, total * 16, 5, 0.08).shard_iid(total, &mut Rng64::seed_from_u64(5))
}

fn cfg() -> FlGanConfig {
    FlGanConfig {
        workers: 4,
        epochs_per_round: 1.0,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        iterations: STEPS,
        seed: 21,
    }
}

/// Worker 5 joins at 2, worker 2 leaves at 3, worker 3 crashes at 5.
fn churn() -> ChurnPlan {
    let ev = |iter, worker, kind| ChurnEvent { iter, worker, kind };
    ChurnPlan::from_events(
        4,
        vec![
            ev(2, 5, ChurnKind::Join),
            ev(3, 2, ChurnKind::Leave),
            ev(5, 3, ChurnKind::Crash),
        ],
    )
    .unwrap()
}

/// Every delivered transfer as `(from track, to track, bytes, tick)`,
/// sorted: a `Send` joined to the `Recv` that hangs off it.
fn transfers(rec: &Recorder) -> Vec<(u64, u64, u64, u64)> {
    let spans = rec.trace_spans();
    assert_eq!(rec.trace_spans_dropped(), 0);
    let sends: HashMap<u64, _> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Send { .. }))
        .map(|s| (s.span, s))
        .collect();
    let mut pairs: Vec<_> = spans
        .iter()
        .filter_map(|r| match r.kind {
            SpanKind::Recv { bytes, .. } => {
                let s = sends[&r.parent];
                assert_eq!(s.tick, r.tick);
                Some((s.track.tid(), r.track.tid(), bytes, r.tick))
            }
            _ => None,
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

/// What one pinned run leaves behind.
struct Outcome {
    checkpoint: u64,
    gen: u64,
    traffic: TrafficReport,
}

fn flgan(rec: Arc<Recorder>) -> Outcome {
    let mut fl = FlGan::new(&ArchSpec::mlp_mnist_scaled(IMG), shards(4), cfg()).with_telemetry(rec);
    for _ in 0..STEPS {
        fl.step();
    }
    assert_eq!(fl.rounds(), 2);
    Outcome {
        checkpoint: fnv1a(&fl.checkpoint().to_bytes()),
        gen: params_hash(&fl.server_gen.net.get_params_flat()),
        traffic: fl.traffic(),
    }
}

fn gossip(mut g: GossipGan, rec: Arc<Recorder>) -> Outcome {
    g = g.with_telemetry(rec);
    for _ in 0..STEPS {
        g.step();
    }
    let checkpoint = fnv1a(&g.checkpoint().to_bytes());
    Outcome {
        checkpoint,
        gen: params_hash(&g.observer_generator().net.get_params_flat()),
        traffic: g.traffic(),
    }
}

fn plain_gossip(rec: Arc<Recorder>) -> Outcome {
    gossip(
        GossipGan::new(&ArchSpec::mlp_mnist_scaled(IMG), shards(4), cfg()),
        rec,
    )
}

fn elastic_gossip(rec: Arc<Recorder>) -> Outcome {
    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    gossip(
        GossipGan::new_elastic(&spec, shards(5), cfg(), churn()),
        rec,
    )
}

fn report(ingress: Vec<u64>, egress: Vec<u64>, bytes: [u64; 3], msgs: [u64; 3]) -> TrafficReport {
    TrafficReport {
        ingress,
        egress,
        class_bytes: bytes,
        class_msgs: msgs,
        dropped_msgs: 0,
        dropped_bytes: 0,
        dup_msgs: 0,
        dup_bytes: 0,
        delayed_msgs: 0,
        retries: 0,
    }
}

/// `|θ| + |w|` of the scaled MLP pair, in bytes: every transfer moves both
/// networks.
const PAIR: u64 = 308_332;

#[test]
fn flgan_run() {
    let rec = Arc::new(Recorder::traced());
    let o = flgan(Arc::clone(&rec));
    assert_eq!(o.checkpoint, 16534422614369490008);
    assert_eq!(o.gen, 11219334125093704381);
    let per_node = 2 * PAIR;
    assert_eq!(
        o.traffic,
        report(
            vec![8 * PAIR, per_node, per_node, per_node, per_node],
            vec![8 * PAIR, per_node, per_node, per_node, per_node],
            [8 * PAIR, 8 * PAIR, 0],
            [8, 8, 0],
        )
    );
    let mut expect = Vec::new();
    for tick in [3, 7] {
        for w in 1..=4 {
            expect.push((0, w, PAIR, tick));
            expect.push((w, 0, PAIR, tick));
        }
    }
    expect.sort_unstable();
    assert_eq!(transfers(&rec), expect);
}

#[test]
fn gossip_run() {
    let rec = Arc::new(Recorder::traced());
    let o = plain_gossip(Arc::clone(&rec));
    assert_eq!(o.checkpoint, 10742351413415033503);
    assert_eq!(o.gen, 3813841327478582155);
    let per_node = 2 * PAIR;
    assert_eq!(
        o.traffic,
        report(
            vec![0, per_node, per_node, per_node, per_node],
            vec![0, per_node, per_node, per_node, per_node],
            [0, 0, 8 * PAIR],
            [0, 0, 8],
        )
    );
    assert_eq!(
        transfers(&rec),
        vec![
            (1, 3, PAIR, 7),
            (1, 4, PAIR, 3),
            (2, 1, PAIR, 3),
            (2, 1, PAIR, 7),
            (3, 2, PAIR, 3),
            (3, 4, PAIR, 7),
            (4, 2, PAIR, 7),
            (4, 3, PAIR, 3),
        ]
    );
}

/// The join bootstrap (worker 1 → worker 5 at iteration 2) is the eighth
/// W→W message; the departed worker 2 keeps its frozen zero counters.
#[test]
fn elastic_gossip_run() {
    let o = elastic_gossip(Arc::new(Recorder::disabled()));
    assert_eq!(o.checkpoint, 4585870765655835208);
    assert_eq!(o.gen, 15573404265645437936);
    assert_eq!(
        o.traffic,
        report(
            vec![0, 2 * PAIR, 0, PAIR, 2 * PAIR, 3 * PAIR],
            vec![0, 3 * PAIR, 0, PAIR, 2 * PAIR, 2 * PAIR],
            [0, 0, 8 * PAIR],
            [0, 0, 8],
        )
    );
}
