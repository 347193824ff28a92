//! Property-based tests (proptest) over cross-crate invariants.

use mdgan_repro::data::Dataset;
use mdgan_repro::nn::init::Init;
use mdgan_repro::nn::layer::Layer;
use mdgan_repro::nn::layers::{Dense, LeakyRelu, Sequential};
use mdgan_repro::nn::param::{average, l2_distance};
use mdgan_repro::simnet::{FaultPlan, Partition, Router, TrafficStats};
use mdgan_repro::tensor::ops::conv::{conv2d_forward, conv_out_dim, conv_transpose2d_forward};
use mdgan_repro::tensor::rng::Rng64;
use mdgan_repro::tensor::{Shape, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Broadcasting is commutative in the result shape.
    #[test]
    fn broadcast_shape_commutes(a in proptest::collection::vec(1usize..4, 0..4),
                                b in proptest::collection::vec(1usize..4, 0..4)) {
        let sa = Shape::new(&a);
        let sb = Shape::new(&b);
        prop_assert_eq!(Shape::broadcast(&sa, &sb), Shape::broadcast(&sb, &sa));
    }

    /// add/mul with broadcasting agree with scalar loops on same shapes.
    #[test]
    fn elementwise_ops_match_scalar_math(seed in 0u64..1000, n in 1usize..32) {
        let mut rng = Rng64::seed_from_u64(seed);
        let a = Tensor::randn(&[n], &mut rng);
        let b = Tensor::randn(&[n], &mut rng);
        let sum = a.add(&b);
        let prod = a.mul(&b);
        for i in 0..n {
            prop_assert!((sum.data()[i] - (a.data()[i] + b.data()[i])).abs() < 1e-6);
            prop_assert!((prod.data()[i] - (a.data()[i] * b.data()[i])).abs() < 1e-6);
        }
    }

    /// matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes(seed in 0u64..1000, m in 1usize..6, k in 1usize..6, n in 1usize..6) {
        let mut rng = Rng64::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let c = Tensor::randn(&[k, n], &mut rng);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// <conv(x), y> == <x, conv_t(y)> for any valid geometry whose spatial
    /// dims round-trip (the adjoint identity behind MD-GAN's feedback path).
    #[test]
    fn conv_and_transpose_are_adjoint(seed in 0u64..500,
                                      c in 1usize..3,
                                      o in 1usize..3,
                                      s in 1usize..3,
                                      k_extra in 0usize..2) {
        let k = s + k_extra + 1; // kernel >= stride + 1 keeps geometry sane
        let p = 1usize.min(k - 1);
        // Choose h so that (h + 2p - k) divides s exactly.
        let base = 5usize;
        let h = base * s + k - 2 * p;
        let mut rng = Rng64::seed_from_u64(seed);
        let x = Tensor::randn(&[1, c, h, h], &mut rng);
        let oh = conv_out_dim(h, k, s, p);
        let y = Tensor::randn(&[1, o, oh, oh], &mut rng);
        let w = Tensor::randn(&[o, c, k, k], &mut rng);
        let none = Tensor::zeros(&[0]);
        let cx = conv2d_forward(&x, &w, &none, s, p);
        let cty = conv_transpose2d_forward(&y, &w, &none, s, p);
        prop_assert_eq!(cty.shape(), x.shape());
        let lhs = cx.dot(&y) as f64;
        let rhs = x.dot(&cty) as f64;
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{} vs {}", lhs, rhs);
    }

    /// Flat-parameter roundtrip for random MLP architectures.
    #[test]
    fn param_flat_roundtrip(seed in 0u64..1000,
                            dims in proptest::collection::vec(1usize..12, 2..5)) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut net = Sequential::new();
        for w in dims.windows(2) {
            net.push_boxed(Box::new(Dense::new(w[0], w[1], Init::XavierUniform, &mut rng)));
            net.push_boxed(Box::new(LeakyRelu::new(0.2)));
        }
        let flat = net.get_params_flat();
        prop_assert_eq!(flat.len(), net.num_params());
        let mut rng2 = Rng64::seed_from_u64(seed ^ 0xFFFF);
        let mut net2 = Sequential::new();
        for w in dims.windows(2) {
            net2.push_boxed(Box::new(Dense::new(w[0], w[1], Init::XavierUniform, &mut rng2)));
            net2.push_boxed(Box::new(LeakyRelu::new(0.2)));
        }
        net2.set_params_flat(&flat);
        prop_assert_eq!(net2.get_params_flat(), flat);
    }

    /// FedAvg is idempotent on identical inputs, bounded by min/max, and
    /// the same bits whether it reads owned vectors or borrowed slices.
    #[test]
    fn fedavg_properties(seed in 0u64..1000, n in 1usize..6, len in 1usize..64) {
        let mut rng = Rng64::seed_from_u64(seed);
        let vecs: Vec<Vec<f32>> = (0..n).map(|_| (0..len).map(|_| rng.normal()).collect()).collect();
        let avg = average(&vecs);
        let slices: Vec<&[f32]> = vecs.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(&average(&slices), &avg);
        for i in 0..len {
            let mn = vecs.iter().map(|v| v[i]).fold(f32::INFINITY, f32::min);
            let mx = vecs.iter().map(|v| v[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(avg[i] >= mn - 1e-5 && avg[i] <= mx + 1e-5);
        }
        // Idempotence.
        let again = average(std::slice::from_ref(&avg));
        prop_assert!(l2_distance(&again, &avg) < 1e-7);
    }

    /// SPLIT conservation under elastic membership: over any alive view,
    /// the rebalanced assignment stays in `0..k`, spreads workers across
    /// the k generated batches as evenly as possible (max/min load differ
    /// by at most one, every batch covered once the view is k wide), and
    /// reduces to the paper's fixed formula on the full `0..n` view.
    #[test]
    fn split_rebalance_conserves_batches(alive_bits in proptest::collection::vec(0usize..2, 1..24),
                                         k_raw in 0usize..8) {
        use mdgan_repro::core::mdgan::server::MdServer;
        let mut alive: Vec<usize> = alive_bits
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == 1).then_some(i))
            .collect();
        if alive.is_empty() {
            alive.push(0);
        }
        let n = alive.len();
        let k = 1 + k_raw % n;

        let mut g_load = vec![0usize; k];
        for (pos, &slot) in alive.iter().enumerate() {
            let (g, d) = MdServer::assign_in_view(&alive, slot, k)
                .expect("alive slot must be assigned");
            prop_assert!(g < k && d < k, "assignment out of range");
            prop_assert_eq!((g, d), MdServer::assign(pos, k), "not position-based");
            g_load[g] += 1;
        }
        // Dead slots get nothing.
        for slot in 0..alive_bits.len() {
            if !alive.contains(&slot) {
                prop_assert_eq!(MdServer::assign_in_view(&alive, slot, k), None);
            }
        }
        // Conservation: every generated batch is consumed (n >= k always
        // holds here), and the load is balanced to within one worker.
        let (mn, mx) = (g_load.iter().min().unwrap(), g_load.iter().max().unwrap());
        prop_assert!(*mn >= 1, "batch starved: {:?}", g_load);
        prop_assert!(mx - mn <= 1, "unbalanced: {:?}", g_load);
        prop_assert_eq!(g_load.iter().sum::<usize>(), n);

        // Full-view reduction: with everyone alive the elastic formula is
        // the fixed-membership one, slot for slot.
        let full: Vec<usize> = (0..n).collect();
        for slot in 0..n {
            prop_assert_eq!(
                MdServer::assign_in_view(&full, slot, k),
                Some(MdServer::assign(slot, k))
            );
        }
    }

    /// Derangements of any size n >= 2 are fixed-point-free permutations.
    #[test]
    fn derangement_property(seed in 0u64..2000, n in 2usize..40) {
        let mut rng = Rng64::seed_from_u64(seed);
        let d = rng.derangement(n);
        let mut sorted = d.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        prop_assert!(d.iter().enumerate().all(|(i, &x)| i != x));
    }

    /// Traffic conservation under arbitrary message sequences.
    #[test]
    fn traffic_conservation(msgs in proptest::collection::vec((0usize..5, 0usize..5, 1u64..10_000), 0..64)) {
        let stats = TrafficStats::new(5);
        let mut sent = 0u64;
        for (f, t, b) in msgs {
            if f != t {
                stats.record(f, t, b);
                sent += b;
            }
        }
        let r = stats.report();
        prop_assert_eq!(r.ingress.iter().sum::<u64>(), sent);
        prop_assert_eq!(r.egress.iter().sum::<u64>(), sent);
        prop_assert_eq!(r.total_bytes(), sent);
    }

    /// i.i.d. sharding partitions the dataset: shard sizes are equal and
    /// every shard's labels stay within range.
    #[test]
    fn sharding_partitions(seed in 0u64..1000, workers in 1usize..6) {
        let n = workers * 10;
        let images = Tensor::zeros(&[n, 1, 2, 2]);
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let data = Dataset::new(images, labels, 3);
        let mut rng = Rng64::seed_from_u64(seed);
        let shards = data.shard_iid(workers, &mut rng);
        prop_assert_eq!(shards.len(), workers);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, n);
        for s in &shards {
            prop_assert_eq!(s.len(), 10);
            prop_assert!(s.labels().iter().all(|&l| l < 3));
        }
    }

    /// Softmax rows are probability distributions for arbitrary logits.
    #[test]
    fn softmax_is_distribution(seed in 0u64..1000, b in 1usize..8, c in 1usize..8, scale in 0.1f32..50.0) {
        let mut rng = Rng64::seed_from_u64(seed);
        let logits = Tensor::randn(&[b, c], &mut rng).scale(scale);
        let probs = logits.softmax_rows();
        prop_assert!(probs.all_finite());
        for i in 0..b {
            let s: f32 = probs.row(i).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(probs.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Byte conservation under any seeded fault plan: every byte sent is
    /// either delivered or dropped (duplicates accounted separately), and
    /// the receiver sees exactly the delivered messages (plus duplicates).
    #[test]
    fn fault_plan_conserves_bytes(seed in 0u64..10_000,
                                  drop in 0.0f32..1.0,
                                  duplicate in 0.0f32..0.5,
                                  delay in 0.0f32..0.5,
                                  retries in 0u32..4,
                                  msgs in 1usize..40,
                                  partition in 0usize..2) {
        let mut plan = FaultPlan {
            seed,
            drop,
            duplicate,
            delay,
            max_delay_ticks: 2,
            partitions: vec![],
        };
        if partition == 1 {
            plan.partitions.push(Partition::node(2, 3, 9));
        }
        let mut router: Router<u64> = Router::new(2).with_faults(plan);
        let eps = router.all_endpoints();

        let mut delivered = 0u64;
        let mut dup_copies = 0u64;
        for m in 0..msgs {
            let to = 1 + (m % 2);
            let bytes = 64 + m as u64;
            let d = eps[0].send_data(to, m as u64, bytes, m as u64, retries);
            if d.delivered {
                delivered += 1;
            }
            if d.duplicated {
                dup_copies += 1;
            }
        }

        let r = router.stats().report();
        prop_assert_eq!(r.bytes_sent(), r.bytes_delivered() + r.dropped_bytes,
                        "sent != delivered + dropped");
        // Duplicated bytes ride on top of (not inside) the conserved flow.
        prop_assert!(r.dup_bytes <= r.bytes_delivered());
        prop_assert_eq!(r.dup_msgs, dup_copies);
        prop_assert!(r.retries <= msgs as u64 * retries as u64);

        // The receivers observe exactly the delivered payloads; duplicate
        // copies are flagged and skipped by `recv`-family methods, so they
        // surface only through `try_recv_raw`-free accounting here.
        let mut seen = 0u64;
        for ep in &eps[1..] {
            while ep.try_recv().is_some() {
                seen += 1;
            }
        }
        prop_assert_eq!(seen, delivered);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint v2 serialization round-trips to the identity: parameters,
    /// optimizer moments (f32), counters (arbitrary u64 words) and raw bytes
    /// come back bit-for-bit, in order, under any section mix.
    #[test]
    fn checkpoint_v2_roundtrip_is_identity(seed in 0u64..1000,
                                           iter in 0u64..u64::MAX,
                                           n_params in 0usize..64,
                                           n_blob in 0usize..64) {
        use mdgan_repro::core::checkpoint::Checkpoint;
        let mut rng = Rng64::seed_from_u64(seed);
        let params: Vec<f32> = (0..n_params).map(|_| rng.normal()).collect();
        let moments: Vec<f32> = (0..n_params).map(|_| rng.normal()).collect();
        let blob: Vec<u8> = (0..n_blob).map(|i| (seed as u8).wrapping_add(i as u8)).collect();
        let words: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();

        let mut ck = Checkpoint::new(iter);
        ck.push("generator", params.clone());
        ck.push("opt_g_m", moments.clone());
        ck.push_u64("counters", words.clone());
        ck.push_bytes("timeline", blob.clone());

        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        prop_assert_eq!(back.iteration, iter);
        prop_assert_eq!(back.num_sections(), 4);
        prop_assert_eq!(back.get("generator").unwrap(), &params[..]);
        prop_assert_eq!(back.get("opt_g_m").unwrap(), &moments[..]);
        prop_assert_eq!(back.get_u64("counters").unwrap(), &words[..]);
        prop_assert_eq!(back.get_bytes("timeline").unwrap(), &blob[..]);
        prop_assert_eq!(&back, &ck);
    }

    /// Flipping any single bit of a serialized v2 checkpoint is detected:
    /// magic/version flips fail their equality checks, and every other byte
    /// (header fields included) is covered by a CRC32.
    #[test]
    fn checkpoint_v2_detects_every_single_bit_flip(seed in 0u64..200, flip in 0usize..10_000) {
        use mdgan_repro::core::checkpoint::Checkpoint;
        let mut rng = Rng64::seed_from_u64(seed);
        let mut ck = Checkpoint::new(seed.wrapping_mul(977));
        ck.push("generator", (0..9).map(|_| rng.normal()).collect());
        ck.push_u64("counters", (0..5).map(|_| rng.next_u64()).collect());
        ck.push_bytes("note", vec![7u8; 5]);

        let mut bytes = ck.to_bytes().to_vec();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            Checkpoint::from_bytes(&bytes).is_err(),
            "bit {} (byte {}) flipped undetected", bit, bit / 8
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The robust aggregators are permutation-invariant: reordering the
    /// group never changes a single output bit (both sort each coordinate
    /// column before reducing it).
    #[test]
    fn robust_aggregators_are_permutation_invariant(seed in 0u64..1000,
                                                    n in 3usize..8,
                                                    len in 1usize..48,
                                                    rot in 1usize..8) {
        use mdgan_repro::core::byzantine::Aggregation;
        let mut rng = Rng64::seed_from_u64(seed);
        let group: Vec<Tensor> = (0..n).map(|_| Tensor::randn(&[len], &mut rng)).collect();
        let mut permuted: Vec<&Tensor> = group.iter().collect();
        permuted.rotate_left(rot % n);
        permuted.reverse();
        let original: Vec<&Tensor> = group.iter().collect();
        for agg in [Aggregation::CoordinateMedian, Aggregation::TrimmedMean { trim: 1 }] {
            prop_assert_eq!(
                agg.aggregate(&original).data(),
                agg.aggregate(&permuted).data(),
                "{:?} depends on group order", agg
            );
        }
    }

    /// Translation equivariance: shifting every member by a constant
    /// shifts the aggregate by the same constant.
    #[test]
    fn robust_aggregators_are_translation_equivariant(seed in 0u64..1000,
                                                      n in 3usize..8,
                                                      len in 1usize..48,
                                                      shift in -4.0f32..4.0) {
        use mdgan_repro::core::byzantine::Aggregation;
        let mut rng = Rng64::seed_from_u64(seed);
        let group: Vec<Tensor> = (0..n).map(|_| Tensor::randn(&[len], &mut rng)).collect();
        let shifted: Vec<Tensor> = group.iter().map(|t| t.add_scalar(shift)).collect();
        for agg in [Aggregation::CoordinateMedian, Aggregation::TrimmedMean { trim: 1 }] {
            let base = agg.aggregate(&group.iter().collect::<Vec<_>>());
            let moved = agg.aggregate(&shifted.iter().collect::<Vec<_>>());
            for (b, m) in base.data().iter().zip(moved.data()) {
                prop_assert!(
                    (b + shift - m).abs() < 1e-4,
                    "{:?}: {} + {} vs {}", agg, b, shift, m
                );
            }
        }
    }

    /// Single-outlier bounded deviation: one arbitrarily hostile member
    /// (any magnitude, sign, even NaN/Inf) cannot push a robust aggregate
    /// outside the honest members' per-coordinate envelope.
    #[test]
    fn robust_aggregators_bound_a_single_outlier(seed in 0u64..1000,
                                                 n in 3usize..8,
                                                 len in 1usize..48,
                                                 magnitude in 1.0f32..1e30,
                                                 hostile in 0usize..4) {
        use mdgan_repro::core::byzantine::Aggregation;
        let mut rng = Rng64::seed_from_u64(seed);
        let honest: Vec<Tensor> = (0..n).map(|_| Tensor::randn(&[len], &mut rng)).collect();
        let outlier = match hostile {
            0 => Tensor::randn(&[len], &mut rng).scale(magnitude),
            1 => Tensor::randn(&[len], &mut rng).scale(-magnitude),
            2 => Tensor::new(&[len], vec![f32::NAN; len]),
            _ => Tensor::new(&[len], vec![f32::INFINITY; len]),
        };
        let mut group: Vec<&Tensor> = honest.iter().collect();
        group.push(&outlier);
        for agg in [Aggregation::CoordinateMedian, Aggregation::TrimmedMean { trim: 1 }] {
            let out = agg.aggregate(&group);
            for i in 0..len {
                let lo = honest.iter().map(|t| t.data()[i]).fold(f32::INFINITY, f32::min);
                let hi = honest.iter().map(|t| t.data()[i]).fold(f32::NEG_INFINITY, f32::max);
                let v = out.data()[i];
                prop_assert!(
                    v.is_finite() && v >= lo && v <= hi,
                    "{:?} coord {}: {} escapes honest envelope [{}, {}]", agg, i, v, lo, hi
                );
            }
        }
    }
}
