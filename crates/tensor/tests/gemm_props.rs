//! Property tests pinning the packed, cache-blocked GEMM kernel to the
//! naive in-order reference — **bitwise** — across odd and degenerate
//! shapes for all three [`Layout`] variants.
//!
//! The shapes are drawn from a set chosen to straddle every tiling edge:
//! zero-size dims, `m = k = n = 1`, sizes just below/at/above the
//! register-tile extents (`MR`, `NR`), and non-multiples of all of them.
//! Larger shapes that cross the `KC`/`NC`/`MC` panel boundaries are pinned
//! by the kernel's unit tests (`bitwise_matches_naive_across_edges`).

use md_tensor::ops::gemm::{gemm_acc_into, gemm_into, naive_gemm, Layout};
use md_tensor::rng::Rng64;
use proptest::prelude::*;

/// Dimension values straddling the micro-kernel tile edges: zero, one,
/// sizes just below/at/above `MR`/`NR`, and non-multiples of all of them.
const DIMS: [usize; 15] = [0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65];

const LAYOUTS: [Layout; 3] = [Layout::NN, Layout::NT, Layout::TN];

/// Operand buffers with the storage lengths the layout dictates, seeded
/// with normals plus a sprinkling of exact and signed zeros (the removed
/// zero-skip branch must not reappear as a special case).
fn operands(layout: Layout, m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let (a_len, b_len) = match layout {
        Layout::NN => (m * k, k * n),
        Layout::NT => (m * k, n * k),
        Layout::TN => (k * m, k * n),
    };
    let mut rng = Rng64::seed_from_u64(seed);
    let fill = |len: usize, rng: &mut Rng64| {
        (0..len)
            .map(|i| match i % 7 {
                0 => 0.0,
                3 => -0.0,
                _ => rng.normal(),
            })
            .collect::<Vec<f32>>()
    };
    let a = fill(a_len, &mut rng);
    let b = fill(b_len, &mut rng);
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `gemm_into` is bitwise identical to the unblocked in-order
    /// reference on every shape/layout combination.
    #[test]
    fn packed_kernel_matches_naive_bitwise(
        li in 0usize..3,
        mi in 0usize..15,
        ki in 0usize..15,
        ni in 0usize..15,
        seed in 0u64..1024,
    ) {
        let (layout, m, k, n) = (LAYOUTS[li], DIMS[mi], DIMS[ki], DIMS[ni]);
        let (a, b) = operands(layout, m, k, n, seed);
        let mut out = vec![f32::NAN; m * n]; // overwrite must not read this
        gemm_into(layout, &a, &b, &mut out, m, k, n);
        let reference = naive_gemm(layout, &a, &b, m, k, n);
        for (i, (x, y)) in out.iter().zip(&reference).enumerate() {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "element {} differs: packed {} vs naive {}",
                i, x, y
            );
        }
    }

    /// `gemm_acc_into` continues the in-order chain from the existing
    /// output value, bitwise, for every layout.
    #[test]
    fn acc_kernel_continues_seeded_chain_bitwise(
        li in 0usize..3,
        mi in 0usize..15,
        ki in 0usize..15,
        ni in 0usize..15,
        seed in 0u64..1024,
    ) {
        let (layout, m, k, n) = (LAYOUTS[li], DIMS[mi], DIMS[ki], DIMS[ni]);
        let (a, b) = operands(layout, m, k, n, seed);
        let mut rng = Rng64::seed_from_u64(seed ^ 0xABCD);
        let seed_out: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
        let mut out = seed_out.clone();
        gemm_acc_into(layout, &a, &b, &mut out, m, k, n);
        // Reference: the same fused chain, seeded from the prior value.
        for i in 0..m {
            for j in 0..n {
                let mut s = seed_out[i * n + j];
                for p in 0..k {
                    let av = match layout {
                        Layout::NN | Layout::NT => a[i * k + p],
                        Layout::TN => a[p * m + i],
                    };
                    let bv = match layout {
                        Layout::NN | Layout::TN => b[p * n + j],
                        Layout::NT => b[j * k + p],
                    };
                    s = av.mul_add(bv, s);
                }
                prop_assert_eq!(s.to_bits(), out[i * n + j].to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------
// The no-pack (skinny) kernels behind `gemm()`: NN with `m <= SKINNY_M`,
// NT with `m <= SKINNY_NT_M`, TN with `k <= SKINNY_K`. Every case below
// walks the selecting dimension from 1 across its bound — through every
// count of register tiles (NN: 12 rows each, NT: one lane block each) the
// no-pack kernels loop over — so they and the packed kernel just past
// them are held to the same bits.
// ---------------------------------------------------------------------

use md_tensor::ops::gemm::{SKINNY_K, SKINNY_M, SKINNY_NT_M};
use md_tensor::parallel::scoped_max_threads;

/// Extents of the dimensions the no-pack kernels stream: the paper's layer
/// widths (11 logits, 110 = noise + one-hot, 512 hidden, 784 pixels) and
/// sizes around the 16- and 32-column tile edges.
const EXTENTS: [usize; 10] = [11, 110, 512, 784, 1, 15, 16, 17, 31, 33];

/// The dimension the selection reads, from 1 to one past its bound.
fn selecting_range(layout: Layout) -> std::ops::RangeInclusive<usize> {
    let bound = match layout {
        Layout::NN => SKINNY_M,
        Layout::NT => SKINNY_NT_M,
        Layout::TN => SKINNY_K,
    };
    1..=bound + 1
}

/// `(m, k, n)` with `sel` in the slot the selection reads (`m` for NN/NT,
/// `k` for TN) and `(e1, e2)` in the two streamed slots.
fn place(layout: Layout, sel: usize, e1: usize, e2: usize) -> (usize, usize, usize) {
    match layout {
        Layout::NN | Layout::NT => (sel, e1, e2),
        Layout::TN => (e1, sel, e2),
    }
}

/// The in-order fused chain of element `(i, j)`, started from `seed`.
#[allow(clippy::too_many_arguments)]
fn chain(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    i: usize,
    j: usize,
    seed: f32,
) -> f32 {
    let mut s = seed;
    for p in 0..k {
        let av = match layout {
            Layout::NN | Layout::NT => a[i * k + p],
            Layout::TN => a[p * m + i],
        };
        let bv = match layout {
            Layout::NN | Layout::TN => b[p * n + j],
            Layout::NT => b[j * k + p],
        };
        s = av.mul_add(bv, s);
    }
    s
}

/// Overwrite against `naive_gemm` and accumulate against the seeded chain,
/// both bitwise.
fn check_both_modes(layout: Layout, m: usize, k: usize, n: usize, seed: u64) {
    let (a, b) = operands(layout, m, k, n, seed);
    let mut out = vec![f32::NAN; m * n]; // overwrite must not read this
    gemm_into(layout, &a, &b, &mut out, m, k, n);
    let reference = naive_gemm(layout, &a, &b, m, k, n);
    for (e, (x, y)) in out.iter().zip(&reference).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{layout:?} ({m},{k},{n}) overwrite, element {e}: {x} vs {y}"
        );
    }
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5EED);
    let seed_out: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
    let mut out = seed_out.clone();
    gemm_acc_into(layout, &a, &b, &mut out, m, k, n);
    for i in 0..m {
        for j in 0..n {
            let want = chain(layout, &a, &b, (m, k, n), i, j, seed_out[i * n + j]);
            assert_eq!(
                want.to_bits(),
                out[i * n + j].to_bits(),
                "{layout:?} ({m},{k},{n}) accumulate, element ({i},{j})"
            );
        }
    }
}

#[test]
fn skinny_shapes_match_naive_on_both_sides_of_every_bound() {
    for layout in LAYOUTS {
        for sel in selecting_range(layout) {
            // Every extent in each streamed slot, paired with itself and
            // with an extent of the other family.
            for (x, &e1) in EXTENTS.iter().enumerate() {
                for e2 in [e1, EXTENTS[(x + 3) % EXTENTS.len()]] {
                    let (m, k, n) = place(layout, sel, e1, e2);
                    check_both_modes(layout, m, k, n, (sel * 1000 + e1 * 7 + e2) as u64);
                }
            }
        }
    }
}

#[test]
fn skinny_shapes_propagate_non_finite_operands() {
    // ±0.0, NaN and ±Inf in both operands: 0·NaN and 0·Inf must reach the
    // output exactly as the reference chain carries them (no zero-skip, no
    // masked lane leaking in). Two NaNs of different payload may merge
    // differently per instruction form, so NaN matches NaN of any payload.
    const SPECIALS: [f32; 6] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0];
    for layout in LAYOUTS {
        for sel in selecting_range(layout) {
            let (m, k, n) = place(layout, sel, 33, 17);
            let (mut a, mut b) = operands(layout, m, k, n, sel as u64);
            for (e, v) in a.iter_mut().enumerate().filter(|(e, _)| e % 5 == 2) {
                *v = SPECIALS[(e / 5) % SPECIALS.len()];
            }
            for (e, v) in b.iter_mut().enumerate().filter(|(e, _)| e % 11 == 4) {
                *v = SPECIALS[(e / 11) % SPECIALS.len()];
            }
            let mut out = vec![0.5f32; m * n];
            gemm_acc_into(layout, &a, &b, &mut out, m, k, n);
            let mut nans = 0;
            for i in 0..m {
                for j in 0..n {
                    let want = chain(layout, &a, &b, (m, k, n), i, j, 0.5);
                    let got = out[i * n + j];
                    nans += usize::from(want.is_nan());
                    assert!(
                        want.to_bits() == got.to_bits() || (want.is_nan() && got.is_nan()),
                        "{layout:?} ({m},{k},{n}) element ({i},{j}): {got} vs {want}"
                    );
                }
            }
            assert!(
                nans > 0,
                "{layout:?} ({m},{k},{n}): the case must produce NaNs"
            );
        }
    }
}

#[test]
fn skinny_shapes_are_bitwise_identical_across_thread_counts() {
    // The paper's first discriminator layer and its two backward layouts at
    // b = 10, at three stacked b = 10 batches (two or three register tiles
    // of the no-pack kernels, which stay serial above the parallel gate),
    // and just past each bound (the packed kernel, split over the pool):
    // one set of bits at every pool width.
    for layout in LAYOUTS {
        for sel in [10, 30, *selecting_range(layout).end()] {
            let (m, k, n) = place(layout, sel, 784, 512);
            let (a, b) = operands(layout, m, k, n, 77);
            let reference = naive_gemm(layout, &a, &b, m, k, n);
            for threads in [1, 2, 3, 8] {
                let _guard = scoped_max_threads(threads);
                let mut out = vec![f32::NAN; m * n];
                gemm_into(layout, &a, &b, &mut out, m, k, n);
                assert!(
                    out.iter()
                        .zip(&reference)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{layout:?} ({m},{k},{n}) differs at {threads} threads"
                );
            }
        }
    }
}
