//! Property tests pinning the **implicit-GEMM** convolution paths to the
//! materialized `im2col`/`col2im` pipeline — **bitwise** — across
//! stride/padding/channel/odd-spatial shapes.
//!
//! The references below are the pre-implicit implementations, rebuilt from
//! the public `im2col` / `col2im` / `matmul_*` building blocks: unfold the
//! column matrix, multiply, (scatter). The production paths pack the same
//! patch values on the fly inside the GEMM and fuse the col2im scatter
//! into the GEMM epilogue; since the per-element `mul_add` chains and the
//! scatter accumulation order are unchanged, every output must match the
//! materialized pipeline bit for bit.

use md_tensor::ops::conv::{
    col2im, conv2d_backward, conv2d_backward_into, conv2d_forward, conv_out_dim,
    conv_transpose2d_backward, conv_transpose2d_backward_into, conv_transpose2d_forward,
    conv_transpose_out_dim, im2col,
};
use md_tensor::ops::matmul::{matmul_into, matmul_nt_acc_into};
use md_tensor::ops::Need;
use md_tensor::rng::Rng64;
use md_tensor::tensor::Tensor;
use proptest::prelude::*;

/// Normals with a sprinkling of exact and signed zeros, so a zero-skip
/// shortcut can never sneak back into any conv path.
fn filled(shape: &[usize], seed: u64) -> Tensor {
    let len: usize = shape.iter().product();
    let mut rng = Rng64::seed_from_u64(seed);
    let data: Vec<f32> = (0..len)
        .map(|i| match i % 7 {
            0 => 0.0,
            3 => -0.0,
            _ => rng.normal(),
        })
        .collect();
    Tensor::new(shape, data)
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what} shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what} element {i}: implicit {x} vs materialized {y}"
        );
    }
}

/// Materialized-im2col conv2d forward: the old implementation.
fn conv_ref_forward(input: &Tensor, weight: &Tensor, bias: &Tensor, s: usize, p: usize) -> Tensor {
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let oh = conv_out_dim(h, kh, s, p);
    let ow = conv_out_dim(w, kw, s, p);
    let (ckk, ohw) = (c * kh * kw, oh * ow);
    let mut out = vec![0.0f32; b * o * ohw];
    let mut cols = vec![0.0f32; ckk * ohw];
    for bi in 0..b {
        let image = &input.data()[bi * c * h * w..(bi + 1) * c * h * w];
        im2col(image, c, h, w, kh, kw, s, p, oh, ow, &mut cols);
        let out_sample = &mut out[bi * o * ohw..(bi + 1) * o * ohw];
        matmul_into(weight.data(), &cols, out_sample, o, ckk, ohw);
        if !bias.is_empty() {
            for (oc, chunk) in out_sample.chunks_mut(ohw).enumerate() {
                let bv = bias.data()[oc];
                for v in chunk {
                    *v += bv;
                }
            }
        }
    }
    Tensor::new(&[b, o, oh, ow], out)
}

/// Materialized conv2d backward: im2col, `matmul_nt` for the weight
/// gradient, materialized `w^T` GEMM + col2im for the input gradient.
fn conv_ref_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    s: usize,
    p: usize,
) -> (Tensor, Tensor, Tensor) {
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
    let (ckk, ohw) = (c * kh * kw, oh * ow);
    let mut grad_input = vec![0.0f32; input.len()];
    let mut gw = Tensor::zeros(weight.shape());
    let mut gb = Tensor::zeros(&[o]);
    let w_t = weight.reshape(&[o, ckk]).t(); // (ckk, o)
    let mut cols = vec![0.0f32; ckk * ohw];
    let mut gcols = vec![0.0f32; ckk * ohw];
    for bi in 0..b {
        let image = &input.data()[bi * c * h * w..(bi + 1) * c * h * w];
        let g = &grad_out.data()[bi * o * ohw..(bi + 1) * o * ohw];
        im2col(image, c, h, w, kh, kw, s, p, oh, ow, &mut cols);
        matmul_nt_acc_into(g, &cols, gw.data_mut(), o, ohw, ckk);
        matmul_into(w_t.data(), g, &mut gcols, ckk, o, ohw);
        let gi = &mut grad_input[bi * c * h * w..(bi + 1) * c * h * w];
        col2im(&gcols, c, h, w, kh, kw, s, p, oh, ow, gi);
        for oc in 0..o {
            gb.data_mut()[oc] += g[oc * ohw..(oc + 1) * ohw].iter().sum::<f32>();
        }
    }
    (Tensor::new(input.shape(), grad_input), gw, gb)
}

/// Materialized conv-transpose forward: `w2^T x` GEMM, then col2im.
fn conv_t_ref_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    s: usize,
    p: usize,
) -> Tensor {
    let (b, cin, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (cout, kh, kw) = (weight.shape()[1], weight.shape()[2], weight.shape()[3]);
    let oh = conv_transpose_out_dim(h, kh, s, p);
    let ow = conv_transpose_out_dim(w, kw, s, p);
    let (ckk, hw) = (cout * kh * kw, h * w);
    let w2_t = weight.reshape(&[cin, ckk]).t(); // (ckk, cin)
    let mut out = vec![0.0f32; b * cout * oh * ow];
    let mut cols = vec![0.0f32; ckk * hw];
    for bi in 0..b {
        let x = &input.data()[bi * cin * hw..(bi + 1) * cin * hw];
        matmul_into(w2_t.data(), x, &mut cols, ckk, cin, hw);
        let out_sample = &mut out[bi * cout * oh * ow..(bi + 1) * cout * oh * ow];
        col2im(&cols, cout, oh, ow, kh, kw, s, p, h, w, out_sample);
        if !bias.is_empty() {
            for (oc, chunk) in out_sample.chunks_mut(oh * ow).enumerate() {
                let bv = bias.data()[oc];
                for v in chunk {
                    *v += bv;
                }
            }
        }
    }
    Tensor::new(&[b, cout, oh, ow], out)
}

/// Materialized conv-transpose backward: im2col over the adjoint geometry,
/// then two GEMMs.
fn conv_t_ref_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    s: usize,
    p: usize,
) -> (Tensor, Tensor, Tensor) {
    let (b, cin, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (cout, kh, kw) = (weight.shape()[1], weight.shape()[2], weight.shape()[3]);
    let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
    let (ckk, hw) = (cout * kh * kw, h * w);
    let mut grad_input = vec![0.0f32; input.len()];
    let mut gw = Tensor::zeros(weight.shape());
    let mut gb = Tensor::zeros(&[cout]);
    let mut gcols = vec![0.0f32; ckk * hw];
    for bi in 0..b {
        let g = &grad_out.data()[bi * cout * oh * ow..(bi + 1) * cout * oh * ow];
        let x = &input.data()[bi * cin * hw..(bi + 1) * cin * hw];
        im2col(g, cout, oh, ow, kh, kw, s, p, h, w, &mut gcols);
        let gi = &mut grad_input[bi * cin * hw..(bi + 1) * cin * hw];
        matmul_into(weight.data(), &gcols, gi, cin, ckk, hw);
        matmul_nt_acc_into(x, &gcols, gw.data_mut(), cin, hw, ckk);
        for oc in 0..cout {
            gb.data_mut()[oc] += g[oc * oh * ow..(oc + 1) * oh * ow].iter().sum::<f32>();
        }
    }
    (Tensor::new(input.shape(), grad_input), gw, gb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// conv2d forward + backward, implicit vs materialized, bitwise.
    #[test]
    fn conv2d_implicit_matches_materialized_bitwise(
        b in 1usize..3,
        c in 1usize..4,
        o in 1usize..4,
        h in 1usize..8,
        w in 1usize..8,
        kh in 1usize..4,
        kw in 1usize..4,
        s in 1usize..3,
        p in 0usize..3,
        seed in 0u64..1024,
    ) {
        // Clamp the kernel so the padded input always covers it.
        let kh = kh.min(h + 2 * p);
        let kw = kw.min(w + 2 * p);
        let x = filled(&[b, c, h, w], seed);
        let wt = filled(&[o, c, kh, kw], seed ^ 0x11);
        let bias = filled(&[o], seed ^ 0x22);

        let got = conv2d_forward(&x, &wt, &bias, s, p);
        let want = conv_ref_forward(&x, &wt, &bias, s, p);
        assert_bits_eq(&got, &want, "conv2d forward");

        let g = filled(got.shape(), seed ^ 0x33);
        let (gx, gw, gb) = conv2d_backward(&x, &wt, &g, s, p);
        let (gx_ref, gw_ref, gb_ref) = conv_ref_backward(&x, &wt, &g, s, p);
        assert_bits_eq(&gx, &gx_ref, "conv2d grad_input");
        assert_bits_eq(&gw, &gw_ref, "conv2d grad_weight");
        assert_bits_eq(&gb, &gb_ref, "conv2d grad_bias");
    }

    /// conv_transpose2d forward + backward, implicit (fused col2im) vs
    /// materialized, bitwise.
    #[test]
    fn conv_t_implicit_matches_materialized_bitwise(
        b in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        h in 1usize..7,
        w in 1usize..7,
        kh in 1usize..5,
        kw in 1usize..5,
        s in 1usize..3,
        p in 0usize..3,
        seed in 0u64..1024,
    ) {
        // Clamp the padding so the transposed output stays >= 1 on each axis.
        let p = p
            .min(((h - 1) * s + kh - 1) / 2)
            .min(((w - 1) * s + kw - 1) / 2);
        let x = filled(&[b, cin, h, w], seed);
        let wt = filled(&[cin, cout, kh, kw], seed ^ 0x44);
        let bias = filled(&[cout], seed ^ 0x55);

        let got = conv_transpose2d_forward(&x, &wt, &bias, s, p);
        let want = conv_t_ref_forward(&x, &wt, &bias, s, p);
        assert_bits_eq(&got, &want, "conv_t forward");

        let g = filled(got.shape(), seed ^ 0x66);
        let (gx, gw, gb) = conv_transpose2d_backward(&x, &wt, &g, s, p);
        let (gx_ref, gw_ref, gb_ref) = conv_t_ref_backward(&x, &wt, &g, s, p);
        assert_bits_eq(&gx, &gx_ref, "conv_t grad_input");
        assert_bits_eq(&gw, &gw_ref, "conv_t grad_weight");
        assert_bits_eq(&gb, &gb_ref, "conv_t grad_bias");
    }
}

/// A fixed larger odd-shape case crossing MC/KC/NC panel edges inside the
/// per-sample GEMMs, plus thread-count invariance of the whole conv path
/// (the per-sample batch split and the shared-panel GEMM schedule must
/// both be bitwise thread-count independent).
#[test]
fn conv_paths_bitwise_identical_across_thread_counts() {
    use md_tensor::parallel::scoped_max_threads;
    let (b, c, o, h, w, kh, s, p) = (3, 5, 7, 13, 11, 3, 2, 1);
    let x = filled(&[b, c, h, w], 7);
    let wt = filled(&[o, c, kh, kh], 8);
    let bias = filled(&[o], 9);
    let run = |threads: usize| {
        let _g = scoped_max_threads(threads);
        let out = conv2d_forward(&x, &wt, &bias, s, p);
        let gout = filled(out.shape(), 10);
        let (gx, gw, gb) = conv2d_backward(&x, &wt, &gout, s, p);
        (out, gx, gw, gb)
    };
    let seq = run(1);
    for threads in [2, 3, 8] {
        let par = run(threads);
        for (which, (a, b)) in [
            (&seq.0, &par.0),
            (&seq.1, &par.1),
            (&seq.2, &par.2),
            (&seq.3, &par.3),
        ]
        .iter()
        .enumerate()
        {
            for (i, (x0, x1)) in a.data().iter().zip(b.data()).enumerate() {
                assert_eq!(
                    x0.to_bits(),
                    x1.to_bits(),
                    "output {which} element {i} differs at {threads} threads"
                );
            }
        }
    }
}

/// Checks that `Need::Input` and `Need::Params` are bitwise projections of
/// `Need::All` for one backward kernel. The gradient tensors start from a
/// non-zero sentinel, so "left untouched" and "accumulated into" are both
/// observable.
fn assert_needs_project_the_full_pass(
    kernel: impl Fn(Need, &mut Tensor, &mut Tensor) -> Option<Tensor>,
    gw_shape: &[usize],
    gb_len: usize,
    what: &str,
) {
    let sentinel = || {
        (
            filled(gw_shape, 0x5E).add_scalar(0.375),
            filled(&[gb_len], 0x5F).add_scalar(-1.25),
        )
    };
    let (gw0, gb0) = sentinel();

    let (mut gw_all, mut gb_all) = sentinel();
    let gx_all = kernel(Need::All, &mut gw_all, &mut gb_all).expect("All returns dx");

    let (mut gw, mut gb) = sentinel();
    let gx = kernel(Need::Input, &mut gw, &mut gb).expect("Input returns dx");
    assert_bits_eq(&gx, &gx_all, &format!("{what} input-only dx"));
    assert_bits_eq(&gw, &gw0, &format!("{what} input-only grad_weight"));
    assert_bits_eq(&gb, &gb0, &format!("{what} input-only grad_bias"));

    let (mut gw, mut gb) = sentinel();
    for round in 1..=2 {
        if round == 2 {
            kernel(Need::All, &mut gw_all, &mut gb_all);
        }
        assert!(kernel(Need::Params, &mut gw, &mut gb).is_none());
        assert_bits_eq(
            &gw,
            &gw_all,
            &format!("{what} params-only grad_weight x{round}"),
        );
        assert_bits_eq(
            &gb,
            &gb_all,
            &format!("{what} params-only grad_bias x{round}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// conv2d backward: each need computes its half of the full pass,
    /// bitwise, and leaves the other half alone.
    #[test]
    fn conv2d_needs_project_the_full_pass(
        b in 1usize..3,
        c in 1usize..4,
        o in 1usize..4,
        h in 1usize..8,
        w in 1usize..8,
        kh in 1usize..4,
        kw in 1usize..4,
        s in 1usize..3,
        p in 0usize..3,
        seed in 0u64..1024,
    ) {
        let kh = kh.min(h + 2 * p);
        let kw = kw.min(w + 2 * p);
        let x = filled(&[b, c, h, w], seed);
        let wt = filled(&[o, c, kh, kw], seed ^ 0x11);
        let oh = conv_out_dim(h, kh, s, p);
        let ow = conv_out_dim(w, kw, s, p);
        let g = filled(&[b, o, oh, ow], seed ^ 0x33);
        assert_needs_project_the_full_pass(
            |need, gw, gb| conv2d_backward_into(&x, &wt, &g, s, p, need, true, gw, gb),
            wt.shape(),
            o,
            "conv2d",
        );
    }

    /// The same for conv_transpose2d.
    #[test]
    fn conv_t_needs_project_the_full_pass(
        b in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        h in 1usize..7,
        w in 1usize..7,
        kh in 1usize..5,
        kw in 1usize..5,
        s in 1usize..3,
        p in 0usize..3,
        seed in 0u64..1024,
    ) {
        let p = p
            .min(((h - 1) * s + kh - 1) / 2)
            .min(((w - 1) * s + kw - 1) / 2);
        let x = filled(&[b, cin, h, w], seed);
        let wt = filled(&[cin, cout, kh, kw], seed ^ 0x44);
        let oh = conv_transpose_out_dim(h, kh, s, p);
        let ow = conv_transpose_out_dim(w, kw, s, p);
        let g = filled(&[b, cout, oh, ow], seed ^ 0x66);
        assert_needs_project_the_full_pass(
            |need, gw, gb| conv_transpose2d_backward_into(&x, &wt, &g, s, p, need, true, gw, gb),
            wt.shape(),
            cout,
            "conv_t",
        );
    }
}

/// The projections hold at every thread count, on odd shapes large enough
/// to cross panel edges and the parallel gate.
#[test]
fn need_projections_hold_across_thread_counts() {
    use md_tensor::parallel::scoped_max_threads;
    let (b, c, o, s, p) = (3, 5, 7, 2, 1);
    let x = filled(&[b, c, 13, 11], 7);
    let wt = filled(&[o, c, 3, 3], 8);
    let g = filled(
        &[b, o, conv_out_dim(13, 3, s, p), conv_out_dim(11, 3, s, p)],
        10,
    );
    let xt = filled(&[b, o, 6, 5], 11);
    let wtt = filled(&[o, c, 4, 4], 12);
    let gt = filled(
        &[
            b,
            c,
            conv_transpose_out_dim(6, 4, s, p),
            conv_transpose_out_dim(5, 4, s, p),
        ],
        13,
    );
    for threads in [1, 2, 3] {
        let _guard = scoped_max_threads(threads);
        assert_needs_project_the_full_pass(
            |need, gw, gb| conv2d_backward_into(&x, &wt, &g, s, p, need, true, gw, gb),
            wt.shape(),
            o,
            "conv2d",
        );
        assert_needs_project_the_full_pass(
            |need, gw, gb| conv_transpose2d_backward_into(&xt, &wtt, &gt, s, p, need, true, gw, gb),
            wtt.shape(),
            c,
            "conv_t",
        );
    }
}

// ---------------------------------------------------------------------------
// Edges of the phase-plane / packed-weight / batch-folded conv paths that the
// random cases above (b < 3, h, w < 8, stride <= 2) never reach.
// ---------------------------------------------------------------------------

/// [`conv_ref_backward`] continuing from caller-supplied weight and bias
/// gradients — what an accumulating kernel must produce from non-zero ones.
fn conv_ref_backward_from(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    s: usize,
    p: usize,
    mut gw: Tensor,
    mut gb: Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
    let (ckk, ohw) = (c * kh * kw, oh * ow);
    let mut cols = vec![0.0f32; ckk * ohw];
    for bi in 0..b {
        let image = &input.data()[bi * c * h * w..(bi + 1) * c * h * w];
        let g = &grad_out.data()[bi * o * ohw..(bi + 1) * o * ohw];
        im2col(image, c, h, w, kh, kw, s, p, oh, ow, &mut cols);
        matmul_nt_acc_into(g, &cols, gw.data_mut(), o, ohw, ckk);
        for oc in 0..o {
            gb.data_mut()[oc] += g[oc * ohw..(oc + 1) * ohw].iter().sum::<f32>();
        }
    }
    let (gx, _, _) = conv_ref_backward(input, weight, grad_out, s, p);
    (gx, gw, gb)
}

/// The same for [`conv_t_ref_backward`].
fn conv_t_ref_backward_from(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    s: usize,
    p: usize,
    mut gw: Tensor,
    mut gb: Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (b, cin, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (cout, kh, kw) = (weight.shape()[1], weight.shape()[2], weight.shape()[3]);
    let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
    let (ckk, hw) = (cout * kh * kw, h * w);
    let mut gcols = vec![0.0f32; ckk * hw];
    for bi in 0..b {
        let g = &grad_out.data()[bi * cout * oh * ow..(bi + 1) * cout * oh * ow];
        let x = &input.data()[bi * cin * hw..(bi + 1) * cin * hw];
        im2col(g, cout, oh, ow, kh, kw, s, p, h, w, &mut gcols);
        matmul_nt_acc_into(x, &gcols, gw.data_mut(), cin, hw, ckk);
        for oc in 0..cout {
            gb.data_mut()[oc] += g[oc * oh * ow..(oc + 1) * oh * ow].iter().sum::<f32>();
        }
    }
    let (gx, _, _) = conv_t_ref_backward(input, weight, grad_out, s, p);
    (gx, gw, gb)
}

/// Runs one backward kernel under each [`Need`] from non-zero gradient
/// tensors and holds every output to the materialized reference: the
/// gradients a need names continue the sentinel's chain bit for bit, the
/// others keep the sentinel.
fn assert_needs_match_reference(
    kernel: impl Fn(Need, &mut Tensor, &mut Tensor) -> Option<Tensor>,
    reference: impl Fn(Tensor, Tensor) -> (Tensor, Tensor, Tensor),
    gw_shape: &[usize],
    gb_len: usize,
    what: &str,
) {
    let sentinel = || {
        (
            filled(gw_shape, 0x5E).add_scalar(0.375),
            filled(&[gb_len], 0x5F).add_scalar(-1.25),
        )
    };
    let (gw0, gb0) = sentinel();
    let (gx_ref, gw_ref, gb_ref) = reference(sentinel().0, sentinel().1);
    for need in [Need::All, Need::Input, Need::Params] {
        let (mut gw, mut gb) = sentinel();
        let gx = kernel(need, &mut gw, &mut gb);
        match (&gx, need.input()) {
            (Some(gx), true) => assert_bits_eq(gx, &gx_ref, &format!("{what} {need:?} dx")),
            (None, false) => {}
            _ => panic!("{what} {need:?}: input gradient presence does not match the need"),
        }
        let (gw_want, gb_want) = if need.params() {
            (&gw_ref, &gb_ref)
        } else {
            (&gw0, &gb0)
        };
        assert_bits_eq(&gw, gw_want, &format!("{what} {need:?} grad_weight"));
        assert_bits_eq(&gb, gb_want, &format!("{what} {need:?} grad_bias"));
    }
}

/// `(b, c, o, h, w, kh, kw, stride, pad)`.
type ConvCase = (
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

/// conv2d cases: `c` input channels, `o` filters, `(h, w)` input.
const CONV_EDGE_CASES: &[ConvCase] = &[
    // Stride 3 under a 7x7 kernel: three phases, tap offsets kj/s up to 2,
    // pad 2 not a multiple of the stride; 6x5 outputs.
    (2, 2, 3, 20, 17, 7, 7, 3, 2),
    // 5x3 kernel (kh > 2*stride) on a 9x14 image; ow = 7.
    (2, 3, 4, 9, 14, 5, 3, 2, 1),
    // No padding; ow = 20 straddles the first NR sliver edge.
    (1, 2, 3, 11, 41, 3, 3, 2, 0),
    // Even 2x4 kernel; ow = 12.
    (1, 2, 2, 6, 24, 2, 4, 2, 1),
    // Stride 1, pad 2.
    (2, 2, 3, 6, 5, 5, 5, 1, 2),
    // Stride 3, 4x8 kernel, pad 1; ow = 3.
    (1, 1, 2, 10, 13, 4, 8, 3, 1),
    // 10x10 outputs at b = 7: b*oh*ow = 700 > 2*KC and 100 does not divide
    // KC, so the weight gradient's k panels cut through samples.
    (7, 3, 5, 20, 20, 3, 3, 2, 1),
    // The discriminator of `ArchSpec::cnn_cifar_scaled(32)` at b = 10.
    (10, 3, 16, 32, 32, 3, 3, 2, 1),
    (10, 16, 32, 16, 16, 3, 3, 2, 1),
    (10, 32, 64, 8, 8, 3, 3, 2, 1),
    // Run widths on both sides of the whole-row path (`ow` of 4, 8 or 16,
    // or not): ow = 1 from an odd 3-wide image, ow = 2 from
    // a 2-pair stride-2 row, ow = 32 from a 32-pair row; ow = 4 over only
    // three output rows (a short last sliver), ow = 4 at stride 1, ow = 8
    // at stride 3, and ow = 8 from 8-pair rows at an even pad.
    (2, 2, 3, 5, 3, 3, 3, 2, 0),
    (2, 3, 2, 7, 4, 3, 3, 2, 1),
    (1, 2, 3, 5, 64, 3, 3, 2, 1),
    (2, 2, 3, 6, 8, 3, 3, 2, 1),
    (2, 2, 2, 4, 4, 3, 3, 1, 1),
    (1, 2, 3, 9, 24, 3, 3, 3, 0),
    (2, 2, 3, 8, 16, 5, 5, 2, 2),
];

/// conv_transpose2d cases: `c` input channels, `o` output channels, `(h, w)`
/// input — the grid the column matrix ranges over, so `w` is the run length.
const CONV_T_EDGE_CASES: &[ConvCase] = &[
    (2, 3, 2, 6, 5, 7, 7, 3, 2),
    (1, 2, 3, 4, 12, 5, 3, 2, 1),
    (1, 2, 2, 3, 20, 3, 4, 2, 0),
    (2, 2, 3, 5, 3, 4, 8, 3, 1),
    (2, 3, 2, 6, 5, 5, 5, 1, 2),
    (7, 5, 3, 10, 10, 4, 4, 2, 1),
    // The generator of `ArchSpec::cnn_cifar_scaled(32)` at b = 10.
    (10, 64, 32, 4, 4, 4, 4, 2, 1),
    (10, 32, 16, 8, 8, 4, 4, 2, 1),
    (10, 16, 3, 16, 16, 4, 4, 2, 1),
    // Run widths 1, 2 and 32 (all run by run), and 16 at stride 1 (whole
    // rows).
    (2, 3, 2, 3, 1, 4, 4, 2, 1),
    (2, 2, 3, 4, 2, 3, 3, 2, 0),
    (1, 2, 2, 2, 32, 4, 4, 2, 1),
    (1, 2, 2, 3, 16, 3, 3, 1, 1),
];

fn check_conv2d_case(&(b, c, o, h, w, kh, kw, s, p): &ConvCase, seed: u64) {
    let what = format!("conv2d {:?}", (b, c, o, h, w, kh, kw, s, p));
    let x = filled(&[b, c, h, w], seed);
    let wt = filled(&[o, c, kh, kw], seed ^ 0x11);
    let bias = filled(&[o], seed ^ 0x22);
    let got = conv2d_forward(&x, &wt, &bias, s, p);
    let want = conv_ref_forward(&x, &wt, &bias, s, p);
    assert_bits_eq(&got, &want, &format!("{what} forward"));
    let no_bias = Tensor::zeros(&[0]);
    assert_bits_eq(
        &conv2d_forward(&x, &wt, &no_bias, s, p),
        &conv_ref_forward(&x, &wt, &no_bias, s, p),
        &format!("{what} forward without bias"),
    );
    let g = filled(got.shape(), seed ^ 0x33);
    assert_needs_match_reference(
        |need, gw, gb| conv2d_backward_into(&x, &wt, &g, s, p, need, true, gw, gb),
        |gw, gb| conv_ref_backward_from(&x, &wt, &g, s, p, gw, gb),
        wt.shape(),
        o,
        &what,
    );
}

fn check_conv_t_case(&(b, cin, cout, h, w, kh, kw, s, p): &ConvCase, seed: u64) {
    let what = format!("conv_t {:?}", (b, cin, cout, h, w, kh, kw, s, p));
    let x = filled(&[b, cin, h, w], seed);
    let wt = filled(&[cin, cout, kh, kw], seed ^ 0x44);
    let bias = filled(&[cout], seed ^ 0x55);
    let got = conv_transpose2d_forward(&x, &wt, &bias, s, p);
    let want = conv_t_ref_forward(&x, &wt, &bias, s, p);
    assert_bits_eq(&got, &want, &format!("{what} forward"));
    let g = filled(got.shape(), seed ^ 0x66);
    assert_needs_match_reference(
        |need, gw, gb| conv_transpose2d_backward_into(&x, &wt, &g, s, p, need, true, gw, gb),
        |gw, gb| conv_t_ref_backward_from(&x, &wt, &g, s, p, gw, gb),
        wt.shape(),
        cout,
        &what,
    );
}

/// Every edge case, forward and all three needs, bitwise against the
/// materialized reference — at every pool width.
#[test]
fn edge_shapes_match_materialized_bitwise_at_every_width() {
    use md_tensor::parallel::scoped_max_threads;
    for threads in [1, 2, 3, 8] {
        let _guard = scoped_max_threads(threads);
        for (i, case) in CONV_EDGE_CASES.iter().enumerate() {
            check_conv2d_case(case, 40 + i as u64);
        }
        for (i, case) in CONV_T_EDGE_CASES.iter().enumerate() {
            check_conv_t_case(case, 70 + i as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// The phase planes as a cached operand, and the direct weight gradient that
// reads its taps from them (`ops/conv/wgrad.rs`).
// ---------------------------------------------------------------------------

use md_tensor::ops::conv::{conv2d_backward_planes, conv2d_forward_planes, ConvPlanes};

/// The planes hold the activation exactly (`unsplit(split(x)) == x`) and
/// every column-matrix element read back from them is the one `im2col`
/// unfolds from the image — strides 1 / 2 / 3, odd widths, widths below the
/// stride, pads that are not multiples of the stride.
#[test]
fn planes_round_trip_and_hold_every_im2col_element() {
    let mut cases = 0;
    for s in 1..=3usize {
        for p in 0..=4usize {
            for (h, w) in [
                (1, 1),
                (2, 1),
                (1, 2),
                (3, 2),
                (5, 7),
                (4, 9),
                (8, 8),
                (6, 13),
            ] {
                for (kh, kw) in [(1, 1), (3, 3), (2, 4), (5, 3)] {
                    if kh > h + 2 * p || kw > w + 2 * p {
                        continue;
                    }
                    let what = format!("({h}x{w}, k {kh}x{kw}, s {s}, p {p})");
                    let (b, c) = (3, 2);
                    let x = filled(&[b, c, h, w], (cases + 1) as u64);
                    let planes = ConvPlanes::split(&x, kh, kw, s, p);
                    assert_eq!(planes.shape(), [b, c, h, w]);
                    assert_bits_eq(&planes.unsplit(), &x, &format!("{what} round trip"));
                    let oh = conv_out_dim(h, kh, s, p);
                    let ow = conv_out_dim(w, kw, s, p);
                    let len = c * kh * kw * oh * ow;
                    let (mut want, mut got) = (vec![0.0f32; len], vec![f32::NAN; len]);
                    for bi in 0..b {
                        let image = &x.data()[bi * c * h * w..(bi + 1) * c * h * w];
                        im2col(image, c, h, w, kh, kw, s, p, oh, ow, &mut want);
                        planes.im2col(bi, &mut got);
                        assert_bits_eq(
                            &Tensor::new(&[len], got.clone()),
                            &Tensor::new(&[len], want.clone()),
                            &format!("{what} sample {bi} columns"),
                        );
                    }
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 200, "only {cases} geometries were checked");
}

/// As [`assert_bits_eq`], but a NaN matches a NaN of any payload: which of
/// two NaN multiplicands a fused multiply-add propagates depends on the
/// operand order, and the direct weight gradient swaps it.
fn assert_bits_eq_nan_any(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what} shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what} element {i}: direct {x} vs materialized {y}"
        );
    }
}

/// The gradient sentinels of [`assert_needs_match_reference`].
fn sentinel_grads(gw_shape: &[usize], gb_len: usize) -> (Tensor, Tensor) {
    (
        filled(gw_shape, 0x5E).add_scalar(0.375),
        filled(&[gb_len], 0x5F).add_scalar(-1.25),
    )
}

/// conv2d weight/bias gradients, written (`acc = false`) and accumulated
/// into sentinels, against the materialized reference.
fn check_conv2d_weight_grad(&(b, c, o, h, w, kh, kw, s, p): &ConvCase, seed: u64) {
    let what = format!("conv2d {:?}", (b, c, o, h, w, kh, kw, s, p));
    let x = filled(&[b, c, h, w], seed);
    let wt = filled(&[o, c, kh, kw], seed ^ 0x11);
    let (oh, ow) = (conv_out_dim(h, kh, s, p), conv_out_dim(w, kw, s, p));
    let g = filled(&[b, o, oh, ow], seed ^ 0x33);
    for acc in [false, true] {
        let (gw0, gb0) = if acc {
            sentinel_grads(wt.shape(), o)
        } else {
            (Tensor::zeros(wt.shape()), Tensor::zeros(&[o]))
        };
        let (_, gw_ref, gb_ref) = conv_ref_backward_from(&x, &wt, &g, s, p, gw0, gb0);
        // Written gradients must not depend on what the buffers held.
        let (mut gw, mut gb) = sentinel_grads(wt.shape(), o);
        let gx = conv2d_backward_into(&x, &wt, &g, s, p, Need::Params, acc, &mut gw, &mut gb);
        assert!(gx.is_none());
        assert_bits_eq(&gw, &gw_ref, &format!("{what} acc={acc} grad_weight"));
        assert_bits_eq(&gb, &gb_ref, &format!("{what} acc={acc} grad_bias"));
    }
}

/// The same for conv_transpose2d: `c` input channels (the rows of its
/// weight gradient), `o` output channels.
fn check_conv_t_weight_grad(&(b, cin, cout, h, w, kh, kw, s, p): &ConvCase, seed: u64) {
    let what = format!("conv_t {:?}", (b, cin, cout, h, w, kh, kw, s, p));
    let x = filled(&[b, cin, h, w], seed);
    let wt = filled(&[cin, cout, kh, kw], seed ^ 0x44);
    let oh = conv_transpose_out_dim(h, kh, s, p);
    let ow = conv_transpose_out_dim(w, kw, s, p);
    let g = filled(&[b, cout, oh, ow], seed ^ 0x66);
    for acc in [false, true] {
        let (gw0, gb0) = if acc {
            sentinel_grads(wt.shape(), cout)
        } else {
            (Tensor::zeros(wt.shape()), Tensor::zeros(&[cout]))
        };
        let (_, gw_ref, gb_ref) = conv_t_ref_backward_from(&x, &wt, &g, s, p, gw0, gb0);
        let (mut gw, mut gb) = sentinel_grads(wt.shape(), cout);
        let need = Need::Params;
        let gx = conv_transpose2d_backward_into(&x, &wt, &g, s, p, need, acc, &mut gw, &mut gb);
        assert!(gx.is_none());
        assert_bits_eq(&gw, &gw_ref, &format!("{what} acc={acc} grad_weight"));
        assert_bits_eq(&gb, &gb_ref, &format!("{what} acc={acc} grad_bias"));
    }
}

/// The direct weight gradient against `im2col` + `matmul_nt_acc_into`,
/// bitwise, for both layers at every pool width: gradient rows on both
/// sides of the 16-lane sliver and the sliver pair (1, 15, 16, 17, 33),
/// `c·kh·kw` off the 8-tap tile (27, 18, 50, 48), `oh·ow` off 16, b = 7,
/// one shape per layer whose 140 output rows outgrow a `k` panel (136 rows
/// at 48 padded channels x 20 columns), so partial sums are carried, and
/// one per layer large enough (`c·kh·kw · rows · b·oh·ow` > 2^23) for its
/// tap tiles to be split across the pool.
#[test]
fn direct_weight_gradient_matches_materialized_bitwise() {
    use md_tensor::parallel::scoped_max_threads;
    let rows = [1usize, 15, 16, 17, 33];
    for threads in [1, 2, 3, 8] {
        let _guard = scoped_max_threads(threads);
        for (i, &m) in rows.iter().enumerate() {
            let seed = 100 + i as u64;
            // 7x5 and 5x4 output grids; 27 and 18 column-matrix rows.
            check_conv2d_weight_grad(&(7, 3, m, 13, 10, 3, 3, 2, 1), seed);
            check_conv2d_weight_grad(&(7, 2, m, 9, 8, 3, 3, 2, 2), seed ^ 0x100);
            // 5x3 and 4x5 input grids; 50 and 48 column-matrix rows.
            check_conv_t_weight_grad(&(7, m, 2, 5, 3, 5, 5, 2, 2), seed ^ 0x200);
            check_conv_t_weight_grad(&(7, m, 3, 4, 5, 4, 4, 3, 1), seed ^ 0x300);
        }
        check_conv2d_weight_grad(&(7, 3, 33, 40, 40, 3, 3, 2, 1), 120);
        check_conv_t_weight_grad(&(7, 33, 2, 20, 20, 4, 4, 2, 1), 121);
        check_conv2d_weight_grad(&(30, 16, 32, 16, 16, 3, 3, 2, 1), 122);
        check_conv_t_weight_grad(&(30, 32, 16, 8, 8, 4, 4, 2, 1), 123);
    }
}

/// ±0.0, NaN and ±Inf in both operands of the weight gradient: `0·NaN` and
/// `0·Inf` must reach the gradient exactly as the reference chain carries
/// them (no zero-skip, no pad lane or pad tap leaking in).
#[test]
fn direct_weight_gradient_propagates_specials() {
    const SPECIALS: [f32; 6] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0];
    let sprinkle = |t: &mut Tensor, every: usize, at: usize| {
        for (e, v) in t.data_mut().iter_mut().enumerate() {
            if e % every == at {
                *v = SPECIALS[(e / every) % SPECIALS.len()];
            }
        }
    };
    let (b, c, o, h, w, k, s, p) = (3, 3, 17, 9, 11, 3, 2, 1);
    let mut x = filled(&[b, c, h, w], 130);
    sprinkle(&mut x, 29, 2);
    let wt = filled(&[o, c, k, k], 131);
    let mut g = filled(
        &[b, o, conv_out_dim(h, k, s, p), conv_out_dim(w, k, s, p)],
        132,
    );
    sprinkle(&mut g, 31, 4);
    let (_, gw_ref, _) = conv_ref_backward(&x, &wt, &g, s, p);
    let (mut gw, mut gb) = sentinel_grads(wt.shape(), o);
    conv2d_backward_into(&x, &wt, &g, s, p, Need::Params, false, &mut gw, &mut gb);
    assert_bits_eq_nan_any(&gw, &gw_ref, "conv2d specials grad_weight");
    let nans = gw_ref.data().iter().filter(|v| v.is_nan()).count();
    assert!(
        nans > 0 && nans < gw_ref.len(),
        "the case must produce some NaNs"
    );

    let (cin, cout) = (17, 2);
    let mut xt = filled(&[b, cin, 4, 5], 133);
    sprinkle(&mut xt, 31, 4);
    let wtt = filled(&[cin, cout, 4, 4], 134);
    let (oh, ow) = (
        conv_transpose_out_dim(4, 4, s, p),
        conv_transpose_out_dim(5, 4, s, p),
    );
    let mut gt = filled(&[b, cout, oh, ow], 135);
    sprinkle(&mut gt, 29, 2);
    let (_, gw_ref, _) = conv_t_ref_backward(&xt, &wtt, &gt, s, p);
    let (mut gw, mut gb) = sentinel_grads(wtt.shape(), cout);
    conv_transpose2d_backward_into(&xt, &wtt, &gt, s, p, Need::Params, false, &mut gw, &mut gb);
    assert_bits_eq_nan_any(&gw, &gw_ref, "conv_t specials grad_weight");
    let nans = gw_ref.data().iter().filter(|v| v.is_nan()).count();
    assert!(
        nans > 0 && nans < gw_ref.len(),
        "the case must produce some NaNs"
    );
}

/// The gradient taken from the planes the forward pass handed out is the
/// gradient taken from the raw input, under every [`Need`], written and
/// accumulated — and a second call on the same planes repeats it.
#[test]
fn gradient_from_cached_planes_matches_the_raw_tensor() {
    for (i, &(b, c, o, h, w, kh, kw, s, p)) in CONV_EDGE_CASES.iter().enumerate() {
        let what = format!("conv2d {:?}", (b, c, o, h, w, kh, kw, s, p));
        let seed = 140 + i as u64;
        let x = filled(&[b, c, h, w], seed);
        let wt = filled(&[o, c, kh, kw], seed ^ 0x11);
        let bias = filled(&[o], seed ^ 0x22);
        let (y, planes) = conv2d_forward_planes(&x, &wt, &bias, s, p);
        assert_bits_eq(
            &y,
            &conv2d_forward(&x, &wt, &bias, s, p),
            &format!("{what} forward"),
        );
        let g = filled(y.shape(), seed ^ 0x33);
        for need in [Need::All, Need::Input, Need::Params] {
            for acc in [false, true] {
                let (mut gw_raw, mut gb_raw) = sentinel_grads(wt.shape(), o);
                let gx_raw =
                    conv2d_backward_into(&x, &wt, &g, s, p, need, acc, &mut gw_raw, &mut gb_raw);
                for round in 1..=2 {
                    let what = format!("{what} {need:?} acc={acc} x{round}");
                    let (mut gw, mut gb) = sentinel_grads(wt.shape(), o);
                    let gx = conv2d_backward_planes(&planes, &wt, &g, need, acc, &mut gw, &mut gb);
                    match (&gx, &gx_raw) {
                        (Some(gx), Some(gx_raw)) => assert_bits_eq(gx, gx_raw, &what),
                        (None, None) => {}
                        _ => panic!("{what}: input gradient presence differs"),
                    }
                    assert_bits_eq(&gw, &gw_raw, &format!("{what} grad_weight"));
                    assert_bits_eq(&gb, &gb_raw, &format!("{what} grad_bias"));
                }
            }
        }
    }
}
