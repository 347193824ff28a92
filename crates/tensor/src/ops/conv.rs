//! 2-D convolution and transposed convolution as **implicit GEMM**, with
//! analytic gradients.
//!
//! Layout conventions (all row-major):
//! * activations: `(B, C, H, W)`
//! * conv2d weights: `(O, C, KH, KW)` — `O` output channels
//! * conv-transpose2d weights: `(C_in, C_out, KH, KW)` (PyTorch convention)
//!
//! Every path is an im2col-style GEMM, but the `(C*KH*KW, OH*OW)` column
//! matrix is **never materialized**: the [`Im2colRhs`] / [`Im2colTRhs`]
//! packers implement [`gemm::PackRhs`] and extract convolution patches on
//! the fly straight into the GEMM's packed sliver format, and the
//! transposed/grad-input paths fuse `col2im` into the GEMM epilogue via
//! [`gemm::gemm_scatter`] (each finished row-block tile is scattered into
//! the image and discarded). The reference [`im2col`] / [`col2im`]
//! functions remain as the spec: every implicit path is bitwise identical
//! to materialize-then-multiply (the packers read the exact same values
//! and the GEMM's per-element `k`-order is unchanged; the tile scatter
//! accumulates in the same ascending `(row, position)` order as
//! [`col2im`]).
//!
//! The transposed convolution is implemented as the exact adjoint of the
//! convolution: its forward pass is a `col2im` scatter, and its backward
//! pass reuses the `im2col` geometry. This guarantees that `conv_t`
//! forward is literally the gradient of `conv` with respect to its input,
//! a property the unit tests check.

use crate::ops::gemm::{self, Lhs, PackRhs, SliceRhs, NR};
use crate::ops::Need;
use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace;

/// Spatial output size of a convolution along one axis.
///
/// # Panics
/// Panics if the configuration yields a non-positive size.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "kernel {kernel} larger than padded input {padded}"
    );
    (padded - kernel) / stride + 1
}

/// Spatial output size of a transposed convolution along one axis.
///
/// # Panics
/// Panics if `input == 0` (the `(input - 1) * stride` term would otherwise
/// underflow and silently wrap in release builds), if `stride == 0`, or if
/// the padding exceeds the produced size.
pub fn conv_transpose_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input > 0,
        "conv_transpose input dim must be positive (got 0)"
    );
    let full = (input - 1) * stride + kernel;
    assert!(
        full >= 2 * pad,
        "padding {pad} too large for transposed conv output {full}"
    );
    full - 2 * pad
}

/// Unfolds one `(C, H, W)` image into a `(C*KH*KW, OH*OW)` column matrix.
///
/// `cols` must be zero-initialised or will be fully overwritten (including
/// the zero-padding positions).
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    assert_eq!(image.len(), c * h * w, "im2col image size mismatch");
    assert_eq!(
        cols.len(),
        c * kh * kw * oh * ow,
        "im2col cols size mismatch"
    );
    let ohw = oh * ow;
    for ci in 0..c {
        let img_base = ci * h * w;
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ci * kh + ki) * kw + kj) * ohw;
                for oy in 0..oh {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    let col_base = row + oy * ow;
                    if iy < 0 || iy >= h as isize {
                        cols[col_base..col_base + ow].fill(0.0);
                        continue;
                    }
                    let img_row = img_base + iy as usize * w;
                    for ox in 0..ow {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        cols[col_base + ox] = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            image[img_row + ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters a `(C*KH*KW, OH*OW)` column matrix back
/// into a `(C, H, W)` image, *accumulating* overlapping contributions.
///
/// The caller must zero `image` first if a pure scatter is wanted.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    image: &mut [f32],
) {
    assert_eq!(image.len(), c * h * w, "col2im image size mismatch");
    assert_eq!(
        cols.len(),
        c * kh * kw * oh * ow,
        "col2im cols size mismatch"
    );
    let ohw = oh * ow;
    for ci in 0..c {
        let img_base = ci * h * w;
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ci * kh + ki) * kw + kj) * ohw;
                for oy in 0..oh {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let img_row = img_base + iy as usize * w;
                    let col_base = row + oy * ow;
                    for ox in 0..ow {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        if ix >= 0 && ix < w as isize {
                            image[img_row + ix as usize] += cols[col_base + ox];
                        }
                    }
                }
            }
        }
    }
}

/// One sample's convolution geometry: the `(c, h, w)` image, the kernel,
/// and the `(oh, ow)` output grid the column matrix ranges over. Shared by
/// the implicit packers and the fused scatter so their index math cannot
/// drift apart.
#[derive(Clone, Copy)]
struct ConvGeom {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl ConvGeom {
    /// Rows of the im2col column matrix: `c * kh * kw`.
    fn ckk(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the im2col column matrix: `oh * ow`.
    fn ohw(&self) -> usize {
        self.oh * self.ow
    }

    /// Splits a column-matrix row index into `(ci, ki, kj, image base)`.
    #[inline]
    fn split_row(&self, row: usize) -> (usize, usize, usize) {
        let kj = row % self.kw;
        let ki = (row / self.kw) % self.kh;
        let ci = row / (self.kw * self.kh);
        (ci, ki, kj)
    }
}

/// Implicit im2col right-hand operand: the virtual `(c*kh*kw, oh*ow)`
/// column matrix of one image, packed patch-by-patch on the fly. Reads the
/// exact values [`im2col`] would have written
/// (`cols[row][oy*ow + ox] = image[ci][oy*stride+ki-pad][ox*stride+kj-pad]`,
/// zero outside the image), so a GEMM over this operand is bitwise
/// identical to materialize-then-multiply.
struct Im2colRhs<'a> {
    image: &'a [f32],
    g: ConvGeom,
}

impl PackRhs for Im2colRhs<'_> {
    fn pack_panel(&self, bp: &mut [f32], kb: usize, kc: usize, jb: usize, nc: usize) {
        let ConvGeom {
            h,
            w,
            stride,
            pad,
            ow,
            ..
        } = self.g;
        let n = self.g.ohw();
        let nslivers = nc.div_ceil(NR);
        for s in 0..nslivers {
            let j0 = jb + s * NR;
            let jw = NR.min(n - j0);
            let sliver = &mut bp[s * kc * NR..(s + 1) * kc * NR];
            for p in 0..kc {
                let (ci, ki, kj) = self.g.split_row(kb + p);
                let img_base = ci * h * w;
                let dst = &mut sliver[p * NR..(p + 1) * NR];
                dst[jw..].fill(0.0);
                // Walk the jw output positions one oy-row at a time so the
                // vertical bounds check hoists out of the inner loop and
                // stride-1 interior segments become contiguous copies —
                // same traffic as `im2col`, minus the materialized matrix.
                let mut jj = 0;
                let mut oy = j0 / ow;
                let mut ox = j0 - oy * ow;
                while jj < jw {
                    let seg = (ow - ox).min(jw - jj);
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        dst[jj..jj + seg].fill(0.0);
                    } else {
                        let img_row = img_base + iy as usize * w;
                        pack_row_taps(
                            &mut dst[jj..jj + seg],
                            &self.image[img_row..img_row + w],
                            ox,
                            stride,
                            kj as isize - pad as isize,
                        );
                    }
                    jj += seg;
                    ox = 0;
                    oy += 1;
                }
            }
        }
    }
}

/// Packs `dst.len()` horizontal kernel taps `ix = (ox + i) * stride + off`
/// from one in-bounds image row, writing zero wherever `ix` falls outside
/// the row. At stride 1 the valid window is a single contiguous
/// `copy_from_slice`; larger strides fall back to a per-tap gather with
/// only the horizontal check left.
fn pack_row_taps(dst: &mut [f32], row: &[f32], ox: usize, stride: usize, off: isize) {
    let seg = dst.len() as isize;
    let w = row.len() as isize;
    if stride == 1 {
        let base = ox as isize + off; // tap i reads row[base + i]
        let lo = (-base).clamp(0, seg) as usize;
        let hi = (w - base).clamp(0, seg) as usize;
        dst[..lo].fill(0.0);
        if hi > lo {
            let start = (base + lo as isize) as usize;
            dst[lo..hi].copy_from_slice(&row[start..start + (hi - lo)]);
        }
        dst[hi.max(lo)..].fill(0.0);
    } else {
        for (i, d) in dst.iter_mut().enumerate() {
            let ix = ((ox + i) * stride) as isize + off;
            *d = if ix < 0 || ix >= w {
                0.0
            } else {
                row[ix as usize]
            };
        }
    }
}

/// Transposed implicit im2col operand: the virtual `(oh*ow, c*kh*kw)`
/// matrix `cols^T`, for `grad_weight += g · cols^T` products. Packing
/// element `[p][j]` reads `cols[j][p]` — the same image loads as
/// [`Im2colRhs`], transposed, so the accumulated gradients stay bitwise
/// equal to the materialized path.
struct Im2colTRhs<'a> {
    image: &'a [f32],
    g: ConvGeom,
}

impl PackRhs for Im2colTRhs<'_> {
    fn pack_panel(&self, bp: &mut [f32], kb: usize, kc: usize, jb: usize, nc: usize) {
        let ConvGeom {
            h,
            w,
            stride,
            pad,
            ow,
            ..
        } = self.g;
        let n = self.g.ckk();
        let nslivers = nc.div_ceil(NR);
        for s in 0..nslivers {
            let j0 = jb + s * NR;
            let jw = NR.min(n - j0);
            let sliver = &mut bp[s * kc * NR..(s + 1) * kc * NR];
            for jj in 0..NR {
                if jj >= jw {
                    for p in 0..kc {
                        sliver[p * NR + jj] = 0.0;
                    }
                    continue;
                }
                let (ci, ki, kj) = self.g.split_row(j0 + jj);
                let img_base = ci * h * w;
                let off = kj as isize - pad as isize;
                // `k` runs over output positions here; walk them one
                // oy-row segment at a time (vertical check hoisted), same
                // as the untransposed packer. Writes stay NR-strided.
                let mut p = 0;
                let mut oy = kb / ow;
                let mut ox = kb - oy * ow;
                while p < kc {
                    let seg = (ow - ox).min(kc - p);
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        for q in 0..seg {
                            sliver[(p + q) * NR + jj] = 0.0;
                        }
                    } else {
                        let row_base = img_base + iy as usize * w;
                        let row = &self.image[row_base..row_base + w];
                        for q in 0..seg {
                            let ix = ((ox + q) * stride) as isize + off;
                            sliver[(p + q) * NR + jj] = if ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                row[ix as usize]
                            };
                        }
                    }
                    p += seg;
                    ox = 0;
                    oy += 1;
                }
            }
        }
    }
}

/// Fused-col2im epilogue for [`gemm::gemm_scatter`]: accumulates `rows`
/// finished column-matrix rows (starting at global row `r0`) into the
/// image. Row blocks arrive in ascending order and each row scatters its
/// positions in ascending order, so the element-wise `+=` order is exactly
/// [`col2im`]'s `(row, oy, ox)` loop nest — bitwise identical to
/// materializing the whole column matrix first.
fn scatter_tile(tile: &[f32], r0: usize, rows: usize, g: &ConvGeom, image: &mut [f32]) {
    let ConvGeom {
        h,
        w,
        stride,
        pad,
        oh,
        ow,
        ..
    } = *g;
    let n = oh * ow;
    for r in 0..rows {
        let (ci, ki, kj) = g.split_row(r0 + r);
        let img_base = ci * h * w;
        let trow = r * n;
        for oy in 0..oh {
            let iy = (oy * stride + ki) as isize - pad as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            let img_row = img_base + iy as usize * w;
            let col_base = trow + oy * ow;
            for ox in 0..ow {
                let ix = (ox * stride + kj) as isize - pad as isize;
                if ix >= 0 && ix < w as isize {
                    image[img_row + ix as usize] += tile[col_base + ox];
                }
            }
        }
    }
}

/// Batched 2-D convolution forward pass.
///
/// * `input`: `(B, C, H, W)`
/// * `weight`: `(O, C, KH, KW)`
/// * `bias`: `(O,)` or empty tensor for no bias
///
/// Returns `(B, O, OH, OW)`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, c, h, w) = dims4(input, "conv2d input");
    let wd = weight.shape();
    assert_eq!(wd.len(), 4, "conv2d weight must be 4-D");
    let (o, wc, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(c, wc, "conv2d channel mismatch: input {c} vs weight {wc}");
    let has_bias = !bias.is_empty();
    if has_bias {
        assert_eq!(bias.len(), o, "conv2d bias size mismatch");
    }
    let oh = conv_out_dim(h, kh, stride, pad);
    let ow = conv_out_dim(w, kw, stride, pad);
    let ckk = c * kh * kw;
    let ohw = oh * ow;

    let geom = ConvGeom {
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        oh,
        ow,
    };
    // Implicit GEMM per sample: out (o, ohw) = weight (o, ckk) x cols
    // (ckk, ohw), with the column matrix packed on the fly — the GEMM
    // fully overwrites every sample, so the buffer can start uninitialized.
    let mut out = workspace::take_uninit(b * o * ohw);
    let in_data = input.data();
    let w_data = weight.data();
    let b_data = bias.data();
    parallel::parallel_for_chunks(&mut out, b, ckk * o * ohw, |bi, out_sample| {
        let image = &in_data[bi * c * h * w..(bi + 1) * c * h * w];
        let cols = Im2colRhs { image, g: geom };
        gemm::gemm_with(Lhs::RowMajor(w_data), &cols, out_sample, o, ckk, ohw, false);
        if has_bias {
            for (oc, chunk) in out_sample.chunks_mut(ohw).enumerate() {
                let bv = b_data[oc];
                for v in chunk {
                    *v += bv;
                }
            }
        }
    });
    Tensor::new(&[b, o, oh, ow], out)
}

/// Gradients of the batched conv2d.
///
/// Returns `(grad_input, grad_weight, grad_bias)` where `grad_bias` matches
/// `(O,)` (always produced; ignore it for bias-free layers).
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor, Tensor) {
    let mut grad_weight = Tensor::zeros(weight.shape());
    let mut grad_bias = Tensor::zeros(&[weight.shape()[0]]);
    let grad_input = conv2d_backward_acc(
        input,
        weight,
        grad_out,
        stride,
        pad,
        &mut grad_weight,
        &mut grad_bias,
    );
    (grad_input, grad_weight, grad_bias)
}

/// As [`conv2d_backward`], but **accumulates** the weight and bias gradients
/// into caller-owned tensors (`grad_weight += …`, `grad_bias += …`) and
/// returns only the freshly allocated input gradient:
/// [`conv2d_backward_need`] with [`Need::All`].
pub fn conv2d_backward_acc(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Tensor {
    conv2d_backward_need(
        input,
        weight,
        grad_out,
        stride,
        pad,
        Need::All,
        grad_weight,
        grad_bias,
    )
    .expect("Need::All produces an input gradient")
}

/// The conv2d gradient, computing only what `need` names.
///
/// The weight/bias gradients are **accumulated** into the caller-owned
/// tensors when `need.params()` and left untouched otherwise; the input
/// gradient is returned when `need.input()` (`None` otherwise). The two are
/// independent per-image GEMMs, so skipping one leaves the other
/// bit-for-bit what [`Need::All`] computes.
///
/// This is the hot-path entry point for training layers: no per-call
/// gradient tensors, no extra accumulation pass, and thread-local scratch
/// for the packed panels.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_need(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    need: Need,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Option<Tensor> {
    let (b, c, h, w) = dims4(input, "conv2d input");
    let wd = weight.shape();
    let (o, _, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let (gb, go, oh, ow) = dims4(grad_out, "conv2d grad_out");
    assert_eq!(gb, b, "conv2d grad batch mismatch");
    assert_eq!(go, o, "conv2d grad channel mismatch");
    assert_eq!(
        grad_weight.shape(),
        weight.shape(),
        "conv2d grad_weight shape mismatch"
    );
    assert_eq!(grad_bias.len(), o, "conv2d grad_bias size mismatch");
    let ckk = c * kh * kw;
    let ohw = oh * ow;

    let geom = ConvGeom {
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        oh,
        ow,
    };
    let mut grad_input = need.input().then(|| workspace::take_zeroed(input.len()));
    // weight.data() is already the (o, ckk) row-major matrix; the grad-input
    // product needs its transpose, which Lhs::ColMajor reads in place — no
    // materialized `w^T` copy.
    let w2 = weight.data();
    let gw = grad_weight.data_mut();
    let gbias = grad_bias.data_mut();

    for bi in 0..b {
        let image = &input.data()[bi * c * h * w..(bi + 1) * c * h * w];
        let g = &grad_out.data()[bi * o * ohw..(bi + 1) * o * ohw];

        if need.params() {
            // grad_weight += g (o, ohw) x cols^T (ohw, ckk), with the
            // transposed column matrix packed on the fly.
            let cols_t = Im2colTRhs { image, g: geom };
            gemm::gemm_with(Lhs::RowMajor(g), &cols_t, gw, o, ohw, ckk, true);

            for oc in 0..o {
                gbias[oc] += g[oc * ohw..(oc + 1) * ohw].iter().sum::<f32>();
            }
        }

        if let Some(grad_input) = &mut grad_input {
            // grad_input = col2im(W^T (ckk, o) x g (o, ohw)), with col2im
            // fused into the GEMM epilogue — grad_cols never materializes.
            let gi = &mut grad_input[bi * c * h * w..(bi + 1) * c * h * w];
            gemm::gemm_scatter(
                Lhs::ColMajor(w2),
                &SliceRhs::new(g, false, o, ohw),
                ckk,
                o,
                ohw,
                |tile, r0, rows| scatter_tile(tile, r0, rows, &geom, gi),
            );
        }
    }
    grad_input.map(|gi| Tensor::new(input.shape(), gi))
}

/// Batched 2-D transposed convolution forward pass.
///
/// * `input`: `(B, C_in, H, W)`
/// * `weight`: `(C_in, C_out, KH, KW)`
/// * `bias`: `(C_out,)` or empty
///
/// Returns `(B, C_out, OH, OW)` with `OH = (H-1)*stride - 2*pad + KH`.
pub fn conv_transpose2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, cin, h, w) = dims4(input, "conv_t input");
    let wd = weight.shape();
    assert_eq!(wd.len(), 4, "conv_t weight must be 4-D");
    let (wcin, cout, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(
        cin, wcin,
        "conv_t channel mismatch: input {cin} vs weight {wcin}"
    );
    let has_bias = !bias.is_empty();
    if has_bias {
        assert_eq!(bias.len(), cout, "conv_t bias size mismatch");
    }
    let oh = conv_transpose_out_dim(h, kh, stride, pad);
    let ow = conv_transpose_out_dim(w, kw, stride, pad);
    let ckk = cout * kh * kw;
    let hw = h * w;

    // The conv whose adjoint we are: image (cout, oh, ow) -> columns over
    // the input's (h, w) grid.
    let geom = ConvGeom {
        c: cout,
        h: oh,
        w: ow,
        kh,
        kw,
        stride,
        pad,
        oh: h,
        ow: w,
    };
    // weight.data() is the (cin, ckk) row-major matrix; Lhs::ColMajor reads
    // its transpose in place, so the old per-call `w2^T` copy is gone.
    let w_data = weight.data();
    let mut out = workspace::take_uninit(b * cout * oh * ow);
    let in_data = input.data();
    let b_data = bias.data();
    parallel::parallel_for_chunks(&mut out, b, cin * ckk * hw, |bi, out_sample| {
        let x = &in_data[bi * cin * hw..(bi + 1) * cin * hw];
        // cols (ckk, hw) = W2^T (ckk, cin) x x (cin, hw), scattered into
        // the output image tile by tile — the column matrix never
        // materializes.
        out_sample.fill(0.0);
        gemm::gemm_scatter(
            Lhs::ColMajor(w_data),
            &SliceRhs::new(x, false, cin, hw),
            ckk,
            cin,
            hw,
            |tile, r0, rows| scatter_tile(tile, r0, rows, &geom, out_sample),
        );
        if has_bias {
            for (oc, chunk) in out_sample.chunks_mut(oh * ow).enumerate() {
                let bv = b_data[oc];
                for v in chunk {
                    *v += bv;
                }
            }
        }
    });
    Tensor::new(&[b, cout, oh, ow], out)
}

/// Gradients of the batched transposed convolution.
///
/// Returns `(grad_input, grad_weight, grad_bias)`.
pub fn conv_transpose2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor, Tensor) {
    let mut grad_weight = Tensor::zeros(weight.shape());
    let mut grad_bias = Tensor::zeros(&[weight.shape()[1]]);
    let grad_input = conv_transpose2d_backward_acc(
        input,
        weight,
        grad_out,
        stride,
        pad,
        &mut grad_weight,
        &mut grad_bias,
    );
    (grad_input, grad_weight, grad_bias)
}

/// As [`conv_transpose2d_backward`], but **accumulates** the weight and bias
/// gradients into caller-owned tensors and returns only the input gradient:
/// [`conv_transpose2d_backward_need`] with [`Need::All`].
pub fn conv_transpose2d_backward_acc(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Tensor {
    conv_transpose2d_backward_need(
        input,
        weight,
        grad_out,
        stride,
        pad,
        Need::All,
        grad_weight,
        grad_bias,
    )
    .expect("Need::All produces an input gradient")
}

/// The transposed-convolution gradient, computing only what `need` names —
/// the same contract as [`conv2d_backward_need`]. The training layers use
/// this to cut per-step allocations; packed panels come from thread-local
/// scratch and the input gradient is written in place, sample by sample.
#[allow(clippy::too_many_arguments)]
pub fn conv_transpose2d_backward_need(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    need: Need,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Option<Tensor> {
    let (b, cin, h, w) = dims4(input, "conv_t input");
    let wd = weight.shape();
    let (_, cout, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let (gb, gcout, oh, ow) = dims4(grad_out, "conv_t grad_out");
    assert_eq!(gb, b, "conv_t grad batch mismatch");
    assert_eq!(gcout, cout, "conv_t grad channel mismatch");
    assert_eq!(
        grad_weight.shape(),
        weight.shape(),
        "conv_t grad_weight shape mismatch"
    );
    assert_eq!(grad_bias.len(), cout, "conv_t grad_bias size mismatch");
    let ckk = cout * kh * kw;
    let hw = h * w;

    // dL/dcols = im2col(dL/dout) over the adjoint conv geometry; packed on
    // the fly below instead of materialized.
    let geom = ConvGeom {
        c: cout,
        h: oh,
        w: ow,
        kh,
        kw,
        stride,
        pad,
        oh: h,
        ow: w,
    };
    // Every sample's slice is fully overwritten by the grad-input GEMM.
    let mut grad_input = need.input().then(|| workspace::take_uninit(input.len()));
    let w2 = weight.data(); // (cin, ckk) row-major
    let gw = grad_weight.data_mut();
    let gbias = grad_bias.data_mut();

    for bi in 0..b {
        let g = &grad_out.data()[bi * cout * oh * ow..(bi + 1) * cout * oh * ow];
        let x = &input.data()[bi * cin * hw..(bi + 1) * cin * hw];

        if let Some(grad_input) = &mut grad_input {
            // dL/dx = W2 (cin, ckk) x gcols (ckk, hw), straight into place.
            let gi = &mut grad_input[bi * cin * hw..(bi + 1) * cin * hw];
            let gcols = Im2colRhs { image: g, g: geom };
            gemm::gemm_with(Lhs::RowMajor(w2), &gcols, gi, cin, ckk, hw, false);
        }

        if need.params() {
            // dL/dW2 += x (cin, hw) x gcols^T (hw, ckk), directly into the
            // caller's gradient.
            let gcols_t = Im2colTRhs { image: g, g: geom };
            gemm::gemm_with(Lhs::RowMajor(x), &gcols_t, gw, cin, hw, ckk, true);

            for oc in 0..cout {
                gbias[oc] += g[oc * oh * ow..(oc + 1) * oh * ow].iter().sum::<f32>();
            }
        }
    }
    grad_input.map(|gi| Tensor::new(input.shape(), gi))
}

fn dims4(t: &Tensor, what: &str) -> (usize, usize, usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 4, "{what} must be 4-D, got {:?}", s);
    (s[0], s[1], s[2], s[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::Rng64;

    /// Direct (quadruple-loop) convolution reference.
    fn conv_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (b, c, h, w) = dims4(input, "ref input");
        let (o, _, kh, kw) = dims4(weight, "ref weight");
        let oh = conv_out_dim(h, kh, stride, pad);
        let ow = conv_out_dim(w, kw, stride, pad);
        let mut out = Tensor::zeros(&[b, o, oh, ow]);
        for bi in 0..b {
            for oc in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = if bias.is_empty() {
                            0.0
                        } else {
                            bias.data()[oc]
                        };
                        for ci in 0..c {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let iy = (oy * stride + ki) as isize - pad as isize;
                                    let ix = (ox * stride + kj) as isize - pad as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        acc += input.at(&[bi, ci, iy as usize, ix as usize])
                                            * weight.at(&[oc, ci, ki, kj]);
                                    }
                                }
                            }
                        }
                        *out.at_mut(&[bi, oc, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    /// Direct transposed-convolution reference (scatter form).
    fn conv_t_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (b, cin, h, w) = dims4(input, "ref input");
        let (_, cout, kh, kw) = dims4(weight, "ref weight");
        let oh = conv_transpose_out_dim(h, kh, stride, pad);
        let ow = conv_transpose_out_dim(w, kw, stride, pad);
        let mut out = Tensor::zeros(&[b, cout, oh, ow]);
        for bi in 0..b {
            for ci in 0..cin {
                for y in 0..h {
                    for x in 0..w {
                        let v = input.at(&[bi, ci, y, x]);
                        for oc in 0..cout {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let oy = (y * stride + ki) as isize - pad as isize;
                                    let ox = (x * stride + kj) as isize - pad as isize;
                                    if oy >= 0 && oy < oh as isize && ox >= 0 && ox < ow as isize {
                                        *out.at_mut(&[bi, oc, oy as usize, ox as usize]) +=
                                            v * weight.at(&[ci, oc, ki, kj]);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if !bias.is_empty() {
            for bi in 0..b {
                for oc in 0..cout {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            *out.at_mut(&[bi, oc, oy, ox]) += bias.data()[oc];
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn out_dim_formulas() {
        assert_eq!(conv_out_dim(28, 3, 1, 1), 28);
        assert_eq!(conv_out_dim(28, 3, 2, 1), 14);
        assert_eq!(conv_out_dim(5, 5, 1, 0), 1);
        assert_eq!(conv_transpose_out_dim(7, 5, 2, 2), 13);
        assert_eq!(conv_transpose_out_dim(14, 4, 2, 1), 28);
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = Rng64::seed_from_u64(42);
        let (c, h, w, kh, kw, stride, pad) = (2, 5, 4, 3, 3, 2, 1);
        let oh = conv_out_dim(h, kh, stride, pad);
        let ow = conv_out_dim(w, kw, stride, pad);
        let x = Tensor::randn(&[c * h * w], &mut rng);
        let y = Tensor::randn(&[c * kh * kw * oh * ow], &mut rng);
        let mut cols = vec![0.0f32; y.len()];
        im2col(x.data(), c, h, w, kh, kw, stride, pad, oh, ow, &mut cols);
        let mut img = vec![0.0f32; x.len()];
        col2im(y.data(), c, h, w, kh, kw, stride, pad, oh, ow, &mut img);
        let lhs: f32 = cols.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(&img).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn conv_matches_reference_various_configs() {
        let mut rng = Rng64::seed_from_u64(1);
        for (b, c, h, w, o, k, s, p) in [
            (1, 1, 4, 4, 1, 3, 1, 0),
            (2, 3, 6, 5, 4, 3, 1, 1),
            (2, 2, 7, 7, 3, 3, 2, 1),
            (1, 4, 8, 8, 2, 5, 2, 2),
        ] {
            let x = Tensor::randn(&[b, c, h, w], &mut rng);
            let wt = Tensor::randn(&[o, c, k, k], &mut rng);
            let bias = Tensor::randn(&[o], &mut rng);
            let got = conv2d_forward(&x, &wt, &bias, s, p);
            let want = conv_ref(&x, &wt, &bias, s, p);
            assert_eq!(got.shape(), want.shape());
            assert_close(got.data(), want.data(), 1e-3);
        }
    }

    #[test]
    fn conv_t_matches_reference_various_configs() {
        let mut rng = Rng64::seed_from_u64(2);
        for (b, cin, h, w, cout, k, s, p) in [
            (1, 1, 3, 3, 1, 3, 1, 0),
            (2, 4, 4, 4, 2, 5, 2, 2),
            (1, 3, 5, 6, 2, 4, 2, 1),
            (2, 2, 7, 7, 3, 3, 1, 1),
        ] {
            let x = Tensor::randn(&[b, cin, h, w], &mut rng);
            let wt = Tensor::randn(&[cin, cout, k, k], &mut rng);
            let bias = Tensor::randn(&[cout], &mut rng);
            let got = conv_transpose2d_forward(&x, &wt, &bias, s, p);
            let want = conv_t_ref(&x, &wt, &bias, s, p);
            assert_eq!(got.shape(), want.shape());
            assert_close(got.data(), want.data(), 1e-3);
        }
    }

    /// Finite-difference gradient check of conv2d w.r.t. input, weight, bias.
    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = Rng64::seed_from_u64(3);
        let (b, c, h, w, o, k, s, p) = (2, 2, 5, 5, 3, 3, 2, 1);
        let x = Tensor::randn(&[b, c, h, w], &mut rng);
        let wt = Tensor::randn(&[o, c, k, k], &mut rng).scale(0.5);
        let bias = Tensor::randn(&[o], &mut rng);
        // Loss = <out, r> for a fixed random r so dL/dout = r.
        let out = conv2d_forward(&x, &wt, &bias, s, p);
        let r = Tensor::randn(out.shape(), &mut rng);
        let (gx, gw, gb) = conv2d_backward(&x, &wt, &r, s, p);

        let loss = |x_: &Tensor, w_: &Tensor, b_: &Tensor| conv2d_forward(x_, w_, b_, s, p).dot(&r);
        let eps = 1e-2f32;
        for (idx, analytic, which) in [(7usize, &gx, 0u8), (11, &gw, 1), (1, &gb, 2)] {
            let (mut xp, mut wp, mut bp) = (x.clone(), wt.clone(), bias.clone());
            let (mut xm, mut wm, mut bm) = (x.clone(), wt.clone(), bias.clone());
            match which {
                0 => {
                    xp.data_mut()[idx] += eps;
                    xm.data_mut()[idx] -= eps;
                }
                1 => {
                    wp.data_mut()[idx] += eps;
                    wm.data_mut()[idx] -= eps;
                }
                _ => {
                    bp.data_mut()[idx] += eps;
                    bm.data_mut()[idx] -= eps;
                }
            }
            let num = (loss(&xp, &wp, &bp) - loss(&xm, &wm, &bm)) / (2.0 * eps);
            let ana = analytic.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * num.abs().max(1.0),
                "which={which} idx={idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// Finite-difference gradient check of conv-transpose2d.
    #[test]
    fn conv_t_gradients_match_finite_differences() {
        let mut rng = Rng64::seed_from_u64(4);
        let (b, cin, h, w, cout, k, s, p) = (2, 3, 4, 4, 2, 4, 2, 1);
        let x = Tensor::randn(&[b, cin, h, w], &mut rng);
        let wt = Tensor::randn(&[cin, cout, k, k], &mut rng).scale(0.5);
        let bias = Tensor::randn(&[cout], &mut rng);
        let out = conv_transpose2d_forward(&x, &wt, &bias, s, p);
        let r = Tensor::randn(out.shape(), &mut rng);
        let (gx, gw, gb) = conv_transpose2d_backward(&x, &wt, &r, s, p);

        let loss = |x_: &Tensor, w_: &Tensor, b_: &Tensor| {
            conv_transpose2d_forward(x_, w_, b_, s, p).dot(&r)
        };
        let eps = 1e-2f32;
        for (idx, analytic, which) in [(5usize, &gx, 0u8), (9, &gw, 1), (0, &gb, 2)] {
            let (mut xp, mut wp, mut bp) = (x.clone(), wt.clone(), bias.clone());
            let (mut xm, mut wm, mut bm) = (x.clone(), wt.clone(), bias.clone());
            match which {
                0 => {
                    xp.data_mut()[idx] += eps;
                    xm.data_mut()[idx] -= eps;
                }
                1 => {
                    wp.data_mut()[idx] += eps;
                    wm.data_mut()[idx] -= eps;
                }
                _ => {
                    bp.data_mut()[idx] += eps;
                    bm.data_mut()[idx] -= eps;
                }
            }
            let num = (loss(&xp, &wp, &bp) - loss(&xm, &wm, &bm)) / (2.0 * eps);
            let ana = analytic.data()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * num.abs().max(1.0),
                "which={which} idx={idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// conv_t forward must equal the adjoint of conv forward:
    /// <conv(x), y> == <x, conv_t(y)> when they share (suitably reshaped) weights.
    #[test]
    fn conv_t_is_adjoint_of_conv() {
        let mut rng = Rng64::seed_from_u64(5);
        // Geometry chosen so the conv round-trips exactly:
        // (h + 2p - k) divisible by s makes conv_t(conv shape) == input shape.
        let (c, h, w, o, k, s, p) = (2, 7, 7, 3, 3, 2, 1);
        let oh = conv_out_dim(h, k, s, p);
        let ow = conv_out_dim(w, k, s, p);
        let x = Tensor::randn(&[1, c, h, w], &mut rng);
        let y = Tensor::randn(&[1, o, oh, ow], &mut rng);
        // conv weight (o, c, k, k); conv_t weight with cin=o, cout=c must be
        // the same tensor viewed as (o, c, k, k).
        let wt = Tensor::randn(&[o, c, k, k], &mut rng);
        let no_bias = Tensor::zeros(&[0]);
        let cx = conv2d_forward(&x, &wt, &no_bias, s, p);
        let cty = conv_transpose2d_forward(&y, &wt, &no_bias, s, p);
        let lhs = cx.dot(&y);
        let rhs = x.dot(&cty);
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn conv_without_bias() {
        let mut rng = Rng64::seed_from_u64(6);
        let x = Tensor::randn(&[1, 1, 4, 4], &mut rng);
        let wt = Tensor::randn(&[1, 1, 3, 3], &mut rng);
        let out = conv2d_forward(&x, &wt, &Tensor::zeros(&[0]), 1, 0);
        let want = conv_ref(&x, &wt, &Tensor::zeros(&[0]), 1, 0);
        assert_close(out.data(), want.data(), 1e-4);
    }

    #[test]
    #[should_panic(expected = "input dim must be positive")]
    fn conv_transpose_out_dim_rejects_zero_input() {
        // Regression: `(input - 1) * stride` used to underflow (wrapping in
        // release builds) instead of failing with a clear message.
        conv_transpose_out_dim(0, 3, 2, 1);
    }

    #[test]
    fn zero_batch_conv_forward_backward() {
        // Regression: a zero-sample batch used to panic inside
        // parallel_for_chunks ("n == 0") instead of producing empty outputs.
        let mut rng = Rng64::seed_from_u64(7);
        let x = Tensor::zeros(&[0, 2, 5, 5]);
        let wt = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let bias = Tensor::randn(&[3], &mut rng);
        let out = conv2d_forward(&x, &wt, &bias, 2, 1);
        assert_eq!(out.shape(), &[0, 3, 3, 3]);
        let (gx, gw, gbias) = conv2d_backward(&x, &wt, &out, 2, 1);
        assert_eq!(gx.shape(), x.shape());
        assert!(gw.data().iter().all(|&v| v == 0.0));
        assert!(gbias.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_batch_conv_transpose_forward_backward() {
        let mut rng = Rng64::seed_from_u64(8);
        let x = Tensor::zeros(&[0, 3, 4, 4]);
        let wt = Tensor::randn(&[3, 2, 4, 4], &mut rng);
        let bias = Tensor::randn(&[2], &mut rng);
        let out = conv_transpose2d_forward(&x, &wt, &bias, 2, 1);
        assert_eq!(out.shape(), &[0, 2, 8, 8]);
        let (gx, gw, gbias) = conv_transpose2d_backward(&x, &wt, &out, 2, 1);
        assert_eq!(gx.shape(), x.shape());
        assert!(gw.data().iter().all(|&v| v == 0.0));
        assert!(gbias.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn backward_acc_accumulates_into_existing_grads() {
        let mut rng = Rng64::seed_from_u64(9);
        let x = Tensor::randn(&[2, 2, 5, 5], &mut rng);
        let wt = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let g = Tensor::randn(&[2, 3, 3, 3], &mut rng);
        let (gx_ref, gw_ref, gb_ref) = conv2d_backward(&x, &wt, &g, 2, 1);
        // Accumulating twice into non-zero grads equals 2x the fresh result.
        let mut gw = Tensor::zeros(wt.shape());
        let mut gbias = Tensor::zeros(&[3]);
        let gx1 = conv2d_backward_acc(&x, &wt, &g, 2, 1, &mut gw, &mut gbias);
        let _ = conv2d_backward_acc(&x, &wt, &g, 2, 1, &mut gw, &mut gbias);
        crate::assert_close(gx1.data(), gx_ref.data(), 1e-5);
        crate::assert_close(gw.data(), gw_ref.scale(2.0).data(), 1e-4);
        crate::assert_close(gbias.data(), gb_ref.scale(2.0).data(), 1e-4);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_rejects_channel_mismatch() {
        conv2d_forward(
            &Tensor::zeros(&[1, 2, 4, 4]),
            &Tensor::zeros(&[1, 3, 3, 3]),
            &Tensor::zeros(&[0]),
            1,
            0,
        );
    }
}
