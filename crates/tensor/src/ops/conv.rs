//! 2-D convolution and transposed convolution as **implicit GEMM**, with
//! analytic gradients.
//!
//! Layout conventions (all row-major):
//! * activations: `(B, C, H, W)`
//! * conv2d weights: `(O, C, KH, KW)` — `O` output channels
//! * conv-transpose2d weights: `(C_in, C_out, KH, KW)` (PyTorch convention)
//!
//! Every path is an im2col-style product whose `(C*KH*KW, OH*OW)` column
//! matrix is **never materialized**: the [`Im2colRhs`] packer implements
//! [`gemm::PackRhs`] and writes convolution patches straight into the
//! GEMM's packed sliver format, the transposed / grad-input paths fuse
//! `col2im` into the GEMM epilogue via [`gemm::gemm_scatter`] (each
//! finished row-block tile is accumulated and discarded), and the weight
//! gradient reads its column values in place (`wgrad`). What is copied,
//! once, is what every sample of the batch shares or what turns the inner
//! loops into straight copies and broadcasts:
//!
//! * **the image operand, into phase planes** ([`ConvPlanes`], laid out by
//!   [`ConvGeom`]): one pass over the `(B, C, H, W)` tensor — a row at a
//!   time, a fixed-length deinterleave at stride 2 — writes it zero-padded
//!   and split by stride phase, so that the values one kernel tap
//!   contributes to a row of output positions are a contiguous,
//!   always-in-bounds run. Each element is written once: the zeros go only
//!   where no pixel lands, never over the whole buffer first. The packer
//!   then moves runs (no `iy`/`ix` arithmetic, no bounds tests, any
//!   stride), the scatter adds runs, the weight gradient broadcasts their
//!   elements. Where the run width `ow` divides the GEMM's [`NR`]-wide
//!   sliver — every layer of the paper's nets — a sliver is whole output
//!   rows and every run has a compile-time length, so packing and scatter
//!   move whole vectors. The pass touches about the image's size; the
//!   column matrix it serves is `KH*KW / stride²` times larger (2.25x and
//!   4x at the paper's layers). The planes are **once per training step, not per
//!   call**: [`conv2d_forward_planes`] hands out the ones it built and
//!   [`conv2d_backward_planes`] takes the weight gradient from them, so a
//!   layer caches them in place of a clone of its input;
//! * **the weights, into packed panels** ([`PackedLhs`]): the per-sample
//!   products of a call all multiply by the same weights, so their
//!   `MR`-interleaved panels are built once and shared (read-only, also
//!   across the threads of a batch-parallel forward) instead of once per
//!   sample — at the 4x4 stage a sample has 16 columns, and packing the
//!   weights cost as much as multiplying by them.
//!
//! Each layer call is then three kinds of product:
//!
//! | product | shape per call | copied for it | order kept |
//! |---|---|---|---|
//! | conv forward, conv-transpose grad-input | `b` x `W (o, ckk) · cols_i (ckk, ohw)` ([`gemm::gemm_with`]) | packed `W`; `cols_i` packed from the planes, whole output rows per sliver when `ow` divides `NR`, run by run otherwise | `k` ascending inside each sample's GEMM |
//! | conv grad-input, conv-transpose forward | `b` x `col2im(Wᵀ (ckk, o) · g_i (o, ohw))` ([`gemm::gemm_scatter`]) | packed `Wᵀ` | tiles in row order; per pixel the adds arrive in `col2im`'s `(row, oy, ox)` order into zeroed planes, copied out exactly |
//! | weight gradient (both) | **one** `gw (m, ckk) (+)= A (m, b·ohw) · Cᵀ (b·ohw, ckk)`, `A` the samples' gradients (conv) or inputs (conv-transpose) side by side, `Cᵀ` their `cols_iᵀ` stacked (`wgrad::weight_grad`) | `Aᵀ` as 16-channel slivers and `gwᵀ`, in 16x16 block transposes; `Cᵀ` is **not** copied — its elements are broadcast from the planes | seeded with `gw` or 0.0, samples ascending, positions ascending — the chain of one accumulate product per sample |
//!
//! The reference [`im2col`] / [`col2im`] functions remain as the spec:
//! every path is bitwise identical to materialize-then-multiply, for any
//! thread count (the packers hold the exact same values, the GEMM's
//! per-element chain is the one above, and copies are exact).
//!
//! The transposed convolution is implemented as the exact adjoint of the
//! convolution: its forward pass is a `col2im` scatter, and its backward
//! pass reuses the `im2col` geometry. This guarantees that `conv_t`
//! forward is literally the gradient of `conv` with respect to its input,
//! a property the unit tests check.

use crate::ops::gemm::{self, Lhs, PackRhs, PackedLhs, SliceRhs, NR};
use crate::ops::Need;
use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace;

mod wgrad;

/// `$fast` with `$W` a constant equal to `$width` when the width is 4, 8
/// or 16, `$general` otherwise. These are the run widths `ArchSpec`'s
/// conv stages produce (`img = 4·2^s`, `img >= 8`: every output row and
/// every stride-2 pixel pair count is 4, 8 or 16). Each divides [`NR`], so
/// such an `ow` makes a packed sliver whole output rows, and a run of a
/// constant length is moved with whole-vector loads and stores. The
/// choice depends on the geometry alone.
macro_rules! by_row_width {
    ($width:expr, $W:ident => $fast:expr, _ => $general:expr) => {
        match $width {
            4 => {
                const $W: usize = 4;
                $fast
            }
            8 => {
                const $W: usize = 8;
                $fast
            }
            16 => {
                const $W: usize = 16;
                $fast
            }
            _ => $general,
        }
    };
}
const _: () = assert!(NR.is_multiple_of(16), "by_row_width!'s widths divide NR");

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
///
/// # Phase planes
///
/// The products never index the `(c, h, w)` image itself. The image
/// operand is copied once into (or, for the scatter paths, accumulated in
/// and copied back out of) **zero-padded, stride-phase-split planes**:
/// padded pixel `(iyp, ixp)` of channel `ci` (`iyp = iy + pad`,
/// `ixp = ix + pad`) lives at element `ixp / stride` of the row
/// `(ci, iyp, ixp % stride)`, rows being [`ConvGeom::wq`] long and laid
/// out in that `(ci, iyp, phase)` order. Column-matrix element
/// `cols[(ci, ki, kj)][(oy, ox)]` reads padded pixel
/// `(oy*stride + ki, ox*stride + kj)`, which is element `kj/stride + ox`
/// of row `(ci, oy*stride + ki, kj % stride)` — so for one kernel tap the
/// values of consecutive `ox` are a **contiguous run**, always in bounds
/// (the padding is part of the planes), at
/// [`Taps::base`]` + oy * `[`ConvGeom::oy_stride`]` + ox`. The per-element
/// `iy`/`ix` arithmetic and bounds tests of a direct gather become one
/// layout pass over the image, which is about the image's size; the column
/// matrix it feeds is `kh*kw / stride²` times larger.
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
    /// The geometry of a `kh x kw` convolution over `(c, h, w)` images.
    ///
    /// # Panics
    /// Panics if the padded image is smaller than the kernel.
    fn conv(c: usize, h: usize, w: usize, kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        ConvGeom {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh: conv_out_dim(h, kh, stride, pad),
            ow: conv_out_dim(w, kw, stride, pad),
        }
    }

    /// The geometry of the convolution a transposed convolution is the
    /// adjoint of: its `(cout, oh, ow)` *output* is the image, and the
    /// column matrix ranges over the `(h, w)` grid of its input.
    fn conv_transpose(
        cout: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        ConvGeom {
            c: cout,
            h: conv_transpose_out_dim(h, kh, stride, pad),
            w: conv_transpose_out_dim(w, kw, stride, pad),
            kh,
            kw,
            stride,
            pad,
            oh: h,
            ow: w,
        }
    }

    /// Rows of the im2col column matrix: `c * kh * kw`.
    fn ckk(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the im2col column matrix: `oh * ow`.
    fn ohw(&self) -> usize {
        self.oh * self.ow
    }

    /// Padded rows per channel: the padded image, or the lowest row a tap
    /// reaches if that is further.
    fn hp(&self) -> usize {
        (self.h + 2 * self.pad).max((self.oh * self.stride + self.kh).saturating_sub(self.stride))
    }

    /// Length of one phase row: every padded pixel of the phase, or the
    /// furthest element a tap reaches if that is further.
    fn wq(&self) -> usize {
        (self.w + 2 * self.pad)
            .div_ceil(self.stride)
            .max(self.ow + self.kw.saturating_sub(1) / self.stride)
    }

    /// Elements of one sample's phase planes.
    fn plane_len(&self) -> usize {
        self.c * self.hp() * self.stride * self.wq()
    }

    /// Distance between the runs of output rows `oy` and `oy + 1` of one
    /// tap: `stride` padded rows of `stride` phases each.
    fn oy_stride(&self) -> usize {
        self.stride * self.stride * self.wq()
    }

    /// Writes one `(c, h, w)` image into its phase planes — **every**
    /// element, once: the pixels, and a zero wherever no pixel lands (the
    /// padding rows above and below the image, and the margins of each
    /// phase row). The planes need not be zeroed first.
    fn split(&self, image: &[f32], planes: &mut [f32]) {
        let map = self.row_map();
        let len = map.len();
        let chw = self.h * self.w;
        for (ci, plane) in planes
            .chunks_exact_mut((self.hp() * len).max(1))
            .enumerate()
        {
            let (top, rest) = plane.split_at_mut(self.pad * len);
            let (rows, bottom) = rest.split_at_mut(self.h * len);
            top.fill(0.0);
            bottom.fill(0.0);
            map.deal(&image[ci * chw..][..chw], rows);
            map.clear_margins(rows);
        }
    }

    /// Adjoint of [`ConvGeom::split`]: copies the image pixels back out of
    /// one sample's planes (the padding is dropped).
    fn unsplit(&self, planes: &[f32], image: &mut [f32]) {
        let map = self.row_map();
        let len = map.len();
        let chw = self.h * self.w;
        let planes = planes.chunks_exact((self.hp() * len).max(1));
        for (plane, channel) in planes.zip(image.chunks_exact_mut(chw.max(1))) {
            map.collect(&plane[self.pad * len..][..self.h * len], channel);
        }
    }

    /// How every image row maps onto its `stride` phase rows.
    fn row_map(&self) -> RowMap {
        RowMap {
            s: self.stride,
            wq: self.wq(),
            phase0: self.pad % self.stride,
            q0: self.pad / self.stride,
            groups: self.w / self.stride,
            rest: self.w % self.stride,
        }
    }

    /// Starts a [`Taps`] walk at column-matrix row `row`.
    fn taps_from(&self, row: usize) -> Taps<'_> {
        let (kj, ki, ci) = (
            row % self.kw,
            row / self.kw % self.kh,
            row / (self.kw * self.kh),
        );
        Taps {
            g: self,
            hp: self.hp(),
            wq: self.wq(),
            plane_row: ci * self.hp() + ki,
            ki,
            kj,
            phase: kj % self.stride,
            q: kj / self.stride,
        }
    }
}

/// The map between one image row and its `stride` phase rows (`wq` long
/// each, one after the other), the same for every row of a [`ConvGeom`].
/// Pixel `i = j·s + t` (`t < s`) is padded pixel `pad + i`: element
/// `(pad + t) / s + j` of phase row `(pad + t) % s`. So the pixels of one
/// offset `t` are one contiguous run of one phase row — `groups` elements,
/// one more when `t < rest` — and each phase row holds exactly one such
/// run; what lies around it is padding.
struct RowMap {
    s: usize,
    wq: usize,
    /// `pad % s` and `pad / s`: the phase and element of pixel 0.
    phase0: usize,
    q0: usize,
    /// `w / s` and `w % s`.
    groups: usize,
    rest: usize,
}

impl RowMap {
    /// Elements of one image row's phase rows.
    fn len(&self) -> usize {
        self.s * self.wq
    }

    /// The run of pixel offset `t`: where its phase row starts, the run's
    /// first element in that row, and its length.
    #[inline(always)]
    fn run(&self, t: usize) -> (usize, usize, usize) {
        let (phase, first) = match self.phase0 + t {
            p if p < self.s => (p, self.q0),
            p => (p - self.s, self.q0 + 1),
        };
        let count = self.groups + usize::from(t < self.rest);
        (phase * self.wq, first, count)
    }

    /// The image rows of one channel into their phase rows (`rows`, one
    /// [`RowMap::len`] block per image row): the pixels only, see
    /// [`RowMap::clear_margins`]. At stride 2 over rows of `2·G` pixels, `G`
    /// a divisor of [`NR`] (every conv of the paper's nets), each row is a
    /// fixed-length deinterleave into two runs.
    fn deal(&self, channel: &[f32], rows: &mut [f32]) {
        by_row_width!(self.pairs(),
            G => self.deal_pairs::<G>(channel, rows),
            _ => self.deal_runs(channel, rows))
    }

    /// `G` when every row is `G` pixel pairs at stride 2, otherwise 0 (no
    /// fixed-length path).
    fn pairs(&self) -> usize {
        if self.s == 2 && self.rest == 0 {
            self.groups
        } else {
            0
        }
    }

    /// [`RowMap::deal`] one offset's run at a time, any stride.
    fn deal_runs(&self, channel: &[f32], rows: &mut [f32]) {
        let w = self.groups * self.s + self.rest;
        for (y, dst) in rows.chunks_exact_mut(self.len()).enumerate() {
            let src = &channel[y * w..][..w];
            for t in 0..self.s {
                let (row, first, count) = self.run(t);
                let pixels = src.iter().skip(t).step_by(self.s);
                for (d, &v) in dst[row + first..][..count].iter_mut().zip(pixels) {
                    *d = v;
                }
            }
        }
    }

    /// [`RowMap::deal`] at stride 2 with `G` pixel pairs a row: the even
    /// pixels form the run of offset 0, the odd ones that of offset 1.
    fn deal_pairs<const G: usize>(&self, channel: &[f32], rows: &mut [f32]) {
        let [(r0, e0, _), (r1, e1, _)] = [self.run(0), self.run(1)];
        for (src, dst) in channel
            .chunks_exact(2 * G)
            .zip(rows.chunks_exact_mut(self.len()))
        {
            let px: &[[f32; 2]; G] = src.as_chunks().0.try_into().expect("G pairs");
            let even: [f32; G] = std::array::from_fn(|j| px[j][0]);
            let odd: [f32; G] = std::array::from_fn(|j| px[j][1]);
            dst[r0 + e0..][..G].copy_from_slice(&even);
            dst[r1 + e1..][..G].copy_from_slice(&odd);
        }
    }

    /// Zeros what [`RowMap::deal`] leaves out of `rows`: in every phase row
    /// the elements before and after its run — the same columns in each
    /// image row, so each is written down all the rows at once.
    fn clear_margins(&self, rows: &mut [f32]) {
        for t in 0..self.s {
            let (row, first, count) = self.run(t);
            for col in (row..row + first).chain(row + first + count..row + self.wq) {
                for v in rows.iter_mut().skip(col).step_by(self.len()) {
                    *v = 0.0;
                }
            }
        }
    }

    /// Inverse of [`RowMap::deal`]: the image rows of one channel back out
    /// of their phase rows (an interleave of two fixed-length runs at
    /// stride 2).
    fn collect(&self, rows: &[f32], channel: &mut [f32]) {
        by_row_width!(self.pairs(),
            G => self.collect_pairs::<G>(rows, channel),
            _ => self.collect_runs(rows, channel))
    }

    /// [`RowMap::collect`] one offset's run at a time, any stride.
    fn collect_runs(&self, rows: &[f32], channel: &mut [f32]) {
        let w = self.groups * self.s + self.rest;
        for (y, src) in rows.chunks_exact(self.len()).enumerate() {
            let dst = &mut channel[y * w..][..w];
            for t in 0..self.s {
                let (row, first, count) = self.run(t);
                let pixels = dst.iter_mut().skip(t).step_by(self.s);
                for (d, &v) in pixels.zip(&src[row + first..][..count]) {
                    *d = v;
                }
            }
        }
    }

    /// [`RowMap::collect`] at stride 2 with `G` pixel pairs a row.
    fn collect_pairs<const G: usize>(&self, rows: &[f32], channel: &mut [f32]) {
        let [(r0, e0, _), (r1, e1, _)] = [self.run(0), self.run(1)];
        for (src, dst) in rows
            .chunks_exact(self.len())
            .zip(channel.chunks_exact_mut(2 * G))
        {
            let even: &[f32; G] = src[r0 + e0..][..G].try_into().expect("G");
            let odd: &[f32; G] = src[r1 + e1..][..G].try_into().expect("G");
            let px: [[f32; 2]; G] = std::array::from_fn(|j| [even[j], odd[j]]);
            dst.copy_from_slice(px.as_flattened());
        }
    }
}

/// Walks the column-matrix rows `(ci, ki, kj)` in ascending order as an
/// odometer, so a packer pays the divisions of the row split once per
/// panel, not once per row.
struct Taps<'g> {
    g: &'g ConvGeom,
    hp: usize,
    wq: usize,
    /// `ci * hp + ki`: the padded row the tap reads for `oy = 0`.
    plane_row: usize,
    ki: usize,
    kj: usize,
    /// `kj % stride` and `kj / stride`.
    phase: usize,
    q: usize,
}

impl Taps<'_> {
    /// Plane offset of the current tap's value for output position
    /// `(0, 0)`; position `(oy, ox)` is `oy * oy_stride() + ox` further.
    fn base(&self) -> usize {
        (self.plane_row * self.g.stride + self.phase) * self.wq + self.q
    }

    /// Steps to the next column-matrix row.
    fn advance(&mut self) {
        let g = self.g;
        self.kj += 1;
        self.phase += 1;
        if self.phase == g.stride {
            self.phase = 0;
            self.q += 1;
        }
        if self.kj == g.kw {
            (self.kj, self.phase, self.q) = (0, 0, 0);
            self.ki += 1;
            self.plane_row += 1;
            if self.ki == g.kh {
                // From row `kh` of this channel to row 0 of the next.
                self.ki = 0;
                self.plane_row += self.hp - g.kh;
            }
        }
    }
}

/// Implicit im2col right-hand operand: the virtual `(c*kh*kw, oh*ow)`
/// column matrix of one image, packed from that image's phase planes. Holds
/// the exact values [`im2col`] would have written
/// (`cols[row][oy*ow + ox] = image[ci][oy*stride+ki-pad][ox*stride+kj-pad]`,
/// zero outside the image), so a GEMM over this operand is bitwise
/// identical to materialize-then-multiply.
struct Im2colRhs<'a> {
    planes: &'a [f32],
    g: ConvGeom,
}

impl PackRhs for Im2colRhs<'_> {
    fn pack_panel(&self, bp: &mut [f32], kb: usize, kc: usize, jb: usize, nc: usize) {
        // The panel's `kc` taps, shared by every sliver.
        let mut bases = [0usize; gemm::KC];
        let mut taps = self.g.taps_from(kb);
        for base in &mut bases[..kc] {
            *base = taps.base();
            taps.advance();
        }
        let bases = &bases[..kc];
        debug_assert_eq!(bp.len(), nc.div_ceil(NR) * NR * kc);
        by_row_width!(self.g.ow,
            OW => self.pack_rows::<OW>(bp, bases, jb),
            _ => self.pack_runs(bp, bases, jb))
    }
}

impl Im2colRhs<'_> {
    /// The slivers of a panel when `OW` divides [`NR`]: a sliver starts on
    /// an output row and is `NR / OW` whole rows (the last one of the
    /// matrix possibly fewer), so every tap copies that many runs of
    /// exactly `OW` values.
    fn pack_rows<const OW: usize>(&self, bp: &mut [f32], bases: &[usize], jb: usize) {
        let (n, oy_stride) = (self.g.ohw(), self.g.oy_stride());
        for (s, sliver) in bp.chunks_exact_mut(bases.len() * NR).enumerate() {
            let j0 = jb + s * NR;
            // Whole rows: `n` and `j0` are multiples of `OW`.
            let jw = NR.min(n - j0);
            let first = j0 / OW * oy_stride;
            for (dst, &base) in sliver.chunks_exact_mut(NR).zip(bases) {
                let src = &self.planes[base + first..];
                for (r, run) in dst[..jw].chunks_exact_mut(OW).enumerate() {
                    run.copy_from_slice(&src[r * oy_stride..][..OW]);
                }
            }
            if jw < NR {
                for dst in sliver.chunks_exact_mut(NR) {
                    dst[jw..].fill(0.0);
                }
            }
        }
    }

    /// The slivers of a panel for any `ow`: a sliver's positions one `oy`
    /// row segment at a time, for every tap a straight copy of its run.
    fn pack_runs(&self, bp: &mut [f32], bases: &[usize], jb: usize) {
        let (n, ow, oy_stride) = (self.g.ohw(), self.g.ow, self.g.oy_stride());
        for (s, sliver) in bp.chunks_exact_mut(bases.len() * NR).enumerate() {
            let j0 = jb + s * NR;
            let jw = NR.min(n - j0);
            let (mut jj, mut oy, mut ox) = (0, j0 / ow, j0 % ow);
            while jj < jw {
                let seg = (ow - ox).min(jw - jj);
                let run = oy * oy_stride + ox;
                for (dst, &base) in sliver.chunks_exact_mut(NR).zip(bases) {
                    copy_run(&mut dst[jj..jj + seg], &self.planes[base + run..][..seg]);
                }
                jj += seg;
                oy += 1;
                ox = 0;
            }
            if jw < NR {
                for dst in sliver.chunks_exact_mut(NR) {
                    dst[jw..].fill(0.0);
                }
            }
        }
    }
}

/// `dst.copy_from_slice(src)` for the short runs of the general packer (a
/// segment of one output row of a tap), where a `memcpy` call costs more
/// than the copy: four values at a time, then the rest.
#[inline(always)]
fn copy_run(dst: &mut [f32], src: &[f32]) {
    let mut d4 = dst.chunks_exact_mut(4);
    let mut s4 = src.chunks_exact(4);
    for (d, s) in (&mut d4).zip(&mut s4) {
        d.copy_from_slice(s);
    }
    for (d, &v) in d4.into_remainder().iter_mut().zip(s4.remainder()) {
        *d = v;
    }
}

/// `dst[i] += src[i]` over a short run, four values at a time like
/// [`copy_run`] (each element is still one add, so the grouping is
/// invisible in the result).
#[inline(always)]
fn add_run(dst: &mut [f32], src: &[f32]) {
    let mut d4 = dst.chunks_exact_mut(4);
    let mut s4 = src.chunks_exact(4);
    for (d, s) in (&mut d4).zip(&mut s4) {
        for (d, &v) in d.iter_mut().zip(s) {
            *d += v;
        }
    }
    for (d, &v) in d4.into_remainder().iter_mut().zip(s4.remainder()) {
        *d += v;
    }
}

/// Fused-col2im epilogue for [`gemm::gemm_scatter`]: accumulates `rows`
/// finished column-matrix rows (starting at global row `r0`) into one
/// sample's **zeroed phase planes**; [`ConvGeom::unsplit`] copies the image
/// out once every row block has landed. Row blocks arrive in ascending
/// order and each row adds its positions in ascending order, so every
/// pixel receives its contributions in exactly [`col2im`]'s `(row, oy, ox)`
/// order, starting from zero, and the final copy is exact — bitwise
/// identical to materializing the whole column matrix and scattering it
/// into a zeroed image. (Contributions col2im would drop land in the
/// padding, which is never copied out.)
fn scatter_tile(tile: &[f32], r0: usize, g: &ConvGeom, planes: &mut [f32]) {
    by_row_width!(g.ow,
        OW => scatter_runs(tile, r0, g, planes, OW),
        _ => scatter_runs(tile, r0, g, planes, g.ow))
}

/// [`scatter_tile`] with run width `ow` (`g.ow`, a constant where
/// [`by_row_width!`] supplies one): each tap row is added into one slice of
/// its planes, in `oh` runs of `ow` values.
#[inline(always)]
fn scatter_runs(tile: &[f32], r0: usize, g: &ConvGeom, planes: &mut [f32], ow: usize) {
    let oy_stride = g.oy_stride();
    let mut taps = g.taps_from(r0);
    for trow in tile.chunks_exact(g.ohw()) {
        let dst = &mut planes[taps.base()..][..(g.oh - 1) * oy_stride + ow];
        for (oy, src) in trow.chunks_exact(ow).enumerate() {
            add_run(&mut dst[oy * oy_stride..][..ow], src);
        }
        taps.advance();
    }
}

/// The zero-padded stride-phase planes of a `(b, c, h, w)` activation (see
/// [`ConvGeom`]'s "Phase planes"): the one copy of the image operand every
/// product of a conv layer reads. [`conv2d_forward_planes`] builds them for
/// its own GEMMs and hands them out, so a training layer keeps *them* —
/// not a clone of its input — and [`conv2d_backward_planes`] takes the
/// weight gradient's taps straight from them. The buffer goes back to the
/// workspace shelf when the planes are dropped.
pub struct ConvPlanes {
    buf: Vec<f32>,
    b: usize,
    geom: ConvGeom,
}

impl ConvPlanes {
    /// Lays `input` `(b, c, h, w)` out for a `kh x kw` convolution.
    ///
    /// # Panics
    /// Panics if `input` is not 4-D or the padded image is smaller than the
    /// kernel.
    pub fn split(input: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        let (b, c, h, w) = dims4(input, "conv input");
        let geom = ConvGeom::conv(c, h, w, kh, kw, stride, pad);
        Self::of(geom, b, input.data())
    }

    /// One pass over a batch of `b` `(c, h, w)` images, one
    /// [`ConvGeom::plane_len`] block per sample. [`ConvGeom::split`] writes
    /// every element, the padding's zeros included, so the buffer is drawn
    /// as it comes and never zeroed as a whole.
    fn of(geom: ConvGeom, b: usize, images: &[f32]) -> Self {
        let chw = geom.c * geom.h * geom.w;
        assert_eq!(images.len(), b * chw, "conv planes: image batch size");
        let mut buf = workspace::take_uninit(b * geom.plane_len());
        for (bi, sample) in buf.chunks_exact_mut(geom.plane_len().max(1)).enumerate() {
            geom.split(&images[bi * chw..][..chw], sample);
        }
        ConvPlanes { buf, b, geom }
    }

    /// The `(b, c, h, w)` shape of the activation the planes hold.
    pub fn shape(&self) -> [usize; 4] {
        [self.b, self.geom.c, self.geom.h, self.geom.w]
    }

    /// The planes of sample `bi`.
    fn sample(&self, bi: usize) -> &[f32] {
        &self.buf[bi * self.geom.plane_len()..][..self.geom.plane_len()]
    }

    /// The activation, copied back out of the planes — exactly what
    /// [`ConvPlanes::split`] was given.
    pub fn unsplit(&self) -> Tensor {
        let g = &self.geom;
        let mut out = workspace::take_uninit(self.b * g.c * g.h * g.w);
        for (image, sample) in out
            .chunks_exact_mut((g.c * g.h * g.w).max(1))
            .zip(self.buf.chunks_exact(g.plane_len().max(1)))
        {
            g.unsplit(sample, image);
        }
        Tensor::new(&self.shape(), out)
    }

    /// Sample `bi`'s `(c*kh*kw, oh*ow)` column matrix read back from the
    /// planes: element for element what the reference [`im2col`] unfolds
    /// from the image, and what the implicit products read.
    pub fn im2col(&self, bi: usize, cols: &mut [f32]) {
        let g = &self.geom;
        assert_eq!(cols.len(), g.ckk() * g.ohw(), "im2col cols size mismatch");
        let sample = self.sample(bi);
        let mut taps = g.taps_from(0);
        for row in cols.chunks_exact_mut(g.ohw().max(1)) {
            for (oy, run) in row.chunks_exact_mut(g.ow).enumerate() {
                run.copy_from_slice(&sample[taps.base() + oy * g.oy_stride()..][..g.ow]);
            }
            taps.advance();
        }
    }
}

impl Drop for ConvPlanes {
    fn drop(&mut self) {
        workspace::recycle(std::mem::take(&mut self.buf));
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
    conv2d_forward_planes(input, weight, bias, stride, pad).0
}

/// [`conv2d_forward`] that also hands out the phase planes of `input` it
/// built, for [`conv2d_backward_planes`].
pub fn conv2d_forward_planes(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, ConvPlanes) {
    let (b, c, _, _) = dims4(input, "conv2d input");
    let wd = weight.shape();
    assert_eq!(wd.len(), 4, "conv2d weight must be 4-D");
    let (o, wc, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(c, wc, "conv2d channel mismatch: input {c} vs weight {wc}");
    let has_bias = !bias.is_empty();
    if has_bias {
        assert_eq!(bias.len(), o, "conv2d bias size mismatch");
    }
    // One implicit GEMM per sample, out (o, ohw) = weight (o, ckk) x cols
    // (ckk, ohw): the weights are packed once for the whole batch, the
    // column panels come straight from the phase planes. The GEMM fully
    // overwrites every sample, so the buffer can start uninitialized.
    let planes = ConvPlanes::split(input, kh, kw, stride, pad);
    let geom = planes.geom;
    let (ckk, ohw) = (geom.ckk(), geom.ohw());
    let packed_w = PackedLhs::new(Lhs::RowMajor(weight.data()), o, ckk);
    let mut out = workspace::take_uninit(b * o * ohw);
    let b_data = bias.data();
    parallel::parallel_for_chunks(&mut out, b, ckk * o * ohw, |bi, out_sample| {
        let cols = Im2colRhs {
            planes: planes.sample(bi),
            g: geom,
        };
        gemm::gemm_with(
            Lhs::Packed(&packed_w),
            &cols,
            out_sample,
            o,
            ckk,
            ohw,
            false,
        );
        if has_bias {
            add_bias(out_sample, b_data);
        }
    });
    (Tensor::new(&[b, o, geom.oh, geom.ow], out), planes)
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
    let grad_input = conv2d_backward_into(
        input,
        weight,
        grad_out,
        stride,
        pad,
        Need::All,
        true,
        &mut grad_weight,
        &mut grad_bias,
    )
    .expect("Need::All produces an input gradient");
    (grad_input, grad_weight, grad_bias)
}

/// The conv2d gradient, computing only what `need` names.
///
/// When `need.params()` the weight/bias gradients are **accumulated** into
/// the caller-owned tensors (`acc`) or **written** over them (`!acc`: the
/// same chains seeded with 0.0, i.e. bit for bit zeroing the tensors first,
/// without the sweep); otherwise they are left untouched. The input
/// gradient is returned when `need.input()` (`None` otherwise). The two are
/// independent products (one batch-wide product for the weights, one
/// scatter GEMM per image for the input), so skipping one leaves the other
/// bit-for-bit what [`Need::All`] computes.
///
/// This spelling lays `input` out again for the weight gradient; a layer
/// that kept the forward's planes calls [`conv2d_backward_planes`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    need: Need,
    acc: bool,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Option<Tensor> {
    let (b, c, h, w) = dims4(input, "conv2d input");
    let (_, _, kh, kw) = dims4(weight, "conv2d weight");
    let geom = ConvGeom::conv(c, h, w, kh, kw, stride, pad);
    check_conv2d_grads(&geom, b, weight, grad_out, grad_weight, grad_bias);
    if need.params() {
        let planes = ConvPlanes::of(geom, b, input.data());
        conv2d_param_grads(&planes, grad_out, acc, grad_weight, grad_bias);
    }
    need.input()
        .then(|| conv2d_input_grad(&geom, b, weight, grad_out))
}

/// [`conv2d_backward_into`] on the phase planes the forward pass handed out
/// ([`conv2d_forward_planes`]) instead of the input tensor: nothing is laid
/// out again, and every output is bit for bit the same. This is the
/// hot-path entry point for training layers: no per-call gradient tensors,
/// no extra accumulation pass, and every scratch buffer drawn from the
/// workspace shelf.
pub fn conv2d_backward_planes(
    planes: &ConvPlanes,
    weight: &Tensor,
    grad_out: &Tensor,
    need: Need,
    acc: bool,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Option<Tensor> {
    let geom = planes.geom;
    check_conv2d_grads(&geom, planes.b, weight, grad_out, grad_weight, grad_bias);
    if need.params() {
        conv2d_param_grads(planes, grad_out, acc, grad_weight, grad_bias);
    }
    need.input()
        .then(|| conv2d_input_grad(&geom, planes.b, weight, grad_out))
}

/// [`conv2d_backward_planes`] under [`Need::Input`], for a caller that
/// holds no parameter-gradient tensors to pass: `∂L/∂input` alone, bit for
/// bit what the other needs return.
pub fn conv2d_backward_input_planes(
    planes: &ConvPlanes,
    weight: &Tensor,
    grad_out: &Tensor,
) -> Tensor {
    check_conv2d_operands(&planes.geom, planes.b, weight, grad_out);
    conv2d_input_grad(&planes.geom, planes.b, weight, grad_out)
}

/// The shape contract of the conv2d gradient operands.
fn check_conv2d_operands(geom: &ConvGeom, b: usize, weight: &Tensor, grad_out: &Tensor) {
    let (o, wc, kh, kw) = dims4(weight, "conv2d weight");
    assert_eq!(geom.c, wc, "conv2d channel mismatch");
    assert_eq!((geom.kh, geom.kw), (kh, kw), "conv2d kernel size mismatch");
    let (gb, go, oh, ow) = dims4(grad_out, "conv2d grad_out");
    assert_eq!(gb, b, "conv2d grad batch mismatch");
    assert_eq!(go, o, "conv2d grad channel mismatch");
    assert_eq!((oh, ow), (geom.oh, geom.ow), "conv2d grad size mismatch");
}

/// The shape contract of the conv2d gradient entry points.
fn check_conv2d_grads(
    geom: &ConvGeom,
    b: usize,
    weight: &Tensor,
    grad_out: &Tensor,
    grad_weight: &Tensor,
    grad_bias: &Tensor,
) {
    check_conv2d_operands(geom, b, weight, grad_out);
    let o = weight.shape()[0];
    assert_eq!(
        grad_weight.shape(),
        weight.shape(),
        "conv2d grad_weight shape mismatch"
    );
    assert_eq!(grad_bias.len(), o, "conv2d grad_bias size mismatch");
}

/// `grad_weight (o, ckk) (+)= [g_0 | g_1 | …] (o, b*ohw) x [cols_0^T;
/// cols_1^T; …] (b*ohw, ckk)` with the column matrices read in place from
/// `planes` ([`wgrad::weight_grad`]), and the bias gradient.
fn conv2d_param_grads(
    planes: &ConvPlanes,
    grad_out: &Tensor,
    acc: bool,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) {
    let (o, ohw) = (grad_bias.len(), planes.geom.ohw());
    wgrad::weight_grad(planes, grad_out.data(), o, grad_weight.data_mut(), acc);
    accumulate_bias_grad(grad_bias.data_mut(), grad_out.data(), ohw, acc);
}

/// `grad_input = col2im(W^T (ckk, o) x g (o, ohw))` per sample, with col2im
/// fused into the GEMM epilogue — grad_cols never materializes.
/// `weight.data()` is the `(o, ckk)` row-major matrix; `Lhs::ColMajor`
/// reads its transpose in place, packed once for the whole batch.
fn conv2d_input_grad(geom: &ConvGeom, b: usize, weight: &Tensor, grad_out: &Tensor) -> Tensor {
    let (o, ckk, ohw) = (weight.shape()[0], geom.ckk(), geom.ohw());
    let chw = geom.c * geom.h * geom.w;
    let packed_wt = PackedLhs::new(Lhs::ColMajor(weight.data()), ckk, o);
    let mut planes = workspace::take_zeroed(b * geom.plane_len());
    let mut grad_input = workspace::take_uninit(b * chw);
    for (bi, (gi, sample)) in grad_input
        .chunks_exact_mut(chw.max(1))
        .zip(planes.chunks_exact_mut(geom.plane_len().max(1)))
        .enumerate()
    {
        let g = &grad_out.data()[bi * o * ohw..(bi + 1) * o * ohw];
        gemm::gemm_scatter(
            Lhs::Packed(&packed_wt),
            &SliceRhs::new(g, false, o, ohw),
            ckk,
            o,
            ohw,
            |tile, r0, _| scatter_tile(tile, r0, geom, sample),
        );
        geom.unsplit(sample, gi);
    }
    workspace::recycle(planes);
    Tensor::new(&[b, geom.c, geom.h, geom.w], grad_input)
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
    // The conv whose adjoint we are: image (cout, oh, ow) -> columns over
    // the input's (h, w) grid.
    let geom = ConvGeom::conv_transpose(cout, h, w, kh, kw, stride, pad);
    let (oh, ow) = (geom.h, geom.w);
    let ckk = geom.ckk();
    let hw = h * w;
    // Per sample, cols (ckk, hw) = W2^T (ckk, cin) x x (cin, hw), scattered
    // tile by tile into the sample's phase planes — the column matrix never
    // materializes. weight.data() is the (cin, ckk) row-major matrix;
    // Lhs::ColMajor reads its transpose in place, packed once for the whole
    // batch.
    let packed_wt = PackedLhs::new(Lhs::ColMajor(weight.data()), ckk, cin);
    let mut planes = workspace::take_zeroed(b * geom.plane_len());
    let in_data = input.data();
    parallel::parallel_for_chunks(&mut planes, b, cin * ckk * hw, |bi, sample| {
        let x = &in_data[bi * cin * hw..(bi + 1) * cin * hw];
        gemm::gemm_scatter(
            Lhs::Packed(&packed_wt),
            &SliceRhs::new(x, false, cin, hw),
            ckk,
            cin,
            hw,
            |tile, r0, _| scatter_tile(tile, r0, &geom, sample),
        );
    });
    let mut out = workspace::take_uninit(b * cout * oh * ow);
    for (out_sample, sample) in out
        .chunks_exact_mut((cout * oh * ow).max(1))
        .zip(planes.chunks_exact(geom.plane_len().max(1)))
    {
        geom.unsplit(sample, out_sample);
        if has_bias {
            add_bias(out_sample, bias.data());
        }
    }
    workspace::recycle(planes);
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
    let grad_input = conv_transpose2d_backward_into(
        input,
        weight,
        grad_out,
        stride,
        pad,
        Need::All,
        true,
        &mut grad_weight,
        &mut grad_bias,
    )
    .expect("Need::All produces an input gradient");
    (grad_input, grad_weight, grad_bias)
}

/// The transposed-convolution gradient, computing only what `need` names —
/// the same contract as [`conv2d_backward_into`]. Both products read the
/// column matrix of `grad_out`, so its phase planes are built once; the
/// input gradient is written in place, sample by sample.
#[allow(clippy::too_many_arguments)]
pub fn conv_transpose2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    need: Need,
    acc: bool,
    grad_weight: &mut Tensor,
    grad_bias: &mut Tensor,
) -> Option<Tensor> {
    let grads = need.params().then_some((acc, grad_weight, grad_bias));
    conv_transpose2d_gradient(input, weight, grad_out, stride, pad, need.input(), grads)
}

/// [`conv_transpose2d_backward_into`] under [`Need::Input`], for a caller
/// that holds no parameter-gradient tensors to pass: `∂L/∂input` alone,
/// bit for bit what the other needs return.
pub fn conv_transpose2d_backward_input(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    conv_transpose2d_gradient(input, weight, grad_out, stride, pad, true, None)
        .expect("the input gradient was asked for")
}

/// The one transposed-convolution gradient body: the input gradient iff
/// `input_grad`, the parameter gradients into `grads` — `(acc, weight,
/// bias)` — when given.
fn conv_transpose2d_gradient(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    input_grad: bool,
    grads: Option<(bool, &mut Tensor, &mut Tensor)>,
) -> Option<Tensor> {
    let (b, cin, h, w) = dims4(input, "conv_t input");
    let (_, cout, kh, kw) = dims4(weight, "conv_t weight");
    let (gb, gcout, oh, ow) = dims4(grad_out, "conv_t grad_out");
    assert_eq!(gb, b, "conv_t grad batch mismatch");
    assert_eq!(gcout, cout, "conv_t grad channel mismatch");
    if let Some((_, grad_weight, grad_bias)) = &grads {
        assert_eq!(
            grad_weight.shape(),
            weight.shape(),
            "conv_t grad_weight shape mismatch"
        );
        assert_eq!(grad_bias.len(), cout, "conv_t grad_bias size mismatch");
    }

    // dL/dcols = im2col(dL/dout) over the adjoint conv geometry, read from
    // the planes of grad_out instead of materialized: one layout pass
    // serves both products.
    let geom = ConvGeom::conv_transpose(cout, h, w, kh, kw, stride, pad);
    assert_eq!((oh, ow), (geom.h, geom.w), "conv_t grad size mismatch");
    let (ckk, hw) = (geom.ckk(), h * w);
    let planes = ConvPlanes::of(geom, b, grad_out.data());

    let grad_input = input_grad.then(|| {
        // dL/dx = W2 (cin, ckk) x gcols (ckk, hw) per sample, straight into
        // place (fully overwritten), the weights packed once for the batch.
        let packed_w = PackedLhs::new(Lhs::RowMajor(weight.data()), cin, ckk);
        let mut grad_input = workspace::take_uninit(input.len());
        for (bi, gi) in grad_input.chunks_exact_mut((cin * hw).max(1)).enumerate() {
            let gcols = Im2colRhs {
                planes: planes.sample(bi),
                g: geom,
            };
            gemm::gemm_with(Lhs::Packed(&packed_w), &gcols, gi, cin, ckk, hw, false);
        }
        Tensor::new(input.shape(), grad_input)
    });

    if let Some((acc, grad_weight, grad_bias)) = grads {
        // dL/dW2 (cin, ckk) (+)= [x_0 | x_1 | …] (cin, b*hw) x
        // [gcols_0^T; gcols_1^T; …] (b*hw, ckk), as in `conv2d_param_grads`.
        wgrad::weight_grad(&planes, input.data(), cin, grad_weight.data_mut(), acc);
        accumulate_bias_grad(grad_bias.data_mut(), grad_out.data(), oh * ow, acc);
    }
    grad_input
}

/// `sample[oc][..] += bias[oc]` over one `(channels, positions)` sample.
fn add_bias(sample: &mut [f32], bias: &[f32]) {
    let positions = sample.len() / bias.len();
    for (chunk, &bv) in sample.chunks_exact_mut(positions.max(1)).zip(bias) {
        for v in chunk {
            *v += bv;
        }
    }
}

/// `grad_bias[oc] += sum(g[bi][oc][..])`, samples ascending — one sum per
/// (sample, channel), added in that order to the old gradient (`acc`) or
/// to 0.0. Each sum is the in-order chain `row.iter().sum()` runs; eight
/// channels' chains advance side by side so the adds of one do not wait
/// for the adds of another.
fn accumulate_bias_grad(grad_bias: &mut [f32], grad_out: &[f32], positions: usize, acc: bool) {
    const SIDE: usize = 8;
    if !acc {
        grad_bias.fill(0.0);
    }
    let channels = grad_bias.len();
    // What `Iterator::sum` seeds an `f32` chain with.
    let seed: f32 = [].iter().sum();
    for g in grad_out.chunks_exact((channels * positions).max(1)) {
        for (gb, block) in grad_bias.chunks_mut(SIDE).zip(g.chunks(SIDE * positions)) {
            // A short last block re-reads its final row in the unused
            // slots and drops their sums.
            let last = gb.len() - 1;
            let rows: [&[f32]; SIDE] =
                std::array::from_fn(|j| &block[j.min(last) * positions..][..positions]);
            let mut sums = [seed; SIDE];
            for p in 0..positions {
                for (sum, row) in sums.iter_mut().zip(&rows) {
                    *sum += row[p];
                }
            }
            for (gb, sum) in gb.iter_mut().zip(sums) {
                *gb += sum;
            }
        }
    }
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
        let mut acc = || {
            conv2d_backward_into(&x, &wt, &g, 2, 1, Need::All, true, &mut gw, &mut gbias).unwrap()
        };
        let gx1 = acc();
        let _ = acc();
        crate::assert_close(gx1.data(), gx_ref.data(), 1e-5);
        crate::assert_close(gw.data(), gw_ref.scale(2.0).data(), 1e-4);
        crate::assert_close(gbias.data(), gb_ref.scale(2.0).data(), 1e-4);
    }

    /// `split` writes every element of the planes, padding included: laid
    /// over NaNs they are bit for bit the planes laid over zeros — on the
    /// fixed-length stride-2 rows and the general ones (strides 1 and 3,
    /// odd widths, widths below the stride, pads that are not multiples of
    /// the stride, no pixels at all).
    #[test]
    fn planes_overwrite_every_element_of_a_nan_buffer() {
        let cases = [
            (3, 32, 32, 3, 2, 1),
            (2, 8, 8, 4, 2, 1),
            (2, 6, 16, 5, 2, 2),
            (2, 5, 7, 3, 2, 1),
            (2, 4, 9, 3, 3, 2),
            (2, 6, 5, 5, 1, 2),
            (1, 2, 1, 3, 3, 4),
            (2, 0, 4, 3, 2, 2),
            (2, 3, 0, 3, 2, 2),
        ];
        for (c, h, w, k, s, p) in cases {
            let g = ConvGeom::conv(c, h, w, k, k, s, p);
            let image: Vec<f32> = (0..c * h * w).map(|i| i as f32 + 0.5).collect();
            let mut zeroed = vec![0.0f32; g.plane_len()];
            let mut nans = vec![f32::NAN; g.plane_len()];
            g.split(&image, &mut zeroed);
            g.split(&image, &mut nans);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&nans), bits(&zeroed), "{:?}", (c, h, w, k, s, p));
        }
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
