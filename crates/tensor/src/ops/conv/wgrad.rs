//! The weight gradient of both conv layers as a **direct** product: neither
//! operand is gathered out of the phase planes.
//!
//! The product is `gw (m, ckk) (+)= A (m, b·n) · Cᵀ (b·n, ckk)`: `A` the
//! samples' `(m, n)` blocks side by side (`grad_out` for `Conv2d`, the
//! input for `ConvTranspose2d`), `Cᵀ` their transposed column matrices
//! stacked, `k = sample·n + position`. The planes are contiguous *along*
//! positions, so a packed GEMM has to transpose `Cᵀ` element by element
//! into its slivers — at the paper's shapes that cost more than the
//! multiply. Here the roles are swapped, the move `gemm/skinny.rs` made for
//! dense: the register tile is [`TAPS`] taps x two [`LANES`]-channel
//! slivers of `gwᵀ`, the vector lanes run over the channels of `A`, and
//! the tap values are **broadcast as scalars straight from the planes**
//! ([`super::Taps::base`]` + sample·plane_len + oy·oy_stride + ox`). What
//! is copied is the small side, in 16x16 block transposes (the GEMM
//! packers' [`transpose`]):
//!
//! * `Aᵀ`, once, as `[k][LANES]` slivers;
//! * `gw` itself, into a `(ckk, m)` scratch whose rows the tiles load and
//!   store as whole vectors, and back out (the way in only when
//!   accumulating).
//!
//! `k` is walked in panels of whole output rows, sized so that a panel of
//! `Aᵀ` stays in the L2 while every tap tile streams over it; the scratch
//! carries the partial sums from panel to panel (an exact `f32` round
//! trip). Tap tiles own disjoint rows of the scratch and are the unit of
//! parallelism.
//!
//! Per element the chain is the one the packed product ran: seeded with
//! `gw` (`acc`) or 0.0, samples ascending, positions ascending, one `fma`
//! per step — only the two multiplicands trade places, and the copies are
//! exact. Bitwise equal to `im2col` + `matmul_nt_acc_into`, for any
//! `TENSOR_THREADS`.

use super::ConvPlanes;
use crate::ops::gemm::transpose::transpose;
use crate::parallel;
use crate::workspace;
use std::ops::Range;

/// Channels per sliver: one 16-lane vector.
const LANES: usize = 16;
/// Taps per register tile: against two slivers that is sixteen accumulator
/// vectors, beside the two sliver vectors and one broadcast.
const TAPS: usize = 8;
/// Elements of `Aᵀ` per `k` panel (512 KiB).
const PANEL: usize = 1 << 17;

/// `gw (m, ckk) (+)= A (m, b·n) · Cᵀ (b·n, ckk)` — see the module docs.
///
/// * `planes`: the phase planes `Cᵀ` is read from, `b` samples;
/// * `a`: `(b, m, n)` row-major with `n = oh·ow`;
/// * `gw`: `(m, ckk)` row-major, overwritten unless `acc`.
pub(super) fn weight_grad(planes: &ConvPlanes, a: &[f32], m: usize, gw: &mut [f32], acc: bool) {
    let (geom, b) = (&planes.geom, planes.b);
    let (ckk, n, ow) = (geom.ckk(), geom.ohw(), geom.ow);
    assert_eq!(a.len(), b * m * n, "weight_grad operand");
    assert_eq!(gw.len(), m * ckk, "weight_grad gradient");
    if gw.is_empty() {
        return;
    }
    if b == 0 {
        if !acc {
            gw.fill(0.0);
        }
        return;
    }

    let slivers = m.div_ceil(LANES);
    let mp = slivers * LANES;
    let tiles = ckk.div_ceil(TAPS);
    let panel_rows = (PANEL / (mp * ow)).clamp(1, b * geom.oh);
    let sliver_len = panel_rows * ow * LANES;
    let mut scratch = workspace::take_uninit(tiles * TAPS * mp + slivers * sliver_len);
    let (gwt, at) = scratch.split_at_mut(tiles * TAPS * mp);
    // Pad taps and pad channels are multiplied like the rest and never
    // copied out; zeros keep stale bits (NaNs, denormals) out of them.
    let padded = mp != m || tiles * TAPS != ckk;
    if acc {
        if padded {
            gwt.fill(0.0);
        }
        transpose(gw, ckk, m, ckk, gwt, mp);
    }
    if mp != m {
        at[(slivers - 1) * sliver_len..].fill(0.0);
    }

    for first in (0..b * geom.oh).step_by(panel_rows) {
        // The panel's `k` steps: these output rows of the batch-wide
        // `(b·oh, ow)` position grid.
        let panel = first..(first + panel_rows).min(b * geom.oh);
        let len = panel.len() * ow * LANES;
        for (s, sliver) in at.chunks_exact_mut(sliver_len).enumerate() {
            pack_sliver(a, m, n, s, first * ow, &mut sliver[..len]);
        }
        let sliver = |s: usize| &at[s * sliver_len..][..len];
        let seeded = acc || first > 0;
        // One dispatch per panel: its tiles split across the pool only when
        // the panel alone is worth it.
        let tile_work = (TAPS * m).saturating_mul(panel.len() * ow);
        parallel::parallel_for_chunks(gwt, tiles, tile_work, |ti, tile| {
            // Slots past the last tap re-read it; their rows of the scratch
            // are never copied out.
            let valid = TAPS.min(ckk - ti * TAPS);
            let mut taps = geom.taps_from(ti * TAPS);
            let mut bases = [0usize; TAPS];
            for (j, base) in bases.iter_mut().enumerate() {
                *base = taps.base();
                if j + 1 < valid {
                    taps.advance();
                }
            }
            for s in (0..slivers).step_by(2) {
                let tile = &mut tile[s * LANES..];
                if s + 1 < slivers {
                    let pair = [sliver(s), sliver(s + 1)];
                    tap_tile(planes, &bases, &panel, pair, tile, mp, seeded);
                } else {
                    tap_tile(planes, &bases, &panel, [sliver(s)], tile, mp, seeded);
                }
            }
        });
    }
    transpose(gwt, mp, ckk, m, gw, ckk);
    workspace::recycle(scratch);
}

/// Sliver `s` of `Aᵀ` for the `dst.len() / LANES` steps from `k0`:
/// `dst[(k - k0)·LANES + l] = A[s·LANES + l][k]`; lanes past `m` are left
/// as they are.
fn pack_sliver(a: &[f32], m: usize, n: usize, s: usize, k0: usize, dst: &mut [f32]) {
    let c0 = s * LANES;
    let lanes = LANES.min(m - c0);
    let (mut k, k1) = (k0, k0 + dst.len() / LANES);
    while k < k1 {
        // One sample's stretch of the panel: `lanes` rows of `a`.
        let (bi, pos) = (k / n, k % n);
        let seg = (n - pos).min(k1 - k);
        let src = &a[(bi * m + c0) * n + pos..];
        transpose(src, n, lanes, seg, &mut dst[(k - k0) * LANES..], LANES);
        k += seg;
    }
}

/// One register tile over one `k` panel: [`TAPS`] taps (plane offsets
/// `bases`) x the `S` slivers, `acc[t][s][l] <- fma(tap_t[k],
/// slivers[s][k·LANES + l], acc[t][s][l])` for `k` ascending over the
/// output rows `panel` of the batch-wide `(b·oh, ow)` position grid. Accumulator `(t, s)` is the [`LANES`] elements of `tile`
/// from `t·mp + s·LANES`, read when `seeded` and 0.0 otherwise. Portable
/// version; the AVX-512 build replaces it with an intrinsics twin
/// performing the identical chain.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn tap_tile<const S: usize>(
    planes: &ConvPlanes,
    bases: &[usize; TAPS],
    panel: &Range<usize>,
    slivers: [&[f32]; S],
    tile: &mut [f32],
    mp: usize,
    seeded: bool,
) {
    let (geom, planes) = (&planes.geom, &planes.buf[..]);
    let (oh, ow, oy_stride, plane_len) = (geom.oh, geom.ow, geom.oy_stride(), geom.plane_len());
    let mut acc = [[[0.0f32; LANES]; S]; TAPS];
    if seeded {
        for (row, acc_t) in tile.chunks(mp).zip(&mut acc) {
            for (acc_ts, seed) in acc_t.iter_mut().zip(row.chunks_exact(LANES)) {
                acc_ts.copy_from_slice(seed);
            }
        }
    }
    let (mut sample, mut oy) = (panel.start / oh * plane_len, panel.start % oh);
    let mut steps = slivers.map(|sliver| sliver.chunks_exact(LANES));
    for _ in panel.clone() {
        let row = sample + oy * oy_stride;
        let runs = bases.map(|base| &planes[base + row..][..ow]);
        for ox in 0..ow {
            let g: [&[f32]; S] = std::array::from_fn(|s| steps[s].next().expect("a panel step"));
            for (acc_t, run) in acc.iter_mut().zip(&runs) {
                let x = run[ox];
                for (acc_ts, g) in acc_t.iter_mut().zip(&g) {
                    for (v, &gv) in acc_ts.iter_mut().zip(*g) {
                        *v = x.mul_add(gv, *v);
                    }
                }
            }
        }
        oy += 1;
        if oy == oh {
            (oy, sample) = (0, sample + plane_len);
        }
    }
    for (row, acc_t) in tile.chunks_mut(mp).zip(&acc) {
        for (acc_ts, out) in acc_t.iter().zip(row.chunks_exact_mut(LANES)) {
            out.copy_from_slice(acc_ts);
        }
    }
}

/// AVX-512 twin of the tap tile: `TAPS x S` zmm accumulators loaded from
/// and stored to the rows of `tile` once per panel, `S` sliver loads and
/// [`TAPS`] scalar broadcasts from the planes per `k` step.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn tap_tile<const S: usize>(
    planes: &ConvPlanes,
    bases: &[usize; TAPS],
    panel: &Range<usize>,
    slivers: [&[f32]; S],
    tile: &mut [f32],
    mp: usize,
    seeded: bool,
) {
    use std::arch::x86_64::*;
    let (geom, planes) = (&planes.geom, &planes.buf[..]);
    let (oh, ow, oy_stride, plane_len) = (geom.oh, geom.ow, geom.oy_stride(), geom.plane_len());
    let reach = bases.iter().max().expect("TAPS > 0") + (oh - 1) * oy_stride + ow;
    let samples = panel.end.div_ceil(oh);
    assert!(reach <= plane_len && samples * plane_len <= planes.len());
    assert!(slivers
        .iter()
        .all(|sliver| sliver.len() == panel.len() * ow * LANES));
    assert!(tile.len() >= (TAPS - 1) * mp + S * LANES);
    // SAFETY: a tap is read at `sample·plane_len + base + oy·oy_stride + ox`
    // with `oy < oh`, `ox < ow`, which the first assert keeps below
    // `(sample + 1)·plane_len` for every tap of the tile and, `sample`
    // being the sample of one of the panel's rows, inside `planes`. Each
    // sliver pointer advances `LANES` per step over exactly the
    // `panel.len()·ow` steps its length holds (second assert). Accumulator
    // `(t, s)` is the `LANES` elements of `tile` from `t·mp + s·LANES`,
    // inside it by the third. AVX-512F is compile-time required by the cfg
    // gate.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); S]; TAPS];
        if seeded {
            for (t, acc_t) in acc.iter_mut().enumerate() {
                for (s, acc_ts) in acc_t.iter_mut().enumerate() {
                    *acc_ts = _mm512_loadu_ps(tile.as_ptr().add(t * mp + s * LANES));
                }
            }
        }
        let (mut sample, mut oy) = (panel.start / oh * plane_len, panel.start % oh);
        let mut g = slivers.map(|sliver| sliver.as_ptr());
        for _ in panel.clone() {
            let row = planes.as_ptr().add(sample + oy * oy_stride);
            let runs = bases.map(|base| row.add(base));
            for ox in 0..ow {
                let gv = g.map(|g| _mm512_loadu_ps(g));
                for (acc_t, run) in acc.iter_mut().zip(&runs) {
                    let x = _mm512_set1_ps(*run.add(ox));
                    for (acc_ts, &gv) in acc_t.iter_mut().zip(&gv) {
                        *acc_ts = _mm512_fmadd_ps(x, gv, *acc_ts);
                    }
                }
                g = g.map(|g| g.add(LANES));
            }
            oy += 1;
            if oy == oh {
                (oy, sample) = (0, sample + plane_len);
            }
        }
        for (t, acc_t) in acc.iter().enumerate() {
            for (s, &acc_ts) in acc_t.iter().enumerate() {
                _mm512_storeu_ps(tile.as_mut_ptr().add(t * mp + s * LANES), acc_ts);
            }
        }
    }
}
