//! No-pack kernels for the skinny dense multiplies of a small-batch
//! training step (the paper's b = 10): `x·W` with a handful of rows,
//! `dy·Wᵀ` with a handful of rows, and the rank-b update `dW += xᵀ·dy`.
//!
//! Each of these reads a megabyte-sized weight or gradient matrix once for
//! ~10 rows of work, so the packed driver's copy of that matrix into
//! slivers costs as much as the multiply. The three kernels here leave the
//! large operand where it is:
//!
//! * [`gemm_nn`] interleaves only the tiny A and holds up to [`NN_M`] rows
//!   of a column strip in registers while the rows of `b` stream past;
//! * [`gemm_nt`] runs the vector lanes over up to [`LANES`] rows and reads
//!   each stored row of `b` contiguously, as broadcast scalars;
//! * [`gemm_tn`] walks `out` tile by tile with `a` and `b` read in place.
//!
//! A few stacked batches (the server's `k·b` rows at b = 10) are more rows
//! than one register tile holds. NN and NT then run two or three tiles
//! over each piece of `b` while it is still in cache, so the large operand
//! is still read from memory once; TN's tile never depended on `k`.
//!
//! All three keep the crate's accumulation contract: every output element
//! is `fma(A[i][p], B[p][j], acc)` for `p` ascending, seeded with 0.0 or
//! the existing `out` — bitwise what [`super::naive_gemm`] and the packed
//! driver produce. They are serial; [`super::gemm`] selects them from the
//! shape alone (see [`SKINNY_M`], [`SKINNY_NT_M`], [`super::SKINNY_K`]).

use super::{SKINNY_M, SKINNY_NT_M};
use crate::workspace;

/// What the three kernels share: `(a, b, out, m, k, n, acc)` with the
/// operand layouts of their [`super::Layout`] and `m, k, n >= 1`.
pub(super) type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, bool);

/// Whether this build carries the AVX-512 twins (32 vector registers of 16
/// lanes) or the portable kernels, whose tile shapes are sized for 16
/// registers of 8 lanes.
const AVX512: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx512f"));

/// `f32` lanes of the vector register the tile shapes are sized for.
const LANES: usize = if AVX512 { 16 } else { 8 };

/// Rows per NN register tile: 12 fill the register file on every build
/// (12 x 2 zmm of 32, 12 x 1 ymm of 16).
const NN_M: usize = 12;
/// Vectors of columns per NN register tile: up to [`NN_M`] rows x this many
/// accumulators, beside the `b` vectors and one broadcast.
const NN_VECS: usize = if AVX512 { 2 } else { 1 };
/// Columns per NN strip.
const NN_W: usize = NN_VECS * LANES;
/// Rows of `b` per NN pass (see [`gemm_nn`]).
const NN_KP: usize = 32;

/// Stored rows of `b` (logical columns) in flight per NT strip.
const NT_COLS: usize = 16;

/// Rows per TN register tile.
const TN_R: usize = if AVX512 { 4 } else { 2 };
/// Columns per TN register tile.
const TN_W: usize = 4 * LANES;

// The kernels tile any row count; the bounds of the selection in `gemm()`
// are whole tiles, so the last shape it sends here wastes no lane or row.
const _: () = assert!(SKINNY_M.is_multiple_of(NN_M) && SKINNY_NT_M.is_multiple_of(LANES));

/// `src` (at most `W` elements) as a `W`-array, zero-padded.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn load_padded<const W: usize>(src: &[f32]) -> [f32; W] {
    match src.try_into() {
        Ok(full) => full,
        Err(_) => {
            let mut v = [0.0f32; W];
            v[..src.len()].copy_from_slice(src);
            v
        }
    }
}

/// Mask selecting the first `min(w, LANES)` lanes of a vector.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn lane_mask(w: usize) -> std::arch::x86_64::__mmask16 {
    ((1u32 << w.min(LANES)) - 1) as u16
}

/// `out (m,n) (+)= a (m,k) · b (k,n)`, meant for `1 <= m <= SKINNY_M`.
///
/// The rows are cut into `ceil(m / NN_M)` tiles of near-equal height. Each
/// tile's rows of `a` are interleaved `p`-major into one `m·k` workspace
/// buffer (`ap[r0*k + p*mt + i] = a[(r0+i)*k + p]` for the `mt`-row tile
/// starting at row `r0`). `b` is walked [`NN_KP`] rows at a time with
/// `out` carrying the partial sums from panel to panel (an exact `f32`
/// round trip, so the chain of each element is still one in-order run over
/// `k`); every tile multiplies a panel before the next panel is touched,
/// so `b` comes from memory once however many tiles share it.
pub(super) fn gemm_nn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    let tiles = m.div_ceil(NN_M);
    // (first row, rows) of tile `t`: the first `taller` tiles have one row
    // more than the rest.
    let (rows, taller) = (m / tiles, m % tiles);
    let tile = |t: usize| (t * rows + t.min(taller), rows + usize::from(t < taller));
    let mut ap = workspace::take_uninit(m * k);
    for t in 0..tiles {
        let (r0, mt) = tile(t);
        let (at, apt) = (&a[r0 * k..(r0 + mt) * k], &mut ap[r0 * k..(r0 + mt) * k]);
        for (i, arow) in at.chunks_exact(k).enumerate() {
            for (p, &v) in arow.iter().enumerate() {
                apt[p * mt + i] = v;
            }
        }
    }
    for p0 in (0..k).step_by(NN_KP) {
        let kp = NN_KP.min(k - p0);
        // The tile sees the rest of `b` so it can prefetch the next panel.
        let brest = &b[p0 * n..];
        for t in 0..tiles {
            let (r0, mt) = tile(t);
            let app = &ap[r0 * k + p0 * mt..r0 * k + (p0 + kp) * mt];
            let out_t = &mut out[r0 * n..(r0 + mt) * n];
            nn_panel_of(mt)(app, brest, out_t, n, acc || p0 > 0);
        }
    }
    workspace::recycle(ap);
}

/// [`nn_panel`] for a tile of `mt` rows.
fn nn_panel_of(mt: usize) -> fn(&[f32], &[f32], &mut [f32], usize, bool) {
    match mt {
        1 => nn_panel::<1>,
        2 => nn_panel::<2>,
        3 => nn_panel::<3>,
        4 => nn_panel::<4>,
        5 => nn_panel::<5>,
        6 => nn_panel::<6>,
        7 => nn_panel::<7>,
        8 => nn_panel::<8>,
        9 => nn_panel::<9>,
        10 => nn_panel::<10>,
        11 => nn_panel::<11>,
        12 => nn_panel::<12>,
        _ => unreachable!("gemm_nn: a tile of {mt} rows is outside 1..=NN_M"),
    }
}

/// An `M`-row tile against the `ap.len() / M` leading rows of `b`: every
/// column strip is one register tile.
fn nn_panel<const M: usize>(ap: &[f32], b: &[f32], out: &mut [f32], n: usize, seeded: bool) {
    for j0 in (0..n).step_by(NN_W) {
        nn_tile::<M>(ap, b, out, n, j0, NN_W.min(n - j0), seeded);
    }
}

/// One NN register tile: all `M` rows x columns `j0..j0+jw` over the
/// `ap.len() / M` leading rows of `b`: `out[i][j0+jj] <- fma(ap[p*M + i],
/// b[p*n + j0+jj], ·)` for `p` ascending, seeded with `out` when `seeded`
/// and with 0.0 otherwise. Portable version; the AVX-512 build replaces it
/// with an intrinsics twin performing the identical chain.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn nn_tile<const M: usize>(
    ap: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    j0: usize,
    jw: usize,
    seeded: bool,
) {
    let mut t = [[0.0f32; NN_W]; M];
    if seeded {
        for (tr, orow) in t.iter_mut().zip(out.chunks_exact(n)) {
            *tr = load_padded(&orow[j0..j0 + jw]);
        }
    }
    for (av, brow) in ap.chunks_exact(M).zip(b.chunks_exact(n)) {
        let bv: [f32; NN_W] = load_padded(&brow[j0..j0 + jw]);
        for (tr, &ai) in t.iter_mut().zip(av) {
            for (tv, &bj) in tr.iter_mut().zip(&bv) {
                *tv = ai.mul_add(bj, *tv);
            }
        }
    }
    for (tr, orow) in t.iter().zip(out.chunks_exact_mut(n)) {
        orow[j0..j0 + jw].copy_from_slice(&tr[..jw]);
    }
}

/// AVX-512 twin of the NN tile: `2·M` zmm accumulators (24 at `M` = 12)
/// seeded from and stored to `out` directly (masked at the column edge),
/// two masked loads of the `b` row and one broadcast fused multiply-add
/// pair per interleaved A element. Each step also prefetches its columns
/// of the row one panel further down, so the next panel is on its way
/// while this one is multiplied; a prefetch changes no value.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn nn_tile<const M: usize>(
    ap: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    j0: usize,
    jw: usize,
    seeded: bool,
) {
    use std::arch::x86_64::*;
    let kp = ap.len() / M;
    assert!(j0 + jw <= n && jw <= NN_W && b.len() >= kp * n && out.len() >= M * n);
    let (m0, m1) = (lane_mask(jw), lane_mask(jw.saturating_sub(LANES)));
    // Rows to look ahead: one panel, or none when `b` ends with this one.
    let ahead = if b.len() > kp * n { kp * n } else { 0 };
    // SAFETY: rows `i < M` x columns `j0..j0+jw` lie inside `out` and rows
    // `p < kp` x the same columns inside `b` by the assert above; the masks
    // cover exactly `jw` lanes, masked-off lanes are not accessed, and
    // pointers that may lie past a slice (the second vector when its mask
    // is empty, the prefetch address, the row step after the last row) are
    // formed with `wrapping_add` and at most prefetched, which cannot
    // fault. `ap` holds `kp*M` elements, read `M` at a time `kp` times.
    // AVX-512F is compile-time required by the cfg gate.
    unsafe {
        let mut t = [[_mm512_setzero_ps(); NN_VECS]; M];
        if seeded {
            for (i, tr) in t.iter_mut().enumerate() {
                let op = out.as_ptr().add(i * n + j0);
                tr[0] = _mm512_maskz_loadu_ps(m0, op);
                tr[1] = _mm512_maskz_loadu_ps(m1, op.wrapping_add(LANES));
            }
        }
        let mut app = ap.as_ptr();
        let mut bp = b.as_ptr().add(j0);
        for _ in 0..kp {
            let b0 = _mm512_maskz_loadu_ps(m0, bp);
            let b1 = _mm512_maskz_loadu_ps(m1, bp.wrapping_add(LANES));
            _mm_prefetch::<_MM_HINT_T0>(bp.wrapping_add(ahead) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(bp.wrapping_add(ahead + LANES) as *const i8);
            for (i, tr) in t.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*app.add(i));
                tr[0] = _mm512_fmadd_ps(ai, b0, tr[0]);
                tr[1] = _mm512_fmadd_ps(ai, b1, tr[1]);
            }
            app = app.add(M);
            bp = bp.wrapping_add(n);
        }
        for (i, tr) in t.iter().enumerate() {
            let op = out.as_mut_ptr().add(i * n + j0);
            _mm512_mask_storeu_ps(op, m0, tr[0]);
            _mm512_mask_storeu_ps(op.wrapping_add(LANES), m1, tr[1]);
        }
    }
}

/// `out (m,n) (+)= a (m,k) · bᵀ` with `b` stored `(n,k)`, meant for
/// `1 <= m <= SKINNY_NT_M`.
///
/// The rows are cut into blocks of [`LANES`]. Each block of `a` is
/// transposed into `k·LANES` elements of one workspace buffer
/// (`at[(blk*k + p)*LANES + i] = a[(blk*LANES + i)*k + p]`, lanes past the
/// block's rows zero); lane `i` of every accumulator is output row `i` of
/// the block, pad lanes are never stored. Every block multiplies a strip
/// of [`NT_COLS`] stored rows of `b` before the next strip is touched, so
/// `b` comes from memory once however many blocks share it.
pub(super) fn gemm_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    let blocks = m.div_ceil(LANES);
    let mut at = workspace::take_uninit(blocks * k * LANES);
    if !m.is_multiple_of(LANES) {
        at[(blocks - 1) * k * LANES..].fill(0.0);
    }
    for (i, arow) in a.chunks_exact(k).enumerate() {
        let atb = &mut at[i / LANES * k * LANES..];
        for (p, &v) in arow.iter().enumerate() {
            atb[p * LANES + i % LANES] = v;
        }
    }
    for j0 in (0..n).step_by(NT_COLS) {
        let jw = NT_COLS.min(n - j0);
        for (blk, atb) in at.chunks_exact(k * LANES).enumerate() {
            let r0 = blk * LANES;
            let rows = LANES.min(m - r0);
            nt_strip(atb, b, &mut out[r0 * n..], rows, k, n, j0, jw, acc);
        }
    }
    workspace::recycle(at);
}

/// One NT strip: output columns `j0..j0+jw` — [`NT_COLS`] stored rows of
/// `b` in flight, each read front to back as broadcast scalars. A short
/// last strip re-reads its final row in the unused slots and drops them.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn nt_strip(
    at: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    j0: usize,
    jw: usize,
    acc: bool,
) {
    let mut t = [[0.0f32; LANES]; NT_COLS];
    if acc {
        for (jj, tc) in t.iter_mut().enumerate().take(jw) {
            for (i, tv) in tc.iter_mut().enumerate().take(m) {
                *tv = out[i * n + j0 + jj];
            }
        }
    }
    nt_k_loop(at, b, k, j0, jw, &mut t);
    for (jj, tc) in t.iter().enumerate().take(jw) {
        for (i, &tv) in tc.iter().enumerate().take(m) {
            out[i * n + j0 + jj] = tv;
        }
    }
}

/// The `k` loop of the NT strip: `t[jj][i] <- fma(at[p*LANES + i],
/// b[(j0+jj)*k + p], t[jj][i])` for `p` ascending, slots past `jw`
/// repeating row `j0+jw-1`. Portable version; the AVX-512 build replaces it
/// with an intrinsics twin performing the identical chain.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn nt_k_loop(
    at: &[f32],
    b: &[f32],
    k: usize,
    j0: usize,
    jw: usize,
    t: &mut [[f32; LANES]; NT_COLS],
) {
    let brows: [&[f32]; NT_COLS] = std::array::from_fn(|jj| &b[(j0 + jj.min(jw - 1)) * k..][..k]);
    for (p, av) in at.chunks_exact(LANES).enumerate() {
        for (tc, brow) in t.iter_mut().zip(&brows) {
            let bj = brow[p];
            for (tv, &ai) in tc.iter_mut().zip(av) {
                *tv = ai.mul_add(bj, *tv);
            }
        }
    }
}

/// AVX-512 twin of the NT `k` loop: [`NT_COLS`] zmm accumulators, one load
/// of the transposed A column and one broadcast fused multiply-add per
/// stored row of `b` per `k` step.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn nt_k_loop(
    at: &[f32],
    b: &[f32],
    k: usize,
    j0: usize,
    jw: usize,
    t: &mut [[f32; LANES]; NT_COLS],
) {
    use std::arch::x86_64::*;
    assert!(at.len() == k * LANES && jw >= 1 && (j0 + jw) * k <= b.len());
    // SAFETY: `at` holds `k*LANES` elements, read one vector per step
    // `p < k`. Row pointer `jj` is row `j0 + min(jj, jw-1) < j0 + jw` of
    // `b`, `k` elements long inside `b` by the assert above, read at
    // `p < k`. `t` rows are one vector long. AVX-512F is compile-time
    // required by the cfg gate.
    unsafe {
        let mut v = [_mm512_setzero_ps(); NT_COLS];
        for (vc, tc) in v.iter_mut().zip(t.iter()) {
            *vc = _mm512_loadu_ps(tc.as_ptr());
        }
        let rows: [*const f32; NT_COLS] =
            std::array::from_fn(|jj| b.as_ptr().add((j0 + jj.min(jw - 1)) * k));
        for p in 0..k {
            let av = _mm512_loadu_ps(at.as_ptr().add(p * LANES));
            for (vc, row) in v.iter_mut().zip(&rows) {
                *vc = _mm512_fmadd_ps(av, _mm512_set1_ps(*row.add(p)), *vc);
            }
        }
        for (vc, tc) in v.iter().zip(t.iter_mut()) {
            _mm512_storeu_ps(tc.as_mut_ptr(), *vc);
        }
    }
}

/// `out (m,n) (+)= aᵀ · b` with `a` stored `(k,m)`, `b` stored `(k,n)`,
/// meant for `1 <= k <= SKINNY_K` — the rank-`k` update. Nothing is packed and
/// no buffer is taken: `out` is read (when accumulating) and written once,
/// tile by tile.
pub(super) fn gemm_tn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    debug_assert_eq!(a.len(), k * m);
    for i0 in (0..m).step_by(TN_R) {
        let rv = TN_R.min(m - i0);
        for j0 in (0..n).step_by(TN_W) {
            tn_tile(a, b, out, m, n, i0, rv, j0, TN_W.min(n - j0), acc);
        }
    }
}

/// One TN register tile: rows `i0..i0+rv`, columns `j0..j0+jw`:
/// `out[i0+r][j0+jj] <- fma(a[p*m + i0+r], b[p*n + j0+jj], ·)` for `p`
/// ascending, seeded with 0.0 or `out`. A short last row tile re-reads its
/// final row of `a` in the unused slots and drops them. Portable version;
/// the AVX-512 build replaces it with an intrinsics twin performing the
/// identical chain.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tn_tile(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    i0: usize,
    rv: usize,
    j0: usize,
    jw: usize,
    acc: bool,
) {
    let mut t = [[0.0f32; TN_W]; TN_R];
    if acc {
        for (r, tr) in t.iter_mut().enumerate().take(rv) {
            *tr = load_padded(&out[(i0 + r) * n + j0..][..jw]);
        }
    }
    for (acol, brow) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        let bv: [f32; TN_W] = load_padded(&brow[j0..j0 + jw]);
        for (r, tr) in t.iter_mut().enumerate() {
            let ai = acol[i0 + r.min(rv - 1)];
            for (tv, &bj) in tr.iter_mut().zip(&bv) {
                *tv = ai.mul_add(bj, *tv);
            }
        }
    }
    for (r, tr) in t.iter().enumerate().take(rv) {
        out[(i0 + r) * n + j0..][..jw].copy_from_slice(&tr[..jw]);
    }
}

/// AVX-512 twin of the TN tile: `TN_R x 4` zmm accumulators seeded from and
/// stored to `out` directly (masked at the column edge), four masked loads
/// of the `b` row and [`TN_R`] broadcasts per `k` step.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tn_tile(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    n: usize,
    i0: usize,
    rv: usize,
    j0: usize,
    jw: usize,
    acc: bool,
) {
    use std::arch::x86_64::*;
    const VECS: usize = TN_W / LANES;
    let k = a.len() / m;
    assert!(rv >= 1 && i0 + rv <= m && j0 + jw <= n && jw <= TN_W);
    assert!(b.len() >= k * n && out.len() >= m * n);
    let masks: [__mmask16; VECS] = std::array::from_fn(|v| lane_mask(jw.saturating_sub(v * LANES)));
    // SAFETY: rows `i0..i0+rv` x columns `j0..j0+jw` lie inside `out`
    // (`m*n` elements) and rows `p < k` x the same columns inside `b` by
    // the asserts above; the masks cover exactly `jw` lanes, masked-off
    // lanes are not accessed, and pointers that may lie past a slice when
    // their mask is empty are formed with `wrapping_add`. `a` is read at
    // `p*m + i0 + r` with `r < rv`, inside `k*m`. AVX-512F is compile-time
    // required by the cfg gate.
    unsafe {
        let mut t = [[_mm512_setzero_ps(); VECS]; TN_R];
        if acc {
            for (r, tr) in t.iter_mut().enumerate().take(rv) {
                let op = out.as_ptr().add((i0 + r) * n + j0);
                for (v, tv) in tr.iter_mut().enumerate() {
                    *tv = _mm512_maskz_loadu_ps(masks[v], op.wrapping_add(v * LANES));
                }
            }
        }
        for p in 0..k {
            let bp = b.as_ptr().add(p * n + j0);
            let bv: [__m512; VECS] = std::array::from_fn(|v| {
                _mm512_maskz_loadu_ps(masks[v], bp.wrapping_add(v * LANES))
            });
            let ap = a.as_ptr().add(p * m + i0);
            for (r, tr) in t.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*ap.add(r.min(rv - 1)));
                for (tv, &bj) in tr.iter_mut().zip(&bv) {
                    *tv = _mm512_fmadd_ps(ai, bj, *tv);
                }
            }
        }
        for (r, tr) in t.iter().enumerate().take(rv) {
            let op = out.as_mut_ptr().add((i0 + r) * n + j0);
            for (v, &tv) in tr.iter().enumerate() {
                _mm512_mask_storeu_ps(op.wrapping_add(v * LANES), masks[v], tv);
            }
        }
    }
}
