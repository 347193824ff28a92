//! Out-of-place block transposes, the one copy in the crate that changes
//! an operand's storage order: the GEMM's transposed-B slivers and
//! row-major A panels, the no-pack kernels' interleaved small operand and
//! NT strip tiles (`gemm/skinny.rs`), the conv weight gradient's `Aᵀ`
//! slivers and `gwᵀ` scratch (`conv/wgrad.rs`), and [`crate::Tensor::t`].
//!
//! A matrix is walked in [`BLOCK`]-square blocks; each block is moved by
//! [`transpose_block`], which on AVX-512 is sixteen row loads, a shuffle
//! network and one store per column, all in registers. A ragged block
//! (fewer rows or columns) takes the same path with masked loads and
//! stores, so the edges cost no element-by-element loop. The copies are
//! exact: only where a value lives changes.

/// Side of a transposed block: one 16-lane vector.
pub(crate) const BLOCK: usize = 16;

/// `dst[c·ds + r] = src[r·ss + c]` for `r < rows`, `c < cols`, block by
/// block through [`transpose_block`]. Nothing else of `dst` is written.
pub(crate) fn transpose(
    src: &[f32],
    ss: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    ds: usize,
) {
    for c0 in (0..cols).step_by(BLOCK) {
        for r0 in (0..rows).step_by(BLOCK) {
            let (rw, cw) = (BLOCK.min(rows - r0), BLOCK.min(cols - c0));
            transpose_block(
                &src[r0 * ss + c0..],
                ss,
                rw,
                cw,
                &mut dst[c0 * ds + r0..],
                ds,
            );
        }
    }
}

/// One block of `rows x cols`, both at most [`BLOCK`]:
/// `dst[c·ds + r] = src[r·ss + c]`. Portable version; the AVX-512 build
/// replaces it with an in-register twin.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn transpose_block(src: &[f32], ss: usize, rows: usize, cols: usize, dst: &mut [f32], ds: usize) {
    let mut blk = [[0.0f32; BLOCK]; BLOCK];
    for (r, row) in blk.iter_mut().enumerate().take(rows) {
        row[..cols].copy_from_slice(&src[r * ss..][..cols]);
    }
    for c in 0..cols {
        for (o, row) in dst[c * ds..][..rows].iter_mut().zip(&blk) {
            *o = row[c];
        }
    }
}

/// AVX-512 twin of the block transpose: `rows` row loads (`cols` lanes
/// each, the rest zero), four rounds of sixteen shuffles (32-bit and 64-bit
/// interleaves inside the 128-bit lanes, then two rounds of lane shuffles),
/// `cols` column stores of `rows` lanes.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn transpose_block(src: &[f32], ss: usize, rows: usize, cols: usize, dst: &mut [f32], ds: usize) {
    use std::arch::x86_64::*;
    use std::array::from_fn;
    assert!((1..=BLOCK).contains(&rows) && (1..=BLOCK).contains(&cols));
    assert!(src.len() >= (rows - 1) * ss + cols && dst.len() >= (cols - 1) * ds + rows);
    let (load, store) = (((1u32 << cols) - 1) as u16, ((1u32 << rows) - 1) as u16);
    // SAFETY: row `i < rows` is read at the `cols` lanes from `i·ss` of
    // `src`, column `c < cols` written at the `rows` lanes from `c·ds` of
    // `dst` — inside the slices by the asserts above; masked-off lanes are
    // not accessed. AVX-512F is compile-time required by the cfg gate.
    unsafe {
        let r: [__m512; BLOCK] = from_fn(|i| match i < rows {
            true => _mm512_maskz_loadu_ps(load, src.as_ptr().add(i * ss)),
            false => _mm512_setzero_ps(),
        });
        // Rows (i, i+1) interleaved: t[i] holds columns 0 1 | 4 5 | 8 9 |
        // 12 13 of both, t[i+1] columns 2 3 | 6 7 | 10 11 | 14 15.
        let t: [__m512; BLOCK] = from_fn(|i| match i % 2 {
            0 => _mm512_unpacklo_ps(r[i], r[i + 1]),
            _ => _mm512_unpackhi_ps(r[i - 1], r[i]),
        });
        // Row quads: u[4g + j] holds column j | j+4 | j+8 | j+12 of rows
        // 4g..4g+4.
        let u: [__m512; BLOCK] = from_fn(|i| {
            let (x, y) = (i / 4 * 4 + i % 4 / 2, i / 4 * 4 + 2 + i % 4 / 2);
            let (x, y) = (_mm512_castps_pd(t[x]), _mm512_castps_pd(t[y]));
            _mm512_castpd_ps(match i % 2 {
                0 => _mm512_unpacklo_pd(x, y),
                _ => _mm512_unpackhi_pd(x, y),
            })
        });
        // Row octets: v[8g + j] holds columns j%4 + (0 | 8) (j < 4) or
        // j%4 + (4 | 12) of rows 8g..8g+8.
        let v: [__m512; BLOCK] = from_fn(|i| {
            let (x, y) = (u[i / 8 * 8 + i % 4], u[i / 8 * 8 + 4 + i % 4]);
            match i % 8 / 4 {
                0 => _mm512_shuffle_f32x4::<0x88>(x, y),
                _ => _mm512_shuffle_f32x4::<0xdd>(x, y),
            }
        });
        for c in 0..cols {
            let col = match c / 8 {
                0 => _mm512_shuffle_f32x4::<0x88>(v[c % 8], v[8 + c % 8]),
                _ => _mm512_shuffle_f32x4::<0xdd>(v[c % 8], v[8 + c % 8]),
            };
            _mm512_mask_storeu_ps(dst.as_mut_ptr().add(c * ds), store, col);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_every_element_of_ragged_blocks_and_nothing_else() {
        // Whole blocks, ragged rows, ragged columns and both, with strides
        // wider than the extents; the rest of `dst` keeps its sentinel.
        for (rows, cols) in [(16, 16), (8, 16), (16, 5), (7, 3), (33, 40), (1, 1)] {
            let (ss, ds) = (cols + 3, rows + 2);
            let src: Vec<f32> = (0..rows * ss).map(|i| i as f32).collect();
            let mut dst = vec![-1.0f32; cols * ds];
            transpose(&src, ss, rows, cols, &mut dst, ds);
            for c in 0..cols {
                for r in 0..ds {
                    let want = if r < rows { src[r * ss + c] } else { -1.0 };
                    assert_eq!(dst[c * ds + r], want, "({rows},{cols}) r={r} c={c}");
                }
            }
        }
    }
}
