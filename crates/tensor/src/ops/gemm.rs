//! The GEMM kernels every dense multiply in the workspace runs on:
//! `matmul`, `matmul_nt`, `matmul_tn` and the implicit im2col GEMMs inside
//! `conv2d` / `conv_transpose2d` all lower to [`gemm_into`] /
//! [`gemm_acc_into`] with a [`Layout`] tag, or to the `pub(crate)`
//! [`gemm_with`] / [`gemm_scatter`] drivers with a custom [`PackRhs`]
//! operand (conv forward and both input gradients).
//!
//! The drivers run the packed, cache-blocked micro-kernel described below.
//! The dense-slice entry points first check the shape: a product with a
//! handful of rows (NN, NT) or a handful of shared-dimension steps (TN)
//! reads its large operand once for very little arithmetic, so packing
//! that operand costs as much as multiplying by it, and those shapes go to
//! the no-pack kernels of the `skinny` submodule instead ([`SKINNY_M`],
//! [`SKINNY_NT_M`], [`SKINNY_K`]; same accumulation chain, same bits).
//!
//! # Structure
//!
//! The kernel follows the classic three-level blocking of high-performance
//! BLAS (Goto-style), sized for this crate's GAN workloads:
//!
//! * the output is cut into row blocks of [`MC`] rows and column panels of
//!   [`NC`] columns — the (row block × column panel) grid is the unit of
//!   parallelism, so wide shapes (large `n`, small `m` — the generator's
//!   batched forward) fan out even when there are few row blocks;
//! * the shared `k` dimension is cut into panels of [`KC`] — the packed
//!   A panel (`MC x KC`, 32 KiB) stays L1/L2-resident while it is reused
//!   across the whole `n` extent;
//! * the packed B panel (`KC x NC`, 256 KiB) stays L2-resident while every
//!   row of the A panels streams over it.
//!
//! # Shared packing
//!
//! For each `k` panel, **every A row panel and every B column panel is
//! packed exactly once** into a shared, workspace-pool-backed buffer
//! (one fixed slot per panel index), by a parallel pack phase; the compute
//! grid then consumes the shared panels cooperatively. The old schedule
//! packed B into thread-local scratch per row block, so with `T` threads
//! the same B bytes were packed up to `ceil(m/MC)` times and memory
//! bandwidth capped scaling. A panels are [`MR`]-interleaved row panels
//! (one tile *column* per `k` step), B panels are column *slivers* of
//! [`NR`] = 16 columns laid out `p`-major, so the innermost loop reads both
//! operands at stride 1 regardless of the logical [`Layout`].
//!
//! The B-side pack is abstracted behind [`PackRhs`]: the dense slice
//! packer ([`SliceRhs`]) is one implementation; `conv.rs` provides an
//! im2col packer that writes convolution patches straight into the packed
//! sliver format (implicit GEMM — the full column matrix never exists in
//! memory). The conv weight gradient, whose transposed column matrix cost
//! more to pack than to multiply, no longer comes here: it is a direct
//! product in `conv/wgrad.rs`.
//!
//! The A side is an [`Lhs`]: a dense slice in either storage order, or
//! panels packed ahead of the call ([`PackedLhs`] through
//! [`Lhs::Packed`]). A caller that multiplies many right-hand sides by one
//! left operand — a conv layer's weights against each sample of the batch
//! — packs it once; the drivers then skip their A pack and read those
//! panels in place. It is the same compute grid either way: only where a
//! cell finds its A panel differs. The dense `matmul` family keeps packing per `k` panel
//! inside the parallel pack phase.
//!
//! The micro-kernel computes an [`MR`]`x`[`NR`] register tile: 8 vector
//! accumulators (AVX2 ymm) with one broadcast fused multiply-add per
//! operand element — no loads or stores of the output inside the `k` loop,
//! and eight independent accumulation chains to hide the FMA latency. On
//! x86-64 with FMA the inner loop is hand-written with `core::arch`
//! intrinsics (the exact same operation chain, see below); elsewhere a
//! scalar `mul_add` loop compiles to the equivalent fused code.
//!
//! # Determinism
//!
//! Every output element is accumulated over `k` **in ascending order, one
//! [`f32::mul_add`] per step** (fused, single rounding — the FMA unit is
//! where half the machine's FLOP/s live):
//!
//! * k-panels are visited in ascending order (the `kb` loop is the serial
//!   outer loop; the barrier after each compute grid enforces in-order
//!   resume), and each panel resumes from the partial sum of the previous
//!   one, so the chain of fused multiply-adds for a given element is
//!   identical to an unblocked in-order loop — the packed kernel is
//!   **bitwise identical to the naive reference** ([`naive_gemm`], which
//!   uses the same `mul_add` chain; no reassociation anywhere);
//! * grid cells are fixed-size ([`MC`]`x`[`NC`]) and each is computed
//!   entirely by one task, so the split — and therefore every intermediate
//!   rounding — is independent of `TENSOR_THREADS`. Packed panels hold the
//!   same bytes no matter which slot packs them. Results are bitwise
//!   identical for any thread count, preserving the repo's determinism
//!   contract.
//!
//! There is deliberately **no zero-skip branch** (the old kernel's
//! `if av == 0.0 { continue }`): it blocked vectorization of the inner
//! loop and silently dropped `0.0 * NaN` / `0.0 * inf` contributions, so
//! NaNs now propagate exactly as IEEE 754 (and the naive reference) say
//! they must.
//!
//! # Allocation
//!
//! Packing buffers come from [`crate::workspace::take_uninit`] — **one**
//! buffer per call holding the `ceil(m/MC)` A slots followed by the
//! `ceil(n/NC)` B slots (and, for [`gemm_scatter`], the row-block tile),
//! recycled on return. Slots are sized from the product, not from the
//! blocking constants: `min(MC, m)` rows by `min(KC, k)` steps for A,
//! `min(NC, n)` columns for B — a conv sample with 16 columns asks for a
//! 16 KB panel, not the 256 KB a full `NC` panel takes. One take per call
//! means one shelf round trip, and a GEMM running inside a batch-parallel
//! region asks the shelf for a single activation-sized buffer rather than
//! for a small A panel whose number in flight depends on how the pool
//! threads happen to overlap.
//! After warmup every take is a pool hit
//! (no memset, no malloc), so steady-state GEMM calls still perform zero
//! heap allocation — now measurable through the `ws_misses` counter
//! instead of hidden in thread-local statics. Output buffers are the
//! caller's business — the tensor-level wrappers draw them from
//! [`crate::workspace`].

use crate::parallel;
use crate::workspace;

mod skinny;

/// Rows per parallel row block (the packed A panel is `MC x KC`).
pub const MC: usize = 32;
/// Shared-dimension panel length.
pub const KC: usize = 256;
/// Column panel width (the packed B panel is `KC x NC`).
pub const NC: usize = 256;
/// Register-tile width: columns per packed B sliver (two 8-wide vector
/// registers per row on AVX2).
pub const NR: usize = 16;
/// Register-tile height: rows per micro-kernel invocation, chosen so the
/// tile holds 8 vector accumulators — eight independent fused-multiply-add
/// dependency chains, enough to cover the FMA latency on current cores:
/// 8x16 on AVX-512 (one zmm per row), 4x16 elsewhere (two ymm per row).
/// The tile shape never affects results — every output element's
/// accumulation chain is fixed by the `k` order alone.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub const MR: usize = 8;
/// Register-tile height (non-AVX-512 builds): see above.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
pub const MR: usize = 4;

/// NN products with at most this many rows skip the packed kernel: the
/// no-pack kernel holds up to 12 rows of a column strip in registers (12 x
/// 2 zmm of 32, 12 x 1 ymm of 16) and streams `b` in place, and runs up to
/// three such tiles over each 32-row panel of `b` while it is in cache. 36
/// rows cover three stacked b = 10 batches; the crossover sweep in
/// EXPERIMENTS.md has it ahead of the packed kernel at every `m` up to
/// there.
pub const SKINNY_M: usize = 36;
/// NT products with at most this many rows skip the packed kernel: the
/// no-pack kernel runs one vector lane per row, two lane blocks over each
/// 16-row strip of `b`, so the bound is twice the lane count.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub const SKINNY_NT_M: usize = 32;
/// NT row bound (non-AVX-512 builds): see above.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
pub const SKINNY_NT_M: usize = 16;
/// TN products with at most this many shared-dimension steps (the rank-b
/// update `dW += xᵀ·dy`, b rows or a few stacked batches of them) skip the
/// packed kernel; the no-pack kernel leads up to here in the sweep. It is
/// serial, like every no-pack kernel: at the paper's layer sizes a shape
/// above `k = 20` would cross [`parallel::PAR_THRESHOLD`] on the packed
/// driver.
pub const SKINNY_K: usize = 32;

/// Storage layout of a GEMM's operands. The logical product is always
/// `A (m,k) x B (k,n) -> out (m,n)`; the tag says how the operand slices
/// are laid out in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `a` is row-major `(m,k)`, `b` is row-major `(k,n)`.
    NN,
    /// `a` is row-major `(m,k)`, `b` is row-major `(n,k)` (i.e. `B = b^T`).
    NT,
    /// `a` is row-major `(k,m)` (i.e. `A = a^T`), `b` is row-major `(k,n)`.
    TN,
}

/// The left operand of the packed drivers: a dense slice plus its storage
/// order, or panels packed earlier. The logical A is always `(m, k)`.
#[derive(Clone, Copy)]
pub(crate) enum Lhs<'a> {
    /// Stored row-major `(m, k)`.
    RowMajor(&'a [f32]),
    /// Stored row-major `(k, m)` — the logical A is the transpose. This is
    /// how `w^T · x` products run without materializing the transpose: the
    /// packer reads the `(k, m)` slice directly.
    ColMajor(&'a [f32]),
    /// Every panel already packed by [`PackedLhs::new`]: the drivers skip
    /// their A pack and read the panels in place.
    Packed(&'a PackedLhs),
}

/// Length of one packed A panel slot for an `(m, k)` operand: the rows of
/// the tallest row block, rounded up to whole [`MR`] tiles, times the
/// longest `k` panel.
fn a_slot_len(m: usize, k: usize) -> usize {
    MC.min(m).div_ceil(MR) * MR * KC.min(k)
}

/// Length of one packed B panel slot for a `(k, n)` operand, sized from the
/// widest column panel the product actually has (`n` is 16–64 for conv's
/// per-sample products, far below [`NC`]).
fn b_slot_len(k: usize, n: usize) -> usize {
    NC.min(n).div_ceil(NR) * NR * KC.min(k)
}

/// A left operand packed once — every (`k` panel, row block) pair in the
/// layout [`pack_a`] writes — to be multiplied many times through
/// [`Lhs::Packed`]: a conv layer's weights against each sample of the
/// batch. One workspace buffer, recycled on drop.
pub(crate) struct PackedLhs {
    buf: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedLhs {
    /// Packs the `(m, k)` operand `lhs` (any variant but `Packed`).
    pub(crate) fn new(lhs: Lhs<'_>, m: usize, k: usize) -> Self {
        let nib = m.div_ceil(MC);
        let slot = a_slot_len(m, k);
        let mut buf = workspace::take_uninit(k.div_ceil(KC) * nib * slot);
        for (t, panel) in buf.chunks_exact_mut(slot.max(1)).enumerate() {
            let (kb, i0) = (t / nib * KC, t % nib * MC);
            let (kc, rows) = (KC.min(k - kb), MC.min(m - i0));
            pack_a(
                lhs,
                &mut panel[..rows.div_ceil(MR) * MR * kc],
                i0,
                rows,
                kb,
                kc,
                k,
                m,
            );
        }
        PackedLhs { buf, m, k }
    }

    /// The packed panel of `k` panel `kp`, row block `ib`.
    fn panel(&self, kp: usize, ib: usize) -> &[f32] {
        let slot = a_slot_len(self.m, self.k);
        let kc = KC.min(self.k - kp * KC);
        let rows = MC.min(self.m - ib * MC);
        &self.buf[(kp * self.m.div_ceil(MC) + ib) * slot..][..rows.div_ceil(MR) * MR * kc]
    }
}

impl Drop for PackedLhs {
    fn drop(&mut self) {
        workspace::recycle(std::mem::take(&mut self.buf));
    }
}

impl<'a> Lhs<'a> {
    /// The pre-packed panels, if that is what this operand is. Checks that
    /// they were packed for this product's `(m, k)`.
    fn packed(self, m: usize, k: usize) -> Option<&'a PackedLhs> {
        match self {
            Lhs::Packed(p) => {
                assert_eq!((p.m, p.k), (m, k), "PackedLhs packed for another shape");
                Some(p)
            }
            _ => None,
        }
    }
}

/// A right-hand operand that can pack any `kc x nc` panel of the logical
/// `(k, n)` B matrix into the sliver format [`macro_kernel`] consumes
/// (see [`SliceRhs::pack_panel`] for the exact layout).
///
/// Implementations must be pure functions of `(kb, kc, jb, nc)` — the same
/// panel must pack to the same bytes no matter which thread or call packs
/// it, which is what keeps the shared-panel schedule bitwise deterministic.
/// `conv.rs` implements this trait for on-the-fly im2col patch extraction
/// (implicit GEMM).
pub(crate) trait PackRhs: Sync {
    /// Packs the `kc x nc` panel at `(kb, jb)` into `bp`, which holds
    /// exactly `nc.div_ceil(NR) * NR * kc` elements with **arbitrary**
    /// prior contents: every element, including the zero pad past `nc`,
    /// must be written.
    fn pack_panel(&self, bp: &mut [f32], kb: usize, kc: usize, jb: usize, nc: usize);
}

/// Dense-slice [`PackRhs`]: the B operand of the `matmul` family.
pub(crate) struct SliceRhs<'a> {
    b: &'a [f32],
    /// `false`: `b` is row-major `(k, n)`; `true`: `b` is row-major
    /// `(n, k)` and the logical B is its transpose.
    transposed: bool,
    k: usize,
    n: usize,
}

impl<'a> SliceRhs<'a> {
    pub(crate) fn new(b: &'a [f32], transposed: bool, k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "SliceRhs: b length mismatch");
        SliceRhs {
            b,
            transposed,
            k,
            n,
        }
    }
}

impl PackRhs for SliceRhs<'_> {
    /// Packs as NR-wide column slivers, `p`-major:
    /// `bp[(s*kc + p)*NR + jj] = B[kb + p][jb + s*NR + jj]`, zero-padded
    /// past `n`. The padding columns contribute only to discarded
    /// accumulator lanes.
    fn pack_panel(&self, bp: &mut [f32], kb: usize, kc: usize, jb: usize, nc: usize) {
        let n = self.n;
        let b = self.b;
        let nslivers = nc.div_ceil(NR);
        if !self.transposed {
            // B stored row-major (k,n): read rows at stride 1, sliver by
            // sliver.
            for s in 0..nslivers {
                let j0 = jb + s * NR;
                let jw = NR.min(n - j0);
                let sliver = &mut bp[s * kc * NR..(s + 1) * kc * NR];
                for p in 0..kc {
                    let src = &b[(kb + p) * n + j0..(kb + p) * n + j0 + jw];
                    let dst = &mut sliver[p * NR..p * NR + NR];
                    dst[..jw].copy_from_slice(src);
                    dst[jw..].fill(0.0);
                }
            }
        } else {
            // B = b^T with b stored (n,k): each output column is a row of
            // `b`, contiguous in p.
            let k = self.k;
            for s in 0..nslivers {
                let j0 = jb + s * NR;
                let jw = NR.min(n - j0);
                let sliver = &mut bp[s * kc * NR..(s + 1) * kc * NR];
                for jj in 0..NR {
                    if jj < jw {
                        let src = &b[(j0 + jj) * k + kb..(j0 + jj) * k + kb + kc];
                        for (p, &v) in src.iter().enumerate() {
                            sliver[p * NR + jj] = v;
                        }
                    } else {
                        for p in 0..kc {
                            sliver[p * NR + jj] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// `out = A x B` (overwrite). See [`Layout`] for operand shapes.
///
/// Fully overwrites `out`, including when `k == 0` (zeros).
///
/// # Panics
/// Panics if a slice length disagrees with `(m, k, n)` and the layout.
pub fn gemm_into(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm(layout, a, b, out, m, k, n, false);
}

/// `out += A x B` (accumulate into the caller's buffer). The existing
/// contents of `out` seed the in-order accumulation chain, which is the
/// gradient-accumulation pattern (`grad_weight += x^T · dy`) without a
/// temporary.
pub fn gemm_acc_into(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm(layout, a, b, out, m, k, n, true);
}

/// The dense-slice entry: checks the operand lengths, then picks the
/// kernel from `(layout, m, k)` alone — NN with `m <= SKINNY_M`, NT with
/// `m <= SKINNY_NT_M` and TN with `k <= SKINNY_K` run the no-pack kernels,
/// everything else (and every empty product) the packed driver.
#[allow(clippy::too_many_arguments)]
fn gemm(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    let a_len = match layout {
        Layout::NN | Layout::NT => m * k,
        Layout::TN => k * m,
    };
    let b_len = match layout {
        Layout::NN | Layout::TN => k * n,
        Layout::NT => n * k,
    };
    assert_eq!(a.len(), a_len, "gemm {layout:?}: a length mismatch");
    assert_eq!(b.len(), b_len, "gemm {layout:?}: b length mismatch");
    assert_eq!(out.len(), m * n, "gemm {layout:?}: out length mismatch");
    if m > 0 && k > 0 && n > 0 {
        let no_pack: Option<skinny::Kernel> = match layout {
            Layout::NN if m <= SKINNY_M => Some(skinny::gemm_nn),
            Layout::NT if m <= SKINNY_NT_M => Some(skinny::gemm_nt),
            Layout::TN if k <= SKINNY_K => Some(skinny::gemm_tn),
            _ => None,
        };
        if let Some(kernel) = no_pack {
            // Serial by design: counted like a `parallel_*` call that ran
            // inline, so `seq_jobs` keeps meaning "kernels off the pool".
            crate::pool::note_sequential();
            return kernel(a, b, out, m, k, n, acc);
        }
    }
    let lhs = match layout {
        Layout::NN | Layout::NT => Lhs::RowMajor(a),
        Layout::TN => Lhs::ColMajor(a),
    };
    let rhs = SliceRhs::new(b, matches!(layout, Layout::NT), k, n);
    gemm_with(lhs, &rhs, out, m, k, n, acc);
}

/// The shared-panel GEMM driver: `out (+)= A x B` with the B operand
/// supplied by any [`PackRhs`].
///
/// Schedule (per `k` panel, `kb` ascending — the serial outer loop):
/// 1. a parallel **pack phase** writes every A row panel and every B
///    column panel exactly once into its fixed slot of the shared,
///    workspace-backed buffers (task `t < nib` packs A panel `t`, task
///    `nib + j` packs B panel `j`);
/// 2. a parallel **compute grid** over (row block × column panel) cells
///    consumes the shared panels; each cell updates a disjoint
///    `MC x NC` region of `out` and accumulates `k` in ascending order.
///
/// Both phases share one serial/parallel decision (gate ≈ `m*k*n` against
/// [`parallel::PAR_THRESHOLD`]), and neither the slot assignment nor the
/// thread count affects any output element's operation chain — output is
/// bitwise identical to [`naive_gemm`] for every `TENSOR_THREADS`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_with<R: PackRhs>(
    lhs: Lhs<'_>,
    rhs: &R,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            out.fill(0.0);
        }
        return;
    }

    let nib = m.div_ceil(MC);
    let njb = n.div_ceil(NC);
    // A panels come from the caller when it packed them ahead, else from
    // this call's pack phase: `nib_pack` is how many this call packs.
    let packed = lhs.packed(m, k);
    let nib_pack = if packed.is_some() { 0 } else { nib };
    let a_slot = a_slot_len(m, k);
    let b_slot = b_slot_len(k, n);
    let mut panels = workspace::take_uninit(nib_pack * a_slot + njb * b_slot);
    let (ap, bp) = panels.split_at_mut(nib_pack * a_slot);
    let ap_addr = ap.as_mut_ptr() as usize;
    let bp_addr = bp.as_mut_ptr() as usize;
    let out_addr = out.as_mut_ptr() as usize;

    // One consistent serial/parallel gate for both phases: total work is
    // ~m*k*n fused multiply-adds, so the per-task hints below make each
    // phase's `tasks * hint` product land on that same total. The old
    // per-row-block hint (`MC.min(m) * k * n`) overstated per-block work
    // by `n/NC` for multi-panel shapes.
    let total = m.saturating_mul(k).saturating_mul(n);
    let pack_hint = (total / (nib_pack + njb)).max(1);
    let cell_hint = (total / (nib * njb)).max(1);

    for kp in 0..k.div_ceil(KC) {
        let kb = kp * KC;
        let kc = KC.min(k - kb);
        let first = kp == 0 && !acc;
        parallel::parallel_for(nib_pack + njb, pack_hint, |t| {
            if t < nib_pack {
                let i0 = t * MC;
                let rows = MC.min(m - i0);
                // SAFETY: slot `t` is written by task `t` alone (each index
                // runs exactly once), and `ap` outlives the blocking call.
                let slot = unsafe {
                    std::slice::from_raw_parts_mut(
                        (ap_addr as *mut f32).add(t * a_slot),
                        rows.div_ceil(MR) * MR * kc,
                    )
                };
                pack_a(lhs, slot, i0, rows, kb, kc, k, m);
            } else {
                let jp = t - nib_pack;
                let j0 = jp * NC;
                let nc = NC.min(n - j0);
                // SAFETY: as above for B slot `jp`.
                let slot = unsafe {
                    std::slice::from_raw_parts_mut(
                        (bp_addr as *mut f32).add(jp * b_slot),
                        nc.div_ceil(NR) * NR * kc,
                    )
                };
                rhs.pack_panel(slot, kb, kc, j0, nc);
            }
        });
        parallel::parallel_for_grid(nib, njb, cell_hint, |ib, jp| {
            let i0 = ib * MC;
            let rows = MC.min(m - i0);
            let j0 = jp * NC;
            let nc = NC.min(n - j0);
            let apanel = match packed {
                Some(p) => p.panel(kp, ib),
                // SAFETY: the pack phase above is a barrier, so the panels
                // are fully written; they are only read from here on.
                None => unsafe {
                    std::slice::from_raw_parts(
                        (ap_addr as *const f32).add(ib * a_slot),
                        rows.div_ceil(MR) * MR * kc,
                    )
                },
            };
            // SAFETY: as for the A panel.
            let bpanel = unsafe {
                std::slice::from_raw_parts(
                    (bp_addr as *const f32).add(jp * b_slot),
                    nc.div_ceil(NR) * NR * kc,
                )
            };
            // SAFETY: grid cells update disjoint (row, column-range)
            // segments of `out`, and `out` outlives the blocking call.
            macro_kernel(
                apanel,
                bpanel,
                out_addr as *mut f32,
                i0,
                rows,
                kc,
                j0,
                nc,
                n,
                first,
            );
        });
    }
    workspace::recycle(panels);
}

/// Fused-epilogue GEMM: computes `A x B` row block by row block and hands
/// each finished `rows x n` tile to `scatter(tile, i0, rows)` **in
/// ascending row order** instead of storing a full `(m, n)` product. This
/// is the implicit col2im driver: `conv_transpose2d` and conv's
/// grad-input path scatter each tile straight into the output image, so
/// the full column matrix never exists in memory.
///
/// Every B panel is packed exactly once up front (all `k` panels); each
/// row block then packs its A panels and accumulates `k` in ascending
/// order into a shared tile, parallelizing over column panels (disjoint
/// tile columns). The scatter itself runs serially in ascending row-block
/// order, so a scatter that accumulates (`+=`) element-wise in ascending
/// `(row, column)` order is bitwise identical to materializing the whole
/// product and scattering it afterwards.
///
/// `k == 0` (an all-zero product) skips the scatter entirely: both conv
/// callers scatter into freshly zeroed images, where `+= 0.0` is a no-op.
pub(crate) fn gemm_scatter<R: PackRhs>(
    lhs: Lhs<'_>,
    rhs: &R,
    m: usize,
    k: usize,
    n: usize,
    mut scatter: impl FnMut(&[f32], usize, usize),
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let nib = m.div_ceil(MC);
    let njb = n.div_ceil(NC);
    let nkb = k.div_ceil(KC);
    // As in `gemm_with`: a pre-packed A needs no panel slots here.
    let packed = lhs.packed(m, k);
    let nkb_pack = if packed.is_some() { 0 } else { nkb };
    let a_slot = a_slot_len(m, k);
    let b_slot = b_slot_len(k, n);

    let mut scratch =
        workspace::take_uninit(nkb * njb * b_slot + nkb_pack * a_slot + MC.min(m) * n);
    let (bp, rest) = scratch.split_at_mut(nkb * njb * b_slot);
    let (ap, tile) = rest.split_at_mut(nkb_pack * a_slot);
    let bp_addr = bp.as_mut_ptr() as usize;
    let total = m.saturating_mul(k).saturating_mul(n);
    let pack_hint = (total / (nkb * njb)).max(1);
    parallel::parallel_for_grid(nkb, njb, pack_hint, |kp, jp| {
        let kb = kp * KC;
        let kc = KC.min(k - kb);
        let j0 = jp * NC;
        let nc = NC.min(n - j0);
        // SAFETY: slot `(kp, jp)` is written by its own task alone, and
        // `bp` outlives the blocking call.
        let slot = unsafe {
            std::slice::from_raw_parts_mut(
                (bp_addr as *mut f32).add((kp * njb + jp) * b_slot),
                nc.div_ceil(NR) * NR * kc,
            )
        };
        rhs.pack_panel(slot, kb, kc, j0, nc);
    });

    let ap_addr = ap.as_mut_ptr() as usize;
    let tile_addr = tile.as_mut_ptr() as usize;
    // Per column panel of one row block: rows * k * nc fused multiply-adds.
    let jb_hint = MC.min(m).saturating_mul(k).saturating_mul(NC.min(n)).max(1);
    for ib in 0..nib {
        let i0 = ib * MC;
        let rows = MC.min(m - i0);
        for kp in 0..nkb_pack {
            let kb = kp * KC;
            let kc = KC.min(k - kb);
            let slot = &mut ap[kp * a_slot..kp * a_slot + rows.div_ceil(MR) * MR * kc];
            pack_a(lhs, slot, i0, rows, kb, kc, k, m);
        }
        parallel::parallel_for(njb, jb_hint, |jp| {
            let j0 = jp * NC;
            let nc = NC.min(n - j0);
            for kp in 0..nkb {
                let kc = KC.min(k - kp * KC);
                let apanel = match packed {
                    Some(p) => p.panel(kp, ib),
                    // SAFETY: the panels of this row block were fully
                    // written just above and are only read from here on.
                    None => unsafe {
                        std::slice::from_raw_parts(
                            (ap_addr as *const f32).add(kp * a_slot),
                            rows.div_ceil(MR) * MR * kc,
                        )
                    },
                };
                // SAFETY: the B panels were fully written by the pack grid
                // (a barrier); tasks write disjoint column ranges of the
                // shared tile, which outlives the blocking call.
                let bpanel = unsafe {
                    std::slice::from_raw_parts(
                        (bp_addr as *const f32).add((kp * njb + jp) * b_slot),
                        nc.div_ceil(NR) * NR * kc,
                    )
                };
                macro_kernel(
                    apanel,
                    bpanel,
                    tile_addr as *mut f32,
                    0,
                    rows,
                    kc,
                    j0,
                    nc,
                    n,
                    kp == 0,
                );
            }
        });
        scatter(&tile[..rows * n], i0, rows);
    }
    workspace::recycle(scratch);
}

/// Packs the `rows x kc` A panel [`MR`] rows at a time, interleaved so the
/// micro-kernel reads one tile *column* per `k` step:
/// `ap[rp*kc*MR + p*MR + r] = A[i0 + rp*MR + r][kb + p]`, zero-padded past
/// `rows`. The pad rows feed accumulator lanes that are never stored.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    lhs: Lhs<'_>,
    ap: &mut [f32],
    i0: usize,
    rows: usize,
    kb: usize,
    kc: usize,
    k: usize,
    m: usize,
) {
    let npanels = rows.div_ceil(MR);
    for rp in 0..npanels {
        let rvalid = MR.min(rows - rp * MR);
        let panel = &mut ap[rp * kc * MR..(rp + 1) * kc * MR];
        if rvalid < MR {
            panel.fill(0.0);
        }
        match lhs {
            // A stored row-major (m,k): scatter each row across the
            // interleaved columns.
            Lhs::RowMajor(a) => {
                for r in 0..rvalid {
                    let src = &a[(i0 + rp * MR + r) * k + kb..][..kc];
                    for (d, &v) in panel[r..].iter_mut().step_by(MR).zip(src) {
                        *d = v;
                    }
                }
            }
            // A = a^T with a stored (k,m): each tile column is a contiguous
            // run of `a`, one straight copy per `k` step.
            Lhs::ColMajor(a) => {
                for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
                    let src = &a[(kb + p) * m + i0 + rp * MR..][..rvalid];
                    dst[..rvalid].copy_from_slice(src);
                }
            }
            Lhs::Packed(_) => unreachable!("a packed operand is never packed again"),
        }
    }
}

/// Runs the register-tiled micro-kernels over one packed (A panel, B panel)
/// pair, updating rows `i0..i0+rows`, columns `jb..jb+nc` of the row-major
/// `(_, n)` matrix at `out`.
///
/// `out` is a raw base pointer because concurrent grid cells of the same
/// row block write disjoint *column ranges* of the same rows — overlapping
/// `&mut` slices would be UB even with disjoint writes, so each micro tile
/// materializes exactly the `(row, j0..j0+jw)` segments it owns.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    ap: &[f32],
    bp: &[f32],
    out: *mut f32,
    i0: usize,
    rows: usize,
    kc: usize,
    jb: usize,
    nc: usize,
    n: usize,
    first: bool,
) {
    let nslivers = nc.div_ceil(NR);
    let npanels = rows.div_ceil(MR);
    for s in 0..nslivers {
        let sliver = &bp[s * kc * NR..(s + 1) * kc * NR];
        let j0 = jb + s * NR;
        let jw = NR.min(jb + nc - j0);
        for rp in 0..npanels {
            let rvalid = MR.min(rows - rp * MR);
            // SAFETY: rows `i0..i0+rows`, columns `j0..j0+jw` are inside
            // the output matrix and owned exclusively by this grid cell
            // (see the callers' scheduling contracts).
            unsafe {
                micro_mr(
                    &ap[rp * kc * MR..(rp + 1) * kc * MR],
                    sliver,
                    out,
                    i0 + rp * MR,
                    rvalid,
                    j0,
                    jw,
                    n,
                    first,
                );
            }
        }
    }
}

/// Register tile: `out[r0..r0+rvalid][j0..j0+jw] (+)= A-panel · B-sliver`.
///
/// `apanel` is [`MR`]-interleaved (`apanel[p*MR + r]`, see [`pack_a`]) and
/// zero-padded past `rvalid`; `sliver` is zero-padded past `jw`. Pad rows
/// and pad lanes accumulate but are never loaded from or stored to `out`.
///
/// # Safety
/// The caller must guarantee that rows `r0..r0+rvalid` crossed with
/// columns `j0..j0+jw` of the row-major matrix at `out` (row stride `n`)
/// are in bounds and not accessed by any other thread for the duration of
/// the call.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn micro_mr(
    apanel: &[f32],
    sliver: &[f32],
    out: *mut f32,
    r0: usize,
    rvalid: usize,
    j0: usize,
    jw: usize,
    n: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, accr) in acc.iter_mut().enumerate().take(rvalid) {
            // SAFETY: per the function contract, this row segment is in
            // bounds and exclusively ours.
            let orow = unsafe { std::slice::from_raw_parts(out.add((r0 + r) * n + j0), jw) };
            accr[..jw].copy_from_slice(orow);
        }
    }
    inner_k_loop(apanel, sliver, &mut acc);
    for (r, accr) in acc.iter().enumerate().take(rvalid) {
        // SAFETY: as above.
        let orow = unsafe { std::slice::from_raw_parts_mut(out.add((r0 + r) * n + j0), jw) };
        orow.copy_from_slice(&accr[..jw]);
    }
}

/// The `k` loop of the micro-kernel: `acc[r][jj] <- fma(apanel[p*MR+r],
/// sliver[p*NR+jj], acc[r][jj])` for `p` ascending. Portable scalar
/// version; the x86-64 FMA build replaces it with an intrinsics twin that
/// performs the *identical* chain of fused operations (`_mm256_fmadd_ps`
/// is `f32::mul_add` per lane), so results are bitwise equal across both.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
)))]
#[inline(always)]
fn inner_k_loop(apanel: &[f32], sliver: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (avals, bv) in apanel.chunks_exact(MR).zip(sliver.chunks_exact(NR)) {
        for r in 0..MR {
            let ar = avals[r];
            let accr = &mut acc[r];
            for jj in 0..NR {
                accr[jj] = ar.mul_add(bv[jj], accr[jj]);
            }
        }
    }
}

/// AVX2+FMA twin of the scalar `k` loop: 8 ymm accumulators (two per row),
/// one broadcast + two fused multiply-adds per packed A element. Enabled
/// at compile time (the workspace builds with `target-cpu=native`).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
#[inline(always)]
fn inner_k_loop(apanel: &[f32], sliver: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let kc = apanel.len() / MR;
    debug_assert_eq!(sliver.len(), kc * NR);
    // SAFETY: all pointer arithmetic stays inside `apanel` (kc*MR elements),
    // `sliver` (kc*NR elements) and `acc` (MR*NR elements); AVX2/FMA are
    // compile-time-required by the cfg gate above.
    unsafe {
        let mut vacc = [[_mm256_setzero_ps(); 2]; MR];
        for (r, accr) in acc.iter().enumerate() {
            vacc[r][0] = _mm256_loadu_ps(accr.as_ptr());
            vacc[r][1] = _mm256_loadu_ps(accr.as_ptr().add(8));
        }
        let mut ap = apanel.as_ptr();
        let mut bp = sliver.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (r, vr) in vacc.iter_mut().enumerate() {
                let ar = _mm256_broadcast_ss(&*ap.add(r));
                vr[0] = _mm256_fmadd_ps(ar, b0, vr[0]);
                vr[1] = _mm256_fmadd_ps(ar, b1, vr[1]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for (r, accr) in acc.iter_mut().enumerate() {
            _mm256_storeu_ps(accr.as_mut_ptr(), vacc[r][0]);
            _mm256_storeu_ps(accr.as_mut_ptr().add(8), vacc[r][1]);
        }
    }
}

/// AVX-512 twin of the scalar `k` loop: 8 zmm accumulators (one [`NR`] = 16
/// wide register per row), one broadcast + one fused multiply-add per
/// packed A element — same fused operation chain, so bitwise-equal output.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn inner_k_loop(apanel: &[f32], sliver: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    let kc = apanel.len() / MR;
    debug_assert_eq!(sliver.len(), kc * NR);
    // SAFETY: all pointer arithmetic stays inside `apanel` (kc*MR elements),
    // `sliver` (kc*NR elements) and `acc` (MR*NR elements); AVX-512 is
    // compile-time-required by the cfg gate above.
    unsafe {
        let mut vacc = [_mm512_setzero_ps(); MR];
        for (r, accr) in acc.iter().enumerate() {
            vacc[r] = _mm512_loadu_ps(accr.as_ptr());
        }
        let mut ap = apanel.as_ptr();
        let mut bp = sliver.as_ptr();
        for _ in 0..kc {
            let b0 = _mm512_loadu_ps(bp);
            for (r, vr) in vacc.iter_mut().enumerate() {
                let ar = _mm512_set1_ps(*ap.add(r));
                *vr = _mm512_fmadd_ps(ar, b0, *vr);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for (r, accr) in acc.iter_mut().enumerate() {
            _mm512_storeu_ps(accr.as_mut_ptr(), vacc[r]);
        }
    }
}

/// The unblocked in-order reference implementation the packed kernel must
/// match **bitwise**. Used by the property tests and the bench baseline;
/// do not "optimize" it — its accumulation chain (`mul_add` over `k` in
/// ascending order) *is* the spec.
pub fn naive_gemm(layout: Layout, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
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
            out[i * n + j] = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn randv(len: usize, rng: &mut Rng64) -> Vec<f32> {
        (0..len).map(|_| rng.normal()).collect()
    }

    fn check_bitwise(layout: Layout, m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = Rng64::seed_from_u64(seed);
        let (a_len, b_len) = match layout {
            Layout::NN => (m * k, k * n),
            Layout::NT => (m * k, n * k),
            Layout::TN => (k * m, k * n),
        };
        let a = randv(a_len, &mut rng);
        let b = randv(b_len, &mut rng);
        let mut out = vec![f32::NAN; m * n]; // must be fully overwritten
        gemm_into(layout, &a, &b, &mut out, m, k, n);
        let want = naive_gemm(layout, &a, &b, m, k, n);
        for (i, (x, y)) in out.iter().zip(&want).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{layout:?} ({m},{k},{n}) element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn bitwise_matches_naive_across_edges() {
        // Hits every edge: tile-exact, sub-tile, row/col remainders,
        // multi-KC, multi-NC, multi-MC, and wide (multi-NC with a single
        // row block — the new NC-parallel dimension).
        for (i, &(m, k, n)) in [
            (1, 1, 1),
            (4, 8, 8),
            (5, 7, 9),
            (3, 300, 11),
            (33, 17, 40),
            (64, 64, 64),
            (37, 257, 261),
            (8, 64, 600),
            (70, 300, 300),
        ]
        .iter()
        .enumerate()
        {
            for layout in [Layout::NN, Layout::NT, Layout::TN] {
                check_bitwise(layout, m, k, n, 100 + i as u64);
            }
        }
    }

    #[test]
    fn acc_seeds_from_existing_output() {
        let mut rng = Rng64::seed_from_u64(9);
        let (m, k, n) = (5, 13, 7);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let seed_out = randv(m * n, &mut rng);
        let mut out = seed_out.clone();
        gemm_acc_into(Layout::NN, &a, &b, &mut out, m, k, n);
        // Reference: in-order accumulation starting from the seed value.
        for i in 0..m {
            for j in 0..n {
                let mut s = seed_out[i * n + j];
                for p in 0..k {
                    s = a[i * k + p].mul_add(b[p * n + j], s);
                }
                assert_eq!(s.to_bits(), out[i * n + j].to_bits());
            }
        }
    }

    #[test]
    fn skinny_kernels_match_the_packed_driver() {
        // The two paths are pinned to each other, not only to the
        // reference: the same operands through `gemm()` and through
        // `gemm_with` + `SliceRhs` (packed), with the selecting dimension
        // on both sides of every register-tile edge inside the no-pack
        // domain (12/24/36 rows NN, one or two lane blocks NT) and of the
        // bounds themselves, at the paper's layer widths (784, 512,
        // 110 = noise + one-hot, 11 logits) and one past them.
        const WIDTHS: [(usize, usize); 4] = [(784, 513), (512, 785), (110, 512), (512, 11)];
        let cases: [(Layout, &[usize]); 3] = [
            (Layout::NN, &[12, 13, 24, 25, 30, 36, 37]),
            (Layout::NT, &[16, 17, 30, 32, 33]),
            (Layout::TN, &[16, 17, 30, 32, 33]),
        ];
        let mut rng = Rng64::seed_from_u64(16);
        for (layout, selecting) in cases {
            for &sel in selecting {
                for (e1, e2) in WIDTHS {
                    let (m, k, n) = match layout {
                        Layout::NN | Layout::NT => (sel, e1, e2),
                        Layout::TN => (e1, sel, e2),
                    };
                    let a = randv(m * k, &mut rng);
                    let b = randv(k * n, &mut rng);
                    let seed_out = randv(m * n, &mut rng);
                    let lhs = match layout {
                        Layout::TN => Lhs::ColMajor(&a),
                        _ => Lhs::RowMajor(&a),
                    };
                    let rhs = SliceRhs::new(&b, layout == Layout::NT, k, n);
                    for acc in [false, true] {
                        let what = format!("{layout:?} ({m},{k},{n}) acc={acc}");
                        let mut got = seed_out.clone();
                        gemm(layout, &a, &b, &mut got, m, k, n, acc);
                        let mut packed = seed_out.clone();
                        gemm_with(lhs, &rhs, &mut packed, m, k, n, acc);
                        assert_bits_eq(&got, &packed, &what);
                        if !acc {
                            assert_bits_eq(&got, &naive_gemm(layout, &a, &b, m, k, n), &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_k_overwrites_or_preserves() {
        let mut out = vec![3.0f32; 6];
        gemm_into(Layout::NN, &[], &[], &mut out, 2, 0, 3);
        assert!(out.iter().all(|&v| v == 0.0));
        let mut out = vec![3.0f32; 6];
        gemm_acc_into(Layout::NN, &[], &[], &mut out, 2, 0, 3);
        assert!(out.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn zero_m_or_n_is_a_noop() {
        let mut out: Vec<f32> = Vec::new();
        gemm_into(Layout::NN, &[], &[1.0, 2.0, 3.0, 4.0], &mut out, 0, 2, 2);
        gemm_into(Layout::NN, &[1.0, 2.0, 3.0, 4.0], &[], &mut out, 2, 2, 0);
        gemm_into(Layout::NT, &[], &[], &mut out, 0, 0, 0);
    }

    #[test]
    fn scatter_matches_materialized_product() {
        // gemm_scatter must hand out the exact rows of A x B, in ascending
        // row-block order, each exactly once.
        let mut rng = Rng64::seed_from_u64(77);
        let (m, k, n) = (70, 300, 300); // multi-MC, multi-KC, multi-NC
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let want = naive_gemm(Layout::NN, &a, &b, m, k, n);
        let mut got = vec![f32::NAN; m * n];
        let mut next_row = 0usize;
        gemm_scatter(
            Lhs::RowMajor(&a),
            &SliceRhs::new(&b, false, k, n),
            m,
            k,
            n,
            |tile, i0, rows| {
                assert_eq!(i0, next_row, "row blocks must arrive in order");
                assert_eq!(tile.len(), rows * n);
                got[i0 * n..(i0 + rows) * n].copy_from_slice(tile);
                next_row = i0 + rows;
            },
        );
        assert_eq!(next_row, m);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn scatter_zero_k_skips_callback() {
        gemm_scatter(
            Lhs::RowMajor(&[]),
            &SliceRhs::new(&[], false, 0, 3),
            2,
            0,
            3,
            |_, _, _| panic!("must not run"),
        );
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what} length");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} element {i}: {x} vs {y}");
        }
    }

    /// All `n` rows of `A x B` as `gemm_scatter` hands them out.
    fn scatter_rows(lhs: Lhs<'_>, rhs: &SliceRhs<'_>, m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut rows = Vec::with_capacity(m * n);
        gemm_scatter(lhs, rhs, m, k, n, |tile, i0, _| {
            assert_eq!(i0 * n, rows.len(), "row blocks must arrive in order");
            rows.extend_from_slice(tile);
        });
        rows
    }

    #[test]
    fn prepacked_lhs_matches_packing_per_call() {
        // The same operands through `Lhs::Packed` and through the drivers'
        // own pack phase: multi-MC, multi-KC, multi-NC, both storage
        // orders, overwrite and accumulate, and the scatter driver.
        let mut rng = Rng64::seed_from_u64(17);
        let (m, k, n) = (70, 300, 300);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let seed_out = randv(m * n, &mut rng);
        let rhs = SliceRhs::new(&b, false, k, n);
        for lhs in [Lhs::RowMajor(&a), Lhs::ColMajor(&a)] {
            let packed = PackedLhs::new(lhs, m, k);
            for acc in [false, true] {
                let mut want = seed_out.clone();
                gemm_with(lhs, &rhs, &mut want, m, k, n, acc);
                let mut got = seed_out.clone();
                gemm_with(Lhs::Packed(&packed), &rhs, &mut got, m, k, n, acc);
                assert_bits_eq(&got, &want, &format!("gemm_with acc={acc}"));
            }
            let want = scatter_rows(lhs, &rhs, m, k, n);
            let got = scatter_rows(Lhs::Packed(&packed), &rhs, m, k, n);
            assert_bits_eq(&got, &want, "gemm_scatter");
        }
    }

    #[test]
    #[should_panic(expected = "packed for another shape")]
    fn prepacked_lhs_rejects_another_shape() {
        let a = vec![1.0f32; 6 * 4];
        let packed = PackedLhs::new(Lhs::RowMajor(&a), 6, 4);
        let b = vec![1.0f32; 4 * 5];
        let mut out = vec![0.0f32; 4 * 5];
        let rhs = SliceRhs::new(&b, false, 4, 5);
        gemm_with(Lhs::Packed(&packed), &rhs, &mut out, 4, 4, 5, false);
    }

    #[test]
    fn colmajor_lhs_matches_materialized_transpose() {
        // Lhs::ColMajor packs a (k,m) slice as A = a^T — the no-copy path
        // conv uses for w^T · g products. Must equal the TN layout exactly.
        let mut rng = Rng64::seed_from_u64(42);
        let (m, k, n) = (37, 65, 33);
        let a_t = randv(k * m, &mut rng); // stored (k, m)
        let b = randv(k * n, &mut rng);
        let want = naive_gemm(Layout::TN, &a_t, &b, m, k, n);
        let mut got = vec![f32::NAN; m * n];
        gemm_with(
            Lhs::ColMajor(&a_t),
            &SliceRhs::new(&b, false, k, n),
            &mut got,
            m,
            k,
            n,
            false,
        );
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }
}
