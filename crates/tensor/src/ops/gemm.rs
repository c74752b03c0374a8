//! Cache-blocked GEMM: one packed, panel-parallel loop nest behind all
//! three 2-D products.
//!
//! [`gemm`] computes `C[m,n] += A[m,k] · B` where `B` is read either as
//! a row-major `[k,n]` matrix or as the transpose of a row-major
//! `[n,k]` one. The entry points are thin:
//!
//! * [`mm_nn`] (`A·B`, forward) reads B row-major;
//! * [`mm_nt`] (`A·Bᵀ`, the `dA = dC·Bᵀ` gradient) reads B transposed;
//! * [`mm_tn`] (`Aᵀ·B`, the `dB = Aᵀ·dC` gradient) copies A transposed
//!   and runs the `nn` form.
//!
//! The memory schedule: K is walked in [`KC`]-deep blocks, and the
//! block's B values are packed into [`NR`]-wide column panels (rows
//! `kk`-major, zero-padded past column n). Only the packing differs
//! between the two B layouts; a transposed B is gathered column by
//! column into the same panels. A packed panel (`KC × NR × 4 B` =
//! 8 KiB) stays L1-resident while an [`MR`]`×`[`NR`] register tile of
//! C accumulates across it ([`NR`] = one `__m256` per row on AVX2
//! hosts), and every output row of the chunk reuses the packed block.
//!
//! The contract: output rows are partitioned across the `tgl-runtime`
//! pool in *fixed* [`MC`]-row panels (boundaries a function of the
//! problem shape only), and in `exact` kernel mode **every output
//! element adds its products one at a time in ascending reduction
//! index, with a separate rounding for the multiply and the add**, so
//! all three products are bitwise equal to the naive k-ascending
//! triple loop on every host and at every thread count. The AVX2 tile
//! honors that with lane-wise `mul`+`add`; in `fast` mode it contracts
//! to FMA instead (see `DESIGN.md` "Kernel contract").

use tgl_device::Device;
use tgl_runtime::{parallel_for_chunks, UnsafeSlice};

use crate::kernel;
use crate::pool;

/// Rows of A per register tile.
pub(crate) const MR: usize = 4;
/// Columns of B per packed panel (one `__m256` of `f32`s; `MR × NR`
/// accumulators fit the 16-register AVX ymm file with room for the A
/// broadcast and B panel load).
pub(crate) const NR: usize = 8;
/// K-depth of a packed B block.
pub(crate) const KC: usize = 256;
/// Output rows per parallel panel.
pub(crate) const MC: usize = 64;

/// Multiply-add count below which a matmul runs inline on the caller;
/// pool dispatch costs more than the arithmetic.
const MM_SEQ_FLOPS: usize = 32 * 1024;

/// Output rows (of `row_flops` multiply-adds each) per sequential-path
/// threshold — feeds `parallel_for`'s element threshold.
pub(crate) fn seq_rows(row_flops: usize) -> usize {
    (MM_SEQ_FLOPS / row_flops.max(1)).max(1)
}

// ---------------------------------------------------------------------
// Register-tile kernels
// ---------------------------------------------------------------------

/// AVX2 `MR×NR` tile update: `acc[r] += sum_kk ar[r][kk] * pan[kk]`.
///
/// With `FMA = false` each lane performs mul-then-add — the identical
/// two IEEE roundings, per element, in the same k order as the scalar
/// tile, so the result is bitwise equal to it. With `FMA = true` the
/// multiply-add contracts to one rounding (fast mode only).
///
/// # Safety
///
/// Requires AVX2+FMA (checked by `kernel::avx2()`); `pan` must hold at
/// least `kc * NR` elements and each `ar[r]` at least `kc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile_avx2<const FMA: bool>(
    ar: &[&[f32]; MR],
    pan: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    debug_assert!(pan.len() >= kc * NR);
    let mut v = [
        _mm256_loadu_ps(acc[0].as_ptr()),
        _mm256_loadu_ps(acc[1].as_ptr()),
        _mm256_loadu_ps(acc[2].as_ptr()),
        _mm256_loadu_ps(acc[3].as_ptr()),
    ];
    for kk in 0..kc {
        let pb = _mm256_loadu_ps(pan.as_ptr().add(kk * NR));
        for (vr, a_row) in v.iter_mut().zip(ar) {
            let av = _mm256_set1_ps(*a_row.get_unchecked(kk));
            *vr = if FMA {
                _mm256_fmadd_ps(av, pb, *vr)
            } else {
                _mm256_add_ps(*vr, _mm256_mul_ps(av, pb))
            };
        }
    }
    for (row, vr) in acc.iter_mut().zip(v) {
        _mm256_storeu_ps(row.as_mut_ptr(), vr);
    }
}

/// AVX2 single-row tile update for partial (`ih < MR`) row blocks.
///
/// # Safety
///
/// Requires AVX2+FMA; `pan` must hold at least `arow.len() * NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn row_avx2<const FMA: bool>(arow: &[f32], pan: &[f32], acc: &mut [f32; NR]) {
    use std::arch::x86_64::*;
    debug_assert!(pan.len() >= arow.len() * NR);
    let mut v = _mm256_loadu_ps(acc.as_ptr());
    for (kk, &av) in arow.iter().enumerate() {
        let pb = _mm256_loadu_ps(pan.as_ptr().add(kk * NR));
        let a = _mm256_set1_ps(av);
        v = if FMA {
            _mm256_fmadd_ps(a, pb, v)
        } else {
            _mm256_add_ps(v, _mm256_mul_ps(a, pb))
        };
    }
    _mm256_storeu_ps(acc.as_mut_ptr(), v);
}

/// Full-tile update with SIMD dispatch and the scalar reference as the
/// fallback (and the exact-mode ground truth).
fn tile_update(
    ar: &[&[f32]; MR],
    pan: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; MR],
    simd: bool,
    fma: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` comes from `kernel::avx2()`; panel/segment
        // lengths are established by the packing loop.
        unsafe {
            if fma {
                tile_avx2::<true>(ar, pan, kc, acc);
            } else {
                tile_avx2::<false>(ar, pan, kc, acc);
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (simd, fma);
    for kk in 0..kc {
        let pb = &pan[kk * NR..(kk + 1) * NR];
        for (row, a_row) in acc.iter_mut().zip(ar) {
            let av = a_row[kk];
            for (o, &bv) in row.iter_mut().zip(pb) {
                *o += av * bv;
            }
        }
    }
}

/// Single-row update used for the `ih < MR` remainder rows.
fn row_update(arow: &[f32], pan: &[f32], acc: &mut [f32; NR], simd: bool, fma: bool) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` comes from `kernel::avx2()`.
        unsafe {
            if fma {
                row_avx2::<true>(arow, pan, acc);
            } else {
                row_avx2::<false>(arow, pan, acc);
            }
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (simd, fma);
    for (kk, &av) in arow.iter().enumerate() {
        let pb = &pan[kk * NR..(kk + 1) * NR];
        for (o, &bv) in acc.iter_mut().zip(pb) {
            *o += av * bv;
        }
    }
}

// ---------------------------------------------------------------------
// The blocked kernel
// ---------------------------------------------------------------------

/// C[m,n] += A[m,k] · B, with B stored row-major as `[k,n]`, or as
/// `[n,k]` (i.e. Bᵀ) when `b_t` is set.
fn gemm(a: &[f32], b: &[f32], b_t: bool, c: &mut [f32], m: usize, k: usize, n: usize) {
    let _t = tgl_obs::histogram!("gemm.latency_ns").timer();
    let n_tiles = n.div_ceil(NR);
    let simd = kernel::avx2();
    let fma = kernel::fast();
    let c = UnsafeSlice::new(c);
    // Fixed MC-row panels parallelize M: the boundaries are a function
    // of the shape only, so the work decomposition (and therefore every
    // element's accumulation order) is thread-count invariant. Small-k
    // problems widen the panel so pool dispatch stays amortized.
    let panel_rows = MC.max(seq_rows(k * n));
    parallel_for_chunks(m, panel_rows, |_, rows: std::ops::Range<usize>| {
        // SAFETY: panels partition the row space, so these row ranges
        // are disjoint.
        let c_rows = unsafe { c.slice_mut(rows.start * n, rows.len() * n) };
        let (r0, rows_n) = (rows.start, rows.len());
        let mut panel = pool::take_uninit(KC.min(k.max(1)) * n_tiles * NR, Device::Host);
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            // Pack B[k0..k0+kc, :] into NR-wide panels: panel `jt`
            // holds rows kk-major, zero-padded past column n.
            for jt in 0..n_tiles {
                let (j0, jw) = (jt * NR, NR.min(n - jt * NR));
                let dst = &mut panel[jt * kc * NR..(jt + 1) * kc * NR];
                for (kk, d) in dst.chunks_exact_mut(NR).enumerate() {
                    if b_t {
                        for (jj, v) in d[..jw].iter_mut().enumerate() {
                            *v = b[(j0 + jj) * k + k0 + kk];
                        }
                    } else {
                        d[..jw].copy_from_slice(&b[(k0 + kk) * n + j0..][..jw]);
                    }
                    d[jw..].fill(0.0);
                }
            }
            let mut i = 0;
            while i < rows_n {
                let ih = MR.min(rows_n - i);
                // A row segments for this tile, contiguous over kk.
                let a_seg = |r: usize| &a[(r0 + i + r) * k + k0..][..kc];
                for jt in 0..n_tiles {
                    let jw = NR.min(n - jt * NR);
                    let pan = &panel[jt * kc * NR..(jt + 1) * kc * NR];
                    if ih == MR {
                        let ar = [a_seg(0), a_seg(1), a_seg(2), a_seg(3)];
                        let mut acc = [[0.0f32; NR]; MR];
                        for (r, row) in acc.iter_mut().enumerate() {
                            row[..jw].copy_from_slice(&c_rows[(i + r) * n + jt * NR..][..jw]);
                        }
                        tile_update(&ar, pan, kc, &mut acc, simd, fma);
                        for (r, row) in acc.iter().enumerate() {
                            c_rows[(i + r) * n + jt * NR..][..jw].copy_from_slice(&row[..jw]);
                        }
                    } else {
                        for r in 0..ih {
                            let mut acc = [0.0f32; NR];
                            acc[..jw].copy_from_slice(&c_rows[(i + r) * n + jt * NR..][..jw]);
                            row_update(a_seg(r), pan, &mut acc, simd, fma);
                            c_rows[(i + r) * n + jt * NR..][..jw].copy_from_slice(&acc[..jw]);
                        }
                    }
                }
                i += ih;
            }
            k0 += kc;
        }
        pool::give(panel, Device::Host);
    });
}

/// C[m,n] += A[m,k] · B[k,n]
pub(crate) fn mm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm(a, b, false, c, m, k, n);
}

/// C[m,n] += A[m,k] · B[n,k]ᵀ
pub(crate) fn mm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm(a, b, true, c, m, k, n);
}

/// C[m,n] += A[k,m]ᵀ · B[k,n]
///
/// Runs the `nn` form on a transposed copy of A, so each element still
/// sums its products in ascending reduction index. The copy is a plain
/// allocation, not a pooled buffer: pooling it raised peak RSS of a
/// TGAT training run by ~40% at the same speed.
pub(crate) fn mm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut at = Vec::with_capacity(m * k);
    for i in 0..m {
        at.extend((0..k).map(|kk| a[kk * m + i]));
    }
    gemm(&at, b, false, c, m, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelMode;

    /// Bitwise assertions below define the *exact* contract: take the
    /// crate-wide kernel lock and pin exact mode.
    fn exact_guard() -> std::sync::MutexGuard<'static, ()> {
        let g = crate::kernel::test_serial();
        crate::kernel::set_mode(KernelMode::Exact);
        g
    }

    fn fill(len: usize, salt: usize) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 + salt * 11) % 101) as f32 * 0.02 - 1.0).collect()
    }

    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols).map(|idx| x[(idx % rows) * cols + idx / rows]).collect()
    }

    /// The reference every product must match bitwise in exact mode:
    /// the k-ascending triple loop over row-major operands.
    fn naive_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    #[derive(Clone, Copy, Debug)]
    enum Form {
        Nn,
        Nt,
        Tn,
    }
    const FORMS: [Form; 3] = [Form::Nn, Form::Nt, Form::Tn];

    /// `form`'s operands in storage layout for the logical product
    /// `[m,k]·[k,n]`: a dense pair and a pair whose A looks like a
    /// post-ReLU activation, over half of it exactly zero.
    fn operands(form: Form, m: usize, k: usize, n: usize) -> [(Vec<f32>, Vec<f32>); 2] {
        let (a, b) = (fill(m * k, 1), fill(k * n, 2));
        let relu: Vec<f32> = a.iter().map(|v| (v - 0.1).max(0.0)).collect();
        [a, relu].map(|a| match form {
            Form::Nn => (a, b.clone()),
            Form::Nt => (a, transpose(&b, k, n)),
            Form::Tn => (transpose(&a, m, k), b.clone()),
        })
    }

    fn run(form: Form, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        match form {
            Form::Nn => mm_nn(a, b, &mut c, m, k, n),
            Form::Nt => mm_nt(a, b, &mut c, m, k, n),
            Form::Tn => mm_tn(a, b, &mut c, m, k, n),
        }
        c
    }

    /// Sizes straddling every tile boundary: below MR/NR, exact
    /// multiples, one over, and spanning multiple KC/MC blocks.
    const SIZES: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 17),
        (4, 256, 8),
        (5, 257, 9),
        (65, 300, 33),
        (7, 513, 31),
    ];

    /// `form` equals the naive loop at every size and operand pair,
    /// with SIMD off and on, at 1 and 4 threads.
    fn assert_matches_naive(form: Form) {
        let _guard = exact_guard();
        let before = tgl_runtime::current_threads();
        for (m, k, n) in SIZES {
            for (a, b) in operands(form, m, k, n) {
                let want = match form {
                    Form::Nn => naive_nn(&a, &b, m, k, n),
                    Form::Nt => naive_nn(&a, &transpose(&b, n, k), m, k, n),
                    Form::Tn => naive_nn(&transpose(&a, k, m), &b, m, k, n),
                };
                for (simd, threads) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
                    crate::kernel::set_simd(simd);
                    tgl_runtime::set_threads(threads);
                    let got = run(form, &a, &b, m, k, n);
                    assert_eq!(got, want, "{form:?} {m}x{k}x{n} simd={simd} t={threads}");
                }
            }
        }
        tgl_runtime::set_threads(before);
    }

    #[test]
    fn blocked_nn_matches_naive_bitwise() {
        assert_matches_naive(Form::Nn);
    }

    #[test]
    fn blocked_nt_matches_reference() {
        assert_matches_naive(Form::Nt);
    }

    #[test]
    fn blocked_tn_matches_naive_bitwise() {
        assert_matches_naive(Form::Tn);
    }

    #[test]
    fn blocked_nn_simd_matches_scalar_bitwise() {
        let _guard = exact_guard();
        for form in FORMS {
            for (m, k, n) in SIZES {
                for (a, b) in operands(form, m, k, n) {
                    crate::kernel::set_simd(false);
                    let scalar = run(form, &a, &b, m, k, n);
                    crate::kernel::set_simd(true);
                    let simd = run(form, &a, &b, m, k, n);
                    assert_eq!(simd, scalar, "{form:?} simd parity {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn mc_panel_parallel_nn_thread_count_invariant() {
        let _guard = exact_guard();
        // m spans several MC panels so the parallel decomposition is
        // exercised; k crosses a KC boundary.
        let (m, k, n) = (300, 257, 33);
        let before = tgl_runtime::current_threads();
        for form in FORMS {
            for (a, b) in operands(form, m, k, n) {
                let at = |threads: usize| {
                    tgl_runtime::set_threads(threads);
                    run(form, &a, &b, m, k, n)
                };
                let (one, four) = (at(1), at(4));
                assert_eq!(one, four, "{form:?} must be bitwise thread-count invariant");
            }
        }
        tgl_runtime::set_threads(before);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = vec![0.0f32; 0];
        mm_nn(&[], &[], &mut c, 0, 0, 0);
        mm_nt(&[], &[], &mut c, 0, 0, 0);
        mm_tn(&[], &[], &mut c, 0, 0, 0);
        let mut c2 = vec![5.0f32; 6];
        mm_nn(&[], &[], &mut c2, 2, 0, 3);
        mm_nt(&[], &[], &mut c2, 2, 0, 3);
        mm_tn(&[], &[], &mut c2, 2, 0, 3);
        assert_eq!(c2, vec![5.0; 6], "k=0 leaves C untouched");
    }
}
