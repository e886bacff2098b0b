//! Runtime-dispatched SIMD kernels for the inference hot path.
//!
//! Two backends implement the same row-level contracts:
//!
//! * [`Backend::Scalar`] — 8-lane-unrolled scalar code with no
//!   target-specific intrinsics: what hosts without AVX2+FMA run, and what
//!   `UAE_FORCE_SCALAR=1` pins. Unrolling reorders no per-element
//!   arithmetic, so every kernel computes exactly what a plain loop over the
//!   elements computes (the tests here and in `tests/simd_kernels.rs` check
//!   this bit for bit).
//! * [`Backend::Avx2`] — x86-64 `std::arch` AVX2 + FMA kernels, including a
//!   fused softmax built on a vectorized polynomial `exp`. FMA contraction
//!   and 8-way reduction trees reassociate sums, so this backend is held to
//!   an ULP/relative-error bound against `Scalar` instead of bit-exactness.
//!
//! The backend is picked **once**, at first use, from `UAE_FORCE_SCALAR` and
//! `is_x86_feature_detected!`. Every kernel also takes an explicit backend
//! (`*_with`) so tests can pit the two against each other; `Avx2` on a CPU
//! without avx2+fma runs the scalar loop. Matrix-level dispatch lives in
//! [`crate::tensor`]; model-level packing (mask-aware column pruning) lives
//! in `uae-core`, which feeds the per-row `starts` offsets into
//! [`matmul_row_with`].

use std::sync::OnceLock;

/// Which kernel family services tensor ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Unrolled portable scalar loops (no intrinsics).
    Scalar,
    /// AVX2 + FMA intrinsics (x86-64 only, runtime-detected).
    Avx2,
}

/// The active backend, chosen from the environment + CPU features on first
/// call and fixed for the life of the process.
#[inline]
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(detect_backend)
}

/// What the environment + CPU select: `Avx2` when the CPU has avx2+fma and
/// `UAE_FORCE_SCALAR` is unset, `Scalar` otherwise.
fn detect_backend() -> Backend {
    if avx2_available() && !force_scalar() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

fn force_scalar() -> bool {
    match std::env::var("UAE_FORCE_SCALAR").ok().as_deref() {
        None | Some("") | Some("0") | Some("false") | Some("no") => false,
        Some(_) => true,
    }
}

/// Whether this CPU supports the AVX2+FMA backend. Public so oracle tests
/// can skip (rather than silently downgrade) the AVX2 assertions.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Row kernels (dispatching).
// ---------------------------------------------------------------------------

/// `out[j] += sum_k a_row[k] * b[k][j]` for `j < out.len()`, over a
/// row-major `b` with `bcols >= out.len()` columns, accumulating into `out`
/// (callers zero it for a plain matmul), on backend `be`. `out.len()` is the
/// output-column limit: passing a prefix of the product row computes exactly
/// that prefix, with the same per-element arithmetic in the same order, so
/// the computed columns are bit-identical to the first `out.len()` of the
/// full product. When `starts` is given, row `k` of `b` is treated as zero
/// below column `starts[k]` — the packed-mask contract: the model layer
/// permutes hidden units by MADE degree so every masked weight row is zero
/// on a contiguous prefix, and the inner loop starts past it instead of
/// testing a zero-skip branch per element. Rows whose start is at or past
/// the limit are skipped.
pub fn matmul_row_with(
    be: Backend,
    a_row: &[f32],
    b: &[f32],
    bcols: usize,
    starts: Option<&[u32]>,
    out: &mut [f32],
) {
    // The AVX2 kernel reads `b` and `starts` unchecked; these bounds make
    // every read in range (a start at or past the limit is skipped).
    assert!(a_row.len() * bcols <= b.len());
    assert!(out.len() <= bcols);
    if let Some(st) = starts {
        assert!(st.len() >= a_row.len());
    }
    let n = out.len();
    match be {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard confirmed avx2+fma at run time; the slice bounds
        // are asserted above.
        Backend::Avx2 if avx2_available() => unsafe {
            avx2::matmul_row(a_row, b, bcols, starts, out)
        },
        _ => {
            for (k, &aik) in a_row.iter().enumerate() {
                let s = starts.map_or(0, |st| st[k] as usize);
                if aik == 0.0 || s >= n {
                    continue;
                }
                axpy_unrolled(aik, &b[k * bcols + s..k * bcols + n], &mut out[s..]);
            }
        }
    }
}

/// 8-lane-unrolled `y += a * x`. Per-element arithmetic is unchanged, so
/// this is bit-identical to the plain loop.
fn axpy_unrolled(a: f32, x: &[f32], y: &mut [f32]) {
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact_mut(8);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        ys[0] += a * xs[0];
        ys[1] += a * xs[1];
        ys[2] += a * xs[2];
        ys[3] += a * xs[3];
        ys[4] += a * xs[4];
        ys[5] += a * xs[5];
        ys[6] += a * xs[6];
        ys[7] += a * xs[7];
    }
    for (o, &xv) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *o += a * xv;
    }
}

/// `out = x + bias`, one row, on backend `be`.
pub fn add_bias_into_row_with(be: Backend, x: &[f32], bias: &[f32], out: &mut [f32]) {
    assert!(x.len() == out.len() && bias.len() == out.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard confirmed avx2+fma; the lengths are asserted above.
        Backend::Avx2 if avx2_available() => unsafe { avx2::add_bias_into_row(x, bias, out) },
        _ => {
            for ((o, &xv), &bv) in out.iter_mut().zip(x).zip(bias) {
                *o = xv + bv;
            }
        }
    }
}

/// `row += bias`, one row, on backend `be`.
pub fn add_bias_row_with(be: Backend, row: &mut [f32], bias: &[f32]) {
    assert_eq!(row.len(), bias.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard confirmed avx2+fma; the lengths are asserted above.
        Backend::Avx2 if avx2_available() => unsafe { avx2::add_bias_row(row, bias) },
        _ => {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
    }
}

/// Fused `row = relu(row + bias)`, one row, on backend `be` — the
/// hidden-layer epilogue.
pub fn add_bias_relu_row_with(be: Backend, row: &mut [f32], bias: &[f32]) {
    assert_eq!(row.len(), bias.len());
    match be {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard confirmed avx2+fma; the lengths are asserted above.
        Backend::Avx2 if avx2_available() => unsafe { avx2::add_bias_relu_row(row, bias) },
        _ => {
            for (o, &bv) in row.iter_mut().zip(bias) {
                *o = (*o + bv).max(0.0);
            }
        }
    }
}

/// Numerically stable in-place softmax of one row in a fused
/// max/exp/normalize pass. A fully `-inf` row becomes uniform (the model
/// treats it as an impossible region).
#[inline]
pub fn softmax_slice(xs: &mut [f32]) {
    softmax_slice_with(backend(), xs)
}

/// [`softmax_slice`] against an explicit backend.
pub fn softmax_slice_with(be: Backend, xs: &mut [f32]) {
    match be {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard confirmed avx2+fma.
        Backend::Avx2 if avx2_available() => unsafe { avx2::softmax(xs) },
        _ => {
            let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if !max.is_finite() {
                let u = 1.0 / xs.len() as f32;
                xs.fill(u);
                return;
            }
            let mut sum = 0.0f32;
            for x in xs.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum;
            for x in xs.iter_mut() {
                *x *= inv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    /// See [`super::matmul_row`].
    ///
    /// # Safety
    /// Caller must guarantee avx2+fma are available, `b` holds at least
    /// `a_row.len() * bcols` elements, `out.len() <= bcols`, and `starts`
    /// (when given) holds at least `a_row.len()` entries.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn matmul_row(
        a_row: &[f32],
        b: &[f32],
        bcols: usize,
        starts: Option<&[u32]>,
        out: &mut [f32],
    ) {
        let n = out.len();
        for (k, &aik) in a_row.iter().enumerate() {
            let s = starts.map_or(0, |st| *st.get_unchecked(k) as usize);
            if aik == 0.0 || s >= n {
                continue;
            }
            let b_row = b.get_unchecked(k * bcols + s..k * bcols + n);
            axpy(aik, b_row, out.get_unchecked_mut(s..));
        }
    }

    /// `y += a * x` with 4x-unrolled 8-lane FMA and a masked final partial lane.
    ///
    /// # Safety
    /// avx2+fma; `y.len() >= x.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let av = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 32 <= n {
            let y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            let y1 =
                _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i + 8)), _mm256_loadu_ps(yp.add(i + 8)));
            let y2 = _mm256_fmadd_ps(
                av,
                _mm256_loadu_ps(xp.add(i + 16)),
                _mm256_loadu_ps(yp.add(i + 16)),
            );
            let y3 = _mm256_fmadd_ps(
                av,
                _mm256_loadu_ps(xp.add(i + 24)),
                _mm256_loadu_ps(yp.add(i + 24)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + 8), y1);
            _mm256_storeu_ps(yp.add(i + 16), y2);
            _mm256_storeu_ps(yp.add(i + 24), y3);
            i += 32;
        }
        while i + 8 <= n {
            let yv = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), yv);
            i += 8;
        }
        if i < n {
            // Masked tail: one FMA over the last `n - i < 8` lanes. Masked-off
            // lanes are neither read nor written, and every live lane gets the
            // same single-rounding FMA as a scalar `mul_add`.
            let mask = _mm256_cmpgt_epi32(
                _mm256_set1_epi32((n - i) as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let yv = _mm256_fmadd_ps(
                av,
                _mm256_maskload_ps(xp.add(i), mask),
                _mm256_maskload_ps(yp.add(i), mask),
            );
            _mm256_maskstore_ps(yp.add(i), mask, yv);
        }
    }

    /// # Safety
    /// avx2+fma; equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn add_bias_into_row(x: &[f32], bias: &[f32], out: &mut [f32]) {
        let n = out.len();
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_add_ps(
                _mm256_loadu_ps(x.as_ptr().add(i)),
                _mm256_loadu_ps(bias.as_ptr().add(i)),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(i), v);
            i += 8;
        }
        while i < n {
            *out.get_unchecked_mut(i) = x.get_unchecked(i) + bias.get_unchecked(i);
            i += 1;
        }
    }

    /// # Safety
    /// avx2+fma; equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn add_bias_row(row: &mut [f32], bias: &[f32]) {
        let n = row.len();
        let rp = row.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let v =
                _mm256_add_ps(_mm256_loadu_ps(rp.add(i)), _mm256_loadu_ps(bias.as_ptr().add(i)));
            _mm256_storeu_ps(rp.add(i), v);
            i += 8;
        }
        while i < n {
            *rp.add(i) += *bias.get_unchecked(i);
            i += 1;
        }
    }

    /// # Safety
    /// avx2+fma; equal slice lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn add_bias_relu_row(row: &mut [f32], bias: &[f32]) {
        let n = row.len();
        let rp = row.as_mut_ptr();
        let zero = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let v =
                _mm256_add_ps(_mm256_loadu_ps(rp.add(i)), _mm256_loadu_ps(bias.as_ptr().add(i)));
            _mm256_storeu_ps(rp.add(i), _mm256_max_ps(v, zero));
            i += 8;
        }
        while i < n {
            *rp.add(i) = (*rp.add(i) + *bias.get_unchecked(i)).max(0.0);
            i += 1;
        }
    }

    // Cephes-style single-precision exp, as in the classic avx_mathfun
    // kernels. Inputs below `FLUSH_LO` (where exp underflows the normal
    // range) return exactly 0.0 — this keeps `softmax` of a `-inf`-masked
    // logit exactly 0, which tests rely on.
    const EXP_HI: f32 = 88.376_26;
    const FLUSH_LO: f32 = -87.336_54; // ln(2^-126)
    const LOG2EF: f32 = std::f32::consts::LOG2_E;
    const C1: f32 = 0.693_359_4;
    const C2: f32 = -2.121_944_4e-4;
    const P0: f32 = 1.987_569_1e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_6e-2;
    const P4: f32 = 1.666_666_6e-1;
    const P5: f32 = 5.000_000_3e-1;

    /// Vectorized `exp` over 8 lanes.
    ///
    /// # Safety
    /// avx2+fma.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp256_ps(x0: __m256) -> __m256 {
        let keep = _mm256_cmp_ps(x0, _mm256_set1_ps(FLUSH_LO), _CMP_GT_OQ);
        let x = _mm256_max_ps(_mm256_min_ps(x0, _mm256_set1_ps(EXP_HI)), _mm256_set1_ps(FLUSH_LO));
        let fx = _mm256_floor_ps(_mm256_fmadd_ps(x, _mm256_set1_ps(LOG2EF), _mm256_set1_ps(0.5)));
        let x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(C1)));
        let x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(C2)));
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P1));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P2));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P3));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P4));
        y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P5));
        y = _mm256_fmadd_ps(y, z, x);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // 2^fx via exponent bits; fx ∈ [-126, 128] after the clamp above.
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(_mm256_cvttps_epi32(fx), _mm256_set1_epi32(0x7f)),
            23,
        ));
        _mm256_and_ps(_mm256_mul_ps(y, pow2), keep)
    }

    /// Scalar mirror of one [`exp256_ps`] lane, bit-identical thanks to the
    /// same op order (FMA included — this runs inside fma-enabled callers).
    #[inline(always)]
    fn exp_lane(x0: f32) -> f32 {
        // `!(>)` deliberately: NaN and -inf both flush to 0, matching the
        // vector compare-and-mask.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(x0 > FLUSH_LO) {
            return 0.0;
        }
        let x = x0.clamp(FLUSH_LO, EXP_HI);
        let fx = x.mul_add(LOG2EF, 0.5).floor();
        let x = x - fx * C1;
        let x = x - fx * C2;
        let z = x * x;
        let mut y = P0;
        y = y.mul_add(x, P1);
        y = y.mul_add(x, P2);
        y = y.mul_add(x, P3);
        y = y.mul_add(x, P4);
        y = y.mul_add(x, P5);
        y = y.mul_add(z, x);
        y += 1.0;
        let pow2 = f32::from_bits((((fx as i32) + 0x7f) as u32) << 23);
        y * pow2
    }

    /// Fused max/exp/normalize softmax of `xs`, in place.
    ///
    /// # Safety
    /// avx2+fma.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn softmax(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut max = f32::NEG_INFINITY;
        let mut i = 0usize;
        if n >= 8 {
            let mut mv = _mm256_loadu_ps(p);
            i = 8;
            while i + 8 <= n {
                mv = _mm256_max_ps(mv, _mm256_loadu_ps(p.add(i)));
                i += 8;
            }
            max = hmax(mv);
        }
        while i < n {
            max = max.max(*p.add(i));
            i += 1;
        }
        if !max.is_finite() {
            let u = 1.0 / n as f32;
            for j in 0..n {
                *p.add(j) = u;
            }
            return;
        }
        let maxv = _mm256_set1_ps(max);
        let mut sumv = _mm256_setzero_ps();
        let mut sum = 0.0f32;
        i = 0;
        while i + 8 <= n {
            let e = exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), maxv));
            _mm256_storeu_ps(p.add(i), e);
            sumv = _mm256_add_ps(sumv, e);
            i += 8;
        }
        while i < n {
            let e = exp_lane(*p.add(i) - max);
            *p.add(i) = e;
            sum += e;
            i += 1;
        }
        let sum = sum + hsum(sumv);
        let inv = 1.0 / sum;
        let invv = _mm256_set1_ps(inv);
        i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), invv));
            i += 8;
        }
        while i < n {
            *p.add(i) *= inv;
            i += 1;
        }
    }

    #[inline(always)]
    unsafe fn hmax(v: __m256) -> f32 {
        let m = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        let m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
        _mm_cvtss_f32(m)
    }

    #[inline(always)]
    pub(crate) unsafe fn hsum(v: __m256) -> f32 {
        let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                lo + (hi - lo) * ((s >> 40) as f32 / (1u64 << 24) as f32)
            })
            .collect()
    }

    fn rel_err(a: f32, b: f32) -> f32 {
        let d = (a - b).abs();
        if d == 0.0 {
            return 0.0;
        }
        d / a.abs().max(b.abs()).max(1e-30)
    }

    /// The reference `out[j] += a[k] * b[k][j]` loop, zero-prefix rows
    /// skipped, that `Scalar` must match bit for bit.
    fn plain_matmul_row(a: &[f32], b: &[f32], n: usize, starts: Option<&[u32]>, out: &mut [f32]) {
        for (k, &ak) in a.iter().enumerate() {
            let s = starts.map_or(0, |st| st[k] as usize);
            for j in s.min(out.len())..out.len() {
                out[j] += ak * b[k * n + j];
            }
        }
    }

    #[test]
    fn scalar_axpy_bit_matches_plain_loop() {
        for n in [1usize, 7, 8, 9, 31, 32, 33, 128, 129] {
            let x = pseudo(n as u64, n, -2.0, 2.0);
            let mut y1 = pseudo(n as u64 + 1, n, -1.0, 1.0);
            let mut y2 = y1.clone();
            for (o, &xv) in y1.iter_mut().zip(&x) {
                *o += 0.37 * xv;
            }
            axpy_unrolled(0.37, &x, &mut y2);
            assert_eq!(y1, y2, "n={n}");
        }
    }

    #[test]
    fn matmul_row_backends_agree() {
        for &(k, n) in &[(3usize, 5usize), (16, 64), (17, 128), (128, 131), (64, 1000)] {
            let a = pseudo(1, k, -1.0, 1.0);
            let b = pseudo(2, k * n, -1.0, 1.0);
            let mut plain = vec![0.0f32; n];
            let mut scalar = vec![0.0f32; n];
            plain_matmul_row(&a, &b, n, None, &mut plain);
            matmul_row_with(Backend::Scalar, &a, &b, n, None, &mut scalar);
            assert_eq!(plain, scalar, "scalar must be bit-exact ({k}x{n})");
            if avx2_available() {
                let mut v = vec![0.0f32; n];
                matmul_row_with(Backend::Avx2, &a, &b, n, None, &mut v);
                // FMA + 8-way reduction reassociate the k-sum; the bound
                // scales with the reduction depth, not the (possibly
                // cancelled) result magnitude.
                let tol = 1e-6 * (k as f32).max(8.0);
                for (x, y) in scalar.iter().zip(&v) {
                    assert!(
                        (x - y).abs() < tol || rel_err(*x, *y) < 1e-5,
                        "avx2 {x} vs {y} ({k}x{n})"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_row_honors_start_offsets() {
        let (k, n) = (6usize, 40usize);
        let a = pseudo(3, k, -1.0, 1.0);
        let mut b = pseudo(4, k * n, -1.0, 1.0);
        let starts: Vec<u32> = (0..k as u32).map(|i| (i * 7) % n as u32).collect();
        // Zero the pruned prefixes so the dense reference agrees.
        for (i, &s) in starts.iter().enumerate() {
            for j in 0..s as usize {
                b[i * n + j] = 0.0;
            }
        }
        let mut dense = vec![0.0f32; n];
        plain_matmul_row(&a, &b, n, None, &mut dense);
        for be in [Backend::Scalar, Backend::Avx2] {
            if be == Backend::Avx2 && !avx2_available() {
                continue;
            }
            let mut out = vec![0.0f32; n];
            matmul_row_with(be, &a, &b, n, Some(&starts), &mut out);
            for (x, y) in dense.iter().zip(&out) {
                assert!(rel_err(*x, *y) < 1e-5, "{be:?}: {x} vs {y}");
            }
            // An output limit computes exactly the first `limit` columns of
            // the same backend's full row, bit for bit.
            for limit in [0usize, 1, 7, 8, 9, 33, n] {
                let mut prefix = vec![0.0f32; limit];
                matmul_row_with(be, &a, &b, n, Some(&starts), &mut prefix);
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&prefix), bits(&out[..limit]), "{be:?} limit {limit}");
                if be == Backend::Scalar {
                    let mut want = vec![0.0f32; limit];
                    plain_matmul_row(&a, &b, n, Some(&starts), &mut want);
                    assert_eq!(bits(&prefix), bits(&want), "scalar vs plain, limit {limit}");
                }
            }
        }
    }

    #[test]
    fn avx2_exp_matches_std_exp() {
        if !avx2_available() {
            return;
        }
        let xs = pseudo(5, 4096, -30.0, 30.0);
        for chunk in xs.chunks_exact(8) {
            let mut got = [0.0f32; 8];
            // SAFETY: avx2 availability checked above.
            unsafe {
                let v = avx2::exp256_ps(std::arch::x86_64::_mm256_loadu_ps(chunk.as_ptr()));
                std::arch::x86_64::_mm256_storeu_ps(got.as_mut_ptr(), v);
            }
            for (x, g) in chunk.iter().zip(got) {
                let want = x.exp();
                assert!(rel_err(want, g) < 3e-7, "exp({x}) = {want}, got {g}");
            }
        }
    }

    #[test]
    fn avx2_exp_underflow_flushes_to_zero() {
        if !avx2_available() {
            return;
        }
        let xs = [f32::NEG_INFINITY, -1.0e4, -100.0, -87.0, 0.0, 1.0, -88.4, 5.0];
        let mut got = [0.0f32; 8];
        // SAFETY: avx2 availability checked above.
        unsafe {
            let v = avx2::exp256_ps(std::arch::x86_64::_mm256_loadu_ps(xs.as_ptr()));
            std::arch::x86_64::_mm256_storeu_ps(got.as_mut_ptr(), v);
        }
        assert_eq!(got[0], 0.0, "exp(-inf) must flush to exactly 0");
        assert_eq!(got[1], 0.0);
        assert_eq!(got[2], 0.0, "below ln(2^-126) flushes to 0");
        assert!(got[3] > 0.0, "-87 is above the flush threshold, got {}", got[3]);
        assert!(rel_err(got[3], (-87.0f32).exp()) < 3e-7);
        assert_eq!(got[4], 1.0, "exp(0) must be exactly 1");
        assert!(rel_err(got[5], std::f32::consts::E) < 3e-7);
    }

    #[test]
    fn softmax_backends_agree() {
        for n in [1usize, 2, 7, 8, 9, 64, 100, 128, 1000] {
            let src = pseudo(n as u64 + 9, n, -8.0, 8.0);
            let mut scalar = src.clone();
            softmax_slice_with(Backend::Scalar, &mut scalar);
            let sum: f32 = scalar.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            if avx2_available() {
                let mut out = src.clone();
                softmax_slice_with(Backend::Avx2, &mut out);
                for (x, y) in scalar.iter().zip(&out) {
                    assert!((x - y).abs() < 1e-6 || rel_err(*x, *y) < 1e-5, "n={n}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn softmax_masked_and_uniform_rows() {
        for be in [Backend::Scalar, Backend::Avx2] {
            if be == Backend::Avx2 && !avx2_available() {
                continue;
            }
            let mut m = vec![0.0f32, f32::NEG_INFINITY, 0.0];
            softmax_slice_with(be, &mut m);
            assert!((m[0] - 0.5).abs() < 1e-6, "{be:?}");
            assert_eq!(m[1], 0.0, "{be:?}: -inf logit must softmax to exactly 0");
            let mut u = vec![f32::NEG_INFINITY; 4];
            softmax_slice_with(be, &mut u);
            assert!(u.iter().all(|&x| (x - 0.25).abs() < 1e-6), "{be:?}");
        }
    }

    #[test]
    fn backend_detection_respects_availability() {
        if detect_backend() == Backend::Avx2 {
            assert!(avx2_available());
        }
    }

    #[test]
    fn epilogues_agree_across_backends() {
        for n in [1usize, 5, 8, 13, 128, 130] {
            let x = pseudo(n as u64 + 40, n, -1.0, 1.0);
            let bias = pseudo(n as u64 + 41, n, -0.5, 0.5);
            let plain_into: Vec<f32> = x.iter().zip(&bias).map(|(&a, &b)| a + b).collect();
            let plain_relu: Vec<f32> = plain_into.iter().map(|v| v.max(0.0)).collect();
            for be in [Backend::Scalar, Backend::Avx2] {
                if be == Backend::Avx2 && !avx2_available() {
                    continue;
                }
                let mut into = vec![0.0f32; n];
                add_bias_into_row_with(be, &x, &bias, &mut into);
                assert_eq!(into, plain_into, "{be:?} add_bias_into n={n}");
                let mut relu = x.clone();
                add_bias_relu_row_with(be, &mut relu, &bias);
                assert_eq!(relu, plain_relu, "{be:?} add_bias_relu n={n}");
                let mut add = x.clone();
                add_bias_row_with(be, &mut add, &bias);
                assert_eq!(add, plain_into, "{be:?} add_bias n={n}");
            }
        }
    }
}
