//! Property tests pitting every kernel against a plain loop written here
//! (the `Scalar` backend must match it bit for bit, AVX2 within ULP bounds)
//! across adversarial shapes: odd lengths, remainder lanes
//! (`cols % 8 != 0`), denormals and negative zero.
//!
//! These tests use the explicit `_with(Backend, ...)` kernel entry points
//! rather than the process-global backend selector, so they are immune to
//! test-thread interleaving and run identically on any host; the AVX2
//! assertions are simply skipped where the ISA is absent.

use proptest::prelude::*;
use uae_tensor::simd::{self, avx2_available};
use uae_tensor::Backend;

/// Sprinkle IEEE edge cases over a bland random vector: exact zeros,
/// negative zero, denormals of both signs, and a value small enough that
/// products with it are themselves denormal.
fn with_specials(mut v: Vec<f32>) -> Vec<f32> {
    const SPECIALS: [f32; 6] = [0.0, -0.0, 1.0e-41, -1.0e-41, 1.2e-38, -2.5e-20];
    for (i, x) in v.iter_mut().enumerate() {
        if i % 5 == 3 {
            *x = SPECIALS[(i / 5) % SPECIALS.len()];
        }
    }
    v
}

fn arb_vec(len: core::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-3.0f32..3.0, len).prop_map(with_specials)
}

/// The reference `out[j] += a[k] * b[k][j]` loop.
fn plain_matmul_row(a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    for (k, &ak) in a.iter().enumerate() {
        for (j, o) in out.iter_mut().enumerate() {
            *o += ak * b[k * n + j];
        }
    }
}

/// AVX2 FMA reassociates the k-reduction, so the bound scales with the
/// reduction depth, not the (possibly cancelled-to-tiny) result.
fn close_for_reduction(x: f32, y: f32, k: usize) -> bool {
    let abs = (x - y).abs();
    abs < 1e-6 * (k as f32).max(8.0) || abs / x.abs().max(y.abs()) < 1e-5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar matmul is bit-identical to the plain loop (unrolling does not
    /// reorder any per-element operation); AVX2 is ULP-bounded against it.
    #[test]
    fn matmul_row_matches_oracle(
        dims in (1usize..=33, 1usize..=37),
        seed_a in arb_vec(33..=33),
        seed_b in arb_vec(33 * 37..=33 * 37),
    ) {
        let (k, n) = dims;
        let a = &seed_a[..k];
        let b: Vec<f32> = seed_b[..k * n].to_vec();

        let mut plain = vec![0.0f32; n];
        plain_matmul_row(a, &b, n, &mut plain);

        let mut scalar = vec![0.0f32; n];
        simd::matmul_row_with(Backend::Scalar, a, &b, n, None, &mut scalar);
        prop_assert_eq!(
            scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            plain.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );

        if avx2_available() {
            let mut vect = vec![0.0f32; n];
            simd::matmul_row_with(Backend::Avx2, a, &b, n, None, &mut vect);
            for j in 0..n {
                prop_assert!(
                    close_for_reduction(vect[j], scalar[j], k),
                    "col {}: avx2 {} vs scalar {} (k={})", j, vect[j], scalar[j], k
                );
            }
        }
    }

    /// Column-pruned panels: a start-offset run over zero-prefixed rows
    /// equals the dense run on every backend — the skipped region is
    /// structurally zero, so skipping it changes no arithmetic. An output
    /// limit computes a prefix of the product row whose columns are
    /// bit-equal to the full run's first `limit`, rows starting at or past
    /// the limit included (every AVX2 lane split: empty, sub-lane, one lane,
    /// lane + 1, past the 32-wide unroll, full width).
    #[test]
    fn matmul_row_start_offsets_equal_dense(
        dims in (1usize..=19, 1usize..=41),
        seed_a in arb_vec(19..=19),
        seed_b in arb_vec(19 * 41..=19 * 41),
        seed_s in proptest::collection::vec(0usize..=41, 19..=19),
        limit_pick in 0usize..7,
    ) {
        let (k, n) = dims;
        let limit = [0, 1, 7, 8, 9, 33, n][limit_pick].min(n);
        let a = &seed_a[..k];
        let starts: Vec<u32> = seed_s[..k].iter().map(|&s| (s % (n + 1)) as u32).collect();
        let mut b: Vec<f32> = seed_b[..k * n].to_vec();
        for (row, &s) in starts.iter().enumerate() {
            b[row * n..row * n + s as usize].fill(0.0);
        }

        for be in [Backend::Scalar, Backend::Avx2] {
            if be == Backend::Avx2 && !avx2_available() {
                continue;
            }
            let mut dense = vec![0.0f32; n];
            simd::matmul_row_with(be, a, &b, n, None, &mut dense);
            let mut pruned = vec![0.0f32; n];
            simd::matmul_row_with(be, a, &b, n, Some(&starts), &mut pruned);
            prop_assert_eq!(&pruned, &dense, "backend {:?}", be);
            let mut prefix = vec![0.0f32; limit];
            simd::matmul_row_with(be, a, &b, n, Some(&starts), &mut prefix);
            prop_assert_eq!(
                prefix.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                dense[..limit].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "backend {:?}, limit {}", be, limit
            );
        }
    }

    /// The AVX2 axpy finishes a row with one masked FMA over its last
    /// `len % 8` lanes. Every tail length 1..=7, behind bodies that end in
    /// the 32-wide unroll, the 8-wide loop or nothing, at several starts,
    /// is bit-equal to a scalar `mul_add` per element (one rounding, like
    /// the FMA lanes), and the masked store leaves the sentinels just past
    /// `out.len()` in the same buffer untouched. The sentinels are zeros and
    /// `x` continues with ones in its buffer, so a lane stored past the end
    /// would hold `a != 0` (a NaN sentinel would survive an FMA unchanged).
    #[test]
    fn avx2_masked_tail_bit_equals_scalar_fma(
        a in -3.0f32..3.0,
        seed_x in arb_vec(64..=64),
        seed_y in arb_vec(64..=64),
    ) {
        if !avx2_available() {
            return;
        }
        prop_assume!(a != 0.0);
        for start in [0usize, 1, 3, 5, 8, 13] {
            for body in [0usize, 8, 32, 40] {
                for tail in 1..=7usize {
                    let n = start + body + tail;
                    let mut x_buf = seed_x[..n].to_vec();
                    x_buf.extend([1.0f32; 8]);
                    let x = &x_buf[..n];
                    let mut buf: Vec<f32> = seed_y[..n].to_vec();
                    buf.extend([0.0f32; 8]);
                    let mut want = seed_y[..n].to_vec();
                    for j in start..n {
                        want[j] = a.mul_add(x[j], want[j]);
                    }
                    let starts = [start as u32];
                    simd::matmul_row_with(Backend::Avx2, &[a], x, n, Some(&starts), &mut buf[..n]);
                    prop_assert_eq!(
                        buf[..n].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "start {}, body {}, tail {}", start, body, tail
                    );
                    prop_assert!(
                        buf[n..].iter().all(|v| v.to_bits() == 0),
                        "write past out.len(): start {}, body {}, tail {}", start, body, tail
                    );
                }
            }
        }
    }

    /// All three bias epilogues are element-wise, hence bit-identical to the
    /// plain loop on every backend, remainder lanes and denormals included.
    #[test]
    fn bias_epilogues_bit_identical(
        n in 1usize..=41,
        seed_x in arb_vec(41..=41),
        seed_b in arb_vec(41..=41),
    ) {
        let (x, bias) = (&seed_x[..n], &seed_b[..n]);
        let oracle_into: Vec<f32> = x.iter().zip(bias).map(|(&a, &b)| a + b).collect();
        let oracle_add = oracle_into.clone();
        let oracle_relu: Vec<f32> = oracle_into.iter().map(|v| v.max(0.0)).collect();

        for be in [Backend::Scalar, Backend::Avx2] {
            if be == Backend::Avx2 && !avx2_available() {
                continue;
            }
            let mut into = vec![0.0f32; n];
            simd::add_bias_into_row_with(be, x, bias, &mut into);
            prop_assert_eq!(&into, &oracle_into, "into {:?}", be);
            let mut add = x.to_vec();
            simd::add_bias_row_with(be, &mut add, bias);
            prop_assert_eq!(&add, &oracle_add, "assign {:?}", be);
            let mut relu = x.to_vec();
            simd::add_bias_relu_row_with(be, &mut relu, bias);
            prop_assert_eq!(&relu, &oracle_relu, "relu {:?}", be);
        }
    }

    /// Fused softmax: probabilities on every backend, AVX2 ULP-bounded
    /// against `Scalar`, and every `-inf` lane of a partly masked row
    /// exactly zero.
    #[test]
    fn softmax_matches_oracle(
        n in 1usize..=37,
        seed in proptest::collection::vec(-30.0f32..30.0, 37..=37),
        mask_every in 0usize..=4,
    ) {
        let mut src = seed[..n].to_vec();
        if mask_every > 0 {
            // Masked logits are -inf; their probability must be *exactly* 0.
            for x in src.iter_mut().step_by(mask_every + 1) {
                *x = f32::NEG_INFINITY;
            }
        }
        let mut oracle = src.clone();
        simd::softmax_slice_with(Backend::Scalar, &mut oracle);

        for be in [Backend::Scalar, Backend::Avx2] {
            if be == Backend::Avx2 && !avx2_available() {
                continue;
            }
            let mut out = src.clone();
            simd::softmax_slice_with(be, &mut out);

            let sum: f32 = out.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "sum {} on {:?}", sum, be);
            for j in 0..n {
                // A fully masked row degenerates to uniform by contract;
                // otherwise a -inf lane must be *exactly* zero.
                if src[j] == f32::NEG_INFINITY && src.iter().any(|&x| x != f32::NEG_INFINITY) {
                    prop_assert_eq!(out[j], 0.0, "masked lane {:?}", be);
                }
                prop_assert!(
                    (out[j] - oracle[j]).abs() < 1e-5,
                    "lane {}: {} vs {} on {:?}", j, out[j], oracle[j], be
                );
            }
        }
    }
}
