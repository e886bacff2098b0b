//! Random initialization and the Gumbel noise used by the Gumbel-Softmax
//! trick (paper Eq. 9).

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::tensor::Tensor;

/// A deterministic RNG for reproducible experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Kaiming/He-style uniform initialization for a `fan_in x fan_out` weight
/// matrix feeding ReLU units.
pub fn he_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Tensor {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    let data = (0..fan_in * fan_out).map(|_| rng.random_range(-bound..bound)).collect();
    Tensor::from_vec(fan_in, fan_out, data)
}

/// A single standard Gumbel(0, 1) sample: `-log(-log(u))`, `u ~ U(0, 1)`.
#[inline]
pub fn gumbel_sample(rng: &mut impl Rng) -> f32 {
    // Clamp away from 0 and 1 so the double log stays finite.
    let u: f32 = rng.random_range(1e-10f32..1.0);
    -(-u.ln()).ln()
}

/// A `rows x cols` tensor of i.i.d. Gumbel(0, 1) noise (paper Alg. 1, step 2).
pub fn gumbel_noise(rng: &mut impl Rng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| gumbel_sample(rng)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Fill an already-sized tensor with i.i.d. Gumbel(0, 1) noise in place.
/// Draws samples in the same row-major order as [`gumbel_noise`].
pub fn gumbel_fill(rng: &mut impl Rng, t: &mut Tensor) {
    for v in t.data_mut() {
        *v = gumbel_sample(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = gumbel_noise(&mut seeded_rng(7), 4, 4);
        let b = gumbel_noise(&mut seeded_rng(7), 4, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn gumbel_mean_is_euler_mascheroni() {
        // E[Gumbel(0,1)] = γ ≈ 0.5772.
        let mut rng = seeded_rng(42);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| gumbel_sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 0.5772).abs() < 0.02, "gumbel mean {mean}");
    }

    #[test]
    fn gumbel_argmax_matches_categorical_probabilities() {
        // The Gumbel-max trick: argmax(log p + g) ~ Categorical(p).
        let probs = [0.6f32, 0.3, 0.1];
        let mut rng = seeded_rng(3);
        let mut counts = [0usize; 3];
        let n = 60_000;
        for _ in 0..n {
            let mut best = 0;
            let mut best_v = f32::NEG_INFINITY;
            for (i, &p) in probs.iter().enumerate() {
                let v = p.ln() + gumbel_sample(&mut rng);
                if v > best_v {
                    best_v = v;
                    best = i;
                }
            }
            counts[best] += 1;
        }
        for (i, &p) in probs.iter().enumerate() {
            let freq = counts[i] as f32 / n as f32;
            assert!((freq - p).abs() < 0.02, "class {i}: freq {freq} vs p {p}");
        }
    }

    #[test]
    fn init_bounds() {
        let mut rng = seeded_rng(1);
        let w = he_uniform(&mut rng, 64, 32);
        let bound = (6.0f32 / 64.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= bound));
        assert_eq!(w.shape(), (64, 32));
    }
}
