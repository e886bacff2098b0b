//! Microbenchmarks of the inference kernel layer at ResMADE shapes
//! (128-wide hidden layers, 256-row sample batches): f32 matmul on every
//! backend and the fused epilogues. Prints ns/call, GFLOP/s and
//! speedups over the Scalar backend, then registers the same kernels as
//! Criterion benches.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use uae_tensor::simd::{self, avx2_available};
use uae_tensor::{Backend, Tensor};

/// ResMADE forward shapes: 256 sample rows through a 128-wide layer.
const ROWS: usize = 256;
const K: usize = 128;
const N: usize = 128;

fn pseudo(seed: u64, lo: f32, hi: f32, n: usize) -> Vec<f32> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lo + (hi - lo) * ((s >> 40) as f32 / (1u64 << 24) as f32)
        })
        .collect()
}

/// Median-of-5 timing of `f`, each sample averaging `iters` calls.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = [0.0f64; 5];
    for s in samples.iter_mut() {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        *s = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[2]
}

struct KernelRow {
    kernel: &'static str,
    backend: String,
    ns_per_call: f64,
    gflops: f64,
}

fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if avx2_available() {
        v.push(Backend::Avx2);
    }
    v
}

fn measure_all() -> Vec<KernelRow> {
    let a = Tensor::from_vec(ROWS, K, pseudo(0xA11CE, -1.5, 1.5, ROWS * K));
    let b = Tensor::from_vec(K, N, pseudo(0xB0B, -1.0, 1.0, K * N));
    let bias = pseudo(0xB1A5, -0.5, 0.5, N);
    let logits = pseudo(0x50F7, -8.0, 8.0, N);
    let mut out = vec![0.0f32; N];
    let mut rows = Vec::new();

    // f32 matmul, per backend: one 256x128x128 batch per call.
    let flops = (2 * ROWS * K * N) as f64;
    for be in backends() {
        let ns = time_ns(20, || {
            for r in 0..ROWS {
                out.fill(0.0);
                simd::matmul_row_with(be, a.row(r), b.data(), N, None, &mut out);
                black_box(&out);
            }
        });
        rows.push(KernelRow {
            kernel: "matmul_f32_256x128x128",
            backend: format!("{be:?}"),
            ns_per_call: ns,
            gflops: flops / ns,
        });
    }

    // The in-model shape that decides the serving trajectory: relu-sparse
    // activations (about half the lanes zero) against a degree-packed
    // weight matrix (monotone zero-prefix starts covering half the panel).
    let mut sparse = a.clone();
    for (i, v) in sparse.data_mut().iter_mut().enumerate() {
        if (i * 2654435761) % 100 < 50 {
            *v = 0.0;
        }
    }
    let starts: Vec<u32> = (0..K).map(|k| ((k * N) / K) as u32).collect();
    let mut packed_b = b.clone();
    for (k, &s) in starts.iter().enumerate() {
        packed_b.data_mut()[k * N..k * N + s as usize].fill(0.0);
    }
    for be in backends() {
        let ns = time_ns(20, || {
            for r in 0..ROWS {
                out.fill(0.0);
                simd::matmul_row_with(
                    be,
                    sparse.row(r),
                    packed_b.data(),
                    N,
                    Some(&starts),
                    &mut out,
                );
                black_box(&out);
            }
        });
        rows.push(KernelRow {
            kernel: "matmul_f32_sparse_packed",
            backend: format!("{be:?}"),
            ns_per_call: ns,
            gflops: flops / ns,
        });
    }
    // Fused bias+relu epilogue over the 256x128 activation block.
    let ep_flops = (2 * ROWS * N) as f64;
    for be in backends() {
        let mut act = a.clone();
        let ns = time_ns(200, || {
            for r in 0..ROWS {
                simd::add_bias_relu_row_with(be, act.row_mut(r), &bias);
            }
            black_box(&act);
        });
        rows.push(KernelRow {
            kernel: "add_bias_relu_256x128",
            backend: format!("{be:?}"),
            ns_per_call: ns,
            gflops: ep_flops / ns,
        });
    }

    // Fused in-place softmax over one 128-wide logit row (the timing
    // includes refilling the row with the logits).
    for be in backends() {
        let mut row = vec![0.0f32; N];
        let ns = time_ns(2000, || {
            row.copy_from_slice(&logits);
            simd::softmax_slice_with(be, &mut row);
            black_box(&row);
        });
        rows.push(KernelRow {
            kernel: "softmax_128",
            backend: format!("{be:?}"),
            ns_per_call: ns,
            gflops: (4 * N) as f64 / ns,
        });
    }
    rows
}

fn print_rows(rows: &[KernelRow]) {
    let scalar_ns = |kernel: &str| {
        rows.iter()
            .find(|r| r.kernel == kernel && r.backend == "Scalar")
            .map(|r| r.ns_per_call)
            .unwrap_or(f64::NAN)
    };
    for r in rows {
        eprintln!(
            "[kernels] {:<26} {:<8} {:>10.0} ns/call {:>8.2} GFLOP/s {:>6.2}x scalar",
            r.kernel,
            r.backend,
            r.ns_per_call,
            r.gflops,
            scalar_ns(r.kernel) / r.ns_per_call
        );
    }
}

fn bench_kernels(c: &mut Criterion) {
    let rows = measure_all();
    print_rows(&rows);

    // The same kernels under Criterion for relative tracking.
    let a = Tensor::from_vec(ROWS, K, pseudo(0xA11CE, -1.5, 1.5, ROWS * K));
    let b = Tensor::from_vec(K, N, pseudo(0xB0B, -1.0, 1.0, K * N));
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);
    for be in backends() {
        let mut out = vec![0.0f32; N];
        g.bench_function(format!("matmul_f32/{be:?}"), |bch| {
            bch.iter(|| {
                for r in 0..ROWS {
                    out.fill(0.0);
                    simd::matmul_row_with(be, a.row(r), b.data(), N, None, &mut out);
                }
                black_box(&out);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
