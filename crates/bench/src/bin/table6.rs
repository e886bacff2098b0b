//! Reproduces **Table 6** of the paper: incremental query-workload
//! ingestion. Five workload partitions focus on shifting data regions of
//! the bounded column; a stale Naru (data-only, never refined) is compared
//! with a UAE that ingests each partition's queries (§4.5 / §5.4).

use std::collections::HashSet;
use std::time::Instant;

use uae_bench::BenchScale;
use uae_core::Uae;
use uae_query::workload::incremental_windows;
use uae_query::{default_bounded_column, evaluate, generate_workload, BoundedSpec, WorkloadSpec};

fn main() {
    let scale = BenchScale::from_env();
    let t0 = Instant::now();
    let table = uae_data::dmv_like(scale.dmv_rows, 0x7AB6);
    let col = default_bounded_column(&table);
    eprintln!("[table6] dataset ready; generating 5 shifted workload partitions…");

    const PARTS: usize = 5;
    let windows = incremental_windows(PARTS);
    let train_per_part = (scale.train_queries / 2).max(20);
    let test_per_part = (scale.test_queries / 2).max(10);

    let mut train_parts = Vec::new();
    let mut test_parts = Vec::new();
    for (i, &win) in windows.iter().enumerate() {
        let mk = |n: usize, seed: u64| WorkloadSpec {
            seed,
            num_queries: n,
            bounded: Some(BoundedSpec { column: col, center_window: win, volume_frac: 0.01 }),
            nf_range: (2, 5),
        };
        let train = generate_workload(&table, &mk(train_per_part, 100 + i as u64), &HashSet::new());
        let excl = uae_query::fingerprints(&train);
        let test = generate_workload(&table, &mk(test_per_part, 200 + i as u64), &excl);
        train_parts.push(train);
        test_parts.push(test);
    }

    // Both models share the same pretraining (same seeds → same weights).
    eprintln!("[table6] pretraining the data-only model twice (stale vs refined)…");
    let cfg = scale.uae_config(0x6ab1e6);
    let mut naru = Uae::new(&table, cfg.clone()).with_name("Naru");
    naru.train_data(scale.data_epochs);
    let mut uae = Uae::new(&table, cfg);
    uae.train_data(scale.data_epochs);

    let ingest_epochs = scale.query_epochs.clamp(4, 20); // paper: 10–20

    // Refinement uses a gentler learning rate than initial training, so the
    // query signal sharpens the focused region without destabilizing the
    // rest of the learned distribution.
    uae.set_learning_rate(5e-4);
    let mut naru_means = Vec::new();
    let mut uae_means = Vec::new();
    for (i, (train, test)) in train_parts.iter().zip(&test_parts).enumerate() {
        uae.ingest_workload(train, ingest_epochs);
        let en = evaluate(&naru, test);
        let eu = evaluate(&uae, test);
        eprintln!(
            "[table6] partition {} (window {:.1}-{:.1}): Naru mean {:.3}, UAE mean {:.3}",
            i + 1,
            windows[i].0,
            windows[i].1,
            en.errors.mean,
            eu.errors.mean
        );
        naru_means.push(en.errors.mean);
        uae_means.push(eu.errors.mean);
    }

    println!("\n=== Incremental query workload: stale Naru vs refined UAE (mean q-error) ===");
    print!("{:<22}", "Ingested Partitions");
    for i in 1..=PARTS {
        print!("{i:>10}");
    }
    println!();
    print!("{:<22}", "Naru: mean");
    for m in &naru_means {
        print!("{m:>10.3}");
    }
    println!();
    print!("{:<22}", "UAE: mean");
    for m in &uae_means {
        print!("{m:>10.3}");
    }
    println!();
    println!("\n(total {:.0}s)", t0.elapsed().as_secs_f64());
}
