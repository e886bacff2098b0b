//! Checkpoint/resume smoke test: train, checkpoint mid-run, restore into a
//! fresh estimator, finish training, and verify the resumed run reproduces
//! the uninterrupted one bit for bit. Also exercises `--metrics-out`: pass
//! a path to collect per-epoch JSONL telemetry from both runs.
//!
//! ```sh
//! cargo run --release --example train_checkpoint_resume -- \
//!     --metrics-out target/train_metrics.jsonl
//! ```
//!
//! CI runs this as the end-to-end guard on the `UAEC` checkpoint format,
//! and at pool widths 1 and 3 to check that the printed `weights fnv64`
//! digest of the trained model does not depend on the core count.

use std::collections::HashSet;
use std::path::PathBuf;

use uae::core::{JsonlSink, Uae, UaeConfig};
use uae::query::{default_bounded_column, generate_workload, WorkloadSpec};

fn metrics_out() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--metrics-out" {
            return args.next().map(PathBuf::from);
        } else if let Some(p) = a.strip_prefix("--metrics-out=") {
            return Some(PathBuf::from(p));
        }
    }
    None
}

fn attach(uae: &mut Uae, path: Option<&PathBuf>, label: &str) {
    if let Some(p) = path {
        match JsonlSink::append(p, label) {
            Ok(sink) => uae.set_sink(Box::new(sink)),
            Err(e) => eprintln!("warning: cannot open {}: {e}", p.display()),
        }
    }
}

fn main() {
    let metrics = metrics_out();
    const EPOCHS: usize = 6;
    const SPLIT: usize = 3;

    let table = uae::data::census_like(5_000, 42);
    let bounded = default_bounded_column(&table);
    let train =
        generate_workload(&table, &WorkloadSpec::in_workload(bounded, 200, 1), &HashSet::new());

    // Reference: one uninterrupted hybrid run.
    let mut reference = Uae::new(&table, UaeConfig::default());
    attach(&mut reference, metrics.as_ref(), "reference");
    println!("[reference] training {EPOCHS} epochs uninterrupted…");
    let ref_losses = reference.train_hybrid(&train, EPOCHS);

    // Interrupted: train to the split point, write a checkpoint file…
    let ckpt = std::env::temp_dir().join(format!("uae_example_{}.uaec", std::process::id()));
    let mut first = Uae::new(&table, UaeConfig::default());
    attach(&mut first, metrics.as_ref(), "resume");
    println!("[resume]    training {SPLIT} epochs, then checkpointing…");
    let mut losses = first.train_hybrid(&train, SPLIT);
    first.write_checkpoint_file(&ckpt).expect("write checkpoint");
    println!(
        "[resume]    wrote {} ({} bytes, {} steps so far)",
        ckpt.display(),
        std::fs::metadata(&ckpt).expect("checkpoint exists").len(),
        first.train_stats().steps
    );
    drop(first); // the "crash"

    // …and restore into a brand-new process-equivalent estimator.
    let mut resumed = Uae::new(&table, UaeConfig::default());
    resumed.load_checkpoint_file(&ckpt).expect("read checkpoint");
    attach(&mut resumed, metrics.as_ref(), "resume");
    println!("[resume]    restored at epoch {}, finishing…", resumed.train_stats().epochs);
    losses.extend(resumed.train_hybrid(&train, EPOCHS - SPLIT));
    std::fs::remove_file(&ckpt).ok();

    // The two trajectories must agree exactly: same per-epoch losses, same
    // final weights. Anything less means optimizer or RNG state leaked.
    assert_eq!(ref_losses.len(), losses.len());
    for (e, (a, b)) in ref_losses.iter().zip(&losses).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "epoch {e} loss diverged: {a} vs {b}");
    }
    assert_eq!(
        reference.save_weights(),
        resumed.save_weights(),
        "final weights diverged after resume"
    );
    // The trained bits must not depend on the core count either: CI runs
    // this at two `UAE_POOL_THREADS` widths and compares this line.
    let fnv64 = reference
        .save_weights()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    println!("weights fnv64 {fnv64:016x}");
    println!("\nOK: resumed run is bit-exact with the uninterrupted run");
    println!("per-epoch loss: {losses:.3?}");
    if let Some(p) = &metrics {
        println!("per-epoch metrics appended to {}", p.display());
    }
}
