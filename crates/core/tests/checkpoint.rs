//! Trainer checkpoint/resume and divergence-guard properties:
//!
//! * **Bit-exact resume** — training k epochs, checkpointing, restoring
//!   into a fresh estimator and training N−k more epochs must reproduce
//!   the weights *and* the per-epoch losses of an uninterrupted N-epoch
//!   run, byte for byte. This is what `UAEC` adds over the weights-only
//!   `UAEW` format: Adam moments, RNG streams, and the step cursor.
//! * **Divergence protection** — an injected non-finite loss must be
//!   skipped (weights untouched), and a sustained streak must roll the
//!   model back to its last-good snapshot with a learning-rate backoff;
//!   non-finite values never reach the weights.
//! * **Rejection** — truncated/corrupt/version-mismatched checkpoint
//!   bytes fail with typed errors and leave the estimator untouched.

use std::collections::HashSet;

use uae_core::{
    DpsConfig, Event, LoadError, MemorySink, ResMadeConfig, TrainConfig, Uae, UaeConfig,
};
use uae_data::census_like;
use uae_query::{generate_workload, LabeledQuery, WorkloadSpec};

fn quick_cfg(seed: u64) -> UaeConfig {
    UaeConfig {
        model: ResMadeConfig { hidden: 24, blocks: 1, seed: 5 },
        factor_threshold: usize::MAX,
        order: uae_core::ColumnOrder::Natural,
        encoding: uae_core::encoding::EncodingMode::Binary,
        train: TrainConfig {
            batch_size: 128,
            query_batch: 8,
            dps: DpsConfig { tau: 1.0, samples: 8 },
            seed,
            ..TrainConfig::default()
        },
        estimate_samples: 50,
        serve: uae_core::ServeConfig::default(),
    }
}

fn setup() -> (uae_data::Table, Vec<LabeledQuery>) {
    let t = census_like(900, 3);
    let col = uae_query::default_bounded_column(&t);
    let w = generate_workload(&t, &WorkloadSpec::in_workload(col, 40, 17), &HashSet::new());
    (t, w)
}

#[test]
fn resume_is_bit_exact_for_hybrid_training() {
    let (t, w) = setup();
    const N: usize = 5;
    const K: usize = 2;

    // Uninterrupted reference run.
    let mut full = Uae::new(&t, quick_cfg(3));
    let full_losses = full.train_hybrid(&w, N);

    // Interrupted run: k epochs, checkpoint, restore into a FRESH
    // estimator, n−k more epochs.
    let mut part = Uae::new(&t, quick_cfg(3));
    let mut part_losses = part.train_hybrid(&w, K);
    let blob = part.save_checkpoint();
    let mut resumed = Uae::new(&t, quick_cfg(3));
    resumed.load_checkpoint(&blob).expect("restore");
    assert_eq!(resumed.train_stats().epochs, K as u64, "epoch cursor must survive");
    part_losses.extend(resumed.train_hybrid(&w, N - K));

    // Per-epoch losses identical, bitwise.
    assert_eq!(full_losses.len(), part_losses.len());
    for (e, (a, b)) in full_losses.iter().zip(&part_losses).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "epoch {e}: {a} vs {b}");
    }
    // Weights identical, bytewise.
    assert_eq!(full.save_weights(), resumed.save_weights());
    assert_eq!(full.train_stats(), resumed.train_stats());
    // And the estimation streams line up too (est RNG is checkpointed).
    for lq in w.iter().take(5) {
        let a = full.estimate_selectivity(&lq.query);
        let b = resumed.estimate_selectivity(&lq.query);
        assert_eq!(a.to_bits(), b.to_bits(), "estimates must match bit-for-bit");
    }
}

#[test]
fn resume_is_bit_exact_for_data_only_training() {
    let (t, _) = setup();
    let mut full = Uae::new(&t, quick_cfg(9));
    let full_losses = full.train_data(4);

    let mut part = Uae::new(&t, quick_cfg(9));
    let mut losses = part.train_data(1);
    let mut resumed = Uae::new(&t, quick_cfg(9));
    resumed.load_checkpoint(&part.save_checkpoint()).expect("restore");
    losses.extend(resumed.train_data(3));

    assert_eq!(full_losses, losses);
    assert_eq!(full.save_weights(), resumed.save_weights());
}

#[test]
fn weights_only_restore_is_not_bit_exact() {
    // The negative control: restoring weights WITHOUT optimizer/RNG state
    // (the pre-UAEC behavior) diverges from the uninterrupted run — this
    // is exactly the gap the checkpoint format closes.
    let (t, w) = setup();
    let mut full = Uae::new(&t, quick_cfg(3));
    full.train_hybrid(&w, 4);

    let mut part = Uae::new(&t, quick_cfg(3));
    part.train_hybrid(&w, 2);
    let mut resumed = Uae::new(&t, quick_cfg(3));
    resumed.load_weights(&part.save_weights()).expect("load");
    resumed.train_hybrid(&w, 2);

    assert_ne!(
        full.save_weights(),
        resumed.save_weights(),
        "weights-only resume should NOT reproduce the uninterrupted trajectory"
    );
}

#[test]
fn checkpoint_file_round_trip_is_atomic_and_exact() {
    let (t, w) = setup();
    let dir = std::env::temp_dir().join(format!("uae_ckpt_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.uaec");

    let mut a = Uae::new(&t, quick_cfg(4));
    a.train_hybrid(&w, 2);
    a.write_checkpoint_file(&path).expect("write");
    // Overwrite with a later checkpoint — the rename must replace cleanly.
    a.train_hybrid(&w, 1);
    a.write_checkpoint_file(&path).expect("rewrite");

    let mut b = Uae::new(&t, quick_cfg(4));
    b.load_checkpoint_file(&path).expect("read");
    assert_eq!(a.save_weights(), b.save_weights());
    assert_eq!(a.train_stats(), b.train_stats());
    assert!(!dir.join("model.uaec.tmp").exists(), "atomic write must not leave temp files behind");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoints_are_rejected_and_leave_state_untouched() {
    let (t, w) = setup();
    let mut a = Uae::new(&t, quick_cfg(5));
    a.train_hybrid(&w, 1);
    let blob = a.save_checkpoint();

    let mut b = Uae::new(&t, quick_cfg(5));
    let pristine = b.save_weights();

    // Garbage magic.
    assert_eq!(b.load_checkpoint(b"nope"), Err(LoadError::BadMagic));
    // A weights blob is not a checkpoint.
    assert_eq!(b.load_checkpoint(&a.save_weights()), Err(LoadError::BadMagic));
    // Version bump.
    let mut v = blob.clone();
    v[4] = 42;
    assert_eq!(b.load_checkpoint(&v), Err(LoadError::BadVersion(42)));
    // Truncations at every section boundary-ish offset.
    for cut in [6, 20, blob.len() / 2, blob.len() - 1] {
        assert!(
            matches!(b.load_checkpoint(&blob[..cut]), Err(LoadError::Corrupt(_))),
            "truncation at {cut} must be Corrupt"
        );
    }
    // Trailing junk.
    let mut ext = blob.clone();
    ext.extend_from_slice(b"xx");
    assert!(matches!(b.load_checkpoint(&ext), Err(LoadError::Corrupt(_))));
    // Architecture mismatch (different hidden width) → ShapeMismatch.
    let mut cfg = quick_cfg(5);
    cfg.model.hidden = 16;
    let mut other = Uae::new(&t, cfg);
    assert!(matches!(other.load_checkpoint(&blob), Err(LoadError::ShapeMismatch(_))));
    // Every rejection left the estimator's weights untouched.
    assert_eq!(b.save_weights(), pristine);
}

#[test]
fn bit_flipped_checkpoints_fail_the_checksum_and_leave_state_untouched() {
    let (t, w) = setup();
    let mut a = Uae::new(&t, quick_cfg(10));
    a.train_hybrid(&w, 1);
    let blob = a.save_checkpoint();

    let mut b = Uae::new(&t, quick_cfg(10));
    let pristine = b.save_weights();

    // A single flipped bit anywhere in the body still parses structurally
    // — only the trailing checksum can catch it. Sweep a few offsets:
    // inside the nested weights blob, in the Adam moments, in the stats.
    for off in [20, blob.len() / 3, blob.len() / 2, blob.len() - 12] {
        let mut bad = blob.clone();
        bad[off] ^= 0x10;
        assert_eq!(
            b.load_checkpoint(&bad),
            Err(LoadError::ChecksumMismatch),
            "flip at byte {off} must be caught"
        );
    }
    // Damaging the checksum itself is the same failure.
    let mut bad = blob.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    assert_eq!(b.load_checkpoint(&bad), Err(LoadError::ChecksumMismatch));

    // Header flips keep their more specific diagnoses.
    let mut bad = blob.clone();
    bad[0] = b'X';
    assert_eq!(b.load_checkpoint(&bad), Err(LoadError::BadMagic));
    let mut bad = blob.clone();
    bad[5] = 1;
    assert!(matches!(b.load_checkpoint(&bad), Err(LoadError::BadVersion(_))));

    // None of the rejections moved the estimator, and the pristine blob
    // still loads afterwards.
    assert_eq!(b.save_weights(), pristine);
    b.load_checkpoint(&blob).expect("clean blob loads");
    assert_eq!(b.save_weights(), a.save_weights());
}

#[test]
fn truncated_checkpoint_file_is_rejected_with_a_typed_error() {
    let (t, w) = setup();
    let dir = std::env::temp_dir().join(format!("uae_ckpt_trunc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.uaec");

    let mut a = Uae::new(&t, quick_cfg(11));
    a.train_hybrid(&w, 1);
    a.write_checkpoint_file(&path).expect("write");

    // Simulate a torn write by truncating the file on disk.
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() * 2 / 3]).unwrap();

    let mut b = Uae::new(&t, quick_cfg(11));
    let pristine = b.save_weights();
    match b.load_checkpoint_file(&path) {
        Err(uae_core::CheckpointError::Load(LoadError::Corrupt(_))) => {}
        other => panic!("truncated file must be Load(Corrupt(..)), got {other:?}"),
    }
    assert_eq!(b.save_weights(), pristine, "failed load must not touch the model");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_moment_count_is_a_typed_error() {
    // The Adam moment count is read before the checksum is checked, so a
    // flipped high bit must be refused before it sizes an allocation.
    // Layout: magic, version, weights length, weights, Adam step, count.
    let (t, w) = setup();
    let mut a = Uae::new(&t, quick_cfg(13));
    a.train_hybrid(&w, 1);
    let blob = a.save_checkpoint();
    let weights_len = u32::from_le_bytes(blob[8..12].try_into().unwrap()) as usize;
    let count_at = 12 + weights_len + 8;

    let mut b = Uae::new(&t, quick_cfg(13));
    let pristine = b.save_weights();
    for bit in 0..32 {
        let mut bad = blob.clone();
        bad[count_at + bit / 8] ^= 1 << (bit % 8);
        assert!(
            matches!(
                b.load_checkpoint(&bad),
                Err(LoadError::Corrupt(_) | LoadError::ChecksumMismatch)
            ),
            "flip of count bit {bit} must be a typed error"
        );
    }
    assert_eq!(b.save_weights(), pristine, "no rejection may touch the model");
    b.load_checkpoint(&blob).expect("the pristine blob still loads");
}

#[test]
fn checkpoint_corruption_matrix_always_yields_typed_errors() {
    // The exhaustive reader-robustness drill: every prefix truncation and
    // a dense stride of single-byte flips over a real UAEC blob must come
    // back as a typed LoadError — never a panic, never a partial load —
    // and the pristine blob must still load afterwards (recovery from the
    // last good artifact).
    let (t, w) = setup();
    let mut a = Uae::new(&t, quick_cfg(12));
    a.train_hybrid(&w, 1);
    let blob = a.save_checkpoint();

    let mut b = Uae::new(&t, quick_cfg(12));
    let pristine = b.save_weights();

    for cut in 0..blob.len() {
        assert!(
            b.load_checkpoint(&blob[..cut]).is_err(),
            "truncation at byte {cut} must be rejected"
        );
    }
    // Dense stride over the body (co-prime with typical field sizes so
    // every alignment class is hit), plus both ends exactly.
    let stride = 97usize;
    let offsets = (0..blob.len()).step_by(stride).chain([blob.len() - 1]);
    for off in offsets {
        let mut bad = blob.clone();
        bad[off] ^= 0x20;
        assert!(b.load_checkpoint(&bad).is_err(), "bit flip at byte {off} must be rejected");
    }

    assert_eq!(b.save_weights(), pristine, "no rejection may touch the model");
    b.load_checkpoint(&blob).expect("the pristine blob still loads");
    assert_eq!(b.save_weights(), a.save_weights());
}

#[test]
fn injected_nan_steps_are_skipped_and_weights_stay_finite() {
    let (t, w) = setup();
    let mut cfg = quick_cfg(6);
    // One clean epoch (7 data steps on 900 rows @128), then poison three
    // consecutive steps of epoch 2 → skip, skip, skip-and-rollback.
    cfg.train.inject_nan_steps = vec![8, 9, 10];
    cfg.train.max_bad_steps = 3;
    let lr0 = cfg.train.lr;
    let mut uae = Uae::new(&t, cfg);
    let (sink, log) = MemorySink::new();
    uae.set_sink(Box::new(sink));

    let losses = uae.train_hybrid(&w, 3);

    // The trainer survived: every reported loss and every weight finite.
    assert!(losses.iter().all(|l| l.is_finite()), "losses {losses:?}");
    let schema = uae_core::VirtualSchema::build(&t, usize::MAX);
    let mut store = uae_tensor::ParamStore::new();
    let _net = uae_core::ResMade::new(&mut store, &schema, &quick_cfg(6).model);
    uae_core::serialize::load_params(&mut store, &uae.save_weights()).expect("same architecture");
    for id in store.ids() {
        assert!(
            store.get(id).data().iter().all(|v| v.is_finite()),
            "no non-finite value may survive in the weights"
        );
    }
    let stats = uae.train_stats();
    assert_eq!(stats.skipped_steps, 3, "all three poisoned steps skipped");
    assert_eq!(stats.rollbacks, 1, "streak of 3 triggers exactly one rollback");
    assert!(uae.train_config_mut().lr < lr0, "rollback must back the learning rate off");

    // Telemetry reported the incidents in order.
    let events = log.lock().unwrap();
    let skips: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::StepSkipped { step, .. } => Some(*step),
            _ => None,
        })
        .collect();
    assert_eq!(skips, vec![8, 9, 10]);
    assert!(events.iter().any(|e| matches!(e, Event::Rollback { .. })));
    // Epoch metrics: the poisoned epoch reports its skips and divides the
    // loss over *executed* steps only (a skipped step contributes no
    // deflating zero).
    let epochs: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Epoch(m) => Some(m.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(epochs.len(), 3);
    let poisoned = &epochs[1];
    assert_eq!(poisoned.skipped_steps, 3);
    assert_eq!(poisoned.executed_steps + poisoned.skipped_steps, poisoned.steps);
    assert!(poisoned.loss.is_finite());
    // Clean epochs around it skipped nothing.
    assert_eq!(epochs[0].skipped_steps, 0);
    assert_eq!(epochs[2].skipped_steps, 0);
}

#[test]
fn skipped_steps_do_not_deflate_the_epoch_loss() {
    // Same model/seed, one run clean and one with half of epoch 1's steps
    // poisoned: under the old `total / steps` accounting the poisoned run
    // would report roughly half the loss; over executed steps it stays in
    // the same band as the clean run.
    let (t, _) = setup();
    let mut clean = Uae::new(&t, quick_cfg(7));
    let clean_loss = clean.train_data(1)[0];

    let mut cfg = quick_cfg(7);
    cfg.train.inject_nan_steps = vec![0, 2, 4]; // 3 of the 8 steps of epoch 1
    cfg.train.max_bad_steps = 0; // skip-only: isolates the averaging fix
    let mut poisoned = Uae::new(&t, cfg);
    let poisoned_loss = poisoned.train_data(1)[0];

    assert_eq!(poisoned.train_stats().skipped_steps, 3);
    assert_eq!(poisoned.train_stats().rollbacks, 0);
    assert!(
        poisoned_loss > clean_loss * 0.8,
        "epoch loss must be averaged over executed steps only: clean {clean_loss}, \
         poisoned {poisoned_loss}"
    );
}

#[test]
fn all_steps_skipped_reports_zero_loss_and_untouched_weights() {
    let (t, _) = setup();
    let mut cfg = quick_cfg(8);
    cfg.train.inject_nan_steps = (0..32).collect();
    cfg.train.max_bad_steps = 0;
    let mut uae = Uae::new(&t, cfg);
    let before = uae.save_weights();
    let losses = uae.train_data(1);
    assert_eq!(losses, vec![0.0], "no executed steps → zero mean, not NaN");
    assert_eq!(uae.save_weights(), before, "skipped steps must leave the weights untouched");
}
