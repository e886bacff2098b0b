//! The model-fleet experiment (ROADMAP item 4): per-regime and blended
//! q-error of the workload-routed fleet against every single-estimator
//! baseline, across the three single-table regimes of Tables 2–4 —
//! `dmv` (skewed), `census` (correlated) and `kddcup98` (high-dim,
//! mutually-independent groups, the paper's finding (6) regime where the
//! autoregressive tail degrades and SPN-style models thrive).
//!
//! For each regime the fleet's [`Router`] is calibrated on a held-out
//! workload disjoint from both training and test; the test report is
//! per-regime median/p95/max plus the blended (all regimes pooled)
//! median and p95 — the numbers behind EXPERIMENTS.md §fleet and the
//! acceptance inequality the CI routing drill enforces at small scale:
//! the fleet is no worse than the best single estimator on every regime
//! and strictly better than any single estimator blended.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use uae_bench::{prepare_single_table, BenchScale};
use uae_core::{serve_batch, RouteConfig, Router, Uae};
use uae_estimators::{
    BayesNetEstimator, HistogramEstimator, KdeEstimator, LinearRegressionEstimator, MhistEstimator,
    MscnConfig, MscnEstimator, QuickSelEstimator, SamplingEstimator, SpnConfig, SpnEstimator,
    StHolesEstimator,
};
use uae_query::{
    fingerprints, generate_correlated_workload, generate_workload, q_error, CardEstimator,
    CorrelatedSpec, LabeledQuery, Query, WorkloadSpec,
};

const REGIMES: [&str; 4] = ["dmv", "census", "kddcup98", "dmv_corr"];

/// Per-query q-errors of one estimator over a labeled test workload.
fn qerrs(est: &dyn CardEstimator, test: &[LabeledQuery]) -> Vec<f64> {
    let queries: Vec<Query> = test.iter().map(|lq| lq.query.clone()).collect();
    est.estimate_cards(&queries)
        .iter()
        .zip(test)
        .map(|(&e, lq)| q_error(lq.cardinality as f64, e))
        .collect()
}

/// The fleet's per-query q-errors over `test`, served as one routed batch
/// through [`serve_batch`], plus how many replies a backend answered.
fn fleet_qerrs(primary: &Uae, router: &Router, test: &[LabeledQuery]) -> (Vec<f64>, usize) {
    let queries: Vec<Query> = test.iter().map(|lq| lq.query.clone()).collect();
    let replies = serve_batch(primary, Some(router), &queries, None);
    let routed = replies.iter().filter(|(_, tag)| tag.is_some()).count();
    let errs = replies
        .iter()
        .zip(test)
        .map(|((r, _), lq)| q_error(lq.cardinality as f64, r.as_ref().map_or(0.0, |e| e.card)))
        .collect();
    (errs, routed)
}

fn quantile(errs: &[f64], q: f64) -> f64 {
    if errs.is_empty() {
        return f64::INFINITY;
    }
    let mut s = errs.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * q).round() as usize]
}

struct Candidate {
    name: String,
    /// Per-regime q-error vectors, in `REGIMES` order.
    errs: Vec<Vec<f64>>,
}

impl Candidate {
    fn blended(&self) -> Vec<f64> {
        self.errs.iter().flatten().copied().collect()
    }
}

fn main() {
    let scale = BenchScale::from_env();
    let t_all = Instant::now();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut fleet_errs: Vec<Vec<f64>> = Vec::new();

    for (ri, regime) in REGIMES.iter().enumerate() {
        let t0 = Instant::now();
        let seed = 0xF1EE7 ^ (ri as u64 * 0x9E37);
        eprintln!("[fleet] preparing regime `{regime}`…");
        // `dmv_corr` is the correlated-dependency workload over the dmv
        // table (every query pins state/county/date jointly — the regime
        // where independence-factoring models err by construction); the
        // other three are the standard single-table benches, tested on
        // in-workload + random queries. The calibration holdout always
        // matches the tested distribution but never contains test queries.
        let (table, train, holdout, test, sample_ratio) = if *regime == "dmv_corr" {
            let table = uae_data::dmv_like(scale.dmv_rows, seed);
            let mk = |n: usize, s: u64, excl: &HashSet<u64>| {
                let spec = CorrelatedSpec::dmv(&table, n, s).expect("dmv dependency columns");
                generate_correlated_workload(&table, &spec, excl)
            };
            let train = mk(scale.train_queries, seed ^ 0x11, &HashSet::new());
            let excl = fingerprints(&train);
            let holdout = mk(scale.test_queries, seed ^ 0x44, &excl);
            // Same test weight as the other regimes (which pool their
            // in-workload and random halves).
            let test = mk(2 * scale.test_queries, seed ^ 0x55, &excl);
            (table, train, holdout, test, 0.3)
        } else {
            let bench = prepare_single_table(regime, &scale, seed);
            let holdout = generate_workload(
                &bench.table,
                &WorkloadSpec::random(scale.test_queries, seed ^ 0x44),
                &HashSet::new(),
            );
            let test: Vec<LabeledQuery> =
                bench.test_in.iter().chain(&bench.test_random).cloned().collect();
            let sample_ratio = match *regime {
                "dmv" => 0.002_f64.max(400.0 / bench.table.num_rows() as f64),
                "census" => 0.09,
                "kddcup98" => 0.046,
                _ => 0.02,
            }
            .min(1.0);
            (bench.table, bench.train, holdout, test, sample_ratio)
        };

        eprintln!("[fleet] [{regime}] training UAE (hybrid)…");
        let mut uae = Uae::new(&table, scale.uae_config(seed ^ 0x777));
        uae.train_hybrid(&train, scale.hybrid_epochs);

        // The fleet's backends: the cheap data-driven family the router
        // can favor where the deep model's tail degrades.
        let backends: Vec<Arc<dyn CardEstimator>> = vec![
            Arc::new(HistogramEstimator::new(&table, 64)),
            Arc::new(SpnEstimator::new(&table, &SpnConfig::default())),
            Arc::new(SamplingEstimator::new(&table, sample_ratio, seed ^ 1)),
            Arc::new(BayesNetEstimator::new(&table, 128)),
        ];
        eprintln!("[fleet] [{regime}] calibrating router on {} held-out queries…", holdout.len());
        let router = Router::calibrate(
            &table,
            &uae.clone(),
            backends.clone(),
            &holdout,
            RouteConfig::default(),
        );
        eprintln!("[fleet] [{regime}] policy: {:?}", router.policy());
        let primary = uae.clone();

        // Every single-estimator baseline, freshly built per regime.
        let mut singles: Vec<(String, Box<dyn CardEstimator>)> = vec![
            ("UAE".into(), Box::new(uae.clone())),
            ("Histogram".into(), Box::new(HistogramEstimator::new(&table, 64))),
            ("MHist".into(), Box::new(MhistEstimator::new(&table, 1024))),
            ("DeepDB".into(), Box::new(SpnEstimator::new(&table, &SpnConfig::default()))),
            ("BayesNet".into(), Box::new(BayesNetEstimator::new(&table, 128))),
            ("Sampling".into(), Box::new(SamplingEstimator::new(&table, sample_ratio, seed ^ 1))),
            ("KDE".into(), Box::new(KdeEstimator::new(&table, sample_ratio, seed ^ 2))),
            ("LR".into(), Box::new(LinearRegressionEstimator::new(&table, &train, 1e-3))),
            (
                "MSCN-base".into(),
                Box::new(MscnEstimator::new(
                    &table,
                    &train,
                    &MscnConfig { sample_rows: 0, ..MscnConfig::default() },
                )),
            ),
            ("QuickSel".into(), Box::new(QuickSelEstimator::new(&table, &train, 64))),
        ];
        let mut sth = StHolesEstimator::new(&table, 256);
        sth.refine(&train);
        singles.push(("STHoles".into(), Box::new(sth)));

        for (name, est) in &singles {
            let errs = qerrs(est.as_ref(), &test);
            eprintln!(
                "[fleet] [{regime}] {name:<10} median {:.2}  p95 {:.1}",
                quantile(&errs, 0.5),
                quantile(&errs, 0.95),
            );
            match candidates.iter_mut().find(|c| &c.name == name) {
                Some(c) => c.errs.push(errs),
                None => candidates.push(Candidate { name: name.clone(), errs: vec![errs] }),
            }
        }
        let (errs, routed) = fleet_qerrs(&primary, &router, &test);
        eprintln!(
            "[fleet] [{regime}] {:<10} median {:.2}  p95 {:.1}  ({} routed / {} served, {:.0}s)",
            "Fleet",
            quantile(&errs, 0.5),
            quantile(&errs, 0.95),
            routed,
            test.len(),
            t0.elapsed().as_secs_f64(),
        );
        fleet_errs.push(errs);
    }

    // ---- report ----------------------------------------------------------
    println!("\n=== Model fleet: per-regime and blended q-error ===");
    let header: Vec<String> =
        REGIMES.iter().map(|r| format!("{:>22}", format!("{r} (med/p95/max)"))).collect();
    println!("{:<12} | {} | {:>17}", "Model", header.join(" | "), "blended (med/p95)");
    println!("{}", "-".repeat(12 + 3 + REGIMES.len() * 25 + 18));
    let row = |name: &str, errs: &[Vec<f64>]| {
        let per: Vec<String> = errs
            .iter()
            .map(|e| {
                format!(
                    "{:>6.2} {:>7.1} {:>7.0}",
                    quantile(e, 0.5),
                    quantile(e, 0.95),
                    quantile(e, 1.0)
                )
            })
            .collect();
        let blended: Vec<f64> = errs.iter().flatten().copied().collect();
        println!(
            "{:<12} | {} | {:>8.2} {:>8.1}",
            name,
            per.join(" | "),
            quantile(&blended, 0.5),
            quantile(&blended, 0.95),
        );
    };
    for c in &candidates {
        row(&c.name, &c.errs);
    }
    row("UAE-fleet", &fleet_errs);

    // ---- acceptance inequalities ----------------------------------------
    let mut ok = true;
    for (ri, regime) in REGIMES.iter().enumerate() {
        let fleet_med = quantile(&fleet_errs[ri], 0.5);
        let best =
            candidates.iter().map(|c| quantile(&c.errs[ri], 0.5)).fold(f64::INFINITY, f64::min);
        let pass = fleet_med <= best * 1.05; // "no worse": 5% grace for sampling noise
        if !pass {
            ok = false;
        }
        println!(
            "[check] {regime}: fleet median {fleet_med:.2} vs best single {best:.2} — {}",
            if pass { "ok" } else { "FAIL" }
        );
    }
    let fb: Vec<f64> = fleet_errs.iter().flatten().copied().collect();
    let (fm, fp) = (quantile(&fb, 0.5), quantile(&fb, 0.95));
    for c in &candidates {
        let b = c.blended();
        let (m, p) = (quantile(&b, 0.5), quantile(&b, 0.95));
        let pass = fm < m && fp < p;
        if !pass {
            ok = false;
        }
        println!(
            "[check] blended vs {:<10}: fleet {:.2}/{:.1} vs {:.2}/{:.1} — {}",
            c.name,
            fm,
            fp,
            m,
            p,
            if pass { "strictly better" } else { "FAIL" }
        );
    }
    println!(
        "\n(total {:.0}s; verdict: {})",
        t_all.elapsed().as_secs_f64(),
        if ok { "fleet dominates" } else { "fleet does NOT dominate" }
    );
}
