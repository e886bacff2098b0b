//! Property tests of the dataset generators and statistics: the
//! substitution argument of DESIGN.md §1 depends on these invariants
//! holding at every scale and seed.

use proptest::prelude::*;
use uae_data::stats::{dataset_skewness, ncie};
use uae_data::{census_like, dmv_large_like, dmv_like, kddcup_like, Table};

fn check_table_well_formed(t: &Table) {
    for c in t.columns() {
        assert_eq!(c.codes().len(), t.num_rows());
        // Dictionary strictly ascending, codes in range.
        assert!(c.dict().windows(2).all(|w| w[0] < w[1]));
        let d = c.domain_size() as u32;
        assert!(c.codes().iter().all(|&code| code < d));
        // Every dictionary entry is actually used (domains are the values
        // present, per the paper's §3 convention).
        let mut used = vec![false; c.domain_size()];
        for &code in c.codes() {
            used[code as usize] = true;
        }
        assert!(used.iter().all(|&u| u), "column {} has unused dictionary entries", c.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn generators_produce_well_formed_tables(rows in 200usize..1500, seed in 0u64..1000) {
        for t in [
            dmv_like(rows, seed),
            census_like(rows, seed),
            kddcup_like(rows, 30, seed),
        ] {
            prop_assert_eq!(t.num_rows(), rows);
            check_table_well_formed(&t);
        }
    }

    #[test]
    fn generators_are_deterministic(seed in 0u64..1000) {
        let a = dmv_like(400, seed);
        let b = dmv_like(400, seed);
        for c in 0..a.num_cols() {
            prop_assert_eq!(a.column(c).codes(), b.column(c).codes());
        }
    }

    #[test]
    fn different_seeds_differ(seed in 0u64..1000) {
        let a = census_like(500, seed);
        let b = census_like(500, seed ^ 0xdead_beef);
        let any_diff =
            (0..a.num_cols()).any(|c| a.column(c).codes() != b.column(c).codes());
        prop_assert!(any_diff);
    }
}

#[test]
fn characterization_statistics_order_datasets_like_the_paper() {
    // Paper §5.1.1: NCIE(dmv)=0.23 > NCIE(census)=0.15; kdd has the most
    // correlation per its groups (0.32) but here groups are sparser —
    // require only dmv > census, the ordering the findings depend on.
    let dmv = dmv_like(8_000, 3);
    let census = census_like(8_000, 3);
    assert!(ncie(&dmv, 8) > ncie(&census, 8));
    assert!(dataset_skewness(&dmv) > dataset_skewness(&census));
}

#[test]
fn dmv_large_extends_dmv() {
    let t = dmv_large_like(2_000, 9);
    check_table_well_formed(&t);
    assert_eq!(t.num_cols(), 16);
    // Paper: includes a 100%-unique column.
    assert!(t.domain_sizes().contains(&2_000));
}

#[test]
fn domain_spectrum_matches_paper() {
    // DMV: 2..2101 (here: up to 2101 dictionary capacity; at 20K rows the
    // date column fills most of it); Kddcup: 2..43.
    let dmv = dmv_like(20_000, 1);
    let sizes = dmv.domain_sizes();
    assert!(sizes.contains(&2));
    assert!(sizes.iter().any(|&s| s > 1_000));
    let kdd = kddcup_like(3_000, 100, 1);
    assert!(kdd.domain_sizes().iter().all(|&s| (2..=43).contains(&s)));
}
