//! The paper's evaluation (§IV) as asserted claims: every table of
//! `communix::evaluation` is held to its predicate, and every predicate
//! is shown to reject the rows a broken mechanism would produce — so a
//! green run means the reproduction holds, not that nothing looked.
//!
//! Only deterministic quantities are involved (counts, suspensions,
//! virtual time, seeded means, encoded lengths), so the whole table is
//! also computed twice and required to be equal field for field.

use std::sync::LazyLock;

use communix::evaluation::*;
use communix::workloads::EncounterModel;

#[derive(Debug, PartialEq)]
struct Evaluation {
    table1: Vec<NestingRow>,
    table2: Vec<OverheadRow>,
    depth_sweep: Vec<DepthRow>,
    generalization: Vec<CoverageRow>,
    adaptive_threshold: ThresholdRow,
    protection_time: Vec<ProtectionRow>,
    history_bound: HistoryBound,
    fig3_traffic: TrafficRow,
}

fn compute() -> Evaluation {
    Evaluation {
        table1: table1(),
        table2: table2(),
        depth_sweep: depth_sweep(),
        generalization: generalization(),
        adaptive_threshold: adaptive_threshold(),
        protection_time: protection_time(),
        history_bound: history_bound(),
        fig3_traffic: fig3_traffic(),
    }
}

/// Computed once for every test below; the determinism test computes a
/// second one beside it.
static FIRST: LazyLock<Evaluation> = LazyLock::new(compute);

#[test]
fn table1_nesting_counts_equal_the_paper() {
    let rows = &FIRST.table1;
    assert!(table1_holds(rows), "{rows:#?}");
    let counts: Vec<_> = rows.iter().map(|r| (r.nested, r.analyzed)).collect();
    assert_eq!(counts, [(249, 844), (277, 781), (120, 432)]);

    let mut misclassified = rows.clone();
    misclassified[2].nested += 1;
    assert!(!table1_holds(&misclassified));
}

#[test]
fn table2_overheads_match_the_paper_in_size_and_order() {
    let rows = &FIRST.table2;
    assert_eq!(rows.len(), 5);
    assert!(table2_holds(rows), "{rows:#?}");

    // The depth rule buys nothing: depth 1 no worse than depth 5.
    let mut no_depth_effect = rows.clone();
    for r in &mut no_depth_effect {
        r.depth1 = r.depth5;
    }
    assert!(!table2_holds(&no_depth_effect));
    // Signatures away from the critical path cost something.
    let mut off_path_costs = rows.clone();
    off_path_costs[0].off_path = 0.02;
    assert!(!table2_holds(&off_path_costs));
    // A driver drifts ten points from its paper row.
    let mut drifted = rows.clone();
    drifted[3].depth5 += 0.10;
    assert!(!table2_holds(&drifted));
    // The rows come out of the paper's order.
    let mut reordered = rows.clone();
    reordered.swap(0, 1);
    assert!(!table2_holds(&reordered));
}

#[test]
fn depth_sweep_cost_falls_with_outer_depth() {
    let rows = &FIRST.depth_sweep;
    let depths: Vec<_> = rows.iter().map(|r| r.depth).collect();
    assert_eq!(depths, [1, 2, 3, 4, 5]);
    assert!(depth_sweep_holds(rows), "{rows:#?}");

    let mut flat = rows.clone();
    for r in &mut flat {
        (r.overhead, r.suspensions) = (rows[4].overhead, rows[4].suspensions);
    }
    assert!(!depth_sweep_holds(&flat));
    let mut rising = rows.clone();
    rising[3].suspensions = rows[0].suspensions + 1;
    assert!(!depth_sweep_holds(&rising));
}

#[test]
fn generalization_covers_every_path_from_the_second_manifestation() {
    let rows = &FIRST.generalization;
    assert_eq!(rows.len(), 6);
    assert!(generalization_holds(rows), "{rows:#?}");
    assert_eq!((rows[1].merged, rows[1].unmerged), (6, 2));

    // Merging adds nothing: the unmerged history covers all paths too.
    let mut unmerged_covers_all = rows.clone();
    for r in &mut unmerged_covers_all {
        r.unmerged = rows.len();
    }
    assert!(!generalization_holds(&unmerged_covers_all));
    // Merging does not generalise: one path per manifestation.
    let mut no_generalization = rows.clone();
    for r in &mut no_generalization {
        r.merged = r.collected;
    }
    assert!(!generalization_holds(&no_generalization));
}

#[test]
fn adaptive_threshold_admits_what_the_fixed_rule_rejects() {
    let row = &FIRST.adaptive_threshold;
    assert!(adaptive_threshold_holds(row), "{row:#?}");

    let both_reject = ThresholdRow {
        adaptive_accepts: false,
        ..row.clone()
    };
    assert!(!adaptive_threshold_holds(&both_reject));
    let fixed_rule_is_enough = ThresholdRow {
        fixed_accepts: true,
        ..row.clone()
    };
    assert!(!adaptive_threshold_holds(&fixed_rule_is_enough));
}

#[test]
fn protection_time_follows_the_closed_forms() {
    let rows = &FIRST.protection_time;
    assert_eq!(rows.len(), 11);
    assert!(protection_time_holds(rows), "{rows:#?}");
    let community = rows
        .iter()
        .position(|r| r.shape.0 == 100)
        .expect("Nu = 100");
    let uniform = |r: &ProtectionRow| r.model == EncounterModel::UniformRandom;
    let overlapping = rows.iter().position(uniform).expect("ablation rows");

    // Sharing signatures buys nothing.
    let mut no_sharing = rows.clone();
    no_sharing[community].communix_days = rows[community].dimmunix_days;
    assert!(!protection_time_holds(&no_sharing));
    // Overlapping users pay no coupon-collector penalty.
    let mut no_penalty = rows.clone();
    let (users, manifestations, mean_days) = rows[overlapping].shape;
    no_penalty[overlapping].communix_days = mean_days * manifestations as f64 / users as f64;
    assert!(!protection_time_holds(&no_penalty));
    // A larger community is no faster than a smaller one.
    let mut saturated = rows.clone();
    saturated[community].communix_days = rows[community - 1].communix_days;
    assert!(!protection_time_holds(&saturated));
}

#[test]
fn history_is_bounded_by_nested_sites_and_a_second_startup_is_free() {
    let bound = &FIRST.history_bound;
    assert!(history_bound_holds(bound), "{bound:#?}");

    let one_entry_per_signature = HistoryBound {
        history_entries: bound.crafted,
        ..bound.clone()
    };
    assert!(!history_bound_holds(&one_entry_per_signature));
    let second_startup_reinspects = HistoryBound {
        reinspected: bound.crafted,
        ..bound.clone()
    };
    assert!(!history_bound_holds(&second_startup_reinspects));
}

#[test]
fn fig3_tenth_round_traffic_is_near_630_mb() {
    let row = &FIRST.fig3_traffic;
    assert!(fig3_traffic_holds(row), "{row:#?}");

    // Incremental GET(n) instead of GET(0): a round's replies carry
    // only that round, a twentieth of the figure.
    let incremental = TrafficRow {
        bytes: row.bytes / 20,
        ..row.clone()
    };
    assert!(!fig3_traffic_holds(&incremental));
}

#[test]
fn computing_the_evaluation_twice_gives_equal_rows() {
    // Computed before touching `FIRST`, so the two run side by side.
    let second = compute();
    assert_eq!(*FIRST, second);
}
