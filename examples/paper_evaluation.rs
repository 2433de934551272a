//! The paper's evaluation (§IV), recomputed and checked: every row of
//! `communix::evaluation` next to the paper's statement, and whether
//! the claim it is held to holds. Exits non-zero on a failed claim.
//!
//! Run with: `cargo run --release --example paper_evaluation`

use std::fmt::Debug;
use std::process::ExitCode;
use std::slice::from_ref;

use communix::evaluation as eval;

fn show<R: Debug>(title: &str, paper: &str, rows: &[R], holds: bool) -> bool {
    println!("{title}\n  paper: {paper}");
    for row in rows {
        println!("  {row:.3?}");
    }
    println!("  => {}\n", if holds { "holds" } else { "FAILED" });
    holds
}

fn main() -> ExitCode {
    let (t1, t2, depths) = (eval::table1(), eval::table2(), eval::depth_sweep());
    let (coverage, threshold) = (eval::generalization(), eval::adaptive_threshold());
    let (days, bound) = (eval::protection_time(), eval::history_bound());
    let traffic = eval::fig3_traffic();
    let verdicts = [
        show(
            "Table I — nesting analysis (§III-C3) over the generated applications",
            "JBoss 249 nested of 844 analyzed; Limewire 277 (781); Vuze 120 (432)",
            &t1,
            eval::table1_holds(&t1),
        ),
        show(
            "Table II — worst-case overhead under a signature DoS attack (virtual time)",
            "depth-5 attack 40/38/33/10/8%; depth 1 would exceed 100%; off-path < 2%",
            &t2,
            eval::table2_holds(&t2),
        ),
        show(
            "Depth sweep — RUBiS overhead vs. outer-stack depth of the attack",
            "shallower stacks match more flows, hence the agent's depth-≥5 rule",
            &depths,
            eval::depth_sweep_holds(&depths),
        ),
        show(
            "Generalisation (§III-D) — paths of a six-path bug covered, merged vs. unmerged",
            "merged manifestations cover unseen paths; unmerged, each must be collected",
            &coverage,
            eval::generalization_holds(&coverage),
        ),
        show(
            "Adaptive threshold (§III-C1) — honest depth-1 signature at an entry-level site",
            "the fixed depth-5 rule rejects it; min(d, 5) admits it",
            from_ref(&threshold),
            eval::adaptive_threshold_holds(&threshold),
        ),
        show(
            "§IV-C — days to full protection (seeded Monte-Carlo)",
            "Dimmunix alone ≈ t·Nd; Communix ≈ t·Nd/Nu; uniform rediscovery pays H(Nd)",
            &days,
            eval::protection_time_holds(&days),
        ),
        show(
            "History bound (§IV-B, Figure 4) — 4·N crafted-valid signatures, two start-ups",
            "an attacker cannot add more than N entries; no new signatures, no work",
            from_ref(&bound),
            eval::history_bound_holds(&bound),
        ),
        show(
            "Figure 3 traffic — tenth-round GET(0) replies at N = 200 (codec bytes)",
            "≈ 630 MB",
            from_ref(&traffic),
            eval::fig3_traffic_holds(&traffic),
        ),
    ];
    ExitCode::from(u8::from(verdicts.contains(&false)))
}
