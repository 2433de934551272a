//! Attacker models (§III-C1, §IV-B).
//!
//! Two families of attack are modelled:
//!
//! * **Slow-down attacks** against Dimmunix's avoidance: fake signatures
//!   whose outer stacks cover the nested synchronized sections on an
//!   application's critical path. The deeper the stacks, the fewer
//!   execution flows they match: the agent's depth-≥5 rule caps the
//!   damage at the depth-5 level (Table II: 8–40%), while depth-1
//!   signatures — which the agent rejects — would cost far more (>100%).
//! * **Flooding attacks** against the server and the history: bursts of
//!   fake signatures meant to bloat databases and histories. Contained by
//!   the encrypted-id requirement, the adjacency rule, the 10-per-day
//!   budget, and the nesting check (at most N signatures stick, where N
//!   is the number of nested sync sites).

use communix_crypto::sha256;
use communix_dimmunix::{CallStack, Frame, SigEntry, Signature};

use crate::drivers::Section;

/// Outer-stack depth of the generated attack signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackDepth {
    /// Depth-5 stacks (the deepest the agent will accept from an
    /// attacker exploiting the generalization floor).
    Five,
    /// Depth-1 stacks (the §IV-B "considerable overhead" attack; the
    /// agent rejects these, this variant exists to measure what they
    /// *would* cost).
    One,
}

/// A set of malicious signatures plus bookkeeping about what they cover.
#[derive(Debug, Clone)]
pub struct AttackPlan {
    sigs: Vec<Signature>,
    covered_sections: usize,
    depth: AttackDepth,
}

impl AttackPlan {
    /// The signatures, ready to be injected into a history or sent to a
    /// server.
    pub fn signatures(&self) -> &[Signature] {
        &self.sigs
    }

    /// Number of signatures in the plan.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Number of distinct sections the plan's outer stacks cover.
    pub fn covered_sections(&self) -> usize {
        self.covered_sections
    }

    /// The configured stack depth.
    pub fn depth(&self) -> AttackDepth {
        self.depth
    }

    /// The signatures as a [`communix_dimmunix::History`] (the state an
    /// application ends up in if all of them pass validation).
    pub fn as_history(&self) -> communix_dimmunix::History {
        self.sigs.iter().cloned().collect()
    }
}

/// Builds attack plans.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttackerFactory;

impl AttackerFactory {
    /// Creates a factory.
    pub fn new() -> Self {
        AttackerFactory
    }

    /// The Table II attack: `count` two-entry signatures pairing up the
    /// given critical-path sections, with outer stacks of the chosen
    /// depth. Sections are paired round-robin so every section is
    /// covered ("these outer calls are on the critical path, i.e., more
    /// than 99% of the nested synchronized blocks/methods are executed
    /// with these call stacks").
    ///
    /// # Panics
    ///
    /// Panics if `sections` has fewer than two entries.
    pub fn critical_path_attack(
        &self,
        sections: &[&Section],
        count: usize,
        depth: AttackDepth,
    ) -> AttackPlan {
        assert!(sections.len() >= 2, "need at least two sections to pair");
        let stack = |s: &Section| -> CallStack {
            match depth {
                AttackDepth::Five => s.critical_stack.clone(),
                AttackDepth::One => s.top_only_stack.clone(),
            }
        };
        let mut sigs = Vec::with_capacity(count);
        let mut covered = std::collections::BTreeSet::new();
        for k in 0..count {
            let a = sections[k % sections.len()];
            let b = sections[(k + 1) % sections.len()];
            covered.insert(a.index);
            covered.insert(b.index);
            sigs.push(Signature::remote(vec![
                SigEntry::new(stack(a), a.inner_stack.clone()),
                SigEntry::new(stack(b), b.inner_stack.clone()),
            ]));
        }
        AttackPlan {
            sigs,
            covered_sections: covered.len(),
            depth,
        }
    }

    /// The off-critical-path control: signatures over sections the
    /// workload never executes. The paper reports < 2% overhead for
    /// these.
    ///
    /// # Panics
    ///
    /// Panics if `cold_sections` has fewer than two entries.
    pub fn off_path_attack(&self, cold_sections: &[&Section], count: usize) -> AttackPlan {
        self.critical_path_attack(cold_sections, count, AttackDepth::Five)
    }

    /// A flooding signature: syntactically valid, two entries, depth-6
    /// outer stacks, with top frames unique to `(user_tag, k)` so that
    /// distinct floods are neither duplicates nor adjacent (each one
    /// costs the attacker one unit of daily budget).
    pub fn flood_signature(&self, user_tag: u64, k: u64) -> Signature {
        let mk_stack = |role: &str, salt: u64| -> CallStack {
            (0..6)
                .map(|d| {
                    Frame::with_hash(
                        format!("atk.u{user_tag}.Flood{k}"),
                        format!("{role}{d}"),
                        (salt * 100 + d) as u32,
                        sha256(format!("flood:{user_tag}:{k}:{role}:{d}").as_bytes()),
                    )
                })
                .collect()
        };
        Signature::remote(vec![
            SigEntry::new(mk_stack("out_a", 1), mk_stack("in_a", 2)),
            SigEntry::new(mk_stack("out_b", 3), mk_stack("in_b", 4)),
        ])
    }

    /// A signature *adjacent* to [`AttackerFactory::flood_signature`]
    /// `(user_tag, k)`: it shares that signature's first entry (same top
    /// frames) but has a fresh second entry. The server must reject it
    /// when sent by the same user (§III-C2).
    pub fn adjacent_flood_signature(&self, user_tag: u64, k: u64) -> Signature {
        let base = self.flood_signature(user_tag, k);
        let fresh = self.flood_signature(user_tag ^ 0xDEAD_BEEF, k.wrapping_add(7777));
        Signature::remote(vec![base.entries()[0].clone(), fresh.entries()[1].clone()])
    }

    /// The §IV-B flood volume: `attackers × ids_per_attacker × 10`
    /// signatures, tagged by (attacker, id, slot) — what 100 attackers
    /// holding 5 ids each can push through the server in one day.
    pub fn daily_flood(
        &self,
        attackers: u64,
        ids_per_attacker: u64,
        per_id_budget: u64,
    ) -> Vec<(u64, Signature)> {
        let mut out = Vec::new();
        for a in 0..attackers {
            for i in 0..ids_per_attacker {
                let user = a * 1000 + i;
                for s in 0..per_id_budget {
                    out.push((user, self.flood_signature(user, s)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{DriverApp, DriverProfile};
    use communix_dimmunix::History;

    fn tiny() -> DriverProfile {
        DriverProfile {
            app: "Tiny",
            benchmark: "unit",
            workers: 4,
            iterations: 6,
            sections: 4,
            cold_sections: 2,
            section_work: 2,
            inner_work: 1,
            outside_work: 3,
            paper_overhead_pct: 0,
        }
    }

    #[test]
    fn critical_attack_covers_all_sections() {
        let app = DriverApp::build(&tiny());
        let hot = app.hot_sections();
        let plan = AttackerFactory::new().critical_path_attack(&hot, 8, AttackDepth::Five);
        assert_eq!(plan.len(), 8);
        assert_eq!(plan.covered_sections(), 4);
        for sig in plan.signatures() {
            assert_eq!(sig.min_outer_depth(), 5);
        }
    }

    #[test]
    fn depth_one_attack_has_shallow_stacks() {
        let app = DriverApp::build(&tiny());
        let hot = app.hot_sections();
        let plan = AttackerFactory::new().critical_path_attack(&hot, 4, AttackDepth::One);
        for sig in plan.signatures() {
            assert_eq!(sig.min_outer_depth(), 1);
        }
    }

    #[test]
    fn attack_slows_down_the_workload() {
        // The heart of Table II: depth-5 critical-path signatures inflate
        // completion time; depth-1 inflates it much more; off-path
        // signatures cost (almost) nothing.
        let app = DriverApp::build(&tiny());
        let factory = AttackerFactory::new();
        let hot = app.hot_sections();
        let cold = app.cold_sections();

        let d5 = app.overhead_vs_vanilla(
            factory
                .critical_path_attack(&hot, 8, AttackDepth::Five)
                .as_history(),
        );
        let d1 = app.overhead_vs_vanilla(
            factory
                .critical_path_attack(&hot, 8, AttackDepth::One)
                .as_history(),
        );
        let off = app.overhead_vs_vanilla(factory.off_path_attack(&cold, 4).as_history());

        assert!(d5 > 0.02, "depth-5 attack must visibly slow down: {d5}");
        assert!(
            d1 > d5,
            "depth-1 must hurt more than depth-5: d1={d1} d5={d5}"
        );
        assert!(off < 0.02, "off-path attack must be negligible: {off}");
    }

    #[test]
    fn flood_signatures_are_distinct_and_non_adjacent() {
        let f = AttackerFactory::new();
        let a = f.flood_signature(1, 0);
        let b = f.flood_signature(1, 1);
        let c = f.flood_signature(2, 0);
        assert_ne!(a, b);
        assert!(!a.adjacent_to(&b), "distinct floods must not be adjacent");
        assert!(!a.adjacent_to(&c));
        // And they parse back from text (they must survive the wire).
        let rt: Signature = a.to_string().parse().unwrap();
        assert_eq!(rt, a);
    }

    #[test]
    fn adjacent_flood_is_adjacent_to_its_base() {
        let f = AttackerFactory::new();
        let base = f.flood_signature(3, 5);
        let adj = f.adjacent_flood_signature(3, 5);
        assert!(base.adjacent_to(&adj));
        assert!(adj.adjacent_to(&base));
    }

    #[test]
    fn daily_flood_volume_matches_paper_arithmetic() {
        // "100 attackers … 5 ids each … only up to 100*5*10 = 5,000
        // signatures in 1 day" — generated at small scale here.
        let f = AttackerFactory::new();
        let flood = f.daily_flood(10, 5, 10);
        assert_eq!(flood.len(), 10 * 5 * 10);
        // Distinct users appear.
        let users: std::collections::BTreeSet<u64> = flood.iter().map(|(u, _)| *u).collect();
        assert_eq!(users.len(), 50);
    }

    #[test]
    fn attack_history_roundtrip() {
        let app = DriverApp::build(&tiny());
        let hot = app.hot_sections();
        let plan = AttackerFactory::new().critical_path_attack(&hot, 3, AttackDepth::Five);
        let h: History = plan.as_history();
        assert_eq!(h.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least two sections")]
    fn pairing_needs_two_sections() {
        let app = DriverApp::build(&tiny());
        let one = [&app.sections()[0]];
        let _ = AttackerFactory::new().critical_path_attack(&one, 2, AttackDepth::Five);
    }
}
