//! The phase structure of the compiler — Table 1 of the paper,
//! reproduced as data (experiment E1).
//!
//! This table is descriptive; the *executable* schedule is the
//! [`Pass`](crate::Pass) enum in [`crate::pipeline`], whose rows name
//! the Table-1 rows each pass implements.  The two cannot drift: the
//! `pipeline_is_consistent_with_table_1` test in `pipeline.rs` asserts
//! that every Table-1 row here (except `Preliminary` and rows marked
//! [`PhaseStatus::Subsumed`] or [`PhaseStatus::NotBuilt`]) is claimed
//! by exactly one scheduled pass, that no pass claims a `NotBuilt` row,
//! and that single-row passes carry this table's module string.

/// Implementation status of a phase in this reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseStatus {
    /// Fully implemented.
    Implemented,
    /// Implemented as an optional extension, which a compiler option
    /// switches on or off.
    OptionalExtension,
    /// Folded into another phase (noted in `module`).
    Subsumed,
    /// Bracketed in the paper and not built here; `module` names the
    /// measurement that decided it.
    NotBuilt,
}

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase name, as in Table 1.
    pub name: &'static str,
    /// The paper's description (abridged).
    pub description: &'static str,
    /// Whether Table 1 printed it in square brackets ("portions not yet
    /// coded or coded only in preliminary form" in 1982).
    pub bracketed_in_paper: bool,
    /// Status in this reproduction.
    pub status: PhaseStatus,
    /// Which crate/module implements it here.
    pub module: &'static str,
}

/// The compiler's phases in execution order.
pub fn phases() -> Vec<Phase> {
    vec![
        Phase {
            name: "Preliminary",
            description: "Syntax checking, resolving of variable references, expansion of \
                          macro calls, conversion to internal tree form",
            bracketed_in_paper: false,
            status: PhaseStatus::Implemented,
            module: "s1lisp-frontend",
        },
        Phase {
            name: "Environment analysis",
            description: "For each subtree, the sets of variables read and written; \
                          referent back-pointers per variable",
            bracketed_in_paper: false,
            status: PhaseStatus::Subsumed,
            module: "s1lisp-analysis::env (run by binding annotation)",
        },
        Phase {
            name: "Side-effects analysis",
            description: "Classify each subtree's side effects and sensitivities",
            bracketed_in_paper: false,
            status: PhaseStatus::Subsumed,
            module: "s1lisp-analysis::effects (run by s1lisp-opt's one full analysis, \
                     kept current incrementally)",
        },
        Phase {
            name: "Complexity analysis",
            description: "Preliminary object-code size estimate per subtree",
            bracketed_in_paper: false,
            status: PhaseStatus::Subsumed,
            module: "s1lisp-analysis::complexity (run by s1lisp-opt's one full analysis, \
                     kept current incrementally)",
        },
        Phase {
            name: "Tail-recursion analysis",
            description: "Which nodes potentially generate each node's value; tail positions",
            bracketed_in_paper: false,
            status: PhaseStatus::Subsumed,
            module: "s1lisp-analysis::tails (run by s1lisp-codegen for each lambda)",
        },
        Phase {
            name: "Data-type analysis",
            description: "Processing of optional type declarations, deduction of types",
            bracketed_in_paper: true,
            status: PhaseStatus::Subsumed,
            module: "s1lisp-annotate::rep (declaration-driven variable representations)",
        },
        Phase {
            name: "Source-level optimization",
            description: "Tree transformations that back-translate to source-level code",
            bracketed_in_paper: false,
            status: PhaseStatus::Implemented,
            module: "s1lisp-opt",
        },
        Phase {
            name: "Common subexpression elimination",
            description: "Expressed as source-level let-introducing transformations",
            bracketed_in_paper: true,
            status: PhaseStatus::NotBuilt,
            module: "none: measured on E12's suite, it won no program's sim_insns \
                     and lost two (EXPERIMENTS.md)",
        },
        Phase {
            name: "Special variable lookups",
            description: "When to search for deep-binding cells; cached pointers thereafter",
            bracketed_in_paper: false,
            status: PhaseStatus::Subsumed,
            module: "s1lisp-codegen (entry cache of special-variable pointers)",
        },
        Phase {
            name: "Binding annotation",
            description: "How each lambda compiles; stack vs heap variable allocation",
            bracketed_in_paper: false,
            status: PhaseStatus::Implemented,
            module: "s1lisp-annotate::binding",
        },
        Phase {
            name: "Representation annotation",
            description: "WANTREP/ISREP machine representations for every value",
            bracketed_in_paper: false,
            status: PhaseStatus::Implemented,
            module: "s1lisp-annotate::rep",
        },
        Phase {
            name: "Pdl number annotation",
            description: "Which numbers may be stack- rather than heap-allocated",
            bracketed_in_paper: false,
            status: PhaseStatus::Implemented,
            module: "s1lisp-annotate::pdl",
        },
        Phase {
            name: "Target annotation",
            description: "The TNBIND and PACK phases of BLISS-11 and PQCC",
            bracketed_in_paper: false,
            status: PhaseStatus::Implemented,
            module: "s1lisp-tnbind",
        },
        Phase {
            name: "Code generation",
            description: "Single pass over the tree; partly procedural, partly table-driven",
            bracketed_in_paper: false,
            status: PhaseStatus::Implemented,
            module: "s1lisp-codegen",
        },
        Phase {
            name: "Peephole optimizer",
            description: "Cross-jumping and branch tensioning",
            bracketed_in_paper: true,
            status: PhaseStatus::OptionalExtension,
            module: "s1lisp-codegen::tension_branches",
        },
    ]
}

/// Trips any armed per-phase panic faults for `function`: one decision
/// per Table-1 phase, keyed `"<function>/<phase>"` so a seeded
/// [`FaultPlan`](s1lisp_trace::fault::FaultPlan) replays the same
/// phase-level failure no matter which worker compiles the function.
/// Called at the head of the per-function pipeline; the injected panic
/// is caught by the service's isolation layer and recovered through the
/// degraded-recompile path.
///
/// # Panics
///
/// Panics (deliberately) when the plan arms `PhasePanic` for one of
/// this function's phase keys.
pub fn trip_phase_faults(plan: &s1lisp_trace::fault::FaultPlan, function: &str) {
    use s1lisp_trace::fault::FaultSite;
    for p in phases() {
        let key = format!("{function}/{}", p.name);
        if plan.fires(FaultSite::PhasePanic, &key) {
            panic!("injected fault: panic during {} of {function}", p.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_coverage() {
        let ps = phases();
        assert_eq!(ps.len(), 15);
        assert_eq!(ps.first().unwrap().name, "Preliminary");
        assert_eq!(ps.last().unwrap().name, "Peephole optimizer");
        // Everything is at least addressed.
        assert!(ps.iter().all(|p| !p.module.is_empty()));
        // The one bracketed phase left unbuilt, as in 1982.
        let cse = ps
            .iter()
            .find(|p| p.name == "Common subexpression elimination")
            .unwrap();
        assert_eq!(cse.status, PhaseStatus::NotBuilt);
        assert!(cse.bracketed_in_paper);
    }

    #[test]
    fn phase_faults_fire_deterministically() {
        use s1lisp_trace::fault::{FaultPlan, FaultSite};
        let off = FaultPlan::new(9);
        trip_phase_faults(&off, "anything"); // disarmed: no panic
        let on = FaultPlan::new(9).arm(FaultSite::PhasePanic, 1000);
        let boom = std::panic::catch_unwind(|| trip_phase_faults(&on, "victim"));
        let msg = *boom.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("injected fault"), "{msg}");
        assert!(msg.contains("victim"), "{msg}");
    }
}
