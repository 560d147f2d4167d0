//! Golden tests pinning full `explain` dossiers.
//!
//! A dossier rendered without wall times is a pure function of the
//! source and the compiler's decisions, so any byte of drift means a
//! pipeline phase changed behavior — the paper-style transcript, the
//! representation verdicts, the TN packing, or the emitted code.
//! Every file here goes through `s1lisp_bench::check_golden`, so
//! `UPDATE_GOLDEN=1 cargo test -p s1lisp-bench --tests` regenerates
//! them with the rest of the goldens.

use s1lisp_bench::{check_golden, corpus_functions, explain_function};

fn dossier(name: &str) -> String {
    explain_function(name, false).unwrap_or_else(|| panic!("no dossier for {name}"))
}

#[test]
fn exptl_dossier_matches_golden() {
    // e1's workhorse: the paper's recursive exponentiation example.
    check_golden("dossier_exptl.txt", &dossier("exptl")).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn testfn_dossier_matches_golden() {
    // e8: the §7 transcript function — rewrites, rep decisions, pdl
    // boxes, and a mixed register/slot TN packing all in one dossier.
    check_golden("dossier_testfn.txt", &dossier("testfn")).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn tak_dossier_matches_golden() {
    // e12's ablation headliner.
    check_golden("dossier_tak.txt", &dossier("tak")).unwrap_or_else(|e| panic!("{e}"));
}

/// The full-corpus byte-identity pin: every experiment function's
/// rendered dossier (sources, transcript, phase rows, rep verdicts, TN
/// packing, assembly), concatenated in corpus order.  Any refactor of
/// the pipeline must leave this file untouched.
#[test]
fn corpus_dossiers_match_golden() {
    let mut all = String::new();
    for f in corpus_functions() {
        all.push_str(&dossier(&f));
        if !all.ends_with('\n') {
            all.push('\n');
        }
        all.push_str("========\n");
    }
    check_golden("corpus_dossiers.txt", &all).unwrap_or_else(|e| panic!("{e}"));
}
