//! The `explain` surface: per-function compilation dossiers over the
//! benchmark corpus.
//!
//! `cargo run -p s1lisp-bench --bin explain -- <function>` finds the
//! experiment workload that defines `<function>`, compiles it with
//! tracing enabled, and prints the function's full dossier
//! ([`s1lisp::Dossier`]): Table 1 phase rows, the rewrite transcript,
//! representation decisions and coercions, the TN packing map, and the
//! assembly listing.  [`explain_function`] with `include_wall` false
//! renders the byte-stable form the golden tests pin.

use s1lisp::Compiler;

use crate::corpus;
use crate::json_report::workload;

/// Experiment ids searched, in order, for a workload defining the
/// requested function.
const SEARCH_ORDER: [&str; 12] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
];

/// The benchmark's run-kernels sources that no experiment workload
/// carries, searched after the workloads: `build-list` and
/// `gc-stress`, and `deriv-bench`'s program.
const KERNEL_SOURCES: [&str; 2] = [corpus::GC_STRESS, corpus::DERIV];

/// Renders the compilation dossier for one corpus function, or `None`
/// if neither an experiment workload nor a run-kernels source defines
/// it.  With `include_wall` false the rendering omits wall-clock times
/// and is deterministic across runs.
pub fn explain_function(name: &str, include_wall: bool) -> Option<String> {
    let marker = format!("(defun {name} ");
    let workloads = SEARCH_ORDER.iter().map(|id| {
        workload(id)
            .expect("search order lists known experiments")
            .src
    });
    for src in workloads.chain(KERNEL_SOURCES) {
        if !src.contains(&marker) {
            continue;
        }
        let mut c = Compiler::new();
        c.enable_trace();
        c.compile_str(src).expect("corpus workload compiles");
        if let Some(d) = c.explain(name) {
            return Some(d.render(include_wall));
        }
    }
    None
}

/// Every function `explain` knows about: the `defun` names of all
/// experiment workloads, in search order, deduplicated.
pub fn corpus_functions() -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for id in SEARCH_ORDER {
        let wl = workload(id).expect("search order lists known experiments");
        for part in wl.src.split("(defun ").skip(1) {
            let name: String = part
                .chars()
                .take_while(|c| !c.is_whitespace() && *c != '(' && *c != ')')
                .collect();
            if !name.is_empty() && !out.contains(&name) {
                out.push(name);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_functions_cover_the_headline_entries() {
        let fns = corpus_functions();
        for expected in ["exptl", "testfn", "tak", "quadratic", "sum-horner"] {
            assert!(fns.iter().any(|f| f == expected), "{fns:?}");
        }
    }

    #[test]
    fn every_corpus_function_explains() {
        for f in corpus_functions() {
            let text = explain_function(&f, false).unwrap_or_else(|| panic!("no dossier for {f}"));
            assert!(text.contains(&format!("compilation dossier: {f}")), "{f}");
            assert!(text.contains("-- assembly --"), "{f}");
            assert!(text.contains("Table 1 phases"), "{f}");
        }
    }

    #[test]
    fn run_kernels_functions_explain() {
        for f in ["build-list", "gc-stress", "deriv-bench"] {
            let text = explain_function(f, false).unwrap_or_else(|| panic!("no dossier for {f}"));
            assert!(text.contains(&format!("compilation dossier: {f}")), "{f}");
        }
    }

    #[test]
    fn unknown_functions_have_no_dossier() {
        assert!(explain_function("no-such-fn", false).is_none());
    }
}
