//! The `passes` report: the per-function pass schedule (Table 1 as
//! data), as a default compiler's [`s1lisp::Compiler::pipeline`] builds
//! it (`report --passes`).
//!
//! The record lists every scheduled [`s1lisp::Pass`] — its name, the
//! Table-1 rows it implements, the implementing module (the pass's row
//! of metadata), and whether the default options enable it — so
//! schedule drift is visible in one place.  The text is byte-pinned by
//! `tests/golden/passes.txt` and the JSON shape by
//! `tests/golden_json.rs`; the rows themselves are cross-checked
//! against `phases()` by the core crate's pipeline tests.

use s1lisp::Compiler;
use s1lisp_trace::json::Json;

/// The machine-readable `passes` record, from a default compiler's
/// pipeline.
pub fn passes_record() -> Json {
    let passes = Compiler::new()
        .pipeline()
        .into_iter()
        .map(|(p, enabled)| {
            Json::obj(vec![
                ("name", Json::str(p.name())),
                (
                    "table1",
                    Json::Arr(p.table1().iter().map(|r| Json::str(*r)).collect()),
                ),
                ("module", Json::str(p.module())),
                ("enabled", Json::Bool(enabled)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("id", Json::str("passes")),
        (
            "title",
            Json::str("Per-function pass schedule (Table 1 as data)"),
        ),
        ("passes", Json::Arr(passes)),
    ])
}

/// The human-readable `passes` report text: one row per scheduled pass.
pub fn passes_report() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:<8} {:<42} table-1 rows",
        "pass", "enabled", "module"
    );
    for (p, enabled) in Compiler::new().pipeline() {
        let rows = if p.table1().is_empty() {
            "(cross-cutting)".to_string()
        } else {
            p.table1().join(", ")
        };
        let _ = writeln!(
            out,
            "{:<34} {:<8} {:<42} {}",
            p.name(),
            if enabled { "yes" } else { "no" },
            p.module(),
            rows
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_report_lists_the_whole_schedule() {
        let text = passes_report();
        for name in [
            "Source-level optimization",
            "Binding annotation",
            "Code generation",
            "Peephole optimizer",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // Cross-cutting wrappers show up too, disabled by default.
        assert!(text.contains("Fault injection"));
        assert!(text.contains("Guard: conversion"));
        // Byte-golden: the schedule's names, modules, rows and default
        // enablement are all pinned.
        crate::check_golden("passes.txt", &text).unwrap_or_else(|e| panic!("{e}"));
    }
}
