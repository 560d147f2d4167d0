//! The `passes` report: the per-function pass schedule (Table 1 as
//! data), as the live [`s1lisp::Pipeline`] describes itself (`report
//! --passes`).
//!
//! The record lists every scheduled pass — name, the Table-1 rows it
//! implements, the implementing module, and whether the default options
//! enable it — so schedule drift is visible in one place.  The shape is
//! schema-pinned by `tests/golden_json.rs`; the pass names themselves
//! are cross-checked against `phases()` by the core crate's pipeline
//! tests.

use s1lisp::Compiler;
use s1lisp_trace::json::Json;

/// The machine-readable `passes` record, from a default compiler's
/// pipeline.
pub fn passes_record() -> Json {
    let passes = Compiler::new()
        .pipeline()
        .describe()
        .into_iter()
        .map(|p| {
            Json::obj(vec![
                ("name", Json::str(p.name)),
                (
                    "table1",
                    Json::Arr(p.table1.iter().map(|r| Json::str(*r)).collect()),
                ),
                ("module", Json::str(p.module)),
                ("enabled", Json::Bool(p.enabled)),
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
    for p in Compiler::new().pipeline().describe() {
        let rows = if p.table1.is_empty() {
            "(cross-cutting)".to_string()
        } else {
            p.table1.join(", ")
        };
        let _ = writeln!(
            out,
            "{:<34} {:<8} {:<42} {}",
            p.name,
            if p.enabled { "yes" } else { "no" },
            p.module,
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
            "Environment analysis",
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
    }
}
