//! Machine-dependent annotation (§4.4 of the paper).
//!
//! "From this point on the data collected and added to the tree is
//! machine dependent."  Three phases:
//!
//! * **Binding annotation** ([`binding`]): "examines each
//!   lambda-expression in the tree and determines how that
//!   lambda-expression is to be compiled" — as an inline `let`, as a
//!   local code block reached by parameter-passing gotos, or as a real
//!   run-time closure — "and determines which variables can be
//!   stack-allocated and which must (because they are referred to by
//!   closures) be heap-allocated."
//! * **Representation annotation** ([`rep`]): "determine, for every
//!   variable and every temporary value, the machine representation to be
//!   used for that value" — LISP pointer vs. raw machine number, via the
//!   top-down WANTREP and bottom-up ISREP passes of §6.2.
//! * **Pdl number annotation** ([`pdl`]): "determine which numerical
//!   quantities may be stack-allocated rather than heap-allocated,
//!   despite passing pointers to them to other procedures" — the
//!   PDLOKP/PDLNUMP flags of §6.3.
//!
//! # Examples
//!
//! ```
//! use s1lisp_annotate::Annotations;
//! use s1lisp_frontend::Frontend;
//! use s1lisp_reader::{read_str, Interner};
//!
//! let mut i = Interner::new();
//! let src = read_str("(defun f (x) (lambda () x))", &mut i).unwrap();
//! let mut fe = Frontend::new(&mut i);
//! let func = fe.convert_defun(&src).unwrap();
//! let ann = Annotations::compute(&func.tree, "f");
//! // x is captured by a real closure, so it must live in a heap cell.
//! let x = func.tree.var_ids().find(|&v| func.tree.var(v).name.as_str() == "x").unwrap();
//! assert_eq!(ann.binding.var_alloc[&x], s1lisp_annotate::VarAlloc::Heap);
//! ```

#![warn(missing_docs)]

pub mod binding;
pub mod pdl;
pub mod rep;

pub use binding::{binding_annotation, BindingInfo, LambdaStrategy, VarAlloc};
pub use pdl::{pdl_annotation, PdlInfo};
pub use rep::{rep_annotation, Rep, RepInfo};

use std::collections::HashMap;

use s1lisp_ast::{clip_form, NodeId, Tree, VarId};
use s1lisp_trace::TraceSink;

/// The bundle of all machine-dependent annotations for one function.
#[derive(Debug, Clone)]
pub struct Annotations {
    /// How each lambda compiles; where each variable lives.
    pub binding: BindingInfo,
    /// WANTREP/ISREP for every node; representation of every variable.
    pub rep: RepInfo,
    /// PDLOKP/PDLNUMP and the stack-boxing decisions.
    pub pdl: PdlInfo,
}

impl Annotations {
    /// Runs all three annotation phases on the function `name`
    /// (backlinks must be current).
    pub fn compute(tree: &Tree, name: &str) -> Annotations {
        let binding = binding_annotation(tree);
        let rep = rep_annotation(tree, &binding);
        let pdl = pdl_annotation(tree, &binding, &rep, name);
        Annotations { binding, rep, pdl }
    }
}

/// [`binding_annotation`] under a Table-1 trace span ("Binding
/// annotation") for `unit`, recording the lambda-strategy and
/// heap-variable counters.  With a disabled sink the span and counters
/// are no-ops and only the analysis itself runs.
pub fn binding_annotation_traced(tree: &Tree, unit: &str, sink: &mut dyn TraceSink) -> BindingInfo {
    let sp = sink.span_begin("Binding annotation", unit);
    let binding = binding_annotation(tree);
    if sink.enabled() {
        sink.add("lambdas", binding.strategy.len() as u64);
        let count =
            |want: LambdaStrategy| binding.strategy.values().filter(|&&s| s == want).count() as u64;
        sink.add("lambdas_let", count(LambdaStrategy::Let));
        sink.add("lambdas_local", count(LambdaStrategy::LocalFunction));
        sink.add("lambdas_closure", count(LambdaStrategy::Closure));
        sink.add(
            "heap_vars",
            binding
                .var_alloc
                .values()
                .filter(|&&a| a == VarAlloc::Heap)
                .count() as u64,
        );
    }
    sink.span_end(sp);
    binding
}

/// [`rep_annotation`] under a Table-1 trace span ("Representation
/// annotation") for `unit`: counts raw WANTREP/ISREP verdicts and
/// lowered generic ops, and emits the per-variable and per-node verdict
/// events the dossiers list ("rep_var" / "lowered"), sorted by arena
/// index so the event order is deterministic.
pub fn rep_annotation_traced(
    tree: &Tree,
    binding: &BindingInfo,
    unit: &str,
    sink: &mut dyn TraceSink,
) -> RepInfo {
    let sp = sink.span_begin("Representation annotation", unit);
    let rep = rep_annotation(tree, binding);
    if sink.enabled() {
        let raw =
            |m: &HashMap<NodeId, Rep>| m.values().filter(|&&r| r != Rep::Pointer).count() as u64;
        sink.add("raw_wantreps", raw(&rep.wantrep));
        sink.add("raw_isreps", raw(&rep.isrep));
        sink.add(
            "raw_vars",
            rep.var_rep.values().filter(|&&r| r != Rep::Pointer).count() as u64,
        );
        sink.add("lowered_generic_ops", rep.lowered.len() as u64);
        let mut vars: Vec<(VarId, Rep)> = rep.var_rep.iter().map(|(&v, &r)| (v, r)).collect();
        vars.sort_by_key(|&(v, _)| v.index());
        for (v, r) in vars {
            if r != Rep::Pointer {
                sink.event(
                    "rep_var",
                    &format!("{} kept {r:?}", tree.var(v).name.as_str()),
                );
            }
        }
        let mut lows: Vec<(NodeId, Rep)> = rep.lowered.iter().map(|(&n, &r)| (n, r)).collect();
        lows.sort_by_key(|&(n, _)| n.index());
        for (n, r) in lows {
            sink.event(
                "lowered",
                &format!("{} compiles as {r:?}", clip_form(tree, n)),
            );
        }
    }
    sink.span_end(sp);
    rep
}

/// [`pdl_annotation`] under a Table-1 trace span ("Pdl number
/// annotation") for `unit`, recording the stack-boxing counters.
pub fn pdl_annotation_traced(
    tree: &Tree,
    binding: &BindingInfo,
    rep: &RepInfo,
    unit: &str,
    sink: &mut dyn TraceSink,
) -> PdlInfo {
    let sp = sink.span_begin("Pdl number annotation", unit);
    let pdl = pdl_annotation(tree, binding, rep, unit);
    if sink.enabled() {
        sink.add("stack_box_sites", pdl.stack_boxes.len() as u64);
        sink.add("entry_certified", pdl.entry_certified.len() as u64);
        sink.add(
            "pdlnump_nodes",
            pdl.pdlnump.values().filter(|&&b| b).count() as u64,
        );
        sink.add(
            "maybe_unsafe_nodes",
            pdl.maybe_unsafe.values().filter(|&&b| b).count() as u64,
        );
    }
    sink.span_end(sp);
    pdl
}
