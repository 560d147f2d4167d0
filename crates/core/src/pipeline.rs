//! The pass manager: Table 1 as an executable schedule.
//!
//! The paper presents compilation as an explicit ordered table of
//! phases; this module reifies that order as data.  Each phase is one
//! variant of [`Pass`] with one row of metadata (name, Table-1 rows,
//! implementing module), [`Compiler::pipeline`] builds the ordered
//! schedule from the compiler's switches, and one
//! `match` (`Compiler::run_pass`) runs every pass against the
//! compiler's own fields and the function's `UnitState`.  The
//! cross-cutting machinery — trace spans, per-pass counters, the
//! fault-injection trip points of
//! [`trip_phase_faults`](crate::phases::trip_phase_faults), and the
//! guard validators — lives *inside* passes instead of in parallel code
//! paths, so the `Compiler`, the driver service, and `explain`/dossiers
//! all observe one pipeline description.
//!
//! Pass order is execution order (= trace-span order).  The five
//! analysis rows of Table 1 have no pass of their own: source analysis
//! and source-level optimization "are actually executed in a
//! complicated co-routining manner for efficiency" (§4.2), so each
//! analysis runs inside the pass that reads its result, and its time
//! counts toward that pass's span.  Side effects and complexity run in
//! source-level optimization (once, then kept current incrementally),
//! environment analysis in binding annotation, tail positions in code
//! generation (for each lambda), and special-variable lookups in code
//! generation's entry cache; [`phases()`](crate::phases::phases) marks
//! those rows [`Subsumed`](crate::phases::PhaseStatus::Subsumed).  The
//! mapping from passes back to Table 1 rows ([`Pass::table1`]) is
//! cross-checked against `phases()` by test.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use s1lisp_annotate::{Annotations, BindingInfo, PdlInfo, RepInfo};
use s1lisp_ast::{unparse_pretty, Tree};
use s1lisp_opt::{Optimizer, Transcript};
use s1lisp_trace::fault::FaultSite;
use s1lisp_trace::TraceSink;

use crate::error::CompileError;
use crate::{guard, phases, CompiledFunction, Compiler};

// ------------------------------------------------------------ unit state

/// The machine-dependent annotations, accumulated pass by pass.
#[derive(Debug, Default)]
struct UnitAnnotations {
    /// How each lambda compiles; where each variable lives.
    binding: Option<BindingInfo>,
    /// WANTREP/ISREP for every node; representation of every variable.
    rep: Option<RepInfo>,
    /// PDLOKP/PDLNUMP and the stack-boxing decisions.
    pdl: Option<PdlInfo>,
}

/// The state one function accumulates as it moves through the
/// pipeline: the (mutable) converted tree, the back-translated
/// source snapshot, the optimizer's transcript, and the annotation
/// results.
#[derive(Debug)]
struct UnitState {
    func: s1lisp_frontend::Function,
    /// The `defun` name.
    name: String,
    /// Back-translated source as converted (before any transformation).
    converted: String,
    /// The optimizer's transcript, filled by the source-level
    /// optimization pass.
    transcript: Transcript,
    /// Source-level transformations the optimizer applied.
    transformations: usize,
    /// Machine-dependent annotations, filled by the annotation passes.
    annotations: UnitAnnotations,
    /// Every S-1 function the unit's code generation defined: the
    /// `defun` itself and its `%closureN` bodies.
    s1_functions: Vec<String>,
}

impl UnitState {
    /// Wraps a converted function, snapshotting its back-translated
    /// source.
    fn new(func: s1lisp_frontend::Function) -> UnitState {
        let name = func.name.as_str().to_string();
        let converted = unparse_pretty(&func.tree, func.tree.root, 78);
        UnitState {
            func,
            name,
            converted,
            transcript: Transcript::default(),
            transformations: 0,
            annotations: UnitAnnotations::default(),
            s1_functions: Vec::new(),
        }
    }

    fn tree(&self) -> &Tree {
        &self.func.tree
    }

    /// The source-level passes rewrite the tree in place.
    fn tree_mut(&mut self) -> &mut Tree {
        &mut self.func.tree
    }
}

// ------------------------------------------------------------ pass table

/// One phase of the per-function pipeline, with one row of metadata:
/// [`Pass::name`], [`Pass::table1`] and [`Pass::module`].  One `match`
/// in the compiler runs every pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// Cross-cutting: trips the armed fault sites for the function at
    /// the head of the pipeline.  An armed overrun stalls just past the
    /// budget of the thread's [`PassWatch`] (and is inert without one),
    /// so the watchdog times out naming this pass; per-phase panics
    /// (one deterministic decision per Table-1 phase key) are caught by
    /// the service's isolation layer.
    FaultTrip,
    /// Cross-cutting: the guard validators — Table-2 well-formedness
    /// and the §7 back-translation round trip — after conversion.
    GuardConversion,
    /// Source-level optimization (Table 1, §5): [`Optimizer::fixpoint`],
    /// guarded under guarded compilation.
    SourceOpt,
    /// Cross-cutting: the guard validators after the source-level
    /// transformations.
    GuardBackTranslation,
    /// Binding annotation (Table 1, §4.4).
    Binding,
    /// Representation annotation (Table 1, §6.2): WANTREP/ISREP.
    Rep,
    /// Pdl number annotation (Table 1, §6.3).
    Pdl,
    /// TNBIND + S-1 code generation (Table 1): the per-lambda work loop
    /// of pass-1 emit, TN packing ("Target annotation"), and the pass-2
    /// re-emit when packing promoted variables to registers.
    S1Emit,
    /// The peephole (branch-tensioning) pass (Table 1), over the
    /// emitted S-1 code in the program.
    Peephole,
    /// The bytecode backend's emission pass: lowers the annotated tree
    /// to the portable linear bytecode, appending the unit's protos to
    /// the compiler's bytecode module.  Consumes the same annotations
    /// as S-1 code generation — binding allocation drives slot layout,
    /// the representation lowering map selects fused numeric opcodes.
    BytecodeEmit,
}

impl Pass {
    /// The pass's row: name, Table 1 rows, implementing crate/module.
    fn row(self) -> (&'static str, &'static [&'static str], &'static str) {
        match self {
            Pass::FaultTrip => ("Fault injection", &[], "s1lisp::phases::trip_phase_faults"),
            Pass::GuardConversion => ("Guard: conversion", &[], "s1lisp::guard"),
            Pass::SourceOpt => (
                "Source-level optimization",
                &["Source-level optimization"],
                "s1lisp-opt",
            ),
            Pass::GuardBackTranslation => ("Guard: back-translation", &[], "s1lisp::guard"),
            Pass::Binding => (
                "Binding annotation",
                &["Binding annotation"],
                "s1lisp-annotate::binding",
            ),
            Pass::Rep => (
                "Representation annotation",
                &["Representation annotation"],
                "s1lisp-annotate::rep",
            ),
            Pass::Pdl => (
                "Pdl number annotation",
                &["Pdl number annotation"],
                "s1lisp-annotate::pdl",
            ),
            Pass::S1Emit => (
                "Code generation",
                &["Target annotation", "Code generation"],
                "s1lisp-codegen + s1lisp-tnbind",
            ),
            Pass::Peephole => (
                "Peephole optimizer",
                &["Peephole optimizer"],
                "s1lisp-codegen::tension_branches",
            ),
            Pass::BytecodeEmit => (
                "Code generation",
                &["Code generation"],
                "s1lisp-bytecode::emit",
            ),
        }
    }

    /// The pass's name (for schedules, watchdog details, and `report
    /// --passes`).
    pub fn name(self) -> &'static str {
        self.row().0
    }

    /// The Table 1 rows this pass implements (empty for the
    /// cross-cutting guard validators and fault trip point).
    pub fn table1(self) -> &'static [&'static str] {
        self.row().1
    }

    /// The crate/module implementing the pass, matching the attribution
    /// in [`phases()`](crate::phases::phases) where a row exists.
    pub fn module(self) -> &'static str {
        self.row().2
    }
}

/// Which code-generation backend closes the pipeline.
///
/// The front of the schedule — guards, source-level optimization, and
/// the three machine-dependent annotation passes — is
/// backend-independent; the backend contributes only the emission tail
/// of [`Compiler::pipeline`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// S-1 assembly via `s1lisp-codegen` + TNBIND, run on the
    /// simulator.  The reference backend.
    #[default]
    S1,
    /// Portable linear bytecode via `s1lisp-bytecode`, run on its
    /// stack-frame evaluator.
    Bytecode,
}

impl BackendKind {
    /// Stable identifier, used in reports, CLI flags, and
    /// [`Compiler::options_fingerprint`] (so artifacts from different
    /// backends can never satisfy each other's cache keys).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::S1 => "s1",
            BackendKind::Bytecode => "bytecode",
        }
    }

    /// Parses a CLI spelling ([`BackendKind::name`]).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "s1" => Some(BackendKind::S1),
            "bytecode" | "bc" => Some(BackendKind::Bytecode),
            _ => None,
        }
    }
}

// ------------------------------------------------------------- watchdog

thread_local! {
    static WATCH: RefCell<Option<PassWatch>> = const { RefCell::new(None) };
}

/// Set once any watch is installed; until then a pipeline run skips
/// the thread-local lookup, a measurable cost on unwatched compiles.
static WATCHING: AtomicBool = AtomicBool::new(false);

/// A watchdog's window onto a compile on another thread: the budget it
/// enforces, and a slot that every pipeline run on a thread the
/// watch is [installed](PassWatch::install) on fills with each pass as
/// it starts — so on expiry the watchdog can name the pass that ran
/// over.
#[derive(Clone, Debug)]
pub struct PassWatch {
    budget: Duration,
    pass: Arc<Mutex<Option<&'static str>>>,
}

impl PassWatch {
    /// A watch over a compile allowed `budget` of wall-clock time.
    pub fn new(budget: Duration) -> PassWatch {
        PassWatch {
            budget,
            pass: Arc::new(Mutex::new(None)),
        }
    }

    /// Watches the pipeline runs of the calling thread from now on.
    pub fn install(&self) {
        WATCHING.store(true, Ordering::Relaxed);
        WATCH.with(|w| *w.borrow_mut() = Some(self.clone()));
    }

    /// The pass the watched thread last entered, if any.
    pub fn pass(&self) -> Option<&'static str> {
        *self.pass.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn enter(name: &'static str) {
        if !WATCHING.load(Ordering::Relaxed) {
            return;
        }
        WATCH.with(|w| {
            if let Some(watch) = &*w.borrow() {
                *watch.pass.lock().unwrap_or_else(|e| e.into_inner()) = Some(name);
            }
        });
    }

    /// The budget of the watch installed on this thread, if any.
    fn installed_budget() -> Option<Duration> {
        WATCH.with(|w| w.borrow().as_ref().map(|watch| watch.budget))
    }
}

// ------------------------------------------------------------- pipeline

fn schedule_error(message: &str) -> CompileError {
    CompileError::Codegen(s1lisp_codegen::CodegenError {
        message: message.to_string(),
    })
}

impl Compiler {
    /// The per-function pass schedule this compiler's switches build:
    /// the fault trip point and conversion-side guard, source-level
    /// optimization (with its fixpoint rounds, analysing effects and
    /// complexity as it goes), the back-translation
    /// guard, the three machine-dependent annotation passes (binding
    /// annotation runs environment analysis), then the backend's
    /// emission tail — TNBIND + code generation (which finds each
    /// lambda's tail positions) and the peephole optimizer for S-1, one
    /// emitter for bytecode.  No pass runs an analysis whose result it
    /// drops.  Each pass is paired with whether it is enabled;
    /// disabled passes stay in the schedule (so `report --passes` and
    /// the Table-1 cross-check see them) but do not run.  This is the
    /// schedule [`Compiler::compile_str`], [`Compiler::eval`], and the
    /// compilation service all run.
    pub fn pipeline(&self) -> Vec<(Pass, bool)> {
        let mut passes = vec![
            (Pass::FaultTrip, self.fault_plan.is_some()),
            (Pass::GuardConversion, self.guard),
            (Pass::SourceOpt, true),
            (Pass::GuardBackTranslation, self.guard),
            (Pass::Binding, true),
            (Pass::Rep, true),
            (Pass::Pdl, true),
        ];
        match self.backend {
            BackendKind::S1 => passes.extend([
                (Pass::S1Emit, true),
                (Pass::Peephole, self.tension_branches),
            ]),
            BackendKind::Bytecode => passes.push((Pass::BytecodeEmit, true)),
        }
        passes
    }

    /// Runs one converted function through every enabled pass of the
    /// [`Compiler::pipeline`], in order, and records its artifacts.
    /// Each pass is recorded in the thread's [`PassWatch`] (if one is
    /// installed) as it starts.  Shared by [`Compiler::compile_str`],
    /// [`Compiler::compile_pending`] and [`Compiler::eval`], so every
    /// path produces identical spans and dossiers.
    pub(crate) fn compile_function(
        &mut self,
        f: s1lisp_frontend::Function,
        sink: &mut dyn TraceSink,
    ) -> Result<String, CompileError> {
        let mut unit = UnitState::new(f);
        for (pass, enabled) in self.pipeline() {
            if enabled {
                PassWatch::enter(pass.name());
                self.run_pass(pass, &mut unit, sink)?;
            }
        }
        let optimized = unparse_pretty(unit.tree(), unit.tree().root, 78);
        let UnitState {
            func,
            name,
            converted,
            transcript,
            transformations,
            ..
        } = unit;
        self.functions.push(CompiledFunction {
            name: name.clone(),
            converted,
            optimized,
            transcript,
            tree: func.tree.clone(),
            transformations,
        });
        self.interp_sources.push(func);
        Ok(name)
    }

    /// Runs one pass over one function against this compiler's switches
    /// and output containers: the S-1 program (code generation and
    /// peephole) and the bytecode module (the bytecode emitter).
    fn run_pass(
        &mut self,
        pass: Pass,
        unit: &mut UnitState,
        sink: &mut dyn TraceSink,
    ) -> Result<(), CompileError> {
        match pass {
            Pass::FaultTrip => {
                if let Some(plan) = &self.fault_plan {
                    if let Some(budget) = PassWatch::installed_budget() {
                        if plan.fires(FaultSite::Overrun, &unit.name) {
                            std::thread::sleep(budget + budget / 4 + Duration::from_millis(20));
                        }
                    }
                    phases::trip_phase_faults(plan, &unit.name);
                }
            }
            Pass::GuardConversion | Pass::GuardBackTranslation => {
                let stage = if pass == Pass::GuardConversion {
                    "conversion"
                } else {
                    "back-translation"
                };
                guard::validate_tree(&unit.name, stage, unit.tree())?;
                guard::round_trip(&unit.name, stage, unit.tree())?;
            }
            Pass::SourceOpt => {
                let name = unit.name.clone();
                let sp = sink.span_begin("Source-level optimization", &name);
                let nodes_before = unit.tree().node_count();
                let mut opt = Optimizer::with_options(self.opt_options.clone());
                let result = opt.fixpoint(unit.tree_mut(), Some(&name), self.guard);
                if sink.enabled() {
                    sink.add("transformations", *result.as_ref().unwrap_or(&0) as u64);
                    sink.add("nodes_visited", opt.nodes_visited as u64);
                    sink.add("nodes_before", nodes_before as u64);
                    sink.add("nodes_after", unit.tree().node_count() as u64);
                }
                sink.span_end(sp);
                let applied = result.map_err(|detail| guard::GuardError {
                    function: name,
                    stage: "source-level optimization",
                    detail,
                })?;
                unit.transformations = applied;
                unit.transcript = std::mem::take(&mut opt.transcript);
            }
            Pass::Binding => {
                let binding =
                    s1lisp_annotate::binding_annotation_traced(unit.tree(), &unit.name, sink);
                unit.annotations.binding = Some(binding);
            }
            Pass::Rep => {
                let Some(binding) = unit.annotations.binding.as_ref() else {
                    return Err(schedule_error(
                        "pipeline schedule error: representation annotation needs binding annotation",
                    ));
                };
                let rep =
                    s1lisp_annotate::rep_annotation_traced(unit.tree(), binding, &unit.name, sink);
                unit.annotations.rep = Some(rep);
            }
            Pass::Pdl => {
                let (Some(binding), Some(rep)) = (
                    unit.annotations.binding.as_ref(),
                    unit.annotations.rep.as_ref(),
                ) else {
                    return Err(schedule_error(
                        "pipeline schedule error: pdl annotation needs binding and rep annotation",
                    ));
                };
                let pdl = s1lisp_annotate::pdl_annotation_traced(
                    unit.tree(),
                    binding,
                    rep,
                    &unit.name,
                    sink,
                );
                unit.annotations.pdl = Some(pdl);
            }
            Pass::S1Emit => {
                let (Some(binding), Some(rep), Some(pdl)) = (
                    unit.annotations.binding.take(),
                    unit.annotations.rep.take(),
                    unit.annotations.pdl.take(),
                ) else {
                    return Err(schedule_error(
                        "pipeline schedule error: code generation needs the annotation passes",
                    ));
                };
                let ann = Annotations { binding, rep, pdl };
                let result = s1lisp_codegen::emit_annotated(
                    &unit.name,
                    unit.tree(),
                    &ann,
                    Arc::make_mut(&mut self.program),
                    &self.codegen_options,
                    sink,
                );
                unit.annotations = UnitAnnotations {
                    binding: Some(ann.binding),
                    rep: Some(ann.rep),
                    pdl: Some(ann.pdl),
                };
                unit.s1_functions = result?;
            }
            Pass::Peephole => {
                let sp = sink.span_begin("Peephole optimizer", &unit.name);
                let mut total = s1lisp_codegen::Tensioned::default();
                for name in &unit.s1_functions {
                    let Some(code) = self
                        .program
                        .lookup_fn(name)
                        .and_then(|id| self.program.func(id))
                    else {
                        continue;
                    };
                    let mut code = (**code).clone();
                    let t = s1lisp_codegen::tension_branches(&mut code);
                    total.retargeted += t.retargeted;
                    total.inverted += t.inverted;
                    total.deleted += t.deleted;
                    if t != s1lisp_codegen::Tensioned::default() {
                        Arc::make_mut(&mut self.program).define(code);
                    }
                }
                if sink.enabled() {
                    sink.add("labels_retargeted", total.retargeted as u64);
                    sink.add("branches_inverted", total.inverted as u64);
                    sink.add("insns_deleted", total.deleted as u64);
                }
                sink.span_end(sp);
            }
            Pass::BytecodeEmit => {
                let (Some(binding), Some(rep), Some(pdl)) = (
                    unit.annotations.binding.take(),
                    unit.annotations.rep.take(),
                    unit.annotations.pdl.take(),
                ) else {
                    return Err(schedule_error(
                        "pipeline schedule error: code generation needs the annotation passes",
                    ));
                };
                let ann = Annotations { binding, rep, pdl };
                let sp = sink.span_begin("Code generation", &unit.name);
                let result = s1lisp_bytecode::emit_unit(&unit.name, unit.tree(), &ann);
                if sink.enabled() {
                    if let Ok(protos) = &result {
                        sink.add("protos", protos.len() as u64);
                        sink.add(
                            "insns",
                            protos.iter().map(|p| p.code.len()).sum::<usize>() as u64,
                        );
                        sink.add(
                            "consts",
                            protos.iter().map(|p| p.consts.len()).sum::<usize>() as u64,
                        );
                    }
                }
                sink.span_end(sp);
                unit.annotations = UnitAnnotations {
                    binding: Some(ann.binding),
                    rep: Some(ann.rep),
                    pdl: Some(ann.pdl),
                };
                let protos = result.map_err(|e| schedule_error(&e.to_string()))?;
                self.bytecode.define_unit(protos);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{phases, PhaseStatus};

    #[test]
    fn pipeline_is_consistent_with_table_1() {
        let table: Vec<&str> = phases().iter().map(|p| p.name).collect();
        let passes: Vec<Pass> = Compiler::new()
            .pipeline()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        // Every row a pass claims is a real Table-1 row.
        for pass in &passes {
            for row in pass.table1() {
                assert!(
                    table.contains(row),
                    "{} claims unknown row {row}",
                    pass.name()
                );
            }
        }
        // Every per-function Table-1 row that is actually implemented
        // (Preliminary runs before the per-function pipeline; subsumed
        // rows have no pass of their own) is claimed by exactly one
        // pass, and no pass claims a row that is not built.
        for p in phases() {
            if p.name == "Preliminary" || p.status == PhaseStatus::Subsumed {
                continue;
            }
            let claims = passes
                .iter()
                .filter(|pass| pass.table1().contains(&p.name))
                .count();
            let built = usize::from(p.status != PhaseStatus::NotBuilt);
            assert_eq!(claims, built, "{} claimed {claims} times", p.name);
        }
        // Single-row passes carry the same module attribution as the
        // table.
        for pass in &passes {
            if let [row] = pass.table1() {
                let table_row = phases().into_iter().find(|p| p.name == *row).unwrap();
                assert_eq!(pass.module(), table_row.module, "{}", pass.name());
            }
        }
    }

    #[test]
    fn default_schedule_enables_exactly_the_default_passes() {
        let enabled = |c: &Compiler, pass: Pass| {
            c.pipeline()
                .into_iter()
                .find(|&(p, _)| p == pass)
                .unwrap()
                .1
        };
        let c = Compiler::new();
        assert!(!enabled(&c, Pass::FaultTrip));
        assert!(!enabled(&c, Pass::GuardConversion));
        assert!(!enabled(&c, Pass::GuardBackTranslation));
        assert!(enabled(&c, Pass::SourceOpt));
        assert!(enabled(&c, Pass::S1Emit));
        assert!(enabled(&c, Pass::Peephole));
        let mut c = Compiler::new();
        c.guard = true;
        assert!(enabled(&c, Pass::GuardConversion));
    }

    #[test]
    fn backends_share_the_middle_end_and_differ_only_in_the_tail() {
        let passes =
            |c: &Compiler| -> Vec<Pass> { c.pipeline().into_iter().map(|(p, _)| p).collect() };
        let s1 = passes(&Compiler::new());
        let mut c = Compiler::new();
        c.backend = BackendKind::Bytecode;
        let bc = passes(&c);
        // S-1 keeps its historical shape: code generation then the
        // peephole pass.
        assert_eq!(s1[s1.len() - 2..], [Pass::S1Emit, Pass::Peephole]);
        // The bytecode backend replaces that tail with its single
        // emitter pass, under the same span name.
        assert_eq!(bc[bc.len() - 1], Pass::BytecodeEmit);
        assert_eq!(Pass::BytecodeEmit.name(), Pass::S1Emit.name());
        assert_eq!(bc.len(), s1.len() - 1);
        // Everything upstream of the backend is identical.
        assert_eq!(s1[..s1.len() - 2], bc[..bc.len() - 1]);
    }

    #[test]
    fn backend_kind_parses_and_names_distinctly() {
        assert_eq!(BackendKind::parse("s1"), Some(BackendKind::S1));
        assert_eq!(BackendKind::parse("bytecode"), Some(BackendKind::Bytecode));
        assert_eq!(BackendKind::parse("bc"), Some(BackendKind::Bytecode));
        assert_eq!(BackendKind::parse("vax"), None);
        assert_ne!(BackendKind::S1.name(), BackendKind::Bytecode.name());
    }

    #[test]
    fn a_watch_names_the_pass_its_thread_entered_last() {
        let watch = PassWatch::new(Duration::from_secs(60));
        assert_eq!(watch.pass(), None);
        let watched = watch.clone();
        std::thread::spawn(move || {
            watched.install();
            Compiler::new()
                .compile_str("(defun sq (x) (* x x))")
                .unwrap();
        })
        .join()
        .unwrap();
        let last = Compiler::new().pipeline().last().map(|&(p, _)| p);
        assert_eq!(last, Some(Pass::Peephole));
        assert_eq!(watch.pass(), Some(Pass::Peephole.name()));
    }
}
