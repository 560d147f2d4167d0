//! `s1lisp` — an optimizing compiler for lexically scoped Lisp, after
//! Brooks, Gabriel & Steele, *An Optimizing Compiler for Lexically Scoped
//! LISP* (PLDI 1982), targeting a simulated S-1.
//!
//! This crate is the driver: it strings the phases of the paper's Table 1
//! together into a [`Compiler`], keeps the per-function optimization
//! [`Transcript`]s, and hands back runnable [`Machine`]s and reference
//! [`Interp`]reters for the same program.
//!
//! # Quick start
//!
//! ```
//! use s1lisp::{Compiler, Value};
//!
//! let mut c = Compiler::new();
//! c.compile_str(
//!     "(defun exptl (x n a)
//!        (cond ((zerop n) a)
//!              ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
//!              (t (exptl (* x x) (floor (/ n 2)) a))))",
//! ).unwrap();
//! let mut m = c.machine();
//! let v = m.run("exptl", &[Value::Fixnum(3), Value::Fixnum(10), Value::Fixnum(1)]).unwrap();
//! assert_eq!(v, Value::Fixnum(59049));
//! // The self-calls compiled to parameter-passing gotos:
//! assert_eq!(m.stats.max_call_depth, 0);
//! ```

#![warn(missing_docs)]

mod artifact;
mod dossier;
mod error;
mod guard;
mod image;
mod phases;
mod pipeline;

pub use artifact::Artifact;
pub use dossier::Dossier;
pub use error::CompileError;
pub use guard::GuardError;
pub use image::Image;
pub use phases::{phases, trip_phase_faults, Phase, PhaseStatus};
pub use pipeline::BytecodeBackend;
pub use pipeline::{
    backend_for, Backend, BackendKind, Pass, PassCx, PassInfo, PassWatch, Pipeline,
    PipelineOptions, S1Backend, UnitAnnotations, UnitState,
};
pub use s1lisp_bytecode::{BcTrap, Evaluator};
pub use s1lisp_trace::fault::{FaultPlan, FaultSite};

pub use s1lisp_codegen::CodegenOptions;
pub use s1lisp_interp::{Interp, LispError, Value};
pub use s1lisp_opt::{OptOptions, Transcript};
pub use s1lisp_s1sim::{Machine, MachineStats, Program, Trap};
pub use s1lisp_trace::{MemorySink, PhaseAgg, TraceSink};

use s1lisp_ast::{unparse, Tree};
use s1lisp_frontend::Frontend;
use s1lisp_interp::Const;
use s1lisp_reader::{pretty, read_all_str, Interner};
use s1lisp_trace::NullSink;

/// Hand-bumped artifact-compatibility integer folded into
/// [`Compiler::options_fingerprint`].  Bump it whenever generated code
/// can change with no option flag changing (primop table edits, cost
/// model tweaks, encoding changes), so stale disk-cache entries from
/// older builds become unreachable instead of wrong.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// One compiled function's artifacts.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// The `defun` name.
    pub name: String,
    /// Back-translated source as converted (before optimization).
    pub converted: String,
    /// Back-translated source after source-level optimization.
    pub optimized: String,
    /// The optimizer's transcript for this function.
    pub transcript: Transcript,
    /// The internal tree after optimization.
    pub tree: Tree,
    /// Number of source-level transformations applied.
    pub transformations: usize,
}

/// A function that has been read and converted (the Preliminary phase)
/// but not yet pushed through the rest of the pipeline.
///
/// Produced by [`Compiler::convert_str`]; consumed by
/// [`Compiler::compile_pending`].  In between, the compilation service
/// inspects [`PendingFunction::tree_fingerprint`] to decide whether a
/// cached artifact makes the remaining phases unnecessary.
#[derive(Debug)]
pub struct PendingFunction {
    inner: s1lisp_frontend::Function,
}

impl PendingFunction {
    /// The `defun` name.
    pub fn name(&self) -> &str {
        self.inner.name.as_str()
    }

    /// The structural fingerprint of the converted tree
    /// ([`s1lisp_ast::fingerprint`]): identical trees — regardless of
    /// which compiler, batch, or interner produced them — hash
    /// identically.
    pub fn tree_fingerprint(&self) -> u64 {
        s1lisp_ast::fingerprint(&self.inner.tree)
    }

    /// The whole-function object-code size estimate, from the same
    /// complexity analysis the pipeline runs (Table 1's "Complexity
    /// analysis" row).  The compilation service sorts batch queues
    /// largest-first on this, so the biggest compilations start first
    /// and the stragglers are small.
    pub fn complexity_estimate(&self) -> u32 {
        s1lisp_analysis::complexity(&self.inner.tree)
            .get(&self.inner.tree.root)
            .map(|c| c.0)
            .unwrap_or(0)
    }
}

/// The whole-pipeline compiler.
///
/// Feed it `defun`s (plus `proclaim`/`defvar` forms) via
/// [`Compiler::compile_str`]; get a runnable [`Machine`] via
/// [`Compiler::machine`] and a semantically equivalent reference
/// [`Interp`] via [`Compiler::interpreter`] for differential checks.
#[derive(Debug)]
pub struct Compiler {
    /// The symbol interner shared by everything this compiler reads.
    pub interner: Interner,
    /// Source-level optimization switches.
    pub opt_options: OptOptions,
    /// Whether to run the (optional) common sub-expression elimination
    /// phase (§4.3).
    pub cse: bool,
    /// Code-generation switches.
    pub codegen_options: CodegenOptions,
    /// Whether to run the branch-tensioning pass over generated code.
    pub tension_branches: bool,
    /// Guarded compilation: when on, the tree is validated against the
    /// Table-2 well-formedness invariants and the §7 back-translation
    /// round trip after conversion and after the source-level
    /// transformations; a violation is a [`CompileError::Guard`]
    /// instead of silently emitted code.
    pub guard: bool,
    /// Seeded fault plan for deterministic failure drills; `None` (the
    /// default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Which code-generation backend closes the pipeline (default:
    /// the S-1 backend).  Also salts
    /// [`Compiler::options_fingerprint`], so per-backend artifacts
    /// never collide in the service's caches.
    pub backend: BackendKind,
    /// Artifacts per compiled function, in compilation order.
    pub functions: Vec<CompiledFunction>,
    program: Program,
    bytecode: s1lisp_bytecode::Module,
    interp_sources: Vec<s1lisp_frontend::Function>,
    specials: Vec<String>,
    globals: Vec<(String, Const)>,
    eval_counter: u32,
    /// Telemetry sink; `None` (the default) makes tracing free.
    trace: Option<MemorySink>,
}

impl Default for Compiler {
    fn default() -> Compiler {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler with every optimization enabled.
    pub fn new() -> Compiler {
        Compiler {
            interner: Interner::new(),
            opt_options: OptOptions::default(),
            cse: false,
            codegen_options: CodegenOptions::default(),
            tension_branches: true,
            guard: false,
            fault_plan: None,
            backend: BackendKind::default(),
            functions: Vec::new(),
            program: Program::new(),
            bytecode: s1lisp_bytecode::Module::new(),
            interp_sources: Vec::new(),
            specials: Vec::new(),
            globals: Vec::new(),
            eval_counter: 0,
            trace: None,
        }
    }

    /// A compiler pre-seeded with a tenant's proclaim state: every name
    /// in `specials` is proclaimed special, in order, before any source
    /// is compiled.
    ///
    /// This is the single-shot reference for the compile server's
    /// incremental sessions — a function compiled in a session whose
    /// tenant has proclaimed `specials` must match the same form
    /// compiled by `Compiler::for_tenant(specials)`, byte for byte
    /// (pinned by the server's isolation tests).
    pub fn for_tenant<I, S>(specials: I) -> Compiler
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut c = Compiler::new();
        for s in specials {
            c.proclaim_special(s.as_ref());
        }
        c
    }

    /// A compiler with *no* optimization: the E12 baseline.
    pub fn unoptimized() -> Compiler {
        Compiler {
            opt_options: OptOptions::none(),
            codegen_options: CodegenOptions {
                tail_calls: false,
                pdl_numbers: false,
                cache_specials: false,
                register_allocation: false,
                representation_analysis: false,
                backtracking_pack: false,
            },
            tension_branches: false,
            ..Compiler::new()
        }
    }

    /// Compiles every top-level form in `source`, returning the names of
    /// the functions defined.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for read, conversion, or
    /// code-generation failures.
    pub fn compile_str(&mut self, source: &str) -> Result<Vec<String>, CompileError> {
        self.with_sink(|c, sink| {
            let pending = c.convert_str_with(source, sink)?;
            let mut names = Vec::new();
            for p in pending {
                names.push(c.compile_function(p.inner, sink)?);
            }
            Ok(names)
        })
    }

    /// Runs `f` with this compiler's trace sink detached, so `f` can
    /// borrow the rest of the compiler.  With tracing off, `f` gets a
    /// [`NullSink`]: recording is then a virtual no-op per phase
    /// boundary, and nothing is stored per node or instruction.
    fn with_sink<R>(&mut self, f: impl FnOnce(&mut Compiler, &mut dyn TraceSink) -> R) -> R {
        let mut trace = self.trace.take();
        let mut null = NullSink;
        let sink: &mut dyn TraceSink = match trace.as_mut() {
            Some(s) => s,
            None => &mut null,
        };
        let result = f(self, sink);
        self.trace = trace;
        result
    }

    /// Runs only the Preliminary phase — read + convert + `defvar`
    /// recording — returning the converted functions without compiling
    /// them.  Finish each one with [`Compiler::compile_pending`], or
    /// skip it when a cache already holds its artifact.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for read or conversion failures.
    pub fn convert_str(&mut self, source: &str) -> Result<Vec<PendingFunction>, CompileError> {
        self.with_sink(|c, sink| c.convert_str_with(source, sink))
    }

    /// Runs a converted function through the rest of the pipeline
    /// (everything after Preliminary), returning its name.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for code-generation failures.
    pub fn compile_pending(&mut self, pending: PendingFunction) -> Result<String, CompileError> {
        self.with_sink(|c, sink| c.compile_function(pending.inner, sink))
    }

    /// Like [`Compiler::compile_pending`], but through an explicit
    /// [`Pipeline`] instead of the one this compiler's options build —
    /// the hook for schedule experiments (e.g. the property test that
    /// permutes the pure analysis passes and asserts byte-identical
    /// artifacts).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for pass failures.
    pub fn compile_pending_with(
        &mut self,
        pending: PendingFunction,
        pipeline: &Pipeline,
    ) -> Result<String, CompileError> {
        self.with_sink(|c, sink| c.run_unit(pending.inner, pipeline, sink))
    }

    fn convert_str_with(
        &mut self,
        source: &str,
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<PendingFunction>, CompileError> {
        let sp = sink.span_begin("Preliminary", "(read+convert)");
        let forms = read_all_str(source, &mut self.interner)?;
        let mut fe = Frontend::new(&mut self.interner);
        for s in &self.specials {
            let sym = fe.interner.intern(s);
            fe.proclaim_special(sym);
        }
        let fns = fe.convert_toplevel(&forms)?;
        if sink.enabled() {
            sink.add("toplevel_forms", forms.len() as u64);
            sink.add("functions", fns.len() as u64);
        }
        sink.span_end(sp);
        for (name, init) in std::mem::take(&mut fe.defvar_inits) {
            self.globals
                .push((name.as_str().to_string(), Const::from_datum(&init)));
        }
        Ok(fns
            .into_iter()
            .map(|inner| PendingFunction { inner })
            .collect())
    }

    /// The per-function pass schedule this compiler's options build:
    /// the [`Pipeline`] that [`Compiler::compile_str`],
    /// [`Compiler::eval`], and the compilation service all run, and
    /// that `report --passes` and the Table-1 cross-check describe.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::from_options(&PipelineOptions {
            backend: self.backend,
            opt_options: self.opt_options.clone(),
            cse: self.cse,
            codegen_options: self.codegen_options.clone(),
            tension_branches: self.tension_branches,
            guard: self.guard,
            fault_plan: self.fault_plan.clone(),
        })
    }

    /// Runs one converted function through the whole Table 1 pipeline
    /// (the pass schedule of [`Compiler::pipeline`]) and records its
    /// artifacts.  Shared by [`Compiler::compile_str`] and
    /// [`Compiler::eval`], so both paths produce identical spans and
    /// dossiers.
    fn compile_function(
        &mut self,
        f: s1lisp_frontend::Function,
        sink: &mut dyn TraceSink,
    ) -> Result<String, CompileError> {
        let pipeline = self.pipeline();
        self.run_unit(f, &pipeline, sink)
    }

    /// Runs one converted function through an explicit [`Pipeline`].
    fn run_unit(
        &mut self,
        f: s1lisp_frontend::Function,
        pipeline: &Pipeline,
        sink: &mut dyn TraceSink,
    ) -> Result<String, CompileError> {
        let mut unit = UnitState::new(f);
        let mut cx = PassCx {
            sink,
            program: &mut self.program,
            bytecode: &mut self.bytecode,
        };
        pipeline.run(&mut unit, &mut cx)?;
        let name = unit.name.clone();
        let optimized = pretty(&unparse(unit.tree(), unit.tree().root), 78);
        let (func, converted, transcript, transformations) = unit.into_parts();
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

    /// Proclaims a variable special for subsequent compilations.
    pub fn proclaim_special(&mut self, name: &str) {
        self.specials.push(name.to_string());
    }

    /// Compiles and immediately evaluates expressions (REPL convenience):
    /// each non-`defun` form is wrapped in a nullary function, compiled
    /// with the current options, and run on a fresh machine that sees
    /// everything compiled so far.  `defun`s define persistently; global
    /// variable mutations do *not* persist across `eval` calls (each call
    /// gets a fresh machine).
    ///
    /// # Errors
    ///
    /// The outer `Result` carries compile-time failures; the inner one
    /// carries run-time traps.
    pub fn eval(&mut self, expr: &str) -> Result<Result<Value, Trap>, CompileError> {
        self.with_sink(|c, sink| c.eval_with(expr, sink))
    }

    fn eval_with(
        &mut self,
        expr: &str,
        sink: &mut dyn TraceSink,
    ) -> Result<Result<Value, Trap>, CompileError> {
        let sp = sink.span_begin("Preliminary", "(read+convert)");
        let forms = read_all_str(expr, &mut self.interner)?;
        let mut fe = Frontend::new(&mut self.interner);
        for s in &self.specials {
            let sym = fe.interner.intern(s);
            fe.proclaim_special(sym);
        }
        self.eval_counter += 1;
        let name = format!("%eval{}", self.eval_counter);
        let mut last = Value::Nil;
        let mut fns = Vec::new();
        for (k, form) in forms.iter().enumerate() {
            // defuns define; other forms evaluate.
            let head = form.car().and_then(|h| h.as_symbol().cloned());
            if matches!(
                head.as_ref().map(|s| s.as_str()),
                Some("defun" | "defvar" | "proclaim")
            ) {
                fns.extend(fe.convert_toplevel(std::slice::from_ref(form))?);
            } else {
                let fname = format!("{name}-{k}");
                let f = fe.convert_expr(&fname, form)?;
                fns.push(f);
            }
        }
        if sink.enabled() {
            sink.add("toplevel_forms", forms.len() as u64);
            sink.add("functions", fns.len() as u64);
        }
        sink.span_end(sp);
        let inits = std::mem::take(&mut fe.defvar_inits);
        for (gname, init) in inits {
            self.globals
                .push((gname.as_str().to_string(), Const::from_datum(&init)));
        }
        let mut eval_names = Vec::new();
        for f in fns {
            // The same per-function pipeline as `compile_str`: eval'd
            // forms get spans, transcripts, tensioned branches, and
            // `explain` dossiers too.
            let fname = self.compile_function(f, sink)?;
            if fname.starts_with("%eval") {
                eval_names.push(fname);
            }
        }
        let mut m = self.machine();
        for fname in eval_names {
            match m.run(&fname, &[]) {
                Ok(v) => last = v,
                Err(t) => return Ok(Err(t)),
            }
        }
        Ok(Ok(last))
    }

    /// A fresh machine loaded with everything compiled so far (with
    /// `defvar` initial values installed).
    pub fn machine(&self) -> Machine {
        image::machine(self.program.clone(), &self.globals)
    }

    /// A reference interpreter over the same (unoptimized-semantics)
    /// program, for differential testing.
    pub fn interpreter(&self) -> Interp {
        let mut interp = Interp::new();
        for f in &self.interp_sources {
            interp.define(f.clone());
        }
        let mut names = Interner::new();
        for (name, v) in &self.globals {
            interp.set_global(name, v.to_value(&mut names));
        }
        interp
    }

    /// The compiled program (for code-size measurements and
    /// disassembly).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Parenthesized listing of a compiled function — S-1 assembly or
    /// the bytecode listing, per the active backend — or `None` if it
    /// is not defined.
    pub fn disassemble(&self, name: &str) -> Option<String> {
        match self.backend {
            BackendKind::S1 => {
                let id = self.program.lookup_fn(name)?;
                let code = self.program.func(id)?;
                Some(s1lisp_codegen::disassemble(&self.program, code))
            }
            BackendKind::Bytecode => self.bytecode.listing(name),
        }
    }

    /// The bytecode module compiled so far (empty under the S-1
    /// backend).
    pub fn bytecode(&self) -> &s1lisp_bytecode::Module {
        &self.bytecode
    }

    /// A fresh bytecode evaluator loaded with everything compiled so
    /// far (with `defvar` initial values installed) — the bytecode
    /// backend's analog of [`Compiler::machine`].
    pub fn evaluator(&self) -> Evaluator {
        image::evaluator(self.bytecode.clone(), &self.globals)
    }

    /// Links what this compiler has compiled so far into an [`Image`]:
    /// the active backend's code and the `defvar` initial values.
    pub fn image(&self) -> Image {
        let globals = self.globals.clone();
        match self.backend {
            BackendKind::S1 => Image::s1(self.program.clone(), globals),
            BackendKind::Bytecode => Image::bytecode(self.bytecode.clone(), globals),
        }
    }

    /// Runs `entry` on this compiler's own engine through its
    /// [`Image`] (see [`Image::run_printed`]): the value, or `trap: …`.
    pub fn run_printed(&self, entry: &str, args: &[Value], fuel: u64) -> String {
        self.image().run_printed(entry, args, fuel)
    }

    /// The artifacts of a compiled function.
    pub fn function(&self, name: &str) -> Option<&CompiledFunction> {
        self.functions.iter().rev().find(|f| f.name == name)
    }

    /// The full compilation dossier for one function: its Table 1
    /// phase rows, rewrite transcript, representation decisions and
    /// coercions, TN packing map, and assembly listing.  Returns `None`
    /// if the function was never compiled by this compiler.
    ///
    /// The span-derived sections require tracing
    /// ([`Compiler::enable_trace`]) to have been on when the function
    /// was compiled; without it the dossier still carries the sources,
    /// transcript, and assembly.
    pub fn explain(&self, name: &str) -> Option<Dossier> {
        let f = self.function(name)?;
        let assembly = self.disassemble(name).unwrap_or_default();
        let owned = |v: Vec<&str>| v.into_iter().map(String::from).collect();
        let (phases, rep_decisions, lowered, coercions, tn_map) = match self.trace.as_ref() {
            Some(sink) => (
                sink.unit_phases(name),
                owned(sink.unit_events(name, "rep_var")),
                owned(sink.unit_events(name, "lowered")),
                owned(sink.unit_events(name, "coercion")),
                owned(sink.unit_events(name, "tn")),
            ),
            None => Default::default(),
        };
        let traced = !phases.is_empty();
        Some(Dossier {
            name: f.name.clone(),
            converted: f.converted.clone(),
            optimized: f.optimized.clone(),
            transcript: f.transcript.clone(),
            transformations: f.transformations,
            phases,
            rep_decisions,
            lowered,
            coercions,
            tn_map,
            assembly,
            traced,
        })
    }

    /// A fingerprint of every switch that can change emitted code: the
    /// source-level optimization options, CSE, the code-generation
    /// options, and branch tensioning.  Mixed with a tree fingerprint
    /// this keys the compilation service's artifact cache, so two
    /// compilers produce the same key exactly when they would produce
    /// the same artifact for the same converted tree.
    ///
    /// The canonical string is salted with the crate version and a
    /// hand-bumped [`CACHE_SCHEMA_VERSION`], so artifacts cached on disk
    /// by one build can never satisfy a different build sharing the same
    /// `--cache-dir` — a primop-table or cost-model change between
    /// versions silently invalidates every old entry.  Bump the schema
    /// integer whenever emitted code can change without any option
    /// changing.
    pub fn options_fingerprint(&self) -> u64 {
        let o = &self.opt_options;
        let g = &self.codegen_options;
        let canonical = format!(
            "v:{}/{} opt:{}{}{}{}{}{}{}{}{}{} rounds:{} cse:{} cg:{}{}{}{}{}{} tension:{}",
            env!("CARGO_PKG_VERSION"),
            CACHE_SCHEMA_VERSION,
            u8::from(o.call_lambda),
            u8::from(o.unused_args),
            u8::from(o.substitution),
            u8::from(o.if_distribution),
            u8::from(o.if_simplify),
            u8::from(o.if_lift),
            u8::from(o.constant_fold),
            u8::from(o.assoc_commut),
            u8::from(o.sin_to_cycles),
            u8::from(o.unroll),
            o.max_rounds,
            u8::from(self.cse),
            u8::from(g.tail_calls),
            u8::from(g.pdl_numbers),
            u8::from(g.cache_specials),
            u8::from(g.register_allocation),
            u8::from(g.representation_analysis),
            u8::from(g.backtracking_pack),
            u8::from(self.tension_branches),
        );
        // The backend salt keeps per-backend artifacts apart: the same
        // tree under the same switches emits different code per
        // backend, so their cache keys must differ too.
        let canonical = format!("{canonical} backend:{}", self.backend.salt());
        s1lisp_ast::fnv1a_str(&canonical)
    }

    /// The detached, thread-safe [`Artifact`] for a compiled function:
    /// the dossier's sections as plain data plus the rendered dossier
    /// itself.  Its `fingerprint` is left `0` — the service fills in the
    /// cache key.  Returns `None` if the function was never compiled by
    /// this compiler.
    pub fn artifact(&self, name: &str) -> Option<Artifact> {
        let f = self.function(name)?;
        let d = self.explain(name)?;
        let insns = match self.backend {
            BackendKind::S1 => self
                .program
                .lookup_fn(name)
                .and_then(|id| self.program.func(id))
                .map_or(0, |code| code.insns.len() as u64),
            BackendKind::Bytecode => self
                .bytecode
                .lookup(name)
                .map_or(0, |ix| self.bytecode.proto(ix).code.len() as u64),
        };
        Some(Artifact {
            name: f.name.clone(),
            backend: self.backend.name().to_string(),
            fingerprint: 0,
            converted: f.converted.clone(),
            optimized: f.optimized.clone(),
            transformations: f.transformations as u64,
            rules: f
                .transcript
                .rule_histogram()
                .into_iter()
                .map(|(r, n)| (r.to_string(), n))
                .collect(),
            phase_spans: d
                .phases
                .iter()
                .map(|p| (p.phase.to_string(), p.spans))
                .collect(),
            tn_map: d.tn_map.clone(),
            coercions: d.coercions.clone(),
            assembly: d.assembly.clone(),
            insns,
            dossier: d.render(false),
            degraded: false,
        })
    }

    /// Total encoded code size, in 36-bit words (§3's 1–3 word
    /// instruction formats).
    pub fn code_size_words(&self) -> usize {
        s1lisp_s1sim::program_size_words(&self.program)
    }

    /// Turns on compilation telemetry: subsequent
    /// [`Compiler::compile_str`] calls record a span per Table 1 phase
    /// per function, with wall time and per-phase counters, readable via
    /// [`Compiler::trace`] and [`Compiler::trace_report`].
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(MemorySink::new());
        }
    }

    /// The accumulated telemetry, or `None` if tracing was never enabled.
    pub fn trace(&self) -> Option<&MemorySink> {
        self.trace.as_ref()
    }

    /// Exports the accumulated per-phase trace aggregates into `reg`
    /// under `pipeline.<phase>.{spans,wall_us}` (phase names lowercased,
    /// spaces to underscores) plus `pipeline.<phase>.<counter>` for each
    /// per-phase counter.  No-op when tracing was never enabled; export
    /// once per compiler lifetime (counters `add`).
    pub fn export_metrics(&self, reg: &s1lisp_trace::metrics::MetricsRegistry) {
        let Some(sink) = self.trace.as_ref() else {
            return;
        };
        for agg in sink.phases() {
            let phase: String = agg
                .phase
                .chars()
                .map(|c| {
                    if c == ' ' {
                        '_'
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect();
            reg.counter(&format!("pipeline.{phase}.spans"))
                .add(agg.spans);
            reg.counter(&format!("pipeline.{phase}.wall_us"))
                .add(u64::try_from(agg.wall.as_micros()).unwrap_or(u64::MAX));
            for (counter, n) in &agg.counters {
                reg.counter(&format!("pipeline.{phase}.{counter}")).add(*n);
            }
        }
    }

    /// Firing counts per optimizer rule, aggregated across every
    /// function compiled so far, in first-fired order.  (Available with
    /// or without tracing — the transcripts are always kept.)
    pub fn rule_histogram(&self) -> Vec<(&'static str, u64)> {
        let mut hist: Vec<(&'static str, u64)> = Vec::new();
        for f in &self.functions {
            for (rule, n) in f.transcript.rule_histogram() {
                match hist.iter_mut().find(|(r, _)| *r == rule) {
                    Some(slot) => slot.1 += n,
                    None => hist.push((rule, n)),
                }
            }
        }
        hist
    }

    /// A paper-style (§7) human-readable report: the Table 1 phase table
    /// with spans, wall time, and counters, followed by the rule-firing
    /// histogram in `;****` transcript style.  Empty if tracing was
    /// never enabled.
    pub fn trace_report(&self) -> String {
        use std::fmt::Write as _;
        let Some(sink) = self.trace.as_ref() else {
            return String::new();
        };
        let mut out = String::new();
        let _ = writeln!(out, "Phase                              Spans   Wall(us)");
        for agg in sink.phases() {
            let _ = writeln!(
                out,
                "{:<34} {:>5} {:>10}",
                agg.phase,
                agg.spans,
                agg.wall.as_micros()
            );
            for (name, value) in &agg.counters {
                let _ = writeln!(out, "    {name:<32} {value:>12}");
            }
        }
        let hist = self.rule_histogram();
        if !hist.is_empty() {
            let _ = writeln!(out, ";**** Transformation rules applied:");
            for (rule, n) in hist {
                let _ = writeln!(out, ";****   {n:>5}  {rule}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(n: i64) -> Value {
        Value::Fixnum(n)
    }

    #[test]
    fn compile_and_run_quickstart() {
        let mut c = Compiler::new();
        c.compile_str("(defun square (x) (* x x))").unwrap();
        let mut m = c.machine();
        assert_eq!(m.run("square", &[fx(9)]).unwrap(), fx(81));
    }

    #[test]
    fn transcripts_are_recorded_per_function() {
        let mut c = Compiler::new();
        c.compile_str(
            "(defun testfn (a &optional (b 3.0) (c a))
               (let ((d (+$f a b c)) (e (*$f a b c)))
                 (let ((q (sin$f e)))
                   (frotz d e (max$f d e))
                   q)))",
        )
        .unwrap();
        let f = c.function("testfn").unwrap();
        assert!(f.transformations >= 4);
        assert!(f.transcript.count("META-EVALUATE-ASSOC-COMMUT-CALL") >= 2);
        assert!(f.optimized.contains("sinc$f"));
        let listing = c.disassemble("testfn").unwrap();
        assert!(listing.contains("DISPATCH"), "{listing}");
        assert!(listing.contains("FADD"), "{listing}");
    }

    #[test]
    fn unoptimized_baseline_executes_more_instructions() {
        let src = "(defun f (a b c) (let ((x 1.0)) (+$f a (+$f b c) (*$f x 1.0 a))))";
        let args = [Value::Flonum(1.0), Value::Flonum(2.0), Value::Flonum(3.0)];
        let mut c1 = Compiler::new();
        c1.compile_str(src).unwrap();
        let mut c2 = Compiler::unoptimized();
        c2.compile_str(src).unwrap();
        let mut m1 = c1.machine();
        let mut m2 = c2.machine();
        let v1 = m1.run("f", &args).unwrap();
        let v2 = m2.run("f", &args).unwrap();
        assert_eq!(v1, v2);
        assert!(
            m1.stats.insns < m2.stats.insns,
            "optimized {} vs unoptimized {}",
            m1.stats.insns,
            m2.stats.insns
        );
        assert!(m1.stats.heap.flonums < m2.stats.heap.flonums);
        // Code-size comparison is reported by the benches (E12), not
        // asserted here: RtCall-heavy unoptimized code can be compact.
        let _ = (c1.code_size_words(), c2.code_size_words());
    }

    #[test]
    fn differential_against_interpreter() {
        let src = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";
        let mut c = Compiler::new();
        c.compile_str(src).unwrap();
        let mut m = c.machine();
        let i = c.interpreter();
        for n in 0..15 {
            assert_eq!(
                m.run("fib", &[fx(n)]).unwrap(),
                i.call("fib", &[fx(n)]).unwrap()
            );
        }
    }

    #[test]
    fn phase_table_matches_table_1() {
        let ps = phases();
        // Table 1's top-level decomposition.
        let names: Vec<&str> = ps.iter().map(|p| p.name).collect();
        for expected in [
            "Preliminary",
            "Environment analysis",
            "Side-effects analysis",
            "Complexity analysis",
            "Tail-recursion analysis",
            "Data-type analysis",
            "Source-level optimization",
            "Common subexpression elimination",
            "Special variable lookups",
            "Binding annotation",
            "Representation annotation",
            "Pdl number annotation",
            "Target annotation",
            "Code generation",
            "Peephole optimizer",
        ] {
            assert!(names.contains(&expected), "missing phase {expected}");
        }
        // The bracketed phases of Table 1 are marked as such.
        let bracketed: Vec<&Phase> = ps.iter().filter(|p| p.bracketed_in_paper).collect();
        assert_eq!(bracketed.len(), 3);
    }

    #[test]
    fn proclaimed_specials_apply() {
        let mut c = Compiler::new();
        c.proclaim_special("depth");
        c.compile_str("(defun get-depth () depth)").unwrap();
        let mut m = c.machine();
        m.set_global("depth", &fx(7)).unwrap();
        assert_eq!(m.run("get-depth", &[]).unwrap(), fx(7));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    const SRC: &str = "(defun norm (x y) (let ((s (+$f (*$f x x) (*$f y y)))) (sqrt$f s)))
                       (defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";

    #[test]
    fn tracing_records_every_table_1_phase() {
        let mut c = Compiler::new();
        c.enable_trace();
        c.compile_str(SRC).unwrap();
        let sink = c.trace().unwrap();
        for phase in [
            "Preliminary",
            "Environment analysis",
            "Side-effects analysis",
            "Complexity analysis",
            "Tail-recursion analysis",
            "Source-level optimization",
            "Special variable lookups",
            "Binding annotation",
            "Representation annotation",
            "Pdl number annotation",
            "Target annotation",
            "Code generation",
            "Peephole optimizer",
        ] {
            let agg = sink.phase(phase);
            assert!(agg.is_some(), "phase {phase} never ran");
        }
        // Two functions -> two spans of each per-function phase.
        assert_eq!(sink.phase("Source-level optimization").unwrap().spans, 2);
        assert_eq!(sink.counter("Preliminary", "functions"), 2);
        // Codegen counters flowed through.
        assert!(sink.counter("Code generation", "insns_emitted") > 0);
        assert!(sink.counter("Target annotation", "tns") > 0);
    }

    #[test]
    fn tracing_off_records_nothing_and_output_is_identical() {
        let mut traced = Compiler::new();
        traced.enable_trace();
        traced.compile_str(SRC).unwrap();
        let mut plain = Compiler::new();
        plain.compile_str(SRC).unwrap();
        assert!(plain.trace().is_none());
        assert_eq!(plain.trace_report(), "");
        // Tracing must not perturb compilation.
        assert_eq!(
            plain.disassemble("norm").unwrap(),
            traced.disassemble("norm").unwrap()
        );
        assert_eq!(plain.code_size_words(), traced.code_size_words());
    }

    #[test]
    fn rule_histogram_aggregates_across_functions() {
        let mut c = Compiler::new();
        c.compile_str(
            "(defun f (a b c) (+$f a b c))
             (defun g (a b c) (*$f a b c))",
        )
        .unwrap();
        let hist = c.rule_histogram();
        let assoc = hist
            .iter()
            .find(|(r, _)| *r == "META-EVALUATE-ASSOC-COMMUT-CALL");
        assert!(assoc.is_some(), "{hist:?}");
        assert!(assoc.unwrap().1 >= 2, "{hist:?}");
    }

    #[test]
    fn explain_builds_a_full_dossier() {
        let mut c = Compiler::new();
        c.enable_trace();
        c.compile_str(SRC).unwrap();
        let d = c.explain("norm").unwrap();
        assert!(d.traced);
        // Only norm's spans, not fib's: one span per per-function phase.
        let slo = d
            .phases
            .iter()
            .find(|p| p.phase == "Source-level optimization")
            .unwrap();
        assert_eq!(slo.spans, 1);
        assert!(d.phases.iter().any(|p| p.phase == "Code generation"));
        // The float math forced unbox/box coercions, and TNBIND put
        // both arguments in registers; the dossier lists each.
        assert!(
            d.coercions.iter().any(|c| c.contains("unbox")),
            "{:?}",
            d.coercions
        );
        assert!(
            d.tn_map.iter().any(|t| t.contains("x = TN0")),
            "{:?}",
            d.tn_map
        );
        let text = d.render(false);
        assert!(text.contains("compilation dossier: norm"), "{text}");
        assert!(text.contains("Table 1 phases"), "{text}");
        assert!(text.contains("-- assembly --"), "{text}");
        // Deterministic render is byte-identical across fresh compiles.
        let mut c2 = Compiler::new();
        c2.enable_trace();
        c2.compile_str(SRC).unwrap();
        assert_eq!(text, c2.explain("norm").unwrap().render(false));
        // Unknown functions yield no dossier.
        assert!(c.explain("nonesuch").is_none());
    }

    #[test]
    fn explain_without_trace_still_has_sources_and_assembly() {
        let mut c = Compiler::new();
        c.compile_str(SRC).unwrap();
        let d = c.explain("fib").unwrap();
        assert!(!d.traced);
        assert!(d.phases.is_empty());
        let text = d.render(false);
        assert!(text.contains("no trace"), "{text}");
        assert!(text.contains("-- assembly --"), "{text}");
    }

    #[test]
    fn eval_records_the_same_spans_as_compile_str() {
        let mut c = Compiler::new();
        c.enable_trace();
        c.eval("(defun sq (x) (* x x))").unwrap().unwrap();
        assert_eq!(c.eval("(sq 9)").unwrap().unwrap(), Value::Fixnum(81));
        let sink = c.trace().unwrap();
        // Both the defun and the %eval wrapper went through the full
        // pipeline.
        let units = sink.units();
        assert!(units.contains(&"sq"), "{units:?}");
        assert!(units.iter().any(|u| u.starts_with("%eval")), "{units:?}");
        assert!(sink.counter("Code generation", "insns_emitted") > 0);
        // And eval'd functions can be explained like any other.
        let d = c.explain("sq").unwrap();
        assert!(d.traced);
        assert!(d.assembly.contains("RET"), "{}", d.assembly);
    }

    #[test]
    fn trace_report_is_paper_style() {
        let mut c = Compiler::new();
        c.enable_trace();
        c.compile_str(SRC).unwrap();
        let report = c.trace_report();
        assert!(report.contains("Phase"), "{report}");
        assert!(report.contains("Code generation"), "{report}");
        assert!(report.contains("insns_emitted"), "{report}");
        assert!(report.contains(";****"), "{report}");
    }
}

#[cfg(test)]
mod artifact_tests {
    use super::*;

    const SRC: &str = "(defun norm (x y) (let ((s (+$f (*$f x x) (*$f y y)))) (sqrt$f s)))
         (defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";

    #[test]
    fn convert_then_compile_matches_compile_str() {
        let mut split = Compiler::new();
        split.enable_trace();
        let pending = split.convert_str(SRC).unwrap();
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].name(), "norm");
        assert!(pending[0].tree_fingerprint() != pending[1].tree_fingerprint());
        for p in pending {
            split.compile_pending(p).unwrap();
        }
        let mut whole = Compiler::new();
        whole.enable_trace();
        whole.compile_str(SRC).unwrap();
        for name in ["norm", "fib"] {
            assert_eq!(
                split.disassemble(name).unwrap(),
                whole.disassemble(name).unwrap()
            );
            assert_eq!(
                split.explain(name).unwrap().render(false),
                whole.explain(name).unwrap().render(false)
            );
        }
    }

    #[test]
    fn tree_fingerprints_are_stable_across_compilers() {
        let src = "(defun sq (x) (* x x))";
        let mut a = Compiler::new();
        let mut b = Compiler::new();
        // b's interner has seen other spellings first.
        b.compile_str("(defun other (y z) (+ y z))").unwrap();
        let fa = a.convert_str(src).unwrap()[0].tree_fingerprint();
        let fb = b.convert_str(src).unwrap()[0].tree_fingerprint();
        assert_eq!(fa, fb);
    }

    #[test]
    fn options_fingerprint_tracks_code_shaping_switches() {
        let base = Compiler::new().options_fingerprint();
        assert_eq!(base, Compiler::new().options_fingerprint());
        assert_ne!(base, Compiler::unoptimized().options_fingerprint());
        let mut c = Compiler::new();
        c.cse = true;
        assert_ne!(base, c.options_fingerprint());
        let mut c = Compiler::new();
        c.tension_branches = false;
        assert_ne!(base, c.options_fingerprint());
    }

    #[test]
    fn backend_salts_the_options_fingerprint() {
        let base = Compiler::new().options_fingerprint();
        let mut bc = Compiler::new();
        bc.backend = BackendKind::Bytecode;
        // Same switches, different backend: the keys must never
        // collide, or one backend's cached artifacts would satisfy the
        // other's lookups.
        assert_ne!(base, bc.options_fingerprint());
        // Stable per backend.
        let mut bc2 = Compiler::new();
        bc2.backend = BackendKind::Bytecode;
        assert_eq!(bc.options_fingerprint(), bc2.options_fingerprint());
        // The salt composes with the other switches rather than
        // replacing them.
        bc2.cse = true;
        assert_ne!(bc.options_fingerprint(), bc2.options_fingerprint());
    }

    #[test]
    fn bytecode_backend_compiles_runs_and_tags_artifacts() {
        let mut c = Compiler::new();
        c.backend = BackendKind::Bytecode;
        c.compile_str(
            "(defun exptl (x n a)
               (cond ((zerop n) a)
                     ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
                     (t (exptl (* x x) (floor (/ n 2)) a))))",
        )
        .unwrap();
        let mut e = c.evaluator();
        let v = e
            .run(
                "exptl",
                &[Value::Fixnum(2), Value::Fixnum(10), Value::Fixnum(1)],
            )
            .unwrap();
        assert_eq!(v, Value::Fixnum(1024));
        let a = c.artifact("exptl").unwrap();
        assert_eq!(a.backend, "bytecode");
        assert!(a.insns > 0);
        assert!(a.assembly.contains("defbytecode exptl"));
        assert_eq!(a.assembly, c.disassemble("exptl").unwrap());
        // The S-1 program stays empty under the bytecode backend.
        assert_eq!(c.code_size_words(), 0);
    }

    #[test]
    fn artifact_round_trips_and_carries_the_dossier() {
        let mut c = Compiler::new();
        c.enable_trace();
        c.compile_str(SRC).unwrap();
        let a = c.artifact("norm").unwrap();
        assert_eq!(a.name, "norm");
        assert!(a.insns > 0);
        assert_eq!(a.assembly, c.disassemble("norm").unwrap());
        assert_eq!(a.dossier, c.explain("norm").unwrap().render(false));
        assert!(a.phase_spans.iter().any(|(p, _)| p == "Code generation"));
        assert!(!a.degraded);
        let text = a.to_json().to_string();
        let back = Artifact::from_json(&s1lisp_trace::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, a);
        assert!(c.artifact("nonesuch").is_none());
    }
}

#[cfg(test)]
mod eval_tests {
    use super::*;

    #[test]
    fn eval_expressions_and_definitions() {
        let mut c = Compiler::new();
        assert_eq!(c.eval("(+ 1 2)").unwrap().unwrap(), Value::Fixnum(3));
        c.eval("(defun sq (x) (* x x))").unwrap().unwrap();
        assert_eq!(c.eval("(sq 9)").unwrap().unwrap(), Value::Fixnum(81));
        // Run-time errors come back in the inner result.
        assert!(c.eval("(car 5)").unwrap().is_err());
        // Compile-time errors in the outer one.
        assert!(c.eval("(quote)").is_err());
        // Multiple forms: value of the last.
        assert_eq!(c.eval("(sq 2) (sq 3)").unwrap().unwrap(), Value::Fixnum(9));
    }
}

#[cfg(test)]
mod defvar_tests {
    use super::*;

    #[test]
    fn defvar_initializers_install_globals() {
        let mut c = Compiler::new();
        c.compile_str(
            "(defvar *base* 10)
             (defvar *greeting* 'hello)
             (defvar *uninit*)
             (defun scaled (x) (* x *base*))",
        )
        .unwrap();
        let mut m = c.machine();
        assert_eq!(
            m.run("scaled", &[Value::Fixnum(4)]).unwrap(),
            Value::Fixnum(40)
        );
        let i = c.interpreter();
        assert_eq!(
            i.call("scaled", &[Value::Fixnum(4)]).unwrap(),
            Value::Fixnum(40)
        );
        // Non-constant initializers are a clean error.
        let mut c2 = Compiler::new();
        assert!(c2.compile_str("(defvar *x* (compute-it))").is_err());
    }
}

#[cfg(test)]
mod eval_defvar_tests {
    use super::*;

    #[test]
    fn eval_honors_defvar_initializers() {
        let mut c = Compiler::new();
        c.eval("(defvar *k* 7)").unwrap().unwrap();
        assert_eq!(c.eval("(* *k* 6)").unwrap().unwrap(), Value::Fixnum(42));
    }
}
