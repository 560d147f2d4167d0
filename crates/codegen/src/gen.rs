//! The single-pass tree-walking code generator.

use std::collections::{HashMap, HashSet};

use s1lisp_analysis::tail_nodes_from;
use s1lisp_annotate::{Annotations, LambdaStrategy, Rep, VarAlloc};
use s1lisp_ast::{
    clip_form, primop, CallFunc, Inline, Lambda, NodeId, NodeKind, NumOp, Prim, ProgItem, Tree,
    VarId,
};
use s1lisp_interp::Const;
use s1lisp_reader::{Datum, Symbol};
use s1lisp_s1sim::{
    Asm, CallTarget, Cond, FloatOp, FloatUnOp, FuncCode, Insn, IntOp, Label, Operand, Program, Reg,
    Tag, Word,
};
use s1lisp_tnbind::{pack, Location, PackRequest, TnId, TnPool};
use s1lisp_trace::{NullSink, TraceSink};

use crate::CodegenOptions;

/// A code-generation failure (unsupported construct, internal limit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    /// What went wrong.
    pub message: String,
}

impl CodegenError {
    fn new(m: impl Into<String>) -> CodegenError {
        CodegenError { message: m.into() }
    }
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen error: {}", self.message)
    }
}

impl std::error::Error for CodegenError {}

type R<T> = Result<T, CodegenError>;

/// Compiles the function whose tree is `tree` (root must be a lambda)
/// into `program`, along with every closure body it contains.
///
/// # Errors
///
/// Returns a [`CodegenError`] for constructs outside the compilable
/// subset (`go` across a closure boundary, `&optional` in a `let`, …).
pub fn compile(name: &str, tree: &Tree, program: &mut Program, opts: &CodegenOptions) -> R<()> {
    emit_annotated(
        name,
        tree,
        &Annotations::compute(tree, name),
        program,
        opts,
        &mut NullSink,
    )
    .map(drop)
}

/// The emission back half of the pipeline: TNBIND + code generation
/// over an already-annotated tree.  Runs the per-lambda work loop —
/// pass-1 emit, TN packing (a "Target annotation" span per function),
/// and the pass-2 re-emit when packing promoted variables to registers
/// ("Code generation" spans around each emit pass, so such functions
/// contribute two; the counters describe only the final code).  This is
/// the entry point the pass manager uses, with the annotations carried
/// in the unit state rather than recomputed here; [`compile`] is the
/// same work over freshly computed annotations, untraced.  Returns the
/// names of the functions defined: `name` and its closure bodies.
///
/// # Errors
///
/// Same failure modes as [`compile`].
pub fn emit_annotated(
    name: &str,
    tree: &Tree,
    ann: &Annotations,
    program: &mut Program,
    opts: &CodegenOptions,
    sink: &mut dyn TraceSink,
) -> R<Vec<String>> {
    let mut defined = Vec::new();
    let mut counter = 0u32;
    let mut work: Vec<(String, NodeId, Vec<VarId>)> = vec![(name.to_string(), tree.root, vec![])];
    while let Some((fname, lambda, captures)) = work.pop() {
        let code = compile_lambda(
            tree,
            ann,
            &fname,
            lambda,
            &captures,
            program,
            opts,
            &mut work,
            &mut counter,
            sink,
        )?;
        defined.push(code.name.clone());
        program.define(code);
    }
    Ok(defined)
}

#[allow(clippy::too_many_arguments)]
fn compile_lambda(
    tree: &Tree,
    ann: &Annotations,
    fname: &str,
    lambda: NodeId,
    captures: &[VarId],
    program: &mut Program,
    opts: &CodegenOptions,
    work: &mut Vec<(String, NodeId, Vec<VarId>)>,
    counter: &mut u32,
    sink: &mut dyn TraceSink,
) -> R<FuncCode> {
    // Pass 1: emit with every variable in a frame slot, recording TN
    // lifetimes and call sites.
    let counter_start = *counter;
    let sp = sink.span_begin("Code generation", fname);
    let mut g = Gen::new(
        tree, ann, fname, lambda, captures, program, opts, work, counter,
    );
    let (code, pool, var_tn) = g.emit()?;
    let metrics = std::mem::take(&mut g.metrics);
    if !opts.register_allocation {
        metrics.report(sink, &code);
        sink.span_end(sp);
        return Ok(code);
    }
    sink.span_end(sp);
    // TNBIND: pack, then re-emit with winning variables promoted to
    // registers.
    let sp_tn = sink.span_begin("Target annotation", fname);
    let packing = pack(&pool, &PackRequest::default());
    let mut promote: HashMap<VarId, Reg> = HashMap::new();
    for (&var, &tn) in &var_tn {
        if let Location::Reg(r) = packing.location(tn) {
            if g.worth_promoting(var, &pool) {
                promote.insert(var, Reg(r));
            }
        }
    }
    if sink.enabled() {
        sink.add("tns", pool.len() as u64);
        sink.add("tns_in_registers", packing.in_registers as u64);
        sink.add("slots_used", u64::from(packing.slots_used));
        sink.add("vars_promoted", promote.len() as u64);
        // Conflict-graph size — O(n²), computed only when tracing.
        sink.add("conflict_edges", pool.conflict_edges());
        // The packing map itself, for dossiers: where each user
        // variable's TN landed.  Sorted by arena index for determinism.
        let mut map: Vec<(VarId, TnId)> = var_tn.iter().map(|(&v, &tn)| (v, tn)).collect();
        map.sort_by_key(|&(v, _)| v.index());
        for (v, tn) in map {
            let loc = match packing.location(tn) {
                Location::Reg(r) if promote.contains_key(&v) => format!("R{r}"),
                Location::Reg(r) => format!("R{r}, not worth promoting"),
                Location::Slot(s) => format!("slot {s}"),
            };
            sink.event(
                "tn",
                &format!("{} = TN{} -> {loc}", tree.var(v).name.as_str(), tn.index()),
            );
        }
    }
    sink.span_end(sp_tn);
    if promote.is_empty() {
        // Pass-1 code is final: its counters go in now, under a zero-
        // length span so they attribute to the right phase.
        if sink.enabled() {
            let sp = sink.span_begin("Code generation", fname);
            metrics.report(sink, &code);
            sink.span_end(sp);
        }
        return Ok(code);
    }
    // Closures discovered in pass 1 are already queued; pass 2 re-derives
    // the same names (same counter start) and its duplicates are dropped.
    let mark = work.len();
    *counter = counter_start;
    let sp = sink.span_begin("Code generation", fname);
    let mut g2 = Gen::new(
        tree, ann, fname, lambda, captures, program, opts, work, counter,
    );
    g2.promote = promote;
    let (code2, _, _) = g2.emit()?;
    g2.metrics.report(sink, &code2);
    sink.span_end(sp);
    work.truncate(mark);
    Ok(code2)
}

/// Counters the generator accumulates while emitting one function.
#[derive(Clone, Debug, Default)]
struct GenMetrics {
    /// Representation coercions that emitted code (ISREP ≠ WANTREP).
    coercions: u64,
    /// Coercions satisfied by a pdl (stack) box instead of a heap box.
    pdl_promotions: u64,
    /// Coercions that had to heap-box a flonum.
    heap_boxes: u64,
    /// Pointer→raw unboxings.
    unboxes: u64,
    /// One human-readable note per coercion, in emission order
    /// (reported as "coercion" events, the dossier's coercion list).
    notes: Vec<String>,
}

impl GenMetrics {
    fn report(&self, sink: &mut dyn TraceSink, code: &FuncCode) {
        if !sink.enabled() {
            return;
        }
        sink.add("insns_emitted", code.insns.len() as u64);
        sink.add("coercions", self.coercions);
        sink.add("pdl_promotions", self.pdl_promotions);
        sink.add("heap_boxes", self.heap_boxes);
        sink.add("unboxes", self.unboxes);
        for note in &self.notes {
            sink.event("coercion", note);
        }
    }
}

/// Where a variable's value lives at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VLoc {
    /// Frame slot (FP-relative).
    Slot(u16),
    /// Register (TNBIND promotion).
    Reg(Reg),
    /// Frame slot holding a heap value-cell pointer.
    Cell(u16),
    /// Closure environment slot (holds a cell pointer).
    Env(u16),
    /// Deep-bound special (by symbol id).
    Special(u32),
}

/// A value produced by expression generation: an operand plus ownership
/// of the scratch register / temp slot it may occupy.
#[derive(Clone, Copy, Debug)]
struct Val {
    op: Operand,
    reg: Option<Reg>,
    temp: Option<u16>,
}

impl Val {
    fn con(w: Word) -> Val {
        Val {
            op: Operand::Const(w),
            reg: None,
            temp: None,
        }
    }

    fn reg(r: Reg) -> Val {
        Val {
            op: Operand::Reg(r),
            reg: Some(r),
            temp: None,
        }
    }

    fn borrowed(op: Operand) -> Val {
        Val {
            op,
            reg: None,
            temp: None,
        }
    }

    /// A call's result, left in register A for its consumer to read
    /// there (`PUSH A`, `%FLONUM-FETCH R A`, `MOV home A`) rather than
    /// copied out first; a call compiled for effect copies nothing.
    /// Only calls and throws write A, so the value lives exactly as
    /// long as one in a scratch register: a consumer that runs a
    /// sibling's calls first protects it, as it would a register.
    fn in_a() -> Val {
        Val::borrowed(Operand::Reg(Reg::A))
    }
}

/// A local-function (join point) record.
#[derive(Clone, Debug)]
struct LocalFn {
    label: Label,
    tail_mode: bool,
    /// Parameter slots, in order.
    params: Vec<u16>,
}

/// The flonum unboxings one `let`'s initializations share (see
/// [`Gen::shared_unbox`]).
struct UnboxScope {
    /// Pointer variables the initializations read as a flonum more than
    /// once.
    shared: HashSet<VarId>,
    /// Each shared variable unboxed so far, with the scratch place that
    /// holds its raw value and whether the place still holds it: a
    /// label, a call or an assignment to the variable since the unbox
    /// ends that.
    held: Vec<(VarId, Val, bool)>,
}

/// An enclosing progbody context.
struct PbCtx {
    tags: Vec<(Symbol, Label)>,
    exit: Label,
    /// Result slot (None when the progbody is in tail position).
    result: Option<u16>,
    tail: bool,
}

struct Gen<'a> {
    tree: &'a Tree,
    ann: &'a Annotations,
    opts: &'a CodegenOptions,
    program: &'a mut Program,
    work: &'a mut Vec<(String, NodeId, Vec<VarId>)>,
    counter: &'a mut u32,
    fname: String,
    lambda: Lambda,
    tails: HashSet<NodeId>,
    asm: Asm,
    var_loc: HashMap<VarId, VLoc>,
    free_regs: Vec<Reg>,
    nslots: u16,
    temp_next: u16,
    temp_high: u16,
    free_temps: Vec<u16>,
    alloc_patch: Vec<usize>,
    body_label: Label,
    /// Where a self tail call's parameter-passing goto lands: after the
    /// prologue, with every parameter in its home (see
    /// [`Gen::gen_self_loop`]).  Bound only in a function with a self
    /// tail call and no special or heap-allocated parameter.
    loop_label: Option<Label>,
    simple: bool,
    local_fns: HashMap<VarId, LocalFn>,
    blocks: Vec<(VarId, NodeId)>,
    pb_stack: Vec<PbCtx>,
    specials_bound: u16,
    spec_cache: HashMap<String, u16>,
    pool: TnPool,
    var_tn: HashMap<VarId, TnId>,
    promote: HashMap<VarId, Reg>,
    /// Unbox scopes of the `let`s whose initializations are being
    /// compiled, innermost last.
    unbox_scopes: Vec<UnboxScope>,
    /// Where pass 1 read each frame-slot variable, for
    /// [`Gen::worth_promoting`].
    var_reads: HashMap<VarId, Vec<u32>>,
    effects_cache: Vec<Option<(bool, bool)>>,
    metrics: GenMetrics,
}

impl<'a> Gen<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        tree: &'a Tree,
        ann: &'a Annotations,
        fname: &str,
        lambda: NodeId,
        captures: &[VarId],
        program: &'a mut Program,
        opts: &'a CodegenOptions,
        work: &'a mut Vec<(String, NodeId, Vec<VarId>)>,
        counter: &'a mut u32,
    ) -> Gen<'a> {
        let NodeKind::Lambda(l) = tree.kind(lambda).clone() else {
            panic!("compile_lambda on a non-lambda node");
        };
        let (_, maxa) = l.arity();
        let nslots = (maxa.unwrap_or(l.required.len() + l.optional.len())
            + usize::from(l.rest.is_some())) as u16;
        let mut var_loc = HashMap::new();
        for (i, &c) in captures.iter().enumerate() {
            var_loc.insert(c, VLoc::Env(i as u16));
        }
        let tails = tail_nodes_from(tree, lambda);
        Gen {
            tree,
            ann,
            opts,
            program,
            work,
            counter,
            fname: fname.to_string(),
            lambda: l,
            tails,
            asm: Asm::new(fname, nslots),
            var_loc,
            free_regs: (Reg::FIRST_GP..=15)
                .map(Reg)
                .chain([Reg::RTB, Reg::RTA])
                .collect(),
            nslots,
            temp_next: 0,
            temp_high: 0,
            free_temps: Vec::new(),
            alloc_patch: Vec::new(),
            body_label: 0,
            loop_label: None,
            simple: true,
            local_fns: HashMap::new(),
            blocks: Vec::new(),
            pb_stack: Vec::new(),
            specials_bound: 0,
            spec_cache: HashMap::new(),
            pool: TnPool::new(),
            var_tn: HashMap::new(),
            promote: HashMap::new(),
            unbox_scopes: Vec::new(),
            var_reads: HashMap::new(),
            effects_cache: vec![None; tree.node_count()],
            metrics: GenMetrics::default(),
        }
    }

    // ---------------------------------------------------------- plumbing

    fn pos(&self) -> u32 {
        self.asm.len() as u32
    }

    /// Binds `l` here.  Control may arrive from elsewhere, so no unboxed
    /// value is known to be held any more.
    fn bind(&mut self, l: Label) {
        self.forget_unboxed(None);
        self.asm.bind(l);
    }

    /// Records a call for TNBIND: it clobbers the scratch registers,
    /// unboxed values included.
    fn note_call(&mut self) {
        self.forget_unboxed(None);
        self.pool.record_call(self.pos());
    }

    /// Marks the held unboxings of `var` (of every variable, for `None`)
    /// as no longer valid.  Their places stay reserved until their scope
    /// releases them, since a value read from one may still be waiting
    /// for its consumer.
    fn forget_unboxed(&mut self, var: Option<VarId>) {
        for scope in &mut self.unbox_scopes {
            for held in &mut scope.held {
                if var.is_none_or(|v| v == held.0) {
                    held.2 = false;
                }
            }
        }
    }

    fn err<T>(&self, m: impl Into<String>) -> R<T> {
        Err(CodegenError::new(format!("{}: {}", self.fname, m.into())))
    }

    fn rep_is(&self, n: NodeId) -> Rep {
        if self.opts.representation_analysis {
            self.ann.rep.is(n)
        } else {
            Rep::Pointer
        }
    }

    fn var_rep(&self, v: VarId) -> Rep {
        if self.opts.representation_analysis {
            self.ann
                .rep
                .var_rep
                .get(&v)
                .copied()
                .unwrap_or(Rep::Pointer)
        } else {
            Rep::Pointer
        }
    }

    fn alloc_reg(&mut self) -> Option<Reg> {
        // Prefer general registers; keep RTs for arithmetic when we can.
        if let Some(i) = self.free_regs.iter().position(|r| !r.is_rt()) {
            return Some(self.free_regs.remove(i));
        }
        self.free_regs.pop()
    }

    fn alloc_rt(&mut self) -> Option<Reg> {
        let i = self.free_regs.iter().position(|r| r.is_rt())?;
        Some(self.free_regs.remove(i))
    }

    fn free_reg(&mut self, r: Reg) {
        debug_assert!(!self.free_regs.contains(&r));
        self.free_regs.push(r);
    }

    fn alloc_temp(&mut self) -> u16 {
        let t = self.free_temps.pop().unwrap_or_else(|| {
            let t = self.temp_next;
            self.temp_next += 1;
            t
        });
        self.temp_high = self.temp_high.max(self.temp_next);
        t
    }

    /// A temp slot that lives until function exit (variables, pdl slots).
    fn alloc_temp_pinned(&mut self) -> u16 {
        let t = self.temp_next;
        self.temp_next += 1;
        self.temp_high = self.temp_high.max(self.temp_next);
        t
    }

    /// Has control run straight from the prologue's one `ALLOC`, with no
    /// label bound since?  Then a slot fresh from
    /// [`Gen::alloc_temp_pinned`] still holds the NIL the `ALLOC`
    /// stored, and binding it to NIL needs no `MOV`.
    fn straight_from_alloc(&self) -> bool {
        match self.alloc_patch[..] {
            [site] => self.asm.last_bound().is_none_or(|at| at <= site),
            _ => false,
        }
    }

    fn temp_op(&self, t: u16) -> Operand {
        Operand::Ind(Reg::FP, i32::from(self.nslots + t))
    }

    fn release(&mut self, v: Val) {
        if let Some(r) = v.reg {
            self.free_reg(r);
        }
        if let Some(t) = v.temp {
            self.free_temps.push(t);
        }
    }

    /// A fresh writable place: register if available, else a temp slot.
    fn alloc_place(&mut self) -> Val {
        match self.alloc_reg() {
            Some(r) => Val::reg(r),
            None => {
                let t = self.alloc_temp();
                Val {
                    op: self.temp_op(t),
                    reg: None,
                    temp: Some(t),
                }
            }
        }
    }

    /// Parks a value in a temp slot so it survives a call or a sibling
    /// assignment (constants need no protection).
    fn protect(&mut self, v: Val) -> Val {
        match v.op {
            Operand::Const(_) => v,
            _ => {
                let t = self.alloc_temp();
                let op = self.temp_op(t);
                let v = self.store_home(op, v);
                self.release(v);
                Val {
                    op,
                    reg: None,
                    temp: Some(t),
                }
            }
        }
    }

    /// `v`, protected from `sibling` when that may clobber it.
    fn protect_from(&mut self, v: Val, sibling: NodeId) -> Val {
        if self.sibling_unsafe(sibling) {
            self.protect(v)
        } else {
            v
        }
    }

    /// Pushes a call's argument.  A constant the last instruction loaded
    /// into a scratch place is pushed straight from the constant table.
    fn push_arg(&mut self, v: Val) {
        if v.reg.is_some() || v.temp.is_some() {
            if let Some(last) = self.asm.last_unlabelled_mut() {
                if let Insn::LoadConst { dst, idx } = *last {
                    if dst == v.op {
                        *last = Insn::PushConst { idx };
                        self.release(v);
                        return;
                    }
                }
            }
        }
        self.asm.push(Insn::Push { src: v.op });
        self.release(v);
    }

    /// Must `v` be protected while the sibling expression runs?  Calls
    /// clobber scratch registers; assignments may change borrowed
    /// variable slots.
    fn sibling_unsafe(&mut self, sibling: NodeId) -> bool {
        let (calls, assigns) = self.effects(sibling);
        calls || assigns
    }

    /// `(calls, assigns)` of a subtree: whether evaluating it may
    /// transfer control into user code, and whether it assigns a
    /// variable.  Memoized per node (in a table indexed by node, which
    /// costs less than hashing) and combined from the children's, so
    /// asking about every operand of a nested expression walks it once.
    fn effects(&mut self, node: NodeId) -> (bool, bool) {
        if let Some(e) = self.effects_cache[node.index()] {
            return e;
        }
        let mut e = match self.tree.kind(node) {
            NodeKind::Call {
                func: CallFunc::Global(g),
                ..
            } => (leaves_function(g), false),
            NodeKind::Call {
                func: CallFunc::Expr(f),
                ..
            } => (!matches!(self.tree.kind(*f), NodeKind::Lambda(_)), false),
            NodeKind::Setq { .. } => (false, true),
            _ => (false, false),
        };
        for c in self.tree.children(node) {
            let (calls, assigns) = self.effects(c);
            e = (e.0 || calls, e.1 || assigns);
        }
        self.effects_cache[node.index()] = Some(e);
        e
    }

    // ------------------------------------------------------ entry points

    fn emit(&mut self) -> R<(FuncCode, TnPool, HashMap<VarId, TnId>)> {
        self.emit_prologue()?;
        self.gen_tail(self.lambda.body)?;
        while let Some((var, lambda_node)) = self.blocks.pop() {
            self.emit_block(var, lambda_node)?;
        }
        // Patch the temp-slot allocations; a frame with no temps
        // allocates nothing, so its `ALLOC 0`s go.
        let sites = std::mem::take(&mut self.alloc_patch);
        for &site in &sites {
            self.asm.patch(
                site,
                Insn::AllocSlots {
                    n: self.temp_high,
                    init: Word::NIL,
                },
            );
        }
        let mut code = std::mem::replace(&mut self.asm, Asm::new("done", 0)).finish();
        if self.temp_high == 0 && !sites.is_empty() {
            let mut keep = vec![true; code.insns.len()];
            for site in sites {
                keep[site] = false;
            }
            code.retain(&keep);
        }
        Ok((
            code,
            std::mem::take(&mut self.pool),
            std::mem::take(&mut self.var_tn),
        ))
    }

    fn emit_prologue(&mut self) -> R<()> {
        let l = self.lambda.clone();
        let req = l.required.len() as u16;
        let maxp = req + l.optional.len() as u16;
        self.simple = l.is_simple();
        // Provisional slot locations so optional defaults can reference
        // earlier parameters; special/heap/promoted upgrades happen after
        // the frame is normalized.
        for (i, p) in l.all_params().into_iter().enumerate() {
            self.var_loc.insert(p, VLoc::Slot(i as u16));
        }
        if self.simple {
            let ok = self.asm.label();
            self.asm.push(Insn::JmpIf {
                cond: Cond::Eq,
                prim: Cond::Eq.prim(),
                a: Operand::Reg(Reg::RTA),
                b: Operand::Const(Word::Raw(i64::from(req))),
                target: ok,
            });
            self.asm.push(Insn::Trap {
                msg: "wrong number of arguments",
            });
            self.bind(ok);
            self.body_label = self.asm.here();
            self.alloc_patch.push(self.asm.push(Insn::AllocSlots {
                n: 0,
                init: Word::NIL,
            }));
        } else {
            let body = self.asm.label();
            let trap = self.asm.label();
            let listify = l.rest.map(|_| self.asm.label());
            if let Some(listify) = listify {
                self.asm.push(Insn::JmpIf {
                    cond: Cond::Ge,
                    prim: Cond::Ge.prim(),
                    a: Operand::Reg(Reg::RTA),
                    b: Operand::Const(Word::Raw(i64::from(maxp))),
                    target: listify,
                });
            }
            // Dispatch on the argument count (Table 4's four-way
            // dispatch).
            let mut targets: Vec<Label> = Vec::new();
            let mut cases: Vec<Label> = Vec::new();
            for n in 0..=maxp {
                if n < req {
                    targets.push(trap);
                } else {
                    let c = self.asm.label();
                    targets.push(c);
                    cases.push(c);
                }
            }
            self.asm.push(Insn::Dispatch {
                src: Operand::Reg(Reg::RTA),
                targets,
            });
            self.bind(trap);
            self.asm.push(Insn::Trap {
                msg: "wrong number of arguments",
            });
            // One case per supplied-argument count: allocate the missing
            // slots, compute defaults, join at the body ("there is code
            // customized to the number of arguments to set up the stack
            // frame and initialize parameters for which no arguments were
            // passed", §7).
            for (idx, case) in cases.into_iter().enumerate() {
                let supplied = req + idx as u16;
                self.bind(case);
                let missing = (maxp - supplied) + u16::from(l.rest.is_some());
                if missing > 0 {
                    self.asm.push(Insn::AllocSlots {
                        n: missing,
                        init: Word::NIL,
                    });
                }
                self.alloc_patch.push(self.asm.push(Insn::AllocSlots {
                    n: 0,
                    init: Word::NIL,
                }));
                for j in supplied..maxp {
                    let opt = &l.optional[(j - req) as usize];
                    let rep = self.var_rep(opt.var);
                    let v = self.gen_into(opt.default, rep)?;
                    self.asm.push(Insn::Mov {
                        dst: Operand::arg(j),
                        src: v.op,
                    });
                    self.release(v);
                    // The slot is now usable by later defaults; register
                    // its location early.
                    self.var_loc.insert(opt.var, VLoc::Slot(j));
                }
                self.asm.push(Insn::Jmp { target: body });
            }
            if let (Some(listify), Some(_)) = (listify, l.rest) {
                self.bind(listify);
                self.asm.push(Insn::ListifyArgs { fixed: maxp });
                self.alloc_patch.push(self.asm.push(Insn::AllocSlots {
                    n: 0,
                    init: Word::NIL,
                }));
                self.asm.push(Insn::Jmp { target: body });
            }
            self.bind(body);
            self.body_label = body;
        }

        // Register parameter locations and handle special/heap params.
        let all = l.all_params();
        for (i, &p) in all.iter().enumerate() {
            let i = i as u16;
            match self.ann.binding.var_alloc.get(&p) {
                Some(VarAlloc::Special) => {
                    let sym = self.program.sym_id(self.tree.var(p).name.as_str());
                    self.asm.push(Insn::SpecBind {
                        sym,
                        src: Operand::arg(i),
                    });
                    self.specials_bound += 1;
                    self.var_loc.insert(p, VLoc::Special(sym));
                }
                Some(VarAlloc::Heap) => {
                    let slot = self.alloc_temp_pinned();
                    let dst = self.temp_op(slot);
                    self.asm.push(Insn::MakeCell {
                        dst,
                        src: Operand::arg(i),
                    });
                    self.var_loc.insert(p, VLoc::Cell(slot));
                }
                _ => {
                    // TNBIND promotion: pass 2 loads the parameter into
                    // its register once, here.  A declared raw
                    // representation converts the incoming pointer-format
                    // argument on the way, into the register or in place.
                    let home = match self.promote.get(&p) {
                        Some(&r) => Operand::Reg(r),
                        None => Operand::arg(i),
                    };
                    if self.var_rep(p) == Rep::Swflo {
                        self.asm.push(Insn::UnboxFlo {
                            dst: home,
                            src: Operand::arg(i),
                        });
                    } else if self.ann.pdl.entry_certified.contains(&p) {
                        // Certified once, before the loop label: every
                        // value the loop assigns is pdl-free (§6.3).
                        self.asm.push(Insn::Certify {
                            dst: home,
                            src: Operand::arg(i),
                        });
                    } else if home != Operand::arg(i) {
                        self.asm.push(Insn::Mov {
                            dst: home,
                            src: Operand::arg(i),
                        });
                    }
                    if let Operand::Reg(r) = home {
                        self.var_loc.insert(p, VLoc::Reg(r));
                    } else {
                        let tn = *self
                            .var_tn
                            .entry(p)
                            .or_insert_with(|| self.pool.new_tn(self.tree.var(p).name.as_str()));
                        self.pool.record_use(tn, self.pos());
                        self.var_loc.insert(p, VLoc::Slot(i));
                    }
                }
            }
        }
        // Remove promoted registers from the scratch pool.
        let promoted: Vec<Reg> = self.promote.values().copied().collect();
        self.free_regs.retain(|r| !promoted.contains(r));

        // Cached special lookups ("on entry to a function, all the
        // special variables needed by that function are searched for once
        // and pointers to the relevant stack locations are cached in the
        // function's local activation frame", §4.4).
        if self.opts.cache_specials {
            let mut needed: Vec<String> = self
                .tree
                .var_ids()
                .filter(|&v| {
                    self.tree.var(v).special
                        && !self.tree.var(v).refs.is_empty()
                        && within_lambda(self.tree, v)
                })
                .map(|v| self.tree.var(v).name.as_str().to_string())
                .collect();
            // A name some inner binding rebinds would have its pointer
            // cached before that binding exists; it is searched for at
            // each access instead.
            let rebound: HashSet<&str> = self
                .tree
                .var_ids()
                .filter(|&v| {
                    let var = self.tree.var(v);
                    var.special && var.binder.is_some() && !all.contains(&v)
                })
                .map(|v| self.tree.var(v).name.as_str())
                .collect();
            needed.retain(|name| !rebound.contains(name.as_str()));
            needed.sort();
            needed.dedup();
            for name in needed {
                let sym = self.program.sym_id(&name);
                let slot = self.alloc_temp_pinned();
                let dst = self.temp_op(slot);
                self.asm.push(Insn::SpecLookup { dst, sym });
                self.spec_cache.insert(name, slot);
            }
        }
        let in_homes = all
            .iter()
            .all(|p| matches!(self.var_loc[p], VLoc::Slot(_) | VLoc::Reg(_)));
        if self.simple && in_homes && self.has_self_loop() {
            self.loop_label = Some(self.asm.here());
        }
        Ok(())
    }

    /// Does promoting `v` to the register packing gave it save
    /// anything?  A variable the body never reads gains nothing.  A
    /// parameter costs a `MOV` into the register on entry, which pays
    /// only when the body reads it inside a loop: a register operand
    /// costs no fewer instructions than a frame slot.
    fn worth_promoting(&self, v: VarId, pool: &TnPool) -> bool {
        let reads = self.var_reads.get(&v).map_or(&[][..], Vec::as_slice);
        if !self.lambda.all_params().contains(&v) {
            return !reads.is_empty();
        }
        reads.iter().any(|&at| {
            pool.loop_regions
                .iter()
                .any(|&(start, end)| start <= at && at <= end)
        })
    }

    /// Does the body make a self tail call that [`Gen::loops_in_place`]?
    fn has_self_loop(&mut self) -> bool {
        let sites: Vec<Vec<NodeId>> = self
            .tails
            .iter()
            .filter_map(|&n| match self.tree.kind(n) {
                NodeKind::Call {
                    func: CallFunc::Global(g),
                    args,
                } if g.as_str() == self.fname => Some(args.clone()),
                _ => None,
            })
            .collect();
        sites.iter().any(|args| self.loops_in_place(args))
    }

    /// Can a self tail call with these arguments assign them in place
    /// ([`Gen::gen_self_loop`])?  Not when an argument after the first
    /// makes a call or an assignment: every earlier argument would have
    /// to be protected across it and moved again, which costs more than
    /// pushing it and sliding.
    fn loops_in_place(&mut self, args: &[NodeId]) -> bool {
        args.len() == self.lambda.required.len()
            && !args.iter().skip(1).any(|&a| self.sibling_unsafe(a))
    }

    // -------------------------------------------------------- variables

    fn record_var_use(&mut self, v: VarId) {
        if matches!(self.var_loc.get(&v), Some(VLoc::Slot(_))) {
            if let Some(&tn) = self.var_tn.get(&v) {
                self.pool.record_use(tn, self.pos());
            }
        }
    }

    fn load_var(&mut self, v: VarId) -> R<Val> {
        self.record_var_use(v);
        if matches!(self.var_loc.get(&v), Some(VLoc::Slot(_))) {
            let at = self.pos();
            self.var_reads.entry(v).or_default().push(at);
        }
        self.locate_lazily(v);
        let Some(&loc) = self.var_loc.get(&v) else {
            return self.err(format!("unlocated variable {}", self.tree.var(v).name));
        };
        Ok(match loc {
            VLoc::Slot(i) => Val::borrowed(Operand::Ind(Reg::FP, i32::from(i))),
            VLoc::Reg(r) => Val::borrowed(Operand::Reg(r)),
            VLoc::Cell(slot) => {
                let dst = self.alloc_place();
                let cell = self.temp_op(slot);
                self.asm.push(Insn::LoadCell { dst: dst.op, cell });
                dst
            }
            VLoc::Env(i) => {
                let dst = self.alloc_place();
                self.asm.push(Insn::LoadEnv {
                    dst: dst.op,
                    index: i,
                });
                self.asm.push(Insn::LoadCell {
                    dst: dst.op,
                    cell: dst.op,
                });
                dst
            }
            VLoc::Special(sym) => {
                let dst = self.alloc_place();
                let name = self.tree.var(v).name.as_str().to_string();
                match self.spec_cache.get(&name) {
                    Some(&slot) => {
                        let cell = self.temp_op(slot);
                        self.asm.push(Insn::LoadCell { dst: dst.op, cell });
                    }
                    None => {
                        self.asm.push(Insn::SpecRead { dst: dst.op, sym });
                    }
                }
                dst
            }
        })
    }

    /// Stores `value` into variable `v`, returning the (still live) value
    /// for use as the `setq` result.
    fn store_var(&mut self, v: VarId, value: Val, value_node: NodeId) -> R<Val> {
        self.record_var_use(v);
        self.forget_unboxed(Some(v));
        self.locate_lazily(v);
        let Some(&loc) = self.var_loc.get(&v) else {
            return self.err(format!("unlocated variable {}", self.tree.var(v).name));
        };
        match loc {
            VLoc::Slot(i) => Ok(self.store_home(Operand::Ind(Reg::FP, i32::from(i)), value)),
            VLoc::Reg(r) => Ok(self.store_home(Operand::Reg(r), value)),
            VLoc::Cell(slot) => {
                // Publishing into a heap cell is an unsafe operation.
                let vv = self.certify(value_node, value)?;
                let cell = self.temp_op(slot);
                self.asm.push(Insn::StoreCell { cell, src: vv.op });
                Ok(vv)
            }
            VLoc::Env(i) => {
                let vv = self.certify(value_node, value)?;
                let cellp = self.alloc_place();
                self.asm.push(Insn::LoadEnv {
                    dst: cellp.op,
                    index: i,
                });
                self.asm.push(Insn::StoreCell {
                    cell: cellp.op,
                    src: vv.op,
                });
                self.release(cellp);
                Ok(vv)
            }
            VLoc::Special(sym) => {
                let vv = self.certify(value_node, value)?;
                let name = self.tree.var(v).name.as_str().to_string();
                match self.spec_cache.get(&name) {
                    Some(&slot) => {
                        let cell = self.temp_op(slot);
                        self.asm.push(Insn::StoreCell { cell, src: vv.op });
                    }
                    None => {
                        self.asm.push(Insn::SpecWrite { sym, src: vv.op });
                    }
                }
                Ok(vv)
            }
        }
    }

    /// Stores `value` into a variable's register or frame slot, by
    /// [`Gen::target`]ing it there when it can, else with a `MOV`.
    fn store_home(&mut self, home: Operand, value: Val) -> Val {
        let v = self.target(value, home);
        if v.op != home {
            self.asm.push(Insn::Mov {
                dst: home,
                src: v.op,
            });
        }
        v
    }

    /// Targeting: when the instruction just emitted computed `v` into a
    /// scratch place of its own, make it write `home` instead, so that
    /// the value of a `setq` (or a `let` binding) is computed where the
    /// variable lives and no `MOV` copies it there (§6.1: "no MOV
    /// instructions … required").  Returns `home` as the value's place,
    /// or `v` unchanged when the rewrite is not possible: the value is
    /// not in a scratch place, a label follows the instruction, or the
    /// 2½-address rule forbids the new destination even with the
    /// sources of a commutative operation swapped.
    fn target(&mut self, v: Val, home: Operand) -> Val {
        if v.reg.is_none() && v.temp.is_none() || v.op == home {
            return v;
        }
        let Some(last) = self.asm.last_unlabelled_mut() else {
            return v;
        };
        let mut insn = last.clone();
        match insn.result_mut() {
            Some(dst) if *dst == v.op => *dst = home,
            _ => return v,
        }
        if insn.check_two_and_a_half().is_some()
            && !(insn.commute() && insn.check_two_and_a_half().is_none())
        {
            return v;
        }
        *last = insn;
        self.release(v);
        Val::borrowed(home)
    }

    /// Global special variables have no binder: locate them on first
    /// reference.
    fn locate_lazily(&mut self, v: VarId) {
        if self.var_loc.contains_key(&v) {
            return;
        }
        let var = self.tree.var(v);
        if var.special {
            let sym = self.program.sym_id(var.name.as_str());
            self.var_loc.insert(v, VLoc::Special(sym));
        }
    }

    /// Inserts a run-time certification when the value might be an
    /// unsafe (pdl) pointer (§6.3).
    fn certify(&mut self, node: NodeId, v: Val) -> R<Val> {
        if !self.ann.pdl.unsafe_p(node) {
            return Ok(v);
        }
        Ok(self.certified(v))
    }

    /// Emits the certification of `v` (constants need none).
    fn certified(&mut self, v: Val) -> Val {
        if matches!(v.op, Operand::Const(_)) {
            return v;
        }
        if v.reg.is_some() {
            self.asm.push(Insn::Certify {
                dst: v.op,
                src: v.op,
            });
            return v;
        }
        let dst = self.alloc_place();
        self.asm.push(Insn::Certify {
            dst: dst.op,
            src: v.op,
        });
        self.release(v);
        dst
    }

    /// Remembers what a coercion did and to which form, for the
    /// "coercion" events of a dossier.  Coercions are rare (a handful
    /// per function), so recording unconditionally is cheaper than
    /// threading the sink down here.
    fn note_coercion(&mut self, how: &str, node: NodeId) {
        self.metrics
            .notes
            .push(format!("{how} at {}", clip_form(self.tree, node)));
    }

    // ------------------------------------------------------- expressions

    fn gen_into(&mut self, node: NodeId, want: Rep) -> R<Val> {
        if want == Rep::Swflo {
            if let Some(v) = self.shared_unbox(node)? {
                return Ok(v);
            }
        }
        let v = self.gen(node)?;
        self.coerce(node, v, self.rep_is(node), want)
    }

    /// A pointer variable read as a flonum by an enclosing `let`'s
    /// initializations more than once is unboxed once, on the first
    /// read, into a place (an RT register when one is free, where it can
    /// feed 2½-address arithmetic into any destination) that the scope
    /// holds until its initializations are done; later reads use the
    /// place.  `None` for any other node.
    fn shared_unbox(&mut self, node: NodeId) -> R<Option<Val>> {
        let NodeKind::VarRef(x) = *self.tree.kind(node) else {
            return Ok(None);
        };
        let Some(si) = self
            .unbox_scopes
            .iter()
            .rposition(|s| s.shared.contains(&x))
        else {
            return Ok(None);
        };
        if let Some(&(_, v, _)) = self.unbox_scopes[si].held.iter().find(|h| h.0 == x && h.2) {
            return Ok(Some(Val::borrowed(v.op)));
        }
        let home = self.load_var(x)?;
        self.metrics.coercions += 1;
        self.metrics.unboxes += 1;
        self.note_coercion("Pointer→Swflo (unbox, shared)", node);
        let dst = self.alloc_rt().map_or_else(|| self.alloc_place(), Val::reg);
        self.asm.push(Insn::UnboxFlo {
            dst: dst.op,
            src: home.op,
        });
        self.unbox_scopes[si].held.push((x, dst, true));
        Ok(Some(Val::borrowed(dst.op)))
    }

    /// The unbox scope of a `let` whose initializations are `args`: the
    /// pointer variables (in a frame slot or a register) that they read
    /// as a flonum more than once.  `None` when there is none.
    fn unbox_scope(&self, args: &[NodeId]) -> Option<UnboxScope> {
        let mut reads: HashMap<VarId, usize> = HashMap::new();
        for &a in args {
            for n in s1lisp_ast::subtree_nodes(self.tree, a) {
                if let NodeKind::VarRef(x) = *self.tree.kind(n) {
                    if self.ann.rep.want(n) == Rep::Swflo
                        && self.rep_is(n) == Rep::Pointer
                        && matches!(self.var_loc.get(&x), Some(VLoc::Slot(_) | VLoc::Reg(_)))
                    {
                        *reads.entry(x).or_default() += 1;
                    }
                }
            }
        }
        let shared: HashSet<VarId> = reads
            .into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(x, _)| x)
            .collect();
        (!shared.is_empty()).then(|| UnboxScope {
            shared,
            held: Vec::new(),
        })
    }

    /// Releases the places of the innermost unbox scope that no longer
    /// hold their value (`all`: every place), between two of its
    /// `let`'s initializations, where no value read from them waits.
    fn release_unboxed(&mut self, all: bool) {
        let Some(scope) = self.unbox_scopes.last_mut() else {
            return;
        };
        let (keep, drop): (Vec<_>, Vec<_>) = scope.held.drain(..).partition(|h| h.2 && !all);
        scope.held = keep;
        for (_, v, _) in drop {
            self.release(v);
        }
    }

    /// The frame slot a pdl number for `node` may point into without a
    /// copy: the home of a raw `let` variable that nothing assigns after
    /// its binding, boxed for a call that authorizes it (PDLOKP), so the
    /// pointer lives no longer than the call while the slot keeps its
    /// value.
    fn own_pdl_slot(&self, node: NodeId, v: Val) -> Option<Operand> {
        let NodeKind::VarRef(x) = *self.tree.kind(node) else {
            return None;
        };
        let auth = self.ann.pdl.pdlokp.get(&node).copied().flatten()?;
        let for_call = matches!(
            self.tree.kind(auth),
            NodeKind::Call {
                func: CallFunc::Global(_),
                ..
            }
        );
        let in_home = matches!(self.var_loc.get(&x),
            Some(&VLoc::Slot(i)) if v.op == Operand::Ind(Reg::FP, i32::from(i)));
        (for_call
            && in_home
            && self.tree.var(x).setqs.is_empty()
            && !self.lambda.all_params().contains(&x))
        .then_some(v.op)
    }

    fn coerce(&mut self, node: NodeId, v: Val, from: Rep, want: Rep) -> R<Val> {
        if from == want || want == Rep::None_ || want == Rep::Jump {
            return Ok(v);
        }
        if from == Rep::Jump {
            // The boolean was already materialized as a pointer.
            return Ok(v);
        }
        match (from, want) {
            // Fixnums are immediate: raw and pointer form coincide.
            (Rep::Swfix, Rep::Pointer) | (Rep::Pointer, Rep::Swfix) => Ok(v),
            (Rep::Swflo, Rep::Pointer) => {
                self.metrics.coercions += 1;
                if self.opts.pdl_numbers && self.ann.pdl.stack_box(node) {
                    self.metrics.pdl_promotions += 1;
                    self.note_coercion("Swflo→Pointer (pdl box)", node);
                    // "Install value for PDL-allocated number" +
                    // "Pointer to PDL slot" (Table 4).  A value just
                    // computed is computed into the slot; a variable's
                    // own slot serves when it holds the value as long as
                    // the pointer lives.
                    let slot_op = match self.own_pdl_slot(node, v) {
                        Some(home) => home,
                        None => {
                            let slot = self.alloc_temp_pinned();
                            let slot_op = self.temp_op(slot);
                            let v = self.store_home(slot_op, v);
                            self.release(v);
                            slot_op
                        }
                    };
                    let dst = self.alloc_place();
                    self.asm.push(Insn::Movp {
                        tag: Tag::SingleFlonum,
                        dst: dst.op,
                        src: slot_op,
                    });
                    Ok(dst)
                } else {
                    self.metrics.heap_boxes += 1;
                    self.note_coercion("Swflo→Pointer (heap box)", node);
                    let dst = self.alloc_place();
                    self.asm.push(Insn::BoxFlo {
                        dst: dst.op,
                        src: v.op,
                    });
                    self.release(v);
                    Ok(dst)
                }
            }
            (Rep::Pointer, Rep::Swflo) => {
                self.metrics.coercions += 1;
                self.metrics.unboxes += 1;
                self.note_coercion("Pointer→Swflo (unbox)", node);
                // An RT register lets the raw value feed 2½-address
                // arithmetic whose result goes straight to its home.
                let dst = self.alloc_rt().map_or_else(|| self.alloc_place(), Val::reg);
                self.asm.push(Insn::UnboxFlo {
                    dst: dst.op,
                    src: v.op,
                });
                self.release(v);
                Ok(dst)
            }
            _ => self.err(format!("unsupported coercion {from:?} → {want:?}")),
        }
    }

    fn gen(&mut self, node: NodeId) -> R<Val> {
        match self.tree.kind(node).clone() {
            NodeKind::Constant(d) => self.gen_constant(&d, self.rep_is(node)),
            NodeKind::VarRef(v) => self.load_var(v),
            NodeKind::Setq { var, value } => {
                let rep = self.var_rep(var);
                let v = self.gen_into(value, rep)?;
                self.store_var(var, v, value)
            }
            NodeKind::If { test, then, els } => {
                let rep = self.rep_is(node);
                let (tl, fl, join) = (self.asm.label(), self.asm.label(), self.asm.label());
                self.gen_test(test, tl, fl)?;
                let out = self.alloc_place();
                self.bind(tl);
                let v1 = self.gen_into(then, rep)?;
                self.asm.push(Insn::Mov {
                    dst: out.op,
                    src: v1.op,
                });
                self.release(v1);
                self.asm.push(Insn::Jmp { target: join });
                self.bind(fl);
                let v2 = self.gen_into(els, rep)?;
                self.asm.push(Insn::Mov {
                    dst: out.op,
                    src: v2.op,
                });
                self.release(v2);
                self.bind(join);
                Ok(out)
            }
            NodeKind::Progn(body) => {
                let (last, init) = body.split_last().expect("non-empty");
                for &b in init {
                    self.gen_effect(b)?;
                }
                self.gen(*last)
            }
            NodeKind::Call { func, args } => self.gen_call(node, &func, &args),
            NodeKind::Lambda(_) => self.gen_closure(node),
            NodeKind::Caseq {
                key,
                clauses,
                default,
            } => self.gen_caseq(node, key, &clauses, default),
            NodeKind::Catcher { tag, body } => self.gen_catch(tag, body),
            NodeKind::Progbody(items) => self.gen_progbody(&items, false),
            NodeKind::Go(tag) => {
                self.gen_go(&tag)?;
                Ok(Val::con(Word::NIL))
            }
            NodeKind::Return(v) => {
                self.gen_return(v)?;
                Ok(Val::con(Word::NIL))
            }
        }
    }

    fn gen_constant(&mut self, d: &Datum, rep: Rep) -> R<Val> {
        Ok(match (d, rep) {
            (Datum::Flonum(x), Rep::Swflo) => Val::con(Word::F(*x)),
            (Datum::Fixnum(n), _) => Val::con(Word::fixnum(*n)),
            (Datum::Nil, _) => Val::con(Word::NIL),
            (Datum::Sym(s), _) if s.as_str() == "t" => Val::con(Word::T),
            (Datum::Sym(s), _) => {
                let id = self.program.sym_id(s.as_str());
                Val::con(Word::Ptr(Tag::Symbol, u64::from(id)))
            }
            (Datum::Char(c), _) => Val::con(Word::Ptr(Tag::Char, u64::from(u32::from(*c)))),
            (Datum::Str(s), _) => {
                let id = self.program.str_id(s);
                Val::con(Word::Ptr(Tag::String, u64::from(id)))
            }
            (d, _) => {
                // Structured or boxed constants live in static space.
                let idx = self.program.const_id(Const::from_datum(d));
                let dst = self.alloc_place();
                self.asm.push(Insn::LoadConst { dst: dst.op, idx });
                dst
            }
        })
    }

    fn gen_effect(&mut self, node: NodeId) -> R<()> {
        match self.tree.kind(node) {
            NodeKind::Constant(_) | NodeKind::VarRef(_) | NodeKind::Lambda(_) => Ok(()),
            // Compiled for effect (§5): the arms run for effect too, and
            // no result place is allocated or stored into.
            &NodeKind::If { test, then, els } => {
                let (tl, fl, join) = (self.asm.label(), self.asm.label(), self.asm.label());
                self.gen_test(test, tl, fl)?;
                self.bind(tl);
                self.gen_effect(then)?;
                self.asm.push(Insn::Jmp { target: join });
                self.bind(fl);
                self.gen_effect(els)?;
                self.bind(join);
                Ok(())
            }
            _ => {
                let v = self.gen(node)?;
                self.release(v);
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------- calls

    fn gen_call(&mut self, node: NodeId, func: &CallFunc, args: &[NodeId]) -> R<Val> {
        match func {
            CallFunc::Global(g) => self.gen_global_call(node, g, args, false),
            CallFunc::Expr(f) => {
                if let NodeKind::Lambda(_) = self.tree.kind(*f) {
                    let out = self.gen_let(node, *f, args, false)?;
                    return Ok(out.expect("non-tail let yields a value"));
                }
                if let NodeKind::VarRef(v) = *self.tree.kind(*f) {
                    if self.local_fns.contains_key(&v) {
                        let out = self.gen_local_call(v, args, false)?;
                        return Ok(out.expect("non-tail local call yields a value"));
                    }
                }
                // Computed function call.
                let fv = self.gen(*f)?;
                let fv = self.protect(fv);
                for &a in args {
                    let v = self.gen_into(a, Rep::Pointer)?;
                    self.push_arg(v);
                }
                self.note_call();
                self.asm.push(Insn::Call {
                    f: CallTarget::Value(fv.op),
                    nargs: args.len() as u8,
                });
                self.release(fv);
                Ok(Val::in_a())
            }
        }
    }

    /// `tail` selects the tail-call protocol; returns `None` for an
    /// emitted tail transfer, `Some(val)` otherwise.
    fn gen_global_call(&mut self, node: NodeId, g: &Symbol, args: &[NodeId], tail: bool) -> R<Val> {
        debug_assert!(!tail);
        let name = g.as_str();
        if let Some(prim) = Prim::from_name(name) {
            // Inline selections, else the run-time system.
            if let Some(v) = self.try_inline(node, prim, args)? {
                return Ok(v);
            }
            return self.gen_rt_call(node, prim, args);
        }
        // A full call to a user (or not-yet-defined) function.
        for &a in args {
            let v = self.gen_into(a, Rep::Pointer)?;
            self.push_arg(v);
        }
        let id = self.program.fn_id(name);
        self.note_call();
        self.asm.push(Insn::Call {
            f: CallTarget::Func(id),
            nargs: args.len() as u8,
        });
        Ok(Val::in_a())
    }

    /// Primitives compiled via the run-time system.
    fn gen_rt_call(&mut self, node: NodeId, prim: Prim, args: &[NodeId]) -> R<Val> {
        let unsafe_op = !prim.info().pdl_safe;
        for &a in args {
            let v = self.gen_into(a, Rep::Pointer)?;
            let v = if unsafe_op { self.certify(a, v)? } else { v };
            self.push_arg(v);
        }
        let dst = self.alloc_place();
        self.asm.push(Insn::RtCall {
            prim,
            nargs: args.len() as u8,
            dst: dst.op,
        });
        // Runtime routines deliver pointers; when representation analysis
        // promised a raw value (e.g. `sin$f`, which has no inline form),
        // convert here so the gen() contract holds.
        if self.rep_is(node) == Rep::Swflo {
            self.asm.push(Insn::UnboxFlo {
                dst: dst.op,
                src: dst.op,
            });
        }
        Ok(dst)
    }

    /// Inline code for the primitives whose row's class has S-1 code.
    /// Returns `None` to fall back to the runtime.
    fn try_inline(&mut self, node: NodeId, prim: Prim, args: &[NodeId]) -> R<Option<Val>> {
        if args.len() == prim.operands() {
            match (prim.info().inline, args) {
                // Comparisons and type predicates: compile as a test and
                // materialize (in test position `gen_test` intercepts
                // them before this point).
                (Inline::Compare | Inline::Eq | Inline::Negate | Inline::Tag(_), _) => {
                    return self.materialize_test(node).map(Some);
                }
                (Inline::Car, [x]) => {
                    let insn = |dst, src| Insn::Car { dst, src };
                    return self.emit_unary(*x, Rep::Pointer, insn).map(Some);
                }
                (Inline::Cdr, [x]) => {
                    let insn = |dst, src| Insn::Cdr { dst, src };
                    return self.emit_unary(*x, Rep::Pointer, insn).map(Some);
                }
                (Inline::Cons, [a, d]) => {
                    let va = self.gen_into(*a, Rep::Pointer)?;
                    let va = self.certify(*a, va)?;
                    let va = self.protect_from(va, *d);
                    let vd = self.gen_into(*d, Rep::Pointer)?;
                    let vd = self.certify(*d, vd)?;
                    let dst = self.alloc_place();
                    self.asm.push(Insn::ConsRt {
                        dst: dst.op,
                        car: va.op,
                        cdr: vd.op,
                    });
                    self.release(va);
                    self.release(vd);
                    return Ok(Some(dst));
                }
                _ => {}
            }
        }
        match (prim, args) {
            (Prim::Throw, [tag, value]) => {
                let vt = self.gen_into(*tag, Rep::Pointer)?;
                let vt = self.protect_from(vt, *value);
                let vv = self.gen_into(*value, Rep::Pointer)?;
                let vv = self.certify(*value, vv)?;
                self.asm.push(Insn::Throw {
                    tag: vt.op,
                    value: vv.op,
                });
                self.release(vt);
                self.release(vv);
                Ok(Some(Val::con(Word::NIL)))
            }
            (Prim::Apply, [f, rest @ ..]) if !rest.is_empty() => {
                if rest.len() != 1 {
                    // General apply spreads only the last list; compile
                    // the multi-arg form via the runtime? Simpler: only
                    // the common (apply f list) shape is inline.
                    return self.err("apply with spread arguments is not supported");
                }
                let fv = self.gen_into(*f, Rep::Pointer)?;
                let fv = self.protect_from(fv, rest[0]);
                let lv = self.gen_into(rest[0], Rep::Pointer)?;
                self.note_call();
                self.asm.push(Insn::Apply {
                    f: fv.op,
                    list: lv.op,
                });
                self.release(fv);
                self.release(lv);
                Ok(Some(Val::in_a()))
            }
            (Prim::Function, [x]) => {
                if let NodeKind::Constant(Datum::Sym(s)) = self.tree.kind(*x) {
                    let id = self.program.fn_id(s.as_str());
                    let dst = self.alloc_place();
                    self.asm.push(Insn::LoadFunction {
                        dst: dst.op,
                        fnid: id,
                    });
                    return Ok(Some(dst));
                }
                Ok(None)
            }
            _ if self.opts.representation_analysis => self.inline_arith(node, prim, args),
            _ => Ok(None),
        }
    }

    /// Arithmetic in line, the payoff of representation analysis: a
    /// typed row, or a generic one that type deduction lowered, on raw
    /// operands; else a generic row as one `GENERIC` instruction in
    /// place of `PUSH`es and a `%CALLRT`.
    fn inline_arith(&mut self, node: NodeId, prim: Prim, args: &[NodeId]) -> R<Option<Val>> {
        let raw = match (self.ann.rep.lowered.get(&node), prim.info().inline) {
            (Some(&rep), _) => rep,
            (None, Inline::Flonum) => Rep::Swflo,
            (None, Inline::Fixnum) => Rep::Swfix,
            (None, Inline::Generic)
                if args.len() == prim.operands() && self.rep_is(node) == Rep::Pointer =>
            {
                return self.emit_generic(prim, args).map(Some);
            }
            _ => return Ok(None),
        };
        let Some(op) = prim.info().op.filter(|_| prim.accepts(args.len())) else {
            return Ok(None);
        };
        match raw {
            Rep::Swflo => self.inline_flonum(prim, op, args),
            _ => self.inline_fixnum(prim, op, args),
        }
    }

    /// One `GENERIC`: its fixnum case runs in line; every other case
    /// runs the routine the runtime call would, on the same arguments.
    fn emit_generic(&mut self, prim: Prim, args: &[NodeId]) -> R<Val> {
        if let [x] = args {
            let insn = |dst, a| Insn::Generic {
                prim,
                dst,
                a,
                b: None,
            };
            return self.emit_unary(*x, Rep::Pointer, insn);
        }
        let insn = |dst, a, b| Insn::Generic {
            prim,
            dst,
            a,
            b: Some(b),
        };
        self.emit_chain(args, Rep::Pointer, insn)
    }

    /// The operation `op` of row `prim` on raw flonums, with the float
    /// instructions.
    fn inline_flonum(&mut self, prim: Prim, op: NumOp, args: &[NodeId]) -> R<Option<Val>> {
        let Some(binary) = float_op(op) else {
            return match (float_un_op(op), args) {
                (Some(op), [x]) => {
                    let insn = |dst, src| Insn::FloatUn { op, dst, src };
                    self.emit_unary(*x, Rep::Swflo, insn).map(Some)
                }
                _ => Ok(None),
            };
        };
        let insn = |dst, a, b| Insn::Float {
            op: binary,
            dst,
            a,
            b,
        };
        let one = Val::con(Word::F(1.0));
        match (op, args) {
            // `1+` and `1-`.
            (_, [x]) if prim.operands() == 1 => {
                let v = self.gen_into(*x, Rep::Swflo)?;
                Ok(Some(self.emit_binary(insn, v, one)))
            }
            (NumOp::Sub, [x]) => {
                let insn = |dst, src| Insn::FloatUn {
                    op: FloatUnOp::Neg,
                    dst,
                    src,
                };
                self.emit_unary(*x, Rep::Swflo, insn).map(Some)
            }
            (NumOp::Div, [x]) => {
                let v = self.gen_into(*x, Rep::Swflo)?;
                Ok(Some(self.emit_binary(insn, one, v)))
            }
            (NumOp::Add | NumOp::Mul | NumOp::Max | NumOp::Min, [x]) => {
                Ok(Some(self.gen_into(*x, Rep::Swflo)?))
            }
            (_, [_, _, ..]) => self.emit_chain(args, Rep::Swflo, insn).map(Some),
            _ => Ok(None),
        }
    }

    /// The operation `op` of row `prim` on fixnums, with the integer
    /// instructions (fixnums are immediate words, so no conversions are
    /// involved).
    fn inline_fixnum(&mut self, prim: Prim, op: NumOp, args: &[NodeId]) -> R<Option<Val>> {
        let Some(int) = int_op(op) else {
            return Ok(None);
        };
        match (op, args) {
            // `1+` and `1-`: `GENERIC`, whose fixnum case is one
            // instruction like `ADD`'s, so that an overflow traps as the
            // row's does.
            (_, [_]) if prim.operands() == 1 => self.emit_generic(prim, args).map(Some),
            (NumOp::Sub, [x]) => {
                let insn = |dst, src| Insn::Neg { dst, src };
                self.emit_unary(*x, Rep::Pointer, insn).map(Some)
            }
            (NumOp::Add | NumOp::Mul, [x]) => Ok(Some(self.gen_into(*x, Rep::Pointer)?)),
            (_, [_, _, ..]) => {
                let insn = |dst, a, b| Insn::Int { op: int, dst, a, b };
                self.emit_chain(args, Rep::Pointer, insn).map(Some)
            }
            // `(/ n)` is a float reciprocal: the runtime's.
            _ => Ok(None),
        }
    }

    /// The 2½-address arithmetic discipline (§6.1): the destination is an
    /// RT register when one is free, else the first operand (in a place
    /// we own), else any fresh register when a source is an RT register,
    /// else a fresh place primed with a MOV.
    fn arith_dst(&mut self, a: Val, b: Operand) -> (Operand, Val) {
        if let Some(rt) = self.alloc_rt() {
            return (Operand::Reg(rt), a);
        }
        if a.reg.is_some() || a.temp.is_some() {
            return (a.op, a);
        }
        let rt = |o: Operand| matches!(o, Operand::Reg(r) if r.is_rt());
        if rt(a.op) || rt(b) {
            if let Some(r) = self.alloc_reg() {
                return (Operand::Reg(r), a);
            }
        }
        let dst = self.alloc_place();
        self.asm.push(Insn::Mov {
            dst: dst.op,
            src: a.op,
        });
        (dst.op, dst)
    }

    /// One-operand arithmetic: `x` computed in `rep`, then `insn(dst,
    /// src)` into a fresh place.
    fn emit_unary(
        &mut self,
        x: NodeId,
        rep: Rep,
        insn: impl FnOnce(Operand, Operand) -> Insn,
    ) -> R<Val> {
        let v = self.gen_into(x, rep)?;
        let dst = self.alloc_place();
        self.asm.push(insn(dst.op, v.op));
        self.release(v);
        Ok(dst)
    }

    /// An n-ary chain folded from the left, `(op a b c)` as
    /// `(op (op a b) c)`: each argument computed in `rep`, the running
    /// value protected from a sibling that may clobber it.
    fn emit_chain(
        &mut self,
        args: &[NodeId],
        rep: Rep,
        insn: impl Fn(Operand, Operand, Operand) -> Insn,
    ) -> R<Val> {
        let (first, rest) = args.split_first().expect("a chain has operands");
        let mut acc = self.gen_into(*first, rep)?;
        for &b in rest {
            acc = self.protect_from(acc, b);
            let vb = self.gen_into(b, rep)?;
            acc = self.emit_binary(&insn, acc, vb);
        }
        Ok(acc)
    }

    /// One 2½-address instruction `insn(dst, a, b)`, its destination
    /// chosen by [`Gen::arith_dst`].
    fn emit_binary(
        &mut self,
        insn: impl FnOnce(Operand, Operand, Operand) -> Insn,
        a: Val,
        b: Val,
    ) -> Val {
        let (dst, a) = self.arith_dst(a, b.op);
        self.asm.push(insn(dst, a.op, b.op));
        self.release(b);
        if dst == a.op {
            return a;
        }
        self.release(a);
        match dst {
            Operand::Reg(r) => Val::reg(r),
            _ => Val::borrowed(dst),
        }
    }

    // ----------------------------------------------------------- tests

    fn gen_test(&mut self, node: NodeId, tl: Label, fl: Label) -> R<()> {
        match self.tree.kind(node).clone() {
            NodeKind::Constant(d) => {
                self.asm.push(Insn::Jmp {
                    target: if d.is_true() { tl } else { fl },
                });
                Ok(())
            }
            NodeKind::If { test, then, els } => {
                let (itl, ifl) = (self.asm.label(), self.asm.label());
                self.gen_test(test, itl, ifl)?;
                self.bind(itl);
                self.gen_test(then, tl, fl)?;
                self.bind(ifl);
                self.gen_test(els, tl, fl)
            }
            NodeKind::Progn(body) => {
                let (last, init) = body.split_last().expect("non-empty");
                for &b in init {
                    self.gen_effect(b)?;
                }
                self.gen_test(*last, tl, fl)
            }
            NodeKind::Call {
                func: CallFunc::Global(g),
                args,
            } => self.gen_test_call(node, &g, &args, tl, fl),
            _ => {
                let v = self.gen_into(node, Rep::Pointer)?;
                self.asm.push(Insn::JmpNotNil {
                    src: v.op,
                    target: tl,
                });
                self.release(v);
                self.asm.push(Insn::Jmp { target: fl });
                Ok(())
            }
        }
    }

    fn gen_test_call(
        &mut self,
        node: NodeId,
        g: &Symbol,
        args: &[NodeId],
        tl: Label,
        fl: Label,
    ) -> R<()> {
        let prim = Prim::from_name(g.as_str()).filter(|p| args.len() == p.operands());
        match (prim, prim.map(|p| p.info().inline), args) {
            (Some(p), Some(Inline::Compare), [a, rest @ ..]) => {
                let va = self.gen(*a)?;
                let (va, vb) = match rest {
                    [b] => {
                        let va = self.protect_from(va, *b);
                        (va, self.gen(*b)?)
                    }
                    // A sign test compares its operand with 0.
                    _ => (va, Val::con(Word::fixnum(0))),
                };
                self.asm.push(Insn::JmpIf {
                    cond: Cond::testing(p),
                    prim: p,
                    a: va.op,
                    b: vb.op,
                    target: tl,
                });
                self.release(va);
                self.release(vb);
                self.asm.push(Insn::Jmp { target: fl });
                Ok(())
            }
            (_, Some(Inline::Negate), [x]) => self.gen_test(*x, fl, tl),
            (_, Some(Inline::Eq), [a, b]) => {
                let va = self.gen_into(*a, Rep::Pointer)?;
                let va = self.protect_from(va, *b);
                let vb = self.gen_into(*b, Rep::Pointer)?;
                self.asm.push(Insn::JmpEq {
                    a: va.op,
                    b: vb.op,
                    target: tl,
                });
                self.release(va);
                self.release(vb);
                self.asm.push(Insn::Jmp { target: fl });
                Ok(())
            }
            (_, Some(Inline::Tag(true)), [x]) => self.tag_test(*x, Tag::Cons, tl, fl),
            (_, Some(Inline::Tag(false)), [x]) => self.tag_test(*x, Tag::Cons, fl, tl),
            _ => {
                let v = self.gen_into(node, Rep::Pointer)?;
                self.asm.push(Insn::JmpNotNil {
                    src: v.op,
                    target: tl,
                });
                self.release(v);
                self.asm.push(Insn::Jmp { target: fl });
                Ok(())
            }
        }
    }

    fn tag_test(&mut self, x: NodeId, tag: Tag, tl: Label, fl: Label) -> R<()> {
        let v = self.gen_into(x, Rep::Pointer)?;
        self.asm.push(Insn::JmpTag {
            tag,
            src: v.op,
            target: tl,
        });
        self.release(v);
        self.asm.push(Insn::Jmp { target: fl });
        Ok(())
    }

    /// Compiles a boolean-producing call in value position: branch, then
    /// materialize t/nil.
    fn materialize_test(&mut self, node: NodeId) -> R<Val> {
        let (tl, fl, join) = (self.asm.label(), self.asm.label(), self.asm.label());
        let NodeKind::Call { func, args } = self.tree.kind(node).clone() else {
            unreachable!()
        };
        let CallFunc::Global(g) = func else {
            unreachable!()
        };
        self.gen_test_call(node, &g, &args, tl, fl)?;
        let out = self.alloc_place();
        self.bind(tl);
        self.asm.push(Insn::Mov {
            dst: out.op,
            src: Operand::Const(Word::T),
        });
        self.asm.push(Insn::Jmp { target: join });
        self.bind(fl);
        self.asm.push(Insn::Mov {
            dst: out.op,
            src: Operand::nil(),
        });
        self.bind(join);
        Ok(out)
    }

    // -------------------------------------------------- let / local fns

    fn gen_let(&mut self, node: NodeId, f: NodeId, args: &[NodeId], tail: bool) -> R<Option<Val>> {
        let _ = node;
        let NodeKind::Lambda(l) = self.tree.kind(f).clone() else {
            unreachable!()
        };
        if !l.is_simple() || args.len() != l.required.len() {
            return self.err("lambda-call with &optional/&rest parameters");
        }
        let scoped = match self.unbox_scope(args) {
            Some(scope) => {
                self.unbox_scopes.push(scope);
                true
            }
            None => false,
        };
        let mut bound_specials = 0u16;
        // A `let` binds in parallel: its specials are bound only once
        // every argument has been evaluated, so that a later argument
        // still sees the outer bindings.
        let mut specials = Vec::new();
        for (j, &param) in l.required.iter().enumerate() {
            let arg = args[j];
            // Local function? register, defer.
            if matches!(self.tree.kind(arg), NodeKind::Lambda(_))
                && self.ann.binding.strategy.get(&arg) == Some(&LambdaStrategy::LocalFunction)
            {
                let label = self.asm.label();
                let NodeKind::Lambda(al) = self.tree.kind(arg).clone() else {
                    unreachable!()
                };
                let tail_mode = self
                    .tree
                    .var(param)
                    .refs
                    .iter()
                    .all(|&r| self.call_site_tail(r));
                let mut params = Vec::new();
                for &p in &al.required {
                    let slot = self.alloc_temp_pinned();
                    params.push(self.nslots + slot);
                    self.var_loc.insert(p, VLoc::Slot(self.nslots + slot));
                }
                self.local_fns.insert(
                    param,
                    LocalFn {
                        label,
                        tail_mode,
                        params,
                    },
                );
                self.blocks.push((param, arg));
                continue;
            }
            let rep = self.var_rep(param);
            let v = self.gen_into(arg, rep)?;
            match self.ann.binding.var_alloc.get(&param) {
                Some(VarAlloc::Special) => {
                    let vv = self.certify(arg, v)?;
                    specials.push((param, self.protect(vv)));
                }
                Some(VarAlloc::Heap) => {
                    let vv = self.certify(arg, v)?;
                    let slot = self.alloc_temp_pinned();
                    let dst = self.temp_op(slot);
                    self.asm.push(Insn::MakeCell { dst, src: vv.op });
                    self.release(vv);
                    self.var_loc.insert(param, VLoc::Cell(slot));
                }
                _ => {
                    if let Some(&r) = self.promote.get(&param) {
                        let v = self.store_home(Operand::Reg(r), v);
                        self.release(v);
                        self.var_loc.insert(param, VLoc::Reg(r));
                    } else {
                        let slot = self.alloc_temp_pinned();
                        if v.op != Operand::nil() || !self.straight_from_alloc() {
                            let v = self.store_home(self.temp_op(slot), v);
                            self.release(v);
                        }
                        let tn = *self.var_tn.entry(param).or_insert_with(|| {
                            self.pool.new_tn(self.tree.var(param).name.as_str())
                        });
                        self.pool.record_use(tn, self.pos());
                        self.var_loc.insert(param, VLoc::Slot(self.nslots + slot));
                    }
                }
            }
            if scoped {
                self.release_unboxed(false);
            }
        }
        if scoped {
            self.release_unboxed(true);
            self.unbox_scopes.pop();
        }
        for (param, vv) in specials {
            let sym = self.program.sym_id(self.tree.var(param).name.as_str());
            self.asm.push(Insn::SpecBind { sym, src: vv.op });
            self.release(vv);
            self.specials_bound += 1;
            bound_specials += 1;
            self.var_loc.insert(param, VLoc::Special(sym));
        }
        if tail {
            self.gen_tail(l.body)?;
            return Ok(None);
        }
        let out = self.gen(l.body)?;
        if bound_specials > 0 {
            self.asm.push(Insn::SpecUnbind { n: bound_specials });
            self.specials_bound -= bound_specials;
        }
        Ok(Some(out))
    }

    /// Is the call node owning reference `r` in (function-level) tail
    /// position?
    fn call_site_tail(&self, r: NodeId) -> bool {
        self.tree
            .node(r)
            .parent
            .map(|p| self.tails.contains(&p))
            .unwrap_or(false)
    }

    /// A call to a local function.  Tail transfers return `None`.
    fn gen_local_call(&mut self, v: VarId, args: &[NodeId], tail: bool) -> R<Option<Val>> {
        let lf = self.local_fns[&v].clone();
        // Evaluate arguments into the block's parameter slots.
        for (j, &a) in args.iter().enumerate() {
            let Some(&slot) = lf.params.get(j) else {
                return self.err("local function called with wrong argument count");
            };
            let val = self.gen_into(a, Rep::Pointer)?;
            self.asm.push(Insn::Mov {
                dst: Operand::Ind(Reg::FP, i32::from(slot)),
                src: val.op,
            });
            self.release(val);
        }
        if lf.tail_mode {
            // The block ends in the function's own return; just go there.
            self.asm.push(Insn::Jmp { target: lf.label });
            if tail {
                return Ok(None);
            }
            // A non-tail site of a tail-mode block cannot happen
            // (tail_mode requires all sites tail), but keep the value
            // protocol total.
            return Ok(Some(Val::con(Word::NIL)));
        }
        self.note_call();
        self.asm.push(Insn::LocalCall { target: lf.label });
        if tail {
            self.emit_return_from_a()?;
            return Ok(None);
        }
        Ok(Some(Val::in_a()))
    }

    fn emit_block(&mut self, var: VarId, lambda_node: NodeId) -> R<()> {
        let lf = self.local_fns[&var].clone();
        let NodeKind::Lambda(l) = self.tree.kind(lambda_node).clone() else {
            unreachable!()
        };
        self.bind(lf.label);
        if lf.tail_mode {
            self.gen_tail(l.body)?;
        } else {
            let v = self.gen_into(l.body, Rep::Pointer)?;
            let v = self.certify(l.body, v)?;
            let v = self.store_home(Operand::Reg(Reg::A), v);
            self.release(v);
            self.asm.push(Insn::LocalRet);
        }
        Ok(())
    }

    // --------------------------------------------------------- closures

    fn gen_closure(&mut self, node: NodeId) -> R<Val> {
        let captures = self
            .ann
            .binding
            .captures
            .get(&node)
            .cloned()
            .unwrap_or_default();
        for &c in &captures {
            match self.var_loc.get(&c) {
                Some(&VLoc::Cell(slot)) => {
                    let op = self.temp_op(slot);
                    self.asm.push(Insn::Push { src: op });
                }
                Some(&VLoc::Env(i)) => {
                    let p = self.alloc_place();
                    self.asm.push(Insn::LoadEnv {
                        dst: p.op,
                        index: i,
                    });
                    self.asm.push(Insn::Push { src: p.op });
                    self.release(p);
                }
                other => {
                    return self.err(format!(
                        "captured variable {} is not cell-allocated ({other:?})",
                        self.tree.var(c).name
                    ))
                }
            }
        }
        *self.counter += 1;
        let child = format!("{}%closure{}", self.fname, self.counter);
        let fnid = self.program.fn_id(&child);
        self.work.push((child, node, captures.clone()));
        let dst = self.alloc_place();
        self.asm.push(Insn::MakeClosure {
            dst: dst.op,
            fnid,
            ncells: captures.len() as u8,
        });
        Ok(dst)
    }

    // ------------------------------------------------- caseq/catch/prog

    fn gen_caseq(
        &mut self,
        node: NodeId,
        key: NodeId,
        clauses: &[s1lisp_ast::CaseqClause],
        default: NodeId,
    ) -> R<Val> {
        let rep = self.rep_is(node);
        let keyv = self.gen_into(key, Rep::Pointer)?;
        let keyv = self.protect(keyv);
        let join = self.asm.label();
        let out = self.alloc_place();
        // Dense fixnum keys compile to the S-1's computed dispatch
        // (Table 4's jump-table idiom) instead of a compare chain.
        if let Some(plan) = dense_fixnum_plan(clauses) {
            let default_l = self.asm.label();
            let clause_ls: Vec<Label> = clauses.iter().map(|_| self.asm.label()).collect();
            // Non-fixnums and out-of-range keys take the default.
            let is_fix = self.asm.label();
            self.asm.push(Insn::JmpTag {
                tag: Tag::Fixnum,
                src: keyv.op,
                target: is_fix,
            });
            self.asm.push(Insn::Jmp { target: default_l });
            self.bind(is_fix);
            // The index: `key - min`, 2½-address, into an RT register
            // when one is free, else into a place the key is copied to.
            let idx = match self.alloc_rt() {
                Some(rt) => Val::reg(rt),
                None => {
                    let idx = self.alloc_place();
                    self.asm.push(Insn::Mov {
                        dst: idx.op,
                        src: keyv.op,
                    });
                    idx
                }
            };
            let a = if idx.reg.is_some_and(Reg::is_rt) {
                keyv.op
            } else {
                idx.op
            };
            self.asm.push(Insn::Int {
                op: IntOp::Sub,
                dst: idx.op,
                a,
                b: Operand::fixnum(plan.min),
            });
            self.asm.push(Insn::JmpIf {
                cond: Cond::Lt,
                prim: Cond::Lt.prim(),
                a: idx.op,
                b: Operand::fixnum(0),
                target: default_l,
            });
            self.asm.push(Insn::JmpIf {
                cond: Cond::Ge,
                prim: Cond::Ge.prim(),
                a: idx.op,
                b: Operand::fixnum(plan.span),
                target: default_l,
            });
            let targets: Vec<Label> = plan
                .slots
                .iter()
                .map(|slot| slot.map_or(default_l, |c| clause_ls[c]))
                .collect();
            self.asm.push(Insn::Dispatch {
                src: idx.op,
                targets,
            });
            self.release(idx);
            self.bind(default_l);
            let dv = self.gen_into(default, rep)?;
            self.asm.push(Insn::Mov {
                dst: out.op,
                src: dv.op,
            });
            self.release(dv);
            self.asm.push(Insn::Jmp { target: join });
            for (clause, l) in clauses.iter().zip(clause_ls) {
                self.bind(l);
                let cv = self.gen_into(clause.body, rep)?;
                self.asm.push(Insn::Mov {
                    dst: out.op,
                    src: cv.op,
                });
                self.release(cv);
                self.asm.push(Insn::Jmp { target: join });
            }
            self.bind(join);
            self.release(keyv);
            return Ok(out);
        }
        let mut labels = Vec::new();
        for clause in clauses {
            let hit = self.asm.label();
            for k in &clause.keys {
                match k {
                    Datum::Fixnum(_) | Datum::Sym(_) | Datum::Nil | Datum::Char(_) => {
                        let kv = self.gen_constant(k, Rep::Pointer)?;
                        self.asm.push(Insn::JmpEq {
                            a: keyv.op,
                            b: kv.op,
                            target: hit,
                        });
                        self.release(kv);
                    }
                    _ => {
                        // Non-immediate key: eql via the runtime.
                        self.asm.push(Insn::Push { src: keyv.op });
                        let kv = self.gen_constant(k, Rep::Pointer)?;
                        self.push_arg(kv);
                        let t = self.alloc_place();
                        self.asm.push(Insn::RtCall {
                            prim: Prim::Eql,
                            nargs: 2,
                            dst: t.op,
                        });
                        self.asm.push(Insn::JmpNotNil {
                            src: t.op,
                            target: hit,
                        });
                        self.release(t);
                    }
                }
            }
            labels.push(hit);
        }
        // Default.
        let dv = self.gen_into(default, rep)?;
        self.asm.push(Insn::Mov {
            dst: out.op,
            src: dv.op,
        });
        self.release(dv);
        self.asm.push(Insn::Jmp { target: join });
        for (clause, hit) in clauses.iter().zip(labels) {
            self.bind(hit);
            let cv = self.gen_into(clause.body, rep)?;
            self.asm.push(Insn::Mov {
                dst: out.op,
                src: cv.op,
            });
            self.release(cv);
            self.asm.push(Insn::Jmp { target: join });
        }
        self.bind(join);
        self.release(keyv);
        Ok(out)
    }

    fn gen_catch(&mut self, tag: NodeId, body: NodeId) -> R<Val> {
        let tv = self.gen_into(tag, Rep::Pointer)?;
        let landing = self.asm.label();
        let join = self.asm.label();
        self.asm.push(Insn::PushCatch {
            tag: tv.op,
            target: landing,
        });
        self.release(tv);
        self.note_call();
        let out = self.alloc_place();
        let bv = self.gen_into(body, Rep::Pointer)?;
        self.asm.push(Insn::Mov {
            dst: out.op,
            src: bv.op,
        });
        self.release(bv);
        self.asm.push(Insn::PopCatch);
        self.asm.push(Insn::Jmp { target: join });
        self.bind(landing);
        self.asm.push(Insn::Mov {
            dst: out.op,
            src: Operand::Reg(Reg::A),
        });
        self.bind(join);
        Ok(out)
    }

    fn gen_progbody(&mut self, items: &[ProgItem], tail: bool) -> R<Val> {
        let loop_start = self.pos();
        let exit = self.asm.label();
        let result = if tail {
            None
        } else {
            Some(self.alloc_temp_pinned())
        };
        let tags: Vec<(Symbol, Label)> = items
            .iter()
            .filter_map(|i| match i {
                ProgItem::Tag(t) => Some((t.clone(), self.asm.label())),
                ProgItem::Stmt(_) => None,
            })
            .collect();
        self.pb_stack.push(PbCtx {
            tags,
            exit,
            result,
            tail,
        });
        for item in items {
            match item {
                ProgItem::Tag(t) => {
                    let label = self
                        .pb_stack
                        .last()
                        .and_then(|pb| pb.tags.iter().find(|(name, _)| name == t).map(|&(_, l)| l))
                        .expect("tag registered");
                    self.bind(label);
                }
                ProgItem::Stmt(s) => self.gen_effect(*s)?,
            }
        }
        let pb = self.pb_stack.pop().expect("pushed above");
        // Any go can re-enter this whole region: tell TNBIND.
        self.pool.record_loop(loop_start, self.pos());
        // Fell off the end: the progbody's value is nil.
        if tail {
            self.asm.push(Insn::Mov {
                dst: Operand::Reg(Reg::A),
                src: Operand::nil(),
            });
            self.emit_ret();
            self.bind(exit);
            // In tail mode, `return` sites emitted function returns
            // directly and jump here never happens, but the label must
            // bind.
            Ok(Val::con(Word::NIL))
        } else {
            let slot = pb.result.expect("non-tail progbody has a result slot");
            let op = self.temp_op(slot);
            self.asm.push(Insn::Mov {
                dst: op,
                src: Operand::nil(),
            });
            self.bind(exit);
            Ok(Val::borrowed(op))
        }
    }

    fn gen_go(&mut self, tag: &Symbol) -> R<()> {
        for pb in self.pb_stack.iter().rev() {
            if let Some(&(_, label)) = pb.tags.iter().find(|(name, _)| name == tag) {
                self.asm.push(Insn::Jmp { target: label });
                return Ok(());
            }
        }
        self.err(format!("go to unknown tag {tag}"))
    }

    fn gen_return(&mut self, value: NodeId) -> R<()> {
        let Some(top) = self.pb_stack.last() else {
            return self.err("return outside progbody");
        };
        let (tail, result, exit) = (top.tail, top.result, top.exit);
        if tail {
            self.gen_tail(value)?;
            return Ok(());
        }
        let v = self.gen_into(value, Rep::Pointer)?;
        let slot = result.expect("non-tail progbody has a result slot");
        let op = self.temp_op(slot);
        self.asm.push(Insn::Mov { dst: op, src: v.op });
        self.release(v);
        self.asm.push(Insn::Jmp { target: exit });
        Ok(())
    }

    // ------------------------------------------------------------- tail

    fn emit_ret(&mut self) {
        if self.specials_bound > 0 {
            self.asm.push(Insn::SpecUnbind {
                n: self.specials_bound,
            });
        }
        self.asm.push(Insn::Ret);
    }

    fn emit_return_from_a(&mut self) -> R<()> {
        self.emit_ret();
        Ok(())
    }

    fn gen_tail(&mut self, node: NodeId) -> R<()> {
        // Tail paths never rejoin: the compile-time special-binding
        // count must be restored for sibling emission paths.
        let save = self.specials_bound;
        let r = self.gen_tail_inner(node);
        self.specials_bound = save;
        r
    }

    fn gen_tail_inner(&mut self, node: NodeId) -> R<()> {
        match self.tree.kind(node).clone() {
            NodeKind::If { test, then, els } => {
                let (tl, fl) = (self.asm.label(), self.asm.label());
                self.gen_test(test, tl, fl)?;
                self.bind(tl);
                self.gen_tail(then)?;
                self.bind(fl);
                self.gen_tail(els)
            }
            NodeKind::Progn(body) => {
                let (last, init) = body.split_last().expect("non-empty");
                for &b in init {
                    self.gen_effect(b)?;
                }
                self.gen_tail(*last)
            }
            NodeKind::Progbody(items) => {
                self.gen_progbody(&items, true)?;
                Ok(())
            }
            NodeKind::Call {
                func: CallFunc::Global(g),
                args,
            } if primop(g.as_str()).is_none() => {
                // A tail call to a user function: "more akin to a
                // parameter-passing goto than to a recursive call" (§2).
                // A call inside a special binding's extent is not a
                // tail call, whoever the callee is: unbinding first would
                // change what the callee (or the next iteration of a self
                // call) sees.  Fall back to a full call.
                if !self.opts.tail_calls || self.specials_bound > 0 {
                    let v = self.gen_global_call(node, &g, &args, false)?;
                    return self.finish_tail_value(node, v);
                }
                let self_call = g.as_str() == self.fname
                    && self.simple
                    && args.len() == self.lambda.required.len();
                if let (true, Some(top)) = (self_call, self.loop_label) {
                    if self.loops_in_place(&args) {
                        return self.gen_self_loop(&args, top);
                    }
                }
                self.push_tail_args(&args)?;
                if self_call {
                    // The whole function body is a loop for TNBIND.
                    self.pool.record_loop(0, self.pos());
                    self.asm.push(Insn::TailJmp {
                        nargs: args.len() as u8,
                        target: self.body_label,
                    });
                } else {
                    let id = self.program.fn_id(g.as_str());
                    self.asm.push(Insn::TailCall {
                        f: CallTarget::Func(id),
                        nargs: args.len() as u8,
                    });
                }
                Ok(())
            }
            NodeKind::Call {
                func: CallFunc::Expr(f),
                args,
            } => {
                if matches!(self.tree.kind(f), NodeKind::Lambda(_)) {
                    self.gen_let(node, f, &args, true)?;
                    return Ok(());
                }
                if let NodeKind::VarRef(v) = *self.tree.kind(f) {
                    if self.local_fns.contains_key(&v) {
                        self.gen_local_call(v, &args, true)?;
                        return Ok(());
                    }
                }
                if !self.opts.tail_calls || self.specials_bound > 0 {
                    let v = self.gen(node)?;
                    return self.finish_tail_value(node, v);
                }
                let fv = self.gen(f)?;
                let fv = self.protect(fv);
                self.push_tail_args(&args)?;
                self.asm.push(Insn::TailCall {
                    f: CallTarget::Value(fv.op),
                    nargs: args.len() as u8,
                });
                self.release(fv);
                Ok(())
            }
            NodeKind::Return(v) => {
                // Return in tail position of an enclosing tail progbody.
                self.gen_return(v)
            }
            NodeKind::Go(tag) => self.gen_go(&tag),
            _ => {
                let v = self.gen_into(node, Rep::Pointer)?;
                self.finish_tail_value(node, v)
            }
        }
    }

    /// Pushes a tail call's arguments for `TailJmp` or `TailCall` to
    /// slide down over the current frame.
    fn push_tail_args(&mut self, args: &[NodeId]) -> R<()> {
        for &a in args {
            let v = self.gen_into(a, Rep::Pointer)?;
            let v = self.certify_tail_arg(a, v);
            self.push_arg(v);
        }
        Ok(())
    }

    /// A self tail call as a parameter-passing goto (§2): each argument
    /// is computed in its parameter's representation and assigned to
    /// the parameter's home (promoted register or frame slot), and a
    /// counted `TailJmp` of no arguments lands on `top`, past the
    /// prologue's `ALLOC`, unboxes and promotion loads.
    ///
    /// The arguments are computed in dependency order: next comes the
    /// first (in source order) whose parameter no argument still to be
    /// computed reads, so that it is [`Gen::target`]ed straight into its
    /// home — `(f (- n 1) (cons n acc))` computes the `cons` first.  An
    /// argument that can trap waits for every earlier one that can, so
    /// the first argument that traps still traps first, and arguments
    /// with side effects keep their source order.  When every remaining
    /// parameter is read (a cycle, as in `(f y x)`), the first argument
    /// waits in a scratch place and the waiting values are assigned
    /// together, as a parallel move.  The caller has checked that the
    /// call [`Gen::loops_in_place`], so a waiting value survives the
    /// later arguments' code.
    fn gen_self_loop(&mut self, args: &[NodeId], top: Label) -> R<()> {
        let params = self.lambda.required.clone();
        let mut homes = Vec::with_capacity(params.len());
        for p in &params {
            homes.push(match self.var_loc[p] {
                VLoc::Reg(r) => Operand::Reg(r),
                VLoc::Slot(i) => Operand::Ind(Reg::FP, i32::from(i)),
                other => return self.err(format!("self-loop parameter in {other:?}")),
            });
        }
        let reorder = args.iter().all(|&a| self.reorderable(a));
        let traps: Vec<bool> = args.iter().map(|&a| self.may_trap(a)).collect();
        let mut pending: Vec<usize> = (0..args.len()).collect();
        let mut moves: Vec<(VarId, Operand, Val)> = Vec::new();
        while !pending.is_empty() {
            // May argument `j`'s value go straight into its home?
            let free = |g: &Self, pending: &[usize], moves: &[(VarId, Operand, Val)], j: usize| {
                !pending
                    .iter()
                    .any(|&k| k != j && g.reads_var(args[k], params[j]))
                    && !moves.iter().any(|m| m.2.op == homes[j])
            };
            let first_trap = pending.iter().copied().find(|&j| traps[j]);
            let pick = if reorder {
                pending
                    .iter()
                    .position(|&j| {
                        (!traps[j] || Some(j) == first_trap) && free(self, &pending, &moves, j)
                    })
                    .unwrap_or(0)
            } else {
                0
            };
            let j = pending.remove(pick);
            let (a, p, home) = (args[j], params[j], homes[j]);
            let rep = self.var_rep(p);
            let v = self.gen_into(a, rep)?;
            let v = if rep == Rep::Pointer {
                self.certify_tail_arg(a, v)
            } else {
                v
            };
            let v = if free(self, &pending, &moves, j) {
                self.target(v, home)
            } else {
                v
            };
            self.record_var_use(p);
            if v.op == home {
                self.release(v);
            } else {
                moves.push((p, home, v));
            }
        }
        // Sequentialize: assign a home no waiting value reads; when
        // every remaining home is read (a cycle, as in `(f y x)`), park
        // one of them in a scratch place first.
        while !moves.is_empty() {
            let free = (0..moves.len()).find(|&i| {
                let home = moves[i].1;
                moves
                    .iter()
                    .enumerate()
                    .all(|(k, m)| k == i || m.2.op != home)
            });
            match free {
                Some(i) => {
                    let (p, home, v) = moves.remove(i);
                    self.asm.push(Insn::Mov {
                        dst: home,
                        src: v.op,
                    });
                    self.record_var_use(p);
                    self.release(v);
                }
                None => {
                    let home = moves[0].1;
                    let park = self.alloc_place();
                    self.asm.push(Insn::Mov {
                        dst: park.op,
                        src: home,
                    });
                    let k = moves
                        .iter()
                        .position(|m| m.2.op == home)
                        .expect("a cycle reads every home");
                    let read = std::mem::replace(&mut moves[k].2, park);
                    self.release(read);
                }
            }
        }
        self.pool.record_loop(0, self.pos());
        self.asm.push(Insn::TailJmp {
            nargs: 0,
            target: top,
        });
        Ok(())
    }

    /// May `node` be computed out of source order?  Only an expression
    /// of constants, lexical variables, conditionals and primitives that
    /// write nothing: no call, assignment, mutation or transfer of
    /// control that another argument could observe.
    fn reorderable(&self, node: NodeId) -> bool {
        s1lisp_ast::subtree_nodes(self.tree, node)
            .iter()
            .all(|&n| match self.tree.kind(n) {
                NodeKind::Constant(_) | NodeKind::If { .. } | NodeKind::Progn(_) => true,
                NodeKind::VarRef(v) => !self.tree.var(*v).special,
                NodeKind::Call {
                    func: CallFunc::Global(g),
                    ..
                } => Prim::from_name(g.as_str()).is_some_and(|p| !p.info().writes),
                _ => false,
            })
    }

    /// Can computing `node` trap?  Everything can but constants,
    /// lexical variables and the primitives that accept any argument
    /// (allocation running out of memory aside).
    fn may_trap(&self, node: NodeId) -> bool {
        s1lisp_ast::subtree_nodes(self.tree, node)
            .iter()
            .any(|&n| match self.tree.kind(n) {
                NodeKind::Constant(_) | NodeKind::If { .. } | NodeKind::Progn(_) => false,
                NodeKind::VarRef(v) => self.tree.var(*v).special,
                NodeKind::Call {
                    func: CallFunc::Global(g),
                    ..
                } => Prim::from_name(g.as_str()).is_none_or(|p| p.info().traps),
                _ => true,
            })
    }

    /// Does `node`'s subtree reference variable `v`?
    fn reads_var(&self, node: NodeId, v: VarId) -> bool {
        s1lisp_ast::subtree_nodes(self.tree, node)
            .iter()
            .any(|&n| matches!(self.tree.kind(n), NodeKind::VarRef(r) if *r == v))
    }

    /// Certifies a tail call's argument when it may be a pdl number
    /// boxed in this frame, which the call reuses or replaces (§6.3).
    /// An incoming pointer parameter the body never assigns points into
    /// an older, live frame and passes as it is.
    fn certify_tail_arg(&mut self, node: NodeId, v: Val) -> Val {
        let in_frame = self.opts.pdl_numbers
            && self.opts.representation_analysis
            && (self.ann.pdl.stack_box(node)
                || self.ann.pdl.unsafe_p(node) && !self.incoming_param(node));
        if in_frame {
            self.certified(v)
        } else {
            v
        }
    }

    /// Is `node` a reference to one of this function's pointer-format
    /// parameters that no `setq` assigns?
    fn incoming_param(&self, node: NodeId) -> bool {
        let NodeKind::VarRef(v) = *self.tree.kind(node) else {
            return false;
        };
        self.lambda.all_params().contains(&v)
            && self.tree.var(v).setqs.is_empty()
            && self.var_rep(v) == Rep::Pointer
    }

    fn finish_tail_value(&mut self, node: NodeId, v: Val) -> R<()> {
        let v = self.certify(node, v)?;
        let v = self.store_home(Operand::Reg(Reg::A), v);
        self.release(v);
        self.emit_ret();
        Ok(())
    }
}

/// A jump-table plan for a `caseq` whose keys are dense fixnums.
struct DensePlan {
    min: i64,
    span: i64,
    /// slot\[i\] = clause index handling key `min + i`.
    slots: Vec<Option<usize>>,
}

fn dense_fixnum_plan(clauses: &[s1lisp_ast::CaseqClause]) -> Option<DensePlan> {
    let mut keys: Vec<(i64, usize)> = Vec::new();
    for (ci, c) in clauses.iter().enumerate() {
        for k in &c.keys {
            match k {
                Datum::Fixnum(n) => keys.push((*n, ci)),
                _ => return None,
            }
        }
    }
    if keys.len() < 3 {
        return None;
    }
    let min = keys.iter().map(|&(n, _)| n).min()?;
    let max = keys.iter().map(|&(n, _)| n).max()?;
    let span = max - min + 1;
    if !(1..=64).contains(&span) {
        return None;
    }
    let mut slots = vec![None; span as usize];
    for (n, ci) in keys {
        let slot = &mut slots[(n - min) as usize];
        if slot.is_none() {
            *slot = Some(ci); // first clause wins, like the chain
        }
    }
    Some(DensePlan { min, span, slots })
}

/// Whether a call to global `g` transfers control out of the function:
/// a user function, or `apply` or `throw`.
fn leaves_function(g: &Symbol) -> bool {
    matches!(
        Prim::from_name(g.as_str()),
        None | Some(Prim::Apply | Prim::Throw)
    )
}

/// The S-1 instruction computing `op` on two raw fixnums.
fn int_op(op: NumOp) -> Option<IntOp> {
    Some(match op {
        NumOp::Add => IntOp::Add,
        NumOp::Sub => IntOp::Sub,
        NumOp::Mul => IntOp::Mult,
        NumOp::Div => IntOp::Div,
        NumOp::FloorDiv => IntOp::DivFloor,
        NumOp::Rem => IntOp::Rem,
        NumOp::Mod => IntOp::ModFloor,
        _ => return None,
    })
}

/// The S-1 instruction computing `op` on two raw flonums.
fn float_op(op: NumOp) -> Option<FloatOp> {
    Some(match op {
        NumOp::Add => FloatOp::Add,
        NumOp::Sub => FloatOp::Sub,
        NumOp::Mul => FloatOp::Mult,
        NumOp::Div => FloatOp::Div,
        NumOp::Max => FloatOp::Max,
        NumOp::Min => FloatOp::Min,
        _ => return None,
    })
}

/// The S-1 instruction computing `op` on one raw flonum.
fn float_un_op(op: NumOp) -> Option<FloatUnOp> {
    Some(match op {
        NumOp::Sqrt => FloatUnOp::Sqrt,
        NumOp::Exp => FloatUnOp::Exp,
        NumOp::Log => FloatUnOp::Log,
        NumOp::Atan => FloatUnOp::Atan,
        NumOp::SinCycles => FloatUnOp::Sin,
        NumOp::CosCycles => FloatUnOp::Cos,
        _ => return None,
    })
}

/// Whether a (special) variable has any reference (we only cache specials
/// that are actually read or written).
fn within_lambda(tree: &Tree, v: VarId) -> bool {
    let var = tree.var(v);
    !var.refs.is_empty() || !var.setqs.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_interp::Value;
    use s1lisp_opt::Optimizer;
    use s1lisp_reader::{read_all_str, Interner};
    use s1lisp_s1sim::Machine;

    /// Compiles a program (optimizing first) and returns a machine plus a
    /// matching interpreter for differential checks.
    fn build(src: &str, opts: &CodegenOptions) -> (Machine, s1lisp_interp::Interp) {
        let mut i = Interner::new();
        let forms = read_all_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let fns = fe.convert_toplevel(&forms).unwrap();
        let mut program = Program::new();
        let mut interp = s1lisp_interp::Interp::new();
        for mut f in fns {
            let mut o = Optimizer::new();
            o.optimize(&mut f.tree);
            compile(f.name.as_str(), &f.tree, &mut program, opts).unwrap();
            interp.define(f);
        }
        (Machine::new(program), interp)
    }

    /// Runs both engines and asserts equal results.
    fn check(src: &str, calls: &[(&str, Vec<Value>)]) -> Machine {
        let opts = CodegenOptions::default();
        let (mut m, interp) = build(src, &opts);
        for (name, args) in calls {
            let want = interp.call(name, args);
            let got = m.run(name, args);
            match (want, got) {
                (Ok(w), Ok(g)) => {
                    assert_eq!(g, w, "result mismatch for {name} {args:?}");
                }
                (Err(_), Err(_)) => {}
                (w, g) => panic!("divergence for {name} {args:?}: interp={w:?} machine={g:?}"),
            }
        }
        m
    }

    fn fx(n: i64) -> Value {
        Value::Fixnum(n)
    }

    fn fl(x: f64) -> Value {
        Value::Flonum(x)
    }

    /// The S-1 has instructions for an operation on each raw
    /// representation the operation is defined on, and on no other:
    /// representation analysis lowers a generic row on that promise.
    #[test]
    fn every_operation_has_its_instructions() {
        for op in Prim::ALL.iter().filter_map(|p| p.info().op) {
            assert_eq!(int_op(op).is_some(), op.on_fixnums(), "{op:?}");
            let flonum = float_op(op).is_some() || float_un_op(op).is_some();
            assert_eq!(flonum, op.on_flonums(), "{op:?}");
        }
    }

    #[test]
    fn simple_arithmetic() {
        check(
            "(defun f (x y) (+ (* x x) y))",
            &[("f", vec![fx(3), fx(4)]), ("f", vec![fx(-2), fx(0)])],
        );
    }

    #[test]
    fn typed_float_pipeline() {
        check(
            "(defun norm (a b) (sqrt$f (+$f (*$f a a) (*$f b b))))",
            &[("norm", vec![fl(3.0), fl(4.0)])],
        );
    }

    #[test]
    fn conditionals_and_comparisons() {
        check(
            "(defun classify (x) (cond ((< x 0) 'neg) ((zerop x) 'zero) (t 'pos)))",
            &[
                ("classify", vec![fx(-5)]),
                ("classify", vec![fx(0)]),
                ("classify", vec![fx(7)]),
            ],
        );
    }

    #[test]
    fn exptl_runs_in_constant_stack() {
        let m = check(
            "(defun exptl (x n a)
               (cond ((zerop n) a)
                     ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
                     (t (exptl (* x x) (floor (/ n 2)) a))))",
            &[("exptl", vec![fx(3), fx(10), fx(1)])],
        );
        assert!(m.stats.tail_calls > 0, "self-calls must be tail transfers");
        assert_eq!(m.stats.max_call_depth, 0, "no frames pushed");
    }

    #[test]
    fn deep_tail_recursion_does_not_grow_the_stack() {
        let opts = CodegenOptions::default();
        let (mut m, _) = build(
            "(defun loopn (n) (if (= n 0) 'done (loopn (- n 1))))",
            &opts,
        );
        let v = m.run("loopn", &[fx(1_000_000)]).unwrap();
        assert_eq!(v.to_string(), "done");
        assert_eq!(m.stats.max_call_depth, 0);
        assert!(m.stats.max_stack_words < 32);
    }

    #[test]
    fn without_tail_calls_the_stack_grows() {
        let opts = CodegenOptions {
            tail_calls: false,
            ..CodegenOptions::default()
        };
        let (mut m, _) = build(
            "(defun loopn (n) (if (= n 0) 'done (loopn (- n 1))))",
            &opts,
        );
        let err = m.run("loopn", &[fx(1_000_000)]).unwrap_err();
        assert!(matches!(err.cause(), s1lisp_s1sim::Trap::StackOverflow));
    }

    #[test]
    fn let_and_lists() {
        check(
            "(defun f (a b) (let ((x (cons a b)) (y (list a b a))) (list (car x) (cdr x) (length y))))",
            &[("f", vec![fx(1), fx(2)])],
        );
    }

    #[test]
    fn optional_defaults_dispatch() {
        let m = check(
            "(defun f (a &optional (b 3.0) (c a)) (list a b c))",
            &[("f", vec![fx(1)])],
        );
        let mut m = m;
        for args in [vec![fx(1), fx(2)], vec![fx(1), fx(2), fx(9)]] {
            let v = m.run("f", &args).unwrap();
            assert_eq!(v.to_string().matches(' ').count(), 2, "{v}");
        }
        assert!(m.run("f", &[]).is_err());
        assert!(m.run("f", &[fx(1), fx(2), fx(3), fx(4)]).is_err());
    }

    #[test]
    fn rest_parameters_listify() {
        check(
            "(defun f (a &rest r) (cons a r))",
            &[("f", vec![fx(1)]), ("f", vec![fx(1), fx(2), fx(3)])],
        );
    }

    #[test]
    fn closures_capture_and_mutate() {
        check(
            "(defun make-counter () (let ((n 0)) (lambda () (setq n (+ n 1)) n)))
             (defun run2 () (let ((c (make-counter))) (c) (c)))",
            &[("run2", vec![])],
        );
    }

    #[test]
    fn higher_order_functions() {
        check(
            "(defun add1 (x) (+ x 1))
             (defun twice (f x) (f (f x)))
             (defun go2 (x) (twice #'add1 x))",
            &[("go2", vec![fx(5)])],
        );
    }

    #[test]
    fn prog_loops() {
        check(
            "(defun sum-to (n)
               (prog (acc)
                 (setq acc 0)
                 top
                 (if (= n 0) (return acc))
                 (setq acc (+ acc n) n (- n 1))
                 (go top)))",
            &[("sum-to", vec![fx(1000)])],
        );
    }

    /// A `let` binding a frame slot to NIL stores it unless control has
    /// run straight from the `ALLOC` that filled the slot with NIL: in a
    /// loop the store runs again on every iteration.  (The call keeps
    /// the variables in frame slots, not registers.)
    #[test]
    fn nil_bindings_store_only_where_the_alloc_has_not_run_past() {
        let m = check(
            "(defun id (v) v)
             (defun fresh (n)
               (prog (seen)
                 top
                 (if (= n 0) (return seen))
                 (let ((x nil))
                   (setq seen (id x))
                   (setq x n))
                 (setq n (- n 1))
                 (go top)))",
            &[("fresh", vec![fx(3)])],
        );
        let code = m
            .program
            .func(m.program.lookup_fn("fresh").unwrap())
            .unwrap();
        let nil_stores = code
            .insns
            .iter()
            .filter(
                |i| matches!(i, Insn::Mov { dst: Operand::Ind(..), src } if *src == Operand::nil()),
            )
            .count();
        // `seen`'s initial NIL follows the ALLOC; `x`'s is in the loop.
        assert_eq!(nil_stores, 1, "{:?}", code.insns);
    }

    #[test]
    fn catch_and_throw_unwind() {
        check(
            "(defun inner (x) (if (< x 0) (throw 'out 'negative) (* x 2)))
             (defun outer (x) (catch 'out (inner x)))",
            &[("outer", vec![fx(5)]), ("outer", vec![fx(-5)])],
        );
    }

    #[test]
    fn special_variables_deep_bind() {
        let opts = CodegenOptions::default();
        let (mut m, interp) = build(
            "(proclaim '(special *level*))
             (defun probe () *level*)
             (defun with-level (*level*) (probe))",
            &opts,
        );
        interp.set_global("*level*", fx(1));
        m.set_global("*level*", &fx(1)).unwrap();
        assert_eq!(
            m.run("with-level", &[fx(42)]).unwrap(),
            interp.call("with-level", &[fx(42)]).unwrap()
        );
        assert_eq!(
            m.run("probe", &[]).unwrap(),
            interp.call("probe", &[]).unwrap()
        );
        assert!(m.stats.special_searches > 0);
    }

    #[test]
    fn pdl_numbers_avoid_heap_boxes() {
        // testfn-like: float temporaries that must take pointer form
        // because they are passed to a user function.
        let src = "(defun use2 (x y) '())
                   (defun f (a b)
                     (let ((d (+$f a b)) (e (*$f a b)))
                       (use2 d e)
                       (max$f d e)))";
        let on = CodegenOptions::default();
        let off = CodegenOptions {
            pdl_numbers: false,
            ..CodegenOptions::default()
        };
        let (mut m1, _) = build(src, &on);
        let (mut m2, _) = build(src, &off);
        let v1 = m1.run("f", &[fl(2.0), fl(3.0)]).unwrap();
        let v2 = m2.run("f", &[fl(2.0), fl(3.0)]).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(v1, fl(6.0));
        assert!(
            m1.stats.heap.flonums < m2.stats.heap.flonums,
            "pdl on: {} boxes, off: {} boxes",
            m1.stats.heap.flonums,
            m2.stats.heap.flonums
        );
        assert!(m1.stats.pdl_numbers > 0);
    }

    /// A `let` shares one unbox of a flonum its initializations read
    /// twice, but not past a join (the other arm never loaded it), a
    /// call (which clobbers the register) or an assignment.
    #[test]
    fn shared_unboxes_end_at_joins_calls_and_assignments() {
        let src = "(defun id (x) x)
                   (defun join (p a b) (let ((d (if p (+$f a 1.0) 0.0)) (e (*$f a b))) (list d e d e)))
                   (defun call (a b) (let ((d (+$f a b)) (e (progn (id 0) (*$f a b)))) (list d e d e)))
                   (defun assign (a b) (let ((d (+$f a b)) (e (progn (setq a b) (*$f a b)))) (list d e d e)))
                   (defun share (a b) (let ((d (+$f a b)) (e (*$f a b))) (list d e d e)))";
        let (a, b) = (fl(1.5), fl(-2.0));
        let m = check(
            src,
            &[
                ("join", vec![Value::Nil, a.clone(), b.clone()]),
                ("join", vec![fx(1), a.clone(), b.clone()]),
                ("call", vec![a.clone(), b.clone()]),
                ("assign", vec![a.clone(), b.clone()]),
                ("share", vec![a, b]),
            ],
        );
        // `share` unboxes each argument once.
        let id = m.program.lookup_fn("share").unwrap();
        let listing = crate::print::disassemble(&m.program, m.program.func(id).unwrap());
        assert_eq!(listing.matches("%FLONUM-FETCH").count(), 2, "{listing}");
    }

    #[test]
    fn caseq_dispatch() {
        check(
            "(defun f (x) (caseq x ((1 2) 'small) ((10) 'ten) (t 'other)))",
            &[
                ("f", vec![fx(1)]),
                ("f", vec![fx(2)]),
                ("f", vec![fx(10)]),
                ("f", vec![fx(99)]),
            ],
        );
    }

    #[test]
    fn boolean_short_circuit_makes_no_closures() {
        let m = check(
            "(defun f (a b c) (if (and a (or b c)) (list 1) (list 2)))",
            &[
                ("f", vec![fx(1), Value::Nil, fx(1)]),
                ("f", vec![fx(1), Value::Nil, Value::Nil]),
                ("f", vec![Value::Nil, fx(1), fx(1)]),
            ],
        );
        assert_eq!(m.stats.closures_made, 0, "E3: no closures at run time");
    }

    #[test]
    fn quoted_structure_is_static() {
        let mut m = check("(defun f () '(1 2 3))", &[("f", vec![])]);
        let before = m.stats.heap.conses;
        m.run("f", &[]).unwrap();
        m.run("f", &[]).unwrap();
        assert_eq!(m.stats.heap.conses, before, "constants materialize once");
    }

    #[test]
    fn mutual_recursion() {
        check(
            "(defun even? (n) (if (zerop n) t (odd? (- n 1))))
             (defun odd? (n) (if (zerop n) '() (even? (- n 1))))",
            &[("even?", vec![fx(10)]), ("even?", vec![fx(7)])],
        );
    }

    #[test]
    fn declared_floats_stay_raw_in_loops() {
        let src = "(defun dot (ax ay bx by)
                     (declare (flonum ax ay bx by))
                     (+$f (*$f ax bx) (*$f ay by)))";
        let on = CodegenOptions::default();
        let off = CodegenOptions {
            representation_analysis: false,
            ..CodegenOptions::default()
        };
        let (mut m1, _) = build(src, &on);
        let (mut m2, _) = build(src, &off);
        let args = [fl(1.0), fl(2.0), fl(3.0), fl(4.0)];
        assert_eq!(m1.run("dot", &args).unwrap(), m2.run("dot", &args).unwrap());
        assert!(
            m1.stats.insns < m2.stats.insns,
            "representation analysis saves work: {} vs {}",
            m1.stats.insns,
            m2.stats.insns
        );
    }

    #[test]
    fn quadratic_end_to_end() {
        check(
            "(defun quadratic (a b c)
               (let ((d (- (* b b) (* 4.0 a c))))
                 (cond ((< d 0) '())
                       ((= d 0) (list (/ (- b) (* 2.0 a))))
                       (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))
                            (list (/ (+ (- b) sd) two-a)
                                  (/ (- (- b) sd) two-a)))))))",
            &[
                ("quadratic", vec![fl(1.0), fl(-3.0), fl(2.0)]),
                ("quadratic", vec![fl(1.0), fl(0.0), fl(1.0)]),
                ("quadratic", vec![fl(1.0), fl(-2.0), fl(1.0)]),
            ],
        );
    }
}
