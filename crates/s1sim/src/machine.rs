//! The execution engine.
//!
//! A fetch–execute loop over [`Insn`]s, with the frame discipline the
//! compiled code relies on: arguments at `FP+0 … FP+n-1`, temporaries
//! above them, the return value in register A, tail calls reusing the
//! current frame (§2's "parameter-passing goto").

use std::sync::Arc;

use s1lisp_ast::lists::{self, Engine};
use s1lisp_ast::num::{self, Num, NumError};
use s1lisp_ast::Prim;
use s1lisp_interp::Value;
use s1lisp_reader::Interner;

use crate::heap::{Heap, ObjKind};
use crate::insn::{CallTarget, Cond, Insn, Operand, Reg};
use crate::postmortem::PostMortem;
use crate::profile::ExecProfile;
use crate::program::{FuncCode, Program};
use crate::runtime;
use crate::stats::MachineStats;
use crate::word::{Tag, Word, STACK_BASE};

/// Instruction-equivalent cost charged for a runtime-system call beyond
/// the call instruction itself (entry/exit sequence plus generic type
/// dispatch — see `Machine::charge_rt_call`).
pub(crate) const RT_CALL_COST: u64 = 8;

/// Base address of special-binding value slots.
pub(crate) const SPECIAL_BASE: u64 = 1 << 50;
/// Base address of global value slots.
pub(crate) const GLOBAL_BASE: u64 = 1 << 51;

/// Words a fresh machine's data stack starts with; it doubles from here
/// as runs reach deeper, up to the machine's stack size.
const STACK_MIN_WORDS: usize = 1024;

/// Runtime-routine arguments a call copies into a fixed on-stack
/// buffer; only a call with more than this many spills to the heap.
const RT_ARGS_INLINE: usize = 8;

/// A run-time failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trap {
    /// A type check failed.
    WrongType(String),
    /// A function received the wrong number of arguments.
    WrongNumberOfArguments(String),
    /// Call to an undefined function.
    UndefinedFunction(String),
    /// The data or control stack overflowed.
    StackOverflow,
    /// The heap is exhausted even after collection.
    HeapExhausted,
    /// Division by zero.
    DivisionByZero,
    /// A `throw` found no matching catch frame.
    UncaughtThrow(String),
    /// The instruction budget ran out (runaway program).
    FuelExhausted,
    /// A Lisp-level `error` call.
    LispError(String),
    /// An explicit `Trap` instruction (compiler-inserted check).
    Explicit(&'static str),
    /// A trap annotated with its fault site.  [`Machine::run`] wraps
    /// every trap that surfaces from executing code in one of these, so
    /// `Display` names the faulting function and program counter instead
    /// of the bare message.  Match on [`Trap::cause`] to see through it.
    At {
        /// Name of the function executing when the trap surfaced.
        fn_name: String,
        /// Program counter of the faulting instruction.
        pc: u32,
        /// The underlying trap.
        cause: Box<Trap>,
    },
}

impl Trap {
    /// The underlying trap, seen through any [`Trap::At`] site
    /// annotations.
    pub fn cause(&self) -> &Trap {
        match self {
            Trap::At { cause, .. } => cause.cause(),
            t => t,
        }
    }

    /// The fault site `(function, pc)`, if this trap carries one.
    pub fn site(&self) -> Option<(&str, u32)> {
        match self {
            Trap::At { fn_name, pc, .. } => Some((fn_name, *pc)),
            _ => None,
        }
    }

    /// Annotates this trap with its fault site.
    pub fn at(self, fn_name: impl Into<String>, pc: u32) -> Trap {
        Trap::At {
            fn_name: fn_name.into(),
            pc,
            cause: Box::new(self),
        }
    }
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::WrongType(m) => write!(f, "wrong type: {m}"),
            Trap::WrongNumberOfArguments(m) => write!(f, "wrong number of arguments: {m}"),
            Trap::UndefinedFunction(m) => write!(f, "undefined function {m}"),
            Trap::StackOverflow => write!(f, "stack overflow"),
            Trap::HeapExhausted => write!(f, "heap exhausted"),
            Trap::DivisionByZero => write!(f, "division by zero"),
            Trap::UncaughtThrow(m) => write!(f, "uncaught throw to {m}"),
            Trap::FuelExhausted => write!(f, "instruction budget exhausted"),
            Trap::LispError(m) => write!(f, "error: {m}"),
            Trap::Explicit(m) => write!(f, "trap: {m}"),
            Trap::At { fn_name, pc, cause } => write!(f, "{cause} (in {fn_name} at pc {pc})"),
        }
    }
}

impl std::error::Error for Trap {}

/// A control-stack frame.
#[derive(Clone, Debug)]
pub(crate) struct Frame {
    pub(crate) ret_fn: u32,
    pub(crate) ret_pc: usize,
    pub(crate) saved_fp: usize,
    saved_ev: Word,
}

/// Where execution was when a trap surfaced (tracked by the
/// fetch–execute loop for [`Trap::At`] and [`PostMortem`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FaultSite {
    pub(crate) fnid: u32,
    pub(crate) pc: u32,
}

/// A catch frame (§2's `catch` construct).
#[derive(Clone, Debug)]
struct CatchFrame {
    tag: Word,
    fnid: u32,
    resume: usize,
    sp: usize,
    fp: usize,
    ev: Word,
    ctrl_len: usize,
    spec_len: usize,
}

/// The S-1 machine.
pub struct Machine {
    /// The loaded program, shared with the image it came from until a
    /// run interns a name the program lacks.
    pub program: Arc<Program>,
    /// The register file.
    pub regs: [Word; 32],
    /// The data stack.  It starts at [`STACK_MIN_WORDS`] and doubles,
    /// up to `stack_limit`, when a push or a write passes its length; a
    /// slot past its length reads NIL.
    stack: Vec<Word>,
    /// Words the data stack may hold before a push traps.
    stack_limit: usize,
    pub(crate) sp: usize,
    pub(crate) fp: usize,
    /// Deep-binding stack: (symbol id, value).
    pub(crate) specials: Vec<(u32, Word)>,
    /// Global value cells: (symbol id, value).
    globals: Vec<(u32, Word)>,
    /// The heap.
    pub heap: Heap,
    pub(crate) ctrl: Vec<Frame>,
    catches: Vec<CatchFrame>,
    /// Execution counters.
    pub stats: MachineStats,
    /// Optional execution profiler (opcode histogram, per-function
    /// cycles, instruction ring).  `None` by default; attaching one is
    /// host-side only and never changes simulated behavior or counts.
    pub profile: Option<Box<ExecProfile>>,
    /// Post-mortem of the most recent trapping [`Machine::run`], if any
    /// (cleared by the next `run`).
    pub post_mortem: Option<Box<PostMortem>>,
    /// Remaining instruction budget for the current `run`.
    pub fuel: u64,
    /// Instruction budget installed at each `run`.
    pub fuel_per_run: u64,
    /// Host nanoseconds the dispatch loop of the most recent `run` took
    /// (including traps).  Host-time: zeroed for deterministic snapshots.
    pub last_run_wall_ns: u64,
    /// Instructions retired by the most recent `run` alone.  Unlike the
    /// cumulative `stats.insns`, this is a per-run delta, so it pairs
    /// with `last_run_wall_ns` to give a correct throughput even after
    /// warmup runs on the same machine.
    pub last_run_insns: u64,
    /// Lazily materialized static constants (indexed like
    /// `program.constants`).
    const_cache: Vec<Option<Word>>,
}

impl Machine {
    /// A machine with default sizes (64 Ki-word stack, 1 Mi-word heap).
    pub fn new(program: impl Into<Arc<Program>>) -> Machine {
        Machine::with_sizes(program, 1 << 16, 1 << 20)
    }

    /// A machine with explicit stack/heap sizes in words.  Both are
    /// limits, not allocations: the stack and the heap grow towards them
    /// as a run reaches deeper.
    pub fn with_sizes(
        program: impl Into<Arc<Program>>,
        stack_words: usize,
        heap_words: usize,
    ) -> Machine {
        Machine {
            program: program.into(),
            regs: [Word::NIL; 32],
            stack: vec![Word::NIL; stack_words.min(STACK_MIN_WORDS)],
            stack_limit: stack_words,
            sp: 0,
            fp: 0,
            specials: Vec::new(),
            globals: Vec::new(),
            heap: Heap::new(heap_words),
            ctrl: Vec::new(),
            catches: Vec::new(),
            stats: MachineStats::default(),
            profile: None,
            post_mortem: None,
            fuel: 0,
            fuel_per_run: 2_000_000_000,
            last_run_wall_ns: 0,
            last_run_insns: 0,
            const_cache: Vec::new(),
        }
    }

    /// Sets the global value of a special variable.
    pub fn set_global(&mut self, name: &str, value: &Value) -> Result<(), Trap> {
        let w = self.inject(value)?;
        let sym = self.sym_id(name);
        match self.globals.iter_mut().find(|(s, _)| *s == sym) {
            Some(slot) => slot.1 = w,
            None => self.globals.push((sym, w)),
        }
        Ok(())
    }

    /// Reads the global value of a special variable.
    pub fn global(&self, name: &str) -> Option<Result<Value, Trap>> {
        let id = self.program.lookup_sym(name)?;
        let w = self.globals.iter().find(|(s, _)| *s == id)?.1;
        Some(self.extract(w))
    }

    /// Interns a symbol.  A name the program already has is looked up;
    /// only a new one copies a shared program (see [`Arc::make_mut`]).
    pub(crate) fn sym_id(&mut self, name: &str) -> u32 {
        match self.program.lookup_sym(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.program).sym_id(name),
        }
    }

    /// Interns a function name, as [`Machine::sym_id`] does a symbol.
    pub(crate) fn fn_id(&mut self, name: &str) -> u32 {
        match self.program.lookup_fn(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.program).fn_id(name),
        }
    }

    /// Interns a string constant, as [`Machine::sym_id`] does a symbol.
    pub(crate) fn str_id(&mut self, s: &str) -> u32 {
        match self.program.lookup_str(s) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.program).str_id(s),
        }
    }

    /// Calls function `name` with `args`, returning the result value.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on any run-time failure.  A trap that surfaces
    /// while executing code is wrapped in [`Trap::At`] naming the
    /// faulting function and pc, and a [`PostMortem`] is captured in
    /// [`Machine::post_mortem`].
    pub fn run(&mut self, name: &str, args: &[Value]) -> Result<Value, Trap> {
        self.post_mortem = None;
        let fnid = self
            .program
            .lookup_fn(name)
            .ok_or_else(|| Trap::UndefinedFunction(name.to_string()))?;
        // Reset transient state (heap and globals persist across runs).
        self.sp = 0;
        self.fp = 0;
        self.ctrl.clear();
        self.catches.clear();
        self.specials.clear();
        self.fuel = self.fuel_per_run;
        for v in args {
            let w = self.inject(v)?;
            self.push(w)?;
        }
        let code = self
            .program
            .func(fnid)
            .ok_or_else(|| Trap::UndefinedFunction(name.to_string()))?
            .clone();
        self.fp = self.sp - args.len();
        self.regs[Reg::RTA.0 as usize] = Word::Raw(args.len() as i64);
        self.regs[Reg::EV.0 as usize] = Word::NIL;
        if let Some(p) = self.profile.as_deref_mut() {
            p.stack_reset(fnid);
        }
        let mut fault = FaultSite { fnid, pc: 0 };
        let insns_before = self.stats.insns;
        let dispatch_start = std::time::Instant::now();
        let outcome = self.execute(fnid, code, &mut fault);
        self.last_run_wall_ns = dispatch_start.elapsed().as_nanos() as u64;
        self.last_run_insns = self.stats.insns - insns_before;
        self.stats.heap = self.heap.allocs;
        match outcome {
            Ok(result) => self.extract(result),
            Err(trap) => {
                let fn_name = self.program.names().resolve(fault.fnid).into_owned();
                let trap = trap.at(fn_name, fault.pc);
                self.post_mortem = Some(Box::new(PostMortem::capture(self, &trap, &fault)));
                Err(trap)
            }
        }
    }

    /// Enables trap post-mortems with full forensics: attaches an
    /// [`ExecProfile`] keeping the last `ring` retired instructions (if
    /// no profile is attached yet), so a trapping [`Machine::run`]
    /// captures the instruction tail and per-function cycle attribution
    /// alongside the register and frame state.
    pub fn enable_post_mortem(&mut self, ring: usize) {
        if self.profile.is_none() {
            self.profile = Some(Box::new(ExecProfile::with_ring(ring)));
        }
    }

    /// Exports everything the machine measured into `reg`: the
    /// [`MachineStats`] counters (`sim.*`), dispatch-loop wall time and
    /// throughput (`sim.run_wall_ns`, `sim.insns_per_sec` — host-time,
    /// zeroed for deterministic snapshots), the opcode-class histogram
    /// from the attached profile (`sim.opclass.*`), and the heap's
    /// telemetry (`heap.*`).  Export once per finished run.
    /// `sim.insns_per_sec` is computed from the *last* run's instruction
    /// delta and wall time, so it stays a genuine throughput even when
    /// the machine has executed warmup runs before the measured one.
    pub fn export_metrics(&self, reg: &s1lisp_trace::metrics::MetricsRegistry) {
        self.stats.export(reg);
        reg.counter("sim.run_wall_ns").add(self.last_run_wall_ns);
        let per_sec = if self.last_run_wall_ns > 0 {
            (self.last_run_insns as u128 * 1_000_000_000 / self.last_run_wall_ns as u128) as i64
        } else {
            0
        };
        reg.gauge("sim.insns_per_sec").set(per_sec);
        if let Some(profile) = &self.profile {
            for (class, n) in profile.class_histogram() {
                reg.counter(&format!("sim.opclass.{class}")).add(n);
            }
        }
        self.heap.export_metrics(reg);
    }

    /// The folded call-stack profile (see [`ExecProfile::folded`]) with
    /// names resolved through the program's shared symbol table, or
    /// `None` when no profile is attached.
    pub fn folded_stacks(&self) -> Option<String> {
        self.profile
            .as_ref()
            .map(|p| p.folded(&self.program.names()))
    }

    /// Renders the [`MachineStats`] counter table and, when a profile
    /// is attached, the heaviest functions by attributed cycles — names
    /// resolved through the same shared symbol table the profiler and
    /// post-mortems use.
    pub fn stats_report(&self) -> String {
        let mut out = self.stats.to_string();
        if let Some(p) = &self.profile {
            let names = self.program.names();
            out.push_str("heaviest functions (attributed cycles):\n");
            for (fnid, cycles) in p.per_fn().into_iter().take(8) {
                out.push_str(&format!("  {:<24} {cycles:>12}\n", names.resolve(fnid)));
            }
        }
        out
    }

    /// The fetch–execute loop, starting at `(fnid, 0)` with an empty
    /// control stack; returns when the initial frame returns.  `fault`
    /// tracks the instruction being executed so [`Machine::run`] can
    /// localize a trap.
    fn execute(
        &mut self,
        mut fnid: u32,
        mut code: Arc<FuncCode>,
        fault: &mut FaultSite,
    ) -> Result<Word, Trap> {
        let base_ctrl = self.ctrl.len();
        let mut pc = 0usize;
        loop {
            fault.fnid = fnid;
            fault.pc = pc as u32;
            if self.fuel == 0 {
                return Err(Trap::FuelExhausted);
            }
            self.fuel -= 1;
            self.stats.insns += 1;
            let Some(insn) = code.insns.get(pc) else {
                return Err(Trap::Explicit("fell off end of function"));
            };
            if let Some(p) = self.profile.as_deref_mut() {
                p.retire(fnid, pc, insn.opcode());
            }
            pc += 1;
            match self.step(insn, fnid, &code, &mut pc)? {
                Step::Next => {}
                Step::Jump(target) => pc = code.labels[target as usize],
                Step::Call {
                    target,
                    nargs,
                    tail,
                } => {
                    let (new_fn, env) = self.resolve_callee(target)?;
                    let new_code = match self.program.func(new_fn).cloned() {
                        Some(code) => code,
                        None => {
                            // A function *value* naming a primitive (e.g.
                            // #'1+ passed around): route through the
                            // runtime as a leaf call.  Anything else is
                            // undefined; its arguments are popped as a
                            // call would pop them.
                            let name = self.program.names().resolve(new_fn);
                            let Some(prim) = Prim::from_name(&name) else {
                                let name = name.into_owned();
                                self.sp -= nargs;
                                return Err(Trap::UndefinedFunction(name));
                            };
                            match self.rt_call_popped(prim, nargs)? {
                                runtime::RtResult::Value(w) => {
                                    self.regs[Reg::A.0 as usize] = w;
                                    if tail {
                                        // Behave like Ret from here.
                                        let value = w;
                                        if self.ctrl.len() == base_ctrl {
                                            return Ok(value);
                                        }
                                        let frame = self.ctrl.pop().expect("ctrl non-empty");
                                        if let Some(p) = self.profile.as_deref_mut() {
                                            p.stack_pop();
                                        }
                                        self.sp = self.fp;
                                        self.fp = frame.saved_fp;
                                        self.regs[Reg::EV.0 as usize] = frame.saved_ev;
                                        fnid = frame.ret_fn;
                                        code = self
                                            .program
                                            .func(fnid)
                                            .cloned()
                                            .expect("returning into defined function");
                                        pc = frame.ret_pc;
                                    }
                                    continue;
                                }
                                runtime::RtResult::Throw { .. } => {
                                    return Err(Trap::UncaughtThrow(
                                        "throw from runtime value call".into(),
                                    ))
                                }
                            }
                        }
                    };
                    if tail {
                        self.stats.tail_calls += 1;
                        self.slide_args_to_frame(nargs);
                    } else {
                        self.stats.calls += 1;
                        self.ctrl.push(Frame {
                            ret_fn: fnid,
                            ret_pc: pc,
                            saved_fp: self.fp,
                            saved_ev: self.regs[Reg::EV.0 as usize],
                        });
                        if self.ctrl.len() > self.stats.max_call_depth {
                            self.stats.max_call_depth = self.ctrl.len();
                        }
                        if self.ctrl.len() > 1 << 16 {
                            return Err(Trap::StackOverflow);
                        }
                        self.fp = self.sp - nargs;
                    }
                    if let Some(p) = self.profile.as_deref_mut() {
                        if tail {
                            p.stack_tail(new_fn);
                        } else {
                            p.stack_push(new_fn);
                        }
                    }
                    self.regs[Reg::RTA.0 as usize] = Word::Raw(nargs as i64);
                    self.regs[Reg::EV.0 as usize] = env;
                    fnid = new_fn;
                    code = new_code;
                    pc = 0;
                }
                Step::TailJmp { nargs, target } => {
                    self.stats.tail_calls += 1;
                    if nargs > 0 {
                        self.slide_args_to_frame(nargs);
                        self.regs[Reg::RTA.0 as usize] = Word::Raw(nargs as i64);
                    }
                    pc = code.labels[target as usize];
                }
                Step::LocalRet => {
                    if self.ctrl.len() == base_ctrl {
                        return Err(Trap::Explicit("LocalRet with no local frame"));
                    }
                    let frame = self.ctrl.pop().expect("ctrl non-empty");
                    if let Some(p) = self.profile.as_deref_mut() {
                        p.stack_pop();
                    }
                    self.fp = frame.saved_fp;
                    self.regs[Reg::EV.0 as usize] = frame.saved_ev;
                    fnid = frame.ret_fn;
                    code = self
                        .program
                        .func(fnid)
                        .cloned()
                        .expect("returning into defined function");
                    pc = frame.ret_pc;
                }
                Step::Ret => {
                    let value = self.regs[Reg::A.0 as usize];
                    if self.ctrl.len() == base_ctrl {
                        return Ok(value);
                    }
                    let frame = self.ctrl.pop().expect("ctrl non-empty");
                    if let Some(p) = self.profile.as_deref_mut() {
                        p.stack_pop();
                    }
                    self.sp = self.fp;
                    self.fp = frame.saved_fp;
                    self.regs[Reg::EV.0 as usize] = frame.saved_ev;
                    fnid = frame.ret_fn;
                    code = self
                        .program
                        .func(fnid)
                        .cloned()
                        .expect("returning into defined function");
                    pc = frame.ret_pc;
                }
                Step::ThrowTo { tag, value } => {
                    let Some(pos) = self
                        .catches
                        .iter()
                        .rposition(|c| self.same(&c.tag, &tag, Prim::Eql))
                    else {
                        let name = format!("{tag}");
                        return Err(Trap::UncaughtThrow(name));
                    };
                    let c = self.catches[pos].clone();
                    if c.ctrl_len < base_ctrl {
                        // The catch belongs to an outer host invocation.
                        return Err(Trap::UncaughtThrow(format!("{tag}")));
                    }
                    self.catches.truncate(pos);
                    self.ctrl.truncate(c.ctrl_len);
                    if let Some(p) = self.profile.as_deref_mut() {
                        p.stack_unwind(c.ctrl_len - base_ctrl + 1, c.fnid);
                    }
                    self.specials.truncate(c.spec_len);
                    self.sp = c.sp;
                    self.fp = c.fp;
                    self.regs[Reg::EV.0 as usize] = c.ev;
                    self.regs[Reg::A.0 as usize] = value;
                    fnid = c.fnid;
                    code = self
                        .program
                        .func(fnid)
                        .cloned()
                        .expect("catch in defined function");
                    pc = c.resume;
                }
            }
        }
    }

    fn resolve_callee(&mut self, target: Callee) -> Result<(u32, Word), Trap> {
        match target {
            Callee::Func(id) => Ok((id, Word::NIL)),
            Callee::Word(w) => match w {
                Word::Ptr(Tag::Function, id) => Ok((id as u32, Word::NIL)),
                Word::Ptr(Tag::Closure, addr) => {
                    let Word::Raw(fnid) = self.heap.read(addr + 1) else {
                        return Err(Trap::WrongType("corrupt closure".into()));
                    };
                    Ok((fnid as u32, w))
                }
                other => Err(Trap::WrongType(format!("not a function: {other}"))),
            },
        }
    }

    // ---- instruction semantics ----

    /// Executes `insn` of function `fnid`, whose code is `code`; `pc`
    /// already points past it.  The instruction is borrowed from `code`,
    /// never copied: only `Dispatch` holds data that is not `Copy`.
    /// Inlined into the fetch loop of [`Machine::execute`], its only
    /// caller.
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn step(
        &mut self,
        insn: &Insn,
        fnid: u32,
        code: &Arc<FuncCode>,
        pc: &mut usize,
    ) -> Result<Step, Trap> {
        match *insn {
            Insn::Mov { dst, src } => {
                self.stats.moves += 1;
                let w = self.read(src)?;
                self.write(dst, w)?;
                Ok(Step::Next)
            }
            Insn::Movp { tag, dst, src } => {
                self.stats.moves += 1;
                let addr = self.addr_of(src)?;
                if tag == Tag::SingleFlonum && addr >= STACK_BASE {
                    self.stats.pdl_numbers += 1;
                }
                self.write(dst, Word::Ptr(tag, addr))?;
                Ok(Step::Next)
            }
            Insn::Int { op, dst, a, b } => self.int_op(dst, a, b, op.prim()),
            Insn::Neg { dst, src } => {
                let (n, tagged) = self.read_int(src)?;
                let Some(r) = n.checked_neg() else {
                    return Err(Trap::WrongType("-: fixnum overflow".into()));
                };
                self.write(
                    dst,
                    if tagged {
                        Word::fixnum(r)
                    } else {
                        Word::Raw(r)
                    },
                )?;
                Ok(Step::Next)
            }
            Insn::Float { op, dst, a, b } => {
                let x = self.read_float(a)?;
                let y = self.read_float(b)?;
                self.write(dst, Word::F(op.apply(x, y)))?;
                Ok(Step::Next)
            }
            Insn::FloatUn { op, dst, src } => {
                let x = self.read_float(src)?;
                self.write(dst, Word::F(op.apply(x)))?;
                Ok(Step::Next)
            }
            Insn::FloatIt { dst, src } => {
                let (n, _) = self.read_int(src)?;
                self.write(dst, Word::F(n as f64))?;
                Ok(Step::Next)
            }
            Insn::FixIt { dst, src } => {
                let x = self.read_float(src)?;
                self.write(dst, Word::Raw(x as i64))?;
                Ok(Step::Next)
            }
            Insn::Jmp { target } => Ok(Step::Jump(target)),
            Insn::JmpIf {
                cond,
                prim,
                a,
                b,
                target,
            } => {
                let integers = (self.peek(&a).and_then(|w| w.as_integer()))
                    .zip(self.peek(&b).and_then(|w| w.as_integer()));
                let taken = match integers {
                    Some((x, y)) => cond.holds(x.cmp(&y)),
                    None => self.compare(fnid, cond, prim, a, b)?,
                };
                Ok(if taken {
                    Step::Jump(target)
                } else {
                    Step::Next
                })
            }
            Insn::JmpNil { src, target } => {
                let w = self.read(src)?;
                Ok(if w.is_true() {
                    Step::Next
                } else {
                    Step::Jump(target)
                })
            }
            Insn::JmpNotNil { src, target } => {
                let w = self.read(src)?;
                Ok(if w.is_true() {
                    Step::Jump(target)
                } else {
                    Step::Next
                })
            }
            Insn::JmpTag { tag, src, target } => {
                let w = self.read(src)?;
                Ok(if w.tag() == Some(tag) {
                    Step::Jump(target)
                } else {
                    Step::Next
                })
            }
            Insn::JmpEq { a, b, target } => {
                let (x, y) = (self.read(a)?, self.read(b)?);
                Ok(if self.same(&x, &y, Prim::Eq) {
                    Step::Jump(target)
                } else {
                    Step::Next
                })
            }
            Insn::Dispatch { src, ref targets } => {
                let (n, _) = self.read_int(src)?;
                let Some(&t) = targets.get(n as usize) else {
                    return Err(Trap::WrongNumberOfArguments(format!(
                        "dispatch index {n} out of range"
                    )));
                };
                Ok(Step::Jump(t))
            }
            Insn::Push { src } => {
                let w = self.read(src)?;
                self.push(w)?;
                Ok(Step::Next)
            }
            Insn::Pop { dst } => {
                let w = self.pop()?;
                self.write(dst, w)?;
                Ok(Step::Next)
            }
            Insn::AllocSlots { n, init } => {
                for _ in 0..n {
                    self.push(init)?;
                }
                Ok(Step::Next)
            }
            Insn::FreeSlots { n } => {
                if self.sp < n as usize {
                    return Err(Trap::StackOverflow);
                }
                self.sp -= n as usize;
                Ok(Step::Next)
            }
            Insn::Call { f, nargs } => {
                let target = self.callee(f)?;
                Ok(Step::Call {
                    target,
                    nargs: nargs as usize,
                    tail: false,
                })
            }
            Insn::TailCall { f, nargs } => {
                let target = self.callee(f)?;
                Ok(Step::Call {
                    target,
                    nargs: nargs as usize,
                    tail: true,
                })
            }
            Insn::TailJmp { nargs, target } => Ok(Step::TailJmp {
                nargs: nargs as usize,
                target,
            }),
            Insn::Ret => Ok(Step::Ret),
            Insn::Trap { msg } => {
                if msg.contains("argument") {
                    Err(Trap::WrongNumberOfArguments(msg.to_string()))
                } else {
                    Err(Trap::Explicit(msg))
                }
            }
            Insn::ConsRt { dst, car, cdr } => {
                let (a, d) = (self.read(car)?, self.read(cdr)?);
                let addr = self.alloc(2, ObjKind::Cons)?;
                self.heap.write(addr, a);
                self.heap.write(addr + 1, d);
                self.write(dst, Word::Ptr(Tag::Cons, addr))?;
                Ok(Step::Next)
            }
            Insn::Car { dst, src } => {
                let w = self.read(src)?;
                let v = lists::cxr(self, Prim::Car, &w)?;
                self.write(dst, v)?;
                Ok(Step::Next)
            }
            Insn::Cdr { dst, src } => {
                let w = self.read(src)?;
                let v = lists::cxr(self, Prim::Cdr, &w)?;
                self.write(dst, v)?;
                Ok(Step::Next)
            }
            Insn::BoxFlo { dst, src } => {
                let x = self.read_float(src)?;
                let addr = self.alloc(1, ObjKind::Flonum)?;
                self.heap.write(addr, Word::F(x));
                self.write(dst, Word::Ptr(Tag::SingleFlonum, addr))?;
                Ok(Step::Next)
            }
            Insn::UnboxFlo { dst, src } => {
                let w = self.read(src)?;
                let x = runtime::strict_float_of(self, w)?;
                self.write(dst, Word::F(x))?;
                Ok(Step::Next)
            }
            Insn::Certify { dst, src } => {
                let w = self.read(src)?;
                let safe = if w.is_safe() {
                    self.stats.certify_safe += 1;
                    w
                } else {
                    self.stats.certify_copies += 1;
                    match w {
                        Word::Ptr(Tag::SingleFlonum, addr) => {
                            let v = self.read_mem(addr)?;
                            let heap_addr = self.alloc(1, ObjKind::Flonum)?;
                            self.heap.write(heap_addr, v);
                            Word::Ptr(Tag::SingleFlonum, heap_addr)
                        }
                        other => return Err(Trap::WrongType(format!("cannot certify {other}"))),
                    }
                };
                self.write(dst, safe)?;
                Ok(Step::Next)
            }
            Insn::MakeCell { dst, src } => {
                let w = self.read(src)?;
                let addr = self.alloc(1, ObjKind::Cell)?;
                self.heap.write(addr, w);
                self.write(dst, Word::Ptr(Tag::Cell, addr))?;
                Ok(Step::Next)
            }
            Insn::LoadCell { dst, cell } => {
                let w = self.read(cell)?;
                let Word::Ptr(Tag::Cell, addr) = w else {
                    return Err(Trap::WrongType(format!("not a cell: {w}")));
                };
                let v = self.read_mem(addr)?;
                if addr >= SPECIAL_BASE {
                    self.stats.special_cached += 1;
                }
                self.write(dst, v)?;
                Ok(Step::Next)
            }
            Insn::StoreCell { cell, src } => {
                let w = self.read(cell)?;
                let v = self.read(src)?;
                let Word::Ptr(Tag::Cell, addr) = w else {
                    return Err(Trap::WrongType(format!("not a cell: {w}")));
                };
                if addr >= SPECIAL_BASE {
                    self.stats.special_cached += 1;
                }
                self.write_mem(addr, v)?;
                Ok(Step::Next)
            }
            Insn::MakeClosure { dst, fnid, ncells } => {
                let n = ncells as usize;
                let addr = self.alloc(n + 2, ObjKind::Closure)?;
                self.heap.write(addr, Word::Raw((n + 2) as i64));
                self.heap.write(addr + 1, Word::Raw(i64::from(fnid)));
                for i in (0..n).rev() {
                    let w = self.pop()?;
                    self.heap.write(addr + 2 + i as u64, w);
                }
                self.stats.closures_made += 1;
                self.write(dst, Word::Ptr(Tag::Closure, addr))?;
                Ok(Step::Next)
            }
            Insn::LoadEnv { dst, index } => {
                let env = self.regs[Reg::EV.0 as usize];
                let Word::Ptr(Tag::Closure, addr) = env else {
                    return Err(Trap::WrongType("no closure environment".into()));
                };
                let w = self.heap.read(addr + 2 + u64::from(index));
                self.write(dst, w)?;
                Ok(Step::Next)
            }
            Insn::SpecBind { sym, src } => {
                let w = self.read(src)?;
                self.specials.push((sym, w));
                Ok(Step::Next)
            }
            Insn::SpecUnbind { n } => {
                let len = self.specials.len().saturating_sub(n as usize);
                self.specials.truncate(len);
                Ok(Step::Next)
            }
            Insn::SpecLookup { dst, sym } => {
                let cell = self.spec_search(sym)?;
                self.write(dst, cell)?;
                Ok(Step::Next)
            }
            Insn::SpecRead { dst, sym } => {
                let cell = self.spec_search(sym)?;
                let Word::Ptr(Tag::Cell, addr) = cell else {
                    unreachable!()
                };
                let v = self.read_mem(addr)?;
                self.write(dst, v)?;
                Ok(Step::Next)
            }
            Insn::SpecWrite { sym, src } => {
                let v = self.read(src)?;
                let cell = self.spec_search(sym)?;
                let Word::Ptr(Tag::Cell, addr) = cell else {
                    unreachable!()
                };
                self.write_mem(addr, v)?;
                Ok(Step::Next)
            }
            Insn::Generic { prim, dst, a, b } => {
                let fast = match (self.peek(&a), b.as_ref().map(|b| self.peek(b))) {
                    (Some(&x), None) => runtime::fixnum_fast(prim, &[x]),
                    (Some(&x), Some(Some(&y))) => runtime::fixnum_fast(prim, &[x, y]),
                    _ => None,
                };
                match fast {
                    Some(w) => {
                        self.write(dst, w)?;
                        Ok(Step::Next)
                    }
                    None => self.generic(fnid, prim, dst, a, b),
                }
            }
            Insn::RtCall { prim, nargs, dst } => {
                self.charge_rt_call(fnid, nargs.into());
                let result = self.rt_call_popped(prim, nargs as usize)?;
                match result {
                    runtime::RtResult::Value(w) => {
                        self.write(dst, w)?;
                        Ok(Step::Next)
                    }
                    runtime::RtResult::Throw { tag, value } => Ok(Step::ThrowTo { tag, value }),
                }
            }
            Insn::PushCatch { tag, target } => {
                let tag = self.read(tag)?;
                let resume = code.labels[target as usize];
                self.catches.push(CatchFrame {
                    tag,
                    fnid,
                    resume,
                    sp: self.sp,
                    fp: self.fp,
                    ev: self.regs[Reg::EV.0 as usize],
                    ctrl_len: self.ctrl.len(),
                    spec_len: self.specials.len(),
                });
                Ok(Step::Next)
            }
            Insn::PopCatch => {
                self.catches.pop();
                Ok(Step::Next)
            }
            Insn::Throw { tag, value } => {
                let tag = self.read(tag)?;
                let value = self.read(value)?;
                Ok(Step::ThrowTo { tag, value })
            }
            Insn::LoadFunction { dst, fnid } => {
                self.write(dst, Word::Ptr(Tag::Function, u64::from(fnid)))?;
                Ok(Step::Next)
            }
            Insn::ListifyArgs { fixed } => {
                let fixed = usize::from(fixed);
                let have = self.sp - self.fp;
                let extra: Vec<Word> = if have > fixed {
                    self.stack[self.fp + fixed..self.sp].to_vec()
                } else {
                    Vec::new()
                };
                let list = self.list(&extra, Word::NIL)?;
                self.sp = self.fp + fixed;
                self.push(list)?;
                Ok(Step::Next)
            }
            Insn::LoadConst { dst, idx } => {
                let w = self.constant(idx)?;
                self.write(dst, w)?;
                Ok(Step::Next)
            }
            Insn::PushConst { idx } => {
                let w = self.constant(idx)?;
                self.push(w)?;
                Ok(Step::Next)
            }
            Insn::LocalCall { target } => {
                self.ctrl.push(Frame {
                    ret_fn: fnid,
                    ret_pc: *pc,
                    saved_fp: self.fp,
                    saved_ev: self.regs[Reg::EV.0 as usize],
                });
                if self.ctrl.len() > self.stats.max_call_depth {
                    self.stats.max_call_depth = self.ctrl.len();
                }
                if self.ctrl.len() > 1 << 16 {
                    return Err(Trap::StackOverflow);
                }
                if let Some(p) = self.profile.as_deref_mut() {
                    p.stack_push(fnid);
                }
                *pc = code.labels[target as usize];
                Ok(Step::Next)
            }
            Insn::LocalRet => Ok(Step::LocalRet),
            Insn::Apply { f, list } => {
                let fv = self.read(f)?;
                let items = lists::items(self, Prim::Apply, &self.read(list)?)?;
                for &w in &items {
                    self.push(w)?;
                }
                Ok(Step::Call {
                    target: Callee::Word(fv),
                    nargs: items.len(),
                    tail: false,
                })
            }
        }
    }

    fn callee(&mut self, f: CallTarget) -> Result<Callee, Trap> {
        Ok(match f {
            CallTarget::Func(id) => Callee::Func(id),
            CallTarget::Value(op) => Callee::Word(self.read(op)?),
        })
    }

    // ---- operand access ----

    #[inline]
    fn reg_value(&self, r: Reg) -> Word {
        match r {
            Reg::SP => Word::Raw((STACK_BASE + self.sp as u64) as i64),
            Reg::FP => Word::Raw((STACK_BASE + self.fp as u64) as i64),
            Reg::TP => Word::Raw((STACK_BASE + self.fp as u64) as i64),
            _ => self.regs[r.0 as usize],
        }
    }

    /// The memory address an `Ind`/`Idx` operand designates.
    pub(crate) fn addr_of(&self, op: Operand) -> Result<u64, Trap> {
        match op {
            Operand::Ind(base, off) => {
                let b = self.base_addr(base)?;
                Ok(b.wrapping_add_signed(i64::from(off)))
            }
            Operand::Idx {
                base,
                off,
                idx,
                shift,
            } => {
                let b = self.base_addr(base)?;
                let i = match self.reg_value(idx) {
                    Word::Raw(n) => n,
                    Word::Ptr(Tag::Fixnum, n) => n as i64,
                    other => return Err(Trap::WrongType(format!("bad index register: {other}"))),
                };
                Ok(b.wrapping_add_signed(i64::from(off))
                    .wrapping_add_signed(i << shift))
            }
            Operand::IdxMem {
                base,
                off,
                idx_base,
                idx_off,
                shift,
            } => {
                let ib = self.base_addr(idx_base)?;
                let iw = self.read_mem(ib.wrapping_add_signed(i64::from(idx_off)))?;
                let i = match iw {
                    Word::Raw(n) => n,
                    Word::Ptr(Tag::Fixnum, n) => n as i64,
                    other => return Err(Trap::WrongType(format!("bad memory index: {other}"))),
                };
                let b = self.base_addr(base)?;
                Ok(b.wrapping_add_signed(i64::from(off))
                    .wrapping_add_signed(i << shift))
            }
            _ => Err(Trap::WrongType("operand has no address".into())),
        }
    }

    fn base_addr(&self, r: Reg) -> Result<u64, Trap> {
        match r {
            Reg::SP => Ok(STACK_BASE + self.sp as u64),
            Reg::FP => Ok(STACK_BASE + self.fp as u64),
            Reg::TP => Ok(STACK_BASE + self.fp as u64),
            _ => match self.regs[r.0 as usize] {
                Word::Raw(n) => Ok(n as u64),
                Word::Ptr(t, addr) if t.is_reference() => Ok(addr),
                other => Err(Trap::WrongType(format!("bad base register: {other}"))),
            },
        }
    }

    /// The stack index of frame slot `off` (an `(FP off)` or `(TP off)`
    /// operand), if it lies within the stack's current length.
    #[inline(always)]
    fn frame_slot(&self, off: i32) -> Option<usize> {
        let i = self.fp.checked_add_signed(off as isize)?;
        (i < self.stack.len()).then_some(i)
    }

    /// Reads an operand: the word [`Machine::peek`] sees in line, or,
    /// past it, out of line through [`Machine::read_other`].
    #[inline(always)]
    pub(crate) fn read(&self, op: Operand) -> Result<Word, Trap> {
        match self.peek(&op) {
            Some(&w) => Ok(w),
            None => self.read_other(op),
        }
    }

    /// The word an operand read in line holds: a general register, a
    /// constant, or a frame slot within the stack's length.  `None` for
    /// every other operand, which [`Machine::read`] reaches out of line.
    /// The dispatch loop's fast paths read through this, never building
    /// a `Result`.  A reference, so that the word is copied whole: an
    /// `Option<Word>` makes the compiler move it field by field.
    #[inline(always)]
    fn peek<'a>(&'a self, op: &'a Operand) -> Option<&'a Word> {
        match op {
            Operand::Reg(r) if !matches!(*r, Reg::SP | Reg::FP | Reg::TP) => {
                Some(&self.regs[r.0 as usize])
            }
            Operand::Const(w) => Some(w),
            Operand::Ind(Reg::FP | Reg::TP, off) => self.frame_slot(*off).map(|i| &self.stack[i]),
            _ => None,
        }
    }

    /// Every operand [`Machine::peek`] leaves: the SP, FP and TP
    /// registers, addressed operands, and frame slots past the stack's
    /// length.
    #[inline(never)]
    fn read_other(&self, op: Operand) -> Result<Word, Trap> {
        match op {
            Operand::Reg(r) => Ok(self.reg_value(r)),
            _ => self.read_mem(self.addr_of(op)?),
        }
    }

    /// Writes an operand: a general register or a frame slot within the
    /// stack's length in line, everything else (the stack registers and
    /// constants, which trap, and other addressed operands) through
    /// [`Machine::write_other`].
    #[inline(always)]
    pub(crate) fn write(&mut self, op: Operand, w: Word) -> Result<(), Trap> {
        match op {
            Operand::Reg(r) if !matches!(r, Reg::SP | Reg::FP | Reg::TP) => {
                self.regs[r.0 as usize] = w;
                Ok(())
            }
            Operand::Ind(Reg::FP | Reg::TP, off) => match self.frame_slot(off) {
                Some(i) => {
                    self.stack[i] = w;
                    Ok(())
                }
                None => self.write_other(op, w),
            },
            _ => self.write_other(op, w),
        }
    }

    #[inline(never)]
    fn write_other(&mut self, op: Operand, w: Word) -> Result<(), Trap> {
        match op {
            Operand::Reg(_) => Err(Trap::WrongType("cannot write stack registers".into())),
            Operand::Const(_) => Err(Trap::WrongType("cannot write a constant".into())),
            _ => {
                let addr = self.addr_of(op)?;
                self.write_mem(addr, w)
            }
        }
    }

    pub(crate) fn read_mem(&self, addr: u64) -> Result<Word, Trap> {
        if addr >= GLOBAL_BASE {
            let i = (addr - GLOBAL_BASE) as usize;
            return self
                .globals
                .get(i)
                .map(|&(_, w)| w)
                .ok_or_else(|| Trap::WrongType("bad global address".into()));
        }
        if addr >= SPECIAL_BASE {
            let i = (addr - SPECIAL_BASE) as usize;
            return self
                .specials
                .get(i)
                .map(|&(_, w)| w)
                .ok_or_else(|| Trap::WrongType("bad special address".into()));
        }
        if addr >= STACK_BASE {
            let i = (addr - STACK_BASE) as usize;
            // A `match`, not `ok_or`: an eagerly built trap is dropped on
            // every successful read.
            return match self.stack.get(i) {
                Some(&w) => Ok(w),
                None if i < self.stack_limit => Ok(Word::NIL),
                None => Err(Trap::StackOverflow),
            };
        }
        Ok(self.heap.read(addr))
    }

    pub(crate) fn write_mem(&mut self, addr: u64, w: Word) -> Result<(), Trap> {
        if addr >= GLOBAL_BASE {
            let i = (addr - GLOBAL_BASE) as usize;
            match self.globals.get_mut(i) {
                Some(slot) => {
                    slot.1 = w;
                    return Ok(());
                }
                None => return Err(Trap::WrongType("bad global address".into())),
            }
        }
        if addr >= SPECIAL_BASE {
            let i = (addr - SPECIAL_BASE) as usize;
            match self.specials.get_mut(i) {
                Some(slot) => {
                    slot.1 = w;
                    return Ok(());
                }
                None => return Err(Trap::WrongType("bad special address".into())),
            }
        }
        if addr >= STACK_BASE {
            let i = (addr - STACK_BASE) as usize;
            if i >= self.stack.len() {
                self.grow_stack(i)?;
            }
            self.stack[i] = w;
            return Ok(());
        }
        self.heap.write(addr, w);
        Ok(())
    }

    /// Moves the top `nargs` words (a tail call's freshly pushed
    /// arguments) down onto the frame base, discarding the old frame
    /// contents.
    fn slide_args_to_frame(&mut self, nargs: usize) {
        let from = self.sp - nargs;
        self.stack.copy_within(from..self.sp, self.fp);
        self.sp = self.fp + nargs;
    }

    /// Charges a runtime-routine call of `nargs` arguments.  A routine
    /// is a subroutine of many instructions on the real machine; it is
    /// charged an approximate open-coded length (entry/exit, dispatch,
    /// per-argument type checking) so instruction counts stay comparable
    /// with inline code.  `RtCall`, `GENERIC`'s slow path and a `JmpIf`
    /// on a boxed or non-number operand all pay this one price.
    fn charge_rt_call(&mut self, fnid: u32, nargs: u64) {
        let cost = RT_CALL_COST + 2 * nargs;
        self.stats.insns += cost;
        if let Some(p) = self.profile.as_deref_mut() {
            p.attribute(fnid, cost);
        }
    }

    /// Pops the top `n` words and calls the runtime routine for `prim`
    /// on them.  Fixnum operands of the primitives
    /// [`runtime::fixnum_fast`] open-codes are answered there, with
    /// exactly the word the routine would return; an overflow, any other
    /// operand and any other primitive reach the routine.  The caller
    /// has already charged the call's cost, so both ways retire the same
    /// count.  The routine takes `&mut self`, so its arguments are
    /// copied out of the stack first, into a fixed buffer on the host
    /// stack.
    fn rt_call_popped(&mut self, prim: Prim, n: usize) -> Result<runtime::RtResult, Trap> {
        self.sp -= n;
        let args = self.sp..self.sp + n;
        if let Some(w) = runtime::fixnum_fast(prim, &self.stack[args.clone()]) {
            return Ok(runtime::RtResult::Value(w));
        }
        if n <= RT_ARGS_INLINE {
            let mut buf = [Word::NIL; RT_ARGS_INLINE];
            buf[..n].copy_from_slice(&self.stack[args]);
            runtime::rt_call(self, prim, &buf[..n])
        } else {
            let spilled = self.stack[args].to_vec();
            runtime::rt_call(self, prim, &spilled)
        }
    }

    /// `GENERIC` past the dispatch loop's fast path, which answers
    /// fixnums in registers, constants and frame slots: fixnums elsewhere
    /// still retire as the one instruction; anything else runs the
    /// routine `RtCall` would, on the same arguments and at the same
    /// charge.
    #[inline(never)]
    fn generic(
        &mut self,
        fnid: u32,
        prim: Prim,
        dst: Operand,
        a: Operand,
        b: Option<Operand>,
    ) -> Result<Step, Trap> {
        let x = self.read(a)?;
        let (args, n) = match b {
            Some(b) => ([x, self.read(b)?], 2),
            None => ([x, Word::NIL], 1),
        };
        let w = match runtime::fixnum_fast(prim, &args[..n]) {
            Some(w) => w,
            None => {
                self.charge_rt_call(fnid, n as u64);
                match runtime::rt_call(self, prim, &args[..n])? {
                    runtime::RtResult::Value(w) => w,
                    runtime::RtResult::Throw { tag, value } => {
                        return Ok(Step::ThrowTo { tag, value })
                    }
                }
            }
        };
        self.write(dst, w)?;
        Ok(Step::Next)
    }

    /// Grows the data stack to hold slot `i`: doubling, never past the
    /// limit, where the slot traps instead.
    #[cold]
    fn grow_stack(&mut self, i: usize) -> Result<(), Trap> {
        if i >= self.stack_limit {
            return Err(Trap::StackOverflow);
        }
        let len = (i + 1).max(2 * self.stack.len()).min(self.stack_limit);
        self.stack.resize(len, Word::NIL);
        Ok(())
    }

    /// The word of constant `idx`, materialized in the heap on first use
    /// and shared after.
    fn constant(&mut self, idx: u32) -> Result<Word, Trap> {
        let i = idx as usize;
        if self.const_cache.len() <= i {
            self.const_cache.resize(i + 1, None);
        }
        if let Some(w) = self.const_cache[i] {
            return Ok(w);
        }
        let v = self
            .program
            .constants
            .get(i)
            .ok_or_else(|| Trap::WrongType("bad constant index".into()))?
            .to_value(&mut Interner::new());
        let w = self.inject(&v)?;
        self.const_cache[i] = Some(w);
        Ok(w)
    }

    fn push(&mut self, w: Word) -> Result<(), Trap> {
        if self.sp >= self.stack.len() {
            self.grow_stack(self.sp)?;
        }
        self.stack[self.sp] = w;
        self.sp += 1;
        if self.sp > self.stats.max_stack_words {
            self.stats.max_stack_words = self.sp;
        }
        Ok(())
    }

    fn pop(&mut self) -> Result<Word, Trap> {
        if self.sp == 0 {
            return Err(Trap::StackOverflow);
        }
        self.sp -= 1;
        Ok(self.stack[self.sp])
    }

    /// The deep-binding search (§4.4): innermost binding first, then the
    /// globals; an unbound global is created on first use so `setq` at
    /// top level works.
    fn spec_search(&mut self, sym: u32) -> Result<Word, Trap> {
        self.stats.special_searches += 1;
        if let Some(i) = self.specials.iter().rposition(|&(s, _)| s == sym) {
            return Ok(Word::Ptr(Tag::Cell, SPECIAL_BASE + i as u64));
        }
        if let Some(i) = self.globals.iter().position(|&(s, _)| s == sym) {
            return Ok(Word::Ptr(Tag::Cell, GLOBAL_BASE + i as u64));
        }
        self.globals.push((sym, Word::NIL));
        Ok(Word::Ptr(
            Tag::Cell,
            GLOBAL_BASE + (self.globals.len() - 1) as u64,
        ))
    }

    // ---- arithmetic helpers ----

    fn read_int(&mut self, op: Operand) -> Result<(i64, bool), Trap> {
        match self.read(op)? {
            Word::Raw(n) => Ok((n, false)),
            Word::Ptr(Tag::Fixnum, n) => Ok((n as i64, true)),
            other => Err(Trap::WrongType(format!("not an integer: {other}"))),
        }
    }

    fn read_float(&mut self, op: Operand) -> Result<f64, Trap> {
        match self.read(op)? {
            Word::F(x) => Ok(x),
            other => Err(Trap::WrongType(format!("not a raw float: {other}"))),
        }
    }

    /// An integer instruction computing the row `prim` of two fixnums
    /// through the shared `num::int_op`: a zero divisor traps as
    /// division by zero, and a result that does not fit as the routine
    /// for `prim` does on fixnum overflow.
    fn int_op(&mut self, dst: Operand, a: Operand, b: Operand, prim: Prim) -> Result<Step, Trap> {
        let (x, tx) = self.read_int(a)?;
        let (y, ty) = self.read_int(b)?;
        let r = match num::int_op(prim, x, y) {
            Ok(r) => r,
            Err(e) => return Err(int_trap(prim, e)),
        };
        let w = if tx || ty {
            Word::fixnum(r)
        } else {
            Word::Raw(r)
        };
        self.write(dst, w)?;
        Ok(Step::Next)
    }

    /// `JmpIf`'s test past the dispatch loop's fast path, which compares
    /// integers in registers, constants and frame slots.  Two unboxed
    /// numbers (fixnums, raw integers and raw floats, in any mix) are
    /// ordered in line by the shared `num::order`; a boxed flonum, a
    /// non-number or a NaN leaves that case for `runtime::num_compare`,
    /// charged as a two-argument routine, whose errors name the source
    /// row `prim`.
    #[inline(never)]
    fn compare(
        &mut self,
        fnid: u32,
        cond: Cond,
        prim: Prim,
        a: Operand,
        b: Operand,
    ) -> Result<bool, Trap> {
        let x = self.read(a)?;
        let y = self.read(b)?;
        let unboxed = |w: Word| match w {
            Word::F(f) => Some(Num::Flo(f)),
            _ => w.as_integer().map(Num::Int),
        };
        let ord = match unboxed(x)
            .zip(unboxed(y))
            .and_then(|(p, q)| num::order(p, q).ok())
        {
            Some(ord) => ord,
            None => {
                self.charge_rt_call(fnid, 2);
                runtime::num_compare(self, x, y, prim.name())?
            }
        };
        Ok(cond.holds(ord))
    }

    /// Heap allocation with collect-and-retry.  The heap keeps the
    /// allocation counters; [`Machine::run`] and [`Machine::inject`]
    /// mirror them into `stats.heap` when they return.
    #[inline]
    pub(crate) fn alloc(&mut self, size: usize, kind: ObjKind) -> Result<u64, Trap> {
        self.alloc_holding(size, kind, &[])
    }

    /// [`Machine::alloc`] for host code holding words no machine root
    /// reaches — a list under construction, the elements still to be
    /// consed onto it.  A collection the allocation triggers marks every
    /// `held` word; the fast path never looks at them.
    #[inline]
    pub(crate) fn alloc_holding(
        &mut self,
        size: usize,
        kind: ObjKind,
        held: &[&[Word]],
    ) -> Result<u64, Trap> {
        if let Some(a) = self.heap.try_alloc(size, kind) {
            return Ok(a);
        }
        self.collect_and_alloc(size, kind, held)
    }

    /// The slow path: collect, then retry once.
    #[cold]
    fn collect_and_alloc(
        &mut self,
        size: usize,
        kind: ObjKind,
        held: &[&[Word]],
    ) -> Result<u64, Trap> {
        let mut roots: Vec<Word> = Vec::with_capacity(self.sp + 64);
        roots.extend(held.iter().flat_map(|h| h.iter().copied()));
        roots.extend_from_slice(&self.regs);
        roots.extend_from_slice(&self.stack[..self.sp]);
        roots.extend(self.specials.iter().map(|&(_, w)| w));
        roots.extend(self.globals.iter().map(|&(_, w)| w));
        roots.extend(self.catches.iter().map(|c| c.tag));
        roots.extend(self.const_cache.iter().flatten().copied());
        self.heap.collect(&roots);
        self.heap.try_alloc(size, kind).ok_or(Trap::HeapExhausted)
    }

    // ---- host boundary ----

    /// Builds machine data from a host [`Value`] (allocating on the
    /// heap for structure).
    pub fn inject(&mut self, v: &Value) -> Result<Word, Trap> {
        let w = runtime::inject(self, v, &mut Vec::new());
        self.stats.heap = self.heap.allocs;
        w
    }

    /// Reads machine data back into a host [`Value`].
    pub fn extract(&self, w: Word) -> Result<Value, Trap> {
        runtime::extract(self, w)
    }
}

/// The trap of an integer instruction computing `prim`: a zero divisor
/// is a division by zero, an overflow raised as the routine for `prim`
/// raises it.  Out of line, so that the instructions' fast paths stay
/// small.
#[cold]
#[inline(never)]
fn int_trap(prim: Prim, e: NumError) -> Trap {
    match e {
        NumError::DivisionByZero => Trap::DivisionByZero,
        e => Trap::WrongType(e.message(prim.name(), |_| String::new())),
    }
}

/// What the execution loop should do after one instruction.
enum Step {
    Next,
    /// Return from a LocalCall (frame untouched).
    LocalRet,
    Jump(u32),
    Call {
        target: Callee,
        nargs: usize,
        tail: bool,
    },
    TailJmp {
        nargs: usize,
        target: u32,
    },
    Ret,
    ThrowTo {
        tag: Word,
        value: Word,
    },
}

/// A resolved call target.
enum Callee {
    Func(u32),
    Word(Word),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::{FloatOp, IntOp};
    use s1lisp_ast::Inline;

    fn fx(n: i64) -> Value {
        Value::Fixnum(n)
    }

    /// A read-back keeps the heap's sharing: `(cons x x)` comes back as
    /// one host cons in both fields, and a DAG of 64 such levels (2^64
    /// conses as a tree) comes back at once.  A long list reads back in
    /// constant host stack, and a circular one is still refused.
    #[test]
    fn extract_keeps_sharing_and_refuses_cycles() {
        let mut m = Machine::new(Program::new());
        let cons =
            |m: &mut Machine, a: Word, d: Word| match runtime::rt_call(m, Prim::Cons, &[a, d]) {
                Ok(runtime::RtResult::Value(w)) => w,
                _ => panic!("cons failed"),
            };
        let x = m.inject(&Value::list([fx(1), fx(2)])).unwrap();
        let pair = cons(&mut m, x, x);
        let v = m.extract(pair).unwrap();
        assert_eq!(v.to_string(), "((1 2) 1 2)");
        let Value::Cons(cell) = &v else { panic!("{v}") };
        let (Value::Cons(a), Value::Cons(d)) = (&*cell.car.borrow(), &*cell.cdr.borrow()) else {
            panic!("{v}")
        };
        assert!(std::rc::Rc::ptr_eq(a, d));

        let mut dag = x;
        for _ in 0..64 {
            dag = cons(&mut m, dag, dag);
        }
        assert!(matches!(m.extract(dag), Ok(Value::Cons(_))));

        // The cdr chain reads back in a loop: a 100 000-element list
        // fits a 2 MiB thread, and one element more, or a circular list,
        // meets the refusal 100 000 levels down.
        let mut long = Word::NIL;
        for k in (1..=100_000).rev() {
            long = cons(&mut m, Word::fixnum(k), long);
        }
        let longer = cons(&mut m, Word::fixnum(0), long);
        let last = lists::cxr(&m, Prim::Cdr, &x).unwrap();
        runtime::rt_call(&mut m, Prim::Rplacd, &[last, x]).unwrap();
        let m = &m;
        let on_small_stack = |w: Word| {
            std::thread::scope(|s| {
                std::thread::Builder::new()
                    .stack_size(2 << 20)
                    .spawn_scoped(s, move || m.extract(w).map(|v| v.to_string()))
                    .unwrap()
                    .join()
                    .unwrap()
            })
        };
        let text = on_small_stack(long).unwrap();
        assert!(text.starts_with("(1 2 3 ") && text.ends_with(" 99999 100000)"));
        for w in [longer, x] {
            let err = on_small_stack(w).unwrap_err().to_string();
            assert!(err.contains("too deep or circular"), "{err}");
        }
    }

    /// The cdr chain injects in a loop as it reads back: a 100 000-element
    /// list crosses into the machine and back on a 2 MiB thread.  The
    /// cars are built left to right and the conses from the tail, as a
    /// recursion on the cdr builds them.
    #[test]
    fn a_long_list_injects_on_a_small_stack() {
        let text = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut m = Machine::new(Program::new());
                let w = m.inject(&Value::list((1..=100_000).map(fx))).unwrap();
                m.extract(w).map(|v| v.to_string())
            })
            .unwrap()
            .join()
            .unwrap()
            .unwrap();
        assert!(text.starts_with("(1 2 3 ") && text.ends_with(" 99999 100000)"));

        let mut m = Machine::new(Program::new());
        let w = m
            .inject(&Value::list([Value::Flonum(1.5), Value::Flonum(2.5)]))
            .unwrap();
        let addr = |w: Word| match w {
            Word::Ptr(_, a) => a,
            other => panic!("{other}"),
        };
        let field = |p: Prim, w: Word| lists::cxr(&m, p, &w).unwrap();
        let (first, rest) = (field(Prim::Car, w), field(Prim::Cdr, w));
        let second = field(Prim::Car, rest);
        let order = [first, second, rest, w].map(addr);
        assert!(order.is_sorted(), "{order:?}");
        assert_eq!(m.stats.heap.words, 2 + 2 * 2, "{:?}", m.stats.heap);
    }

    /// ((1+ x)) hand-assembled.
    #[test]
    fn simple_add_function() {
        let mut asm = Asm::new("inc1", 1);
        asm.push(Insn::Int {
            op: IntOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::arg(0),
            b: Operand::fixnum(1),
        });
        asm.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg::RTA),
        });
        asm.push(Insn::Ret);
        let mut p = Program::new();
        p.define(asm.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run("inc1", &[fx(41)]).unwrap(), fx(42));
        assert!(m.stats.insns >= 2);
    }

    /// `last_run_insns` is the per-run delta, not the cumulative
    /// counter: identical repeated runs report identical counts even
    /// though `stats.insns` keeps accumulating.
    #[test]
    fn last_run_insns_is_a_per_run_delta() {
        let mut asm = Asm::new("inc1", 1);
        asm.push(Insn::Int {
            op: IntOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::arg(0),
            b: Operand::fixnum(1),
        });
        asm.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg::RTA),
        });
        asm.push(Insn::Ret);
        let mut p = Program::new();
        p.define(asm.finish());
        let mut m = Machine::new(p);
        m.run("inc1", &[fx(1)]).unwrap();
        let first = m.last_run_insns;
        assert!(first >= 2);
        assert_eq!(first, m.stats.insns);
        m.run("inc1", &[fx(2)]).unwrap();
        m.run("inc1", &[fx(3)]).unwrap();
        assert_eq!(m.last_run_insns, first);
        assert_eq!(m.stats.insns, 3 * first);
    }

    /// Calling between functions and returning values.
    #[test]
    fn call_and_return() {
        let mut p = Program::new();
        let double_id = p.fn_id("double");
        // double(x) = x + x
        let mut d = Asm::new("double", 1);
        d.push(Insn::Int {
            op: IntOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::arg(0),
            b: Operand::arg(0),
        });
        d.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg::RTA),
        });
        d.push(Insn::Ret);
        p.define(d.finish());
        // quad(x) = double(double(x))
        let mut q = Asm::new("quad", 1);
        q.push(Insn::Push {
            src: Operand::arg(0),
        });
        q.push(Insn::Call {
            f: CallTarget::Func(double_id),
            nargs: 1,
        });
        q.push(Insn::Push {
            src: Operand::Reg(Reg::A),
        });
        q.push(Insn::Call {
            f: CallTarget::Func(double_id),
            nargs: 1,
        });
        q.push(Insn::Ret);
        p.define(q.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run("quad", &[fx(3)]).unwrap(), fx(12));
        assert_eq!(m.stats.calls, 2);
    }

    /// A tail self-jump loop runs in constant stack (the compiled form of
    /// the paper's `exptl` claim).
    #[test]
    fn tail_jmp_loop_constant_stack() {
        // loop(n): if n == 0 return 'done'; else loop(n-1)
        let mut a = Asm::new("loopn", 1);
        let top = a.here();
        let done = a.label();
        a.push(Insn::JmpIf {
            cond: Cond::Eq,
            prim: Prim::Zerop,
            a: Operand::arg(0),
            b: Operand::fixnum(0),
            target: done,
        });
        a.push(Insn::Int {
            op: IntOp::Sub,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::arg(0),
            b: Operand::fixnum(1),
        });
        a.push(Insn::Push {
            src: Operand::Reg(Reg::RTA),
        });
        a.push(Insn::TailJmp {
            nargs: 1,
            target: top,
        });
        a.bind(done);
        a.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::fixnum(999),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run("loopn", &[fx(100_000)]).unwrap(), fx(999));
        assert_eq!(m.stats.max_call_depth, 0);
        assert!(m.stats.max_stack_words <= 4);
        assert_eq!(m.stats.tail_calls, 100_000);
    }

    /// Floating-point: unbox, arithmetic, box.
    #[test]
    fn float_box_unbox() {
        let mut a = Asm::new("fsq", 1);
        a.push(Insn::UnboxFlo {
            dst: Operand::Reg(Reg(9)),
            src: Operand::arg(0),
        });
        a.push(Insn::Float {
            op: FloatOp::Mult,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::Reg(Reg(9)),
            b: Operand::Reg(Reg(9)),
        });
        a.push(Insn::BoxFlo {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg::RTA),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        assert_eq!(
            m.run("fsq", &[Value::Flonum(1.5)]).unwrap(),
            Value::Flonum(2.25)
        );
        assert_eq!(m.stats.heap.flonums, 2); // argument injection + result box
    }

    /// Pdl-number path: stack allocation then certification copies.
    #[test]
    fn pdl_number_certification() {
        let mut a = Asm::new("pdl", 1);
        // temp slot at FP+1 (one past the single argument)
        a.push(Insn::AllocSlots {
            n: 1,
            init: Word::NIL,
        });
        a.push(Insn::UnboxFlo {
            dst: Operand::Reg(Reg(9)),
            src: Operand::arg(0),
        });
        a.push(Insn::Float {
            op: FloatOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::Reg(Reg(9)),
            b: Operand::float(1.0),
        });
        a.push(Insn::Mov {
            dst: Operand::arg(1),
            src: Operand::Reg(Reg::RTA),
        });
        // Make a pdl pointer to the stack slot.
        a.push(Insn::Movp {
            tag: Tag::SingleFlonum,
            dst: Operand::Reg(Reg(10)),
            src: Operand::arg(1),
        });
        // Returning it would be unsafe: certify first.
        a.push(Insn::Certify {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg(10)),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        assert_eq!(
            m.run("pdl", &[Value::Flonum(2.5)]).unwrap(),
            Value::Flonum(3.5)
        );
        assert_eq!(m.stats.pdl_numbers, 1);
        assert_eq!(m.stats.certify_copies, 1);
        assert_eq!(m.stats.certify_safe, 0);
    }

    /// Special variables deep-bind and unwind.
    #[test]
    fn special_binding() {
        let mut p = Program::new();
        let sym = p.sym_id("*depth*");
        // probe() = *depth*
        let mut probe = Asm::new("probe", 0);
        probe.push(Insn::SpecRead {
            dst: Operand::Reg(Reg::A),
            sym,
        });
        probe.push(Insn::Ret);
        p.define(probe.finish());
        let probe_id = p.lookup_fn("probe").unwrap();
        // outer(x): bind *depth* = x; probe(); unbind; return probe's value
        let mut outer = Asm::new("outer", 1);
        outer.push(Insn::SpecBind {
            sym,
            src: Operand::arg(0),
        });
        outer.push(Insn::Call {
            f: CallTarget::Func(probe_id),
            nargs: 0,
        });
        outer.push(Insn::SpecUnbind { n: 1 });
        outer.push(Insn::Ret);
        p.define(outer.finish());
        let mut m = Machine::new(p);
        m.set_global("*depth*", &fx(7)).unwrap();
        assert_eq!(m.run("outer", &[fx(42)]).unwrap(), fx(42));
        assert_eq!(m.run("probe", &[]).unwrap(), fx(7));
        assert!(m.stats.special_searches >= 2);
    }

    /// Catch and throw unwind the stack.
    #[test]
    fn catch_throw() {
        let mut p = Program::new();
        let tag = p.sym_id("out");
        let tag_word = Word::Ptr(Tag::Symbol, u64::from(tag));
        // thrower() = throw 'out 33
        let mut th = Asm::new("thrower", 0);
        th.push(Insn::Throw {
            tag: Operand::Const(tag_word),
            value: Operand::fixnum(33),
        });
        p.define(th.finish());
        let th_id = p.lookup_fn("thrower").unwrap();
        // catcher() = catch 'out (thrower(); 0)
        let mut c = Asm::new("catcher", 0);
        let landing = c.label();
        c.push(Insn::PushCatch {
            tag: Operand::Const(tag_word),
            target: landing,
        });
        c.push(Insn::Call {
            f: CallTarget::Func(th_id),
            nargs: 0,
        });
        c.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::fixnum(0),
        });
        c.push(Insn::PopCatch);
        c.bind(landing);
        c.push(Insn::Ret);
        p.define(c.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run("catcher", &[]).unwrap(), fx(33));
        // Uncaught throw traps.
        let err = m.run("thrower", &[]).unwrap_err();
        assert!(matches!(err.cause(), Trap::UncaughtThrow(_)));
    }

    /// Fuel prevents runaway loops.
    #[test]
    fn fuel_exhaustion() {
        let mut a = Asm::new("spin", 0);
        let top = a.here();
        a.push(Insn::Jmp { target: top });
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        m.fuel_per_run = 10_000;
        let err = m.run("spin", &[]).unwrap_err();
        assert_eq!(err.cause(), &Trap::FuelExhausted);
        assert_eq!(err.site(), Some(("spin", 0)));
    }

    /// Closures capture cells and can be called through values.
    #[test]
    fn closure_create_and_call() {
        let mut p = Program::new();
        // addn-body: closure body, arg at FP+0, captured cell in env 0.
        let mut body = Asm::new("addn-body", 1);
        body.push(Insn::LoadEnv {
            dst: Operand::Reg(Reg(9)),
            index: 0,
        });
        body.push(Insn::LoadCell {
            dst: Operand::Reg(Reg(10)),
            cell: Operand::Reg(Reg(9)),
        });
        body.push(Insn::Int {
            op: IntOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::arg(0),
            b: Operand::Reg(Reg(10)),
        });
        body.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg::RTA),
        });
        body.push(Insn::Ret);
        p.define(body.finish());
        let body_id = p.lookup_fn("addn-body").unwrap();
        // make-and-call(n, x): c = closure(addn-body, cell(n)); c(x)
        let mut mk = Asm::new("mk", 2);
        mk.push(Insn::MakeCell {
            dst: Operand::Reg(Reg(9)),
            src: Operand::arg(0),
        });
        mk.push(Insn::Push {
            src: Operand::Reg(Reg(9)),
        });
        mk.push(Insn::MakeClosure {
            dst: Operand::Reg(Reg(11)),
            fnid: body_id,
            ncells: 1,
        });
        mk.push(Insn::Push {
            src: Operand::arg(1),
        });
        mk.push(Insn::Call {
            f: CallTarget::Value(Operand::Reg(Reg(11))),
            nargs: 1,
        });
        mk.push(Insn::Ret);
        p.define(mk.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run("mk", &[fx(5), fx(10)]).unwrap(), fx(15));
        assert_eq!(m.stats.closures_made, 1);
    }

    /// A runtime call's outcome as text: the value it returns, or its
    /// trap's message.
    fn outcome(m: &Machine, r: Result<runtime::RtResult, Trap>) -> Result<String, String> {
        match r {
            Ok(runtime::RtResult::Value(w)) => m
                .extract(w)
                .map(|v| v.to_string())
                .map_err(|t| t.to_string()),
            Ok(runtime::RtResult::Throw { .. }) => Ok("throw".into()),
            Err(t) => Err(t.to_string()),
        }
    }

    /// The open-coded routines (the fixnum case of each generic and
    /// compare-and-branch row), the `GENERIC` instruction and
    /// `JmpIf`'s fixnum comparison answer exactly what the runtime
    /// answers, on fixnums at and past the edges, raw integers, flonums,
    /// mixed operands, and a symbol and a list (the same type trap);
    /// `GENERIC` charges a routine call exactly when it leaves the fixnum
    /// case, and `JmpIf` when an operand is boxed, not a number or NaN.
    #[test]
    fn open_coded_routines_match_the_runtime() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let mut m = Machine::new(Program::new());
        let mut names = Interner::new();
        let values = [
            fx(0),
            fx(1),
            fx(-1),
            fx(i64::MIN),
            fx(i64::MAX),
            Value::Flonum(1.5),
            Value::Flonum(-0.0),
            Value::Sym(names.intern("foo")),
            Value::list([fx(1), fx(2)]),
        ];
        let mut words: Vec<Word> = values.iter().map(|v| m.inject(v).unwrap()).collect();
        words.extend([Word::Raw(3), Word::Raw(i64::MIN)]);
        // The generic and compare-and-branch rows, on their in-line
        // operand counts.
        let mut operands: Vec<(Prim, Vec<Word>)> = Vec::new();
        for &prim in Prim::ALL {
            if !matches!(prim.info().inline, Inline::Generic | Inline::Compare) {
                continue;
            }
            for &a in &words {
                if prim.operands() == 1 {
                    operands.push((prim, vec![a]));
                } else {
                    operands.extend(words.iter().map(|&b| (prim, vec![a, b])));
                }
            }
        }
        let mut open = 0;
        for (prim, args) in operands {
            let slow = runtime::rt_call(&mut m, prim, &args);
            let slow = outcome(&m, slow);
            for &w in &args {
                m.push(w).unwrap();
            }
            let fast = m.rt_call_popped(prim, args.len());
            assert_eq!(outcome(&m, fast), slow, "{prim:?} {args:?}");
            if prim.info().inline == Inline::Generic {
                let before = m.stats.insns;
                let b = args.get(1).map(|&w| Operand::Const(w));
                let generic = m
                    .generic(0, prim, Operand::Reg(Reg::A), Operand::Const(args[0]), b)
                    .map(|_| runtime::RtResult::Value(m.regs[Reg::A.0 as usize]));
                assert_eq!(outcome(&m, generic), slow, "GENERIC {prim:?} {args:?}");
                let charged = m.stats.insns - before;
                match runtime::fixnum_fast(prim, &args) {
                    Some(_) => assert_eq!(charged, 0, "{prim:?} {args:?}"),
                    None => assert_eq!(charged, RT_CALL_COST + 2 * args.len() as u64),
                }
            }
            if args.iter().all(|w| w.as_integer().is_some()) {
                match runtime::fixnum_fast(prim, &args) {
                    Some(_) => open += 1,
                    None => assert!(
                        slow.as_ref().is_err_and(|e| e.contains("fixnum overflow")
                            || e.contains("overflow")
                            || e == "division by zero"),
                        "{prim:?} {args:?}: {slow:?}"
                    ),
                }
            }
        }
        // 7 integer words: 3 × 7 unary (`1+`, `1-`, `zerop`) and 10 × 49
        // binary calls (`+ - * /` and the six comparisons), less the 59
        // that overflow or divide by zero.
        assert_eq!(
            open,
            3 * 7 + 10 * 49 - 59,
            "all-integer calls answered in line"
        );
        // Raw floats meet `JmpIf` only: no routine takes them.
        words.extend([Word::F(2.5), Word::F(-0.0), Word::F(f64::NAN)]);
        for cond in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            for &a in &words {
                for &b in &words {
                    let before = m.stats.insns;
                    let fast =
                        m.compare(0, cond, cond.prim(), Operand::Const(a), Operand::Const(b));
                    let charged = m.stats.insns - before;
                    let slow =
                        runtime::num_compare(&m, a, b, cond.prim().name()).map(|o| match cond {
                            Cond::Eq => o == Equal,
                            Cond::Ne => o != Equal,
                            Cond::Lt => o == Less,
                            Cond::Le => o != Greater,
                            Cond::Gt => o == Greater,
                            Cond::Ge => o != Less,
                        });
                    assert_eq!(fast, slow, "{cond:?} {a} {b}");
                    let unboxed = |w: Word| w.as_integer().is_some() || w.as_float().is_some();
                    let in_line = unboxed(a) && unboxed(b) && slow.is_ok();
                    assert_eq!(charged, if in_line { 0 } else { RT_CALL_COST + 4 });
                }
            }
        }
    }
}

#[cfg(test)]
mod new_insn_tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::{CallTarget, Cond, FloatOp, IntOp};

    fn fx(n: i64) -> Value {
        Value::Fixnum(n)
    }

    #[test]
    fn listify_args_builds_rest_lists() {
        // f(a, ...rest) → rest list length.
        let mut a = Asm::new("f", 2);
        a.push(Insn::ListifyArgs { fixed: 1 });
        a.push(Insn::Push {
            src: Operand::arg(1),
        });
        a.push(Insn::RtCall {
            prim: Prim::Length,
            nargs: 1,
            dst: Operand::Reg(Reg::A),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run("f", &[fx(0)]).unwrap(), fx(0));
        assert_eq!(m.run("f", &[fx(0), fx(1), fx(2), fx(3)]).unwrap(), fx(3));
    }

    #[test]
    fn load_const_materializes_once() {
        let mut p = Program::new();
        let list = s1lisp_reader::read_str("(1 2)", &mut Interner::new()).unwrap();
        let idx = p.const_id(s1lisp_interp::Const::from_datum(&list));
        let mut a = Asm::new("k", 0);
        a.push(Insn::LoadConst {
            dst: Operand::Reg(Reg::A),
            idx,
        });
        a.push(Insn::Ret);
        p.define(a.finish());
        let mut m = Machine::new(p);
        let v1 = m.run("k", &[]).unwrap();
        let conses = m.stats.heap.conses;
        let v2 = m.run("k", &[]).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(m.stats.heap.conses, conses, "constant is cached");
    }

    #[test]
    fn local_call_shares_the_frame() {
        // f(x): block computes x+1 into A via LocalCall; f returns A+10.
        let mut a = Asm::new("f", 1);
        let block = a.label();
        a.push(Insn::LocalCall { target: block });
        a.push(Insn::Int {
            op: IntOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::Reg(Reg::A),
            b: Operand::fixnum(10),
        });
        a.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg::RTA),
        });
        a.push(Insn::Ret);
        a.bind(block);
        a.push(Insn::Int {
            op: IntOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::arg(0), // same frame: sees f's argument
            b: Operand::fixnum(1),
        });
        a.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg::RTA),
        });
        a.push(Insn::LocalRet);
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run("f", &[fx(5)]).unwrap(), fx(16));
    }

    #[test]
    fn apply_spreads_lists_and_calls_builtin_values() {
        // g(f, l) = apply(f, l), where f may be a builtin function value.
        let mut a = Asm::new("g", 2);
        a.push(Insn::Apply {
            f: Operand::arg(0),
            list: Operand::arg(1),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        let plus = p.fn_id("+");
        p.define(a.finish());
        let mut m = Machine::new(p);
        let f = Word::Ptr(Tag::Function, u64::from(plus));
        let fval = m.extract(f).unwrap();
        let l = Value::list([fx(1), fx(2), fx(3)]);
        assert_eq!(m.run("g", &[fval, l]).unwrap(), fx(6));
    }

    #[test]
    fn dispatch_out_of_range_traps() {
        let mut a = Asm::new("d", 1);
        let only = a.label();
        a.push(Insn::Dispatch {
            src: Operand::arg(0),
            targets: vec![only],
        });
        a.bind(only);
        a.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::fixnum(7),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run("d", &[fx(0)]).unwrap(), fx(7));
        let err = m.run("d", &[fx(3)]).unwrap_err();
        assert!(matches!(err.cause(), Trap::WrongNumberOfArguments(_)));
    }

    #[test]
    fn spec_write_updates_innermost_binding() {
        let mut p = Program::new();
        let sym = p.sym_id("*v*");
        let mut a = Asm::new("f", 1);
        a.push(Insn::SpecBind {
            sym,
            src: Operand::arg(0),
        });
        a.push(Insn::SpecWrite {
            sym,
            src: Operand::fixnum(99),
        });
        a.push(Insn::SpecRead {
            dst: Operand::Reg(Reg::A),
            sym,
        });
        a.push(Insn::SpecUnbind { n: 1 });
        a.push(Insn::Ret);
        p.define(a.finish());
        let mut m = Machine::new(p);
        m.set_global("*v*", &fx(1)).unwrap();
        assert_eq!(m.run("f", &[fx(5)]).unwrap(), fx(99));
        // The global is untouched: the write hit the binding.
        assert_eq!(m.global("*v*").unwrap().unwrap(), fx(1));
    }

    #[test]
    fn idx_and_idxmem_address_heap_blocks() {
        let mut a = Asm::new("f", 2); // args: index, slot-index
                                      // R16 = base (set by the test); read base[idx] via register index
                                      // and base[mem[fp+1]] via memory index; sum them.
        a.push(Insn::Mov {
            dst: Operand::Reg(Reg(9)),
            src: Operand::arg(0),
        });
        a.push(Insn::Float {
            op: FloatOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::Idx {
                base: Reg(16),
                off: 0,
                idx: Reg(9),
                shift: 0,
            },
            b: Operand::IdxMem {
                base: Reg(16),
                off: 0,
                idx_base: Reg::FP,
                idx_off: 1,
                shift: 0,
            },
        });
        a.push(Insn::BoxFlo {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg::RTA),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        let base = m.heap.try_alloc(4, crate::heap::ObjKind::Block).unwrap();
        for i in 0..4 {
            m.heap.write(base + i, Word::F(10.0 * (i as f64 + 1.0)));
        }
        m.regs[16] = Word::Raw(base as i64);
        // base[1] + base[3] = 20 + 40.
        let v = m.run("f", &[fx(1), fx(3)]).unwrap();
        assert_eq!(v, Value::Flonum(60.0));
    }

    #[test]
    fn tail_call_reuses_frame_across_functions() {
        let mut p = Program::new();
        let g_id = p.fn_id("g");
        // f(x): tail-call g(x+1).
        let mut f = Asm::new("f", 1);
        f.push(Insn::Int {
            op: IntOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::arg(0),
            b: Operand::fixnum(1),
        });
        f.push(Insn::Push {
            src: Operand::Reg(Reg::RTA),
        });
        f.push(Insn::TailCall {
            f: CallTarget::Func(g_id),
            nargs: 1,
        });
        p.define(f.finish());
        // g(x): x * 2.
        let mut g = Asm::new("g", 1);
        g.push(Insn::Int {
            op: IntOp::Mult,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::arg(0),
            b: Operand::fixnum(2),
        });
        g.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg::RTA),
        });
        g.push(Insn::Ret);
        p.define(g.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run("f", &[fx(20)]).unwrap(), fx(42));
        assert_eq!(m.stats.max_call_depth, 0);
        assert_eq!(m.stats.tail_calls, 1);
        // Condition codes: exercise every comparison.
        for (cond, a, b, expect) in [
            (Cond::Lt, 1, 2, true),
            (Cond::Le, 2, 2, true),
            (Cond::Gt, 2, 1, true),
            (Cond::Ge, 1, 2, false),
            (Cond::Ne, 1, 1, false),
            (Cond::Eq, 3, 3, true),
        ] {
            let mut t = Asm::new("c", 2);
            let yes = t.label();
            t.push(Insn::JmpIf {
                cond,
                prim: cond.prim(),
                a: Operand::arg(0),
                b: Operand::arg(1),
                target: yes,
            });
            t.push(Insn::Mov {
                dst: Operand::Reg(Reg::A),
                src: Operand::nil(),
            });
            t.push(Insn::Ret);
            t.bind(yes);
            t.push(Insn::Mov {
                dst: Operand::Reg(Reg::A),
                src: Operand::Const(Word::T),
            });
            t.push(Insn::Ret);
            let mut p = Program::new();
            p.define(t.finish());
            let mut m = Machine::new(p);
            let v = m.run("c", &[fx(a), fx(b)]).unwrap();
            assert_eq!(v.is_true(), expect, "{cond:?} {a} {b}");
        }
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use crate::asm::Asm;

    #[test]
    fn data_stack_overflow_is_a_clean_trap() {
        // Push forever on a tiny stack.
        let mut a = Asm::new("pusher", 0);
        let top = a.here();
        a.push(Insn::Push {
            src: Operand::fixnum(1),
        });
        a.push(Insn::Jmp { target: top });
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::with_sizes(p, 64, 1 << 12);
        let err = m.run("pusher", &[]).unwrap_err();
        assert_eq!(err.cause(), &Trap::StackOverflow);
    }

    #[test]
    fn moves_are_counted_separately() {
        let mut a = Asm::new("mover", 0);
        for _ in 0..5 {
            a.push(Insn::Mov {
                dst: Operand::Reg(Reg(9)),
                src: Operand::fixnum(1),
            });
        }
        a.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::Reg(Reg(9)),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        m.run("mover", &[]).unwrap();
        assert_eq!(m.stats.moves, 6);
        assert_eq!(m.stats.insns, 7);
    }

    #[test]
    fn writes_to_stack_registers_trap() {
        let mut a = Asm::new("bad", 0);
        a.push(Insn::Mov {
            dst: Operand::Reg(Reg::SP),
            src: Operand::fixnum(0),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        p.define(a.finish());
        let mut m = Machine::new(p);
        let err = m.run("bad", &[]).unwrap_err();
        assert!(matches!(err.cause(), Trap::WrongType(_)));
    }
}
