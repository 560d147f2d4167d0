//! The execution engine.
//!
//! A fetch–execute loop over [`Insn`]s, with the frame discipline the
//! compiled code relies on: arguments at `FP+0 … FP+n-1`, temporaries
//! above them, the return value in register A, tail calls reusing the
//! current frame (§2's "parameter-passing goto").

use std::rc::Rc;

use s1lisp_interp::Value;

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
/// dispatch — see `Insn::RtCall` handling).
pub(crate) const RT_CALL_COST: u64 = 8;

/// Base address of special-binding value slots.
pub(crate) const SPECIAL_BASE: u64 = 1 << 50;
/// Base address of global value slots.
pub(crate) const GLOBAL_BASE: u64 = 1 << 51;

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
    /// The loaded program.
    pub program: Program,
    /// The register file.
    pub regs: [Word; 32],
    stack: Vec<Word>,
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
    pub fn new(program: Program) -> Machine {
        Machine::with_sizes(program, 1 << 16, 1 << 20)
    }

    /// A machine with explicit stack/heap sizes in words.
    pub fn with_sizes(program: Program, stack_words: usize, heap_words: usize) -> Machine {
        Machine {
            program,
            regs: [Word::NIL; 32],
            stack: vec![Word::NIL; stack_words],
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
        let sym = self.program.sym_id(name);
        match self.globals.iter_mut().find(|(s, _)| *s == sym) {
            Some(slot) => slot.1 = w,
            None => self.globals.push((sym, w)),
        }
        Ok(())
    }

    /// Reads the global value of a special variable.
    pub fn global(&self, name: &str) -> Option<Result<Value, Trap>> {
        let sym = self.program.lookup_fn(name); // placeholder to silence
        let _ = sym;
        let id = self.program.symbols.iter().position(|s| s == name)? as u32;
        let w = self.globals.iter().find(|(s, _)| *s == id)?.1;
        Some(self.extract(w))
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
        mut code: Rc<FuncCode>,
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
            let insn = insn.clone();
            if let Some(p) = self.profile.as_deref_mut() {
                p.retire(fnid, pc, insn.opcode());
            }
            pc += 1;
            match self.step(insn, &code, &mut pc)? {
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
                            // runtime as a leaf call.
                            let rt_name = self.program.names().resolve(new_fn).into_owned();
                            let args: Vec<Word> = self.stack[self.sp - nargs..self.sp].to_vec();
                            self.sp -= nargs;
                            match runtime::rt_call_owned(self, &rt_name, &args)? {
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
                        // Move the freshly pushed args down onto the frame
                        // base, discarding the old frame contents.
                        let args: Vec<Word> = self.stack[self.sp - nargs..self.sp].to_vec();
                        self.sp = self.fp;
                        for w in args {
                            self.push(w)?;
                        }
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
                    let args: Vec<Word> = self.stack[self.sp - nargs..self.sp].to_vec();
                    self.sp = self.fp;
                    for w in args {
                        self.push(w)?;
                    }
                    self.regs[Reg::RTA.0 as usize] = Word::Raw(nargs as i64);
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
                        .rposition(|c| runtime::word_eql(self, c.tag, tag))
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
            if self.sp > self.stats.max_stack_words {
                self.stats.max_stack_words = self.sp;
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

    #[allow(clippy::too_many_lines)]
    fn step(&mut self, insn: Insn, code: &Rc<FuncCode>, pc: &mut usize) -> Result<Step, Trap> {
        let _ = pc;
        let _ = code;
        match insn {
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
            Insn::Add { dst, a, b } => self.int_op(dst, a, b, i64::checked_add),
            Insn::Sub { dst, a, b } => self.int_op(dst, a, b, i64::checked_sub),
            Insn::Mult { dst, a, b } => self.int_op(dst, a, b, i64::checked_mul),
            Insn::Div { dst, a, b } => {
                self.int_op(
                    dst,
                    a,
                    b,
                    |x, y| {
                        if y == 0 {
                            None
                        } else {
                            x.checked_div(y)
                        }
                    },
                )
            }
            Insn::DivFloor { dst, a, b } => {
                self.int_op(
                    dst,
                    a,
                    b,
                    |x, y| {
                        if y == 0 {
                            None
                        } else {
                            Some(x.div_euclid(y))
                        }
                    },
                )
            }
            Insn::Rem { dst, a, b } => {
                self.int_op(dst, a, b, |x, y| if y == 0 { None } else { Some(x % y) })
            }
            Insn::ModFloor { dst, a, b } => {
                self.int_op(
                    dst,
                    a,
                    b,
                    |x, y| {
                        if y == 0 {
                            None
                        } else {
                            Some(x.rem_euclid(y))
                        }
                    },
                )
            }
            Insn::Neg { dst, src } => {
                let (n, tagged) = self.read_int(src)?;
                let r = n.checked_neg().ok_or(Trap::DivisionByZero)?;
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
            Insn::FAdd { dst, a, b } => self.flo_op(dst, a, b, |x, y| x + y),
            Insn::FSub { dst, a, b } => self.flo_op(dst, a, b, |x, y| x - y),
            Insn::FMult { dst, a, b } => self.flo_op(dst, a, b, |x, y| x * y),
            Insn::FDiv { dst, a, b } => self.flo_op(dst, a, b, |x, y| x / y),
            Insn::FMax { dst, a, b } => self.flo_op(dst, a, b, f64::max),
            Insn::FMin { dst, a, b } => self.flo_op(dst, a, b, f64::min),
            Insn::FNeg { dst, src } => self.flo_un(dst, src, |x| -x),
            Insn::FSin { dst, src } => self.flo_un(dst, src, |x| (x * std::f64::consts::TAU).sin()),
            Insn::FCos { dst, src } => self.flo_un(dst, src, |x| (x * std::f64::consts::TAU).cos()),
            Insn::FSqrt { dst, src } => self.flo_un(dst, src, f64::sqrt),
            Insn::FAtan { dst, src } => self.flo_un(dst, src, f64::atan),
            Insn::FExp { dst, src } => self.flo_un(dst, src, f64::exp),
            Insn::FLog { dst, src } => self.flo_un(dst, src, f64::ln),
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
            Insn::JmpIf { cond, a, b, target } => {
                let taken = self.compare(cond, a, b)?;
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
                Ok(if runtime::word_eq(x, y) {
                    Step::Jump(target)
                } else {
                    Step::Next
                })
            }
            Insn::Dispatch { src, targets } => {
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
                let v = runtime::car(self, w)?;
                self.write(dst, v)?;
                Ok(Step::Next)
            }
            Insn::Cdr { dst, src } => {
                let w = self.read(src)?;
                let v = runtime::cdr(self, w)?;
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
            Insn::RtCall { name, nargs, dst } => {
                // A runtime routine is a subroutine of many instructions
                // on the real machine; charge an approximate open-coded
                // length (entry/exit, dispatch, per-argument type
                // checking) so instruction counts stay comparable with
                // inline code.
                self.stats.insns += RT_CALL_COST + 2 * u64::from(nargs);
                if self.profile.is_some() {
                    let fnid = self.current_fnid(code);
                    if let Some(p) = self.profile.as_deref_mut() {
                        p.attribute(fnid, RT_CALL_COST + 2 * u64::from(nargs));
                    }
                }
                let n = nargs as usize;
                let args: Vec<Word> = self.stack[self.sp - n..self.sp].to_vec();
                self.sp -= n;
                let result = runtime::rt_call(self, name, &args)?;
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
                let fnid = self.current_fnid(code);
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
                let mut list = Word::NIL;
                for &w in extra.iter().rev() {
                    // The unconsed words are still on the stack; the
                    // list built so far is not.
                    let addr = self.alloc_holding(2, ObjKind::Cons, &[&[list]])?;
                    self.heap.write(addr, w);
                    self.heap.write(addr + 1, list);
                    list = Word::Ptr(Tag::Cons, addr);
                }
                self.sp = self.fp + fixed;
                self.push(list)?;
                Ok(Step::Next)
            }
            Insn::LoadConst { dst, idx } => {
                let i = idx as usize;
                if self.const_cache.len() <= i {
                    self.const_cache.resize(i + 1, None);
                }
                let w = match self.const_cache[i] {
                    Some(w) => w,
                    None => {
                        let v = self
                            .program
                            .constants
                            .get(i)
                            .cloned()
                            .ok_or_else(|| Trap::WrongType("bad constant index".into()))?;
                        let w = self.inject(&v)?;
                        self.const_cache[i] = Some(w);
                        w
                    }
                };
                self.write(dst, w)?;
                Ok(Step::Next)
            }
            Insn::LocalCall { target } => {
                let fnid = self.current_fnid(code);
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
                let mut cur = self.read(list)?;
                let mut n = 0usize;
                loop {
                    match cur {
                        Word::Ptr(Tag::Nil, _) => break,
                        Word::Ptr(Tag::Cons, addr) => {
                            let head = self.read_mem(addr)?;
                            self.push(head)?;
                            n += 1;
                            cur = self.read_mem(addr + 1)?;
                        }
                        other => {
                            return Err(Trap::WrongType(format!(
                                "apply: improper argument list ending in {other}"
                            )))
                        }
                    }
                }
                Ok(Step::Call {
                    target: Callee::Word(fv),
                    nargs: n,
                    tail: false,
                })
            }
        }
    }

    fn current_fnid(&mut self, code: &Rc<FuncCode>) -> u32 {
        self.program.fn_id(&code.name)
    }

    fn callee(&mut self, f: CallTarget) -> Result<Callee, Trap> {
        Ok(match f {
            CallTarget::Func(id) => Callee::Func(id),
            CallTarget::Value(op) => Callee::Word(self.read(op)?),
        })
    }

    // ---- operand access ----

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

    pub(crate) fn read(&mut self, op: Operand) -> Result<Word, Trap> {
        match op {
            Operand::Reg(r) => Ok(self.reg_value(r)),
            Operand::Const(w) => Ok(w),
            _ => {
                let addr = self.addr_of(op)?;
                self.read_mem(addr)
            }
        }
    }

    pub(crate) fn write(&mut self, op: Operand, w: Word) -> Result<(), Trap> {
        match op {
            Operand::Reg(r) => {
                if matches!(r, Reg::SP | Reg::FP | Reg::TP) {
                    return Err(Trap::WrongType("cannot write stack registers".into()));
                }
                self.regs[r.0 as usize] = w;
                Ok(())
            }
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
            return self.stack.get(i).copied().ok_or(Trap::StackOverflow);
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
            match self.stack.get_mut(i) {
                Some(slot) => {
                    *slot = w;
                    return Ok(());
                }
                None => return Err(Trap::StackOverflow),
            }
        }
        self.heap.write(addr, w);
        Ok(())
    }

    fn push(&mut self, w: Word) -> Result<(), Trap> {
        if self.sp >= self.stack.len() {
            return Err(Trap::StackOverflow);
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

    fn int_op(
        &mut self,
        dst: Operand,
        a: Operand,
        b: Operand,
        f: fn(i64, i64) -> Option<i64>,
    ) -> Result<Step, Trap> {
        let (x, tx) = self.read_int(a)?;
        let (y, ty) = self.read_int(b)?;
        let r = f(x, y).ok_or(Trap::DivisionByZero)?;
        let w = if tx || ty {
            Word::fixnum(r)
        } else {
            Word::Raw(r)
        };
        self.write(dst, w)?;
        Ok(Step::Next)
    }

    fn flo_op(
        &mut self,
        dst: Operand,
        a: Operand,
        b: Operand,
        f: fn(f64, f64) -> f64,
    ) -> Result<Step, Trap> {
        let x = self.read_float(a)?;
        let y = self.read_float(b)?;
        self.write(dst, Word::F(f(x, y)))?;
        Ok(Step::Next)
    }

    fn flo_un(&mut self, dst: Operand, src: Operand, f: fn(f64) -> f64) -> Result<Step, Trap> {
        let x = self.read_float(src)?;
        self.write(dst, Word::F(f(x)))?;
        Ok(Step::Next)
    }

    fn compare(&mut self, cond: Cond, a: Operand, b: Operand) -> Result<bool, Trap> {
        let x = self.read(a)?;
        let y = self.read(b)?;
        let ord = runtime::num_compare(self, x, y)?;
        Ok(match cond {
            Cond::Eq => ord == std::cmp::Ordering::Equal,
            Cond::Ne => ord != std::cmp::Ordering::Equal,
            Cond::Lt => ord == std::cmp::Ordering::Less,
            Cond::Le => ord != std::cmp::Ordering::Greater,
            Cond::Gt => ord == std::cmp::Ordering::Greater,
            Cond::Ge => ord != std::cmp::Ordering::Less,
        })
    }

    /// Heap allocation with collect-and-retry.
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
            self.stats.heap = self.heap.allocs;
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
        let a = self.heap.try_alloc(size, kind).ok_or(Trap::HeapExhausted)?;
        self.stats.heap = self.heap.allocs;
        Ok(a)
    }

    // ---- host boundary ----

    /// Builds machine data from a host [`Value`] (allocating on the
    /// heap for structure).
    pub fn inject(&mut self, v: &Value) -> Result<Word, Trap> {
        runtime::inject(self, v, &mut Vec::new())
    }

    /// Reads machine data back into a host [`Value`].
    pub fn extract(&self, w: Word) -> Result<Value, Trap> {
        runtime::extract(self, w, 0)
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

    fn fx(n: i64) -> Value {
        Value::Fixnum(n)
    }

    /// ((1+ x)) hand-assembled.
    #[test]
    fn simple_add_function() {
        let mut asm = Asm::new("inc1", 1);
        asm.push(Insn::Add {
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
        asm.push(Insn::Add {
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
        d.push(Insn::Add {
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
            a: Operand::arg(0),
            b: Operand::fixnum(0),
            target: done,
        });
        a.push(Insn::Sub {
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
        a.push(Insn::FMult {
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
        a.push(Insn::FAdd {
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
        body.push(Insn::Add {
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
}

#[cfg(test)]
mod new_insn_tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::{CallTarget, Cond};

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
            name: "length",
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
        let idx = p.const_id(Value::list([fx(1), fx(2)]));
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
        a.push(Insn::Add {
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
        a.push(Insn::Add {
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
        a.push(Insn::FAdd {
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
        f.push(Insn::Add {
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
        g.push(Insn::Mult {
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
