//! The stack-frame bytecode evaluator.
//!
//! An explicit frame stack (no host recursion), a shared operand
//! stack, one shared slot stack holding every frame's slots, a
//! deep-binding special stack, and a `catch`-handler stack.
//! Primitives are *not* reimplemented: a global that names a row of the
//! primitive table ([`Prim`]) dispatches on its number through
//! [`s1lisp_interp::call_builtin`], so both backends share one reference
//! definition of `+`, `car`, `+$f`, and friends.  Only `throw` and
//! `apply`, which unwind and spread frames, run here.  A call of a row
//! that [`open_coded`] answers — as the row's in-line class says: a
//! numeric row's fixnum case (`num::fixnum`), a negation, `eq` or
//! `cons` — is answered on the operand stack first; it must return
//! exactly what the builtin would and leaves every other operand, an
//! overflow included, to it.
//!
//! The `prim` op and the compare-and-branch ops (`test.nil`, `test.t`)
//! carry their row, and read each operand where its [`Addr`] says —
//! popped from the operand stack, or in place from a frame slot or the
//! linked constant pool ([`State::operand`]) — and answer through
//! [`open_coded`] too ([`State::prim`]).  On any other operand,
//! [`State::slow`] pushes the addressed ones among those on the stack
//! and sends them all to [`State::builtin`] under the row, as the S-1's
//! `GENERIC` does, so their values and trap messages are the call's.  A
//! self tail call reuses its frame ([`State::reenter`]).
//!
//! [`Evaluator::new`] links the module once, as the S-1 loader resolves
//! call targets and special cells ahead of time: every constant-pool
//! entry of every proto gets a linked [`Entry`] — the constant
//! materialised as a value (structured constants shared module-wide,
//! so a quoted list is one object, as an S-1 heap constant is), and,
//! for a symbol, its resolved callee and its special-variable number.
//! The dispatch loop then calls, loads constants and reads specials
//! without allocating, formatting or hashing a name.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use s1lisp_ast::num::{self, Answer, Num};
use s1lisp_ast::{Inline, Prim};
use s1lisp_interp::{call_builtin, Const, Function, Value};
use s1lisp_reader::{Interner, Symbol};

use crate::{Addr, FuncProto, Insn, Module, Op, Operand};

/// A runtime trap: wrong arity, undefined function, uncaught throw,
/// fuel exhaustion, …  The cross-backend oracle treats any trap on
/// both sides as agreement (messages are backend-specific).
#[derive(Clone, Debug)]
pub struct BcTrap {
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for BcTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for BcTrap {}

fn trap<T>(message: impl Into<String>) -> Result<T, BcTrap> {
    Err(BcTrap {
        message: message.into(),
    })
}

/// Runtime value: either a plain interpreter [`Value`], a heap value
/// cell (closure-shared storage), or a bytecode closure.
#[derive(Clone, Debug)]
enum BcValue {
    V(Value),
    Cell(Rc<RefCell<BcValue>>),
    Closure(Rc<BcClosure>),
}

#[derive(Debug)]
struct BcClosure {
    proto: usize,
    captures: Vec<Rc<RefCell<BcValue>>>,
    name: String,
}

impl BcValue {
    fn nil() -> BcValue {
        BcValue::V(Value::Nil)
    }

    fn is_true(&self) -> bool {
        match self {
            BcValue::V(v) => v.is_true(),
            _ => true,
        }
    }

    fn eql(&self, other: &BcValue) -> bool {
        match (self, other) {
            (BcValue::V(a), BcValue::V(b)) => a.eql_p(b),
            (BcValue::Closure(a), BcValue::Closure(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Converts for the builtin boundary (and for final results).
    /// Closures degrade to a named function value — they keep working
    /// through `funcall`/`apply` by name lookup, which is all the
    /// dialect's builtins ever do with them.
    fn into_value(self) -> Result<Value, BcTrap> {
        match self {
            BcValue::V(v) => Ok(v),
            BcValue::Closure(c) => Ok(Value::Func(Function::Global(c.name.clone()))),
            BcValue::Cell(_) => trap("value cell escaped onto the data path"),
        }
    }
}

/// What a global name calls, resolved once.
#[derive(Clone, Copy, Debug)]
enum Callee {
    /// A primitive: `throw` and `apply` run in the evaluator, every
    /// other row in the shared builtins.
    Prim(Prim),
    /// The latest module proto of that name.
    Proto(usize),
    /// Neither: traps `undefined function …` at the call, so defining a
    /// function that names a missing global is not an error.
    Undefined,
}

/// Resolves a global function name: the primitive table first, then the
/// module's latest definition.
fn resolve(module: &Module, name: &str) -> Callee {
    match Prim::from_name(name) {
        Some(p) => Callee::Prim(p),
        None => module.lookup(name).map_or(Callee::Undefined, Callee::Proto),
    }
}

/// One constant-pool entry, linked.
struct Entry {
    /// The constant as a value, materialised once; every `Const` of it
    /// pushes this same object.
    value: BcValue,
    /// Set for a symbol entry.
    name: Option<Name>,
}

/// What a symbol constant names, as a callee and as a special.
struct Name {
    sym: Symbol,
    callee: Callee,
    special: usize,
}

impl Entry {
    fn name(&self) -> Result<&Name, BcTrap> {
        match &self.name {
            Some(n) => Ok(n),
            None => trap("name operand is not a symbol constant"),
        }
    }
}

/// A proto with its linked constant pool.
struct Linked {
    proto: Arc<FuncProto>,
    entries: Vec<Entry>,
}

/// Special variables by number: the link step and
/// [`Evaluator::set_global`] intern names into one id space, and each
/// id has one global value slot.
#[derive(Default)]
struct Specials {
    ids: HashMap<String, usize>,
    globals: Vec<Option<Value>>,
}

impl Specials {
    fn id(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.globals.len();
        self.ids.insert(name.to_string(), id);
        self.globals.push(None);
        id
    }
}

/// The linked, read-only side of an evaluator.
struct Image {
    module: Module,
    protos: Vec<Linked>,
    t: Symbol,
}

impl Image {
    /// Links every proto's constant pool.  Conses and strings are shared
    /// across the module by printed form, as the S-1 program's constant
    /// and string tables share them.
    fn link(module: Module, specials: &mut Specials) -> Image {
        let mut names = Interner::new();
        let mut shared: HashMap<String, BcValue> = HashMap::new();
        let mut protos = Vec::with_capacity(module.len());
        for ix in 0..module.len() {
            let proto = Arc::clone(module.proto(ix));
            let entries = proto
                .consts
                .iter()
                .map(|k| Entry {
                    value: match k {
                        Const::Cons(_) | Const::Str(_) => shared
                            .entry(k.to_string())
                            .or_insert_with(|| BcValue::V(k.to_value(&mut names)))
                            .clone(),
                        _ => BcValue::V(k.to_value(&mut names)),
                    },
                    name: match k {
                        Const::Sym(s) => Some(Name {
                            sym: names.intern(s),
                            callee: resolve(&module, s),
                            special: specials.id(s),
                        }),
                        _ => None,
                    },
                })
                .collect();
            protos.push(Linked { proto, entries });
        }
        Image {
            module,
            protos,
            t: names.intern("t"),
        }
    }

    fn bool_value(&self, b: bool) -> BcValue {
        if b {
            BcValue::V(Value::Sym(self.t.clone()))
        } else {
            BcValue::nil()
        }
    }

    fn builtin(&self, p: Prim, args: &[Value]) -> Result<Value, BcTrap> {
        call_builtin(p, args, &self.t).or_else(|e| trap(e.to_string()))
    }
}

/// What an open-coded row answers: a value, or the truth a test
/// branches on without making `t`.
enum Open {
    Value(BcValue),
    Truth(bool),
}

impl Open {
    fn into_value(self, image: &Image) -> BcValue {
        match self {
            Open::Value(v) => v,
            Open::Truth(b) => image.bool_value(b),
        }
    }
}

/// The open-coded rows, as each row says: a numeric row's fixnum case
/// (`num::fixnum`), a negation of a plain value, and `eq` and `cons` of
/// two.  Each answers exactly what [`call_builtin`] answers for the same
/// operands: `None` (an overflow, a flonum, a cell or closure operand, a
/// row or count without such a case) leaves the call to it.
#[inline(always)]
fn open_coded(p: Prim, args: &[&BcValue]) -> Option<Open> {
    use BcValue::V;
    let fixnum = match *args {
        [V(Value::Fixnum(x))] => num::fixnum(p, &[*x]),
        [V(Value::Fixnum(x)), V(Value::Fixnum(y))] => num::fixnum(p, &[*x, *y]),
        _ => None,
    };
    match fixnum {
        Some(Answer::Num(Num::Int(n))) => return Some(Open::Value(V(Value::Fixnum(n)))),
        Some(Answer::Bool(b)) => return Some(Open::Truth(b)),
        _ => {}
    }
    Some(match (p.info().inline, args) {
        (Inline::Negate, [V(v)]) => Open::Truth(!v.is_true()),
        (Inline::Eq, [V(x), V(y)]) => Open::Truth(x.eq_p(y)),
        (Inline::Cons, [V(a), V(d)]) => Open::Value(V(Value::cons(a.clone(), d.clone()))),
        _ => return None,
    })
}

/// How many of the first `argc` operands of `insn` are on the stack.
#[inline(always)]
fn popped(insn: Insn, argc: usize) -> usize {
    [insn.x(), insn.y()][..argc]
        .iter()
        .filter(|a| a.is_stack())
        .count()
}

struct Frame {
    /// Index of the running proto.
    proto: usize,
    pc: usize,
    /// Operand-stack height at frame entry (crop targets are relative
    /// to this).
    base: usize,
    /// Where this frame's slots start on the slot stack.
    slots: usize,
    closure: Option<Rc<BcClosure>>,
    argc: usize,
    specials_base: usize,
    handlers_base: usize,
}

struct Handler {
    tag: BcValue,
    pc: usize,
    frame_ix: usize,
    stack_h: usize,
    slots_h: usize,
    specials_h: usize,
}

/// Runs [`Module`] code under a fuel budget.
pub struct Evaluator {
    image: Image,
    specials: Specials,
    st: State,
    /// Instruction budget per [`Evaluator::run`] call; exhaustion is a
    /// trap (the bytecode analog of the simulator's fuel).
    pub fuel_per_run: u64,
    /// Instructions retired by the most recent `run`.
    pub last_run_insns: u64,
}

impl Evaluator {
    /// An evaluator over `module` (linked here, once) with the default
    /// fuel budget.
    pub fn new(module: Module) -> Evaluator {
        let mut specials = Specials::default();
        let image = Image::link(module, &mut specials);
        Evaluator {
            image,
            specials,
            st: State::default(),
            fuel_per_run: 100_000_000,
            last_run_insns: 0,
        }
    }

    /// The module being run.
    pub fn module(&self) -> &Module {
        &self.image.module
    }

    /// Sets a global variable (special values read fall back here, as
    /// with the simulator's global table).
    pub fn set_global(&mut self, name: &str, value: Value) {
        let id = self.specials.id(name);
        self.specials.globals[id] = Some(value);
    }

    /// Calls `entry` with `args`, returning its value or a trap.
    pub fn run(&mut self, entry: &str, args: &[Value]) -> Result<Value, BcTrap> {
        let Some(ix) = self.image.module.lookup(entry) else {
            return trap(format!("undefined function {entry}"));
        };
        let st = &mut self.st;
        st.clear();
        st.stack.extend(args.iter().map(|v| BcValue::V(v.clone())));
        let mut fuel = self.fuel_per_run;
        let out = match st.enter(&self.image, ix, args.len(), 0, None) {
            Ok(()) => st.exec(&self.image, &mut self.specials, &mut fuel),
            Err(t) => Err(t),
        };
        self.last_run_insns = self.fuel_per_run - fuel;
        st.clear();
        out
    }
}

/// The running frame's code, linked pool and bases, cached out of the
/// frame stack and reloaded after every call, return and throw.
struct Cursor<'a> {
    proto: usize,
    code: &'a [Insn],
    entries: &'a [Entry],
    pc: usize,
    slots: usize,
    base: usize,
}

impl<'a> Cursor<'a> {
    fn load(image: &'a Image, st: &State) -> Cursor<'a> {
        let f = st.frames.last().expect("live frame");
        let linked = &image.protos[f.proto];
        Cursor {
            proto: f.proto,
            code: &linked.proto.code,
            entries: &linked.entries,
            pc: f.pc,
            slots: f.slots,
            base: f.base,
        }
    }
}

/// Per-run machine state, kept between runs so its buffers are reused.
#[derive(Default)]
struct State {
    stack: Vec<BcValue>,
    slots: Vec<BcValue>,
    frames: Vec<Frame>,
    handlers: Vec<Handler>,
    specials: Vec<(usize, BcValue)>,
    /// Scratch argument vector for builtin calls.
    argv: Vec<Value>,
}

impl State {
    fn clear(&mut self) {
        self.stack.clear();
        self.slots.clear();
        self.frames.clear();
        self.handlers.clear();
        self.specials.clear();
        self.argv.clear();
    }

    /// Runs until the entry frame returns or a trap, spending `fuel`.
    /// Inlined into its one caller, [`Evaluator::run`], so the counter
    /// stays a local the loop can keep in a register.
    #[inline(always)]
    #[allow(clippy::too_many_lines)]
    fn exec(
        &mut self,
        image: &Image,
        specials: &mut Specials,
        fuel: &mut u64,
    ) -> Result<Value, BcTrap> {
        let mut cur = Cursor::load(image, self);
        loop {
            if *fuel == 0 {
                return trap("fuel exhausted");
            }
            *fuel -= 1;
            let Some(&insn) = cur.code.get(cur.pc) else {
                return trap("pc ran off the end of the code");
            };
            cur.pc += 1;
            let (a, b) = (insn.a as usize, insn.b as usize);
            match insn.op {
                Op::Const => self.stack.push(cur.entries[a].value.clone()),
                Op::Nil => self.stack.push(BcValue::nil()),
                Op::Dup => {
                    let v = self.top()?.clone();
                    self.stack.push(v);
                }
                Op::Pop => {
                    self.pop()?;
                }
                Op::Load => {
                    let v = self.slots[cur.slots + a].clone();
                    self.stack.push(v);
                }
                Op::Store => {
                    let v = self.pop()?;
                    self.slots[cur.slots + a] = v;
                }
                Op::LoadCell => match &self.slots[cur.slots + a] {
                    BcValue::Cell(c) => {
                        let v = c.borrow().clone();
                        self.stack.push(v);
                    }
                    _ => return trap("load through a non-cell slot"),
                },
                Op::StoreCell => {
                    let v = self.pop()?;
                    match &self.slots[cur.slots + a] {
                        BcValue::Cell(c) => *c.borrow_mut() = v,
                        _ => return trap("store through a non-cell slot"),
                    }
                }
                Op::NewCell => {
                    let slot = &mut self.slots[cur.slots + a];
                    let old = std::mem::replace(slot, BcValue::nil());
                    *slot = BcValue::Cell(Rc::new(RefCell::new(old)));
                }
                Op::PushCellSlot => match &self.slots[cur.slots + a] {
                    BcValue::Cell(c) => {
                        let c = c.clone();
                        self.stack.push(BcValue::Cell(c));
                    }
                    _ => return trap("capture of a non-cell slot"),
                },
                Op::LoadCapture => {
                    let v = self.captures()[a].borrow().clone();
                    self.stack.push(v);
                }
                Op::StoreCapture => {
                    let v = self.pop()?;
                    *self.captures()[a].borrow_mut() = v;
                }
                Op::PushCellCapture => {
                    let c = self.captures()[a].clone();
                    self.stack.push(BcValue::Cell(c));
                }
                Op::BoxTop => {
                    let v = self.pop()?;
                    self.stack.push(BcValue::Cell(Rc::new(RefCell::new(v))));
                }
                Op::LoadSpecial => {
                    let name = cur.entries[a].name()?;
                    let id = name.special;
                    let v = match self.specials.iter().rev().find(|(n, _)| *n == id) {
                        Some((_, v)) => v.clone(),
                        None => match &specials.globals[id] {
                            Some(v) => BcValue::V(v.clone()),
                            None => return trap(format!("unbound variable {}", name.sym)),
                        },
                    };
                    self.stack.push(v);
                }
                Op::StoreSpecial => {
                    let id = cur.entries[a].name()?.special;
                    let v = self.pop()?;
                    match self.specials.iter_mut().rev().find(|(n, _)| *n == id) {
                        Some(slot) => slot.1 = v,
                        None => specials.globals[id] = Some(v.into_value()?),
                    }
                }
                Op::BindSpecial => {
                    let id = cur.entries[a].name()?.special;
                    let v = self.pop()?;
                    self.specials.push((id, v));
                }
                Op::Unbind => {
                    let n = self.specials.len().saturating_sub(a);
                    self.specials.truncate(n);
                }
                Op::Jump => cur.pc = a,
                Op::JumpIfNil => {
                    if !self.pop()?.is_true() {
                        cur.pc = a;
                    }
                }
                Op::JumpIfTrue => {
                    if self.pop()?.is_true() {
                        cur.pc = a;
                    }
                }
                Op::ArgSup => {
                    if self.frames.last().expect("live frame").argc > a {
                        cur.pc = b;
                    }
                }
                Op::Call | Op::TailCall => {
                    let name = cur.entries[a].name()?;
                    self.need(b)?;
                    let tail = insn.op == Op::TailCall;
                    match name.callee {
                        Callee::Prim(p) if !tail && !matches!(p, Prim::Throw | Prim::Apply) => {
                            // Leaves the frame as it is: no cursor reload.
                            let v = self.builtin(image, p, b)?;
                            self.stack.push(v);
                            continue;
                        }
                        Callee::Proto(ix)
                            if tail
                                && ix == cur.proto
                                && self.reenter(&image.protos[ix].proto, b) =>
                        {
                            cur.pc = 0;
                            continue;
                        }
                        _ => {}
                    }
                    self.save(cur.pc);
                    if let Some(v) = self.call(image, name.callee, name.sym.as_str(), b, tail)? {
                        return Ok(v);
                    }
                    cur = Cursor::load(image, self);
                }
                Op::CallDyn => {
                    self.need(a + 1)?;
                    let callee = self.stack.remove(self.stack.len() - a - 1);
                    self.save(cur.pc);
                    let done = match callee {
                        BcValue::Closure(c) => {
                            let base = self.stack.len() - a;
                            self.enter(image, c.proto, a, base, Some(c))?;
                            None
                        }
                        BcValue::V(Value::Func(Function::Global(name))) => {
                            self.call(image, resolve(&image.module, &name), &name, a, false)?
                        }
                        other => {
                            return trap(format!("not a function: {}", other.into_value()?));
                        }
                    };
                    if let Some(v) = done {
                        return Ok(v);
                    }
                    cur = Cursor::load(image, self);
                }
                Op::MakeClosure => {
                    self.need(b)?;
                    let mut captures = Vec::with_capacity(b);
                    let from = self.stack.len() - b;
                    for c in self.stack.drain(from..) {
                        match c {
                            BcValue::Cell(rc) => captures.push(rc),
                            _ => return trap("closure capture is not a cell"),
                        }
                    }
                    let name = image.protos[a].proto.name.clone();
                    self.stack.push(BcValue::Closure(Rc::new(BcClosure {
                        proto: a,
                        captures,
                        name,
                    })));
                }
                Op::List => {
                    self.need(a)?;
                    let from = self.stack.len() - a;
                    let mut list = Value::Nil;
                    for v in self.stack.drain(from..).rev() {
                        list = Value::cons(v.into_value()?, list);
                    }
                    self.stack.push(BcValue::V(list));
                }
                Op::Eql => {
                    let y = self.pop()?;
                    let x = self.pop()?;
                    self.stack.push(image.bool_value(x.eql(&y)));
                }
                Op::Return => {
                    let v = self.pop()?;
                    if let Some(out) = self.settle(v)? {
                        return Ok(out);
                    }
                    cur = Cursor::load(image, self);
                }
                Op::Catch => {
                    let tag = self.pop()?;
                    self.handlers.push(Handler {
                        tag,
                        pc: a,
                        frame_ix: self.frames.len() - 1,
                        stack_h: self.stack.len(),
                        slots_h: self.slots.len(),
                        specials_h: self.specials.len(),
                    });
                }
                Op::EndCatch => {
                    if self.handlers.pop().is_none() {
                        return trap("end.catch without a handler");
                    }
                }
                Op::Uncatch => {
                    let n = self.handlers.len().saturating_sub(a);
                    self.handlers.truncate(n);
                }
                Op::Throw => {
                    let value = self.pop()?;
                    let tag = self.pop()?;
                    self.save(cur.pc);
                    self.throw(tag, value)?;
                    cur = Cursor::load(image, self);
                }
                Op::Crop => self.stack.truncate(cur.base + a),
                Op::CropKeep => {
                    let v = self.pop()?;
                    self.stack.truncate(cur.base + a);
                    self.stack.push(v);
                }
                Op::GlobalFn => {
                    let name = cur.entries[a].name()?.sym.as_str().to_string();
                    self.stack
                        .push(BcValue::V(Value::Func(Function::Global(name))));
                }
                Op::Prim => {
                    let v = self.prim(image, &cur, insn)?.into_value(image);
                    self.stack.push(v);
                }
                Op::TestNil | Op::TestTrue => {
                    let holds = match self.prim(image, &cur, insn)? {
                        Open::Truth(b) => b,
                        Open::Value(v) => v.is_true(),
                    };
                    if holds == (insn.op == Op::TestTrue) {
                        cur.pc = b;
                    }
                }
            }
        }
    }

    fn top(&self) -> Result<&BcValue, BcTrap> {
        match self.stack.last() {
            Some(v) => Ok(v),
            None => trap("operand stack underflow"),
        }
    }

    fn pop(&mut self) -> Result<BcValue, BcTrap> {
        match self.stack.pop() {
            Some(v) => Ok(v),
            None => trap("operand stack underflow"),
        }
    }

    /// Checks that `n` operands are on the stack.
    fn need(&self, n: usize) -> Result<(), BcTrap> {
        if self.stack.len() < n {
            return trap("operand stack underflow");
        }
        Ok(())
    }

    /// Records the running frame's pc before control leaves it.
    fn save(&mut self, pc: usize) {
        self.frames.last_mut().expect("live frame").pc = pc;
    }

    fn captures(&self) -> &[Rc<RefCell<BcValue>>] {
        match &self.frames.last().expect("live frame").closure {
            Some(c) => &c.captures,
            None => &[],
        }
    }

    /// An addressed operand, read in place: a stack operand `depth`
    /// below the top (`None` past the bottom), a slot of the running
    /// frame, or a linked pool constant.
    #[inline(always)]
    fn operand<'s>(&'s self, cur: &'s Cursor, addr: Addr, depth: usize) -> Option<&'s BcValue> {
        match addr.operand() {
            Operand::Stack => self.stack.get(self.stack.len().wrapping_sub(depth + 1)),
            Operand::Slot(i) => self.slots.get(cur.slots + i),
            Operand::Quote(k) => cur.entries.get(k).map(|e| &e.value),
        }
    }

    /// An addressed op's operands `x` and `y` in place: `y` is the top
    /// of the stack when it is a stack operand, and `x` the value below.
    #[inline(always)]
    fn operands<'s>(
        &'s self,
        cur: &'s Cursor,
        insn: Insn,
    ) -> (Option<&'s BcValue>, Option<&'s BcValue>) {
        let y = insn.y();
        let x = self.operand(cur, insn.x(), usize::from(y.is_stack()));
        (x, self.operand(cur, y, 0))
    }

    /// The primitive `p` on the first `argc` operands of `insn`, through
    /// [`State::builtin`] like a call of it: each addressed operand is
    /// pushed among the stack ones first, so all of them are on top of
    /// the stack in order.
    fn slow(
        &mut self,
        image: &Image,
        cur: &Cursor,
        insn: Insn,
        p: Prim,
        argc: usize,
    ) -> Result<BcValue, BcTrap> {
        let on_stack = popped(insn, argc);
        self.need(on_stack)?;
        let from = self.stack.len() - on_stack;
        for (at, addr) in (from..).zip([insn.x(), insn.y()].into_iter().take(argc)) {
            if !addr.is_stack() {
                let Some(v) = self.operand(cur, addr, 0).cloned() else {
                    return trap("operand address out of range");
                };
                self.stack.insert(at, v);
            }
        }
        self.builtin(image, p, argc)
    }

    /// The row of the addressed op `insn` on its operands, popping the
    /// stack ones: in line where [`open_coded`] answers; every other
    /// operand, an overflow included, goes to the builtin, which raises
    /// its own error.
    #[inline(always)]
    fn prim(&mut self, image: &Image, cur: &Cursor, insn: Insn) -> Result<Open, BcTrap> {
        let Some(p) = insn.prim() else {
            return trap("op of an unknown primitive");
        };
        let argc = p.operands();
        let fast = if argc == 1 {
            self.operand(cur, insn.x(), 0)
                .and_then(|x| open_coded(p, &[x]))
        } else {
            match self.operands(cur, insn) {
                (Some(x), Some(y)) => open_coded(p, &[x, y]),
                _ => None,
            }
        };
        if let Some(answer) = fast {
            let n = self.stack.len();
            self.stack.truncate(n - popped(insn, argc));
            return Ok(answer);
        }
        self.slow(image, cur, insn, p, argc).map(Open::Value)
    }

    /// Calls `callee` (named `name`) on the top `argc` operands: a proto
    /// call pushes a frame (a tail call replaces the current one), a
    /// builtin runs at once.  `Ok(Some(v))` when that finished the run.
    fn call(
        &mut self,
        image: &Image,
        callee: Callee,
        name: &str,
        argc: usize,
        tail: bool,
    ) -> Result<Option<Value>, BcTrap> {
        match callee {
            Callee::Prim(Prim::Throw) => {
                if argc != 2 {
                    return trap("throw: wants tag and value");
                }
                let value = self.pop()?;
                let tag = self.pop()?;
                self.throw(tag, value)?;
                Ok(None)
            }
            Callee::Prim(Prim::Apply) => self.apply(image, argc, tail),
            Callee::Prim(p) => {
                let v = self.builtin(image, p, argc)?;
                if tail {
                    return self.settle(v);
                }
                self.stack.push(v);
                Ok(None)
            }
            Callee::Proto(ix) => {
                let base = if tail {
                    self.unwind_for_tail_call()
                } else {
                    self.stack.len() - argc
                };
                self.enter(image, ix, argc, base, None)?;
                Ok(None)
            }
            Callee::Undefined => trap(format!("undefined function {name}")),
        }
    }

    /// Runs primitive `p` on the top `argc` operands, popping them.  An
    /// open-coded case ([`open_coded`]) is answered on the operand stack;
    /// every other call, and every operand the fast path declines, goes
    /// to the shared builtin through the reused scratch vector.
    fn builtin(&mut self, image: &Image, p: Prim, argc: usize) -> Result<BcValue, BcTrap> {
        let from = self.stack.len() - argc;
        let fast = match &self.stack[from..] {
            [x] => open_coded(p, &[x]),
            [x, y] => open_coded(p, &[x, y]),
            _ => None,
        };
        if let Some(answer) = fast {
            self.stack.truncate(from);
            return Ok(answer.into_value(image));
        }
        self.argv.clear();
        for v in self.stack.drain(from..) {
            self.argv.push(v.into_value()?);
        }
        Ok(BcValue::V(image.builtin(p, &self.argv)?))
    }

    /// `(apply f a b '(c d))` — the last argument spreads.
    fn apply(&mut self, image: &Image, argc: usize, tail: bool) -> Result<Option<Value>, BcTrap> {
        if argc == 0 {
            return trap("apply: wants a function");
        }
        let from = self.stack.len() - argc;
        let callee = self.stack.remove(from);
        if argc == 1 {
            return trap("apply: wants an argument list");
        }
        let mut rest = self.pop()?.into_value()?;
        loop {
            match rest {
                Value::Nil => break,
                Value::Cons(ref cell) => {
                    let car = cell.car.borrow().clone();
                    let cdr = cell.cdr.borrow().clone();
                    self.stack.push(BcValue::V(car));
                    rest = cdr;
                }
                _ => return trap("apply: last argument is not a list"),
            }
        }
        let n = self.stack.len() - from;
        match callee {
            BcValue::Closure(c) => {
                self.enter(image, c.proto, n, from, Some(c))?;
                Ok(None)
            }
            BcValue::V(Value::Func(Function::Global(name))) => {
                self.call(image, resolve(&image.module, &name), &name, n, tail)
            }
            other => trap(format!("apply: not a function: {}", other.into_value()?)),
        }
    }

    /// Unwinds to the innermost armed handler whose tag is `eql`.
    fn throw(&mut self, tag: BcValue, value: BcValue) -> Result<(), BcTrap> {
        let Some(ix) = self.handlers.iter().rposition(|h| h.tag.eql(&tag)) else {
            return trap(format!("no catcher for tag {}", tag.into_value()?));
        };
        self.handlers.truncate(ix + 1);
        let h = self.handlers.pop().expect("handler found above");
        self.frames.truncate(h.frame_ix + 1);
        self.stack.truncate(h.stack_h);
        self.slots.truncate(h.slots_h);
        self.specials.truncate(h.specials_h);
        self.save(h.pc);
        self.stack.push(value);
        Ok(())
    }

    /// Returns `result` from the current frame.  `Ok(Some(v))` when the
    /// run is complete (the entry frame returned).
    fn settle(&mut self, result: BcValue) -> Result<Option<Value>, BcTrap> {
        let frame = self.frames.pop().expect("live frame");
        self.stack.truncate(frame.base);
        self.slots.truncate(frame.slots);
        self.specials.truncate(frame.specials_base);
        self.handlers.truncate(frame.handlers_base);
        if self.frames.is_empty() {
            return Ok(Some(result.into_value()?));
        }
        self.stack.push(result);
        Ok(None)
    }

    /// Genuine tail call: the current frame is unwound first, so
    /// recursion depth stays constant (the bytecode analog of the
    /// compiler's tail-call-to-jump transformation).  Returns the old
    /// frame's operand base, where the callee's frame starts: the
    /// arguments stay on top of the operand stack until
    /// [`State::enter`] moves them, once, onto the slot stack.
    fn unwind_for_tail_call(&mut self) -> usize {
        let old = self.frames.pop().expect("live frame");
        self.slots.truncate(old.slots);
        self.specials.truncate(old.specials_base);
        self.handlers.truncate(old.handlers_base);
        old.base
    }

    /// A self tail call as a parameter-passing goto, checked when the
    /// call runs: when the running frame has no closure and the call
    /// passes exactly `proto`'s required arguments (it has no optional
    /// or rest parameter), the arguments move into the parameter slots,
    /// every other slot is reset to NIL and the operand stack is cropped
    /// to the frame's base — the state [`State::enter`] would build —
    /// and the caller jumps to pc 0.  `false` leaves the call to `enter`.
    fn reenter(&mut self, proto: &FuncProto, argc: usize) -> bool {
        let f = self.frames.last().expect("live frame");
        if f.closure.is_some()
            || proto.optional != 0
            || proto.rest
            || argc != proto.required as usize
        {
            return false;
        }
        let (slots, base) = (f.slots, f.base);
        self.specials.truncate(f.specials_base);
        self.handlers.truncate(f.handlers_base);
        let from = self.stack.len() - argc;
        let mut args = self.stack.drain(from..);
        for slot in &mut self.slots[slots..] {
            *slot = args.next().unwrap_or_else(BcValue::nil);
        }
        drop(args);
        self.stack.truncate(base);
        true
    }

    /// Enters proto `ix` with the top `argc` operands as its arguments,
    /// moving them onto the slot stack, and starts its operands at
    /// `base` (below the arguments for a call, the unwound frame's base
    /// for a tail call).  Parameters occupy slots `0..n` in declaration
    /// order; excess arguments collect into the `&rest` slot as a list.
    fn enter(
        &mut self,
        image: &Image,
        ix: usize,
        argc: usize,
        base: usize,
        closure: Option<Rc<BcClosure>>,
    ) -> Result<(), BcTrap> {
        let proto = &image.protos[ix].proto;
        let ncaptures = closure.as_ref().map_or(0, |c| c.captures.len());
        if proto.ncaptures as usize != ncaptures {
            return trap(format!("closure {} escaped its environment", proto.name));
        }
        let npos = (proto.required + proto.optional) as usize;
        if argc < proto.required as usize {
            return trap(format!("too few arguments to {}", proto.name));
        }
        if argc > npos && !proto.rest {
            return trap(format!("too many arguments to {}", proto.name));
        }
        let from = self.stack.len() - argc;
        let mut rest = Value::Nil;
        if argc > npos {
            for v in self.stack.drain(from + npos..).rev() {
                rest = Value::cons(v.into_value()?, rest);
            }
        }
        let slots = self.slots.len();
        self.slots.extend(self.stack.drain(from..));
        self.stack.truncate(base);
        self.slots
            .resize(slots + proto.nslots as usize, BcValue::nil());
        if proto.rest {
            self.slots[slots + npos] = BcValue::V(rest);
        }
        self.frames.push(Frame {
            proto: ix,
            pc: 0,
            base: self.stack.len(),
            slots,
            closure,
            argc,
            specials_base: self.specials.len(),
            handlers_base: self.handlers.len(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value or trap as text, for comparing the two paths.
    fn shown(r: Result<BcValue, BcTrap>) -> Result<String, String> {
        r.and_then(BcValue::into_value)
            .map(|v| v.to_string())
            .map_err(|t| t.message)
    }

    /// The shared builtin's answer for `p` on `args`.
    fn reference(image: &Image, p: Prim, args: &[BcValue]) -> Result<String, String> {
        let argv = args
            .iter()
            .cloned()
            .map(BcValue::into_value)
            .collect::<Result<Vec<_>, _>>();
        shown(
            argv.and_then(|argv| image.builtin(p, &argv))
                .map(BcValue::V),
        )
    }

    /// Every row with an in-line class, called and as its `prim` or
    /// compare-and-branch op, answers exactly what the shared builtin
    /// answers: the same value (a branch op, the same truth), or the same
    /// trap message.  The operands cover fixnums at and past the edges (an
    /// overflow must still be the builtin's "fixnum overflow", a zero
    /// divisor its "division by zero"), flonums, NaN and mixed pairs, a
    /// symbol and a list (the same type trap), and a captured cell and
    /// a closure, which the fast paths must leave to the builtin rather
    /// than coerce.
    #[test]
    fn open_coded_primitives_match_the_builtins() {
        let image = Image::link(Module::new(), &mut Specials::default());
        let mut names = Interner::new();
        let operands = [
            BcValue::V(Value::Fixnum(0)),
            BcValue::V(Value::Fixnum(1)),
            BcValue::V(Value::Fixnum(-1)),
            BcValue::V(Value::Fixnum(i64::MIN)),
            BcValue::V(Value::Fixnum(i64::MAX)),
            BcValue::V(Value::Flonum(1.5)),
            BcValue::V(Value::Flonum(-0.0)),
            BcValue::V(Value::Flonum(f64::NAN)),
            BcValue::V(Value::Nil),
            BcValue::V(Value::Sym(names.intern("foo"))),
            BcValue::V(Value::list([Value::Fixnum(1), Value::Fixnum(2)])),
            BcValue::Cell(Rc::new(RefCell::new(BcValue::V(Value::Fixnum(1))))),
            BcValue::Closure(Rc::new(BcClosure {
                proto: 0,
                captures: Vec::new(),
                name: "k".into(),
            })),
        ];
        // Every row with an in-line class, on its in-line operand count.
        let rows: Vec<Prim> = Prim::ALL
            .iter()
            .copied()
            .filter(|p| {
                !matches!(
                    p.info().inline,
                    Inline::Call | Inline::Flonum | Inline::Fixnum
                )
            })
            .collect();
        let mut calls: Vec<(Prim, Vec<BcValue>)> = Vec::new();
        for &p in &rows {
            for x in &operands {
                if p.operands() == 1 {
                    calls.push((p, vec![x.clone()]));
                } else {
                    calls.extend(operands.iter().map(|y| (p, vec![x.clone(), y.clone()])));
                }
            }
        }
        let mut st = State::default();
        let (mut open, mut overflows) = (0, 0);
        for (p, args) in calls {
            let refs: Vec<&BcValue> = args.iter().collect();
            let fast = open_coded(p, &refs);
            if fast.is_some() {
                open += 1;
            }
            if args.iter().any(|a| !matches!(a, BcValue::V(_))) {
                assert!(fast.is_none(), "{p:?} coerced a cell or closure");
            }
            st.stack.clone_from(&args);
            let got = shown(st.builtin(&image, p, args.len()));
            assert!(st.stack.is_empty(), "{p:?}: operands left behind");
            let want = reference(&image, p, &args);
            assert_eq!(got, want, "{p:?}");
            overflows += usize::from(want.is_err_and(|e| e.contains("fixnum overflow")));
        }
        // +, -, *: six of the 25 fixnum pairs overflow under each; `/`
        // one, `1+` and `1-` one fixnum each.
        assert_eq!(overflows, 18 + 1 + 2);
        // zerop: 5 fixnums; 1+, 1-: 5 each less the overflows; not,
        // null: 11 plain values each; eq, cons: 11 × 11 plain pairs each;
        // +, -, *, /: 25 fixnum pairs each less the overflows and, for
        // `/`, the five zero divisors; the six comparisons: 25 fixnum
        // pairs each.  `car`, `cdr`, `consp` and `atom` are calls.
        assert_eq!(open, 5 + 8 + 22 + 242 + (100 - 19 - 5) + 150);

        // The generic and compare-and-branch ops, as `exec` runs them,
        // under every addressing of their operands: each on the stack, in
        // a frame slot, or in the constant pool.  Slot `i` and pool entry
        // `i` both hold `operands[i]`, cells and closures included.
        let entries: Vec<Entry> = operands
            .iter()
            .map(|v| Entry {
                value: v.clone(),
                name: None,
            })
            .collect();
        let cur = Cursor {
            proto: 0,
            code: &[],
            entries: &entries,
            pc: 0,
            slots: 0,
            base: 0,
        };
        let ops = rows.iter().copied().filter_map(|p| match p.info().inline {
            Inline::Generic | Inline::Cons => Some((Op::Prim, p)),
            Inline::Compare | Inline::Eq => Some((Op::TestNil, p)),
            _ => None,
        });
        // Each operand tuple (as indices into `operands`) under each
        // addressing: the instruction, and the stack it starts from.
        let addressings = |op: Op, p: Prim| -> Vec<(Vec<BcValue>, Insn, Vec<BcValue>)> {
            let arity = p.operands();
            let at = |mode: usize, i: usize| match mode {
                0 => Addr::STACK,
                1 => Addr::slot(i as u32).unwrap(),
                _ => Addr::quote(i as u32).unwrap(),
            };
            let n = operands.len();
            let mut out = Vec::new();
            for i in 0..n.pow(arity as u32) {
                let ix: Vec<usize> = if arity == 1 {
                    vec![i]
                } else {
                    vec![i / n, i % n]
                };
                for modes in 0..3usize.pow(arity as u32) {
                    let m = [modes % 3, modes / 3];
                    let x = at(m[0], ix[0]);
                    let y = if arity == 1 {
                        Addr::STACK
                    } else {
                        at(m[1], ix[1])
                    };
                    let args: Vec<BcValue> = ix.iter().map(|&k| operands[k].clone()).collect();
                    let stack = args
                        .iter()
                        .zip([x, y])
                        .filter(|(_, a)| a.is_stack())
                        .map(|(v, _)| v.clone())
                        .collect();
                    out.push((args, Insn::addressed(op, p, x, y), stack));
                }
            }
            out
        };
        st.slots = operands.to_vec();
        let (mut errors, mut runs) = (0, 0);
        for (op, p) in ops {
            for (args, insn, stack) in addressings(op, p) {
                st.stack = stack;
                let got = shown(st.prim(&image, &cur, insn).map(|a| a.into_value(&image)));
                assert!(st.stack.is_empty(), "{p:?}: operands left behind");
                let want = reference(&image, p, &args);
                assert_eq!(got, want, "{p:?} {op:?} on {args:?} at {insn:?}");
                errors += usize::from(want.is_err());
                runs += 1;
            }
        }
        // Slots and pool entries are read, never moved out.
        assert_eq!(st.slots.len(), operands.len());
        for (slot, v) in st.slots.iter().zip(&operands) {
            assert_eq!(shown(Ok(slot.clone())), shown(Ok(v.clone())));
        }
        // 13 operands: the unary ops 3 × 13 addressings each, the binary
        // ones 9 × 169.
        assert_eq!(runs, 3 * 3 * 13 + 12 * 9 * 169);
        // Every error path is reached: overflows, a zero divisor, NaN,
        // non-numbers.
        assert!(errors > 9 * 500, "{errors}");
    }
}
