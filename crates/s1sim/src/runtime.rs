//! The Lisp run-time system: primitive operations that are too large to
//! compile in line, operating directly on machine words and the tagged
//! heap, plus the host boundary (injecting/extracting [`Value`]s).
//!
//! These routines are what the compiled code reaches through
//! [`Insn::RtCall`](crate::Insn::RtCall) — the moral equivalent of the
//! `%CALL (REF SQ …)` runtime entries visible in the paper's Table 4.
//!
//! Each routine is a row of the primitive table ([`Prim`]): the
//! instruction carries the row's number, and [`rt_call`] checks the
//! argument count against the table once, before it reads any argument,
//! then dispatches on the number.  A wrong-arity call is a
//! `WrongNumberOfArguments` trap, never an out-of-bounds read.
//!
//! The rows are not written here: `s1lisp_ast::num` defines the numeric
//! rows and `s1lisp_ast::lists` the list rows, once for every engine.
//! This module adapts them to words: it reads a numeric operand through
//! `num_of` (dereferencing a boxed flonum), boxes an answer with
//! `make_num`, serves the list rows as their engine (the [`Machine`]),
//! and raises an error as a trap — a zero divisor as `DivisionByZero`,
//! anything else as a `WrongType` with the interpreter's message.  Only
//! `error`, `throw`, `apply` (as a value) and `%function`, which touch
//! the machine's control, run here.

use std::collections::HashMap;

use s1lisp_ast::lists::{self, Engine, Kind};
use s1lisp_ast::num::{self, Answer, Num, NumError};
use s1lisp_ast::Prim;
use s1lisp_interp::Value;
use s1lisp_reader::{Interner, Symbol};

use crate::heap::ObjKind;
use crate::machine::{Machine, Trap};
use crate::word::{Tag, Word};

/// Result of a runtime routine: a value, or a non-local throw to
/// propagate.
pub(crate) enum RtResult {
    /// Normal completion.
    Value(Word),
    /// A `throw` initiated inside the runtime.
    Throw {
        /// Tag word.
        tag: Word,
        /// Thrown value.
        value: Word,
    },
}

fn wrong(msg: impl Into<String>) -> Trap {
    Trap::WrongType(msg.into())
}

/// Reads a number from a pointer-format (or raw) word: `None` for a
/// non-number (or a flonum box that does not hold a float).
pub(crate) fn num_of(m: &Machine, w: Word) -> Option<Num> {
    match w {
        Word::Raw(n) => Some(Num::Int(n)),
        Word::F(x) => Some(Num::Flo(x)),
        Word::Ptr(Tag::Fixnum, n) => Some(Num::Int(n as i64)),
        Word::Ptr(Tag::SingleFlonum, addr) => match m.read_mem(addr) {
            Ok(Word::F(x)) => Some(Num::Flo(x)),
            _ => None,
        },
        _ => None,
    }
}

/// A numeric row's error raised by `who` on `args`: a zero divisor is
/// `DivisionByZero`, anything else a `WrongType` carrying the shared
/// message, with the offending operand printed as the interpreter
/// prints the value.
#[cold]
fn num_trap(m: &Machine, who: &str, e: NumError, args: &[Word]) -> Trap {
    match e {
        NumError::DivisionByZero => Trap::DivisionByZero,
        e => wrong(e.message(who, |i| m.shown(&args[i]))),
    }
}

/// Strict flonum dereference for `UnboxFlo`: the `$f` operators perform
/// "a run-time data-type check" (§6.2) and reject fixnums, matching the
/// reference interpreter.
pub(crate) fn strict_float_of(m: &Machine, w: Word) -> Result<f64, Trap> {
    match num_of(m, w) {
        Some(Num::Flo(x)) => Ok(x),
        _ => Err(wrong(format!("not a flonum: {w}"))),
    }
}

/// Numeric comparison for `JmpIf` past its in-line cases, raising the
/// errors of the comparison `who`.
pub(crate) fn num_compare(
    m: &Machine,
    a: Word,
    b: Word,
    who: &str,
) -> Result<std::cmp::Ordering, Trap> {
    let x = num_of(m, a).ok_or(NumError::NotANumber(0));
    let y = num_of(m, b).ok_or(NumError::NotANumber(1));
    x.and_then(|x| num::order(x, y?))
        .map_err(|e| num_trap(m, who, e, &[a, b]))
}

/// Conses `car` onto `cdr`, keeping both — and every `held` word —
/// alive across a collection the allocation triggers: runtime routines
/// run with their arguments already popped, so no machine root need
/// reach them.
fn cons(m: &mut Machine, car: Word, cdr: Word, held: &[Word]) -> Result<Word, Trap> {
    let addr = m.alloc_holding(2, ObjKind::Cons, &[&[car, cdr], held])?;
    m.heap.write(addr, car);
    m.heap.write(addr + 1, cdr);
    Ok(Word::Ptr(Tag::Cons, addr))
}

fn make_num(m: &mut Machine, n: Num) -> Result<Word, Trap> {
    match n {
        Num::Int(v) => Ok(Word::fixnum(v)),
        Num::Flo(x) => {
            let addr = m.alloc(1, ObjKind::Flonum)?;
            m.heap.write(addr, Word::F(x));
            Ok(Word::Ptr(Tag::SingleFlonum, addr))
        }
    }
}

fn boolean(b: bool) -> Word {
    if b {
        Word::T
    } else {
        Word::NIL
    }
}

/// The heap address of the field of the cons `cell` that the row `f`
/// reads.
fn field_addr(cell: Word, f: Prim) -> u64 {
    let Word::Ptr(Tag::Cons, addr) = cell else {
        unreachable!("a field of a cons")
    };
    addr + u64::from(f == Prim::Cdr)
}

/// The machine as the list rows' engine (`s1lisp_ast::lists`).
impl Engine for Machine {
    type Value = Word;
    type Error = Trap;
    const NIL: Word = Word::NIL;

    #[inline]
    fn kind(&self, w: &Word) -> Kind {
        match *w {
            Word::Ptr(Tag::Nil, _) => Kind::Nil,
            Word::Ptr(Tag::Cons, _) => Kind::Cons,
            Word::Ptr(Tag::Fixnum, n) => Kind::Fixnum(n as i64),
            Word::Raw(n) => Kind::Fixnum(n),
            Word::Ptr(Tag::Symbol | Tag::T, _) => Kind::Atom(Prim::Symbolp),
            Word::Ptr(Tag::SingleFlonum, _) | Word::F(_) => Kind::Atom(Prim::Flonump),
            Word::Ptr(Tag::String, _) => Kind::Atom(Prim::Stringp),
            Word::Ptr(Tag::Function | Tag::Closure, _) => Kind::Atom(Prim::Functionp),
            _ => Kind::Atom(Prim::Atom),
        }
    }

    #[inline]
    fn field(&self, cell: &Word, f: Prim) -> Word {
        self.heap.read(field_addr(*cell, f))
    }

    fn store(&mut self, cell: &Word, f: Prim, v: Word) -> Result<(), Trap> {
        self.write_mem(field_addr(*cell, f), v)
    }

    /// Conses from the last word, each cons holding the words before it.
    fn list(&mut self, items: &[Word], tail: Word) -> Result<Word, Trap> {
        let mut out = tail;
        for (i, &w) in items.iter().enumerate().rev() {
            out = cons(self, w, out, &items[..i])?;
        }
        Ok(out)
    }

    /// `eq` is word identity, so boxed flonums are `eq` only when they
    /// are the same box (the paper: "the operation eq is not guaranteed
    /// to work on numbers").  `eql` (and `equal` of two atoms: strings
    /// are interned, so their ids compare their text) compares numbers
    /// by value and type ("another predicate, eql, does 'work' … because
    /// it compares addresses only for non-numeric objects").
    #[inline]
    fn same(&self, a: &Word, b: &Word, test: Prim) -> bool {
        match (*a, *b) {
            (Word::Ptr(Tag::SingleFlonum, _), Word::Ptr(Tag::SingleFlonum, _))
                if test != Prim::Eq =>
            {
                matches!((num_of(self, *a), num_of(self, *b)), (Some(x), Some(y)) if x == y)
            }
            (Word::Raw(x), Word::Raw(y)) => x == y,
            (Word::F(x), Word::F(y)) => x.to_bits() == y.to_bits(),
            (Word::Ptr(ta, xa), Word::Ptr(tb, xb)) => ta == tb && xa == xb,
            _ => false,
        }
    }

    /// A word as the interpreter prints the value it stands for, or as
    /// itself when it does not read back.
    fn shown(&self, w: &Word) -> String {
        extract(self, *w).map_or_else(|_| w.to_string(), |v| v.to_string())
    }

    fn error(&self, message: String) -> Trap {
        wrong(message)
    }
}

/// The open-coded case of a routine, on one or two operands that are
/// all fixnums (raw or tagged): the row's fixnum case, `num::fixnum`,
/// answered with exactly the word [`rt_call`] returns.  `None` where the
/// row has no such case, for any other operand or count, and for an
/// overflow or a zero divisor, whose trap only the routine raises.
#[inline]
pub(crate) fn fixnum_fast(prim: Prim, args: &[Word]) -> Option<Word> {
    let answer = match *args {
        [x] => num::fixnum(prim, &[x.as_integer()?]),
        [x, y] => num::fixnum(prim, &[x.as_integer()?, y.as_integer()?]),
        _ => None,
    };
    match answer? {
        Answer::Num(Num::Int(n)) => Some(Word::fixnum(n)),
        Answer::Bool(b) => Some(boolean(b)),
        Answer::Num(Num::Flo(_)) => None,
    }
}

/// Runs the routine for `prim`: one arity check against the primitive
/// table, before any argument is read, then dispatch on the number.
pub(crate) fn rt_call(m: &mut Machine, prim: Prim, args: &[Word]) -> Result<RtResult, Trap> {
    prim.check_arity(args.len())
        .map_err(Trap::WrongNumberOfArguments)?;
    if let Some(answer) = lists::apply(m, prim, args)? {
        return Ok(RtResult::Value(match answer {
            lists::Answer::Value(w) => w,
            lists::Answer::Bool(b) => boolean(b),
            lists::Answer::Fixnum(n) => Word::fixnum(n),
        }));
    }
    let v = match prim {
        Prim::Error => {
            let mut msg = String::new();
            for &a in args {
                let v = extract(m, a)?;
                msg.push_str(&format!("{v} "));
            }
            return Err(Trap::LispError(msg.trim_end().to_string()));
        }
        Prim::Throw => {
            return Ok(RtResult::Throw {
                tag: args[0],
                value: args[1],
            });
        }
        // Compiled `apply` calls become `Insn::Apply`; as a function
        // value it has never been callable.
        Prim::Apply => return Err(Trap::UndefinedFunction(prim.name().to_string())),
        Prim::Function => {
            let Word::Ptr(Tag::Symbol, sym) = args[0] else {
                return Err(wrong("%function: wants a symbol"));
            };
            let name = m.program.symbols[sym as usize].clone();
            let id = m.fn_id(&name);
            Word::Ptr(Tag::Function, u64::from(id))
        }
        // Every other row is numeric.
        _ => {
            let r = num::apply(prim, args, |&w| num_of(m, w)).expect("a numeric row");
            match r.map_err(|e| num_trap(m, prim.name(), e, args))? {
                Answer::Num(n) => make_num(m, n)?,
                Answer::Bool(b) => boolean(b),
            }
        }
    };
    Ok(RtResult::Value(v))
}

// ---- host boundary ----

/// Builds machine data from a host value.  `held` are the car words
/// already built for enclosing conses, not yet reachable from any
/// machine root (empty at the top level).
pub(crate) fn inject(m: &mut Machine, v: &Value, held: &mut Vec<Word>) -> Result<Word, Trap> {
    Ok(match v {
        Value::Nil => Word::NIL,
        Value::Fixnum(n) => Word::fixnum(*n),
        Value::Flonum(x) => {
            let addr = m.alloc_holding(1, ObjKind::Flonum, &[held])?;
            m.heap.write(addr, Word::F(*x));
            Word::Ptr(Tag::SingleFlonum, addr)
        }
        Value::Sym(s) => {
            if s.as_str() == "t" {
                Word::T
            } else {
                let id = m.sym_id(s.as_str());
                Word::Ptr(Tag::Symbol, u64::from(id))
            }
        }
        Value::Str(s) => {
            let id = m.str_id(s);
            Word::Ptr(Tag::String, u64::from(id))
        }
        Value::Char(c) => Word::Ptr(Tag::Char, u64::from(u32::from(*c))),
        Value::Cons(_) => {
            let base = held.len();
            let list = inject_list(m, v, held);
            held.truncate(base);
            list?
        }
        Value::Func(_) => {
            let name = v
                .as_global_function()
                .ok_or_else(|| wrong("cannot inject interpreter closures into the machine"))?;
            let id = m.fn_id(name);
            Word::Ptr(Tag::Function, u64::from(id))
        }
    })
}

/// A list, by [`inject`]: the cdr chain in a loop, as
/// `ReadBack::value` reads it back, so a long list injects in constant
/// host stack; only the cars recurse.  The cars are built left to right
/// and held, then consed from the tail, each cons holding the cars
/// before it: the allocations a recursion on the cdr would make, in its
/// order.
fn inject_list(m: &mut Machine, v: &Value, held: &mut Vec<Word>) -> Result<Word, Trap> {
    let base = held.len();
    let mut link = v.clone();
    while let Value::Cons(cell) = &link {
        let a = inject(m, &cell.car.borrow(), held)?;
        held.push(a);
        let next = cell.cdr.borrow().clone();
        link = next;
    }
    let mut list = inject(m, &link, held)?;
    while held.len() > base {
        let a = held.pop().expect("a held car");
        list = cons(m, a, list, held)?;
    }
    Ok(list)
}

/// Reads machine data back into a host value.
pub(crate) fn extract(m: &Machine, w: Word) -> Result<Value, Trap> {
    ReadBack {
        m,
        names: Interner::new(),
        by_id: Vec::new(),
        conses: HashMap::new(),
    }
    .value(w, 0)
}

/// One read-back: its symbols are made once per symbol id (and `t`
/// once), however often they occur in the structure, and each heap cons
/// becomes one host cons, so shared structure stays shared and a DAG
/// is read in time linear in its size.  A cons is recorded only once
/// both its fields are read, so a cycle still runs into the depth
/// refusal.
struct ReadBack<'m> {
    m: &'m Machine,
    names: Interner,
    by_id: Vec<Option<Symbol>>,
    conses: HashMap<u64, Value>,
}

impl ReadBack<'_> {
    fn symbol(&mut self, id: u64) -> Result<Symbol, Trap> {
        let i = id as usize;
        if let Some(Some(sym)) = self.by_id.get(i) {
            return Ok(sym.clone());
        }
        let name = self
            .m
            .program
            .symbols
            .get(i)
            .ok_or_else(|| wrong("bad symbol id"))?;
        let sym = self.names.intern(name);
        if self.by_id.len() <= i {
            self.by_id.resize(i + 1, None);
        }
        self.by_id[i] = Some(sym.clone());
        Ok(sym)
    }

    fn value(&mut self, w: Word, depth: usize) -> Result<Value, Trap> {
        if depth > 100_000 {
            return Err(wrong("extract: structure too deep or circular"));
        }
        let m = self.m;
        Ok(match w {
            Word::Ptr(Tag::Nil, _) => Value::Nil,
            Word::Ptr(Tag::T, _) => Value::Sym(self.names.intern("t")),
            Word::Ptr(Tag::Fixnum, n) => Value::Fixnum(n as i64),
            Word::Raw(n) => Value::Fixnum(n),
            Word::F(x) => Value::Flonum(x),
            Word::Ptr(Tag::SingleFlonum, addr) => match m.read_mem(addr)? {
                Word::F(x) => Value::Flonum(x),
                other => return Err(wrong(format!("corrupt flonum: {other}"))),
            },
            Word::Ptr(Tag::Symbol, id) => Value::Sym(self.symbol(id)?),
            Word::Ptr(Tag::String, id) => {
                let s = m
                    .program
                    .strings
                    .get(id as usize)
                    .ok_or_else(|| wrong("bad string id"))?;
                Value::Str(std::rc::Rc::from(s.as_str()))
            }
            Word::Ptr(Tag::Char, c) => {
                Value::Char(char::from_u32(c as u32).ok_or_else(|| wrong("bad character"))?)
            }
            Word::Ptr(Tag::Cons, _) => {
                // The cdr chain in a loop, each link one level deeper, so
                // a long list reads back in constant host stack; only the
                // cars recurse.
                let (mut w, mut depth) = (w, depth);
                let mut spine = Vec::new();
                let tail = loop {
                    let Word::Ptr(Tag::Cons, addr) = w else {
                        break self.value(w, depth)?;
                    };
                    if let Some(v) = self.conses.get(&addr) {
                        break v.clone();
                    }
                    if depth > 100_000 {
                        return Err(wrong("extract: structure too deep or circular"));
                    }
                    spine.push((addr, self.value(m.read_mem(addr)?, depth + 1)?));
                    w = m.read_mem(addr + 1)?;
                    depth += 1;
                };
                spine.into_iter().rev().fold(tail, |cdr, (addr, car)| {
                    let v = Value::cons(car, cdr);
                    self.conses.insert(addr, v.clone());
                    v
                })
            }
            Word::Ptr(Tag::Function, id) => {
                let name = m
                    .program
                    .fn_names
                    .get(id as usize)
                    .ok_or_else(|| wrong("bad function id"))?;
                Value::global_function(name)
            }
            Word::Ptr(Tag::Closure, addr) => {
                let Word::Raw(fnid) = m.heap.read(addr + 1) else {
                    return Err(wrong("corrupt closure"));
                };
                let name = m.program.names().resolve(fnid as u32);
                Value::global_function(&format!("#closure-{name}"))
            }
            Word::Ptr(t, _) => return Err(wrong(format!("cannot extract {t:?}"))),
        })
    }
}
