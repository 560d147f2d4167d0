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
//! The numeric rows are not written here: `s1lisp_ast::num` defines
//! them once, for every engine and the constant folder.  This module
//! only reads words as their operands (`num_of`, dereferencing a boxed
//! flonum), boxes their answers (`make_num`), and raises their errors as
//! traps: a zero divisor as `DivisionByZero`, anything else as a
//! `WrongType` with the interpreter's message.

use std::collections::HashMap;

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

// ---- small word predicates shared with the machine ----

/// `eq`: word identity.  Boxed flonums are `eq` only when they are the
/// same box (the paper: "the operation eq is not guaranteed to work on
/// numbers").
pub(crate) fn word_eq(a: Word, b: Word) -> bool {
    match (a, b) {
        (Word::Raw(x), Word::Raw(y)) => x == y,
        (Word::F(x), Word::F(y)) => x.to_bits() == y.to_bits(),
        (Word::Ptr(ta, xa), Word::Ptr(tb, xb)) => ta == tb && xa == xb,
        _ => false,
    }
}

/// `eql`: identity, with numbers compared by value and type ("another
/// predicate, eql, does 'work' … because it compares addresses only for
/// non-numeric objects, and compares values for numeric objects").
pub(crate) fn word_eql(m: &Machine, a: Word, b: Word) -> bool {
    match (a, b) {
        (Word::Ptr(Tag::SingleFlonum, _), Word::Ptr(Tag::SingleFlonum, _)) => {
            matches!((num_of(m, a), num_of(m, b)), (Some(x), Some(y)) if x == y)
        }
        _ => word_eq(a, b),
    }
}

/// Structural `equal`.
fn word_equal(m: &Machine, a: Word, b: Word, depth: usize) -> Result<bool, Trap> {
    if depth > 10_000 {
        return Err(wrong("equal: structure too deep"));
    }
    match (a, b) {
        (Word::Ptr(Tag::Cons, xa), Word::Ptr(Tag::Cons, xb)) => {
            if xa == xb {
                return Ok(true);
            }
            Ok(word_equal(m, m.read_mem(xa)?, m.read_mem(xb)?, depth + 1)?
                && word_equal(m, m.read_mem(xa + 1)?, m.read_mem(xb + 1)?, depth + 1)?)
        }
        _ => Ok(word_eql(m, a, b)),
    }
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
        e => wrong(e.message(who, |i| shown(m, args[i]))),
    }
}

/// A word as the interpreter prints the value it stands for, or as
/// itself when it does not read back.
fn shown(m: &Machine, w: Word) -> String {
    extract(m, w).map_or_else(|_| w.to_string(), |v| v.to_string())
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

/// `car` (nil yields nil).
pub(crate) fn car(m: &Machine, w: Word) -> Result<Word, Trap> {
    match w {
        Word::Ptr(Tag::Nil, _) => Ok(Word::NIL),
        Word::Ptr(Tag::Cons, addr) => m.read_mem(addr),
        other => Err(wrong(format!("car: not a list: {}", shown(m, other)))),
    }
}

/// `cdr` (nil yields nil).
pub(crate) fn cdr(m: &Machine, w: Word) -> Result<Word, Trap> {
    match w {
        Word::Ptr(Tag::Nil, _) => Ok(Word::NIL),
        Word::Ptr(Tag::Cons, addr) => m.read_mem(addr + 1),
        other => Err(wrong(format!("cdr: not a list: {}", shown(m, other)))),
    }
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

fn list_words(m: &Machine, mut w: Word, who: &str) -> Result<Vec<Word>, Trap> {
    let mut out = Vec::new();
    loop {
        match w {
            Word::Ptr(Tag::Nil, _) => return Ok(out),
            Word::Ptr(Tag::Cons, addr) => {
                out.push(m.read_mem(addr)?);
                w = m.read_mem(addr + 1)?;
                if out.len() > 10_000_000 {
                    return Err(wrong(format!("{who}: list too long or circular")));
                }
            }
            other => return Err(wrong(format!("{who}: improper list ending in {other}"))),
        }
    }
}

fn from_words(m: &mut Machine, words: &[Word], tail: Word) -> Result<Word, Trap> {
    let mut out = tail;
    for (i, &w) in words.iter().enumerate().rev() {
        out = cons(m, w, out, &words[..i])?;
    }
    Ok(out)
}

/// The count `nth` and `nthcdr` take first.
fn fixnum_arg(m: &Machine, who: &str, args: &[Word]) -> Result<i64, Trap> {
    args[0]
        .as_integer()
        .ok_or_else(|| num_trap(m, who, NumError::NotAFixnum(0), args))
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
#[allow(clippy::too_many_lines)]
pub(crate) fn rt_call(m: &mut Machine, prim: Prim, args: &[Word]) -> Result<RtResult, Trap> {
    prim.check_arity(args.len())
        .map_err(Trap::WrongNumberOfArguments)?;
    let name = prim.name();
    let v = match prim {
        Prim::Null | Prim::Not => boolean(!args[0].is_true()),
        Prim::Atom => boolean(!matches!(args[0], Word::Ptr(Tag::Cons, _))),
        Prim::Consp => boolean(matches!(args[0], Word::Ptr(Tag::Cons, _))),
        Prim::Listp => boolean(matches!(args[0], Word::Ptr(Tag::Cons | Tag::Nil, _))),
        Prim::Symbolp => boolean(matches!(args[0], Word::Ptr(Tag::Symbol | Tag::T, _))),
        Prim::Numberp => boolean(matches!(
            args[0],
            Word::Ptr(Tag::Fixnum | Tag::SingleFlonum, _)
        )),
        Prim::Fixnump => boolean(matches!(args[0], Word::Ptr(Tag::Fixnum, _))),
        Prim::Flonump => boolean(matches!(args[0], Word::Ptr(Tag::SingleFlonum, _))),
        Prim::Stringp => boolean(matches!(args[0], Word::Ptr(Tag::String, _))),
        Prim::Functionp => boolean(matches!(
            args[0],
            Word::Ptr(Tag::Function | Tag::Closure, _)
        )),
        Prim::Eq => boolean(word_eq(args[0], args[1])),
        Prim::Eql => boolean(word_eql(m, args[0], args[1])),
        Prim::Equal => boolean(word_equal(m, args[0], args[1], 0)?),
        Prim::Cons => cons(m, args[0], args[1], &[])?,
        Prim::Car => car(m, args[0])?,
        Prim::Cdr => cdr(m, args[0])?,
        Prim::Caar => car(m, car(m, args[0])?)?,
        Prim::Cadr => car(m, cdr(m, args[0])?)?,
        Prim::Cdar => cdr(m, car(m, args[0])?)?,
        Prim::Cddr => cdr(m, cdr(m, args[0])?)?,
        Prim::Caddr => car(m, cdr(m, cdr(m, args[0])?)?)?,
        Prim::Cdddr => cdr(m, cdr(m, cdr(m, args[0])?)?)?,
        Prim::List => from_words(m, args, Word::NIL)?,
        Prim::ListStar => match args.split_last() {
            Some((last, init)) => from_words(m, init, *last)?,
            None => Word::NIL,
        },
        Prim::Append => {
            let mut all = Vec::new();
            let tail = match args.split_last() {
                None => Word::NIL,
                Some((last, init)) => {
                    for &a in init {
                        all.extend(list_words(m, a, name)?);
                    }
                    *last
                }
            };
            from_words(m, &all, tail)?
        }
        Prim::Reverse => {
            let mut ws = list_words(m, args[0], name)?;
            ws.reverse();
            from_words(m, &ws, Word::NIL)?
        }
        Prim::Length => Word::fixnum(list_words(m, args[0], name)?.len() as i64),
        Prim::Nth => {
            let n = fixnum_arg(m, name, args)?;
            let ws = list_words(m, args[1], name)?;
            ws.get(n as usize).copied().unwrap_or(Word::NIL)
        }
        Prim::Nthcdr => {
            let n = fixnum_arg(m, name, args)?;
            let mut w = args[1];
            for _ in 0..n {
                w = cdr(m, w)?;
            }
            w
        }
        Prim::Last => {
            let mut w = args[0];
            while let Word::Ptr(Tag::Cons, addr) = w {
                let next = m.read_mem(addr + 1)?;
                if matches!(next, Word::Ptr(Tag::Cons, _)) {
                    w = next;
                } else {
                    break;
                }
            }
            w
        }
        Prim::Assq | Prim::Assoc => {
            let mut found = Word::NIL;
            for pair in list_words(m, args[1], name)? {
                if let Word::Ptr(Tag::Cons, addr) = pair {
                    let key = m.read_mem(addr)?;
                    let hit = if prim == Prim::Assq {
                        word_eq(key, args[0])
                    } else {
                        word_equal(m, key, args[0], 0)?
                    };
                    if hit {
                        found = pair;
                        break;
                    }
                }
            }
            found
        }
        Prim::Memq | Prim::Member => {
            let mut w = args[1];
            let mut found = Word::NIL;
            while let Word::Ptr(Tag::Cons, addr) = w {
                let head = m.read_mem(addr)?;
                let hit = if prim == Prim::Memq {
                    word_eq(head, args[0])
                } else {
                    word_equal(m, head, args[0], 0)?
                };
                if hit {
                    found = w;
                    break;
                }
                w = m.read_mem(addr + 1)?;
            }
            found
        }
        Prim::Rplaca | Prim::Rplacd => {
            let Word::Ptr(Tag::Cons, addr) = args[0] else {
                return Err(wrong(format!("{name}: not a cons")));
            };
            let slot = if prim == Prim::Rplaca { addr } else { addr + 1 };
            m.write_mem(slot, args[1])?;
            args[0]
        }
        Prim::Identity => args[0],
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
        Prim::Apply => return Err(Trap::UndefinedFunction(name.to_string())),
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
            match r.map_err(|e| num_trap(m, name, e, args))? {
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
