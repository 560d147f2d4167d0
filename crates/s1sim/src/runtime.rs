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
//! then dispatches with an exhaustive `match`.  A wrong-arity call is a
//! `WrongNumberOfArguments` trap, never an out-of-bounds read.

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

/// A fixnum result that does not fit, raised as the interpreter and the
/// declared-fixnum instructions raise it.
fn overflow(who: &str) -> Trap {
    wrong(format!("{who}: fixnum overflow"))
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
            match (float_of(m, a, "eql"), float_of(m, b, "eql")) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            }
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

/// A number extracted from a word.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Num {
    /// Integer.
    Int(i64),
    /// Float.
    Flo(f64),
}

impl Num {
    fn as_f64(self) -> f64 {
        match self {
            Num::Int(n) => n as f64,
            Num::Flo(x) => x,
        }
    }
}

/// Reads a number from a pointer-format (or raw) word, for the routine
/// `who` (named in the error, as the interpreter names it).
pub(crate) fn num_of(m: &Machine, w: Word, who: &str) -> Result<Num, Trap> {
    match w {
        Word::Raw(n) => Ok(Num::Int(n)),
        Word::F(x) => Ok(Num::Flo(x)),
        Word::Ptr(Tag::Fixnum, n) => Ok(Num::Int(n as i64)),
        Word::Ptr(Tag::SingleFlonum, addr) => match m.read_mem(addr)? {
            Word::F(x) => Ok(Num::Flo(x)),
            other => Err(wrong(format!("corrupt flonum object: {other}"))),
        },
        other => Err(not_a_number(m, other, who)),
    }
}

/// The error for a non-number `w` given to `who`, with `w` printed as
/// the interpreter prints the value.
#[cold]
fn not_a_number(m: &Machine, w: Word, who: &str) -> Trap {
    let shown = extract(m, w).map_or_else(|_| w.to_string(), |v| v.to_string());
    wrong(format!("{who}: not a number: {shown}"))
}

/// Reads a float, dereferencing a flonum pointer and converting raw
/// integers/fixnums (generic call sites).
pub(crate) fn float_of(m: &Machine, w: Word, who: &str) -> Result<f64, Trap> {
    match num_of(m, w, who)? {
        Num::Flo(x) => Ok(x),
        Num::Int(n) => Ok(n as f64),
    }
}

/// Strict flonum dereference for `UnboxFlo`: the `$f` operators perform
/// "a run-time data-type check" (§6.2) and reject fixnums, matching the
/// reference interpreter.
pub(crate) fn strict_float_of(m: &Machine, w: Word) -> Result<f64, Trap> {
    match w {
        Word::F(x) => Ok(x),
        Word::Ptr(Tag::SingleFlonum, _) => float_of(m, w, "unbox"),
        other => Err(wrong(format!("not a flonum: {other}"))),
    }
}

/// Numeric comparison for `JmpIf` and the comparison routine `who`.
pub(crate) fn num_compare(
    m: &Machine,
    a: Word,
    b: Word,
    who: &str,
) -> Result<std::cmp::Ordering, Trap> {
    let (x, y) = (num_of(m, a, who)?, num_of(m, b, who)?);
    match (x, y) {
        (Num::Int(p), Num::Int(q)) => Ok(p.cmp(&q)),
        _ => x
            .as_f64()
            .partial_cmp(&y.as_f64())
            .ok_or_else(|| wrong("comparison with NaN")),
    }
}

/// `car` (nil yields nil).
pub(crate) fn car(m: &Machine, w: Word) -> Result<Word, Trap> {
    match w {
        Word::Ptr(Tag::Nil, _) => Ok(Word::NIL),
        Word::Ptr(Tag::Cons, addr) => m.read_mem(addr),
        other => Err(wrong(format!("car: not a list: {other}"))),
    }
}

/// `cdr` (nil yields nil).
pub(crate) fn cdr(m: &Machine, w: Word) -> Result<Word, Trap> {
    match w {
        Word::Ptr(Tag::Nil, _) => Ok(Word::NIL),
        Word::Ptr(Tag::Cons, addr) => m.read_mem(addr + 1),
        other => Err(wrong(format!("cdr: not a list: {other}"))),
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

fn fix_of(m: &Machine, w: Word, who: &str) -> Result<i64, Trap> {
    match num_of(m, w, who)? {
        Num::Int(n) => Ok(n),
        Num::Flo(_) => Err(wrong(format!("{who}: not a fixnum"))),
    }
}

fn fold_num(
    m: &mut Machine,
    args: &[Word],
    who: &str,
    unit: Option<i64>,
    fi: fn(i64, i64) -> Option<i64>,
    ff: fn(f64, f64) -> f64,
) -> Result<Word, Trap> {
    if args.is_empty() {
        return match unit {
            Some(u) => Ok(Word::fixnum(u)),
            None => Err(Trap::WrongNumberOfArguments(format!(
                "{who}: wants at least 1 argument"
            ))),
        };
    }
    let mut acc = num_of(m, args[0], who)?;
    if args.len() == 1 && unit.is_some() {
        return make_num(m, acc);
    }
    for &w in &args[1..] {
        let y = num_of(m, w, who)?;
        acc = match (acc, y) {
            (Num::Int(a), Num::Int(b)) => Num::Int(fi(a, b).ok_or_else(|| overflow(who))?),
            _ => Num::Flo(ff(acc.as_f64(), y.as_f64())),
        };
    }
    make_num(m, acc)
}

fn compare_chain(
    m: &Machine,
    args: &[Word],
    who: &str,
    ok: fn(std::cmp::Ordering) -> bool,
) -> Result<Word, Trap> {
    for pair in args.windows(2) {
        if !ok(num_compare(m, pair[0], pair[1], who)?) {
            return Ok(Word::NIL);
        }
    }
    Ok(Word::T)
}

/// The open-coded case of a routine, on operands that are all fixnums
/// (raw or tagged): `+`, `-`, `*`, `/`, `=`, `<` or `>` of two, `1+`
/// or `1-` of one, answered with exactly the word [`rt_call`] returns
/// for them.  `None` for any other primitive, operand or count, and for
/// an overflow or a zero divisor, whose trap only the routine raises.
/// Fixnum `/` truncates, as the routine's does.
#[inline]
pub(crate) fn fixnum_fast(prim: Prim, args: &[Word]) -> Option<Word> {
    match *args {
        [x] => {
            let x = x.as_integer()?;
            match prim {
                Prim::OnePlus => x.checked_add(1),
                Prim::OneMinus => x.checked_sub(1),
                _ => None,
            }
            .map(Word::fixnum)
        }
        [x, y] => {
            let (x, y) = (x.as_integer()?, y.as_integer()?);
            match prim {
                Prim::Add => x.checked_add(y).map(Word::fixnum),
                Prim::Sub => x.checked_sub(y).map(Word::fixnum),
                Prim::Mul => x.checked_mul(y).map(Word::fixnum),
                Prim::Div => x.checked_div(y).map(Word::fixnum),
                Prim::NumEq => Some(boolean(x == y)),
                Prim::Lt => Some(boolean(x < y)),
                Prim::Gt => Some(boolean(x > y)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// A flonum argument of a `$f` routine.
fn flonum_arg(m: &Machine, w: Word, who: &str) -> Result<f64, Trap> {
    match num_of(m, w, who)? {
        Num::Flo(x) => Ok(x),
        Num::Int(_) => Err(wrong(format!("{who}: not a flonum"))),
    }
}

/// `floor`, `ceiling`, `truncate` or `round` of a float.
fn round_to(prim: Prim, f: f64) -> i64 {
    (match prim {
        Prim::Floor => f.floor(),
        Prim::Ceiling => f.ceil(),
        Prim::Truncate => f.trunc(),
        _ => f.round_ties_even(),
    }) as i64
}

/// Runs the routine for `prim`: one arity check against the primitive
/// table, before any argument is read, then dispatch on the number.
#[allow(clippy::too_many_lines)]
pub(crate) fn rt_call(m: &mut Machine, prim: Prim, args: &[Word]) -> Result<RtResult, Trap> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    prim.check_arity(args.len())
        .map_err(Trap::WrongNumberOfArguments)?;
    let name = prim.name();
    let v = match prim {
        Prim::Add => fold_num(m, args, name, Some(0), i64::checked_add, |a, b| a + b)?,
        Prim::Mul => fold_num(m, args, name, Some(1), i64::checked_mul, |a, b| a * b)?,
        Prim::Sub => {
            if args.len() == 1 {
                let n = num_of(m, args[0], name)?;
                let r = match n {
                    Num::Int(v) => {
                        Num::Int(v.checked_neg().ok_or_else(|| wrong("-: fixnum overflow"))?)
                    }
                    Num::Flo(x) => Num::Flo(-x),
                };
                make_num(m, r)?
            } else {
                fold_num(m, args, name, None, i64::checked_sub, |a, b| a - b)?
            }
        }
        Prim::Div => {
            if args
                .iter()
                .skip(1)
                .any(|&w| matches!(num_of(m, w, name), Ok(Num::Int(0))))
                && args
                    .iter()
                    .all(|&w| matches!(num_of(m, w, name), Ok(Num::Int(_))))
            {
                return Err(Trap::DivisionByZero);
            }
            if args.len() == 1 {
                let x = num_of(m, args[0], name)?.as_f64();
                make_num(m, Num::Flo(1.0 / x))?
            } else {
                fold_num(m, args, name, None, i64::checked_div, |a, b| a / b)?
            }
        }
        Prim::OnePlus | Prim::OneMinus => {
            let delta = if prim == Prim::OnePlus { 1 } else { -1 };
            let r = match num_of(m, args[0], name)? {
                Num::Int(v) => Num::Int(
                    v.checked_add(delta)
                        .ok_or_else(|| wrong(format!("{name}: fixnum overflow")))?,
                ),
                Num::Flo(x) => Num::Flo(x + delta as f64),
            };
            make_num(m, r)?
        }
        Prim::Abs => {
            let r = match num_of(m, args[0], name)? {
                Num::Int(v) => Num::Int(v.checked_abs().ok_or_else(|| overflow(name))?),
                Num::Flo(x) => Num::Flo(x.abs()),
            };
            make_num(m, r)?
        }
        Prim::Min => fold_num(m, args, name, None, |a, b| Some(a.min(b)), f64::min)?,
        Prim::Max => fold_num(m, args, name, None, |a, b| Some(a.max(b)), f64::max)?,
        Prim::Floor | Prim::Ceiling | Prim::Truncate | Prim::Round => {
            let x = num_of(m, args[0], name)?;
            let r = match (x, args.get(1)) {
                (Num::Int(n), None) => n,
                (Num::Flo(f), None) => round_to(prim, f),
                (x, Some(&b)) => match (x, num_of(m, b, name)?) {
                    (Num::Int(_), Num::Int(0)) => return Err(Trap::DivisionByZero),
                    (Num::Int(p), Num::Int(q)) => match prim {
                        Prim::Floor => p.checked_div_euclid(q),
                        Prim::Ceiling => p
                            .checked_rem_euclid(q)
                            .and_then(|r| Some(p.checked_div_euclid(q)? + i64::from(r != 0))),
                        Prim::Truncate => p.checked_div(q),
                        _ => p
                            .checked_div(q)
                            .map(|_| (p as f64 / q as f64).round_ties_even() as i64),
                    }
                    .ok_or_else(|| overflow(name))?,
                    (x, y) => round_to(prim, x.as_f64() / y.as_f64()),
                },
            };
            Word::fixnum(r)
        }
        Prim::Mod | Prim::Rem => {
            let x = num_of(m, args[0], name)?;
            let y = num_of(m, args[1], name)?;
            let r = match (x, y) {
                (Num::Int(a), Num::Int(b)) => {
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    Num::Int(
                        if prim == Prim::Mod {
                            a.checked_rem_euclid(b)
                        } else {
                            a.checked_rem(b)
                        }
                        .ok_or_else(|| overflow(name))?,
                    )
                }
                _ => {
                    let (a, b) = (x.as_f64(), y.as_f64());
                    Num::Flo(if prim == Prim::Mod {
                        a.rem_euclid(b)
                    } else {
                        a % b
                    })
                }
            };
            make_num(m, r)?
        }
        Prim::Expt => {
            let b = num_of(m, args[0], name)?;
            let e = num_of(m, args[1], name)?;
            let r = match (b, e) {
                (Num::Int(b), Num::Int(e)) if e >= 0 => {
                    let e = u32::try_from(e).map_err(|_| wrong("expt: exponent too large"))?;
                    Num::Int(b.checked_pow(e).ok_or_else(|| overflow(name))?)
                }
                _ => Num::Flo(b.as_f64().powf(e.as_f64())),
            };
            make_num(m, r)?
        }
        Prim::NumEq => compare_chain(m, args, name, |o| o == Equal)?,
        Prim::NumNe => compare_chain(m, args, name, |o| o != Equal)?,
        Prim::Lt => compare_chain(m, args, name, |o| o == Less)?,
        Prim::Gt => compare_chain(m, args, name, |o| o == Greater)?,
        Prim::Le => compare_chain(m, args, name, |o| o != Greater)?,
        Prim::Ge => compare_chain(m, args, name, |o| o != Less)?,
        Prim::Zerop | Prim::Plusp | Prim::Minusp => {
            let x = num_of(m, args[0], name)?.as_f64();
            boolean(match prim {
                Prim::Zerop => x == 0.0,
                Prim::Plusp => x > 0.0,
                _ => x < 0.0,
            })
        }
        Prim::Oddp | Prim::Evenp => {
            let n = fix_of(m, args[0], name)?;
            boolean((n.rem_euclid(2) == 1) == (prim == Prim::Oddp))
        }
        Prim::Sqrt | Prim::Sin | Prim::Cos | Prim::Atan | Prim::Exp | Prim::Log => {
            let x = num_of(m, args[0], name)?.as_f64();
            let r = match prim {
                Prim::Sqrt => x.sqrt(),
                Prim::Sin => x.sin(),
                Prim::Cos => x.cos(),
                Prim::Atan => match args.get(1) {
                    Some(&y) => x.atan2(num_of(m, y, name)?.as_f64()),
                    None => x.atan(),
                },
                Prim::Exp => x.exp(),
                _ => x.ln(),
            };
            make_num(m, Num::Flo(r))?
        }
        Prim::Float => {
            let x = num_of(m, args[0], name)?.as_f64();
            make_num(m, Num::Flo(x))?
        }
        Prim::Fix => Word::fixnum(num_of(m, args[0], name)?.as_f64() as i64),
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
            let n = fix_of(m, args[0], name)?;
            let ws = list_words(m, args[1], name)?;
            ws.get(n as usize).copied().unwrap_or(Word::NIL)
        }
        Prim::Nthcdr => {
            let n = fix_of(m, args[0], name)?;
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
        // The type-specific operators normally compile in line; the
        // runtime versions exist for `funcall`/`apply` through values.
        Prim::AbsF | Prim::SqrtF | Prim::SinF | Prim::CosF | Prim::SincF | Prim::CoscF => {
            let x = flonum_arg(m, args[0], name)?;
            let r = match prim {
                Prim::AbsF => x.abs(),
                Prim::SqrtF => x.sqrt(),
                Prim::SinF => x.sin(),
                Prim::CosF => x.cos(),
                Prim::SincF => (x * std::f64::consts::TAU).sin(),
                _ => (x * std::f64::consts::TAU).cos(),
            };
            make_num(m, Num::Flo(r))?
        }
        Prim::AddF | Prim::SubF | Prim::MulF | Prim::DivF | Prim::MaxF | Prim::MinF => {
            let mut acc = flonum_arg(m, args[0], name)?;
            if args.len() == 1 {
                acc = -acc; // only `-$f` takes one argument
            }
            for &a in &args[1..] {
                let y = flonum_arg(m, a, name)?;
                acc = match prim {
                    Prim::AddF => acc + y,
                    Prim::SubF => acc - y,
                    Prim::MulF => acc * y,
                    Prim::DivF => acc / y,
                    Prim::MaxF => acc.max(y),
                    _ => acc.min(y),
                };
            }
            make_num(m, Num::Flo(acc))?
        }
        Prim::AddI | Prim::SubI | Prim::MulI => {
            let mut acc = fix_of(m, args[0], name)?;
            for &a in &args[1..] {
                let y = fix_of(m, a, name)?;
                acc = match prim {
                    Prim::AddI => acc.checked_add(y),
                    Prim::SubI => acc.checked_sub(y),
                    _ => acc.checked_mul(y),
                }
                .ok_or_else(|| overflow(name))?;
            }
            Word::fixnum(acc)
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
        Value::Cons(cell) => {
            let a = inject(m, &cell.car.borrow(), held)?;
            held.push(a);
            let d = inject(m, &cell.cdr.borrow(), held);
            held.pop();
            cons(m, a, d?, held)?
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

/// Reads machine data back into a host value.
pub(crate) fn extract(m: &Machine, w: Word) -> Result<Value, Trap> {
    ReadBack {
        m,
        names: Interner::new(),
        by_id: Vec::new(),
    }
    .value(w, 0)
}

/// One read-back: its symbols are made once per symbol id (and `t`
/// once), however often they occur in the structure.
struct ReadBack<'m> {
    m: &'m Machine,
    names: Interner,
    by_id: Vec<Option<Symbol>>,
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
            Word::Ptr(Tag::Cons, addr) => Value::cons(
                self.value(m.read_mem(addr)?, depth + 1)?,
                self.value(m.read_mem(addr + 1)?, depth + 1)?,
            ),
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
