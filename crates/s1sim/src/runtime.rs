//! The Lisp run-time system: primitive operations that are too large to
//! compile in line, operating directly on machine words and the tagged
//! heap, plus the host boundary (injecting/extracting [`Value`]s).
//!
//! These routines are what the compiled code reaches through
//! [`Insn::RtCall`](crate::Insn::RtCall) — the moral equivalent of the
//! `%CALL (REF SQ …)` runtime entries visible in the paper's Table 4.

use s1lisp_interp::Value;

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
            match (float_of(m, a), float_of(m, b)) {
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

/// Reads a number from a pointer-format (or raw) word.
pub(crate) fn num_of(m: &Machine, w: Word) -> Result<Num, Trap> {
    match w {
        Word::Raw(n) => Ok(Num::Int(n)),
        Word::F(x) => Ok(Num::Flo(x)),
        Word::Ptr(Tag::Fixnum, n) => Ok(Num::Int(n as i64)),
        Word::Ptr(Tag::SingleFlonum, addr) => match m.read_mem(addr)? {
            Word::F(x) => Ok(Num::Flo(x)),
            other => Err(wrong(format!("corrupt flonum object: {other}"))),
        },
        other => Err(wrong(format!("not a number: {other}"))),
    }
}

/// Reads a float, dereferencing a flonum pointer and converting raw
/// integers/fixnums (generic call sites).
pub(crate) fn float_of(m: &Machine, w: Word) -> Result<f64, Trap> {
    match num_of(m, w)? {
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
        Word::Ptr(Tag::SingleFlonum, _) => float_of(m, w),
        other => Err(wrong(format!("not a flonum: {other}"))),
    }
}

/// Numeric comparison for `JmpIf`.
pub(crate) fn num_compare(m: &Machine, a: Word, b: Word) -> Result<std::cmp::Ordering, Trap> {
    let (x, y) = (num_of(m, a)?, num_of(m, b)?);
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
    match num_of(m, w)? {
        Num::Int(n) => Ok(n),
        Num::Flo(_) => Err(wrong(format!("{who}: not a fixnum"))),
    }
}

fn arity(args: &[Word], n: usize, who: &str) -> Result<(), Trap> {
    if args.len() == n {
        Ok(())
    } else {
        Err(Trap::WrongNumberOfArguments(format!(
            "{who}: wants {n}, got {}",
            args.len()
        )))
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
    let mut acc = num_of(m, args[0])?;
    if args.len() == 1 && unit.is_some() {
        return make_num(m, acc);
    }
    for &w in &args[1..] {
        let y = num_of(m, w)?;
        acc = match (acc, y) {
            (Num::Int(a), Num::Int(b)) => {
                Num::Int(fi(a, b).ok_or_else(|| wrong(format!("{who}: fixnum overflow")))?)
            }
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
    if args.len() < 2 {
        return Err(Trap::WrongNumberOfArguments(format!(
            "{who}: wants at least 2 arguments"
        )));
    }
    for pair in args.windows(2) {
        if !ok(num_compare(m, pair[0], pair[1])?) {
            return Ok(Word::NIL);
        }
    }
    Ok(Word::T)
}

/// Dispatches a runtime routine by (possibly owned) name, trapping with
/// `UndefinedFunction` when the name is not a primitive — used when a
/// global function *value* turns out to be a builtin.
pub(crate) fn rt_call_owned(m: &mut Machine, name: &str, args: &[Word]) -> Result<RtResult, Trap> {
    rt_call(m, name, args)
}

/// Dispatches a runtime routine by name.
#[allow(clippy::too_many_lines)]
pub(crate) fn rt_call(m: &mut Machine, name: &str, args: &[Word]) -> Result<RtResult, Trap> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let v = match name {
        "+" => fold_num(m, args, "+", Some(0), i64::checked_add, |a, b| a + b)?,
        "*" => fold_num(m, args, "*", Some(1), i64::checked_mul, |a, b| a * b)?,
        "-" => {
            if args.len() == 1 {
                let n = num_of(m, args[0])?;
                let r = match n {
                    Num::Int(v) => Num::Int(v.checked_neg().ok_or_else(|| wrong("-: overflow"))?),
                    Num::Flo(x) => Num::Flo(-x),
                };
                make_num(m, r)?
            } else {
                fold_num(m, args, "-", None, i64::checked_sub, |a, b| a - b)?
            }
        }
        "/" => {
            if args
                .iter()
                .skip(1)
                .any(|&w| matches!(num_of(m, w), Ok(Num::Int(0))))
                && args
                    .iter()
                    .all(|&w| matches!(num_of(m, w), Ok(Num::Int(_))))
            {
                return Err(Trap::DivisionByZero);
            }
            if args.len() == 1 {
                let x = num_of(m, args[0])?.as_f64();
                make_num(m, Num::Flo(1.0 / x))?
            } else {
                fold_num(m, args, "/", None, i64::checked_div, |a, b| a / b)?
            }
        }
        "1+" | "1-" => {
            arity(args, 1, name)?;
            let delta = if name == "1+" { 1 } else { -1 };
            let r = match num_of(m, args[0])? {
                Num::Int(v) => Num::Int(
                    v.checked_add(delta)
                        .ok_or_else(|| wrong(format!("{name}: overflow")))?,
                ),
                Num::Flo(x) => Num::Flo(x + delta as f64),
            };
            make_num(m, r)?
        }
        "abs" => {
            arity(args, 1, "abs")?;
            let r = match num_of(m, args[0])? {
                Num::Int(v) => Num::Int(v.abs()),
                Num::Flo(x) => Num::Flo(x.abs()),
            };
            make_num(m, r)?
        }
        "min" => fold_num(m, args, "min", None, |a, b| Some(a.min(b)), f64::min)?,
        "max" => fold_num(m, args, "max", None, |a, b| Some(a.max(b)), f64::max)?,
        "floor" | "ceiling" | "truncate" | "round" => {
            let (q, who) = (name, name);
            let r = match args {
                [x] => match num_of(m, *x)? {
                    Num::Int(n) => n,
                    Num::Flo(f) => match q {
                        "floor" => f.floor() as i64,
                        "ceiling" => f.ceil() as i64,
                        "truncate" => f.trunc() as i64,
                        _ => f.round_ties_even() as i64,
                    },
                },
                [a, b] => {
                    let x = num_of(m, *a)?;
                    let y = num_of(m, *b)?;
                    match (x, y) {
                        (Num::Int(p), Num::Int(q2)) => {
                            if q2 == 0 {
                                return Err(Trap::DivisionByZero);
                            }
                            match q {
                                "floor" => p.div_euclid(q2),
                                "ceiling" => p.div_euclid(q2) + i64::from(p.rem_euclid(q2) != 0),
                                "truncate" => p / q2,
                                _ => {
                                    let f = p as f64 / q2 as f64;
                                    f.round_ties_even() as i64
                                }
                            }
                        }
                        _ => {
                            let f = x.as_f64() / y.as_f64();
                            match q {
                                "floor" => f.floor() as i64,
                                "ceiling" => f.ceil() as i64,
                                "truncate" => f.trunc() as i64,
                                _ => f.round_ties_even() as i64,
                            }
                        }
                    }
                }
                _ => {
                    return Err(Trap::WrongNumberOfArguments(format!(
                        "{who}: wants 1 or 2 arguments"
                    )))
                }
            };
            Word::fixnum(r)
        }
        "mod" | "rem" => {
            arity(args, 2, name)?;
            let x = num_of(m, args[0])?;
            let y = num_of(m, args[1])?;
            let r = match (x, y) {
                (Num::Int(a), Num::Int(b)) => {
                    if b == 0 {
                        return Err(Trap::DivisionByZero);
                    }
                    Num::Int(if name == "mod" {
                        a.rem_euclid(b)
                    } else {
                        a % b
                    })
                }
                _ => {
                    let (a, b) = (x.as_f64(), y.as_f64());
                    Num::Flo(if name == "mod" {
                        a.rem_euclid(b)
                    } else {
                        a % b
                    })
                }
            };
            make_num(m, r)?
        }
        "expt" => {
            arity(args, 2, "expt")?;
            let b = num_of(m, args[0])?;
            let e = num_of(m, args[1])?;
            let r = match (b, e) {
                (Num::Int(b), Num::Int(e)) if e >= 0 => {
                    let e = u32::try_from(e).map_err(|_| wrong("expt: exponent too large"))?;
                    Num::Int(b.checked_pow(e).ok_or_else(|| wrong("expt: overflow"))?)
                }
                _ => Num::Flo(b.as_f64().powf(e.as_f64())),
            };
            make_num(m, r)?
        }
        "=" => compare_chain(m, args, "=", |o| o == Equal)?,
        "/=" => compare_chain(m, args, "/=", |o| o != Equal)?,
        "<" => compare_chain(m, args, "<", |o| o == Less)?,
        ">" => compare_chain(m, args, ">", |o| o == Greater)?,
        "<=" => compare_chain(m, args, "<=", |o| o != Greater)?,
        ">=" => compare_chain(m, args, ">=", |o| o != Less)?,
        "zerop" | "plusp" | "minusp" => {
            arity(args, 1, name)?;
            let x = num_of(m, args[0])?.as_f64();
            boolean(match name {
                "zerop" => x == 0.0,
                "plusp" => x > 0.0,
                _ => x < 0.0,
            })
        }
        "oddp" | "evenp" => {
            arity(args, 1, name)?;
            let n = fix_of(m, args[0], name)?;
            boolean((n.rem_euclid(2) == 1) == (name == "oddp"))
        }
        "sqrt" | "sin" | "cos" | "atan" | "exp" | "log" => {
            let x = num_of(m, args[0])?.as_f64();
            let r = match name {
                "sqrt" => x.sqrt(),
                "sin" => x.sin(),
                "cos" => x.cos(),
                "atan" => {
                    if args.len() == 2 {
                        x.atan2(num_of(m, args[1])?.as_f64())
                    } else {
                        x.atan()
                    }
                }
                "exp" => x.exp(),
                _ => x.ln(),
            };
            make_num(m, Num::Flo(r))?
        }
        "float" => {
            arity(args, 1, "float")?;
            let x = num_of(m, args[0])?.as_f64();
            make_num(m, Num::Flo(x))?
        }
        "fix" => {
            arity(args, 1, "fix")?;
            Word::fixnum(num_of(m, args[0])?.as_f64() as i64)
        }
        "null" | "not" => {
            arity(args, 1, name)?;
            boolean(!args[0].is_true())
        }
        "atom" => boolean(!matches!(args[0], Word::Ptr(Tag::Cons, _))),
        "consp" => boolean(matches!(args[0], Word::Ptr(Tag::Cons, _))),
        "listp" => boolean(matches!(args[0], Word::Ptr(Tag::Cons | Tag::Nil, _))),
        "symbolp" => boolean(matches!(args[0], Word::Ptr(Tag::Symbol | Tag::T, _))),
        "numberp" => boolean(matches!(
            args[0],
            Word::Ptr(Tag::Fixnum | Tag::SingleFlonum, _)
        )),
        "fixnump" => boolean(matches!(args[0], Word::Ptr(Tag::Fixnum, _))),
        "flonump" => boolean(matches!(args[0], Word::Ptr(Tag::SingleFlonum, _))),
        "stringp" => boolean(matches!(args[0], Word::Ptr(Tag::String, _))),
        "functionp" => boolean(matches!(
            args[0],
            Word::Ptr(Tag::Function | Tag::Closure, _)
        )),
        "eq" => {
            arity(args, 2, "eq")?;
            boolean(word_eq(args[0], args[1]))
        }
        "eql" => {
            arity(args, 2, "eql")?;
            boolean(word_eql(m, args[0], args[1]))
        }
        "equal" => {
            arity(args, 2, "equal")?;
            boolean(word_equal(m, args[0], args[1], 0)?)
        }
        "cons" => {
            arity(args, 2, "cons")?;
            cons(m, args[0], args[1], &[])?
        }
        "car" => {
            arity(args, 1, "car")?;
            car(m, args[0])?
        }
        "cdr" => {
            arity(args, 1, "cdr")?;
            cdr(m, args[0])?
        }
        "caar" => car(m, car(m, args[0])?)?,
        "cadr" => car(m, cdr(m, args[0])?)?,
        "cdar" => cdr(m, car(m, args[0])?)?,
        "cddr" => cdr(m, cdr(m, args[0])?)?,
        "caddr" => car(m, cdr(m, cdr(m, args[0])?)?)?,
        "cdddr" => cdr(m, cdr(m, cdr(m, args[0])?)?)?,
        "list" => from_words(m, args, Word::NIL)?,
        "list*" => {
            if args.is_empty() {
                return Err(Trap::WrongNumberOfArguments("list*: wants ≥ 1".into()));
            }
            let (last, init) = args.split_last().expect("nonempty");
            from_words(m, init, *last)?
        }
        "append" => {
            let mut all = Vec::new();
            let tail = match args.split_last() {
                None => Word::NIL,
                Some((last, init)) => {
                    for &a in init {
                        all.extend(list_words(m, a, "append")?);
                    }
                    *last
                }
            };
            from_words(m, &all, tail)?
        }
        "reverse" => {
            arity(args, 1, "reverse")?;
            let mut ws = list_words(m, args[0], "reverse")?;
            ws.reverse();
            from_words(m, &ws, Word::NIL)?
        }
        "length" => {
            arity(args, 1, "length")?;
            Word::fixnum(list_words(m, args[0], "length")?.len() as i64)
        }
        "nth" => {
            arity(args, 2, "nth")?;
            let n = fix_of(m, args[0], "nth")?;
            let ws = list_words(m, args[1], "nth")?;
            ws.get(n as usize).copied().unwrap_or(Word::NIL)
        }
        "nthcdr" => {
            arity(args, 2, "nthcdr")?;
            let n = fix_of(m, args[0], "nthcdr")?;
            let mut w = args[1];
            for _ in 0..n {
                w = cdr(m, w)?;
            }
            w
        }
        "last" => {
            arity(args, 1, "last")?;
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
        "assq" | "assoc" => {
            arity(args, 2, name)?;
            let mut found = Word::NIL;
            for pair in list_words(m, args[1], name)? {
                if let Word::Ptr(Tag::Cons, addr) = pair {
                    let key = m.read_mem(addr)?;
                    let hit = if name == "assq" {
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
        "memq" | "member" => {
            arity(args, 2, name)?;
            let mut w = args[1];
            let mut found = Word::NIL;
            while let Word::Ptr(Tag::Cons, addr) = w {
                let head = m.read_mem(addr)?;
                let hit = if name == "memq" {
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
        "rplaca" | "rplacd" => {
            arity(args, 2, name)?;
            let Word::Ptr(Tag::Cons, addr) = args[0] else {
                return Err(wrong(format!("{name}: not a cons")));
            };
            let slot = if name == "rplaca" { addr } else { addr + 1 };
            m.write_mem(slot, args[1])?;
            args[0]
        }
        "identity" => {
            arity(args, 1, "identity")?;
            args[0]
        }
        "error" => {
            let mut msg = String::new();
            for &a in args {
                let v = extract(m, a, 0)?;
                msg.push_str(&format!("{v} "));
            }
            return Err(Trap::LispError(msg.trim_end().to_string()));
        }
        "throw" => {
            arity(args, 2, "throw")?;
            return Ok(RtResult::Throw {
                tag: args[0],
                value: args[1],
            });
        }
        "%function" => {
            arity(args, 1, "%function")?;
            let Word::Ptr(Tag::Symbol, sym) = args[0] else {
                return Err(wrong("%function: wants a symbol"));
            };
            let name = m.program.symbols[sym as usize].clone();
            let id = m.program.fn_id(&name);
            Word::Ptr(Tag::Function, u64::from(id))
        }
        // The type-specific operators normally compile in line; the
        // runtime versions exist for `funcall`/`apply` through values.
        "+$f" | "-$f" | "*$f" | "/$f" | "max$f" | "min$f" | "abs$f" | "sqrt$f" | "sin$f"
        | "cos$f" | "sinc$f" | "cosc$f" => {
            let mut xs = Vec::with_capacity(args.len());
            for &a in args {
                match num_of(m, a)? {
                    Num::Flo(x) => xs.push(x),
                    Num::Int(_) => return Err(wrong(format!("{name}: not a flonum"))),
                }
            }
            let r = match (name, xs.as_slice()) {
                ("-$f", [x]) => -x,
                ("abs$f", [x]) => x.abs(),
                ("sqrt$f", [x]) => x.sqrt(),
                ("sin$f", [x]) => x.sin(),
                ("cos$f", [x]) => x.cos(),
                ("sinc$f", [x]) => (x * std::f64::consts::TAU).sin(),
                ("cosc$f", [x]) => (x * std::f64::consts::TAU).cos(),
                (_, [x, rest @ ..]) => {
                    let mut acc = *x;
                    for y in rest {
                        acc = match name {
                            "+$f" => acc + y,
                            "-$f" => acc - y,
                            "*$f" => acc * y,
                            "/$f" => acc / y,
                            "max$f" => acc.max(*y),
                            _ => acc.min(*y),
                        };
                    }
                    acc
                }
                _ => {
                    return Err(Trap::WrongNumberOfArguments(format!(
                        "{name}: bad argument count"
                    )))
                }
            };
            make_num(m, Num::Flo(r))?
        }
        "+&" | "-&" | "*&" => {
            let mut acc = fix_of(m, args[0], name)?;
            for &a in &args[1..] {
                let y = fix_of(m, a, name)?;
                acc = match name {
                    "+&" => acc.checked_add(y),
                    "-&" => acc.checked_sub(y),
                    _ => acc.checked_mul(y),
                }
                .ok_or_else(|| wrong(format!("{name}: overflow")))?;
            }
            Word::fixnum(acc)
        }
        other => return Err(Trap::UndefinedFunction(other.to_string())),
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
                let id = m.program.sym_id(s.as_str());
                Word::Ptr(Tag::Symbol, u64::from(id))
            }
        }
        Value::Str(s) => {
            let id = m.program.str_id(s);
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
            let id = m.program.fn_id(name);
            Word::Ptr(Tag::Function, u64::from(id))
        }
    })
}

/// Reads machine data back into a host value.
pub(crate) fn extract(m: &Machine, w: Word, depth: usize) -> Result<Value, Trap> {
    if depth > 100_000 {
        return Err(wrong("extract: structure too deep or circular"));
    }
    Ok(match w {
        Word::Ptr(Tag::Nil, _) => Value::Nil,
        Word::Ptr(Tag::T, _) => {
            let mut i = s1lisp_reader::Interner::new();
            Value::Sym(i.intern("t"))
        }
        Word::Ptr(Tag::Fixnum, n) => Value::Fixnum(n as i64),
        Word::Raw(n) => Value::Fixnum(n),
        Word::F(x) => Value::Flonum(x),
        Word::Ptr(Tag::SingleFlonum, addr) => match m.read_mem(addr)? {
            Word::F(x) => Value::Flonum(x),
            other => return Err(wrong(format!("corrupt flonum: {other}"))),
        },
        Word::Ptr(Tag::Symbol, id) => {
            let name = m
                .program
                .symbols
                .get(id as usize)
                .ok_or_else(|| wrong("bad symbol id"))?;
            let mut i = s1lisp_reader::Interner::new();
            Value::Sym(i.intern(name))
        }
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
            extract(m, m.read_mem(addr)?, depth + 1)?,
            extract(m, m.read_mem(addr + 1)?, depth + 1)?,
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
