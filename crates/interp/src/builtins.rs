//! Built-in (primitive) functions of the dialect.
//!
//! These are the "known primitive operations" of Table 2's `call` node.
//! Which operations exist, and how many arguments each takes, is the
//! primitive table's decision ([`Prim`], in `s1lisp-ast`); this module
//! gives their reference semantics.  [`call_builtin`] checks the
//! argument count against the table once and then dispatches on the
//! primitive's number, so no arm re-checks it.  The bytecode evaluator
//! calls the same entry point, and the S-1 run-time system implements
//! the same rows on machine words.
//!
//! Generic arithmetic (`+`, `*`, …) operates on fixnums and flonums with
//! fixnum→flonum contagion.  The `$f`-suffixed operators are the paper's
//! type-specific single-float operations ("`+$f` and `+$d` indicate
//! single-precision and double-precision floating-point addition"), and
//! the `&`-suffixed ones are fixnum-specific.  `sinc$f` is sine with the
//! argument in *cycles* (the S-1 `SIN` instruction's convention).

use std::cmp::Ordering::{self, Equal, Greater, Less};

use s1lisp_ast::Prim;
use s1lisp_reader::{Datum, Interner, Symbol};

use crate::error::LispError;
use crate::value::Value;

/// Calls primitive `p` on `args`, after checking the argument count
/// against the primitive table.
///
/// Public so that alternative execution engines (the bytecode
/// evaluator) share the primitives' reference semantics verbatim
/// instead of reimplementing them.
///
/// # Errors
///
/// A [`LispError`] for a wrong argument count or any run-time error of
/// the primitive.
pub fn call_builtin(p: Prim, args: &[Value], t: &Symbol) -> Result<Value, LispError> {
    p.check_arity(args.len()).map_err(LispError::new)?;
    dispatch(p, args, t)
}

/// Evaluates a primitive on constant (datum) operands, for the
/// compiler's compile-time expression evaluation (§5: "invoking primitive
/// functions known to be free of side effects on constant operands, a
/// very convenient thing to do in LISP").
///
/// Returns `None` if evaluation signals an error (the compiler then
/// leaves the form for run time), or if the result has no datum form.
pub fn eval_primop(p: Prim, args: &[Datum]) -> Option<Datum> {
    let t = Interner::new().intern("t");
    let argv: Vec<Value> = args.iter().map(Value::from_datum).collect();
    call_builtin(p, &argv, &t).ok()?.to_datum()
}

fn err(msg: impl Into<String>) -> LispError {
    LispError::new(msg)
}

fn num(v: &Value, who: &str) -> Result<f64, LispError> {
    match v {
        Value::Fixnum(n) => Ok(*n as f64),
        Value::Flonum(x) => Ok(*x),
        other => Err(err(format!("{who}: not a number: {other}"))),
    }
}

fn flo(v: &Value, who: &str) -> Result<f64, LispError> {
    match v {
        Value::Flonum(x) => Ok(*x),
        // The $f operators dereference pointers at run time after a type
        // check (§6.2); a fixnum is a wrong-type argument.
        other => Err(err(format!("{who}: not a flonum: {other}"))),
    }
}

fn fix(v: &Value, who: &str) -> Result<i64, LispError> {
    match v {
        Value::Fixnum(n) => Ok(*n),
        other => Err(err(format!("{who}: not a fixnum: {other}"))),
    }
}

fn both_fix(args: &[Value]) -> bool {
    args.iter().all(|a| matches!(a, Value::Fixnum(_)))
}

fn bool_v(b: bool, t: &Symbol) -> Value {
    if b {
        Value::Sym(t.clone())
    } else {
        Value::Nil
    }
}

fn fold_generic(
    args: &[Value],
    who: &str,
    unit: Option<i64>,
    fixop: fn(i64, i64) -> Option<i64>,
    floop: fn(f64, f64) -> f64,
) -> Result<Value, LispError> {
    let mut iter = args.iter();
    let first = match (iter.next(), unit) {
        (Some(v), _) => v.clone(),
        (None, Some(u)) => return Ok(Value::Fixnum(u)),
        (None, None) => return Err(err(format!("{who}: wants at least 1 argument"))),
    };
    if args.len() == 1 && unit.is_some() {
        num(&first, who)?; // type check
        return Ok(first);
    }
    let mut acc = first;
    for v in iter {
        acc = match (&acc, v) {
            (Value::Fixnum(a), Value::Fixnum(b)) => {
                Value::Fixnum(fixop(*a, *b).ok_or_else(|| err(format!("{who}: fixnum overflow")))?)
            }
            _ => Value::Flonum(floop(num(&acc, who)?, num(v, who)?)),
        };
    }
    Ok(acc)
}

/// Checks `ok` on the order of each adjacent pair.  Two fixnums are
/// ordered as integers, any pair with a flonum as floats (`None` when a
/// NaN leaves them unordered): a fixnum beyond 2^53 rounds on the way
/// to a float, so `(= 9007199254740993 9007199254740992)` would hold.
fn compare_chain(
    args: &[Value],
    who: &str,
    t: &Symbol,
    ok: fn(Option<Ordering>) -> bool,
) -> Result<Value, LispError> {
    for w in args.windows(2) {
        let order = match (&w[0], &w[1]) {
            (Value::Fixnum(a), Value::Fixnum(b)) => Some(a.cmp(b)),
            (a, b) => num(a, who)?.partial_cmp(&num(b, who)?),
        };
        if !ok(order) {
            return Ok(Value::Nil);
        }
    }
    Ok(bool_v(true, t))
}

fn car_of(v: &Value, who: &str) -> Result<Value, LispError> {
    match v {
        Value::Nil => Ok(Value::Nil), // (car '()) is () in this dialect
        Value::Cons(c) => Ok(c.car.borrow().clone()),
        other => Err(err(format!("{who}: not a list: {other}"))),
    }
}

fn cdr_of(v: &Value, who: &str) -> Result<Value, LispError> {
    match v {
        Value::Nil => Ok(Value::Nil),
        Value::Cons(c) => Ok(c.cdr.borrow().clone()),
        other => Err(err(format!("{who}: not a list: {other}"))),
    }
}

fn list_items(v: &Value, who: &str) -> Result<Vec<Value>, LispError> {
    let mut out = Vec::new();
    let mut cur = v.clone();
    loop {
        match cur {
            Value::Nil => return Ok(out),
            Value::Cons(c) => {
                out.push(c.car.borrow().clone());
                let next = c.cdr.borrow().clone();
                cur = next;
            }
            other => return Err(err(format!("{who}: improper list ending in {other}"))),
        }
    }
}

/// Runs `p` on `args`, whose count the table has already accepted.
#[allow(clippy::too_many_lines)]
fn dispatch(p: Prim, args: &[Value], t: &Symbol) -> Result<Value, LispError> {
    let who = p.name();
    match p {
        // ---- generic arithmetic ----
        Prim::Add => fold_generic(args, who, Some(0), i64::checked_add, |a, b| a + b),
        Prim::Sub => {
            if args.len() == 1 {
                match &args[0] {
                    Value::Fixnum(n) => n
                        .checked_neg()
                        .map(Value::Fixnum)
                        .ok_or_else(|| err("-: fixnum overflow")),
                    v => num(v, who).map(|x| Value::Flonum(-x)),
                }
            } else {
                fold_generic(args, who, None, i64::checked_sub, |a, b| a - b)
            }
        }
        Prim::Mul => fold_generic(args, who, Some(1), i64::checked_mul, |a, b| a * b),
        Prim::Div => {
            if both_fix(args) && args.iter().skip(1).any(|v| matches!(v, Value::Fixnum(0))) {
                Err(err("/: division by zero"))
            } else if args.len() == 1 {
                num(&args[0], who).map(|x| Value::Flonum(1.0 / x))
            } else {
                // Fixnum division truncates (the dialect has no rationals;
                // see DESIGN.md).
                fold_generic(args, who, None, i64::checked_div, |a, b| a / b)
            }
        }
        Prim::OnePlus | Prim::OneMinus => {
            let delta = if p == Prim::OnePlus { 1 } else { -1 };
            match &args[0] {
                Value::Fixnum(n) => n
                    .checked_add(delta)
                    .map(Value::Fixnum)
                    .ok_or_else(|| err(format!("{who}: fixnum overflow"))),
                v => num(v, who).map(|x| Value::Flonum(x + delta as f64)),
            }
        }
        Prim::Abs => match &args[0] {
            Value::Fixnum(n) => n
                .checked_abs()
                .map(Value::Fixnum)
                .ok_or_else(|| err("abs: fixnum overflow")),
            v => num(v, who).map(|x| Value::Flonum(x.abs())),
        },
        Prim::Min => fold_generic(args, who, None, |a, b| Some(a.min(b)), f64::min),
        Prim::Max => fold_generic(args, who, None, |a, b| Some(a.max(b)), f64::max),
        Prim::Floor => round_like(args, who, f64::floor, i64::checked_div_euclid),
        Prim::Ceiling => round_like(args, who, f64::ceil, |a, b| {
            Some(a.checked_div_euclid(b)? + i64::from(a.checked_rem_euclid(b)? != 0))
        }),
        Prim::Truncate => round_like(args, who, f64::trunc, i64::checked_div),
        Prim::Round => round_like(
            args,
            who,
            |x| x.round_ties_even(),
            |a, b| {
                a.checked_div(b)?;
                Some((a as f64 / b as f64).round_ties_even() as i64)
            },
        ),
        Prim::Mod => match (&args[0], &args[1]) {
            (Value::Fixnum(a), Value::Fixnum(b)) if *b != 0 => a
                .checked_rem_euclid(*b)
                .map(Value::Fixnum)
                .ok_or_else(|| err("mod: fixnum overflow")),
            (Value::Fixnum(_), Value::Fixnum(_)) => Err(err("mod: division by zero")),
            (a, b) => Ok(Value::Flonum(num(a, who)?.rem_euclid(num(b, who)?))),
        },
        Prim::Rem => match (&args[0], &args[1]) {
            (Value::Fixnum(a), Value::Fixnum(b)) if *b != 0 => a
                .checked_rem(*b)
                .map(Value::Fixnum)
                .ok_or_else(|| err("rem: fixnum overflow")),
            (Value::Fixnum(_), Value::Fixnum(_)) => Err(err("rem: division by zero")),
            (a, b) => Ok(Value::Flonum(num(a, who)? % num(b, who)?)),
        },
        Prim::Expt => match (&args[0], &args[1]) {
            (Value::Fixnum(b), Value::Fixnum(e)) if *e >= 0 => {
                let e = u32::try_from(*e).map_err(|_| err("expt: exponent too large"))?;
                b.checked_pow(e)
                    .map(Value::Fixnum)
                    .ok_or_else(|| err("expt: fixnum overflow"))
            }
            (b, e) => Ok(Value::Flonum(num(b, who)?.powf(num(e, who)?))),
        },
        // ---- comparisons and numeric predicates ----
        Prim::NumEq => compare_chain(args, who, t, |o| o == Some(Equal)),
        Prim::NumNe => compare_chain(args, who, t, |o| o != Some(Equal)),
        Prim::Lt => compare_chain(args, who, t, |o| o == Some(Less)),
        Prim::Gt => compare_chain(args, who, t, |o| o == Some(Greater)),
        Prim::Le => compare_chain(args, who, t, |o| matches!(o, Some(Less | Equal))),
        Prim::Ge => compare_chain(args, who, t, |o| matches!(o, Some(Greater | Equal))),
        Prim::Zerop => num(&args[0], who).map(|x| bool_v(x == 0.0, t)),
        Prim::Plusp => num(&args[0], who).map(|x| bool_v(x > 0.0, t)),
        Prim::Minusp => num(&args[0], who).map(|x| bool_v(x < 0.0, t)),
        Prim::Oddp => fix(&args[0], who).map(|n| bool_v(n.rem_euclid(2) == 1, t)),
        Prim::Evenp => fix(&args[0], who).map(|n| bool_v(n.rem_euclid(2) == 0, t)),
        // ---- type-specific arithmetic ----
        Prim::AddF => binf(args, who, |a, b| a + b),
        Prim::SubF => {
            if args.len() == 1 {
                flo(&args[0], who).map(|x| Value::Flonum(-x))
            } else {
                binf(args, who, |a, b| a - b)
            }
        }
        Prim::MulF => binf(args, who, |a, b| a * b),
        Prim::DivF => binf(args, who, |a, b| a / b),
        Prim::MaxF => binf(args, who, f64::max),
        Prim::MinF => binf(args, who, f64::min),
        Prim::AbsF => un_flo(args, who, f64::abs),
        Prim::AddI => bini(args, who, i64::checked_add),
        Prim::SubI => bini(args, who, i64::checked_sub),
        Prim::MulI => bini(args, who, i64::checked_mul),
        // ---- transcendental ----
        Prim::Sqrt => un_num(args, who, f64::sqrt),
        Prim::SqrtF => un_flo(args, who, f64::sqrt),
        Prim::Sin => un_num(args, who, f64::sin),
        Prim::Cos => un_num(args, who, f64::cos),
        Prim::SinF => un_flo(args, who, f64::sin),
        Prim::CosF => un_flo(args, who, f64::cos),
        // Sine/cosine with argument in *cycles*: the S-1's native
        // convention (§7: "the S-1 SIN instruction assumes its argument
        // to be in cycles").
        Prim::SincF => un_flo(args, who, |x| (x * 2.0 * std::f64::consts::PI).sin()),
        Prim::CoscF => un_flo(args, who, |x| (x * 2.0 * std::f64::consts::PI).cos()),
        Prim::Atan => match args {
            [y, x] => Ok(Value::Flonum(num(y, who)?.atan2(num(x, who)?))),
            _ => un_num(args, who, f64::atan),
        },
        Prim::Exp => un_num(args, who, f64::exp),
        Prim::Log => un_num(args, who, f64::ln),
        Prim::Float => num(&args[0], who).map(Value::Flonum),
        Prim::Fix => num(&args[0], who).map(|x| Value::Fixnum(x as i64)),
        // ---- predicates ----
        Prim::Null | Prim::Not => Ok(bool_v(!args[0].is_true(), t)),
        Prim::Atom => Ok(bool_v(!matches!(args[0], Value::Cons(_)), t)),
        Prim::Consp => Ok(bool_v(matches!(args[0], Value::Cons(_)), t)),
        Prim::Listp => Ok(bool_v(matches!(args[0], Value::Cons(_) | Value::Nil), t)),
        Prim::Symbolp => Ok(bool_v(matches!(args[0], Value::Sym(_)), t)),
        Prim::Numberp => Ok(bool_v(
            matches!(args[0], Value::Fixnum(_) | Value::Flonum(_)),
            t,
        )),
        Prim::Fixnump => Ok(bool_v(matches!(args[0], Value::Fixnum(_)), t)),
        Prim::Flonump => Ok(bool_v(matches!(args[0], Value::Flonum(_)), t)),
        Prim::Stringp => Ok(bool_v(matches!(args[0], Value::Str(_)), t)),
        Prim::Functionp => Ok(bool_v(matches!(args[0], Value::Func(_)), t)),
        Prim::Eq => Ok(bool_v(args[0].eq_p(&args[1]), t)),
        Prim::Eql => Ok(bool_v(args[0].eql_p(&args[1]), t)),
        Prim::Equal => Ok(bool_v(args[0].equal_p(&args[1]), t)),
        // ---- lists ----
        Prim::Cons => Ok(Value::cons(args[0].clone(), args[1].clone())),
        Prim::Car => car_of(&args[0], who),
        Prim::Cdr => cdr_of(&args[0], who),
        Prim::Caar => car_of(&car_of(&args[0], who)?, who),
        Prim::Cadr => car_of(&cdr_of(&args[0], who)?, who),
        Prim::Cdar => cdr_of(&car_of(&args[0], who)?, who),
        Prim::Cddr => cdr_of(&cdr_of(&args[0], who)?, who),
        Prim::Caddr => car_of(&cdr_of(&cdr_of(&args[0], who)?, who)?, who),
        Prim::Cdddr => cdr_of(&cdr_of(&cdr_of(&args[0], who)?, who)?, who),
        Prim::List => Ok(Value::list(args.iter().cloned())),
        Prim::ListStar => Ok(match args.split_last() {
            Some((last, init)) => init
                .iter()
                .rev()
                .fold(last.clone(), |out, v| Value::cons(v.clone(), out)),
            None => Value::Nil,
        }),
        Prim::Append => {
            let Some((last, init)) = args.split_last() else {
                return Ok(Value::Nil);
            };
            let mut items = Vec::new();
            for a in init {
                items.append(&mut list_items(a, who)?);
            }
            let mut out = last.clone();
            for v in items.into_iter().rev() {
                out = Value::cons(v, out);
            }
            Ok(out)
        }
        Prim::Reverse => list_items(&args[0], who).map(|mut v| {
            v.reverse();
            Value::list(v)
        }),
        Prim::Length => list_items(&args[0], who).map(|v| Value::Fixnum(v.len() as i64)),
        Prim::Nth => {
            let n = fix(&args[0], who)?;
            let items = list_items(&args[1], who)?;
            Ok(items.get(n as usize).cloned().unwrap_or(Value::Nil))
        }
        Prim::Nthcdr => {
            let n = fix(&args[0], who)?;
            let mut cur = args[1].clone();
            for _ in 0..n {
                cur = cdr_of(&cur, who)?;
            }
            Ok(cur)
        }
        Prim::Last => {
            let mut cur = args[0].clone();
            loop {
                match &cur {
                    Value::Cons(c) if matches!(&*c.cdr.borrow(), Value::Cons(_)) => {
                        let next = c.cdr.borrow().clone();
                        cur = next;
                    }
                    _ => return Ok(cur),
                }
            }
        }
        Prim::Assq | Prim::Assoc => {
            let items = list_items(&args[1], who)?;
            for pair in items {
                if let Value::Cons(c) = &pair {
                    let key = c.car.borrow().clone();
                    let hit = if p == Prim::Assq {
                        key.eq_p(&args[0])
                    } else {
                        key.equal_p(&args[0])
                    };
                    if hit {
                        return Ok(pair);
                    }
                }
            }
            Ok(Value::Nil)
        }
        Prim::Memq | Prim::Member => {
            let mut cur = args[1].clone();
            loop {
                match &cur {
                    Value::Cons(c) => {
                        let head = c.car.borrow().clone();
                        let hit = if p == Prim::Memq {
                            head.eq_p(&args[0])
                        } else {
                            head.equal_p(&args[0])
                        };
                        if hit {
                            return Ok(cur);
                        }
                        let next = c.cdr.borrow().clone();
                        cur = next;
                    }
                    _ => return Ok(Value::Nil),
                }
            }
        }
        Prim::Rplaca | Prim::Rplacd => match &args[0] {
            Value::Cons(c) => {
                let slot = if p == Prim::Rplaca { &c.car } else { &c.cdr };
                *slot.borrow_mut() = args[1].clone();
                Ok(args[0].clone())
            }
            other => Err(err(format!("{who}: not a cons: {other}"))),
        },
        Prim::Identity => Ok(args[0].clone()),
        Prim::Error => Err(err(format!(
            "error: {}",
            args.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        ))),
        // The evaluator runs these before dispatch; as function values
        // they have never been callable.
        Prim::Throw | Prim::Apply | Prim::Function => Err(err(format!("undefined function {who}"))),
    }
}

fn round_like(
    args: &[Value],
    who: &str,
    f: fn(f64) -> f64,
    fi: fn(i64, i64) -> Option<i64>,
) -> Result<Value, LispError> {
    match args {
        [Value::Fixnum(n)] => Ok(Value::Fixnum(*n)),
        [v] => Ok(Value::Fixnum(f(num(v, who)?) as i64)),
        [Value::Fixnum(a), Value::Fixnum(b)] => {
            if *b == 0 {
                Err(err(format!("{who}: division by zero")))
            } else {
                fi(*a, *b)
                    .map(Value::Fixnum)
                    .ok_or_else(|| err(format!("{who}: fixnum overflow")))
            }
        }
        [a, b] => Ok(Value::Fixnum(f(num(a, who)? / num(b, who)?) as i64)),
        _ => Err(err(format!("{who}: wants 1 or 2 arguments"))),
    }
}

fn binf(args: &[Value], who: &str, f: fn(f64, f64) -> f64) -> Result<Value, LispError> {
    let mut acc = flo(&args[0], who)?;
    for v in &args[1..] {
        acc = f(acc, flo(v, who)?);
    }
    Ok(Value::Flonum(acc))
}

fn bini(args: &[Value], who: &str, f: fn(i64, i64) -> Option<i64>) -> Result<Value, LispError> {
    let mut acc = fix(&args[0], who)?;
    for v in &args[1..] {
        acc = f(acc, fix(v, who)?).ok_or_else(|| err(format!("{who}: fixnum overflow")))?;
    }
    Ok(Value::Fixnum(acc))
}

fn un_num(args: &[Value], who: &str, f: fn(f64) -> f64) -> Result<Value, LispError> {
    Ok(Value::Flonum(f(num(&args[0], who)?)))
}

fn un_flo(args: &[Value], who: &str, f: fn(f64) -> f64) -> Result<Value, LispError> {
    Ok(Value::Flonum(f(flo(&args[0], who)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Symbol {
        Interner::new().intern("t")
    }

    fn prim(name: &str) -> Prim {
        Prim::from_name(name).expect("a primitive")
    }

    fn call(name: &str, args: &[Value]) -> Value {
        call_builtin(prim(name), args, &t()).unwrap()
    }

    fn call_err(name: &str, args: &[Value]) -> LispError {
        call_builtin(prim(name), args, &t()).unwrap_err()
    }

    #[test]
    fn generic_arithmetic_contagion() {
        assert_eq!(
            call("+", &[Value::Fixnum(1), Value::Fixnum(2)]),
            Value::Fixnum(3)
        );
        assert_eq!(
            call("+", &[Value::Fixnum(1), Value::Flonum(2.5)]),
            Value::Flonum(3.5)
        );
        assert_eq!(call("+", &[]), Value::Fixnum(0));
        assert_eq!(call("*", &[]), Value::Fixnum(1));
        assert_eq!(call("-", &[Value::Fixnum(5)]), Value::Fixnum(-5));
        assert_eq!(
            call("/", &[Value::Fixnum(7), Value::Fixnum(2)]),
            Value::Fixnum(3)
        );
        assert!(call_err("/", &[Value::Fixnum(1), Value::Fixnum(0)])
            .message
            .contains("zero"));
        assert!(call_err("+", &[Value::Fixnum(i64::MAX), Value::Fixnum(1)])
            .message
            .contains("overflow"));
    }

    #[test]
    fn comparisons_chain() {
        let args = [Value::Fixnum(1), Value::Fixnum(2), Value::Fixnum(3)];
        assert!(call("<", &args).is_true());
        assert!(!call(">", &args).is_true());
        assert!(call("=", &[Value::Fixnum(2), Value::Flonum(2.0)]).is_true());
    }

    #[test]
    fn float_specific_ops_require_flonums() {
        assert_eq!(
            call("+$f", &[Value::Flonum(1.0), Value::Flonum(2.0)]),
            Value::Flonum(3.0)
        );
        assert!(call_err("+$f", &[Value::Fixnum(1), Value::Flonum(2.0)])
            .message
            .contains("not a flonum"));
    }

    #[test]
    fn sinc_is_sine_of_cycles() {
        // sin(2π·0.25) = 1.
        let v = call("sinc$f", &[Value::Flonum(0.25)]);
        let Value::Flonum(x) = v else { panic!() };
        assert!((x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn floor_variants() {
        assert_eq!(call("floor", &[Value::Flonum(2.7)]), Value::Fixnum(2));
        assert_eq!(
            call("floor", &[Value::Fixnum(-7), Value::Fixnum(2)]),
            Value::Fixnum(-4)
        );
        assert_eq!(
            call("truncate", &[Value::Fixnum(-7), Value::Fixnum(2)]),
            Value::Fixnum(-3)
        );
        assert_eq!(
            call("mod", &[Value::Fixnum(-7), Value::Fixnum(2)]),
            Value::Fixnum(1)
        );
        assert_eq!(
            call("rem", &[Value::Fixnum(-7), Value::Fixnum(2)]),
            Value::Fixnum(-1)
        );
    }

    #[test]
    fn list_operations() {
        let l = call(
            "list",
            &[Value::Fixnum(1), Value::Fixnum(2), Value::Fixnum(3)],
        );
        assert_eq!(call("length", std::slice::from_ref(&l)), Value::Fixnum(3));
        assert_eq!(call("car", std::slice::from_ref(&l)), Value::Fixnum(1));
        assert_eq!(call("cadr", std::slice::from_ref(&l)), Value::Fixnum(2));
        assert_eq!(call("caddr", std::slice::from_ref(&l)), Value::Fixnum(3));
        assert_eq!(call("car", &[Value::Nil]), Value::Nil);
        let r = call("reverse", std::slice::from_ref(&l));
        assert_eq!(call("car", &[r]), Value::Fixnum(3));
        assert_eq!(
            call("nth", &[Value::Fixnum(1), l.clone()]),
            Value::Fixnum(2)
        );
        let ap = call("append", &[l.clone(), l.clone()]);
        assert_eq!(call("length", &[ap]), Value::Fixnum(6));
    }

    #[test]
    fn assoc_and_member() {
        let mut i = Interner::new();
        let a = Value::Sym(i.intern("a"));
        let b = Value::Sym(i.intern("b"));
        let alist = Value::list([
            Value::cons(a.clone(), Value::Fixnum(1)),
            Value::cons(b.clone(), Value::Fixnum(2)),
        ]);
        let hit = call("assq", &[b.clone(), alist.clone()]);
        assert_eq!(call("cdr", &[hit]), Value::Fixnum(2));
        assert_eq!(call("assq", &[Value::Fixnum(9), alist]), Value::Nil);
        let l = Value::list([a.clone(), b.clone()]);
        assert!(call("memq", &[b, l.clone()]).is_true());
        assert!(!call("memq", &[Value::Fixnum(1), l]).is_true());
    }

    #[test]
    fn rplaca_mutates() {
        let c = Value::cons(Value::Fixnum(1), Value::Nil);
        call("rplaca", &[c.clone(), Value::Fixnum(9)]);
        assert_eq!(call("car", &[c]), Value::Fixnum(9));
    }

    #[test]
    fn predicates() {
        assert!(call("null", &[Value::Nil]).is_true());
        assert!(call("atom", &[Value::Fixnum(1)]).is_true());
        assert!(!call("atom", &[Value::cons(Value::Nil, Value::Nil)]).is_true());
        assert!(call("fixnump", &[Value::Fixnum(1)]).is_true());
        assert!(call("flonump", &[Value::Flonum(1.0)]).is_true());
        assert!(call("zerop", &[Value::Fixnum(0)]).is_true());
        assert!(call("oddp", &[Value::Fixnum(-3)]).is_true());
        assert!(call("evenp", &[Value::Fixnum(-4)]).is_true());
    }

    #[test]
    fn error_builtin_signals() {
        assert!(call_err("error", &[Value::Fixnum(1)])
            .message
            .contains("error"));
    }

    #[test]
    fn expt_by_squaring_matches() {
        assert_eq!(
            call("expt", &[Value::Fixnum(3), Value::Fixnum(10)]),
            Value::Fixnum(59049)
        );
    }
}
