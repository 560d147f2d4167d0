//! Built-in (primitive) functions of the dialect.
//!
//! These are the "known primitive operations" of Table 2's `call` node.
//! Which operations exist, and how many arguments each takes, is the
//! primitive table's decision ([`Prim`], in `s1lisp-ast`), and so are
//! the numeric rows themselves: `s1lisp_ast::num` defines them once,
//! and this module only reads [`Value`]s as its operands and turns its
//! answers and errors back into values.  The other rows' reference
//! semantics are given here.  [`call_builtin`] checks the argument
//! count against the table once and then dispatches on the primitive's
//! number, so no arm re-checks it.  The bytecode evaluator calls the
//! same entry point and the constant folder reaches it through
//! [`eval_primop`]; the S-1 run-time system adapts the same numeric
//! rows to machine words.
//!
//! Generic arithmetic (`+`, `*`, …) operates on fixnums and flonums with
//! fixnum→flonum contagion.  The `$f`-suffixed operators are the paper's
//! type-specific single-float operations ("`+$f` and `+$d` indicate
//! single-precision and double-precision floating-point addition"), and
//! the `&`-suffixed ones are fixnum-specific.

use s1lisp_ast::num::{self, Answer, Num, NumError};
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

fn bool_v(b: bool, t: &Symbol) -> Value {
    if b {
        Value::Sym(t.clone())
    } else {
        Value::Nil
    }
}

fn number(v: &Value) -> Option<Num> {
    match v {
        Value::Fixnum(n) => Some(Num::Int(*n)),
        Value::Flonum(x) => Some(Num::Flo(*x)),
        _ => None,
    }
}

/// A numeric row's error as the interpreter reports it, naming the
/// offending operand as it prints.
#[cold]
fn num_error(p: Prim, e: NumError, args: &[Value]) -> LispError {
    err(e.message(p.name(), |i| args[i].to_string()))
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
            let Value::Fixnum(n) = args[0] else {
                return Err(num_error(p, NumError::NotAFixnum(0), args));
            };
            let items = list_items(&args[1], who)?;
            Ok(items.get(n as usize).cloned().unwrap_or(Value::Nil))
        }
        Prim::Nthcdr => {
            let Value::Fixnum(n) = args[0] else {
                return Err(num_error(p, NumError::NotAFixnum(0), args));
            };
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
        // Every other row is numeric.
        _ => match num::apply(p, args, number).expect("a numeric row") {
            Ok(Answer::Num(Num::Int(n))) => Ok(Value::Fixnum(n)),
            Ok(Answer::Num(Num::Flo(x))) => Ok(Value::Flonum(x)),
            Ok(Answer::Bool(b)) => Ok(bool_v(b, t)),
            Err(e) => Err(num_error(p, e, args)),
        },
    }
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
