//! Built-in (primitive) functions of the dialect.
//!
//! These are the "known primitive operations" of Table 2's `call` node.
//! Which operations exist, and how many arguments each takes, is the
//! primitive table's decision ([`Prim`], in `s1lisp-ast`), and so are
//! the rows: `s1lisp_ast::num` defines the numeric rows once and
//! `s1lisp_ast::lists` the list rows.  This module adapts them to
//! [`Value`]s, serving the list rows as their engine ([`Values`]), and
//! keeps only `error`.  [`call_builtin`] checks the argument count once,
//! then dispatches on the row; the bytecode evaluator calls it too, and
//! the constant folder reaches it through [`eval_primop`].
//!
//! Generic arithmetic (`+`, `*`, …) operates on fixnums and flonums with
//! fixnum→flonum contagion.  The `$f`-suffixed operators are the paper's
//! type-specific single-float operations ("`+$f` and `+$d` indicate
//! single-precision and double-precision floating-point addition"), and
//! the `&`-suffixed ones are fixnum-specific.

use std::cell::RefCell;

use s1lisp_ast::lists::{self, Engine, Kind};
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
    LispError::new(e.message(p.name(), |i| args[i].to_string()))
}

/// The interpreter's values as the list rows' engine: conses are shared
/// cells, `eq` is [`Value::eq_p`] and `eql` [`Value::eql_p`], and two
/// strings are `equal` when their text is.  The bytecode evaluator
/// spreads `apply`'s list through it too.
pub struct Values;

impl Engine for Values {
    type Value = Value;
    type Error = LispError;
    const NIL: Value = Value::Nil;

    #[inline]
    fn kind(&self, v: &Value) -> Kind {
        match v {
            Value::Nil => Kind::Nil,
            Value::Cons(_) => Kind::Cons,
            Value::Fixnum(n) => Kind::Fixnum(*n),
            Value::Sym(_) => Kind::Atom(Prim::Symbolp),
            Value::Flonum(_) => Kind::Atom(Prim::Flonump),
            Value::Str(_) => Kind::Atom(Prim::Stringp),
            Value::Func(_) => Kind::Atom(Prim::Functionp),
            Value::Char(_) => Kind::Atom(Prim::Atom),
        }
    }

    #[inline]
    fn field(&self, cell: &Value, f: Prim) -> Value {
        slot(cell, f).borrow().clone()
    }

    fn store(&mut self, cell: &Value, f: Prim, v: Value) -> Result<(), LispError> {
        *slot(cell, f).borrow_mut() = v;
        Ok(())
    }

    fn list(&mut self, items: &[Value], tail: Value) -> Result<Value, LispError> {
        Ok(items
            .iter()
            .rev()
            .fold(tail, |cdr, car| Value::cons(car.clone(), cdr)))
    }

    #[inline]
    fn same(&self, a: &Value, b: &Value, test: Prim) -> bool {
        match (test, a, b) {
            (Prim::Eq, ..) => a.eq_p(b),
            (Prim::Equal, Value::Str(x), Value::Str(y)) => x == y,
            _ => a.eql_p(b),
        }
    }

    fn shown(&self, v: &Value) -> String {
        v.to_string()
    }

    fn error(&self, message: String) -> LispError {
        LispError::new(message)
    }
}

/// The field of the cons `cell` that the row `f` reads.
fn slot(cell: &Value, f: Prim) -> &RefCell<Value> {
    match cell {
        Value::Cons(c) if f == Prim::Car => &c.car,
        Value::Cons(c) => &c.cdr,
        _ => unreachable!("a field of a cons"),
    }
}

/// Runs `p` on `args`, whose count the table has already accepted.
fn dispatch(p: Prim, args: &[Value], t: &Symbol) -> Result<Value, LispError> {
    if let Some(answer) = lists::apply(&mut Values, p, args)? {
        return Ok(match answer {
            lists::Answer::Value(v) => v,
            lists::Answer::Bool(b) => bool_v(b, t),
            lists::Answer::Fixnum(n) => Value::Fixnum(n),
        });
    }
    match p {
        Prim::Error => Err(LispError::new(format!(
            "error: {}",
            args.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        ))),
        // The evaluator runs these before dispatch; as function values
        // they have never been callable.
        Prim::Throw | Prim::Apply | Prim::Function => {
            Err(LispError::new(format!("undefined function {}", p.name())))
        }
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

    /// A list of `prefix + cycle` fixnums whose last cons points back
    /// at cons `prefix` (a proper list when `cycle` is 0), and its
    /// conses.
    fn chain(prefix: usize, cycle: usize) -> (Value, Vec<Value>) {
        let n = prefix + cycle;
        let cells: Vec<Value> = (0..n)
            .map(|i| Value::cons(Value::Fixnum(i as i64), Value::Nil))
            .collect();
        for i in 1..n {
            Values
                .store(&cells[i - 1], Prim::Cdr, cells[i].clone())
                .unwrap();
        }
        if cycle > 0 {
            let back = cells[prefix].clone();
            Values.store(&cells[n - 1], Prim::Cdr, back).unwrap();
        }
        (cells.first().cloned().unwrap_or(Value::Nil), cells)
    }

    /// `nthcdr` lands where `n` single steps land, however far round
    /// the cycle that is, and every other walk stops at the cycle.
    #[test]
    fn walks_find_every_cycle() {
        for prefix in 0..5 {
            for cycle in 1..8 {
                let (list, cells) = chain(prefix, cycle);
                for n in (0..40).chain([i64::MAX - 1, i64::MAX]) {
                    let got =
                        lists::apply(&mut Values, Prim::Nthcdr, &[Value::Fixnum(n), list.clone()]);
                    let Ok(Some(lists::Answer::Value(got))) = got else {
                        panic!("{prefix}+{cycle}: nthcdr {n}: {got:?}");
                    };
                    let at = match usize::try_from(n).ok().filter(|&n| n < prefix) {
                        Some(n) => n,
                        None => prefix + ((n as u64 - prefix as u64) % cycle as u64) as usize,
                    };
                    assert!(got.eq_p(&cells[at]), "{prefix}+{cycle}: nthcdr {n}");
                }
                for p in [Prim::Length, Prim::Last, Prim::Reverse] {
                    let Err(e) = lists::apply(&mut Values, p, std::slice::from_ref(&list)) else {
                        panic!("{prefix}+{cycle}: {p:?} answered");
                    };
                    assert_eq!(e.message, format!("{}: circular list", p.name()));
                }
            }
        }
    }

    /// A proper list's walks end at `()`, and `equal` compares a list of
    /// sublists longer than its depth bound.
    #[test]
    fn proper_lists_end_at_nil() {
        let (list, _) = chain(50, 0);
        let length = lists::apply(&mut Values, Prim::Length, std::slice::from_ref(&list));
        assert_eq!(length, Ok(Some(lists::Answer::Fixnum(50))));
        let nested =
            |k| Value::list((0..2 * lists::DEEPEST).map(|_| Value::list([Value::Fixnum(k)])));
        assert_eq!(lists::equal(&Values, &nested(1), &nested(1)), Ok(true));
        assert_eq!(lists::equal(&Values, &nested(1), &nested(2)), Ok(false));
    }
}
