//! The numeric rows of the primitive table, each defined once.
//!
//! §5 folds "primitive functions known to be free of side effects on
//! constant operands", and compiled code reaches the same primitives at
//! run time, so the folder, the interpreter and the machine must agree
//! on every numeric row.  They agree by construction: each engine reads
//! its own operands as [`Num`]s, calls [`apply`], and turns the
//! [`Answer`] back into its own values — the interpreter and the
//! bytecode evaluator into `Value`s (through the interpreter's builtins,
//! which the folder also calls), the S-1 run-time system into machine
//! words.  The rows, their checks and their errors live only here.
//!
//! The rules every row keeps:
//!
//! * fixnum arithmetic is checked: a result outside `i64` is
//!   [`NumError::Overflow`], never a wrapped value or a host panic;
//! * a fixnum meeting a flonum converts to a flonum (contagion); fixnum
//!   `/` truncates (the dialect has no rationals);
//! * `floor`, `mod` and friends round toward negative infinity, so
//!   `(+ (* b (floor a b)) (mod a b))` is `a`; `round` rounds half to
//!   even, exactly, on fixnums;
//! * a comparison orders its operands or fails: a NaN operand is
//!   [`NumError::NanComparison`], so `<` and `>=` are exact complements
//!   (the code generator inverts branches on that);
//! * a flonum converted to a fixnum (`floor`, `ceiling`, `truncate`,
//!   `round`, `fix`) is [`NumError::Overflow`] when the rounded value is
//!   NaN or outside `i64`, never a saturated one.

use std::cmp::Ordering;
use std::f64::consts::TAU;

use crate::Prim;

/// A numeric operand or result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    /// A fixnum.
    Int(i64),
    /// A flonum.
    Flo(f64),
}

impl Num {
    /// The number as a float (a fixnum past 2^53 rounds).
    pub fn to_f64(self) -> f64 {
        match self {
            Num::Int(n) => n as f64,
            Num::Flo(x) => x,
        }
    }
}

/// What a numeric row answers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Answer {
    /// A number.
    Num(Num),
    /// A truth value (comparisons and numeric predicates).
    Bool(bool),
}

/// Why a numeric row has no answer.  Operand positions count from 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumError {
    /// A fixnum result, or a flonum converted to one, does not fit.
    Overflow,
    /// A fixnum divided by zero.
    DivisionByZero,
    /// The operand at this position is not a number.
    NotANumber(usize),
    /// The operand at this position is not a fixnum.
    NotAFixnum(usize),
    /// The operand at this position is not a flonum.
    NotAFlonum(usize),
    /// A fixnum exponent past `u32`.
    ExponentTooLarge,
    /// A comparison met a NaN.
    NanComparison,
}

impl NumError {
    /// The operand a type error names.
    fn operand(self) -> Option<usize> {
        match self {
            NumError::NotANumber(i) | NumError::NotAFixnum(i) | NumError::NotAFlonum(i) => Some(i),
            _ => None,
        }
    }

    /// The one message template: `<op>: <what>`, and for a type error
    /// `: <operand>` after it, the operand printed by `shown` (each
    /// engine prints its own values).
    pub fn message(self, op: &str, shown: impl FnOnce(usize) -> String) -> String {
        let what = match self {
            NumError::Overflow => "fixnum overflow",
            NumError::DivisionByZero => "division by zero",
            NumError::NotANumber(_) => "not a number",
            NumError::NotAFixnum(_) => "not a fixnum",
            NumError::NotAFlonum(_) => "not a flonum",
            NumError::ExponentTooLarge => "exponent too large",
            NumError::NanComparison => "comparison with NaN",
        };
        match self.operand() {
            Some(i) => format!("{op}: {what}: {}", shown(i)),
            None => format!("{op}: {what}"),
        }
    }
}

/// Runs the numeric row `p` on `args`, each read by `num` (`None`: not a
/// number).  `None` when `p` is not a numeric row.  The caller has
/// checked the argument count against the table.
pub fn apply<T>(
    p: Prim,
    args: &[T],
    num: impl Fn(&T) -> Option<Num>,
) -> Option<Result<Answer, NumError>> {
    let ops = Operands { args, num };
    let n = args.len();
    let number = |r: Result<Num, NumError>| r.map(Answer::Num);
    Some(match p {
        Prim::Add | Prim::Mul if n == 0 => Ok(Answer::Num(Num::Int(i64::from(p == Prim::Mul)))),
        Prim::Sub | Prim::Div | Prim::OnePlus | Prim::OneMinus | Prim::Abs if n == 1 => {
            number(ops.generic(0).and_then(|x| unary(p, x)))
        }
        Prim::Add
        | Prim::Sub
        | Prim::Mul
        | Prim::Div
        | Prim::Min
        | Prim::Max
        | Prim::Mod
        | Prim::Rem => number(ops.fold(p)),
        Prim::Floor | Prim::Ceiling | Prim::Truncate | Prim::Round => number(ops.rounded(p)),
        Prim::Expt => number(ops.expt()),
        Prim::NumEq | Prim::NumNe | Prim::Lt | Prim::Gt | Prim::Le | Prim::Ge => ops.chain(p),
        Prim::Zerop | Prim::Plusp | Prim::Minusp => ops
            .generic(0)
            .and_then(|x| order(x, Num::Int(0)))
            .map(|o| Answer::Bool(holds(p, o))),
        Prim::Oddp | Prim::Evenp => ops
            .fixnum(0)
            .map(|n| Answer::Bool((n % 2 != 0) == (p == Prim::Oddp))),
        Prim::AddF | Prim::SubF | Prim::MulF | Prim::DivF | Prim::MaxF | Prim::MinF => {
            ops.flonum_fold(p).map(|x| Answer::Num(Num::Flo(x)))
        }
        Prim::AbsF | Prim::SqrtF | Prim::SinF | Prim::CosF | Prim::SincF | Prim::CoscF => ops
            .flonum(0)
            .map(|x| Answer::Num(Num::Flo(transcendental(p, x)))),
        Prim::AddI | Prim::SubI | Prim::MulI => {
            ops.fixnum_fold(p).map(|n| Answer::Num(Num::Int(n)))
        }
        Prim::Atan if n == 2 => ops.generic(0).and_then(|y| {
            let x = ops.generic(1)?;
            Ok(Answer::Num(Num::Flo(y.to_f64().atan2(x.to_f64()))))
        }),
        Prim::Sqrt | Prim::Sin | Prim::Cos | Prim::Atan | Prim::Exp | Prim::Log | Prim::Float => {
            ops.generic(0)
                .map(|x| Answer::Num(Num::Flo(transcendental(p, x.to_f64()))))
        }
        Prim::Fix => number(ops.generic(0).and_then(|x| match x {
            Num::Int(n) => Ok(Num::Int(n)),
            Num::Flo(x) => to_fixnum(x.trunc()).map(Num::Int),
        })),
        _ => return None,
    })
}

/// The binary row `p` on two fixnums, checked: `+ - *` (and their `&`
/// forms), `/` (truncating), `floor ceiling truncate round` of a
/// quotient, `mod rem`, `min max`.  The engines' fixnum fast paths and
/// the declared-fixnum instructions answer through it.
///
/// # Panics
///
/// For any other row: a caller's bug, not a Lisp error.
#[inline]
pub fn int_op(p: Prim, a: i64, b: i64) -> Result<i64, NumError> {
    use Prim::{
        Add, AddI, Ceiling, Div, Floor, Max, Min, Mod, Mul, MulI, Rem, Round, Sub, SubI, Truncate,
    };
    let r = match p {
        Add | AddI => a.checked_add(b),
        Sub | SubI => a.checked_sub(b),
        Mul | MulI => a.checked_mul(b),
        Min => Some(a.min(b)),
        Max => Some(a.max(b)),
        Div | Truncate | Rem | Floor | Ceiling | Round | Mod if b == 0 => {
            return Err(NumError::DivisionByZero)
        }
        Div | Truncate => a.checked_div(b),
        Rem => a.checked_rem(b),
        Floor | Ceiling | Round | Mod => a.checked_div(b).map(|q| {
            let r = a % b;
            // The exact quotient q + r/b lies below the truncated q
            // when the remainder and the divisor differ in sign.
            let below = r != 0 && (r < 0) != (b < 0);
            let step = if below { -1 } else { 1 };
            match p {
                Floor => q - i64::from(below),
                Ceiling => q + i64::from(r != 0 && !below),
                Mod if below => r + b,
                Mod => r,
                _ => {
                    // |r| < |b| ≤ 2^63, so twice |r| fits a u64.
                    let (twice, whole) = (2 * r.unsigned_abs(), b.unsigned_abs());
                    let away = twice > whole || (twice == whole && q % 2 != 0);
                    q + if away { step } else { 0 }
                }
            }
        }),
        _ => panic!("{p:?} is not a binary fixnum row"),
    };
    r.ok_or(NumError::Overflow)
}

/// How two numbers are ordered: as integers when both are fixnums, as
/// floats otherwise; a NaN orders nothing.
///
/// # Errors
///
/// [`NumError::NanComparison`] when either is NaN.
pub fn order(x: Num, y: Num) -> Result<Ordering, NumError> {
    match (x, y) {
        (Num::Int(a), Num::Int(b)) => Ok(a.cmp(&b)),
        _ => x
            .to_f64()
            .partial_cmp(&y.to_f64())
            .ok_or(NumError::NanComparison),
    }
}

/// Whether the comparison or sign predicate `p` holds of two operands so
/// ordered (the sign predicates compare their operand with 0).
fn holds(p: Prim, o: Ordering) -> bool {
    match p {
        Prim::NumEq | Prim::Zerop => o == Ordering::Equal,
        Prim::NumNe => o != Ordering::Equal,
        Prim::Lt | Prim::Minusp => o == Ordering::Less,
        Prim::Gt | Prim::Plusp => o == Ordering::Greater,
        Prim::Le => o != Ordering::Greater,
        Prim::Ge => o != Ordering::Less,
        _ => panic!("{p:?} is not a comparison"),
    }
}

/// An integral float as a fixnum.
fn to_fixnum(x: f64) -> Result<i64, NumError> {
    // −2^63 is exactly a float; 2^63 is the first float past `i64::MAX`.
    // NaN fails both tests.
    let min = i64::MIN as f64;
    if x >= min && x < -min {
        Ok(x as i64)
    } else {
        Err(NumError::Overflow)
    }
}

/// The unary generic rows of one operand.
fn unary(p: Prim, x: Num) -> Result<Num, NumError> {
    Ok(match (p, x) {
        (Prim::Sub, Num::Int(n)) => Num::Int(n.checked_neg().ok_or(NumError::Overflow)?),
        (Prim::Abs, Num::Int(n)) => Num::Int(n.checked_abs().ok_or(NumError::Overflow)?),
        (Prim::OnePlus, Num::Int(n)) => Num::Int(int_op(Prim::Add, n, 1)?),
        (Prim::OneMinus, Num::Int(n)) => Num::Int(int_op(Prim::Sub, n, 1)?),
        (Prim::Sub, Num::Flo(x)) => Num::Flo(-x),
        (Prim::Abs, Num::Flo(x)) => Num::Flo(x.abs()),
        (Prim::OnePlus, Num::Flo(x)) => Num::Flo(x + 1.0),
        (Prim::OneMinus, Num::Flo(x)) => Num::Flo(x - 1.0),
        // `(/ x)` is the reciprocal, always a flonum.
        (_, x) => Num::Flo(1.0 / x.to_f64()),
    })
}

/// The binary row `p` on two floats (the generic rows past contagion,
/// and the `$f` rows).
fn flo_op(p: Prim, a: f64, b: f64) -> f64 {
    match p {
        Prim::Add | Prim::AddF => a + b,
        Prim::Sub | Prim::SubF => a - b,
        Prim::Mul | Prim::MulF => a * b,
        Prim::Min | Prim::MinF => a.min(b),
        Prim::Max | Prim::MaxF => a.max(b),
        Prim::Rem => a % b,
        Prim::Mod => {
            let r = a % b;
            if r != 0.0 && (r < 0.0) != (b < 0.0) {
                r + b
            } else {
                r
            }
        }
        _ => a / b,
    }
}

/// The one-operand float functions.  `sinc$f` and `cosc$f` take their
/// argument in *cycles* (§7: "the S-1 SIN instruction assumes its
/// argument to be in cycles").
fn transcendental(p: Prim, x: f64) -> f64 {
    match p {
        Prim::AbsF => x.abs(),
        Prim::Sqrt | Prim::SqrtF => x.sqrt(),
        Prim::Sin | Prim::SinF => x.sin(),
        Prim::Cos | Prim::CosF => x.cos(),
        Prim::SincF => (x * TAU).sin(),
        Prim::CoscF => (x * TAU).cos(),
        Prim::Atan => x.atan(),
        Prim::Exp => x.exp(),
        Prim::Log => x.ln(),
        _ => x, // `float`
    }
}

/// A row's arguments, read as numbers on demand so that a left fold
/// names the first operand that fails, as it reaches it.
struct Operands<'a, T, F> {
    args: &'a [T],
    num: F,
}

impl<T, F: Fn(&T) -> Option<Num>> Operands<'_, T, F> {
    fn generic(&self, i: usize) -> Result<Num, NumError> {
        (self.num)(&self.args[i]).ok_or(NumError::NotANumber(i))
    }

    fn fixnum(&self, i: usize) -> Result<i64, NumError> {
        match (self.num)(&self.args[i]) {
            Some(Num::Int(n)) => Ok(n),
            _ => Err(NumError::NotAFixnum(i)),
        }
    }

    fn flonum(&self, i: usize) -> Result<f64, NumError> {
        match (self.num)(&self.args[i]) {
            Some(Num::Flo(x)) => Ok(x),
            _ => Err(NumError::NotAFlonum(i)),
        }
    }

    /// A generic left fold: fixnums while both sides are, floats after.
    fn fold(&self, p: Prim) -> Result<Num, NumError> {
        let mut acc = self.generic(0)?;
        for i in 1..self.args.len() {
            let y = self.generic(i)?;
            acc = match (acc, y) {
                (Num::Int(a), Num::Int(b)) => Num::Int(int_op(p, a, b)?),
                _ => Num::Flo(flo_op(p, acc.to_f64(), y.to_f64())),
            };
        }
        Ok(acc)
    }

    fn flonum_fold(&self, p: Prim) -> Result<f64, NumError> {
        let mut acc = self.flonum(0)?;
        if self.args.len() == 1 {
            return Ok(-acc); // only `-$f` takes one argument
        }
        for i in 1..self.args.len() {
            acc = flo_op(p, acc, self.flonum(i)?);
        }
        Ok(acc)
    }

    fn fixnum_fold(&self, p: Prim) -> Result<i64, NumError> {
        let mut acc = self.fixnum(0)?;
        for i in 1..self.args.len() {
            acc = int_op(p, acc, self.fixnum(i)?)?;
        }
        Ok(acc)
    }

    /// `floor`, `ceiling`, `truncate` or `round` of one number or of a
    /// quotient: exact on two fixnums, through a float otherwise.
    fn rounded(&self, p: Prim) -> Result<Num, NumError> {
        let x = match (self.generic(0)?, self.args.len()) {
            (Num::Int(n), 1) => return Ok(Num::Int(n)),
            (Num::Flo(x), 1) => x,
            (a, _) => match (a, self.generic(1)?) {
                (Num::Int(a), Num::Int(b)) => return int_op(p, a, b).map(Num::Int),
                (a, b) => a.to_f64() / b.to_f64(),
            },
        };
        let r = match p {
            Prim::Floor => x.floor(),
            Prim::Ceiling => x.ceil(),
            Prim::Truncate => x.trunc(),
            _ => x.round_ties_even(),
        };
        to_fixnum(r).map(Num::Int)
    }

    fn expt(&self) -> Result<Num, NumError> {
        match (self.generic(0)?, self.generic(1)?) {
            (Num::Int(b), Num::Int(e)) if e >= 0 => {
                let e = u32::try_from(e).map_err(|_| NumError::ExponentTooLarge)?;
                b.checked_pow(e).map(Num::Int).ok_or(NumError::Overflow)
            }
            (b, e) => Ok(Num::Flo(b.to_f64().powf(e.to_f64()))),
        }
    }

    /// A comparison of each adjacent pair, stopping at the first that
    /// fails to hold.
    fn chain(&self, p: Prim) -> Result<Answer, NumError> {
        let mut x = self.generic(0)?;
        for i in 1..self.args.len() {
            let y = self.generic(i)?;
            if !holds(p, order(x, y)?) {
                return Ok(Answer::Bool(false));
            }
            x = y;
        }
        Ok(Answer::Bool(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(p: Prim, args: &[Num]) -> Result<Answer, NumError> {
        apply(p, args, |&n| Some(n)).expect("a numeric row")
    }

    fn int(n: i64) -> Result<Answer, NumError> {
        Ok(Answer::Num(Num::Int(n)))
    }

    #[test]
    fn rounding_of_two_fixnums_is_exact() {
        use Num::Int;
        assert_eq!(
            call(Prim::Round, &[Int(9_007_199_254_740_993), Int(1)]),
            int(9_007_199_254_740_993)
        );
        for (a, b, round) in [
            (5, 2, 2),
            (7, 2, 4),
            (-5, 2, -2),
            (-7, 2, -4),
            (5, -2, -2),
            (8, 3, 3),
            (-8, 3, -3),
        ] {
            assert_eq!(
                call(Prim::Round, &[Int(a), Int(b)]),
                int(round),
                "round {a} {b}"
            );
        }
        for (a, b, floor, ceiling, modulo) in [
            (7, 2, 3, 4, 1),
            (-7, 2, -4, -3, 1),
            (7, -2, -4, -3, -1),
            (-7, -2, 3, 4, -1),
        ] {
            assert_eq!(
                call(Prim::Floor, &[Int(a), Int(b)]),
                int(floor),
                "floor {a} {b}"
            );
            assert_eq!(
                call(Prim::Ceiling, &[Int(a), Int(b)]),
                int(ceiling),
                "ceiling {a} {b}"
            );
            assert_eq!(
                call(Prim::Mod, &[Int(a), Int(b)]),
                int(modulo),
                "mod {a} {b}"
            );
        }
    }

    #[test]
    fn conversions_that_do_not_fit_overflow() {
        for x in [1e300, -1e30, f64::NAN, 9_223_372_036_854_775_808.0] {
            for p in [
                Prim::Floor,
                Prim::Ceiling,
                Prim::Truncate,
                Prim::Round,
                Prim::Fix,
            ] {
                assert_eq!(
                    call(p, &[Num::Flo(x)]),
                    Err(NumError::Overflow),
                    "{p:?} {x}"
                );
            }
        }
        assert_eq!(
            call(Prim::Floor, &[Num::Flo(-9_223_372_036_854_775_808.0)]),
            int(i64::MIN)
        );
    }
}
