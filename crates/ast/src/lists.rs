//! The list rows of the primitive table, each defined once.
//!
//! Every row that is neither numeric ([`crate::num`]) nor `error`,
//! `throw`, `apply` or `%function` is written here once, over the small
//! [`Engine`] interface that the interpreter's values and the S-1's
//! words implement, so the run-time routines (Table 4's `%CALL (REF SQ
//! …)`) agree with the reference interpreter by construction.  Errors
//! read `<op>: <what>[: <operand>]`.  Every cdr walk ends: at `()`, at an
//! improper tail, or at a cycle (Brent's check).  The identity of two
//! flonums made separately is the engine's, and the parity tests exempt
//! it alike for `eq`, `memq` and `assq` (DESIGN.md §6n).

use crate::Prim;

/// What a list row sees of a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `()`.
    Nil,
    /// A cons.
    Cons,
    /// A fixnum, with its value.
    Fixnum(i64),
    /// Any other atom, with the one type-predicate row that holds of it:
    /// `symbolp` (of `t` too), `flonump`, `stringp` or `functionp`, and
    /// `atom` where no other does (a character).
    Atom(Prim),
}

/// An engine's values, as the rows read, build and compare them.
pub trait Engine {
    /// A Lisp value.
    type Value: Clone;
    /// A row's error, as the engine raises it.
    type Error;
    /// `()`.
    const NIL: Self::Value;
    /// What `v` is.
    fn kind(&self, v: &Self::Value) -> Kind;
    /// The field of the cons `cell` that the row `f`, `car` or `cdr`, reads.
    fn field(&self, cell: &Self::Value, f: Prim) -> Self::Value;
    /// Stores `v` into that field.
    fn store(&mut self, cell: &Self::Value, f: Prim, v: Self::Value) -> Result<(), Self::Error>;
    /// A fresh list of `items` ending in `tail`, consed from the last
    /// item; every item and the tail survive any collection it makes.
    fn list(
        &mut self,
        items: &[Self::Value],
        tail: Self::Value,
    ) -> Result<Self::Value, Self::Error>;
    /// Whether `a` and `b` are the same under the row `test`: `eq`,
    /// `eql`, or `equal` of two values not both conses (strings by text).
    fn same(&self, a: &Self::Value, b: &Self::Value, test: Prim) -> bool;
    /// `v` as the engine prints it.
    fn shown(&self, v: &Self::Value) -> String;
    /// A row's error carrying `message`.
    fn error(&self, message: String) -> Self::Error;
}

/// What a list row answers.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer<V> {
    /// A value.
    Value(V),
    /// A truth value.
    Bool(bool),
    /// A fixnum (`length`).
    Fixnum(i64),
}

/// The deepest car nesting `equal` compares.
pub const DEEPEST: usize = 10_000;

/// Runs the list row `p` on `args`, whose count the caller has checked
/// against the table: `Ok(None)` when `p` is not a list row.
#[inline]
pub fn apply<E: Engine>(
    e: &mut E,
    p: Prim,
    args: &[E::Value],
) -> Result<Option<Answer<E::Value>>, E::Error> {
    use Answer::{Bool, Value};
    use Prim::*;
    let is = |test: fn(Kind) -> bool| Bool(test(e.kind(&args[0])));
    Ok(Some(match p {
        Null | Not => is(|k| k == Kind::Nil),
        Atom => is(|k| k != Kind::Cons),
        Consp => is(|k| k == Kind::Cons),
        Listp => is(|k| matches!(k, Kind::Cons | Kind::Nil)),
        Numberp => is(|k| matches!(k, Kind::Fixnum(_) | Kind::Atom(Flonump))),
        Fixnump => is(|k| matches!(k, Kind::Fixnum(_))),
        Symbolp | Flonump | Stringp | Functionp => Bool(e.kind(&args[0]) == Kind::Atom(p)),
        Eq | Eql => Bool(e.same(&args[0], &args[1], p)),
        Equal => Bool(equal(e, &args[0], &args[1])?),
        Car | Cdr | Caar | Cadr | Cdar | Cddr | Caddr | Cdddr => Value(cxr(e, p, &args[0])?),
        Cons | ListStar => {
            let (last, init) = args.split_last().expect("an argument");
            Value(e.list(init, last.clone())?)
        }
        List => Value(e.list(args, E::NIL)?),
        Append | Reverse => {
            let (tail, lists) = match args.split_last() {
                Some((last, init)) if p == Append => (last.clone(), init),
                _ => (E::NIL, args),
            };
            let mut all = Vec::new();
            for list in lists {
                all.extend(items(e, p, list)?);
            }
            if p == Reverse {
                all.reverse();
            }
            Value(e.list(&all, tail)?)
        }
        Length => {
            let (mut w, mut n) = (Walk::new(&args[0]), 0);
            while w.step(e, p)?.is_some() {
                n += 1;
            }
            Answer::Fixnum(n)
        }
        Nth | Nthcdr => Value(nthcdr(e, p, args)?),
        Last => {
            let (mut w, mut out) = (Walk::new(&args[0]), args[0].clone());
            while let Some(cell) = w.next(e).map_err(|_| fail(e, p, "circular list", None))? {
                out = cell;
            }
            Value(out)
        }
        Assq | Assoc | Memq | Member => Value(find(e, p, &args[0], &args[1])?),
        Rplaca | Rplacd if e.kind(&args[0]) == Kind::Cons => {
            let f = if p == Rplaca { Car } else { Cdr };
            e.store(&args[0], f, args[1].clone())?;
            Value(args[0].clone())
        }
        Rplaca | Rplacd => return Err(fail(e, p, "not a cons", Some(&args[0]))),
        Identity => Value(args[0].clone()),
        _ => return Ok(None),
    }))
}

/// The one error template.
#[cold]
fn fail<E: Engine>(e: &E, p: Prim, what: &str, operand: Option<&E::Value>) -> E::Error {
    e.error(match operand {
        Some(v) => format!("{}: {what}: {}", p.name(), e.shown(v)),
        None => format!("{}: {what}", p.name()),
    })
}

/// The `c[ad]r` row `p` (and no other) of `v`: its name is `c`, the
/// path read from the right, and `r`; `()` gives `()` at each step.  The
/// S-1's `CAR` and `CDR` raise the `car` and `cdr` rows' errors here.
#[inline]
pub fn cxr<E: Engine>(e: &E, p: Prim, v: &E::Value) -> Result<E::Value, E::Error> {
    let path = match p {
        Prim::Car => b"a",
        Prim::Cdr => b"d",
        _ => &p.name().as_bytes()[1..p.name().len() - 1],
    };
    let mut v = v.clone();
    for &step in path.iter().rev() {
        v = match e.kind(&v) {
            Kind::Cons if step == b'a' => e.field(&v, Prim::Car),
            Kind::Cons => e.field(&v, Prim::Cdr),
            Kind::Nil => v,
            _ => return Err(fail(e, p, "not a list", Some(&v))),
        };
    }
    Ok(v)
}

/// A cdr walk under Brent's check: the mark moves to the walk's
/// position whenever the distance to it reaches the next power of two,
/// so the walk meets the mark again within a few laps of a cycle.  `at`
/// is the chain's next cons, or its tail.
struct Walk<V> {
    at: V,
    mark: V,
    steps: u64,
    power: u64,
}

impl<V: Clone> Walk<V> {
    fn new(at: &V) -> Walk<V> {
        let (at, mark, steps, power) = (at.clone(), at.clone(), 0, 1);
        Walk {
            at,
            mark,
            steps,
            power,
        }
    }

    /// The next cons, stepped past; `Ok(None)` at the tail.  `Err(n)`:
    /// `at` is the mark again, on a cycle of `n` conses.
    #[inline]
    fn next<E: Engine<Value = V>>(&mut self, e: &E) -> Result<Option<V>, u64> {
        if e.kind(&self.at) != Kind::Cons {
            return Ok(None);
        }
        if self.steps > 0 && e.same(&self.at, &self.mark, Prim::Eq) {
            return Err(self.steps);
        }
        if self.steps == self.power {
            (self.mark, self.power, self.steps) = (self.at.clone(), 2 * self.power, 0);
        }
        self.steps += 1;
        let next = e.field(&self.at, Prim::Cdr);
        Ok(Some(std::mem::replace(&mut self.at, next)))
    }

    /// The next cons of a list that must end in `()`: `Ok(None)` there,
    /// and row `p`'s error at an improper tail or a cycle.
    #[inline]
    fn step<E: Engine<Value = V>>(&mut self, e: &E, p: Prim) -> Result<Option<V>, E::Error> {
        match self.next(e) {
            Ok(None) if e.kind(&self.at) != Kind::Nil => {
                Err(fail(e, p, "improper tail", Some(&self.at)))
            }
            Ok(cell) => Ok(cell),
            Err(_) => Err(fail(e, p, "circular list", None)),
        }
    }
}

/// The elements of `list`, in order, for row `p` (`apply`'s spread
/// among them); `p`'s error at an improper tail or a cycle.
pub fn items<E: Engine>(e: &E, p: Prim, list: &E::Value) -> Result<Vec<E::Value>, E::Error> {
    let (mut w, mut out) = (Walk::new(list), Vec::new());
    while let Some(cell) = w.step(e, p)? {
        out.push(e.field(&cell, Prim::Car));
    }
    Ok(out)
}

/// `nthcdr` counts down the chain, stopping early at `()` and reducing
/// what is left modulo a cycle's length; `nth` is the car where it
/// stops.  A negative count leaves the list (`nth`: `()`).
fn nthcdr<E: Engine>(e: &E, p: Prim, args: &[E::Value]) -> Result<E::Value, E::Error> {
    let Kind::Fixnum(n) = e.kind(&args[0]) else {
        return Err(fail(e, p, "not a fixnum", Some(&args[0])));
    };
    let mut w = Walk::new(&args[1]);
    let Ok(mut left) = u64::try_from(n) else {
        return Ok(if p == Prim::Nth { E::NIL } else { w.at });
    };
    while left > 0 {
        match w.next(e) {
            Ok(Some(_)) => left -= 1,
            Ok(None) => break,
            Err(cycle) => {
                for _ in 0..left % cycle {
                    w.at = e.field(&w.at, Prim::Cdr);
                }
                left = 0;
            }
        }
    }
    match e.kind(&w.at) {
        Kind::Nil => Ok(w.at),
        Kind::Cons if p == Prim::Nth => Ok(e.field(&w.at, Prim::Car)),
        _ if left == 0 && p == Prim::Nthcdr => Ok(w.at),
        _ => Err(fail(e, p, "improper tail", Some(&w.at))),
    }
}

/// `memq`/`member`: the first tail of `list` whose car is `key`.
/// `assq`/`assoc`: the first element of `list` that is a cons whose car
/// is `key`, passing over the others.  `eq` for the `q` rows, `equal`
/// for the others.
fn find<E: Engine>(e: &E, p: Prim, key: &E::Value, list: &E::Value) -> Result<E::Value, E::Error> {
    let mut w = Walk::new(list);
    while let Some(cell) = w.step(e, p)? {
        let x = match p {
            Prim::Assq | Prim::Assoc => e.field(&cell, Prim::Car),
            _ => cell,
        };
        if e.kind(&x) == Kind::Cons {
            let car = e.field(&x, Prim::Car);
            let hit = match p {
                Prim::Memq | Prim::Assq => e.same(&car, key, Prim::Eq),
                _ => equal(e, &car, key)?,
            };
            if hit {
                return Ok(x);
            }
        }
    }
    Ok(E::NIL)
}

/// `equal`: each cdr chain in a loop under Brent's check, the car pairs
/// still to compare on a stack with their depth, and two values not both
/// conses compared by [`Engine::same`].  A cycle in `a`'s cdr chain that
/// `b` matches all the way round is `equal: circular list`.
pub fn equal<E: Engine>(e: &E, a: &E::Value, b: &E::Value) -> Result<bool, E::Error> {
    let conses = |x: &E::Value, y: &E::Value| e.kind(x) == Kind::Cons && e.kind(y) == Kind::Cons;
    let distinct = |x: &E::Value, y: &E::Value| conses(x, y) && !e.same(x, y, Prim::Eq);
    // Two values not both conses, or one cons twice.
    let leaves = |x: &E::Value, y: &E::Value| conses(x, y) || e.same(x, y, Prim::Equal);
    let (mut pending, mut next) = (Vec::new(), Some((a.clone(), b.clone(), 0)));
    while let Some((x, mut y, depth)) = next {
        let mut w = Walk::new(&x);
        while distinct(&w.at, &y) {
            let Ok(Some(cell)) = w.next(e) else {
                return Err(fail(e, Prim::Equal, "circular list", None));
            };
            let (cx, cy) = (e.field(&cell, Prim::Car), e.field(&y, Prim::Car));
            y = e.field(&y, Prim::Cdr);
            if distinct(&cx, &cy) {
                if depth == DEEPEST {
                    return Err(fail(e, Prim::Equal, "structure too deep", None));
                }
                pending.push((cx, cy, depth + 1));
            } else if !leaves(&cx, &cy) {
                return Ok(false);
            }
        }
        if !leaves(&w.at, &y) {
            return Ok(false);
        }
        next = pending.pop();
    }
    Ok(true)
}
