//! The [`Datum`] type: Lisp source data.
//!
//! Every value in the dialect is conceptually a pointer to an object
//! (§2 of the paper: "every user-visible LISP data type is an access
//! type").  `Datum` models exactly that: cloning a datum copies a
//! reference, never the object, and `rplaca`-style mutation through one
//! copy is visible through all.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::interner::Symbol;

/// A cons cell with mutable car and cdr (for `rplaca`/`rplacd`).
#[derive(Debug)]
pub struct Cons {
    car: RefCell<Datum>,
    cdr: RefCell<Datum>,
}

impl Cons {
    /// Reads the car.
    pub fn car(&self) -> Datum {
        self.car.borrow().clone()
    }

    /// Reads the cdr.
    pub fn cdr(&self) -> Datum {
        self.cdr.borrow().clone()
    }

    /// Replaces the car (`rplaca`).
    pub fn set_car(&self, value: Datum) {
        *self.car.borrow_mut() = value;
    }

    /// Replaces the cdr (`rplacd`).
    pub fn set_cdr(&self, value: Datum) {
        *self.cdr.borrow_mut() = value;
    }
}

/// Drops the cdr spine a cell at a time, so a long list drops in
/// constant stack.
impl Drop for Cons {
    fn drop(&mut self) {
        let mut next = std::mem::take(self.cdr.get_mut());
        while let Datum::Cons(cell) = next {
            next = match Rc::try_unwrap(cell) {
                Ok(mut cell) => std::mem::take(cell.cdr.get_mut()),
                Err(_) => break,
            };
        }
    }
}

/// A Lisp datum: the external (source) representation of programs and data.
///
/// # Examples
///
/// ```
/// use s1lisp_reader::{Datum, Interner};
///
/// let mut i = Interner::new();
/// let d = Datum::list([
///     Datum::Sym(i.intern("+")),
///     Datum::Fixnum(1),
///     Datum::Flonum(2.5),
/// ]);
/// assert_eq!(d.to_string(), "(+ 1 2.5)");
/// assert_eq!(d.list_len(), Some(3));
/// ```
#[derive(Clone, Debug, Default)]
pub enum Datum {
    /// The empty list, which is also false.
    #[default]
    Nil,
    /// A machine integer (the dialect's fixnum; bignums are out of scope).
    Fixnum(i64),
    /// A floating-point number.
    Flonum(f64),
    /// An interned symbol.
    Sym(Symbol),
    /// An immutable string.
    Str(Rc<str>),
    /// A character object.
    Char(char),
    /// A pair.
    Cons(Rc<Cons>),
}

impl Datum {
    /// Constructs a fresh cons of `car` and `cdr`.
    pub fn cons(car: Datum, cdr: Datum) -> Datum {
        Datum::Cons(Rc::new(Cons {
            car: RefCell::new(car),
            cdr: RefCell::new(cdr),
        }))
    }

    /// Constructs a proper list from the items.
    pub fn list<I: IntoIterator<Item = Datum>>(items: I) -> Datum {
        let items: Vec<Datum> = items.into_iter().collect();
        let mut out = Datum::Nil;
        for item in items.into_iter().rev() {
            out = Datum::cons(item, out);
        }
        out
    }

    /// Constructs a string datum.
    pub fn string(s: &str) -> Datum {
        Datum::Str(Rc::from(s))
    }

    /// Whether this is the empty list (Lisp false).
    pub fn is_nil(&self) -> bool {
        matches!(self, Datum::Nil)
    }

    /// Whether this datum is a cons cell.
    pub fn is_cons(&self) -> bool {
        matches!(self, Datum::Cons(_))
    }

    /// Whether this datum is an atom (anything but a cons).
    pub fn is_atom(&self) -> bool {
        !self.is_cons()
    }

    /// Whether this datum is a number (fixnum or flonum).
    pub fn is_number(&self) -> bool {
        matches!(self, Datum::Fixnum(_) | Datum::Flonum(_))
    }

    /// Whether this datum is "self-evaluating" in the dialect: numbers,
    /// strings, and characters evaluate to themselves.
    pub fn is_self_evaluating(&self) -> bool {
        matches!(
            self,
            Datum::Fixnum(_) | Datum::Flonum(_) | Datum::Str(_) | Datum::Char(_)
        )
    }

    /// The symbol, if this is a symbol.
    pub fn as_symbol(&self) -> Option<&Symbol> {
        match self {
            Datum::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// The fixnum value, if this is a fixnum.
    pub fn as_fixnum(&self) -> Option<i64> {
        match self {
            Datum::Fixnum(n) => Some(*n),
            _ => None,
        }
    }

    /// The flonum value, if this is a flonum.
    pub fn as_flonum(&self) -> Option<f64> {
        match self {
            Datum::Flonum(x) => Some(*x),
            _ => None,
        }
    }

    /// The cons cell, if this is a cons.
    pub fn as_cons(&self) -> Option<&Rc<Cons>> {
        match self {
            Datum::Cons(c) => Some(c),
            _ => None,
        }
    }

    /// The car of a cons, or `None` for non-conses.
    pub fn car(&self) -> Option<Datum> {
        self.as_cons().map(|c| c.car())
    }

    /// The cdr of a cons, or `None` for non-conses.
    pub fn cdr(&self) -> Option<Datum> {
        self.as_cons().map(|c| c.cdr())
    }

    /// Iterates over the elements of a (possibly improper) list; iteration
    /// stops at the first non-cons tail, which is *not* yielded.
    pub fn iter(&self) -> ListIter {
        ListIter {
            current: self.clone(),
        }
    }

    /// Collects a **proper** list into a vector, or `None` if the datum is
    /// not nil-terminated.
    pub fn proper_list(&self) -> Option<Vec<Datum>> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        loop {
            match cur {
                Datum::Nil => return Some(out),
                Datum::Cons(c) => {
                    out.push(c.car());
                    cur = c.cdr();
                }
                _ => return None,
            }
        }
    }

    /// Length of a proper list, or `None` if improper or not a list.
    pub fn list_len(&self) -> Option<usize> {
        let mut n = 0;
        let mut cur = self.clone();
        loop {
            match cur {
                Datum::Nil => return Some(n),
                Datum::Cons(c) => {
                    n += 1;
                    cur = c.cdr();
                }
                _ => return None,
            }
        }
    }

    /// Object identity (`eq`): pointer equality for conses, strings and
    /// symbols; value equality for fixnums, characters and nil.  Per the
    /// paper, `eq` is *not* guaranteed meaningful on flonums (it compares
    /// representation identity, which the compiler is free to change), so
    /// flonums here are `eq` only when they are the same bits.
    ///
    /// (Named for the Lisp predicate; this is not `PartialEq::eq`, which
    /// `Datum` deliberately does not implement — callers must choose
    /// `eq`/`eql`/`equal`.)
    #[allow(clippy::should_implement_trait)]
    pub fn eq(&self, other: &Datum) -> bool {
        match (self, other) {
            (Datum::Nil, Datum::Nil) => true,
            (Datum::Fixnum(a), Datum::Fixnum(b)) => a == b,
            (Datum::Flonum(a), Datum::Flonum(b)) => a.to_bits() == b.to_bits(),
            (Datum::Sym(a), Datum::Sym(b)) => a == b,
            (Datum::Char(a), Datum::Char(b)) => a == b,
            (Datum::Str(a), Datum::Str(b)) => Rc::ptr_eq(a, b),
            (Datum::Cons(a), Datum::Cons(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// `eql`: like [`Datum::eq`] but guaranteed to compare numbers by
    /// value and type (the paper's "object identity predicate for all
    /// objects").
    pub fn eql(&self, other: &Datum) -> bool {
        match (self, other) {
            (Datum::Flonum(a), Datum::Flonum(b)) => a == b,
            _ => self.eq(other),
        }
    }

    /// Structural equality (`equal`): recursive on conses, contents on
    /// strings, `eql` on atoms.
    pub fn equal(&self, other: &Datum) -> bool {
        match (self, other) {
            (Datum::Cons(a), Datum::Cons(b)) => {
                Rc::ptr_eq(a, b) || (a.car().equal(&b.car()) && a.cdr().equal(&b.cdr()))
            }
            (Datum::Str(a), Datum::Str(b)) => a == b,
            _ => self.eql(other),
        }
    }

    /// Lisp truth: everything except nil is true.
    pub fn is_true(&self) -> bool {
        !self.is_nil()
    }
}

impl From<i64> for Datum {
    fn from(n: i64) -> Datum {
        Datum::Fixnum(n)
    }
}

impl From<f64> for Datum {
    fn from(x: f64) -> Datum {
        Datum::Flonum(x)
    }
}

impl From<Symbol> for Datum {
    fn from(s: Symbol) -> Datum {
        Datum::Sym(s)
    }
}

impl FromIterator<Datum> for Datum {
    fn from_iter<T: IntoIterator<Item = Datum>>(iter: T) -> Datum {
        Datum::list(iter)
    }
}

/// Iterator over the elements of a list datum.  See [`Datum::iter`].
#[derive(Debug, Clone)]
pub struct ListIter {
    current: Datum,
}

impl Iterator for ListIter {
    type Item = Datum;

    fn next(&mut self) -> Option<Datum> {
        match std::mem::take(&mut self.current) {
            Datum::Cons(c) => {
                self.current = c.cdr();
                Some(c.car())
            }
            _ => None,
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::print::write_datum(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interner;

    fn sym(i: &mut Interner, s: &str) -> Datum {
        Datum::Sym(i.intern(s))
    }

    #[test]
    fn list_construction_and_iteration() {
        let d = Datum::list([Datum::Fixnum(1), Datum::Fixnum(2), Datum::Fixnum(3)]);
        let v: Vec<i64> = d.iter().map(|x| x.as_fixnum().unwrap()).collect();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(d.list_len(), Some(3));
    }

    #[test]
    fn improper_list_detected() {
        let d = Datum::cons(Datum::Fixnum(1), Datum::Fixnum(2));
        assert!(d.proper_list().is_none());
        assert_eq!(d.list_len(), None);
        // iteration yields only the car
        assert_eq!(d.iter().count(), 1);
    }

    #[test]
    fn rplaca_is_visible_through_shared_structure() {
        let cell = Datum::cons(Datum::Fixnum(1), Datum::Nil);
        let alias = cell.clone();
        cell.as_cons().unwrap().set_car(Datum::Fixnum(99));
        assert_eq!(alias.car().unwrap().as_fixnum(), Some(99));
    }

    #[test]
    fn eq_vs_eql_vs_equal() {
        let mut i = Interner::new();
        let a = Datum::list([sym(&mut i, "a")]);
        let b = Datum::list([sym(&mut i, "a")]);
        assert!(!a.eq(&b));
        assert!(a.eq(&a));
        assert!(a.equal(&b));
        assert!(Datum::Flonum(1.5).eql(&Datum::Flonum(1.5)));
        // Fixnum and flonum of same value are not eql (type matters).
        assert!(!Datum::Fixnum(1).eql(&Datum::Flonum(1.0)));
    }

    #[test]
    fn truthiness() {
        assert!(!Datum::Nil.is_true());
        assert!(Datum::Fixnum(0).is_true());
        let mut i = Interner::new();
        assert!(sym(&mut i, "t").is_true());
    }

    #[test]
    fn proper_list_round_trip() {
        let items = vec![Datum::Fixnum(1), Datum::string("two"), Datum::Flonum(3.0)];
        let d = Datum::list(items.clone());
        let back = d.proper_list().unwrap();
        assert_eq!(back.len(), 3);
        assert!(back[1].equal(&items[1]));
    }
}
