//! Run-time values of the interpreter.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use s1lisp_ast::{lists, NodeId, Tree};
use s1lisp_reader::{Datum, Interner, Symbol};

use crate::builtins::Values;

/// A mutable cons cell in the interpreter's "heap".
#[derive(Debug)]
pub struct ConsCell {
    /// The car field.
    pub car: RefCell<Value>,
    /// The cdr field.
    pub cdr: RefCell<Value>,
}

/// Drops the cdr spine a cell at a time, so a long list drops in
/// constant stack.
impl Drop for ConsCell {
    fn drop(&mut self) {
        let mut next = std::mem::take(self.cdr.get_mut());
        while let Value::Cons(cell) = next {
            next = match Rc::try_unwrap(cell) {
                Ok(mut cell) => std::mem::take(cell.cdr.get_mut()),
                Err(_) => break,
            };
        }
    }
}

/// A lexical closure: a lambda node, the tree it lives in, and the
/// captured environment.
#[derive(Debug)]
pub struct Closure {
    /// The tree containing the lambda.
    pub tree: Rc<Tree>,
    /// The lambda node.
    pub lambda: NodeId,
    /// Captured lexical environment.
    pub env: Option<Rc<EnvNode>>,
    /// Name for diagnostics (the enclosing defun).
    pub name: String,
}

/// One lexical binding in an environment chain.
#[derive(Debug)]
pub struct EnvNode {
    /// The bound variable (a `VarId` in the closure's tree).
    pub var: s1lisp_ast::VarId,
    /// The value cell (mutable for `setq`).
    pub value: RefCell<Value>,
    /// Enclosing bindings.
    pub next: Option<Rc<EnvNode>>,
}

/// A callable value.
#[derive(Clone, Debug)]
pub enum Function {
    /// A lexical closure.
    Closure(Rc<Closure>),
    /// A named global function, resolved at call time (late binding, as
    /// in Lisp).
    Global(String),
}

/// A run-time value.
///
/// Everything is conceptually a pointer to an object (§2 of the paper);
/// `Clone` copies the reference, and cons cells are shared and mutable.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// The empty list / false.
    #[default]
    Nil,
    /// Machine integer.
    Fixnum(i64),
    /// Floating-point number.
    Flonum(f64),
    /// Symbol.
    Sym(Symbol),
    /// String.
    Str(Rc<str>),
    /// Character.
    Char(char),
    /// Pair.
    Cons(Rc<ConsCell>),
    /// Callable function object.
    Func(Function),
}

impl Value {
    /// Constructs a cons.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Cons(Rc::new(ConsCell {
            car: RefCell::new(car),
            cdr: RefCell::new(cdr),
        }))
    }

    /// Constructs a proper list.
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value {
        let items: Vec<Value> = items.into_iter().collect();
        items
            .into_iter()
            .rev()
            .fold(Value::Nil, |cdr, car| Value::cons(car, cdr))
    }

    /// Lisp truth.
    pub fn is_true(&self) -> bool {
        !matches!(self, Value::Nil)
    }

    /// A named global function value.
    pub fn global_function(name: &str) -> Value {
        Value::Func(Function::Global(name.to_string()))
    }

    /// The global function name, if this is one.
    pub fn as_global_function(&self) -> Option<&str> {
        match self {
            Value::Func(Function::Global(n)) => Some(n),
            _ => None,
        }
    }

    /// Converts a (quoted) source datum into a fresh run-time value.
    pub fn from_datum(d: &Datum) -> Value {
        match d {
            Datum::Nil => Value::Nil,
            Datum::Fixnum(n) => Value::Fixnum(*n),
            Datum::Flonum(x) => Value::Flonum(*x),
            Datum::Sym(s) => Value::Sym(s.clone()),
            Datum::Str(s) => Value::Str(s.clone()),
            Datum::Char(c) => Value::Char(*c),
            Datum::Cons(_) => {
                // The cdr chain iteratively, as in `to_datum`.
                let mut cars = Vec::new();
                let mut rest = d.clone();
                while let Datum::Cons(c) = rest {
                    cars.push(Value::from_datum(&c.car()));
                    rest = c.cdr();
                }
                let tail = Value::from_datum(&rest);
                cars.into_iter()
                    .rev()
                    .fold(tail, |cdr, car| Value::cons(car, cdr))
            }
        }
    }

    /// Converts back to a datum where possible (functions have no source
    /// form and yield `None`).
    pub fn to_datum(&self) -> Option<Datum> {
        Some(match self {
            Value::Nil => Datum::Nil,
            Value::Fixnum(n) => Datum::Fixnum(*n),
            Value::Flonum(x) => Datum::Flonum(*x),
            Value::Sym(s) => Datum::Sym(s.clone()),
            Value::Str(s) => Datum::Str(s.clone()),
            Value::Char(c) => Datum::Char(*c),
            Value::Cons(_) => {
                // The cdr chain iteratively, so a long list converts in
                // constant stack.
                let mut cars = Vec::new();
                let mut rest = self.clone();
                while let Value::Cons(c) = rest {
                    cars.push(c.car.borrow().to_datum()?);
                    rest = c.cdr.borrow().clone();
                }
                let tail = rest.to_datum()?;
                cars.into_iter()
                    .rev()
                    .fold(tail, |cdr, car| Datum::cons(car, cdr))
            }
            Value::Func(_) => return None,
        })
    }

    /// `eq`: object identity.
    pub fn eq_p(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Fixnum(a), Value::Fixnum(b)) => a == b,
            (Value::Flonum(a), Value::Flonum(b)) => a.to_bits() == b.to_bits(),
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Char(a), Value::Char(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => Rc::ptr_eq(a, b),
            (Value::Cons(a), Value::Cons(b)) => Rc::ptr_eq(a, b),
            (Value::Func(Function::Closure(a)), Value::Func(Function::Closure(b))) => {
                Rc::ptr_eq(a, b)
            }
            (Value::Func(Function::Global(a)), Value::Func(Function::Global(b))) => a == b,
            _ => false,
        }
    }

    /// `eql`: identity, with numbers compared by value and type.
    pub fn eql_p(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Flonum(a), Value::Flonum(b)) => a == b,
            _ => self.eq_p(other),
        }
    }
}

/// `equal`, as the row answers it (`s1lisp_ast::lists::equal`), in
/// constant host stack; a structure the row refuses (too deep, a cycle)
/// is unequal.  Use the explicit predicates when identity matters.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        matches!(lists::equal(&Values, self, other), Ok(true))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Func(Function::Closure(c)) => write!(f, "#<closure {}>", c.name),
            Value::Func(Function::Global(g)) => write!(f, "#<function {g}>"),
            other => match other.to_datum() {
                Some(d) => write!(f, "{d}"),
                // A cons containing a function somewhere inside:
                None => write!(f, "#<structure containing functions>"),
            },
        }
    }
}

/// A quoted constant: an immutable, thread-safe snapshot of source
/// structure.
///
/// Linked code keeps its constant pools and `defvar` initial values in
/// this form, so a linked program can be shared across threads.  Each
/// engine materialises a constant into its own mutable heap when it
/// needs one.  A constant prints exactly like the datum it came from,
/// which is the key both engines deduplicate constants by.
#[derive(Clone, Debug)]
pub enum Const {
    /// The empty list.
    Nil,
    /// Machine integer.
    Fixnum(i64),
    /// Floating-point number.
    Flonum(f64),
    /// Symbol, by spelling.
    Sym(Arc<str>),
    /// String.
    Str(Arc<str>),
    /// Character.
    Char(char),
    /// Pair: (car, cdr).
    Cons(Arc<(Const, Const)>),
}

impl Const {
    /// Snapshots a (quoted) source datum.
    pub fn from_datum(d: &Datum) -> Const {
        match d {
            Datum::Nil => Const::Nil,
            Datum::Fixnum(n) => Const::Fixnum(*n),
            Datum::Flonum(x) => Const::Flonum(*x),
            Datum::Sym(s) => Const::Sym(Arc::from(s.as_str())),
            Datum::Str(s) => Const::Str(Arc::from(&**s)),
            Datum::Char(c) => Const::Char(*c),
            Datum::Cons(c) => Const::Cons(Arc::new((
                Const::from_datum(&c.car()),
                Const::from_datum(&c.cdr()),
            ))),
        }
    }

    /// A fresh datum with this structure, its symbols interned in
    /// `names`.
    pub fn to_datum(&self, names: &mut Interner) -> Datum {
        match self {
            Const::Nil => Datum::Nil,
            Const::Fixnum(n) => Datum::Fixnum(*n),
            Const::Flonum(x) => Datum::Flonum(*x),
            Const::Sym(s) => Datum::Sym(names.intern(s)),
            Const::Str(s) => Datum::string(s),
            Const::Char(c) => Datum::Char(*c),
            Const::Cons(c) => Datum::cons(c.0.to_datum(names), c.1.to_datum(names)),
        }
    }

    /// A fresh run-time value with this structure (new, mutable conses
    /// on every call), its symbols interned in `names`.
    pub fn to_value(&self, names: &mut Interner) -> Value {
        match self {
            Const::Nil => Value::Nil,
            Const::Fixnum(n) => Value::Fixnum(*n),
            Const::Flonum(x) => Value::Flonum(*x),
            Const::Sym(s) => Value::Sym(names.intern(s)),
            Const::Str(s) => Value::Str(Rc::from(&**s)),
            Const::Char(c) => Value::Char(*c),
            Const::Cons(c) => Value::cons(c.0.to_value(names), c.1.to_value(names)),
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_datum(&mut Interner::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_reader::Interner;

    #[test]
    fn datum_round_trip() {
        let mut i = Interner::new();
        let d = s1lisp_reader::read_str("(1 2.5 sym \"s\" (nested))", &mut i).unwrap();
        let v = Value::from_datum(&d);
        let back = v.to_datum().unwrap();
        assert!(back.equal(&d));
    }

    #[test]
    fn equality_predicates() {
        let a = Value::list([Value::Fixnum(1)]);
        let b = Value::list([Value::Fixnum(1)]);
        assert!(!a.eq_p(&b));
        assert!(Value::Flonum(2.0).eql_p(&Value::Flonum(2.0)));
        assert!(!Value::Fixnum(2).eql_p(&Value::Flonum(2.0)));
        assert_eq!(a, b); // PartialEq is `equal`
    }

    #[test]
    fn long_lists_print_and_drop_in_constant_stack() {
        // A recursive walk of the cdr spine overflows a 2 MiB stack well
        // before 200,000 cells.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let n = 200_000;
                let list = (1..=n)
                    .rev()
                    .fold(Value::Nil, |cdr, k| Value::cons(Value::Fixnum(k), cdr));
                let text = list.to_string();
                assert!(text.starts_with("(1 2 3 "), "{}", &text[..20]);
                assert!(text.ends_with(" 199999 200000)"));
                // A shared tail survives its list's drop.
                let tail = match &list {
                    Value::Cons(c) => c.cdr.borrow().clone(),
                    _ => unreachable!("a cons"),
                };
                drop(list);
                assert!(tail.to_string().starts_with("(2 3 "));
            })
            .expect("spawn a test thread")
            .join()
            .expect("the list printed and dropped");
    }

    #[test]
    fn long_lists_compare_and_convert_in_constant_stack() {
        // `==` (`equal`) and `from_datum` walk the cdr chain in a loop, as
        // `to_datum` does: a recursive walk overflows a 2 MiB stack well
        // before 200,000 cells.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let n = 200_000;
                let list = |last: i64| {
                    (1..=n).rev().fold(Value::Nil, |cdr, k| {
                        Value::cons(Value::Fixnum(if k == n { last } else { k }), cdr)
                    })
                };
                let (a, b) = (list(n), list(n));
                assert_eq!(a, b);
                assert!(a != list(0), "the last element differs");
                assert!(a != Value::Nil);
                let datum = a.to_datum().expect("a datum");
                let back = Value::from_datum(&datum);
                assert!(back == a);
                assert!(!back.eq_p(&a), "a fresh list");
            })
            .expect("spawn a test thread")
            .join()
            .expect("the lists compared and converted");
    }

    #[test]
    fn display_values() {
        assert_eq!(Value::Nil.to_string(), "()");
        assert_eq!(Value::Fixnum(3).to_string(), "3");
        assert_eq!(Value::Flonum(3.0).to_string(), "3.0");
        assert_eq!(
            Value::Func(Function::Global("car".into())).to_string(),
            "#<function car>"
        );
    }

    #[test]
    fn constants_print_and_materialise_like_their_datum() {
        let mut i = Interner::new();
        let d = s1lisp_reader::read_str("(1 2.5 sym \"s\" #\\a (nested) . t)", &mut i).unwrap();
        let k = Const::from_datum(&d);
        assert_eq!(k.to_string(), d.to_string());
        assert_eq!(
            k.to_value(&mut i).to_string(),
            Value::from_datum(&d).to_string()
        );
        assert!(k.to_datum(&mut i).equal(&d));
    }

    #[test]
    fn shared_mutation() {
        let c = Value::cons(Value::Fixnum(1), Value::Nil);
        let alias = c.clone();
        if let Value::Cons(cell) = &c {
            *cell.car.borrow_mut() = Value::Fixnum(9);
        }
        if let Value::Cons(cell) = &alias {
            assert!(cell.car.borrow().eql_p(&Value::Fixnum(9)));
        }
    }
}
