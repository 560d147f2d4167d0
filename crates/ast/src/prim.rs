//! The table of known primitive operations: one row per primitive,
//! numbered once.
//!
//! Table 2's `call` node names "known primitive operations"; every layer
//! that needs to know what a primitive is reads it from here.  The
//! frontend refuses to redefine one, the optimizer folds and reassociates
//! through it, the annotator and code generator classify and select
//! instructions by it, and the interpreter, the bytecode evaluator and
//! the S-1 run-time system dispatch on its number ([`Prim`]) after one
//! arity check against it ([`Prim::check_arity`]).
//!
//! The columns record, per primitive:
//!
//! * **arity** — the least and (when bounded) the greatest argument
//!   count;
//! * **purity** — "invoking primitive functions known to be free of side
//!   effects on constant operands" (compile-time expression evaluation,
//!   §5), and the code-motion legality check of §7 ("the operations `*$f`
//!   and `sinc$f` … are known to the compiler to be immutable
//!   mathematical functions");
//! * **associativity/commutativity** — "certain manipulations of
//!   associative and commutative operators (such as table-driven
//!   elimination of identity operands)" (§5);
//! * **pdl-safety** — "operations are also classified as 'safe' and
//!   'unsafe'" (§6.3): an unsafe operation may smuggle a pointer into the
//!   heap or a global, so a stack-allocated (pdl) number must be
//!   certified first.

use s1lisp_reader::Datum;

/// An identity element of an associative/commutative operation, stored
/// as plain data so the table can be `static`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Identity {
    /// A fixnum identity (0 for `+`, 1 for `*`).
    Fixnum(i64),
    /// A flonum identity (0.0 for `+$f`, 1.0 for `*$f`).
    Flonum(f64),
}

impl Identity {
    /// Whether `d` is this identity element (same type and value).
    pub fn matches(self, d: &Datum) -> bool {
        match (self, d) {
            (Identity::Fixnum(a), Datum::Fixnum(b)) => a == *b,
            (Identity::Flonum(a), Datum::Flonum(b)) => a == *b,
            _ => false,
        }
    }

    /// The identity as a datum.
    pub fn to_datum(self) -> Datum {
        match self {
            Identity::Fixnum(n) => Datum::Fixnum(n),
            Identity::Flonum(x) => Datum::Flonum(x),
        }
    }
}

/// Which numeric type an operation produces, when known.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NumKind {
    /// Always a fixnum.
    Fixnum,
    /// Always a single-word flonum.
    Flonum,
    /// A number whose exact type depends on the arguments (generic
    /// arithmetic).
    Generic,
    /// A boolean (`t` or `()`).
    Boolean,
    /// Not a number (or unknown).
    Other,
}

/// Static facts about one primitive operation.
#[derive(Clone, Debug)]
pub struct Primop {
    /// Operation name as spelled in source.
    pub name: &'static str,
    /// Fewest arguments accepted.
    pub min_args: usize,
    /// Most arguments accepted; `None` when unbounded.
    pub max_args: Option<usize>,
    /// Free of side effects *and* of dependence on mutable state: safe to
    /// fold, duplicate, reorder, or move past arbitrary calls.
    pub pure_math: bool,
    /// May allocate heap storage (a side effect that "may be eliminated
    /// but must not be duplicated", §5).
    pub allocates: bool,
    /// Mutates reachable structure (`rplaca`-class).
    pub writes: bool,
    /// Reads mutable structure (`car`-class): movable only where no
    /// intervening write can occur.
    pub reads_mutable: bool,
    /// pdl-safe: may receive a pointer into the stack without
    /// certification (§6.3).  Safe: type checks, arithmetic, comparisons,
    /// passing onward.  Unsafe: storing a pointer into reachable
    /// structure.
    pub pdl_safe: bool,
    /// Associative and commutative (may be re-associated; constants may
    /// be hoisted to the front, §7).
    pub assoc_commut: bool,
    /// Identity operand for table-driven identity elimination, e.g. 0
    /// for `+`, 1 for `*`.
    pub identity: Option<Identity>,
    /// Result type.
    pub result: NumKind,
}

macro_rules! max_args {
    (_) => {
        None
    };
    ($n:literal) => {
        Some($n)
    };
}

macro_rules! prims {
    ($( $var:ident $name:literal args:[$min:literal, $max:tt]
         pure:$p:literal alloc:$al:literal writes:$w:literal readsmut:$rm:literal
         safe:$s:literal ac:$ac:literal id:$id:expr, result:$res:ident; )*) => {
        /// A primitive operation, numbered densely in table order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Prim {
            $(
                #[doc = concat!("`", $name, "`")]
                $var,
            )*
        }

        impl Prim {
            /// Every primitive, in number order.
            pub const ALL: &'static [Prim] = &[$(Prim::$var),*];

            /// The primitive spelled `name` in source.  A name listed
            /// twice in the table makes this `match` fail to compile.
            #[deny(unreachable_patterns)]
            pub fn from_name(name: &str) -> Option<Prim> {
                match name {
                    $($name => Some(Prim::$var),)*
                    _ => None,
                }
            }
        }

        static PRIMOPS: [Primop; Prim::ALL.len()] = [$(Primop {
            name: $name,
            min_args: $min,
            max_args: max_args!($max),
            pure_math: $p,
            allocates: $al,
            writes: $w,
            reads_mutable: $rm,
            pdl_safe: $s,
            assoc_commut: $ac,
            identity: $id,
            result: NumKind::$res,
        }),*];
    };
}

prims! {
    // Generic arithmetic: pure mathematical functions.
    Add "+" args:[0, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Fixnum(0)), result:Generic;
    Sub "-" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic;
    Mul "*" args:[0, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Fixnum(1)), result:Generic;
    Div "/" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic;
    OnePlus "1+" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic;
    OneMinus "1-" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic;
    Abs "abs" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic;
    Min "min" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:None, result:Generic;
    Max "max" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:None, result:Generic;
    Floor "floor" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum;
    Ceiling "ceiling" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum;
    Truncate "truncate" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum;
    Round "round" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum;
    Mod "mod" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic;
    Rem "rem" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic;
    Expt "expt" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic;
    // Comparisons and numeric predicates.
    NumEq "=" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    NumNe "/=" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Lt "<" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Gt ">" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Le "<=" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Ge ">=" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Zerop "zerop" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Plusp "plusp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Minusp "minusp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Oddp "oddp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Evenp "evenp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    // Type-specific arithmetic (§6.2's "+$f" family).
    AddF "+$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Flonum(0.0)), result:Flonum;
    SubF "-$f" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    MulF "*$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Flonum(1.0)), result:Flonum;
    DivF "/$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    MaxF "max$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:None, result:Flonum;
    MinF "min$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:None, result:Flonum;
    AbsF "abs$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    AddI "+&" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Fixnum(0)), result:Fixnum;
    SubI "-&" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum;
    MulI "*&" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Fixnum(1)), result:Fixnum;
    // Transcendental: immutable mathematical functions (§7).
    Sqrt "sqrt" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    SqrtF "sqrt$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    Sin "sin" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    Cos "cos" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    SinF "sin$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    CosF "cos$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    SincF "sinc$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    CoscF "cosc$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    Atan "atan" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    Exp "exp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    Log "log" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    Float "float" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum;
    Fix "fix" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum;
    // Predicates on objects: pure (type of an object never changes).
    Null "null" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Not "not" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Atom "atom" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Consp "consp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Listp "listp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Symbolp "symbolp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Numberp "numberp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Fixnump "fixnump" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Flonump "flonump" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Stringp "stringp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Functionp "functionp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Eq "eq" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    Eql "eql" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean;
    // equal traverses mutable structure.
    Equal "equal" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Boolean;
    // List construction: allocates; results are fresh.
    Cons "cons" args:[2, 2] pure:false alloc:true writes:false readsmut:false safe:false ac:false id:None, result:Other;
    List "list" args:[0, _] pure:false alloc:true writes:false readsmut:false safe:false ac:false id:None, result:Other;
    ListStar "list*" args:[1, _] pure:false alloc:true writes:false readsmut:false safe:false ac:false id:None, result:Other;
    Append "append" args:[0, _] pure:false alloc:true writes:false readsmut:true safe:false ac:false id:None, result:Other;
    Reverse "reverse" args:[1, 1] pure:false alloc:true writes:false readsmut:true safe:false ac:false id:None, result:Other;
    // List observation: reads mutable structure.
    Car "car" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Cdr "cdr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Caar "caar" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Cadr "cadr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Cdar "cdar" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Cddr "cddr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Caddr "caddr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Cdddr "cdddr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Length "length" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Fixnum;
    Nth "nth" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Nthcdr "nthcdr" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Last "last" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Assq "assq" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Assoc "assoc" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Memq "memq" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    Member "member" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other;
    // Structure mutation: the canonical unsafe operations (§6.3).
    Rplaca "rplaca" args:[2, 2] pure:false alloc:false writes:true readsmut:false safe:false ac:false id:None, result:Other;
    Rplacd "rplacd" args:[2, 2] pure:false alloc:false writes:true readsmut:false safe:false ac:false id:None, result:Other;
    // Miscellaneous.
    Identity "identity" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Other;
    // Control-adjacent builtins: never movable or foldable.  The engines
    // handle `throw`, `apply` and `%function` before primitive dispatch.
    Throw "throw" args:[2, 2] pure:false alloc:false writes:true readsmut:true safe:true ac:false id:None, result:Other;
    Apply "apply" args:[2, _] pure:false alloc:true writes:true readsmut:true safe:true ac:false id:None, result:Other;
    Function "%function" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Other;
    Error "error" args:[0, _] pure:false alloc:false writes:true readsmut:true safe:true ac:false id:None, result:Other;
}

impl Prim {
    /// The row's static facts.
    pub fn info(self) -> &'static Primop {
        &PRIMOPS[self as usize]
    }

    /// The name as spelled in source.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Whether a call with `nargs` arguments has an acceptable count.
    pub fn accepts(self, nargs: usize) -> bool {
        let p = self.info();
        nargs >= p.min_args && p.max_args.is_none_or(|max| nargs <= max)
    }

    /// The one arity check every engine makes before dispatching: `Err`
    /// carries the message for a call with `nargs` arguments.
    ///
    /// # Errors
    ///
    /// When the row does not accept `nargs` arguments.
    pub fn check_arity(self, nargs: usize) -> Result<(), String> {
        if self.accepts(nargs) {
            return Ok(());
        }
        let p = self.info();
        let wants = match p.max_args {
            Some(max) if max == p.min_args => format!("{max}"),
            Some(max) => format!("{} to {max}", p.min_args),
            None => format!("at least {}", p.min_args),
        };
        Err(format!("{}: wants {wants} arguments, got {nargs}", p.name))
    }
}

/// Looks up a primitive operation by name.
pub fn primop(name: &str) -> Option<&'static Primop> {
    Prim::from_name(name).map(Prim::info)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_known_ops() {
        assert!(primop("+").unwrap().pure_math);
        assert!(primop("+").unwrap().assoc_commut);
        assert!(primop("cons").unwrap().allocates);
        assert!(!primop("cons").unwrap().pdl_safe);
        assert!(primop("rplaca").unwrap().writes);
        assert!(primop("no-such-op").is_none());
    }

    #[test]
    fn numbering_round_trips_through_names() {
        for (i, &p) in Prim::ALL.iter().enumerate() {
            assert_eq!(p as usize, i);
            assert_eq!(Prim::from_name(p.name()), Some(p));
        }
    }

    #[test]
    fn arity_checks_read_the_table() {
        assert!(Prim::Atom.accepts(1) && !Prim::Atom.accepts(0) && !Prim::Atom.accepts(2));
        assert!(Prim::Add.accepts(0) && Prim::Add.accepts(9));
        assert!(Prim::Atan.accepts(2) && !Prim::Atan.accepts(3));
        assert_eq!(
            Prim::Atom.check_arity(0),
            Err("atom: wants 1 arguments, got 0".to_string())
        );
        assert_eq!(
            Prim::ListStar.check_arity(0),
            Err("list*: wants at least 1 arguments, got 0".to_string())
        );
        assert_eq!(
            Prim::Floor.check_arity(3),
            Err("floor: wants 1 to 2 arguments, got 3".to_string())
        );
    }

    #[test]
    fn identity_elements() {
        assert!(primop("+")
            .unwrap()
            .identity
            .unwrap()
            .matches(&Datum::Fixnum(0)));
        assert!(primop("*$f")
            .unwrap()
            .identity
            .unwrap()
            .matches(&Datum::Flonum(1.0)));
        assert!(!primop("+")
            .unwrap()
            .identity
            .unwrap()
            .matches(&Datum::Flonum(0.0)));
        assert!(primop("-").unwrap().identity.is_none());
    }

    #[test]
    fn paper_classifications_hold() {
        // §6.3: "checking the type of a pointer is safe, as is passing a
        // pointer to a procedure.  However, storing a pointer into a
        // global variable or into a heap object (as with rplaca) is
        // unsafe."
        assert!(primop("consp").unwrap().pdl_safe);
        assert!(!primop("rplaca").unwrap().pdl_safe);
        // §7: *$f and sinc$f are immutable mathematical functions.
        assert!(primop("*$f").unwrap().pure_math);
        assert!(primop("sinc$f").unwrap().pure_math);
        // car reads mutable structure: not movable past unknown calls.
        assert!(!primop("car").unwrap().pure_math);
    }
}
