//! The table of known primitive operations: one row per primitive,
//! numbered once.
//!
//! Table 2's `call` node names "known primitive operations"; every layer
//! that needs to know what a primitive is reads it from here.  The
//! frontend refuses to redefine one, the optimizer folds and reassociates
//! through it, the annotator and code generator classify and select
//! instructions by it, and the interpreter, the bytecode evaluator and
//! the S-1 run-time system dispatch on its number ([`Prim`]) after one
//! arity check against it ([`Prim::check_arity`]).  Which rows compile
//! in line, and to what, is a column here too, so no other crate keeps
//! a list of primitives.
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
//!   certified first;
//! * **in-line class** — how the row compiles in line ([`Inline`]): Table
//!   1's code generator is "partly procedural, partly table-driven", and
//!   this column is its table.  Representation analysis, the S-1 code
//!   generator, the bytecode emitter and both engines' fast paths read
//!   it; each back end maps a class to its own instructions in one
//!   place, and a class it has no code for compiles as the call;
//! * **operation** — what a numeric row computes on raw operands
//!   ([`NumOp`]), which the back ends map to instructions;
//! * **trapping** — whether a call can trap on some operand (allocation
//!   running out of memory aside): the code generator computes an
//!   argument that cannot out of source order.

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
    /// How the row compiles in line.
    pub inline: Inline,
    /// The operation a numeric row computes on raw operands.
    pub op: Option<NumOp>,
    /// May trap on some operand.  A row that cannot accepts every
    /// operand, so computing its call out of source order is unobservable.
    pub traps: bool,
}

/// How a row compiles in line.  Each back end maps a class to its own
/// instructions in one place; a class that a back end has no code for
/// compiles as the call of the row's routine.  The fixed-operand classes
/// take [`Prim::operands`] operands, and any other count is a call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inline {
    /// A numeric compare-and-branch: of two operands, or of one against
    /// 0 (`zerop`), under the relation [`crate::num::holds`] gives.
    Compare,
    /// `eq`: a branch on the identity of two operands.
    Eq,
    /// `not`, `null`: the test of the operand, its sense flipped.
    Negate,
    /// A test of the operand's tag, holding when it is a cons (`true`,
    /// `consp`) or when it is not (`false`, `atom`).
    Tag(bool),
    /// `car`.
    Car,
    /// `cdr`.
    Cdr,
    /// `cons`.
    Cons,
    /// Generic arithmetic of two operands (of one for `1+` and `1-`)
    /// whose fixnum case runs in line: [`crate::num::fixnum`].
    Generic,
    /// Arithmetic on raw flonums (SWFLO operands and result, §6.2).
    Flonum,
    /// Arithmetic on raw fixnums (SWFIX).
    Fixnum,
    /// A call of the routine.
    Call,
}

/// The operation a numeric row computes on raw operands: `+`, `+$f`,
/// `+&` and `1+` are all [`NumOp::Add`] (a row of one operand adds 1).
/// The back ends map an operation to their instructions; where a generic
/// row's operands are all raw, representation analysis lowers it to the
/// operation (§6.2's type deduction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumOp {
    /// Addition.
    Add,
    /// Subtraction (negation of one operand).
    Sub,
    /// Multiplication.
    Mul,
    /// Division, truncating on fixnums (the reciprocal of one operand).
    Div,
    /// The greater operand.
    Max,
    /// The lesser operand.
    Min,
    /// Division rounding toward negative infinity (`floor` of two).
    FloorDiv,
    /// Remainder of the truncating division.
    Rem,
    /// Remainder of the floor division.
    Mod,
    /// Square root.
    Sqrt,
    /// e^x.
    Exp,
    /// Natural logarithm.
    Log,
    /// Arctangent of one operand.
    Atan,
    /// Sine of an argument in cycles (§7: "the S-1 SIN instruction
    /// assumes its argument to be in cycles").
    SinCycles,
    /// Cosine of an argument in cycles.
    CosCycles,
}

impl NumOp {
    /// Whether the operation is defined on raw fixnums: the S-1's integer
    /// instructions (§3 has all sixteen rounding modes of division).
    pub fn on_fixnums(self) -> bool {
        use NumOp::{Add, Div, FloorDiv, Mod, Mul, Rem, Sub};
        matches!(self, Add | Sub | Mul | Div | FloorDiv | Rem | Mod)
    }

    /// Whether the operation is defined on raw flonums.
    pub fn on_flonums(self) -> bool {
        !matches!(self, NumOp::FloorDiv | NumOp::Rem | NumOp::Mod)
    }
}

/// An optional column: `_` for none, else a count or an operation.
macro_rules! optional {
    (_) => {
        None
    };
    ($n:literal) => {
        Some($n)
    };
    ($op:ident) => {
        Some(NumOp::$op)
    };
}

macro_rules! prims {
    ($( $var:ident $name:literal args:[$min:literal, $max:tt]
         pure:$p:literal alloc:$al:literal writes:$w:literal readsmut:$rm:literal
         safe:$s:literal ac:$ac:literal id:$id:expr, result:$res:ident
         inline:$inl:ident $(($cons:literal))? op:$op:tt trap:$t:literal; )*) => {
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
            max_args: optional!($max),
            pure_math: $p,
            allocates: $al,
            writes: $w,
            reads_mutable: $rm,
            pdl_safe: $s,
            assoc_commut: $ac,
            identity: $id,
            result: NumKind::$res,
            inline: Inline::$inl $(($cons))?,
            op: optional!($op),
            traps: $t,
        }),*];
    };
}

prims! {
    // Generic arithmetic: pure mathematical functions.
    Add "+" args:[0, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Fixnum(0)), result:Generic inline:Generic op:Add trap:true;
    Sub "-" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic inline:Generic op:Sub trap:true;
    Mul "*" args:[0, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Fixnum(1)), result:Generic inline:Generic op:Mul trap:true;
    Div "/" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic inline:Generic op:Div trap:true;
    OnePlus "1+" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic inline:Generic op:Add trap:true;
    OneMinus "1-" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic inline:Generic op:Sub trap:true;
    Abs "abs" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic inline:Call op:_ trap:true;
    Min "min" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:None, result:Generic inline:Call op:Min trap:true;
    Max "max" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:None, result:Generic inline:Call op:Max trap:true;
    Floor "floor" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum inline:Call op:FloorDiv trap:true;
    Ceiling "ceiling" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum inline:Call op:_ trap:true;
    Truncate "truncate" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum inline:Call op:_ trap:true;
    Round "round" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum inline:Call op:_ trap:true;
    Mod "mod" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic inline:Call op:Mod trap:true;
    Rem "rem" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic inline:Call op:Rem trap:true;
    Expt "expt" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Generic inline:Call op:_ trap:true;
    // Comparisons and numeric predicates.
    NumEq "=" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Compare op:_ trap:true;
    NumNe "/=" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Compare op:_ trap:true;
    Lt "<" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Compare op:_ trap:true;
    Gt ">" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Compare op:_ trap:true;
    Le "<=" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Compare op:_ trap:true;
    Ge ">=" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Compare op:_ trap:true;
    Zerop "zerop" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Compare op:_ trap:true;
    Plusp "plusp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:true;
    Minusp "minusp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:true;
    Oddp "oddp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:true;
    Evenp "evenp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:true;
    // Type-specific arithmetic (§6.2's "+$f" family).
    AddF "+$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Flonum(0.0)), result:Flonum inline:Flonum op:Add trap:true;
    SubF "-$f" args:[1, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Flonum op:Sub trap:true;
    MulF "*$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Flonum(1.0)), result:Flonum inline:Flonum op:Mul trap:true;
    DivF "/$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Flonum op:Div trap:true;
    MaxF "max$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:None, result:Flonum inline:Flonum op:Max trap:true;
    MinF "min$f" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:None, result:Flonum inline:Flonum op:Min trap:true;
    AbsF "abs$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Flonum op:_ trap:true;
    AddI "+&" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Fixnum(0)), result:Fixnum inline:Fixnum op:Add trap:true;
    SubI "-&" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum inline:Fixnum op:Sub trap:true;
    MulI "*&" args:[2, _] pure:true alloc:false writes:false readsmut:false safe:true ac:true id:Some(Identity::Fixnum(1)), result:Fixnum inline:Fixnum op:Mul trap:true;
    // Transcendental: immutable mathematical functions (§7).
    Sqrt "sqrt" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Call op:Sqrt trap:true;
    SqrtF "sqrt$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Flonum op:Sqrt trap:true;
    Sin "sin" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Call op:_ trap:true;
    Cos "cos" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Call op:_ trap:true;
    SinF "sin$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Flonum op:_ trap:true;
    CosF "cos$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Flonum op:_ trap:true;
    SincF "sinc$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Flonum op:SinCycles trap:true;
    CoscF "cosc$f" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Flonum op:CosCycles trap:true;
    Atan "atan" args:[1, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Call op:Atan trap:true;
    Exp "exp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Call op:Exp trap:true;
    Log "log" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Call op:Log trap:true;
    Float "float" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Flonum inline:Call op:_ trap:true;
    Fix "fix" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Fixnum inline:Call op:_ trap:true;
    // Predicates on objects: pure (type of an object never changes).
    Null "null" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Negate op:_ trap:false;
    Not "not" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Negate op:_ trap:false;
    Atom "atom" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Tag(false) op:_ trap:false;
    Consp "consp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Tag(true) op:_ trap:false;
    Listp "listp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:false;
    Symbolp "symbolp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:false;
    Numberp "numberp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:false;
    Fixnump "fixnump" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:false;
    Flonump "flonump" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:false;
    Stringp "stringp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:false;
    Functionp "functionp" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:false;
    Eq "eq" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Eq op:_ trap:false;
    Eql "eql" args:[2, 2] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:true;
    // equal traverses mutable structure.
    Equal "equal" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Boolean inline:Call op:_ trap:true;
    // List construction: allocates; results are fresh.
    Cons "cons" args:[2, 2] pure:false alloc:true writes:false readsmut:false safe:false ac:false id:None, result:Other inline:Cons op:_ trap:false;
    List "list" args:[0, _] pure:false alloc:true writes:false readsmut:false safe:false ac:false id:None, result:Other inline:Call op:_ trap:false;
    ListStar "list*" args:[1, _] pure:false alloc:true writes:false readsmut:false safe:false ac:false id:None, result:Other inline:Call op:_ trap:true;
    Append "append" args:[0, _] pure:false alloc:true writes:false readsmut:true safe:false ac:false id:None, result:Other inline:Call op:_ trap:true;
    Reverse "reverse" args:[1, 1] pure:false alloc:true writes:false readsmut:true safe:false ac:false id:None, result:Other inline:Call op:_ trap:true;
    // List observation: reads mutable structure.
    Car "car" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Car op:_ trap:true;
    Cdr "cdr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Cdr op:_ trap:true;
    Caar "caar" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Cadr "cadr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Cdar "cdar" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Cddr "cddr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Caddr "caddr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Cdddr "cdddr" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Length "length" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Fixnum inline:Call op:_ trap:true;
    Nth "nth" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Nthcdr "nthcdr" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Last "last" args:[1, 1] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Assq "assq" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Assoc "assoc" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Memq "memq" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Member "member" args:[2, 2] pure:false alloc:false writes:false readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    // Structure mutation: the canonical unsafe operations (§6.3).
    Rplaca "rplaca" args:[2, 2] pure:false alloc:false writes:true readsmut:false safe:false ac:false id:None, result:Other inline:Call op:_ trap:true;
    Rplacd "rplacd" args:[2, 2] pure:false alloc:false writes:true readsmut:false safe:false ac:false id:None, result:Other inline:Call op:_ trap:true;
    // Miscellaneous.
    Identity "identity" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Other inline:Call op:_ trap:false;
    // Control-adjacent builtins: never movable or foldable.  The engines
    // handle `throw`, `apply` and `%function` before primitive dispatch.
    Throw "throw" args:[2, 2] pure:false alloc:false writes:true readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Apply "apply" args:[2, _] pure:false alloc:true writes:true readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Function "%function" args:[1, 1] pure:true alloc:false writes:false readsmut:false safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
    Error "error" args:[0, _] pure:false alloc:false writes:true readsmut:true safe:true ac:false id:None, result:Other inline:Call op:_ trap:true;
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

    /// The operand count of the row's fixed-operand in-line form (its
    /// compare-and-branch, `GENERIC` or `CAR`): its greatest argument
    /// count, or two for a row without one.
    pub fn operands(self) -> usize {
        self.info().max_args.unwrap_or(2)
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

    /// Every row the table marks as unable to trap answers the boundary
    /// operands — fixnums at and next to the `i64` bounds, flonums, NaN, a
    /// symbol, `()` and a cons, alone and in every pair — without an error
    /// in the reference interpreter: the code generator computes such a
    /// call out of source order, which an error would reveal.
    #[test]
    fn rows_that_cannot_trap_accept_every_operand() {
        use s1lisp_interp::{Interp, Value};
        let mut operands: Vec<Value> = [0, 1, -1, 2, -2, i64::MIN, i64::MIN + 1, i64::MAX]
            .into_iter()
            .map(Value::Fixnum)
            .collect();
        operands.extend([1.5, -0.0, 1e300, f64::NAN].map(Value::Flonum));
        operands.push(Value::Sym(s1lisp_reader::Interner::new().intern("foo")));
        operands.push(Value::Nil);
        operands.push(Value::list([Value::Fixnum(1), Value::Fixnum(2)]));
        let interp = Interp::new();
        let mut calls = 0;
        for p in Prim::ALL.iter().filter(|p| !p.info().traps) {
            let f = Value::global_function(p.name());
            let info = p.info();
            for arity in info.min_args.max(1)..=info.max_args.unwrap_or(2).min(2) {
                let mut tuples: Vec<Vec<Value>> =
                    operands.iter().map(|x| vec![x.clone()]).collect();
                if arity == 2 {
                    tuples = operands
                        .iter()
                        .flat_map(|x| operands.iter().map(|y| vec![x.clone(), y.clone()]))
                        .collect();
                }
                for args in tuples {
                    let answer = interp.funcall(&f, &args);
                    assert!(answer.is_ok(), "({} {args:?}): {answer:?}", p.name());
                    calls += 1;
                }
            }
        }
        // cons, eq and list of two: 15 × 15 pairs each; every row of one
        // argument (list included): 15 operands each.
        assert_eq!(calls, 3 * 225 + 13 * 15);
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
