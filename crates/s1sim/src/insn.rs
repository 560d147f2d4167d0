//! Instructions, operands, and registers.
//!
//! The instruction set is the subset of the S-1 the compiler targets,
//! plus the run-time-system entry points that the real compiler reached
//! through `%CALL`-style macros (Table 4).  Arithmetic obeys the S-1's
//! "2½-address" constraint: "the three operands to ADD (for example) may
//! be in three distinct places, provided that one of them is one of the
//! two registers named RTA and RTB" (§3).

use s1lisp_ast::{num, Prim};

use crate::word::{Tag, Word};

/// A register name.  R0–R31 exist; a few have fixed conventions
/// (mirroring §7's commentary): SP the stack pointer, FP the frame
/// pointer, TP the temporaries pointer, RTA/RTB the 2½-address
/// bottleneck registers (general registers 4 and 6 on the real machine),
/// CP the (callee) procedure register, A the argument/value register, EV
/// the closure-environment register.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Stack pointer.
    pub const SP: Reg = Reg(1);
    /// Frame pointer (arguments live at `FP+0 … FP+n-1`).
    pub const FP: Reg = Reg(2);
    /// Temporaries pointer (frame-local scratch and pdl-number slots).
    pub const TP: Reg = Reg(3);
    /// First 2½-address bottleneck register (general register 4).
    pub const RTA: Reg = Reg(4);
    /// Procedure register.
    pub const CP: Reg = Reg(5);
    /// Second 2½-address bottleneck register (general register 6).
    pub const RTB: Reg = Reg(6);
    /// Argument / return-value register.
    pub const A: Reg = Reg(7);
    /// Closure environment register.
    pub const EV: Reg = Reg(8);
    /// First general-purpose register available to the allocator.
    pub const FIRST_GP: u8 = 9;

    /// Whether this is one of the RT (bottleneck) registers.
    pub fn is_rt(self) -> bool {
        self == Reg::RTA || self == Reg::RTB
    }
}

impl std::fmt::Debug for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Reg::SP => write!(f, "SP"),
            Reg::FP => write!(f, "FP"),
            Reg::TP => write!(f, "TP"),
            Reg::RTA => write!(f, "RTA"),
            Reg::CP => write!(f, "CP"),
            Reg::RTB => write!(f, "RTB"),
            Reg::A => write!(f, "A"),
            Reg::EV => write!(f, "EV"),
            Reg(n) => write!(f, "R{n}"),
        }
    }
}

/// An operand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An assembler constant (the hardware would fetch it from an
    /// extended instruction word).
    Const(Word),
    /// Memory at `reg + offset` (stack slots are `FP`/`TP`/`SP`-relative).
    Ind(Reg, i32),
    /// The S-1's indexed mode (§3): memory at
    /// `(base + offset) + (index << shift)` — "in one operand, fetch from
    /// a record a component that is a pointer to an array, … adjust the
    /// index for the array's element size, and fetch the selected array
    /// element."
    Idx {
        /// Base register.
        base: Reg,
        /// Signed displacement added to the base.
        off: i32,
        /// Index register (its value is left-shifted).
        idx: Reg,
        /// Shift amount (0–3 on the S-1).
        shift: u8,
    },
    /// The full S-1 mode with a memory-resident index: memory at
    /// `(base + off) + (mem[idx_base + idx_off] << shift)` — the
    /// `(.Rb+bo)+((.(.Rn+(no^2)))^sh)` calculation of §3, which lets the
    /// paper's harder matrix statement write `FADD Z(TEMP),RTA,C(RTB)`
    /// with the Z subscript parked in a stack slot.
    IdxMem {
        /// Base register.
        base: Reg,
        /// Signed displacement added to the base.
        off: i32,
        /// Register addressing the index word.
        idx_base: Reg,
        /// Displacement of the index word.
        idx_off: i32,
        /// Shift applied to the fetched index.
        shift: u8,
    },
}

impl Operand {
    /// Argument slot `i` of the current frame.
    pub fn arg(i: u16) -> Operand {
        Operand::Ind(Reg::FP, i32::from(i))
    }

    /// Frame temporary slot `i` (TP-relative).
    pub fn temp(i: u16) -> Operand {
        Operand::Ind(Reg::TP, i32::from(i))
    }

    /// An immediate fixnum constant in pointer format.
    pub fn fixnum(n: i64) -> Operand {
        Operand::Const(Word::fixnum(n))
    }

    /// A raw floating-point constant.
    pub fn float(x: f64) -> Operand {
        Operand::Const(Word::F(x))
    }

    /// The nil constant.
    pub fn nil() -> Operand {
        Operand::Const(Word::NIL)
    }

    /// Is this operand a memory reference?
    pub fn is_mem(self) -> bool {
        matches!(self, Operand::Ind(..) | Operand::Idx { .. })
    }

    /// Is this operand the given register?
    pub fn is_reg(self, r: Reg) -> bool {
        self == Operand::Reg(r)
    }
}

/// A branch condition comparing two numeric operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Cond {
    /// The comparison row that tests the condition.
    pub fn prim(self) -> Prim {
        match self {
            Cond::Eq => Prim::NumEq,
            Cond::Ne => Prim::NumNe,
            Cond::Lt => Prim::Lt,
            Cond::Le => Prim::Le,
            Cond::Gt => Prim::Gt,
            Cond::Ge => Prim::Ge,
        }
    }

    /// Whether the condition holds of two operands so ordered: its
    /// row's relation.
    #[inline]
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        num::holds(self.prim(), ord)
    }

    /// The condition that tests the comparison or sign row `p`: the one
    /// whose relation is the row's.
    ///
    /// # Panics
    ///
    /// When `p` is not such a row.
    pub fn testing(p: Prim) -> Cond {
        use std::cmp::Ordering::{Equal, Greater, Less};
        [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge]
            .into_iter()
            .find(|c| {
                [Less, Equal, Greater]
                    .iter()
                    .all(|&o| c.holds(o) == num::holds(p, o))
            })
            .expect("a comparison row")
    }

    /// The condition that holds exactly when `self` does not.  That is
    /// sound because of the shared numeric rule (`s1lisp_ast::num`):
    /// every comparison, on every engine, orders its operands or traps —
    /// a NaN operand is `comparison with NaN`, never a false answer — so
    /// `Lt` and `Ge` (and each other pair) are exact complements.
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

/// The operation of an [`Insn::Int`]: §3's one format, "a 12-bit opcode
/// and two 12-bit operand specifiers", with the opcode as a field.  A
/// new integer operation is one row here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntOp {
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mult,
    /// Truncating division (the S-1 had all sixteen rounding modes as
    /// primitive instructions, §3).
    Div,
    /// Division rounding toward negative infinity (`floor`).
    DivFloor,
    /// Remainder of the truncating division.
    Rem,
    /// Remainder of the floor division (`mod`).
    ModFloor,
}

impl IntOp {
    /// Mnemonic (for retired-opcode histograms), listing head, and the
    /// source row whose fixnum case the operation computes.
    fn row(self) -> (&'static str, &'static str, Prim) {
        match self {
            IntOp::Add => ("ADD", "ADD", Prim::Add),
            IntOp::Sub => ("SUB", "SUB", Prim::Sub),
            IntOp::Mult => ("MULT", "MULT", Prim::Mul),
            IntOp::Div => ("DIV", "DIV", Prim::Div),
            IntOp::DivFloor => ("DIV-FLOOR", "DIVF", Prim::Floor),
            IntOp::Rem => ("REM", "REM", Prim::Rem),
            IntOp::ModFloor => ("MOD-FLOOR", "MODF", Prim::Mod),
        }
    }

    /// The mnemonic, as [`Insn::opcode`] reports it.
    pub fn mnemonic(self) -> &'static str {
        self.row().0
    }

    /// The head of the instruction in a listing (`DIVF`).
    pub fn listing(self) -> &'static str {
        self.row().1
    }

    /// The source row computed by `s1lisp_ast::num::int_op`, whose
    /// errors the instruction raises as that row's routine would.
    pub fn prim(self) -> Prim {
        self.row().2
    }
}

/// The operation of an [`Insn::Float`] on two raw floats.  A new
/// operation is one row here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloatOp {
    /// Add.
    Add,
    /// Subtract.
    Sub,
    /// Multiply.
    Mult,
    /// Divide.
    Div,
    /// Maximum (Table 4's `FMAX`).
    Max,
    /// Minimum.
    Min,
}

impl FloatOp {
    /// Mnemonic and listing head.
    fn row(self) -> (&'static str, &'static str) {
        match self {
            FloatOp::Add => ("FADD", "(FADD S)"),
            FloatOp::Sub => ("FSUB", "(FSUB S)"),
            FloatOp::Mult => ("FMULT", "(FMULT S)"),
            FloatOp::Div => ("FDIV", "(FDIV S)"),
            FloatOp::Max => ("FMAX", "(FMAX S)"),
            FloatOp::Min => ("FMIN", "(FMIN S)"),
        }
    }

    /// The mnemonic, as [`Insn::opcode`] reports it.
    pub fn mnemonic(self) -> &'static str {
        self.row().0
    }

    /// The head of the instruction in a listing (`(FADD S)`).
    pub fn listing(self) -> &'static str {
        self.row().1
    }

    /// The result of the operation on `x` and `y`.
    #[inline]
    pub fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            FloatOp::Add => x + y,
            FloatOp::Sub => x - y,
            FloatOp::Mult => x * y,
            FloatOp::Div => x / y,
            FloatOp::Max => x.max(y),
            FloatOp::Min => x.min(y),
        }
    }
}

/// The operation of an [`Insn::FloatUn`] on one raw float.  A new
/// operation is one row here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloatUnOp {
    /// Negate.
    Neg,
    /// The S-1 `SIN` instruction: argument in **cycles** (§7).
    Sin,
    /// Cosine, argument in cycles.
    Cos,
    /// Square root.
    Sqrt,
    /// Arctangent (radians).
    Atan,
    /// e^x.
    Exp,
    /// Natural logarithm.
    Log,
}

impl FloatUnOp {
    /// Mnemonic and listing head.
    fn row(self) -> (&'static str, &'static str) {
        match self {
            FloatUnOp::Neg => ("FNEG", "(FNEG S)"),
            FloatUnOp::Sin => ("FSIN", "(FSIN S)"),
            FloatUnOp::Cos => ("FCOS", "(FCOS S)"),
            FloatUnOp::Sqrt => ("FSQRT", "(FSQRT S)"),
            FloatUnOp::Atan => ("FATAN", "(FATAN S)"),
            FloatUnOp::Exp => ("FEXP", "(FEXP S)"),
            FloatUnOp::Log => ("FLOG", "(FLOG S)"),
        }
    }

    /// The mnemonic, as [`Insn::opcode`] reports it.
    pub fn mnemonic(self) -> &'static str {
        self.row().0
    }

    /// The head of the instruction in a listing (`(FSIN S)`).
    pub fn listing(self) -> &'static str {
        self.row().1
    }

    /// The result of the operation on `x`.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        use std::f64::consts::TAU;
        match self {
            FloatUnOp::Neg => -x,
            FloatUnOp::Sin => (x * TAU).sin(),
            FloatUnOp::Cos => (x * TAU).cos(),
            FloatUnOp::Sqrt => x.sqrt(),
            FloatUnOp::Atan => x.atan(),
            FloatUnOp::Exp => x.exp(),
            FloatUnOp::Log => x.ln(),
        }
    }
}

/// A branch target: an index into the owning function's label table
/// (bound by [`Asm::bind`](crate::Asm::bind)).
pub type Label = u32;

/// The target of a call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CallTarget {
    /// A named global function (index into the program's function name
    /// table; resolution is late, as in Lisp).
    Func(u32),
    /// A computed function or closure object.
    Value(Operand),
}

/// One machine instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Insn {
    // ---- data movement ----
    /// `dst := src`.
    Mov {
        /// Destination.
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// Table 4's `MOVP`: "creates a pointer to its second operand,
    /// installing the indicated type in the tag field."  When `src`
    /// addresses a stack slot the result is a pdl (unsafe) pointer.
    Movp {
        /// Tag to install.
        tag: Tag,
        /// Destination.
        dst: Operand,
        /// Addressed operand (must be a memory operand).
        src: Operand,
    },
    // ---- arithmetic (2½-address) ----
    /// Integer arithmetic: `dst := a op b`.
    Int {
        /// The operation.
        op: IntOp,
        /// Destination.
        dst: Operand,
        /// First source (the dividend of a division).
        a: Operand,
        /// Second source (the divisor of a division).
        b: Operand,
    },
    /// Integer negate: `dst := -src`.
    Neg {
        /// Destination.
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// Floating arithmetic on raw floats: `dst := a op b`.
    Float {
        /// The operation.
        op: FloatOp,
        /// Destination.
        dst: Operand,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// One-operand floating arithmetic on a raw float: `dst := op src`.
    FloatUn {
        /// The operation.
        op: FloatUnOp,
        /// Destination.
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// Convert integer to float.
    FloatIt {
        /// Destination.
        dst: Operand,
        /// Source (raw integer or fixnum).
        src: Operand,
    },
    /// Convert float to integer (truncating).
    FixIt {
        /// Destination.
        dst: Operand,
        /// Source (raw float).
        src: Operand,
    },
    // ---- control ----
    /// Unconditional jump.
    Jmp {
        /// Target label.
        target: Label,
    },
    /// Compare-and-branch on a numeric condition.
    JmpIf {
        /// The condition.
        cond: Cond,
        /// The source row the test compiles (`zerop`, `<`, …), whose
        /// name a trap carries; inverting `cond` leaves it as it is.
        prim: Prim,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Target label.
        target: Label,
    },
    /// Branch if the operand is nil.
    JmpNil {
        /// Tested operand.
        src: Operand,
        /// Target label.
        target: Label,
    },
    /// Branch if the operand is non-nil.
    JmpNotNil {
        /// Tested operand.
        src: Operand,
        /// Target label.
        target: Label,
    },
    /// Branch if the operand carries the given tag (type dispatch).
    JmpTag {
        /// Tag to test.
        tag: Tag,
        /// Tested operand.
        src: Operand,
        /// Target label.
        target: Label,
    },
    /// Branch if the two operands are `eq` (identical words).
    JmpEq {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Target label.
        target: Label,
    },
    /// Table 4's computed dispatch: jump to `targets[src]` (trap if out
    /// of range).
    Dispatch {
        /// Raw index operand.
        src: Operand,
        /// Jump table.
        targets: Vec<Label>,
    },
    // ---- stack and frames ----
    /// Push a word.
    Push {
        /// Source.
        src: Operand,
    },
    /// Pop into a destination.
    Pop {
        /// Destination.
        dst: Operand,
    },
    /// Allocate `n` stack slots initialized to `init` (Table 4's frame
    /// `ALLOC`s: nil for pointer slots, a `DTP-GC` marker for scratch).
    AllocSlots {
        /// Number of slots.
        n: u16,
        /// Initial word for each slot.
        init: Word,
    },
    /// Pop `n` slots.
    FreeSlots {
        /// Number of slots.
        n: u16,
    },
    /// Call a function with the top `nargs` stack words as arguments;
    /// result arrives in register A.
    Call {
        /// Callee.
        f: CallTarget,
        /// Argument count.
        nargs: u8,
    },
    /// The parameter-passing goto (§2): replace the current frame with
    /// the top `nargs` stack words and jump to the callee.
    TailCall {
        /// Callee.
        f: CallTarget,
        /// Argument count.
        nargs: u8,
    },
    /// Tail self-jump: move the top `nargs` words into the argument slots
    /// and continue at a label of the *current* function (the compiled
    /// form of `exptl`'s self-call).  With `nargs` 0 the arguments are
    /// already in their homes: the jump moves nothing and leaves the
    /// stack pointer and RTA alone, and still counts as a tail call.
    TailJmp {
        /// Argument count.
        nargs: u8,
        /// Restart label (usually the function body).
        target: Label,
    },
    /// Return with the value in register A.
    Ret,
    /// Signal a run-time error (wrong argument count, wrong type…).
    Trap {
        /// Diagnostic message.
        msg: &'static str,
    },
    // ---- run-time system ----
    /// Allocate a cons cell.
    ConsRt {
        /// Destination (receives a Cons pointer).
        dst: Operand,
        /// Car value.
        car: Operand,
        /// Cdr value.
        cdr: Operand,
    },
    /// `car` with type check (nil yields nil).
    Car {
        /// Destination.
        dst: Operand,
        /// Source list.
        src: Operand,
    },
    /// `cdr` with type check (nil yields nil).
    Cdr {
        /// Destination.
        dst: Operand,
        /// Source list.
        src: Operand,
    },
    /// Heap-allocate a flonum object from a raw float (the expensive
    /// direction of §6.2: "conversion from a raw number back to pointer
    /// format … may entail allocation of new storage and consequent
    /// garbage-collection overhead").
    BoxFlo {
        /// Destination (receives a SingleFlonum pointer).
        dst: Operand,
        /// Raw float source.
        src: Operand,
    },
    /// Dereference a flonum pointer to a raw float ("a simple indirection
    /// operation", with a run-time type check).  Accepts an immediate
    /// fixnum (converting it) so generic call sites degrade gracefully.
    UnboxFlo {
        /// Destination (raw float).
        dst: Operand,
        /// Flonum pointer (or already-raw float).
        src: Operand,
    },
    /// §6.3's pointer certification: "either by determining at run time
    /// that the pointer is safe (does not point into the stack) or, if
    /// that fails, by copying the stack-allocated object into the heap."
    Certify {
        /// Destination (safe pointer).
        dst: Operand,
        /// Possibly-unsafe pointer.
        src: Operand,
    },
    /// Allocate a heap value cell (for a variable that "must … be
    /// heap-allocated" because closures refer to it, §4.4).
    MakeCell {
        /// Destination (Cell pointer).
        dst: Operand,
        /// Initial value.
        src: Operand,
    },
    /// Read through a Cell pointer.
    LoadCell {
        /// Destination.
        dst: Operand,
        /// Cell pointer.
        cell: Operand,
    },
    /// Write through a Cell pointer.
    StoreCell {
        /// Cell pointer.
        cell: Operand,
        /// Value.
        src: Operand,
    },
    /// Construct a closure over the top `ncells` stack words (each a Cell
    /// or value), for function `fnid`.
    MakeClosure {
        /// Destination (Closure pointer).
        dst: Operand,
        /// Code: index into the program's function name table.
        fnid: u32,
        /// Number of captured cells to pop.
        ncells: u8,
    },
    /// Load captured cell `i` of the current closure (via register EV).
    LoadEnv {
        /// Destination.
        dst: Operand,
        /// Environment slot index.
        index: u16,
    },
    /// Deep-bind a special variable: push (symbol, value) on the binding
    /// stack (§4.4).
    SpecBind {
        /// Symbol table index.
        sym: u32,
        /// Bound value.
        src: Operand,
    },
    /// Pop `n` special bindings.
    SpecUnbind {
        /// Number of bindings.
        n: u16,
    },
    /// The deep-binding *search*: linear scan for the innermost binding
    /// of the symbol, yielding a cached pointer to its value slot ("the
    /// special variables needed by that function are searched for once
    /// and pointers to the relevant stack locations are cached", §4.4).
    SpecLookup {
        /// Destination (Cell pointer into the binding stack or globals).
        dst: Operand,
        /// Symbol table index.
        sym: u32,
    },
    /// An *uncached* special read: search plus load every time (the E10
    /// baseline).
    SpecRead {
        /// Destination (the value).
        dst: Operand,
        /// Symbol table index.
        sym: u32,
    },
    /// An uncached special write.
    SpecWrite {
        /// Symbol table index.
        sym: u32,
        /// Value.
        src: Operand,
    },
    /// Generic arithmetic (a row of the generic class, `s1lisp_ast::
    /// Inline::Generic`: `+` of two operands, `1+` of one, …) in one
    /// 2½-address instruction: §3's tagged words make
    /// "are these fixnums?" part of the operation.  When every operand
    /// is a fixnum (raw or tagged) and the result fits, it computes the
    /// fixnum in line; otherwise it calls the routine [`Insn::RtCall`]
    /// would, on the same arguments and at the same charge.
    Generic {
        /// The primitive.
        prim: Prim,
        /// Destination.
        dst: Operand,
        /// First (or only) argument.
        a: Operand,
        /// Second argument; `None` for `1+` and `1-`.
        b: Option<Operand>,
    },
    /// Call a run-time-system routine (a "known primitive operation" too
    /// large to compile in line) on the top `nargs` stack words.
    RtCall {
        /// The primitive the routine implements.
        prim: Prim,
        /// Argument count.
        nargs: u8,
        /// Destination for the result.
        dst: Operand,
    },
    /// Establish a catch frame for non-local exit.
    PushCatch {
        /// Tag value.
        tag: Operand,
        /// Where control resumes when a throw lands here (throw value in
        /// register A).
        target: Label,
    },
    /// Remove the innermost catch frame (normal exit).
    PopCatch,
    /// Throw to the innermost catch with an `eql` tag.
    Throw {
        /// Tag value.
        tag: Operand,
        /// Thrown value.
        value: Operand,
    },
    /// Load the global function object named by a symbol.
    LoadFunction {
        /// Destination.
        dst: Operand,
        /// Function name table index.
        fnid: u32,
    },
    /// Collect the arguments beyond the first `fixed` into a fresh list
    /// and leave it as the next frame slot (the `&rest` prologue).
    ListifyArgs {
        /// Number of fixed parameters preceding the rest list.
        fixed: u16,
    },
    /// Load a constant from the program's constant table (static space:
    /// the constant is materialized once per machine and shared).
    LoadConst {
        /// Destination.
        dst: Operand,
        /// Constant table index.
        idx: u32,
    },
    /// Push a constant from the program's constant table: the push form
    /// of `LoadConst`, for a constant that is a call's argument.
    PushConst {
        /// Constant table index.
        idx: u32,
    },
    /// Call a local code block in the same frame (the paper's "special
    /// (fast) subroutine linkage that can avoid error checks … and can
    /// even use special register conventions", §4.4).
    LocalCall {
        /// Block entry label.
        target: Label,
    },
    /// Return from a local code block (frame is untouched).
    LocalRet,
    /// `apply`: call the function value with a spread argument list.
    Apply {
        /// Function value.
        f: Operand,
        /// Argument list.
        list: Operand,
    },
}

impl Insn {
    /// The mnemonic of this instruction, for retired-opcode histograms.
    pub fn opcode(&self) -> &'static str {
        match self {
            Insn::Mov { .. } => "MOV",
            Insn::Movp { .. } => "MOVP",
            Insn::Int { op, .. } => op.mnemonic(),
            Insn::Neg { .. } => "NEG",
            Insn::Float { op, .. } => op.mnemonic(),
            Insn::FloatUn { op, .. } => op.mnemonic(),
            Insn::FloatIt { .. } => "FLOAT-IT",
            Insn::FixIt { .. } => "FIX-IT",
            Insn::Jmp { .. } => "JMP",
            Insn::JmpIf { .. } => "JMP-IF",
            Insn::JmpNil { .. } => "JMP-NIL",
            Insn::JmpNotNil { .. } => "JMP-NOT-NIL",
            Insn::JmpTag { .. } => "JMP-TAG",
            Insn::JmpEq { .. } => "JMP-EQ",
            Insn::Dispatch { .. } => "DISPATCH",
            Insn::Push { .. } => "PUSH",
            Insn::Pop { .. } => "POP",
            Insn::AllocSlots { .. } => "ALLOC-SLOTS",
            Insn::FreeSlots { .. } => "FREE-SLOTS",
            Insn::Call { .. } => "CALL",
            Insn::TailCall { .. } => "TAIL-CALL",
            Insn::TailJmp { .. } => "TAIL-JMP",
            Insn::Ret => "RET",
            Insn::Trap { .. } => "TRAP",
            Insn::ConsRt { .. } => "CONS-RT",
            Insn::Car { .. } => "CAR",
            Insn::Cdr { .. } => "CDR",
            Insn::BoxFlo { .. } => "BOX-FLO",
            Insn::UnboxFlo { .. } => "UNBOX-FLO",
            Insn::Certify { .. } => "CERTIFY",
            Insn::MakeCell { .. } => "MAKE-CELL",
            Insn::LoadCell { .. } => "LOAD-CELL",
            Insn::StoreCell { .. } => "STORE-CELL",
            Insn::MakeClosure { .. } => "MAKE-CLOSURE",
            Insn::LoadEnv { .. } => "LOAD-ENV",
            Insn::SpecBind { .. } => "SPEC-BIND",
            Insn::SpecUnbind { .. } => "SPEC-UNBIND",
            Insn::SpecLookup { .. } => "SPEC-LOOKUP",
            Insn::SpecRead { .. } => "SPEC-READ",
            Insn::SpecWrite { .. } => "SPEC-WRITE",
            Insn::Generic { .. } => "GENERIC",
            Insn::RtCall { .. } => "RT-CALL",
            Insn::PushCatch { .. } => "PUSH-CATCH",
            Insn::PopCatch => "POP-CATCH",
            Insn::Throw { .. } => "THROW",
            Insn::LoadFunction { .. } => "LOAD-FUNCTION",
            Insn::ListifyArgs { .. } => "LISTIFY-ARGS",
            Insn::LoadConst { .. } => "LOAD-CONST",
            Insn::PushConst { .. } => "PUSH-CONST",
            Insn::LocalCall { .. } => "LOCAL-CALL",
            Insn::LocalRet => "LOCAL-RET",
            Insn::Apply { .. } => "APPLY",
        }
    }

    /// Every label this instruction names: a branch or dispatch target,
    /// a catch's resume point, a local block's entry.
    pub fn targets(&self) -> &[Label] {
        match self {
            Insn::Jmp { target }
            | Insn::JmpIf { target, .. }
            | Insn::JmpNil { target, .. }
            | Insn::JmpNotNil { target, .. }
            | Insn::JmpTag { target, .. }
            | Insn::JmpEq { target, .. }
            | Insn::TailJmp { target, .. }
            | Insn::PushCatch { target, .. }
            | Insn::LocalCall { target } => std::slice::from_ref(target),
            Insn::Dispatch { targets, .. } => targets,
            _ => &[],
        }
    }

    /// The destination of an instruction whose one effect on registers
    /// and frame slots is to write its result there, after every source
    /// is read: a code generator may redirect that result.
    pub fn result_mut(&mut self) -> Option<&mut Operand> {
        match self {
            Insn::Mov { dst, .. }
            | Insn::Movp { dst, .. }
            | Insn::Int { dst, .. }
            | Insn::Neg { dst, .. }
            | Insn::Float { dst, .. }
            | Insn::FloatUn { dst, .. }
            | Insn::FloatIt { dst, .. }
            | Insn::FixIt { dst, .. }
            | Insn::ConsRt { dst, .. }
            | Insn::Car { dst, .. }
            | Insn::Cdr { dst, .. }
            | Insn::BoxFlo { dst, .. }
            | Insn::UnboxFlo { dst, .. }
            | Insn::Certify { dst, .. }
            | Insn::MakeCell { dst, .. }
            | Insn::LoadCell { dst, .. }
            | Insn::MakeClosure { dst, .. }
            | Insn::LoadEnv { dst, .. }
            | Insn::SpecLookup { dst, .. }
            | Insn::SpecRead { dst, .. }
            | Insn::Generic { dst, .. }
            | Insn::RtCall { dst, .. }
            | Insn::LoadFunction { dst, .. }
            | Insn::LoadConst { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Swaps the sources of a commutative arithmetic instruction (`ADD`,
    /// `MULT`, `FADD`, `FMULT`); returns whether it was one.  A `GENERIC`
    /// whose row the table marks commutative (`+`, `*`) swaps only beside
    /// a fixnum constant: its slow path reports the first operand that is
    /// not a number, and a constant fixnum is never that operand.
    pub fn commute(&mut self) -> bool {
        let fixnum = |o: &Operand| matches!(o, Operand::Const(w) if w.as_integer().is_some());
        match self {
            Insn::Int {
                op: IntOp::Add | IntOp::Mult,
                a,
                b,
                ..
            }
            | Insn::Float {
                op: FloatOp::Add | FloatOp::Mult,
                a,
                b,
                ..
            } => {
                std::mem::swap(a, b);
                true
            }
            Insn::Generic {
                prim,
                a,
                b: Some(b),
                ..
            } if prim.info().assoc_commut && (fixnum(a) || fixnum(b)) => {
                std::mem::swap(a, b);
                true
            }
            _ => false,
        }
    }

    /// Can control reach the next instruction after this one?  False
    /// for jumps, returns, traps, throws and the computed dispatch.
    pub fn falls_through(&self) -> bool {
        !matches!(
            self,
            Insn::Jmp { .. }
                | Insn::Dispatch { .. }
                | Insn::TailCall { .. }
                | Insn::TailJmp { .. }
                | Insn::Ret
                | Insn::Trap { .. }
                | Insn::Throw { .. }
                | Insn::LocalRet
        )
    }

    /// The 2½-address legality check (§3): a three-operand arithmetic
    /// instruction is encodable only if the destination coincides with
    /// the first source, or one of the three operands is RTA or RTB.
    ///
    /// Returns `None` if legal, or a diagnostic if not — the program
    /// loader rejects illegal code, which keeps the register allocator
    /// honest (§6.1: "for the best code a clever dance is often needed").
    pub fn check_two_and_a_half(&self) -> Option<String> {
        let (dst, a, b) = match self {
            Insn::Int { dst, a, b, .. }
            | Insn::Float { dst, a, b, .. }
            | Insn::Generic {
                dst, a, b: Some(b), ..
            } => (*dst, *a, *b),
            _ => return None,
        };
        let rt = |o: Operand| matches!(o, Operand::Reg(r) if r.is_rt());
        if dst == a || rt(dst) || rt(a) || rt(b) {
            None
        } else {
            Some(format!(
                "2½-address violation: {self:?} has three distinct non-RT operands"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Code is a vector of instructions; carrying the source row in
    /// `JmpIf` must not make every instruction larger.
    #[test]
    fn an_instruction_stays_56_bytes() {
        assert_eq!(std::mem::size_of::<Insn>(), 56);
    }

    #[test]
    fn register_names() {
        assert_eq!(format!("{:?}", Reg::RTA), "RTA");
        assert_eq!(format!("{:?}", Reg(12)), "R12");
        assert!(Reg::RTA.is_rt());
        assert!(Reg::RTB.is_rt());
        assert!(!Reg::A.is_rt());
    }

    #[test]
    fn two_and_a_half_address_rules() {
        let m1 = Operand::Ind(Reg::FP, 0);
        let m2 = Operand::Ind(Reg::FP, 1);
        let m3 = Operand::Ind(Reg::FP, 2);
        let rta = Operand::Reg(Reg::RTA);
        // SUB M1,M2  (dst==a)
        assert!(Insn::Int {
            op: IntOp::Sub,
            dst: m1,
            a: m1,
            b: m2
        }
        .check_two_and_a_half()
        .is_none());
        // SUB RTA,M1,M2
        assert!(Insn::Int {
            op: IntOp::Sub,
            dst: rta,
            a: m1,
            b: m2
        }
        .check_two_and_a_half()
        .is_none());
        // SUB M1,RTA,M2
        assert!(Insn::Int {
            op: IntOp::Sub,
            dst: m1,
            a: rta,
            b: m2
        }
        .check_two_and_a_half()
        .is_none());
        // Three distinct memory operands: illegal.
        assert!(Insn::Int {
            op: IntOp::Sub,
            dst: m1,
            a: m2,
            b: m3
        }
        .check_two_and_a_half()
        .is_some());
        // Three distinct non-RT registers: also illegal.
        let (r9, r10, r11) = (
            Operand::Reg(Reg(9)),
            Operand::Reg(Reg(10)),
            Operand::Reg(Reg(11)),
        );
        assert!(Insn::Int {
            op: IntOp::Add,
            dst: r9,
            a: r10,
            b: r11
        }
        .check_two_and_a_half()
        .is_some());
        // Non-arithmetic instructions are unconstrained.
        assert!(Insn::Mov { dst: m1, src: m2 }
            .check_two_and_a_half()
            .is_none());
    }

    #[test]
    fn operand_helpers() {
        assert_eq!(Operand::arg(2), Operand::Ind(Reg::FP, 2));
        assert_eq!(Operand::fixnum(5), Operand::Const(Word::fixnum(5)));
        assert!(Operand::arg(0).is_mem());
        assert!(!Operand::Reg(Reg::A).is_mem());
        assert!(Operand::Reg(Reg::A).is_reg(Reg::A));
    }
}
