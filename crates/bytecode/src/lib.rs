//! The portable bytecode backend.
//!
//! Where `s1lisp-codegen` lowers the annotated tree to S-1 assembly for
//! the simulator, this crate lowers the *same* tree — after the same
//! analysis and annotation passes — to a compact linear bytecode:
//!
//! * **Fixed-width instructions** — every [`Insn`] is one opcode plus
//!   three immediate fields (`a`, `b`, `c`), packing into a single
//!   64-bit word ([`Insn::encode`]/[`Insn::decode`]); code size is
//!   exactly `insns × INSN_BYTES`.
//! * **Operand addresses** — the generic ops (`add` … `dec`), `cons`
//!   and the compare-and-branch ops name each operand by an [`Addr`],
//!   as the S-1's 2½-address instructions name `(FP i)` and
//!   `(QUOTE k)`: the operand stack's top, a frame slot, or a
//!   constant-pool entry, read in place.  Both operands on the stack is
//!   the all-zero address, the plain stack-machine form.
//! * **Constant pools** — each [`FuncProto`] carries its own pool of
//!   source datums; instructions reference constants, global names, and
//!   special-variable names by pool index.
//! * **Call/return frames** — the [`Evaluator`] runs an explicit stack
//!   of frames (no host recursion), with genuine tail calls, `catch`
//!   handlers, and a deep-binding special-variable stack, mirroring the
//!   reference interpreter's semantics.
//!
//! The machine-dependent annotations drive layout here exactly as they
//! drive S-1 code generation: `binding` allocation decides whether a
//! variable lives in a plain frame slot, a heap value cell (captured by
//! closures), or on the special stack, and tests compile to jumps as
//! the S-1 code generator compiles them.
//!
//! Primitive semantics are *shared*, not reimplemented: the evaluator
//! resolves each global name against the primitive table once, at link
//! time, and dispatches primitive calls on their number through
//! [`s1lisp_interp::call_builtin`], so both backends answer to the
//! same reference definition of every primitive; the few calls and ops
//! it answers in line for fixnums and conses must return exactly what
//! that definition returns.

#![warn(missing_docs)]

mod emit;
mod eval;

pub use emit::{emit_unit, EmitError};
pub use eval::{BcTrap, Evaluator};

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use s1lisp_ast::Prim;
use s1lisp_interp::Const;

/// Bytes per encoded instruction (fixed width).
pub const INSN_BYTES: usize = 8;

/// One opcode.  `a` and `b` operand meanings are per-op; unused
/// operands are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Op {
    /// Push constant pool entry `a`.
    Const = 0,
    /// Push `()`.
    Nil = 1,
    /// Duplicate the top of stack.
    Dup = 2,
    /// Drop the top of stack.
    Pop = 3,
    /// Push slot `a`.
    Load = 4,
    /// Pop into slot `a`.
    Store = 5,
    /// Push the contents of the value cell in slot `a`.
    LoadCell = 6,
    /// Pop into the value cell in slot `a`.
    StoreCell = 7,
    /// Wrap slot `a`'s value in a fresh heap value cell.
    NewCell = 8,
    /// Push the cell object in slot `a` (for closure capture).
    PushCellSlot = 9,
    /// Push the contents of capture cell `a`.
    LoadCapture = 10,
    /// Pop into capture cell `a`.
    StoreCapture = 11,
    /// Push capture cell object `a` (for re-capture).
    PushCellCapture = 12,
    /// Pop the top of stack and push it boxed in a fresh cell.
    BoxTop = 13,
    /// Push the dynamic value of the special named by pool entry `a`.
    LoadSpecial = 14,
    /// Pop into the special named by pool entry `a`.
    StoreSpecial = 15,
    /// Pop a value and deep-bind it to the special named by pool `a`.
    BindSpecial = 16,
    /// Unbind the top `a` special bindings.
    Unbind = 17,
    /// Jump to instruction `a`.
    Jump = 18,
    /// Pop; jump to `a` if the value was `()`.
    JumpIfNil = 19,
    /// Pop; jump to `a` if the value was not `()`.
    JumpIfTrue = 20,
    /// If more than `a` arguments were supplied, jump to `b`
    /// (optional-parameter default elision).
    ArgSup = 21,
    /// Call the global named by pool entry `a` with `b` arguments.
    Call = 22,
    /// Tail-call the global named by pool entry `a` with `b` arguments.
    TailCall = 23,
    /// Pop `a` arguments, then a callee value, and call it.
    CallDyn = 24,
    /// Pop `b` capture cells and close over proto `a`.
    MakeClosure = 25,
    /// Pop `a` values and push them as a list.
    List = 26,
    /// Pop two values; push `t`/`()` per `eql`.
    Eql = 27,
    /// Pop the frame's result and return.
    Return = 28,
    /// Pop a tag and arm a catch handler whose landing pc is `a`.
    Catch = 29,
    /// Disarm the innermost catch handler of this frame.
    EndCatch = 30,
    /// Disarm the top `a` catch handlers (non-local `go`/`return` past
    /// an armed `catch`).
    Uncatch = 31,
    /// Pop a value, then a tag, and throw.
    Throw = 32,
    /// Truncate the operand stack to frame height `a`.
    Crop = 33,
    /// Keep the top of stack, truncating everything below to height `a`.
    CropKeep = 34,
    /// Push the global function value named by pool entry `a`.
    GlobalFn = 35,
    /// Generic `+` of operands [`Insn::x`] and [`Insn::y`], pushing the
    /// sum (fixnums in line, every other operand through the shared
    /// builtin).
    Add = 36,
    /// Generic two-argument `-`.
    Sub = 37,
    /// Generic `*`.
    Mul = 38,
    /// Generic two-argument `/`.
    Div = 39,
    /// Generic `1+` of operand [`Insn::x`].
    Inc = 40,
    /// Generic `1-`.
    Dec = 41,
    /// `cons` of operands [`Insn::x`] and [`Insn::y`].
    Cons = 42,
    /// Test primitive number `c` (`zerop`, `eq` or a two-argument
    /// comparison) on operand [`Insn::x`] (and [`Insn::y`]); jump to `b`
    /// if it fails.
    TestNil = 43,
    /// As [`Op::TestNil`], but jump to `b` if the test holds.
    TestTrue = 44,
}

impl Op {
    /// Listing mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Const => "const",
            Op::Nil => "nil",
            Op::Dup => "dup",
            Op::Pop => "pop",
            Op::Load => "load",
            Op::Store => "store",
            Op::LoadCell => "load.cell",
            Op::StoreCell => "store.cell",
            Op::NewCell => "new.cell",
            Op::PushCellSlot => "push.cell",
            Op::LoadCapture => "load.cap",
            Op::StoreCapture => "store.cap",
            Op::PushCellCapture => "push.cap",
            Op::BoxTop => "box",
            Op::LoadSpecial => "load.spec",
            Op::StoreSpecial => "store.spec",
            Op::BindSpecial => "bind.spec",
            Op::Unbind => "unbind",
            Op::Jump => "jump",
            Op::JumpIfNil => "jump.nil",
            Op::JumpIfTrue => "jump.t",
            Op::ArgSup => "arg.sup",
            Op::Call => "call",
            Op::TailCall => "tcall",
            Op::CallDyn => "call.dyn",
            Op::MakeClosure => "closure",
            Op::List => "list",
            Op::Eql => "eql",
            Op::Return => "ret",
            Op::Catch => "catch",
            Op::EndCatch => "end.catch",
            Op::Uncatch => "uncatch",
            Op::Throw => "throw",
            Op::Crop => "crop",
            Op::CropKeep => "crop.keep",
            Op::GlobalFn => "global.fn",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::Inc => "inc",
            Op::Dec => "dec",
            Op::Cons => "cons",
            Op::TestNil => "test.nil",
            Op::TestTrue => "test.t",
        }
    }

    fn from_u8(b: u8) -> Option<Op> {
        const ALL: &[Op] = &[
            Op::Const,
            Op::Nil,
            Op::Dup,
            Op::Pop,
            Op::Load,
            Op::Store,
            Op::LoadCell,
            Op::StoreCell,
            Op::NewCell,
            Op::PushCellSlot,
            Op::LoadCapture,
            Op::StoreCapture,
            Op::PushCellCapture,
            Op::BoxTop,
            Op::LoadSpecial,
            Op::StoreSpecial,
            Op::BindSpecial,
            Op::Unbind,
            Op::Jump,
            Op::JumpIfNil,
            Op::JumpIfTrue,
            Op::ArgSup,
            Op::Call,
            Op::TailCall,
            Op::CallDyn,
            Op::MakeClosure,
            Op::List,
            Op::Eql,
            Op::Return,
            Op::Catch,
            Op::EndCatch,
            Op::Uncatch,
            Op::Throw,
            Op::Crop,
            Op::CropKeep,
            Op::GlobalFn,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Inc,
            Op::Dec,
            Op::Cons,
            Op::TestNil,
            Op::TestTrue,
        ];
        ALL.get(b as usize).copied()
    }
}

/// Where an addressed op finds one operand: the operand stack, a slot of
/// the running frame, or an entry of its constant pool.  Sixteen bits,
/// the mode in the top two and the index in the other fourteen; the
/// stack is zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Addr(u16);

/// An [`Addr`], decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Popped from the operand stack.
    Stack,
    /// Frame slot `i`, read in place (the S-1's `(FP i)`).
    Slot(usize),
    /// Constant-pool entry `k` (the S-1's `(QUOTE k)`).
    Quote(usize),
}

impl Addr {
    /// An operand on the operand stack.
    pub const STACK: Addr = Addr(0);
    /// The largest slot or pool index an address can name.
    pub const MAX_INDEX: u32 = (1 << 14) - 1;

    fn indexed(mode: u16, i: u32) -> Option<Addr> {
        (i <= Addr::MAX_INDEX).then_some(Addr(mode << 14 | i as u16))
    }

    /// Frame slot `i`; `None` past [`Addr::MAX_INDEX`].
    pub fn slot(i: u32) -> Option<Addr> {
        Addr::indexed(1, i)
    }

    /// Constant-pool entry `k`; `None` past [`Addr::MAX_INDEX`].
    pub fn quote(k: u32) -> Option<Addr> {
        Addr::indexed(2, k)
    }

    /// Whether the operand is on the operand stack.
    pub fn is_stack(self) -> bool {
        self == Addr::STACK
    }

    /// The decoded address (the unused fourth mode reads as a pool
    /// entry).
    #[inline(always)]
    pub fn operand(self) -> Operand {
        let i = usize::from(self.0 & Addr::MAX_INDEX as u16);
        match self.0 >> 14 {
            0 => Operand::Stack,
            1 => Operand::Slot(i),
            _ => Operand::Quote(i),
        }
    }
}

/// One fixed-width instruction: an opcode and three immediates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Insn {
    /// The opcode.
    pub op: Op,
    /// First operand (pool index, slot, jump target, …); an addressed
    /// op's two operand addresses, [`Insn::x`] in the low half and
    /// [`Insn::y`] in the high half.
    pub a: u32,
    /// Second operand (argument count, a prologue or compare-and-branch
    /// jump target).
    pub b: u16,
    /// Third operand (a compare-and-branch's test primitive).
    pub c: u8,
}

impl Insn {
    /// Builds an instruction.
    pub fn new(op: Op, a: u32, b: u16) -> Insn {
        Insn { op, a, b, c: 0 }
    }

    /// Builds an addressed op on operands `x` (leading) and `y`.
    pub fn addressed(op: Op, x: Addr, y: Addr) -> Insn {
        Insn::new(op, u32::from(x.0) | u32::from(y.0) << 16, 0)
    }

    /// An addressed op's first (or only) operand.
    #[inline(always)]
    pub fn x(self) -> Addr {
        Addr(self.a as u16)
    }

    /// An addressed op's second operand.
    #[inline(always)]
    pub fn y(self) -> Addr {
        Addr((self.a >> 16) as u16)
    }

    /// How many operands an addressed op reads (`None` for any other
    /// op).
    fn arity(self) -> Option<usize> {
        match self.op {
            Op::Inc | Op::Dec => Some(1),
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Cons => Some(2),
            Op::TestNil | Op::TestTrue if self.c == Prim::Zerop as u8 => Some(1),
            Op::TestNil | Op::TestTrue => Some(2),
            _ => None,
        }
    }

    /// Packs into one 64-bit code word:
    /// `op:8 | c:8 | b:16 | a:32` (low to high).
    pub fn encode(self) -> u64 {
        (self.op as u64)
            | (u64::from(self.c) << 8)
            | (u64::from(self.b) << 16)
            | (u64::from(self.a) << 32)
    }

    /// Unpacks an encoded word; `None` on an unknown opcode.
    pub fn decode(word: u64) -> Option<Insn> {
        Some(Insn {
            op: Op::from_u8((word & 0xff) as u8)?,
            c: (word >> 8) as u8,
            b: (word >> 16) as u16,
            a: (word >> 32) as u32,
        })
    }
}

/// One compiled function: parameter conventions, frame layout, code,
/// and its constant pool.
#[derive(Clone, Debug)]
pub struct FuncProto {
    /// The `defun` name (nested closure protos get `name::λN`).
    pub name: String,
    /// Required parameter count.
    pub required: u32,
    /// Optional parameter count.
    pub optional: u32,
    /// Whether a `&rest` parameter collects excess arguments.
    pub rest: bool,
    /// Frame slot count (parameters first, in order).
    pub nslots: u32,
    /// Capture cells expected by [`Op::MakeClosure`] (zero for plain
    /// functions; nonzero protos are only callable as closures).
    pub ncaptures: u32,
    /// The code.
    pub code: Vec<Insn>,
    /// The constant pool.
    pub consts: Vec<Const>,
}

impl FuncProto {
    /// Code size in bytes (fixed-width encoding).
    pub fn code_bytes(&self) -> usize {
        self.code.len() * INSN_BYTES
    }
}

/// A set of compiled functions: the bytecode analog of the simulator's
/// `Program`.
#[derive(Clone, Debug, Default)]
pub struct Module {
    protos: Vec<Arc<FuncProto>>,
    index: HashMap<String, usize>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Installs one compilation unit's protos (entry plus nested
    /// closures, as produced by [`emit_unit`]).  `MakeClosure` operands
    /// are unit-relative and are rebased onto this module here.
    pub fn define_unit(&mut self, protos: Vec<FuncProto>) {
        let base = self.protos.len() as u32;
        for mut p in protos {
            for insn in &mut p.code {
                if insn.op == Op::MakeClosure {
                    insn.a += base;
                }
            }
            self.index.insert(p.name.clone(), self.protos.len());
            self.protos.push(Arc::new(p));
        }
    }

    /// Index of the proto named `name`, if defined.
    pub fn lookup(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The proto at `ix`.
    pub fn proto(&self, ix: usize) -> &Arc<FuncProto> {
        &self.protos[ix]
    }

    /// Number of protos defined.
    pub fn len(&self) -> usize {
        self.protos.len()
    }

    /// Whether the module is empty.
    pub fn is_empty(&self) -> bool {
        self.protos.is_empty()
    }

    /// Defined names in definition order (latest definition wins for
    /// duplicates, as with the simulator program).
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<(&str, usize)> =
            self.index.iter().map(|(n, &i)| (n.as_str(), i)).collect();
        names.sort_by_key(|&(_, i)| i);
        names.into_iter().map(|(n, _)| n).collect()
    }

    /// Total instruction count across all protos.
    pub fn total_insns(&self) -> usize {
        self.protos.iter().map(|p| p.code.len()).sum()
    }

    /// Deterministic parenthesized listing of `name` (the bytecode
    /// analog of the S-1 disassembly).
    pub fn listing(&self, name: &str) -> Option<String> {
        let ix = self.lookup(name)?;
        let p = self.proto(ix);
        let mut out = String::new();
        use fmt::Write;
        let rest = if p.rest { "t" } else { "()" };
        let _ = writeln!(
            out,
            "(defbytecode {} (required {}) (optional {}) (rest {}) (slots {}) (captures {})",
            p.name, p.required, p.optional, rest, p.nslots, p.ncaptures
        );
        let _ = writeln!(
            out,
            "  (consts{})",
            p.consts.iter().map(|d| format!(" {d}")).collect::<String>()
        );
        for (i, &insn) in p.code.iter().enumerate() {
            let _ = writeln!(out, "  ({i:>3} {})", insn_str(p, insn));
        }
        out.push_str(")\n");
        Some(out)
    }
}

/// One instruction as listed: `(op a b)`, or for an addressed op its
/// operands as the S-1 prints them, `(sub (slot 0) (quote 1))`, with a
/// compare-and-branch's primitive first and its target last.
fn insn_str(p: &FuncProto, insn: Insn) -> String {
    let op = insn.op.mnemonic();
    let Some(arity) = insn.arity() else {
        return format!("({op} {} {})", insn.a, insn.b);
    };
    let test = matches!(insn.op, Op::TestNil | Op::TestTrue);
    let mut out = format!("({op}");
    if test {
        let prim = Prim::ALL.get(usize::from(insn.c));
        out.push(' ');
        out.push_str(prim.map_or("?", |p| p.name()));
    }
    for addr in [insn.x(), insn.y()].into_iter().take(arity) {
        match addr.operand() {
            Operand::Stack => out.push_str(" stack"),
            Operand::Slot(i) => out.push_str(&format!(" (slot {i})")),
            Operand::Quote(k) => match p.consts.get(k) {
                Some(d) => out.push_str(&format!(" (quote {d})")),
                None => out.push_str(&format!(" (quote ?{k})")),
            },
        }
    }
    if test {
        out.push_str(&format!(" {}", insn.b));
    }
    out.push(')');
    out
}

#[cfg(test)]
mod insn_tests {
    use super::*;

    #[test]
    fn every_insn_encodes_to_one_word_and_back() {
        assert_eq!(std::mem::size_of::<Insn>(), 8);
        for raw in 0..=0xff_u8 {
            let Some(op) = Op::from_u8(raw) else { continue };
            let insn = Insn {
                c: 0x5a,
                ..Insn::new(op, 0xdead_beef, 0xcafe)
            };
            let word = insn.encode();
            assert_eq!(word >> 8 & 0xff, 0x5a, "{op:?}: c is the second byte");
            assert_eq!(Insn::decode(word), Some(insn), "{op:?}");
        }
        // Both operand addresses survive the round trip, in their own
        // halves of `a`.
        let (x, y) = (
            Addr::slot(Addr::MAX_INDEX).unwrap(),
            Addr::quote(3).unwrap(),
        );
        let insn = Insn::decode(Insn::addressed(Op::Sub, x, y).encode()).unwrap();
        assert_eq!((insn.x(), insn.y()), (x, y));
        assert_eq!(insn.x().operand(), Operand::Slot(Addr::MAX_INDEX as usize));
        assert_eq!(insn.y().operand(), Operand::Quote(3));
        // Unknown opcodes decode to None (corrupt code words are
        // detected, not misexecuted).
        assert_eq!(Insn::decode(0xff), None);
    }

    #[test]
    fn addresses_name_the_stack_a_slot_or_a_constant() {
        // Both operands on the stack is the all-zero address.
        assert_eq!(Insn::addressed(Op::Add, Addr::STACK, Addr::STACK).a, 0);
        assert!(Addr::STACK.is_stack());
        assert_eq!(Addr::STACK.operand(), Operand::Stack);
        assert_eq!(Addr::slot(7).map(Addr::operand), Some(Operand::Slot(7)));
        assert_eq!(Addr::quote(0).map(Addr::operand), Some(Operand::Quote(0)));
        assert!(!Addr::quote(0).unwrap().is_stack());
        // An index past the field has no address: the emitter pushes
        // that operand instead.
        assert_eq!(Addr::slot(Addr::MAX_INDEX + 1), None);
        assert_eq!(Addr::quote(Addr::MAX_INDEX + 1), None);
    }

    #[test]
    fn listing_is_deterministic_and_names_the_proto() {
        let mut m = Module::new();
        m.define_unit(vec![FuncProto {
            name: "f".into(),
            required: 1,
            optional: 0,
            rest: false,
            nslots: 1,
            ncaptures: 0,
            code: vec![
                Insn::new(Op::Load, 0, 0),
                Insn::addressed(Op::Sub, Addr::STACK, Addr::quote(0).unwrap()),
                Insn {
                    c: Prim::Lt as u8,
                    b: 4,
                    ..Insn::addressed(Op::TestNil, Addr::slot(0).unwrap(), Addr::STACK)
                },
                Insn::addressed(Op::Dec, Addr::slot(0).unwrap(), Addr::STACK),
                Insn::new(Op::Return, 0, 0),
            ],
            consts: vec![Const::Fixnum(1)],
        }]);
        let l1 = m.listing("f").unwrap();
        let l2 = m.listing("f").unwrap();
        assert_eq!(l1, l2);
        assert!(l1.contains("defbytecode f"));
        assert!(l1.contains("(consts 1)"));
        assert!(l1.contains("(  0 (load 0 0))"));
        assert!(l1.contains("(  1 (sub stack (quote 1)))"));
        assert!(l1.contains("(  2 (test.nil < (slot 0) stack 4))"));
        assert!(l1.contains("(  3 (dec (slot 0)))"));
        assert!(l1.contains("(  4 (ret 0 0))"));
        assert_eq!(m.proto(0).code_bytes(), 5 * INSN_BYTES);
    }

    #[test]
    fn define_unit_rebases_closure_protos() {
        let make = |target: u32| FuncProto {
            name: format!("c{target}"),
            required: 0,
            optional: 0,
            rest: false,
            nslots: 0,
            ncaptures: 0,
            code: vec![Insn::new(Op::MakeClosure, target, 0)],
            consts: vec![],
        };
        let mut m = Module::new();
        m.define_unit(vec![make(1)]);
        m.define_unit(vec![make(1)]);
        // The second unit's closure reference points past the first.
        assert_eq!(m.proto(1).code[0].a, 2);
    }
}
