//! An instruction-level simulator for the S-1 architecture subset used by
//! the `s1lisp` compiler, together with the Lisp run-time system.
//!
//! §3 of the paper describes the real machine: 36-bit words, 32
//! general-purpose registers with the special "RT" registers RTA and RTB,
//! 5-bit pointer tags, "2½-address" arithmetic instruction formats, and
//! hardware `SIN`/`SQRT`/etc.  The authors' claims are about *compiler
//! output shape* — instruction counts, heap-allocation counts, register
//! traffic, stack behavior — so this substrate reproduces the ISA at the
//! level those measurements need:
//!
//! * a word model with the S-1's tag architecture ([`Word`], [`Tag`]) —
//!   the payload is widened from 31 to 64 bits so Rust-sized fixnums fit
//!   (see DESIGN.md §7);
//! * the register file with RTA/RTB and the 2½-address *constraint*
//!   ([`Insn::check_two_and_a_half`]) that shapes register allocation
//!   (§6.1's "clever dance");
//! * an instruction encoding model (see [`encoded_size`]) (each instruction occupies 1–3
//!   36-bit words depending on operand complexity) for code-size metrics;
//! * the run-time system: a tagged [`Heap`] with mark–sweep garbage
//!   collection, the deep-binding stack for special variables, pdl-number
//!   certification (§6.3), and the "known primitive operations" that are
//!   too large to compile in line;
//! * execution [`MachineStats`]: instructions retired, allocations by kind,
//!   maximum stack depth, special-variable searches vs. cached reads,
//!   certifications — the quantities the experiments report.
//!
//! # Examples
//!
//! Hand-assembled `(1+ x)`:
//!
//! ```
//! use s1lisp_s1sim::{Asm, Insn, IntOp, Machine, Operand, Program, Reg, Word};
//! use s1lisp_interp::Value;
//!
//! let mut asm = Asm::new("inc1", 1);
//! // 2½-address discipline: route the result through RTA (§6.1).
//! asm.push(Insn::Int {
//!     op: IntOp::Add,
//!     dst: Operand::Reg(Reg::RTA),
//!     a: Operand::arg(0),
//!     b: Operand::fixnum(1),
//! });
//! asm.push(Insn::Mov { dst: Operand::Reg(Reg::A), src: Operand::Reg(Reg::RTA) });
//! asm.push(Insn::Ret);
//! let mut program = Program::new();
//! program.define(asm.finish());
//! let mut m = Machine::new(program);
//! let v = m.run("inc1", &[Value::Fixnum(41)]).unwrap();
//! assert_eq!(v, Value::Fixnum(42));
//! ```

#![warn(missing_docs)]

mod asm;
mod encoding;
mod heap;
mod insn;
mod machine;
mod postmortem;
mod profile;
mod program;
mod runtime;
mod stats;
mod word;

pub use asm::Asm;
pub use encoding::{encoded_size, program_size_words};
pub use heap::{AllocStats, Heap, HeapTelemetry, LiveSample, ObjKind, ALLOC_SIZE_BOUNDS};
pub use insn::{CallTarget, Cond, FloatOp, FloatUnOp, Insn, IntOp, Label, Operand, Reg};
pub use machine::{Machine, Trap};
pub use postmortem::{FrameAt, PostMortem, RetiredAt};
pub use profile::{opcode_class, ExecProfile, Retired, StackFrameCycles, DEFAULT_STACK_DEPTH_CAP};
pub use program::{FnNameTable, FuncCode, Program};
pub use stats::MachineStats;
pub use word::{Tag, Word};

/// Re-export of the value type used at the host boundary.
pub use s1lisp_interp::Value;
