//! Instruction size model.
//!
//! §3: "Instructions occupy one, two, or three 36-bit words.  Every
//! operation has a one-word format, consisting of a 12-bit opcode and two
//! 12-bit operand specifiers.  The second and third words are needed only
//! for the more complex addressing modes, one extra word for each of two
//! operands."
//!
//! The model: each instruction starts at one word; each operand needing
//! an extended specifier (a large constant, a long displacement, or the
//! indexed mode with a long displacement) adds one word.  The clever
//! "2½-address" encoding means a three-operand arithmetic instruction
//! pays for at most two operand specifiers — exactly why the RT registers
//! matter.  Code-size results (e.g. experiment E12) are reported in these
//! words.

use crate::insn::{CallTarget, Insn, Operand};
use crate::program::Program;
use crate::word::Word;

/// Words of extended-specifier space an operand needs beyond its 12-bit
/// short form.
fn operand_extra(op: Operand) -> usize {
    match op {
        Operand::Reg(_) => 0,
        // Short immediates pack into the specifier; anything else spills.
        Operand::Const(Word::Ptr(_, payload)) => {
            let v = payload as i64;
            usize::from(!(-(1 << 5)..1 << 5).contains(&v))
        }
        Operand::Const(_) => 1,
        // A short displacement fits (6-bit index offsets, §3); longer
        // ones take the 26-bit extended form.
        Operand::Ind(_, off) => usize::from(!(-32..32).contains(&off)),
        Operand::Idx { off, .. } => usize::from(!(-32..32).contains(&off)),
        // The memory-index mode always needs an extended specifier.
        Operand::IdxMem { .. } => 1,
    }
}

/// The encoded size of one instruction in 36-bit words (1–3).
pub fn encoded_size(insn: &Insn) -> usize {
    let ops: Vec<Operand> = match insn {
        Insn::Mov { dst, src }
        | Insn::Movp { dst, src, .. }
        | Insn::Neg { dst, src }
        | Insn::FloatUn { dst, src, .. }
        | Insn::FloatIt { dst, src }
        | Insn::FixIt { dst, src }
        | Insn::Car { dst, src }
        | Insn::Cdr { dst, src }
        | Insn::BoxFlo { dst, src }
        | Insn::UnboxFlo { dst, src }
        | Insn::Certify { dst, src }
        | Insn::MakeCell { dst, src }
        | Insn::Generic {
            dst,
            a: src,
            b: None,
            ..
        } => vec![*dst, *src],
        Insn::Int { dst, a, b, .. }
        | Insn::Float { dst, a, b, .. }
        | Insn::Generic {
            dst, a, b: Some(b), ..
        } => {
            // 2½-address: when dst == a, only two specifiers are used;
            // when an RT register is involved it rides in the opcode.
            if dst == a {
                vec![*a, *b]
            } else {
                let mut v: Vec<Operand> = [*dst, *a, *b]
                    .into_iter()
                    .filter(|o| !matches!(o, Operand::Reg(r) if r.is_rt()))
                    .collect();
                v.truncate(2);
                v
            }
        }
        Insn::JmpIf { a, b, .. } => vec![*a, *b],
        Insn::JmpNil { src, .. }
        | Insn::JmpNotNil { src, .. }
        | Insn::JmpTag { src, .. }
        | Insn::Push { src }
        | Insn::SpecBind { src, .. }
        | Insn::SpecWrite { src, .. } => vec![*src],
        Insn::JmpEq { a, b, .. } => vec![*a, *b],
        Insn::Pop { dst }
        | Insn::SpecLookup { dst, .. }
        | Insn::SpecRead { dst, .. }
        | Insn::RtCall { dst, .. }
        | Insn::LoadEnv { dst, .. }
        | Insn::LoadFunction { dst, .. }
        | Insn::MakeClosure { dst, .. } => vec![*dst],
        Insn::LoadCell { dst, cell } => vec![*dst, *cell],
        Insn::StoreCell { cell, src } => vec![*cell, *src],
        Insn::ConsRt { dst, car, cdr } => {
            let mut v = vec![*dst, *car, *cdr];
            v.truncate(2);
            v
        }
        Insn::Throw { tag, value } => vec![*tag, *value],
        Insn::PushCatch { tag, .. } => vec![*tag],
        Insn::Call { f, .. } | Insn::TailCall { f, .. } => match f {
            CallTarget::Value(op) => vec![*op],
            CallTarget::Func(_) => vec![],
        },
        Insn::Dispatch { src, targets } => {
            // The dispatch table itself occupies code words (Table 4's
            // `(DATA …)` word).
            return 1 + operand_extra(*src) + targets.len().div_ceil(4);
        }
        Insn::Apply { f, list } => vec![*f, *list],
        Insn::LoadConst { dst, .. } => vec![*dst],
        Insn::Jmp { .. }
        | Insn::TailJmp { .. }
        | Insn::Ret
        | Insn::Trap { .. }
        | Insn::AllocSlots { .. }
        | Insn::FreeSlots { .. }
        | Insn::SpecUnbind { .. }
        | Insn::ListifyArgs { .. }
        | Insn::LocalCall { .. }
        | Insn::LocalRet
        | Insn::PushConst { .. }
        | Insn::PopCatch => vec![],
    };
    let size = 1 + ops.into_iter().map(operand_extra).sum::<usize>();
    size.min(3)
}

/// The total encoded size of every defined function, in words.
pub fn program_size_words(program: &Program) -> usize {
    program
        .functions
        .iter()
        .flatten()
        .map(|f| f.insns.iter().map(encoded_size).sum::<usize>())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{FloatOp, IntOp, Reg};

    #[test]
    fn simple_forms_are_one_word() {
        let i = Insn::Int {
            op: IntOp::Add,
            dst: Operand::Reg(Reg::RTA),
            a: Operand::Ind(Reg::FP, 0),
            b: Operand::Ind(Reg::FP, 1),
        };
        assert_eq!(encoded_size(&i), 1);
        assert_eq!(encoded_size(&Insn::Ret), 1);
    }

    #[test]
    fn long_displacements_take_extra_words() {
        let i = Insn::Mov {
            dst: Operand::Ind(Reg::TP, -112),
            src: Operand::Reg(Reg::RTA),
        };
        assert_eq!(encoded_size(&i), 2);
        let j = Insn::Mov {
            dst: Operand::Ind(Reg::TP, -112),
            src: Operand::Ind(Reg::FP, -100),
        };
        assert_eq!(encoded_size(&j), 3);
    }

    #[test]
    fn large_constants_spill() {
        let i = Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::float(0.159154942),
        };
        assert_eq!(encoded_size(&i), 2);
        let j = Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::fixnum(3),
        };
        assert_eq!(encoded_size(&j), 1);
    }

    #[test]
    fn size_never_exceeds_three() {
        let i = Insn::Float {
            op: FloatOp::Add,
            dst: Operand::Ind(Reg::TP, -500),
            a: Operand::Ind(Reg::TP, -500),
            b: Operand::Ind(Reg::FP, -400),
        };
        assert_eq!(encoded_size(&i), 3);
    }
}
