//! One case per arithmetic operation row (`IntOp`, `FloatOp`,
//! `FloatUnOp`): its names, its opcode class, its encoding, the
//! 2½-address rule, commutation, and what a one-instruction program
//! computes against the shared numeric rule or the `f64` function.

use s1lisp_ast::num::{self, NumError};
use s1lisp_s1sim::{
    encoded_size, opcode_class, Asm, FloatOp, FloatUnOp, Insn, IntOp, Machine, Operand, Program,
    Reg, Trap, Value,
};

fn r(n: u8) -> Operand {
    Operand::Reg(Reg(n))
}

const RTA: Operand = Operand::Reg(Reg::RTA);

/// A binary float row: op, mnemonic, listing head, whether it
/// commutes, and the `f64` function it computes.
type FloatRow = (
    FloatOp,
    &'static str,
    &'static str,
    bool,
    fn(f64, f64) -> f64,
);

/// A unary float row: op, mnemonic, listing head, and its `f64`
/// function.
type FloatUnRow = (FloatUnOp, &'static str, &'static str, fn(f64) -> f64);

/// Runs `insn`, which leaves its result in RTA, as the body of a
/// function of no arguments.
fn run(insn: Insn) -> Result<Value, Trap> {
    let mut asm = Asm::new("f", 0);
    asm.push(insn);
    asm.push(Insn::Mov {
        dst: Operand::Reg(Reg::A),
        src: RTA,
    });
    asm.push(Insn::Ret);
    let mut p = Program::new();
    p.define(asm.finish());
    Machine::new(p).run("f", &[]).map_err(|t| t.cause().clone())
}

fn same_float(got: Result<Value, Trap>, want: f64) -> bool {
    matches!(got, Ok(Value::Flonum(x)) if x.to_bits() == want.to_bits())
}

/// The form every binary row must obey: legal with the destination as
/// the first source or with an RT register, illegal across three
/// distinct general registers; one word with every operand a register.
fn check_binary(insn: impl Fn(Operand, Operand, Operand) -> Insn, commutes: bool) {
    let name = insn(r(9), r(10), r(11)).opcode();
    assert!(insn(r(9), r(9), r(10)).check_two_and_a_half().is_none());
    assert!(insn(RTA, r(9), r(10)).check_two_and_a_half().is_none());
    assert!(insn(r(9), RTA, r(10)).check_two_and_a_half().is_none());
    assert!(insn(r(9), r(10), r(11)).check_two_and_a_half().is_some());
    assert_eq!(encoded_size(&insn(RTA, r(9), r(10))), 1, "{name}");
    let mut i = insn(r(9), r(10), r(11));
    assert_eq!(i.commute(), commutes, "{name}");
    let swapped = if commutes {
        (r(11), r(10))
    } else {
        (r(10), r(11))
    };
    assert_eq!(i, insn(r(9), swapped.0, swapped.1), "{name}");
}

#[test]
fn every_integer_row() {
    // (row, mnemonic, listing head, commutes, divides)
    let rows = [
        (IntOp::Add, "ADD", "ADD", true, false),
        (IntOp::Sub, "SUB", "SUB", false, false),
        (IntOp::Mult, "MULT", "MULT", true, false),
        (IntOp::Div, "DIV", "DIV", false, true),
        (IntOp::DivFloor, "DIV-FLOOR", "DIVF", false, true),
        (IntOp::Rem, "REM", "REM", false, true),
        (IntOp::ModFloor, "MOD-FLOOR", "MODF", false, true),
    ];
    let pairs = [
        (7, 2),
        (-7, 2),
        (7, -2),
        (-7, -2),
        (7, 0),
        (i64::MIN, -1),
        (i64::MIN, 1),
        (i64::MAX, 2),
    ];
    for (op, mnemonic, listing, commutes, divides) in rows {
        let insn = |dst, a, b| Insn::Int { op, dst, a, b };
        assert_eq!(op.mnemonic(), mnemonic);
        assert_eq!(op.listing(), listing);
        assert_eq!(insn(RTA, r(9), r(10)).opcode(), mnemonic);
        assert_eq!(opcode_class(mnemonic), "int_arith");
        check_binary(insn, commutes);
        let mut overflows = 0;
        for (x, y) in pairs {
            let want = match num::int_op(op.prim(), x, y) {
                Ok(n) => Ok(Value::Fixnum(n)),
                Err(NumError::DivisionByZero) => Err(Trap::DivisionByZero),
                Err(e) => {
                    overflows += 1;
                    Err(Trap::WrongType(
                        e.message(op.prim().name(), |_| String::new()),
                    ))
                }
            };
            let got = run(insn(RTA, Operand::fixnum(x), Operand::fixnum(y)));
            assert_eq!(got, want, "{mnemonic} {x} {y}");
            if y == 0 {
                assert_eq!(got.is_err(), divides, "{mnemonic} {x} 0");
            }
        }
        assert!(overflows > 0, "{mnemonic} never overflowed");
    }
}

#[test]
fn every_binary_float_row() {
    let rows: [FloatRow; 6] = [
        (FloatOp::Add, "FADD", "(FADD S)", true, |x, y| x + y),
        (FloatOp::Sub, "FSUB", "(FSUB S)", false, |x, y| x - y),
        (FloatOp::Mult, "FMULT", "(FMULT S)", true, |x, y| x * y),
        (FloatOp::Div, "FDIV", "(FDIV S)", false, |x, y| x / y),
        (FloatOp::Max, "FMAX", "(FMAX S)", false, f64::max),
        (FloatOp::Min, "FMIN", "(FMIN S)", false, f64::min),
    ];
    let pairs = [(1.5, -2.25), (-0.3, 4.0), (2.0, 0.0), (0.1, 0.2)];
    for (op, mnemonic, listing, commutes, f) in rows {
        let insn = |dst, a, b| Insn::Float { op, dst, a, b };
        assert_eq!(op.mnemonic(), mnemonic);
        assert_eq!(op.listing(), listing);
        assert_eq!(insn(RTA, r(9), r(10)).opcode(), mnemonic);
        assert_eq!(opcode_class(mnemonic), "float_arith");
        check_binary(insn, commutes);
        for (x, y) in pairs {
            let got = run(insn(RTA, Operand::float(x), Operand::float(y)));
            assert!(
                same_float(got.clone(), f(x, y)),
                "{mnemonic} {x} {y}: {got:?}"
            );
        }
    }
}

#[test]
fn every_unary_float_row() {
    use std::f64::consts::TAU;
    // The trigonometric rows take cycles, not radians.
    let rows: [FloatUnRow; 7] = [
        (FloatUnOp::Neg, "FNEG", "(FNEG S)", |x| -x),
        (FloatUnOp::Sin, "FSIN", "(FSIN S)", |x| (x * TAU).sin()),
        (FloatUnOp::Cos, "FCOS", "(FCOS S)", |x| (x * TAU).cos()),
        (FloatUnOp::Sqrt, "FSQRT", "(FSQRT S)", f64::sqrt),
        (FloatUnOp::Atan, "FATAN", "(FATAN S)", f64::atan),
        (FloatUnOp::Exp, "FEXP", "(FEXP S)", f64::exp),
        (FloatUnOp::Log, "FLOG", "(FLOG S)", f64::ln),
    ];
    for (op, mnemonic, listing, f) in rows {
        let insn = |dst, src| Insn::FloatUn { op, dst, src };
        assert_eq!(op.mnemonic(), mnemonic);
        assert_eq!(op.listing(), listing);
        assert_eq!(insn(RTA, r(9)).opcode(), mnemonic);
        assert_eq!(opcode_class(mnemonic), "float_arith");
        assert_eq!(encoded_size(&insn(r(9), r(10))), 1, "{mnemonic}");
        assert!(insn(r(9), r(10)).check_two_and_a_half().is_none());
        assert!(!insn(r(9), r(10)).commute());
        for x in [0.375, 1.0, 2.5] {
            let got = run(insn(RTA, Operand::float(x)));
            assert!(same_float(got.clone(), f(x)), "{mnemonic} {x}: {got:?}");
        }
    }
}
