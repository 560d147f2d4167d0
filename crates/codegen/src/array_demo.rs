//! The §6.1 matrix-statement experiment (E5).
//!
//! The paper demonstrates TNBIND's handling of the RT "bottleneck"
//! registers on two assignment statements:
//!
//! ```text
//! Z[I,K] := A[I,J] * B[J,K] + C[I,K] + D     (the easy one)
//! Z[I,K] := A[I,J] * B[J,K] + C[I,K]         (the hard one)
//! ```
//!
//! "At each point two RT registers just barely suffice for the job" for
//! the first; for the second "the subscript for Z cannot be computed at
//! the 'obvious' point in the code because there are not enough RT
//! registers to go around.  However, computing it ahead allows the
//! subscript computation to dance into RTA and then out again into TEMP.
//! Thus no MOV instructions are required; each instruction performs
//! useful arithmetic."
//!
//! This module reproduces both code sequences from a TNBIND packing of
//! the subscript temporaries, plus the naive every-temporary-in-memory
//! baseline, and runs them on the simulator.
//!
//! Calling convention of the generated functions: arguments
//! `i j k a1 b1 c1 z1` (indices and row lengths, fixnums) on the frame;
//! array base addresses preloaded in registers R16 (A), R17 (B), R18 (C),
//! R19 (Z); the scalar `d` in R20 as a raw float.

use s1lisp_s1sim::{
    Asm, FloatOp, FuncCode, Insn, IntOp, Machine, Operand, Program, Reg, Trap, Value, Word,
};
use s1lisp_tnbind::{pack, pack_naive, Location, PackRequest, TnPool};

/// Base-address register conventions for the demo.
pub const A_BASE: Reg = Reg(16);
/// Base of B.
pub const B_BASE: Reg = Reg(17);
/// Base of C.
pub const C_BASE: Reg = Reg(18);
/// Base of Z.
pub const Z_BASE: Reg = Reg(19);
/// The scalar D (raw float).
pub const D_REG: Reg = Reg(20);

/// Which statement to compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Statement {
    /// `Z[I,K] := A[I,J]*B[J,K] + C[I,K] + D`.
    WithScalar,
    /// `Z[I,K] := A[I,J]*B[J,K] + C[I,K]` — the hard one.
    WithoutScalar,
}

/// Which allocator plans the subscript temporaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Allocator {
    /// TNBIND packing (RT registers preferred, memory as needed).
    Tnbind,
    /// Naive: every temporary in a frame slot.
    Naive,
}

const ARG_I: u16 = 0;
const ARG_J: u16 = 1;
const ARG_K: u16 = 2;
const ARG_A1: u16 = 3;
const ARG_B1: u16 = 4;
const ARG_C1: u16 = 5;
const ARG_Z1: u16 = 6;
/// Number of frame slots reserved for spilled temporaries.
const NTEMPS: u16 = 4;

/// Builds the TN pool for a statement: one TN per subscript temporary
/// plus the float accumulator, with the lifetimes the instruction
/// schedule implies.
fn plan(stmt: Statement) -> TnPool {
    let mut pool = TnPool::new();
    fn tn(pool: &mut TnPool, name: &'static str, uses: &[u32], rt: bool) {
        let t = pool.new_tn(name);
        for &u in uses {
            pool.record_use(t, u);
        }
        if rt {
            pool.prefer_rt(t);
        }
    }
    // Positions split each instruction into a read tick (2i) and a write
    // tick (2i+1), so a value written by the same instruction that last
    // reads another can share its register — the paper's
    // `FMULT RTA,A(RTA),B(RTB)` reuses RTA for the product the moment the
    // subscript dies.
    match stmt {
        Statement::WithScalar => {
            // i0: MULT sa,I,A1   i1: ADD sa,J     i2: MULT sb,J,B1
            // i3: ADD sb,K       i4: FMULT acc,A(sa),B(sb)
            // i5: MULT sc,I,C1   i6: ADD sc,K     i7: FADD acc,C(sc)
            // i8: MULT sz,I,Z1   i9: ADD sz,K    i10: FADD Z(sz),acc,D
            tn(&mut pool, "sub-a", &[1, 2, 3, 8], true);
            tn(&mut pool, "sub-b", &[5, 6, 7, 8], true);
            tn(&mut pool, "acc", &[9, 14, 15, 20], true);
            tn(&mut pool, "sub-c", &[11, 12, 13, 14], true);
            tn(&mut pool, "sub-z", &[17, 18, 19, 20], true);
        }
        Statement::WithoutScalar => {
            // The Z subscript is computed ahead (i0–i1) and must survive
            // to the final FADD at i9 — overlapping both RT-hungry
            // subscript pairs, so packing sends it to memory: the paper's
            // TEMP.
            tn(&mut pool, "sub-z", &[3, 18], true);
            tn(&mut pool, "sub-a", &[5, 6, 7, 12], true);
            tn(&mut pool, "sub-b", &[9, 10, 11, 12], true);
            tn(&mut pool, "acc", &[13, 18], true);
            tn(&mut pool, "sub-c", &[15, 16, 17, 18], true);
        }
    }
    pool
}

/// Compiles one statement under the chosen allocator, returning the
/// function and the number of MOV instructions in it.
pub fn compile_statement(stmt: Statement, alloc: Allocator, name: &str) -> (FuncCode, usize) {
    let pool = plan(stmt);
    let req = PackRequest {
        registers: Vec::new(), // arithmetic temporaries live in RTs or memory
        rt_registers: vec![Reg::RTA.0, Reg::RTB.0],
        first_slot: 7, // after the seven arguments
    };
    let packing = match alloc {
        Allocator::Tnbind => pack(&pool, &req),
        Allocator::Naive => pack_naive(&pool, &req),
    };
    let loc = |i: usize| match packing.location(tn_at(&pool, i)) {
        Location::Reg(r) => Operand::Reg(Reg(r)),
        Location::Slot(s) => Operand::Ind(Reg::FP, i32::from(s)),
    };
    let mut asm = Asm::new(name, 7);
    asm.push(Insn::AllocSlots {
        n: NTEMPS,
        init: Word::Raw(0),
    });
    let arg = |i: u16| Operand::arg(i);
    // An arithmetic step honoring the 2½-address constraint even when
    // the destination was packed into memory: route through a free RT
    // and MOV out (the naive allocator pays this on every step).
    let emit = |asm: &mut Asm,
                make: &dyn Fn(Operand, Operand, Operand) -> Insn,
                dst: Operand,
                a: Operand,
                b: Operand| {
        let legal = dst == a
            || matches!(dst, Operand::Reg(r) if r.is_rt())
            || matches!(a, Operand::Reg(r) if r.is_rt())
            || matches!(b, Operand::Reg(r) if r.is_rt());
        if legal {
            asm.push(make(dst, a, b));
        } else {
            asm.push(make(Operand::Reg(Reg::RTA), a, b));
            asm.push(Insn::Mov {
                dst,
                src: Operand::Reg(Reg::RTA),
            });
        }
    };
    let int = |op: IntOp| move |dst, a, b| Insn::Int { op, dst, a, b };
    let float = |op: FloatOp| move |dst, a, b| Insn::Float { op, dst, a, b };
    let (mult, add) = (int(IntOp::Mult), int(IntOp::Add));
    let (fmult, fadd) = (float(FloatOp::Mult), float(FloatOp::Add));
    // Element operand: base register indexed by wherever the subscript
    // landed.
    let elem = |base: Reg, sub: Operand| match sub {
        Operand::Reg(r) => Operand::Idx {
            base,
            off: 0,
            idx: r,
            shift: 0,
        },
        Operand::Ind(b, off) => Operand::IdxMem {
            base,
            off: 0,
            idx_base: b,
            idx_off: off,
            shift: 0,
        },
        _ => unreachable!("subscripts are registers or slots"),
    };

    match stmt {
        Statement::WithScalar => {
            let (sa, sb, acc, sc, sz) = (loc(0), loc(1), loc(2), loc(3), loc(4));
            emit(&mut asm, &mult, sa, arg(ARG_I), arg(ARG_A1));
            emit(&mut asm, &add, sa, sa, arg(ARG_J));
            emit(&mut asm, &mult, sb, arg(ARG_J), arg(ARG_B1));
            emit(&mut asm, &add, sb, sb, arg(ARG_K));
            emit(&mut asm, &fmult, acc, elem(A_BASE, sa), elem(B_BASE, sb));
            emit(&mut asm, &mult, sc, arg(ARG_I), arg(ARG_C1));
            emit(&mut asm, &add, sc, sc, arg(ARG_K));
            emit(&mut asm, &fadd, acc, acc, elem(C_BASE, sc));
            emit(&mut asm, &mult, sz, arg(ARG_I), arg(ARG_Z1));
            emit(&mut asm, &add, sz, sz, arg(ARG_K));
            emit(&mut asm, &fadd, elem(Z_BASE, sz), acc, Operand::Reg(D_REG));
        }
        Statement::WithoutScalar => {
            let (sz, sa, sb, acc, sc) = (loc(0), loc(1), loc(2), loc(3), loc(4));
            // "computing it ahead allows the subscript computation to
            // dance into RTA and then out again into TEMP":
            emit(
                &mut asm,
                &mult,
                Operand::Reg(Reg::RTA),
                arg(ARG_I),
                arg(ARG_Z1),
            );
            emit(&mut asm, &add, sz, Operand::Reg(Reg::RTA), arg(ARG_K));
            emit(&mut asm, &mult, sa, arg(ARG_I), arg(ARG_A1));
            emit(&mut asm, &add, sa, sa, arg(ARG_J));
            emit(&mut asm, &mult, sb, arg(ARG_J), arg(ARG_B1));
            emit(&mut asm, &add, sb, sb, arg(ARG_K));
            emit(&mut asm, &fmult, acc, elem(A_BASE, sa), elem(B_BASE, sb));
            emit(&mut asm, &mult, sc, arg(ARG_I), arg(ARG_C1));
            emit(&mut asm, &add, sc, sc, arg(ARG_K));
            emit(&mut asm, &fadd, elem(Z_BASE, sz), acc, elem(C_BASE, sc));
        }
    }
    asm.push(Insn::Mov {
        dst: Operand::Reg(Reg::A),
        src: Operand::nil(),
    });
    asm.push(Insn::Ret);
    let code = asm.finish();
    // The final MOV A,nil is return plumbing, not data movement.
    let movs = code
        .insns
        .iter()
        .filter(|i| matches!(i, Insn::Mov { .. }))
        .count()
        - 1;
    (code, movs)
}

fn tn_at(pool: &TnPool, i: usize) -> s1lisp_tnbind::TnId {
    pool.ids().nth(i).expect("tn index")
}

/// Dimensions of the demo matrices.
pub const DIM: usize = 8;

/// Runs a compiled statement over `DIM×DIM` float matrices and returns
/// the resulting Z matrix (for cross-allocator equality checks) plus the
/// executed-instruction count.
///
/// # Errors
///
/// Propagates machine traps.
///
/// # Panics
///
/// Panics if the demo heap is too small (it is sized generously).
pub fn run_statement(stmt: Statement, alloc: Allocator) -> Result<(Vec<f64>, u64), Trap> {
    let (code, _) = compile_statement(stmt, alloc, "mat");
    let mut program = Program::new();
    program.define(code);
    let mut m = Machine::new(program);
    // Allocate the four matrices as raw float blocks.  No other
    // allocation happens during the run, so the collector never sees
    // them (see module docs).
    let n = DIM * DIM;
    let mut bases = Vec::new();
    for matrix in 0..4 {
        let base = m
            .heap
            .try_alloc(n, s1lisp_s1sim::ObjKind::Block)
            .expect("demo heap");
        for idx in 0..n {
            let v = match matrix {
                0 => 1.0 + idx as f64,         // A
                1 => 0.5 * (idx as f64) - 3.0, // B
                2 => 0.25 * (idx as f64),      // C
                _ => 0.0,                      // Z
            };
            m.heap.write(base + idx as u64, Word::F(v));
        }
        bases.push(base);
    }
    m.regs[A_BASE.0 as usize] = Word::Raw(bases[0] as i64);
    m.regs[B_BASE.0 as usize] = Word::Raw(bases[1] as i64);
    m.regs[C_BASE.0 as usize] = Word::Raw(bases[2] as i64);
    m.regs[Z_BASE.0 as usize] = Word::Raw(bases[3] as i64);
    m.regs[D_REG.0 as usize] = Word::F(2.5);
    let fx = |v: usize| Value::Fixnum(v as i64);
    for i in 0..DIM {
        for k in 0..DIM {
            let j = (i + k) % DIM;
            m.run(
                "mat",
                &[fx(i), fx(j), fx(k), fx(DIM), fx(DIM), fx(DIM), fx(DIM)],
            )?;
        }
    }
    let z: Vec<f64> = (0..n)
        .map(|idx| {
            m.heap
                .read(bases[3] + idx as u64)
                .as_float()
                .unwrap_or(f64::NAN)
        })
        .collect();
    Ok((z, m.stats.insns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn easy_statement_needs_no_movs_under_tnbind() {
        let (_, movs) = compile_statement(Statement::WithScalar, Allocator::Tnbind, "m1");
        assert_eq!(movs, 0, "the paper's first listing has no MOVs");
    }

    #[test]
    fn hard_statement_needs_no_movs_under_tnbind() {
        // "Thus no MOV instructions are required; each instruction
        // performs useful arithmetic."
        let (code, movs) = compile_statement(Statement::WithoutScalar, Allocator::Tnbind, "m2");
        assert_eq!(movs, 0, "the TEMP dance avoids all MOVs");
        // And the Z subscript went to memory (the TEMP).
        let uses_idxmem = code.insns.iter().any(|i| {
            matches!(
                i,
                Insn::Float {
                    op: FloatOp::Add,
                    dst: Operand::IdxMem { .. },
                    ..
                }
            )
        });
        assert!(uses_idxmem, "Z(TEMP) addressing expected");
    }

    #[test]
    fn naive_allocation_pays_movs() {
        let (_, movs) = compile_statement(Statement::WithScalar, Allocator::Naive, "m3");
        assert!(movs >= 5, "expected MOV traffic, got {movs}");
    }

    #[test]
    fn all_variants_compute_the_same_matrix() {
        let (z1, n1) = run_statement(Statement::WithScalar, Allocator::Tnbind).unwrap();
        let (z2, n2) = run_statement(Statement::WithScalar, Allocator::Naive).unwrap();
        assert_eq!(z1, z2);
        assert!(n1 < n2, "TNBIND executes fewer instructions: {n1} vs {n2}");
        let (z3, _) = run_statement(Statement::WithoutScalar, Allocator::Tnbind).unwrap();
        let (z4, _) = run_statement(Statement::WithoutScalar, Allocator::Naive).unwrap();
        assert_eq!(z3, z4);
        assert_ne!(z1, z3, "the scalar D must matter");
    }
}
