//! "Parenthesized assembly language" output (Table 4's format).

use s1lisp_s1sim::{FuncCode, Insn, Operand, Program, Word};

fn op_str(program: &Program, op: Operand) -> String {
    match op {
        Operand::Reg(r) => format!("{r:?}"),
        Operand::Const(Word::Raw(n)) => format!("(? {n})"),
        Operand::Const(Word::F(x)) => format!("(QUOTE {})", float_str(x)),
        Operand::Const(Word::NIL) => "(SQ *:SQ-NIL)".to_string(),
        Operand::Const(Word::T) => "(SQ *:SQ-T)".to_string(),
        Operand::Const(Word::Ptr(tag, n)) => match tag {
            s1lisp_s1sim::Tag::Fixnum => format!("(QUOTE {})", n as i64),
            s1lisp_s1sim::Tag::Symbol => format!(
                "(QUOTE {})",
                program
                    .symbols
                    .get(n as usize)
                    .map(String::as_str)
                    .unwrap_or("?")
            ),
            _ => format!("(PTR {tag:?} {n})"),
        },
        Operand::Ind(r, off) => format!("({r:?} {off})"),
        Operand::Idx {
            base,
            off,
            idx,
            shift,
        } => format!("(REF ({base:?} {off}) {idx:?}^{shift})"),
        Operand::IdxMem {
            base,
            off,
            idx_base,
            idx_off,
            shift,
        } => format!("(REF ({base:?} {off}) (REF {idx_base:?} {idx_off})^{shift})"),
    }
}

/// A flonum immediate as a float literal: `1.0`, never `1`, which
/// would read as a fixnum.
fn float_str(x: f64) -> String {
    let s = x.to_string();
    if x.is_finite() && !s.contains('.') {
        format!("{s}.0")
    } else {
        s
    }
}

/// Renders one function in the paper's parenthesized-assembly style,
/// with `L<k>` labels interleaved.
///
/// # Examples
///
/// ```
/// use s1lisp_s1sim::{Asm, Insn, Operand, Program, Reg};
///
/// let mut asm = Asm::new("f", 1);
/// asm.push(Insn::Mov { dst: Operand::Reg(Reg::A), src: Operand::arg(0) });
/// asm.push(Insn::Ret);
/// let mut p = Program::new();
/// let id = p.define(asm.finish());
/// let text = s1lisp_codegen::disassemble(&p, p.func(id).unwrap());
/// assert!(text.contains("(MOV A (FP 0))"));
/// assert!(text.contains("(RET)"));
/// ```
pub fn disassemble(program: &Program, code: &FuncCode) -> String {
    let mut out = String::new();
    out.push_str(&format!(";;; {} ({} slots)\n", code.name, code.nslots));
    for (i, insn) in code.insns.iter().enumerate() {
        for (l, &off) in code.labels.iter().enumerate() {
            if off == i {
                out.push_str(&format!("L{l:04}\n"));
            }
        }
        out.push_str("        ");
        out.push_str(&insn_str(program, insn));
        out.push('\n');
    }
    for (l, &off) in code.labels.iter().enumerate() {
        if off == code.insns.len() {
            out.push_str(&format!("L{l:04}\n"));
        }
    }
    out
}

fn insn_str(p: &Program, insn: &Insn) -> String {
    use Insn as I;
    let o = |op: &Operand| op_str(p, *op);
    match insn {
        I::Mov { dst, src } => format!("(MOV {} {})", o(dst), o(src)),
        I::Movp { tag, dst, src } => format!("((MOVP *:DTP-{tag:?}) {} {})", o(dst), o(src)),
        I::Int { op, dst, a, b } => format!("({} {} {} {})", op.listing(), o(dst), o(a), o(b)),
        I::Neg { dst, src } => format!("(NEG {} {})", o(dst), o(src)),
        I::Float { op, dst, a, b } => {
            format!("({} {} {} {})", op.listing(), o(dst), o(a), o(b))
        }
        I::FloatUn { op, dst, src } => format!("({} {} {})", op.listing(), o(dst), o(src)),
        I::FloatIt { dst, src } => format!("(FLOAT {} {})", o(dst), o(src)),
        I::FixIt { dst, src } => format!("(FIX {} {})", o(dst), o(src)),
        I::Jmp { target } => format!("(JMPA () L{target:04})"),
        I::JmpIf {
            cond, a, b, target, ..
        } => {
            format!("((JMPZ {cond:?}) {} {} L{target:04})", o(a), o(b))
        }
        I::JmpNil { src, target } => format!("((JMPNIL) {} L{target:04})", o(src)),
        I::JmpNotNil { src, target } => format!("((JMPNNIL) {} L{target:04})", o(src)),
        I::JmpTag { tag, src, target } => {
            format!("((JMPTAG *:DTP-{tag:?}) {} L{target:04})", o(src))
        }
        I::JmpEq { a, b, target } => format!("((JMPEQ) {} {} L{target:04})", o(a), o(b)),
        I::Dispatch { src, targets } => {
            let t: Vec<String> = targets.iter().map(|l| format!("L{l:04}")).collect();
            format!("(DISPATCH {} ({}))", o(src), t.join(" "))
        }
        I::Push { src } => format!("((PUSH UP) SP {})", o(src)),
        I::Pop { dst } => format!("((POP UP) {} SP)", o(dst)),
        I::AllocSlots { n, init } => format!("((ALLOC {n}) {})", o(&Operand::Const(*init))),
        I::FreeSlots { n } => format!("((FREE {n}))"),
        I::Call { f, nargs } => format!("(%CALL {f:?} {nargs})"),
        I::TailCall { f, nargs } => format!("(%TAILCALL {f:?} {nargs})"),
        I::TailJmp { nargs, target } => format!("(%TAILJMP {nargs} L{target:04})"),
        I::Ret => "(RET)".to_string(),
        I::Trap { msg } => format!("(TRAP \"{msg}\")"),
        I::ConsRt { dst, car, cdr } => {
            format!("(%CONS {} {} {})", o(dst), o(car), o(cdr))
        }
        I::Car { dst, src } => format!("(CAR {} {})", o(dst), o(src)),
        I::Cdr { dst, src } => format!("(CDR {} {})", o(dst), o(src)),
        I::BoxFlo { dst, src } => format!("(%SINGLE-FLONUM-CONS {} {})", o(dst), o(src)),
        I::UnboxFlo { dst, src } => format!("(%FLONUM-FETCH {} {})", o(dst), o(src)),
        I::Certify { dst, src } => format!("(%CERTIFY {} {})", o(dst), o(src)),
        I::MakeCell { dst, src } => format!("(%CELL-CONS {} {})", o(dst), o(src)),
        I::LoadCell { dst, cell } => format!("(%CELL-FETCH {} {})", o(dst), o(cell)),
        I::StoreCell { cell, src } => format!("(%CELL-STORE {} {})", o(cell), o(src)),
        I::MakeClosure { dst, fnid, ncells } => {
            format!("(%CLOSURE-CONS {} FN{fnid} {ncells})", o(dst))
        }
        I::LoadEnv { dst, index } => format!("(%ENV-FETCH {} {index})", o(dst)),
        I::SpecBind { sym, src } => format!(
            "(%SPECBIND {} {})",
            p.symbols
                .get(*sym as usize)
                .map(String::as_str)
                .unwrap_or("?"),
            o(src)
        ),
        I::SpecUnbind { n } => format!("(%SPECUNBIND {n})"),
        I::SpecLookup { dst, sym } => format!(
            "(%SPECLOOKUP {} {})",
            o(dst),
            p.symbols
                .get(*sym as usize)
                .map(String::as_str)
                .unwrap_or("?")
        ),
        I::SpecRead { dst, sym } => format!(
            "(%SPECREAD {} {})",
            o(dst),
            p.symbols
                .get(*sym as usize)
                .map(String::as_str)
                .unwrap_or("?")
        ),
        I::SpecWrite { sym, src } => format!(
            "(%SPECWRITE {} {})",
            p.symbols
                .get(*sym as usize)
                .map(String::as_str)
                .unwrap_or("?"),
            o(src)
        ),
        I::Generic { prim, dst, a, b } => match b {
            Some(b) => format!("((GENERIC {}) {} {} {})", prim.name(), o(dst), o(a), o(b)),
            None => format!("((GENERIC {}) {} {})", prim.name(), o(dst), o(a)),
        },
        I::RtCall { prim, nargs, dst } => {
            format!("(%CALLRT {} {nargs} {})", prim.name(), o(dst))
        }
        I::PushCatch { tag, target } => format!("(%CATCH {} L{target:04})", o(tag)),
        I::PopCatch => "(%UNCATCH)".to_string(),
        I::Throw { tag, value } => format!("(%THROW {} {})", o(tag), o(value)),
        I::LoadFunction { dst, fnid } => format!("(%FUNCTION {} FN{fnid})", o(dst)),
        I::ListifyArgs { fixed } => format!("(%LISTIFY {fixed})"),
        I::LoadConst { dst, idx } => format!("(%CONSTANT {} K{idx})", o(dst)),
        I::PushConst { idx } => format!("((PUSH UP) SP K{idx})"),
        I::LocalCall { target } => format!("(%LOCALCALL L{target:04})"),
        I::LocalRet => "(%LOCALRET)".to_string(),
        I::Apply { f, list } => format!("(%APPLY {} {})", o(f), o(list)),
    }
}
