//! Code generation (§4.5 of the paper).
//!
//! "Code generation is performed during a single tree walk over the
//! decorated program tree."  The decorations are the annotations of
//! `s1lisp-annotate` (binding strategy, WANTREP/ISREP, pdl numbers), the
//! analyses of `s1lisp-analysis` (tail positions, special-variable
//! caching), and TNBIND's storage assignments; the output is S-1 code for
//! the `s1lisp-s1sim` machine.
//!
//! What the generated code does, in the paper's terms:
//!
//! * **Tail calls become parameter-passing gotos** (§2): self tail calls
//!   are `TailJmp`s to the function body, cross-function tail calls reuse
//!   the frame (`TailCall`).
//! * **Lambdas compile by binding annotation** (§4.4): `let`s bind in
//!   the current frame, join points become local code blocks entered by
//!   jumps or the fast local-call linkage, and only genuinely escaping
//!   lambdas construct closures.
//! * **Representation analysis drives coercions** (§6.2): raw floats flow
//!   between `$f` operations without boxing; a box is emitted only where
//!   ISREP ≠ WANTREP.
//! * **Pdl numbers** (§6.3): a box whose lifetime is frame-bounded is a
//!   `MOVP`-tagged pointer into a stack slot; certification copies it to
//!   the heap only if it reaches an unsafe operation or is returned.
//! * **TNBIND** (§6.1): let-variables whose lifetimes avoid calls are
//!   packed into registers; the rest get frame slots.  Arithmetic targets
//!   the RT registers to satisfy the 2½-address constraint.
//!
//! Every switch in [`CodegenOptions`] exists for an ablation experiment
//! (see DESIGN.md's experiment index).

#![warn(missing_docs)]

pub mod array_demo;
mod gen;
mod print;

pub use gen::{compile, emit_annotated, CodegenError};
pub use print::disassemble;

/// Branch tensioning — "the elimination of branches to branch
/// instructions" (§4.5), the one optimization the paper concedes may need
/// a peephole pass because "branch instructions do not appear in the
/// internal tree, but rather are artifacts of the embedding of the tree
/// into a linear instruction stream."
///
/// Every branch in this code generator goes through the label table, so
/// tensioning is a label-table fixpoint: a label that points at an
/// unconditional jump is retargeted to that jump's destination.  Returns
/// the number of labels retargeted.
pub fn tension_branches(code: &mut s1lisp_s1sim::FuncCode) -> usize {
    let mut changed = 0;
    for l in 0..code.labels.len() {
        let mut hops = 0;
        loop {
            let off = code.labels[l];
            let Some(s1lisp_s1sim::Insn::Jmp { target }) = code.insns.get(off) else {
                break;
            };
            let next = code.labels[*target as usize];
            if next == off || hops > 64 {
                break; // self-loop (or pathological chain): leave it
            }
            code.labels[l] = next;
            changed += 1;
            hops += 1;
        }
    }
    changed
}

/// Code-generation switches (each the knob for one experiment).
#[derive(Clone, Debug)]
#[allow(clippy::struct_excessive_bools)]
pub struct CodegenOptions {
    /// Compile tail calls as parameter-passing gotos (E4).
    pub tail_calls: bool,
    /// Stack-allocate frame-bounded number boxes (E7).
    pub pdl_numbers: bool,
    /// Cache special-variable lookups once per function entry (E10).
    pub cache_specials: bool,
    /// Pack call-free variables into registers via TNBIND (E12).
    pub register_allocation: bool,
    /// Honor representation analysis; off forces every value through
    /// pointer form (E6).
    pub representation_analysis: bool,
    /// Use the backtracking TN packer instead of the greedy one ("a
    /// packing method that backtracks can potentially produce better
    /// packings than one that does not", §6.1).
    pub backtracking_pack: bool,
}

impl Default for CodegenOptions {
    fn default() -> CodegenOptions {
        CodegenOptions {
            tail_calls: true,
            pdl_numbers: true,
            cache_specials: true,
            register_allocation: true,
            representation_analysis: true,
            backtracking_pack: false,
        }
    }
}

#[cfg(test)]
mod tension_tests {
    use s1lisp_s1sim::{Asm, Insn, Operand, Reg};

    #[test]
    fn jump_chains_collapse() {
        let mut a = Asm::new("f", 0);
        let l1 = a.label();
        let l2 = a.label();
        let l3 = a.label();
        a.push(Insn::Jmp { target: l1 }); // 0
        a.bind(l1);
        a.push(Insn::Jmp { target: l2 }); // 1
        a.bind(l2);
        a.push(Insn::Jmp { target: l3 }); // 2
        a.bind(l3);
        a.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::fixnum(1),
        }); // 3
        a.push(Insn::Ret);
        let mut code = a.finish();
        let changed = crate::tension_branches(&mut code);
        assert!(changed >= 2);
        // Every label now lands on the MOV directly.
        for &l in &[l1, l2, l3] {
            assert_eq!(code.labels[l as usize], 3);
        }
    }

    #[test]
    fn self_loops_are_left_alone() {
        let mut a = Asm::new("spin", 0);
        let top = a.here();
        a.push(Insn::Jmp { target: top });
        let mut code = a.finish();
        let changed = crate::tension_branches(&mut code);
        assert_eq!(changed, 0);
        assert_eq!(code.labels[top as usize], 0);
    }
}
