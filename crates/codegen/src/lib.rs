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

/// What one [`tension_branches`] pass changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tensioned {
    /// Labels retargeted from an unconditional jump to its destination.
    pub retargeted: usize,
    /// Conditional jumps over a jump rewritten as one inverted jump.
    pub inverted: usize,
    /// Instructions deleted: jumps to the next instruction, the jumps the
    /// inversions absorbed, and unreachable code.
    pub deleted: usize,
}

/// The peephole pass.  Branch tensioning — "the elimination of branches
/// to branch instructions" (§4.5) — is the one optimization the paper
/// concedes may need one, because "branch instructions do not appear in
/// the internal tree, but rather are artifacts of the embedding of the
/// tree into a linear instruction stream".  The other artifacts of that
/// embedding go in the same pass:
///
/// 1. a label that points at an unconditional jump is retargeted to that
///    jump's destination (a label-table fixpoint: every branch goes
///    through the label table);
/// 2. code after a `JMPA`, `RET`, `TRAP`, tail transfer, throw or
///    dispatch is deleted up to the next instruction a label names;
/// 3. `JMPcond X; JMPA Y; X:` becomes `JMP¬cond Y` (for `JMPZ` under
///    each of the six exactly complementary conditions, and
///    `JMPNIL`/`JMPNNIL`), unless a label names the `JMPA`;
/// 4. a `JMPA` to the next instruction is deleted.
///
/// Steps 3 and 4 run in one backward scan, so each sees its successors
/// in final form; then the code is compacted and the label table
/// remapped once.
pub fn tension_branches(code: &mut s1lisp_s1sim::FuncCode) -> Tensioned {
    use s1lisp_s1sim::Insn;
    let retargeted = retarget_labels(code);
    let n = code.insns.len();
    let at = |code: &s1lisp_s1sim::FuncCode, l: u32| code.labels[l as usize];
    // Instructions some label in use names (counting uses in code about
    // to be deleted keeps this one pass; it only keeps more code).
    let mut named = vec![false; n + 1];
    for insn in &code.insns {
        for &l in insn.targets() {
            named[at(code, l)] = true;
        }
    }
    let mut keep = vec![false; n];
    let mut live = true;
    for (i, insn) in code.insns.iter().enumerate() {
        live |= named[i];
        keep[i] = live;
        live &= insn.falls_through();
    }
    // next[p]: the first kept instruction at or after p (final for every
    // p > i while instruction i is looked at).
    let mut next = vec![n; n + 1];
    let mut inverted = 0;
    for i in (0..n).rev() {
        next[i] = if keep[i] { i } else { next[i + 1] };
        if !keep[i] {
            continue;
        }
        let after = next[i + 1];
        // Where a forward branch from i lands once the code is compacted.
        let lands = |l: u32| Some(at(code, l)).filter(|&p| p > i).map(|p| next[p]);
        if let Insn::Jmp { target } = code.insns[i] {
            if lands(target) == Some(after) {
                keep[i] = false;
                next[i] = after;
            }
            continue;
        }
        let Some(Insn::Jmp { target: over }) = code.insns.get(after) else {
            continue;
        };
        let (over, beyond) = (*over, next[after + 1]);
        if named[after] || code.insns[i].targets().first().and_then(|&x| lands(x)) != Some(beyond) {
            continue;
        }
        let inverse = match code.insns[i] {
            Insn::JmpIf {
                cond, prim, a, b, ..
            } => Insn::JmpIf {
                cond: cond.negate(),
                prim,
                a,
                b,
                target: over,
            },
            Insn::JmpNil { src, .. } => Insn::JmpNotNil { src, target: over },
            Insn::JmpNotNil { src, .. } => Insn::JmpNil { src, target: over },
            _ => continue,
        };
        code.insns[i] = inverse;
        inverted += 1;
        keep[after] = false;
        for p in &mut next[i + 1..=after] {
            *p = beyond;
        }
    }
    let deleted = keep.iter().filter(|&&k| !k).count();
    if deleted > 0 {
        code.retain(&keep);
    }
    Tensioned {
        retargeted,
        inverted,
        deleted,
    }
}

/// Step 1 of [`tension_branches`]: returns the number of labels
/// retargeted.
fn retarget_labels(code: &mut s1lisp_s1sim::FuncCode) -> usize {
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
}

impl Default for CodegenOptions {
    fn default() -> CodegenOptions {
        CodegenOptions {
            tail_calls: true,
            pdl_numbers: true,
            cache_specials: true,
            register_allocation: true,
            representation_analysis: true,
        }
    }
}

#[cfg(test)]
mod tension_tests {
    use s1lisp_ast::Prim;
    use s1lisp_interp::Value;
    use s1lisp_s1sim::{Asm, Cond, FuncCode, Insn, Machine, Operand, Program, Reg, Word};

    fn ret_fixnum(a: &mut Asm, n: i64) {
        a.push(Insn::Mov {
            dst: Operand::Reg(Reg::A),
            src: Operand::fixnum(n),
        });
        a.push(Insn::Ret);
    }

    /// Runs `code` on each argument list (a trap prints as its cause).
    fn results(code: &FuncCode, calls: &[Vec<Value>]) -> Vec<String> {
        let mut p = Program::new();
        p.define(code.clone());
        let mut m = Machine::new(p);
        calls
            .iter()
            .map(|args| match m.run(&code.name, args) {
                Ok(v) => v.to_string(),
                Err(t) => format!("trap: {}", t.cause()),
            })
            .collect()
    }

    /// Tensions `a`'s code and checks that every call returns what it
    /// did before.
    fn tension_keeps_results(a: Asm, calls: &[Vec<Value>]) -> (FuncCode, crate::Tensioned) {
        let mut code = a.finish();
        let before = results(&code, calls);
        let t = crate::tension_branches(&mut code);
        assert_eq!(results(&code, calls), before, "{code:?}");
        (code, t)
    }

    fn fx(n: i64) -> Value {
        Value::Fixnum(n)
    }

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
        let t = crate::tension_branches(&mut code);
        assert!(t.retargeted >= 2);
        // Every label now lands on the MOV directly, and the jumps the
        // chain was made of are gone.
        assert_eq!(t.deleted, 3);
        for &l in &[l1, l2, l3] {
            assert_eq!(code.labels[l as usize], 0);
        }
    }

    #[test]
    fn self_loops_are_left_alone() {
        let mut a = Asm::new("spin", 0);
        let top = a.here();
        a.push(Insn::Jmp { target: top });
        let mut code = a.finish();
        let t = crate::tension_branches(&mut code);
        assert_eq!(t, crate::Tensioned::default());
        assert_eq!(code.labels[top as usize], 0);
    }

    /// `JMPZ x=0 X; L: JMPA Y; X:` where `L` is also a branch target: the
    /// branch to `L` is retargeted to `Y` first, and only then is the
    /// `JMPA` free to fold into an inverted `JMPZ`.
    #[test]
    fn a_labelled_jump_over_a_jump_is_tensioned_then_inverted() {
        let mut a = Asm::new("f", 2);
        let (x, l, y) = (a.label(), a.label(), a.label());
        a.push(Insn::JmpNil {
            src: Operand::arg(1),
            target: l,
        });
        a.push(Insn::JmpIf {
            cond: Cond::Eq,
            prim: Prim::Zerop,
            a: Operand::arg(0),
            b: Operand::fixnum(0),
            target: x,
        });
        a.bind(l);
        a.push(Insn::Jmp { target: y });
        a.bind(x);
        ret_fixnum(&mut a, 1);
        a.bind(y);
        ret_fixnum(&mut a, 2);
        let calls = [
            vec![fx(0), fx(1)],
            vec![fx(5), fx(1)],
            vec![fx(0), Value::Nil],
            vec![fx(5), Value::Nil],
        ];
        let (code, t) = tension_keeps_results(a, &calls);
        assert_eq!((t.retargeted, t.inverted, t.deleted), (1, 1, 1));
        assert_eq!(
            code.insns[1],
            Insn::JmpIf {
                cond: Cond::Ne,
                prim: Prim::Zerop,
                a: Operand::arg(0),
                b: Operand::fixnum(0),
                target: y,
            }
        );
        assert_eq!(code.labels[x as usize], 2);
    }

    /// `JMPNNIL` over a jump inverts to `JMPNIL`, and a `JMPA` to the
    /// next instruction goes.
    #[test]
    fn nil_tests_invert_and_jumps_to_the_next_instruction_go() {
        let mut a = Asm::new("f", 1);
        let (x, y, next) = (a.label(), a.label(), a.label());
        a.push(Insn::JmpNotNil {
            src: Operand::arg(0),
            target: x,
        });
        a.push(Insn::Jmp { target: y });
        a.bind(x);
        a.push(Insn::Jmp { target: next });
        a.bind(next);
        ret_fixnum(&mut a, 1);
        a.bind(y);
        ret_fixnum(&mut a, 2);
        let (code, t) = tension_keeps_results(a, &[vec![fx(3)], vec![Value::Nil]]);
        assert_eq!((t.inverted, t.deleted), (1, 2));
        assert_eq!(
            code.insns[0],
            Insn::JmpNil {
                src: Operand::arg(0),
                target: y,
            }
        );
        assert_eq!(code.insns.len(), 5);
    }

    /// Code after a `RET` stays when a label in use reaches it; code no
    /// label reaches goes, up to the next label in use.
    #[test]
    fn code_after_ret_stays_only_where_a_label_reaches_it() {
        let mut a = Asm::new("f", 1);
        let (l, unused) = (a.label(), a.label());
        a.push(Insn::JmpNil {
            src: Operand::arg(0),
            target: l,
        });
        ret_fixnum(&mut a, 1);
        a.bind(l);
        ret_fixnum(&mut a, 2);
        a.bind(unused);
        ret_fixnum(&mut a, 3);
        let (code, t) = tension_keeps_results(a, &[vec![fx(3)], vec![Value::Nil]]);
        assert_eq!(t.deleted, 2);
        assert_eq!(code.insns.len(), 5);
        assert_eq!(code.labels[l as usize], 3);
        assert_eq!(code.labels[unused as usize], 5);
    }

    /// Every arm of a computed dispatch is reached only through its jump
    /// table: none is dead code, though each follows a transfer.
    #[test]
    fn dispatch_targets_are_not_dead_code() {
        let mut a = Asm::new("f", 1);
        let arms: Vec<_> = (0..3).map(|_| a.label()).collect();
        a.push(Insn::UnboxFlo {
            dst: Operand::Reg(Reg(9)),
            src: Operand::arg(0),
        });
        a.push(Insn::FixIt {
            dst: Operand::Reg(Reg(9)),
            src: Operand::Reg(Reg(9)),
        });
        a.push(Insn::Dispatch {
            src: Operand::Reg(Reg(9)),
            targets: arms.clone(),
        });
        for (i, &arm) in arms.iter().enumerate() {
            a.bind(arm);
            ret_fixnum(&mut a, 10 + i as i64);
        }
        let calls: Vec<Vec<Value>> = (0..4).map(|i| vec![fx(i)]).collect();
        let (code, t) = tension_keeps_results(a, &calls);
        assert_eq!(t.deleted, 0);
        assert_eq!(code.insns.len(), 9);
    }

    /// A catch's resume point follows a throw, which never falls
    /// through, but is live: the throw lands there.
    #[test]
    fn a_catch_resume_label_is_not_dead_code() {
        let tag = Operand::Const(Word::fixnum(7));
        let mut a = Asm::new("f", 1);
        let resume = a.label();
        a.push(Insn::PushCatch {
            tag,
            target: resume,
        });
        a.push(Insn::Throw {
            tag,
            value: Operand::arg(0),
        });
        ret_fixnum(&mut a, 0);
        a.bind(resume);
        a.push(Insn::Ret);
        let (code, t) = tension_keeps_results(a, &[vec![fx(33)]]);
        assert_eq!(t.deleted, 2);
        assert_eq!(code.insns.len(), 3);
        assert_eq!(code.insns[2], Insn::Ret);
    }
}
