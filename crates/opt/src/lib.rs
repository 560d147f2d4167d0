//! The source-level optimizer (§5 of the paper).
//!
//! "In general, all source-program constructs outside a certain small set
//! are re-expressed as combinations of constructs within the set … for
//! the most part the compiler relies on a small set of general
//! optimization techniques to produce special-case efficiencies."
//!
//! The three central rules are the lambda-calculus beta-conversion split
//! into parts (§5):
//!
//! 1. `((lambda () body))` ⇒ `body` — **META-CALL-LAMBDA**;
//! 2. deletion of an unbound-in-body parameter whose argument has no side
//!    effects ("except possibly heap-allocation, which … may be
//!    eliminated but must not be duplicated") — **META-DELETE-UNUSED-ARGUMENT**;
//! 3. substitution of an argument expression for occurrences of its
//!    parameter, "provided that certain complicated conditions regarding
//!    side effects are satisfied" — **META-SUBSTITUTE**.
//!
//! Constant propagation, procedure integration, and loop unrolling "fall
//! out as special cases of beta-conversion".  Alongside them run the
//! if-distribution transformation (the essence of boolean
//! short-circuiting), conditional simplification ("realizing that `b` is
//! true in the inner `if` by virtue of the test in the outer one"),
//! compile-time expression evaluation, dead-code elimination, table-driven
//! manipulation of associative/commutative operators, and the
//! semi-canonicalizing `progn`/lambda lifts out of `if` tests.
//!
//! Every transformation is recorded in a [`Transcript`] in the style of
//! the paper's §7 debugging output, and every intermediate tree remains
//! back-translatable to source.
//!
//! [`Optimizer::fixpoint`] is the one driver.  Each round applies the
//! first applicable rule in preorder (canonicalizing rules before the
//! beta rules), as a full rescan would, but the driver analyses the
//! tree once and then re-analyses incrementally, as §4.2's per-node
//! flags were for ("re-analysis to be performed incrementally").  A
//! rewrite recomputes the side-effects and complexity of the nodes it
//! rewrote or made and of their ancestors, patches the backlinks of
//! just the variables whose occurrences changed, and clears the
//! per-node "no rule applies here" marks that its changes could
//! falsify: those of the rewritten and new nodes and their ancestors,
//! and — because the rules read variables' `setqs` where the variables
//! are referenced — those of the ancestors of every reference to a
//! variable whose `setqs` changed, which can lie anywhere in the
//! function.  The next scan resumes past every subtree still marked.
//!
//! # Examples
//!
//! ```
//! use s1lisp_frontend::Frontend;
//! use s1lisp_opt::Optimizer;
//! use s1lisp_reader::{read_str, Interner};
//! use s1lisp_ast::unparse;
//!
//! let mut i = Interner::new();
//! let src = read_str("(defun f () (let ((x 2)) (+ x 3)))", &mut i).unwrap();
//! let mut fe = Frontend::new(&mut i);
//! let mut func = fe.convert_defun(&src).unwrap();
//! let mut opt = Optimizer::new();
//! opt.optimize(&mut func.tree);
//! // Constant propagation + folding reduce the body to a constant.
//! assert_eq!(unparse(&func.tree, func.tree.root).to_string(), "(lambda () '5)");
//! ```

#![warn(missing_docs)]

mod incremental;
mod rules;
mod transcript;

pub use transcript::{Transcript, TranscriptEntry};

use s1lisp_analysis::{Complexity, Effects};
use s1lisp_ast::{NodeId, NodeKind, Tree};

/// The optimizer's two switches.  Every rule is always tried; E12's
/// everything-off baseline is [`OptOptions::none`], whose zero round
/// budget applies no transformation at all.
#[derive(Clone, Debug)]
pub struct OptOptions {
    /// Unroll self-recursive calls once by procedure integration — the
    /// paper's "integration of the procedure within itself achieves loop
    /// unrolling", gated off by default exactly as in 1982 ("the
    /// heuristics … are so conservative as to avoid loop unrolling
    /// completely").  Requires the function's name, passed to
    /// [`Optimizer::fixpoint`].
    pub unroll: bool,
    /// Upper bound on applied transformations (each found by a scan
    /// that resumes past every subtree no rule can apply in, and
    /// followed by an incremental update of the analyses).
    pub max_rounds: usize,
}

impl Default for OptOptions {
    fn default() -> OptOptions {
        OptOptions {
            unroll: false,
            max_rounds: 2000,
        }
    }
}

impl OptOptions {
    /// Everything off — the E12 baseline.
    pub fn none() -> OptOptions {
        OptOptions {
            unroll: false,
            max_rounds: 0,
        }
    }
}

/// The source-level optimizer.
#[derive(Debug, Default)]
pub struct Optimizer {
    /// Transformation switches.
    pub options: OptOptions,
    /// The paper-style transformation log.
    pub transcript: Transcript,
    /// Nodes tested for a rule, over every fixpoint run: each test of a
    /// node against the canonicalizing rules, and each against the
    /// beta-conversion rules, counts once.
    pub nodes_visited: usize,
    /// Private interner for compiler-introduced names (join points).
    pub(crate) names: s1lisp_reader::Interner,
    /// Gensym counter for join-point names.
    pub(crate) counter: u32,
    /// The nodes the last rule rewrote in place, each with the
    /// construct it held.
    pub(crate) rewritten: Vec<(NodeId, NodeKind)>,
}

impl Optimizer {
    /// An optimizer with default options.
    pub fn new() -> Optimizer {
        Optimizer::default()
    }

    /// An optimizer with the given options.
    pub fn with_options(options: OptOptions) -> Optimizer {
        Optimizer {
            options,
            ..Optimizer::default()
        }
    }

    /// Rewrites `tree` to a fixpoint, unguarded and without a
    /// function name (so no unrolling): [`Optimizer::fixpoint`] for
    /// callers that cannot fail.
    pub fn optimize(&mut self, tree: &mut Tree) -> usize {
        self.fixpoint(tree, None, false)
            .expect("an unguarded fixpoint cannot fail")
    }

    /// The fixpoint driver: rewrites `tree` until no rule applies or
    /// [`OptOptions::max_rounds`] transformations have been applied,
    /// returning the number applied.
    ///
    /// Each round applies the first applicable rule in preorder,
    /// canonicalizing rules first — exactly what
    /// [`Optimizer::canonical_at`] and [`Optimizer::beta_at`] would find
    /// on a full rescan after a full re-analysis — and then updates the
    /// analyses and backlinks for just what it changed (the paper's
    /// co-routining of analysis and optimization).  With
    /// [`OptOptions::unroll`] on, knowing the function's own name
    /// (`self_name`) first integrates one self-recursive call (§5's
    /// "the integration of the procedure within itself achieves loop
    /// unrolling").  A successful run leaves the backlinks current.
    ///
    /// With `guard` on, the tree is checked against the Table-2
    /// well-formedness invariants ([`s1lisp_ast::well_formed`]) after
    /// the unroll stage and after every round that applied a rewrite.
    /// A violation stops optimization immediately, so the caller can
    /// route the function to a degraded recompile instead of emitting
    /// code from a corrupt tree.
    ///
    /// # Errors
    ///
    /// Only when guarded: the first invariant violated, naming the
    /// stage (`after unroll` or `after round N`) and the most recent
    /// transcript rule.
    pub fn fixpoint(
        &mut self,
        tree: &mut Tree,
        self_name: Option<&str>,
        guard: bool,
    ) -> Result<usize, String> {
        let mut total = 0;
        if let (true, Some(name)) = (self.options.unroll, self_name) {
            tree.rebuild_backlinks();
            total += rules::unroll_once(self, tree, name);
            if guard {
                self.check(tree, 0)?;
            }
        }
        if self.options.max_rounds > 0 {
            let mut state = incremental::Incremental::new(tree);
            for round in 1..=self.options.max_rounds {
                if !state.step(self, tree) {
                    break;
                }
                total += 1;
                if guard {
                    self.check(tree, round)?;
                }
            }
        }
        tree.rebuild_backlinks();
        Ok(total)
    }

    /// Tries the canonicalizing rules at `node` and applies the first
    /// that fits, returning whether one did.  This and
    /// [`Optimizer::beta_at`] are the steps [`Optimizer::fixpoint`]
    /// takes, exposed so that another driver — a full-rescan reference
    /// to check the incremental one against — can run the same rules.
    /// The rules read the tree's backlinks, which must be current.
    pub fn canonical_at(&mut self, tree: &mut Tree, node: NodeId) -> bool {
        self.rewritten.clear();
        rules::apply_canonical(self, tree, node)
    }

    /// Tries the beta-conversion rules at `node` and applies the first
    /// that fits, returning whether one did.  `effects` and
    /// `complexity` are the analyses of the current tree, as
    /// [`s1lisp_analysis::effects()`] and [`s1lisp_analysis::complexity()`]
    /// return them; the backlinks must be current.
    pub fn beta_at(
        &mut self,
        tree: &mut Tree,
        node: NodeId,
        effects: &[Option<Effects>],
        complexity: &[Option<Complexity>],
    ) -> bool {
        self.rewritten.clear();
        rules::apply_beta(
            self,
            tree,
            node,
            &rules::Cx {
                effects,
                complexity,
            },
        )
    }

    /// Validates the tree against the Table-2 invariants after round
    /// `round` (`0` = the unroll stage), blaming the most recent
    /// transcript rule in the error.
    fn check(&self, tree: &Tree, round: usize) -> Result<(), String> {
        s1lisp_ast::well_formed(tree).map_err(|e| {
            let last_rule = self.transcript.entries.last().map_or("(none)", |e| e.rule);
            let stage = if round == 0 {
                "after unroll".to_string()
            } else {
                format!("after round {round}")
            };
            format!("{e} ({stage}, last rule {last_rule})")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_ast::unparse;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn optimize(src: &str) -> (String, Transcript) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let mut f = fe.convert_defun(&form).unwrap();
        let mut opt = Optimizer::new();
        opt.optimize(&mut f.tree);
        (
            unparse(&f.tree, f.tree.root).to_string(),
            std::mem::take(&mut opt.transcript),
        )
    }

    #[test]
    fn constant_let_folds_away() {
        let (out, _) = optimize("(defun f () (let ((x 2)) (+ x 3)))");
        assert_eq!(out, "(lambda () '5)");
    }

    #[test]
    fn boolean_short_circuit_derivation() {
        // §5's worked example: (if (and a (or b c)) e1 e2).  The final
        // form must contain no `and`/`or`, no double evaluation, and the
        // multi-use join point must remain a lambda-bound function.
        let (out, tr) = optimize("(defun f (a b c) (if (and a (or b c)) (e1) (e2)))");
        assert!(!out.contains("and"), "{out}");
        // All lambda-bound temporaries should be join-point thunks or the
        // or-temporary; the constant-false arm must be gone.
        assert!(!out.contains("'()"), "dead arm survived: {out}");
        // The paper's target shape: nested ifs on a, b, c, with e1/e2
        // reachable through at most one level of thunk.
        assert!(out.contains("(if b"), "{out}");
        assert!(out.contains("(if c"), "{out}");
        assert!(
            tr.entries.iter().any(|e| e.rule == "META-IF-DISTRIBUTE"),
            "if-distribution not exercised"
        );
        assert!(
            tr.entries.iter().any(|e| e.rule == "META-CALL-LAMBDA"),
            "call-lambda not exercised"
        );
    }

    #[test]
    fn testfn_derivation_matches_paper() {
        // §7's worked example, step by step.
        let (out, tr) = optimize(
            "(defun testfn (a &optional (b 3.0) (c a))
               (let ((d (+$f a b c)) (e (*$f a b c)))
                 (let ((q (sin$f e)))
                   (frotz d e (max$f d e))
                   q)))",
        );
        // Association reduced to binary calls, reversed: (+$f (+$f c b) a).
        assert!(out.contains("(+$f (+$f c b) a)"), "{out}");
        assert!(out.contains("(*$f (*$f c b) a)"), "{out}");
        // sin$f became sinc$f with the constant first.
        assert!(out.contains("(sinc$f (*$f '0.159154942 e))"), "{out}");
        // q was substituted past the call to frotz and eliminated.
        assert!(!out.contains("(q"), "{out}");
        assert!(
            out.contains("(progn (frotz d e (max$f d e)) (sinc$f (*$f '0.159154942 e)))"),
            "{out}"
        );
        for rule in [
            "META-EVALUATE-ASSOC-COMMUT-CALL",
            "CONSIDER-REVERSING-ARGUMENTS",
            "META-SUBSTITUTE",
            "META-CALL-LAMBDA",
        ] {
            assert!(
                tr.entries.iter().any(|e| e.rule == rule),
                "missing transcript rule {rule}\n{tr}"
            );
        }
    }

    #[test]
    fn disabled_optimizer_is_identity() {
        let src = "(defun f () (let ((x 2)) (+ x 3)))";
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let mut f = fe.convert_defun(&form).unwrap();
        let before = unparse(&f.tree, f.tree.root).to_string();
        let mut opt = Optimizer::with_options(OptOptions::none());
        let n = opt.optimize(&mut f.tree);
        assert_eq!(n, 0);
        assert_eq!(unparse(&f.tree, f.tree.root).to_string(), before);
    }

    /// `(lambda () (frotz x (+ 1 2)))` with `x` bound nowhere: a
    /// Table-2 violation no rule repairs, next to a foldable call.
    fn unbound_var_beside_foldable_call() -> Tree {
        let mut i = Interner::new();
        let mut t = Tree::new();
        let x = t.add_var(i.intern("x"));
        let rx = t.var_ref(x);
        let one = t.constant(s1lisp_reader::Datum::Fixnum(1));
        let two = t.constant(s1lisp_reader::Datum::Fixnum(2));
        let sum = t.call_global(i.intern("+"), vec![one, two]);
        let call = t.call_global(i.intern("frotz"), vec![rx, sum]);
        t.root = t.lambda(vec![], call);
        t
    }

    #[test]
    fn guarded_fixpoint_stops_at_the_first_ill_formed_round() {
        let mut tree = unbound_var_beside_foldable_call();
        let err = Optimizer::new()
            .fixpoint(&mut tree, None, true)
            .unwrap_err();
        assert!(err.contains("lexical variable x"), "{err}");
        assert!(
            err.contains("(after round 1, last rule META-COMPILE-TIME-EVAL)"),
            "{err}"
        );

        let mut tree = unbound_var_beside_foldable_call();
        let mut opt = Optimizer::new();
        assert_eq!(opt.fixpoint(&mut tree, None, false), Ok(1));
        assert_eq!(
            unparse(&tree, tree.root).to_string(),
            "(lambda () (frotz x '3))"
        );
    }

    /// Deleting `a`'s only `setq` (the dead arm, rewrite 2) makes the
    /// reference `a` in `(let ((y a)) …)` trivial, so rewrite 3 fires
    /// there: a node earlier in preorder than the deleted `setq`, and
    /// not its ancestor.  Only the invalidation of everything that
    /// reads `a`'s lists finds it.
    #[test]
    fn removing_a_setq_rescans_the_variables_readers() {
        let (out, tr) = optimize(
            "(defun f (a)
               (progn (let ((y a)) (g y y))
                      (let ((k '())) (if k (setq a 5) '()))
                      a))",
        );
        let entries: Vec<(&str, &str, &str)> = tr
            .entries
            .iter()
            .map(|e| (e.rule, e.before.as_str(), e.after.as_str()))
            .collect();
        assert_eq!(
            entries,
            [
                (
                    "META-SUBSTITUTE",
                    "((lambda (k) (if k (setq a '5) '())) '())",
                    "((lambda () (if '() (setq a '5) '())))"
                ),
                ("META-IF-CONSTANT-TEST", "(if '() (setq a '5) '())", "'()"),
                (
                    "META-SUBSTITUTE",
                    "((lambda (y) (g y y)) a)",
                    "((lambda () (g a a)))"
                ),
                ("META-CALL-LAMBDA", "((lambda () (g a a)))", "(g a a)"),
                ("META-CALL-LAMBDA", "((lambda () '()))", "'()"),
            ],
            "{tr}"
        );
        assert_eq!(out, "(lambda (a) (progn (g a a) '() a))");
    }

    #[test]
    fn effectful_arguments_are_preserved() {
        // (frotz) may have side effects: the let cannot be eliminated even
        // though x is dead.
        let (out, _) = optimize("(defun f () (let ((x (frotz))) 42))");
        assert!(out.contains("frotz"), "{out}");
        // But the dead binding of a pure expression goes away entirely.
        let (out2, _) = optimize("(defun f (y) (let ((x (* y y))) 42))");
        assert_eq!(out2, "(lambda (y) '42)");
    }
}
