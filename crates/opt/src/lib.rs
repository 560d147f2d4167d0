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
//! [`Optimizer::fixpoint`] is the one driver: each round re-runs the
//! side-effects and complexity analyses over the whole tree, then
//! applies the first applicable rule.  The paper's per-node flags
//! ("re-analysis to be performed incrementally", §4.2) are not
//! reproduced; both analyses are recomputed in full before every
//! rewrite.
//!
//! Common sub-expression elimination (§4.3 — designed but "not yet
//! implemented" in 1982) is provided as the optional [`cse`] phase.
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

pub mod cse;
mod rules;
mod transcript;

pub use transcript::{Transcript, TranscriptEntry};

use s1lisp_ast::Tree;

/// Per-transformation switches, for the ablation experiments (E12).
#[derive(Clone, Debug)]
#[allow(clippy::struct_excessive_bools)]
pub struct OptOptions {
    /// Rule 1: `((lambda () body))` ⇒ `body`.
    pub call_lambda: bool,
    /// Rule 2: deletion of unused parameters with effect-free arguments.
    pub unused_args: bool,
    /// Rule 3: substitution of argument expressions for variables
    /// (subsumes constant propagation and procedure integration).
    pub substitution: bool,
    /// Distribution of `if` over an `if` test, introducing lambda-bound
    /// join points.
    pub if_distribution: bool,
    /// Conditional simplification: constant tests, tests known true or
    /// false from an enclosing test.
    pub if_simplify: bool,
    /// Semi-canonicalizing lifts of `progn` and lambda-calls out of `if`
    /// tests.
    pub if_lift: bool,
    /// Compile-time evaluation of pure primitives on constants.
    pub constant_fold: bool,
    /// Reduction of n-ary associative/commutative calls to binary
    /// compositions, constants-first argument ordering, and identity
    /// elimination.
    pub assoc_commut: bool,
    /// The machine-inspired `sin$f` → `sinc$f` (cycles) rewrite (§7).
    pub sin_to_cycles: bool,
    /// Unroll self-recursive calls once by procedure integration — the
    /// paper's "integration of the procedure within itself achieves loop
    /// unrolling", gated off by default exactly as in 1982 ("the
    /// heuristics … are so conservative as to avoid loop unrolling
    /// completely").  Requires the function's name, passed to
    /// [`Optimizer::fixpoint`].
    pub unroll: bool,
    /// Upper bound on applied transformations (each is found by a full
    /// tree scan, after which analyses are re-run).
    pub max_rounds: usize,
}

impl Default for OptOptions {
    fn default() -> OptOptions {
        OptOptions {
            call_lambda: true,
            unused_args: true,
            substitution: true,
            if_distribution: true,
            if_simplify: true,
            if_lift: true,
            constant_fold: true,
            assoc_commut: true,
            sin_to_cycles: true,
            unroll: false,
            max_rounds: 2000,
        }
    }
}

impl OptOptions {
    /// Everything off — the E12 baseline.
    pub fn none() -> OptOptions {
        OptOptions {
            call_lambda: false,
            unused_args: false,
            substitution: false,
            if_distribution: false,
            if_simplify: false,
            if_lift: false,
            constant_fold: false,
            assoc_commut: false,
            sin_to_cycles: false,
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
    /// Private interner for compiler-introduced names (join points).
    pub(crate) names: s1lisp_reader::Interner,
    /// Gensym counter for join-point names.
    pub(crate) counter: u32,
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
    /// Each round rebuilds backlinks and re-runs the analyses the rules
    /// consult (the paper's co-routining of analysis and optimization),
    /// then applies the first applicable rule.  With
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
        for round in 1..=self.options.max_rounds {
            tree.rebuild_backlinks();
            let applied = rules::run_round(self, tree);
            if applied == 0 {
                break;
            }
            total += applied;
            if guard {
                self.check(tree, round)?;
            }
        }
        tree.rebuild_backlinks();
        Ok(total)
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
