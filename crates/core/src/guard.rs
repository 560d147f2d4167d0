//! Phase validators for guarded compilation.
//!
//! §7's claim — "each transformation … back-translates to valid source
//! code" — is executable: after conversion and again after the
//! source-level transformations, the guard (a) checks the Table-2
//! well-formedness invariants ([`s1lisp_ast::well_formed`]) and (b)
//! performs the full back-translation round trip — unparse (preserving
//! declarations), re-read, re-convert — and demands the re-converted
//! tree reproduce the original [`s1lisp_ast::fingerprint`] exactly.
//! A violation is a [`GuardError`]; the compilation service routes it
//! to the degraded-recompile path instead of emitting code from a tree
//! whose scope structure can no longer be trusted.

use s1lisp_ast::{fingerprint, unparse_declared, well_formed, Tree};
use s1lisp_frontend::Frontend;
use s1lisp_reader::{read_str, Datum, Interner};

/// A structured guard violation: which function, at which pipeline
/// stage, and what invariant broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardError {
    /// The function being compiled.
    pub function: String,
    /// The pipeline stage that failed validation (`"conversion"`,
    /// `"source-level optimization"`, `"back-translation"`).
    pub stage: &'static str,
    /// Human-readable description of the violated invariant.
    pub detail: String,
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "guard violation in {} at {}: {}",
            self.function, self.stage, self.detail
        )
    }
}

impl std::error::Error for GuardError {}

/// Checks the tree's Table-2 well-formedness at a named stage.
pub(crate) fn validate_tree(
    function: &str,
    stage: &'static str,
    tree: &Tree,
) -> Result<(), GuardError> {
    well_formed(tree).map_err(|e| GuardError {
        function: function.to_string(),
        stage,
        detail: e.to_string(),
    })
}

/// The back-translation round trip: unparse with declarations, re-read
/// the text, re-convert it as a fresh `defun`, and compare structural
/// fingerprints.  Alpha-renaming makes converted trees a fixpoint of
/// conversion (every variable spelling is already unique), so the
/// fingerprints must match bit for bit.
pub(crate) fn round_trip(
    function: &str,
    stage: &'static str,
    tree: &Tree,
) -> Result<(), GuardError> {
    let err = |detail: String| GuardError {
        function: function.to_string(),
        stage,
        detail,
    };
    let want = fingerprint(tree);
    let source = unparse_declared(tree, tree.root, 78);
    let mut interner = Interner::new();
    let lambda = read_str(&source, &mut interner)
        .map_err(|e| err(format!("back-translation does not re-read: {e}\n{source}")))?;
    let items = lambda
        .proper_list()
        .ok_or_else(|| err(format!("back-translation is not a lambda form:\n{source}")))?;
    if items
        .first()
        .and_then(|h| h.as_symbol())
        .map(|s| s.as_str())
        != Some("lambda")
    {
        return Err(err(format!(
            "back-translation is not a lambda form:\n{source}"
        )));
    }
    let mut defun = vec![
        Datum::Sym(interner.intern("defun")),
        Datum::Sym(interner.intern(function)),
    ];
    defun.extend(items.into_iter().skip(1));
    let defun = Datum::list(defun);
    let mut fe = Frontend::new(&mut interner);
    let f = fe.convert_defun(&defun).map_err(|e| {
        err(format!(
            "back-translation does not re-convert: {e}\n{source}"
        ))
    })?;
    let got = fingerprint(&f.tree);
    if got != want {
        return Err(err(format!(
            "round-trip fingerprint mismatch: {want:016x} became {got:016x}\n{source}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_reader::read_all_str;

    fn converted(src: &str) -> Tree {
        let mut i = Interner::new();
        let forms = read_all_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        fe.convert_toplevel(&forms).unwrap().remove(0).tree
    }

    #[test]
    fn converted_trees_round_trip() {
        for src in [
            "(defun sq (x) (* x x))",
            "(defun typed (x y) (declare (fixnum x) (flonum y)) (+$f (float x) y))",
            "(defun opt (a &optional (b 3.0) &rest r) (frotz a b r))",
            "(defun looper (n) (prog ((i 0) (acc 1))
               top (cond ((> i n) (return acc)))
               (setq acc (* acc 2)) (setq i (+ i 1)) (go top)))",
            "(defun catcher (x) (catch 'esc (if x (throw 'esc 1) 2)))",
            "(defun dispatch (k) (caseq k ((1 2) 'low) ((3) 'mid) (t 'high)))",
        ] {
            let tree = converted(src);
            validate_tree("f", "conversion", &tree).unwrap();
            round_trip("f", "conversion", &tree).unwrap();
        }
    }

    #[test]
    fn special_parameters_survive_the_round_trip() {
        let mut i = Interner::new();
        let forms = read_all_str(
            "(proclaim '(special counter))
             (defun bump (counter) (setq counter (+ counter 1)))",
            &mut i,
        )
        .unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_toplevel(&forms).unwrap().remove(0);
        round_trip("bump", "conversion", &f.tree).unwrap();
    }

    #[test]
    fn a_corrupted_tree_fails_validation() {
        let mut tree = converted("(defun sq (x) (* x x))");
        // Orphan the lambda: reference its parameter at the root.
        let root = tree.root;
        let s1lisp_ast::NodeKind::Lambda(l) = tree.kind(root).clone() else {
            panic!()
        };
        tree.root = l.body;
        let e = validate_tree("sq", "conversion", &tree).unwrap_err();
        assert_eq!(e.stage, "conversion");
        assert!(e.detail.contains("unbound"), "{e}");
    }
}
