//! Side-effects analysis.
//!
//! "For each subtree, classify the possible side-effects produced by its
//! execution, and the side-effects that might adversely affect such
//! execution." (§4.2.)
//!
//! The classification drives the legality side of the source-level
//! transformations: rule 2 of §5 deletes an unused argument only when its
//! "execution … has no side effects (except possibly heap-allocation,
//! which is a side effect that may be eliminated but must not be
//! duplicated)", and rule 3 substitutes a once-referenced expression only
//! under "certain complicated conditions regarding side effects".

use s1lisp_ast::{CallFunc, NodeId, NodeKind, Prim, Tree};

/// The side-effect classification of one subtree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Effects {
    /// May assign a lexical variable or a special.
    pub writes_vars: bool,
    /// May mutate heap structure (`rplaca`-class) — adversely affects
    /// any reader of mutable structure.
    pub writes_heap: bool,
    /// May allocate ("a side effect that may be eliminated but must not
    /// be duplicated").
    pub allocates: bool,
    /// Reads a lexical or special variable (affected by `writes_vars`).
    pub reads_vars: bool,
    /// Reads mutable heap structure (affected by `writes_heap`).
    pub reads_heap: bool,
    /// May transfer control non-locally (`go`, `return`, `throw`) or
    /// signal an error.
    pub control: bool,
    /// May invoke an unknown (user) function — conservatively implies
    /// everything above.
    pub calls_unknown: bool,
}

impl Effects {
    /// No effects at all: freely movable, duplicable, deletable.
    pub fn is_pure(self) -> bool {
        self == Effects::default()
    }

    /// Deletable if its value is unused: produces no observable effect.
    /// Heap allocation *is* deletable (but not duplicable).
    pub fn deletable(self) -> bool {
        !self.writes_vars && !self.writes_heap && !self.control && !self.calls_unknown
    }

    /// Duplicable: evaluating twice is indistinguishable from once
    /// (allocation excluded, per §5).
    pub fn duplicable(self) -> bool {
        self.deletable() && !self.allocates
    }

    /// Whether evaluating `self` can change what `other` observes (so
    /// `self` may not be moved past `other`).
    pub fn interferes_with(self, other: Effects) -> bool {
        if self.calls_unknown || other.calls_unknown {
            return !(self.is_pure() || other.is_pure());
        }
        (self.writes_vars && (other.reads_vars || other.writes_vars))
            || (self.writes_heap && (other.reads_heap || other.writes_heap))
            || (other.writes_vars && (self.reads_vars || self.writes_vars))
            || (other.writes_heap && (self.reads_heap || self.writes_heap))
            || (self.control && !other.is_pure())
            || (other.control && !self.is_pure())
    }

    fn union(self, o: Effects) -> Effects {
        Effects {
            writes_vars: self.writes_vars || o.writes_vars,
            writes_heap: self.writes_heap || o.writes_heap,
            allocates: self.allocates || o.allocates,
            reads_vars: self.reads_vars || o.reads_vars,
            reads_heap: self.reads_heap || o.reads_heap,
            control: self.control || o.control,
            calls_unknown: self.calls_unknown || o.calls_unknown,
        }
    }

    /// The worst case: an unknown call may do anything.
    fn unknown_call() -> Effects {
        Effects {
            writes_vars: true,
            writes_heap: true,
            allocates: true,
            reads_vars: true,
            reads_heap: true,
            control: true,
            calls_unknown: true,
        }
    }
}

/// Computes the side-effect classification of every subtree reachable
/// from [`Tree::root`]: a dense table indexed by [`NodeId::index`],
/// `None` for the nodes the root does not reach.
pub fn effects(tree: &Tree) -> Vec<Option<Effects>> {
    let mut table = vec![None; tree.node_count()];
    walk(tree, tree.root, false, &mut table);
    table
}

fn walk(tree: &Tree, node: NodeId, called: bool, table: &mut [Option<Effects>]) {
    for c in tree.children(node) {
        walk(tree, c, is_called_lambda(tree, node, c), table);
    }
    let e = node_effects(tree, node, called, |c| table[c.index()].unwrap_or_default());
    table[node.index()] = Some(e);
}

/// Whether `child` is the manifest lambda that `parent` calls in place
/// (the lambda of a `let`): its body runs as part of the call.
pub fn is_called_lambda(tree: &Tree, parent: NodeId, child: NodeId) -> bool {
    matches!(tree.kind(parent), NodeKind::Call { func: CallFunc::Expr(f), .. } if *f == child)
        && matches!(tree.kind(child), NodeKind::Lambda(_))
}

/// The classification of `node` from its children's (`child` looks one
/// up) — the step [`effects`] repeats bottom-up, and the one an
/// incremental client re-runs on a node whose children changed.
/// `called` says whether `node` is a lambda its parent calls in place
/// ([`is_called_lambda`]): such a lambda's body runs, where any other
/// lambda expression only allocates its closure.
pub fn node_effects(
    tree: &Tree,
    node: NodeId,
    called: bool,
    child: impl Fn(NodeId) -> Effects,
) -> Effects {
    let own = match tree.kind(node) {
        NodeKind::Constant(_) => Effects::default(),
        NodeKind::VarRef(_) => Effects {
            reads_vars: true,
            ..Effects::default()
        },
        NodeKind::Setq { .. } => Effects {
            writes_vars: true,
            ..Effects::default()
        },
        NodeKind::Go(_) | NodeKind::Return(_) => Effects {
            control: true,
            ..Effects::default()
        },
        NodeKind::Call { func, .. } => match func {
            CallFunc::Global(g) => match Prim::from_name(g.as_str()) {
                Some(p) => Effects {
                    writes_heap: p.info().writes,
                    allocates: p.info().allocates,
                    reads_heap: p.info().reads_mutable,
                    // throw/error are control transfers.
                    control: matches!(p, Prim::Throw | Prim::Error | Prim::Apply),
                    calls_unknown: p == Prim::Apply,
                    ..Effects::default()
                },
                None => Effects::unknown_call(),
            },
            CallFunc::Expr(f) => {
                if matches!(tree.kind(*f), NodeKind::Lambda(_)) {
                    // A let: effects are just those of the subexpressions
                    // (added below via children).
                    Effects::default()
                } else {
                    Effects::unknown_call()
                }
            }
        },
        // A lambda *expression* evaluates to a closure: it allocates,
        // but its body does not run.
        NodeKind::Lambda(_) if !called => {
            return Effects {
                allocates: true,
                ..Effects::default()
            }
        }
        _ => Effects::default(),
    };
    tree.children(node)
        .into_iter()
        .fold(own, |e, c| e.union(child(c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn analyze(src: &str) -> (Tree, Vec<Option<Effects>>) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let e = effects(&f.tree);
        (f.tree, e)
    }

    fn body(tree: &Tree) -> NodeId {
        let NodeKind::Lambda(l) = tree.kind(tree.root) else {
            panic!()
        };
        l.body
    }

    #[test]
    fn pure_arithmetic_is_pure() {
        let (tree, e) = analyze("(defun f (x) (+ (* x x) 1))");
        let eff = e[body(&tree).index()].unwrap();
        assert!(!eff.is_pure()); // reads x
        assert!(eff.deletable());
        assert!(eff.duplicable());
        assert!(!eff.writes_heap);
    }

    #[test]
    fn cons_allocates_but_is_deletable() {
        let (tree, e) = analyze("(defun f (x) (cons x x))");
        let eff = e[body(&tree).index()].unwrap();
        assert!(eff.allocates);
        assert!(eff.deletable());
        assert!(!eff.duplicable());
    }

    #[test]
    fn rplaca_writes_heap() {
        let (tree, e) = analyze("(defun f (x) (rplaca x 1))");
        let eff = e[body(&tree).index()].unwrap();
        assert!(eff.writes_heap);
        assert!(!eff.deletable());
    }

    #[test]
    fn unknown_calls_are_worst_case() {
        let (tree, e) = analyze("(defun f (x) (frotz x))");
        let eff = e[body(&tree).index()].unwrap();
        assert!(eff.calls_unknown);
        assert!(eff.control);
        assert!(!eff.deletable());
    }

    #[test]
    fn lambda_expression_only_allocates() {
        let (tree, e) = analyze("(defun f (x) (lambda () (rplaca x 1)))");
        let eff = e[body(&tree).index()].unwrap();
        assert!(eff.allocates);
        assert!(!eff.writes_heap, "body does not run at closure creation");
    }

    #[test]
    fn let_body_effects_propagate() {
        let (tree, e) = analyze("(defun f (x) (let ((y 1)) (rplaca x y)))");
        let eff = e[body(&tree).index()].unwrap();
        assert!(eff.writes_heap);
        // The manifest lambda of a let does not count as allocation.
        assert!(!eff.allocates);
    }

    #[test]
    fn interference() {
        let w = Effects {
            writes_heap: true,
            ..Effects::default()
        };
        let r = Effects {
            reads_heap: true,
            ..Effects::default()
        };
        let pure = Effects::default();
        assert!(w.interferes_with(r));
        assert!(r.interferes_with(w));
        assert!(!r.interferes_with(r));
        assert!(!pure.interferes_with(Effects::unknown_call()));
        // Reading a variable is unaffected by heap writes.
        let rv = Effects {
            reads_vars: true,
            ..Effects::default()
        };
        assert!(!w.interferes_with(rv));
    }

    #[test]
    fn setq_and_go_classify() {
        let (tree, e) = analyze(
            "(defun f (x) (prog () top (setq x (- x 1)) (if (zerop x) (return x)) (go top)))",
        );
        let eff = e[body(&tree).index()].unwrap();
        assert!(eff.writes_vars);
        assert!(eff.control);
    }
}

#[cfg(test)]
mod more_effect_tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn body_effects(src: &str) -> Effects {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let e = effects(&f.tree);
        let NodeKind::Lambda(l) = f.tree.kind(f.tree.root) else {
            panic!()
        };
        e[l.body.index()].unwrap()
    }

    #[test]
    fn throw_is_control() {
        let e = body_effects("(defun f (x) (throw 'tag x))");
        assert!(e.control);
        assert!(!e.deletable());
    }

    #[test]
    fn caseq_unions_clause_effects() {
        let e = body_effects("(defun f (k x) (caseq k ((1) (rplaca x 1)) (t '())))");
        assert!(e.writes_heap);
    }

    #[test]
    fn reading_specials_is_a_variable_read() {
        let e = body_effects("(defun f () *mode*)");
        assert!(e.reads_vars);
        assert!(e.deletable());
    }

    #[test]
    fn setq_to_special_interferes_with_special_reads() {
        let w = body_effects("(defun f (x) (setq *mode* x))");
        let r = body_effects("(defun f () *mode*)");
        assert!(w.interferes_with(r));
        assert!(!r.interferes_with(r));
    }

    #[test]
    fn pure_against_anything_is_independent() {
        let pure = body_effects("(defun f () '5)");
        let wild = body_effects("(defun f (x) (frotz x))");
        assert!(!pure.interferes_with(wild));
        assert!(!wild.interferes_with(pure));
    }
}
