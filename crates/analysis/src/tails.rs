//! Tail-position analysis.
//!
//! §2: "recursive procedures of a certain form have iterative behavior …
//! a procedure call in this case is more akin to a parameter-passing goto
//! than to a recursive call, and can be implemented as such, as a simple
//! unconditional branch."
//!
//! [`tail_nodes_from`] computes the set of nodes in tail position with
//! respect to a lambda: the nodes whose value *is* the lambda's value
//! and after which no work remains.  A `call` in this set compiles to a
//! jump.
//!
//! [`value_producers`] is §4.2's "for each node, make a list of other
//! nodes that potentially generate its value": the leaves that actually
//! produce a node's value once control flow is resolved (used by
//! representation analysis to place coercions on the producing arms).

use std::collections::HashSet;

use s1lisp_ast::{CallFunc, NodeId, NodeKind, ProgItem, Tree};

/// Nodes in tail position relative to `lambda`: code generation asks
/// once for each lambda it compiles, the root and each closure body.
pub fn tail_nodes_from(tree: &Tree, lambda: NodeId) -> HashSet<NodeId> {
    let mut out = HashSet::new();
    if let NodeKind::Lambda(l) = tree.kind(lambda) {
        mark(tree, l.body, &mut out);
    }
    out
}

fn mark(tree: &Tree, node: NodeId, out: &mut HashSet<NodeId>) {
    out.insert(node);
    match tree.kind(node) {
        NodeKind::If { then, els, .. } => {
            mark(tree, *then, out);
            mark(tree, *els, out);
        }
        NodeKind::Progn(body) => {
            if let Some(&last) = body.last() {
                mark(tree, last, out);
            }
        }
        NodeKind::Caseq {
            clauses, default, ..
        } => {
            for c in clauses {
                mark(tree, c.body, out);
            }
            mark(tree, *default, out);
        }
        NodeKind::Call {
            func: CallFunc::Expr(f),
            ..
        } => {
            // A let: the called lambda's body is in tail position.
            // (A call to a *computed* function is itself the tail call.)
            if let NodeKind::Lambda(l) = tree.kind(*f) {
                mark(tree, l.body, out);
            }
        }
        // The value of a progbody in tail position comes from its
        // `return` statements; those `return`ed expressions are in tail
        // position.
        NodeKind::Progbody(items) => {
            for item in items {
                if let ProgItem::Stmt(s) = item {
                    mark_returns(tree, *s, out);
                }
            }
        }
        // A catcher's body is NOT in tail position: the catch frame must
        // survive until the body finishes.
        _ => {}
    }
}

/// Marks the value expressions of `return` statements belonging to the
/// current progbody (not crossing into nested progbodies or lambdas).
fn mark_returns(tree: &Tree, node: NodeId, out: &mut HashSet<NodeId>) {
    match tree.kind(node) {
        NodeKind::Return(v) => {
            mark(tree, *v, out);
        }
        NodeKind::Lambda(_) | NodeKind::Progbody(_) => {}
        _ => {
            for c in tree.children(node) {
                mark_returns(tree, c, out);
            }
        }
    }
}

/// The nodes that potentially generate the value of `node` (§4.2): the
/// control-flow leaves of the expression.
pub fn value_producers(tree: &Tree, node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    producers(tree, node, &mut out);
    out
}

fn producers(tree: &Tree, node: NodeId, out: &mut Vec<NodeId>) {
    match tree.kind(node) {
        NodeKind::If { then, els, .. } => {
            producers(tree, *then, out);
            producers(tree, *els, out);
        }
        NodeKind::Progn(body) => {
            if let Some(&last) = body.last() {
                producers(tree, last, out);
            }
        }
        NodeKind::Caseq {
            clauses, default, ..
        } => {
            for c in clauses {
                producers(tree, c.body, out);
            }
            producers(tree, *default, out);
        }
        NodeKind::Call {
            func: CallFunc::Expr(f),
            ..
        } if matches!(tree.kind(*f), NodeKind::Lambda(_)) => {
            let NodeKind::Lambda(l) = tree.kind(*f) else {
                unreachable!()
            };
            producers(tree, l.body, out);
        }
        _ => out.push(node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn analyze(src: &str) -> (Tree, HashSet<NodeId>) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let t = tail_nodes_from(&f.tree, f.tree.root);
        (f.tree, t)
    }

    /// All self-call sites of the (single) defun in `tree`.
    fn self_calls(tree: &Tree, name: &str) -> Vec<NodeId> {
        s1lisp_ast::subtree_nodes(tree, tree.root)
            .into_iter()
            .filter(|&id| {
                matches!(tree.kind(id), NodeKind::Call { func: CallFunc::Global(g), .. }
                         if g.as_str() == name)
            })
            .collect()
    }

    #[test]
    fn exptl_self_calls_are_tail() {
        let (tree, tails) = analyze(
            "(defun exptl (x n a)
               (cond ((zerop n) a)
                     ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
                     (t (exptl (* x x) (floor (/ n 2)) a))))",
        );
        let calls = self_calls(&tree, "exptl");
        assert_eq!(calls.len(), 2);
        for c in calls {
            assert!(tails.contains(&c), "self-call not in tail position");
        }
    }

    #[test]
    fn argument_positions_are_not_tail() {
        let (tree, tails) = analyze("(defun fact (n) (if (zerop n) 1 (* n (fact (- n 1)))))");
        let calls = self_calls(&tree, "fact");
        assert_eq!(calls.len(), 1);
        assert!(
            !tails.contains(&calls[0]),
            "argument of * is not a tail call"
        );
    }

    #[test]
    fn let_body_is_tail() {
        let (tree, tails) = analyze("(defun f (x) (let ((y (g x))) (h y)))");
        let h_calls = self_calls(&tree, "h");
        let g_calls = self_calls(&tree, "g");
        assert!(tails.contains(&h_calls[0]));
        assert!(!tails.contains(&g_calls[0]));
    }

    #[test]
    fn returned_expressions_are_tail() {
        let (tree, tails) = analyze(
            "(defun f (n) (prog () top (if (zerop n) (return (g n))) (setq n (- n 1)) (go top)))",
        );
        let g_calls = self_calls(&tree, "g");
        assert!(tails.contains(&g_calls[0]));
    }

    #[test]
    fn catch_body_is_not_tail() {
        let (tree, tails) = analyze("(defun f (x) (catch 'done (g x)))");
        let g_calls = self_calls(&tree, "g");
        assert!(!tails.contains(&g_calls[0]));
    }

    #[test]
    fn producers_of_if_are_its_arms() {
        let mut i = Interner::new();
        let form = read_str("(defun f (p q r) (if p (sqrt q) (car r)))", &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let NodeKind::Lambda(l) = f.tree.kind(f.tree.root) else {
            panic!()
        };
        let prods = value_producers(&f.tree, l.body);
        assert_eq!(prods.len(), 2);
        for p in prods {
            assert!(matches!(f.tree.kind(p), NodeKind::Call { .. }));
        }
    }
}

#[cfg(test)]
mod producer_tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn tree_of(src: &str) -> Tree {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        fe.convert_defun(&form).unwrap().tree
    }

    fn body(tree: &Tree) -> NodeId {
        let NodeKind::Lambda(l) = tree.kind(tree.root) else {
            panic!()
        };
        l.body
    }

    #[test]
    fn producers_look_through_progn_and_lets() {
        let tree = tree_of("(defun f (x) (progn (g x) (let ((y (h x))) (+ y 1))))");
        let prods = value_producers(&tree, body(&tree));
        assert_eq!(prods.len(), 1);
        assert!(matches!(tree.kind(prods[0]), NodeKind::Call { .. }));
    }

    #[test]
    fn producers_fan_out_over_caseq() {
        let tree = tree_of("(defun f (k a b) (caseq k ((1) a) ((2) (g b)) (t '())))");
        let prods = value_producers(&tree, body(&tree));
        assert_eq!(prods.len(), 3, "two clauses plus the default");
    }

    #[test]
    fn producer_of_a_leaf_is_itself() {
        let tree = tree_of("(defun f (x) x)");
        let prods = value_producers(&tree, body(&tree));
        assert_eq!(prods, vec![body(&tree)]);
    }
}
