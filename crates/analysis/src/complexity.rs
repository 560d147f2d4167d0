//! Complexity (object-code size) analysis.
//!
//! "Make a preliminary estimate of the size of the object code for each
//! subtree (this is primarily to aid the optimizer in deciding whether to
//! substitute copies of the initializing expression for several
//! occurrences of a variable)." (§4.2.)
//!
//! The unit is an abstract "instruction"; the estimates only need to be
//! *ordered* sensibly, not exact.

use std::collections::HashMap;

use s1lisp_ast::{CallFunc, NodeId, NodeKind, Tree};

/// Estimated object-code size of a subtree, in abstract instructions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Complexity(pub u32);

impl Complexity {
    /// A subtree at least this cheap may be freely duplicated by the
    /// substitution heuristics (a constant or variable reference).
    pub const TRIVIAL: Complexity = Complexity(1);
}

/// Computes size estimates for every subtree.
pub fn complexity(tree: &Tree) -> HashMap<NodeId, Complexity> {
    let mut map = HashMap::new();
    walk(tree, tree.root, &mut map);
    map
}

fn walk(tree: &Tree, node: NodeId, map: &mut HashMap<NodeId, Complexity>) -> u32 {
    let own = match tree.kind(node) {
        NodeKind::Constant(_) | NodeKind::VarRef(_) => 1,
        NodeKind::Setq { .. } => 1,
        NodeKind::If { .. } => 2, // test jump + join
        NodeKind::Progn(_) => 0,
        NodeKind::Call { func, .. } => match func {
            // Primitive: roughly one instruction; user call: frame setup,
            // argument pushes, call, result fetch.
            CallFunc::Global(g) => {
                if s1lisp_ast::primop(g.as_str()).is_some() {
                    1
                } else {
                    4
                }
            }
            CallFunc::Expr(f) => {
                if matches!(tree.kind(*f), NodeKind::Lambda(_)) {
                    0 // a let binds in place
                } else {
                    5 // computed function call
                }
            }
        },
        NodeKind::Lambda(_) => 3, // closure construction
        NodeKind::Caseq { clauses, .. } => 2 + clauses.len() as u32,
        NodeKind::Catcher { .. } => 4,
        NodeKind::Progbody(_) => 1,
        NodeKind::Go(_) => 1,
        NodeKind::Return(_) => 1,
    };
    let mut total = own;
    for c in tree.children(node) {
        total += walk(tree, c, map);
    }
    map.insert(node, Complexity(total));
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn measure(src: &str) -> (Tree, HashMap<NodeId, Complexity>) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let c = complexity(&f.tree);
        (f.tree, c)
    }

    #[test]
    fn leaves_are_trivial() {
        let (tree, c) = measure("(defun f (x) x)");
        let NodeKind::Lambda(l) = tree.kind(tree.root) else {
            panic!()
        };
        assert_eq!(c[&l.body], Complexity::TRIVIAL);
    }

    #[test]
    fn bigger_trees_cost_more() {
        let (t1, c1) = measure("(defun f (x) (+ x 1))");
        let (t2, c2) = measure("(defun f (x) (+ (* x x) (sqrt (+ x 1))))");
        assert!(c2[&t2.root] > c1[&t1.root]);
    }

    #[test]
    fn user_calls_cost_more_than_primitives() {
        let (t1, c1) = measure("(defun f (x) (+ x x))");
        let (t2, c2) = measure("(defun f (x) (frotz x x))");
        assert!(c2[&t2.root] > c1[&t1.root]);
    }

    #[test]
    fn every_node_has_an_estimate() {
        let (tree, c) = measure("(defun f (a b) (if a (list a b) (cons b a)))");
        for id in s1lisp_ast::subtree_nodes(&tree, tree.root) {
            assert!(c.contains_key(&id));
        }
    }
}
