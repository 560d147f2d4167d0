//! Complexity (object-code size) analysis.
//!
//! "Make a preliminary estimate of the size of the object code for each
//! subtree (this is primarily to aid the optimizer in deciding whether to
//! substitute copies of the initializing expression for several
//! occurrences of a variable)." (§4.2.)
//!
//! The unit is an abstract "instruction"; the estimates only need to be
//! *ordered* sensibly, not exact.

use s1lisp_ast::{CallFunc, NodeId, NodeKind, Tree};

/// Estimated object-code size of a subtree, in abstract instructions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Complexity(pub u32);

impl Complexity {
    /// A subtree at least this cheap may be freely duplicated by the
    /// substitution heuristics (a constant or variable reference).
    pub const TRIVIAL: Complexity = Complexity(1);
}

/// Computes size estimates for every subtree reachable from
/// [`Tree::root`]: a dense table indexed by [`NodeId::index`], `None`
/// for the nodes the root does not reach.
pub fn complexity(tree: &Tree) -> Vec<Option<Complexity>> {
    let mut table = vec![None; tree.node_count()];
    walk(tree, tree.root, &mut table);
    table
}

fn walk(tree: &Tree, node: NodeId, table: &mut [Option<Complexity>]) {
    for c in tree.children(node) {
        walk(tree, c, table);
    }
    let size = node_complexity(tree, node, |c| table[c.index()].unwrap_or_default());
    table[node.index()] = Some(size);
}

/// The estimate for `node` from its children's (`child` looks one up):
/// its own instructions plus theirs — the step [`complexity`] repeats
/// bottom-up, and the one an incremental client re-runs on a node whose
/// children changed.
pub fn node_complexity(
    tree: &Tree,
    node: NodeId,
    child: impl Fn(NodeId) -> Complexity,
) -> Complexity {
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
    Complexity(
        tree.children(node)
            .into_iter()
            .fold(own, |total, c| total + child(c).0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn measure(src: &str) -> (Tree, Vec<Option<Complexity>>) {
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
        assert_eq!(c[l.body.index()], Some(Complexity::TRIVIAL));
    }

    #[test]
    fn bigger_trees_cost_more() {
        let (t1, c1) = measure("(defun f (x) (+ x 1))");
        let (t2, c2) = measure("(defun f (x) (+ (* x x) (sqrt (+ x 1))))");
        assert!(c2[t2.root.index()] > c1[t1.root.index()]);
    }

    #[test]
    fn user_calls_cost_more_than_primitives() {
        let (t1, c1) = measure("(defun f (x) (+ x x))");
        let (t2, c2) = measure("(defun f (x) (frotz x x))");
        assert!(c2[t2.root.index()] > c1[t1.root.index()]);
    }

    #[test]
    fn every_node_has_an_estimate() {
        let (tree, c) = measure("(defun f (a b) (if a (list a b) (cons b a)))");
        for id in s1lisp_ast::subtree_nodes(&tree, tree.root) {
            assert!(c[id.index()].is_some());
        }
    }
}
