//! Common sub-expression elimination (§4.3).
//!
//! In 1982 this phase was designed but "not yet implemented, because
//! preliminary experiments indicate\[d\] that its contribution to program
//! speed will be smaller than the other techniques"; we implement it as
//! the optional extension the paper describes: "its use is completely
//! optional … and can be expressed as a source-level transformation using
//! lambda-expressions."
//!
//! The paper also explains why CSE is a *separate phase* from the
//! source-level optimizer: the optimizer performs common sub-expression
//! *introduction* (substituting initializing expressions for variables),
//! and separating the two "avoids the possibility of an endless cycle of
//! introductions and eliminations".  The same thrashing guard appears
//! here as a size threshold: the optimizer only duplicates expressions of
//! complexity ≤ 2, and this phase only commons expressions of complexity
//! ≥ 3, so neither can undo the other.

use std::collections::HashMap;

use s1lisp_analysis::{complexity, effects, Complexity};
use s1lisp_ast::{subtree_nodes, unparse, CallFunc, NodeId, NodeKind, Tree};
use s1lisp_reader::Interner;

/// Minimum complexity for an expression to be worth commoning (the
/// anti-thrashing threshold; see module docs).
pub const MIN_SIZE: Complexity = Complexity(3);

/// Eliminates common sub-expressions in `tree`, rewriting duplicated pure
/// computations into a `let` at their least common ancestor.  Returns the
/// number of eliminations performed.
///
/// # Examples
///
/// ```
/// use s1lisp_frontend::Frontend;
/// use s1lisp_reader::{read_str, Interner};
/// use s1lisp_ast::unparse;
///
/// let mut i = Interner::new();
/// let src = read_str(
///     "(defun f (a b) (list (+ (* a b) 1) (+ (* a b) 2)))", &mut i).unwrap();
/// let mut fe = Frontend::new(&mut i);
/// let mut func = fe.convert_defun(&src).unwrap();
/// let n = s1lisp_opt::cse::eliminate(&mut func.tree);
/// assert_eq!(n, 1);
/// let out = unparse(&func.tree, func.tree.root).to_string();
/// // (* a b) computed once, bound to a compiler temporary.
/// assert_eq!(out.matches("(* a b)").count(), 1, "{out}");
/// ```
pub fn eliminate(tree: &mut Tree) -> usize {
    let mut names = Interner::new();
    let mut counter = 0u32;
    let mut total = 0;
    // Iterate to a fixpoint: each pass commons one expression class.
    for _ in 0..64 {
        tree.rebuild_backlinks();
        if !eliminate_one(tree, &mut names, &mut counter) {
            break;
        }
        total += 1;
    }
    tree.rebuild_backlinks();
    total
}

fn eliminate_one(tree: &mut Tree, names: &mut Interner, counter: &mut u32) -> bool {
    let eff = effects(tree);
    let sizes = complexity(tree);
    // Group candidate nodes by their printed form (structural identity
    // after alpha-renaming).
    let mut groups: HashMap<String, Vec<NodeId>> = HashMap::new();
    for node in subtree_nodes(tree, tree.root) {
        let e = eff[node.index()].unwrap_or_default();
        if !e.duplicable() || e.reads_heap {
            continue;
        }
        if sizes[node.index()].unwrap_or_default() < MIN_SIZE {
            continue;
        }
        // Expressions reading assigned variables are not location-
        // independent.
        let stable = subtree_nodes(tree, node)
            .iter()
            .all(|&n| match tree.kind(n) {
                NodeKind::VarRef(w) => {
                    let wv = tree.var(*w);
                    !wv.special && wv.setqs.is_empty()
                }
                NodeKind::Lambda(_) | NodeKind::Progbody(_) => false,
                _ => true,
            });
        if !stable {
            continue;
        }
        groups.entry(unparse(tree, node)).or_default().push(node);
    }
    let mut candidates: Vec<(String, Vec<NodeId>)> = groups
        .into_iter()
        .filter(|(_, nodes)| nodes.len() >= 2)
        .collect();
    // Deterministic order; biggest first so outer expressions common
    // before their own subparts.
    candidates.sort_by_key(|(k, _)| std::cmp::Reverse((k.len(), k.clone())));

    'group: for (_, nodes) in candidates {
        // Skip groups where one occurrence contains another.
        for &a in &nodes {
            for &b in &nodes {
                if a != b && subtree_nodes(tree, a).contains(&b) {
                    continue 'group;
                }
            }
        }
        let lca = lca_many(tree, &nodes);
        // All occurrences must be movable to the LCA without crossing a
        // lambda or loop boundary.
        let ok = nodes.iter().all(|&n| path_clear(tree, lca, n)) && path_to_root_clear(tree, lca);
        if !ok {
            continue;
        }
        // Rewrite: bind the expression at the LCA.
        *counter += 1;
        let tmp = names.intern(&format!("cse%%{counter}"));
        let var = tree.add_var(tmp);
        let init = tree.copy_subtree(nodes[0]);
        for &n in &nodes {
            tree.replace(n, NodeKind::VarRef(var));
        }
        let hole = tree.add(tree.kind(lca).clone());
        let lambda = tree.lambda(vec![var], hole);
        tree.replace(
            lca,
            NodeKind::Call {
                func: CallFunc::Expr(lambda),
                args: vec![init],
            },
        );
        return true;
    }
    false
}

/// No lambda/progbody boundary between `anc` (exclusive) and `node`.
fn path_clear(tree: &Tree, anc: NodeId, node: NodeId) -> bool {
    let mut cur = node;
    while cur != anc {
        match tree.node(cur).parent {
            Some(p) => {
                if matches!(tree.kind(p), NodeKind::Lambda(_) | NodeKind::Progbody(_)) && p != anc {
                    // Crossing a lambda is fine only when it is the let
                    // being formed — but we are inspecting the original
                    // tree, so any lambda/loop crossing disqualifies.
                    return false;
                }
                cur = p;
            }
            None => return false,
        }
    }
    true
}

/// The LCA itself must be inside the root lambda's body (not a default
/// expression of an optional parameter, where bindings are mid-flight).
fn path_to_root_clear(tree: &Tree, lca: NodeId) -> bool {
    let mut cur = lca;
    while let Some(p) = tree.node(cur).parent {
        if let NodeKind::Lambda(l) = tree.kind(p) {
            if l.optional.iter().any(|o| o.default == cur) {
                return false;
            }
        }
        cur = p;
    }
    cur == tree.root
}

/// Path from `node` to the root.
fn ancestry(tree: &Tree, node: NodeId) -> Vec<NodeId> {
    let mut path = vec![node];
    let mut cur = node;
    while let Some(p) = tree.node(cur).parent {
        path.push(p);
        cur = p;
    }
    path
}

fn lca_many(tree: &Tree, nodes: &[NodeId]) -> NodeId {
    let mut acc = ancestry(tree, nodes[0]);
    for &n in &nodes[1..] {
        let path: std::collections::HashSet<NodeId> = ancestry(tree, n).into_iter().collect();
        acc.retain(|a| path.contains(a));
    }
    acc.first().copied().unwrap_or(tree.root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::read_str;

    fn run(src: &str) -> (String, usize) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let mut f = fe.convert_defun(&form).unwrap();
        let n = eliminate(&mut f.tree);
        (unparse(&f.tree, f.tree.root).to_string(), n)
    }

    #[test]
    fn duplicate_computation_is_commoned() {
        let (out, n) = run("(defun f (a b) (list (+ (* a b) 1) (+ (* a b) 2)))");
        assert_eq!(n, 1);
        assert_eq!(out.matches("(* a b)").count(), 1, "{out}");
        assert!(out.contains("cse%%"), "{out}");
    }

    #[test]
    fn small_expressions_are_left_alone() {
        // (* a b) alone has complexity 3 but (car x)-sized or variable
        // references must not be commoned.
        let (out, n) = run("(defun f (a) (list (1+ a) (1+ a)))");
        assert_eq!(n, 0, "{out}");
    }

    #[test]
    fn effectful_expressions_are_not_commoned() {
        let (out, n) = run("(defun f (a) (list (frotz a a a) (frotz a a a)))");
        assert_eq!(n, 0, "{out}");
    }

    #[test]
    fn loop_invariant_expressions_hoist_above_the_loop() {
        // Both occurrences are inside the progbody; their LCA *is* the
        // progbody, so the binding wraps the loop — loop-invariant code
        // motion for free.
        let (out, n) = run("(defun f (a b)
               (prog (acc)
                 top
                 (setq acc (+ (* a b a) acc))
                 (if (null acc) (return (* a b a)))
                 (go top)))");
        assert_eq!(n, 1, "{out}");
        assert_eq!(out.matches("(* a b a)").count(), 1, "{out}");
        assert!(out.contains("(lambda (cse%%1) (progbody"), "{out}");
    }

    #[test]
    fn expressions_over_assigned_variables_are_skipped() {
        let (out, n) = run("(defun f (a b) (progn (setq a 1) (list (+ (* a b) 1) (+ (* a b) 2))))");
        assert_eq!(n, 0, "{out}");
    }

    #[test]
    fn nested_duplicates_common_outermost_first() {
        let (out, n) = run("(defun f (a b) (list (+ (* a b) (* b b)) (+ (* a b) (* b b))))");
        assert!(n >= 1);
        assert_eq!(out.matches("(+ (* a b) (* b b))").count(), 1, "{out}");
    }
}
