//! The fixpoint driver's incremental state.
//!
//! §4.2 keeps per-node flags so as to allow "re-analysis to be
//! performed incrementally".  [`Incremental`] analyses the tree once,
//! then keeps three things current across rewrites, each touching only
//! what a rewrite changed:
//!
//! * the side-effect and complexity tables, indexed by `NodeId` (`None`
//!   for nodes the root does not reach).  Both are synthesized, so a
//!   rewrite changes the values only of the nodes it rewrote or made
//!   and of their ancestors;
//! * the tree's backlinks: parent links below rewritten and new nodes,
//!   and the `refs`/`setqs` lists of the variables whose occurrences a
//!   rewrite added or cut loose;
//! * two scan marks per node — no canonicalizing rule applies here, no
//!   beta rule applies here — and, per subtree, whether any node in it
//!   still lacks each mark.  The scan descends only into subtrees that
//!   do, and resumes its preorder walk past everything marked.
//!
//! Whether a rule applies at a node depends only on the node's subtree
//! and on the `refs`/`setqs` of variables bound or referenced in it.
//! So a rewrite clears the marks of the rewritten and new nodes and of
//! all their ancestors — and, for every lexical variable whose `setqs`
//! changed, of the ancestors of each of its references.  Those reach
//! beyond the rewrite's own ancestor chain: deleting a variable's only
//! `setq` makes a `let` elsewhere that binds a copy of it substitutable
//! (`is_trivial`, `movable_effects`), and an `if` elsewhere that tests
//! it decidable (`if_known_test`).  The other readers of a variable's
//! lists are the rules at the `let` that binds it, which read its
//! `refs` and `setqs` both; every occurrence a rewrite adds or cuts
//! loose lies inside that `let`, so it is on the rewrite's own ancestor
//! chain already.

use s1lisp_analysis::{
    complexity, effects, is_called_lambda, node_complexity, node_effects, Complexity, Effects,
};
use s1lisp_ast::{NodeId, NodeKind, Tree, VarId};

use crate::Optimizer;

/// No canonicalizing rule applies at this node.
const CANON_DONE: u8 = 1;
/// No beta-conversion rule applies at this node.
const BETA_DONE: u8 = 2;
/// Some node in this subtree may still have a canonicalizing rule apply.
const CANON_PENDING: u8 = 4;
/// Some node in this subtree may still have a beta rule apply.
const BETA_PENDING: u8 = 8;
/// Rewritten in place by the last rule, and not yet re-analysed.
const REWRITTEN: u8 = 16;
/// The marks of a node nothing is known about.
const UNSCANNED: u8 = CANON_PENDING | BETA_PENDING;

/// Analyses, backlinks and scan marks, kept current across rewrites.
pub(crate) struct Incremental {
    effects: Vec<Option<Effects>>,
    complexity: Vec<Option<Complexity>>,
    marks: Vec<u8>,
    /// Per node, the last update that reached it.
    seen: Vec<u32>,
    /// Updates applied so far.
    update: u32,
}

impl Incremental {
    /// The one full analysis: rebuilds the backlinks and both tables,
    /// with every node still to scan.
    pub(crate) fn new(tree: &mut Tree) -> Incremental {
        tree.rebuild_backlinks();
        Incremental {
            effects: effects(tree),
            complexity: complexity(tree),
            marks: vec![UNSCANNED; tree.node_count()],
            seen: vec![0; tree.node_count()],
            update: 0,
        }
    }

    /// Applies the rule at the first node in preorder where a
    /// canonicalizing rule applies, or else at the first where a beta
    /// rule does, and brings the state up to date.  False at the
    /// fixpoint.  Canonicalizing runs to quiescence before any beta
    /// conversion, matching the paper's transcript order (assoc/commut
    /// reduction and sin→sinc appear before the substitutions in §7).
    pub(crate) fn step(&mut self, o: &mut Optimizer, tree: &mut Tree) -> bool {
        let root = tree.root;
        if !self.scan(o, tree, root, false) && !self.scan(o, tree, root, true) {
            return false;
        }
        let rewritten = std::mem::take(&mut o.rewritten);
        self.update(tree, &rewritten);
        true
    }

    /// Preorder over the subtrees still pending for one rule family;
    /// true as soon as a rule fires.
    fn scan(&mut self, o: &mut Optimizer, tree: &mut Tree, node: NodeId, beta: bool) -> bool {
        let (done, pending) = if beta {
            (BETA_DONE, BETA_PENDING)
        } else {
            (CANON_DONE, CANON_PENDING)
        };
        let i = node.index();
        if self.marks[i] & pending == 0 {
            return false;
        }
        if self.marks[i] & done == 0 {
            o.nodes_visited += 1;
            let fired = if beta {
                o.beta_at(tree, node, &self.effects, &self.complexity)
            } else {
                o.canonical_at(tree, node)
            };
            if fired {
                return true;
            }
            self.marks[i] |= done;
        }
        for c in tree.children(node) {
            if self.scan(o, tree, c, beta) {
                return true;
            }
        }
        self.marks[i] &= !pending;
        false
    }

    /// Brings the state up to date after one rule rewrote the nodes in
    /// `rewritten` in place (each with the construct it held) and made
    /// any nodes past the end of the tables.
    fn update(&mut self, tree: &mut Tree, rewritten: &[(NodeId, NodeKind)]) {
        let old_len = self.marks.len();
        let n = tree.node_count();
        self.effects.resize(n, None);
        self.complexity.resize(n, None);
        self.marks.resize(n, UNSCANNED);
        self.seen.resize(n, 0);
        self.update += 1;
        let mut assigned = Vec::new();
        // What a rewritten node held leaves its variable's list (the
        // first record of a node is what was listed).
        for (id, old) in rewritten {
            if self.marks[id.index()] & REWRITTEN == 0 {
                self.marks[id.index()] |= REWRITTEN;
                unlist(tree, *id, old, &mut assigned);
            }
        }
        // Re-analyse below each rewritten node.
        for &(id, _) in rewritten {
            let parent = tree.node(id).parent;
            self.refresh(tree, id, parent, old_len, &mut assigned);
        }
        // The nodes a rewrite cut loose leave the tables and lists.
        for (_, old) in rewritten {
            for c in old.children() {
                self.detach(tree, c, &mut assigned);
            }
        }
        // Re-analyse and re-scan above each rewritten node.
        for &(id, _) in rewritten {
            let mut up = tree.node(id).parent;
            while let Some(a) = up {
                self.reanalyse(tree, a);
                self.marks[a.index()] = UNSCANNED;
                up = tree.node(a).parent;
            }
        }
        // Re-scan above every reference to a lexical variable whose
        // assignments changed.  The rules never read a special's lists.
        assigned.sort_unstable();
        assigned.dedup();
        for v in assigned {
            let var = tree.var(v);
            if var.special {
                continue;
            }
            for &site in &var.refs {
                let mut up = Some(site);
                while let Some(a) = up {
                    self.marks[a.index()] = UNSCANNED;
                    up = tree.node(a).parent;
                }
            }
        }
    }

    /// Re-analyses `node` under `parent`; when it is new or rewritten,
    /// first lists its variable occurrence and re-analyses its children
    /// the same way.
    fn refresh(
        &mut self,
        tree: &mut Tree,
        node: NodeId,
        parent: Option<NodeId>,
        old_len: usize,
        assigned: &mut Vec<VarId>,
    ) {
        let i = node.index();
        tree.node_mut(node).parent = parent;
        if self.seen[i] != self.update {
            self.seen[i] = self.update;
            if i >= old_len || self.marks[i] & REWRITTEN != 0 {
                self.marks[i] = UNSCANNED;
                match tree.kind(node) {
                    NodeKind::VarRef(v) => {
                        let v = *v;
                        tree.var_mut(v).refs.push(node);
                    }
                    NodeKind::Setq { var, .. } => {
                        let v = *var;
                        tree.var_mut(v).setqs.push(node);
                        assigned.push(v);
                    }
                    _ => {}
                }
                for c in tree.children(node) {
                    self.refresh(tree, c, Some(node), old_len, assigned);
                }
            }
        }
        self.reanalyse(tree, node);
    }

    /// Drops `node`'s subtree from the tables and the variables' lists,
    /// unless this update re-attached it.
    fn detach(&mut self, tree: &mut Tree, node: NodeId, assigned: &mut Vec<VarId>) {
        let i = node.index();
        if self.seen[i] == self.update {
            return;
        }
        self.seen[i] = self.update;
        self.effects[i] = None;
        self.complexity[i] = None;
        let kind = tree.kind(node).clone();
        unlist(tree, node, &kind, assigned);
        for c in kind.children() {
            self.detach(tree, c, assigned);
        }
    }

    /// Recomputes `node`'s table entries from its children's.
    fn reanalyse(&mut self, tree: &Tree, node: NodeId) {
        let called = tree
            .node(node)
            .parent
            .is_some_and(|p| is_called_lambda(tree, p, node));
        let e = node_effects(tree, node, called, |c| {
            self.effects[c.index()].unwrap_or_default()
        });
        let size = node_complexity(tree, node, |c| {
            self.complexity[c.index()].unwrap_or_default()
        });
        self.effects[node.index()] = Some(e);
        self.complexity[node.index()] = Some(size);
    }
}

/// Removes `node`, holding `kind`, from its variable's `refs` or
/// `setqs`, noting an assigned variable in `assigned`.
fn unlist(tree: &mut Tree, node: NodeId, kind: &NodeKind, assigned: &mut Vec<VarId>) {
    match *kind {
        NodeKind::VarRef(v) => tree.var_mut(v).refs.retain(|&r| r != node),
        NodeKind::Setq { var, .. } => {
            tree.var_mut(var).setqs.retain(|&s| s != node);
            assigned.push(var);
        }
        _ => {}
    }
}
