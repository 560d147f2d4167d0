//! Environment analysis.
//!
//! "For each subtree, determine the sets of variables read and written
//! within that subtree.  For each variable binding, attach a list of all
//! referent nodes." (§4.2.)  The referent lists are the tree's own
//! backlinks (`refs`/`setqs` on each variable), and the optimizer
//! answers its read/write questions from them and from side-effects
//! analysis.  What remains to compute here is each lambda's free
//! variables, which binding annotation reads to decide which variables
//! escape into closures.

use std::collections::{HashMap, HashSet};

use s1lisp_ast::{NodeId, NodeKind, Tree, VarId};

/// Environment facts for a whole tree.
#[derive(Debug, Clone, Default)]
pub struct EnvInfo {
    /// For each lambda node: variables referenced inside it but bound
    /// outside it (its free variables).
    pub free_vars: HashMap<NodeId, HashSet<VarId>>,
}

impl EnvInfo {
    /// Free variables of a lambda node (empty when it closes over
    /// nothing, i.e. no closure environment is needed).
    pub fn free_of(&self, lambda: NodeId) -> &HashSet<VarId> {
        static EMPTY: std::sync::OnceLock<HashSet<VarId>> = std::sync::OnceLock::new();
        self.free_vars
            .get(&lambda)
            .unwrap_or_else(|| EMPTY.get_or_init(HashSet::new))
    }
}

/// Runs environment analysis over the subtree rooted at [`Tree::root`].
pub fn environment(tree: &Tree) -> EnvInfo {
    let mut info = EnvInfo::default();
    walk(tree, tree.root, &mut info);
    info
}

/// Post-order accumulation of free sets: returns the *free* lexical
/// variables of the subtree, referenced or assigned within it but bound
/// by no lambda inside it, and records the set of each lambda.
fn walk(tree: &Tree, node: NodeId, info: &mut EnvInfo) -> HashSet<VarId> {
    let mut free = HashSet::new();
    match tree.kind(node) {
        // Special variables are dynamically looked up, never captured.
        NodeKind::VarRef(v) | NodeKind::Setq { var: v, .. } if !tree.var(*v).special => {
            free.insert(*v);
        }
        _ => {}
    }
    for child in tree.children(node) {
        free.extend(walk(tree, child, info));
    }
    if let NodeKind::Lambda(l) = tree.kind(node) {
        for p in l.all_params() {
            free.remove(&p);
        }
        info.free_vars.insert(node, free.clone());
    }
    free
}
