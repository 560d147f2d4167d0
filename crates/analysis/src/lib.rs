//! Source-program analysis phases (§4.2 of the paper).
//!
//! "The next two phases (source-program analysis and source-level
//! optimization) are actually executed in a complicated co-routining
//! manner for efficiency."  In this reproduction the analyses are pure
//! functions from a tree to maps of per-node facts; the optimizer
//! (`s1lisp-opt`) re-runs them after transforming, using the per-node
//! dirty flags to decide when a rewrite round is finished.
//!
//! The phases, in Table 1's order:
//!
//! * **Environment analysis** ([`mod@env`]): for each subtree, the sets of
//!   variables read and written within it; for each variable, all
//!   referent nodes (the back-pointers live in the tree itself).
//! * **Side-effects analysis** ([`mod@effects`]): classify each subtree's
//!   possible side effects and what side effects might adversely affect
//!   its execution.
//! * **Complexity analysis** ([`mod@complexity`]): a preliminary object-code
//!   size estimate per subtree, used by the optimizer's substitution
//!   heuristics.
//! * **Tail-recursion analysis** ([`mod@tails`]): which call sites are in
//!   tail position (compilable as parameter-passing gotos).
//! * **Special-variable lookups** ([`mod@specials`]): where to perform the
//!   one deep-binding search per special variable so that later accesses
//!   go through a cached pointer in constant time.
//!
//! The facts about "known primitive operations" these phases consult
//! (purity, allocation, pdl-safety) come from the primitive table in
//! `s1lisp-ast`.

#![warn(missing_docs)]

pub mod complexity;
pub mod effects;
pub mod env;
pub mod specials;
pub mod tails;

pub use complexity::{complexity, Complexity};
pub use effects::{effects, Effects};
pub use env::{environment, EnvInfo};
pub use specials::{special_placements, SpecialPlacement};
pub use tails::{tail_nodes, tail_nodes_from, value_producers};

use s1lisp_ast::Tree;

/// A bundle of all per-function analyses.
///
/// # Examples
///
/// ```
/// use s1lisp_frontend::Frontend;
/// use s1lisp_reader::{read_str, Interner};
/// use s1lisp_analysis::Analysis;
///
/// let mut i = Interner::new();
/// let src = read_str("(defun f (x) (if (zerop x) 1 (f (- x 1))))", &mut i).unwrap();
/// let mut fe = Frontend::new(&mut i);
/// let func = fe.convert_defun(&src).unwrap();
/// let a = Analysis::run(&func.tree);
/// // The self-call is in tail position.
/// assert!(!a.tails.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-node environment facts.
    pub env: EnvInfo,
    /// Per-node side-effect classification.
    pub effects: std::collections::HashMap<s1lisp_ast::NodeId, Effects>,
    /// Per-node size estimates.
    pub complexity: std::collections::HashMap<s1lisp_ast::NodeId, Complexity>,
    /// Nodes in tail position with respect to the root lambda.
    pub tails: std::collections::HashSet<s1lisp_ast::NodeId>,
    /// Cached-lookup placements for special variables.
    pub specials: Vec<SpecialPlacement>,
}

impl Analysis {
    /// Runs every analysis phase on `tree` (whose backlinks must be
    /// current — call [`Tree::rebuild_backlinks`] first after edits).
    pub fn run(tree: &Tree) -> Analysis {
        Analysis {
            env: environment(tree),
            effects: effects(tree),
            complexity: complexity(tree),
            tails: tail_nodes(tree),
            specials: special_placements(tree),
        }
    }
}
