//! Source-program analysis phases (§4.2 of the paper).
//!
//! "The next two phases (source-program analysis and source-level
//! optimization) are actually executed in a complicated co-routining
//! manner for efficiency."  In this reproduction the analyses are pure
//! functions from a tree to maps of per-node facts.  The optimizer
//! (`s1lisp-opt`) re-runs the side-effects and complexity analyses in
//! full before every rewrite; the paper's per-node flags for
//! incremental re-analysis are not reproduced.
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
