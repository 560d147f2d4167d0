//! Source-program analysis phases (§4.2 of the paper).
//!
//! "The next two phases (source-program analysis and source-level
//! optimization) are actually executed in a complicated co-routining
//! manner for efficiency."  In this reproduction the analyses are pure
//! functions from a tree to per-node facts, and no pass of their own
//! runs them: each runs inside the pass that reads its result.  Side
//! effects and complexity are synthesized bottom-up into dense tables
//! indexed by `NodeId`, and each exposes its one-node step
//! ([`node_effects`], [`node_complexity`]) so that the optimizer
//! (`s1lisp-opt`) can run them once and then keep them current
//! incrementally ("re-analysis to be performed incrementally") by
//! re-running the step on just the nodes a rewrite touched and their
//! ancestors.
//!
//! The phases, in Table 1's order:
//!
//! * **Environment analysis** ([`mod@env`]): each lambda's free
//!   variables, for binding annotation.  The per-variable referent
//!   lists are the tree's `refs`/`setqs` backlinks, and the optimizer
//!   answers its questions about what a subtree reads or writes from
//!   them and from side-effects analysis, so no per-subtree read/write
//!   sets are built.
//! * **Side-effects analysis** ([`mod@effects`]): classify each subtree's
//!   possible side effects and what side effects might adversely affect
//!   its execution.
//! * **Complexity analysis** ([`mod@complexity`]): a preliminary object-code
//!   size estimate per subtree, used by the optimizer's substitution
//!   heuristics.
//! * **Tail-recursion analysis** ([`mod@tails`]): which call sites are in
//!   tail position (compilable as parameter-passing gotos), asked by
//!   code generation for each lambda.
//! * **Special-variable lookups** ([`mod@specials`]): where to perform the
//!   one deep-binding search per special variable so that later accesses
//!   go through a cached pointer in constant time.  Code generation
//!   still searches for every special once at function entry; it does
//!   not yet read this finer placement.
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

pub use complexity::{complexity, node_complexity, Complexity};
pub use effects::{effects, is_called_lambda, node_effects, Effects};
pub use env::{environment, EnvInfo};
pub use specials::{special_placements, SpecialPlacement};
pub use tails::{tail_nodes_from, value_producers};
