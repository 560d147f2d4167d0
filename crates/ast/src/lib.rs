//! The internal expression tree of the `s1lisp` compiler.
//!
//! §4.1 of the paper: "The source program is converted to an internal tree
//! format whose structure reflects the expression structure of the
//! program. … Each node of the tree has extra data slots; these are filled
//! in by successive phases of the compiler.  Occasionally the tree is
//! transformed."
//!
//! Each node corresponds to one of the small set of basic constructs of
//! Table 2 (`quote`, `variable`, `caseq`, `catcher`, `go`, `if`, `lambda`,
//! `progbody`, `progn`, `return`, `setq`, `call`), so the tree can always
//! be back-translated into valid source code ([`unparse`]).
//!
//! There is no central symbol table: "with every distinct variable … is
//! associated a little data structure; the construct that binds the
//! variable and all references to the variable all point to the data
//! structure, which has back-pointers to the binding and all the
//! references" — that little structure is [`Var`], and the back-pointers
//! are maintained by [`Tree::rebuild_backlinks`].
//!
//! The crate also owns the table of known primitive operations
//! ([`Prim`], [`primop`]): the one list of names, arities and
//! optimizer-visible facts that every later layer reads — and, in
//! [`num`], the one definition of its numeric rows, which every engine
//! and the constant folder call.

#![warn(missing_docs)]

mod hash;
pub mod num;
mod prim;
mod tree;
mod unparse;
mod validate;
mod visit;

pub use hash::{fingerprint, fnv1a_str, Fnv1a64};
pub use prim::{primop, Identity, Inline, NumKind, NumOp, Prim, Primop};
pub use tree::{
    CallFunc, CaseqClause, DeclaredType, Lambda, Node, NodeId, NodeKind, OptParam, ProgItem, Tree,
    Var, VarId,
};
pub use unparse::{clip_form, unparse, unparse_declared, unparse_pretty};
pub use validate::{well_formed, WellFormedError};
pub use visit::{postorder, subtree_nodes};
