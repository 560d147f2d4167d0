//! Preliminary conversion: source programs → internal tree.
//!
//! §4.1 of the paper ("Preliminary"): syntax checking, resolving of
//! variable references, expansion of macro calls, very simple program
//! transformations, conversion to internal tree form.
//!
//! "All other program constructs are expanded as macros or otherwise
//! re-expressed in terms of the small basic set": `let` becomes a call to
//! a manifest lambda-expression, `cond` becomes nested `if`s, `and`/`or`
//! become `if`s with lambda-bound temporaries, `prog` becomes a `let`
//! containing a `progbody`, and so on.
//!
//! Variables are resolved during conversion: every binding occurrence
//! creates a fresh [`Var`](s1lisp_ast::Var), and variables are uniformly
//! renamed on spelling collision ("all variables … have effectively been
//! uniformly renamed to prevent scoping problems", §5), so the later
//! substitution rules need no capture checks.  Special (dynamically
//! scoped) variables are exempt from renaming — their spelling *is* their
//! identity at run time.
//!
//! What a top-level form declares is decided here and nowhere else:
//! [`toplevel`] classifies one form as a [`TopLevel`] — a `defun`, a
//! `defvar` with its constant initializer, or a `proclaim` — or as an
//! expression, and [`declaration`] is the same for a compilation unit,
//! where every form must declare.  [`Frontend::convert_toplevel`], the
//! batch driver's unit splitter and its global loader, and the REPL's
//! `Compiler::eval` all dispatch through it, so they agree on which
//! units are well formed.
//!
//! # Examples
//!
//! ```
//! use s1lisp_frontend::Frontend;
//! use s1lisp_reader::{read_str, Interner};
//! use s1lisp_ast::unparse;
//!
//! let mut interner = Interner::new();
//! let src = read_str("(defun f (x) (let ((y (* x x))) (+ y 1)))", &mut interner).unwrap();
//! let mut fe = Frontend::new(&mut interner);
//! let func = fe.convert_defun(&src).unwrap();
//! let back = unparse(&func.tree, func.tree.root);
//! assert_eq!(back.to_string(), "(lambda (x) ((lambda (y) (+ y '1)) (* x x)))");
//! ```

#![warn(missing_docs)]

mod convert;
mod error;
mod macros;

pub use convert::{declaration, toplevel, Frontend, Function, TopLevel};
pub use error::ConvertError;
