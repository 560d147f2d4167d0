//! Reference interpreter for the `s1lisp` dialect.
//!
//! The interpreter evaluates the *internal tree* produced by
//! `s1lisp-frontend` directly, with the semantics of §2 of the paper:
//! lexical scoping with heap-allocated closures, dynamically scoped
//! ("special") variables via deep binding, `&optional`/`&rest` parameters
//! with computed defaults, `catch`/`throw`, and `prog`-style control.
//!
//! Its role in the reproduction is the **semantic oracle**: the compiled
//! code running on the S-1 simulator must produce the same values the
//! interpreter does (differential testing), and its call-depth statistics
//! provide the "naive" baseline for the tail-recursion experiment (E4).
//!
//! The interpreter deliberately does **not** implement tail-call
//! optimization — the paper's point is that the *compiler* turns tail
//! calls into jumps.
//!
//! # Examples
//!
//! ```
//! use s1lisp_frontend::Frontend;
//! use s1lisp_interp::{Interp, Value};
//! use s1lisp_reader::{read_str, Interner};
//!
//! let mut i = Interner::new();
//! let src = read_str("(defun square (x) (* x x))", &mut i).unwrap();
//! let mut fe = Frontend::new(&mut i);
//! let f = fe.convert_defun(&src).unwrap();
//! let mut interp = Interp::new();
//! interp.define(f);
//! let v = interp.call("square", &[Value::Fixnum(7)]).unwrap();
//! assert_eq!(v, Value::Fixnum(49));
//! ```

#![warn(missing_docs)]

mod builtins;
mod error;
mod eval;
mod value;

pub use builtins::{call_builtin, eval_primop, Values};
pub use error::LispError;
pub use eval::{Interp, InterpStats};
pub use value::{Const, Function, Value};
