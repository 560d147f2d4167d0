//! S-expression data model, reader, and printer for the `s1lisp` compiler.
//!
//! This crate provides the *source form* of programs: the [`Datum`] type
//! (atoms and conses), a symbol [`Interner`], a [`Reader`] front end, and
//! the one [`Printer`] behind machine-oriented [`Display`] output, the
//! line-breaking [`pretty`] layout, and the compiler's back-translation
//! of its internal tree.
//!
//! The dialect follows the paper (Brooks, Gabriel & Steele, PLDI 1982): a
//! lexically scoped Lisp in the MACLISP/Common Lisp lineage.  Numbers are
//! fixnums and flonums; symbols may contain the type-specific operator
//! suffixes used throughout the paper (`+$f`, `sin$f`, …).
//!
//! # Examples
//!
//! ```
//! use s1lisp_reader::{Interner, read_str};
//!
//! let mut interner = Interner::new();
//! let datum = read_str("(defun square (x) (*$f x x))", &mut interner).unwrap();
//! assert_eq!(datum.to_string(), "(defun square (x) (*$f x x))");
//! ```
//!
//! [`Display`]: std::fmt::Display

#![warn(missing_docs)]

mod datum;
mod interner;
mod print;
mod read;

pub use datum::{Cons, Datum};
pub use interner::{Interner, Symbol};
pub use print::{pretty, Printer};
pub use read::{read_all_str, read_str, ReadError, Reader};
