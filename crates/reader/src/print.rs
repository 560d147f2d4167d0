//! Printing of data and back-translated trees, flat ([`Display`]) and
//! line-broken ([`pretty`]).
//!
//! The paper's compiler back-translates its internal tree into source form
//! for its debugging transcript; the [`pretty`] printer reproduces that
//! output style (short forms on one line, long forms broken with operands
//! aligned).
//!
//! Everything is written through one [`Printer`]: a datum walk here and
//! the back-translator's tree walk (`s1lisp_ast::unparse`) feed it atoms
//! and list brackets, and it renders the flat text once.  For
//! [`Printer::pretty`] it also records where each element's text lies,
//! so laying out a form breaks only the lists that overflow and copies
//! every other element's flat text as a slice — linear in the output.
//!
//! [`Display`]: std::fmt::Display

use std::fmt::{self, Write as _};

use crate::datum::Datum;

/// Head words that keep their first argument on the head line when a
/// form is broken.
const HANGING: [&str; 5] = ["defun", "lambda", "let", "if", "setq"];

/// How [`Printer::pretty`] may break an element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Atom,
    /// A proper list: head on the first line, arguments beneath it.
    List,
    /// A list headed by one of [`HANGING`]: head and first argument on
    /// the first line.
    Hang,
    /// A `'x` abbreviation or a dotted list: always flat.
    Flat,
}

/// One written element: its flat text is `text[start..end]`, and its
/// subtree is the `size` elements from it on, in preorder.
#[derive(Clone, Copy, Debug)]
struct Element {
    start: usize,
    end: usize,
    size: usize,
    shape: Shape,
}

/// A list being written.
#[derive(Debug)]
struct Open {
    start: usize,
    element: usize,
    items: usize,
    quote_head: bool,
    dotted: bool,
}

/// The one writer of printed forms: the [`Datum`] printer and the
/// back-translator both emit atoms and list brackets into it, and
/// separators, the `'x` abbreviation and line breaking are decided here.
///
/// A two-element list headed by the symbol `quote` is written as `'x`,
/// whoever writes it, matching the reader's abbreviation.
///
/// # Examples
///
/// ```
/// use s1lisp_reader::Printer;
///
/// let mut p = Printer::breakable();
/// p.open();
/// p.sym("if");
/// p.sym("p");
/// p.open();
/// p.sym("quote");
/// p.sym("x");
/// p.close();
/// p.close();
/// assert_eq!(p.as_str(), "(if p 'x)");
/// assert_eq!(p.pretty(6), "(if p\n  'x)");
/// ```
#[derive(Debug)]
pub struct Printer {
    text: String,
    /// Every element in preorder; kept only by a breakable printer.
    elements: Option<Vec<Element>>,
    open: Vec<Open>,
    limit: usize,
}

impl Printer {
    /// A printer of flat text only.
    pub fn flat() -> Printer {
        Printer::clipped(usize::MAX)
    }

    /// A printer of flat text that reports [`Printer::full`] once its
    /// text is longer than `limit` bytes, so a walk feeding it can stop
    /// there.
    pub fn clipped(limit: usize) -> Printer {
        Printer {
            text: String::new(),
            elements: None,
            open: Vec::new(),
            limit,
        }
    }

    /// A printer that also records each element's extent, for
    /// [`Printer::pretty`].
    pub fn breakable() -> Printer {
        Printer {
            elements: Some(Vec::new()),
            ..Printer::flat()
        }
    }

    /// True once the text is longer than the printer's limit.
    pub fn full(&self) -> bool {
        self.text.len() > self.limit
    }

    /// The flat text written so far.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The flat text.
    pub fn into_string(self) -> String {
        self.text
    }

    /// Starts the next element: a separating space unless it opens its
    /// list.  Returns where its text starts.
    fn begin(&mut self) -> usize {
        if let Some(o) = self.open.last_mut() {
            if o.items > 0 {
                self.text.push(' ');
            }
            o.items += 1;
        }
        self.text.len()
    }

    fn record(&mut self, start: usize, shape: Shape) {
        if let Some(elements) = &mut self.elements {
            elements.push(Element {
                start,
                end: self.text.len(),
                size: 1,
                shape,
            });
        }
    }

    fn atom(&mut self, text: fmt::Arguments<'_>) {
        let start = self.begin();
        // Writing into a String cannot fail.
        let _ = self.text.write_fmt(text);
        self.record(start, Shape::Atom);
    }

    /// Writes a symbol.
    pub fn sym(&mut self, name: &str) {
        if let Some(o) = self.open.last_mut().filter(|o| o.items == 0) {
            o.quote_head = name == "quote";
            if HANGING.contains(&name) {
                if let Some(elements) = &mut self.elements {
                    elements[o.element].shape = Shape::Hang;
                }
            }
        }
        let start = self.begin();
        self.text.push_str(name);
        self.record(start, Shape::Atom);
    }

    /// Opens a list.
    pub fn open(&mut self) {
        let start = self.begin();
        self.text.push('(');
        let element = self.elements.as_ref().map_or(0, Vec::len);
        self.record(start, Shape::List);
        self.open.push(Open {
            start,
            element,
            items: 0,
            quote_head: false,
            dotted: false,
        });
    }

    /// Closes the innermost open list.
    ///
    /// # Panics
    ///
    /// If no list is open.
    pub fn close(&mut self) {
        let o = self.open.pop().expect("close without a matching open");
        let quoted = o.quote_head && o.items == 2 && !o.dotted;
        if quoted {
            // (quote x) prints as 'x, matching the reader's abbreviation.
            self.text
                .replace_range(o.start..o.start + "(quote ".len(), "'");
        } else {
            self.text.push(')');
        }
        if let Some(elements) = &mut self.elements {
            if quoted || o.dotted {
                elements.truncate(o.element + 1);
                elements[o.element].shape = Shape::Flat;
            }
            let size = elements.len() - o.element;
            let e = &mut elements[o.element];
            e.end = self.text.len();
            e.size = size;
        }
    }

    /// Writes a datum in standard notation.
    pub fn datum(&mut self, d: &Datum) {
        match d {
            Datum::Nil => self.atom(format_args!("()")),
            Datum::Fixnum(n) => self.atom(format_args!("{n}")),
            Datum::Flonum(x) => self.atom(format_args!("{}", format_flonum(*x))),
            Datum::Sym(s) => self.sym(s.as_str()),
            Datum::Str(s) => self.atom(format_args!("{:?}", &**s)),
            Datum::Char(c) => self.atom(format_args!("#\\{c}")),
            Datum::Cons(_) => {
                self.open();
                let mut cur = d.clone();
                loop {
                    match cur {
                        Datum::Cons(c) => {
                            self.datum(&c.car());
                            cur = c.cdr();
                        }
                        Datum::Nil => break,
                        tail => {
                            self.text.push_str(" .");
                            if let Some(o) = self.open.last_mut() {
                                o.dotted = true;
                            }
                            self.datum(&tail);
                            break;
                        }
                    }
                }
                self.close();
            }
        }
    }

    /// The text laid out at `width` columns: an element that fits on
    /// the rest of its line, an atom, a `'x` form or a dotted list
    /// prints flat; a longer list keeps its head on the first line (with
    /// its first argument too, after `defun`, `lambda`, `let`, `if` and
    /// `setq`) and indents each remaining element two columns past its
    /// open bracket.  Only overflowing lists are visited; every other
    /// element is copied from the flat text, so the cost is linear in
    /// the output.
    ///
    /// # Panics
    ///
    /// If the printer is not [`Printer::breakable`].
    pub fn pretty(&self, width: usize) -> String {
        let elements = self
            .elements
            .as_deref()
            .expect("pretty needs a breakable printer");
        let mut out = String::with_capacity(self.text.len());
        if !elements.is_empty() {
            self.lay_out(elements, &mut out, 0, 0, width);
        }
        out
    }

    /// Lays out element `i` starting at column `indent`; returns the
    /// index of the element after its subtree.
    fn lay_out(
        &self,
        elements: &[Element],
        out: &mut String,
        i: usize,
        indent: usize,
        width: usize,
    ) -> usize {
        let e = elements[i];
        let flat = &self.text[e.start..e.end];
        let next = i + e.size;
        if indent + flat.len() <= width || e.size == 1 || e.shape == Shape::Flat {
            out.push_str(flat);
            return next;
        }
        out.push('(');
        let head = elements[i + 1];
        let mut c = self.lay_out(elements, out, i + 1, indent + 1, width);
        if e.shape == Shape::Hang && c < next {
            out.push(' ');
            let column = indent + 1 + (head.end - head.start) + 1;
            c = self.lay_out(elements, out, c, column, width);
        }
        while c < next {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', indent + 2));
            c = self.lay_out(elements, out, c, indent + 2, width);
        }
        out.push(')');
        next
    }
}

/// Writes `d` in standard flat notation.
pub(crate) fn write_datum(f: &mut fmt::Formatter<'_>, d: &Datum) -> fmt::Result {
    let mut p = Printer::flat();
    p.datum(d);
    f.write_str(p.as_str())
}

/// Formats a flonum so it reads back as a flonum (always shows a decimal
/// point or exponent).
pub(crate) fn format_flonum(x: f64) -> String {
    if x.is_nan() {
        return "#.flonum-nan".to_string();
    }
    if x.is_infinite() {
        return if x > 0.0 {
            "#.flonum-inf".to_string()
        } else {
            "#.flonum-neg-inf".to_string()
        };
    }
    let magnitude = x.abs();
    if magnitude != 0.0 && !(1e-5..1e21).contains(&magnitude) {
        return format!("{x:e}");
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Pretty-prints a datum with line breaking at `width` columns.
///
/// The layout is the one the compiler's back-translation snapshots use
/// (§4.1 of the paper; [`Printer::pretty`]): forms that fit within the
/// width print flat; otherwise the head stays on the first line and
/// arguments are indented beneath it.  The datum is written once and
/// laid out in time linear in the output.
///
/// # Examples
///
/// ```
/// use s1lisp_reader::{pretty, read_str, Interner};
///
/// let mut i = Interner::new();
/// let d = read_str("(if (< d 0) () (list (/ (- b) (* 2.0 a))))", &mut i).unwrap();
/// assert_eq!(pretty(&d, 80), "(if (< d 0) () (list (/ (- b) (* 2.0 a))))");
/// let broken = pretty(&d, 20);
/// assert!(broken.contains('\n'));
/// ```
pub fn pretty(d: &Datum, width: usize) -> String {
    let mut p = Printer::breakable();
    p.datum(d);
    p.pretty(width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_str, Interner};

    #[test]
    fn flonums_round_trip_textually() {
        assert_eq!(format_flonum(3.0), "3.0");
        assert_eq!(format_flonum(0.159154942), "0.159154942");
        assert_eq!(format_flonum(-2.5e30), "-2.5e30");
    }

    #[test]
    fn quote_abbreviation() {
        let mut i = Interner::new();
        let d = read_str("(quote (a b))", &mut i).unwrap();
        assert_eq!(d.to_string(), "'(a b)");
    }

    #[test]
    fn dotted_pair_prints() {
        let d = Datum::cons(Datum::Fixnum(1), Datum::Fixnum(2));
        assert_eq!(d.to_string(), "(1 . 2)");
    }

    #[test]
    fn nil_prints_as_empty_list() {
        assert_eq!(Datum::Nil.to_string(), "()");
    }

    #[test]
    fn pretty_flat_when_it_fits() {
        let mut i = Interner::new();
        let d = read_str("(+ 1 2)", &mut i).unwrap();
        assert_eq!(pretty(&d, 80), "(+ 1 2)");
    }

    #[test]
    fn pretty_breaks_long_forms() {
        let mut i = Interner::new();
        let d = read_str(
            "(defun quadratic (a b c) (let ((d (- (* b b) (* 4.0 a c)))) d))",
            &mut i,
        )
        .unwrap();
        let s = pretty(&d, 40);
        assert!(s.lines().count() > 1);
        // Re-reading the pretty output yields an equal datum.
        let back = read_str(&s, &mut i).unwrap();
        assert!(back.equal(&d));
    }

    #[test]
    fn strings_print_escaped() {
        let d = Datum::string("a\"b");
        assert_eq!(d.to_string(), r#""a\"b""#);
    }
}
