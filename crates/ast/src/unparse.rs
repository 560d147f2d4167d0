//! Back-translation of the internal tree into source form.
//!
//! §4.1: "the internal tree can always be back-translated into valid
//! source code, equivalent to, though not necessarily identical to, the
//! original source.  (Such a back-translation facility has been written as
//! a debugging aid for the compiler writers.)"
//!
//! Following the paper's transcript conventions, constants print without
//! their `quote` wrapper when they are self-evaluating ("for readability
//! the back-translator actually omits quote-forms around numbers").

use s1lisp_reader::Printer;

use crate::tree::{CallFunc, DeclaredType, Lambda, NodeId, NodeKind, ProgItem, Tree, VarId};

/// Back-translates the subtree at `id` into flat source text.
///
/// The text is written straight from the tree through the reader's
/// [`Printer`], exactly as printing the equivalent source datum would
/// write it.  It is valid source for the frontend: re-reading and
/// re-converting it yields a tree with the same semantics (integration
/// tests assert this round trip).
///
/// # Examples
///
/// ```
/// use s1lisp_ast::{unparse, Tree};
/// use s1lisp_reader::{Datum, Interner};
///
/// let mut i = Interner::new();
/// let mut t = Tree::new();
/// let a = t.constant(Datum::Fixnum(1));
/// let b = t.constant(Datum::Flonum(2.0));
/// let e = t.call_global(i.intern("+$f"), vec![a, b]);
/// assert_eq!(unparse(&t, e), "(+$f '1 '2.0)");
/// ```
pub fn unparse(tree: &Tree, id: NodeId) -> String {
    Unparser::write(tree, id, false, Printer::flat()).into_string()
}

/// [`unparse`] laid out at `width` columns by [`Printer::pretty`]: the
/// converted and optimized snapshots of a compiled function.
pub fn unparse_pretty(tree: &Tree, id: NodeId, width: usize) -> String {
    Unparser::write(tree, id, false, Printer::breakable()).pretty(width)
}

/// Back-translation that *preserves the variable annotations*, laid out
/// at `width` columns: each lambda body opens with a `(declare (special
/// …) (fixnum …) (flonum …))` form covering its parameters, and bare
/// variable-reference statements inside `progbody` are wrapped in
/// `(progn …)` so the reader cannot mistake them for go-tags.
///
/// `unparse` drops declarations (matching the paper's transcripts);
/// this variant exists for the guard pipeline's round-trip check, where
/// re-converting the output must reproduce the *exact* tree fingerprint
/// — including specialness and declared types.
pub fn unparse_declared(tree: &Tree, id: NodeId, width: usize) -> String {
    Unparser::write(tree, id, true, Printer::breakable()).pretty(width)
}

/// A one-line rendering of a subtree, clipped to 48 characters for
/// event logs (telemetry events, dossier verdict lines).  The walk stops
/// once the text is certain to be clipped.
pub fn clip_form(tree: &Tree, node: NodeId) -> String {
    // Past 4 × 48 bytes the text holds more than 48 characters, so it
    // is clipped whatever the rest of the walk would write.
    let s = Unparser::write(tree, node, false, Printer::clipped(4 * 48)).into_string();
    if s.chars().count() <= 48 {
        s
    } else {
        let head: String = s.chars().take(47).collect();
        format!("{head}…")
    }
}

/// The tree walk behind every back-translation.
struct Unparser<'a> {
    tree: &'a Tree,
    declares: bool,
    p: Printer,
}

impl Unparser<'_> {
    fn write(tree: &Tree, id: NodeId, declares: bool, p: Printer) -> Printer {
        let mut u = Unparser { tree, declares, p };
        u.node(id);
        u.p
    }

    fn var(&mut self, v: VarId) {
        self.p.sym(self.tree.var(v).name.as_str());
    }

    /// Writes `(head items…)`.
    fn form(&mut self, head: &str, items: impl FnOnce(&mut Self)) {
        self.p.open();
        self.p.sym(head);
        items(self);
        self.p.close();
    }

    fn node(&mut self, id: NodeId) {
        if self.p.full() {
            return;
        }
        let tree = self.tree;
        match tree.kind(id) {
            // All constants are internally explicitly quoted for
            // uniformity; we keep the quote so the output is exact.
            NodeKind::Constant(d) => self.form("quote", |u| u.p.datum(d)),
            NodeKind::VarRef(v) => self.var(*v),
            NodeKind::Setq { var, value } => self.form("setq", |u| {
                u.var(*var);
                u.node(*value);
            }),
            NodeKind::If { test, then, els } => self.form("if", |u| {
                u.node(*test);
                u.node(*then);
                u.node(*els);
            }),
            NodeKind::Progn(body) => self.form("progn", |u| body.iter().for_each(|&b| u.node(b))),
            NodeKind::Call { func, args } => {
                self.p.open();
                match func {
                    CallFunc::Global(g) => self.p.sym(g.as_str()),
                    CallFunc::Expr(e) => self.node(*e),
                }
                args.iter().for_each(|&a| self.node(a));
                self.p.close();
            }
            NodeKind::Lambda(l) => self.form("lambda", |u| {
                u.p.open();
                l.required.iter().for_each(|&v| u.var(v));
                if !l.optional.is_empty() {
                    u.p.sym("&optional");
                    for o in &l.optional {
                        u.p.open();
                        u.var(o.var);
                        u.node(o.default);
                        u.p.close();
                    }
                }
                if let Some(r) = l.rest {
                    u.p.sym("&rest");
                    u.var(r);
                }
                u.p.close();
                if u.declares {
                    u.declare_form(l);
                }
                u.node(l.body);
            }),
            NodeKind::Caseq {
                key,
                clauses,
                default,
            } => self.form("caseq", |u| {
                u.node(*key);
                for c in clauses {
                    u.p.open();
                    u.p.open();
                    c.keys.iter().for_each(|k| u.p.datum(k));
                    u.p.close();
                    u.node(c.body);
                    u.p.close();
                }
                u.form("t", |u| u.node(*default));
            }),
            NodeKind::Catcher { tag, body } => self.form("catch", |u| {
                u.node(*tag);
                u.node(*body);
            }),
            NodeKind::Progbody(items) => self.form("progbody", |u| {
                for i in items {
                    match i {
                        ProgItem::Tag(t) => u.p.sym(t.as_str()),
                        // In declare-preserving mode a bare symbol
                        // statement would re-read as a go-tag; keep it a
                        // statement with a `progn` wrapper (which
                        // re-converts to the plain node).
                        ProgItem::Stmt(s)
                            if u.declares && matches!(tree.kind(*s), NodeKind::VarRef(_)) =>
                        {
                            u.form("progn", |u| u.node(*s));
                        }
                        ProgItem::Stmt(s) => u.node(*s),
                    }
                }
            }),
            NodeKind::Go(tag) => self.form("go", |u| u.p.sym(tag.as_str())),
            NodeKind::Return(v) => self.form("return", |u| u.node(*v)),
        }
    }

    /// The `(declare …)` form for a lambda's parameter annotations; none
    /// when no parameter is special or type-declared.
    fn declare_form(&mut self, l: &Lambda) {
        let tree = self.tree;
        let mut clauses: [(&str, Vec<&str>); 3] =
            [("special", vec![]), ("fixnum", vec![]), ("flonum", vec![])];
        for p in l.all_params() {
            let v = tree.var(p);
            if v.special {
                clauses[0].1.push(v.name.as_str());
            }
            match v.declared_type {
                Some(DeclaredType::Fixnum) => clauses[1].1.push(v.name.as_str()),
                Some(DeclaredType::Flonum) => clauses[2].1.push(v.name.as_str()),
                None => {}
            }
        }
        if clauses.iter().all(|(_, names)| names.is_empty()) {
            return;
        }
        self.form("declare", |u| {
            for (head, names) in &clauses {
                if !names.is_empty() {
                    u.form(head, |u| names.iter().for_each(|n| u.p.sym(n)));
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Lambda, OptParam};
    use s1lisp_reader::{Datum, Interner};

    #[test]
    fn constants_print_quoted() {
        let mut t = Tree::new();
        let c = t.constant(Datum::Fixnum(42));
        assert_eq!(unparse(&t, c), "'42");
    }

    #[test]
    fn if_and_progn() {
        let mut i = Interner::new();
        let mut t = Tree::new();
        let p = t.add_var(i.intern("p"));
        let rp = t.var_ref(p);
        let a = t.constant(Datum::Fixnum(1));
        let b = t.constant(Datum::Fixnum(2));
        let pg = t.progn(vec![a, b]);
        let e = t.if_(rp, pg, b);
        assert_eq!(unparse(&t, e), "(if p (progn '1 '2) '2)");
    }

    #[test]
    fn lambda_with_optionals_unparsed() {
        let mut i = Interner::new();
        let mut t = Tree::new();
        let a = t.add_var(i.intern("a"));
        let b = t.add_var(i.intern("b"));
        let d = t.constant(Datum::Flonum(3.0));
        let body = t.var_ref(a);
        let lam = t.add(NodeKind::Lambda(Lambda {
            required: vec![a],
            optional: vec![OptParam { var: b, default: d }],
            rest: None,
            body,
        }));
        assert_eq!(unparse(&t, lam), "(lambda (a &optional (b '3.0)) a)");
    }

    #[test]
    fn let_shape_survives() {
        // ((lambda (d) d) '1) — the paper's let rendering.
        let mut i = Interner::new();
        let mut t = Tree::new();
        let d = t.add_var(i.intern("d"));
        let rd = t.var_ref(d);
        let lam = t.lambda(vec![d], rd);
        let one = t.constant(Datum::Fixnum(1));
        let call = t.call_expr(lam, vec![one]);
        assert_eq!(unparse(&t, call), "((lambda (d) d) '1)");
    }

    #[test]
    fn progbody_go_return() {
        let mut i = Interner::new();
        let mut t = Tree::new();
        let g = t.add(NodeKind::Go(i.intern("top")));
        let one = t.constant(Datum::Fixnum(1));
        let r = t.add(NodeKind::Return(one));
        let pb = t.add(NodeKind::Progbody(vec![
            ProgItem::Tag(i.intern("top")),
            ProgItem::Stmt(r),
            ProgItem::Stmt(g),
        ]));
        assert_eq!(unparse(&t, pb), "(progbody top (return '1) (go top))");
    }
}
