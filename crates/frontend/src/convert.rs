//! Conversion from source data to the internal tree.

use std::collections::{HashMap, HashSet};

use s1lisp_ast::{CaseqClause, Lambda, NodeId, NodeKind, OptParam, Prim, ProgItem, Tree, VarId};
use s1lisp_reader::{Datum, Interner, Symbol};

use crate::error::ConvertError;
use crate::macros;

/// A converted top-level function: a name and a tree whose root is a
/// `lambda` node.
#[derive(Clone, Debug)]
pub struct Function {
    /// The `defun` name.
    pub name: Symbol,
    /// The internal tree; [`Tree::root`] is the function's lambda.
    pub tree: Tree,
}

/// The conversion front end: expands macros, resolves variables, and
/// builds internal trees.
///
/// One `Frontend` holds per-compilation-unit state: the symbol interner
/// and the set of proclaimed special (dynamically scoped) variables.
#[derive(Debug)]
pub struct Frontend<'a> {
    /// The symbol interner for this compilation unit.
    pub interner: &'a mut Interner,
    specials: HashSet<Symbol>,
    /// Constant initial values from `(defvar name init)` forms, in
    /// order of appearance.
    pub defvar_inits: Vec<(Symbol, Datum)>,
}

impl<'a> Frontend<'a> {
    /// Creates a front end over the given interner.
    pub fn new(interner: &'a mut Interner) -> Frontend<'a> {
        Frontend {
            interner,
            specials: HashSet::new(),
            defvar_inits: Vec::new(),
        }
    }

    /// Proclaims `name` special (dynamically scoped) for subsequent
    /// conversions.
    pub fn proclaim_special(&mut self, name: Symbol) {
        self.specials.insert(name);
    }

    /// Whether `name` is proclaimed special, either explicitly or by the
    /// `*earmuffs*` convention.
    pub fn is_proclaimed_special(&self, name: &Symbol) -> bool {
        if self.specials.contains(name) {
            return true;
        }
        let s = name.as_str();
        s.len() >= 3 && s.starts_with('*') && s.ends_with('*')
    }

    /// Converts a `(defun name params body…)` form.
    ///
    /// # Errors
    ///
    /// Returns a [`ConvertError`] on malformed source, or when `name` is
    /// a primitive's.
    pub fn convert_defun(&mut self, form: &Datum) -> Result<Function, ConvertError> {
        let (name, items) = defun_parts(form)?;
        // Every layer, the optimizer's folds included, takes a primitive's
        // name to mean the primitive.
        if Prim::from_name(name.as_str()).is_some() {
            let message = format!("cannot redefine primitive {}", name.as_str());
            return Err(ConvertError::new(message, form));
        }
        let mut cx = Cx::new(self);
        let lambda = cx.convert_lambda(&items[2], &items[3..])?;
        let mut tree = cx.tree;
        tree.root = lambda;
        tree.rebuild_backlinks();
        Ok(Function { name, tree })
    }

    /// Converts a sequence of top-level forms, each classified by
    /// [`declaration`]: `defun`s become functions; `proclaim`ed and
    /// `defvar`ed names become special for the forms after them; and
    /// `defvar` constant initializers are recorded in
    /// [`Frontend::defvar_inits`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConvertError`] on malformed source or unsupported
    /// top-level forms.
    pub fn convert_toplevel(&mut self, forms: &[Datum]) -> Result<Vec<Function>, ConvertError> {
        let mut out = Vec::new();
        for form in forms {
            match declaration(form)? {
                TopLevel::Defun(_) => out.push(self.convert_defun(form)?),
                TopLevel::Defvar { name, init } => {
                    self.proclaim_special(name.clone());
                    if let Some((_, value)) = init {
                        self.defvar_inits.push((name, value));
                    }
                }
                TopLevel::Proclaim(names) => {
                    for name in names {
                        self.proclaim_special(name);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// What one top-level form declares — the Preliminary phase's one
/// top-level dispatch, shared by every layer that reads a unit.
#[derive(Clone, Debug)]
pub enum TopLevel {
    /// `(defun name params body…)`: a function named `name`.
    Defun(Symbol),
    /// `(defvar name [init])`: `name` is special and, with an
    /// initializer, a global with a constant initial value.
    Defvar {
        /// The variable.
        name: Symbol,
        /// The initializer as written and the constant it denotes (one
        /// `quote` level stripped).
        init: Option<(Datum, Datum)>,
    },
    /// `(proclaim '(special name…))`: the names proclaimed special
    /// (none when the declaration is not `special`).
    Proclaim(Vec<Symbol>),
}

/// Classifies a top-level form, or `Ok(None)` when it declares nothing:
/// an expression, which only a REPL accepts at top level.
///
/// The dialect has no load-time evaluation, so a `defvar` initializer
/// must be a constant: a self-evaluating datum, `()`, `t`, or a `quote`
/// form.
///
/// # Errors
///
/// Returns a [`ConvertError`] for a malformed `defun`, `defvar` or
/// `proclaim`, and for a `defvar` whose initializer is not a constant.
pub fn toplevel(form: &Datum) -> Result<Option<TopLevel>, ConvertError> {
    let head = form.car().and_then(|h| h.as_symbol().cloned());
    let decl = match head.as_ref().map(|s| s.as_str()) {
        Some("defun") => TopLevel::Defun(defun_parts(form)?.0),
        Some("defvar") => {
            let rest = form.cdr().unwrap_or(Datum::Nil);
            let name = rest
                .car()
                .and_then(|d| d.as_symbol().cloned())
                .ok_or_else(|| ConvertError::new("malformed defvar", form))?;
            let init = match rest.cdr().and_then(|d| d.car()) {
                None => None,
                Some(init) => {
                    let value = match &init {
                        d if d.is_self_evaluating() || d.is_nil() => Some(init.clone()),
                        Datum::Cons(c)
                            if c.car().as_symbol().is_some_and(|s| s.as_str() == "quote") =>
                        {
                            c.cdr().car()
                        }
                        Datum::Sym(s) if s.as_str() == "t" => Some(init.clone()),
                        _ => None,
                    };
                    let value = value.ok_or_else(|| {
                        ConvertError::new("defvar initializer must be a constant", form)
                    })?;
                    Some((init, value))
                }
            };
            TopLevel::Defvar { name, init }
        }
        Some("proclaim") => {
            // (proclaim '(special a b c))
            let spec = form
                .cdr()
                .and_then(|d| d.car())
                .and_then(|d| d.cdr()?.car()) // strip quote
                .ok_or_else(|| ConvertError::new("malformed proclaim", form))?;
            let items = spec
                .proper_list()
                .ok_or_else(|| ConvertError::new("malformed proclaim", form))?;
            let special = items
                .first()
                .and_then(|h| h.as_symbol().map(|s| s.as_str()))
                == Some("special");
            let names = if special {
                items[1..]
                    .iter()
                    .filter_map(|s| s.as_symbol().cloned())
                    .collect()
            } else {
                Vec::new()
            };
            TopLevel::Proclaim(names)
        }
        _ => return Ok(None),
    };
    Ok(Some(decl))
}

/// The name of a `(defun name params body…)` form and the form's items.
fn defun_parts(form: &Datum) -> Result<(Symbol, Vec<Datum>), ConvertError> {
    let items = form
        .proper_list()
        .ok_or_else(|| ConvertError::new("malformed defun", form))?;
    let [head, name, _params, ..] = items.as_slice() else {
        return Err(ConvertError::new("defun needs name, params, body", form));
    };
    if head.as_symbol().map(|s| s.as_str()) != Some("defun") {
        return Err(ConvertError::new("not a defun", form));
    }
    let name = name
        .as_symbol()
        .ok_or_else(|| ConvertError::new("defun name must be a symbol", form))?
        .clone();
    Ok((name, items))
}

/// [`toplevel`] for a compilation unit, where every form must declare
/// something.
///
/// # Errors
///
/// As [`toplevel`], and for a form that declares nothing.
pub fn declaration(form: &Datum) -> Result<TopLevel, ConvertError> {
    toplevel(form)?.ok_or_else(|| {
        ConvertError::new(
            "unsupported top-level form (want defun/defvar/proclaim)",
            form,
        )
    })
}

/// Per-function conversion context.
struct Cx<'f, 'a> {
    fe: &'f mut Frontend<'a>,
    tree: Tree,
    /// Lexical scope stack: original symbol → variable.
    scopes: Vec<HashMap<Symbol, VarId>>,
    /// Spellings already used in this function, for uniform renaming.
    used_names: HashSet<String>,
    /// Free (global special) variables seen so far, one `Var` each.
    global_specials: HashMap<Symbol, VarId>,
    /// Special declarations active for the binding forms being processed.
    pending_specials: Vec<HashSet<Symbol>>,
}

impl<'f, 'a> Cx<'f, 'a> {
    fn new(fe: &'f mut Frontend<'a>) -> Cx<'f, 'a> {
        Cx {
            fe,
            tree: Tree::new(),
            scopes: Vec::new(),
            used_names: HashSet::new(),
            global_specials: HashMap::new(),
            pending_specials: Vec::new(),
        }
    }

    fn err(&self, msg: &str, form: &Datum) -> ConvertError {
        ConvertError::new(msg, form)
    }

    fn lookup(&self, name: &Symbol) -> Option<VarId> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.get(name).copied())
    }

    /// The variable for a free reference: a global special.
    fn global_special(&mut self, name: &Symbol) -> VarId {
        if let Some(&v) = self.global_specials.get(name) {
            return v;
        }
        let v = self.tree.add_var(name.clone());
        self.tree.var_mut(v).special = true;
        self.global_specials.insert(name.clone(), v);
        v
    }

    /// Creates and scopes a bound variable, renaming lexicals on spelling
    /// collision.  Specials keep their spelling (it is their run-time
    /// identity).
    fn bind_var(&mut self, name: &Symbol, special: bool) -> VarId {
        let spelled = if special {
            name.clone()
        } else if self.used_names.contains(name.as_str()) {
            self.fe.interner.gensym(name.as_str())
        } else {
            name.clone()
        };
        self.used_names.insert(spelled.as_str().to_string());
        let v = self.tree.add_var(spelled);
        self.tree.var_mut(v).special = special;
        self.scopes
            .last_mut()
            .expect("bind_var requires an open scope")
            .insert(name.clone(), v);
        v
    }

    fn is_special_binding(&self, name: &Symbol) -> bool {
        self.fe.is_proclaimed_special(name)
            || self
                .pending_specials
                .last()
                .map(|s| s.contains(name))
                .unwrap_or(false)
    }

    /// Main conversion dispatch.
    fn convert(&mut self, form: &Datum) -> Result<NodeId, ConvertError> {
        match form {
            Datum::Nil => Ok(self.tree.constant(Datum::Nil)),
            d if d.is_self_evaluating() => Ok(self.tree.constant(d.clone())),
            Datum::Sym(s) => self.convert_symbol(s),
            Datum::Cons(_) => self.convert_form(form),
            _ => Err(self.err("cannot convert datum", form)),
        }
    }

    fn convert_symbol(&mut self, s: &Symbol) -> Result<NodeId, ConvertError> {
        if s.as_str() == "t" {
            return Ok(self.tree.constant(Datum::Sym(s.clone())));
        }
        if let Some(v) = self.lookup(s) {
            return Ok(self.tree.var_ref(v));
        }
        let v = self.global_special(s);
        Ok(self.tree.var_ref(v))
    }

    fn convert_form(&mut self, form: &Datum) -> Result<NodeId, ConvertError> {
        let head = form.car().expect("cons");
        let args: Vec<Datum> = form.cdr().map(|d| d.iter().collect()).unwrap_or_default();
        if let Some(head_sym) = head.as_symbol() {
            match head_sym.as_str() {
                "quote" => {
                    let [x] = args.as_slice() else {
                        return Err(self.err("quote needs one argument", form));
                    };
                    return Ok(self.tree.constant(x.clone()));
                }
                "function" => return self.convert_function(&args, form),
                "lambda" => {
                    let [params, body @ ..] = args.as_slice() else {
                        return Err(self.err("lambda needs a parameter list", form));
                    };
                    return self.convert_lambda(params, body);
                }
                "if" => return self.convert_if(&args, form),
                "progn" => return self.convert_progn(&args),
                "setq" => return self.convert_setq(&args, form),
                "caseq" => return self.convert_caseq(&args, form),
                "catch" => {
                    let [tag, body @ ..] = args.as_slice() else {
                        return Err(self.err("catch needs a tag", form));
                    };
                    let tag = self.convert(tag)?;
                    let body = self.convert_progn(body)?;
                    return Ok(self.tree.add(NodeKind::Catcher { tag, body }));
                }
                "progbody" => return self.convert_progbody(&args, form),
                "go" => {
                    let [tag] = args.as_slice() else {
                        return Err(self.err("go needs one tag", form));
                    };
                    let tag = tag
                        .as_symbol()
                        .ok_or_else(|| self.err("go tag must be a symbol", form))?;
                    return Ok(self.tree.add(NodeKind::Go(tag.clone())));
                }
                "return" => {
                    let value = match args.as_slice() {
                        [] => self.tree.constant(Datum::Nil),
                        [v] => self.convert(v)?,
                        _ => return Err(self.err("return takes at most one value", form)),
                    };
                    return Ok(self.tree.add(NodeKind::Return(value)));
                }
                "funcall" => {
                    let [f, rest @ ..] = args.as_slice() else {
                        return Err(self.err("funcall needs a function", form));
                    };
                    let f = self.convert(f)?;
                    let rest = self.convert_all(rest)?;
                    return Ok(self.tree.call_expr(f, rest));
                }
                "declare" => {
                    return Err(self.err("declare is only allowed at the head of a body", form))
                }
                _ if macros::is_macro(head_sym) => {
                    let expanded = macros::expand(head_sym, form, self.fe.interner)?;
                    return self.convert(&expanded);
                }
                _ => {
                    // A call.  A lexically bound name in function position
                    // refers to the variable's value (the paper's
                    // transformations rely on calling lambda-bound
                    // function variables like (f1)).
                    let argv = self.convert_all(&args)?;
                    if let Some(v) = self.lookup(head_sym) {
                        let f = self.tree.var_ref(v);
                        return Ok(self.tree.call_expr(f, argv));
                    }
                    return Ok(self.tree.call_global(head_sym.clone(), argv));
                }
            }
        }
        // Head is itself a form: ((lambda …) args…) or computed function.
        let f = self.convert(&head)?;
        let argv = self.convert_all(&args)?;
        Ok(self.tree.call_expr(f, argv))
    }

    fn convert_all(&mut self, forms: &[Datum]) -> Result<Vec<NodeId>, ConvertError> {
        forms.iter().map(|f| self.convert(f)).collect()
    }

    fn convert_function(&mut self, args: &[Datum], form: &Datum) -> Result<NodeId, ConvertError> {
        let [f] = args else {
            return Err(self.err("function needs one argument", form));
        };
        if let Some(s) = f.as_symbol() {
            if let Some(v) = self.lookup(s) {
                return Ok(self.tree.var_ref(v));
            }
            let fname = self.fe.interner.intern("%function");
            let c = self.tree.constant(Datum::Sym(s.clone()));
            return Ok(self.tree.call_global(fname, vec![c]));
        }
        // (function (lambda …))
        self.convert(f)
    }

    fn convert_if(&mut self, args: &[Datum], form: &Datum) -> Result<NodeId, ConvertError> {
        let (test, then, els) = match args {
            [t, c] => (
                self.convert(t)?,
                self.convert(c)?,
                self.tree.constant(Datum::Nil),
            ),
            [t, c, a] => (self.convert(t)?, self.convert(c)?, self.convert(a)?),
            _ => return Err(self.err("if needs 2 or 3 arguments", form)),
        };
        Ok(self.tree.if_(test, then, els))
    }

    fn convert_progn(&mut self, forms: &[Datum]) -> Result<NodeId, ConvertError> {
        match forms {
            [] => Ok(self.tree.constant(Datum::Nil)),
            [x] => self.convert(x),
            _ => {
                let body = self.convert_all(forms)?;
                Ok(self.tree.progn(body))
            }
        }
    }

    fn convert_setq(&mut self, args: &[Datum], form: &Datum) -> Result<NodeId, ConvertError> {
        if args.is_empty() || !args.len().is_multiple_of(2) {
            return Err(self.err("setq needs variable/value pairs", form));
        }
        let mut setqs = Vec::new();
        for pair in args.chunks(2) {
            let name = pair[0]
                .as_symbol()
                .ok_or_else(|| self.err("setq target must be a symbol", form))?;
            let var = match self.lookup(name) {
                Some(v) => v,
                None => self.global_special(name),
            };
            let value = self.convert(&pair[1])?;
            setqs.push(self.tree.add(NodeKind::Setq { var, value }));
        }
        if setqs.len() == 1 {
            Ok(setqs[0])
        } else {
            Ok(self.tree.progn(setqs))
        }
    }

    fn convert_caseq(&mut self, args: &[Datum], form: &Datum) -> Result<NodeId, ConvertError> {
        let [key, clause_forms @ ..] = args else {
            return Err(self.err("caseq needs a key", form));
        };
        let key = self.convert(key)?;
        let mut clauses = Vec::new();
        let mut default = None;
        for clause in clause_forms {
            let items = clause
                .proper_list()
                .ok_or_else(|| self.err("malformed caseq clause", form))?;
            let [keys, body @ ..] = items.as_slice() else {
                return Err(self.err("empty caseq clause", form));
            };
            let is_default = keys
                .as_symbol()
                .map(|s| matches!(s.as_str(), "t" | "otherwise"))
                .unwrap_or(false);
            if is_default {
                default = Some(self.convert_progn(body)?);
                continue;
            }
            let keys = match keys {
                Datum::Cons(_) => keys
                    .proper_list()
                    .ok_or_else(|| self.err("caseq keys must be a list", form))?,
                atom => vec![atom.clone()],
            };
            let body = self.convert_progn(body)?;
            clauses.push(CaseqClause { keys, body });
        }
        let default = match default {
            Some(d) => d,
            None => self.tree.constant(Datum::Nil),
        };
        Ok(self.tree.add(NodeKind::Caseq {
            key,
            clauses,
            default,
        }))
    }

    fn convert_progbody(&mut self, args: &[Datum], _form: &Datum) -> Result<NodeId, ConvertError> {
        let mut items = Vec::new();
        for item in args {
            match item {
                Datum::Sym(tag) => items.push(ProgItem::Tag(tag.clone())),
                Datum::Fixnum(_) => {
                    // Numeric go-tags are MACLISP folklore; not supported.
                    return Err(self.err("go tags must be symbols", item));
                }
                stmt => items.push(ProgItem::Stmt(self.convert(stmt)?)),
            }
        }
        Ok(self.tree.add(NodeKind::Progbody(items)))
    }

    /// Converts a lambda: parameter list (with `&optional`/`&rest`),
    /// body declarations, body.
    fn convert_lambda(&mut self, params: &Datum, body: &[Datum]) -> Result<NodeId, ConvertError> {
        let param_items = params
            .proper_list()
            .ok_or_else(|| self.err("parameter list must be a proper list", params))?;
        let (declares, body) = macros::split_declares(body);
        let (special_decls, type_decls) = parse_declares(&declares)?;
        self.pending_specials.push(special_decls);
        self.scopes.push(HashMap::new());

        let mut required = Vec::new();
        let mut optional = Vec::new();
        let mut rest = None;
        #[derive(PartialEq)]
        enum Mode {
            Required,
            Optional,
            Rest,
        }
        let mut mode = Mode::Required;
        for p in &param_items {
            if let Some(s) = p.as_symbol() {
                match s.as_str() {
                    "&optional" => {
                        mode = Mode::Optional;
                        continue;
                    }
                    "&rest" => {
                        mode = Mode::Rest;
                        continue;
                    }
                    _ => {}
                }
            }
            match mode {
                Mode::Required => {
                    let name = p
                        .as_symbol()
                        .ok_or_else(|| self.err("parameter must be a symbol", p))?;
                    let special = self.is_special_binding(name);
                    required.push(self.bind_var(name, special));
                }
                Mode::Optional => {
                    // name, or (name default); "a default-value expression
                    // may … refer to other parameters occurring earlier in
                    // the same formal parameter set" (§2), so it converts
                    // in the scope built so far.
                    let (name, default_form) = match p {
                        Datum::Sym(s) => (s.clone(), Datum::Nil),
                        _ => {
                            let items = p
                                .proper_list()
                                .ok_or_else(|| self.err("malformed optional parameter", p))?;
                            match items.as_slice() {
                                [n] => (
                                    n.as_symbol()
                                        .ok_or_else(|| self.err("parameter must be a symbol", p))?
                                        .clone(),
                                    Datum::Nil,
                                ),
                                [n, d] => (
                                    n.as_symbol()
                                        .ok_or_else(|| self.err("parameter must be a symbol", p))?
                                        .clone(),
                                    d.clone(),
                                ),
                                _ => return Err(self.err("malformed optional parameter", p)),
                            }
                        }
                    };
                    let default = if default_form.is_nil() {
                        self.tree.constant(Datum::Nil)
                    } else {
                        self.convert(&default_form)?
                    };
                    let special = self.is_special_binding(&name);
                    let var = self.bind_var(&name, special);
                    optional.push(OptParam { var, default });
                }
                Mode::Rest => {
                    if rest.is_some() {
                        return Err(self.err("only one &rest parameter allowed", p));
                    }
                    let name = p
                        .as_symbol()
                        .ok_or_else(|| self.err("parameter must be a symbol", p))?;
                    let special = self.is_special_binding(name);
                    rest = Some(self.bind_var(name, special));
                }
            }
        }

        // Apply type declarations to the parameters they name.
        for (name, ty) in &type_decls {
            if let Some(v) = self.lookup(name) {
                self.tree.var_mut(v).declared_type = Some(*ty);
            }
        }

        let body = self.convert_progn(&body)?;
        self.scopes.pop();
        self.pending_specials.pop();

        let lambda = Lambda {
            required: required.clone(),
            optional: optional.clone(),
            rest,
            body,
        };
        let id = self.tree.add(NodeKind::Lambda(lambda));
        for v in required
            .into_iter()
            .chain(optional.into_iter().map(|o| o.var))
            .chain(rest)
        {
            self.tree.var_mut(v).binder = Some(id);
        }
        Ok(id)
    }
}

/// Type declarations harvested from a body's `declare` forms.
type TypeDecls = Vec<(Symbol, s1lisp_ast::DeclaredType)>;

/// Parses `(declare (special a b) (fixnum n) (flonum x))` forms into the
/// special set and type declarations.
fn parse_declares(declares: &[Datum]) -> Result<(HashSet<Symbol>, TypeDecls), ConvertError> {
    let mut specials = HashSet::new();
    let mut types = Vec::new();
    for d in declares {
        for spec in d.iter().skip(1) {
            let items = spec
                .proper_list()
                .ok_or_else(|| ConvertError::new("malformed declaration", &spec))?;
            let Some((kind, names)) = items.split_first() else {
                continue;
            };
            let Some(kind) = kind.as_symbol() else {
                continue;
            };
            match kind.as_str() {
                "special" => {
                    for n in names {
                        if let Some(s) = n.as_symbol() {
                            specials.insert(s.clone());
                        }
                    }
                }
                "fixnum" => {
                    for n in names {
                        if let Some(s) = n.as_symbol() {
                            types.push((s.clone(), s1lisp_ast::DeclaredType::Fixnum));
                        }
                    }
                }
                "flonum" => {
                    for n in names {
                        if let Some(s) = n.as_symbol() {
                            types.push((s.clone(), s1lisp_ast::DeclaredType::Flonum));
                        }
                    }
                }
                _ => {} // unknown declarations are advice we ignore
            }
        }
    }
    Ok((specials, types))
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_ast::unparse;
    use s1lisp_reader::read_str;

    fn convert(src: &str) -> String {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        unparse(&f.tree, f.tree.root).to_string()
    }

    #[test]
    fn quadratic_matches_papers_back_translation() {
        // §4.1's worked example: let → lambda call, cond → if nest,
        // constants explicitly quoted.
        let got = convert(
            "(defun quadratic (a b c)
               (let ((d (- (* b b) (* 4.0 a c))))
                 (cond ((< d 0) '())
                       ((= d 0) (list (/ (- b) (* 2.0 a))))
                       (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
                            (list (/ (+ (- b) sd) 2a)
                                  (/ (- (- b) sd) 2a)))))))",
        );
        let expected = "(lambda (a b c) \
            ((lambda (d) \
              (if (< d '0) '() \
               (if (= d '0) (list (/ (- b) (* '2.0 a))) \
                ((lambda (2a sd) \
                  (list (/ (+ (- b) sd) 2a) (/ (- (- b) sd) 2a))) \
                 (* '2.0 a) (sqrt d))))) \
             (- (* b b) (* '4.0 a c))))";
        assert_eq!(got, expected);
    }

    #[test]
    fn optional_parameters_with_defaults() {
        let got = convert("(defun testfn (a &optional (b 3.0) (c a)) (list a b c))");
        assert_eq!(got, "(lambda (a &optional (b '3.0) (c a)) (list a b c))");
    }

    #[test]
    fn variables_renamed_on_collision() {
        let got = convert("(defun f (x) (let ((x (+ x 1))) x))");
        // Inner x must be renamed so both variables stay distinct.
        assert!(got.contains("x%"), "{got}");
        assert!(got.starts_with("(lambda (x) ((lambda (x%"), "{got}");
    }

    #[test]
    fn lexical_function_variables_are_callable() {
        let got = convert("(defun f (g) (g 1))");
        assert_eq!(got, "(lambda (g) (g '1))");
    }

    #[test]
    fn free_variables_become_global_specials() {
        let mut i = Interner::new();
        let form = read_str("(defun f () counter)", &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let special = f
            .tree
            .var_ids()
            .find(|&v| f.tree.var(v).name.as_str() == "counter")
            .unwrap();
        assert!(f.tree.var(special).special);
        assert_eq!(f.tree.var(special).binder, None);
    }

    #[test]
    fn declare_special_binds_dynamically() {
        let mut i = Interner::new();
        let form = read_str("(defun f (x) (declare (special x)) (g) x)", &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let x = f
            .tree
            .var_ids()
            .find(|&v| f.tree.var(v).name.as_str() == "x")
            .unwrap();
        assert!(f.tree.var(x).special);
        assert!(f.tree.var(x).binder.is_some());
    }

    #[test]
    fn earmuffs_are_special() {
        let mut i = Interner::new();
        let form = read_str("(defun f (*print-base*) *print-base*)", &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let v = f
            .tree
            .var_ids()
            .find(|&v| f.tree.var(v).name.as_str() == "*print-base*")
            .unwrap();
        assert!(f.tree.var(v).special);
    }

    #[test]
    fn type_declarations_attach() {
        let mut i = Interner::new();
        let form = read_str(
            "(defun f (n x) (declare (fixnum n) (flonum x)) (+ n 1))",
            &mut i,
        )
        .unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let n = f
            .tree
            .var_ids()
            .find(|&v| f.tree.var(v).name.as_str() == "n")
            .unwrap();
        assert_eq!(
            f.tree.var(n).declared_type,
            Some(s1lisp_ast::DeclaredType::Fixnum)
        );
    }

    #[test]
    fn prog_go_return_convert() {
        let got = convert(
            "(defun f (n) (prog (acc) (setq acc 0)
               top (if (= n 0) (return acc))
                   (setq acc (+ acc n) n (- n 1))
                   (go top)))",
        );
        assert!(got.contains("(progbody"), "{got}");
        assert!(got.contains("(go top)"), "{got}");
        assert!(got.contains("(return acc)"), "{got}");
    }

    #[test]
    fn caseq_with_default() {
        let got = convert("(defun f (x) (caseq x ((1 2) 'small) (3 'three) (t 'big)))");
        assert_eq!(
            got,
            "(lambda (x) (caseq x ((1 2) 'small) ((3) 'three) (t 'big)))"
        );
    }

    #[test]
    fn catch_and_throw() {
        let got = convert("(defun f (x) (catch 'done (throw 'done x)))");
        assert_eq!(got, "(lambda (x) (catch 'done (throw 'done x)))");
    }

    #[test]
    fn setq_multi_pair() {
        let got = convert("(defun f (a b) (setq a 1 b 2))");
        assert_eq!(got, "(lambda (a b) (progn (setq a '1) (setq b '2)))");
    }

    #[test]
    fn exptl_converts() {
        // The paper's §2 example.
        let got = convert(
            "(defun exptl (x n a)
               (cond ((zerop n) a)
                     ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
                     (t (exptl (* x x) (floor (/ n 2)) a))))",
        );
        assert!(got.starts_with("(lambda (x n a) (if (zerop n) a"), "{got}");
    }

    #[test]
    fn toplevel_units() {
        let mut i = Interner::new();
        let forms = s1lisp_reader::read_all_str(
            "(proclaim '(special *depth*))
             (defvar *count*)
             (defun f () *depth*)
             (defun g () 1)",
            &mut i,
        )
        .unwrap();
        let mut fe = Frontend::new(&mut i);
        let fns = fe.convert_toplevel(&forms).unwrap();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name.as_str(), "f");
    }

    #[test]
    fn errors_are_reported() {
        let mut i = Interner::new();
        let mut fe = Frontend::new(&mut i);
        for bad in [
            "(defun)",
            "(defun f)",
            "(defun f (x . y) x)",
            "(defun f (x) (go 1 2))",
            "(defun f (x) (quote))",
            "(defun f (x) (setq x))",
            "(defun f ((a)) a)",
        ] {
            let form = read_str(bad, &mut fe.interner.clone()).unwrap_or(Datum::Nil);
            if form.is_nil() {
                continue;
            }
            // Re-read with the shared interner.
            let form = read_str(bad, fe.interner).unwrap();
            assert!(fe.convert_defun(&form).is_err(), "{bad}");
        }
    }

    #[test]
    fn funcall_converts_to_computed_call() {
        let got = convert("(defun f (g x) (funcall g x 1))");
        assert_eq!(got, "(lambda (g x) (g x '1))");
    }

    #[test]
    fn sharp_quote_of_global_is_function_lookup() {
        let got = convert("(defun f () #'car)");
        assert_eq!(got, "(lambda () (%function 'car))");
    }
}
