//! Tree, node, and variable data structures.

use s1lisp_reader::{Datum, Symbol};

/// Index of a [`Node`] in a [`Tree`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a [`Var`] in a [`Tree`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for VarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An optional type declaration attached to a variable (§2: declarations
/// are "treated as advice by the compiler").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeclaredType {
    /// Declared `fixnum`.
    Fixnum,
    /// Declared single-word flonum.
    Flonum,
}

/// The per-variable "little data structure" of §4.1.
///
/// Two variables with the same name may be distinct because of scoping
/// rules; alpha-renaming in the frontend additionally gives distinct
/// variables distinct [`Var::name`] spellings so back-translated code
/// stays unambiguous.
#[derive(Clone, Debug)]
pub struct Var {
    /// Source-level name (possibly alpha-renamed).
    pub name: Symbol,
    /// Whether the variable is dynamically scoped ("special").
    pub special: bool,
    /// The `lambda` node that binds this variable, or `None` for a global
    /// special.
    pub binder: Option<NodeId>,
    /// Back-pointers to every `VarRef` node (filled by
    /// [`Tree::rebuild_backlinks`]).
    pub refs: Vec<NodeId>,
    /// Back-pointers to every `Setq` node assigning this variable.
    pub setqs: Vec<NodeId>,
    /// Optional user type declaration.
    pub declared_type: Option<DeclaredType>,
}

/// An `&optional` parameter: the variable and the default-value
/// expression, which "may perform any computation, and may refer to other
/// parameters occurring earlier in the same formal parameter set" (§2).
#[derive(Clone, Debug)]
pub struct OptParam {
    /// The bound variable.
    pub var: VarId,
    /// Default-value expression node, evaluated when no argument is
    /// supplied.
    pub default: NodeId,
}

/// The parameter list and body of a `lambda` node.
#[derive(Clone, Debug)]
pub struct Lambda {
    /// Required parameters.
    pub required: Vec<VarId>,
    /// Optional parameters with default expressions.
    pub optional: Vec<OptParam>,
    /// `&rest` parameter receiving a list of excess arguments.
    pub rest: Option<VarId>,
    /// The body expression.
    pub body: NodeId,
}

impl Lambda {
    /// All parameter variables in order.
    pub fn all_params(&self) -> Vec<VarId> {
        let mut v = self.required.clone();
        v.extend(self.optional.iter().map(|o| o.var));
        v.extend(self.rest);
        v
    }

    /// Whether the lambda is "simple": required parameters only.
    pub fn is_simple(&self) -> bool {
        self.optional.is_empty() && self.rest.is_none()
    }

    /// Minimum and maximum (`None` = unbounded) argument counts.
    pub fn arity(&self) -> (usize, Option<usize>) {
        let min = self.required.len();
        let max = if self.rest.is_some() {
            None
        } else {
            Some(min + self.optional.len())
        };
        (min, max)
    }
}

/// The function position of a `call` node.
///
/// §4.1 Table 2: call "has three special cases of interest: calling a
/// lambda-expression (`let`), calling a known primitive operation (to be
/// compiled in-line), and calling a user- or system-defined function."
/// Lambda calls are `Expr` whose node is a `Lambda`; the primitive/user
/// distinction among `Global`s is made by the primitive table
/// ([`crate::Prim`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallFunc {
    /// A named global function (primitive or user-defined).
    Global(Symbol),
    /// A computed function expression (most importantly a manifest
    /// lambda-expression, i.e. a `let`).
    Expr(NodeId),
}

/// One clause of a `caseq`: a set of keys and the consequent expression.
#[derive(Clone, Debug)]
pub struct CaseqClause {
    /// Keys compared against the dispatch value with `eql`.
    pub keys: Vec<Datum>,
    /// Consequent expression.
    pub body: NodeId,
}

/// One item in a `progbody` statement sequence: either a go-tag or a
/// statement.
#[derive(Clone, Debug)]
pub enum ProgItem {
    /// A go-tag.
    Tag(Symbol),
    /// A statement node, executed for effect.
    Stmt(NodeId),
}

/// The construct a node represents — exactly the basic internal constructs
/// of Table 2 of the paper.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// `quote` — a constant.  "All constants are internally explicitly
    /// quoted for uniformity."
    Constant(Datum),
    /// Variable reference.
    VarRef(VarId),
    /// `setq` — assignment to a variable.
    Setq {
        /// Assigned variable.
        var: VarId,
        /// Value expression.
        value: NodeId,
    },
    /// If-then-else.  (`cond` is expressed in terms of `if` because `if`
    /// "is simpler and symmetric, making program transformations easier".)
    If {
        /// The test.
        test: NodeId,
        /// Consequent.
        then: NodeId,
        /// Alternative.
        els: NodeId,
    },
    /// Sequential execution (`progn`), the equivalent of a begin-end
    /// block; value is the last form's.
    Progn(
        /// The body forms, in execution order (never empty).
        Vec<NodeId>,
    ),
    /// Function invocation.
    Call {
        /// Function position.
        func: CallFunc,
        /// Argument expressions.
        args: Vec<NodeId>,
    },
    /// A lambda-expression; its value is a function (a lexical closure).
    Lambda(Lambda),
    /// A case statement dispatching on `eql` keys.
    Caseq {
        /// Dispatch value.
        key: NodeId,
        /// Clauses tried in order.
        clauses: Vec<CaseqClause>,
        /// Default expression when no clause matches.
        default: NodeId,
    },
    /// Target for non-local exits (the MACLISP `catch` construct).
    Catcher {
        /// Tag expression (usually a quoted symbol).
        tag: NodeId,
        /// Body whose `throw`s to the tag land here.
        body: NodeId,
    },
    /// A construct that contains tagged statements; `go` can jump to a
    /// tag and `return` can exit the construct.
    Progbody(
        /// Tags and statements in order.
        Vec<ProgItem>,
    ),
    /// Goto statement targeting a tag of the nearest enclosing
    /// `progbody` that defines it.
    Go(
        /// The tag.
        Symbol,
    ),
    /// Exits the nearest enclosing `progbody` with the value of the
    /// expression.
    Return(
        /// Result expression.
        NodeId,
    ),
}

impl NodeKind {
    /// Short name of the construct, as in Table 2.
    pub fn construct_name(&self) -> &'static str {
        match self {
            NodeKind::Constant(_) => "quote",
            NodeKind::VarRef(_) => "variable",
            NodeKind::Setq { .. } => "setq",
            NodeKind::If { .. } => "if",
            NodeKind::Progn(_) => "progn",
            NodeKind::Call { .. } => "call",
            NodeKind::Lambda(_) => "lambda",
            NodeKind::Caseq { .. } => "caseq",
            NodeKind::Catcher { .. } => "catcher",
            NodeKind::Progbody(_) => "progbody",
            NodeKind::Go(_) => "go",
            NodeKind::Return(_) => "return",
        }
    }
}

/// A tree node: a construct plus the "extra data slots … filled in by
/// successive phases".
#[derive(Clone, Debug)]
pub struct Node {
    /// The construct.
    pub kind: NodeKind,
    /// Parent link (one of the paper's "extra cross-links that effectively
    /// make it a general graph").  Maintained by
    /// [`Tree::rebuild_backlinks`].
    pub parent: Option<NodeId>,
}

/// The internal program tree: an arena of nodes and variables.
///
/// Transformations replace node kinds in place; nodes detached by a
/// transformation simply become unreachable from [`Tree::root`].
///
/// # Examples
///
/// ```
/// use s1lisp_ast::{Tree, NodeKind};
/// use s1lisp_reader::{Datum, Interner};
///
/// let mut i = Interner::new();
/// let mut t = Tree::new();
/// let one = t.constant(Datum::Fixnum(1));
/// let two = t.constant(Datum::Fixnum(2));
/// let call = t.call_global(i.intern("+"), vec![one, two]);
/// t.root = call;
/// t.rebuild_backlinks();
/// assert_eq!(s1lisp_ast::unparse(&t, call).to_string(), "(+ '1 '2)");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Tree {
    nodes: Vec<Node>,
    vars: Vec<Var>,
    /// The root expression (typically the whole-function `lambda`).
    pub root: NodeId,
}

impl Tree {
    /// Creates an empty tree whose root is a placeholder nil constant.
    pub fn new() -> Tree {
        let mut t = Tree {
            nodes: Vec::new(),
            vars: Vec::new(),
            root: NodeId(0),
        };
        t.root = t.constant(Datum::Nil);
        t
    }

    /// Adds a node with the given kind, returning its id.
    pub fn add(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, parent: None });
        id
    }

    /// Adds a fresh lexical variable.
    pub fn add_var(&mut self, name: Symbol) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Var {
            name,
            special: false,
            binder: None,
            refs: Vec::new(),
            setqs: Vec::new(),
            declared_type: None,
        });
        id
    }

    /// Immutable access to a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Shorthand for the node's kind.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.node(id).kind
    }

    /// Replaces the construct at `id`.
    pub fn replace(&mut self, id: NodeId, kind: NodeKind) {
        self.node_mut(id).kind = kind;
    }

    /// Immutable access to a variable.
    #[inline]
    pub fn var(&self, id: VarId) -> &Var {
        &self.vars[id.index()]
    }

    /// Mutable access to a variable.
    #[inline]
    pub fn var_mut(&mut self, id: VarId) -> &mut Var {
        &mut self.vars[id.index()]
    }

    /// Number of nodes ever allocated (including detached ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of variables ever allocated.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Iterates over all variable ids ever allocated.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len() as u32).map(VarId)
    }

    // ---- convenience constructors ----

    /// A `quote` node.
    pub fn constant(&mut self, d: Datum) -> NodeId {
        self.add(NodeKind::Constant(d))
    }

    /// A variable-reference node.
    pub fn var_ref(&mut self, v: VarId) -> NodeId {
        self.add(NodeKind::VarRef(v))
    }

    /// An `if` node.
    pub fn if_(&mut self, test: NodeId, then: NodeId, els: NodeId) -> NodeId {
        self.add(NodeKind::If { test, then, els })
    }

    /// A `progn` node.
    pub fn progn(&mut self, body: Vec<NodeId>) -> NodeId {
        assert!(!body.is_empty(), "progn must have at least one form");
        self.add(NodeKind::Progn(body))
    }

    /// A call to a named global function.
    pub fn call_global(&mut self, f: Symbol, args: Vec<NodeId>) -> NodeId {
        self.add(NodeKind::Call {
            func: CallFunc::Global(f),
            args,
        })
    }

    /// A call whose function position is an expression (e.g. a manifest
    /// lambda — a `let`).
    pub fn call_expr(&mut self, f: NodeId, args: Vec<NodeId>) -> NodeId {
        self.add(NodeKind::Call {
            func: CallFunc::Expr(f),
            args,
        })
    }

    /// A simple (required-parameters-only) lambda node.
    pub fn lambda(&mut self, required: Vec<VarId>, body: NodeId) -> NodeId {
        let id = self.add(NodeKind::Lambda(Lambda {
            required: required.clone(),
            optional: Vec::new(),
            rest: None,
            body,
        }));
        for v in required {
            self.var_mut(v).binder = Some(id);
        }
        id
    }

    /// The direct children of a node, in evaluation-relevant order
    /// (lambda default expressions and bodies included).
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        match self.kind(id) {
            NodeKind::Constant(_) | NodeKind::VarRef(_) | NodeKind::Go(_) => Vec::new(),
            NodeKind::Setq { value, .. } => vec![*value],
            NodeKind::Return(v) => vec![*v],
            NodeKind::If { test, then, els } => vec![*test, *then, *els],
            NodeKind::Progn(body) => body.clone(),
            NodeKind::Call { func, args } => {
                let mut v = Vec::new();
                if let CallFunc::Expr(f) = func {
                    v.push(*f);
                }
                v.extend(args.iter().copied());
                v
            }
            NodeKind::Lambda(l) => {
                let mut v: Vec<NodeId> = l.optional.iter().map(|o| o.default).collect();
                v.push(l.body);
                v
            }
            NodeKind::Caseq {
                key,
                clauses,
                default,
            } => {
                let mut v = vec![*key];
                v.extend(clauses.iter().map(|c| c.body));
                v.push(*default);
                v
            }
            NodeKind::Catcher { tag, body } => vec![*tag, *body],
            NodeKind::Progbody(items) => items
                .iter()
                .filter_map(|i| match i {
                    ProgItem::Stmt(s) => Some(*s),
                    ProgItem::Tag(_) => None,
                })
                .collect(),
        }
    }

    /// Rewrites every child slot of `id` using `f` (used by transformations
    /// that splice subtrees).
    pub fn map_children(&mut self, id: NodeId, mut f: impl FnMut(NodeId) -> NodeId) {
        let mut kind = self.node(id).kind.clone();
        match &mut kind {
            NodeKind::Constant(_) | NodeKind::VarRef(_) | NodeKind::Go(_) => {}
            NodeKind::Setq { value, .. } => *value = f(*value),
            NodeKind::Return(v) => *v = f(*v),
            NodeKind::If { test, then, els } => {
                *test = f(*test);
                *then = f(*then);
                *els = f(*els);
            }
            NodeKind::Progn(body) => {
                for b in body {
                    *b = f(*b);
                }
            }
            NodeKind::Call { func, args } => {
                if let CallFunc::Expr(fx) = func {
                    *fx = f(*fx);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            NodeKind::Lambda(l) => {
                for o in &mut l.optional {
                    o.default = f(o.default);
                }
                l.body = f(l.body);
            }
            NodeKind::Caseq {
                key,
                clauses,
                default,
            } => {
                *key = f(*key);
                for c in clauses {
                    c.body = f(c.body);
                }
                *default = f(*default);
            }
            NodeKind::Catcher { tag, body } => {
                *tag = f(*tag);
                *body = f(*body);
            }
            NodeKind::Progbody(items) => {
                for i in items {
                    if let ProgItem::Stmt(s) = i {
                        *s = f(*s);
                    }
                }
            }
        }
        self.replace(id, kind);
    }

    /// Recomputes parent links and per-variable reference/assignment
    /// back-pointers for the whole tree reachable from [`Tree::root`].
    ///
    /// Call after any batch of transformations.
    pub fn rebuild_backlinks(&mut self) {
        for n in &mut self.nodes {
            n.parent = None;
        }
        for v in &mut self.vars {
            v.refs.clear();
            v.setqs.clear();
        }
        let mut stack = vec![self.root];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            match self.kind(id).clone() {
                NodeKind::VarRef(v) => self.vars[v.index()].refs.push(id),
                NodeKind::Setq { var, .. } => self.vars[var.index()].setqs.push(id),
                NodeKind::Lambda(ref l) => {
                    for p in l.all_params() {
                        self.vars[p.index()].binder = Some(id);
                    }
                }
                _ => {}
            }
            for c in self.children(id) {
                self.nodes[c.index()].parent = Some(id);
                stack.push(c);
            }
        }
    }

    /// Deep structural equality of two subtrees (used by common
    /// sub-expression elimination and by tests).  Variables must be
    /// identical (`VarId`-equal), which is correct after alpha-renaming.
    pub fn subtree_equal(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let (na, nb) = (self.kind(a), self.kind(b));
        let shallow = match (na, nb) {
            (NodeKind::Constant(x), NodeKind::Constant(y)) => x.equal(y),
            (NodeKind::VarRef(x), NodeKind::VarRef(y)) => x == y,
            (NodeKind::Setq { var: x, .. }, NodeKind::Setq { var: y, .. }) => x == y,
            (NodeKind::If { .. }, NodeKind::If { .. }) => true,
            (NodeKind::Progn(x), NodeKind::Progn(y)) => x.len() == y.len(),
            (NodeKind::Call { func: fa, args: xa }, NodeKind::Call { func: fb, args: xb }) => {
                xa.len() == xb.len()
                    && match (fa, fb) {
                        (CallFunc::Global(g), CallFunc::Global(h)) => g == h,
                        (CallFunc::Expr(_), CallFunc::Expr(_)) => true,
                        _ => false,
                    }
            }
            (NodeKind::Lambda(la), NodeKind::Lambda(lb)) => {
                la.required == lb.required
                    && la.rest == lb.rest
                    && la.optional.len() == lb.optional.len()
                    && la
                        .optional
                        .iter()
                        .zip(&lb.optional)
                        .all(|(x, y)| x.var == y.var)
            }
            (NodeKind::Go(x), NodeKind::Go(y)) => x == y,
            (NodeKind::Return(_), NodeKind::Return(_)) => true,
            (NodeKind::Catcher { .. }, NodeKind::Catcher { .. }) => true,
            (NodeKind::Caseq { clauses: ca, .. }, NodeKind::Caseq { clauses: cb, .. }) => {
                ca.len() == cb.len()
                    && ca.iter().zip(cb).all(|(x, y)| {
                        x.keys.len() == y.keys.len()
                            && x.keys.iter().zip(&y.keys).all(|(p, q)| p.equal(q))
                    })
            }
            (NodeKind::Progbody(xa), NodeKind::Progbody(xb)) => {
                xa.len() == xb.len()
                    && xa.iter().zip(xb).all(|(p, q)| match (p, q) {
                        (ProgItem::Tag(s), ProgItem::Tag(t)) => s == t,
                        (ProgItem::Stmt(_), ProgItem::Stmt(_)) => true,
                        _ => false,
                    })
            }
            _ => false,
        };
        if !shallow {
            return false;
        }
        let (ca, cb) = (self.children(a), self.children(b));
        ca.len() == cb.len() && ca.iter().zip(&cb).all(|(&x, &y)| self.subtree_equal(x, y))
    }

    /// Makes a *hygienic* deep copy of the subtree at `id`: every
    /// variable bound by a lambda inside the subtree is replaced by a
    /// fresh variable (named by `rename`), with all its references and
    /// assignments remapped.  Free variables remain shared.  This is the
    /// "lambda can be viewed as a renaming operator" machinery that
    /// procedure integration and loop unrolling need.
    pub fn copy_subtree_renaming(
        &mut self,
        id: NodeId,
        rename: &mut dyn FnMut(&s1lisp_reader::Symbol) -> s1lisp_reader::Symbol,
    ) -> NodeId {
        use std::collections::HashMap;
        // Collect every variable bound within the subtree.
        let mut bound = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let NodeKind::Lambda(l) = self.kind(n) {
                bound.extend(l.all_params());
            }
            stack.extend(self.children(n));
        }
        let mut map: HashMap<VarId, VarId> = HashMap::new();
        for v in bound {
            if map.contains_key(&v) {
                continue;
            }
            let old = self.var(v).clone();
            let fresh = self.add_var(rename(&old.name));
            self.var_mut(fresh).special = old.special;
            self.var_mut(fresh).declared_type = old.declared_type;
            map.insert(v, fresh);
        }
        self.copy_remap(id, &map)
    }

    fn copy_remap(&mut self, id: NodeId, map: &std::collections::HashMap<VarId, VarId>) -> NodeId {
        let mut kind = self.node(id).kind.clone();
        let remap = |v: VarId| map.get(&v).copied().unwrap_or(v);
        match &mut kind {
            NodeKind::VarRef(v) => *v = remap(*v),
            NodeKind::Setq { var, .. } => *var = remap(*var),
            NodeKind::Lambda(l) => {
                for p in &mut l.required {
                    *p = remap(*p);
                }
                for o in &mut l.optional {
                    o.var = remap(o.var);
                }
                if let Some(r) = &mut l.rest {
                    *r = remap(*r);
                }
            }
            _ => {}
        }
        let new = self.add(kind);
        let children: Vec<NodeId> = self.children(new);
        let copies: Vec<NodeId> = children.iter().map(|&c| self.copy_remap(c, map)).collect();
        let mut i = 0;
        self.map_children(new, |_| {
            let c = copies[i];
            i += 1;
            c
        });
        new
    }

    /// Makes a deep copy of the subtree at `id`, returning the new root.
    /// Variables are shared, not copied (copying is the caller's business
    /// when required for hygiene).
    pub fn copy_subtree(&mut self, id: NodeId) -> NodeId {
        let kind = self.node(id).kind.clone();
        let new = self.add(kind);
        let children: Vec<NodeId> = self.children(new);
        let copies: Vec<NodeId> = children.iter().map(|&c| self.copy_subtree(c)).collect();
        let mut i = 0;
        self.map_children(new, |_| {
            let c = copies[i];
            i += 1;
            c
        });
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_reader::Interner;

    fn small_tree() -> (Tree, Interner, NodeId) {
        let mut i = Interner::new();
        let mut t = Tree::new();
        let x = t.add_var(i.intern("x"));
        let rx = t.var_ref(x);
        let one = t.constant(Datum::Fixnum(1));
        let call = t.call_global(i.intern("+"), vec![rx, one]);
        let lam = t.lambda(vec![x], call);
        t.root = lam;
        t.rebuild_backlinks();
        (t, i, lam)
    }

    #[test]
    fn backlinks_are_rebuilt() {
        let (t, _i, lam) = small_tree();
        let NodeKind::Lambda(l) = t.kind(lam) else {
            panic!()
        };
        let body = l.body;
        assert_eq!(t.node(body).parent, Some(lam));
        let x = l.required[0];
        assert_eq!(t.var(x).refs.len(), 1);
        assert_eq!(t.var(x).binder, Some(lam));
        assert_eq!(t.node(t.var(x).refs[0]).parent, Some(body));
    }

    #[test]
    fn children_cover_every_construct() {
        let mut i = Interner::new();
        let mut t = Tree::new();
        let v = t.add_var(i.intern("v"));
        let c1 = t.constant(Datum::Fixnum(1));
        let c2 = t.constant(Datum::Fixnum(2));
        let c3 = t.constant(Datum::Fixnum(3));
        let if_ = t.if_(c1, c2, c3);
        assert_eq!(t.children(if_).len(), 3);
        let sq = t.add(NodeKind::Setq { var: v, value: if_ });
        assert_eq!(t.children(sq), vec![if_]);
        let g = t.add(NodeKind::Go(i.intern("loop")));
        assert!(t.children(g).is_empty());
        let pb = t.add(NodeKind::Progbody(vec![
            ProgItem::Tag(i.intern("loop")),
            ProgItem::Stmt(sq),
            ProgItem::Stmt(g),
        ]));
        assert_eq!(t.children(pb).len(), 2);
        let r = t.add(NodeKind::Return(c1));
        assert_eq!(t.children(r), vec![c1]);
    }

    #[test]
    fn subtree_equality() {
        let mut i = Interner::new();
        let mut t = Tree::new();
        let x = t.add_var(i.intern("x"));
        let a1 = t.var_ref(x);
        let b1 = t.constant(Datum::Fixnum(1));
        let e1 = t.call_global(i.intern("+"), vec![a1, b1]);
        let a2 = t.var_ref(x);
        let b2 = t.constant(Datum::Fixnum(1));
        let e2 = t.call_global(i.intern("+"), vec![a2, b2]);
        assert!(t.subtree_equal(e1, e2));
        let b3 = t.constant(Datum::Fixnum(2));
        let e3 = t.call_global(i.intern("+"), vec![a1, b3]);
        assert!(!t.subtree_equal(e1, e3));
    }

    #[test]
    fn copy_subtree_is_deep() {
        let (mut t, _i, lam) = small_tree();
        let NodeKind::Lambda(l) = t.kind(lam).clone() else {
            panic!()
        };
        let copy = t.copy_subtree(l.body);
        assert_ne!(copy, l.body);
        assert!(t.subtree_equal(copy, l.body));
        // Mutating the copy leaves the original intact.
        t.replace(copy, NodeKind::Constant(Datum::Nil));
        assert!(!t.subtree_equal(copy, l.body));
    }

    #[test]
    fn map_children_rewrites_slots() {
        let (mut t, mut i, lam) = small_tree();
        let NodeKind::Lambda(l) = t.kind(lam).clone() else {
            panic!()
        };
        let nil = t.constant(Datum::Nil);
        t.map_children(l.body, |_| nil);
        let NodeKind::Call { args, .. } = t.kind(l.body) else {
            panic!()
        };
        assert!(args.iter().all(|&a| a == nil));
        let _ = i.intern("unused");
    }

    #[test]
    fn arity_of_lambda_forms() {
        let mut i = Interner::new();
        let mut t = Tree::new();
        let a = t.add_var(i.intern("a"));
        let b = t.add_var(i.intern("b"));
        let r = t.add_var(i.intern("r"));
        let d = t.constant(Datum::Fixnum(0));
        let body = t.constant(Datum::Nil);
        let l = Lambda {
            required: vec![a],
            optional: vec![OptParam { var: b, default: d }],
            rest: Some(r),
            body,
        };
        assert_eq!(l.arity(), (1, None));
        assert!(!l.is_simple());
        assert_eq!(l.all_params(), vec![a, b, r]);
    }
}

#[cfg(test)]
mod hygiene_tests {
    use super::*;
    use s1lisp_reader::Interner;

    #[test]
    fn hygienic_copy_renames_bound_keeps_free() {
        let mut i = Interner::new();
        let mut t = Tree::new();
        let free = t.add_var(i.intern("free"));
        let bound = t.add_var(i.intern("b"));
        // (lambda (b) (+ b free))
        let rb = t.var_ref(bound);
        let rf = t.var_ref(free);
        let call = t.call_global(i.intern("+"), vec![rb, rf]);
        let lam = t.lambda(vec![bound], call);
        t.root = lam;
        t.rebuild_backlinks();
        let mut counter = 0;
        let copy = t.copy_subtree_renaming(lam, &mut |name| {
            counter += 1;
            i.intern(&format!("{name}%u{counter}"))
        });
        // Structure equal apart from variable identity.
        let NodeKind::Lambda(lc) = t.kind(copy).clone() else {
            panic!()
        };
        assert_ne!(lc.required[0], bound, "bound variable is fresh");
        assert_eq!(t.var(lc.required[0]).name.as_str(), "b%u1");
        // The copy's body references the fresh bound var and the SAME
        // free var.
        let NodeKind::Call { args, .. } = t.kind(lc.body).clone() else {
            panic!()
        };
        assert!(matches!(*t.kind(args[0]), NodeKind::VarRef(v) if v == lc.required[0]));
        assert!(matches!(*t.kind(args[1]), NodeKind::VarRef(v) if v == free));
        // The original is untouched.
        let NodeKind::Lambda(lo) = t.kind(lam).clone() else {
            panic!()
        };
        assert_eq!(lo.required[0], bound);
    }
}
