//! The evaluator.
//!
//! A straightforward environment-passing interpreter over the internal
//! tree.  Function calls recurse (no tail-call optimization — that is the
//! *compiler's* contribution); `go`, `return`, and `throw` are modeled as
//! non-local flow values that propagate outward to the construct that
//! handles them.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use s1lisp_ast::{lists, CallFunc, Lambda, NodeId, NodeKind, Prim, ProgItem, Tree, VarId};
use s1lisp_frontend::Function as FeFunction;
use s1lisp_reader::{Interner, Symbol};

use crate::builtins::{self, Values};
use crate::error::LispError;
use crate::value::{Closure, EnvNode, Function, Value};

/// Non-local control flow (plus errors) during evaluation.
enum Flow {
    Go(Symbol),
    Return(Value),
    Throw(Value, Value),
    Err(LispError),
    /// A tail call to a named function, unwound to the nearest
    /// application loop (only raised when [`Interp::tco`] is on).
    TailCall(String, Vec<Value>),
}

type R = Result<Value, Flow>;

fn rt_err(msg: impl Into<String>) -> Flow {
    Flow::Err(LispError::new(msg))
}

/// A defined function: the frontend's tree, shared so closures can
/// outlive calls.
#[derive(Debug, Clone)]
struct FuncDef {
    name: String,
    tree: Rc<Tree>,
}

/// Execution statistics, used by the experiments (e.g. E4's call-depth
/// comparison against compiled code).
#[derive(Debug, Default)]
pub struct InterpStats {
    /// Total user-function applications.
    pub calls: Cell<u64>,
    /// Deepest user-function nesting reached.
    pub max_depth: Cell<usize>,
    /// Total special-variable lookups (each is a linear search in deep
    /// binding; compare experiment E10).
    pub special_lookups: Cell<u64>,
    /// Total closure objects constructed.
    pub closures_made: Cell<u64>,
}

impl InterpStats {
    /// Resets all counters.
    pub fn reset(&self) {
        self.calls.set(0);
        self.max_depth.set(0);
        self.special_lookups.set(0);
        self.closures_made.set(0);
    }
}

/// The interpreter: a table of functions, global values, and the deep
/// binding stack for special variables.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Interp {
    functions: HashMap<String, FuncDef>,
    globals: RefCell<HashMap<String, Value>>,
    /// Deep-binding stack: (name, value-cell), innermost last.
    specials: RefCell<Vec<(String, Rc<RefCell<Value>>)>>,
    /// The canonical truth symbol.
    t: Symbol,
    /// Function-call depth limit.  The default is conservative enough to
    /// signal a clean Lisp-level error before the host stack runs out,
    /// even in debug builds with 2 MiB test-thread stacks; raise it when
    /// running release builds on a generous stack.
    pub max_depth: usize,
    /// Honor the dialect's tail-recursive semantics (§2) by trampolining
    /// tail calls to named functions.  **Off by default**: the
    /// non-optimizing configuration is experiment E4's baseline, showing
    /// what the compiler's parameter-passing gotos buy.  Limitations
    /// (shared with the compiler's conservatisms): closures do not
    /// trampoline, and a tail call out of a `let` that binds specials
    /// unbinds them first.
    pub tco: bool,
    /// Execution statistics.
    pub stats: InterpStats,
}

impl Default for Interp {
    fn default() -> Interp {
        Interp::new()
    }
}

impl Interp {
    /// Creates an empty interpreter.
    pub fn new() -> Interp {
        Interp {
            functions: HashMap::new(),
            globals: RefCell::new(HashMap::new()),
            specials: RefCell::new(Vec::new()),
            t: Interner::new().intern("t"),
            max_depth: 150,
            tco: false,
            stats: InterpStats::default(),
        }
    }

    /// Defines (or redefines) a function converted by the frontend.
    pub fn define(&mut self, f: FeFunction) {
        let name = f.name.as_str().to_string();
        self.functions.insert(
            name.clone(),
            FuncDef {
                name,
                tree: Rc::new(f.tree),
            },
        );
    }

    /// Sets the global value of a (special) variable.
    pub fn set_global(&self, name: &str, value: Value) {
        self.globals.borrow_mut().insert(name.to_string(), value);
    }

    /// Reads the global value of a variable, if set.
    pub fn global(&self, name: &str) -> Option<Value> {
        self.globals.borrow().get(name).cloned()
    }

    /// Calls defined function `name` with `args`.
    ///
    /// # Errors
    ///
    /// Returns a [`LispError`] for run-time errors, uncaught `throw`s,
    /// or exceeding the call-depth limit.
    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value, LispError> {
        let def = self
            .functions
            .get(name)
            .ok_or_else(|| LispError::new(format!("undefined function {name}")))?;
        match self.apply_def(def, args.to_vec(), 0) {
            Ok(v) => Ok(v),
            Err(Flow::Err(e)) => Err(e),
            Err(Flow::Throw(tag, _)) => Err(LispError::new(format!("uncaught throw to {tag}"))),
            Err(Flow::Go(tag)) => Err(LispError::new(format!("go to unknown tag {tag}"))),
            Err(Flow::Return(_)) => Err(LispError::new("return outside progbody")),
            Err(Flow::TailCall(..)) => unreachable!("trampoline consumed in apply_def"),
        }
    }

    /// Calls a function *value* (closure or named function).
    ///
    /// # Errors
    ///
    /// As for [`Interp::call`].
    pub fn funcall(&self, f: &Value, args: &[Value]) -> Result<Value, LispError> {
        match self.apply_value(f, args.to_vec(), 0) {
            Ok(v) => Ok(v),
            Err(Flow::Err(e)) => Err(e),
            Err(Flow::Throw(tag, _)) => Err(LispError::new(format!("uncaught throw to {tag}"))),
            Err(_) => Err(LispError::new("non-local exit escaped function")),
        }
    }

    // ---- application ----

    fn apply_def(&self, def: &FuncDef, args: Vec<Value>, depth: usize) -> R {
        let mut def = def.clone();
        let mut args = args;
        loop {
            self.stats.calls.set(self.stats.calls.get() + 1);
            if depth + 1 > self.stats.max_depth.get() {
                self.stats.max_depth.set(depth + 1);
            }
            if depth >= self.max_depth {
                return Err(rt_err(format!(
                    "stack overflow: call depth exceeded {} in {}",
                    self.max_depth, def.name
                )));
            }
            let tree = def.tree.clone();
            let NodeKind::Lambda(l) = tree.kind(tree.root).clone() else {
                return Err(rt_err(format!("{} is not a lambda", def.name)));
            };
            match self.apply_lambda(&tree, &l, None, args, depth, &def.name) {
                Err(Flow::TailCall(name, next_args)) => {
                    let Some(next) = self.functions.get(&name) else {
                        return self.call_global(&name, next_args, depth);
                    };
                    def = next.clone();
                    args = next_args;
                }
                other => return other,
            }
        }
    }

    fn apply_value(&self, f: &Value, args: Vec<Value>, depth: usize) -> R {
        match f {
            Value::Func(Function::Closure(c)) => {
                self.stats.calls.set(self.stats.calls.get() + 1);
                if depth + 1 > self.stats.max_depth.get() {
                    self.stats.max_depth.set(depth + 1);
                }
                if depth >= self.max_depth {
                    return Err(rt_err("stack overflow: call depth exceeded"));
                }
                let NodeKind::Lambda(l) = c.tree.kind(c.lambda).clone() else {
                    return Err(rt_err("corrupt closure"));
                };
                self.apply_lambda(&c.tree, &l, c.env.clone(), args, depth, &c.name)
            }
            Value::Func(Function::Global(name)) => self.call_global(name, args, depth),
            other => Err(rt_err(format!("not a function: {other}"))),
        }
    }

    /// Calls the global function `name`: a definition, else a primitive.
    fn call_global(&self, name: &str, args: Vec<Value>, depth: usize) -> R {
        if let Some(def) = self.functions.get(name) {
            let def = def.clone();
            return self.apply_def(&def, args, depth);
        }
        match Prim::from_name(name) {
            Some(p) => builtins::call_builtin(p, &args, &self.t).map_err(Flow::Err),
            None => Err(rt_err(format!("undefined function {name}"))),
        }
    }

    /// Binds parameters and evaluates a lambda body.  Special parameters
    /// deep-bind on the dynamic stack; lexicals extend the environment
    /// chain.
    fn apply_lambda(
        &self,
        tree: &Rc<Tree>,
        l: &Lambda,
        env: Option<Rc<EnvNode>>,
        args: Vec<Value>,
        depth: usize,
        name: &str,
    ) -> R {
        self.apply_lambda_tail(tree, l, env, args, depth, name, self.tco)
    }

    /// As [`Interp::apply_lambda`], with explicit control over whether the
    /// body is in trampoline-tail position.
    #[allow(clippy::too_many_arguments)]
    fn apply_lambda_tail(
        &self,
        tree: &Rc<Tree>,
        l: &Lambda,
        mut env: Option<Rc<EnvNode>>,
        args: Vec<Value>,
        depth: usize,
        name: &str,
        body_tail: bool,
    ) -> R {
        let (min, max) = l.arity();
        if args.len() < min || max.map(|m| args.len() > m).unwrap_or(false) {
            return Err(rt_err(format!(
                "{name}: wrong number of arguments: got {}, wants {min}{}",
                args.len(),
                match max {
                    Some(m) if m == min => String::new(),
                    Some(m) => format!("..{m}"),
                    None => "+".to_string(),
                }
            )));
        }
        let mut specials_pushed = 0usize;
        let mut args = args.into_iter();
        let bind = |this: &Interp,
                    var: VarId,
                    value: Value,
                    env: &mut Option<Rc<EnvNode>>,
                    specials_pushed: &mut usize| {
            let v = tree.var(var);
            if v.special {
                this.specials
                    .borrow_mut()
                    .push((v.name.as_str().to_string(), Rc::new(RefCell::new(value))));
                *specials_pushed += 1;
            } else {
                *env = Some(Rc::new(EnvNode {
                    var,
                    value: RefCell::new(value),
                    next: env.take(),
                }));
            }
        };
        let mut result: Option<Flow> = None;
        for &p in &l.required {
            let value = args.next().expect("arity checked");
            bind(self, p, value, &mut env, &mut specials_pushed);
        }
        for opt in &l.optional {
            let value = match args.next() {
                Some(v) => Ok(v),
                // The default expression evaluates in the environment
                // built so far (it may refer to earlier parameters, §2).
                None => self.eval_tail(tree, opt.default, &env, depth + 1, false),
            };
            match value {
                Ok(v) => bind(self, opt.var, v, &mut env, &mut specials_pushed),
                Err(e) => {
                    result = Some(e);
                    break;
                }
            }
        }
        if result.is_none() {
            if let Some(rest) = l.rest {
                let value = Value::list(args.by_ref());
                bind(self, rest, value, &mut env, &mut specials_pushed);
            }
        }
        let out = match result {
            Some(e) => Err(e),
            None => self.eval_tail(tree, l.body, &env, depth + 1, body_tail),
        };
        // Unwind dynamic bindings regardless of how the body exited.
        let mut stack = self.specials.borrow_mut();
        let new_len = stack.len() - specials_pushed;
        stack.truncate(new_len);
        out
    }

    // ---- evaluation ----

    fn eval(&self, tree: &Rc<Tree>, node: NodeId, env: &Option<Rc<EnvNode>>, depth: usize) -> R {
        self.eval_tail(tree, node, env, depth, false)
    }

    /// Evaluation with a tail-position flag: when `tail` is set and TCO
    /// is enabled, a call to a named function unwinds to the nearest
    /// application loop instead of recursing (§2's tail-recursive
    /// semantics; closures do not trampoline).
    fn eval_tail(
        &self,
        tree: &Rc<Tree>,
        node: NodeId,
        env: &Option<Rc<EnvNode>>,
        depth: usize,
        tail: bool,
    ) -> R {
        match tree.kind(node) {
            NodeKind::Constant(d) => Ok(Value::from_datum(d)),
            NodeKind::VarRef(v) => self.read_var(tree, *v, env),
            NodeKind::Setq { var, value } => {
                let value = self.eval(tree, *value, env, depth)?;
                self.write_var(tree, *var, env, value.clone())?;
                Ok(value)
            }
            NodeKind::If { test, then, els } => {
                if self.eval(tree, *test, env, depth)?.is_true() {
                    self.eval_tail(tree, *then, env, depth, tail)
                } else {
                    self.eval_tail(tree, *els, env, depth, tail)
                }
            }
            NodeKind::Progn(body) => {
                let (last, init) = body.split_last().expect("progn non-empty");
                for &b in init {
                    self.eval(tree, b, env, depth)?;
                }
                self.eval_tail(tree, *last, env, depth, tail)
            }
            NodeKind::Lambda(_) => {
                self.stats
                    .closures_made
                    .set(self.stats.closures_made.get() + 1);
                Ok(Value::Func(Function::Closure(Rc::new(Closure {
                    tree: tree.clone(),
                    lambda: node,
                    env: env.clone(),
                    name: "anonymous".to_string(),
                }))))
            }
            NodeKind::Call { func, args } => self.eval_call(tree, func, args, env, depth, tail),
            NodeKind::Caseq {
                key,
                clauses,
                default,
            } => {
                let key = self.eval(tree, *key, env, depth)?;
                for clause in clauses {
                    for k in &clause.keys {
                        if key.eql_p(&Value::from_datum(k)) {
                            return self.eval_tail(tree, clause.body, env, depth, tail);
                        }
                    }
                }
                self.eval_tail(tree, *default, env, depth, tail)
            }
            NodeKind::Catcher { tag, body } => {
                let tag = self.eval(tree, *tag, env, depth)?;
                match self.eval(tree, *body, env, depth) {
                    Err(Flow::Throw(thrown, value)) if thrown.eql_p(&tag) => Ok(value),
                    other => other,
                }
            }
            NodeKind::Progbody(items) => self.eval_progbody(tree, items, env, depth),
            NodeKind::Go(tag) => Err(Flow::Go(tag.clone())),
            NodeKind::Return(v) => {
                let value = self.eval(tree, *v, env, depth)?;
                Err(Flow::Return(value))
            }
        }
    }

    fn eval_progbody(
        &self,
        tree: &Rc<Tree>,
        items: &[ProgItem],
        env: &Option<Rc<EnvNode>>,
        depth: usize,
    ) -> R {
        let has_tag = |tag: &Symbol| {
            items
                .iter()
                .any(|i| matches!(i, ProgItem::Tag(t) if t == tag))
        };
        let mut pc = 0usize;
        let mut steps: u64 = 0;
        while pc < items.len() {
            match &items[pc] {
                ProgItem::Tag(_) => pc += 1,
                ProgItem::Stmt(s) => match self.eval(tree, *s, env, depth) {
                    Ok(_) => pc += 1,
                    Err(Flow::Go(tag)) if has_tag(&tag) => {
                        pc = items
                            .iter()
                            .position(|i| matches!(i, ProgItem::Tag(t) if *t == tag))
                            .expect("has_tag");
                        steps += 1;
                        if steps > 100_000_000 {
                            return Err(rt_err("progbody loop exceeded step limit"));
                        }
                    }
                    Err(Flow::Return(v)) => return Ok(v),
                    Err(other) => return Err(other),
                },
            }
        }
        Ok(Value::Nil)
    }

    fn eval_call(
        &self,
        tree: &Rc<Tree>,
        func: &CallFunc,
        args: &[NodeId],
        env: &Option<Rc<EnvNode>>,
        depth: usize,
        tail: bool,
    ) -> R {
        let mut argv = Vec::with_capacity(args.len());
        match func {
            CallFunc::Expr(f) => {
                // ((lambda …) args…): a let — bind in the *current*
                // environment.  Otherwise a computed function.
                if let NodeKind::Lambda(l) = tree.kind(*f).clone() {
                    for &a in args {
                        argv.push(self.eval(tree, a, env, depth)?);
                    }
                    return self.apply_lambda_tail(
                        tree,
                        &l,
                        env.clone(),
                        argv,
                        depth,
                        "let",
                        tail && self.tco,
                    );
                }
                let fv = self.eval(tree, *f, env, depth)?;
                for &a in args {
                    argv.push(self.eval(tree, a, env, depth)?);
                }
                self.apply_value(&fv, argv, depth)
            }
            CallFunc::Global(g) => {
                let name = g.as_str();
                for &a in args {
                    argv.push(self.eval(tree, a, env, depth)?);
                }
                match Prim::from_name(name) {
                    Some(Prim::Throw) => match <[Value; 2]>::try_from(argv) {
                        Ok([tag, value]) => Err(Flow::Throw(tag, value)),
                        Err(_) => Err(rt_err("throw: wants tag and value")),
                    },
                    Some(Prim::Apply) => {
                        if argv.len() < 2 {
                            return Err(rt_err("apply: wants function and arguments"));
                        }
                        let spread = argv.pop().unwrap();
                        let f = argv.remove(0);
                        let mut rest = argv;
                        rest.extend(
                            lists::items(&Values, Prim::Apply, &spread).map_err(Flow::Err)?,
                        );
                        self.apply_value(&f, rest, depth)
                    }
                    Some(Prim::Function) => {
                        let [Value::Sym(s)] = argv.as_slice() else {
                            return Err(rt_err("%function: wants a symbol"));
                        };
                        Ok(Value::Func(Function::Global(s.as_str().to_string())))
                    }
                    Some(p) => builtins::call_builtin(p, &argv, &self.t).map_err(Flow::Err),
                    // §2: "a procedure call in this case is more akin to a
                    // parameter-passing goto".
                    None if tail && self.tco => Err(Flow::TailCall(name.to_string(), argv)),
                    None => self.call_global(name, argv, depth),
                }
            }
        }
    }

    // ---- variables ----

    fn read_var(&self, tree: &Rc<Tree>, v: VarId, env: &Option<Rc<EnvNode>>) -> R {
        let var = tree.var(v);
        if var.special {
            return self.read_special(var.name.as_str());
        }
        let mut cur = env.clone();
        while let Some(node) = cur {
            if node.var == v {
                return Ok(node.value.borrow().clone());
            }
            cur = node.next.clone();
        }
        Err(rt_err(format!("unbound lexical variable {}", var.name)))
    }

    fn write_var(
        &self,
        tree: &Rc<Tree>,
        v: VarId,
        env: &Option<Rc<EnvNode>>,
        value: Value,
    ) -> Result<(), Flow> {
        let var = tree.var(v);
        if var.special {
            return self.write_special(var.name.as_str(), value);
        }
        let mut cur = env.clone();
        while let Some(node) = cur {
            if node.var == v {
                *node.value.borrow_mut() = value;
                return Ok(());
            }
            cur = node.next.clone();
        }
        Err(rt_err(format!("unbound lexical variable {}", var.name)))
    }

    fn read_special(&self, name: &str) -> R {
        self.stats
            .special_lookups
            .set(self.stats.special_lookups.get() + 1);
        // Deep binding: linear search of the binding stack (§4.4).
        for (n, cell) in self.specials.borrow().iter().rev() {
            if n == name {
                return Ok(cell.borrow().clone());
            }
        }
        self.globals
            .borrow()
            .get(name)
            .cloned()
            .ok_or_else(|| rt_err(format!("unbound special variable {name}")))
    }

    fn write_special(&self, name: &str, value: Value) -> Result<(), Flow> {
        for (n, cell) in self.specials.borrow().iter().rev() {
            if n == name {
                *cell.borrow_mut() = value;
                return Ok(());
            }
        }
        self.globals.borrow_mut().insert(name.to_string(), value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::read_all_str;

    /// Builds an interpreter from source text.
    pub(super) fn load(src: &str) -> Interp {
        let mut i = Interner::new();
        let forms = read_all_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let fns = fe.convert_toplevel(&forms).unwrap();
        let mut interp = Interp::new();
        for f in fns {
            interp.define(f);
        }
        interp
    }

    fn fx(n: i64) -> Value {
        Value::Fixnum(n)
    }

    fn fl(x: f64) -> Value {
        Value::Flonum(x)
    }

    #[test]
    fn quadratic_roots() {
        let interp = load(
            "(defun quadratic (a b c)
               (let ((d (- (* b b) (* 4.0 a c))))
                 (cond ((< d 0) '())
                       ((= d 0) (list (/ (- b) (* 2.0 a))))
                       (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))
                            (list (/ (+ (- b) sd) two-a)
                                  (/ (- (- b) sd) two-a)))))))",
        );
        // x² - 3x + 2 = 0 → roots 2 and 1.
        let v = interp
            .call("quadratic", &[fl(1.0), fl(-3.0), fl(2.0)])
            .unwrap();
        assert_eq!(v, Value::list([fl(2.0), fl(1.0)]));
        // x² + 1 = 0 → no real roots.
        let v = interp
            .call("quadratic", &[fl(1.0), fl(0.0), fl(1.0)])
            .unwrap();
        assert_eq!(v, Value::Nil);
        // x² - 2x + 1 → double root 1.
        let v = interp
            .call("quadratic", &[fl(1.0), fl(-2.0), fl(1.0)])
            .unwrap();
        assert_eq!(v, Value::list([fl(1.0)]));
    }

    #[test]
    fn exptl_repeated_squaring() {
        let interp = load(
            "(defun exptl (x n a)
               (cond ((zerop n) a)
                     ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
                     (t (exptl (* x x) (floor (/ n 2)) a))))",
        );
        let v = interp.call("exptl", &[fx(3), fx(10), fx(1)]).unwrap();
        assert_eq!(v, fx(59049));
        // Call depth is logarithmic.
        assert!(interp.stats.max_depth.get() <= 6);
    }

    #[test]
    fn optional_defaults_as_in_testfn() {
        let interp = load("(defun f (a &optional (b 3.0) (c a)) (list a b c))");
        assert_eq!(
            interp.call("f", &[fx(1)]).unwrap(),
            Value::list([fx(1), fl(3.0), fx(1)])
        );
        assert_eq!(
            interp.call("f", &[fx(1), fx(2)]).unwrap(),
            Value::list([fx(1), fx(2), fx(1)])
        );
        assert_eq!(
            interp.call("f", &[fx(1), fx(2), fx(3)]).unwrap(),
            Value::list([fx(1), fx(2), fx(3)])
        );
        assert!(interp.call("f", &[]).is_err());
        assert!(interp.call("f", &[fx(1), fx(2), fx(3), fx(4)]).is_err());
    }

    #[test]
    fn rest_parameter_collects() {
        let interp = load("(defun f (a &rest r) (cons a r))");
        assert_eq!(
            interp.call("f", &[fx(1), fx(2), fx(3)]).unwrap(),
            Value::list([fx(1), fx(2), fx(3)])
        );
        assert_eq!(interp.call("f", &[fx(1)]).unwrap(), Value::list([fx(1)]));
    }

    #[test]
    fn closures_capture_lexically() {
        let interp = load(
            "(defun make-adder (n) (lambda (x) (+ x n)))
             (defun use-it () (let ((add3 (make-adder 3)) (add5 (make-adder 5)))
                                (list (add3 10) (add5 10))))",
        );
        assert_eq!(
            interp.call("use-it", &[]).unwrap(),
            Value::list([fx(13), fx(15)])
        );
        assert!(interp.stats.closures_made.get() >= 2);
    }

    #[test]
    fn closure_mutation_shares_environment() {
        let interp = load(
            "(defun make-counter ()
               (let ((n 0))
                 (lambda () (setq n (+ n 1)) n)))
             (defun run ()
               (let ((c (make-counter)))
                 (c) (c) (c)))",
        );
        assert_eq!(interp.call("run", &[]).unwrap(), fx(3));
    }

    #[test]
    fn special_variables_deep_bind() {
        let interp = load(
            "(proclaim '(special depth))
             (defun outer (depth) (declare (special depth)) (inner))
             (defun inner () depth)",
        );
        interp.set_global("depth", fx(0));
        // inner sees outer's dynamic binding, not the global.
        assert_eq!(interp.call("outer", &[fx(42)]).unwrap(), fx(42));
        assert_eq!(interp.call("inner", &[]).unwrap(), fx(0));
        assert!(interp.stats.special_lookups.get() >= 2);
    }

    #[test]
    fn special_bindings_unwind_on_throw() {
        let interp = load(
            "(proclaim '(special level))
             (defun probe () level)
             (defun thrower (level) (declare (special level)) (throw 'out 'gone))
             (defun run ()
               (catch 'out (thrower 9))
               (probe))",
        );
        interp.set_global("level", fx(1));
        assert_eq!(interp.call("run", &[]).unwrap(), fx(1));
    }

    #[test]
    fn catch_and_throw() {
        let interp = load(
            "(defun find-first (pred lst)
               (catch 'found (scan pred lst)))
             (defun scan (pred lst)
               (cond ((null lst) '())
                     ((pred (car lst)) (throw 'found (car lst)))
                     (t (scan pred (cdr lst)))))",
        );
        let lst = Value::list([fx(1), fx(2), fx(3), fx(4)]);
        let v = interp
            .funcall(
                &Value::Func(Function::Global("find-first".into())),
                &[Value::Func(Function::Global("evenp".into())), lst],
            )
            .unwrap();
        assert_eq!(v, fx(2));
    }

    #[test]
    fn prog_loop_iterates_without_recursion() {
        let interp = load(
            "(defun sum-to (n)
               (prog (acc)
                 (setq acc 0)
                 top
                 (if (= n 0) (return acc))
                 (setq acc (+ acc n) n (- n 1))
                 (go top)))",
        );
        assert_eq!(
            interp.call("sum-to", &[fx(100_000)]).unwrap(),
            fx(5_000_050_000)
        );
        // A progbody loop does not consume call depth.
        assert!(interp.stats.max_depth.get() <= 2);
    }

    #[test]
    fn do_and_dotimes_loop() {
        let interp = load(
            "(defun sum-squares (n)
               (let ((acc 0))
                 (dotimes (i n acc)
                   (setq acc (+ acc (* i i))))))",
        );
        assert_eq!(interp.call("sum-squares", &[fx(10)]).unwrap(), fx(285));
    }

    #[test]
    fn deep_recursion_overflows_cleanly() {
        let interp = load("(defun count-down (n) (if (= n 0) 'done (count-down (- n 1))))");
        let e = interp.call("count-down", &[fx(1_000_000)]).unwrap_err();
        assert!(e.message.contains("stack overflow"), "{e}");
    }

    #[test]
    fn caseq_dispatches_on_eql() {
        let interp = load(
            "(defun classify (x)
               (caseq x ((1 2 3) 'small) ((10) 'ten) (t 'other)))",
        );
        let mut i = Interner::new();
        assert_eq!(
            interp.call("classify", &[fx(2)]).unwrap(),
            Value::Sym(i.intern("small"))
        );
        assert_eq!(
            interp.call("classify", &[fx(10)]).unwrap(),
            Value::Sym(i.intern("ten"))
        );
        assert_eq!(
            interp.call("classify", &[fx(99)]).unwrap(),
            Value::Sym(i.intern("other"))
        );
    }

    #[test]
    fn higher_order_via_function_values() {
        let interp = load(
            "(defun compose (f g) (lambda (x) (f (g x))))
             (defun add1 (x) (+ x 1))
             (defun double (x) (* x 2))
             (defun run (x) ((compose #'add1 #'double) x))",
        );
        assert_eq!(interp.call("run", &[fx(5)]).unwrap(), fx(11));
    }

    #[test]
    fn tail_recursive_loop_consumes_interpreter_stack() {
        // The E4 baseline: without TCO, a tail-recursive loop's depth is
        // linear in n.
        let interp = load("(defun loopn (n) (if (= n 0) 'done (loopn (- n 1))))");
        interp.call("loopn", &[fx(120)]).unwrap();
        assert!(interp.stats.max_depth.get() >= 120);
    }

    #[test]
    fn setq_of_global_special() {
        let interp = load("(proclaim '(special *acc*)) (defun bump () (setq *acc* (+ *acc* 1)))");
        interp.set_global("*acc*", fx(0));
        interp.call("bump", &[]).unwrap();
        interp.call("bump", &[]).unwrap();
        assert_eq!(interp.global("*acc*").unwrap(), fx(2));
    }

    #[test]
    fn undefined_function_errors() {
        let interp = load("(defun f () (no-such-function 1))");
        assert!(interp.call("f", &[]).is_err());
        assert!(interp.call("nope", &[]).is_err());
    }
}

#[cfg(test)]
mod more_tests {
    use super::tests::load;
    use super::*;

    fn fx(n: i64) -> Value {
        Value::Fixnum(n)
    }

    #[test]
    fn apply_and_funcall_variants() {
        let interp = load(
            "(defun add3 (a b c) (+ a b c))
             (defun run (l) (apply #'add3 l))
             (defun run2 (f a l) (apply f a l))",
        );
        let l = Value::list([fx(1), fx(2), fx(3)]);
        assert_eq!(interp.call("run", &[l]).unwrap(), fx(6));
        // apply with leading loose arguments.
        let l2 = Value::list([fx(2), fx(3)]);
        assert_eq!(
            interp
                .call("run2", &[Value::global_function("add3"), fx(1), l2])
                .unwrap(),
            fx(6)
        );
    }

    #[test]
    fn do_star_steps_sequentially() {
        // With do*, b's step sees a's already-updated value.
        let interp = load(
            "(defun seq (n)
               (do* ((i 0 (+ i 1)) (a 0 (+ a 1)) (b 0 (+ a 10)))
                    ((= i n) (list a b))))",
        );
        let v = interp.call("seq", &[fx(2)]).unwrap();
        assert_eq!(v, Value::list([fx(2), fx(12)]));
        // Plain do steps in parallel: b sees the previous a.
        let interp = load(
            "(defun par (n)
               (do ((i 0 (+ i 1)) (a 0 (+ a 1)) (b 0 (+ a 10)))
                   ((= i n) (list a b))))",
        );
        let v = interp.call("par", &[fx(2)]).unwrap();
        assert_eq!(v, Value::list([fx(2), fx(11)]));
    }

    #[test]
    fn nested_catch_same_tag_inner_wins() {
        let interp = load(
            "(defun run ()
               (catch 'x (+ 100 (catch 'x (throw 'x 1)))))",
        );
        assert_eq!(interp.call("run", &[]).unwrap(), fx(101));
    }

    #[test]
    fn optional_default_error_propagates() {
        let interp = load("(defun f (&optional (x (car 5))) x)");
        assert!(interp.call("f", &[]).is_err());
        assert_eq!(interp.call("f", &[fx(1)]).unwrap(), fx(1));
    }

    #[test]
    fn throw_through_optional_default() {
        let interp = load(
            "(defun f (&optional (x (throw 'esc 'gone))) x)
             (defun run () (catch 'esc (f)))",
        );
        let v = interp.call("run", &[]).unwrap();
        assert_eq!(v.to_string(), "gone");
    }

    #[test]
    fn go_targets_resolve_innermost_first() {
        let interp = load(
            "(defun run ()
               (prog (acc)
                 (setq acc 0)
                 next
                 (prog (k)
                   (setq k 0)
                   next        ; shadows outer tag
                   (setq acc (+ acc 1))
                   (setq k (+ k 1))
                   (if (< k 3) (go next)))
                 (if (< acc 6) (go next))
                 (return acc)))",
        );
        assert_eq!(interp.call("run", &[]).unwrap(), fx(6));
    }

    #[test]
    fn stats_track_closures_and_lookups() {
        let interp = load(
            "(proclaim '(special *s*))
             (defun f () (lambda () *s*))
             (defun run () (funcall (f)))",
        );
        interp.set_global("*s*", fx(5));
        assert_eq!(interp.call("run", &[]).unwrap(), fx(5));
        assert_eq!(interp.stats.closures_made.get(), 1);
        assert_eq!(interp.stats.special_lookups.get(), 1);
    }
}

#[cfg(test)]
mod tco_tests {
    use super::tests::load;
    use super::*;

    fn fx(n: i64) -> Value {
        Value::Fixnum(n)
    }

    #[test]
    fn tco_runs_deep_loops_in_constant_depth() {
        let mut interp = load("(defun loopn (n) (if (= n 0) 'done (loopn (- n 1))))");
        interp.tco = true;
        let v = interp.call("loopn", &[fx(1_000_000)]).unwrap();
        assert_eq!(v.to_string(), "done");
        assert_eq!(interp.stats.max_depth.get(), 1);
    }

    #[test]
    fn tco_trampolines_mutual_recursion() {
        let mut interp = load(
            "(defun even? (n) (if (zerop n) t (odd? (- n 1))))
             (defun odd? (n) (if (zerop n) '() (even? (- n 1))))",
        );
        interp.tco = true;
        assert!(interp.call("even?", &[fx(100_000)]).unwrap().is_true());
        assert!(!interp.call("even?", &[fx(100_001)]).unwrap().is_true());
        assert_eq!(interp.stats.max_depth.get(), 1);
    }

    #[test]
    fn tco_preserves_results_of_the_corpus_shapes() {
        let mut a = load(
            "(defun exptl (x n acc)
               (cond ((zerop n) acc)
                     ((oddp n) (exptl (* x x) (floor (/ n 2)) (* acc x)))
                     (t (exptl (* x x) (floor (/ n 2)) acc))))",
        );
        let b = load(
            "(defun exptl (x n acc)
               (cond ((zerop n) acc)
                     ((oddp n) (exptl (* x x) (floor (/ n 2)) (* acc x)))
                     (t (exptl (* x x) (floor (/ n 2)) acc))))",
        );
        a.tco = true;
        let args = [fx(3), fx(10), fx(1)];
        assert_eq!(
            a.call("exptl", &args).unwrap(),
            b.call("exptl", &args).unwrap()
        );
    }

    #[test]
    fn non_tail_recursion_still_consumes_depth() {
        let mut interp = load("(defun fact (n) (if (zerop n) 1 (* n (fact (- n 1)))))");
        interp.tco = true;
        assert_eq!(interp.call("fact", &[fx(10)]).unwrap(), fx(3_628_800));
        assert!(interp.stats.max_depth.get() >= 10);
        assert!(
            interp.call("fact", &[fx(100_000)]).is_err(),
            "still overflows"
        );
    }

    #[test]
    fn tail_call_to_builtin_returns_its_value() {
        let mut interp = load(
            "(defun last-of (l) (car (my-reverse l)))
            (defun my-reverse (l) (rev2 l '()))
            (defun rev2 (l acc) (if (null l) acc (rev2 (cdr l) (cons (car l) acc))))",
        );
        interp.tco = true;
        let l = Value::list((1..=5).map(fx));
        assert_eq!(interp.call("last-of", &[l]).unwrap(), fx(5));
    }
}
