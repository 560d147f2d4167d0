//! The transformation rules.
//!
//! Each rule inspects one node and either rewrites it (returning `true`)
//! or leaves it alone.  One driver scan applies the *first* applicable
//! rule and returns, so backlinks and analyses are recomputed in full
//! between rewrites.

use std::collections::HashMap;

use s1lisp_analysis::{complexity, effects, Complexity, Effects};
use s1lisp_ast::{
    primop, subtree_nodes, unparse, CallFunc, Lambda, NodeId, NodeKind, Prim, Tree, VarId,
};
use s1lisp_reader::Datum;

use crate::Optimizer;

/// The single-precision approximation of 1/2π used by the paper's
/// `sin$f` → `sinc$f` conversion ("the conversion factor is a
/// floating-point approximation to 1/2π", §7).
pub const INVERSE_TWO_PI: f64 = 0.159154942;

/// Loop unrolling by self-integration (§5): each self-call is replaced
/// by a hygienically renamed copy of the whole function body bound as a
/// let — "integration of the procedure within itself".  One level only;
/// the copied body's own self-calls remain real calls.  Returns the
/// number of call sites integrated.
pub(crate) fn unroll_once(o: &mut Optimizer, tree: &mut Tree, self_name: &str) -> usize {
    let NodeKind::Lambda(root) = tree.kind(tree.root).clone() else {
        return 0;
    };
    if !root.is_simple() {
        return 0;
    }
    // Unrolling doubles the body: keep it to small loops.
    let sizes = complexity(tree);
    if sizes
        .get(&root.body)
        .map(|c| *c > Complexity(40))
        .unwrap_or(true)
    {
        return 0;
    }
    let sites: Vec<NodeId> = subtree_nodes(tree, root.body)
        .into_iter()
        .filter(|&n| {
            matches!(tree.kind(n),
                NodeKind::Call { func: CallFunc::Global(g), args }
                    if g.as_str() == self_name && args.len() == root.required.len())
        })
        .collect();
    let mut count = 0;
    for site in sites {
        let NodeKind::Call { args, .. } = tree.kind(site).clone() else {
            continue;
        };
        let b = before(tree, site);
        // A fresh copy of the whole function as a manifest lambda,
        // called with the site's arguments: ((lambda (params') body')
        // args…).  The beta rules then integrate it.
        let copy = {
            let mut namer = |sym: &s1lisp_reader::Symbol| o.gensym(sym.as_str());
            tree.copy_subtree_renaming(tree.root, &mut namer)
        };
        tree.replace(
            site,
            NodeKind::Call {
                func: CallFunc::Expr(copy),
                args,
            },
        );
        record(o, tree, "META-UNROLL-INTEGRATE-SELF", b, site);
        count += 1;
    }
    tree.rebuild_backlinks();
    count
}

/// Scans the tree and applies the first applicable transformation.
/// Returns 1 if something fired, 0 at fixpoint.
pub(crate) fn run_round(o: &mut Optimizer, tree: &mut Tree) -> usize {
    let cx = Cx::analyze(tree);
    // Canonicalizing rules run to quiescence before the beta-conversion
    // rules, matching the paper's transcript order (assoc/commut
    // reduction and sin→sinc appear before the substitutions in §7).
    for node in subtree_nodes(tree, tree.root) {
        if apply_canonical(o, tree, node) {
            return 1;
        }
    }
    for node in subtree_nodes(tree, tree.root) {
        if apply_beta(o, tree, node, &cx) {
            return 1;
        }
    }
    0
}

/// Cached analyses for the current scan.
struct Cx {
    effects: HashMap<NodeId, Effects>,
    complexity: HashMap<NodeId, Complexity>,
}

impl Cx {
    fn analyze(tree: &Tree) -> Cx {
        Cx {
            effects: effects(tree),
            complexity: complexity(tree),
        }
    }

    fn eff(&self, n: NodeId) -> Effects {
        self.effects.get(&n).copied().unwrap_or_default()
    }

    fn size(&self, n: NodeId) -> Complexity {
        self.complexity.get(&n).copied().unwrap_or(Complexity(99))
    }
}

#[allow(clippy::nonminimal_bool)] // each && guards one switchable rule
fn apply_canonical(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let opts = o.options.clone();
    (opts.if_simplify && if_constant_test(o, tree, node))
        || (opts.if_simplify && caseq_constant_key(o, tree, node))
        || (opts.if_simplify && if_known_test(o, tree, node))
        || (opts.if_lift && if_lift(o, tree, node))
        || (opts.if_distribution && if_distribute(o, tree, node))
        || (opts.assoc_commut && assoc_commut_nary(o, tree, node))
        || (opts.assoc_commut && reverse_arguments(o, tree, node))
        || (opts.assoc_commut && identity_elimination(o, tree, node))
        || (opts.constant_fold && constant_fold(o, tree, node))
        || (opts.sin_to_cycles && sin_to_cycles(o, tree, node))
}

#[allow(clippy::nonminimal_bool)] // each && guards one switchable rule
fn apply_beta(o: &mut Optimizer, tree: &mut Tree, node: NodeId, cx: &Cx) -> bool {
    let opts = o.options.clone();
    (opts.call_lambda && call_lambda(o, tree, node))
        || (opts.unused_args && delete_unused_argument(o, tree, node, cx))
        || (opts.substitution && substitute(o, tree, node, cx))
}

/// Records a transformation, with before-form captured by the caller.
fn record(o: &mut Optimizer, tree: &Tree, rule: &'static str, before: String, node: NodeId) {
    let after = unparse(tree, node).to_string();
    o.transcript.record(rule, before, after);
}

fn before(tree: &Tree, node: NodeId) -> String {
    unparse(tree, node).to_string()
}

/// The called manifest lambda of a let, if `node` is one.
fn let_lambda(tree: &Tree, node: NodeId) -> Option<(NodeId, Lambda, Vec<NodeId>)> {
    let NodeKind::Call {
        func: CallFunc::Expr(f),
        args,
    } = tree.kind(node)
    else {
        return None;
    };
    let NodeKind::Lambda(l) = tree.kind(*f) else {
        return None;
    };
    Some((*f, l.clone(), args.clone()))
}

// ---------------------------------------------------------------- if rules

/// Dead-code elimination: `(if 'k x y)` picks an arm at compile time.
fn if_constant_test(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::If { test, then, els } = *tree.kind(node) else {
        return false;
    };
    let NodeKind::Constant(d) = tree.kind(test) else {
        return false;
    };
    let chosen = if d.is_true() { then } else { els };
    let b = before(tree, node);
    let kind = tree.kind(chosen).clone();
    tree.replace(node, kind);
    record(o, tree, "META-IF-CONSTANT-TEST", b, node);
    true
}

/// Dead-code elimination for `caseq` with a constant key.
fn caseq_constant_key(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::Caseq {
        key,
        clauses,
        default,
    } = tree.kind(node).clone()
    else {
        return false;
    };
    let NodeKind::Constant(d) = tree.kind(key) else {
        return false;
    };
    let mut chosen = default;
    'search: for c in &clauses {
        for k in &c.keys {
            if k.eql(d) {
                chosen = c.body;
                break 'search;
            }
        }
    }
    let b = before(tree, node);
    let kind = tree.kind(chosen).clone();
    tree.replace(node, kind);
    record(o, tree, "META-CASEQ-CONSTANT-KEY", b, node);
    true
}

/// "Realizing that `b` is true in the inner `if` by virtue of the test in
/// the outer one" (§5): inside the arms of `(if v …)` where `v` is an
/// immutable lexical variable, inner tests of `v` are decided.
fn if_known_test(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::If { test, then, els } = *tree.kind(node) else {
        return false;
    };
    let NodeKind::VarRef(v) = *tree.kind(test) else {
        return false;
    };
    let var = tree.var(v);
    if var.special || !var.setqs.is_empty() {
        return false;
    }
    for (arm, truth) in [(then, true), (els, false)] {
        for inner in subtree_nodes(tree, arm) {
            let NodeKind::If {
                test: it,
                then: ithen,
                els: iels,
            } = *tree.kind(inner)
            else {
                continue;
            };
            if !matches!(*tree.kind(it), NodeKind::VarRef(w) if w == v) {
                continue;
            }
            let b = before(tree, inner);
            let chosen = if truth { ithen } else { iels };
            let kind = tree.kind(chosen).clone();
            tree.replace(inner, kind);
            record(o, tree, "META-IF-KNOWN-TEST", b, inner);
            return true;
        }
    }
    false
}

/// Semi-canonicalization (§5): `(if (progn a … q) x y)` ⇒
/// `(progn a … (if q x y))`, and `(if ((lambda (…) body) args) x y)` ⇒
/// `((lambda (…) (if body x y)) args)` — "the latter being valid only
/// because all variables … have effectively been uniformly renamed".
fn if_lift(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::If { test, then, els } = *tree.kind(node) else {
        return false;
    };
    match tree.kind(test).clone() {
        NodeKind::Progn(body) => {
            let b = before(tree, node);
            let (&last, init) = body.split_last().expect("progn non-empty");
            let inner_if = tree.if_(last, then, els);
            let mut new_body = init.to_vec();
            new_body.push(inner_if);
            tree.replace(node, NodeKind::Progn(new_body));
            record(o, tree, "META-IF-LIFT", b, node);
            true
        }
        NodeKind::Call {
            func: CallFunc::Expr(f),
            args,
        } => {
            let NodeKind::Lambda(mut l) = tree.kind(f).clone() else {
                return false;
            };
            if !l.is_simple() {
                return false;
            }
            let b = before(tree, node);
            let inner_if = tree.if_(l.body, then, els);
            l.body = inner_if;
            tree.replace(f, NodeKind::Lambda(l));
            tree.replace(
                node,
                NodeKind::Call {
                    func: CallFunc::Expr(f),
                    args,
                },
            );
            record(o, tree, "META-IF-LIFT", b, node);
            true
        }
        _ => false,
    }
}

/// The if-distribution transformation (§5) — "the essence of the boolean
/// short-circuiting idea":
///
/// ```text
/// (if (if x y z) v w)
///   ⇒ ((lambda (f g) (if x (if y (f) (g)) (if z (f) (g))))
///      (lambda () v)
///      (lambda () w))
/// ```
///
/// "The functions f and g are introduced to avoid space-wasting
/// duplication of the code for v and w."
fn if_distribute(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::If { test, then, els } = *tree.kind(node) else {
        return false;
    };
    let NodeKind::If {
        test: x,
        then: y,
        els: z,
    } = *tree.kind(test)
    else {
        return false;
    };
    let b = before(tree, node);
    let f = tree.add_var(o.gensym("f"));
    let g = tree.add_var(o.gensym("g"));
    let call = |tree: &mut Tree, v: VarId| {
        let r = tree.var_ref(v);
        tree.call_expr(r, Vec::new())
    };
    let (fy, gy, fz, gz) = (call(tree, f), call(tree, g), call(tree, f), call(tree, g));
    let inner_then = tree.if_(y, fy, gy);
    let inner_els = tree.if_(z, fz, gz);
    let new_if = tree.if_(x, inner_then, inner_els);
    let join = tree.lambda(vec![f, g], new_if);
    let thunk_v = tree.lambda(Vec::new(), then);
    let thunk_w = tree.lambda(Vec::new(), els);
    tree.replace(
        node,
        NodeKind::Call {
            func: CallFunc::Expr(join),
            args: vec![thunk_v, thunk_w],
        },
    );
    record(o, tree, "META-IF-DISTRIBUTE", b, node);
    true
}

// ------------------------------------------------- arithmetic canonicalizers

/// "Most associative operations with more than two arguments are reduced
/// to compositions of two-argument calls … This transformation is
/// completely table-driven." (§7.)  The fold is right-to-left, matching
/// the paper's transcript: `(+$f a b c)` ⇒ `(+$f (+$f c b) a)`.
fn assoc_commut_nary(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::Call {
        func: CallFunc::Global(g),
        args,
    } = tree.kind(node).clone()
    else {
        return false;
    };
    if args.len() <= 2 || !primop(g.as_str()).map(|p| p.assoc_commut).unwrap_or(false) {
        return false;
    }
    let b = before(tree, node);
    let mut rev = args;
    rev.reverse();
    let mut acc = tree.call_global(g.clone(), vec![rev[0], rev[1]]);
    for &a in &rev[2..rev.len() - 1] {
        acc = tree.call_global(g.clone(), vec![acc, a]);
    }
    let last = *rev.last().expect("len > 2");
    tree.replace(
        node,
        NodeKind::Call {
            func: CallFunc::Global(g),
            args: vec![acc, last],
        },
    );
    record(o, tree, "META-EVALUATE-ASSOC-COMMUT-CALL", b, node);
    true
}

/// "By convention constant arguments are put first where possible." (§7.)
fn reverse_arguments(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::Call {
        func: CallFunc::Global(g),
        args,
    } = tree.kind(node).clone()
    else {
        return false;
    };
    let [x, y] = args.as_slice() else {
        return false;
    };
    if !primop(g.as_str()).map(|p| p.assoc_commut).unwrap_or(false) {
        return false;
    }
    if !matches!(tree.kind(*y), NodeKind::Constant(_))
        || matches!(tree.kind(*x), NodeKind::Constant(_))
    {
        return false;
    }
    let b = before(tree, node);
    tree.replace(
        node,
        NodeKind::Call {
            func: CallFunc::Global(g),
            args: vec![*y, *x],
        },
    );
    record(o, tree, "CONSIDER-REVERSING-ARGUMENTS", b, node);
    true
}

/// "Table-driven elimination of identity operands" (§5): `(+ x 0)` ⇒ `x`,
/// `(*$f 1.0 x)` ⇒ `x`.
fn identity_elimination(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::Call {
        func: CallFunc::Global(g),
        args,
    } = tree.kind(node).clone()
    else {
        return false;
    };
    let [x, y] = args.as_slice() else {
        return false;
    };
    let Some(id) = primop(g.as_str()).and_then(|p| p.identity) else {
        return false;
    };
    let is_id =
        |tree: &Tree, n: NodeId| matches!(tree.kind(n), NodeKind::Constant(d) if id.matches(d));
    let survivor = if is_id(tree, *x) {
        *y
    } else if is_id(tree, *y) {
        *x
    } else {
        return false;
    };
    let b = before(tree, node);
    let kind = tree.kind(survivor).clone();
    tree.replace(node, kind);
    record(o, tree, "META-IDENTITY-ELIMINATION", b, node);
    true
}

/// Compile-time expression evaluation (§5): a pure primitive applied to
/// constants is evaluated now, via the reference interpreter's builtins
/// ("a very convenient thing to do in LISP with the apply operator!").
fn constant_fold(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::Call {
        func: CallFunc::Global(g),
        args,
    } = tree.kind(node).clone()
    else {
        return false;
    };
    let Some(p) = Prim::from_name(g.as_str()).filter(|p| p.info().pure_math) else {
        return false;
    };
    let mut datums = Vec::with_capacity(args.len());
    for a in &args {
        let NodeKind::Constant(d) = tree.kind(*a) else {
            return false;
        };
        datums.push(d.clone());
    }
    let Some(result) = s1lisp_interp::eval_primop(p, &datums) else {
        return false;
    };
    let b = before(tree, node);
    tree.replace(node, NodeKind::Constant(result));
    record(o, tree, "META-COMPILE-TIME-EVAL", b, node);
    true
}

/// The machine-inspired transformation of §7: "from `sin$f` (the sine
/// function with argument in radians) to `sinc$f` (the sine function with
/// argument in cycles) … the S-1 SIN instruction assumes its argument to
/// be in cycles.  The conversion factor is a floating-point approximation
/// to 1/2π."
fn sin_to_cycles(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let NodeKind::Call {
        func: CallFunc::Global(g),
        args,
    } = tree.kind(node).clone()
    else {
        return false;
    };
    let replacement = match g.as_str() {
        "sin$f" => "sinc$f",
        "cos$f" => "cosc$f",
        _ => return false,
    };
    let [x] = args.as_slice() else {
        return false;
    };
    let b = before(tree, node);
    let factor = tree.constant(Datum::Flonum(INVERSE_TWO_PI));
    let scaled = tree.call_global(o.intern("*$f"), vec![*x, factor]);
    tree.replace(
        node,
        NodeKind::Call {
            func: CallFunc::Global(o.intern(replacement)),
            args: vec![scaled],
        },
    );
    record(o, tree, "META-CONVERT-TO-CYCLES", b, node);
    true
}

// ----------------------------------------------------- beta-conversion rules

/// Rule 1 (§5): "a call with no arguments to a manifest lambda-expression
/// with no parameters can be replaced by the body of the
/// lambda-expression."
fn call_lambda(o: &mut Optimizer, tree: &mut Tree, node: NodeId) -> bool {
    let Some((_, l, args)) = let_lambda(tree, node) else {
        return false;
    };
    if !args.is_empty() || !l.required.is_empty() || !l.is_simple() {
        return false;
    }
    let b = before(tree, node);
    let kind = tree.kind(l.body).clone();
    tree.replace(node, kind);
    record(o, tree, "META-CALL-LAMBDA", b, node);
    true
}

/// Rule 2 (§5): a parameter "not referenced in body" whose argument's
/// "execution … has no side effects (except possibly heap-allocation)"
/// is deleted together with its argument.
fn delete_unused_argument(o: &mut Optimizer, tree: &mut Tree, node: NodeId, cx: &Cx) -> bool {
    let Some((f, l, args)) = let_lambda(tree, node) else {
        return false;
    };
    if !l.is_simple() || args.len() != l.required.len() {
        return false;
    }
    for (j, &vj) in l.required.iter().enumerate() {
        let var = tree.var(vj);
        if var.special || !var.refs.is_empty() || !var.setqs.is_empty() {
            continue;
        }
        if !cx.eff(args[j]).deletable() {
            continue;
        }
        let b = before(tree, node);
        remove_param(tree, node, f, j);
        record(o, tree, "META-DELETE-UNUSED-ARGUMENT", b, node);
        return true;
    }
    false
}

/// Removes parameter `j` (and the matching argument) from the let at
/// `node` whose lambda is `f`.
fn remove_param(tree: &mut Tree, node: NodeId, f: NodeId, j: usize) {
    let NodeKind::Lambda(mut l) = tree.kind(f).clone() else {
        unreachable!()
    };
    let NodeKind::Call { func, mut args } = tree.kind(node).clone() else {
        unreachable!()
    };
    l.required.remove(j);
    args.remove(j);
    tree.replace(f, NodeKind::Lambda(l));
    tree.replace(node, NodeKind::Call { func, args });
}

/// Rule 3 (§5): substitution of the argument expression for occurrences
/// of the parameter, with the paper's "collusion": when the argument has
/// one reference it is *moved*, and rule 2 immediately deletes the
/// parameter "lest the expression be evaluated twice after all".
fn substitute(o: &mut Optimizer, tree: &mut Tree, node: NodeId, cx: &Cx) -> bool {
    let Some((f, l, args)) = let_lambda(tree, node) else {
        return false;
    };
    if !l.is_simple() || args.len() != l.required.len() {
        return false;
    }
    for (j, &vj) in l.required.iter().enumerate() {
        let var = tree.var(vj).clone();
        if var.special || !var.setqs.is_empty() || var.refs.is_empty() {
            continue;
        }
        let aj = args[j];
        if is_trivial(tree, aj) {
            // Constant propagation / renaming: substitute everywhere.
            let b = before(tree, node);
            for &r in &var.refs {
                let copy = tree.copy_subtree(aj);
                let kind = tree.kind(copy).clone();
                tree.replace(r, kind);
            }
            remove_param(tree, node, f, j);
            record(o, tree, "META-SUBSTITUTE", b, node);
            return true;
        }
        let movable = movable_effects(tree, cx, aj);
        if !movable {
            continue;
        }
        if var.refs.len() == 1 {
            let r = var.refs[0];
            if !path_allows_move(tree, node, r) {
                continue;
            }
            let b = before(tree, node);
            let kind = tree.kind(aj).clone();
            tree.replace(r, kind);
            remove_param(tree, node, f, j);
            record(o, tree, "META-SUBSTITUTE", b, node);
            return true;
        }
        // Conservative multi-reference substitution (common
        // sub-expression *introduction*, §4.3): only cheap, duplicable
        // expressions, and only a few references.
        if cx.eff(aj).duplicable()
            && cx.size(aj) <= Complexity(2)
            && var.refs.len() <= 3
            && var.refs.iter().all(|&r| path_allows_move(tree, node, r))
        {
            let b = before(tree, node);
            for &r in &var.refs {
                let copy = tree.copy_subtree(aj);
                let kind = tree.kind(copy).clone();
                tree.replace(r, kind);
            }
            remove_param(tree, node, f, j);
            record(o, tree, "META-SUBSTITUTE", b, node);
            return true;
        }
    }
    false
}

/// Constants and immutable lexical variable references substitute freely.
fn is_trivial(tree: &Tree, n: NodeId) -> bool {
    match tree.kind(n) {
        NodeKind::Constant(_) => true,
        NodeKind::VarRef(w) => {
            let wv = tree.var(*w);
            !wv.special && wv.setqs.is_empty()
        }
        _ => false,
    }
}

/// The "certain complicated conditions regarding side effects" (§5) for
/// moving an argument expression to its use site: the expression must not
/// write, transfer control, call unknown code, or observe mutable heap
/// state, and every variable it reads must be immutable (never assigned)
/// — then no intervening computation can change its value.  This is what
/// licenses the paper's motion of `(sinc$f (*$f 0.159154942 e))` past the
/// call to `frotz` (§7).
fn movable_effects(tree: &Tree, cx: &Cx, arg: NodeId) -> bool {
    let e = cx.eff(arg);
    if e.writes_vars || e.writes_heap || e.control || e.calls_unknown || e.reads_heap {
        return false;
    }
    // Every variable read must be immutable and lexical.
    subtree_nodes(tree, arg)
        .iter()
        .all(|&n| match tree.kind(n) {
            NodeKind::VarRef(w) => {
                let wv = tree.var(*w);
                !wv.special && wv.setqs.is_empty()
            }
            _ => true,
        })
}

/// Moving an expression from the binding site to a use site must not put
/// it somewhere that executes a different number of times: crossing a
/// (non-let) lambda or a `progbody` loop is refused.
fn path_allows_move(tree: &Tree, call_node: NodeId, use_site: NodeId) -> bool {
    let mut cur = use_site;
    while let Some(parent) = tree.node(cur).parent {
        if cur == call_node {
            return true;
        }
        match tree.kind(cur) {
            NodeKind::Progbody(_) => return false,
            NodeKind::Lambda(_) => {
                // A manifest let-lambda body runs exactly once; a true
                // closure does not.
                let is_let = matches!(tree.kind(parent),
                    NodeKind::Call { func: CallFunc::Expr(f), .. } if *f == cur);
                if !is_let {
                    return false;
                }
            }
            _ => {}
        }
        cur = parent;
    }
    cur == call_node
}

impl Optimizer {
    /// Interns a fixed spelling in the optimizer's private interner
    /// (symbols compare by spelling, so these match the program's).
    pub(crate) fn intern(&mut self, s: &str) -> s1lisp_reader::Symbol {
        self.names.intern(s)
    }

    /// A fresh join-point name (`f%%1`, `g%%2`, …).
    pub(crate) fn gensym(&mut self, stem: &str) -> s1lisp_reader::Symbol {
        self.counter += 1;
        let name = format!("{stem}%%{}", self.counter);
        self.names.intern(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn optimize(src: &str) -> String {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let mut f = fe.convert_defun(&form).unwrap();
        let mut o = Optimizer::new();
        o.optimize(&mut f.tree);
        unparse(&f.tree, f.tree.root).to_string()
    }

    #[test]
    fn constant_test_selects_arm() {
        assert_eq!(
            optimize("(defun f () (if '1 'yes 'no))"),
            "(lambda () 'yes)"
        );
        assert_eq!(
            optimize("(defun f () (if '() 'yes 'no))"),
            "(lambda () 'no)"
        );
    }

    #[test]
    fn caseq_constant_key_selects_clause() {
        assert_eq!(
            optimize("(defun f () (caseq 2 ((1) 'one) ((2) 'two) (t 'other)))"),
            "(lambda () 'two)"
        );
        assert_eq!(
            optimize("(defun f () (caseq 9 ((1) 'one) (t 'other)))"),
            "(lambda () 'other)"
        );
    }

    #[test]
    fn known_test_simplifies_inner_if() {
        // (if p (if p a b) c) → (if p a c)
        assert_eq!(
            optimize("(defun f (p a b c) (if p (if p a b) c))"),
            "(lambda (p a b c) (if p a c))"
        );
        // In the else arm p is false.
        assert_eq!(
            optimize("(defun f (p a b c) (if p c (if p a b)))"),
            "(lambda (p a b c) (if p c b))"
        );
    }

    #[test]
    fn assigned_variables_are_not_known() {
        let out = optimize("(defun f (p a b) (if p (progn (setq p '()) (if p a b)) a))");
        assert!(out.contains("(if p a b)"), "{out}");
    }

    #[test]
    fn progn_test_lifts() {
        assert_eq!(
            optimize("(defun f (a b x y) (if (progn a b) x y))"),
            "(lambda (a b x y) (progn a (if b x y)))"
        );
    }

    #[test]
    fn nary_assoc_reduces_exactly_as_paper() {
        assert_eq!(
            optimize("(defun f (a b c) (+$f a b c))"),
            "(lambda (a b c) (+$f (+$f c b) a))"
        );
        // Four arguments nest once more.
        assert_eq!(
            optimize("(defun f (a b c d) (+$f a b c d))"),
            "(lambda (a b c d) (+$f (+$f (+$f d c) b) a))"
        );
    }

    #[test]
    fn constants_move_first() {
        assert_eq!(
            optimize("(defun f (e) (*$f e 0.5))"),
            "(lambda (e) (*$f '0.5 e))"
        );
        // Non-commutative operators keep their order.
        assert_eq!(
            optimize("(defun f (e) (-$f e 0.5))"),
            "(lambda (e) (-$f e '0.5))"
        );
    }

    #[test]
    fn identity_operands_vanish() {
        assert_eq!(optimize("(defun f (x) (+ x 0))"), "(lambda (x) x)");
        assert_eq!(optimize("(defun f (x) (*$f x 1.0))"), "(lambda (x) x)");
        assert_eq!(optimize("(defun f (x) (* 1 x))"), "(lambda (x) x)");
        // 0.0 is not the fixnum identity for +.
        let out = optimize("(defun f (x) (+ x 0.0))");
        assert!(out.contains("+"), "{out}");
    }

    #[test]
    fn constants_fold_at_compile_time() {
        assert_eq!(optimize("(defun f () (* 6 7))"), "(lambda () '42)");
        assert_eq!(optimize("(defun f () (< 1 2))"), "(lambda () 't)");
        assert_eq!(optimize("(defun f () (sqrt 4.0))"), "(lambda () '2.0)");
        // Division by zero is left for run time.
        let out = optimize("(defun f () (/ 1 0))");
        assert!(out.contains('/'), "{out}");
    }

    #[test]
    fn sin_becomes_sinc_with_factor() {
        assert_eq!(
            optimize("(defun f (e) (sin$f e))"),
            "(lambda (e) (sinc$f (*$f '0.159154942 e)))"
        );
    }

    #[test]
    fn single_use_pure_argument_moves_past_calls() {
        // The §7 motion: q's defining expression moves past (frotz …).
        assert_eq!(
            optimize("(defun f (d e) (let ((q (sqrt$f e))) (frotz d) q))"),
            "(lambda (d e) (progn (frotz d) (sqrt$f e)))"
        );
    }

    #[test]
    fn argument_does_not_move_into_loops() {
        let out = optimize(
            "(defun f (e) (let ((q (sqrt$f e)))
               (prog () top (frotz q) (go top))))",
        );
        assert!(out.contains("lambda (q)"), "moved into loop: {out}");
    }

    #[test]
    fn argument_reading_assigned_variable_stays_put() {
        let out = optimize("(defun f (e) (let ((q (sqrt$f e))) (setq e (frotz)) q))");
        assert!(out.contains("lambda (q)"), "illegal motion: {out}");
    }

    #[test]
    fn effectful_argument_is_not_moved() {
        let out = optimize("(defun f () (let ((q (frotz))) (g) q))");
        assert!(out.contains("lambda (q)"), "{out}");
    }

    #[test]
    fn procedure_integration_inlines_single_use_thunks() {
        // A let-bound lambda used once integrates and beta-reduces.
        assert_eq!(
            optimize("(defun f (x) (let ((g (lambda () (+ x 1)))) (g)))"),
            "(lambda (x) (+ '1 x))"
        );
    }

    #[test]
    fn multi_use_lambda_stays_bound() {
        let out = optimize("(defun f (p x) (let ((g (lambda () (frotz x)))) (if p (g) (g))))");
        assert!(out.contains("lambda (g"), "{out}");
    }

    #[test]
    fn names_do_not_collide_with_user_variables() {
        // User uses f and g as variables; join points must not capture.
        let out = optimize("(defun h (f g a) (if (if a f g) (f) (g)))");
        assert!(out.contains("f%%") || out.contains("(if a"), "{out}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::{OptOptions, Optimizer};
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn optimize_with(src: &str, options: OptOptions) -> (String, usize) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let mut f = fe.convert_defun(&form).unwrap();
        let mut o = Optimizer::with_options(options);
        let n = o.optimize(&mut f.tree);
        (unparse(&f.tree, f.tree.root).to_string(), n)
    }

    #[test]
    fn lambda_call_test_lifts_out_of_if() {
        // (if (let ((v e)) v) x y) — the §5 semi-canonicalization's
        // lambda form.
        let (out, _) = optimize_with(
            "(defun f (e x y) (if (let ((v (frotz e))) v) x y))",
            OptOptions::default(),
        );
        assert!(
            out.contains("(if v x y)") || out.contains("(if v"),
            "test should have moved inside the lambda: {out}"
        );
    }

    #[test]
    fn max_rounds_caps_work() {
        let (_, n) = optimize_with(
            "(defun f (a b c d) (if (and a (or b c)) (e1) (e2)))",
            OptOptions {
                max_rounds: 3,
                ..OptOptions::default()
            },
        );
        assert_eq!(n, 3, "exactly the budget");
    }

    #[test]
    fn caseq_key_constant_folds_through_arms() {
        let (out, _) = optimize_with(
            "(defun f () (caseq (+ 1 1) ((1) 'one) ((2) 'two) (t 'other)))",
            OptOptions::default(),
        );
        assert_eq!(out, "(lambda () 'two)");
    }

    #[test]
    fn identity_elimination_is_type_strict() {
        // 0 is the + identity but not the +$f identity.
        let (out, _) = optimize_with("(defun f (x) (+$f x 0))", OptOptions::default());
        assert!(out.contains("+$f"), "{out}");
        let (out2, _) = optimize_with("(defun f (x) (+$f x 0.0))", OptOptions::default());
        assert_eq!(out2, "(lambda (x) x)");
    }

    #[test]
    fn unused_effectful_argument_survives_in_order() {
        // Both arguments unused, one effectful: only the pure one is
        // deleted.
        let (out, _) = optimize_with(
            "(defun f (p) (let ((a (frotz)) (b (* p p))) 7))",
            OptOptions::default(),
        );
        assert!(out.contains("(frotz)"), "{out}");
        assert!(!out.contains("(* p p)"), "{out}");
    }

    #[test]
    fn deeply_nested_boolean_terminates() {
        let (out, n) = optimize_with(
            "(defun f (a b c d e) (if (and a (or b (and c (or d e)))) 1 2))",
            OptOptions::default(),
        );
        assert!(n < 200, "terminates well under the cap: {n}");
        assert!(!out.contains("and"), "{out}");
    }

    #[test]
    fn substitution_respects_catch_boundaries() {
        // The defining expression must not move into a catch body (the
        // catch may observe it earlier via throw-order effects).
        let (out, _) = optimize_with(
            "(defun f (x) (let ((q (frotz x))) (catch 'c (g) q)))",
            OptOptions::default(),
        );
        assert!(out.contains("lambda (q)"), "{out}");
    }

    #[test]
    fn sinc_constant_is_single_precision_inverse_two_pi() {
        assert!((INVERSE_TWO_PI - 1.0 / std::f64::consts::TAU).abs() < 1e-8);
        assert_eq!(format!("{INVERSE_TWO_PI}"), "0.159154942");
    }
}

#[cfg(test)]
mod unroll_tests {
    use super::*;
    use crate::{OptOptions, Optimizer};
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn run_unroll(src: &str, name: &str) -> (String, crate::Transcript) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let mut f = fe.convert_defun(&form).unwrap();
        let mut o = Optimizer::with_options(OptOptions {
            unroll: true,
            ..OptOptions::default()
        });
        o.fixpoint(&mut f.tree, Some(name), false).unwrap();
        (
            unparse(&f.tree, f.tree.root).to_string(),
            std::mem::take(&mut o.transcript),
        )
    }

    #[test]
    fn self_call_integrates_once() {
        let (out, tr) = run_unroll(
            "(defun countdown (n) (if (zerop n) 'done (countdown (- n 1))))",
            "countdown",
        );
        assert!(tr.count("META-UNROLL-INTEGRATE-SELF") == 1, "{tr}");
        // Two tests of zerop now exist (original + unrolled copy), and
        // the recursion survives inside the copy.
        assert_eq!(out.matches("zerop").count(), 2, "{out}");
        assert_eq!(out.matches("(countdown").count(), 1, "{out}");
    }

    #[test]
    fn big_bodies_are_left_alone() {
        let body: String = (0..30)
            .map(|i| format!("(frotz {i})"))
            .collect::<Vec<_>>()
            .join(" ");
        let src = format!("(defun f (n) (progn {body} (f (- n 1))))");
        let (_, tr) = run_unroll(&src, "f");
        assert_eq!(tr.count("META-UNROLL-INTEGRATE-SELF"), 0);
    }

    #[test]
    fn unroll_is_off_by_default() {
        let mut i = Interner::new();
        let form = read_str(
            "(defun countdown (n) (if (zerop n) 'done (countdown (- n 1))))",
            &mut i,
        )
        .unwrap();
        let mut fe = Frontend::new(&mut i);
        let mut f = fe.convert_defun(&form).unwrap();
        let mut o = Optimizer::new();
        o.fixpoint(&mut f.tree, Some("countdown"), false).unwrap();
        assert_eq!(o.transcript.count("META-UNROLL-INTEGRATE-SELF"), 0);
    }
}
