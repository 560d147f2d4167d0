//! Pdl number annotation (§6.3).
//!
//! "A lifetime analysis of those numerical quantities that must be
//! converted to pointer form determines when stack allocation may be used
//! rather than heap allocation."  Two flags per node, computed in a
//! combined top-down/bottom-up walk (the paper's "outorder" tree walk):
//!
//! * **PDLOKP** — "whether the node's parent is willing to accept a pdl
//!   number (unsafe pointer) as the result of this node."  More than a
//!   flag: "if not false, it points to the node that originally
//!   authorized the use of a pdl number" — the value's required lifetime.
//! * **PDLNUMP** — "whether the node itself might be inclined to produce
//!   a pdl number."
//!
//! A node whose PDLOKP is non-false, whose PDLNUMP is true, whose WANTREP
//! is POINTER, and whose ISREP is a boxable numeric representation gets a
//! stack slot instead of a heap box.
//!
//! A parameter is maybe-unsafe because "a caller may pass a pdl number
//! in".  In a self-tail loop (§2's parameter-passing goto) only the
//! entry value comes from a caller: a parameter whose every loop
//! assignment is pdl-free is certified once, at entry
//! ([`PdlInfo::entry_certified`]), and its references are safe.

use std::collections::{HashMap, HashSet};

use s1lisp_analysis::tail_nodes_from;
use s1lisp_ast::{primop, CallFunc, Inline, NodeId, NodeKind, ProgItem, Tree, VarId};

use crate::binding::{BindingInfo, VarAlloc};
use crate::rep::{Rep, RepInfo};

/// The results of pdl-number annotation.
#[derive(Clone, Debug, Default)]
pub struct PdlInfo {
    /// PDLOKP: the authorizing node, if any ("the lifetime of the pdl
    /// number must extend at least until execution of the \[authorizing\]
    /// node").
    pub pdlokp: HashMap<NodeId, Option<NodeId>>,
    /// PDLNUMP: might this node produce a pdl number?
    pub pdlnump: HashMap<NodeId, bool>,
    /// Nodes whose raw-number→pointer coercion may allocate on the
    /// stack.
    pub stack_boxes: HashSet<NodeId>,
    /// Nodes whose value might be an unsafe (stack) pointer — the
    /// certification analysis: such values must be certified before
    /// reaching an unsafe operation or being returned.
    pub maybe_unsafe: HashMap<NodeId, bool>,
    /// Parameters the function certifies once, on entry: each is used
    /// in a place a pdl number may not go, other than as the returned
    /// value, and every value a self tail call or a `setq` assigns it
    /// is pdl-free (a generic or list result, a user call's result, or
    /// another such parameter).  Their references are safe.
    pub entry_certified: HashSet<VarId>,
}

impl PdlInfo {
    /// Whether the coercion at `node` may stack-allocate.
    pub fn stack_box(&self, node: NodeId) -> bool {
        self.stack_boxes.contains(&node)
    }

    /// Whether the value of `node` might be an unsafe pointer.
    pub fn unsafe_p(&self, node: NodeId) -> bool {
        self.maybe_unsafe.get(&node).copied().unwrap_or(false)
    }
}

/// Runs pdl-number annotation on the function `name` (its self tail
/// calls are the calls to `name`).
pub fn pdl_annotation(tree: &Tree, binding: &BindingInfo, rep: &RepInfo, name: &str) -> PdlInfo {
    let mut info = PdlInfo::default();
    okp_pass(tree, tree.root, None, binding, &mut info);
    let assigned = loop_assignments(tree, binding, rep, name, &info);
    let mut certified: HashSet<VarId> = assigned.keys().copied().collect();
    loop {
        info.entry_certified = certified.clone();
        nump_pass(tree, tree.root, binding, rep, &mut info);
        certified.retain(|p| assigned[p].iter().all(|&value| !info.unsafe_p(value)));
        if certified.len() == info.entry_certified.len() {
            break;
        }
    }
    // "The TNBIND phase was then modified to attach an extra TN to a node
    // when all of the following conditions hold" (§6.3):
    for (&node, &auth) in &info.pdlokp {
        if auth.is_none() {
            continue;
        }
        if !info.pdlnump.get(&node).copied().unwrap_or(false) {
            continue;
        }
        if rep.want(node) != Rep::Pointer {
            continue;
        }
        if !rep.is(node).is_raw_numeric() || rep.is(node) == Rep::Swfix {
            // Fixnums are immediate in this implementation: no box at
            // all, so no pdl slot either.
            continue;
        }
        info.stack_boxes.insert(node);
    }
    info
}

/// The candidates for entry certification, each with the values that
/// self tail calls and `setq`s assign it: the stack-allocated pointer
/// parameters of a simple function with a self tail call, used in a
/// place a pdl number may not go (PDLOKP false) that is not the
/// function's value.  A function without a self tail call has none:
/// certifying on entry would only add an instruction to every call.
fn loop_assignments(
    tree: &Tree,
    binding: &BindingInfo,
    rep: &RepInfo,
    name: &str,
    info: &PdlInfo,
) -> HashMap<VarId, Vec<NodeId>> {
    let mut out = HashMap::new();
    let NodeKind::Lambda(l) = tree.kind(tree.root) else {
        return out;
    };
    if !l.is_simple() {
        return out;
    }
    let tails = tail_nodes_from(tree, tree.root);
    let self_calls: Vec<&[NodeId]> = tails
        .iter()
        .filter_map(|&n| match tree.kind(n) {
            NodeKind::Call {
                func: CallFunc::Global(g),
                args,
            } if g.as_str() == name && args.len() == l.required.len() => Some(&args[..]),
            _ => None,
        })
        .collect();
    if self_calls.is_empty() {
        return out;
    }
    for (j, &p) in l.required.iter().enumerate() {
        let var = tree.var(p);
        let used_unsafely = var
            .refs
            .iter()
            .any(|r| info.pdlokp.get(r) == Some(&None) && !tails.contains(r));
        if var.special
            || binding.var_alloc.get(&p) != Some(&VarAlloc::Stack)
            || rep.var_rep.get(&p).copied().unwrap_or(Rep::Pointer) != Rep::Pointer
            || !used_unsafely
        {
            continue;
        }
        let mut values: Vec<NodeId> = self_calls.iter().map(|args| args[j]).collect();
        for &sq in &var.setqs {
            if let NodeKind::Setq { value, .. } = tree.kind(sq) {
                values.push(*value);
            }
        }
        out.insert(p, values);
    }
    out
}

/// Top-down PDLOKP pass.
fn okp_pass(
    tree: &Tree,
    node: NodeId,
    auth: Option<NodeId>,
    binding: &BindingInfo,
    info: &mut PdlInfo,
) {
    info.pdlokp.insert(node, auth);
    match tree.kind(node) {
        NodeKind::Constant(_) | NodeKind::VarRef(_) | NodeKind::Go(_) => {}
        NodeKind::Setq { var, value } => {
            // Storing into a stack variable keeps the pointer within the
            // frame; storing into a heap cell or a special publishes it.
            let ok = binding.var_alloc.get(var) == Some(&VarAlloc::Stack);
            okp_pass(tree, *value, ok.then_some(node), binding, info);
        }
        NodeKind::If { test, then, els } => {
            // "The processing of an if node simply passes the PDLOKP
            // authorization of its parent down to the two arms …  On the
            // other hand, it always of itself authorizes the predicate
            // computation, because the conditional test performed by if
            // is a safe operation."
            okp_pass(tree, *test, Some(node), binding, info);
            okp_pass(tree, *then, auth, binding, info);
            okp_pass(tree, *els, auth, binding, info);
        }
        NodeKind::Progn(body) => {
            let (last, init) = body.split_last().expect("non-empty");
            for &b in init {
                okp_pass(tree, b, Some(node), binding, info);
            }
            okp_pass(tree, *last, auth, binding, info);
        }
        NodeKind::Call { func, args } => match func {
            CallFunc::Global(g) => {
                // "in the context (+$f x y), the node for x is permitted
                // to produce a pdl number … in (rplaca x y), y may not."
                // Passing a pointer to a user procedure is safe.
                let safe = primop(g.as_str()).map(|p| p.pdl_safe).unwrap_or(true);
                for &a in args {
                    okp_pass(tree, a, safe.then_some(node), binding, info);
                }
            }
            CallFunc::Expr(f) => {
                if let NodeKind::Lambda(l) = tree.kind(*f) {
                    // A let: each init binds a variable; stack variables
                    // may hold pdl numbers for the whole let.
                    info.pdlokp.insert(*f, None);
                    for (j, &a) in args.iter().enumerate() {
                        let ok = l
                            .required
                            .get(j)
                            .map(|v| binding.var_alloc.get(v) == Some(&VarAlloc::Stack))
                            .unwrap_or(false);
                        okp_pass(tree, a, ok.then_some(node), binding, info);
                    }
                    for opt in &l.optional {
                        okp_pass(tree, opt.default, None, binding, info);
                    }
                    okp_pass(tree, l.body, auth, binding, info);
                } else {
                    okp_pass(tree, *f, Some(node), binding, info);
                    for &a in args {
                        okp_pass(tree, a, Some(node), binding, info);
                    }
                }
            }
        },
        NodeKind::Lambda(l) => {
            // A closure body runs at an unknown time: nothing in it may
            // rely on the current frame's pdl slots.
            for opt in &l.optional {
                okp_pass(tree, opt.default, None, binding, info);
            }
            okp_pass(tree, l.body, None, binding, info);
        }
        NodeKind::Caseq {
            key,
            clauses,
            default,
        } => {
            okp_pass(tree, *key, Some(node), binding, info);
            for c in clauses {
                okp_pass(tree, c.body, auth, binding, info);
            }
            okp_pass(tree, *default, auth, binding, info);
        }
        NodeKind::Catcher { tag, body } => {
            okp_pass(tree, *tag, Some(node), binding, info);
            // Thrown/caught values escape the expression context.
            okp_pass(tree, *body, None, binding, info);
        }
        NodeKind::Progbody(items) => {
            for item in items {
                if let ProgItem::Stmt(s) = item {
                    okp_pass(tree, *s, Some(node), binding, info);
                }
            }
        }
        NodeKind::Return(v) => {
            // The returned value leaves the progbody; give it the
            // progbody's own authorization (none if the progbody's value
            // escapes the function).
            okp_pass(tree, *v, None, binding, info);
        }
    }
}

/// Bottom-up PDLNUMP / maybe-unsafe pass.
fn nump_pass(
    tree: &Tree,
    node: NodeId,
    binding: &BindingInfo,
    rep: &RepInfo,
    info: &mut PdlInfo,
) -> (bool, bool) {
    let mut child_results = Vec::new();
    for c in tree.children(node) {
        child_results.push((c, nump_pass(tree, c, binding, rep, info)));
    }
    let get = |n: NodeId, results: &[(NodeId, (bool, bool))]| {
        results
            .iter()
            .find(|(id, _)| *id == n)
            .map(|(_, r)| *r)
            .unwrap_or((false, false))
    };
    let (nump, unsafe_p) = match tree.kind(node) {
        NodeKind::Constant(_) => (false, false),
        // Any pointer-holding stack variable might hold a pdl number
        // (the calling convention lets callers pass them in); and a
        // *raw-representation* variable produces one when a pointer is
        // required (the box happens at the reference).
        NodeKind::VarRef(v) => {
            let raw = rep.var_rep.get(v).copied().unwrap_or(Rep::Pointer);
            let produces = raw.is_raw_numeric() && raw != Rep::Swfix;
            let unsafe_p = if produces {
                // A raw float variable holds no pointer (pdl numbers
                // exist only where floats are raw); its boxed value is
                // a pdl number only where it is boxed on the stack.
                authorized(node, info)
            } else {
                binding.var_alloc.get(v) == Some(&VarAlloc::Stack)
                    && !info.entry_certified.contains(v)
            };
            (produces, unsafe_p)
        }
        NodeKind::Setq { value, .. } => get(*value, &child_results),
        NodeKind::If { then, els, .. } => {
            let (n1, u1) = get(*then, &child_results);
            let (n2, u2) = get(*els, &child_results);
            (n1 || n2, u1 || u2)
        }
        NodeKind::Progn(body) => get(*body.last().expect("non-empty"), &child_results),
        NodeKind::Call { func, args: _ } => match func {
            CallFunc::Global(g) => match primop(g.as_str()) {
                // "the result of (+$f x y) might well be a pdl number if
                // a pointer result is required.  On the other hand, the
                // result of (car x) is never a pdl number."  Generic
                // operations lowered by type deduction count too.  Only
                // an authorized node is boxed on the stack: any other
                // boxes its raw result in the heap, which is safe.
                Some(p) => {
                    let numeric = matches!(p.inline, Inline::Flonum | Inline::Fixnum)
                        || (rep.is(node).is_raw_numeric() && rep.is(node) != Rep::Swfix);
                    (numeric, numeric && p.pdl_safe && authorized(node, info))
                }
                // "values returned by procedures … are guaranteed safe".
                None => (false, false),
            },
            CallFunc::Expr(f) => {
                if let NodeKind::Lambda(l) = tree.kind(*f) {
                    get(l.body, &child_results)
                } else {
                    (false, false)
                }
            }
        },
        NodeKind::Caseq {
            clauses, default, ..
        } => {
            let mut acc = get(*default, &child_results);
            for c in clauses {
                let r = get(c.body, &child_results);
                acc = (acc.0 || r.0, acc.1 || r.1);
            }
            acc
        }
        _ => (false, false),
    };
    info.pdlnump.insert(node, nump);
    info.maybe_unsafe.insert(node, unsafe_p);
    (nump, unsafe_p)
}

/// Does `node`'s parent accept a pdl number from it (PDLOKP non-false)?
/// A raw number nobody authorized is boxed in the heap.
fn authorized(node: NodeId, info: &PdlInfo) -> bool {
    info.pdlokp.get(&node).is_some_and(Option::is_some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::binding_annotation;
    use crate::rep::rep_annotation;
    use s1lisp_ast::subtree_nodes;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn annotate(src: &str) -> (Tree, PdlInfo) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let b = binding_annotation(&f.tree);
        let r = rep_annotation(&f.tree, &b);
        let name = f.name.as_str().to_string();
        let p = pdl_annotation(&f.tree, &b, &r, &name);
        (f.tree, p)
    }

    fn find_call(tree: &Tree, name: &str) -> NodeId {
        subtree_nodes(tree, tree.root)
            .into_iter()
            .find(|&n| {
                matches!(tree.kind(n), NodeKind::Call { func: CallFunc::Global(g), .. }
                         if g.as_str() == name)
            })
            .unwrap()
    }

    #[test]
    fn let_bound_float_temporaries_stack_allocate() {
        // The testfn shape: d and e are pdl numbers (Table 4 installs
        // them in PDL slots).  With variable-representation inference the
        // variables themselves hold raw floats and the pdl boxes happen
        // at the pointer-requiring references (the frotz arguments).
        let (tree, p) =
            annotate("(defun f (a b) (let ((d (+$f a b)) (e (*$f a b))) (frotz d e) '()))");
        let frotz = find_call(&tree, "frotz");
        let NodeKind::Call { args, .. } = tree.kind(frotz).clone() else {
            panic!()
        };
        assert!(p.stack_box(args[0]), "d's reference boxes on the stack");
        assert!(p.stack_box(args[1]), "e's reference boxes on the stack");
        // The initializing calls feed raw slots: no box there at all.
        assert!(!p.stack_box(find_call(&tree, "+$f")));
    }

    #[test]
    fn returned_value_heap_allocates() {
        let (tree, p) = annotate("(defun f (a b) (+$f a b))");
        let call = find_call(&tree, "+$f");
        assert_eq!(p.pdlokp[&call], None);
        assert!(!p.stack_box(call));
    }

    #[test]
    fn unsafe_operation_argument_heap_allocates() {
        let (tree, p) = annotate("(defun f (x a b) (rplaca x (+$f a b)) x)");
        let call = find_call(&tree, "+$f");
        assert_eq!(p.pdlokp[&call], None);
        assert!(!p.stack_box(call));
    }

    #[test]
    fn atan_authorizes_through_the_conditional() {
        // "in (atan (if p x y) 3.0), x has a non-false PDLOKP property
        // that points to the atan node, not the if node."
        let (tree, p) = annotate("(defun f (p x y) (atan (if p (+$f x x) (+$f y y)) 3.0) '())");
        let atan = find_call(&tree, "atan");
        let NodeKind::Call { args, .. } = tree.kind(atan) else {
            panic!()
        };
        let if_node = args[0];
        let NodeKind::If { then, .. } = *tree.kind(if_node) else {
            panic!()
        };
        assert_eq!(p.pdlokp[&then], Some(atan), "authorizer is atan, not if");
        // And the predicate is authorized by the if itself.
        let NodeKind::If { test, .. } = *tree.kind(if_node) else {
            panic!()
        };
        assert_eq!(p.pdlokp[&test], Some(if_node));
    }

    #[test]
    fn closure_bodies_get_no_authorization() {
        let (tree, p) = annotate("(defun f (a) (frotz (lambda () (+$f a a))) '())");
        let call = find_call(&tree, "+$f");
        assert!(!p.stack_box(call));
    }

    #[test]
    fn car_never_produces_pdl_numbers() {
        let (tree, p) = annotate("(defun f (x) (frotz (car x)) '())");
        let car = find_call(&tree, "car");
        assert!(!p.pdlnump[&car]);
    }

    #[test]
    fn argument_variables_are_maybe_unsafe() {
        // Callers may pass pdl pointers: storing an argument into the
        // heap requires certification.
        let (tree, p) = annotate("(defun f (x y) (rplaca x y))");
        let NodeKind::Call { args, .. } = tree.kind(find_call(&tree, "rplaca")).clone() else {
            panic!()
        };
        assert!(p.unsafe_p(args[1]));
    }

    fn var(tree: &Tree, name: &str) -> VarId {
        tree.var_ids()
            .find(|&v| tree.var(v).name.as_str() == name)
            .unwrap()
    }

    #[test]
    fn loop_carried_parameters_certify_on_entry() {
        // build-list: every back-edge value is a GENERIC or %CONS result,
        // so n and acc are certified once, and the cons takes them as
        // they are.
        let (tree, p) = annotate(
            "(defun build-list (n acc) (if (zerop n) acc (build-list (- n 1) (cons n acc))))",
        );
        let want: HashSet<VarId> = [var(&tree, "n"), var(&tree, "acc")].into();
        assert_eq!(p.entry_certified, want);
        let NodeKind::Call { args, .. } = tree.kind(find_call(&tree, "cons")).clone() else {
            panic!()
        };
        assert!(!p.unsafe_p(args[0]) && !p.unsafe_p(args[1]));
    }

    #[test]
    fn a_back_edge_that_may_be_a_pdl_number_keeps_the_use_site_certify() {
        let (tree, p) =
            annotate("(defun f (n x) (if (zerop n) (cons x '()) (f (- n 1) (+$f x 1.0))))");
        assert!(p.entry_certified.is_empty());
        let NodeKind::Call { args, .. } = tree.kind(find_call(&tree, "cons")).clone() else {
            panic!()
        };
        assert!(p.unsafe_p(args[0]));
    }

    #[test]
    fn a_parameter_fed_by_an_uncertified_one_is_not_certified() {
        // y is used nowhere unsafe, so it is not certified; x's back edge
        // reads y, so x may not be either.
        let (_, p) = annotate("(defun f (n x y) (if (zerop n) (cons x '()) (f (- n 1) y x)))");
        assert!(p.entry_certified.is_empty());
    }

    #[test]
    fn only_a_self_tail_loop_certifies_on_entry() {
        let (_, p) = annotate("(defun f (x y) (rplaca x y))");
        assert!(p.entry_certified.is_empty());
        // A returned parameter is certified on the way out, not in.
        let (_, p) = annotate("(defun g (n x) (if (zerop n) x (g (- n 1) x)))");
        assert!(p.entry_certified.is_empty());
    }

    #[test]
    fn an_unauthorized_raw_result_is_boxed_in_the_heap_and_safe() {
        let (tree, p) = annotate("(defun f (a b) (+$f a b))");
        assert!(!p.unsafe_p(find_call(&tree, "+$f")));
    }

    #[test]
    fn user_call_results_are_safe() {
        let (tree, p) = annotate("(defun f (x) (rplaca x (frotz)))");
        let NodeKind::Call { args, .. } = tree.kind(find_call(&tree, "rplaca")).clone() else {
            panic!()
        };
        assert!(!p.unsafe_p(args[1]), "returned values are guaranteed safe");
    }
}
