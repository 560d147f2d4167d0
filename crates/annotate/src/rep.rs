//! Representation analysis (§6.2).
//!
//! "The representation analysis is carried out in two passes.  The first
//! pass is top-down; every internal tree node is annotated with a desired
//! representation, called the WANTREP for the node. … The second pass is
//! bottom-up; every internal tree node is annotated with a deliverable
//! representation, called the ISREP for the node."
//!
//! The full Table 3 lattice is modeled; inference in this dialect
//! produces `SWFIX`, `SWFLO`, `POINTER`, `JUMP`, and `NONE` (the
//! double/complex widths exist on the S-1 but the dialect's `$f`
//! operators are all single-width — see DESIGN.md).

use std::collections::HashMap;

use s1lisp_ast::{CallFunc, DeclaredType, NodeId, NodeKind, NumKind, Prim, ProgItem, Tree, VarId};

use crate::binding::{BindingInfo, VarAlloc};

/// An internal object representation — Table 3 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rep {
    /// 36-bit integer ("raw machine number").
    Swfix,
    /// 72-bit integer.
    Dwfix,
    /// 18-bit floating-point number.
    Hwflo,
    /// 36-bit floating-point number.
    Swflo,
    /// 72-bit floating-point number.
    Dwflo,
    /// 144-bit floating-point number.
    Twflo,
    /// 36-bit complex floating-point number.
    Hwcplx,
    /// 72-bit complex floating-point number.
    Swcplx,
    /// 144-bit complex floating-point number.
    Dwcplx,
    /// 288-bit complex floating-point number.
    Twcplx,
    /// LISP pointer.
    Pointer,
    /// 1-bit integer.
    Bit,
    /// Conditional jump: "we would prefer that the result of calculating
    /// p be a conditional jump rather than an actual value."
    Jump,
    /// Don't care (value not used).
    None_,
}

impl Rep {
    /// Raw numeric representations that have "corresponding user-visible,
    /// heap-allocated pointer representations" (§6.3's boxable list).
    pub fn is_raw_numeric(self) -> bool {
        matches!(
            self,
            Rep::Swfix
                | Rep::Dwfix
                | Rep::Hwflo
                | Rep::Swflo
                | Rep::Dwflo
                | Rep::Twflo
                | Rep::Hwcplx
                | Rep::Swcplx
                | Rep::Dwcplx
                | Rep::Twcplx
        )
    }

    /// Whether an `isrep` of `self` can be converted at run time to
    /// `want` (dereference, box, truth-materialize, or test).
    pub fn coercible_to(self, want: Rep) -> bool {
        match (self, want) {
            _ if self == want => true,
            (_, Rep::None_) => true,
            (Rep::None_, _) => false,
            // Any value can be tested for truth; a jump can materialize
            // t/nil.
            (_, Rep::Jump) | (Rep::Jump, _) => true,
            // Box / unbox.
            (s, Rep::Pointer) if s.is_raw_numeric() => true,
            (Rep::Pointer, w) if w.is_raw_numeric() => true,
            // Int ↔ float conversions are explicit user operations, not
            // implicit coercions.
            _ => false,
        }
    }
}

/// The results of representation analysis.
#[derive(Clone, Debug, Default)]
pub struct RepInfo {
    /// Desired representation per node (top-down pass).
    pub wantrep: HashMap<NodeId, Rep>,
    /// Deliverable representation per node (bottom-up pass).
    pub isrep: HashMap<NodeId, Rep>,
    /// Chosen representation per variable.
    pub var_rep: HashMap<VarId, Rep>,
    /// Generic arithmetic calls *deduced* to operate on one raw numeric
    /// representation — the paper's stated future work ("a system of
    /// optional type declarations … will eventually allow the compiler to
    /// make the usual type deductions without requiring every operation
    /// to be type-annotated, but this has not yet been implemented"),
    /// implemented here: when every operand of a generic `+`/`-`/`*`/…
    /// delivers SWFLO (or SWFIX), the operation compiles like its `$f`
    /// (or `&`) twin.  The value is the deduced representation.
    pub lowered: std::collections::HashMap<NodeId, Rep>,
}

impl RepInfo {
    /// The WANTREP of a node (`Pointer` when unrecorded).
    pub fn want(&self, n: NodeId) -> Rep {
        self.wantrep.get(&n).copied().unwrap_or(Rep::Pointer)
    }

    /// The ISREP of a node (`Pointer` when unrecorded).
    pub fn is(&self, n: NodeId) -> Rep {
        self.isrep.get(&n).copied().unwrap_or(Rep::Pointer)
    }

    /// Whether the node needs a representation conversion — the paper's
    /// WANTTN/ISTN pair exists exactly when this is true.
    pub fn needs_coercion(&self, n: NodeId) -> bool {
        let (w, i) = (self.want(n), self.is(n));
        w != i && w != Rep::None_ && !(w == Rep::Jump)
    }
}

/// Representation of a typed primitive's operands and result, if the
/// operation is type-specific: the `$f` family is single-word float,
/// the `&` family fixnum.
fn typed_op(prim: Prim) -> Option<(Rep, Rep)> {
    match prim {
        Prim::AddF
        | Prim::SubF
        | Prim::MulF
        | Prim::DivF
        | Prim::MaxF
        | Prim::MinF
        | Prim::AbsF
        | Prim::SqrtF
        | Prim::SinF
        | Prim::CosF
        | Prim::SincF
        | Prim::CoscF => Some((Rep::Swflo, Rep::Swflo)),
        Prim::AddI | Prim::SubI | Prim::MulI => Some((Rep::Swfix, Rep::Swfix)),
        _ => None,
    }
}

/// Generic operators eligible for float lowering (their all-float
/// reference semantics coincide with the `$f` instructions).
fn lowerable(prim: Prim) -> bool {
    matches!(
        prim,
        Prim::Add
            | Prim::Sub
            | Prim::Mul
            | Prim::Div
            | Prim::Max
            | Prim::Min
            | Prim::OnePlus
            | Prim::OneMinus
            // Unary transcendentals whose S-1 instruction uses the same
            // convention as the generic operator (sin/cos are *not* here:
            // the hardware takes cycles, the generic functions radians).
            | Prim::Sqrt
            | Prim::Exp
            | Prim::Log
            | Prim::Atan
    )
}

/// Generic operators with a fixnum instruction twin (the S-1 has all
/// sixteen rounding modes as primitive instructions, §3).
fn lowerable_int(prim: Prim) -> bool {
    matches!(
        prim,
        Prim::Add
            | Prim::Sub
            | Prim::Mul
            | Prim::Div
            | Prim::OnePlus
            | Prim::OneMinus
            | Prim::Rem
            | Prim::Mod
            | Prim::Floor
    )
}

/// Runs both passes, iterating once more when type deduction lowers a
/// generic operation ("to produce the very best analysis in general,
/// solutions must be found to simultaneous equations over the discrete
/// domain of internal types.  In practice, a little heuristic guesswork
/// suffices", §6.2).
pub fn rep_annotation(tree: &Tree, binding: &BindingInfo) -> RepInfo {
    let mut info = RepInfo::default();
    // Variable representations: declaration-driven ("suitable
    // declarations … may permit compile-time type analysis", §2), but
    // only stack-allocated lexicals can live unboxed.
    for v in tree.var_ids() {
        let var = tree.var(v);
        let stack = binding.var_alloc.get(&v) == Some(&VarAlloc::Stack);
        let rep = match (stack, var.declared_type) {
            (true, Some(DeclaredType::Flonum)) => Rep::Swflo,
            (true, Some(DeclaredType::Fixnum)) => Rep::Swfix,
            _ => Rep::Pointer,
        };
        info.var_rep.insert(v, rep);
    }
    for _ in 0..4 {
        info.wantrep.clear();
        info.isrep.clear();
        want_pass(tree, tree.root, Rep::Pointer, &mut info);
        let before = info.lowered.len();
        is_pass(tree, tree.root, &mut info);
        let vars_changed = infer_var_reps(tree, binding, &mut info);
        if info.lowered.len() == before && !vars_changed {
            break;
        }
    }
    info
}

/// Sound representation inference for let-bound variables ("in practice,
/// a little heuristic guesswork suffices: if not all the references to a
/// variable agree as to what type is desirable for it, the type POINTER
/// can always be used", §6.2): a stack variable whose initializing
/// expression *delivers* SWFLO and all of whose assignments deliver SWFLO
/// provably holds a raw float.  Parameters are excluded — their callers
/// pass arbitrary pointers, so only an explicit declaration (a user
/// promise) may unbox them.
fn infer_var_reps(tree: &Tree, binding: &BindingInfo, info: &mut RepInfo) -> bool {
    let mut changed = false;
    for v in tree.var_ids() {
        let var = tree.var(v);
        if var.special
            || var.declared_type.is_some()
            || info.var_rep.get(&v) == Some(&Rep::Swflo)
            || binding.var_alloc.get(&v) != Some(&VarAlloc::Stack)
        {
            continue;
        }
        // Find the initializing expression: the argument feeding this
        // parameter of a *called* lambda (a let).  The root lambda's
        // parameters have no visible initializer.
        let Some(binder) = var.binder else { continue };
        if binder == tree.root {
            continue;
        }
        let Some(parent) = tree.node(binder).parent else {
            continue;
        };
        let NodeKind::Call { func, args } = tree.kind(parent) else {
            continue;
        };
        let CallFunc::Expr(f) = func else { continue };
        if *f != binder {
            continue;
        }
        let NodeKind::Lambda(l) = tree.kind(binder) else {
            continue;
        };
        let Some(j) = l.required.iter().position(|&p| p == v) else {
            continue;
        };
        let Some(&init) = args.get(j) else { continue };
        let float_delivering = |n: NodeId| {
            info.is(n) == Rep::Swflo
                || matches!(
                    tree.kind(n),
                    NodeKind::Constant(s1lisp_reader::Datum::Flonum(_))
                )
        };
        if !float_delivering(init) {
            continue;
        }
        let setqs_float = var.setqs.iter().all(|&sq| {
            matches!(tree.kind(sq), NodeKind::Setq { value, .. }
                     if float_delivering(*value))
        });
        if setqs_float {
            info.var_rep.insert(v, Rep::Swflo);
            changed = true;
        }
    }
    changed
}

/// Top-down WANTREP pass.
fn want_pass(tree: &Tree, node: NodeId, want: Rep, info: &mut RepInfo) {
    info.wantrep.insert(node, want);
    match tree.kind(node) {
        NodeKind::Constant(_) | NodeKind::VarRef(_) | NodeKind::Go(_) => {}
        NodeKind::Setq { var, value } => {
            want_pass(tree, *value, info.var_rep[var], info);
        }
        NodeKind::If { test, then, els } => {
            // "For an if expression (if p x y), the WANTREP for the
            // expression p is JUMP."
            want_pass(tree, *test, Rep::Jump, info);
            want_pass(tree, *then, want, info);
            want_pass(tree, *els, want, info);
        }
        NodeKind::Progn(body) => {
            let (last, init) = body.split_last().expect("non-empty");
            for &b in init {
                want_pass(tree, b, Rep::None_, info);
            }
            want_pass(tree, *last, want, info);
        }
        NodeKind::Call { func, args } => match func {
            CallFunc::Global(g) => {
                let arg_want = Prim::from_name(g.as_str())
                    .and_then(typed_op)
                    .map(|(operand, _)| operand)
                    .or_else(|| info.lowered.get(&node).copied());
                for &a in args {
                    want_pass(tree, a, arg_want.unwrap_or(Rep::Pointer), info);
                }
            }
            CallFunc::Expr(f) => {
                if let NodeKind::Lambda(l) = tree.kind(*f) {
                    // A let: each init wants its variable's representation;
                    // the body delivers the let's value.
                    info.wantrep.insert(*f, Rep::None_);
                    for (j, &a) in args.iter().enumerate() {
                        let w = l
                            .required
                            .get(j)
                            .map(|v| info.var_rep[v])
                            .unwrap_or(Rep::Pointer);
                        want_pass(tree, a, w, info);
                    }
                    for opt in &l.optional {
                        want_pass(tree, opt.default, info.var_rep[&opt.var], info);
                    }
                    want_pass(tree, l.body, want, info);
                } else {
                    want_pass(tree, *f, Rep::Pointer, info);
                    for &a in args {
                        want_pass(tree, a, Rep::Pointer, info);
                    }
                }
            }
        },
        NodeKind::Lambda(l) => {
            for opt in &l.optional {
                want_pass(tree, opt.default, info.var_rep[&opt.var], info);
            }
            // A separate function's body returns a pointer.
            want_pass(tree, l.body, Rep::Pointer, info);
        }
        NodeKind::Caseq {
            key,
            clauses,
            default,
        } => {
            want_pass(tree, *key, Rep::Pointer, info);
            for c in clauses {
                want_pass(tree, c.body, want, info);
            }
            want_pass(tree, *default, want, info);
        }
        NodeKind::Catcher { tag, body } => {
            want_pass(tree, *tag, Rep::Pointer, info);
            // The catch may receive a thrown pointer, so its body must
            // deliver one too.
            want_pass(tree, *body, Rep::Pointer, info);
        }
        NodeKind::Progbody(items) => {
            for item in items {
                if let ProgItem::Stmt(s) = item {
                    want_pass(tree, *s, Rep::None_, info);
                }
            }
        }
        NodeKind::Return(v) => {
            // Return values travel through the progbody as pointers.
            want_pass(tree, *v, Rep::Pointer, info);
        }
    }
}

/// Bottom-up ISREP pass.
fn is_pass(tree: &Tree, node: NodeId, info: &mut RepInfo) -> Rep {
    let children = tree.children(node);
    let mut child_reps = Vec::with_capacity(children.len());
    for c in children {
        child_reps.push(is_pass(tree, c, info));
    }
    let want = info.want(node);
    let rep = match tree.kind(node) {
        NodeKind::Constant(d) => match d {
            s1lisp_reader::Datum::Fixnum(_) if want == Rep::Swfix => Rep::Swfix,
            s1lisp_reader::Datum::Flonum(_) if want == Rep::Swflo => Rep::Swflo,
            _ => Rep::Pointer,
        },
        NodeKind::VarRef(v) => info.var_rep[v],
        NodeKind::Setq { var, .. } => info.var_rep[var],
        NodeKind::If { then, els, .. } => merge_arms(info.is(*then), info.is(*els), want),
        NodeKind::Progn(body) => info.is(*body.last().expect("non-empty")),
        NodeKind::Call { func, args } => match func {
            CallFunc::Global(g) => {
                let prim = Prim::from_name(g.as_str());
                let result = prim.map(|p| p.info().result);
                if let Some((_, result)) = prim.and_then(typed_op) {
                    result
                } else if matches!(result, Some(NumKind::Generic | NumKind::Flonum))
                    && prim.is_some_and(lowerable)
                    && !args.is_empty()
                    && args.iter().all(|&a| {
                        info.is(a) == Rep::Swflo
                            || matches!(
                                tree.kind(a),
                                NodeKind::Constant(s1lisp_reader::Datum::Flonum(_))
                            )
                    })
                {
                    // Type deduction: all operands are (or can be loaded
                    // as) raw floats — compile like the $f twin.
                    info.lowered.insert(node, Rep::Swflo);
                    Rep::Swflo
                } else if result == Some(NumKind::Generic)
                    && prim.is_some_and(lowerable_int)
                    && !args.is_empty()
                    && args.iter().all(|&a| {
                        info.is(a) == Rep::Swfix
                            || matches!(
                                tree.kind(a),
                                NodeKind::Constant(s1lisp_reader::Datum::Fixnum(_))
                            )
                    })
                {
                    // All-fixnum generic arithmetic: the fixnum
                    // instruction twin (fixnums are immediate, so this is
                    // an instruction-selection decision only).
                    info.lowered.insert(node, Rep::Swfix);
                    Rep::Swfix
                } else {
                    match result {
                        // A comparison "delivers" a jump when one is
                        // wanted; otherwise it materializes t/nil.
                        Some(NumKind::Boolean) if want == Rep::Jump => Rep::Jump,
                        _ => Rep::Pointer,
                    }
                }
            }
            CallFunc::Expr(f) => {
                if let NodeKind::Lambda(l) = tree.kind(*f) {
                    info.is(l.body)
                } else {
                    Rep::Pointer
                }
            }
        },
        NodeKind::Lambda(_) => Rep::Pointer,
        NodeKind::Caseq {
            clauses, default, ..
        } => {
            let mut rep = info.is(*default);
            for c in clauses {
                rep = merge_arms(rep, info.is(c.body), want);
            }
            rep
        }
        NodeKind::Catcher { .. } | NodeKind::Progbody(_) => Rep::Pointer,
        NodeKind::Go(_) | NodeKind::Return(_) => Rep::None_,
    };
    info.isrep.insert(node, rep);
    rep
}

/// The paper's arm-merging rule: equal ISREPs win; else if one arm
/// already matches the WANTREP and the other is convertible, use the
/// WANTREP ("this is better than the ultimate default strategy of
/// letting the ISREP of an if expression be POINTER"); else POINTER.
fn merge_arms(a: Rep, b: Rep, want: Rep) -> Rep {
    if want == Rep::None_ {
        return Rep::None_;
    }
    if a == b {
        return a;
    }
    if (a == want && b.coercible_to(want)) || (b == want && a.coercible_to(want)) {
        return want;
    }
    Rep::Pointer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::binding_annotation;
    use s1lisp_ast::subtree_nodes;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    #[test]
    fn typed_ops_are_the_suffixed_rows() {
        for &prim in Prim::ALL {
            let name = prim.name();
            let want = if name.ends_with("$f") {
                Some((Rep::Swflo, Rep::Swflo))
            } else if name.ends_with('&') {
                Some((Rep::Swfix, Rep::Swfix))
            } else {
                None
            };
            assert_eq!(typed_op(prim), want, "{name}");
        }
    }

    fn annotate(src: &str) -> (Tree, RepInfo) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let b = binding_annotation(&f.tree);
        let r = rep_annotation(&f.tree, &b);
        (f.tree, r)
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
    fn typed_float_op_wants_raw_operands() {
        let (tree, r) = annotate("(defun f (x y) (+$f x y))");
        let call = find_call(&tree, "+$f");
        // Result must become a pointer (function return).
        assert_eq!(r.want(call), Rep::Pointer);
        assert_eq!(r.is(call), Rep::Swflo);
        assert!(r.needs_coercion(call));
        // Operands are wanted raw; variables are pointers (undeclared),
        // so they need dereferencing.
        let NodeKind::Call { args, .. } = tree.kind(call) else {
            panic!()
        };
        for &a in args {
            assert_eq!(r.want(a), Rep::Swflo);
            assert_eq!(r.is(a), Rep::Pointer);
            assert!(r.needs_coercion(a));
        }
    }

    #[test]
    fn papers_if_example_delivers_swflo() {
        // (+$f (if p (sqrt$f q) (car r)) 3.0): the ISREP of the if is
        // SWFLO, not POINTER, saving the box-then-deref on the sqrt arm.
        let (tree, r) = annotate("(defun f (p q s) (+$f (if p (sqrt$f q) (car s)) 3.0))");
        let NodeKind::Lambda(l) = tree.kind(tree.root) else {
            panic!()
        };
        let NodeKind::Call { args, .. } = tree.kind(l.body) else {
            panic!()
        };
        let if_node = args[0];
        assert!(matches!(tree.kind(if_node), NodeKind::If { .. }));
        assert_eq!(r.want(if_node), Rep::Swflo);
        assert_eq!(r.is(if_node), Rep::Swflo, "the paper's §6.2 example");
        // The sqrt arm needs no conversion; the car arm coerces
        // POINTER → SWFLO (a dereference).
        let NodeKind::If { then, els, .. } = *tree.kind(if_node) else {
            panic!()
        };
        assert!(!r.needs_coercion(then));
        assert!(r.needs_coercion(els));
    }

    #[test]
    fn if_test_wants_a_jump() {
        let (tree, r) = annotate("(defun f (p) (if (< p 3) 1 2))");
        let cmp = find_call(&tree, "<");
        assert_eq!(r.want(cmp), Rep::Jump);
        assert_eq!(r.is(cmp), Rep::Jump);
        assert!(!r.needs_coercion(cmp));
    }

    #[test]
    fn comparison_as_value_materializes() {
        let (tree, r) = annotate("(defun f (p) (< p 3))");
        let cmp = find_call(&tree, "<");
        assert_eq!(r.want(cmp), Rep::Pointer);
        assert_eq!(r.is(cmp), Rep::Pointer);
    }

    #[test]
    fn declared_variables_live_raw() {
        let (tree, r) = annotate("(defun f (x) (declare (flonum x)) (+$f x 1.0))");
        let x = tree
            .var_ids()
            .find(|&v| tree.var(v).name.as_str() == "x")
            .unwrap();
        assert_eq!(r.var_rep[&x], Rep::Swflo);
        // The reference then needs no conversion.
        let call = find_call(&tree, "+$f");
        let NodeKind::Call { args, .. } = tree.kind(call) else {
            panic!()
        };
        assert!(!r.needs_coercion(args[0]));
        // And the constant is loaded raw directly.
        assert_eq!(r.is(args[1]), Rep::Swflo);
    }

    #[test]
    fn captured_variables_stay_pointers() {
        let (tree, r) = annotate("(defun f (x) (declare (flonum x)) (lambda () (+$f x 1.0)))");
        let x = tree
            .var_ids()
            .find(|&v| tree.var(v).name.as_str() == "x")
            .unwrap();
        assert_eq!(r.var_rep[&x], Rep::Pointer, "heap cells hold pointers");
    }

    #[test]
    fn progn_discards_are_none() {
        let (tree, r) = annotate("(defun f (x) (progn (frotz x) (g x)))");
        let frotz = find_call(&tree, "frotz");
        assert_eq!(r.want(frotz), Rep::None_);
    }

    #[test]
    fn coercibility_lattice() {
        assert!(Rep::Swflo.coercible_to(Rep::Pointer));
        assert!(Rep::Pointer.coercible_to(Rep::Swflo));
        assert!(Rep::Pointer.coercible_to(Rep::Jump));
        assert!(Rep::Swflo.coercible_to(Rep::None_));
        assert!(!Rep::Swfix.coercible_to(Rep::Swflo));
        assert!(!Rep::None_.coercible_to(Rep::Pointer));
        assert!(Rep::Dwcplx.is_raw_numeric());
        assert!(!Rep::Pointer.is_raw_numeric());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::binding::binding_annotation;
    use s1lisp_frontend::Frontend;
    use s1lisp_reader::{read_str, Interner};

    fn annotate(src: &str) -> (Tree, RepInfo) {
        let mut i = Interner::new();
        let form = read_str(src, &mut i).unwrap();
        let mut fe = Frontend::new(&mut i);
        let f = fe.convert_defun(&form).unwrap();
        let b = binding_annotation(&f.tree);
        let r = rep_annotation(&f.tree, &b);
        (f.tree, r)
    }

    #[test]
    fn user_functions_with_dollar_names_stay_generic() {
        // A user function named like a typed primitive must not be
        // treated as one (regression for the step$f bug).
        let (tree, r) = annotate("(defun g (a b) (my-op$f a b))");
        let call = s1lisp_ast::subtree_nodes(&tree, tree.root)
            .into_iter()
            .find(|&n| matches!(tree.kind(n), NodeKind::Call { .. }))
            .unwrap();
        assert_eq!(r.is(call), Rep::Pointer);
        let NodeKind::Call { args, .. } = tree.kind(call) else {
            panic!()
        };
        assert_eq!(r.want(args[0]), Rep::Pointer);
    }

    #[test]
    fn let_inits_want_their_variables_representation() {
        let (tree, r) = annotate(
            "(defun f (x) (declare (flonum x))
               (let ((y (+$f x 1.0))) (declare (flonum y)) (+$f y y)))",
        );
        let y = tree
            .var_ids()
            .find(|&v| tree.var(v).name.as_str() == "y")
            .unwrap();
        assert_eq!(r.var_rep[&y], Rep::Swflo);
        // The init (+$f x 1.0) is wanted raw: no coercion at the binding.
        let init = tree.var(y).binder.and_then(|b| {
            let parent = tree.node(b).parent?;
            let NodeKind::Call { args, .. } = tree.kind(parent) else {
                return None;
            };
            args.first().copied()
        });
        let init = init.expect("let init found");
        assert_eq!(r.want(init), Rep::Swflo);
        assert_eq!(r.is(init), Rep::Swflo);
        assert!(!r.needs_coercion(init));
    }

    #[test]
    fn caseq_arms_merge_like_if() {
        let (tree, r) =
            annotate("(defun f (k a b) (+$f (caseq k ((1) (+$f a 1.0)) (t (*$f b 2.0))) 3.0))");
        let caseq = s1lisp_ast::subtree_nodes(&tree, tree.root)
            .into_iter()
            .find(|&n| matches!(tree.kind(n), NodeKind::Caseq { .. }))
            .unwrap();
        assert_eq!(r.want(caseq), Rep::Swflo);
        assert_eq!(r.is(caseq), Rep::Swflo, "both arms deliver raw floats");
    }

    #[test]
    fn setq_wants_the_variables_representation() {
        let (tree, r) = annotate("(defun f (x) (declare (flonum x)) (setq x (+$f x 1.0)) x)");
        let setq = s1lisp_ast::subtree_nodes(&tree, tree.root)
            .into_iter()
            .find(|&n| matches!(tree.kind(n), NodeKind::Setq { .. }))
            .unwrap();
        let NodeKind::Setq { value, .. } = *tree.kind(setq) else {
            panic!()
        };
        assert_eq!(r.want(value), Rep::Swflo);
        assert!(!r.needs_coercion(value));
    }
}
