//! Tree → bytecode emission.
//!
//! The input is the same annotated tree the S-1 code generator
//! consumes; the binding annotation decides slot layout (plain slot,
//! heap value cell, or special stack).  Code is compiled the way the
//! S-1's code generator compiles it, in three contexts:
//!
//! * **Value** ([`Emitter::node`]) pushes exactly one value.  Generic
//!   `+ - * /`, `1+`, `1-` and `cons` are one op each, whether or not
//!   representation analysis lowered them.
//! * **Test** ([`Emitter::test`], §5, E3) pushes nothing and jumps:
//!   `not`/`null` flip the sense, and `zerop`, `eq` and the two-argument
//!   comparisons are one compare-and-branch op carrying the `Prim`.
//! * **Effect** ([`Emitter::effect`]) pushes nothing: a `setq` is one
//!   store and a constant arm emits nothing.
//!
//! Those ops read their trailing operands in place when they need no
//! code ([`Emitter::operands`]): `(- n 1)` is one `(sub (slot 0) (quote
//! 1))`, as the S-1's is one `GENERIC` on `(FP 0)` and `(QUOTE 1)`.

use std::collections::HashMap;
use std::fmt;

use s1lisp_annotate::{Annotations, VarAlloc};
use s1lisp_ast::{subtree_nodes, CallFunc, Lambda, NodeId, NodeKind, Prim, ProgItem, Tree, VarId};
use s1lisp_interp::Const;
use s1lisp_reader::Datum;

use crate::{Addr, FuncProto, Insn, Op};

/// Emission failure (an unsupported shape, an unresolvable `go`, …).
#[derive(Clone, Debug)]
pub struct EmitError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytecode emission: {}", self.message)
    }
}

impl std::error::Error for EmitError {}

fn err<T>(message: impl Into<String>) -> Result<T, EmitError> {
    Err(EmitError {
        message: message.into(),
    })
}

/// Compiles one function (tree root lambda) plus any nested closures
/// into a batch of protos.  The entry proto is first and carries
/// `name`; `MakeClosure` operands are batch-relative (the module
/// rebases them at definition time).
pub fn emit_unit(name: &str, tree: &Tree, ann: &Annotations) -> Result<Vec<FuncProto>, EmitError> {
    let NodeKind::Lambda(lam) = tree.kind(tree.root) else {
        return err("tree root is not a lambda");
    };
    let mut em = Emitter {
        tree,
        ann,
        protos: Vec::new(),
        next_closure: 0,
        entry: name.to_string(),
    };
    em.emit_proto(name.to_string(), lam.clone(), HashMap::new(), Vec::new())?;
    Ok(em.protos.into_iter().map(Option::unwrap).collect())
}

struct Emitter<'a> {
    tree: &'a Tree,
    ann: &'a Annotations,
    /// Protos in batch order; `None` while still being emitted.
    protos: Vec<Option<FuncProto>>,
    next_closure: u32,
    entry: String,
}

/// A `progbody` scope during emission: where its tags live and what
/// must be unwound to jump back into it.
struct ProgScope {
    base: u32,
    specials: u32,
    catches: u32,
    tags: Vec<(String, usize)>,
    end_label: usize,
}

/// Per-proto emission state.
struct FnCtx {
    code: Vec<Insn>,
    consts: Vec<Const>,
    const_keys: HashMap<String, u32>,
    slots: HashMap<VarId, u32>,
    nslots: u32,
    captures: HashMap<VarId, u32>,
    capture_order: Vec<VarId>,
    /// Model of the operand-stack height, for `Crop` targets.
    height: u32,
    /// Specials bound since frame entry.
    specials: u32,
    /// Armed catch handlers in this frame.
    catches: u32,
    progs: Vec<ProgScope>,
    labels: Vec<Option<u32>>,
    /// `(insn index, label, patch b?)`: `a` holds a jump's target, `b`
    /// a prologue's or compare-and-branch's.
    fixups: Vec<(usize, usize, bool)>,
}

impl FnCtx {
    fn op(&mut self, op: Op, a: u32, b: u16) {
        self.code.push(Insn::new(op, a, b));
    }

    fn konst(&mut self, d: &Datum) -> u32 {
        let key = format!("{}:{d}", datum_tag(d));
        if let Some(&k) = self.const_keys.get(&key) {
            return k;
        }
        let k = self.consts.len() as u32;
        self.consts.push(Const::from_datum(d));
        self.const_keys.insert(key, k);
        k
    }

    fn sym_const(&mut self, name: &s1lisp_reader::Symbol) -> u32 {
        self.konst(&Datum::Sym(name.clone()))
    }

    fn new_label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn place(&mut self, label: usize) {
        self.labels[label] = Some(self.code.len() as u32);
    }

    fn jump(&mut self, op: Op, label: usize) {
        self.fixups.push((self.code.len(), label, false));
        self.op(op, 0, 0);
    }

    /// An addressed op on operands `x` and `y`.
    fn addressed(&mut self, op: Op, [x, y]: [Addr; 2]) {
        self.code.push(Insn::addressed(op, x, y));
    }

    /// A compare-and-branch on the test primitive `prim`.
    fn test_jump(&mut self, op: Op, prim: Prim, operands: [Addr; 2], label: usize) {
        self.fixups.push((self.code.len(), label, true));
        self.addressed(op, operands);
        self.code.last_mut().expect("just pushed").c = prim as u8;
    }

    /// Leaves an arm of a conditional for its join point `label`; an arm
    /// in tail position returns at once, since the join would only
    /// return.
    fn join(&mut self, tail: bool, label: usize) {
        if tail {
            self.op(Op::Return, 0, 0);
        } else {
            self.jump(Op::Jump, label);
        }
    }

    fn arg_sup(&mut self, param: u32, label: usize) {
        self.fixups.push((self.code.len(), label, true));
        self.op(Op::ArgSup, param, 0);
    }

    fn slot(&mut self, v: VarId) -> u32 {
        if let Some(&s) = self.slots.get(&v) {
            return s;
        }
        let s = self.nslots;
        self.nslots += 1;
        self.slots.insert(v, s);
        s
    }

    fn scratch(&mut self) -> u32 {
        let s = self.nslots;
        self.nslots += 1;
        s
    }
}

/// Discriminant so `1`, `1.0`, and `|1|`-ish spellings can never share
/// a pool entry by printed form alone.
fn datum_tag(d: &Datum) -> &'static str {
    match d {
        Datum::Nil => "n",
        Datum::Fixnum(_) => "i",
        Datum::Flonum(_) => "f",
        Datum::Sym(_) => "s",
        Datum::Str(_) => "t",
        Datum::Char(_) => "c",
        Datum::Cons(_) => "l",
    }
}

fn split_progn(body: &[NodeId]) -> Result<(&NodeId, &[NodeId]), EmitError> {
    body.split_last().ok_or(EmitError {
        message: "empty progn".into(),
    })
}

/// The op for a generic arithmetic call (or `cons`) of `argc`
/// arguments, if it has one.
fn generic_op(p: Prim, argc: usize) -> Option<Op> {
    Some(match (p, argc) {
        (Prim::Add, 2) => Op::Add,
        (Prim::Sub, 2) => Op::Sub,
        (Prim::Mul, 2) => Op::Mul,
        (Prim::Div, 2) => Op::Div,
        (Prim::OnePlus, 1) => Op::Inc,
        (Prim::OneMinus, 1) => Op::Dec,
        (Prim::Cons, 2) => Op::Cons,
        _ => return None,
    })
}

/// Whether `p` on `argc` arguments compiles to a compare-and-branch
/// in test position.
fn branch_test(p: Prim, argc: usize) -> bool {
    match p {
        Prim::Zerop => argc == 1,
        Prim::Eq | Prim::NumEq | Prim::NumNe | Prim::Lt | Prim::Gt | Prim::Le | Prim::Ge => {
            argc == 2
        }
        _ => false,
    }
}

impl<'a> Emitter<'a> {
    /// Emits one proto (reserving its batch slot first, so nested
    /// closures see stable indices) and returns its batch index.
    fn emit_proto(
        &mut self,
        name: String,
        lam: Lambda,
        captures: HashMap<VarId, u32>,
        capture_order: Vec<VarId>,
    ) -> Result<u32, EmitError> {
        let ix = self.protos.len() as u32;
        self.protos.push(None);
        let mut cx = FnCtx {
            code: Vec::new(),
            consts: Vec::new(),
            const_keys: HashMap::new(),
            slots: HashMap::new(),
            nslots: 0,
            captures,
            capture_order,
            height: 0,
            specials: 0,
            catches: 0,
            progs: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        };
        // Parameters occupy slots 0..n in order — the evaluator's
        // argument-filling convention.
        let params = lam.all_params();
        for &p in &params {
            cx.slot(p);
        }
        // Prologue: parameters bind strictly left to right, as in the
        // interpreter — an optional's default (run only when the
        // argument count says it was unsupplied) sees every earlier
        // parameter already in its final home, special bindings
        // included.
        for (i, &p) in params.iter().enumerate() {
            if i >= lam.required.len() && i < lam.required.len() + lam.optional.len() {
                let opt = &lam.optional[i - lam.required.len()];
                let skip = cx.new_label();
                cx.arg_sup(i as u32, skip);
                self.node(&mut cx, opt.default, false)?;
                let s = cx.slots[&opt.var];
                cx.op(Op::Store, s, 0);
                cx.height -= 1;
                cx.place(skip);
            }
            self.finalize_param(&mut cx, p);
        }
        self.node(&mut cx, lam.body, true)?;
        cx.op(Op::Return, 0, 0);
        // Resolve labels.
        for (at, label, patch_b) in std::mem::take(&mut cx.fixups) {
            let Some(target) = cx.labels[label] else {
                return err("unplaced label");
            };
            if patch_b {
                cx.code[at].b = u16::try_from(target).map_err(|_| EmitError {
                    message: format!("code too large for a 16-bit jump target ({target})"),
                })?;
            } else {
                cx.code[at].a = target;
            }
        }
        self.protos[ix as usize] = Some(FuncProto {
            name,
            required: lam.required.len() as u32,
            optional: lam.optional.len() as u32,
            rest: lam.rest.is_some(),
            nslots: cx.nslots,
            ncaptures: cx.capture_order.len() as u32,
            code: cx.code,
            consts: cx.consts,
        });
        Ok(ix)
    }

    /// After a parameter slot holds its value: wrap it in a cell if
    /// closures capture it, or deep-bind it if it is special.
    fn finalize_param(&mut self, cx: &mut FnCtx, v: VarId) {
        let var = self.tree.var(v);
        let s = cx.slots[&v];
        if var.special {
            cx.op(Op::Load, s, 0);
            let k = cx.sym_const(&var.name);
            cx.op(Op::BindSpecial, k, 0);
            cx.specials += 1;
        } else if self.alloc(v) == VarAlloc::Heap {
            cx.op(Op::NewCell, s, 0);
        }
    }

    fn alloc(&self, v: VarId) -> VarAlloc {
        if self.tree.var(v).special {
            return VarAlloc::Special;
        }
        self.ann
            .binding
            .var_alloc
            .get(&v)
            .copied()
            .unwrap_or(VarAlloc::Stack)
    }

    /// Emits `node`; on every (reachable) exit exactly one value has
    /// been pushed.
    fn node(&mut self, cx: &mut FnCtx, node: NodeId, tail: bool) -> Result<(), EmitError> {
        match self.tree.kind(node).clone() {
            NodeKind::Constant(d) => {
                if matches!(d, Datum::Nil) {
                    cx.op(Op::Nil, 0, 0);
                } else {
                    let k = cx.konst(&d);
                    cx.op(Op::Const, k, 0);
                }
                cx.height += 1;
            }
            NodeKind::VarRef(v) => {
                self.read_var(cx, v)?;
            }
            NodeKind::Setq { var, value } => {
                self.node(cx, value, false)?;
                cx.op(Op::Dup, 0, 0);
                cx.height += 1;
                self.write_var(cx, var)?;
            }
            NodeKind::If { test, then, els } => {
                let l_else = cx.new_label();
                let l_end = cx.new_label();
                self.test(cx, test, false, l_else)?;
                let h = cx.height;
                self.node(cx, then, tail)?;
                cx.join(tail, l_end);
                cx.place(l_else);
                cx.height = h;
                self.node(cx, els, tail)?;
                cx.place(l_end);
            }
            NodeKind::Progn(body) => {
                let (last, init) = split_progn(&body)?;
                for &n in init {
                    self.effect(cx, n)?;
                }
                self.node(cx, *last, tail)?;
            }
            NodeKind::Call { func, args } => match func {
                CallFunc::Global(g) => self.global_call(cx, &g, &args, tail)?,
                CallFunc::Expr(e) => {
                    if let NodeKind::Lambda(lam) = self.tree.kind(e).clone() {
                        self.let_call(cx, &lam, &args, tail)?;
                    } else {
                        self.node(cx, e, false)?;
                        for &a in &args {
                            self.node(cx, a, false)?;
                        }
                        cx.op(Op::CallDyn, args.len() as u32, 0);
                        cx.height -= args.len() as u32;
                    }
                }
            },
            NodeKind::Lambda(lam) => {
                self.closure(cx, node, &lam)?;
            }
            NodeKind::Caseq {
                key,
                clauses,
                default,
            } => {
                self.node(cx, key, false)?;
                let tmp = cx.scratch();
                cx.op(Op::Store, tmp, 0);
                cx.height -= 1;
                let h = cx.height;
                let l_end = cx.new_label();
                let body_labels: Vec<usize> = clauses.iter().map(|_| cx.new_label()).collect();
                for (c, l) in clauses.iter().zip(&body_labels) {
                    for k in &c.keys {
                        cx.op(Op::Load, tmp, 0);
                        let kk = cx.konst(k);
                        cx.op(Op::Const, kk, 0);
                        cx.op(Op::Eql, 0, 0);
                        cx.jump(Op::JumpIfTrue, *l);
                    }
                }
                self.node(cx, default, tail)?;
                cx.join(tail, l_end);
                for (c, l) in clauses.iter().zip(&body_labels) {
                    cx.place(*l);
                    cx.height = h;
                    self.node(cx, c.body, tail)?;
                    cx.join(tail, l_end);
                }
                cx.place(l_end);
                cx.height = h + 1;
            }
            NodeKind::Catcher { tag, body } => {
                self.node(cx, tag, false)?;
                let l_handler = cx.new_label();
                let l_end = cx.new_label();
                cx.jump(Op::Catch, l_handler);
                cx.height -= 1;
                cx.catches += 1;
                let h = cx.height;
                self.node(cx, body, false)?;
                cx.catches -= 1;
                cx.op(Op::EndCatch, 0, 0);
                cx.jump(Op::Jump, l_end);
                cx.place(l_handler);
                cx.height = h + 1; // the thrown value
                cx.place(l_end);
            }
            NodeKind::Progbody(items) => {
                let end_label = cx.new_label();
                let mut tags = Vec::new();
                for item in &items {
                    if let ProgItem::Tag(t) = item {
                        tags.push((t.as_str().to_string(), cx.new_label()));
                    }
                }
                cx.progs.push(ProgScope {
                    base: cx.height,
                    specials: cx.specials,
                    catches: cx.catches,
                    tags,
                    end_label,
                });
                let base = cx.height;
                for item in &items {
                    match item {
                        ProgItem::Tag(t) => {
                            let scope = cx.progs.last().unwrap();
                            let label = scope
                                .tags
                                .iter()
                                .find(|(n, _)| n == t.as_str())
                                .map(|&(_, l)| l)
                                .unwrap();
                            cx.place(label);
                            cx.height = base;
                        }
                        ProgItem::Stmt(n) => self.effect(cx, *n)?,
                    }
                }
                cx.op(Op::Nil, 0, 0);
                cx.height = base + 1;
                cx.place(end_label);
                cx.progs.pop();
            }
            NodeKind::Go(tag) => {
                let h = cx.height;
                let found = cx.progs.iter().rev().find_map(|s| {
                    s.tags
                        .iter()
                        .find(|(n, _)| n == tag.as_str())
                        .map(|&(_, l)| (l, s.base, s.specials, s.catches))
                });
                let Some((label, base, specials, catches)) = found else {
                    return err(format!("go: no visible tag {tag}"));
                };
                if cx.catches > catches {
                    cx.op(Op::Uncatch, cx.catches - catches, 0);
                }
                if cx.specials > specials {
                    cx.op(Op::Unbind, cx.specials - specials, 0);
                }
                if cx.height != base {
                    cx.op(Op::Crop, base, 0);
                }
                cx.jump(Op::Jump, label);
                cx.height = h + 1; // unreachable continuation
            }
            NodeKind::Return(v) => {
                let h = cx.height;
                let Some(scope) = cx.progs.last() else {
                    return err("return: no enclosing progbody");
                };
                let (label, base, specials, catches) =
                    (scope.end_label, scope.base, scope.specials, scope.catches);
                self.node(cx, v, false)?;
                if cx.catches > catches {
                    cx.op(Op::Uncatch, cx.catches - catches, 0);
                }
                if cx.specials > specials {
                    cx.op(Op::Unbind, cx.specials - specials, 0);
                }
                if cx.height != base + 1 {
                    cx.op(Op::CropKeep, base, 0);
                }
                cx.jump(Op::Jump, label);
                cx.height = h + 1; // unreachable continuation
            }
        }
        Ok(())
    }

    /// Emits `node` as a test (§5, E3): control reaches `label` when the
    /// truth of its value is `sense` and falls through otherwise, with
    /// nothing pushed.  `not` and `null` flip the sense, `zerop`, `eq`
    /// and the two-argument comparisons are one compare-and-branch op,
    /// and a conditional tests its arms in turn.
    fn test(
        &mut self,
        cx: &mut FnCtx,
        node: NodeId,
        sense: bool,
        label: usize,
    ) -> Result<(), EmitError> {
        match self.tree.kind(node).clone() {
            NodeKind::Constant(d) => {
                if d.is_true() == sense {
                    cx.jump(Op::Jump, label);
                }
            }
            NodeKind::Progn(body) => {
                let (last, init) = split_progn(&body)?;
                for &n in init {
                    self.effect(cx, n)?;
                }
                self.test(cx, *last, sense, label)?;
            }
            NodeKind::If { test, then, els } => {
                // `(and a b)` and `(or a b)` have a constant arm: the test
                // falls through or reaches `label` directly when it
                // selects that arm.
                let truth = |n: NodeId| match self.tree.kind(n) {
                    NodeKind::Constant(d) => Some(d.is_true()),
                    _ => None,
                };
                let l_end = cx.new_label();
                let exit = |arm: bool| if arm == sense { label } else { l_end };
                if let Some(e) = truth(els) {
                    self.test(cx, test, false, exit(e))?;
                    self.test(cx, then, sense, label)?;
                } else if let Some(t) = truth(then) {
                    self.test(cx, test, true, exit(t))?;
                    self.test(cx, els, sense, label)?;
                } else {
                    let l_else = cx.new_label();
                    self.test(cx, test, false, l_else)?;
                    self.test(cx, then, sense, label)?;
                    cx.jump(Op::Jump, l_end);
                    cx.place(l_else);
                    self.test(cx, els, sense, label)?;
                }
                cx.place(l_end);
            }
            NodeKind::Call {
                func: CallFunc::Global(g),
                args,
            } => match Prim::from_name(g.as_str()) {
                Some(Prim::Not | Prim::Null) if args.len() == 1 => {
                    self.test(cx, args[0], !sense, label)?;
                }
                Some(p) if branch_test(p, args.len()) => {
                    let operands = self.operands(cx, &args)?;
                    let op = if sense { Op::TestTrue } else { Op::TestNil };
                    cx.test_jump(op, p, operands, label);
                }
                _ => self.value_test(cx, node, sense, label)?,
            },
            _ => self.value_test(cx, node, sense, label)?,
        }
        Ok(())
    }

    /// Any other test: the value, then `jump.t` or `jump.nil`.
    fn value_test(
        &mut self,
        cx: &mut FnCtx,
        node: NodeId,
        sense: bool,
        label: usize,
    ) -> Result<(), EmitError> {
        self.node(cx, node, false)?;
        let op = if sense { Op::JumpIfTrue } else { Op::JumpIfNil };
        cx.jump(op, label);
        cx.height -= 1;
        Ok(())
    }

    /// Emits `node` as a statement, for its effect alone: nothing is
    /// pushed.  A constant or a lexical variable emits nothing, a `setq`
    /// is one store, and a conditional tests as a test.
    fn effect(&mut self, cx: &mut FnCtx, node: NodeId) -> Result<(), EmitError> {
        match self.tree.kind(node).clone() {
            NodeKind::Constant(_) => {}
            NodeKind::VarRef(v) if !self.tree.var(v).special => {}
            NodeKind::Setq { var, value } => {
                self.node(cx, value, false)?;
                self.write_var(cx, var)?;
            }
            NodeKind::Progn(body) => {
                for n in body {
                    self.effect(cx, n)?;
                }
            }
            NodeKind::If { test, then, els } => {
                let inert = |n: NodeId| matches!(self.tree.kind(n), NodeKind::Constant(_));
                let l_end = cx.new_label();
                if inert(els) {
                    self.test(cx, test, false, l_end)?;
                    self.effect(cx, then)?;
                } else if inert(then) {
                    self.test(cx, test, true, l_end)?;
                    self.effect(cx, els)?;
                } else {
                    let l_else = cx.new_label();
                    self.test(cx, test, false, l_else)?;
                    self.effect(cx, then)?;
                    cx.jump(Op::Jump, l_end);
                    cx.place(l_else);
                    self.effect(cx, els)?;
                }
                cx.place(l_end);
            }
            NodeKind::Go(_) | NodeKind::Return(_) => {
                // Control leaves: there is no continuation to pop for.
                let h = cx.height;
                self.node(cx, node, false)?;
                cx.height = h;
            }
            _ => {
                self.node(cx, node, false)?;
                cx.op(Op::Pop, 0, 0);
                cx.height -= 1;
            }
        }
        Ok(())
    }

    /// The operands of an addressed op (at most two): pushes the leading
    /// ones in order and addresses the trailing ones that need no code
    /// ([`Emitter::address`]), so every operand is still evaluated in
    /// source order, the addressed ones when the op runs.  The op pops
    /// what was pushed, and the stack height says so already.
    fn operands(&mut self, cx: &mut FnCtx, args: &[NodeId]) -> Result<[Addr; 2], EmitError> {
        let mut addrs = [Addr::STACK; 2];
        let mut pushed = args.len();
        while let Some(addr) = pushed
            .checked_sub(1)
            .and_then(|i| self.address(cx, args[i]))
        {
            pushed -= 1;
            addrs[pushed] = addr;
        }
        for &a in &args[..pushed] {
            self.node(cx, a, false)?;
        }
        cx.height -= pushed as u32;
        Ok(addrs)
    }

    /// Where an operand that needs no code is read in place: a constant
    /// in the pool, or a lexical variable in a plain frame slot.  `None`
    /// for any other operand, including a special, captured or
    /// heap-allocated variable and an index past the address field.
    fn address(&self, cx: &mut FnCtx, node: NodeId) -> Option<Addr> {
        match self.tree.kind(node) {
            NodeKind::Constant(d) => Addr::quote(cx.konst(d)),
            NodeKind::VarRef(v)
                if !cx.captures.contains_key(v) && self.alloc(*v) == VarAlloc::Stack =>
            {
                Addr::slot(cx.slot(*v))
            }
            _ => None,
        }
    }

    fn read_var(&mut self, cx: &mut FnCtx, v: VarId) -> Result<(), EmitError> {
        let var = self.tree.var(v);
        if var.special {
            let k = cx.sym_const(&var.name);
            cx.op(Op::LoadSpecial, k, 0);
        } else if let Some(&c) = cx.captures.get(&v) {
            cx.op(Op::LoadCapture, c, 0);
        } else {
            let s = cx.slot(v);
            if self.alloc(v) == VarAlloc::Heap {
                cx.op(Op::LoadCell, s, 0);
            } else {
                cx.op(Op::Load, s, 0);
            }
        }
        cx.height += 1;
        Ok(())
    }

    /// Pops the top of stack into the variable.
    fn write_var(&mut self, cx: &mut FnCtx, v: VarId) -> Result<(), EmitError> {
        let var = self.tree.var(v);
        if var.special {
            let k = cx.sym_const(&var.name);
            cx.op(Op::StoreSpecial, k, 0);
        } else if let Some(&c) = cx.captures.get(&v) {
            cx.op(Op::StoreCapture, c, 0);
        } else {
            let s = cx.slot(v);
            if self.alloc(v) == VarAlloc::Heap {
                cx.op(Op::StoreCell, s, 0);
            } else {
                cx.op(Op::Store, s, 0);
            }
        }
        cx.height -= 1;
        Ok(())
    }

    fn global_call(
        &mut self,
        cx: &mut FnCtx,
        g: &s1lisp_reader::Symbol,
        args: &[NodeId],
        tail: bool,
    ) -> Result<(), EmitError> {
        let prim = Prim::from_name(g.as_str());
        // `throw` compiles straight to the unwinder.
        if prim == Some(Prim::Throw) && args.len() == 2 {
            let h = cx.height;
            self.node(cx, args[0], false)?;
            self.node(cx, args[1], false)?;
            cx.op(Op::Throw, 0, 0);
            cx.height = h + 1; // unreachable continuation
            return Ok(());
        }
        // `(%function 'f)` is a constant function value.
        if prim == Some(Prim::Function) && args.len() == 1 {
            if let NodeKind::Constant(Datum::Sym(s)) = self.tree.kind(args[0]) {
                let k = cx.sym_const(&s.clone());
                cx.op(Op::GlobalFn, k, 0);
                cx.height += 1;
                return Ok(());
            }
        }
        // A genuine tail call only when no handler or special binding
        // of this frame must survive the callee.
        let tail_call = tail && cx.catches == 0 && cx.specials == 0;
        // One op per generic operator.  A tail call stays a `tcall`,
        // which also returns the value.
        let op = prim.and_then(|p| generic_op(p, args.len()));
        if let Some(op) = op.filter(|_| !tail_call) {
            let operands = self.operands(cx, args)?;
            cx.addressed(op, operands);
            cx.height += 1;
            return Ok(());
        }
        for &a in args {
            self.node(cx, a, false)?;
        }
        let k = cx.sym_const(g);
        let argc = u16::try_from(args.len()).map_err(|_| EmitError {
            message: "too many arguments".into(),
        })?;
        let op = if tail_call { Op::TailCall } else { Op::Call };
        cx.op(op, k, argc);
        cx.height -= args.len() as u32;
        cx.height += 1;
        Ok(())
    }

    /// Immediate lambda application — `let`.  Argument count is known
    /// statically, so parameters bind without a call frame.
    fn let_call(
        &mut self,
        cx: &mut FnCtx,
        lam: &Lambda,
        args: &[NodeId],
        tail: bool,
    ) -> Result<(), EmitError> {
        let (min, max) = lam.arity();
        if args.len() < min || max.is_some_and(|m| args.len() > m) {
            return err("lambda application arity mismatch");
        }
        let params = lam.all_params();
        for &p in &params {
            cx.slot(p);
        }
        let npos = lam.required.len() + lam.optional.len();
        // Evaluate every argument left to right…
        for &a in args {
            self.node(cx, a, false)?;
        }
        // …then bind them (top of stack is the last argument).
        if let Some(rest) = lam.rest.filter(|_| args.len() > npos) {
            let extra = (args.len() - npos) as u32;
            cx.op(Op::List, extra, 0);
            cx.height -= extra - 1;
            let s = cx.slots[&rest];
            cx.op(Op::Store, s, 0);
            cx.height -= 1;
        }
        for i in (0..args.len().min(npos)).rev() {
            let s = cx.slots[&params[i]];
            cx.op(Op::Store, s, 0);
            cx.height -= 1;
        }
        // Forward pass: defaults for unsupplied optionals, then cell /
        // special finalization, in parameter order (a default sees every
        // earlier parameter already in its final home, as in the
        // interpreter).
        let mut bound_specials = 0u32;
        for (i, &p) in params.iter().enumerate() {
            if i >= args.len() && i < npos {
                let opt = &lam.optional[i - lam.required.len()];
                self.node(cx, opt.default, false)?;
                let s = cx.slots[&p];
                cx.op(Op::Store, s, 0);
                cx.height -= 1;
            }
            if i >= args.len() && i == npos && lam.rest.is_some() {
                let s = cx.slots[&p];
                cx.op(Op::Nil, 0, 0);
                cx.op(Op::Store, s, 0);
            }
            let before = cx.specials;
            self.finalize_param(cx, p);
            bound_specials += cx.specials - before;
        }
        let body_tail = tail && bound_specials == 0;
        self.node(cx, lam.body, body_tail)?;
        if bound_specials > 0 {
            cx.op(Op::Unbind, bound_specials, 0);
            cx.specials -= bound_specials;
        }
        Ok(())
    }

    /// A lambda in value position: a closure over the free variables.
    fn closure(&mut self, cx: &mut FnCtx, node: NodeId, lam: &Lambda) -> Result<(), EmitError> {
        // Free variables = those resolvable in the *enclosing* context.
        // The binding annotation's capture list covers the common case;
        // scanning the subtree keeps us honest when a lambda the
        // annotator classified differently still reaches value position.
        let mut caps: Vec<VarId> = Vec::new();
        for n in subtree_nodes(self.tree, node) {
            let v = match self.tree.kind(n) {
                NodeKind::VarRef(v) => *v,
                NodeKind::Setq { var, .. } => *var,
                _ => continue,
            };
            if self.tree.var(v).special || caps.contains(&v) {
                continue;
            }
            if cx.slots.contains_key(&v) || cx.captures.contains_key(&v) {
                caps.push(v);
            }
        }
        let mut inner_caps = HashMap::new();
        for (i, &v) in caps.iter().enumerate() {
            inner_caps.insert(v, i as u32);
        }
        let child = format!("{}::λ{}", self.entry, self.next_closure);
        self.next_closure += 1;
        let ix = self.emit_proto(child, lam.clone(), inner_caps, caps.clone())?;
        for &v in &caps {
            if let Some(&c) = cx.captures.get(&v) {
                cx.op(Op::PushCellCapture, c, 0);
            } else {
                let s = cx.slots[&v];
                if self.alloc(v) == VarAlloc::Heap {
                    cx.op(Op::PushCellSlot, s, 0);
                } else {
                    // A by-value snapshot: the annotator kept this
                    // variable on the stack, so nothing can mutate it
                    // behind the closure's back.
                    cx.op(Op::Load, s, 0);
                    cx.op(Op::BoxTop, 0, 0);
                }
            }
            cx.height += 1;
        }
        let ncaps = u16::try_from(caps.len()).map_err(|_| EmitError {
            message: "too many captures".into(),
        })?;
        cx.op(Op::MakeClosure, ix, ncaps);
        cx.height -= caps.len() as u32;
        cx.height += 1;
        Ok(())
    }
}
