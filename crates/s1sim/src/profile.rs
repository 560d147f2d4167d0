//! Execution profiling: retired-opcode histograms, per-function cycle
//! attribution, a call-stack flight recorder, and an optional
//! instruction ring buffer.
//!
//! The profiler is strictly host-side instrumentation layered over
//! [`MachineStats`](crate::MachineStats): attaching one never changes
//! what the simulated machine does or counts (`stats.insns`, heap
//! allocations, traps are bit-identical with and without it — a test in
//! the workspace pins this).  By default a [`Machine`](crate::Machine)
//! carries no profiler and the retire path costs one `Option` check;
//! the call-stack tracker rides the same check, so profiler-off
//! dispatch pays nothing for it.
//!
//! # Call-stack attribution
//!
//! The machine mirrors its control stack into the profile: a push on
//! every non-tail call (including `LOCAL-CALL` frames), a top-frame
//! replacement on tail calls, a pop on returns, and an unwind on
//! `throw`.  Retired instructions and synthetic runtime-call cycles are
//! charged as *self* cycles to the innermost tracked frame, so the
//! profile accumulates a calling-context trie whose folded form
//! ([`ExecProfile::folded`]) is directly consumable by `flamegraph.pl`
//! and speedscope.  The trie persists across runs (each
//! [`Machine::run`](crate::Machine::run) re-roots the cursor, cycle
//! counts accumulate).
//!
//! Stacks deeper than the depth cap ([`ExecProfile::stack_depth_cap`],
//! default [`DEFAULT_STACK_DEPTH_CAP`]) are truncated: cycles burned
//! beyond the cap are charged to the frame *at* the cap and
//! [`ExecProfile::stack_truncated`] counts the pushes that were dropped.
//!
//! Exact reconciliation, pinned by golden tests: the folded self-cycle
//! total equals `retired() + synthetic_cycles()` — subtracting the
//! synthetic runtime-call charge recovers [`ExecProfile::retired`]
//! exactly — and equals the [`ExecProfile::per_fn`] total, which in
//! turn equals the machine's `stats.insns`.

use std::collections::BTreeMap;

use crate::program::FnNameTable;

/// Default depth cap for the call-stack tracker: frames pushed beyond
/// this depth are folded into the frame at the cap (and counted by
/// [`ExecProfile::stack_truncated`]) instead of growing the trie.
pub const DEFAULT_STACK_DEPTH_CAP: usize = 128;

/// The instruction class an opcode mnemonic belongs to, for
/// coarse-grained dispatch-mix metrics (`sim.opclass.*`): the §6
/// measurements group instructions the same way ("reduction of data
/// movement", arithmetic parity, call discipline), so the metrics
/// surface mirrors that taxonomy rather than the 60-mnemonic zoo.
pub fn opcode_class(opcode: &str) -> &'static str {
    match opcode {
        "MOV" | "MOVP" | "LOAD-CONST" => "move",
        "ADD" | "SUB" | "MULT" | "DIV" | "DIV-FLOOR" | "REM" | "MOD-FLOOR" | "NEG" | "GENERIC" => {
            "int_arith"
        }
        "FADD" | "FSUB" | "FMULT" | "FDIV" | "FMAX" | "FMIN" | "FNEG" | "FSIN" | "FCOS"
        | "FSQRT" | "FATAN" | "FEXP" | "FLOG" | "FLOAT-IT" | "FIX-IT" => "float_arith",
        "JMP" | "JMP-IF" | "JMP-NIL" | "JMP-NOT-NIL" | "JMP-TAG" | "JMP-EQ" | "DISPATCH" => {
            "branch"
        }
        "CALL" | "TAIL-CALL" | "TAIL-JMP" | "RET" | "LOCAL-CALL" | "LOCAL-RET" | "RT-CALL"
        | "APPLY" | "LOAD-FUNCTION" => "call",
        "PUSH" | "PUSH-CONST" | "POP" | "ALLOC-SLOTS" | "FREE-SLOTS" | "LISTIFY-ARGS" => "stack",
        "CONS-RT" | "CAR" | "CDR" | "BOX-FLO" | "UNBOX-FLO" | "CERTIFY" | "MAKE-CELL"
        | "LOAD-CELL" | "STORE-CELL" | "MAKE-CLOSURE" | "LOAD-ENV" => "heap",
        "SPEC-BIND" | "SPEC-UNBIND" | "SPEC-LOOKUP" | "SPEC-READ" | "SPEC-WRITE" => "special",
        "TRAP" | "PUSH-CATCH" | "POP-CATCH" | "THROW" => "control",
        _ => "other",
    }
}

/// One retired instruction, as seen by the ring buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Retired {
    /// Function id (index into `Program::fn_names`).
    pub fnid: u32,
    /// Program counter of the instruction within the function.
    pub pc: u32,
    /// Instruction mnemonic.
    pub opcode: &'static str,
}

/// One node of the calling-context trie: a function observed at a
/// particular stack of callers.
#[derive(Clone, Debug)]
struct StackNode {
    fnid: u32,
    parent: u32,
    /// Child nodes, `(callee fnid, node index)`.
    children: Vec<(u32, u32)>,
    self_cycles: u64,
}

/// Self and cumulative cycles for one calling context (one node of the
/// trie), as returned by [`ExecProfile::stack_cycles`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StackFrameCycles {
    /// The call path, outermost caller first.
    pub path: Vec<u32>,
    /// Cycles charged while this exact context was innermost.
    pub self_cycles: u64,
    /// Self cycles plus the cumulative cycles of every child context.
    pub cum_cycles: u64,
}

/// An execution profile accumulated at the machine's retire point.
#[derive(Clone, Debug)]
pub struct ExecProfile {
    /// Retired instructions per opcode mnemonic.
    pub opcodes: BTreeMap<&'static str, u64>,
    /// Instruction-equivalent cycles attributed per function id.  Counts
    /// retired instructions *plus* the synthetic entry/dispatch cost the
    /// machine charges for runtime calls (which has no opcode and so
    /// never appears in [`ExecProfile::opcodes`]).
    per_fn: Vec<u64>,
    /// The last `ring_capacity` retired instructions (oldest first once
    /// full), when a capacity was requested.
    ring: Vec<Retired>,
    ring_cap: usize,
    ring_next: usize,
    /// Calling-context trie; node 0 is the virtual root (no function).
    nodes: Vec<StackNode>,
    /// Innermost *tracked* frame (index into `nodes`).
    cur: u32,
    /// Logical stack depth (frames above the virtual root), which can
    /// exceed `cap` when the tracker is truncating.
    depth: usize,
    cap: usize,
    truncated: u64,
    synthetic: u64,
}

impl Default for ExecProfile {
    fn default() -> ExecProfile {
        ExecProfile {
            opcodes: BTreeMap::new(),
            per_fn: Vec::new(),
            ring: Vec::new(),
            ring_cap: 0,
            ring_next: 0,
            nodes: vec![StackNode {
                fnid: u32::MAX,
                parent: 0,
                children: Vec::new(),
                self_cycles: 0,
            }],
            cur: 0,
            depth: 0,
            cap: DEFAULT_STACK_DEPTH_CAP,
            truncated: 0,
            synthetic: 0,
        }
    }
}

impl ExecProfile {
    /// An empty profile with no instruction ring.
    pub fn new() -> ExecProfile {
        ExecProfile::default()
    }

    /// An empty profile that also keeps the last `capacity` retired
    /// instructions for post-mortem inspection.
    pub fn with_ring(capacity: usize) -> ExecProfile {
        ExecProfile {
            ring_cap: capacity,
            ..ExecProfile::default()
        }
    }

    /// Records one retired instruction (the machine calls this).
    pub(crate) fn retire(&mut self, fnid: u32, pc: usize, opcode: &'static str) {
        *self.opcodes.entry(opcode).or_insert(0) += 1;
        self.charge(fnid, 1);
        self.nodes[self.cur as usize].self_cycles += 1;
        if self.ring_cap > 0 {
            let rec = Retired {
                fnid,
                pc: pc as u32,
                opcode,
            };
            if self.ring.len() < self.ring_cap {
                self.ring.push(rec);
            } else {
                self.ring[self.ring_next] = rec;
            }
            self.ring_next = (self.ring_next + 1) % self.ring_cap;
        }
    }

    /// Attributes `cycles` instruction-equivalents to `fnid` without a
    /// retired opcode (the synthetic runtime-call cost).
    pub(crate) fn attribute(&mut self, fnid: u32, cycles: u64) {
        self.charge(fnid, cycles);
        self.synthetic += cycles;
        self.nodes[self.cur as usize].self_cycles += cycles;
    }

    /// Per-function flat attribution, shared by `retire` and
    /// `attribute`.
    fn charge(&mut self, fnid: u32, cycles: u64) {
        let idx = fnid as usize;
        if idx >= self.per_fn.len() {
            self.per_fn.resize(idx + 1, 0);
        }
        self.per_fn[idx] += cycles;
    }

    // ---- call-stack tracker (the machine mirrors its control stack
    // through these; all calls sit behind the profiler's `Option`
    // check, so they cost nothing when no profile is attached) ----

    /// Re-roots the stack at `entry` — called at the top of every
    /// [`Machine::run`](crate::Machine::run).  The trie and its cycle
    /// counts persist; only the cursor resets.
    pub(crate) fn stack_reset(&mut self, entry: u32) {
        self.cur = 0;
        self.depth = 0;
        self.stack_push(entry);
    }

    /// A non-tail call into `fnid` (also used for `LOCAL-CALL` frames,
    /// which re-enter the same function).
    pub(crate) fn stack_push(&mut self, fnid: u32) {
        self.depth += 1;
        if self.depth > self.cap {
            self.truncated += 1;
            return;
        }
        self.descend(fnid);
    }

    /// A return: pops the innermost frame.
    pub(crate) fn stack_pop(&mut self) {
        if self.depth == 0 {
            return;
        }
        if self.depth <= self.cap {
            self.cur = self.nodes[self.cur as usize].parent;
        }
        self.depth -= 1;
    }

    /// A tail call into `fnid`: replaces the innermost frame (the
    /// machine reuses the caller's frame, so the caller disappears from
    /// the stack).  A self-tail-call keeps the current context.
    pub(crate) fn stack_tail(&mut self, fnid: u32) {
        if self.depth == 0 {
            self.stack_push(fnid);
            return;
        }
        if self.depth > self.cap || self.nodes[self.cur as usize].fnid == fnid {
            return;
        }
        self.cur = self.nodes[self.cur as usize].parent;
        self.descend(fnid);
    }

    /// A `throw`: unwinds to logical depth `depth`, resuming in `fnid`.
    /// If a tail call replaced the frame that pushed the catch, the
    /// surviving frame is rewritten to the resume function so the mirror
    /// stays exact.
    pub(crate) fn stack_unwind(&mut self, depth: usize, fnid: u32) {
        while self.depth > depth {
            self.stack_pop();
        }
        if self.depth == depth
            && depth > 0
            && self.depth <= self.cap
            && self.nodes[self.cur as usize].fnid != fnid
        {
            self.cur = self.nodes[self.cur as usize].parent;
            self.descend(fnid);
        }
    }

    /// Moves the cursor into the child `fnid`, creating the node on
    /// first visit.
    fn descend(&mut self, fnid: u32) {
        let cur = self.cur as usize;
        if let Some(&(_, idx)) = self.nodes[cur].children.iter().find(|&&(f, _)| f == fnid) {
            self.cur = idx;
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(StackNode {
                fnid,
                parent: self.cur,
                children: Vec::new(),
                self_cycles: 0,
            });
            self.nodes[cur].children.push((fnid, idx));
            self.cur = idx;
        }
    }

    /// Cycles attributed to function id `fnid`.
    pub fn fn_cycles(&self, fnid: u32) -> u64 {
        self.per_fn.get(fnid as usize).copied().unwrap_or(0)
    }

    /// Per-function cycle attribution as `(fnid, cycles)`, nonzero
    /// entries only, heaviest first.
    pub fn per_fn(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .per_fn
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Total retired instructions recorded (sum of the opcode histogram;
    /// excludes synthetic runtime-call cycles).
    pub fn retired(&self) -> u64 {
        self.opcodes.values().sum()
    }

    /// The opcode histogram folded by [`opcode_class`], class-sorted.
    pub fn class_histogram(&self) -> BTreeMap<&'static str, u64> {
        let mut classes = BTreeMap::new();
        for (&op, &n) in &self.opcodes {
            *classes.entry(opcode_class(op)).or_insert(0) += n;
        }
        classes
    }

    /// The retained instruction tail, oldest first.  Empty unless the
    /// profile was created [`with_ring`](ExecProfile::with_ring).
    pub fn ring(&self) -> Vec<Retired> {
        if self.ring.len() < self.ring_cap {
            self.ring.clone()
        } else {
            let mut out = Vec::with_capacity(self.ring.len());
            out.extend_from_slice(&self.ring[self.ring_next..]);
            out.extend_from_slice(&self.ring[..self.ring_next]);
            out
        }
    }

    // ---- call-stack attribution output ----

    /// The depth cap of the call-stack tracker.
    pub fn stack_depth_cap(&self) -> usize {
        self.cap
    }

    /// Sets the call-stack depth cap (affects future pushes only).
    pub fn set_stack_depth_cap(&mut self, cap: usize) {
        self.cap = cap.max(1);
    }

    /// Number of call-stack pushes dropped because the stack was deeper
    /// than the cap; their cycles were charged to the frame at the cap.
    pub fn stack_truncated(&self) -> u64 {
        self.truncated
    }

    /// Cycles attributed without a retired opcode (the synthetic
    /// runtime-call charge).  The folded self-cycle total minus this
    /// equals [`ExecProfile::retired`] exactly.
    pub fn synthetic_cycles(&self) -> u64 {
        self.synthetic
    }

    /// Self and cumulative cycles per calling context, depth-first with
    /// children in first-call order, contexts with zero cumulative
    /// cycles omitted.  The virtual root is not listed; the sum of
    /// top-level `cum_cycles` is the folded total.
    pub fn stack_cycles(&self) -> Vec<StackFrameCycles> {
        // Cumulative cycles bottom-up: nodes only ever point to earlier
        // parents, so a reverse index scan accumulates children first.
        let mut cum: Vec<u64> = self.nodes.iter().map(|n| n.self_cycles).collect();
        for i in (1..self.nodes.len()).rev() {
            let parent = self.nodes[i].parent as usize;
            cum[parent] += cum[i];
        }
        let mut out = Vec::new();
        // Iterative preorder from the root's children.
        let mut stack: Vec<(u32, Vec<u32>)> = self.nodes[0]
            .children
            .iter()
            .rev()
            .map(|&(_, idx)| (idx, Vec::new()))
            .collect();
        while let Some((idx, prefix)) = stack.pop() {
            let node = &self.nodes[idx as usize];
            let mut path = prefix;
            path.push(node.fnid);
            if cum[idx as usize] > 0 {
                out.push(StackFrameCycles {
                    path: path.clone(),
                    self_cycles: node.self_cycles,
                    cum_cycles: cum[idx as usize],
                });
            }
            for &(_, child) in node.children.iter().rev() {
                stack.push((child, path.clone()));
            }
        }
        out
    }

    /// Folded/collapsed-stack output (`caller;...;leaf <self-cycles>`,
    /// one line per calling context with nonzero self cycles, lines
    /// byte-sorted), the format `flamegraph.pl` and speedscope consume.
    /// Names resolve through the program's shared symbol table.
    pub fn folded(&self, names: &FnNameTable<'_>) -> String {
        let mut lines: Vec<String> = self
            .stack_cycles()
            .iter()
            .filter(|f| f.self_cycles > 0)
            .map(|f| {
                let path: Vec<String> = f
                    .path
                    .iter()
                    .map(|&fnid| names.resolve(fnid).into_owned())
                    .collect();
                format!("{} {}", path.join(";"), f.self_cycles)
            })
            .collect();
        // Cycles charged with no frame pushed (possible only when the
        // profile is driven outside a `Machine::run`) surface under a
        // synthetic root rather than vanishing.
        if self.nodes[0].self_cycles > 0 {
            lines.push(format!("(root) {}", self.nodes[0].self_cycles));
        }
        lines.sort();
        lines.join("\n") + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_and_attribution_accumulate() {
        let mut p = ExecProfile::new();
        p.retire(0, 0, "MOV");
        p.retire(0, 1, "ADD");
        p.retire(1, 0, "MOV");
        p.attribute(1, 8);
        assert_eq!(p.opcodes["MOV"], 2);
        assert_eq!(p.opcodes["ADD"], 1);
        assert_eq!(p.retired(), 3);
        assert_eq!(p.fn_cycles(0), 2);
        assert_eq!(p.fn_cycles(1), 9);
        assert_eq!(p.per_fn(), vec![(1, 9), (0, 2)]);
    }

    #[test]
    fn class_histogram_folds_opcodes() {
        let mut p = ExecProfile::new();
        p.retire(0, 0, "MOV");
        p.retire(0, 1, "MOVP");
        p.retire(0, 2, "ADD");
        p.retire(0, 3, "CALL");
        p.retire(0, 4, "RET");
        let classes = p.class_histogram();
        assert_eq!(classes["move"], 2);
        assert_eq!(classes["int_arith"], 1);
        assert_eq!(classes["call"], 2);
        // Every mnemonic the machine can retire maps to a named class;
        // unknowns fall into "other" rather than panicking.
        assert_eq!(opcode_class("NO-SUCH-OP"), "other");
    }

    fn names_for(names: &[&str]) -> crate::program::Program {
        let mut p = crate::program::Program::new();
        for n in names {
            p.fn_id(n);
        }
        p
    }

    #[test]
    fn stack_tracker_builds_a_calling_context_trie() {
        let mut p = ExecProfile::new();
        p.stack_reset(0); // main
        p.retire(0, 0, "MOV");
        p.stack_push(1); // main -> f
        p.retire(1, 0, "ADD");
        p.retire(1, 1, "ADD");
        p.stack_pop(); // back in main
        p.retire(0, 1, "MOV");
        p.stack_push(2); // main -> g
        p.retire(2, 0, "SUB");
        p.stack_pop();
        let frames = p.stack_cycles();
        assert_eq!(
            frames,
            vec![
                StackFrameCycles {
                    path: vec![0],
                    self_cycles: 2,
                    cum_cycles: 5
                },
                StackFrameCycles {
                    path: vec![0, 1],
                    self_cycles: 2,
                    cum_cycles: 2
                },
                StackFrameCycles {
                    path: vec![0, 2],
                    self_cycles: 1,
                    cum_cycles: 1
                },
            ]
        );
        let prog = names_for(&["main", "f", "g"]);
        assert_eq!(p.folded(&prog.names()), "main 2\nmain;f 2\nmain;g 1\n");
        // Self+child sums reconcile with retired() exactly.
        let folded_total: u64 = p.stack_cycles().iter().map(|f| f.self_cycles).sum();
        assert_eq!(folded_total, p.retired() + p.synthetic_cycles());
    }

    #[test]
    fn tail_calls_replace_the_top_frame() {
        let mut p = ExecProfile::new();
        p.stack_reset(0);
        p.stack_push(1); // 0 -> 1
        p.stack_tail(2); // 0 -> 2 (1's frame reused)
        p.retire(2, 0, "MOV");
        p.stack_tail(2); // self tail call: same context
        p.retire(2, 1, "MOV");
        p.stack_pop();
        let frames = p.stack_cycles();
        assert_eq!(frames.len(), 2); // root context 0 and 0->2; 0->1 burned nothing
        assert_eq!(frames[1].path, vec![0, 2]);
        assert_eq!(frames[1].self_cycles, 2);
    }

    #[test]
    fn depth_cap_truncates_and_charges_the_cap_frame() {
        let mut p = ExecProfile::new();
        p.set_stack_depth_cap(2);
        p.stack_reset(0);
        p.stack_push(1); // depth 2 == cap
        p.stack_push(2); // depth 3: dropped
        p.stack_push(3); // depth 4: dropped
        p.retire(3, 0, "MOV"); // charged to the frame at the cap (0;1)
        assert_eq!(p.stack_truncated(), 2);
        p.stack_pop();
        p.stack_pop();
        p.retire(1, 0, "ADD"); // back at 0;1, now tracked again
        p.stack_pop();
        p.retire(0, 0, "ADD");
        let prog = names_for(&["a", "b", "c", "d"]);
        assert_eq!(p.folded(&prog.names()), "a 1\na;b 2\n");
        let folded_total: u64 = p.stack_cycles().iter().map(|f| f.self_cycles).sum();
        assert_eq!(folded_total, p.retired());
    }

    #[test]
    fn unwind_pops_to_the_catch_depth_and_rewrites_divergent_tops() {
        let mut p = ExecProfile::new();
        p.stack_reset(0);
        p.stack_push(1);
        p.stack_push(2);
        p.stack_push(3);
        p.stack_unwind(2, 1); // throw back to depth 2, resuming in fn 1
        p.retire(1, 5, "MOV");
        let frames = p.stack_cycles();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].path, vec![0, 1]);
        // A tail call replaced the catch frame's function: unwind must
        // rewrite the surviving top to the resume function.
        let mut q = ExecProfile::new();
        q.stack_reset(0);
        q.stack_push(1);
        q.stack_tail(2); // frame now runs fn 2; catch was pushed by fn 1
        q.stack_unwind(2, 1);
        q.retire(1, 9, "MOV");
        let frames = q.stack_cycles();
        assert_eq!(frames.last().unwrap().path, vec![0, 1]);
    }

    #[test]
    fn synthetic_cycles_separate_from_retired() {
        let mut p = ExecProfile::new();
        p.stack_reset(4);
        p.retire(4, 0, "RT-CALL");
        p.attribute(4, 8);
        assert_eq!(p.retired(), 1);
        assert_eq!(p.synthetic_cycles(), 8);
        assert_eq!(p.fn_cycles(4), 9);
        let folded_total: u64 = p.stack_cycles().iter().map(|f| f.self_cycles).sum();
        assert_eq!(folded_total, p.retired() + p.synthetic_cycles());
    }

    #[test]
    fn ring_keeps_the_last_n_in_order() {
        let mut p = ExecProfile::with_ring(3);
        for pc in 0..5 {
            p.retire(0, pc, "MOV");
        }
        let tail: Vec<u32> = p.ring().iter().map(|r| r.pc).collect();
        assert_eq!(tail, vec![2, 3, 4]);
        // And a profile without a ring keeps nothing.
        let mut q = ExecProfile::new();
        q.retire(0, 0, "MOV");
        assert!(q.ring().is_empty());
    }
}
