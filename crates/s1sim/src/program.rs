//! Programs: collections of assembled functions plus symbol and function
//! name tables.

use std::collections::HashMap;
use std::sync::Arc;

use s1lisp_interp::Const;

use crate::insn::Insn;

/// One assembled function.
#[derive(Clone, Debug)]
pub struct FuncCode {
    /// Function name.
    pub name: String,
    /// Number of fixed argument slots the prologue expects at `FP`.
    /// (Functions with `&optional`/`&rest` do their own dispatch on the
    /// actual count in RTA and normalize the frame to this many slots.)
    pub nslots: u16,
    /// The code.
    pub insns: Vec<Insn>,
    /// Label table: label id → instruction index.
    pub labels: Vec<usize>,
}

impl FuncCode {
    /// Deletes every instruction whose `keep` entry is false.  A label
    /// bound to a deleted instruction moves to the next kept one, so a
    /// branch to a deleted jump-to-next or to a deleted `ALLOC 0` lands
    /// where control would have gone anyway.
    ///
    /// # Panics
    ///
    /// Panics if `keep` does not have one entry per instruction.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.insns.len(), "{}: keep mask", self.name);
        // new_index[p]: instructions kept before p, which is the new
        // index of the first kept instruction at or after p.
        let mut new_index = Vec::with_capacity(keep.len() + 1);
        let mut kept = 0;
        for &k in keep {
            new_index.push(kept);
            kept += usize::from(k);
        }
        new_index.push(kept);
        for l in &mut self.labels {
            *l = new_index[*l];
        }
        let mut keep = keep.iter();
        self.insns
            .retain(|_| *keep.next().expect("one flag per insn"));
    }
}

/// A borrowed view of the program's fnid→name table — the one shared
/// resolver every diagnostic surface (execution profiles, post-mortems,
/// stats rendering, trap site annotation) goes through, so a function id
/// always prints the same way everywhere.
///
/// Obtain one with [`Program::names`].  Ids with no interned name
/// resolve to `#N` rather than panicking, so the table is safe to use
/// on profiles that outlived the program that produced them.
#[derive(Clone, Copy, Debug)]
pub struct FnNameTable<'a> {
    names: &'a [String],
}

impl<'a> FnNameTable<'a> {
    /// The name of function `fnid`, or `#N` if the id is unknown.
    pub fn resolve(&self, fnid: u32) -> std::borrow::Cow<'a, str> {
        match self.names.get(fnid as usize) {
            Some(name) => std::borrow::Cow::Borrowed(name.as_str()),
            None => std::borrow::Cow::Owned(format!("#{fnid}")),
        }
    }

    /// Number of interned function names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no function names are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A linked program.
///
/// Function references are *names* resolved at call time (late binding,
/// as in Lisp): calls to a not-yet-defined function trap only when
/// actually executed.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Interned function names; `CallTarget::Func` indexes this table.
    pub fn_names: Vec<String>,
    fn_ids: HashMap<String, u32>,
    /// Function bodies, indexed like [`Program::fn_names`] (`None` until
    /// defined).
    pub functions: Vec<Option<Arc<FuncCode>>>,
    /// Interned symbols (for special variables, quoted symbols, catch
    /// tags).
    pub symbols: Vec<String>,
    symbol_ids: HashMap<String, u32>,
    /// Interned string constants.
    pub strings: Vec<String>,
    string_ids: HashMap<String, u32>,
    /// Static constants (quoted structure), materialized lazily by the
    /// machine.
    pub constants: Vec<Const>,
    constant_ids: HashMap<String, u32>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Interns a function name, returning its id.
    pub fn fn_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.fn_ids.get(name) {
            return id;
        }
        let id = self.fn_names.len() as u32;
        self.fn_names.push(name.to_string());
        self.fn_ids.insert(name.to_string(), id);
        self.functions.push(None);
        id
    }

    /// Interns a symbol, returning its id.
    pub fn sym_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.symbol_ids.get(name) {
            return id;
        }
        let id = self.symbols.len() as u32;
        self.symbols.push(name.to_string());
        self.symbol_ids.insert(name.to_string(), id);
        id
    }

    /// Looks up a function id without interning.
    pub fn lookup_fn(&self, name: &str) -> Option<u32> {
        self.fn_ids.get(name).copied()
    }

    /// Looks up a symbol id without interning.
    pub fn lookup_sym(&self, name: &str) -> Option<u32> {
        self.symbol_ids.get(name).copied()
    }

    /// Looks up a string constant's id without interning.
    pub fn lookup_str(&self, s: &str) -> Option<u32> {
        self.string_ids.get(s).copied()
    }

    /// The shared fnid→name symbol table (see [`FnNameTable`]).
    pub fn names(&self) -> FnNameTable<'_> {
        FnNameTable {
            names: &self.fn_names,
        }
    }

    /// Defines (or redefines) a function.
    ///
    /// # Panics
    ///
    /// Panics if the code violates the 2½-address constraint or contains
    /// an unbound label — both are compiler bugs, not run-time
    /// conditions.
    pub fn define(&mut self, code: FuncCode) -> u32 {
        for insn in &code.insns {
            if let Some(err) = insn.check_two_and_a_half() {
                panic!("{}: {err}", code.name);
            }
        }
        for (i, &off) in code.labels.iter().enumerate() {
            assert!(
                off <= code.insns.len(),
                "{}: label {i} unbound or out of range",
                code.name
            );
        }
        let id = self.fn_id(&code.name.clone());
        self.functions[id as usize] = Some(Arc::new(code));
        id
    }

    /// The code of function `id`, if defined.
    pub fn func(&self, id: u32) -> Option<&Arc<FuncCode>> {
        self.functions.get(id as usize)?.as_ref()
    }

    /// Interns a string constant, returning its id.
    pub fn str_id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.string_ids.insert(s.to_string(), id);
        id
    }

    /// Registers a static constant, returning its table index.  Equal
    /// (printed-form-identical) constants share one entry, so repeated
    /// quoted structure is materialized once per machine.
    pub fn const_id(&mut self, v: Const) -> u32 {
        let key = v.to_string();
        if let Some(&id) = self.constant_ids.get(&key) {
            return id;
        }
        let id = self.constants.len() as u32;
        self.constants.push(v);
        self.constant_ids.insert(key, id);
        id
    }

    /// Total number of instructions across all defined functions.
    pub fn total_insns(&self) -> usize {
        self.functions.iter().flatten().map(|f| f.insns.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::{IntOp, Operand, Reg};

    #[test]
    fn interning_is_stable() {
        let mut p = Program::new();
        let a = p.fn_id("foo");
        let b = p.fn_id("bar");
        assert_eq!(p.fn_id("foo"), a);
        assert_ne!(a, b);
        let s = p.sym_id("*x*");
        assert_eq!(p.sym_id("*x*"), s);
        assert_eq!(p.symbols[s as usize], "*x*");
    }

    #[test]
    fn name_table_resolves_and_falls_back() {
        let mut p = Program::new();
        let a = p.fn_id("foo");
        let names = p.names();
        assert_eq!(names.resolve(a), "foo");
        assert_eq!(names.resolve(999), "#999");
        assert_eq!(names.len(), 1);
        assert!(!names.is_empty());
    }

    #[test]
    fn define_then_lookup() {
        let mut p = Program::new();
        let mut asm = Asm::new("f", 0);
        asm.push(Insn::Ret);
        let id = p.define(asm.finish());
        assert!(p.func(id).is_some());
        assert_eq!(p.lookup_fn("f"), Some(id));
        assert_eq!(p.lookup_fn("g"), None);
        assert_eq!(p.total_insns(), 1);
    }

    #[test]
    #[should_panic(expected = "2½-address violation")]
    fn illegal_code_is_rejected() {
        let mut p = Program::new();
        let mut asm = Asm::new("bad", 3);
        asm.push(Insn::Int {
            op: IntOp::Add,
            dst: Operand::Ind(Reg::FP, 0),
            a: Operand::Ind(Reg::FP, 1),
            b: Operand::Ind(Reg::FP, 2),
        });
        asm.push(Insn::Ret);
        p.define(asm.finish());
    }
}
