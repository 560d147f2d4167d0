//! A small assembler: instruction emission with forward-referencing
//! labels.

use crate::insn::{Insn, Label};
use crate::program::FuncCode;

/// An in-progress function body.
///
/// Labels are allocated with [`Asm::label`], used as jump targets before
/// or after being bound with [`Asm::bind`], and resolved when the
/// function is [`finish`](Asm::finish)ed.
#[derive(Debug)]
pub struct Asm {
    name: String,
    nslots: u16,
    insns: Vec<Insn>,
    labels: Vec<Option<usize>>,
    /// Where the most recent label was bound (binding positions never
    /// decrease).
    last_bound: Option<usize>,
}

impl Asm {
    /// Starts a function with `nslots` fixed argument slots.
    pub fn new(name: &str, nslots: u16) -> Asm {
        Asm {
            name: name.to_string(),
            nslots,
            insns: Vec::new(),
            labels: Vec::new(),
            last_bound: None,
        }
    }

    /// Emits an instruction, returning its index.
    pub fn push(&mut self, insn: Insn) -> usize {
        self.insns.push(insn);
        self.insns.len() - 1
    }

    /// Replaces a previously emitted instruction (used to fill in frame
    /// sizes known only after the body is generated).
    pub fn patch(&mut self, index: usize, insn: Insn) {
        self.insns[index] = insn;
    }

    /// Allocates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        (self.labels.len() - 1) as Label
    }

    /// Binds `label` to the next instruction to be emitted.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label as usize];
        assert!(slot.is_none(), "label {label} bound twice");
        *slot = Some(self.insns.len());
        self.last_bound = Some(self.insns.len());
    }

    /// The instruction index the most recent label was bound at, if
    /// any: code emitted past it runs only by falling through from it.
    pub fn last_bound(&self) -> Option<usize> {
        self.last_bound
    }

    /// The last emitted instruction, if control reaches the next one
    /// only through it: `None` when nothing was emitted or a label is
    /// bound after it (a branch could arrive without executing it).
    pub fn last_unlabelled_mut(&mut self) -> Option<&mut Insn> {
        if self.last_bound == Some(self.insns.len()) {
            return None;
        }
        self.insns.last_mut()
    }

    /// Allocates a label bound to the next instruction.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Finishes assembly.
    ///
    /// # Panics
    ///
    /// Panics if any label is still unbound.
    pub fn finish(self) -> FuncCode {
        let labels: Vec<usize> = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| l.unwrap_or_else(|| panic!("{}: label {i} never bound", self.name)))
            .collect();
        FuncCode {
            name: self.name,
            nslots: self.nslots,
            insns: self.insns,
            labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Operand;

    #[test]
    fn forward_labels_resolve() {
        let mut a = Asm::new("f", 0);
        let done = a.label();
        a.push(Insn::Jmp { target: done });
        a.push(Insn::Trap { msg: "unreached" });
        a.bind(done);
        a.push(Insn::Ret);
        let code = a.finish();
        assert_eq!(code.labels[done as usize], 2);
    }

    #[test]
    fn here_binds_backward() {
        let mut a = Asm::new("f", 0);
        let top = a.here();
        a.push(Insn::Jmp { target: top });
        let code = a.finish();
        assert_eq!(code.labels[top as usize], 0);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut a = Asm::new("f", 0);
        let l = a.label();
        a.push(Insn::Jmp { target: l });
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new("f", 0);
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn push_returns_indices() {
        let mut a = Asm::new("f", 0);
        assert_eq!(
            a.push(Insn::Pop {
                dst: Operand::arg(0)
            }),
            0
        );
        assert_eq!(a.push(Insn::Ret), 1);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }
}
