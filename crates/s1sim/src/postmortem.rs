//! Trap post-mortems: a forensic snapshot of the machine at the moment
//! a [`Trap`](crate::Trap) surfaced from [`Machine::run`](crate::Machine::run).
//!
//! The paper's compiler explains itself while *compiling* (§7's
//! transcript); this module makes the *machine* explain itself when it
//! fails.  A [`PostMortem`] carries the fault site, the last retired
//! instructions (from the [`ExecProfile`](crate::ExecProfile) ring
//! buffer, when one is attached), the register file highlights
//! (A/RTA/RTB/EV plus live GP registers), a control-stack summary, and
//! the per-function cycle attribution accumulated up to the fault.
//!
//! Capture is entirely host-side: it reads machine state after the trap
//! and never influences execution, so post-mortems are bit-identical
//! across identical runs (pinned by test).  `Display` renders a
//! human-readable report; [`PostMortem::to_json`] a stable
//! machine-readable form included in `report --json`.

use std::fmt;

use s1lisp_trace::json::Json;

use crate::insn::Reg;
use crate::machine::{FaultSite, Machine, Trap};
use crate::word::Word;

/// One retired instruction with its function resolved to a name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetiredAt {
    /// Function name.
    pub function: String,
    /// Program counter within the function.
    pub pc: u32,
    /// Instruction mnemonic.
    pub opcode: &'static str,
}

/// One pending control-stack frame (innermost first in
/// [`PostMortem::frames`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameAt {
    /// Function the frame will return into.
    pub function: String,
    /// Return program counter within that function.
    pub ret_pc: u32,
}

/// The machine's story of one trapping run.
#[derive(Clone, Debug)]
pub struct PostMortem {
    /// The trap, rendered (site-annotated) as by `Display`.
    pub trap: String,
    /// Name of the faulting function.
    pub function: String,
    /// Program counter of the faulting instruction.
    pub pc: u32,
    /// Instructions retired before the fault (`MachineStats::insns`).
    pub insns: u64,
    /// Control-stack depth at the fault.
    pub call_depth: usize,
    /// Data-stack pointer / frame pointer at the fault.
    pub sp: usize,
    /// Frame pointer at the fault.
    pub fp: usize,
    /// Special (deep) bindings live at the fault.
    pub special_bindings: usize,
    /// Named registers (A, RTA, RTB, EV) and any live general-purpose
    /// registers, rendered.
    pub registers: Vec<(String, String)>,
    /// Pending frames, innermost first.
    pub frames: Vec<FrameAt>,
    /// The last retired instructions, oldest first.  Empty unless an
    /// [`ExecProfile`](crate::ExecProfile) with a ring buffer was
    /// attached (see [`Machine::enable_post_mortem`](crate::Machine::enable_post_mortem)).
    pub last_retired: Vec<RetiredAt>,
    /// Cycles attributed per function up to the fault, heaviest first.
    /// Empty unless a profile was attached.
    pub per_fn_cycles: Vec<(String, u64)>,
}

/// Resolve through the program's shared symbol table — the same
/// resolver profiles and trap annotations use.
fn fn_name(m: &Machine, fnid: u32) -> String {
    m.program.names().resolve(fnid).into_owned()
}

impl PostMortem {
    pub(crate) fn capture(m: &Machine, trap: &Trap, fault: &FaultSite) -> PostMortem {
        let mut registers: Vec<(String, String)> = Vec::new();
        for (label, reg) in [
            ("A", Reg::A),
            ("RTA", Reg::RTA),
            ("RTB", Reg::RTB),
            ("EV", Reg::EV),
        ] {
            registers.push((label.to_string(), m.regs[reg.0 as usize].to_string()));
        }
        for r in Reg::FIRST_GP..32 {
            let w = m.regs[r as usize];
            if w != Word::NIL {
                registers.push((format!("R{r}"), w.to_string()));
            }
        }
        let frames = m
            .ctrl
            .iter()
            .rev()
            .map(|f| FrameAt {
                function: fn_name(m, f.ret_fn),
                ret_pc: f.ret_pc as u32,
            })
            .collect();
        let (last_retired, per_fn_cycles) = match m.profile.as_deref() {
            Some(p) => (
                p.ring()
                    .into_iter()
                    .map(|r| RetiredAt {
                        function: fn_name(m, r.fnid),
                        pc: r.pc,
                        opcode: r.opcode,
                    })
                    .collect(),
                p.per_fn()
                    .into_iter()
                    .map(|(fnid, cycles)| (fn_name(m, fnid), cycles))
                    .collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        PostMortem {
            trap: trap.to_string(),
            function: fn_name(m, fault.fnid),
            pc: fault.pc,
            insns: m.stats.insns,
            call_depth: m.ctrl.len(),
            sp: m.sp,
            fp: m.fp,
            special_bindings: m.specials.len(),
            registers,
            frames,
            last_retired,
            per_fn_cycles,
        }
    }

    /// A stable machine-readable form (fixed field set; see the golden
    /// schema test in `crates/bench`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trap", Json::str(&self.trap)),
            ("function", Json::str(&self.function)),
            ("pc", Json::uint(u64::from(self.pc))),
            ("insns", Json::uint(self.insns)),
            ("call_depth", Json::uint(self.call_depth as u64)),
            ("sp", Json::uint(self.sp as u64)),
            ("fp", Json::uint(self.fp as u64)),
            ("special_bindings", Json::uint(self.special_bindings as u64)),
            (
                "registers",
                Json::Map(
                    self.registers
                        .iter()
                        .map(|(r, w)| (r.clone(), Json::str(w)))
                        .collect(),
                ),
            ),
            (
                "frames",
                Json::Arr(
                    self.frames
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("function", Json::str(&f.function)),
                                ("ret_pc", Json::uint(u64::from(f.ret_pc))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "last_retired",
                Json::Arr(
                    self.last_retired
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("function", Json::str(&r.function)),
                                ("pc", Json::uint(u64::from(r.pc))),
                                ("opcode", Json::str(r.opcode)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_function_cycles",
                Json::Arr(
                    self.per_fn_cycles
                        .iter()
                        .map(|(f, c)| {
                            Json::obj(vec![("function", Json::str(f)), ("cycles", Json::uint(*c))])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for PostMortem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== trap post-mortem ====")?;
        writeln!(f, "trap:        {}", self.trap)?;
        writeln!(f, "at:          {} pc {}", self.function, self.pc)?;
        writeln!(
            f,
            "state:       {} insns retired, call depth {}, sp {}, fp {}, {} special bindings",
            self.insns, self.call_depth, self.sp, self.fp, self.special_bindings
        )?;
        writeln!(f, "-- registers --")?;
        for (r, w) in &self.registers {
            writeln!(f, "  {r:<4} {w}")?;
        }
        if !self.frames.is_empty() {
            writeln!(f, "-- pending frames (innermost first) --")?;
            for fr in &self.frames {
                writeln!(f, "  return into {} at pc {}", fr.function, fr.ret_pc)?;
            }
        }
        if self.last_retired.is_empty() {
            writeln!(
                f,
                "-- no instruction ring (attach ExecProfile::with_ring or enable_post_mortem) --"
            )?;
        } else {
            writeln!(
                f,
                "-- last {} retired instructions (oldest first) --",
                self.last_retired.len()
            )?;
            for r in &self.last_retired {
                writeln!(f, "  {:<18} pc {:<5} {}", r.function, r.pc, r.opcode)?;
            }
        }
        if !self.per_fn_cycles.is_empty() {
            writeln!(f, "-- cycles per function up to the fault --")?;
            for (name, cycles) in &self.per_fn_cycles {
                writeln!(f, "  {name:<18} {cycles:>10}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::{Insn, Operand};
    use crate::program::Program;
    use s1lisp_interp::Value;

    fn faulting_machine() -> Machine {
        // f(x) = car(x): traps on a fixnum argument.
        let mut a = Asm::new("f", 1);
        a.push(Insn::Car {
            dst: Operand::Reg(Reg::A),
            src: Operand::arg(0),
        });
        a.push(Insn::Ret);
        let mut p = Program::new();
        p.define(a.finish());
        Machine::new(p)
    }

    #[test]
    fn trapping_run_captures_a_post_mortem() {
        let mut m = faulting_machine();
        m.enable_post_mortem(16);
        let err = m.run("f", &[Value::Fixnum(5)]).unwrap_err();
        assert_eq!(err.site(), Some(("f", 0)));
        assert!(matches!(err.cause(), Trap::WrongType(_)));
        let pm = m.post_mortem.as_ref().expect("post-mortem captured");
        assert_eq!(pm.function, "f");
        assert_eq!(pm.pc, 0);
        assert_eq!(pm.last_retired.len(), 1);
        assert_eq!(pm.last_retired[0].opcode, "CAR");
        assert!(pm.trap.contains("in f at pc 0"));
        assert!(!pm.per_fn_cycles.is_empty());
        // Rendered and JSON forms agree on the fault site.
        let text = pm.to_string();
        assert!(text.contains("trap post-mortem"), "{text}");
        assert!(text.contains("CAR"), "{text}");
        let json = pm.to_json().to_string();
        s1lisp_trace::json::parse(&json).unwrap();
        assert!(json.contains("\"opcode\":\"CAR\""), "{json}");
    }

    #[test]
    fn successful_run_clears_the_post_mortem() {
        let mut m = faulting_machine();
        m.enable_post_mortem(16);
        m.run("f", &[Value::Fixnum(5)]).unwrap_err();
        assert!(m.post_mortem.is_some());
        let cons = Value::list([Value::Fixnum(1)]);
        m.run("f", &[cons]).unwrap();
        assert!(m.post_mortem.is_none());
    }

    #[test]
    fn post_mortem_without_profile_has_no_ring() {
        let mut m = faulting_machine();
        m.run("f", &[Value::Fixnum(5)]).unwrap_err();
        let pm = m.post_mortem.as_ref().unwrap();
        assert!(pm.last_retired.is_empty());
        assert!(pm.per_fn_cycles.is_empty());
        assert!(pm.to_string().contains("no instruction ring"));
    }
}
