//! The linked image: what a run needs from a compile, and nothing else.
//!
//! A [`Compiler`](crate::Compiler) carries trees, transcripts,
//! interpreter sources and a symbol interner, all single-threaded.  Its
//! [`Image`] is the part that runs: the primary backend's linked code
//! (an S-1 [`Program`] or a bytecode [`Module`]) and the `defvar`
//! initial values, all immutable and `Send + Sync`.  Every run gets a
//! fresh engine from it — a [`Machine`] or an [`Evaluator`] with the
//! initial values installed — so no run sees another's mutations.  A
//! machine shares the image's [`Program`] and copies it only if the run
//! interns a name the program lacks.
//!
//! The differential oracle ([`Compiler::run_printed`]) and the compile
//! server's `run` both reach the engines through
//! [`Image::run_printed`]; the server keeps one image per tenant and
//! relinks it only when the tenant's namespace changes.
//!
//! [`Compiler::run_printed`]: crate::Compiler::run_printed

use std::sync::Arc;

use s1lisp_bytecode::{Evaluator, Module};
use s1lisp_interp::{Const, Value};
use s1lisp_reader::Interner;
use s1lisp_s1sim::{Machine, Program};

/// A linked, immutable program ready to run on its backend's engine.
#[derive(Debug)]
pub struct Image {
    code: Code,
    globals: Vec<(String, Const)>,
}

/// The primary backend's linked code.
#[derive(Debug)]
enum Code {
    S1(Arc<Program>),
    Bytecode(Module),
}

/// An image is shared by every worker thread that serves its tenant.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Image>();
};

impl Image {
    /// Links S-1 code with its `defvar` initial values.
    pub(crate) fn s1(program: Arc<Program>, globals: Vec<(String, Const)>) -> Image {
        Image {
            code: Code::S1(program),
            globals,
        }
    }

    /// Links bytecode with its `defvar` initial values.
    pub(crate) fn bytecode(module: Module, globals: Vec<(String, Const)>) -> Image {
        Image {
            code: Code::Bytecode(module),
            globals,
        }
    }

    /// Runs `entry` on a fresh engine — the simulator for S-1 code, the
    /// stack evaluator for bytecode — with the initial values installed
    /// and `fuel` instructions to spend, and prints the outcome: the
    /// value, or `trap: …`.  This is the form the differential oracle
    /// compares and the compile server's `run` answers with.
    pub fn run_printed(&self, entry: &str, args: &[Value], fuel: u64) -> String {
        let outcome = match &self.code {
            Code::S1(program) => {
                let mut m = machine(Arc::clone(program), &self.globals);
                m.fuel_per_run = fuel;
                m.run(entry, args).map_err(|t| t.to_string())
            }
            Code::Bytecode(module) => {
                let mut e = evaluator(module.clone(), &self.globals);
                e.fuel_per_run = fuel;
                e.run(entry, args).map_err(|t| t.to_string())
            }
        };
        match outcome {
            Ok(v) => v.to_string(),
            Err(t) => format!("trap: {t}"),
        }
    }
}

/// A machine over `program` with `globals` installed.
pub(crate) fn machine(program: Arc<Program>, globals: &[(String, Const)]) -> Machine {
    let mut m = Machine::new(program);
    let mut names = Interner::new();
    for (name, v) in globals {
        let _ = m.set_global(name, &v.to_value(&mut names));
    }
    m
}

/// An evaluator over `module` with `globals` installed.
pub(crate) fn evaluator(module: Module, globals: &[(String, Const)]) -> Evaluator {
    let mut e = Evaluator::new(module);
    let mut names = Interner::new();
    for (name, v) in globals {
        e.set_global(name, v.to_value(&mut names));
    }
    e
}
