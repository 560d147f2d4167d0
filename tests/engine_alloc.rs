//! The engines' hot loops allocate nothing per iteration: host
//! allocations per `run` are the same for a small and a large argument,
//! on the S-1 simulator and on the bytecode evaluator, for a
//! tail-recursive loop (`loopn`: calls, tail calls, a quoted result), a
//! special reader (`accumulate`: special reads, runtime routines) and a
//! deep recursion (`tak`: calls and the open-coded `<`, `-` and `not`).
//!
//! A fresh simulator costs neither its stack's nor its heap's limit:
//! both grow with use, and a machine shares its image's program, so
//! `Machine::new`, and a whole served run of `exptl` on an image of the
//! corpus, each allocate under 64 KiB.
//!
//! A counting global allocator tallies allocation calls and bytes per
//! thread, so tests running in parallel do not see each other's.  Run
//! it optimised too: `cargo test --release --test engine_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s1lisp::{BackendKind, Compiler, Value};
use s1lisp_bench::{corpus, service_units};

struct Counting;

thread_local! {
    /// (allocation calls, bytes requested) on this thread.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls and bytes requested on this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    f();
    let after = ALLOCS.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

/// A kernel: its source, its entry, the globals it reads, and a small
/// and a large argument list.
struct Kernel {
    src: &'static str,
    entry: &'static str,
    globals: &'static [(&'static str, i64)],
    small: &'static [i64],
    large: &'static [i64],
}

const KERNELS: [Kernel; 3] = [
    Kernel {
        src: corpus::LOOPN,
        entry: "loopn",
        globals: &[],
        small: &[100],
        large: &[100_000],
    },
    Kernel {
        src: corpus::SPECIALS_LOOP,
        entry: "accumulate",
        globals: &[("*step*", 2)],
        small: &[100],
        large: &[100_000],
    },
    Kernel {
        src: corpus::TAK,
        entry: "tak",
        globals: &[],
        small: &[6, 4, 2],
        large: &[18, 12, 6],
    },
];

/// Allocation calls and bytes of one run on the small and on the large
/// arguments, after a warm-up run on the large ones that lets every
/// reused buffer reach its working size.
fn small_and_large(k: &Kernel, mut run: impl FnMut(&[Value])) -> ((u64, u64), (u64, u64)) {
    let args = |ns: &[i64]| ns.iter().map(|&n| Value::Fixnum(n)).collect::<Vec<_>>();
    let (small_args, large_args) = (args(k.small), args(k.large));
    run(&large_args);
    let small = allocations(|| run(&small_args));
    let large = allocations(|| run(&large_args));
    (small, large)
}

fn compiler(src: &str, backend: BackendKind) -> Compiler {
    let mut c = Compiler::new();
    c.backend = backend;
    c.compile_str(src).expect("kernel compiles");
    c
}

#[test]
fn simulator_runs_allocate_independently_of_iterations() {
    for k in &KERNELS {
        let mut m = compiler(k.src, BackendKind::S1).machine();
        for &(name, v) in k.globals {
            m.set_global(name, &Value::Fixnum(v)).unwrap();
        }
        let (small, large) = small_and_large(k, |args| {
            m.run(k.entry, args).expect("kernel runs");
        });
        assert_eq!(
            small, large,
            "{}: allocations at {:?} vs {:?}",
            k.entry, k.small, k.large
        );
    }
}

#[test]
fn evaluator_runs_allocate_independently_of_iterations() {
    for k in &KERNELS {
        let mut e = compiler(k.src, BackendKind::Bytecode).evaluator();
        for &(name, v) in k.globals {
            e.set_global(name, Value::Fixnum(v));
        }
        let (small, large) = small_and_large(k, |args| {
            e.run(k.entry, args).expect("kernel runs");
        });
        assert_eq!(
            small, large,
            "{}: allocations at {:?} vs {:?}",
            k.entry, k.small, k.large
        );
    }
}

#[test]
fn a_fresh_machine_and_a_served_run_allocate_under_64_kib() {
    let c = compiler(corpus::LOOPN, BackendKind::S1);
    let (_, bytes) = allocations(|| drop(c.machine()));
    assert!(bytes < 64 << 10, "Machine::new allocated {bytes} bytes");

    let mut c = Compiler::new();
    for unit in service_units() {
        c.compile_str(&unit.source).expect("corpus compiles");
    }
    let image = c.image();
    let args = [Value::Fixnum(3), Value::Fixnum(5), Value::Fixnum(1)];
    let mut printed = String::new();
    let (_, bytes) = allocations(|| printed = image.run_printed("exptl", &args, 100_000));
    assert_eq!(printed, "243");
    assert!(
        bytes < 64 << 10,
        "a served exptl run allocated {bytes} bytes"
    );
}
