//! The engines' hot loops allocate nothing per iteration: host
//! allocations per `run` are the same at n = 100 and n = 100 000, on the
//! S-1 simulator and on the bytecode evaluator, for a tail-recursive
//! loop (`loopn`: calls, tail calls, a quoted result) and a special
//! reader (`accumulate`: special reads, runtime routines).
//!
//! A fresh simulator costs its stack, not its heap's capacity: the heap
//! grows with use, so `Machine::new` allocates under 2 MiB.
//!
//! A counting global allocator tallies allocation calls and bytes per
//! thread, so tests running in parallel do not see each other's.  Run
//! it optimised too: `cargo test --release --test engine_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use s1lisp::{BackendKind, Compiler, Value};
use s1lisp_bench::corpus;

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

/// A kernel: its source, its entry, and the globals it reads.
struct Kernel {
    src: &'static str,
    entry: &'static str,
    globals: &'static [(&'static str, i64)],
}

const KERNELS: [Kernel; 2] = [
    Kernel {
        src: corpus::LOOPN,
        entry: "loopn",
        globals: &[],
    },
    Kernel {
        src: corpus::SPECIALS_LOOP,
        entry: "accumulate",
        globals: &[("*step*", 2)],
    },
];

/// Allocation calls and bytes of one run at n = 100 and at n = 100 000, after a
/// warm-up run at n = 100 000 that lets every reused buffer reach its
/// working size.
fn small_and_large(mut run: impl FnMut(i64)) -> ((u64, u64), (u64, u64)) {
    run(100_000);
    let small = allocations(|| run(100));
    let large = allocations(|| run(100_000));
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
        let (small, large) = small_and_large(|n| {
            m.run(k.entry, &[Value::Fixnum(n)]).expect("kernel runs");
        });
        assert_eq!(
            small, large,
            "{}: allocations at n=100 vs n=100000",
            k.entry
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
        let (small, large) = small_and_large(|n| {
            e.run(k.entry, &[Value::Fixnum(n)]).expect("kernel runs");
        });
        assert_eq!(
            small, large,
            "{}: allocations at n=100 vs n=100000",
            k.entry
        );
    }
}

#[test]
fn a_fresh_machine_allocates_under_two_mib() {
    let c = compiler(corpus::LOOPN, BackendKind::S1);
    let (_, bytes) = allocations(|| drop(c.machine()));
    assert!(bytes < 2 << 20, "Machine::new allocated {bytes} bytes");
}
