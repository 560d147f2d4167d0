//! The machine's speed, sampled between operations by timing a fixed
//! reference task, so the compute-bound workloads can report their
//! times at a nominal speed.
//!
//! On a shared machine the speed of the same code drifts by ±15% over
//! tens of seconds (measured on a 2-vCPU x86-64 host: the S-1 simulator
//! running tak and a service batch slowed and sped up together).  The
//! reference task is a small stack-machine interpreter computing
//! `fib(22)`: interpreter dispatch, like the simulator, the bytecode
//! evaluator and the compiler's tree walks, so its time drifts with
//! theirs (correlation 0.99; the ratio of tak's time to it varied by
//! 1.5% where tak's own time varied by 12%).  It is benchmark code, so
//! no change to the program under test can change it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The reference task's time, in microseconds, at the nominal speed
/// the compute-bound workloads report in: its median on the machine
/// the benchmark's bounds were measured on.
const NOMINAL_US: f64 = 1300.0;

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Arg,
    Add,
    Sub,
    JumpIfLess(usize),
    Call,
    Return,
}

/// `fib(n)` on a tiny stack machine: push, arithmetic, conditional
/// jump, call and return, dispatched from a `match` in a loop.  A call
/// takes its argument from the top of the stack; `Arg` pushes it.
fn fib_on_stack_machine(n: i64) -> i64 {
    use Op::*;
    const FIB: [Op; 15] = [
        Arg,
        Push(2),
        JumpIfLess(13),
        Arg,
        Push(1),
        Sub,
        Call,
        Arg,
        Push(2),
        Sub,
        Call,
        Add,
        Return,
        Arg,
        Return,
    ];
    let mut stack: Vec<i64> = vec![n];
    let mut frames: Vec<(usize, usize)> = vec![(usize::MAX, 0)];
    let (mut pc, mut fp) = (0, 0);
    loop {
        match FIB[pc] {
            Push(v) => stack.push(v),
            Arg => stack.push(stack[fp]),
            Add | Sub => {
                let b = stack.pop().expect("operand");
                let a = stack.pop().expect("operand");
                stack.push(if matches!(FIB[pc], Add) { a + b } else { a - b });
            }
            JumpIfLess(target) => {
                let b = stack.pop().expect("operand");
                let a = stack.pop().expect("operand");
                if a < b {
                    pc = target;
                    continue;
                }
            }
            Call => {
                frames.push((pc + 1, fp));
                fp = stack.len() - 1;
                pc = 0;
                continue;
            }
            Return => {
                let v = stack.pop().expect("result");
                stack.truncate(fp);
                let (ret, caller_fp) = frames.pop().expect("frame");
                if ret == usize::MAX {
                    return v;
                }
                stack.push(v);
                (pc, fp) = (ret, caller_fp);
                continue;
            }
        }
        pc += 1;
    }
}

/// Samples taken into account by [`Speed::factor`]: the latest few, so
/// the factor follows drift within a run without following the jitter
/// of a single sample.
const WINDOW: usize = 5;

/// Samples of the reference task's time within one run.
#[derive(Debug)]
pub struct Speed {
    threads: usize,
    samples_us: Vec<f64>,
}

impl Speed {
    /// A sampler running the reference task on `threads` threads at
    /// once: as many as the workload computes on, since the machine's
    /// cores do not slow down alike.
    pub fn new(threads: usize) -> Speed {
        Speed {
            threads: threads.max(1),
            samples_us: Vec::new(),
        }
    }

    /// Times the reference task once on each thread, together.
    pub fn sample(&mut self) {
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(|| black_box(fib_on_stack_machine(black_box(22))));
            }
            black_box(fib_on_stack_machine(black_box(22)));
        });
        self.samples_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    /// Replaces every sample [`Speed::factor`] uses with a new one, for a
    /// long operation the last few samples would not have been taken
    /// close to.
    pub fn refresh(&mut self) {
        for _ in 0..WINDOW {
            self.sample();
        }
    }

    /// Multiplies a time measured now into a time at the nominal speed
    /// (1 before the first sample).
    pub fn factor(&self) -> f64 {
        let recent = &self.samples_us[self.samples_us.len().saturating_sub(WINDOW)..];
        if recent.is_empty() {
            1.0
        } else {
            NOMINAL_US / median(recent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_task_computes_fib() {
        let fib: Vec<i64> = (0..12).map(fib_on_stack_machine).collect();
        assert_eq!(fib, [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]);
        assert_eq!(fib_on_stack_machine(22), 17_711);
    }

    #[test]
    fn the_factor_follows_the_latest_samples() {
        let mut s = Speed::new(2);
        assert_eq!(s.factor(), 1.0);
        s.sample();
        assert!(s.factor() > 0.0);
        s.samples_us = vec![NOMINAL_US / 4.0; 10];
        s.samples_us.extend([2.0 * NOMINAL_US; WINDOW]);
        assert_eq!(s.factor(), 0.5);
    }
}
