//! The host's speed, read from a fixed kernel of the benchmark's own.
//!
//! On a shared virtual machine the host's speed drifts by 25–50% over
//! seconds to minutes, and thread CPU time drifts with it, so no clock
//! separates the program's speed from the host's.  The benchmark times a
//! short fixed kernel, which runs none of the program's code, right
//! before every timed step and every set-up, and scales the step's time
//! to a nominal host on which the kernel takes [`NOMINAL_NS`].  A slower
//! program still reads slower by the same share; a slower host mostly
//! does not.
//!
//! The kernel has two halves, because the drift hits kinds of work
//! unevenly: a walk over a 64 KiB table (compute and cache, as in the
//! scheduler) and a churn of small allocations (as in compiling a
//! description).  Either half alone tracked one workload and missed the
//! other.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// Kernel time on the nominal host, in nanoseconds: about its time on
/// the 2-vCPU virtual machine the bounds were set on.
pub const NOMINAL_NS: f64 = 200_000.0;

/// Slots of the table the walk reads and writes: 64 KiB.
const TABLE: usize = 1 << 14;
/// Steps of the walk.
const WALK_STEPS: u32 = 35_000;
/// Allocations of the churn.
const ALLOCATIONS: usize = 4_500;
/// Kernel runs per reading; the reading is their median.
const RUNS: usize = 5;

/// One kernel run, in nanoseconds.
fn kernel(table: &mut [u32]) -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9u32;
    let mut acc = 0u32;
    for _ in 0..WALK_STEPS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let slot = &mut table[x as usize % TABLE];
        if *slot & 1 == 0 {
            acc = acc.wrapping_add(*slot);
        } else {
            acc ^= slot.rotate_left(7);
        }
        *slot = slot.wrapping_add(x | 1);
    }
    black_box(acc);
    let mut kept: Vec<Vec<u64>> = Vec::new();
    for i in 0..ALLOCATIONS {
        let v: Vec<u64> = (0..(i % 61 + 3) as u64).collect();
        if i % 3 == 0 {
            kept.push(v);
        } else {
            black_box(&v);
        }
        if kept.len() > 64 {
            kept.swap_remove(i % 64);
        }
    }
    black_box(&kept);
    started.elapsed().as_nanos() as f64
}

/// The kernel's readings over a run.
pub struct Speed {
    table: Vec<u32>,
    readings: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Speed {
        Speed {
            table: (0..TABLE as u32).collect(),
            readings: Vec::new(),
        }
    }
}

impl Speed {
    /// Times the kernel now and returns the factor that scales a time
    /// measured now to the nominal host: measured kernel time over
    /// nominal is how much slower the host runs, so a time is divided by
    /// it and a rate multiplied.
    pub fn slowdown(&mut self) -> f64 {
        let runs: Vec<f64> = (0..RUNS).map(|_| kernel(&mut self.table)).collect();
        let ns = median(&runs).unwrap_or(NOMINAL_NS);
        self.readings.push(ns);
        ns / NOMINAL_NS
    }

    /// The run's median slowdown.
    pub fn median_slowdown(&self) -> f64 {
        median(&self.readings).map_or(1.0, |ns| ns / NOMINAL_NS)
    }

    /// The notes line.
    pub fn note(&self) -> String {
        format!(
            "host: median slowdown {:.3} over {} kernel readings; time figures are divided by it, rates multiplied",
            self.median_slowdown(),
            self.readings.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_positive_and_recorded() {
        let mut speed = Speed::default();
        let s = speed.slowdown();
        assert!(s.is_finite() && s > 0.0);
        assert_eq!(speed.readings.len(), 1);
        assert_eq!(speed.median_slowdown(), s);
    }
}
