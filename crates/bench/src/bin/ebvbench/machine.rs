//! A reading of how fast the machine is right now, taken between steps.
//!
//! The box this benchmark runs on shares its memory system with other
//! tenants, and their load comes and goes in stretches that can outlast a
//! run: the same step reads 225 ms in one run and 300 ms ten minutes later.
//! A fixed, product-independent kernel — random gathers over a table too big
//! for the caches — slows down with it. Per step the two do not track each
//! other, but their medians over a run do (README.md, "Measured noise":
//! correlation 0.99 on `batch_*`, 0.8 on `restart`), so the run's timing
//! metrics are reported at reference speed: scaled by
//! `REFERENCE_MS / median(gather time over the run)`.

use std::cell::RefCell;
use std::time::Instant;

use crate::estimator::median;

/// 32 MB: beyond the last-level cache, so every gather goes to memory.
const TABLE_LEN: usize = 1 << 23;
const GATHERS: usize = 1 << 21;
/// The kernel's time on this box when nothing else contends for memory. A
/// run whose median gather time equals it reports its timings unscaled.
pub const REFERENCE_MS: f64 = 20.0;

pub struct Machine {
    table: Vec<u32>,
    samples: RefCell<Vec<f64>>,
}

impl Machine {
    pub fn new() -> Self {
        Machine {
            table: (0..TABLE_LEN as u32).collect(),
            samples: RefCell::new(Vec::new()),
        }
    }

    /// Runs the kernel once and keeps its wall time. Called before every
    /// step, outside the step's own timer.
    pub fn sample(&self) {
        let started = Instant::now();
        // xorshift64: the loads are independent of one another, like the
        // neighbour and mailbox accesses of a graph traversal.
        let mut x = 88_172_645_463_325_252u64;
        let mut sum = 0u64;
        for _ in 0..GATHERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum += u64::from(self.table[x as usize % TABLE_LEN]);
        }
        std::hint::black_box(sum);
        self.samples
            .borrow_mut()
            .push(started.elapsed().as_secs_f64() * 1e3);
    }

    /// Median kernel time over the run so far, in milliseconds.
    pub fn gather_ms(&self) -> f64 {
        median(&self.samples.borrow())
    }

    /// What a time measured in this run is multiplied by to read at
    /// reference speed. 1 before the first sample.
    pub fn to_reference(&self) -> f64 {
        let gather_ms = self.gather_ms();
        if gather_ms > 0.0 {
            REFERENCE_MS / gather_ms
        } else {
            1.0
        }
    }
}
