//! Host-speed calibration. The machine the benchmark was defined on is
//! shared: its speed changes in steps that last seconds to minutes and
//! move every timing of a run together. A fixed kernel of the
//! benchmark's own code is timed between the measured passes, and the
//! end-to-end timings are scaled by how fast the kernel ran in the same
//! run (`crate::Run::end_to_end`).
//!
//! The kernel does not call the repository's crates, so a change to the
//! program cannot move it.

use crate::stats::SplitMix;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean kernel time on the machine the benchmark was defined on (a 2-CPU
/// VM), seconds. Timings are reported as if the run's kernel had taken
/// this long.
pub const REFERENCE_S: f64 = 0.010;
/// Share of the measured time spent calibrating, after each pass.
const SHARE: f64 = 0.1;
/// Calibration before the workload starts, and the least after any pass.
const FIRST: Duration = Duration::from_millis(200);
const LEAST: Duration = Duration::from_millis(30);

/// Slots of the kernel's open-addressing table (8 MiB).
const SLOTS: usize = 1 << 20;
/// Capacity reserved for the table, in slots (40 MiB, of which only the
/// table's 8 MiB is ever touched). The C allocator maps a block this large
/// on its own and, on freeing it, keeps its own thresholds: freeing a
/// block of 32 MiB or less would raise the size above which the program's
/// later allocations are mapped, and change how the program allocates.
const RESERVED: usize = 5 << 20;

/// The kernel: insert a fixed key stream into a half-full
/// open-addressing table, as a search's visited set does.
fn kernel(table: &mut [u64]) -> usize {
    table.fill(0);
    let mask = table.len() - 1;
    let mut rng = SplitMix::new(0);
    let mut dup = 0;
    for _ in 0..table.len() / 2 {
        let k = rng.next_u64() | 1;
        let mut i = k as usize & mask;
        loop {
            if table[i] == 0 {
                table[i] = k;
                break;
            }
            if table[i] == k {
                dup += 1;
                break;
            }
            i = (i + 1) & mask;
        }
    }
    dup
}

pub struct Calib {
    samples: Vec<f64>,
}

impl Calib {
    /// Calibrate before the workload starts.
    pub fn new() -> Self {
        let mut c = Self {
            samples: Vec::new(),
        };
        c.run_for(FIRST);
        c
    }

    /// Calibrate after a pass that took `wall` seconds.
    pub fn after(&mut self, wall: f64) {
        self.run_for(Duration::from_secs_f64(wall * SHARE).max(LEAST));
    }

    /// The table lives only for one block, so that it never counts into
    /// a pass's peak memory. Its first run, which faults its pages in, is
    /// not timed.
    fn run_for(&mut self, span: Duration) {
        let mut table: Vec<u64> = Vec::with_capacity(RESERVED);
        table.resize(SLOTS, 0);
        black_box(kernel(&mut table));
        let start = Instant::now();
        while start.elapsed() < span {
            let t = Instant::now();
            black_box(kernel(&mut table));
            self.samples.push(t.elapsed().as_secs_f64());
        }
    }

    /// Mean kernel time of the run, seconds. The mean, not the median:
    /// the host switches between a fast and a slow speed, and a pass
    /// pays for the share of time spent at each.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len().max(1) as f64
    }
}
