//! The host-speed probe behind every host-time metric.
//!
//! On a shared host the simulator's own speed swings by up to 2x, from one
//! second to the next and between minutes, as other tenants contend for the
//! memory hierarchy. Its CPU time tracks its wall time, so the slowdown is in
//! the memory system, not in scheduling, and a pure ALU loop does not see it.
//! Medians over a minute still moved by 25–40 % between runs of the same
//! code. The probe is a fixed set-associative cache model over a working set
//! the size of the simulator's (~100 MB), so it slows when the simulator
//! slows. [`crate::rounds`] times it right before each leg and reports each
//! run's wall time divided by the probe's, times [`QUIET_S`]: host seconds at
//! the speed of a quiet host. In a noisy hour this cut the spread of the
//! host-time medians across seeds (IQR ÷ median) from 0.12–0.29 to
//! 0.03–0.09; in a calm one it changes little.
//!
//! The probe is part of the measuring instrument: changing it rescales every
//! host-time metric, so it must stay as it is.

use std::hint::black_box;
use std::time::Instant;

/// The probe's wall seconds on a quiet host (2-vCPU Xeon, 2.1 GHz): the
/// scale that turns probe-relative times back into seconds.
pub const QUIET_S: f64 = 0.125;
/// Sets in the modelled cache (2^19 sets × 16 ways: 64 MiB of tags and
/// 32 MiB of ages).
const SETS_LOG2: u32 = 19;
const WAYS: usize = 16;
/// Accesses per timing, about 0.15 s on the quiet host.
const ACCESSES: usize = 1_000_000;

pub struct HostProbe {
    tags: Vec<u64>,
    age: Vec<u32>,
    x: u64,
    t: u32,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let n = WAYS << SETS_LOG2;
        HostProbe { tags: vec![u64::MAX; n], age: vec![0; n], x: 0x9e37_79b9_7f4a_7c15, t: 0 }
    }

    /// Wall seconds of [`ACCESSES`] LRU accesses: a quarter to 4 M hot
    /// lines, the rest to 64 M lines, 8 M lines of capacity.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut hits = 0u64;
        for _ in 0..ACCESSES {
            // xorshift64
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let r = self.x;
            let line = if r & 3 == 0 { r >> 8 & 0x3f_ffff } else { r >> 8 & 0x3ff_ffff };
            let set =
                (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & ((1 << SETS_LOG2) - 1);
            let b = set * WAYS;
            self.t = self.t.wrapping_add(1);
            match self.tags[b..b + WAYS].iter().position(|&g| g == line) {
                Some(w) => {
                    hits += 1;
                    self.age[b + w] = self.t;
                }
                None => {
                    let w = (0..WAYS).min_by_key(|&w| self.age[b + w]).expect("ways");
                    self.tags[b + w] = line;
                    self.age[b + w] = self.t;
                }
            }
        }
        black_box(hits);
        start.elapsed().as_secs_f64()
    }
}
