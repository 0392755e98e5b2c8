//! Static program model built from a [`WorkloadProfile`].
//!
//! A synthetic program is a text segment of functions laid out contiguously
//! in virtual memory, plus two data regions (hot and cold). Each instruction
//! line carries a *data behaviour* assigned at build time:
//!
//! * `Hot { pairs }` — the line is statically bound to a few specific hot
//!   data lines that it touches every time it executes. Because the bound
//!   lines are drawn Zipf-style from a small region, popular data lines end
//!   up shared by many instruction lines — the paper's many-to-few pattern
//!   (Fig 4a: D1 accessed by I1, I2, I3).
//! * `Cold` — the line streams through the cold region (different addresses
//!   on each execution: long reuse distances, LLC misses).
//!
//! The split between the two, and how it correlates with function
//! popularity, is what separates server workloads from SPEC and `xalan`
//! from the rest.

use crate::profiles::WorkloadProfile;
use crate::zipf::Zipf;
use garibaldi_types::{VirtAddr, LINE_BYTES};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::{Arc, Mutex, Weak};

/// Base virtual address of the text segment.
pub const TEXT_BASE: u64 = 0x0040_0000;
/// Base virtual address of the hot data region.
pub const HOT_BASE: u64 = 0x1000_0000;
/// Base virtual address of the cold/streaming data region.
pub const COLD_BASE: u64 = 0x40_0000_0000;

/// Data behaviour of one instruction line, fixed at program build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineBehavior {
    /// Bound to `n` specific hot-region line indices.
    Hot {
        /// Bound hot-line indices (first `n` valid).
        pairs: [u32; 4],
        /// Number of valid entries in `pairs`.
        n: u8,
    },
    /// Streams through the cold region.
    Cold,
}

/// One function of the synthetic call graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Function {
    /// Index of the function's first line in the global text layout.
    pub first_line: u32,
    /// Number of instruction lines in the body.
    pub n_lines: u32,
}

/// Text-line entry of a cold line (any other value is a hot-line index).
const COLD_LINE: u32 = u32::MAX;

/// Programs handed out by [`SyntheticProgram::shared`], keyed by the whole
/// input of [`SyntheticProgram::build`]: the scaled profile and the seed.
/// The table holds only `Weak`s, so it keeps no program alive by itself.
type SharedTable = Vec<(WorkloadProfile, u64, Weak<SyntheticProgram>)>;

static SHARED: Mutex<SharedTable> = Mutex::new(Vec::new());

/// A fully built synthetic program, shared (immutably) by all cores that run
/// the same workload.
#[derive(Debug, Clone)]
pub struct SyntheticProgram {
    profile: WorkloadProfile,
    funcs: Vec<Function>,
    /// One entry per text line: the line's index among the hot lines, or
    /// [`COLD_LINE`].
    lines: Vec<u32>,
    /// Bound hot data-line indices, `pairs` per hot line, in hot-line order.
    hot_pairs: Vec<u32>,
    /// Bound hot data lines per hot line (`pairs_per_line`, at most 4).
    pairs: u8,
    func_zipf: Zipf,
    hot_zipf: Zipf,
}

impl SyntheticProgram {
    /// Builds the program deterministically from a profile and a seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`].
    pub fn build(profile: &WorkloadProfile, seed: u64) -> Self {
        profile.validate().expect("valid workload profile");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let hot_zipf = Zipf::new(profile.hot_data_lines as usize, profile.hot_zipf);
        let n_funcs = profile.n_funcs as usize;

        // ±25 % body-size variance keeps set-index pressure irregular.
        let base = profile.lines_per_func as i64;
        let delta = (base / 4).max(1);
        let mut funcs = Vec::with_capacity(n_funcs);
        // Room for every function at its largest body, so the table never
        // doubles past its size (several programs lay out more than 2^16
        // lines); the untouched tail goes back after the layout.
        let mut lines = Vec::with_capacity(n_funcs * (base + delta).max(2) as usize);
        let mut hot_pairs = Vec::new();
        let pairs = profile.pairs_per_line.min(4);
        for fi in 0..n_funcs {
            let n_lines = (base + rng.gen_range(-delta..=delta)).max(2) as u32;
            let first_line = lines.len() as u32;

            // Popularity rank of this function, 0.0 (hottest) .. 1.0.
            let rank = fi as f64 / n_funcs.max(1) as f64;
            // For `correlate_hot` workloads, hot data behaviour concentrates
            // in popular functions; otherwise it is independent of rank, so
            // hot data gets reached from (mostly cold) arbitrary lines.
            let hot_p = if profile.correlate_hot {
                (profile.hot_frac * 2.0 * (1.0 - rank)).min(1.0)
            } else {
                profile.hot_frac
            };

            for _ in 0..n_lines {
                if rng.gen::<f64>() < hot_p {
                    lines.push((hot_pairs.len() / pairs as usize) as u32);
                    for _ in 0..pairs {
                        hot_pairs.push(hot_zipf.sample(&mut rng) as u32);
                    }
                } else {
                    lines.push(COLD_LINE);
                }
            }
            funcs.push(Function { first_line, n_lines });
        }

        lines.shrink_to_fit();
        hot_pairs.shrink_to_fit();
        let func_zipf = Zipf::new(n_funcs, profile.func_zipf);
        Self { profile: profile.clone(), funcs, lines, hot_pairs, pairs, func_zipf, hot_zipf }
    }

    /// The program [`SyntheticProgram::build`] makes from `profile` and
    /// `seed`, shared process-wide: while any holder keeps a program with an
    /// equal profile (`==`) and seed alive, this returns that same `Arc`
    /// instead of building again. `build` is pure, so a shared program is
    /// indistinguishable from a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`].
    pub fn shared(profile: &WorkloadProfile, seed: u64) -> Arc<Self> {
        let lookup = |table: &mut SharedTable| {
            table.retain(|(_, _, w)| w.strong_count() > 0);
            table
                .iter()
                .find(|(p, s, _)| *s == seed && p == profile)
                .and_then(|(_, _, w)| w.upgrade())
        };
        let lock = || SHARED.lock().expect("nothing panics while holding the program table");
        if let Some(p) = lookup(&mut lock()) {
            return p;
        }
        // Build outside the lock so runners of other programs never wait
        // on this one; a racing builder of the same key wins, and this
        // copy drops, so equal keys still share one program.
        let built = Arc::new(Self::build(profile, seed));
        let mut table = lock();
        if let Some(p) = lookup(&mut table) {
            return p;
        }
        table.push((profile.clone(), seed, Arc::downgrade(&built)));
        built
    }

    /// The profile this program was built from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Number of functions.
    pub fn n_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Function descriptor by index.
    pub fn func(&self, i: usize) -> Function {
        self.funcs[i]
    }

    /// Total instruction lines actually laid out (after body variance).
    pub fn text_lines(&self) -> usize {
        self.lines.len()
    }

    /// Behaviour of a text line.
    pub fn behavior(&self, line_idx: u32) -> LineBehavior {
        let hot = self.lines[line_idx as usize];
        if hot == COLD_LINE {
            return LineBehavior::Cold;
        }
        let n = self.pairs as usize;
        let mut pairs = [0u32; 4];
        pairs[..n].copy_from_slice(&self.hot_pairs[hot as usize * n..][..n]);
        LineBehavior::Hot { pairs, n: self.pairs }
    }

    /// Virtual address of a text line.
    pub fn text_va(&self, line_idx: u32) -> VirtAddr {
        VirtAddr::new(TEXT_BASE + line_idx as u64 * LINE_BYTES)
    }

    /// Virtual address of a hot-region line.
    pub fn hot_va(&self, hot_idx: u32) -> VirtAddr {
        VirtAddr::new(HOT_BASE + hot_idx as u64 * LINE_BYTES)
    }

    /// Virtual address of a cold-region line (index wraps at region size).
    pub fn cold_va(&self, cold_idx: u64) -> VirtAddr {
        VirtAddr::new(COLD_BASE + (cold_idx % self.profile.cold_data_lines) * LINE_BYTES)
    }

    /// Sampler over function popularity.
    pub fn func_zipf(&self) -> &Zipf {
        &self.func_zipf
    }

    /// Sampler over hot-data popularity (used for occasional unbound draws).
    pub fn hot_zipf(&self) -> &Zipf {
        &self.hot_zipf
    }

    /// Fraction of text lines with hot behaviour (diagnostic).
    pub fn hot_line_fraction(&self) -> f64 {
        if self.lines.is_empty() {
            return 0.0;
        }
        let hot = self.lines.iter().filter(|&&l| l != COLD_LINE).count();
        hot as f64 / self.lines.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn program(name: &str) -> SyntheticProgram {
        SyntheticProgram::build(registry::by_name(name).unwrap(), 11)
    }

    #[test]
    fn build_is_deterministic() {
        let p = registry::by_name("tpcc").unwrap();
        let a = SyntheticProgram::build(p, 5);
        let b = SyntheticProgram::build(p, 5);
        assert_eq!(a.text_lines(), b.text_lines());
        for i in 0..a.text_lines() as u32 {
            assert_eq!(a.behavior(i), b.behavior(i));
        }
    }

    #[test]
    fn equal_keys_share_one_program() {
        let p = registry::by_name("kafka").unwrap();
        let a = SyntheticProgram::shared(p, 0x5eed_0001);
        let b = SyntheticProgram::shared(&p.clone(), 0x5eed_0001);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn other_seeds_and_scales_get_their_own_program() {
        let p = registry::by_name("kafka").unwrap();
        let a = SyntheticProgram::shared(p, 0x5eed_0002);
        let other_seed = SyntheticProgram::shared(p, 0x5eed_0003);
        let half = SyntheticProgram::shared(&p.scaled(0.5), 0x5eed_0002);
        assert!(!Arc::ptr_eq(&a, &other_seed) && !Arc::ptr_eq(&a, &half));
        assert!(half.text_lines() < a.text_lines());
        assert_eq!(half.profile(), &p.scaled(0.5));
    }

    #[test]
    fn the_table_keeps_no_program_alive() {
        let p = registry::by_name("noop").unwrap();
        let a = SyntheticProgram::shared(p, 0x5eed_0004);
        let b = SyntheticProgram::shared(p, 0x5eed_0004);
        let weak = Arc::downgrade(&a);
        drop(a);
        assert!(weak.upgrade().is_some(), "the second holder keeps it");
        drop(b);
        assert!(weak.upgrade().is_none(), "no holder left");
        let again = SyntheticProgram::shared(p, 0x5eed_0004);
        assert!(!std::ptr::eq(weak.as_ptr(), Arc::as_ptr(&again)), "a later call builds anew");
    }

    #[test]
    fn different_seeds_differ() {
        let p = registry::by_name("tpcc").unwrap();
        let a = SyntheticProgram::build(p, 5);
        let b = SyntheticProgram::build(p, 6);
        let diff = (0..a.text_lines().min(b.text_lines()) as u32)
            .filter(|&i| a.behavior(i) != b.behavior(i))
            .count();
        assert!(diff > 0);
    }

    #[test]
    fn text_size_close_to_profile() {
        let prog = program("verilator");
        let expect = prog.profile().text_lines() as f64;
        let got = prog.text_lines() as f64;
        assert!((got - expect).abs() / expect < 0.1, "expect≈{expect}, got {got}");
    }

    #[test]
    fn hot_fraction_close_to_profile() {
        let prog = program("verilator");
        let f = prog.hot_line_fraction();
        let want = prog.profile().hot_frac;
        assert!((f - want).abs() < 0.05, "want≈{want}, got {f}");
    }

    #[test]
    fn hot_pairs_are_within_region() {
        let prog = program("noop");
        for i in 0..prog.text_lines() as u32 {
            if let LineBehavior::Hot { pairs, n } = prog.behavior(i) {
                assert!(n >= 1);
                for &p in &pairs[..n as usize] {
                    assert!((p as u64) < prog.profile().hot_data_lines);
                }
            }
        }
    }

    #[test]
    fn correlated_workload_front_loads_hot_lines() {
        let prog = program("xalan");
        let half = prog.n_funcs() / 2;
        let frac_of = |range: std::ops::Range<usize>| {
            let mut hot = 0usize;
            let mut tot = 0usize;
            for fi in range {
                let f = prog.func(fi);
                for l in f.first_line..f.first_line + f.n_lines {
                    tot += 1;
                    if matches!(prog.behavior(l), LineBehavior::Hot { .. }) {
                        hot += 1;
                    }
                }
            }
            hot as f64 / tot.max(1) as f64
        };
        assert!(frac_of(0..half) > frac_of(half..prog.n_funcs()) + 0.1);
    }

    #[test]
    fn addresses_land_in_their_regions() {
        let prog = program("noop");
        assert_eq!(prog.text_va(0).get(), TEXT_BASE);
        assert_eq!(prog.hot_va(1).get(), HOT_BASE + 64);
        let wrap = prog.profile().cold_data_lines;
        assert_eq!(prog.cold_va(wrap), prog.cold_va(0));
    }
}
