//! Workload profiles: the parameter vector that defines a synthetic workload.
//!
//! A profile captures the statistics the paper's analysis (§3) shows to be
//! the mechanism behind the instruction-victim problem:
//!
//! * **instruction footprint & flatness** — `n_funcs × lines_per_func` text
//!   lines walked with Zipf(`func_zipf`) popularity and `loop_iters`
//!   repetitions. Server workloads have multi-MB, flat footprints (long
//!   instruction reuse distances); SPEC has tiny, steep ones.
//! * **data hotness** — a `hot_data_lines`-sized region accessed with
//!   Zipf(`hot_zipf`), plus a `cold_data_lines` streaming region. Server
//!   workloads are *many-to-few*: `hot_frac` of instruction lines are bound
//!   to a few specific hot lines (shared across instruction lines, Fig 4a).
//! * **pairing stability** — each hot instruction line is statically bound
//!   to `pairs_per_line` data lines, so the same instruction re-touches the
//!   same data: exactly the relation the pair table learns.

use serde::{Deserialize, Serialize};

/// Whether a workload belongs to the paper's server or SPEC population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Front-end-heavy server workloads (Table 3): many-to-few pattern.
    Server,
    /// SPEC CPU workloads: few-to-many pattern, negligible LLC I-footprint.
    Spec,
}

/// Parameter vector describing one synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Workload name as used in the paper's figures.
    pub name: String,
    /// Server or SPEC population.
    pub class: WorkloadClass,
    /// Number of functions in the synthetic call graph.
    pub n_funcs: u32,
    /// Mean instruction lines per function body (±25 % variance at build).
    pub lines_per_func: u32,
    /// Zipf exponent of function popularity (low = flat = cold instructions).
    pub func_zipf: f64,
    /// Mean consecutive repetitions of a function body per visit (loops).
    pub loop_iters: u32,
    /// Lines in the hot data region.
    pub hot_data_lines: u64,
    /// Zipf exponent of hot-data popularity (high = few very hot lines).
    pub hot_zipf: f64,
    /// Lines in the cold/streaming data region.
    pub cold_data_lines: u64,
    /// Fraction of instruction lines bound to hot data (vs streaming cold).
    pub hot_frac: f64,
    /// Mean data references per fetched instruction line.
    pub data_refs_per_line: f64,
    /// Fraction of data references that are writes.
    pub write_frac: f64,
    /// Branch mispredictions per kilo-instruction (feeds the CPI stack).
    pub branch_mpki: f64,
    /// Instructions per fetched line (record granularity).
    pub instrs_per_line: u8,
    /// Distinct hot data lines statically bound to each hot instruction line.
    pub pairs_per_line: u8,
    /// When true, hot-data behaviour is concentrated in *popular* functions,
    /// so hot data is reached from hot instructions (the `xalan` exception in
    /// Fig 4c). When false — the common server case — hot data is reached
    /// from arbitrary (mostly cold) instruction lines.
    pub correlate_hot: bool,
    /// Sharing-group size for the hot data region of a multithreaded
    /// (server-class) run: 0 = every thread of the process shares the one
    /// hot region (the historical behaviour, and the one all pre-existing
    /// profiles keep); `k > 0` = threads are partitioned into groups of
    /// `k` (`group = tid / k`), each group getting a private copy of the
    /// hot region. Tuning the group size tunes the *sharing degree* of
    /// the workload's shared working set.
    #[serde(default)]
    pub sharing_degree: u32,
    /// Write fraction applied to hot-region (shared-data) references,
    /// overriding `write_frac` there; `None` means hot and cold regions
    /// use the same `write_frac` (again the historical behaviour). The
    /// shared-data family sets this to model reader/writer mixes on the
    /// contended set independently of the private streaming traffic.
    #[serde(default)]
    pub shared_write_frac: Option<f64>,
}

impl WorkloadProfile {
    /// Total instruction lines in the text segment (before ±variance).
    pub fn text_lines(&self) -> u64 {
        self.n_funcs as u64 * self.lines_per_func as u64
    }

    /// Approximate instruction footprint in bytes.
    pub fn instr_footprint_bytes(&self) -> u64 {
        self.text_lines() * garibaldi_types::LINE_BYTES
    }

    /// Approximate hot-data footprint in bytes.
    pub fn hot_footprint_bytes(&self) -> u64 {
        self.hot_data_lines * garibaldi_types::LINE_BYTES
    }

    /// Write fraction for hot-region references: `shared_write_frac` when
    /// set (the shared-data family's reader/writer mix), else `write_frac`.
    pub fn hot_write_frac(&self) -> f64 {
        self.shared_write_frac.unwrap_or(self.write_frac)
    }

    /// Returns a copy with all footprints (text, hot, cold) scaled by `f`.
    ///
    /// Experiments that shrink the cache hierarchy by `f` call this with the
    /// same factor so the footprint-to-capacity ratios — which drive every
    /// effect in the paper — are preserved. Per-function shape and all
    /// behavioural fractions are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a positive finite number.
    pub fn scaled(&self, f: f64) -> Self {
        assert!(f.is_finite() && f > 0.0, "invalid scale factor {f}");
        let mut p = self.clone();
        p.n_funcs = ((self.n_funcs as f64 * f).round() as u32).max(1);
        p.hot_data_lines = ((self.hot_data_lines as f64 * f).round() as u64).max(64);
        p.cold_data_lines = ((self.cold_data_lines as f64 * f).round() as u64).max(1024);
        p
    }

    /// Validates parameter ranges; used by constructors and property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("empty workload name".into());
        }
        if self.n_funcs == 0 || self.lines_per_func == 0 {
            return Err(format!("{}: zero-sized text segment", self.name));
        }
        if self.hot_data_lines == 0 || self.cold_data_lines == 0 {
            return Err(format!("{}: zero-sized data region", self.name));
        }
        if !(0.0..=1.0).contains(&self.hot_frac) || !(0.0..=1.0).contains(&self.write_frac) {
            return Err(format!("{}: fraction out of [0,1]", self.name));
        }
        if self.data_refs_per_line < 0.0 || self.data_refs_per_line > 4.0 {
            return Err(format!("{}: data_refs_per_line out of [0,4]", self.name));
        }
        if self.instrs_per_line == 0 {
            return Err(format!("{}: zero instrs per line", self.name));
        }
        if self.pairs_per_line == 0 || self.pairs_per_line > 4 {
            return Err(format!("{}: pairs_per_line out of [1,4]", self.name));
        }
        if self.func_zipf < 0.0 || self.hot_zipf < 0.0 {
            return Err(format!("{}: negative zipf exponent", self.name));
        }
        if let Some(f) = self.shared_write_frac {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("{}: shared_write_frac out of [0,1]", self.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn registry_profiles_validate() {
        for p in registry::all_workloads() {
            p.validate().unwrap_or_else(|e| panic!("invalid profile: {e}"));
        }
    }

    #[test]
    fn server_footprints_exceed_spec() {
        let avg = |class: WorkloadClass| {
            let v: Vec<_> = registry::all_workloads().iter().filter(|p| p.class == class).collect();
            v.iter().map(|p| p.instr_footprint_bytes()).sum::<u64>() / v.len() as u64
        };
        // Server instruction footprints are an order of magnitude larger:
        // this is the premise of the whole paper (Fig 1, Fig 3b).
        assert!(avg(WorkloadClass::Server) > 8 * avg(WorkloadClass::Spec));
    }

    #[test]
    fn footprint_math() {
        let p = registry::by_name("verilator").unwrap();
        assert_eq!(p.text_lines(), p.n_funcs as u64 * p.lines_per_func as u64);
        assert_eq!(p.instr_footprint_bytes(), p.text_lines() * 64);
    }

    #[test]
    fn hot_write_frac_defaults_to_write_frac() {
        let p = registry::by_name("tpcc").unwrap();
        assert_eq!(p.shared_write_frac, None);
        assert_eq!(p.hot_write_frac(), p.write_frac);
        let s = registry::by_name("radix").unwrap();
        assert_eq!(s.hot_write_frac(), s.shared_write_frac.unwrap());
        assert_ne!(s.hot_write_frac(), s.write_frac);
    }

    #[test]
    fn shared_write_frac_is_range_checked() {
        let mut p = registry::by_name("barnes").unwrap().clone();
        p.validate().unwrap();
        p.shared_write_frac = Some(1.5);
        assert!(p.validate().unwrap_err().contains("shared_write_frac"));
    }

    #[test]
    fn scaling_preserves_sharing_parameters() {
        let p = registry::by_name("ocean").unwrap().scaled(0.25);
        let o = registry::by_name("ocean").unwrap();
        assert_eq!(p.sharing_degree, o.sharing_degree);
        assert_eq!(p.shared_write_frac, o.shared_write_frac);
    }
}
