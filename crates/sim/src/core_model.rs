//! Interval-style core timing model with CPI-stack accounting.
//!
//! One trace record = one fetched instruction line (+ its data references).
//! The model charges:
//!
//! * **base** — `instrs × BASE_CPI` (the 6-wide OoO core's no-stall IPC);
//! * **ifetch** — fetch latency beyond the pipelined L1I hit latency.
//!   Frontend stalls are serial: the pipeline cannot run ahead of a missing
//!   instruction, which is exactly why one instruction miss is "much more
//!   costly than one data miss" (§1);
//! * **data** — memory latency beyond L1D, with the longest access charged
//!   in full and the remainder discounted by the MLP overlap factor
//!   (out-of-order cores overlap independent misses);
//! * **branch** — a fixed penalty per mispredicted record.
//!
//! The cores themselves are [`crate::engine::private::EpochCore`]s; this
//! module holds the arithmetic they share.

use crate::config::{MLP_OVERLAP, ROB_SHADOW};
use garibaldi_cache::{Prefetcher, TemporalPrefetcher};
use garibaldi_types::{LineAddr, VirtAddr, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Sequential run-ahead depth of the frontend prefetch engine (FDIP-style).
const IPF_RUNAHEAD: u64 = 6;

/// Frontend instruction-prefetch engine: temporal successor prediction over
/// the virtual-address miss stream (the I-SPY stand-in) plus sequential
/// run-ahead. Operating in VA space keeps prefetches page-safe; each
/// candidate is translated by the core before being issued.
#[derive(Debug, Default)]
pub struct InstrPrefetchEngine {
    temporal: TemporalPrefetcher,
    buf: Vec<LineAddr>,
}

impl InstrPrefetchEngine {
    /// Most candidates one [`InstrPrefetchEngine::on_miss`] returns: the
    /// temporal successors plus the sequential run-ahead.
    pub const MAX_CANDIDATES: usize = TemporalPrefetcher::SUCCESSORS + IPF_RUNAHEAD as usize;

    /// Candidate VAs to prefetch after an L1I miss at `pc`.
    pub fn on_miss(&mut self, pc: VirtAddr, out: &mut Vec<VirtAddr>) {
        let vline = LineAddr::new(pc.get() / LINE_BYTES);
        self.buf.clear();
        self.temporal.on_access(vline, 0, false, &mut self.buf);
        out.clear();
        for l in &self.buf {
            out.push(VirtAddr::new(l.get() * LINE_BYTES));
        }
        for k in 1..=IPF_RUNAHEAD {
            let cand = VirtAddr::new((vline.get() + k) * LINE_BYTES);
            if !out.contains(&cand) {
                out.push(cand);
            }
        }
    }
}

/// Cycle attribution per CPI-stack component (Fig 1's stacks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CpiStack {
    /// Useful-work cycles.
    pub base: f64,
    /// Frontend (instruction fetch) stall cycles.
    pub ifetch: f64,
    /// Backend memory (data) stall cycles.
    pub data: f64,
    /// Branch misprediction cycles.
    pub branch: f64,
}

garibaldi_types::fields!(CpiStack { base, ifetch, data, branch });

impl CpiStack {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.base + self.ifetch + self.data + self.branch
    }

    /// Per-instruction stack (divide by retired instructions).
    pub fn per_instr(&self, instrs: u64) -> CpiStack {
        if instrs == 0 {
            return CpiStack::default();
        }
        let n = instrs as f64;
        CpiStack {
            base: self.base / n,
            ifetch: self.ifetch / n,
            data: self.data / n,
            branch: self.branch / n,
        }
    }

    pub(crate) fn sub(&self, other: &CpiStack) -> CpiStack {
        CpiStack {
            base: self.base - other.base,
            ifetch: self.ifetch - other.ifetch,
            data: self.data - other.data,
            branch: self.branch - other.branch,
        }
    }
}

/// Combines one record's per-reference memory stalls into its backend
/// stall contribution: the longest stall is charged in full beyond the ROB
/// shadow, the rest are discounted by the MLP overlap factor. Sorts
/// `stalls` descending in place. Used at issue and again at correction
/// time, so a perfectly estimated record corrects by exactly zero.
pub fn combine_data_stalls(stalls: &mut [f64]) -> f64 {
    stalls.sort_unstable_by(|a, b| b.partial_cmp(a).expect("no NaN stalls"));
    let mut data_stall = 0.0;
    for (i, s) in stalls.iter().enumerate() {
        data_stall += if i == 0 {
            // The ROB hides the head of an isolated miss; deeper misses
            // in the same record overlap under the MLP factor.
            (*s - ROB_SHADOW as f64).max(0.0)
        } else {
            s * (1.0 - MLP_OVERLAP)
        };
    }
    data_stall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_totals_and_per_instr() {
        let s = CpiStack { base: 40.0, ifetch: 30.0, data: 20.0, branch: 10.0 };
        assert!((s.total() - 100.0).abs() < 1e-12);
        let p = s.per_instr(100);
        assert!((p.base - 0.4).abs() < 1e-12);
        assert!((p.total() - 1.0).abs() < 1e-12);
        assert_eq!(CpiStack::default().per_instr(0), CpiStack::default());
    }

    #[test]
    fn sub_computes_deltas() {
        let a = CpiStack { base: 5.0, ifetch: 4.0, data: 3.0, branch: 2.0 };
        let b = CpiStack { base: 1.0, ifetch: 1.0, data: 1.0, branch: 1.0 };
        let d = a.sub(&b);
        assert!((d.total() - 10.0).abs() < 1e-12);
    }
}
