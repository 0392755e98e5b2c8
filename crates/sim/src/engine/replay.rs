//! Threshold-unit and conditional-matrix replay, one core at a time.
//!
//! The §5.2 threshold unit sees every demand LLC access in global
//! `(timestamp, core, seq)` order, but only its period boundaries depend on
//! that order: each core's PMU ring is touched by that core alone, and
//! every period counter is a sum. So a batch of drained accesses replays
//! in three steps:
//!
//! 1. [`period_cuts`] finds the key of every access that closes a color
//!    period: the access at global rank [`ThresholdState::accesses_to_close`]
//!    and every [`ThresholdState::period`] after it, each by a selection
//!    over the cores' demand lists that reads keys only;
//! 2. [`replay_core`] walks one core's accesses in issue order, counting
//!    each into the share of the period it falls in, and clears the core's
//!    ring as it passes each cut. The access that closes a period counts in
//!    that period's access and miss totals; its own ring and conditional
//!    update land after the clear, as on the sequential unit;
//! 3. [`close_periods`] sums the shares period by period and closes each
//!    completed period on the [`ThresholdState`].
//!
//! The epoch schedule runs step 2 per cluster in parallel; the serial
//! schedule runs all three for each record. The Fig 4c
//! [`ConditionalMatrix`] is a plain sum and rides along in step 2.

use super::request::{ReqKey, ReqOutcome};
use crate::metrics::ConditionalMatrix;
use garibaldi::{PeriodCounts, ThreadPmu, ThresholdState};
use garibaldi_types::VirtAddr;

/// What a demand access is, for the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandKind {
    /// Instruction fetch (not recorded under the I-oracle, which bypasses
    /// the module).
    Instr,
    /// Data access, with the `seq` of its record's instruction request
    /// when the fetch also reached the LLC.
    Data {
        /// Feeds the conditional matrix.
        ifetch_seq: Option<u32>,
    },
}

/// One demand LLC access as the replay sees it: a compact copy of its
/// request, listed per core in issue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandReq {
    /// The request's drain key.
    pub key: ReqKey,
    /// Program counter (matched against the PMU ring).
    pub pc: VirtAddr,
    /// Instruction or data.
    pub kind: DemandKind,
}

/// Writes into `out` (cleared first) the keys of the accesses that close a
/// color period, over `lists` merged in key order: the access at rank
/// `first` (1-based) and every `period` after it. Each list holds one
/// core's accesses in issue order, and the lists ascend by core id.
pub fn period_cuts(lists: &[&[DemandReq]], first: u64, period: u64, out: &mut Vec<ReqKey>) {
    out.clear();
    let total: u64 = lists.iter().map(|l| l.len() as u64).sum();
    if total < first {
        return;
    }
    let lo = lists.iter().filter_map(|l| l.first()).map(|d| d.key.now).min().expect("non-empty");
    let hi = lists.iter().filter_map(|l| l.last()).map(|d| d.key.now).max().expect("non-empty");
    out.extend((first..=total).step_by(period as usize).map(|r| select(lists, r, lo, hi)));
}

/// The key of rank `r` (1-based) over `lists` (see [`period_cuts`]), whose
/// timestamps lie in `[lo, hi]`: a binary search for the timestamp `t` of
/// that access, then a walk over the accesses issued at `t`, which key
/// order sorts by core and then by issue order.
fn select(lists: &[&[DemandReq]], r: u64, mut lo: u64, mut hi: u64) -> ReqKey {
    let upto = |t: u64| -> u64 {
        lists.iter().map(|l| l.partition_point(|d| d.key.now <= t) as u64).sum()
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if upto(mid) >= r {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut rank = r - lo.checked_sub(1).map_or(0, upto);
    for l in lists {
        let from = l.partition_point(|d| d.key.now < lo);
        let at = l[from..].partition_point(|d| d.key.now == lo) as u64;
        if rank <= at {
            return l[from + rank as usize - 1].key;
        }
        rank -= at;
    }
    unreachable!("rank {r} within the lists' length")
}

/// Replays one core's demand accesses (`demand`, in issue order, with
/// `outcomes` indexed by `seq`) against the period `cuts`.
///
/// `shares` gets one entry per period the batch spans (`cuts.len() + 1`):
/// the core's share of the open period, then of each period a cut opens.
/// `pmu` is the core's ring, `None` without a threshold unit (then only
/// `cond` is fed and `shares` is left empty).
pub fn replay_core(
    demand: &[DemandReq],
    outcomes: &[ReqOutcome],
    cuts: &[ReqKey],
    pmu: Option<&mut ThreadPmu>,
    shares: &mut Vec<PeriodCounts>,
    cond: &mut ConditionalMatrix,
) {
    shares.clear();
    let Some(pmu) = pmu else {
        for d in demand {
            if let DemandKind::Data { ifetch_seq: Some(fs) } = d.kind {
                cond.record(!outcomes[fs as usize].llc_hit, outcomes[d.key.seq as usize].llc_hit);
            }
        }
        return;
    };
    shares.resize(cuts.len() + 1, PeriodCounts::default());
    let mut j = 0;
    for d in demand {
        while j < cuts.len() && cuts[j] < d.key {
            j += 1;
            pmu.clear();
        }
        let hit = outcomes[d.key.seq as usize].llc_hit;
        shares[j].count_access(hit);
        if j < cuts.len() && cuts[j] == d.key {
            j += 1;
            pmu.clear();
        }
        match d.kind {
            DemandKind::Instr => {
                if !hit {
                    pmu.record_instr_miss(d.pc);
                }
            }
            DemandKind::Data { ifetch_seq } => {
                pmu.record_data_access(d.pc, hit, &mut shares[j]);
                if let Some(fs) = ifetch_seq {
                    cond.record(!outcomes[fs as usize].llc_hit, hit);
                }
            }
        }
    }
    if j < cuts.len() {
        pmu.clear();
    }
}

/// Sums the cores' `shares` (each from [`replay_core`] over the same `cuts`
/// of length `n_cuts`) period by period into `sums` (scratch), closes each
/// period a cut ended and adds the rest to the open period.
pub fn close_periods<'a>(
    state: &mut ThresholdState,
    n_cuts: usize,
    shares: impl Iterator<Item = &'a [PeriodCounts]>,
    sums: &mut Vec<PeriodCounts>,
) {
    sums.clear();
    sums.resize(n_cuts + 1, PeriodCounts::default());
    for core in shares {
        for (s, c) in sums.iter_mut().zip(core) {
            s.add(c);
        }
    }
    let (open, closed) = sums.split_last().expect("n_cuts + 1 entries");
    for s in closed {
        state.close(s);
    }
    state.add(open);
}
