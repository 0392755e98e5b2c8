//! Dynamic threshold management and the coloring timer (§5.2, Fig 9).
//!
//! A synchronized l-bit timer advances one *color* per `N` LLC accesses.
//! During each color period a small PMU measures the conditional probability
//! `P(D_miss | I_miss)`: every instruction miss records its 64 B-aligned PC
//! in a per-thread 10-entry ring; data accesses whose PC matches a ring
//! entry update the conditional hit/miss counters. At the period boundary
//! the protection threshold moves by ±1:
//!
//! * `P(D_miss|I_miss)` **below** the overall LLC miss rate → data behind
//!   instruction misses is being served well → *decrease* the threshold
//!   (protect more instructions);
//! * **above** → protection is indiscriminate and hurting → *increase* it.
//!
//! The rings and the conditional counters belong to one thread each, and
//! every counter commutes, so a period's PMU can also be replayed one
//! thread at a time and merged at its boundary: [`ThreadPmu`] is one
//! thread's ring, [`PeriodCounts`] a thread's share of a period's counters,
//! and [`ThresholdState`] the timer and threshold register that closes a
//! period from the summed shares. [`ThresholdUnit`] composes them into the
//! sequential unit.

use crate::config::{
    GaribaldiConfig, ThresholdMode, COLORS, INIT_THRESHOLD, MAX_COST, PMU_RECENT_PCS,
    THRESHOLD_MARGIN,
};
use garibaldi_types::{ThreadId, VirtAddr};

/// One hardware thread's slice of the PMU: its ring of the
/// [`PMU_RECENT_PCS`] most recent instruction-miss PCs (64 B-aligned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPmu {
    pcs: [u64; PMU_RECENT_PCS],
    next: usize,
}

impl Default for ThreadPmu {
    /// An empty ring.
    fn default() -> Self {
        Self { pcs: [u64::MAX; PMU_RECENT_PCS], next: 0 }
    }
}

impl ThreadPmu {
    /// Records an instruction miss PC.
    pub fn record_instr_miss(&mut self, pc: VirtAddr) {
        self.pcs[self.next] = pc.get() & !63;
        self.next = (self.next + 1) % PMU_RECENT_PCS;
    }

    /// Records a data access into `counts` when its PC matches a recent
    /// instruction miss; returns whether it matched.
    pub fn record_data_access(&self, pc: VirtAddr, hit: bool, counts: &mut PeriodCounts) -> bool {
        if !self.pcs.contains(&(pc.get() & !63)) {
            return false;
        }
        counts.cond_total += 1;
        counts.cond_miss += u64::from(!hit);
        true
    }

    /// Empties the ring (every period boundary does, Fig 9b).
    pub fn clear(&mut self) {
        self.pcs.fill(u64::MAX);
        self.next = 0;
    }
}

/// The PMU counters of one color period, or one thread's share of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeriodCounts {
    /// LLC accesses.
    pub accesses: u64,
    /// LLC misses.
    pub misses: u64,
    /// Data accesses whose PC matched a recent instruction miss.
    pub cond_total: u64,
    /// Matched data accesses that missed.
    pub cond_miss: u64,
}

impl PeriodCounts {
    /// Counts one LLC access.
    pub fn count_access(&mut self, hit: bool) {
        self.accesses += 1;
        self.misses += u64::from(!hit);
    }

    /// Adds another share.
    pub fn add(&mut self, o: &PeriodCounts) {
        self.accesses += o.accesses;
        self.misses += o.misses;
        self.cond_total += o.cond_total;
        self.cond_miss += o.cond_miss;
    }
}

/// The unit minus its rings: coloring timer, threshold register and the
/// open period's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdState {
    mode: ThresholdMode,
    threshold: u32,
    color: u8,
    period: u64,
    open: PeriodCounts,
    // Lifetime diagnostics.
    color_ticks: u64,
    threshold_min: u32,
    threshold_max: u32,
}

impl ThresholdState {
    /// The state at reset.
    pub fn new(cfg: &GaribaldiConfig) -> Self {
        let threshold = match cfg.threshold_mode {
            ThresholdMode::Dynamic => INIT_THRESHOLD,
            ThresholdMode::Fixed(delta) => {
                (INIT_THRESHOLD as i64 + delta as i64).clamp(0, MAX_COST as i64) as u32
            }
            ThresholdMode::AllProtect => 0,
        };
        Self {
            mode: cfg.threshold_mode,
            threshold,
            color: 0,
            period: cfg.color_period,
            open: PeriodCounts::default(),
            color_ticks: 0,
            threshold_min: threshold,
            threshold_max: threshold,
        }
    }

    /// Current protection threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Current color of the l-bit timer.
    pub fn color(&self) -> u8 {
        self.color
    }

    /// Number of completed color periods.
    pub fn color_ticks(&self) -> u64 {
        self.color_ticks
    }

    /// (min, max) threshold observed over the run.
    pub fn threshold_range(&self) -> (u32, u32) {
        (self.threshold_min, self.threshold_max)
    }

    /// LLC accesses per color period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Rank, counting the next LLC access as 1, of the access that closes
    /// the open period.
    pub fn accesses_to_close(&self) -> u64 {
        self.period - self.open.accesses
    }

    /// Adds a share of the open period's counters.
    pub fn add(&mut self, share: &PeriodCounts) {
        self.open.add(share);
        debug_assert!(self.open.accesses < self.period, "a full period must be closed");
    }

    /// Adds the last share of the open period, which must complete it, and
    /// closes it: the threshold moves and the color advances. The caller
    /// clears every thread's ring.
    pub fn close(&mut self, share: &PeriodCounts) {
        self.open.add(share);
        debug_assert_eq!(self.open.accesses, self.period, "closing share completes the period");
        self.end_period();
    }

    fn end_period(&mut self) {
        let o = self.open;
        if self.mode == ThresholdMode::Dynamic && o.cond_total > 0 {
            let p_cond = o.cond_miss as f64 / o.cond_total as f64;
            let p_total = o.misses as f64 / o.accesses.max(1) as f64;
            if p_cond < p_total + THRESHOLD_MARGIN {
                self.threshold = self.threshold.saturating_sub(1);
            } else {
                self.threshold = (self.threshold + 1).min(MAX_COST);
            }
            self.threshold_min = self.threshold_min.min(self.threshold);
            self.threshold_max = self.threshold_max.max(self.threshold);
        }
        // Advance the color and reset the PMU counters (Fig 9b).
        self.color = ((self.color as u32 + 1) % COLORS) as u8;
        self.color_ticks += 1;
        self.open = PeriodCounts::default();
    }
}

/// The threshold unit: coloring timer + PMU + threshold register, fed one
/// LLC access at a time in global order.
#[derive(Debug, Clone)]
pub struct ThresholdUnit {
    state: ThresholdState,
    threads: Vec<ThreadPmu>,
}

impl ThresholdUnit {
    /// Creates the unit for `n_threads` hardware threads.
    pub fn new(cfg: &GaribaldiConfig, n_threads: usize) -> Self {
        Self {
            state: ThresholdState::new(cfg),
            threads: vec![ThreadPmu::default(); n_threads.max(1)],
        }
    }

    /// Current protection threshold.
    pub fn threshold(&self) -> u32 {
        self.state.threshold
    }

    /// Current color of the l-bit timer.
    pub fn color(&self) -> u8 {
        self.state.color
    }

    /// Number of completed color periods.
    pub fn color_ticks(&self) -> u64 {
        self.state.color_ticks
    }

    /// (min, max) threshold observed over the run.
    pub fn threshold_range(&self) -> (u32, u32) {
        self.state.threshold_range()
    }

    /// Timer, threshold register and open-period counters.
    pub fn state(&self) -> &ThresholdState {
        &self.state
    }

    /// The PMU ring of `thread`.
    pub fn thread(&self, thread: ThreadId) -> &ThreadPmu {
        &self.threads[thread.index() % self.threads.len()]
    }

    /// Records an instruction miss PC into the requester thread's ring.
    pub fn record_instr_miss(&mut self, thread: ThreadId, pc: VirtAddr) {
        let n = self.threads.len();
        self.threads[thread.index() % n].record_instr_miss(pc);
    }

    /// Records a data access; returns whether the PMU matched its PC
    /// against a recent instruction miss (diagnostics).
    pub fn record_data_access(&mut self, thread: ThreadId, pc: VirtAddr, hit: bool) -> bool {
        let n = self.threads.len();
        self.threads[thread.index() % n].record_data_access(pc, hit, &mut self.state.open)
    }

    /// Registers one LLC access (any type) with its hit/miss outcome; at
    /// each period boundary the threshold updates and the color advances.
    /// Returns `true` when a color tick happened.
    pub fn on_llc_access(&mut self, hit: bool) -> bool {
        self.state.open.count_access(hit);
        if self.state.open.accesses < self.state.period {
            return false;
        }
        self.state.end_period();
        for r in &mut self.threads {
            r.clear();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(period: u64) -> GaribaldiConfig {
        GaribaldiConfig { color_period: period, ..Default::default() }
    }

    #[test]
    fn fixed_mode_applies_delta() {
        let c = GaribaldiConfig { threshold_mode: ThresholdMode::Fixed(-16), ..Default::default() };
        assert_eq!(ThresholdUnit::new(&c, 1).threshold(), 16);
        let c = GaribaldiConfig { threshold_mode: ThresholdMode::Fixed(16), ..Default::default() };
        assert_eq!(ThresholdUnit::new(&c, 1).threshold(), 48);
        let c = GaribaldiConfig { threshold_mode: ThresholdMode::AllProtect, ..Default::default() };
        assert_eq!(ThresholdUnit::new(&c, 1).threshold(), 0);
    }

    #[test]
    fn color_advances_each_period_and_wraps() {
        let mut u = ThresholdUnit::new(&cfg(10), 2);
        for tick in 1..=9 {
            for _ in 0..10 {
                u.on_llc_access(true);
            }
            assert_eq!(u.color_ticks(), tick);
            assert_eq!(u.color(), (tick % 8) as u8);
        }
    }

    #[test]
    fn threshold_decreases_when_data_served_despite_i_misses() {
        let mut u = ThresholdUnit::new(&cfg(100), 1);
        let t = ThreadId::new(0);
        let pc = VirtAddr::new(0x4000);
        u.record_instr_miss(t, pc);
        // Conditional accesses all hit; overall misses are high.
        for i in 0..100 {
            if i < 20 {
                u.record_data_access(t, pc, true);
            }
            u.on_llc_access(i % 2 == 0); // 50% overall miss rate
        }
        assert_eq!(u.threshold(), 31, "threshold decreased to protect more");
    }

    #[test]
    fn threshold_increases_when_protection_hurts() {
        let mut u = ThresholdUnit::new(&cfg(100), 1);
        let t = ThreadId::new(0);
        let pc = VirtAddr::new(0x4000);
        u.record_instr_miss(t, pc);
        for i in 0..100 {
            if i < 20 {
                u.record_data_access(t, pc, false); // conditional misses
            }
            u.on_llc_access(true); // overall miss rate 0
        }
        assert_eq!(u.threshold(), 33);
    }

    #[test]
    fn no_adjustment_without_conditional_samples() {
        let mut u = ThresholdUnit::new(&cfg(10), 1);
        for _ in 0..10 {
            u.on_llc_access(false);
        }
        assert_eq!(u.threshold(), 32);
        assert_eq!(u.color_ticks(), 1);
    }

    #[test]
    fn pmu_ring_keeps_only_recent_pcs() {
        let mut u = ThresholdUnit::new(&cfg(1000), 1);
        let t = ThreadId::new(0);
        for i in 0..=PMU_RECENT_PCS as u64 {
            u.record_instr_miss(t, VirtAddr::new(i * 64));
        }
        // PC 0 was pushed out of the 10-entry ring.
        assert!(!u.record_data_access(t, VirtAddr::new(0), true));
        assert!(u.record_data_access(t, VirtAddr::new(5 * 64), true));
    }

    #[test]
    fn rings_are_per_thread() {
        let mut u = ThresholdUnit::new(&cfg(1000), 2);
        u.record_instr_miss(ThreadId::new(0), VirtAddr::new(0x40));
        assert!(!u.record_data_access(ThreadId::new(1), VirtAddr::new(0x40), true));
        assert!(u.record_data_access(ThreadId::new(0), VirtAddr::new(0x40), true));
    }

    #[test]
    fn pmu_resets_at_period_boundary() {
        let mut u = ThresholdUnit::new(&cfg(5), 1);
        let t = ThreadId::new(0);
        u.record_instr_miss(t, VirtAddr::new(0x40));
        for _ in 0..5 {
            u.on_llc_access(true);
        }
        assert!(!u.record_data_access(t, VirtAddr::new(0x40), true), "ring cleared");
    }
}
