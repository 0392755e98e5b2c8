//! The serial min-clock schedule: the reference model, run over the same
//! tier and shard code as the epoch schedule.
//!
//! One [`LlcShard`] spans every LLC set. Each step picks the unfinished
//! core with the smallest clock (ties go to the lower core id), runs one
//! record through its cluster's private tier (`ClusterSim::step_core`),
//! and resolves the requests that record buffered before the next pick:
//! the shard drains them and applies its pair updates and pairwise
//! prefetch fills under a threshold snapshot read from the live unit; the
//! demand outcomes replay into the threshold unit and the conditional
//! matrix through the epoch schedule's per-core replay ([`super::replay`],
//! with the period cuts found in the record's own accesses); write
//! upgrades invalidate remote clusters; and the core's clock is corrected
//! to the drained latencies. No estimate survives into the next pick, so
//! LLC interleaving follows global time exactly.
//!
//! [`ParallelEngine::new`] builds this schedule for
//! [`EngineChoice::Serial`], and [`ParallelEngine::try_run`] then runs
//! it. It has no epochs, worker threads, containment sections or fault
//! hooks, so it never errs: `garibaldi-cli` falls back to it when a
//! parallel section fails, and it runs the same rule code by
//! construction.

use super::private::{ClusterSim, EpochCore};
use super::replay::{close_periods, period_cuts, replay_core};
use super::shard::LlcShard;
use super::{start_measurement, ParallelEngine};
use crate::config::{EngineChoice, L2_CLUSTER_SIZE};

impl<'p> ParallelEngine<'p> {
    /// Runs `warmup` + `records` records per core on the serial min-clock
    /// schedule, leaving the measured region's state for `collect`.
    pub(super) fn run_serial(&mut self, records: u64, warmup: u64) {
        self.advance_serial(warmup);
        start_measurement(&mut self.shards, &mut self.clusters, &mut self.stats);
        self.advance_serial(warmup + records);
    }

    fn advance_serial(&mut self, target: u64) {
        let csize = L2_CLUSTER_SIZE;
        let due = |c: &EpochCore<'_>| if c.records() < target { c.clock } else { f64::INFINITY };
        let mut pick =
            MinClock::new(self.clusters.iter().flat_map(|cl| cl.cores.iter().map(due)).collect());
        while let Some(core) = pick.min() {
            self.step_serial(core);
            pick.set(core, due(&self.clusters[core / csize].cores[core % csize]));
        }
    }

    /// One step of the serial schedule: core `core` (global id) executes
    /// its next record, and every request the record buffered is resolved
    /// before this returns.
    ///
    /// # Panics
    ///
    /// Panics on an engine built for the epoch schedule: its LLC spans
    /// several shards, and this step would drain only the first.
    pub fn step_serial(&mut self, core: usize) {
        assert!(
            matches!(self.schedule, EngineChoice::Serial),
            "step_serial on an engine built for the epoch schedule; build it with \
             EngineChoice::Serial"
        );
        let (k, i) = (core / L2_CLUSTER_SIZE, core % L2_CLUSTER_SIZE);
        self.clusters[k].step_core(i);
        if !self.clusters[k].cores[i].has_requests() {
            return;
        }
        let snap = super::snapshot(&self.threshold);
        let shard = &mut self.shards[0];
        let out = &mut self.scratch.out;
        let cl = &mut self.clusters[k];
        let c = &mut cl.cores[i];
        shard.drain(&c.run, snap, out);
        shard.apply_cmds(&out.cmds, snap);
        c.prepare_outcomes();
        for &(_, seq, o) in &out.outcomes {
            c.outcomes[seq as usize] = o;
        }
        let cuts = &mut self.scratch.cuts;
        match self.threshold.as_ref() {
            Some(t) => period_cuts(&[&c.demand], t.accesses_to_close(), t.period(), cuts),
            None => cuts.clear(),
        }
        replay_core(&c.demand, &c.outcomes, cuts, c.pmu.as_mut(), &mut c.shares, &mut cl.cond);
        if let Some(t) = self.threshold.as_mut() {
            close_periods(
                t,
                cuts.len(),
                std::iter::once(c.shares.as_slice()),
                &mut self.scratch.sums,
            );
            if !cuts.is_empty() {
                // A period boundary clears every ring; this core's was
                // cleared at its cut.
                for other in self.clusters.iter_mut().flat_map(|cl| cl.cores.iter_mut()) {
                    if other.id().index() != core {
                        if let Some(p) = other.pmu.as_mut() {
                            p.clear();
                        }
                    }
                }
            }
        }
        if !out.invals.is_empty() {
            for cl in &mut self.clusters {
                cl.apply_invals(&out.invals);
            }
        }
        self.clusters[k].apply_corrections();
    }

    /// The private tiers, one per L2 cluster (read-only; inspection).
    pub fn clusters(&self) -> &[ClusterSim<'p>] {
        &self.clusters
    }

    /// The LLC shards (read-only; inspection).
    pub fn shards(&self) -> &[LlcShard] {
        &self.shards
    }

    /// Remote L2 copies dropped by write upgrades since the last stats
    /// reset.
    pub fn invalidations(&self) -> u64 {
        self.clusters.iter().map(|cl| cl.invalidations).sum()
    }
}

/// A tournament tree over the cores' clocks: [`MinClock::min`] is the core
/// with the lowest clock, ties to the lower core id, and re-keying one core
/// replays only its path to the root.
///
/// Clocks are finite and non-negative, or +∞ for a finished core. Their
/// bit patterns then order as the clocks do, so each node holds one
/// integer key, the clock's bits above the core id, and a match is one
/// integer compare.
struct MinClock {
    /// Leaves start here (a power of two at least the core count).
    leaves: usize,
    /// The key of each node's winner ([`key`]); node 1 is the root, node
    /// `k` has children `2k` and `2k + 1`. Finished cores and padding
    /// leaves hold an infinite clock.
    nodes: Vec<u128>,
}

/// The tree key of `core` at `clock`: smaller keys win, so the lower
/// clock wins and equal clocks go to the lower core.
fn key(clock: f64, core: usize) -> u128 {
    debug_assert!(clock >= 0.0 && clock.is_sign_positive(), "clock {clock} of core {core}");
    (u128::from(clock.to_bits()) << 64) | core as u128
}

impl MinClock {
    fn new(clocks: Vec<f64>) -> Self {
        let leaves = clocks.len().next_power_of_two();
        let mut nodes = vec![key(f64::INFINITY, usize::MAX); 2 * leaves];
        for (i, c) in clocks.into_iter().enumerate() {
            nodes[leaves + i] = key(c, i);
        }
        let mut t = Self { leaves, nodes };
        for k in (1..leaves).rev() {
            t.replay(k);
        }
        t
    }

    fn replay(&mut self, k: usize) {
        self.nodes[k] = self.nodes[2 * k].min(self.nodes[2 * k + 1]);
    }

    /// The unfinished core with the lowest clock.
    fn min(&self) -> Option<usize> {
        let root = self.nodes[1];
        ((root >> 64) as u64 != f64::INFINITY.to_bits()).then_some(root as u64 as usize)
    }

    /// Re-keys `core` (an infinite clock retires it).
    fn set(&mut self, core: usize, clock: f64) {
        let mut k = self.leaves + core;
        self.nodes[k] = key(clock, core);
        while k > 1 {
            k /= 2;
            self.replay(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, LlcScheme, SystemConfig};
    use crate::engine::private::RecordSource;
    use crate::experiment::ExperimentScale;
    use garibaldi_cache::PolicyKind;
    use garibaldi_trace::{SharedAddressSpace, TraceRecord, WorkloadMix};
    use garibaldi_types::{RwKind, VirtAddr};

    /// Runs `f` on an engine built for `choice`, every core replaying one
    /// record that fetches one instruction line and reads data line 0x31.
    fn with_engine(choice: EngineChoice, f: impl FnOnce(ParallelEngine<'_>, &SharedAddressSpace)) {
        let cfg =
            SystemConfig::scaled(&ExperimentScale::smoke(), LlcScheme::plain(PolicyKind::Lru));
        let asp = SharedAddressSpace::new(1);
        let mut r = TraceRecord::fetch_only(VirtAddr::new(0x40_0000), 8);
        r.push_data(VirtAddr::new(0x31 * 64), RwKind::Read);
        let streams = vec![vec![r]; cfg.cores];
        let cores =
            streams.iter().map(|s| (RecordSource::Replay { records: s, pos: 0 }, asp.clone()));
        let mix = WorkloadMix::homogeneous("tpcc", cfg.cores);
        f(ParallelEngine::new(&cfg, &choice, mix, cores.collect()), &asp);
    }

    #[test]
    fn reset_stats_clears_counters_but_keeps_contents() {
        with_engine(EngineChoice::Serial, |mut e, asp| {
            e.step_serial(0);
            assert!(e.shards[0].cache().stats().accesses() > 0);
            start_measurement(&mut e.shards, &mut e.clusters, &mut e.stats);
            assert_eq!(e.shards[0].cache().stats().accesses(), 0);
            let line = asp.translate_line(VirtAddr::new(0x31 * 64));
            assert!(e.shards[0].cache().peek(line).is_some(), "contents survive the reset");
            assert_eq!(e.clusters[0].tier.stats().0.accesses(), 0);
        });
    }

    /// An engine built for the epoch schedule has several LLC shards; a
    /// serial step would drain only shard 0 and silently drop the rest.
    #[test]
    #[should_panic(expected = "step_serial on an engine built for the epoch schedule")]
    fn step_serial_on_an_epoch_engine_panics() {
        with_engine(EngineChoice::Parallel(EngineConfig::default()), |mut e, _| e.step_serial(0));
    }

    #[test]
    fn min_clock_picks_the_lowest_clock_then_the_lowest_core() {
        let mut t = MinClock::new(vec![3.0, 1.0, 1.0, f64::INFINITY, 2.0]);
        assert_eq!(t.min(), Some(1), "tie at 1.0 goes to the lower id");
        t.set(1, 5.0);
        assert_eq!(t.min(), Some(2));
        t.set(2, f64::INFINITY);
        assert_eq!(t.min(), Some(4));
        t.set(4, 3.0);
        assert_eq!(t.min(), Some(0), "tie at 3.0 goes to the lower id");
        for c in [0, 1, 4] {
            t.set(c, f64::INFINITY);
        }
        assert_eq!(t.min(), None, "every core finished");
    }

    #[test]
    fn min_clock_breaks_equal_clocks_by_core_at_any_tree_depth() {
        let mut t = MinClock::new(vec![7.5; 9]);
        for core in 0..9 {
            assert_eq!(t.min(), Some(core), "all clocks equal: the lowest live core wins");
            t.set(core, 7.5 + 1e-9);
        }
        assert_eq!(t.min(), Some(0), "a second equal round starts from core 0 again");
        t.set(8, 7.5);
        assert_eq!(t.min(), Some(8), "the lone lower clock wins whatever its core");
    }

    #[test]
    fn min_clock_retires_cores_at_infinity_and_starts_at_zero() {
        let mut t = MinClock::new(vec![0.0, 0.0, 4.0]);
        assert_eq!(t.min(), Some(0), "clock 0 is a live clock");
        t.set(0, f64::INFINITY);
        assert_eq!(t.min(), Some(1));
        t.set(1, 4.0);
        assert_eq!(t.min(), Some(1), "tie at 4.0 goes to the lower id");
        t.set(1, f64::INFINITY);
        t.set(2, f64::MAX);
        assert_eq!(t.min(), Some(2), "the largest finite clock is still live");
        t.set(2, f64::INFINITY);
        assert_eq!(t.min(), None, "every core retired");
        t.set(2, 0.0);
        assert_eq!(t.min(), Some(2), "a retired core can be re-keyed");
    }
}
