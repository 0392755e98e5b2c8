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
//! matrix; write upgrades invalidate remote clusters; and the core's clock
//! is corrected to the drained latencies. No estimate survives into the
//! next pick, so LLC interleaving follows global time exactly.
//!
//! The schedule has no epochs, worker threads, containment sections or
//! fault hooks: [`crate::SimRunner::run_recover`] falls back to it when a
//! parallel section fails, and it runs the same rule code by
//! construction.

use super::private::{ClusterSim, RecordSource};
use super::shard::LlcShard;
use super::{replay_demand, ParallelEngine};
use crate::config::{EngineConfig, SystemConfig};
use crate::metrics::RunResult;
use garibaldi_trace::{SharedAddressSpace, WorkloadMix};

impl<'p> ParallelEngine<'p> {
    /// Builds the serial schedule's engine: the clusters of
    /// [`ParallelEngine::new`] and one LLC shard spanning every set.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or `cores` does not match the mix.
    pub fn serial(
        cfg: &SystemConfig,
        mix: WorkloadMix,
        cores: Vec<(RecordSource<'p>, SharedAddressSpace)>,
    ) -> Self {
        let eng = EngineConfig { llc_shards: 1, ..EngineConfig::default() };
        Self::assemble(cfg, &eng, mix, cores)
    }

    /// Runs `warmup` + `records` records per core on the serial min-clock
    /// schedule; returns the measured-region result.
    pub fn run_serial(mut self, records: u64, warmup: u64) -> RunResult {
        self.advance_serial(warmup);
        self.start_measurement();
        self.advance_serial(warmup + records);
        self.collect()
    }

    fn advance_serial(&mut self, target: u64) {
        let csize = self.cfg.l2_cluster_size;
        loop {
            let mut best = None;
            let mut best_clock = f64::INFINITY;
            for (k, cl) in self.clusters.iter().enumerate() {
                for (i, c) in cl.cores.iter().enumerate() {
                    if c.records() < target && c.clock < best_clock {
                        best_clock = c.clock;
                        best = Some(k * csize + i);
                    }
                }
            }
            match best {
                Some(core) => self.step_serial(core),
                None => break,
            }
        }
    }

    /// One step of the serial schedule: core `core` (global id) executes
    /// its next record, and every request the record buffered is resolved
    /// before this returns.
    pub fn step_serial(&mut self, core: usize) {
        let csize = self.cfg.l2_cluster_size;
        let (k, i) = (core / csize, core % csize);
        self.clusters[k].step_core(i);
        if self.clusters[k].cores[i].reqs.is_empty() {
            return;
        }
        let snap = self.threshold_snapshot();
        let shard = &mut self.shards[0];
        let out = &mut self.shard_bufs[0].out;
        let c = &mut self.clusters[k].cores[i];
        shard.drain(&c.reqs, snap, out);
        shard.apply_cmds(&out.cmds, snap);
        c.prepare_outcomes();
        for &(_, seq, o) in &out.outcomes {
            c.outcomes[seq as usize] = o;
        }
        for &idx in &c.demand_idx {
            let r = &c.reqs[idx as usize];
            replay_demand(c, r, &mut self.threshold, &mut self.cond, self.cfg.i_oracle);
        }
        if !out.invals.is_empty() {
            for cl in &mut self.clusters {
                self.invalidations += cl.apply_invals(&out.invals);
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
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LlcScheme;
    use crate::experiment::ExperimentScale;
    use garibaldi_cache::PolicyKind;
    use garibaldi_trace::TraceRecord;
    use garibaldi_types::{RwKind, VirtAddr};

    #[test]
    fn reset_stats_clears_counters_but_keeps_contents() {
        let cfg =
            SystemConfig::scaled(&ExperimentScale::smoke(), LlcScheme::plain(PolicyKind::Lru));
        let asp = SharedAddressSpace::new(1);
        let mut r = TraceRecord::fetch_only(VirtAddr::new(0x40_0000), 8);
        r.push_data(VirtAddr::new(0x31 * 64), RwKind::Read);
        let streams = vec![vec![r]; cfg.cores];
        let cores =
            streams.iter().map(|s| (RecordSource::Replay { records: s, pos: 0 }, asp.clone()));
        let mix = WorkloadMix::homogeneous("tpcc", cfg.cores);
        let mut e = ParallelEngine::serial(&cfg, mix, cores.collect());
        e.step_serial(0);
        assert!(e.shards[0].cache().stats().accesses() > 0);
        e.start_measurement();
        assert_eq!(e.shards[0].cache().stats().accesses(), 0);
        let line = asp.translate_line(VirtAddr::new(0x31 * 64));
        assert!(e.shards[0].cache().peek(line).is_some(), "contents survive the reset");
        assert_eq!(e.clusters[0].tier.stats().0.accesses(), 0);
    }
}
