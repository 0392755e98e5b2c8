//! DDR5-like memory channel timing model.
//!
//! Models the paper's scaled memory subsystem (Table 1): 2-channel
//! DDR5-6400, 102.4 GB/s aggregate, 49 ns device access latency, with
//! memory-controller queueing. Requests are spread across channels by
//! address hash; each channel serializes transfers at its line-transfer
//! occupancy, so bandwidth saturation shows up as queueing delay — the
//! effect that matters for multi-core LLC-miss storms.
//!
//! # Examples
//!
//! ```
//! use garibaldi_mem::{DramConfig, DramModel};
//! use garibaldi_types::LineAddr;
//!
//! let mut dram = DramModel::new(DramConfig::default());
//! let lat = dram.access(LineAddr::new(0x1234), /*now=*/0, /*write=*/false);
//! assert!(lat >= DramConfig::default().access_latency);
//! ```

#![warn(missing_docs)]

use garibaldi_types::LineAddr;
use serde::{Deserialize, Serialize};

/// DRAM subsystem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Device access latency in core cycles (49 ns @ 3 GHz ≈ 147).
    pub access_latency: u64,
    /// Channel occupancy per 64 B line transfer in core cycles
    /// (64 B / 51.2 GB/s ≈ 1.25 ns ≈ 4 cycles @ 3 GHz).
    pub transfer_occupancy: u64,
    /// In-flight requests a channel's controller queue accepts before
    /// back-pressure (queueing delay) kicks in.
    pub queue_depth: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self { channels: 2, access_latency: 147, transfer_occupancy: 4, queue_depth: 16 }
    }
}

/// Aggregate event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Line reads served.
    pub reads: u64,
    /// Line writes (writebacks) served.
    pub writes: u64,
    /// Total queueing delay imposed (cycles).
    pub queue_delay: u64,
    /// Requests that experienced queueing.
    pub queued_requests: u64,
}

garibaldi_types::fields!(DramStats { reads, writes, queue_delay, queued_requests });

impl DramStats {
    /// Total lines transferred.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.accesses() * garibaldi_types::LINE_BYTES
    }
}

#[derive(Debug)]
struct Channel {
    /// Completion times of in-flight transfers. Unsorted: the population
    /// is bounded by `queue_depth` (an entry is only pushed after the
    /// over-depth pop), so linear expiry/min scans over a flat, fully
    /// resident array beat a binary heap's pointer-chasing sift — the
    /// LLC-miss drain loop hits this on every miss.
    inflight: Vec<u64>,
}

/// The DRAM timing model.
#[derive(Debug)]
pub struct DramModel {
    cfg: DramConfig,
    channels: Vec<Channel>,
    stats: DramStats,
}

impl DramModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or zero queue depth.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.channels > 0, "zero DRAM channels");
        assert!(cfg.queue_depth > 0, "zero queue depth");
        Self {
            channels: (0..cfg.channels)
                .map(|_| Channel { inflight: Vec::with_capacity(cfg.queue_depth) })
                .collect(),
            cfg,
            stats: DramStats::default(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Event counters.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets counters (end of warmup).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    #[inline]
    fn channel_of(&self, line: LineAddr) -> usize {
        (line.get().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize % self.channels.len()
    }

    /// Perf-only host-CPU hint for the occupancy heap of `line`'s channel
    /// (see [`garibaldi_types::hint`]): [`DramModel::access`] peeks and
    /// pops the heap head, so a drain loop that knows a miss is W requests
    /// away hints the backing buffer up front. Inert — no stats, no heap
    /// changes.
    #[inline]
    pub fn prefetch_channel(&self, line: LineAddr) {
        let ch = &self.channels[self.channel_of(line)];
        if let Some(head) = ch.inflight.first() {
            garibaldi_types::hint::prefetch_read(head);
        }
    }

    /// Serves a line transfer arriving at `now`; returns its total latency
    /// (queueing + access).
    pub fn access(&mut self, line: LineAddr, now: u64, write: bool) -> u64 {
        let depth = self.cfg.queue_depth;
        let ch_idx = self.channel_of(line);
        let ch = &mut self.channels[ch_idx];

        // Expire completed transfers (the heap equivalent popped every
        // entry ≤ now — same set removed, order is irrelevant because
        // only the minimum completion time is ever observed below).
        ch.inflight.retain(|&t| t > now);
        let queue_delay = if ch.inflight.len() >= depth {
            let mut mi = 0;
            for (i, &t) in ch.inflight.iter().enumerate() {
                if t < ch.inflight[mi] {
                    mi = i;
                }
            }
            let earliest = ch.inflight.swap_remove(mi);
            self.stats.queued_requests += 1;
            earliest.saturating_sub(now)
        } else {
            0
        };
        self.stats.queue_delay += queue_delay;
        let completion = now + queue_delay + self.cfg.transfer_occupancy;
        ch.inflight.push(completion);

        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        queue_delay + self.cfg.access_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_is_access_latency() {
        let mut d = DramModel::new(DramConfig::default());
        assert_eq!(d.access(LineAddr::new(1), 0, false), 147);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn saturation_causes_queueing() {
        let cfg = DramConfig { channels: 1, queue_depth: 2, ..Default::default() };
        let mut d = DramModel::new(cfg);
        let l = LineAddr::new(1);
        assert_eq!(d.access(l, 0, false), 147);
        assert_eq!(d.access(l, 0, false), 147);
        // Third concurrent request waits for the first transfer slot.
        let lat = d.access(l, 0, false);
        assert!(lat > 147, "queued latency {lat}");
        assert_eq!(d.stats().queued_requests, 1);
    }

    #[test]
    fn channels_spread_load() {
        let mut d =
            DramModel::new(DramConfig { channels: 2, queue_depth: 1, ..Default::default() });
        // Find two lines on different channels.
        let a = LineAddr::new(0);
        let mut b = LineAddr::new(1);
        while d.channel_of(b) == d.channel_of(a) {
            b = LineAddr::new(b.get() + 1);
        }
        assert_eq!(d.access(a, 0, false), 147);
        assert_eq!(d.access(b, 0, false), 147, "independent channel unaffected");
    }

    #[test]
    fn writes_counted_and_bytes() {
        let mut d = DramModel::new(DramConfig::default());
        d.access(LineAddr::new(1), 0, true);
        d.access(LineAddr::new(2), 0, false);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().bytes(), 128);
    }

    #[test]
    fn reset_clears_stats() {
        let mut d = DramModel::new(DramConfig::default());
        d.access(LineAddr::new(1), 0, false);
        d.reset_stats();
        assert_eq!(d.stats().accesses(), 0);
    }
}
