//! Issue-time latency estimation for the epoch engine.
//!
//! During an epoch, every LLC-bound access advances its core's clock by an
//! *estimate* of the access latency; the drained outcome replaces the
//! estimate at the barrier ([`correct_record`]). The estimate therefore
//! controls the **intra-epoch interleave**: an over-optimistic estimate
//! lets a miss-heavy core race ahead of its serial-engine schedule inside
//! the window — the flat ~1.4 % fig12 error floor the fidelity study
//! measured for the constant LLC-hit charge (`docs/fidelity/`).
//!
//! [`Ewma`] learns per-core, per-stream-class (instruction fetch vs.
//! data) expected latencies from drained barrier outcomes: an
//! exponentially weighted hit rate plus hit/miss latency averages,
//! combined into an expected access latency at issue time. It beat the
//! constant charge at every grid point of the fidelity study, so it is the
//! engine's only estimator (`docs/ARCHITECTURE.md` §"Why one parallel
//! profile").
//!
//! Determinism: estimator state lives in each [`super::private::EpochCore`]
//! and is only mutated at epoch barriers, from that core's own outcomes in
//! sequence order ([`super::private::ClusterSim::apply_corrections`]) — a
//! pure function of the simulated schedule, never of worker scheduling —
//! so `workers=1` vs `workers=N` results stay byte-identical per fixed
//! epoch window (`tests/determinism.rs`,
//! `crates/sim/tests/engine_properties.rs`).

use super::request::ReqOutcome;
use crate::config::SystemConfig;
use crate::core_model::combine_data_stalls;
use garibaldi_trace::MAX_DATA_REFS;
use serde::{Deserialize, Serialize};

/// The issue-latency estimator of [`crate::config::EngineConfig`]: only
/// [`EstimatorKind::Ewma`] remains; kept because `perfbench` sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EstimatorKind {
    /// Learned per-core, per-stream-class EWMA of drained outcomes, plus
    /// the barrier learned-state sync for sharded replacement policies.
    #[default]
    Ewma,
}

/// When the epoch engine merges and installs learned state: only
/// [`TrainMode::Sync`] remains; kept because `perfbench` sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TrainMode {
    /// Merge and install learned state inside the exporting barrier.
    #[default]
    Sync,
}

/// The stream class an LLC-bound access belongs to. Instruction fetches
/// and data accesses have structurally different latency distributions
/// (the cost asymmetry at the heart of the paper), so the learned
/// estimator keeps separate state per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamClass {
    /// Demand instruction fetch.
    Ifetch,
    /// Demand data access.
    Data,
}

impl StreamClass {
    #[inline]
    fn idx(self) -> usize {
        match self {
            StreamClass::Ifetch => 0,
            StreamClass::Data => 1,
        }
    }
}

/// EWMA weight: each new observation contributes 1/16. Small enough to
/// ride out bursts, large enough to track phase changes within a few
/// hundred LLC accesses (validated by the `docs/fidelity/` estimator
/// sweep; the mean estimate, not the constant, is what fixes the
/// intra-epoch interleave).
const EWMA_ALPHA: f64 = 1.0 / 16.0;

/// Per-class learned state: exponentially weighted hit rate plus hit- and
/// miss-latency averages.
#[derive(Debug, Clone, Copy, Default)]
struct ClassEwma {
    hit_rate: f64,
    lat_hit: f64,
    lat_miss: f64,
    seen: bool,
    seen_hit: bool,
    seen_miss: bool,
}

impl ClassEwma {
    fn observe(&mut self, outcome: ReqOutcome) {
        let hit = if outcome.llc_hit { 1.0 } else { 0.0 };
        if self.seen {
            self.hit_rate += EWMA_ALPHA * (hit - self.hit_rate);
        } else {
            self.hit_rate = hit;
            self.seen = true;
        }
        let lat = outcome.latency as f64;
        if outcome.llc_hit {
            if self.seen_hit {
                self.lat_hit += EWMA_ALPHA * (lat - self.lat_hit);
            } else {
                self.lat_hit = lat;
                self.seen_hit = true;
            }
        } else if self.seen_miss {
            self.lat_miss += EWMA_ALPHA * (lat - self.lat_miss);
        } else {
            self.lat_miss = lat;
            self.seen_miss = true;
        }
    }

    fn expected(&self, fallback: u64) -> u64 {
        if !self.seen {
            return fallback;
        }
        let lh = if self.seen_hit { self.lat_hit } else { fallback as f64 };
        let lm = if self.seen_miss { self.lat_miss } else { lh };
        (self.hit_rate * lh + (1.0 - self.hit_rate) * lm).round() as u64
    }
}

/// Learned per-core, per-stream-class estimator: charges the expected
/// access latency `P(hit)·E[lat|hit] + P(miss)·E[lat|miss]`, each term an
/// EWMA over this core's drained outcomes. Cold state (no observations
/// yet) falls back to the optimistic L1+L2+LLC hit constant.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    hit_latency: u64,
    classes: [ClassEwma; 2],
}

impl Ewma {
    /// Cold estimator with `cfg`'s hit latency as the fallback.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self {
            hit_latency: cfg.l1_latency + cfg.l2_latency + cfg.llc_latency,
            classes: [ClassEwma::default(); 2],
        }
    }

    /// Full access latency (cycles) to charge at issue time for an
    /// LLC-bound access of `class`.
    #[inline]
    pub fn issue_estimate(&self, class: StreamClass) -> u64 {
        self.classes[class.idx()].expected(self.hit_latency)
    }

    /// Learns from one drained demand outcome of `class`. Called at epoch
    /// barriers only, in the core's request sequence order.
    #[inline]
    pub fn observe(&mut self, class: StreamClass, outcome: ReqOutcome) {
        self.classes[class.idx()].observe(outcome);
    }
}

/// Running estimate-vs-outcome error account: feeds the
/// `GARIBALDI_ENGINE_STATS=1` estimator line (bias and RMS error of the
/// issue-time estimates against the drained latencies).
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimatorStats {
    /// Observed (estimate, outcome) pairs.
    pub samples: u64,
    /// `Σ (estimate − outcome)` in cycles (positive = over-estimated).
    pub err_sum: f64,
    /// `Σ (estimate − outcome)²`.
    pub err_sq_sum: f64,
}

impl EstimatorStats {
    /// Accounts one resolved request.
    #[inline]
    pub fn record(&mut self, estimate: u64, outcome: u64) {
        let e = estimate as f64 - outcome as f64;
        self.samples += 1;
        self.err_sum += e;
        self.err_sq_sum += e * e;
    }

    /// Merges another account (cross-core reduction).
    pub fn merge(&mut self, other: &EstimatorStats) {
        self.samples += other.samples;
        self.err_sum += other.err_sum;
        self.err_sq_sum += other.err_sq_sum;
    }

    /// Mean signed error in cycles (positive = estimates run high).
    pub fn bias(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.err_sum / self.samples as f64
        }
    }

    /// Root-mean-square error in cycles.
    pub fn rms(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            (self.err_sq_sum / self.samples as f64).sqrt()
        }
    }
}

/// One reference of a pending record: resolved latency, or the issue-time
/// estimate plus the request sequence number that will refine it.
#[derive(Clone, Copy)]
pub struct PendingRef {
    /// Latency charged at issue (final for resolved refs, the estimator's
    /// guess for deferred ones).
    pub lat: u64,
    /// Barrier outcome index, when the reference reached the LLC.
    pub seq: Option<u32>,
}

/// A record whose memory latencies are partly unresolved until the
/// barrier: the issue-time stall estimates plus every reference needed to
/// recompute them from drained outcomes.
pub struct PendingRecord {
    /// Instruction-fetch reference.
    pub ifetch: PendingRef,
    /// Data references (`refs[..n]`).
    pub refs: [PendingRef; MAX_DATA_REFS],
    /// Live prefix length of `refs`.
    pub n: usize,
    /// Ifetch stall charged at issue.
    pub est_ifetch_stall: f64,
    /// Combined data stall charged at issue.
    pub est_data_stall: f64,
}

/// Replaces one record's issue-time estimates with its drained outcomes:
/// feeds each resolved reference to the estimator (and the error account),
/// recomputes the record's stalls from actual latencies, and returns the
/// `(ifetch, data)` stall deltas to charge back to the core's clock.
///
/// The arithmetic deliberately mirrors the issue path
/// ([`combine_data_stalls`] over `latency − l1_latency` stalls), so a
/// perfectly predicted latency yields exactly zero correction.
pub fn correct_record(
    p: &PendingRecord,
    outcomes: &[ReqOutcome],
    cfg: &SystemConfig,
    est: &mut Ewma,
    stats: &mut EstimatorStats,
) -> (f64, f64) {
    let actual_ifetch_stall = match p.ifetch.seq {
        Some(seq) => {
            let o = outcomes[seq as usize];
            est.observe(StreamClass::Ifetch, o);
            stats.record(p.ifetch.lat, o.latency);
            o.latency.saturating_sub(cfg.l1_latency) as f64
        }
        None => p.est_ifetch_stall,
    };
    let mut stalls = [0.0f64; MAX_DATA_REFS];
    for (s, r) in stalls.iter_mut().zip(p.refs.iter()).take(p.n) {
        let lat = match r.seq {
            Some(seq) => {
                let o = outcomes[seq as usize];
                est.observe(StreamClass::Data, o);
                stats.record(r.lat, o.latency);
                o.latency
            }
            None => r.lat,
        };
        *s = lat.saturating_sub(cfg.l1_latency) as f64;
    }
    let actual_data_stall = combine_data_stalls(&mut stalls[..p.n], cfg);
    (actual_ifetch_stall - p.est_ifetch_stall, actual_data_stall - p.est_data_stall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LlcScheme;
    use crate::experiment::ExperimentScale;
    use garibaldi_cache::PolicyKind;

    fn cfg() -> SystemConfig {
        SystemConfig::scaled(&ExperimentScale::smoke(), LlcScheme::plain(PolicyKind::Lru))
    }

    fn hit(lat: u64) -> ReqOutcome {
        ReqOutcome { latency: lat, llc_hit: true }
    }

    fn miss(lat: u64) -> ReqOutcome {
        ReqOutcome { latency: lat, llc_hit: false }
    }

    #[test]
    fn ewma_cold_state_matches_optimistic() {
        // Cold state charges the optimistic L1+L2+LLC hit constant.
        let c = cfg();
        let e = Ewma::new(&c);
        for class in [StreamClass::Ifetch, StreamClass::Data] {
            assert_eq!(e.issue_estimate(class), c.l1_latency + c.l2_latency + c.llc_latency);
        }
    }

    #[test]
    fn ewma_converges_to_the_expected_latency() {
        let c = cfg();
        let mut e = Ewma::new(&c);
        // Alternate 50/50 hits at 60 and misses at 260: expectation 160.
        for _ in 0..500 {
            e.observe(StreamClass::Data, hit(60));
            e.observe(StreamClass::Data, miss(260));
        }
        let est = e.issue_estimate(StreamClass::Data);
        assert!((140..=180).contains(&est), "expected ≈160, got {est}");
        // Ifetch class is independent: still cold.
        assert_eq!(e.issue_estimate(StreamClass::Ifetch), e.hit_latency);
    }

    #[test]
    fn ewma_tracks_a_phase_change() {
        let c = cfg();
        let mut e = Ewma::new(&c);
        for _ in 0..200 {
            e.observe(StreamClass::Ifetch, hit(61));
        }
        assert_eq!(e.issue_estimate(StreamClass::Ifetch), 61);
        for _ in 0..200 {
            e.observe(StreamClass::Ifetch, miss(400));
        }
        let est = e.issue_estimate(StreamClass::Ifetch);
        assert!(est > 350, "estimate must follow the miss phase, got {est}");
    }

    #[test]
    fn stats_bias_and_rms() {
        let mut s = EstimatorStats::default();
        s.record(100, 90); // +10
        s.record(100, 120); // -20
        assert_eq!(s.samples, 2);
        assert!((s.bias() - (-5.0)).abs() < 1e-12);
        assert!((s.rms() - (250.0f64).sqrt()).abs() < 1e-12);
        let mut t = EstimatorStats::default();
        t.merge(&s);
        assert_eq!(t.samples, 2);
        assert_eq!(EstimatorStats::default().bias(), 0.0);
        assert_eq!(EstimatorStats::default().rms(), 0.0);
    }

    #[test]
    fn correct_record_charges_the_estimate_outcome_gap() {
        let c = cfg();
        let mut est = Ewma::new(&c);
        let mut stats = EstimatorStats::default();
        let hitlat = c.l1_latency + c.l2_latency + c.llc_latency;
        let p = PendingRecord {
            ifetch: PendingRef { lat: hitlat, seq: Some(0) },
            refs: [PendingRef { lat: 0, seq: None }; MAX_DATA_REFS],
            n: 0,
            est_ifetch_stall: (hitlat - c.l1_latency) as f64,
            est_data_stall: 0.0,
        };
        // Outcome 100 cycles slower than estimated → +100 ifetch correction.
        let outcomes = [ReqOutcome { latency: hitlat + 100, llc_hit: false }];
        let (d_if, d_data) = correct_record(&p, &outcomes, &c, &mut est, &mut stats);
        assert!((d_if - 100.0).abs() < 1e-12, "{d_if}");
        assert_eq!(d_data, 0.0);
        assert_eq!(stats.samples, 1);
        assert!((stats.bias() + 100.0).abs() < 1e-12);
        // A perfectly predicted outcome corrects by exactly zero.
        let outcomes = [ReqOutcome { latency: hitlat, llc_hit: true }];
        let (d_if, d_data) = correct_record(&p, &outcomes, &c, &mut est, &mut stats);
        assert_eq!(d_if, 0.0);
        assert_eq!(d_data, 0.0);
    }
}
