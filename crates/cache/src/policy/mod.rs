//! Replacement policies.
//!
//! All policies implement [`ReplacementPolicy`] and are driven by the cache
//! through four events: insertion, hit, victim selection and the Garibaldi
//! protection hook [`ReplacementPolicy::reset_priority`] ("the eviction
//! priority of the instruction cacheline is reset to the lowest level",
//! §4.2). Victim selection receives an exclusion mask so a protected way is
//! not immediately re-chosen within the same eviction.
//!
//! Policies keep their per-frame state (recency ranks, RRPVs, ETRs) in flat
//! `sets × ways` arrays mirroring the cache's structure-of-arrays tag
//! store; victim scans walk one contiguous per-set row, and tie-breaking
//! order (first minimum / first maximum by way index) is part of each
//! policy's deterministic contract — the golden fixtures depend on it.

mod drrip;
mod hawkeye;
mod lru;
mod mockingjay;
mod rrip;

pub use drrip::Drrip;
pub use hawkeye::Hawkeye;
pub use lru::Lru;
pub use mockingjay::Mockingjay;

use garibaldi_types::LineAddr;
use serde::{Deserialize, Serialize};

/// Context of the access driving a policy event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyCtx {
    /// Physical line being accessed/inserted.
    pub line: LineAddr,
    /// PC signature of the triggering instruction (already hashed/mixed
    /// with the core id by the caller, since equal PCs in different address
    /// spaces are unrelated).
    pub pc_sig: u64,
    /// Instruction-line access.
    pub is_instr: bool,
    /// Fill caused by a prefetch rather than a demand access.
    pub is_prefetch: bool,
}

impl PolicyCtx {
    /// Context for a demand data access.
    pub fn data(line: LineAddr, pc_sig: u64) -> Self {
        Self { line, pc_sig, is_instr: false, is_prefetch: false }
    }

    /// Context for a demand instruction access.
    pub fn instr(line: LineAddr, pc_sig: u64) -> Self {
        Self { line, pc_sig, is_instr: true, is_prefetch: false }
    }
}

/// A cache replacement policy (one instance per cache).
///
/// Way-level state is the policy's own responsibility; the cache only
/// reports events. This trait is object-safe: caches hold
/// `Box<dyn ReplacementPolicy + Send + Sync>` so experiments can select
/// policies at runtime. The `Sync` bound lets the parallel engine read a
/// shard's policy (e.g. [`ReplacementPolicy::merge_learned`]) from a merge
/// worker while other threads step unrelated private tiers.
pub trait ReplacementPolicy: Send + Sync {
    /// Called when `line` is filled into `(set, way)`.
    fn on_insert(&mut self, set: usize, way: usize, ctx: &PolicyCtx);

    /// Called when an access hits `(set, way)`.
    fn on_hit(&mut self, set: usize, way: usize, ctx: &PolicyCtx);

    /// Chooses a victim way in a full set. Ways with their bit set in
    /// `excluded` must not be returned (used by the QBS protection loop);
    /// `excluded` never covers all ways.
    fn choose_victim(&mut self, set: usize, ctx: &PolicyCtx, excluded: u64) -> usize;

    /// Garibaldi protection hook: make `(set, way)` the least-likely victim.
    fn reset_priority(&mut self, set: usize, way: usize);

    /// Notification that `(set, way)` was evicted (for detraining).
    fn on_evict(&mut self, _set: usize, _way: usize) {}

    /// Returns true if the fill should bypass the cache entirely
    /// (meaningful for non-inclusive caches; Mockingjay uses this).
    fn should_bypass(&mut self, _set: usize, _ctx: &PolicyCtx) -> bool {
        false
    }

    /// Perf-only host-CPU hint that `set`'s per-frame state row is about
    /// to be read (see [`garibaldi_types::hint`]). Batched drains call
    /// this from a lookahead window so the policy row's cache miss
    /// overlaps earlier requests' work. Must not change any
    /// decision-relevant state — the default is a no-op, and policies
    /// whose state is not a flat per-set row keep it.
    fn prefetch_row(&self, _set: usize) {}

    /// Exports the policy's PC-indexed learned state — predictor tables
    /// whose meaning is independent of set geometry (Mockingjay's RDP,
    /// Hawkeye's PC predictor, DRRIP's PSEL) — by appending raw entries to
    /// `out`. Set-local state (ETR/RRPV, samplers) is *not* exported.
    /// Policies with no learned tables (the default) export nothing.
    ///
    /// Used by the epoch engine's learned-state sync: a set-sharded LLC
    /// splits one logical predictor into per-shard slices that each train
    /// on a fraction of the samples; exchanging exports at epoch barriers
    /// lets every slice converge on the pooled statistics.
    fn export_learned(&self, _out: &mut Vec<u32>) {}

    /// Computes the deterministic consensus of `peers` — the
    /// [`ReplacementPolicy::export_learned`] tables of same-policy
    /// instances over disjoint set slices, in slice order (this
    /// instance's own export included) — into `out` (cleared first),
    /// without mutating any state. The merge is a *pure function of the
    /// exports*: every peer fed the same `peers` computes the same bytes,
    /// because the per-peer baselines the delta-sum policies subtract are
    /// installed identically everywhere at every sync. That purity is
    /// what lets the epoch engine compute the merge once (or off-thread)
    /// and [`ReplacementPolicy::install_learned`] the result into every
    /// slice. Policies with no learned tables (the default) leave `out`
    /// empty.
    fn merge_learned(&self, _peers: &[Vec<u32>], out: &mut Vec<u32>) {
        out.clear();
    }

    /// Installs a consensus table previously computed by
    /// [`ReplacementPolicy::merge_learned`] — in export layout — as this
    /// instance's learned state and next delta baseline. No-op by
    /// default.
    fn install_learned(&mut self, _merged: &[u32]) {}

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Runtime-selectable policy identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's baseline).
    Lru,
    /// Dynamic RRIP with set dueling (paper comparison point).
    Drrip,
    /// Hawkeye: OPTgen-trained PC classifier (paper comparison point).
    Hawkeye,
    /// Mockingjay: reuse-distance prediction + estimated-time-remaining
    /// (the paper's state-of-the-art host policy).
    Mockingjay,
}

impl PolicyKind {
    /// All kinds, for exhaustive tests/benches.
    pub const ALL: [PolicyKind; 4] =
        [PolicyKind::Lru, PolicyKind::Drrip, PolicyKind::Hawkeye, PolicyKind::Mockingjay];

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Drrip => "DRRIP",
            PolicyKind::Hawkeye => "Hawkeye",
            PolicyKind::Mockingjay => "Mockingjay",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The engine's learned-state sync on one instance: merge the peers'
/// exports, then install the consensus.
#[cfg(test)]
pub(crate) fn merge_and_install(p: &mut dyn ReplacementPolicy, peers: &[Vec<u32>]) {
    let mut merged = Vec::new();
    p.merge_learned(peers, &mut merged);
    p.install_learned(&merged);
}

/// Builds a policy instance for a cache of `sets × ways`.
pub fn build_policy(kind: PolicyKind, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::Lru => Box::new(Lru::new(sets, ways)),
        PolicyKind::Drrip => Box::new(Drrip::new(sets, ways)),
        PolicyKind::Hawkeye => Box::new(Hawkeye::new(sets, ways)),
        PolicyKind::Mockingjay => Box::new(Mockingjay::new(sets, ways)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        for kind in PolicyKind::ALL {
            let p = build_policy(kind, 16, 4);
            assert_eq!(p.name(), kind.label());
        }
    }

    /// Exhaustive contract check: victim selection respects exclusion and
    /// bounds for every policy, in every fill state.
    #[test]
    fn victim_contract_for_all_policies() {
        for kind in PolicyKind::ALL {
            let mut p = build_policy(kind, 4, 4);
            let ctx = PolicyCtx::data(LineAddr::new(123), 7);
            for way in 0..4 {
                p.on_insert(0, way, &ctx);
            }
            for excluded in [0u64, 0b0001, 0b0101, 0b0111] {
                for _ in 0..16 {
                    let v = p.choose_victim(0, &ctx, excluded);
                    assert!(v < 4, "{kind}: victim out of range");
                    assert_eq!(excluded & (1 << v), 0, "{kind}: excluded way chosen");
                }
            }
        }
    }

    #[test]
    fn reset_priority_defers_eviction_for_all_policies() {
        // After protecting a way, an immediate re-selection (with no
        // exclusion) should prefer some other way for every policy.
        for kind in PolicyKind::ALL {
            let mut p = build_policy(kind, 2, 4);
            for way in 0..4 {
                let ctx = PolicyCtx::data(LineAddr::new(100 + way as u64), way as u64);
                p.on_insert(1, way, &ctx);
            }
            let ctx = PolicyCtx::data(LineAddr::new(999), 99);
            let v1 = p.choose_victim(1, &ctx, 0);
            p.reset_priority(1, v1);
            let v2 = p.choose_victim(1, &ctx, 0);
            assert_ne!(v1, v2, "{kind}: protected way immediately re-evicted");
        }
    }
}
