//! Dynamic RRIP with set dueling (Jaleel et al., ISCA'10 — paper ref [35]).
//!
//! A handful of leader sets are dedicated to SRRIP and BRRIP insertion; a
//! PSEL counter tallies which leader group misses less and follower sets
//! adopt the winner's insertion policy.

use super::rrip::{RrpvTable, BRRIP_EPSILON, RRPV_LONG, RRPV_MAX};
use super::{PolicyCtx, ReplacementPolicy};
use crate::sat::SatCounter;

/// Leader sets per dueling team.
const LEADERS_PER_TEAM: usize = 32;
/// PSEL width.
const PSEL_BITS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetRole {
    LeaderSrrip,
    LeaderBrrip,
    Follower,
}

/// DRRIP replacement policy.
#[derive(Debug)]
pub struct Drrip {
    table: RrpvTable,
    roles: Vec<SetRole>,
    psel: SatCounter,
    /// PSEL value as of the last learned-state sync (the shared baseline
    /// the delta-sum merge in `merge_learned` works from).
    synced: u32,
    fills: u64,
}

impl Drrip {
    /// Creates DRRIP state; leader sets are spread across the index space.
    pub fn new(sets: usize, ways: usize) -> Self {
        let mut roles = vec![SetRole::Follower; sets];
        let teams = LEADERS_PER_TEAM.min(sets / 2).max(1);
        // Constituency spacing: interleave the two teams across the cache.
        let stride = (sets / (2 * teams)).max(1);
        for i in 0..teams {
            let a = (2 * i) * stride;
            let b = (2 * i + 1) * stride;
            if a < sets {
                roles[a] = SetRole::LeaderSrrip;
            }
            if b < sets {
                roles[b] = SetRole::LeaderBrrip;
            }
        }
        Self {
            table: RrpvTable::new(sets, ways),
            roles,
            psel: SatCounter::new(PSEL_BITS, 1 << (PSEL_BITS - 1)),
            synced: 1 << (PSEL_BITS - 1),
            fills: 0,
        }
    }

    fn brrip_wins(&self) -> bool {
        // PSEL counts SRRIP-leader misses up, BRRIP-leader misses down:
        // high PSEL ⇒ SRRIP is missing more ⇒ BRRIP wins.
        self.psel.msb()
    }

    fn insertion_rrpv(&mut self, set: usize) -> u8 {
        let use_brrip = match self.roles[set] {
            SetRole::LeaderSrrip => false,
            SetRole::LeaderBrrip => true,
            SetRole::Follower => self.brrip_wins(),
        };
        if use_brrip {
            self.fills += 1;
            if self.fills % BRRIP_EPSILON == 0 {
                RRPV_LONG
            } else {
                RRPV_MAX
            }
        } else {
            RRPV_LONG
        }
    }
}

impl ReplacementPolicy for Drrip {
    fn on_insert(&mut self, set: usize, way: usize, _ctx: &PolicyCtx) {
        // A fill implies the leader set missed: train PSEL.
        match self.roles[set] {
            SetRole::LeaderSrrip => self.psel.inc(),
            SetRole::LeaderBrrip => self.psel.dec(),
            SetRole::Follower => {}
        }
        let v = self.insertion_rrpv(set);
        self.table.set(set, way, v);
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &PolicyCtx) {
        self.table.set(set, way, 0);
    }

    fn choose_victim(&mut self, set: usize, _ctx: &PolicyCtx, excluded: u64) -> usize {
        self.table.find_victim(set, excluded)
    }

    fn reset_priority(&mut self, set: usize, way: usize) {
        self.table.set(set, way, 0);
    }

    fn prefetch_row(&self, set: usize) {
        self.table.prefetch_row(set);
    }

    fn export_learned(&self, out: &mut Vec<u32>) {
        out.push(self.psel.get());
    }

    fn merge_learned(&self, peers: &[Vec<u32>], out: &mut Vec<u32>) {
        // PSEL trains by ±1 steps, so the pooled equivalent of one
        // globally-dueled counter is the sum of every slice's training
        // deltas since the last sync applied to the shared baseline (every
        // peer installs the same merged value at each sync, so the
        // baseline is common and the merge is a pure function of the
        // exports). Each shard sees only its slice of the leader sets, so
        // without this merge every shard duels on a fraction of the
        // samples and followers can disagree with the serial engine.
        out.clear();
        let base = self.synced as i64;
        let mut delta = 0i64;
        for p in peers {
            if let Some(&v) = p.first() {
                delta += v as i64 - base;
            }
        }
        out.push((base + delta).clamp(0, self.psel.max() as i64) as u32);
    }

    fn install_learned(&mut self, merged: &[u32]) {
        if let Some(&v) = merged.first() {
            self.psel.set(v);
            self.synced = v;
        }
    }

    fn name(&self) -> &'static str {
        "DRRIP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garibaldi_types::LineAddr;

    fn ctx() -> PolicyCtx {
        PolicyCtx::data(LineAddr::new(0), 0)
    }

    #[test]
    fn has_both_leader_teams() {
        let p = Drrip::new(1024, 12);
        let s = p.roles.iter().filter(|r| **r == SetRole::LeaderSrrip).count();
        let b = p.roles.iter().filter(|r| **r == SetRole::LeaderBrrip).count();
        assert_eq!(s, LEADERS_PER_TEAM);
        assert_eq!(b, LEADERS_PER_TEAM);
    }

    #[test]
    fn psel_moves_with_leader_misses() {
        let mut p = Drrip::new(1024, 4);
        let srrip_leader = p.roles.iter().position(|r| *r == SetRole::LeaderSrrip).unwrap();
        let start = p.psel.get();
        p.on_insert(srrip_leader, 0, &ctx());
        assert_eq!(p.psel.get(), start + 1);
        let brrip_leader = p.roles.iter().position(|r| *r == SetRole::LeaderBrrip).unwrap();
        p.on_insert(brrip_leader, 0, &ctx());
        p.on_insert(brrip_leader, 1, &ctx());
        assert_eq!(p.psel.get(), start - 1);
    }

    #[test]
    fn followers_track_winner() {
        let mut p = Drrip::new(256, 4);
        // Drive PSEL towards "SRRIP wins" (low values).
        for _ in 0..600 {
            p.psel.dec();
        }
        assert!(!p.brrip_wins());
        let follower = p.roles.iter().position(|r| *r == SetRole::Follower).unwrap();
        p.on_insert(follower, 0, &ctx());
        assert_eq!(p.table.get(follower, 0), RRPV_LONG);
    }

    #[test]
    fn learned_state_merge_sums_psel_deltas_from_the_shared_baseline() {
        let mut p = Drrip::new(256, 4);
        let base = 1u32 << (PSEL_BITS - 1);
        assert_eq!(p.psel.get(), base);
        let mut export = Vec::new();
        p.export_learned(&mut export);
        assert_eq!(export, vec![base], "export is the single PSEL value");
        // Peers trained +2, 0, −1 from the shared baseline.
        let peers = vec![vec![base + 2], vec![base], vec![base - 1]];
        super::super::merge_and_install(&mut p, &peers);
        assert_eq!(p.psel.get(), base + 1, "base + (+2 + 0 − 1)");
        assert_eq!(p.synced, base + 1, "the merge result becomes the next baseline");
        // Saturation clamps: pile on more than the 10-bit counter holds.
        let max = p.psel.max();
        let peers = vec![vec![max]; 3];
        super::super::merge_and_install(&mut p, &peers);
        assert_eq!(p.psel.get(), max, "clamped at the counter maximum");
        assert_eq!(p.synced, max);
    }

    #[test]
    fn brrip_leader_mostly_inserts_distant() {
        // Two sets: set 0 leads SRRIP, set 1 leads BRRIP.
        let mut p = Drrip::new(2, 4);
        assert_eq!(p.roles[1], SetRole::LeaderBrrip);
        let mut long_inserts = 0;
        for i in 0..(BRRIP_EPSILON * 4) {
            p.on_insert(1, (i % 4) as usize, &ctx());
            if p.table.get(1, (i % 4) as usize) == RRPV_LONG {
                long_inserts += 1;
            }
        }
        assert_eq!(long_inserts, 4, "exactly 1/{BRRIP_EPSILON} fills are long");
    }

    #[test]
    fn reset_priority_zeroes_rrpv() {
        let mut p = Drrip::new(1, 2);
        p.on_insert(0, 0, &ctx());
        p.reset_priority(0, 0);
        assert_eq!(p.table.get(0, 0), 0);
    }

    #[test]
    fn tiny_cache_constructs() {
        // Degenerate geometries must not panic.
        let _ = Drrip::new(2, 1);
        let _ = Drrip::new(1, 4);
    }
}
