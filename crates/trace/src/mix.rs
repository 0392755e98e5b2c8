//! Multiprogrammed workload mixes (Fig 11, Fig 14 sensitivity, Fig 15a).
//!
//! A mix assigns one workload name per core. The paper evaluates 60 random
//! mixes drawn from Table 3 for the end-to-end comparison and 30 for the
//! sensitivity studies, plus controlled server/SPEC mixtures for Fig 15(a).

use crate::registry;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A multiprogrammed mix: one workload per core slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadMix {
    /// Workload name per core (length = core count).
    pub slots: Vec<String>,
}

impl WorkloadMix {
    /// A homogeneous mix: every core runs `name`.
    pub fn homogeneous(name: &str, cores: usize) -> Self {
        Self { slots: vec![name.to_string(); cores] }
    }

    /// Number of core slots.
    pub fn cores(&self) -> usize {
        self.slots.len()
    }

    /// Distinct workload names in the mix, in first-appearance order.
    pub fn distinct(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.slots {
            if !out.contains(&s.as_str()) {
                out.push(s);
            }
        }
        out
    }
}

/// Draws `n_mixes` random multiprogrammed mixes of server workloads
/// (sampling with replacement from the 16 Table 3 names), as used for the
/// Fig 11 end-to-end study (60 mixes) and Fig 14 sensitivity (30 mixes).
pub fn random_server_mixes(n_mixes: usize, cores: usize, seed: u64) -> Vec<WorkloadMix> {
    let names = registry::SERVER_NAMES;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51ed_270b);
    (0..n_mixes)
        .map(|_| WorkloadMix {
            slots: (0..cores).map(|_| names[rng.gen_range(0..names.len())].to_string()).collect(),
        })
        .collect()
}

/// Draws `n_mixes` random multiprogrammed mixes of shared-data workloads
/// (sampling with replacement from the SPLASH-2-style family), the
/// coherence-battery analogue of [`random_server_mixes`]: heterogeneous
/// placements of sharing groups across cores are what stress cross-shard
/// invalidation routing.
pub fn random_shared_mixes(n_mixes: usize, cores: usize, seed: u64) -> Vec<WorkloadMix> {
    let names = registry::SHARED_NAMES;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5a4e_d0c5);
    (0..n_mixes)
        .map(|_| WorkloadMix {
            slots: (0..cores).map(|_| names[rng.gen_range(0..names.len())].to_string()).collect(),
        })
        .collect()
}

/// Builds a mix with `server_pct` percent of the cores running server
/// workloads and the rest SPEC (Fig 15a). Slot assignment is deterministic
/// in `seed`; server slots come first.
///
/// # Panics
///
/// Panics if `server_pct > 100`.
pub fn server_spec_mix(server_pct: u32, cores: usize, seed: u64) -> WorkloadMix {
    assert!(server_pct <= 100, "server_pct is a percentage");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00c0_ffee);
    let n_server = (cores as u64 * server_pct as u64 / 100) as usize;
    let mut slots = Vec::with_capacity(cores);
    for i in 0..cores {
        let name = if i < n_server {
            registry::SERVER_NAMES[rng.gen_range(0..registry::SERVER_NAMES.len())]
        } else {
            registry::SPEC_NAMES[rng.gen_range(0..registry::SPEC_NAMES.len())]
        };
        slots.push(name.to_string());
    }
    WorkloadMix { slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::WorkloadClass;

    #[test]
    fn homogeneous_mix() {
        let m = WorkloadMix::homogeneous("tpcc", 8);
        assert_eq!(m.cores(), 8);
        assert_eq!(m.distinct(), vec!["tpcc"]);
    }

    #[test]
    fn random_mixes_are_deterministic_and_valid() {
        let a = random_server_mixes(5, 8, 42);
        let b = random_server_mixes(5, 8, 42);
        assert_eq!(a, b);
        for m in &a {
            assert_eq!(m.cores(), 8);
            for s in &m.slots {
                let p = registry::by_name(s).expect("known workload");
                assert_eq!(p.class, WorkloadClass::Server);
            }
        }
    }

    #[test]
    fn different_seed_different_mixes() {
        assert_ne!(random_server_mixes(5, 8, 1), random_server_mixes(5, 8, 2));
    }

    #[test]
    fn shared_mixes_draw_only_from_the_shared_family() {
        let a = random_shared_mixes(4, 8, 3);
        assert_eq!(a, random_shared_mixes(4, 8, 3), "deterministic per seed");
        for m in &a {
            assert_eq!(m.cores(), 8);
            for s in &m.slots {
                assert!(registry::SHARED_NAMES.contains(&s.as_str()), "{s}");
            }
        }
        assert_ne!(random_shared_mixes(4, 8, 3), random_shared_mixes(4, 8, 4));
    }

    #[test]
    fn server_spec_split_respects_percentage() {
        for pct in [0u32, 25, 50, 75, 100] {
            let m = server_spec_mix(pct, 8, 7);
            let n_server = m
                .slots
                .iter()
                .filter(|s| registry::by_name(s).unwrap().class == WorkloadClass::Server)
                .count();
            assert_eq!(n_server, 8 * pct as usize / 100, "pct={pct}");
        }
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn over_100_pct_panics() {
        let _ = server_spec_mix(101, 8, 0);
    }
}
