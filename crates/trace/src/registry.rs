//! Registry of named workload profiles (paper Table 3 + SPEC comparators).
//!
//! Parameter values are calibrated so that the *population statistics* of
//! generated traces reproduce the paper's Fig 3 aggregates — the
//! `calibrate` binary (`cargo run --release -p garibaldi-sim --bin
//! calibrate`) prints the paper-vs-measured numbers. Highlights:
//!
//! * `verilator` — very large, flat instruction footprint over a small, very
//!   hot data set: the strongest instruction-victim case (65 % speedup with
//!   Garibaldi+Mockingjay in the paper).
//! * `kafka` — both instructions *and* data cold (flat popularity, huge
//!   streaming region): the case where protecting instructions trades away
//!   useful data caching and Garibaldi can lose (§7.2).
//! * `xalan` — `correlate_hot` set: hot data reached from hot instructions,
//!   the one workload where `MissRate_DataHit < MissRate_DataMiss` (Fig 4c).

use crate::profiles::{WorkloadClass, WorkloadProfile};
use std::sync::OnceLock;

/// The 16 server workload names, in the paper's Fig 12 order.
pub const SERVER_NAMES: [&str; 16] = [
    "noop",
    "smallbank",
    "tpcc",
    "voter",
    "sibench",
    "tatp",
    "twitter",
    "ycsb",
    "cassandra",
    "dotty",
    "finagle-http",
    "kafka",
    "speedometer2.0",
    "tomcat",
    "verilator",
    "xalan",
];

/// SPEC comparator workload names (Fig 1 top, Fig 3, Fig 15a mixtures).
pub const SPEC_NAMES: [&str; 8] = ["gcc", "gobmk", "bwaves", "lbm", "cam4", "wrf", "bzip2", "mcf"];

/// Shared-data multithreaded workload names (SPLASH-2-style scientific
/// kernels). Unlike the Table 3 server population — whose threads share
/// text and hot data but are dominated by private streaming — these are
/// parameterised to *stress* the coherence path: every thread's sharing
/// group hammers a common hot set with a tuned reader/writer mix, so
/// cross-cluster invalidations and directory traffic become first-order
/// effects (ROADMAP item 3(c)).
pub const SHARED_NAMES: [&str; 4] = ["barnes", "ocean", "radix", "raytrace"];

#[allow(clippy::too_many_arguments)]
fn mk(
    name: &str,
    class: WorkloadClass,
    n_funcs: u32,
    lines_per_func: u32,
    func_zipf: f64,
    loop_iters: u32,
    hot_data_lines: u64,
    hot_zipf: f64,
    cold_data_lines: u64,
    hot_frac: f64,
    data_refs_per_line: f64,
    write_frac: f64,
    branch_mpki: f64,
    correlate_hot: bool,
) -> WorkloadProfile {
    WorkloadProfile {
        name: name.to_string(),
        class,
        n_funcs,
        lines_per_func,
        func_zipf,
        loop_iters,
        hot_data_lines,
        hot_zipf,
        cold_data_lines,
        hot_frac,
        data_refs_per_line,
        write_frac,
        branch_mpki,
        instrs_per_line: 8,
        pairs_per_line: 2,
        correlate_hot,
        sharing_degree: 0,
        shared_write_frac: None,
    }
}

/// Marks a profile as a shared-data family member: threads partition into
/// sharing groups of `degree` (0 = one process-wide group) and hot-region
/// references use `shared_write_frac` instead of `write_frac`.
fn shared(mut p: WorkloadProfile, degree: u32, shared_write_frac: f64) -> WorkloadProfile {
    p.sharing_degree = degree;
    p.shared_write_frac = Some(shared_write_frac);
    p
}

fn build_all() -> Vec<WorkloadProfile> {
    use WorkloadClass::{Server, Spec};
    vec![
        // ---- server (Table 3) -------------------------------------------
        mk("noop", Server, 900, 32, 0.70, 2, 18_000, 1.05, 40_000, 0.75, 0.55, 0.20, 5.0, false),
        mk(
            "smallbank",
            Server,
            1_200,
            36,
            0.65,
            2,
            22_000,
            1.05,
            60_000,
            0.70,
            0.60,
            0.25,
            6.0,
            false,
        ),
        mk("tpcc", Server, 1_700, 40, 0.55, 1, 30_000, 1.00, 250_000, 0.60, 0.80, 0.30, 7.5, false),
        mk("voter", Server, 1_100, 32, 0.65, 2, 20_000, 1.05, 50_000, 0.72, 0.55, 0.28, 6.0, false),
        mk(
            "sibench", Server, 1_000, 36, 0.60, 2, 20_000, 1.05, 80_000, 0.68, 0.60, 0.22, 6.5,
            false,
        ),
        mk("tatp", Server, 1_300, 36, 0.60, 1, 24_000, 1.00, 120_000, 0.62, 0.65, 0.25, 7.0, false),
        mk(
            "twitter", Server, 1_500, 40, 0.55, 1, 28_000, 1.00, 180_000, 0.60, 0.70, 0.25, 7.5,
            false,
        ),
        mk("ycsb", Server, 1_400, 36, 0.55, 1, 32_000, 0.90, 400_000, 0.55, 0.75, 0.30, 7.0, false),
        mk(
            "cassandra",
            Server,
            1_800,
            40,
            0.50,
            1,
            36_000,
            0.95,
            300_000,
            0.50,
            0.75,
            0.28,
            8.0,
            false,
        ),
        mk("dotty", Server, 1_600, 44, 0.60, 1, 26_000, 1.05, 90_000, 0.65, 0.60, 0.18, 8.5, false),
        mk(
            "finagle-http",
            Server,
            1_600,
            40,
            0.50,
            1,
            22_000,
            1.10,
            60_000,
            0.70,
            0.55,
            0.20,
            7.5,
            false,
        ),
        mk(
            "kafka", Server, 2_400, 44, 0.35, 1, 120_000, 0.40, 1_500_000, 0.20, 0.80, 0.30, 9.0,
            false,
        ),
        mk(
            "speedometer2.0",
            Server,
            1_700,
            40,
            0.55,
            1,
            30_000,
            1.00,
            150_000,
            0.55,
            0.65,
            0.22,
            8.0,
            false,
        ),
        mk(
            "tomcat", Server, 1_600, 40, 0.55, 1, 28_000, 1.00, 120_000, 0.60, 0.65, 0.25, 7.5,
            false,
        ),
        mk(
            "verilator",
            Server,
            1_500,
            48,
            0.55,
            1,
            20_000,
            1.15,
            40_000,
            0.85,
            0.65,
            0.20,
            4.0,
            false,
        ),
        mk("xalan", Server, 1_200, 36, 1.00, 3, 24_000, 1.05, 100_000, 0.60, 0.65, 0.20, 6.0, true),
        // ---- shared-data multithreaded family (SPLASH-2-style) ----------
        // barnes: n-body tree walk — groups of 3 threads share a mid-size,
        // read-mostly body set (low shared write fraction, rare upgrades).
        // Degree 3 deliberately straddles the 4-core L2 cluster boundary,
        // so even a homogeneous barnes run drives cross-cluster
        // invalidations (a degree of 4 would nest every group inside one
        // cluster and leave the directory idle).
        shared(
            mk(
                "barnes", Server, 500, 28, 0.80, 4, 16_000, 0.95, 60_000, 0.70, 0.70, 0.25, 5.0,
                false,
            ),
            3,
            0.10,
        ),
        // ocean: grid solver — groups of 8 share a larger stencil halo with
        // a substantial writer mix (steady invalidation churn).
        shared(
            mk(
                "ocean", Server, 450, 30, 0.75, 6, 28_000, 0.85, 200_000, 0.65, 0.90, 0.30, 4.0,
                false,
            ),
            8,
            0.30,
        ),
        // radix: parallel sort — every thread shares one small histogram
        // region and nearly half the shared references are writes: the
        // maximum-contention point of the family.
        shared(
            mk(
                "radix", Server, 300, 24, 0.90, 8, 6_000, 1.10, 300_000, 0.60, 0.85, 0.30, 3.0,
                false,
            ),
            0,
            0.45,
        ),
        // raytrace: shared scene graph — process-wide read-mostly sharing
        // over a large hot set (wide sharer masks, few upgrades).
        shared(
            mk(
                "raytrace", Server, 600, 32, 0.70, 3, 40_000, 0.90, 150_000, 0.75, 0.75, 0.20, 6.0,
                false,
            ),
            0,
            0.05,
        ),
        // ---- SPEC comparators -------------------------------------------
        mk("gcc", Spec, 160, 24, 1.40, 10, 40_000, 0.90, 600_000, 0.50, 1.00, 0.30, 9.0, false),
        mk("gobmk", Spec, 120, 24, 1.30, 12, 30_000, 1.00, 150_000, 0.55, 0.80, 0.25, 13.0, false),
        mk("bwaves", Spec, 40, 30, 1.40, 40, 48_000, 0.80, 2_000_000, 0.30, 1.40, 0.30, 1.0, false),
        mk("lbm", Spec, 30, 24, 1.40, 60, 40_000, 0.80, 3_000_000, 0.25, 1.60, 0.40, 0.5, false),
        mk("cam4", Spec, 100, 30, 1.30, 16, 36_000, 0.90, 800_000, 0.40, 1.10, 0.30, 3.0, false),
        mk("wrf", Spec, 110, 30, 1.30, 16, 34_000, 0.90, 700_000, 0.40, 1.10, 0.30, 3.0, false),
        mk("bzip2", Spec, 60, 24, 1.40, 24, 42_000, 0.80, 250_000, 0.55, 0.90, 0.30, 8.0, false),
        mk("mcf", Spec, 50, 20, 1.40, 30, 44_000, 0.85, 1_200_000, 0.30, 1.20, 0.20, 10.0, false),
    ]
}

fn all() -> &'static [WorkloadProfile] {
    static ALL: OnceLock<Vec<WorkloadProfile>> = OnceLock::new();
    ALL.get_or_init(build_all)
}

/// All registered profiles (16 server + 4 shared-data + 8 SPEC).
pub fn all_workloads() -> &'static [WorkloadProfile] {
    all()
}

/// Looks a profile up by its paper name.
pub fn by_name(name: &str) -> Option<&'static WorkloadProfile> {
    all().iter().find(|p| p.name == name)
}

/// The 16 server profiles in Fig 12 order.
pub fn server_workloads() -> Vec<&'static WorkloadProfile> {
    SERVER_NAMES.iter().map(|n| by_name(n).expect("registry complete")).collect()
}

/// The SPEC comparator profiles.
pub fn spec_workloads() -> Vec<&'static WorkloadProfile> {
    SPEC_NAMES.iter().map(|n| by_name(n).expect("registry complete")).collect()
}

/// The shared-data multithreaded profiles ([`SHARED_NAMES`] order).
pub fn shared_workloads() -> Vec<&'static WorkloadProfile> {
    SHARED_NAMES.iter().map(|n| by_name(n).expect("registry complete")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_names() {
        assert_eq!(server_workloads().len(), 16);
        assert_eq!(spec_workloads().len(), 8);
        assert_eq!(shared_workloads().len(), 4);
        assert_eq!(all_workloads().len(), 28);
        for n in SERVER_NAMES.iter().chain(SPEC_NAMES.iter()).chain(SHARED_NAMES.iter()) {
            assert!(by_name(n).is_some(), "missing {n}");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("not-a-workload").is_none());
    }

    #[test]
    fn classes_are_consistent() {
        for p in server_workloads() {
            assert_eq!(p.class, WorkloadClass::Server, "{}", p.name);
        }
        for p in spec_workloads() {
            assert_eq!(p.class, WorkloadClass::Spec, "{}", p.name);
        }
        // The shared family rides the server-class plumbing: threads of one
        // process share an address space, which is what makes the hot set a
        // genuinely shared (coherence-visible) working set.
        for p in shared_workloads() {
            assert_eq!(p.class, WorkloadClass::Server, "{}", p.name);
        }
    }

    #[test]
    fn shared_family_has_sharing_parameters_and_nobody_else_does() {
        for p in shared_workloads() {
            assert!(p.shared_write_frac.is_some(), "{} missing reader/writer mix", p.name);
        }
        for p in server_workloads().iter().chain(spec_workloads().iter()) {
            assert_eq!(p.sharing_degree, 0, "{}", p.name);
            assert_eq!(p.shared_write_frac, None, "{} must keep legacy streams", p.name);
        }
        // The family spans the sharing-degree axis: grouped and process-wide.
        assert!(shared_workloads().iter().any(|p| p.sharing_degree > 0));
        assert!(shared_workloads().iter().any(|p| p.sharing_degree == 0));
        // And the reader/writer axis: a write-heavy and a read-mostly point.
        assert!(by_name("radix").unwrap().shared_write_frac.unwrap() > 0.4);
        assert!(by_name("raytrace").unwrap().shared_write_frac.unwrap() < 0.1);
    }

    #[test]
    fn xalan_is_the_correlated_exception() {
        assert!(by_name("xalan").unwrap().correlate_hot);
        let others = server_workloads().iter().filter(|p| p.correlate_hot).count();
        assert_eq!(others, 1, "only xalan correlates hot data with hot instructions");
    }
}
