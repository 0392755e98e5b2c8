//! Fig 3 — the motivation study:
//! (a) average LLC reuse distance, instruction vs data, 1 vs N cores;
//! (b) instruction access ratio in the LLC (SPEC vs server);
//! (c) average access count per cacheline, instruction vs data;
//! (d) speedup of Mockingjay and Mockingjay+I-oracle over LRU.
//!
//! Also prints the §3.1 aggregate miss rates the paper quotes in prose.

use garibaldi_bench::*;
use garibaldi_cache::PolicyKind;
use garibaldi_sim::experiment::run_homogeneous;
use garibaldi_trace::WorkloadMix;

/// A deferred run producing one labeled result row.
type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// One Fig 3(d) row: workload, then LRU / Mockingjay / I-oracle IPC.
type SpeedupRow = (String, f64, f64, f64);

fn profiled(scale: &ExperimentScale, scheme: LlcScheme, w: &str, cores: usize) -> RunResult {
    let mut s = *scale;
    s.cores = cores;
    let mut cfg = SystemConfig::scaled(&s, scheme);
    cfg.profile_reuse = true;
    let runner = SimRunner::new(cfg, WorkloadMix::homogeneous(w, cores), 42);
    runner.run(s.records_per_core, s.warmup_per_core)
}

fn oracle(scale: &ExperimentScale, w: &str) -> RunResult {
    let mut cfg = SystemConfig::scaled(scale, LlcScheme::plain(PolicyKind::Mockingjay));
    cfg.i_oracle = true;
    let runner = SimRunner::new(cfg, WorkloadMix::homogeneous(w, scale.cores), 42);
    runner.run(scale.records_per_core, scale.warmup_per_core)
}

fn main() {
    let scale = ExperimentScale::from_env();
    println!("[engine] {} (GARIBALDI_WORKERS=N for the epoch-sharded engine)", engine_tag());
    let spec = ["gcc", "gobmk", "bwaves", "lbm"];
    let server = ["noop", "tpcc", "cassandra", "kafka", "verilator", "xalan", "dotty", "tomcat"];

    // (a)-(c): profiled Mockingjay runs at 1 and N cores.
    let mut jobs: Vec<Job<(String, usize, RunResult)>> = Vec::new();
    for &w in spec.iter().chain(server.iter()) {
        for cores in [1usize, scale.cores] {
            jobs.push(Box::new(move || {
                (
                    w.to_string(),
                    cores,
                    profiled(&scale, LlcScheme::plain(PolicyKind::Mockingjay), w, cores),
                )
            }));
        }
    }
    let profiled_runs = parallel_runs(jobs);

    let headers = [
        "workload",
        "cores",
        "I_dist",
        "D_dist",
        "I_in_assoc",
        "D_in_assoc",
        "I%LLC",
        "acc/I-line",
        "acc/D-line",
    ];
    let rows: Vec<Vec<String>> = profiled_runs
        .iter()
        .map(|(w, cores, r)| {
            let ru = r.reuse.expect("profiling on");
            vec![
                w.clone(),
                cores.to_string(),
                format!("{:.1}", ru.instr_mean_distance),
                format!("{:.1}", ru.data_mean_distance),
                format!("{:.2}", ru.instr_within_assoc),
                format!("{:.2}", ru.data_within_assoc),
                format!("{:.2}%", r.llc.instr_access_ratio() * 100.0),
                format!("{:.2}", ru.accesses_per_instr_line),
                format!("{:.2}", ru.accesses_per_data_line),
            ]
        })
        .collect();
    print_table("Fig 3(a-c): reuse distance / access ratio / per-line counts", &headers, &rows);
    write_csv("fig03_abc.csv", &headers, &rows);

    // §3.1 aggregates.
    let agg = |names: &[&str]| {
        let rs: Vec<&RunResult> = profiled_runs
            .iter()
            .filter(|(w, c, _)| *c == scale.cores && names.contains(&w.as_str()))
            .map(|(_, _, r)| r)
            .collect();
        let n = rs.len() as f64;
        (
            rs.iter().map(|r| r.llc.i_miss_rate()).sum::<f64>() / n,
            rs.iter().map(|r| r.llc.d_miss_rate()).sum::<f64>() / n,
            rs.iter().map(|r| r.llc.instr_access_ratio()).sum::<f64>() / n,
        )
    };
    let (si, sd, sr) = agg(&server);
    let (pi, pd, pr) = agg(&spec);
    println!(
        "\n§3.1 aggregates (paper: server I-miss 95.9%/D-miss 42.1%/I-ratio 13.4%; SPEC 98.9%/67.5%/0.26%)"
    );
    println!(
        "  server measured: I-miss {:.1}%  D-miss {:.1}%  I-ratio {:.2}%",
        si * 100.0,
        sd * 100.0,
        sr * 100.0
    );
    println!(
        "  SPEC   measured: I-miss {:.1}%  D-miss {:.1}%  I-ratio {:.2}%",
        pi * 100.0,
        pd * 100.0,
        pr * 100.0
    );

    // (d): LRU vs Mockingjay vs Mockingjay+I-oracle.
    let mut jobs: Vec<Job<SpeedupRow>> = Vec::new();
    for &w in spec.iter().chain(server.iter()) {
        jobs.push(Box::new(move || {
            let lru = run_homogeneous(&scale, LlcScheme::plain(PolicyKind::Lru), w, 42);
            let mj = run_homogeneous(&scale, LlcScheme::plain(PolicyKind::Mockingjay), w, 42);
            let ora = oracle(&scale, w);
            (
                w.to_string(),
                lru.harmonic_mean_ipc(),
                mj.harmonic_mean_ipc(),
                ora.harmonic_mean_ipc(),
            )
        }));
    }
    let d = parallel_runs(jobs);
    let headers = ["workload", "mj/lru", "mj+Ioracle/lru"];
    let rows: Vec<Vec<String>> = d
        .iter()
        .map(|(w, lru, mj, ora)| {
            vec![
                w.clone(),
                format!("{:.3}", speedup_over(*lru, *mj)),
                format!("{:.3}", speedup_over(*lru, *ora)),
            ]
        })
        .collect();
    print_table("Fig 3(d): Mockingjay vs I-oracle headroom (speedup over LRU)", &headers, &rows);
    write_csv("fig03_d.csv", &headers, &rows);

    let gm = |sel: &dyn Fn(&SpeedupRow) -> f64, names: &[&str]| {
        geomean(
            &d.iter().filter(|(w, ..)| names.contains(&w.as_str())).map(sel).collect::<Vec<_>>(),
        )
    };
    println!(
        "\ngeomean server: mj {:.3}, I-oracle {:.3} (paper: 1.063 vs 1.425) | SPEC: mj {:.3}, I-oracle {:.3} (paper: 1.084 vs 1.092)",
        gm(&|x| speedup_over(x.1, x.2), &server),
        gm(&|x| speedup_over(x.1, x.3), &server),
        gm(&|x| speedup_over(x.1, x.2), &spec),
        gm(&|x| speedup_over(x.1, x.3), &spec),
    );
}
