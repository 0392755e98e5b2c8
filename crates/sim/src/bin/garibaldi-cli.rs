//! `garibaldi-cli` — run any workload/mix/policy combination from the
//! command line and get the full metric report.
//!
//! ```text
//! USAGE:
//!   garibaldi-cli [OPTIONS]
//!
//! OPTIONS:
//!   --workload NAME[,NAME…]  workloads, one per core, cycled (default tpcc)
//!   --policy   NAME          lru|random|srrip|brrip|drrip|ship|hawkeye|mockingjay
//!   --garibaldi              attach the Garibaldi module
//!   --cores N                core count (default 8)
//!   --factor F               cache/footprint scale factor (default 0.5)
//!   --records N              measured records per core (default 200000)
//!   --warmup N               warmup records per core (default 50000)
//!   --seed N                 experiment seed (default 42)
//!   --oracle                 I-oracle mode (instructions hit after first touch)
//!   --partition N            reserve N LLC ways for instruction lines
//!   --workers N              run on the epoch-sharded parallel engine with
//!                            N worker threads (0 = serial engine; default).
//!                            The parallel engine has one profile: ewma
//!                            issue estimates, learned-state sync every 8
//!                            barriers, 8 LLC shards and 20000-cycle
//!                            epochs
//!   --dump-trace PATH        write the per-core record streams to PATH and
//!                            exit (replayable across schemes and engines;
//!                            not combinable with --replay, --checkpoint or
//!                            --key)
//!   --replay PATH            replay streams dumped with --dump-trace
//!                            instead of generating traces (the dump must
//!                            hold one non-empty stream per core)
//!   --checkpoint PATH        durable JSON-lines checkpoint (see
//!                            `garibaldi_sim::checkpoint`): if the run's
//!                            key is already present the cached result is
//!                            reported without simulating; otherwise the
//!                            fresh result is appended (fsynced, framed
//!                            with the engine tag, transient I/O errors
//!                            retried with bounded backoff). Salvage
//!                            findings — torn tail, garbage lines — are
//!                            reported on stderr
//!   --key NAME               checkpoint key for this run (default: a key
//!                            derived from scheme/workloads/scale/seed and
//!                            the engine tag, so serial and parallel rows
//!                            never answer for each other; a parallel run
//!                            that degrades to serial is stored under the
//!                            serial key)
//!   --list                   list available workloads and exit
//! ```
//!
//! Exit status: 0 on success, 1 on I/O or engine failure (typed error on
//! stderr), 2 on a usage error.
//!
//! Example:
//! `cargo run --release -p garibaldi-sim --bin garibaldi-cli -- \`
//! `    --workload verilator --policy mockingjay --garibaldi --cores 8`

use garibaldi_cache::PolicyKind;
use garibaldi_sim::{
    EngineChoice, EngineConfig, ExperimentScale, LlcScheme, RunResult, SimRunner, SystemConfig,
};
use garibaldi_trace::{registry, serial, WorkloadMix};

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "lru" => PolicyKind::Lru,
        "random" => PolicyKind::Random,
        "srrip" => PolicyKind::Srrip,
        "brrip" => PolicyKind::Brrip,
        "drrip" => PolicyKind::Drrip,
        "ship" => PolicyKind::Ship,
        "hawkeye" => PolicyKind::Hawkeye,
        "mockingjay" => PolicyKind::Mockingjay,
        other => return Err(format!("unknown policy '{other}'")),
    })
}

struct Args {
    workloads: Vec<String>,
    policy: PolicyKind,
    garibaldi: bool,
    cores: usize,
    factor: f64,
    records: u64,
    warmup: u64,
    seed: u64,
    oracle: bool,
    partition: usize,
    workers: usize,
    dump_trace: Option<String>,
    replay: Option<String>,
    checkpoint: Option<String>,
    key: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: vec!["tpcc".into()],
        policy: PolicyKind::Mockingjay,
        garibaldi: false,
        cores: 8,
        factor: 0.5,
        records: 200_000,
        warmup: 50_000,
        seed: 42,
        oracle: false,
        partition: 0,
        workers: 0,
        dump_trace: None,
        replay: None,
        checkpoint: None,
        key: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" => {
                a.workloads = val("--workload")?.split(',').map(str::to_string).collect()
            }
            "--policy" => a.policy = parse_policy(&val("--policy")?)?,
            "--garibaldi" => a.garibaldi = true,
            "--cores" => a.cores = val("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--factor" => a.factor = val("--factor")?.parse().map_err(|e| format!("{e}"))?,
            "--records" => a.records = val("--records")?.parse().map_err(|e| format!("{e}"))?,
            "--warmup" => a.warmup = val("--warmup")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => a.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--oracle" => a.oracle = true,
            "--partition" => {
                a.partition = val("--partition")?.parse().map_err(|e| format!("{e}"))?
            }
            "--workers" => a.workers = val("--workers")?.parse().map_err(|e| format!("{e}"))?,
            "--dump-trace" => a.dump_trace = Some(val("--dump-trace")?),
            "--replay" => a.replay = Some(val("--replay")?),
            "--checkpoint" => a.checkpoint = Some(val("--checkpoint")?),
            "--key" => a.key = Some(val("--key")?),
            "--list" => {
                println!("server workloads:");
                for w in registry::server_workloads() {
                    println!(
                        "  {:<16} text {:>6.2} MB, hot {:>5.2} MB",
                        w.name,
                        w.instr_footprint_bytes() as f64 / 1048576.0,
                        w.hot_footprint_bytes() as f64 / 1048576.0
                    );
                }
                println!("SPEC workloads:");
                for w in registry::spec_workloads() {
                    println!("  {}", w.name);
                }
                println!("shared-data workloads:");
                for w in registry::shared_workloads() {
                    let deg = match w.sharing_degree {
                        0 => "all cores".to_string(),
                        k => format!("groups of {k}"),
                    };
                    println!(
                        "  {:<16} shares hot data across {deg}, write frac {:.2}",
                        w.name,
                        w.hot_write_frac(),
                    );
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("see the module docs at the top of garibaldi-cli.rs");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    for w in &a.workloads {
        if registry::by_name(w).is_none() {
            return Err(format!("unknown workload '{w}' (try --list)"));
        }
    }
    if a.dump_trace.is_some() && (a.replay.is_some() || a.checkpoint.is_some() || a.key.is_some()) {
        return Err("--dump-trace writes the trace and exits; it does not combine with \
                    --replay, --checkpoint or --key"
            .into());
    }
    if a.key.is_some() && a.checkpoint.is_none() {
        return Err("--key only makes sense together with --checkpoint".into());
    }
    if !(a.factor.is_finite() && a.factor > 0.0) {
        return Err(format!("--factor must be a positive number, got {}", a.factor));
    }
    Ok(a)
}

/// Default checkpoint key: every knob that changes the result, ending with
/// the tag of the engine (`EngineChoice::tag`) that produces it.
fn default_key(args: &Args, scheme_label: &str, engine: &EngineChoice) -> String {
    let mut key = format!(
        "{}|{}|c{}|f{}|r{}+{}|seed{}|{}",
        scheme_label,
        args.workloads.join("+"),
        args.cores,
        args.factor,
        args.records,
        args.warmup,
        args.seed,
        engine.tag()
    );
    if args.oracle {
        key.push_str("|oracle");
    }
    if args.partition > 0 {
        key.push_str(&format!("|part{}", args.partition));
    }
    key
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage_error(&e));

    let scheme = if args.garibaldi {
        LlcScheme::with_garibaldi(args.policy)
    } else {
        LlcScheme::plain(args.policy)
    };
    let scale = ExperimentScale {
        factor: args.factor,
        cores: args.cores,
        records_per_core: args.records,
        warmup_per_core: args.warmup,
        color_period: (args.records / 8).max(1_000),
    };
    let mut cfg = SystemConfig::scaled(&scale, scheme);
    cfg.i_oracle = args.oracle;
    cfg.partition_instr_ways = args.partition;
    let eng = EngineConfig::with_workers(args.workers);
    if let Err(e) = cfg.validate() {
        usage_error(&format!("invalid configuration: {e}"));
    }

    let slots: Vec<String> =
        (0..args.cores).map(|i| args.workloads[i % args.workloads.len()].clone()).collect();
    let mix = WorkloadMix { slots };

    let runner = SimRunner::new(cfg.clone(), mix, args.seed);

    if let Some(path) = &args.dump_trace {
        let total = args.records + args.warmup;
        eprintln!("dumping {} streams × {total} records to {path} …", args.cores);
        let streams = runner.generate_streams(total);
        let bytes = serial::encode_multi(&streams);
        std::fs::write(path, &bytes).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[wrote {} bytes]", bytes.len());
        return;
    }

    // Durable checkpoint: a key already on disk reports the cached result
    // without simulating; salvage findings (torn tail, garbage lines,
    // legacy unframed records) go to stderr.
    let parallel = args.workers > 0;
    // Replay always goes through the (deterministic) parallel engine;
    // --workers only changes wall-clock, never the result.
    let engine = |parallel: bool| {
        if parallel {
            EngineChoice::Parallel(eng)
        } else {
            EngineChoice::Serial
        }
    };
    let requested = engine(parallel || args.replay.is_some());
    let key_for = |e: &EngineChoice| {
        args.key.clone().unwrap_or_else(|| default_key(&args, &cfg.scheme.label(), e))
    };
    let ckpt = args.checkpoint.as_ref().map(std::path::PathBuf::from);
    let key = key_for(&requested);
    if let Some(path) = &ckpt {
        let (done, salvage) = match garibaldi_sim::checkpoint::load_report(path) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        if !salvage.is_clean() {
            eprintln!("[checkpoint] salvage from {}: {salvage}", path.display());
        }
        if let Some(r) = done.get(&key) {
            eprintln!(
                "[checkpoint] key '{key}' already in {} — reporting the cached result",
                path.display()
            );
            print_result(r);
            return;
        }
    }

    let replay_streams = args.replay.as_ref().map(|path| {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let bad = |e: &dyn std::fmt::Display| -> ! {
            eprintln!("error: bad trace file {path}: {e}");
            std::process::exit(1);
        };
        let streams = serial::decode_multi(&bytes).unwrap_or_else(|e| bad(&e));
        if streams.len() != args.cores {
            bad(&format_args!("{} streams for --cores {}", streams.len(), args.cores));
        }
        if let Some(i) = streams.iter().position(Vec::is_empty) {
            bad(&format_args!("stream {i} is empty"));
        }
        streams
    });

    eprintln!(
        "simulating {} cores, {} + {} records/core, scheme {}{} …",
        args.cores,
        args.warmup,
        args.records,
        cfg.scheme.label(),
        if parallel {
            format!(" [parallel engine: {} workers, {} shards]", eng.workers, eng.llc_shards)
        } else {
            String::new()
        }
    );
    let t0 = std::time::Instant::now();
    let mut degraded = false;
    let r = match (&replay_streams, parallel) {
        (Some(streams), _) => runner.run_parallel_replay(streams, args.records, args.warmup, &eng),
        // Interactive runs degrade gracefully: a contained engine failure
        // retries once on the serial engine (the same rule code, minus the
        // threads) and is surfaced on stderr by `run_recover`.
        (None, true) => {
            let (r, err) = runner.run_recover(args.records, args.warmup, &eng);
            degraded = err.is_some();
            r
        }
        (None, false) => runner.run(args.records, args.warmup),
    };
    let dt = t0.elapsed();

    print_result(&r);
    eprintln!(
        "\n[{} records simulated in {dt:.2?}]",
        args.cores as u64 * (args.records + args.warmup)
    );

    if let Some(path) = &ckpt {
        // The frame tag and the default key name the engine that actually
        // produced the row — the serial one when the run degraded off the
        // parallel engine.
        let used = if degraded { engine(false) } else { requested };
        let key = key_for(&used);
        if let Err(e) = garibaldi_sim::checkpoint::append_retry(path, &used.tag(), &key, &r, 3) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        eprintln!("[checkpoint] appended key '{key}' to {}", path.display());
    }
}

fn print_result(r: &RunResult) {
    println!("\nscheme: {}", r.scheme);
    println!(
        "aggregate: harmonic-mean IPC {:.4}, IPC sum {:.3}, wall {:.0} cycles",
        r.harmonic_mean_ipc(),
        r.ipc_sum(),
        r.wall_cycles()
    );
    let s = r.mean_cpi_stack();
    println!(
        "CPI stack: base {:.3}  ifetch {:.3}  data {:.3}  branch {:.3}",
        s.base, s.ifetch, s.data, s.branch
    );
    println!(
        "LLC: {:.2}% instruction accesses; miss rates I {:.1}% / D {:.1}%; {} bypasses",
        r.llc.instr_access_ratio() * 100.0,
        r.llc.i_miss_rate() * 100.0,
        r.llc.d_miss_rate() * 100.0,
        r.llc.bypasses
    );
    println!(
        "DRAM: {} reads, {} writes, {:.1} MB moved",
        r.dram.reads,
        r.dram.writes,
        r.dram.bytes() as f64 / 1048576.0
    );
    println!("energy: {:.4} J ({:.4} dynamic)", r.energy.total_j(), r.energy.dynamic_j);
    if r.invalidations > 0 {
        println!("coherence: {} MESI invalidations", r.invalidations);
    }
    if let Some(g) = &r.garibaldi {
        println!(
            "garibaldi: {} pair updates, {} protections, {} prefetches, threshold {} after {} periods, helper hit-rate {:.2}",
            g.stats.pair_updates,
            g.stats.protections,
            g.stats.prefetches_issued,
            g.final_threshold,
            g.color_ticks,
            g.helper_hit_rate
        );
    }
    println!("\nper-core:");
    for (i, c) in r.cores.iter().enumerate() {
        println!("  core{i:<2} {:<16} ipc {:.4}", c.workload, c.ipc);
    }
}
