//! `garibaldi-cli` — run any workload/mix/policy combination from the
//! command line and get the full metric report.
//!
//! ```text
//! USAGE:
//!   garibaldi-cli [OPTIONS]
//!
//! OPTIONS:
//!   --workload NAME[,NAME…]  workloads, one per core, cycled (default tpcc)
//!   --policy   NAME          lru|drrip|hawkeye|mockingjay (default mockingjay)
//!   --garibaldi              attach the Garibaldi module
//!   --cores N                core count (default 8); at most 4 per set of
//!                            the smallest cache (32-bit tag words: 128 at
//!                            factor 0.5, 256 at 1.0) and at most 64 L2
//!                            clusters (256 cores)
//!   --factor F               cache/footprint scale factor (default 0.5)
//!   --records N              measured records per core (default 200000)
//!   --warmup N               warmup records per core (default 50000)
//!   --seed N                 experiment seed (default 42)
//!   --oracle                 I-oracle mode (instructions hit after first touch)
//!   --partition N            reserve N LLC ways for instruction lines (not
//!                            combinable with --garibaldi)
//!   --workers N              run the epoch-sharded parallel engine (ewma
//!                            issue estimates, learned-state sync every 8
//!                            barriers, 8 LLC shards, 20000-cycle epochs)
//!                            on N threads; without it,
//!                            GARIBALDI_WORKERS=N does the same, and serial
//!                            runs when it is unset. A parallel run prints
//!                            its engine summary on stderr; a failed one
//!                            retries once on the serial engine
//!   --dump-trace PATH        write the per-core record streams to PATH and
//!                            exit (replayable across schemes and engines;
//!                            not combinable with --replay, --checkpoint or
//!                            --key)
//!   --replay PATH            replay streams dumped with --dump-trace on
//!                            the engine picked as above (the dump must
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
//!   --key NAME               checkpoint key for this run (default: derived
//!                            from scheme/workloads/scale/seed and the tag
//!                            of the engine that ran — serial for a
//!                            degraded parallel run — so serial and
//!                            parallel rows never answer for each other)
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
use garibaldi_trace::{registry, serial, TraceRecord, WorkloadMix, PC_LIMIT};

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "lru" => PolicyKind::Lru,
        "drrip" => PolicyKind::Drrip,
        "hawkeye" => PolicyKind::Hawkeye,
        "mockingjay" => PolicyKind::Mockingjay,
        other => return Err(format!("unknown policy '{other}'")),
    })
}

/// Parses `raw` as the value of the numeric flag `flag`; the error names
/// both.
fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("invalid value '{raw}' for {flag}: {e}"))
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
            "--cores" => a.cores = number("--cores", &val("--cores")?)?,
            "--factor" => a.factor = number("--factor", &val("--factor")?)?,
            "--records" => a.records = number("--records", &val("--records")?)?,
            "--warmup" => a.warmup = number("--warmup", &val("--warmup")?)?,
            "--seed" => a.seed = number("--seed", &val("--seed")?)?,
            "--oracle" => a.oracle = true,
            "--partition" => a.partition = number("--partition", &val("--partition")?)?,
            "--workers" => a.workers = number("--workers", &val("--workers")?)?,
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

/// Prints `error: msg` and exits with `code` (2: usage, 1: I/O).
fn die(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(2, e));

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
    if let Err(e) = cfg.validate() {
        die(2, format_args!("invalid configuration: {e}"));
    }

    let slots: Vec<String> =
        (0..args.cores).map(|i| args.workloads[i % args.workloads.len()].clone()).collect();
    let mix = WorkloadMix { slots };

    let mut runner = SimRunner::new(cfg.clone(), mix, args.seed);

    if let Some(path) = &args.dump_trace {
        let total = args.records + args.warmup;
        eprintln!("dumping {} streams × {total} records to {path} …", args.cores);
        let streams = runner.generate_streams(total);
        let bytes = serial::encode_multi(&streams);
        std::fs::write(path, &bytes)
            .unwrap_or_else(|e| die(1, format_args!("cannot write {path}: {e}")));
        eprintln!("[wrote {} bytes]", bytes.len());
        return;
    }

    // One engine for the banner, the run, the default key and the frame
    // tag: `--workers N` picks the parallel engine, otherwise the
    // environment does, defaulting to serial.
    let requested = if args.workers > 0 {
        EngineChoice::Parallel(EngineConfig::with_workers(args.workers))
    } else {
        EngineChoice::from_env()
    };
    let key_for = |e: &EngineChoice| {
        args.key.clone().unwrap_or_else(|| default_key(&args, &cfg.scheme.label(), e))
    };

    // Durable checkpoint: a key already on disk reports the cached result
    // without simulating; salvage findings (torn tail, garbage lines,
    // legacy unframed records) go to stderr.
    let ckpt = args.checkpoint.as_ref().map(std::path::PathBuf::from);
    if let Some(path) = &ckpt {
        let key = key_for(&requested);
        let (done, salvage) =
            garibaldi_sim::checkpoint::load_report(path).unwrap_or_else(|e| die(1, e));
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

    if let Some(path) = &args.replay {
        let bytes =
            std::fs::read(path).unwrap_or_else(|e| die(1, format_args!("cannot read {path}: {e}")));
        let bad =
            |e: &dyn std::fmt::Display| -> ! { die(1, format_args!("bad trace file {path}: {e}")) };
        let streams = serial::decode_multi(&bytes).unwrap_or_else(|e| bad(&e));
        if streams.len() != args.cores {
            bad(&format_args!("{} streams for --cores {}", streams.len(), args.cores));
        }
        if let Some(i) = streams.iter().position(Vec::is_empty) {
            bad(&format_args!("stream {i} is empty"));
        }
        let past_limit = |s: &Vec<TraceRecord>| s.iter().any(|r| r.pc.get() >= PC_LIMIT);
        if let Some(i) = streams.iter().position(past_limit) {
            bad(&format_args!("stream {i} has a PC at or past {PC_LIMIT:#x}"));
        }
        runner = runner.with_streams(streams);
    }

    eprintln!(
        "simulating {} cores, {} + {} records/core, scheme {}{} …",
        args.cores,
        args.warmup,
        args.records,
        cfg.scheme.label(),
        match requested {
            EngineChoice::Parallel(eng) => {
                format!(" [parallel engine: {} workers, {} shards]", eng.workers, eng.llc_shards)
            }
            EngineChoice::Serial => String::new(),
        }
    );
    let t0 = std::time::Instant::now();
    // Interactive runs degrade gracefully: a contained parallel-engine
    // failure retries once on the serial engine (the same rule code,
    // minus the threads), and the row is filed under the engine that
    // produced it.
    let (r, used) = match runner.try_run_on(args.records, args.warmup, &requested) {
        Ok((r, stats)) => {
            if let EngineChoice::Parallel(_) = requested {
                eprintln!("[engine] {stats}");
            }
            (r, requested)
        }
        Err(e) => {
            eprintln!("[engine] parallel run failed ({e}); retrying on the serial engine");
            (runner.run_serial(args.records, args.warmup), EngineChoice::Serial)
        }
    };
    let dt = t0.elapsed();

    print_result(&r);
    eprintln!(
        "\n[{} records simulated in {dt:.2?}]",
        args.cores as u64 * (args.records + args.warmup)
    );

    if let Some(path) = &ckpt {
        let key = key_for(&used);
        garibaldi_sim::checkpoint::append_retry(path, &used.tag(), &key, &r, 3)
            .unwrap_or_else(|e| die(1, e));
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
