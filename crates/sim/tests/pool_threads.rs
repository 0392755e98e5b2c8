//! The parallel engine's worker pool lives for one run: every thread it
//! starts is joined before the run returns, whether the run succeeds or
//! fails. One test in its own binary, so no other test's threads move the
//! process's thread count while it is read.

use garibaldi_sim::fault::with_faults;
use garibaldi_sim::{
    EngineChoice, EngineConfig, ExperimentScale, LlcScheme, SimRunner, SystemConfig,
};
use garibaldi_trace::WorkloadMix;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads line");
    line["Threads:".len()..].trim().parse().expect("thread count")
}

/// The thread count once it settles: a joined thread can outlive its join
/// in procfs by a few microseconds while the kernel reaps it.
fn settled_threads(want: usize) -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let n = threads();
        if n == want || std::time::Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn runs_leave_no_threads_behind() {
    let s = ExperimentScale { cores: 8, ..ExperimentScale::smoke() };
    let cfg = SystemConfig::scaled(&s, LlcScheme::mockingjay_garibaldi());
    let r = SimRunner::new(cfg, WorkloadMix::homogeneous("twitter", s.cores), 42);
    let eng = EngineConfig { workers: 2, epoch_cycles: 2_000, llc_shards: 4, ..Default::default() };
    let eng = EngineChoice::Parallel(eng);
    let start = threads();
    r.run_on(s.records_per_core, s.warmup_per_core, &eng);
    assert_eq!(settled_threads(start), start, "a w2 run joins its helper");
    let err = with_faults("panic.drain@epoch:2/unit:3", || {
        r.try_run_on(s.records_per_core, s.warmup_per_core, &eng)
    });
    assert_eq!(err.expect_err("injected drain panic").shard, Some(3));
    assert_eq!(settled_threads(start), start, "a failed w2 run joins its helper");
}
