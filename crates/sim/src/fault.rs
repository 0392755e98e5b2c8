//! Deterministic fault injection for the checkpoint and engine layers.
//!
//! A [`FaultPlan`] is a small list of *specs*, each naming an action, a
//! hook site, and a trigger. The plan is compiled in unconditionally and
//! costs one relaxed atomic load per hook when no plan is installed, so
//! the exact binary that ships is the one the fault battery exercises.
//!
//! # Spec DSL
//!
//! `GARIBALDI_FAULTS` holds a comma-separated list of specs:
//!
//! ```text
//! spec    := action ['.' site] '@' trigger
//! action  := io_short_write | io_error | panic | stall
//! site    := step | drain | merge            (engine actions only)
//! trigger := uint | 'epoch:' uint
//! ```
//!
//! * `io_short_write@3` — the 3rd checkpoint append writes only half of
//!   its framed line (simulating a crash mid-append) and reports success.
//! * `io_error@1` — the 1st checkpoint append fails with a transient
//!   I/O error before writing anything.
//! * `panic@epoch:7` — the first step-phase worker closure of epoch 7
//!   panics (site defaults to `step`; `panic.drain@epoch:7` targets the
//!   barrier's shard-drain phase instead).
//! * `stall@epoch:2` — a worker closure of epoch 2 blocks until the
//!   engine's cancel flag is raised (site defaults to `drain`); this is
//!   the stuck-barrier trigger for the `GARIBALDI_BARRIER_TIMEOUT_S`
//!   watchdog. A 30 s hard cap converts a never-cancelled stall into a
//!   panic so a misconfigured test errors out instead of hanging.
//!
//! Bare `@N` triggers count *calls at that site* (1-based, process-wide
//! per installed plan); `@epoch:N` triggers fire on the first hook call
//! that observes engine epoch `N`. Each spec fires exactly once. A
//! malformed `GARIBALDI_FAULTS` value panics with the offending spec —
//! a fault campaign that silently no-ops is worse than a loud failure.
//!
//! Tests install plans with [`with_faults`], which serializes all
//! fault-scoped closures behind one lock (plans are process-global) and
//! restores the previous plan on exit, even across a panicking closure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Hook sites a fault spec can attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A checkpoint append (`sim::checkpoint::append_tagged` and friends).
    CkptWrite,
    /// A per-cluster step-phase worker closure in the parallel engine.
    Step,
    /// A per-shard drain closure at the epoch barrier (phase A).
    Drain,
    /// The learned-state merge at a syncing barrier.
    Merge,
}

const N_SITES: usize = 4;

impl Site {
    fn index(self) -> usize {
        match self {
            Site::CkptWrite => 0,
            Site::Step => 1,
            Site::Drain => 2,
            Site::Merge => 3,
        }
    }

    /// Human-readable site name as used in the spec DSL.
    pub fn label(self) -> &'static str {
        match self {
            Site::CkptWrite => "ckpt-write",
            Site::Step => "step",
            Site::Drain => "drain",
            Site::Merge => "merge",
        }
    }

    fn parse(s: &str) -> Option<Site> {
        match s {
            "step" => Some(Site::Step),
            "drain" => Some(Site::Drain),
            "merge" => Some(Site::Merge),
            _ => None,
        }
    }
}

/// What an injected fault does when its trigger matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Truncate the framed line mid-write and report success (torn tail).
    IoShortWrite,
    /// Fail the append with a transient I/O error before writing.
    IoError,
    /// Panic inside the worker closure (contained by the engine).
    Panic,
    /// Block until the engine cancel flag rises (watchdog trigger).
    Stall,
}

/// When a spec fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// The n-th hook call at the spec's site (1-based).
    Call(u64),
    /// The first hook call at the spec's site observing this engine epoch.
    Epoch(u64),
}

#[derive(Debug)]
struct Spec {
    action: Action,
    site: Site,
    trigger: Trigger,
    fired: AtomicBool,
}

/// A parsed, installable set of fault specs with per-site call counters.
#[derive(Debug)]
pub struct FaultPlan {
    specs: Vec<Spec>,
    calls: [AtomicU64; N_SITES],
}

impl FaultPlan {
    /// Parse a `GARIBALDI_FAULTS`-style spec list.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending spec on any syntax error,
    /// unknown action/site, or an engine-only construct applied to an
    /// I/O action (and vice versa).
    pub fn parse(list: &str) -> Result<FaultPlan, String> {
        let mut specs = Vec::new();
        for raw in list.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            specs.push(Self::parse_spec(raw)?);
        }
        if specs.is_empty() {
            return Err(format!("GARIBALDI_FAULTS: no fault specs in {list:?}"));
        }
        Ok(FaultPlan { specs, calls: Default::default() })
    }

    fn parse_spec(raw: &str) -> Result<Spec, String> {
        let err = |what: &str| format!("GARIBALDI_FAULTS: {what} in spec {raw:?}");
        let (head, trig) = raw.split_once('@').ok_or_else(|| err("missing '@trigger'"))?;
        let (action_s, site_s) = match head.split_once('.') {
            Some((a, s)) => (a, Some(s)),
            None => (head, None),
        };
        let (action, default_site) = match action_s {
            "io_short_write" => (Action::IoShortWrite, Site::CkptWrite),
            "io_error" => (Action::IoError, Site::CkptWrite),
            "panic" => (Action::Panic, Site::Step),
            "stall" => (Action::Stall, Site::Drain),
            _ => return Err(err("unknown action")),
        };
        let io_action = matches!(action, Action::IoShortWrite | Action::IoError);
        let site = match site_s {
            None => default_site,
            Some(_) if io_action => return Err(err("I/O actions take no site qualifier")),
            Some(s) => Site::parse(s).ok_or_else(|| err("unknown site"))?,
        };
        let trigger = if let Some(n) = trig.strip_prefix("epoch:") {
            if io_action {
                return Err(err("I/O actions fire on call counts, not epochs"));
            }
            Trigger::Epoch(n.parse::<u64>().map_err(|_| err("bad epoch number"))?)
        } else {
            let n: u64 = trig.parse().map_err(|_| err("bad call count"))?;
            if n == 0 {
                return Err(err("call counts are 1-based"));
            }
            Trigger::Call(n)
        };
        Ok(Spec { action, site, trigger, fired: AtomicBool::new(false) })
    }

    /// Record a hook call at `site` and return the first unfired matching
    /// action, marking its spec fired.
    fn hit(&self, site: Site, epoch: Option<u64>) -> Option<Action> {
        let count = self.calls[site.index()].fetch_add(1, Ordering::SeqCst) + 1;
        for spec in &self.specs {
            if spec.site != site || spec.fired.load(Ordering::SeqCst) {
                continue;
            }
            let matched = match spec.trigger {
                Trigger::Call(n) => count == n,
                Trigger::Epoch(n) => epoch == Some(n),
            };
            if matched && !spec.fired.swap(true, Ordering::SeqCst) {
                return Some(spec.action);
            }
        }
        None
    }
}

/// Fault outcome the checkpoint I/O path must simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Write a prefix of the line, then behave as if the process died.
    ShortWrite,
    /// Fail with a transient I/O error before writing anything.
    Error,
}

/// `Some(plan)` while a plan is installed; `ACTIVE` is the fast-path gate.
static INSTALLED: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Serializes `with_faults` scopes: plans are process-global state.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());
static ENV_INIT: OnceLock<()> = OnceLock::new();

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panic inside a fault scope is an *expected* outcome here (that is
    // what the engine containment is for), so poisoning is benign.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn current() -> Option<Arc<FaultPlan>> {
    ENV_INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("GARIBALDI_FAULTS") {
            let plan = FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("{e}"));
            *lock(&INSTALLED) = Some(Arc::new(plan));
            ACTIVE.store(true, Ordering::SeqCst);
        }
    });
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    lock(&INSTALLED).clone()
}

/// True when a fault plan is installed (env or [`with_faults`] scope).
///
/// Called once at engine construction so a malformed `GARIBALDI_FAULTS`
/// fails loudly on the main thread instead of inside a contained worker.
pub fn active() -> bool {
    current().is_some()
}

/// Run `f` with `spec` installed as the process-wide fault plan.
///
/// Scopes are serialized behind a global lock (two concurrent plans
/// would observe each other's faults) and the previous plan is restored
/// when `f` returns or panics.
///
/// # Panics
///
/// Panics if `spec` does not parse.
pub fn with_faults<T>(spec: &str, f: impl FnOnce() -> T) -> T {
    let plan = FaultPlan::parse(spec).unwrap_or_else(|e| panic!("{e}"));
    let _scope = lock(&SCOPE_LOCK);
    // Resolve any env-installed plan first so restoring `prev` puts it back.
    let _ = current();
    let prev = {
        let mut g = lock(&INSTALLED);
        let prev = g.take();
        *g = Some(Arc::new(plan));
        ACTIVE.store(true, Ordering::SeqCst);
        prev
    };
    struct Restore(Option<Arc<FaultPlan>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let mut g = lock(&INSTALLED);
            *g = self.0.take();
            ACTIVE.store(g.is_some(), Ordering::SeqCst);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Checkpoint-append hook: returns the I/O fault to simulate, if any.
pub fn io_hook() -> Option<IoFault> {
    let plan = current()?;
    match plan.hit(Site::CkptWrite, None)? {
        Action::IoShortWrite => Some(IoFault::ShortWrite),
        Action::IoError => Some(IoFault::Error),
        // Parsing rejects engine actions on the I/O site.
        Action::Panic | Action::Stall => None,
    }
}

/// Engine worker hook: panics or stalls in place when a spec matches.
///
/// `cancel` is the engine's cooperative kill flag — an injected stall
/// polls it so the barrier watchdog (or a contained failure elsewhere)
/// can release the stalled worker.
pub fn engine_hook(site: Site, epoch: u64, unit: usize, cancel: &AtomicBool) {
    let Some(plan) = current() else { return };
    match plan.hit(site, Some(epoch)) {
        Some(Action::Panic) => {
            panic!("injected fault: panic at {} epoch {epoch} unit {unit}", site.label())
        }
        Some(Action::Stall) => stall(site, epoch, unit, cancel),
        _ => {}
    }
}

fn stall(site: Site, epoch: u64, unit: usize, cancel: &AtomicBool) {
    eprintln!(
        "[fault] injected stall at {} epoch {epoch} unit {unit} — waiting for cancellation",
        site.label()
    );
    let cap = Instant::now() + Duration::from_secs(30);
    while !cancel.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < cap,
            "injected stall at {} epoch {epoch} was never cancelled (30 s hard cap)",
            site.label()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    eprintln!("[fault] stall at {} epoch {epoch} unit {unit} released", site.label());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let plan = FaultPlan::parse("io_short_write@3,panic@epoch:7").unwrap();
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.specs[0].site, Site::CkptWrite);
        assert_eq!(plan.specs[0].trigger, Trigger::Call(3));
        assert_eq!(plan.specs[1].site, Site::Step);
        assert_eq!(plan.specs[1].trigger, Trigger::Epoch(7));
    }

    #[test]
    fn site_qualifiers_and_defaults() {
        let plan = FaultPlan::parse("panic.drain@epoch:2, stall@epoch:1, stall.merge@4").unwrap();
        assert_eq!(plan.specs[0].site, Site::Drain);
        assert_eq!(plan.specs[1].site, Site::Drain);
        assert_eq!(plan.specs[2].site, Site::Merge);
        assert_eq!(plan.specs[2].trigger, Trigger::Call(4));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "bogus@1",
            "panic",
            "panic@",
            "panic@epoch:",
            "panic@epoch:x",
            "panic.bogus@1",
            "io_error@epoch:3",
            "io_short_write.drain@1",
            "panic@0",
            "",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "spec {bad:?} should be rejected");
        }
    }

    #[test]
    fn call_triggers_count_per_site_and_fire_once() {
        let plan = FaultPlan::parse("io_error@2").unwrap();
        assert_eq!(plan.hit(Site::CkptWrite, None), None);
        // Calls at other sites do not advance the ckpt-write counter.
        assert_eq!(plan.hit(Site::Step, Some(1)), None);
        assert_eq!(plan.hit(Site::CkptWrite, None), Some(Action::IoError));
        assert_eq!(plan.hit(Site::CkptWrite, None), None);
    }

    #[test]
    fn epoch_triggers_fire_on_first_matching_call_only() {
        let plan = FaultPlan::parse("panic@epoch:3").unwrap();
        assert_eq!(plan.hit(Site::Step, Some(2)), None);
        assert_eq!(plan.hit(Site::Step, Some(3)), Some(Action::Panic));
        assert_eq!(plan.hit(Site::Step, Some(3)), None);
        // Same epoch at a different site never matches a step spec.
        assert_eq!(plan.hit(Site::Drain, Some(3)), None);
    }

    #[test]
    fn with_faults_installs_and_restores() {
        assert_eq!(io_hook(), None);
        with_faults("io_short_write@1", || {
            assert_eq!(io_hook(), Some(IoFault::ShortWrite));
            assert_eq!(io_hook(), None);
        });
        assert_eq!(io_hook(), None);
    }
}
