//! The run-long worker pool and its failure containment.
//!
//! A parallel run keeps one [`Pool`] for its whole length: `workers − 1`
//! helper threads inside one `std::thread::scope`, with the calling thread
//! as worker 0. Every parallel section (cluster stepping, shard drains,
//! command applies, learned-state installs, the per-cluster tail) is a
//! [`Job`] the pool runs over its units by static chunking, so a unit runs
//! on the same worker for the whole run. Each unit:
//!
//! * runs under `catch_unwind`, so a worker panic becomes a structured
//!   [`EngineError`] recorded in the run's [`FailState`] instead of a
//!   poisoned scope;
//! * is skipped once the cooperative cancel flag is up, which the first
//!   failure raises;
//! * when a barrier watchdog timeout is configured
//!   (`GARIBALDI_BARRIER_TIMEOUT_S`), is watched by a run-long watchdog
//!   thread that, instead of letting a stuck unit deadlock the barrier,
//!   dumps every unit's phase state to stderr, records a timeout
//!   [`EngineError`], and cancels the section. The watchdog is its own
//!   thread, so it also breaks a unit stuck on the calling thread.
//!
//! The cancel flag is also the release signal for injected stalls
//! ([`crate::fault`]), which is what makes the watchdog path testable
//! without a real deadlock. With one worker and no watchdog the pool
//! spawns no thread: every section runs inline.
//! Only the epoch schedule runs on a pool: an engine built for
//! [`crate::EngineChoice::Serial`] never returns an [`EngineError`].

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A contained failure inside the parallel engine.
///
/// Returned by [`crate::ParallelEngine::try_run`] and
/// [`crate::SimRunner::try_run_on`] on the epoch schedule instead of
/// aborting the process when a worker panics or a barrier phase times
/// out (`garibaldi-cli` then retries on the serial schedule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// Epoch ordinal (1-based, counted from run start including warmup)
    /// whose step/barrier the failure surfaced in.
    pub epoch: u64,
    /// Failed worker unit within the phase — a shard index in shard
    /// phases, a cluster index in cluster phases — when one is
    /// implicated; `None` for the pooled learned-state merge.
    pub shard: Option<usize>,
    /// Engine phase: `"step"`, `"drain"`, `"apply-cmds"`, `"install"`,
    /// `"merge"`, or one of the per-cluster tail's `"invals"`, `"replay"`
    /// and `"corrections"`.
    pub phase: &'static str,
    /// The worker's panic payload, or the watchdog's timeout description.
    pub payload: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine {} phase failed at epoch {}", self.phase, self.epoch)?;
        if let Some(unit) = self.shard {
            write!(f, " (unit {unit})")?;
        }
        write!(f, ": {}", self.payload)
    }
}

impl std::error::Error for EngineError {}

/// First-failure latch plus the cooperative cancel flag shared by every
/// worker closure, injected stall, and the watchdog.
#[derive(Default)]
pub(super) struct FailState {
    first: Mutex<Option<EngineError>>,
    cancel: AtomicBool,
}

impl FailState {
    /// Record a failure (first one wins) and cancel in-flight work.
    pub(super) fn record(&self, e: EngineError) {
        self.cancel.store(true, Ordering::SeqCst);
        let mut g = lock(&self.first);
        if g.is_none() {
            *g = Some(e);
        }
    }

    pub(super) fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// The cancel flag, polled by injected stalls.
    pub(super) fn cancel_flag(&self) -> &AtomicBool {
        &self.cancel
    }

    /// Take the recorded failure, if any (the cancel flag stays raised —
    /// a failed engine run never resumes).
    pub(super) fn take(&self) -> Option<EngineError> {
        lock(&self.first).take()
    }
}

/// One parallel section: what each unit runs, and how a failure in it is
/// stamped.
#[derive(Debug, Clone, Copy)]
pub(super) struct Job<S> {
    /// What each unit does; handed to the pool's body.
    pub(super) section: S,
    /// Epoch ordinal stamped into any [`EngineError`] from this section.
    pub(super) epoch: u64,
    /// Phase label stamped into any [`EngineError`] from this section
    /// (a unit may relabel its later steps through the body's phase cell).
    pub(super) phase: &'static str,
    /// Units in the section; unit `i` runs on worker `i / ceil(units /
    /// workers)`.
    pub(super) units: usize,
}

/// What every unit of every section runs: `body(job, unit, phase)`. The
/// body may overwrite `phase` to label the step it is in.
pub(super) type Body<'a, S> = &'a (dyn Fn(&Job<S>, usize, &Cell<&'static str>) + Sync);

/// Per-unit lifecycle states for the watchdog dump.
const ST_QUEUED: u8 = 0;
const ST_RUNNING: u8 = 1;
const ST_DONE: u8 = 2;
const ST_FAILED: u8 = 3;
const ST_SKIPPED: u8 = 4;

fn state_label(s: u8) -> &'static str {
    match s {
        ST_QUEUED => "queued",
        ST_RUNNING => "running",
        ST_DONE => "done",
        ST_FAILED => "failed",
        ST_SKIPPED => "skipped",
        _ => "?",
    }
}

/// Locks `m`. A unit's lock is poisoned when the unit panics, and the run
/// it belongs to then stops before locking any unit again; the pool's own
/// locks are never held across a panic.
pub(super) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a poisoned lock belongs to a failed run, which takes no lock again")
}

/// Render a panic payload as text for [`EngineError::payload`].
pub(super) fn payload_str(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The section the watchdog is timing.
#[derive(Clone, Copy)]
struct Armed {
    deadline: Instant,
    epoch: u64,
    phase: &'static str,
    units: usize,
    fired: bool,
}

#[derive(Default)]
struct WatchState {
    section: Option<Armed>,
    quit: bool,
}

/// Section start/end signals from the calling thread to the watchdog.
#[derive(Default)]
struct Watch {
    state: Mutex<WatchState>,
    cv: Condvar,
}

impl Watch {
    fn set(&self, f: impl FnOnce(&mut WatchState)) {
        f(&mut lock(&self.state));
        self.cv.notify_all();
    }
}

/// What the calling thread, the helpers and the watchdog share.
struct Crew<'a, S> {
    workers: usize,
    body: Body<'a, S>,
    fail: &'a FailState,
    states: Vec<AtomicU8>,
    timeout: Option<Duration>,
    watch: Watch,
}

impl<S> Crew<'_, S> {
    /// Runs worker `w`'s static chunk of `job`.
    fn run_chunk(&self, job: &Job<S>, w: usize) {
        let chunk = job.units.div_ceil(self.workers);
        for i in (w * chunk).min(job.units)..((w + 1) * chunk).min(job.units) {
            self.run_one(job, i);
        }
    }

    fn run_one(&self, job: &Job<S>, i: usize) {
        let state = &self.states[i];
        if self.fail.cancelled() {
            state.store(ST_SKIPPED, Ordering::SeqCst);
            return;
        }
        state.store(ST_RUNNING, Ordering::SeqCst);
        let phase = Cell::new(job.phase);
        match catch_unwind(AssertUnwindSafe(|| (self.body)(job, i, &phase))) {
            Ok(()) => state.store(ST_DONE, Ordering::SeqCst),
            Err(p) => {
                state.store(ST_FAILED, Ordering::SeqCst);
                self.fail.record(EngineError {
                    epoch: job.epoch,
                    shard: Some(i),
                    phase: phase.get(),
                    payload: payload_str(p),
                });
            }
        }
    }

    /// The watchdog thread: times each armed section; on a deadline,
    /// dumps per-unit phase state and records a structured error (which
    /// also cancels the section, releasing any injected stall).
    fn watchdog(&self, timeout: Duration) {
        let mut st = lock(&self.watch.state);
        while !st.quit {
            let armed = match st.section {
                Some(a) if !a.fired => a,
                _ => {
                    st = self.watch.cv.wait(st).expect("the watch lock is never poisoned");
                    continue;
                }
            };
            let now = Instant::now();
            if now < armed.deadline {
                st = self
                    .watch
                    .cv
                    .wait_timeout(st, armed.deadline - now)
                    .expect("the watch lock is never poisoned")
                    .0;
                continue;
            }
            if let Some(a) = st.section.as_mut() {
                a.fired = true;
            }
            drop(st);
            self.fire(timeout, armed);
            st = lock(&self.watch.state);
        }
    }

    fn fire(&self, timeout: Duration, a: Armed) {
        let states = &self.states[..a.units];
        let dump: Vec<String> = states
            .iter()
            .enumerate()
            .map(|(i, st)| format!("{i}:{}", state_label(st.load(Ordering::SeqCst))))
            .collect();
        let dump = dump.join(" ");
        eprintln!(
            "[engine] barrier watchdog: phase {} of epoch {} exceeded {timeout:?}; \
             worker states: {dump}",
            a.phase, a.epoch
        );
        let stuck = states.iter().position(|st| st.load(Ordering::SeqCst) == ST_RUNNING);
        self.fail.record(EngineError {
            epoch: a.epoch,
            shard: stuck,
            phase: a.phase,
            payload: format!("barrier watchdog timeout after {timeout:?} (worker states: {dump})"),
        });
    }
}

/// A run's worker pool; see the module docs. Built by [`with_pool`].
pub(super) struct Pool<'a, S> {
    crew: &'a Crew<'a, S>,
    helpers: Vec<mpsc::Sender<Job<S>>>,
    done: mpsc::Receiver<()>,
}

impl<S: Copy> Pool<'_, S> {
    /// Runs `job` over its units: helpers take their chunks, the calling
    /// thread runs chunk 0, and this returns once every unit has finished
    /// or been skipped. The caller must consult the [`FailState`] before
    /// trusting the units' outputs.
    pub(super) fn run(&self, job: Job<S>) {
        let crew = self.crew;
        assert!(job.units <= crew.states.len(), "section larger than the pool was built for");
        for st in &crew.states[..job.units] {
            st.store(ST_QUEUED, Ordering::SeqCst);
        }
        if let Some(t) = crew.timeout {
            let armed = Armed {
                deadline: Instant::now() + t,
                epoch: job.epoch,
                phase: job.phase,
                units: job.units,
                fired: false,
            };
            crew.watch.set(|w| w.section = Some(armed));
        }
        for h in &self.helpers {
            h.send(job).expect("pool helper alive");
        }
        crew.run_chunk(&job, 0);
        for _ in &self.helpers {
            self.done.recv().expect("pool helper alive");
        }
        if crew.timeout.is_some() {
            crew.watch.set(|w| w.section = None);
        }
    }
}

impl<S> Drop for Pool<'_, S> {
    fn drop(&mut self) {
        // The helpers' channels close with `self.helpers`; the watchdog
        // needs telling.
        self.crew.watch.set(|w| w.quit = true);
    }
}

/// Runs `run` with a pool of `workers` workers (the calling thread plus
/// `workers − 1` helpers) whose sections run `body` over at most
/// `max_units` units, plus a watchdog thread when `timeout` is set. Every
/// thread is joined before this returns, whether `run` succeeds, fails or
/// panics.
pub(super) fn with_pool<S: Copy + Send, R>(
    workers: usize,
    max_units: usize,
    fail: &FailState,
    timeout: Option<Duration>,
    body: Body<'_, S>,
    run: impl FnOnce(&Pool<'_, S>) -> R,
) -> R {
    let crew = Crew {
        workers: workers.max(1),
        body,
        fail,
        states: (0..max_units).map(|_| AtomicU8::new(ST_QUEUED)).collect(),
        timeout,
        watch: Watch::default(),
    };
    std::thread::scope(|s| {
        let crew = &crew;
        let (done_tx, done) = mpsc::channel();
        let mut threads = Vec::with_capacity(crew.workers);
        let mut helpers = Vec::with_capacity(crew.workers);
        for w in 1..crew.workers {
            let (tx, rx) = mpsc::channel::<Job<S>>();
            let done_tx = done_tx.clone();
            threads.push(s.spawn(move || {
                for job in rx {
                    crew.run_chunk(&job, w);
                    if done_tx.send(()).is_err() {
                        break;
                    }
                }
            }));
            helpers.push(tx);
        }
        drop(done_tx);
        if let Some(t) = timeout {
            threads.push(s.spawn(move || crew.watchdog(t)));
        }
        let pool = Pool { crew, helpers, done };
        let out = run(&pool);
        // Closing the helpers' channels and quitting the watchdog ends every
        // thread; joining them here (not just at the scope's end, which
        // only waits for their closures) means they are gone on return.
        drop(pool);
        for t in threads {
            t.join().expect("pool threads contain their panics");
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    fn job(units: usize) -> Job<()> {
        Job { section: (), epoch: 5, phase: "drain", units }
    }

    /// Runs `sections` sections of `units` units on a pool, recording the
    /// thread each unit ran on and `f`'s value into per-unit slots.
    fn run_sections(
        workers: usize,
        units: usize,
        sections: usize,
        fail: &FailState,
        timeout: Option<Duration>,
        f: impl Fn(usize) -> i32 + Sync,
    ) -> Vec<Vec<(ThreadId, i32)>> {
        let slots: Vec<Mutex<Option<(ThreadId, i32)>>> =
            (0..units).map(|_| Mutex::new(None)).collect();
        let body = |_: &Job<()>, i: usize, _: &Cell<&'static str>| {
            *lock(&slots[i]) = Some((std::thread::current().id(), f(i)));
        };
        with_pool(workers, units, fail, timeout, &body, |pool| {
            (0..sections)
                .map(|_| {
                    pool.run(job(units));
                    slots
                        .iter()
                        .map(|s| lock(s).take().unwrap_or((std::thread::current().id(), 0)))
                        .collect()
                })
                .collect()
        })
    }

    #[test]
    fn results_come_back_in_item_order() {
        for workers in [1, 2, 4, 7] {
            let fail = FailState::default();
            let runs = run_sections(workers, 10, 1, &fail, None, |i| i as i32 * 3);
            assert!(runs[0].iter().map(|&(_, v)| v).eq((0..10).map(|v| v * 3)));
            assert!(fail.take().is_none());
        }
    }

    #[test]
    fn units_keep_their_worker_and_chunk_zero_runs_on_the_caller() {
        let me = std::thread::current().id();
        for workers in [1, 2, 3, 4, 7] {
            let fail = FailState::default();
            let runs = run_sections(workers, 10, 3, &fail, None, |i| i as i32);
            let threads =
                |run: &Vec<(ThreadId, i32)>| run.iter().map(|&(t, _)| t).collect::<Vec<_>>();
            assert!(
                runs.iter().all(|r| threads(r) == threads(&runs[0])),
                "a unit keeps its worker"
            );
            let chunk = 10usize.div_ceil(workers);
            for (i, &(t, _)) in runs[0].iter().enumerate() {
                assert_eq!(
                    t == me,
                    i < chunk,
                    "workers {workers}: unit {i} on the calling thread?"
                );
            }
            assert!(fail.take().is_none());
        }
    }

    #[test]
    fn a_panicking_unit_becomes_a_structured_error() {
        for (workers, bad) in [(1, 4), (3, 4), (3, 0)] {
            let fail = FailState::default();
            let body = |_: &Job<()>, i: usize, phase: &Cell<&'static str>| {
                phase.set("invals");
                assert!(i != bad, "unit {bad} exploded");
            };
            with_pool(workers, 6, &fail, None, &body, |pool| pool.run(job(6)));
            let e = fail.take().expect("failure recorded");
            assert_eq!(e.epoch, 5);
            assert_eq!(e.phase, "invals", "the unit's own label wins");
            assert_eq!(e.shard, Some(bad));
            assert!(e.payload.contains("exploded"), "{}", e.payload);
            assert!(fail.cancelled(), "cancel flag raised");
            // Display is readable.
            assert!(e.to_string().contains("invals phase failed at epoch 5"));
        }
    }

    #[test]
    fn first_failure_wins_and_cancel_skips_queued_units() {
        let fail = FailState::default();
        fail.record(EngineError { epoch: 1, shard: None, phase: "merge", payload: "a".into() });
        fail.record(EngineError { epoch: 2, shard: None, phase: "merge", payload: "b".into() });
        assert_eq!(fail.take().expect("kept").payload, "a");
        // cancel stays raised after take(): everything now skips.
        let runs = run_sections(2, 4, 1, &fail, None, |i| i as i32 + 1);
        assert!(runs[0].iter().all(|&(_, v)| v == 0), "all units skipped");
    }

    /// A stuck unit that honors the cancel flag (like an injected stall):
    /// without the watchdog it would block the section forever.
    fn stuck(fail: &FailState) {
        let cap = Instant::now() + Duration::from_secs(10);
        while !fail.cancelled() {
            assert!(Instant::now() < cap, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn watchdog_fires_on_a_stuck_unit_and_cancels_it() {
        // Three units on two workers: units 0 and 1 run on the calling
        // thread, unit 2 on the helper; one worker runs all three inline.
        for (workers, bad) in [(2, 2), (2, 1), (1, 0)] {
            let fail = FailState::default();
            let t = Some(Duration::from_millis(50));
            let runs = run_sections(workers, 3, 1, &fail, t, |i| {
                if i == bad {
                    stuck(&fail);
                }
                i as i32
            });
            assert_eq!(runs[0].len(), 3);
            let e = fail.take().expect("timeout recorded");
            assert!(e.payload.contains("watchdog timeout"), "{}", e.payload);
            assert!(e.payload.contains("running"), "dump embedded: {}", e.payload);
            assert_eq!(e.shard, Some(bad), "stuck unit identified");
        }
    }

    #[test]
    fn watchdog_does_not_fire_on_a_fast_section() {
        let fail = FailState::default();
        let runs = run_sections(4, 8, 3, &fail, Some(Duration::from_secs(30)), |i| i as i32);
        assert!(runs.iter().all(|r| r.iter().map(|&(_, v)| v).eq(0..8)));
        assert!(fail.take().is_none());
    }
}
