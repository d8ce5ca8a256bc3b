//! Fault containment for join execution: cancellation, deadlines,
//! memory budgeting, and deterministic failpoints.
//!
//! The persistent executor ([`crate::executor`]) made worker threads a
//! process-lifetime resource shared by every join — so a join can no
//! longer be allowed to take the pool down with it. This module holds
//! the per-join fault state the thirteen drivers thread through their
//! phases:
//!
//! * [`CancelToken`] — cooperative cancellation, checked at morsel
//!   granularity inside the join/build/probe loops and at every phase
//!   boundary. Cancelling mid-join yields
//!   [`JoinError::Cancelled`] with the `PhaseStat`s of the phases that
//!   completed.
//! * Deadlines — `JoinConfig::deadline` bounds a join's wall time; an
//!   expired deadline surfaces as [`JoinError::Timedout`], again with
//!   partial phase stats.
//! * [`MemBudget`] — a `try_reserve`-style byte budget
//!   (`JoinConfig::mem_limit`). The drivers charge their large
//!   allocations (partition buffers, hash tables, SWWCB pools,
//!   materialization vectors) against it *before* allocating; exceeding
//!   the limit yields [`JoinError::MemoryBudgetExceeded`] instead of an
//!   abort.
//! * Failpoints (`--features failpoints`) — deterministic fault
//!   injection into every phase of every algorithm, armed per test
//!   thread ([`failpoints::arm_local`]) or process-wide via the
//!   `MMJOIN_FAILPOINTS` environment variable
//!   (`"NOP.build=panic,PRO.join=sleep:25"`).
//!
//! A [`FaultCtx`] is created once per join by each driver
//! ([`FaultCtx::begin`]); workers reach it through the closures they
//! run, so no global state is involved in the hot path. With none of
//! the knobs set, every check is one or two relaxed atomic loads.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mmjoin_util::pool::{lock_recover, WorkerPool};

use crate::config::JoinConfig;
use crate::executor::{Executor, PhaseWork};
use crate::plan::JoinError;
use crate::stats::JoinResult;
use crate::Algorithm;

#[cfg(feature = "failpoints")]
use std::sync::atomic::{AtomicU64, AtomicU8};
#[cfg(feature = "failpoints")]
use std::time::Duration;

thread_local! {
    /// The phase the join submitted from this thread is currently in —
    /// read by `plan::dispatch` to label `WorkerPanicked` errors.
    static CURRENT_PHASE: Cell<&'static str> = const { Cell::new("plan") };
}

/// The phase label of the join currently executing on this thread.
pub(crate) fn current_phase() -> &'static str {
    CURRENT_PHASE.with(|c| c.get())
}

/// Carrier for worker panic messages re-raised by the executor on the
/// submitting thread; `panic_message` unwraps it into the payload shown
/// in [`JoinError::WorkerPanicked`].
pub struct WorkerPanic(pub Vec<String>);

/// Best-effort string form of a panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(wp) = payload.downcast_ref::<WorkerPanic>() {
        wp.0.join("; ")
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cooperative cancellation handle for a running join.
///
/// Clone the token, hand one clone to `JoinConfig::cancel` (or
/// `Join::cancel_token`), keep the other; calling [`CancelToken::cancel`]
/// from any thread makes the join return [`JoinError::Cancelled`] at the
/// next morsel or phase boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a [`MemBudget`] reservation was refused: the configured limit
/// and how many bytes were still unreserved at the time. Carried into
/// [`JoinError::MemoryBudgetExceeded`] so abort messages (and the
/// spilling join's eviction trigger) are diagnosable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    pub limit: usize,
    pub available: usize,
}

/// A byte budget for a join's large allocations.
///
/// `try_reserve` either admits the request or reports the limit and the
/// bytes still available — exceeding the budget is a *policy* decision
/// surfaced before the allocation happens, not an allocator failure
/// after.
#[derive(Debug)]
pub struct MemBudget {
    /// `usize::MAX` means unlimited (the fast path: one branch).
    limit: usize,
    used: AtomicUsize,
}

impl MemBudget {
    pub fn unlimited() -> Self {
        MemBudget {
            limit: usize::MAX,
            used: AtomicUsize::new(0),
        }
    }

    pub fn limited(bytes: usize) -> Self {
        MemBudget {
            limit: bytes,
            used: AtomicUsize::new(0),
        }
    }

    /// Reserve `bytes` against the budget, or report the limit and the
    /// bytes that were still free.
    pub fn try_reserve(&self, bytes: usize) -> Result<(), BudgetExceeded> {
        if self.limit == usize::MAX {
            return Ok(());
        }
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        if prev.saturating_add(bytes) > self.limit {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
            Err(BudgetExceeded {
                limit: self.limit,
                available: self.limit.saturating_sub(prev),
            })
        } else {
            Ok(())
        }
    }

    /// Return a reservation to the budget.
    pub fn release(&self, bytes: usize) {
        if self.limit != usize::MAX {
            self.used.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// The configured ceiling; `usize::MAX` means unlimited. Planners
    /// (the spilling join's fanout choice) size buffers against this.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

/// A scoped reservation against a [`MemBudget`]; released on drop, so
/// phase-scoped allocations (per-partition tables) give their bytes back
/// when the morsel completes.
pub struct MemCharge<'a> {
    budget: &'a MemBudget,
    bytes: usize,
}

impl Drop for MemCharge<'_> {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Per-join fault state threaded through every phase of a driver.
pub struct FaultCtx {
    alg: Algorithm,
    cancel: CancelToken,
    deadline_at: Option<Instant>,
    started: Instant,
    budget: MemBudget,
    /// Current phase label (written at phase boundaries, read on error
    /// paths only).
    phase: Mutex<&'static str>,
    /// First worker-side failure (budget trip), surfaced at the next
    /// phase boundary.
    tripped: Mutex<Option<JoinError>>,
    /// Sticky fast flag: some stop condition has been observed.
    stopped: AtomicBool,
    /// Active failpoint for the current phase: 0 none, 1 panic, 2 sleep.
    #[cfg(feature = "failpoints")]
    fp_mode: AtomicU8,
    #[cfg(feature = "failpoints")]
    fp_sleep_ms: AtomicU64,
}

impl FaultCtx {
    /// Start fault tracking for one join under `cfg`'s knobs. Must be
    /// called on the submitting thread (failpoints armed with
    /// [`failpoints::arm_local`] are resolved against it).
    pub fn begin(alg: Algorithm, cfg: &JoinConfig) -> FaultCtx {
        CURRENT_PHASE.with(|c| c.set("plan"));
        if let Some(mode) = cfg.kernel_mode {
            mmjoin_util::kernels::set_mode(mode);
        }
        if let Some(policy) = cfg.alloc_policy {
            mmjoin_util::mem::set_policy(policy);
        }
        FaultCtx {
            alg,
            cancel: cfg.cancel.clone(),
            deadline_at: cfg.deadline.map(|d| Instant::now() + d),
            started: Instant::now(),
            budget: match cfg.mem_limit {
                Some(bytes) => MemBudget::limited(bytes),
                None => MemBudget::unlimited(),
            },
            phase: Mutex::new("plan"),
            tripped: Mutex::new(None),
            stopped: AtomicBool::new(false),
            #[cfg(feature = "failpoints")]
            fp_mode: AtomicU8::new(0),
            #[cfg(feature = "failpoints")]
            fp_sleep_ms: AtomicU64::new(0),
        }
    }

    pub fn algorithm(&self) -> Algorithm {
        self.alg
    }

    /// The phase the join is currently in.
    pub fn phase(&self) -> &'static str {
        *lock_recover(&self.phase)
    }

    /// Enter a named phase: updates the error label and arms the phase's
    /// failpoint (`"<ALG>.<phase>"`), if any.
    pub fn enter_phase(&self, name: &'static str) {
        *lock_recover(&self.phase) = name;
        CURRENT_PHASE.with(|c| c.set(name));
        #[cfg(feature = "failpoints")]
        {
            let key = format!("{}.{name}", self.alg.name());
            let (mode, ms) = match failpoints::active(&key) {
                Some(failpoints::FailAction::Panic) => (1, 0),
                Some(failpoints::FailAction::Sleep(ms)) => (2, ms),
                None => (0, 0),
            };
            self.fp_sleep_ms.store(ms, Ordering::Relaxed);
            self.fp_mode.store(mode, Ordering::Relaxed);
        }
    }

    /// Should in-flight work bail out? Checked at morsel granularity;
    /// sticky once true. With no cancel token fired and no deadline this
    /// is one relaxed load (+ one for the token).
    pub fn should_stop(&self) -> bool {
        if self.stopped.load(Ordering::Relaxed) {
            return true;
        }
        if self.cancel.is_cancelled() || self.deadline_at.is_some_and(|d| Instant::now() >= d) {
            self.stopped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Worker-side per-morsel hook: fires the phase's failpoint (if the
    /// `failpoints` feature armed one) and reports whether the task
    /// should bail out.
    pub fn tick(&self) -> bool {
        self.on_worker();
        self.should_stop()
    }

    /// Failpoint evaluation only (used by [`CtxPool`] for phases whose
    /// inner loops live in other crates).
    #[inline]
    pub(crate) fn on_worker(&self) {
        #[cfg(feature = "failpoints")]
        self.fire();
    }

    #[cfg(feature = "failpoints")]
    fn fire(&self) {
        match self.fp_mode.load(Ordering::Relaxed) {
            1 => panic!("failpoint {}.{} fired", self.alg.name(), self.phase()),
            2 => std::thread::sleep(Duration::from_millis(
                self.fp_sleep_ms.load(Ordering::Relaxed),
            )),
            _ => {}
        }
    }

    /// The join's byte budget, for drivers (the spilling join's
    /// eviction planner) that need raw reserve/release control.
    pub(crate) fn budget(&self) -> &MemBudget {
        &self.budget
    }

    /// Build the typed budget error for a refused reservation in the
    /// current phase.
    pub(crate) fn budget_error(&self, bytes: usize, be: BudgetExceeded) -> JoinError {
        JoinError::MemoryBudgetExceeded {
            phase: self.phase(),
            requested: bytes,
            limit: be.limit,
            available: be.available,
        }
    }

    /// Reserve `bytes` for a driver-side allocation, or fail the join.
    pub fn charge(&self, bytes: usize) -> Result<MemCharge<'_>, JoinError> {
        match self.budget.try_reserve(bytes) {
            Ok(()) => Ok(MemCharge {
                budget: &self.budget,
                bytes,
            }),
            Err(be) => Err(self.budget_error(bytes, be)),
        }
    }

    /// Worker-side reservation: on failure the error is recorded (to be
    /// surfaced at the next [`FaultCtx::checkpoint`]) and `None` is
    /// returned so the morsel can bail out.
    pub fn try_charge(&self, bytes: usize) -> Option<MemCharge<'_>> {
        match self.budget.try_reserve(bytes) {
            Ok(()) => Some(MemCharge {
                budget: &self.budget,
                bytes,
            }),
            Err(be) => {
                self.trip(self.budget_error(bytes, be));
                None
            }
        }
    }

    /// Record a worker-side failure; first one wins. `pub(crate)` so
    /// drivers with worker-side I/O (the spilling join) can surface a
    /// typed error at the next checkpoint.
    pub(crate) fn trip(&self, e: JoinError) {
        let mut t = lock_recover(&self.tripped);
        if t.is_none() {
            *t = Some(e);
        }
        self.stopped.store(true, Ordering::Relaxed);
    }

    /// Phase-boundary check: surfaces a worker-side trip, cancellation,
    /// or an expired deadline as the matching [`JoinError`], carrying
    /// the `PhaseStat`s completed so far.
    pub fn checkpoint(&self, result: &JoinResult) -> Result<(), JoinError> {
        if let Some(e) = lock_recover(&self.tripped).take() {
            return Err(e);
        }
        if self.cancel.is_cancelled() {
            return Err(JoinError::Cancelled {
                phase: self.phase(),
                partial: result.phases.clone(),
            });
        }
        if let Some(d) = self.deadline_at {
            if Instant::now() >= d {
                return Err(JoinError::Timedout {
                    phase: self.phase(),
                    elapsed: self.started.elapsed(),
                    partial: result.phases.clone(),
                });
            }
        }
        Ok(())
    }
}

/// One join's view of the shared executor: every phase the join submits
/// goes through it, and the work each phase returns (tasks, steals,
/// barrier idle time, and spans when the join is profiled) collects
/// here until the driver records the phase
/// ([`JoinResult::push_phase`]). Joins running concurrently on the same
/// pool therefore never see each other's work.
///
/// As a [`WorkerPool`] it also evaluates the join's failpoint on every
/// worker before running the phase closure — the injection path for
/// phases whose parallel loops live below `mmjoin-core` (partitioning,
/// CHT bulkload). It never skips the closure: the pool contract (every
/// index invoked once) is what the result-slot helpers rely on.
pub struct CtxPool<'a> {
    exec: Arc<Executor>,
    ctx: &'a FaultCtx,
    /// Span time base (the join start) when the join is profiled.
    profile: Option<Instant>,
    /// Work of the phase in progress.
    work: Mutex<PhaseWork>,
}

impl<'a> CtxPool<'a> {
    /// The pool for the join `ctx` tracks, on `cfg`'s executor; spans
    /// are recorded when `cfg.profile` is enabled.
    pub fn new(cfg: &JoinConfig, ctx: &'a FaultCtx) -> Self {
        CtxPool {
            exec: cfg.executor(),
            ctx,
            profile: cfg.profile.enabled.then_some(ctx.started),
            work: Mutex::new(PhaseWork::default()),
        }
    }

    /// [`Executor::run_morsels`] for this join.
    pub fn run_morsels(&self, queues: &[Vec<usize>], f: &(dyn Fn(usize, usize) + Sync)) {
        let work = self.exec.run_morsels(queues, f, self.profile);
        lock_recover(&self.work).merge(work);
    }

    /// Take the work of every phase run since the last call (a driver
    /// phase boundary).
    pub fn take_work(&self) -> PhaseWork {
        std::mem::take(&mut *lock_recover(&self.work))
    }
}

impl WorkerPool for CtxPool<'_> {
    fn workers(&self) -> usize {
        self.exec.workers()
    }

    fn broadcast(&self, f: &(dyn Fn(usize) + Sync)) {
        let ctx = self.ctx;
        let work = self.exec.broadcast_counted(
            &|w| {
                ctx.on_worker();
                f(w);
            },
            self.profile,
        );
        lock_recover(&self.work).merge(work);
    }
}

/// Deterministic fault injection, compiled in only with the
/// `failpoints` feature.
///
/// A failpoint is named `"<ALG>.<phase>"` (e.g. `"PRO.partition"`,
/// `"NOP.build"`, `"MWAY.sort"`) and carries a [`FailAction`]:
/// `Panic` makes every worker of that phase panic, `Sleep(ms)` delays
/// each morsel (for exercising deadlines deterministically).
///
/// Arming is either *process-wide* ([`arm`]/[`disarm`], seeded from the
/// `MMJOIN_FAILPOINTS` environment variable on first use) or *local to
/// the submitting thread* ([`arm_local`]) — the latter is what tests
/// use, so concurrently running tests sharing the process-global
/// executor pools cannot see each other's faults.
#[cfg(feature = "failpoints")]
pub mod failpoints {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    use mmjoin_util::pool::lock_recover;

    /// What an armed failpoint does when a worker reaches it.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub enum FailAction {
        /// Panic on every worker of the phase.
        Panic,
        /// Sleep this many milliseconds per morsel/worker.
        Sleep(u64),
    }

    static GLOBAL: OnceLock<Mutex<HashMap<String, FailAction>>> = OnceLock::new();

    thread_local! {
        static LOCAL: RefCell<HashMap<String, FailAction>> =
            RefCell::new(HashMap::new());
    }

    fn global() -> &'static Mutex<HashMap<String, FailAction>> {
        GLOBAL.get_or_init(|| {
            Mutex::new(parse(
                std::env::var("MMJOIN_FAILPOINTS")
                    .ok()
                    .as_deref()
                    .unwrap_or(""),
            ))
        })
    }

    /// Parse `"name=panic,name=sleep:25"`; unknown actions are ignored.
    pub(crate) fn parse(spec: &str) -> HashMap<String, FailAction> {
        let mut map = HashMap::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let Some((name, action)) = entry.split_once('=') else {
                continue;
            };
            let action = if action.eq_ignore_ascii_case("panic") {
                Some(FailAction::Panic)
            } else if let Some(ms) = action.strip_prefix("sleep:") {
                ms.parse().ok().map(FailAction::Sleep)
            } else {
                None
            };
            if let Some(a) = action {
                map.insert(name.trim().to_string(), a);
            }
        }
        map
    }

    /// Arm a failpoint process-wide.
    pub fn arm(name: &str, action: FailAction) {
        lock_recover(global()).insert(name.to_string(), action);
    }

    /// Disarm a process-wide failpoint.
    pub fn disarm(name: &str) {
        lock_recover(global()).remove(name);
    }

    /// Arm a failpoint for joins submitted from *this thread* only;
    /// disarmed when the returned guard drops.
    #[must_use = "the failpoint disarms when the guard drops"]
    pub fn arm_local(name: &str, action: FailAction) -> LocalGuard {
        LOCAL.with(|l| l.borrow_mut().insert(name.to_string(), action));
        LocalGuard {
            name: name.to_string(),
        }
    }

    /// Disarms its thread-local failpoint on drop.
    pub struct LocalGuard {
        name: String,
    }

    impl Drop for LocalGuard {
        fn drop(&mut self) {
            LOCAL.with(|l| l.borrow_mut().remove(&self.name));
        }
    }

    /// The action armed for `name`, thread-local arming first.
    pub(crate) fn active(name: &str) -> Option<FailAction> {
        if let Some(a) = LOCAL.with(|l| l.borrow().get(name).copied()) {
            return Some(a);
        }
        lock_recover(global()).get(name).copied()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn spec_parsing() {
            let m = parse("NOP.build=panic, PRO.join=sleep:25,bad,x=frob");
            assert_eq!(m.get("NOP.build"), Some(&FailAction::Panic));
            assert_eq!(m.get("PRO.join"), Some(&FailAction::Sleep(25)));
            assert_eq!(m.len(), 2);
        }

        #[test]
        fn local_arming_is_scoped() {
            {
                let _g = arm_local("T.phase", FailAction::Panic);
                assert_eq!(active("T.phase"), Some(FailAction::Panic));
            }
            assert_eq!(active("T.phase"), None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cancel_token_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn budget_admits_and_rejects() {
        let b = MemBudget::limited(100);
        assert!(b.try_reserve(60).is_ok());
        assert_eq!(
            b.try_reserve(60),
            Err(BudgetExceeded {
                limit: 100,
                available: 40,
            })
        );
        assert_eq!(b.used(), 60);
        b.release(60);
        assert!(b.try_reserve(100).is_ok());
    }

    #[test]
    fn unlimited_budget_never_rejects() {
        let b = MemBudget::unlimited();
        assert!(b.try_reserve(usize::MAX / 2).is_ok());
        assert!(b.try_reserve(usize::MAX / 2).is_ok());
        assert_eq!(b.used(), 0, "unlimited budget does no accounting");
    }

    #[test]
    fn charge_guard_releases_on_drop() {
        let mut cfg = JoinConfig::new(1);
        cfg.mem_limit = Some(64);
        let ctx = FaultCtx::begin(Algorithm::Nop, &cfg);
        {
            let _c = ctx.charge(64).expect("fits");
            assert!(ctx.charge(1).is_err());
        }
        assert!(ctx.charge(64).is_ok(), "guard drop released the bytes");
    }

    #[test]
    fn worker_trip_surfaces_at_checkpoint() {
        let mut cfg = JoinConfig::new(1);
        cfg.mem_limit = Some(10);
        let ctx = FaultCtx::begin(Algorithm::Cprl, &cfg);
        ctx.enter_phase("join");
        assert!(ctx.try_charge(100).is_none());
        assert!(ctx.should_stop());
        let result = JoinResult::new(Algorithm::Cprl);
        match ctx.checkpoint(&result) {
            Err(JoinError::MemoryBudgetExceeded {
                phase,
                requested,
                limit,
                available,
            }) => {
                assert_eq!(phase, "join");
                assert_eq!(requested, 100);
                assert_eq!(limit, 10);
                assert_eq!(available, 10, "nothing was reserved yet");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deadline_zero_stops_immediately() {
        let mut cfg = JoinConfig::new(1);
        cfg.deadline = Some(Duration::ZERO);
        let ctx = FaultCtx::begin(Algorithm::Pro, &cfg);
        ctx.enter_phase("partition");
        assert!(ctx.should_stop());
        let result = JoinResult::new(Algorithm::Pro);
        assert!(matches!(
            ctx.checkpoint(&result),
            Err(JoinError::Timedout {
                phase: "partition",
                ..
            })
        ));
    }

    #[test]
    fn cancellation_reports_partial_phases() {
        let mut cfg = JoinConfig::new(1);
        let token = CancelToken::new();
        cfg.cancel = token.clone();
        let ctx = FaultCtx::begin(Algorithm::Mway, &cfg);
        ctx.enter_phase("sort");
        let mut result = JoinResult::new(Algorithm::Mway);
        result.push_plain_phase("partition", Duration::from_millis(1), 0.0);
        assert!(ctx.checkpoint(&result).is_ok());
        token.cancel();
        match ctx.checkpoint(&result) {
            Err(JoinError::Cancelled { phase, partial }) => {
                assert_eq!(phase, "sort");
                assert_eq!(partial.len(), 1);
                assert_eq!(partial[0].name, "partition");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ctx_pools_sharing_one_executor_keep_their_own_work() {
        // Two joins' pools on one shared executor, one profiled. The
        // barrier makes both joins finish their phases before either
        // records them, so any work held by the pool rather than
        // returned to its submitter would show up in both.
        const THREADS: usize = 2;
        let both_ran = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for profiled in [false, true] {
                let both_ran = &both_ran;
                s.spawn(move || {
                    let mut cfg = JoinConfig::new(THREADS);
                    if profiled {
                        cfg.profile = crate::config::ProfileConfig::on();
                    }
                    let ctx = FaultCtx::begin(Algorithm::Nop, &cfg);
                    let pool = CtxPool::new(&cfg, &ctx);
                    let morsels = |round: usize| round % 7 + 1 + usize::from(profiled);
                    // Assert only after the loop: a panic between the
                    // barrier waits would strand the other thread.
                    let works: Vec<PhaseWork> = (0..50)
                        .map(|round| {
                            pool.broadcast(&|_| {});
                            pool.run_morsels(&[(0..morsels(round)).collect()], &|_, _| {});
                            both_ran.wait();
                            let work = pool.take_work();
                            both_ran.wait();
                            work
                        })
                        .collect();
                    for (round, work) in works.iter().enumerate() {
                        assert_eq!(work.exec.tasks, (THREADS + morsels(round)) as u64);
                        if profiled {
                            assert_eq!(work.spans.len(), 2 * THREADS);
                            let span_tasks: u64 = work.spans.iter().map(|w| w.tasks).sum();
                            assert_eq!(span_tasks, work.exec.tasks);
                        } else {
                            assert!(work.spans.is_empty());
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn panic_message_forms() {
        let boxed: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(panic_message(boxed.as_ref()), "boom");
        let boxed: Box<dyn Any + Send> = Box::new(String::from("heap boom"));
        assert_eq!(panic_message(boxed.as_ref()), "heap boom");
        let boxed: Box<dyn Any + Send> = Box::new(WorkerPanic(vec!["a".into(), "b".into()]));
        assert_eq!(panic_message(boxed.as_ref()), "a; b");
        let boxed: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }
}
