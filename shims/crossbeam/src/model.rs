//! A cooperative model-checking scheduler for the channel/thread shims.
//!
//! When a model session is installed (via [`explore`] / [`replay`]), every
//! channel created by `channel::bounded` and every thread spawned by
//! `thread::scope` routes through a virtual scheduler: exactly one task
//! is runnable at a time, every channel operation is a yield point, and
//! the schedule — which task runs at each yield — is chosen by a seeded
//! PRNG with DFS-style backtracking over the first `dfs_depth` decision
//! points. Runs are fully deterministic given a [`ScheduleId`], so any
//! failing interleaving replays bit-for-bit.
//!
//! Time is virtual: `recv_timeout` deadlines are measured in ticks of a
//! logical clock that advances **only at quiescence** — when no task can
//! make progress without it. A quiescent step wakes spin-parked tasks
//! (`utils::Backoff::snooze`) and advances the clock by one tick, or
//! jumps straight to the earliest deadline when nothing is spinning.
//! This means a timeout can only fire on a schedule where the awaited
//! message genuinely cannot arrive first — healthy schedules never see
//! spurious timeouts, no matter how adversarial the interleaving.
//!
//! Two failure modes poison a schedule: *deadlock* (every task blocked,
//! no deadline to jump to) and *step limit* (livelock guard). Poisoning
//! wakes every task; each unwinds with a private `ModelAbort` payload at
//! its next scheduler interaction, and the violation surfaces from
//! [`explore`] with its replayable schedule id.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

thread_local! {
    static CURRENT: RefCell<Option<Arc<Session>>> = const { RefCell::new(None) };
}

/// The session installed on the calling thread, if any. Channel and
/// thread shims consult this to decide real-vs-model dispatch.
pub(crate) fn current() -> Option<Arc<Session>> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(s: Option<Arc<Session>>) {
    CURRENT.with(|c| *c.borrow_mut() = s);
}

/// Clears the thread-local session even if the guarded code unwinds.
struct TlGuard;

impl Drop for TlGuard {
    fn drop(&mut self) {
        set_current(None);
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Panic payload that unwinds a task out of a poisoned schedule. Never
/// escapes the model runtime: task wrappers catch it and exit cleanly.
struct ModelAbort;

/// Why a schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Every live task is blocked and no deadline exists to jump to.
    Deadlock {
        /// One human-readable line per live task describing its wait.
        tasks: Vec<String>,
    },
    /// The schedule exceeded `max_steps` yield points (livelock guard).
    StepLimit { steps: u64 },
    /// A task panicked (assertion failure, engine bug, ...).
    Panic { message: String },
    /// The checked closure returned `Err` — a harness invariant failed.
    Check { message: String },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Deadlock { tasks } => {
                write!(f, "deadlock: no runnable task and no pending deadline")?;
                for t in tasks {
                    write!(f, "\n  {t}")?;
                }
                Ok(())
            }
            Violation::StepLimit { steps } => {
                write!(
                    f,
                    "step limit exceeded after {steps} yield points (livelock?)"
                )
            }
            Violation::Panic { message } => write!(f, "task panicked: {message}"),
            Violation::Check { message } => write!(f, "invariant violated: {message}"),
        }
    }
}

/// Identifies one schedule: the exploration seed plus the run index.
/// Formats as `seed:index` — the handle `km-check --replay` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleId {
    pub seed: u64,
    pub index: u64,
}

impl fmt::Display for ScheduleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.seed, self.index)
    }
}

impl ScheduleId {
    /// Parses a `seed:index` handle as printed by [`fmt::Display`].
    pub fn parse(s: &str) -> Option<ScheduleId> {
        let (seed, index) = s.split_once(':')?;
        Some(ScheduleId {
            seed: seed.trim().parse().ok()?,
            index: index.trim().parse().ok()?,
        })
    }
}

/// A failing schedule: the replay handle plus what went wrong.
#[derive(Debug, Clone)]
pub struct Failure {
    pub schedule: ScheduleId,
    pub violation: Violation,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule {} failed: {} (replay with `km-check --replay {}`)",
            self.schedule, self.violation, self.schedule
        )
    }
}

/// Summary of a successful exploration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Schedules executed to completion.
    pub schedules: u64,
    /// Largest number of scheduling decision points seen in one run.
    pub max_decision_points: u64,
    /// Times the bounded-depth DFS frontier was exhausted and restarted
    /// with fresh random tails.
    pub dfs_restarts: u64,
}

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Base seed; combined with the run index for per-run tail RNGs.
    pub seed: u64,
    /// Number of schedules to run.
    pub schedules: u64,
    /// DFS systematically backtracks over the first this-many decision
    /// points; later decisions come from the per-run tail RNG.
    pub dfs_depth: usize,
    /// Yield-point budget per schedule before declaring livelock.
    pub max_steps: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            seed: 0,
            schedules: 256,
            dfs_depth: 24,
            max_steps: 1 << 20,
        }
    }
}

/// What a blocked task is waiting for (used for targeted wakeups and
/// deadlock diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitKind {
    /// Waiting for a message or disconnect on channel `id`.
    Recv(usize),
    /// Waiting for queue space or disconnect on channel `id`.
    Send(usize),
    /// Waiting for a set of tasks to finish (scope teardown).
    Join,
}

#[derive(Debug, Clone, Copy)]
enum TaskStatus {
    /// Eligible to be scheduled.
    Runnable,
    /// Blocked on `kind`, optionally until virtual `deadline`.
    Blocked {
        kind: WaitKind,
        deadline: Option<u64>,
    },
    /// Spin-parked in `Backoff::snooze`; woken by any progress or by a
    /// quiescent clock tick.
    Spin,
    Finished,
}

struct Task {
    status: TaskStatus,
    /// Set when this task's `Blocked` deadline fired; consumed by
    /// `recv_timeout` to return `Timeout`.
    timed_out: bool,
}

struct Sched {
    tasks: Vec<Task>,
    /// The one task allowed to run. Invariant: all other live tasks are
    /// parked on the session condvar (or about to be).
    active: usize,
    /// Virtual clock in milliseconds; advances only at quiescence.
    clock: u64,
    steps: u64,
    max_steps: u64,
    /// Scheduling decision points taken so far this run (arity > 1 only).
    decisions: u64,
    /// DFS prefix: forced choices for the first decision points.
    prefix: Vec<(u32, u32)>,
    /// Choices actually taken within the first `dfs_depth` decision
    /// points, with their arities — the raw material for backtracking.
    observed: Vec<(u32, u32)>,
    dfs_depth: usize,
    /// splitmix64 state for decisions past the prefix.
    rng: u64,
    violation: Option<Violation>,
    next_chan: usize,
}

/// One model-checked run: scheduler state + wakeup condvar.
pub(crate) struct Session {
    m: Mutex<Sched>,
    cv: Condvar,
}

/// `true` while a hand-off found no runnable task and no way to make one.
struct DeadEnd;

impl Session {
    fn new(cfg: &ModelConfig, prefix: Vec<(u32, u32)>, tail_seed: u64) -> Session {
        Session {
            m: Mutex::new(Sched {
                tasks: vec![Task {
                    status: TaskStatus::Runnable,
                    timed_out: false,
                }],
                active: 0,
                clock: 0,
                steps: 0,
                max_steps: cfg.max_steps,
                decisions: 0,
                prefix,
                observed: Vec::new(),
                dfs_depth: cfg.dfs_depth,
                rng: tail_seed,
                violation: None,
                next_chan: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Locks the scheduler, tolerating mutex poisoning: a task that
    /// panicked while never holding this lock still poisons it on some
    /// platforms' unwind paths, and bookkeeping must continue.
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.m.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn abort(st: MutexGuard<'_, Sched>) -> ! {
        drop(st);
        panic::resume_unwind(Box::new(ModelAbort));
    }

    pub(crate) fn next_chan_id(&self) -> usize {
        let mut st = self.lock();
        let id = st.next_chan;
        st.next_chan += 1;
        id
    }

    /// Picks the next task among runnables, recording a decision point
    /// when there is a real choice. `None` when nothing is runnable.
    fn choose(st: &mut Sched) -> Option<usize> {
        let runnable: Vec<usize> = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, TaskStatus::Runnable))
            .map(|(i, _)| i)
            .collect();
        match runnable.len() {
            0 => None,
            1 => Some(runnable[0]),
            n => {
                let arity = n as u32;
                let d = st.decisions as usize;
                st.decisions += 1;
                let pick = if d < st.prefix.len() {
                    st.prefix[d].0.min(arity - 1)
                } else {
                    (splitmix64(&mut st.rng) % u64::from(arity)) as u32
                };
                if d < st.dfs_depth {
                    st.observed.push((pick, arity));
                }
                Some(runnable[pick as usize])
            }
        }
    }

    /// Poisons the schedule, wakes everyone, and leaves `st.violation`
    /// set so every task aborts at its next scheduler interaction.
    fn poison(&self, st: &mut Sched, v: Violation) {
        if st.violation.is_none() {
            st.violation = Some(v);
        }
        self.cv.notify_all();
    }

    /// Advances virtual time at quiescence. Returns `Err(DeadEnd)` when
    /// nothing is spinning and no deadline exists — a true deadlock.
    fn quiesce(st: &mut Sched) -> Result<(), DeadEnd> {
        let spinning = st
            .tasks
            .iter()
            .any(|t| matches!(t.status, TaskStatus::Spin));
        if spinning {
            // One logical tick: give every spin-parked poller another
            // look (NACK pacing counters advance this way) and let any
            // now-expired deadline fire alongside.
            st.clock += 1;
            for t in &mut st.tasks {
                if matches!(t.status, TaskStatus::Spin) {
                    t.status = TaskStatus::Runnable;
                }
            }
        } else {
            let earliest = st
                .tasks
                .iter()
                .filter_map(|t| match t.status {
                    TaskStatus::Blocked {
                        deadline: Some(d), ..
                    } => Some(d),
                    _ => None,
                })
                .min();
            match earliest {
                Some(d) => st.clock = st.clock.max(d),
                None => return Err(DeadEnd),
            }
        }
        let now = st.clock;
        for t in &mut st.tasks {
            if let TaskStatus::Blocked {
                deadline: Some(d), ..
            } = t.status
            {
                if d <= now {
                    t.status = TaskStatus::Runnable;
                    t.timed_out = true;
                }
            }
        }
        Ok(())
    }

    fn deadlock_report(st: &Sched) -> Violation {
        let tasks = st
            .tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.status {
                TaskStatus::Blocked { kind, deadline } => {
                    let what = match kind {
                        WaitKind::Recv(c) => format!("recv on channel {c}"),
                        WaitKind::Send(c) => format!("send on channel {c} (full)"),
                        WaitKind::Join => "join of scoped tasks".to_string(),
                    };
                    let dl = match deadline {
                        Some(d) => format!(" (deadline tick {d})"),
                        None => String::new(),
                    };
                    Some(format!("task {i}: blocked on {what}{dl}"))
                }
                _ => None,
            })
            .collect();
        Violation::Deadlock { tasks }
    }

    /// Hands the active slot to the next runnable task, advancing
    /// virtual time if needed. Does not wait.
    fn hand_off(&self, st: &mut Sched) -> Result<(), DeadEnd> {
        loop {
            if let Some(next) = Self::choose(st) {
                st.active = next;
                self.cv.notify_all();
                return Ok(());
            }
            if st
                .tasks
                .iter()
                .all(|t| matches!(t.status, TaskStatus::Finished))
            {
                // Everyone done: nothing to schedule, nothing to wake.
                return Ok(());
            }
            Self::quiesce(st)?;
        }
    }

    /// Parks the calling task until it is the active task again. Aborts
    /// on poison.
    fn wait_until_active(&self, mut st: MutexGuard<'_, Sched>, me: usize) {
        loop {
            if st.violation.is_some() {
                Self::abort(st);
            }
            if st.active == me && matches!(st.tasks[me].status, TaskStatus::Runnable) {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A yield point for the (runnable) active task: counts a step,
    /// possibly switches to another runnable task, returns when the
    /// caller is active again.
    fn op_yield(&self) {
        let mut st = self.lock();
        if st.violation.is_some() {
            Self::abort(st);
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let v = Violation::StepLimit { steps: st.steps };
            self.poison(&mut st, v);
            Self::abort(st);
        }
        let me = st.active;
        // `choose` always succeeds here: the caller itself is runnable.
        if let Some(next) = Self::choose(&mut st) {
            if next != me {
                st.active = next;
                self.cv.notify_all();
                self.wait_until_active(st, me);
            }
        }
    }

    /// Called with the caller's status already set to `Blocked`/`Spin`:
    /// hands off to another task (or declares deadlock) and parks until
    /// the caller is woken *and* scheduled.
    fn reschedule(&self, mut st: MutexGuard<'_, Sched>, me: usize) {
        if st.violation.is_some() {
            Self::abort(st);
        }
        if self.hand_off(&mut st).is_err() {
            let v = Self::deadlock_report(&st);
            self.poison(&mut st, v);
            Self::abort(st);
        }
        self.wait_until_active(st, me);
    }

    /// `Backoff::snooze` in model mode: park until any global progress
    /// (message moved, disconnect) or a quiescent clock tick.
    pub(crate) fn spin_park(&self) {
        let mut st = self.lock();
        if st.violation.is_some() {
            Self::abort(st);
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let v = Violation::StepLimit { steps: st.steps };
            self.poison(&mut st, v);
            Self::abort(st);
        }
        let me = st.active;
        st.tasks[me].status = TaskStatus::Spin;
        self.reschedule(st, me);
    }

    /// Records progress: wakes every spin-parked task plus every task
    /// blocked on `kind`. Callers hold the lock; no yield happens here.
    fn progress(st: &mut Sched, kind: WaitKind) {
        for t in &mut st.tasks {
            match t.status {
                TaskStatus::Spin => t.status = TaskStatus::Runnable,
                TaskStatus::Blocked { kind: k, .. } if k == kind => {
                    t.status = TaskStatus::Runnable;
                }
                _ => {}
            }
        }
    }

    /// Registers a new task (spawned by the currently-active task).
    pub(crate) fn register_task(&self) -> usize {
        let mut st = self.lock();
        st.tasks.push(Task {
            status: TaskStatus::Runnable,
            timed_out: false,
        });
        st.tasks.len() - 1
    }

    /// A freshly-spawned task parks here until first scheduled.
    pub(crate) fn first_wait(&self, id: usize) {
        let st = self.lock();
        self.wait_until_active(st, id);
    }

    /// Marks `id` finished and hands off. Never unwinds: this runs in
    /// task wrappers after `catch_unwind`, including during poison.
    pub(crate) fn finish_task(&self, id: usize) {
        let mut st = self.lock();
        st.tasks[id].status = TaskStatus::Finished;
        Self::progress(&mut st, WaitKind::Join);
        if st.violation.is_some() {
            self.cv.notify_all();
            return;
        }
        if st.active == id && self.hand_off(&mut st).is_err() {
            let v = Self::deadlock_report(&st);
            self.poison(&mut st, v);
        }
    }

    /// Blocks the caller until every task in `ids` has finished. Used
    /// by the scope guard before std's native join. Returns (instead of
    /// unwinding) on poison: the guard may run during unwinding, and
    /// the native join below it completes because every task exits.
    pub(crate) fn await_tasks(&self, ids: &[usize]) {
        loop {
            let mut st = self.lock();
            if st.violation.is_some() {
                return;
            }
            if ids
                .iter()
                .all(|&i| matches!(st.tasks[i].status, TaskStatus::Finished))
            {
                return;
            }
            let me = st.active;
            st.tasks[me].status = TaskStatus::Blocked {
                kind: WaitKind::Join,
                deadline: None,
            };
            self.reschedule(st, me);
        }
    }
}

// ---------------------------------------------------------------------
// Model-mode channels
// ---------------------------------------------------------------------

struct Inner<T> {
    q: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

/// A model-checked bounded channel. All operations take the session
/// lock first, then the (uncontended) channel lock; the channel lock is
/// never held across a park.
pub(crate) struct MChan<T> {
    id: usize,
    cap: usize,
    sess: Arc<Session>,
    inner: Mutex<Inner<T>>,
}

impl<T> MChan<T> {
    fn inner(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub(crate) struct ModelSender<T>(Arc<MChan<T>>);

pub(crate) struct ModelReceiver<T>(Arc<MChan<T>>);

pub(crate) fn model_bounded<T>(
    sess: Arc<Session>,
    cap: usize,
) -> (ModelSender<T>, ModelReceiver<T>) {
    assert!(
        cap > 0,
        "model-mode channels do not support rendezvous (capacity 0)"
    );
    let id = sess.next_chan_id();
    let chan = Arc::new(MChan {
        id,
        cap,
        sess,
        inner: Mutex::new(Inner {
            q: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
    });
    (ModelSender(chan.clone()), ModelReceiver(chan))
}

impl<T> Clone for ModelSender<T> {
    fn clone(&self) -> Self {
        let _st = self.0.sess.lock();
        self.0.inner().senders += 1;
        ModelSender(self.0.clone())
    }
}

impl<T> Drop for ModelSender<T> {
    fn drop(&mut self) {
        // Pure bookkeeping — never yields, never unwinds: drops run
        // during poison unwinding too.
        let mut st = self.0.sess.lock();
        let mut inner = self.0.inner();
        inner.senders -= 1;
        if inner.senders == 0 {
            Session::progress(&mut st, WaitKind::Recv(self.0.id));
            self.0.sess.cv.notify_all();
        }
    }
}

impl<T> Drop for ModelReceiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.sess.lock();
        let mut inner = self.0.inner();
        inner.receivers -= 1;
        if inner.receivers == 0 {
            Session::progress(&mut st, WaitKind::Send(self.0.id));
            self.0.sess.cv.notify_all();
        }
    }
}

impl<T> ModelSender<T> {
    pub(crate) fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let c = &self.0;
        c.sess.op_yield();
        let mut slot = Some(msg);
        loop {
            let mut st = c.sess.lock();
            if st.violation.is_some() {
                Session::abort(st);
            }
            let mut inner = c.inner();
            if inner.receivers == 0 {
                return Err(SendError(slot.take().unwrap_or_else(|| unreachable!())));
            }
            if inner.q.len() < c.cap {
                inner
                    .q
                    .push_back(slot.take().unwrap_or_else(|| unreachable!()));
                drop(inner);
                Session::progress(&mut st, WaitKind::Recv(c.id));
                c.sess.cv.notify_all();
                return Ok(());
            }
            drop(inner);
            let me = st.active;
            st.tasks[me].status = TaskStatus::Blocked {
                kind: WaitKind::Send(c.id),
                deadline: None,
            };
            c.sess.reschedule(st, me);
        }
    }

    pub(crate) fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let c = &self.0;
        c.sess.op_yield();
        let mut st = c.sess.lock();
        if st.violation.is_some() {
            Session::abort(st);
        }
        let mut inner = c.inner();
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        if inner.q.len() < c.cap {
            inner.q.push_back(msg);
            drop(inner);
            Session::progress(&mut st, WaitKind::Recv(c.id));
            c.sess.cv.notify_all();
            Ok(())
        } else {
            Err(TrySendError::Full(msg))
        }
    }
}

impl<T> ModelReceiver<T> {
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        match self.recv_deadline(None) {
            Ok(v) => Ok(v),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError),
            // No deadline was armed, so Timeout is impossible.
            Err(RecvTimeoutError::Timeout) => unreachable!(),
        }
    }

    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        let c = &self.0;
        c.sess.op_yield();
        let mut st = c.sess.lock();
        if st.violation.is_some() {
            Session::abort(st);
        }
        let mut inner = c.inner();
        if let Some(v) = inner.q.pop_front() {
            drop(inner);
            Session::progress(&mut st, WaitKind::Send(c.id));
            c.sess.cv.notify_all();
            Ok(v)
        } else if inner.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        // Virtual-time deadline: computed once at entry, in ticks.
        let ms = (timeout.as_millis() as u64).max(1);
        self.recv_deadline(Some(ms))
    }

    fn recv_deadline(&self, after_ms: Option<u64>) -> Result<T, RecvTimeoutError> {
        let c = &self.0;
        c.sess.op_yield();
        let mut deadline: Option<u64> = None;
        loop {
            let mut st = c.sess.lock();
            if st.violation.is_some() {
                Session::abort(st);
            }
            if let (Some(ms), None) = (after_ms, deadline) {
                deadline = Some(st.clock + ms);
            }
            let me = st.active;
            let mut inner = c.inner();
            if let Some(v) = inner.q.pop_front() {
                drop(inner);
                st.tasks[me].timed_out = false;
                Session::progress(&mut st, WaitKind::Send(c.id));
                c.sess.cv.notify_all();
                return Ok(v);
            }
            if inner.senders == 0 {
                st.tasks[me].timed_out = false;
                return Err(RecvTimeoutError::Disconnected);
            }
            drop(inner);
            if st.tasks[me].timed_out {
                st.tasks[me].timed_out = false;
                return Err(RecvTimeoutError::Timeout);
            }
            st.tasks[me].status = TaskStatus::Blocked {
                kind: WaitKind::Recv(c.id),
                deadline,
            };
            c.sess.reschedule(st, me);
        }
    }
}

// ---------------------------------------------------------------------
// Scope integration
// ---------------------------------------------------------------------

/// Tracks the model tasks spawned under one `thread::scope` call so the
/// scope can drain them through the scheduler *before* std's native
/// join (which would otherwise block outside scheduler control).
pub(crate) struct ScopeTracker {
    pub(crate) sess: Arc<Session>,
    ids: Mutex<Vec<usize>>,
}

impl ScopeTracker {
    pub(crate) fn new(sess: Arc<Session>) -> ScopeTracker {
        ScopeTracker {
            sess,
            ids: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn add(&self, id: usize) {
        self.ids.lock().unwrap_or_else(|e| e.into_inner()).push(id);
    }

    /// Blocks (cooperatively) until every tracked task finished.
    pub(crate) fn drain(&self) {
        let ids = self.ids.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if !ids.is_empty() {
            self.sess.await_tasks(&ids);
        }
    }
}

/// Runs the body of a spawned model task: installs the session on the
/// OS thread, parks until first scheduled, runs `f`, marks the task
/// finished, and re-raises non-model panics so std's scope sees them.
pub(crate) fn run_task<T>(sess: Arc<Session>, id: usize, f: impl FnOnce() -> T) -> T {
    set_current(Some(sess.clone()));
    let _tl = TlGuard;
    sess.first_wait(id);
    let r = panic::catch_unwind(AssertUnwindSafe(f));
    sess.finish_task(id);
    match r {
        Ok(v) => v,
        Err(p) => panic::resume_unwind(p),
    }
}

// ---------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

enum RunOutcome {
    Ok,
    Violated(Violation),
}

/// Executes `f` once under a fresh session with the given DFS prefix
/// and tail seed. Returns the outcome plus the observed decision trace
/// (for backtracking) and the total decision count.
fn run_one<F>(
    cfg: &ModelConfig,
    prefix: &[(u32, u32)],
    tail_seed: u64,
    f: &F,
) -> (RunOutcome, Vec<(u32, u32)>, u64)
where
    F: Fn() -> Result<(), String> + Sync,
{
    let sess = Arc::new(Session::new(cfg, prefix.to_vec(), tail_seed));
    let sess2 = sess.clone();
    let body: std::thread::Result<Result<(), String>> = std::thread::scope(|s| {
        let h = s.spawn(move || {
            set_current(Some(sess2.clone()));
            let _tl = TlGuard;
            let r = panic::catch_unwind(AssertUnwindSafe(f));
            sess2.finish_task(0);
            r
        });
        h.join().unwrap_or_else(|_| {
            // The wrapper itself cannot panic (everything is caught),
            // but stay defensive rather than take down the explorer.
            Err(Box::new("model task-0 wrapper panicked".to_string()))
        })
    });
    let st = sess.lock();
    let observed = st.observed.clone();
    let decisions = st.decisions;
    let violation = st.violation.clone();
    drop(st);
    let outcome = if let Some(v) = violation {
        RunOutcome::Violated(v)
    } else {
        match body {
            Err(p) => RunOutcome::Violated(Violation::Panic {
                message: panic_message(p.as_ref()),
            }),
            Ok(Err(msg)) => RunOutcome::Violated(Violation::Check { message: msg }),
            Ok(Ok(())) => RunOutcome::Ok,
        }
    };
    (outcome, observed, decisions)
}

/// Classic DFS backtrack: increments the last incrementable choice of
/// the observed trace; returns `None` when the bounded space is spent.
fn next_prefix(observed: &[(u32, u32)]) -> Option<Vec<(u32, u32)>> {
    let mut p: Vec<(u32, u32)> = observed.to_vec();
    while let Some(&(choice, arity)) = p.last() {
        if choice + 1 < arity {
            let last = p.len() - 1;
            p[last] = (choice + 1, arity);
            return Some(p);
        }
        p.pop();
    }
    None
}

fn tail_seed_for(seed: u64, index: u64) -> u64 {
    let mut s = seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix64(&mut s)
}

/// Runs `f` under `cfg.schedules` distinct schedules. The first
/// portion of each schedule is driven by DFS backtracking over the
/// first `dfs_depth` decision points; the rest by a per-run seeded RNG.
/// Returns the first failing schedule (with its replay handle), or a
/// summary report when every schedule passes.
///
/// `f` must be deterministic apart from scheduling: same decisions in,
/// same behaviour out. It runs once per schedule on a fresh task 0 and
/// may spawn threads and create channels through the shim as usual.
pub fn explore<F>(cfg: &ModelConfig, f: F) -> Result<Report, Box<Failure>>
where
    F: Fn() -> Result<(), String> + Sync,
{
    assert!(
        current().is_none(),
        "explore() cannot be nested inside a model session"
    );
    let mut report = Report::default();
    let mut prefix: Vec<(u32, u32)> = Vec::new();
    for index in 0..cfg.schedules {
        let (outcome, observed, decisions) =
            run_one(cfg, &prefix, tail_seed_for(cfg.seed, index), &f);
        report.schedules += 1;
        report.max_decision_points = report.max_decision_points.max(decisions);
        if let RunOutcome::Violated(violation) = outcome {
            return Err(Box::new(Failure {
                schedule: ScheduleId {
                    seed: cfg.seed,
                    index,
                },
                violation,
            }));
        }
        match next_prefix(&observed) {
            Some(p) => prefix = p,
            None => {
                // Bounded DFS exhausted: restart from the root. The
                // per-index tail seeds keep later runs distinct.
                report.dfs_restarts += 1;
                prefix = Vec::new();
            }
        }
    }
    Ok(report)
}

/// Replays the single schedule identified by `id` (as printed in a
/// [`Failure`]). Internally re-runs the DFS from run 0 to rebuild the
/// exact prefix — exploration is deterministic, so run `index` is
/// bit-identical to the original. Returns `Ok` if the schedule now
/// passes, or the (re-)failure.
pub fn replay<F>(cfg: &ModelConfig, id: ScheduleId, f: F) -> Result<Report, Box<Failure>>
where
    F: Fn() -> Result<(), String> + Sync,
{
    let cfg = ModelConfig {
        seed: id.seed,
        schedules: id.index + 1,
        ..*cfg
    };
    explore(&cfg, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;
    use crate::thread as cthread;

    fn quick(schedules: u64) -> ModelConfig {
        ModelConfig {
            seed: 7,
            schedules,
            dfs_depth: 12,
            max_steps: 100_000,
        }
    }

    #[test]
    fn explores_simple_pingpong_without_violations() {
        let report = explore(&quick(64), || {
            let (tx, rx) = channel::bounded::<u32>(1);
            let (btx, brx) = channel::bounded::<u32>(1);
            cthread::scope(|s| {
                s.spawn(move |_| {
                    for i in 0..3 {
                        tx.send(i).unwrap();
                        assert_eq!(brx.recv().unwrap(), i * 10);
                    }
                });
                for i in 0..3 {
                    assert_eq!(rx.recv().unwrap(), i);
                    btx.send(i * 10).unwrap();
                }
            })
            .unwrap();
            Ok(())
        })
        .expect("pingpong deadlock-free");
        assert_eq!(report.schedules, 64);
        assert!(report.max_decision_points > 0);
    }

    #[test]
    fn joining_a_running_task_lets_it_finish_first() {
        // The parent joins while the child still has channel work to
        // do: the join must hand the child the schedule, not block the
        // OS thread of the only runnable task.
        explore(&quick(64), || {
            let (tx, rx) = channel::bounded::<u32>(3);
            cthread::scope(|s| {
                let child = s.spawn(move |_| (0..3).filter(|&i| tx.send(i).is_ok()).count());
                assert_eq!(rx.recv(), Ok(0));
                assert_eq!(child.join().ok(), Some(3));
            })
            .unwrap();
            Ok(())
        })
        .expect("a joined task runs to completion");
    }

    #[test]
    fn detects_a_classic_cyclic_deadlock() {
        // Two tasks each fill a cap-1 channel then send again: whenever
        // both first sends land before either recv, both block forever.
        let failure = explore(&quick(512), || {
            let (tx_a, rx_a) = channel::bounded::<u8>(1);
            let (tx_b, rx_b) = channel::bounded::<u8>(1);
            cthread::scope(|s| {
                s.spawn(move |_| {
                    tx_a.send(1).unwrap();
                    tx_a.send(2).unwrap();
                    let _ = rx_b.recv();
                });
                tx_b.send(1).unwrap();
                tx_b.send(2).unwrap();
                let _ = rx_a.recv();
            })
            .unwrap();
            Ok(())
        })
        .expect_err("the cyclic schedule must be found");
        assert!(
            matches!(failure.violation, Violation::Deadlock { .. }),
            "expected deadlock, got {}",
            failure.violation
        );
    }

    #[test]
    fn failing_schedule_replays_deterministically() {
        let run = || {
            let (tx, rx) = channel::bounded::<u8>(1);
            let (tx2, rx2) = channel::bounded::<u8>(1);
            cthread::scope(|s| {
                s.spawn(move |_| {
                    // Racy: only loses when scheduled after main's recv
                    // deadline... simulated via an order-dependent check.
                    tx.send(1).unwrap();
                    let _ = rx2.recv();
                });
                // Nondeterministic observation: try_recv may or may not
                // see the message depending on the schedule.
                let seen = rx.try_recv().is_ok();
                tx2.send(0).unwrap();
                if !seen {
                    let _ = rx.recv();
                    return Err("observed empty before send".to_string());
                }
                Ok(())
            })
            .unwrap()
        };
        let failure = explore(&quick(256), run).expect_err("some schedule observes empty");
        let replayed = replay(&quick(256), failure.schedule, run)
            .expect_err("replay reproduces the violation");
        assert_eq!(replayed.schedule, failure.schedule);
        assert_eq!(replayed.violation, failure.violation);
    }

    #[test]
    fn virtual_recv_timeout_only_fires_when_no_sender_can_act() {
        // A healthy sender exists on every schedule: the timeout must
        // never fire, no matter the interleaving.
        let report = explore(&quick(128), || {
            let (tx, rx) = channel::bounded::<u8>(1);
            cthread::scope(|s| {
                s.spawn(move |_| {
                    tx.send(42).unwrap();
                });
                match rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(42) => Ok(()),
                    other => Err(format!("expected Ok(42), got {other:?}")),
                }
            })
            .unwrap()
        })
        .expect("no spurious timeouts");
        assert_eq!(report.schedules, 128);

        // No sender ever sends: the timeout must fire (deterministically
        // from schedule state) rather than deadlock.
        explore(&quick(16), || {
            let (tx, rx) = channel::bounded::<u8>(1);
            let got = rx.recv_timeout(Duration::from_millis(5));
            drop(tx);
            match got {
                Err(channel::RecvTimeoutError::Timeout) => Ok(()),
                other => Err(format!("expected Timeout, got {other:?}")),
            }
        })
        .expect("timeout path is not a violation");
    }

    #[test]
    fn step_limit_catches_livelock() {
        let failure = explore(
            &ModelConfig {
                max_steps: 500,
                ..quick(4)
            },
            || {
                let (_tx, rx) = channel::bounded::<u8>(1);
                let backoff = crate::utils::Backoff::new();
                loop {
                    if rx.try_recv().is_ok() {
                        return Ok(());
                    }
                    backoff.snooze();
                }
            },
        )
        .expect_err("spinning forever must hit the step limit");
        assert!(matches!(failure.violation, Violation::StepLimit { .. }));
    }

    #[test]
    fn schedule_id_roundtrips_through_display() {
        let id = ScheduleId {
            seed: 123,
            index: 456,
        };
        assert_eq!(ScheduleId::parse(&id.to_string()), Some(id));
        assert_eq!(ScheduleId::parse("nope"), None);
        assert_eq!(ScheduleId::parse("1:2:3"), None);
    }
}
