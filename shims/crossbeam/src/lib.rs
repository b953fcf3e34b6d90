//! Offline shim for the `crossbeam` subset this workspace uses:
//! `channel::{bounded, Sender, Receiver}`, `thread::scope`, and
//! `utils::Backoff`, built on `std::sync::mpsc` and
//! `std::thread::scope` — plus `thread::available_parallelism`, which
//! crossbeam does not have, so the pool size is model-aware too.
//!
//! The shim has a second personality: when a [`model`] session is
//! active on the calling thread (installed by [`model::explore`] /
//! [`model::replay`]), every channel and every scoped thread routes
//! through a cooperative model-checking scheduler instead of the OS.
//! Code under test needs no changes — `km-check` runs the distributed
//! engine under thousands of schedules through exactly this switch.

pub mod model;

pub mod channel {
    //! Bounded MPSC channels (crossbeam-channel API subset).

    use crate::model;
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

    enum SenderImpl<T> {
        Real(mpsc::SyncSender<T>),
        Model(model::ModelSender<T>),
    }

    /// The sending half of a bounded channel.
    pub struct Sender<T>(SenderImpl<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(match &self.0 {
                SenderImpl::Real(tx) => SenderImpl::Real(tx.clone()),
                SenderImpl::Model(tx) => SenderImpl::Model(tx.clone()),
            })
        }
    }

    impl<T> Sender<T> {
        /// Blocks until the message is queued or the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            match &self.0 {
                SenderImpl::Real(tx) => tx.send(msg),
                SenderImpl::Model(tx) => tx.send(msg),
            }
        }

        /// Non-blocking send: `Err(TrySendError::Full)` when the channel
        /// is at capacity (the caller gets the message back).
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            match &self.0 {
                SenderImpl::Real(tx) => tx.try_send(msg),
                SenderImpl::Model(tx) => tx.try_send(msg),
            }
        }
    }

    enum ReceiverImpl<T> {
        Real(mpsc::Receiver<T>),
        Model(model::ModelReceiver<T>),
    }

    /// The receiving half of a bounded channel.
    pub struct Receiver<T>(ReceiverImpl<T>);

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            match &self.0 {
                ReceiverImpl::Real(rx) => rx.recv(),
                ReceiverImpl::Model(rx) => rx.recv(),
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, mpsc::TryRecvError> {
            match &self.0 {
                ReceiverImpl::Real(rx) => rx.try_recv(),
                ReceiverImpl::Model(rx) => rx.try_recv(),
            }
        }

        /// Blocks until a message arrives, all senders are gone, or
        /// `timeout` elapses — the primitive behind the distributed
        /// engine's round-barrier timeout. Under a model session the
        /// timeout is measured on the virtual clock and fires only when
        /// no schedule can deliver first.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            match &self.0 {
                ReceiverImpl::Real(rx) => rx.recv_timeout(timeout),
                ReceiverImpl::Model(rx) => rx.recv_timeout(timeout),
            }
        }
    }

    /// Creates a channel holding at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        match model::current() {
            None => {
                let (tx, rx) = mpsc::sync_channel(cap);
                (
                    Sender(SenderImpl::Real(tx)),
                    Receiver(ReceiverImpl::Real(rx)),
                )
            }
            Some(sess) => {
                let (tx, rx) = model::model_bounded(sess, cap);
                (
                    Sender(SenderImpl::Model(tx)),
                    Receiver(ReceiverImpl::Model(rx)),
                )
            }
        }
    }
}

pub mod thread {
    //! Scoped threads (crossbeam-utils API subset).
    //!
    //! Like crossbeam, and unlike a bare [`std::thread::scope`], every
    //! thread is joined *natively* before [`scope`] returns: std's scope
    //! returns once each closure has finished, while the OS thread may
    //! still be tearing down — its thread-local destructors, and the
    //! allocator returning its per-thread arena. A caller that spawns a
    //! fresh pool per call would race that teardown, and how many
    //! allocator arenas the process grows (so its resident memory) would
    //! depend on the race. A handle dropped unjoined is handed to its
    //! scope, which joins it on the way out.

    use crate::model;
    use std::any::Any;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// Native joins a scope still owes: one per handle dropped unjoined.
    /// Each returns whether its thread panicked.
    type Owed<'scope> = Arc<Mutex<Vec<Box<dyn FnOnce() -> bool + Send + 'scope>>>>;

    fn lock<'a, 'scope>(
        owed: &'a Owed<'scope>,
    ) -> MutexGuard<'a, Vec<Box<dyn FnOnce() -> bool + Send + 'scope>>> {
        owed.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A scope handed to [`scope`]'s closure; spawned threads may borrow
    /// from the enclosing stack frame and are joined before `scope`
    /// returns.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        tracker: Option<Arc<model::ScopeTracker>>,
        owed: Owed<'scope>,
    }

    /// Handle to a scoped thread; joined automatically at scope exit.
    pub struct ScopedJoinHandle<'scope, T: Send + 'scope> {
        /// `None` once joined.
        inner: Option<std::thread::ScopedJoinHandle<'scope, T>>,
        owed: Owed<'scope>,
        /// The model session and task id of a model-mode thread.
        task: Option<(Arc<model::Session>, usize)>,
    }

    impl<T: Send> ScopedJoinHandle<'_, T> {
        /// Waits for the thread to finish, returning its result (or the
        /// panic payload). A model-mode thread is first awaited through
        /// the scheduler, which keeps running the other tasks meanwhile,
        /// so by the time the OS join starts the task has retired.
        pub fn join(mut self) -> std::thread::Result<T> {
            if let Some((sess, id)) = self.task.take() {
                sess.await_tasks(&[id]);
            }
            match self.inner.take() {
                Some(handle) => handle.join(),
                None => unreachable!("a handle is joined at most once"),
            }
        }
    }

    impl<T: Send> Drop for ScopedJoinHandle<'_, T> {
        fn drop(&mut self) {
            if let Some(handle) = self.inner.take() {
                lock(&self.owed).push(Box::new(move || handle.join().is_err()));
            }
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. The closure receives the scope (so it
        /// can spawn further threads), matching crossbeam's signature.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            let owed = self.owed.clone();
            let (handle, task) = match &self.tracker {
                None => (
                    self.inner.spawn(move || {
                        f(&Scope {
                            inner,
                            tracker: None,
                            owed,
                        })
                    }),
                    None,
                ),
                Some(tracker) => {
                    // Register the task while the parent is still the
                    // active task, so ids are schedule-deterministic.
                    let id = tracker.sess.register_task();
                    tracker.add(id);
                    let sess = tracker.sess.clone();
                    let tracker2 = tracker.clone();
                    let handle = self.inner.spawn(move || {
                        model::run_task(sess, id, move || {
                            f(&Scope {
                                inner,
                                tracker: Some(tracker2),
                                owed,
                            })
                        })
                    });
                    (handle, Some((tracker.sess.clone(), id)))
                }
            };
            ScopedJoinHandle {
                inner: Some(handle),
                owed: self.owed.clone(),
                task,
            }
        }

        /// Joins every thread whose handle was dropped unjoined — also
        /// those dropped while this runs — and panics, as std's scope
        /// would, if one of them panicked.
        fn join_owed(&self) {
            let mut panicked = false;
            loop {
                let owed = std::mem::take(&mut *lock(&self.owed));
                if owed.is_empty() {
                    break;
                }
                for join in owed {
                    panicked |= join();
                }
            }
            if panicked {
                panic!("a scoped thread panicked");
            }
        }
    }

    /// Runs `f` with a thread scope; every spawned thread is joined
    /// natively before this returns. Unlike crossbeam, a panicking child
    /// makes the whole call panic (std semantics), so the `Err` arm is
    /// never produced — callers that `.expect()` the result behave
    /// identically either way.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        match model::current() {
            None => Ok(std::thread::scope(|s| {
                let scope = Scope {
                    inner: s,
                    tracker: None,
                    owed: Owed::default(),
                };
                let r = f(&scope);
                scope.join_owed();
                r
            })),
            Some(sess) => Ok(std::thread::scope(|s| {
                let tracker = Arc::new(model::ScopeTracker::new(sess));
                // Drain runs after `f` returns (or unwinds) but before
                // the native joins: every model task is retired through
                // the scheduler first, so an OS join never blocks on a
                // task the scheduler hasn't scheduled.
                let drain = DrainGuard(tracker.clone());
                let scope = Scope {
                    inner: s,
                    tracker: Some(tracker),
                    owed: Owed::default(),
                };
                let r = f(&scope);
                drop(drain);
                scope.join_owed();
                r
            })),
        }
    }

    /// Threads a worker pool should run: std's
    /// [`std::thread::available_parallelism`] (1 if it cannot tell), or
    /// a fixed 2 under a model session — so a schedule explored there,
    /// and the replay handle that names it, never depend on the host's
    /// core count.
    pub fn available_parallelism() -> usize {
        match model::current() {
            Some(_) => 2,
            None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    struct DrainGuard(Arc<model::ScopeTracker>);

    impl Drop for DrainGuard {
        fn drop(&mut self) {
            self.0.drain();
        }
    }
}

pub mod utils {
    //! Spin-wait helper (crossbeam-utils API subset).

    use crate::model;

    /// Backoff for spin loops. In real mode `snooze` yields the OS
    /// thread; under a model session it parks the task until any other
    /// task makes progress or the virtual clock ticks at quiescence —
    /// which is what lets poll loops coexist with deterministic
    /// virtual-time timeouts.
    #[derive(Debug, Default)]
    pub struct Backoff {
        _private: (),
    }

    impl Backoff {
        pub fn new() -> Backoff {
            Backoff { _private: () }
        }

        /// Yields to other threads (real mode) or to the model
        /// scheduler (model mode).
        pub fn snooze(&self) {
            match model::current() {
                None => std::thread::yield_now(),
                Some(sess) => sess.spin_park(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_roundtrip() {
        let (tx, rx) = super::channel::bounded::<u32>(1);
        tx.send(5).unwrap();
        assert_eq!(rx.recv().unwrap(), 5);
    }

    #[test]
    fn recv_timeout_times_out_and_recovers() {
        use super::channel::RecvTimeoutError;
        use std::time::Duration;
        let (tx, rx) = super::channel::bounded::<u32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn try_send_reports_full_without_losing_the_message() {
        use super::channel::TrySendError;
        let (tx, rx) = super::channel::bounded::<u32>(1);
        tx.try_send(1).unwrap();
        match tx.try_send(2) {
            Err(TrySendError::Full(v)) => assert_eq!(v, 2),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rx.recv().unwrap(), 1);
        tx.try_send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn scoped_threads_borrow_and_join() {
        let data = [1u64, 2, 3, 4];
        let total = super::thread::scope(|scope| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|chunk| scope.spawn(move |_| chunk.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
        assert_eq!(total, 10);
    }

    #[test]
    fn scope_returns_after_each_unjoined_thread_has_exited() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static TORN_DOWN: AtomicUsize = AtomicUsize::new(0);
        struct Teardown;
        impl Drop for Teardown {
            fn drop(&mut self) {
                TORN_DOWN.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static TEARDOWN: Teardown = const { Teardown };
        }
        for round in 1..=20 {
            super::thread::scope(|scope| {
                for _ in 0..2 {
                    // Handle dropped at once: the scope owes the join.
                    scope.spawn(|_| TEARDOWN.with(|_| ()));
                }
            })
            .unwrap();
            // Thread-local destructors run after the closure returns,
            // during the OS thread's exit.
            assert_eq!(TORN_DOWN.load(Ordering::SeqCst), 2 * round);
        }
    }

    #[test]
    fn a_panic_in_an_unjoined_thread_still_panics_the_scope() {
        let caught = std::panic::catch_unwind(|| {
            super::thread::scope(|scope| {
                scope.spawn(|_| panic!("child"));
            })
        });
        assert!(caught.is_err());
    }
}
