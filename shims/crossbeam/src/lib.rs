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

    use crate::model;
    use std::any::Any;
    use std::sync::Arc;

    /// A scope handed to [`scope`]'s closure; spawned threads may borrow
    /// from the enclosing stack frame and are joined before `scope`
    /// returns.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        tracker: Option<Arc<model::ScopeTracker>>,
    }

    /// Handle to a scoped thread; joined automatically at scope exit.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the thread to finish, returning its result (or the
        /// panic payload). Model-mode threads finish cooperatively, so
        /// by the time the OS join returns the scheduler has already
        /// retired the task.
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
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
            match &self.tracker {
                None => ScopedJoinHandle {
                    inner: self.inner.spawn(move || {
                        f(&Scope {
                            inner,
                            tracker: None,
                        })
                    }),
                },
                Some(tracker) => {
                    // Register the task while the parent is still the
                    // active task, so ids are schedule-deterministic.
                    let id = tracker.sess.register_task();
                    tracker.add(id);
                    let sess = tracker.sess.clone();
                    let tracker2 = tracker.clone();
                    ScopedJoinHandle {
                        inner: self.inner.spawn(move || {
                            model::run_task(sess, id, move || {
                                f(&Scope {
                                    inner,
                                    tracker: Some(tracker2),
                                })
                            })
                        }),
                    }
                }
            }
        }
    }

    /// Runs `f` with a thread scope; every spawned thread is joined
    /// before this returns. Unlike crossbeam, a panicking child makes
    /// the whole call panic (std semantics), so the `Err` arm is never
    /// produced — callers that `.expect()` the result behave
    /// identically either way.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        match model::current() {
            None => Ok(std::thread::scope(|s| {
                f(&Scope {
                    inner: s,
                    tracker: None,
                })
            })),
            Some(sess) => Ok(std::thread::scope(|s| {
                let tracker = Arc::new(model::ScopeTracker::new(sess));
                // Drain runs after `f` returns (or unwinds) but before
                // std's native join: every model task is retired through
                // the scheduler first, so the OS join never blocks on a
                // task the scheduler hasn't scheduled.
                let _drain = DrainGuard(tracker.clone());
                f(&Scope {
                    inner: s,
                    tracker: Some(tracker),
                })
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
}
