//! The thread-parallel engine (crossbeam scoped master/worker).
//!
//! Machines are partitioned into contiguous chunks, one worker thread per
//! chunk. Each round the master ships every machine its inbox, workers run
//! [`Protocol::round`] in parallel on those of their machines the
//! sparse-rounds rule (`engine::runs`, applied to the statuses and inboxes
//! each worker owns) selects, and the master merges the returned
//! outboxes *in machine order* as the compute step of the same
//! `engine::drive` loop the sequential engine runs — so transcripts,
//! metrics, and RNG streams are bit-for-bit identical to
//! [`super::SequentialEngine`].

use crate::config::NetConfig;
use crate::engine::{admit, drive, panic_message, runs, silent_exit};
use crate::error::EngineError;
use crate::message::{Envelope, Outbox};
use crate::metrics::RunReport;
use crate::protocol::{Protocol, RoundCtx, Status};
use crate::rng;
use crate::MachineIdx;
use crossbeam::channel::bounded;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One round's work for a worker: the round number and its machines'
/// inboxes, moved out of the master.
type Cmd<M> = (u64, Vec<Vec<Envelope<M>>>);

/// A worker's answer: per-machine `(staged messages, status)` in chunk
/// order (a machine the rule skipped sent nothing and is `Done`), plus
/// the (cleared) inbox buffers handed out with the command,
/// returned so the master can reuse their capacity next round instead
/// of allocating k fresh `Vec`s per round — or the typed report of the
/// machine whose `round` panicked.
type Resp<M> = Result<(Vec<(Vec<(MachineIdx, M)>, Status)>, Vec<Vec<Envelope<M>>>), EngineError>;

/// A work-stealing-free, deterministic parallel engine.
#[derive(Debug, Clone, Copy)]
pub struct ParallelEngine {
    /// Number of worker threads (capped at `k`).
    pub threads: usize,
}

impl Default for ParallelEngine {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ParallelEngine { threads }
    }
}

impl ParallelEngine {
    /// An engine using all available cores.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelEngine {
            threads: threads.max(1),
        }
    }

    /// Executes `machines` under `config`; semantics identical to
    /// [`super::SequentialEngine::run`].
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] if the config fails
    /// [`NetConfig::validate`] or `machines.len() != config.k`;
    /// [`EngineError::RoundLimitExceeded`] if the safety valve fires;
    /// [`EngineError::WorkerPanicked`] naming the machine whose
    /// [`Protocol::round`] panicked (every worker is joined first).
    pub fn run<P>(&self, config: NetConfig, machines: Vec<P>) -> Result<RunReport<P>, EngineError>
    where
        P: Protocol + Send,
        P::Msg: Send,
    {
        admit(&config, machines.len())?;
        let k = config.k;
        let workers = self.threads.min(k).max(1);
        if workers == 1 {
            return super::SequentialEngine::run(config, machines);
        }
        let chunk = k.div_ceil(workers);
        let shared = rng::shared_seed(config.seed);

        // Partition machines into contiguous chunks; `bases[w]` is chunk
        // `w`'s first machine, with `k` as the closing sentinel.
        let mut chunks: Vec<Vec<P>> = Vec::with_capacity(workers);
        let mut bases: Vec<usize> = vec![0];
        let mut rest = machines;
        while !rest.is_empty() {
            let tail = rest.split_off(chunk.min(rest.len()));
            bases.push(bases[chunks.len()] + rest.len());
            chunks.push(rest);
            rest = tail;
        }

        crossbeam::thread::scope(|scope| {
            let mut cmd_txs = Vec::with_capacity(chunks.len());
            let mut resp_rxs = Vec::with_capacity(chunks.len());
            let mut handles = Vec::with_capacity(chunks.len());

            for (w, mut local) in chunks.into_iter().enumerate() {
                let base = bases[w];
                let (cmd_tx, cmd_rx) = bounded::<Cmd<P::Msg>>(1);
                let (resp_tx, resp_rx) = bounded::<Resp<P::Msg>>(1);
                cmd_txs.push(cmd_tx);
                resp_rxs.push(resp_rx);
                handles.push(scope.spawn(move |_| {
                    let mut rngs: Vec<_> = (0..local.len())
                        .map(|j| rng::machine_rng(config.seed, base + j))
                        .collect();
                    let mut outbox = Outbox::new(k);
                    let mut last = vec![Status::Active; local.len()];
                    // The master hanging up is the stop signal.
                    while let Ok((round, mut inboxes)) = cmd_rx.recv() {
                        let mut results = Vec::with_capacity(local.len());
                        let mut failure = None;
                        for (j, inbox) in inboxes.iter_mut().enumerate() {
                            if !runs(last[j], !inbox.is_empty()) {
                                results.push((Vec::new(), Status::Done));
                                continue;
                            }
                            let mut ctx = RoundCtx {
                                round,
                                me: base + j,
                                k,
                                bandwidth_bits: config.bandwidth_bits,
                                shared_seed: shared,
                                rng: &mut rngs[j],
                            };
                            // A protocol panic becomes a typed report
                            // naming the machine, not a dead thread.
                            match catch_unwind(AssertUnwindSafe(|| {
                                local[j].round(&mut ctx, inbox, &mut outbox)
                            })) {
                                Ok(status) => {
                                    last[j] = status;
                                    inbox.clear();
                                    results.push((outbox.drain().collect(), status));
                                }
                                Err(payload) => {
                                    failure = Some(EngineError::WorkerPanicked {
                                        machine: base + j,
                                        // `&*payload`: reborrow the contents, not the Box.
                                        message: panic_message(&*payload),
                                    });
                                    break;
                                }
                            }
                        }
                        // A failed send means the master already gave
                        // up; the next `recv` then ends the loop.
                        let _ = resp_tx.send(match failure {
                            None => Ok((results, inboxes)),
                            Some(report) => Err(report),
                        });
                    }
                    local
                }));
            }

            // Workers pick their callees themselves, so `drive`'s list
            // goes unused here.
            let mut result = drive(&config, |round, _calls, inboxes, net, last| {
                // Ship inboxes (moving them out), collect outboxes in order.
                let mut inbox_iter = std::mem::take(inboxes).into_iter();
                for (w, tx) in cmd_txs.iter().enumerate() {
                    let batch = inbox_iter.by_ref().take(bases[w + 1] - bases[w]).collect();
                    tx.send((round, batch)).map_err(|_| silent_exit(bases[w]))?;
                }
                // Workers answer in worker order with contiguous machine
                // chunks, so re-extending `inboxes` with the returned
                // (cleared) buffers restores machine order.
                for (w, rx) in resp_rxs.iter().enumerate() {
                    let (results, buffers) = rx.recv().map_err(|_| silent_exit(bases[w]))??;
                    for (j, (msgs, status)) in results.into_iter().enumerate() {
                        last[bases[w] + j] = status;
                        for (dst, msg) in msgs {
                            net.stage(bases[w] + j, dst, msg);
                        }
                    }
                    inboxes.extend(buffers);
                }
                debug_assert_eq!(inboxes.len(), k);
                Ok(())
            });

            // Hang up — after success and after any failure alike — so
            // every worker falls out of its loop and hands its machines
            // back through its join handle.
            drop(cmd_txs);
            let mut machines = Vec::with_capacity(k);
            for (w, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(local) => machines.extend(local),
                    // A worker that died outside `Protocol::round`.
                    Err(payload) => {
                        result = Err(EngineError::WorkerPanicked {
                            machine: bases[w],
                            message: panic_message(&*payload),
                        });
                    }
                }
            }
            result.map(|metrics| RunReport {
                machines,
                metrics,
                wire: None,
            })
        })
        // lint: allow(panic) — unreachable: the scope's Err arm is never produced (every worker is joined by hand above)
        .expect("scoped workers are joined before the scope ends")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SequentialEngine;
    use rand::Rng;

    /// Every machine sends a random number of random-sized greetings to
    /// random peers for 3 rounds; outputs record everything received.
    struct Gossip {
        log: Vec<(usize, u32)>,
    }

    impl Protocol for Gossip {
        type Msg = u32;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            inbox: &mut Vec<Envelope<u32>>,
            out: &mut Outbox<u32>,
        ) -> Status {
            for env in inbox {
                self.log.push((env.src, env.msg));
            }
            if ctx.round < 3 {
                let count = ctx.rng.gen_range(0..4);
                for _ in 0..count {
                    let dst = ctx.rng.gen_range(0..ctx.k);
                    let val = ctx.rng.gen::<u32>();
                    out.send(dst, val);
                }
                Status::Active
            } else {
                Status::Done
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_transcript() {
        let mk = || {
            (0..9)
                .map(|_| Gossip { log: Vec::new() })
                .collect::<Vec<_>>()
        };
        let cfg = NetConfig::with_bandwidth(9, 48, 12345);
        let seq = SequentialEngine::run(cfg, mk()).unwrap();
        let par = ParallelEngine::with_threads(4).run(cfg, mk()).unwrap();
        assert_eq!(seq.metrics, par.metrics);
        for (s, p) in seq.machines.iter().zip(&par.machines) {
            assert_eq!(s.log, p.log);
        }
    }

    #[test]
    fn single_thread_falls_back_to_sequential() {
        let cfg = NetConfig::with_bandwidth(3, 64, 7);
        let machines = (0..3).map(|_| Gossip { log: Vec::new() }).collect();
        let report = ParallelEngine::with_threads(1).run(cfg, machines).unwrap();
        assert_eq!(report.machines.len(), 3);
    }

    #[test]
    fn round_limit_error_propagates_and_joins() {
        #[derive(Debug)]
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = u8;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                _inbox: &mut Vec<Envelope<u8>>,
                out: &mut Outbox<u8>,
            ) -> Status {
                out.send((ctx.me + 1) % ctx.k, 1);
                Status::Active
            }
        }
        let cfg = NetConfig::with_bandwidth(4, 8, 0).max_rounds(5);
        let err = ParallelEngine::with_threads(2)
            .run(cfg, vec![Chatter, Chatter, Chatter, Chatter])
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::RoundLimitExceeded { limit: 5, .. }
        ));
    }

    /// A protocol panic reaches the caller as the same typed error the
    /// distributed engine returns — machine index and message intact,
    /// every other worker joined — not as a propagated master panic.
    #[test]
    fn protocol_panic_is_a_typed_error_naming_the_machine() {
        #[derive(Debug)]
        struct Bomb;
        impl Protocol for Bomb {
            type Msg = u8;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                _inbox: &mut Vec<Envelope<u8>>,
                out: &mut Outbox<u8>,
            ) -> Status {
                assert!(!(ctx.me == 3 && ctx.round == 2), "boom in round 2");
                out.send((ctx.me + 1) % ctx.k, 1);
                Status::Active
            }
        }
        let cfg = NetConfig::with_bandwidth(8, 8, 0).max_rounds(10);
        let err = ParallelEngine::with_threads(4)
            .run(cfg, (0..8).map(|_| Bomb).collect())
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::WorkerPanicked {
                machine: 3,
                message: "boom in round 2".to_string()
            }
        );
    }
}
