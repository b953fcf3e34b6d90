//! The deterministic single-threaded reference engine.

use crate::config::NetConfig;
use crate::engine::{admit, runs, Network, RoundLedger, RoundTally};
use crate::error::EngineError;
use crate::message::{Envelope, Outbox};
use crate::metrics::RunReport;
use crate::protocol::{Protocol, RoundCtx, Status};
use crate::rng;

/// Runs a protocol instance per machine to quiescence, single-threaded.
///
/// Given the same [`NetConfig`] (including seed) and initial machine
/// states, every run produces the same transcript, metrics, and outputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SequentialEngine;

impl SequentialEngine {
    /// Executes `machines` under `config`.
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] if the config fails
    /// [`NetConfig::validate`] or `machines.len() != config.k`;
    /// [`EngineError::RoundLimitExceeded`] if the safety valve fires.
    pub fn run<P: Protocol>(
        config: NetConfig,
        mut machines: Vec<P>,
    ) -> Result<RunReport<P>, EngineError> {
        admit(&config, machines.len())?;
        let k = config.k;
        let mut rngs: Vec<_> = (0..k).map(|i| rng::machine_rng(config.seed, i)).collect();
        let shared = rng::shared_seed(config.seed);
        let mut outbox = Outbox::new(k);
        let mut net = Network::new(k);
        let mut inboxes: Vec<Vec<Envelope<P::Msg>>> = (0..k).map(|_| Vec::new()).collect();
        let mut last = vec![Status::Active; k];
        // This round's callees, ascending: the machines still `Active`
        // plus those the last delivery woke — exactly what `runs` selects.
        let mut calls: Vec<_> = (0..k).collect();
        let mut ledger = RoundLedger::default();
        loop {
            calls.extend_from_slice(&net.woken);
            calls.sort_unstable();
            calls.dedup();
            debug_assert!(
                (0..k)
                    .all(|i| runs(last[i], !inboxes[i].is_empty())
                        == calls.binary_search(&i).is_ok()),
                "round {}: the callee list disagrees with the skip rule",
                ledger.iterations
            );
            for &i in &calls {
                let mut ctx = RoundCtx {
                    round: ledger.iterations,
                    me: i,
                    k,
                    bandwidth_bits: config.bandwidth_bits,
                    shared_seed: shared,
                    rng: &mut rngs[i],
                };
                last[i] = machines[i].round(&mut ctx, &mut inboxes[i], &mut outbox);
                inboxes[i].clear();
                for (dst, msg) in outbox.drain() {
                    net.stage(i, dst, msg);
                }
            }
            calls.retain(|&i| last[i] == Status::Active);
            let tally = RoundTally {
                active_machines: calls.len(),
                ..net.deliver(config.bandwidth_bits, &mut inboxes)
            };
            if ledger.close(&config, tally)? {
                return Ok(RunReport {
                    machines,
                    metrics: net.finish(ledger.comm_rounds, config.bandwidth_bits),
                    wire: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Status;
    use crate::Envelope as Env;

    /// Each machine sends `count` one-byte messages to machine 0, then
    /// stops.
    struct Flood {
        count: u64,
        received: u64,
    }

    impl Protocol for Flood {
        type Msg = u8;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            inbox: &mut Vec<Env<u8>>,
            out: &mut crate::message::Outbox<u8>,
        ) -> Status {
            self.received += inbox.len() as u64;
            if ctx.round == 0 && ctx.me != 0 {
                for _ in 0..self.count {
                    out.send(0, 0);
                }
                return Status::Active;
            }
            Status::Done
        }
    }

    #[test]
    fn flood_round_count_matches_bandwidth() {
        // 3 senders each send 16 messages of 8 bits to machine 0 over their
        // own links; B = 32 bits/round ⇒ 4 messages/round ⇒ 4 comm rounds.
        let cfg = NetConfig::with_bandwidth(4, 32, 1);
        let machines: Vec<Flood> = (0..4)
            .map(|_| Flood {
                count: 16,
                received: 0,
            })
            .collect();
        let report = SequentialEngine::run(cfg, machines).unwrap();
        assert_eq!(report.metrics.rounds, 4);
        assert_eq!(report.machines[0].received, 48);
        assert_eq!(report.metrics.total_msgs(), 48);
        assert_eq!(report.metrics.recv_bits[0], 48 * 8);
        assert_eq!(report.metrics.max_link_bits, 128);
    }

    /// Ping-pong between two machines, `hops` times.
    struct PingPong {
        hops: u64,
        seen: u64,
    }

    impl Protocol for PingPong {
        type Msg = u64;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            inbox: &mut Vec<Env<u64>>,
            out: &mut crate::message::Outbox<u64>,
        ) -> Status {
            if ctx.round == 0 && ctx.me == 0 {
                out.send(1, 1);
                return Status::Active;
            }
            for env in inbox {
                self.seen = env.msg;
                if env.msg < self.hops {
                    out.send(env.src, env.msg + 1);
                    return Status::Active;
                }
            }
            Status::Done
        }
    }

    #[test]
    fn ping_pong_counts_rounds() {
        let cfg = NetConfig::with_bandwidth(2, 64, 0);
        let report = SequentialEngine::run(
            cfg,
            vec![PingPong { hops: 6, seen: 0 }, PingPong { hops: 6, seen: 0 }],
        )
        .unwrap();
        // 6 messages cross the link, one per round.
        assert_eq!(report.metrics.rounds, 6);
        assert_eq!(report.metrics.total_msgs(), 6);
    }

    /// A protocol that never terminates.
    #[derive(Debug)]
    struct Chatter;
    impl Protocol for Chatter {
        type Msg = u8;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            _inbox: &mut Vec<Env<u8>>,
            out: &mut crate::message::Outbox<u8>,
        ) -> Status {
            out.send((ctx.me + 1) % ctx.k, 1);
            Status::Active
        }
    }

    #[test]
    fn round_limit_fires() {
        let cfg = NetConfig::with_bandwidth(3, 64, 0).max_rounds(10);
        let err = SequentialEngine::run(cfg, vec![Chatter, Chatter, Chatter]).unwrap_err();
        match err {
            EngineError::RoundLimitExceeded {
                limit,
                active_machines,
                ..
            } => {
                assert_eq!(limit, 10);
                assert_eq!(active_machines, 3);
            }
            other => panic!("expected RoundLimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn machine_count_mismatch_is_an_error() {
        let cfg = NetConfig::with_bandwidth(3, 64, 0);
        let err = SequentialEngine::run(cfg, vec![Chatter, Chatter]).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig { .. }), "{err}");
    }

    /// Self-sends are free and delivered next round.
    struct SelfTalk {
        got: bool,
    }
    impl Protocol for SelfTalk {
        type Msg = u64;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            inbox: &mut Vec<Env<u64>>,
            out: &mut crate::message::Outbox<u64>,
        ) -> Status {
            if ctx.round == 0 {
                out.send(ctx.me, 42);
                return Status::Active;
            }
            if inbox.iter().any(|e| e.msg == 42 && e.src == ctx.me) {
                self.got = true;
            }
            Status::Done
        }
    }

    #[test]
    fn self_sends_are_free() {
        let cfg = NetConfig::with_bandwidth(2, 8, 0);
        let report =
            SequentialEngine::run(cfg, vec![SelfTalk { got: false }, SelfTalk { got: false }])
                .unwrap();
        assert!(report.machines[0].got && report.machines[1].got);
        assert_eq!(report.metrics.total_msgs(), 0);
        assert_eq!(report.metrics.rounds, 0); // no link traffic at all
    }

    #[test]
    fn immediate_quiescence() {
        struct Idle;
        impl Protocol for Idle {
            type Msg = u8;
            fn round(
                &mut self,
                _ctx: &mut RoundCtx<'_>,
                _inbox: &mut Vec<Env<u8>>,
                _out: &mut crate::message::Outbox<u8>,
            ) -> Status {
                Status::Done
            }
        }
        let report =
            SequentialEngine::run(NetConfig::with_bandwidth(3, 8, 0), vec![Idle, Idle, Idle])
                .unwrap();
        assert_eq!(report.metrics.rounds, 0);
    }
}
