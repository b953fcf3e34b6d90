//! Cross-engine fuzz matrix: random protocol behaviors (random message
//! sizes, destinations, per-machine stop rounds, self-sends, messages
//! spanning multiple delivery rounds, `Done` machines woken by mail)
//! must produce bit-for-bit identical
//! transcripts on the sequential and distributed engines,
//! conserve traffic exactly, and fail identically when the round-limit
//! safety valve fires.
//!
//! This subsumes the old `sparse_equivalence` suite in km-core: the
//! invariants are the same, but the matrix now includes the distributed
//! engine, where every message is serialized to a byte frame and
//! crosses a real channel, between worker threads or inside one.

use km_core::engine::{DistributedEngine, SequentialEngine};
use km_core::{Envelope, NetConfig, Outbox, Protocol, Raw, RoundCtx, Status};
use proptest::prelude::*;
use rand::Rng;

/// Two shapes of machine, both logging every reception and drawing
/// every choice from the private per-machine RNG, so every engine must
/// see identical traffic:
///
/// * a *talker* sends `fanout` random-size byte blobs to uniformly random
///   machines (self included — self-sends are free and bypass links)
///   every round before its own stop round, then reports `Done` — while
///   peers, and multi-round messages at small `B`, may still reach it;
/// * a *sleeper* reports `Done` from round 0 and acts only on mail: every
///   blob it receives goes on, one byte shorter, to a random machine
///   (empty ones stop there). It is called only when woken, and draws
///   randomness only then.
#[derive(Debug)]
struct RandomTraffic {
    /// The talker's stop round; `None` for a sleeper.
    stop: Option<u64>,
    fanout: usize,
    max_len: usize,
    log: Vec<(usize, usize)>,
    received_msgs: u64,
}

/// One machine per `(stop, die)`: a sleeper when `die == 0` (one draw in
/// four from `0u8..4`), else a talker stopping at `stop`.
fn traffic(shapes: &[(u64, u8)], fanout: usize, max_len: usize) -> Vec<RandomTraffic> {
    shapes
        .iter()
        .map(|&(stop, die)| RandomTraffic {
            stop: (die != 0).then_some(stop),
            fanout,
            max_len,
            log: Vec::new(),
            received_msgs: 0,
        })
        .collect()
}

impl Protocol for RandomTraffic {
    type Msg = Raw;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<Raw>>,
        out: &mut Outbox<Raw>,
    ) -> Status {
        for env in inbox.iter() {
            self.log.push((env.src, env.msg.0.len()));
            if env.src != ctx.me {
                self.received_msgs += 1;
            }
        }
        match self.stop {
            None => {
                for env in inbox.iter() {
                    if let Some(len) = env.msg.0.len().checked_sub(1) {
                        let dst = ctx.rng.gen_range(0..ctx.k);
                        out.send(dst, Raw::from_vec(vec![dst as u8; len]));
                    }
                }
                Status::Done
            }
            Some(stop) if ctx.round < stop => {
                for _ in 0..self.fanout {
                    let dst = ctx.rng.gen_range(0..ctx.k);
                    let len = ctx.rng.gen_range(0..=self.max_len);
                    out.send(dst, Raw::from_vec(vec![dst as u8; len]));
                }
                Status::Active
            }
            Some(_) => Status::Done,
        }
    }
}

proptest! {
    /// Sent == received conservation under the sparse path, for traffic
    /// that exercises empty links, drained links, self-sends, and
    /// messages larger than one round's budget — on both the in-process
    /// reference engine and the message-passing one.
    #[test]
    fn random_protocols_conserve_traffic(
        shapes in collection::vec((0u64..6, 0u8..4), 2..9),
        fanout in 0usize..5,
        max_len in 0usize..40,
        bandwidth in 1u64..200,
        seed in 0u64..1_000_000,
    ) {
        let cfg = NetConfig::with_bandwidth(shapes.len(), bandwidth, seed).max_rounds(1_000_000);
        for dist in [false, true] {
            let machines = traffic(&shapes, fanout, max_len);
            let report = if dist {
                DistributedEngine::run(cfg, machines).unwrap()
            } else {
                SequentialEngine::run(cfg, machines).unwrap()
            };
            let m = &report.metrics;
            prop_assert_eq!(
                m.sent_msgs.iter().sum::<u64>(),
                m.recv_msgs.iter().sum::<u64>(),
                "message conservation after drain"
            );
            prop_assert_eq!(
                m.sent_bits.iter().sum::<u64>(),
                m.recv_bits.iter().sum::<u64>(),
                "bit conservation after drain"
            );
            // The protocols' own receive logs agree with the metrics
            // (self-sends appear in logs but not in link metrics).
            let logged: u64 = report.machines.iter().map(|p| p.received_msgs).sum();
            prop_assert_eq!(logged, m.recv_msgs.iter().sum::<u64>());
            // Sparse invariant: the delivery loop never visits more links
            // than messages it moves (a visit only happens for queued
            // traffic; partial deliveries re-visit, bounded by bits/B).
            let delivered: u64 = m.recv_msgs.iter().sum();
            let worst_partial = m.total_bits() / bandwidth + delivered;
            prop_assert!(
                m.link_visits <= worst_partial + delivered,
                "link_visits {} exceeds active-traffic bound {}",
                m.link_visits,
                worst_partial + delivered
            );
        }
    }

    /// The sequential and distributed engines are
    /// transcript-identical on the same random workloads: same metrics,
    /// same per-machine logs — even though the distributed engine pushed
    /// every message through a serialized byte frame, and each engine
    /// decided on its own which `Done` machines the mail woke.
    #[test]
    fn engines_are_transcript_identical(
        shapes in collection::vec((0u64..5, 0u8..4), 2..9),
        fanout in 0usize..4,
        max_len in 0usize..32,
        bandwidth in 1u64..150,
        seed in 0u64..1_000_000,
    ) {
        let cfg = NetConfig::with_bandwidth(shapes.len(), bandwidth, seed).max_rounds(1_000_000);
        let seq = SequentialEngine::run(cfg, traffic(&shapes, fanout, max_len)).unwrap();
        let dist = DistributedEngine::run(cfg, traffic(&shapes, fanout, max_len)).unwrap();
        prop_assert_eq!(&seq.metrics, &dist.metrics, "distributed metrics diverged");
        for (i, (s, d)) in seq.machines.iter().zip(&dist.machines).enumerate() {
            prop_assert_eq!(&s.log, &d.log, "machine {} distributed transcript diverged", i);
        }
        // The wire report must account for exactly the logical traffic:
        // payload bits before padding equal the logical transcript, and
        // a frame is never smaller than the bits it carries.
        let wire = dist.wire.as_ref().expect("distributed runs report wire");
        prop_assert_eq!(wire.logical_bits, seq.metrics.total_bits());
        prop_assert!(wire.measured_bits() >= wire.logical_bits);
        let link_msgs: u64 = seq.metrics.sent_msgs.iter().sum();
        prop_assert_eq!(
            wire.messages,
            link_msgs,
            "every link message framed exactly once"
        );
        prop_assert!(
            wire.frames <= link_msgs,
            "one batch frame per active link-round, never more frames than messages"
        );
        prop_assert!((wire.frames == 0) == (link_msgs == 0));
    }

    /// The round-limit safety valve fires identically on every engine:
    /// same error variant, same limit, same count of still-active
    /// machines, same queued traffic.
    #[test]
    fn round_limit_errors_are_bit_identical(
        peers in collection::vec((0u64..6, 0u8..4), 1..6),
        fanout in 1usize..4,
        max_len in 0usize..24,
        bandwidth in 1u64..100,
        seed in 0u64..1_000_000,
        limit in 1u64..4,
    ) {
        // Machine 0 talks far past the limit, so the run can never
        // quiesce in time; its peers stop, sleep and wake as they like.
        let shapes = [&[(limit + 10, 1)][..], &peers].concat();
        let cfg = NetConfig::with_bandwidth(shapes.len(), bandwidth, seed).max_rounds(limit);
        let seq = SequentialEngine::run(cfg, traffic(&shapes, fanout, max_len)).unwrap_err();
        let dist = DistributedEngine::run(cfg, traffic(&shapes, fanout, max_len)).unwrap_err();
        prop_assert_eq!(&seq, &dist, "distributed error diverged");
    }
}
