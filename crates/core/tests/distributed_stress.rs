//! Round-barrier stress test: 64 machines with randomized per-round
//! jitter — hosted by the engine's worker pool, so each worker's jitter
//! is the sum of its block's — must still advance in lockstep, deliver
//! per-link traffic in FIFO order, and reproduce the sequential
//! engine's transcript bit for bit.
//!
//! The jitter durations are drawn from the per-machine protocol RNG, so
//! the RNG streams — and therefore the traffic — are identical on both
//! engines; only the arrival times at each round's exchange differ.
//! Any reordering the channels or the exchange allowed — a worker may
//! ship a round's frames while a peer still delivers the round before —
//! would show up as a FIFO violation (checked in-protocol via
//! per-source sequence numbers) or as a diverged log.

use km_core::engine::{DistributedEngine, SequentialEngine};
use km_core::{Envelope, NetConfig, Outbox, Protocol, Raw, RoundCtx, Status};
use rand::Rng;
use std::time::Duration;

const K: usize = 64;
const ROUNDS: u64 = 6;

/// Sends per-destination sequence-numbered messages, sleeps a random
/// jitter to stagger barrier arrivals, and asserts on receipt that each
/// source's sequence numbers arrive strictly in order.
#[derive(Debug)]
struct JitterSeq {
    /// Rounds of traffic before Done.
    rounds: u64,
    /// Stagger barrier arrivals with real sleeps (off under the model
    /// checker, whose scheduler explores arrival orders directly).
    jitter: bool,
    /// Next sequence number per destination.
    next_seq: Vec<u64>,
    /// Highest sequence number seen per source (+1), i.e. expected next.
    expect: Vec<u64>,
    /// Reception log: `(src, seq)` in delivery order.
    log: Vec<(usize, u64)>,
}

impl JitterSeq {
    fn fleet(k: usize, rounds: u64, jitter: bool) -> Vec<JitterSeq> {
        (0..k)
            .map(|_| JitterSeq {
                rounds,
                jitter,
                next_seq: vec![0; k],
                expect: vec![0; k],
                log: Vec::new(),
            })
            .collect()
    }
}

impl Protocol for JitterSeq {
    type Msg = Raw;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<Raw>>,
        out: &mut Outbox<Raw>,
    ) -> Status {
        for env in inbox.iter() {
            let bytes: [u8; 8] = env.msg.0[..8].try_into().expect("8-byte seq payload");
            let seq = u64::from_le_bytes(bytes);
            assert_eq!(
                seq, self.expect[env.src],
                "machine {} saw src {} out of FIFO order",
                ctx.me, env.src
            );
            self.expect[env.src] = seq + 1;
            self.log.push((env.src, seq));
        }
        if ctx.round < self.rounds {
            // A small random fanout keeps many links active at once.
            for _ in 0..3 {
                let dst = ctx.rng.gen_range(0..ctx.k);
                let seq = self.next_seq[dst];
                self.next_seq[dst] += 1;
                out.send(dst, Raw::from_vec(seq.to_le_bytes().to_vec()));
            }
            if self.jitter {
                // Randomized jitter (drawn from the same RNG stream on
                // every engine) staggers when each worker hits the
                // round barrier.
                let jitter_us = ctx.rng.gen_range(0..1500);
                std::thread::sleep(Duration::from_micros(jitter_us));
            }
            Status::Active
        } else {
            Status::Done
        }
    }
}

#[test]
fn k64_jittered_workers_stay_in_lockstep_and_fifo() {
    // Tight bandwidth forces multi-round deliveries, so the FIFO check
    // also covers partially-delivered messages spanning barriers.
    let cfg = NetConfig::with_bandwidth(K, 96, 4242).max_rounds(1_000_000);
    let seq =
        SequentialEngine::run(cfg, JitterSeq::fleet(K, ROUNDS, true)).expect("sequential run");
    let dist =
        DistributedEngine::run(cfg, JitterSeq::fleet(K, ROUNDS, true)).expect("distributed run");

    assert_eq!(seq.metrics, dist.metrics, "metrics diverged");
    for (i, (s, d)) in seq.machines.iter().zip(&dist.machines).enumerate() {
        assert_eq!(s.log, d.log, "machine {i} transcript diverged");
        assert_eq!(s.expect, d.expect, "machine {i} FIFO counters diverged");
    }
    // Every sent sequence number was received exactly once.
    let sent: u64 = seq.metrics.sent_msgs.iter().sum();
    let self_sends: u64 = seq
        .machines
        .iter()
        .enumerate()
        .map(|(i, m)| m.expect[i])
        .sum();
    let logged: u64 = dist.machines.iter().map(|m| m.log.len() as u64).sum();
    assert_eq!(logged, sent + self_sends, "lost or duplicated deliveries");

    let wire = dist.wire.expect("distributed runs report wire");
    assert_eq!(wire.logical_bits, seq.metrics.total_bits());
    assert_eq!(
        wire.messages, sent,
        "every link message framed exactly once"
    );
    // Batching: at most one frame per (link, round) with traffic —
    // never more frames than messages, and with 3 sends per machine
    // per round over 64² links, strictly fewer whenever two sends
    // share a destination.
    assert!(
        wire.frames <= sent,
        "batching must not split messages across extra frames"
    );
    assert!(wire.msgs_per_frame() >= 1.0);
}

/// The same lockstep/FIFO/conservation invariants, but with barrier
/// arrival orders driven by the model checker's schedule explorer
/// instead of real jitter: every explored interleaving of a small
/// fleet must reproduce the sequential transcript bit for bit.
#[test]
fn model_schedules_keep_small_fleet_in_lockstep_and_fifo() {
    use crossbeam::model::{explore, ModelConfig};

    const MK: usize = 4;
    const MROUNDS: u64 = 3;
    let cfg = NetConfig::with_bandwidth(MK, 96, 4242).max_rounds(100_000);
    let seq =
        SequentialEngine::run(cfg, JitterSeq::fleet(MK, MROUNDS, false)).expect("sequential run");

    let model_cfg = ModelConfig {
        seed: 9,
        schedules: 16,
        dfs_depth: 16,
        max_steps: 400_000,
    };
    let report = explore(&model_cfg, || {
        let dist = DistributedEngine::run(cfg, JitterSeq::fleet(MK, MROUNDS, false))
            .map_err(|e| format!("distributed run failed: {e}"))?;
        if dist.metrics != seq.metrics {
            return Err("metrics diverged from sequential".into());
        }
        for (i, (s, d)) in seq.machines.iter().zip(&dist.machines).enumerate() {
            if s.log != d.log || s.expect != d.expect {
                return Err(format!("machine {i} transcript diverged"));
            }
        }
        Ok(())
    })
    .unwrap_or_else(|failure| {
        panic!(
            "schedule {} failed: {}",
            failure.schedule, failure.violation
        )
    });
    assert_eq!(report.schedules, 16);
    assert!(
        report.max_decision_points > 0,
        "engine runs must branch under the scheduler"
    );
}
