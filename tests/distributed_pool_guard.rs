//! What hosting machines on shared worker threads must not move, pinned
//! as literals.
//!
//! The distributed engine ships one checksummed batch frame per
//! (source machine, destination machine, round), whatever thread the
//! two machines run on, so a clean-wire run's [`WireReport`] is a
//! function of the transcript alone. And a failure is typed by the
//! *machine* that caused it — a crash, a stall or a panic of a machine
//! that is not the first of its worker's block still names that
//! machine, never its worker or its block's head.

use km_core::engine::DistributedEngine;
use km_core::{
    CrashSpec, EngineError, EngineKind, Envelope, FaultPlan, NetConfig, Outbox, Protocol, RoundCtx,
    Runner, Status, WireReport,
};
use km_graph::generators::gnp;
use km_graph::Partition;
use km_mst::DistributedSketchConnectivity;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

/// The deterministic half of a clean-wire report; the recovery counters
/// are zero on a clean wire and asserted so separately.
fn framing(w: &WireReport) -> [u64; 5] {
    [
        w.frames,
        w.frame_bytes,
        w.payload_bits,
        w.messages,
        w.logical_bits,
    ]
}

#[test]
fn sketch_connectivity_wire_report_at_k16_is_pinned() {
    let (n, k) = (300usize, 16usize);
    let mut rng = ChaCha8Rng::seed_from_u64(3201);
    let g = gnp(n, 0.008, &mut rng);
    let part = Arc::new(Partition::by_hash(n, k, 5));
    let alg = DistributedSketchConnectivity { g: &g, part: &part };
    let netc = NetConfig::polylog(k, n, 17).max_rounds(10_000_000);
    let outcome = km_core::run_algorithm(&alg, Runner::new(netc).engine(EngineKind::Distributed))
        .expect("distributed run");
    let wire = outcome.wire.expect("distributed runs report wire");
    assert_eq!(wire.recovery_bytes(), 0);
    assert_eq!(
        framing(&wire),
        [14_310, 1_022_290, 5_687_875, 18_853, 5_416_195]
    );
}

/// Random traffic: a few messages per machine per round to random
/// destinations (self included), drawn from the machine's RNG stream.
#[derive(Debug)]
struct Chatter {
    rounds: u64,
    got: u64,
}

impl Protocol for Chatter {
    type Msg = u64;
    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<u64>>,
        out: &mut Outbox<u64>,
    ) -> Status {
        for env in inbox.iter() {
            self.got = self.got.rotate_left(5) ^ env.msg ^ env.src as u64;
        }
        if ctx.round >= self.rounds {
            return Status::Done;
        }
        for _ in 0..ctx.rng.gen_range(0..6) {
            let dst = ctx.rng.gen_range(0..ctx.k);
            // Mixed widths, so frame payloads carry padding.
            out.send(dst, ctx.rng.gen::<u64>() >> ctx.rng.gen_range(0..60));
        }
        Status::Active
    }
}

fn chatter(k: usize) -> Vec<Chatter> {
    (0..k).map(|_| Chatter { rounds: 9, got: 0 }).collect()
}

#[test]
fn random_traffic_wire_report_at_k7_is_pinned() {
    let cfg = NetConfig::with_bandwidth(7, 96, 3202);
    let report = DistributedEngine::run(cfg, chatter(7)).expect("distributed run");
    let wire = report.wire.expect("distributed runs report wire");
    assert_eq!(wire.recovery_bytes(), 0);
    assert_eq!(framing(&wire), [128, 4_247, 12_472, 159, 10_176]);
}

/// All-to-all traffic for six rounds; `victim` misbehaves at round
/// `trigger` as `mode` says.
#[derive(Debug)]
struct Victim {
    victim: usize,
    trigger: u64,
    mode: Mode,
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Panic,
    Stall(Duration),
    Healthy,
}

impl Protocol for Victim {
    type Msg = u32;
    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        _inbox: &mut Vec<Envelope<u32>>,
        out: &mut Outbox<u32>,
    ) -> Status {
        if ctx.me == self.victim && ctx.round == self.trigger {
            match self.mode {
                Mode::Panic => panic!("machine {} gave up in round {}", ctx.me, ctx.round),
                Mode::Stall(d) => std::thread::sleep(d),
                Mode::Healthy => {}
            }
        }
        if ctx.round >= 6 {
            return Status::Done;
        }
        for dst in 0..ctx.k {
            if dst != ctx.me {
                out.send(dst, ctx.round as u32);
            }
        }
        Status::Active
    }
}

fn victims(victim: usize, trigger: u64, mode: Mode) -> Vec<Victim> {
    (0..7)
        .map(|_| Victim {
            victim,
            trigger,
            mode,
        })
        .collect()
}

fn cfg7() -> NetConfig {
    NetConfig::with_bandwidth(7, 64, 11)
}

#[test]
fn planned_crash_of_machine_4_is_lost_at_its_round() {
    let plan = FaultPlan {
        crash: Some(CrashSpec {
            machine: 4,
            round: 2,
        }),
        barrier_timeout_ms: 300,
        ..FaultPlan::default()
    };
    let err = DistributedEngine::run_with_faults(cfg7(), victims(0, 0, Mode::Healthy), Some(plan))
        .unwrap_err();
    assert_eq!(
        err,
        EngineError::MachineLost {
            machine: 4,
            round: 2
        }
    );
}

#[test]
fn stall_of_machine_5_is_lost_at_its_round() {
    let plan = FaultPlan {
        barrier_timeout_ms: 200,
        ..FaultPlan::default()
    };
    let err = DistributedEngine::run_with_faults(
        cfg7(),
        victims(5, 3, Mode::Stall(Duration::from_millis(1200))),
        Some(plan),
    )
    .unwrap_err();
    assert_eq!(
        err,
        EngineError::MachineLost {
            machine: 5,
            round: 3
        }
    );
}

#[test]
fn panic_of_machine_6_is_attributed_to_machine_6() {
    let err = DistributedEngine::run(cfg7(), victims(6, 1, Mode::Panic)).unwrap_err();
    match err {
        EngineError::WorkerPanicked { machine, message } => {
            assert_eq!(machine, 6);
            assert!(
                message.contains("machine 6 gave up in round 1"),
                "{message:?}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}
