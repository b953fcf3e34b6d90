//! Regression tests for the distributed engine's failure paths: a
//! machine that panics, crashes, or hangs must surface as a *typed*
//! [`EngineError`] — handed between the workers, returned on the
//! caller's thread once every spawned worker is joined — never a
//! process abort, a poisoned panic in the caller, or a hung `run()`.
//! (Before the failure model landed, a dead peer was a
//! `panic!("peer hung up mid-round")` inside a worker.)

use km_core::engine::DistributedEngine;
use km_core::{
    CrashSpec, EngineError, Envelope, FaultPlan, NetConfig, Outbox, Protocol, RoundCtx, Status,
};
use std::time::{Duration, Instant};

/// All-to-all chatter for `rounds` rounds; machine `victim` panics /
/// stalls at round `trigger` according to `mode`.
#[derive(Debug)]
struct Saboteur {
    rounds: u64,
    victim: usize,
    trigger: u64,
    mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Panic,
    /// Sleeps well past the barrier timeout, then returns normally —
    /// a slow machine, not a dead one, but past the deadline.
    Stall(Duration),
    Healthy,
}

impl Protocol for Saboteur {
    type Msg = u32;
    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        _inbox: &mut Vec<Envelope<u32>>,
        out: &mut Outbox<u32>,
    ) -> Status {
        if ctx.me == self.victim && ctx.round == self.trigger {
            match self.mode {
                Mode::Panic => panic!("machine {} exploded in round {}", ctx.me, ctx.round),
                Mode::Stall(d) => std::thread::sleep(d),
                Mode::Healthy => {}
            }
        }
        if ctx.round < self.rounds {
            for dst in 0..ctx.k {
                if dst != ctx.me {
                    out.send(dst, ctx.round as u32);
                }
            }
            Status::Active
        } else {
            Status::Done
        }
    }
}

fn saboteurs(k: usize, victim: usize, trigger: u64, mode: Mode) -> Vec<Saboteur> {
    (0..k)
        .map(|_| Saboteur {
            rounds: 6,
            victim,
            trigger,
            mode,
        })
        .collect()
}

fn cfg(k: usize) -> NetConfig {
    NetConfig::with_bandwidth(k, 64, 7)
}

#[test]
fn worker_panic_is_typed_and_attributed() {
    let err = DistributedEngine::run(cfg(5), saboteurs(5, 2, 1, Mode::Panic)).unwrap_err();
    match err {
        EngineError::WorkerPanicked { machine, message } => {
            assert_eq!(machine, 2, "the panicking machine, not a victim peer");
            assert!(
                message.contains("machine 2 exploded in round 1"),
                "panic payload must survive into the error: {message:?}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

/// The panic may land in *any* machine, including the first of the
/// caller's own block and the last of the last spawned worker's.
#[test]
fn worker_panic_attribution_covers_every_position() {
    for victim in [0, 4] {
        let err = DistributedEngine::run(cfg(5), saboteurs(5, victim, 0, Mode::Panic)).unwrap_err();
        match err {
            EngineError::WorkerPanicked { machine, .. } => assert_eq!(machine, victim),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}

/// A panicking worker must not hang the run: `run` returns promptly
/// (no barrier-timeout wait — the panicking worker hands its error to
/// its peers) and every other thread is joined before it does.
#[test]
fn worker_panic_fails_fast_with_no_orphans() {
    let start = Instant::now();
    let err = DistributedEngine::run(cfg(6), saboteurs(6, 3, 2, Mode::Panic)).unwrap_err();
    assert!(matches!(
        err,
        EngineError::WorkerPanicked { machine: 3, .. }
    ));
    // Well under the 10s default barrier timeout: the failure was
    // detected by report, not by deadline.
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "panic detection must not wait out the barrier timeout ({:?})",
        start.elapsed()
    );
}

/// A machine that stalls past the barrier deadline (but never dies) is
/// reported lost — on a clean wire and on a lossy one, where the peers
/// keep servicing their wires while they wait — and the run still tears
/// down cleanly once the straggler wakes up inside the aborted scope.
#[test]
fn stalled_machine_is_lost_at_the_barrier() {
    for drop in [0.0, 0.2] {
        let plan = FaultPlan {
            drop,
            seed: 11,
            barrier_timeout_ms: 200,
            ..FaultPlan::default()
        };
        for victim in [1, 3] {
            let err = DistributedEngine::run_with_faults(
                cfg(4),
                saboteurs(4, victim, 1, Mode::Stall(Duration::from_millis(900))),
                Some(plan),
            )
            .unwrap_err();
            assert_eq!(
                err,
                EngineError::MachineLost {
                    machine: victim,
                    round: 1
                },
                "drop = {drop}"
            );
        }
    }
}

/// Crash injection through the public `FaultPlan` API on a raw-engine
/// run (the algorithm-level path is covered by `tests/chaos_matrix.rs`
/// at the workspace root).
#[test]
fn planned_crash_names_machine_and_round() {
    let plan = FaultPlan {
        crash: Some(CrashSpec {
            machine: 3,
            round: 2,
        }),
        barrier_timeout_ms: 300,
        ..FaultPlan::default()
    };
    let err =
        DistributedEngine::run_with_faults(cfg(5), saboteurs(5, 0, 0, Mode::Healthy), Some(plan))
            .unwrap_err();
    assert_eq!(
        err,
        EngineError::MachineLost {
            machine: 3,
            round: 2
        }
    );
}

/// Back-to-back failing runs: if a failure leaked threads or wedged
/// channels, the second and third runs would hang or misbehave.
#[test]
fn failed_runs_leave_nothing_behind() {
    for _ in 0..3 {
        let err = DistributedEngine::run(cfg(4), saboteurs(4, 1, 0, Mode::Panic)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::WorkerPanicked { machine: 1, .. }
        ));
    }
    // And a healthy run on the same thread still succeeds afterwards.
    let report = DistributedEngine::run(cfg(4), saboteurs(4, 0, 99, Mode::Healthy)).unwrap();
    assert!(report.metrics.rounds > 0);
}
