//! Regression test for the distributed engine's idle cost: a worker
//! waiting at a barrier for a peer that is inside a long `round()`
//! must go to sleep, not spin. (Before the poll-then-park wait
//! discipline, the clean-wire wait for `Deliver` was an unbounded
//! `try_recv` → `snooze` loop: one slow machine pinned every other
//! worker's core for as long as it computed.)
//!
//! Its own test binary, so its own process: the assertion is on the
//! process's CPU time, which no concurrently running test may share.

#![cfg(target_os = "linux")]

use km_core::engine::DistributedEngine;
use km_core::{Envelope, NetConfig, Outbox, Protocol, RoundCtx, Status};
use std::time::Duration;

/// How long machine 0 stays inside `round()` of round 0.
const LONG_ROUND: Duration = Duration::from_millis(300);

/// Most CPU time the whole run may take. Seven spinning workers would
/// burn `LONG_ROUND` × min(7, cores) — 300 ms on a single core — while
/// parked ones cost a few milliseconds of thread start-up and rounds.
const CPU_BUDGET: Duration = Duration::from_millis(150);

/// A ring that passes one token per round; machine 0 sleeps through
/// round 0 while everyone else finishes theirs immediately.
#[derive(Debug)]
struct SlowHead {
    got: u32,
}

impl Protocol for SlowHead {
    type Msg = u32;
    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<u32>>,
        out: &mut Outbox<u32>,
    ) -> Status {
        self.got += inbox.len() as u32;
        if ctx.me == 0 && ctx.round == 0 {
            std::thread::sleep(LONG_ROUND);
        }
        if ctx.round < 3 {
            out.send((ctx.me + 1) % ctx.k, ctx.round as u32);
            Status::Active
        } else {
            Status::Done
        }
    }
}

/// User + system CPU time of this process, all threads (live and
/// joined), from `/proc/self/stat` fields 14 and 15. Those are in
/// `USER_HZ` ticks, which Linux fixes at 100 for every userspace ABI.
fn process_cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Field 2 (`comm`) may itself contain spaces and parentheses; the
    // numbered fields resume after its *last* closing parenthesis,
    // starting with field 3 (`state`).
    let (_, rest) = stat.rsplit_once(')').expect("stat has a comm field");
    let ticks: u64 = rest
        .split_whitespace()
        .skip(14 - 3)
        .take(2)
        .map(|field| field.parse::<u64>().expect("utime/stime are integers"))
        .sum();
    Duration::from_millis(ticks * 10)
}

#[test]
fn workers_waiting_out_a_long_round_sleep_instead_of_spinning() {
    let k = 8;
    let before = process_cpu_time();
    let report = DistributedEngine::run(
        NetConfig::with_bandwidth(k, 64, 7),
        (0..k).map(|_| SlowHead { got: 0 }).collect(),
    )
    .expect("a slow machine is not a failed one");
    let spent = process_cpu_time() - before;
    assert!(
        report.machines.iter().all(|m| m.got == 3),
        "the run itself must be unaffected"
    );
    assert!(
        spent < CPU_BUDGET,
        "the run burned {spent:?} of CPU while machine 0 slept {LONG_ROUND:?} \
         (budget {CPU_BUDGET:?}): idle workers are spinning instead of parking"
    );
}
