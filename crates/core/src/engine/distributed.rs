//! The message-passing engine: a pool of worker threads hosting the
//! machines, real byte channels per ordered link, and a self-healing
//! wire.
//!
//! Where [`super::SequentialEngine`] simulates the network in process
//! (messages move as in-memory values and never serialize), this engine actually *ships bytes*: each
//! round, everything a machine queued for one destination is encoded
//! by [`crate::codec::encode_batch_frame_into`] into a *single*
//! checksummed, sequence-numbered batch frame — the only data-frame
//! kind there is — pushed through that ordered pair's bounded byte
//! channel, and decoded on receipt — zero-copy, each message through a
//! borrowed sub-reader over the frame buffer — into the destination's
//! `engine::Inbound`: the one delivery core (per-source FIFO
//! [`crate::link::Link`]s, self-queue, sorted active-source index)
//! the sequential engine holds `k` of, here owned one per machine and
//! shipped home with the final state. Batching amortizes the 21-byte
//! self-healing header over every message a (link, round) pair
//! carries; each machine accumulates a [`WireReport`] of what its
//! frames measured against the logical [`WireCodec::bits`], and the
//! coordinator sums them.
//!
//! # The pool
//!
//! `W = min(k, available_parallelism())` worker threads each host a
//! contiguous block of machines (worker `w` runs machines
//! `w·k/W .. (w+1)·k/W`). Each hosted machine keeps its own protocol,
//! RNG stream, `Inbound`, both halves of its wire, inbox and last
//! status; a worker shares only scratch across its block — one
//! `Outbox`, one staging row, one `BitWriter`.
//! Frames do not change with the pool: a machine ships one batch per
//! destination and round through that link's channel even when the
//! destination shares its worker, so [`WireReport`] is a function of
//! the transcript alone, whatever `W` is.
//!
//! # Round anatomy (coordinator barriers)
//!
//! The caller's thread coordinates, with `O(W)` control messages per
//! round:
//!
//! 1. `Round` — every worker runs [`Protocol::round`] for each of its
//!    machines the sparse-rounds rule (`engine::runs`: its last status
//!    was `Active`, or it has mail) selects, on its locally held inbox,
//!    and ships that machine's batch frames (self-sends bypass
//!    serialization and stay local, free — the same drain-and-move
//!    semantics as the sequential engine). It answers one `Sent` carrying
//!    its machines' cumulative per-destination batch counts.
//! 2. The coordinator collects all `Sent`s, transposes the `k × k`
//!    count matrix, and issues each worker one `Deliver` carrying, per
//!    hosted machine, exactly how many batch frames it is owed per
//!    source.
//! 3. Machine by machine, each worker drains incoming channels until
//!    every frame owed to that machine has been absorbed (see the
//!    failure model below for how loss is repaired), then runs its
//!    `Inbound::deliver` — the very walk the sequential engine runs per
//!    destination, so only links with queued traffic are visited,
//!    counted in [`crate::Metrics::link_visits`] — and reports its
//!    block's summed slice of the round's `RoundTally` (status, queue
//!    depths, inbox size).
//! 4. The coordinator sums the slices and closes the round with the
//!    same `RoundLedger::close` as the in-process loop: communication
//!    round counted, then quiescence, then the round limit — so error
//!    cases are bit-identical too.
//!
//! Each worker publishes in a `Marker` the machine it is working on —
//! set before that machine's `round()`, before its delivery, and at
//! its planned crash — plus a step count. Every failure is typed by
//! the marker, so it names the machine, never the worker.
//!
//! ## Waiting
//!
//! A round is three waits on every worker (the next command, the
//! mid-round `Deliver`, the owed frames) and `2W` on the coordinator
//! (`Sent` and the round report from each worker), and a k-machine
//! algorithm is thousands of near-empty rounds — so *how* a thread
//! waits is most of what a round costs. All of them follow one
//! discipline, one helper per side (`await_cmd`, `Coordinator::await_resp`):
//!
//! - **Poll, then park.** A wait first polls its channel, yielding
//!   between polls ([`Backoff::snooze`]), for a fixed budget
//!   (`BARRIER_SPIN_POLLS`): the awaited message is normally a few
//!   scheduling quanta away, and a yield is far cheaper than the futex
//!   sleep plus the wake-up syscall a parked thread costs its sender.
//!   Only when the budget runs out — a peer is inside a long `round()`
//!   — does the thread block on the channel, so idle workers sleep
//!   instead of burning their cores.
//! - **What is serviced while polling.** While a [`FaultPlan`] is live
//!   a waiting worker drains every incoming channel of its block and
//!   pumps its pending queues between polls — a peer's delivery may
//!   hinge on our retransmits even after our own round report went
//!   out — and for the same reason never parks. On a clean wire a
//!   worker owed frames drains, on every poll, only the awaited
//!   machine's links whose `Deliver` count is still ahead of what it
//!   absorbed: nothing but owed data frames travels a clean link.
//! - **Why a clean wire may park without draining.** A worker flushes
//!   every staged frame into its channels *before* it answers `Sent`,
//!   and absorbs every owed frame before its round report, so between
//!   barriers at most one data frame per link is in flight against
//!   `LINK_CHANNEL_FRAMES = 4` slots: no sender ever waits on an idle
//!   receiver, and by the time `Deliver` arrives everything owed is
//!   already sitting in the channels (one drain per machine completes
//!   the round).
//! - **The coordinator parks in `recv_timeout(barrier)`**, so the
//!   deadline — real or, under `km-check`, virtual — is that of the
//!   park alone. It is a *per-machine* deadline: a park that times out
//!   while the worker's marker started a new step parks again, so only
//!   a machine silent for a whole window is `MachineLost`, never a
//!   block of healthy machines whose `round()`s add up past it.
//!
//! Bounded channels mean a sender can hit a full link mid-round (under
//! recovery traffic); the overflow waits in a local per-destination
//! queue that every blocked or barrier-waiting worker keeps pumping
//! while draining its own incoming channels, so the wait-for graph
//! never contains a cycle of non-draining threads and the round always
//! completes.
//!
//! # Failure model
//!
//! The wire tolerates a seeded adversary ([`FaultPlan`]) that drops,
//! duplicates, bit-corrupts, and delays individual frames, and may
//! crash one machine at a round boundary:
//!
//! - **Detection.** Every frame carries a CRC-32 (over the whole
//!   batch) and a per-link sequence number — one per *batch*, which
//!   makes retention buffers and completeness counts smaller, not
//!   larger, than under per-message framing
//!   ([`crate::codec::FRAME_HEADER_BYTES`]). A corrupted frame fails
//!   its checksum and is discarded whole; a missing frame is a
//!   sequence gap against the `Deliver` counts; a duplicated or stale
//!   frame has `seq <` the next expected and is dropped without
//!   touching the logical transcript.
//! - **Recovery.** A receiver still owed frames sends paced NACK
//!   control frames naming the first missing sequence number; the
//!   sender retains the current round's batch frames and retransmits
//!   from that point (retention resets every round — the barrier
//!   proves the previous round was fully absorbed), replaying every
//!   message the lost batch contained exactly once. Out-of-order
//!   arrivals wait in a reorder buffer (as raw validated frames,
//!   decoded only when their gap fills) so links stay FIFO. Recovery
//!   traffic is accounted in [`WireReport::retransmit_frames`] /
//!   [`WireReport::nack_frames`], never in [`Metrics`] — under any
//!   crash-free fault mix the run's `RunOutcome` stays bit-identical
//!   to the sequential engine's.
//! - **Crashes and hangs.** A planned crash severs only the crashed
//!   machine's channels, and its worker goes silent with the marker on
//!   it. The coordinator waits out a barrier timeout
//!   ([`FaultPlan::barrier_timeout_ms`], default
//!   [`DEFAULT_BARRIER_TIMEOUT_MS`]) in which the worker starts no new
//!   step and converts that silence into [`EngineError::MachineLost`]
//!   for the marker's machine. A worker panic (usually a protocol's own
//!   `round`) is caught, reported, and surfaces as
//!   [`EngineError::WorkerPanicked`] for the marker's machine. Either
//!   way the coordinator aborts every surviving worker and joins all
//!   threads — no orphan threads, no hung caller, no poisoned panic.
//!
//! Out of scope: recovering the *work* of a crashed machine
//! (checkpoint/restart, state handoff). A crash fails the run with a
//! typed error; it never silently degrades the computation.
//!
//! # Bit-identity
//!
//! [`Metrics`] are accounted from the *logical* sizes (sender side at
//! staging, receiver side from the sizes carried in batch records, in
//! sequence order exactly once), and the per-link FIFO/budget
//! structure is not a copy of the sequential engine's but the same
//! code — so outputs,
//! metrics, RNG streams, and even error payloads are bit-identical
//! across both engines (enforced by `tests/engine_equivalence.rs`,
//! `tests/engine_fuzz.rs`, and under fault injection by
//! `tests/chaos_matrix.rs`). The measured frame bytes appear only in
//! the separate [`WireReport`].

use crate::codec::{
    decode_batch, decode_nack, encode_batch_frame_into, split_frame, BitWriter, FrameView,
    WireCodec, FRAME_HEADER_BYTES, FRAME_KIND_NACK,
};
use crate::config::NetConfig;
use crate::engine::{
    admit, debug_assert_lemma3, panic_message, runs, silent_exit, Inbound, RoundLedger, RoundTally,
};
use crate::error::EngineError;
use crate::faults::FaultPlan;
use crate::message::{Envelope, Outbox};
use crate::metrics::{Metrics, RunReport, WireReport};
use crate::protocol::{Protocol, RoundCtx, Status};
use crate::rng;
use crate::MachineIdx;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use crossbeam::utils::Backoff;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Frames a link channel buffers before senders feel backpressure.
/// Since the wire batches each (link, round) into a single frame, a
/// channel only ever holds that batch plus recovery traffic (NACKs,
/// retransmits, fault-injected duplicates) — so this is sized small
/// enough that a recovery storm still exercises the drain-while-
/// blocked path (stress-tested in `tests/` at k = 64 and by the chaos
/// matrix), not for bulk data.
const LINK_CHANNEL_FRAMES: usize = 4;

/// Default coordinator barrier timeout (milliseconds): how long a
/// machine may stay silent at a round barrier before the run fails
/// with [`EngineError::MachineLost`]. Generous because a legitimate
/// protocol round may compute for a while; fault tests lower it via
/// [`FaultPlan::barrier_timeout_ms`] and slow CI can raise it through
/// [`BARRIER_TIMEOUT_ENV`].
pub const DEFAULT_BARRIER_TIMEOUT_MS: u64 = 10_000;

/// Environment override for the barrier timeout: a positive integer of
/// milliseconds. Parsed hard, like `KM_FAULTS` — a malformed or zero
/// value fails the run with [`EngineError::InvalidConfig`] instead of
/// being silently ignored. A [`FaultPlan::barrier_timeout_ms`] set by
/// the caller still wins over the environment.
pub const BARRIER_TIMEOUT_ENV: &str = "KM_BARRIER_TIMEOUT_MS";

/// Resolves the effective barrier timeout: explicit plan value, then
/// [`BARRIER_TIMEOUT_ENV`], then [`DEFAULT_BARRIER_TIMEOUT_MS`].
fn barrier_timeout(plan: &FaultPlan) -> Result<Duration, EngineError> {
    let env = std::env::var(BARRIER_TIMEOUT_ENV).ok();
    barrier_timeout_from(plan, env.as_deref())
}

/// [`barrier_timeout`] with the environment value passed in, so the
/// parse rules are testable without planting process-global state.
fn barrier_timeout_from(plan: &FaultPlan, env: Option<&str>) -> Result<Duration, EngineError> {
    if plan.barrier_timeout_ms > 0 {
        return Ok(Duration::from_millis(plan.barrier_timeout_ms));
    }
    match env {
        None => Ok(Duration::from_millis(DEFAULT_BARRIER_TIMEOUT_MS)),
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Duration::from_millis(ms)),
            Ok(_) => Err(EngineError::InvalidConfig {
                reason: format!("{BARRIER_TIMEOUT_ENV} must be a positive number of milliseconds"),
            }),
            Err(_) => Err(EngineError::InvalidConfig {
                reason: format!(
                    "{BARRIER_TIMEOUT_ENV}: expected a positive number of milliseconds, got {raw:?}"
                ),
            }),
        },
    }
}

/// Idle receive polls between NACK rounds while a machine is owed
/// frames — paces retransmit requests so a lossy link is repaired
/// without flooding the reverse direction.
const NACK_IDLE_POLLS: u32 = 16;

/// Empty polls (each followed by a [`Backoff::snooze`], i.e. a yield)
/// a barrier wait makes before it parks on its channel — the one budget
/// of the wait discipline, shared by the worker (`await_cmd`) and the
/// coordinator (`Coordinator::await_resp`).
///
/// A park costs a futex sleep, a wake-up syscall on the sender's side
/// and a scheduler round-trip; a yielding poll costs one `sched_yield`
/// and hands the core to whichever peer is still computing. Polling is
/// therefore the cheaper wait for as long as the awaited message is a
/// few scheduling quanta away — the normal case between the phases of
/// a short round — and the budget only has to outlast that.
///
/// Sized by measurement: `benchmark/run.sh --workload sketch_cc_wire`
/// (8 510 near-empty rounds, k = 16 machines), interleaved passes per
/// value, median `wall_s` of the per-pass medians, on a 2-core host:
///
/// | polls | one thread per machine (`--seed 2 --seconds 5`, 6 passes) | pool, W = 2 workers (`--seed 2 --seconds 3`, 6 passes) |
/// |---|---|---|
/// | 0 (always park) | 2.85 s | 0.56 s |
/// | 4 | 0.70 s | — |
/// | 16 | 0.65 s | 0.34 s |
/// | 64 | 0.63 s | — |
/// | 256 | 0.62 s | 0.35 s |
/// | 1024 | 0.64 s | 0.34 s |
/// | 4096 | 0.63 s | — |
///
/// (The engine before the wait discipline — parked command and
/// coordinator waits, unbounded mid-round spin — took 1.5 s.) On both
/// layouts everything from 16 up sits on one plateau, within the
/// passes' spread. The value is taken from the top of the range that is
/// still cheap to give up on, for hosts with more cores than workers:
/// there a yield returns at once, the budget is worth 256 syscalls ≈
/// 50–100 µs — about one near-empty round — and a smaller one would
/// fall through to the park every round. Past the budget a worker
/// waiting out a peer's long `round()` sleeps instead of burning its
/// core (`tests/distributed_idle.rs`).
const BARRIER_SPIN_POLLS: u32 = 256;

enum Cmd {
    /// Run one protocol round on every hosted machine and send the
    /// staged frames.
    Round { round: u64 },
    /// All workers have reported; `expected[j·k + src]` is the
    /// cumulative frame count the block's `j`-th machine is owed from
    /// `src` — drain until whole, deliver under the budget, report.
    Deliver { expected: Box<[u32]> },
    /// Ship the final states back and exit.
    Finish,
    /// Teardown after a failure: exit immediately, no final state.
    Abort,
}

/// Everything one hosted machine accumulated, shipped back on `Finish`.
struct FinalState<P: Protocol> {
    proto: P,
    /// This machine's delivery core: the receive side of its metrics.
    inbound: Inbound<P::Msg>,
    /// What its outgoing frames measured. `messages` / `logical_bits`
    /// count each link message once, at staging, so they double as
    /// this machine's `sent_msgs` / `sent_bits`.
    wire: WireReport,
}

enum Resp<P: Protocol> {
    /// Round compute + staging done for the whole block:
    /// `counts[j·k + dst]` is the cumulative frames its `j`-th machine
    /// staged for `dst` (the coordinator transposes these into
    /// `Deliver`).
    Sent { counts: Box<[u32]> },
    /// Delivery done: the block's summed slice of the round's tally.
    Round(RoundTally),
    /// The block's final states, in machine order.
    Final(Vec<FinalState<P>>),
    /// The worker's thread panicked; sent best-effort from the panic
    /// handler so the coordinator can type the failure (by the
    /// worker's [`Marker`]).
    Panicked { message: String },
}

/// Where a worker is: the machine it last started a step on — its
/// `round()`, its delivery, or its planned crash — and how many steps
/// it has started. The coordinator types every failure by the marker's
/// machine, never by the worker, and keeps waiting out a barrier while
/// `steps` moves, so the deadline is per machine rather than per block.
struct Marker {
    machine: AtomicUsize,
    steps: AtomicU64,
}

impl Marker {
    fn at(machine: MachineIdx) -> Marker {
        Marker {
            machine: AtomicUsize::new(machine),
            steps: AtomicU64::new(0),
        }
    }

    fn set(&self, machine: MachineIdx) {
        self.machine.store(machine, Ordering::Release);
        self.steps.fetch_add(1, Ordering::Release);
    }

    fn machine(&self) -> MachineIdx {
        self.machine.load(Ordering::Acquire)
    }

    fn steps(&self) -> u64 {
        self.steps.load(Ordering::Acquire)
    }
}

/// The sending half of a machine's wire: outgoing channels, per-link
/// sequence numbers, the current round's retention buffer (for
/// NACK-driven retransmits), overflow/delay queues, and the fault
/// adversary itself.
struct Outwire {
    me: MachineIdx,
    plan: FaultPlan,
    /// Whether the plan can touch frames; when `false` the retention
    /// and fault paths are skipped entirely (the zero-overhead path).
    faulty: bool,
    /// Outgoing channels by destination; `None` for self or a peer
    /// that hung up (crashed).
    txs: Vec<Option<Sender<Vec<u8>>>>,
    /// Next batch sequence number per destination — cumulative over the
    /// whole run, so stale frames from earlier rounds can never alias
    /// fresh ones.
    seq_next: Vec<u32>,
    /// This round's staged frames per destination, kept for
    /// retransmission. Cleared at round start: the barrier proves the
    /// previous round was fully absorbed.
    retained: Vec<Vec<(u32, Vec<u8>)>>,
    /// Frames waiting for channel capacity (or fault-delayed), FIFO
    /// per destination.
    pending: Vec<VecDeque<Vec<u8>>>,
    /// Physical transmissions attempted per destination — the fault
    /// adversary's decision key, so every attempt draws a fresh fate.
    attempts: Vec<u64>,
    /// NACK ordinals per source being nagged.
    nacks_sent: Vec<u32>,
    /// This machine's slice of the run's [`WireReport`].
    report: WireReport,
}

impl Outwire {
    fn new(me: MachineIdx, k: usize, plan: FaultPlan, txs: Vec<Option<Sender<Vec<u8>>>>) -> Self {
        Outwire {
            me,
            plan,
            faulty: plan.any(),
            txs,
            seq_next: vec![0; k],
            retained: vec![Vec::new(); k],
            pending: (0..k).map(|_| VecDeque::new()).collect(),
            attempts: vec![0; k],
            nacks_sent: vec![0; k],
            report: WireReport::default(),
        }
    }

    /// Drops the previous round's retention — every retained frame was
    /// provably absorbed (the round barrier certifies it).
    fn start_round(&mut self) {
        if self.faulty {
            for r in &mut self.retained {
                r.clear();
            }
        }
    }

    /// Stages one round's queued messages for `dst` as a single batch
    /// frame: assigns the next sequence number, accounts the frame
    /// once (per *first framing*, not per physical copy — a
    /// fault-dropped first transmission still counts here, its
    /// retransmissions never do), retains it for NACKs when
    /// faults are live, and transmits. `scratch` is the worker's
    /// reusable bit buffer; the frame `Vec` is the one allocation per
    /// (link, round), owned by the channel from here on.
    fn stage_batch<M: WireCodec>(&mut self, dst: MachineIdx, msgs: &[M], scratch: &mut BitWriter) {
        let seq = self.seq_next[dst];
        self.seq_next[dst] += 1;
        let mut frame = Vec::new();
        let stats = encode_batch_frame_into(msgs, seq, scratch, &mut frame);
        self.report.frames += 1;
        self.report.frame_bytes += frame.len() as u64;
        self.report.payload_bytes += (frame.len() - FRAME_HEADER_BYTES) as u64;
        self.report.payload_bits += stats.payload_bits;
        if self.faulty {
            self.retained[dst].push((seq, frame.clone()));
        }
        self.transmit(dst, frame);
    }

    /// One physical transmission through the adversary: the frame may
    /// be dropped, duplicated, bit-flipped, or parked in the pending
    /// queue. Never blocks.
    fn transmit(&mut self, dst: MachineIdx, frame: Vec<u8>) {
        if self.txs[dst].is_none() {
            return; // peer hung up: the coordinator will type the failure
        }
        if !self.faulty {
            self.enqueue(dst, frame);
            return;
        }
        let fate = self
            .plan
            .fate(self.me, dst, self.attempts[dst], frame.len() as u64 * 8);
        self.attempts[dst] += 1;
        if fate.drop {
            return;
        }
        if fate.duplicate {
            self.report.retransmit_frames += 1;
            self.report.retransmit_bytes += frame.len() as u64;
            self.enqueue(dst, frame.clone());
        }
        let mut frame = frame;
        if let Some(bit) = fate.corrupt_bit {
            frame[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        if fate.delay {
            self.pending[dst].push_back(frame);
        } else {
            self.enqueue(dst, frame);
        }
    }

    /// Channel push with local overflow: the frame queues behind any
    /// already-pending ones (preserving per-link FIFO) and the link is
    /// pumped.
    fn enqueue(&mut self, dst: MachineIdx, frame: Vec<u8>) {
        self.pending[dst].push_back(frame);
        self.pump_link(dst);
    }

    /// Pushes `dst`'s pending frames into its channel until it fills;
    /// a disconnected channel means the peer crashed and the link is
    /// void.
    fn pump_link(&mut self, dst: MachineIdx) {
        while let Some(frame) = self.pending[dst].pop_front() {
            let Some(tx) = self.txs[dst].as_ref() else {
                self.pending[dst].clear();
                return;
            };
            match tx.try_send(frame) {
                Ok(()) => {}
                Err(TrySendError::Full(frame)) => {
                    self.pending[dst].push_front(frame);
                    return;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.txs[dst] = None;
                    self.pending[dst].clear();
                    return;
                }
            }
        }
    }

    /// Pushes pending frames into channels as capacity frees up.
    fn pump(&mut self) {
        for dst in 0..self.txs.len() {
            self.pump_link(dst);
        }
    }

    fn pending_empty(&self) -> bool {
        self.pending.iter().all(VecDeque::is_empty)
    }

    /// Services a retransmit request from `dst`: re-sends every
    /// retained frame with `seq >= from_seq`, each through the
    /// adversary again. A stale NACK (from a round already absorbed)
    /// at worst re-sends frames the receiver will discard as
    /// duplicates.
    fn handle_nack(&mut self, dst: MachineIdx, from_seq: u32) {
        let frames: Vec<Vec<u8>> = self.retained[dst]
            .iter()
            .filter(|(seq, _)| *seq >= from_seq)
            .map(|(_, frame)| frame.clone())
            .collect();
        for frame in frames {
            self.report.retransmit_frames += 1;
            self.report.retransmit_bytes += frame.len() as u64;
            self.transmit(dst, frame);
        }
    }

    /// Asks `src` to retransmit everything from `from_seq` on.
    fn send_nack(&mut self, src: MachineIdx, from_seq: u32) {
        let nack_seq = self.nacks_sent[src];
        self.nacks_sent[src] += 1;
        let frame = crate::codec::encode_nack_frame(from_seq, nack_seq);
        self.report.nack_frames += 1;
        self.report.nack_bytes += frame.len() as u64;
        self.transmit(src, frame);
    }

    /// Simulates this machine's death: closes every outgoing channel
    /// (peers see `Disconnected` and stop waiting on the wire).
    fn sever(&mut self) {
        for tx in &mut self.txs {
            *tx = None;
        }
        for q in &mut self.pending {
            q.clear();
        }
    }
}

/// The receiving half: incoming channels plus the per-source sequence
/// cursor and reorder buffer that turn an unreliable frame stream back
/// into the exact FIFO the logical model requires.
struct Inwire {
    /// Incoming channels by source; `None` for self or a hung-up peer.
    rxs: Vec<Option<Receiver<Vec<u8>>>>,
    /// Next expected batch sequence number per source (== batches
    /// absorbed, since sequence numbers are cumulative).
    expect: Vec<u32>,
    /// Out-of-order arrivals waiting for the gap to fill, per source —
    /// stored as the raw (already CRC-validated) frames, so the
    /// messages inside are only ever decoded once, in sequence order,
    /// straight out of the frame buffer.
    ooo: Vec<BTreeMap<u32, Vec<u8>>>,
}

impl Inwire {
    fn new(rxs: Vec<Option<Receiver<Vec<u8>>>>) -> Self {
        let k = rxs.len();
        Inwire {
            rxs,
            expect: vec![0; k],
            ooo: (0..k).map(|_| BTreeMap::new()).collect(),
        }
    }

    /// Has every source delivered all frames the coordinator says it
    /// staged?
    fn complete(&self, me: MachineIdx, expected: &[u32]) -> bool {
        self.expect
            .iter()
            .enumerate()
            .all(|(src, &got)| src == me || got >= expected[src])
    }
}

/// Absorbs every message of a validated in-sequence batch frame from
/// `src` into the local links, zero-copy: records decode through
/// borrowed sub-readers over the frame buffer itself.
fn absorb_frame<M: WireCodec>(view: &FrameView<'_>, src: MachineIdx, inb: &mut Inbound<M>) {
    decode_batch::<M>(view, |msg, bits| inb.push(src, msg, bits)).unwrap_or_else(|e| {
        // lint: allow(panic) — a CRC-valid frame that fails to decode is a codec bug, not a wire fault; fail loudly
        panic!(
            "machine {}: undecodable batch frame from machine {src}: {e}",
            inb.me
        )
    });
}

/// Drains incoming channels: validates each frame (CRC + header),
/// discards corrupted and duplicate frames, services NACKs, buffers
/// out-of-order arrivals, and absorbs in-sequence batches into the
/// local links — in sequence order exactly once, which is what keeps
/// the logical transcript bit-identical under faults.
///
/// `owed` (a `Deliver`'s per-source counts) limits the drain to the
/// links still behind their count — only sound on a clean wire, where
/// a link carries nothing but the data frames it owes. `None` drains
/// every link, as a faulty wire needs: NACKs arrive on any of them.
fn drain_incoming<M: WireCodec>(
    inw: &mut Inwire,
    out: &mut Outwire,
    inb: &mut Inbound<M>,
    owed: Option<&[u32]>,
) {
    for src in 0..inw.rxs.len() {
        if owed.is_some_and(|expected| inw.expect[src] >= expected[src]) {
            continue;
        }
        let mut hung_up = false;
        {
            let Some(rx) = inw.rxs[src].as_ref() else {
                continue;
            };
            loop {
                let frame = match rx.try_recv() {
                    Ok(frame) => frame,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Crashed peer; whatever it still owed will
                        // surface as a barrier timeout.
                        hung_up = true;
                        break;
                    }
                };
                let view = match split_frame(&frame) {
                    Ok(view) => view,
                    // Corrupted in transit: drop it. The sequence gap
                    // is repaired by NACK/retransmit.
                    Err(_) => continue,
                };
                if view.kind == FRAME_KIND_NACK {
                    let from = decode_nack(&view).unwrap_or_else(|e| {
                        // lint: allow(panic) — a CRC-valid NACK that fails to decode is a codec bug, not a wire fault
                        panic!("machine {}: malformed NACK from {src}: {e}", inb.me)
                    });
                    out.handle_nack(src, from);
                    continue;
                }
                if view.seq < inw.expect[src] {
                    continue; // duplicate or stale retransmission
                }
                if view.seq == inw.expect[src] {
                    absorb_frame(&view, src, inb);
                    inw.expect[src] += 1;
                    while let Some(buffered) = inw.ooo[src].remove(&inw.expect[src]) {
                        let v = split_frame(&buffered)
                            // lint: allow(panic) — buffer invariant: frames are CRC-validated before entering `ooo`
                            .expect("reorder buffer only holds validated frames");
                        absorb_frame(&v, src, inb);
                        inw.expect[src] += 1;
                    }
                } else {
                    let seq = view.seq;
                    inw.ooo[src].entry(seq).or_insert(frame);
                }
            }
        }
        if hung_up {
            inw.rxs[src] = None;
        }
    }
}

/// One machine as a worker hosts it: everything not shared across the
/// block — protocol, RNG stream, delivery core, both halves of its
/// wire, inbox and the status the sparse-rounds rule reads.
struct Host<P: Protocol> {
    me: MachineIdx,
    proto: P,
    rng: ChaCha8Rng,
    inb: Inbound<P::Msg>,
    inw: Inwire,
    out: Outwire,
    inbox: Vec<Envelope<P::Msg>>,
    /// What this machine's last `round()` returned: with the inbox, the
    /// input of the sparse-rounds rule.
    last: Status,
}

impl<P: Protocol> Host<P> {
    /// Runs this machine's `round()` and ships what it queued: one batch
    /// frame per destination with traffic, in destination order — even
    /// when the destination is hosted by the same worker. Self-sends
    /// bypass serialization and stay local, free. `outbox`, `staged`
    /// and `scratch` are the worker's, shared by every machine it hosts.
    fn compute(
        &mut self,
        config: &NetConfig,
        round: u64,
        shared: u64,
        outbox: &mut Outbox<P::Msg>,
        staged: &mut [Vec<P::Msg>],
        scratch: &mut BitWriter,
    ) {
        let mut ctx = RoundCtx {
            round,
            me: self.me,
            k: config.k,
            bandwidth_bits: config.bandwidth_bits,
            shared_seed: shared,
            rng: &mut self.rng,
        };
        self.last = self.proto.round(&mut ctx, &mut self.inbox, outbox);
        self.inbox.clear();
        for (dst, msg) in outbox.drain() {
            if dst == self.me {
                self.inb.push_self(msg);
                continue;
            }
            // Sender-side accounting uses the logical size, as at
            // `Network::stage`; the frame is the real bytes.
            self.out.report.messages += 1;
            self.out.report.logical_bits += msg.bits().max(1);
            staged[dst].push(msg);
        }
        // Per-link FIFO is the staging order above.
        for (dst, batch) in staged.iter_mut().enumerate() {
            if !batch.is_empty() {
                self.out.stage_batch(dst, batch, scratch);
                batch.clear();
            }
        }
    }

    fn drain(&mut self, owed: Option<&[u32]>) {
        drain_incoming(&mut self.inw, &mut self.out, &mut self.inb, owed);
    }
}

/// The machines one worker hosts, `k` wide: each `Deliver` row is `k`
/// counts per host.
struct Block<P: Protocol> {
    k: usize,
    faulty: bool,
    hosts: Vec<Host<P>>,
}

impl<P: Protocol> Block<P> {
    /// Host `j`'s row of a `Deliver`.
    fn owed<'e>(&self, j: usize, expected: &'e [u32]) -> &'e [u32] {
        &expected[j * self.k..(j + 1) * self.k]
    }

    /// Services the whole block's wire: every link drained, every
    /// pending frame pumped.
    fn service(&mut self) {
        for h in &mut self.hosts {
            h.drain(None);
            h.out.pump();
        }
    }

    /// Asks every source still behind its `Deliver` count for a
    /// retransmit, for every hosted machine.
    fn nack_missing(&mut self, expected: &[u32]) {
        for (h, row) in self.hosts.iter_mut().zip(expected.chunks_exact(self.k)) {
            for (src, &want) in row.iter().enumerate() {
                if src != h.me && h.inw.expect[src] < want {
                    h.out.send_nack(src, h.inw.expect[src]);
                }
            }
        }
    }
}

/// The message-passing engine: a pool of worker threads each hosting a
/// block of machines, `k·(k−1)` bounded byte channels, a round-barrier
/// coordinator. Transcript-identical to [`super::SequentialEngine`] —
/// including under injected wire faults (see the module docs' failure
/// model); additionally measures real frame sizes into a
/// [`WireReport`].
#[derive(Debug, Default, Clone, Copy)]
pub struct DistributedEngine;

impl DistributedEngine {
    /// Executes `machines` under `config` on a reliable wire;
    /// semantics identical to [`super::SequentialEngine::run`], plus a
    /// populated [`RunReport::wire`].
    ///
    /// # Errors
    /// [`EngineError::InvalidConfig`] if the config fails
    /// [`NetConfig::validate`] or `machines.len() != config.k`;
    /// [`EngineError::RoundLimitExceeded`] if the safety valve fires
    /// (with the same payload as the sequential engine);
    /// [`EngineError::MachineLost`] / [`EngineError::WorkerPanicked`]
    /// if a machine stalls past the barrier timeout or panics.
    pub fn run<P: Protocol>(
        config: NetConfig,
        machines: Vec<P>,
    ) -> Result<RunReport<P>, EngineError> {
        Self::run_with_faults(config, machines, None)
    }

    /// [`DistributedEngine::run`] under an adversarial wire: `faults`
    /// injects frame drops, duplicates, corruption, delays, and at
    /// most one machine crash (see [`FaultPlan`] and the module docs'
    /// failure model). `None` is the reliable wire.
    ///
    /// # Errors
    /// As [`DistributedEngine::run`]; additionally
    /// [`EngineError::InvalidConfig`] when the plan crashes a machine
    /// index `≥ k`, and [`EngineError::MachineLost`] for the planned
    /// crash itself.
    pub fn run_with_faults<P: Protocol>(
        config: NetConfig,
        machines: Vec<P>,
        faults: Option<FaultPlan>,
    ) -> Result<RunReport<P>, EngineError> {
        admit(&config, machines.len())?;
        let plan = faults.unwrap_or_default();
        if let Some(crash) = plan.crash {
            if crash.machine >= config.k {
                return Err(EngineError::InvalidConfig {
                    reason: format!(
                        "fault plan crashes machine {} but k = {}",
                        crash.machine, config.k
                    ),
                });
            }
        }
        let barrier = barrier_timeout(&plan)?;
        let workers = crossbeam::thread::available_parallelism();
        run_pool(config, machines, plan, barrier, workers)
    }
}

/// The engine proper, on `workers` threads (clamped to `1..=k`): worker
/// `w` hosts machines `w·k/W .. (w+1)·k/W`. The public entry points
/// call it with `min(k, cores)`; tests pin other pool shapes.
pub(crate) fn run_pool<P: Protocol>(
    config: NetConfig,
    machines: Vec<P>,
    plan: FaultPlan,
    barrier: Duration,
    workers: usize,
) -> Result<RunReport<P>, EngineError> {
    let k = config.k;
    let workers = workers.clamp(1, k);
    let shared = rng::shared_seed(config.seed);
    let bounds: Vec<usize> = (0..=workers).map(|w| w * k / workers).collect();

    // Byte channels for every ordered pair, built straight into each
    // machine's outgoing row (`out_txs[src][dst]`) and incoming column
    // (`in_rxs[dst][src]`); the diagonal stays local.
    let mut out_txs: Vec<Vec<Option<Sender<Vec<u8>>>>> =
        (0..k).map(|_| Vec::with_capacity(k)).collect();
    let mut in_rxs: Vec<Vec<Option<Receiver<Vec<u8>>>>> =
        (0..k).map(|_| Vec::with_capacity(k)).collect();
    for (src, txs) in out_txs.iter_mut().enumerate() {
        for (dst, rxs) in in_rxs.iter_mut().enumerate() {
            let (tx, rx) = if src == dst {
                (None, None)
            } else {
                let (tx, rx) = bounded::<Vec<u8>>(LINK_CHANNEL_FRAMES);
                (Some(tx), Some(rx))
            };
            txs.push(tx);
            rxs.push(rx);
        }
    }
    let mut hosts = machines
        .into_iter()
        .zip(out_txs)
        .zip(in_rxs)
        .enumerate()
        .map(|(me, ((proto, txs), rxs))| Host {
            me,
            proto,
            rng: rng::machine_rng(config.seed, me),
            inb: Inbound::new(k, me),
            inw: Inwire::new(rxs),
            out: Outwire::new(me, k, plan, txs),
            inbox: Vec::new(),
            last: Status::Active,
        });
    let markers: Vec<Marker> = bounds[..workers].iter().map(|&lo| Marker::at(lo)).collect();

    crossbeam::thread::scope(|scope| {
        let mut cmd_txs: Vec<Sender<Cmd>> = Vec::with_capacity(workers);
        let mut resp_rxs: Vec<Receiver<Resp<P>>> = Vec::with_capacity(workers);
        for (w, marker) in markers.iter().enumerate() {
            let block = Block {
                k,
                faulty: plan.any(),
                hosts: hosts.by_ref().take(bounds[w + 1] - bounds[w]).collect(),
            };
            let (cmd_tx, cmd_rx) = bounded::<Cmd>(1);
            let (resp_tx, resp_rx) = bounded::<Resp<P>>(1);
            cmd_txs.push(cmd_tx);
            resp_rxs.push(resp_rx);
            scope.spawn(move |_| {
                // Capture panics (typically a protocol's own `round`) so
                // a worker death becomes a typed report instead of a
                // poisoned join.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_worker(config, shared, plan, block, marker, &cmd_rx, &resp_tx)
                }));
                if let Err(payload) = result {
                    // `&*payload`: reborrow the *contents* — a bare
                    // `&payload` would unsize the Box itself into the
                    // `dyn Any` and every downcast would miss.
                    let _ = resp_tx.try_send(Resp::Panicked {
                        message: panic_message(&*payload),
                    });
                }
            });
        }
        let coord = Coordinator {
            resp_rxs: &resp_rxs,
            markers: &markers,
            barrier,
        };

        // The barrier phases of the module docs, each round closed by
        // the same `RoundLedger::close` as the sequential engine —
        // plus barrier timeouts and typed failure propagation.
        let mut sent = vec![0u32; k * k];
        let mut ledger = RoundLedger::default();
        let mut run_rounds = || -> Result<(), EngineError> {
            loop {
                let round = ledger.iterations;
                for (w, tx) in cmd_txs.iter().enumerate() {
                    if tx.send(Cmd::Round { round }).is_err() {
                        return Err(coord.gone(w));
                    }
                }
                for w in 0..workers {
                    match coord.await_resp(w, round)? {
                        Resp::Sent { counts } => {
                            sent[bounds[w] * k..bounds[w + 1] * k].copy_from_slice(&counts);
                        }
                        // lint: allow(panic) — worker protocol invariant: Cmd::Round is always answered by Resp::Sent
                        _ => unreachable!("Round is answered by Sent first"),
                    }
                }
                for (w, tx) in cmd_txs.iter().enumerate() {
                    // Column `dst` of the count matrix, for each of the
                    // block's machines in turn.
                    let expected: Box<[u32]> = (bounds[w]..bounds[w + 1])
                        .flat_map(|dst| sent.iter().skip(dst).step_by(k).copied())
                        .collect();
                    if tx.send(Cmd::Deliver { expected }).is_err() {
                        return Err(coord.gone(w));
                    }
                }
                let mut tally = RoundTally::default();
                for w in 0..workers {
                    match coord.await_resp(w, round)? {
                        Resp::Round(slice) => tally.absorb(slice),
                        // lint: allow(panic) — worker protocol invariant: Cmd::Deliver is always answered by Resp::Round
                        _ => unreachable!("Deliver is answered by Round"),
                    }
                }
                if ledger.close(&config, tally)? {
                    return Ok(());
                }
            }
        };

        let result = run_rounds().and_then(|()| {
            // Collect final states; a worker can in principle die even
            // here, so the teardown path stays typed too.
            for (w, tx) in cmd_txs.iter().enumerate() {
                if tx.send(Cmd::Finish).is_err() {
                    return Err(coord.gone(w));
                }
            }
            let mut metrics = Metrics::new(k);
            metrics.rounds = ledger.comm_rounds;
            let mut wire = WireReport::default();
            let mut machines = Vec::with_capacity(k);
            for w in 0..workers {
                match coord.await_resp(w, ledger.iterations)? {
                    Resp::Final(finals) => {
                        for f in finals {
                            let i = machines.len();
                            metrics.sent_msgs[i] = f.wire.messages;
                            metrics.sent_bits[i] = f.wire.logical_bits;
                            f.inbound.fold_into(&mut metrics);
                            wire.absorb(&f.wire);
                            machines.push(f.proto);
                        }
                    }
                    // lint: allow(panic) — worker protocol invariant: Cmd::Finish is always answered by Resp::Final
                    _ => unreachable!("Finish yields Final"),
                }
            }
            debug_assert_lemma3(&metrics, config.bandwidth_bits);
            Ok(RunReport {
                machines,
                metrics,
                wire: Some(wire),
            })
        });
        if result.is_err() {
            // Graceful teardown: every surviving worker (including a
            // crash-simulating one) is polling for commands and exits on
            // Abort; channels of already-dead workers just error. The
            // scope below then joins every thread.
            for tx in &cmd_txs {
                let _ = tx.send(Cmd::Abort);
            }
        }
        result
    })
    // lint: allow(panic) — unreachable: every worker body runs under catch_unwind, so the scope's Err arm is never produced
    .expect("scoped workers never propagate panics (caught in the worker)")
}

/// The coordinator's view of the pool: one response channel and one
/// [`Marker`] per worker, and the barrier deadline.
struct Coordinator<'a, P: Protocol> {
    resp_rxs: &'a [Receiver<Resp<P>>],
    markers: &'a [Marker],
    barrier: Duration,
}

impl<P: Protocol> Coordinator<'_, P> {
    /// The coordinator side of the wait discipline (module docs,
    /// "Waiting"): waits for worker `w`'s next response — polling for
    /// [`BARRIER_SPIN_POLLS`] rounds first, then parked in
    /// `recv_timeout(barrier)` — converting panics, silent exits, and
    /// barrier timeouts into errors typed by the machine `w`'s marker
    /// names.
    ///
    /// The deadline is per machine: a park that times out while the
    /// worker started a new step (another machine's `round()` or
    /// delivery) parks again, so only one machine silent for a whole
    /// window reads as lost — never a block of healthy ones whose
    /// rounds add up past it. On a timeout the other response channels
    /// are swept for a `Panicked` report first, so a worker that hangs
    /// *because a peer died* blames the culprit, not the victim.
    fn await_resp(&self, w: usize, round: u64) -> Result<Resp<P>, EngineError> {
        let rx = &self.resp_rxs[w];
        let marker = &self.markers[w];
        let mut seen = marker.steps();
        let backoff = Backoff::new();
        let mut polled = rx.try_recv();
        for _ in 0..BARRIER_SPIN_POLLS {
            if !matches!(polled, Err(TryRecvError::Empty)) {
                break;
            }
            backoff.snooze();
            polled = rx.try_recv();
        }
        let resp = match polled {
            Ok(resp) => Ok(resp),
            Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => loop {
                match rx.recv_timeout(self.barrier) {
                    Err(RecvTimeoutError::Timeout) if marker.steps() != seen => {
                        seen = marker.steps();
                    }
                    other => break other,
                }
            },
        };
        match resp {
            Ok(Resp::Panicked { message }) => Err(EngineError::WorkerPanicked {
                machine: marker.machine(),
                message,
            }),
            Ok(resp) => Ok(resp),
            Err(RecvTimeoutError::Disconnected) => Err(self.gone(w)),
            Err(RecvTimeoutError::Timeout) => {
                for (rx, marker) in self.resp_rxs.iter().zip(self.markers) {
                    // The run is failing regardless; eating a pending
                    // healthy response here is fine.
                    if let Ok(Resp::Panicked { message }) = rx.try_recv() {
                        return Err(EngineError::WorkerPanicked {
                            machine: marker.machine(),
                            message,
                        });
                    }
                }
                Err(EngineError::MachineLost {
                    machine: marker.machine(),
                    round,
                })
            }
        }
    }

    /// Types the failure of a worker whose thread is already gone:
    /// prefer its own panic report if one is queued, otherwise a
    /// placeholder — either way naming its marker's machine.
    fn gone(&self, w: usize) -> EngineError {
        let machine = self.markers[w].machine();
        match self.resp_rxs[w].try_recv() {
            Ok(Resp::Panicked { message }) => EngineError::WorkerPanicked { machine, message },
            _ => silent_exit(machine),
        }
    }
}

/// What ended a worker's barrier wait.
enum Wake {
    /// The coordinator's next command; a coordinator that hung up reads
    /// as [`Cmd::Abort`].
    Cmd(Cmd),
    /// Every frame owed to the awaited machine has been absorbed — only
    /// ever the answer to a wait that passed `owed` counts.
    Whole,
}

/// The worker side of the wait discipline (module docs, "Waiting"):
/// waits for the coordinator's next command or — when `owed` carries a
/// host index `j` and a `Deliver`'s counts — for every frame owed to
/// the block's `j`-th machine to be absorbed, whichever comes first.
///
/// While a [`FaultPlan`] is live the whole block's wire is serviced
/// between polls and the wait never parks: a peer's delivery may hinge
/// on our retransmits even after our own round report went out, and
/// machines still owed frames pace NACKs off the poll count. On a clean
/// wire nothing needs servicing while idle (at most one data frame per
/// link is in flight against [`LINK_CHANNEL_FRAMES`] slots, so no
/// sender ever waits on us), which is what makes it safe to park in
/// `recv()` once [`BARRIER_SPIN_POLLS`] polls came up empty — and an
/// owed wait drains only the awaited machine's links still behind
/// their count.
fn await_cmd<P: Protocol>(
    cmd_rx: &Receiver<Cmd>,
    block: &mut Block<P>,
    owed: Option<(usize, &[u32])>,
) -> Wake {
    let backoff = Backoff::new();
    let mut polls: u32 = 0;
    loop {
        match cmd_rx.try_recv() {
            Ok(cmd) => return Wake::Cmd(cmd),
            Err(TryRecvError::Disconnected) => return Wake::Cmd(Cmd::Abort),
            Err(TryRecvError::Empty) => {}
        }
        if block.faulty {
            block.service();
        }
        if let Some((j, expected)) = owed {
            let row = block.owed(j, expected);
            let host = &mut block.hosts[j];
            if !block.faulty {
                host.drain(Some(row));
            }
            if host.inw.complete(host.me, row) {
                return Wake::Whole;
            }
        }
        polls += 1;
        if block.faulty {
            if let Some((_, expected)) = owed {
                if polls.is_multiple_of(NACK_IDLE_POLLS) {
                    block.nack_missing(expected);
                }
            }
        } else if polls >= BARRIER_SPIN_POLLS {
            return Wake::Cmd(cmd_rx.recv().unwrap_or(Cmd::Abort));
        }
        backoff.snooze();
    }
}

/// The worker loop for one block of machines.
fn run_worker<P: Protocol>(
    config: NetConfig,
    shared: u64,
    plan: FaultPlan,
    mut block: Block<P>,
    marker: &Marker,
    cmd_rx: &Receiver<Cmd>,
    resp_tx: &Sender<Resp<P>>,
) {
    let k = config.k;
    // Pooled send-side buffers, shared by every hosted machine and
    // reused across every round: one outbox, one staging `Vec` per
    // destination collecting a machine's messages for that link, and
    // one scratch `BitWriter` serializing each batch — so the encode
    // path's only steady-state allocation is the frame the channel takes
    // ownership of, one per active link per round.
    let mut outbox: Outbox<P::Msg> = Outbox::new(k);
    let mut staged: Vec<Vec<P::Msg>> = (0..k).map(|_| Vec::new()).collect();
    let mut scratch = BitWriter::new();

    loop {
        match await_cmd(cmd_rx, &mut block, None) {
            Wake::Cmd(Cmd::Round { round }) => {
                for h in &mut block.hosts {
                    marker.set(h.me);
                    if plan.crashes(h.me, round) {
                        // Simulated crash of this machine alone: close
                        // its channels (peers see a hung-up link, the
                        // coordinator a missed barrier naming it) and
                        // only keep consuming commands so the final
                        // Abort can reach us for a clean join.
                        h.out.sever();
                        h.inw.rxs.clear();
                        loop {
                            match cmd_rx.recv() {
                                Ok(Cmd::Abort | Cmd::Finish) | Err(_) => return,
                                Ok(_) => {}
                            }
                        }
                    }
                    h.out.start_round();
                    if runs(h.last, !h.inbox.is_empty()) {
                        h.compute(
                            &config,
                            round,
                            shared,
                            &mut outbox,
                            &mut staged,
                            &mut scratch,
                        );
                    }
                }
                if block.faulty {
                    for h in &mut block.hosts {
                        h.out.pump();
                    }
                } else {
                    // Reliable wire: flush everything before reporting,
                    // draining our own incoming channels against
                    // backpressure cycles — so the barrier proof "all
                    // Sent ⇒ all frames visible" holds with no NACK
                    // machinery in play.
                    let backoff = Backoff::new();
                    while block.hosts.iter().any(|h| !h.out.pending_empty()) {
                        block.service();
                        backoff.snooze();
                    }
                }
                let counts = block
                    .hosts
                    .iter()
                    .flat_map(|h| h.out.seq_next.iter().copied())
                    .collect();
                if resp_tx.send(Resp::Sent { counts }).is_err() {
                    return;
                }
                // Barrier: the coordinator certifies every worker
                // reported (`Deliver`); then, machine by machine, every
                // owed frame is absorbed and delivered under the budget.
                let mut owed: Option<Box<[u32]>> = None;
                let mut tally = RoundTally::default();
                let mut next = 0;
                while next < block.hosts.len() {
                    match await_cmd(cmd_rx, &mut block, owed.as_deref().map(|e| (next, e))) {
                        Wake::Cmd(Cmd::Deliver { expected }) if owed.is_none() => {
                            owed = Some(expected);
                            marker.set(block.hosts[0].me);
                        }
                        Wake::Whole => {
                            let h = &mut block.hosts[next];
                            tally.absorb(RoundTally {
                                active_machines: usize::from(h.last == Status::Active),
                                ..h.inb.deliver(config.bandwidth_bits, &mut h.inbox)
                            });
                            next += 1;
                            if let Some(h) = block.hosts.get(next) {
                                marker.set(h.me);
                            }
                        }
                        Wake::Cmd(Cmd::Abort) => return,
                        Wake::Cmd(_) => {
                            // lint: allow(panic) — coordinator protocol invariant: between `Sent` and the round report it sends one Deliver, then nothing but Abort
                            unreachable!("only one Deliver, then only Abort, follows Sent")
                        }
                    }
                }
                if resp_tx.send(Resp::Round(tally)).is_err() {
                    return;
                }
            }
            Wake::Cmd(Cmd::Deliver { .. }) | Wake::Whole => {
                // lint: allow(panic) — coordinator protocol invariant: Deliver is only ever sent after a Round, and frames are owed only after a Deliver
                unreachable!("Deliver only follows a Round")
            }
            Wake::Cmd(Cmd::Finish) => break,
            Wake::Cmd(Cmd::Abort) => return,
        }
    }
    let finals = block
        .hosts
        .into_iter()
        .map(|h| FinalState {
            proto: h.proto,
            inbound: h.inb,
            wire: h.out.report,
        })
        .collect();
    let _ = resp_tx.send(Resp::Final(finals));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SequentialEngine;
    use crate::faults::CrashSpec;
    use rand::Rng;

    /// Random traffic with self-sends and oversized messages.
    #[derive(Debug)]
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
            if ctx.round < 4 {
                for _ in 0..ctx.rng.gen_range(0..5) {
                    let dst = ctx.rng.gen_range(0..ctx.k);
                    out.send(dst, ctx.rng.gen::<u32>());
                }
                Status::Active
            } else {
                Status::Done
            }
        }
    }

    fn gossip_machines(k: usize) -> Vec<Gossip> {
        (0..k).map(|_| Gossip { log: Vec::new() }).collect()
    }

    #[test]
    fn distributed_matches_sequential_transcript() {
        // B = 40 bits < one 44-bit... (32-bit messages) — small enough
        // that messages span rounds, exercising partial delivery.
        let cfg = NetConfig::with_bandwidth(7, 40, 2024);
        let seq = SequentialEngine::run(cfg, gossip_machines(7)).unwrap();
        let dist = DistributedEngine::run(cfg, gossip_machines(7)).unwrap();
        assert_eq!(seq.metrics, dist.metrics);
        for (s, d) in seq.machines.iter().zip(&dist.machines) {
            assert_eq!(s.log, d.log);
        }
        assert!(seq.wire.is_none(), "the sequential engine never serializes");
        let wire = dist.wire.expect("distributed run measures frames");
        assert_eq!(wire.logical_bits, dist.metrics.total_bits());
        assert_eq!(wire.messages, dist.metrics.total_msgs());
        assert!(
            wire.frames <= wire.messages,
            "batching can only merge frames, never split them"
        );
        // Each batch payload: an 8-bit count varint plus 5 bytes per
        // u32 message (8-bit length varint + 32 payload bits) — whole
        // bytes throughout, so padding is exactly zero.
        assert_eq!(wire.payload_bytes, wire.frames + 5 * wire.messages);
        assert_eq!(wire.frame_bytes, wire.frames * 21 + wire.payload_bytes);
        assert_eq!(wire.payload_bits, wire.payload_bytes * 8);
        assert_eq!(wire.record_bits(), (wire.frames + wire.messages) * 8);
        assert_eq!(
            wire.padding_bits(),
            0,
            "u32 batch payloads are byte-aligned"
        );
        assert!(wire.wire_vs_logical() > 1.0);
        assert!(wire.msgs_per_frame() >= 1.0);
        // A reliable wire never recovers anything.
        assert_eq!(wire.retransmit_frames, 0);
        assert_eq!(wire.retransmit_bytes, 0);
        assert_eq!(wire.nack_frames, 0);
        assert_eq!(wire.recovery_bytes(), 0);
    }

    #[test]
    fn faulty_wire_is_transcript_identical_and_accounts_recovery() {
        let cfg = NetConfig::with_bandwidth(6, 40, 77);
        let seq = SequentialEngine::run(cfg, gossip_machines(6)).unwrap();
        let plan = FaultPlan {
            seed: 5,
            drop: 0.25,
            duplicate: 0.2,
            corrupt: 0.2,
            delay: 0.25,
            ..FaultPlan::default()
        };
        let dist = DistributedEngine::run_with_faults(cfg, gossip_machines(6), Some(plan)).unwrap();
        assert_eq!(
            seq.metrics, dist.metrics,
            "drop/dup/corrupt/delay must not leak into logical metrics"
        );
        for (s, d) in seq.machines.iter().zip(&dist.machines) {
            assert_eq!(s.log, d.log);
        }
        let wire = dist.wire.unwrap();
        assert_eq!(
            wire.messages,
            dist.metrics.total_msgs(),
            "every logical message framed exactly once, still"
        );
        assert!(wire.frames <= wire.messages);
        assert!(
            wire.retransmit_frames > 0,
            "those rates over this traffic must trigger recovery"
        );
        assert!(wire.recovery_bytes() > 0);
    }

    /// Tentpole contract: one batch frame per (link, round) pair with
    /// queued traffic — counted deterministically with a ring protocol
    /// that sends exactly 3 messages to its successor every round.
    #[test]
    fn one_batch_frame_per_active_link_per_round() {
        #[derive(Debug)]
        struct Ring;
        impl Protocol for Ring {
            type Msg = u32;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                _inbox: &mut Vec<Envelope<u32>>,
                out: &mut Outbox<u32>,
            ) -> Status {
                if ctx.round < 5 {
                    for i in 0..3 {
                        out.send((ctx.me + 1) % ctx.k, i);
                    }
                    Status::Active
                } else {
                    Status::Done
                }
            }
        }
        let k = 6;
        let cfg = NetConfig::with_bandwidth(k, 1 << 12, 11);
        let report = DistributedEngine::run(cfg, (0..k).map(|_| Ring).collect()).unwrap();
        let wire = report.wire.unwrap();
        // 5 sending rounds × k active links, 3 messages each.
        assert_eq!(wire.frames, 5 * k as u64, "one frame per active link-round");
        assert_eq!(wire.messages, 3 * 5 * k as u64);
        assert!((wire.msgs_per_frame() - 3.0).abs() < 1e-12);
        // The batch amortizes the header: 21 bytes per 3 messages.
        assert_eq!(wire.header_bits(), wire.frames * 21 * 8);
    }

    /// Satellite contract: a *batched* frame lost in transit is
    /// NACKed, retransmitted, and every message it contained is
    /// replayed exactly once — the transcript cannot tell.
    #[test]
    fn lost_batches_are_nacked_and_replayed_exactly_once() {
        let cfg = NetConfig::with_bandwidth(6, 40, 123);
        let seq = SequentialEngine::run(cfg, gossip_machines(6)).unwrap();
        let plan = FaultPlan {
            seed: 9,
            drop: 0.5,
            ..FaultPlan::default()
        };
        let dist = DistributedEngine::run_with_faults(cfg, gossip_machines(6), Some(plan)).unwrap();
        assert_eq!(
            seq.metrics, dist.metrics,
            "a replayed batch must deliver its messages exactly once"
        );
        for (s, d) in seq.machines.iter().zip(&dist.machines) {
            assert_eq!(s.log, d.log);
        }
        let wire = dist.wire.unwrap();
        assert!(
            wire.nack_frames > 0 && wire.retransmit_frames > 0,
            "a 50% drop rate must exercise NACK-driven batch replay \
             (nacks = {}, retransmits = {})",
            wire.nack_frames,
            wire.retransmit_frames
        );
    }

    /// Satellite contract: duplicated frames are deduplicated by
    /// sequence number — `link_visits` and the transcripts cannot tell
    /// the difference, while the duplicates show up as recovery
    /// traffic.
    #[test]
    fn duplicate_frames_are_invisible_to_the_transcript() {
        let cfg = NetConfig::with_bandwidth(5, 40, 99);
        let seq = SequentialEngine::run(cfg, gossip_machines(5)).unwrap();
        let plan = FaultPlan {
            seed: 1,
            duplicate: 1.0,
            ..FaultPlan::default()
        };
        let dist = DistributedEngine::run_with_faults(cfg, gossip_machines(5), Some(plan)).unwrap();
        assert_eq!(seq.metrics, dist.metrics);
        assert_eq!(
            seq.metrics.link_visits, dist.metrics.link_visits,
            "dedup must keep the sparse-delivery walk identical"
        );
        for (s, d) in seq.machines.iter().zip(&dist.machines) {
            assert_eq!(s.log, d.log);
        }
        let wire = dist.wire.unwrap();
        assert_eq!(
            wire.retransmit_frames, wire.frames,
            "every frame was duplicated exactly once"
        );
        assert_eq!(wire.nack_frames, 0, "nothing was ever missing");
    }

    #[test]
    fn planned_crash_is_a_typed_machine_lost() {
        let plan = FaultPlan {
            crash: Some(CrashSpec {
                machine: 2,
                round: 1,
            }),
            barrier_timeout_ms: 400,
            ..FaultPlan::default()
        };
        let err = DistributedEngine::run_with_faults(
            NetConfig::with_bandwidth(5, 40, 3),
            gossip_machines(5),
            Some(plan),
        )
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::MachineLost {
                machine: 2,
                round: 1
            }
        );
    }

    #[test]
    fn crash_plan_for_a_machine_out_of_range_is_invalid() {
        let plan = FaultPlan {
            crash: Some(CrashSpec {
                machine: 9,
                round: 0,
            }),
            ..FaultPlan::default()
        };
        let err = DistributedEngine::run_with_faults(
            NetConfig::with_bandwidth(4, 40, 3),
            gossip_machines(4),
            Some(plan),
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidConfig { ref reason } if reason.contains('9')),
            "{err}"
        );
    }

    #[test]
    fn round_limit_error_is_bit_identical_too() {
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
                // Overfeed the link so queues build up.
                out.send((ctx.me + 1) % ctx.k, 1);
                out.send((ctx.me + 1) % ctx.k, 2);
                Status::Active
            }
        }
        let cfg = NetConfig::with_bandwidth(4, 8, 0).max_rounds(6);
        let seq = SequentialEngine::run(cfg, vec![Chatter, Chatter, Chatter, Chatter]).unwrap_err();
        let dist =
            DistributedEngine::run(cfg, vec![Chatter, Chatter, Chatter, Chatter]).unwrap_err();
        assert_eq!(seq, dist, "error payloads must agree field-for-field");
    }

    #[test]
    fn single_machine_runs_without_links() {
        struct Solo {
            echoes: u32,
        }
        impl Protocol for Solo {
            type Msg = u64;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                inbox: &mut Vec<Envelope<u64>>,
                out: &mut Outbox<u64>,
            ) -> Status {
                self.echoes += inbox.len() as u32;
                if ctx.round < 3 {
                    out.send(0, ctx.round); // self-send
                    Status::Active
                } else {
                    Status::Done
                }
            }
        }
        let report =
            DistributedEngine::run(NetConfig::with_bandwidth(1, 8, 5), vec![Solo { echoes: 0 }])
                .unwrap();
        assert_eq!(report.machines[0].echoes, 3);
        assert_eq!(report.metrics.rounds, 0, "self-sends are free");
        let wire = report.wire.unwrap();
        assert_eq!(wire.frames, 0, "nothing ever crossed a channel");
    }

    /// A round fanning hundreds of messages to every peer: all of them
    /// ride one batch frame per link, and FIFO order survives end to
    /// end. (Channel backpressure itself is now exercised by the
    /// recovery traffic of the fault tests — a data round is a single
    /// frame per link.)
    #[test]
    fn channel_backpressure_preserves_fifo() {
        struct Blast {
            got: Vec<u32>,
        }
        impl Protocol for Blast {
            type Msg = u32;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                inbox: &mut Vec<Envelope<u32>>,
                out: &mut Outbox<u32>,
            ) -> Status {
                for env in inbox.iter() {
                    self.got.push(env.msg);
                }
                if ctx.round == 0 {
                    // Far beyond the old per-message channel capacity,
                    // pairwise all-to-all — one big batch per link.
                    for seq in 0..(32 * LINK_CHANNEL_FRAMES as u32) {
                        for dst in 0..ctx.k {
                            if dst != ctx.me {
                                out.send(dst, seq);
                            }
                        }
                    }
                    Status::Active
                } else {
                    Status::Done
                }
            }
        }
        let k = 4;
        let cfg = NetConfig::with_bandwidth(k, 1 << 20, 3);
        let mk = || {
            (0..k)
                .map(|_| Blast { got: Vec::new() })
                .collect::<Vec<_>>()
        };
        let seq = SequentialEngine::run(cfg, mk()).unwrap();
        // The default pool, and one worker — where every frame crosses
        // a channel inside a single thread.
        for dist in [
            DistributedEngine::run(cfg, mk()).unwrap(),
            pool(cfg, mk(), FaultPlan::default(), 1).unwrap(),
        ] {
            assert_eq!(seq.metrics, dist.metrics);
            for (s, d) in seq.machines.iter().zip(&dist.machines) {
                assert_eq!(
                    s.got, d.got,
                    "per-link FIFO order must survive backpressure"
                );
            }
        }
    }

    /// [`run_pool`] with the plan's barrier timeout (no environment).
    fn pool<P: Protocol>(
        cfg: NetConfig,
        machines: Vec<P>,
        plan: FaultPlan,
        workers: usize,
    ) -> Result<RunReport<P>, EngineError> {
        let barrier = barrier_timeout_from(&plan, None).unwrap();
        run_pool(cfg, machines, plan, barrier, workers)
    }

    /// The pool shapes under test at `k` machines: one worker, two,
    /// three (uneven blocks) and one per machine.
    fn shapes(k: usize) -> [usize; 4] {
        [1, 2, 3, k]
    }

    #[test]
    fn every_pool_shape_is_transcript_identical_and_frames_alike() {
        for k in [1, 2, 7, 16] {
            let cfg = NetConfig::with_bandwidth(k, 40, 3200 + k as u64);
            let seq = SequentialEngine::run(cfg, gossip_machines(k)).unwrap();
            let mut wires = Vec::new();
            for w in shapes(k) {
                let dist = pool(cfg, gossip_machines(k), FaultPlan::default(), w).unwrap();
                assert_eq!(seq.metrics, dist.metrics, "k = {k}, W = {w}");
                for (s, d) in seq.machines.iter().zip(&dist.machines) {
                    assert_eq!(s.log, d.log, "k = {k}, W = {w}");
                }
                wires.push(dist.wire.unwrap());
            }
            assert!(
                wires.windows(2).all(|pair| pair[0] == pair[1]),
                "k = {k}: the wire must not depend on the pool: {wires:?}"
            );
        }
    }

    #[test]
    fn every_pool_shape_is_transcript_identical_under_faults() {
        let plans = [
            FaultPlan {
                drop: 0.4,
                ..FaultPlan::default()
            },
            FaultPlan {
                duplicate: 0.5,
                ..FaultPlan::default()
            },
            FaultPlan {
                corrupt: 0.4,
                ..FaultPlan::default()
            },
            FaultPlan {
                delay: 0.5,
                ..FaultPlan::default()
            },
        ];
        for k in [1, 2, 7, 16] {
            let cfg = NetConfig::with_bandwidth(k, 40, 3300 + k as u64);
            let seq = SequentialEngine::run(cfg, gossip_machines(k)).unwrap();
            for (i, plan) in plans.iter().enumerate() {
                let plan = FaultPlan {
                    seed: 40 + i as u64,
                    ..*plan
                };
                for w in shapes(k) {
                    let dist = pool(cfg, gossip_machines(k), plan, w).unwrap();
                    assert_eq!(seq.metrics, dist.metrics, "k = {k}, W = {w}, {plan:?}");
                    for (s, d) in seq.machines.iter().zip(&dist.machines) {
                        assert_eq!(s.log, d.log, "k = {k}, W = {w}, {plan:?}");
                    }
                }
            }
        }
    }

    /// Sleeps `nap` inside `round()` of round 1 if it is one of
    /// `sleepers`; otherwise a ring passing one token per round.
    #[derive(Debug)]
    struct Napper {
        sleepers: Vec<usize>,
        nap: Duration,
    }

    impl Protocol for Napper {
        type Msg = u32;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            _inbox: &mut Vec<Envelope<u32>>,
            out: &mut Outbox<u32>,
        ) -> Status {
            if ctx.round == 1 && self.sleepers.contains(&ctx.me) {
                std::thread::sleep(self.nap);
            }
            if ctx.round < 3 {
                out.send((ctx.me + 1) % ctx.k, ctx.round as u32);
                Status::Active
            } else {
                Status::Done
            }
        }
    }

    fn nappers(k: usize, sleepers: &[usize], nap: Duration) -> Vec<Napper> {
        (0..k)
            .map(|_| Napper {
                sleepers: sleepers.to_vec(),
                nap,
            })
            .collect()
    }

    /// The barrier deadline is per machine: four machines on one worker,
    /// each inside `round()` for 0.6× the timeout, keep their worker
    /// silent for 2.4× it — slow, not lost. One machine silent past it
    /// is still lost, and named.
    #[test]
    fn the_barrier_deadline_is_per_machine_not_per_block() {
        const BARRIER_MS: u64 = 250;
        let plan = FaultPlan {
            barrier_timeout_ms: BARRIER_MS,
            ..FaultPlan::default()
        };
        let cfg = NetConfig::with_bandwidth(4, 64, 12);
        let slow = Duration::from_millis(BARRIER_MS * 6 / 10);
        let report = pool(cfg, nappers(4, &[0, 1, 2, 3], slow), plan, 1)
            .expect("a block of slow machines is not a lost one");
        assert_eq!(report.metrics.rounds, 3);
        let stalled = Duration::from_millis(BARRIER_MS * 4);
        for w in [1, 2] {
            let err = pool(cfg, nappers(4, &[1], stalled), plan, w).unwrap_err();
            assert_eq!(
                err,
                EngineError::MachineLost {
                    machine: 1,
                    round: 1
                },
                "W = {w}"
            );
        }
    }

    /// Failures are typed by the machine at every pool shape, including
    /// machines that neither head nor end their block.
    #[test]
    fn every_pool_shape_names_the_failing_machine() {
        let k = 7;
        let cfg = NetConfig::with_bandwidth(k, 40, 3400);
        for w in shapes(k) {
            let plan = FaultPlan {
                crash: Some(CrashSpec {
                    machine: 4,
                    round: 2,
                }),
                barrier_timeout_ms: 200,
                ..FaultPlan::default()
            };
            let err = pool(cfg, gossip_machines(k), plan, w).unwrap_err();
            assert_eq!(
                err,
                EngineError::MachineLost {
                    machine: 4,
                    round: 2
                },
                "W = {w}"
            );
            let err = pool(cfg, bombs(k, 5), FaultPlan::default(), w).unwrap_err();
            assert!(
                matches!(err, EngineError::WorkerPanicked { machine: 5, ref message }
                    if message.contains("machine 5 went off")),
                "W = {w}: {err:?}"
            );
        }
    }

    /// Machine `victim` panics in round 1; everyone else idles along.
    #[derive(Debug)]
    struct Bomb {
        victim: usize,
    }

    impl Protocol for Bomb {
        type Msg = u32;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            _inbox: &mut Vec<Envelope<u32>>,
            out: &mut Outbox<u32>,
        ) -> Status {
            assert!(
                !(ctx.round == 1 && ctx.me == self.victim),
                "machine {} went off",
                ctx.me
            );
            out.send((ctx.me + 1) % ctx.k, 0);
            if ctx.round < 3 {
                Status::Active
            } else {
                Status::Done
            }
        }
    }

    fn bombs(k: usize, victim: usize) -> Vec<Bomb> {
        (0..k).map(|_| Bomb { victim }).collect()
    }

    #[test]
    fn barrier_timeout_env_is_parsed_hard_and_plan_wins() {
        // Exercised through `barrier_timeout_from` so no test ever
        // plants an invalid value in the process-global environment
        // (the same discipline as `EngineKind::from_env_value`).
        let plan = FaultPlan::default();
        assert_eq!(
            barrier_timeout_from(&plan, None).unwrap(),
            Duration::from_millis(DEFAULT_BARRIER_TIMEOUT_MS)
        );
        assert_eq!(
            barrier_timeout_from(&plan, Some("2500")).unwrap(),
            Duration::from_millis(2500)
        );
        // An explicit plan timeout always wins over the environment.
        let fast = FaultPlan {
            barrier_timeout_ms: 40,
            ..FaultPlan::default()
        };
        assert_eq!(
            barrier_timeout_from(&fast, Some("2500")).unwrap(),
            Duration::from_millis(40)
        );
        for bad in ["0", "-5", "soon", "10s", ""] {
            let err = barrier_timeout_from(&plan, Some(bad)).unwrap_err();
            match &err {
                EngineError::InvalidConfig { reason } => {
                    assert!(reason.contains(BARRIER_TIMEOUT_ENV), "{reason}");
                }
                other => panic!("expected InvalidConfig for {bad:?}, got {other:?}"),
            }
        }
    }
}
