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
//! handed back with the final state. Batching amortizes the 21-byte
//! self-healing header over every message a (link, round) pair
//! carries; each machine accumulates a [`WireReport`] of what its
//! frames measured against the logical [`WireCodec::bits`], and the
//! caller sums them when the run ends.
//!
//! # The pool
//!
//! `W = min(k, available_parallelism())` workers each host a
//! contiguous block of machines (worker `w` runs machines
//! `w·k/W .. (w+1)·k/W`). Worker 0 runs on the caller's thread and the
//! other `W − 1` on scoped threads, so a one-worker pool spawns none.
//! Each hosted machine keeps its own protocol,
//! RNG stream, `Inbound`, both halves of its wire, inbox and last
//! status; a worker shares only scratch across its block — one
//! `Outbox`, one staging row, one `BitWriter`.
//! Frames do not change with the pool: a machine ships one batch per
//! destination and round through that link's channel even when the
//! destination shares its worker, so [`WireReport`] is a function of
//! the transcript alone, whatever `W` is.
//!
//! # Round anatomy (one exchange per round)
//!
//! There is no coordinator. Every worker runs the same steps, keeps its
//! own `RoundLedger`, and meets its peers once per executed round `r`:
//!
//! 1. **Deliver `r`.** Machine by machine, the worker absorbs every
//!    batch frame owed to that machine (the counts came with the last
//!    exchange; see the failure model for how loss is repaired), then
//!    runs its `Inbound::deliver` — the very walk the sequential engine
//!    runs per destination, so only links with queued traffic are
//!    visited, counted in [`crate::Metrics::link_visits`]. The results
//!    sum to its block's slice of the round's `RoundTally` (status,
//!    queue depths, inbox size). A partial-only slice (engine module
//!    docs, *Empty rounds*) also carries the fewest rounds until a front
//!    message on one of its hosted links completes.
//! 2. **Call `r + 1`.** The worker runs [`Protocol::round`] for each of
//!    its machines the sparse-rounds rule (`engine::runs`: its last
//!    status was `Active`, or it has mail) selects, on its locally held
//!    inbox, and ships that machine's batch frames (self-sends bypass
//!    serialization and stay local, free — the same drain-and-move
//!    semantics as the sequential engine). The engine module docs
//!    (*Empty rounds*) show why this look-ahead never calls a round the
//!    ledger does not execute.
//! 3. **Exchange.** The worker sends every peer one share — its tally
//!    slice for `r` and its machines' cumulative per-destination batch
//!    counts — then waits once for the `W − 1` peer shares. The counts
//!    say how many frames each machine is owed by its next delivery.
//! 4. **Close `r`.** The worker sums the slices and closes the round
//!    with the same `RoundLedger::close` as the in-process loop:
//!    communication round counted, then quiescence, then the round
//!    limit — so error cases are bit-identical too. Every worker sums
//!    the same slices, so every worker decides alike. If the round
//!    closed partial-only, `RoundLedger::skip` turns the minimum of the
//!    slices' completions into rounds to skip, and each worker advances
//!    its hosted `Inbound`s by them: skipped rounds cost no exchange.
//!
//! Before round 0 the workers call round 0 and exchange its counts with
//! an empty tally. When the run ends, the spawned workers' final states
//! come back through their join handles.
//!
//! Each worker publishes in a `Marker` the machine and round it is
//! working on — set before that machine's `round()`, before its
//! delivery, and at its planned crash — plus a step count. Every
//! failure is typed by the marker, so it names the machine, never the
//! worker.
//!
//! ## Waiting
//!
//! A round is one wait per hosted machine for its owed frames and one
//! wait for the peers' shares, and a k-machine algorithm is thousands
//! of near-empty rounds — so *how* a worker waits is most of what a
//! round costs. Both waits follow one discipline, in one helper
//! (`Worker::wait`):
//!
//! - **Poll, then park.** A wait first polls its channels, yielding
//!   between polls ([`Backoff::snooze`]), for a fixed budget
//!   (`BARRIER_SPIN_POLLS`): the awaited share is normally a few
//!   scheduling quanta away, and a yield is far cheaper than the futex
//!   sleep plus the wake-up syscall a parked thread costs its sender.
//!   Only when the budget runs out — a peer is inside a long `round()`
//!   — does the worker park on that peer's share channel, in
//!   `recv_timeout`, so idle workers sleep instead of burning their
//!   cores.
//! - **A per-machine deadline.** The deadline — real or, under
//!   `km-check`, virtual — is the parks' alone: the time parked on a
//!   peer since its marker last started a step adds up, and a barrier
//!   window of it is `MachineLost`. A park that times out while the
//!   peer's marker started a new step starts the count afresh, so only
//!   a machine silent for a whole window is lost, never a block of
//!   healthy machines whose `round()`s add up past it.
//! - **What is serviced while waiting.** While a [`FaultPlan`] is live
//!   a waiting worker drains every incoming channel of its block and
//!   pumps its pending queues between polls — a peer's delivery may
//!   hinge on our retransmits. It parks for a whole barrier window only
//!   on a peer whose machine's link hung up (a crash, or a worker gone
//!   with an error it handed on), which needs nothing from our wire any
//!   more; on a live peer only while the peer's marker says it is inside
//!   a `round()` call, once the wait has outlasted `NAP_AFTER_POLLS`,
//!   and then one `NAP` (1 ms) at a time, servicing the wire between
//!   naps, so a retransmit the peer asks for once its call returns waits
//!   one nap at most. A peer that is itself waiting services its wire
//!   and is polled, not parked on: whatever it waits for has its own
//!   deadline, which names the machine at fault. On a
//!   clean wire a worker owed frames drains only the awaited machine's
//!   links still behind their count: nothing but owed data frames
//!   travels a clean link.
//! - **Why a clean wire may park without draining.** A clean link
//!   carries at most one data frame per round, and a worker ships round
//!   `r + 1`'s frames only after the exchange that closed round `r − 1`,
//!   which every peer joined after delivering `r − 1`. So at most two
//!   data frames per link — a worker can be one exchange ahead — are in
//!   flight against `LINK_CHANNEL_FRAMES = 4` slots: no send ever finds
//!   a full channel, every frame a share counts is in its channel
//!   before the share is, and no sender ever waits on an idle receiver.
//!   A delivery takes frames only up to the count, so a frame of a later
//!   round waits its turn — in the channel, or under faults in the
//!   reorder buffer.
//!
//! Bounded channels mean a sender can hit a full link under recovery
//! traffic; the overflow waits in a local per-destination queue that
//! every waiting worker keeps pumping while draining its own incoming
//! channels. A worker parks only where no delivery can hinge on it for
//! longer than a nap: on a clean wire no delivery waits, and under a
//! live plan it parks for long only on a peer that is gone, which the
//! deadline or the peer's handed-on error ends — so the wait-for graph
//! never contains a cycle, and every round completes or fails typed.
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
//!   sequence gap against the shared counts; a duplicated or stale
//!   frame has `seq <` the next expected and is dropped without
//!   touching the logical transcript.
//! - **Recovery.** A receiver still owed frames sends paced NACK
//!   control frames naming the first missing sequence number, the
//!   first at once. The sender retains a call's batch frames until the
//!   next exchange completes, since every share in it says its peer
//!   delivered them, and re-sends the frame named: a delivery owes at
//!   most one batch per link. Every message the lost batch contained
//!   is replayed exactly once. Out-of-order
//!   arrivals wait in a reorder buffer (as raw validated frames,
//!   decoded only when their gap fills and their round is owed) so
//!   links stay FIFO. Recovery traffic is accounted in
//!   [`WireReport::retransmit_frames`] / [`WireReport::nack_frames`],
//!   never in [`Metrics`] — under any crash-free fault mix the run's
//!   `RunOutcome` stays bit-identical to the sequential engine's.
//! - **Crashes and hangs.** A planned crash severs only the crashed
//!   machine's channels, and its worker goes silent with the marker on
//!   it. A crash the look-ahead meets stops the block's calls at the
//!   crashed machine, but takes effect only after the exchange, and
//!   only if closing the round does not end the run (engine module
//!   docs, *Empty rounds*). A peer waits out a barrier timeout
//!   ([`FaultPlan::barrier_timeout_ms`], default
//!   [`DEFAULT_BARRIER_TIMEOUT_MS`]) in which the worker starts no new
//!   step and converts that silence into [`EngineError::MachineLost`]
//!   for the marker's machine and round. A panic (usually a protocol's
//!   own `round`) is caught and becomes [`EngineError::WorkerPanicked`]
//!   for the marker's machine. Either way the worker that meets the
//!   failure hands it to every peer in place of a share, and each peer
//!   hands it on and stops; a crashed worker stays silent until every
//!   peer has handed it the error or hung up. The caller returns its
//!   own worker's error once every spawned worker is joined — no orphan
//!   threads, no hung caller, no poisoned panic. A one-worker pool has
//!   no peer to notice silence: its worker times each `round()` call
//!   against the barrier itself, and a planned crash is its own error.
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
    admit, debug_assert_lemma3, next_completion, panic_message, runs, silent_exit, Inbound,
    RoundLedger, RoundTally,
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames a link channel buffers before senders feel backpressure.
/// A clean link holds at most two batch frames — its round's and, from
/// a sender one exchange ahead, the next round's (module docs,
/// *Waiting*) — so the rest is headroom for recovery traffic (NACKs,
/// retransmits, fault-injected duplicates), sized small enough that a
/// recovery storm still exercises the drain-while-blocked path
/// (stress-tested in `tests/` at k = 64 and by the chaos matrix), not
/// for bulk data.
const LINK_CHANNEL_FRAMES: usize = 4;

/// Shares a worker-to-worker channel buffers: a worker can be one
/// exchange ahead of a peer, so two of its shares may wait unread, plus
/// the error that ends the sender's run. Sends never block.
const SHARE_CHANNEL_SLOTS: usize = 3;

/// Default barrier timeout (milliseconds): how long a peer parked on a
/// silent machine — one whose worker starts no new step — waits before
/// the run fails with [`EngineError::MachineLost`]. Generous because a
/// legitimate protocol round may compute for a while; fault tests lower
/// it via [`FaultPlan::barrier_timeout_ms`], and slow CI can raise it
/// through `KM_FAULTS=timeout=<ms>`.
pub const DEFAULT_BARRIER_TIMEOUT_MS: u64 = 10_000;

/// The effective barrier timeout: the plan's, else
/// [`DEFAULT_BARRIER_TIMEOUT_MS`].
fn barrier_timeout(plan: &FaultPlan) -> Duration {
    Duration::from_millis(match plan.barrier_timeout_ms {
        0 => DEFAULT_BARRIER_TIMEOUT_MS,
        ms => ms,
    })
}

/// Idle receive polls between NACK rounds while a machine is owed
/// frames — paces retransmit requests so a lossy link is repaired
/// without flooding the reverse direction. The first round goes out on
/// the first poll that finds a frame missing: by then every frame a
/// share counted is in its channel unless the wire lost it, and the
/// sender may be about to stop servicing its wire for its next calls.
const NACK_IDLE_POLLS: u32 = 16;

/// How long a wait under a live [`FaultPlan`] parks at a time on a peer
/// inside a `round()` call, between passes that service the block's
/// wire: the longest a retransmit the peer asks for once its call
/// returns can go unanswered.
const NAP: Duration = Duration::from_millis(1);

/// Polls a wait under a live [`FaultPlan`] makes before it naps on a
/// peer inside a `round()` call. The naps are there for the deadline,
/// which is hundreds of milliseconds or more, so they can start late;
/// an earlier nap only adds a wake-up to a call that ends soon. In
/// `sketch_cc_lossy` (W = 2 on a 2-core host) about 40 waits per solve
/// outlast 256 polls, and none of nine solves had one reach 4 000.
const NAP_AFTER_POLLS: u32 = 16 * BARRIER_SPIN_POLLS;

/// Empty polls (each followed by a [`Backoff::snooze`], i.e. a yield)
/// a wait makes before it parks on a peer's share channel — the one
/// budget of the wait discipline (`Worker::wait`).
///
/// A park costs a futex sleep, a wake-up syscall on the sender's side
/// and a scheduler round-trip; a yielding poll costs one `sched_yield`
/// and hands the core to whichever peer is still computing. Polling is
/// therefore the cheaper wait for as long as the awaited share is a
/// few scheduling quanta away — the normal case in a short round — and
/// the budget only has to outlast that.
///
/// Sized by measurement: `km-benchmark --workload sketch_cc_wire --seed 2
/// --seconds 3 --trace 0` (8 510 near-empty rounds, k = 16 machines, the
/// pool at W = 2 workers on a 2-core host), 4 interleaved passes per
/// value, median `wall_s` and the passes' range:
///
/// | polls | `wall_s` |
/// |---|---|
/// | 16 | 0.344 s (0.333–0.365) |
/// | 256 | 0.329 s (0.299–0.384) |
/// | 1024 | 0.322 s (0.301–0.362) |
///
/// The three sit on one plateau, within the passes' spread. The value
/// is taken from the top of the range that is still cheap to give up
/// on, for hosts with more cores than workers: there a yield returns at
/// once, the budget is worth 256 syscalls ≈ 50–100 µs — about one
/// near-empty round — and a smaller one would fall through to the park
/// every round. Past the budget a worker waiting out a peer's long
/// `round()` sleeps instead of burning its core
/// (`tests/distributed_idle.rs`).
const BARRIER_SPIN_POLLS: u32 = 256;

/// What a worker hands each peer once per executed round.
struct Slice {
    /// Its block's slice of the round's tally.
    tally: RoundTally,
    /// `counts[j·k + dst]`: the batch frames its `j`-th machine has
    /// staged for `dst` so far, over the whole run.
    counts: Arc<[u32]>,
}

/// A share: a worker's slice of the round, or instead the error its run
/// ended with.
type Share = Result<Slice, EngineError>;

/// Where a worker is: the machine and round it last started a step on —
/// a `round()` call, a delivery, or its planned crash — and how many
/// steps it has started. A silent worker's failure is typed by its
/// marker, never by the worker, and its peers keep waiting it out while
/// `steps` moves, so the deadline is per machine rather than per block.
/// Stores are `Release` and loads `Acquire`, and `set` bumps `steps`
/// last: a peer that reads a step count sees the machine and round
/// stored before it.
#[derive(Default)]
struct Marker {
    machine: AtomicUsize,
    round: AtomicU64,
    steps: AtomicU64,
    /// Whether the worker is inside a machine's `round()`, where it
    /// needs nothing from its peers' wires.
    calling: AtomicBool,
}

impl Marker {
    fn set(&self, machine: MachineIdx, round: u64) {
        self.machine.store(machine, Ordering::Release);
        self.round.store(round, Ordering::Release);
        self.steps.fetch_add(1, Ordering::Release);
    }

    fn machine(&self) -> MachineIdx {
        self.machine.load(Ordering::Acquire)
    }

    fn steps(&self) -> u64 {
        self.steps.load(Ordering::Acquire)
    }

    /// The failure of a worker silent for a whole barrier window.
    fn lost(&self) -> EngineError {
        EngineError::MachineLost {
            machine: self.machine(),
            round: self.round.load(Ordering::Acquire),
        }
    }
}

/// The sending half of a machine's wire: outgoing channels, per-link
/// sequence numbers, the retention buffers of its last two calls (for
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
    /// The frames the latest call staged per destination, kept for
    /// retransmission.
    retained: Vec<Vec<(u32, Vec<u8>)>>,
    /// The call before's, which a peer may still be delivering: a
    /// worker calls ahead before its peers' shares say they delivered.
    older: Vec<Vec<(u32, Vec<u8>)>>,
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
            older: vec![Vec::new(); k],
            pending: (0..k).map(|_| VecDeque::new()).collect(),
            attempts: vec![0; k],
            nacks_sent: vec![0; k],
            report: WireReport::default(),
        }
    }

    /// Opens a call's retention: the latest call's frames become the
    /// older ones (emptied by [`Outwire::absorbed`] since).
    fn start_round(&mut self) {
        std::mem::swap(&mut self.retained, &mut self.older);
    }

    /// Drops the older call's frames once an exchange completed after
    /// it: every peer's share says it delivered them.
    fn absorbed(&mut self) {
        if self.faulty {
            for r in &mut self.older {
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
            return; // peer hung up: the deadline on its worker types the failure
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

    /// Services a retransmit request from `dst`: re-sends the first
    /// retained frame with `seq >= from_seq` through the adversary
    /// again. That is the one frame the receiver's delivery still owes —
    /// a delivery owes at most one batch per link — and not the newer
    /// call's, which its next delivery asks for if it must. A stale NACK
    /// (from a round already absorbed) at worst re-sends a frame the
    /// receiver will discard as a duplicate.
    fn handle_nack(&mut self, dst: MachineIdx, from_seq: u32) {
        let Some((_, frame)) = self.older[dst]
            .iter()
            .chain(&self.retained[dst])
            .find(|(seq, _)| *seq >= from_seq)
        else {
            return;
        };
        let frame = frame.clone();
        self.report.retransmit_frames += 1;
        self.report.retransmit_bytes += frame.len() as u64;
        self.transmit(dst, frame);
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
    /// (peers see `Disconnected` and stop sending to it).
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
    /// Arrivals not yet absorbable, per source — out of order, or of a
    /// round not yet owed — stored as the raw (already CRC-validated)
    /// frames, so the messages inside are only ever decoded once, in
    /// sequence order, straight out of the frame buffer.
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

    /// Has every source delivered all the frames it is `owed` for?
    fn complete(&self, me: MachineIdx, owed: &[u32]) -> bool {
        self.expect
            .iter()
            .enumerate()
            .all(|(src, &got)| src == me || got >= owed[src])
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
/// early arrivals, and absorbs in-sequence batches into the local
/// links — in sequence order exactly once, which is what keeps the
/// logical transcript bit-identical under faults.
///
/// `owed` caps what is absorbed per source: a peer one exchange ahead
/// may already have shipped the next round's frame, which must wait for
/// the delivery that owes it. `every` drains every link, as a faulty
/// wire needs — NACKs arrive on any of them; otherwise only the links
/// still behind their count are read, and only up to it: a clean link
/// carries nothing but data frames, in order, so a later round's stays
/// in the channel.
fn drain_incoming<M: WireCodec>(
    inw: &mut Inwire,
    out: &mut Outwire,
    inb: &mut Inbound<M>,
    owed: &[u32],
    every: bool,
) {
    for (src, &want) in owed.iter().enumerate() {
        if !every && inw.expect[src] >= want {
            continue;
        }
        let mut hung_up = false;
        if let Some(rx) = inw.rxs[src].as_ref() {
            while every || inw.expect[src] < want {
                let frame = match rx.try_recv() {
                    Ok(frame) => frame,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Crashed peer; whatever it still owed will
                        // surface at the deadline on its worker.
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
                } else if view.seq == inw.expect[src] && view.seq < want {
                    absorb_frame(&view, src, inb);
                    inw.expect[src] += 1;
                } else if view.seq > inw.expect[src] || view.seq >= want {
                    // Out of order, or not owed yet (a duplicate of it
                    // too, at worst, which the map absorbs).
                    let seq = view.seq;
                    inw.ooo[src].entry(seq).or_insert(frame);
                }
                // Anything else is a duplicate or stale retransmission.
            }
        }
        if hung_up {
            inw.rxs[src] = None;
        }
        // Buffered frames whose gap filled, or whose round is now owed.
        while inw.expect[src] < want {
            let Some(buffered) = inw.ooo[src].remove(&inw.expect[src]) else {
                break;
            };
            let view = split_frame(&buffered)
                // lint: allow(panic) — buffer invariant: frames are CRC-validated before entering `ooo`
                .expect("reorder buffer only holds validated frames");
            absorb_frame(&view, src, inb);
            inw.expect[src] += 1;
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

    fn drain(&mut self, owed: &[u32], every: bool) {
        drain_incoming(&mut self.inw, &mut self.out, &mut self.inb, owed, every);
    }
}

/// The message-passing engine: a pool of workers each hosting a block of
/// machines, `k·(k−1)` bounded byte channels, and one all-gather per
/// round between the workers. Transcript-identical to
/// [`super::SequentialEngine`] — including under injected wire faults
/// (see the module docs' failure model); additionally measures real
/// frame sizes into a [`WireReport`].
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
    /// [`EngineError::RoundLimitExceeded`] if the safety valve fires,
    /// and [`EngineError::Stalled`] if the run goes quiescent before
    /// every machine has [`finished`](Protocol::finished) (each with
    /// the same payload as the sequential engine);
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
        let barrier = barrier_timeout(&plan);
        let workers = crossbeam::thread::available_parallelism();
        run_pool(config, machines, plan, barrier, workers)
    }
}

/// Channels between every ordered pair of endpoints: each one's senders
/// by peer (`.0[a][b]`) and receivers by peer (`.1[b][a]`), `None` at
/// itself.
type Mesh<T> = (Vec<Vec<Option<Sender<T>>>>, Vec<Vec<Option<Receiver<T>>>>);

/// A [`Mesh`] of `n` endpoints, every channel bounded to `cap`.
fn mesh<T>(n: usize, cap: usize) -> Mesh<T> {
    let mut txs: Vec<Vec<_>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    let mut rxs: Vec<Vec<_>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    for (a, row) in txs.iter_mut().enumerate() {
        for (b, col) in rxs.iter_mut().enumerate() {
            let (tx, rx) = if a == b {
                (None, None)
            } else {
                let (tx, rx) = bounded(cap);
                (Some(tx), Some(rx))
            };
            row.push(tx);
            col.push(rx);
        }
    }
    (txs, rxs)
}

/// The engine proper, on `workers` workers (clamped to `1..=k`): worker
/// `w` hosts machines `w·k/W .. (w+1)·k/W`, and worker 0 runs on the
/// caller's thread. The public entry points call it with
/// `min(k, cores)`; tests pin other pool shapes.
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
    let markers: Vec<Marker> = bounds[..workers]
        .iter()
        .map(|&lo| Marker {
            machine: AtomicUsize::new(lo),
            ..Marker::default()
        })
        .collect();

    let (links_out, links_in) = mesh(k, LINK_CHANNEL_FRAMES);
    let mut hosts = machines
        .into_iter()
        .zip(links_out)
        .zip(links_in)
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
    let (shares_out, shares_in) = mesh(workers, SHARE_CHANNEL_SLOTS);
    let mut pool: Vec<Worker<'_, P>> = shares_out
        .into_iter()
        .zip(shares_in)
        .enumerate()
        .map(|(w, (to, from))| {
            let size = bounds[w + 1] - bounds[w];
            Worker {
                config,
                shared,
                plan,
                barrier,
                w,
                bounds: &bounds,
                markers: &markers,
                hosts: hosts.by_ref().take(size).collect(),
                to,
                from,
                stash: (0..workers).map(|_| None).collect(),
                owed: vec![0; size * k],
                quiet: (w, 0, Duration::ZERO),
                outbox: Outbox::new(k),
                staged: (0..k).map(|_| Vec::new()).collect(),
                scratch: BitWriter::new(),
            }
        })
        .collect();

    let done = crossbeam::thread::scope(|scope| {
        let spawned: Vec<_> = pool
            .split_off(1)
            .into_iter()
            .map(|worker| scope.spawn(move |_| worker.run()))
            .collect();
        // Block 0 on this thread first, then every spawned worker's
        // outcome in pool order — each one joined, whatever came first.
        pool.into_iter()
            .map(Worker::run)
            .chain(spawned.into_iter().zip(1..).map(|(handle, w)| {
                handle.join().unwrap_or_else(|payload| {
                    Err(EngineError::WorkerPanicked {
                        machine: markers[w].machine(),
                        message: panic_message(&*payload),
                    })
                })
            }))
            .collect::<Vec<_>>()
    })
    // lint: allow(panic) — unreachable: every spawned worker is joined in the scope, so its Err arm is never produced
    .expect("scoped workers are joined inside the scope")
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let mut ledger = RoundLedger::default();
    let mut metrics = Metrics::new(k);
    let mut wire = WireReport::default();
    let mut machines = Vec::with_capacity(k);
    for (worker_ledger, hosts) in done {
        // Every worker closed the same rounds on the same sums.
        ledger = worker_ledger;
        for h in hosts {
            // The wire report counts each link message once, at
            // staging: the machine's sent side.
            metrics.sent_msgs[h.me] = h.out.report.messages;
            metrics.sent_bits[h.me] = h.out.report.logical_bits;
            h.inb.fold_into(&mut metrics);
            wire.absorb(&h.out.report);
            machines.push(h.proto);
        }
    }
    metrics.rounds = ledger.comm_rounds;
    ledger.check_finished(machines.iter().map(Protocol::finished))?;
    debug_assert_lemma3(&metrics, config.bandwidth_bits);
    Ok(RunReport {
        machines,
        metrics,
        wire: Some(wire),
    })
}

/// One worker of the pool: its block of machines, its ends of the share
/// channels, and the counts its next delivery owes.
struct Worker<'p, P: Protocol> {
    config: NetConfig,
    shared: u64,
    plan: FaultPlan,
    barrier: Duration,
    /// This worker's index in the pool.
    w: usize,
    /// Where each worker's block starts, then `k`.
    bounds: &'p [usize],
    /// Every worker's marker, by worker index.
    markers: &'p [Marker],
    hosts: Vec<Host<P>>,
    /// Share channels to and from every peer, by worker index; `None`
    /// at `w`.
    to: Vec<Option<Sender<Share>>>,
    from: Vec<Option<Receiver<Share>>>,
    /// The slices of the exchange in progress, by worker index, as they
    /// arrive — a peer's may come while this worker still delivers.
    stash: Vec<Option<Slice>>,
    /// `owed[j·k + src]`: the frames the block's `j`-th machine holds
    /// from `src` once its next delivery absorbed all it is owed.
    owed: Vec<u32>,
    /// The peer last parked on, its marker's step count then, and the
    /// time parked on it since that step.
    quiet: (usize, u64, Duration),
    // Pooled send-side buffers, shared by every hosted machine and
    // reused across every round: one outbox, one staging `Vec` per
    // destination collecting a machine's messages for that link, and
    // one scratch `BitWriter` serializing each batch — so the encode
    // path's only steady-state allocation is the frame the channel takes
    // ownership of, one per active link per round.
    outbox: Outbox<P::Msg>,
    staged: Vec<Vec<P::Msg>>,
    scratch: BitWriter,
}

impl<P: Protocol> Worker<'_, P> {
    /// Runs the worker's rounds to the end of the run: its ledger and
    /// its hosts, or the run's error — handed to every peer first,
    /// unless a crash silenced this worker.
    fn run(mut self) -> Result<(RoundLedger, Vec<Host<P>>), EngineError> {
        // Capture panics (typically a protocol's own `round`) so a
        // worker death becomes a typed error its peers hear of.
        let err = match catch_unwind(AssertUnwindSafe(|| self.rounds())) {
            Ok(Ok(Some(ledger))) => return Ok((ledger, self.hosts)),
            Ok(Ok(None)) => return Err(self.verdict()),
            Ok(Err(err)) => err,
            // `&*payload`: reborrow the *contents* — a bare `&payload`
            // would unsize the Box itself into the `dyn Any` and every
            // downcast would miss.
            Err(payload) => EngineError::WorkerPanicked {
                machine: self.markers[self.w].machine(),
                message: panic_message(&*payload),
            },
        };
        for tx in self.to.iter().flatten() {
            let _ = tx.send(Err(err.clone()));
        }
        Err(err)
    }

    /// The round loop of the module docs, each round closed by the same
    /// `RoundLedger::close` as the sequential engine: the ledger, or
    /// `None` once a hosted machine crashed as planned.
    fn rounds(&mut self) -> Result<Option<RoundLedger>, EngineError> {
        let mut ledger = RoundLedger::default();
        let mut crashing = self.call(0)?;
        self.exchange(RoundTally::default())?;
        loop {
            // The ledger goes on to the round a call met the planned
            // crash in: the machine's links hang up, and this worker
            // falls silent.
            if crashing {
                for h in &mut self.hosts {
                    if self.plan.crash.is_some_and(|c| c.machine == h.me) {
                        h.out.sever();
                        h.inw.rxs.clear();
                    }
                }
                return Ok(None);
            }
            let round = ledger.iterations;
            let tally = self.deliver(round)?;
            crashing = round + 1 < self.config.max_rounds && self.call(round + 1)?;
            let total = self.exchange(tally)?;
            if ledger.close(&self.config, total)? {
                return Ok(Some(ledger));
            }
            let skipped = ledger.skip(&self.config, &total, self.plan.crash.map(|c| c.round));
            if skipped > 0 {
                for h in &mut self.hosts {
                    h.inb.advance(skipped, self.config.bandwidth_bits);
                }
                // The round skipped to calls nobody (the skip needs a
                // partial-only round, so the look-ahead met no crash),
                // but a crash planned for it happens here.
                crashing = self.call(ledger.iterations)?;
            }
        }
    }

    /// Calls `round` on every hosted machine the sparse-rounds rule
    /// selects, in machine order, and ships what each queued. A machine
    /// planned to crash at `round` stops the calls before its own, and
    /// the result says so: the crash takes effect only once the ledger
    /// executes `round`.
    fn call(&mut self, round: u64) -> Result<bool, EngineError> {
        let marker = &self.markers[self.w];
        let alone = self.markers.len() == 1;
        for h in &mut self.hosts {
            marker.set(h.me, round);
            if self.plan.crashes(h.me, round) {
                return Ok(true);
            }
            h.out.start_round();
            if runs(h.last, !h.inbox.is_empty()) {
                let started = alone.then(Instant::now);
                marker.calling.store(true, Ordering::Release);
                h.compute(
                    &self.config,
                    round,
                    self.shared,
                    &mut self.outbox,
                    &mut self.staged,
                    &mut self.scratch,
                );
                marker.calling.store(false, Ordering::Release);
                if started.is_some_and(|t| t.elapsed() >= self.barrier) {
                    return Err(marker.lost());
                }
            }
        }
        if self.plan.any() {
            for h in &mut self.hosts {
                h.out.pump();
            }
        }
        debug_assert!(
            self.plan.any() || self.hosts.iter().all(|h| h.out.pending_empty()),
            "a clean link never holds more frames than its channel"
        );
        Ok(false)
    }

    /// Absorbs and delivers everything owed to each hosted machine, and
    /// returns the block's slice of the round's tally.
    fn deliver(&mut self, round: u64) -> Result<RoundTally, EngineError> {
        let budget = self.config.bandwidth_bits;
        let mut tally = RoundTally::default();
        for j in 0..self.hosts.len() {
            self.markers[self.w].set(self.hosts[j].me, round);
            self.wait(Some(j))?;
            let h = &mut self.hosts[j];
            tally.absorb(RoundTally {
                active_machines: usize::from(h.last == Status::Active),
                ..h.inb.deliver(budget, &mut h.inbox)
            });
        }
        if tally.is_partial_only() {
            tally.next_completion = next_completion(self.hosts.iter().map(|h| &h.inb), budget);
        }
        Ok(tally)
    }

    /// The round's one synchronisation: hands every peer this block's
    /// `tally` slice and its frame counts, waits for every peer's, takes
    /// the counts as what the next delivery owes, and returns the
    /// summed tally.
    fn exchange(&mut self, tally: RoundTally) -> Result<RoundTally, EngineError> {
        let k = self.config.k;
        let counts: Arc<[u32]> = self
            .hosts
            .iter()
            .flat_map(|h| h.out.seq_next.iter().copied())
            .collect();
        for tx in self.to.iter().flatten() {
            let _ = tx.send(Ok(Slice {
                tally,
                counts: Arc::clone(&counts),
            }));
        }
        self.stash[self.w] = Some(Slice { tally, counts });
        self.wait(None)?;
        for h in &mut self.hosts {
            h.out.absorbed();
        }
        let mut total = RoundTally::default();
        for (p, slice) in self.stash.iter_mut().enumerate() {
            let Some(slice) = slice.take() else { continue };
            total.absorb(slice.tally);
            for (j, h) in self.hosts.iter().enumerate() {
                for (src, row) in (self.bounds[p]..).zip(slice.counts.chunks_exact(k)) {
                    self.owed[j * k + src] = row[h.me];
                }
            }
        }
        Ok(total)
    }

    /// The wait discipline (module docs, *Waiting*): until the block's
    /// `j`-th machine has absorbed every frame it is owed
    /// (`Some(j)`), or every peer's slice of the exchange is in
    /// (`None`). Polls first — taking in any peer's share on the way,
    /// and under a live fault plan servicing the block's wire and
    /// pacing NACKs — then parks on the awaited peer: for a whole
    /// barrier window, or under a live fault plan one `NAP` at a time,
    /// and only while that peer is inside a `round()` call or gone.
    fn wait(&mut self, host: Option<usize>) -> Result<(), EngineError> {
        let k = self.config.k;
        let faulty = self.plan.any();
        let backoff = Backoff::new();
        let mut polls: u32 = 0;
        loop {
            if faulty {
                for (h, row) in self.hosts.iter_mut().zip(self.owed.chunks_exact(k)) {
                    h.drain(row, true);
                    h.out.pump();
                }
            }
            let done = match host {
                Some(j) => {
                    let row = &self.owed[j * k..(j + 1) * k];
                    let h = &mut self.hosts[j];
                    if !faulty {
                        h.drain(row, false);
                    }
                    h.inw.complete(h.me, row)
                }
                None => self.stash.iter().all(Option::is_some),
            };
            if done {
                return Ok(());
            }
            for (p, rx) in self.from.iter().enumerate() {
                let (Some(rx), None) = (rx, &self.stash[p]) else {
                    continue;
                };
                match rx.try_recv() {
                    Ok(share) => self.stash[p] = Some(share?),
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => {
                        return Err(silent_exit(self.markers[p].machine()));
                    }
                }
            }
            if faulty && host.is_some() && polls.is_multiple_of(NACK_IDLE_POLLS) {
                self.nack_missing();
            }
            polls += 1;
            if polls >= BARRIER_SPIN_POLLS {
                if let Some(p) = self.awaited(host) {
                    let whole = !faulty || self.gone(p);
                    let calling = self.markers[p].calling.load(Ordering::Acquire);
                    if whole || (calling && polls >= NAP_AFTER_POLLS) {
                        self.park(p, if whole { self.barrier } else { NAP })?;
                        continue;
                    }
                }
            }
            backoff.snooze();
        }
    }

    /// The peer a wait would park on: for the exchange, the first one
    /// whose slice is missing; for frames, the worker of the first
    /// source still behind its count — unless that is this worker, or a
    /// peer whose slice is in (it is waiting, servicing its wire).
    fn awaited(&self, host: Option<usize>) -> Option<usize> {
        let k = self.config.k;
        let p = match host {
            None => self.stash.iter().position(Option::is_none)?,
            Some(j) => {
                let h = &self.hosts[j];
                let row = &self.owed[j * k..(j + 1) * k];
                let src = (0..k).find(|&src| src != h.me && h.inw.expect[src] < row[src])?;
                self.bounds.partition_point(|&lo| lo <= src) - 1
            }
        };
        (p != self.w && self.stash[p].is_none()).then_some(p)
    }

    /// Whether a link from one of peer `p`'s machines hung up: `p`
    /// crashed, or left the run with an error it has handed on. Either
    /// way nothing it needs from this worker's wire is left.
    fn gone(&self, p: usize) -> bool {
        let block = self.bounds[p]..self.bounds[p + 1];
        self.hosts
            .iter()
            .any(|h| h.inw.rxs[block.clone()].iter().any(Option::is_none))
    }

    /// Parks on peer `p`'s share channel for `slice`: its share is
    /// kept, its error returned, and a barrier window parked on it since
    /// its marker last started a step is the marker's machine lost.
    fn park(&mut self, p: usize, slice: Duration) -> Result<(), EngineError> {
        let marker = &self.markers[p];
        let seen = marker.steps();
        if (self.quiet.0, self.quiet.1) != (p, seen) {
            self.quiet = (p, seen, Duration::ZERO);
        }
        let Some(rx) = self.from[p].as_ref() else {
            return Ok(());
        };
        match rx.recv_timeout(slice) {
            Ok(share) => self.stash[p] = Some(share?),
            // It moved on to another machine: wait that one out afresh.
            Err(RecvTimeoutError::Timeout) if marker.steps() != seen => {}
            Err(RecvTimeoutError::Timeout) if self.quiet.2 + slice >= self.barrier => {
                return Err(marker.lost())
            }
            Err(RecvTimeoutError::Timeout) => self.quiet.2 += slice,
            Err(RecvTimeoutError::Disconnected) => return Err(silent_exit(marker.machine())),
        }
        Ok(())
    }

    /// Asks every source still behind its count for a retransmit, for
    /// every hosted machine.
    fn nack_missing(&mut self) {
        for (h, row) in self
            .hosts
            .iter_mut()
            .zip(self.owed.chunks_exact(self.config.k))
        {
            for (src, &want) in row.iter().enumerate() {
                if src != h.me && h.inw.expect[src] < want {
                    h.out.send_nack(src, h.inw.expect[src]);
                }
            }
        }
    }

    /// A crashed machine's worker stays silent — no share, no wire —
    /// until every peer has handed it the run's error or hung up; with
    /// no peer to notice the crash, the crash is its own error.
    fn verdict(&self) -> EngineError {
        let mut verdict = None;
        for rx in self.from.iter().flatten() {
            while let Ok(share) = rx.recv() {
                if let Err(err) = share {
                    verdict.get_or_insert(err);
                    break;
                }
            }
        }
        verdict.unwrap_or_else(|| self.markers[self.w].lost())
    }
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
        /// Sends `sends` one-byte messages to its successor in every
        /// round before `quiet_from`, and must never be called at or
        /// past `limit`: the distributed engine calls the next round
        /// before it closes this one, and must not call a round the
        /// ledger stops before.
        #[derive(Debug)]
        struct Chatter {
            limit: u64,
            sends: u8,
            quiet_from: u64,
        }
        impl Protocol for Chatter {
            type Msg = u8;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                _inbox: &mut Vec<Envelope<u8>>,
                out: &mut Outbox<u8>,
            ) -> Status {
                assert!(
                    ctx.round < self.limit,
                    "machine {} called in round {}, past the limit",
                    ctx.me,
                    ctx.round
                );
                if ctx.round >= self.quiet_from {
                    return Status::Done;
                }
                for i in 0..self.sends {
                    out.send((ctx.me + 1) % ctx.k, i);
                }
                Status::Active
            }
        }
        let (k, limit) = (4, 6);
        let cfg = NetConfig::with_bandwidth(k, 8, 0).max_rounds(limit);
        let chatter = |sends, quiet_from| -> Vec<Chatter> {
            (0..k)
                .map(|_| Chatter {
                    limit,
                    sends,
                    quiet_from,
                })
                .collect()
        };
        // Two messages a round over a link of one a round: the queues
        // build up until the limit fires.
        let overfed = SequentialEngine::run(cfg, chatter(2, u64::MAX)).unwrap_err();
        // One a round, then quiet in the last permitted round: the run
        // goes quiescent exactly as that round closes.
        let quiet = SequentialEngine::run(cfg, chatter(1, limit - 1)).unwrap();
        for w in shapes(k) {
            let dist = pool(cfg, chatter(2, u64::MAX), FaultPlan::default(), w).unwrap_err();
            assert_eq!(
                overfed, dist,
                "W = {w}: error payloads must agree field-for-field"
            );
            let dist = pool(cfg, chatter(1, limit - 1), FaultPlan::default(), w).unwrap();
            assert_eq!(quiet.metrics, dist.metrics, "W = {w}");
        }
    }

    /// A crash planned for a round the run never reaches never happens,
    /// also when the look-ahead meets it: the run whose last round is
    /// `q` ends as it does with no plan — `Ok`, or `Stalled` when a
    /// machine is unfinished — with the crash at `q + 1` or `q + 2`.
    #[test]
    fn a_crash_past_the_last_round_never_happens() {
        /// Passes one message to its successor in every round before
        /// `QUIET`, so the run's last round is `QUIET`.
        #[derive(Debug)]
        struct Relay {
            got: u32,
            finished: bool,
        }
        const QUIET: u64 = 3;
        impl Protocol for Relay {
            type Msg = u32;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                inbox: &mut Vec<Envelope<u32>>,
                out: &mut Outbox<u32>,
            ) -> Status {
                self.got += inbox.len() as u32;
                if ctx.round >= QUIET {
                    return Status::Done;
                }
                out.send((ctx.me + 1) % ctx.k, 0);
                Status::Active
            }
            fn finished(&self) -> bool {
                self.finished
            }
        }
        let k = 5;
        let cfg = NetConfig::with_bandwidth(k, 64, 3600);
        let relays = |unfinished: Option<usize>| -> Vec<Relay> {
            (0..k)
                .map(|me| Relay {
                    got: 0,
                    finished: unfinished != Some(me),
                })
                .collect()
        };
        let outcome = |run: Result<RunReport<Relay>, EngineError>| {
            run.map(|r| {
                (
                    r.metrics,
                    r.machines.iter().map(|m| m.got).collect::<Vec<_>>(),
                )
            })
        };
        for unfinished in [None, Some(2)] {
            let seq = outcome(SequentialEngine::run(cfg, relays(unfinished)));
            assert_eq!(seq.is_ok(), unfinished.is_none(), "{seq:?}");
            for (machine, round) in [(0, QUIET + 1), (k - 1, QUIET + 1), (2, QUIET + 2)] {
                let plan = FaultPlan {
                    crash: Some(CrashSpec { machine, round }),
                    barrier_timeout_ms: 200,
                    ..FaultPlan::default()
                };
                for w in shapes(k) {
                    let dist = outcome(pool(cfg, relays(unfinished), plan, w));
                    assert_eq!(seq, dist, "W = {w}, crash of {machine} at {round}");
                }
            }
        }
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

    /// [`run_pool`] with the plan's barrier timeout.
    fn pool<P: Protocol>(
        cfg: NetConfig,
        machines: Vec<P>,
        plan: FaultPlan,
        workers: usize,
    ) -> Result<RunReport<P>, EngineError> {
        let barrier = barrier_timeout(&plan);
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
    /// machines that neither head nor end their block, and machines of
    /// block 0, which the caller's thread hosts.
    #[test]
    fn every_pool_shape_names_the_failing_machine() {
        let k = 7;
        let cfg = NetConfig::with_bandwidth(k, 40, 3400);
        for (crashed, bombed) in [(4, 5), (1, 0)] {
            for w in shapes(k) {
                let plan = FaultPlan {
                    crash: Some(CrashSpec {
                        machine: crashed,
                        round: 2,
                    }),
                    barrier_timeout_ms: 200,
                    ..FaultPlan::default()
                };
                let err = pool(cfg, gossip_machines(k), plan, w).unwrap_err();
                assert_eq!(
                    err,
                    EngineError::MachineLost {
                        machine: crashed,
                        round: 2
                    },
                    "W = {w}"
                );
                let err = pool(cfg, bombs(k, bombed), FaultPlan::default(), w).unwrap_err();
                let went_off = format!("machine {bombed} went off");
                assert!(
                    matches!(err, EngineError::WorkerPanicked { machine, ref message }
                        if machine == bombed && message.contains(&went_off)),
                    "W = {w}: {err:?}"
                );
            }
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
    fn barrier_timeout_plan_wins_else_default() {
        assert_eq!(
            barrier_timeout(&FaultPlan::default()),
            Duration::from_millis(DEFAULT_BARRIER_TIMEOUT_MS)
        );
        let fast = FaultPlan {
            barrier_timeout_ms: 40,
            ..FaultPlan::default()
        };
        assert_eq!(barrier_timeout(&fast), Duration::from_millis(40));
    }
}
