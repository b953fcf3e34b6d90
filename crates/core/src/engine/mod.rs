//! Execution engines.
//!
//! Both engines implement identical synchronous-round semantics:
//!
//! 1. every machine runs [`crate::Protocol::round`] on the messages delivered at
//!    the start of this round and stages outgoing messages — every
//!    machine that has something to compute, that is (see *Sparse
//!    rounds* below: a `Done` machine with an empty inbox is not called);
//! 2. staged messages enter per-ordered-pair FIFO [`crate::link::Link`]s (self-sends
//!    bypass links: local hand-off is free, like local computation);
//! 3. each link releases up to `B` bits; released messages form the next
//!    round's inboxes, ordered by sender index;
//! 4. the run ends when every machine reports [`crate::Status::Done`] and all
//!    links and inboxes are empty (global quiescence), or errs when the
//!    round limit fires.
//!
//! [`SequentialEngine`] is the reference implementation;
//! [`DistributedEngine`] runs a pool of `min(k, cores)` worker threads,
//! each hosting a contiguous block of machines, and serializes every
//! link's round of messages into one batch frame over that ordered
//! pair's bounded channel (see `distributed.rs`). The two are
//! transcript-identical (tested in `tests/engine_equivalence.rs` and the
//! cross-engine fuzz matrix in `tests/engine_fuzz.rs`) because steps 2–4
//! exist exactly once, here:
//!
//! * `Inbound` is one destination's slice of the network — the
//!   transcript `Π_i` of Theorem 1 in the making: its `k − 1` incoming
//!   links, its self-queue, and the receive-side counters. The
//!   sequential engine holds `k` of them in a `Network` (which adds only
//!   the sender-side counters); a distributed worker owns one per hosted
//!   machine, fed from decoded frames, and ships them home when the run
//!   ends.
//! * `admit` is the preamble (valid config, machine count `= k`),
//!   `RoundLedger::close` the end of every round — count a communication
//!   round if a link moved a bit, then test quiescence, then the round
//!   limit, in that order — over a `RoundTally` that `Inbound::deliver`
//!   produces per destination and the engines sum, and
//!   `RoundLedger::skip` the jump over empty rounds that may follow (see
//!   *Empty rounds* below).
//!   [`SequentialEngine::run`] is the whole in-process loop around them.
//!
//! # Sparse rounds
//!
//! The paper's algorithms spend most rounds with traffic on a small
//! fraction of the `k²` ordered links and work on a small fraction of
//! the `k` machines, so a round is built to cost **O(active machines +
//! active traffic), not O(k) calls and O(k²) link checks**:
//!
//! * **Machines.** After round 0, a machine whose last `round()`
//!   returned [`crate::Status::Done`] and whose inbox is empty is not
//!   called; it counts as `Done`, so quiescence, `RoundTally` and the
//!   `RoundLimitExceeded` payload are what calling it would give (the
//!   [`crate::Protocol`] contract makes such a call a no-op). The rule
//!   is one predicate, `runs`. The sequential engine applies it to the
//!   sorted union of the machines still `Active` and the machines the
//!   last delivery woke; the distributed workers apply it to the
//!   machines and inboxes they host.
//! * **Destinations.** `Network` keeps the *busy* destinations — those
//!   whose active-source index is non-empty. A destination joins in
//!   `Network::stage` on its empty → non-empty transition, and
//!   `Network::deliver` walks only that list, drops the drained
//!   entries, and records which destinations it woke (their inbox is
//!   now non-empty).
//! * **Links.** An `Inbound` keeps a sorted *active-source index* — the
//!   sources (including the destination itself, for pending self-sends)
//!   with queued traffic. Pushing inserts a source exactly when its
//!   link transitions empty → non-empty, and `Inbound::deliver` removes
//!   it when the link drains; a link with no queued traffic is never
//!   visited (every visit increments [`crate::Metrics::link_visits`],
//!   the observable this invariant is unit-tested against).
//! * Running `queued_msgs` / `queued_bits` counters — incremented at
//!   push, decremented at delivery — are reported in each destination's
//!   tally, so the per-round quiescence check does no per-link work.
//! * Delivery-side accounting reuses the wire sizes cached in each
//!   [`Link`] at staging time ([`crate::link::Delivery`]). A queued
//!   link message is an `(M, u32)` entry, the message and its size: a
//!   link stores its sender once and restores it in each `Envelope` at
//!   delivery, and a self-queue holds bare messages, whose source is
//!   the destination itself. So [`crate::WireCodec::bits`] runs exactly
//!   once per link message, with one exception: a size of `u32::MAX`
//!   bits (512 MiB) or more is queued as a sentinel and re-derived each
//!   time delivery reaches that message. It never runs for a
//!   self-send, which is free and unsized.
//!
//! Ordering is that of a dense walk: machines run in increasing index
//! order, and each destination's active sources are visited in
//! increasing machine order (the index is kept sorted), so inboxes —
//! and therefore transcripts, metrics, and RNG streams — are bit-for-bit
//! what calling every machine and visiting every link would produce.
//!
//! # Empty rounds
//!
//! A message of more than `B` bits holds its link for `⌈bits/B⌉`
//! rounds (Section 1.1, Lemma 3), and the model charges every one of
//! them. The host need not execute them all. Take a round that closes
//! *partial-only* (`RoundTally::is_partial_only`): no machine `Active`,
//! no mail in any inbox (self-sends land there in the same delivery),
//! and some link still queues bits. Then no machine is called until
//! some front message completes, and until then every busy link moves
//! exactly `B` bits a round. So the engines skip
//! `s = min over busy links ⌈(front bits − front progress)/B⌉ − 1`
//! rounds in one step and execute the next one, in which a front
//! completes:
//!
//! * `Inbound::next_completion` finds the minimum, in one walk over
//!   the active sources. It runs only after a round the tally already
//!   marks partial-only, so a delivering round pays nothing for it.
//! * `RoundLedger::skip` turns it into `s`, counts the `s` rounds as
//!   executed and as communication rounds, and clamps `s` twice: to
//!   `max_rounds − iterations − 1`, so that the round at which
//!   `RoundLimitExceeded` fires is executed, and, under a fault plan
//!   with a planned crash, to the rounds before the crash round, so
//!   that the crash happens where it was planned.
//! * `Inbound::advance` applies the skip: every busy link's front
//!   moves `s·B` bits and is counted `s` times in
//!   [`crate::Metrics::link_visits`].
//!
//! The transcript is unchanged. A skipped round calls no machine,
//! completes no message and ships no frame, so inboxes, outputs and
//! RNG streams do not move. `rounds`, `link_visits` and every bit count
//! are what executing the rounds would add. The tally of a skipped
//! round equals that of the partial-only round before it, because the
//! queue counters fall only on completion, so a clamped limit fires
//! with the payload it always had. Wire faults are decided per `(src,
//! dst, attempt)`, never per round, so drops and retransmits are
//! unchanged too. The sequential engine skips after
//! `RoundLedger::close`; on the distributed engine each worker puts its
//! block's minimum into its tally slice, every worker takes the minimum
//! of the slices it exchanged, and each advances its hosted links by
//! the same skip.
//!
//! A distributed worker calls round `r + 1` before the exchange that
//! closes round `r`, so it must never call a round the ledger does not
//! execute — and it does not:
//!
//! * It does not call at all when `r + 1 ≥ max_rounds`: closing `r` then
//!   either finds quiescence or fires the round limit.
//! * A round that closes quiescent or partial-only leaves no machine
//!   `Active` and no mail in any inbox, so `runs` selects nobody in
//!   round `r + 1`: the call is empty, whether the run then ends, skips
//!   or goes on.
//! * A planned crash is known to every worker from the start. The skip
//!   stops at the crash round, a worker checks the crash before each
//!   call, and it repeats the empty call for the round a skip lands on,
//!   so the crash happens in the round it was planned for. A crash the
//!   look-ahead meets in round `r + 1` stops the block's calls at the
//!   crashed machine, and takes effect only if closing `r` does not end
//!   the run: the worker still ships its share for `r`, and goes silent
//!   only once the ledger goes on to `r + 1`. A crash planned past the
//!   run's last round never happens, whatever the round.
//!
//! Skipping relies on `Done` meaning "nothing to do without mail". A
//! machine that waits for a peer (a parked [`crate::router::Staged`]
//! machine) reports `Done` and says `false` to
//! [`crate::Protocol::finished`]. A run that goes quiescent while any
//! machine is unfinished fails as [`EngineError::Stalled`] on both
//! engines, via `RoundLedger::check_finished`.
//!
//! Two of the model's own invariants are debug-asserted where a round
//! and a run end: `Inbound::deliver` checks that no link releases more
//! than `B` bits in a round, and a successful run checks Lemma 3's
//! per-machine ceiling `recv_bits[i] ≤ B·(k−1)·rounds` (hence
//! `round_floor(B) ≤ rounds`) in `Network::finish` and where the
//! distributed engine merges its workers' final states.

pub mod distributed;
pub mod sequential;

pub use crate::metrics::{RunReport, WireReport};
pub use distributed::DistributedEngine;
pub use sequential::SequentialEngine;

use crate::codec::WireCodec;
use crate::config::NetConfig;
use crate::error::EngineError;
use crate::link::Link;
use crate::message::Envelope;
use crate::metrics::Metrics;
use crate::protocol::Status;
use crate::MachineIdx;
use std::any::Any;

/// The sparse-rounds rule, stated once: a machine runs this round iff
/// its last [`crate::Protocol::round`] returned [`Status::Active`] or
/// mail was delivered to it. Every machine starts out `Active`, so round
/// 0 runs all `k`; a machine the rule skips counts as `Done`.
pub(crate) fn runs(last: Status, has_mail: bool) -> bool {
    last == Status::Active || has_mail
}

/// One destination's slice of the network: its incoming links, its
/// free self-queue, the active-source index that keeps delivery
/// O(active traffic), and the receive-side counters.
pub(crate) struct Inbound<M> {
    me: MachineIdx,
    /// Incoming links indexed by source (`links[me]` unused).
    links: Vec<Link<M>>,
    /// Self-sends waiting for this round's delivery (no bandwidth
    /// charge); their source is always `me`.
    self_queue: Vec<M>,
    /// Sorted sources with queued traffic (contains `me` iff the
    /// self-queue is non-empty). Maintained by the pushes (empty →
    /// non-empty) and `deliver` (drained links drop out).
    active: Vec<MachineIdx>,
    /// Messages queued here (links + self-queue).
    queued_msgs: usize,
    /// Undelivered bits queued on the links (self-sends are free).
    queued_bits: u64,
    recv_msgs: u64,
    recv_bits: u64,
    link_visits: u64,
}

impl<M: WireCodec> Inbound<M> {
    pub(crate) fn new(k: usize, me: MachineIdx) -> Self {
        let mut links = Vec::with_capacity(k);
        links.resize_with(k, Link::default);
        Inbound {
            me,
            links,
            self_queue: Vec::new(),
            active: Vec::new(),
            queued_msgs: 0,
            queued_bits: 0,
            recv_msgs: 0,
            recv_bits: 0,
            link_visits: 0,
        }
    }

    /// Marks `src` as having queued traffic. Only called on an empty →
    /// non-empty transition, so `src` is never already present.
    fn activate(&mut self, src: MachineIdx) {
        let pos = self
            .active
            .binary_search(&src)
            // lint: allow(panic) — activate() fires only on the empty->non-empty transition, so src is absent
            .expect_err("activated twice without draining");
        self.active.insert(pos, src);
    }

    /// Queues a self-send: free, never sized or serialized, delivered
    /// with this round's link traffic.
    pub(crate) fn push_self(&mut self, msg: M) {
        if self.self_queue.is_empty() {
            self.activate(self.me);
        }
        self.self_queue.push(msg);
        self.queued_msgs += 1;
    }

    /// Queues a link message from `src`. `bits` is its clamped logical
    /// size, sampled once by whoever charged the sender (staging in
    /// process, the frame's record header on the wire); `push_sized`
    /// cross-checks it against the message's own claim in debug builds.
    pub(crate) fn push(&mut self, src: MachineIdx, msg: M, bits: u64) {
        if self.links[src].is_empty() {
            self.activate(src);
        }
        self.links[src].push_sized(Envelope { src, msg }, bits);
        self.queued_msgs += 1;
        self.queued_bits += bits;
    }

    /// Runs this destination's delivery phase into `inbox` (which the
    /// caller cleared): every *active* link releases up to `budget`
    /// bits, in increasing source order; links with nothing queued are
    /// not visited. Returns what the phase left behind.
    pub(crate) fn deliver(&mut self, budget: u64, inbox: &mut Vec<Envelope<M>>) -> RoundTally {
        let mut any_link_bits = false;
        // (source, bits its link released so far this round): the
        // model's bandwidth invariant, checked per link even if the
        // index listed a source twice.
        let mut released = (self.me, 0);
        // Walk the active sources in machine order (the list is
        // sorted), retaining only those still queued.
        let mut sources = std::mem::take(&mut self.active);
        sources.retain(|&src| {
            if src == self.me {
                self.queued_msgs -= self.self_queue.len();
                inbox.extend(self.self_queue.drain(..).map(|msg| Envelope { src, msg }));
                return false; // self-queues always drain fully
            }
            self.link_visits += 1;
            let link = &mut self.links[src];
            let d = link.deliver(budget, inbox);
            let before = if released.0 == src { released.1 } else { 0 };
            released = (src, before + d.bits_used);
            debug_assert!(
                released.1 <= budget,
                "link {src} -> {} released {} bits in one round, over B = {budget}",
                self.me,
                released.1
            );
            any_link_bits |= d.bits_used > 0;
            // Received counts come from the sizes cached at push time,
            // so recv accounting can never drift from sent and
            // `WireCodec::bits` is not re-called on delivery.
            self.recv_msgs += d.msgs;
            self.recv_bits += d.msg_bits;
            self.queued_msgs -= d.msgs as usize;
            self.queued_bits -= d.msg_bits;
            !link.is_empty()
        });
        self.active = sources;
        RoundTally {
            active_machines: 0,
            any_link_bits,
            queued_msgs: self.queued_msgs,
            queued_bits: self.queued_bits,
            inbox_msgs: inbox.len(),
            next_completion: None,
        }
    }

    /// Delivery phases until the first of this destination's links
    /// completes its front message at `budget` bits a round — the
    /// minimum of [`Link::next_completion`] over the active sources, one
    /// walk — or `None` if no link queues anything.
    pub(crate) fn next_completion(&self, budget: u64) -> Option<u64> {
        self.active
            .iter()
            .filter_map(|&src| self.links[src].next_completion(budget))
            .min()
    }

    /// Runs `rounds` delivery phases in one step, for `rounds` below
    /// [`Inbound::next_completion`]: no front completes in them, so each
    /// moves `budget` bits on every active link and counts one visit
    /// per link, and nothing else changes. The self-queue is empty then
    /// (it drains every phase), so every active source is a link.
    pub(crate) fn advance(&mut self, rounds: u64, budget: u64) {
        debug_assert!(self.self_queue.is_empty(), "advanced over a self-send");
        for &src in &self.active {
            self.links[src].advance(rounds * budget);
        }
        self.link_visits += rounds * self.active.len() as u64;
    }

    /// Writes this destination's receive side into the run's metrics.
    pub(crate) fn fold_into(&self, metrics: &mut Metrics) {
        metrics.recv_msgs[self.me] = self.recv_msgs;
        metrics.recv_bits[self.me] = self.recv_bits;
        metrics.link_visits += self.link_visits;
        let busiest = self.links.iter().map(Link::total_bits).max().unwrap_or(0);
        metrics.max_link_bits = metrics.max_link_bits.max(busiest);
    }
}

/// [`Inbound::next_completion`] over some destinations: the earliest
/// front among them, or `None` if none queues anything. The one fold
/// behind both the sequential network's and a distributed worker's.
pub(crate) fn next_completion<'a, M: WireCodec + 'a>(
    inbound: impl IntoIterator<Item = &'a Inbound<M>>,
    budget: u64,
) -> Option<u64> {
    inbound
        .into_iter()
        .filter_map(|inb| inb.next_completion(budget))
        .min()
}

/// What one round left behind: per destination as [`Inbound::deliver`]
/// returns it, summed over all machines as [`RoundLedger::close`]
/// reads it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundTally {
    /// Machines that reported [`crate::Status::Active`] this round.
    pub(crate) active_machines: usize,
    /// Whether any link moved at least one bit.
    pub(crate) any_link_bits: bool,
    /// Messages still queued (links + self-queues) after delivery.
    pub(crate) queued_msgs: usize,
    /// Undelivered link bits still queued after delivery.
    pub(crate) queued_bits: u64,
    /// Messages delivered into the next round's inboxes.
    pub(crate) inbox_msgs: usize,
    /// The minimum [`Inbound::next_completion`] over the destinations
    /// covered. Only computed for a tally that is
    /// [`partial-only`](RoundTally::is_partial_only), so a delivering
    /// round never pays the walk.
    pub(crate) next_completion: Option<u64>,
}

impl RoundTally {
    pub(crate) fn absorb(&mut self, other: RoundTally) {
        self.active_machines += other.active_machines;
        self.any_link_bits |= other.any_link_bits;
        self.queued_msgs += other.queued_msgs;
        self.queued_bits += other.queued_bits;
        self.inbox_msgs += other.inbox_msgs;
        self.next_completion = self
            .next_completion
            .into_iter()
            .chain(other.next_completion)
            .min();
    }

    /// Whether only partial messages are left in flight: no machine
    /// `Active`, no mail in any inbox (self-sends land there in the
    /// same delivery), and link bits still queued. No machine is called
    /// again until some front message completes.
    pub(crate) fn is_partial_only(&self) -> bool {
        self.active_machines == 0 && self.inbox_msgs == 0 && self.queued_bits > 0
    }
}

/// The run's round counters and the one place a round ends.
#[derive(Debug, Default)]
pub(crate) struct RoundLedger {
    /// Rounds executed so far — the [`crate::RoundCtx::round`] of the next.
    pub(crate) iterations: u64,
    /// Rounds in which some link moved a bit: [`Metrics::rounds`].
    pub(crate) comm_rounds: u64,
}

impl RoundLedger {
    /// Closes a round over its summed tally: counts it, then tests
    /// global quiescence (`Ok(true)`), then the round limit — in that
    /// order, so a run that quiesces on its last permitted round
    /// succeeds, and every engine fails with the same payload.
    ///
    /// # Errors
    /// [`EngineError::RoundLimitExceeded`] carrying this round's tally.
    pub(crate) fn close(
        &mut self,
        config: &NetConfig,
        tally: RoundTally,
    ) -> Result<bool, EngineError> {
        self.comm_rounds += u64::from(tally.any_link_bits);
        self.iterations += 1;
        if tally.active_machines == 0 && tally.queued_msgs == 0 && tally.inbox_msgs == 0 {
            return Ok(true);
        }
        if self.iterations >= config.max_rounds {
            return Err(EngineError::RoundLimitExceeded {
                limit: config.max_rounds,
                active_machines: tally.active_machines,
                queued_msgs: tally.queued_msgs,
                queued_bits: tally.queued_bits,
            });
        }
        Ok(false)
    }

    /// After a round that [`RoundLedger::close`] did not end: the
    /// rounds to skip, each counted as executed and as a communication
    /// round. Zero unless the tally is partial-only; then one less than
    /// its `next_completion`, clamped so that the round at which the
    /// limit fires and the round of a planned `crash` are still
    /// executed. The caller advances every busy link by that many
    /// rounds ([`Inbound::advance`]).
    pub(crate) fn skip(
        &mut self,
        config: &NetConfig,
        tally: &RoundTally,
        crash: Option<u64>,
    ) -> u64 {
        let Some(next) = tally.next_completion.filter(|_| tally.is_partial_only()) else {
            return 0;
        };
        let mut rounds = (next - 1).min(config.max_rounds.saturating_sub(self.iterations + 1));
        if let Some(crash) = crash.filter(|&c| c >= self.iterations) {
            rounds = rounds.min(crash - self.iterations);
        }
        self.iterations += rounds;
        self.comm_rounds += rounds;
        rounds
    }

    /// The guard on a run that went quiescent: `finished` is
    /// [`crate::Protocol::finished`] per machine, in machine order.
    ///
    /// # Errors
    /// [`EngineError::Stalled`] naming the lowest unfinished machine and
    /// the last round executed.
    pub(crate) fn check_finished(
        &self,
        finished: impl IntoIterator<Item = bool>,
    ) -> Result<(), EngineError> {
        match finished.into_iter().position(|f| !f) {
            None => Ok(()),
            Some(machine) => Err(EngineError::Stalled {
                machine,
                round: self.iterations.saturating_sub(1),
            }),
        }
    }
}

/// The preamble every engine runs before touching a machine.
///
/// # Errors
/// [`EngineError::InvalidConfig`] if the config fails
/// [`NetConfig::validate`] or `machines != config.k`.
pub(crate) fn admit(config: &NetConfig, machines: usize) -> Result<(), EngineError> {
    config.validate()?;
    if machines != config.k {
        return Err(EngineError::InvalidConfig {
            reason: format!(
                "one protocol instance per machine: got {machines} for k = {}",
                config.k
            ),
        });
    }
    Ok(())
}

/// Debug-asserts Lemma 3's per-machine ceiling on a successful run:
/// machine `i` hears over `k − 1` links of `B` bits per communication
/// round, so `recv_bits[i] ≤ B·(k−1)·rounds` — hence
/// [`Metrics::round_floor`]`(B) ≤ rounds`.
pub(crate) fn debug_assert_lemma3(metrics: &Metrics, bandwidth_bits: u64) {
    let links = metrics.recv_bits.len().saturating_sub(1) as u64;
    let ceiling = bandwidth_bits
        .saturating_mul(links)
        .saturating_mul(metrics.rounds);
    for (i, &bits) in metrics.recv_bits.iter().enumerate() {
        debug_assert!(
            bits <= ceiling,
            "machine {i} received {bits} bits in {} rounds, over B·(k−1)·rounds = {ceiling}",
            metrics.rounds
        );
    }
}

/// The in-process network: every destination's [`Inbound`], the busy
/// destinations among them, and the sender-side counters.
pub(crate) struct Network<M> {
    inbound: Vec<Inbound<M>>,
    /// Destinations whose active-source index is non-empty: joined in
    /// [`Network::stage`] on the empty → non-empty transition, left in
    /// [`Network::deliver`] once drained.
    busy: Vec<MachineIdx>,
    /// Destinations the last [`Network::deliver`] put mail into.
    woken: Vec<MachineIdx>,
    /// `sent_*` are charged at staging; [`Network::finish`] folds the
    /// receive side in from each [`Inbound`].
    metrics: Metrics,
}

impl<M: WireCodec> Network<M> {
    fn new(k: usize) -> Self {
        Network {
            inbound: (0..k).map(|dst| Inbound::new(k, dst)).collect(),
            busy: Vec::new(),
            woken: Vec::new(),
            metrics: Metrics::new(k),
        }
    }

    /// Stages one message. Link traffic is charged to the sender here
    /// (bits are counted when sent, received when delivered).
    fn stage(&mut self, src: MachineIdx, dst: MachineIdx, msg: M) {
        let inb = &mut self.inbound[dst];
        if inb.active.is_empty() {
            self.busy.push(dst);
        }
        if src == dst {
            inb.push_self(msg);
            return;
        }
        let bits = msg.bits().max(1);
        self.metrics.sent_msgs[src] += 1;
        self.metrics.sent_bits[src] += bits;
        inb.push(src, msg, bits);
    }

    /// Runs one delivery phase into the (cleared) `inboxes` and sums
    /// the tallies. Only busy destinations are visited — any other has
    /// nothing queued, so nothing to deliver and nothing to report.
    fn deliver(&mut self, budget: u64, inboxes: &mut [Vec<Envelope<M>>]) -> RoundTally {
        let mut tally = RoundTally::default();
        let (inbound, woken) = (&mut self.inbound, &mut self.woken);
        woken.clear();
        self.busy.retain(|&dst| {
            let t = inbound[dst].deliver(budget, &mut inboxes[dst]);
            if t.inbox_msgs > 0 {
                woken.push(dst);
            }
            tally.absorb(t);
            !inbound[dst].active.is_empty()
        });
        tally
    }

    /// [`next_completion`] over the busy destinations.
    fn next_completion(&self, budget: u64) -> Option<u64> {
        next_completion(self.busy.iter().map(|&dst| &self.inbound[dst]), budget)
    }

    /// [`Inbound::advance`] on every busy destination.
    fn advance(&mut self, rounds: u64, budget: u64) {
        for &dst in &self.busy {
            self.inbound[dst].advance(rounds, budget);
        }
    }

    fn finish(mut self, rounds: u64, bandwidth_bits: u64) -> Metrics {
        for inb in &self.inbound {
            inb.fold_into(&mut self.metrics);
        }
        self.metrics.rounds = rounds;
        debug_assert_lemma3(&self.metrics, bandwidth_bits);
        self.metrics
    }
}

/// The failure of a worker thread that stopped answering without a
/// report of its own.
pub(crate) fn silent_exit(machine: MachineIdx) -> EngineError {
    EngineError::WorkerPanicked {
        machine,
        message: "worker thread exited without reporting".to_string(),
    }
}

/// Renders a caught panic payload for [`EngineError::WorkerPanicked`].
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::{Inbound, RoundLedger, RoundTally};
    use crate::config::NetConfig;
    use crate::engine::{DistributedEngine, SequentialEngine};
    use crate::error::EngineError;
    use crate::message::{Envelope, Outbox};
    use crate::protocol::{Protocol, RoundCtx, Status};
    use rand::Rng;

    /// Random-size messages to random peers for a few rounds: exercises
    /// partial deliveries (messages larger than one round's budget) and
    /// multi-message rounds.
    struct Mesh {
        rounds: u64,
    }

    impl Protocol for Mesh {
        type Msg = Vec<u8>;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            _inbox: &mut Vec<Envelope<Vec<u8>>>,
            out: &mut Outbox<Vec<u8>>,
        ) -> Status {
            if ctx.round < self.rounds {
                for _ in 0..ctx.rng.gen_range(0..4) {
                    let dst = ctx.rng.gen_range(0..ctx.k);
                    let len = ctx.rng.gen_range(0..24);
                    out.send(dst, vec![0u8; len]);
                }
                Status::Active
            } else {
                Status::Done
            }
        }
    }

    #[test]
    fn drained_run_balances_sent_and_received_metrics() {
        // Small budget relative to message sizes forces messages to span
        // rounds, the case where recv accounting could drift from sent.
        let cfg = NetConfig::with_bandwidth(5, 48, 99);
        let machines: Vec<Mesh> = (0..5).map(|_| Mesh { rounds: 4 }).collect();
        let report = SequentialEngine::run(cfg, machines).unwrap();
        let m = &report.metrics;
        assert!(m.total_msgs() > 0, "the mesh must generate traffic");
        assert_eq!(
            m.sent_msgs.iter().sum::<u64>(),
            m.recv_msgs.iter().sum::<u64>(),
            "every sent message is received exactly once after a drain"
        );
        assert_eq!(
            m.sent_bits.iter().sum::<u64>(),
            m.recv_bits.iter().sum::<u64>(),
            "every sent bit is received exactly once after a drain"
        );
    }

    /// The sparse-delivery contract, observed through the active index
    /// and the visit counter: `deliver` touches exactly the links with
    /// queued traffic, never the other `k − O(1)`.
    #[test]
    fn deliver_touches_only_active_links() {
        let mut inb: Inbound<u32> = Inbound::new(64, 7);
        let mut inbox = Vec::new();

        // Idle: a delivery phase visits nothing.
        assert!(!inb.deliver(64, &mut inbox).any_link_bits);
        assert_eq!(inb.link_visits, 0);

        // Three link messages on two links + one free self-send.
        inb.push(3, 1, 32);
        inb.push(5, 2, 32);
        inb.push(3, 3, 32);
        inb.push_self(4);
        assert_eq!(inb.active, vec![3, 5, 7], "two link sources + self");
        assert_eq!((inb.queued_msgs, inb.queued_bits), (4, 3 * 32));

        // One phase delivers everything and visits exactly the 2 active
        // links (the self-queue is not a link); the index empties.
        let t = inb.deliver(64, &mut inbox);
        assert!(t.any_link_bits);
        assert_eq!((t.queued_msgs, t.queued_bits, t.inbox_msgs), (0, 0, 4));
        assert_eq!(inb.link_visits, 2);
        assert!(inb.active.is_empty());
        // Ordered by sender index: 3's FIFO pair, then 5, then self.
        let got: Vec<(usize, u32)> = inbox.iter().map(|e| (e.src, e.msg)).collect();
        assert_eq!(got, vec![(3, 1), (3, 3), (5, 2), (7, 4)]);
        assert_eq!((inb.recv_msgs, inb.recv_bits), (3, 96), "self is free");

        // Another idle phase still visits nothing.
        inbox.clear();
        assert!(!inb.deliver(64, &mut inbox).any_link_bits);
        assert_eq!(inb.link_visits, 2);
    }

    /// A link whose message outlives one round's budget stays in the
    /// active index (and is re-visited) until fully delivered.
    #[test]
    fn partially_delivered_links_stay_active() {
        let mut inb: Inbound<Vec<u8>> = Inbound::new(8, 2);
        let mut inbox = Vec::new();
        inb.push(1, vec![0u8; 30], 272); // 32 + 240 bits at 100/round: 3 rounds
        for round in 0..2 {
            let t = inb.deliver(100, &mut inbox);
            assert!(t.any_link_bits);
            assert!(inbox.is_empty(), "not yet complete at round {round}");
            assert_eq!(inb.active, vec![1]);
            assert_eq!((t.queued_msgs, t.queued_bits), (1, 272));
        }
        let t = inb.deliver(100, &mut inbox);
        assert_eq!((t.queued_msgs, t.inbox_msgs), (0, 1));
        assert!(inb.active.is_empty());
        assert_eq!(inb.link_visits, 3);
    }

    /// The order the engines rely on: count the communication round,
    /// then quiescence, then the limit.
    #[test]
    fn round_ledger_closes_in_count_quiescence_limit_order() {
        let cfg = NetConfig::with_bandwidth(4, 64, 0).max_rounds(3);
        let busy = RoundTally {
            active_machines: 2,
            any_link_bits: true,
            queued_msgs: 5,
            queued_bits: 77,
            inbox_msgs: 1,
            ..RoundTally::default()
        };
        let silent = RoundTally {
            any_link_bits: false,
            ..busy
        };
        let quiet = RoundTally::default();
        // (tallies closed in order, last verdict, comm_rounds after)
        let table: [(&[RoundTally], Result<bool, ()>, u64); 6] = [
            (&[quiet], Ok(true), 0),
            (&[busy, silent], Ok(false), 1),
            // Quiescing on the last permitted round wins over the limit.
            (&[busy, busy, quiet], Ok(true), 2),
            // ... including when that round itself still moved bits.
            (
                &[
                    busy,
                    busy,
                    RoundTally {
                        any_link_bits: true,
                        ..quiet
                    },
                ],
                Ok(true),
                3,
            ),
            (&[busy, silent, busy], Err(()), 2),
            // Anything still pending blocks quiescence.
            (
                &[RoundTally {
                    inbox_msgs: 1,
                    ..quiet
                }],
                Ok(false),
                0,
            ),
        ];
        for (i, (tallies, verdict, comm_rounds)) in table.into_iter().enumerate() {
            let mut ledger = RoundLedger::default();
            let mut last = Ok(false);
            for &t in tallies {
                last = ledger.close(&cfg, t);
            }
            assert_eq!(ledger.iterations, tallies.len() as u64, "row {i}");
            assert_eq!(ledger.comm_rounds, comm_rounds, "row {i}");
            match (last, verdict) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "row {i}"),
                // The error carries the tally of the round that hit the limit.
                (
                    Err(EngineError::RoundLimitExceeded {
                        limit: 3,
                        active_machines: 2,
                        queued_msgs: 5,
                        queued_bits: 77,
                    }),
                    Err(()),
                ) => {}
                (got, want) => panic!("row {i}: got {got:?}, want {want:?}"),
            }
        }
    }

    proptest::proptest! {
        /// Skipping is exact on a destination: for every `s` below its
        /// next completion, `advance(s)` and one delivery phase leave
        /// the tally, the inbox, every link's queue and front, and the
        /// receive counters (visits included) exactly as `s + 1` phases
        /// do — and those first `s` phases deliver nothing.
        #[test]
        fn advance_then_deliver_equals_one_phase_per_round(
            queues in proptest::collection::vec(proptest::collection::vec(0usize..80, 1..4), 1..5),
            budget in 1u64..200,
            warmup in 0usize..4,
        ) {
            let build = || {
                let mut inb: Inbound<Vec<u8>> = Inbound::new(8, 7);
                for (src, lens) in queues.iter().enumerate() {
                    for (i, &len) in lens.iter().enumerate() {
                        let msg = vec![i as u8; len];
                        let bits = crate::WireCodec::bits(&msg);
                        inb.push(src, msg, bits);
                    }
                }
                for _ in 0..warmup {
                    inb.deliver(budget, &mut Vec::new());
                }
                inb
            };
            // Every warmup round may have drained the links.
            let next = build().next_completion(budget).unwrap_or(0);
            // The observable state of a destination.
            let state = |inb: &Inbound<Vec<u8>>| {
                let links: Vec<_> = inb
                    .links
                    .iter()
                    .map(|l| (l.queued(), l.next_completion(1)))
                    .collect();
                let counters = [inb.recv_msgs, inb.recv_bits, inb.link_visits, inb.queued_bits];
                (links, counters, inb.queued_msgs, inb.active.clone())
            };
            for s in 0..next {
                let mut skipped = build();
                skipped.advance(s, budget);
                let mut skipped_inbox = Vec::new();
                let skipped_tally = skipped.deliver(budget, &mut skipped_inbox);
                let mut stepped = build();
                let mut stepped_inbox = Vec::new();
                for _ in 0..s {
                    let t = stepped.deliver(budget, &mut stepped_inbox);
                    proptest::prop_assert!(t.any_link_bits && t.inbox_msgs == 0);
                }
                let stepped_tally = stepped.deliver(budget, &mut stepped_inbox);
                proptest::prop_assert_eq!(skipped_tally, stepped_tally);
                proptest::prop_assert_eq!(skipped_inbox, stepped_inbox);
                proptest::prop_assert_eq!(state(&skipped), state(&stepped));
            }
        }
    }

    /// `next_completion` is the earliest front over the active links,
    /// and `None` with nothing queued.
    #[test]
    fn next_completion_is_the_earliest_front() {
        let mut inb: Inbound<Vec<u8>> = Inbound::new(4, 0);
        assert_eq!(inb.next_completion(64), None);
        inb.push(1, vec![0u8; 60], 512); // 8 rounds at 64
        inb.push(3, vec![0u8; 20], 192); // 3 rounds
        inb.push(3, vec![0u8; 0], 32);
        assert_eq!(inb.next_completion(64), Some(3));
        inb.advance(2, 64);
        assert_eq!(inb.next_completion(64), Some(1));
        assert_eq!(inb.link_visits, 4, "two rounds over two links");
        let t = inb.deliver(64, &mut Vec::new());
        // Link 3's front completes and spends the whole budget, so the
        // 32-bit message behind it is next, ahead of link 1's 320 bits.
        assert_eq!((t.inbox_msgs, t.queued_msgs, t.queued_bits), (1, 2, 544));
        assert_eq!(inb.next_completion(64), Some(1));
        assert_eq!(inb.links[1].next_completion(64), Some(5));
    }

    /// The skip is one less than the next completion, only after a
    /// partial-only round, and clamped so that the limit round and a
    /// planned crash round are executed.
    #[test]
    fn round_ledger_skips_to_the_round_before_the_next_completion() {
        let cfg = NetConfig::with_bandwidth(4, 64, 0).max_rounds(100);
        let quiet = RoundTally {
            any_link_bits: true,
            queued_msgs: 1,
            queued_bits: 640,
            next_completion: Some(10),
            ..RoundTally::default()
        };
        let active = RoundTally {
            active_machines: 1,
            ..quiet
        };
        let mail = RoundTally {
            inbox_msgs: 1,
            ..quiet
        };
        let due = RoundTally {
            next_completion: Some(1),
            ..quiet
        };
        // (rounds executed before, tally, planned crash round, skipped)
        let table = [
            (5, quiet, None, 9),
            (5, active, None, 0),
            (5, mail, None, 0),
            (5, RoundTally::default(), None, 0),
            (5, due, None, 0),
            // The limit fires on round 100's close: rounds up to 98 skip.
            (95, quiet, None, 4),
            (98, quiet, None, 1),
            (99, quiet, None, 0),
            // A crash at round c: rounds before c skip, c runs.
            (5, quiet, Some(8), 3),
            (5, quiet, Some(5), 0),
            (5, quiet, Some(4), 9),
            (5, quiet, Some(40), 9),
        ];
        for (i, (before, tally, crash, want)) in table.into_iter().enumerate() {
            let mut ledger = RoundLedger {
                iterations: before,
                comm_rounds: before / 2,
            };
            assert_eq!(ledger.skip(&cfg, &tally, crash), want, "row {i}");
            assert_eq!(ledger.iterations, before + want, "row {i}");
            assert_eq!(ledger.comm_rounds, before / 2 + want, "row {i}");
        }
    }

    /// Rounds are charged for a long message, iterations are not: one
    /// 2²⁰-byte message at `B = 64` occupies its link for 2¹⁷ rounds,
    /// arrives in round 2¹⁷ on both engines, and every one of those
    /// rounds is counted and visits the link once.
    #[test]
    fn a_long_message_is_charged_every_round() {
        struct Bulk {
            got: Option<u64>,
        }
        impl Protocol for Bulk {
            type Msg = crate::Raw;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                inbox: &mut Vec<Envelope<crate::Raw>>,
                out: &mut Outbox<crate::Raw>,
            ) -> Status {
                if ctx.round == 0 && ctx.me == 0 {
                    out.send(1, crate::Raw::from_vec(vec![7; 1 << 20]));
                }
                if !inbox.is_empty() {
                    self.got = Some(ctx.round);
                }
                Status::Done
            }
        }
        let cfg = NetConfig::with_bandwidth(3, 64, 0);
        let bulk = || (0..3).map(|_| Bulk { got: None }).collect::<Vec<_>>();
        let reports = [
            SequentialEngine::run(cfg, bulk()).unwrap(),
            DistributedEngine::run(cfg, bulk()).unwrap(),
        ];
        for report in &reports {
            let m = &report.metrics;
            assert_eq!((m.rounds, m.link_visits), (1 << 17, 1 << 17));
            assert_eq!(report.machines[1].got, Some(1 << 17));
            assert_eq!(m, &reports[0].metrics);
        }
    }

    /// A full sequential run on a ring at k = 32 performs O(rounds) link
    /// visits — not rounds·k².
    #[test]
    fn sparse_run_does_linear_work() {
        struct Ring {
            hops: u64,
        }
        impl Protocol for Ring {
            type Msg = u64;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                inbox: &mut Vec<Envelope<u64>>,
                out: &mut Outbox<u64>,
            ) -> Status {
                if ctx.round == 0 {
                    if ctx.me == 0 {
                        out.send(1, self.hops);
                    }
                    return Status::Active;
                }
                for env in inbox.iter() {
                    if env.msg > 1 {
                        out.send((ctx.me + 1) % ctx.k, env.msg - 1);
                        return Status::Active;
                    }
                }
                Status::Done
            }
        }
        let k = 32;
        let hops = 100;
        let cfg = NetConfig::with_bandwidth(k, 64, 0);
        let machines: Vec<Ring> = (0..k).map(|_| Ring { hops }).collect();
        let report = SequentialEngine::run(cfg, machines).unwrap();
        assert_eq!(report.metrics.rounds, hops);
        // Exactly one link is active per round: one visit per hop.
        assert_eq!(report.metrics.link_visits, hops);
    }

    /// The sparse-rounds contract, counted by the machines themselves:
    /// a `Done` machine without mail is never called. On a k = 256 ring
    /// carrying 8 tokens, round 0 calls all `k` machines and every later
    /// call is one token arriving — `k + total_msgs` calls in all, where
    /// calling everyone would make `k·(rounds + 1)` — on every engine,
    /// and the link walk is one visit per hop as before.
    #[test]
    fn idle_machines_are_not_called() {
        struct Ring {
            inject: bool,
            hops: u64,
            calls: u64,
        }
        impl Protocol for Ring {
            type Msg = u64;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                inbox: &mut Vec<Envelope<u64>>,
                out: &mut Outbox<u64>,
            ) -> Status {
                self.calls += 1;
                let next = (ctx.me + 1) % ctx.k;
                if ctx.round == 0 && self.inject {
                    out.send(next, self.hops);
                }
                for env in inbox.drain(..) {
                    if env.msg > 1 {
                        out.send(next, env.msg - 1);
                    }
                }
                Status::Done
            }
        }
        let (k, tokens, hops) = (256, 8, 40);
        let cfg = NetConfig::with_bandwidth(k, 64, 0);
        let ring = || -> Vec<Ring> {
            (0..k)
                .map(|i| Ring {
                    inject: i < tokens,
                    hops,
                    calls: 0,
                })
                .collect()
        };
        let reports = [
            SequentialEngine::run(cfg, ring()).unwrap(),
            DistributedEngine::run(cfg, ring()).unwrap(),
        ];
        for report in &reports {
            let m = &report.metrics;
            assert_eq!((m.rounds, m.total_msgs()), (hops, tokens as u64 * hops));
            let calls: u64 = report.machines.iter().map(|r| r.calls).sum();
            assert_eq!(calls, k as u64 + m.total_msgs());
            assert_eq!(m.link_visits, m.total_msgs());
            assert_eq!(m, &reports[0].metrics);
        }
    }

    /// The model's bandwidth invariant has teeth: an index that listed
    /// a source twice would let its link release `2B` bits in a round.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "link 5 -> 2 released 128 bits in one round, over B = 64")]
    fn a_link_releasing_over_b_trips_the_bandwidth_check() {
        let mut inb: Inbound<u64> = Inbound::new(8, 2);
        inb.push(5, 1, 64);
        inb.push(5, 2, 64);
        inb.active.push(5);
        inb.deliver(64, &mut Vec::new());
    }
}
