//! Routing toolbox: Lemma 13, proxies, and two-hop (Valiant) routing.
//!
//! **Lemma 13** (the workhorse of both upper bounds): if every machine is
//! the source (or destination) of `O(x)` messages whose destinations
//! (sources) are i.i.d. uniform, then *direct* routing over the complete
//! machine network delivers everything in `O((x log x)/k)` rounds w.h.p.
//!
//! When destinations are *not* uniform (e.g. all of a high-degree vertex's
//! traffic aims at its home machine), the paper's algorithms first
//! randomize: **randomized proxy computation** (Section 1.3) assigns each
//! object (edge, vertex, token batch) a uniformly random proxy machine
//! that does the work on its behalf. [`proxy_of`] provides the shared
//! deterministic proxy map; [`Routed`] implements the two-hop pattern
//! (source → random relay → destination) for raw traffic.

use crate::codec::{BitReader, BitSink, CodecError, WireCodec};
use crate::message::{Envelope, Outbox};
use crate::protocol::{Protocol, RoundCtx, Status};
use crate::rng::{keyed_hash, splitmix64};
use crate::MachineIdx;
use rand::Rng;

/// Upper-bound shape of Lemma 13: `(x log₂ x)/k` rounds (a constant-free
/// reference curve for the L13 experiment).
pub fn lemma13_bound(x: f64, k: usize) -> f64 {
    if x <= 1.0 {
        return 0.0;
    }
    x * x.log2() / k as f64
}

/// The deterministic proxy machine of an object identified by `key`,
/// under the shared public random seed: uniform over machines, and every
/// machine computes the same answer locally — no coordination needed.
#[inline]
pub fn proxy_of(shared_seed: u64, key: u64, k: usize) -> MachineIdx {
    (keyed_hash(shared_seed, key) % k as u64) as MachineIdx
}

/// [`proxy_of`] re-salted per protocol phase: proxy duty for long-lived
/// objects (component labels, vertex groups) is reshuffled every phase so
/// no machine stays the proxy of a heavy object for the whole run. Used
/// by the sketch-connectivity label service (`km-mst`).
#[inline]
pub fn phase_proxy_of(shared_seed: u64, phase: u64, key: u64, k: usize) -> MachineIdx {
    proxy_of(
        splitmix64(shared_seed ^ phase.wrapping_mul(0xA24B_AED4_963E_E407)),
        key,
        k,
    )
}

/// Flush-barrier bookkeeping of one stage: how many peers have flushed,
/// and the element-wise sum of the `C` counters their flushes carried.
///
/// The pattern: on entering a stage a machine sends the stage's payload
/// messages and then **broadcasts a flush** carrying small counters.
/// Links are FIFO, so once a machine has collected `k − 1` flushes of
/// the current stage, every payload message of the stage has been
/// delivered to it — a full barrier without global coordination, and
/// the summed counters are a global aggregate every machine agrees on
/// (live tokens, candidates produced, labels unresolved).
///
/// Protocols do not drive this by hand: [`Staged`] owns the barrier
/// together with the stage tag, the parking of early messages and the
/// flush broadcast, and is the only form callers see.
#[derive(Debug, Clone)]
pub struct PhaseBarrier<const C: usize> {
    flushes: usize,
    agg: [u64; C],
}

impl<const C: usize> Default for PhaseBarrier<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const C: usize> PhaseBarrier<C> {
    /// A fresh barrier with zeroed counters.
    pub fn new() -> Self {
        PhaseBarrier {
            flushes: 0,
            agg: [0; C],
        }
    }

    /// Absorbs one received flush carrying `counts`.
    pub fn absorb(&mut self, counts: [u64; C]) {
        self.flushes += 1;
        for (a, c) in self.agg.iter_mut().zip(counts) {
            *a += c;
        }
    }

    /// Whether all `k − 1` peer flushes of the current stage are in.
    #[inline]
    pub fn ready(&self, k: usize) -> bool {
        self.flushes == k - 1
    }

    /// Completes the stage: returns the aggregated peer counters and
    /// re-arms the barrier for the next one.
    pub fn flip(&mut self) -> [u64; C] {
        self.flushes = 0;
        std::mem::replace(&mut self.agg, [0; C])
    }
}

/// What a protocol made of flush-separated stages fills in; [`Staged`]
/// runs it. `C` is the number of counters a flush carries.
///
/// Every message carries a small **stage tag** — a parity bit where
/// stages repeat without bound, the phase number where they are few —
/// so a receiver can tell a message of its current stage from one a
/// faster peer sent after advancing.
pub trait Stages<const C: usize>: Send {
    /// The message type; flush markers are one of its shapes.
    type Msg: WireCodec + Clone + Send;

    /// The stage tag `msg` carries.
    fn tag(msg: &Self::Msg) -> u8;

    /// The tag of the `stage`-th stage entered (from 0). Consecutive
    /// stages must differ; the default is a parity bit.
    fn tag_of_stage(stage: u64) -> u8 {
        (stage & 1) as u8
    }

    /// The flush marker closing this machine's sends of stage `tag`.
    fn flush(&self, tag: u8, counts: [u64; C]) -> Self::Msg;

    /// Applies one delivered message of the current stage. A flush
    /// changes no protocol state: return its counters instead.
    fn apply(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        src: MachineIdx,
        msg: Self::Msg,
    ) -> Option<[u64; C]>;

    /// Enters the stage tagged `tag`: performs its sends (every message
    /// tagged `tag`) and returns this machine's flush counters. The
    /// flush itself is broadcast by the skeleton, after the sends.
    fn enter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<Self::Msg>, tag: u8) -> [u64; C];

    /// The barrier of stage `tag` is complete and `totals` are its
    /// counters summed over all `k` machines: finish the stage (state
    /// changes that must precede the next stage's messages) and decide
    /// whether another stage follows — `false` ends the protocol.
    /// Every machine sees the same `totals`, so all decide alike.
    fn complete(&mut self, ctx: &mut RoundCtx<'_>, tag: u8, totals: [u64; C]) -> bool;
}

/// Runs a [`Stages`] protocol: the one implementation of the
/// flush-barrier loop (see [`PhaseBarrier`] for the pattern).
///
/// Round 0 enters stage 0. Every round, delivered messages of the
/// current tag are applied and others parked; then, while the barrier
/// is complete: flip → [`Stages::complete`] → replay the parked
/// messages in arrival order → [`Stages::enter`] the next stage →
/// broadcast its flush. A lagging machine may pass several barriers in
/// one round, and with `k = 1` every barrier is complete at once, so
/// the whole protocol runs inside round 0.
///
/// *Why parking suffices.* A peer can be at most one stage ahead:
/// advancing twice would need this machine's flush of the stage in
/// between, which it has not sent. So a message with a foreign tag
/// belongs to the next stage, and after one flip everything parked is
/// current (debug-asserted).
///
/// *Why replay sits between `complete` and `enter`.* Completion may
/// reset per-stage state (sketch connectivity clears its slot table
/// when a phase ends), and a fast peer's next-stage message must land
/// in the reset state, not be wiped by it; `enter` in turn may consume
/// what those messages delivered.
pub struct Staged<S: Stages<C>, const C: usize> {
    inner: S,
    barrier: PhaseBarrier<C>,
    /// Stages entered so far, minus one.
    stage: u64,
    /// `S::tag_of_stage(stage)`, cached: the per-message test is one
    /// byte compare.
    tag: u8,
    /// This machine's own counters for the current stage (its flush
    /// goes to peers only).
    own: [u64; C],
    parked: Vec<(MachineIdx, S::Msg)>,
    finished: bool,
}

impl<S: Stages<C>, const C: usize> Staged<S, C> {
    /// Wraps a protocol that has not started.
    pub fn new(inner: S) -> Self {
        Staged {
            inner,
            barrier: PhaseBarrier::new(),
            stage: 0,
            tag: S::tag_of_stage(0),
            own: [0; C],
            parked: Vec::new(),
            finished: false,
        }
    }

    /// The protocol's state.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the protocol's state (after a run: its output).
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn deliver(&mut self, ctx: &mut RoundCtx<'_>, src: MachineIdx, msg: S::Msg) {
        if let Some(counts) = self.inner.apply(ctx, src, msg) {
            self.barrier.absorb(counts);
        }
    }

    fn enter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<S::Msg>) {
        self.own = self.inner.enter(ctx, out, self.tag);
        out.broadcast(ctx.me, self.inner.flush(self.tag, self.own));
    }
}

impl<S: Stages<C>, const C: usize> Protocol for Staged<S, C> {
    type Msg = S::Msg;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<S::Msg>>,
        out: &mut Outbox<S::Msg>,
    ) -> Status {
        for env in inbox.drain(..) {
            if S::tag(&env.msg) == self.tag {
                self.deliver(ctx, env.src, env.msg);
            } else {
                self.parked.push((env.src, env.msg));
            }
        }
        if ctx.round == 0 {
            self.enter(ctx, out);
        }
        while !self.finished && self.barrier.ready(ctx.k) {
            let mut totals = self.barrier.flip();
            for (t, own) in totals.iter_mut().zip(self.own) {
                *t += own;
            }
            if !self.inner.complete(ctx, self.tag, totals) {
                self.finished = true;
                break;
            }
            self.stage += 1;
            self.tag = S::tag_of_stage(self.stage);
            for (src, msg) in std::mem::take(&mut self.parked) {
                debug_assert_eq!(S::tag(&msg), self.tag, "barrier drift exceeded one stage");
                self.deliver(ctx, src, msg);
            }
            self.enter(ctx, out);
        }
        if self.finished {
            Status::Done
        } else {
            Status::Active
        }
    }
}

/// A message travelling via at most one random relay (Valiant routing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routed<M> {
    /// The machine that originally sent the message.
    pub origin: MachineIdx,
    /// The final destination.
    pub target: MachineIdx,
    /// The payload.
    pub inner: M,
}

/// Two 16-bit machine indices — hence `k ≤ 65 536`, which
/// [`crate::NetConfig::validate`] enforces — then the payload.
impl<M: WireCodec> WireCodec for Routed<M> {
    fn encode<S: BitSink>(&self, w: &mut S) {
        w.put(self.origin as u64, 16);
        w.put(self.target as u64, 16);
        self.inner.encode(w);
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let origin = r.take(16)? as MachineIdx;
        let target = r.take(16)? as MachineIdx;
        let inner = M::decode(r)?;
        Ok(Routed {
            origin,
            target,
            inner,
        })
    }
}

/// Sends `msg` to `target` via a uniformly random relay machine. Use when
/// the *destination* distribution is adversarial; the relay hop makes both
/// legs uniform so Lemma 13 applies to each.
pub fn send_via_random_relay<M, R: Rng>(
    out: &mut Outbox<Routed<M>>,
    rng: &mut R,
    k: usize,
    origin: MachineIdx,
    target: MachineIdx,
    inner: M,
) {
    let relay = rng.gen_range(0..k);
    out.send(
        relay,
        Routed {
            origin,
            target,
            inner,
        },
    );
}

/// One round of relay processing: forwards messages not yet at their
/// target and returns those that have arrived (as `(origin, payload)`).
///
/// Consumes the inbox — forwarded envelopes and arrived payloads are
/// *moved*, never cloned, so relaying large payloads costs nothing
/// beyond the send itself (hence no `M: Clone` bound). The inbox is left
/// empty; capture `inbox.is_empty()` beforehand if a protocol's
/// termination logic needs to know whether mail arrived this round.
pub fn relay_round<M>(
    me: MachineIdx,
    inbox: &mut Vec<Envelope<Routed<M>>>,
    out: &mut Outbox<Routed<M>>,
) -> Vec<(MachineIdx, M)> {
    let mut arrived = Vec::new();
    for env in inbox.drain(..) {
        if env.msg.target == me {
            arrived.push((env.msg.origin, env.msg.inner));
        } else {
            out.send(env.msg.target, env.msg);
        }
    }
    arrived
}

/// Test/benchmark protocol for Lemma 13: every machine sends `x` unit
/// messages to uniformly random destinations in round 0 (direct routing);
/// the run's round count is the empirical left side of the lemma.
#[derive(Debug)]
pub struct UniformScatter {
    /// Messages each machine originates.
    pub x: usize,
    /// Messages received (for conservation checks).
    pub received: usize,
}

impl UniformScatter {
    /// A scatter source of `x` messages.
    pub fn new(x: usize) -> Self {
        UniformScatter { x, received: 0 }
    }
}

/// A fixed-size scatter payload standing in for an `O(log n)`-bit token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterToken;

impl WireCodec for ScatterToken {
    fn encode<S: BitSink>(&self, w: &mut S) {
        w.put(0, 16); // the token carries no content, only its 16-bit cost
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        r.take(16)?;
        Ok(ScatterToken)
    }
}

impl Protocol for UniformScatter {
    type Msg = ScatterToken;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<ScatterToken>>,
        out: &mut Outbox<ScatterToken>,
    ) -> Status {
        self.received += inbox.len();
        if ctx.round == 0 {
            for _ in 0..self.x {
                let dst = ctx.rng.gen_range(0..ctx.k);
                if dst == ctx.me {
                    self.received += 1; // local delivery, free
                } else {
                    out.send(dst, ScatterToken);
                }
            }
            return Status::Active;
        }
        Status::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::runner::Runner;

    /// `bits()` of the routing layer's own wire types, as literals: two
    /// 16-bit machine indices on top of the payload, and the 16-bit
    /// scatter token. Neither depends on `n`.
    #[test]
    fn routing_sizes_are_pinned() {
        fn routed<M>(inner: M) -> Routed<M> {
            Routed {
                origin: 65_535,
                target: 0,
                inner,
            }
        }
        assert_eq!(ScatterToken.bits(), 16);
        assert_eq!(routed(ScatterToken).bits(), 48);
        assert_eq!(routed(u32::MAX).bits(), 64);
        assert_eq!(routed(()).bits(), 33);
        assert_eq!(routed(crate::Raw::from_vec(vec![1, 2, 3])).bits(), 56);
    }

    #[test]
    fn proxy_is_deterministic_and_uniform() {
        let k = 8;
        let mut counts = vec![0usize; k];
        for key in 0..8000u64 {
            let p = proxy_of(42, key, k);
            assert_eq!(p, proxy_of(42, key, k));
            counts[p] += 1;
        }
        for &c in &counts {
            assert!((c as f64) > 700.0 && (c as f64) < 1300.0, "count {c}");
        }
    }

    #[test]
    fn phase_proxy_reshuffles_between_phases() {
        let k = 16;
        // Deterministic per (seed, phase, key)…
        assert_eq!(phase_proxy_of(7, 3, 42, k), phase_proxy_of(7, 3, 42, k));
        // …but the map differs between phases for at least some keys.
        let moved = (0..1000u64)
            .filter(|&key| phase_proxy_of(7, 0, key, k) != phase_proxy_of(7, 1, key, k))
            .count();
        assert!(moved > 500, "only {moved}/1000 keys moved");
        // Still roughly uniform within a phase.
        let mut counts = vec![0usize; k];
        for key in 0..8000u64 {
            counts[phase_proxy_of(7, 5, key, k)] += 1;
        }
        for &c in &counts {
            assert!(c > 300 && c < 700, "count {c}");
        }
    }

    #[test]
    fn phase_barrier_aggregates_and_flips() {
        let mut b: PhaseBarrier<2> = PhaseBarrier::new();
        assert!(b.ready(1), "k = 1 needs no peer flushes");
        b.absorb([3, 1]);
        assert!(!b.ready(3));
        b.absorb([4, 0]);
        assert!(b.ready(3));
        assert_eq!(b.flip(), [7, 1]);
        // Re-armed: counters cleared.
        assert!(!b.ready(3));
        b.absorb([1, 1]);
        b.absorb([1, 1]);
        assert_eq!(b.flip(), [2, 2]);
    }

    #[test]
    fn lemma13_bound_shape() {
        assert_eq!(lemma13_bound(1.0, 10), 0.0);
        assert!(lemma13_bound(1024.0, 16) > lemma13_bound(1024.0, 32));
        assert!((lemma13_bound(1024.0, 16) - 1024.0 * 10.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn scatter_conserves_messages() {
        let k = 6;
        let x = 50;
        let cfg = NetConfig::with_bandwidth(k, 64, 11);
        let machines: Vec<UniformScatter> = (0..k).map(|_| UniformScatter::new(x)).collect();
        let report = Runner::new(cfg).run(machines).unwrap();
        let total: usize = report.machines.iter().map(|m| m.received).sum();
        assert_eq!(total, k * x);
    }

    #[test]
    fn scatter_rounds_scale_with_x_over_k() {
        // Fixing k and doubling x should roughly double the rounds.
        let k = 8;
        let run = |x: usize| {
            let cfg = NetConfig::with_bandwidth(k, 16, 5); // 1 token/link/round
            let machines: Vec<UniformScatter> = (0..k).map(|_| UniformScatter::new(x)).collect();
            Runner::new(cfg).run(machines).unwrap().metrics.rounds
        };
        let r1 = run(200);
        let r2 = run(400);
        assert!(r2 as f64 > 1.5 * r1 as f64, "r1={r1} r2={r2}");
        assert!((r2 as f64) < 3.0 * r1 as f64, "r1={r1} r2={r2}");
    }

    /// Two-hop routing: all machines target machine 0, but the relay hop
    /// spreads the load; arrivals carry the true origin.
    struct Funnel {
        x: usize,
        arrived: Vec<(MachineIdx, u32)>,
    }

    impl Protocol for Funnel {
        type Msg = Routed<u32>;
        fn round(
            &mut self,
            ctx: &mut RoundCtx<'_>,
            inbox: &mut Vec<Envelope<Routed<u32>>>,
            out: &mut Outbox<Routed<u32>>,
        ) -> Status {
            let had_mail = !inbox.is_empty();
            let mut got = relay_round(ctx.me, inbox, out);
            self.arrived.append(&mut got);
            if ctx.round == 0 && ctx.me != 0 {
                for i in 0..self.x {
                    send_via_random_relay(out, ctx.rng, ctx.k, ctx.me, 0, i as u32);
                }
                return Status::Active;
            }
            if !had_mail && ctx.round > 0 {
                Status::Done
            } else {
                Status::Active
            }
        }
    }

    #[test]
    fn two_hop_routing_delivers_everything_with_origins() {
        let k = 5;
        let x = 20;
        let cfg = NetConfig::with_bandwidth(k, 1024, 3);
        let machines: Vec<Funnel> = (0..k)
            .map(|_| Funnel {
                x,
                arrived: Vec::new(),
            })
            .collect();
        let report = Runner::new(cfg).run(machines).unwrap();
        let arrived = &report.machines[0].arrived;
        assert_eq!(arrived.len(), (k - 1) * x);
        for src in 1..k {
            assert_eq!(arrived.iter().filter(|(o, _)| *o == src).count(), x);
        }
        // Nothing leaks to other machines.
        for m in &report.machines[1..] {
            assert!(m.arrived.is_empty());
        }
    }

    /// What a [`Toy`] machine saw, in order (flushes are the skeleton's
    /// business and leave no trace).
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        /// `(src, tag, x)` of a data message.
        Applied(MachineIdx, u8, u64),
        /// `(tag, counter total)` of a finished barrier.
        Completed(u8, u64),
        Entered(u8),
    }

    /// One 64-bit message: tag (2) · flush bit (1) · value (61).
    #[derive(Debug, Clone, PartialEq)]
    struct ToyMsg {
        tag: u8,
        flush: bool,
        x: u64,
    }

    impl WireCodec for ToyMsg {
        fn encode<S: BitSink>(&self, w: &mut S) {
            w.put(u64::from(self.tag), 2);
            w.put(u64::from(self.flush), 1);
            w.put(self.x, 61);
        }

        fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
            Ok(ToyMsg {
                tag: r.take(2)? as u8,
                flush: r.take(1)? != 0,
                x: r.take(61)?,
            })
        }
    }

    /// Three stages tagged 0, 1, 2. In each, machine 0 sends `heavy`
    /// messages to machine 1 and every other (sender, receiver) pair
    /// exchanges one, so under a one-message-per-round bandwidth link
    /// 0 → 1 lags and machine 2 runs a stage ahead of machine 1. The
    /// flush counts the sender's messages.
    struct Toy {
        heavy: u64,
        seen: Vec<Seen>,
    }

    fn toy(heavy: u64) -> Staged<Toy, 1> {
        Staged::new(Toy {
            heavy,
            seen: Vec::new(),
        })
    }

    impl Stages<1> for Toy {
        type Msg = ToyMsg;

        fn tag(msg: &ToyMsg) -> u8 {
            msg.tag
        }

        fn tag_of_stage(stage: u64) -> u8 {
            stage as u8
        }

        fn flush(&self, tag: u8, [sent]: [u64; 1]) -> ToyMsg {
            ToyMsg {
                tag,
                flush: true,
                x: sent,
            }
        }

        fn apply(
            &mut self,
            _: &mut RoundCtx<'_>,
            src: MachineIdx,
            msg: ToyMsg,
        ) -> Option<[u64; 1]> {
            if msg.flush {
                return Some([msg.x]);
            }
            self.seen.push(Seen::Applied(src, msg.tag, msg.x));
            None
        }

        fn enter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<ToyMsg>, tag: u8) -> [u64; 1] {
            self.seen.push(Seen::Entered(tag));
            let mut sent = 0;
            for dst in (0..ctx.k).filter(|&dst| dst != ctx.me) {
                let n = if (ctx.me, dst) == (0, 1) {
                    self.heavy
                } else {
                    1
                };
                for x in 0..n {
                    out.send(
                        dst,
                        ToyMsg {
                            tag,
                            flush: false,
                            x,
                        },
                    );
                }
                sent += n;
            }
            [sent]
        }

        fn complete(&mut self, _: &mut RoundCtx<'_>, tag: u8, [total]: [u64; 1]) -> bool {
            self.seen.push(Seen::Completed(tag, total));
            tag < 2
        }
    }

    fn data(src: MachineIdx, tag: u8, x: u64) -> Envelope<ToyMsg> {
        let flush = false;
        Envelope {
            src,
            msg: ToyMsg { tag, flush, x },
        }
    }

    fn flush(src: MachineIdx, tag: u8, sent: u64) -> Envelope<ToyMsg> {
        let (flush, x) = (true, sent);
        Envelope {
            src,
            msg: ToyMsg { tag, flush, x },
        }
    }

    /// Calls `round()` on `m` as machine 1 of 3 with a hand-built inbox;
    /// returns the status and what the round staged for sending.
    fn drive(
        m: &mut Staged<Toy, 1>,
        round: u64,
        mut inbox: Vec<Envelope<ToyMsg>>,
    ) -> (Status, Vec<(MachineIdx, ToyMsg)>) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let mut ctx = RoundCtx {
            round,
            me: 1,
            k: 3,
            bandwidth_bits: 64,
            shared_seed: 0,
            rng: &mut rng,
        };
        let mut out = Outbox::new(3);
        let status = m.round(&mut ctx, &mut inbox, &mut out);
        (status, out.drain().collect())
    }

    #[test]
    fn staged_parks_early_messages_and_catches_up_two_barriers_in_one_round() {
        let mut m = toy(1);
        drive(&mut m, 0, vec![]);
        // Machine 2 is a stage ahead: its stage-1 message arrives while
        // stage 0 is still open here, and is parked.
        let inbox = vec![data(0, 0, 0), data(2, 0, 0), flush(2, 0, 2), data(2, 1, 0)];
        let (status, sent) = drive(&mut m, 1, inbox);
        assert_eq!(status, Status::Active);
        assert!(sent.is_empty(), "stage 0 is still waiting on machine 0");
        // The lagging link delivers everything at once: the flush that
        // closes stage 0 and, behind it, both peers' whole stage 1.
        let inbox = vec![
            flush(0, 0, 2),
            data(0, 1, 5),
            flush(0, 1, 2),
            flush(2, 1, 2),
        ];
        let (status, sent) = drive(&mut m, 2, inbox);
        assert_eq!(status, Status::Active);
        use Seen::*;
        let seen = vec![
            Entered(0),
            Applied(0, 0, 0),
            Applied(2, 0, 0),
            Completed(0, 6),
            // Replayed after the flip and before `enter`, in arrival
            // order (round 1's before round 2's).
            Applied(2, 1, 0),
            Applied(0, 1, 5),
            Entered(1),
            // The parked flushes completed stage 1 too: a second
            // barrier in the same call.
            Completed(1, 6),
            Entered(2),
        ];
        assert_eq!(m.inner().seen, seen);
        // Each entry's sends go out first, its flush after them.
        let shape: Vec<(MachineIdx, u8, bool)> = sent
            .iter()
            .map(|(dst, msg)| (*dst, msg.tag, msg.flush))
            .collect();
        let stage = |tag| {
            [
                (0, tag, false),
                (2, tag, false),
                (0, tag, true),
                (2, tag, true),
            ]
        };
        assert_eq!(shape, [stage(1), stage(2)].concat());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "barrier drift exceeded one stage")]
    fn staged_rejects_a_message_two_stages_ahead() {
        let mut m = toy(1);
        drive(&mut m, 0, vec![]);
        drive(
            &mut m,
            1,
            vec![data(2, 2, 0), flush(0, 0, 2), flush(2, 0, 2)],
        );
    }

    #[test]
    fn staged_single_machine_finishes_inside_round_zero() {
        let cfg = NetConfig::with_bandwidth(1, 64, 1);
        let report = Runner::new(cfg).run(vec![toy(4)]).unwrap();
        assert_eq!(report.metrics.total_msgs(), 0);
        use Seen::*;
        let seen: Vec<Seen> = (0..3)
            .flat_map(|tag| [Entered(tag), Completed(tag, 0)])
            .collect();
        assert_eq!(report.machines[0].inner().seen, seen);
    }

    /// The toy as an algorithm: per-machine `seen` logs out.
    struct ToyRun {
        heavy: u64,
    }

    impl crate::KmAlgorithm for ToyRun {
        type Machine = Staged<Toy, 1>;
        type Output = Vec<Vec<Seen>>;

        fn build(&self, k: usize) -> Vec<Staged<Toy, 1>> {
            (0..k).map(|_| toy(self.heavy)).collect()
        }

        fn extract(&self, machines: Vec<Staged<Toy, 1>>, _: &crate::Metrics) -> Vec<Vec<Seen>> {
            machines.into_iter().map(|m| m.into_inner().seen).collect()
        }
    }

    #[test]
    fn staged_drifting_machines_agree_on_every_engine() {
        use crate::runner::{run_algorithm, EngineKind};
        let run = |engine| {
            let cfg = NetConfig::with_bandwidth(3, 64, 7); // one message per link per round
            run_algorithm(&ToyRun { heavy: 6 }, Runner::new(cfg).engine(engine)).unwrap()
        };
        let seq = run(EngineKind::Sequential);
        assert_eq!(seq, run(EngineKind::Distributed));
        // The skew did make machine 1 lag: it replayed machine 2's
        // stage-1 message between completing stage 0 and entering 1.
        let seen = &seq.output[1];
        let at = |e: &Seen| seen.iter().position(|s| s == e).unwrap();
        let replayed = at(&Seen::Applied(2, 1, 0));
        assert!(at(&Seen::Completed(0, 11)) < replayed);
        assert!(replayed < at(&Seen::Entered(1)));
    }

    proptest::proptest! {
        #[test]
        fn routed_scatter_tokens_roundtrip_the_wire(
            origin in 0usize..1 << 16,
            target in 0usize..1 << 16,
            payload in 0u64..=u64::MAX,
        ) {
            crate::assert_roundtrip(&Routed { origin, target, inner: ScatterToken });
            crate::assert_roundtrip(&Routed { origin, target, inner: payload });
            crate::assert_roundtrip(&ScatterToken);
        }
    }
}
