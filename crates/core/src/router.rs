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

use crate::codec::{BitReader, BitWriter, CodecError, WireCodec};
use crate::message::{Envelope, Outbox, WireSize};
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

/// Flush-barrier bookkeeping for multi-stage phase protocols.
///
/// The pattern (used by `BoruvkaMst` and the sketch-connectivity label
/// service in `km-mst`, and by both PageRank protocols in
/// `km-pagerank`): on entering a stage, a machine sends the stage's
/// payload messages and then **broadcasts a flush** carrying small
/// counters. Links are FIFO, so once a machine has collected `k − 1`
/// flushes of the current parity, every payload message of the stage has
/// been delivered to it — a full barrier without global coordination.
/// Messages of the *next* stage can arrive one stage early (the sender
/// advanced first); callers park them and replay at the flip. Drift can
/// never exceed one stage, because advancing twice would require the
/// slow machine's own flush in between.
///
/// `PhaseBarrier` tracks the parity, the flush count, and the
/// element-wise sum of the flush counters; [`PhaseBarrier::ready`] says
/// when the barrier is complete and [`PhaseBarrier::flip`] returns the
/// aggregated counters and re-arms for the next stage.
#[derive(Debug, Clone)]
pub struct PhaseBarrier<const C: usize> {
    parity: bool,
    flushes: usize,
    agg: [u64; C],
}

impl<const C: usize> Default for PhaseBarrier<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const C: usize> PhaseBarrier<C> {
    /// A fresh barrier at parity `false` with zeroed counters.
    pub fn new() -> Self {
        PhaseBarrier {
            parity: false,
            flushes: 0,
            agg: [0; C],
        }
    }

    /// The current stage parity; outgoing messages (including flushes)
    /// must be tagged with it, and an incoming message whose parity
    /// differs belongs to the next stage (park it, replay after `flip`).
    #[inline]
    pub fn parity(&self) -> bool {
        self.parity
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
    /// re-arms the barrier with flipped parity.
    pub fn flip(&mut self) -> [u64; C] {
        let agg = std::mem::replace(&mut self.agg, [0; C]);
        self.flushes = 0;
        self.parity = !self.parity;
        agg
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

impl<M: WireSize> WireSize for Routed<M> {
    fn bits(&self) -> u64 {
        // Two machine indices (16 bits each supports k ≤ 65536) + payload.
        32 + self.inner.bits()
    }
}

impl<M: WireCodec> WireCodec for Routed<M> {
    fn encode(&self, w: &mut BitWriter) {
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

impl WireSize for ScatterToken {
    fn bits(&self) -> u64 {
        16
    }
}

impl WireCodec for ScatterToken {
    fn encode(&self, w: &mut BitWriter) {
        w.put(0, 16); // the token carries no content, only its 16-bit cost
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        r.take(16)?;
        Ok(ScatterToken)
    }
}

impl crate::protocol::Protocol for UniformScatter {
    type Msg = ScatterToken;

    fn round(
        &mut self,
        ctx: &mut crate::protocol::RoundCtx<'_>,
        inbox: &mut Vec<Envelope<ScatterToken>>,
        out: &mut Outbox<ScatterToken>,
    ) -> crate::protocol::Status {
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
            return crate::protocol::Status::Active;
        }
        crate::protocol::Status::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::protocol::{Protocol, RoundCtx, Status};
    use crate::runner::Runner;

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
        assert!(!b.parity());
        assert!(b.ready(1), "k = 1 needs no peer flushes");
        b.absorb([3, 1]);
        assert!(!b.ready(3));
        b.absorb([4, 0]);
        assert!(b.ready(3));
        assert_eq!(b.flip(), [7, 1]);
        // Re-armed: counters cleared, parity flipped.
        assert!(b.parity());
        assert!(!b.ready(3));
        b.absorb([1, 1]);
        b.absorb([1, 1]);
        assert_eq!(b.flip(), [2, 2]);
        assert!(!b.parity());
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
