//! The [`Protocol`] trait: what one machine runs.

use crate::codec::WireCodec;
use crate::message::{Envelope, Outbox};
use crate::MachineIdx;
use rand_chacha::ChaCha8Rng;

/// What a machine reports at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The machine has (or may have) more work to do: it is called
    /// again next round, mail or not.
    Active,
    /// The machine has nothing to do until mail arrives. What it sent
    /// this round is still delivered; it is called again only in a
    /// round that delivers mail to it (see [`Protocol`] for what such a
    /// machine may not do when called without mail). The run
    /// terminates when every machine is `Done` and all links and
    /// inboxes are empty.
    ///
    /// `Done` does not mean finished: a machine waiting for a peer's
    /// message reports `Done` too. [`Protocol::finished`] tells the two
    /// apart once the run has gone quiet.
    Done,
}

/// Per-round execution context handed to [`Protocol::round`].
pub struct RoundCtx<'a> {
    /// Current round number (starting at 0).
    pub round: u64,
    /// This machine's index.
    pub me: MachineIdx,
    /// Number of machines.
    pub k: usize,
    /// Per-link bandwidth in bits (protocols may pack messages up to this).
    pub bandwidth_bits: u64,
    /// The shared public random seed (the paper's public random string
    /// `R`): identical on every machine.
    pub shared_seed: u64,
    /// This machine's private randomness (deterministic per
    /// `(config.seed, me)` — runs are replayable).
    pub rng: &'a mut ChaCha8Rng,
}

/// A distributed algorithm in the k-machine model, from the point of view
/// of a single machine.
///
/// The engine calls [`Protocol::round`] in each synchronous round with the
/// messages delivered this round; the implementation performs arbitrary
/// (free) local computation and stages outgoing messages. Each message `M`
/// reports its logical size via [`WireCodec::bits`] and is delivered once every
/// preceding byte of the FIFO link has been paid for at `B` bits/round.
///
/// # Idle machines are not called
///
/// Round 0 calls every machine. After that, a machine is called in a
/// round iff its last `round()` returned [`Status::Active`] or the round
/// delivered mail to it (self-sends included); a machine that is not
/// called counts as `Done`. This is sound only because of one rule every
/// implementation must keep: **`round()` with an empty inbox after
/// returning `Done` changes no state, sends nothing, draws no randomness
/// and returns `Done` again** — an engine that did call it could not
/// tell. A protocol that needs to act without mail reports `Active`.
pub trait Protocol: Send {
    /// The message type exchanged by this protocol.
    type Msg: WireCodec + Send;

    /// Executes one round. `inbox` holds the messages delivered at the
    /// start of this round, grouped by sender in increasing machine order
    /// (FIFO within a sender).
    ///
    /// The inbox is handed over `&mut` so protocols that forward or store
    /// payloads can `drain(..)` and *move* them instead of cloning. The
    /// engine clears and reuses the buffer after the round, so leaving
    /// messages behind is fine and mutation never affects delivery
    /// semantics.
    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<Self::Msg>>,
        out: &mut Outbox<Self::Msg>,
    ) -> Status;

    /// Whether this machine has produced its output. A machine that
    /// reports [`Status::Done`] while it waits for mail (a parked
    /// [`crate::router::Staged`] machine does) says `false` here until
    /// it is through; if the run goes quiescent while any machine says
    /// `false`, the mail it waits for can no longer come, and the
    /// engines fail with [`crate::EngineError::Stalled`] instead of
    /// returning its partial state. The default, `true`, suits every
    /// protocol that only reports `Done` when it is through.
    ///
    /// A protocol that wraps another (to time or count its rounds, say)
    /// must forward `finished` along with `round`. Left at the default,
    /// a wrapped machine that stalls reads as finished, and the run
    /// ends `Ok` with its partial state.
    fn finished(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A protocol usable as a trait object check: echoes each message back.
    struct Echo;
    impl Protocol for Echo {
        type Msg = u32;
        fn round(
            &mut self,
            _ctx: &mut RoundCtx<'_>,
            inbox: &mut Vec<Envelope<u32>>,
            out: &mut Outbox<u32>,
        ) -> Status {
            for env in inbox.iter() {
                out.send(env.src, env.msg);
            }
            if inbox.is_empty() {
                Status::Done
            } else {
                Status::Active
            }
        }
    }

    #[test]
    fn protocol_is_object_safe_enough_for_generics() {
        // Compile-time check: generic instantiation works.
        fn takes<P: Protocol>(_p: P) {}
        takes(Echo);
    }
}
