//! A bandwidth-limited FIFO link between an ordered pair of machines.

use crate::codec::WireCodec;
use crate::message::Envelope;
use std::collections::VecDeque;

/// One direction of a point-to-point link.
///
/// Messages queue FIFO; [`Link::deliver`] releases messages worth up to `B`
/// bits per call. A message larger than `B` occupies the link for
/// `⌈bits/B⌉` consecutive rounds (partial progress is tracked, and unused
/// budget does *not* carry across rounds — links cannot "save up"
/// bandwidth, matching the synchronous model).
#[derive(Debug)]
pub struct Link<M> {
    queue: VecDeque<(Envelope<M>, u64)>,
    /// Bits of the front message already transmitted in previous rounds.
    front_progress: u64,
    /// Total bits ever enqueued (for metrics).
    total_bits: u64,
    /// Total messages ever enqueued.
    total_msgs: u64,
}

impl<M> Default for Link<M> {
    fn default() -> Self {
        Link {
            queue: VecDeque::new(),
            front_progress: 0,
            total_bits: 0,
            total_msgs: 0,
        }
    }
}

/// What one [`Link::deliver`] call accomplished: the bandwidth it
/// consumed (including partial progress on a message still in flight)
/// and the count/size of the messages it fully delivered. The sizes are
/// the ones cached at [`Link::push`] time, so delivery-side accounting
/// never re-calls [`WireCodec::bits`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Bits of the budget consumed this call.
    pub bits_used: u64,
    /// Messages fully delivered this call.
    pub msgs: u64,
    /// Summed (cached) wire sizes of the fully delivered messages.
    pub msg_bits: u64,
}

impl<M: WireCodec> Link<M> {
    /// Enqueues a message; its logical size is sampled once (clamped ≥ 1).
    pub fn push(&mut self, env: Envelope<M>) {
        let bits = env.msg.bits().max(1);
        self.push_sized(env, bits);
    }

    /// Enqueues a message whose (clamped) wire size the caller already
    /// computed — the engine's staging path uses this so
    /// [`WireCodec::bits`] runs exactly once per message.
    pub fn push_sized(&mut self, env: Envelope<M>, bits: u64) {
        debug_assert_eq!(bits, env.msg.bits().max(1), "size must match the message");
        self.total_bits += bits;
        self.total_msgs += 1;
        self.queue.push_back((env, bits));
    }

    /// Delivers up to `budget` bits worth of queued messages, in FIFO
    /// order, appending them to `out`.
    pub fn deliver(&mut self, budget: u64, out: &mut Vec<Envelope<M>>) -> Delivery {
        let mut d = Delivery::default();
        let mut remaining = budget;
        while let Some((_, bits)) = self.queue.front() {
            let need = bits - self.front_progress;
            if need <= remaining {
                remaining -= need;
                self.front_progress = 0;
                // lint: allow(panic) — the while-let above proved the queue has a front
                let (env, bits) = self.queue.pop_front().expect("front exists");
                d.msgs += 1;
                d.msg_bits += bits;
                out.push(env);
            } else {
                self.front_progress += remaining;
                remaining = 0;
                break;
            }
        }
        d.bits_used = budget - remaining;
        d
    }

    /// Whether no message is queued or in flight.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queued messages not yet fully delivered.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime totals `(messages, bits)` pushed through this link.
    pub fn totals(&self) -> (u64, u64) {
        (self.total_msgs, self.total_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(bits_msg: Vec<u8>) -> Envelope<crate::message::Raw> {
        Envelope {
            src: 0,
            msg: crate::message::Raw::from_vec(bits_msg),
        }
    }

    #[test]
    fn small_messages_fit_one_round() {
        let mut link = Link::default();
        link.push(env(vec![0; 2])); // 16 bits
        link.push(env(vec![0; 2])); // 16 bits
        let mut out = Vec::new();
        let d = link.deliver(64, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(
            d,
            Delivery {
                bits_used: 32,
                msgs: 2,
                msg_bits: 32
            }
        );
        assert!(link.is_empty());
    }

    #[test]
    fn big_message_takes_multiple_rounds() {
        let mut link = Link::default();
        link.push(env(vec![0; 32])); // 256 bits at 100 bits/round: 3 rounds
        let mut out = Vec::new();
        for _ in 0..2 {
            link.deliver(100, &mut out);
            assert!(out.is_empty());
        }
        link.deliver(100, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn budget_does_not_carry_over_within_message_boundaries() {
        // 256-bit message at 100 bits/round: progress 100, 200, done at 256
        // on round 3 (with 44 budget left for the next message).
        let mut link = Link::default();
        link.push(env(vec![0; 32])); // 256 bits
        link.push(env(vec![0; 1])); // 8 bits
        let mut out = Vec::new();
        assert_eq!(link.deliver(100, &mut out).bits_used, 100);
        assert_eq!(link.deliver(100, &mut out).bits_used, 100);
        assert_eq!(out.len(), 0);
        // Third round: 56 to finish + 8 for the next message. The
        // delivered sizes are the full cached message sizes, not the
        // budget spent this round.
        let d = link.deliver(100, &mut out);
        assert_eq!((d.bits_used, d.msgs, d.msg_bits), (64, 2, 264));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut link: Link<u32> = Link::default();
        for i in 0..5u32 {
            link.push(Envelope { src: 0, msg: i });
        }
        let mut out = Vec::new();
        link.deliver(u64::MAX, &mut out);
        let got: Vec<u32> = out.into_iter().map(|e| e.msg).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn totals_accumulate() {
        let mut link: Link<u32> = Link::default();
        link.push(Envelope { src: 0, msg: 1 });
        link.push(Envelope { src: 0, msg: 2 });
        assert_eq!(link.totals(), (2, 64));
        assert_eq!(link.queued(), 2);
    }
}
