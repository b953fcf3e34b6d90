//! A bandwidth-limited FIFO link between an ordered pair of machines.

use crate::codec::WireCodec;
use crate::message::Envelope;
use crate::MachineIdx;
use std::collections::VecDeque;

/// A queued message and its size as cached at staging, 32 bits wide.
/// [`OVERSIZE`] stands for "`u32::MAX` bits or more"; such an entry's
/// size is re-derived from the message itself.
type Entry<M> = (M, u32);

/// The cached size of every message of `u32::MAX` bits or more
/// (512 MiB and up).
const OVERSIZE: u32 = u32::MAX;

/// The size of a queued message: its cached size, or for the sentinel
/// the message's own claim.
fn size<M: WireCodec>(msg: &M, cached: u32) -> u64 {
    match cached {
        OVERSIZE => msg.bits().max(1),
        c => u64::from(c),
    }
}

/// One direction of a point-to-point link.
///
/// Messages queue FIFO; [`Link::deliver`] releases messages worth up to `B`
/// bits per call. A message larger than `B` occupies the link for
/// `⌈bits/B⌉` consecutive rounds (partial progress is tracked, and unused
/// budget does *not* carry across rounds — links cannot "save up"
/// bandwidth, matching the synchronous model).
///
/// A link has one sender, so a queued message costs only its own bytes
/// plus its 4-byte cached size: the sender index is stored once per link
/// and put back into each [`Envelope`] at delivery. A size that does not
/// fit below `u32::MAX` is never capped or rounded: it is queued as a
/// sentinel, and [`Link::deliver`] (like `next_completion`, which the
/// engines' skip over empty rounds reads) asks [`WireCodec::bits`] again
/// each time it reaches that message — the only case in which `bits`
/// runs more than once per link message.
#[derive(Debug)]
pub struct Link<M> {
    queue: VecDeque<Entry<M>>,
    /// The sending machine of every queued message.
    src: MachineIdx,
    /// Bits of the front message already transmitted in previous rounds.
    front_progress: u64,
    /// Total bits ever enqueued (for metrics).
    total_bits: u64,
}

impl<M> Default for Link<M> {
    fn default() -> Self {
        Link {
            queue: VecDeque::new(),
            src: 0,
            front_progress: 0,
            total_bits: 0,
        }
    }
}

/// What one [`Link::deliver`] call accomplished: the bandwidth it
/// consumed (including partial progress on a message still in flight)
/// and the count/size of the messages it fully delivered. The sizes are
/// the ones cached at [`Link::push`] time, so delivery-side accounting
/// never re-calls [`WireCodec::bits`] below `u32::MAX` bits.
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
    /// [`WireCodec::bits`] runs exactly once per message. Every message
    /// queued at once on a link comes from the same sender.
    pub fn push_sized(&mut self, env: Envelope<M>, bits: u64) {
        debug_assert_eq!(bits, env.msg.bits().max(1), "size must match the message");
        debug_assert!(
            self.queue.is_empty() || env.src == self.src,
            "link from {} queued a message from {}",
            self.src,
            env.src
        );
        self.src = env.src;
        self.total_bits += bits;
        let cached = u32::try_from(bits).unwrap_or(OVERSIZE);
        self.queue.push_back((env.msg, cached));
    }

    /// Delivers up to `budget` bits worth of queued messages, in FIFO
    /// order, appending them to `out`.
    pub fn deliver(&mut self, budget: u64, out: &mut Vec<Envelope<M>>) -> Delivery {
        let mut d = Delivery::default();
        let mut remaining = budget;
        // Count the messages the budget completes, then move them out.
        for (msg, cached) in &self.queue {
            let bits = size(msg, *cached);
            let need = bits - self.front_progress;
            if need > remaining {
                self.front_progress += remaining;
                remaining = 0;
                break;
            }
            remaining -= need;
            self.front_progress = 0;
            d.msgs += 1;
            d.msg_bits += bits;
        }
        out.reserve(d.msgs as usize);
        for _ in 0..d.msgs {
            let Some((msg, _)) = self.queue.pop_front() else {
                break;
            };
            out.push(Envelope { src: self.src, msg });
        }
        d.bits_used = budget - remaining;
        d
    }

    /// Calls of [`Link::deliver`] at `budget` bits until the front
    /// message completes: `⌈(front bits − bits already moved)/budget⌉`,
    /// or `None` on an empty link.
    pub(crate) fn next_completion(&self, budget: u64) -> Option<u64> {
        let (msg, cached) = self.queue.front()?;
        Some((size(msg, *cached) - self.front_progress).div_ceil(budget))
    }

    /// Moves `bits` of the front message without completing it — the
    /// state `bits / B` calls of [`Link::deliver`] at `B` bits leave
    /// behind while none of them completes the front.
    pub(crate) fn advance(&mut self, bits: u64) {
        debug_assert!(
            self.next_completion(1).is_some_and(|left| bits < left),
            "advancing {bits} bits would complete the front message"
        );
        self.front_progress += bits;
    }

    /// Whether no message is queued or in flight.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Queued messages not yet fully delivered.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime total of bits pushed through this link.
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BitReader, BitSink, CodecError};
    use crate::router::ScatterToken;
    use std::mem::size_of;

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
        assert_eq!(link.total_bits(), 64);
        assert_eq!(link.queued(), 2);
    }

    #[test]
    fn delivery_restores_the_sender() {
        let mut link: Link<u32> = Link::default();
        link.push(Envelope { src: 5, msg: 1 });
        link.push(Envelope { src: 5, msg: 2 });
        let mut out = Vec::new();
        link.deliver(64, &mut out);
        // Drained, the link may carry another sender's traffic.
        link.push(Envelope { src: 3, msg: 3 });
        link.deliver(32, &mut out);
        let got: Vec<_> = out.into_iter().map(|e| (e.src, e.msg)).collect();
        assert_eq!(got, [(5, 1), (5, 2), (3, 3)]);
    }

    /// The per-message cost this layout exists for, and the `k²`-fold
    /// per-link cost it must not raise: a queued zero-sized message is
    /// its 4-byte size alone, and a link is no larger than when it also
    /// stored a sender index and a 64-bit size beside every message.
    #[test]
    fn queue_layout_is_pinned() {
        assert_eq!(size_of::<Entry<ScatterToken>>(), 4);
        assert!(size_of::<Link<u64>>() <= 56);
    }

    /// A message that claims any size; it is never encoded.
    #[derive(Debug)]
    struct Claim(u64);

    impl WireCodec for Claim {
        fn encode<S: BitSink>(&self, _w: &mut S) {
            unimplemented!("size-only test message")
        }
        fn bits(&self) -> u64 {
            self.0
        }
        fn decode(_r: &mut BitReader<'_>) -> Result<Self, CodecError> {
            unimplemented!("size-only test message")
        }
    }

    /// Sizes at and past 32 bits, back to back at `B = 2³¹`: each
    /// round's `Delivery` and the front's partial progress are exact.
    /// `2³² − 1 + 2³² + 2³³ = 2³⁴ − 1` bits drain in `⌈(2³⁴ − 1)/2³¹⌉ = 8`
    /// rounds, and each message finishes one bit into the round after
    /// its predecessor's last.
    #[test]
    fn sizes_at_and_past_32_bits_are_exact() {
        const B: u64 = 1 << 31;
        let sizes = [(1 << 32) - 1, 1 << 32, 1 << 33];
        let mut link: Link<Claim> = Link::default();
        for bits in sizes {
            link.push(Envelope {
                src: 2,
                msg: Claim(bits),
            });
        }
        assert_eq!(link.total_bits(), (1 << 34) - 1);
        // Per round: (bits used, messages, message bits, front progress after).
        let expected: [(u64, u64, u64, u64); 8] = [
            (B, 0, 0, B),
            (B, 1, (1 << 32) - 1, 1),
            (B, 0, 0, B + 1),
            (B, 1, 1 << 32, 1),
            (B, 0, 0, B + 1),
            (B, 0, 0, 2 * B + 1),
            (B, 0, 0, 3 * B + 1),
            (B - 1, 1, 1 << 33, 0),
        ];
        let mut out = Vec::new();
        for (round, &(used, msgs, msg_bits, progress)) in expected.iter().enumerate() {
            let d = link.deliver(B, &mut out);
            assert_eq!(
                (d.bits_used, d.msgs, d.msg_bits, link.front_progress),
                (used, msgs, msg_bits, progress),
                "round {round}"
            );
        }
        assert!(link.is_empty());
        let got: Vec<_> = out.iter().map(|e| (e.src, e.msg.0)).collect();
        assert_eq!(got, [(2, sizes[0]), (2, sizes[1]), (2, sizes[2])]);
    }

    /// `next_completion` counts the `deliver` calls left to the front's
    /// completion: none on an empty link, an exact quotient on a
    /// multiple of the budget, one more otherwise — and the sentinel's
    /// size is re-derived, not read as `u32::MAX`.
    #[test]
    fn next_completion_counts_the_calls_left_to_the_front() {
        let mut link: Link<Claim> = Link::default();
        assert_eq!(link.next_completion(64), None);
        link.push(Envelope {
            src: 0,
            msg: Claim(256),
        });
        link.push(Envelope {
            src: 0,
            msg: Claim(1),
        });
        assert_eq!(link.next_completion(64), Some(4));
        assert_eq!(link.next_completion(100), Some(3));
        assert_eq!(link.next_completion(256), Some(1));
        link.advance(64);
        assert_eq!(link.next_completion(64), Some(3));
        assert_eq!(link.next_completion(1), Some(192));
        link.deliver(64, &mut Vec::new());
        link.advance(127);
        assert_eq!(link.next_completion(64), Some(1));
        const B: u64 = 1 << 31;
        let mut big: Link<Claim> = Link::default();
        big.push(Envelope {
            src: 0,
            msg: Claim(1 << 33),
        });
        assert_eq!(big.next_completion(B), Some(4));
        big.advance(3 * B);
        assert_eq!(big.next_completion(B), Some(1));
        assert_eq!(big.next_completion(1), Some(B));
    }

    proptest::proptest! {
        /// Skipping is exact on a link: for every `s` below the next
        /// completion, `advance(s·B)` and one `deliver` leave the queue,
        /// the front's progress and the returned `Delivery` exactly as
        /// `s + 1` calls of `deliver` do, and those first `s` calls
        /// deliver nothing.
        #[test]
        fn advance_then_deliver_equals_one_deliver_per_round(
            sizes in proptest::collection::vec(1u64..2_000, 1..6),
            budget in 1u64..300,
            warmup in 0usize..4,
        ) {
            let build = || {
                let mut link: Link<Claim> = Link::default();
                for &bits in &sizes {
                    link.push(Envelope { src: 3, msg: Claim(bits) });
                }
                for _ in 0..warmup {
                    link.deliver(budget, &mut Vec::new());
                }
                link
            };
            // Every warmup round may have drained the link.
            let next = build().next_completion(budget).unwrap_or(0);
            for s in 0..next {
                let mut skipped = build();
                skipped.advance(s * budget);
                let mut skipped_out = Vec::new();
                let skipped_d = skipped.deliver(budget, &mut skipped_out);
                let mut stepped = build();
                let mut stepped_out = Vec::new();
                for _ in 0..s {
                    let d = stepped.deliver(budget, &mut stepped_out);
                    proptest::prop_assert_eq!(d, Delivery { bits_used: budget, msgs: 0, msg_bits: 0 });
                }
                proptest::prop_assert!(stepped_out.is_empty());
                let stepped_d = stepped.deliver(budget, &mut stepped_out);
                proptest::prop_assert_eq!(skipped_d, stepped_d);
                let got = |out: &[Envelope<Claim>]| out.iter().map(|e| (e.src, e.msg.0)).collect::<Vec<_>>();
                proptest::prop_assert_eq!(got(&skipped_out), got(&stepped_out));
                proptest::prop_assert_eq!(skipped.front_progress, stepped.front_progress);
                let queue = |l: &Link<Claim>| l.queue.iter().map(|(m, c)| (m.0, *c)).collect::<Vec<_>>();
                proptest::prop_assert_eq!(queue(&skipped), queue(&stepped));
            }
        }
    }

    /// One oversize message, alone: `2³³` bits at `B = 2³¹` take exactly
    /// four rounds, and a message behind it is not charged the sentinel.
    #[test]
    fn an_oversize_message_alone_drains_in_exact_rounds() {
        const B: u64 = 1 << 31;
        let mut link: Link<Claim> = Link::default();
        link.push(Envelope {
            src: 0,
            msg: Claim(1 << 33),
        });
        link.push(Envelope {
            src: 0,
            msg: Claim(u64::from(u32::MAX) - 1),
        });
        let mut out = Vec::new();
        let rounds: Vec<_> = (0..6).map(|_| link.deliver(B, &mut out)).collect();
        let d = |bits_used, msgs, msg_bits| Delivery {
            bits_used,
            msgs,
            msg_bits,
        };
        assert_eq!(
            rounds,
            [
                d(B, 0, 0),
                d(B, 0, 0),
                d(B, 0, 0),
                d(B, 1, 1 << 33),
                d(B, 0, 0),
                d(B - 2, 1, u64::from(u32::MAX) - 1),
            ]
        );
        assert!(link.is_empty());
    }
}
