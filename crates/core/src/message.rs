//! Messages and their staging.
//!
//! The model charges links per *bit*, and the theory reasons about
//! `Θ(log n)`-bit ids and `O(polylog n)`-bit messages. Rather than
//! charging byte-aligned sizes, every engine charges a message its
//! logical size, [`WireCodec::bits`], i.e. what `encode` writes: the
//! exact bit layout a real encoding uses, stated once. This keeps the
//! measured round counts aligned with the theorems instead of with
//! encoding artifacts.
//!
//! [`WireCodec::bits`]: crate::codec::WireCodec::bits

use crate::MachineIdx;
use std::sync::Arc;

/// Bits needed to address one of `n` distinct items: `⌈log₂ n⌉` (min 1).
///
/// This is the paper's `Θ(log n)` id cost; protocols size their vertex-id
/// fields with it.
#[inline]
pub fn id_bits(n: usize) -> u64 {
    let n = n.max(2) as u64;
    64 - (n - 1).leading_zeros() as u64
}

/// An opaque byte payload (for raw/byte-oriented protocols and tests);
/// its wire size is its exact byte length. Cloning is cheap (shared
/// refcounted buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raw(pub Arc<[u8]>);

impl Raw {
    /// Wraps a byte vector.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Raw(v.into())
    }
}

/// A received message together with its sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The sending machine.
    pub src: MachineIdx,
    /// The payload.
    pub msg: M,
}

/// Per-round staging area for outgoing messages.
///
/// Self-sends (`dst == me`) are legal: they model a machine handing work to
/// itself (e.g. when it is its own proxy), are delivered next round, and
/// cost no bandwidth — consistent with local computation being free.
#[derive(Debug)]
pub struct Outbox<M> {
    k: usize,
    staged: Vec<(MachineIdx, M)>,
}

impl<M> Outbox<M> {
    /// Creates an empty outbox for a k-machine network, pre-sized for
    /// one message per peer (a broadcast) so the common staging patterns
    /// start without reallocation.
    pub fn new(k: usize) -> Self {
        Outbox {
            k,
            staged: Vec::with_capacity(k.saturating_sub(1)),
        }
    }

    /// Stages `msg` for delivery to `dst`.
    ///
    /// # Panics
    /// Panics if `dst >= k`.
    #[inline]
    pub fn send(&mut self, dst: MachineIdx, msg: M) {
        assert!(
            dst < self.k,
            "destination {dst} out of range for k={}",
            self.k
        );
        self.staged.push((dst, msg));
    }

    /// Stages `msg` for every machine except `me` (a broadcast).
    pub fn broadcast(&mut self, me: MachineIdx, msg: M)
    where
        M: Clone,
    {
        // One reservation up front: broadcast-heavy protocols (the
        // triangle baseline, PageRank fan-outs) otherwise reallocate
        // log(k) times per round.
        self.staged.reserve(self.k.saturating_sub(1));
        for dst in 0..self.k {
            if dst != me {
                self.staged.push((dst, msg.clone()));
            }
        }
    }

    /// Number of staged messages.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Drains the staged messages (used by the engines).
    pub fn drain(&mut self) -> std::vec::Drain<'_, (MachineIdx, M)> {
        self.staged.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WireCodec;

    #[test]
    fn id_bits_matches_log2() {
        assert_eq!(id_bits(0), 1);
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(4), 2);
        assert_eq!(id_bits(5), 3);
        assert_eq!(id_bits(1024), 10);
        assert_eq!(id_bits(1025), 11);
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(().bits(), 1);
        assert_eq!(true.bits(), 1);
        assert_eq!(7u32.bits(), 32);
        assert_eq!((1u16, 2u8).bits(), 24);
        assert_eq!(vec![1u8, 2, 3].bits(), 32 + 24);
        assert_eq!(Raw::from_vec(vec![0; 4]).bits(), 32);
        assert_eq!(Raw::from_vec(vec![]).bits(), 1);
    }

    #[test]
    fn outbox_send_and_broadcast() {
        let mut out: Outbox<u32> = Outbox::new(4);
        out.send(2, 9);
        out.broadcast(1, 5);
        assert_eq!(out.len(), 4);
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs, vec![(2, 9), (0, 5), (2, 5), (3, 5)]);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn outbox_rejects_bad_destination() {
        let mut out: Outbox<u32> = Outbox::new(2);
        out.send(2, 1);
    }
}
