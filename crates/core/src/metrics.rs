//! Transcript statistics of a k-machine execution.
//!
//! These are the quantities the paper's lower bounds constrain: the round
//! count (Theorems 2–5), the per-machine received bits (the transcript
//! `Π_i` whose entropy Theorem 1 bounds by `O(BkT)`, Lemma 3), and total
//! message counts (Corollary 2's message-complexity tradeoffs).

use serde::Serialize;

/// Aggregated statistics of one run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Metrics {
    /// Rounds executed until global quiescence.
    pub rounds: u64,
    /// Per-machine count of messages sent (self-sends excluded).
    pub sent_msgs: Vec<u64>,
    /// Per-machine bits sent over links.
    pub sent_bits: Vec<u64>,
    /// Per-machine count of messages received over links.
    pub recv_msgs: Vec<u64>,
    /// Per-machine bits received over links — the size of the transcript
    /// `Π_i` in Theorem 1.
    pub recv_bits: Vec<u64>,
    /// Maximum bits ever pushed through a single ordered link.
    pub max_link_bits: u64,
    /// Link visits performed by the delivery loop over the whole run.
    /// The sparse delivery core only ever visits links with queued
    /// traffic, so this counts *active* link-rounds — not `k²` per round
    /// — and is the observable the O(active traffic) invariant is tested
    /// against (see `engine/mod.rs`).
    pub link_visits: u64,
}

impl Metrics {
    /// Fresh zeroed metrics for `k` machines.
    pub fn new(k: usize) -> Self {
        Metrics {
            rounds: 0,
            sent_msgs: vec![0; k],
            sent_bits: vec![0; k],
            recv_msgs: vec![0; k],
            recv_bits: vec![0; k],
            max_link_bits: 0,
            link_visits: 0,
        }
    }

    /// Total messages exchanged (sum over machines of sends).
    pub fn total_msgs(&self) -> u64 {
        self.sent_msgs.iter().sum()
    }

    /// Total bits exchanged.
    pub fn total_bits(&self) -> u64 {
        self.sent_bits.iter().sum()
    }

    /// The largest per-machine received-bit count: `max_i |Π_i|`. Theorem 1
    /// lower-bounds this by `IC − o(IC)` for hard inputs, and Lemma 3
    /// upper-bounds it by `(B+1)(k−1)T` — the bridge between information
    /// cost and round complexity.
    pub fn max_recv_bits(&self) -> u64 {
        self.recv_bits.iter().copied().max().unwrap_or(0)
    }

    /// Theoretical floor on rounds implied by this transcript: some machine
    /// received `max_recv_bits()` over `k−1` links of `B` bits, so at least
    /// `⌈max_recv/((k−1)B)⌉` rounds were necessary for *any* schedule.
    pub fn round_floor(&self, bandwidth_bits: u64) -> u64 {
        let k = self.recv_bits.len() as u64;
        if k <= 1 {
            return 0;
        }
        self.max_recv_bits().div_ceil(bandwidth_bits * (k - 1))
    }
}

/// Measured byte-frame statistics from the distributed engine — what the
/// serialized traffic *actually* cost, next to what [`Metrics`] charges
/// logically. Only the distributed engine produces one (the in-process
/// engines never serialize); it is deliberately **excluded** from the
/// cross-engine bit-identity guarantee, which covers output, metrics,
/// and config.
///
/// Each frame batches every message a (link, round) pair queued (see
/// [`crate::codec::encode_batch_frame_into`]), so the logical/measured
/// gap has exactly three sources, all mechanical: each *batch* pays
/// one fixed header ([`crate::codec::FRAME_HEADER_BYTES`]: length, bit
/// count, sequence number, kind, CRC-32); each batch payload carries a
/// count varint plus a per-message bit-length varint (`record_bits`);
/// and each batch payload is padded to a whole byte (`⌈bits/8⌉`). The
/// message bits themselves equal `logical_bits` by construction — the
/// batch encoder asserts it per message — so `wire_vs_logical`
/// quantifies pure framing overhead, not any disagreement about
/// message content.
///
/// Under fault injection ([`crate::faults::FaultPlan`]) the recovery
/// layer's extra traffic lands in the `retransmit_*`/`nack_*`
/// counters — *never* in `frames`/`frame_bytes` (which keep counting
/// one frame per active link per round, preserving
/// `messages == Metrics::total_msgs()`) and never in the logical
/// [`Metrics`]. On a fault-free run all four are zero.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct WireReport {
    /// Batch frames shipped over byte channels — one per (link, round)
    /// pair with queued traffic, *not* one per message.
    pub frames: u64,
    /// Logical link messages carried inside those frames; equals
    /// `Metrics::total_msgs()` of the same run.
    pub messages: u64,
    /// Total frame bytes including headers.
    pub frame_bytes: u64,
    /// Total payload bytes (frames minus headers).
    pub payload_bytes: u64,
    /// Exact payload bits before byte padding: message bits plus the
    /// count and bit-length varints of every batch.
    pub payload_bits: u64,
    /// Total logical bits ([`crate::WireCodec::bits`]) of the framed messages;
    /// equals `Metrics::total_bits()` of the same run.
    pub logical_bits: u64,
    /// Extra physical batch transmissions beyond each frame's first:
    /// NACK-triggered retransmits and fault-injected duplicates.
    pub retransmit_frames: u64,
    /// Bytes behind `retransmit_frames`.
    pub retransmit_bytes: u64,
    /// Retransmit-request control frames sent by receivers.
    pub nack_frames: u64,
    /// Bytes behind `nack_frames`.
    pub nack_bytes: u64,
}

impl WireReport {
    /// Adds `other`'s counts to this report — how the distributed
    /// engine sums its machines' reports when the run ends.
    pub fn absorb(&mut self, other: &WireReport) {
        self.frames += other.frames;
        self.messages += other.messages;
        self.frame_bytes += other.frame_bytes;
        self.payload_bytes += other.payload_bytes;
        self.payload_bits += other.payload_bits;
        self.logical_bits += other.logical_bits;
        self.retransmit_frames += other.retransmit_frames;
        self.retransmit_bytes += other.retransmit_bytes;
        self.nack_frames += other.nack_frames;
        self.nack_bytes += other.nack_bytes;
    }

    /// Bits actually moved over the byte channels, headers included.
    pub fn measured_bits(&self) -> u64 {
        self.frame_bytes * 8
    }

    /// Bits spent on frame headers alone.
    pub fn header_bits(&self) -> u64 {
        (self.frame_bytes - self.payload_bytes) * 8
    }

    /// Bits spent on batch bookkeeping inside payloads: the
    /// message-count varint and per-message bit-length varints.
    pub fn record_bits(&self) -> u64 {
        self.payload_bits - self.logical_bits
    }

    /// Bits lost to byte-aligning each batch payload (`⌈bits/8⌉`
    /// padding) — at most 7 per frame.
    pub fn padding_bits(&self) -> u64 {
        self.payload_bytes * 8 - self.payload_bits
    }

    /// Average messages per batch frame (0.0 when nothing was sent) —
    /// the batching win in one number: the 21-byte header is amortized
    /// over this many messages.
    pub fn msgs_per_frame(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        self.messages as f64 / self.frames as f64
    }

    /// The headline ratio: measured frame bits over logical bits
    /// (`1.0` = the encoding is exactly as large as the theory charges;
    /// `0.0` when nothing was sent). Recovery traffic is excluded — it
    /// measures the adversary, not the encoding.
    pub fn wire_vs_logical(&self) -> f64 {
        if self.logical_bits == 0 {
            return 0.0;
        }
        self.measured_bits() as f64 / self.logical_bits as f64
    }

    /// Bytes the recovery layer spent on top of the logical traffic:
    /// retransmitted batches plus NACK control frames. Zero on a
    /// fault-free wire.
    pub fn recovery_bytes(&self) -> u64 {
        self.retransmit_bytes + self.nack_bytes
    }
}

/// The result of a run: the final machine states plus metrics.
#[derive(Debug)]
pub struct RunReport<P> {
    /// Final protocol states, indexed by machine.
    pub machines: Vec<P>,
    /// Transcript statistics.
    pub metrics: Metrics,
    /// Measured byte-frame statistics — `Some` only for runs on the
    /// distributed engine (see [`WireReport`]).
    pub wire: Option<WireReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_maxima() {
        let mut m = Metrics::new(3);
        m.sent_msgs = vec![1, 2, 3];
        m.sent_bits = vec![10, 20, 30];
        m.recv_bits = vec![5, 50, 7];
        assert_eq!(m.total_msgs(), 6);
        assert_eq!(m.total_bits(), 60);
        assert_eq!(m.max_recv_bits(), 50);
    }

    #[test]
    fn wire_report_arithmetic() {
        // 3 batch frames of 21-byte headers carrying 6 messages; 10
        // payload bytes holding 77 exact payload bits (3 of byte
        // padding), of which 75 are logical message bits (2 are
        // varint records).
        let w = WireReport {
            frames: 3,
            messages: 6,
            frame_bytes: 73,
            payload_bytes: 10,
            payload_bits: 77,
            logical_bits: 75,
            retransmit_frames: 2,
            retransmit_bytes: 50,
            nack_frames: 1,
            nack_bytes: 25,
        };
        assert_eq!(w.measured_bits(), 73 * 8);
        assert_eq!(w.header_bits(), 63 * 8);
        assert_eq!(w.record_bits(), 2);
        assert_eq!(w.padding_bits(), 3);
        assert!((w.msgs_per_frame() - 2.0).abs() < 1e-12);
        assert!((w.wire_vs_logical() - (73.0 * 8.0) / 75.0).abs() < 1e-12);
        assert_eq!(w.recovery_bytes(), 75);
        let mut idle = WireReport::default();
        assert_eq!(idle.wire_vs_logical(), 0.0);
        assert_eq!(idle.msgs_per_frame(), 0.0);
        assert_eq!(idle.recovery_bytes(), 0);
        // Absorbing sums every field: twice into an empty report doubles it.
        idle.absorb(&w);
        assert_eq!(idle, w);
        idle.absorb(&w);
        assert_eq!(idle.measured_bits(), 2 * w.measured_bits());
        assert_eq!(idle.recovery_bytes(), 2 * w.recovery_bytes());
        assert_eq!((idle.messages, idle.logical_bits), (12, 150));
    }

    #[test]
    fn round_floor_matches_lemma3() {
        let mut m = Metrics::new(5);
        m.recv_bits = vec![0, 0, 4000, 0, 0];
        // 4 links × 100 bits per round = 400 bits/round ⇒ 10 rounds.
        assert_eq!(m.round_floor(100), 10);
        assert_eq!(Metrics::new(1).round_floor(100), 0);
    }
}
