//! The order messages come off a link, pinned as per-machine digests.
//!
//! `Metrics` totals cannot see a reordering: two same-size messages
//! swapped on a link leave every count, bit total and round number where
//! it was. Here every machine folds each delivered `(round, src,
//! payload)` into a running `u64`, and every payload is a distinct
//! [`Raw`] (a sender's sequence number leads it), so moving any message
//! to another round, another inbox position or another machine changes
//! a digest. The digests are pinned from the sequential engine, and the
//! distributed engine must reproduce them.

use km_core::{
    DistributedEngine, Envelope, Metrics, NetConfig, Outbox, Protocol, Raw, RoundCtx,
    SequentialEngine, Status,
};
use rand::Rng;

/// What a machine sends, drawn from its own RNG stream.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Rounds `0..rounds`: up to four messages a round to random
    /// destinations (self included) of 1–37 bytes (8–296 bits), so a
    /// message at `B = 64` can occupy its link for up to five rounds.
    Mixed { rounds: u64 },
    /// Round 0 only: `per_machine` two-byte messages to uniformly
    /// random destinations, so every link queues a run of equal sizes.
    Scatter { per_machine: u16 },
}

#[derive(Debug)]
struct Folder {
    shape: Shape,
    /// This machine's sends so far; its low bytes lead each payload.
    seq: u16,
    digest: u64,
}

/// An order-sensitive 64-bit fold (an FNV-1a step on whole words).
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

impl Folder {
    fn new(shape: Shape) -> Self {
        Folder {
            shape,
            seq: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// A payload of `len` bytes no other send of this machine shares:
    /// the sequence number, then filler from the RNG.
    fn payload(&mut self, ctx: &mut RoundCtx<'_>, len: usize) -> Raw {
        let mut bytes: Vec<u8> = (0..len).map(|_| ctx.rng.gen()).collect();
        let seq = self.seq.to_le_bytes();
        bytes[0] = seq[0];
        if len > 1 {
            bytes[1] = seq[1];
        } else {
            assert!(self.seq < 256, "a one-byte payload must stay unique");
        }
        self.seq += 1;
        Raw::from_vec(bytes)
    }
}

impl Protocol for Folder {
    type Msg = Raw;
    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<Raw>>,
        out: &mut Outbox<Raw>,
    ) -> Status {
        for env in inbox.iter() {
            self.digest = mix(self.digest, ctx.round);
            self.digest = mix(self.digest, env.src as u64);
            self.digest = mix(self.digest, env.msg.0.len() as u64);
            for &b in env.msg.0.iter() {
                self.digest = mix(self.digest, u64::from(b));
            }
        }
        match self.shape {
            Shape::Mixed { rounds } if ctx.round < rounds => {
                for _ in 0..ctx.rng.gen_range(0..5) {
                    let dst = ctx.rng.gen_range(0..ctx.k);
                    let len = ctx.rng.gen_range(1..=37);
                    let msg = self.payload(ctx, len);
                    out.send(dst, msg);
                }
                if ctx.round + 1 < rounds {
                    return Status::Active;
                }
            }
            Shape::Scatter { per_machine } if ctx.round == 0 => {
                for _ in 0..per_machine {
                    let dst = ctx.rng.gen_range(0..ctx.k);
                    let msg = self.payload(ctx, 2);
                    out.send(dst, msg);
                }
            }
            _ => {}
        }
        Status::Done
    }
}

/// `(rounds, links' sent bits, received messages, max link bits, link
/// visits)`: totals a reordering on a link leaves unchanged.
fn totals(m: &Metrics) -> [u64; 5] {
    [
        m.rounds,
        m.sent_bits.iter().sum(),
        m.recv_msgs.iter().sum(),
        m.max_link_bits,
        m.link_visits,
    ]
}

/// Runs `shape` on both engines: the sequential digests, after checking
/// that the distributed run reproduced digests and metrics exactly.
fn run_both(cfg: NetConfig, shape: Shape) -> (Vec<u64>, Metrics) {
    let machines = || (0..cfg.k).map(|_| Folder::new(shape)).collect::<Vec<_>>();
    let seq = SequentialEngine::run(cfg, machines()).expect("sequential run");
    let dist = DistributedEngine::run(cfg, machines()).expect("distributed run");
    let digests = |ms: &[Folder]| ms.iter().map(|m| m.digest).collect::<Vec<_>>();
    assert_eq!(digests(&dist.machines), digests(&seq.machines));
    assert_eq!(dist.metrics, seq.metrics);
    (digests(&seq.machines), seq.metrics)
}

fn mixed() -> (Vec<u64>, Metrics) {
    run_both(
        NetConfig::with_bandwidth(7, 64, 3401),
        Shape::Mixed { rounds: 12 },
    )
}

fn scatter() -> (Vec<u64>, Metrics) {
    run_both(
        NetConfig::with_bandwidth(16, 64, 3402),
        Shape::Scatter { per_machine: 1024 },
    )
}

#[test]
fn mixed_sizes_at_k7_totals_are_pinned() {
    assert_eq!(totals(&mixed().1), [21, 18_800, 128, 1_192, 327]);
}

#[test]
fn mixed_sizes_at_k7_delivery_order_is_pinned() {
    assert_eq!(
        mixed().0,
        [
            14658914360854543572,
            13325643516289769605,
            5564105005295287418,
            13611953854060193121,
            8752702089221414351,
            15931118399366492610,
            1284196943100726148,
        ]
    );
}

#[test]
fn dense_scatter_at_k16_totals_are_pinned() {
    assert_eq!(totals(&scatter().1), [21, 244_752, 15_297, 1_344, 3_918]);
}

#[test]
fn dense_scatter_at_k16_delivery_order_is_pinned() {
    assert_eq!(
        scatter().0,
        [
            13783629260470001412,
            5792709615613786110,
            2847299852878401879,
            7702242026142852629,
            9961307519610123488,
            443374034645355208,
            2092863612026305027,
            4595799726607022768,
            6441240049775330016,
            14231911854447452410,
            9456930504676893648,
            1197581657618143638,
            2871092377726992942,
            17080006029668913690,
            13075228989767748489,
            16297347988308373926,
        ]
    );
}
