//! Timed loops over single public functions of one layer.
//!
//! Each loop runs for at least [`Budget::secs`] per sample and reports
//! the median of [`SAMPLES`] samples, so a number here is steady enough
//! to say which way a change to that one function moved it. They are
//! per-layer metrics: no gain is ever claimed from one of them alone.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{
    self, CodecFixture, IngestInput, Seeds, SketchFixture, CODEC_LARGE_BYTES, CODEC_SMALL_MSGS,
};
use crate::stats::Summary;

pub const SAMPLES: usize = 5;

/// How long one sample of a micro loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub secs: f64,
}

impl Budget {
    pub const FULL: Budget = Budget { secs: 0.3 };
    pub const SMOKE: Budget = Budget { secs: 0.02 };

    /// Seconds per unit of work, one value per sample. `op` does some
    /// work and returns how many units it was.
    fn secs_per_unit(self, mut op: impl FnMut() -> u64) -> Vec<f64> {
        (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                let mut units = 0u64;
                loop {
                    units += op();
                    let elapsed = start.elapsed().as_secs_f64();
                    if elapsed >= self.secs {
                        break elapsed / units.max(1) as f64;
                    }
                }
            })
            .collect()
    }

    /// Nanoseconds per unit.
    pub fn ns_per_unit(self, op: impl FnMut() -> u64) -> Summary {
        let ns: Vec<f64> = self.secs_per_unit(op).iter().map(|s| s * 1e9).collect();
        Summary::of(&ns)
    }

    /// Units per second, divided by `scale` (2²⁰ for MiB/s, 10⁶ for
    /// Medge/s).
    pub fn rate(self, scale: f64, op: impl FnMut() -> u64) -> Summary {
        let rates: Vec<f64> = self
            .secs_per_unit(op)
            .iter()
            .map(|s| 1.0 / (s * scale))
            .collect();
        Summary::of(&rates)
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// `codec.*`: batch-frame encode, validate + decode, and CRC-32, on a
/// frame of 32 scatter tokens and on one 2 KiB opaque payload.
pub fn codec(budget: Budget, seed: u64) -> Vec<(&'static str, Summary)> {
    let mut fx = CodecFixture::new(seed);
    let mut out = Vec::new();
    out.push((
        "codec.encode_small_ns_per_msg",
        budget.ns_per_unit(|| {
            black_box(fx.encode_small());
            CODEC_SMALL_MSGS as u64
        }),
    ));
    out.push((
        "codec.decode_small_ns_per_msg",
        budget.ns_per_unit(|| black_box(fx.decode_small())),
    ));
    out.push((
        "codec.encode_large_mib_per_s",
        budget.rate(MIB, || {
            black_box(fx.encode_large());
            CODEC_LARGE_BYTES as u64
        }),
    ));
    out.push((
        "codec.decode_large_mib_per_s",
        budget.rate(MIB, || black_box(fx.decode_large())),
    ));
    out.push((
        "codec.crc32_mib_per_s",
        budget.rate(MIB, || {
            let (crc, bytes) = fx.crc32_large();
            black_box(crc);
            bytes as u64
        }),
    ));
    out
}

/// `link.*`: 4096 tokens pushed onto one link and delivered at B = 64.
pub fn link(budget: Budget) -> Vec<(&'static str, Summary)> {
    let mut sink = Vec::new();
    vec![(
        "link.push_deliver_ns_per_msg",
        budget.ns_per_unit(|| black_box(api::link_push_deliver(4096, 64, &mut sink)) as u64),
    )]
}

/// `sketch.*`: building, merging and decoding ℓ₀ sketches of the shape
/// `sketch_cc_*` ships, over 1 000 seeded degree-8 neighbourhoods.
pub fn sketch(budget: Budget, n: usize, m: usize, seed: u64) -> Vec<(&'static str, Summary)> {
    let fx = SketchFixture::new(n, m, 1_000, 8, seed);
    let (attempted, decoded) = fx.decode_all();
    vec![
        (
            "sketch.build_ns_per_edge",
            budget.ns_per_unit(|| fx.build_all() as u64),
        ),
        ("sketch.xor_ns", budget.ns_per_unit(|| fx.xor_all() as u64)),
        (
            "sketch.decode_ns",
            budget.ns_per_unit(|| black_box(fx.decode_all()).0 as u64),
        ),
        (
            "sketch.decode_success_ratio",
            Summary::exact(decoded as f64 / attempted as f64, 1),
        ),
        ("sketch.wire_bits", Summary::exact(fx.wire_bits() as f64, 1)),
    ]
}

/// `graph.*` loops that run in this process: the one-shot generator,
/// the hash partition, the stream generator alone, and the streaming
/// builder alone (over an already materialised edge list).
pub fn graph(budget: Budget, n: usize, k: usize, seeds: Seeds) -> Vec<(&'static str, Summary)> {
    let mut out = Vec::new();
    out.push((
        "graph.generators.gnp_medges_per_s",
        budget.rate(1e6, || api::generate_gnp(n, 4.0, seeds.graph) as u64),
    ));
    out.push((
        "graph.partition.by_hash_ns_per_vertex",
        budget.ns_per_unit(|| {
            black_box(api::hash_partition_max_load(n, k, seeds.partition));
            n as u64
        }),
    ));
    let input = IngestInput::generate(n, 4.0, k, 1 << 16, seeds);
    out.push((
        "graph.stream.gen_medges_per_s",
        budget.rate(1e6, || {
            input.drain(|u, v| {
                black_box((u, v));
            })
        }),
    ));
    let edges = input.collect_edges();
    out.push((
        "graph.stream.build_medges_per_s",
        budget.rate(1e6, || {
            // The clone is the builder's input handed over by value; it
            // is a memcpy, ~1 % of the build.
            let stored = input
                .build_from_edges(edges.clone())
                .expect("generator edges are in range");
            (stored / 2) as u64
        }),
    ));
    out
}

/// `graph.dist.*`, run by a child process of its own (see
/// `main.rs`, `dist-probe`) so its peak RSS is its own: `gnp` plus
/// `DistGraphBuilder::undirected`. Returns `(seconds per build, edges)`.
pub fn dist_build_once(n: usize, k: usize, seeds: Seeds) -> (f64, usize) {
    let input = IngestInput::generate(n, 4.0, k, 1 << 16, seeds);
    let start = Instant::now();
    let loads = input.build_in_memory();
    let secs = start.elapsed().as_secs_f64();
    (secs, loads.iter().sum::<usize>() / 2)
}
