//! The distributed engine: real message passing, same transcript.
//!
//! Runs Borůvka MST once on the in-process sequential engine and once
//! on `EngineKind::Distributed` — where a pool of `min(k, cores)` worker
//! threads hosts the machines and every link's round of messages is
//! serialized into one batch frame and pushed through a bounded channel
//! — then checks the two
//! `RunOutcome`s are bit-identical and prints what the byte channels
//! actually carried next to the logical `WireCodec::bits` accounting the
//! paper's bounds charge.
//!
//! ```text
//! cargo run --release --example distributed_engine
//! ```

use km_repro::core::{run_algorithm, EngineKind, NetConfig, Runner};
use km_repro::graph::generators::gnp;
use km_repro::graph::{Partition, WeightedGraph};
use km_repro::mst::DistributedMst;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let (n, k) = (400, 16);
    let g = gnp(n, 0.03, &mut rng);
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
    let ws: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
    let wg = WeightedGraph::from_weighted_edges(n, &edges, &ws).expect("finite weights");
    let part = Arc::new(Partition::by_hash(n, k, 3));
    let net = NetConfig::polylog(k, n, 11).max_rounds(50_000_000);
    let alg = DistributedMst {
        g: &wg,
        part: &part,
    };
    println!(
        "input: G({n}, 0.03) with m = {} edges, k = {k} machines",
        g.m()
    );

    // In-process reference: one thread plays all k machines.
    let seq = run_algorithm(&alg, Runner::new(net).engine(EngineKind::Sequential)).expect("seq");

    // Message passing: min(k, cores) worker threads each hosting a block
    // of machines, one byte frame per link and round, bounded channels,
    // a round barrier — and, by construction, the same transcript.
    let dist = run_algorithm(&alg, Runner::new(net).engine(EngineKind::Distributed)).expect("dist");
    assert_eq!(seq, dist, "engines must be bit-identical");
    println!(
        "\nboruvka mst: {} forest edges, weight {:.4}, {} rounds on both engines",
        seq.output.0.len(),
        seq.output.1,
        seq.metrics.rounds
    );

    // What the wires saw: each (link, round) ships one batch frame, so
    // the fixed header is amortized over every message it carries; the
    // message bits themselves equal the logical transcript.
    let wire = dist.wire.expect("distributed runs report wire traffic");
    println!(
        "wire: {} messages in {} batch frames ({:.1} msgs/frame), {} measured bits vs {} logical bits ({:.3}x)",
        wire.messages,
        wire.frames,
        wire.msgs_per_frame(),
        wire.measured_bits(),
        wire.logical_bits,
        wire.wire_vs_logical()
    );
    println!(
        "      overhead: {} header bits + {} batch-record bits + {} padding bits",
        wire.header_bits(),
        wire.record_bits(),
        wire.padding_bits()
    );
    assert_eq!(wire.logical_bits, dist.metrics.total_bits());
    println!("\nverified: distributed == sequential, frames account for every logical bit");
}
