//! WIRE — what the distributed engine's wire costs on top of the
//! logical transcript the theorems charge: for a Lemma-13 scatter,
//! Borůvka MST and sketch connectivity at k ∈ {16, 64}, the frames
//! shipped, the messages batched into them, and the measured frame bits
//! split into header / batch-record / padding next to
//! `Metrics::total_bits()`. Every column is a deterministic counter —
//! wall time of the same runs is `benchmark/`'s job.
//!
//! The instances are pinned (generator, partition and `NetConfig` seeds
//! of the frozen `BENCH_*_wire.json` snapshots), so the table checks
//! against those files cell for cell and the `seed` argument is unused;
//! `results/pinned/wire.txt` (tier-1, `crates/bench/tests/pinned_tables.rs`)
//! holds the rendering whose cells are `BENCH_2026-09-29_wire.json`'s.

use crate::table::Table;
use km_core::router::UniformScatter;
use km_core::{run_algorithm, EngineKind, Metrics, NetConfig, Runner, WireReport};
use km_graph::generators::{gnm, gnp};
use km_graph::{Partition, Vertex, WeightedGraph};
use km_mst::{DistributedMst, DistributedSketchConnectivity};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Tokens each machine scatters (16 bits each, `B = 64`).
const SCATTER_X: usize = 512;
/// Vertices of the Borůvka instance, `G(600, 0.02)` with random weights.
const MST_N: usize = 600;
/// Vertices of the sketch-connectivity instance, `G(n, m = 4n)`.
const CC_N: usize = 10_000;

/// One run's row, cross-checking the wire report against the logical
/// transcript first: a clean wire frames every link message exactly
/// once and triggers no recovery traffic.
fn cells(name: &str, n: usize, k: usize, m: &Metrics, w: Option<&WireReport>) -> Vec<String> {
    let w = w.expect("distributed runs report wire");
    assert_eq!(w.logical_bits, m.total_bits(), "{name} k={k}: framed bits");
    assert_eq!(w.messages, m.total_msgs(), "{name} k={k}: framed messages");
    assert_eq!(w.recovery_bytes(), 0, "{name} k={k}: clean-wire recovery");
    vec![
        name.to_string(),
        n.to_string(),
        k.to_string(),
        m.rounds.to_string(),
        w.logical_bits.to_string(),
        w.measured_bits().to_string(),
        w.frames.to_string(),
        w.messages.to_string(),
        format!("{:.2}", w.msgs_per_frame()),
        w.header_bits().to_string(),
        w.record_bits().to_string(),
        w.padding_bits().to_string(),
        format!("{:.3}", w.wire_vs_logical()),
    ]
}

/// WIRE — measured frame bits vs logical `WireCodec::bits` on
/// `EngineKind::Distributed`.
pub fn wire_matrix(_seed: u64) -> Table {
    let mut t = Table::new(
        "WIRE",
        "Distributed-engine wire vs logical transcript: one batched frame per (link, round)",
        &[
            "workload",
            "n",
            "k",
            "rounds",
            "logical bits",
            "measured bits",
            "frames",
            "messages",
            "msgs/frame",
            "header bits",
            "record bits",
            "padding bits",
            "wire/logical",
        ],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = gnp(MST_N, 0.02, &mut rng);
    let edges: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
    let ws: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
    let wg = WeightedGraph::from_weighted_edges(MST_N, &edges, &ws).expect("finite weights");
    let mut rng = ChaCha8Rng::seed_from_u64(CC_N as u64 + 1);
    let cg = gnm(CC_N, 4 * CC_N, &mut rng);

    let distributed = |net: NetConfig| Runner::new(net).engine(EngineKind::Distributed);
    for k in [16usize, 64] {
        let net = NetConfig::with_bandwidth(k, 64, 9).max_rounds(50_000_000);
        let machines: Vec<UniformScatter> =
            (0..k).map(|_| UniformScatter::new(SCATTER_X)).collect();
        let r = distributed(net).run(machines).expect("scatter run");
        t.row(cells(
            "scatter_x512",
            SCATTER_X * k,
            k,
            &r.metrics,
            r.wire.as_ref(),
        ));

        let part = &Arc::new(Partition::by_hash(MST_N, k, 3));
        let net = NetConfig::polylog(k, MST_N, 11).max_rounds(50_000_000);
        let o = run_algorithm(&DistributedMst { g: &wg, part }, distributed(net)).expect("mst run");
        t.row(cells("mst_n600_p02", MST_N, k, &o.metrics, o.wire.as_ref()));

        let part = &Arc::new(Partition::by_hash(CC_N, k, 5));
        let net = NetConfig::polylog(k, CC_N, 17).max_rounds(500_000_000);
        let alg = DistributedSketchConnectivity { g: &cg, part };
        let o = run_algorithm(&alg, distributed(net)).expect("sketch run");
        t.row(cells(
            "sketch_cc_n10k",
            CC_N,
            k,
            &o.metrics,
            o.wire.as_ref(),
        ));
    }
    t.note(
        "header = 21 bytes per frame (length + batch bits + seq + kind + CRC-32); record = \
         message-count and per-message length varints; padding = byte alignment, <= 7 bits \
         per frame; n for scatter rows is the total token count",
    );
    t.note(
        "known gap (ROADMAP item 3): sketch_cc at k=64 batches ~1.5 msgs/frame, which leaves \
         the header under-amortized; mst at k=64 pays 2.26x",
    );
    t
}
