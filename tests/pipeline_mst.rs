//! Integration: distributed Borůvka's transcript across engines.
//!
//! The pins below were taken while `BoruvkaMst` still contracted with a
//! per-phase ordered-map union-find and relabelled every vertex on every
//! machine after each phase. How a machine stores or resolves component
//! labels is local compute and must not move a round, a message or a bit.

use km_graph::generators::gnm;
use km_graph::{Partition, Vertex, WeightedGraph};
use km_mst::{kruskal, DistributedMst};
use km_repro::core::{run_algorithm, EngineKind, NetConfig, Runner};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn net(k: usize, n: usize, seed: u64) -> NetConfig {
    NetConfig::polylog(k, n, seed).max_rounds(10_000_000)
}

/// `G(n, m)` with uniform `[0, 1)` weights — the benchmark's Borůvka
/// input shape.
fn weighted_gnm(n: usize, m: usize, seed: u64) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = gnm(n, m, &mut rng);
    let edges: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
    let weights: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
    WeightedGraph::from_weighted_edges(n, &edges, &weights).unwrap()
}

/// Runs Borůvka on Sequential, checks the forest against Kruskal and the
/// pinned `(rounds, total_msgs, total_bits, max_recv_bits)`, then asserts
/// equal `Metrics` and output on every engine in `others`.
fn assert_transcript(
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
    pin: (u64, u64, u64, u64),
    others: &[EngineKind],
) {
    let g = weighted_gnm(n, m, seed);
    let part = Arc::new(Partition::by_hash(n, k, seed + 1));
    let alg = DistributedMst { g: &g, part: &part };
    let run = |kind| run_algorithm(&alg, Runner::new(net(k, n, seed + 2)).engine(kind)).unwrap();
    let seq = run(EngineKind::Sequential);
    let (want_edges, want_w) = kruskal(&g);
    assert_eq!(seq.output.0, want_edges);
    assert!((seq.output.1 - want_w).abs() < 1e-9);
    let mt = &seq.metrics;
    assert_eq!(
        (
            mt.rounds,
            mt.total_msgs(),
            mt.total_bits(),
            mt.max_recv_bits()
        ),
        pin
    );
    for &kind in others {
        let other = run(kind);
        assert_eq!(other.metrics, seq.metrics, "{kind:?}");
        assert_eq!(other.output, seq.output, "{kind:?}");
    }
}

/// The benchmark's machine count, where every chosen edge is broadcast
/// to 127 other machines.
#[test]
fn boruvka_at_k128_same_transcript_on_in_process_engines() {
    assert_transcript(
        1_500,
        6_000,
        128,
        41,
        (44, 436_768, 28_842_550, 252_043),
        &[EngineKind::Parallel { threads: 2 }],
    );
}

/// A machine count that does not divide `n` (uneven hash shares), on all
/// three engines.
#[test]
fn boruvka_at_uneven_k_same_transcript_on_every_engine() {
    assert_eq!(1_000 % 7, 6);
    assert_transcript(
        1_000,
        4_000,
        7,
        43,
        (261, 9_950, 853_704, 127_144),
        &[EngineKind::Parallel { threads: 2 }, EngineKind::Distributed],
    );
}
