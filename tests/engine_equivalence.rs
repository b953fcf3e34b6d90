//! Cross-engine equivalence matrix: for every algorithm in the
//! workspace, the sequential and distributed engines must produce
//! *identical* `RunOutcome`s (output, metrics, and config echo) through
//! the `run_algorithm` path — the engines differ only in
//! wall-clock and, for the distributed engine, in the extra measured
//! `WireReport`.
//!
//! Each algorithm is exercised on the distributed engine (real byte
//! channels, one serialized batch frame per link and round, machines
//! spread over a worker pool) and under `EngineKind::Auto` (whose
//! resolution must never change results, whatever `KM_ENGINE` says).

use km_core::WireCodec;
use km_core::{run_algorithm, EngineKind, KmAlgorithm, NetConfig, Protocol, RunOutcome, Runner};
use km_graph::generators::gnp;
use km_graph::{CsrGraph, Partition, StreamingDistBuilder, VecStream, Vertex, WeightedGraph};
use km_mst::{DistributedMst, DistributedSketchConnectivity, PrebuiltMst};
use km_pagerank::congest_baseline::CongestBaseline;
use km_pagerank::kmachine::{bidirect, DistributedPageRank};
use km_pagerank::{PrConfig, PrebuiltPageRank};
use km_sort::DistributedSort;
use km_triangle::baseline::BroadcastTriangles;
use km_triangle::kmachine::{DistributedTriangles, TriConfig};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn net(k: usize, n: usize, seed: u64) -> NetConfig {
    NetConfig::polylog(k, n, seed).max_rounds(10_000_000)
}

/// Runs `alg` on the sequential engine, then on the distributed engine
/// and `Auto`, asserting every outcome is identical to the sequential
/// reference. Returns the reference outcome for algorithm-specific
/// sanity checks.
fn assert_cross_engine<A>(alg: &A, netc: NetConfig) -> RunOutcome<A::Output>
where
    A: KmAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
    <A::Machine as Protocol>::Msg: WireCodec,
{
    let seq = run_algorithm(alg, Runner::new(netc).engine(EngineKind::Sequential))
        .expect("sequential run");
    for kind in [EngineKind::Distributed, EngineKind::Auto] {
        let other = run_algorithm(alg, Runner::new(netc).engine(kind)).expect("run");
        assert_eq!(seq.output, other.output, "{kind:?} output diverged");
        assert_eq!(seq.metrics, other.metrics, "{kind:?} metrics diverged");
        assert_eq!(seq.config, other.config, "{kind:?} config echo diverged");
        if kind == EngineKind::Distributed {
            let wire = other.wire.expect("distributed runs report wire traffic");
            assert_eq!(
                wire.logical_bits,
                other.metrics.total_bits(),
                "framed logical bits must match the metrics transcript"
            );
            assert!(
                wire.measured_bits() >= wire.logical_bits,
                "frames cannot be smaller than the bits they carry"
            );
        }
    }
    seq
}

#[test]
fn sort_outcomes_identical_across_engines() {
    let mut rng = ChaCha8Rng::seed_from_u64(302);
    let (n, k) = (400, 6);
    let alg = DistributedSort {
        inputs: km_sort::SampleSort::random_input(n, k, &mut rng),
        samples_per_machine: 30,
    };
    let outcome = assert_cross_engine(&alg, net(k, n, 10));
    let total: usize = outcome.output.iter().map(Vec::len).sum();
    assert_eq!(total, n, "all keys accounted for");
}

#[test]
fn mst_outcomes_identical_across_engines() {
    let mut rng = ChaCha8Rng::seed_from_u64(303);
    let g = gnp(50, 0.2, &mut rng);
    let edges: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
    let ws: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
    let wg = WeightedGraph::from_weighted_edges(50, &edges, &ws).unwrap();
    let part = Arc::new(Partition::by_hash(50, 5, 3));
    let alg = DistributedMst {
        g: &wg,
        part: &part,
    };
    let outcome = assert_cross_engine(&alg, net(5, 50, 11));
    let (forest, weight) = outcome.output;
    let (want_forest, want_weight) = km_mst::kruskal(&wg);
    assert_eq!(forest, want_forest);
    assert!((weight - want_weight).abs() < 1e-9);
}

#[test]
fn sketch_connectivity_outcomes_identical_across_engines() {
    let mut rng = ChaCha8Rng::seed_from_u64(306);
    // Sparse enough for several components plus isolated vertices.
    let g = gnp(90, 0.025, &mut rng);
    let part = Arc::new(Partition::by_hash(90, 6, 2));
    let alg = DistributedSketchConnectivity { g: &g, part: &part };
    let outcome = assert_cross_engine(&alg, net(6, 90, 14));

    // Union-find oracle: the forest must induce exactly the graph's
    // component structure.
    let mut parent: Vec<Vertex> = (0..90).collect();
    fn find(parent: &mut [Vertex], mut x: Vertex) -> Vertex {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut components = 90usize;
    for e in g.edges() {
        let (ru, rv) = (find(&mut parent, e.u), find(&mut parent, e.v));
        if ru != rv {
            parent[ru as usize] = rv;
            components -= 1;
        }
    }
    assert_eq!(outcome.output.components, components);
    assert_eq!(outcome.output.forest.len(), 90 - components);
    for e in &outcome.output.forest {
        assert!(g.has_edge(e.u, e.v), "{e:?} not a graph edge");
    }
    // Forest reachability equals graph reachability.
    let pairs: Vec<(Vertex, Vertex)> = outcome.output.forest.iter().map(|e| (e.u, e.v)).collect();
    let f = CsrGraph::from_edges(90, &pairs);
    let roots = |g: &CsrGraph| {
        let mut p: Vec<Vertex> = (0..90).collect();
        for e in g.edges() {
            let (ru, rv) = (find(&mut p, e.u), find(&mut p, e.v));
            if ru != rv {
                let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
                p[hi as usize] = lo;
            }
        }
        (0..90u32).map(|v| find(&mut p, v)).collect::<Vec<_>>()
    };
    assert_eq!(roots(&f), roots(&g));
}

#[test]
fn pagerank_outcomes_identical_across_engines() {
    let mut rng = ChaCha8Rng::seed_from_u64(300);
    let g = bidirect(&gnp(70, 0.1, &mut rng));
    let part = Arc::new(Partition::by_hash(g.n(), 7, 1));
    let cfg = PrConfig {
        reset_prob: 0.4,
        tokens_per_vertex: 25,
    };
    let alg = DistributedPageRank::new(&g, &part, cfg);
    let outcome = assert_cross_engine(&alg, net(7, g.n(), 8));
    assert!(outcome.output.iter().all(|&x| x >= 0.0));
}

#[test]
fn congest_baseline_outcomes_identical_across_engines() {
    let mut rng = ChaCha8Rng::seed_from_u64(304);
    let g = bidirect(&gnp(60, 0.1, &mut rng));
    let part = Arc::new(Partition::by_hash(g.n(), 5, 4));
    let cfg = PrConfig {
        reset_prob: 0.4,
        tokens_per_vertex: 20,
    };
    let alg = CongestBaseline {
        g: &g,
        part: &part,
        cfg,
    };
    assert_cross_engine(&alg, net(5, g.n(), 12));
}

#[test]
fn triangle_outcomes_identical_across_engines() {
    let mut rng = ChaCha8Rng::seed_from_u64(301);
    let g = gnp(60, 0.4, &mut rng);
    let part = Arc::new(Partition::by_hash(60, 9, 2));
    let alg = DistributedTriangles {
        g: &g,
        part: &part,
        cfg: TriConfig::default(),
    };
    let outcome = assert_cross_engine(&alg, net(9, 60, 9));
    assert_eq!(
        outcome.output.triangles,
        km_triangle::seq::enumerate_triangles(&g)
    );
}

#[test]
fn broadcast_baseline_outcomes_identical_across_engines() {
    let mut rng = ChaCha8Rng::seed_from_u64(305);
    let g = gnp(40, 0.4, &mut rng);
    let part = Arc::new(Partition::by_hash(40, 6, 3));
    let alg = BroadcastTriangles { g: &g, part: &part };
    assert_cross_engine(&alg, net(6, 40, 4));
}

/// The streamed-input adapter must be the global-graph adapter run on
/// the same per-machine input: whole `RunOutcome`s equal, on the
/// sequential and the distributed engine.
fn assert_prebuilt_matches<A, P>(global: &A, prebuilt: &P, netc: NetConfig)
where
    A: KmAlgorithm,
    P: KmAlgorithm<Output = A::Output>,
    A::Output: PartialEq + std::fmt::Debug,
    <A::Machine as Protocol>::Msg: WireCodec,
    <P::Machine as Protocol>::Msg: WireCodec,
{
    for kind in [EngineKind::Sequential, EngineKind::Distributed] {
        let want = run_algorithm(global, Runner::new(netc).engine(kind)).expect("global run");
        let got = run_algorithm(prebuilt, Runner::new(netc).engine(kind)).expect("prebuilt run");
        assert_eq!(want, got, "{kind:?}");
    }
}

#[test]
fn prebuilt_mst_matches_the_global_graph_adapter() {
    let mut rng = ChaCha8Rng::seed_from_u64(307);
    let (n, k) = (40, 4);
    let edges: Vec<(Vertex, Vertex)> = gnp(n, 0.15, &mut rng).edges().map(|e| (e.u, e.v)).collect();
    let ws: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
    let wg = WeightedGraph::from_weighted_edges(n, &edges, &ws).unwrap();
    let part = Arc::new(Partition::by_hash(n, k, 6));
    let dist = StreamingDistBuilder::new(&part)
        .weighted(&mut VecStream::weighted(n, edges, ws, 16))
        .expect("finite weights, in-range edges");
    assert_prebuilt_matches(
        &DistributedMst {
            g: &wg,
            part: &part,
        },
        &PrebuiltMst { dist: &dist },
        net(k, n, 15),
    );
}

#[test]
fn prebuilt_pagerank_matches_the_global_graph_adapter() {
    let mut rng = ChaCha8Rng::seed_from_u64(308);
    let g = bidirect(&gnp(48, 0.1, &mut rng));
    let (n, k) = (g.n(), 4);
    let part = Arc::new(Partition::by_hash(n, k, 5));
    let dist = StreamingDistBuilder::new(&part)
        .directed(&mut VecStream::new(n, g.arcs().collect(), 16))
        .expect("in-range arcs");
    let cfg = PrConfig {
        reset_prob: 0.4,
        tokens_per_vertex: 20,
    };
    assert_prebuilt_matches(
        &DistributedPageRank::new(&g, &part, cfg),
        &PrebuiltPageRank { dist: &dist, cfg },
        net(k, n, 16),
    );
}
