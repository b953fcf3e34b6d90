//! Workspace-level smoke tests.
//!
//! Two jobs: (1) keep the Cargo workspace membership in sync with the
//! crates this repo documents and re-exports, and (2) run each
//! example's main path on a tiny input (`n ≤ 64`, `k ≤ 4` for k-machine
//! runs) so `cargo test` catches a broken example path without the cost
//! of the full demo sizes.

use km_repro::core::clique::clique_config;
use km_repro::core::{run_algorithm, NetConfig, Runner};
use km_repro::graph::generators::classic::star;
use km_repro::graph::generators::lower_bound_h::LowerBoundGraph;
use km_repro::graph::generators::{chung_lu, gnp, power_law_weights};
use km_repro::graph::Partition;
use km_repro::lower::infocost::InfoCostReport;
use km_repro::lower::pagerank_lb::PagerankLb;
use km_repro::pagerank::congest_baseline::run_congest_pagerank;
use km_repro::pagerank::kmachine::{bidirect, run_kmachine_pagerank};
use km_repro::pagerank::{power_iteration, PrConfig};
use km_repro::triangle::clique::run_clique_triangles;
use km_repro::triangle::kmachine::{run_kmachine_triangles, DistributedTriangles, TriConfig};
use km_repro::triangle::seq::{count_triangles, enumerate_triangles};
use km_repro::triangle::verify::assert_exact_enumeration;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::process::Command;
use std::sync::Arc;

/// The eight workspace crates the README documents, plus the umbrella.
const EXPECTED_MEMBERS: [&str; 9] = [
    "km-bench",
    "km-core",
    "km-graph",
    "km-lower",
    "km-mst",
    "km-pagerank",
    "km-repro",
    "km-sort",
    "km-triangle",
];

/// `cargo metadata` must report every documented workspace member —
/// someone adding or renaming a crate has to update the README/docs
/// story (and this list) in the same PR.
#[test]
fn workspace_membership_stays_in_sync() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let out = Command::new(cargo)
        .args([
            "metadata",
            "--no-deps",
            "--format-version",
            "1",
            "--manifest-path",
            manifest,
        ])
        .output()
        .expect("cargo metadata runs");
    assert!(
        out.status.success(),
        "cargo metadata failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metadata = String::from_utf8(out.stdout).expect("utf8 metadata");
    for name in EXPECTED_MEMBERS {
        assert!(
            metadata.contains(&format!("\"name\":\"{name}\"")),
            "workspace member `{name}` missing from cargo metadata \
             (crate renamed/removed without updating the workspace story?)"
        );
    }
}

/// `examples/quickstart.rs` path: G(n, p) → RVP partition → Algorithm 1
/// PageRank + Theorem 5 triangles, verified against sequential oracles.
#[test]
fn quickstart_path_tiny() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let (n, k) = (48, 4);
    let g = gnp(n, 0.15, &mut rng);
    let part = Arc::new(Partition::by_hash(n, k, 42));
    assert_eq!(part.loads().iter().sum::<usize>(), n);

    let net = NetConfig::polylog(k, n, 1).max_rounds(50_000_000);
    let dg = bidirect(&g);
    let cfg = PrConfig::paper(n, 0.15, 8.0);
    let (pr, metrics) = run_kmachine_pagerank(&dg, &part, cfg, net).expect("pagerank run");
    assert!(metrics.rounds > 0);
    let exact = power_iteration(&dg, 0.15, 1e-12, 10_000);
    assert_eq!(pr.len(), exact.len());
    // Coarse sanity only — the δ-approximation claim has its own tests.
    let mass: f64 = pr.iter().sum();
    assert!(
        mass > 0.5 && mass < 1.5,
        "estimated PageRank mass {mass} far from 1"
    );

    let (triangles, _) =
        run_kmachine_triangles(&g, &part, TriConfig::default(), net).expect("triangle run");
    assert_eq!(
        triangles,
        enumerate_triangles(&g),
        "distributed == sequential"
    );
}

/// `examples/pagerank_scaling.rs` path: star graph, Algorithm 1 vs the
/// conversion-theorem baseline.
#[test]
fn pagerank_scaling_path_tiny() {
    let (n, k) = (64, 4);
    let g = bidirect(&star(n));
    let cfg = PrConfig::paper(n, 0.4, 2.0);
    let net = NetConfig::polylog(k, n, 3).max_rounds(50_000_000);
    let part = Arc::new(Partition::by_hash(n, k, 5));
    let (_, ma) = run_kmachine_pagerank(&g, &part, cfg, net).expect("alg1");
    let (_, mb) = run_congest_pagerank(&g, &part, cfg, net).expect("baseline");
    assert!(ma.rounds > 0 && mb.rounds > 0);
}

/// `examples/congested_clique.rs` path: Corollary 1's `k = n` special
/// case (k equals n by definition here, so only n is kept tiny).
#[test]
fn congested_clique_path_tiny() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let n = 27;
    let g = gnp(n, 0.5, &mut rng);
    let (ts, metrics) = run_clique_triangles(&g, 7).expect("clique run");
    assert_eq!(ts.len(), count_triangles(&g));
    assert!(metrics.rounds > 0);
    let cfg = clique_config(n, 0);
    assert_eq!(cfg.k, n);
}

/// `examples/lower_bound_demo.rs` path: Figure-1 graph, Lemma 4 value
/// separation, and the Theorem 1 information chain on a measured run.
#[test]
fn lower_bound_demo_path_tiny() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let (n, k, eps) = (61, 4, 0.3);
    let h = LowerBoundGraph::random(n, &mut rng);
    let lo = h.pagerank_v_for_bit(eps, false);
    let hi = h.pagerank_v_for_bit(eps, true);
    assert!(hi > lo, "Lemma 4 separation must be positive");

    let part = Arc::new(Partition::random_vertex(h.n(), k, &mut rng));
    let net = NetConfig::polylog(k, h.n(), 2).max_rounds(50_000_000);
    let cfg = PrConfig {
        reset_prob: eps,
        tokens_per_vertex: 4_000,
    };
    let (pr, metrics) = run_kmachine_pagerank(&h.graph, &part, cfg, net).expect("run");
    let mid = (lo + hi) / 2.0;
    let decoded = (0..h.quarter)
        .filter(|&i| (pr[h.v_vertex(i) as usize] > mid) == h.bits[i])
        .count();
    assert!(
        decoded * 2 > h.quarter,
        "decoding the secret bits should beat chance ({decoded}/{})",
        h.quarter
    );

    let bound = PagerankLb::new(h.n(), k).glbt(net.bandwidth_bits);
    let report = InfoCostReport::from_run(&metrics, &bound);
    assert!(
        report.chain_holds(),
        "Theorem 1 chain must hold on a real run: {report:?}"
    );
}

/// `examples/social_triangles.rs` path: Chung–Lu power-law graph,
/// triangle + open-triad enumeration via the explicit machine build.
#[test]
fn social_triangles_path_tiny() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let (n, k) = (60, 4);
    let weights = power_law_weights(n, 2.2, 8.0);
    let g = chung_lu(&weights, &mut rng);
    let part = Arc::new(Partition::random_vertex(n, k, &mut rng));
    let net = NetConfig::polylog(k, n, 9).max_rounds(50_000_000);
    let cfg = TriConfig {
        degree_threshold: None,
        enumerate_triads: true,
        use_proxies: true,
    };
    let alg = DistributedTriangles {
        g: &g,
        part: &part,
        cfg,
    };
    let outcome = run_algorithm(&alg, Runner::new(net)).expect("run");
    assert_exact_enumeration(&g, &outcome.output.triangles);

    // Triads exist whenever some vertex has degree ≥ 2; with the seeds
    // above this graph comfortably has them.
    assert!(
        !outcome.output.open_triads.is_empty(),
        "expected open triads on a power-law graph"
    );
}

/// `examples/distributed_engine.rs` path: Borůvka MST on the sequential
/// vs the distributed engine, bit-identical outcomes plus a wire report
/// whose payload bits equal the logical transcript.
#[test]
fn distributed_engine_path_tiny() {
    use km_repro::core::EngineKind;
    use km_repro::graph::WeightedGraph;
    use km_repro::mst::DistributedMst;
    use rand::Rng;

    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let (n, k) = (48, 4);
    let g = gnp(n, 0.12, &mut rng);
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
    let ws: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
    let wg = WeightedGraph::from_weighted_edges(n, &edges, &ws).expect("finite weights");
    let part = Arc::new(Partition::by_hash(n, k, 3));
    let net = NetConfig::polylog(k, n, 11).max_rounds(50_000_000);
    let alg = DistributedMst {
        g: &wg,
        part: &part,
    };

    let seq = run_algorithm(&alg, Runner::new(net).engine(EngineKind::Sequential)).expect("seq");
    let dist = run_algorithm(&alg, Runner::new(net).engine(EngineKind::Distributed)).expect("dist");
    assert_eq!(seq, dist, "engines must be bit-identical");
    let wire = dist.wire.expect("distributed runs report wire traffic");
    assert_eq!(wire.logical_bits, dist.metrics.total_bits());
    assert!(wire.measured_bits() >= wire.logical_bits);
}

/// `examples/streaming_ingest.rs` path: chunked streaming build
/// bit-identical to the in-memory builder, then sketch connectivity on
/// the prebuilt input.
#[test]
fn streaming_ingest_path_tiny() {
    use km_repro::core::{run_algorithm, Runner};
    use km_repro::graph::{DistGraphBuilder, GnpStream, StreamingDistBuilder};
    use km_repro::mst::PrebuiltSketchConnectivity;

    let (n, k, seed) = (56usize, 4usize, 12u64);
    let p = 0.08;
    let part = Arc::new(Partition::by_hash(n, k, 7));

    let mut stream = GnpStream::<ChaCha8Rng>::new(n, p, seed, 16);
    let streamed = StreamingDistBuilder::new(&part)
        .undirected(&mut stream)
        .expect("in-range edges");
    let g = gnp(n, p, &mut ChaCha8Rng::seed_from_u64(seed));
    let in_memory = DistGraphBuilder::new(&part).undirected(&g);
    assert_eq!(streamed, in_memory, "streaming == in-memory");

    let net = NetConfig::polylog(k, n, 5).max_rounds(50_000_000);
    let run = run_algorithm(
        &PrebuiltSketchConnectivity { dist: &streamed },
        Runner::new(net),
    )
    .expect("sketch run");
    assert_eq!(run.output.components, n - run.output.forest.len());
    assert!(run.metrics.rounds > 0);
}

/// `examples/sketch_connectivity.rs` path: the O~(n/k²) sketch protocol
/// and the Borůvka baseline on the same topology, with matching forest
/// sizes and the no-broadcast recv-bits gap.
#[test]
fn sketch_connectivity_path_tiny() {
    use km_repro::graph::WeightedGraph;
    use km_repro::mst::{run_boruvka, run_sketch_connectivity};
    use rand::Rng;

    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let (n, k) = (64, 4);
    let g = gnp(n, 0.06, &mut rng);
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.u, e.v)).collect();
    let ws: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
    let wg = WeightedGraph::from_weighted_edges(n, &edges, &ws).expect("finite weights");

    let part = Arc::new(Partition::by_hash(n, k, 7));
    let net = NetConfig::polylog(k, n, 5).max_rounds(50_000_000);
    let (cc, sm) = run_sketch_connectivity(&g, &part, net).expect("sketch run");
    let (forest, _, bm) = run_boruvka(&wg, &part, net).expect("boruvka run");
    assert_eq!(cc.forest.len(), forest.len(), "same spanning forest size");
    assert_eq!(cc.components, n - forest.len());
    assert!(sm.rounds > 0 && bm.rounds > 0);
}
