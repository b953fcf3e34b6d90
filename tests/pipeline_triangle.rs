//! Integration: triangle enumeration pipelines across crates.

use km_graph::generators::{chung_lu, classic, gnp, power_law_weights};
use km_graph::Partition;
use km_repro::core::{run_algorithm, EngineKind, NetConfig, Runner};
use km_triangle::baseline::run_broadcast_triangles;
use km_triangle::clique::run_clique_triangles;
use km_triangle::kmachine::{run_kmachine_triangles, ColorScheme, DistributedTriangles, TriConfig};
use km_triangle::seq::count_triangles;
use km_triangle::verify::assert_exact_enumeration;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn net(k: usize, n: usize, seed: u64) -> NetConfig {
    NetConfig::polylog(k, n, seed).max_rounds(10_000_000)
}

#[test]
fn three_enumerators_agree_on_random_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(200);
    for (n, p, k) in [(80usize, 0.4, 8usize), (60, 0.6, 27), (100, 0.25, 13)] {
        let g = gnp(n, p, &mut rng);
        let part = Arc::new(Partition::by_hash(n, k, 3));
        let (a, _) = run_kmachine_triangles(&g, &part, TriConfig::default(), net(k, n, 1)).unwrap();
        let (b, _) = run_broadcast_triangles(&g, &part, net(k, n, 1)).unwrap();
        assert_exact_enumeration(&g, &a);
        assert_exact_enumeration(&g, &b);
        assert_eq!(a, b);
    }
}

#[test]
fn congested_clique_end_to_end() {
    let mut rng = ChaCha8Rng::seed_from_u64(201);
    let g = gnp(50, 0.5, &mut rng);
    let (ts, metrics) = run_clique_triangles(&g, 9).unwrap();
    assert_exact_enumeration(&g, &ts);
    assert_eq!(ts.len(), count_triangles(&g));
    assert!(metrics.rounds > 0);
}

#[test]
fn power_law_graph_with_random_vertex_partition() {
    // Skewed degrees + true RVP (not hash) + the designation rule active.
    let mut rng = ChaCha8Rng::seed_from_u64(202);
    let w = power_law_weights(250, 2.2, 8.0);
    let g = chung_lu(&w, &mut rng);
    let k = 11;
    let part = Arc::new(Partition::random_vertex(g.n(), k, &mut rng));
    let cfg = TriConfig {
        degree_threshold: Some(30),
        enumerate_triads: false,
        use_proxies: true,
    };
    let (ts, _) = run_kmachine_triangles(&g, &part, cfg, net(k, g.n(), 5)).unwrap();
    assert_exact_enumeration(&g, &ts);
}

/// The transcript is a property of the protocol, not of the engine or of
/// how a machine stores its edges: with the designation rule firing,
/// proxies on and one machine beyond the triplet count (it only
/// proxies), all three engines report equal `Metrics` and the exact set.
#[test]
fn designation_and_proxy_only_machines_same_transcript_on_every_engine() {
    let mut rng = ChaCha8Rng::seed_from_u64(203);
    let w = power_law_weights(250, 2.2, 8.0);
    let g = chung_lu(&w, &mut rng);
    let k = 11;
    assert!(ColorScheme::for_machines(k).triplet_machines() < k);
    let threshold = 30;
    assert!(
        g.max_degree() >= threshold,
        "the designation rule must fire"
    );
    let part = Arc::new(Partition::random_vertex(g.n(), k, &mut rng));
    let alg = DistributedTriangles {
        g: &g,
        part: &part,
        cfg: TriConfig {
            degree_threshold: Some(threshold),
            enumerate_triads: false,
            use_proxies: true,
        },
    };
    let run = |kind| run_algorithm(&alg, Runner::new(net(k, g.n(), 6)).engine(kind)).unwrap();
    let seq = run(EngineKind::Sequential);
    assert_exact_enumeration(&g, &seq.output.triangles);
    // Pinned while the machines still kept their edges in `BTreeSet`s:
    // how a machine stores or enumerates edges must not move them.
    let m = &seq.metrics;
    assert_eq!(
        (m.rounds, m.total_msgs(), m.total_bits()),
        (27, 3574, 66880)
    );
    for kind in [EngineKind::Parallel { threads: 2 }, EngineKind::Distributed] {
        let other = run(kind);
        assert_eq!(other.metrics, seq.metrics, "{kind:?}");
        assert_eq!(other.output, seq.output, "{kind:?}");
    }
}

#[test]
fn complete_graph_stress() {
    let g = classic::complete(60);
    let part = Arc::new(Partition::by_hash(60, 16, 7));
    let (ts, metrics) =
        run_kmachine_triangles(&g, &part, TriConfig::default(), net(16, 60, 2)).unwrap();
    assert_eq!(ts.len(), 60 * 59 * 58 / 6);
    // Edge replication: each of the m edges reaches at most q machines,
    // so total messages stay well below m·k.
    let m = g.m() as u64;
    assert!(
        metrics.total_msgs() < m * 16,
        "msgs {}",
        metrics.total_msgs()
    );
}
