//! Integration: triangle enumeration pipelines across crates.

use km_graph::generators::{chung_lu, classic, gnp, power_law_weights};
use km_graph::ids::Triangle;
use km_graph::{CsrGraph, DistGraphBuilder, Partition};
use km_repro::core::{run_algorithm, EngineKind, Metrics, NetConfig, Runner};
use km_triangle::baseline::{run_broadcast_triangles, BroadcastTriangle};
use km_triangle::clique::run_clique_triangles;
use km_triangle::kmachine::{
    run_kmachine_triangles, ColorScheme, DistributedTriangles, KmTriangle, TriConfig,
};
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
/// proxies), both engines report equal `Metrics` and the exact set.
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
    let other = run(EngineKind::Distributed);
    assert_eq!(other.metrics, seq.metrics);
    assert_eq!(other.output, seq.output);
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

/// The exact transcript of one triangle run: what the engines charge
/// (rounds, messages, bits, link visits, per-machine received bits) and
/// an FNV-1a fold of every machine's triangle list, in machine order.
/// `extract` sorts the union, so the fold is the only observable of the
/// order each machine's kernel enumerates in.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    rounds: u64,
    total_msgs: u64,
    total_bits: u64,
    link_visits: u64,
    recv_bits: Vec<u64>,
    triangles_fnv: u64,
}

fn pin_of<'a>(metrics: &Metrics, per_machine: impl IntoIterator<Item = &'a [Triangle]>) -> Pin {
    let step = |h: u64, x: u64| {
        x.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    };
    // Each list's length goes in first, so the machine boundaries count.
    let triangles_fnv = per_machine
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, ts| {
            ts.iter().fold(step(h, ts.len() as u64), |h, t| {
                [t.a, t.b, t.c]
                    .into_iter()
                    .fold(h, |h, v| step(h, u64::from(v)))
            })
        });
    Pin {
        rounds: metrics.rounds,
        total_msgs: metrics.total_msgs(),
        total_bits: metrics.total_bits(),
        link_visits: metrics.link_visits,
        recv_bits: metrics.recv_bits.clone(),
        triangles_fnv,
    }
}

fn kmachine_pin(
    g: &CsrGraph,
    part: &Arc<Partition>,
    cfg: TriConfig,
    netc: NetConfig,
    engine: EngineKind,
) -> Pin {
    let machines = KmTriangle::build_all(DistGraphBuilder::new(part).undirected(g), cfg);
    let report = Runner::new(netc).engine(engine).run(machines).unwrap();
    let per_machine = report.machines.iter().map(|m| &m.inner().triangles[..]);
    pin_of(&report.metrics, per_machine)
}

fn broadcast_pin(g: &CsrGraph, part: &Arc<Partition>, netc: NetConfig, engine: EngineKind) -> Pin {
    let machines = BroadcastTriangle::build_all(DistGraphBuilder::new(part).undirected(g));
    let report = Runner::new(netc).engine(engine).run(machines).unwrap();
    pin_of(
        &report.metrics,
        report.machines.iter().map(|m| &m.triangles[..]),
    )
}

/// Hashed `G(240, 0.1)` at `k = 64`, where only `C(8, 3) = 56` machines
/// own a triplet and the other 8 only proxy.
fn gnp_instance() -> (CsrGraph, Arc<Partition>) {
    const N: usize = 240;
    const K: usize = 64;
    assert_eq!(ColorScheme::for_machines(K).triplet_machines(), 56);
    let mut rng = ChaCha8Rng::seed_from_u64(204);
    (gnp(N, 0.1, &mut rng), Arc::new(Partition::by_hash(N, K, 9)))
}

/// A Chung–Lu power law whose heaviest vertex, id 0, is a hub above the
/// designation threshold, under a random vertex partition at `k = 20`.
fn hub_instance() -> (CsrGraph, Arc<Partition>, TriConfig) {
    let mut rng = ChaCha8Rng::seed_from_u64(205);
    let g = chung_lu(&power_law_weights(300, 2.1, 10.0), &mut rng);
    let threshold = 40;
    assert!(
        g.degree(0) == g.max_degree() && g.max_degree() >= threshold,
        "the designation rule must fire on the hub"
    );
    let part = Arc::new(Partition::random_vertex(g.n(), 20, &mut rng));
    let cfg = TriConfig {
        degree_threshold: Some(threshold),
        enumerate_triads: false,
        use_proxies: true,
    };
    (g, part, cfg)
}

/// Pinned Theorem 5 transcript and per-machine enumeration order on the
/// hashed `G(n, p)`, equal on both engines. A change to local
/// computation only must leave it alone.
#[test]
fn kmachine_gnp_transcript_is_pinned_on_both_engines() {
    let (g, part) = gnp_instance();
    let want = Pin {
        rounds: 10,
        total_msgs: 32_345,
        total_bits: 501_748,
        link_visits: 16_389,
        recv_bits: vec![
            3672, 7552, 5952, 6792, 6272, 8232, 8432, 10_612, 13_692, 11_412, 15_772, 5372, 9472,
            8272, 12_352, 7392, 10_212, 14_652, 5212, 11_852, 9272, 4792, 7532, 9012, 7772, 10_072,
            5892, 11_632, 9392, 14_052, 8632, 12_412, 16_952, 6052, 13_552, 10_072, 3312, 5632,
            4732, 7052, 6652, 8652, 12_932, 4572, 10_572, 8512, 4012, 6892, 8932, 5472, 12_772,
            9492, 3092, 6152, 7592, 4592, 2572, 2472, 2552, 2552, 2592, 2232, 2612, 2272,
        ],
        triangles_fnv: 5_747_780_596_091_332_013,
    };
    for engine in [EngineKind::Sequential, EngineKind::Distributed] {
        let got = kmachine_pin(&g, &part, TriConfig::default(), net(64, g.n(), 21), engine);
        assert_eq!(got, want, "{engine:?}");
    }
}

/// The same pin on the power-law hub, with the designation rule firing.
#[test]
fn kmachine_hub_transcript_is_pinned_on_both_engines() {
    let (g, part, cfg) = hub_instance();
    let want = Pin {
        rounds: 17,
        total_msgs: 7213,
        total_bits: 141_187,
        link_visits: 2405,
        recv_bits: vec![
            3389, 6148, 7842, 6469, 5721, 12_528, 9791, 8898, 12_594, 5897, 2663, 6148, 5479, 7657,
            11_727, 5862, 4643, 8207, 6654, 2870,
        ],
        triangles_fnv: 4_739_880_418_525_634_362,
    };
    for engine in [EngineKind::Sequential, EngineKind::Distributed] {
        let got = kmachine_pin(&g, &part, cfg, net(part.k(), g.n(), 22), engine);
        assert_eq!(got, want, "{engine:?}");
    }
}

/// The broadcast baseline shares the enumeration kernel: pinned on both
/// instances the same way.
#[test]
fn broadcast_transcripts_are_pinned_on_both_engines() {
    let (g, part) = gnp_instance();
    let (hub, hub_part, _) = hub_instance();
    let want = [
        Pin {
            rounds: 30,
            total_msgs: 189_063,
            total_bits: 3_177_783,
            link_visits: 51_786,
            recv_bits: vec![
                49_141, 49_702, 49_311, 49_991, 49_753, 49_396, 50_008, 49_464, 49_668, 49_736,
                49_498, 50_042, 50_042, 50_433, 50_127, 49_855, 49_787, 49_345, 48_869, 48_665,
                49_226, 49_974, 50_246, 50_246, 50_263, 49_141, 49_702, 49_362, 49_396, 49_566,
                49_685, 49_056, 49_498, 49_838, 49_668, 50_059, 48_563, 49_107, 49_634, 50_110,
                49_566, 50_178, 49_855, 49_634, 49_464, 49_719, 50_433, 50_093, 49_141, 49_090,
                50_297, 50_144, 49_260, 49_889, 49_158, 50_076, 49_447, 49_379, 49_889, 50_314,
                48_784, 49_804, 49_702, 49_294,
            ],
            triangles_fnv: 16_646_781_488_075_782_481,
        },
        Pin {
            rounds: 48,
            total_msgs: 23_902,
            total_bits: 449_958,
            link_visits: 5719,
            recv_bits: vec![
                23_598, 22_553, 22_192, 23_161, 22_648, 19_798, 22_990, 22_230, 20_919, 23_332,
                22_819, 21_755, 22_952, 23_522, 23_123, 22_819, 23_503, 23_085, 21_983, 20_976,
            ],
            triangles_fnv: 18_168_239_591_505_769_344,
        },
    ];
    for engine in [EngineKind::Sequential, EngineKind::Distributed] {
        let got = [
            broadcast_pin(&g, &part, net(64, g.n(), 23), engine),
            broadcast_pin(&hub, &hub_part, net(hub_part.k(), hub.n(), 24), engine),
        ];
        assert_eq!(got, want, "{engine:?}");
    }
}
