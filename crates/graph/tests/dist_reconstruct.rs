//! Property tests for the `km_graph::dist` layer: the union of all
//! `LocalGraph`s must reconstruct the global graph exactly — every edge
//! endpoint conserved, nothing duplicated — across partition models and
//! undirected / directed / weighted inputs.

use km_graph::dist::{DistGraph, DistGraphBuilder, LocalGraph};
use km_graph::partition::PartitionModel;
use km_graph::stream::{StreamingDistBuilder, VecStream};
use km_graph::{CsrGraph, DiGraph, Partition, Vertex, WeightedGraph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const N: usize = 30;

/// Builds a partition of the requested model from a test-chosen selector.
fn partition(model: u8, n: usize, k: usize, seed: u64) -> Arc<Partition> {
    let part = match model % 3 {
        0 => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            Partition::random_vertex(n, k, &mut rng)
        }
        1 => Partition::by_hash(n, k, seed),
        _ => Partition::round_robin(n, k),
    };
    Arc::new(part)
}

/// Every hosted vertex appears on exactly one machine, in partition order,
/// and the recorded edge loads match the stored endpoints.
fn check_shell(d: &DistGraph, part: &Partition) {
    let mut hosted_total = 0;
    for (i, l) in d.locals().iter().enumerate() {
        assert_eq!(l.machine(), i);
        assert_eq!(l.vertices(), part.members(i));
        assert_eq!(l.hosted(), part.members(i).len());
        assert_eq!(l.edge_endpoints(), d.edge_loads()[i]);
        for (j, &v) in l.vertices().iter().enumerate() {
            assert_eq!(l.local(v), Some(j));
        }
        hosted_total += l.hosted();
    }
    assert_eq!(hosted_total, part.n());
}

/// All `(v, neighbor)` pairs stored across machines, in sorted order.
fn union_pairs(d: &DistGraph) -> Vec<(Vertex, Vertex)> {
    let mut pairs: Vec<(Vertex, Vertex)> = d
        .locals()
        .iter()
        .flat_map(|l| l.iter().flat_map(|(v, ns)| ns.iter().map(move |&w| (v, w))))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// `host_targets(u)` on every machine, for every `u ∈ 0..n`, against a
/// naive filter of the arc list: the local indices of `u`'s hosted
/// out-neighbours, ascending, and `None` exactly when there are none.
fn check_host_index(d: &DistGraph, n: usize, arcs: &[(Vertex, Vertex)]) {
    for l in d.locals() {
        for u in 0..n as Vertex {
            let mut want: Vec<u32> = arcs
                .iter()
                .filter(|&&(a, v)| a == u && a != v)
                .filter_map(|&(_, v)| l.local(v).map(|j| j as u32))
                .collect();
            want.sort_unstable();
            want.dedup();
            let got = l.host_targets(u);
            if want.is_empty() {
                assert_eq!(got, None, "machine {}, u = {u}", l.machine());
            } else {
                assert_eq!(got, Some(&want[..]), "machine {}, u = {u}", l.machine());
            }
        }
    }
}

/// Both directed builders — in memory and streamed — checked by
/// [`check_host_index`].
fn check_both_directed_builds(n: usize, k: usize, model: u8, seed: u64, arcs: &[(Vertex, Vertex)]) {
    let part = partition(model, n, k, seed);
    let g = DiGraph::from_arcs(n, arcs);
    check_host_index(&DistGraphBuilder::new(&part).directed(&g), n, arcs);
    let mut s = VecStream::new(n, arcs.to_vec(), 7);
    let streamed = StreamingDistBuilder::new(&part).directed(&mut s).unwrap();
    check_host_index(&streamed, n, arcs);
}

proptest! {
    /// Undirected: the union of local adjacency equals the global CSR
    /// exactly (each endpoint once — conservation and no duplication).
    #[test]
    fn undirected_reconstructs_exactly(
        edges in proptest::collection::vec((0u32..N as u32, 0u32..N as u32), 0..150),
        k in 1usize..9,
        model in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let g = CsrGraph::from_edges(N, &edges);
        let part = partition(model, N, k, seed);
        let d = DistGraphBuilder::new(&part).undirected(&g);
        check_shell(&d, &part);
        let mut want: Vec<(Vertex, Vertex)> = g
            .vertices()
            .flat_map(|v| g.neighbors(v).iter().map(move |&w| (v, w)))
            .collect();
        want.sort_unstable();
        prop_assert_eq!(union_pairs(&d), want);
        // Balance stats agree with the partition-level diagnostics.
        let want_e = km_graph::partition::balance::edge_balance(&g, &part).unwrap();
        prop_assert_eq!(d.edge_balance(), want_e);
    }

    /// Directed: the union of local out-adjacency equals the arc set, and
    /// `host_targets` is exactly the receiver side of every arc.
    #[test]
    fn directed_reconstructs_exactly(
        arcs in proptest::collection::vec((0u32..N as u32, 0u32..N as u32), 0..150),
        k in 1usize..9,
        model in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let g = DiGraph::from_arcs(N, &arcs);
        let part = partition(model, N, k, seed);
        let d = DistGraphBuilder::new(&part).directed(&g);
        check_shell(&d, &part);
        let mut want: Vec<(Vertex, Vertex)> = g.arcs().collect();
        want.sort_unstable();
        prop_assert_eq!(union_pairs(&d), want);
        // host_targets: for every arc u -> v, v's home machine must list
        // v's local index under source u...
        let mut host_pairs = 0usize;
        for (u, v) in g.arcs() {
            let l = &d.locals()[part.home(v)];
            let j = l.local(v).unwrap() as u32;
            let targets = l.host_targets(u).expect("arc receiver must be indexed");
            prop_assert!(targets.contains(&j), "arc ({u},{v}) missing from host_targets");
        }
        // ...and nothing else is listed (total entries == arc count).
        for l in d.locals() {
            for v in 0..N as Vertex {
                if let Some(ts) = l.host_targets(v) {
                    host_pairs += ts.len();
                    // Each listed target really is an out-neighbor of v.
                    for &j in ts {
                        let w = l.vertex(j as usize);
                        prop_assert!(g.has_arc(v, w));
                    }
                }
            }
        }
        prop_assert_eq!(host_pairs, g.m());
    }

    /// The receiver index answers every source exactly, on both directed
    /// builders, at sizes that are not powers of two and from `k = 1`.
    #[test]
    fn host_targets_equal_a_naive_filter(
        n in 1usize..70,
        raw_arcs in proptest::collection::vec((0u32..70, 0u32..70), 0..200),
        k in 1usize..9,
        model in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let arcs: Vec<(Vertex, Vertex)> =
            raw_arcs.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect();
        check_both_directed_builds(n, k, model, seed, &arcs);
    }

    /// Weighted: adjacency and weights reconstruct the global weighted
    /// graph exactly.
    #[test]
    fn weighted_reconstructs_exactly(
        edges in proptest::collection::vec(((0u32..N as u32, 0u32..N as u32), 0.0f64..10.0), 0..120),
        k in 1usize..9,
        model in 0u8..3,
        seed in 0u64..1_000,
    ) {
        let (pairs, ws): (Vec<_>, Vec<_>) = edges.into_iter().unzip();
        let g = WeightedGraph::from_weighted_edges(N, &pairs, &ws).unwrap();
        let part = partition(model, N, k, seed);
        let d = DistGraphBuilder::new(&part).weighted(&g);
        check_shell(&d, &part);
        let mut got: Vec<(Vertex, Vertex, f64)> = d
            .locals()
            .iter()
            .flat_map(|l: &LocalGraph| {
                l.vertices().iter().enumerate().flat_map(move |(j, &v)| {
                    l.neighbors(j)
                        .iter()
                        .zip(l.neighbor_weights(j))
                        .map(move |(&w, &wt)| (v, w, wt))
                })
            })
            .collect();
        got.sort_unstable_by_key(|a| (a.0, a.1));
        let mut want: Vec<(Vertex, Vertex, f64)> = (0..g.n() as Vertex)
            .flat_map(|v| {
                g.neighbors(v)
                    .iter()
                    .zip(g.neighbor_weights(v))
                    .map(move |(&w, &wt)| (v, w, wt))
            })
            .collect();
        want.sort_unstable_by_key(|a| (a.0, a.1));
        prop_assert_eq!(got, want);
    }
}

#[test]
fn partition_models_cover_all_three() {
    // The selector really exercises all three models.
    assert_eq!(partition(0, 10, 2, 1).model(), PartitionModel::RandomVertex);
    assert_eq!(partition(1, 10, 2, 1).model(), PartitionModel::Hashed);
    assert_eq!(partition(2, 10, 2, 1).model(), PartitionModel::RoundRobin);
}

#[test]
fn host_index_edge_cases() {
    // n is not a power of two, and the hub is u = n − 1.
    let n = 1000;
    let hub = (n - 1) as Vertex;
    // Forty in-arcs from sources 0..40 are all the hub's machine holds:
    // its directory has ~10 buckets of width 128, so all forty share
    // bucket 0.
    let fan_in: Vec<(Vertex, Vertex)> = (0..40).map(|v| (v, hub)).collect();
    // The hub points at every vertex: on each machine one source fills
    // the last bucket, and the few other sources sit beside it.
    let mut fan_out: Vec<(Vertex, Vertex)> = (0..hub).map(|v| (hub, v)).collect();
    fan_out.extend([(3, 500), (500, 3), (998, 0)]);
    for arcs in [&fan_in, &fan_out] {
        for k in [1, 2, 7] {
            for model in 0..3 {
                check_both_directed_builds(n, k, model, 5, arcs);
            }
        }
    }
    // No arcs at all, and a lone vertex.
    check_both_directed_builds(n, 4, 1, 5, &[]);
    check_both_directed_builds(1, 1, 0, 5, &[]);
}

#[test]
fn undirected_and_weighted_builds_have_no_receiver_index() {
    let edges: Vec<(Vertex, Vertex)> = (0..99).map(|v| (v, v + 1)).collect();
    let part = partition(1, 100, 4, 3);
    let g = CsrGraph::from_edges(100, &edges);
    let ws = vec![1.0; edges.len()];
    let wg = WeightedGraph::from_weighted_edges(100, &edges, &ws).unwrap();
    for d in [
        DistGraphBuilder::new(&part).undirected(&g),
        DistGraphBuilder::new(&part).weighted(&wg),
    ] {
        for l in d.locals() {
            assert_eq!(l.host_index_bytes(), 0);
            assert!((0..100).all(|u| l.host_targets(u).is_none()));
        }
    }
    // A directed build pays for its index by the arc, not by the vertex.
    let dg = DiGraph::from_arcs(100, &edges);
    let d = DistGraphBuilder::new(&part).directed(&dg);
    let bytes: usize = d.locals().iter().map(LocalGraph::host_index_bytes).sum();
    assert!(
        bytes > 0 && bytes <= 12 * edges.len() + 8 * 4,
        "{bytes} bytes"
    );
}
