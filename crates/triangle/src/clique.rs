//! Triangle enumeration in the congested clique (`k = n`).
//!
//! The upper-bound side of Corollary 1: with one vertex per machine and
//! `Θ(log n)`-bit links, the Dolev–Lenzen–Peled partition enumerates all
//! triangles in `O~(n^{1/3})` rounds. The congested clique is *exactly*
//! the k-machine model with `k = n` and the identity vertex placement, so
//! this module instantiates the Theorem 5 protocol
//! ([`KmTriangle`](crate::kmachine::KmTriangle)) on that special case —
//! including the **edge-proxy hop**, which is what spreads each machine's
//! `deg(v)·O(n^{1/3})` edge copies uniformly over the `n²` links (without
//! it, the links into the `Θ(n)` triplet machines carry `Θ(n^{2/3})`
//! messages and the round complexity degrades; the C1 experiment measures
//! exactly this).

use crate::kmachine::{run_kmachine_triangles, TriConfig};
use km_core::clique::{clique_config, home_of_vertex};
use km_core::NetConfig;
use km_graph::ids::Triangle;
use km_graph::{CsrGraph, Partition};
use std::sync::Arc;

/// The identity partition of the congested clique: vertex `v` on
/// machine `v`.
pub fn identity_partition(n: usize) -> Partition {
    Partition::from_assignment(n, (0..n as u32).map(home_of_vertex).collect())
}

/// Runs the congested-clique enumeration; returns the sorted global
/// triangle list and transcript metrics.
pub fn run_clique_triangles(
    g: &CsrGraph,
    seed: u64,
) -> Result<(Vec<Triangle>, km_core::Metrics), km_core::EngineError> {
    let net: NetConfig = clique_config(g.n(), seed);
    let part = Arc::new(identity_partition(g.n()));
    // Degree threshold n is unreachable (max degree n−1): in the clique
    // every machine hosts one vertex and ships its own canonical edges,
    // which is already balanced — the designation rule is a no-op.
    let cfg = TriConfig {
        degree_threshold: Some(g.n().max(1)),
        enumerate_triads: false,
        use_proxies: true,
    };
    run_kmachine_triangles(g, &part, cfg, net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::enumerate_triangles;
    use km_graph::generators::{classic, gnp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_partition_places_vertex_on_own_machine() {
        let p = identity_partition(9);
        for v in 0..9u32 {
            assert_eq!(p.home(v), v as usize);
            assert_eq!(p.members(v as usize), &[v]);
        }
    }

    #[test]
    fn clique_matches_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (n, p) in [(20, 0.5), (35, 0.3), (16, 0.9)] {
            let g = gnp(n, p, &mut rng);
            let (ts, _) = run_clique_triangles(&g, 7).unwrap();
            assert_eq!(ts, enumerate_triangles(&g), "n={n} p={p}");
        }
    }

    #[test]
    fn dense_clique_input() {
        let g = classic::complete(12);
        let (ts, metrics) = run_clique_triangles(&g, 1).unwrap();
        assert_eq!(ts.len(), 220);
        assert!(metrics.rounds > 0);
    }

    #[test]
    fn rounds_grow_sublinearly_with_n() {
        // Corollary 1 shape: rounds ≈ n^{1/3}·polylog, so going from n to
        // 8n should multiply rounds by far less than 8.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g1 = gnp(16, 0.5, &mut rng);
        let g2 = gnp(128, 0.5, &mut rng);
        let (_, m1) = run_clique_triangles(&g1, 2).unwrap();
        let (_, m2) = run_clique_triangles(&g2, 2).unwrap();
        let ratio = m2.rounds as f64 / m1.rounds.max(1) as f64;
        assert!(
            ratio < 8.0,
            "rounds ratio {ratio} (m1={} m2={})",
            m1.rounds,
            m2.rounds
        );
    }
}
