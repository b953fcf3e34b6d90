//! Induced edge counts and random vertex samples.
//!
//! The triangle-enumeration upper bound (Theorem 5) controls the number of
//! edges landing on one machine via the number of edges *induced by a random
//! vertex subset* (Proposition 2, Rödl–Ruciński). These helpers sample such
//! subsets and count their induced edges so `km-lower` can validate the
//! concentration bound empirically.

use crate::csr::CsrGraph;
use crate::ids::Vertex;
use rand::seq::SliceRandom;
use rand::Rng;

/// Number of edges of `g` with both endpoints in `subset`
/// (`e(G[R])` in Proposition 2), without materializing the subgraph.
pub fn induced_edge_count(g: &CsrGraph, subset: &[Vertex]) -> usize {
    let mut in_set = vec![false; g.n()];
    for &v in subset {
        in_set[v as usize] = true;
    }
    let mut count = 0;
    for &u in subset {
        for &v in g.neighbors(u) {
            if u < v && in_set[v as usize] {
                count += 1;
            }
        }
    }
    count
}

/// Samples a uniformly random `t`-subset of the vertices of `g`.
///
/// # Panics
/// Panics if `t > n`.
pub fn random_vertex_subset<R: Rng>(g: &CsrGraph, t: usize, rng: &mut R) -> Vec<Vertex> {
    assert!(t <= g.n(), "subset size {t} exceeds n={}", g.n());
    let mut all: Vec<Vertex> = (0..g.n() as Vertex).collect();
    all.shuffle(rng);
    all.truncate(t);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn k4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn induced_count_matches_edge_scan() {
        let g = k4();
        for subset in [vec![], vec![2], vec![0, 2], vec![0, 1, 3], vec![1, 2, 3]] {
            let want = g
                .edges()
                .filter(|e| subset.contains(&e.u) && subset.contains(&e.v))
                .count();
            assert_eq!(induced_edge_count(&g, &subset), want);
        }
    }

    #[test]
    fn random_subset_size_and_uniqueness() {
        let g = k4();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let s = random_vertex_subset(&g, 3, &mut rng);
        assert_eq!(s.len(), 3);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }
}
