//! Power iteration — the exact (to tolerance) PageRank oracle.
//!
//! Solves `π = (ε/n)·1 + (1−ε)·Pᵀπ` by Neumann iteration, where `P` is the
//! out-edge transition matrix with *zero rows at dangling vertices* (walks
//! terminate there), matching the Monte-Carlo semantics of \[20\] that the
//! paper's Lemma 4 computes with.

use km_graph::DiGraph;

/// Computes PageRank by power iteration.
///
/// Iterates until the L1 change drops below `tol` or `max_iters` passes.
/// Returns the PageRank vector (length `n`).
///
/// # Panics
/// Panics unless `0 < eps < 1` and `tol > 0`.
pub fn power_iteration(g: &DiGraph, eps: f64, tol: f64, max_iters: usize) -> Vec<f64> {
    assert!(eps > 0.0 && eps < 1.0, "need 0 < ε < 1");
    assert!(tol > 0.0, "need positive tolerance");
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let base = eps / n as f64;
    let damp = 1.0 - eps;
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..max_iters {
        next.iter_mut().for_each(|x| *x = base);
        for u in g.vertices() {
            let outs = g.out_neighbors(u);
            if outs.is_empty() {
                continue; // dangling: mass terminates
            }
            let share = damp * pi[u as usize] / outs.len() as f64;
            for &v in outs {
                next[v as usize] += share;
            }
        }
        let delta: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if delta < tol {
            break;
        }
    }
    pi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmachine::bidirect;
    use km_graph::generators::lower_bound_h::LowerBoundGraph;
    use km_graph::generators::{classic, gnp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn isolated_vertices_get_eps_over_n() {
        let g = DiGraph::from_arcs(4, &[]);
        let pr = power_iteration(&g, 0.2, 1e-12, 1000);
        for &x in &pr {
            assert!((x - 0.05).abs() < 1e-9);
        }
    }

    #[test]
    fn cycle_is_uniform_and_sums_to_one() {
        // Directed cycle: no dangling, symmetric ⇒ uniform 1/n, sum 1.
        let n = 8;
        let arcs: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = DiGraph::from_arcs(n as usize, &arcs);
        let pr = power_iteration(&g, 0.15, 1e-14, 10_000);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for &x in &pr {
            assert!((x - 1.0 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_closed_form_on_lower_bound_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let h = LowerBoundGraph::random(41, &mut rng);
        for eps in [0.2, 0.5] {
            let pr = power_iteration(&h.graph, eps, 1e-14, 10_000);
            let exact = h.exact_pagerank(eps);
            for (v, (&got, &want)) in pr.iter().zip(&exact).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "eps={eps} v={v}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn undirected_star_hub_dominates() {
        let g = classic::star(20);
        let pr = power_iteration(&bidirect(&g), 0.2, 1e-12, 10_000);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(pr[0] > 5.0 * pr[1]);
        // Leaves are symmetric.
        for leaf in 2..20 {
            assert!((pr[leaf] - pr[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn random_graph_total_mass_bounded() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = gnp(100, 0.05, &mut rng);
        let pr = power_iteration(&bidirect(&g), 0.3, 1e-12, 10_000);
        let sum: f64 = pr.iter().sum();
        // Isolated vertices are dangling but still only contribute ε/n each;
        // total mass is in (ε, 1].
        assert!(sum <= 1.0 + 1e-9 && sum > 0.3);
        assert!(pr.iter().all(|&x| x >= 0.3 / 100.0 - 1e-12));
    }
}
