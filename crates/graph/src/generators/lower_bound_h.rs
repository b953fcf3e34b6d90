//! The PageRank lower-bound graph `H` of Figure 1 (Section 2.3).
//!
//! `H` has `n = 4q + 1` vertices split into four groups of size `q = m/4`
//! plus a sink `w`:
//!
//! ```text
//!   x_i  ⟷  u_i  →  t_i  →  v_i  →  w        (i = 0 .. q-1)
//! ```
//!
//! The edge between `x_i` and `u_i` is oriented by a fair coin flip `b_i`:
//! `b_i = 0` gives `u_i → x_i`, `b_i = 1` gives `x_i → u_i`. Lemma 4 shows
//! the PageRank of `v_i` then separates by a constant factor, so any correct
//! algorithm must effectively learn the whole bit vector — the engine of the
//! `Ω~(n/k²)` lower bound (Theorem 2).
//!
//! The paper additionally assigns *random IDs* from `[1, poly(n)]` so that
//! a vertex's ID reveals nothing about its index `i`. `H` keeps its
//! canonical numbering here: no algorithm in the repo reads structure off
//! an id, and the lower bounds are evaluated as bit counts, not against an
//! adversary that could exploit the numbering. (Documented in DESIGN.md.)

use crate::digraph::DiGraph;
use crate::ids::Vertex;
use rand::Rng;

/// The instantiated lower-bound graph: topology plus the secret bit vector.
#[derive(Debug, Clone)]
pub struct LowerBoundGraph {
    /// The directed graph `H` (in canonical vertex numbering).
    pub graph: DiGraph,
    /// The secret orientation bits `b_0 .. b_{q-1}`.
    pub bits: Vec<bool>,
    /// Group size `q = (n-1)/4`.
    pub quarter: usize,
}

impl LowerBoundGraph {
    /// Builds `H` with the given bit vector. The number of vertices is
    /// `4·bits.len() + 1`.
    ///
    /// Canonical numbering: `x_i = i`, `u_i = q+i`, `t_i = 2q+i`,
    /// `v_i = 3q+i`, `w = 4q`.
    pub fn new(bits: Vec<bool>) -> Self {
        let q = bits.len();
        let n = 4 * q + 1;
        let mut arcs: Vec<(Vertex, Vertex)> = Vec::with_capacity(4 * q);
        for (i, &bit) in bits.iter().enumerate() {
            let (x, u, t, v) = Self::role_ids(q, i);
            let w = (4 * q) as Vertex;
            arcs.push((u, t));
            arcs.push((t, v));
            arcs.push((v, w));
            if bit {
                arcs.push((x, u));
            } else {
                arcs.push((u, x));
            }
        }
        LowerBoundGraph {
            graph: DiGraph::from_arcs(n, &arcs),
            bits,
            quarter: q,
        }
    }

    /// Builds `H` on (approximately) `n` vertices with fair-coin bits.
    ///
    /// `n` is rounded down to the nearest value of the form `4q + 1`.
    ///
    /// # Panics
    /// Panics if `n < 5`.
    pub fn random<R: Rng>(n: usize, rng: &mut R) -> Self {
        assert!(n >= 5, "H needs at least 5 vertices (q >= 1)");
        let q = (n - 1) / 4;
        let bits: Vec<bool> = (0..q).map(|_| rng.gen_bool(0.5)).collect();
        Self::new(bits)
    }

    fn role_ids(q: usize, i: usize) -> (Vertex, Vertex, Vertex, Vertex) {
        (
            i as Vertex,
            (q + i) as Vertex,
            (2 * q + i) as Vertex,
            (3 * q + i) as Vertex,
        )
    }

    /// Number of vertices `n = 4q + 1`.
    pub fn n(&self) -> usize {
        4 * self.quarter + 1
    }

    /// Vertex id of `v_i` (canonical numbering).
    pub fn v_vertex(&self, i: usize) -> Vertex {
        (3 * self.quarter + i) as Vertex
    }

    /// Vertex id of `x_i` (canonical numbering).
    pub fn x_vertex(&self, i: usize) -> Vertex {
        i as Vertex
    }

    /// Vertex id of `u_i` (canonical numbering).
    pub fn u_vertex(&self, i: usize) -> Vertex {
        (self.quarter + i) as Vertex
    }

    /// Vertex id of `t_i` (canonical numbering).
    pub fn t_vertex(&self, i: usize) -> Vertex {
        (2 * self.quarter + i) as Vertex
    }

    /// Vertex id of the sink `w`.
    pub fn w_vertex(&self) -> Vertex {
        (4 * self.quarter) as Vertex
    }

    /// Exact PageRank of `v_i` (path-sum / Monte-Carlo semantics of \[20\]):
    /// the value Lemma 4 separates.
    ///
    /// * `b_i = 0`:  `ε(1 + (1-ε) + (1-ε)²/2) / n`
    /// * `b_i = 1`:  `ε(1 + (1-ε) + (1-ε)² + (1-ε)³) / n`
    pub fn exact_pagerank_v(&self, i: usize, eps: f64) -> f64 {
        let n = self.n() as f64;
        let d = 1.0 - eps;
        if self.bits[i] {
            eps * (1.0 + d + d * d + d * d * d) / n
        } else {
            eps * (1.0 + d + d * d / 2.0) / n
        }
    }

    /// Exact PageRank a `v` vertex *would* have under orientation `bit`
    /// (the decoding thresholds of the lower-bound argument).
    pub fn pagerank_v_for_bit(&self, eps: f64, bit: bool) -> f64 {
        let n = self.n() as f64;
        let d = 1.0 - eps;
        if bit {
            eps * (1.0 + d + d * d + d * d * d) / n
        } else {
            eps * (1.0 + d + d * d / 2.0) / n
        }
    }

    /// The paper's stated Lemma 4 value for `b_i = 0`:
    /// `ε(2.5 − 2ε + ε²/2)/n` (an algebraic rewriting of the exact value).
    pub fn lemma4_value_bit0(n: usize, eps: f64) -> f64 {
        eps * (2.5 - 2.0 * eps + eps * eps / 2.0) / n as f64
    }

    /// The paper's stated Lemma 4 lower bound for `b_i = 1`:
    /// `ε(3 − 3ε + ε²)/n`.
    pub fn lemma4_bound_bit1(n: usize, eps: f64) -> f64 {
        eps * (3.0 - 3.0 * eps + eps * eps) / n as f64
    }

    /// Exact PageRank (path-sum semantics) of *every* vertex, in canonical
    /// numbering — a closed-form oracle for testing the iterative and
    /// distributed solvers on `H`.
    pub fn exact_pagerank(&self, eps: f64) -> Vec<f64> {
        let n = self.n();
        let nf = n as f64;
        let d = 1.0 - eps;
        let q = self.quarter;
        let mut pr = vec![0.0; n];
        let mut w_acc = 1.0; // path weight sum arriving at w
        for i in 0..q {
            let (x, u, t, v) = Self::role_ids(q, i);
            let (px, pu, pt, pv);
            if self.bits[i] {
                // x -> u -> t -> v -> w; u,t,v have out-degree 1.
                px = 1.0;
                pu = 1.0 + d;
                pt = 1.0 + d + d * d;
                pv = 1.0 + d + d * d + d * d * d;
            } else {
                // u -> {x, t}; t -> v -> w; u has out-degree 2.
                pu = 1.0;
                px = 1.0 + d / 2.0;
                pt = 1.0 + d / 2.0;
                pv = 1.0 + d + d * d / 2.0;
            }
            pr[x as usize] = eps * px / nf;
            pr[u as usize] = eps * pu / nf;
            pr[t as usize] = eps * pt / nf;
            pr[v as usize] = eps * pv / nf;
            w_acc += d * pv;
        }
        pr[4 * q] = eps * w_acc / nf;
        pr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn topology_matches_figure1() {
        let h = LowerBoundGraph::new(vec![false, true, false]);
        let g = &h.graph;
        assert_eq!(h.n(), 13);
        assert_eq!(g.m(), 12); // m = n - 1
                               // Chain u_i -> t_i -> v_i -> w for all i.
        for i in 0..3 {
            assert!(g.has_arc(h.u_vertex(i), h.t_vertex(i)));
            assert!(g.has_arc(h.t_vertex(i), h.v_vertex(i)));
            assert!(g.has_arc(h.v_vertex(i), h.w_vertex()));
        }
        // Bit-oriented edges.
        assert!(g.has_arc(h.u_vertex(0), h.x_vertex(0))); // b_0 = 0
        assert!(g.has_arc(h.x_vertex(1), h.u_vertex(1))); // b_1 = 1
        assert!(g.has_arc(h.u_vertex(2), h.x_vertex(2))); // b_2 = 0
        assert!(g.is_weakly_connected());
    }

    #[test]
    fn lemma4_constant_factor_separation() {
        // For any eps < 1 there is a constant-factor gap between the two
        // cases; the factor depends on eps (Lemma 4) and equals
        // 1 + (d²/2 + d³)/(1 + d + d²/2) with d = 1 - eps.
        for eps in [0.1, 0.3, 0.5, 0.85] {
            let h = LowerBoundGraph::new(vec![false, true]);
            let pr0 = h.exact_pagerank_v(0, eps);
            let pr1 = h.exact_pagerank_v(1, eps);
            let d = 1.0 - eps;
            let expected_gap = eps * (d * d / 2.0 + d * d * d) / h.n() as f64;
            assert!(
                (pr1 - pr0 - expected_gap).abs() < 1e-12,
                "eps={eps}: gap {} != analytic {expected_gap}",
                pr1 - pr0
            );
            assert!(pr1 > pr0, "eps={eps}: separation must be strict");
            // Paper's closed forms: bit0 value is exact, bit1 is a lower bound.
            let n = h.n();
            assert!((pr0 - LowerBoundGraph::lemma4_value_bit0(n, eps)).abs() < 1e-12);
            assert!(pr1 >= LowerBoundGraph::lemma4_bound_bit1(n, eps) - 1e-12);
        }
    }

    #[test]
    fn exact_vector_consistent_with_v_values() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let h = LowerBoundGraph::random(41, &mut rng);
        let eps = 0.3;
        let pr = h.exact_pagerank(eps);
        for i in 0..h.quarter {
            assert!((pr[h.v_vertex(i) as usize] - h.exact_pagerank_v(i, eps)).abs() < 1e-12);
        }
        // Path-sum semantics: total mass at most 1 (dangling leaks), at least eps.
        let total: f64 = pr.iter().sum();
        assert!((0.2..=1.0 + 1e-9).contains(&total));
    }

    #[test]
    fn rounds_down_to_4q_plus_1() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let h = LowerBoundGraph::random(23, &mut rng);
        assert_eq!(h.n(), 21); // q = 5
    }
}
