//! Weighted undirected graphs (CSR + parallel weight array).
//!
//! Used by the MST application (Section 1.3 discusses the `Ω~(n/k²)` MST
//! lower bound via the General Lower Bound Theorem on complete graphs with
//! random edge weights; `km-mst` provides the matching upper bound).
//!
//! **Two-pass count-then-fill.** [`WeightedGraph::from_weighted_edges`]
//! counts raw degrees, scatters both orientations of every edge with its
//! weight into per-vertex windows, and canonicalizes them through the
//! crate's one adjacency canonicalizer (`canonicalize_windows` in
//! [`crate::csr`]). It sorts each window by neighbour, then weight under
//! `f64::total_cmp`, and keeps the first of each run, so a duplicate edge
//! keeps its minimum weight on both sides.

use crate::csr::{canonicalize_windows, window_starts};
use crate::error::GraphError;
use crate::ids::{Edge, Vertex};

/// An immutable simple undirected graph with `f64` edge weights.
///
/// Weights are guaranteed **finite** (construction rejects NaN/±∞ with
/// [`GraphError::NonFiniteWeight`]), so consumers may order them with
/// `f64::total_cmp` and sum them without poisoning checks. They are
/// stored once per adjacency entry, aligned with the neighbor array.
/// Duplicate edges keep the *minimum* weight (the natural semantics for
/// MST inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    offsets: Vec<usize>,
    neighbors: Vec<Vertex>,
    weights: Vec<f64>,
}

impl WeightedGraph {
    /// Builds a weighted graph from parallel edge and weight slices.
    ///
    /// # Errors
    /// [`GraphError::NonFiniteWeight`] if any weight is NaN or ±∞ —
    /// weights typically arrive from user or deserialized input, so this
    /// is an error, not a panic (the same policy as
    /// `km_core::NetConfig::validate` and `balance::BalanceError`).
    ///
    /// # Panics
    /// Panics if slice lengths differ or endpoints are out of range
    /// (programmer errors at the call site).
    pub fn from_weighted_edges(
        n: usize,
        edges: &[(Vertex, Vertex)],
        weights: &[f64],
    ) -> Result<Self, GraphError> {
        assert_eq!(edges.len(), weights.len(), "edges/weights length mismatch");
        let mut at = vec![0usize; n];
        for (&(u, v), &w) in edges.iter().zip(weights) {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for n={n}"
            );
            if !w.is_finite() {
                return Err(GraphError::NonFiniteWeight { u, v, w });
            }
            if u != v {
                at[u as usize] += 1;
                at[v as usize] += 1;
            }
        }
        let len = window_starts(&mut at);
        let (mut neighbors, mut wts) = (vec![0 as Vertex; len], vec![0f64; len]);
        for (&(u, v), &w) in edges.iter().zip(weights) {
            if u != v {
                for (a, b) in [(u, v), (v, u)] {
                    neighbors[at[a as usize]] = b;
                    wts[at[a as usize]] = w;
                    at[a as usize] += 1;
                }
            }
        }
        // Finite weights make `total_cmp` a genuine order, so keeping the
        // first of each run keeps the minimum weight on both sides.
        let mut offsets = vec![0];
        canonicalize_windows(&mut neighbors, Some(&mut wts), at.into_iter(), &mut offsets);
        Ok(WeightedGraph {
            offsets,
            neighbors,
            weights: wts,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights aligned with [`Self::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: Vertex) -> &[f64] {
        let v = v as usize;
        &self.weights[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weight of edge `{u,v}` if present.
    pub fn weight(&self, u: Vertex, v: Vertex) -> Option<f64> {
        let pos = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.neighbor_weights(u)[pos])
    }

    /// Iterator over `(edge, weight)` with each edge reported once.
    pub fn weighted_edges(&self) -> impl Iterator<Item = (Edge, f64)> + '_ {
        (0..self.n()).flat_map(move |u| {
            let u = u as Vertex;
            self.neighbors(u)
                .iter()
                .zip(self.neighbor_weights(u))
                .filter(move |(&v, _)| u < v)
                .map(move |(&v, &w)| (Edge { u, v }, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A sampled `(selector, x)` as a weight: `0.0`, `-0.0`, a small
    /// integer (so exact ties are common) or `x` itself.
    fn weight((sel, x): (u8, f64)) -> f64 {
        match sel {
            0 => 0.0,
            1 => -0.0,
            2 => x.trunc() % 3.0,
            _ => x,
        }
    }

    #[test]
    fn basic_weights() {
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1), (1, 2)], &[1.5, 2.5]).unwrap();
        assert_eq!(g.weight(0, 1), Some(1.5));
        assert_eq!(g.weight(1, 0), Some(1.5));
        assert_eq!(g.weight(0, 2), None);
    }

    #[test]
    fn duplicate_keeps_minimum() {
        let g = WeightedGraph::from_weighted_edges(2, &[(0, 1), (1, 0), (0, 1)], &[3.0, 1.0, 2.0])
            .unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.weight(0, 1), Some(1.0));
    }

    #[test]
    fn rejects_non_finite_weights_as_errors_not_panics() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err =
                WeightedGraph::from_weighted_edges(3, &[(0, 1), (1, 2)], &[1.0, bad]).unwrap_err();
            assert!(
                matches!(err, GraphError::NonFiniteWeight { u: 1, v: 2, .. }),
                "{err}"
            );
        }
    }

    proptest! {
        /// Symmetry: weight(u,v) == weight(v,u); edge count matches
        /// topology; and each edge's weight is, bit for bit, the
        /// `total_cmp` minimum over every input edge naming the pair in
        /// either orientation. `mirrored` re-sends a prefix of the edges
        /// reversed with new weights, and weights include `-0.0` beside
        /// `0.0` and exact ties.
        #[test]
        fn weight_symmetry(
            edges in proptest::collection::vec(((0u32..20, 0u32..20), (0u8..4, -100.0f64..100.0)), 0..100),
            mirrored in proptest::collection::vec((0u8..4, -100.0f64..100.0), 0..100),
        ) {
            let (mut pairs, mut ws): (Vec<_>, Vec<_>) =
                edges.into_iter().map(|(e, w)| (e, weight(w))).unzip();
            for (i, &w) in mirrored.iter().enumerate().take(pairs.len()) {
                let (u, v) = pairs[i];
                pairs.push((v, u));
                ws.push(weight(w));
            }
            let g = WeightedGraph::from_weighted_edges(20, &pairs, &ws).unwrap();
            for (e, w) in g.weighted_edges() {
                prop_assert_eq!(g.weight(e.u, e.v), Some(w));
                prop_assert_eq!(g.weight(e.v, e.u), Some(w));
            }
            prop_assert_eq!(g.weighted_edges().count(), g.m());
            let mut want: BTreeMap<(Vertex, Vertex), f64> = BTreeMap::new();
            for (&(u, v), &w) in pairs.iter().zip(&ws) {
                if u != v {
                    let min = want.entry((u.min(v), u.max(v))).or_insert(w);
                    if w.total_cmp(min).is_lt() {
                        *min = w;
                    }
                }
            }
            let got: Vec<_> = g.weighted_edges().map(|(e, w)| ((e.u, e.v), w.to_bits())).collect();
            let want: Vec<_> = want.into_iter().map(|(e, w)| (e, w.to_bits())).collect();
            prop_assert_eq!(got, want);
        }
    }
}
