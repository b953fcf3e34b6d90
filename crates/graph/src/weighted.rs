//! Weighted undirected graphs (CSR + parallel weight array).
//!
//! Used by the MST application (Section 1.3 discusses the `Ω~(n/k²)` MST
//! lower bound via the General Lower Bound Theorem on complete graphs with
//! random edge weights; `km-mst` provides the matching upper bound).

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
        let mut clean: Vec<(Vertex, Vertex, f64)> = Vec::with_capacity(edges.len());
        for (&(u, v), &w) in edges.iter().zip(weights) {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for n={n}"
            );
            if !w.is_finite() {
                return Err(GraphError::NonFiniteWeight { u, v, w });
            }
            if u != v {
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                clean.push((a, b, w));
            }
        }
        // Sort by endpoints then weight so dedup keeps the minimum weight
        // (total_cmp is a genuine total order on the now-finite weights).
        clean.sort_unstable_by(|x, y| (x.0, x.1).cmp(&(y.0, y.1)).then(x.2.total_cmp(&y.2)));
        clean.dedup_by_key(|e| (e.0, e.1));

        let mut deg = vec![0usize; n];
        for &(u, v, _) in &clean {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as Vertex; acc];
        let mut wts = vec![0f64; acc];
        for &(u, v, w) in &clean {
            neighbors[cursor[u as usize]] = v;
            wts[cursor[u as usize]] = w;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            wts[cursor[v as usize]] = w;
            cursor[v as usize] += 1;
        }
        // Co-sort each adjacency window by neighbor id.
        for v in 0..n {
            let lo = offsets[v];
            let hi = offsets[v + 1];
            let mut idx: Vec<usize> = (lo..hi).collect();
            idx.sort_unstable_by_key(|&i| neighbors[i]);
            let nb: Vec<Vertex> = idx.iter().map(|&i| neighbors[i]).collect();
            let ww: Vec<f64> = idx.iter().map(|&i| wts[i]).collect();
            neighbors[lo..hi].copy_from_slice(&nb);
            wts[lo..hi].copy_from_slice(&ww);
        }
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
        /// Symmetry: weight(u,v) == weight(v,u); edge count matches topology.
        #[test]
        fn weight_symmetry(
            edges in proptest::collection::vec(((0u32..20, 0u32..20), 0.0f64..100.0), 0..100)
        ) {
            let (pairs, ws): (Vec<_>, Vec<_>) = edges.into_iter().unzip();
            let g = WeightedGraph::from_weighted_edges(20, &pairs, &ws).unwrap();
            for (e, w) in g.weighted_edges() {
                prop_assert_eq!(g.weight(e.u, e.v), Some(w));
                prop_assert_eq!(g.weight(e.v, e.u), Some(w));
            }
            prop_assert_eq!(g.weighted_edges().count(), g.m());
        }
    }
}
