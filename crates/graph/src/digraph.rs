//! Directed graphs in CSR form, with both out- and in-adjacency.
//!
//! PageRank (Section 3.1) walks *out*-edges; the lower-bound graph `H`
//! (Figure 1) is directed and weakly connected. In the random vertex
//! partition the home machine of a vertex knows its out-edges (Section 1.1),
//! so [`DiGraph::out_neighbors`] is the primary access path; the in-CSR is
//! kept for analysis (e.g. closed-form PageRank on `H`).
//!
//! **Two-pass count-then-fill.** [`DiGraph::from_arcs`] counts raw out- and
//! in-degrees, scatters each arc into its source's out-window and its
//! target's in-window, and canonicalizes each side through the crate's one
//! adjacency canonicalizer (`canonicalize_windows` in [`crate::csr`]).

use crate::csr::{canonicalize_windows, window_starts};
use crate::ids::Vertex;

/// An immutable simple directed graph in CSR form (out- and in-adjacency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    out_offsets: Vec<usize>,
    out_neighbors: Vec<Vertex>,
    in_offsets: Vec<usize>,
    in_neighbors: Vec<Vertex>,
}

impl DiGraph {
    /// Builds a digraph with `n` vertices from directed `(src, dst)` arcs.
    ///
    /// Self-loops are dropped and parallel arcs deduplicated.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_arcs(n: usize, arcs: &[(Vertex, Vertex)]) -> Self {
        let (mut out_at, mut in_at) = (vec![0usize; n], vec![0usize; n]);
        for &(u, v) in arcs {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "arc ({u},{v}) out of range for n={n}"
            );
            if u != v {
                out_at[u as usize] += 1;
                in_at[v as usize] += 1;
            }
        }
        let mut out_neighbors = vec![0 as Vertex; window_starts(&mut out_at)];
        let mut in_neighbors = vec![0 as Vertex; window_starts(&mut in_at)];
        for &(u, v) in arcs {
            if u != v {
                out_neighbors[out_at[u as usize]] = v;
                out_at[u as usize] += 1;
                in_neighbors[in_at[v as usize]] = u;
                in_at[v as usize] += 1;
            }
        }
        let (mut out_offsets, mut in_offsets) = (vec![0], vec![0]);
        canonicalize_windows(
            &mut out_neighbors,
            None,
            out_at.into_iter(),
            &mut out_offsets,
        );
        canonicalize_windows(&mut in_neighbors, None, in_at.into_iter(), &mut in_offsets);
        DiGraph {
            out_offsets,
            in_offsets,
            out_neighbors,
            in_neighbors,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed arcs.
    #[inline]
    pub fn m(&self) -> usize {
        self.out_neighbors.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// Sorted out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.out_neighbors[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// Sorted in-neighbors of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.in_neighbors[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Whether arc `u → v` is present.
    #[inline]
    pub fn has_arc(&self, u: Vertex, v: Vertex) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.n() as Vertex
    }

    /// Iterator over all arcs as `(src, dst)` pairs.
    pub fn arcs(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        (0..self.n()).flat_map(move |u| {
            let u = u as Vertex;
            self.out_neighbors(u).iter().map(move |&v| (u, v))
        })
    }

    /// The underlying undirected graph (arc directions forgotten).
    pub fn to_undirected(&self) -> crate::csr::CsrGraph {
        let pairs: Vec<(Vertex, Vertex)> = self.arcs().collect();
        crate::csr::CsrGraph::from_edges(self.n(), &pairs)
    }

    /// Whether the digraph is weakly connected (ignores directions;
    /// the empty graph is considered connected).
    pub fn is_weakly_connected(&self) -> bool {
        crate::properties::is_connected(&self.to_undirected())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn degrees_and_arcs() {
        // 0 -> 1 -> 2, 0 -> 2
        let g = DiGraph::from_arcs(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert!(g.has_arc(0, 1));
        assert!(!g.has_arc(1, 0));
    }

    #[test]
    fn dedup_and_loops() {
        let g = DiGraph::from_arcs(2, &[(0, 1), (0, 1), (1, 1)]);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn weak_connectivity() {
        let g = DiGraph::from_arcs(3, &[(0, 1), (2, 1)]);
        assert!(g.is_weakly_connected());
        let g2 = DiGraph::from_arcs(3, &[(0, 1)]);
        assert!(!g2.is_weakly_connected());
    }

    #[test]
    fn undirected_projection() {
        let g = DiGraph::from_arcs(3, &[(0, 1), (1, 0), (1, 2)]);
        let u = g.to_undirected();
        assert_eq!(u.m(), 2); // {0,1} collapses
    }

    proptest! {
        /// In/out CSR views are transposes of each other, and both hold
        /// exactly the distinct non-loop arcs of the raw input.
        #[test]
        fn transpose_consistency(arcs in proptest::collection::vec((0u32..25, 0u32..25), 0..150)) {
            let g = DiGraph::from_arcs(25, &arcs);
            let want: BTreeSet<(Vertex, Vertex)> =
                arcs.iter().copied().filter(|&(u, v)| u != v).collect();
            prop_assert!(g.arcs().eq(want.iter().copied()));
            let reversed: BTreeSet<(Vertex, Vertex)> = want.iter().map(|&(u, v)| (v, u)).collect();
            let ins = g
                .vertices()
                .flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (v, u)));
            prop_assert!(ins.eq(reversed.iter().copied()));
            let out_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
            let in_sum: usize = g.vertices().map(|v| g.in_neighbors(v).len()).sum();
            prop_assert_eq!(out_sum, g.m());
            prop_assert_eq!(in_sum, g.m());
            for (u, v) in g.arcs() {
                prop_assert!(g.in_neighbors(v).contains(&u));
            }
        }
    }
}
