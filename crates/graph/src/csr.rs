//! Undirected graphs in compressed sparse row (CSR) form.
//!
//! The k-machine algorithms spend their local (free) computation scanning
//! adjacency lists, so the representation is a flat `offsets`/`neighbors`
//! pair with sorted adjacency — cache-friendly, and `has_edge` is a binary
//! search. Construction deduplicates parallel edges and drops self-loops.
//!
//! **Two-pass count-then-fill.** [`CsrGraph::from_edges`] counts each
//! vertex's raw degree (self-loops skipped), scatters both orientations of
//! every edge into per-vertex windows, and hands them to this module's
//! `canonicalize_windows`: the one routine that sorts, deduplicates and
//! compacts adjacency for [`CsrGraph`], [`crate::DiGraph`],
//! [`crate::WeightedGraph`] and the streaming builder ([`crate::stream`]).

use crate::ids::{Edge, Vertex};

/// An immutable simple undirected graph in CSR form.
///
/// Vertices are `0..n`. Each undirected edge `{u,v}` appears in both
/// adjacency lists; adjacency lists are sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    neighbors: Vec<Vertex>,
}

impl CsrGraph {
    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// Self-loops are dropped, parallel edges deduplicated, and endpoint
    /// order is irrelevant.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut at = vec![0usize; n];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for n={n}"
            );
            if u != v {
                at[u as usize] += 1;
                at[v as usize] += 1;
            }
        }
        let mut neighbors = vec![0 as Vertex; window_starts(&mut at)];
        for &(u, v) in edges {
            if u != v {
                for (a, b) in [(u, v), (v, u)] {
                    neighbors[at[a as usize]] = b;
                    at[a as usize] += 1;
                }
            }
        }
        let mut offsets = vec![0];
        canonicalize_windows(&mut neighbors, None, at.into_iter(), &mut offsets);
        CsrGraph { offsets, neighbors }
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

    /// Degree of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether edge `{u,v}` is present (binary search; `O(log deg)`).
    #[inline]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        if u == v {
            return false;
        }
        // Search the shorter list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.degree(v as Vertex))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.n() as Vertex
    }

    /// Iterator over each undirected edge once, in canonical `(u < v)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n()).flat_map(move |u| {
            let u = u as Vertex;
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge { u, v })
        })
    }

    /// Sum of degrees (`2m`).
    #[inline]
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }
}

/// Turns raw per-vertex entry counts into the first slot of each
/// vertex's scatter window, in place; returns the total. Scattering an
/// entry at `at[u]` and bumping it leaves `at[u]` at the end of `u`'s
/// window, which is what [`canonicalize_windows`] takes.
pub(crate) fn window_starts(at: &mut [usize]) -> usize {
    let mut acc = 0;
    for a in at {
        let count = *a;
        *a = acc;
        acc += count;
    }
    acc
}

/// The one adjacency canonicalizer: every constructor in this crate and
/// the streaming builder scatter raw entries into contiguous per-vertex
/// windows of `neighbors` (with `weights` aligned, for weighted graphs)
/// and hand the window ends here.
///
/// Each window is sorted by neighbour, then by weight under
/// `f64::total_cmp`, and only the first entry of each run of equal
/// neighbours is kept — so a duplicate edge keeps its minimum weight.
/// The arrays are compacted in place (and shrunk if dedup removed
/// entries), and the end of each compacted window is pushed onto
/// `offsets`, which holds the leading `0`.
///
/// `ends` must be non-decreasing and end at or before `neighbors.len()`.
pub(crate) fn canonicalize_windows(
    neighbors: &mut Vec<Vertex>,
    mut weights: Option<&mut Vec<f64>>,
    ends: impl ExactSizeIterator<Item = usize>,
    offsets: &mut Vec<usize>,
) {
    offsets.reserve(ends.len());
    let mut scratch: Vec<(Vertex, f64)> = Vec::new();
    let (mut lo, mut write) = (0, 0);
    for hi in ends {
        let first = write;
        if let Some(ws) = weights.as_deref_mut() {
            scratch.clear();
            scratch.extend(
                neighbors[lo..hi]
                    .iter()
                    .copied()
                    .zip(ws[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            for &(v, w) in &scratch {
                if write == first || neighbors[write - 1] != v {
                    neighbors[write] = v;
                    ws[write] = w;
                    write += 1;
                }
            }
        } else {
            neighbors[lo..hi].sort_unstable();
            for r in lo..hi {
                // `write <= r`, so no entry is overwritten before it is read.
                let v = neighbors[r];
                if write == first || neighbors[write - 1] != v {
                    neighbors[write] = v;
                    write += 1;
                }
            }
        }
        offsets.push(write);
        lo = hi;
    }
    if write < neighbors.len() {
        neighbors.truncate(write);
        neighbors.shrink_to_fit();
        if let Some(ws) = weights {
            ws.truncate(write);
            ws.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn path4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree_sum(), 6);
    }

    #[test]
    fn neighbors_sorted_and_has_edge() {
        let g = CsrGraph::from_edges(5, &[(3, 1), (3, 0), (3, 4), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        assert!(g.has_edge(3, 2) && g.has_edge(2, 3));
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn edge_iterator_canonical() {
        let g = path4();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(
            edges,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]
        );
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    proptest! {
        /// Degree sum equals 2m, every edge appears in both adjacency
        /// lists, and each list is exactly the set of vertices the raw
        /// input pairs with that vertex, self-loops aside.
        #[test]
        fn csr_invariants(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..200)) {
            let g = CsrGraph::from_edges(40, &edges);
            let mut want = vec![BTreeSet::new(); 40];
            for &(u, v) in &edges {
                if u != v {
                    want[u as usize].insert(v);
                    want[v as usize].insert(u);
                }
            }
            for v in g.vertices() {
                prop_assert!(g.neighbors(v).iter().eq(&want[v as usize]), "vertex {}", v);
            }
            prop_assert_eq!(g.degree_sum(), 2 * g.m());
            for e in g.edges() {
                prop_assert!(g.neighbors(e.u).contains(&e.v));
                prop_assert!(g.neighbors(e.v).contains(&e.u));
                prop_assert!(g.has_edge(e.u, e.v));
            }
            // Adjacency sorted and loop-free.
            for v in g.vertices() {
                let ns = g.neighbors(v);
                prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(!ns.contains(&v));
            }
        }

        /// Rebuilding from the edge iterator reproduces the same graph.
        #[test]
        fn csr_roundtrip(edges in proptest::collection::vec((0u32..30, 0u32..30), 0..150)) {
            let g = CsrGraph::from_edges(30, &edges);
            let edges2: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
            let g2 = CsrGraph::from_edges(30, &edges2);
            prop_assert_eq!(g, g2);
        }
    }
}
