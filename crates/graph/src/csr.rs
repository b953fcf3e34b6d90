//! Undirected graphs in compressed sparse row (CSR) form.
//!
//! The k-machine algorithms spend their local (free) computation scanning
//! adjacency lists, so the representation is a flat `offsets`/`neighbors`
//! pair with sorted adjacency — cache-friendly, and `has_edge` is a binary
//! search. Construction deduplicates parallel edges and drops self-loops.

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
        let mut deg = vec![0usize; n];
        let mut clean: Vec<(Vertex, Vertex)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for n={n}"
            );
            if u != v {
                clean.push(if u < v { (u, v) } else { (v, u) });
            }
        }
        clean.sort_unstable();
        clean.dedup();
        for &(u, v) in &clean {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as Vertex; acc];
        for &(u, v) in &clean {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each adjacency list was filled in increasing order of the *other*
        // endpoint only for the `u < v` direction; sort each list to get the
        // canonical sorted-CSR invariant.
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        /// Degree sum equals 2m and every edge appears in both adjacency lists.
        #[test]
        fn csr_invariants(edges in proptest::collection::vec((0u32..40, 0u32..40), 0..200)) {
            let g = CsrGraph::from_edges(40, &edges);
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
