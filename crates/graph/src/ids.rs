//! Identifier types shared across the workspace.
//!
//! The paper's graphs carry unique integer IDs from `[n]` (Section 1.1);
//! we use `u32` vertex ids (graphs of up to ~4·10⁹ vertices, far beyond
//! what the simulator will hold) and `usize` machine indices.

/// A vertex identifier. Vertices of an `n`-vertex graph are `0..n`.
///
/// The paper assigns vertices IDs from `[1, poly(n)]`; the lower-bound
/// constructions that need *random* IDs (Section 2.3) keep an explicit
/// permutation side table instead of widening this type.
pub type Vertex = u32;

/// Index of a machine, `0..k`.
pub type MachineIdx = usize;

/// An undirected edge `{u, v}` stored in canonical (min, max) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// The smaller endpoint.
    pub u: Vertex,
    /// The larger endpoint.
    pub v: Vertex,
}

impl Edge {
    /// Creates a canonical edge from two endpoints (order-insensitive).
    ///
    /// # Panics
    /// Panics if `u == v`; the graphs in this workspace are simple.
    #[inline]
    pub fn new(u: Vertex, v: Vertex) -> Self {
        assert_ne!(u, v, "self-loops are not representable as Edge");
        if u < v {
            Edge { u, v }
        } else {
            Edge { u: v, v: u }
        }
    }

    /// Returns the endpoint different from `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, x: Vertex) -> Vertex {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "vertex {x} is not an endpoint of {self:?}");
            self.u
        }
    }

    /// Returns `true` if `x` is an endpoint of this edge.
    #[inline]
    pub fn contains(&self, x: Vertex) -> bool {
        x == self.u || x == self.v
    }
}

/// A triangle `{a, b, c}` stored with `a < b < c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triangle {
    /// Smallest vertex.
    pub a: Vertex,
    /// Middle vertex.
    pub b: Vertex,
    /// Largest vertex.
    pub c: Vertex,
}

impl Triangle {
    /// Creates a canonical triangle from three distinct vertices.
    ///
    /// # Panics
    /// Panics if the vertices are not pairwise distinct.
    #[inline]
    pub fn new(x: Vertex, y: Vertex, z: Vertex) -> Self {
        let mut t = [x, y, z];
        t.sort_unstable();
        assert!(
            t[0] != t[1] && t[1] != t[2],
            "triangle vertices must be distinct"
        );
        Triangle {
            a: t[0],
            b: t[1],
            c: t[2],
        }
    }

    /// The three edges of the triangle, in canonical order.
    #[inline]
    pub fn edges(&self) -> [Edge; 3] {
        [
            Edge::new(self.a, self.b),
            Edge::new(self.a, self.c),
            Edge::new(self.b, self.c),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_is_canonical() {
        assert_eq!(Edge::new(5, 2), Edge::new(2, 5));
        let e = Edge::new(7, 3);
        assert_eq!((e.u, e.v), (3, 7));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(4, 4);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(1, 9);
        assert_eq!(e.other(1), 9);
        assert_eq!(e.other(9), 1);
        assert!(e.contains(1) && e.contains(9) && !e.contains(5));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_rejects_non_endpoint() {
        let _ = Edge::new(1, 9).other(2);
    }

    #[test]
    fn triangle_is_canonical() {
        let t = Triangle::new(9, 1, 4);
        assert_eq!((t.a, t.b, t.c), (1, 4, 9));
        assert_eq!(t, Triangle::new(4, 9, 1));
    }

    #[test]
    fn triangle_edges() {
        let t = Triangle::new(3, 1, 2);
        assert_eq!(
            t.edges(),
            [Edge::new(1, 2), Edge::new(1, 3), Edge::new(2, 3)]
        );
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn triangle_rejects_degenerate() {
        let _ = Triangle::new(1, 1, 2);
    }
}
