//! Random-vertex-partition checks: distributing a concrete graph.
//!
//! Under RVP the home machine of `v` learns `v`'s full incident edge list
//! (for digraphs: the out-edges; Section 1.1). That local knowledge is
//! materialized by [`crate::dist::DistGraphBuilder`]; these tests pin the
//! RVP guarantee on its locals.

#[cfg(test)]
mod tests {
    use crate::digraph::DiGraph;
    use crate::dist::{DistGraphBuilder, LocalGraph};
    use crate::generators::classic::star;
    use crate::partition::Partition;
    use std::sync::Arc;

    #[test]
    fn locals_cover_graph_exactly_once() {
        let g = star(8);
        let part = Arc::new(Partition::by_hash(8, 3, 7));
        let locals = DistGraphBuilder::new(&part).undirected(&g).into_locals();
        let total_vertices: usize = locals.iter().map(LocalGraph::hosted).sum();
        assert_eq!(total_vertices, 8);
        let total_endpoints: usize = locals.iter().map(LocalGraph::edge_endpoints).sum();
        assert_eq!(total_endpoints, 2 * g.m());
    }

    #[test]
    fn directed_locals_hold_out_edges() {
        let g = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (3, 0)]);
        let part = Arc::new(Partition::from_assignment(2, vec![0, 1, 1, 0]));
        let locals = DistGraphBuilder::new(&part).directed(&g).into_locals();
        let m0 = &locals[0];
        assert_eq!(m0.vertices(), &[0, 3]);
        assert_eq!(m0.neighbors(0), &[1, 2]);
        assert_eq!(m0.neighbors(1), &[0]);
        assert_eq!(locals[1].edge_endpoints(), 0);
    }
}
