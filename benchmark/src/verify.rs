//! Output verifiers. Each returns `Err(reason)` for a wrong answer; the
//! caller turns that into failed operations and a non-zero exit.

use crate::api::{Counters, Edge};

/// PageRank L1 error against power iteration must stay below this:
/// 1.5× the worst error seen over seeds 1–5 at the full size (0.03867,
/// seed 4; seeds 1–12 all lie in 0.0382–0.0387).
pub const PAGERANK_L1_THRESHOLD: f64 = 0.058;

/// The smoke instance is 20× smaller, so the same token count per
/// vertex estimates a coarser vector.
pub const PAGERANK_L1_THRESHOLD_SMOKE: f64 = 0.1;

pub fn pagerank(l1_error: f64, threshold: f64) -> Result<(), String> {
    if l1_error.is_finite() && l1_error < threshold {
        Ok(())
    } else {
        Err(format!(
            "pagerank: L1 error {l1_error:.4} vs power iteration is not below {threshold}"
        ))
    }
}

/// `(missing, spurious)` from the sequential enumerator's diff.
pub fn triangles((missing, spurious): (usize, usize)) -> Result<(), String> {
    if missing == 0 && spurious == 0 {
        Ok(())
    } else {
        Err(format!(
            "triangles: {missing} missing and {spurious} spurious against enumerate_triangles"
        ))
    }
}

/// Borůvka's `(edge count, weight)` against Kruskal's.
pub fn mst(got: (usize, f64), want: (usize, f64)) -> Result<(), String> {
    if got.0 != want.0 {
        return Err(format!(
            "boruvka: forest has {} edges, Kruskal's has {}",
            got.0, want.0
        ));
    }
    if (got.1 - want.1).abs() > 1e-9 {
        return Err(format!(
            "boruvka: forest weight {} differs from Kruskal's {} by more than 1e-9",
            got.1, want.1
        ));
    }
    Ok(())
}

/// Union-find with path halving, the benchmark's own.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Joins the two sets; `false` if they were already one.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra as usize] = rb;
        true
    }
}

/// A spanning forest of the graph `(n, edges)`: every forest edge is a
/// graph edge, the forest has no cycle, and it has exactly
/// `n − #components` edges (so it spans every component).
pub fn spanning_forest(n: usize, edges: &[Edge], forest: &[Edge]) -> Result<(), String> {
    let mut sorted = edges.to_vec();
    sorted.sort_unstable();
    let mut graph = UnionFind::new(n);
    let mut components = n;
    for e in &sorted {
        if graph.union(e.u, e.v) {
            components -= 1;
        }
    }
    let mut acyclic = UnionFind::new(n);
    for e in forest {
        if sorted.binary_search(e).is_err() {
            return Err(format!(
                "forest edge ({}, {}) is not in the graph",
                e.u, e.v
            ));
        }
        if !acyclic.union(e.u, e.v) {
            return Err(format!("forest edge ({}, {}) closes a cycle", e.u, e.v));
        }
    }
    if forest.len() != n - components {
        return Err(format!(
            "forest has {} edges, a spanning forest of {components} components needs {}",
            forest.len(),
            n - components
        ));
    }
    Ok(())
}

/// The ring moves `tokens` tokens `hops` hops: one message and one link
/// visit per hop, one round per hop.
pub fn ring(c: &Counters, tokens: u64, hops: u64) -> Result<(), String> {
    let want = tokens * hops;
    if c.total_msgs != want || c.link_visits != want || c.rounds != hops {
        return Err(format!(
            "ring: total_msgs {} link_visits {} rounds {}, want {want} {want} {hops}",
            c.total_msgs, c.link_visits, c.rounds
        ));
    }
    Ok(())
}

/// Every scattered token is accounted for: sent equals received over
/// the links, and link plus local deliveries equal `k · x`.
pub fn scatter(c: &Counters, received: u64, tokens: u64) -> Result<(), String> {
    if c.total_msgs != c.recv_msgs {
        return Err(format!(
            "scatter: {} messages sent but {} received",
            c.total_msgs, c.recv_msgs
        ));
    }
    if received != tokens {
        return Err(format!(
            "scatter: {received} tokens arrived, {tokens} were scattered"
        ));
    }
    Ok(())
}

/// Per-machine edge loads of a build against a reference.
pub fn edge_loads(got: &[usize], want: &[usize], reference: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "ingest: edge_loads {got:?} differ from {reference} {want:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(u: u32, v: u32) -> Edge {
        Edge { u, v }
    }

    /// Two components: a 4-cycle with a chord, and a single edge; vertex
    /// 6 is isolated.
    fn graph() -> (usize, Vec<Edge>) {
        (
            7,
            vec![e(0, 1), e(1, 2), e(2, 3), e(0, 3), e(0, 2), e(4, 5)],
        )
    }

    #[test]
    fn spanning_forest_accepts_a_right_answer() {
        let (n, edges) = graph();
        assert_eq!(
            spanning_forest(n, &edges, &[e(0, 1), e(1, 2), e(2, 3), e(4, 5)]),
            Ok(())
        );
    }

    #[test]
    fn spanning_forest_rejects_a_broken_edge() {
        let (n, edges) = graph();
        // (1, 3) is not a graph edge.
        let err = spanning_forest(n, &edges, &[e(0, 1), e(1, 3), e(2, 3), e(4, 5)]).unwrap_err();
        assert!(err.contains("not in the graph"), "{err}");
    }

    #[test]
    fn spanning_forest_rejects_a_cycle_and_a_short_forest() {
        let (n, edges) = graph();
        let err = spanning_forest(n, &edges, &[e(0, 1), e(1, 2), e(0, 2), e(4, 5)]).unwrap_err();
        assert!(err.contains("cycle"), "{err}");
        let err = spanning_forest(n, &edges, &[e(0, 1), e(1, 2), e(4, 5)]).unwrap_err();
        assert!(err.contains("needs 4"), "{err}");
    }

    #[test]
    fn mst_rejects_a_perturbed_weight_and_a_missing_edge() {
        assert_eq!(mst((9, 3.25), (9, 3.25)), Ok(()));
        assert!(mst((9, 3.25 + 1e-6), (9, 3.25)).is_err());
        assert!(mst((8, 3.25), (9, 3.25)).is_err());
    }

    #[test]
    fn counters_and_thresholds_reject_wrong_values() {
        assert!(triangles((0, 0)).is_ok());
        assert!(triangles((1, 0)).is_err());
        assert!(triangles((0, 1)).is_err());
        assert!(pagerank(0.05, PAGERANK_L1_THRESHOLD).is_ok());
        assert!(pagerank(0.2, PAGERANK_L1_THRESHOLD).is_err());
        assert!(pagerank(f64::NAN, PAGERANK_L1_THRESHOLD).is_err());
        let c = Counters {
            rounds: 10,
            max_recv_bits: 0,
            total_msgs: 30,
            total_bits: 0,
            recv_msgs: 30,
            max_link_bits: 0,
            link_visits: 30,
            round_floor: 0,
        };
        assert!(ring(&c, 3, 10).is_ok());
        assert!(ring(&c, 3, 11).is_err());
        assert!(scatter(&c, 64, 64).is_ok());
        assert!(scatter(&c, 63, 64).is_err());
        assert!(scatter(&Counters { recv_msgs: 29, ..c }, 64, 64).is_err());
        assert!(edge_loads(&[1, 2], &[1, 2], "x").is_ok());
        assert!(edge_loads(&[1, 2], &[2, 1], "x").is_err());
    }
}
