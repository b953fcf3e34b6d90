//! The random edge partition (REP) of footnote 3 and its conversion to RVP.
//!
//! Under REP each *edge* goes to a uniformly random machine. Footnote 3
//! notes one can transform between REP and RVP in `O~(m/k² + n/k)` rounds;
//! [`conversion_rounds`] measures the cost of the direct routing strategy
//! (every edge is sent to the home machines of its endpoints) under the
//! per-link bandwidth constraint, which realizes exactly that bound.

use crate::csr::CsrGraph;
use crate::ids::{Edge, MachineIdx};
use crate::partition::Partition;
use rand::Rng;

/// A random edge partition: each edge of the graph owned by one machine.
#[derive(Debug, Clone)]
pub struct EdgePartition {
    k: usize,
    edges: Vec<Edge>,
    owner: Vec<MachineIdx>,
}

impl EdgePartition {
    /// Assigns every edge of `g` to a uniformly random machine.
    pub fn random<R: Rng>(g: &CsrGraph, k: usize, rng: &mut R) -> Self {
        assert!(k > 0, "need at least one machine");
        let edges: Vec<Edge> = g.edges().collect();
        let owner = edges.iter().map(|_| rng.gen_range(0..k)).collect();
        EdgePartition { k, edges, owner }
    }

    /// Number of machines.
    pub fn k(&self) -> usize {
        self.k
    }

    /// All edges with their owners.
    pub fn iter(&self) -> impl Iterator<Item = (Edge, MachineIdx)> + '_ {
        self.edges.iter().copied().zip(self.owner.iter().copied())
    }

    /// Edges per machine.
    pub fn loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.k];
        for &o in &self.owner {
            loads[o] += 1;
        }
        loads
    }
}

/// Rounds to convert this REP instance into the RVP instance `target`
/// by direct routing: the owner of each edge sends it to the home machines
/// of both endpoints; each ordered machine pair forwards at most `B` bits
/// per round. An edge message carries two vertex ids (`2·ceil(log2 n)`
/// bits).
///
/// Matches footnote 3's `O~(m/k² + n/k)` (the `n/k` term is the per-machine
/// vertex announcement, included here as one id per hosted vertex).
pub fn conversion_rounds(rep: &EdgePartition, target: &Partition, bandwidth_bits: u64) -> u64 {
    assert_eq!(rep.k(), target.k(), "machine count mismatch");
    let k = rep.k();
    let id_bits = 64 - (target.n().max(2) as u64 - 1).leading_zeros() as u64;
    let edge_bits = 2 * id_bits;
    // Load on each ordered link (src, dst), in bits.
    let mut link_bits = vec![0u64; k * k];
    for (e, owner) in rep.iter() {
        for &endpoint in &[e.u, e.v] {
            let home = target.home(endpoint);
            if home != owner {
                link_bits[owner * k + home] += edge_bits;
            }
        }
    }
    link_bits
        .iter()
        .map(|&bits| bits.div_ceil(bandwidth_bits))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn every_edge_owned_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = gnp(60, 0.2, &mut rng);
        let rep = EdgePartition::random(&g, 5, &mut rng);
        let total: usize = rep.loads().iter().sum();
        assert_eq!(total, g.m());
    }

    #[test]
    fn rep_loads_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = gnp(200, 0.3, &mut rng);
        let rep = EdgePartition::random(&g, 4, &mut rng);
        let loads = rep.loads();
        let ideal = g.m() as f64 / 4.0;
        for &l in &loads {
            assert!((l as f64) > 0.7 * ideal && (l as f64) < 1.3 * ideal);
        }
    }

    #[test]
    fn conversion_scales_inverse_quadratically_in_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = gnp(300, 0.3, &mut rng);
        let b = 64;
        let mut prev = u64::MAX;
        for k in [2usize, 4, 8, 16] {
            let rep = EdgePartition::random(&g, k, &mut rng);
            let rvp = Partition::random_vertex(g.n(), k, &mut rng);
            let rounds = conversion_rounds(&rep, &rvp, b);
            assert!(rounds <= prev, "rounds should not increase with k");
            prev = rounds;
        }
    }

    #[test]
    fn conversion_zero_when_colocated() {
        // Single machine: nothing crosses a link.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = gnp(30, 0.5, &mut rng);
        let rep = EdgePartition::random(&g, 1, &mut rng);
        let rvp = Partition::round_robin(g.n(), 1);
        assert_eq!(conversion_rounds(&rep, &rvp, 32), 0);
    }
}
