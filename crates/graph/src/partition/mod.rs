//! Input partitions of Section 1.1.
//!
//! All of the paper's results assume the **random vertex partition (RVP)**:
//! each vertex (with its incident edges) is assigned independently and
//! uniformly at random to one of the `k` machines. Real systems implement
//! this by hashing vertex ids, which [`Partition::by_hash`] reproduces.
//! The **random edge partition (REP)** of footnote 3 lives in [`rep`];
//! balance diagnostics (the `Θ~(n/k)` claim) in [`balance`].
//! Each machine's share of the input (its vertices with their incident
//! edges) is materialized by [`crate::dist::DistGraphBuilder`].

pub mod balance;
pub mod rep;
mod rvp;

use crate::ids::{MachineIdx, Vertex};
use rand::Rng;

pub use rep::EdgePartition;

/// How a partition was produced (recorded for experiment provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionModel {
    /// Independent uniform assignment per vertex (the paper's RVP).
    RandomVertex,
    /// Deterministic hash of the vertex id (how Pregel/Giraph realize RVP).
    Hashed,
    /// Round-robin: vertex `v` to machine `v mod k` (adversarially balanced).
    RoundRobin,
    /// Arbitrary explicit assignment.
    Explicit,
}

/// A vertex partition: the home machine of every vertex, plus the inverse
/// (member lists per machine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    k: usize,
    home: Vec<MachineIdx>,
    members: Vec<Vec<Vertex>>,
    model: PartitionModel,
}

impl Partition {
    /// Wraps an explicit assignment `vertex -> machine`.
    ///
    /// # Panics
    /// Panics if `k == 0` or any machine index is `>= k`.
    pub fn from_assignment(k: usize, home: Vec<MachineIdx>) -> Self {
        Self::build(k, home, PartitionModel::Explicit)
    }

    fn build(k: usize, home: Vec<MachineIdx>, model: PartitionModel) -> Self {
        assert!(k > 0, "need at least one machine");
        let mut members = vec![Vec::new(); k];
        for (v, &m) in home.iter().enumerate() {
            assert!(m < k, "machine index {m} out of range for k={k}");
            members[m].push(v as Vertex);
        }
        Partition {
            k,
            home,
            members,
            model,
        }
    }

    /// RVP: independent uniform assignment (Section 1.1).
    pub fn random_vertex<R: Rng>(n: usize, k: usize, rng: &mut R) -> Self {
        assert!(k > 0, "need at least one machine");
        let home = (0..n).map(|_| rng.gen_range(0..k)).collect();
        Self::build(k, home, PartitionModel::RandomVertex)
    }

    /// Hash-based RVP: `home(v) = hash(seed, v) mod k`.
    ///
    /// Deterministic given the seed, so *every machine can evaluate it
    /// locally* — the property the paper exploits ("if a machine knows a
    /// vertex ID, it also knows where it is hashed to").
    pub fn by_hash(n: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one machine");
        let home = (0..n)
            .map(|v| {
                (splitmix64(seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15)) % k as u64) as usize
            })
            .collect();
        Self::build(k, home, PartitionModel::Hashed)
    }

    /// Round-robin `v mod k`: a perfectly balanced adversary-friendly
    /// baseline used to contrast with RVP in the balance experiments.
    pub fn round_robin(n: usize, k: usize) -> Self {
        assert!(k > 0, "need at least one machine");
        let home = (0..n).map(|v| v % k).collect();
        Self::build(k, home, PartitionModel::RoundRobin)
    }

    /// Number of machines.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.home.len()
    }

    /// Home machine of `v`.
    #[inline]
    pub fn home(&self, v: Vertex) -> MachineIdx {
        self.home[v as usize]
    }

    /// The vertices hosted by machine `i`, in increasing id order.
    #[inline]
    pub fn members(&self, i: MachineIdx) -> &[Vertex] {
        &self.members[i]
    }

    /// Vertices per machine.
    pub fn loads(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }

    /// The provenance of this partition.
    pub fn model(&self) -> PartitionModel {
        self.model
    }

    /// Full assignment slice (`vertex -> machine`).
    pub fn assignment(&self) -> &[MachineIdx] {
        &self.home
    }
}

/// SplitMix64 — the tiny deterministic mixer used for hash partitions and
/// proxy assignment. Public so experiments can reproduce machine choices.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn explicit_assignment_roundtrip() {
        let p = Partition::from_assignment(3, vec![0, 1, 2, 0, 1]);
        assert_eq!(p.k(), 3);
        assert_eq!(p.n(), 5);
        assert_eq!(p.home(3), 0);
        assert_eq!(p.members(0), &[0, 3]);
        assert_eq!(p.loads(), vec![2, 2, 1]);
        assert_eq!(p.model(), PartitionModel::Explicit);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_machine() {
        let _ = Partition::from_assignment(2, vec![0, 2]);
    }

    #[test]
    fn members_partition_vertex_set() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let p = Partition::random_vertex(100, 7, &mut rng);
        let mut all: Vec<Vertex> = (0..7).flat_map(|i| p.members(i).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn hash_partition_deterministic() {
        let p1 = Partition::by_hash(50, 5, 99);
        let p2 = Partition::by_hash(50, 5, 99);
        assert_eq!(p1.assignment(), p2.assignment());
        let p3 = Partition::by_hash(50, 5, 100);
        assert_ne!(p1.assignment(), p3.assignment());
    }

    #[test]
    fn round_robin_is_balanced() {
        let p = Partition::round_robin(10, 3);
        assert_eq!(p.loads(), vec![4, 3, 3]);
    }

    #[test]
    fn rvp_is_roughly_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = Partition::random_vertex(10_000, 10, &mut rng);
        for &l in &p.loads() {
            // Expect ~1000 per machine; Chernoff keeps us within 20%.
            assert!((800..1200).contains(&l), "load {l}");
        }
    }
}
