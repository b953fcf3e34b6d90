//! Balance diagnostics for partitions.
//!
//! Section 1.1: under RVP "each machine is the home machine of `Θ~(n/k)`
//! vertices with high probability". These statistics make that claim (and
//! the corresponding edge balance used in Lemma 4.1 of Klauck et al.)
//! measurable; the `RVP` experiment (DESIGN.md, "Experiment index")
//! sweeps them.
//!
//! Invalid inputs are reported as [`BalanceError`]s, not panics — the
//! same error-not-panic policy as `NetConfig::validate` in `km-core`.

use crate::csr::CsrGraph;
use crate::partition::Partition;

/// Invalid input to a balance diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceError {
    /// An empty load vector has no statistics.
    NoMachines,
    /// Graph and partition disagree on the vertex count.
    SizeMismatch {
        /// Vertices in the graph.
        graph_n: usize,
        /// Vertices in the partition.
        partition_n: usize,
    },
}

impl std::fmt::Display for BalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BalanceError::NoMachines => write!(f, "no machines: empty load vector"),
            BalanceError::SizeMismatch {
                graph_n,
                partition_n,
            } => write!(
                f,
                "partition size mismatch: graph has {graph_n} vertices, \
                 partition covers {partition_n}"
            ),
        }
    }
}

impl std::error::Error for BalanceError {}

/// Load statistics across machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Largest per-machine load.
    pub max: usize,
    /// Smallest per-machine load.
    pub min: usize,
    /// Mean load.
    pub mean: f64,
    /// `max / mean` — 1.0 is perfectly balanced.
    pub imbalance: f64,
}

impl LoadStats {
    /// Computes stats from raw per-machine loads.
    ///
    /// Returns [`BalanceError::NoMachines`] for an empty slice.
    pub fn from_loads(loads: &[usize]) -> Result<Self, BalanceError> {
        match loads.split_first() {
            Some((&first, rest)) => Ok(Self::from_split(first, rest)),
            None => Err(BalanceError::NoMachines),
        }
    }

    /// Computes stats from a non-empty load vector given as
    /// `first` + `rest` — the `k >= 1` guarantee lives in the signature,
    /// so callers that hold a [`Partition`] (which asserts `k >= 1` at
    /// construction) get an infallible path with no `expect`.
    pub fn from_split(first: usize, rest: &[usize]) -> Self {
        let mut max = first;
        let mut min = first;
        let mut sum = first;
        for &l in rest {
            max = max.max(l);
            min = min.min(l);
            sum += l;
        }
        let mean = sum as f64 / (rest.len() + 1) as f64;
        let imbalance = if mean > 0.0 { max as f64 / mean } else { 1.0 };
        LoadStats {
            max,
            min,
            mean,
            imbalance,
        }
    }
}

/// Vertex-load statistics of a partition. Infallible: [`Partition`]
/// guarantees `k >= 1`, so the empty-load arm is unreachable and the
/// total [`LoadStats::from_split`] path needs no `expect`.
pub fn vertex_balance(part: &Partition) -> LoadStats {
    let loads = part.loads();
    let (&first, rest) = loads.split_first().unwrap_or((&0, &[]));
    LoadStats::from_split(first, rest)
}

/// Edge-load statistics: machine `i`'s load is the total degree of its
/// hosted vertices (the size of its RVP input, `O~(m/k + Δ)` w.h.p. per
/// Lemma 4.1 of Klauck et al., quoted in the proof of Theorem 5).
///
/// Returns [`BalanceError::SizeMismatch`] if `g` and `part` disagree on
/// the vertex count.
pub fn edge_balance(g: &CsrGraph, part: &Partition) -> Result<LoadStats, BalanceError> {
    if g.n() != part.n() {
        return Err(BalanceError::SizeMismatch {
            graph_n: g.n(),
            partition_n: part.n(),
        });
    }
    let mut loads = vec![0usize; part.k()];
    for v in g.vertices() {
        loads[part.home(v)] += g.degree(v);
    }
    LoadStats::from_loads(&loads)
}

/// Verifies the `Θ~(n/k)` RVP balance claim: max load within
/// `factor · (n/k + slack)` where slack covers small-n noise.
pub fn is_vertex_balanced(part: &Partition, factor: f64) -> bool {
    let ideal = part.n() as f64 / part.k() as f64;
    let slack = (part.n() as f64).ln().max(1.0) * ideal.sqrt().max(1.0);
    (vertex_balance(part).max as f64) <= factor * ideal + factor * slack
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{classic::star, gnp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stats_basics() {
        let s = LoadStats::from_loads(&[4, 6, 5]).unwrap();
        assert_eq!(s.max, 6);
        assert_eq!(s.min, 4);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.imbalance - 1.2).abs() < 1e-12);
    }

    #[test]
    fn empty_loads_are_an_error_not_a_panic() {
        assert_eq!(LoadStats::from_loads(&[]), Err(BalanceError::NoMachines));
    }

    #[test]
    fn from_split_agrees_with_from_loads() {
        for loads in [vec![7], vec![4, 6, 5], vec![0, 0], vec![3, 0, 9, 1]] {
            let (&first, rest) = loads.split_first().unwrap();
            assert_eq!(
                LoadStats::from_split(first, rest),
                LoadStats::from_loads(&loads).unwrap()
            );
        }
    }

    #[test]
    fn size_mismatch_is_an_error_not_a_panic() {
        let g = star(10);
        let p = Partition::by_hash(12, 3, 1);
        assert_eq!(
            edge_balance(&g, &p),
            Err(BalanceError::SizeMismatch {
                graph_n: 10,
                partition_n: 12
            })
        );
        // Errors render a readable message.
        let msg = BalanceError::NoMachines.to_string();
        assert!(msg.contains("no machines"));
    }

    #[test]
    fn rvp_vertex_balance_holds() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for k in [2, 8, 32] {
            let p = Partition::random_vertex(5000, k, &mut rng);
            assert!(is_vertex_balanced(&p, 2.0), "k={k}");
        }
    }

    #[test]
    fn star_edge_load_concentrates_at_hub_machine() {
        let g = star(1000);
        let p = Partition::by_hash(1000, 10, 3);
        let s = edge_balance(&g, &p).unwrap();
        // Hub machine holds ~n-1 endpoints, others ~n/k.
        assert!(s.max >= 999);
        assert!(s.imbalance > 2.0);
    }

    #[test]
    fn gnp_edge_load_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = gnp(800, 0.05, &mut rng);
        let p = Partition::random_vertex(800, 8, &mut rng);
        let s = edge_balance(&g, &p).unwrap();
        assert!(s.imbalance < 1.5, "imbalance={}", s.imbalance);
    }
}
