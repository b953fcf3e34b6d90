//! # km-pagerank
//!
//! PageRank in the k-machine model (Sections 2.3 and 3.1 of the paper).
//!
//! **Semantics.** Throughout this crate "PageRank" is the stationary
//! path-sum / Monte-Carlo semantics of Das Sarma et al. \[20\], the
//! definition the paper analyzes: a walk restarts with probability `ε`
//! from a uniform vertex, otherwise follows a uniform out-edge, and
//! *terminates* at dangling vertices. Equivalently,
//! `π(v) = (ε/n) · Σ_paths→v Π (1−ε)/outdeg`. For graphs without dangling
//! vertices this is the classical PageRank vector (sums to 1).
//!
//! Implementations, all agreeing on this semantics:
//!
//! * [`mod@power_iteration`] — the linear-algebra oracle (exact up to `tol`);
//! * [`congest_baseline`] — the `O~(n/k)`-round conversion-theorem
//!   baseline (per-edge count messages, as in Klauck et al. \[33\]);
//! * [`kmachine`] — **Algorithm 1**: the `O~(n/k²)`-round algorithm with
//!   the light/heavy vertex split and randomized routing (Theorem 4);
//! * [`lemma4`] — closed-form values on the Figure-1 graph `H`;
//! * [`analysis`] — approximation-error metrics for the δ-approximation
//!   claim.

pub mod analysis;
pub mod congest_baseline;
pub mod kmachine;
pub mod lemma4;
pub mod power_iteration;

pub use analysis::{l1_error, max_relative_error};
pub use kmachine::{run_kmachine_pagerank, KmPageRank, PrOutput, PrebuiltPageRank};
pub use power_iteration::power_iteration;

/// Parameters shared by all PageRank implementations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrConfig {
    /// Reset probability `ε ∈ (0, 1)`.
    pub reset_prob: f64,
    /// Tokens created per vertex (`c·log n` in the paper; [`PrConfig::paper`]
    /// sets `⌈c·log₂ n⌉`).
    pub tokens_per_vertex: u64,
}

impl PrConfig {
    /// The paper's parameterization: `⌈c·log₂ n⌉` tokens per vertex.
    ///
    /// # Panics
    /// Panics unless `0 < reset_prob < 1` and `c > 0`.
    pub fn paper(n: usize, reset_prob: f64, c: f64) -> Self {
        assert!(reset_prob > 0.0 && reset_prob < 1.0, "need 0 < ε < 1");
        assert!(c > 0.0, "need c > 0");
        let tokens = (c * (n.max(2) as f64).log2()).ceil() as u64;
        PrConfig {
            reset_prob,
            tokens_per_vertex: tokens.max(1),
        }
    }

    /// The estimator scale: `π̂(v) = ε·ψ_v / (n · tokens_per_vertex)`.
    pub fn estimate(&self, n: usize, visits: u64) -> f64 {
        self.reset_prob * visits as f64 / (n as f64 * self.tokens_per_vertex as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_scales_tokens() {
        let c = PrConfig::paper(1024, 0.5, 4.0);
        assert_eq!(c.tokens_per_vertex, 40);
        assert_eq!(PrConfig::paper(2, 0.5, 0.1).tokens_per_vertex, 1);
    }

    #[test]
    fn estimator_matches_isolated_vertex() {
        // An isolated vertex's ψ equals its own tokens; estimate must be ε/n.
        let cfg = PrConfig {
            reset_prob: 0.3,
            tokens_per_vertex: 50,
        };
        let est = cfg.estimate(10, 50);
        assert!((est - 0.03).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "0 < ε < 1")]
    fn rejects_bad_eps() {
        let _ = PrConfig::paper(10, 1.0, 1.0);
    }
}
