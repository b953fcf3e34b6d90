//! Erdős–Rényi `G(n, p)` via geometric edge skipping.
//!
//! Runs in `O(n + m)` expected time rather than `O(n²)` Bernoulli trials
//! (the skip-sampling technique of Batagelj & Brandes), which matters for
//! the sparse sweeps in the experiment harness.

use crate::csr::CsrGraph;
use crate::ids::Vertex;
use rand::Rng;

/// Samples `G(n, p)`: each of the `C(n,2)` edges present independently
/// with probability `p`.
///
/// # Panics
/// Panics unless `0 ≤ p ≤ 1`.
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> CsrGraph {
    let mut sampler = GnpSampler::new(n, p);
    let expected = (sampler.total as f64 * p) as usize;
    let mut edges: Vec<(Vertex, Vertex)> = Vec::with_capacity(expected + 16);
    edges.extend(std::iter::from_fn(|| sampler.next(rng)));
    CsrGraph::from_edges(n, &edges)
}

/// The geometric skip-sampling state of one `G(n, p)` draw, shared by
/// [`gnp()`] and the chunked [`crate::stream::GnpStream`], so both make
/// the same RNG draws in the same order by construction.
///
/// Pairs `(u, v)`, `u < v`, are enumerated as a flat row-major index;
/// each step skips `Geometric(p)` pairs. `p = 1` emits every pair
/// without touching the RNG, and `n = 0` or `p = 0` emits nothing.
#[derive(Debug, Clone)]
pub(crate) struct GnpSampler {
    n: usize,
    p: f64,
    total: u64,
    log1p: f64,
    idx: u64,
    done: bool,
}

impl GnpSampler {
    /// A sampler at the first pair.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub(crate) fn new(n: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p={p} out of [0,1]");
        GnpSampler {
            n,
            p,
            total: (n as u64) * (n as u64).saturating_sub(1) / 2,
            log1p: (1.0 - p).ln(),
            idx: 0,
            done: n == 0 || p == 0.0,
        }
    }

    /// Number of vertices of the sampled graph.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Goes back to the first pair.
    pub(crate) fn rewind(&mut self) {
        *self = GnpSampler::new(self.n, self.p);
    }

    /// The next edge, drawing from `rng`; `None` once exhausted.
    #[inline]
    pub(crate) fn next<R: Rng>(&mut self, rng: &mut R) -> Option<(Vertex, Vertex)> {
        if self.done {
            return None;
        }
        if self.p < 1.0 {
            // Geometric(p) skip: floor(ln U / ln(1-p)).
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let skip = (u.ln() / self.log1p).floor() as u64;
            // A skip that overflows lands past `total` and ends the draw.
            self.idx = self.idx.saturating_add(skip);
        }
        if self.idx >= self.total {
            self.done = true;
            return None;
        }
        let edge = unflatten(self.idx, self.n);
        self.idx += 1;
        Some(edge)
    }
}

/// Maps a flat pair index in `[0, C(n,2))` to the pair `(u, v)`, `u < v`,
/// in row-major order: row `u` holds pairs `(u, u+1) .. (u, n-1)`.
/// Shared with [`super::gnm`] and [`GnpSampler`].
///
/// `O(1)`: row `u` starts at `offset(u) = u·(2n − u − 1)/2`, so the row
/// of `idx` comes from the quadratic formula, with an integer correction
/// step for `f64` rounding (exact up to `C(n,2) < 2⁵³`, i.e. any
/// `n < ~10⁸`). A linear row walk here costs `O(n)` per edge — `O(n·m)`
/// per generated graph — which is what made sparse generation at
/// `n ≥ 10⁶` intractable.
pub(crate) fn unflatten(idx: u64, n: usize) -> (Vertex, Vertex) {
    let n = n as u64;
    let offset = |u: u64| u * (2 * n - u - 1) / 2;
    let half = n as f64 - 0.5;
    let disc = (half * half - 2.0 * idx as f64).max(0.0);
    let mut u = (half - disc.sqrt()).max(0.0) as u64;
    while u > 0 && offset(u) > idx {
        u -= 1;
    }
    while u + 1 < n && offset(u + 1) <= idx {
        u += 1;
    }
    (u as Vertex, (u + 1 + (idx - offset(u))) as Vertex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn unflatten_enumerates_all_pairs() {
        let n = 7;
        let total = n * (n - 1) / 2;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..total as u64 {
            let (u, v) = unflatten(idx, n);
            assert!(u < v && (v as usize) < n);
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn unflatten_closed_form_survives_rounding_at_scale() {
        // Row boundaries are where the f64 quadratic estimate can land
        // one row off; check both sides of many boundaries at large n.
        for n in [1_000_000usize, 10_000_001] {
            let nn = n as u64;
            let offset = |u: u64| u * (2 * nn - u - 1) / 2;
            let total = nn * (nn - 1) / 2;
            for u in [0u64, 1, 2, nn / 3, nn / 2, nn - 3, nn - 2] {
                let start = offset(u);
                assert_eq!(unflatten(start, n), (u as Vertex, (u + 1) as Vertex));
                if start > 0 {
                    let (pu, pv) = unflatten(start - 1, n);
                    assert_eq!((pu as u64, pv as u64), (u - 1, nn - 1));
                }
            }
            let (lu, lv) = unflatten(total - 1, n);
            assert_eq!((lu as u64, lv as u64), (nn - 2, nn - 1));
        }
    }

    #[test]
    fn extreme_p() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(gnp(10, 0.0, &mut rng).m(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).m(), 45);
        assert_eq!(gnp(0, 0.5, &mut rng).n(), 0);
    }

    #[test]
    fn edge_count_concentrates() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 400;
        let p = 0.1;
        let g = gnp(n, p, &mut rng);
        let expected = (n * (n - 1) / 2) as f64 * p;
        // 5 standard deviations of slack.
        let sd = (expected * (1.0 - p)).sqrt();
        assert!(
            (g.m() as f64 - expected).abs() < 5.0 * sd,
            "m={} expected≈{expected}",
            g.m()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g1 = gnp(50, 0.3, &mut ChaCha8Rng::seed_from_u64(9));
        let g2 = gnp(50, 0.3, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(g1, g2);
    }

    #[test]
    fn dense_half_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = gnp(100, 0.5, &mut rng);
        let expected = 2475.0; // C(100,2)/2
        assert!((g.m() as f64 - expected).abs() < 250.0);
    }
}
