//! The `O~(n/k)` conversion-theorem baseline (Klauck et al. \[33\]).
//!
//! This is the algorithm the paper improves on: the CONGEST random-walk
//! PageRank of \[20\] mechanically translated to the k-machine model. Each
//! *vertex* `u` sends a per-edge count message `⟨c, u→v⟩` to each neighbor
//! `v` chosen by its tokens — counts are **not** aggregated across the
//! vertices co-hosted on a machine, and there is no heavy-vertex machine
//! distribution. On a star, the hub's home machine therefore receives
//! `Θ(n)` messages per iteration (one per leaf edge) instead of
//! Algorithm 1's `k−1`, which is exactly the `Ω(n/k)`-vs-`O~(n/k²)` gap
//! the T4-UB experiment measures.
//!
//! Token dynamics, the flush barrier, and the estimator are identical to
//! [`crate::kmachine`], so any output difference between the two
//! protocols is purely statistical.

use crate::kmachine::{binomial, LocalState, PrMsg, PrOutput, PrPayload};
use crate::PrConfig;
use km_core::router::{Staged, Stages};
use km_core::{
    run_algorithm, KmAlgorithm, MachineIdx, Metrics, NetConfig, Outbox, RoundCtx, Runner,
};
use km_graph::{DiGraph, DistGraph, DistGraphBuilder, Partition};
use rand::Rng;
use std::sync::Arc;

/// One machine of the conversion-theorem baseline.
#[derive(Debug)]
pub struct CongestPageRank {
    st: LocalState,
    cfg: PrConfig,
    /// Iterations executed (diagnostics).
    pub iterations: u64,
}

impl CongestPageRank {
    /// Builds one protocol instance per machine from the distributed
    /// directed input.
    pub fn build_all(dist: DistGraph, cfg: PrConfig) -> Vec<Staged<CongestPageRank, 1>> {
        LocalState::build_all(dist, &cfg)
            .into_iter()
            .map(|st| {
                Staged::new(CongestPageRank {
                    st,
                    cfg,
                    iterations: 0,
                })
            })
            .collect()
    }

    /// This machine's output.
    pub fn output(&self) -> PrOutput {
        let n = self.st.g.global_n();
        let estimates = self
            .st
            .g
            .vertices()
            .iter()
            .zip(&self.st.visits)
            .map(|(&v, &psi)| (v, self.cfg.estimate(n, psi)))
            .collect();
        PrOutput { estimates }
    }

    /// One iteration step; returns the number of surviving tokens.
    fn step(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<PrMsg>, parity: bool) -> u64 {
        let LocalState { g, tokens, visits } = &mut self.st;
        let n = g.global_n();
        let eps = self.cfg.reset_prob;
        let mut survivors_total = 0;
        // Tokens per out-neighbor of the vertex at hand, by position.
        let mut alpha_u: Vec<u64> = Vec::new();
        let mut staged_local: Vec<(usize, u64)> = Vec::new();

        for (j, held) in tokens.iter_mut().enumerate() {
            let t = std::mem::take(held);
            if t == 0 {
                continue;
            }
            let dead = binomial(ctx.rng, t, eps);
            let live = t - dead;
            if live == 0 {
                continue;
            }
            let outs = g.neighbors(j);
            if outs.is_empty() {
                continue;
            }
            survivors_total += live;
            // Per-vertex (per-edge) aggregation only: the CONGEST view.
            alpha_u.clear();
            alpha_u.resize(outs.len(), 0);
            for _ in 0..live {
                alpha_u[ctx.rng.gen_range(0..outs.len())] += 1;
            }
            // `outs` is sorted, so emission is ascending in `v`.
            for (&v, &c) in outs.iter().zip(&alpha_u) {
                if c == 0 {
                    continue;
                }
                match g.local(v) {
                    Some(lj) => staged_local.push((lj, c)),
                    // One message per (u, v) edge — no cross-vertex merge.
                    None => out.send(g.home(v), PrMsg::count(n, parity, v, c)),
                }
            }
        }
        for (j, c) in staged_local {
            tokens[j] += c;
            visits[j] += c;
        }
        self.iterations += 1;
        survivors_total
    }
}

/// Stages, flush counter and termination exactly as [`crate::KmPageRank`].
impl Stages<1> for CongestPageRank {
    type Msg = PrMsg;

    fn tag(msg: &PrMsg) -> u8 {
        u8::from(msg.parity)
    }

    fn flush(&self, tag: u8, [live]: [u64; 1]) -> PrMsg {
        PrMsg::flush(tag == 1, live)
    }

    fn apply(&mut self, _ctx: &mut RoundCtx<'_>, _src: MachineIdx, msg: PrMsg) -> Option<[u64; 1]> {
        match msg.payload {
            PrPayload::Count { v, count } => self.st.arrive_at_vertex(v, count),
            // lint: allow(panic) — the CONGEST baseline protocol has no Heavy sender
            PrPayload::Heavy { .. } => unreachable!("baseline never sends Heavy"),
            PrPayload::Flush { live } => return Some([live]),
        }
        None
    }

    fn enter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<PrMsg>, tag: u8) -> [u64; 1] {
        [self.step(ctx, out, tag == 1)]
    }

    fn complete(&mut self, _ctx: &mut RoundCtx<'_>, _tag: u8, [live]: [u64; 1]) -> bool {
        live > 0
    }
}

/// The conversion-theorem baseline as a [`KmAlgorithm`].
#[derive(Debug, Clone, Copy)]
pub struct CongestBaseline<'a> {
    /// The input digraph.
    pub g: &'a DiGraph,
    /// The vertex partition (its `k` must match the runner's).
    pub part: &'a Arc<Partition>,
    /// Token parameters.
    pub cfg: PrConfig,
}

impl KmAlgorithm for CongestBaseline<'_> {
    type Machine = Staged<CongestPageRank, 1>;
    type Output = Vec<f64>;

    fn build(&self, k: usize) -> Vec<Staged<CongestPageRank, 1>> {
        assert_eq!(self.part.k(), k, "partition k must match the network k");
        CongestPageRank::build_all(DistGraphBuilder::new(self.part).directed(self.g), self.cfg)
    }

    fn extract(&self, machines: Vec<Staged<CongestPageRank, 1>>, _metrics: &Metrics) -> Vec<f64> {
        let mut pr = vec![0.0; self.g.n()];
        for m in &machines {
            for (v, est) in m.inner().output().estimates {
                pr[v as usize] = est;
            }
        }
        pr
    }
}

/// Runs the baseline end to end. Thin wrapper over [`run_algorithm`]
/// with the default engine choice.
pub fn run_congest_pagerank(
    g: &DiGraph,
    part: &Arc<Partition>,
    cfg: PrConfig,
    net: NetConfig,
) -> Result<(Vec<f64>, km_core::Metrics), km_core::EngineError> {
    let outcome = run_algorithm(&CongestBaseline { g, part, cfg }, Runner::new(net))?;
    Ok((outcome.output, outcome.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmachine::{bidirect, run_kmachine_pagerank};
    use crate::power_iteration::power_iteration;
    use km_graph::generators::classic;
    use km_graph::Vertex;

    fn net(k: usize, n: usize, seed: u64) -> NetConfig {
        NetConfig::polylog(k, n, seed).max_rounds(2_000_000)
    }

    #[test]
    fn baseline_matches_power_iteration_statistically() {
        let n = 24;
        let arcs: Vec<(Vertex, Vertex)> = (0..n as Vertex)
            .map(|i| (i, (i + 1) % n as Vertex))
            .collect();
        let g = DiGraph::from_arcs(n, &arcs);
        let part = Arc::new(Partition::by_hash(n, 4, 1));
        let cfg = PrConfig {
            reset_prob: 0.3,
            tokens_per_vertex: 4000,
        };
        let (pr, _) = run_congest_pagerank(&g, &part, cfg, net(4, n, 3)).unwrap();
        let exact = power_iteration(&g, 0.3, 1e-13, 10_000);
        for v in 0..n {
            let rel = (pr[v] - exact[v]).abs() / exact[v];
            assert!(rel < 0.08, "v={v} rel={rel}");
        }
    }

    #[test]
    fn star_congestion_gap_vs_algorithm_1() {
        // The headline comparison: on a star, Algorithm 1's cross-vertex
        // aggregation and heavy-vertex machine counts beat the per-edge
        // baseline by a wide margin in both messages and rounds.
        let n = 600;
        let k = 8;
        let g = bidirect(&classic::star(n));
        let part = Arc::new(Partition::by_hash(n, k, 5));
        let cfg = PrConfig {
            reset_prob: 0.4,
            tokens_per_vertex: 8,
        };
        let (_, m_base) = run_congest_pagerank(&g, &part, cfg, net(k, n, 7)).unwrap();
        let (_, m_alg1) = run_kmachine_pagerank(&g, &part, cfg, net(k, n, 7)).unwrap();
        // Both protocols pay the same k² flush messages per iteration, which
        // dilutes the total-message ratio at this small scale; the data-only
        // gap is ~20× (see the T4-UB experiment for the full-scale sweep).
        assert!(
            m_base.total_msgs() > 2 * m_alg1.total_msgs(),
            "baseline msgs {} vs alg1 {}",
            m_base.total_msgs(),
            m_alg1.total_msgs()
        );
        assert!(
            m_base.rounds > m_alg1.rounds,
            "baseline rounds {} vs alg1 {}",
            m_base.rounds,
            m_alg1.rounds
        );
    }
}
