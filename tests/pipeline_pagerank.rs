//! Integration: full PageRank pipelines across crates
//! (generate → partition → distribute → run → compare to oracle).

use km_graph::generators::lower_bound_h::LowerBoundGraph;
use km_graph::generators::{classic, gnp};
use km_graph::{DistGraph, DistGraphBuilder, Partition};
use km_pagerank::congest_baseline::run_congest_pagerank;
use km_pagerank::kmachine::{bidirect, run_kmachine_pagerank};
use km_pagerank::{l1_error, max_relative_error, power_iteration, KmPageRank, PrConfig};
use km_repro::core::{EngineKind, NetConfig, Runner};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, OnceLock};

fn net(k: usize, n: usize, seed: u64) -> NetConfig {
    NetConfig::polylog(k, n, seed).max_rounds(10_000_000)
}

#[test]
fn algorithm1_and_baseline_agree_with_oracle_on_gnp() {
    let mut rng = ChaCha8Rng::seed_from_u64(100);
    let g = bidirect(&gnp(120, 0.08, &mut rng));
    let eps = 0.3;
    let exact = power_iteration(&g, eps, 1e-13, 100_000);
    let part = Arc::new(Partition::by_hash(g.n(), 6, 9));
    let cfg = PrConfig {
        reset_prob: eps,
        tokens_per_vertex: 3000,
    };
    let floor = eps / g.n() as f64;

    let (pr_a, m_a) = run_kmachine_pagerank(&g, &part, cfg, net(6, g.n(), 5)).unwrap();
    let (pr_b, m_b) = run_congest_pagerank(&g, &part, cfg, net(6, g.n(), 5)).unwrap();
    assert!(max_relative_error(&pr_a, &exact, floor) < 0.1);
    assert!(max_relative_error(&pr_b, &exact, floor) < 0.1);
    assert!(m_a.rounds > 0 && m_b.rounds > 0);
}

#[test]
fn lower_bound_graph_end_to_end() {
    // The Theorem-2 hard instance run through the whole stack: the
    // distributed estimate must reveal the orientation bits.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let h = LowerBoundGraph::random(81, &mut rng);
    let part = Arc::new(Partition::random_vertex(h.n(), 4, &mut rng));
    let cfg = PrConfig {
        reset_prob: 0.3,
        tokens_per_vertex: 40_000,
    };
    let (pr, _) = run_kmachine_pagerank(&h.graph, &part, cfg, net(4, h.n(), 3)).unwrap();
    // Decode each bit by thresholding at the midpoint of the two analytic
    // values; all bits must decode correctly with this token budget.
    let mid = (h.pagerank_v_for_bit(0.3, false) + h.pagerank_v_for_bit(0.3, true)) / 2.0;
    for i in 0..h.quarter {
        let decoded = pr[h.v_vertex(i) as usize] > mid;
        assert_eq!(decoded, h.bits[i], "bit {i} mis-decoded");
    }
}

#[test]
fn star_worst_case_superiority() {
    // On the star, Algorithm 1 must beat the baseline in max per-machine
    // traffic (the quantity that drives its round complexity).
    let n = 800;
    let g = bidirect(&classic::star(n));
    let part = Arc::new(Partition::by_hash(n, 8, 4));
    let cfg = PrConfig {
        reset_prob: 0.4,
        tokens_per_vertex: 10,
    };
    let (_, m_a) = run_kmachine_pagerank(&g, &part, cfg, net(8, n, 6)).unwrap();
    let (_, m_b) = run_congest_pagerank(&g, &part, cfg, net(8, n, 6)).unwrap();
    assert!(
        m_b.max_recv_bits() > 2 * m_a.max_recv_bits(),
        "baseline max recv {} vs alg1 {}",
        m_b.max_recv_bits(),
        m_a.max_recv_bits()
    );
}

#[test]
fn deterministic_across_engine_runs() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let g = bidirect(&gnp(60, 0.1, &mut rng));
    let part = Arc::new(Partition::by_hash(g.n(), 5, 2));
    let cfg = PrConfig {
        reset_prob: 0.5,
        tokens_per_vertex: 20,
    };
    let run = || run_kmachine_pagerank(&g, &part, cfg, net(5, g.n(), 11)).unwrap();
    let (pr1, m1) = run();
    let (pr2, m2) = run();
    assert_eq!(pr1, pr2);
    assert_eq!(m1, m2);
}

/// The δ-accuracy sweep's fixed instance: bidirected `G(2000, 8/n)` under
/// a hash partition over `k = 8`, with its power-iteration oracle.
struct SweepInstance {
    dist: DistGraph,
    cfg: PrConfig,
    exact: Vec<f64>,
}

const SWEEP_N: usize = 2000;
const SWEEP_K: usize = 8;

fn sweep_instance() -> &'static SweepInstance {
    static INSTANCE: OnceLock<SweepInstance> = OnceLock::new();
    INSTANCE.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(2000);
        let g = bidirect(&gnp(SWEEP_N, 8.0 / SWEEP_N as f64, &mut rng));
        let part = Arc::new(Partition::by_hash(SWEEP_N, SWEEP_K, 17));
        let dist = DistGraphBuilder::new(&part).directed(&g);
        let cfg = PrConfig::paper(SWEEP_N, 0.15, 4.0);
        let exact = power_iteration(&g, cfg.reset_prob, 1e-13, 100_000);
        SweepInstance { dist, cfg, exact }
    })
}

/// L1 ceiling of the δ-accuracy sweep: 1.15 × the largest error the
/// per-token sampler (one Bernoulli and one `gen_range` per token, the
/// protocol as it stood when this guard was written) reached on
/// `sweep_instance`. Its own sweep: 64 cases min 0.04368 / mean 0.04602 /
/// max 0.04805; 256 cases (the CI depth) min 0.04368 / mean 0.04616 /
/// max 0.04853, so 1.15 × 0.04853.
const SWEEP_L1_MAX: f64 = 0.0558;

proptest! {
    /// Theorem 4's δ-approximation as a w.h.p. claim over the protocol's
    /// randomness: whatever the net seed, Algorithm 1 ends with every
    /// token dead and an estimate within a fixed L1 distance of the
    /// power-iteration oracle. The ceiling is not re-tuned when the
    /// sampler changes — it is what says the law did not.
    #[test]
    fn delta_accuracy_holds_across_net_seeds(seed in 0u64..1_000_000_000) {
        let inst = sweep_instance();
        let machines = KmPageRank::build_all(inst.dist.clone(), inst.cfg);
        let report = Runner::new(net(SWEEP_K, SWEEP_N, seed)).run(machines).unwrap();
        let mut pr = vec![0.0; SWEEP_N];
        for m in &report.machines {
            prop_assert_eq!(m.inner().held_tokens(), 0, "tokens left at termination");
            for (v, est) in m.inner().output().estimates {
                pr[v as usize] = est;
            }
        }
        let l1 = l1_error(&pr, &inst.exact);
        prop_assert!(l1 < SWEEP_L1_MAX, "L1 {l1:.5} at net seed {seed}");
    }
}

/// The exact transcript of one Algorithm 1 run: what the engines charge
/// (rounds, messages, bits, link visits, per-machine received bits) and
/// an FNV-1a fold of the assembled estimate's `f64::to_bits`.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    rounds: u64,
    total_msgs: u64,
    total_bits: u64,
    link_visits: u64,
    recv_bits: Vec<u64>,
    output_fnv: u64,
}

fn fnv_bits(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn pin_of(dist: &DistGraph, cfg: PrConfig, netc: NetConfig, engine: EngineKind) -> Pin {
    let n = dist.n();
    let report = Runner::new(netc)
        .engine(engine)
        .run(KmPageRank::build_all(dist.clone(), cfg))
        .unwrap();
    let mut pr = vec![0.0; n];
    for m in &report.machines {
        assert_eq!(m.inner().held_tokens(), 0, "tokens left at termination");
        for (v, est) in m.inner().output().estimates {
            pr[v as usize] = est;
        }
    }
    let m = &report.metrics;
    Pin {
        rounds: m.rounds,
        total_msgs: m.total_msgs(),
        total_bits: m.total_bits(),
        link_visits: m.link_visits,
        recv_bits: m.recv_bits.clone(),
        output_fnv: fnv_bits(&pr),
    }
}

/// Pinned transcript on the δ-accuracy instance (bidirected
/// `G(2000, 8/n)`, hash partition, `k = 8`), where the heavy path, the
/// light path and multi-target receiver splits all run. Equal on both
/// engines; a change to local computation only must leave it alone.
#[test]
fn gnp_transcript_is_pinned_on_both_engines() {
    let inst = sweep_instance();
    // Some vertex has two out-neighbours on one machine other than its
    // own, so a Heavy count can land on a multi-target receiver.
    assert!(inst.dist.locals().iter().any(|l| (0..l.hosted()).any(|j| {
        let mut homes: Vec<usize> = l.neighbors(j).iter().map(|&v| l.home(v)).collect();
        homes.retain(|&h| h != l.machine());
        homes.sort_unstable();
        homes.windows(2).any(|w| w[0] == w[1])
    })));
    let want = Pin {
        rounds: 1268,
        total_msgs: 139_224,
        total_bits: 6_215_184,
        link_visits: 53_928,
        recv_bits: vec![
            829_188, 831_033, 732_033, 694_953, 785_403, 726_858, 822_888, 792_828,
        ],
        output_fnv: 4_288_453_025_699_643_887,
    };
    for engine in [EngineKind::Sequential, EngineKind::Distributed] {
        let got = pin_of(&inst.dist, inst.cfg, net(SWEEP_K, SWEEP_N, 7), engine);
        assert_eq!(got, want, "{engine:?}");
    }
}

/// Pinned transcript on a hub whose out-neighbours span every machine,
/// with `k ∤ n`: the hub's heavy step keeps a share for its own machine
/// and every receiver splits its count over many hosted targets.
#[test]
fn hub_transcript_is_pinned_on_both_engines() {
    const N: usize = 203;
    const K: usize = 8;
    let g = bidirect(&classic::star(N));
    let part = Arc::new(Partition::by_hash(N, K, 3));
    let dist = DistGraphBuilder::new(&part).directed(&g);
    for m in 0..K {
        assert!(
            part.members(m).iter().filter(|&&v| v != 0).count() >= 2,
            "machine {m} hosts fewer than two of the hub's out-neighbours"
        );
    }
    let cfg = PrConfig {
        reset_prob: 0.25,
        tokens_per_vertex: 40,
    };
    let want = Pin {
        rounds: 110,
        total_msgs: 2292,
        total_bits: 83_272,
        link_visits: 1957,
        recv_bits: vec![7406, 7490, 7448, 7490, 7448, 31_052, 7448, 7490],
        output_fnv: 6_925_690_579_037_505_979,
    };
    for engine in [EngineKind::Sequential, EngineKind::Distributed] {
        let got = pin_of(&dist, cfg, net(K, N, 13), engine);
        assert_eq!(got, want, "{engine:?}");
    }
}
