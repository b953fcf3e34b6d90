//! # km-mst — connectivity and minimum spanning forests in the k-machine
//! model.
//!
//! Section 1.3 uses MST as a showcase of the General Lower Bound Theorem:
//! on complete graphs with random edge weights the GLBT gives `Ω~(n/k²)`
//! rounds directly (footnote 6), tight by the algorithm of Pandurangan,
//! Robinson & Scquizzato [SPAA 2016]. This crate tells that story with
//! **two distributed algorithms** bracketing the bound (full narrative:
//! DESIGN.md § "MST and connectivity"):
//!
//! * [`kruskal`] — the sequential oracle;
//! * [`BoruvkaMst`] — the *simple* upper bound: distributed Borůvka with
//!   the paper's **randomized proxy computation** (per-component minimum
//!   candidate edges aggregate at a hash-chosen proxy machine), but the
//!   per-phase **choice broadcast** ships every chosen edge to all `k`
//!   machines, so each machine receives `Θ~(n)` bits over the run —
//!   `O~(n/k)` rounds, independent of how large `k` grows;
//! * [`SketchConnectivity`] (in [`conn`]) — the *optimal* `O~(n/k²)`
//!   protocol of \[51\]: per phase, machines XOR fresh AGM
//!   [`sketch::L0Sketch`]es of their hosted vertices per component and
//!   ship one `O(polylog n)`-bit partial sketch per component to a
//!   hash-chosen proxy; proxies decode one outgoing edge per component,
//!   and a **pointer-jumping label service** resolves merged component
//!   labels in `O(log n)` sub-rounds with no payload broadcast (only
//!   `O(log n)`-bit barrier markers cross every link). Per
//!   machine that is `O~(n/k)` received bits spread over `k−1` links —
//!   `O~(n/k²)` rounds, matching the GLBT lower bound
//!   (`km_lower::bounds::mst_rounds`) up to polylog factors. The
//!   measured crossover vs [`BoruvkaMst`] is recorded by the `CC-UB`
//!   experiment and the `sketch_cc` workloads of `benchmark/`.
//!
//! [`SketchConnectivity`] computes connectivity / spanning forests (the
//! unweighted problem the `Ω~(n/k²)` bound already applies to); the MSF
//! refinement via weight-bucketed sketches is noted in DESIGN.md.

pub mod conn;
pub mod sketch;

pub use conn::{
    run_sketch_connectivity, ConnectivityOutput, DistributedSketchConnectivity,
    PrebuiltSketchConnectivity, SketchConnectivity,
};

use km_core::rng::keyed_hash;
use km_core::router::{Staged, Stages};
use km_core::{
    id_bits, run_algorithm, BitReader, BitWriter, CodecError, KmAlgorithm, MachineIdx, Metrics,
    NetConfig, Outbox, RoundCtx, Runner, WireCodec, WireSize,
};
use km_graph::{DistGraph, DistGraphBuilder, Edge, LocalGraph, Partition, Vertex, WeightedGraph};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sequential Kruskal oracle; returns the minimum spanning forest edges
/// (canonical order) and the total weight.
pub fn kruskal(g: &WeightedGraph) -> (Vec<Edge>, f64) {
    let mut edges: Vec<(Edge, f64)> = g.weighted_edges().collect();
    // Deterministic total order: weight, then endpoints. `WeightedGraph`
    // guarantees finite weights, so total_cmp is the plain numeric order.
    edges.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let mut parent: Vec<Vertex> = (0..g.n() as Vertex).collect();
    let mut out = Vec::new();
    let mut total = 0.0;
    for (e, w) in edges {
        let (ru, rv) = (find_root(&mut parent, e.u), find_root(&mut parent, e.v));
        if ru != rv {
            parent[ru as usize] = rv;
            out.push(e);
            total += w;
        }
    }
    out.sort_unstable();
    (out, total)
}

/// Root of `x` in the union-find `parent`, halving the path on the way.
fn find_root(parent: &mut [Vertex], mut x: Vertex) -> Vertex {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// A candidate or chosen MST edge with its weight, ordered by
/// `(weight, edge)` for deterministic tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    w: f64,
    e: Edge,
}

impl Cand {
    fn better_than(&self, other: &Cand) -> bool {
        // Weights are finite by `WeightedGraph`'s construction invariant,
        // so total_cmp agrees with the numeric order.
        match self.w.total_cmp(&other.w) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.e < other.e,
        }
    }
}

/// Message of the Borůvka protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum MstPayload {
    /// A per-component candidate `(component, edge, weight)` on its way
    /// to the component's proxy.
    Candidate {
        /// Component label.
        comp: Vertex,
        /// The candidate edge.
        e: Edge,
        /// Its weight.
        w: f64,
    },
    /// A chosen minimum edge, broadcast by a proxy.
    Chosen {
        /// The chosen edge.
        e: Edge,
        /// Its weight.
        w: f64,
    },
    /// Barrier marker carrying the number of candidates the sender
    /// produced this phase (global zero ⇒ the forest is complete).
    Flush {
        /// Candidates produced by the sender in this phase.
        produced: u64,
    },
}

/// A parity-tagged Borůvka message (two barriers per phase).
#[derive(Debug, Clone, PartialEq)]
pub struct MstMsg {
    /// Barrier counter parity.
    pub parity: bool,
    /// The payload.
    pub payload: MstPayload,
    bits: u32,
}

impl WireSize for MstMsg {
    fn bits(&self) -> u64 {
        self.bits as u64
    }
}

/// Layout: parity (1) · tag (1) · body. `Flush` is a bare 32-bit counter
/// (34 bits total, the only body that narrow); otherwise the tag picks
/// `Candidate` (ids in `(remaining − 64) / 3` bits each: comp, e.u, e.v,
/// then the weight's 64 IEEE bits) or `Chosen` (ids in
/// `(remaining − 64) / 2` bits: e.u, e.v, then the weight).
impl WireCodec for MstMsg {
    fn encode(&self, w: &mut BitWriter) {
        w.put(u64::from(self.parity), 1);
        match self.payload {
            MstPayload::Candidate { comp, e, w: wt } => {
                let idb = (self.bits - 66) / 3;
                w.put(0, 1);
                w.put(u64::from(comp), idb);
                w.put(u64::from(e.u), idb);
                w.put(u64::from(e.v), idb);
                w.put(wt.to_bits(), 64);
            }
            MstPayload::Chosen { e, w: wt } => {
                let idb = (self.bits - 66) / 2;
                w.put(1, 1);
                w.put(u64::from(e.u), idb);
                w.put(u64::from(e.v), idb);
                w.put(wt.to_bits(), 64);
            }
            MstPayload::Flush { produced } => {
                w.put(0, 1);
                w.put(produced, 32);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let total = r.remaining();
        let parity = r.take(1)? != 0;
        let tag = r.take(1)?;
        let rem = r.remaining();
        let payload = if rem == 32 {
            MstPayload::Flush {
                produced: r.take(32)?,
            }
        } else {
            let fields = if tag == 0 { 3 } else { 2 };
            let id_total = rem.checked_sub(64).unwrap_or(1);
            if !id_total.is_multiple_of(fields) || !(1..=32).contains(&(id_total / fields)) {
                return Err(CodecError::Invalid {
                    what: "mst message body width",
                    value: rem,
                });
            }
            let idb = (id_total / fields) as u32;
            if tag == 0 {
                let comp = r.take(idb)? as Vertex;
                let u = r.take(idb)? as Vertex;
                let v = r.take(idb)? as Vertex;
                let w = f64::from_bits(r.take(64)?);
                MstPayload::Candidate {
                    comp,
                    e: Edge { u, v },
                    w,
                }
            } else {
                let u = r.take(idb)? as Vertex;
                let v = r.take(idb)? as Vertex;
                let w = f64::from_bits(r.take(64)?);
                MstPayload::Chosen {
                    e: Edge { u, v },
                    w,
                }
            }
        };
        Ok(MstMsg {
            parity,
            payload,
            bits: total as u32,
        })
    }
}

impl MstMsg {
    fn candidate(n: usize, parity: bool, comp: Vertex, e: Edge, w: f64) -> Self {
        let bits = (2 + 3 * id_bits(n) + 64) as u32;
        MstMsg {
            parity,
            payload: MstPayload::Candidate { comp, e, w },
            bits,
        }
    }
    fn chosen(n: usize, parity: bool, e: Edge, w: f64) -> Self {
        let bits = (2 + 2 * id_bits(n) + 64) as u32;
        MstMsg {
            parity,
            payload: MstPayload::Chosen { e, w },
            bits,
        }
    }
    fn flush(parity: bool, produced: u64) -> Self {
        MstMsg {
            parity,
            payload: MstPayload::Flush { produced },
            bits: 2 + 32,
        }
    }
}

/// A Borůvka phase is two stages — gather (candidates to proxies), then
/// scatter (choices to everyone) — so the stage parity names the half:
/// this is the tag of every gather stage.
const GATHER: u8 = 0;

/// One machine of the distributed Borůvka protocol.
#[derive(Debug)]
pub struct BoruvkaMst {
    n: usize,
    /// This machine's RVP input (hosted vertices + weighted adjacency).
    lg: LocalGraph,
    /// Union-find parent of every vertex, kept across phases. A root is
    /// the smallest vertex id of its component, so [`find_root`] gives
    /// the same label on every machine, however far each has compressed.
    labels: Vec<Vertex>,
    /// Proxy duty: best candidate per component I'm responsible for.
    proxy_best: BTreeMap<Vertex, Cand>,
    /// Chosen edges received this phase (applied at the scatter barrier).
    phase_chosen: Vec<(Edge, f64)>,
    /// The minimum spanning forest, accumulated identically on every
    /// machine from the choice broadcasts.
    pub forest: Vec<(Edge, f64)>,
    /// Borůvka phases executed.
    pub phases: u64,
}

impl BoruvkaMst {
    /// Builds one protocol instance per machine from the distributed
    /// weighted input — the Section 1.1 shape, whether it came from
    /// [`DistGraphBuilder`] or a streaming ingest via `km_graph::stream`.
    ///
    /// # Panics
    /// Panics if the distributed input carries no weights.
    pub fn build_all(dist: DistGraph) -> Vec<Staged<BoruvkaMst, 1>> {
        let n = dist.n();
        assert!(
            dist.locals().iter().all(LocalGraph::is_weighted),
            "Borůvka needs a weighted distributed input"
        );
        dist.into_locals()
            .into_iter()
            .map(|lg| {
                Staged::new(BoruvkaMst {
                    n,
                    lg,
                    labels: (0..n as Vertex).collect(),
                    proxy_best: BTreeMap::new(),
                    phase_chosen: Vec::new(),
                    forest: Vec::new(),
                    phases: 0,
                })
            })
            .collect()
    }

    /// Gather half: compute per-component best candidates over my
    /// vertices and route them to the components' proxy machines.
    /// Returns the number of candidates produced (global zero ⇒ the
    /// forest is complete).
    fn gather(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<MstMsg>, parity: bool) -> u64 {
        let mut best: BTreeMap<Vertex, Cand> = BTreeMap::new();
        for (j, &v) in self.lg.vertices().iter().enumerate() {
            let lv = find_root(&mut self.labels, v);
            for (&u, &w) in self.lg.neighbors(j).iter().zip(self.lg.neighbor_weights(j)) {
                if find_root(&mut self.labels, u) == lv {
                    continue;
                }
                let cand = Cand {
                    w,
                    e: Edge::new(v, u),
                };
                match best.get(&lv) {
                    Some(b) if b.better_than(&cand) => {}
                    _ => {
                        best.insert(lv, cand);
                    }
                }
            }
        }
        let produced = best.len() as u64;
        for (comp, cand) in best {
            let proxy =
                (keyed_hash(ctx.shared_seed ^ 0x4D57_0001, comp as u64) % ctx.k as u64) as usize;
            if proxy == ctx.me {
                self.absorb_candidate(comp, cand);
            } else {
                out.send(
                    proxy,
                    MstMsg::candidate(self.n, parity, comp, cand.e, cand.w),
                );
            }
        }
        self.phases += 1;
        produced
    }

    fn absorb_candidate(&mut self, comp: Vertex, cand: Cand) {
        match self.proxy_best.get(&comp) {
            Some(b) if b.better_than(&cand) => {}
            _ => {
                self.proxy_best.insert(comp, cand);
            }
        }
    }

    /// Scatter half: broadcast the per-component winners.
    fn scatter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<MstMsg>, parity: bool) {
        let winners = std::mem::take(&mut self.proxy_best);
        for (_, cand) in winners {
            self.phase_chosen.push((cand.e, cand.w));
            out.broadcast(ctx.me, MstMsg::chosen(self.n, parity, cand.e, cand.w));
        }
    }

    /// Applies the phase's chosen edges in edge order: the same unions,
    /// and so the same forest, on every machine.
    fn contract(&mut self) {
        let mut chosen = std::mem::take(&mut self.phase_chosen);
        chosen.sort_by_key(|a| a.0);
        chosen.dedup_by(|a, b| a.0 == b.0);
        for (e, w) in chosen {
            let ru = find_root(&mut self.labels, e.u);
            let rv = find_root(&mut self.labels, e.v);
            if ru != rv {
                // Hook the larger root under the smaller, so every root
                // stays its component's smallest id.
                let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
                self.labels[hi as usize] = lo;
                self.forest.push((e, w));
            }
        }
    }

    /// Total forest weight.
    pub fn forest_weight(&self) -> f64 {
        self.forest.iter().map(|&(_, w)| w).sum()
    }
}

/// The gather flush carries the candidates produced; scatter's counter
/// is unused.
impl Stages<1> for BoruvkaMst {
    type Msg = MstMsg;

    fn tag(msg: &MstMsg) -> u8 {
        u8::from(msg.parity)
    }

    fn flush(&self, tag: u8, [produced]: [u64; 1]) -> MstMsg {
        MstMsg::flush(tag == 1, produced)
    }

    fn apply(
        &mut self,
        _ctx: &mut RoundCtx<'_>,
        _src: MachineIdx,
        msg: MstMsg,
    ) -> Option<[u64; 1]> {
        match msg.payload {
            MstPayload::Candidate { comp, e, w } => self.absorb_candidate(comp, Cand { w, e }),
            MstPayload::Chosen { e, w } => self.phase_chosen.push((e, w)),
            MstPayload::Flush { produced } => return Some([produced]),
        }
        None
    }

    fn enter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<MstMsg>, tag: u8) -> [u64; 1] {
        let parity = tag == 1;
        if tag == GATHER {
            [self.gather(ctx, out, parity)]
        } else {
            self.scatter(ctx, out, parity);
            [0]
        }
    }

    fn complete(&mut self, _ctx: &mut RoundCtx<'_>, tag: u8, [produced]: [u64; 1]) -> bool {
        if tag == GATHER {
            // Candidate barrier complete. If nobody produced a
            // candidate, the forest is final.
            produced > 0
        } else {
            // Choice barrier complete: contract; the next phase follows.
            self.contract();
            true
        }
    }
}

/// Distributed Borůvka as a [`KmAlgorithm`]: weighted graph + partition
/// in, `(sorted forest edges, total weight)` out.
#[derive(Debug, Clone, Copy)]
pub struct DistributedMst<'a> {
    /// The weighted input graph.
    pub g: &'a WeightedGraph,
    /// The vertex partition (its `k` must match the runner's).
    pub part: &'a Arc<Partition>,
}

impl KmAlgorithm for DistributedMst<'_> {
    type Machine = Staged<BoruvkaMst, 1>;
    type Output = (Vec<Edge>, f64);

    fn build(&self, k: usize) -> Vec<Staged<BoruvkaMst, 1>> {
        assert_eq!(self.part.k(), k, "partition k must match the network k");
        BoruvkaMst::build_all(DistGraphBuilder::new(self.part).weighted(self.g))
    }

    fn extract(
        &self,
        machines: Vec<Staged<BoruvkaMst, 1>>,
        _metrics: &Metrics,
    ) -> (Vec<Edge>, f64) {
        extract_forest(&machines)
    }
}

/// `(sorted forest edges, total weight)` as machine 0 holds them — the
/// output of both Borůvka adapters.
fn extract_forest(machines: &[Staged<BoruvkaMst, 1>]) -> (Vec<Edge>, f64) {
    let m0 = machines[0].inner();
    let mut edges: Vec<Edge> = m0.forest.iter().map(|&(e, _)| e).collect();
    edges.sort_unstable();
    // All machines agree on the forest, edge for edge: each applies the
    // same choices in the same order (their union-finds may differ in
    // how far they are compressed, never in their roots).
    for m in &machines[1..] {
        debug_assert_eq!(m.inner().forest, m0.forest);
    }
    (edges, m0.forest_weight())
}

/// Runs distributed Borůvka and returns `(forest edges, total weight,
/// metrics)`; the forest is identical on every machine. Thin wrapper
/// over [`run_algorithm`] with the default engine choice.
pub fn run_boruvka(
    g: &WeightedGraph,
    part: &Arc<Partition>,
    net: NetConfig,
) -> Result<(Vec<Edge>, f64, km_core::Metrics), km_core::EngineError> {
    let outcome = run_algorithm(&DistributedMst { g, part }, Runner::new(net))?;
    let (edges, weight) = outcome.output;
    Ok((edges, weight, outcome.metrics))
}

/// Distributed Borůvka over an already-distributed weighted input: the
/// streaming counterpart of [`DistributedMst`], for graphs ingested via
/// `km_graph::stream` where no global [`WeightedGraph`] ever exists.
#[derive(Debug, Clone, Copy)]
pub struct PrebuiltMst<'a> {
    /// The distributed weighted input (its `k` must match the runner's).
    pub dist: &'a DistGraph,
}

impl KmAlgorithm for PrebuiltMst<'_> {
    type Machine = Staged<BoruvkaMst, 1>;
    type Output = (Vec<Edge>, f64);

    fn build(&self, k: usize) -> Vec<Staged<BoruvkaMst, 1>> {
        assert_eq!(
            self.dist.k(),
            k,
            "distributed input k must match the network k"
        );
        BoruvkaMst::build_all(self.dist.clone())
    }

    fn extract(
        &self,
        machines: Vec<Staged<BoruvkaMst, 1>>,
        _metrics: &Metrics,
    ) -> (Vec<Edge>, f64) {
        extract_forest(&machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use km_graph::generators::classic::complete_weighted_random;
    use km_graph::generators::gnp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(k: usize, n: usize, seed: u64) -> NetConfig {
        NetConfig::polylog(k, n, seed).max_rounds(5_000_000)
    }

    fn random_weighted_gnp(n: usize, p: f64, rng: &mut ChaCha8Rng) -> WeightedGraph {
        use rand::Rng;
        let g = gnp(n, p, rng);
        let edges: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
        let weights: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
        WeightedGraph::from_weighted_edges(n, &edges, &weights).unwrap()
    }

    #[test]
    fn kruskal_on_triangle_plus_pendant() {
        let g = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1), (1, 2), (0, 2), (2, 3)],
            &[1.0, 2.0, 3.0, 0.5],
        )
        .unwrap();
        let (edges, w) = kruskal(&g);
        assert_eq!(
            edges,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]
        );
        assert!((w - 3.5).abs() < 1e-12);
    }

    #[test]
    fn boruvka_matches_kruskal_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for (n, p, k) in [(30usize, 0.3, 4usize), (50, 0.15, 8), (40, 0.5, 5)] {
            let g = random_weighted_gnp(n, p, &mut rng);
            let part = Arc::new(Partition::by_hash(n, k, 3));
            let (edges, w, _) = run_boruvka(&g, &part, net(k, n, 7)).unwrap();
            let (want_edges, want_w) = kruskal(&g);
            assert_eq!(edges, want_edges, "n={n} p={p} k={k}");
            assert!((w - want_w).abs() < 1e-9);
        }
    }

    #[test]
    fn mst_of_complete_random_weights() {
        // The paper's MST lower-bound family (footnote 6).
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 24;
        let g = complete_weighted_random(n, &mut rng).unwrap();
        let part = Arc::new(Partition::by_hash(n, 6, 1));
        let (edges, w, metrics) = run_boruvka(&g, &part, net(6, n, 13)).unwrap();
        assert_eq!(edges.len(), n - 1, "spanning tree of a connected graph");
        let (_, want_w) = kruskal(&g);
        assert!((w - want_w).abs() < 1e-9);
        assert!(metrics.rounds > 0);
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        // Two components: 0-1-2 and 3-4.
        let g = WeightedGraph::from_weighted_edges(5, &[(0, 1), (1, 2), (3, 4)], &[1.0, 2.0, 3.0])
            .unwrap();
        let part = Arc::new(Partition::by_hash(5, 3, 2));
        let (edges, w, _) = run_boruvka(&g, &part, net(3, 5, 3)).unwrap();
        assert_eq!(edges.len(), 3);
        assert!((w - 6.0).abs() < 1e-12);
    }

    #[test]
    fn edgeless_graph_terminates_immediately() {
        let g = WeightedGraph::from_weighted_edges(6, &[], &[]).unwrap();
        let part = Arc::new(Partition::by_hash(6, 3, 2));
        let (edges, w, _) = run_boruvka(&g, &part, net(3, 6, 4)).unwrap();
        assert!(edges.is_empty());
        assert_eq!(w, 0.0);
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let n = 64;
        let g = random_weighted_gnp(n, 0.3, &mut rng);
        let part = Arc::new(Partition::by_hash(n, 4, 9));
        let machines = BoruvkaMst::build_all(DistGraphBuilder::new(&part).weighted(&g));
        let report = Runner::new(net(4, n, 21)).run(machines).unwrap();
        // Components at least halve per phase: ≤ log2(n) + 1 phases
        // (+1 for the final empty phase that detects termination).
        assert!(
            report.machines[0].inner().phases <= 8,
            "phases {}",
            report.machines[0].inner().phases
        );
    }

    /// `v`'s component label as machine `m` holds it.
    fn label_of(m: &BoruvkaMst, v: Vertex) -> Vertex {
        find_root(&mut m.labels.clone(), v)
    }

    /// The smallest vertex id in every vertex's component of `forest`,
    /// by relaxation to a fixpoint (no union-find, so no shared bug).
    fn min_ids(n: usize, forest: &[(Edge, f64)]) -> Vec<Vertex> {
        let mut min: Vec<Vertex> = (0..n as Vertex).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &(e, _) in forest {
                let m = min[e.u as usize].min(min[e.v as usize]);
                for x in [e.u, e.v] {
                    if min[x as usize] != m {
                        min[x as usize] = m;
                        changed = true;
                    }
                }
            }
        }
        min
    }

    fn assert_min_labels(machines: &[BoruvkaMst]) {
        let n = machines[0].n;
        for (i, m) in machines.iter().enumerate() {
            let want = min_ids(n, &m.forest);
            for v in 0..n as Vertex {
                assert_eq!(label_of(m, v), want[v as usize], "machine {i}, vertex {v}");
            }
        }
    }

    /// Runs the protocol's halves by hand, every message delivered at
    /// once, and checks every machine's labels after each contraction.
    fn drive_phases(g: &WeightedGraph, part: &Arc<Partition>, shared_seed: u64) -> Vec<BoruvkaMst> {
        let k = part.k();
        let mut machines: Vec<BoruvkaMst> =
            BoruvkaMst::build_all(DistGraphBuilder::new(part).weighted(g))
                .into_iter()
                .map(Staged::into_inner)
                .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        loop {
            let mut produced = 0;
            let mut sent = Vec::new();
            for (me, m) in machines.iter_mut().enumerate() {
                let mut ctx = RoundCtx {
                    round: 0,
                    me,
                    k,
                    bandwidth_bits: 64,
                    shared_seed,
                    rng: &mut rng,
                };
                let mut out = Outbox::new(k);
                produced += m.gather(&mut ctx, &mut out, false);
                sent.extend(out.drain());
            }
            for (dst, msg) in sent.drain(..) {
                let MstPayload::Candidate { comp, e, w } = msg.payload else {
                    panic!("gather sends candidates only");
                };
                machines[dst].absorb_candidate(comp, Cand { w, e });
            }
            if produced == 0 {
                return machines;
            }
            for (me, m) in machines.iter_mut().enumerate() {
                let mut ctx = RoundCtx {
                    round: 0,
                    me,
                    k,
                    bandwidth_bits: 64,
                    shared_seed,
                    rng: &mut rng,
                };
                let mut out = Outbox::new(k);
                m.scatter(&mut ctx, &mut out, true);
                sent.extend(out.drain());
            }
            for (dst, msg) in sent {
                let MstPayload::Chosen { e, w } = msg.payload else {
                    panic!("scatter sends choices only");
                };
                machines[dst].phase_chosen.push((e, w));
            }
            for m in &mut machines {
                m.contract();
            }
            assert_min_labels(&machines);
        }
    }

    proptest::proptest! {
        /// Weights from {0, 1, 2} make `Cand::better_than`'s edge
        /// tie-break decide most choices; random endpoints over up to 24
        /// vertices leave isolated vertices and several components, and
        /// k runs past n. Every machine ends with Kruskal's forest, and
        /// after every phase each label is its component's smallest id.
        #[test]
        fn boruvka_with_ties_keeps_min_labels_and_ends_at_kruskal(
            n in 1usize..=24,
            raw in proptest::collection::vec((0u32..24, 0u32..24, 0u8..3), 0..60),
            k in 1usize..=20,
            seed in 0u64..1_000,
        ) {
            let n32 = n as u32;
            let edges: Vec<(Vertex, Vertex)> = raw.iter().map(|&(a, b, _)| (a % n32, b % n32)).collect();
            let weights: Vec<f64> = raw.iter().map(|&(_, _, w)| f64::from(w)).collect();
            let g = WeightedGraph::from_weighted_edges(n, &edges, &weights).unwrap();
            let (want_edges, want_w) = kruskal(&g);
            let part = Arc::new(Partition::by_hash(n, k, seed));

            let by_hand = drive_phases(&g, &part, seed);
            let machines = BoruvkaMst::build_all(DistGraphBuilder::new(&part).weighted(&g));
            let report = Runner::new(net(k, n, seed)).run(machines).unwrap();
            let engine: Vec<BoruvkaMst> = report.machines.into_iter().map(Staged::into_inner).collect();
            assert_min_labels(&engine);
            for m in by_hand.iter().chain(&engine) {
                assert_eq!(&m.forest, &by_hand[0].forest);
            }
            let mut got: Vec<Edge> = by_hand[0].forest.iter().map(|&(e, _)| e).collect();
            got.sort_unstable();
            assert_eq!(got, want_edges);
            // Small integer weights: every sum is exact.
            assert_eq!(by_hand[0].forest_weight(), want_w);
        }

        #[test]
        fn mst_msgs_roundtrip_the_wire(
            n in 2usize..1_000_000,
            a in 0u32..1_000_000,
            b in 0u32..1_000_000,
            w in -1.0e12f64..1.0e12,
            produced in 0u64..(1 << 32),
            parity in 0u8..2,
        ) {
            let parity = parity != 0;
            let n32 = n as u32;
            let (a, b) = (a % n32, b % n32);
            let e = if a == b {
                Edge::new(a, (a + 1) % n32.max(2))
            } else {
                Edge::new(a, b)
            };
            km_core::assert_roundtrip(&MstMsg::candidate(n, parity, a % n32, e, w));
            km_core::assert_roundtrip(&MstMsg::chosen(n, parity, e, w));
            km_core::assert_roundtrip(&MstMsg::flush(parity, produced));
        }
    }
}
