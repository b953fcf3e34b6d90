//! **Algorithm 1**: distributed PageRank in `O~(n/k²)` rounds (Theorem 4).
//!
//! Each machine holds a token counter per hosted vertex. Per iteration:
//!
//! 1. every token dies with probability `ε` (and at dangling vertices):
//!    one `Binomial(t, ε)` draw per vertex holding `t` tokens;
//! 2. **light** vertices (`< k` tokens): the machine samples a uniform
//!    out-neighbor per token and aggregates counts *across all its hosted
//!    light vertices* into one `⟨α[v], dest:v⟩` message per destination
//!    vertex (lines 8–16 of Algorithm 1) — so any vertex receives at most
//!    `k−1` messages per iteration no matter its degree;
//! 3. **heavy** vertices (`≥ k` tokens): the machine draws the whole
//!    vector `β` at once from the multinomial over `(n₁ᵤ/dᵤ, …, n_kᵤ/dᵤ)`
//!    and sends one `⟨β[j], src:u⟩` count per machine (lines 18–27); the
//!    receiver splits each count uniformly over its hosted out-neighbors
//!    of `u` (lines 31–36), again as one multinomial draw — none at all
//!    when it hosts a single one.
//!
//! **Sampling moves counts, not tokens.** The paper's messages are
//! counts, so the sampler draws counts: `t` independent `ε`-coins have
//! `Binomial(t, ε)` heads, and `t` independent picks from a distribution
//! `q` have `Multinomial(t; q)` tallies — which `multinomial` draws as
//! conditional binomials, cell by cell. The joint law of every `α`, `β`
//! and visit counter is therefore exactly that of the token-by-token
//! walk; only the number of RNG draws behind it differs (per vertex, not
//! per token, on the heavy path that carries most tokens).
//!
//! **Per-step work.** Everything the step reads about the input is
//! static and built once: the machine histogram `(n₁ᵤ, …, n_kᵤ)` of
//! every hosted vertex (at most one 8-byte `(count, machine)` entry per
//! out-arc, ascending in machine), and the receiver index behind
//! [`LocalGraph::host_targets`], which finds a `Heavy` count's hosted
//! targets in one small bucket. A step is then one binomial per vertex
//! holding tokens, one `gen_range` per light token plus a sort of the
//! picks, and one multinomial per heavy vertex over a slice of its
//! histogram; each `Heavy` count received costs one index lookup and a
//! multinomial over its targets (no draw for one target).
//!
//! Destinations of light messages are home machines of vertices, which
//! under the random vertex partition are i.i.d. uniform — exactly the
//! hypothesis of Lemma 13, so direct routing delivers each iteration in
//! `O~(n/k²)` rounds. (The paper invokes randomized routing here; under
//! RVP the destination machines are already uniform, which is what the
//! routing lemma needs.)
//!
//! **Synchronization.** Iterations are separated by a FIFO *flush
//! barrier*: after its sends, each machine broadcasts a `Flush` carrying
//! the number of tokens that survived its step. Since links are FIFO, a
//! machine that has received flushes from everyone has received all of
//! the iteration's data. The flush values also yield the exact global
//! count of live tokens, so the protocol terminates precisely when no
//! token survives anywhere — no iteration bound needs to be guessed.
//! Machines can drift by at most one iteration, so a single parity bit
//! per message disambiguates; the loop itself is [`Staged`]'s, with one
//! iteration per stage.

use crate::PrConfig;
use km_core::router::{Staged, Stages};
use km_core::{
    id_bits, run_algorithm, BitReader, BitSink, CodecError, KmAlgorithm, MachineIdx, Metrics,
    NetConfig, Outbox, RoundCtx, Runner, WireCodec,
};
use km_graph::{DiGraph, DistGraph, DistGraphBuilder, LocalGraph, Partition, Vertex};
use rand::Rng;
use std::sync::Arc;

/// Message payload of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrPayload {
    /// `⟨α[v], dest:v⟩` — `count` tokens moving to vertex `v` (light path,
    /// aggregated across all the sender's light vertices).
    Count {
        /// Destination vertex.
        v: Vertex,
        /// Number of tokens.
        count: u64,
    },
    /// `⟨β[j], src:u⟩` — `count` tokens leaving heavy vertex `u` for
    /// out-neighbors hosted at the receiving machine.
    Heavy {
        /// The heavy source vertex.
        u: Vertex,
        /// Number of tokens.
        count: u64,
    },
    /// Flush barrier: the sender finished its step for this iteration and
    /// produced `live` surviving tokens.
    Flush {
        /// Tokens surviving the sender's step.
        live: u64,
    },
}

/// A parity-tagged message of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrMsg {
    /// Iteration parity (machines drift by ≤ 1 iteration).
    pub parity: bool,
    /// The payload.
    pub payload: PrPayload,
    /// Vertex-id width, `id_bits(n)` (0 for a `Flush`, which has none).
    idb: u8,
}

impl PrMsg {
    pub(crate) fn count(n: usize, parity: bool, v: Vertex, count: u64) -> Self {
        PrMsg {
            parity,
            payload: PrPayload::Count { v, count },
            idb: id_bits(n) as u8,
        }
    }
    pub(crate) fn heavy(n: usize, parity: bool, u: Vertex, count: u64) -> Self {
        PrMsg {
            parity,
            payload: PrPayload::Heavy { u, count },
            idb: id_bits(n) as u8,
        }
    }
    pub(crate) fn flush(parity: bool, live: u64) -> Self {
        PrMsg {
            parity,
            payload: PrPayload::Flush { live },
            idb: 0,
        }
    }
}

/// Layout: parity (1) · tag (1) · body. A `Flush` body is a bare 32-bit
/// live-token counter (34 bits total); `Count`/`Heavy` carry a vertex id
/// in `id_bits(n)` bits plus a 32-bit count, and the decoder recovers the
/// id width as `remaining − 32` — `id_bits ≥ 1`, so the two shapes can
/// never collide at 34 bits.
impl WireCodec for PrMsg {
    fn encode<S: BitSink>(&self, w: &mut S) {
        let idb = u32::from(self.idb);
        w.put(u64::from(self.parity), 1);
        match self.payload {
            PrPayload::Count { v, count } => {
                w.put(0, 1);
                w.put(u64::from(v), idb);
                w.put(count, 32);
            }
            PrPayload::Heavy { u, count } => {
                w.put(1, 1);
                w.put(u64::from(u), idb);
                w.put(count, 32);
            }
            PrPayload::Flush { live } => {
                w.put(0, 1);
                w.put(live, 32);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let parity = r.take(1)? != 0;
        let tag = r.take(1)?;
        let (payload, idb) = match r.remaining() {
            32 => {
                if tag != 0 {
                    return Err(CodecError::Invalid {
                        what: "flush tag bit",
                        value: tag,
                    });
                }
                (PrPayload::Flush { live: r.take(32)? }, 0)
            }
            rem => {
                // id width: 1..=32 (vertex ids are u32).
                if !(33..=64).contains(&rem) {
                    return Err(CodecError::Invalid {
                        what: "pagerank message body width",
                        value: rem,
                    });
                }
                let idb = (rem - 32) as u8;
                let vertex = r.take(u32::from(idb))? as Vertex;
                let count = r.take(32)?;
                let payload = if tag == 0 {
                    PrPayload::Count { v: vertex, count }
                } else {
                    PrPayload::Heavy { u: vertex, count }
                };
                (payload, idb)
            }
        };
        Ok(PrMsg {
            parity,
            payload,
            idb,
        })
    }
}

/// Trials one inversion walk covers. With `p ≤ ½` its starting mass
/// `(1−p)ⁿ` is at least `2⁻⁵¹²`, far inside `f64`'s range, so hubs
/// holding tens of thousands of tokens never underflow it.
const INVERSION_CHUNK: u64 = 512;

/// Exact Binomial(`trials`, `p`) sample by chunked inversion.
///
/// A vertex's `t` tokens each die with probability `ε`; only the *number*
/// that die matters, and that number is `Binomial(t, ε)`. One uniform per
/// chunk of at most [`INVERSION_CHUNK`] trials walks the chunk's cdf up
/// from zero — `≈ np + 1` steps — and the chunks' independent counts add
/// up to the whole binomial. `p > ½` counts failures instead, which keeps
/// both the walk short and the starting mass large.
pub(crate) fn binomial<R: Rng>(rng: &mut R, trials: u64, p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "binomial: p not in [0, 1]: {p}");
    if p > 0.5 {
        return trials - binomial(rng, trials, 1.0 - p);
    }
    if p <= 0.0 {
        return 0;
    }
    let odds = p / (1.0 - p);
    let mut hits = 0;
    let mut left = trials;
    while left > 0 {
        let n = left.min(INVERSION_CHUNK);
        left -= n;
        let mut mass = (1.0 - p).powi(n as i32);
        let mut u: f64 = rng.gen();
        let mut x = 0;
        while u >= mass && x < n {
            u -= mass;
            x += 1;
            mass *= odds * (n - x + 1) as f64 / x as f64;
        }
        hits += x;
    }
    hits
}

/// One `Multinomial(total; w₁/W, …)` draw over cells of integer
/// `weights` summing to `weight_sum`, as conditional binomials: each cell
/// takes `Binomial(left, wᵢ / weight left)` of what the cells before it
/// left over, and the last cell with weight takes the rest without a
/// draw. `sink` gets `(cell, share)` for every non-zero share, in cell
/// order; a zero-weight cell never gets one.
pub(crate) fn multinomial<R: Rng>(
    rng: &mut R,
    total: u64,
    weights: impl IntoIterator<Item = u64>,
    weight_sum: u64,
    mut sink: impl FnMut(usize, u64),
) {
    let (mut left, mut weight_left) = (total, weight_sum);
    for (cell, w) in weights.into_iter().enumerate() {
        if left == 0 {
            break;
        }
        let share = if w == weight_left {
            left
        } else {
            binomial(rng, left, w as f64 / weight_left as f64)
        };
        weight_left -= w;
        left -= share;
        if share > 0 {
            sink(cell, share);
        }
    }
    debug_assert_eq!(left, 0, "weights must sum to weight_sum");
}

/// The per-machine state shared by Algorithm 1 and the CONGEST baseline:
/// the shared graph-state layer ([`LocalGraph`]: hosted vertices,
/// global↔local index, out-adjacency, receiver-side `host_targets`) plus
/// the token and visit counters.
#[derive(Debug)]
pub(crate) struct LocalState {
    /// This machine's RVP input.
    pub g: LocalGraph,
    /// Current tokens per local vertex.
    pub tokens: Vec<u64>,
    /// Visit counts ψ per local vertex.
    pub visits: Vec<u64>,
}

impl LocalState {
    /// Builds the local state of every machine from the distributed
    /// directed input — machine `i` sees only what RVP gives it (its
    /// vertices, their out-edges and in-edges) plus the shared hash
    /// function.
    pub fn build_all(dist: DistGraph, cfg: &PrConfig) -> Vec<LocalState> {
        dist.into_locals()
            .into_iter()
            .map(|lg| {
                let hosted = lg.hosted();
                LocalState {
                    g: lg,
                    tokens: vec![cfg.tokens_per_vertex; hosted],
                    visits: vec![cfg.tokens_per_vertex; hosted],
                }
            })
            .collect()
    }

    /// Receives `count` tokens addressed to vertex `v` (must be hosted).
    pub fn arrive_at_vertex(&mut self, v: Vertex, count: u64) {
        let j = self
            .g
            .local(v)
            // lint: allow(panic) — Count messages are only ever addressed to home(v)
            .expect("Count message for a non-hosted vertex");
        self.tokens[j] += count;
        self.visits[j] += count;
    }

    /// Receives `count` tokens from heavy vertex `u`, split uniformly over
    /// the hosted out-neighbors of `u` (lines 31–36 of Algorithm 1).
    pub fn arrive_from_heavy<R: Rng>(&mut self, rng: &mut R, u: Vertex, count: u64) {
        let LocalState { g, tokens, visits } = self;
        forward_heavy(g, rng, u, count, |j, c| {
            tokens[j] += c;
            visits[j] += c;
        });
    }

    /// Total tokens currently held.
    pub fn held_tokens(&self) -> u64 {
        self.tokens.iter().sum()
    }
}

/// Splits `count` tokens leaving heavy vertex `u` uniformly over the
/// out-neighbors of `u` hosted on `g`'s machine, handing `sink` the
/// `(local index, tokens)` shares — the receiver's half of the heavy path,
/// which the sender also runs on its own share. A single hosted
/// out-neighbor takes the whole count and costs no draw.
fn forward_heavy<R: Rng>(
    g: &LocalGraph,
    rng: &mut R,
    u: Vertex,
    count: u64,
    mut sink: impl FnMut(usize, u64),
) {
    let targets = g
        .host_targets(u)
        // lint: allow(panic) — a Heavy count only ever goes to a machine hosting an out-neighbor of u
        .expect("Heavy count but no hosted out-neighbor of u");
    let cells = targets.len();
    multinomial(
        rng,
        count,
        std::iter::repeat_n(1, cells),
        cells as u64,
        |i, share| sink(targets[i] as usize, share),
    );
}

/// Fills `hist` with a vertex's machine histogram `(n₁ᵤ, …, n_kᵤ)` over
/// its out-neighbors `outs`: one `(out-neighbors hosted, machine)` entry
/// per machine hosting any, ascending in machine.
fn machine_histogram(g: &LocalGraph, outs: &[Vertex], hist: &mut Vec<(u64, MachineIdx)>) {
    hist.clear();
    hist.extend(outs.iter().map(|&v| (1, g.home(v))));
    hist.sort_unstable_by_key(|&(_, m)| m);
    hist.dedup_by(|later, kept| {
        let same = later.1 == kept.1;
        if same {
            kept.0 += later.0;
        }
        same
    });
}

/// Every hosted vertex's machine histogram, built once from the static
/// RVP input: local vertex `j`'s `(count, machine)` entries, ascending
/// in machine as [`machine_histogram`] gives them, are
/// `cells[offsets[j]..offsets[j + 1]]`. Eight bytes per entry, and at
/// most one entry per out-arc.
#[derive(Debug)]
struct Histograms {
    offsets: Vec<u32>,
    cells: Vec<(u32, u32)>,
}

impl Histograms {
    /// # Panics
    /// Panics if the machine stores `u32::MAX` out-arcs or more.
    fn build(g: &LocalGraph) -> Self {
        assert!(
            g.edge_endpoints() < u32::MAX as usize,
            "machine {} exceeds u32 out-arcs",
            g.machine()
        );
        let mut offsets = Vec::with_capacity(g.hosted() + 1);
        offsets.push(0);
        let mut cells = Vec::with_capacity(g.edge_endpoints());
        let mut hist = Vec::new();
        for j in 0..g.hosted() {
            machine_histogram(g, g.neighbors(j), &mut hist);
            cells.extend(hist.iter().map(|&(c, m)| (c as u32, m as u32)));
            offsets.push(cells.len() as u32);
        }
        cells.shrink_to_fit();
        Histograms { offsets, cells }
    }

    /// Local vertex `j`'s histogram.
    #[inline]
    fn of(&self, j: usize) -> &[(u32, u32)] {
        &self.cells[self.offsets[j] as usize..self.offsets[j + 1] as usize]
    }
}

/// One machine of Algorithm 1.
#[derive(Debug)]
pub struct KmPageRank {
    st: LocalState,
    /// The heavy path's machine histograms, one per hosted vertex.
    hists: Histograms,
    cfg: PrConfig,
    /// Token threshold above which a vertex takes the heavy (β) path;
    /// the paper uses `k`. `u64::MAX` disables the heavy path entirely —
    /// the ablation knob for the T4 design-choice experiment.
    heavy_threshold: u64,
    /// Iterations this machine has executed (for diagnostics).
    pub iterations: u64,
}

impl KmPageRank {
    /// Builds one protocol instance per machine from the distributed
    /// directed input (heavy threshold = `k`, the paper's choice).
    pub fn build_all(dist: DistGraph, cfg: PrConfig) -> Vec<Staged<KmPageRank, 1>> {
        let k = dist.k() as u64;
        Self::build_all_with_threshold(dist, cfg, k)
    }

    /// Builds instances with an explicit heavy threshold (ablations).
    pub fn build_all_with_threshold(
        dist: DistGraph,
        cfg: PrConfig,
        heavy_threshold: u64,
    ) -> Vec<Staged<KmPageRank, 1>> {
        LocalState::build_all(dist, &cfg)
            .into_iter()
            .map(|st| {
                Staged::new(KmPageRank {
                    hists: Histograms::build(&st.g),
                    st,
                    cfg,
                    heavy_threshold,
                    iterations: 0,
                })
            })
            .collect()
    }

    /// This machine's output: `(vertex, PageRank estimate)` for every
    /// hosted vertex.
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

    /// Raw visit counters (for conservation tests).
    pub fn visits(&self) -> impl Iterator<Item = (Vertex, u64)> + '_ {
        self.st
            .g
            .vertices()
            .iter()
            .copied()
            .zip(self.st.visits.iter().copied())
    }

    /// Tokens still held locally (zero after a completed run).
    pub fn held_tokens(&self) -> u64 {
        self.st.held_tokens()
    }

    /// Runs one iteration step: termination sampling, light α-aggregation,
    /// heavy β-distribution. Returns the number of surviving tokens.
    ///
    /// How many RNG draws a step makes is part of the transcript: it is
    /// the same on every engine, and changing it re-pins the tables that
    /// run this protocol.
    fn step(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<PrMsg>, parity: bool) -> u64 {
        let me = ctx.me;
        let LocalState { g, tokens, visits } = &mut self.st;
        let n = g.global_n();
        let eps = self.cfg.reset_prob;
        let mut survivors_total: u64 = 0;
        // Scratch lives for one step: retained in the machine it would be
        // `k` resident copies of the run's largest step. `picks` is α before
        // counting — one destination vertex per light token.
        let mut picks: Vec<Vertex> = Vec::new();
        // Locally-arriving tokens are staged so a token moves once per step.
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
                continue; // dangling vertex: survivors terminate too
            }
            survivors_total += live;
            if live < self.heavy_threshold {
                // Light: per-token uniform neighbor, aggregated into α.
                for _ in 0..live {
                    picks.push(outs[ctx.rng.gen_range(0..outs.len())]);
                }
            } else {
                // Heavy: β ~ Multinomial(live; n_{j,u}/d_u), one message
                // per machine, ascending.
                let u = g.vertex(j);
                let hist = self.hists.of(j);
                let mut own = 0;
                multinomial(
                    ctx.rng,
                    live,
                    hist.iter().map(|&(c, _)| u64::from(c)),
                    outs.len() as u64,
                    |cell, share| {
                        let m = hist[cell].1 as MachineIdx;
                        if m == me {
                            own = share;
                        } else {
                            out.send(m, PrMsg::heavy(n, parity, u, share));
                        }
                    },
                );
                if own > 0 {
                    forward_heavy(g, ctx.rng, u, own, |tj, c| staged_local.push((tj, c)));
                }
            }
        }

        // Emit α messages (or deliver locally), ascending in `v`: the
        // deterministic order replayable transcripts need.
        picks.sort_unstable();
        for run in picks.chunk_by(|a, b| a == b) {
            let (v, c) = (run[0], run.len() as u64);
            match g.local(v) {
                Some(j) => staged_local.push((j, c)),
                None => out.send(g.home(v), PrMsg::count(n, parity, v, c)),
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

/// One iteration per stage; the flush counter is the sender's surviving
/// tokens, so the barrier total is the exact global live count.
impl Stages<1> for KmPageRank {
    type Msg = PrMsg;

    fn tag(msg: &PrMsg) -> u8 {
        u8::from(msg.parity)
    }

    fn flush(&self, tag: u8, [live]: [u64; 1]) -> PrMsg {
        PrMsg::flush(tag == 1, live)
    }

    fn apply(&mut self, ctx: &mut RoundCtx<'_>, _src: MachineIdx, msg: PrMsg) -> Option<[u64; 1]> {
        match msg.payload {
            PrPayload::Count { v, count } => self.st.arrive_at_vertex(v, count),
            PrPayload::Heavy { u, count } => self.st.arrive_from_heavy(ctx.rng, u, count),
            PrPayload::Flush { live } => return Some([live]),
        }
        None
    }

    fn enter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<PrMsg>, tag: u8) -> [u64; 1] {
        [self.step(ctx, out, tag == 1)]
    }

    /// Terminates precisely when no token survived anywhere.
    fn complete(&mut self, _ctx: &mut RoundCtx<'_>, _tag: u8, [live]: [u64; 1]) -> bool {
        live > 0
    }
}

/// The global result of a distributed PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PrOutput {
    /// `(vertex, estimate)` pairs output by one machine.
    pub estimates: Vec<(Vertex, f64)>,
}

/// Algorithm 1 as a [`KmAlgorithm`]: digraph + partition + `PrConfig`
/// in, the assembled PageRank vector (indexed by vertex) out.
#[derive(Debug, Clone, Copy)]
pub struct DistributedPageRank<'a> {
    /// The input digraph.
    pub g: &'a DiGraph,
    /// The vertex partition (its `k` must match the runner's).
    pub part: &'a Arc<Partition>,
    /// Token parameters.
    pub cfg: PrConfig,
    /// Heavy-path threshold; `None` uses the paper's `k`. (`u64::MAX`
    /// disables the heavy path — the ablation knob.)
    pub heavy_threshold: Option<u64>,
}

impl<'a> DistributedPageRank<'a> {
    /// An instance with the paper's heavy threshold (`k`).
    pub fn new(g: &'a DiGraph, part: &'a Arc<Partition>, cfg: PrConfig) -> Self {
        DistributedPageRank {
            g,
            part,
            cfg,
            heavy_threshold: None,
        }
    }
}

impl KmAlgorithm for DistributedPageRank<'_> {
    type Machine = Staged<KmPageRank, 1>;
    type Output = Vec<f64>;

    fn build(&self, k: usize) -> Vec<Staged<KmPageRank, 1>> {
        assert_eq!(self.part.k(), k, "partition k must match the network k");
        let dist = DistGraphBuilder::new(self.part).directed(self.g);
        let heavy = self.heavy_threshold.unwrap_or(k as u64);
        KmPageRank::build_all_with_threshold(dist, self.cfg, heavy)
    }

    fn extract(&self, machines: Vec<Staged<KmPageRank, 1>>, _metrics: &Metrics) -> Vec<f64> {
        extract_pagerank(&machines, self.g.n())
    }
}

/// Assembles the machines' per-vertex estimates into the PageRank
/// vector of an `n`-vertex input — shared by both PageRank adapters.
fn extract_pagerank(machines: &[Staged<KmPageRank, 1>], n: usize) -> Vec<f64> {
    let mut pr = vec![0.0; n];
    for m in machines {
        for (v, est) in m.inner().output().estimates {
            pr[v as usize] = est;
        }
    }
    pr
}

/// Runs Algorithm 1 end to end and returns the assembled PageRank vector
/// plus transcript metrics. Thin wrapper over [`run_algorithm`] with the
/// default engine choice.
pub fn run_kmachine_pagerank(
    g: &DiGraph,
    part: &Arc<Partition>,
    cfg: PrConfig,
    net: NetConfig,
) -> Result<(Vec<f64>, km_core::Metrics), km_core::EngineError> {
    let outcome = run_algorithm(&DistributedPageRank::new(g, part, cfg), Runner::new(net))?;
    Ok((outcome.output, outcome.metrics))
}

/// Algorithm 1 over an already-distributed directed input: the streaming
/// counterpart of [`DistributedPageRank`], for graphs ingested via
/// `km_graph::stream` where no global [`DiGraph`] ever exists. Uses the
/// paper's heavy threshold (`k`).
#[derive(Debug, Clone, Copy)]
pub struct PrebuiltPageRank<'a> {
    /// The distributed directed input (its `k` must match the runner's).
    pub dist: &'a DistGraph,
    /// Token parameters.
    pub cfg: PrConfig,
}

impl KmAlgorithm for PrebuiltPageRank<'_> {
    type Machine = Staged<KmPageRank, 1>;
    type Output = Vec<f64>;

    fn build(&self, k: usize) -> Vec<Staged<KmPageRank, 1>> {
        assert_eq!(
            self.dist.k(),
            k,
            "distributed input k must match the network k"
        );
        KmPageRank::build_all(self.dist.clone(), self.cfg)
    }

    fn extract(&self, machines: Vec<Staged<KmPageRank, 1>>, _metrics: &Metrics) -> Vec<f64> {
        extract_pagerank(&machines, self.dist.n())
    }
}

/// Converts an undirected graph to the bidirected digraph all PageRank
/// entry points expect.
pub fn bidirect(g: &km_graph::CsrGraph) -> DiGraph {
    let arcs: Vec<(Vertex, Vertex)> = g.edges().flat_map(|e| [(e.u, e.v), (e.v, e.u)]).collect();
    DiGraph::from_arcs(g.n(), &arcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_iteration::power_iteration;
    use km_core::EngineKind;
    use km_graph::generators::lower_bound_h::LowerBoundGraph;
    use km_graph::generators::{classic, gnp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(k: usize, n: usize, seed: u64) -> NetConfig {
        NetConfig::polylog(k, n, seed).max_rounds(2_000_000)
    }

    fn dist(g: &DiGraph, part: &Arc<Partition>) -> DistGraph {
        DistGraphBuilder::new(part).directed(g)
    }

    /// Pearson's statistic of `observed` against `expected`, neighbouring
    /// cells pooled until each expects at least five, with its degrees of
    /// freedom.
    fn chi_square(observed: &[u64], expected: &[f64]) -> (f64, usize) {
        assert_eq!(observed.len(), expected.len());
        let mut cells: Vec<(f64, f64)> = Vec::new();
        let (mut o_acc, mut e_acc) = (0.0, 0.0);
        for (&o, &e) in observed.iter().zip(expected) {
            o_acc += o as f64;
            e_acc += e;
            if e_acc >= 5.0 {
                cells.push((o_acc, e_acc));
                (o_acc, e_acc) = (0.0, 0.0);
            }
        }
        match cells.last_mut() {
            Some(last) => {
                last.0 += o_acc;
                last.1 += e_acc;
            }
            None => cells.push((o_acc, e_acc)),
        }
        let stat = cells.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
        (stat, cells.len() - 1)
    }

    /// Upper 0.1 % point of χ² with `df` degrees of freedom
    /// (Wilson–Hilferty; a little generous at small `df`).
    fn chi_square_critical(df: usize) -> f64 {
        let v = 2.0 / (9.0 * df as f64);
        df as f64 * (1.0 - v + 3.09 * v.sqrt()).powi(3)
    }

    fn assert_fits(observed: &[u64], expected: &[f64], what: &str) {
        let (stat, df) = chi_square(observed, expected);
        assert!(df >= 1, "{what}: nothing to compare");
        let critical = chi_square_critical(df);
        assert!(
            stat < critical,
            "{what}: chi-square {stat:.1} ≥ {critical:.1} at {df} degrees of freedom"
        );
    }

    /// The exact Binomial(`n`, `p`) pmf over `0..=n`, by the log-space
    /// recurrence (no `q^n` to underflow at `n` = 30 000).
    fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
        let log_odds = (p / (1.0 - p)).ln();
        let mut log_mass = n as f64 * (1.0 - p).ln();
        let mut pmf = vec![log_mass.exp()];
        for x in 1..=n {
            log_mass += log_odds + ((n - x + 1) as f64 / x as f64).ln();
            pmf.push(log_mass.exp());
        }
        pmf
    }

    #[test]
    fn binomial_fits_the_exact_pmf() {
        const DRAWS: u64 = 20_000;
        let cases = [
            (1, 0.15),
            (15, 0.15),
            (63, 0.15),
            (63, 0.85),
            (5_000, 0.15),
            (30_000, 0.3),
        ];
        for (i, &(n, p)) in cases.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(100 + i as u64);
            let mut observed = vec![0u64; n as usize + 1];
            for _ in 0..DRAWS {
                observed[binomial(&mut rng, n, p) as usize] += 1;
            }
            let expected: Vec<f64> = binomial_pmf(n, p)
                .iter()
                .map(|&mass| mass * DRAWS as f64)
                .collect();
            assert_fits(&observed, &expected, &format!("Binomial({n}, {p})"));
        }
    }

    #[test]
    fn binomial_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for trials in [0, 1, 50, 513, 30_000] {
            assert_eq!(binomial(&mut rng, trials, 0.0), 0);
            assert_eq!(binomial(&mut rng, trials, 1.0), trials);
            assert_eq!(binomial(&mut rng, trials, 1.0 - f64::EPSILON), trials);
            assert!(binomial(&mut rng, trials, 0.5) <= trials);
        }
    }

    proptest::proptest! {
        #[test]
        fn multinomial_conserves_and_respects_zero_weights(
            weights in proptest::collection::vec(0u64..6, 1..9),
            total in 0u64..5_000,
            seed in 0u64..1_000_000,
        ) {
            let weight_sum: u64 = weights.iter().sum();
            proptest::prop_assume!(weight_sum > 0);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut shares = vec![0u64; weights.len()];
            multinomial(&mut rng, total, weights.iter().copied(), weight_sum, |cell, share| {
                assert!(share > 0, "the sink only sees non-zero shares");
                assert_eq!(shares[cell], 0, "one share per cell");
                shares[cell] = share;
            });
            proptest::prop_assert_eq!(shares.iter().sum::<u64>(), total);
            for (&w, &share) in weights.iter().zip(&shares) {
                if w == 0 {
                    proptest::prop_assert_eq!(share, 0, "zero-weight cell got tokens");
                }
                if w == weight_sum {
                    proptest::prop_assert_eq!(share, total, "the only weighted cell gets everything");
                }
            }
        }
    }

    /// `k = 2`, round-robin: heavy vertex 0 (machine 0) has five
    /// out-neighbors on machine 1 and two on its own machine; 6 and 8 are
    /// nobody's out-neighbor. Every other vertex is dangling.
    fn same_machine_fan() -> (DiGraph, Arc<Partition>) {
        let arcs: Vec<(Vertex, Vertex)> = [1, 3, 5, 7, 9, 2, 4].map(|v| (0, v)).to_vec();
        (
            DiGraph::from_arcs(10, &arcs),
            Arc::new(Partition::round_robin(10, 2)),
        )
    }

    #[test]
    fn heavy_count_splits_uniformly_over_same_machine_targets() {
        // The receiver's half on its own: one Heavy count, five targets.
        let (g, part) = same_machine_fan();
        let cfg = PrConfig {
            reset_prob: 0.15,
            tokens_per_vertex: 0,
        };
        let mut remote = LocalState::build_all(dist(&g, &part), &cfg).remove(1);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut sent = 0;
        for count in (0..4_000).map(|i| i % 23) {
            remote.arrive_from_heavy(&mut rng, 0, count);
            sent += count;
            assert_eq!(remote.held_tokens(), sent, "a Heavy count is conserved");
        }
        assert_eq!(remote.tokens, remote.visits);
        // Machine 1 hosts 1, 3, 5, 7, 9 and all five are targets of 0.
        assert_fits(&remote.tokens, &[sent as f64 / 5.0; 5], "receiver split");
    }

    #[test]
    fn heavy_vertex_reaches_every_out_neighbor_uniformly() {
        // Sender's β over two machines, its own two-target share and the
        // receiver's five-target split, end to end: vertex 0's survivors
        // land uniformly on its seven out-neighbors and nowhere else.
        let (g, part) = same_machine_fan();
        let cfg = PrConfig {
            reset_prob: 0.15,
            tokens_per_vertex: 40_000,
        };
        let machines = KmPageRank::build_all(dist(&g, &part), cfg);
        let report = Runner::new(net(2, 10, 9)).run(machines).unwrap();
        let mut arrived = [0u64; 10];
        for m in &report.machines {
            assert_eq!(m.inner().held_tokens(), 0);
            for (v, psi) in m.inner().visits() {
                arrived[v as usize] = psi - cfg.tokens_per_vertex;
            }
        }
        for v in [0, 6, 8] {
            assert_eq!(arrived[v], 0, "vertex {v} is nobody's out-neighbor");
        }
        let targets = [1, 2, 3, 4, 5, 7, 9].map(|v| arrived[v]);
        let survivors: u64 = targets.iter().sum();
        // Binomial(40 000, 0.85): mean 34 000, σ ≈ 71.
        assert!((33_500..=34_500).contains(&survivors), "{survivors}");
        assert_fits(&targets, &[survivors as f64 / 7.0; 7], "seven targets");
    }

    #[test]
    fn built_histograms_match_a_fresh_machine_histogram() {
        // Hub 0 points at every other vertex, so its histogram spans all
        // k machines, its own included; the leaves have one entry each.
        const K: usize = 5;
        let g = bidirect(&classic::star(53));
        let part = Arc::new(Partition::by_hash(53, K, 3));
        let machines = KmPageRank::build_all(dist(&g, &part), PrConfig::paper(53, 0.15, 4.0));
        let mut fresh = Vec::new();
        for m in &machines {
            let pr = m.inner();
            let g = &pr.st.g;
            for j in 0..g.hosted() {
                let outs = g.neighbors(j);
                machine_histogram(g, outs, &mut fresh);
                let built: Vec<(u64, MachineIdx)> = pr
                    .hists
                    .of(j)
                    .iter()
                    .map(|&(c, m)| (u64::from(c), m as MachineIdx))
                    .collect();
                assert_eq!(built, fresh, "vertex {}", g.vertex(j));
                assert!(built.windows(2).all(|w| w[0].1 < w[1].1), "machines ascend");
                assert_eq!(
                    built.iter().map(|&(c, _)| c).sum::<u64>(),
                    outs.len() as u64
                );
                for &(c, m) in &built {
                    let homed = outs.iter().filter(|&&v| g.home(v) == m).count();
                    assert_eq!(c, homed as u64, "vertex {} on machine {m}", g.vertex(j));
                }
                if g.vertex(j) == 0 {
                    assert_eq!(built.len(), K, "the hub reaches every machine");
                }
            }
        }
    }

    #[test]
    fn every_vertex_keeps_initial_visits() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = bidirect(&gnp(60, 0.1, &mut rng));
        let part = Arc::new(Partition::by_hash(60, 4, 9));
        let cfg = PrConfig {
            reset_prob: 0.4,
            tokens_per_vertex: 10,
        };
        let machines = KmPageRank::build_all(dist(&g, &part), cfg);
        let report = Runner::new(net(4, 60, 5)).run(machines).unwrap();
        let mut seen = [false; 60];
        for m in &report.machines {
            for (v, psi) in m.inner().visits() {
                assert!(psi >= 10, "vertex {v} lost its initial tokens");
                seen[v as usize] = true;
            }
            assert_eq!(
                m.inner().held_tokens(),
                0,
                "all tokens must be dead at termination"
            );
        }
        assert!(
            seen.iter().all(|&s| s),
            "every vertex output by some machine"
        );
    }

    #[test]
    fn matches_power_iteration_on_cycle() {
        // Directed cycle: uniform PageRank 1/n; heavy sampling keeps the
        // statistical error small.
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
        let (pr, _) = run_kmachine_pagerank(&g, &part, cfg, net(4, n, 3)).unwrap();
        let exact = power_iteration(&g, 0.3, 1e-13, 10_000);
        for v in 0..n {
            let rel = (pr[v] - exact[v]).abs() / exact[v];
            assert!(
                rel < 0.08,
                "v={v} rel={rel} got={} want={}",
                pr[v],
                exact[v]
            );
        }
    }

    #[test]
    fn lemma4_separation_through_the_distributed_algorithm() {
        let h = LowerBoundGraph::new(vec![false, true, false, true, false, true]);
        let g = &h.graph;
        let part = Arc::new(Partition::by_hash(g.n(), 3, 7));
        let cfg = PrConfig {
            reset_prob: 0.3,
            tokens_per_vertex: 30_000,
        };
        let (pr, _) = run_kmachine_pagerank(g, &part, cfg, net(3, g.n(), 11)).unwrap();
        // Average the two bit classes: clear separation.
        let avg = |bit: bool| {
            let vals: Vec<f64> = (0..h.quarter)
                .filter(|&i| h.bits[i] == bit)
                .map(|i| pr[h.v_vertex(i) as usize])
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            avg(true) > avg(false) * 1.05,
            "b1={} b0={}",
            avg(true),
            avg(false)
        );
    }

    #[test]
    fn heavy_path_exercised_on_star() {
        // Star hub accumulates ≫ k tokens, forcing the β (heavy) path.
        let g = bidirect(&classic::star(200));
        let part = Arc::new(Partition::by_hash(200, 4, 3));
        let cfg = PrConfig {
            reset_prob: 0.25,
            tokens_per_vertex: 40,
        };
        let machines = KmPageRank::build_all(dist(&g, &part), cfg);
        let report = Runner::new(net(4, 200, 13)).run(machines).unwrap();
        // The hub's PageRank must dominate (roughly (1-eps) mass + share).
        let mut hub_est = 0.0;
        let mut leaf_est = 0.0;
        for m in &report.machines {
            for (v, e) in m.inner().output().estimates {
                if v == 0 {
                    hub_est = e;
                } else {
                    leaf_est = e;
                }
            }
        }
        assert!(hub_est > 20.0 * leaf_est, "hub={hub_est} leaf={leaf_est}");
    }

    #[test]
    fn heavy_path_ablation_still_correct() {
        // With the heavy path disabled everything goes through α
        // aggregation; the estimates stay statistically correct.
        let g = bidirect(&classic::star(100));
        let part = Arc::new(Partition::by_hash(100, 4, 3));
        let cfg = PrConfig {
            reset_prob: 0.3,
            tokens_per_vertex: 2000,
        };
        let machines = KmPageRank::build_all_with_threshold(dist(&g, &part), cfg, u64::MAX);
        let report = Runner::new(net(4, 100, 17)).run(machines).unwrap();
        let mut pr = vec![0.0; 100];
        for m in &report.machines {
            assert_eq!(m.inner().held_tokens(), 0);
            for (v, e) in m.inner().output().estimates {
                pr[v as usize] = e;
            }
        }
        let exact = power_iteration(&g, 0.3, 1e-12, 10_000);
        let rel = (pr[0] - exact[0]).abs() / exact[0];
        assert!(rel < 0.1, "hub estimate off by {rel}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = bidirect(&gnp(50, 0.15, &mut rng));
        let part = Arc::new(Partition::by_hash(50, 5, 2));
        let cfg = PrConfig {
            reset_prob: 0.4,
            tokens_per_vertex: 30,
        };
        let (pr1, m1) = run_kmachine_pagerank(&g, &part, cfg, net(5, 50, 77)).unwrap();
        let (pr2, m2) = run_kmachine_pagerank(&g, &part, cfg, net(5, 50, 77)).unwrap();
        assert_eq!(pr1, pr2);
        assert_eq!(m1, m2);
    }

    /// The threaded engine (the distributed worker pool) against the
    /// sequential reference.
    #[test]
    fn parallel_engine_matches_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let g = bidirect(&gnp(80, 0.1, &mut rng));
        let part = Arc::new(Partition::by_hash(80, 6, 4));
        let cfg = PrConfig {
            reset_prob: 0.35,
            tokens_per_vertex: 25,
        };
        let netc = net(6, 80, 19);
        let seq = Runner::new(netc)
            .engine(EngineKind::Sequential)
            .run(KmPageRank::build_all(dist(&g, &part), cfg))
            .unwrap();
        let threaded = Runner::new(netc)
            .engine(EngineKind::Distributed)
            .run(KmPageRank::build_all(dist(&g, &part), cfg))
            .unwrap();
        assert_eq!(seq.metrics, threaded.metrics);
        for (a, b) in seq.machines.iter().zip(&threaded.machines) {
            assert_eq!(a.inner().output(), b.inner().output());
        }
    }

    #[test]
    fn single_machine_degenerate_case() {
        let g = bidirect(&classic::path(10));
        let part = Arc::new(Partition::round_robin(10, 1));
        let cfg = PrConfig {
            reset_prob: 0.5,
            tokens_per_vertex: 10,
        };
        let (pr, metrics) = run_kmachine_pagerank(&g, &part, cfg, net(1, 10, 0)).unwrap();
        assert_eq!(metrics.total_msgs(), 0);
        assert!(pr.iter().all(|&x| x > 0.0));
    }

    /// `bits()` of every variant at n ∈ {2, 3, 10³, 5·10⁴, 2³²}, as
    /// literals: the logical sizes every transcript is charged in. A
    /// codec change that moves one of them re-prices every run.
    #[test]
    fn pr_msg_sizes_are_pinned() {
        for (i, n) in [2usize, 3, 1_000, 50_000, 1 << 32].into_iter().enumerate() {
            let v = (n - 1) as Vertex;
            let count = u64::from(u32::MAX);
            for (msg, want) in [
                (PrMsg::count(n, false, v, count), [35, 36, 44, 50, 66]),
                (PrMsg::heavy(n, true, v, count), [35, 36, 44, 50, 66]),
                (PrMsg::flush(true, count), [34; 5]),
            ] {
                assert_eq!(msg.bits(), want[i], "{msg:?} at n = {n}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn pr_msgs_roundtrip_the_wire(
            n in 2usize..1_000_000,
            v in 0u32..1_000_000,
            count in 0u64..(1 << 32),
            parity in 0u8..2,
            heavy in 0u8..2,
        ) {
            let (parity, heavy) = (parity != 0, heavy != 0);
            let v = v % (n as u32); // a vertex id that fits id_bits(n)
            let msg = if heavy {
                PrMsg::heavy(n, parity, v, count)
            } else {
                PrMsg::count(n, parity, v, count)
            };
            km_core::assert_roundtrip(&msg);
            km_core::assert_roundtrip(&PrMsg::flush(parity, count));
        }
    }
}
