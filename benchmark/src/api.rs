//! The benchmark's only window onto the repo's crates.
//!
//! Every other file of the benchmark imports from here, so a PR that
//! renames or removes a public item of the system changes this file and
//! nothing else — and a reviewer can read off this file exactly which
//! surface the benchmark holds the system to. It uses only the surface
//! ROADMAP keeps (`Runner`, `EngineKind`, `NetConfig`, `FaultPlan`,
//! `run_algorithm`, `KmAlgorithm`, `Protocol`, `Metrics`, `WireReport`
//! fields, the `Distributed*` algorithm structs, generators,
//! `Partition`, `DistGraphBuilder`, `StreamingDistBuilder`, and the
//! codec / link / sketch public functions). It does not touch the
//! replicas ROADMAP item 4 retires (`dense_delivery_reference`,
//! `replicated_scan_reference`, `solo_framing_bits`, `Prebuilt*`,
//! `run_*_dist`) and does not depend on `km-bench`.

use std::sync::Arc;

use km_core::codec::{decode_batch, encode_batch_frame_into, split_frame, BitWriter};
use km_core::link::Link;
use km_core::{run_algorithm, Raw, Runner};
use km_graph::generators::{gnm, gnp};
use km_graph::{
    CsrGraph, DiGraph, DistGraphBuilder, EdgeChunk, EdgeStream, GnpStream, Partition,
    StreamingDistBuilder, VecStream, WeightedGraph,
};
use km_mst::conn::{ConnectivityOutput, DistributedSketchConnectivity};
use km_mst::sketch::{L0Sketch, SketchParams};
use km_mst::{kruskal, DistributedMst};
use km_pagerank::kmachine::{bidirect, DistributedPageRank};
use km_pagerank::{l1_error, power_iteration, PrConfig};
use km_triangle::kmachine::{DistributedTriangles, TriConfig, TriangleOutput};
use km_triangle::verify::diff_enumeration;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub use km_core::router::{ScatterToken, UniformScatter};
pub use km_core::{
    EngineKind, Envelope, FaultPlan, KmAlgorithm, Metrics, NetConfig, Outbox, Protocol, RoundCtx,
    RunOutcome, Status, WireCodec, WireReport,
};
pub use km_graph::{Edge, Triangle, Vertex};

/// Environment variables that silently change what a run does. The
/// benchmark refuses to start while any is set: a number measured under
/// a forced engine or injected faults is not the workload's number.
pub const REFUSED_ENV: [&str; 3] = ["KM_ENGINE", "KM_FAULTS", "KM_BARRIER_TIMEOUT_MS"];

// ---------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------

/// `B = Θ(polylog n)` network, the convention of every experiment.
pub fn polylog_net(k: usize, n: usize, seed: u64) -> NetConfig {
    NetConfig::polylog(k, n, seed)
}

/// Network with an explicit per-link bandwidth.
pub fn fixed_net(k: usize, bandwidth_bits: u64, seed: u64) -> NetConfig {
    NetConfig::with_bandwidth(k, bandwidth_bits, seed)
}

fn runner(net: NetConfig, engine: EngineKind, faults: Option<FaultPlan>) -> Runner {
    let r = Runner::new(net).engine(engine);
    match faults {
        Some(plan) => r.faults(plan),
        None => r,
    }
}

/// One solve: `KmAlgorithm::build` → run to quiescence → `extract`.
pub fn solve<A>(
    alg: &A,
    net: NetConfig,
    engine: EngineKind,
    faults: Option<FaultPlan>,
) -> Result<RunOutcome<A::Output>, String>
where
    A: KmAlgorithm,
    <A::Machine as Protocol>::Msg: WireCodec,
{
    run_algorithm(alg, runner(net, engine, faults)).map_err(|e| e.to_string())
}

/// What `engine` resolves to for this `net` on this host, as the user
/// would see it (`Auto` picks by `k` and core count).
pub fn resolved_engine(net: NetConfig, engine: EngineKind) -> Result<EngineKind, String> {
    runner(net, engine, None)
        .resolved_engine()
        .map_err(|e| e.to_string())
}

/// The three engines, for the cross-engine pass.
pub const SEQUENTIAL: EngineKind = EngineKind::Sequential;
pub const PARALLEL: EngineKind = EngineKind::Parallel { threads: 0 };
pub const DISTRIBUTED: EngineKind = EngineKind::Distributed;

/// Short lower-case engine name for metric names and reports.
pub fn engine_name(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Sequential => "sequential",
        EngineKind::Parallel { .. } => "parallel",
        EngineKind::Distributed => "distributed",
        EngineKind::Auto => "auto",
    }
}

/// The logical transcript counters of a run, flattened.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    pub rounds: u64,
    pub max_recv_bits: u64,
    pub total_msgs: u64,
    pub total_bits: u64,
    pub recv_msgs: u64,
    pub max_link_bits: u64,
    pub link_visits: u64,
    /// `Metrics::round_floor(B)`: rounds any schedule needs for this
    /// transcript (Lemma 3).
    pub round_floor: u64,
}

pub fn counters(m: &Metrics, net: &NetConfig) -> Counters {
    Counters {
        rounds: m.rounds,
        max_recv_bits: m.max_recv_bits(),
        total_msgs: m.total_msgs(),
        total_bits: m.total_bits(),
        recv_msgs: m.recv_msgs.iter().sum(),
        max_link_bits: m.max_link_bits,
        link_visits: m.link_visits,
        round_floor: m.round_floor(net.bandwidth_bits),
    }
}

/// Framing overhead split out of a [`WireReport`]'s fields.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSplit {
    pub header_bits: u64,
    pub record_bits: u64,
    pub padding_bits: u64,
    pub recovery_bytes: u64,
}

pub fn wire_split(w: &WireReport) -> WireSplit {
    WireSplit {
        header_bits: (w.frame_bytes - w.payload_bytes) * 8,
        record_bits: w.payload_bits - w.logical_bits,
        padding_bits: w.payload_bytes * 8 - w.payload_bits,
        recovery_bytes: w.retransmit_bytes + w.nack_bytes,
    }
}

// ---------------------------------------------------------------------
// Inputs. Each owns what the paper's input model hands the machines: a
// graph, its random vertex partition behind an `Arc`, and the network.
// ---------------------------------------------------------------------

/// Seeds for one input, all derived from the benchmark's `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub graph: u64,
    pub partition: u64,
    pub net: u64,
}

fn hashed(n: usize, k: usize, seed: u64) -> Arc<Partition> {
    Arc::new(Partition::by_hash(n, k, seed))
}

/// Algorithm 1's input: a bidirected `G(n, p)`.
pub struct PageRankInput {
    g: DiGraph,
    part: Arc<Partition>,
    cfg: PrConfig,
    pub net: NetConfig,
}

impl PageRankInput {
    pub fn generate(n: usize, avg_degree: f64, k: usize, seeds: Seeds) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seeds.graph);
        let g = bidirect(&gnp(n, avg_degree / n as f64, &mut rng));
        PageRankInput {
            g,
            part: hashed(n, k, seeds.partition),
            cfg: PrConfig::paper(n, 0.15, 4.0),
            net: polylog_net(k, n, seeds.net),
        }
    }

    pub fn alg(&self) -> DistributedPageRank<'_> {
        DistributedPageRank::new(&self.g, &self.part, self.cfg)
    }

    /// L1 distance of `estimate` from the power-iteration oracle.
    pub fn l1_error(&self, estimate: &[f64]) -> f64 {
        let reference = power_iteration(&self.g, self.cfg.reset_prob, 1e-10, 1_000);
        l1_error(estimate, &reference)
    }
}

/// Theorem 5's input: an undirected `G(n, p)`.
pub struct TriangleInput {
    g: CsrGraph,
    part: Arc<Partition>,
    pub net: NetConfig,
}

impl TriangleInput {
    pub fn generate(n: usize, p: f64, k: usize, seeds: Seeds) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seeds.graph);
        TriangleInput {
            g: gnp(n, p, &mut rng),
            part: hashed(n, k, seeds.partition),
            net: polylog_net(k, n, seeds.net),
        }
    }

    pub fn alg(&self) -> DistributedTriangles<'_> {
        DistributedTriangles {
            g: &self.g,
            part: &self.part,
            cfg: TriConfig::default(),
        }
    }

    /// `(missing, spurious)` against the sequential enumerator.
    pub fn diff(&self, got: &[Triangle]) -> (usize, usize) {
        let d = diff_enumeration(&self.g, got);
        (d.missing.len(), d.spurious.len())
    }
}

pub fn triangles_of(out: &TriangleOutput) -> &[Triangle] {
    &out.triangles
}

/// For the self-tests, which break an output on purpose.
#[cfg(test)]
pub fn triangles_mut(out: &mut TriangleOutput) -> &mut Vec<Triangle> {
    &mut out.triangles
}

/// Borůvka's input: `G(n, m)` with uniform `[0, 1)` weights.
pub struct MstInput {
    g: WeightedGraph,
    part: Arc<Partition>,
    pub net: NetConfig,
}

impl MstInput {
    pub fn generate(n: usize, m: usize, k: usize, seeds: Seeds) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seeds.graph);
        let plain = gnm(n, m, &mut rng);
        let edges: Vec<(Vertex, Vertex)> = plain.edges().map(|e| (e.u, e.v)).collect();
        let weights: Vec<f64> = (0..edges.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
        let g = WeightedGraph::from_weighted_edges(n, &edges, &weights)
            .expect("uniform [0,1) weights are finite");
        MstInput {
            g,
            part: hashed(n, k, seeds.partition),
            net: polylog_net(k, n, seeds.net),
        }
    }

    pub fn alg(&self) -> DistributedMst<'_> {
        DistributedMst {
            g: &self.g,
            part: &self.part,
        }
    }

    /// `(edge count, weight)` of the Kruskal forest.
    pub fn kruskal(&self) -> (usize, f64) {
        let (edges, weight) = kruskal(&self.g);
        (edges.len(), weight)
    }
}

/// Sketch connectivity's input: an unweighted `G(n, m)`.
pub struct ConnInput {
    g: CsrGraph,
    part: Arc<Partition>,
    pub net: NetConfig,
}

impl ConnInput {
    pub fn generate(n: usize, m: usize, k: usize, seeds: Seeds) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seeds.graph);
        ConnInput {
            g: gnm(n, m, &mut rng),
            part: hashed(n, k, seeds.partition),
            net: polylog_net(k, n, seeds.net),
        }
    }

    pub fn alg(&self) -> DistributedSketchConnectivity<'_> {
        DistributedSketchConnectivity {
            g: &self.g,
            part: &self.part,
        }
    }

    pub fn n(&self) -> usize {
        self.g.n()
    }

    pub fn edges(&self) -> Vec<Edge> {
        self.g.edges().collect()
    }
}

pub fn forest_of(out: &ConnectivityOutput) -> &[Edge] {
    &out.forest
}

#[cfg(test)]
pub fn forest_mut(out: &mut ConnectivityOutput) -> &mut Vec<Edge> {
    &mut out.forest
}

/// One Lemma-13 scatter source of `x` tokens.
pub fn scatter_source(x: usize) -> UniformScatter {
    UniformScatter::new(x)
}

pub fn scatter_received(m: &UniformScatter) -> usize {
    m.received
}

/// The Section 1.1 input model: a `G(n, p)` edge stream and a partition,
/// no global graph.
pub struct IngestInput {
    part: Arc<Partition>,
    n: usize,
    p: f64,
    seed: u64,
    chunk: usize,
}

impl IngestInput {
    pub fn generate(n: usize, avg_degree: f64, k: usize, chunk: usize, seeds: Seeds) -> Self {
        IngestInput {
            part: hashed(n, k, seeds.partition),
            n,
            p: avg_degree / (n - 1) as f64,
            seed: seeds.graph,
            chunk,
        }
    }

    fn stream(&self) -> GnpStream<ChaCha8Rng> {
        GnpStream::new(self.n, self.p, self.seed, self.chunk)
    }

    /// One full streaming build; returns the per-machine edge loads.
    pub fn build_streaming(&self) -> Result<Vec<usize>, String> {
        StreamingDistBuilder::new(&self.part)
            .undirected(&mut self.stream())
            .map(|d| d.edge_loads().to_vec())
            .map_err(|e| e.to_string())
    }

    /// The same graph through the one-shot generator and the in-memory
    /// builder.
    pub fn build_in_memory(&self) -> Vec<usize> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let g = gnp(self.n, self.p, &mut rng);
        DistGraphBuilder::new(&self.part)
            .undirected(&g)
            .edge_loads()
            .to_vec()
    }

    /// Drains the generator alone, handing every edge to `sink`;
    /// returns the edge count.
    pub fn drain(&self, mut sink: impl FnMut(Vertex, Vertex)) -> u64 {
        let mut stream = self.stream();
        let mut chunk = EdgeChunk::with_capacity(self.chunk);
        let mut m = 0u64;
        while stream.next_chunk(&mut chunk) {
            m += chunk.len() as u64;
            for &(u, v) in chunk.edges() {
                sink(u, v);
            }
        }
        m
    }

    /// All edges, collected (for the pre-filled `VecStream` micro loop).
    pub fn collect_edges(&self) -> Vec<(Vertex, Vertex)> {
        let mut edges = Vec::new();
        self.drain(|u, v| edges.push((u, v)));
        edges
    }

    /// A streaming build over an already materialised edge list, so the
    /// builder is timed without the generator. Returns stored endpoints.
    pub fn build_from_edges(&self, edges: Vec<(Vertex, Vertex)>) -> Result<usize, String> {
        let mut stream = VecStream::new(self.n, edges, self.chunk);
        StreamingDistBuilder::new(&self.part)
            .undirected(&mut stream)
            .map(|d| d.edge_loads().iter().sum())
            .map_err(|e| e.to_string())
    }

    pub fn home(&self, v: Vertex) -> usize {
        self.part.home(v)
    }

    pub fn k(&self) -> usize {
        self.part.k()
    }
}

/// `gnp(n, avg_degree/n)`; returns the edge count.
pub fn generate_gnp(n: usize, avg_degree: f64, seed: u64) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    gnp(n, avg_degree / n as f64, &mut rng).m()
}

/// `Partition::by_hash`; returns the largest machine's vertex count.
pub fn hash_partition_max_load(n: usize, k: usize, seed: u64) -> usize {
    Partition::by_hash(n, k, seed)
        .loads()
        .into_iter()
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Micro-loop fixtures: codec, link, sketch.
// ---------------------------------------------------------------------

/// Frames of the two shapes the wire ships: many tiny messages behind
/// one header (scatter-like) and one large opaque payload.
pub struct CodecFixture {
    small: Vec<ScatterToken>,
    large: Vec<Raw>,
    scratch: BitWriter,
    frame: Vec<u8>,
    small_frame: Vec<u8>,
    large_frame: Vec<u8>,
}

/// Messages per small batch and bytes per large payload.
pub const CODEC_SMALL_MSGS: usize = 32;
pub const CODEC_LARGE_BYTES: usize = 2048;

impl CodecFixture {
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..CODEC_LARGE_BYTES)
            .map(|_| rng.gen_range(0..=255u8))
            .collect();
        let mut f = CodecFixture {
            small: vec![ScatterToken; CODEC_SMALL_MSGS],
            large: vec![Raw::from_vec(bytes)],
            scratch: BitWriter::new(),
            frame: Vec::new(),
            small_frame: Vec::new(),
            large_frame: Vec::new(),
        };
        f.encode_small();
        f.small_frame = f.frame.clone();
        f.encode_large();
        f.large_frame = f.frame.clone();
        f
    }

    /// Encodes the small batch; returns the frame length.
    pub fn encode_small(&mut self) -> usize {
        encode_batch_frame_into(&self.small, 7, &mut self.scratch, &mut self.frame);
        self.frame.len()
    }

    pub fn encode_large(&mut self) -> usize {
        encode_batch_frame_into(&self.large, 7, &mut self.scratch, &mut self.frame);
        self.frame.len()
    }

    /// Validates and decodes the small frame; returns the message count.
    pub fn decode_small(&self) -> u64 {
        let view = split_frame(&self.small_frame).expect("fixture frame is intact");
        decode_batch::<ScatterToken>(&view, |msg, bits| {
            std::hint::black_box((msg, bits));
        })
        .expect("fixture frame decodes")
    }

    /// Validates and decodes the large frame; returns the payload bytes.
    pub fn decode_large(&self) -> u64 {
        let view = split_frame(&self.large_frame).expect("fixture frame is intact");
        let mut bytes = 0u64;
        decode_batch::<Raw>(&view, |msg, _| bytes += msg.0.len() as u64)
            .expect("fixture frame decodes");
        bytes
    }

    /// CRC-32 over the large frame; returns `(checksum, bytes hashed)`.
    pub fn crc32_large(&self) -> (u32, usize) {
        (
            km_core::codec::crc32(&[self.large_frame.as_slice()]),
            self.large_frame.len(),
        )
    }
}

/// Pushes `msgs` 16-bit tokens through one link at `bandwidth_bits` per
/// round; returns how many came out.
pub fn link_push_deliver(
    msgs: usize,
    bandwidth_bits: u64,
    out: &mut Vec<Envelope<ScatterToken>>,
) -> usize {
    let mut link: Link<ScatterToken> = Link::default();
    for _ in 0..msgs {
        link.push_sized(
            Envelope {
                src: 0,
                msg: ScatterToken,
            },
            16,
        );
    }
    let mut delivered = 0;
    while !link.is_empty() {
        out.clear();
        delivered += link.deliver(bandwidth_bits, out).msgs as usize;
    }
    delivered
}

/// ℓ₀ sketches of the shape `sketch_cc_*` ships (`SketchParams::for_graph`
/// of the workload's `n`, `m`), over seeded neighbourhoods.
pub struct SketchFixture {
    params: SketchParams,
    /// `(vertex, neighbours)` rows the sketches are built from.
    rows: Vec<(Vertex, Vec<Vertex>)>,
    sketches: Vec<L0Sketch>,
    seed: u64,
}

impl SketchFixture {
    /// `count` vertices of degree `degree` in a graph of `n` vertices
    /// and `m` edges.
    pub fn new(n: usize, m: usize, count: usize, degree: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let params = SketchParams::for_graph(n, m);
        let rows: Vec<(Vertex, Vec<Vertex>)> = (0..count)
            .map(|i| {
                let v = i as Vertex;
                let mut nbrs: Vec<Vertex> = Vec::with_capacity(degree);
                while nbrs.len() < degree {
                    let w = rng.gen_range(0..n as Vertex);
                    if w != v && !nbrs.contains(&w) {
                        nbrs.push(w);
                    }
                }
                (v, nbrs)
            })
            .collect();
        let sketches = rows
            .iter()
            .map(|(v, nbrs)| L0Sketch::from_neighbors(params, *v, nbrs, seed))
            .collect();
        SketchFixture {
            params,
            rows,
            sketches,
            seed,
        }
    }

    /// Builds every row's sketch; returns the edges toggled.
    pub fn build_all(&self) -> usize {
        let mut edges = 0;
        for (v, nbrs) in &self.rows {
            std::hint::black_box(L0Sketch::from_neighbors(self.params, *v, nbrs, self.seed));
            edges += nbrs.len();
        }
        edges
    }

    /// XOR-merges every sketch into an accumulator; returns the merges.
    pub fn xor_all(&self) -> usize {
        let mut acc = L0Sketch::empty_with(self.params);
        for s in &self.sketches {
            acc.xor_in(s);
        }
        std::hint::black_box(acc);
        self.sketches.len()
    }

    /// Decodes every sketch; returns `(attempted, decoded a real
    /// neighbour)`.
    pub fn decode_all(&self) -> (usize, usize) {
        let mut ok = 0;
        for (s, (v, nbrs)) in self.sketches.iter().zip(&self.rows) {
            if let Some(e) = s.decode(self.seed) {
                if e.contains(*v) && nbrs.contains(&e.other(*v)) {
                    ok += 1;
                }
            }
        }
        (self.sketches.len(), ok)
    }

    /// Logical bits one sketch of this shape costs on a link.
    pub fn wire_bits(&self) -> u64 {
        self.params.sketch_bits()
    }
}
