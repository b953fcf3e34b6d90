//! STREAM — streaming ingestion end to end: build the distributed input
//! at `n = 10⁶` through `km_graph::stream` (the global CSR is never
//! materialized — the k-machine model's own input shape, Section 1.1),
//! then run the paper's algorithms on the prebuilt [`DistGraph`]:
//! sketch connectivity, Borůvka MST, and k-machine PageRank.
//!
//! Scale knob: `KM_STREAM_N` overrides the vertex count (default
//! 1,000,000) — handy for CI smoke runs at toy sizes.

use crate::table::{f, Table};
use km_core::{run_algorithm, NetConfig, Runner};
use km_graph::partition::splitmix64;
use km_graph::stream::{EdgeChunk, EdgeStream, GnpStream, StreamingDistBuilder};
use km_graph::{DistGraph, Partition};
use km_pagerank::PrConfig;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// Headline scale: the single-host RAM ceiling the streaming path breaks.
const DEFAULT_N: usize = 1_000_000;

/// Machines — modest so per-machine state stays `O(n/k)`-meaningful
/// while the single-core simulator remains tractable.
const K: usize = 8;

/// Expected average degree of the streamed `G(n, p)` input.
const AVG_DEGREE: f64 = 4.0;

fn stream_n() -> usize {
    std::env::var("KM_STREAM_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_N)
}

/// Attaches a deterministic pseudo-`Uniform(0,1)` weight (a splitmix
/// hash of the endpoints) to every edge of an unweighted stream —
/// weighted input at any scale with `O(1)` extra state.
struct HashWeighted<S> {
    inner: S,
    scratch: EdgeChunk,
    seed: u64,
}

impl<S: EdgeStream> HashWeighted<S> {
    fn new(inner: S, seed: u64) -> Self {
        HashWeighted {
            inner,
            scratch: EdgeChunk::default(),
            seed,
        }
    }
}

impl<S: EdgeStream> EdgeStream for HashWeighted<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn is_weighted(&self) -> bool {
        true
    }

    fn next_chunk(&mut self, chunk: &mut EdgeChunk) -> bool {
        chunk.clear();
        if !self.inner.next_chunk(&mut self.scratch) {
            return false;
        }
        for &(u, v) in self.scratch.edges() {
            let h = splitmix64(self.seed ^ (((u as u64) << 32) | v as u64));
            // Top 53 bits → [0, 1); never an MST tie on distinct hashes.
            let w = (h >> 11) as f64 / (1u64 << 53) as f64;
            chunk.push_weighted(u, v, w);
        }
        true
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Emits each undirected edge as the two opposite arcs — the streaming
/// counterpart of `km_pagerank::kmachine::bidirect`.
struct Bidirect<S> {
    inner: S,
    scratch: EdgeChunk,
}

impl<S: EdgeStream> Bidirect<S> {
    fn new(inner: S) -> Self {
        Bidirect {
            inner,
            scratch: EdgeChunk::default(),
        }
    }
}

impl<S: EdgeStream> EdgeStream for Bidirect<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn next_chunk(&mut self, chunk: &mut EdgeChunk) -> bool {
        chunk.clear();
        if !self.inner.next_chunk(&mut self.scratch) {
            return false;
        }
        for &(u, v) in self.scratch.edges() {
            chunk.push(u, v);
            chunk.push(v, u);
        }
        true
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

fn global_m(d: &DistGraph) -> usize {
    d.edge_loads().iter().sum::<usize>() / 2
}

/// STREAM — streaming ingest at n = 10⁶, then sketch CC / MST / PageRank
/// on the prebuilt distributed input.
pub fn stream_scale(seed: u64) -> Table {
    let n = stream_n();
    let p = (AVG_DEGREE / (n.saturating_sub(1).max(1)) as f64).min(1.0);
    let mut t = Table::new(
        "STREAM",
        &format!(
            "Streaming ingestion at n = {n} (G(n, p), E[deg] = {AVG_DEGREE}, k = {K}): \
             build + algorithms with no global CSR ever materialized"
        ),
        &["stage", "n", "k", "wall ms", "result"],
    );
    let part = Arc::new(Partition::by_hash(n, K, seed + 1));
    let net = NetConfig::polylog(K, n, seed + 2).max_rounds(u64::MAX / 2);

    // Ingest: chunked G(n, p) routed straight into the per-machine locals.
    let start = Instant::now();
    let mut gs = GnpStream::<ChaCha8Rng>::new(n, p, seed, 1 << 16);
    let dist = StreamingDistBuilder::new(&part)
        .undirected(&mut gs)
        .expect("in-RAM streaming build cannot fail on generator input");
    let ingest_ms = start.elapsed().as_secs_f64() * 1e3;
    let m = global_m(&dist);
    t.row(vec![
        "ingest undirected".into(),
        n.to_string(),
        K.to_string(),
        f(ingest_ms),
        format!(
            "m = {m}, {} edges/s, edge imbalance {:.3}",
            f(m as f64 / (ingest_ms / 1e3)),
            dist.edge_balance().imbalance
        ),
    ]);

    // Sketch connectivity end-to-end on the prebuilt input.
    let start = Instant::now();
    let run = run_algorithm(
        &km_mst::PrebuiltSketchConnectivity { dist: &dist },
        Runner::new(net),
    );
    let (cc, ccm) = run.map(|o| (o.output, o.metrics)).expect("sketch run");
    let cc_ms = start.elapsed().as_secs_f64() * 1e3;
    t.row(vec![
        "sketch_cc".into(),
        n.to_string(),
        K.to_string(),
        f(cc_ms),
        format!(
            "{} components, {} phases, {} rounds",
            cc.components, cc.phases, ccm.rounds
        ),
    ]);
    drop(dist);

    // Borůvka MST on a hash-weighted stream of the same topology.
    let start = Instant::now();
    let mut ws = HashWeighted::new(
        GnpStream::<ChaCha8Rng>::new(n, p, seed, 1 << 16),
        seed ^ 0x9e37,
    );
    let wdist = StreamingDistBuilder::new(&part)
        .weighted(&mut ws)
        .expect("finite hash weights");
    let run = run_algorithm(&km_mst::PrebuiltMst { dist: &wdist }, Runner::new(net));
    let ((forest, weight), mm) = run.map(|o| (o.output, o.metrics)).expect("boruvka run");
    let mst_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        forest.len(),
        n - cc.components,
        "MST forest and sketch components must agree on the topology"
    );
    t.row(vec![
        "boruvka_mst".into(),
        n.to_string(),
        K.to_string(),
        f(mst_ms),
        format!(
            "{} forest edges, total weight {:.1}, {} rounds",
            forest.len(),
            weight,
            mm.rounds
        ),
    ]);
    drop(wdist);

    // PageRank on the bidirected arc stream of the same topology.
    let start = Instant::now();
    let mut bs = Bidirect::new(GnpStream::<ChaCha8Rng>::new(n, p, seed, 1 << 15));
    let ddist = StreamingDistBuilder::new(&part)
        .directed(&mut bs)
        .expect("in-RAM streaming build cannot fail on generator input");
    let cfg = PrConfig::paper(n, 0.2, 0.5);
    let run = run_algorithm(
        &km_pagerank::PrebuiltPageRank { dist: &ddist, cfg },
        Runner::new(net),
    );
    let (pr, prm) = run.map(|o| (o.output, o.metrics)).expect("pr run");
    let pr_ms = start.elapsed().as_secs_f64() * 1e3;
    let mass: f64 = pr.iter().sum();
    t.row(vec![
        "pagerank".into(),
        n.to_string(),
        K.to_string(),
        f(pr_ms),
        format!(
            "estimate mass {:.3} (→ 1 as c grows), {} rounds",
            mass, prm.rounds
        ),
    ]);

    t.note(format!(
        "all inputs streamed in {}-edge chunks through StreamingDistBuilder — peak memory is \
         the distributed state itself (O(m/k + chunk) per machine), never the O(m) global CSR; \
         set KM_STREAM_N to rescale",
        1 << 16
    ));
    t
}
