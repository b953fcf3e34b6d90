//! Property tests for the streaming-ingestion contract
//! (`km_graph::stream`): a [`StreamingDistBuilder`] build is *exactly*
//! equal — every stored array, every offset, every weight — to the
//! in-memory [`DistGraphBuilder`] path over the same input, across
//! partition models, graph types and chunk sizes; and the chunked
//! `G(n, p)` driver replays the one-shot generator's RNG stream
//! bit-identically.

use km_graph::dist::{DistGraphBuilder, LocalGraph};
use km_graph::generators::gnp;
use km_graph::stream::{EdgeChunk, EdgeStream, GnpStream, StreamingDistBuilder, VecStream};
use km_graph::{CsrGraph, DiGraph, Partition, Vertex, WeightedGraph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// One partition per model family, driven by a sampled selector.
fn make_partition(n: usize, k: usize, model: u8, seed: u64) -> Arc<Partition> {
    Arc::new(match model % 3 {
        0 => Partition::random_vertex(n, k, &mut ChaCha8Rng::seed_from_u64(seed)),
        1 => Partition::by_hash(n, k, seed),
        _ => Partition::round_robin(n, k),
    })
}

fn drain(s: &mut impl EdgeStream) -> Vec<(Vertex, Vertex)> {
    let mut chunk = EdgeChunk::default();
    let mut edges = Vec::new();
    while s.next_chunk(&mut chunk) {
        edges.extend_from_slice(chunk.edges());
    }
    edges
}

proptest! {
    /// Arbitrary edge soup (duplicates, self-loops, both orientations):
    /// streaming == in-memory for undirected builds, across all partition
    /// models and chunk sizes.
    #[test]
    fn undirected_streaming_equals_in_memory(
        params in (2usize..40, 1usize..6, 0u8..6, 0u64..1000),
        raw_edges in collection::vec((0u32..40, 0u32..40), 0..120),
        chunk_size in 1usize..50,
    ) {
        let (n, k, model, seed) = params;
        let edges: Vec<(Vertex, Vertex)> =
            raw_edges.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect();
        let part = make_partition(n, k, model, seed);
        let g = CsrGraph::from_edges(n, &edges);
        let want = DistGraphBuilder::new(&part).undirected(&g);
        let mut s = VecStream::new(n, edges, chunk_size);
        let got = StreamingDistBuilder::new(&part).undirected(&mut s).unwrap();
        prop_assert_eq!(got, want);
    }

    /// Weighted builds: duplicate edges keep the minimum weight exactly
    /// like `WeightedGraph::from_weighted_edges`; weights arrays equal
    /// bit-for-bit.
    #[test]
    fn weighted_streaming_equals_in_memory(
        params in (2usize..30, 1usize..5, 0u8..6, 0u64..1000),
        raw in collection::vec((0u32..30, 0u32..30, 0.0f64..10.0), 0..90),
        chunk_size in 1usize..40,
    ) {
        let (n, k, model, seed) = params;
        let mut edges: Vec<(Vertex, Vertex)> = Vec::with_capacity(raw.len());
        let mut weights: Vec<f64> = Vec::with_capacity(raw.len());
        for &(u, v, w) in &raw {
            edges.push((u % n as u32, v % n as u32));
            weights.push(w);
        }
        // The one-shot constructor rejects self-loops? No — it keeps the
        // same drop-self-loop rule as CsrGraph, so messy input is fine.
        let part = make_partition(n, k, model, seed);
        let g = WeightedGraph::from_weighted_edges(n, &edges, &weights).unwrap();
        let want = DistGraphBuilder::new(&part).weighted(&g);
        let mut s = VecStream::weighted(n, edges, weights, chunk_size);
        let got = StreamingDistBuilder::new(&part).weighted(&mut s).unwrap();
        prop_assert_eq!(got, want);
    }

    /// Directed builds: out-adjacency and the receiver-side
    /// `host_targets` index both match the in-memory path.
    #[test]
    fn directed_streaming_equals_in_memory(
        params in (2usize..30, 1usize..5, 0u8..6, 0u64..1000),
        raw_arcs in collection::vec((0u32..30, 0u32..30), 0..90),
        chunk_size in 1usize..40,
    ) {
        let (n, k, model, seed) = params;
        let arcs: Vec<(Vertex, Vertex)> =
            raw_arcs.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect();
        let part = make_partition(n, k, model, seed);
        let g = DiGraph::from_arcs(n, &arcs);
        let want = DistGraphBuilder::new(&part).directed(&g);
        let mut s = VecStream::new(n, arcs, chunk_size);
        let got = StreamingDistBuilder::new(&part).directed(&mut s).unwrap();
        prop_assert_eq!(got, want);
    }

    /// `GnpStream` replays the exact one-shot RNG stream: the streamed
    /// edge sequence equals the one-shot graph's canonical edge order,
    /// for any chunk size, and a distributed build from the stream equals
    /// distributing the one-shot graph.
    #[test]
    fn gnp_stream_matches_one_shot(
        params in (2usize..60, 1usize..5, 0u8..6),
        p_millis in 0u32..=1000,
        seed in 0u64..1000,
        chunk_size in 1usize..80,
    ) {
        let (n, k, model) = params;
        let p = p_millis as f64 / 1000.0;
        let g = gnp(n, p, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut s = GnpStream::<ChaCha8Rng>::new(n, p, seed, chunk_size);
        let edges = drain(&mut s);
        let want_seq: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
        prop_assert_eq!(&edges, &want_seq);
        let part = make_partition(n, k, model, seed ^ 0x9e37);
        let want = DistGraphBuilder::new(&part).undirected(&g);
        s.reset();
        let got = StreamingDistBuilder::new(&part).undirected(&mut s).unwrap();
        prop_assert_eq!(got, want);
    }

    /// Chunk size never changes the result: all chunkings of the same
    /// stream build the identical DistGraph.
    #[test]
    fn chunk_size_is_irrelevant(
        params in (2usize..30, 1usize..5, 0u8..6, 0u64..1000),
        raw_edges in collection::vec((0u32..30, 0u32..30), 1..60),
    ) {
        let (n, k, model, seed) = params;
        let edges: Vec<(Vertex, Vertex)> =
            raw_edges.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect();
        let part = make_partition(n, k, model, seed);
        let mut s1 = VecStream::new(n, edges.clone(), 1);
        let first = StreamingDistBuilder::new(&part).undirected(&mut s1).unwrap();
        for chunk_size in [2, 7, edges.len().max(1), 1000] {
            let mut s = VecStream::new(n, edges.clone(), chunk_size);
            let got = StreamingDistBuilder::new(&part).undirected(&mut s).unwrap();
            prop_assert_eq!(&got, &first, "chunk_size={}", chunk_size);
        }
    }
}

/// Equivalence at a size the proptests never reach: `G(n = 2·10⁵,
/// E[deg] = 4)` streamed in about six chunks, so the reader and the
/// router hand off full chunks and the finalize threads each take
/// several machines. It must equal `gnp` + `DistGraphBuilder` at k = 8,
/// and at k = 3, which does not split evenly over the threads.
#[test]
fn gnp_stream_equals_in_memory_at_scale() {
    let n = 200_000usize;
    let p = 4.0 / (n - 1) as f64;
    let g = gnp(n, p, &mut ChaCha8Rng::seed_from_u64(11));
    let chunk = g.m().div_ceil(6);
    for k in [8, 3] {
        let part = Arc::new(Partition::by_hash(n, k, 13));
        let want = DistGraphBuilder::new(&part).undirected(&g);
        let mut s = GnpStream::<ChaCha8Rng>::new(n, p, 11, chunk);
        let got = StreamingDistBuilder::new(&part).undirected(&mut s).unwrap();
        // Not `assert_eq!`: a mismatch would print both graphs whole.
        assert!(got == want, "k = {k}: streamed build differs");
    }
}

/// CI memory-cap guard: build `G(n = 10⁶, E[deg] = 4)` through the
/// streaming path alone. The workflow runs this under `ulimit -v` sized
/// from the streaming path's measured footprint — far below what
/// materializing the one-shot edge list + global CSR at this scale
/// needs — so it fails if streaming ever regresses into building a
/// global graph. Ignored by default (seconds, not proptest-milliseconds);
/// run with `cargo test -p km-graph --test stream_equivalence -- --ignored`.
#[test]
#[ignore = "CI memory-cap guard; run explicitly with -- --ignored"]
fn streaming_smoke_one_million() {
    let n = 1_000_000usize;
    let p = 4.0 / (n - 1) as f64;
    let part = Arc::new(Partition::by_hash(n, 8, 5));
    let mut s = GnpStream::<ChaCha8Rng>::new(n, p, 42, 1 << 16);
    let d = StreamingDistBuilder::new(&part)
        .undirected(&mut s)
        .expect("generator edges are in range");
    let m = d.edge_loads().iter().sum::<usize>() / 2;
    // E[m] = C(n,2)·p ≈ 2·10⁶; 5σ is ~±7k, so this window is generous.
    assert!(
        (1_950_000..=2_050_000).contains(&m),
        "m = {m} far from expected 2e6"
    );
    assert_eq!(d.k(), 8);
}

/// The directed twin of [`streaming_smoke_one_million`], at `k = 64`:
/// the same `G(n = 10⁶, E[deg] = 4)` stream read as arcs, so every
/// machine also builds its receiver index. The workflow runs it alone,
/// under its own `ulimit -v` cap: an index with an entry per vertex of
/// the global graph on every machine (`k · n · 4` bytes ≈ 256 MB) does
/// not fit there; one priced by the arc does.
#[test]
#[ignore = "CI memory-cap guard; run explicitly with -- --ignored"]
fn directed_streaming_smoke_one_million() {
    let n = 1_000_000usize;
    let p = 4.0 / (n - 1) as f64;
    let part = Arc::new(Partition::by_hash(n, 64, 5));
    let mut s = GnpStream::<ChaCha8Rng>::new(n, p, 42, 1 << 16);
    let d = StreamingDistBuilder::new(&part)
        .directed(&mut s)
        .expect("generator edges are in range");
    let m = d.edge_loads().iter().sum::<usize>();
    // The same ≈ 2·10⁶ pairs as the undirected smoke, one arc each.
    assert!(
        (1_950_000..=2_050_000).contains(&m),
        "m = {m} far from expected 2e6"
    );
    assert_eq!(d.k(), 64);
    let index: usize = d.locals().iter().map(LocalGraph::host_index_bytes).sum();
    assert!(index <= 10 * m, "receiver index {index} bytes for {m} arcs");
}
