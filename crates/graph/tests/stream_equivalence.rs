//! Property tests for the streaming-ingestion contract
//! (`km_graph::stream`): a [`StreamingDistBuilder`] build is *exactly*
//! equal — every stored array, every offset, every weight — to the
//! in-memory [`DistGraphBuilder`] path over the same input, across
//! partition models, graph types, chunk sizes, and spill on/off; and the
//! chunked generator drivers replay the one-shot generators' RNG streams
//! bit-identically.

use km_graph::dist::DistGraphBuilder;
use km_graph::generators::{chung_lu, classic, gnm, gnp, power_law_weights};
use km_graph::stream::{
    ChungLuStream, CompleteWeightedStream, EdgeChunk, EdgeStream, GnmStream, GnpStream,
    SpillConfig, StreamingDistBuilder, VecStream,
};
use km_graph::{CsrGraph, DiGraph, DistGraph, Partition, Vertex, WeightedGraph};
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

/// Builds via the streaming path, optionally through the disk-spill mode.
fn stream_build<S: EdgeStream>(
    part: &Arc<Partition>,
    stream: &mut S,
    spill: bool,
    mode: u8,
) -> DistGraph {
    let mut b = StreamingDistBuilder::new(part);
    if spill {
        b = b.spill(SpillConfig {
            dir: None,
            buffer_edges: 16, // tiny buffer to force real run-file traffic
        });
    }
    match mode {
        0 => b.undirected(stream).unwrap(),
        1 => b.weighted(stream).unwrap(),
        _ => b.directed(stream).unwrap(),
    }
}

fn drain(s: &mut impl EdgeStream) -> (Vec<(Vertex, Vertex)>, Vec<f64>) {
    let mut chunk = EdgeChunk::default();
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    while s.next_chunk(&mut chunk) {
        edges.extend_from_slice(chunk.edges());
        weights.extend_from_slice(chunk.weights());
    }
    (edges, weights)
}

proptest! {
    /// Arbitrary edge soup (duplicates, self-loops, both orientations):
    /// streaming == in-memory for undirected builds, across all partition
    /// models, chunk sizes, and spill settings.
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
        for spill in [false, true] {
            let mut s = VecStream::new(n, edges.clone(), chunk_size);
            let got = stream_build(&part, &mut s, spill, 0);
            prop_assert_eq!(&got, &want, "spill={}", spill);
        }
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
        for spill in [false, true] {
            let mut s = VecStream::weighted(n, edges.clone(), weights.clone(), chunk_size);
            let got = stream_build(&part, &mut s, spill, 1);
            prop_assert_eq!(&got, &want, "spill={}", spill);
        }
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
        for spill in [false, true] {
            let mut s = VecStream::new(n, arcs.clone(), chunk_size);
            let got = stream_build(&part, &mut s, spill, 2);
            prop_assert_eq!(&got, &want, "spill={}", spill);
        }
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
        let (edges, _) = drain(&mut s);
        let want_seq: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
        prop_assert_eq!(&edges, &want_seq);
        let part = make_partition(n, k, model, seed ^ 0x9e37);
        let want = DistGraphBuilder::new(&part).undirected(&g);
        s.reset();
        let got = StreamingDistBuilder::new(&part).undirected(&mut s).unwrap();
        prop_assert_eq!(got, want);
    }

    /// `GnmStream` samples the identical edge *set* (the one-shot form's
    /// emission order is HashSet-iteration order, so sets — and the built
    /// graphs — are compared, not sequences).
    #[test]
    fn gnm_stream_matches_one_shot(
        params in (2usize..40, 1usize..5, 0u8..6),
        m_frac in 0u32..=100,
        seed in 0u64..1000,
        chunk_size in 1usize..60,
    ) {
        let (n, k, model) = params;
        let total = n * (n - 1) / 2;
        let m = (total as u64 * m_frac as u64 / 100) as usize;
        let g = gnm(n, m, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut s = GnmStream::<ChaCha8Rng>::new(n, m, seed, chunk_size);
        let (edges, _) = drain(&mut s);
        prop_assert_eq!(edges.len(), m);
        prop_assert_eq!(&CsrGraph::from_edges(n, &edges), &g);
        let part = make_partition(n, k, model, seed ^ 0x51f);
        let want = DistGraphBuilder::new(&part).undirected(&g);
        s.reset();
        let got = StreamingDistBuilder::new(&part).undirected(&mut s).unwrap();
        prop_assert_eq!(got, want);
    }

    /// `ChungLuStream` replays the pair-scan `gen_bool` draws exactly,
    /// including skipped zero-weight rows.
    #[test]
    fn chung_lu_stream_matches_one_shot(
        n in 2usize..50,
        gamma_tenths in 15u32..40,
        seed in 0u64..1000,
        chunk_size in 1usize..60,
    ) {
        let mut w = power_law_weights(n, gamma_tenths as f64 / 10.0, 3.0);
        // Zero out a couple of rows to exercise the no-draw skip.
        w[seed as usize % n] = 0.0;
        w[(seed as usize / 7) % n] = 0.0;
        let g = chung_lu(&w, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut s = ChungLuStream::<ChaCha8Rng>::new(w, seed, chunk_size);
        let (edges, _) = drain(&mut s);
        let want_seq: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
        prop_assert_eq!(edges, want_seq);
    }

    /// `CompleteWeightedStream` replays the one-shot `Uniform(0,1)` draw
    /// sequence; a weighted streaming build equals distributing the
    /// one-shot weighted graph (bit-identical weights).
    #[test]
    fn complete_weighted_stream_matches_one_shot(
        params in (2usize..25, 1usize..5, 0u8..6),
        seed in 0u64..1000,
        chunk_size in 1usize..40,
    ) {
        let (n, k, model) = params;
        let g = classic::complete_weighted_random(n, &mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        let part = make_partition(n, k, model, seed ^ 0xabcd);
        let want = DistGraphBuilder::new(&part).weighted(&g);
        for spill in [false, true] {
            let mut s = CompleteWeightedStream::<ChaCha8Rng>::new(n, seed, chunk_size);
            let got = stream_build(&part, &mut s, spill, 1);
            prop_assert_eq!(&got, &want, "spill={}", spill);
        }
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
