//! Streaming graph ingestion: build a [`DistGraph`] without ever
//! materializing the global CSR.
//!
//! **Why.** The paper's k-machine model assumes the input arrives
//! *already distributed* by the random vertex partition (Section 1.1) —
//! no machine ever holds the whole graph. The in-memory path
//! ([`DistGraphBuilder`]) inverts that: it builds the full global
//! `CsrGraph` on one host and then splits it, capping experiments at
//! whatever one host's RAM can hold. This module restores the model's
//! own input shape: generators emit bounded [`EdgeChunk`]s through the
//! [`EdgeStream`] trait, and [`StreamingDistBuilder`] routes each
//! chunk's edges straight into the per-machine [`LocalGraph`]
//! accumulators, so peak memory is the final distributed state plus
//! `O(n + chunk)` transient — never the `O(m)` global CSR plus its
//! `O(m)` construction scratch.
//!
//! **RNG-replay invariant.** [`GnpStream`] and
//! [`crate::generators::gnp()`] drain the same crate-private skip
//! sampler, so they make *exactly* the same RNG draws in the same order
//! by construction, and the streamed edge sequence is bit-identical to
//! the edges the one-shot generator feeds its CSR constructor.
//! `tests/stream_equivalence.rs` proptests both halves of the contract:
//! generator replay, and `StreamingDistBuilder == DistGraphBuilder`
//! byte-for-byte.
//!
//! **Two-pass count-then-fill.** The builder drives the stream twice
//! ([`EdgeStream::reset`] rewinds it): pass 1 counts per-vertex
//! degrees, which pre-sizes every machine's flat arrays exactly like
//! [`DistGraphBuilder`]; pass 2 scatters endpoints into the pre-sized
//! windows; a final per-window sort + dedup produces the canonical
//! sorted-CSR form. That last step is the crate's one adjacency
//! canonicalizer (`canonicalize_windows` in [`crate::csr`]), the routine
//! the one-shot constructors build through, so self-loops are dropped
//! and duplicate edges collapse (keeping the minimum weight for weighted
//! streams) exactly as they do there.
//!
//! * *Reader and router.* Both passes read through one helper: the
//!   calling thread calls `next_chunk` (so a stream need not be `Send`)
//!   while one scoped worker routes each chunk, in order. A fixed ring
//!   of three chunks cycles between them over two bounded channels. The
//!   first routing error stops the reader; a routing panic is re-raised
//!   on the caller.
//! * *Packed cursor.* One `u64` per vertex holds its home machine
//!   (high half) and the next free slot of its window (low half), so
//!   the fill pass finds both with one read. Windows are contiguous in
//!   member order, so each window starts at the previous member's
//!   final cursor.
//! * *Parallel finalize.* Each machine is sorted and deduplicated on
//!   its own, so the machines are split into runs over
//!   `available_parallelism()` scoped threads.
//! * *Replay check.* Both passes keep an edge count and an
//!   order-sensitive 64-bit fingerprint of the edge (and weight)
//!   sequence. A stream that does not replay after `reset` fails with
//!   [`StreamError::ReplayMismatch`], as does a fill-pass endpoint or
//!   slot outside the pre-sized arrays, instead of writing into a
//!   neighbour's window or panicking on an index.
//!
//! There is no disk-spill path: the output [`DistGraph`] lives in one
//! process either way, so spilling the edges cannot lift the RAM
//! ceiling, and measured at the `ingest` workload's shape it was about
//! twice as slow for a few percent less peak memory.

use crate::csr::canonicalize_windows;
use crate::dist::{finalize_host_pairs, DistGraph, DistGraphBuilder, LocalGraph};
use crate::error::GraphError;
use crate::generators::gnp::GnpSampler;
use crate::ids::Vertex;
use crate::partition::Partition;
use rand::{Rng, SeedableRng};
use std::panic;
use std::sync::{mpsc, Arc};
use std::thread;

/// A bounded batch of edges handed from an [`EdgeStream`] to the
/// builder. Weighted streams keep `weights` aligned with `edges`;
/// unweighted streams leave it empty.
#[derive(Debug, Clone, Default)]
pub struct EdgeChunk {
    edges: Vec<(Vertex, Vertex)>,
    weights: Vec<f64>,
}

impl EdgeChunk {
    /// An empty chunk with room for `cap` edges.
    pub fn with_capacity(cap: usize) -> Self {
        EdgeChunk {
            edges: Vec::with_capacity(cap),
            weights: Vec::with_capacity(cap),
        }
    }

    /// Removes all edges, keeping the allocation.
    pub fn clear(&mut self) {
        self.edges.clear();
        self.weights.clear();
    }

    /// Appends an unweighted edge.
    #[inline]
    pub fn push(&mut self, u: Vertex, v: Vertex) {
        self.edges.push((u, v));
    }

    /// Appends a weighted edge.
    #[inline]
    pub fn push_weighted(&mut self, u: Vertex, v: Vertex, w: f64) {
        self.edges.push((u, v));
        self.weights.push(w);
    }

    /// The buffered edges.
    #[inline]
    pub fn edges(&self) -> &[(Vertex, Vertex)] {
        &self.edges
    }

    /// Weights aligned with [`Self::edges`] (empty for unweighted
    /// streams).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of buffered edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the chunk is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// A resettable source of edge chunks — the streaming counterpart of a
/// one-shot edge list.
///
/// Contract: `next_chunk` clears `chunk`, appends the next batch, and
/// returns `false` once the stream is exhausted (leaving the chunk
/// empty). `reset` rewinds to the start; a reset stream replays the
/// *identical* edge (and weight) sequence, which is what lets the
/// builder run its count pass and fill pass over the same data.
pub trait EdgeStream {
    /// Number of vertices of the streamed graph.
    fn n(&self) -> usize;

    /// Whether chunks carry aligned weights.
    fn is_weighted(&self) -> bool {
        false
    }

    /// Fills `chunk` with the next batch; `false` when exhausted.
    fn next_chunk(&mut self, chunk: &mut EdgeChunk) -> bool;

    /// Rewinds to the start of the identical edge sequence.
    fn reset(&mut self);
}

/// An in-memory edge list viewed as a stream — arbitrary input
/// (duplicates, self-loops, any order) chunked for the builder; also
/// the reference stream for the equivalence tests.
#[derive(Debug, Clone)]
pub struct VecStream {
    n: usize,
    edges: Vec<(Vertex, Vertex)>,
    weights: Option<Vec<f64>>,
    chunk_size: usize,
    pos: usize,
}

impl VecStream {
    /// An unweighted stream over `edges`.
    ///
    /// # Panics
    /// Panics if `chunk_size == 0`.
    pub fn new(n: usize, edges: Vec<(Vertex, Vertex)>, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        VecStream {
            n,
            edges,
            weights: None,
            chunk_size,
            pos: 0,
        }
    }

    /// A weighted stream over parallel `edges` / `weights`.
    ///
    /// # Panics
    /// Panics if the slices differ in length or `chunk_size == 0`.
    pub fn weighted(
        n: usize,
        edges: Vec<(Vertex, Vertex)>,
        weights: Vec<f64>,
        chunk_size: usize,
    ) -> Self {
        assert_eq!(edges.len(), weights.len(), "edges/weights length mismatch");
        assert!(chunk_size > 0, "chunk size must be positive");
        VecStream {
            n,
            edges,
            weights: Some(weights),
            chunk_size,
            pos: 0,
        }
    }
}

impl EdgeStream for VecStream {
    fn n(&self) -> usize {
        self.n
    }

    fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    fn next_chunk(&mut self, chunk: &mut EdgeChunk) -> bool {
        chunk.clear();
        let end = (self.pos + self.chunk_size).min(self.edges.len());
        match &self.weights {
            Some(ws) => {
                for (&(u, v), &w) in self.edges[self.pos..end].iter().zip(&ws[self.pos..end]) {
                    chunk.push_weighted(u, v, w);
                }
            }
            None => {
                for &(u, v) in &self.edges[self.pos..end] {
                    chunk.push(u, v);
                }
            }
        }
        self.pos = end;
        !chunk.is_empty()
    }

    fn reset(&mut self) {
        self.pos = 0;
    }
}

/// Chunked `G(n, p)` — the same geometric skip-sampling draw sequence
/// as [`crate::generators::gnp()`], emitted `chunk_size` edges at a
/// time. State is `O(1)`, so this is the generator of choice for the
/// `n = 10⁷` ingestion tier.
#[derive(Debug, Clone)]
pub struct GnpStream<R> {
    sampler: GnpSampler,
    seed: u64,
    chunk_size: usize,
    rng: R,
}

impl<R: Rng + SeedableRng> GnpStream<R> {
    /// A stream equivalent to `gnp(n, p, &mut R::seed_from_u64(seed))`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1` and `chunk_size > 0`.
    pub fn new(n: usize, p: f64, seed: u64, chunk_size: usize) -> Self {
        let sampler = GnpSampler::new(n, p);
        assert!(chunk_size > 0, "chunk size must be positive");
        GnpStream {
            sampler,
            seed,
            chunk_size,
            rng: R::seed_from_u64(seed),
        }
    }
}

impl<R: Rng + SeedableRng> EdgeStream for GnpStream<R> {
    fn n(&self) -> usize {
        self.sampler.n()
    }

    fn next_chunk(&mut self, chunk: &mut EdgeChunk) -> bool {
        chunk.clear();
        while chunk.len() < self.chunk_size {
            match self.sampler.next(&mut self.rng) {
                Some((u, v)) => chunk.push(u, v),
                None => break,
            }
        }
        !chunk.is_empty()
    }

    fn reset(&mut self) {
        self.rng = R::seed_from_u64(self.seed);
        self.sampler.rewind();
    }
}

/// Why a streaming build failed.
#[derive(Debug)]
pub enum StreamError {
    /// The streamed input violated a graph invariant (e.g. a non-finite
    /// weight) — same error family as the one-shot constructors.
    Graph(GraphError),
    /// After [`EdgeStream::reset`], the stream did not replay the edge
    /// (and weight) sequence the build's count pass sized its windows
    /// for.
    ReplayMismatch,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Graph(e) => write!(f, "streamed input rejected: {e}"),
            StreamError::ReplayMismatch => {
                write!(f, "stream replayed a different edge sequence after reset")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Graph(e) => Some(e),
            StreamError::ReplayMismatch => None,
        }
    }
}

impl From<GraphError> for StreamError {
    fn from(e: GraphError) -> Self {
        StreamError::Graph(e)
    }
}

/// Builds all `k` [`LocalGraph`]s straight from an [`EdgeStream`],
/// producing a [`DistGraph`] byte-for-byte equal to the
/// [`DistGraphBuilder`] path without ever holding the global CSR.
#[derive(Debug, Clone)]
pub struct StreamingDistBuilder<'a> {
    part: &'a Arc<Partition>,
}

impl<'a> StreamingDistBuilder<'a> {
    /// A streaming builder distributing over `part`'s machines.
    pub fn new(part: &'a Arc<Partition>) -> Self {
        StreamingDistBuilder { part }
    }

    /// Distributes an undirected edge stream (both endpoints receive
    /// the edge, like [`DistGraphBuilder::undirected`]).
    ///
    /// # Panics
    /// Panics if `stream.n() != part.n()` or an endpoint is out of
    /// range (programmer errors, same contract as the one-shot path).
    pub fn undirected<S: EdgeStream + ?Sized>(
        &self,
        stream: &mut S,
    ) -> Result<DistGraph, StreamError> {
        self.build(stream, Mode::Undirected)
    }

    /// Distributes a weighted undirected edge stream; duplicate edges
    /// keep the minimum weight, like [`crate::WeightedGraph`].
    ///
    /// # Errors
    /// [`GraphError::NonFiniteWeight`] (as `StreamError::Graph`) if the
    /// stream yields a NaN/±∞ weight.
    ///
    /// # Panics
    /// Panics if `stream.is_weighted()` is false, `stream.n()`
    /// mismatches the partition, or an endpoint is out of range.
    pub fn weighted<S: EdgeStream + ?Sized>(
        &self,
        stream: &mut S,
    ) -> Result<DistGraph, StreamError> {
        assert!(
            stream.is_weighted(),
            "weighted build needs a weighted stream"
        );
        self.build(stream, Mode::Weighted)
    }

    /// Distributes a directed arc stream: `(u, v)` is the arc `u → v`;
    /// the home of `u` stores the out-edge and the home of `v` gains
    /// the [`LocalGraph::host_targets`] entry, like
    /// [`DistGraphBuilder::directed`].
    ///
    /// # Panics
    /// Panics if `stream.n() != part.n()` or an endpoint is out of
    /// range.
    pub fn directed<S: EdgeStream + ?Sized>(
        &self,
        stream: &mut S,
    ) -> Result<DistGraph, StreamError> {
        self.build(stream, Mode::Directed)
    }

    /// Count pass + fill pass + per-window canonicalization. Transient
    /// memory above the final locals is `O(n)` (degree/cursor arrays —
    /// the same order as the shared `local_of` index) plus the
    /// [`RING_CHUNKS`] chunks in flight; the directed mode additionally
    /// stages the `O(m)` host pairs, exactly like the in-memory
    /// builder's `pairs` staging.
    fn build<S: EdgeStream + ?Sized>(
        &self,
        stream: &mut S,
        mode: Mode,
    ) -> Result<DistGraph, StreamError> {
        assert_eq!(stream.n(), self.part.n(), "partition size mismatch");
        let part = self.part;
        let n = part.n();
        let k = part.k();
        let both = mode != Mode::Directed;
        let weighted = mode == Mode::Weighted;

        // Pass 1: raw per-vertex endpoint counts (duplicates included —
        // they only widen the scatter windows, which dedup re-compacts)
        // plus, for directed builds, the per-machine host-pair counts.
        let mut deg = vec![0u32; n];
        let mut host_counts = vec![0usize; k];
        let mut counted = Replay::default();
        pump(stream, |chunk| {
            check_weights(chunk, weighted)?;
            counted.absorb(chunk, weighted);
            for &(u, v) in chunk.edges() {
                check_endpoints(u, v, n);
                if u == v {
                    continue;
                }
                deg[u as usize] += 1;
                if both {
                    deg[v as usize] += 1;
                } else {
                    host_counts[part.home(v)] += 1;
                }
            }
            Ok(())
        })?;

        // Pre-size every machine's flat arrays and lay out one scatter
        // window per vertex: `cur[v]` packs v's home machine (high 32
        // bits) with the next free slot of its window (low 32 bits).
        // Members are ascending, so one sequential sweep over all
        // vertices lays out every machine's windows in member order.
        let mut locals = DistGraphBuilder::new(part).shells(n);
        let mut cur = vec![0u64; n];
        let mut ends = vec![0u64; k];
        for ((c, &h), &d) in cur.iter_mut().zip(part.assignment()).zip(&deg) {
            *c = ((h as u64) << 32) | ends[h];
            ends[h] += u64::from(d);
        }
        drop(deg);
        for (i, (l, &end)) in locals.iter_mut().zip(&ends).enumerate() {
            assert!(
                end <= u64::from(u32::MAX),
                "machine {i} exceeds u32 endpoints"
            );
            l.neighbors = vec![0 as Vertex; end as usize];
            if weighted {
                l.weighted = true;
                l.weights = vec![0f64; end as usize];
            }
            l.offsets.reserve(part.members(i).len());
        }
        let mut host_pairs: Vec<Vec<(Vertex, u32)>> =
            host_counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let local_of: Arc<[u32]> = Arc::clone(&locals[0].local_of);

        // Pass 2: scatter endpoints (and weights / host pairs) into the
        // pre-sized windows. A replay that strays past a machine's array
        // fails here; one that stays inside fails the fingerprint check
        // below, before any window is read back.
        let mut filled = Replay::default();
        pump(stream, |chunk| {
            check_weights(chunk, weighted)?;
            filled.absorb(chunk, weighted);
            for (e, &(u, v)) in chunk.edges().iter().enumerate() {
                if u == v {
                    continue;
                }
                let w = if weighted { chunk.weights()[e] } else { 0.0 };
                place(&mut locals, &mut cur, u, v, w)?;
                if both {
                    place(&mut locals, &mut cur, v, u, w)?;
                } else {
                    let hv = cur.get(v as usize).ok_or(StreamError::ReplayMismatch)? >> 32;
                    host_pairs[hv as usize].push((u, local_of[v as usize]));
                }
            }
            Ok(())
        })?;
        if filled != counted {
            return Err(StreamError::ReplayMismatch);
        }

        let edge_loads = canonicalize_all(&mut locals, &cur)?;
        if mode == Mode::Directed {
            finalize_host_pairs(&mut locals, host_pairs);
        }
        Ok(DistGraph::assemble(locals, edge_loads))
    }
}

/// Build flavor of one streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Undirected,
    Weighted,
    Directed,
}

#[inline]
fn check_endpoints(u: Vertex, v: Vertex, n: usize) {
    assert!(
        (u as usize) < n && (v as usize) < n,
        "edge ({u},{v}) out of range for n={n}"
    );
}

fn check_weights(chunk: &EdgeChunk, weighted: bool) -> Result<(), StreamError> {
    if !weighted {
        return Ok(());
    }
    assert_eq!(
        chunk.edges().len(),
        chunk.weights().len(),
        "weighted stream emitted unaligned weights"
    );
    for (&(u, v), &w) in chunk.edges().iter().zip(chunk.weights()) {
        if !w.is_finite() {
            return Err(GraphError::NonFiniteWeight { u, v, w }.into());
        }
    }
    Ok(())
}

/// Chunks cycling between the reader and the router in [`pump`]: one
/// being read, one being routed, one queued between them.
const RING_CHUNKS: usize = 3;

/// Drives `stream` once from [`EdgeStream::reset`]: the calling thread
/// reads chunks while one scoped worker applies `route` to each, in
/// stream order. [`RING_CHUNKS`] chunks cycle between the two over a
/// pair of bounded channels, so the steady state allocates nothing.
/// The first error `route` returns stops the reader and is returned; a
/// panic in `route` is re-raised here with its payload.
fn pump<S, F>(stream: &mut S, mut route: F) -> Result<(), StreamError>
where
    S: EdgeStream + ?Sized,
    F: FnMut(&EdgeChunk) -> Result<(), StreamError> + Send,
{
    let (full_tx, full_rx) = mpsc::sync_channel::<EdgeChunk>(RING_CHUNKS);
    let (free_tx, free_rx) = mpsc::sync_channel::<EdgeChunk>(RING_CHUNKS);
    for _ in 0..RING_CHUNKS {
        // Cannot fail: `free_rx` is alive and the buffer has room.
        let _ = free_tx.send(EdgeChunk::default());
    }
    stream.reset();
    thread::scope(|s| {
        let router = s.spawn(move || -> Result<(), StreamError> {
            for chunk in full_rx {
                route(&chunk)?;
                // Cannot fail: the reader holds `free_rx` until the join.
                let _ = free_tx.send(chunk);
            }
            Ok(())
        });
        // Ends when the stream is exhausted or the router is gone: an
        // error or a panic dropped its ends of both channels.
        while let Ok(mut chunk) = free_rx.recv() {
            if !stream.next_chunk(&mut chunk) || full_tx.send(chunk).is_err() {
                break;
            }
        }
        drop(full_tx);
        router
            .join()
            .unwrap_or_else(|payload| panic::resume_unwind(payload))
    })
}

/// Edge count plus an order-sensitive fingerprint of a stream's edge
/// (and, for weighted builds, weight) sequence. The fill pass compares
/// its own against the count pass's, so a stream whose `reset` does not
/// replay the sequence fails typed instead of shifting windows.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Replay {
    edges: u64,
    hash: u64,
}

impl Replay {
    fn absorb(&mut self, chunk: &EdgeChunk, weighted: bool) {
        // One FxHash step: a bijection of the state for a fixed word and
        // of the word for a fixed state, so any single change survives.
        let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
        let pair = |(u, v): (Vertex, Vertex)| (u64::from(u) << 32) | u64::from(v);
        let mut h = self.hash;
        if weighted {
            for (&e, &w) in chunk.edges().iter().zip(chunk.weights()) {
                h = mix(mix(h, pair(e)), w.to_bits());
            }
        } else {
            for &e in chunk.edges() {
                h = mix(h, pair(e));
            }
        }
        self.hash = h;
        self.edges += chunk.len() as u64;
    }
}

/// Writes `v` (and weight `w`, for weighted locals) at `u`'s cursor and
/// advances it. An endpoint or slot outside the pre-sized arrays can
/// only come from a stream that did not replay its count pass.
#[inline]
fn place(
    locals: &mut [LocalGraph],
    cur: &mut [u64],
    u: Vertex,
    v: Vertex,
    w: f64,
) -> Result<(), StreamError> {
    let c = cur.get_mut(u as usize).ok_or(StreamError::ReplayMismatch)?;
    let l = &mut locals[(*c >> 32) as usize];
    let slot = *c as u32 as usize;
    *l.neighbors
        .get_mut(slot)
        .ok_or(StreamError::ReplayMismatch)? = v;
    if l.weighted {
        l.weights[slot] = w;
    }
    *c += 1;
    Ok(())
}

/// Canonicalizes every machine on `available_parallelism()` scoped
/// threads, each over a disjoint run of `locals`; returns the edge
/// loads in machine order.
fn canonicalize_all(locals: &mut [LocalGraph], cur: &[u64]) -> Result<Vec<usize>, StreamError> {
    let threads = thread::available_parallelism().map_or(1, |p| p.get());
    let per_thread = locals.len().div_ceil(threads);
    let mut edge_loads = Vec::with_capacity(locals.len());
    thread::scope(|s| {
        let workers: Vec<_> = locals
            .chunks_mut(per_thread)
            .map(|run| {
                s.spawn(move || {
                    run.iter_mut()
                        .map(|l| canonicalize(l, cur))
                        .collect::<Result<Vec<usize>, StreamError>>()
                })
            })
            .collect();
        for w in workers {
            let loads = w.join().unwrap_or_else(|p| panic::resume_unwind(p))?;
            edge_loads.extend(loads);
        }
        Ok(edge_loads)
    })
}

/// Canonicalizes one machine through
/// [`crate::csr::canonicalize_windows`], yielding the sorted simple
/// adjacency of the one-shot constructors; returns its edge load.
/// Windows are contiguous in member order, so each ends at its member's
/// final cursor and starts where the previous member's ended.
fn canonicalize(l: &mut LocalGraph, cur: &[u64]) -> Result<usize, StreamError> {
    let ends = || {
        l.part
            .members(l.me)
            .iter()
            .map(|&v| cur[v as usize] as u32 as usize)
    };
    // A window running backwards or past the array can only come from a
    // stream that did not replay its count pass.
    let mut lo = 0;
    for hi in ends() {
        if hi < lo || hi > l.neighbors.len() {
            return Err(StreamError::ReplayMismatch);
        }
        lo = hi;
    }
    let weights = l.weighted.then_some(&mut l.weights);
    canonicalize_windows(&mut l.neighbors, weights, ends(), &mut l.offsets);
    Ok(l.neighbors.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::generators::gnp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn drain(s: &mut impl EdgeStream) -> Vec<(Vertex, Vertex)> {
        let mut chunk = EdgeChunk::default();
        let mut edges = Vec::new();
        while s.next_chunk(&mut chunk) {
            edges.extend_from_slice(chunk.edges());
        }
        edges
    }

    #[test]
    fn vec_stream_chunks_and_resets() {
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)];
        let mut s = VecStream::new(5, edges.clone(), 2);
        let mut chunk = EdgeChunk::default();
        assert!(s.next_chunk(&mut chunk));
        assert_eq!(chunk.edges(), &edges[..2]);
        let rest = drain(&mut s);
        assert_eq!(rest, &edges[2..]);
        s.reset();
        assert_eq!(drain(&mut s), edges);
    }

    #[test]
    fn gnp_stream_replays_one_shot_sequence() {
        for &(n, p, seed) in &[(60, 0.1, 7u64), (40, 0.5, 1), (10, 1.0, 3), (10, 0.0, 3)] {
            let g = gnp(n, p, &mut ChaCha8Rng::seed_from_u64(seed));
            let mut s = GnpStream::<ChaCha8Rng>::new(n, p, seed, 13);
            let edges = drain(&mut s);
            // gnp emits strictly increasing flat indices, so the edge
            // sequence equals the one-shot CSR's canonical edge order.
            let want: Vec<(Vertex, Vertex)> = g.edges().map(|e| (e.u, e.v)).collect();
            assert_eq!(edges, want, "n={n} p={p}");
            s.reset();
            assert_eq!(drain(&mut s), edges);
        }
    }

    #[test]
    fn streaming_matches_in_memory_on_messy_input() {
        // Duplicates, self-loops, both orientations.
        let edges = vec![
            (0, 1),
            (1, 0),
            (2, 2),
            (3, 4),
            (4, 3),
            (0, 1),
            (5, 0),
            (4, 5),
        ];
        let g = CsrGraph::from_edges(6, &edges);
        let part = Arc::new(Partition::by_hash(6, 3, 1));
        let want = DistGraphBuilder::new(&part).undirected(&g);
        let mut s = VecStream::new(6, edges, 3);
        let got = StreamingDistBuilder::new(&part).undirected(&mut s).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn weighted_stream_rejects_non_finite_weight() {
        let part = Arc::new(Partition::round_robin(3, 2));
        let mut s = VecStream::weighted(3, vec![(0, 1), (1, 2)], vec![1.0, f64::NAN], 8);
        let err = StreamingDistBuilder::new(&part)
            .weighted(&mut s)
            .unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::Graph(GraphError::NonFiniteWeight { u: 1, v: 2, .. })
            ),
            "{err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("non-finite"), "{msg}");
    }

    #[test]
    fn non_finite_weight_in_a_later_chunk_fails_typed() {
        let part = Arc::new(Partition::round_robin(6, 2));
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        // A middle chunk and the last chunk, one edge per chunk.
        for bad in [2, 4] {
            let mut weights = vec![1.0; edges.len()];
            weights[bad] = f64::NAN;
            let mut s = VecStream::weighted(6, edges.clone(), weights, 1);
            let err = StreamingDistBuilder::new(&part)
                .weighted(&mut s)
                .unwrap_err();
            let (u, v) = edges[bad];
            assert!(
                matches!(err, StreamError::Graph(GraphError::NonFiniteWeight { u: eu, v: ev, .. }) if (eu, ev) == (u, v)),
                "bad={bad}: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_in_a_later_chunk_panics_on_the_caller() {
        let part = Arc::new(Partition::round_robin(4, 2));
        let mut s = VecStream::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 9)], 1);
        let _ = StreamingDistBuilder::new(&part).undirected(&mut s);
    }

    /// Breaks the replay contract: the first pass after a reset reads
    /// `first`, every later pass reads `second`.
    struct Drifting {
        first: VecStream,
        second: VecStream,
        resets: usize,
    }

    impl Drifting {
        fn new(n: usize, first: &[(Vertex, Vertex)], second: &[(Vertex, Vertex)], w: bool) -> Self {
            let stream = |e: &[(Vertex, Vertex)]| {
                if w {
                    let ws = (0..e.len()).map(|i| i as f64 + 0.5).collect();
                    VecStream::weighted(n, e.to_vec(), ws, 2)
                } else {
                    VecStream::new(n, e.to_vec(), 2)
                }
            };
            Drifting {
                first: stream(first),
                second: stream(second),
                resets: 0,
            }
        }
    }

    impl EdgeStream for Drifting {
        fn n(&self) -> usize {
            self.first.n()
        }

        fn is_weighted(&self) -> bool {
            self.first.is_weighted()
        }

        fn next_chunk(&mut self, chunk: &mut EdgeChunk) -> bool {
            if self.resets > 1 {
                self.second.next_chunk(chunk)
            } else {
                self.first.next_chunk(chunk)
            }
        }

        fn reset(&mut self) {
            self.resets += 1;
            self.first.reset();
            self.second.reset();
        }
    }

    #[test]
    fn non_replaying_stream_fails_typed() {
        // Round-robin over 3 machines: 5, 6 and 7 are the last members
        // of their machines, so a surplus endpoint there runs off the
        // end of the machine's array, while one at 0 or 3 lands inside
        // a neighbour's window.
        let n = 8;
        let part = Arc::new(Partition::round_robin(n, 3));
        let base: Vec<(Vertex, Vertex)> = vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 0),
            (0, 4),
        ];
        let with = |i: usize, e: (Vertex, Vertex)| {
            let mut s = base.clone();
            s[i] = e;
            s
        };
        let mut past_array = base.clone();
        past_array.push((5, 7));
        let mut inside_array = base.clone();
        inside_array.push((0, 3));
        let mut missing = base.clone();
        missing.remove(3);
        let cases = [
            ("extra edge past the array", past_array),
            ("extra edge inside the array", inside_array),
            ("missing edge", missing),
            ("changed endpoint", with(4, (4, 6))),
            ("out-of-range endpoint", with(2, (2, 99))),
        ];
        for mode in [Mode::Undirected, Mode::Weighted, Mode::Directed] {
            let w = mode == Mode::Weighted;
            let b = StreamingDistBuilder::new(&part);
            assert!(b
                .build(&mut Drifting::new(n, &base, &base, w), mode)
                .is_ok());
            for (what, second) in &cases {
                let got = b.build(&mut Drifting::new(n, &base, second, w), mode);
                assert!(
                    matches!(got, Err(StreamError::ReplayMismatch)),
                    "{mode:?}, {what}: {got:?}"
                );
            }
        }
        // Same endpoints, one weight changed.
        let mut s = Drifting::new(n, &base, &base, true);
        let mut weights: Vec<f64> = (0..base.len()).map(|i| i as f64 + 0.5).collect();
        weights[4] = 9.0;
        s.second = VecStream::weighted(n, base.clone(), weights, 2);
        let err = StreamingDistBuilder::new(&part)
            .weighted(&mut s)
            .unwrap_err();
        assert!(matches!(err, StreamError::ReplayMismatch), "{err}");
        assert!(err.to_string().contains("replayed"), "{err}");
    }

    #[test]
    #[should_panic(expected = "partition size mismatch")]
    fn rejects_mismatched_partition() {
        let part = Arc::new(Partition::round_robin(5, 2));
        let mut s = VecStream::new(4, vec![(0, 1)], 8);
        let _ = StreamingDistBuilder::new(&part).undirected(&mut s);
    }

    #[test]
    fn empty_stream_builds_empty_locals() {
        let part = Arc::new(Partition::round_robin(7, 3));
        let mut s = VecStream::new(7, Vec::new(), 8);
        let d = StreamingDistBuilder::new(&part).undirected(&mut s).unwrap();
        assert_eq!(d.k(), 3);
        for l in d.locals() {
            assert_eq!(l.edge_endpoints(), 0);
        }
        assert_eq!(d.vertex_balance().max, 3);
    }
}
