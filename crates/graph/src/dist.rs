//! The per-machine graph-state layer: flat CSR-backed local storage for
//! every k-machine algorithm.
//!
//! **Paper mapping (Section 1.1).** Every result in the paper assumes the
//! *random vertex partition*: each vertex, with its incident edges, is
//! homed at one of the `k` machines, so machine `i`'s input is the
//! subgraph "its vertices plus their adjacency lists". Lemma 4.1 of
//! Klauck et al. (arXiv:1311.6209, quoted in the proof of Theorem 5)
//! bounds that input's size by `O~(m/k + Δ)` w.h.p. — the per-machine
//! input shape is a first-class object of the model, and [`LocalGraph`]
//! is its one shared implementation: a hosted-vertex list, a global↔local
//! index, flat out-adjacency slices (plus aligned weights for weighted
//! graphs), and — for digraphs — the precomputed receiver side of
//! cross-partition traffic ([`LocalGraph::host_targets`]).
//!
//! **Fused construction.** [`DistGraphBuilder`] materializes all `k`
//! locals in **one pass** over the global CSR arrays instead of `k`
//! independent member scans: a single sweep over `0..n` appends each
//! vertex's adjacency slice to its home machine's flat arrays (sizes are
//! precomputed, so nothing reallocates), and the global→local index is
//! one shared `Arc<[u32]>` rather than `k` hash maps. The resulting
//! [`DistGraph`] also records the per-machine edge loads, wiring the
//! `O~(m/k + Δ)` balance lemma into the existing
//! [`partition::balance`](crate::partition::balance) diagnostics via
//! [`DistGraph::edge_balance`].
//!
//! **Receiver index.** A directed build also indexes, on each machine,
//! every arc `u → v` into a hosted `v` — hosted sources included — by
//! source: two aligned per-arc arrays `(u, local index of v)` sorted by
//! source, plus a directory of buckets over `u >> shift` holding 4–8
//! arcs each on average. That is 8 bytes per arc plus at most one for the
//! directory, and no entry per vertex of the global graph on any machine,
//! so `k` indexes cost `O(m)` together, not `O(n·k)`.
//! [`LocalGraph::host_targets`] searches one bucket. Undirected and
//! weighted builds leave the index empty and unallocated.

use crate::csr::CsrGraph;
use crate::digraph::DiGraph;
use crate::ids::{MachineIdx, Vertex};
use crate::partition::balance::LoadStats;
use crate::partition::Partition;
use crate::weighted::WeightedGraph;
use std::sync::Arc;

/// One machine's local graph state under the random vertex partition:
/// the hosted vertices, their adjacency in flat CSR form, and the shared
/// global↔local index.
///
/// Local vertex indices `j ∈ 0..hosted()` correspond to the hosted
/// vertices in ascending global-id order (the order of
/// [`Partition::members`]); adjacency slices inherit the global CSR's
/// sorted order. For directed builds the adjacency is the *out*-edges
/// (what RVP gives the home machine) and [`Self::host_targets`] holds
/// the precomputed receiver-side map `u → hosted out-neighbors of u`.
/// Byte-for-byte equality over all stored arrays — the invariant the
/// streaming builder ([`crate::stream::StreamingDistBuilder`]) is tested
/// against. Weights are finite by construction, so `f64` equality is a
/// genuine equivalence here.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalGraph {
    // Fields are `pub(crate)` so the streaming builder in
    // `crate::stream` can fill the same representation directly.
    pub(crate) me: MachineIdx,
    pub(crate) n: usize,
    pub(crate) part: Arc<Partition>,
    /// Shared across all locals: `local_of[v]` is `v`'s index within its
    /// home machine's hosted-vertex list.
    pub(crate) local_of: Arc<[u32]>,
    pub(crate) offsets: Vec<usize>,
    pub(crate) neighbors: Vec<Vertex>,
    /// Aligned with `neighbors`; empty unless built from a weighted graph.
    pub(crate) weights: Vec<f64>,
    pub(crate) weighted: bool,
    /// The receiver index behind [`Self::host_targets`] (directed
    /// builds; empty and unallocated otherwise).
    pub(crate) host: HostIndex,
}

impl LocalGraph {
    /// The machine this local state belongs to.
    #[inline]
    pub fn machine(&self) -> MachineIdx {
        self.me
    }

    /// Number of vertices of the *global* graph.
    #[inline]
    pub fn global_n(&self) -> usize {
        self.n
    }

    /// Number of hosted vertices.
    #[inline]
    pub fn hosted(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The hosted vertices, ascending (`j`-th entry has local index `j`).
    #[inline]
    pub fn vertices(&self) -> &[Vertex] {
        self.part.members(self.me)
    }

    /// Global id of the hosted vertex with local index `j`.
    ///
    /// # Panics
    /// Panics if `j >= hosted()`.
    #[inline]
    pub fn vertex(&self, j: usize) -> Vertex {
        self.vertices()[j]
    }

    /// Local index of `v`, or `None` if `v` is not hosted here.
    #[inline]
    pub fn local(&self, v: Vertex) -> Option<usize> {
        if self.part.home(v) == self.me {
            Some(self.local_of[v as usize] as usize)
        } else {
            None
        }
    }

    /// Sorted (out-)adjacency of the hosted vertex with local index `j`.
    #[inline]
    pub fn neighbors(&self, j: usize) -> &[Vertex] {
        &self.neighbors[self.offsets[j]..self.offsets[j + 1]]
    }

    /// Edge weights aligned with [`Self::neighbors`].
    ///
    /// # Panics
    /// Panics if this local was not built from a weighted graph.
    #[inline]
    pub fn neighbor_weights(&self, j: usize) -> &[f64] {
        assert!(self.weighted, "local graph built without weights");
        &self.weights[self.offsets[j]..self.offsets[j + 1]]
    }

    /// Whether this local carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Home machine of any global vertex (the shared hash/partition map —
    /// "if a machine knows a vertex ID, it also knows where it is hashed
    /// to", Section 1.1).
    #[inline]
    pub fn home(&self, v: Vertex) -> MachineIdx {
        self.part.home(v)
    }

    /// The shared partition.
    #[inline]
    pub fn part(&self) -> &Arc<Partition> {
        &self.part
    }

    /// Local indices of the hosted out-neighbors of `u`, ascending, or
    /// `None` if no out-neighbor of `u` lives here. Only populated by
    /// directed builds; this is the receiver side of heavy
    /// cross-partition traffic (lines 31–36 of Algorithm 1). `u` may be
    /// hosted here itself: a heavy vertex's own machine looks up its own
    /// share the same way. One bucket of the receiver index (module
    /// docs) is searched, not every source.
    #[inline]
    pub fn host_targets(&self, u: Vertex) -> Option<&[u32]> {
        self.host.targets(u)
    }

    /// Heap bytes held by the [`Self::host_targets`] index: about 9 per
    /// indexed arc on a directed build, none on an undirected one.
    pub fn host_index_bytes(&self) -> usize {
        self.host.bytes()
    }

    /// Total adjacency endpoints stored here — machine `i`'s RVP input
    /// size, the `O~(m/k + Δ)` quantity of Klauck et al.'s Lemma 4.1.
    #[inline]
    pub fn edge_endpoints(&self) -> usize {
        self.neighbors.len()
    }

    /// Iterator over `(vertex, neighbors)` pairs in local-index order.
    pub fn iter(&self) -> impl Iterator<Item = (Vertex, &[Vertex])> + '_ {
        self.vertices()
            .iter()
            .enumerate()
            .map(move |(j, &v)| (v, self.neighbors(j)))
    }
}

/// All `k` [`LocalGraph`]s of one distributed input, plus the balance
/// diagnostics recorded during the fused build.
#[derive(Debug, Clone, PartialEq)]
pub struct DistGraph {
    locals: Vec<LocalGraph>,
    edge_loads: Vec<usize>,
    /// Precomputed at build time so the accessors are total functions:
    /// `Partition` guarantees `k >= 1`, and storing the validated stats
    /// keeps that guarantee in the type instead of re-proving it with an
    /// `expect` on every call.
    vertex_stats: LoadStats,
    edge_stats: LoadStats,
}

impl DistGraph {
    /// Assembles a distributed graph, computing the balance stats once.
    /// Total: the empty-`k` arm is unreachable (`Partition` asserts
    /// `k >= 1`), and `split_first().unwrap_or` keeps it panic-free.
    pub(crate) fn assemble(locals: Vec<LocalGraph>, edge_loads: Vec<usize>) -> Self {
        let vertex_loads: Vec<usize> = locals.iter().map(|l| l.vertices().len()).collect();
        let (&vf, vr) = vertex_loads.split_first().unwrap_or((&0, &[]));
        let (&ef, er) = edge_loads.split_first().unwrap_or((&0, &[]));
        let vertex_stats = LoadStats::from_split(vf, vr);
        let edge_stats = LoadStats::from_split(ef, er);
        DistGraph {
            locals,
            edge_loads,
            vertex_stats,
            edge_stats,
        }
    }
    /// Number of machines.
    #[inline]
    pub fn k(&self) -> usize {
        self.locals.len()
    }

    /// Number of vertices of the *global* graph.
    #[inline]
    pub fn n(&self) -> usize {
        self.locals.first().map_or(0, LocalGraph::global_n)
    }

    /// The per-machine locals, indexed by machine.
    #[inline]
    pub fn locals(&self) -> &[LocalGraph] {
        &self.locals
    }

    /// Consumes the distributed graph, yielding the per-machine locals.
    #[inline]
    pub fn into_locals(self) -> Vec<LocalGraph> {
        self.locals
    }

    /// Per-machine edge loads recorded during the build: the total
    /// (out-)degree of each machine's hosted vertices — full degree for
    /// undirected/weighted builds, out-degree for directed builds (the
    /// stored adjacency; the in-edge-derived `host_targets` index is not
    /// counted).
    #[inline]
    pub fn edge_loads(&self) -> &[usize] {
        &self.edge_loads
    }

    /// Vertex-load statistics (the `Θ~(n/k)` claim of Section 1.1),
    /// computed once at build time — no `expect`, no recomputation.
    pub fn vertex_balance(&self) -> LoadStats {
        self.vertex_stats
    }

    /// Edge-load statistics (the `O~(m/k + Δ)` input bound of Klauck et
    /// al.'s Lemma 4.1) over [`Self::edge_loads`] — no second scan of the
    /// global graph. For directed builds this is an *out-degree* load
    /// (see `edge_loads`), not the undirected total degree.
    pub fn edge_balance(&self) -> LoadStats {
        self.edge_stats
    }
}

/// Builds all `k` [`LocalGraph`]s of a partitioned input in one fused
/// pass over the global graph.
#[derive(Debug, Clone, Copy)]
pub struct DistGraphBuilder<'a> {
    part: &'a Arc<Partition>,
}

impl<'a> DistGraphBuilder<'a> {
    /// A builder distributing over `part`'s machines.
    pub fn new(part: &'a Arc<Partition>) -> Self {
        DistGraphBuilder { part }
    }

    /// Empty per-machine shells plus the shared global→local index
    /// (one `Arc<[u32]>` for all machines, not `k` hash maps). Shared
    /// with the streaming builder in [`crate::stream`].
    pub(crate) fn shells(&self, n: usize) -> Vec<LocalGraph> {
        let part = self.part;
        let k = part.k();
        let mut local_of = vec![0u32; n];
        let mut counts = vec![0u32; k];
        for (v, slot) in local_of.iter_mut().enumerate() {
            let h = part.home(v as Vertex);
            *slot = counts[h];
            counts[h] += 1;
        }
        let local_of: Arc<[u32]> = local_of.into();
        (0..k)
            .map(|i| LocalGraph {
                me: i,
                n,
                part: Arc::clone(part),
                local_of: Arc::clone(&local_of),
                offsets: vec![0],
                neighbors: Vec::new(),
                weights: Vec::new(),
                weighted: false,
                host: HostIndex::default(),
            })
            .collect()
    }

    /// Distributes an undirected graph: machine `i` receives its hosted
    /// vertices with their full adjacency lists.
    ///
    /// # Panics
    /// Panics if `g.n() != part.n()`.
    pub fn undirected(&self, g: &CsrGraph) -> DistGraph {
        assert_eq!(g.n(), self.part.n(), "partition size mismatch");
        let mut locals = self.shells(g.n());
        let edge_loads = self.presize(&mut locals, |v| g.degree(v));
        for v in g.vertices() {
            let l = &mut locals[self.part.home(v)];
            l.neighbors.extend_from_slice(g.neighbors(v));
            l.offsets.push(l.neighbors.len());
        }
        DistGraph::assemble(locals, edge_loads)
    }

    /// Distributes a weighted graph: adjacency plus aligned weights.
    ///
    /// # Panics
    /// Panics if `g.n() != part.n()`.
    pub fn weighted(&self, g: &WeightedGraph) -> DistGraph {
        assert_eq!(g.n(), self.part.n(), "partition size mismatch");
        let mut locals = self.shells(g.n());
        let edge_loads = self.presize(&mut locals, |v| g.degree(v));
        for (i, l) in locals.iter_mut().enumerate() {
            l.weighted = true;
            l.weights.reserve(edge_loads[i]);
        }
        for v in 0..g.n() as Vertex {
            let l = &mut locals[self.part.home(v)];
            l.neighbors.extend_from_slice(g.neighbors(v));
            l.weights.extend_from_slice(g.neighbor_weights(v));
            l.offsets.push(l.neighbors.len());
        }
        DistGraph::assemble(locals, edge_loads)
    }

    /// Distributes a digraph: machine `i` receives its hosted vertices
    /// with their *out*-adjacency (what RVP grants the home machine) plus
    /// the precomputed [`LocalGraph::host_targets`] receiver map derived
    /// from the hosted vertices' in-edges.
    ///
    /// # Panics
    /// Panics if `g.n() != part.n()`.
    pub fn directed(&self, g: &DiGraph) -> DistGraph {
        assert_eq!(g.n(), self.part.n(), "partition size mismatch");
        let k = self.part.k();
        let mut locals = self.shells(g.n());
        let edge_loads = self.presize(&mut locals, |v| g.out_degree(v));
        // `(source, hosted local target)` pairs per machine, one per
        // in-arc of a hosted vertex — hosted sources included.
        let mut pairs: Vec<Vec<(Vertex, u32)>> = vec![Vec::new(); k];
        for v in g.vertices() {
            let h = self.part.home(v);
            let l = &mut locals[h];
            l.neighbors.extend_from_slice(g.out_neighbors(v));
            l.offsets.push(l.neighbors.len());
            let j = l.local_of[v as usize];
            for &u in g.in_neighbors(v) {
                pairs[h].push((u, j));
            }
        }
        finalize_host_pairs(&mut locals, pairs);
        DistGraph::assemble(locals, edge_loads)
    }

    /// Computes per-machine edge loads and reserves each shell's flat
    /// arrays so the fill sweep never reallocates.
    fn presize(
        &self,
        locals: &mut [LocalGraph],
        degree_of: impl Fn(Vertex) -> usize,
    ) -> Vec<usize> {
        let part = self.part;
        let mut edge_loads = vec![0usize; part.k()];
        for v in 0..part.n() as Vertex {
            edge_loads[part.home(v)] += degree_of(v);
        }
        for (i, l) in locals.iter_mut().enumerate() {
            l.offsets.reserve(part.members(i).len());
            l.neighbors.reserve(edge_loads[i]);
        }
        edge_loads
    }
}

/// Fewest arcs per bucket of [`HostIndex`]'s directory, on average: the
/// bucket width is a power of two, so the average lands between this and
/// twice this.
const ARCS_PER_BUCKET: usize = 4;

/// One machine's receiver index: every arc `u → v` into a hosted `v`, as
/// two aligned per-arc arrays `(u, local index of v)` sorted by source
/// and then target, plus a bucket directory over `u >> shift`. The
/// shift is the smallest that leaves at most one bucket per
/// [`ARCS_PER_BUCKET`] arcs, so the directory costs ≤ 1 byte per arc and
/// never an entry per vertex of the global graph; a lookup searches one
/// bucket. 4 + 4 bytes per arc plus the directory: ≈ 9 bytes per arc.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct HostIndex {
    src: Vec<Vertex>,
    tgt: Vec<u32>,
    /// Bucket `b` is `src[dir[b]..dir[b + 1]]`, the arcs whose source
    /// has `source >> shift == b`.
    dir: Vec<u32>,
    shift: u32,
}

impl HostIndex {
    /// Indexes the sorted, duplicate-free `(source, local target)` arcs
    /// of an `n`-vertex input; an empty list allocates nothing.
    ///
    /// # Panics
    /// Panics if there are `u32::MAX` arcs or more.
    fn new(n: usize, arcs: &[(Vertex, u32)]) -> Self {
        if arcs.is_empty() {
            return HostIndex::default();
        }
        assert!(
            arcs.len() < u32::MAX as usize,
            "receiver index exceeds u32 arcs"
        );
        let buckets = arcs.len().div_ceil(ARCS_PER_BUCKET) as u64;
        let top = n.saturating_sub(1) as u64;
        let mut shift = 0;
        while top >> shift >= buckets {
            shift += 1;
        }
        let mut dir = vec![0u32; (top >> shift) as usize + 2];
        for &(u, _) in arcs {
            dir[(u64::from(u) >> shift) as usize + 1] += 1;
        }
        for b in 1..dir.len() {
            dir[b] += dir[b - 1];
        }
        HostIndex {
            src: arcs.iter().map(|&(u, _)| u).collect(),
            tgt: arcs.iter().map(|&(_, j)| j).collect(),
            dir,
            shift,
        }
    }

    #[inline]
    fn targets(&self, u: Vertex) -> Option<&[u32]> {
        let b = (u64::from(u) >> self.shift) as usize;
        let (lo, hi) = (*self.dir.get(b)? as usize, *self.dir.get(b + 1)? as usize);
        let bucket = &self.src[lo..hi];
        let at = bucket.partition_point(|&s| s < u);
        let len = bucket[at..].partition_point(|&s| s == u);
        (len > 0).then(|| &self.tgt[lo + at..lo + at + len])
    }

    fn bytes(&self) -> usize {
        (self.src.capacity() + self.tgt.capacity() + self.dir.capacity()) * 4
    }
}

/// Sorts each machine's `(source, hosted local target)` pairs — by
/// source, and within a source in ascending local-index (= ascending
/// hosted vertex id) order — into its [`HostIndex`]. Duplicate pairs
/// collapse; a streamed arc may repeat, while a [`DiGraph`]'s arcs are
/// already unique. Shared with the streaming builder in
/// [`crate::stream`], so both directed builds index alike.
pub(crate) fn finalize_host_pairs(locals: &mut [LocalGraph], pairs: Vec<Vec<(Vertex, u32)>>) {
    for (l, mut p) in locals.iter_mut().zip(pairs) {
        p.sort_unstable();
        p.dedup();
        l.host = HostIndex::new(l.n, &p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{classic, gnp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn star_dist(k: usize) -> DistGraph {
        let g = classic::star(10);
        let part = Arc::new(Partition::by_hash(10, k, 3));
        DistGraphBuilder::new(&part).undirected(&g)
    }

    #[test]
    fn locals_cover_vertices_and_endpoints() {
        let d = star_dist(4);
        let hosted: usize = d.locals().iter().map(LocalGraph::hosted).sum();
        assert_eq!(hosted, 10);
        let endpoints: usize = d.locals().iter().map(LocalGraph::edge_endpoints).sum();
        assert_eq!(endpoints, 2 * 9);
        assert_eq!(d.edge_loads().iter().sum::<usize>(), 2 * 9);
    }

    #[test]
    fn local_index_roundtrips() {
        let d = star_dist(3);
        for l in d.locals() {
            for (j, &v) in l.vertices().iter().enumerate() {
                assert_eq!(l.local(v), Some(j));
                assert_eq!(l.vertex(j), v);
            }
            // Vertices hosted elsewhere resolve to None.
            for v in 0..10 {
                if l.home(v) != l.machine() {
                    assert_eq!(l.local(v), None);
                }
            }
        }
    }

    #[test]
    fn adjacency_matches_global_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = gnp(60, 0.2, &mut rng);
        let part = Arc::new(Partition::by_hash(60, 7, 1));
        let d = DistGraphBuilder::new(&part).undirected(&g);
        for l in d.locals() {
            for (v, ns) in l.iter() {
                assert_eq!(ns, g.neighbors(v));
            }
        }
    }

    #[test]
    fn weighted_build_aligns_weights() {
        let g = WeightedGraph::from_weighted_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, 3)],
            &[1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        let part = Arc::new(Partition::from_assignment(2, vec![0, 1, 0, 1]));
        let d = DistGraphBuilder::new(&part).weighted(&g);
        for l in d.locals() {
            assert!(l.is_weighted());
            for (j, &v) in l.vertices().iter().enumerate() {
                assert_eq!(l.neighbors(j), g.neighbors(v));
                assert_eq!(l.neighbor_weights(j), g.neighbor_weights(v));
            }
        }
    }

    #[test]
    fn directed_build_out_edges_and_host_targets() {
        // 0 -> 1, 0 -> 2, 3 -> 0, 1 -> 2
        let g = DiGraph::from_arcs(4, &[(0, 1), (0, 2), (3, 0), (1, 2)]);
        let part = Arc::new(Partition::from_assignment(2, vec![0, 1, 1, 0]));
        let d = DistGraphBuilder::new(&part).directed(&g);
        let m0 = &d.locals()[0];
        assert_eq!(m0.vertices(), &[0, 3]);
        assert_eq!(m0.neighbors(0), &[1, 2]); // out-edges of 0
        assert_eq!(m0.neighbors(1), &[0]); // out-edges of 3
                                           // Machine 0 hosts 0 (local 0): its only in-neighbor is 3.
        assert_eq!(m0.host_targets(3), Some(&[0u32][..]));
        assert_eq!(m0.host_targets(1), None);
        // Machine 1 hosts 1 (local 0) and 2 (local 1): sources 0 and 1.
        let m1 = &d.locals()[1];
        assert_eq!(m1.host_targets(0), Some(&[0u32, 1][..]));
        assert_eq!(m1.host_targets(1), Some(&[1u32][..]));
        assert_eq!(m1.host_targets(2), None);
    }

    #[test]
    fn balance_stats_match_partition_diagnostics() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = gnp(200, 0.1, &mut rng);
        let part = Arc::new(Partition::by_hash(200, 8, 2));
        let d = DistGraphBuilder::new(&part).undirected(&g);
        let want_v = crate::partition::balance::vertex_balance(&part);
        let want_e = crate::partition::balance::edge_balance(&g, &part).unwrap();
        assert_eq!(d.vertex_balance(), want_v);
        assert_eq!(d.edge_balance(), want_e);
    }

    #[test]
    fn empty_graph_and_single_machine() {
        let g = CsrGraph::from_edges(0, &[]);
        let part = Arc::new(Partition::from_assignment(3, vec![]));
        let d = DistGraphBuilder::new(&part).undirected(&g);
        assert_eq!((d.k(), d.n()), (3, 0));
        for l in d.locals() {
            assert_eq!(l.hosted(), 0);
            assert_eq!(l.edge_endpoints(), 0);
        }
        let g1 = classic::complete(5);
        let part1 = Arc::new(Partition::round_robin(5, 1));
        let d1 = DistGraphBuilder::new(&part1).undirected(&g1);
        assert_eq!((d1.n(), d1.locals()[0].hosted()), (5, 5));
    }

    #[test]
    #[should_panic(expected = "partition size mismatch")]
    fn rejects_mismatched_partition() {
        let g = classic::path(4);
        let part = Arc::new(Partition::by_hash(5, 2, 1));
        let _ = DistGraphBuilder::new(&part).undirected(&g);
    }
}
