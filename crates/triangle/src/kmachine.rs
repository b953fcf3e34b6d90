//! The `O~(m/k^{5/3} + n/k^{4/3})` triangle enumeration algorithm
//! (Theorem 5, Section 3.2), generalizing Dolev–Lenzen–Peled's
//! "Tri, tri again" partition to `k ≪ n` machines.
//!
//! **Color partition.** A shared hash colors every vertex with one of
//! `q = Θ(k^{1/3})` colors, splitting `V` into `q` classes of `O~(n/q)`
//! vertices. Every *multiset* `{a,b,c}` of colors is assigned to a
//! distinct machine (there are `C(q+2,3) ≤ k` of them; `q` is chosen
//! maximal). The machine owning `{a,b,c}` collects every edge whose
//! endpoint colors are a sub-multiset and enumerates exactly the
//! triangles whose color multiset equals `{a,b,c}` — so each triangle is
//! reported by exactly one machine, and each edge is replicated to at
//! most `q = O(k^{1/3})` machines (the count in the proof of Theorem 5):
//! a row of the color-pair table [`ColorScheme::machines_for_pair`]
//! reads from, built once per run, holds the owners of `{a,b,x}` for
//! the `q` values of `x`.
//!
//! **Edge proxies and the designation rule.** Edges travel via a
//! uniformly random *proxy* machine (randomized proxy computation,
//! Section 1.3), which spreads the `m·k^{1/3}` re-routing messages evenly.
//! Who sends an edge to its proxy follows the paper's *proxy assignment
//! rule*: a machine hosting a vertex `v` of degree ≥ `2k·log n` broadcasts
//! a designation request, and the machines hosting `v`'s neighbors send
//! those edges instead (ties between two high-degree endpoints broken by
//! a shared coin) — this is what removes the `Δ/k` term from the runtime.
//!
//! Phases are separated by the same FIFO flush barrier as the PageRank
//! protocol: one [`Staged`] stage per phase, messages tagged with the
//! phase number.

use crate::radix::radix_sort_by_key;
use km_core::router::{Staged, Stages};
use km_core::{
    id_bits, run_algorithm, BitReader, BitSink, CodecError, KmAlgorithm, Metrics, NetConfig,
    Outbox, RoundCtx, Runner, WireCodec,
};
use km_core::{rng::keyed_hash, MachineIdx};
use km_graph::ids::Triangle;
use km_graph::{CsrGraph, DistGraph, DistGraphBuilder, Edge, LocalGraph, Partition, Vertex};
use std::sync::Arc;

const COLOR_SALT: u64 = 0x7A11_AC0F_F1CE_0001;
const PROXY_SALT: u64 = 0x7A11_AC0F_F1CE_0002;
const TIE_SALT: u64 = 0x7A11_AC0F_F1CE_0003;

/// Canonical 64-bit key of an edge (for hashing and sorting).
#[inline]
pub(crate) fn edge_key(e: Edge) -> u64 {
    ((e.u as u64) << 32) | e.v as u64
}

/// An edge off the wire. No sender produces `u ≥ v` (`Edge::new`
/// canonicalises), and the enumeration kernel's input contract depends
/// on it, so such a pair is rejected where it enters.
pub(crate) fn decoded_edge(u: u64, v: u64) -> Result<Edge, CodecError> {
    if u >= v {
        return Err(CodecError::Invalid {
            what: "non-canonical edge",
            value: u,
        });
    }
    Ok(Edge {
        u: u as Vertex,
        v: v as Vertex,
    })
}

/// The shared color scheme: `q` colors and the multiset-triplet → machine
/// assignment, identically computable on every machine from `k` alone.
/// Both routing questions — who owns a triplet, who must see a color
/// pair — are tables built once per run.
#[derive(Debug, Clone)]
pub struct ColorScheme {
    q: usize,
    triplets: Vec<[u8; 3]>,
    /// Dense `q³` index ([`Self::slot`]): the owner of the multiset
    /// `{a, b, c}`, whatever order the colors come in.
    owner: Vec<MachineIdx>,
    /// CSR over the `q²` ordered color pairs: the machines of pair
    /// `(a, b)` are `pair_machines[pair_offsets[a·q + b]..pair_offsets[a·q + b + 1]]`.
    pair_offsets: Vec<usize>,
    pair_machines: Vec<MachineIdx>,
}

impl ColorScheme {
    /// Builds the scheme for `k` machines: the largest `q` with
    /// `C(q+2,3) ≤ k` (so `q ≥ ⌊k^{1/3}⌋`), triplets enumerated in
    /// lexicographic order.
    pub fn for_machines(k: usize) -> Self {
        assert!(k >= 1, "need at least one machine");
        let mut q = 1usize;
        while (q + 1) * (q + 2) * (q + 3) / 6 <= k {
            q += 1;
        }
        let mut triplets = Vec::new();
        let mut owner: Vec<MachineIdx> = Vec::with_capacity(q * q * q);
        // Lexicographic order is index order, and a sorted triple comes
        // before its permutations: it is numbered when first met, and
        // they copy its number.
        for a in 0..q as u8 {
            for b in 0..q as u8 {
                for c in 0..q as u8 {
                    let mut t = [a, b, c];
                    t.sort_unstable();
                    if t == [a, b, c] {
                        owner.push(triplets.len());
                        triplets.push(t);
                    } else {
                        owner.push(owner[Self::slot(q, t)]);
                    }
                }
            }
        }
        // Row (ca, cb): owners of {ca, cb, x} for x = 0..q, first
        // occurrence kept — the order the re-route hop emits in.
        let mut pair_offsets = vec![0];
        let mut pair_machines: Vec<MachineIdx> = Vec::new();
        for pair in owner.chunks(q) {
            let row = pair_machines.len();
            for &m in pair {
                if !pair_machines[row..].contains(&m) {
                    pair_machines.push(m);
                }
            }
            pair_offsets.push(pair_machines.len());
        }
        ColorScheme {
            q,
            triplets,
            owner,
            pair_offsets,
            pair_machines,
        }
    }

    /// Where the dense index keeps the owner of colors `a, b, c`, in
    /// that order.
    #[inline]
    fn slot(q: usize, [a, b, c]: [u8; 3]) -> usize {
        (a as usize * q + b as usize) * q + c as usize
    }

    /// Number of colors `q`.
    pub fn colors(&self) -> usize {
        self.q
    }

    /// Number of machines that own a triplet.
    pub fn triplet_machines(&self) -> usize {
        self.triplets.len()
    }

    /// The triplet owned by `machine`, if any.
    pub fn triplet_of(&self, machine: MachineIdx) -> Option<[u8; 3]> {
        self.triplets.get(machine).copied()
    }

    /// The color of vertex `v` under the shared seed.
    #[inline]
    pub fn color(&self, shared_seed: u64, v: Vertex) -> u8 {
        (keyed_hash(shared_seed ^ COLOR_SALT, v as u64) % self.q as u64) as u8
    }

    /// The machines whose triplet contains the (multiset) color pair
    /// `{ca, cb}` — at most `q` of them; exactly the machines that must
    /// receive an edge with these endpoint colors. Ordered as the owners
    /// of `{ca, cb, x}` for `x = 0..q`, duplicates dropped.
    #[inline]
    pub fn machines_for_pair(&self, ca: u8, cb: u8) -> &[MachineIdx] {
        let p = ca as usize * self.q + cb as usize;
        &self.pair_machines[self.pair_offsets[p]..self.pair_offsets[p + 1]]
    }

    /// The unique machine that enumerates a triangle with these endpoint
    /// colors.
    #[inline]
    pub fn owner_of(&self, c1: u8, c2: u8, c3: u8) -> MachineIdx {
        self.owner[Self::slot(self.q, [c1, c2, c3])]
    }
}

/// Message payload of the triangle protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriPayload {
    /// "My vertex `v` has high degree — you designate its edges' proxies."
    HdRequest {
        /// The high-degree vertex.
        v: Vertex,
    },
    /// An edge on its way to its proxy.
    ToProxy {
        /// The edge.
        e: Edge,
    },
    /// An edge re-routed from its proxy to a triplet machine.
    ToMachine {
        /// The edge.
        e: Edge,
    },
    /// Phase-completion barrier marker.
    Flush,
}

/// A phase-tagged message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriMsg {
    /// The sender's phase when emitting (receivers buffer ahead-of-phase
    /// messages; drift is at most one phase).
    pub phase: u8,
    /// The payload.
    pub payload: TriPayload,
    /// Vertex-id width, `id_bits(n)` (0 for a `Flush`, which has none).
    idb: u8,
}

impl TriMsg {
    fn hd(n: usize, phase: u8, v: Vertex) -> Self {
        TriMsg {
            phase,
            payload: TriPayload::HdRequest { v },
            idb: id_bits(n) as u8,
        }
    }
    fn to_proxy(n: usize, phase: u8, e: Edge) -> Self {
        TriMsg {
            phase,
            payload: TriPayload::ToProxy { e },
            idb: id_bits(n) as u8,
        }
    }
    fn to_machine(n: usize, phase: u8, e: Edge) -> Self {
        TriMsg {
            phase,
            payload: TriPayload::ToMachine { e },
            idb: id_bits(n) as u8,
        }
    }
    fn flush(phase: u8) -> Self {
        TriMsg {
            phase,
            payload: TriPayload::Flush,
            idb: 0,
        }
    }
}

/// Layout: phase (2, the protocol has 4 phases) · tag (2) · body; ids
/// take `remaining / fields` bits, and `Flush` pads with 4 zero bits to
/// its historical 8-bit cost. The explicit tag keeps `ToProxy` /
/// `ToMachine` (same width) and `HdRequest` / `Flush` (colliding at
/// `id_bits = 4`) distinguishable on the wire.
impl WireCodec for TriMsg {
    fn encode<S: BitSink>(&self, w: &mut S) {
        w.put(u64::from(self.phase), 2);
        let idb = u32::from(self.idb);
        match self.payload {
            TriPayload::HdRequest { v } => {
                w.put(0, 2);
                w.put(u64::from(v), idb);
            }
            TriPayload::ToProxy { e } => {
                w.put(1, 2);
                w.put(u64::from(e.u), idb);
                w.put(u64::from(e.v), idb);
            }
            TriPayload::ToMachine { e } => {
                w.put(2, 2);
                w.put(u64::from(e.u), idb);
                w.put(u64::from(e.v), idb);
            }
            TriPayload::Flush => {
                w.put(3, 2);
                w.put(0, 4);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let phase = r.take(2)? as u8;
        let tag = r.take(2)?;
        let fields = match tag {
            0 => 1,
            1 | 2 => 2,
            _ => {
                r.take(4)?;
                return Ok(TriMsg::flush(phase));
            }
        };
        let rem = r.remaining();
        if !rem.is_multiple_of(fields) || !(1..=32).contains(&(rem / fields)) {
            return Err(CodecError::Invalid {
                what: "triangle message body width",
                value: rem,
            });
        }
        let idb = (rem / fields) as u8;
        let width = u32::from(idb);
        let payload = match tag {
            0 => TriPayload::HdRequest {
                v: r.take(width)? as Vertex,
            },
            _ => {
                let e = decoded_edge(r.take(width)?, r.take(width)?)?;
                if tag == 1 {
                    TriPayload::ToProxy { e }
                } else {
                    TriPayload::ToMachine { e }
                }
            }
        };
        Ok(TriMsg {
            phase,
            payload,
            idb,
        })
    }
}

/// Tuning knobs of the protocol.
#[derive(Debug, Clone, Copy)]
pub struct TriConfig {
    /// Degree threshold for the designation-request rule; `None` uses the
    /// paper's `2·k·log₂ n`.
    pub degree_threshold: Option<usize>,
    /// Also enumerate open triads (Section 1.2 notes the bounds extend).
    pub enumerate_triads: bool,
    /// Route edges through random proxies (the paper's randomized proxy
    /// computation). `false` sends designated edges straight to their
    /// triplet machines — the ablation showing why the extra hop exists.
    pub use_proxies: bool,
}

impl Default for TriConfig {
    fn default() -> Self {
        TriConfig {
            degree_threshold: None,
            enumerate_triads: false,
            use_proxies: true,
        }
    }
}

/// One machine of the Theorem 5 protocol.
#[derive(Debug)]
pub struct KmTriangle {
    n: usize,
    /// This machine's RVP input (hosted vertices + adjacency + partition).
    lg: LocalGraph,
    /// Built once per run, shared by all `k` machines.
    scheme: Arc<ColorScheme>,
    threshold: usize,
    cfg: TriConfig,
    /// Globally-known high-degree vertices (mine + received requests),
    /// sorted at the phase-0 barrier for `designator`'s probes.
    hd: Vec<Vertex>,
    /// Edges this machine proxies.
    proxy_edges: Vec<Edge>,
    /// Edges received for my triplet: pushed on arrival, sorted and
    /// deduplicated once at the phase-2 barrier.
    recv_edges: Vec<Edge>,
    /// Triangles this machine enumerated (exactly the triangles whose
    /// color multiset equals this machine's triplet).
    pub triangles: Vec<Triangle>,
    /// Open triads enumerated (only when `cfg.enumerate_triads`), as
    /// `(center, a, b)` with `a < b` and edge `{a,b}` absent.
    pub open_triads: Vec<(Vertex, Vertex, Vertex)>,
}

impl KmTriangle {
    /// Builds one protocol instance per machine from the distributed
    /// input (the Section 1.1 shape).
    pub fn build_all(dist: DistGraph, cfg: TriConfig) -> Vec<Staged<KmTriangle, 0>> {
        let (n, k) = (dist.n(), dist.k());
        let scheme = Arc::new(ColorScheme::for_machines(k));
        let threshold = cfg
            .degree_threshold
            .unwrap_or_else(|| (2.0 * k as f64 * (n.max(2) as f64).log2()).ceil() as usize);
        dist.into_locals()
            .into_iter()
            .map(|lg| {
                Staged::new(KmTriangle {
                    n,
                    lg,
                    scheme: Arc::clone(&scheme),
                    threshold,
                    cfg,
                    hd: Vec::new(),
                    proxy_edges: Vec::new(),
                    recv_edges: Vec::new(),
                    triangles: Vec::new(),
                    open_triads: Vec::new(),
                })
            })
            .collect()
    }

    /// The shared color scheme (for tests and experiments).
    pub fn scheme(&self) -> &ColorScheme {
        &self.scheme
    }

    /// Phase 0: broadcast designation requests for high-degree vertices.
    fn phase0(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<TriMsg>) {
        for (j, &v) in self.lg.vertices().iter().enumerate() {
            if self.lg.neighbors(j).len() >= self.threshold {
                self.hd.push(v);
                out.broadcast(ctx.me, TriMsg::hd(self.n, 0, v));
            }
        }
    }

    /// The machine responsible for shipping edge `e` to its proxy,
    /// following the designation rule. Deterministic across machines
    /// because the HD set is global after phase 0.
    fn designator(&self, shared: u64, e: Edge) -> MachineIdx {
        let u_hd = self.hd.binary_search(&e.u).is_ok();
        let v_hd = self.hd.binary_search(&e.v).is_ok();
        match (u_hd, v_hd) {
            // v's request honored: u's home ships (and vice versa).
            (false, true) => self.lg.home(e.u),
            (true, false) => self.lg.home(e.v),
            // Tie: a shared coin picks which request wins.
            (true, true) => {
                if keyed_hash(shared ^ TIE_SALT, edge_key(e)) & 1 == 0 {
                    self.lg.home(e.v)
                } else {
                    self.lg.home(e.u)
                }
            }
            // No high-degree endpoint: the lower endpoint's home ships.
            (false, false) => self.lg.home(e.u),
        }
    }

    /// Phase 1: ship every edge I'm the designator of to its random proxy
    /// (or, in the ablation, straight to its triplet machines).
    fn phase1(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<TriMsg>) {
        let shared = ctx.shared_seed;
        let mut known = Vec::with_capacity(self.lg.edge_endpoints());
        for (v, ns) in self.lg.iter() {
            known.extend(ns.iter().map(|&w| Edge::new(v, w)));
        }
        // Ascending in (u, v): the emission order is part of the transcript.
        sort_dedup(&mut known);
        for e in known {
            if self.designator(shared, e) != ctx.me {
                continue;
            }
            if self.cfg.use_proxies {
                let proxy = km_core::router::proxy_of(shared ^ PROXY_SALT, edge_key(e), ctx.k);
                if proxy == ctx.me {
                    self.proxy_edges.push(e);
                } else {
                    out.send(proxy, TriMsg::to_proxy(self.n, 1, e));
                }
            } else {
                let ca = self.scheme.color(shared, e.u);
                let cb = self.scheme.color(shared, e.v);
                for &m in self.scheme.machines_for_pair(ca, cb) {
                    if m == ctx.me {
                        self.recv_edges.push(e);
                    } else {
                        out.send(m, TriMsg::to_machine(self.n, 1, e));
                    }
                }
            }
        }
    }

    /// Phase 2: as a proxy, re-route each edge to the machines whose
    /// triplet contains its color pair.
    fn phase2(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<TriMsg>) {
        let shared = ctx.shared_seed;
        let edges = std::mem::take(&mut self.proxy_edges);
        for e in edges {
            let ca = self.scheme.color(shared, e.u);
            let cb = self.scheme.color(shared, e.v);
            for &m in self.scheme.machines_for_pair(ca, cb) {
                if m == ctx.me {
                    self.recv_edges.push(e);
                } else {
                    out.send(m, TriMsg::to_machine(self.n, 2, e));
                }
            }
        }
    }

    /// Phase 3 (no messages, so not a stage): local enumeration over the
    /// received edges.
    fn phase3(&mut self, ctx: &RoundCtx<'_>) {
        let shared = ctx.shared_seed;
        let Some(mine) = self.scheme.triplet_of(ctx.me) else {
            return; // machines beyond the triplet count only proxied
        };
        sort_dedup(&mut self.recv_edges);
        self.triangles = owned_triangles(&self.scheme, shared, mine, &self.recv_edges);
        if self.cfg.enumerate_triads {
            let color = |v| self.scheme.color(shared, v);
            self.open_triads = enumerate_triads_within(&self.recv_edges, |c, a, b| {
                owns(mine, [color(c), color(a), color(b)])
            });
        }
    }
}

/// The phase-3 filter: do these three colors form the multiset `mine`?
fn owns(mine: [u8; 3], mut colors: [u8; 3]) -> bool {
    colors.sort_unstable();
    colors == mine
}

/// What the machine owning triplet `mine` enumerates from the edges it
/// received: the triangles within `edges` whose color multiset is `mine`.
fn owned_triangles(
    scheme: &ColorScheme,
    shared: u64,
    mine: [u8; 3],
    edges: &[Edge],
) -> Vec<Triangle> {
    let color = |v| scheme.color(shared, v);
    enumerate_within(edges, color, |&a, &b, &c| owns(mine, [a, b, c]))
}

/// Sorts an edge buffer ascending in `(u, v)` and drops duplicates: set
/// semantics, paid once per buffer instead of once per insertion. The
/// sort is a radix sort by [`edge_key`] — a few linear passes, not
/// `O(m log m)` comparisons — with `sort_unstable`'s exact result.
pub(crate) fn sort_dedup(edges: &mut Vec<Edge>) {
    radix_sort_by_key(edges, |e| edge_key(*e));
    edges.dedup();
}

/// Three stages tagged 0–2 with nothing to aggregate: the flush is a
/// bare marker.
impl Stages<0> for KmTriangle {
    type Msg = TriMsg;

    fn tag(msg: &TriMsg) -> u8 {
        msg.phase
    }

    fn tag_of_stage(stage: u64) -> u8 {
        stage as u8
    }

    fn flush(&self, tag: u8, []: [u64; 0]) -> TriMsg {
        TriMsg::flush(tag)
    }

    fn apply(
        &mut self,
        _ctx: &mut RoundCtx<'_>,
        _src: MachineIdx,
        msg: TriMsg,
    ) -> Option<[u64; 0]> {
        match msg.payload {
            TriPayload::HdRequest { v } => self.hd.push(v),
            TriPayload::ToProxy { e } => self.proxy_edges.push(e),
            TriPayload::ToMachine { e } => self.recv_edges.push(e),
            TriPayload::Flush => return Some([]),
        }
        None
    }

    fn enter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<TriMsg>, tag: u8) -> [u64; 0] {
        match tag {
            0 => self.phase0(ctx, out),
            1 => self.phase1(ctx, out),
            _ => self.phase2(ctx, out),
        }
        []
    }

    /// After the phase-0 barrier the HD set is global; after the phase-2
    /// barrier every edge is at its triplet machines: enumerate locally,
    /// done.
    fn complete(&mut self, ctx: &mut RoundCtx<'_>, tag: u8, []: [u64; 0]) -> bool {
        if tag == 0 {
            self.hd.sort_unstable();
        }
        if tag < 2 {
            return true;
        }
        self.phase3(ctx);
        false
    }
}

/// Enumerates the triangles within an edge list, filtered by `accept`
/// over a `key` computed once per touched vertex (each triangle reported
/// once, ascending). `edges` must be canonical (`u < v`), sorted and
/// deduplicated — [`sort_dedup`] over `Edge::new` or decoded edges. Touched
/// vertices are relabelled `0..t` in ascending order, so the list stays
/// sorted and *is* the forward adjacency `N⁺(u) = {v > u}` in CSR order.
/// Each `u` stamps `N⁺(u)` into a `t`-entry array, then probes `N⁺(v)` for
/// each `v ∈ N⁺(u)`: every `w ∈ N⁺(v)` exceeds `v`, so a stamped `w` is a
/// triangle `(u, v, w)`, met in ascending order. That is
/// `O(d⁺(u) + Σ_{v ∈ N⁺(u)} d⁺(v))` per `u`, linear in a hub's degree.
/// Off contract the result is meaningless but stays in bounds.
pub(crate) fn enumerate_within<K>(
    edges: &[Edge],
    key: impl Fn(Vertex) -> K,
    accept: impl Fn(&K, &K, &K) -> bool,
) -> Vec<Triangle> {
    debug_assert!(
        edges.iter().all(|e| e.u < e.v) && edges.windows(2).all(|w| w[0] < w[1]),
        "edges must be canonical, sorted and deduplicated"
    );
    let mut verts: Vec<Vertex> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
    radix_sort_by_key(&mut verts, |&v| u64::from(v));
    verts.dedup();
    let keys: Vec<K> = verts.iter().map(|&v| key(v)).collect();
    let mut offsets = vec![0usize; verts.len() + 1];
    let mut fwd: Vec<u32> = Vec::with_capacity(edges.len());
    let mut u = 0;
    for e in edges {
        // Ascending `u`: a cursor finds its label, a search finds `v`'s.
        while verts[u] < e.u {
            u += 1;
        }
        offsets[u + 1] += 1;
        fwd.push(verts.partition_point(|&x| x < e.v) as u32);
    }
    for i in 0..verts.len() {
        offsets[i + 1] += offsets[i];
    }
    // `stamp[w] == u + 1` iff `w ∈ N⁺(u)` for the `u` being scanned.
    let mut stamp = vec![0u32; verts.len()];
    let mut out = Vec::new();
    for u in 0..verts.len() {
        let nu = &fwd[offsets[u]..offsets[u + 1]];
        let mark = u as u32 + 1;
        for &v in nu {
            stamp[v as usize] = mark;
        }
        for &v in nu {
            let v = v as usize;
            for &w in &fwd[offsets[v]..offsets[v + 1]] {
                let w = w as usize;
                if stamp[w] == mark && accept(&keys[u], &keys[v], &keys[w]) {
                    out.push(Triangle {
                        a: verts[u],
                        b: verts[v],
                        c: verts[w],
                    });
                }
            }
        }
    }
    out
}

/// Enumerates open triads `(center, a, b)` (two edges present, third
/// absent) within a sorted, deduplicated edge list, filtered by `accept`.
pub(crate) fn enumerate_triads_within(
    edges: &[Edge],
    accept: impl Fn(Vertex, Vertex, Vertex) -> bool,
) -> Vec<(Vertex, Vertex, Vertex)> {
    // Both directions of every edge, sorted: each run of equal first
    // components is one center with its neighbors ascending.
    let mut arcs: Vec<(Vertex, Vertex)> = edges
        .iter()
        .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
        .collect();
    radix_sort_by_key(&mut arcs, |&(c, a)| (u64::from(c) << 32) | u64::from(a));
    let mut out = Vec::new();
    for run in arcs.chunk_by(|x, y| x.0 == y.0) {
        let center = run[0].0;
        for (i, &(_, a)) in run.iter().enumerate() {
            for &(_, b) in &run[i + 1..] {
                if edges.binary_search(&Edge::new(a, b)).is_err() && accept(center, a, b) {
                    out.push((center, a, b));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// The globally assembled output of a [`DistributedTriangles`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriangleOutput {
    /// All triangles, sorted (each enumerated by exactly one machine).
    pub triangles: Vec<Triangle>,
    /// All open triads `(center, a, b)`, sorted (only populated when
    /// `TriConfig::enumerate_triads` is set).
    pub open_triads: Vec<(Vertex, Vertex, Vertex)>,
}

/// The Theorem 5 protocol as a [`KmAlgorithm`]: graph + partition +
/// `TriConfig` in, the global [`TriangleOutput`] out.
#[derive(Debug, Clone, Copy)]
pub struct DistributedTriangles<'a> {
    /// The input graph.
    pub g: &'a CsrGraph,
    /// The vertex partition (its `k` must match the runner's).
    pub part: &'a Arc<Partition>,
    /// Protocol knobs (designation threshold, triads, proxies).
    pub cfg: TriConfig,
}

impl KmAlgorithm for DistributedTriangles<'_> {
    type Machine = Staged<KmTriangle, 0>;
    type Output = TriangleOutput;

    fn build(&self, k: usize) -> Vec<Staged<KmTriangle, 0>> {
        assert_eq!(self.part.k(), k, "partition k must match the network k");
        KmTriangle::build_all(
            DistGraphBuilder::new(self.part).undirected(self.g),
            self.cfg,
        )
    }

    fn extract(&self, machines: Vec<Staged<KmTriangle, 0>>, _metrics: &Metrics) -> TriangleOutput {
        let mut triangles: Vec<Triangle> = machines
            .iter()
            .flat_map(|m| m.inner().triangles.iter().copied())
            .collect();
        triangles.sort_unstable();
        let mut open_triads: Vec<(Vertex, Vertex, Vertex)> = machines
            .iter()
            .flat_map(|m| m.inner().open_triads.iter().copied())
            .collect();
        open_triads.sort_unstable();
        TriangleOutput {
            triangles,
            open_triads,
        }
    }
}

/// Runs the Theorem 5 protocol end to end and returns the globally
/// assembled (sorted) triangle list plus transcript metrics. Thin
/// wrapper over [`run_algorithm`] with the default engine choice.
pub fn run_kmachine_triangles(
    g: &CsrGraph,
    part: &Arc<Partition>,
    cfg: TriConfig,
    net: NetConfig,
) -> Result<(Vec<Triangle>, km_core::Metrics), km_core::EngineError> {
    let outcome = run_algorithm(&DistributedTriangles { g, part, cfg }, Runner::new(net))?;
    Ok((outcome.output.triangles, outcome.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::enumerate_triangles;
    use km_core::EngineKind;
    use km_graph::generators::{classic, gnp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    fn net(k: usize, n: usize, seed: u64) -> NetConfig {
        NetConfig::polylog(k, n, seed).max_rounds(5_000_000)
    }

    fn dist(g: &CsrGraph, part: &Arc<Partition>) -> DistGraph {
        DistGraphBuilder::new(part).undirected(g)
    }

    #[test]
    fn color_scheme_shapes() {
        let s8 = ColorScheme::for_machines(8);
        assert_eq!(s8.colors(), 2);
        assert_eq!(s8.triplet_machines(), 4); // C(4,3)
        let s27 = ColorScheme::for_machines(27);
        assert_eq!(s27.colors(), 4); // C(6,3)=20 ≤ 27 < C(7,3)=35
        assert_eq!(s27.triplet_machines(), 20);
        let s1 = ColorScheme::for_machines(1);
        assert_eq!(s1.colors(), 1);
        assert_eq!(s1.triplet_machines(), 1);
    }

    #[test]
    fn every_pair_reaches_at_most_q_machines() {
        let s = ColorScheme::for_machines(64);
        let q = s.colors();
        for a in 0..q as u8 {
            for b in a..q as u8 {
                let ms = s.machines_for_pair(a, b);
                assert!(
                    !ms.is_empty() && ms.len() <= q,
                    "pair ({a},{b}): {}",
                    ms.len()
                );
                // The owner of any triangle containing the pair is reachable.
                for c in 0..q as u8 {
                    assert!(ms.contains(&s.owner_of(a, b, c)));
                }
            }
        }
    }

    #[test]
    fn enumerates_k4_exactly() {
        let g = classic::complete(4);
        let part = Arc::new(Partition::by_hash(4, 5, 3));
        let (ts, _) =
            run_kmachine_triangles(&g, &part, TriConfig::default(), net(5, 4, 1)).unwrap();
        assert_eq!(ts, enumerate_triangles(&g));
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for (n, p, k, seed) in [
            (40, 0.3, 4, 1u64),
            (60, 0.5, 9, 2),
            (50, 0.2, 16, 3),
            (30, 0.8, 7, 4),
        ] {
            let g = gnp(n, p, &mut rng);
            let part = Arc::new(Partition::by_hash(n, k, seed));
            let (ts, _) =
                run_kmachine_triangles(&g, &part, TriConfig::default(), net(k, n, seed)).unwrap();
            let want = enumerate_triangles(&g);
            assert_eq!(ts, want, "n={n} p={p} k={k}");
        }
    }

    #[test]
    fn each_triangle_enumerated_by_unique_owner() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let g = gnp(45, 0.4, &mut rng);
        let k = 11;
        let part = Arc::new(Partition::by_hash(45, k, 5));
        let machines = KmTriangle::build_all(dist(&g, &part), TriConfig::default());
        let report = Runner::new(net(k, 45, 5)).run(machines).unwrap();
        let mut seen = BTreeSet::new();
        for m in &report.machines {
            for t in &m.inner().triangles {
                assert!(seen.insert(*t), "triangle {t:?} reported twice");
            }
        }
        assert_eq!(seen.len(), enumerate_triangles(&g).len());
    }

    #[test]
    fn high_degree_designation_rule_fires() {
        // Star with a tiny threshold: the hub is high-degree, so leaves'
        // home machines must ship its edges. Add a triangle so output is
        // non-trivial.
        let mut edges: Vec<(Vertex, Vertex)> = (1..50).map(|v| (0, v)).collect();
        edges.push((1, 2));
        let g = CsrGraph::from_edges(50, &edges);
        let k = 6;
        let part = Arc::new(Partition::by_hash(50, k, 2));
        let cfg = TriConfig {
            degree_threshold: Some(5),
            enumerate_triads: false,
            use_proxies: true,
        };
        let machines = KmTriangle::build_all(dist(&g, &part), cfg);
        let report = Runner::new(net(k, 50, 8)).run(machines).unwrap();
        let mut all: Vec<Triangle> = report
            .machines
            .iter()
            .flat_map(|m| m.inner().triangles.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![Triangle::new(0, 1, 2)]);
        // The HD set must have propagated to every machine.
        for m in &report.machines {
            assert!(m.inner().hd.contains(&0));
        }
    }

    #[test]
    fn open_triads_match_sequential_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = gnp(25, 0.3, &mut rng);
        let k = 8;
        let part = Arc::new(Partition::by_hash(25, k, 4));
        let cfg = TriConfig {
            degree_threshold: None,
            enumerate_triads: true,
            use_proxies: true,
        };
        let machines = KmTriangle::build_all(dist(&g, &part), cfg);
        let report = Runner::new(net(k, 25, 6)).run(machines).unwrap();
        let mut got: Vec<(Vertex, Vertex, Vertex)> = report
            .machines
            .iter()
            .flat_map(|m| m.inner().open_triads.iter().copied())
            .collect();
        got.sort_unstable();
        let want = crate::triads::enumerate_open_triads(&g);
        assert_eq!(got, want);
    }

    #[test]
    fn proxyless_ablation_is_still_exact() {
        // Disabling proxies changes the routing pattern, not correctness.
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let g = gnp(45, 0.4, &mut rng);
        let k = 9;
        let part = Arc::new(Partition::by_hash(45, k, 6));
        let cfg = TriConfig {
            degree_threshold: None,
            enumerate_triads: false,
            use_proxies: false,
        };
        let (ts, _) = run_kmachine_triangles(&g, &part, cfg, net(k, 45, 7)).unwrap();
        assert_eq!(ts, enumerate_triangles(&g));
    }

    /// The threaded engine (the distributed worker pool) against the
    /// sequential reference.
    #[test]
    fn parallel_engine_matches_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let g = gnp(50, 0.3, &mut rng);
        let k = 9;
        let part = Arc::new(Partition::by_hash(50, k, 7));
        let netc = net(k, 50, 12);
        let seq = Runner::new(netc)
            .engine(EngineKind::Sequential)
            .run(KmTriangle::build_all(dist(&g, &part), TriConfig::default()))
            .unwrap();
        let threaded = Runner::new(netc)
            .engine(EngineKind::Distributed)
            .run(KmTriangle::build_all(dist(&g, &part), TriConfig::default()))
            .unwrap();
        assert_eq!(seq.metrics, threaded.metrics);
        for (a, b) in seq.machines.iter().zip(&threaded.machines) {
            assert_eq!(a.inner().triangles, b.inner().triangles);
        }
    }

    #[test]
    fn single_machine_runs_inline() {
        let g = classic::complete(6);
        let part = Arc::new(Partition::round_robin(6, 1));
        let (ts, metrics) =
            run_kmachine_triangles(&g, &part, TriConfig::default(), net(1, 6, 0)).unwrap();
        assert_eq!(ts.len(), 20);
        assert_eq!(metrics.total_msgs(), 0);
    }

    #[test]
    fn empty_graph_enumerates_nothing() {
        let g = CsrGraph::from_edges(10, &[]);
        let part = Arc::new(Partition::by_hash(10, 4, 1));
        let (ts, _) =
            run_kmachine_triangles(&g, &part, TriConfig::default(), net(4, 10, 2)).unwrap();
        assert!(ts.is_empty());
    }

    /// The table behind `machines_for_pair` is specified by the scan it
    /// replaces: owners of `{ca, cb, x}` for `x = 0..q`, first occurrence
    /// kept — the order the re-route hop emits in.
    #[test]
    fn pair_table_equals_the_scan_at_every_k() {
        for k in 1..=130 {
            let s = ColorScheme::for_machines(k);
            let q = s.colors() as u8;
            assert!(s.triplet_machines() <= k);
            for ca in 0..q {
                for cb in 0..q {
                    let mut want: Vec<MachineIdx> = Vec::new();
                    for x in 0..q {
                        let mut t = [ca, cb, x];
                        t.sort_unstable();
                        let m = s.owner_of(ca, cb, x);
                        assert_eq!(s.triplet_of(m), Some(t), "k={k} owner of {t:?}");
                        if !want.contains(&m) {
                            want.push(m);
                        }
                    }
                    let got = s.machines_for_pair(ca, cb);
                    assert_eq!(want, got, "k={k} pair ({ca},{cb})");
                }
            }
        }
    }

    /// Off-contract input is a bug in the caller: loud in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "canonical, sorted and deduplicated")]
    fn kernel_debug_asserts_its_precondition() {
        enumerate_within(&[Edge { u: 2, v: 1 }], |v| v, |_, _, _| true);
    }

    /// `bits()` of every variant at n ∈ {2, 3, 10³, 5·10⁴, 2³²}, as
    /// literals: the logical sizes every transcript is charged in. A
    /// codec change that moves one of them re-prices every run.
    #[test]
    fn tri_msg_sizes_are_pinned() {
        for (i, n) in [2usize, 3, 1_000, 50_000, 1 << 32].into_iter().enumerate() {
            let e = Edge::new(0, (n - 1) as Vertex);
            for (msg, want) in [
                (TriMsg::hd(n, 3, e.v), [5, 6, 14, 20, 36]),
                (TriMsg::to_proxy(n, 1, e), [6, 8, 24, 36, 68]),
                (TriMsg::to_machine(n, 2, e), [6, 8, 24, 36, 68]),
                (TriMsg::flush(3), [8; 5]),
            ] {
                assert_eq!(msg.bits(), want[i], "{msg:?} at n = {n}");
            }
        }
    }

    proptest::proptest! {
        /// Release builds compile that assertion out; the kernel must then
        /// stay in bounds on any list at all — loops, swapped endpoints,
        /// duplicates, no order.
        #[cfg(not(debug_assertions))]
        #[test]
        fn kernel_stays_in_bounds_off_contract(
            pairs in proptest::collection::vec((0u32..24, 0u32..24), 0..160),
        ) {
            let edges: Vec<Edge> = pairs.into_iter().map(|(u, v)| Edge { u, v }).collect();
            enumerate_within(&edges, |v| v, |_, _, _| true);
        }

        /// Phase 3 minus the network: route an arbitrary edge multiset
        /// (duplicates, unsorted, sparse ids, vertices no edge touches) to
        /// the triplet machines and enumerate on each. Every machine
        /// reports exactly the oracle's triangles of its triplet, in the
        /// oracle's order, and the union is the oracle — so no triangle
        /// is missed or owned twice. With `hub` set, vertex 0 is adjacent
        /// to every other id, so its `N⁺` holds all of them.
        #[test]
        fn kernel_matches_the_oracle_filtered_by_triplet(
            k in 1usize..=130,
            shared in 0u64..u64::MAX,
            stride in 1u32..500,
            hub in 0u8..2,
            pairs in proptest::collection::vec((0u32..36, 0u32..36), 0..260),
        ) {
            let scheme = ColorScheme::for_machines(k);
            let spokes = if hub == 1 { 1..36 } else { 1..1 };
            let pairs: Vec<(Vertex, Vertex)> = spokes
                .map(|v| (0, v))
                .chain(pairs)
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a * stride, b * stride))
                .collect();
            let g = CsrGraph::from_edges(36 * stride as usize, &pairs);
            let oracle = enumerate_triangles(&g);
            let colors = |t: &Triangle| {
                let mut c = [t.a, t.b, t.c].map(|v| scheme.color(shared, v));
                c.sort_unstable();
                c
            };
            let mut union = Vec::new();
            for i in 0..scheme.triplet_machines() {
                let mine = scheme.triplet_of(i).unwrap();
                let routed = pairs.iter().map(|&(a, b)| Edge::new(a, b)).filter(|e| {
                    let (ca, cb) = (scheme.color(shared, e.u), scheme.color(shared, e.v));
                    scheme.machines_for_pair(ca, cb).contains(&i)
                });
                let mut routed: Vec<Edge> = routed.collect();
                sort_dedup(&mut routed);
                let got = owned_triangles(&scheme, shared, mine, &routed);
                let want: Vec<Triangle> =
                    oracle.iter().copied().filter(|t| colors(t) == mine).collect();
                proptest::prop_assert_eq!(&got, &want, "machine {} of k={}", i, k);
                union.extend(got);
            }
            union.sort_unstable();
            proptest::prop_assert_eq!(union, oracle);
        }

        #[test]
        fn tri_msgs_roundtrip_the_wire(
            n in 2usize..1_000_000,
            a in 0u32..1_000_000,
            b in 0u32..1_000_000,
            phase in 0u8..4,
        ) {
            let n32 = n as u32;
            let (a, b) = (a % n32, b % n32);
            let e = if a == b {
                Edge::new(a, (a + 1) % n32.max(2))
            } else {
                Edge::new(a, b)
            };
            km_core::assert_roundtrip(&TriMsg::hd(n, phase, a));
            km_core::assert_roundtrip(&TriMsg::to_proxy(n, phase, e));
            km_core::assert_roundtrip(&TriMsg::to_machine(n, phase, e));
            km_core::assert_roundtrip(&TriMsg::flush(phase));

            // The same edge with its endpoints swapped is not a message.
            let swapped = Edge { u: e.v, v: e.u };
            for msg in [TriMsg::to_proxy(n, phase, swapped), TriMsg::to_machine(n, phase, swapped)] {
                let mut w = km_core::BitWriter::new();
                msg.encode(&mut w);
                let mut r = BitReader::new(w.bytes(), w.bit_len()).unwrap();
                proptest::prop_assert_eq!(
                    TriMsg::decode(&mut r),
                    Err(CodecError::Invalid { what: "non-canonical edge", value: u64::from(e.v) })
                );
            }
        }
    }
}
