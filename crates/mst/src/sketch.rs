//! AGM graph sketches (Ahn–Guha–McGregor ℓ₀-sampling) — the ingredient
//! that upgrades Borůvka-style connectivity to the `O~(n/k²)` rounds of
//! Pandurangan–Robinson–Scquizzato \[51\], which the paper cites as the
//! matching upper bound for its GLBT-derived `Ω~(n/k²)` MST/connectivity
//! lower bound.
//!
//! The magic property is **linearity over GF(2)**: a vertex's sketch is
//! the XOR of encodings of its incident edges; XOR-ing the sketches of a
//! vertex set `S` cancels every edge internal to `S` and leaves exactly
//! the boundary `∂S` — so a component's `O(polylog n)`-bit sketch can be
//! aggregated at a proxy machine with `Θ(polylog)` communication *without
//! anyone knowing neighbor labels*, and an outgoing edge can be decoded
//! from it whp. Fresh independent sketch copies per Borůvka phase keep
//! the randomness sound (sketches are one-shot).
//!
//! This module provides the data structure itself, sized by
//! [`SketchParams`] (depth and repetition count tuned to the input via
//! [`SketchParams::for_graph`]), with honest wire accounting
//! ([`WireCodec::bits`], i.e. what `encode` writes: a 16-bit shape
//! header plus `reps · levels · (64 + 32 + 1)` payload bits) and an
//! XOR-mergeable word serialization
//! ([`L0Sketch::to_words`]) so partial sketches can be combined on the
//! wire exactly like in memory.
//! [`sketch_spanning_forest`] is the *sequential* phase-by-phase driver
//! that validates the per-phase logic; the real distributed protocol —
//! partial sketches to proxies, decode, and the pointer-jumping label
//! service — is [`crate::conn::SketchConnectivity`]. (See DESIGN.md
//! § "MST and connectivity" for the two-algorithm story.)

use km_core::rng::{keyed_hash, splitmix64};
use km_core::{BitReader, BitSink, CodecError, WireCodec};
use km_graph::{CsrGraph, Edge, Vertex};

/// Default levels per basic sampler: edge `e` participates in level `ℓ`
/// with probability `2^{-ℓ}` (level 0 holds every edge). 40 levels cover
/// any edge set this simulator can hold.
const LEVELS: usize = 40;

/// Default number of independent basic samplers per sketch. One sampler
/// isolates a single boundary edge at *some* level only with constant
/// probability; `REPS` independent repetitions drive the failure rate to
/// `O(c^{REPS})` — the standard AGM amplification.
const REPS: usize = 8;

/// Shape of an [`L0Sketch`]: sampler depth and repetition count.
///
/// The defaults (`levels = 40`, `reps = 8`) are failure-proof for any
/// graph the simulator can hold; [`SketchParams::for_graph`] picks the
/// smallest honest size for a concrete input, which is what the
/// distributed protocol ships (its wire cost is
/// `reps · levels · (64 + 32 + 1)` bits, see [`WireCodec::bits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchParams {
    /// Geometric sampling depth; must exceed `log₂(boundary size)`.
    pub levels: usize,
    /// Independent sampler repetitions (failure rate `O(c^{reps})`).
    pub reps: usize,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            levels: LEVELS,
            reps: REPS,
        }
    }
}

impl SketchParams {
    /// The smallest honest shape for an `n`-vertex, `m`-edge input: a
    /// boundary holds at most `m` edges, so `log₂ m + O(1)` levels give
    /// every boundary a level with ~1 expected survivor, and 4 samplers
    /// make the per-component per-phase decode failure a small constant
    /// (failures only defer a merge to the next phase's fresh sketch).
    pub fn for_graph(n: usize, m: usize) -> Self {
        let span = (2 * m.max(1)).max(n.max(2));
        let levels = ((span as f64).log2().ceil() as usize + 6).clamp(12, LEVELS);
        SketchParams { levels, reps: 4 }
    }

    /// Logical wire size in bits of one sketch of this shape: an 8-bit
    /// repetition count and 8-bit depth (the shape header that makes a
    /// serialized sketch self-describing), then per level and repetition
    /// a 64-bit key XOR, a 32-bit checksum, and a parity bit. Still
    /// `O(polylog n)` — the property that makes `O~(n/k²)` connectivity
    /// possible.
    pub fn sketch_bits(&self) -> u64 {
        16 + (self.reps as u64) * (self.levels as u64) * (64 + 32 + 1)
    }
}

/// One basic ℓ₀ sampler: per level, the XOR of the sampled edges'
/// 64-bit keys plus an independent checksum and a parity bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BasicSketch {
    key_xor: Vec<u64>,
    check_xor: Vec<u32>,
    parity: Vec<u8>,
}

impl BasicSketch {
    fn empty(levels: usize) -> Self {
        BasicSketch {
            key_xor: vec![0; levels],
            check_xor: vec![0; levels],
            parity: vec![0; levels],
        }
    }

    fn levels(&self) -> usize {
        self.key_xor.len()
    }

    fn toggle_edge(&mut self, key: u64, seed: u64) {
        let top = edge_level(seed, key, self.levels());
        let check = edge_check(seed, key);
        // An edge at level ℓ participates in all levels 0..=ℓ.
        for l in 0..=top {
            self.key_xor[l] ^= key;
            self.check_xor[l] ^= check;
            self.parity[l] ^= 1;
        }
    }

    fn xor_in(&mut self, other: &Self) {
        debug_assert_eq!(self.levels(), other.levels(), "sketch shape mismatch");
        for l in 0..self.levels() {
            self.key_xor[l] ^= other.key_xor[l];
            self.check_xor[l] ^= other.check_xor[l];
            self.parity[l] ^= other.parity[l];
        }
    }

    /// A level holding exactly one edge is detected by odd parity plus a
    /// matching checksum (several XOR-ed edges masquerading as one edge
    /// survive the checksum with probability `2^{-32}` per level).
    fn decode(&self, seed: u64) -> Option<Edge> {
        for l in (0..self.levels()).rev() {
            if self.parity[l] == 1 && self.key_xor[l] != 0 {
                let key = self.key_xor[l];
                if edge_check(seed, key) == self.check_xor[l]
                    && edge_level(seed, key, self.levels()) >= l
                    && (key >> 32) != (key & 0xFFFF_FFFF)
                {
                    return Some(key_to_edge(key));
                }
            }
        }
        None
    }

    fn is_empty(&self) -> bool {
        self.key_xor.iter().all(|&x| x == 0) && self.parity.iter().all(|&c| c == 0)
    }
}

/// An AGM ℓ₀-sampling sketch: independent basic samplers per
/// [`SketchParams`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L0Sketch {
    reps: Vec<BasicSketch>,
}

/// Canonical 64-bit key of an edge.
#[inline]
fn edge_key(e: Edge) -> u64 {
    ((e.u as u64) << 32) | e.v as u64
}

#[inline]
fn key_to_edge(key: u64) -> Edge {
    Edge::new((key >> 32) as Vertex, (key & 0xFFFF_FFFF) as Vertex)
}

/// The level assignment of an edge under a given sketch seed: the number
/// of leading one-bits of its keyed hash (geometric with ratio 1/2).
#[inline]
fn edge_level(seed: u64, key: u64, levels: usize) -> usize {
    (keyed_hash(seed, key).leading_ones() as usize).min(levels - 1)
}

#[inline]
fn edge_check(seed: u64, key: u64) -> u32 {
    (keyed_hash(seed ^ 0xC3EC_C3EC_C3EC_C3EC, key) >> 16) as u32
}

impl L0Sketch {
    /// The empty sketch (identity of XOR) of the default shape.
    pub fn empty() -> Self {
        Self::empty_with(SketchParams::default())
    }

    /// The empty sketch of an explicit shape.
    pub fn empty_with(params: SketchParams) -> Self {
        L0Sketch {
            reps: (0..params.reps)
                .map(|_| BasicSketch::empty(params.levels))
                .collect(),
        }
    }

    /// The shape of this sketch.
    pub fn params(&self) -> SketchParams {
        SketchParams {
            levels: self.reps.first().map_or(0, BasicSketch::levels),
            reps: self.reps.len(),
        }
    }

    #[inline]
    fn rep_seed(seed: u64, rep: usize) -> u64 {
        splitmix64(seed ^ (rep as u64).wrapping_mul(0xD134_2543_DE82_EF95))
    }

    /// The sketch of a single vertex: XOR over its incident edges.
    /// `seed` must be shared by all participants of one phase and *fresh*
    /// across phases.
    pub fn for_vertex(g: &CsrGraph, v: Vertex, seed: u64) -> Self {
        Self::for_vertex_with(SketchParams::default(), g, v, seed)
    }

    /// [`Self::for_vertex`] with an explicit shape.
    pub fn for_vertex_with(params: SketchParams, g: &CsrGraph, v: Vertex, seed: u64) -> Self {
        Self::from_neighbors(params, v, g.neighbors(v), seed)
    }

    /// The sketch of a vertex given its adjacency slice — what a machine
    /// computes from its `LocalGraph` rows in the distributed protocol,
    /// with no access to the global graph.
    pub fn from_neighbors(
        params: SketchParams,
        v: Vertex,
        neighbors: &[Vertex],
        seed: u64,
    ) -> Self {
        let mut s = Self::empty_with(params);
        for &w in neighbors {
            s.toggle_edge(Edge::new(v, w), seed);
        }
        s
    }

    /// XOR-inserts (or cancels) one edge in every repetition.
    pub fn toggle_edge(&mut self, e: Edge, seed: u64) {
        let key = edge_key(e);
        for (rep, basic) in self.reps.iter_mut().enumerate() {
            basic.toggle_edge(key, Self::rep_seed(seed, rep));
        }
    }

    /// Merges another sketch into this one (GF(2) linearity). Both
    /// sketches must have the same shape.
    pub fn xor_in(&mut self, other: &Self) {
        debug_assert_eq!(self.reps.len(), other.reps.len(), "sketch shape mismatch");
        for (a, b) in self.reps.iter_mut().zip(&other.reps) {
            a.xor_in(b);
        }
    }

    /// Attempts to decode one boundary edge: each repetition is an
    /// independent constant-success-probability sampler, so the first hit
    /// wins and overall failure is `O(c^{reps})`.
    pub fn decode(&self, seed: u64) -> Option<Edge> {
        self.reps
            .iter()
            .enumerate()
            .find_map(|(rep, basic)| basic.decode(Self::rep_seed(seed, rep)))
    }

    /// Whether every repetition is empty (no boundary edges).
    pub fn is_empty(&self) -> bool {
        self.reps.iter().all(BasicSketch::is_empty)
    }

    /// Serializes into 64-bit words such that the encoding is
    /// **XOR-mergeable**: `words(a ⊕ b) = words(a) ^ words(b)`
    /// elementwise. A relay can therefore combine partial sketches
    /// without deserializing. Layout per repetition: `levels` key words,
    /// then the 32-bit checksums packed two per word, then the parity
    /// bits packed 64 per word.
    pub fn to_words(&self) -> Vec<u64> {
        let p = self.params();
        let mut out = Vec::with_capacity(self.reps.len() * words_per_rep(p.levels));
        for basic in &self.reps {
            out.extend_from_slice(&basic.key_xor);
            for pair in basic.check_xor.chunks(2) {
                let hi = pair.get(1).copied().unwrap_or(0) as u64;
                out.push((hi << 32) | pair[0] as u64);
            }
            for bits in basic.parity.chunks(64) {
                let mut w = 0u64;
                for (i, &b) in bits.iter().enumerate() {
                    w |= (b as u64 & 1) << i;
                }
                out.push(w);
            }
        }
        out
    }

    /// Inverse of [`Self::to_words`] for a known shape. Returns `None`
    /// if the word count does not match the shape.
    pub fn from_words(params: SketchParams, words: &[u64]) -> Option<Self> {
        if words.len() != params.reps * words_per_rep(params.levels) {
            return None;
        }
        let mut reps = Vec::with_capacity(params.reps);
        let mut it = words.iter().copied();
        for _ in 0..params.reps {
            let key_xor: Vec<u64> = it.by_ref().take(params.levels).collect();
            let mut check_xor = Vec::with_capacity(params.levels);
            for _ in 0..params.levels.div_ceil(2) {
                let w = it.next()?;
                check_xor.push(w as u32);
                if check_xor.len() < params.levels {
                    check_xor.push((w >> 32) as u32);
                }
            }
            let mut parity = Vec::with_capacity(params.levels);
            for _ in 0..params.levels.div_ceil(64) {
                let w = it.next()?;
                for i in 0..64 {
                    if parity.len() < params.levels {
                        parity.push(((w >> i) & 1) as u8);
                    }
                }
            }
            reps.push(BasicSketch {
                key_xor,
                check_xor,
                parity,
            });
        }
        Some(L0Sketch { reps })
    }
}

fn words_per_rep(levels: usize) -> usize {
    levels + levels.div_ceil(2) + levels.div_ceil(64)
}

/// Wire layout (matching [`SketchParams::sketch_bits`]): 8-bit `reps`,
/// 8-bit `levels`, then per repetition the level-indexed key words
/// (64 bits each), checksums (32 bits each), and parity bits — the
/// honest per-sketch cost, nothing amortized away. The shape
/// header makes a frame self-describing, so container messages (e.g.
/// `ConnMsg::Partial`) can place variable-width fields *after* a sketch
/// and still recover their widths from the frame's remaining bit count.
impl WireCodec for L0Sketch {
    fn encode<S: BitSink>(&self, w: &mut S) {
        let p = self.params();
        w.put(p.reps as u64, 8);
        w.put(p.levels as u64, 8);
        for basic in &self.reps {
            let levels = basic.key_xor.iter().zip(&basic.check_xor);
            for ((&key, &check), &parity) in levels.zip(&basic.parity) {
                w.put(key, 64);
                w.put(u64::from(check), 32);
                w.put(u64::from(parity), 1);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let reps = r.take(8)? as usize;
        let levels = r.take(8)? as usize;
        if levels == 0 {
            return Err(CodecError::Invalid {
                what: "sketch depth",
                value: 0,
            });
        }
        let mut out = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut basic = BasicSketch::empty(levels);
            for l in 0..levels {
                basic.key_xor[l] = r.take(64)?;
                basic.check_xor[l] = r.take(32)? as u32;
                basic.parity[l] = r.take(1)? as u8;
            }
            out.push(basic);
        }
        Ok(L0Sketch { reps: out })
    }
}

/// The per-phase seed for sketch copy `phase` under a shared base seed.
pub fn phase_seed(base: u64, phase: usize) -> u64 {
    splitmix64(base ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5E1F_C0DE)
}

/// Sketch-based Borůvka spanning forest: per phase, build *fresh* vertex
/// sketches, XOR them per component, decode one outgoing edge per
/// component, and contract. Returns the forest edges (sorted).
///
/// This mirrors the distributed per-phase dataflow of \[51\] (each XOR
/// grouping is exactly what machines/proxies would compute); failures to
/// decode (probability `O(2^{-Ω(levels)})` per component per phase) only
/// delay a merge to the next phase with fresh randomness. The fully
/// distributed version, including the label service this sequential
/// driver gets for free, is [`crate::conn::SketchConnectivity`].
pub fn sketch_spanning_forest(g: &CsrGraph, base_seed: u64) -> Vec<Edge> {
    let n = g.n();
    let params = SketchParams::for_graph(n, g.m());
    let mut label: Vec<Vertex> = (0..n as Vertex).collect();
    let mut forest: Vec<Edge> = Vec::new();
    // ≤ log2(n) productive phases; a few spares cover decode failures.
    let max_phases = (n.max(2) as f64).log2().ceil() as usize * 2 + 4;

    for phase in 0..max_phases {
        let seed = phase_seed(base_seed, phase);
        // Component sketches via GF(2) aggregation of vertex sketches.
        let mut comp_sketch: std::collections::BTreeMap<Vertex, L0Sketch> =
            std::collections::BTreeMap::new();
        for v in 0..n as Vertex {
            let s = L0Sketch::for_vertex_with(params, g, v, seed);
            comp_sketch
                .entry(label[v as usize])
                .or_insert_with(|| L0Sketch::empty_with(params))
                .xor_in(&s);
        }
        // Decode one outgoing edge per component.
        let mut merges: Vec<Edge> = Vec::new();
        let mut undecoded = 0usize;
        for sketch in comp_sketch.values() {
            if sketch.is_empty() {
                continue;
            }
            match sketch.decode(seed) {
                Some(e) => merges.push(e),
                None => undecoded += 1,
            }
        }
        if merges.is_empty() {
            if undecoded == 0 {
                break; // all components closed: done
            }
            continue; // retry with fresh randomness
        }
        // Contract (same deterministic union-find as the MST protocol).
        merges.sort_unstable();
        merges.dedup();
        let mut parent: std::collections::BTreeMap<Vertex, Vertex> =
            std::collections::BTreeMap::new();
        let find = |parent: &mut std::collections::BTreeMap<Vertex, Vertex>, mut x: Vertex| {
            while let Some(&p) = parent.get(&x) {
                if p == x {
                    break;
                }
                x = p;
            }
            x
        };
        for &e in &merges {
            let (cu, cv) = (label[e.u as usize], label[e.v as usize]);
            let (ru, rv) = (find(&mut parent, cu), find(&mut parent, cv));
            if ru != rv {
                let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
                parent.insert(hi, lo);
                parent.entry(lo).or_insert(lo);
                forest.push(e);
            }
        }
        for l in label.iter_mut() {
            *l = find(&mut parent, *l);
        }
    }
    forest.sort_unstable();
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use km_graph::generators::{classic, gnp};
    use km_graph::properties::component_count;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// `bits()` of the shapes `for_graph(n, n)` picks at n ∈ {2, 3, 10³,
    /// 5·10⁴, 2³²}, and of the default shape, as literals.
    #[test]
    fn sketch_sizes_are_pinned() {
        for (n, want) in [
            (2usize, 4672),
            (3, 4672),
            (1_000, 6612),
            (50_000, 8940),
            (1 << 32, 15148),
        ] {
            let sketch = L0Sketch::empty_with(SketchParams::for_graph(n, n));
            assert_eq!(sketch.bits(), want, "n = {n}");
        }
        assert_eq!(L0Sketch::empty_with(SketchParams::default()).bits(), 31056);
    }

    #[test]
    fn single_edge_roundtrip() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let s = L0Sketch::for_vertex(&g, 0, 77);
        assert_eq!(s.decode(77), Some(Edge::new(0, 1)));
    }

    #[test]
    fn internal_edges_cancel() {
        // Path 0-1-2: XOR of all three vertex sketches must be empty
        // (every edge internal), XOR of {0,1} must decode edge {1,2}.
        let g = classic::path(3);
        let seed = 5;
        let mut all = L0Sketch::empty();
        for v in 0..3 {
            all.xor_in(&L0Sketch::for_vertex(&g, v, seed));
        }
        assert!(all.is_empty());

        let mut s01 = L0Sketch::for_vertex(&g, 0, seed);
        s01.xor_in(&L0Sketch::for_vertex(&g, 1, seed));
        assert_eq!(s01.decode(seed), Some(Edge::new(1, 2)));
    }

    #[test]
    fn decode_finds_a_true_boundary_edge_whp() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = gnp(60, 0.2, &mut rng);
        // Component S = first 30 vertices.
        for seed in 0..20u64 {
            let mut s = L0Sketch::empty();
            for v in 0..30 {
                s.xor_in(&L0Sketch::for_vertex(&g, v, seed));
            }
            let boundary: Vec<Edge> = g.edges().filter(|e| (e.u < 30) != (e.v < 30)).collect();
            match s.decode(seed) {
                Some(e) => assert!(boundary.contains(&e), "seed {seed}: {e:?} not boundary"),
                None => assert!(boundary.is_empty(), "seed {seed}: missed boundary"),
            }
        }
    }

    #[test]
    fn wire_size_is_polylog() {
        // The whole point: a component's connectivity summary in ~4.7 kbit
        // (16-bit shape header + 97 bits per level per repetition).
        assert_eq!(SketchParams::default().sketch_bits(), 16 + 8 * 40 * 97);
        assert_eq!(L0Sketch::empty().bits(), 16 + 8 * 40 * 97);
        // A tuned shape is smaller but still polylog in n.
        let p = SketchParams::for_graph(10_000, 80_000);
        assert!(p.levels < 40 && p.levels >= 12);
        assert_eq!(
            L0Sketch::empty_with(p).bits(),
            16 + (p.reps * p.levels * 97) as u64
        );
    }

    /// `bits()` counts through `encode`; the closed form
    /// `SketchParams::sketch_bits` (what the benchmark reports as
    /// `sketch.wire_bits`) must agree with it on every shape.
    #[test]
    fn sketch_bits_match_the_closed_form() {
        for reps in [0, 1, 4, 8, 255] {
            for levels in [1, 12, 40, 255] {
                let p = SketchParams { levels, reps };
                assert_eq!(L0Sketch::empty_with(p).bits(), p.sketch_bits(), "{p:?}");
            }
        }
    }

    #[test]
    fn tuned_params_scale_with_input_and_stay_clamped() {
        let small = SketchParams::for_graph(4, 2);
        assert_eq!(small.levels, 12);
        let big = SketchParams::for_graph(1 << 30, 1 << 40);
        assert_eq!(big.levels, LEVELS);
        let mid = SketchParams::for_graph(1000, 8000);
        assert!(mid.levels > small.levels && mid.levels < big.levels);
    }

    #[test]
    fn words_roundtrip_and_merge() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = gnp(40, 0.2, &mut rng);
        let p = SketchParams::for_graph(g.n(), g.m());
        let a = L0Sketch::for_vertex_with(p, &g, 3, 99);
        let b = L0Sketch::for_vertex_with(p, &g, 17, 99);
        // Round trip.
        assert_eq!(L0Sketch::from_words(p, &a.to_words()), Some(a.clone()));
        // XOR-mergeable: words(a ⊕ b) == words(a) ^ words(b).
        let mut ab = a.clone();
        ab.xor_in(&b);
        let merged: Vec<u64> = a
            .to_words()
            .iter()
            .zip(b.to_words())
            .map(|(x, y)| x ^ y)
            .collect();
        assert_eq!(ab.to_words(), merged);
        assert_eq!(L0Sketch::from_words(p, &merged), Some(ab));
        // Shape mismatch is rejected, not mis-decoded.
        assert_eq!(L0Sketch::from_words(SketchParams::default(), &merged), None);
    }

    #[test]
    fn spanning_forest_on_classic_graphs() {
        for (g, want_edges) in [
            (classic::path(50), 49),
            (classic::cycle(33), 32),
            (classic::complete(25), 24),
            (classic::star(40), 39),
        ] {
            let forest = sketch_spanning_forest(&g, 11);
            assert_eq!(forest.len(), want_edges);
            // A spanning forest connects everything the graph connects.
            let pairs: Vec<(Vertex, Vertex)> = forest.iter().map(|e| (e.u, e.v)).collect();
            let f = CsrGraph::from_edges(g.n(), &pairs);
            assert_eq!(component_count(&f), component_count(&g));
        }
    }

    #[test]
    fn spanning_forest_matches_component_structure_of_gnp() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for (n, p) in [(80usize, 0.015), (120, 0.05), (60, 0.4)] {
            let g = gnp(n, p, &mut rng);
            let forest = sketch_spanning_forest(&g, 21);
            let cc = component_count(&g);
            assert_eq!(forest.len(), n - cc, "n={n} p={p}");
            for e in &forest {
                assert!(g.has_edge(e.u, e.v), "forest edge {e:?} not in graph");
            }
        }
    }

    /// The wire cost the engine actually charges for a shipped sketch is
    /// exactly the honest `16 + reps · levels · 97` accounting (plus
    /// nothing: the protocol header is the sender's business).
    #[test]
    fn staged_sketch_bits_match_engine_metrics() {
        use km_core::{Envelope, NetConfig, Outbox, Protocol, RoundCtx, Runner, Status};

        struct OneShot {
            sketch: Option<L0Sketch>,
        }
        impl Protocol for OneShot {
            type Msg = L0Sketch;
            fn round(
                &mut self,
                ctx: &mut RoundCtx<'_>,
                _inbox: &mut Vec<Envelope<L0Sketch>>,
                out: &mut Outbox<L0Sketch>,
            ) -> Status {
                if ctx.round == 0 && ctx.me == 0 {
                    out.send(1, self.sketch.take().expect("round 0 runs once"));
                    return Status::Active;
                }
                Status::Done
            }
        }

        let g = classic::path(6);
        let p = SketchParams::for_graph(g.n(), g.m());
        let sketch = L0Sketch::for_vertex_with(p, &g, 2, 7);
        let want_bits = sketch.bits();
        let machines = vec![
            OneShot {
                sketch: Some(sketch),
            },
            OneShot { sketch: None },
        ];
        let report = Runner::new(NetConfig::with_bandwidth(2, 64, 1).max_rounds(100_000))
            .run(machines)
            .unwrap();
        assert_eq!(report.metrics.sent_bits[0], want_bits);
        assert_eq!(report.metrics.recv_bits[1], want_bits);
        assert_eq!(want_bits, p.sketch_bits());
    }

    proptest! {
        /// Sketch linearity: sketch(S ∪ T) = sketch(S) ⊕ sketch(T) for
        /// disjoint S, T, and decoding a 1-edge boundary is exact.
        #[test]
        fn linearity(edges in proptest::collection::vec((0u32..24, 0u32..24), 1..80), seed in 0u64..1000) {
            let g = CsrGraph::from_edges(24, &edges);
            let mut left = L0Sketch::empty();
            let mut right = L0Sketch::empty();
            let mut whole = L0Sketch::empty();
            for v in 0..24u32 {
                let s = L0Sketch::for_vertex(&g, v, seed);
                if v < 12 { left.xor_in(&s) } else { right.xor_in(&s) }
                whole.xor_in(&s);
            }
            let mut combined = left.clone();
            combined.xor_in(&right);
            prop_assert_eq!(&combined, &whole);
            // The whole graph has no boundary: must be empty.
            prop_assert!(whole.is_empty());
        }

        /// Soundness on adversarial subsets: whatever `S` and seed, a
        /// successful decode is a *true* boundary edge of `∂S` — never a
        /// phantom. This is the whp guarantee the distributed protocol's
        /// correctness rests on (a phantom edge would corrupt the forest;
        /// a miss only defers a merge).
        #[test]
        fn decode_soundness_on_adversarial_subsets(
            edges in proptest::collection::vec((0u32..32, 0u32..32), 0..160),
            subset_bits in proptest::collection::vec(0u32..2, 32),
            seed in 0u64..10_000,
        ) {
            let subset: Vec<bool> = subset_bits.iter().map(|&b| b == 1).collect();
            let g = CsrGraph::from_edges(32, &edges);
            let params = SketchParams::for_graph(g.n(), g.m());
            let mut s = L0Sketch::empty_with(params);
            for v in 0..32u32 {
                if subset[v as usize] {
                    s.xor_in(&L0Sketch::for_vertex_with(params, &g, v, seed));
                }
            }
            let boundary: Vec<Edge> = g
                .edges()
                .filter(|e| subset[e.u as usize] != subset[e.v as usize])
                .collect();
            if boundary.is_empty() {
                prop_assert!(s.is_empty(), "no boundary ⇒ sketch must cancel to zero");
            }
            if let Some(e) = s.decode(seed) {
                prop_assert!(boundary.contains(&e), "decoded {e:?} outside ∂S");
            }
        }

        /// Serialization: round trip and XOR-mergeability on random data.
        #[test]
        fn words_are_xor_mergeable(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 1..60),
            seed in 0u64..500,
        ) {
            let g = CsrGraph::from_edges(20, &edges);
            let p = SketchParams::for_graph(g.n(), g.m());
            let a = L0Sketch::for_vertex_with(p, &g, 1, seed);
            let b = L0Sketch::for_vertex_with(p, &g, 2, seed);
            prop_assert_eq!(L0Sketch::from_words(p, &a.to_words()), Some(a.clone()));
            let mut ab = a.clone();
            ab.xor_in(&b);
            let merged: Vec<u64> =
                a.to_words().iter().zip(b.to_words()).map(|(x, y)| x ^ y).collect();
            prop_assert_eq!(ab.to_words(), merged);
        }

        /// Bit-level serialization: a sketch survives the distributed
        /// engine's wire format, and the frame is exactly as large as
        /// `sketch_bits` claims.
        #[test]
        fn sketches_roundtrip_the_wire(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
            v in 0u32..20,
            seed in 0u64..500,
        ) {
            let g = CsrGraph::from_edges(20, &edges);
            let p = SketchParams::for_graph(g.n(), g.m());
            km_core::assert_roundtrip(&L0Sketch::for_vertex_with(p, &g, v, seed));
            km_core::assert_roundtrip(&L0Sketch::empty_with(p));
        }

        /// The forest size equals n − #components on arbitrary graphs.
        #[test]
        fn forest_size_invariant(edges in proptest::collection::vec((0u32..30, 0u32..30), 0..120)) {
            let g = CsrGraph::from_edges(30, &edges);
            let forest = sketch_spanning_forest(&g, 5);
            prop_assert_eq!(forest.len(), 30 - component_count(&g));
        }
    }
}
