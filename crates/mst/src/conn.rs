//! [`SketchConnectivity`] — the distributed `O~(n/k²)` connectivity /
//! spanning-forest protocol of Pandurangan–Robinson–Scquizzato \[51\],
//! run end to end over the engine.
//!
//! Per Borůvka-style phase (components at least halve, so `O(log n)`
//! phases):
//!
//! 1. **Partial sketches.** Each machine XORs fresh [`L0Sketch`]es of its
//!    hosted vertices per current component label (adjacency straight
//!    from its [`LocalGraph`] — no global state) and ships one
//!    `O(polylog n)`-bit partial sketch per label to the label's
//!    hash-chosen proxy machine ([`phase_proxy_of`], the paper's
//!    randomized proxy computation). A partial that cancels to zero
//!    proves its component is entirely local and boundary-free, so it is
//!    marked closed and never sketched (or shipped) again.
//! 2. **Decode.** Each proxy XORs the partials per label into the
//!    component sketch and decodes one outgoing boundary edge w.h.p.
//!    (a failed decode only defers the merge to the next phase's fresh
//!    sketch; an empty sketch means the component is closed and its
//!    contributors are told so).
//! 3. **Label service.** Decoded endpoints' labels are fetched from
//!    their home machines, merge records `{comp_a, comp_b, edge}` are
//!    exchanged between the two labels' proxies, and every component
//!    hooks onto its minimum merge partner (mutual 2-cycles break toward
//!    the smaller label — the classic Borůvka hooking, whose pointer
//!    graph is a forest). Proxies then resolve every label to its root
//!    by **pointer jumping** over `O(log n)` sub-rounds (chain depth at
//!    least halves per jump, and the loop exits early via the barrier
//!    counters), and push `old label → root` updates back to exactly the
//!    machines that contributed partials. **No payload is ever
//!    broadcast** — the only all-peers traffic is the `O(log n)`-bit
//!    barrier markers below: unlike [`crate::BoruvkaMst`]'s per-phase
//!    choice broadcast (`Θ~(n)` received bits per machine), every
//!    machine here receives `O~(n/k)` payload bits across the whole run
//!    (plus `Θ~(k)` of barrier markers, negligible until
//!    `k ≈ √(n·polylog)`) — spread over its `k − 1` links that is the
//!    `O~(n/k²)` round bound matching the GLBT lower bound
//!    (`km_lower::bounds::mst_rounds`).
//!
//! Stages are separated by flush barriers, run by [`Staged`]: links are
//! FIFO, so `k − 1` flushes of the current parity guarantee all stage
//! payloads have arrived. The `CC-UB` experiment measures the resulting
//! `recv_bits` profile against both [`crate::BoruvkaMst`] and the `n/k²`
//! prediction.

use crate::sketch::{phase_seed, L0Sketch, SketchParams};
use km_core::router::{phase_proxy_of, Staged, Stages};
use km_core::{
    id_bits, run_algorithm, BitReader, BitSink, CodecError, KmAlgorithm, MachineIdx, Metrics,
    NetConfig, Outbox, RoundCtx, Runner, WireCodec,
};
use km_graph::{CsrGraph, DistGraph, DistGraphBuilder, Edge, LocalGraph, Partition, Vertex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Payload of one sketch-connectivity message.
#[derive(Debug, Clone, PartialEq)]
pub enum ConnPayload {
    /// A per-component partial sketch on its way to the label's proxy.
    Partial {
        /// Component label the sketch was aggregated under.
        comp: Vertex,
        /// XOR of the fresh vertex sketches of the sender's vertices
        /// with that label.
        sketch: L0Sketch,
    },
    /// Proxy → contributors: the component has no outgoing edges; stop
    /// sketching it.
    Closed {
        /// The closed component label.
        comp: Vertex,
    },
    /// Proxy → home machine: what is `v`'s current label?
    LabelQ {
        /// The queried vertex.
        v: Vertex,
    },
    /// Home machine → proxy: `v`'s current label.
    LabelA {
        /// The queried vertex.
        v: Vertex,
        /// Its current component label.
        label: Vertex,
    },
    /// A merge record for the component pair `{a, b}`, witnessed by the
    /// decoded graph edge `e`; sent to both labels' proxies.
    Merge {
        /// One component label of the pair.
        a: Vertex,
        /// The other component label.
        b: Vertex,
        /// A real graph edge between the two components.
        e: Edge,
    },
    /// Proxy of `c` → proxies of `c`'s merge partners: `c`'s minimum
    /// merge partner (needed for the mutual-hook 2-cycle break).
    MinX {
        /// The announcing component label.
        c: Vertex,
        /// Its minimum merge partner.
        min: Vertex,
    },
    /// Pointer-jumping query: the owner of `c` asks the owner of `d`
    /// (`c`'s current parent) for `d`'s parent.
    JumpQ {
        /// The label whose pointer is being shortened.
        c: Vertex,
        /// Its current parent (owned by the recipient).
        d: Vertex,
    },
    /// Pointer-jumping answer for `c`: the parent of `c`'s parent, and
    /// whether `c`'s parent is a root.
    JumpA {
        /// The label whose pointer is being shortened.
        c: Vertex,
        /// The parent of `c`'s (queried) parent.
        p: Vertex,
        /// Whether the queried parent is a root (`c` is now resolved).
        root: bool,
    },
    /// Proxy → contributors: relabel `old` to the resolved root `new`.
    Push {
        /// The label at the start of the phase.
        old: Vertex,
        /// Its resolved root after this phase's merges.
        new: Vertex,
    },
    /// Stage barrier marker with two aggregatable counters (meaning
    /// depends on the stage; see the `Stage` enum's variant docs).
    Flush {
        /// First counter (partials sent / decoded edges / unresolved).
        c0: u64,
        /// Second counter (failed decodes).
        c1: u64,
    },
}

/// A parity-tagged sketch-connectivity message.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnMsg {
    /// Stage parity (the [`Stages`] tag).
    pub parity: bool,
    /// The payload.
    pub payload: ConnPayload,
    /// Vertex-id width, `id_bits(n)`.
    idb: u8,
}

impl ConnMsg {
    fn new(n: usize, parity: bool, payload: ConnPayload) -> Self {
        ConnMsg {
            parity,
            payload,
            idb: id_bits(n) as u8,
        }
    }
}

/// Wire layout: parity (1) · tag (4, for 10 variants) · body. Vertex-id
/// widths are not shipped; the decoder divides the remaining bit count
/// by the variant's field count (`Merge` has 4 ids, `LabelA` 2, …). A
/// `Flush` counter is bounded by n, so it takes `id_bits + 1` bits. The
/// one subtlety is `Partial`: the sketch is self-describing (its own
/// 16-bit shape header, see [`L0Sketch`]'s codec), so it goes first and
/// `comp` takes whatever bits remain after it.
impl WireCodec for ConnMsg {
    fn encode<S: BitSink>(&self, w: &mut S) {
        let idb = u32::from(self.idb);
        w.put(u64::from(self.parity), 1);
        match &self.payload {
            ConnPayload::Partial { comp, sketch } => {
                w.put(0, 4);
                sketch.encode(w);
                w.put(u64::from(*comp), idb);
            }
            ConnPayload::Closed { comp } => {
                w.put(1, 4);
                w.put(u64::from(*comp), idb);
            }
            ConnPayload::LabelQ { v } => {
                w.put(2, 4);
                w.put(u64::from(*v), idb);
            }
            ConnPayload::LabelA { v, label } => {
                w.put(3, 4);
                w.put(u64::from(*v), idb);
                w.put(u64::from(*label), idb);
            }
            ConnPayload::Merge { a, b, e } => {
                w.put(4, 4);
                w.put(u64::from(*a), idb);
                w.put(u64::from(*b), idb);
                w.put(u64::from(e.u), idb);
                w.put(u64::from(e.v), idb);
            }
            ConnPayload::MinX { c, min } => {
                w.put(5, 4);
                w.put(u64::from(*c), idb);
                w.put(u64::from(*min), idb);
            }
            ConnPayload::JumpQ { c, d } => {
                w.put(6, 4);
                w.put(u64::from(*c), idb);
                w.put(u64::from(*d), idb);
            }
            ConnPayload::JumpA { c, p, root } => {
                w.put(7, 4);
                w.put(u64::from(*root), 1);
                w.put(u64::from(*c), idb);
                w.put(u64::from(*p), idb);
            }
            ConnPayload::Push { old, new } => {
                w.put(8, 4);
                w.put(u64::from(*old), idb);
                w.put(u64::from(*new), idb);
            }
            ConnPayload::Flush { c0, c1 } => {
                w.put(9, 4);
                w.put(*c0, idb + 1);
                w.put(*c1, idb + 1);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let parity = r.take(1)? != 0;
        let tag = r.take(4)?;
        let sketch = match tag {
            0 => Some(<L0Sketch as WireCodec>::decode(r)?),
            _ => None,
        };
        // (id fields, other bits) of the body after any sketch; a flush
        // is two counters of `idb + 1` bits.
        let (fields, extra) = match tag {
            0..=2 => (1, 0),
            3 | 5 | 6 | 8 => (2, 0),
            4 => (4, 0),
            7 => (2, 1),
            9 => (2, 2),
            t => {
                return Err(CodecError::Invalid {
                    what: "conn message tag",
                    value: t,
                })
            }
        };
        let rem = r.remaining();
        let ids = rem.wrapping_sub(extra);
        if extra > rem || !ids.is_multiple_of(fields) || !(1..=32).contains(&(ids / fields)) {
            return Err(CodecError::Invalid {
                what: "conn message body width",
                value: rem,
            });
        }
        let idb = (ids / fields) as u32;
        let id = |r: &mut BitReader<'_>| Ok::<_, CodecError>(r.take(idb)? as Vertex);
        let payload = match (tag, sketch) {
            (0, Some(sketch)) => ConnPayload::Partial {
                comp: id(r)?,
                sketch,
            },
            (1, _) => ConnPayload::Closed { comp: id(r)? },
            (2, _) => ConnPayload::LabelQ { v: id(r)? },
            (3, _) => ConnPayload::LabelA {
                v: id(r)?,
                label: id(r)?,
            },
            (4, _) => ConnPayload::Merge {
                a: id(r)?,
                b: id(r)?,
                e: Edge {
                    u: id(r)?,
                    v: id(r)?,
                },
            },
            (5, _) => ConnPayload::MinX {
                c: id(r)?,
                min: id(r)?,
            },
            (6, _) => ConnPayload::JumpQ {
                c: id(r)?,
                d: id(r)?,
            },
            (7, _) => {
                let root = r.take(1)? != 0;
                ConnPayload::JumpA {
                    c: id(r)?,
                    p: id(r)?,
                    root,
                }
            }
            (8, _) => ConnPayload::Push {
                old: id(r)?,
                new: id(r)?,
            },
            // Tag 9: every other tag was rejected above.
            _ => ConnPayload::Flush {
                c0: r.take(idb + 1)?,
                c1: r.take(idb + 1)?,
            },
        };
        Ok(ConnMsg {
            parity,
            payload,
            idb: idb as u8,
        })
    }
}

/// The stage of a phase a machine is in; stages are separated by flush
/// barriers and advance in global lockstep (drift ≤ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Ship per-label partial sketches to proxies. Flush `c0` counts
    /// partials produced (global 0 ⇒ every component closed ⇒ done).
    Partials,
    /// Proxies decode; send label queries and closed notices. Flush
    /// `(decoded, failed)`; global `decoded = 0` skips to the next phase.
    Decode,
    /// Home machines answer the label queries.
    LabelReply,
    /// Proxies exchange merge records between the pair's two owners.
    Notify,
    /// Each owner announces its component's minimum merge partner.
    MinExchange,
    /// Hooked labels query their parent's owner. Flush `c0` counts
    /// unresolved labels (global 0 exits the jump loop).
    JumpQ,
    /// Parent owners answer with the grandparent.
    JumpA,
    /// Proxies push `old → root` relabels back to the contributors.
    Push,
}

/// Proxy-side state for one component label this phase.
#[derive(Debug)]
struct Slot {
    sketch: L0Sketch,
    contributors: Vec<MachineIdx>,
    decoded: Option<Edge>,
}

/// Where a stage entry sends: the outbox, plus the parity its messages
/// are tagged with.
struct Tx<'a> {
    out: &'a mut Outbox<ConnMsg>,
    parity: bool,
}

/// One machine of the distributed sketch-connectivity protocol.
#[derive(Debug)]
pub struct SketchConnectivity {
    n: usize,
    params: SketchParams,
    /// This machine's RVP input (hosted vertices + adjacency).
    lg: LocalGraph,
    /// Current component label of each *hosted* vertex (local index
    /// order) — `O(n/k)` state; no machine ever stores all `n` labels.
    labels: Vec<Vertex>,
    /// Labels this machine knows to be closed (boundary-free).
    closed: BTreeSet<Vertex>,
    stage: Stage,
    phase: u64,
    // ---- proxy-side state, cleared every phase ----
    slots: BTreeMap<Vertex, Slot>,
    label_queries: Vec<(MachineIdx, Vertex)>,
    ans: BTreeMap<Vertex, Vertex>,
    partners: BTreeMap<Vertex, BTreeMap<Vertex, Edge>>,
    partner_mins: BTreeMap<Vertex, Vertex>,
    parent: BTreeMap<Vertex, Vertex>,
    resolved: BTreeSet<Vertex>,
    jq: Vec<(MachineIdx, Vertex, Vertex)>,
    relabel: BTreeMap<Vertex, Vertex>,
    /// Spanning-forest edges recorded at this machine (as the hooking
    /// label's proxy); the global forest is the union over machines.
    pub forest: Vec<Edge>,
    /// Phases started.
    pub phases: u64,
}

impl SketchConnectivity {
    /// Builds one protocol instance per machine from the distributed
    /// input — the Section 1.1 shape, whether it came from
    /// [`DistGraphBuilder`] or a streaming ingest via `km_graph::stream`.
    /// Sketch parameters come from the distributed edge loads
    /// (`Σ loads = 2m` for undirected builds).
    pub fn build_all(dist: DistGraph) -> Vec<Staged<SketchConnectivity, 2>> {
        let n = dist.n();
        let m = dist.edge_loads().iter().sum::<usize>() / 2;
        let params = SketchParams::for_graph(n, m);
        dist.into_locals()
            .into_iter()
            .map(|lg| {
                Staged::new(SketchConnectivity {
                    n,
                    params,
                    labels: lg.vertices().to_vec(),
                    lg,
                    closed: BTreeSet::new(),
                    stage: Stage::Partials,
                    phase: 0,
                    slots: BTreeMap::new(),
                    label_queries: Vec::new(),
                    ans: BTreeMap::new(),
                    partners: BTreeMap::new(),
                    partner_mins: BTreeMap::new(),
                    parent: BTreeMap::new(),
                    resolved: BTreeSet::new(),
                    jq: Vec::new(),
                    relabel: BTreeMap::new(),
                    forest: Vec::new(),
                    phases: 0,
                })
            })
            .collect()
    }

    /// The proxy machine owning label `c` this phase.
    #[inline]
    fn owner(&self, ctx: &RoundCtx<'_>, c: Vertex) -> MachineIdx {
        phase_proxy_of(ctx.shared_seed, self.phase, c as u64, ctx.k)
    }

    /// Routes a message: remote messages go on the wire, messages to
    /// self apply immediately (a machine being its own proxy costs no
    /// bandwidth, consistent with free local computation).
    fn post(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        tx: &mut Tx<'_>,
        dst: MachineIdx,
        payload: ConnPayload,
    ) {
        let msg = ConnMsg::new(self.n, tx.parity, payload);
        if dst == ctx.me {
            self.apply(ctx, ctx.me, msg);
        } else {
            tx.out.send(dst, msg);
        }
    }

    /// Stage 1: aggregate fresh vertex sketches per live label and ship
    /// the partials to this phase's proxies.
    fn enter_partials(&mut self, ctx: &mut RoundCtx<'_>, tx: &mut Tx<'_>) -> [u64; 2] {
        self.phases += 1;
        let seed = phase_seed(ctx.shared_seed, self.phase as usize);
        let mut partials: BTreeMap<Vertex, L0Sketch> = BTreeMap::new();
        for (j, &v) in self.lg.vertices().iter().enumerate() {
            let l = self.labels[j];
            if self.closed.contains(&l) {
                continue;
            }
            // XOR-ing v's vertex sketch equals toggling its incident
            // edges, so toggle straight into the per-label partial — no
            // per-vertex sketch allocation in the hottest loop.
            let partial = partials
                .entry(l)
                .or_insert_with(|| L0Sketch::empty_with(self.params));
            for &w in self.lg.neighbors(j) {
                partial.toggle_edge(Edge::new(v, w), seed);
            }
        }
        let mut sent = 0u64;
        for (l, sketch) in partials {
            if sketch.is_empty() {
                // No boundary for my entire label-l set ⇒ the component
                // is fully hosted here and complete. Close it locally;
                // nothing to ship, no proxy involved.
                self.closed.insert(l);
                continue;
            }
            sent += 1;
            let dst = self.owner(ctx, l);
            self.post(ctx, tx, dst, ConnPayload::Partial { comp: l, sketch });
        }
        [sent, 0]
    }

    /// Stage 2: decode each owned component sketch; query the decoded
    /// endpoints' labels, and tell contributors about closed components.
    fn enter_decode(&mut self, ctx: &mut RoundCtx<'_>, tx: &mut Tx<'_>) -> [u64; 2] {
        let seed = phase_seed(ctx.shared_seed, self.phase as usize);
        let (mut decoded, mut failed) = (0u64, 0u64);
        let mut closed_posts: Vec<(MachineIdx, Vertex)> = Vec::new();
        let mut queries: BTreeSet<Vertex> = BTreeSet::new();
        for (&c, slot) in self.slots.iter_mut() {
            if slot.sketch.is_empty() {
                slot.contributors.sort_unstable();
                slot.contributors.dedup();
                for &m in &slot.contributors {
                    closed_posts.push((m, c));
                }
                continue;
            }
            match slot.sketch.decode(seed) {
                Some(e) => {
                    slot.decoded = Some(e);
                    decoded += 1;
                    queries.insert(e.u);
                    queries.insert(e.v);
                }
                None => failed += 1,
            }
        }
        for (m, comp) in closed_posts {
            self.post(ctx, tx, m, ConnPayload::Closed { comp });
        }
        for v in queries {
            let home = self.lg.home(v);
            self.post(ctx, tx, home, ConnPayload::LabelQ { v });
        }
        [decoded, failed]
    }

    /// Stage 3: answer the queued label queries from local state.
    fn enter_label_reply(&mut self, ctx: &mut RoundCtx<'_>, tx: &mut Tx<'_>) -> [u64; 2] {
        for (asker, v) in std::mem::take(&mut self.label_queries) {
            // lint: allow(panic) — LabelQ messages are routed to home(v), which hosts v
            let j = self.lg.local(v).expect("label queries route to the home");
            let label = self.labels[j];
            self.post(ctx, tx, asker, ConnPayload::LabelA { v, label });
        }
        [0, 0]
    }

    /// Stage 4: turn decoded edges into merge records and send each to
    /// both component labels' proxies.
    fn enter_notify(&mut self, ctx: &mut RoundCtx<'_>, tx: &mut Tx<'_>) -> [u64; 2] {
        let mut records: Vec<(Vertex, Vertex, Edge)> = Vec::new();
        for slot in self.slots.values() {
            if let Some(e) = slot.decoded {
                let a = self.ans[&e.u];
                let b = self.ans[&e.v];
                debug_assert_ne!(a, b, "boundary edge {e:?} inside one component");
                if a != b {
                    records.push((a, b, e));
                }
            }
        }
        for (a, b, e) in records {
            let pa = self.owner(ctx, a);
            let pb = self.owner(ctx, b);
            self.post(ctx, tx, pa, ConnPayload::Merge { a, b, e });
            if pb != pa {
                self.post(ctx, tx, pb, ConnPayload::Merge { a, b, e });
            }
        }
        [0, 0]
    }

    /// Stage 5: announce each owned component's minimum merge partner to
    /// its partners' proxies (for the mutual-hook 2-cycle break).
    fn enter_min_exchange(&mut self, ctx: &mut RoundCtx<'_>, tx: &mut Tx<'_>) -> [u64; 2] {
        let mut posts: Vec<(MachineIdx, Vertex, Vertex)> = Vec::new();
        for (&c, pmap) in &self.partners {
            // lint: allow(panic) — partner maps are created with their first entry and only grow
            let min = *pmap.keys().next().expect("partner maps are non-empty");
            let dsts: BTreeSet<MachineIdx> = pmap.keys().map(|&d| self.owner(ctx, d)).collect();
            for dst in dsts {
                posts.push((dst, c, min));
            }
        }
        for (dst, c, min) in posts {
            self.post(ctx, tx, dst, ConnPayload::MinX { c, min });
        }
        [0, 0]
    }

    /// After the MinExchange barrier: hook every owned component with
    /// merge partners onto its minimum partner (Borůvka hooking; mutual
    /// pairs break toward the smaller label, so the pointer graph is a
    /// forest) and record the witnessing graph edge in the forest.
    fn apply_hooks(&mut self) {
        self.parent = self.slots.keys().map(|&c| (c, c)).collect();
        for (&c, pmap) in &self.partners {
            // lint: allow(panic) — partner maps are created with their first entry and only grow
            let (&d, &e) = pmap.iter().next().expect("non-empty");
            match self.partner_mins.get(&d) {
                Some(&md) if md == c && c < d => {
                    // Mutual minimum pair {c, d}: the smaller stays root,
                    // the larger records the edge when it hooks.
                }
                Some(_) => {
                    self.parent.insert(c, d);
                    self.forest.push(e);
                }
                None => {
                    debug_assert!(false, "missing MinX for partner {d} of {c}");
                }
            }
        }
        self.resolved = self
            .parent
            .iter()
            .filter(|&(c, p)| c == p)
            .map(|(&c, _)| c)
            .collect();
    }

    /// Stage 6 (looped): every hooked, unresolved label asks its
    /// parent's owner for the grandparent.
    fn enter_jump_q(&mut self, ctx: &mut RoundCtx<'_>, tx: &mut Tx<'_>) -> [u64; 2] {
        let mut posts: Vec<(MachineIdx, Vertex, Vertex)> = Vec::new();
        for (&c, &p) in &self.parent {
            if p != c && !self.resolved.contains(&c) {
                posts.push((self.owner(ctx, p), c, p));
            }
        }
        let unresolved = posts.len() as u64;
        for (dst, c, d) in posts {
            self.post(ctx, tx, dst, ConnPayload::JumpQ { c, d });
        }
        [unresolved, 0]
    }

    /// Stage 7 (looped): answer the queued jump queries.
    fn enter_jump_a(&mut self, ctx: &mut RoundCtx<'_>, tx: &mut Tx<'_>) -> [u64; 2] {
        for (asker, c, d) in std::mem::take(&mut self.jq) {
            let p = *self
                .parent
                .get(&d)
                // lint: allow(panic) — JumpQ messages are routed to the component owner, which tracks parent
                .expect("jump queries route to the owner");
            self.post(ctx, tx, asker, ConnPayload::JumpA { c, p, root: p == d });
        }
        [0, 0]
    }

    /// Stage 8: push `old label → resolved root` back to exactly the
    /// machines that contributed partials for the label.
    fn enter_push(&mut self, ctx: &mut RoundCtx<'_>, tx: &mut Tx<'_>) -> [u64; 2] {
        let mut posts: Vec<(MachineIdx, Vertex, Vertex)> = Vec::new();
        for (&c, slot) in self.slots.iter_mut() {
            let root = *self.parent.get(&c).unwrap_or(&c);
            if root == c {
                continue;
            }
            slot.contributors.sort_unstable();
            slot.contributors.dedup();
            for &m in &slot.contributors {
                posts.push((m, c, root));
            }
        }
        for (dst, old, new) in posts {
            self.post(ctx, tx, dst, ConnPayload::Push { old, new });
        }
        [0, 0]
    }

    /// After the Push barrier: apply the relabels and reset the
    /// per-phase proxy state for the next phase.
    fn next_phase(&mut self) {
        for l in self.labels.iter_mut() {
            if let Some(&new) = self.relabel.get(l) {
                *l = new;
            }
        }
        self.slots.clear();
        self.label_queries.clear();
        self.ans.clear();
        self.partners.clear();
        self.partner_mins.clear();
        self.parent.clear();
        self.resolved.clear();
        self.jq.clear();
        self.relabel.clear();
        self.phase += 1;
    }
}

impl Stages<2> for SketchConnectivity {
    type Msg = ConnMsg;

    fn tag(msg: &ConnMsg) -> u8 {
        u8::from(msg.parity)
    }

    fn flush(&self, tag: u8, [c0, c1]: [u64; 2]) -> ConnMsg {
        ConnMsg::new(self.n, tag == 1, ConnPayload::Flush { c0, c1 })
    }

    /// Applies one delivered (or self-posted) message of the current
    /// stage parity.
    fn apply(&mut self, ctx: &mut RoundCtx<'_>, src: MachineIdx, msg: ConnMsg) -> Option<[u64; 2]> {
        match msg.payload {
            ConnPayload::Partial { comp, sketch } => {
                let params = self.params;
                let slot = self.slots.entry(comp).or_insert_with(|| Slot {
                    sketch: L0Sketch::empty_with(params),
                    contributors: Vec::new(),
                    decoded: None,
                });
                slot.sketch.xor_in(&sketch);
                slot.contributors.push(src);
            }
            ConnPayload::Closed { comp } => {
                self.closed.insert(comp);
            }
            ConnPayload::LabelQ { v } => self.label_queries.push((src, v)),
            ConnPayload::LabelA { v, label } => {
                self.ans.insert(v, label);
            }
            ConnPayload::Merge { a, b, e } => {
                for (mine, other) in [(a, b), (b, a)] {
                    if self.owner(ctx, mine) == ctx.me {
                        let entry = self
                            .partners
                            .entry(mine)
                            .or_default()
                            .entry(other)
                            .or_insert(e);
                        // Deterministic witness: keep the smallest edge.
                        *entry = (*entry).min(e);
                    }
                }
            }
            ConnPayload::MinX { c, min } => {
                self.partner_mins.insert(c, min);
            }
            ConnPayload::JumpQ { c, d } => self.jq.push((src, c, d)),
            ConnPayload::JumpA { c, p, root } => {
                if root {
                    self.resolved.insert(c);
                } else {
                    self.parent.insert(c, p);
                }
            }
            ConnPayload::Push { old, new } => {
                self.relabel.insert(old, new);
            }
            ConnPayload::Flush { c0, c1 } => return Some([c0, c1]),
        }
        None
    }

    fn enter(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Outbox<ConnMsg>, tag: u8) -> [u64; 2] {
        let tx = &mut Tx {
            out,
            parity: tag == 1,
        };
        match self.stage {
            Stage::Partials => self.enter_partials(ctx, tx),
            Stage::Decode => self.enter_decode(ctx, tx),
            Stage::LabelReply => self.enter_label_reply(ctx, tx),
            Stage::Notify => self.enter_notify(ctx, tx),
            Stage::MinExchange => self.enter_min_exchange(ctx, tx),
            Stage::JumpQ => self.enter_jump_q(ctx, tx),
            Stage::JumpA => self.enter_jump_a(ctx, tx),
            Stage::Push => self.enter_push(ctx, tx),
        }
    }

    /// Picks the next stage from the one whose barrier just completed
    /// and its global counters, running the stage-completion mutations
    /// (`next_phase` / `apply_hooks`) first — [`Staged`] replays early
    /// arrivals only afterwards, so a fast peer's next-phase `Partial`
    /// lands in the *cleared* slot table instead of being wiped.
    fn complete(&mut self, _ctx: &mut RoundCtx<'_>, _tag: u8, totals: [u64; 2]) -> bool {
        self.stage = match self.stage {
            Stage::Partials => {
                if totals[0] == 0 {
                    // Every component is closed: the forest is final.
                    return false;
                }
                Stage::Decode
            }
            Stage::Decode => {
                if totals[0] == 0 {
                    // Nothing decoded: retry with fresh randomness
                    // (or, if everything just closed, terminate at
                    // the next Partials barrier).
                    self.next_phase();
                    Stage::Partials
                } else {
                    Stage::LabelReply
                }
            }
            Stage::LabelReply => Stage::Notify,
            Stage::Notify => Stage::MinExchange,
            Stage::MinExchange => {
                self.apply_hooks();
                Stage::JumpQ
            }
            Stage::JumpQ => {
                if totals[0] == 0 {
                    Stage::Push
                } else {
                    Stage::JumpA
                }
            }
            Stage::JumpA => Stage::JumpQ,
            Stage::Push => {
                self.next_phase();
                Stage::Partials
            }
        };
        true
    }
}

/// The assembled output of a sketch-connectivity run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectivityOutput {
    /// The spanning forest, sorted canonically. Every edge is a real
    /// graph edge; `forest.len() = n − components`.
    pub forest: Vec<Edge>,
    /// Number of connected components.
    pub components: usize,
    /// Protocol phases executed (identical on every machine).
    pub phases: u64,
}

/// Sketch connectivity as a [`KmAlgorithm`]: graph + partition in,
/// spanning forest out.
#[derive(Debug, Clone, Copy)]
pub struct DistributedSketchConnectivity<'a> {
    /// The input graph.
    pub g: &'a CsrGraph,
    /// The vertex partition (its `k` must match the runner's).
    pub part: &'a Arc<Partition>,
}

impl KmAlgorithm for DistributedSketchConnectivity<'_> {
    type Machine = Staged<SketchConnectivity, 2>;
    type Output = ConnectivityOutput;

    fn build(&self, k: usize) -> Vec<Staged<SketchConnectivity, 2>> {
        assert_eq!(self.part.k(), k, "partition k must match the network k");
        SketchConnectivity::build_all(DistGraphBuilder::new(self.part).undirected(self.g))
    }

    fn extract(
        &self,
        machines: Vec<Staged<SketchConnectivity, 2>>,
        _metrics: &Metrics,
    ) -> ConnectivityOutput {
        extract_connectivity(machines, self.g.n())
    }
}

/// Unions the machines' forest edges into the output for an `n`-vertex
/// input — shared by both sketch-connectivity adapters.
fn extract_connectivity(
    machines: Vec<Staged<SketchConnectivity, 2>>,
    n: usize,
) -> ConnectivityOutput {
    let phases = machines[0].inner().phases;
    let mut forest: Vec<Edge> = machines
        .into_iter()
        .flat_map(|m| m.into_inner().forest)
        .collect();
    forest.sort_unstable();
    debug_assert!(
        forest.windows(2).all(|w| w[0] != w[1]),
        "a forest edge was recorded twice"
    );
    ConnectivityOutput {
        components: n - forest.len(),
        forest,
        phases,
    }
}

/// Runs the distributed sketch-connectivity protocol and returns the
/// output plus transcript metrics. Thin wrapper over [`run_algorithm`]
/// with the default engine choice.
pub fn run_sketch_connectivity(
    g: &CsrGraph,
    part: &Arc<Partition>,
    net: NetConfig,
) -> Result<(ConnectivityOutput, Metrics), km_core::EngineError> {
    let outcome = run_algorithm(&DistributedSketchConnectivity { g, part }, Runner::new(net))?;
    Ok((outcome.output, outcome.metrics))
}

/// Sketch connectivity over an already-distributed input: the streaming
/// counterpart of [`DistributedSketchConnectivity`], for graphs ingested
/// via `km_graph::stream` where no global [`CsrGraph`] ever exists.
#[derive(Debug, Clone, Copy)]
pub struct PrebuiltSketchConnectivity<'a> {
    /// The distributed input (its partition `k` must match the runner's).
    pub dist: &'a DistGraph,
}

impl KmAlgorithm for PrebuiltSketchConnectivity<'_> {
    type Machine = Staged<SketchConnectivity, 2>;
    type Output = ConnectivityOutput;

    fn build(&self, k: usize) -> Vec<Staged<SketchConnectivity, 2>> {
        assert_eq!(
            self.dist.k(),
            k,
            "distributed input k must match the network k"
        );
        SketchConnectivity::build_all(self.dist.clone())
    }

    fn extract(
        &self,
        machines: Vec<Staged<SketchConnectivity, 2>>,
        _metrics: &Metrics,
    ) -> ConnectivityOutput {
        extract_connectivity(machines, self.dist.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use km_graph::generators::{classic, gnp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(k: usize, n: usize, seed: u64) -> NetConfig {
        NetConfig::polylog(k, n, seed).max_rounds(50_000_000)
    }

    /// Union-find oracle: component id (min member) per vertex.
    fn oracle_components(g: &CsrGraph) -> Vec<Vertex> {
        let mut parent: Vec<Vertex> = (0..g.n() as Vertex).collect();
        fn find(parent: &mut [Vertex], mut x: Vertex) -> Vertex {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for e in g.edges() {
            let (ru, rv) = (find(&mut parent, e.u), find(&mut parent, e.v));
            if ru != rv {
                let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
                parent[hi as usize] = lo;
            }
        }
        (0..g.n() as Vertex).map(|v| find(&mut parent, v)).collect()
    }

    /// Asserts the protocol's forest induces exactly the oracle's
    /// component structure.
    fn assert_matches_oracle(g: &CsrGraph, out: &ConnectivityOutput) {
        let want = oracle_components(g);
        let want_cc = want.iter().collect::<BTreeSet<_>>().len();
        assert_eq!(out.components, want_cc, "component count");
        assert_eq!(out.forest.len(), g.n() - want_cc, "forest size");
        for e in &out.forest {
            assert!(g.has_edge(e.u, e.v), "forest edge {e:?} not in graph");
        }
        // Forest reachability equals graph reachability: same size + real
        // edges + acyclicity (checked via component count of the forest).
        let pairs: Vec<(Vertex, Vertex)> = out.forest.iter().map(|e| (e.u, e.v)).collect();
        let f = CsrGraph::from_edges(g.n(), &pairs);
        let got = oracle_components(&f);
        assert_eq!(got, want, "forest connects exactly the graph's components");
    }

    #[test]
    fn classic_graphs_spanning_trees() {
        for (g, k) in [
            (classic::path(40), 4usize),
            (classic::cycle(31), 3),
            (classic::star(50), 5),
            (classic::complete(24), 6),
        ] {
            let part = Arc::new(Partition::by_hash(g.n(), k, 7));
            let (out, _) = run_sketch_connectivity(&g, &part, net(k, g.n(), 5)).unwrap();
            assert_matches_oracle(&g, &out);
            assert_eq!(out.components, 1);
        }
    }

    #[test]
    fn random_graphs_match_union_find_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for (n, p, k) in [
            (60usize, 0.015, 4usize), // many components + isolated vertices
            (120, 0.03, 8),
            (80, 0.2, 5),
            (50, 0.5, 3),
        ] {
            let g = gnp(n, p, &mut rng);
            let part = Arc::new(Partition::by_hash(n, k, k as u64 + 1));
            let (out, _) = run_sketch_connectivity(&g, &part, net(k, n, 11)).unwrap();
            assert_matches_oracle(&g, &out);
        }
    }

    #[test]
    fn edgeless_graph_closes_immediately() {
        let g = CsrGraph::from_edges(12, &[]);
        let part = Arc::new(Partition::by_hash(12, 4, 2));
        let (out, metrics) = run_sketch_connectivity(&g, &part, net(4, 12, 3)).unwrap();
        assert!(out.forest.is_empty());
        assert_eq!(out.components, 12);
        // One Partials stage of pure flushes suffices.
        assert!(metrics.rounds <= 4, "rounds {}", metrics.rounds);
    }

    #[test]
    fn degenerate_machine_counts() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let g = gnp(30, 0.1, &mut rng);
        for k in [1usize, 2] {
            let part = Arc::new(Partition::by_hash(30, k, 5));
            let (out, _) = run_sketch_connectivity(&g, &part, net(k, 30, 9)).unwrap();
            assert_matches_oracle(&g, &out);
        }
    }

    #[test]
    fn phase_count_is_logarithmic() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let n = 128;
        let g = gnp(n, 0.1, &mut rng);
        let part = Arc::new(Partition::by_hash(n, 4, 3));
        let (out, _) = run_sketch_connectivity(&g, &part, net(4, n, 13)).unwrap();
        // Components at least halve per productive phase; decode failures
        // may add a few retries, and the final all-closed check adds one.
        assert!(out.phases <= 18, "phases {}", out.phases);
    }

    #[test]
    fn no_broadcast_recv_bits_shrink_with_k() {
        // The headline property: unlike BoruvkaMst's choice broadcast,
        // per-machine received bits *decrease* as k grows at fixed n.
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let n = 400;
        let g = gnp(n, 0.03, &mut rng);
        let recv = |k: usize| {
            let part = Arc::new(Partition::by_hash(n, k, 5));
            let (out, m) = run_sketch_connectivity(&g, &part, net(k, n, 7)).unwrap();
            assert_matches_oracle(&g, &out);
            m.max_recv_bits()
        };
        let (r4, r16) = (recv(4), recv(16));
        assert!(
            (r16 as f64) < 0.6 * r4 as f64,
            "recv bits should shrink with k: k=4 → {r4}, k=16 → {r16}"
        );
    }

    /// `bits()` of every variant at n ∈ {2, 3, 10³, 5·10⁴, 2³²}, as
    /// literals: the logical sizes every transcript is charged in. A
    /// codec change that moves one of them re-prices every run.
    #[test]
    fn conn_msg_sizes_are_pinned() {
        let sketch = L0Sketch::empty_with(SketchParams {
            levels: 12,
            reps: 4,
        });
        for (i, n) in [2usize, 3, 1_000, 50_000, 1 << 32].into_iter().enumerate() {
            let (a, b) = (0, (n - 1) as Vertex);
            let e = Edge::new(a, b);
            let counter = n as u64; // flush counters are ≤ n
            for (payload, want) in [
                (
                    ConnPayload::Partial {
                        comp: b,
                        sketch: sketch.clone(),
                    },
                    [4678, 4679, 4687, 4693, 4709],
                ),
                (ConnPayload::Closed { comp: b }, [6, 7, 15, 21, 37]),
                (ConnPayload::LabelQ { v: b }, [6, 7, 15, 21, 37]),
                (ConnPayload::LabelA { v: a, label: b }, [7, 9, 25, 37, 69]),
                (ConnPayload::Merge { a, b, e }, [9, 13, 45, 69, 133]),
                (ConnPayload::MinX { c: b, min: a }, [7, 9, 25, 37, 69]),
                (ConnPayload::JumpQ { c: a, d: b }, [7, 9, 25, 37, 69]),
                (
                    ConnPayload::JumpA {
                        c: b,
                        p: b,
                        root: true,
                    },
                    [8, 10, 26, 38, 70],
                ),
                (ConnPayload::Push { old: b, new: a }, [7, 9, 25, 37, 69]),
                (
                    ConnPayload::Flush {
                        c0: counter,
                        c1: counter,
                    },
                    [9, 11, 27, 39, 71],
                ),
            ] {
                let msg = ConnMsg::new(n, true, payload);
                assert_eq!(msg.bits(), want[i], "{:?} at n = {n}", msg.payload);
            }
        }
    }

    proptest::proptest! {
        /// Every ConnPayload variant survives the distributed engine's
        /// wire format, including the Partial variant whose sketch and
        /// component id are both variable-width.
        #[test]
        fn conn_msgs_roundtrip_the_wire(
            n in 2usize..1_000_000,
            a in 0u32..1_000_000,
            b in 0u32..1_000_000,
            edges in proptest::collection::vec((0u32..16, 0u32..16), 0..40),
            counter in 0u64..1_000_000,
            seed in 0u64..500,
            parity in 0u8..2,
        ) {
            let parity = parity != 0;
            let n32 = n as u32;
            let (a, b) = (a % n32, b % n32);
            let e = if a == b {
                km_graph::Edge::new(a, (a + 1) % n32.max(2))
            } else {
                km_graph::Edge::new(a, b)
            };
            let g = CsrGraph::from_edges(16, &edges);
            let p = SketchParams::for_graph(g.n(), g.m());
            let sketch = L0Sketch::for_vertex_with(p, &g, a % 16, seed);
            let counter = counter % (n as u64 + 1); // flush counters are ≤ n
            for payload in [
                ConnPayload::Partial { comp: a, sketch },
                ConnPayload::Closed { comp: a },
                ConnPayload::LabelQ { v: a },
                ConnPayload::LabelA { v: a, label: b },
                ConnPayload::Merge { a, b, e },
                ConnPayload::MinX { c: a, min: b },
                ConnPayload::JumpQ { c: a, d: b },
                ConnPayload::JumpA { c: a, p: b, root: parity },
                ConnPayload::Push { old: a, new: b },
                ConnPayload::Flush { c0: counter, c1: n as u64 - (counter % (n as u64)) },
            ] {
                km_core::assert_roundtrip(&ConnMsg::new(n, parity, payload));
            }
        }
    }
}
