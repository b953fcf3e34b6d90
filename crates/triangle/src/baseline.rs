//! The full-replication broadcast baseline.
//!
//! The strawman the scaling experiments contrast with Theorem 5: every
//! machine broadcasts its canonically-owned edges to all `k−1` peers, so
//! everyone learns the whole graph and triangles are deduplicated by a
//! shared ownership hash. Per-link load is `Θ(m/k)` edges, i.e.
//! `O~(m/k)` rounds — a full `k^{2/3}` factor slower than the
//! color-partition algorithm, and the message complexity `Θ(m·k)` shows
//! why Corollary 2's "aggregate everything" strategies are wasteful.

use km_core::rng::keyed_hash;
use km_core::{
    id_bits, run_algorithm, BitReader, BitSink, CodecError, Envelope, KmAlgorithm, Metrics,
    NetConfig, Outbox, Protocol, RoundCtx, Runner, Status, WireCodec,
};
use km_graph::ids::Triangle;
use km_graph::{CsrGraph, DistGraph, DistGraphBuilder, Edge, LocalGraph, Partition, Vertex};
use std::sync::Arc;

/// Broadcast-baseline message: an edge or a flush marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BcastMsg {
    /// A replicated edge.
    Edge {
        /// The edge.
        e: Edge,
        /// Vertex-id width, `id_bits(n)`.
        idb: u8,
    },
    /// Completion marker.
    Flush,
}

impl BcastMsg {
    /// An edge message of an `n`-vertex graph.
    fn edge(n: usize, e: Edge) -> Self {
        BcastMsg::Edge {
            e,
            idb: id_bits(n) as u8,
        }
    }
}

/// Layout: a 1-bit tag (1 = edge, 0 = flush), then either two ids of
/// `(remaining / 2)` bits each or 7 zero padding bits. The edge's odd
/// width keeps it distinguishable from the 8-bit `Flush` marker.
impl WireCodec for BcastMsg {
    fn encode<S: BitSink>(&self, w: &mut S) {
        match self {
            BcastMsg::Edge { e, idb } => {
                w.put(1, 1);
                w.put(u64::from(e.u), u32::from(*idb));
                w.put(u64::from(e.v), u32::from(*idb));
            }
            BcastMsg::Flush => {
                w.put(0, 1);
                w.put(0, 7);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        if r.take(1)? == 0 {
            r.take(7)?;
            return Ok(BcastMsg::Flush);
        }
        let rem = r.remaining();
        if !rem.is_multiple_of(2) || !(1..=32).contains(&(rem / 2)) {
            return Err(CodecError::Invalid {
                what: "broadcast edge body width",
                value: rem,
            });
        }
        let idb = (rem / 2) as u8;
        let width = u32::from(idb);
        Ok(BcastMsg::Edge {
            e: crate::kmachine::decoded_edge(r.take(width)?, r.take(width)?)?,
            idb,
        })
    }
}

/// One machine of the broadcast baseline.
#[derive(Debug)]
pub struct BroadcastTriangle {
    n: usize,
    /// This machine's RVP input (hosted vertices + adjacency + partition).
    lg: LocalGraph,
    /// Every edge of the graph once all flushes are in: pushed on
    /// arrival, sorted and deduplicated once before enumerating.
    edges: Vec<Edge>,
    flushes: usize,
    finished: bool,
    /// Triangles owned (by hash) and enumerated by this machine.
    pub triangles: Vec<Triangle>,
}

impl BroadcastTriangle {
    /// Builds one protocol instance per machine from the distributed
    /// input.
    pub fn build_all(dist: DistGraph) -> Vec<BroadcastTriangle> {
        let n = dist.n();
        dist.into_locals()
            .into_iter()
            .map(|lg| BroadcastTriangle {
                n,
                lg,
                edges: Vec::new(),
                flushes: 0,
                finished: false,
                triangles: Vec::new(),
            })
            .collect()
    }

    fn enumerate(&mut self, ctx: &RoundCtx<'_>) {
        // Shared ownership hash dedups output across machines.
        let k = ctx.k;
        let me = ctx.me;
        let shared = ctx.shared_seed;
        let accept = |&a: &Vertex, &b: &Vertex, &c: &Vertex| {
            let key = ((a as u64) << 42) ^ ((b as u64) << 21) ^ c as u64;
            (keyed_hash(shared, key) % k as u64) as usize == me
        };
        crate::kmachine::sort_dedup(&mut self.edges);
        self.triangles = crate::kmachine::enumerate_within(&self.edges, |v| v, accept);
    }
}

impl Protocol for BroadcastTriangle {
    type Msg = BcastMsg;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<BcastMsg>>,
        out: &mut Outbox<BcastMsg>,
    ) -> Status {
        if ctx.round == 0 {
            for j in 0..self.lg.hosted() {
                let v = self.lg.vertex(j);
                for &w in self.lg.neighbors(j) {
                    // Canonical owner: the home of the smaller endpoint.
                    let e = Edge::new(v, w);
                    if self.lg.home(e.u) == ctx.me && v == e.u {
                        self.edges.push(e);
                        out.broadcast(ctx.me, BcastMsg::edge(self.n, e));
                    }
                }
            }
            out.broadcast(ctx.me, BcastMsg::Flush);
            if ctx.k == 1 {
                self.enumerate(ctx);
                self.finished = true;
                return Status::Done;
            }
            return Status::Active;
        }
        for env in inbox.iter() {
            match env.msg {
                BcastMsg::Edge { e, .. } => self.edges.push(e),
                BcastMsg::Flush => self.flushes += 1,
            }
        }
        if !self.finished && self.flushes == ctx.k - 1 {
            self.enumerate(ctx);
            self.finished = true;
        }
        if self.finished {
            Status::Done
        } else {
            Status::Active
        }
    }
}

/// The broadcast baseline as a [`KmAlgorithm`]: graph + partition in,
/// sorted global triangle list out.
#[derive(Debug, Clone, Copy)]
pub struct BroadcastTriangles<'a> {
    /// The input graph.
    pub g: &'a CsrGraph,
    /// The vertex partition (its `k` must match the runner's).
    pub part: &'a Arc<Partition>,
}

impl KmAlgorithm for BroadcastTriangles<'_> {
    type Machine = BroadcastTriangle;
    type Output = Vec<Triangle>;

    fn build(&self, k: usize) -> Vec<BroadcastTriangle> {
        assert_eq!(self.part.k(), k, "partition k must match the network k");
        BroadcastTriangle::build_all(DistGraphBuilder::new(self.part).undirected(self.g))
    }

    fn extract(&self, machines: Vec<BroadcastTriangle>, _metrics: &Metrics) -> Vec<Triangle> {
        let mut all: Vec<Triangle> = machines
            .iter()
            .flat_map(|m| m.triangles.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Runs the broadcast baseline end to end. Thin wrapper over
/// [`run_algorithm`] with the default engine choice.
pub fn run_broadcast_triangles(
    g: &CsrGraph,
    part: &Arc<Partition>,
    net: NetConfig,
) -> Result<(Vec<Triangle>, km_core::Metrics), km_core::EngineError> {
    let outcome = run_algorithm(&BroadcastTriangles { g, part }, Runner::new(net))?;
    Ok((outcome.output, outcome.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmachine::{run_kmachine_triangles, TriConfig};
    use crate::seq::enumerate_triangles;
    use km_graph::generators::gnp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(k: usize, n: usize, seed: u64) -> NetConfig {
        NetConfig::polylog(k, n, seed).max_rounds(5_000_000)
    }

    #[test]
    fn baseline_is_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = gnp(40, 0.4, &mut rng);
        let part = Arc::new(Partition::by_hash(40, 6, 3));
        let (ts, _) = run_broadcast_triangles(&g, &part, net(6, 40, 4)).unwrap();
        assert_eq!(ts, enumerate_triangles(&g));
    }

    #[test]
    fn color_partition_beats_broadcast_on_rounds() {
        // Dense-ish graph, enough machines for the k^{2/3} gap to show.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 120;
        let k = 27;
        let g = gnp(n, 0.5, &mut rng);
        let part = Arc::new(Partition::by_hash(n, k, 5));
        let (_, m_bcast) = run_broadcast_triangles(&g, &part, net(k, n, 6)).unwrap();
        let (_, m_color) =
            run_kmachine_triangles(&g, &part, TriConfig::default(), net(k, n, 6)).unwrap();
        assert!(
            m_bcast.rounds > m_color.rounds,
            "broadcast {} rounds vs color {} rounds",
            m_bcast.rounds,
            m_color.rounds
        );
        assert!(m_bcast.total_msgs() > 2 * m_color.total_msgs());
    }

    /// `bits()` of every variant at n ∈ {2, 3, 10³, 5·10⁴, 2³²}, as
    /// literals: the logical sizes every transcript is charged in. A
    /// codec change that moves one of them re-prices every run.
    #[test]
    fn bcast_msg_sizes_are_pinned() {
        for (i, n) in [2usize, 3, 1_000, 50_000, 1 << 32].into_iter().enumerate() {
            let e = Edge::new(0, (n - 1) as Vertex);
            for (msg, want) in [
                (BcastMsg::edge(n, e), [3, 5, 21, 33, 65]),
                (BcastMsg::Flush, [8; 5]),
            ] {
                assert_eq!(msg.bits(), want[i], "{msg:?} at n = {n}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn bcast_msgs_roundtrip_the_wire(
            n in 2usize..1_000_000,
            a in 0u32..1_000_000,
            b in 0u32..1_000_000,
        ) {
            let n32 = n as u32;
            let (a, b) = (a % n32, b % n32);
            let e = if a == b {
                Edge::new(a, (a + 1) % n32.max(2))
            } else {
                Edge::new(a, b)
            };
            km_core::assert_roundtrip(&BcastMsg::edge(n, e));
            km_core::assert_roundtrip(&BcastMsg::Flush);

            // The same edge with its endpoints swapped is not a message.
            let swapped = BcastMsg::edge(n, Edge { u: e.v, v: e.u });
            let mut w = km_core::BitWriter::new();
            swapped.encode(&mut w);
            let mut r = BitReader::new(w.bytes(), w.bit_len()).unwrap();
            proptest::prop_assert_eq!(
                BcastMsg::decode(&mut r),
                Err(CodecError::Invalid { what: "non-canonical edge", value: u64::from(e.v) })
            );
        }
    }
}
