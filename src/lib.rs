//! # km-repro
//!
//! Umbrella crate for the reproduction of *On the Distributed Complexity of
//! Large-Scale Graph Computations* (Pandurangan, Robinson, Scquizzato;
//! SPAA 2018). Re-exports the workspace crates under stable names so
//! examples and downstream users need a single dependency:
//!
//! * [`core`] — the k-machine model simulator (engines, routing, metrics);
//! * [`graph`] — graphs, generators, and the RVP/REP input partitions;
//! * [`pagerank`] — Algorithm 1 and its baselines (Theorems 2 & 4);
//! * [`triangle`] — triangle enumeration (Theorems 3 & 5, Corollaries 1–2);
//! * [`lower`] — the General Lower Bound Theorem machinery (Theorem 1);
//! * [`sort`] — distributed sample sort (Section 1.3 application);
//! * [`mst`] — connectivity/MST via Borůvka phases (Section 1.3).
//!
//! See `examples/quickstart.rs` for a five-minute tour, and the top-level
//! `README.md` for the full paper→code map.
//!
//! ## Running a protocol through the `Runner`
//!
//! A distributed algorithm implements [`core::Protocol`] from the point
//! of view of one machine; the [`core::Runner`] executes all `k`
//! machines in synchronous rounds, charging each link `B` bits per
//! round, on whichever engine [`core::EngineKind`] selects (the
//! sequential reference and the distributed engine are
//! transcript-identical). Here every machine greets machine 0 and stops:
//!
//! ```
//! use km_repro::core::{
//!     EngineKind, Envelope, NetConfig, Outbox, Protocol, RoundCtx, Runner, Status,
//! };
//!
//! struct Greeter {
//!     heard: usize,
//! }
//!
//! impl Protocol for Greeter {
//!     type Msg = u32;
//!     fn round(
//!         &mut self,
//!         ctx: &mut RoundCtx<'_>,
//!         inbox: &mut Vec<Envelope<u32>>,
//!         out: &mut Outbox<u32>,
//!     ) -> Status {
//!         self.heard += inbox.len();
//!         if ctx.round == 0 && ctx.me != 0 {
//!             out.send(0, ctx.me as u32); // everyone pings machine 0
//!             Status::Active
//!         } else {
//!             Status::Done
//!         }
//!     }
//! }
//!
//! let k = 4;
//! let machines = (0..k).map(|_| Greeter { heard: 0 }).collect();
//! let report = Runner::new(NetConfig::with_bandwidth(k, 64, /* seed */ 7))
//!     .engine(EngineKind::Auto) // or Sequential / Distributed
//!     .run(machines)
//!     .unwrap();
//!
//! // Machine 0 heard from the other k-1 machines…
//! assert_eq!(report.machines[0].heard, k - 1);
//! // …and the run's round count was accounted by the engine.
//! assert!(report.metrics.rounds >= 1);
//! ```
//!
//! Full algorithms (sorting, MST, PageRank, triangles) implement
//! [`core::KmAlgorithm`] — the build → run → extract lifecycle — and run
//! through [`core::run_algorithm`], which returns a structured
//! [`core::RunOutcome`] (output + metrics + config echo):
//!
//! ```
//! use km_repro::core::{run_algorithm, NetConfig, Runner};
//! use km_repro::sort::DistributedSort;
//!
//! let alg = DistributedSort::new(vec![vec![5, 1], vec![4, 8], vec![7, 2]]);
//! let outcome = run_algorithm(&alg, Runner::new(NetConfig::polylog(3, 6, 1))).unwrap();
//! assert_eq!(outcome.output, vec![vec![1, 2], vec![4, 5], vec![7, 8]]);
//! assert!(outcome.metrics.rounds > 0);
//! ```
//!
//! ## Generating and partitioning an input graph
//!
//! Inputs follow Section 1.1's random vertex partition: a hash-based
//! assignment every machine can evaluate locally. Deterministic seeds
//! make every run replayable:
//!
//! ```
//! use km_repro::graph::generators::gnp;
//! use km_repro::graph::Partition;
//! use km_repro::triangle::seq::count_triangles;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(42);
//! let g = gnp(64, 0.2, &mut rng); // Erdős–Rényi G(64, 0.2)
//! assert_eq!(g.n(), 64);
//! assert!(g.m() > 0);
//!
//! // Same seed ⇒ identical graph (replayability).
//! let mut rng2 = ChaCha8Rng::seed_from_u64(42);
//! assert_eq!(g, gnp(64, 0.2, &mut rng2));
//!
//! // Random vertex partition over k = 4 machines: every vertex has a
//! // home, and loads are near-balanced (Θ~(n/k) whp, Lemma "RVP").
//! let part = Partition::by_hash(g.n(), 4, 3);
//! assert_eq!(part.loads().iter().sum::<usize>(), g.n());
//!
//! // The sequential triangle oracle the distributed algorithms are
//! // verified against:
//! let t = count_triangles(&g);
//! assert!(t > 0, "G(64, 0.2) has triangles whp");
//! ```

pub use km_core as core;
pub use km_graph as graph;
pub use km_lower as lower;
pub use km_mst as mst;
pub use km_pagerank as pagerank;
pub use km_sort as sort;
pub use km_triangle as triangle;
