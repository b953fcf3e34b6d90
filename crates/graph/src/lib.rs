//! # km-graph
//!
//! Graph substrate for the k-machine model reproduction of
//! *On the Distributed Complexity of Large-Scale Graph Computations*
//! (Pandurangan, Robinson, Scquizzato; SPAA 2018).
//!
//! This crate provides:
//!
//! * compact CSR representations for undirected ([`CsrGraph`]), directed
//!   ([`DiGraph`]) and weighted ([`WeightedGraph`]) graphs, using `u32`
//!   vertex ids throughout, each sorted, deduplicated and compacted by the
//!   one adjacency canonicalizer in [`csr`] that the streaming builder
//!   shares;
//! * the graph generators used by the paper's lower and upper bounds:
//!   Erdős–Rényi [`generators::gnp()`](generators::gnp()) / [`generators::gnm()`](generators::gnm()) (Theorem 3 uses
//!   `G(n,1/2)`), Chung–Lu power-law graphs, classic families (stars are the
//!   paper's congestion worst case for PageRank), and the Figure-1
//!   lower-bound graph [`generators::lower_bound_h::LowerBoundGraph`];
//! * the input partition models of Section 1.1: the random vertex partition
//!   ([`Partition::random_vertex`], or [`Partition::by_hash`] as real systems
//!   realize it) that all results assume, the random edge partition
//!   ([`partition::rep`]) of footnote 3, and balance diagnostics
//!   ([`partition::balance`]);
//! * the per-machine graph-state layer ([`dist`]): the flat CSR-backed
//!   [`LocalGraph`] every k-machine algorithm runs on, built for all `k`
//!   machines in one fused pass by [`DistGraphBuilder`];
//! * streaming ingestion ([`stream`]): chunked edge sources
//!   ([`EdgeStream`], with the `G(n, p)` driver [`GnpStream`], which shares
//!   [`generators::gnp()`](generators::gnp())'s sampler) and a
//!   [`StreamingDistBuilder`] that routes bounded [`EdgeChunk`]s straight
//!   into the per-machine locals — byte-identical to the in-memory path
//!   without ever materializing the global CSR.
//!
//! All randomized constructions take explicit seeds and are deterministic
//! given the seed, so distributed executions built on top are replayable.

pub mod csr;
pub mod digraph;
pub mod dist;
pub mod error;
pub mod generators;
pub mod ids;
pub mod partition;
pub mod properties;
pub mod stream;
pub mod subgraph;
pub mod weighted;

pub use csr::CsrGraph;
pub use digraph::DiGraph;
pub use dist::{DistGraph, DistGraphBuilder, LocalGraph};
pub use error::GraphError;
pub use ids::{Edge, MachineIdx, Triangle, Vertex};
pub use partition::{Partition, PartitionModel};
pub use stream::{EdgeChunk, EdgeStream, GnpStream, StreamError, StreamingDistBuilder, VecStream};
pub use weighted::WeightedGraph;
