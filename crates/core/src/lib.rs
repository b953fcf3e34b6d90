//! # km-core — the k-machine model, executable
//!
//! A faithful simulator of the **k-machine model** (a.k.a. the Big Data
//! model) of Klauck, Nanongkai, Pandurangan, and Robinson [SODA 2015], as
//! used by *On the Distributed Complexity of Large-Scale Graph
//! Computations* (SPAA 2018):
//!
//! * `k > 2` machines, pairwise interconnected by bidirectional
//!   point-to-point links;
//! * synchronous rounds; in each round every ordered link delivers at most
//!   `B` bits (`B = Θ(polylog n)` by default, [`NetConfig::polylog`]);
//! * local computation is free; the **round complexity** is the number of
//!   rounds until every machine is done and all links are drained.
//!
//! Algorithms implement the [`Protocol`] trait and are executed through
//! the [`Runner`] API: `Runner::new(cfg).engine(EngineKind::Auto)
//! .run(machines)` dispatches to one of **two transcript-identical
//! engines** — the deterministic [`engine::SequentialEngine`] or the
//! message-passing [`engine::DistributedEngine`] (a pool of
//! `min(k, cores)` worker threads each hosting a block of machines,
//! messages serialized through per-link byte channels via
//! [`WireCodec`]) — with [`EngineKind::Auto`] running sequentially
//! unless the `KM_ENGINE` environment variable says otherwise. Full
//! algorithms implement [`KmAlgorithm`] (build → run → extract) and run
//! through the generic [`run_algorithm`] driver, which returns a
//! structured [`RunOutcome`].
//! Message sizes are *logical bit counts* — [`WireCodec::bits`], i.e.
//! what `encode` writes — so
//! experiments can charge exactly the `Θ(log n)`-bit id costs the theory
//! uses; the distributed engine additionally reports *measured* frame
//! bytes in a [`WireReport`], exposing the gap between the accounting
//! model and bits that actually crossed a channel. Detailed transcript
//! statistics ([`Metrics`]) feed the lower-bound validators in
//! `km-lower`.
//!
//! The distributed engine additionally survives an unreliable wire: a
//! seeded [`FaultPlan`] (or the `KM_FAULTS` environment knob) injects
//! frame drops, duplicates, bit corruption, delays, and machine
//! crashes, and the engine's checksum + sequence-number + NACK
//! recovery layer keeps `RunOutcome`s bit-identical to the sequential
//! engine under everything short of a crash — which surfaces as a
//! typed [`EngineError::MachineLost`] instead of a hang (see
//! [`faults`]).
//!
//! The congested clique (`k = n`, one vertex per machine — Corollary 1)
//! is the special case provided by [`clique`]. The randomized-routing
//! toolbox of Lemma 13 and the proxy patterns of Section 1.3 live in
//! [`router`].

pub mod clique;
pub mod codec;
pub mod config;
pub mod engine;
pub mod error;
pub mod faults;
pub mod link;
pub mod message;
pub mod metrics;
pub mod protocol;
pub mod rng;
pub mod router;
pub mod runner;

pub use codec::{assert_roundtrip, BitReader, BitSink, BitWriter, CodecError, WireCodec};
pub use config::NetConfig;
pub use engine::{DistributedEngine, RunReport, SequentialEngine};
pub use error::EngineError;
pub use faults::{CrashSpec, FaultPlan, FrameFate, FAULTS_ENV};
pub use message::{id_bits, Envelope, Outbox, Raw};
pub use metrics::{Metrics, WireReport};
pub use protocol::{Protocol, RoundCtx, Status};
pub use runner::{run_algorithm, EngineKind, KmAlgorithm, RunOutcome, Runner};

/// Index of a machine, `0..k` (shared with `km-graph::MachineIdx`).
pub type MachineIdx = usize;
