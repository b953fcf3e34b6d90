//! Experiment implementations, grouped by subsystem.

pub mod ablation;
pub mod conn;
pub mod glbt;
pub mod pagerank;
pub mod partition;
pub mod routing;
pub mod sortmst;
pub mod stream;
pub mod triangle;
pub mod wire;

use crate::Table;

/// An experiment entry point: seed in, result table out.
pub type Runner = fn(u64) -> Table;

/// Every experiment, in DESIGN.md order. Each entry is `(id, runner)`.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("F1", pagerank::f1_lemma4_separation),
        ("T2-LB", pagerank::t2_lower_bound),
        ("T4-UB", pagerank::t4_scaling),
        ("T4-ACC", pagerank::t4_accuracy),
        ("T3-LB", triangle::t3_lower_bound),
        ("T5-UB", triangle::t5_scaling),
        ("T5-COR", triangle::t5_correctness),
        ("C1", triangle::c1_congested_clique),
        ("C2", triangle::c2_messages),
        ("L13", routing::l13_random_routing),
        ("P2", partition::p2_rodl_rucinski),
        ("RVP", partition::rvp_balance),
        ("REP", partition::rep_conversion),
        ("S1", sortmst::s1_sorting),
        ("M1", sortmst::m1_mst),
        ("CC-UB", conn::cc_sketch_scaling),
        ("GLBT", glbt::glbt_chain),
        ("ABL", ablation::ablations),
        ("STREAM", stream::stream_scale),
        ("WIRE", wire::wire_matrix),
    ]
}

/// Experiments excluded from the no-argument "run everything" sweep:
/// STREAM runs at a scale (n = 10⁶) that dwarfs the rest of the suite,
/// and WIRE pins the distributed engine whatever `--engine` says.
/// Request them explicitly by id (or `--stream`).
pub const ON_DEMAND: &[&str] = &["STREAM", "WIRE"];
