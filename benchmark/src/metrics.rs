//! Every metric the benchmark reports, by name: unit, direction, how it
//! repeats, and — for the end-to-end ones — the bound by which it may
//! worsen before `compare` calls it a regression.
//!
//! This table is the contract later performance claims name metrics
//! from. README.md and `BENCHMARK.json` restate it; a self-test checks
//! that `BENCHMARK.json` lists exactly these names.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// How a metric behaves between two runs of the same commit and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A measured time, size or rate: compare medians.
    Timing,
    /// A count the program makes that must repeat exactly.
    Exact,
    /// A count that depends on thread timing (recovery traffic).
    TimingDependent,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Timing => "timing",
            Kind::Exact => "exact",
            Kind::TimingDependent => "timing-dependent",
        }
    }
}

/// How far an end-to-end median may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// By this share of the base median.
    Share(f64),
    /// By this share or this absolute amount, whichever is larger.
    ShareOrAbs(f64, f64),
    /// Not at all.
    Exact,
}

impl Bound {
    pub fn label(self, unit: &str) -> String {
        match self {
            Bound::Share(s) => format!("+{:.0}%", s * 100.0),
            Bound::ShareOrAbs(s, a) => format!("+{:.0}% or +{a} {unit}", s * 100.0),
            Bound::Exact => "exact".to_string(),
        }
    }

    /// Whether `new` is worse than `base` by more than the bound
    /// (`better` says which way is worse).
    pub fn violated(self, better: Better, base: f64, new: f64) -> bool {
        let worse_by = match better {
            Better::Lower => new - base,
            Better::Higher => base - new,
        };
        match self {
            Bound::Share(s) => worse_by > s * base.abs(),
            Bound::ShareOrAbs(s, a) => worse_by > (s * base.abs()).max(a),
            Bound::Exact => new != base,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// `Some` for the end-to-end metrics only.
    pub bound: Option<Bound>,
    /// The module measured.
    pub layer: &'static str,
    /// The end-to-end metric this one should move.
    pub moves: &'static str,
    /// The workloads it is reported on.
    pub on: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    kind: Kind,
    bound: Bound,
    on: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind,
        bound: Some(bound),
        layer: "whole system",
        moves: "",
        on,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound: None,
        layer,
        moves,
        on,
    }
}

use Better::{Higher, Lower};
use Kind::{Exact, Timing, TimingDependent};

const PROTOCOL_WORKLOADS: &str = "every workload but ingest";
const WRAPPED: &str = "pagerank, triangles, boruvka_bcast, sketch_cc_wire, sketch_cc_lossy";

/// What a user of the system sees.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("wall_s", "s", Timing, Bound::Share(0.10), "all"),
    e2e(
        "setup_s",
        "s",
        Timing,
        Bound::ShareOrAbs(0.10, 0.005),
        "all",
    ),
    e2e("peak_rss_mib", "MiB", Timing, Bound::Share(0.05), "all"),
    e2e("rounds", "count", Exact, Bound::Exact, PROTOCOL_WORKLOADS),
    e2e(
        "max_recv_kbits",
        "kbit",
        Exact,
        Bound::Exact,
        PROTOCOL_WORKLOADS,
    ),
    e2e("wire_mib", "MiB", Exact, Bound::Exact, "sketch_cc_wire"),
];

/// Single layers, from the traced pass and the micro loops.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: [MetricDef; 47] = [
    layer("trace.overhead_ratio", "ratio", Lower, Timing, "benchmark", "-", WRAPPED),
    layer("runner.build_s", "s", Lower, Timing, "km_core::runner + each algorithm's build_all", "wall_s", WRAPPED),
    layer("runner.extract_s", "s", Lower, Timing, "km_core::runner + each algorithm's extract", "wall_s", WRAPPED),
    layer("protocol.round_s", "s", Lower, Timing, "km_pagerank::kmachine, km_triangle::kmachine, km_mst, km_mst::conn", "wall_s", WRAPPED),
    layer("protocol.round_calls", "count", Lower, Exact, "the same", "wall_s", WRAPPED),
    layer("protocol.round_max_machine_s", "s", Lower, Timing, "the same (straggler)", "wall_s", WRAPPED),
    layer("engine.self_s", "s", Lower, Timing, "km_core::engine", "wall_s", PROTOCOL_WORKLOADS),
    layer("engine.round_us", "us", Lower, Timing, "km_core::engine (per round)", "wall_s", PROTOCOL_WORKLOADS),
    layer("engine.msg_ns", "ns", Lower, Timing, "km_core::engine (per message)", "wall_s", PROTOCOL_WORKLOADS),
    layer("engine.sequential.wall_s", "s", Lower, Timing, "km_core::engine::sequential", "wall_s", PROTOCOL_WORKLOADS),
    layer("engine.parallel.wall_s", "s", Lower, Timing, "km_core::engine::parallel", "wall_s", "every protocol workload but ring_sparse"),
    layer("engine.distributed.wall_s", "s", Lower, Timing, "km_core::engine::distributed", "wall_s", "pagerank, triangles, sketch_cc_wire, sketch_cc_lossy"),
    layer("engine.outcomes_equal", "bool", Higher, Exact, "the three engines", "-", PROTOCOL_WORKLOADS),
    layer("logical.total_msgs", "count", Lower, Exact, "km_core::metrics", "rounds, max_recv_kbits", PROTOCOL_WORKLOADS),
    layer("logical.total_bits", "bit", Lower, Exact, "km_core::metrics", "rounds, max_recv_kbits", PROTOCOL_WORKLOADS),
    layer("logical.max_link_bits", "bit", Lower, Exact, "km_core::metrics", "rounds", PROTOCOL_WORKLOADS),
    layer("logical.link_visits", "count", Lower, Exact, "km_core::metrics", "wall_s", PROTOCOL_WORKLOADS),
    layer("logical.round_floor", "count", Lower, Exact, "km_core::metrics", "rounds", PROTOCOL_WORKLOADS),
    layer("logical.floor_ratio", "ratio", Lower, Exact, "km_core::metrics", "rounds", PROTOCOL_WORKLOADS),
    layer("wire.frames", "count", Lower, Exact, "km_core::engine::distributed", "wire_mib", "sketch_cc_wire"),
    layer("wire.msgs_per_frame", "ratio", Higher, Exact, "km_core::engine::distributed", "wire_mib", "sketch_cc_wire"),
    layer("wire.header_bits", "bit", Lower, Exact, "km_core::codec", "wire_mib", "sketch_cc_wire"),
    layer("wire.record_bits", "bit", Lower, Exact, "km_core::codec", "wire_mib", "sketch_cc_wire"),
    layer("wire.padding_bits", "bit", Lower, Exact, "km_core::codec", "wire_mib", "sketch_cc_wire"),
    layer("wire.wire_vs_logical", "ratio", Lower, Exact, "km_core::codec", "wire_mib", "sketch_cc_wire"),
    layer("wire.round_us", "us", Lower, Timing, "km_core::engine::distributed", "wall_s", "sketch_cc_wire"),
    layer("recovery.retransmit_frames", "count", Lower, TimingDependent, "km_core::faults + recovery half of distributed", "wall_s", "sketch_cc_lossy (0 on sketch_cc_wire)"),
    layer("recovery.nack_frames", "count", Lower, TimingDependent, "the same", "wall_s", "sketch_cc_lossy (0 on sketch_cc_wire)"),
    layer("recovery.bytes", "B", Lower, TimingDependent, "the same", "wall_s", "sketch_cc_lossy (0 on sketch_cc_wire)"),
    layer("recovery.wall_ratio", "ratio", Lower, Timing, "the same", "wall_s", "sketch_cc_lossy"),
    layer("codec.encode_small_ns_per_msg", "ns", Lower, Timing, "km_core::codec", "wall_s", "sketch_cc_wire"),
    layer("codec.decode_small_ns_per_msg", "ns", Lower, Timing, "km_core::codec", "wall_s", "sketch_cc_wire"),
    layer("codec.encode_large_mib_per_s", "MiB/s", Higher, Timing, "km_core::codec", "wall_s", "sketch_cc_wire"),
    layer("codec.decode_large_mib_per_s", "MiB/s", Higher, Timing, "km_core::codec", "wall_s", "sketch_cc_wire"),
    layer("codec.crc32_mib_per_s", "MiB/s", Higher, Timing, "km_core::codec", "wall_s", "sketch_cc_wire"),
    layer("link.push_deliver_ns_per_msg", "ns", Lower, Timing, "km_core::link", "wall_s", "scatter_dense"),
    layer("sketch.build_ns_per_edge", "ns", Lower, Timing, "km_mst::sketch", "wall_s", "sketch_cc_lossy"),
    layer("sketch.xor_ns", "ns", Lower, Timing, "km_mst::sketch", "wall_s", "sketch_cc_lossy"),
    layer("sketch.decode_ns", "ns", Lower, Timing, "km_mst::sketch", "wall_s", "sketch_cc_lossy"),
    layer("sketch.decode_success_ratio", "ratio", Higher, Exact, "km_mst::sketch", "rounds", "sketch_cc_lossy"),
    layer("sketch.wire_bits", "bit", Lower, Exact, "km_mst::sketch", "rounds, max_recv_kbits", "sketch_cc_lossy"),
    layer("graph.generators.gnp_medges_per_s", "Medge/s", Higher, Timing, "km_graph::generators", "setup_s", "ingest"),
    layer("graph.partition.by_hash_ns_per_vertex", "ns", Lower, Timing, "km_graph::partition", "setup_s", "ingest"),
    layer("graph.stream.gen_medges_per_s", "Medge/s", Higher, Timing, "km_graph::stream (generator alone)", "wall_s", "ingest"),
    layer("graph.stream.build_medges_per_s", "Medge/s", Higher, Timing, "km_graph::stream (builder alone)", "wall_s", "ingest"),
    layer("graph.dist.build_medges_per_s", "Medge/s", Higher, Timing, "km_graph::dist", "wall_s", "ingest"),
    layer("graph.dist.peak_rss_mib", "MiB", Lower, Timing, "km_graph::dist", "peak_rss_mib", "ingest"),
];

/// Every metric, end-to-end first, in the order reports print them.
pub fn all() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter())
}

pub fn find(name: &str) -> Option<&'static MetricDef> {
    all().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in all() {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert_eq!(
                m.bound.is_some(),
                END_TO_END.iter().any(|e| e.name == m.name)
            );
        }
    }

    #[test]
    fn bounds_flag_what_they_should() {
        let share = Bound::Share(0.10);
        assert!(share.violated(Lower, 1.0, 1.12));
        assert!(!share.violated(Lower, 1.0, 1.03));
        assert!(!share.violated(Lower, 1.0, 0.5));
        assert!(share.violated(Higher, 1.0, 0.85));
        let setup = Bound::ShareOrAbs(0.10, 0.005);
        assert!(!setup.violated(Lower, 0.001, 0.004), "under 5 ms is noise");
        assert!(setup.violated(Lower, 0.100, 0.115));
        assert!(Bound::Exact.violated(Lower, 163.0, 164.0));
        assert!(Bound::Exact.violated(Lower, 163.0, 162.0));
        assert!(!Bound::Exact.violated(Lower, 163.0, 163.0));
    }
}
