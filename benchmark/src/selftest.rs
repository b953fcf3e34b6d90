//! Self-tests that need the system itself: the verifiers against real
//! outputs with one thing broken, the tracing wrappers against the bare
//! run on every engine, and `BENCHMARK.json` against the metric table.
//! (Span arithmetic is tested in `trace.rs`, `compare` in `compare.rs`.)

use crate::api::{
    self, ConnInput, EngineKind, KmAlgorithm, MstInput, Protocol, RunOutcome, Seeds, TriangleInput,
    WireCodec,
};
use crate::json::{self, Value};
use crate::metrics;
use crate::trace::Traced;
use crate::verify;
use crate::workloads::WORKLOADS;

const SEEDS: Seeds = Seeds {
    graph: 11,
    partition: 12,
    net: 13,
};

const ENGINES: [EngineKind; 3] = [api::SEQUENTIAL, api::PARALLEL, api::DISTRIBUTED];

fn solve<A>(alg: &A, net: api::NetConfig, engine: EngineKind) -> RunOutcome<A::Output>
where
    A: KmAlgorithm,
    <A::Machine as Protocol>::Msg: WireCodec,
{
    api::solve(alg, net, engine, None).expect("a small clean run succeeds")
}

#[test]
fn triangle_verifier_rejects_a_dropped_triangle() {
    let input = TriangleInput::generate(80, 0.15, 4, SEEDS);
    let mut out = solve(&input.alg(), input.net, api::SEQUENTIAL).output;
    assert_eq!(
        verify::triangles(input.diff(api::triangles_of(&out))),
        Ok(())
    );
    let dropped = api::triangles_mut(&mut out).pop();
    assert!(dropped.is_some(), "the instance has triangles to drop");
    let err = verify::triangles(input.diff(api::triangles_of(&out))).unwrap_err();
    assert!(err.contains("1 missing and 0 spurious"), "{err}");
    // Reporting one twice is as wrong as missing one.
    let again = api::triangles_of(&out)[0];
    api::triangles_mut(&mut out).extend([again, dropped.unwrap()]);
    let err = verify::triangles(input.diff(api::triangles_of(&out))).unwrap_err();
    assert!(err.contains("0 missing and 1 spurious"), "{err}");
}

#[test]
fn mst_verifier_rejects_a_perturbed_weight() {
    let input = MstInput::generate(200, 800, 4, SEEDS);
    let (edges, weight) = solve(&input.alg(), input.net, api::SEQUENTIAL).output;
    let want = input.kruskal();
    assert_eq!(verify::mst((edges.len(), weight), want), Ok(()));
    assert!(verify::mst((edges.len(), weight + 1e-6), want).is_err());
    assert!(verify::mst((edges.len() - 1, weight), want).is_err());
}

#[test]
fn forest_verifier_rejects_a_broken_edge() {
    let input = ConnInput::generate(200, 500, 4, SEEDS);
    let mut out = solve(&input.alg(), input.net, api::SEQUENTIAL).output;
    let (n, edges) = (input.n(), input.edges());
    assert_eq!(
        verify::spanning_forest(n, &edges, api::forest_of(&out)),
        Ok(())
    );
    // Re-point one forest edge at a vertex it does not touch in G.
    let forest = api::forest_mut(&mut out);
    let e = forest[0];
    let stranger = (0..n as u32)
        .find(|&w| w != e.u && w != e.v && !edges.contains(&api::Edge::new(e.u, w)))
        .expect("a sparse graph has non-neighbours");
    forest[0] = api::Edge::new(e.u, stranger);
    let err = verify::spanning_forest(n, &edges, api::forest_of(&out)).unwrap_err();
    assert!(err.contains("not in the graph"), "{err}");
    // Dropping an edge leaves a forest that no longer spans.
    api::forest_mut(&mut out).remove(0);
    assert!(verify::spanning_forest(n, &edges, api::forest_of(&out)).is_err());
}

/// The traced run of `alg` equals the bare run on every engine, and
/// every engine's run equals the sequential one.
fn wrappers_change_nothing<A>(alg: &A, net: api::NetConfig)
where
    A: KmAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
    <A::Machine as Protocol>::Msg: WireCodec,
{
    let reference = solve(alg, net, api::SEQUENTIAL);
    for engine in ENGINES {
        let bare = solve(alg, net, engine);
        let traced = Traced::new(alg);
        let (wrapped, trace) = traced.record(|t| solve(t, net, engine));
        let name = api::engine_name(engine);
        assert_eq!(wrapped, bare, "tracing changed the {name} outcome");
        assert_eq!(bare, reference, "{name} differs from sequential");
        let t = trace.layer_times(engine == api::SEQUENTIAL);
        assert!(t.round_calls >= reference.metrics.rounds, "{name}: {t:?}");
        assert!(t.round_s > 0.0 && t.round_max_machine_s <= t.round_s);
        assert!(
            t.build_s + t.run_s + t.extract_s <= t.solve_s,
            "{name}: {t:?}"
        );
        if engine == api::SEQUENTIAL {
            let tiled = t.build_s + t.round_s + t.engine_self_s + t.extract_s;
            assert!(tiled <= t.solve_s && tiled >= 0.9 * t.solve_s, "{t:?}");
        }
    }
}

#[test]
fn tracing_wrappers_leave_outcomes_identical_on_all_engines() {
    let conn = ConnInput::generate(150, 400, 4, SEEDS);
    wrappers_change_nothing(&conn.alg(), conn.net);
    let tri = TriangleInput::generate(60, 0.2, 4, SEEDS);
    wrappers_change_nothing(&tri.alg(), tri.net);
    let mst = MstInput::generate(150, 400, 4, SEEDS);
    wrappers_change_nothing(&mst.alg(), mst.net);
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(list: &Value) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_of_the_tables() {
    let b = benchmark_json();
    let workloads: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names(b.get("workloads").unwrap()), workloads);
    for (entry, (_, why)) in b
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(WORKLOADS)
    {
        assert_eq!(entry.get("why").and_then(Value::as_str), Some(why));
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    // The driver needs every end-to-end metric on every workload, so
    // BENCHMARK.json lists the three timings there and carries the
    // three exact counts (absent on some workloads) with the layers:
    // exactly the two lists the driver's form prints.
    let e2e: Vec<&str> = crate::driver_end_to_end().map(|d| d.name).collect();
    let layers: Vec<&str> = crate::driver_per_layer().map(|d| d.name).collect();
    assert_eq!(names(b.get("end_to_end").unwrap()), e2e);
    assert_eq!(names(b.get("per_layer").unwrap()), layers);

    let listed = b.get("end_to_end").unwrap().as_arr().unwrap().iter();
    let listed = listed.chain(b.get("per_layer").unwrap().as_arr().unwrap());
    for entry in listed {
        let name = entry.get("name").and_then(Value::as_str).unwrap();
        let def = metrics::find(name).unwrap();
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(def.unit),
            "{name}"
        );
        let better = match def.better {
            metrics::Better::Lower => "lower",
            metrics::Better::Higher => "higher",
        };
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(better),
            "{name}"
        );
    }
    assert_eq!(
        b.get("run_seconds").and_then(Value::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );
}
