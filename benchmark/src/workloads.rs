//! The eight workloads.
//!
//! Each is one closed loop in one process: build the input from the
//! seed, solve it once untimed, then solve it repeatedly for the
//! measured interval, one solve at a time. The only threads besides the
//! caller are the engine's own. Outputs are verified after the timed
//! reps (every rep must equal the first, and the first must pass its
//! verifier), so no reference solution inflates the peak RSS reading.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use crate::api::{
    self, ConnInput, Counters, EngineKind, Envelope, FaultPlan, IngestInput, KmAlgorithm, Metrics,
    MstInput, NetConfig, Outbox, PageRankInput, Protocol, RoundCtx, RunOutcome, Seeds, Status,
    TriangleInput, UniformScatter, WireCodec, WireReport,
};
use crate::host;
use crate::micro::{self, Budget};
use crate::stats::Summary;
use crate::trace::Traced;
use crate::verify;

/// Name and the one-line reason each workload exists.
pub const WORKLOADS: [(&str, &str); 8] = [
    ("pagerank", "Paper's headline (Alg. 1), n=50k k=16 Sequential: ~90% of wall is inside Protocol::round (token walks, RNG), so engine and codec changes should not move it"),
    ("triangles", "Paper's second headline (Thm 5), n=6k k=64 Sequential: few rounds, ~2M messages, bulk re-routing plus local enumeration on dense links"),
    ("boruvka_bcast", "Broadcast-heavy Boruvka at k=128 on EngineKind::Auto, the engine a user gets by default; the one workload where ParallelEngine does the work on a multi-core host"),
    ("sketch_cc_wire", "Sketch connectivity n=10k k=16 on the Distributed engine, clean wire: thousands of near-empty rounds, so barrier, channels and frame codec dominate"),
    ("sketch_cc_lossy", "Same instance under 1% drop, 0.5% corrupt, 0.5% duplicate, 1% delay: the recovery path (retention, NACK, dedup) instead of the reliable fast path"),
    ("ring_sparse", "Engine only: 8 tokens x 1M hops on a k=256 ring, 8 of 65280 links active per round; pure per-round overhead of the round skeleton and active-link index"),
    ("scatter_dense", "Engine only, the opposite use of the same delivery core: 65536 tokens x k=128, every link busy for a few hundred rounds, 8M messages"),
    ("ingest", "Section 1.1 input model: 4M-vertex G(n,p) edge stream into StreamingDistBuilder, no global graph; the graph layer does all the work and peak RSS is the point"),
];

/// Which half of the work a process does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pass {
    /// Timed, untraced reps: the end-to-end metrics.
    EndToEnd,
    /// A short untraced reference, then the traced solve, the
    /// cross-engine pass and the micro loops: the per-layer metrics.
    Layers,
    /// Both, in that order (what `run.sh` without `--trace` does).
    Both,
}

impl Pass {
    fn end_to_end(self) -> bool {
        self != Pass::Layers
    }

    fn layers(self) -> bool {
        self != Pass::EndToEnd
    }
}

pub struct Ctx {
    pub seed: u64,
    /// How long the timed reps of one workload go on.
    pub seconds: f64,
    pub pass: Pass,
    pub smoke: bool,
    /// Where trace files go; `None` writes none.
    pub out_dir: Option<PathBuf>,
    /// This executable, for the `graph.dist.*` child.
    pub exe: PathBuf,
}

/// Timed reps never number fewer than this, however slow the host.
const MIN_REPS: usize = 3;
/// Reps of the untraced reference in a layers-only process.
const REFERENCE_REPS: usize = 2;
/// `setup_s` is the median of at least this many timed constructions…
const SETUP_MIN_SAMPLES: usize = 5;
/// …and of as many more as fit into this long, up to the cap: five
/// constructions of a few milliseconds each do not give a median that
/// repeats within the bound.
const SETUP_SECS: f64 = 1.2;
const SETUP_MAX_SAMPLES: usize = 63;
/// One set-up sample repeats the construction until this long has
/// passed, so a microsecond construction is still timed over
/// milliseconds.
const SETUP_SAMPLE_SECS: f64 = 0.02;

impl Ctx {
    /// Sizes shrink 20× in smoke mode.
    fn size(&self, full: usize) -> usize {
        if self.smoke {
            full / 20
        } else {
            full
        }
    }

    fn budget(&self) -> Budget {
        if self.smoke {
            Budget::SMOKE
        } else {
            Budget::FULL
        }
    }

    fn seeds(&self, salt: u64) -> Seeds {
        derive_seeds(self.seed, salt)
    }

    /// Whether the timed loop goes on after `reps` reps and `elapsed`
    /// seconds.
    fn more_reps(&self, reps: usize, elapsed: f64) -> bool {
        if self.smoke {
            reps < 2
        } else if self.pass == Pass::Layers {
            reps < REFERENCE_REPS
        } else {
            reps < MIN_REPS || elapsed < self.seconds
        }
    }
}

/// Every generator, partition and network seed derives from `--seed`;
/// `salt` separates workloads that must not share one.
fn derive_seeds(seed: u64, salt: u64) -> Seeds {
    let mix = |i: u64| splitmix64(seed ^ splitmix64(salt * 8 + i));
    Seeds {
        graph: mix(0),
        partition: mix(1),
        net: mix(2),
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one workload process measured.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    /// The engine the workload's runner resolved to on this host.
    pub engine: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, Summary)>,
}

impl Report {
    fn new(workload: &'static str) -> Report {
        Report {
            workload,
            engine: "none".to_string(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, summary: Summary) {
        debug_assert!(
            crate::metrics::find(name).is_some(),
            "{name} not in the table"
        );
        self.metrics.push((name, summary));
    }

    fn put_one(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::of(&[value]));
    }

    fn put_exact(&mut self, name: &'static str, value: f64, n: usize) {
        self.put(name, Summary::exact(value, n));
    }

    /// One operation, passed or failed with a reason.
    fn op(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                self.failures.push(why);
                false
            }
        }
    }

    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.median)
    }
}

/// Runs one workload in this process.
pub fn run(name: &str, ctx: &Ctx) -> Option<Report> {
    Some(match name {
        "pagerank" => pagerank(ctx),
        "triangles" => triangles(ctx),
        "boruvka_bcast" => boruvka_bcast(ctx),
        "sketch_cc_wire" => sketch_cc(ctx, false),
        "sketch_cc_lossy" => sketch_cc(ctx, true),
        "ring_sparse" => ring_sparse(ctx),
        "scatter_dense" => scatter_dense(ctx),
        "ingest" => ingest(ctx),
        _ => return None,
    })
}

/// `setup_s`: the median of five or more timed constructions of the
/// input. A construction that takes microseconds is repeated within its
/// sample. Returns the last input built.
fn timed_setup<T>(ctx: &Ctx, rep: &mut Report, mut construct: impl FnMut() -> T) -> T {
    let secs = if ctx.smoke { 0.0 } else { SETUP_SECS };
    let mut samples = Vec::with_capacity(SETUP_MAX_SAMPLES);
    let mut last = None;
    let all = Instant::now();
    while samples.len() < SETUP_MIN_SAMPLES
        || (samples.len() < SETUP_MAX_SAMPLES && all.elapsed().as_secs_f64() < secs)
    {
        let start = Instant::now();
        let mut count = 0u32;
        let per = loop {
            last = Some(black_box(construct()));
            count += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= SETUP_SAMPLE_SECS {
                break elapsed / count as f64;
            }
        };
        samples.push(per);
    }
    rep.put("setup_s", Summary::of(&samples));
    last.expect("at least one construction ran")
}

/// A protocol workload: an algorithm, its network, the engine a user
/// would run it on, and how the layers pass treats it.
struct Proto<'a, A> {
    alg: &'a A,
    net: NetConfig,
    engine: EngineKind,
    faults: Option<FaultPlan>,
    /// Engines the cross-engine pass runs the instance on.
    cross: &'a [EngineKind],
    /// Whether the traced pass wraps the machines. The engine-only
    /// workloads are left bare: two clock reads per call would
    /// outweigh a `round()` of a few nanoseconds.
    wrap: bool,
}

/// What the timed loop leaves behind.
struct Reps<T> {
    walls: Vec<f64>,
    /// Rep 0's result; every later rep was compared against it.
    first: T,
    /// `VmHWM` right after the last rep.
    peak_rss_mib: Option<f64>,
}

/// The closed loop every workload runs: one untimed warm-up solve, then
/// timed solves one at a time until the interval is over. Each rep is
/// one operation; it fails if `solve` errors or its result differs from
/// rep 0's. `each` sees every result (for counters that may vary).
fn timed_reps<T: PartialEq>(
    ctx: &Ctx,
    rep: &mut Report,
    mut solve: impl FnMut() -> Result<T, String>,
    mut each: impl FnMut(&T),
) -> Option<Reps<T>> {
    // Warm-up: page in the code, fill the allocator's free lists.
    if let Err(why) = solve() {
        rep.op(Err(format!("warm-up solve: {why}")));
        return None;
    }
    let mut walls = Vec::new();
    let mut first: Option<T> = None;
    let loop_start = Instant::now();
    while ctx.more_reps(walls.len(), loop_start.elapsed().as_secs_f64()) {
        let start = Instant::now();
        let result = solve();
        let wall = start.elapsed().as_secs_f64();
        match result {
            Err(why) => {
                rep.op(Err(format!("rep {}: {why}", walls.len())));
                // A solve that errors every time would never fill the
                // interval; three strikes end the loop.
                if rep.failed >= 3 {
                    break;
                }
            }
            Ok(outcome) => {
                eprintln!("{}: rep {} {wall:.4} s", rep.workload, walls.len());
                each(&outcome);
                match &first {
                    None => {
                        rep.attempted += 1;
                        first = Some(outcome);
                    }
                    Some(f) => {
                        rep.op(if *f == outcome {
                            Ok(())
                        } else {
                            Err(format!("rep {} differs from rep 0", walls.len()))
                        });
                    }
                }
                walls.push(wall);
            }
        }
    }
    Some(Reps {
        walls,
        peak_rss_mib: host::peak_rss_mib(),
        first: first?,
    })
}

/// Records what every workload reports from its timed reps.
fn put_end_to_end<T>(ctx: &Ctx, rep: &mut Report, reps: &Reps<T>) {
    if ctx.pass.end_to_end() {
        rep.put("wall_s", Summary::of(&reps.walls));
        if let Some(peak) = reps.peak_rss_mib {
            rep.put_one("peak_rss_mib", peak);
        }
    }
}

/// What the timed reps of a protocol workload leave behind for the
/// workload's own layer metrics.
struct Solved<T> {
    first: RunOutcome<T>,
    counters: Counters,
    wall_median: f64,
    /// `WireReport` of every rep that had one.
    wires: Vec<WireReport>,
}

/// The common path of the seven protocol workloads. `verify` judges the
/// first rep's outcome after the peak-RSS reading; every other rep must
/// equal the first.
fn run_proto<A>(
    ctx: &Ctx,
    rep: &mut Report,
    p: &Proto<'_, A>,
    verify: impl FnOnce(&RunOutcome<A::Output>) -> Result<(), String>,
) -> Option<Solved<A::Output>>
where
    A: KmAlgorithm,
    A::Output: PartialEq,
    <A::Machine as Protocol>::Msg: WireCodec,
{
    let resolved = match api::resolved_engine(p.net, p.engine) {
        Ok(e) => e,
        Err(why) => {
            rep.op(Err(format!("engine does not resolve: {why}")));
            return None;
        }
    };
    rep.engine = match resolved {
        EngineKind::Parallel { threads } => format!("parallel:{threads}"),
        other => api::engine_name(other).to_string(),
    };
    let mut wires = Vec::new();
    let reps = timed_reps(
        ctx,
        rep,
        || api::solve(p.alg, p.net, p.engine, p.faults),
        |outcome| wires.extend(outcome.wire.clone()),
    )?;

    // The first rep stands for all of them: the others equal it.
    if let Err(why) = verify(&reps.first) {
        rep.failed = rep.attempted;
        rep.failures.push(why);
    }
    put_end_to_end(ctx, rep, &reps);
    let counters = api::counters(&reps.first.metrics, &p.net);
    // The paper's currency is reported by both passes: it is what the
    // end-to-end result costs, and what the logical layer counts.
    let n = reps.walls.len();
    rep.put_exact("rounds", counters.rounds as f64, n);
    rep.put_exact("max_recv_kbits", counters.max_recv_bits as f64 / 1000.0, n);

    let solved = Solved {
        wall_median: Summary::of(&reps.walls).median,
        first: reps.first,
        counters,
        wires,
    };
    if ctx.pass.layers() {
        proto_layers(ctx, rep, p, resolved, &solved);
    }
    Some(solved)
}

/// The per-layer pass of a protocol workload: logical counters, one
/// traced solve, and the same instance once on each other engine.
fn proto_layers<A>(
    ctx: &Ctx,
    rep: &mut Report,
    p: &Proto<'_, A>,
    resolved: EngineKind,
    solved: &Solved<A::Output>,
) where
    A: KmAlgorithm,
    A::Output: PartialEq,
    <A::Machine as Protocol>::Msg: WireCodec,
{
    let c = &solved.counters;
    rep.put_exact("logical.total_msgs", c.total_msgs as f64, 1);
    rep.put_exact("logical.total_bits", c.total_bits as f64, 1);
    rep.put_exact("logical.max_link_bits", c.max_link_bits as f64, 1);
    rep.put_exact("logical.link_visits", c.link_visits as f64, 1);
    rep.put_exact("logical.round_floor", c.round_floor as f64, 1);
    if c.round_floor > 0 {
        rep.put_exact(
            "logical.floor_ratio",
            c.rounds as f64 / c.round_floor as f64,
            1,
        );
    }

    let sequential = resolved == EngineKind::Sequential;
    let engine_self_s = if p.wrap {
        let traced = Traced::new(p.alg);
        let (result, trace) = traced.record(|t| api::solve(t, p.net, p.engine, p.faults));
        let same = match &result {
            Ok(outcome) if *outcome == solved.first => Ok(()),
            Ok(_) => Err("traced solve differs from the untraced one".to_string()),
            Err(why) => Err(format!("traced solve: {why}")),
        };
        if !rep.op(same) {
            return;
        }
        let t = trace.layer_times(sequential);
        rep.put_one("trace.overhead_ratio", t.solve_s / solved.wall_median);
        rep.put_one("runner.build_s", t.build_s);
        rep.put_one("runner.extract_s", t.extract_s);
        rep.put_one("protocol.round_s", t.round_s);
        rep.put_exact("protocol.round_calls", t.round_calls as f64, 1);
        rep.put_one("protocol.round_max_machine_s", t.round_max_machine_s);
        if let Some(dir) = &ctx.out_dir {
            let path = dir.join(format!("trace-{}.json", rep.workload));
            let json = trace.to_json(rep.workload, ctx.seed, &rep.engine);
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json.to_compact()))
            {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        t.engine_self_s
    } else {
        // Nothing but the engine runs between build and extract here.
        solved.wall_median
    };
    rep.put_one("engine.self_s", engine_self_s);
    if c.rounds > 0 {
        rep.put_one("engine.round_us", engine_self_s / c.rounds as f64 * 1e6);
    }
    if c.total_msgs > 0 {
        rep.put_one("engine.msg_ns", engine_self_s / c.total_msgs as f64 * 1e9);
    }

    // The same instance once per engine, on a clean wire.
    let mut all_equal = true;
    for &engine in p.cross {
        let is_own = p.faults.is_none() && api::engine_name(engine) == api::engine_name(resolved);
        let wall = if is_own {
            solved.wall_median
        } else {
            let start = Instant::now();
            let result = api::solve(p.alg, p.net, engine, None);
            let wall = start.elapsed().as_secs_f64();
            match result {
                Ok(outcome) => all_equal &= outcome == solved.first,
                Err(why) => {
                    all_equal = false;
                    rep.failures
                        .push(format!("{} engine: {why}", api::engine_name(engine)));
                }
            }
            wall
        };
        rep.put_one(
            match engine {
                EngineKind::Sequential => "engine.sequential.wall_s",
                EngineKind::Parallel { .. } => "engine.parallel.wall_s",
                _ => "engine.distributed.wall_s",
            },
            wall,
        );
    }
    // One operation where there was something to compare; with a single
    // engine the metric is trivially 1.
    if p.cross.len() > 1 {
        rep.op(if all_equal {
            Ok(())
        } else {
            Err("RunOutcome differs between engines".to_string())
        });
    }
    rep.put_exact("engine.outcomes_equal", all_equal as u64 as f64, 1);
}

const ALL_ENGINES: [EngineKind; 3] = [api::SEQUENTIAL, api::PARALLEL, api::DISTRIBUTED];
/// Distributed spawns `k` OS threads, so it joins only where k ≤ 64.
const IN_PROCESS_ENGINES: [EngineKind; 2] = [api::SEQUENTIAL, api::PARALLEL];

fn pagerank(ctx: &Ctx) -> Report {
    let mut rep = Report::new("pagerank");
    let n = ctx.size(50_000);
    let input = timed_setup(ctx, &mut rep, || {
        PageRankInput::generate(n, 8.0, 16, ctx.seeds(1))
    });
    let threshold = if ctx.smoke {
        verify::PAGERANK_L1_THRESHOLD_SMOKE
    } else {
        verify::PAGERANK_L1_THRESHOLD
    };
    let proto = Proto {
        alg: &input.alg(),
        net: input.net,
        engine: api::SEQUENTIAL,
        faults: None,
        cross: &ALL_ENGINES,
        wrap: true,
    };
    run_proto(ctx, &mut rep, &proto, |o| {
        let l1 = input.l1_error(&o.output);
        eprintln!("pagerank: L1 error vs power iteration {l1:.5} (threshold {threshold})");
        verify::pagerank(l1, threshold)
    });
    rep
}

fn triangles(ctx: &Ctx) -> Report {
    let mut rep = Report::new("triangles");
    // p grows as n shrinks so the smoke instance still has triangles.
    let (n, p) = if ctx.smoke {
        (300, 0.1)
    } else {
        (6_000, 0.015)
    };
    let input = timed_setup(ctx, &mut rep, || {
        TriangleInput::generate(n, p, 64, ctx.seeds(2))
    });
    let proto = Proto {
        alg: &input.alg(),
        net: input.net,
        engine: api::SEQUENTIAL,
        faults: None,
        cross: &ALL_ENGINES,
        wrap: true,
    };
    run_proto(ctx, &mut rep, &proto, |o| {
        verify::triangles(input.diff(api::triangles_of(&o.output)))
    });
    rep
}

fn boruvka_bcast(ctx: &Ctx) -> Report {
    let mut rep = Report::new("boruvka_bcast");
    let n = ctx.size(10_000);
    let input = timed_setup(ctx, &mut rep, || {
        MstInput::generate(n, 4 * n, 128, ctx.seeds(3))
    });
    let proto = Proto {
        alg: &input.alg(),
        net: input.net,
        engine: EngineKind::Auto,
        faults: None,
        cross: &IN_PROCESS_ENGINES,
        wrap: true,
    };
    run_proto(ctx, &mut rep, &proto, |o| {
        verify::mst((o.output.0.len(), o.output.1), input.kruskal())
    });
    rep
}

/// `sketch_cc_wire` and `sketch_cc_lossy`: one instance, the same for a
/// given seed, on the clean and on the faulty wire.
fn sketch_cc(ctx: &Ctx, lossy: bool) -> Report {
    let name = if lossy {
        "sketch_cc_lossy"
    } else {
        "sketch_cc_wire"
    };
    let mut rep = Report::new(name);
    let n = ctx.size(10_000);
    let input = timed_setup(ctx, &mut rep, || {
        ConnInput::generate(n, 4 * n, 16, ctx.seeds(4))
    });
    let faults = lossy.then_some(FaultPlan {
        seed: ctx.seed,
        drop: 0.01,
        corrupt: 0.005,
        duplicate: 0.005,
        delay: 0.01,
        ..FaultPlan::default()
    });
    let alg = input.alg();
    let proto = Proto {
        alg: &alg,
        net: input.net,
        engine: api::DISTRIBUTED,
        faults,
        cross: &ALL_ENGINES,
        wrap: true,
    };
    let solved = run_proto(ctx, &mut rep, &proto, |o| {
        verify::spanning_forest(input.n(), &input.edges(), api::forest_of(&o.output))?;
        let Some(wire) = &o.wire else {
            return Err("the distributed engine returned no WireReport".to_string());
        };
        if lossy {
            // The faulty wire must change nothing a theorem is stated
            // over: same output and transcript as a run with no wire.
            let clean = api::solve(&alg, input.net, api::SEQUENTIAL, None)?;
            if clean != *o {
                return Err("lossy RunOutcome differs from the fault-free one".to_string());
            }
            if wire.retransmit_frames == 0 {
                return Err("the fault plan injected nothing: retransmit_frames = 0".to_string());
            }
        } else if api::wire_split(wire).recovery_bytes != 0
            || wire.retransmit_frames != 0
            || wire.nack_frames != 0
        {
            return Err("recovery traffic on a clean wire".to_string());
        }
        Ok(())
    });
    let Some(solved) = solved else { return rep };

    if !lossy {
        // Clean wire: bytes shipped repeat exactly.
        if let Some(w) = &solved.first.wire {
            let reps = solved.wires.len();
            let same = solved.wires.iter().all(|x| x.frame_bytes == w.frame_bytes);
            rep.op(if same {
                Ok(())
            } else {
                Err("frame_bytes differs between reps on a clean wire".to_string())
            });
            rep.put_exact("wire_mib", w.frame_bytes as f64 / (1u64 << 20) as f64, reps);
        }
    }
    if !ctx.pass.layers() {
        return rep;
    }
    let recovery = |f: fn(&WireReport) -> f64| -> Summary {
        let samples: Vec<f64> = solved.wires.iter().map(f).collect();
        Summary::of(&samples)
    };
    rep.put(
        "recovery.retransmit_frames",
        recovery(|w| w.retransmit_frames as f64),
    );
    rep.put("recovery.nack_frames", recovery(|w| w.nack_frames as f64));
    rep.put(
        "recovery.bytes",
        recovery(|w| api::wire_split(w).recovery_bytes as f64),
    );
    if lossy {
        // The cross-engine pass ran this instance once on a clean wire.
        if let Some(clean_wall) = rep.median_of("engine.distributed.wall_s") {
            rep.put_one("recovery.wall_ratio", solved.wall_median / clean_wall);
        }
        for (name, s) in micro::sketch(ctx.budget(), n, 4 * n, ctx.seed) {
            rep.put(name, s);
        }
    } else {
        if let Some(w) = &solved.first.wire {
            let split = api::wire_split(w);
            rep.put_exact("wire.frames", w.frames as f64, 1);
            rep.put_exact(
                "wire.msgs_per_frame",
                w.messages as f64 / w.frames.max(1) as f64,
                1,
            );
            rep.put_exact("wire.header_bits", split.header_bits as f64, 1);
            rep.put_exact("wire.record_bits", split.record_bits as f64, 1);
            rep.put_exact("wire.padding_bits", split.padding_bits as f64, 1);
            rep.put_exact(
                "wire.wire_vs_logical",
                (w.frame_bytes * 8) as f64 / w.logical_bits.max(1) as f64,
                1,
            );
        }
        rep.put_one(
            "wire.round_us",
            solved.wall_median / solved.counters.rounds.max(1) as f64 * 1e6,
        );
        for (name, s) in micro::codec(ctx.budget(), ctx.seed) {
            rep.put(name, s);
        }
    }
    rep
}

/// A token ring: machine `i < tokens` injects one token that hops to
/// the next machine until its hop count runs out. `round()` is a few
/// nanoseconds, so the run is all engine.
struct Ring {
    inject: bool,
    hops: u64,
    forwarded: u64,
}

impl Protocol for Ring {
    type Msg = u64;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<u64>>,
        out: &mut Outbox<u64>,
    ) -> Status {
        let next = (ctx.me + 1) % ctx.k;
        if ctx.round == 0 && self.inject {
            out.send(next, self.hops);
            self.forwarded += 1;
        }
        for env in inbox.drain(..) {
            if env.msg > 1 {
                out.send(next, env.msg - 1);
                self.forwarded += 1;
            }
        }
        Status::Done
    }
}

struct RingAlg {
    tokens: usize,
    hops: u64,
}

impl KmAlgorithm for RingAlg {
    type Machine = Ring;
    /// Sends over all machines.
    type Output = u64;

    fn build(&self, k: usize) -> Vec<Ring> {
        (0..k)
            .map(|i| Ring {
                inject: i < self.tokens,
                hops: self.hops,
                forwarded: 0,
            })
            .collect()
    }

    fn extract(&self, machines: Vec<Ring>, _metrics: &Metrics) -> u64 {
        machines.iter().map(|m| m.forwarded).sum()
    }
}

fn ring_sparse(ctx: &Ctx) -> Report {
    let mut rep = Report::new("ring_sparse");
    let (k, tokens) = (256, 8);
    let hops = ctx.size(1_000_000) as u64;
    // The input of an engine-only workload is its machine states.
    let alg = RingAlg { tokens, hops };
    timed_setup(ctx, &mut rep, || alg.build(k));
    let net = api::fixed_net(k, 64, ctx.seeds(5).net);
    let proto = Proto {
        alg: &alg,
        net,
        engine: api::SEQUENTIAL,
        faults: None,
        // ParallelEngine pays ~50 µs per round: a million rounds would
        // not end inside the run.
        cross: &[api::SEQUENTIAL],
        wrap: false,
    };
    run_proto(ctx, &mut rep, &proto, |o| {
        let c = api::counters(&o.metrics, &net);
        verify::ring(&c, tokens as u64, hops)?;
        if o.output != c.total_msgs {
            return Err(format!(
                "ring: machines forwarded {} tokens, links carried {}",
                o.output, c.total_msgs
            ));
        }
        Ok(())
    });
    rep
}

struct ScatterAlg {
    x: usize,
}

impl KmAlgorithm for ScatterAlg {
    type Machine = UniformScatter;
    /// Tokens that arrived, local deliveries included.
    type Output = u64;

    fn build(&self, k: usize) -> Vec<UniformScatter> {
        (0..k).map(|_| api::scatter_source(self.x)).collect()
    }

    fn extract(&self, machines: Vec<UniformScatter>, _metrics: &Metrics) -> u64 {
        machines
            .iter()
            .map(|m| api::scatter_received(m) as u64)
            .sum()
    }
}

fn scatter_dense(ctx: &Ctx) -> Report {
    let mut rep = Report::new("scatter_dense");
    let k = 128;
    let alg = ScatterAlg {
        x: ctx.size(65_536),
    };
    timed_setup(ctx, &mut rep, || alg.build(k));
    let net = api::fixed_net(k, 64, ctx.seeds(6).net);
    let proto = Proto {
        alg: &alg,
        net,
        engine: api::SEQUENTIAL,
        faults: None,
        cross: &IN_PROCESS_ENGINES,
        wrap: false,
    };
    run_proto(ctx, &mut rep, &proto, |o| {
        verify::scatter(
            &api::counters(&o.metrics, &net),
            o.output,
            (k * alg.x) as u64,
        )
    });
    if ctx.pass.layers() {
        for (name, s) in micro::link(ctx.budget()) {
            rep.put(name, s);
        }
    }
    rep
}

fn ingest(ctx: &Ctx) -> Report {
    let mut rep = Report::new("ingest");
    let (n, k, chunk) = (ctx.size(4_000_000), 8, 1 << 16);
    let seeds = ctx.seeds(7);
    let input = timed_setup(ctx, &mut rep, || {
        IngestInput::generate(n, 4.0, k, chunk, seeds)
    });

    let Some(reps) = timed_reps(ctx, &mut rep, || input.build_streaming(), |_| ()) else {
        return rep;
    };
    let first = &reps.first;

    // Reference: the generator drained alone, each edge counted at the
    // home of both endpoints by the benchmark's own loop.
    let mut want = vec![0usize; input.k()];
    input.drain(|u, v| {
        want[input.home(u)] += 1;
        want[input.home(v)] += 1;
    });
    if let Err(why) = verify::edge_loads(first, &want, "the drained stream's") {
        rep.failed = rep.attempted;
        rep.failures.push(why);
    }
    put_end_to_end(ctx, &mut rep, &reps);
    if !ctx.pass.layers() {
        return rep;
    }

    // The in-memory builder must agree on the same seed.
    rep.op(verify::edge_loads(
        first,
        &input.build_in_memory(),
        "DistGraphBuilder's",
    ));
    drop(input);
    let micro_n = ctx.size(400_000);
    for (name, s) in micro::graph(ctx.budget(), micro_n, k, seeds) {
        rep.put(name, s);
    }
    match dist_probe(ctx, ctx.size(1_000_000), k) {
        Ok((rate, rss)) => {
            rep.put("graph.dist.build_medges_per_s", rate);
            rep.put_one("graph.dist.peak_rss_mib", rss);
        }
        Err(why) => {
            rep.op(Err(format!("graph.dist child: {why}")));
        }
    }
    rep
}

/// Builds per sample in the `graph.dist.*` child.
const DIST_PROBE_BUILDS: usize = 3;

/// Runs `gnp` + `DistGraphBuilder::undirected` in a child process of
/// its own, so `graph.dist.peak_rss_mib` is that build's peak and not
/// this process's. Returns `(Medge/s, peak MiB)`.
fn dist_probe(ctx: &Ctx, n: usize, k: usize) -> Result<(Summary, f64), String> {
    let out = std::process::Command::new(&ctx.exe)
        .args(["dist-probe", "--n", &n.to_string(), "--k", &k.to_string()])
        .args(["--seed", &ctx.seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", ctx.exe.display()))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let v = crate::json::parse(text.trim())?;
    let rates: Vec<f64> = v
        .get("medges_per_s")
        .and_then(|r| r.as_arr())
        .map(|r| r.iter().filter_map(|x| x.as_f64()).collect())
        .unwrap_or_default();
    let rss = v.get("peak_rss_mib").and_then(|x| x.as_f64());
    match (rates.is_empty(), rss) {
        (false, Some(rss)) => Ok((Summary::of(&rates), rss)),
        _ => Err(format!("unreadable output {text:?}")),
    }
}

/// The child side of [`dist_probe`]: prints one JSON object.
pub fn dist_probe_child(n: usize, k: usize, seed: u64) -> crate::json::Value {
    let ctx_seeds = derive_seeds(seed, 8);
    let rates: Vec<crate::json::Value> = (0..DIST_PROBE_BUILDS)
        .map(|_| {
            let (secs, edges) = micro::dist_build_once(n, k, ctx_seeds);
            (edges as f64 / secs / 1e6).into()
        })
        .collect();
    crate::json::Value::obj()
        .with("medges_per_s", rates)
        .with("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0))
}
