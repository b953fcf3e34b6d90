//! km-check: systematic schedule exploration for the distributed
//! engine.
//!
//! The stress tests and chaos matrix only ever see the handful of
//! thread interleavings the OS happens to pick. This crate runs small
//! engine configurations under *thousands* of schedules through the
//! crossbeam shim's model mode ([`crossbeam::model`]): one runnable
//! task at a time, every channel operation a yield point, schedules
//! chosen by a seeded PRNG with DFS backtracking over the first
//! decision points, and `recv_timeout` firing from virtual schedule
//! time instead of the wall clock.
//!
//! Each schedule asserts the engine's headline guarantees:
//!
//! - **Termination** — no schedule deadlocks (the "backpressure can
//!   never deadlock" claim, checked instead of argued) or livelocks
//!   (step-limit guard).
//! - **Bit-identity** — the distributed transcript (per-machine logs,
//!   digests, and [`km_core::Metrics`]) equals the sequential engine's
//!   on every schedule, including under frame drop/duplicate/corrupt/
//!   delay faults — which also proves lost batches replay exactly once
//!   (a zero- or twice-replayed batch diverges the transcript).
//! - **Typed failures** — crash plans surface exactly
//!   [`EngineError::MachineLost`] for the crashed machine and round, on
//!   every schedule.
//!
//! Any failure carries a replayable handle (`config/seed:index`)
//! accepted by `km-check --replay`.

use crossbeam::model::{self, Failure, ModelConfig, Report};
use km_core::{
    CrashSpec, DistributedEngine, EngineError, Envelope, FaultPlan, NetConfig, Outbox, Protocol,
    Raw, RoundCtx, RunReport, SequentialEngine, Status,
};

/// Environment knob: schedules explored per matrix configuration (the
/// CI smoke uses a bounded value; deeper local runs raise it).
pub const SCHEDULES_ENV: &str = "KM_CHECK_SCHEDULES";

/// Default schedules per configuration when [`SCHEDULES_ENV`] is unset:
/// 31 matrix configs × 96 ≈ 3.0k schedules per full run.
pub const DEFAULT_SCHEDULES: u64 = 96;

/// Message mixes the matrix exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoKind {
    /// Scatter-like fan-out: every machine sends a small token to every
    /// peer (and itself) each round — the router/scatter traffic shape.
    Scatter,
    /// MST-like convergecast: leaves stream state to machine 0, which
    /// broadcasts back — asymmetric links, idle reverse directions.
    Converge,
    /// Sketch-like bulk: few, large messages around a ring — exercises
    /// bandwidth-limited multi-round delivery of single batches.
    Bulk,
    /// A long tail: small ring traffic, then the last active round
    /// sends one 1 600-bit message around the ring — seven rounds at
    /// `B = 256`, five of them moving only that partial message, which
    /// the coordinator skips by jumping the next `Round`'s number.
    Tail,
}

impl ProtoKind {
    fn rounds(self) -> u64 {
        match self {
            ProtoKind::Scatter => 2,
            ProtoKind::Converge => 4,
            ProtoKind::Bulk => 3,
            ProtoKind::Tail => 2,
        }
    }

    /// The round a crash config crashes its last machine at: round 1
    /// for the busy mixes, and for the tail round 4, inside the stretch
    /// of rounds 3–6 that only the partial message moves in.
    fn crash_round(self) -> u64 {
        match self {
            ProtoKind::Tail => 4,
            _ => 1,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ProtoKind::Scatter => "scatter",
            ProtoKind::Converge => "converge",
            ProtoKind::Bulk => "bulk",
            ProtoKind::Tail => "tail",
        }
    }
}

/// Deterministic test protocol: logs a digest of everything received
/// (the transcript) and emits the kind's traffic shape. Pure arithmetic
/// on `(me, round, state)` — no RNG, so the transcript depends only on
/// delivery order, which is exactly what the checker must pin down.
#[derive(Debug)]
pub struct CheckProto {
    kind: ProtoKind,
    rounds: u64,
    state: u64,
    /// `(src, payload digest)` in delivery order — the transcript.
    log: Vec<(usize, u64)>,
}

fn digest(bytes: &[u8]) -> u64 {
    // FNV-1a; any stable digest works, it only has to notice diffs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn payload(words: &[u64], len: usize) -> Raw {
    let mut bytes = Vec::with_capacity(len);
    let mut i = 0;
    while bytes.len() < len {
        let w = digest(&words[i % words.len()].to_le_bytes());
        bytes.extend_from_slice(&w.to_le_bytes());
        i += 1;
    }
    bytes.truncate(len);
    Raw::from_vec(bytes)
}

impl Protocol for CheckProto {
    type Msg = Raw;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<Raw>>,
        out: &mut Outbox<Raw>,
    ) -> Status {
        for env in inbox.iter() {
            let d = digest(&env.msg.0);
            self.state = self.state.rotate_left(7) ^ d ^ env.src as u64;
            self.log.push((env.src, d));
        }
        if ctx.round >= self.rounds {
            return Status::Done;
        }
        let me = ctx.me as u64;
        match self.kind {
            ProtoKind::Scatter => {
                for dst in 0..ctx.k {
                    out.send(dst, payload(&[me, ctx.round, dst as u64, 1], 8));
                }
            }
            ProtoKind::Converge => {
                if ctx.me == 0 {
                    for dst in 1..ctx.k {
                        out.send(dst, payload(&[self.state, ctx.round, 2], 8));
                    }
                } else {
                    out.send(0, payload(&[self.state, me, ctx.round, 3], 8));
                }
            }
            ProtoKind::Bulk => {
                out.send((ctx.me + 1) % ctx.k, payload(&[me, ctx.round, 4], 48));
            }
            ProtoKind::Tail => {
                let len = if ctx.round + 1 == self.rounds { 200 } else { 8 };
                out.send((ctx.me + 1) % ctx.k, payload(&[me, ctx.round, 5], len));
            }
        }
        Status::Active
    }
}

/// What the checker asserts about a configuration's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Every schedule succeeds with a transcript bit-identical to the
    /// sequential engine's (which also proves exactly-once replay).
    Transcript,
    /// Every schedule fails with exactly this typed error.
    MachineLost { machine: usize, round: u64 },
}

/// One cell of the k × protocol × fault matrix.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    pub name: String,
    pub net: NetConfig,
    pub kind: ProtoKind,
    pub faults: Option<FaultPlan>,
    pub expect: Expectation,
}

fn fleet(cfg: &CheckConfig) -> Vec<CheckProto> {
    (0..cfg.net.k)
        .map(|_| CheckProto {
            kind: cfg.kind,
            rounds: cfg.kind.rounds(),
            state: 0,
            log: Vec::new(),
        })
        .collect()
}

/// Barrier timeout for crash configs, in virtual-clock ticks. Must
/// comfortably exceed worst-case NACK recovery (a handful of 16-tick
/// pacing cycles) so only a genuinely dead machine can time out, while
/// staying small enough that crash schedules stay cheap to explore.
const CRASH_BARRIER_TICKS: u64 = 400;

/// The full k ∈ {2, 3} × message-mix × fault-plan matrix (24 configs),
/// plus scatter at k = 4 × {ok, drop, crash} and the tail at
/// k ∈ {2, 3} × {ok, crash} — 31 configs. A model
/// session runs the engine on two workers (the shim's
/// `available_parallelism`), so k = 3 puts machines 1 and 2 on one
/// worker and k = 4 puts two-machine blocks on both ends of every
/// cross-worker link, with the crash on a machine that does not head
/// its block.
pub fn matrix() -> Vec<CheckConfig> {
    let mut out = Vec::new();
    for k in [2usize, 3] {
        for kind in [ProtoKind::Scatter, ProtoKind::Converge, ProtoKind::Bulk] {
            push_cells(&mut out, k, kind, &["ok", "drop", "crash", "drop+crash"]);
        }
    }
    push_cells(&mut out, 4, ProtoKind::Scatter, &["ok", "drop", "crash"]);
    for k in [2usize, 3] {
        push_cells(&mut out, k, ProtoKind::Tail, &["ok", "crash"]);
    }
    out
}

/// Appends the `(k, kind)` cells for the named fault plans.
fn push_cells(out: &mut Vec<CheckConfig>, k: usize, kind: ProtoKind, plans: &[&str]) {
    // Tight bandwidth so bulk batches span delivery rounds.
    let net = NetConfig::with_bandwidth(k, 256, 42).max_rounds(10_000);
    let drop_plan = FaultPlan {
        seed: 11,
        drop: 0.4,
        duplicate: 0.15,
        corrupt: 0.15,
        delay: 0.25,
        crash: None,
        barrier_timeout_ms: 0,
    };
    let crash = CrashSpec {
        machine: k - 1,
        round: kind.crash_round(),
    };
    let crash_plan = FaultPlan {
        seed: 7,
        drop: 0.0,
        duplicate: 0.0,
        corrupt: 0.0,
        delay: 0.0,
        crash: Some(crash),
        barrier_timeout_ms: CRASH_BARRIER_TICKS,
    };
    let chaos_plan = FaultPlan {
        drop: 0.3,
        delay: 0.2,
        ..crash_plan
    };
    let lost = Expectation::MachineLost {
        machine: crash.machine,
        round: crash.round,
    };
    for (fault_name, faults, expect) in [
        ("ok", None, Expectation::Transcript),
        ("drop", Some(drop_plan), Expectation::Transcript),
        ("crash", Some(crash_plan), lost),
        ("drop+crash", Some(chaos_plan), lost),
    ] {
        if plans.contains(&fault_name) {
            out.push(CheckConfig {
                name: format!("k{k}-{}-{fault_name}", kind.name()),
                net,
                kind,
                faults,
                expect,
            });
        }
    }
}

fn verdict(
    cfg: &CheckConfig,
    baseline: Option<&RunReport<CheckProto>>,
    got: Result<RunReport<CheckProto>, EngineError>,
) -> Result<(), String> {
    match (cfg.expect, got) {
        (Expectation::Transcript, Ok(report)) => {
            // lint: allow(panic) — verdict() gets Some(baseline) for every Transcript config by construction
            let base = baseline.unwrap_or_else(|| unreachable!("Transcript configs precompute"));
            if report.metrics != base.metrics {
                return Err(format!(
                    "metrics diverged from sequential: {:?} vs {:?}",
                    report.metrics, base.metrics
                ));
            }
            for (i, (d, s)) in report.machines.iter().zip(&base.machines).enumerate() {
                if d.log != s.log || d.state != s.state {
                    return Err(format!(
                        "machine {i} transcript diverged from sequential (lost, duplicated, or reordered delivery)"
                    ));
                }
            }
            let wire = report
                .wire
                .as_ref()
                .ok_or("distributed run reported no wire")?;
            if wire.logical_bits != base.metrics.total_bits() {
                return Err(format!(
                    "wire logical bits {} != sequential {}",
                    wire.logical_bits,
                    base.metrics.total_bits()
                ));
            }
            Ok(())
        }
        (Expectation::Transcript, Err(e)) => Err(format!("run failed unexpectedly: {e}")),
        (Expectation::MachineLost { machine, round }, got) => match got {
            Err(EngineError::MachineLost {
                machine: m,
                round: r,
            }) if m == machine && r == round => Ok(()),
            Err(e) => Err(format!(
                "expected MachineLost {{ machine: {machine}, round: {round} }}, got: {e}"
            )),
            Ok(_) => Err(format!(
                "run succeeded but machine {machine} crashes at round {round}"
            )),
        },
    }
}

/// Model parameters used for one matrix cell.
pub fn model_config(seed: u64, schedules: u64) -> ModelConfig {
    ModelConfig {
        seed,
        schedules,
        dfs_depth: 20,
        // Generous livelock guard: healthy schedules run a few thousand
        // steps; crash schedules tick out the barrier in tens of
        // thousands.
        max_steps: 400_000,
    }
}

/// Explores `schedules` schedules of one configuration. The sequential
/// baseline is computed once, outside the model (the sequential engine
/// has no concurrency to explore).
pub fn check_one(cfg: &CheckConfig, model_cfg: &ModelConfig) -> Result<Report, Box<Failure>> {
    let baseline = match cfg.expect {
        Expectation::Transcript => Some(
            SequentialEngine::run(cfg.net, fleet(cfg))
                // lint: allow(panic) — a failing fault-free sequential baseline is a broken matrix, not a schedule bug
                .unwrap_or_else(|e| panic!("sequential baseline for {} failed: {e}", cfg.name)),
        ),
        Expectation::MachineLost { .. } => None,
    };
    model::explore(model_cfg, || {
        let got = DistributedEngine::run_with_faults(cfg.net, fleet(cfg), cfg.faults);
        verdict(cfg, baseline.as_ref(), got)
    })
}

/// Replays exactly one schedule of one configuration (the
/// `--replay config/seed:index` path).
pub fn replay_one(
    cfg: &CheckConfig,
    model_cfg: &ModelConfig,
    id: model::ScheduleId,
) -> Result<Report, Box<Failure>> {
    let baseline = match cfg.expect {
        Expectation::Transcript => Some(
            SequentialEngine::run(cfg.net, fleet(cfg))
                // lint: allow(panic) — a failing fault-free sequential baseline is a broken matrix, not a schedule bug
                .unwrap_or_else(|e| panic!("sequential baseline for {} failed: {e}", cfg.name)),
        ),
        Expectation::MachineLost { .. } => None,
    };
    model::replay(model_cfg, id, || {
        let got = DistributedEngine::run_with_faults(cfg.net, fleet(cfg), cfg.faults);
        verdict(cfg, baseline.as_ref(), got)
    })
}

/// Aggregate of a full matrix run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatrixOutcome {
    pub configs: usize,
    pub total_schedules: u64,
    pub max_decision_points: u64,
}

/// A failing cell: which configuration, plus the replayable failure.
#[derive(Debug)]
pub struct MatrixFailure {
    pub config: String,
    pub failure: Failure,
}

impl std::fmt::Display for MatrixFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "config {} schedule {}: {}\n  replay: km-check --replay {}/{}",
            self.config,
            self.failure.schedule,
            self.failure.violation,
            self.config,
            self.failure.schedule
        )
    }
}

/// Runs every matrix cell under `schedules` schedules each; stops at
/// the first failing schedule.
pub fn run_matrix(seed: u64, schedules: u64) -> Result<MatrixOutcome, Box<MatrixFailure>> {
    let mut outcome = MatrixOutcome::default();
    for cfg in matrix() {
        let report = check_one(&cfg, &model_config(seed, schedules)).map_err(|failure| {
            Box::new(MatrixFailure {
                config: cfg.name.clone(),
                failure: *failure,
            })
        })?;
        outcome.configs += 1;
        outcome.total_schedules += report.schedules;
        outcome.max_decision_points = outcome.max_decision_points.max(report.max_decision_points);
    }
    Ok(outcome)
}

/// Reads [`SCHEDULES_ENV`], parsed hard: a malformed or zero value is
/// an error naming the variable (the `KM_FAULTS` discipline).
pub fn schedules_from_env() -> Result<u64, String> {
    schedules_from_value(std::env::var(SCHEDULES_ENV).ok().as_deref())
}

/// [`schedules_from_env`] with the value passed in, so the parse rules
/// are testable without planting process-global state.
pub fn schedules_from_value(raw: Option<&str>) -> Result<u64, String> {
    match raw {
        None => Ok(DEFAULT_SCHEDULES),
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "{SCHEDULES_ENV}: expected a positive schedule count, got {raw:?}"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_k_mixes_and_fault_plans() {
        let m = matrix();
        assert_eq!(
            m.len(),
            31,
            "2 k-values × 3 mixes × 4 fault plans, plus k = 4 scatter × 3, plus 2 k-values × tail × 2"
        );
        assert!(m.iter().any(|c| c.name == "k2-scatter-ok"));
        assert!(m.iter().any(|c| c.name == "k3-bulk-drop+crash"));
        assert!(m.iter().any(|c| c.name == "k4-scatter-crash"));
        assert!(m.iter().any(|c| c.name == "k3-tail-crash"));
        let crashes = m
            .iter()
            .filter(|c| matches!(c.expect, Expectation::MachineLost { .. }))
            .count();
        assert_eq!(crashes, 15);
        // Names are unique — they are replay handles.
        let mut names: Vec<_> = m.iter().map(|c| c.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), m.len());
    }

    #[test]
    fn fault_free_configs_pass_under_real_threads_too() {
        // Sanity outside the model: the harness protocols themselves
        // are engine-clean (any failure here is a harness bug, not a
        // schedule bug).
        for cfg in matrix() {
            if cfg.faults.is_none() {
                let base = SequentialEngine::run(cfg.net, fleet(&cfg)).expect("sequential");
                let dist = DistributedEngine::run(cfg.net, fleet(&cfg)).expect("distributed");
                assert_eq!(base.metrics, dist.metrics, "{}", cfg.name);
                for (s, d) in base.machines.iter().zip(&dist.machines) {
                    assert_eq!(s.log, d.log, "{}", cfg.name);
                }
            }
        }
    }

    #[test]
    fn schedules_env_value_is_parsed_hard() {
        // Exercised through `schedules_from_value` so the test never
        // touches the process-global environment.
        assert_eq!(schedules_from_value(None), Ok(DEFAULT_SCHEDULES));
        assert_eq!(schedules_from_value(Some("12")), Ok(12));
        for bad in ["0", "-3", "many", ""] {
            let err = schedules_from_value(Some(bad)).unwrap_err();
            assert!(err.contains(SCHEDULES_ENV), "{err}");
        }
    }
}
