//! Spans recorded from outside the system.
//!
//! The system has no tracing hooks (ROADMAP item 2 adds them), so the
//! benchmark wraps the two public traits a run goes through:
//! [`Traced`] times an algorithm's `build` and `extract`, and hands the
//! engine [`Timed`] machines that time every `Protocol::round` call.
//! What is left of the `engine.run` interval after subtracting the
//! `protocol.round` spans inside it is the engine's own time — staging,
//! delivery, barriers, codec and channels.
//!
//! Spans stay in memory (each machine keeps its own, so no lock and no
//! sharing between engine threads) and are written out when the solve
//! has ended.

use std::cell::RefCell;
use std::time::Instant;

use crate::api::{Envelope, KmAlgorithm, Metrics, Outbox, Protocol, RoundCtx, Status};
use crate::json::Value;

/// One `Protocol::round` call, in nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    pub round: u64,
}

/// A machine whose `round` calls are timed. Same `Msg`, same behaviour.
pub struct Timed<P> {
    inner: P,
    epoch: Instant,
    spans: Vec<RoundSpan>,
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        inbox: &mut Vec<Envelope<P::Msg>>,
        out: &mut Outbox<P::Msg>,
    ) -> Status {
        let round = ctx.round;
        let start = Instant::now();
        let status = self.inner.round(ctx, inbox, out);
        let end = Instant::now();
        self.spans.push(RoundSpan {
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            round,
        });
        status
    }
}

#[derive(Default)]
struct Log {
    build: (u64, u64),
    extract: (u64, u64),
    machines: Vec<Vec<RoundSpan>>,
}

/// An algorithm whose `build` and `extract` are timed and whose
/// machines are [`Timed`]. Same `Output`.
pub struct Traced<'a, A> {
    inner: &'a A,
    epoch: Instant,
    log: RefCell<Log>,
}

impl<'a, A: KmAlgorithm> Traced<'a, A> {
    pub fn new(inner: &'a A) -> Self {
        Traced {
            inner,
            epoch: Instant::now(),
            log: RefCell::new(Log::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `solve` (which must drive this algorithm through the
    /// system's runner exactly once) under a `solve` span and returns
    /// its result with the assembled trace.
    pub fn record<T>(&self, solve: impl FnOnce(&Self) -> T) -> (T, Trace) {
        let start = self.now_ns();
        let result = solve(self);
        let end = self.now_ns();
        let log = self.log.take();
        let top = vec![
            Span::new(SOLVE, "solve", start, end, None),
            Span::new(BUILD, "runner.build", log.build.0, log.build.1, Some(SOLVE)),
            // The engine owns everything between the two callbacks.
            Span::new(RUN, "engine.run", log.build.1, log.extract.0, Some(SOLVE)),
            Span::new(
                EXTRACT,
                "runner.extract",
                log.extract.0,
                log.extract.1,
                Some(SOLVE),
            ),
        ];
        (
            result,
            Trace {
                top,
                machines: log.machines,
            },
        )
    }
}

impl<A: KmAlgorithm> KmAlgorithm for Traced<'_, A> {
    type Machine = Timed<A::Machine>;
    type Output = A::Output;

    fn build(&self, k: usize) -> Vec<Self::Machine> {
        let start = self.now_ns();
        let machines = self.inner.build(k);
        let end = self.now_ns();
        self.log.borrow_mut().build = (start, end);
        machines
            .into_iter()
            .map(|inner| Timed {
                inner,
                epoch: self.epoch,
                spans: Vec::with_capacity(1024),
            })
            .collect()
    }

    fn extract(&self, machines: Vec<Self::Machine>, metrics: &Metrics) -> A::Output {
        let start = self.now_ns();
        let (inner, spans): (Vec<A::Machine>, Vec<Vec<RoundSpan>>) =
            machines.into_iter().map(|m| (m.inner, m.spans)).unzip();
        let output = self.inner.extract(inner, metrics);
        let end = self.now_ns();
        let mut log = self.log.borrow_mut();
        log.extract = (start, end);
        log.machines = spans;
        output
    }
}

const SOLVE: u32 = 0;
const BUILD: u32 = 1;
const RUN: u32 = 2;
const EXTRACT: u32 = 3;

/// A named interval with the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    fn new(id: u32, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one solve: `solve` → `runner.build`, `engine.run`,
/// `runner.extract`; and under `engine.run` one `protocol.round` span
/// per call, kept per machine.
pub struct Trace {
    top: Vec<Span>,
    machines: Vec<Vec<RoundSpan>>,
}

/// Nanoseconds of `[start, end)` not covered by any of `children`
/// (which may overlap each other and stick out of the parent).
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end.saturating_sub(start)).saturating_sub(covered)
}

/// The per-layer numbers read off a [`Trace`], in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTimes {
    pub solve_s: f64,
    pub build_s: f64,
    pub extract_s: f64,
    pub run_s: f64,
    /// Σ over every `protocol.round` call.
    pub round_s: f64,
    pub round_calls: u64,
    /// The straggler: the largest per-machine Σ of `protocol.round`.
    pub round_max_machine_s: f64,
    /// `engine.run` not spent inside `protocol.round`. On the
    /// sequential engine the calls do not overlap, so this is exactly
    /// the span's self time. On a threaded engine calls on different
    /// machines overlap and cover almost the whole interval between
    /// them, so the busiest machine's sum is subtracted instead: what
    /// is left is the time even the straggler spent outside `round`.
    pub engine_self_s: f64,
}

impl Trace {
    fn span(&self, id: u32) -> &Span {
        &self.top[id as usize]
    }

    pub fn layer_times(&self, sequential: bool) -> LayerTimes {
        let s = |ns: u64| ns as f64 * 1e-9;
        let run = self.span(RUN);
        let per_machine: Vec<u64> = self
            .machines
            .iter()
            .map(|m| m.iter().map(|r| r.end_ns - r.start_ns).sum())
            .collect();
        let round_max = per_machine.iter().copied().max().unwrap_or(0);
        let engine_self = if sequential {
            let children: Vec<(u64, u64)> = self
                .machines
                .iter()
                .flatten()
                .map(|r| (r.start_ns, r.end_ns))
                .collect();
            self_time_ns(run.start_ns, run.end_ns, &children)
        } else {
            run.duration_ns().saturating_sub(round_max)
        };
        LayerTimes {
            solve_s: s(self.span(SOLVE).duration_ns()),
            build_s: s(self.span(BUILD).duration_ns()),
            extract_s: s(self.span(EXTRACT).duration_ns()),
            run_s: s(run.duration_ns()),
            round_s: s(per_machine.iter().sum()),
            round_calls: self.machines.iter().map(|m| m.len() as u64).sum(),
            round_max_machine_s: s(round_max),
            engine_self_s: s(engine_self),
        }
    }

    /// The trace as JSON: the four top-level spans as objects, the
    /// `protocol.round` spans as `[machine, round, start_ns, end_ns]`
    /// rows (their name and parent are the same for all, so they are
    /// stated once).
    pub fn to_json(&self, workload: &str, seed: u64, engine: &str) -> Value {
        let top: Vec<Value> = self
            .top
            .iter()
            .map(|sp| {
                Value::obj()
                    .with("id", sp.id as u64)
                    .with("name", sp.name)
                    .with("start_ns", sp.start_ns)
                    .with("end_ns", sp.end_ns)
                    .with(
                        "parent",
                        sp.parent.map_or(Value::Null, |p| (p as u64).into()),
                    )
            })
            .collect();
        let rounds: Vec<Value> = self
            .machines
            .iter()
            .enumerate()
            .flat_map(|(i, m)| {
                m.iter().map(move |r| {
                    Value::Arr(vec![
                        i.into(),
                        r.round.into(),
                        r.start_ns.into(),
                        r.end_ns.into(),
                    ])
                })
            })
            .collect();
        Value::obj()
            .with("workload", workload)
            .with("seed", seed)
            .with("engine", engine)
            .with("spans", top)
            .with(
                "round_spans",
                Value::obj()
                    .with("name", "protocol.round")
                    .with("parent", RUN as u64)
                    .with(
                        "columns",
                        vec![
                            "machine".into(),
                            "round".into(),
                            "start_ns".into(),
                            "end_ns".into(),
                        ],
                    )
                    .with("rows", rounds),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children: plain subtraction.
        assert_eq!(self_time_ns(100, 200, &[(110, 120), (150, 180)]), 60);
        // Overlapping children count once.
        assert_eq!(self_time_ns(100, 200, &[(110, 150), (140, 160)]), 50);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time_ns(100, 200, &[(50, 120), (190, 400)]), 70);
        // Order does not matter; empty and inverted children are ignored.
        assert_eq!(self_time_ns(0, 10, &[(8, 9), (5, 5), (7, 3), (1, 2)]), 8);
        // Fully covered, and no children at all.
        assert_eq!(self_time_ns(0, 10, &[(0, 6), (6, 10)]), 0);
        assert_eq!(self_time_ns(5, 25, &[]), 20);
    }

    #[test]
    fn layer_times_add_up_on_a_sequential_trace() {
        let rs = |start_ns, end_ns, round| RoundSpan {
            start_ns,
            end_ns,
            round,
        };
        let trace = Trace {
            top: vec![
                Span::new(SOLVE, "solve", 0, 1_000, None),
                Span::new(BUILD, "runner.build", 10, 110, Some(SOLVE)),
                Span::new(RUN, "engine.run", 110, 900, Some(SOLVE)),
                Span::new(EXTRACT, "runner.extract", 900, 990, Some(SOLVE)),
            ],
            machines: vec![
                vec![rs(120, 220, 0), rs(400, 450, 1)],
                vec![rs(220, 300, 0), rs(450, 700, 1)],
            ],
        };
        let t = trace.layer_times(true);
        let ns = |x: f64| (x * 1e9).round() as u64;
        assert_eq!(ns(t.round_s), 100 + 50 + 80 + 250);
        assert_eq!(t.round_calls, 4);
        assert_eq!(ns(t.round_max_machine_s), 330);
        assert_eq!(ns(t.engine_self_s), 790 - 480);
        // The four layers tile the solve up to the gaps around them.
        let tiled = t.build_s + t.round_s + t.engine_self_s + t.extract_s;
        assert_eq!(ns(tiled), 980);
        // Threaded reading of the same spans: straggler subtracted.
        assert_eq!(ns(trace.layer_times(false).engine_self_s), 790 - 330);
        // And the file form keeps every span.
        let json = trace.to_json("w", 1, "sequential");
        let rows = json.get("round_spans").and_then(|r| r.get("rows")).unwrap();
        assert_eq!(rows.as_arr().unwrap().len(), 4);
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 4);
    }
}
