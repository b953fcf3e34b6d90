//! `compare A.json B.json`: is B a regression from A?
//!
//! Applies the bounds of `metrics.rs`: an end-to-end timing may not
//! worsen past its bound, a count labelled exact may not differ at all,
//! and the share of failed operations may not rise. Per-layer timings
//! are printed with their ratio but never gate.

use crate::metrics::{self, Better, Bound, Kind};
use crate::report::{fmt_num, ResultSet, WorkloadResult};
use crate::stats::Summary;

/// One (metric, workload) line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Option<Summary>,
    pub new: Option<Summary>,
    /// `Some(reason)` if this row makes the comparison fail.
    pub violation: Option<String>,
}

#[derive(Debug)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Failures that belong to no single metric.
    pub general: Vec<String>,
}

impl Comparison {
    pub fn violations(&self) -> Vec<String> {
        self.general
            .iter()
            .cloned()
            .chain(self.rows.iter().filter_map(|r| {
                r.violation
                    .as_ref()
                    .map(|v| format!("{} / {}: {v}", r.workload, r.metric))
            }))
            .collect()
    }
}

fn judge(name: &str, base: Option<&Summary>, new: Option<&Summary>) -> Option<String> {
    let def = metrics::find(name)?;
    let gates = def.bound.is_some() || def.kind == Kind::Exact;
    match (base, new) {
        (Some(_), None) if gates => Some("reported by A, missing from B".to_string()),
        (Some(a), Some(b)) => {
            let bound = match (def.bound, def.kind) {
                (Some(b), _) => b,
                (None, Kind::Exact) => Bound::Exact,
                _ => return None,
            };
            if def.kind == Kind::Exact && (a.min != a.max || b.min != b.max) {
                return Some("an exact count varied between reps".to_string());
            }
            bound.violated(def.better, a.median, b.median).then(|| {
                format!(
                    "{} -> {} is past the bound ({})",
                    fmt_num(a.median),
                    fmt_num(b.median),
                    bound.label(def.unit)
                )
            })
        }
        _ => None,
    }
}

/// Compares two result sets of the same seed and size.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<Comparison, String> {
    if a.smoke || b.smoke {
        return Err("smoke output is not a measurement; compare refuses it".to_string());
    }
    let mut general = Vec::new();
    if a.seed != b.seed {
        general.push(format!(
            "seeds differ ({} vs {}): inputs are not the same",
            a.seed, b.seed
        ));
    }
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            general.push(format!("workload {} is missing from B", wa.name));
            continue;
        };
        let share = |w: &WorkloadResult| w.ops_failed as f64 / w.ops_attempted.max(1) as f64;
        if share(wb) > share(wa) {
            general.push(format!(
                "{}: failed operations rose from {}/{} to {}/{}",
                wa.name, wa.ops_failed, wa.ops_attempted, wb.ops_failed, wb.ops_attempted
            ));
        }
        for def in metrics::all() {
            let (base, new) = (wa.metric(def.name), wb.metric(def.name));
            if base.is_none() && new.is_none() {
                continue;
            }
            rows.push(Row {
                workload: wa.name.clone(),
                metric: def.name.to_string(),
                violation: judge(def.name, base, new),
                base: base.cloned(),
                new: new.cloned(),
            });
        }
    }
    Ok(Comparison { rows, general })
}

/// One row per (metric, workload): both medians with quartiles, and
/// the ratio B/A.
pub fn print(c: &Comparison) {
    println!(
        "{:<16} {:<40} {:>34} {:>34} {:>9}  verdict",
        "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "B/A"
    );
    let cell = |s: &Option<Summary>| match s {
        None => "-".to_string(),
        Some(s) if s.min == s.max => fmt_num(s.median),
        Some(s) => format!(
            "{} [{} {}]",
            fmt_num(s.median),
            fmt_num(s.q1),
            fmt_num(s.q3)
        ),
    };
    for r in &c.rows {
        let ratio = match (&r.base, &r.new) {
            (Some(a), Some(b)) if a.median != 0.0 => format!("{:.4}", b.median / a.median),
            _ => "-".to_string(),
        };
        let def = metrics::find(&r.metric);
        let verdict = match (&r.violation, def) {
            (Some(v), _) => format!("REGRESSION: {v}"),
            (None, Some(d)) if d.bound.is_some() => "within bound".to_string(),
            (None, Some(d)) if d.kind == Kind::Exact => "identical".to_string(),
            (None, Some(d)) => format!(
                "({}, {} is better)",
                d.kind.label(),
                if d.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                }
            ),
            (None, None) => String::new(),
        };
        println!(
            "{:<16} {:<40} {:>34} {:>34} {:>9}  {verdict}",
            r.workload,
            r.metric,
            cell(&r.base),
            cell(&r.new),
            ratio
        );
    }
    println!("(ratios are B/A: A is the base)");
    for g in &c.general {
        println!("REGRESSION: {g}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn set(wall: &[f64], rounds: f64, failed: u64) -> ResultSet {
        ResultSet {
            smoke: false,
            seed: 1,
            seconds: 10.0,
            host: Value::Null,
            workloads: vec![WorkloadResult {
                name: "triangles".to_string(),
                engine: "sequential".to_string(),
                ops_attempted: 10,
                ops_failed: failed,
                failures: Vec::new(),
                metrics: vec![
                    ("wall_s".to_string(), Summary::of(wall)),
                    ("rounds".to_string(), Summary::exact(rounds, wall.len())),
                    (
                        "protocol.round_s".to_string(),
                        Summary::of(&[wall[0] * 0.8]),
                    ),
                ],
            }],
        }
    }

    fn scaled(wall: &[f64], by: f64) -> Vec<f64> {
        wall.iter().map(|w| w * by).collect()
    }

    const WALL: [f64; 5] = [0.95, 0.96, 0.94, 0.97, 0.95];

    #[test]
    fn passes_a_three_percent_wobble() {
        let c = compare(&set(&WALL, 163.0, 0), &set(&scaled(&WALL, 1.03), 163.0, 0)).unwrap();
        assert_eq!(c.violations(), Vec::<String>::new());
        // Faster is never a regression either.
        let c = compare(&set(&WALL, 163.0, 0), &set(&scaled(&WALL, 0.7), 163.0, 0)).unwrap();
        assert!(c.violations().is_empty());
    }

    #[test]
    fn flags_a_twelve_percent_wall_regression() {
        let c = compare(&set(&WALL, 163.0, 0), &set(&scaled(&WALL, 1.12), 163.0, 0)).unwrap();
        let v = c.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("triangles / wall_s"), "{v:?}");
        // The per-layer timing moved as much but never gates.
        assert!(c
            .rows
            .iter()
            .any(|r| r.metric == "protocol.round_s" && r.violation.is_none()));
    }

    #[test]
    fn flags_a_rounds_mismatch_in_either_direction() {
        for off in [1.0, -1.0] {
            let c = compare(&set(&WALL, 163.0, 0), &set(&WALL, 163.0 + off, 0)).unwrap();
            let v = c.violations();
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].starts_with("triangles / rounds"), "{v:?}");
        }
    }

    #[test]
    fn flags_more_failures_missing_metrics_and_refuses_smoke() {
        let c = compare(&set(&WALL, 163.0, 0), &set(&WALL, 163.0, 1)).unwrap();
        assert!(c.violations()[0].contains("failed operations rose"));

        let mut gone = set(&WALL, 163.0, 0);
        gone.workloads[0].metrics.retain(|(n, _)| n != "rounds");
        let c = compare(&set(&WALL, 163.0, 0), &gone).unwrap();
        assert!(c.violations()[0].contains("missing from B"));

        let mut smoke = set(&WALL, 163.0, 0);
        smoke.smoke = true;
        assert!(compare(&smoke, &set(&WALL, 163.0, 0)).is_err());
        assert!(compare(&set(&WALL, 163.0, 0), &smoke).is_err());
    }
}
