//! Result sets: what one full run of the benchmark measured, as a file
//! and as a table.

use crate::json::Value;
use crate::metrics::{self, MetricDef};
use crate::stats::Summary;
use crate::workloads::Report;

/// One workload's row of a result set.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub engine: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(String, Summary)>,
}

impl WorkloadResult {
    pub fn from_report(r: &Report) -> WorkloadResult {
        WorkloadResult {
            name: r.workload.to_string(),
            engine: r.engine.clone(),
            ops_attempted: r.attempted,
            ops_failed: r.failed,
            failures: r.failures.clone(),
            metrics: r
                .metrics
                .iter()
                .map(|(n, s)| (n.to_string(), s.clone()))
                .collect(),
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for (name, s) in &self.metrics {
            let mut m = Value::obj();
            if let Some(def) = metrics::find(name) {
                m.set("unit", def.unit).set("kind", def.kind.label());
            }
            for (k, v) in s.to_json().fields() {
                m.set(k, v.clone());
            }
            metrics.set(name, m);
        }
        Value::obj()
            .with("name", self.name.as_str())
            .with("engine", self.engine.as_str())
            .with("ops_attempted", self.ops_attempted)
            .with("ops_failed", self.ops_failed)
            .with(
                "failures",
                self.failures
                    .iter()
                    .map(|f| f.as_str().into())
                    .collect::<Vec<Value>>(),
            )
            .with("metrics", metrics)
    }

    pub fn from_json(v: &Value) -> Result<WorkloadResult, String> {
        let text = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("workload entry lacks {k:?}"))
        };
        let count = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| format!("workload entry lacks {k:?}"))
        };
        let metrics = v
            .get("metrics")
            .ok_or("workload entry lacks \"metrics\"")?
            .fields()
            .iter()
            .map(|(name, m)| {
                Summary::from_json(m)
                    .map(|s| (name.clone(), s))
                    .ok_or_else(|| format!("metric {name:?} is not a summary"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WorkloadResult {
            name: text("name")?,
            engine: text("engine")?,
            ops_attempted: count("ops_attempted")?,
            ops_failed: count("ops_failed")?,
            failures: v
                .get("failures")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
        })
    }
}

/// One full run: every workload, with the host it ran on.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    pub host: Value,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultSet {
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("schema", 1u64)
            .with("smoke", self.smoke)
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("host", self.host.clone())
            .with(
                "workloads",
                self.workloads
                    .iter()
                    .map(WorkloadResult::to_json)
                    .collect::<Vec<Value>>(),
            )
    }

    pub fn from_json(v: &Value) -> Result<ResultSet, String> {
        if v.get("schema").and_then(Value::as_f64) != Some(1.0) {
            return Err("not a result set of this benchmark (schema != 1)".to_string());
        }
        Ok(ResultSet {
            smoke: v.get("smoke").and_then(Value::as_bool).unwrap_or(false),
            seed: v.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            seconds: v.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
            host: v.get("host").cloned().unwrap_or(Value::Null),
            workloads: v
                .get("workloads")
                .and_then(Value::as_arr)
                .ok_or("result set lacks \"workloads\"")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    pub fn load(path: &str) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultSet::from_json(&crate::json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    }

    pub fn ops_failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.ops_failed).sum()
    }
}

/// Prints a number with enough digits to tell 1 % apart at any scale.
pub fn fmt_num(x: f64) -> String {
    let a = x.abs();
    if x.fract() == 0.0 && a < 1e15 {
        format!("{x:.0}")
    } else if a >= 1000.0 {
        format!("{x:.1}")
    } else if a >= 1.0 {
        format!("{x:.4}")
    } else if a >= 1e-3 {
        format!("{x:.6}")
    } else {
        format!("{x:.3e}")
    }
}

/// Every metric of one workload by name, with unit, sample count,
/// median and quartiles, and its regression bound (end-to-end) or how
/// it repeats (per-layer).
pub fn print_workload(w: &WorkloadResult) {
    println!(
        "\n== {}  engine={}  ops_attempted={} ops_failed={}",
        w.name, w.engine, w.ops_attempted, w.ops_failed
    );
    for f in &w.failures {
        println!("   FAILED: {f}");
    }
    println!(
        "   {:<40} {:>8} {:>3} {:>14}  {:<44} bound",
        "metric", "unit", "n", "median", "[min q1 q3 max]"
    );
    for def in metrics::all() {
        let Some(s) = w.metric(def.name) else {
            continue;
        };
        let range = if s.min != s.max {
            format!(
                "[{} {} {} {}]",
                fmt_num(s.min),
                fmt_num(s.q1),
                fmt_num(s.q3),
                fmt_num(s.max)
            )
        } else {
            String::new()
        };
        let flag = if def.name == "trace.overhead_ratio" && s.median > 1.15 {
            "  <-- tracing costs more than 15 % here"
        } else {
            ""
        };
        println!(
            "   {:<40} {:>8} {:>3} {:>14}  {:<44} {}{flag}",
            def.name,
            def.unit,
            s.n,
            fmt_num(s.median),
            range,
            bound_label(def),
        );
    }
}

/// End-to-end metrics carry a bound; per-layer ones only say how they
/// repeat.
fn bound_label(def: &MetricDef) -> String {
    match def.bound {
        Some(b) => b.label(def.unit),
        None => format!("none ({})", def.kind.label()),
    }
}

/// The metric table as Markdown: what README.md restates.
pub fn print_metric_table() {
    println!("| name | unit | better | repeats | bound | layer (module) | should move | on |");
    println!("|---|---|---|---|---|---|---|---|");
    for def in metrics::all() {
        println!(
            "| `{}` | {} | {} | {} | {} | {} | {} | {} |",
            def.name,
            def.unit,
            match def.better {
                metrics::Better::Lower => "lower",
                metrics::Better::Higher => "higher",
            },
            def.kind.label(),
            def.bound.map_or("-".to_string(), |b| b.label(def.unit)),
            def.layer,
            if def.moves.is_empty() { "-" } else { def.moves },
            def.on,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_set_survives_json() {
        let set = ResultSet {
            smoke: false,
            seed: 3,
            seconds: 10.0,
            host: Value::obj().with("nproc", 2usize),
            workloads: vec![WorkloadResult {
                name: "triangles".to_string(),
                engine: "sequential".to_string(),
                ops_attempted: 8,
                ops_failed: 1,
                failures: vec!["rep 3 differs".to_string()],
                metrics: vec![
                    ("wall_s".to_string(), Summary::of(&[0.95, 0.97, 0.93])),
                    ("rounds".to_string(), Summary::exact(163.0, 3)),
                ],
            }],
        };
        let back = ResultSet::from_json(&crate::json::parse(&set.to_json().to_pretty()).unwrap());
        assert_eq!(back, Ok(set));
        assert!(ResultSet::from_json(&Value::obj()).is_err());
    }
}
