//! Order statistics for a handful of samples.

use crate::json::Value;

/// Five-number summary of a timing's samples. With at most ~15 reps no
/// percentile above the third quartile has ten samples beyond it, so
/// none is reported (choosing-metrics §1).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (at least one).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&s);
        Summary {
            n: s.len(),
            min: s[0],
            q1,
            median,
            q3,
            max: s[s.len() - 1],
        }
    }

    /// A count that was the same on every rep.
    pub fn exact(value: f64, n: usize) -> Summary {
        Summary {
            n,
            min: value,
            q1: value,
            median: value,
            q3: value,
            max: value,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("n", self.n)
            .with("min", self.min)
            .with("q1", self.q1)
            .with("median", self.median)
            .with("q3", self.q3)
            .with("max", self.max)
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let f = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(Summary {
            n: f("n")? as usize,
            min: f("min")?,
            q1: f("q1")?,
            median: f("median")?,
            q3: f("q3")?,
            max: f("max")?,
        })
    }
}

/// Quartiles of sorted data by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (the "exclusive" method),
/// so the spreads this benchmark prints match what a reviewer computes
/// from the raw values (from four samples up; see the clamp below).
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let m = sorted.len();
    if m == 1 {
        return [sorted[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        // With two or three samples the rule extrapolates past the
        // data; a quartile outside [min, max] helps no reader.
        *slot = ((sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0)
            .clamp(sorted[0], sorted[m - 1]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5], clamped
        // to the data here.
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn summary_survives_json() {
        let s = Summary::of(&[0.31, 0.29, 0.3, 0.33, 0.28]);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
