//! Sample summaries and the result line.

use std::fmt::Write as _;

/// Timed samples of one quantity, in the unit they were recorded in.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The median (mean of the two middle values for an even count).
    pub fn median(&self) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
        }
    }

    /// The nearest-rank `p`-quantile, or `None` unless at least
    /// [`MIN_BEYOND`] samples lie above it: a tail figure is reported only
    /// when it rests on that many observations.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return None;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| v[rank - 1])
    }

    /// Whether [`Samples::percentile`] has enough samples for `p`.
    pub fn supports(&self, p: f64) -> bool {
        self.percentile(p).is_some()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// One reported metric: value, unit and the number of samples behind it
/// (`1` for exact quantities and single measurements).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Ordered metric set of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<32} {:>16} {:<6} (n = {})",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        out
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed` and every
    /// metric as `{"value", "unit"}`. Values keep all their digits.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number in JSON syntax (Rust's shortest round-trip form).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite by construction, got {v}");
    format!("{v:?}")
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(i as f64);
        }
        assert!(s.percentile(0.99).is_none());
        s.push(999.0);
        assert_eq!(s.percentile(0.99), Some(989.0));
        assert_eq!(s.median(), Some(499.5));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        r.add("setup_s", 0.5, "s", 3);
        r.add("success_frac", 1.0, "ratio", 10);
        assert_eq!(
            r.result_line(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"success_frac\": {\"value\": 1.0, \"unit\": \"ratio\"}}}"
        );
    }
}
