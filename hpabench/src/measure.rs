//! Metric records, order statistics and process measurements.

use std::fmt::Write as _;
use std::time::Duration;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named measurement with its unit, direction and sample count.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    /// How many observations the value summarizes (1 for a single
    /// count or ratio of totals).
    pub samples: u64,
}

/// An ordered list of metrics with terse constructors.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
        samples: u64,
    ) {
        self.0.push(Metric { name: name.into(), value, unit, better, samples });
    }

    /// An exact count, or a ratio of counts: one sample.
    pub fn count(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
    ) {
        self.push(name, value, unit, better, 1);
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// The `q`-quantile (`0 <= q <= 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Wall time of one call of `f` in microseconds: the median over `reps`
/// timings of `batch` back-to-back calls each, divided by `batch`.
pub fn median_us(reps: usize, batch: u32, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for _ in 0..batch {
                f();
            }
            us(t0.elapsed()) / f64::from(batch)
        })
        .collect();
    median(&times)
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`).
///
/// # Errors
///
/// When the status file is unreadable or has no `VmHWM` line (a host
/// without procfs).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Renders a float for JSON: full precision, and `null` for a value JSON
/// cannot carry.
pub fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }
}
