//! Sample summaries and the run report every workload returns.

use std::fmt::Write as _;

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; sorts in place.
/// Returns `None` for an empty sample set.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of `samples` (nearest rank); `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The percentile, over a run's passes, churn cycles or tick windows,
/// that the end-to-end timings report. Other tenants of the host slow
/// whole stretches of a run by 40% and more, in episodes of seconds, so a
/// run's median lands anywhere between the quiet and the busy mode. The
/// 10th percentile stays on the quiet stretches as long as a tenth of the
/// run reaches them.
pub const QUIET_PCT: f64 = 10.0;

/// One reported metric: name, value, unit and how many samples it
/// summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked answer was bit-exact and every run condition held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Inputs that shape behaviour, printed before the metrics.
    pub inputs: Vec<(String, String)>,
    /// Human-readable problems found by the checks.
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    pub fn input(&mut self, key: &str, value: impl ToString) {
        self.inputs.push((key.to_string(), value.to_string()));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ =
                write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
        }
        out.push_str("}}");
        out
    }
}
