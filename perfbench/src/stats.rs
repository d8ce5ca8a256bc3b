//! Summary statistics the benchmark reports: medians, tail percentiles
//! that are only reported when enough samples lie beyond them, the
//! geometric mean across paths, and the open-loop capacity rule.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; otherwise it would be one or two outliers.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    v
}

/// Percentile `p` in `0.0..=1.0` by linear interpolation between order
/// statistics (`percentile(xs, 0.5)` is the median). 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Samples strictly above the `p` quantile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Percentile `p`, or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn tail(xs: &[f64], p: f64) -> Option<f64> {
    (beyond(xs.len(), p) >= MIN_BEYOND).then(|| percentile(xs, p))
}

/// Geometric mean of positive values: every path weighs the same,
/// whatever its absolute time. NaN when there are none or one is not
/// positive, so a missing path cannot read as a fast one.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One open-loop ladder step as the capacity rule sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct StepResult {
    /// Offered rate (requests per second) of the step's schedule.
    pub offered_rps: f64,
    /// Requests the schedule sent divided by the step's length.
    pub achieved_rps: f64,
    /// Latency tail from due time, failures counted as infinite.
    pub p99_ms: f64,
    /// Requests still unanswered when the step's schedule ended.
    pub backlog_end: usize,
    /// Requests sent in the step.
    pub sent: usize,
    /// The generator kept to its schedule (see `serve::MAX_LATENESS_MS`).
    pub valid: bool,
}

impl StepResult {
    /// A backlog is growing when more than 5% of the step (and more
    /// than a handful of requests) is still queued at its end.
    pub fn backlog_growing(&self) -> bool {
        self.backlog_end > 8 && self.backlog_end * 20 > self.sent
    }

    pub fn passes(&self, limit_ms: f64) -> bool {
        self.valid && self.p99_ms <= limit_ms && !self.backlog_growing()
    }
}

/// The highest offered rate whose step passed, as the step itself.
pub fn max_passing(steps: &[StepResult], limit_ms: f64) -> Option<&StepResult> {
    steps
        .iter()
        .filter(|s| s.passes(limit_ms))
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
}

/// Time in `[start, end)` covered by the union of `children`, each
/// clipped to the parent interval.
pub fn covered(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    (end - start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: 9 lie beyond p99, 99 beyond p90.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&xs, 0.99), None);
        assert!(tail(&xs, 0.9).is_some());
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(tail(&xs, 0.99).is_some());
        assert_eq!(tail(&xs, 0.999), None);
        assert_eq!(tail(&xs[..5], 0.5), None);
    }

    #[test]
    fn geomean_weighs_paths_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[4.0, 0.0]).is_nan());
    }

    fn step(rate: f64, p99: f64, backlog: usize, valid: bool) -> StepResult {
        StepResult {
            offered_rps: rate,
            achieved_rps: rate * 1.01,
            p99_ms: p99,
            backlog_end: backlog,
            sent: (rate * 3.0) as usize,
            valid,
        }
    }

    #[test]
    fn max_rps_takes_highest_passing_valid_step() {
        let steps = vec![
            step(100.0, 5.0, 0, true),
            step(200.0, 9.0, 1, true),
            // Fast enough but the generator fell behind: not a pass.
            step(300.0, 10.0, 0, false),
            // Backlog grew: not a pass even with a good tail.
            step(400.0, 20.0, 200, true),
            step(500.0, 80.0, 0, true),
        ];
        assert_eq!(max_passing(&steps, 25.0).unwrap().offered_rps, 200.0);
        assert!(max_passing(&steps[4..], 25.0).is_none());
        // Ladder order does not matter.
        let mut rev = steps.clone();
        rev.reverse();
        assert_eq!(max_passing(&rev, 25.0).unwrap().offered_rps, 200.0);
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Parent [0,10); children overlap on [2,4) and one spills past
        // the parent's end.
        let kids = [(1.0, 4.0), (2.0, 5.0), (8.0, 12.0)];
        assert_eq!(covered(0.0, 10.0, &kids), 6.0);
        assert_eq!(self_time(0.0, 10.0, &kids), 4.0);
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        // Children covering everything leave zero, never negative.
        assert_eq!(self_time(0.0, 10.0, &[(-1.0, 11.0)]), 0.0);
    }
}
