//! Small statistics helpers: nearest-rank percentiles, the
//! ten-samples-beyond rule for tail percentiles, ratios that keep their
//! base, and per-operation failure accounting.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// A set of measurements, sorted once so percentiles are cheap.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sort the measurements. NaNs are a bug in the caller.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `p`-th percentile (`p` in 0..=100): the smallest
    /// sample with at least `p`% of the samples at or below it. `None`
    /// when there are no samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let rank = nearest_rank(self.sorted.len(), p)?;
        Some(self.sorted[rank - 1])
    }

    /// The median, or 0 when empty (a layer the workload never entered).
    pub fn median_or_zero(&self) -> f64 {
        self.percentile(50.0).unwrap_or(0.0)
    }

    /// The `p`-th percentile if at least [`TAIL_SUPPORT`] samples lie
    /// beyond it, else 0: a tail read off fewer samples is noise.
    pub fn supported_or_zero(&self, p: f64) -> f64 {
        if beyond(self.sorted.len(), p) >= TAIL_SUPPORT {
            self.percentile(p).unwrap_or(0.0)
        } else {
            0.0
        }
    }
}

/// The `p`-th percentile of a run, robust to a few bad stretches: the
/// time-ordered samples are cut into at most `max_groups` consecutive
/// equal-count groups, each big enough to have [`TAIL_SUPPORT`] samples
/// beyond its `p`-th percentile (one group if there are too few), and the
/// median of the groups' percentiles is returned.
pub fn grouped_percentile(in_time_order: &[f64], p: f64, max_groups: usize) -> Option<f64> {
    let per_group = (TAIL_SUPPORT as f64 * 100.0 / (100.0 - p)).round() as usize;
    let groups = (in_time_order.len() / per_group.max(1)).clamp(1, max_groups.max(1));
    let size = in_time_order.len() / groups;
    let tails: Vec<f64> = (0..groups)
        .filter_map(|g| {
            let end = if g + 1 == groups { in_time_order.len() } else { (g + 1) * size };
            Samples::new(in_time_order[g * size..end].to_vec()).percentile(p)
        })
        .collect();
    Samples::new(tails).percentile(50.0)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// How many of `n` samples lie strictly beyond the nearest rank of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// A ratio that keeps its numerator and base, so a share is never
/// reported without what it is a share of.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    pub part: u64,
    pub base: u64,
}

impl Ratio {
    pub fn new(part: u64, base: u64) -> Self {
        Ratio { part, base }
    }

    /// `part / base`, or 0 over an empty base.
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }

    pub fn add(&mut self, other: Ratio) {
        self.part += other.part;
        self.base += other.base;
    }
}

/// How one planned operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// HTTP 200 (or an in-process call that returned normally).
    Ok,
    /// HTTP 200 carrying the in-band `degraded` marker.
    Degraded,
    /// Any other status, an I/O error, or never answered.
    Failed,
}

/// Failure accounting: every planned operation is recorded exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub degraded: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Degraded => self.degraded += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.degraded += other.degraded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = one_to(100);
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        let s = one_to(10);
        assert_eq!(s.percentile(50.0), Some(5.0));
        assert_eq!(s.percentile(90.0), Some(9.0));
        assert_eq!(s.percentile(91.0), Some(10.0));
        assert_eq!(one_to(1).percentile(99.0), Some(1.0));
        assert_eq!(Samples::default().percentile(50.0), None);
        assert_eq!(Samples::default().median_or_zero(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(0, 99.0), 0);
        assert_eq!(one_to(1000).supported_or_zero(99.0), 990.0);
        assert_eq!(one_to(999).supported_or_zero(99.0), 0.0);
        assert_eq!(one_to(100).supported_or_zero(90.0), 90.0);
        assert_eq!(one_to(99).supported_or_zero(90.0), 0.0);
    }

    #[test]
    fn grouped_percentile_takes_the_median_group() {
        // 3000 samples: three groups of 1000, one with a bad tail.
        let mut samples: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        for v in &mut samples[1980..2000] {
            *v += 1e6;
        }
        assert_eq!(grouped_percentile(&samples, 99.0, 10), Some(989.0));
        // Fewer than 1000 samples: one group, the plain percentile.
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(grouped_percentile(&few, 99.0, 10), Some(495.0));
        // The group count is capped; the last group takes the remainder.
        let many: Vec<f64> = (1..=4500).map(f64::from).collect();
        assert_eq!(grouped_percentile(&many, 99.0, 2), Some(2228.0));
        assert_eq!(grouped_percentile(&[], 99.0, 2), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        let mut r = Ratio::new(1, 4);
        assert_eq!(r.value(), 0.25);
        r.add(Ratio::new(1, 4));
        assert_eq!((r.part, r.base), (2, 8));
        assert_eq!(r.value(), 0.25);
        assert_eq!(Ratio::new(0, 0).value(), 0.0);
        assert_eq!(Ratio::new(3, 0).value(), 0.0);
    }

    #[test]
    fn every_outcome_counts_once() {
        let mut t = Tally::default();
        for outcome in [Outcome::Ok, Outcome::Degraded, Outcome::Failed, Outcome::Ok] {
            t.record(outcome);
        }
        assert_eq!(t, Tally { attempted: 4, failed: 1, degraded: 1 });
        let mut total = Tally::default();
        total.merge(t);
        total.merge(t);
        assert_eq!((total.attempted, total.failed), (8, 2));
    }
}
