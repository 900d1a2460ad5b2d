//! Pure reporting helpers: medians, the percentile rule, span self
//! time, trace coverage and failure accounting.

/// Percentiles the benchmark may report, lowest first.
pub const PERCENTILE_LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice, a NaN, or `p` outside (0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured sample"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The percentile rule: the highest percentile of [`PERCENTILE_LADDER`]
/// with at least [`MIN_BEYOND`] of `n` samples beyond it, or `None` when
/// even the median has fewer.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// it that its child spans cover (overlapping children count once).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

/// Share of the `roots`' total duration that their children cover:
/// `trace.coverage`, with each root a mirrored trial and `children[i]`
/// the spans directly under root `i`. Returns 0 when the roots have no
/// duration.
pub fn coverage(roots: &[(u64, u64)], children: &[Vec<(u64, u64)>]) -> f64 {
    let total: u64 = roots.iter().map(|(s, e)| e - s).sum();
    if total == 0 {
        return 0.0;
    }
    let self_total: u64 = roots
        .iter()
        .zip(children)
        .map(|(&(s, e), kids)| self_time(s, e, kids))
        .sum();
    1.0 - self_total as f64 / total as f64
}

/// Attempted and failed operations of a run, counted in trials.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Trials requested (or, under early stopping, scheduled).
    pub attempted: u64,
    /// Trials that failed, were cancelled, or never completed.
    pub failed: u64,
}

impl Tally {
    /// A campaign that was asked for `requested` trials and completed
    /// `completed` of them: every missing trial (failed, cancelled or
    /// incomplete) counts as failed.
    pub fn campaign(&mut self, requested: usize, completed: usize) {
        self.attempted += requested as u64;
        self.failed += requested.saturating_sub(completed) as u64;
    }

    /// A supervised stream of `requested` trials: a stream that was
    /// rejected or did not end `Done` fails all of its trials, one that
    /// did fails only the trials it did not complete.
    pub fn stream(&mut self, requested: usize, done: bool, completed: usize) {
        if done {
            self.campaign(requested, completed);
        } else {
            self.campaign(requested, 0);
        }
    }

    /// Trials that ran (`ran`, successful or not) of which `failed`
    /// panicked — the early-stopping DSE, where trials not scheduled
    /// after a verdict are not attempts.
    pub fn ran(&mut self, ran: usize, failed: usize) {
        self.attempted += ran as u64;
        self.failed += failed as u64;
    }

    /// `failed_ratio`: failed over attempted operations.
    ///
    /// # Panics
    ///
    /// Panics if nothing was attempted.
    pub fn failed_ratio(&self) -> f64 {
        assert!(self.attempted > 0, "no operations attempted");
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(reportable_percentile(0), None);
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(20), Some(50.0));
        assert_eq!(reportable_percentile(99), Some(50.0));
        assert_eq!(reportable_percentile(100), Some(90.0));
        assert_eq!(reportable_percentile(999), Some(90.0));
        assert_eq!(reportable_percentile(1000), Some(99.0));
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        // No children: all self.
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count their union.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Children spilling past the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
        // A child covering the whole parent leaves nothing.
        assert_eq!(self_time(10, 20, &[(10, 20), (12, 14)]), 0);
    }

    #[test]
    fn coverage_is_child_share_of_root_time() {
        let roots = [(0, 100), (200, 300)];
        let children = vec![vec![(0, 50), (50, 100)], vec![(200, 250)]];
        assert!((coverage(&roots, &children) - 0.75).abs() < 1e-12);
        assert_eq!(coverage(&[], &[]), 0.0);
        assert_eq!(coverage(&[(5, 5)], &[vec![]]), 0.0);
    }

    #[test]
    fn failed_ratio_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.campaign(64, 64);
        assert_eq!(t.failed_ratio(), 0.0);
        // Two failed or cancelled trials.
        t.campaign(64, 62);
        // A rejected stream of 16 trials, and a Done one missing one.
        t.stream(16, false, 0);
        t.stream(16, true, 15);
        // An early-stopped sweep: 40 ran, 1 panicked.
        t.ran(40, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 64 + 64 + 16 + 16 + 40,
                failed: 2 + 16 + 1 + 1
            }
        );
        assert!((t.failed_ratio() - 20.0 / 200.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "no operations attempted")]
    fn failed_ratio_needs_an_attempt() {
        Tally::default().failed_ratio();
    }
}
