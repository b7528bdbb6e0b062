//! Latency samples, percentiles and the metric record every workload fills.

/// A percentile is reported only when at least this many samples lie beyond
/// it; below that it would describe a handful of requests, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Latency samples of one kind of operation, in milliseconds. A failed
/// operation is a *miss*: it ranks above every successful sample, so it
/// exceeds every percentile.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ms: Vec<f64>,
    misses: usize,
}

impl Latencies {
    /// Record a completed operation.
    pub fn record(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Record a failed operation.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// All samples, misses included.
    pub fn count(&self) -> usize {
        self.ms.len() + self.misses
    }

    /// Sum of the completed samples.
    pub fn total(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// Nearest-rank `p`-th percentile (`0 < p <= 100`), or `None` without
    /// samples. A rank that falls on a miss is infinite.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = nearest_rank(n, p);
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted.get(rank - 1).copied().unwrap_or(f64::INFINITY))
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The `p`-th percentile as a *tail* figure: `None` unless at least
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn tail(&self, p: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 || n - nearest_rank(n, p) < MIN_BEYOND {
            return None;
        }
        self.percentile(p)
    }
}

/// 1-based rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of plain values (e.g. repeated set-up times); 0 when empty.
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported number: name, unit, value and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> Latencies {
        let mut l = Latencies::default();
        for i in 1..=n {
            l.record(i as f64);
        }
        l
    }

    #[test]
    fn no_tail_percentile_without_ten_samples_beyond_it() {
        // p90 of 99 samples has 9 beyond it; of 100 samples, exactly 10.
        assert_eq!(filled(99).tail(90.0), None);
        assert_eq!(filled(100).tail(90.0), Some(90.0));
        // p99 needs a thousand samples.
        assert_eq!(filled(999).tail(99.0), None);
        assert_eq!(filled(1000).tail(99.0), Some(990.0));
        assert_eq!(Latencies::default().tail(50.0), None);
    }

    #[test]
    fn failures_count_as_misses_of_every_percentile() {
        let mut l = filled(95);
        for _ in 0..5 {
            l.miss();
        }
        assert_eq!(l.count(), 100);
        assert_eq!(l.percentile(95.0), Some(95.0));
        assert_eq!(l.percentile(96.0), Some(f64::INFINITY));
        assert_eq!(l.median(), Some(50.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
