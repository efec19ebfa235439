//! The arithmetic behind the reported numbers: nearest-rank
//! percentiles, per-unit minima over interleaved rounds, decode
//! bandwidth and the serve-path latency split.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank, so the value is not set by a handful of
/// outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`p` in whole percent, 1..=100) of
/// ascending `sorted` samples, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(sorted: &[u64], p: usize) -> Option<u64> {
    assert!((1..=100).contains(&p), "percentile out of range: {p}");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    let n = sorted.len();
    // 1-based nearest rank: ceil(p * n / 100), in integers.
    let rank = (p * n).div_ceil(100).max(1);
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Decode bandwidth: `bytes` decoded in `ns` nanoseconds, in MB/s
/// (10^6 bytes per second).
pub fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    assert!(ns > 0, "bandwidth over zero time");
    bytes as f64 * 1e3 / ns as f64
}

/// Per-unit minimum over interleaved rounds. Every round times every
/// unit once, so a host slow phase shortens no unit's best sample and
/// the sum of minima tracks the host's fast phase rather than its
/// average load.
#[derive(Debug, Clone)]
pub struct UnitMins {
    mins: Vec<u64>,
}

impl UnitMins {
    /// `units` units, none sampled yet.
    pub fn new(units: usize) -> UnitMins {
        UnitMins {
            mins: vec![u64::MAX; units],
        }
    }

    /// Folds one sample of unit `u`.
    pub fn record(&mut self, u: usize, ns: u64) {
        self.mins[u] = self.mins[u].min(ns);
    }

    /// Whether every unit has at least one sample.
    pub fn complete(&self) -> bool {
        self.mins.iter().all(|&m| m != u64::MAX)
    }

    /// The best sample of unit `u`.
    pub fn min(&self, u: usize) -> u64 {
        assert!(self.mins[u] != u64::MAX, "unit {u} never sampled");
        self.mins[u]
    }

    /// Sum of the best samples of `units`.
    pub fn sum_of(&self, units: impl IntoIterator<Item = usize>) -> u64 {
        units.into_iter().map(|u| self.min(u)).sum()
    }
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// A sum of nanoseconds with its sample count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Total nanoseconds.
    pub sum_ns: f64,
    /// Number of samples.
    pub count: u64,
}

impl Tally {
    /// Adds one sample.
    pub fn add(&mut self, ns: u64) {
        self.sum_ns += ns as f64;
        self.count += 1;
    }

    /// Mean in milliseconds, 0 with no samples.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            ms(self.sum_ns / self.count as f64)
        }
    }
}

/// Where a served request's client-side latency went, as means over the
/// same set of requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSplit {
    /// Client latency minus daemon handler time: framing, syscalls and
    /// TCP timers on both sides.
    pub wire_ms: f64,
    /// Handler time minus the replayed job time: admission, queue and
    /// batch-barrier waits.
    pub queue_ms: f64,
    /// The replayed job itself.
    pub job_ms: f64,
}

impl ServeSplit {
    /// The client-observed mean this split accounts for.
    pub fn total_ms(&self) -> f64 {
        self.wire_ms + self.queue_ms + self.job_ms
    }
}

/// Splits the client-observed latency into wire, queue and job layers.
/// `client` is the client's send-to-reply time, `handler` the daemon's
/// per-request handler time summed over ops, and `job` the in-process
/// replay of the same jobs.
///
/// # Errors
///
/// When the three tallies do not cover the same number of requests,
/// since their means would then not describe the same requests.
pub fn serve_split(client: Tally, handler: Tally, job: Tally) -> Result<ServeSplit, String> {
    if client.count == 0 || client.count != handler.count || client.count != job.count {
        return Err(format!(
            "layer tallies cover different requests: client {} handler {} job {}",
            client.count, handler.count, job.count
        ));
    }
    let (c, h, j) = (client.mean_ms(), handler.mean_ms(), job.mean_ms());
    Ok(ServeSplit {
        wire_ms: c - h,
        queue_ms: h - j,
        job_ms: j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), Some(50));
        assert_eq!(percentile(&v, 90), Some(90));
        assert_eq!(percentile(&v, 1), Some(1));
        // Nearest rank rounds the rank up: ceil(0.5 * 21) = 11.
        let odd: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&odd, 50), Some(11));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p50 of 20 samples: rank 10, ten beyond.
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 50), Some(10));
        // 19 samples: rank 10, nine beyond.
        assert_eq!(percentile(&twenty[..19], 50), None);
        // p90 needs 100 samples: rank 90, ten beyond; 99 leaves nine.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 90), Some(90));
        assert_eq!(percentile(&hundred[..99], 90), None);
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&hundred, 100), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mb_per_s_arithmetic() {
        // 1 MB in 1 s, and in 1 ms.
        assert_eq!(mb_per_s(1_000_000, 1_000_000_000), 1.0);
        assert_eq!(mb_per_s(1_000_000, 1_000_000), 1000.0);
        // 150 kB in 2 ms is 75 MB/s.
        assert!((mb_per_s(150_000, 2_000_000) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn unit_mins_keep_each_units_best_round() {
        let mut m = UnitMins::new(3);
        assert!(!m.complete());
        for round in [[5, 9, 7], [4, 10, 8], [6, 8, 9]] {
            for (u, ns) in round.into_iter().enumerate() {
                m.record(u, ns);
            }
        }
        assert!(m.complete());
        assert_eq!([m.min(0), m.min(1), m.min(2)], [4, 8, 7]);
        assert_eq!(m.sum_of(0..3), 19);
        assert_eq!(m.sum_of([1, 2]), 15);
    }

    #[test]
    fn serve_split_reconciles_with_client_mean() {
        let tally = |samples: &[u64]| {
            let mut t = Tally::default();
            samples.iter().for_each(|&ns| t.add(ns));
            t
        };
        // Two requests: 90 ms and 94 ms at the client, of which the
        // handler saw 3 ms and 5 ms and the jobs took 1 ms and 2 ms.
        let client = tally(&[90_000_000, 94_000_000]);
        let handler = tally(&[3_000_000, 5_000_000]);
        let job = tally(&[1_000_000, 2_000_000]);
        let s = serve_split(client, handler, job).expect("same requests");
        assert!((s.wire_ms - 88.0).abs() < 1e-9);
        assert!((s.queue_ms - 2.5).abs() < 1e-9);
        assert!((s.job_ms - 1.5).abs() < 1e-9);
        assert!((s.total_ms() - client.mean_ms()).abs() < 1e-9);
    }

    #[test]
    fn serve_split_rejects_mismatched_request_sets() {
        let mut one = Tally::default();
        one.add(1);
        let mut two = one;
        two.add(1);
        assert!(serve_split(two, one, two).is_err());
        assert!(serve_split(two, two, one).is_err());
        assert!(serve_split(Tally::default(), Tally::default(), Tally::default()).is_err());
    }
}
