//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms.
//!
//! Handles are `Arc`-shared and updated with relaxed atomics, so
//! instrumented code pays one uncontended atomic add per update and
//! never takes the registry lock. The registry itself is only locked to
//! create or enumerate metrics; dumps are stable (names sort
//! lexicographically) so snapshots diff cleanly across runs.

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are inclusive upper edges; a sample lands in the first
/// bucket whose bound is `>= sample`, or in the implicit overflow
/// bucket past the last bound. The bucket counts always sum to the
/// total observation count (the invariant the telemetry proptests pin).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        let mut b = bounds.to_vec();
        b.sort_unstable();
        b.dedup();
        let buckets = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: b,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn observe(&self, sample: u64) {
        let idx = self.bounds.partition_point(|&b| b < sample);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(sample, Ordering::Relaxed);
    }

    /// Inclusive upper bucket edges.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries, overflow last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket counts,
    /// interpolating linearly inside the bucket that holds the target
    /// rank (the classic fixed-bucket estimator: exact at bucket edges,
    /// off by at most one bucket width inside).
    ///
    /// Conventions for the open-ended parts: a target landing in the
    /// overflow bucket reports the last bound (the estimator cannot see
    /// past its edges); a histogram with no finite buckets reports the
    /// mean; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        if self.bounds.is_empty() {
            return self.sum() as f64 / total as f64;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                if i == self.bounds.len() {
                    // Overflow bucket: clamp to the last finite edge.
                    return self.bounds[self.bounds.len() - 1] as f64;
                }
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] } as f64;
                let hi = self.bounds[i] as f64;
                let frac = (target - cum as f64) / c as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            cum = next;
        }
        self.bounds[self.bounds.len() - 1] as f64
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics. Cloneable handles come out; the
/// registry keeps the authoritative sorted map for dumps.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The metric named `name`, registered by `make` on first use. Only
    /// that first call allocates the name; later calls look it up by
    /// `&str`. `pick` takes the handle out if the metric is of the
    /// wanted kind.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    fn metric<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        pick: impl FnOnce(&Metric) -> Option<&Arc<T>>,
    ) -> Arc<T> {
        let mut m = self.metrics.lock().unwrap();
        let metric = match m.get(name) {
            Some(metric) => metric,
            None => m.entry(name.to_string()).or_insert_with(make),
        };
        match pick(metric) {
            Some(handle) => Arc::clone(handle),
            None => panic!("metric {name} already registered as a {}", metric.kind()),
        }
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.metric(
            name,
            || Metric::Counter(Arc::default()),
            |m| match m {
                Metric::Counter(c) => Some(c),
                _ => None,
            },
        )
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.metric(
            name,
            || Metric::Gauge(Arc::default()),
            |m| match m {
                Metric::Gauge(g) => Some(g),
                _ => None,
            },
        )
    }

    /// The histogram named `name` with the given inclusive upper bucket
    /// edges, created on first use (later calls ignore `bounds`).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.metric(
            name,
            || Metric::Histogram(Arc::new(Histogram::new(bounds))),
            |m| match m {
                Metric::Histogram(h) => Some(h),
                _ => None,
            },
        )
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().unwrap().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stable, sorted, human-readable dump — one metric per line.
    pub fn dump_text(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} = {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} = {}\n", g.get())),
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "{name} = count {} sum {} p50 {:.1} p90 {:.1} p99 {:.1} buckets {:?}@{:?}\n",
                        h.count(),
                        h.sum(),
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99),
                        h.bucket_counts(),
                        h.bounds(),
                    ));
                }
            }
        }
        out
    }

    /// A stable JSON object: `{"counters":{..},"gauges":{..},
    /// "histograms":{..}}`, names sorted within each section.
    pub fn to_json(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    counters.push_str(&format!("{}:{}", json::escape(name), c.get()));
                }
                Metric::Gauge(g) => {
                    if !gauges.is_empty() {
                        gauges.push(',');
                    }
                    gauges.push_str(&format!("{}:{}", json::escape(name), g.get()));
                }
                Metric::Histogram(h) => {
                    if !histograms.is_empty() {
                        histograms.push(',');
                    }
                    let bounds: Vec<String> = h.bounds().iter().map(u64::to_string).collect();
                    let counts: Vec<String> =
                        h.bucket_counts().iter().map(u64::to_string).collect();
                    histograms.push_str(&format!(
                        "{}:{{\"bounds\":[{}],\"counts\":[{}],\"count\":{},\"sum\":{},\
                         \"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3}}}",
                        json::escape(name),
                        bounds.join(","),
                        counts.join(","),
                        h.count(),
                        h.sum(),
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99)
                    ));
                }
            }
        }
        format!("{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}")
    }

    /// Every counter as `(name, value)`, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .filter_map(|(n, metric)| match metric {
                Metric::Counter(c) => Some((n.clone(), c.get())),
                _ => None,
            })
            .collect()
    }
}

/// Folds the distribution-bearing fetch events of a drained trace into
/// histograms: decode-stall cycles, ATB miss penalties and L0 fill
/// sizes. The counters already hold the totals; these capture the
/// *shape*, so a metrics snapshot can answer "p99 stall" questions.
pub fn observe_fetch_histograms(events: &[crate::trace::TraceEvent], registry: &MetricsRegistry) {
    use crate::trace::{FetchEventKind, TraceEvent};
    let stalls = registry.histogram("fetch.decode_stall_cycles", &[4, 8, 16, 32, 64, 128, 256]);
    let penalties = registry.histogram("fetch.atb_penalty_cycles", &[1, 2, 4, 8, 16, 32]);
    let fills = registry.histogram("fetch.l0_fill_ops", &[2, 4, 8, 16, 32, 64]);
    for ev in events {
        if let TraceEvent::Fetch { kind, .. } = ev {
            match kind {
                FetchEventKind::DecodeStall { cycles } => stalls.observe(*cycles as u64),
                FetchEventKind::AtbMiss { penalty } => penalties.observe(*penalty as u64),
                FetchEventKind::L0Fill { ops } => fills.observe(*ops as u64),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter("a.hits").add(3);
        reg.counter("a.hits").inc();
        reg.gauge("a.jobs").set(8);
        reg.gauge("a.jobs").add(-2);
        let h = reg.histogram("a.lat", &[1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        assert_eq!(reg.counter("a.hits").get(), 4);
        assert_eq!(reg.gauge("a.jobs").get(), 6);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 108);
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn dump_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        reg.histogram("m.mid", &[10]);
        let d1 = reg.dump_text();
        let d2 = reg.dump_text();
        assert_eq!(d1, d2);
        let a = d1.find("a.first").unwrap();
        let m = d1.find("m.mid").unwrap();
        let z = d1.find("z.last").unwrap();
        assert!(a < m && m < z, "sorted: {d1}");
    }

    #[test]
    fn json_dump_parses_back() {
        let reg = MetricsRegistry::new();
        reg.counter("c\"quoted").add(7);
        reg.gauge("g").set(-5);
        reg.histogram("h", &[2, 8]).observe(3);
        let v = crate::json::parse_json(&reg.to_json()).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("c\"quoted")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(-5.0)
        );
        let h = v.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn a_second_lookup_returns_the_same_handle() {
        let reg = MetricsRegistry::new();
        assert!(Arc::ptr_eq(&reg.counter("c"), &reg.counter("c")));
        assert!(Arc::ptr_eq(&reg.gauge("g"), &reg.gauge("g")));
        let h = reg.histogram("h", &[1, 2]);
        assert!(Arc::ptr_eq(&h, &reg.histogram("h", &[7])));
        assert_eq!(h.bounds(), [1, 2], "later bounds are ignored");
        assert_eq!(reg.len(), 3);
    }

    #[test]
    #[should_panic(expected = "metric x already registered as a gauge")]
    fn kind_mismatch_names_the_registered_kind() {
        let reg = MetricsRegistry::new();
        reg.gauge("x");
        reg.histogram("x", &[1]);
    }

    /// Exact `q`-quantile of a sorted sample set (nearest-rank).
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_track_a_uniform_distribution_within_a_bucket_width() {
        let reg = MetricsRegistry::new();
        // Bucket width 100 over uniform samples 1..=1000: the estimate
        // must land within one bucket width of the exact quantile.
        let bounds: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        let h = reg.histogram("u", &bounds);
        let samples: Vec<u64> = (1..=1000).collect();
        for &s in &samples {
            h.observe(s);
        }
        for q in [0.10, 0.50, 0.90, 0.99] {
            let exact = exact_quantile(&samples, q) as f64;
            let est = h.quantile(q);
            assert!(
                (est - exact).abs() <= 100.0,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn quantiles_separate_a_skewed_distribution() {
        // A heavily skewed distribution: 90 fast samples in [0,10],
        // 10 slow ones in (10,1000]. With an edge exactly at the split,
        // p50 stays in the fast bucket and p99 in the slow one.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("s", &[10, 1000]);
        let mut samples = Vec::new();
        for i in 0..90 {
            samples.push(i % 11);
        }
        for i in 0..10 {
            samples.push(100 + i * 90);
        }
        for &s in &samples {
            h.observe(s);
        }
        samples.sort_unstable();
        assert!(h.quantile(0.50) <= 10.0, "p50 {}", h.quantile(0.50));
        assert!(h.quantile(0.99) > 10.0, "p99 {}", h.quantile(0.99));
        let exact99 = exact_quantile(&samples, 0.99) as f64;
        assert!((h.quantile(0.99) - exact99).abs() <= 990.0);
    }

    #[test]
    fn quantile_edge_cases() {
        let reg = MetricsRegistry::new();
        let empty = reg.histogram("e", &[10]);
        assert_eq!(empty.quantile(0.5), 0.0);

        let unbounded = reg.histogram("ub", &[]);
        unbounded.observe(4);
        unbounded.observe(8);
        assert_eq!(unbounded.quantile(0.5), 6.0, "no finite buckets: mean");

        let overflow = reg.histogram("of", &[10]);
        overflow.observe(1_000);
        assert_eq!(
            overflow.quantile(0.5),
            10.0,
            "overflow mass clamps to the last edge"
        );

        let h = reg.histogram("q", &[100]);
        h.observe(50);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", &[8, 2, 2, 4]);
        assert_eq!(h.bounds(), &[2, 4, 8]);
        assert_eq!(h.bucket_counts().len(), 4);
    }
}
