//! The metrics registry: named counters, gauges and histograms,
//! get-or-registered by dot-namespaced name and snapshotted in sorted
//! order.
//!
//! Every registry is an instance ([`Registry::new`]) owned by a service
//! or mapper, so many services in one process (the normal case in tests
//! and multi-tenant serving) meter independently.
//!
//! Handles are `Arc`s: register once, cache the handle, update with a
//! single atomic op on the hot path — name lookup never happens per
//! frame.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramConfig, HistogramSnapshot};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1; returns the new total.
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Adds `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (resident bytes, active sessions).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `v` (negative to decrease); returns the new value.
    pub fn add(&self, v: i64) -> i64 {
        self.0.fetch_add(v, Ordering::Relaxed) + v
    }

    /// Raises the value to at least `v` (peak tracking).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric.
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

/// A metric's value at one instant, as produced by
/// [`Registry::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricSnapshot {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram headline numbers.
    Histogram(HistogramSnapshot),
}

/// A named collection of metrics, owned by the service or mapper it
/// meters.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("obs registry lock poisoned");
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `name` with the default shape
    /// ([`HistogramConfig::default`]), creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, HistogramConfig::default())
    }

    /// The histogram registered under `name`, creating it with `config`
    /// on first use (an existing histogram keeps its original shape).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn histogram_with(&self, name: &str, config: HistogramConfig) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new(config)))) {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// The counter registered under `name`, **without** creating it —
    /// `None` if absent or of another kind. Watchers (the SLO engine)
    /// use these lookups so observing a metric never brings it into
    /// existence.
    pub fn lookup_counter(&self, name: &str) -> Option<Arc<Counter>> {
        match self.metrics.lock().expect("obs registry lock poisoned").get(name) {
            Some(Metric::Counter(c)) => Some(Arc::clone(c)),
            _ => None,
        }
    }

    /// The gauge registered under `name`, without creating it (see
    /// [`Registry::lookup_counter`]).
    pub fn lookup_gauge(&self, name: &str) -> Option<Arc<Gauge>> {
        match self.metrics.lock().expect("obs registry lock poisoned").get(name) {
            Some(Metric::Gauge(g)) => Some(Arc::clone(g)),
            _ => None,
        }
    }

    /// The histogram registered under `name`, without creating it (see
    /// [`Registry::lookup_counter`]).
    pub fn lookup_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        match self.metrics.lock().expect("obs registry lock poisoned").get(name) {
            Some(Metric::Histogram(h)) => Some(Arc::clone(h)),
            _ => None,
        }
    }

    /// Every metric's value at one instant, **sorted by name** — a
    /// guarantee, not an accident: snapshot order is deterministic
    /// across runs and processes (names sort lexicographically), so
    /// snapshot diffs, the ops exporter's tables and golden tests are
    /// stable. Guarded by a regression test.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let metrics = self.metrics.lock().expect("obs registry lock poisoned");
        metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("b.count").add(5);
        r.gauge("a.level").set(-2);
        r.histogram("c.dist").record(7);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.level", "b.count", "c.dist"]);
        assert_eq!(snap[0].1, MetricSnapshot::Gauge(-2));
        assert_eq!(snap[1].1, MetricSnapshot::Counter(5));
        match snap[2].1 {
            MetricSnapshot::Histogram(h) => assert_eq!((h.count, h.p50), (1, 7)),
            ref other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_order_is_deterministic_regardless_of_registration_order() {
        // The documented guarantee: sorted by name, stable across runs.
        // Register in two different orders and require identical
        // snapshot shapes.
        let names = ["z.last", "a.first", "m.middle", "a.second", "z.apex"];
        let forward = Registry::new();
        for n in &names {
            forward.counter(n).inc();
        }
        let backward = Registry::new();
        for n in names.iter().rev() {
            backward.counter(n).inc();
        }
        let f: Vec<String> = forward.snapshot().into_iter().map(|(n, _)| n).collect();
        let b: Vec<String> = backward.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(f, b, "snapshot order must not depend on registration order");
        let mut sorted = f.clone();
        sorted.sort();
        assert_eq!(f, sorted, "snapshot must be sorted by name");
    }

    #[test]
    fn lookups_do_not_create_and_respect_kinds() {
        let r = Registry::new();
        assert!(r.lookup_counter("ghost").is_none());
        assert!(r.snapshot().is_empty(), "lookup must not create the metric");
        r.counter("real").add(3);
        assert_eq!(r.lookup_counter("real").unwrap().get(), 3);
        assert!(r.lookup_gauge("real").is_none(), "kind mismatch yields None, not a panic");
        assert!(r.lookup_histogram("real").is_none());
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let r = std::sync::Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("shared");
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), 80_000);
    }
}
