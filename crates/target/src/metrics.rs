//! An always-on, lock-free metrics registry.
//!
//! The registry holds *named* monotonic counters and log₂ histograms.
//! Registration (`counter`/`histogram` on a name seen for the first
//! time) takes a short lock; the handles it returns are `Arc`-shared
//! atomics, so the **hot path — bumping a counter or observing a
//! histogram sample — is a single `fetch_add`**, lock-free and safe to
//! leave enabled permanently. The REPL keeps one registry per session
//! (it survives backend swaps, unlike the per-tower [`crate::TraceHandle`])
//! and renders it with `.top`.
//!
//! [`MetricsRegistry::snapshot`] returns a point-in-time, name-sorted
//! copy for rendering or JSON export; it never blocks writers for more
//! than the duration of a map clone. Snapshots are ordered
//! add-before-observe: for code that bumps a counter before it observes
//! the matching histogram sample, a snapshot's histogram counts never
//! exceed a later snapshot's counters. [`Histogram::observe`] publishes
//! with `Release` and histogram reads load with `Acquire`, so a read
//! that sees a sample also sees every counter add made before it; the
//! snapshot reads counters before histograms, and snapshots are ordered
//! among themselves by the registry's lock.
//!
//! The module also holds the primitives every telemetry source shares:
//! the log₂ bucket and quantile rule ([`log2_bucket`],
//! [`log2_quantile`]) and the bounded ring behind the trace-event and
//! span buffers.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::quote;

/// Buckets in a [`Histogram`]: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` (bucket 0 also holds zero).
pub const METRIC_HIST_BUCKETS: usize = 64;

/// The log₂ bucket of `v` among `n` buckets: bucket `i` holds
/// `[2^i, 2^(i+1))`, bucket 0 also holds zero, and the last bucket
/// everything above its range.
pub fn log2_bucket(v: u64, n: usize) -> usize {
    (63 - v.max(1).leading_zeros() as usize).min(n - 1)
}

/// Upper bound of the bucket holding the `q`-quantile sample of a log₂
/// histogram (`q` in `[0, 1]`; 0 when empty).
pub fn log2_quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return 1u64 << (i + 1).min(63);
        }
    }
    u64::MAX
}

/// A bounded FIFO of telemetry records: a push onto a full ring evicts
/// the oldest entry and counts it as dropped.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    pub(crate) items: VecDeque<T>,
    pub(crate) capacity: usize,
    pub(crate) dropped: u64,
}

impl<T> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.items.len() >= self.capacity {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Rebounds the ring, evicting (and counting) the oldest entries
    /// if it now holds more than `capacity`.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        let excess = self.items.len().saturating_sub(self.capacity);
        self.items.drain(..excess);
        self.dropped += excess as u64;
    }

    /// Drops every entry and zeroes the drop count.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.dropped = 0;
    }
}

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂ histogram handle. Cloning shares the underlying buckets.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<[AtomicU64; METRIC_HIST_BUCKETS]>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(std::array::from_fn(|_| AtomicU64::new(0))))
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        let bucket = log2_bucket(v, METRIC_HIST_BUCKETS);
        // Release: whoever reads this sample (Acquire below) also sees
        // every write this thread made before it, counter adds included.
        self.0[bucket].fetch_add(1, Ordering::Release);
    }

    /// A copy of the bucket counts.
    pub fn buckets(&self) -> Vec<u64> {
        self.0.iter().map(|b| b.load(Ordering::Acquire)).collect()
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.iter().map(|b| b.load(Ordering::Acquire)).sum()
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        log2_quantile(&self.buckets(), q)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: HashMap<String, Counter>,
    histograms: HashMap<String, Histogram>,
}

/// The registry: a named set of counters and histograms.
///
/// Cloning shares the same metric set (it is `Arc`-backed), so one
/// registry can be handed to every layer that wants to publish.
#[derive(Clone, Default)]
pub struct MetricsRegistry(Arc<Mutex<RegistryInner>>);

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.0.lock().unwrap();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, registering it (at zero) on
    /// first use. The returned handle bumps lock-free.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.0.lock().unwrap();
        if let Some(c) = inner.counters.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        inner.counters.insert(name.to_string(), c.clone());
        c
    }

    /// Returns the histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.0.lock().unwrap();
        if let Some(h) = inner.histograms.get(name) {
            return h.clone();
        }
        let h = Histogram::default();
        inner.histograms.insert(name.to_string(), h.clone());
        h
    }

    /// Charges one wire op's traffic to the `wire.<op>.{calls,errors,ns}`
    /// counters (`errors` only when there are any); a charge of no
    /// calls and no errors registers nothing.
    pub fn charge_wire(&self, op: &str, calls: u64, errors: u64, ns: u64) {
        if calls == 0 && errors == 0 {
            return;
        }
        self.counter(&format!("wire.{op}.calls")).add(calls);
        if errors > 0 {
            self.counter(&format!("wire.{op}.errors")).add(errors);
        }
        self.counter(&format!("wire.{op}.ns")).add(ns);
    }

    /// Drops every metric (names and values).
    pub fn clear(&self) {
        let mut inner = self.0.lock().unwrap();
        inner.counters.clear();
        inner.histograms.clear();
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.0.lock().unwrap();
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort();
        let mut histograms: Vec<(String, Vec<u64>)> = inner
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.buckets()))
            .collect();
        histograms.sort();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A frozen, name-sorted copy of a registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, log₂ buckets)` pairs, sorted by name.
    pub histograms: Vec<(String, Vec<u64>)>,
}

impl MetricsSnapshot {
    /// Looks up one counter's value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Renders the snapshot's metrics as JSON object members (no
    /// enclosing braces), for embedding in the shared
    /// `schema_version/name/config/metrics` envelope.
    pub fn to_json_members(&self) -> String {
        let mut parts: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        for (k, buckets) in &self.histograms {
            let last = buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
            let vals: Vec<String> = buckets[..last].iter().map(|n| n.to_string()).collect();
            parts.push(format!(
                "{}:[{}]",
                quote(&format!("{k}_hist_log2")),
                vals.join(",")
            ));
        }
        parts.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_share() {
        let m = MetricsRegistry::new();
        let a = m.counter("eval.values");
        let b = m.counter("eval.values");
        a.add(3);
        b.inc();
        assert_eq!(m.counter("eval.values").get(), 4);
        assert_eq!(m.snapshot().counter("eval.values"), Some(4));
        assert_eq!(m.snapshot().counter("nonesuch"), None);
    }

    #[test]
    fn histograms_bucket_by_log2_and_quantile() {
        let m = MetricsRegistry::new();
        let h = m.histogram("wire.ns");
        for v in [1, 1, 1, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.5), 2);
        assert!(h.quantile(0.99) >= 1024);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 3);
        assert_eq!(buckets[9], 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn log2_quantile_reads_any_bucket_slice() {
        // The quantile of a snapshot's buckets is the live histogram's.
        let m = MetricsRegistry::new();
        let h = m.histogram("h");
        for v in [1, 1, 1, 1000] {
            h.observe(v);
        }
        let snap = m.snapshot();
        let (_, buckets) = &snap.histograms[0];
        assert_eq!(log2_quantile(buckets, 0.5), h.quantile(0.5));
        assert_eq!(log2_quantile(buckets, 0.5), 2);
        assert_eq!(log2_quantile(buckets, 0.99), h.quantile(0.99));
        assert_eq!(log2_quantile(buckets, 0.99), 1024);
        // Empty, whether no buckets or all zero, reads 0.
        assert_eq!(log2_quantile(&[], 0.5), 0);
        assert_eq!(log2_quantile(&[0, 0], 0.99), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_clear_empties() {
        let m = MetricsRegistry::new();
        m.counter("b").inc();
        m.counter("a").inc();
        m.histogram("h").observe(5);
        let s = m.snapshot();
        assert_eq!(
            s.counters
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(s.histograms.len(), 1);
        let members = s.to_json_members();
        assert!(members.contains("\"a\":1"), "{members}");
        assert!(members.contains("\"h_hist_log2\":[0,0,1]"), "{members}");
        m.clear();
        assert!(m.snapshot().counters.is_empty());
    }

    #[test]
    fn clones_share_the_same_metric_set() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m.counter("x").inc();
        assert_eq!(m2.counter("x").get(), 1);
    }
}
