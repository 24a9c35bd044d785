//! The metric [`Registry`] and its point-in-time [`MetricsSnapshot`].
//!
//! A registry is a plain value: a name-ordered table of shared
//! [`Counter`]s, [`Gauge`]s and [`Histogram`]s. Every `AnkerDb` owns one
//! and resolves the handles its layers bump **once, at boot**
//! ([`Registry::counter`] and friends return an `Arc` to the metric
//! itself), so an engine event is one relaxed atomic on a pointer the
//! layer already holds — no name lookup, hash or lock per event — and
//! two databases in one process never see each other's counts.
//!
//! [`global`] is the process default behind the
//! [`crate::counter!`]/[`crate::gauge!`]/[`crate::histogram!`] macros
//! and behind every layer constructed standalone (`Wal::open`,
//! `VersionedColumn::new`): the macros drop a `static` [`Handle`] at the
//! call site that registers on first use and is a single atomic load
//! afterwards. Within one registry names are the identity — two
//! registrations of one name share one instance, first help text wins.
//!
//! [`Registry::snapshot`] copies a registry into a [`MetricsSnapshot`]:
//! an owned, name-ordered list of name/help/value triples the engine can
//! extend with the two ledgers that live outside obs (`AnkerDb::metrics`
//! folds the vmem crate's `OsStats`/`KernelStats` in as `os_*`/`kernel_*`
//! counters) before rendering.

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One set of named metrics. See the module docs.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, (&'static str, Slot)>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register-or-lookup under the registry lock. `wrap` files a new
    /// metric; `pick` projects the slot back out (panics on a kind clash,
    /// which is a programming error worth failing loudly on).
    fn intern<T: Default>(
        &self,
        name: &str,
        help: &'static str,
        wrap: fn(Arc<T>) -> Slot,
        pick: fn(&Slot) -> Option<&Arc<T>>,
    ) -> Arc<T> {
        let mut metrics = self.metrics.lock().expect("metric registry poisoned");
        if !metrics.contains_key(name) {
            metrics.insert(name.to_string(), (help, wrap(Arc::default())));
        }
        pick(&metrics[name].1)
            .unwrap_or_else(|| panic!("metric `{name}` registered twice with different kinds"))
            .clone()
    }

    /// The counter registered as `name` (registering it on first call).
    pub fn counter(&self, name: &str, help: &'static str) -> Arc<Counter> {
        self.intern(name, help, Slot::Counter, |s| match s {
            Slot::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// The gauge registered as `name` (registering it on first call).
    pub fn gauge(&self, name: &str, help: &'static str) -> Arc<Gauge> {
        self.intern(name, help, Slot::Gauge, |s| match s {
            Slot::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// The histogram registered as `name` (registering it on first call).
    pub fn histogram(&self, name: &str, help: &'static str) -> Arc<Histogram> {
        self.intern(name, help, Slot::Histogram, |s| match s {
            Slot::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// Every metric registered so far, sorted by name, with
    /// point-in-time values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metric registry poisoned");
        MetricsSnapshot {
            metrics: metrics
                .iter()
                .map(|(name, (help, slot))| Metric {
                    name: name.clone(),
                    help: help.to_string(),
                    value: match slot {
                        Slot::Counter(c) => MetricValue::Counter(c.get()),
                        Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                        Slot::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    },
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map_or(0, |m| m.len());
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

/// The process-default registry: what the call-site macros, the free
/// [`snapshot`] / `render_*` functions and standalone layers use.
pub fn global() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(Registry::new)
}

/// Snapshot the [`global`] registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Call-site handle into the [`global`] registry; see
/// [`crate::counter!`] / [`crate::gauge!`] / [`crate::histogram!`].
pub struct Handle<T> {
    name: &'static str,
    help: &'static str,
    register: fn(&Registry, &str, &'static str) -> Arc<T>,
    cell: OnceLock<Arc<T>>,
}

impl<T> Handle<T> {
    /// `register` is [`Registry::counter`], [`Registry::gauge`] or
    /// [`Registry::histogram`].
    pub const fn new(
        name: &'static str,
        help: &'static str,
        register: fn(&Registry, &str, &'static str) -> Arc<T>,
    ) -> Self {
        Handle {
            name,
            help,
            register,
            cell: OnceLock::new(),
        }
    }

    /// The registered metric (registering on first call).
    #[inline]
    pub fn get(&self) -> &T {
        self.cell
            .get_or_init(|| (self.register)(global(), self.name, self.help))
    }
}

impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Handle").field(&self.name).finish()
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<HistogramSnapshot>),
}

/// One metric inside a [`MetricsSnapshot`].
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub help: String,
    pub value: MetricValue,
}

/// An owned, name-ordered copy of every registered metric, plus any
/// values the caller folded in. Render with
/// [`render_text`](Self::render_text) / [`render_json`](Self::render_json).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// The metrics, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Insert-or-replace a counter value (used to absorb a ledger kept
    /// outside obs into the unified surface).
    pub fn set_counter(&mut self, name: &str, help: &str, v: u64) {
        self.set(name, help, MetricValue::Counter(v));
    }

    /// Insert-or-replace a gauge value (the gauge twin of
    /// [`set_counter`](Self::set_counter)).
    pub fn set_gauge(&mut self, name: &str, help: &str, v: i64) {
        self.set(name, help, MetricValue::Gauge(v));
    }

    fn set(&mut self, name: &str, help: &str, value: MetricValue) {
        match self.metrics.binary_search_by(|m| m.name.as_str().cmp(name)) {
            Ok(i) => self.metrics[i].value = value,
            Err(i) => self.metrics.insert(
                i,
                Metric {
                    name: name.to_string(),
                    help: help.to_string(),
                    value,
                },
            ),
        }
    }

    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.find(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.find(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.find(name)? {
            MetricValue::Histogram(h) => Some(h.as_ref()),
            _ => None,
        }
    }

    fn find(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|m| m.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_instance_across_call_sites() {
        let a = crate::counter!("obs_test_dedup_total", "test counter");
        let b = crate::counter!("obs_test_dedup_total", "test counter");
        assert!(std::ptr::eq(a, b));
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn snapshot_sees_registered_values() {
        crate::counter!("obs_test_snap_total", "test counter").add(3);
        crate::gauge!("obs_test_snap_gauge", "test gauge").set(-2);
        crate::histogram!("obs_test_snap_ns", "test histogram").record(100);
        let s = snapshot();
        assert!(s.counter("obs_test_snap_total").unwrap() >= 3);
        assert_eq!(s.gauge("obs_test_snap_gauge"), Some(-2));
        assert!(s.histogram("obs_test_snap_ns").unwrap().count() >= 1);
        // Sorted by name.
        let names: Vec<&str> = s.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn registries_do_not_share_metrics() {
        let (a, b) = (Registry::new(), Registry::new());
        a.counter("x_total", "x").add(2);
        assert_eq!(b.counter("x_total", "x").get(), 0);
        assert_eq!(a.snapshot().counter("x_total"), Some(2));
        assert_eq!(a.counter("x_total", "ignored: first help wins").get(), 2);
        assert_eq!(a.snapshot().iter().next().unwrap().help, "x");
        assert!(snapshot().counter("x_total").is_none());
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("clash", "a counter");
        r.gauge("clash", "not a counter");
    }

    #[test]
    fn upsert_replaces_and_inserts_in_order() {
        let mut s = MetricsSnapshot::default();
        s.set_counter("b_total", "b", 1);
        s.set_counter("a_total", "a", 2);
        s.set_counter("b_total", "b", 9);
        assert_eq!(s.counter("a_total"), Some(2));
        assert_eq!(s.counter("b_total"), Some(9));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().next().unwrap().name, "a_total");
    }
}
