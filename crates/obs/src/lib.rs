//! # anker-obs — the observability substrate for AnKerDB
//!
//! The paper this workspace reproduces is, at heart, a cost breakdown —
//! snapshot creation by page rewiring vs. `fork`, COW tax on the write
//! path, commit latency under concurrent OLAP — and cost breakdowns need
//! distributions, not means. This crate is the measurement layer every
//! hot path reports into:
//!
//! * a **metric [`Registry`]** of lock-free sharded [`Counter`]s,
//!   [`Gauge`]s and log₂-bucket [`Histogram`]s. It is a value: every
//!   `AnkerDb` owns one and resolves its handles at boot, so databases
//!   in one process are measured side by side. [`global`] is the process
//!   default, filled lazily through `static` handles the [`counter!`] /
//!   [`gauge!`] / [`histogram!`] macros place at each call site;
//! * a **span/stage tracer** ([`trace`]): per-thread bounded ring
//!   journals of named [`Stage`]s with nanosecond timestamps, cheap
//!   enough to stay on in release builds (one TSC read per boundary,
//!   relaxed stores only), merged on demand into a chrome://tracing JSON
//!   timeline by [`trace_json`]. The journal is process-wide; the
//!   `<stage>_ns` histogram a span feeds belongs to the registry its
//!   stage was resolved in ([`Registry::stage`]);
//! * **exporters**: [`render_text`] (Prometheus text exposition) and
//!   [`render_json`], both also available on an engine-extended
//!   [`MetricsSnapshot`].
//!
//! Like `anker-lint`, the crate is hand-rolled with zero dependencies,
//! and it sits below every other workspace crate so `core`, `dura`,
//! `mvcc` and friends can all emit into one database's registry. The `obs-off`
//! feature compiles every hot-path operation to an empty inline body
//! while keeping the API intact — the overhead harness
//! (`repro obs --overhead`) prints ns/commit for whichever way the engine
//! was built; the delta between the two builds is the tracer's cost.
//!
//! ## Example
//!
//! ```
//! use anker_obs as obs;
//!
//! obs::counter!("doc_requests_total", "Requests served").inc();
//! obs::histogram!("doc_latency_ns", "Request latency").record(1_250);
//!
//! {
//!     // One span per stage, chained: the switch shares one clock read
//!     // between the stage it closes and the one it opens.
//!     let mut span = obs::Span::begin(obs::stage!("doc_parse"));
//!     // … work …
//!     span.switch(obs::stage!("doc_execute"));
//!     // … work; `?`, `return` or a panic here still record the stage …
//! } // the drop records `doc_execute` exactly once
//! let _g = obs::span!("doc_cleanup"); // a whole-scope span
//!
//! let snap = obs::snapshot();
//! assert!(snap.counter("doc_requests_total").is_some());
//! let text = obs::render_text();
//! assert!(text.contains("# TYPE doc_requests_total counter"));
//! ```

pub mod clock;
pub mod metric;
pub mod registry;
pub mod render;
pub mod trace;

pub use clock::{now_ns, timestamp};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS, SHARDS};
pub use registry::{global, snapshot, Metric, MetricValue, MetricsSnapshot, Registry};
pub use trace::{trace_json, Span, Stage};

/// Render the global registry in Prometheus text exposition format.
pub fn render_text() -> String {
    snapshot().render_text()
}

/// Render the global registry as one JSON object.
pub fn render_json() -> String {
    snapshot().render_json()
}

/// A `&'static Counter` registered once per name, cached per call site.
///
/// ```
/// anker_obs::counter!("lib_doc_example_total", "Example counter").add(2);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal, $help:literal) => {{
        static __OBS_HANDLE: $crate::registry::Handle<$crate::Counter> =
            $crate::registry::Handle::new($name, $help, $crate::Registry::counter);
        __OBS_HANDLE.get()
    }};
}

/// A `&'static Gauge` registered once per name, cached per call site.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $help:literal) => {{
        static __OBS_HANDLE: $crate::registry::Handle<$crate::Gauge> =
            $crate::registry::Handle::new($name, $help, $crate::Registry::gauge);
        __OBS_HANDLE.get()
    }};
}

/// A `&'static Histogram` registered once per name, cached per call site.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $help:literal) => {{
        static __OBS_HANDLE: $crate::registry::Handle<$crate::Histogram> =
            $crate::registry::Handle::new($name, $help, $crate::Registry::histogram);
        __OBS_HANDLE.get()
    }};
}

/// A `&'static Stage` of the [`global`] registry for the tracer's span
/// API. Every stage owns an auto-registered `<name>_ns` histogram fed on
/// each completed span.
#[macro_export]
macro_rules! stage {
    ($name:literal) => {{
        static __OBS_STAGE: ::std::sync::OnceLock<$crate::Stage> = ::std::sync::OnceLock::new();
        __OBS_STAGE.get_or_init(|| $crate::global().stage($name))
    }};
}

/// A [`Span`] of the [`global`] registry's stage `$name`, open from here
/// to the end of the enclosing scope (it ends on drop, including unwind).
/// Bind it (`let _g = obs::span!(…)`); multi-stage paths call
/// [`Span::switch`] on a bound span instead of opening a second one.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::Span::begin($crate::stage!($name))
    };
}
