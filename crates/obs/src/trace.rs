//! The span/stage tracer: a per-thread ring-buffer event journal with
//! named stages and nanosecond timestamps, cheap enough to stay on in
//! release builds.
//!
//! ## Cost model
//!
//! A completed span costs one clock read at each end (see
//! [`crate::clock`]) plus one histogram record and four relaxed stores
//! into the calling thread's ring — no locks, no allocation after the
//! thread's first span. [`span_switch`] closes one stage and opens the
//! next **sharing a single clock read**, which is what keeps a
//! five-stage commit pipeline at six clock reads total instead of ten.
//!
//! ## Journal shape
//!
//! Each traced thread owns a fixed ring of [`RING_DEFAULT`] slots
//! (override with `ANKER_OBS_RING`, rounded up to a power of two): the
//! journal keeps the most recent events and overwrites the oldest, so
//! memory is strictly bounded at `threads × capacity × 24 B` and an
//! always-on tracer can never grow without bound. [`trace_json`] merges
//! every thread's ring into one chrome://tracing "trace event" JSON
//! document (load it at `chrome://tracing` or in Perfetto).
//!
//! Slot reads during a dump are validated with a per-slot sequence tag
//! (written last, with `Release`): a slot overwritten since the dump
//! started fails the tag check and is skipped. A writer racing the dump
//! in the narrow window after its field stores but before its tag store
//! can still yield one torn event; dumps are diagnostic output, so the
//! trade — zero fences on the hot path — is taken deliberately, and
//! implausible events (duration over an hour) are dropped at dump time.
//!
//! ## API discipline
//!
//! The manual token API ([`span_begin`] → [`span_switch`]* →
//! [`span_end`]) is for multi-stage hot paths; the [`crate::span!`]
//! guard is for coarse single-stage scopes. Tokens are linear: the
//! `span-leak` pass in anker-lint checks that every token reaches
//! `span_end`/`span_switch` on every CFG exit path, so a leaked span
//! cannot silently skew stage timings.

#[cfg(not(feature = "obs-off"))]
use crate::clock;
use crate::metric::Histogram;
use crate::registry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default per-thread ring capacity (slots, each 24 bytes).
pub const RING_DEFAULT: usize = 1024;

/// Shared help text of every span-derived `<stage>_ns` histogram.
const STAGE_HELP: &str =
    "Nanoseconds per completed span of this stage (auto-registered by the span tracer)";
/// Durations are packed into 48 bits next to the stage id; 2^48 ns is
/// ~78 hours, far beyond any plausible span.
const DUR_MASK: u64 = (1 << 48) - 1;
/// Dump-time sanity bound for a single span: one hour.
const DUR_SANE_NS: u64 = 3_600_000_000_000;

/// A named stage resolved in one [`Registry`] ([`Registry::stage`], or
/// [`crate::stage!`] for the global one): its journal id — interned by
/// name, process-wide — and the registry's `<name>_ns` histogram, fed
/// on each completed span.
#[cfg_attr(feature = "obs-off", allow(dead_code))]
pub struct Stage {
    name: &'static str,
    id: u16,
    hist: Arc<Histogram>,
}

impl Stage {
    /// The stage name as it appears in trace dumps.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Registry {
    /// Resolve the stage `name`, registering its `<name>_ns` histogram
    /// here and its name in the process-wide journal's stage table.
    pub fn stage(&self, name: &'static str) -> Stage {
        Stage {
            name,
            id: intern_stage(name),
            hist: self.histogram(&format!("{name}_ns"), STAGE_HELP),
        }
    }
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Stage").field(&self.name).finish()
    }
}

fn stage_names() -> &'static Mutex<Vec<&'static str>> {
    static STAGES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    STAGES.get_or_init(|| Mutex::new(Vec::new()))
}

fn intern_stage(name: &'static str) -> u16 {
    let mut names = stage_names().lock().expect("stage table poisoned");
    if let Some(i) = names.iter().position(|n| *n == name) {
        return i as u16;
    }
    assert!(names.len() < u16::MAX as usize, "stage table overflow");
    names.push(name);
    (names.len() - 1) as u16
}

/// One slot: a sequence tag for dump validation, the start timestamp,
/// and the packed stage id + duration.
struct Slot {
    seq: AtomicU64,
    start: AtomicU64,
    meta: AtomicU64,
}

/// One thread's event journal.
struct TraceBuf {
    /// Dense thread ordinal (the `tid` in trace dumps).
    ordinal: u64,
    name: String,
    /// Total events ever written; the ring index is `head & mask`.
    head: AtomicU64,
    mask: usize,
    slots: Box<[Slot]>,
}

impl TraceBuf {
    #[cfg(not(feature = "obs-off"))]
    fn write(&self, stage: u16, start: u64, dur: u64) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) & self.mask];
        slot.start.store(start, Ordering::Relaxed);
        slot.meta
            .store((stage as u64) << 48 | dur.min(DUR_MASK), Ordering::Relaxed);
        // ORDERING: Release publishes the two field stores above before
        // the tag becomes visible; a dump's Acquire load of the tag
        // therefore sees this event's fields, not a predecessor's.
        slot.seq.store(seq + 1, Ordering::Release);
        // Single-writer ring: only this thread advances its own head.
        self.head.store(seq + 1, Ordering::Release);
    }
}

fn trace_bufs() -> &'static Mutex<Vec<Arc<TraceBuf>>> {
    static BUFS: OnceLock<Mutex<Vec<Arc<TraceBuf>>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

#[cfg(not(feature = "obs-off"))]
fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("ANKER_OBS_RING")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|n| n.clamp(16, 1 << 20).next_power_of_two())
            .unwrap_or(RING_DEFAULT)
    })
}

#[cfg(not(feature = "obs-off"))]
fn register_thread() -> Arc<TraceBuf> {
    let cap = ring_capacity();
    let mut slots = Vec::with_capacity(cap);
    for _ in 0..cap {
        slots.push(Slot {
            seq: AtomicU64::new(0),
            start: AtomicU64::new(0),
            meta: AtomicU64::new(0),
        });
    }
    let mut bufs = trace_bufs().lock().expect("trace registry poisoned");
    let ordinal = bufs.len() as u64;
    let buf = Arc::new(TraceBuf {
        ordinal,
        name: std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{ordinal}")),
        head: AtomicU64::new(0),
        mask: cap - 1,
        slots: slots.into_boxed_slice(),
    });
    bufs.push(Arc::clone(&buf));
    buf
}

#[cfg(not(feature = "obs-off"))]
fn with_thread_buf(f: impl FnOnce(&TraceBuf)) {
    thread_local! {
        static BUF: Arc<TraceBuf> = register_thread();
    }
    // During thread teardown the TLS slot may already be gone; losing
    // the final events of a dying thread is fine.
    let _ = BUF.try_with(|b| f(b));
}

/// An open span: the stage being timed and its start timestamp. Linear —
/// must be passed to [`span_end`] or [`span_switch`] on every path out
/// of the enclosing function (enforced by anker-lint's `span-leak`
/// pass). Dropping a token loses the span silently.
#[must_use = "close the span with obs::span_end / obs::span_switch"]
pub struct SpanToken<'a> {
    stage: &'a Stage,
    start: u64,
}

impl SpanToken<'_> {
    /// Start timestamp of the open span (0 under `obs-off`,
    /// `u64::MAX` for a disabled [`span_begin_sampled`] token). Lets a
    /// pipeline derive its end-to-end duration from the first token and
    /// the end timestamp [`span_end`] returns, with no extra clock read —
    /// only meaningful for unsampled chains; sampled pipelines should
    /// take their own [`crate::timestamp`] instead.
    pub fn start_ns(&self) -> u64 {
        self.start
    }
}

impl std::fmt::Debug for SpanToken<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SpanToken").field(&self.stage.name).finish()
    }
}

/// Sentinel start value marking a token whose whole span chain is
/// disabled (not sampled this time): every later [`span_switch`] /
/// [`span_end`] on it is a branch and nothing else.
#[cfg(not(feature = "obs-off"))]
const DISABLED: u64 = u64::MAX;

/// Open a span for `stage` for **one in `2^shift`** calls on this thread
/// (the rest return a disabled token that flows through
/// [`span_switch`]/[`span_end`] as pure branches). For span chains on
/// paths hot enough that even one clock read per stage is real money —
/// the sub-microsecond commit pipeline — sampling keeps the stage
/// histograms statistically faithful at a fraction of the cost; pair it
/// with an unsampled counter + total-duration histogram when exact
/// counts matter. Low-frequency spans should use [`span_begin`].
#[inline]
pub fn span_begin_sampled(stage: &Stage, shift: u32) -> SpanToken<'_> {
    #[cfg(not(feature = "obs-off"))]
    {
        use std::cell::Cell;
        thread_local! {
            static TICK: Cell<u64> = const { Cell::new(0) };
        }
        // Thread teardown: treat as not sampled.
        let sampled = TICK
            .try_with(|t| {
                let v = t.get().wrapping_add(1);
                t.set(v);
                v & ((1u64 << shift) - 1) == 0
            })
            .unwrap_or(false);
        if sampled {
            span_begin(stage)
        } else {
            SpanToken {
                stage,
                start: DISABLED,
            }
        }
    }
    #[cfg(feature = "obs-off")]
    {
        let _ = shift;
        span_begin(stage)
    }
}

/// Open a span for `stage` now.
#[inline]
pub fn span_begin(stage: &Stage) -> SpanToken<'_> {
    #[cfg(not(feature = "obs-off"))]
    let start = clock::now_ns();
    #[cfg(feature = "obs-off")]
    let start = 0;
    SpanToken { stage, start }
}

/// Close a span: records the event in the journal and the stage's
/// `<name>_ns` histogram. Returns the end timestamp so callers can
/// derive whole-pipeline durations without another clock read (0 for a
/// disabled token and under `obs-off`).
#[inline]
pub fn span_end(tok: SpanToken<'_>) -> u64 {
    #[cfg(not(feature = "obs-off"))]
    {
        if tok.start == DISABLED {
            return 0;
        }
        let end = clock::now_ns();
        finish(tok, end);
        end
    }
    #[cfg(feature = "obs-off")]
    {
        let _ = tok;
        0
    }
}

/// Close `tok` and open a span for `next` with one shared clock read, so
/// adjacent pipeline stages tile the timeline with no gap and no double
/// timestamping.
#[inline]
pub fn span_switch<'a>(tok: SpanToken<'_>, next: &'a Stage) -> SpanToken<'a> {
    #[cfg(not(feature = "obs-off"))]
    {
        if tok.start == DISABLED {
            return SpanToken {
                stage: next,
                start: DISABLED,
            };
        }
        let now = clock::now_ns();
        finish(tok, now);
        SpanToken {
            stage: next,
            start: now,
        }
    }
    #[cfg(feature = "obs-off")]
    {
        let _ = tok;
        span_begin(next)
    }
}

#[cfg(not(feature = "obs-off"))]
#[inline]
fn finish(tok: SpanToken<'_>, end: u64) {
    let dur = end.saturating_sub(tok.start);
    tok.stage.hist.record(dur);
    with_thread_buf(|b| b.write(tok.stage.id, tok.start, dur));
}

/// RAII wrapper over the token API for coarse scopes; see
/// [`crate::span!`]. Ends the span on drop (including unwind), or
/// explicitly via [`finish`](Self::finish) for the end timestamp.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tok: Option<SpanToken<'a>>,
}

impl<'a> SpanGuard<'a> {
    pub fn new(stage: &'a Stage) -> Self {
        SpanGuard {
            tok: Some(span_begin(stage)),
        }
    }

    /// End the span now, returning the end timestamp.
    pub fn finish(mut self) -> u64 {
        match self.tok.take() {
            Some(tok) => span_end(tok),
            None => 0,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tok) = self.tok.take() {
            let _ = span_end(tok);
        }
    }
}

/// Merge every thread's ring into one chrome://tracing JSON document
/// ("trace event format": complete `X` events with microsecond `ts` /
/// `dur`, plus one thread-name metadata event per traced thread).
pub fn trace_json() -> String {
    let names: Vec<&'static str> = stage_names().lock().expect("stage table poisoned").clone();
    let bufs: Vec<Arc<TraceBuf>> = trace_bufs()
        .lock()
        .expect("trace registry poisoned")
        .clone();
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut events: Vec<(u64, u64, u64, u16)> = Vec::new(); // (start, dur, tid, stage)
    for buf in &bufs {
        // ORDERING: Acquire on head pairs with the writer's Release so
        // every slot the count covers has its tag store visible.
        let head = buf.head.load(Ordering::Acquire);
        let cap = buf.mask + 1;
        let window = head.min(cap as u64);
        let overwritten = head - window;
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\",\"overwritten\":{}}}}}",
            buf.ordinal,
            crate::render::json_escape(&buf.name),
            overwritten
        ));
        for seq in (head - window)..head {
            let slot = &buf.slots[(seq as usize) & buf.mask];
            // ORDERING: Acquire pairs with the writer's Release tag
            // store — a matching tag means the field stores below it
            // happened-before our loads.
            if slot.seq.load(Ordering::Acquire) != seq + 1 {
                continue; // overwritten (or mid-write) since `head` was read
            }
            let start = slot.start.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq + 1 {
                continue;
            }
            let dur = meta & DUR_MASK;
            if dur > DUR_SANE_NS {
                continue;
            }
            events.push((start, dur, buf.ordinal, (meta >> 48) as u16));
        }
    }
    events.sort_unstable();
    for (start, dur, tid, stage) in events {
        let name = names.get(stage as usize).copied().unwrap_or("?");
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\
             \"ts\":{}.{:03},\"dur\":{}.{:03}}}",
            start / 1000,
            start % 1000,
            dur / 1000,
            dur % 1000
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    #[test]
    fn spans_feed_histogram_and_journal() {
        let stage = crate::stage!("obs_test_stage_a");
        let tok = span_begin(stage);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let end = span_end(tok);
        assert!(end > 0);
        let snap = crate::snapshot();
        let h = snap
            .histogram("obs_test_stage_a_ns")
            .expect("auto-registered");
        assert!(h.count() >= 1);
        assert!(h.sum >= 500_000, "1 ms sleep recorded {} ns", h.sum);
        let json = trace_json();
        assert!(json.contains("\"obs_test_stage_a\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn switch_tiles_adjacent_stages() {
        let a = crate::stage!("obs_test_stage_b1");
        let b = crate::stage!("obs_test_stage_b2");
        let tok = span_begin(a);
        let tok = span_switch(tok, b);
        let _ = span_end(tok);
        let snap = crate::snapshot();
        assert_eq!(snap.histogram("obs_test_stage_b1_ns").unwrap().count(), 1);
        assert_eq!(snap.histogram("obs_test_stage_b2_ns").unwrap().count(), 1);
    }

    #[test]
    fn guard_ends_on_drop_and_on_unwind() {
        {
            let _g = crate::span!("obs_test_stage_c");
        }
        let res = std::panic::catch_unwind(|| {
            let _g = crate::span!("obs_test_stage_c");
            panic!("boom");
        });
        assert!(res.is_err());
        let snap = crate::snapshot();
        assert_eq!(snap.histogram("obs_test_stage_c_ns").unwrap().count(), 2);
    }

    #[test]
    fn sampled_spans_record_exactly_one_in_two_pow_shift() {
        // Run on a dedicated thread so this test owns the TLS tick
        // counter from zero and the arithmetic below is exact.
        std::thread::spawn(|| {
            let a = crate::stage!("obs_test_stage_e1");
            let b = crate::stage!("obs_test_stage_e2");
            for _ in 0..64 {
                let tok = span_begin_sampled(a, 4);
                // Disabled tokens must flow through a switch untouched.
                let tok = span_switch(tok, b);
                let _ = span_end(tok);
            }
        })
        .join()
        .unwrap();
        let snap = crate::snapshot();
        // Tick 0 samples (0 & mask == 0 after wrapping increment lands
        // on 16, 32, 48, 64): 64 calls at shift 4 → exactly 4 samples,
        // propagated through the whole chain.
        assert_eq!(snap.histogram("obs_test_stage_e1_ns").unwrap().count(), 4);
        assert_eq!(snap.histogram("obs_test_stage_e2_ns").unwrap().count(), 4);
    }

    #[test]
    fn disabled_token_span_end_returns_zero() {
        std::thread::spawn(|| {
            let a = crate::stage!("obs_test_stage_f");
            // Tick 1 of 2^30 — never sampled on this fresh thread.
            let tok = span_begin_sampled(a, 30);
            assert_eq!(span_end(tok), 0);
        })
        .join()
        .unwrap();
        let snap = crate::snapshot();
        assert_eq!(snap.histogram("obs_test_stage_f_ns").unwrap().count(), 0);
    }

    #[test]
    fn ring_overwrites_but_never_grows() {
        let stage = crate::stage!("obs_test_stage_d");
        for _ in 0..3000 {
            let tok = span_begin(stage);
            let _ = span_end(tok);
        }
        // The journal stays bounded; the dump stays parseable and the
        // histogram saw every event even though the ring wrapped.
        let snap = crate::snapshot();
        assert!(snap.histogram("obs_test_stage_d_ns").unwrap().count() >= 3000);
        let json = trace_json();
        assert!(json.ends_with("]}"));
    }
}
