//! The span/stage tracer: a per-thread ring-buffer event journal with
//! named stages and nanosecond timestamps, cheap enough to stay on in
//! release builds.
//!
//! ## Cost model
//!
//! A completed span costs one clock read at each end (see
//! [`crate::clock`]) plus one histogram record and four relaxed stores
//! into the calling thread's ring — no locks, no allocation after the
//! thread's first span. [`Span::switch`] closes one stage and opens the
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
//! There is one span type, [`Span`], and it ends itself: dropping it
//! records the open stage exactly once, so a scope left by `?`, an early
//! `return` or a panic still reports its time, and no path can leak a
//! span. Multi-stage hot paths chain stages with [`Span::switch`] (and a
//! whole-chain histogram via [`Span::with_total`]); coarse scopes use
//! the [`crate::span!`] shorthand for [`Span::begin`].

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

/// An open span: the stage being timed, its start timestamp and, for a
/// chain opened with [`with_total`](Self::with_total), the histogram fed
/// with the whole chain's duration. It ends itself: [`Drop`] records the
/// open stage exactly once — on a normal exit, an early `return`, a `?`
/// or an unwind — so no path out of a scope can lose it. [`end`](Self::end)
/// closes it early and returns the end timestamp.
#[must_use = "a span records when dropped; bind it for the scope to time"]
#[cfg_attr(feature = "obs-off", allow(dead_code))]
pub struct Span<'a> {
    stage: &'a Stage,
    start: u64,
    /// The chain-total histogram and the chain's first start timestamp.
    total: Option<(&'a Histogram, u64)>,
}

/// Sentinel start value marking a span whose whole chain is disabled
/// (not sampled this time, or already ended): every later
/// [`Span::switch`] / [`Span::end`] / drop on it is a branch and nothing
/// else.
#[cfg(not(feature = "obs-off"))]
const DISABLED: u64 = u64::MAX;

impl<'a> Span<'a> {
    /// Open a span for `stage` now.
    #[inline]
    pub fn begin(stage: &'a Stage) -> Self {
        #[cfg(not(feature = "obs-off"))]
        let start = clock::now_ns();
        #[cfg(feature = "obs-off")]
        let start = 0;
        Span {
            stage,
            start,
            total: None,
        }
    }

    /// Open a span for `stage` for **one in `2^shift`** calls on this
    /// thread; the rest return a disabled span that flows through
    /// [`switch`](Self::switch) and drop as pure branches. For span
    /// chains on paths hot enough that even one clock read per stage is
    /// real money — the sub-microsecond commit pipeline — sampling keeps
    /// the stage histograms statistically faithful at a fraction of the
    /// cost; pair it with an unsampled counter when exact counts matter.
    /// Low-frequency spans should use [`begin`](Self::begin).
    #[inline]
    pub fn begin_sampled(stage: &'a Stage, shift: u32) -> Self {
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
                Span::begin(stage)
            } else {
                Span {
                    stage,
                    start: DISABLED,
                    total: None,
                }
            }
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = shift;
            Span::begin(stage)
        }
    }

    /// Also record the chain's end-to-end duration — from this span's
    /// start to the end of whichever stage is open when the span ends —
    /// in `total`. A disabled chain records no total either, so a
    /// sampled pipeline's total and first-stage histograms count alike.
    #[inline]
    pub fn with_total(self, total: &'a Histogram) -> Self {
        #[cfg(not(feature = "obs-off"))]
        {
            let mut s = self;
            s.total = Some((total, s.start));
            s
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = total;
            self
        }
    }

    /// Close the open stage and open `next` with one shared clock read,
    /// so adjacent pipeline stages tile the timeline with no gap and no
    /// double timestamping.
    #[inline]
    pub fn switch(&mut self, next: &'a Stage) {
        #[cfg(not(feature = "obs-off"))]
        {
            if self.start != DISABLED {
                let now = clock::now_ns();
                self.record(now);
                self.start = now;
            }
        }
        self.stage = next;
    }

    /// End the span now, returning the end timestamp (0 for a disabled
    /// span and under `obs-off`).
    #[inline]
    pub fn end(mut self) -> u64 {
        self.close()
    }

    /// Record the open stage (and the chain total) once and disable the
    /// span, so the drop that follows records nothing.
    #[inline]
    fn close(&mut self) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        {
            if self.start == DISABLED {
                return 0;
            }
            let end = clock::now_ns();
            self.record(end);
            if let Some((total, t0)) = self.total {
                total.record(end.saturating_sub(t0));
            }
            self.start = DISABLED;
            end
        }
        #[cfg(feature = "obs-off")]
        {
            0
        }
    }

    #[cfg(not(feature = "obs-off"))]
    #[inline]
    fn record(&self, end: u64) {
        let dur = end.saturating_sub(self.start);
        self.stage.hist.record(dur);
        with_thread_buf(|b| b.write(self.stage.id, self.start, dur));
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Span").field(&self.stage.name).finish()
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

    /// Journal events of `stage` across every thread's ring.
    fn journal_events(stage: &str) -> usize {
        trace_json()
            .matches(&format!("\"name\":\"{stage}\",\"ts\""))
            .count()
    }

    #[test]
    fn spans_feed_histogram_and_journal() {
        let stage = crate::stage!("obs_test_stage_a");
        let span = Span::begin(stage);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let end = span.end();
        assert!(end > 0);
        let snap = crate::snapshot();
        let h = snap
            .histogram("obs_test_stage_a_ns")
            .expect("auto-registered");
        assert_eq!(h.count(), 1, "end() and the drop after it record once");
        assert!(h.sum >= 500_000, "1 ms sleep recorded {} ns", h.sum);
        let json = trace_json();
        assert!(json.contains("\"obs_test_stage_a\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn span_left_open_records_once_on_every_exit() {
        fn early_return(stage: &Stage) -> u32 {
            let _span = Span::begin(stage);
            if stage.name().ends_with("g1") {
                return 1;
            }
            2
        }
        fn fails() -> Result<(), ()> {
            Err(())
        }
        fn question_mark(stage: &Stage) -> Result<(), ()> {
            let _span = Span::begin(stage);
            fails()?;
            Ok(())
        }
        assert_eq!(early_return(crate::stage!("obs_test_stage_g1")), 1);
        assert!(question_mark(crate::stage!("obs_test_stage_g2")).is_err());
        let res = std::panic::catch_unwind(|| {
            let _span = Span::begin(crate::stage!("obs_test_stage_g3"));
            panic!("boom");
        });
        assert!(res.is_err());
        let snap = crate::snapshot();
        for name in [
            "obs_test_stage_g1",
            "obs_test_stage_g2",
            "obs_test_stage_g3",
        ] {
            let h = snap.histogram(&format!("{name}_ns")).unwrap();
            assert_eq!(h.count(), 1, "{name}");
            assert_eq!(journal_events(name), 1, "{name}");
        }
    }

    #[test]
    fn switch_tiles_adjacent_stages() {
        let a = crate::stage!("obs_test_stage_b1");
        let b = crate::stage!("obs_test_stage_b2");
        let total = crate::histogram!("obs_test_chain_b_ns", "Test chain total");
        {
            let mut span = Span::begin(a).with_total(total);
            span.switch(b);
            // Only `b` is open now: the drop must not record `a` again.
        }
        let snap = crate::snapshot();
        let ha = snap.histogram("obs_test_stage_b1_ns").unwrap();
        let hb = snap.histogram("obs_test_stage_b2_ns").unwrap();
        let ht = snap.histogram("obs_test_chain_b_ns").unwrap();
        assert_eq!((ha.count(), hb.count(), ht.count()), (1, 1, 1));
        assert_eq!(journal_events("obs_test_stage_b1"), 1);
        assert_eq!(journal_events("obs_test_stage_b2"), 1);
        // One shared clock read per boundary: the stages tile the total.
        assert_eq!(ha.sum + hb.sum, ht.sum);
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
            let total = crate::histogram!("obs_test_chain_e_ns", "Test chain total");
            for _ in 0..64 {
                let mut span = Span::begin_sampled(a, 4).with_total(total);
                // Disabled spans must flow through a switch untouched.
                span.switch(b);
            }
        })
        .join()
        .unwrap();
        let snap = crate::snapshot();
        // Tick 0 samples (0 & mask == 0 after wrapping increment lands
        // on 16, 32, 48, 64): 64 calls at shift 4 → exactly 4 samples,
        // propagated through the whole chain and its total.
        assert_eq!(snap.histogram("obs_test_stage_e1_ns").unwrap().count(), 4);
        assert_eq!(snap.histogram("obs_test_stage_e2_ns").unwrap().count(), 4);
        assert_eq!(snap.histogram("obs_test_chain_e_ns").unwrap().count(), 4);
    }

    #[test]
    fn disabled_token_span_end_returns_zero() {
        std::thread::spawn(|| {
            // Ticks 1 and 2 of 2^30 — never sampled on this fresh thread.
            let span = Span::begin_sampled(crate::stage!("obs_test_stage_f"), 30);
            assert_eq!(span.end(), 0);
            let total = crate::histogram!("obs_test_chain_f_ns", "Test chain total");
            let mut span =
                Span::begin_sampled(crate::stage!("obs_test_stage_f1"), 30).with_total(total);
            span.switch(crate::stage!("obs_test_stage_f2"));
            drop(span);
        })
        .join()
        .unwrap();
        let snap = crate::snapshot();
        for name in ["obs_test_stage_f", "obs_test_stage_f1", "obs_test_stage_f2"] {
            let h = snap.histogram(&format!("{name}_ns")).unwrap();
            assert_eq!(h.count(), 0, "{name}");
            assert_eq!(journal_events(name), 0, "{name}");
        }
        assert_eq!(snap.histogram("obs_test_chain_f_ns").unwrap().count(), 0);
    }

    #[test]
    fn ring_overwrites_but_never_grows() {
        let stage = crate::stage!("obs_test_stage_d");
        for _ in 0..3000 {
            drop(Span::begin(stage));
        }
        // The journal stays bounded; the dump stays parseable and the
        // histogram saw every event even though the ring wrapped.
        let snap = crate::snapshot();
        assert!(snap.histogram("obs_test_stage_d_ns").unwrap().count() >= 3000);
        let json = trace_json();
        assert!(json.ends_with("]}"));
    }
}
