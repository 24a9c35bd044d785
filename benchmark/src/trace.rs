//! Harness-side spans for the traced pass.
//!
//! Every operation gets an id and a root span; each layer boundary the
//! harness can see from outside (`db.begin`, the transaction body,
//! `commit`, an OLAP query, a checkpoint call) is a child. Spans go into
//! a per-thread buffer allocated before the run — a full buffer drops
//! further spans and counts them — and are written at exit as a
//! chrome-tracing file with each span's self time (duration minus the
//! part its children cover).

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans one thread can hold; at ~40 bytes each this is 2.5 MiB per
/// client and a trace file `chrome://tracing` still opens.
pub const SPANS_PER_THREAD: usize = 1 << 16;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation id: spans of one operation share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the process-wide trace epoch.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    #[inline]
    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.0).as_nanos() as u64
    }

    pub fn elapsed(&self) -> std::time::Duration {
        self.0.elapsed()
    }
}

pub struct SpanBuf {
    pub thread: &'static str,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn new(thread: &'static str) -> SpanBuf {
        SpanBuf {
            thread,
            spans: Vec::with_capacity(SPANS_PER_THREAD),
            dropped: 0,
        }
    }

    /// Record a finished span; returns its index for use as a parent, or
    /// [`NO_PARENT`] when the buffer is full.
    #[inline]
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Record a root span with children that tile part of it: `cuts` are
    /// the boundaries `[t0, t1, .., tn]` and `names[i]` covers
    /// `cuts[i]..cuts[i + 1]`.
    pub fn push_op(&mut self, root: &'static str, op: u64, names: &[&'static str], cuts: &[u64]) {
        debug_assert_eq!(names.len() + 1, cuts.len());
        let parent = self.push(root, NO_PARENT, op, cuts[0], cuts[cuts.len() - 1]);
        if parent == NO_PARENT {
            return;
        }
        for (name, w) in names.iter().zip(cuts.windows(2)) {
            self.push(name, parent, op, w[0], w[1]);
        }
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Write the buffers as one chrome-tracing document (`ph: "X"` complete
/// events, microsecond timestamps, one `tid` per client thread).
pub fn write_chrome_file(path: &Path, bufs: &[SpanBuf]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_chrome(&mut w, bufs)?;
    w.flush()
}

pub fn write_chrome(w: &mut impl Write, bufs: &[SpanBuf]) -> std::io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    for (tid, buf) in bufs.iter().enumerate() {
        let meta = Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            (
                "args",
                Json::obj(vec![
                    ("name", Json::str(buf.thread)),
                    ("dropped_spans", Json::Num(buf.dropped as f64)),
                ]),
            ),
        ]);
        write!(w, "{}{}", if first { "" } else { ",\n" }, meta.render())?;
        first = false;
        let own = self_times(&buf.spans);
        for (s, own_ns) in buf.spans.iter().zip(own) {
            let ev = Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str("bench")),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj(vec![
                        ("op", Json::Num(s.op as f64)),
                        ("self_us", Json::Num(own_ns as f64 / 1e3)),
                    ]),
                ),
            ]);
            write!(w, ",\n{}", ev.render())?;
        }
    }
    writeln!(w, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut buf = SpanBuf::new("t");
        buf.push_op(
            "oltp",
            7,
            &["core.txn.begin", "tpch.oltp_body", "core.txn.commit"],
            &[100, 130, 400, 1_000],
        );
        // A root whose children leave a gap: 50 ns of its own.
        let root = buf.push("olap", NO_PARENT, 8, 2_000, 2_100);
        buf.push("core.snap.pin", root, 8, 2_000, 2_050);
        let own = self_times(&buf.spans);
        assert_eq!(own, vec![0, 30, 270, 600, 50, 50]);
        assert!(buf.spans[1..4].iter().all(|s| s.parent == 0 && s.op == 7));
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        let mut buf = SpanBuf::new("t");
        for i in 0..SPANS_PER_THREAD as u64 + 5 {
            buf.push("x", NO_PARENT, i, i, i + 1);
        }
        assert_eq!(buf.spans.len(), SPANS_PER_THREAD);
        assert_eq!(buf.dropped, 5);
        buf.push_op("oltp", 1, &["a"], &[0, 1]);
        assert_eq!(buf.dropped, 6, "a dropped root takes its children with it");
    }

    #[test]
    fn chrome_file_parses_and_carries_self_time() {
        let mut buf = SpanBuf::new("updater");
        buf.push_op("oltp", 1, &["core.txn.commit"], &[1_000, 3_500]);
        let mut out = Vec::new();
        write_chrome(&mut out, &[buf]).unwrap();
        let doc = Json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(2.5));
        let child_args = events[2].get("args").unwrap();
        assert_eq!(child_args.get("self_us").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("self_us")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
