//! Exporters: Prometheus text exposition and a JSON document, both
//! rendered from a [`MetricsSnapshot`] so the engine can fold the
//! ledgers kept outside obs in before serialisation.

use crate::metric::{HistogramSnapshot, BUCKETS};
use crate::registry::{MetricValue, MetricsSnapshot};

impl MetricsSnapshot {
    /// Prometheus text exposition format (version 0.0.4): `# HELP` /
    /// `# TYPE` headers, `_bucket{le="…"}` / `_sum` / `_count` series
    /// for histograms. Empty buckets are elided (log₂ buckets are
    /// cumulative-rendered, so elision loses nothing).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in self.iter() {
            let kind = match &m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            out.push_str(&format!("# TYPE {} {}\n", m.name, kind));
            match &m.value {
                MetricValue::Counter(v) => out.push_str(&format!("{} {v}\n", m.name)),
                MetricValue::Gauge(v) => out.push_str(&format!("{} {v}\n", m.name)),
                MetricValue::Histogram(h) => render_text_histogram(&mut out, &m.name, h),
            }
        }
        out
    }

    /// One JSON object: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, mean, p50, p95, p99,
    /// buckets: [[le, cumulative_count], …]}}}`.
    pub fn render_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for m in self.iter() {
            let name = json_escape(&m.name);
            match &m.value {
                MetricValue::Counter(v) => counters.push(format!("\"{name}\":{v}")),
                MetricValue::Gauge(v) => gauges.push(format!("\"{name}\":{v}")),
                MetricValue::Histogram(h) => {
                    let mut buckets = Vec::new();
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cum += c;
                        buckets.push(format!("[{},{cum}]", le_label(i)));
                    }
                    hists.push(format!(
                        "\"{name}\":{{\"count\":{},\"sum\":{},\"mean\":{:.1},\
                         \"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1},\"buckets\":[{}]}}",
                        h.count(),
                        h.sum,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                        buckets.join(",")
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

fn render_text_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        if i < BUCKETS - 1 {
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cum}\n",
                HistogramSnapshot::upper_bound(i)
            ));
        }
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

/// `le` label for JSON bucket pairs: the numeric bound, or `"+Inf"`.
fn le_label(i: usize) -> String {
    if i >= BUCKETS - 1 {
        "\"+Inf\"".to_string()
    } else {
        HistogramSnapshot::upper_bound(i).to_string()
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// metric names are identifiers, but help texts and thread names are
/// free-form.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;
    use crate::metric::Histogram;

    fn sample() -> MetricsSnapshot {
        let r = crate::Registry::new();
        r.counter("x_total", "an x").add(7);
        r.gauge("y_now", "a y").set(-3);
        r.snapshot()
    }

    #[test]
    fn text_format_counters_and_gauges() {
        let text = sample().render_text();
        assert!(text.contains("# HELP x_total an x\n"));
        assert!(text.contains("# TYPE x_total counter\n"));
        assert!(text.contains("x_total 7\n"));
        assert!(text.contains("# TYPE y_now gauge\n"));
        assert!(text.contains("y_now -3\n"));
    }

    #[test]
    fn text_format_histogram_is_cumulative() {
        let h = Histogram::new();
        h.record(1); // bucket 1, le 1
        h.record(3); // bucket 2, le 3
        h.record(3);
        let mut out = String::new();
        render_text_histogram(&mut out, "z_ns", &h.snapshot());
        assert!(out.contains("z_ns_bucket{le=\"1\"} 1\n"));
        assert!(out.contains("z_ns_bucket{le=\"3\"} 3\n"));
        assert!(out.contains("z_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(out.contains("z_ns_sum 7\n"));
        assert!(out.contains("z_ns_count 3\n"));
    }

    #[test]
    fn json_format_shape() {
        let json = sample().render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"x_total\":7"));
        assert!(json.contains("\"y_now\":-3"));
        assert!(json.ends_with("\"histograms\":{}}"));
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
