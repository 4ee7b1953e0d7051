//! Exposition: the Prometheus text format, and the plain-text report a
//! drained run prints.
//!
//! Both renderings are pure functions of a [`Registry`] snapshot — the hot
//! path never sees them. [`to_prometheus`] follows the text exposition
//! format version 0.0.4 (`# HELP` / `# TYPE` headers, cumulative
//! `_bucket{le=...}` histogram series ending in `+Inf`, `_sum`/`_count`);
//! [`crate::promcheck`] validates it structurally, so a format regression
//! is a test failure rather than a scrape failure in some future
//! deployment. [`to_text`] prints the same counters and gauges one family
//! per line, so every number a report shows is the one the scrape serves.

use std::fmt::Write;

use crate::registry::{Histogram, MetricMeta, Registry, Series};

fn label_suffix(meta: &MetricMeta, extra: Option<(&str, String)>) -> String {
    let mut pairs: Vec<(String, String)> = Vec::new();
    if let Some((k, v)) = &meta.label {
        pairs.push((k.to_string(), v.clone()));
    }
    if let Some((k, v)) = extra {
        pairs.push((k.to_string(), v));
    }
    if pairs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Render the registry in the Prometheus text exposition format. Metric
/// families sharing a name (e.g. one histogram per stage, distinguished by
/// label) are grouped under a single `# HELP`/`# TYPE` header, as the
/// format requires.
pub fn to_prometheus(r: &Registry) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();

    for c in r.counters() {
        if !seen.contains(&c.meta.name) {
            out.push_str(&format!(
                "# HELP {} {}\n",
                c.meta.name,
                escape_help(c.meta.help)
            ));
            out.push_str(&format!("# TYPE {} counter\n", c.meta.name));
            seen.push(c.meta.name);
            // Emit every series of this family right after its header.
            for s in r.counters().iter().filter(|s| s.meta.name == c.meta.name) {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.meta.name,
                    label_suffix(&s.meta, None),
                    s.value
                ));
            }
        }
    }
    for g in r.gauges() {
        if !seen.contains(&g.meta.name) {
            out.push_str(&format!(
                "# HELP {} {}\n",
                g.meta.name,
                escape_help(g.meta.help)
            ));
            out.push_str(&format!("# TYPE {} gauge\n", g.meta.name));
            seen.push(g.meta.name);
            for s in r.gauges().iter().filter(|s| s.meta.name == g.meta.name) {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.meta.name,
                    label_suffix(&s.meta, None),
                    s.value
                ));
            }
        }
    }
    for h in r.histograms() {
        if !seen.contains(&h.meta.name) {
            out.push_str(&format!(
                "# HELP {} {}\n",
                h.meta.name,
                escape_help(h.meta.help)
            ));
            out.push_str(&format!("# TYPE {} histogram\n", h.meta.name));
            seen.push(h.meta.name);
            for s in r.histograms().iter().filter(|s| s.meta.name == h.meta.name) {
                render_histogram(&mut out, &s.meta, &s.value);
            }
        }
    }
    out
}

/// Render the registry's counters and gauges as plain text, one line per
/// family in insertion order (counters first): `name value`, or for a
/// labelled family `name{key} a=1 b=2`, its series in insertion order.
/// Then one `WARNING:` line, with the sum and the help text, for each
/// family in `warn` whose series sum to more than zero. Histograms are
/// left to [`to_prometheus`].
pub fn to_text(r: &Registry, warn: &[&str]) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    for list in [r.counters(), r.gauges()] {
        for (i, s) in list.iter().enumerate() {
            if list[..i].iter().any(|p| p.meta.name == s.meta.name) {
                continue;
            }
            rows.push(match &s.meta.label {
                None => (s.meta.name.to_string(), s.value.to_string()),
                Some((key, _)) => {
                    let series: Vec<String> = list
                        .iter()
                        .filter(|x| x.meta.name == s.meta.name)
                        .filter_map(|x| Some(format!("{}={}", x.meta.label.as_ref()?.1, x.value)))
                        .collect();
                    (format!("{}{{{key}}}", s.meta.name), series.join(" "))
                }
            });
        }
    }
    let width = rows.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, values) in rows {
        let _ = writeln!(out, "{name:<width$} {values}");
    }
    for &name in warn {
        let family: Vec<&Series<u64>> = r
            .counters()
            .iter()
            .chain(r.gauges())
            .filter(|s| s.meta.name == name)
            .collect();
        let total: u64 = family.iter().map(|s| s.value).sum();
        if total > 0 {
            let _ = writeln!(out, "WARNING: {name} {total}: {}", family[0].meta.help);
        }
    }
    out
}

fn render_histogram(out: &mut String, meta: &MetricMeta, h: &Histogram) {
    // Cumulative buckets; skip trailing empty ones but always keep +Inf.
    let top = h.max_bucket().map_or(0, |i| i + 1);
    let mut cum = 0u64;
    for i in 0..top {
        cum += h.buckets[i];
        out.push_str(&format!(
            "{}_bucket{} {}\n",
            meta.name,
            label_suffix(meta, Some(("le", Histogram::bucket_upper(i).to_string()))),
            cum
        ));
    }
    out.push_str(&format!(
        "{}_bucket{} {}\n",
        meta.name,
        label_suffix(meta, Some(("le", "+Inf".to_string()))),
        h.count
    ));
    out.push_str(&format!(
        "{}_sum{} {}\n",
        meta.name,
        label_suffix(meta, None),
        h.sum
    ));
    out.push_str(&format!(
        "{}_count{} {}\n",
        meta.name,
        label_suffix(meta, None),
        h.count
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promcheck;

    fn sample() -> Registry {
        let mut r = Registry::new();
        r.counter("sd_packets_total", "Packets processed", 100);
        let help = "Per-stage packets";
        r.counter_labeled("sd_stage_packets_total", help, ("stage", "fast_path"), 90);
        r.counter_labeled("sd_stage_packets_total", help, ("stage", "slow_path"), 10);
        r.gauge("sd_diverted_flows", "Currently diverted", 4);
        let mut h = Histogram::default();
        for v in [50u64, 300, 300, 9000] {
            h.record(v);
        }
        r.histogram_labeled(
            "sd_stage_latency_ns",
            "Stage latency",
            ("stage", "fast_path"),
            &h,
        );
        r
    }

    #[test]
    fn prometheus_output_is_valid_and_complete() {
        let text = to_prometheus(&sample());
        promcheck::validate(&text).expect("valid exposition");
        assert!(text.contains("# TYPE sd_packets_total counter"), "{text}");
        assert!(text.contains("sd_packets_total 100"), "{text}");
        assert!(
            text.contains("sd_stage_packets_total{stage=\"fast_path\"} 90"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE sd_stage_latency_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("sd_stage_latency_ns_bucket{stage=\"fast_path\",le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(text.contains("sd_stage_latency_ns_sum{stage=\"fast_path\"} 9650"));
        assert!(text.contains("sd_stage_latency_ns_count{stage=\"fast_path\"} 4"));
        // One header per family even with multiple series.
        assert_eq!(text.matches("# TYPE sd_stage_packets_total").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::default();
        h.record(1); // bucket 0 (le 1)
        h.record(2); // bucket 1 (le 3)
        h.record(2);
        let mut r = Registry::new();
        r.histogram("h_bytes", "h", &h);
        let text = to_prometheus(&r);
        assert!(text.contains("h_bytes_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("h_bytes_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("h_bytes_bucket{le=\"+Inf\"} 3"), "{text}");
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let r = Registry::new();
        promcheck::validate(&to_prometheus(&r)).unwrap();
        assert_eq!(to_text(&r, &["sd_packets_total"]), "");
    }

    #[test]
    fn text_puts_each_family_on_one_line_and_warns_on_nonzero() {
        let mut r = sample();
        r.counter("sd_refused_total", "Refused (guarantee eroded)", 0);
        r.counter_labeled("sd_dropped_total", "Dropped", ("shard", "0"), 0);
        r.counter_labeled("sd_dropped_total", "Dropped", ("shard", "1"), 5);
        let text = to_text(&r, &["sd_refused_total", "sd_dropped_total"]);
        let lines: Vec<Vec<&str>> = text
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            lines,
            [
                &["sd_packets_total", "100"][..],
                &[
                    "sd_stage_packets_total{stage}",
                    "fast_path=90",
                    "slow_path=10"
                ],
                &["sd_refused_total", "0"],
                &["sd_dropped_total{shard}", "0=0", "1=5"],
                &["sd_diverted_flows", "4"],
                &["WARNING:", "sd_dropped_total", "5:", "Dropped"],
            ],
            "{text}"
        );
        assert!(!text.contains("latency"), "histograms stay out: {text}");
    }
}
