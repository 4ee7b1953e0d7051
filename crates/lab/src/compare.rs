//! Baseline regression compare: journal-emitted current vs checked-in
//! baseline, per-metric tolerances.
//!
//! Throughput metrics are higher-is-better medians failing below
//! `-threshold`, memory metrics (automaton_10k `bytes`, flow-table
//! `slot_bytes`) are lower-is-better failing above `+mem_threshold`. Rows
//! or metrics present on only one side are reported but never fail the
//! gate.

use std::collections::BTreeMap;

use crate::json::Value;

/// Substrings marking a numeric results field as a throughput median.
pub const METRIC_MARKERS: [&str; 3] = ["mib_per_s", "gbps", "throughput"];

/// Direction a metric is allowed to drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Higher is better; fails on a drop beyond the throughput threshold.
    Throughput,
    /// Lower is better; fails on growth beyond the memory threshold.
    Memory,
}

/// One rendered delta-table line, fields pre-formatted.
#[derive(Debug, Clone)]
pub struct Line {
    pub bench: String,
    pub row: String,
    pub metric: String,
    pub base: String,
    pub cur: String,
    pub delta: String,
    pub status: String,
}

/// Everything one baseline/current pair produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub lines: Vec<Line>,
    pub failures: Vec<String>,
}

type MetricTable = BTreeMap<String, BTreeMap<String, (f64, MetricKind)>>;

/// Identity of a result row: its string-valued fields, `k=v` in key
/// order.
fn row_key(fields: &[(String, Value)]) -> String {
    let mut parts: Vec<String> = fields
        .iter()
        .filter_map(|(k, v)| v.as_str().map(|s| format!("{k}={s}")))
        .collect();
    parts.sort();
    if parts.is_empty() {
        "<anonymous row>".to_string()
    } else {
        parts.join(" ")
    }
}

/// Pull the gated metrics out of one baseline document: throughput medians
/// from `results` rows, automaton_10k footprint bytes, and the flow-table
/// slot_bytes when present.
pub fn extract(doc: &Value, label: &str) -> Result<(String, MetricTable), String> {
    let bench = doc
        .get("bench")
        .and_then(Value::as_str)
        .unwrap_or(label)
        .to_string();
    let mut table = MetricTable::new();

    let results = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{label}: no 'results' array"))?;
    for row in results {
        let fields = row
            .as_obj()
            .ok_or_else(|| format!("{label}: non-object results row"))?;
        let mut metrics = BTreeMap::new();
        for (k, v) in fields {
            if let Value::Num(n) = v {
                if METRIC_MARKERS.iter().any(|m| k.contains(m)) {
                    metrics.insert(k.clone(), (*n, MetricKind::Throughput));
                }
            }
        }
        if metrics.is_empty() {
            return Err(format!(
                "{label}: row '{}' has no throughput metric",
                row_key(fields)
            ));
        }
        table.insert(row_key(fields), metrics);
    }

    // Memory gate rows, keyed like `row_key` over
    // {"section": ..., "matcher": ...}: sorted k=v pairs.
    if let Some(entries) = doc.get("automaton_10k").and_then(Value::as_obj) {
        for (matcher, inner) in entries {
            if let Some(bytes) = inner.get("bytes").and_then(Value::as_f64) {
                table
                    .entry(format!("matcher={matcher} section=automaton_10k"))
                    .or_default()
                    .insert("bytes".to_string(), (bytes, MetricKind::Memory));
            }
        }
    }
    if let Some(slot) = doc.get("slot_bytes").and_then(Value::as_f64) {
        table
            .entry("section=meta".to_string())
            .or_default()
            .insert("slot_bytes".to_string(), (slot, MetricKind::Memory));
    }
    Ok((bench, table))
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Compare one baseline document against one current document.
pub fn compare_docs(
    base_doc: &Value,
    cur_doc: &Value,
    threshold: f64,
    mem_threshold: f64,
) -> Result<Outcome, String> {
    let (bench, base) = extract(base_doc, "baseline")?;
    let (_, cur) = extract(cur_doc, "current")?;
    let mut out = Outcome::default();
    let mut line = |row: &str, metric: &str, b: &str, c: &str, d: &str, status: &str| {
        out.lines.push(Line {
            bench: bench.clone(),
            row: row.to_string(),
            metric: metric.to_string(),
            base: b.to_string(),
            cur: c.to_string(),
            delta: d.to_string(),
            status: status.to_string(),
        });
    };

    let keys: Vec<&String> = {
        let mut k: Vec<&String> = base.keys().chain(cur.keys()).collect();
        k.sort();
        k.dedup();
        k
    };
    for key in keys {
        let (b_row, c_row) = match (base.get(key), cur.get(key)) {
            (Some(b), Some(c)) => (b, c),
            (Some(_), None) => {
                line(key, "-", "absent", "absent", "-", "row dropped");
                continue;
            }
            (None, Some(_)) => {
                line(key, "-", "absent", "absent", "-", "new row");
                continue;
            }
            (None, None) => unreachable!("key came from one of the maps"),
        };
        let metrics: Vec<&String> = {
            let mut m: Vec<&String> = b_row.keys().chain(c_row.keys()).collect();
            m.sort();
            m.dedup();
            m
        };
        for metric in metrics {
            let (b, c) = match (b_row.get(metric), c_row.get(metric)) {
                (Some(b), Some(c)) => (*b, *c),
                _ => {
                    line(key, metric, "absent", "absent", "-", "new metric");
                    continue;
                }
            };
            let (bv, kind) = b;
            let (cv, _) = c;
            let delta = if bv != 0.0 { (cv - bv) / bv } else { 0.0 };
            let regressed = match kind {
                MetricKind::Throughput => delta < -threshold,
                MetricKind::Memory => delta > mem_threshold,
            };
            let status = if regressed { "REGRESSED" } else { "ok" };
            line(
                key,
                metric,
                &format!("{bv:.1}"),
                &format!("{cv:.1}"),
                &pct(delta),
                status,
            );
            if regressed {
                let rule = match kind {
                    MetricKind::Throughput => {
                        format!("(>{:.0}% drop)", threshold * 100.0)
                    }
                    MetricKind::Memory => {
                        format!("(>{:.0}% growth)", mem_threshold * 100.0)
                    }
                };
                out.failures
                    .push(format!("{bench}: {key} {metric} {} {rule}", pct(delta)));
            }
        }
    }
    Ok(out)
}

/// Render the markdown delta table.
pub fn markdown(lines: &[Line], threshold: f64, mem_threshold: f64) -> String {
    let mut out = vec![
        format!(
            "### Bench regression gate (throughput fail below -{:.0}%, memory fail above +{:.0}%)",
            threshold * 100.0,
            mem_threshold * 100.0
        ),
        String::new(),
        "| bench | row | metric | baseline | current | delta | status |".to_string(),
        "|---|---|---|---:|---:|---:|---|".to_string(),
    ];
    for l in lines {
        out.push(format!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            l.bench, l.row, l.metric, l.base, l.cur, l.delta, l.status
        ));
    }
    out.join("\n") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(slot: f64, mib: f64, bytes_10k: f64) -> Value {
        Value::parse(&format!(
            r#"{{"bench": "t", "slot_bytes": {slot},
                "automaton_10k": {{"sparse": {{"bytes": {bytes_10k}}}}},
                "results": [{{"mix": "benign", "matcher": "dense", "mib_per_s": {mib}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn within_tolerance_passes() {
        let o = compare_docs(
            &doc(26.0, 100.0, 1000.0),
            &doc(27.0, 90.0, 1100.0),
            0.15,
            0.15,
        )
        .unwrap();
        assert!(o.failures.is_empty(), "{:?}", o.failures);
        assert!(o.lines.iter().all(|l| l.status == "ok"));
    }

    #[test]
    fn throughput_drop_fails_and_memory_drop_passes() {
        let o = compare_docs(
            &doc(26.0, 100.0, 1000.0),
            &doc(20.0, 80.0, 500.0),
            0.15,
            0.15,
        )
        .unwrap();
        assert_eq!(o.failures.len(), 1);
        assert!(o.failures[0].contains("mib_per_s"), "{:?}", o.failures);
        assert!(o.failures[0].contains("drop"));
    }

    #[test]
    fn memory_growth_fails_and_throughput_gain_passes() {
        let o = compare_docs(
            &doc(26.0, 100.0, 1000.0),
            &doc(31.0, 200.0, 1200.0),
            0.15,
            0.15,
        )
        .unwrap();
        assert_eq!(o.failures.len(), 2, "{:?}", o.failures);
        assert!(o.failures.iter().all(|f| f.contains("growth")));
    }

    #[test]
    fn exact_threshold_edge_is_ok() {
        // delta == -threshold is not a failure (strict inequality), same
        // as the python gate.
        let o = compare_docs(
            &doc(26.0, 100.0, 1000.0),
            &doc(26.0, 85.0, 1150.0),
            0.15,
            0.15,
        )
        .unwrap();
        assert!(o.failures.is_empty(), "{:?}", o.failures);
    }

    #[test]
    fn new_and_dropped_rows_report_without_failing() {
        let base =
            Value::parse(r#"{"bench": "t", "results": [{"mode": "inline", "mib_per_s": 10}]}"#)
                .unwrap();
        let cur =
            Value::parse(r#"{"bench": "t", "results": [{"mode": "pool-1", "mib_per_s": 10}]}"#)
                .unwrap();
        let o = compare_docs(&base, &cur, 0.15, 0.15).unwrap();
        assert!(o.failures.is_empty());
        let statuses: Vec<&str> = o.lines.iter().map(|l| l.status.as_str()).collect();
        assert_eq!(statuses, ["row dropped", "new row"]);
    }

    #[test]
    fn row_key_matches_python_shape() {
        let fields = vec![
            ("mix".to_string(), Value::Str("scan/benign".to_string())),
            ("mib_per_s".to_string(), Value::Num(1.0)),
            ("matcher".to_string(), Value::Str("dense".to_string())),
        ];
        assert_eq!(row_key(&fields), "matcher=dense mix=scan/benign");
    }
}
