//! `sd-e2e` standard output → journal rows.
//!
//! For every run, `sd-e2e` prints a table headed
//! `== <workload> · seed <n> · <mode> ==` and then one JSON result line
//! `{"correct", "attempted", "failed", "metrics"}`. Each header is paired
//! with the next result line, and each pair becomes one row: section =
//! workload, config = {workload, seed, mode}, metrics = every metric value
//! plus `attempted`, `failed` and `correct`. Every other line is table
//! body and is skipped.

use crate::journal::{TrialRow, SCHEMA_VERSION};
use crate::json::Value;
use crate::provenance::Provenance;

/// The experiment name every recorded row carries.
pub const EXPERIMENT: &str = "sd-e2e";

/// Turn `sd-e2e` output into journal rows, in output order. The input
/// comes from outside the program, so anything but well-formed
/// header/result pairs is an error naming its 1-based line: a header with
/// no result line, a result line with no header, a malformed header or
/// result line, or no run at all.
pub fn e2e_rows(
    stdout: &str,
    provenance: &Provenance,
    run_id: &str,
    unix_secs: f64,
) -> Result<Vec<TrialRow>, String> {
    let mut rows = Vec::new();
    // The header awaiting its result line: its line number and its row,
    // complete but for the metrics.
    let mut open: Option<(usize, TrialRow)> = None;
    for (i, line) in stdout.lines().enumerate() {
        let at = i + 1;
        if let Some(inner) = line.strip_prefix("== ").and_then(|l| l.strip_suffix(" ==")) {
            if let Some((header_at, _)) = open {
                return Err(format!("line {header_at}: table header has no result line"));
            }
            let (workload, config) = parse_header(inner).map_err(|e| format!("line {at}: {e}"))?;
            let row = TrialRow {
                schema: SCHEMA_VERSION,
                run_id: run_id.to_string(),
                experiment: EXPERIMENT.to_string(),
                seq: rows.len() as f64,
                section: workload,
                unix_secs,
                provenance: provenance.clone(),
                config,
                metrics: Vec::new(),
            };
            open = Some((at, row));
        } else if line.starts_with('{') {
            let (_, mut row) = open
                .take()
                .ok_or_else(|| format!("line {at}: result line has no table header"))?;
            row.metrics = parse_result(line).map_err(|e| format!("line {at}: {e}"))?;
            rows.push(row);
        }
    }
    if let Some((header_at, _)) = open {
        return Err(format!("line {header_at}: table header has no result line"));
    }
    if rows.is_empty() {
        return Err("no sd-e2e run in the input".to_string());
    }
    Ok(rows)
}

/// `<workload> · seed <n> · <mode>` → (workload, config).
fn parse_header(inner: &str) -> Result<(String, Vec<(String, Value)>), String> {
    let parts: Vec<&str> = inner.split(" · ").collect();
    let [workload, seed, mode] = parts.as_slice() else {
        return Err(format!(
            "table header {inner:?} is not `<workload> · seed <n> · <mode>`"
        ));
    };
    let seed: u64 = seed
        .strip_prefix("seed ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("table header {inner:?} has no `seed <n>`"))?;
    // Journal numbers are f64; a larger seed would be stored rounded.
    if seed > 1 << 53 {
        return Err(format!("seed {seed} does not fit a journal number exactly"));
    }
    let config = vec![
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("seed".to_string(), Value::Num(seed as f64)),
        ("mode".to_string(), Value::Str(mode.to_string())),
    ];
    Ok((workload.to_string(), config))
}

/// The result line → every metric's value, then `attempted`, `failed` and
/// `correct`, each as the line spells it.
fn parse_result(line: &str) -> Result<Vec<(String, Value)>, String> {
    let result = Value::parse(line)?;
    let mut metrics = Vec::new();
    for (name, metric) in result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result line has no \"metrics\" object")?
    {
        let value = metric
            .get("value")
            .ok_or_else(|| format!("metric {name:?} has no \"value\""))?;
        metrics.push((name.clone(), value.clone()));
    }
    for key in ["attempted", "failed", "correct"] {
        let value = result
            .get(key)
            .ok_or_else(|| format!("result line has no {key:?}"))?;
        metrics.push((key.to_string(), value.clone()));
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trimmed `sd-e2e --smoke --workload …` output: two workloads, both
    /// modes, table bodies included.
    const CANNED: &str = "\
sd-e2e: threads ≤ 2 (serve thread; second thread only in the pool-of-one and one-shard per-layer passes), available parallelism 2
== bulk-benign · seed 1 · end-to-end (tracing off) ==
fingerprint: 4104 packets, 3.1 MB, fnv 9a1b (generated in 0.05 s)
metric                                    value unit    better  q1 .. q3 (n)
pps                                      250000 1/s     higher
state_bytes                             1048576 B       lower
failed_share 0.000000 (0 failed of 4104 attempted)
{\"correct\":true,\"attempted\":4104,\"failed\":0,\"metrics\":{\"pps\":{\"value\":250000.5,\"unit\":\"1/s\"},\"state_bytes\":{\"value\":1048576,\"unit\":\"B\"}}}
== bulk-benign · seed 1 · per-layer (traced) ==
fingerprint: 4104 packets, 3.1 MB, fnv 9a1b (generated in 0.05 s)
{\"correct\":true,\"attempted\":4104,\"failed\":0,\"metrics\":{\"match.scan_ns\":{\"value\":812.25,\"unit\":\"ns\"}}}
== evasion-mix · seed 1 · end-to-end (tracing off) ==
FAIL flow 10.0.0.1:1025 -> 10.0.0.2:80: missed sid 7
{\"correct\":false,\"attempted\":900,\"failed\":12,\"metrics\":{\"pps\":{\"value\":270000,\"unit\":\"1/s\"},\"state_bytes\":{\"value\":65536,\"unit\":\"B\"}}}
== evasion-mix · seed 1 · per-layer (traced) ==
{\"correct\":true,\"attempted\":900,\"failed\":0,\"metrics\":{\"match.scan_ns\":{\"value\":640,\"unit\":\"ns\"}}}
";

    fn prov() -> Provenance {
        Provenance {
            git_commit: "0123456789abcdef0123456789abcdef01234567".into(),
            git_dirty: false,
            rustc: "rustc test".into(),
        }
    }

    fn rows(text: &str) -> Result<Vec<TrialRow>, String> {
        e2e_rows(text, &prov(), "run-1-00", 1_700_000_000.0)
    }

    fn num(n: f64) -> Value {
        Value::Num(n)
    }

    fn fields(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn two_workloads_in_both_modes_make_four_rows() {
        let rows = rows(CANNED).unwrap();
        assert_eq!(rows.len(), 4);
        let sections: Vec<&str> = rows.iter().map(|r| r.section.as_str()).collect();
        assert_eq!(
            sections,
            ["bulk-benign", "bulk-benign", "evasion-mix", "evasion-mix"]
        );
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.experiment, EXPERIMENT);
            assert_eq!(row.seq, i as f64);
            assert_eq!(row.run_id, "run-1-00");
            assert_eq!(row.provenance, prov());
        }
        let e2e = Value::Str("end-to-end (tracing off)".into());
        let traced = Value::Str("per-layer (traced)".into());
        assert_eq!(
            rows[0].config,
            fields(&[
                ("workload", Value::Str("bulk-benign".into())),
                ("seed", num(1.0)),
                ("mode", e2e.clone()),
            ])
        );
        assert_eq!(rows[1].config[2].1, traced);
        assert_eq!(rows[2].config[2].1, e2e);
        assert_eq!(rows[3].config[2].1, traced);
        assert_eq!(
            rows[0].metrics,
            fields(&[
                ("pps", num(250000.5)),
                ("state_bytes", num(1048576.0)),
                ("attempted", num(4104.0)),
                ("failed", num(0.0)),
                ("correct", Value::Bool(true)),
            ])
        );
        assert_eq!(
            rows[1].metrics,
            fields(&[
                ("match.scan_ns", num(812.25)),
                ("attempted", num(4104.0)),
                ("failed", num(0.0)),
                ("correct", Value::Bool(true)),
            ])
        );
        // A failed run is journaled as it was, not dropped.
        assert_eq!(rows[2].metrics[3], ("failed".to_string(), num(12.0)));
        assert_eq!(
            rows[2].metrics[4],
            ("correct".to_string(), Value::Bool(false))
        );
    }

    #[test]
    fn anything_but_paired_runs_is_rejected() {
        let header = "== bulk-benign · seed 1 · end-to-end (tracing off) ==";
        let result = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}}"#;
        for (bad, why) in [
            (String::new(), "no sd-e2e run"),
            ("some unrelated text\n".to_string(), "no sd-e2e run"),
            (
                format!("{header}\n"),
                "line 1: table header has no result line",
            ),
            (
                format!("{header}\n{header}\n{result}\n"),
                "line 1: table header has no result line",
            ),
            (
                format!("{result}\n"),
                "line 1: result line has no table header",
            ),
            (
                format!("{header}\n{{\"correct\":tru\n"),
                "line 2: invalid literal",
            ),
            (
                format!("{header}\n{{\"correct\":true,\"attempted\":1,\"failed\":0}}\n"),
                "line 2: result line has no \"metrics\" object",
            ),
            (
                format!("== bulk-benign · seed x · end-to-end ==\n{result}\n"),
                "has no `seed <n>`",
            ),
            (
                format!("== bulk-benign ==\n{result}\n"),
                "is not `<workload>",
            ),
            (
                format!("== w · seed 18446744073709551615 · m ==\n{result}\n"),
                "does not fit",
            ),
        ] {
            let err = rows(&bad).expect_err(&bad);
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }
}
