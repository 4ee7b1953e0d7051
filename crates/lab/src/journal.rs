//! Append-only JSONL trial journal.
//!
//! One line per trial row. A row is the atom of the journal: one measured
//! run (for `sd-e2e`, one workload in one mode) with its full identity
//! split into `config` (what was configured — strings and numbers that
//! name the cell) and `metrics` (what was measured), plus provenance and a
//! run id grouping all rows appended by one `sd lab record` invocation.
//!
//! The store is deliberately dumb — append and scan. Query views
//! ([`latest_run`], [`run_summaries`]) are functions over the scanned
//! rows; nothing is indexed because journals are small (hundreds of rows)
//! and the dumbness is what makes the format durable.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::json::Value;
use crate::provenance::Provenance;

/// Journal line-format version. Bump only with a migration note in
/// DESIGN.md; the pinned-schema test locks the serialized shape.
pub const SCHEMA_VERSION: f64 = 1.0;

/// One journaled trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRow {
    /// Line-format version ([`SCHEMA_VERSION`]).
    pub schema: f64,
    /// Groups every row appended by one `sd lab record` invocation.
    pub run_id: String,
    /// Experiment name, e.g. `sd-e2e`.
    pub experiment: String,
    /// Order of this row within its run.
    pub seq: f64,
    /// Section within the experiment; for `sd-e2e`, the workload.
    pub section: String,
    /// Wall-clock seconds since the Unix epoch when the run started.
    pub unix_secs: f64,
    /// What produced the number.
    pub provenance: Provenance,
    /// Configured identity of the cell (ordered; order is data).
    pub config: Vec<(String, Value)>,
    /// Measured values (ordered; order is data).
    pub metrics: Vec<(String, Value)>,
}

impl TrialRow {
    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let obj = Value::Obj(vec![
            ("schema".to_string(), Value::Num(self.schema)),
            ("run_id".to_string(), Value::Str(self.run_id.clone())),
            (
                "experiment".to_string(),
                Value::Str(self.experiment.clone()),
            ),
            ("seq".to_string(), Value::Num(self.seq)),
            ("section".to_string(), Value::Str(self.section.clone())),
            ("unix_secs".to_string(), Value::Num(self.unix_secs)),
            (
                "provenance".to_string(),
                Value::Obj(vec![
                    (
                        "git_commit".to_string(),
                        Value::Str(self.provenance.git_commit.clone()),
                    ),
                    (
                        "git_dirty".to_string(),
                        Value::Bool(self.provenance.git_dirty),
                    ),
                    (
                        "rustc".to_string(),
                        Value::Str(self.provenance.rustc.clone()),
                    ),
                ]),
            ),
            ("config".to_string(), Value::Obj(self.config.clone())),
            ("metrics".to_string(), Value::Obj(self.metrics.clone())),
        ]);
        obj.to_compact()
    }

    /// Parse one JSONL line back into a row.
    pub fn from_json_line(line: &str) -> Result<TrialRow, String> {
        let v = Value::parse(line)?;
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("row missing numeric '{key}'"))
        };
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row missing string '{key}'"))
        };
        let prov = v.get("provenance").ok_or("row missing 'provenance'")?;
        let prov_text = |key: &str| -> Result<String, String> {
            prov.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("provenance missing '{key}'"))
        };
        let fields = |key: &str| -> Result<Vec<(String, Value)>, String> {
            v.get(key)
                .and_then(Value::as_obj)
                .map(<[(String, Value)]>::to_vec)
                .ok_or_else(|| format!("row missing object '{key}'"))
        };
        Ok(TrialRow {
            schema: num("schema")?,
            run_id: text("run_id")?,
            experiment: text("experiment")?,
            seq: num("seq")?,
            section: text("section")?,
            unix_secs: num("unix_secs")?,
            provenance: Provenance {
                git_commit: prov_text("git_commit")?,
                git_dirty: prov
                    .get("git_dirty")
                    .and_then(Value::as_bool)
                    .ok_or("provenance missing 'git_dirty'")?,
                rustc: prov_text("rustc")?,
            },
            config: fields("config")?,
            metrics: fields("metrics")?,
        })
    }
}

/// A JSONL journal on disk.
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Journal { path: path.into() }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append rows; creates the file (and parent directory) on first use.
    pub fn append(&self, rows: &[TrialRow]) -> Result<(), String> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("create {}: {e}", parent.display()))?;
            }
        }
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("open {}: {e}", self.path.display()))?;
        let mut buf = String::new();
        for row in rows {
            buf.push_str(&row.to_json_line());
            buf.push('\n');
        }
        f.write_all(buf.as_bytes())
            .map_err(|e| format!("write {}: {e}", self.path.display()))
    }

    /// Scan every row, in file order. Blank lines are tolerated; a
    /// malformed line is an error naming its 1-based line number.
    pub fn read(&self) -> Result<Vec<TrialRow>, String> {
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| format!("read {}: {e}", self.path.display()))?;
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            rows.push(
                TrialRow::from_json_line(line)
                    .map_err(|e| format!("{}:{}: {e}", self.path.display(), i + 1))?,
            );
        }
        Ok(rows)
    }
}

/// Query view: the rows of the most recent run of `experiment`, in seq
/// order, with the run id. "Most recent" is last-appended, which the
/// append-only format makes the same as latest.
pub fn latest_run<'a>(
    rows: &'a [TrialRow],
    experiment: &str,
) -> Option<(&'a str, Vec<&'a TrialRow>)> {
    let run_id = rows
        .iter()
        .rev()
        .find(|r| r.experiment == experiment)
        .map(|r| r.run_id.as_str())?;
    let mut run: Vec<&TrialRow> = rows
        .iter()
        .filter(|r| r.experiment == experiment && r.run_id == run_id)
        .collect();
    run.sort_by(|a, b| a.seq.partial_cmp(&b.seq).expect("finite seq"));
    Some((run_id, run))
}

/// One line of the `sd lab list --journal` view.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    pub run_id: String,
    pub experiment: String,
    pub rows: usize,
    pub unix_secs: f64,
    pub git_commit: String,
    pub git_dirty: bool,
}

/// Query view: one summary per (run, experiment), in journal order.
pub fn run_summaries(rows: &[TrialRow]) -> Vec<RunSummary> {
    let mut out: Vec<RunSummary> = Vec::new();
    for row in rows {
        if let Some(s) = out
            .iter_mut()
            .find(|s| s.run_id == row.run_id && s.experiment == row.experiment)
        {
            s.rows += 1;
        } else {
            out.push(RunSummary {
                run_id: row.run_id.clone(),
                experiment: row.experiment.clone(),
                rows: 1,
                unix_secs: row.unix_secs,
                git_commit: row.provenance.git_commit.clone(),
                git_dirty: row.provenance.git_dirty,
            });
        }
    }
    out
}

/// A short run id: epoch seconds plus a per-process counter, unique enough
/// to group rows within one journal without needing randomness.
pub fn fresh_run_id(unix_secs: u64) -> String {
    use std::sync::atomic::{AtomicU32, Ordering};
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("run-{unix_secs:x}-{n:02x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> TrialRow {
        TrialRow {
            schema: SCHEMA_VERSION,
            run_id: "run-1-00".to_string(),
            experiment: "fastpath-matcher-mix".to_string(),
            seq: 3.0,
            section: "results".to_string(),
            unix_secs: 1_700_000_000.0,
            provenance: Provenance {
                git_commit: "abc123".to_string(),
                git_dirty: true,
                rustc: "rustc 1.79.0".to_string(),
            },
            config: vec![
                (
                    "mix".to_string(),
                    Value::Str("benign \"quoted\"".to_string()),
                ),
                ("matcher".to_string(), Value::Str("dense".to_string())),
            ],
            metrics: vec![
                ("median_secs".to_string(), Value::Num(0.001625)),
                ("mib_per_s".to_string(), Value::Num(614.9)),
            ],
        }
    }

    #[test]
    fn row_round_trips_through_line_format() {
        let row = sample_row();
        let line = row.to_json_line();
        assert_eq!(TrialRow::from_json_line(&line).unwrap(), row);
    }

    #[test]
    fn journal_append_then_read() {
        let dir = std::env::temp_dir().join(format!("sd-lab-journal-{}", std::process::id()));
        let path = dir.join("j.jsonl");
        let journal = Journal::new(&path);
        let row = sample_row();
        journal.append(std::slice::from_ref(&row)).unwrap();
        journal.append(std::slice::from_ref(&row)).unwrap();
        let rows = journal.read().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], row);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_run_picks_last_appended() {
        let mut a = sample_row();
        a.run_id = "run-a".to_string();
        let mut b = sample_row();
        b.run_id = "run-b".to_string();
        let mut b2 = b.clone();
        b2.seq = 0.0;
        let rows = vec![a, b, b2];
        let (id, run) = latest_run(&rows, "fastpath-matcher-mix").unwrap();
        assert_eq!(id, "run-b");
        assert_eq!(run.len(), 2);
        assert_eq!(run[0].seq, 0.0); // seq order, not file order
        assert!(latest_run(&rows, "nope").is_none());
    }

    #[test]
    fn summaries_group_by_run_and_experiment() {
        let a = sample_row();
        let mut b = sample_row();
        b.experiment = "flowstate-occupancy".to_string();
        let rows = vec![a.clone(), a, b];
        let sums = run_summaries(&rows);
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].rows, 2);
        assert_eq!(sums[1].experiment, "flowstate-occupancy");
    }
}
