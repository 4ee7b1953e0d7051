//! `sd lab` — journal `sd-e2e` results and list the journal.
//!
//! Thin over the `sd-lab` crate: read the input, stamp provenance, append,
//! print what was journaled. The one piece of policy living here is the
//! exit code: input that is not `sd-e2e` output is a usage error (2) and
//! journals nothing; a journal that cannot be read or written is 1.

use std::io::{Read, Write};
use std::time::{SystemTime, UNIX_EPOCH};

use sd_lab::journal::{fresh_run_id, run_summaries, Journal};
use sd_lab::provenance::Provenance;
use sd_lab::record::e2e_rows;

use crate::opts::LabAction;

type Out<'a> = &'a mut dyn Write;

/// Run one `sd lab` action; returns the process exit code.
pub fn lab_cmd(action: &LabAction, out: Out) -> i32 {
    let result = match action {
        LabAction::Record { journal } => record(journal, out),
        LabAction::List { journal } => list(journal, out).map_err(|e| (1, e)),
    };
    match result {
        Ok(()) => 0,
        Err((code, e)) => {
            let _ = writeln!(out, "error: {e}");
            code
        }
    }
}

/// Journal the `sd-e2e` output on stdin as one run.
fn record(journal_path: &str, out: Out) -> Result<(), (i32, String)> {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| (2, format!("read stdin: {e}")))?;
    let unix_secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| (1, e.to_string()))?
        .as_secs();
    let run_id = fresh_run_id(unix_secs);
    let provenance = Provenance::capture();
    let rows = e2e_rows(&input, &provenance, &run_id, unix_secs as f64).map_err(|e| (2, e))?;
    Journal::new(journal_path)
        .append(&rows)
        .map_err(|e| (1, e))?;
    for row in &rows {
        let mode = row.config.iter().find(|(k, _)| k == "mode");
        let _ = writeln!(
            out,
            "  {} · {}: {} values",
            row.section,
            mode.and_then(|(_, v)| v.as_str()).unwrap_or("?"),
            row.metrics.len()
        );
    }
    let _ = writeln!(
        out,
        "recorded {} run(s) as {run_id} in {journal_path} (commit {}{})",
        rows.len(),
        provenance.git_commit,
        if provenance.git_dirty { ", dirty" } else { "" }
    );
    Ok(())
}

fn list(journal_path: &str, out: Out) -> Result<(), String> {
    let rows = Journal::new(journal_path).read()?;
    let _ = writeln!(out, "journal {journal_path} ({} rows):", rows.len());
    let _ = writeln!(
        out,
        "{:<16} {:<12} {:>5}  {:<12} dirty",
        "run", "experiment", "rows", "commit"
    );
    for s in run_summaries(&rows) {
        let commit = s.git_commit.get(..12).unwrap_or(&s.git_commit);
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>5}  {:<12} {}",
            s.run_id,
            s.experiment,
            s.rows,
            commit,
            if s.git_dirty { "yes" } else { "no" }
        );
    }
    Ok(())
}
