//! `sd lab` — the experiment provenance harness front end.
//!
//! Thin over the `sd-lab` crate: resolve the action, run it, print
//! human-readable results. The one piece of policy living here is CI
//! integration: `lab compare` mirrors its markdown delta table into
//! `$GITHUB_STEP_SUMMARY` when that variable is set.

use std::io::Write;
use std::path::PathBuf;

use sd_lab::compare::markdown;
use sd_lab::experiment::{RunOpts, CI_SMOKE, EXPERIMENTS};
use sd_lab::journal::{run_summaries, Journal};
use sd_lab::provenance::RUSTC_VERSION;
use sd_lab::{compare_journal, emit_all, import_files};

use crate::opts::LabAction;

type Out<'a> = &'a mut dyn Write;

/// Run one `sd lab` action.
pub fn lab_cmd(action: &LabAction, out: Out) -> Result<(), String> {
    match action {
        LabAction::List { journal } => list(journal.as_deref(), out),
        LabAction::Run {
            experiment,
            journal,
            smoke,
            rounds,
        } => run(experiment, journal, *smoke, *rounds, out),
        LabAction::Emit { journal, out_dir } => emit(journal, out_dir, out),
        LabAction::Compare {
            journal,
            baselines,
            threshold,
            mem_threshold,
        } => compare(journal, baselines, *threshold, *mem_threshold, out),
        LabAction::Import { files, journal } => import(files, journal, out),
    }
}

fn list(journal: Option<&str>, out: Out) -> Result<(), String> {
    let _ = writeln!(out, "declared experiments:");
    let _ = writeln!(
        out,
        "{:<22} {:<10} {:<22} description",
        "name", "lineage", "baseline"
    );
    for e in &EXPERIMENTS {
        let _ = writeln!(
            out,
            "{:<22} {:<10} {:<22} {}",
            e.name,
            e.e_numbers,
            e.baseline.unwrap_or("-"),
            e.description
        );
    }
    let _ = writeln!(
        out,
        "{CI_SMOKE:<22} {:<10} {:<22} composite: every baseline-feeding sweep, smoke profile",
        "-", "(all three)"
    );

    if let Some(path) = journal {
        let rows = Journal::new(path).read()?;
        let _ = writeln!(out, "\njournal {path} ({} rows):", rows.len());
        let _ = writeln!(
            out,
            "{:<16} {:<22} {:>5}  {:<12} dirty",
            "run", "experiment", "rows", "commit"
        );
        for s in run_summaries(&rows) {
            let commit = s.git_commit.get(..12).unwrap_or(&s.git_commit);
            let _ = writeln!(
                out,
                "{:<16} {:<22} {:>5}  {:<12} {}",
                s.run_id,
                s.experiment,
                s.rows,
                commit,
                if s.git_dirty { "yes" } else { "no" }
            );
        }
    }
    Ok(())
}

fn run(
    experiment: &str,
    journal_path: &str,
    smoke: bool,
    rounds: Option<usize>,
    out: Out,
) -> Result<(), String> {
    let journal = Journal::new(journal_path);
    let opts = RunOpts { smoke, rounds };
    let _ = writeln!(
        out,
        "running {experiment}{} (journal {journal_path}, {RUSTC_VERSION})",
        if smoke || experiment == CI_SMOKE {
            ", smoke profile"
        } else {
            ""
        }
    );
    let record = sd_lab::experiment::run_experiment(experiment, &opts, &journal)?;
    for (name, rows) in &record.members {
        let _ = writeln!(out, "  {name}: {rows} rows journaled");
    }
    let _ = writeln!(out, "run id {}", record.run_id);
    Ok(())
}

fn emit(journal_path: &str, out_dir: &str, out: Out) -> Result<(), String> {
    let rows = Journal::new(journal_path).read()?;
    let written = emit_all(&rows, &PathBuf::from(out_dir))?;
    for path in &written {
        let _ = writeln!(out, "wrote {}", path.display());
    }
    Ok(())
}

fn compare(
    journal_path: &str,
    baselines: &[String],
    threshold: f64,
    mem_threshold: f64,
    out: Out,
) -> Result<(), String> {
    let rows = Journal::new(journal_path).read()?;
    let paths: Vec<PathBuf> = baselines.iter().map(PathBuf::from).collect();
    let outcome = compare_journal(&rows, &paths, threshold, mem_threshold)?;
    let table = markdown(&outcome.lines, threshold, mem_threshold);
    let _ = writeln!(out, "{table}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        if !summary.is_empty() {
            use std::io::Write as _;
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(&summary)
            {
                let _ = f.write_all(table.as_bytes());
            }
        }
    }
    if outcome.failures.is_empty() {
        let _ = writeln!(out, "no regressions beyond tolerance");
        Ok(())
    } else {
        for f in &outcome.failures {
            let _ = writeln!(out, "FAIL: {f}");
        }
        Err(format!(
            "{} metric(s) regressed beyond tolerance",
            outcome.failures.len()
        ))
    }
}

fn import(files: &[String], journal_path: &str, out: Out) -> Result<(), String> {
    let journal = Journal::new(journal_path);
    let paths: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
    for (experiment, rows) in import_files(&paths, &journal)? {
        let _ = writeln!(out, "imported {experiment}: {rows} rows");
    }
    Ok(())
}
