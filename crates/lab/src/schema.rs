//! Pinned baseline schemas: the exact shape of the three checked-in
//! `BENCH_*.json` files, as data.
//!
//! Each schema lists fields in file order with their print format, so
//! [`emit`] regenerates a baseline byte-for-byte from journal rows and
//! [`import`] converts a checked-in baseline into journal rows. The CI
//! `lab-provenance` job round-trips import→emit against the checked-in
//! files and diffs the bytes; that diff is what pins this module — edit a
//! format here and the gate tells you the baseline schema changed.

use crate::journal::{latest_run, TrialRow, SCHEMA_VERSION};
use crate::json::{write_str, Value};
use crate::provenance::Provenance;

/// How a field prints in the baseline file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// Bare integer (`26`).
    Int,
    /// Fixed-point with N decimals (`26.0`, `4070.00`, `0.014237`).
    Fixed(usize),
    /// JSON string.
    Str,
}

/// One field of a baseline row, in file order.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    pub name: &'static str,
    pub fmt: Fmt,
}

const fn f(name: &'static str, fmt: Fmt) -> Field {
    Field { name, fmt }
}

/// Shape of a baseline section.
#[derive(Debug, Clone, Copy)]
pub enum SectionKind {
    /// JSON object keyed by a config field (`"automaton": {"tiered": {...}}`);
    /// `key` names the journal config field holding the object key.
    Keyed { key: &'static str },
    /// JSON array of row objects (`"results": [...]`).
    Rows,
}

/// One section of a baseline file.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Top-level JSON key and journal `section` name.
    pub name: &'static str,
    pub kind: SectionKind,
    /// Row fields in file order. For `Keyed` sections the key field is
    /// not listed here — it prints as the object key.
    pub fields: &'static [Field],
}

/// The full shape of one baseline file.
#[derive(Debug, Clone, Copy)]
pub struct BenchSchema {
    /// Value of the file's `"bench"` discriminator.
    pub bench: &'static str,
    /// Checked-in file name at the repo root.
    pub file: &'static str,
    /// Experiment whose journal rows feed this file.
    pub experiment: &'static str,
    /// Top-level scalar fields, in file order (`bench` first).
    pub meta: &'static [Field],
    pub sections: &'static [Section],
}

/// The three pinned baselines.
pub const SCHEMAS: [BenchSchema; 3] = [
    BenchSchema {
        bench: "fastpath",
        file: "BENCH_fastpath.json",
        experiment: "fastpath-matcher-mix",
        meta: &[
            f("bench", Fmt::Str),
            f("rounds", Fmt::Int),
            f("segment_bytes", Fmt::Int),
        ],
        sections: &[
            Section {
                name: "automaton",
                kind: SectionKind::Keyed { key: "matcher" },
                fields: &[
                    f("bytes", Fmt::Int),
                    f("classes", Fmt::Int),
                    f("escape_bytes", Fmt::Int),
                ],
            },
            Section {
                name: "automaton_10k",
                kind: SectionKind::Keyed { key: "matcher" },
                fields: &[
                    f("bytes", Fmt::Int),
                    f("hot_bytes", Fmt::Int),
                    f("cold_bytes", Fmt::Int),
                    f("states", Fmt::Int),
                    f("build_ms", Fmt::Fixed(2)),
                ],
            },
            Section {
                name: "results",
                kind: SectionKind::Rows,
                fields: &[
                    f("mix", Fmt::Str),
                    f("matcher", Fmt::Str),
                    f("median_secs", Fmt::Fixed(6)),
                    f("mib_per_s", Fmt::Fixed(1)),
                ],
            },
        ],
    },
    BenchSchema {
        bench: "slowpath",
        file: "BENCH_slowpath.json",
        experiment: "slowpath-lane-shed",
        meta: &[
            f("bench", Fmt::Str),
            f("rounds", Fmt::Int),
            f("flows", Fmt::Int),
            f("follow_packets", Fmt::Int),
            f("segment_bytes", Fmt::Int),
            f("payload_bytes", Fmt::Int),
        ],
        sections: &[Section {
            name: "results",
            kind: SectionKind::Rows,
            fields: &[
                f("mode", Fmt::Str),
                f("ingest_secs", Fmt::Fixed(6)),
                f("ingest_mib_per_s", Fmt::Fixed(1)),
                f("total_secs", Fmt::Fixed(6)),
                f("total_mib_per_s", Fmt::Fixed(1)),
                f("ingest_speedup_vs_inline", Fmt::Fixed(2)),
            ],
        }],
    },
    BenchSchema {
        bench: "flowstate",
        file: "BENCH_flowstate.json",
        experiment: "flowstate-occupancy",
        meta: &[
            f("bench", Fmt::Str),
            f("capacity", Fmt::Int),
            f("probe_window", Fmt::Int),
            f("rounds", Fmt::Int),
            f("lookups", Fmt::Int),
            f("state_bytes_per_flow", Fmt::Int),
            f("slot_bytes", Fmt::Int),
            f("table_mib", Fmt::Fixed(1)),
            f("bloom_cells", Fmt::Int),
            f("bloom_hashes", Fmt::Int),
        ],
        sections: &[Section {
            name: "results",
            kind: SectionKind::Rows,
            fields: &[
                f("occupancy", Fmt::Str),
                f("resident_flows", Fmt::Int),
                f("lookup_ns", Fmt::Fixed(1)),
                f("lookup_throughput_mops", Fmt::Fixed(1)),
                f("insert_ns", Fmt::Fixed(1)),
                f("eviction_rate", Fmt::Fixed(4)),
                f("fill_evictions", Fmt::Int),
                f("bloom_fpr", Fmt::Fixed(4)),
                f("bloom_fill_ratio", Fmt::Fixed(4)),
            ],
        }],
    },
];

pub fn schema_for_bench(bench: &str) -> Option<&'static BenchSchema> {
    SCHEMAS.iter().find(|s| s.bench == bench)
}

pub fn schema_for_experiment(experiment: &str) -> Option<&'static BenchSchema> {
    SCHEMAS.iter().find(|s| s.experiment == experiment)
}

/// Look a field up in a row's config, then metrics.
fn row_value<'a>(row: &'a TrialRow, name: &str) -> Option<&'a Value> {
    row.config
        .iter()
        .chain(row.metrics.iter())
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

fn format_value(v: &Value, fmt: Fmt, field: &str) -> Result<String, String> {
    match (fmt, v) {
        (Fmt::Int, Value::Num(n)) => Ok(format!("{}", n.round() as i64)),
        (Fmt::Fixed(p), Value::Num(n)) => Ok(format!("{n:.p$}")),
        (Fmt::Str, Value::Str(s)) => {
            let mut out = String::new();
            write_str(s, &mut out);
            Ok(out)
        }
        _ => Err(format!("field '{field}' has the wrong type for its format")),
    }
}

fn render_fields(row: &TrialRow, fields: &[Field]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(fields.len());
    for field in fields {
        let v = row_value(row, field.name).ok_or_else(|| {
            format!(
                "row {}/{} missing field '{}'",
                row.experiment, row.section, field.name
            )
        })?;
        parts.push(format!(
            "\"{}\": {}",
            field.name,
            format_value(v, field.fmt, field.name)?
        ));
    }
    Ok(parts.join(", "))
}

/// Render one baseline document from one run's rows (seq order), byte-for-
/// byte in the checked-in format. `rows` must contain a `meta` row carrying
/// every meta field and one journal row per section row.
pub fn emit(schema: &BenchSchema, rows: &[&TrialRow]) -> Result<String, String> {
    let meta = rows
        .iter()
        .find(|r| r.section == "meta")
        .ok_or_else(|| format!("{}: run has no meta row", schema.experiment))?;
    let mut out = String::from("{\n");
    for field in schema.meta {
        let v = row_value(meta, field.name)
            .ok_or_else(|| format!("meta row missing '{}'", field.name))?;
        out.push_str(&format!(
            "  \"{}\": {},\n",
            field.name,
            format_value(v, field.fmt, field.name)?
        ));
    }
    for (si, section) in schema.sections.iter().enumerate() {
        let section_rows: Vec<&&TrialRow> =
            rows.iter().filter(|r| r.section == section.name).collect();
        if section_rows.is_empty() {
            return Err(format!(
                "{}: run has no '{}' rows",
                schema.experiment, section.name
            ));
        }
        let (open, close) = match section.kind {
            SectionKind::Keyed { .. } => ('{', '}'),
            SectionKind::Rows => ('[', ']'),
        };
        out.push_str(&format!("  \"{}\": {open}\n", section.name));
        let mut lines = Vec::with_capacity(section_rows.len());
        for row in &section_rows {
            let body = render_fields(row, section.fields)?;
            match section.kind {
                SectionKind::Keyed { key } => {
                    let k = row_value(row, key).and_then(Value::as_str).ok_or_else(|| {
                        format!("'{}' row missing string key '{key}'", section.name)
                    })?;
                    lines.push(format!("    \"{k}\": {{{body}}}"));
                }
                SectionKind::Rows => lines.push(format!("    {{{body}}}")),
            }
        }
        out.push_str(&lines.join(",\n"));
        out.push('\n');
        let last = si + 1 == schema.sections.len();
        out.push_str(&format!("  {close}{}\n", if last { "" } else { "," }));
    }
    out.push_str("}\n");
    Ok(out)
}

/// Render a baseline document from a journal: picks the latest run of the
/// schema's experiment.
pub fn emit_from_journal(rows: &[TrialRow], schema: &BenchSchema) -> Result<String, String> {
    let (_, run) = latest_run(rows, schema.experiment).ok_or_else(|| {
        format!(
            "journal has no '{}' run (feeds {})",
            schema.experiment, schema.file
        )
    })?;
    emit(schema, &run)
}

/// Convert a parsed baseline document into journal rows under the schema's
/// canonical experiment name, so `import` followed by `emit` round-trips
/// and compare/emit need no baseline-specific cases.
pub fn import(
    doc: &Value,
    provenance: &Provenance,
    run_id: &str,
    unix_secs: f64,
) -> Result<(&'static BenchSchema, Vec<TrialRow>), String> {
    let bench = doc
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("baseline document has no \"bench\" field")?;
    let schema = schema_for_bench(bench)
        .ok_or_else(|| format!("unknown bench '{bench}' (no pinned schema)"))?;

    let mut seq = 0.0;
    let mut row = |section: String, config: Vec<(String, Value)>, metrics: Vec<(String, Value)>| {
        let r = TrialRow {
            schema: SCHEMA_VERSION,
            run_id: run_id.to_string(),
            experiment: schema.experiment.to_string(),
            seq,
            section,
            unix_secs,
            provenance: provenance.clone(),
            config,
            metrics,
        };
        seq += 1.0;
        r
    };

    let pick = |obj: &Value, field: &Field, ctx: &str| -> Result<Value, String> {
        let v = obj
            .get(field.name)
            .ok_or_else(|| format!("{ctx} missing '{}'", field.name))?;
        match (field.fmt, v) {
            (Fmt::Str, Value::Str(_)) | (Fmt::Int | Fmt::Fixed(_), Value::Num(_)) => Ok(v.clone()),
            _ => Err(format!("{ctx} field '{}' has the wrong type", field.name)),
        }
    };

    let mut rows = Vec::new();
    let mut meta_config = Vec::new();
    for field in schema.meta {
        meta_config.push((field.name.to_string(), pick(doc, field, schema.file)?));
    }
    rows.push(row("meta".to_string(), meta_config, Vec::new()));

    for section in schema.sections {
        let body = doc
            .get(section.name)
            .ok_or_else(|| format!("{} missing section '{}'", schema.file, section.name))?;
        match section.kind {
            SectionKind::Keyed { key } => {
                let entries = body.as_obj().ok_or_else(|| {
                    format!("{}: '{}' is not an object", schema.file, section.name)
                })?;
                for (k, inner) in entries {
                    let mut metrics = Vec::new();
                    for field in section.fields {
                        metrics.push((
                            field.name.to_string(),
                            pick(inner, field, &format!("{}[{k}]", section.name))?,
                        ));
                    }
                    rows.push(row(
                        section.name.to_string(),
                        vec![(key.to_string(), Value::Str(k.clone()))],
                        metrics,
                    ));
                }
            }
            SectionKind::Rows => {
                let entries = body.as_arr().ok_or_else(|| {
                    format!("{}: '{}' is not an array", schema.file, section.name)
                })?;
                for (i, entry) in entries.iter().enumerate() {
                    let mut config = Vec::new();
                    let mut metrics = Vec::new();
                    for field in section.fields {
                        let v = pick(entry, field, &format!("{}[{i}]", section.name))?;
                        if field.fmt == Fmt::Str {
                            config.push((field.name.to_string(), v));
                        } else {
                            metrics.push((field.name.to_string(), v));
                        }
                    }
                    rows.push(row(section.name.to_string(), config, metrics));
                }
            }
        }
    }
    Ok((schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov() -> Provenance {
        Provenance {
            git_commit: "import".to_string(),
            git_dirty: false,
            rustc: "rustc test".to_string(),
        }
    }

    #[test]
    fn import_then_emit_is_identity_on_a_synthetic_doc() {
        let doc_text = "{\n  \"bench\": \"slowpath\",\n  \"rounds\": 9,\n  \"flows\": 64,\n  \"follow_packets\": 30,\n  \"segment_bytes\": 1400,\n  \"payload_bytes\": 2688640,\n  \"results\": [\n    {\"mode\": \"inline\", \"ingest_secs\": 0.008576, \"ingest_mib_per_s\": 299.0, \"total_secs\": 0.008577, \"total_mib_per_s\": 299.0, \"ingest_speedup_vs_inline\": 1.00},\n    {\"mode\": \"pool-2\", \"ingest_secs\": 0.000884, \"ingest_mib_per_s\": 2900.5, \"total_secs\": 0.009268, \"total_mib_per_s\": 276.7, \"ingest_speedup_vs_inline\": 9.70}\n  ]\n}\n";
        let doc = Value::parse(doc_text).unwrap();
        let (schema, rows) = import(&doc, &prov(), "run-x", 0.0).unwrap();
        assert_eq!(schema.bench, "slowpath");
        assert_eq!(rows.len(), 3); // meta + 2 results
        let refs: Vec<&TrialRow> = rows.iter().collect();
        assert_eq!(emit(schema, &refs).unwrap(), doc_text);
    }

    #[test]
    fn emit_rejects_missing_sections_and_fields() {
        let doc = Value::parse(r#"{"bench": "flowstate"}"#).unwrap();
        let err = import(&doc, &prov(), "r", 0.0).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn every_schema_resolves_both_ways() {
        for s in &SCHEMAS {
            assert_eq!(schema_for_bench(s.bench).unwrap().file, s.file);
            assert_eq!(schema_for_experiment(s.experiment).unwrap().bench, s.bench);
        }
    }
}
