//! What one run hands back, and how it is printed: a table for people,
//! then one JSON object on the last line for the driver.

use sd_lab::json::Value;

use crate::names::{self, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workload::Fingerprint;

/// One named value, with its pass-to-pass summary when it has one.
#[derive(Debug, Clone)]
pub struct Metric {
    /// A name from [`crate::names`].
    pub name: &'static str,
    /// The reported value (the median when summarized).
    pub value: f64,
    /// Quartiles and sample count over the passes, for timed metrics.
    pub summary: Option<Summary>,
}

impl Metric {
    /// A metric reported as the median over passes.
    pub fn summarized(name: &'static str, summary: Summary) -> Metric {
        Metric {
            name,
            value: summary.median,
            summary: Some(summary),
        }
    }

    /// A single measurement or an exact count.
    pub fn exact(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            summary: None,
        }
    }
}

/// Everything one `--workload … --trace …` run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed` it was generated from.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Determinism record of the inputs.
    pub fingerprint: Fingerprint,
    /// Seconds spent generating the workload.
    pub gen_s: f64,
    /// Packets offered, over every checked pass.
    pub attempted: u64,
    /// Packets refused or belonging to a flow with a wrong verdict.
    pub failed: u64,
    /// One line per failure, with the flow key.
    pub messages: Vec<String>,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the table (pass counts, dominant layer, …).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Value of metric `name`, if this run reported it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Check the run reports exactly the metrics its mode declares.
    pub fn check_names(&self) -> Result<(), String> {
        let declared: &[names::MetricDef] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let got: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "metric names drifted from the declaration: got {got:?}, want {want:?}"
            ))
        }
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} · seed {} · {} ==\nfingerprint: {} (generated in {:.2} s)\n",
            self.workload,
            self.seed,
            if self.traced {
                "per-layer (traced)"
            } else {
                "end-to-end (tracing off)"
            },
            self.fingerprint,
            self.gen_s
        );
        for note in &self.notes {
            out.push_str(&format!("{note}\n"));
        }
        out.push_str(&format!(
            "{:<28} {:>18} {:<7} {:<7} {}\n",
            "metric", "value", "unit", "better", "q1 .. q3 (n)"
        ));
        for m in &self.metrics {
            let (unit, better) =
                names::lookup(m.name).map_or(("?", "?"), |d| (d.unit, d.better.as_str()));
            let spread = match &m.summary {
                Some(s) => format!("{} .. {} ({})", fmt_value(s.q1), fmt_value(s.q3), s.n),
                None => String::new(),
            };
            out.push_str(&format!(
                "{:<28} {:>18} {:<7} {:<7} {}\n",
                m.name,
                fmt_value(m.value),
                unit,
                better,
                spread
            ));
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "failed_share {share:.6} ({} failed of {} attempted)\n",
            self.failed, self.attempted
        ));
        for m in &self.messages {
            out.push_str(&format!("FAIL {m}\n"));
        }
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, values with all their digits.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let unit = names::lookup(m.name).map_or("", |d| d.unit);
                (
                    m.name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .to_compact()
    }
}

/// Compact but lossless-enough rendering for the table: integers as
/// integers, everything else to four significant decimals.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}
