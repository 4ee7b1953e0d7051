//! Integration tests for the journal: row round-trip properties, git
//! provenance against real throwaway repositories, and the pinned line
//! schema.

use std::path::Path;
use std::process::Command;

use proptest::prelude::*;
use sd_lab::journal::{Journal, TrialRow, SCHEMA_VERSION};
use sd_lab::json::Value;
use sd_lab::provenance::Provenance;

// ---------------------------------------------------------------------
// Journal row round-trip property: config in == config out.
//
// The vendored proptest has no string strategies, so the row is grown
// from a seeded LCG: every draw — key spelling (including JSON-escape-
// worthy characters), value type, float shape — derives from the one
// seed proptest shrinks on.
// ---------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        // Numerical Recipes LCG; quality is irrelevant, determinism isn't.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn string(&mut self) -> String {
        const PIECES: [&str; 10] = [
            "benign",
            "scan/adversarial",
            "with \"quotes\"",
            "back\\slash",
            "tab\there",
            "new\nline",
            "unicode-é😀",
            "",
            "ctrl-\u{1}",
            "matcher=dense mix=x",
        ];
        let mut s = String::new();
        for _ in 0..(self.next() % 3 + 1) {
            s.push_str(PIECES[(self.next() as usize) % PIECES.len()]);
        }
        s
    }

    fn number(&mut self) -> f64 {
        match self.next() % 5 {
            0 => self.next() as f64,                   // large integer
            1 => (self.next() % 1_000) as f64 / 64.0,  // small dyadic fraction
            2 => -((self.next() % 1_000_000) as f64),  // negative integer
            3 => (self.next() % 97) as f64 * 0.001625, // decimal-ish
            _ => 0.0,
        }
    }

    fn fields(&mut self) -> Vec<(String, Value)> {
        let mut out = Vec::new();
        for i in 0..(self.next() % 6) {
            let key = format!("{}_{i}", self.string());
            let value = match self.next() % 4 {
                0 => Value::Str(self.string()),
                1 => Value::Bool(self.next() % 2 == 0),
                2 => Value::Null,
                _ => Value::Num(self.number()),
            };
            out.push((key, value));
        }
        out
    }
}

fn row_from_seed(seed: u64) -> TrialRow {
    let mut lcg = Lcg(seed);
    TrialRow {
        schema: SCHEMA_VERSION,
        run_id: format!("run-{:x}", lcg.next()),
        experiment: lcg.string(),
        seq: (lcg.next() % 1_000) as f64,
        section: lcg.string(),
        unix_secs: (lcg.next() % (1 << 33)) as f64,
        provenance: Provenance {
            git_commit: format!("{:040x}", lcg.next()),
            git_dirty: lcg.next() % 2 == 0,
            rustc: format!("rustc {}.{}.0", lcg.next() % 10, lcg.next() % 100),
        },
        config: lcg.fields(),
        metrics: lcg.fields(),
    }
}

proptest! {
    /// Any generated row survives serialize → parse exactly: field order,
    /// escape-worthy strings, numeric values.
    #[test]
    fn journal_row_round_trips(seed in any::<u64>()) {
        let row = row_from_seed(seed);
        let line = row.to_json_line();
        let back = TrialRow::from_json_line(&line).expect("round-trip parse");
        prop_assert_eq!(&back, &row);
        // And the line itself is stable: re-serializing is a no-op.
        prop_assert_eq!(back.to_json_line(), line);
    }

    /// Journal files preserve rows through append + read, including
    /// multi-batch appends.
    #[test]
    fn journal_file_round_trips(seed in any::<u64>(), batches in 1usize..4) {
        let dir = std::env::temp_dir().join(format!("sd-lab-prop-{}-{seed:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::new(dir.join("j.jsonl"));
        let mut all = Vec::new();
        for b in 0..batches {
            let rows: Vec<TrialRow> =
                (0..3).map(|i| row_from_seed(seed ^ (b * 31 + i) as u64)).collect();
            journal.append(&rows).unwrap();
            all.extend(rows);
        }
        let read = journal.read().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(read, all);
    }
}

// ---------------------------------------------------------------------
// Git provenance against a real throwaway repository.
// ---------------------------------------------------------------------

fn git(dir: &Path, args: &[&str]) -> bool {
    Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

#[test]
fn provenance_tracks_commit_and_dirty_flag() {
    if Command::new("git").arg("--version").output().is_err() {
        eprintln!("skipping: git unavailable");
        return;
    }
    let dir = std::env::temp_dir().join(format!("sd-lab-git-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    assert!(git(&dir, &["init", "-q"]));
    std::fs::write(dir.join("a.txt"), "one\n").unwrap();
    assert!(git(&dir, &["add", "a.txt"]));
    assert!(git(
        &dir,
        &[
            "-c",
            "user.email=lab@test",
            "-c",
            "user.name=lab",
            "commit",
            "-q",
            "-m",
            "seed"
        ]
    ));

    let clean = Provenance::capture_in(&dir);
    assert_eq!(
        clean.git_commit.len(),
        40,
        "full hash: {}",
        clean.git_commit
    );
    assert!(clean.git_commit.chars().all(|c| c.is_ascii_hexdigit()));
    assert!(!clean.git_dirty, "fresh commit must read clean");
    assert!(!clean.rustc.is_empty());

    // Untracked file => dirty.
    std::fs::write(dir.join("b.txt"), "two\n").unwrap();
    assert!(
        Provenance::capture_in(&dir).git_dirty,
        "untracked file must read dirty"
    );

    // Modified tracked file (no new commit) => dirty, same commit.
    std::fs::remove_file(dir.join("b.txt")).unwrap();
    std::fs::write(dir.join("a.txt"), "changed\n").unwrap();
    let dirty = Provenance::capture_in(&dir);
    assert!(dirty.git_dirty, "modified tracked file must read dirty");
    assert_eq!(dirty.git_commit, clean.git_commit);

    std::fs::remove_dir_all(&dir).ok();
}

/// The journal line format is pinned: this literal line must keep parsing
/// to exactly this row, and the row must keep serializing to exactly this
/// line. Changing either requires bumping `SCHEMA_VERSION` and migrating.
#[test]
fn journal_line_schema_is_pinned() {
    let line = r#"{"schema":1,"run_id":"run-abc-00","experiment":"fastpath-matcher-mix","seq":2,"section":"results","unix_secs":1700000000,"provenance":{"git_commit":"0123456789abcdef0123456789abcdef01234567","git_dirty":false,"rustc":"rustc 1.79.0"},"config":{"mix":"scan/benign","matcher":"dense"},"metrics":{"median_secs":0.001625,"mib_per_s":614.9}}"#;
    let row = TrialRow::from_json_line(line).expect("pinned line parses");
    assert_eq!(row.schema, SCHEMA_VERSION);
    assert_eq!(row.experiment, "fastpath-matcher-mix");
    assert_eq!(row.seq, 2.0);
    assert_eq!(
        row.config[0],
        ("mix".to_string(), Value::Str("scan/benign".into()))
    );
    assert_eq!(row.metrics[1], ("mib_per_s".to_string(), Value::Num(614.9)));
    assert_eq!(
        row.to_json_line(),
        line,
        "serialized journal schema drifted"
    );
}
