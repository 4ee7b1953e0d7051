//! The piece scan in isolation: `SplitPlan::scan` timed per byte over the
//! two rule sets and the payload shapes the end-to-end workloads feed it.
//!
//! ```console
//! cargo test --release -p splitdetect --test scan_cells -- --ignored --nocapture
//! ```
//!
//! Rule sets: 200 = `SignatureSet::generate(2006, 200, 16..40)`, the
//! random rules of `bulk-benign`, `mice-churn` and `evasion-mix`; 10k =
//! `generate_rule_corpus` seed 2006, the corpus of `rules10k-encrypted`.
//! Both compile with the default configuration. Payloads, 1,460-byte
//! segments unless named otherwise:
//!
//! * *HTTP-like* and *uniform* — `PayloadModel` at payload seed 7;
//! * *hostile* — piece prefixes (a random piece of that rule set minus
//!   its last byte), skipping any prefix whose append would complete a
//!   piece, so that every candidate is a real run and no segment matches;
//! * *filler* — the heavy-tail generator's lowercase filler (`mice-churn`'s
//!   payload), at 1,460 and 64 bytes: a 26-letter period that no window
//!   of either rule set hits.
//!
//! Each cell prints the best of [`PASSES`] passes in ns/byte and ns per
//! segment, and how many segments matched. The only assertion is that no
//! segment matches where none should (every cell but HTTP-like); the
//! timings are for reading, not gating.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_ips::rules::parse_rules_lenient;
use sd_ips::SignatureSet;
use sd_traffic::{generate_rule_corpus, PayloadModel, RuleCorpusConfig};
use splitdetect::{SplitDetectConfig, SplitPlan};

/// Timed passes per cell; the fastest is reported.
const PASSES: usize = 9;

/// Payload bytes per cell.
const CELL_BYTES: usize = 4_000 * 1460;

/// Segments of `len` bytes, `CELL_BYTES` in all.
fn segments(len: usize, mut fill: impl FnMut() -> Vec<u8>) -> Vec<Vec<u8>> {
    (0..CELL_BYTES / len)
        .map(|_| {
            let segment = fill();
            assert_eq!(segment.len(), len);
            segment
        })
        .collect()
}

/// A segment of prefixes of `plan`'s `pieces` drawn at random; a prefix
/// that would complete a piece with the bytes before it is skipped.
fn hostile(plan: &SplitPlan, pieces: &[&[u8]], rng: &mut StdRng, len: usize) -> Vec<u8> {
    let reach = plan.max_piece_len();
    let mut segment = Vec::with_capacity(len + reach);
    while segment.len() < len {
        let piece = pieces[rng.gen_range(0..pieces.len())];
        let prefix = &piece[..piece.len() - 1];
        let start = segment.len();
        segment.extend_from_slice(prefix);
        // A new match ends in `prefix` and starts at most `reach` before.
        if plan.scan(&segment[start.saturating_sub(reach)..]).is_some() {
            segment.truncate(start);
        }
    }
    segment.truncate(len);
    segment
}

/// The best pass over `cell`, in ns, and the segments that matched.
fn time(plan: &SplitPlan, cell: &[Vec<u8>]) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut matched = 0;
    for _ in 0..PASSES {
        let start = Instant::now();
        matched = cell
            .iter()
            .filter(|segment| black_box(plan.scan(black_box(segment))).is_some())
            .count();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    (best, matched)
}

#[test]
#[ignore = "timing: run in release with --ignored --nocapture"]
fn scan_cells() {
    let (corpus, errors) = parse_rules_lenient(&generate_rule_corpus(&RuleCorpusConfig::sized(
        10_000, 2006,
    )));
    assert!(errors.is_empty(), "the generated corpus parses cleanly");
    let sets = [
        ("200", SignatureSet::generate(2006, 200, 16..40)),
        ("10k", corpus.to_signatures()),
    ];
    let filler: Vec<u8> = (0..1460).map(|i| b'a' + (i % 26) as u8).collect();
    println!(
        "{:<5} {:<16} {:>9} {:>11} {:>9}",
        "rules", "payload", "ns/byte", "ns/segment", "matched"
    );
    for (name, sigs) in &sets {
        let plan = SplitPlan::compile(sigs, &SplitDetectConfig::default())
            .expect("the default configuration admits the set");
        let pieces: Vec<&[u8]> = plan.pieces().iter().map(|(_, piece)| piece).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let cells: [(&str, Vec<Vec<u8>>, bool); 5] = [
            (
                "HTTP-like",
                segments(1460, || PayloadModel::HttpLike.generate(&mut rng, 1460)),
                true,
            ),
            (
                "uniform",
                segments(1460, || PayloadModel::Uniform.generate(&mut rng, 1460)),
                false,
            ),
            (
                "hostile",
                segments(1460, || hostile(&plan, &pieces, &mut rng, 1460)),
                false,
            ),
            ("filler", segments(1460, || filler.clone()), false),
            ("filler 64 B", segments(64, || filler[..64].to_vec()), false),
        ];
        for (payload, cell, may_match) in &cells {
            let (ns, matched) = time(&plan, cell);
            let bytes: usize = cell.iter().map(Vec::len).sum();
            println!(
                "{name:<5} {payload:<16} {:>9.3} {:>11.1} {:>4} / {}",
                ns / bytes as f64,
                ns / cell.len() as f64,
                matched,
                cell.len()
            );
            assert!(
                *may_match || matched == 0,
                "{name} {payload}: {matched} segments matched"
            );
        }
    }
}
