//! Property tests for the Snort-subset rule loader against generated
//! corpora: parse→serialize→parse is the identity, generated files load
//! cleanly at any size/alphabet mix, and malformed rules are rejected with
//! stable, line-numbered diagnostics while every good rule still loads.

use proptest::prelude::*;
use sd_ips::rules::{parse_rules, parse_rules_lenient};
use sd_traffic::rulegen::{generate_rule_corpus, RuleCorpusConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated corpora (any seed, size, alphabet mix) parse cleanly with
    /// the strict loader, load exactly the requested number of alert rules,
    /// and survive a full parse→serialize→parse round trip.
    #[test]
    fn generated_corpora_parse_and_round_trip(
        rules in 1usize..120,
        seed in any::<u64>(),
        hex_pct in 0u8..=100,
        multi_pct in 0u8..=100,
        wrap_pct in 0u8..=40,
    ) {
        let cfg = RuleCorpusConfig {
            rules,
            seed,
            hex_fraction: hex_pct as f64 / 100.0,
            multi_content_fraction: multi_pct as f64 / 100.0,
            wrap_fraction: wrap_pct as f64 / 100.0,
            ..Default::default()
        };
        let text = generate_rule_corpus(&cfg);
        let set = parse_rules(&text).expect("generated corpus must be clean");
        prop_assert_eq!(set.rules.len(), rules);

        // Round trip: serialize and re-parse.
        let serialized = set.to_text();
        let again = parse_rules(&serialized).expect("serialized form must re-parse");
        prop_assert_eq!(&set.rules, &again.rules);
        prop_assert_eq!(set.nocase_ignored, again.nocase_ignored);
        // Serialization is a fixed point: a second pass is byte-identical.
        prop_assert_eq!(serialized, again.to_text());

        // Every signature is admissible under the default split (k=3,
        // pieces ≥ 4 bytes).
        let sigs = set.to_signatures();
        prop_assert_eq!(sigs.len(), rules);
        prop_assert!(sigs.min_len().unwrap() >= 12);
    }

    /// Corpora with a malformed tail: the lenient loader reports exactly
    /// one diagnostic per bad line — with the right line numbers, stably —
    /// and still loads every well-formed rule; the strict loader aborts at
    /// the first bad line.
    #[test]
    fn malformed_rules_rejected_with_stable_line_numbers(
        rules in 1usize..40,
        seed in any::<u64>(),
        malformed in 1usize..12,
    ) {
        let cfg = RuleCorpusConfig {
            rules,
            seed,
            malformed,
            ..Default::default()
        };
        let text = generate_rule_corpus(&cfg);
        let (set, errors) = parse_rules_lenient(&text);
        prop_assert_eq!(set.rules.len(), rules, "good rules all load");
        prop_assert_eq!(errors.len(), malformed, "one diagnostic per bad line");

        // The malformed tail occupies the last `malformed` physical lines.
        let total_lines = text.lines().count();
        for (i, e) in errors.iter().enumerate() {
            prop_assert_eq!(e.line, total_lines - malformed + 1 + i);
            prop_assert!(!e.reason.is_empty());
            prop_assert!(e.to_string().contains(&format!("line {}", e.line)));
        }

        // Diagnostics are stable across parses.
        let (_, again) = parse_rules_lenient(&text);
        prop_assert_eq!(errors, again);

        // The strict parser aborts at the first malformed line.
        let strict = parse_rules(&text).unwrap_err();
        prop_assert_eq!(strict.line, total_lines - malformed + 1);
    }

    /// Content decoding against known bytes: arbitrary content bytes,
    /// written through a random mix of `\"`, `\\`, `\;`, `\|`, `\:`
    /// escapes, literal text and `|hex|` runs (either case, extra spaces,
    /// empty `||` runs), load as exactly those bytes.
    #[test]
    fn content_spellings_decode_to_their_bytes(
        content in prop::collection::vec(any::<u8>(), 1..40),
        spelling in prop::collection::vec(any::<u8>(), 40),
    ) {
        let mut text = String::new();
        for (&b, &how) in content.iter().zip(&spelling) {
            let escapable = matches!(b, b'"' | b'\\' | b';' | b'|' | b':');
            let literal = (0x20..=0x7E).contains(&b) && !matches!(b, b'"' | b'\\' | b'|');
            if how & 1 == 1 && escapable {
                text.push('\\');
                text.push(b as char);
            } else if how & 2 == 2 && literal {
                text.push(b as char);
            } else {
                let hex = if how & 4 == 4 { format!("{b:02x}") } else { format!("{b:02X}") };
                let pad = if how & 8 == 8 { "  " } else { "" };
                text.push_str(&format!("|{pad}{hex}{pad}|"));
            }
            if how & 16 == 16 {
                text.push_str("||");
            }
        }
        let line = format!("alert tcp any any -> any any (msg:\"m\"; content:\"{text}\"; sid:1;)");
        let set = parse_rules(&line).expect("every spelling parses");
        prop_assert_eq!(&set.rules[0].contents[0], &content);
    }
}
