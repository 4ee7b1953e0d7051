//! The rule loader's output, pinned: FNV-1a digests of the `Debug` text
//! of what `parse_rules_lenient` (the `RuleSet` and its diagnostics) and
//! `parse_rules` return for three inputs. The loader may change how it
//! reads the text; the rules, the diagnostic texts and their line numbers
//! may not move without a new digest here.
//!
//! Inputs: the 10k-rule corpus of `rules10k-encrypted` (seed 2006); a
//! corpus heavy in backslash continuations, `|hex|` runs, second
//! `content`s, `nocase` and skipped actions; and a few rules with
//! character escapes and non-ASCII text followed by a malformed tail of
//! one line per diagnostic the parser emits.

use std::fmt::Debug;

use sd_ips::rules::{parse_rules, parse_rules_lenient};
use sd_traffic::rulegen::{generate_rule_corpus, RuleCorpusConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(value: &impl Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// `(lenient, strict)` digests of `text`.
fn digests(text: &str) -> (u64, u64) {
    (
        digest(&parse_rules_lenient(text)),
        digest(&parse_rules(text)),
    )
}

fn check(name: &str, text: &str, want: (u64, u64)) {
    let got = digests(text);
    assert_eq!(
        got, want,
        "{name}: loader output moved; (lenient, strict) digests are now \
         ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

/// Well-formed rules the generator never writes: every character escape
/// (`\|` only in `msg`; inside a `content` it is a literal `|`), a mixed
/// literal/hex content with an empty `||` run, multi-byte
/// text, a two-line continuation and a stray empty option.
const ESCAPED: &str = r#"alert tcp any any -> any any (msg:"quote \" back \\ semi \; pipe \| colon \:"; content:"a\"b\\c\;d\:e-escaped"; sid:1; rev:1;)
alert udp $HOME_NET 53 <> 10.0.0.0/8 any (msg:"héllo ✓ wörld"; content:"zähler ✓ über-alles"; nocase; sid:2; rev:2;)
alert ip any any -> any any (msg:"mixed"; content:"AB|43 44|EF||GH|0a 0D  ff|"; content:"  spaced  "; sid:3;)
alert tcp any any \
    -> any any \
    (msg:"wrapped twice"; content:"wrapped-twice-content"; sid:4;)
alert tcp any any -> any any (content:"no-msg-rule-content";sid:5;rev:6;  ;  depth:10)
drop tcp any any -> any any (content:"dropped"; sid:6;)
"#;

/// One line per diagnostic the parser emits, in the order the parser
/// checks them, then a dangling continuation at the end of the file.
/// (`dangling backslash` has no line: a quoted value the option splitter
/// closes never ends in an unpaired backslash.)
const MALFORMED: &str = r#"alert tcp any any -> any any content:"x"; sid:10;
alert tcp any any -> any any (content:"no-closing-paren"; sid:11;
alert tcp any any any any (content:"six-fields"; sid:12;)
frobnicate tcp any any -> any any (content:"bad-action"; sid:13;)
alert icmp any any -> any any (content:"bad-proto"; sid:14;)
alert tcp any any <- any any (content:"bad-arrow"; sid:15;)
alert tcp any any -> any any (content:"unterminated; sid:16;)
alert tcp any any -> any any (msg:unquoted; content:"unquoted-msg"; sid:17;)
alert tcp any any -> any any (msg:"bad \é escape"; content:"bad-escape"; sid:18;)
alert tcp any any -> any any (content:"a|90"; sid:19;)
alert tcp any any -> any any (content:"a|9|b"; sid:20;)
alert tcp any any -> any any (content:"a|ZZ|b"; sid:21;)
alert tcp any any -> any any (content:""; sid:22;)
alert tcp any any -> any any (content:"bad-sid-rule"; sid:zzz;)
alert tcp any any -> any any (content:"bad-rev-rule"; sid:23; rev:-1;)
alert tcp any any -> any any (msg:"no content"; sid:24;)
alert tcp any any -> any any (content:"good-after-errors"; sid:25;)
alert tcp any any -> any any \
    (content:"dangling-continuation"; sid:26;) \
"#;

#[test]
fn the_10k_corpus_loads_as_pinned() {
    check(
        "10k",
        &generate_rule_corpus(&RuleCorpusConfig::sized(10_000, 2006)),
        (0x9534_ddbd_8ced_cbbb, 0x576a_e46a_fbf9_16c5),
    );
}

#[test]
fn a_wrapped_hex_multi_content_corpus_loads_as_pinned() {
    let text = generate_rule_corpus(&RuleCorpusConfig {
        rules: 600,
        seed: 46,
        hex_fraction: 0.5,
        multi_content_fraction: 0.5,
        nocase_fraction: 0.3,
        non_alert_fraction: 0.1,
        wrap_fraction: 0.5,
        ..Default::default()
    });
    check(
        "wrapped",
        &text,
        (0x4e2f_a8ff_6db5_1be0, 0x3985_3496_8045_22c6),
    );
}

#[test]
fn escapes_and_a_malformed_tail_load_as_pinned() {
    let text = format!("{ESCAPED}{MALFORMED}");
    let (set, errors) = parse_rules_lenient(&text);
    assert_eq!(
        set.rules.len(),
        7,
        "five escaped rules and two good tail rules"
    );
    assert_eq!(errors.len(), 16, "one diagnostic per malformed line");
    check(
        "malformed",
        &text,
        (0x9db8_917a_1775_0229, 0x0459_1d3e_cb41_8ed1),
    );
}
