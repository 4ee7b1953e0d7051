//! A Snort-subset rule parser.
//!
//! Split-Detect handles the simplest signature form — one exact byte
//! string — so this parser accepts the corresponding subset of Snort's
//! rule language: `alert` rules whose detection logic is `content`
//! matches. That is enough to load real-world content rules and is the
//! adoption path the paper assumes (an IPS already has a rule corpus).
//!
//! ```text
//! alert tcp any any -> any 80 (msg:"SHELLCODE x86 NOOP"; content:"|90 90 90 90|"; sid:648;)
//! ```
//!
//! Supported: `alert` action; `tcp`/`udp`/`ip` protocols; address/port
//! fields (parsed, stored, not used for matching — Split-Detect scans all
//! flows); options `msg`, `content` (with `|hex|` escapes and `\"`, `\\`,
//! `\;`, `\|` character escapes), `sid`, `rev`, and `nocase` (recorded;
//! matching stays case-sensitive and a loud count is kept, since exact
//! matching is the paper's model). Unknown options are preserved verbatim
//! and ignored, so real rule files load without editing.
//!
//! When a rule has several `content`s, the longest becomes the signature
//! (each `content` of a real rule must independently appear in the stream,
//! so matching any one of them is a sound over-approximation for
//! *diversion*; the slow path confirms on the chosen string).
//!
//! Two entry points over one loop: [`parse_rules_lenient`] loads every
//! well-formed rule and returns line-numbered diagnostics for the rest
//! (right for deployment-scale corpora); [`parse_rules`] is strict and
//! fails with the first diagnostic (right for small hand-written files).
//! The loader borrows from the text wherever it can: a line without a
//! continuation, an option, a quoted value without a backslash and a
//! content's literal runs are slices of the input until the parsed
//! [`Rule`] copies them. [`Rule::to_text`] / [`RuleSet::to_text`]
//! serialize back into the accepted subset, so parse→serialize→parse is
//! the identity on the parsed form.

use std::borrow::Cow;
use std::fmt;

use crate::signature::{Signature, SignatureSet};

/// Protocol field of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleProto {
    /// `tcp`
    Tcp,
    /// `udp`
    Udp,
    /// `ip` (any transport)
    Ip,
}

/// One parsed rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Protocol the rule applies to.
    pub proto: RuleProto,
    /// Source address expression (verbatim; not used for matching).
    pub src: String,
    /// Source port expression (verbatim).
    pub src_port: String,
    /// Destination address expression (verbatim).
    pub dst: String,
    /// Destination port expression (verbatim).
    pub dst_port: String,
    /// `msg` option.
    pub msg: String,
    /// All `content` strings, decoded.
    pub contents: Vec<Vec<u8>>,
    /// `sid` option (0 when absent).
    pub sid: u32,
    /// `rev` option (0 when absent).
    pub rev: u32,
    /// Whether any `content` carried `nocase` (recorded, not honored).
    pub nocase: bool,
}

impl Rule {
    /// The content string used as the exact-match signature: the longest.
    pub fn signature_bytes(&self) -> &[u8] {
        self.contents
            .iter()
            .max_by_key(|c| c.len())
            .map(|c| c.as_slice())
            .expect("parser rejects content-less rules")
    }

    /// Rule name for alerts: `sid:msg`.
    pub fn name(&self) -> String {
        if self.msg.is_empty() {
            format!("sid-{}", self.sid)
        } else {
            format!("sid-{}:{}", self.sid, self.msg)
        }
    }

    /// Serialize back to one rule line in the subset this parser accepts.
    /// `parse_rules(rule.to_text())` yields an equal `Rule`: contents are
    /// re-encoded with `\"`/`\\` character escapes and `|hex|` runs for
    /// everything non-printable (including `|` itself, which only has a
    /// hex spelling — a backslash escape would be re-read as a run
    /// delimiter after unquoting).
    pub fn to_text(&self) -> String {
        let proto = match self.proto {
            RuleProto::Tcp => "tcp",
            RuleProto::Udp => "udp",
            RuleProto::Ip => "ip",
        };
        let mut opts = format!("msg:\"{}\";", escape_quoted(&self.msg));
        for content in &self.contents {
            opts.push_str(&format!(" content:\"{}\";", encode_content(content)));
        }
        if self.nocase {
            opts.push_str(" nocase;");
        }
        opts.push_str(&format!(" sid:{}; rev:{};", self.sid, self.rev));
        format!(
            "alert {proto} {} {} -> {} {} ({opts})",
            self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

/// Escape a string for inclusion inside a quoted option value.
fn escape_quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        if ch == '"' || ch == '\\' {
            out.push('\\');
        }
        out.push(ch);
    }
    out
}

/// Encode content bytes in Snort content syntax (inverse of
/// [`decode_content`] ∘ [`unquote`]): printable ASCII stays literal (with
/// `\"`/`\\` escapes), everything else — including `|` — becomes a
/// `|hex|` run, with consecutive hex bytes merged into one run.
fn encode_content(bytes: &[u8]) -> String {
    let mut out = String::new();
    let mut hex: Vec<u8> = Vec::new();
    fn flush(out: &mut String, hex: &mut Vec<u8>) {
        if hex.is_empty() {
            return;
        }
        out.push('|');
        for (i, b) in hex.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{b:02X}"));
        }
        out.push('|');
        hex.clear();
    }
    for &b in bytes {
        match b {
            b'"' | b'\\' => {
                flush(&mut out, &mut hex);
                out.push('\\');
                out.push(b as char);
            }
            0x20..=0x7E if b != b'|' => {
                flush(&mut out, &mut hex);
                out.push(b as char);
            }
            _ => hex.push(b),
        }
    }
    flush(&mut out, &mut hex);
    out
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule parse error on line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for RuleParseError {}

/// Outcome of parsing a rule file.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// Rules in file order.
    pub rules: Vec<Rule>,
    /// Count of `nocase` modifiers seen (and not honored).
    pub nocase_ignored: usize,
    /// Non-`alert` rules skipped (logged, not errors — rule files mix
    /// actions).
    pub skipped_actions: usize,
}

impl RuleSet {
    /// Compile to the engine's [`SignatureSet`]; `SignatureId` i maps to
    /// `rules[i]`.
    pub fn to_signatures(&self) -> SignatureSet {
        SignatureSet::from_signatures(
            self.rules
                .iter()
                .map(|r| Signature::new(r.name(), r.signature_bytes().to_vec())),
        )
    }

    /// Serialize every rule back to text, one line each. Re-parsing the
    /// result yields an equal `rules` vector (skipped non-alert actions
    /// are not round-tripped — the set never stored them).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for rule in &self.rules {
            out.push_str(&rule.to_text());
            out.push('\n');
        }
        out
    }
}

/// Parse a whole rule file. `#` comments and blank lines are skipped;
/// every other line must be a rule. Fails with the first malformed
/// rule's diagnostic (the first that [`parse_rules_lenient`] reports).
///
/// ```
/// let set = sd_ips::rules::parse_rules(
///     r#"alert tcp any any -> any 80 (msg:"nop sled"; content:"|90 90 90 90|AAAAAAAAAA"; sid:9;)"#,
/// ).unwrap();
/// assert_eq!(set.rules[0].sid, 9);
/// assert_eq!(&set.rules[0].contents[0][..4], &[0x90u8; 4]);
/// let sigs = set.to_signatures(); // feed to any engine
/// assert_eq!(sigs.len(), 1);
/// ```
pub fn parse_rules(text: &str) -> Result<RuleSet, RuleParseError> {
    let (set, errors) = parse_rules_lenient(text);
    match errors.into_iter().next() {
        Some(first) => Err(first),
        None => Ok(set),
    }
}

/// Parse a rule file leniently: malformed rules are collected as
/// line-numbered diagnostics instead of aborting, and every well-formed
/// rule still loads. This is how deployment-scale corpora are ingested —
/// a 10k-rule file with three typos should load 9 997 rules and report
/// exactly three errors, stably pointing at the offending lines.
pub fn parse_rules_lenient(text: &str) -> (RuleSet, Vec<RuleParseError>) {
    let mut set = RuleSet::default();
    let mut errors = Vec::new();
    for (line_no, raw) in logical_lines(text) {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_rule_line(line, line_no) {
            Ok(Some(rule)) => {
                set.nocase_ignored += usize::from(rule.nocase);
                set.rules.push(rule);
            }
            Ok(None) => set.skipped_actions += 1,
            Err(e) => errors.push(e),
        }
    }
    (set, errors)
}

/// Join trailing-backslash continuations (Snort rule files wrap long rules
/// this way), tracking the line each logical rule starts on. A line that
/// neither continues nor is continued is borrowed from `text`.
fn logical_lines(text: &str) -> Vec<(usize, Cow<'_, str>)> {
    let mut logical = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        match pending.take() {
            Some((start, mut acc)) => {
                let cont = raw.trim_start();
                if let Some(stripped) = cont.strip_suffix('\\') {
                    acc.push_str(stripped);
                    pending = Some((start, acc));
                } else {
                    acc.push_str(cont);
                    logical.push((start, Cow::Owned(acc)));
                }
            }
            None => match raw.trim_end().strip_suffix('\\') {
                Some(stripped) => pending = Some((line_no, stripped.to_string())),
                None => logical.push((line_no, Cow::Borrowed(raw))),
            },
        }
    }
    if let Some((start, acc)) = pending {
        logical.push((start, Cow::Owned(acc))); // dangling continuation: parse as-is
    }
    logical
}

fn err(line: usize, reason: impl Into<String>) -> RuleParseError {
    RuleParseError {
        line,
        reason: reason.into(),
    }
}

/// Parse one rule line; `Ok(None)` for recognized-but-skipped actions.
fn parse_rule_line(line: &str, line_no: usize) -> Result<Option<Rule>, RuleParseError> {
    let open = line
        .find('(')
        .ok_or_else(|| err(line_no, "missing option block '('"))?;
    if !line.trim_end().ends_with(')') {
        return Err(err(line_no, "missing closing ')'"));
    }
    let head = &line[..open];
    let body = &line.trim_end()[open + 1..line.trim_end().len() - 1];

    let fields: Vec<&str> = head.split_whitespace().collect();
    if fields.len() != 7 {
        return Err(err(
            line_no,
            format!(
                "header needs 7 fields (action proto src sport -> dst dport), got {}",
                fields.len()
            ),
        ));
    }
    match fields[0] {
        "alert" => {}
        "log" | "pass" | "drop" | "reject" | "sdrop" => return Ok(None),
        other => return Err(err(line_no, format!("unknown action {other:?}"))),
    }
    let proto = match fields[1] {
        "tcp" => RuleProto::Tcp,
        "udp" => RuleProto::Udp,
        "ip" => RuleProto::Ip,
        other => return Err(err(line_no, format!("unsupported protocol {other:?}"))),
    };
    if fields[4] != "->" && fields[4] != "<>" {
        return Err(err(
            line_no,
            format!("expected '->' or '<>', got {:?}", fields[4]),
        ));
    }

    let mut rule = Rule {
        proto,
        src: fields[2].to_string(),
        src_port: fields[3].to_string(),
        dst: fields[5].to_string(),
        dst_port: fields[6].to_string(),
        msg: String::new(),
        contents: Vec::new(),
        sid: 0,
        rev: 0,
        nocase: false,
    };

    for opt in split_options(body, line_no)? {
        let (name, value) = match opt.split_once(':') {
            Some((n, v)) => (n.trim(), Some(v.trim())),
            None => (opt, None),
        };
        match name {
            "msg" => {
                rule.msg = unquote(value.unwrap_or(""), line_no)?.into_owned();
            }
            "content" => {
                let raw = unquote(value.unwrap_or(""), line_no)?;
                let decoded = decode_content(&raw, line_no)?;
                if decoded.is_empty() {
                    return Err(err(line_no, "empty content"));
                }
                rule.contents.push(decoded);
            }
            "sid" => {
                rule.sid = value
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(line_no, "bad sid"))?;
            }
            "rev" => {
                rule.rev = value
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| err(line_no, "bad rev"))?;
            }
            "nocase" => rule.nocase = true,
            // Everything else (classtype, flow, depth, offset, pcre, …) is
            // accepted and ignored so real rule files load unedited.
            _ => {}
        }
    }

    if rule.contents.is_empty() {
        return Err(err(
            line_no,
            "rule has no content option (only exact-string rules are supported)",
        ));
    }
    Ok(Some(rule))
}

/// Split the option body on the `;`s outside quoted strings (inside
/// quotes a backslash escapes the next byte) in one pass: jump to the next
/// `"`, split on the `;`s before it, jump past its closing quote, repeat.
/// The options come back trimmed, empty ones dropped, as slices of `body`.
fn split_options<'a>(body: &'a str, line_no: usize) -> Result<Vec<&'a str>, RuleParseError> {
    let mut opts = Vec::with_capacity(16);
    let mut push = |opt: &'a str| {
        let opt = opt.trim();
        if !opt.is_empty() {
            opts.push(opt);
        }
    };
    // `start` opens the current option; `from` is outside any quotes.
    let (mut start, mut from) = (0, 0);
    loop {
        let quote = body[from..].find('"').map_or(body.len(), |at| from + at);
        while let Some(at) = body[from..quote].find(';') {
            push(&body[start..from + at]);
            start = from + at + 1;
            from = start;
        }
        if quote == body.len() {
            break;
        }
        from = closing_quote(body, quote + 1)
            .ok_or_else(|| err(line_no, "unterminated quoted string"))?
            + 1;
    }
    push(&body[start..]);
    Ok(opts)
}

/// The `"` that closes a quoted string whose text starts at `from`: the
/// first one behind an even run of backslashes (each pair is an escaped
/// backslash; an odd one out escapes the quote).
fn closing_quote(s: &str, mut from: usize) -> Option<usize> {
    loop {
        let quote = from + s[from..].find('"')?;
        let backslashes = s.as_bytes()[from..quote]
            .iter()
            .rev()
            .take_while(|&&b| b == b'\\')
            .count();
        if backslashes % 2 == 0 {
            return Some(quote);
        }
        from = quote + 1;
    }
}

/// Strip surrounding quotes and process character escapes; a value
/// without a backslash is borrowed.
fn unquote(v: &str, line_no: usize) -> Result<Cow<'_, str>, RuleParseError> {
    let v = v.trim();
    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
        return Err(err(line_no, format!("expected quoted string, got {v:?}")));
    }
    let inner = &v[1..v.len() - 1];
    if !inner.contains('\\') {
        return Ok(Cow::Borrowed(inner));
    }
    let mut out = String::with_capacity(inner.len());
    let mut escaped = false;
    for ch in inner.chars() {
        if escaped {
            match ch {
                '"' | '\\' | ';' | '|' | ':' => out.push(ch),
                other => return Err(err(line_no, format!("bad escape \\{other}"))),
            }
            escaped = false;
        } else if ch == '\\' {
            escaped = true;
        } else {
            out.push(ch);
        }
    }
    if escaped {
        return Err(err(line_no, "dangling backslash"));
    }
    Ok(Cow::Owned(out))
}

/// Decode Snort content syntax: literal bytes with `|DE AD BE EF|` hex
/// runs. Literal runs are copied as slices and hex tokens read in place.
fn decode_content(s: &str, line_no: usize) -> Result<Vec<u8>, RuleParseError> {
    let mut out = Vec::with_capacity(s.len());
    let mut rest = s;
    while let Some(open) = rest.find('|') {
        out.extend_from_slice(&rest.as_bytes()[..open]);
        let run = &rest[open + 1..];
        let close = run
            .find('|')
            .ok_or_else(|| err(line_no, "unterminated |hex| run"))?;
        for tok in run[..close].split_whitespace() {
            if tok.len() != 2 {
                return Err(err(line_no, format!("bad hex byte {tok:?}")));
            }
            let byte = u8::from_str_radix(tok, 16)
                .map_err(|_| err(line_no, format!("bad hex byte {tok:?}")))?;
            out.push(byte);
        }
        rest = &run[close + 1..];
    }
    out.extend_from_slice(rest.as_bytes());
    Ok(out)
}

/// The embedded demo rule file used by examples and the CLI when no rules
/// are supplied.
pub const DEMO_RULES: &str = r#"# split-detect demo rules (Snort-subset)
alert tcp any any -> any any (msg:"SHELL /bin/sh exec"; content:"/bin/sh -c 'cat /etc/passwd'"; sid:1000001; rev:1;)
alert tcp any any -> any 80 (msg:"HTTP cmd.exe traversal"; content:"GET /scripts/..%255c../winnt/system32/cmd.exe"; sid:1000002; rev:2;)
alert tcp any any -> any any (msg:"SQLi union select"; content:"' UNION SELECT password FROM users--"; sid:1000003; rev:1;)
alert tcp any any -> any any (msg:"x86 NOOP sled"; content:"|90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90|"; sid:1000004; rev:3;)
alert udp any any -> any 53 (msg:"DNS infoleak"; content:"version.bind CHAOS TXT exfil"; sid:1000005; rev:1;)
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_rules_parse() {
        let set = parse_rules(DEMO_RULES).unwrap();
        assert_eq!(set.rules.len(), 5);
        assert_eq!(set.skipped_actions, 0);
        let sigs = set.to_signatures();
        assert_eq!(sigs.len(), 5);
        assert!(
            sigs.min_len().unwrap() >= 12,
            "demo rules must be splittable"
        );
    }

    #[test]
    fn hex_runs_decode() {
        let set = parse_rules(
            r#"alert tcp any any -> any any (msg:"mix"; content:"AB|43 44|EF"; sid:5;)"#,
        )
        .unwrap();
        assert_eq!(set.rules[0].contents[0], b"ABCDEF");
        assert_eq!(set.rules[0].sid, 5);
    }

    #[test]
    fn character_escapes_decode() {
        let set =
            parse_rules(r#"alert tcp any any -> any any (msg:"q"; content:"a\"b\\c\;d"; sid:6;)"#)
                .unwrap();
        assert_eq!(set.rules[0].contents[0], b"a\"b\\c;d");
    }

    #[test]
    fn longest_content_wins() {
        let set = parse_rules(
            r#"alert tcp any any -> any any (msg:"two"; content:"short"; content:"muchlongercontent"; sid:7;)"#,
        )
        .unwrap();
        assert_eq!(set.rules[0].signature_bytes(), b"muchlongercontent");
        assert_eq!(set.rules[0].contents.len(), 2);
    }

    #[test]
    fn non_alert_actions_skipped() {
        let set = parse_rules(
            "pass tcp any any -> any any (content:\"x\"; sid:1;)\n\
             alert tcp any any -> any any (content:\"real-signature\"; sid:2;)",
        )
        .unwrap();
        assert_eq!(set.rules.len(), 1);
        assert_eq!(set.skipped_actions, 1);
    }

    #[test]
    fn nocase_is_counted_not_honored() {
        let set =
            parse_rules(r#"alert tcp any any -> any any (content:"CaseMatters"; nocase; sid:9;)"#)
                .unwrap();
        assert_eq!(set.nocase_ignored, 1);
        assert!(set.rules[0].nocase);
    }

    #[test]
    fn unknown_options_ignored() {
        let set = parse_rules(
            r#"alert tcp $EXTERNAL_NET any -> $HOME_NET 80 (msg:"real"; flow:to_server,established; content:"attackstring"; depth:200; classtype:web-application-attack; sid:10; rev:4;)"#,
        )
        .unwrap();
        assert_eq!(set.rules[0].contents[0], b"attackstring");
        assert_eq!(set.rules[0].rev, 4);
        assert_eq!(set.rules[0].src, "$EXTERNAL_NET");
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let set = parse_rules("# a comment\n\n  \n").unwrap();
        assert!(set.rules.is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e =
            parse_rules("# ok\nalert tcp any any -> any any content:\"x\"; sid:1;").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));

        for bad in [
            r#"alert tcp any any -> any any (content:"x")"#.to_string() + "extra",
            r#"alert tcp any any any any (content:"x"; sid:1;)"#.into(),
            r#"alert icmp any any -> any any (content:"x"; sid:1;)"#.into(),
            r#"frob tcp any any -> any any (content:"x"; sid:1;)"#.into(),
            r#"alert tcp any any -> any any (content:"a|9|b"; sid:1;)"#.into(),
            r#"alert tcp any any -> any any (content:"a|90"; sid:1;)"#.into(),
            r#"alert tcp any any -> any any (content:"unterminated; sid:1;)"#.into(),
            r#"alert tcp any any -> any any (msg:"no content"; sid:1;)"#.into(),
            r#"alert tcp any any -> any any (content:""; sid:1;)"#.into(),
            r#"alert tcp any any -> any any (content:"x"; sid:zzz;)"#.into(),
        ] {
            assert!(parse_rules(&bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn backslash_continuations_join_lines() {
        let set = parse_rules(
            "alert tcp any any -> any any \\\n    (msg:\"wrapped\"; \\\n    content:\"wrapped-rule-content\"; sid:88;)\nalert tcp any any -> any any (content:\"second-rule-x\"; sid:89;)",
        )
        .unwrap();
        assert_eq!(set.rules.len(), 2);
        assert_eq!(set.rules[0].sid, 88);
        assert_eq!(set.rules[0].contents[0], b"wrapped-rule-content");
        assert_eq!(set.rules[1].sid, 89);
    }

    #[test]
    fn continuation_errors_report_first_line() {
        let e = parse_rules("# ok\nalert tcp any any \\\n-> any any (content:\"x\"; sid:zzz;)")
            .unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn lenient_collects_errors_and_keeps_good_rules() {
        let text = "alert tcp any any -> any any (content:\"first-good-rule\"; sid:1;)\n\
                    alert icmp any any -> any any (content:\"bad-proto\"; sid:2;)\n\
                    # comment\n\
                    alert tcp any any -> any any (msg:\"no content\"; sid:3;)\n\
                    pass tcp any any -> any any (content:\"skipped\"; sid:4;)\n\
                    alert tcp any any -> any any (content:\"second-good-rule\"; sid:5;)";
        let (set, errors) = parse_rules_lenient(text);
        assert_eq!(set.rules.len(), 2);
        assert_eq!(set.rules[0].sid, 1);
        assert_eq!(set.rules[1].sid, 5);
        assert_eq!(set.skipped_actions, 1);
        assert_eq!(errors.len(), 2);
        assert_eq!(errors[0].line, 2);
        assert!(errors[0].reason.contains("icmp"));
        assert_eq!(errors[1].line, 4);
        // Diagnostics are stable: a second parse reports the same errors.
        let (_, again) = parse_rules_lenient(text);
        assert_eq!(errors, again);
    }

    #[test]
    fn lenient_agrees_with_strict_on_clean_input() {
        let (set, errors) = parse_rules_lenient(DEMO_RULES);
        let strict = parse_rules(DEMO_RULES).unwrap();
        assert!(errors.is_empty());
        assert_eq!(set.rules, strict.rules);
        assert_eq!(set.nocase_ignored, strict.nocase_ignored);
    }

    #[test]
    fn serialize_round_trips_demo_rules() {
        let set = parse_rules(DEMO_RULES).unwrap();
        let text = set.to_text();
        let again = parse_rules(&text).unwrap();
        assert_eq!(set.rules, again.rules);
        assert_eq!(set.nocase_ignored, again.nocase_ignored);
    }

    #[test]
    fn serialize_round_trips_awkward_bytes() {
        // Pipe, quote, backslash, NUL, high bytes, semicolon, colon — every
        // byte class the encoder must spell differently.
        let rule = Rule {
            proto: RuleProto::Udp,
            src: "$HOME_NET".into(),
            src_port: "any".into(),
            dst: "10.0.0.0/8".into(),
            dst_port: "53".into(),
            msg: r#"quote " back \ slash; colon:"#.into(),
            contents: vec![
                b"a|b\"c\\d;e:f".to_vec(),
                vec![0x00, 0xff, 0x7c, 0x90, b'A', 0x01, b'B'],
            ],
            sid: 77,
            rev: 3,
            nocase: true,
        };
        let text = rule.to_text();
        let set = parse_rules(&text).unwrap();
        assert_eq!(set.rules.len(), 1);
        assert_eq!(set.rules[0], rule);
        // And the serialized form itself is stable.
        assert_eq!(set.rules[0].to_text(), text);
    }

    #[test]
    fn engine_detects_rule_loaded_signature() {
        use crate::api::run_trace;
        use crate::conventional::ConventionalIps;
        use sd_packet::builder::TcpPacketSpec;

        let set = parse_rules(
            r#"alert tcp any any -> any any (msg:"hexsig"; content:"|45 56 49 4c|_PAYLOAD_BYTES"; sid:42;)"#,
        )
        .unwrap();
        let mut ips = ConventionalIps::new(set.to_signatures());
        let frame = TcpPacketSpec::new("10.0.0.1:1000", "10.0.0.2:80")
            .seq(1)
            .payload(b"...EVIL_PAYLOAD_BYTES...")
            .build();
        let alerts = run_trace(&mut ips, [frame.as_slice()]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(set.rules[alerts[0].signature].sid, 42);
    }
}
