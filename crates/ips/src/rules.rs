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
//! Each line is read in one pass: the header's fields and the options
//! are slices of the text, and a content's escapes and `|hex|` runs are
//! decoded in the same scan (so `\|` is a literal `|`, never a run
//! delimiter); the only allocations are the parsed [`Rule`]'s own fields. [`Rule::to_text`] / [`RuleSet::to_text`]
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
        use fmt::Write as _;
        // Sized up front: `sid-`, ten digits, `:` and the message.
        let mut name = String::with_capacity(15 + self.msg.len());
        let _ = write!(name, "sid-{}", self.sid);
        if !self.msg.is_empty() {
            name.push(':');
            name.push_str(&self.msg);
        }
        name
    }

    /// Serialize back to one rule line in the subset this parser accepts.
    /// `parse_rules(rule.to_text())` yields an equal `Rule`: contents are
    /// re-encoded with `\"`/`\\` character escapes and `|hex|` runs for
    /// everything non-printable (including `|` itself, always spelled
    /// `|7C|`).
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
/// [`decode_content`]): printable ASCII stays literal (with
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
/// this way), one logical rule at a time, each with the line it starts
/// on. A line that neither continues nor is continued is borrowed from
/// `text`.
fn logical_lines(text: &str) -> impl Iterator<Item = (usize, Cow<'_, str>)> {
    let mut lines = text.lines().enumerate();
    std::iter::from_fn(move || {
        let (idx, raw) = lines.next()?;
        let Some(stripped) = raw.trim_end().strip_suffix('\\') else {
            return Some((idx + 1, Cow::Borrowed(raw)));
        };
        let mut acc = stripped.to_string();
        for (_, raw) in lines.by_ref() {
            let cont = raw.trim_start();
            match cont.strip_suffix('\\') {
                Some(stripped) => acc.push_str(stripped),
                None => {
                    acc.push_str(cont);
                    break;
                }
            }
        }
        // A dangling continuation at the end of the text parses as-is.
        Some((idx + 1, Cow::Owned(acc)))
    })
}

fn err(line: usize, reason: impl Into<String>) -> RuleParseError {
    RuleParseError {
        line,
        reason: reason.into(),
    }
}

/// Parse one rule line; `Ok(None)` for recognized-but-skipped actions.
/// The header's fields and the options are read in place; the only
/// allocations are the [`Rule`]'s own fields.
fn parse_rule_line(line: &str, line_no: usize) -> Result<Option<Rule>, RuleParseError> {
    let open = line
        .find('(')
        .ok_or_else(|| err(line_no, "missing option block '('"))?;
    let Some(body) = line.trim_end().strip_suffix(')') else {
        return Err(err(line_no, "missing closing ')'"));
    };
    let body = &body[open + 1..];

    let mut fields = [""; 7];
    let mut count = 0;
    for field in line[..open].split_whitespace() {
        if let Some(slot) = fields.get_mut(count) {
            *slot = field;
        }
        count += 1;
    }
    if count != 7 {
        return Err(err(
            line_no,
            format!("header needs 7 fields (action proto src sport -> dst dport), got {count}"),
        ));
    }
    let [action, proto, src, src_port, arrow, dst, dst_port] = fields;
    match action {
        "alert" => {}
        "log" | "pass" | "drop" | "reject" | "sdrop" => return Ok(None),
        other => return Err(err(line_no, format!("unknown action {other:?}"))),
    }
    let proto = match proto {
        "tcp" => RuleProto::Tcp,
        "udp" => RuleProto::Udp,
        "ip" => RuleProto::Ip,
        other => return Err(err(line_no, format!("unsupported protocol {other:?}"))),
    };
    if arrow != "->" && arrow != "<>" {
        return Err(err(
            line_no,
            format!("expected '->' or '<>', got {arrow:?}"),
        ));
    }

    let mut rule = Rule {
        proto,
        src: src.to_string(),
        src_port: src_port.to_string(),
        dst: dst.to_string(),
        dst_port: dst_port.to_string(),
        msg: String::new(),
        // Most rules have one content.
        contents: Vec::with_capacity(1),
        sid: 0,
        rev: 0,
        nocase: false,
    };
    // The first option's diagnostic; an unterminated quoted string
    // anywhere in the body outranks it.
    let mut failed = None;
    for_each_option(body, line_no, |name, value| {
        if failed.is_none() {
            failed = apply_option(&mut rule, name, value, line_no).err();
        }
    })?;
    if let Some(e) = failed {
        return Err(e);
    }

    if rule.contents.is_empty() {
        return Err(err(
            line_no,
            "rule has no content option (only exact-string rules are supported)",
        ));
    }
    Ok(Some(rule))
}

/// Apply one option, `name` or `name:value` (both trimmed), to `rule`.
fn apply_option(
    rule: &mut Rule,
    name: &str,
    value: Option<&str>,
    line_no: usize,
) -> Result<(), RuleParseError> {
    match name {
        "msg" => rule.msg = unescape(quoted(value.unwrap_or(""), line_no)?, line_no)?,
        "content" => {
            let decoded = decode_content(quoted(value.unwrap_or(""), line_no)?, line_no)?;
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
    Ok(())
}

/// Call `each(name, value)` on every option of the body: the text between
/// the `;`s outside quoted strings (inside quotes a backslash escapes the
/// next byte), trimmed, empty ones skipped, split at its first `:` outside
/// quotes into a trimmed name and value (`None` without a `:`). One pass:
/// byte by byte outside quotes, a jump to the closing quote at each `"`.
/// Fails, having called `each` on the options before it, at a quote that
/// never closes.
fn for_each_option<'a>(
    body: &'a str,
    line_no: usize,
    mut each: impl FnMut(&'a str, Option<&'a str>),
) -> Result<(), RuleParseError> {
    let mut emit = |start: usize, colon: Option<usize>, end: usize| match colon {
        Some(at) => each(body[start..at].trim(), Some(body[at + 1..end].trim())),
        None => {
            let opt = body[start..end].trim();
            if !opt.is_empty() {
                each(opt, None);
            }
        }
    };
    let bytes = body.as_bytes();
    // The current option opens at `start`; `colon` is its first `:`.
    let (mut start, mut colon, mut i) = (0, None, 0);
    while let Some(&b) = bytes.get(i) {
        match b {
            b';' => {
                emit(start, colon, i);
                (start, colon) = (i + 1, None);
            }
            b':' if colon.is_none() => colon = Some(i),
            b'"' => {
                i = closing_quote(body, i + 1)
                    .ok_or_else(|| err(line_no, "unterminated quoted string"))?;
            }
            _ => {}
        }
        i += 1;
    }
    emit(start, colon, body.len());
    Ok(())
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

/// The text inside a quoted option value, escapes still in place.
fn quoted(v: &str, line_no: usize) -> Result<&str, RuleParseError> {
    let v = v.trim();
    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
        return Err(err(line_no, format!("expected quoted string, got {v:?}")));
    }
    Ok(&v[1..v.len() - 1])
}

/// The byte that the backslash escape opening `s` stands for.
fn escaped(s: &str, line_no: usize) -> Result<u8, RuleParseError> {
    match s.as_bytes().get(1) {
        Some(&b @ (b'"' | b'\\' | b';' | b'|' | b':')) => Ok(b),
        Some(_) => {
            let other = s[1..].chars().next().unwrap_or_default();
            Err(err(line_no, format!("bad escape \\{other}")))
        }
        None => Err(err(line_no, "dangling backslash")),
    }
}

/// Quoted text with its character escapes applied.
fn unescape(inner: &str, line_no: usize) -> Result<String, RuleParseError> {
    let mut out = String::with_capacity(inner.len());
    let mut rest = inner;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        out.push(char::from(escaped(&rest[at..], line_no)?));
        rest = &rest[at + 2..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Decode a content's quoted text in one pass: literal bytes, character
/// escapes (`\|` is a literal `|`) and `|DE AD BE EF|` hex runs, read in
/// place (a run is copied only when it holds an escape). Every escape is
/// checked before a malformed run is reported, so a bad escape anywhere
/// in the text is the diagnostic.
fn decode_content(inner: &str, line_no: usize) -> Result<Vec<u8>, RuleParseError> {
    let bytes = inner.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut bad_run = None;
    let mut i = 0;
    loop {
        let stop = bytes[i..]
            .iter()
            .position(|&b| b == b'\\' || b == b'|')
            .map_or(bytes.len(), |at| i + at);
        out.extend_from_slice(&bytes[i..stop]);
        i = stop;
        match bytes.get(i) {
            None => break,
            Some(b'\\') => {
                out.push(escaped(&inner[i..], line_no)?);
                i += 2;
            }
            Some(_) => {
                // A `|` opens a hex run; the next unescaped `|` closes it.
                let run = i + 1;
                let (mut j, mut escapes) = (run, false);
                while j < bytes.len() && bytes[j] != b'|' {
                    if bytes[j] == b'\\' {
                        escaped(&inner[j..], line_no)?;
                        escapes = true;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                if j >= bytes.len() {
                    bad_run.get_or_insert_with(|| err(line_no, "unterminated |hex| run"));
                    break;
                }
                if bad_run.is_none() {
                    let text = &inner[run..j];
                    bad_run = if escapes {
                        hex_bytes(&unescape(text, line_no)?, &mut out, line_no)
                    } else {
                        hex_bytes(text, &mut out, line_no)
                    }
                    .err();
                }
                i = j + 1;
            }
        }
    }
    match bad_run {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Append the bytes of a hex run's text: whitespace-separated two-digit
/// hex tokens.
fn hex_bytes(text: &str, out: &mut Vec<u8>, line_no: usize) -> Result<(), RuleParseError> {
    for tok in text.split_whitespace() {
        let byte = Some(tok)
            .filter(|tok| tok.len() == 2)
            .and_then(|tok| u8::from_str_radix(tok, 16).ok())
            .ok_or_else(|| err(line_no, format!("bad hex byte {tok:?}")))?;
        out.push(byte);
    }
    Ok(())
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
    fn escaped_pipes_in_content_are_literal() {
        let set = parse_rules(
            r#"alert tcp any any -> any any (content:"abc\|def_ghijklmnop"; content:"\|41\|-and-more-bytes"; sid:8;)"#,
        )
        .unwrap();
        assert_eq!(set.rules[0].contents[0], b"abc|def_ghijklmnop");
        assert_eq!(set.rules[0].contents[1], b"|41|-and-more-bytes");
        // `to_text` still spells `|` as a hex run, and it reads back.
        let again = parse_rules(&set.rules[0].to_text()).unwrap();
        assert_eq!(again.rules, set.rules);
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
