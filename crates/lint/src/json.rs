//! Machine-readable output: JSON report rendering and the baseline file.
//!
//! The crate must stay zero-dependency (the lint gate runs fully offline),
//! so this is a small hand-rolled JSON layer: an escaping serializer for
//! reports/baselines and a recursive-descent parser for reading baselines
//! back. The baseline is a ratchet: findings recorded in it are tolerated
//! (matched by `(file, rule, message)` as a multiset, so line drift from
//! unrelated edits does not resurrect them), anything new fails the run.

use std::collections::BTreeMap;

use crate::diagnostics::Diagnostic;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so a hostile document of nested brackets must be
/// rejected as malformed before it exhausts the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (ordered for deterministic re-rendering).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, when this value is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Member lookup, when this value is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in a JSON document (without quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message on malformed input, including
/// nesting deeper than 64 levels.
pub fn parse(text: &str) -> Result<Value, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let value = parse_value(&chars, &mut pos, 0)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing content at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(c: &[char], pos: &mut usize) {
    while c.get(*pos).is_some_and(|ch| ch.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(c: &[char], pos: &mut usize, ch: char) -> Result<(), String> {
    if c.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{ch}` at offset {pos}", pos = *pos))
    }
}

fn parse_value(c: &[char], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(c, pos);
    match c.get(*pos) {
        Some('{' | '[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}",
            pos = *pos
        )),
        Some('{') => parse_obj(c, pos, depth + 1),
        Some('[') => parse_arr(c, pos, depth + 1),
        Some('"') => parse_str(c, pos).map(Value::Str),
        Some('t') if c[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some('f') if c[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some('n') if c[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(ch) if *ch == '-' || ch.is_ascii_digit() => parse_num(c, pos),
        _ => Err(format!("unexpected input at offset {pos}", pos = *pos)),
    }
}

fn parse_num(c: &[char], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while c
        .get(*pos)
        .is_some_and(|ch| ch.is_ascii_digit() || matches!(ch, '-' | '+' | '.' | 'e' | 'E'))
    {
        *pos += 1;
    }
    let text: String = c[start..*pos].iter().collect();
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number `{text}` at offset {start}"))
}

fn parse_str(c: &[char], pos: &mut usize) -> Result<String, String> {
    expect(c, pos, '"')?;
    let mut out = String::new();
    loop {
        match c.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some('"') => {
                *pos += 1;
                return Ok(out);
            }
            Some('\\') => {
                *pos += 1;
                match c.get(*pos) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let hex: String = c
                            .get(*pos + 1..*pos + 5)
                            .map(|s| s.iter().collect())
                            .unwrap_or_default();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("invalid \\u escape `{hex}`"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("invalid escape `{other:?}`")),
                }
                *pos += 1;
            }
            Some(ch) => {
                out.push(*ch);
                *pos += 1;
            }
        }
    }
}

fn parse_arr(c: &[char], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(c, pos, '[')?;
    let mut items = Vec::new();
    skip_ws(c, pos);
    if c.get(*pos) == Some(&']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(c, pos, depth)?);
        skip_ws(c, pos);
        match c.get(*pos) {
            Some(',') => *pos += 1,
            Some(']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(c: &[char], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(c, pos, '{')?;
    let mut map = BTreeMap::new();
    skip_ws(c, pos);
    if c.get(*pos) == Some(&'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(c, pos);
        let key = parse_str(c, pos)?;
        skip_ws(c, pos);
        expect(c, pos, ':')?;
        map.insert(key, parse_value(c, pos, depth)?);
        skip_ws(c, pos);
        match c.get(*pos) {
            Some(',') => *pos += 1,
            Some('}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
        }
    }
}

/// One baseline entry: findings are matched by content, not by line, so
/// unrelated edits that shift code do not resurrect baselined findings.
pub type BaselineEntry = (String, String, String);

/// Renders findings as a committed baseline document.
#[must_use]
pub fn baseline_to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape(&d.file),
            escape(d.rule),
            escape(&d.message),
        ));
    }
    if diags.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Parses a baseline document into its `(file, rule, message)` entries.
///
/// # Errors
///
/// Returns a message when the document is not valid baseline JSON.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = parse(text)?;
    let Some(Value::Arr(findings)) = doc.get("findings") else {
        return Err("baseline: missing `findings` array".to_string());
    };
    let mut entries = Vec::new();
    for f in findings {
        let field = |k: &str| -> Result<String, String> {
            f.get(k)
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| format!("baseline: finding missing string `{k}`"))
        };
        entries.push((field("file")?, field("rule")?, field("message")?));
    }
    Ok(entries)
}

/// Splits findings into (new, baselined-count): each baseline entry absorbs
/// at most one matching finding (multiset semantics).
#[must_use]
pub fn apply_baseline(
    diags: Vec<Diagnostic>,
    baseline: &[BaselineEntry],
) -> (Vec<Diagnostic>, usize) {
    let mut budget: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for (file, rule, message) in baseline {
        *budget
            .entry((file.clone(), rule.clone(), message.clone()))
            .or_insert(0) += 1;
    }
    let mut fresh = Vec::new();
    let mut absorbed = 0usize;
    for d in diags {
        let key = (d.file.clone(), d.rule.to_string(), d.message.clone());
        match budget.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                absorbed += 1;
            }
            _ => fresh.push(d),
        }
    }
    (fresh, absorbed)
}

/// Renders the full machine-readable report: findings, baseline count, and
/// per-rule/severity summary.
#[must_use]
pub fn report_to_json(diags: &[Diagnostic], baselined: usize) -> String {
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    let mut deny = 0usize;
    let mut warn = 0usize;
    for d in diags {
        *by_rule.entry(d.rule).or_insert(0) += 1;
        match d.severity {
            crate::diagnostics::Severity::Deny => deny += 1,
            crate::diagnostics::Severity::Warn => warn += 1,
        }
    }
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"severity\": \"{}\", \"message\": \"{}\"}}",
            escape(&d.file),
            d.line,
            escape(d.rule),
            d.severity,
            escape(&d.message),
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"baselined\": {baselined},\n  \"summary\": {{\"deny\": {deny}, \"warn\": {warn}, \"by_rule\": {{"
    ));
    for (i, (rule, count)) in by_rule.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {count}", escape(rule)));
    }
    out.push_str("}}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::{apply_baseline, baseline_to_json, parse, parse_baseline, report_to_json, Value};
    use crate::diagnostics::{Diagnostic, Severity};

    fn diag(file: &str, line: u32, rule: &'static str, msg: &str) -> Diagnostic {
        Diagnostic::new(file, line, rule, msg)
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(parse(&arrays(super::MAX_DEPTH)).is_ok());
        assert!(parse(&objects(super::MAX_DEPTH)).is_ok());
        for doc in [
            arrays(super::MAX_DEPTH + 1),
            objects(super::MAX_DEPTH + 1),
            "[".repeat(200_000),
        ] {
            let err = parse(&doc).expect_err("over-deep nesting is malformed");
            assert!(err.contains("nesting deeper than 64 levels"), "{err}");
        }
    }

    #[test]
    fn parser_round_trips_a_report() {
        let mut warn = diag("a.rs", 3, "atomic-ordering", "relaxed");
        warn.severity = Severity::Warn;
        let diags = vec![diag("a.rs", 1, "float-eq", "x == \"quoted\"\nnext"), warn];
        let text = report_to_json(&diags, 2);
        let doc = parse(&text).expect("report parses");
        let Some(Value::Arr(findings)) = doc.get("findings") else {
            panic!("findings array");
        };
        assert_eq!(findings.len(), 2);
        assert_eq!(
            findings[0].get("message").and_then(Value::as_str),
            Some("x == \"quoted\"\nnext")
        );
        assert_eq!(doc.get("baselined"), Some(&Value::Num(2.0)));
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("deny"), Some(&Value::Num(1.0)));
        assert_eq!(summary.get("warn"), Some(&Value::Num(1.0)));
        assert_eq!(
            summary.get("by_rule").and_then(|b| b.get("float-eq")),
            Some(&Value::Num(1.0))
        );
    }

    #[test]
    fn baseline_round_trips_and_absorbs_as_multiset() {
        let recorded = vec![
            diag("a.rs", 1, "no-panic", "unwrap"),
            diag("a.rs", 9, "no-panic", "unwrap"),
        ];
        let baseline = parse_baseline(&baseline_to_json(&recorded)).expect("baseline parses");
        // Three identical findings against two baseline slots: one is new.
        let now = vec![
            diag("a.rs", 2, "no-panic", "unwrap"),
            diag("a.rs", 10, "no-panic", "unwrap"),
            diag("a.rs", 20, "no-panic", "unwrap"),
        ];
        let (fresh, absorbed) = apply_baseline(now, &baseline);
        assert_eq!(absorbed, 2);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].line, 20);
    }

    #[test]
    fn empty_baseline_parses() {
        let text = baseline_to_json(&[]);
        assert_eq!(parse_baseline(&text).expect("parses"), Vec::new());
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(parse("{\"findings\": [").is_err());
        assert!(parse("").is_err());
        assert!(parse_baseline("{}").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
    }
}
