//! Manifest/trace ingestion and regression diffing.
//!
//! This module is the library behind the `obs_report` binary: it parses
//! the NDJSON emitted by [`crate::manifest`] and [`crate::trace`] back
//! into [`RunDoc`]s, renders human-readable cross-run summaries, and
//! diffs two runs' golden counters, profile trees, and traced channels
//! with per-channel tolerance bands. The diff is what CI runs between
//! the `RCS_THREADS=1` and `RCS_THREADS=4` legs of `exp_all` and
//! against the committed golden profiles — a drifted counter, profile
//! node, or trace sample turns into a nonzero exit code instead of a
//! silently different float on stdout.
//!
//! Only the golden channel is compared: `timing` and `note` lines are
//! parsed and discarded, because they legitimately vary run to run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::profile;

// ---------------------------------------------------------------------
// Minimal JSON value + parser (the workspace is dependency-free).
// ---------------------------------------------------------------------

/// A parsed JSON value. Unsigned integer literals (digits only: no
/// sign, fraction or exponent) that fit a `u64` parse to the exact
/// [`Json::Int`]; every other number is an `f64`. Golden counters are
/// `u64`s, so they never pass through a float on the way to a diff.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer literal, exact.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float (`null` reads as NaN, the encoding
    /// [`crate::trace::render_ndjson`] uses for non-finite samples).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            #[allow(clippy::cast_precision_loss)]
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a non-negative integer: only an unsigned integer
    /// literal that fits a `u64` qualifies. Fractions, exponents,
    /// negatives and out-of-range literals are `None`, never rounded or
    /// saturated.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so a bound keeps hostile input such as
/// `[[[[…` from overflowing the stack; real documents nest a handful of
/// levels.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document from `text` (trailing whitespace allowed).
///
/// The document is UTF-8 by construction (`&str`), so strings are
/// sliced out of it directly and the whole parse is linear in its size.
///
/// # Errors
///
/// Returns a human-readable message on malformed input, including
/// nesting deeper than 128 levels.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `*pos`, which sits inside `depth` open arrays
/// and objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let opens = matches!(bytes.get(*pos), Some(b'{' | b'['));
    if opens && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}"
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let Json::Str(key) = parse_value(text, pos, depth + 1)? else {
                    return Err(format!("expected object key at offset {pos}"));
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null").map(|()| Json::Null),
        Some(_) => parse_number(text, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    // only ASCII bytes were consumed, so both ends are char boundaries
    let text = &text[start..*pos];
    if text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at offset {start}"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(text.as_bytes()[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    // `*pos` follows an ASCII quote, so it is a char boundary
    let mut chars = text[*pos..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => {
                let Some((_, esc)) = chars.next() else {
                    return Err("unterminated escape".to_owned());
                };
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some((_, h)) = chars.next() else {
                                return Err("unterminated \\u escape".to_owned());
                            };
                            code = code * 16
                                + h.to_digit(16)
                                    .ok_or_else(|| "invalid \\u escape".to_owned())?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("invalid escape \\{other}")),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_owned())
}

// ---------------------------------------------------------------------
// Run documents.
// ---------------------------------------------------------------------

/// One traced channel as parsed back from NDJSON.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceDoc {
    /// Channel kind token (`"temperature"`, `"flow"`, …).
    pub kind: String,
    /// Keep-stride at export time.
    pub stride: u64,
    /// Total pushes the channel saw.
    pub pushed: u64,
    /// `(t, value)` samples in push order (NaN encodes an exported
    /// `null`).
    pub samples: Vec<(f64, f64)>,
}

/// One span row as parsed back from NDJSON (see
/// [`crate::span::render_ndjson`]). All values are golden work units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDoc {
    /// Stable span id (16 hex digits).
    pub id: String,
    /// Parent span id; `None` for roots.
    pub parent: Option<String>,
    /// Span label.
    pub label: String,
    /// Tree depth (roots are 0).
    pub depth: u64,
    /// Work clock at enter.
    pub start: u64,
    /// Work clock at exit.
    pub end: u64,
    /// Work attributed to this span alone.
    pub self_work: u64,
    /// Work including children.
    pub total: u64,
}

/// One span-elision row: a fanout-capped same-label child summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanElisionDoc {
    /// Parent span id; `None` for elided roots.
    pub parent: Option<String>,
    /// Elided label.
    pub label: String,
    /// Number of folded spans.
    pub count: u64,
    /// Their summed work.
    pub work: u64,
}

/// One run's golden telemetry as parsed from an NDJSON manifest/trace
/// file. Non-golden `timing`/`note` lines are discarded on parse.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunDoc {
    /// Experiment name from the `run` header (empty for headerless
    /// fragments such as committed golden-profile files).
    pub experiment: String,
    /// Seed from the `run` header.
    pub seed: Option<u64>,
    /// Thread count from the `run` header.
    pub threads: Option<u64>,
    /// Model version from the `run` header.
    pub model_version: String,
    /// Golden counters (including the `profile.*` namespace).
    pub counters: BTreeMap<String, u64>,
    /// Golden histograms: `(bounds, counts)`.
    pub histograms: BTreeMap<String, (Vec<u64>, Vec<u64>)>,
    /// Golden float histograms: `(edges, counts)`.
    pub fhistograms: BTreeMap<String, (Vec<f64>, Vec<u64>)>,
    /// Traced channels.
    pub traces: BTreeMap<String, TraceDoc>,
    /// Golden span tree in export (pre-order DFS) order.
    pub spans: Vec<SpanDoc>,
    /// Fanout-elision summaries, in export order.
    pub span_elisions: Vec<SpanElisionDoc>,
}

impl RunDoc {
    /// The rolled-up profile tree of this run's `profile.*` counters.
    #[must_use]
    pub fn profile(&self) -> profile::ProfileNode {
        profile::from_counters(self.counters.iter().map(|(k, &v)| (k.as_str(), v)))
    }
}

fn field_err(line_no: usize, what: &str) -> String {
    format!("line {line_no}: missing or malformed {what}")
}

fn u64_array(value: &Json) -> Option<Vec<u64>> {
    match value {
        Json::Arr(items) => items.iter().map(Json::as_u64).collect(),
        _ => None,
    }
}

fn f64_array(value: &Json) -> Option<Vec<f64>> {
    match value {
        Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
        _ => None,
    }
}

/// Parses an NDJSON manifest/trace stream into run documents. A `run`
/// header line opens a new document; golden lines before any header
/// accumulate into an implicit headerless document (the shape of the
/// committed golden-profile files). Unknown line types are skipped so
/// the format can grow.
///
/// # Errors
///
/// Returns `Err` with the 1-based line number on malformed JSON or a
/// known line type with missing fields.
pub fn parse_ndjson(text: &str) -> Result<Vec<RunDoc>, String> {
    let mut docs: Vec<RunDoc> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = parse_json(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| field_err(line_no, "\"type\""))?;
        if kind == "run" {
            docs.push(RunDoc {
                experiment: value
                    .get("experiment")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                seed: value.get("seed").and_then(Json::as_u64),
                threads: value.get("threads").and_then(Json::as_u64),
                model_version: value
                    .get("model_version")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                ..RunDoc::default()
            });
            continue;
        }
        if docs.is_empty() {
            docs.push(RunDoc::default());
        }
        let Some(doc) = docs.last_mut() else {
            unreachable!("a doc was pushed above")
        };
        let name = || -> Result<String, String> {
            Ok(value
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| field_err(line_no, "\"name\""))?
                .to_owned())
        };
        match kind {
            "counter" => {
                let v = value
                    .get("value")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| field_err(line_no, "counter \"value\""))?;
                *doc.counters.entry(name()?).or_insert(0) += v;
            }
            "histogram" => {
                let bounds = value
                    .get("bounds")
                    .and_then(u64_array)
                    .ok_or_else(|| field_err(line_no, "histogram \"bounds\""))?;
                let counts = value
                    .get("counts")
                    .and_then(u64_array)
                    .ok_or_else(|| field_err(line_no, "histogram \"counts\""))?;
                doc.histograms.insert(name()?, (bounds, counts));
            }
            "fhistogram" => {
                let edges = value
                    .get("edges")
                    .and_then(f64_array)
                    .ok_or_else(|| field_err(line_no, "fhistogram \"edges\""))?;
                let counts = value
                    .get("counts")
                    .and_then(u64_array)
                    .ok_or_else(|| field_err(line_no, "fhistogram \"counts\""))?;
                doc.fhistograms.insert(name()?, (edges, counts));
            }
            "trace" => {
                let samples = match value.get("samples") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|pair| match pair {
                            Json::Arr(tv) if tv.len() == 2 => {
                                Some((tv[0].as_f64()?, tv[1].as_f64()?))
                            }
                            _ => None,
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| field_err(line_no, "trace \"samples\""))?,
                    _ => return Err(field_err(line_no, "trace \"samples\"")),
                };
                doc.traces.insert(
                    name()?,
                    TraceDoc {
                        kind: value
                            .get("kind")
                            .and_then(Json::as_str)
                            .unwrap_or("scalar")
                            .to_owned(),
                        stride: value.get("stride").and_then(Json::as_u64).unwrap_or(1),
                        pushed: value.get("pushed").and_then(Json::as_u64).unwrap_or(0),
                        samples,
                    },
                );
            }
            "span" => {
                let field = |key: &str| -> Result<u64, String> {
                    value
                        .get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| field_err(line_no, &format!("span \"{key}\"")))
                };
                doc.spans.push(SpanDoc {
                    id: value
                        .get("id")
                        .and_then(Json::as_str)
                        .ok_or_else(|| field_err(line_no, "span \"id\""))?
                        .to_owned(),
                    parent: value
                        .get("parent")
                        .and_then(Json::as_str)
                        .map(str::to_owned),
                    label: value
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or_else(|| field_err(line_no, "span \"label\""))?
                        .to_owned(),
                    depth: field("depth")?,
                    start: field("start")?,
                    end: field("end")?,
                    self_work: field("self")?,
                    total: field("total")?,
                });
            }
            "span_elided" => {
                let field = |key: &str| -> Result<u64, String> {
                    value
                        .get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| field_err(line_no, &format!("span_elided \"{key}\"")))
                };
                doc.span_elisions.push(SpanElisionDoc {
                    parent: value
                        .get("parent")
                        .and_then(Json::as_str)
                        .map(str::to_owned),
                    label: value
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or_else(|| field_err(line_no, "span_elided \"label\""))?
                        .to_owned(),
                    count: field("count")?,
                    work: field("work")?,
                });
            }
            // non-golden and future line types
            _ => {}
        }
    }
    Ok(docs)
}

// ---------------------------------------------------------------------
// Diffing.
// ---------------------------------------------------------------------

/// Options for [`diff`] / [`diff_docs`].
#[derive(Debug, Clone, Default)]
pub struct DiffOptions {
    /// Compare only the `profile.*` counter namespace (the committed
    /// golden-profile check).
    pub profile_only: bool,
    /// `(name_prefix, relative_tolerance)` bands; the longest matching
    /// prefix wins, default tolerance is 0 (exact).
    pub tolerances: Vec<(String, f64)>,
}

impl DiffOptions {
    /// The relative tolerance for channel `name`.
    #[must_use]
    pub fn tolerance(&self, name: &str) -> f64 {
        self.tolerances
            .iter()
            .filter(|(prefix, _)| name.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map_or(0.0, |(_, tol)| *tol)
    }
}

/// One diff finding (always a regression: matching channels produce no
/// finding).
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Channel class: `"counter"`, `"profile"`, `"histogram"`,
    /// `"fhistogram"`, `"trace"`, or `"run"`.
    pub kind: &'static str,
    /// Channel name.
    pub name: String,
    /// Human-readable description of the drift.
    pub detail: String,
}

/// The outcome of diffing two runs (or two run sets).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Every detected regression.
    pub findings: Vec<Finding>,
    /// Channels compared (matched or not).
    pub compared: usize,
}

impl DiffReport {
    /// `true` if any channel drifted.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        !self.findings.is_empty()
    }

    /// The process exit code the `obs_report` binary returns: 0 clean,
    /// 1 on any regression.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(self.has_regressions())
    }

    /// Renders the report as text: a `PASS`/`FAIL` verdict line plus
    /// one line per finding.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.findings.is_empty() {
            let _ = writeln!(out, "PASS: {} channels compared, no drift", self.compared);
        } else {
            let _ = writeln!(
                out,
                "FAIL: {} regression(s) across {} compared channels",
                self.findings.len(),
                self.compared
            );
            for f in &self.findings {
                let _ = writeln!(out, "  [{}] {}: {}", f.kind, f.name, f.detail);
            }
        }
        out
    }

    fn merge(&mut self, other: DiffReport) {
        self.findings.extend(other.findings);
        self.compared += other.compared;
    }
}

fn within(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    if a == b {
        return true;
    }
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// The difference is taken exactly in integers, so two counters that
/// differ by one still differ at tolerance zero however large they are.
#[allow(clippy::cast_precision_loss)]
fn within_u64(a: u64, b: u64, tol: f64) -> bool {
    a == b || a.abs_diff(b) as f64 <= tol * (a.max(b) as f64)
}

fn diff_map<V, F>(
    kind: &'static str,
    a: &BTreeMap<String, V>,
    b: &BTreeMap<String, V>,
    keep: impl Fn(&str) -> bool,
    compare: F,
    report: &mut DiffReport,
) where
    F: Fn(&str, &V, &V) -> Option<String>,
{
    let names: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for name in names {
        if !keep(name) {
            continue;
        }
        report.compared += 1;
        match (a.get(name.as_str()), b.get(name.as_str())) {
            (Some(va), Some(vb)) => {
                if let Some(detail) = compare(name, va, vb) {
                    report.findings.push(Finding {
                        kind,
                        name: name.clone(),
                        detail,
                    });
                }
            }
            (Some(_), None) => report.findings.push(Finding {
                kind,
                name: name.clone(),
                detail: "present in baseline, missing in candidate".to_owned(),
            }),
            (None, Some(_)) => report.findings.push(Finding {
                kind,
                name: name.clone(),
                detail: "missing in baseline, present in candidate".to_owned(),
            }),
            (None, None) => unreachable!("name came from one of the maps"),
        }
    }
}

/// Diffs two runs' golden channels under `opts`. `a` is the baseline
/// (golden) run, `b` the candidate.
#[must_use]
pub fn diff(a: &RunDoc, b: &RunDoc, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    let profile_only = opts.profile_only;
    diff_map(
        if profile_only { "profile" } else { "counter" },
        &a.counters,
        &b.counters,
        |name| !profile_only || name.starts_with(profile::PREFIX),
        |name, &va, &vb| {
            let tol = opts.tolerance(name);
            (!within_u64(va, vb, tol))
                .then(|| format!("baseline {va} vs candidate {vb} (tol {tol})"))
        },
        &mut report,
    );
    if profile_only {
        return report;
    }
    diff_map(
        "histogram",
        &a.histograms,
        &b.histograms,
        |_| true,
        |name, (bounds_a, counts_a), (bounds_b, counts_b)| {
            if bounds_a != bounds_b {
                return Some("bucket bounds differ".to_owned());
            }
            let tol = opts.tolerance(name);
            (counts_a.len() != counts_b.len()
                || counts_a
                    .iter()
                    .zip(counts_b)
                    .any(|(&ca, &cb)| !within_u64(ca, cb, tol)))
            .then(|| format!("counts {counts_a:?} vs {counts_b:?} (tol {tol})"))
        },
        &mut report,
    );
    diff_map(
        "fhistogram",
        &a.fhistograms,
        &b.fhistograms,
        |_| true,
        |name, (edges_a, counts_a), (edges_b, counts_b)| {
            if edges_a.len() != edges_b.len()
                || edges_a
                    .iter()
                    .zip(edges_b)
                    .any(|(ea, eb)| ea.to_bits() != eb.to_bits())
            {
                return Some("bucket edges differ".to_owned());
            }
            let tol = opts.tolerance(name);
            (counts_a.len() != counts_b.len()
                || counts_a
                    .iter()
                    .zip(counts_b)
                    .any(|(&ca, &cb)| !within_u64(ca, cb, tol)))
            .then(|| format!("counts {counts_a:?} vs {counts_b:?} (tol {tol})"))
        },
        &mut report,
    );
    diff_map(
        "trace",
        &a.traces,
        &b.traces,
        |_| true,
        |name, ta, tb| {
            if ta.kind != tb.kind {
                return Some(format!("kind {} vs {}", ta.kind, tb.kind));
            }
            if ta.stride != tb.stride || ta.pushed != tb.pushed {
                return Some(format!(
                    "shape stride={}/pushed={} vs stride={}/pushed={}",
                    ta.stride, ta.pushed, tb.stride, tb.pushed
                ));
            }
            if ta.samples.len() != tb.samples.len() {
                return Some(format!(
                    "{} samples vs {}",
                    ta.samples.len(),
                    tb.samples.len()
                ));
            }
            let tol = opts.tolerance(name);
            for (i, ((t_a, v_a), (t_b, v_b))) in ta.samples.iter().zip(&tb.samples).enumerate() {
                if !within(*t_a, *t_b, tol) || !within(*v_a, *v_b, tol) {
                    return Some(format!(
                        "sample {i} drifted: ({t_a}, {v_a}) vs ({t_b}, {v_b}) (tol {tol})"
                    ));
                }
            }
            None
        },
        &mut report,
    );
    report
}

/// Diffs two parsed files run by run, matching documents by experiment
/// name (headerless fragments match the headerless fragment on the
/// other side). A run present on only one side is itself a regression.
#[must_use]
pub fn diff_docs(a: &[RunDoc], b: &[RunDoc], opts: &DiffOptions) -> DiffReport {
    diff_matched_runs(a, b, opts, diff)
}

/// Matches the run documents of two files by experiment name and merges
/// `diff_run` over every matched pair; a run present on only one side is
/// itself a regression.
fn diff_matched_runs(
    a: &[RunDoc],
    b: &[RunDoc],
    opts: &DiffOptions,
    diff_run: fn(&RunDoc, &RunDoc, &DiffOptions) -> DiffReport,
) -> DiffReport {
    let mut report = DiffReport::default();
    let index = |docs: &[RunDoc]| -> BTreeMap<String, usize> {
        docs.iter()
            .enumerate()
            .map(|(i, d)| (d.experiment.clone(), i))
            .collect()
    };
    let ia = index(a);
    let ib = index(b);
    let names: std::collections::BTreeSet<&String> = ia.keys().chain(ib.keys()).collect();
    for name in names {
        match (ia.get(name.as_str()), ib.get(name.as_str())) {
            (Some(&da), Some(&db)) => report.merge(diff_run(&a[da], &b[db], opts)),
            (present, _) => {
                report.compared += 1;
                let detail = if present.is_some() {
                    "run present in baseline, missing in candidate"
                } else {
                    "run missing in baseline, present in candidate"
                };
                report.findings.push(Finding {
                    kind: "run",
                    name: if name.is_empty() {
                        "(headerless)".to_owned()
                    } else {
                        name.to_string()
                    },
                    detail: detail.to_owned(),
                });
            }
        }
    }
    report
}

// ---------------------------------------------------------------------
// Summary rendering.
// ---------------------------------------------------------------------

/// Renders a human-readable cross-run summary: per run, the header
/// identity, the largest golden counters, the rolled-up profile tree,
/// and per-trace channel statistics. Shows the 10 largest counters and
/// `profile.*` leaves — [`summary_top`] makes the cut configurable.
#[must_use]
pub fn summary(docs: &[RunDoc]) -> String {
    summary_top(docs, 10)
}

/// [`summary`] with an explicit hotspot cut: the `top` largest golden
/// counters and the `top` largest `profile.*` work leaves, both ranked
/// by magnitude (the `obs_report summary --top N` flag).
#[must_use]
pub fn summary_top(docs: &[RunDoc], top: usize) -> String {
    let mut out = String::new();
    for doc in docs {
        let name = if doc.experiment.is_empty() {
            "(headerless fragment)"
        } else {
            &doc.experiment
        };
        let _ = writeln!(out, "== {name} ==");
        let _ = writeln!(
            out,
            "  seed={} threads={} model={}",
            doc.seed.map_or_else(|| "-".to_owned(), |s| s.to_string()),
            doc.threads
                .map_or_else(|| "-".to_owned(), |t| t.to_string()),
            if doc.model_version.is_empty() {
                "-"
            } else {
                &doc.model_version
            },
        );
        let _ = writeln!(
            out,
            "  {} counters, {} histograms, {} float histograms, {} traces, {} spans",
            doc.counters.len(),
            doc.histograms.len(),
            doc.fhistograms.len(),
            doc.traces.len(),
            doc.spans.len()
        );
        let mut top_counters: Vec<(&String, &u64)> = doc
            .counters
            .iter()
            .filter(|(k, _)| !k.starts_with(profile::PREFIX))
            .collect();
        top_counters.sort_by(|(ka, va), (kb, vb)| vb.cmp(va).then_with(|| ka.cmp(kb)));
        if !top_counters.is_empty() {
            let _ = writeln!(out, "  top counters:");
            for (k, v) in top_counters.iter().take(top) {
                let _ = writeln!(out, "    {k} = {v}");
            }
        }
        let mut leaves: Vec<(&String, &u64)> = doc
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(profile::PREFIX))
            .collect();
        leaves.sort_by(|(ka, va), (kb, vb)| vb.cmp(va).then_with(|| ka.cmp(kb)));
        if !leaves.is_empty() {
            let _ = writeln!(out, "  top profile leaves:");
            for (k, v) in leaves.iter().take(top) {
                let _ = writeln!(out, "    {k} = {v}");
            }
        }
        let tree = doc.profile();
        if tree.total > 0 || !tree.children.is_empty() {
            let _ = writeln!(out, "  work profile:");
            for line in profile::render(&tree).lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        if !doc.traces.is_empty() {
            let _ = writeln!(out, "  traces:");
            for (name, t) in &doc.traces {
                let (min, max) = t
                    .samples
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(_, v)| {
                        (lo.min(v), hi.max(v))
                    });
                let last = t.samples.last().map_or(f64::NAN, |&(_, v)| v);
                let _ = writeln!(
                    out,
                    "    {name} [{}] kept {}/{} (stride {}) min={min} max={max} last={last}",
                    t.kind,
                    t.samples.len(),
                    t.pushed,
                    t.stride
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Span attribution.
// ---------------------------------------------------------------------

/// The `/`-joined label paths of `doc.spans`, index-aligned with the
/// span vector. The paths fall straight out of the pre-order export:
/// a span at depth `d` extends the path of the most recent span at
/// depth `d - 1`.
#[must_use]
pub fn span_paths(doc: &RunDoc) -> Vec<String> {
    let mut stack: Vec<String> = Vec::new();
    let mut out = Vec::with_capacity(doc.spans.len());
    for span in &doc.spans {
        stack.truncate(usize::try_from(span.depth).unwrap_or(usize::MAX));
        stack.push(span.label.clone());
        out.push(stack.join("/"));
    }
    out
}

/// The grand total of a run's span work: the summed totals of the root
/// spans plus any elided root work. This is the denominator of every
/// attribution percentage.
#[must_use]
pub fn span_grand_total(doc: &RunDoc) -> u64 {
    doc.spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.total)
        .sum::<u64>()
        + doc
            .span_elisions
            .iter()
            .filter(|e| e.parent.is_none())
            .map(|e| e.work)
            .sum::<u64>()
}

#[allow(clippy::cast_precision_loss)]
fn percent(part: u64, grand: u64) -> f64 {
    100.0 * part as f64 / grand.max(1) as f64
}

/// Renders the attribution report of every run document: the top-`top`
/// self-work spans, the critical path (the heaviest-total descent from
/// the heaviest root), and the per-path work-share table aggregating
/// self work over every span instance with the same label path. All
/// figures are golden work units; percentages are shares of
/// [`span_grand_total`].
#[must_use]
pub fn attribution(docs: &[RunDoc], top: usize) -> String {
    let mut out = String::new();
    for doc in docs {
        let name = if doc.experiment.is_empty() {
            "(headerless fragment)"
        } else {
            &doc.experiment
        };
        let _ = writeln!(out, "== attribution: {name} ==");
        if doc.spans.is_empty() {
            let _ = writeln!(out, "  no spans recorded");
            continue;
        }
        let paths = span_paths(doc);
        let grand = span_grand_total(doc);
        let _ = writeln!(
            out,
            "  {} spans, {} elisions, {grand} work units attributed",
            doc.spans.len(),
            doc.span_elisions.len()
        );

        // Top self-work span instances.
        let mut by_self: Vec<usize> = (0..doc.spans.len()).collect();
        by_self.sort_by(|&i, &j| {
            doc.spans[j]
                .self_work
                .cmp(&doc.spans[i].self_work)
                .then_with(|| paths[i].cmp(&paths[j]))
        });
        let _ = writeln!(out, "  top self-work spans:");
        for &i in by_self.iter().take(top) {
            let s = &doc.spans[i];
            let _ = writeln!(
                out,
                "    {:>10}  {:>6.2}%  {}",
                s.self_work,
                percent(s.self_work, grand),
                paths[i]
            );
        }

        // Critical path: from the heaviest root, always descend into
        // the heaviest child (ties break toward export order).
        let mut children: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, s) in doc.spans.iter().enumerate() {
            if let Some(parent) = &s.parent {
                children.entry(parent.as_str()).or_default().push(i);
            }
        }
        let heaviest = |candidates: &[usize]| -> Option<usize> {
            candidates
                .iter()
                .copied()
                .max_by(|&i, &j| doc.spans[i].total.cmp(&doc.spans[j].total).then(j.cmp(&i)))
        };
        let roots: Vec<usize> = (0..doc.spans.len())
            .filter(|&i| doc.spans[i].parent.is_none())
            .collect();
        let _ = writeln!(out, "  critical path (heaviest descent):");
        let mut cursor = heaviest(&roots);
        while let Some(i) = cursor {
            let s = &doc.spans[i];
            let _ = writeln!(
                out,
                "    {:>10} total / {:>10} self  {}{}",
                s.total,
                s.self_work,
                "  ".repeat(usize::try_from(s.depth).unwrap_or(0)),
                s.label
            );
            cursor = children.get(s.id.as_str()).and_then(|kids| heaviest(kids));
        }

        // Work share by label path: self work aggregated over every
        // instance of the same path (elided children under a
        // `<path>/<label> (elided)` key). The shares partition the
        // grand total exactly.
        let mut shares: BTreeMap<String, u64> = BTreeMap::new();
        for (i, s) in doc.spans.iter().enumerate() {
            *shares.entry(paths[i].clone()).or_insert(0) += s.self_work;
        }
        let id_paths: BTreeMap<&str, &str> = doc
            .spans
            .iter()
            .zip(&paths)
            .map(|(s, p)| (s.id.as_str(), p.as_str()))
            .collect();
        for e in &doc.span_elisions {
            let key = match &e.parent {
                Some(p) => format!(
                    "{}/{} (elided)",
                    id_paths.get(p.as_str()).copied().unwrap_or("?"),
                    e.label
                ),
                None => format!("{} (elided)", e.label),
            };
            *shares.entry(key).or_insert(0) += e.work;
        }
        let mut ranked: Vec<(&String, &u64)> = shares.iter().collect();
        ranked.sort_by(|(ka, va), (kb, vb)| vb.cmp(va).then_with(|| ka.cmp(kb)));
        let _ = writeln!(out, "  work share by path:");
        for (path, &work) in ranked {
            let _ = writeln!(
                out,
                "    {:>6.2}%  {:>10}  {path}",
                percent(work, grand),
                work
            );
        }
    }
    out
}

/// Diffs two runs' span trees. Spans match by stable id; `self`/`total`
/// and the span window compare within the tolerance band of the span's
/// label path, structure (label, depth, parent) compares exactly.
/// Elisions match by `(parent id, label)` with `count` exact and `work`
/// banded.
#[must_use]
pub fn diff_spans(a: &RunDoc, b: &RunDoc, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    let paths_a = span_paths(a);
    let paths_b = span_paths(b);
    let index = |doc: &RunDoc| -> BTreeMap<String, usize> {
        doc.spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id.clone(), i))
            .collect()
    };
    let ia = index(a);
    let ib = index(b);
    let ids: std::collections::BTreeSet<&String> = ia.keys().chain(ib.keys()).collect();
    for id in ids {
        report.compared += 1;
        match (ia.get(id.as_str()), ib.get(id.as_str())) {
            (Some(&da), Some(&db)) => {
                let (sa, sb) = (&a.spans[da], &b.spans[db]);
                let name = paths_a[da].clone();
                let tol = opts.tolerance(&name);
                let detail = if sa.label != sb.label
                    || sa.depth != sb.depth
                    || sa.parent != sb.parent
                {
                    Some(format!(
                        "structure drifted: {}@{} under {:?} vs {}@{} under {:?}",
                        sa.label, sa.depth, sa.parent, sb.label, sb.depth, sb.parent
                    ))
                } else if !within_u64(sa.self_work, sb.self_work, tol)
                    || !within_u64(sa.total, sb.total, tol)
                {
                    Some(format!(
                        "work drifted: self {} vs {}, total {} vs {} (tol {tol})",
                        sa.self_work, sb.self_work, sa.total, sb.total
                    ))
                } else if !within_u64(sa.start, sb.start, tol) || !within_u64(sa.end, sb.end, tol) {
                    Some(format!(
                        "window drifted: [{}, {}] vs [{}, {}] (tol {tol})",
                        sa.start, sa.end, sb.start, sb.end
                    ))
                } else {
                    None
                };
                if let Some(detail) = detail {
                    report.findings.push(Finding {
                        kind: "span",
                        name,
                        detail,
                    });
                }
            }
            (Some(&da), None) => report.findings.push(Finding {
                kind: "span",
                name: paths_a[da].clone(),
                detail: format!("span {id} present in baseline, missing in candidate"),
            }),
            (None, Some(&db)) => report.findings.push(Finding {
                kind: "span",
                name: paths_b[db].clone(),
                detail: format!("span {id} missing in baseline, present in candidate"),
            }),
            (None, None) => unreachable!("id came from one of the maps"),
        }
    }
    let elisions = |doc: &RunDoc| -> BTreeMap<(String, String), (u64, u64)> {
        doc.span_elisions
            .iter()
            .map(|e| {
                (
                    (e.parent.clone().unwrap_or_default(), e.label.clone()),
                    (e.count, e.work),
                )
            })
            .collect()
    };
    let ea = elisions(a);
    let eb = elisions(b);
    let keys: std::collections::BTreeSet<&(String, String)> = ea.keys().chain(eb.keys()).collect();
    for key in keys {
        report.compared += 1;
        let name = format!("{}::{} (elided)", key.0, key.1);
        match (ea.get(key), eb.get(key)) {
            (Some(&(ca, wa)), Some(&(cb, wb))) => {
                let tol = opts.tolerance(&key.1);
                if ca != cb || !within_u64(wa, wb, tol) {
                    report.findings.push(Finding {
                        kind: "span_elided",
                        name,
                        detail: format!("count {ca} work {wa} vs count {cb} work {wb} (tol {tol})"),
                    });
                }
            }
            (present, _) => report.findings.push(Finding {
                kind: "span_elided",
                name,
                detail: if present.is_some() {
                    "present in baseline, missing in candidate".to_owned()
                } else {
                    "missing in baseline, present in candidate".to_owned()
                },
            }),
        }
    }
    report
}

/// [`diff_spans`] across two parsed files, matching run documents by
/// experiment name exactly like [`diff_docs`].
#[must_use]
pub fn diff_spans_docs(a: &[RunDoc], b: &[RunDoc], opts: &DiffOptions) -> DiffReport {
    diff_matched_runs(a, b, opts, diff_spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_round_trips_manifest_lines() {
        let v = parse_json(
            "{\"type\":\"histogram\",\"name\":\"h\",\"bounds\":[1,2],\"counts\":[0,1,2]}",
        )
        .unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("histogram"));
        assert_eq!(v.get("bounds").and_then(u64_array), Some(vec![1, 2]));
        let nested = parse_json("[[0,45.5],[2,null]]").unwrap();
        let Json::Arr(pairs) = nested else {
            panic!("expected array")
        };
        assert_eq!(pairs[0].get("x"), None);
        assert!(parse_json("{\"a\":").is_err());
        assert!(parse_json("{} junk").is_err());
        let escaped = parse_json("\"a\\\"b\\u0041\"").unwrap();
        assert_eq!(escaped.as_str(), Some("a\"bA"));
    }

    #[test]
    fn integer_literals_are_exact_and_as_u64_never_rounds() {
        let big = parse_json("9007199254740993").unwrap();
        assert_eq!(big, Json::Int(9_007_199_254_740_993));
        assert_eq!(big.as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(
            parse_json("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        // out of range, exponent, fraction, sign: not a u64
        for text in ["18446744073709551616", "1e30", "1e3", "2.0", "2.5", "-1"] {
            let v = parse_json(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text}");
            assert!(v.as_f64().is_some(), "{text}");
        }
        assert!(!within_u64(1 << 53, (1 << 53) + 1, 0.0));
        assert!(within_u64(1 << 53, (1 << 53) + 1, 1e-15));
    }

    #[test]
    fn json_parser_rejects_hostile_nesting_without_overflowing() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(100_000);
        assert!(parse_json(&objects).is_err());
        // the limit itself is accepted, one past it is not
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&past).is_err());
    }

    #[test]
    fn json_parser_is_linear_in_many_short_strings() {
        // A multi-MiB document of short strings (the shape of a Chrome
        // trace's names and categories), non-ASCII text included: one
        // UTF-8 validation per document, not one per string.
        let items: Vec<String> = (0..300_000).map(|i| format!("\"t{i}°C\"")).collect();
        let doc = format!("[{}]", items.join(","));
        assert!(doc.len() > 3 << 20, "{} bytes", doc.len());
        let Json::Arr(parsed) = parse_json(&doc).unwrap() else {
            panic!("expected array")
        };
        assert_eq!(parsed.len(), 300_000);
        assert_eq!(parsed[299_999].as_str(), Some("t299999°C"));
    }

    fn demo_ndjson() -> String {
        [
            "{\"type\":\"run\",\"experiment\":\"e_demo\",\"seed\":7,\"threads\":2,\"model_version\":\"0.1.0\"}",
            "{\"type\":\"counter\",\"name\":\"solver.calls\",\"value\":3}",
            "{\"type\":\"counter\",\"name\":\"profile.solve.iters\",\"value\":12}",
            "{\"type\":\"histogram\",\"name\":\"solver.rung\",\"bounds\":[0,1],\"counts\":[3,0,0]}",
            "{\"type\":\"fhistogram\",\"name\":\"solver.residual\",\"edges\":[0.000001,0.001],\"counts\":[3,0,0]}",
            "{\"type\":\"timing\",\"name\":\"solver.total\",\"count\":3,\"total_nanos\":999}",
            "{\"type\":\"trace\",\"name\":\"t_chip\",\"kind\":\"temperature\",\"stride\":1,\"pushed\":2,\"samples\":[[0,45.5],[2,45.75]]}",
            "{\"type\":\"span\",\"id\":\"00000000000000aa\",\"parent\":null,\"label\":\"outer\",\"depth\":0,\"start\":0,\"end\":20,\"self\":8,\"total\":20}",
            "{\"type\":\"span\",\"id\":\"00000000000000bb\",\"parent\":\"00000000000000aa\",\"label\":\"inner\",\"depth\":1,\"start\":3,\"end\":13,\"self\":10,\"total\":10}",
            "{\"type\":\"span_elided\",\"parent\":\"00000000000000aa\",\"label\":\"step\",\"count\":3,\"work\":2}",
        ]
        .join("\n")
    }

    #[test]
    fn parse_ndjson_builds_run_docs_and_drops_non_golden() {
        let docs = parse_ndjson(&demo_ndjson()).unwrap();
        assert_eq!(docs.len(), 1);
        let doc = &docs[0];
        assert_eq!(doc.experiment, "e_demo");
        assert_eq!(doc.seed, Some(7));
        assert_eq!(doc.counters["solver.calls"], 3);
        assert_eq!(doc.histograms["solver.rung"].1, vec![3, 0, 0]);
        assert_eq!(doc.fhistograms["solver.residual"].0.len(), 2);
        assert_eq!(
            doc.traces["t_chip"].samples,
            vec![(0.0, 45.5), (2.0, 45.75)]
        );
        assert_eq!(doc.profile().total, 12);
    }

    #[test]
    fn headerless_fragments_parse_into_an_implicit_doc() {
        let docs =
            parse_ndjson("{\"type\":\"counter\",\"name\":\"profile.mc.trials\",\"value\":64}")
                .unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].experiment, "");
        assert_eq!(docs[0].counters["profile.mc.trials"], 64);
    }

    #[test]
    fn identical_runs_diff_clean() {
        let a = parse_ndjson(&demo_ndjson()).unwrap();
        let b = parse_ndjson(&demo_ndjson()).unwrap();
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert!(!report.has_regressions(), "{}", report.render());
        assert_eq!(report.exit_code(), 0);
        assert!(report.compared > 0);
        assert!(report.render().starts_with("PASS"));
    }

    #[test]
    fn counter_histogram_and_trace_drifts_are_regressions() {
        let a = parse_ndjson(&demo_ndjson()).unwrap();
        for (needle, replacement, kind) in [
            ("\"value\":3", "\"value\":4", "counter"),
            ("\"value\":12", "\"value\":13", "counter"),
            ("\"counts\":[3,0,0]}", "\"counts\":[2,1,0]}", "histogram"),
            ("[2,45.75]", "[2,46.75]", "trace"),
        ] {
            let b = parse_ndjson(&demo_ndjson().replacen(needle, replacement, 1)).unwrap();
            let report = diff_docs(&a, &b, &DiffOptions::default());
            assert!(report.has_regressions(), "{needle} should drift");
            assert_eq!(report.exit_code(), 1);
            assert!(
                report.findings.iter().any(|f| f.kind == kind),
                "expected a {kind} finding for {needle}: {}",
                report.render()
            );
        }
    }

    #[test]
    fn tolerance_bands_absorb_small_drift() {
        let a = parse_ndjson(&demo_ndjson()).unwrap();
        let b = parse_ndjson(&demo_ndjson().replacen("[2,45.75]", "[2,45.76]", 1)).unwrap();
        let exact = diff_docs(&a, &b, &DiffOptions::default());
        assert!(exact.has_regressions());
        let banded = DiffOptions {
            tolerances: vec![("t_chip".to_owned(), 0.01)],
            ..DiffOptions::default()
        };
        let report = diff_docs(&a, &b, &banded);
        assert!(!report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn profile_only_ignores_everything_but_profile_counters() {
        let a = parse_ndjson(&demo_ndjson()).unwrap();
        let mutated = demo_ndjson()
            .replacen("\"value\":3", "\"value\":4", 1) // non-profile counter
            .replacen("[2,45.75]", "[2,99.0]", 1); // trace
        let b = parse_ndjson(&mutated).unwrap();
        let opts = DiffOptions {
            profile_only: true,
            ..DiffOptions::default()
        };
        assert!(!diff_docs(&a, &b, &opts).has_regressions());
        let c = parse_ndjson(&demo_ndjson().replacen("\"value\":12", "\"value\":11", 1)).unwrap();
        let report = diff_docs(&a, &c, &opts);
        assert!(report.has_regressions());
        assert_eq!(report.findings[0].kind, "profile");
    }

    #[test]
    fn missing_runs_and_channels_are_regressions() {
        let a = parse_ndjson(&demo_ndjson()).unwrap();
        let report = diff_docs(&a, &[], &DiffOptions::default());
        assert!(report.has_regressions());
        assert_eq!(report.findings[0].kind, "run");

        let shorter = demo_ndjson()
            .lines()
            .filter(|l| !l.contains("solver.calls"))
            .collect::<Vec<_>>()
            .join("\n");
        let b = parse_ndjson(&shorter).unwrap();
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert!(report
            .findings
            .iter()
            .any(|f| f.name == "solver.calls" && f.detail.contains("missing in candidate")));
    }

    #[test]
    fn span_lines_parse_in_export_order() {
        let docs = parse_ndjson(&demo_ndjson()).unwrap();
        let doc = &docs[0];
        assert_eq!(doc.spans.len(), 2);
        assert_eq!(doc.spans[0].label, "outer");
        assert_eq!(doc.spans[0].parent, None);
        assert_eq!(doc.spans[1].parent.as_deref(), Some("00000000000000aa"));
        assert_eq!(doc.spans[1].self_work, 10);
        assert_eq!(doc.span_elisions.len(), 1);
        assert_eq!(doc.span_elisions[0].count, 3);
        assert_eq!(span_paths(doc), vec!["outer", "outer/inner"]);
        assert_eq!(span_grand_total(doc), 20);
    }

    #[test]
    fn attribution_renders_rollups_critical_path_and_shares() {
        let docs = parse_ndjson(&demo_ndjson()).unwrap();
        let text = attribution(&docs, 5);
        assert!(text.contains("== attribution: e_demo =="), "{text}");
        assert!(
            text.contains("2 spans, 1 elisions, 20 work units"),
            "{text}"
        );
        // the deepest hop of the critical path is the inner span
        assert!(text.contains("inner"), "{text}");
        // shares partition the grand total: 8 + 10 + 2 = 20
        assert!(text.contains("50.00%          10  outer/inner"), "{text}");
        assert!(text.contains("40.00%           8  outer"), "{text}");
        assert!(
            text.contains("10.00%           2  outer/step (elided)"),
            "{text}"
        );
        // a spanless doc renders a placeholder instead of dividing by 0
        let empty = vec![RunDoc::default()];
        assert!(attribution(&empty, 5).contains("no spans recorded"));
    }

    #[test]
    fn span_diff_catches_work_structure_and_elision_drift() {
        let a = parse_ndjson(&demo_ndjson()).unwrap();
        for (needle, replacement) in [
            ("\"self\":10,\"total\":10}", "\"self\":11,\"total\":11}"),
            (
                "\"label\":\"inner\",\"depth\":1",
                "\"label\":\"inner\",\"depth\":2",
            ),
            ("\"count\":3,\"work\":2}", "\"count\":4,\"work\":2}"),
        ] {
            let b = parse_ndjson(&demo_ndjson().replacen(needle, replacement, 1)).unwrap();
            let report = diff_spans_docs(&a, &b, &DiffOptions::default());
            assert!(report.has_regressions(), "{needle} should drift");
            assert_eq!(report.exit_code(), 1);
        }
        // a missing span is a regression on its own
        let shorter = demo_ndjson()
            .lines()
            .filter(|l| !l.contains("00000000000000bb"))
            .collect::<Vec<_>>()
            .join("\n");
        let b = parse_ndjson(&shorter).unwrap();
        let report = diff_spans_docs(&a, &b, &DiffOptions::default());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == "span" && f.detail.contains("missing in candidate")));
    }

    #[test]
    fn span_diff_tolerance_bands_absorb_small_work_drift() {
        let a = parse_ndjson(&demo_ndjson()).unwrap();
        let b = parse_ndjson(&demo_ndjson().replacen(
            "\"start\":3,\"end\":13,\"self\":10,\"total\":10}",
            "\"start\":3,\"end\":13,\"self\":11,\"total\":11}",
            1,
        ))
        .unwrap();
        assert!(diff_spans_docs(&a, &b, &DiffOptions::default()).has_regressions());
        let banded = DiffOptions {
            tolerances: vec![("outer/inner".to_owned(), 0.2)],
            ..DiffOptions::default()
        };
        let report = diff_spans_docs(&a, &b, &banded);
        assert!(!report.has_regressions(), "{}", report.render());
    }

    #[test]
    fn summary_top_ranks_profile_leaves() {
        let docs = parse_ndjson(&demo_ndjson()).unwrap();
        let text = summary_top(&docs, 3);
        assert!(text.contains("top profile leaves:"), "{text}");
        assert!(text.contains("profile.solve.iters = 12"), "{text}");
    }

    #[test]
    fn summary_renders_header_profile_and_traces() {
        let docs = parse_ndjson(&demo_ndjson()).unwrap();
        let text = summary(&docs);
        assert!(text.contains("== e_demo =="), "{text}");
        assert!(text.contains("seed=7 threads=2"), "{text}");
        assert!(text.contains("solver.calls = 3"), "{text}");
        assert!(text.contains("profile"), "{text}");
        assert!(text.contains("t_chip [temperature] kept 2/2"), "{text}");
    }
}
