//! Offline trace-file analysis for `ps2-trace`.
//!
//! A trace written by `ps2-run --trace-json` is a Chrome trace-event JSON
//! document with an extra top-level `"ps2"` section holding the
//! critical-path analysis (Perfetto ignores unknown top-level keys, so the
//! same file serves both the UI and this module). This module re-reads that
//! section without the original [`SimReport`](ps2_simnet::SimReport): a
//! minimal recursive-descent JSON parser (the workspace is dependency-free
//! by design) plus a [`TraceSummary`] extractor and text renderers for the
//! `report` and `diff` subcommands.

use std::collections::BTreeMap;
use std::fmt;

use ps2_simnet::{CausalDag, DagEvent, DagProc, OpTails};

/// A parsed JSON value. Objects keep source order so that rendering a
/// summary walks categories in the writer's (deterministic) order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 && n.abs() <= 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// Serialize back to compact JSON text. Deterministic: objects keep
    /// their stored order; integral numbers render without a fraction, the
    /// rest use Rust's shortest round-tripping `f64` form. Together with
    /// [`parse_json`] this gives `parse(render(v)) == v` for any value this
    /// module can produce (see the round-trip property tests).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::Str(s) => render_json_string(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_json_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escape and quote a string for JSON output.
pub fn render_json_string(s: &str, out: &mut String) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with a byte offset into the input.
#[derive(Debug)]
pub struct ParseError {
    pub at: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document; trailing garbage is an error.
pub fn parse_json(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to U+FFFD rather than fail.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash in
                    // one go, so each byte is validated once. Both delimiters
                    // are ASCII and the input came from a &str, so the run
                    // starts and ends on character boundaries.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }
}

/// Per-process row from the trace's analysis section.
#[derive(Debug, Clone)]
pub struct ProcRow {
    pub name: String,
    pub daemon: bool,
    pub finished_ns: u64,
    pub busy_ns: u64,
    pub slack_ns: u64,
    pub critical_ns: u64,
}

/// The `"ps2"` analysis section of a trace file, plus the event count from
/// the `traceEvents` array.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    pub makespan_ns: u64,
    /// Critical-path attribution in writer order (compute, network, queue,
    /// idle).
    pub categories: Vec<(String, u64)>,
    pub compute_by_label: Vec<(String, u64)>,
    pub segments: u64,
    pub procs: Vec<ProcRow>,
    pub drops_by_tag: Vec<(String, u64)>,
    pub trace_events: usize,
}

impl TraceSummary {
    /// Parse a trace file's text. Fails with a description when the document
    /// is not JSON or the `"ps2"` section is missing/malformed.
    pub fn from_json(text: &str) -> Result<TraceSummary, String> {
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        let trace_events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .map(<[JsonValue]>::len)
            .ok_or("no traceEvents array — not a ps2 trace file")?;
        let ps2 = doc
            .get("ps2")
            .ok_or("no \"ps2\" analysis section — was this written by ps2-run --trace-json?")?;
        let u64_field = |obj: &JsonValue, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("ps2 section: missing/invalid \"{key}\""))
        };
        let pairs = |key: &str| -> Result<Vec<(String, u64)>, String> {
            match ps2.get(key) {
                Some(JsonValue::Obj(kv)) => kv
                    .iter()
                    .map(|(k, v)| {
                        v.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| format!("ps2 section: \"{key}\".\"{k}\" not a count"))
                    })
                    .collect(),
                _ => Err(format!("ps2 section: missing/invalid \"{key}\"")),
            }
        };
        let procs = ps2
            .get("procs")
            .and_then(JsonValue::as_arr)
            .ok_or("ps2 section: missing \"procs\"")?
            .iter()
            .map(|p| {
                Ok(ProcRow {
                    name: p
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("proc row: missing \"name\"")?
                        .to_string(),
                    daemon: p
                        .get("daemon")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false),
                    finished_ns: u64_field(p, "finished_ns")?,
                    busy_ns: u64_field(p, "busy_ns")?,
                    slack_ns: u64_field(p, "slack_ns")?,
                    critical_ns: u64_field(p, "critical_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(TraceSummary {
            makespan_ns: u64_field(ps2, "makespan_ns")?,
            categories: pairs("categories")?,
            compute_by_label: pairs("compute_by_label")?,
            segments: u64_field(ps2, "segments")?,
            procs,
            drops_by_tag: pairs("drops_by_tag")?,
            trace_events,
        })
    }

    /// Deterministic text report, mirroring
    /// [`CausalAnalysis::render`](ps2_simnet::CausalAnalysis::render) but
    /// built from the file alone.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let secs = |ns: u64| ns as f64 / 1e9;
        let pct = |ns: u64| {
            if self.makespan_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / self.makespan_ns as f64
            }
        };
        out.push_str(&format!(
            "trace: {} events, {} procs, makespan {:.6}s\n",
            self.trace_events,
            self.procs.len(),
            secs(self.makespan_ns)
        ));
        out.push_str(&format!(
            "critical path: {} segments, categories:\n",
            self.segments
        ));
        for (name, ns) in &self.categories {
            out.push_str(&format!(
                "  {name:<10} {:>12.6}s {:>5.1}%\n",
                secs(*ns),
                pct(*ns)
            ));
        }
        if !self.compute_by_label.is_empty() {
            out.push_str("critical-path compute by op:\n");
            let mut rows = self.compute_by_label.clone();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (label, ns) in rows {
                out.push_str(&format!(
                    "  {label:<24} {:>12.6}s {:>5.1}%\n",
                    secs(ns),
                    pct(ns)
                ));
            }
        }
        if !self.drops_by_tag.is_empty() {
            out.push_str("dropped messages by tag:\n");
            for (tag, n) in &self.drops_by_tag {
                out.push_str(&format!("  tag {tag:<6} {n:>8}\n"));
            }
        }
        out.push_str("top processes by critical-path time:\n");
        let mut procs: Vec<&ProcRow> = self.procs.iter().collect();
        procs.sort_by(|a, b| {
            b.critical_ns
                .cmp(&a.critical_ns)
                .then_with(|| a.name.cmp(&b.name))
        });
        for p in procs.iter().take(10) {
            out.push_str(&format!(
                "  {:<20} critical {:>10.6}s  busy {:>10.6}s  slack {:>10.6}s\n",
                p.name,
                secs(p.critical_ns),
                secs(p.busy_ns),
                secs(p.slack_ns)
            ));
        }
        out
    }

    /// Regression check for CI gates: a violation is a relative increase
    /// beyond `tolerance_milli` parts-per-thousand (50 = 5%) in the makespan
    /// or any critical-path category, with `self` as the baseline. Returns
    /// one human-readable line per violation; empty means the candidate is
    /// within tolerance.
    pub fn regressions(&self, other: &TraceSummary, tolerance_milli: u64) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |name: &str, a: u64, b: u64| {
            // Integer arithmetic keeps the gate deterministic; a zero
            // baseline tolerates nothing.
            let limit = a + a / 1000 * tolerance_milli + a % 1000 * tolerance_milli / 1000;
            if b > limit {
                let pct = if a == 0 {
                    f64::INFINITY
                } else {
                    100.0 * (b as f64 - a as f64) / a as f64
                };
                out.push(format!(
                    "{name}: {a} ns -> {b} ns (+{pct:.1}%, tolerance {:.1}%)",
                    tolerance_milli as f64 / 10.0
                ));
            }
        };
        check("makespan", self.makespan_ns, other.makespan_ns);
        let cand: BTreeMap<&str, u64> = other
            .categories
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        for (name, a) in &self.categories {
            let b = cand.get(name.as_str()).copied().unwrap_or(0);
            check(&format!("category {name}"), *a, b);
        }
        out
    }

    /// Compare two traces: per-category critical-path deltas, makespan delta
    /// and per-op compute deltas (`self` is the baseline, `other` the
    /// candidate; positive deltas mean the candidate is slower).
    pub fn render_diff(&self, other: &TraceSummary) -> String {
        let mut out = String::new();
        let dsec = |a: u64, b: u64| (b as f64 - a as f64) / 1e9;
        out.push_str(&format!(
            "makespan  {:>12.6}s -> {:>12.6}s   delta {:+.6}s\n",
            self.makespan_ns as f64 / 1e9,
            other.makespan_ns as f64 / 1e9,
            dsec(self.makespan_ns, other.makespan_ns)
        ));
        out.push_str("critical-path categories:\n");
        let base: BTreeMap<&str, u64> = self
            .categories
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let cand: BTreeMap<&str, u64> = other
            .categories
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        // Walk the baseline's writer order, then anything new in the
        // candidate — keeps compute/network/queue/idle in the familiar order.
        let mut names: Vec<&str> = self.categories.iter().map(|(k, _)| k.as_str()).collect();
        for (k, _) in &other.categories {
            if !base.contains_key(k.as_str()) {
                names.push(k);
            }
        }
        for name in names {
            let a = base.get(name).copied().unwrap_or(0);
            let b = cand.get(name).copied().unwrap_or(0);
            out.push_str(&format!(
                "  {name:<10} {:>12.6}s -> {:>12.6}s   delta {:+.6}s\n",
                a as f64 / 1e9,
                b as f64 / 1e9,
                dsec(a, b)
            ));
        }
        let base_ops: BTreeMap<&str, u64> = self
            .compute_by_label
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let cand_ops: BTreeMap<&str, u64> = other
            .compute_by_label
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let mut ops: Vec<&str> = base_ops.keys().chain(cand_ops.keys()).copied().collect();
        ops.sort_unstable();
        ops.dedup();
        if !ops.is_empty() {
            out.push_str("critical-path compute by op:\n");
            for op in ops {
                let a = base_ops.get(op).copied().unwrap_or(0);
                let b = cand_ops.get(op).copied().unwrap_or(0);
                if a == 0 && b == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {op:<24} {:>12.6}s -> {:>12.6}s   delta {:+.6}s\n",
                    a as f64 / 1e9,
                    b as f64 / 1e9,
                    dsec(a, b)
                ));
            }
        }
        out
    }
}

// ---- the SLO / request-trace sidecar ----------------------------------------

/// One exemplar request from the sidecar: a run-unique id plus its full
/// stage breakdown in writer order.
#[derive(Debug, Clone)]
pub struct SloExemplar {
    pub id: u64,
    pub issued_at_ns: u64,
    pub total_ns: u64,
    pub attempts: u64,
    /// `(stage name, ns)` pairs, e.g. `("server_queue_ns", 1200)`.
    pub stages: Vec<(String, u64)>,
}

/// Per-op request aggregate from the sidecar.
#[derive(Debug, Clone)]
pub struct SloOpRow {
    pub op: String,
    pub completed: u64,
    pub abandoned: u64,
    pub attempts: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
    /// The K slowest requests, slowest first.
    pub exemplars: Vec<SloExemplar>,
}

/// A burn alert from the sidecar.
#[derive(Debug, Clone)]
pub struct SloAlertRow {
    pub at_ns: u64,
    pub window: u64,
    pub subject: String,
    pub value_milli: i64,
}

/// The `ps2-slo-v1` document written by `ps2-run --slo-json` — either as a
/// standalone sidecar or embedded in a trace file under `"ps2"."slo"`.
#[derive(Debug, Clone)]
pub struct SloSummary {
    pub ops: Vec<SloOpRow>,
    /// Declared objectives, rendered one line each (name, description).
    pub objectives: Vec<(String, String)>,
    pub alerts: Vec<SloAlertRow>,
}

impl SloSummary {
    /// Parse either form: a standalone `ps2-slo-v1` sidecar, or a full
    /// trace file whose `"ps2"` section embeds one.
    pub fn from_json(text: &str) -> Result<SloSummary, String> {
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        let slo = if doc.get("schema").and_then(JsonValue::as_str) == Some("ps2-slo-v1") {
            &doc
        } else {
            doc.get("ps2").and_then(|p| p.get("slo")).ok_or(
                "no \"ps2\".\"slo\" section and not a ps2-slo-v1 sidecar — \
                 was this written by ps2-run --slo-json (or --trace-json with SLOs)?",
            )?
        };
        let u64_field = |obj: &JsonValue, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("slo section: missing/invalid \"{key}\""))
        };
        let str_field = |obj: &JsonValue, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("slo section: missing/invalid \"{key}\""))
        };
        let mut ops = Vec::new();
        for o in slo
            .get("ops")
            .and_then(JsonValue::as_arr)
            .ok_or("slo section: missing \"ops\"")?
        {
            let hist = o.get("hist").ok_or("slo op: missing \"hist\"")?;
            let mut exemplars = Vec::new();
            for e in o
                .get("exemplars")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
            {
                let stages = match e.get("stages") {
                    Some(JsonValue::Obj(kv)) => kv
                        .iter()
                        .map(|(k, v)| {
                            v.as_u64()
                                .map(|n| (k.clone(), n))
                                .ok_or_else(|| format!("exemplar stage \"{k}\" not a count"))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    _ => return Err("exemplar: missing \"stages\"".to_string()),
                };
                exemplars.push(SloExemplar {
                    id: u64_field(e, "id")?,
                    issued_at_ns: u64_field(e, "issued_at_ns")?,
                    total_ns: u64_field(e, "total_ns")?,
                    attempts: u64_field(e, "attempts")?,
                    stages,
                });
            }
            ops.push(SloOpRow {
                op: str_field(o, "op")?,
                completed: u64_field(o, "completed")?,
                abandoned: u64_field(o, "abandoned")?,
                attempts: u64_field(o, "attempts")?,
                p50_ns: u64_field(hist, "p50_ns")?,
                p99_ns: u64_field(hist, "p99_ns")?,
                p999_ns: u64_field(hist, "p999_ns")?,
                max_ns: u64_field(hist, "max_ns")?,
                exemplars,
            });
        }
        let mut objectives = Vec::new();
        for o in slo
            .get("objectives")
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
        {
            let name = str_field(o, "name")?;
            let desc = match o.get("kind").and_then(JsonValue::as_str) {
                Some("latency") => format!(
                    "latency({}) p999 < {} ns, budget {}/1000",
                    o.get("hist").and_then(JsonValue::as_str).unwrap_or("?"),
                    u64_field(o, "target_ns")?,
                    u64_field(o, "budget_milli")?,
                ),
                Some("error_rate") => format!(
                    "errors({}) / total({}) < {}/1000",
                    o.get("errors").and_then(JsonValue::as_str).unwrap_or("?"),
                    o.get("total").and_then(JsonValue::as_str).unwrap_or("?"),
                    u64_field(o, "budget_milli")?,
                ),
                other => format!("unknown objective kind {other:?}"),
            };
            objectives.push((name, desc));
        }
        let mut alerts = Vec::new();
        for a in slo.get("alerts").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            alerts.push(SloAlertRow {
                at_ns: u64_field(a, "at_ns")?,
                window: u64_field(a, "window")?,
                subject: str_field(a, "subject")?,
                value_milli: a
                    .get("value_milli")
                    .and_then(JsonValue::as_i64)
                    .ok_or("alert: missing \"value_milli\"")?,
            });
        }
        Ok(SloSummary {
            ops,
            objectives,
            alerts,
        })
    }

    /// Deterministic text report: the per-op tail-latency table, each op's
    /// exemplar requests with their stage breakdowns, the declared
    /// objectives, and any burn alerts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let us = |ns: u64| format!("{}.{:03}us", ns / 1_000, ns % 1_000);
        out.push_str(&format!(
            "{:<14} {:>9} {:>6} {:>7} {:>13} {:>13} {:>13} {:>13}\n",
            "op", "completed", "aband", "retries", "p50", "p99", "p999", "max"
        ));
        for o in &self.ops {
            out.push_str(&format!(
                "{:<14} {:>9} {:>6} {:>7} {:>13} {:>13} {:>13} {:>13}\n",
                o.op,
                o.completed,
                o.abandoned,
                o.attempts.saturating_sub(o.completed),
                us(o.p50_ns),
                us(o.p99_ns),
                us(o.p999_ns),
                us(o.max_ns),
            ));
        }
        for o in &self.ops {
            if o.exemplars.is_empty() {
                continue;
            }
            out.push_str(&format!("slowest {} requests:\n", o.op));
            for e in &o.exemplars {
                let stages: Vec<String> = e
                    .stages
                    .iter()
                    .filter(|(_, ns)| *ns > 0)
                    .map(|(k, ns)| format!("{} {}", k.trim_end_matches("_ns"), us(*ns)))
                    .collect();
                out.push_str(&format!(
                    "  #{:<6} total {:>13}  attempts {}  issued at {}  [{}]\n",
                    e.id,
                    us(e.total_ns),
                    e.attempts,
                    us(e.issued_at_ns),
                    stages.join(", "),
                ));
            }
        }
        if !self.objectives.is_empty() {
            out.push_str("objectives:\n");
            for (name, desc) in &self.objectives {
                out.push_str(&format!("  {name:<16} {desc}\n"));
            }
        }
        if self.alerts.is_empty() {
            out.push_str("burn alerts: none\n");
        } else {
            out.push_str("burn alerts:\n");
            for a in &self.alerts {
                out.push_str(&format!(
                    "  {} at {}  (window {}, {}.{:03}x budget)\n",
                    a.subject,
                    us(a.at_ns),
                    a.window,
                    a.value_milli / 1000,
                    (a.value_milli % 1000).unsigned_abs(),
                ));
            }
        }
        out
    }

    /// Regression gate on the request tail: a violation is a relative
    /// increase beyond `tolerance_milli` parts-per-thousand in any op's
    /// p999, a new burn alert the baseline didn't have, or an op losing all
    /// completions. `self` is the baseline.
    pub fn regressions(&self, other: &SloSummary, tolerance_milli: u64) -> Vec<String> {
        let mut out = Vec::new();
        let cand: BTreeMap<&str, &SloOpRow> =
            other.ops.iter().map(|o| (o.op.as_str(), o)).collect();
        for base in &self.ops {
            let Some(c) = cand.get(base.op.as_str()) else {
                if base.completed > 0 {
                    out.push(format!("op {}: vanished from candidate", base.op));
                }
                continue;
            };
            let a = base.p999_ns;
            let b = c.p999_ns;
            let limit = a + a / 1000 * tolerance_milli + a % 1000 * tolerance_milli / 1000;
            if b > limit {
                let pct = if a == 0 {
                    f64::INFINITY
                } else {
                    100.0 * (b as f64 - a as f64) / a as f64
                };
                out.push(format!(
                    "op {} p999: {a} ns -> {b} ns (+{pct:.1}%, tolerance {:.1}%)",
                    base.op,
                    tolerance_milli as f64 / 10.0
                ));
            }
        }
        if self.alerts.is_empty() && !other.alerts.is_empty() {
            for a in &other.alerts {
                out.push(format!(
                    "new burn alert: {} at {} ns (window {})",
                    a.subject, a.at_ns, a.window
                ));
            }
        }
        out
    }

    /// Compare two sidecars op by op (`self` is the baseline; positive
    /// deltas mean the candidate's tail is slower).
    pub fn render_diff(&self, other: &SloSummary) -> String {
        let mut out = String::new();
        let cand: BTreeMap<&str, &SloOpRow> =
            other.ops.iter().map(|o| (o.op.as_str(), o)).collect();
        let base: BTreeMap<&str, &SloOpRow> = self.ops.iter().map(|o| (o.op.as_str(), o)).collect();
        let mut names: Vec<&str> = base.keys().chain(cand.keys()).copied().collect();
        names.sort_unstable();
        names.dedup();
        out.push_str("per-op p999:\n");
        for name in names {
            let a = base.get(name).map(|o| o.p999_ns).unwrap_or(0);
            let b = cand.get(name).map(|o| o.p999_ns).unwrap_or(0);
            out.push_str(&format!(
                "  {name:<14} {:>12} ns -> {:>12} ns   delta {:+} ns\n",
                a,
                b,
                b as i64 - a as i64
            ));
        }
        out.push_str(&format!(
            "burn alerts: {} -> {}\n",
            self.alerts.len(),
            other.alerts.len()
        ));
        out
    }
}

// ---- the retained causal DAG (what-if input) --------------------------------

/// Rebuild the retained causal DAG and per-op tail mixes from a trace file —
/// the input `ps2-trace whatif` replays. The DAG comes from the
/// `"ps2"."dag"` section (schema `ps2-dag-v1`, integer-only, so the f64
/// JSON parser loses nothing); the tails come from the embedded
/// `"ps2"."slo"` section when present (an SLO-less trace still supports
/// makespan experiments, just without tail estimates).
pub fn whatif_input(text: &str) -> Result<(CausalDag, Vec<OpTails>), String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let dag = doc.get("ps2").and_then(|p| p.get("dag")).ok_or(
        "no \"ps2\".\"dag\" section — was this trace written by a ps2-run \
         that embeds the causal DAG (--trace-json)?",
    )?;
    match dag.get("schema").and_then(JsonValue::as_str) {
        Some("ps2-dag-v1") => {}
        other => return Err(format!("\"ps2\".\"dag\": unsupported schema {other:?}")),
    }
    let makespan_ns = dag
        .get("makespan_ns")
        .and_then(JsonValue::as_u64)
        .ok_or("\"ps2\".\"dag\": missing \"makespan_ns\"")?;
    let labels = dag
        .get("labels")
        .and_then(JsonValue::as_arr)
        .ok_or("\"ps2\".\"dag\": missing \"labels\"")?
        .iter()
        .map(|l| {
            l.as_str()
                .map(str::to_string)
                .ok_or_else(|| "\"ps2\".\"dag\": non-string label".to_string())
        })
        .collect::<Result<Vec<String>, String>>()?;
    let mut procs = Vec::new();
    for p in dag
        .get("procs")
        .and_then(JsonValue::as_arr)
        .ok_or("\"ps2\".\"dag\": missing \"procs\"")?
    {
        let name = p
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("dag proc: missing \"name\"")?
            .to_string();
        let field = |key: &str| -> Result<u64, String> {
            p.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("dag proc {name:?}: missing/invalid \"{key}\""))
        };
        let daemon = p
            .get("daemon")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("dag proc {name:?}: missing \"daemon\""))?;
        let finished_ns = field("finished_ns")?;
        let busy_ns = field("busy_ns")?;
        let mut events = Vec::new();
        for row in p
            .get("events")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("dag proc {name:?}: missing \"events\""))?
        {
            let row = row
                .as_arr()
                .ok_or_else(|| format!("dag proc {name:?}: event is not an array"))?;
            let n = |i: usize| -> Result<u64, String> {
                row.get(i)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("dag proc {name:?}: event field {i} missing/invalid"))
            };
            let ev = match n(0)? {
                0 => DagEvent::Compute {
                    at: n(1)?,
                    dt: n(2)?,
                    label: match row.get(3).and_then(JsonValue::as_i64) {
                        Some(l) if l >= 0 => Some(l as u32),
                        Some(_) => None,
                        None => {
                            return Err(format!(
                                "dag proc {name:?}: compute event missing label field"
                            ))
                        }
                    },
                },
                1 => DagEvent::Send {
                    at: n(1)?,
                    dst: n(2)? as usize,
                    arrival: n(3)?,
                    seq: n(4)?,
                    ideal_ns: n(5)?,
                },
                2 => DagEvent::Recv {
                    at: n(1)?,
                    src: n(2)? as usize,
                    seq: n(3)?,
                },
                3 => DagEvent::Point { at: n(1)? },
                d => return Err(format!("dag proc {name:?}: unknown event kind {d}")),
            };
            events.push(ev);
        }
        procs.push(DagProc {
            name,
            daemon,
            finished_ns,
            busy_ns,
            events,
        });
    }

    // Tails are optional: reuse the SLO reader and fold exemplar stages into
    // the replay categories.
    let tails = match SloSummary::from_json(text) {
        Ok(slo) => slo
            .ops
            .iter()
            .map(|o| {
                let stage = |e: &SloExemplar, key: &str| -> u64 {
                    e.stages
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|&(_, n)| n)
                        .unwrap_or(0)
                };
                let (mut c, mut n, mut q) = (0u64, 0u64, 0u64);
                for e in &o.exemplars {
                    c += stage(e, "client_issue_ns")
                        + stage(e, "service_ns")
                        + stage(e, "client_recv_ns")
                        + stage(e, "cache_fill_ns");
                    n += stage(e, "net_request_ns") + stage(e, "net_reply_ns");
                    q += stage(e, "server_queue_ns");
                }
                OpTails {
                    op: o.op.clone(),
                    p99_ns: o.p99_ns,
                    p999_ns: o.p999_ns,
                    compute_ns: c,
                    network_ns: n,
                    queue_ns: q,
                }
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    Ok((CausalDag::new(makespan_ns, labels, procs), tails))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5, true, null, "x\nA"], "b": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], JsonValue::Num(-2.5));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[3], JsonValue::Null);
        assert_eq!(arr[4].as_str(), Some("x\nA"));
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("tru").is_err());
    }

    #[test]
    fn summary_requires_ps2_section() {
        let err = TraceSummary::from_json(r#"{"traceEvents": []}"#).unwrap_err();
        assert!(err.contains("ps2"), "unexpected error: {err}");
    }

    const SLO_DOC: &str = r#"{
      "schema": "ps2-slo-v1",
      "ops": [
        {"op": "pull", "completed": 10, "abandoned": 1, "attempts": 12,
         "hist": {"count": 10, "sum_ns": 1000, "min_ns": 50, "max_ns": 400,
                  "p50_ns": 100, "p99_ns": 300, "p999_ns": 400, "buckets": [[10, 10]]},
         "exemplars": [
           {"id": 7, "issued_at_ns": 5, "total_ns": 400, "attempts": 2,
            "stages": {"client_issue_ns": 10, "net_request_ns": 90,
                       "server_queue_ns": 200, "service_ns": 50,
                       "net_reply_ns": 40, "client_recv_ns": 10, "cache_fill_ns": 0}}
         ]}
      ],
      "objectives": [
        {"name": "ps.pull.p999", "kind": "latency", "hist": "ps.client.op.pull.latency",
         "target_ns": 1000, "budget_milli": 1}
      ],
      "alerts": [
        {"kind": "watchdog.slo_burn", "at_ns": 2000000, "window": 1, "proc": -1,
         "subject": "ps.pull.p999", "value_milli": 25000}
      ]
    }"#;

    #[test]
    fn slo_summary_reads_sidecar_and_embedded_forms() {
        let s = SloSummary::from_json(SLO_DOC).unwrap();
        assert_eq!(s.ops.len(), 1);
        assert_eq!(s.ops[0].p999_ns, 400);
        assert_eq!(s.ops[0].exemplars.len(), 1);
        let e = &s.ops[0].exemplars[0];
        assert_eq!(e.id, 7);
        assert_eq!(e.stages.iter().map(|(_, n)| n).sum::<u64>(), e.total_ns);
        assert_eq!(s.objectives.len(), 1);
        assert_eq!(s.alerts.len(), 1);
        assert_eq!(s.alerts[0].at_ns, 2_000_000);

        // The same document embedded in a trace file parses identically.
        let embedded = format!(r#"{{"traceEvents": [], "ps2": {{"slo": {SLO_DOC}}}}}"#);
        let s2 = SloSummary::from_json(&embedded).unwrap();
        assert_eq!(s2.ops[0].p999_ns, s.ops[0].p999_ns);
        assert_eq!(s2.alerts.len(), 1);
    }

    #[test]
    fn slo_regressions_gate_p999_and_new_alerts() {
        let base = SloSummary::from_json(SLO_DOC).unwrap();
        let mut cand = base.clone();
        assert!(base.regressions(&cand, 50).is_empty());
        cand.ops[0].p999_ns = 500; // +25% > 5% tolerance
        let v = base.regressions(&cand, 50);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("p999"), "{v:?}");

        // A new alert in the candidate is a violation even when p999 holds.
        let mut no_alert = base.clone();
        no_alert.alerts.clear();
        let v = no_alert.regressions(&base, 50);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("burn alert"), "{v:?}");
    }
}
