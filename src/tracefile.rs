//! Offline trace-file analysis for `ps2-trace`.
//!
//! A trace written by `ps2-run --trace-json` is a Chrome trace-event JSON
//! document with an extra top-level `"ps2"` section holding the
//! critical-path analysis (Perfetto ignores unknown top-level keys, so the
//! same file serves both the UI and this module). This module re-reads that
//! section without the original [`SimReport`](ps2_simnet::SimReport): a
//! [`TraceSummary`] and an [`SloSummary`] extractor over the workspace's JSON
//! codec ([`ps2_simnet::json`]), and text renderers for the `report`, `diff`,
//! `slo` and `slo diff` subcommands. The two `diff` views show deltas; they
//! judge nothing.

use std::collections::BTreeMap;

use ps2_simnet::{CausalDag, OpTails};

pub use ps2_simnet::json::{parse_json, JsonValue, ParseError};

/// Per-process row from the trace's analysis section.
#[derive(Debug, Clone)]
pub struct ProcRow {
    pub name: String,
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
            .arr_field("traceEvents")
            .map_err(|e| format!("{e} — not a ps2 trace file"))?
            .len();
        let ps2 = doc
            .get("ps2")
            .ok_or("no \"ps2\" analysis section — was this written by ps2-run --trace-json?")?;
        let section = || -> Result<TraceSummary, String> {
            let procs = ps2
                .arr_field("procs")?
                .iter()
                .map(|p| {
                    Ok(ProcRow {
                        name: p.str_field("name")?.to_string(),
                        busy_ns: p.u64_field("busy_ns")?,
                        slack_ns: p.u64_field("slack_ns")?,
                        critical_ns: p.u64_field("critical_ns")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(TraceSummary {
                makespan_ns: ps2.u64_field("makespan_ns")?,
                categories: ps2.counts_field("categories")?,
                compute_by_label: ps2.counts_field("compute_by_label")?,
                segments: ps2.u64_field("segments")?,
                procs,
                drops_by_tag: ps2.counts_field("drops_by_tag")?,
                trace_events,
            })
        };
        section().map_err(|e| format!("ps2 section: {e}"))
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
        SloSummary::from_value(&parse_json(text).map_err(|e| e.to_string())?)
    }

    /// [`SloSummary::from_json`] on an already-parsed document, so a caller
    /// that needs more than the SLO section parses the file once.
    fn from_value(doc: &JsonValue) -> Result<SloSummary, String> {
        let slo = if doc.get("schema").and_then(JsonValue::as_str) == Some("ps2-slo-v1") {
            doc
        } else {
            doc.get("ps2").and_then(|p| p.get("slo")).ok_or(
                "no \"ps2\".\"slo\" section and not a ps2-slo-v1 sidecar — \
                 was this written by ps2-run --slo-json (or --trace-json with SLOs)?",
            )?
        };
        let section = || -> Result<SloSummary, String> {
            let mut ops = Vec::new();
            for o in slo.arr_field("ops")? {
                let hist = o.field("hist")?;
                let mut exemplars = Vec::new();
                for e in o.arr_field("exemplars").unwrap_or(&[]) {
                    exemplars.push(SloExemplar {
                        id: e.u64_field("id")?,
                        issued_at_ns: e.u64_field("issued_at_ns")?,
                        total_ns: e.u64_field("total_ns")?,
                        attempts: e.u64_field("attempts")?,
                        stages: e.counts_field("stages")?,
                    });
                }
                ops.push(SloOpRow {
                    op: o.str_field("op")?.to_string(),
                    completed: o.u64_field("completed")?,
                    abandoned: o.u64_field("abandoned")?,
                    attempts: o.u64_field("attempts")?,
                    p50_ns: hist.u64_field("p50_ns")?,
                    p99_ns: hist.u64_field("p99_ns")?,
                    p999_ns: hist.u64_field("p999_ns")?,
                    max_ns: hist.u64_field("max_ns")?,
                    exemplars,
                });
            }
            let mut objectives = Vec::new();
            for o in slo.arr_field("objectives").unwrap_or(&[]) {
                let desc = match o.str_field("kind") {
                    Ok("latency") => format!(
                        "latency({}) p999 < {} ns, budget {}/1000",
                        o.str_field("hist").unwrap_or("?"),
                        o.u64_field("target_ns")?,
                        o.u64_field("budget_milli")?,
                    ),
                    Ok("error_rate") => format!(
                        "errors({}) / total({}) < {}/1000",
                        o.str_field("errors").unwrap_or("?"),
                        o.str_field("total").unwrap_or("?"),
                        o.u64_field("budget_milli")?,
                    ),
                    other => format!("unknown objective kind {:?}", other.ok()),
                };
                objectives.push((o.str_field("name")?.to_string(), desc));
            }
            let mut alerts = Vec::new();
            for a in slo.arr_field("alerts").unwrap_or(&[]) {
                alerts.push(SloAlertRow {
                    at_ns: a.u64_field("at_ns")?,
                    window: a.u64_field("window")?,
                    subject: a.str_field("subject")?.to_string(),
                    value_milli: a.i64_field("value_milli")?,
                });
            }
            Ok(SloSummary {
                ops,
                objectives,
                alerts,
            })
        };
        section().map_err(|e| format!("slo section: {e}"))
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
/// the input `ps2-trace whatif` replays. The file is parsed once: the DAG
/// comes from the `"ps2"."dag"` section ([`CausalDag::from_json`]); the
/// tails come from the embedded `"ps2"."slo"` section when present (an
/// SLO-less trace still supports makespan experiments, just without tail
/// estimates).
pub fn whatif_input(text: &str) -> Result<(CausalDag, Vec<OpTails>), String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let dag = doc.get("ps2").and_then(|p| p.get("dag")).ok_or(
        "no \"ps2\".\"dag\" section — was this trace written by a ps2-run \
         that embeds the causal DAG (--trace-json)?",
    )?;
    let dag = CausalDag::from_json(dag).map_err(|e| format!("\"ps2\".\"dag\": {e}"))?;

    // Tails are optional: reuse the SLO reader and fold exemplar stages into
    // the replay categories.
    let tails = match SloSummary::from_value(&doc) {
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
                        + stage(e, "client_recv_ns");
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
    Ok((dag, tails))
}

#[cfg(test)]
mod tests {
    use super::*;

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
                       "net_reply_ns": 40, "client_recv_ns": 10}}
         ]}
      ],
      "objectives": [
        {"name": "ps.pull.p999", "kind": "latency", "hist": "ps.client.op.pull.latency",
         "target_ns": 1000, "budget_milli": 1}
      ],
      "alerts": [
        {"kind": "watchdog.slo_burn", "at_ns": 2000000, "window": 1,
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
    fn slo_diff_shows_p999_and_alert_deltas() {
        let base = SloSummary::from_json(SLO_DOC).unwrap();
        let same = base.render_diff(&base);
        assert!(same.contains("delta +0 ns"), "{same}");
        assert!(same.contains("burn alerts: 1 -> 1"), "{same}");

        let mut cand = base.clone();
        cand.ops[0].p999_ns = 500;
        let mut no_alert = base.clone();
        no_alert.alerts.clear();
        let text = no_alert.render_diff(&cand);
        assert!(text.contains("delta +100 ns"), "{text}");
        assert!(text.contains("burn alerts: 0 -> 1"), "{text}");
    }
}
