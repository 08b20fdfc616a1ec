//! Offline trace-file reading for `ps2-trace`.
//!
//! A trace written by `ps2-run --trace-json` is a Chrome trace-event JSON
//! document with an extra top-level `"ps2"` section (Perfetto ignores
//! unknown top-level keys, so the same file serves both the UI and this
//! module). The section holds recordings only: the retained causal DAG
//! (`"dag"`, schema `ps2-dag-v1`), the SLO report (`"slo"`, schema
//! `ps2-slo-v1`) and the dropped-message counts. Each schema's reader sits
//! beside its writer in [`ps2_simnet`]; this module only finds the sections
//! and hands back the live types — [`CausalAnalysis`] rebuilt from the DAG,
//! [`ReqSummary`] and its objectives and burn alerts — whose renderers
//! `ps2-run` prints too, so an offline report equals the live one.

use ps2_simnet::{
    slo_from_json, Alert, CausalAnalysis, CausalDag, OpTails, ReqSummary, SloObjective,
};

pub use ps2_simnet::json::{parse_json, JsonValue, ParseError};

/// A trace file's critical path, recomputed from its `"ps2"."dag"` section.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// The recorded run's virtual makespan (`analysis.makespan`).
    pub makespan_ns: u64,
    pub analysis: CausalAnalysis,
}

impl TraceSummary {
    /// Parse a trace file's text. Fails with a description when the document
    /// is not JSON or the `"ps2"."dag"` section is missing or malformed.
    pub fn from_json(text: &str) -> Result<TraceSummary, String> {
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        let analysis = dag(&doc)?
            .critical_path()
            .map_err(|e| format!("critical path: {e}"))?;
        Ok(TraceSummary {
            makespan_ns: analysis.makespan.as_nanos(),
            analysis,
        })
    }
}

/// The retained causal DAG of a parsed trace file.
fn dag(doc: &JsonValue) -> Result<CausalDag, String> {
    let dag = doc
        .get("ps2")
        .and_then(|p| p.get("dag"))
        .ok_or("no \"ps2\".\"dag\" section — was this written by ps2-run --trace-json?")?;
    CausalDag::from_json(dag).map_err(|e| format!("\"ps2\".\"dag\": {e}"))
}

/// The `ps2-slo-v1` object of a parsed document: the document itself when
/// it is a standalone sidecar, else a trace file's `"ps2"."slo"` section.
fn slo_section(doc: &JsonValue) -> Option<&JsonValue> {
    if doc.get("schema").is_some() {
        Some(doc)
    } else {
        doc.get("ps2").and_then(|p| p.get("slo"))
    }
}

/// Read an SLO report — a `ps2-slo-v1` sidecar written by `ps2-run
/// --slo-json`, or a trace file embedding one — back into the request
/// summary, the objectives and the burn alerts
/// ([`slo_from_json`]).
pub fn read_slo(text: &str) -> Result<(ReqSummary, Vec<SloObjective>, Vec<Alert>), String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let slo = slo_section(&doc).ok_or(
        "no \"ps2\".\"slo\" section and not a ps2-slo-v1 sidecar — \
         was this written by ps2-run --slo-json (or --trace-json with SLOs)?",
    )?;
    slo_from_json(slo).map_err(|e| format!("slo section: {e}"))
}

/// Rebuild the retained causal DAG and per-op tail mixes from a trace file —
/// the input `ps2-trace whatif` replays. The file is parsed once: the DAG
/// comes from `"ps2"."dag"`, the tails from the embedded `"ps2"."slo"`
/// section through [`OpTails::from_reqs`], exactly as the live run computes
/// them. An SLO-less trace still supports makespan experiments, just without
/// tail estimates.
pub fn whatif_input(text: &str) -> Result<(CausalDag, Vec<OpTails>), String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let tails = match slo_section(&doc) {
        Some(slo) => {
            let (reqs, _, _) = slo_from_json(slo).map_err(|e| format!("slo section: {e}"))?;
            OpTails::from_reqs(&reqs)
        }
        None => Vec::new(),
    };
    Ok((dag(&doc)?, tails))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2_simnet::{render_slo_diff, slo_json, OpReqStats, ReqRecord, SimTime, VtHistogram};

    #[test]
    fn summary_requires_ps2_section() {
        let err = TraceSummary::from_json(r#"{"traceEvents": []}"#).unwrap_err();
        assert!(err.contains("\"ps2\".\"dag\""), "unexpected error: {err}");
    }

    /// A sidecar of nine 100 ns pulls and one 400 ns pull (the exemplar),
    /// one objective and one burn alert.
    fn slo_doc() -> String {
        let mut hist = VtHistogram::default();
        for ns in [100; 9].into_iter().chain([400]) {
            hist.observe(SimTime(ns));
        }
        let slowest = ReqRecord {
            id: 7,
            issued_at_ns: 5,
            total_ns: 400,
            attempts: 2,
            net_request_ns: 100,
            server_queue_ns: 200,
            service_ns: 50,
            net_reply_ns: 40,
            client_recv_ns: 10,
            ..ReqRecord::default()
        };
        let pull = OpReqStats {
            op: "pull".to_string(),
            hist,
            completed: 10,
            abandoned: 1,
            attempts: 12,
            exemplars: vec![slowest],
        };
        let objective =
            SloObjective::latency_p999("ps.pull.p999", "ps.client.op.pull.latency", SimTime(1_000));
        let burn = Alert {
            at: SimTime(2_000_000),
            window: 1,
            subject: "ps.pull.p999".to_string(),
            value_milli: 25_000,
        };
        slo_json(&ReqSummary { ops: vec![pull] }, &[objective], &[burn])
    }

    #[test]
    fn slo_summary_reads_sidecar_and_embedded_forms() {
        let sidecar = slo_doc();
        let (reqs, objectives, alerts) = read_slo(&sidecar).unwrap();
        let pull = reqs.op("pull").unwrap();
        assert_eq!(pull.hist.quantile_ns(0.999), 400);
        assert_eq!(pull.exemplars[0].id, 7);
        assert_eq!(objectives.len(), 1);
        assert_eq!(alerts[0].at.as_nanos(), 2_000_000);

        // The same document embedded in a trace file reads back identically.
        let embedded = format!(r#"{{"traceEvents": [], "ps2": {{"slo": {sidecar}}}}}"#);
        assert_eq!(read_slo(&embedded).unwrap(), (reqs, objectives, alerts));
        let err = read_slo(r#"{"traceEvents": [], "ps2": {}}"#).unwrap_err();
        assert!(err.contains("\"ps2\".\"slo\""), "unexpected error: {err}");
    }

    #[test]
    fn slo_diff_shows_p999_and_alert_deltas() {
        let (base, _, alerts) = read_slo(&slo_doc()).unwrap();
        let same = render_slo_diff(&base, &alerts, &base, &alerts);
        assert!(same.contains("delta +0 ns"), "{same}");
        assert!(same.contains("burn alerts: 1 -> 1"), "{same}");

        // One more 500 ns pull moves the candidate's p999 up by 100 ns.
        let mut cand = base.clone();
        cand.ops[0].hist.observe(SimTime(500));
        let text = render_slo_diff(&base, &[], &cand, &alerts);
        assert!(text.contains("delta +100 ns"), "{text}");
        assert!(text.contains("burn alerts: 0 -> 1"), "{text}");
    }
}
