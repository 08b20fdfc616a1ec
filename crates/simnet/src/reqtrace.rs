//! Request-scoped tracing: per-request stage latencies and tail exemplars.
//!
//! The flight recorder ([`crate::metrics`]) aggregates per-op totals and the
//! causal analyzer attributes the *makespan*; neither can answer "why was
//! *this* request slow?". This module gives every fabric request a run-unique
//! token that rides its envelope end to end (copied onto the reply), so the
//! runtime can decompose each request into stage latencies:
//!
//! * `client_issue` — from the op starting to the request going on the wire
//!   (batch building, payload cloning, earlier slots' sends),
//! * `net_request` — wire + NIC-queue time of the (last) request attempt,
//! * `server_queue` — arrival at the server until the server dequeues it,
//! * `service` — dequeue until the reply send,
//! * `net_reply` — wire + NIC-queue time of the reply,
//! * `client_recv` — reply arrival until the client consumes it.
//!
//! The six stages partition the total exactly.
//!
//! ## Determinism (same discipline as metrics / SLO judge / hostprof)
//!
//! Recording is **not** a yield point: every hook runs inside the runtime's
//! existing lock, moves no clock, consumes no sequence or correlation
//! number, and wakes no process. Request ids come from the recorder's own
//! counter, which exists only when tracing is enabled — so a traced run is
//! byte-identical (report, metrics, trace virtual times) to an untraced
//! same-seed run. `tests/slo_tracing.rs` asserts this.
//!
//! ## Tail exemplars
//!
//! Per op, the recorder keeps the [`EXEMPLAR_K`] slowest completed requests
//! with their full stage breakdowns — a deterministic top-K (ordered by
//! total latency descending, ties broken by the smaller request id, which is
//! itself deterministic). Exemplars are exported in the SLO sidecar
//! (`ps2-run --slo-json`, schema `ps2-slo-v1`), which is also embedded in
//! the Perfetto trace's `"ps2"."slo"` section. [`slo_json`] writes it,
//! [`slo_from_json`] reads it back into the same types, and [`render_slo`]
//! is the one text report both `ps2-run` and `ps2-trace slo` print.

use std::collections::BTreeMap;

use crate::json::{JsonValue, JsonWriter, Style};
use crate::metrics::VtHistogram;
use crate::time::SimTime;
use crate::watchdog::{read_alerts, write_alerts, Alert, SloKind, SloObjective};

/// How many slowest-request exemplars are retained per op.
pub const EXEMPLAR_K: usize = 5;

/// Trace token carried by a fabric request envelope (and copied onto its
/// reply). Opaque outside the crate: minted by the recorder, attached by the
/// fabric, interpreted by the runtime's send/dequeue hooks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqToken {
    pub(crate) id: u64,
}

/// Stage breakdown of one completed request, all in virtual nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ReqRecord {
    /// Run-unique request id (mint order — deterministic).
    pub id: u64,
    /// Client clock when the op issued this request.
    pub issued_at_ns: u64,
    /// Issue → the client consuming the reply.
    pub total_ns: u64,
    /// Send attempts (1 = no retry).
    pub attempts: u32,
    pub client_issue_ns: u64,
    pub net_request_ns: u64,
    pub server_queue_ns: u64,
    pub service_ns: u64,
    pub net_reply_ns: u64,
    pub client_recv_ns: u64,
}

impl ReqRecord {
    /// Collapse the stage decomposition into the causal analyzer's three
    /// active categories, `(compute, network, queue)`: client think time and
    /// server service are compute, the two wire stages are network, and the
    /// server mailbox wait is queue. `crate::whatif` aggregates this over an
    /// op's exemplars to estimate how a counterfactual edit moves its tails.
    pub fn category_split_ns(&self) -> (u64, u64, u64) {
        (
            self.client_issue_ns + self.service_ns + self.client_recv_ns,
            self.net_request_ns + self.net_reply_ns,
            self.server_queue_ns,
        )
    }

    /// The six stages in request order, keyed by their JSON names.
    fn stages(&self) -> [(&'static str, u64); 6] {
        [
            ("client_issue_ns", self.client_issue_ns),
            ("net_request_ns", self.net_request_ns),
            ("server_queue_ns", self.server_queue_ns),
            ("service_ns", self.service_ns),
            ("net_reply_ns", self.net_reply_ns),
            ("client_recv_ns", self.client_recv_ns),
        ]
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(Style::Inline);
        w.key("id").raw(self.id);
        w.key("issued_at_ns").raw(self.issued_at_ns);
        w.key("total_ns").raw(self.total_ns);
        w.key("attempts").raw(self.attempts);
        w.key("stages").counts(Style::Inline, self.stages()).end();
    }

    fn read_json(v: &JsonValue) -> Result<ReqRecord, String> {
        let stages = v.field("stages")?;
        let stage = |k: &str| stages.u64_field(k);
        Ok(ReqRecord {
            id: v.u64_field("id")?,
            issued_at_ns: v.u64_field("issued_at_ns")?,
            total_ns: v.u64_field("total_ns")?,
            attempts: u32::try_from(v.u64_field("attempts")?).map_err(|e| e.to_string())?,
            client_issue_ns: stage("client_issue_ns")?,
            net_request_ns: stage("net_request_ns")?,
            server_queue_ns: stage("server_queue_ns")?,
            service_ns: stage("service_ns")?,
            net_reply_ns: stage("net_reply_ns")?,
            client_recv_ns: stage("client_recv_ns")?,
        })
    }
}

/// In-flight request state. Stage timestamps are absolute virtual clocks;
/// the record derives the deltas at completion. A retried request keeps one
/// `LiveReq` across attempts — the stage clocks of the winning (last
/// dequeued) attempt overwrite the timed-out one's.
#[derive(Clone, Debug)]
struct LiveReq {
    op: u16,
    issued_at: u64,
    attempts: u32,
    first_send: u64,
    last_sent: u64,
    req_arrival: u64,
    dequeued: u64,
    service_end: u64,
    reply_arrival: u64,
}

/// Per-op aggregate of completed requests, with exemplars.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpReqStats {
    pub op: String,
    /// High-resolution histogram of total request latency.
    pub hist: VtHistogram,
    pub completed: u64,
    /// Requests still live when the run ended (client died, or the run
    /// finished mid-flight).
    pub abandoned: u64,
    /// Total send attempts across completed requests.
    pub attempts: u64,
    /// The [`EXEMPLAR_K`] slowest requests, slowest first.
    pub exemplars: Vec<ReqRecord>,
}

/// Request-level summary of a finished run, carried on
/// [`SimReport::reqs`](crate::SimReport::reqs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReqSummary {
    /// Per-op stats, ordered by op name.
    pub ops: Vec<OpReqStats>,
}

impl ReqSummary {
    pub fn op(&self, name: &str) -> Option<&OpReqStats> {
        self.ops.iter().find(|o| o.op == name)
    }

    pub fn completed(&self) -> u64 {
        self.ops.iter().map(|o| o.completed).sum()
    }

    /// One object per op, each with its exemplars one per line: integers and
    /// fixed key order only, byte-identical across same-seed runs.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.arr(Style::Block);
        for o in &self.ops {
            w.obj(Style::Inline).key("op").str(&o.op);
            w.key("completed").raw(o.completed);
            w.key("abandoned").raw(o.abandoned);
            w.key("attempts").raw(o.attempts);
            w.key("hist");
            o.hist.write_json(w, true);
            w.key("exemplars").arr(Style::Block);
            for e in &o.exemplars {
                e.write_json(w);
            }
            w.end().end();
        }
        w.end();
    }

    /// The inverse of [`ReqSummary::write_json`].
    fn read_json(ops: &[JsonValue]) -> Result<ReqSummary, String> {
        let op = |o: &JsonValue| -> Result<OpReqStats, String> {
            Ok(OpReqStats {
                op: o.str_field("op")?.to_string(),
                hist: VtHistogram::read_json(o.field("hist")?)?,
                completed: o.u64_field("completed")?,
                abandoned: o.u64_field("abandoned")?,
                attempts: o.u64_field("attempts")?,
                exemplars: o
                    .arr_field("exemplars")?
                    .iter()
                    .map(ReqRecord::read_json)
                    .collect::<Result<_, _>>()?,
            })
        };
        Ok(ReqSummary {
            ops: ops.iter().map(op).collect::<Result<_, _>>()?,
        })
    }
}

/// The in-run recorder. Lives inside the runtime's shared state (like the
/// SLO burn judge); exists only when request tracing was enabled on the
/// builder, so disabled runs pay a single `Option` check per hook site.
#[derive(Debug, Default)]
pub(crate) struct ReqRecorder {
    next_id: u64,
    op_ids: BTreeMap<String, u16>,
    stats: Vec<OpReqStats>,
    live: BTreeMap<u64, LiveReq>,
}

impl ReqRecorder {
    pub(crate) fn new() -> ReqRecorder {
        ReqRecorder::default()
    }

    fn op_id(&mut self, op: &str) -> u16 {
        if let Some(&id) = self.op_ids.get(op) {
            return id;
        }
        let id = self.stats.len() as u16;
        self.op_ids.insert(op.to_string(), id);
        self.stats.push(OpReqStats {
            op: op.to_string(),
            ..OpReqStats::default()
        });
        id
    }

    /// Mint the token of one request of op `op`, issued at clock `now`.
    pub(crate) fn begin(&mut self, op: &str, now: SimTime) -> ReqToken {
        let op = self.op_id(op);
        self.next_id += 1;
        let id = self.next_id;
        self.live.insert(
            id,
            LiveReq {
                op,
                issued_at: now.as_nanos(),
                attempts: 0,
                first_send: 0,
                last_sent: 0,
                req_arrival: 0,
                dequeued: 0,
                service_end: 0,
                reply_arrival: 0,
            },
        );
        ReqToken { id }
    }

    /// An envelope carrying `tok` went on the wire. Requests bump the
    /// attempt count; replies close the service stage. Sends for tokens
    /// already completed (a slow server answering a request the client
    /// retried and finished elsewhere) are ignored.
    pub(crate) fn on_send(
        &mut self,
        tok: ReqToken,
        now: SimTime,
        arrival: SimTime,
        is_reply: bool,
    ) {
        let Some(req) = self.live.get_mut(&tok.id) else {
            return;
        };
        if is_reply {
            req.service_end = now.as_nanos();
            req.reply_arrival = arrival.as_nanos();
        } else {
            req.attempts += 1;
            if req.attempts == 1 {
                req.first_send = now.as_nanos();
            }
            req.last_sent = now.as_nanos();
            req.req_arrival = arrival.as_nanos();
        }
    }

    /// An envelope carrying `tok` was consumed from a mailbox at `clock`
    /// (the consumer's clock after syncing to the arrival). A request
    /// dequeue closes the server-queue stage; a reply dequeue completes the
    /// request. Late dequeues of already-completed tokens are ignored.
    pub(crate) fn on_dequeue(&mut self, tok: ReqToken, clock: SimTime, is_reply: bool) {
        if !is_reply {
            if let Some(req) = self.live.get_mut(&tok.id) {
                req.dequeued = clock.as_nanos();
            }
            return;
        }
        let Some(req) = self.live.remove(&tok.id) else {
            return;
        };
        let done = clock.as_nanos();
        let rec = ReqRecord {
            id: tok.id,
            issued_at_ns: req.issued_at,
            total_ns: done.saturating_sub(req.issued_at),
            attempts: req.attempts,
            client_issue_ns: req.first_send.saturating_sub(req.issued_at),
            net_request_ns: req.req_arrival.saturating_sub(req.last_sent),
            server_queue_ns: req.dequeued.saturating_sub(req.req_arrival),
            service_ns: req.service_end.saturating_sub(req.dequeued),
            net_reply_ns: req.reply_arrival.saturating_sub(req.service_end),
            client_recv_ns: done.saturating_sub(req.reply_arrival),
        };
        let st = &mut self.stats[req.op as usize];
        st.completed += 1;
        st.attempts += req.attempts as u64;
        st.hist.observe(SimTime(rec.total_ns));
        // (total desc, id asc) is a total order, so the kept top-K does not
        // depend on completion order.
        st.exemplars.push(rec);
        st.exemplars
            .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
        st.exemplars.truncate(EXEMPLAR_K);
    }

    /// Run-end flush: count still-live requests as abandoned and hand out
    /// the per-op summary (ops sorted by name).
    pub(crate) fn finish(mut self) -> ReqSummary {
        for (_, req) in std::mem::take(&mut self.live) {
            self.stats[req.op as usize].abandoned += 1;
        }
        let mut ops = self.stats;
        ops.sort_by(|a, b| a.op.cmp(&b.op));
        ReqSummary { ops }
    }
}

/// Render the full SLO sidecar (schema `ps2-slo-v1`): per-op request stats
/// with exemplars, the declared objectives, and the SLO burn alerts the run
/// raised ([`SimReport::alerts`](crate::SimReport::alerts)). The same object is
/// embedded under `"ps2"."slo"` in the Perfetto export; `ps2-trace slo` reads
/// either form.
pub fn slo_json(reqs: &ReqSummary, objectives: &[SloObjective], alerts: &[Alert]) -> String {
    let mut w = JsonWriter::new();
    w.obj(Style::Block);
    w.key("schema").str("ps2-slo-v1");
    w.key("ops");
    reqs.write_json(&mut w);
    w.key("objectives").arr(Style::Block);
    for o in objectives {
        o.write_json(&mut w);
    }
    w.end().key("alerts");
    write_alerts(&mut w, alerts);
    w.end();
    w.finish_line()
}

/// Read a `ps2-slo-v1` object back into what [`slo_json`] was given: the
/// request summary (histograms and exemplars exact), the objectives and the
/// burn alerts.
pub fn slo_from_json(
    slo: &JsonValue,
) -> Result<(ReqSummary, Vec<SloObjective>, Vec<Alert>), String> {
    match slo.str_field("schema")? {
        "ps2-slo-v1" => {}
        other => return Err(format!("unsupported schema {other:?}")),
    }
    Ok((
        ReqSummary::read_json(slo.arr_field("ops")?)?,
        slo.arr_field("objectives")?
            .iter()
            .map(SloObjective::read_json)
            .collect::<Result<_, _>>()?,
        read_alerts(slo.arr_field("alerts")?)?,
    ))
}

/// Request latencies live at µs scale; `SimTime`'s second-based `Display`
/// would flatten them all to 0.000s.
fn us(ns: u64) -> String {
    format!("{}.{:03}us", ns / 1_000, ns % 1_000)
}

/// The SLO report as text, over the same arguments as [`slo_json`]: the
/// per-op tail-latency table, each op's exemplar requests with their stage
/// breakdowns, the declared objectives, and the burn alerts (other alert
/// kinds are ignored). `ps2-run --slo-json` prints it from the live run,
/// `ps2-trace slo` from the file, and the two agree byte for byte.
pub fn render_slo(reqs: &ReqSummary, objectives: &[SloObjective], alerts: &[Alert]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>9} {:>6} {:>7} {:>13} {:>13} {:>13} {:>13}\n",
        "op", "completed", "aband", "retries", "p50", "p99", "p999", "max"
    ));
    for o in &reqs.ops {
        out.push_str(&format!(
            "{:<14} {:>9} {:>6} {:>7} {:>13} {:>13} {:>13} {:>13}\n",
            o.op,
            o.completed,
            o.abandoned,
            o.attempts.saturating_sub(o.completed),
            us(o.hist.quantile_ns(0.50)),
            us(o.hist.quantile_ns(0.99)),
            us(o.hist.quantile_ns(0.999)),
            us(o.hist.max_ns()),
        ));
    }
    for o in reqs.ops.iter().filter(|o| !o.exemplars.is_empty()) {
        out.push_str(&format!("slowest {} requests:\n", o.op));
        for e in &o.exemplars {
            let stages: Vec<String> = e
                .stages()
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
    if !objectives.is_empty() {
        out.push_str("objectives:\n");
        for o in objectives {
            let desc = match &o.kind {
                SloKind::Latency {
                    hist,
                    target_ns,
                    budget_milli,
                } => format!("latency({hist}) p999 < {target_ns} ns, budget {budget_milli}/1000"),
                SloKind::ErrorRate {
                    errors,
                    total,
                    budget_milli,
                } => format!("errors({errors}) / total({total}) < {budget_milli}/1000"),
            };
            out.push_str(&format!("  {:<16} {desc}\n", o.name));
        }
    }
    if alerts.is_empty() {
        out.push_str("burn alerts: none\n");
    } else {
        out.push_str("burn alerts:\n");
        for a in alerts {
            out.push_str(&format!(
                "  {} at {}  (window {}, {}.{:03}x budget)\n",
                a.subject,
                us(a.at.as_nanos()),
                a.window,
                a.value_milli / 1000,
                (a.value_milli % 1000).unsigned_abs(),
            ));
        }
    }
    out
}

/// Compare two runs' SLO reports op by op (`base` is the baseline; positive
/// deltas mean the candidate's tail is slower), then their burn-alert
/// counts.
pub fn render_slo_diff(
    base: &ReqSummary,
    base_alerts: &[Alert],
    cand: &ReqSummary,
    cand_alerts: &[Alert],
) -> String {
    let mut out = String::from("per-op p999:\n");
    let mut names: Vec<&str> = base
        .ops
        .iter()
        .chain(&cand.ops)
        .map(|o| o.op.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let p999 = |reqs: &ReqSummary, name: &str| {
        reqs.op(name)
            .map_or(0, |o| o.hist.quantile_ns(0.999) as i64)
    };
    for name in names {
        let (a, b) = (p999(base, name), p999(cand, name));
        out.push_str(&format!(
            "  {name:<14} {a:>12} ns -> {b:>12} ns   delta {:+} ns\n",
            b - a
        ));
    }
    out.push_str(&format!(
        "burn alerts: {} -> {}\n",
        base_alerts.len(),
        cand_alerts.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_one(rec: &mut ReqRecorder, op: &str, base: u64, dur: u64) -> u64 {
        let t = rec.begin(op, SimTime(base));
        rec.on_send(t, SimTime(base + 10), SimTime(base + 20), false);
        rec.on_dequeue(t, SimTime(base + 30), false);
        rec.on_send(t, SimTime(base + 40), SimTime(base + dur), true);
        rec.on_dequeue(t, SimTime(base + dur), true);
        t.id
    }

    #[test]
    fn stages_partition_the_total() {
        let mut rec = ReqRecorder::new();
        let t = rec.begin("pull", SimTime(100));
        rec.on_send(t, SimTime(110), SimTime(150), false); // issue 10, net_req 40
        rec.on_dequeue(t, SimTime(155), false); // queue 5
        rec.on_send(t, SimTime(175), SimTime(200), true); // service 20, net_reply 25
        rec.on_dequeue(t, SimTime(208), true); // client_recv 8
        let sum = rec.finish();
        let op = sum.op("pull").expect("op recorded");
        assert_eq!(op.completed, 1);
        let e = &op.exemplars[0];
        assert_eq!(e.total_ns, 108);
        assert_eq!(e.client_issue_ns, 10);
        assert_eq!(e.net_request_ns, 40);
        assert_eq!(e.server_queue_ns, 5);
        assert_eq!(e.service_ns, 20);
        assert_eq!(e.net_reply_ns, 25);
        assert_eq!(e.client_recv_ns, 8);
        assert_eq!(
            e.total_ns,
            e.client_issue_ns
                + e.net_request_ns
                + e.server_queue_ns
                + e.service_ns
                + e.net_reply_ns
                + e.client_recv_ns
        );
    }

    #[test]
    fn top_k_keeps_the_slowest_with_deterministic_ties() {
        let mut rec = ReqRecorder::new();
        for i in 0..(EXEMPLAR_K as u64 + 4) {
            // Durations 100, 200, ... then two ties at the top.
            let dur = if i < EXEMPLAR_K as u64 + 2 {
                100 * (i + 1)
            } else {
                100 * (EXEMPLAR_K as u64 + 2)
            };
            complete_one(&mut rec, "push", i * 10_000, dur);
        }
        let sum = rec.finish();
        let op = sum.op("push").expect("op recorded");
        assert_eq!(op.exemplars.len(), EXEMPLAR_K);
        // Slowest first; the tied slowest keep mint order (smaller id first).
        let totals: Vec<u64> = op.exemplars.iter().map(|e| e.total_ns).collect();
        let mut sorted = totals.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(totals, sorted);
        let ids: Vec<u64> = op
            .exemplars
            .iter()
            .filter(|e| e.total_ns == totals[0])
            .map(|e| e.id)
            .collect();
        let mut ids_sorted = ids.clone();
        ids_sorted.sort();
        assert_eq!(ids, ids_sorted, "ties break toward the smaller id");
    }

    #[test]
    fn retry_counts_attempts_and_keeps_the_winning_stage_clocks() {
        let mut rec = ReqRecorder::new();
        let t = rec.begin("pull", SimTime(0));
        rec.on_send(t, SimTime(5), SimTime(50), false);
        // Attempt 1 times out; attempt 2 lands.
        rec.on_send(t, SimTime(1_000), SimTime(1_040), false);
        rec.on_dequeue(t, SimTime(1_050), false);
        rec.on_send(t, SimTime(1_060), SimTime(1_100), true);
        rec.on_dequeue(t, SimTime(1_100), true);
        let sum = rec.finish();
        let e = &sum.op("pull").expect("op").exemplars[0];
        assert_eq!(e.attempts, 2);
        assert_eq!(e.client_issue_ns, 5, "issue stage keeps the first send");
        assert_eq!(
            e.net_request_ns, 40,
            "network stage keeps the winning attempt"
        );
        assert_eq!(e.total_ns, 1_100);
    }

    #[test]
    fn abandoned_requests_are_counted_not_recorded() {
        let mut rec = ReqRecorder::new();
        complete_one(&mut rec, "pull", 0, 500);
        let t = rec.begin("pull", SimTime(10_000));
        rec.on_send(t, SimTime(10_005), SimTime(10_050), false);
        let sum = rec.finish();
        let op = sum.op("pull").expect("op");
        assert_eq!(op.completed, 1);
        assert_eq!(op.abandoned, 1);
        assert_eq!(op.exemplars.len(), 1);
    }

    #[test]
    fn slo_json_reads_back_into_the_same_types() {
        let mut rec = ReqRecorder::new();
        complete_one(&mut rec, "pull", 0, 750);
        complete_one(&mut rec, "push", 1_000, 300);
        rec.begin("pull", SimTime(5_000)); // never completes
        let reqs = rec.finish();
        let objectives = vec![
            SloObjective::latency_p999("pull.p999", "ps.client.op.pull.latency", SimTime(500)),
            SloObjective::error_rate("timeouts", "ps.client.timeouts", "ps.client.envelopes", 10),
        ];
        let alerts = vec![Alert {
            at: SimTime(2_000_000),
            window: 1,
            subject: "pull.p999".to_string(),
            value_milli: 25_000,
        }];
        let doc = crate::json::parse_json(&slo_json(&reqs, &objectives, &alerts)).unwrap();
        let (r, o, a) = slo_from_json(&doc).unwrap();
        assert_eq!(r, reqs);
        assert_eq!(o, objectives);
        assert_eq!(a, alerts);
        assert_eq!(
            render_slo(&r, &o, &a),
            render_slo(&reqs, &objectives, &alerts)
        );
    }

    /// Nine 100 ns pulls and one 400 ns pull, with that slowest request's
    /// stages; the bucket indices are the log-linear histogram's, and the
    /// quantile fields are what the writer would derive from them.
    const SLO_DOC: &str = r#"{
      "schema": "ps2-slo-v1",
      "ops": [
        {"op": "pull", "completed": 10, "abandoned": 1, "attempts": 12,
         "hist": {"count": 10, "sum_ns": 1300, "min_ns": 100, "max_ns": 400,
                  "p50_ns": 101, "p99_ns": 400, "p999_ns": 400,
                  "buckets": [[82, 9], [146, 1]]},
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
    fn slo_reader_rebuilds_the_fixture() {
        let doc = crate::json::parse_json(SLO_DOC).unwrap();
        let (reqs, objectives, alerts) = slo_from_json(&doc).unwrap();
        let pull = reqs.op("pull").expect("op read");
        assert_eq!((pull.completed, pull.abandoned, pull.attempts), (10, 1, 12));
        let h = &pull.hist;
        assert_eq!(
            (h.count(), h.sum_ns(), h.min_ns(), h.max_ns()),
            (10, 1300, 100, 400)
        );
        for (q, ns) in [(0.5, 101), (0.99, 400), (0.999, 400)] {
            assert_eq!(h.quantile_ns(q), ns, "q={q}");
        }
        let e = &pull.exemplars[0];
        assert_eq!((e.id, e.attempts, e.server_queue_ns), (7, 2, 200));
        assert_eq!(e.stages().iter().map(|(_, ns)| ns).sum::<u64>(), e.total_ns);
        assert_eq!(objectives[0].name, "ps.pull.p999");
        assert_eq!(alerts[0].at, SimTime(2_000_000));

        let mut bad = SLO_DOC.replace("ps2-slo-v1", "ps2-slo-v0");
        assert!(slo_from_json(&crate::json::parse_json(&bad).unwrap()).is_err());
        bad = SLO_DOC.replace("[[82, 9], [146, 1]]", "[[82]]");
        assert!(slo_from_json(&crate::json::parse_json(&bad).unwrap()).is_err());
        bad = SLO_DOC.replace("watchdog.slo_burn", "watchdog.stall");
        assert!(slo_from_json(&crate::json::parse_json(&bad).unwrap()).is_err());
    }

    #[test]
    fn summary_json_is_integer_only_and_nests_exemplars() {
        let mut rec = ReqRecorder::new();
        complete_one(&mut rec, "pull", 0, 750);
        let mut w = JsonWriter::new();
        rec.finish().write_json(&mut w);
        let j = w.finish();
        assert!(j.contains("\"op\": \"pull\""));
        assert!(j.contains("\"total_ns\": 750"));
        assert!(j.contains("\"server_queue_ns\""));
        assert!(
            j.contains("\"p999_ns\""),
            "op hist carries tail quantiles: {j}"
        );
    }
}
