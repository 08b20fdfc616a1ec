//! Export a recorded trace as Chrome trace-event JSON, loadable in the
//! Perfetto UI (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Layout: one Perfetto "thread" per simulated process (`tid` = process id,
//! all under `pid` 1), `X` slices for compute charges (named by op label),
//! tiny slices plus `s`/`f` flow events for every delivered message (flow id
//! = the message's run-unique `seq`), `i` instant events for marks, drops
//! and finishes, and global-scope `i` instants (no `tid`) for SLO burn
//! alerts, which belong to the run rather than to one process. When a
//! [`CausalAnalysis`] is supplied, an extra synthetic track (`tid` = process
//! count) highlights the critical path, one slice per attributed segment.
//! The top-level `"ps2"` key, which trace viewers ignore, carries the
//! recordings `ps2-trace` reads back — the retained causal DAG and the SLO
//! report — and no derived number: the critical path is recomputed from the
//! DAG, so the file holds one copy of each fact.
//!
//! The output is built from integers and `BTreeMap` iteration only, so it is
//! byte-identical across same-seed runs.

use crate::causal::{CausalAnalysis, CausalDag};
use crate::json::{JsonWriter, Quoted, Style};
use crate::report::{SimReport, TraceEvent};
use crate::watchdog::Alert;

/// Nanoseconds → microsecond timestamp with three decimals, via integer
/// math so formatting can never drift.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render `report` as trace-event JSON. `analysis` adds the critical-path
/// track; `alerts` become global-scope instants on the timeline, named by
/// [`Alert::LABEL`](crate::Alert::LABEL). The `"ps2"` section holds
/// recordings only: `"drops_by_tag"` (dropped messages per protocol tag),
/// `slo`, a pre-rendered `ps2-slo-v1` object (see
/// [`crate::reqtrace::slo_json`], read back by
/// [`crate::reqtrace::slo_from_json`]) embedded verbatim as `"slo"`, and
/// `dag` as `"dag"` (schema `ps2-dag-v1`, read back by
/// [`CausalDag::from_json`]). Every analysis of the file — critical path,
/// what-if replay — is recomputed from the DAG.
pub fn export_trace_full(
    report: &SimReport,
    analysis: Option<&CausalAnalysis>,
    alerts: &[Alert],
    slo: Option<&str>,
    dag: Option<&CausalDag>,
) -> String {
    let _prof = crate::hostprof::scope(crate::hostprof::Scope::TraceExport);
    // The envelope and the flush-left event rows are Chrome's format, not
    // ours: literal lines and per-event templates, one row per line.
    let mut s = String::from(
        "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n\
         {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"ps2-sim\"}}",
    );
    let push_ev = |s: &mut String, ev: String| {
        s.push_str(",\n");
        s.push_str(&ev);
    };
    for (i, p) in report.procs.iter().enumerate() {
        push_ev(
            &mut s,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                i,
                Quoted(&p.name)
            ),
        );
    }
    if analysis.is_some() {
        push_ev(
            &mut s,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"critical-path\"}}}}",
                report.procs.len()
            ),
        );
    }

    for e in &report.trace {
        let ev = match e {
            TraceEvent::Compute {
                at,
                proc,
                dt,
                label,
            } => {
                let name = label.map(|l| report.label_name(l)).unwrap_or("compute");
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"name\":{},\"cat\":\"compute\"}}",
                    proc.0,
                    fmt_us(at.as_nanos()),
                    fmt_us(dt.as_nanos()),
                    Quoted(name)
                )
            }
            TraceEvent::Send {
                at,
                src,
                dst,
                tag,
                bytes,
                seq,
                ..
            } => {
                let slice = format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":0.001,\
                     \"name\":\"send t{}\",\"cat\":\"net\",\
                     \"args\":{{\"dst\":{},\"bytes\":{},\"seq\":{}}}}}",
                    src.0,
                    fmt_us(at.as_nanos()),
                    tag,
                    dst.0,
                    bytes,
                    seq
                );
                let flow = format!(
                    "{{\"ph\":\"s\",\"pid\":1,\"tid\":{},\"ts\":{},\
                     \"name\":\"msg\",\"cat\":\"flow\",\"id\":{}}}",
                    src.0,
                    fmt_us(at.as_nanos()),
                    seq
                );
                format!("{slice},\n{flow}")
            }
            TraceEvent::Recv {
                at,
                proc,
                src,
                tag,
                seq,
            } => {
                let slice = format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":0.001,\
                     \"name\":\"recv t{}\",\"cat\":\"net\",\
                     \"args\":{{\"src\":{},\"seq\":{}}}}}",
                    proc.0,
                    fmt_us(at.as_nanos()),
                    tag,
                    src.0,
                    seq
                );
                let flow = format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{},\"ts\":{},\
                     \"name\":\"msg\",\"cat\":\"flow\",\"id\":{}}}",
                    proc.0,
                    fmt_us(at.as_nanos()),
                    seq
                );
                format!("{slice},\n{flow}")
            }
            TraceEvent::Mark {
                at,
                proc,
                label,
                payload,
            } => {
                let args = match payload {
                    Some(v) => format!(",\"args\":{{\"payload\":{v}}}"),
                    None => String::new(),
                };
                format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\
                     \"name\":{},\"cat\":\"mark\"{}}}",
                    proc.0,
                    fmt_us(at.as_nanos()),
                    Quoted(report.label_name(*label)),
                    args
                )
            }
            TraceEvent::Drop {
                at,
                src,
                dst,
                tag,
                bytes,
                seq,
            } => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\
                 \"name\":\"drop t{}\",\"cat\":\"drop\",\
                 \"args\":{{\"dst\":{},\"bytes\":{},\"seq\":{}}}}}",
                src.0,
                fmt_us(at.as_nanos()),
                tag,
                dst.0,
                bytes,
                seq
            ),
            TraceEvent::Finish { at, proc } => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\
                 \"name\":\"finish\",\"cat\":\"lifecycle\"}}",
                proc.0,
                fmt_us(at.as_nanos())
            ),
        };
        push_ev(&mut s, ev);
    }
    for a in alerts {
        push_ev(
            &mut s,
            format!(
                "{{\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"ts\":{},\"name\":{},\
                 \"cat\":\"watchdog\",\"args\":{{\"window\":{},\"subject\":{}}}}}",
                fmt_us(a.at.as_nanos()),
                Quoted(Alert::LABEL),
                a.window,
                Quoted(&a.subject)
            ),
        );
    }

    if let Some(a) = analysis {
        let tid = report.procs.len();
        for seg in &a.segments {
            let name = match (seg.category, seg.label.as_deref()) {
                (crate::causal::PathCategory::Compute, Some(l)) => format!("compute:{l}"),
                (c, _) => c.name().to_string(),
            };
            push_ev(
                &mut s,
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"name\":{},\"cat\":\"critical\",\"args\":{{\"proc\":{}}}}}",
                    tid,
                    fmt_us(seg.start.as_nanos()),
                    fmt_us(seg.duration_ns()),
                    Quoted(&name),
                    seg.proc
                ),
            );
        }
    }
    s.push_str("\n]");

    s.push_str(",\n\"ps2\": ");
    let mut w = JsonWriter::appending(s);
    let drops = report
        .metrics
        .counters()
        .filter_map(|(k, v)| Some((k.strip_prefix("net.dropped.tag.")?, v)));
    w.obj(Style::Block)
        .key("drops_by_tag")
        .counts(Style::Inline, drops);
    if let Some(sidecar) = slo {
        w.key("slo").raw(sidecar);
    }
    if let Some(d) = dag {
        w.key("dag");
        d.write_json(&mut w);
    }
    w.end();
    s = w.finish();
    s.push_str("\n}\n");
    s
}
