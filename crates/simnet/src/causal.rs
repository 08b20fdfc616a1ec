//! Causal analysis of a recorded event trace: the retained event DAG,
//! critical-path extraction, and category attribution.
//!
//! The trace recorded by [`crate::SimBuilder::trace`] forms a DAG: each
//! process's events are totally ordered by its clock (program-order edges),
//! and every delivered message adds an edge from its `Send` to its `Recv`,
//! keyed by the run-unique `seq`. [`CausalDag`] **retains** that graph —
//! per-process event lists plus the send index — so it can be walked more
//! than once: the critical-path extractor below consumes it, and
//! [`crate::whatif`] replays it under counterfactual edits ("what if the
//! network were 2× faster?"). The DAG is also exportable as an integer-only
//! JSON section, read back by [`CausalDag::from_json`], so `ps2-trace
//! whatif` can rebuild it from a trace file without the original
//! [`SimReport`].
//!
//! The **critical path** is the chain of events that bounds the run's
//! makespan: starting from the last non-daemon process to finish, walk
//! backwards — through local history while the process was busy, and across
//! a message edge to the sender whenever the process was blocked waiting for
//! that message.
//!
//! Every nanosecond of `[0, makespan]` is attributed to exactly one
//! category:
//!
//! * **compute** — a `Compute` charge on the path (split by op label);
//! * **network** — uncontended transit of a path message: the part of a
//!   blocked wait the message would still have needed on idle NICs (link
//!   latency plus one wire time; loopback latency for self-sends);
//! * **queue** — the rest of a blocked wait: the message landed later than
//!   its uncontended arrival because a NIC was serializing other traffic
//!   (the paper's driver-incast effect);
//! * **idle** — untraced gaps: receive-deadline waits (scheduler idle),
//!   per-message send overhead, and time before a process's first event.
//!
//! The attribution therefore *sums exactly to the makespan*, and — because
//! the trace and the walk are deterministic — is byte-identical across
//! same-seed runs.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{JsonValue, JsonWriter, Style};
use crate::report::{SimReport, TraceEvent};
use crate::time::SimTime;

/// What a critical-path interval was spent on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PathCategory {
    Compute,
    Network,
    Queue,
    Idle,
}

impl PathCategory {
    pub fn name(self) -> &'static str {
        match self {
            PathCategory::Compute => "compute",
            PathCategory::Network => "network",
            PathCategory::Queue => "queue",
            PathCategory::Idle => "idle",
        }
    }
}

/// One attributed interval of the critical path, on one process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSegment {
    /// Index of the process the interval is attributed to.
    pub proc: usize,
    pub start: SimTime,
    pub end: SimTime,
    pub category: PathCategory,
    /// Op label for `Compute` segments that carried one. Owned, because a
    /// DAG rebuilt from a trace file has no static label table.
    pub label: Option<String>,
}

impl PathSegment {
    pub fn duration_ns(&self) -> u64 {
        self.end.as_nanos() - self.start.as_nanos()
    }
}

/// Per-process summary: how much of the critical path ran here, and how much
/// slack the process had.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcSummary {
    pub proc: usize,
    pub name: String,
    pub daemon: bool,
    pub finished_at: SimTime,
    pub busy: SimTime,
    /// Time between this process finishing and the makespan — how much it
    /// could slow down before becoming the straggler (daemons excluded from
    /// the makespan keep their raw difference).
    pub slack_ns: u64,
    /// Critical-path time attributed to this process.
    pub critical_ns: u64,
}

/// Why the analysis could not run.
#[derive(Clone, Debug)]
pub enum CausalError {
    /// The report has no event trace (tracing was off, or nothing ran).
    NoTrace,
    /// A `Recv` referenced a `seq` with no recorded `Send`.
    MissingSend { seq: u64 },
}

impl fmt::Display for CausalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalError::NoTrace => {
                write!(f, "report has no event trace (enable SimBuilder::trace)")
            }
            CausalError::MissingSend { seq } => {
                write!(
                    f,
                    "trace is inconsistent: Recv references unknown send seq {seq}"
                )
            }
        }
    }
}

impl std::error::Error for CausalError {}

/// One event of the retained DAG, in nanoseconds of virtual time. A distilled
/// [`TraceEvent`]: just what the walks need, fully integer so the DAG
/// round-trips through JSON exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DagEvent {
    /// A compute charge: occupies `[at, at + dt]`, optionally op-labeled
    /// (index into [`CausalDag::labels`]).
    Compute {
        at: u64,
        dt: u64,
        label: Option<u32>,
    },
    /// A message send (a point in time on the sender). `arrival` is when the
    /// message landed at `dst`; `ideal_ns` is the uncontended transit the
    /// network model would have charged on idle NICs (loopback latency for
    /// self-sends, link latency + one wire time otherwise) — precomputed
    /// here so the DAG needs no float network config to replay.
    Send {
        at: u64,
        dst: usize,
        arrival: u64,
        seq: u64,
        ideal_ns: u64,
    },
    /// A message consumption (a point in time on the receiver).
    Recv { at: u64, src: usize, seq: u64 },
    /// Any other point event (finish, mark, drop): moves no time, but keeps
    /// program order — and therefore the walks — faithful to the raw trace.
    Point { at: u64 },
}

impl DagEvent {
    /// End of the event's time interval; everything but `Compute` is a point.
    pub fn end_ns(&self) -> u64 {
        match self {
            DagEvent::Compute { at, dt, .. } => at + dt,
            DagEvent::Send { at, .. } | DagEvent::Recv { at, .. } | DagEvent::Point { at } => *at,
        }
    }
}

/// One process's retained history, in program order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagProc {
    pub name: String,
    pub daemon: bool,
    /// Virtual clock when the process finished (or was interrupted).
    pub finished_ns: u64,
    /// Total compute charged, from the run's per-proc stats.
    pub busy_ns: u64,
    pub events: Vec<DagEvent>,
}

/// The full causal event DAG of one run: per-process program-order event
/// lists plus the message-edge index. Built from a live [`SimReport`]
/// ([`CausalDag::from_report`]) or rebuilt from a trace file's `"ps2"."dag"`
/// section ([`CausalDag::from_json`]). Everything downstream — the critical path,
/// what-if replay — derives from this structure alone.
#[derive(Clone, Debug)]
pub struct CausalDag {
    /// The run's virtual makespan in nanoseconds (latest non-daemon clock).
    pub makespan_ns: u64,
    /// Interned trace labels, indexed by `DagEvent::Compute::label`.
    pub labels: Vec<String>,
    pub procs: Vec<DagProc>,
    /// seq → (sender proc, position within the sender's event list).
    send_pos: BTreeMap<u64, (usize, usize)>,
}

impl CausalDag {
    /// Assemble a DAG from parts; the send index is derived.
    pub fn new(makespan_ns: u64, labels: Vec<String>, procs: Vec<DagProc>) -> CausalDag {
        let mut send_pos = BTreeMap::new();
        for (p, dp) in procs.iter().enumerate() {
            for (i, e) in dp.events.iter().enumerate() {
                if let DagEvent::Send { seq, .. } = e {
                    send_pos.insert(*seq, (p, i));
                }
            }
        }
        CausalDag {
            makespan_ns,
            labels,
            procs,
            send_pos,
        }
    }

    /// Retain the causal DAG of `report`'s trace. The trace is stably sorted
    /// by time and per-process clocks are monotone, so partitioning by
    /// process preserves each process's execution order.
    pub fn from_report(report: &SimReport) -> Result<CausalDag, CausalError> {
        if report.trace.is_empty() {
            return Err(CausalError::NoTrace);
        }
        let mut procs: Vec<DagProc> = report
            .procs
            .iter()
            .map(|st| DagProc {
                name: st.name.clone(),
                daemon: st.daemon,
                finished_ns: st.finished_at.as_nanos(),
                busy_ns: st.busy.as_nanos(),
                events: Vec::new(),
            })
            .collect();
        for e in &report.trace {
            let p = proc_of(e);
            let ev = match e {
                TraceEvent::Compute { at, dt, label, .. } => DagEvent::Compute {
                    at: at.as_nanos(),
                    dt: dt.as_nanos(),
                    label: label.map(|l| l.0),
                },
                TraceEvent::Send {
                    at,
                    src,
                    dst,
                    bytes,
                    arrival,
                    seq,
                    ..
                } => {
                    let ideal = if src == dst {
                        report.net.loopback
                    } else {
                        report.net.latency + report.net.wire_time(*bytes)
                    };
                    DagEvent::Send {
                        at: at.as_nanos(),
                        dst: dst.0,
                        arrival: arrival.as_nanos(),
                        seq: *seq,
                        ideal_ns: ideal.as_nanos(),
                    }
                }
                TraceEvent::Recv { at, src, seq, .. } => DagEvent::Recv {
                    at: at.as_nanos(),
                    src: src.0,
                    seq: *seq,
                },
                TraceEvent::Finish { at, .. }
                | TraceEvent::Drop { at, .. }
                | TraceEvent::Mark { at, .. } => DagEvent::Point { at: at.as_nanos() },
            };
            procs[p].events.push(ev);
        }
        Ok(CausalDag::new(
            report.virtual_time.as_nanos(),
            report.labels.iter().map(|l| l.to_string()).collect(),
            procs,
        ))
    }

    /// Resolve a compute label index.
    pub fn label_name(&self, id: u32) -> &str {
        self.labels
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("<unknown-label>")
    }

    /// Look up the sender position of a message edge.
    pub(crate) fn send_of(&self, seq: u64) -> Option<(usize, usize)> {
        self.send_pos.get(&seq).copied()
    }

    /// Total compute charged per process across the whole DAG (not just the
    /// critical path) — what the what-if battery ranks "speed up this
    /// process" candidates by.
    pub fn compute_ns_by_proc(&self) -> Vec<u64> {
        self.procs
            .iter()
            .map(|p| {
                p.events
                    .iter()
                    .map(|e| match e {
                        DagEvent::Compute { dt, .. } => *dt,
                        _ => 0,
                    })
                    .sum()
            })
            .collect()
    }

    /// Total compute per op label across the whole DAG (unlabeled charges
    /// excluded — there is no edit that can name them).
    pub fn compute_ns_by_label(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for p in &self.procs {
            for e in &p.events {
                if let DagEvent::Compute {
                    dt, label: Some(l), ..
                } = e
                {
                    *out.entry(self.label_name(*l).to_string()).or_insert(0) += dt;
                }
            }
        }
        out
    }

    /// Per-destination queueing: for each process, the total time messages
    /// sent to it spent beyond their uncontended transit (NIC serialization
    /// on its in-NIC, mostly) — what the battery ranks "serve this server's
    /// traffic locally" candidates by.
    pub fn inbound_queue_ns(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.procs.len()];
        for p in &self.procs {
            for e in &p.events {
                if let DagEvent::Send {
                    at,
                    dst,
                    arrival,
                    ideal_ns,
                    ..
                } = e
                {
                    if let Some(slot) = out.get_mut(*dst) {
                        *slot += (arrival - at).saturating_sub(*ideal_ns);
                    }
                }
            }
        }
        out
    }

    /// Write the integer-only `"ps2"."dag"` JSON section (schema
    /// `ps2-dag-v1`). Events are compact arrays keyed by a leading
    /// discriminant: `[0, at, dt, label|-1]` compute, `[1, at, dst, arrival,
    /// seq, ideal_ns]` send, `[2, at, src, seq]` recv, `[3, at]` point.
    /// Byte-identical across same-seed runs.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.obj(Style::Block);
        w.key("schema").str("ps2-dag-v1");
        w.key("makespan_ns").raw(self.makespan_ns);
        w.key("labels").arr(Style::Inline);
        for l in &self.labels {
            w.str(l);
        }
        w.end().key("procs").arr(Style::Block);
        for p in &self.procs {
            w.obj(Style::Inline).key("name").str(&p.name);
            w.key("daemon").raw(p.daemon);
            w.key("finished_ns").raw(p.finished_ns);
            w.key("busy_ns").raw(p.busy_ns);
            w.key("events").arr(Style::Compact);
            for e in &p.events {
                w.arr(Style::Compact);
                match *e {
                    DagEvent::Compute { at, dt, label } => {
                        w.raw(0).raw(at).raw(dt).raw(label.map_or(-1, i64::from))
                    }
                    DagEvent::Send {
                        at,
                        dst,
                        arrival,
                        seq,
                        ideal_ns,
                    } => w
                        .raw(1)
                        .raw(at)
                        .raw(dst)
                        .raw(arrival)
                        .raw(seq)
                        .raw(ideal_ns),
                    DagEvent::Recv { at, src, seq } => w.raw(2).raw(at).raw(src).raw(seq),
                    DagEvent::Point { at } => w.raw(3).raw(at),
                };
                w.end();
            }
            w.end().end();
        }
        w.end().end();
    }

    /// Rebuild a DAG from its `ps2-dag-v1` section, the inverse of the writer
    /// above (the section is integer-only, so the `f64` parser loses
    /// nothing).
    pub fn from_json(dag: &JsonValue) -> Result<CausalDag, String> {
        match dag.str_field("schema")? {
            "ps2-dag-v1" => {}
            other => return Err(format!("unsupported schema {other:?}")),
        }
        let labels = dag
            .arr_field("labels")?
            .iter()
            .map(|l| l.as_str().map(str::to_string).ok_or("non-string label"))
            .collect::<Result<Vec<String>, _>>()?;
        let mut procs = Vec::new();
        for p in dag.arr_field("procs")? {
            let name = p.str_field("name")?.to_string();
            let proc = || -> Result<DagProc, String> {
                let mut events = Vec::new();
                for row in p.arr_field("events")? {
                    let row = row.as_arr().ok_or("event is not an array")?;
                    let n = |i: usize| {
                        row.get(i)
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("event field {i} missing/invalid"))
                    };
                    events.push(match n(0)? {
                        0 => DagEvent::Compute {
                            at: n(1)?,
                            dt: n(2)?,
                            // -1 is "unlabeled".
                            label: match row.get(3).and_then(JsonValue::as_i64) {
                                Some(l) => u32::try_from(l).ok(),
                                None => return Err("compute event missing label field".into()),
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
                        d => return Err(format!("unknown event kind {d}")),
                    });
                }
                Ok(DagProc {
                    name: name.clone(),
                    daemon: p.bool_field("daemon")?,
                    finished_ns: p.u64_field("finished_ns")?,
                    busy_ns: p.u64_field("busy_ns")?,
                    events,
                })
            };
            procs.push(proc().map_err(|e| format!("proc {name:?}: {e}"))?);
        }
        Ok(CausalDag::new(dag.u64_field("makespan_ns")?, labels, procs))
    }

    /// Walk the DAG backwards from the makespan and attribute the critical
    /// path. This is the one-path distillation of the retained graph; the
    /// graph itself stays available for replay.
    pub fn critical_path(&self) -> Result<CausalAnalysis, CausalError> {
        let nprocs = self.procs.len();
        let makespan = SimTime(self.makespan_ns);

        // Start at the non-daemon process that finished last (the one whose
        // clock *is* the makespan); ties break to the smallest id, matching
        // the determinism of the rest of the simulator.
        let start_proc = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.daemon)
            .max_by(|(ia, a), (ib, b)| {
                a.finished_ns.cmp(&b.finished_ns).then(ib.cmp(ia)) // prefer the smaller id on ties
            })
            .map(|(i, _)| i)
            .ok_or(CausalError::NoTrace)?;

        let mut segments: Vec<PathSegment> = Vec::new();
        let mut critical_ns = vec![0u64; nprocs];
        let push = |segments: &mut Vec<PathSegment>,
                    critical_ns: &mut Vec<u64>,
                    proc: usize,
                    start: u64,
                    end: u64,
                    category: PathCategory,
                    label: Option<String>| {
            debug_assert!(start <= end, "segment with negative duration");
            if start == end {
                return;
            }
            critical_ns[proc] += end - start;
            segments.push(PathSegment {
                proc,
                start: SimTime(start),
                end: SimTime(end),
                category,
                label,
            });
        };

        let mut p = start_proc;
        let mut t = self.makespan_ns;
        let mut idx: isize = self.procs[p].events.len() as isize - 1;
        while t > 0 {
            if idx < 0 {
                // Nothing earlier on this process: the remaining prefix is
                // time before its first event (spawn offset / quiet start).
                push(
                    &mut segments,
                    &mut critical_ns,
                    p,
                    0,
                    t,
                    PathCategory::Idle,
                    None,
                );
                break;
            }
            let e = &self.procs[p].events[idx as usize];
            let end = e.end_ns();
            if end > t {
                // Event beyond the cursor (e.g. daemon activity after the
                // makespan): not on the path.
                idx -= 1;
                continue;
            }
            if end < t {
                // Untraced clock movement: receive-deadline waits and
                // per-message send overhead.
                push(
                    &mut segments,
                    &mut critical_ns,
                    p,
                    end,
                    t,
                    PathCategory::Idle,
                    None,
                );
                t = end;
                continue;
            }
            // end == t: this event's completion is on the path.
            match e {
                DagEvent::Compute { at, label, .. } => {
                    let label = label.map(|l| self.label_name(l).to_string());
                    push(
                        &mut segments,
                        &mut critical_ns,
                        p,
                        *at,
                        t,
                        PathCategory::Compute,
                        label,
                    );
                    t = *at;
                    idx -= 1;
                }
                DagEvent::Recv { seq, .. } => {
                    let prev_end = if idx == 0 {
                        0
                    } else {
                        self.procs[p].events[idx as usize - 1].end_ns()
                    };
                    if prev_end == t {
                        // The message was already waiting when the process
                        // got here — consuming it cost nothing.
                        idx -= 1;
                        continue;
                    }
                    let (src, src_pos) = self
                        .send_of(*seq)
                        .ok_or(CausalError::MissingSend { seq: *seq })?;
                    let DagEvent::Send {
                        at: sent_at,
                        arrival,
                        ideal_ns,
                        ..
                    } = &self.procs[src].events[src_pos]
                    else {
                        unreachable!("send_pos points at a non-Send event");
                    };
                    if *arrival != t {
                        // The process's clock had already passed the arrival
                        // (deadline waits moved it): the gap is idle time,
                        // not a network wait.
                        push(
                            &mut segments,
                            &mut critical_ns,
                            p,
                            prev_end,
                            t,
                            PathCategory::Idle,
                            None,
                        );
                        t = prev_end;
                        idx -= 1;
                        continue;
                    }
                    // Genuine blocked wait: [hop, t] where hop is when both
                    // the sender had sent and this process was free. Had the
                    // NICs been idle the message would have landed at
                    // `sent_at + ideal`; every nanosecond waited beyond that
                    // is congestion (NIC serialization), not transit.
                    let hop = (*sent_at).max(prev_end);
                    let raw = t - hop;
                    let ideal_arrival = sent_at + ideal_ns;
                    let queue_ns = t.saturating_sub(ideal_arrival).min(raw);
                    let net_ns = raw - queue_ns;
                    let transit_start = t - net_ns;
                    // NIC serialization (congestion) first, transit last —
                    // the message physically lands at `t`.
                    push(
                        &mut segments,
                        &mut critical_ns,
                        p,
                        hop,
                        transit_start,
                        PathCategory::Queue,
                        None,
                    );
                    push(
                        &mut segments,
                        &mut critical_ns,
                        p,
                        transit_start,
                        t,
                        PathCategory::Network,
                        None,
                    );
                    t = hop;
                    if *sent_at >= prev_end {
                        // The sender bound us: follow the message edge.
                        p = src;
                        idx = src_pos as isize;
                    } else {
                        // Our own earlier work bound us.
                        idx -= 1;
                    }
                }
                // Point events: Send/Drop/Mark/Finish take no time.
                _ => idx -= 1,
            }
        }
        segments.reverse();

        let mut compute_ns = 0u64;
        let mut network_ns = 0u64;
        let mut queue_ns = 0u64;
        let mut idle_ns = 0u64;
        let mut compute_by_label: BTreeMap<String, u64> = BTreeMap::new();
        for s in &segments {
            let d = s.duration_ns();
            match s.category {
                PathCategory::Compute => {
                    compute_ns += d;
                    *compute_by_label
                        .entry(s.label.clone().unwrap_or_else(|| "(unlabeled)".to_string()))
                        .or_insert(0) += d;
                }
                PathCategory::Network => network_ns += d,
                PathCategory::Queue => queue_ns += d,
                PathCategory::Idle => idle_ns += d,
            }
        }
        debug_assert_eq!(
            compute_ns + network_ns + queue_ns + idle_ns,
            makespan.as_nanos(),
            "critical-path attribution must partition [0, makespan]"
        );

        let procs = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, st)| ProcSummary {
                proc: i,
                name: st.name.clone(),
                daemon: st.daemon,
                finished_at: SimTime(st.finished_ns),
                busy: SimTime(st.busy_ns),
                slack_ns: self.makespan_ns.saturating_sub(st.finished_ns),
                critical_ns: critical_ns[i],
            })
            .collect();

        Ok(CausalAnalysis {
            makespan,
            segments,
            compute_ns,
            network_ns,
            queue_ns,
            idle_ns,
            compute_by_label,
            procs,
        })
    }
}

/// Result of the critical-path walk over one run's trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalAnalysis {
    /// The run's virtual makespan (latest non-daemon clock).
    pub makespan: SimTime,
    /// Critical-path intervals in forward time order, partitioning
    /// `[0, makespan]`.
    pub segments: Vec<PathSegment>,
    pub compute_ns: u64,
    pub network_ns: u64,
    pub queue_ns: u64,
    pub idle_ns: u64,
    /// Critical-path compute split by op label (`"(unlabeled)"` for charges
    /// recorded without one).
    pub compute_by_label: BTreeMap<String, u64>,
    /// One summary per process, in process-id order.
    pub procs: Vec<ProcSummary>,
}

fn proc_of(e: &TraceEvent) -> usize {
    match e {
        TraceEvent::Send { src, .. } | TraceEvent::Drop { src, .. } => src.0,
        TraceEvent::Recv { proc, .. }
        | TraceEvent::Compute { proc, .. }
        | TraceEvent::Finish { proc, .. }
        | TraceEvent::Mark { proc, .. } => proc.0,
    }
}

impl CausalAnalysis {
    /// Retain the trace's DAG and extract the critical path in one step —
    /// the historical entry point, now a thin composition.
    pub fn from_report(report: &SimReport) -> Result<CausalAnalysis, CausalError> {
        CausalDag::from_report(report)?.critical_path()
    }

    /// Sum of all category attributions — always equals the makespan.
    pub fn category_total_ns(&self) -> u64 {
        self.compute_ns + self.network_ns + self.queue_ns + self.idle_ns
    }

    /// `(category name, attributed nanoseconds)` in fixed category order.
    pub fn categories(&self) -> [(&'static str, u64); 4] {
        [
            ("compute", self.compute_ns),
            ("network", self.network_ns),
            ("queue", self.queue_ns),
            ("idle", self.idle_ns),
        ]
    }

    /// Deterministic human-readable breakdown.
    pub fn render(&self) -> String {
        let total = self.makespan.as_nanos().max(1);
        let pct = |ns: u64| ns as f64 * 100.0 / total as f64;
        let secs = |ns: u64| ns as f64 / 1e9;
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: makespan {:.6}s, {} segments\n",
            secs(self.makespan.as_nanos()),
            self.segments.len()
        ));
        for (name, ns) in self.categories() {
            out.push_str(&format!(
                "  {:<8} {:>12.6}s  {:>5.1}%\n",
                name,
                secs(ns),
                pct(ns)
            ));
        }
        if !self.compute_by_label.is_empty() {
            out.push_str("critical-path compute by op:\n");
            let mut rows: Vec<(&String, &u64)> = self.compute_by_label.iter().collect();
            // Largest first; ties resolve alphabetically via the BTreeMap
            // iteration order being stable under the stable sort.
            rows.sort_by(|a, b| b.1.cmp(a.1));
            for (label, ns) in rows {
                out.push_str(&format!(
                    "  {:<24} {:>12.6}s  {:>5.1}%\n",
                    label,
                    secs(*ns),
                    pct(*ns)
                ));
            }
        }
        out.push_str("top processes by critical-path time:\n");
        let mut rows: Vec<&ProcSummary> = self.procs.iter().collect();
        rows.sort_by(|a, b| b.critical_ns.cmp(&a.critical_ns).then(a.proc.cmp(&b.proc)));
        for ps in rows.iter().take(10) {
            if ps.critical_ns == 0 {
                break;
            }
            out.push_str(&format!(
                "  {:<20} critical {:>10.6}s  busy {:>10.6}s  slack {:>10.6}s\n",
                ps.name,
                secs(ps.critical_ns),
                secs(ps.busy.as_nanos()),
                secs(ps.slack_ns)
            ));
        }
        out
    }

    /// Compare two runs' critical paths (`self` is the baseline): makespan,
    /// per-category and per-op compute deltas, positive when `other` is
    /// slower. Deltas only; it judges nothing.
    pub fn render_diff(&self, other: &CausalAnalysis) -> String {
        let secs = |ns: u64| ns as f64 / 1e9;
        let row = |head: String, a: u64, b: u64| {
            format!(
                "{head} {:>12.6}s -> {:>12.6}s   delta {:+.6}s\n",
                secs(a),
                secs(b),
                (b as f64 - a as f64) / 1e9
            )
        };
        let (a, b) = (self.makespan.as_nanos(), other.makespan.as_nanos());
        let mut out = row("makespan".into(), a, b);
        out.push_str("critical-path categories:\n");
        for ((name, a), (_, b)) in self.categories().into_iter().zip(other.categories()) {
            out.push_str(&row(format!("  {name:<8}"), a, b));
        }
        let mut ops: Vec<&String> = self
            .compute_by_label
            .keys()
            .chain(other.compute_by_label.keys())
            .collect();
        ops.sort_unstable();
        ops.dedup();
        if !ops.is_empty() {
            out.push_str("critical-path compute by op:\n");
            for op in ops {
                let ns = |a: &CausalAnalysis| a.compute_by_label.get(op).copied().unwrap_or(0);
                out.push_str(&row(format!("  {op:<24}"), ns(self), ns(other)));
            }
        }
        out
    }
}
