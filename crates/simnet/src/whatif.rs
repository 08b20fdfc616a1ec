//! Counterfactual replay over the retained causal DAG: virtual-speedup
//! experiments and sensitivity-ranked optimization reports.
//!
//! The critical path ([`crate::causal`]) says where the makespan *went*; it
//! cannot say what fixing any of it would *buy*, because off-path slack
//! absorbs part of every local improvement (shrink the straggler and some
//! other process becomes the bound). Answering "what is this optimization
//! worth?" requires re-timing the whole DAG under the edit — which is what
//! this module does, deterministically and without re-running the simulation.
//!
//! ## Replay semantics
//!
//! Replay walks each process's retained event list in program order,
//! carrying a counterfactual clock per process, and preserves three
//! invariants:
//!
//! * **Untraced gaps are fixed.** Time between a process's recorded events
//!   (deadline waits, send overhead, spawn offsets) is not attributable to
//!   any editable category, so it is replayed verbatim: the new event starts
//!   `orig_gap` after the previous event's new end.
//! * **Message edges re-time.** Each send's recorded travel is decomposed
//!   into uncontended transit (`ideal_ns`, precomputed at DAG build) and
//!   queueing (the excess); the edit scales either part and the new arrival
//!   is `new_send + scaled_net + scaled_queue`.
//! * **Blocked waits re-synchronize.** A receive whose recorded consumption
//!   equals the message's arrival was a genuine blocked wait: it replays as
//!   `max(own clock, new arrival)` — the wait shrinks or grows with the
//!   message, which is exactly how speedups propagate (or get absorbed by
//!   slack). A receive that consumed an already-waiting message keeps its
//!   local gap and still lower-bounds on the new arrival, so a slowed-down
//!   message correctly turns a free consume into a wait.
//!
//! An **unmodified replay is a fixed point**: every event reproduces its
//! recorded time and the makespan comes out byte-identical. [`run_battery`]
//! asserts this before trusting any experiment, so the invariant is enforced
//! on every report, not just in tests.
//!
//! ## Experiment SPEC grammar
//!
//! ```text
//! SPEC   := EDIT (',' EDIT)*
//! EDIT   := CATEGORY ['@' FILTER] '=' FACTOR
//! CATEGORY := 'compute' | 'network' | 'queue'
//! FILTER := 'proc:' NAME          (compute on one process)
//!         | 'op:' LABEL           (compute charges with that op label)
//!         | 'src:' NAME           (network/queue of messages it sends)
//!         | 'dst:' NAME           (network/queue of messages sent to it)
//!         | 'link:' NAME '>' NAME (network/queue on one directed link)
//! FACTOR := decimal duration multiplier: 0.5 = 2x faster, 0 = eliminated,
//!           2.0 = 2x slower (resolution 1/1000)
//! ```
//!
//! Examples: `network=0.5`, `compute@proc:ps-server-3=0.8`,
//! `queue@dst:ps-server-0=0`, `compute@op:pull=0.5,network=0.5`.
//!
//! ## Tail estimation
//!
//! Replay re-times the makespan exactly, but per-request tails live in the
//! reqtrace stage decomposition, not the event DAG. [`OpTails`] aggregates
//! each op's exemplar stages into the same three categories
//! ([`ReqRecord::category_split_ns`](crate::reqtrace::ReqRecord::category_split_ns))
//! and scales the op's recorded p99/p999 by the edit's effect on that stage
//! mix. Only globally-applicable edits (and `op:`-filtered compute edits
//! naming the op) move an op's tails; proc- and link-filtered edits leave
//! them unchanged — the DAG knows which process a message touched, the
//! aggregated tail mix does not.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::causal::{CausalDag, DagEvent};
use crate::json::{JsonWriter, Style};
use crate::reqtrace::ReqSummary;

/// One counterfactual edit, already resolved against a DAG (names → process
/// indices, op labels → label ids). `None` filters mean "everywhere".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Scale compute charges, optionally restricted to one process and/or
    /// one op label.
    Compute {
        scale_milli: u64,
        proc: Option<usize>,
        label: Option<u32>,
    },
    /// Scale the uncontended-transit part of message travel.
    Network {
        scale_milli: u64,
        src: Option<usize>,
        dst: Option<usize>,
    },
    /// Scale the queueing (contention) part of message travel.
    Queue {
        scale_milli: u64,
        src: Option<usize>,
        dst: Option<usize>,
    },
}

fn scale(ns: u64, milli: u64) -> u64 {
    ns.saturating_mul(milli) / 1000
}

fn scaled_compute(dt: u64, proc: usize, label: Option<u32>, edits: &[Edit]) -> u64 {
    let mut v = dt;
    for e in edits {
        if let Edit::Compute {
            scale_milli,
            proc: pf,
            label: lf,
        } = e
        {
            if pf.is_none_or(|p| p == proc) && lf.is_none_or(|l| Some(l) == label) {
                v = scale(v, *scale_milli);
            }
        }
    }
    v
}

fn scaled_travel(net: u64, queue: u64, src: usize, dst: usize, edits: &[Edit]) -> u64 {
    let mut n = net;
    let mut q = queue;
    for e in edits {
        match e {
            Edit::Network {
                scale_milli,
                src: sf,
                dst: df,
            } if sf.is_none_or(|s| s == src) && df.is_none_or(|d| d == dst) => {
                n = scale(n, *scale_milli);
            }
            Edit::Queue {
                scale_milli,
                src: sf,
                dst: df,
            } if sf.is_none_or(|s| s == src) && df.is_none_or(|d| d == dst) => {
                q = scale(q, *scale_milli);
            }
            _ => {}
        }
    }
    n + q
}

/// Outcome of one counterfactual replay.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Counterfactual makespan: latest non-daemon finish.
    pub makespan_ns: u64,
    /// Per-process counterfactual finish clocks, in process-id order.
    pub proc_finish_ns: Vec<u64>,
}

/// Deterministically re-time the DAG under `edits`. With no edits this
/// reproduces every recorded event time exactly (see module docs).
pub fn replay(dag: &CausalDag, edits: &[Edit]) -> Result<Replay, String> {
    let n = dag.procs.len();
    let mut idx = vec![0usize; n];
    // New clock of the previous event's end, per process.
    let mut clock = vec![0u64; n];
    // Recorded clock of the previous event's end, per process.
    let mut prev_end = vec![0u64; n];
    // seq → counterfactual arrival, filled as sends replay.
    let mut arrivals: BTreeMap<u64, u64> = BTreeMap::new();
    // seq → process blocked on it.
    let mut waiting: BTreeMap<u64, usize> = BTreeMap::new();
    let mut run: VecDeque<usize> = (0..n).collect();

    while let Some(p) = run.pop_front() {
        while idx[p] < dag.procs[p].events.len() {
            let e = dag.procs[p].events[idx[p]];
            match e {
                DagEvent::Compute { at, dt, label } => {
                    let start = clock[p] + at.saturating_sub(prev_end[p]);
                    clock[p] = start + scaled_compute(dt, p, label, edits);
                    prev_end[p] = at + dt;
                }
                DagEvent::Send {
                    at,
                    dst,
                    arrival,
                    seq,
                    ideal_ns,
                } => {
                    let t = clock[p] + at.saturating_sub(prev_end[p]);
                    let travel = arrival.saturating_sub(at);
                    let queue = travel.saturating_sub(ideal_ns);
                    let net = travel - queue;
                    arrivals.insert(seq, t + scaled_travel(net, queue, p, dst, edits));
                    clock[p] = t;
                    prev_end[p] = at;
                    if let Some(w) = waiting.remove(&seq) {
                        run.push_back(w);
                    }
                }
                DagEvent::Recv { at, seq, .. } => {
                    let Some(&arr) = arrivals.get(&seq) else {
                        let Some((sp, _)) = dag.send_of(seq) else {
                            return Err(format!(
                                "trace is inconsistent: Recv references unknown send seq {seq}"
                            ));
                        };
                        // Sender hasn't replayed that far yet: park and let
                        // the send wake us.
                        debug_assert_ne!(sp, p, "own send must precede its recv");
                        waiting.insert(seq, p);
                        break;
                    };
                    let orig_arrival =
                        match dag.send_of(seq).map(|(sp, si)| dag.procs[sp].events[si]) {
                            Some(DagEvent::Send { arrival, .. }) => arrival,
                            _ => unreachable!("send index points at a non-Send event"),
                        };
                    let new_at = if orig_arrival == at {
                        // Genuine blocked wait: re-synchronize to the message.
                        clock[p].max(arr)
                    } else {
                        // The clock had already passed the arrival (free
                        // consume, or deadline waits moved it): keep the
                        // local gap, but a now-late message still blocks.
                        (clock[p] + at.saturating_sub(prev_end[p])).max(arr)
                    };
                    clock[p] = new_at;
                    prev_end[p] = at;
                }
                DagEvent::Point { at } => {
                    clock[p] += at.saturating_sub(prev_end[p]);
                    prev_end[p] = at;
                }
            }
            idx[p] += 1;
        }
    }
    if let Some(p) = (0..n).find(|&p| idx[p] < dag.procs[p].events.len()) {
        // Message edges always point forward in recorded time, so a cycle is
        // impossible for a well-formed trace; this guards corrupted input.
        return Err(format!(
            "replay deadlock: process {} ({}) blocked at event {}",
            p, dag.procs[p].name, idx[p]
        ));
    }

    let proc_finish_ns: Vec<u64> = (0..n)
        .map(|p| clock[p] + dag.procs[p].finished_ns.saturating_sub(prev_end[p]))
        .collect();
    let makespan_ns = proc_finish_ns
        .iter()
        .zip(&dag.procs)
        .filter(|(_, dp)| !dp.daemon)
        .map(|(&f, _)| f)
        .max()
        .unwrap_or(0);
    Ok(Replay {
        makespan_ns,
        proc_finish_ns,
    })
}

/// Parse an experiment SPEC (see module docs) against `dag`, resolving
/// process names and op labels. Name filters expand to one edit per
/// matching process.
pub fn parse_spec(dag: &CausalDag, spec: &str) -> Result<Vec<Edit>, String> {
    let mut edits = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let (lhs, rhs) = part
            .rsplit_once('=')
            .ok_or_else(|| format!("bad edit \"{part}\": expected CATEGORY[@FILTER]=FACTOR"))?;
        let factor: f64 = rhs
            .parse()
            .map_err(|_| format!("bad factor \"{rhs}\" in \"{part}\""))?;
        if !factor.is_finite() || !(0.0..=1000.0).contains(&factor) {
            return Err(format!("factor {rhs} out of range [0, 1000] in \"{part}\""));
        }
        let scale_milli = (factor * 1000.0).round() as u64;
        let (cat, filter) = match lhs.split_once('@') {
            Some((c, f)) => (c, Some(f)),
            None => (lhs, None),
        };
        let procs_named = |name: &str| -> Result<Vec<usize>, String> {
            let v: Vec<usize> = dag
                .procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.name == name)
                .map(|(i, _)| i)
                .collect();
            if v.is_empty() {
                Err(format!("unknown process \"{name}\" in \"{part}\""))
            } else {
                Ok(v)
            }
        };
        match cat {
            "compute" => match filter {
                None => edits.push(Edit::Compute {
                    scale_milli,
                    proc: None,
                    label: None,
                }),
                Some(f) => {
                    if let Some(name) = f.strip_prefix("proc:") {
                        for i in procs_named(name)? {
                            edits.push(Edit::Compute {
                                scale_milli,
                                proc: Some(i),
                                label: None,
                            });
                        }
                    } else if let Some(op) = f.strip_prefix("op:") {
                        let l =
                            dag.labels.iter().position(|x| x == op).ok_or_else(|| {
                                format!("unknown op label \"{op}\" in \"{part}\"")
                            })?;
                        edits.push(Edit::Compute {
                            scale_milli,
                            proc: None,
                            label: Some(l as u32),
                        });
                    } else {
                        return Err(format!(
                            "bad compute filter \"{f}\" in \"{part}\": expected proc:NAME or op:LABEL"
                        ));
                    }
                }
            },
            "network" | "queue" => {
                let mk = |scale_milli, src, dst| {
                    if cat == "network" {
                        Edit::Network {
                            scale_milli,
                            src,
                            dst,
                        }
                    } else {
                        Edit::Queue {
                            scale_milli,
                            src,
                            dst,
                        }
                    }
                };
                match filter {
                    None => edits.push(mk(scale_milli, None, None)),
                    Some(f) => {
                        if let Some(name) = f.strip_prefix("src:") {
                            for i in procs_named(name)? {
                                edits.push(mk(scale_milli, Some(i), None));
                            }
                        } else if let Some(name) = f.strip_prefix("dst:") {
                            for i in procs_named(name)? {
                                edits.push(mk(scale_milli, None, Some(i)));
                            }
                        } else if let Some(link) = f.strip_prefix("link:") {
                            let (a, b) = link.split_once('>').ok_or_else(|| {
                                format!(
                                    "bad link filter \"{f}\" in \"{part}\": expected link:SRC>DST"
                                )
                            })?;
                            for s in procs_named(a)? {
                                for d in procs_named(b)? {
                                    edits.push(mk(scale_milli, Some(s), Some(d)));
                                }
                            }
                        } else {
                            return Err(format!(
                                "bad {cat} filter \"{f}\" in \"{part}\": expected src:NAME, dst:NAME, or link:SRC>DST"
                            ));
                        }
                    }
                }
            }
            other => {
                return Err(format!(
                "unknown category \"{other}\" in \"{part}\": expected compute, network, or queue"
            ))
            }
        }
    }
    if edits.is_empty() {
        return Err("empty experiment spec".to_string());
    }
    Ok(edits)
}

/// One op's recorded tails plus its exemplar-aggregated category mix — the
/// substrate for estimating how an edit moves the tails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpTails {
    pub op: String,
    pub p99_ns: u64,
    pub p999_ns: u64,
    /// Exemplar-aggregated stage time per category (see module docs).
    pub compute_ns: u64,
    pub network_ns: u64,
    pub queue_ns: u64,
}

impl OpTails {
    /// Extract per-op tails and category mixes from a run's request summary.
    pub fn from_reqs(reqs: &ReqSummary) -> Vec<OpTails> {
        reqs.ops
            .iter()
            .map(|o| {
                let (mut c, mut n, mut q) = (0u64, 0u64, 0u64);
                for e in &o.exemplars {
                    let (ec, en, eq) = e.category_split_ns();
                    c += ec;
                    n += en;
                    q += eq;
                }
                OpTails {
                    op: o.op.clone(),
                    p99_ns: o.hist.quantile_ns(0.99),
                    p999_ns: o.hist.quantile_ns(0.999),
                    compute_ns: c,
                    network_ns: n,
                    queue_ns: q,
                }
            })
            .collect()
    }

    /// Estimate this op's tails under `edits`: scale the category mix by the
    /// globally-applicable edits (plus `op:`-filtered compute edits naming
    /// this op) and apply the resulting total-latency factor to p99/p999.
    pub fn estimate(&self, edits: &[Edit], labels: &[String]) -> TailEst {
        let (mut cm, mut nm, mut qm) = (1000u64, 1000u64, 1000u64);
        for e in edits {
            match e {
                Edit::Compute {
                    scale_milli,
                    proc: None,
                    label,
                } => {
                    let applies = match label {
                        None => true,
                        Some(l) => labels.get(*l as usize).map(String::as_str) == Some(&self.op),
                    };
                    if applies {
                        cm = cm * scale_milli / 1000;
                    }
                }
                Edit::Network {
                    scale_milli,
                    src: None,
                    dst: None,
                } => nm = nm * scale_milli / 1000,
                Edit::Queue {
                    scale_milli,
                    src: None,
                    dst: None,
                } => qm = qm * scale_milli / 1000,
                // Proc-, src-, dst-, and link-filtered edits: the aggregated
                // tail mix cannot attribute stages to processes, so leave
                // the estimate unchanged.
                _ => {}
            }
        }
        let total = self.compute_ns + self.network_ns + self.queue_ns;
        let scaled =
            scale(self.compute_ns, cm) + scale(self.network_ns, nm) + scale(self.queue_ns, qm);
        let factor_milli = scaled
            .saturating_mul(1000)
            .checked_div(total)
            .unwrap_or(1000);
        TailEst {
            op: self.op.clone(),
            p99_ns: scale(self.p99_ns, factor_milli),
            p999_ns: scale(self.p999_ns, factor_milli),
        }
    }
}

/// Estimated tails of one op under one experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TailEst {
    pub op: String,
    pub p99_ns: u64,
    pub p999_ns: u64,
}

/// The standard experiment battery for a DAG: fixed global speedups plus
/// data-driven candidates (the compute-heaviest processes, the hottest op
/// labels, the most queued-into destination). Deterministic: derived from
/// integer DAG totals with fixed tie-breaks, deduplicated by spec.
pub fn standard_battery(dag: &CausalDag) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = [
        ("network-2x-faster", "network=0.5"),
        ("compute-2x-faster", "compute=0.5"),
        ("queue-free-fabric", "queue=0"),
        ("cluster-2x-faster", "compute=0.5,network=0.5"),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_string(), s.to_string()))
    .collect();

    let comp = dag.compute_ns_by_proc();
    let mut heavy: Vec<(usize, u64)> = comp
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    heavy.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, _) in heavy.iter().take(2) {
        let name = &dag.procs[i].name;
        v.push((
            format!("{name}-20pct-faster"),
            format!("compute@proc:{name}=0.8"),
        ));
    }

    let mut labels: Vec<(String, u64)> = dag.compute_ns_by_label().into_iter().collect();
    labels.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (l, _) in labels.into_iter().take(2) {
        v.push((format!("op-{l}-2x-faster"), format!("compute@op:{l}=0.5")));
    }

    let q = dag.inbound_queue_ns();
    if let Some((i, &qn)) = q
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
    {
        if qn > 0 {
            let name = &dag.procs[i].name;
            v.push((
                format!("{name}-served-locally"),
                format!("queue@dst:{name}=0"),
            ));
        }
    }

    let mut seen = BTreeSet::new();
    v.retain(|(_, s)| seen.insert(s.clone()));
    v
}

/// One ranked experiment outcome.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    pub name: String,
    pub spec: String,
    pub makespan_ns: u64,
    /// Baseline minus counterfactual makespan: positive = improvement.
    pub delta_ns: i64,
    /// `delta / baseline` in milli (190 = 19.0% faster).
    pub improvement_milli: i64,
    pub tails: Vec<TailEst>,
}

/// A full sensitivity report: every experiment replayed and ranked by
/// estimated payoff (makespan delta, then total p999 gain, then name).
#[derive(Clone, Debug)]
pub struct WhatifReport {
    pub baseline_makespan_ns: u64,
    pub baseline_tails: Vec<OpTails>,
    pub experiments: Vec<ExperimentResult>,
}

/// Replay each `(name, spec)` experiment against `dag` and rank the results.
/// Verifies the unmodified-replay fixed point first and refuses to report if
/// it does not reproduce the recorded makespan exactly.
pub fn run_battery(
    dag: &CausalDag,
    tails: &[OpTails],
    specs: &[(String, String)],
) -> Result<WhatifReport, String> {
    let baseline = replay(dag, &[])?;
    if baseline.makespan_ns != dag.makespan_ns {
        return Err(format!(
            "replay self-check failed: unmodified replay gives {} ns but the trace records {} ns",
            baseline.makespan_ns, dag.makespan_ns
        ));
    }
    let mut experiments = Vec::new();
    for (name, spec) in specs {
        let edits = parse_spec(dag, spec)?;
        let r = replay(dag, &edits)?;
        let delta_ns = dag.makespan_ns as i64 - r.makespan_ns as i64;
        let improvement_milli = if dag.makespan_ns == 0 {
            0
        } else {
            delta_ns.saturating_mul(1000) / dag.makespan_ns as i64
        };
        experiments.push(ExperimentResult {
            name: name.clone(),
            spec: spec.clone(),
            makespan_ns: r.makespan_ns,
            delta_ns,
            improvement_milli,
            tails: tails
                .iter()
                .map(|t| t.estimate(&edits, &dag.labels))
                .collect(),
        });
    }
    let p999_gain = |e: &ExperimentResult| -> i64 {
        e.tails
            .iter()
            .zip(tails)
            .map(|(est, base)| base.p999_ns as i64 - est.p999_ns as i64)
            .sum()
    };
    experiments.sort_by(|a, b| {
        b.delta_ns
            .cmp(&a.delta_ns)
            .then_with(|| p999_gain(b).cmp(&p999_gain(a)))
            .then_with(|| a.name.cmp(&b.name))
            .then_with(|| a.spec.cmp(&b.spec))
    });
    Ok(WhatifReport {
        baseline_makespan_ns: dag.makespan_ns,
        baseline_tails: tails.to_vec(),
        experiments,
    })
}

impl WhatifReport {
    /// Render the `ps2-whatif-v1` sidecar: integer-only, experiments in rank
    /// order, byte-identical across same-seed runs.
    pub fn to_json(&self) -> String {
        let tail = |w: &mut JsonWriter, op: &str, p99_ns: u64, p999_ns: u64| {
            w.obj(Style::Inline).key("op").str(op);
            w.key("p99_ns").raw(p99_ns);
            w.key("p999_ns").raw(p999_ns).end();
        };
        let mut w = JsonWriter::new();
        w.obj(Style::Block);
        w.key("schema").str("ps2-whatif-v1");
        w.key("baseline_makespan_ns").raw(self.baseline_makespan_ns);
        w.key("baseline_tails").arr(Style::Block);
        for t in &self.baseline_tails {
            tail(&mut w, &t.op, t.p99_ns, t.p999_ns);
        }
        w.end().key("experiments").arr(Style::Block);
        for e in &self.experiments {
            w.obj(Style::Inline).key("name").str(&e.name);
            w.key("spec").str(&e.spec);
            w.key("makespan_ns").raw(e.makespan_ns);
            w.key("delta_ns").raw(e.delta_ns);
            w.key("improvement_milli").raw(e.improvement_milli);
            w.key("tails").arr(Style::Inline);
            for t in &e.tails {
                tail(&mut w, &t.op, t.p99_ns, t.p999_ns);
            }
            w.end().end();
        }
        w.end().end();
        w.finish_line()
    }

    /// Deterministic human-readable ranking.
    pub fn render(&self) -> String {
        let secs = |ns: u64| ns as f64 / 1e9;
        let mut out = String::new();
        out.push_str(&format!(
            "what-if sensitivity: baseline makespan {:.6}s, {} experiments\n",
            secs(self.baseline_makespan_ns),
            self.experiments.len()
        ));
        out.push_str(
            "rank  makespan       saved          improv  experiment                     spec\n",
        );
        for (i, e) in self.experiments.iter().enumerate() {
            out.push_str(&format!(
                "{:>4}  {:>10.6}s  {:>+11.6}s  {:>5}.{}%  {:<29}  {}\n",
                i + 1,
                secs(e.makespan_ns),
                e.delta_ns as f64 / 1e9,
                e.improvement_milli / 10,
                (e.improvement_milli % 10).abs(),
                e.name,
                e.spec
            ));
        }
        for base in &self.baseline_tails {
            // Best estimated p999 per op, ties resolved by rank order.
            let best = self
                .experiments
                .iter()
                .filter_map(|e| {
                    e.tails
                        .iter()
                        .find(|t| t.op == base.op)
                        .map(|t| (e, t.p999_ns))
                })
                .min_by_key(|&(_, p)| p);
            if let Some((e, p999)) = best {
                if p999 < base.p999_ns {
                    out.push_str(&format!(
                        "op {} p999: {:.3}ms baseline -> {:.3}ms est. under {}\n",
                        base.op,
                        base.p999_ns as f64 / 1e6,
                        p999 as f64 / 1e6,
                        e.name
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::DagProc;

    /// proc0: compute 100, send at 100 (arrival 160: ideal 50 + queue 10),
    /// finish 100. proc1: blocked recv at 160, compute 40, finish 200.
    fn tiny_dag() -> CausalDag {
        CausalDag::new(
            200,
            vec!["work".to_string()],
            vec![
                DagProc {
                    name: "client".to_string(),
                    daemon: false,
                    finished_ns: 100,
                    busy_ns: 100,
                    events: vec![
                        DagEvent::Compute {
                            at: 0,
                            dt: 100,
                            label: Some(0),
                        },
                        DagEvent::Send {
                            at: 100,
                            dst: 1,
                            arrival: 160,
                            seq: 1,
                            ideal_ns: 50,
                        },
                        DagEvent::Point { at: 100 },
                    ],
                },
                DagProc {
                    name: "server".to_string(),
                    daemon: false,
                    finished_ns: 200,
                    busy_ns: 40,
                    events: vec![
                        DagEvent::Recv {
                            at: 160,
                            src: 0,
                            seq: 1,
                        },
                        DagEvent::Compute {
                            at: 160,
                            dt: 40,
                            label: None,
                        },
                        DagEvent::Point { at: 200 },
                    ],
                },
            ],
        )
    }

    #[test]
    fn unmodified_replay_is_a_fixed_point() {
        let dag = tiny_dag();
        let r = replay(&dag, &[]).expect("replay");
        assert_eq!(r.makespan_ns, 200);
        assert_eq!(r.proc_finish_ns, vec![100, 200]);
    }

    #[test]
    fn compute_speedup_propagates_through_the_message_edge() {
        let dag = tiny_dag();
        // compute=0.5: client computes 50, sends at 50, arrival 50+60=110,
        // server computes 20 -> 130.
        let edits = parse_spec(&dag, "compute=0.5").expect("spec");
        assert_eq!(replay(&dag, &edits).expect("replay").makespan_ns, 130);
    }

    #[test]
    fn queue_and_network_edits_scale_their_travel_parts() {
        let dag = tiny_dag();
        // queue=0 removes the 10ns excess: arrival 150, finish 190.
        let edits = parse_spec(&dag, "queue=0").expect("spec");
        assert_eq!(replay(&dag, &edits).expect("replay").makespan_ns, 190);
        // network=0 leaves only the queue part: arrival 110, finish 150.
        let edits = parse_spec(&dag, "network=0").expect("spec");
        assert_eq!(replay(&dag, &edits).expect("replay").makespan_ns, 150);
    }

    #[test]
    fn label_filtered_compute_edit_only_touches_that_op() {
        let dag = tiny_dag();
        // Only the client's labeled charge halves; the server's unlabeled
        // compute stays: send at 50, arrival 110, +40 -> 150.
        let edits = parse_spec(&dag, "compute@op:work=0.5").expect("spec");
        assert_eq!(replay(&dag, &edits).expect("replay").makespan_ns, 150);
        // Proc filter on the server halves only its charge: 160 + 20 = 180.
        let edits = parse_spec(&dag, "compute@proc:server=0.5").expect("spec");
        assert_eq!(replay(&dag, &edits).expect("replay").makespan_ns, 180);
    }

    #[test]
    fn slowed_message_turns_a_free_consume_into_a_wait() {
        // proc1 computes [0, 200] then consumes a message that arrived at 150
        // (free consume at 200). Slowing the network 4x moves the arrival to
        // 100 + 4*50 = 300, which now blocks the consume.
        let dag = CausalDag::new(
            210,
            vec![],
            vec![
                DagProc {
                    name: "a".to_string(),
                    daemon: false,
                    finished_ns: 100,
                    busy_ns: 100,
                    events: vec![
                        DagEvent::Compute {
                            at: 0,
                            dt: 100,
                            label: None,
                        },
                        DagEvent::Send {
                            at: 100,
                            dst: 1,
                            arrival: 150,
                            seq: 7,
                            ideal_ns: 50,
                        },
                    ],
                },
                DagProc {
                    name: "b".to_string(),
                    daemon: false,
                    finished_ns: 210,
                    busy_ns: 210,
                    events: vec![
                        DagEvent::Compute {
                            at: 0,
                            dt: 200,
                            label: None,
                        },
                        DagEvent::Recv {
                            at: 200,
                            src: 0,
                            seq: 7,
                        },
                        DagEvent::Compute {
                            at: 200,
                            dt: 10,
                            label: None,
                        },
                    ],
                },
            ],
        );
        assert_eq!(replay(&dag, &[]).expect("replay").makespan_ns, 210);
        let edits = parse_spec(&dag, "network=4.0").expect("spec");
        // Arrival moves to 300; b consumes there and finishes at 310.
        assert_eq!(replay(&dag, &edits).expect("replay").makespan_ns, 310);
    }

    #[test]
    fn spec_errors_are_reported() {
        let dag = tiny_dag();
        assert!(parse_spec(&dag, "disk=0.5").is_err());
        assert!(parse_spec(&dag, "compute@proc:nobody=0.5").is_err());
        assert!(parse_spec(&dag, "compute@op:nothing=0.5").is_err());
        assert!(parse_spec(&dag, "network=abc").is_err());
        assert!(parse_spec(&dag, "network=-1").is_err());
        assert!(parse_spec(&dag, "network").is_err());
        assert!(parse_spec(&dag, "").is_err());
        assert!(parse_spec(&dag, "network@link:client=0.5").is_err());
    }

    #[test]
    fn spec_parses_to_resolved_edits() {
        let dag = tiny_dag();
        let edits = parse_spec(&dag, "compute@proc:client=0.8,queue@dst:server=0").expect("spec");
        assert_eq!(
            edits,
            vec![
                Edit::Compute {
                    scale_milli: 800,
                    proc: Some(0),
                    label: None
                },
                Edit::Queue {
                    scale_milli: 0,
                    src: None,
                    dst: Some(1)
                },
            ]
        );
    }

    #[test]
    fn battery_is_deterministic_and_spec_deduplicated() {
        let dag = tiny_dag();
        let b1 = standard_battery(&dag);
        let b2 = standard_battery(&dag);
        assert_eq!(b1, b2);
        assert!(b1.len() >= 5, "battery too small: {b1:?}");
        let mut specs: Vec<&String> = b1.iter().map(|(_, s)| s).collect();
        specs.sort();
        specs.dedup();
        assert_eq!(specs.len(), b1.len(), "duplicate specs in battery");
    }

    #[test]
    fn run_battery_ranks_by_makespan_delta() {
        let dag = tiny_dag();
        let rep = run_battery(&dag, &[], &standard_battery(&dag)).expect("battery");
        assert_eq!(rep.baseline_makespan_ns, 200);
        for w in rep.experiments.windows(2) {
            assert!(w[0].delta_ns >= w[1].delta_ns, "not ranked: {w:?}");
        }
        // Byte-identical across reruns.
        let rep2 = run_battery(&dag, &[], &standard_battery(&dag)).expect("battery");
        assert_eq!(rep.to_json(), rep2.to_json());
        assert_eq!(rep.render(), rep2.render());
    }

    #[test]
    fn tail_estimates_scale_by_category_mix() {
        let t = OpTails {
            op: "pull".to_string(),
            p99_ns: 1000,
            p999_ns: 2000,
            compute_ns: 100,
            network_ns: 200,
            queue_ns: 700,
        };
        // queue=0 removes 70% of the mix: factor 0.3.
        let est = t.estimate(
            &[Edit::Queue {
                scale_milli: 0,
                src: None,
                dst: None,
            }],
            &[],
        );
        assert_eq!(est.p99_ns, 300);
        assert_eq!(est.p999_ns, 600);
        // A proc-filtered edit leaves tails unchanged.
        let est = t.estimate(
            &[Edit::Compute {
                scale_milli: 0,
                proc: Some(3),
                label: None,
            }],
            &[],
        );
        assert_eq!(est.p999_ns, 2000);
    }
}
