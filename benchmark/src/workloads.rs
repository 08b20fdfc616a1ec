//! The six workloads. Each is one *pass*: build the inputs from the seed,
//! run the program, hand back what it reported. Shapes are the seed's
//! measured, pinned sizes (see README.md); `--quick` shrinks iterations and
//! windows to a quarter, never the cluster geometry.

use ps2::data::presets;
use ps2::ml::lbfgs::{train_lbfgs, LbfgsConfig};
use ps2::ml::lr::{train_lr, LrBackend, LrConfig};
use ps2::ml::modes::{run_mode_with, ModeAlgo, ModeConfig};
use ps2::ml::optim::Optimizer;
use ps2::ml::serve::{run_serve, serve_spec};
use ps2::ml::TrainingTrace;
use ps2::ps::ConsistencyMode;
use ps2::simnet::{
    export_trace_full, replay, run_battery, slo_json, standard_battery, CausalDag, SimTime,
    TraceEvent, VtHistogram,
};
use ps2::tracefile::{whatif_input, TraceSummary};
use ps2::{run_ps2_with, ClusterSpec, SimBuilder, SimReport};

use crate::spans::Spans;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TrainLrPs2,
    TrainLrMllib,
    TrainLbfgsDcv,
    TrainSspPush,
    ServePullSweep,
    TraceAnalyze,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::TrainLrPs2,
        Workload::TrainLrMllib,
        Workload::TrainLbfgsDcv,
        Workload::TrainSspPush,
        Workload::ServePullSweep,
        Workload::TraceAnalyze,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainLrPs2 => "train-lr-ps2",
            Workload::TrainLrMllib => "train-lr-mllib",
            Workload::TrainLbfgsDcv => "train-lbfgs-dcv",
            Workload::TrainSspPush => "train-ssp-push",
            Workload::ServePullSweep => "serve-pull-sweep",
            Workload::TraceAnalyze => "trace-analyze",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Fixed loss numbers of the training workloads, measured on seed 1 at
    /// the full shape: `target` is the loss first reached at ≥ 60 % of the
    /// iterations (the `ml.time_to_loss_s` threshold); `bar` is the quality
    /// check — the mean loss of the last fifth of the iterations must be at
    /// or below it on every seed (seeds 1–12 stay ≥ 0.003 under it).
    pub fn loss_numbers(self) -> Option<LossNumbers> {
        let (target, bar) = match self {
            Workload::TrainLrPs2 | Workload::TrainLrMllib => (0.682202, 0.688),
            Workload::TrainLbfgsDcv => (0.124550, 0.30),
            Workload::TrainSspPush => (0.623194, 0.61),
            Workload::TraceAnalyze => (0.688064, 0.692),
            Workload::ServePullSweep => return None,
        };
        Some(LossNumbers { target, bar })
    }

    /// Procs that each record one `ml.iteration` span per iteration (the
    /// driver alone, or every free-running worker).
    pub fn iteration_procs(self) -> u64 {
        match self {
            Workload::TrainSspPush => SSP_WORKERS as u64,
            _ => 1,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct LossNumbers {
    pub target: f64,
    pub bar: f64,
}

/// Full shape, or the `--quick` smoke shape (¼ iterations, 25 ms windows).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    fn iters(self, full: usize) -> usize {
        if self.quick {
            (full / 4).max(1)
        } else {
            full
        }
    }

    fn window(self) -> SimTime {
        SimTime::from_millis(if self.quick { 25 } else { 100 })
    }
}

const SSP_WORKERS: usize = 8;

/// The `serve-kdd12` pull SLO the sweep's knee is judged against.
pub const SERVE_SLO_NS: u64 = 500_000;
/// Open-loop rate grid as `users_per_agent` (20 agents, one pull per user
/// per 25 ms): 1.2 / 1.6 / 2.0 / 2.2 / 2.4 M pulls/s.
pub const SERVE_GRID_USERS: [u32; 5] = [1500, 2000, 2500, 2750, 3000];
/// Grid index of the reference rate whose p999 is the end-to-end latency:
/// 1.6 M pulls/s, the highest grid rate below the knee on every seed (at
/// 2.0 M the p999 ranges 328–541 µs over seeds 1–6, crossing the SLO).
pub const SERVE_REFERENCE: usize = 1;
/// A drain longer than this after the window means a growing backlog.
pub const SERVE_MAX_DRAIN_NS: u64 = 1_000_000;

/// A simulator builder for `seed`, with the program's own recorders on or
/// off: the event trace, and request tracing plus the 1 ms scraper.
fn builder(seed: u64, trace: bool, requests: bool) -> SimBuilder {
    let b = SimBuilder::new().seed(seed).trace(trace).reqtrace(requests);
    if requests {
        b.timeseries(SimTime::from_millis(1))
    } else {
        b
    }
}

/// What the sweep measured at one offered rate.
#[derive(Clone, Debug)]
pub struct RateResult {
    pub rate_kpps: f64,
    pub issued: u64,
    pub completed: u64,
    /// Tail latency at `tail_q` (p999 when ≥ 10 samples lie beyond it).
    pub tail_ns: f64,
    pub tail_q: f64,
    pub tail_samples: u64,
    /// Pulls slower than the SLO.
    pub late: u64,
    /// Virtual time from the end of the offered window to the last answer.
    pub drain_ns: u64,
}

impl RateResult {
    pub fn meets_slo(&self) -> bool {
        self.issued == self.completed
            && self.tail_ns <= SERVE_SLO_NS as f64
            && self.drain_ns <= SERVE_MAX_DRAIN_NS
    }
}

/// Host seconds and results of the observability pipeline's stages.
#[derive(Clone, Debug, Default)]
pub struct Stages {
    pub dag_build_s: f64,
    pub critical_path_s: f64,
    pub export_s: f64,
    pub trace_bytes: u64,
    pub summary_parse_s: f64,
    pub whatif_input_s: f64,
    pub battery_s: f64,
    pub identity_err_ns: u64,
    /// Critical-path shares: compute, network, queue, idle.
    pub path_frac: [f64; 4],
    pub server_to_server_bytes: u64,
}

pub struct Pass {
    /// One report per simulation (the sweep: one per grid rate).
    pub reports: Vec<SimReport>,
    pub curve: Option<TrainingTrace>,
    pub rates: Vec<RateResult>,
    pub stages: Option<Stages>,
}

impl Pass {
    /// Everything deterministic a pass produced, flattened. Two passes of
    /// one seed must agree on this bit for bit, traced or not.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = Vec::new();
        for r in &self.reports {
            fp.extend([
                r.virtual_time.as_nanos(),
                r.total_msgs,
                r.total_bytes,
                r.dropped_msgs,
            ]);
            fp.extend(r.metrics.counters().map(|(_, v)| v));
            fp.extend(
                r.metrics
                    .hists()
                    .flat_map(|(_, h)| [h.count(), h.sum_ns(), h.max_ns()]),
            );
        }
        if let Some(c) = &self.curve {
            fp.extend(
                c.points
                    .iter()
                    .flat_map(|&(t, l)| [t.to_bits(), l.to_bits()]),
            );
        }
        fp
    }

    pub fn virtual_ns(&self) -> u64 {
        self.reports.iter().map(|r| r.virtual_time.as_nanos()).sum()
    }

    pub fn total_msgs(&self) -> u64 {
        self.reports.iter().map(|r| r.total_msgs).sum()
    }
}

/// Run one pass of `w`. `observed` turns the program's own recorders on
/// (the traced pass); `trace-analyze` has them on always — they are its load.
pub fn run_pass(
    w: Workload,
    seed: u64,
    scale: Scale,
    observed: bool,
    spans: &mut Spans,
) -> Result<Pass, String> {
    match w {
        Workload::TrainLrPs2 | Workload::TrainLrMllib | Workload::TraceAnalyze => {
            let offline = w == Workload::TraceAnalyze;
            let (width, iters) = if offline { (4, 15) } else { (20, 30) };
            let backend = match w {
                Workload::TrainLrMllib => LrBackend::SparkDriver,
                _ => LrBackend::Ps2Dcv,
            };
            let observed = observed || offline;
            let spec = ClusterSpec {
                workers: width,
                servers: width,
                ..ClusterSpec::default()
            };
            let gen = presets::kddb(width, seed).gen;
            let iters = scale.iters(iters);
            let ((curve, report), _) = spans.scope("sim.run", |_| {
                run_ps2_with(builder(seed, observed, observed), spec, move |ctx, ps2| {
                    let mut cfg = LrConfig::new(gen, Optimizer::Sgd, iters);
                    cfg.hyper.learning_rate = 1.0;
                    cfg.hyper.mini_batch_fraction = 0.01;
                    train_lr(ctx, ps2, &cfg, backend)
                })
            });
            training_pass(curve, report, observed, offline, spans)
        }
        Workload::TrainLbfgsDcv => {
            let spec = ClusterSpec {
                workers: 4,
                servers: 4,
                ..ClusterSpec::default()
            };
            let cfg = LbfgsConfig::new(presets::kdd12(4, seed).gen, scale.iters(10));
            let ((curve, report), _) = spans.scope("sim.run", |_| {
                run_ps2_with(builder(seed, observed, observed), spec, move |ctx, ps2| {
                    train_lbfgs(ctx, ps2, &cfg)
                })
            });
            training_pass(curve, report, observed, false, spans)
        }
        Workload::TrainSspPush => {
            let mut cfg = ModeConfig::new(
                presets::kdd12(SSP_WORKERS, seed).gen,
                SSP_WORKERS,
                8,
                ConsistencyMode::Ssp { bound: 2 },
            );
            cfg.iterations = scale.iters(200) as u32;
            cfg.learning_rate = 1.0;
            cfg.mini_batch = 64;
            cfg.straggler_slowdown = SimTime::from_millis(1);
            cfg.seed = seed;
            let ((curve, report), _) = spans.scope("sim.run", |_| {
                run_mode_with(builder(seed, observed, observed), &cfg, ModeAlgo::Lr)
            });
            training_pass(curve, report, observed, false, spans)
        }
        Workload::ServePullSweep => serve_sweep_pass(seed, scale, observed, spans),
    }
}

/// A training pass's result; a traced one also goes through the
/// observability stack (`offline`: its file-reading half too).
fn training_pass(
    curve: TrainingTrace,
    report: SimReport,
    traced: bool,
    offline: bool,
    spans: &mut Spans,
) -> Result<Pass, String> {
    let stages = match traced {
        true => Some(analyze(&report, offline, spans)?),
        false => None,
    };
    Ok(Pass {
        reports: vec![report],
        curve: Some(curve),
        rates: Vec::new(),
        stages,
    })
}

/// The observability stack over one traced report: causal DAG → critical
/// path → identity replay → Perfetto export, and with `full_pipeline` the
/// offline half too (`tracefile` parsing, what-if battery). The offline half
/// runs only on `trace-analyze`: `tracefile::parse_json` is quadratic in the
/// trace size, so a 49 k-message trace would not finish.
fn analyze(report: &SimReport, full_pipeline: bool, spans: &mut Spans) -> Result<Stages, String> {
    let mut st = Stages::default();
    let (dag, secs) = spans.scope("causal.dag_build", |_| CausalDag::from_report(report));
    let dag = dag.map_err(|e| format!("causal DAG: {e}"))?;
    st.dag_build_s = secs;
    let (analysis, secs) = spans.scope("causal.critical_path", |_| dag.critical_path());
    let analysis = analysis.map_err(|e| format!("critical path: {e}"))?;
    st.critical_path_s = secs;
    let total = analysis.category_total_ns().max(1) as f64;
    for (slot, (_, ns)) in st.path_frac.iter_mut().zip(analysis.categories()) {
        *slot = ns as f64 / total;
    }
    let (identity, _) = spans.scope("whatif.identity_replay", |_| replay(&dag, &[]));
    st.identity_err_ns = identity?.makespan_ns.abs_diff(dag.makespan_ns);
    if st.identity_err_ns != 0 {
        return Err(format!(
            "what-if identity replay is off by {} ns",
            st.identity_err_ns
        ));
    }

    let is_server: Vec<bool> = report
        .procs
        .iter()
        .map(|p| p.name.starts_with("ps-server-"))
        .collect();
    st.server_to_server_bytes = report
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send {
                src, dst, bytes, ..
            } if is_server[src.0] && is_server[dst.0] => Some(*bytes),
            _ => None,
        })
        .sum();
    if st.server_to_server_bytes != 0 {
        return Err(format!(
            "co-location broken: {} bytes moved between PS servers",
            st.server_to_server_bytes
        ));
    }

    let slo = report.reqs.as_ref().map(|r| slo_json(r, &[], &[]));
    let (text, secs) = spans.scope("perfetto.export", |_| {
        export_trace_full(
            report,
            Some(&analysis),
            &[],
            slo.as_deref().map(str::trim_end),
            Some(&dag),
        )
    });
    st.export_s = secs;
    st.trace_bytes = text.len() as u64;
    if !full_pipeline {
        return Ok(st);
    }

    let (summary, secs) = spans.scope("tracefile.summary_parse", |_| {
        TraceSummary::from_json(&text)
    });
    st.summary_parse_s = secs;
    if summary?.makespan_ns != report.virtual_time.as_nanos() {
        return Err("trace file summary disagrees with the run's makespan".into());
    }
    let (input, secs) = spans.scope("tracefile.whatif_input", |_| whatif_input(&text));
    st.whatif_input_s = secs;
    let (file_dag, tails) = input?;
    if file_dag.makespan_ns != dag.makespan_ns {
        return Err("DAG read back from the trace file disagrees with the retained one".into());
    }
    let (battery, secs) = spans.scope("whatif.battery", |_| {
        run_battery(&file_dag, &tails, &standard_battery(&file_dag))
    });
    st.battery_s = secs;
    if battery?.experiments.is_empty() {
        return Err("what-if battery ran no experiment".into());
    }
    Ok(st)
}

fn serve_sweep_pass(
    seed: u64,
    scale: Scale,
    observed: bool,
    spans: &mut Spans,
) -> Result<Pass, String> {
    let mut reports = Vec::new();
    let mut rates = Vec::new();
    for users in SERVE_GRID_USERS {
        let mut spec = serve_spec("serve-kdd12").ok_or("serve-kdd12 preset is gone")?;
        spec.users_per_agent = users;
        spec.duration = scale.window();
        let ((summary, report), _) = spans.scope(&format!("sim.run.users{users}"), |_| {
            // No event trace even when observed: 1.9 M messages of trace
            // events would dominate memory.
            run_serve(builder(seed, false, observed), &spec)
        });
        let hist = report
            .metrics
            .hist("ps.client.op.pull.latency")
            .ok_or("serve run recorded no pull latency")?;
        let (tail_q, tail_samples) = tail_quantile(hist.count());
        let load_done = report
            .proc("serve-coordinator")
            .ok_or("serve run has no coordinator proc")?
            .finished_at;
        rates.push(RateResult {
            rate_kpps: spec.offered_rate() / 1e3,
            issued: summary.issued,
            completed: summary.completed,
            tail_ns: quantile_interp_ns(hist, tail_q),
            tail_q,
            tail_samples,
            late: samples_above(hist, SERVE_SLO_NS),
            drain_ns: report
                .virtual_time
                .as_nanos()
                .saturating_sub(load_done.as_nanos() + spec.duration.as_nanos()),
        });
        reports.push(report);
    }
    Ok(Pass {
        reports,
        curve: None,
        rates,
        stages: None,
    })
}

/// Largest gap between a pull's scheduled and actual issue time, from the
/// event trace of a short reference-rate run. The program stamps latency at
/// issue, so this is how much its latencies under-report "from the scheduled
/// time". Agent `a`'s `i`-th pull is due at `start_a + i·period/users`; more
/// than one per-message send overhead of lag fails the run.
pub fn serve_generator_lag_ns(seed: u64, spans: &mut Spans) -> Result<u64, String> {
    let mut spec = serve_spec("serve-kdd12").ok_or("serve-kdd12 preset is gone")?;
    spec.users_per_agent = SERVE_GRID_USERS[SERVE_REFERENCE];
    spec.duration = SimTime::from_millis(5);
    let ((_, report), _) = spans.scope("sim.run.generator_lag", |_| {
        run_serve(builder(seed, true, false), &spec)
    });
    let mut issued: Vec<Vec<u64>> = vec![Vec::new(); report.procs.len()];
    for e in &report.trace {
        if let TraceEvent::Send { at, src, .. } = e {
            if report.procs[src.0].name.starts_with("serve-clients-") {
                issued[src.0].push(at.as_nanos());
            }
        }
    }
    let period = spec.user_period.as_nanos();
    let users = spec.users_per_agent as u64;
    let mut lag = 0u64;
    let mut seen = 0usize;
    for times in issued.iter().filter(|t| !t.is_empty()) {
        seen += times.len();
        for (i, &at) in times.iter().enumerate() {
            let due = times[0] + i as u64 * period / users;
            if at < due {
                return Err(format!("pull {i} issued {} ns before it was due", due - at));
            }
            lag = lag.max(at - due);
        }
    }
    if seen == 0 {
        return Err("generator-lag run traced no client sends".into());
    }
    let allowed = report.net.per_msg_overhead.as_nanos();
    if lag > allowed {
        return Err(format!(
            "open-loop generator ran {lag} ns late (over {allowed} ns): latencies no longer count from the scheduled time"
        ));
    }
    Ok(lag)
}

/// The highest of p999 / p99 / p90 / p50 with at least ten samples beyond
/// it, and how many lie beyond.
pub fn tail_quantile(count: u64) -> (f64, u64) {
    for (q, per) in [(0.999, 1000), (0.99, 100), (0.9, 10)] {
        if count / per >= 10 {
            return (q, count / per);
        }
    }
    (0.5, count / 2)
}

/// Quantile by linear interpolation inside the histogram bucket holding the
/// target rank, clamped to the observed range. `VtHistogram::quantile_ns`
/// returns the bucket's upper edge, which reads the same on every seed
/// (229.375 µs at 1.6 M pulls/s); interpolating keeps the digits the counts
/// carry.
pub fn quantile_interp_ns(h: &VtHistogram, q: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (k, c) in h.sparse_buckets() {
        if seen + c >= target {
            let k = k as usize;
            let upper = ps2::simnet::metrics::bucket_upper_bound(k) as f64;
            let lower = if k == 0 {
                0.0
            } else {
                ps2::simnet::metrics::bucket_upper_bound(k - 1) as f64
            };
            let frac = (target - seen) as f64 / c as f64;
            return (lower + frac * (upper - lower)).clamp(h.min_ns() as f64, h.max_ns() as f64);
        }
        seen += c;
    }
    h.max_ns() as f64
}

/// Samples in buckets lying wholly above `limit_ns`.
fn samples_above(h: &VtHistogram, limit_ns: u64) -> u64 {
    h.sparse_buckets()
        .into_iter()
        .filter(|&(k, _)| {
            k > 0 && ps2::simnet::metrics::bucket_upper_bound(k as usize - 1) >= limit_ns
        })
        .map(|(_, c)| c)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(160_000), (0.999, 160));
        assert_eq!(tail_quantile(9_999), (0.99, 99));
        assert_eq!(tail_quantile(600), (0.9, 60));
        assert_eq!(tail_quantile(40), (0.5, 20));
    }

    #[test]
    fn interpolated_quantile_stays_inside_its_bucket() {
        let mut h = VtHistogram::default();
        for i in 0..1000u64 {
            h.observe(SimTime(200_000 + i * 10));
        }
        let q = quantile_interp_ns(&h, 0.5);
        let edge = h.quantile_ns(0.5) as f64;
        assert!(q <= edge && q > edge * 0.96, "{q} vs bucket edge {edge}");
        assert_eq!(quantile_interp_ns(&h, 1.0), h.max_ns() as f64);
        assert_eq!(samples_above(&h, 100_000), 1000);
        assert_eq!(samples_above(&h, 300_000), 0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
