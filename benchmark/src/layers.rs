//! Metric tables (the same names `BENCHMARK.json` lists — a test holds the
//! two together) and the extraction of every per-layer number from a traced
//! pass. Everything is read from outside: the public `SimReport`,
//! `MetricsSnapshot` and `HostProfile`, plus the harness's own stage timings.

use std::collections::BTreeMap;

use ps2::simnet::{HostProfile, MetricsSnapshot, SimReport, VtHistogram};

use crate::checks::{counts, suffix_sum};
use crate::probes::Probes;
use crate::workloads::{quantile_interp_ns, Pass, Workload, SERVE_GRID_USERS, SERVE_REFERENCE};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Deterministic for a seed (virtual time, counts): repeats bit for bit.
    /// Otherwise a host-clock number, reported as a pinned median.
    pub exact: bool,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact,
    }
}

/// End-to-end metrics and the share of the parent's median each may worsen.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (def("setup_s", "s", "lower", false), 0.25),
    (def("host_s", "s", "lower", false), 0.25),
    (def("peak_rss_mb", "MB", "lower", false), 0.25),
    (def("virtual_s", "s", "lower", true), 0.01),
    (def("req_tail_us", "us", "lower", true), 0.05),
];

pub const PER_LAYER: &[MetricDef] = &[
    // the host clock, raw (the gated `host_s` is CPU time, calibrated)
    def("host.wall_s", "s", "lower", false),
    def("host.cpu_s", "s", "lower", false),
    // simnet::runtime
    def("runtime.msgs_per_wall_s", "1/s", "higher", false),
    def("runtime.thread_handoff_us", "us", "lower", false),
    def("runtime.thread_handoff_parked32_us", "us", "lower", false),
    def("runtime.agent_step_us", "us", "lower", false),
    def("hostprof.sched.park.self_ms", "ms", "lower", false),
    def("hostprof.sched.dispatch.self_ms", "ms", "lower", false),
    def("hostprof.sched.dispatch.calls", "count", "lower", true),
    def("hostprof.sched.send.self_ms", "ms", "lower", false),
    def("hostprof.sched.recv.self_ms", "ms", "lower", false),
    def("hostprof.sched.step.self_ms", "ms", "lower", false),
    def("hostprof.allocs_per_msg", "count", "lower", false),
    def("hostprof.alloc_bytes_per_msg", "B", "lower", false),
    // simnet::fabric
    def("fabric.call_us", "us", "lower", false),
    def("fabric.envelopes", "count", "lower", true),
    def("fabric.timeouts", "count", "lower", true),
    def("fabric.retries", "count", "lower", true),
    def("hostprof.fabric.call.self_ms", "ms", "lower", false),
    def("hostprof.fabric.call.allocs", "count", "lower", false),
    // simnet::message (codec)
    def("codec.wire_size_ns_per_kb", "ns/KB", "lower", false),
    def("codec.bytes_total", "B", "lower", true),
    def("hostprof.codec.encode.self_ms", "ms", "lower", false),
    def("hostprof.codec.encode.allocs", "count", "lower", false),
    def("hostprof.codec.decode.self_ms", "ms", "lower", false),
    // simnet::{metrics,reqtrace,timeseries}
    def("observers.overhead_ratio", "ratio", "lower", false),
    def("observers.virtual_identical", "bool", "higher", true),
    def("metrics.record_ns", "ns", "lower", false),
    def("hostprof.metrics.record.self_ms", "ms", "lower", false),
    def("hostprof.scrape.roll.self_ms", "ms", "lower", false),
    def("hostprof.scrape.roll.alloc_bytes", "B", "lower", false),
    // simnet::{perfetto,causal,whatif} + tracefile
    def("perfetto.export_ms", "ms", "lower", false),
    def("perfetto.trace_bytes", "B", "lower", true),
    def("causal.dag_build_ms", "ms", "lower", false),
    def("causal.critical_path_ms", "ms", "lower", false),
    def("tracefile.summary_parse_ms", "ms", "lower", false),
    def("tracefile.whatif_input_ms", "ms", "lower", false),
    def("tracefile.parse_mb_per_s", "MB/s", "higher", false),
    def("whatif.battery_ms", "ms", "lower", false),
    def("whatif.identity_err_ns", "ns", "lower", true),
    def("causal.path.compute_frac", "ratio", "lower", true),
    def("causal.path.network_frac", "ratio", "lower", true),
    def("causal.path.queue_frac", "ratio", "lower", true),
    def("causal.path.idle_frac", "ratio", "lower", true),
    // dataflow
    def("dataflow.jobs", "count", "lower", true),
    def("dataflow.tasks", "count", "lower", true),
    def("dataflow.task_retries", "count", "lower", true),
    def("dataflow.task_latency_p50_us", "us", "lower", true),
    def("dataflow.task_latency_p999_us", "us", "lower", true),
    def("dataflow.job_latency_p50_ms", "ms", "lower", true),
    def("dataflow.driver_bytes_in", "B", "lower", true),
    def("dataflow.job_overhead_us", "us", "lower", false),
    // ps::client + ps::consistency
    def("ps.client.pull_p50_us", "us", "lower", true),
    def("ps.client.pull_p999_us", "us", "lower", true),
    def("ps.client.push_p50_us", "us", "lower", true),
    def("ps.client.push_p999_us", "us", "lower", true),
    def("ps.client.envelopes_per_iter", "count", "lower", true),
    def("ps.client.bytes_per_iter", "B", "lower", true),
    def("ps.client.timeouts", "count", "lower", true),
    def("ps.cache.hit_ratio", "ratio", "higher", true),
    def("ps.clock.envelopes", "count", "lower", true),
    def("ps.clock.wait_p50_us", "us", "lower", true),
    // ps::server + ps::master
    def("ps.server.pull.queue_p999_us", "us", "lower", true),
    def("ps.server.pull.service_p50_us", "us", "lower", true),
    def("ps.server.push.queue_p999_us", "us", "lower", true),
    def("ps.server.push.service_p50_us", "us", "lower", true),
    def("ps.server.served", "count", "lower", true),
    def("ps.server.max_share", "ratio", "lower", true),
    def("ps.fleet.recoveries", "count", "lower", true),
    // core::dcv
    def("dcv.axpy_p50_us", "us", "lower", true),
    def("dcv.dot_p50_us", "us", "lower", true),
    def("dcv.colop_bytes_per_op", "B", "lower", true),
    def("dcv.server_to_server_bytes", "B", "lower", true),
    def("dcv.axpy_ns_per_elem", "ns", "lower", false),
    // data
    def("data.gen_rows_per_s", "1/s", "higher", false),
    // ml
    def("ml.iterations", "count", "lower", true),
    def("ml.iter_virtual_ms_p50", "ms", "lower", true),
    def("ml.setup_virtual_ms", "ms", "lower", true),
    def("ml.grad_ns_per_nnz", "ns", "lower", false),
    def("ml.time_to_loss_s", "s", "lower", true),
    def("ml.final_loss", "loss", "lower", true),
    // the serve sweep, one row per grid rate where it is a curve
    def("serve.max_rate_kpps", "kpps", "higher", true),
    def("serve.late_frac", "ratio", "lower", true),
    def("serve.generator_lag_us", "us", "lower", true),
    def("serve.tail_samples_min", "count", "higher", true),
    def("serve.tail_us.r1200", "us", "lower", true),
    def("serve.tail_us.r1600", "us", "lower", true),
    def("serve.tail_us.r2000", "us", "lower", true),
    def("serve.tail_us.r2200", "us", "lower", true),
    def("serve.tail_us.r2400", "us", "lower", true),
    def("serve.drain_us.r1200", "us", "lower", true),
    def("serve.drain_us.r1600", "us", "lower", true),
    def("serve.drain_us.r2000", "us", "lower", true),
    def("serve.drain_us.r2200", "us", "lower", true),
    def("serve.drain_us.r2400", "us", "lower", true),
    // every workload
    def("failed_frac", "ratio", "lower", true),
];

/// The report per-layer rows are read from: the only one, or on the sweep
/// the reference-rate run.
pub fn main_report(w: Workload, pass: &Pass) -> &SimReport {
    match w {
        Workload::ServePullSweep => &pass.reports[SERVE_REFERENCE],
        _ => &pass.reports[0],
    }
}

/// The tail of the workload's request latency, as `(ns, quantile, samples
/// beyond it)`. On the sweep: served pulls at the reference rate, p999 with
/// in-bucket interpolation. On training: the **maximum** latency of
/// PS-client pulls (dataflow tasks on the PS-less workload) — with at most
/// 1 600 requests of fixed sizes every binned quantile reads the same on
/// every seed, the maximum is the one tail statistic `VtHistogram` keeps
/// un-binned, and under BSP the slowest request is what an iteration waits
/// for.
pub fn request_tail(w: Workload, pass: &Pass) -> Result<(f64, f64, u64), String> {
    if w == Workload::ServePullSweep {
        let r = &pass.rates[SERVE_REFERENCE];
        return Ok((r.tail_ns, r.tail_q, r.tail_samples));
    }
    let name = match w {
        Workload::TrainLrMllib => "spark.task.latency",
        _ => "ps.client.op.pull.latency",
    };
    let h = pass.reports[0]
        .metrics
        .hist(name)
        .ok_or_else(|| format!("run recorded no {name}"))?;
    Ok((h.max_ns() as f64, 1.0, 0))
}

/// First virtual second the curve reaches the workload's fixed loss target;
/// the whole training time when it never does (reported, not failed — the
/// quality check is the loss bar).
pub fn time_to_loss_s(w: Workload, pass: &Pass) -> f64 {
    match (&pass.curve, w.loss_numbers()) {
        (Some(curve), Some(loss)) => curve
            .time_to_loss(loss.target)
            .unwrap_or(curve.total_time()),
        _ => 0.0,
    }
}

/// What one traced run hands to [`per_layer`].
pub struct TracedRun<'a> {
    pub workload: Workload,
    pub pass: &'a Pass,
    /// Host profile of the traced pass, analysis stages included.
    pub host: &'a HostProfile,
    pub untraced_wall_s: f64,
    pub untraced_cpu_s: f64,
    pub traced_wall_s: f64,
    pub generator_lag_ns: Option<u64>,
    pub probes: Option<&'a Probes>,
}

fn hist_us(m: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    m.hist(name).map_or(0.0, |h| quantile_interp_ns(h, q) / 1e3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric by name; 0 where the workload does not touch the
/// layer (no PS on `train-lr-mllib`, no dataflow on the sweep, …).
pub fn per_layer(run: &TracedRun<'_>) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut set = |name: &'static str, v: f64| {
        *out.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in PER_LAYER")) = v;
    };
    let pass = run.pass;
    let report = main_report(run.workload, pass);
    let m = &report.metrics;
    let msgs = pass.total_msgs() as f64;

    set("host.wall_s", run.untraced_wall_s);
    set("host.cpu_s", run.untraced_cpu_s);

    // simnet::runtime and the host profile
    set("runtime.msgs_per_wall_s", ratio(msgs, run.untraced_wall_s));
    let scope = |name: &str| run.host.scopes.iter().find(|s| s.name == name);
    let self_ms = |name: &str| scope(name).map_or(0.0, |s| s.self_ns as f64 / 1e6);
    set("hostprof.sched.park.self_ms", self_ms("sched.park"));
    set("hostprof.sched.dispatch.self_ms", self_ms("sched.dispatch"));
    set(
        "hostprof.sched.dispatch.calls",
        scope("sched.dispatch").map_or(0.0, |s| s.calls as f64),
    );
    set("hostprof.sched.send.self_ms", self_ms("sched.send"));
    set("hostprof.sched.recv.self_ms", self_ms("sched.recv"));
    set("hostprof.sched.step.self_ms", self_ms("sched.step"));
    let allocs: u64 = run.host.scopes.iter().map(|s| s.allocs).sum();
    let alloc_bytes: u64 = run.host.scopes.iter().map(|s| s.alloc_bytes).sum();
    set("hostprof.allocs_per_msg", ratio(allocs as f64, msgs));
    set(
        "hostprof.alloc_bytes_per_msg",
        ratio(alloc_bytes as f64, msgs),
    );
    set("hostprof.fabric.call.self_ms", self_ms("fabric.call"));
    set(
        "hostprof.fabric.call.allocs",
        scope("fabric.call").map_or(0.0, |s| s.allocs as f64),
    );
    set("hostprof.codec.encode.self_ms", self_ms("codec.encode"));
    set(
        "hostprof.codec.encode.allocs",
        scope("codec.encode").map_or(0.0, |s| s.allocs as f64),
    );
    set("hostprof.codec.decode.self_ms", self_ms("codec.decode"));
    set("hostprof.metrics.record.self_ms", self_ms("metrics.record"));
    set("hostprof.scrape.roll.self_ms", self_ms("scrape.roll"));
    set(
        "hostprof.scrape.roll.alloc_bytes",
        scope("scrape.roll").map_or(0.0, |s| s.alloc_bytes as f64),
    );

    // simnet::fabric, codec, observers
    set("fabric.envelopes", suffix_sum(m, ".envelopes") as f64);
    set("fabric.timeouts", suffix_sum(m, ".timeouts") as f64);
    set("fabric.retries", suffix_sum(m, ".retries") as f64);
    set(
        "codec.bytes_total",
        pass.reports.iter().map(|r| r.total_bytes).sum::<u64>() as f64,
    );
    set(
        "observers.overhead_ratio",
        ratio(run.traced_wall_s, run.untraced_wall_s),
    );
    // Every pass, traced or not, was held to the first pass's exact numbers
    // before it got here; a difference fails the run instead of printing 0.
    set("observers.virtual_identical", 1.0);

    // simnet::{perfetto,causal,whatif} + tracefile
    if let Some(st) = &pass.stages {
        set("perfetto.export_ms", st.export_s * 1e3);
        set("perfetto.trace_bytes", st.trace_bytes as f64);
        set("causal.dag_build_ms", st.dag_build_s * 1e3);
        set("causal.critical_path_ms", st.critical_path_s * 1e3);
        set("tracefile.summary_parse_ms", st.summary_parse_s * 1e3);
        set("tracefile.whatif_input_ms", st.whatif_input_s * 1e3);
        // Both stages parse the whole file once.
        let parsed_mb = 2.0 * st.trace_bytes as f64 / 1e6;
        set(
            "tracefile.parse_mb_per_s",
            ratio(parsed_mb, st.summary_parse_s + st.whatif_input_s),
        );
        set("whatif.battery_ms", st.battery_s * 1e3);
        set("whatif.identity_err_ns", st.identity_err_ns as f64);
        set("causal.path.compute_frac", st.path_frac[0]);
        set("causal.path.network_frac", st.path_frac[1]);
        set("causal.path.queue_frac", st.path_frac[2]);
        set("causal.path.idle_frac", st.path_frac[3]);
        set(
            "dcv.server_to_server_bytes",
            st.server_to_server_bytes as f64,
        );
    }

    // dataflow
    set("dataflow.jobs", m.counter("spark.jobs") as f64);
    set("dataflow.tasks", m.counter("spark.tasks_dispatched") as f64);
    set(
        "dataflow.task_retries",
        m.counter("spark.task_retries") as f64,
    );
    set(
        "dataflow.task_latency_p50_us",
        hist_us(m, "spark.task.latency", 0.5),
    );
    set(
        "dataflow.task_latency_p999_us",
        hist_us(m, "spark.task.latency", 0.999),
    );
    set(
        "dataflow.job_latency_p50_ms",
        hist_us(m, "spark.job.latency", 0.5) / 1e3,
    );
    set(
        "dataflow.driver_bytes_in",
        report
            .proc("coordinator")
            .map_or(0.0, |p| p.bytes_recv as f64),
    );

    // ps::client + ps::consistency
    let iterations = m.counter("ml.iterations") as f64;
    set(
        "ps.client.pull_p50_us",
        hist_us(m, "ps.client.op.pull.latency", 0.5),
    );
    set(
        "ps.client.pull_p999_us",
        hist_us(m, "ps.client.op.pull.latency", 0.999),
    );
    let mut push = VtHistogram::default();
    for name in [
        "ps.client.op.push.latency",
        "ps.client.op.push_async.latency",
    ] {
        if let Some(h) = m.hist(name) {
            push.merge(h);
        }
    }
    set(
        "ps.client.push_p50_us",
        quantile_interp_ns(&push, 0.5) / 1e3,
    );
    set(
        "ps.client.push_p999_us",
        quantile_interp_ns(&push, 0.999) / 1e3,
    );
    set(
        "ps.client.envelopes_per_iter",
        ratio(m.counter("ps.client.envelopes") as f64, iterations),
    );
    let client_bytes: u64 = m
        .counters()
        .filter(|(k, _)| k.starts_with("ps.client.op.") && k.ends_with(".bytes"))
        .map(|(_, v)| v)
        .sum();
    set(
        "ps.client.bytes_per_iter",
        ratio(client_bytes as f64, iterations),
    );
    set("ps.client.timeouts", m.counter("ps.client.timeouts") as f64);
    let (hit, miss) = (
        m.counter("ps.cache.hit") as f64,
        m.counter("ps.cache.miss") as f64,
    );
    set("ps.cache.hit_ratio", ratio(hit, hit + miss));
    set("ps.clock.envelopes", m.counter("ps.clock.envelopes") as f64);
    set(
        "ps.clock.wait_p50_us",
        hist_us(m, "ps.clock.op.wait.latency", 0.5),
    );

    // ps::server + ps::master
    set(
        "ps.server.pull.queue_p999_us",
        hist_us(m, "ps.server.pull.queue", 0.999),
    );
    set(
        "ps.server.pull.service_p50_us",
        hist_us(m, "ps.server.pull.service", 0.5),
    );
    set(
        "ps.server.push.queue_p999_us",
        hist_us(m, "ps.server.push.queue", 0.999),
    );
    set(
        "ps.server.push.service_p50_us",
        hist_us(m, "ps.server.push.service", 0.5),
    );
    let served: Vec<u64> = m
        .counters()
        .filter(|(k, _)| k.starts_with("ps.server.p") && k.ends_with(".served"))
        .map(|(_, v)| v)
        .collect();
    let served_total: u64 = served.iter().sum();
    set("ps.server.served", served_total as f64);
    set(
        "ps.server.max_share",
        ratio(
            served.iter().copied().max().unwrap_or(0) as f64,
            served_total as f64,
        ),
    );
    set(
        "ps.fleet.recoveries",
        m.counter("ps.fleet.recoveries") as f64,
    );

    // core::dcv
    set(
        "dcv.axpy_p50_us",
        hist_us(m, "ps.client.op.axpy.latency", 0.5),
    );
    set(
        "dcv.dot_p50_us",
        hist_us(m, "ps.client.op.dot.latency", 0.5),
    );
    let (mut colop_bytes, mut colop_count) = (0u64, 0u64);
    for op in ["axpy", "dot", "scale", "elem"] {
        colop_bytes += m.counter(&format!("ps.client.op.{op}.bytes"));
        colop_count += m.counter(&format!("ps.client.op.{op}.count"));
    }
    set(
        "dcv.colop_bytes_per_op",
        ratio(colop_bytes as f64, colop_count as f64),
    );

    // ml
    set("ml.iterations", iterations);
    set(
        "ml.iter_virtual_ms_p50",
        hist_us(m, "ml.iteration", 0.5) / 1e3,
    );
    if let Some(h) = m.hist("ml.iteration") {
        let in_iterations = h.sum_ns() / run.workload.iteration_procs();
        let setup_ns = report.virtual_time.as_nanos().saturating_sub(in_iterations);
        set("ml.setup_virtual_ms", setup_ns as f64 / 1e6);
    }
    set("ml.time_to_loss_s", time_to_loss_s(run.workload, pass));
    set(
        "ml.final_loss",
        pass.curve.as_ref().map_or(0.0, |c| c.final_loss()),
    );

    // the serve sweep
    if !pass.rates.is_empty() {
        let max_rate = pass
            .rates
            .iter()
            .filter(|r| r.meets_slo())
            .map(|r| r.rate_kpps)
            .fold(0.0, f64::max);
        set("serve.max_rate_kpps", max_rate);
        let issued: u64 = pass.rates.iter().map(|r| r.issued).sum();
        let late: u64 = pass
            .rates
            .iter()
            .map(|r| r.late + (r.issued - r.completed))
            .sum();
        set("serve.late_frac", ratio(late as f64, issued as f64));
        set(
            "serve.tail_samples_min",
            pass.rates.iter().map(|r| r.tail_samples).min().unwrap_or(0) as f64,
        );
        const TAIL: [&str; 5] = [
            "serve.tail_us.r1200",
            "serve.tail_us.r1600",
            "serve.tail_us.r2000",
            "serve.tail_us.r2200",
            "serve.tail_us.r2400",
        ];
        const DRAIN: [&str; 5] = [
            "serve.drain_us.r1200",
            "serve.drain_us.r1600",
            "serve.drain_us.r2000",
            "serve.drain_us.r2200",
            "serve.drain_us.r2400",
        ];
        const _: () = assert!(TAIL.len() == SERVE_GRID_USERS.len());
        for (i, r) in pass.rates.iter().enumerate() {
            set(TAIL[i], r.tail_ns / 1e3);
            set(DRAIN[i], r.drain_ns as f64 / 1e3);
        }
    }
    if let Some(lag) = run.generator_lag_ns {
        set("serve.generator_lag_us", lag as f64 / 1e3);
    }

    let c = counts(pass);
    set("failed_frac", ratio(c.failed as f64, c.attempted as f64));

    if let Some(p) = run.probes {
        set("runtime.thread_handoff_us", p.thread_handoff_us);
        set(
            "runtime.thread_handoff_parked32_us",
            p.thread_handoff_parked32_us,
        );
        set("runtime.agent_step_us", p.agent_step_us);
        set("fabric.call_us", p.fabric_call_us);
        set("codec.wire_size_ns_per_kb", p.wire_size_ns_per_kb);
        set("metrics.record_ns", p.metrics_record_ns);
        set("dataflow.job_overhead_us", p.job_overhead_us);
        set("dcv.axpy_ns_per_elem", p.axpy_ns_per_elem);
        set("data.gen_rows_per_s", p.gen_rows_per_s);
        set("ml.grad_ns_per_nnz", p.grad_ns_per_nnz);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(d, _)| d.name).collect();
        names.extend(PER_LAYER.iter().map(|d| d.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (d, bound) in END_TO_END {
            assert!(*bound <= 0.25, "{} bound over the contract's cap", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(d, _)| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` cannot be generated at build time (the driver reads
    /// it before building), so this holds it to the tables instead.
    #[test]
    fn benchmark_json_lists_these_tables() {
        use ps2::tracefile::{parse_json, JsonValue};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec =
            parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        let rows = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let text =
                |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            spec.get(key)
                .and_then(JsonValue::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let bound = match m.get("bound") {
                        Some(JsonValue::Num(b)) => Some(*b),
                        _ => None,
                    };
                    (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
                })
                .collect()
        };
        let own = |d: &MetricDef, bound: Option<f64>| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.to_string(),
                bound,
            )
        };
        let end_to_end: Vec<_> = END_TO_END.iter().map(|(d, b)| own(d, Some(*b))).collect();
        let layers: Vec<_> = PER_LAYER.iter().map(|d| own(d, None)).collect();
        assert_eq!(rows("end_to_end"), end_to_end);
        assert_eq!(rows("per_layer"), layers);
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            spec.get("run_seconds").and_then(JsonValue::as_u64),
            Some(crate::RUN_SECONDS)
        );
    }
}
