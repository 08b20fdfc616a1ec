//! Request tracing's core contract, mirroring `hostprof_determinism.rs`:
//! the trace-context / exemplar recorder observes the simulator, it never
//! perturbs it. A traced run must be bit-identical to the same seeded run
//! untraced — same virtual clock, same message counts, same metrics JSON.
//! On top of that: exemplars carry complete stage breakdowns that partition
//! each request's total exactly, and an SLO burn fires at a window-aligned
//! virtual timestamp.

use ps2::ml::lr::{train_lr, LrBackend, LrConfig};
use ps2::ml::optim::Optimizer;
use ps2::simnet::watchdog::SLO_SLOW_WINDOWS;
use ps2::simnet::{evaluate_slo, SloObjective, EXEMPLAR_K};
use ps2::slo::SCRAPE_WINDOW;
use ps2::{run_ps2_with, ClusterSpec, SimBuilder, SimReport, SimTime};
use ps2_data::SparseDatasetGen;

mod common;
use common::virtual_json;

/// One seeded LR run, with or without request tracing. Timeseries scraping
/// is on in both (it is independently non-perturbing, and the SLO tests
/// need the windows). Eight iterations take ≈ 14 ms, so the 12-window slow
/// burn span fills on complete [`SCRAPE_WINDOW`]s.
fn run_once(traced: bool) -> SimReport {
    let spec = ClusterSpec {
        workers: 4,
        servers: 3,
    };
    let builder = SimBuilder::new()
        .seed(11)
        .timeseries(SCRAPE_WINDOW)
        .reqtrace(traced);
    let (_, report) = run_ps2_with(builder, spec, |ctx, ps2| {
        let gen = SparseDatasetGen::new(1_000, 20_000, 10, 4, 11);
        let cfg = LrConfig::new(gen, Optimizer::Sgd, 8);
        train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv)
    });
    report
}

#[test]
fn request_tracing_never_perturbs_the_simulated_run() {
    let plain = run_once(false);
    let traced = run_once(true);

    // Every virtual-time observable is bit-identical.
    assert_eq!(plain.virtual_time, traced.virtual_time);
    assert_eq!(plain.total_msgs, traced.total_msgs);
    assert_eq!(plain.total_bytes, traced.total_bytes);
    assert_eq!(plain.procs.len(), traced.procs.len());
    for (a, b) in plain.procs.iter().zip(&traced.procs) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.msgs_sent, b.msgs_sent);
        assert_eq!(a.msgs_recv, b.msgs_recv);
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.finished_at, b.finished_at);
    }
    assert_eq!(virtual_json(&plain), virtual_json(&traced));
    let (ts_a, ts_b) = (plain.timeseries.unwrap(), traced.timeseries.unwrap());
    assert_eq!(ts_a.to_json(), ts_b.to_json());

    // The untraced run carries no request summary; the traced one does.
    assert!(plain.reqs.is_none());
    let reqs = traced.reqs.expect("traced run collects request summaries");
    assert!(reqs.completed() > 0);
}

#[test]
fn exemplars_carry_complete_stage_breakdowns() {
    let report = run_once(true);
    let reqs = report.reqs.as_ref().unwrap();

    // The LR run pulls and pushes every iteration, so both ops must have a
    // full top-K reservoir.
    for op in ["pull", "push"] {
        let stats = reqs
            .op(op)
            .unwrap_or_else(|| panic!("no op stats for {op}"));
        assert!(
            stats.completed >= EXEMPLAR_K as u64,
            "{op}: only {} completed requests",
            stats.completed
        );
        assert_eq!(
            stats.exemplars.len(),
            EXEMPLAR_K,
            "{op}: reservoir not full"
        );

        // Sorted slowest-first, and each breakdown partitions the total:
        // client_issue + net_request + server_queue + service + net_reply +
        // client_recv == total, exactly — no unattributed time.
        let totals: Vec<u64> = stats.exemplars.iter().map(|r| r.total_ns).collect();
        assert!(
            totals.windows(2).all(|w| w[0] >= w[1]),
            "{op}: exemplars not sorted by total: {totals:?}"
        );
        for r in &stats.exemplars {
            let stage_sum = r.client_issue_ns
                + r.net_request_ns
                + r.server_queue_ns
                + r.service_ns
                + r.net_reply_ns
                + r.client_recv_ns;
            assert_eq!(
                stage_sum, r.total_ns,
                "{op} req {}: stages sum to {stage_sum}, total {}",
                r.id, r.total_ns
            );
            assert!(r.attempts >= 1);
        }

        // The exemplar reservoir holds exactly the K slowest: the slowest
        // exemplar is the histogram max, and every exemplar is at least the
        // op's p50 lower bound of the remaining population... the cheap
        // checkable form: max exemplar == hist max.
        assert_eq!(totals[0], stats.hist.max_ns(), "{op}: missed the slowest");
    }
}

#[test]
fn slo_burn_alert_fires_window_aligned() {
    let report = run_once(true);
    let window_ns = SCRAPE_WINDOW.as_nanos();

    // A deliberately unattainable objective: p999 of pulls under 1 µs. The
    // healthy p999 of this run is hundreds of µs, so every window's pull
    // samples are "bad events" and both burn spans saturate.
    let objectives = vec![SloObjective::latency_p999(
        "ps.pull.p999",
        "ps.client.op.pull.latency",
        SimTime::from_micros(1),
    )];
    let alerts = evaluate_slo(&report, &objectives);
    assert!(
        !alerts.is_empty(),
        "tight objective must fire a burn alert on a healthy run"
    );
    let first = &alerts[0];
    assert_eq!(first.subject, "ps.pull.p999");
    // The earliest possible confirmation: the window that completes the
    // slow span. Its timestamp is the end of that window — window-aligned
    // in virtual time, never an arbitrary instant.
    assert_eq!(
        first.window,
        SLO_SLOW_WINDOWS as u64 - 1,
        "alert should fire as the slow span fills"
    );
    assert!(
        report.virtual_time.as_nanos() > (first.window + 1) * window_ns,
        "the slow span must fill on complete windows, not the run-end tail"
    );
    assert_eq!(
        first.at.as_nanos(),
        (first.window + 1) * window_ns,
        "alert timestamp must be the end of its window"
    );
    assert_eq!(
        first.at.as_nanos() % window_ns,
        0,
        "alert at {} not window-aligned",
        first.at.as_nanos()
    );

    // And the sane objective used by the presets stays quiet on this run.
    let healthy = vec![SloObjective::latency_p999(
        "ps.pull.p999",
        "ps.client.op.pull.latency",
        SimTime::from_millis(1),
    )];
    assert!(evaluate_slo(&report, &healthy).is_empty());
}
