//! Request tracing's core contract, mirroring `hostprof_determinism.rs`:
//! the trace-context / exemplar recorder observes the simulator, it never
//! perturbs it. A traced run must be bit-identical to the same seeded run
//! untraced — same virtual clock, same message counts, same metrics JSON.
//! On top of that: exemplars carry complete stage breakdowns that partition
//! each request's total exactly, and an SLO burn fires at a window-aligned
//! virtual timestamp.

use ps2::simnet::watchdog::SLO_SLOW_WINDOWS;
use ps2::simnet::{SloObjective, EXEMPLAR_K};
use ps2::slo::SLO_WINDOW;
use ps2::{RunSpec, SimBuilder, SimReport, SimTime};

mod common;
use common::assert_same_virtual_run;

/// One seeded LR run, with or without request tracing. SLO judging is on in
/// both (it is independently non-perturbing). Eight iterations take
/// ≈ 14 ms, so the 12-window slow burn span fills on complete
/// [`SLO_WINDOW`]s.
fn run_once(traced: bool) -> SimReport {
    let spec = "lr --rows 1000 --dim 20000 --nnz 10 --workers 4 --servers 3 --iters 8 --seed 11";
    let builder = SimBuilder::new()
        .timeseries(SLO_WINDOW)
        .slo(objectives())
        .reqtrace(traced);
    spec.parse::<RunSpec>().unwrap().run(builder).report
}

/// A deliberately unattainable objective, p999 of pulls under 1 µs, beside
/// the sane 1 ms one the presets use. The healthy p999 of this run is
/// hundreds of µs, so every window's pull samples are bad events for the
/// first and both burn spans saturate.
fn objectives() -> Vec<SloObjective> {
    let pull_p999 =
        |name, target| SloObjective::latency_p999(name, "ps.client.op.pull.latency", target);
    vec![
        pull_p999("ps.pull.p999", SimTime::from_micros(1)),
        pull_p999("healthy.pull.p999", SimTime::from_millis(1)),
    ]
}

#[test]
fn request_tracing_never_perturbs_the_simulated_run() {
    let plain = run_once(false);
    let traced = run_once(true);

    assert_same_virtual_run(&plain, &traced);

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
    let window_ns = SLO_WINDOW.as_nanos();
    let alerts = &report.alerts;
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
    assert!(
        alerts.iter().all(|a| a.subject == "ps.pull.p999"),
        "{alerts:?}"
    );
}
