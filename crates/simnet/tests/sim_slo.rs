//! The SLO burn judge over whole runs: it judges every window of a run of
//! any length, and judging never perturbs the simulation. A judged run's
//! `SimReport` (timing, trace, metrics, per-proc stats) is byte-identical
//! to an unjudged same-seed run's.

use ps2_simnet::{SimBuilder, SimReport, SimTime, SloObjective};

/// One proc records one `lat` sample per 1 ms window for `windows` windows;
/// the first 100 samples are slow (10 ms against a 1 ms p999 target).
fn early_burn_alerts(windows: u64) -> Vec<(u64, SimTime)> {
    let objective = SloObjective::latency_p999("lat.p999", "lat", SimTime::from_millis(1));
    let mut sim = SimBuilder::new()
        .timeseries(SimTime::from_millis(1))
        .slo(vec![objective])
        .build();
    sim.spawn("lone", move |ctx| {
        for i in 0..windows {
            let lat = if i < 100 {
                SimTime::from_millis(10)
            } else {
                SimTime::from_micros(10)
            };
            ctx.metric_observe("lat", lat);
            ctx.advance(SimTime::from_millis(1));
        }
    });
    let report = sim.run().unwrap();
    report.alerts.iter().map(|a| (a.window, a.at)).collect()
}

/// Windows 11, 23, …, 95: each fills the 12-window slow span with slow
/// samples, fires, and resets it; window 107's fast span is clean.
fn pinned() -> Vec<(u64, SimTime)> {
    (0..8)
        .map(|k| 11 + 12 * k)
        .map(|w| (w, SimTime::from_millis(w + 1)))
        .collect()
}

#[test]
fn an_early_burn_in_a_long_run_is_judged() {
    assert_eq!(early_burn_alerts(5_000), pinned());
}

/// Objectives over the workload's histogram and counters. Both burn: no
/// round trip beats 1 µs, and each call is one server request.
fn objectives() -> Vec<SloObjective> {
    vec![
        SloObjective::latency_p999("cli.rtt.p999", "cli.rtt", SimTime::from_micros(1)),
        SloObjective::error_rate("srv.per_call", "srv.reqs", "cli.calls", 1),
    ]
}

/// A small but busy workload: a server daemon answering calls, four clients
/// computing and calling in a loop, metrics of all three kinds recorded.
fn workload(judged: bool) -> SimReport {
    let mut builder = SimBuilder::new().seed(11).trace(true);
    if judged {
        builder = builder
            .timeseries(SimTime::from_micros(100))
            .slo(objectives());
    }
    let mut sim = builder.build();
    let server = sim.spawn_daemon("server", |ctx| loop {
        let env = ctx.recv();
        ctx.metric_add("srv.reqs", 1);
        ctx.advance(SimTime::from_micros(50));
        ctx.reply(&env, 1u64, 64);
    });
    for c in 0..4 {
        sim.spawn(&format!("client-{c}"), move |ctx| {
            for i in 0..20i64 {
                let t0 = ctx.now();
                ctx.advance(SimTime::from_micros(100 + 37 * c));
                let _ = ctx.call(server, 1, i as u64, 256);
                ctx.metric_add("cli.calls", 1);
                ctx.metric_gauge_set("cli.last_iter", i);
                ctx.metric_observe("cli.rtt", ctx.now() - t0);
            }
        });
    }
    sim.run().unwrap()
}

#[test]
fn judged_run_is_byte_identical_to_unjudged_run() {
    let plain = workload(false);
    let judged = workload(true);

    assert!(plain.alerts.is_empty());
    assert!(!judged.alerts.is_empty());

    // Every observable of the run is unchanged by judging.
    assert_eq!(plain.virtual_time, judged.virtual_time);
    assert_eq!(plain.total_msgs, judged.total_msgs);
    assert_eq!(plain.total_bytes, judged.total_bytes);
    assert_eq!(plain.dropped_msgs, judged.dropped_msgs);
    assert_eq!(plain.procs, judged.procs);
    assert_eq!(plain.trace, judged.trace);
    assert_eq!(plain.metrics, judged.metrics);
    assert_eq!(plain.labels, judged.labels);

    // And judging itself repeats exactly.
    assert_eq!(workload(true).alerts, judged.alerts);
}

#[test]
fn kills_mid_run_do_not_panic_the_judge() {
    // A killed proc mid-run: judging must survive mailbox/process churn.
    let objective = SloObjective::error_rate("drops", "sent.dropped", "sent", 1);
    let mut sim = SimBuilder::new()
        .seed(5)
        .timeseries(SimTime::from_millis(1))
        .slo(vec![objective])
        .build();
    let victim = sim.spawn_daemon("victim", |ctx| loop {
        let _ = ctx.recv();
    });
    sim.spawn("killer", move |ctx| {
        for _ in 0..5 {
            ctx.send(victim, 1, 0u64, 128);
            ctx.metric_add("sent", 1);
            ctx.advance(SimTime::from_micros(120));
        }
        ctx.kill(victim);
        ctx.send(victim, 1, 0u64, 128);
        ctx.metric_add("sent", 1);
        ctx.metric_add("sent.dropped", 1);
        ctx.advance(SimTime::from_micros(500));
    });
    let report = sim.run().unwrap();
    assert_eq!(report.dropped_msgs, 1);
    // Two windows close, the second at the run's end: fewer than the slow
    // span, so the whole run (one drop in six sends) is judged there.
    assert!(report.virtual_time > SimTime::from_millis(1));
    let fired: Vec<(u64, SimTime)> = report.alerts.iter().map(|a| (a.window, a.at)).collect();
    assert_eq!(fired, [(1, report.virtual_time)]);
}
