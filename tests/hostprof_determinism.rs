//! The host profiler's core contract: profiling observes the simulator, it
//! never perturbs it. The same seeded run — profiler and counting allocator
//! on versus off — must produce bit-identical virtual-time results: same
//! clock, same message counts, same rendered metrics JSON (modulo the one
//! deliberate wall-clock field, `wall_ms`).
//!
//! This lives in its own integration-test binary on purpose: hostprof state
//! is process-global, and sharing a process with unrelated tests would let
//! their allocations leak into this run's profile.

use ps2::ml::lr::{train_lr, LrBackend, LrConfig};
use ps2::ml::optim::Optimizer;
use ps2::simnet::hostprof;
use ps2::slo::SCRAPE_WINDOW;
use ps2::{run_ps2_with, ClusterSpec, SimBuilder, SimReport};
use ps2_data::SparseDatasetGen;

mod common;
use common::virtual_json;

/// One seeded LR run with timeseries scraping on (so the `scrape.roll`
/// scope has something to record when profiled).
fn run_once(profiled: bool) -> SimReport {
    if profiled {
        hostprof::set_enabled(true);
        hostprof::set_alloc_counting(true);
    }
    let spec = ClusterSpec {
        workers: 4,
        servers: 3,
    };
    // These mini-runs finish in a few virtual ms, and the scrape must
    // actually roll for `scrape.roll` to show in the profile.
    let builder = SimBuilder::new().seed(11).timeseries(SCRAPE_WINDOW);
    let (_, report) = run_ps2_with(builder, spec, |ctx, ps2| {
        let gen = SparseDatasetGen::new(1_000, 20_000, 10, 4, 11);
        let cfg = LrConfig::new(gen, Optimizer::Sgd, 3);
        train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv)
    });
    if profiled {
        hostprof::set_alloc_counting(false);
        hostprof::set_enabled(false);
    }
    report
}

#[test]
fn profiling_never_perturbs_the_simulated_run() {
    let plain = run_once(false);
    let profiled = run_once(true);

    // Every virtual-time observable is bit-identical.
    assert_eq!(plain.virtual_time, profiled.virtual_time);
    assert_eq!(plain.total_msgs, profiled.total_msgs);
    assert_eq!(plain.total_bytes, profiled.total_bytes);
    assert_eq!(plain.procs.len(), profiled.procs.len());
    for (a, b) in plain.procs.iter().zip(&profiled.procs) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.msgs_sent, b.msgs_sent);
        assert_eq!(a.msgs_recv, b.msgs_recv);
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.finished_at, b.finished_at);
    }
    assert_eq!(virtual_json(&plain), virtual_json(&profiled));
    let (ts_a, ts_b) = (plain.timeseries.unwrap(), profiled.timeseries.unwrap());
    assert_eq!(ts_a.to_json(), ts_b.to_json());

    // The unprofiled run carries no host section; the profiled one does,
    // with the scheduler scopes represented (every run parks and dispatches)
    // and a real wall-clock total.
    assert!(plain.host.is_none());
    let host = profiled.host.expect("profiled run collects a host profile");
    assert!(host.wall_ns > 0);
    assert!(host.alloc_counted);
    let names: Vec<&str> = host.scopes.iter().map(|s| s.name).collect();
    assert!(names.contains(&"sched.dispatch"), "got scopes: {names:?}");
    assert!(names.contains(&"sched.park"), "got scopes: {names:?}");
    assert!(names.contains(&"scrape.roll"), "got scopes: {names:?}");
    for s in &host.scopes {
        assert!(s.calls > 0, "scope {} reported with zero calls", s.name);
    }
}
