//! The host profiler's core contract: profiling observes the simulator, it
//! never perturbs it. The same seeded run — profiler and counting allocator
//! on versus off — must produce bit-identical virtual-time results: same
//! clock, same message counts, same rendered metrics JSON (modulo the one
//! deliberate wall-clock field, `wall_ms`).
//!
//! This lives in its own integration-test binary on purpose: hostprof state
//! is process-global, and sharing a process with unrelated tests would let
//! their allocations leak into this run's profile.

use ps2::simnet::hostprof;
use ps2::slo::{preset_slos, SLO_WINDOW};
use ps2::{RunSpec, SimBuilder, SimReport};

mod common;
use common::assert_same_virtual_run;

/// One seeded LR run with the generic SLOs judged (so the `scrape.roll`
/// scope has something to record when profiled).
fn run_once(profiled: bool) -> SimReport {
    if profiled {
        hostprof::set_enabled(true);
        hostprof::set_alloc_counting(true);
    }
    let spec = "lr --rows 1000 --dim 20000 --nnz 10 --workers 4 --servers 3 --iters 3 --seed 11";
    // These mini-runs finish in a few virtual ms, and windows must actually
    // close for `scrape.roll` to show in the profile.
    let builder = SimBuilder::new()
        .timeseries(SLO_WINDOW)
        .slo(preset_slos(None));
    let report = spec.parse::<RunSpec>().unwrap().run(builder).report;
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

    assert_same_virtual_run(&plain, &profiled);

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
