//! Acceptance tests for the causal trace pipeline on a *real* training run:
//! critical-path category attribution partitions the virtual makespan
//! exactly, the exported Perfetto JSON is byte-identical across same-seed
//! runs, tracing never perturbs timing, and different seeds produce a
//! non-trivial diff.

use ps2::simnet::{export_trace_full, CausalAnalysis, CausalDag, SimReport};
use ps2::tracefile::TraceSummary;
use ps2::{RunSpec, SimBuilder};

mod common;
use common::{assert_same_virtual_run, ALERTS_SPEC};

fn lr_run(seed: u64, trace: bool) -> SimReport {
    let spec = format!(
        "lr --rows 2000 --dim 10000 --nnz 10 --workers 4 --servers 4 --iters 3 --seed {seed}"
    );
    let builder = SimBuilder::new().trace(trace);
    spec.parse::<RunSpec>().unwrap().run(builder).report
}

/// The live critical path and the trace file `ps2-run --trace-json` writes:
/// the path's track plus the retained DAG.
fn export(r: &SimReport) -> (CausalAnalysis, String) {
    let dag = CausalDag::from_report(r).unwrap();
    let a = dag.critical_path().unwrap();
    let json = export_trace_full(r, Some(&a), &[], None, Some(&dag));
    (a, json)
}

#[test]
fn critical_path_categories_partition_the_lr_makespan() {
    let report = lr_run(42, true);
    let a = CausalAnalysis::from_report(&report).unwrap();
    assert_eq!(
        a.makespan, report.virtual_time,
        "critical path must span the whole run"
    );
    assert_eq!(
        a.category_total_ns(),
        report.virtual_time.as_nanos(),
        "compute + network + queue + idle must sum to the virtual makespan"
    );
    assert!(a.compute_ns > 0, "an LR run computes");
    assert!(a.network_ns > 0, "an LR run communicates");
    // Per-op attribution covers all critical-path compute.
    let by_label: u64 = a.compute_by_label.values().sum();
    assert_eq!(by_label, a.compute_ns);
    assert!(
        a.compute_by_label.contains_key("spark.task"),
        "executor task compute must be labeled: {:?}",
        a.compute_by_label.keys().collect::<Vec<_>>()
    );
}

#[test]
fn same_seed_runs_export_byte_identical_traces() {
    let r1 = lr_run(42, true);
    let r2 = lr_run(42, true);
    let (a1, j1) = export(&r1);
    let (a2, j2) = export(&r2);
    assert_eq!(a1.render(), a2.render());
    assert_eq!(j1, j2, "same-seed trace exports must be byte-identical");
    // And the path rebuilt from the file's DAG is the in-process one, so the
    // offline report renders what the live run printed.
    let summary = TraceSummary::from_json(&j1).unwrap();
    assert_eq!(summary.makespan_ns, a1.makespan.as_nanos());
    assert_eq!(summary.analysis, a1);
    assert_eq!(summary.analysis.render(), a1.render());
}

#[test]
fn tracing_does_not_perturb_timing() {
    let traced = lr_run(42, true);
    let untraced = lr_run(42, false);
    assert_same_virtual_run(&traced, &untraced);
    assert!(!traced.trace.is_empty() && untraced.trace.is_empty());
}

#[test]
fn different_seeds_diff_with_nonzero_category_deltas() {
    let r1 = lr_run(42, true);
    let r2 = lr_run(43, true);
    let s1 = TraceSummary::from_json(&export(&r1).1).unwrap().analysis;
    let s2 = TraceSummary::from_json(&export(&r2).1).unwrap().analysis;
    assert_ne!(
        s1.makespan, s2.makespan,
        "different seeds should not produce identical makespans"
    );
    let changed = s1
        .categories()
        .iter()
        .zip(&s2.categories())
        .filter(|((ka, va), (kb, vb))| {
            assert_eq!(ka, kb);
            va != vb
        })
        .count();
    assert!(changed > 0, "diff must show non-zero per-category deltas");
    // The rendered diff names every category with a signed delta.
    let text = s1.render_diff(&s2);
    for cat in ["compute", "network", "queue", "idle"] {
        assert!(text.contains(cat), "diff must list '{cat}':\n{text}");
    }
}

#[test]
fn diff_view_shows_synthetic_slowdown() {
    let r = lr_run(42, true);
    let s = TraceSummary::from_json(&export(&r).1).unwrap().analysis;
    let delta = |ns: u64| format!("delta {:+.6}s", ns as f64 / 1e9);
    // A trace diffed against itself shows no delta anywhere.
    let same = s.render_diff(&s);
    assert!(same
        .lines()
        .all(|l| !l.contains("delta") || l.contains(&delta(0))));
    // Synthetic slowdown: +10% makespan and compute.
    let mut slow = s.clone();
    let makespan = s.makespan.as_nanos();
    slow.makespan = ps2::SimTime(makespan + makespan / 10);
    let compute = s.compute_ns / 10;
    slow.compute_ns += compute;
    assert!(compute > 0, "an LR run computes on the critical path");
    let text = s.render_diff(&slow);
    let line = |prefix: &str| {
        text.lines()
            .find(|l| l.trim_start().starts_with(prefix))
            .unwrap_or_else(|| panic!("no '{prefix}' line:\n{text}"))
    };
    assert!(line("makespan").contains(&delta(makespan / 10)), "{text}");
    assert!(line("compute").contains(&delta(compute)), "{text}");
    assert!(line("network").contains(&delta(0)), "{text}");
}

#[test]
fn alerts_in_the_export_do_not_break_the_offline_reader() {
    use ps2::simnet::{Alert, SimTime};
    let r = lr_run(42, true);
    let dag = CausalDag::from_report(&r).unwrap();
    let a = dag.critical_path().unwrap();
    let alerts = vec![Alert {
        at: SimTime::from_millis(100),
        window: 0,
        subject: "pull_rows.p999".to_string(),
        value_milli: 25_000,
    }];
    let json = export_trace_full(&r, Some(&a), &alerts, None, Some(&dag));
    let s = TraceSummary::from_json(&json).unwrap();
    assert_eq!(s.makespan_ns, a.makespan.as_nanos());
    // The timeline is the alert's only home in the file.
    let doc = ps2::tracefile::parse_json(&json).unwrap();
    assert!(doc.get("ps2").unwrap().get("alerts").is_none());
    // The alert belongs to the run, not to one process: a global-scope
    // instant with no thread.
    let instant = json
        .lines()
        .find(|l| l.contains("\"name\":\"watchdog.slo_burn\""))
        .expect("the alert is on the timeline");
    assert!(instant.contains("\"ph\":\"i\",\"s\":\"g\""), "{instant}");
    assert!(!instant.contains("\"tid\""), "{instant}");
    assert!(instant.contains("\"ts\":100000.000"), "{instant}");
}

/// The straggler question, answered exactly. On the golden `alerts` run
/// ([`ALERTS_SPEC`]) the standard what-if battery alone, with no experiment
/// derived from an alert, values speeding up the slowed worker and values
/// speeding up any PS server at nothing.
#[test]
fn the_battery_alone_names_the_straggler() {
    use ps2::simnet::{run_battery, standard_battery};

    let spec: RunSpec = ALERTS_SPEC.parse().unwrap();
    let report = spec.run(SimBuilder::new().trace(true)).report;
    let dag = CausalDag::from_report(&report).unwrap();
    let wr = run_battery(&dag, &[], &standard_battery(&dag)).unwrap();

    let worker = wr
        .experiments
        .iter()
        .find(|e| e.spec == "compute@proc:mode-worker-0=0.8")
        .expect("the battery speeds up the busiest worker");
    assert!(worker.delta_ns > 0, "{}", wr.render());
    let servers: Vec<_> = wr
        .experiments
        .iter()
        .filter(|e| e.spec.starts_with("compute@proc:ps-server-"))
        .collect();
    assert!(!servers.is_empty(), "{}", wr.render());
    for e in servers {
        assert_eq!(e.delta_ns, 0, "{} saves time:\n{}", e.name, wr.render());
    }
}
