//! CLI round trip: `ps2-run` writes every sidecar, the files hold what their
//! schemas promise, and `ps2-trace` reads each of them back. The only test
//! that drives the two binaries; everything it checks about a file goes
//! through `parse_json` and the typed field accessors, like any other reader.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use ps2::simnet::json::{parse_json, JsonValue};
use ps2::{RunSpec, SimBuilder};

mod common;
use common::virtual_json;

const RUN: &str = env!("CARGO_BIN_EXE_ps2-run");
const TRACE: &str = env!("CARGO_BIN_EXE_ps2-trace");

fn tmp(name: &str) -> String {
    format!("{}/cli_sidecars.{name}", env!("CARGO_TARGET_TMPDIR"))
}

/// Run `bin` on the space-separated `args`; a word `@name` is this test's
/// scratch file `name`.
fn spawn(bin: &str, args: &str) -> Output {
    let argv = args
        .split(' ')
        .map(|a| a.strip_prefix('@').map_or(a.to_string(), tmp));
    Command::new(bin).args(argv).output().expect("spawn")
}

/// [`spawn`], requiring exit 0; hands back stdout.
fn run(bin: &str, args: &str) -> String {
    let out = spawn(bin, args);
    assert!(
        out.status.success(),
        "{bin} {args} exited {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn load(name: &str) -> JsonValue {
    let text = std::fs::read_to_string(tmp(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    parse_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_sidecar_round_trips_through_the_cli() {
    let live = run(
        RUN,
        "lr --preset kddb --iters 3 --workers 4 --servers 4 \
         --metrics-json @metrics.json --trace-json @trace.json --slo-json @slo.json \
         --whatif-json @whatif.json",
    );

    // The run report: every top-level key, a non-empty per-op breakdown.
    let m = load("metrics.json");
    for key in [
        "virtual_time_ns",
        "wall_ms",
        "total_msgs",
        "total_bytes",
        "dropped_msgs",
        "compute_ns",
        "comm_ns",
        "hists",
    ] {
        m.field(key).unwrap();
    }
    let ops = m.arr_field("ops").unwrap();
    assert!(!ops.is_empty(), "per-op breakdown must not be empty");
    for row in ops {
        row.str_field("op").unwrap();
        for key in [
            "count", "bytes", "rows", "sum_ns", "p50_ns", "p99_ns", "p999_ns", "share_ns",
        ] {
            row.u64_field(key).unwrap();
        }
    }
    let counters = m.counts_field("counters").unwrap();
    assert!(counters.iter().any(|(k, _)| k.starts_with("ps.client.op.")));

    // The trace: well-formed Chrome events.
    let t = load("trace.json");
    let mut phases = BTreeSet::new();
    for ev in t.arr_field("traceEvents").unwrap() {
        let ph = ev.str_field("ph").unwrap();
        ev.u64_field("pid").unwrap();
        // A global-scope instant (a watchdog alert) belongs to no thread.
        if ev.get("s").and_then(|s| s.as_str()) != Some("g") {
            ev.u64_field("tid").unwrap();
        }
        assert!(ph == "M" || ev.get("ts").is_some(), "no ts on {ev:?}");
        phases.insert(ph);
    }
    assert!(phases.is_superset(&["M", "X", "s", "f", "i"].into()));
    // The "ps2" section holds recordings only; every analysis is recomputed
    // from the DAG.
    let JsonValue::Obj(ps2) = t.field("ps2").unwrap() else {
        panic!("\"ps2\" is not an object");
    };
    let keys: Vec<&str> = ps2.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["slo", "dag"]);
    let dag = &ps2[1].1;
    let makespan_ns = dag.u64_field("makespan_ns").unwrap();

    // The SLO sidecar: tails and exemplars whose stages partition the total.
    let s = load("slo.json");
    assert_eq!(s.str_field("schema"), Ok("ps2-slo-v1"));
    let slo_ops = s.arr_field("ops").unwrap();
    for name in ["pull", "push"] {
        let op = slo_ops.iter().find(|o| o.str_field("op") == Ok(name));
        let op = op.unwrap_or_else(|| panic!("no {name} row"));
        assert!(op.field("hist").unwrap().u64_field("p999_ns").unwrap() > 0);
        let exemplars = op.arr_field("exemplars").unwrap();
        assert!(!exemplars.is_empty(), "{name}: no exemplars");
        for e in exemplars {
            let stages = e.counts_field("stages").unwrap();
            let total: u64 = stages.iter().map(|(_, ns)| ns).sum();
            assert_eq!(total, e.u64_field("total_ns").unwrap(), "{name}: {e:?}");
        }
    }
    assert!(!s.arr_field("objectives").unwrap().is_empty());

    // The what-if sidecar: ranked, and each delta is baseline − replay.
    let w = load("whatif.json");
    assert_eq!(w.str_field("schema"), Ok("ps2-whatif-v1"));
    let baseline = w.u64_field("baseline_makespan_ns").unwrap();
    assert_eq!(baseline, makespan_ns);
    let experiments = w.arr_field("experiments").unwrap();
    assert!(experiments.len() >= 5, "battery ranks >= 5 experiments");
    let deltas: Vec<i64> = experiments
        .iter()
        .map(|e| e.i64_field("delta_ns").unwrap())
        .collect();
    assert!(deltas.windows(2).all(|d| d[0] >= d[1]), "{deltas:?}");
    for (e, delta) in experiments.iter().zip(&deltas) {
        let replayed = e.u64_field("makespan_ns").unwrap() as i64;
        assert_eq!(replayed + delta, baseline as i64, "{e:?}");
    }

    // ps2-trace reads all of it back, and its reports are the ones the live
    // run printed, byte for byte.
    let report = run(TRACE, "report @trace.json");
    assert!(report.starts_with("critical path"), "{report}");
    assert!(live.contains(&report), "{report}\nnot in\n{live}");
    let diff = run(TRACE, "diff @trace.json @trace.json");
    assert!(diff.contains("delta +0.000000s"), "{diff}");
    let slo_report = run(TRACE, "slo @slo.json");
    assert!(slo_report.contains("slowest pull requests"), "{slo_report}");
    assert!(live.contains(&slo_report), "{slo_report}\nnot in\n{live}");
    assert_eq!(run(TRACE, "slo @trace.json"), slo_report);
    let slo_diff = run(TRACE, "slo diff @slo.json @slo.json");
    assert!(slo_diff.contains("delta +0 ns"), "{slo_diff}");
    // Both stay: serve-kddb online 3.0 s; offline a 2.1 s run, 217 MB trace, 8.4 s replay.
    run(TRACE, "whatif @trace.json --json @whatif-offline.json");
    let read = |name| std::fs::read(tmp(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        read("whatif.json") == read("whatif-offline.json"),
        "what-if files differ"
    );
}

#[test]
fn both_binaries_print_usage_on_help() {
    for bin in [RUN, TRACE] {
        for flag in ["--help", "-h"] {
            let usage = run(bin, flag);
            assert!(usage.starts_with("usage: "), "{bin} {flag}: {usage}");
        }
    }
    // A retired subcommand is a usage error.
    let out = spawn(TRACE, "host @host.json");
    assert!(
        out.status.code() == Some(2) && out.stderr.starts_with(b"usage: "),
        "{out:?}"
    );
}

#[test]
fn flags_the_run_never_reads_exit_2() {
    for flag in [
        "--metric-json @unread.json",
        "--timeseries-json @unread.json",
        "--host-prof-json @unread.json",
        "--window-ms 1",
        "--mini-batch 64",
    ] {
        let args = format!("lr --iters 1 --workers 2 --servers 2 {flag}");
        let out = spawn(RUN, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = flag.split(' ').next().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(name), "{args}: {stderr}");
    }
    assert!(!std::path::Path::new(&tmp("unread.json")).exists());
}

/// `ps2-run` and the golden table run one program: on three golden keys (a
/// dataflow L-BFGS cell, a consistency-mode cell and a serving preset) the
/// CLI's `--metrics-json` minus `wall_ms` is the in-process run's report.
#[test]
fn golden_keys_run_the_same_through_the_cli() {
    let golden = include_str!("golden_runs.txt");
    for spec in [
        "lbfgs --preset kdd12 --workers 4 --servers 4 --iters 4 --seed 1 --fraction 0.25",
        "svm --preset kdd12 --mode async --straggler-ms 20 --workers 4 --servers 3 --iters 6 \
         --seed 2 --lr 1",
        "serve --preset serve-kddb --seed 1",
    ] {
        let spec: RunSpec = spec.parse().unwrap();
        assert!(
            golden.contains(&format!("\n{spec} | ")),
            "{spec}: no golden row"
        );
        run(RUN, &format!("{spec} --metrics-json @golden.json"));
        let cli = std::fs::read_to_string(tmp("golden.json")).unwrap();
        let cli: Vec<&str> = cli.lines().filter(|l| !l.contains("\"wall_ms\"")).collect();
        let in_process = virtual_json(&spec.run(SimBuilder::new()).report);
        assert_eq!(cli.join("\n"), in_process, "{spec}");
    }
}
