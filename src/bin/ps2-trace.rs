//! `ps2-trace` — offline analysis of traces written by
//! `ps2-run --trace-json`.
//!
//! ```text
//! ps2-trace report <FILE>    print the critical-path / category breakdown
//! ps2-trace diff <A> <B>     per-category critical-path deltas (A is the
//!                            baseline; positive deltas mean B is slower)
//! ps2-trace host <FILE>      print a hostprof sidecar (written by
//!                            `ps2-run --host-prof-json`): the run's name,
//!                            wall time and the per-scope cost table
//! ps2-trace slo <FILE>       print the request-tail report from a ps2-slo-v1
//!                            sidecar (`ps2-run --slo-json`) or a trace file
//!                            embedding one: per-op p50/p99/p999/max, the K
//!                            slowest requests with their stage breakdowns,
//!                            the declared objectives, and any burn alerts
//! ps2-trace slo diff <BASE> <CAND>
//!                            compare two SLO sidecars: per-op p999 deltas
//!                            and the burn-alert counts
//! ps2-trace whatif <FILE> [--experiment SPEC] [--json OUT]
//!                            replay the trace's retained causal DAG under
//!                            counterfactual edits. Without --experiment,
//!                            run the standard battery and print experiments
//!                            ranked by estimated makespan/p999 improvement;
//!                            with it, replay just SPEC (grammar:
//!                            CATEGORY[@FILTER]=FACTOR, comma-separated —
//!                            e.g. network=0.5 or compute@proc:server-3=0.8).
//!                            --json writes the ps2-whatif-v1 sidecar.
//! ps2-trace --help | -h      print this usage text
//! ```
//!
//! Trace input is a Chrome trace-event JSON file (loadable in
//! <https://ui.perfetto.dev>) whose `"ps2"` top-level section, which
//! Perfetto ignores, holds the recorded causal DAG (schema `ps2-dag-v1`) and
//! the SLO report (schema `ps2-slo-v1`). `report`, `diff` and `whatif`
//! recompute everything from the DAG; `report` and `slo` print the same
//! renderers `ps2-run` prints, so their output equals the live run's. Host
//! input is the hostprof sidecar ([`HostProfile::to_json`]).

use std::process::exit;

use ps2::simnet::{
    parse_spec, render_slo, render_slo_diff, run_battery, standard_battery, HostProfile,
};
use ps2::tracefile::{read_slo, whatif_input, TraceSummary};

const USAGE: &str = "usage: ps2-trace report <FILE> | \
     ps2-trace diff <A> <B> | \
     ps2-trace host <FILE> | \
     ps2-trace slo <FILE> | \
     ps2-trace slo diff <BASE> <CAND> | \
     ps2-trace whatif <FILE> [--experiment SPEC] [--json OUT] | \
     ps2-trace --help";

fn die(msg: &str) -> ! {
    eprintln!("ps2-trace: {msg}");
    exit(2)
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

/// Read `path` and run it through `parse`, dying with a uniform message on
/// either failure — one loader for every sidecar schema this tool reads.
fn load<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// `whatif <FILE> [--experiment SPEC] [--json OUT]`: rebuild the retained
/// DAG from the trace file and replay counterfactuals. `run_battery`
/// verifies the unmodified-replay fixed point against the recorded makespan
/// before reporting, so a stale or corrupted DAG section fails loudly.
fn whatif_cmd(args: &[String]) -> ! {
    let mut file: Option<&str> = None;
    let mut spec: Option<&str> = None;
    let mut json_out: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--experiment" => {
                spec = Some(
                    it.next()
                        .unwrap_or_else(|| die("--experiment needs a SPEC argument")),
                );
            }
            "--json" => {
                json_out = Some(
                    it.next()
                        .unwrap_or_else(|| die("--json needs an output path")),
                );
            }
            f if f.starts_with("--") => die(&format!("unknown whatif flag {f}")),
            f => {
                if file.replace(f).is_some() {
                    die("whatif takes exactly one trace file");
                }
            }
        }
    }
    let Some(file) = file else {
        die("whatif needs a trace file");
    };
    let (dag, tails) = load(file, whatif_input);
    let specs: Vec<(String, String)> = match spec {
        Some(s) => {
            // Validate eagerly for a spec-shaped error before replaying.
            parse_spec(&dag, s).unwrap_or_else(|e| die(&e));
            vec![("experiment".to_string(), s.to_string())]
        }
        None => standard_battery(&dag),
    };
    let report = run_battery(&dag, &tails, &specs).unwrap_or_else(|e| die(&format!("{file}: {e}")));
    print!("{}", report.render());
    if let Some(out) = json_out {
        std::fs::write(out, report.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
        println!("what-if report written to {out}");
    }
    exit(0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.as_slice() {
        [flag] if flag == "--help" || flag == "-h" => {
            println!("{USAGE}");
            exit(0);
        }
        [cmd, rest @ ..] if cmd == "whatif" => {
            whatif_cmd(rest);
        }
        [cmd, file] if cmd == "host" => {
            let (name, profile) = load(file, HostProfile::from_json);
            print!("{name}: {}", profile.render());
        }
        [cmd, file] if cmd == "slo" && file != "diff" => {
            let (reqs, objectives, alerts) = load(file, read_slo);
            print!("{}", render_slo(&reqs, &objectives, &alerts));
        }
        [cmd, sub, a, b] if cmd == "slo" && sub == "diff" => {
            let (base, _, base_alerts) = load(a, read_slo);
            let (cand, _, cand_alerts) = load(b, read_slo);
            println!("baseline:  {a}\ncandidate: {b}");
            print!(
                "{}",
                render_slo_diff(&base, &base_alerts, &cand, &cand_alerts)
            );
        }
        [cmd, file] if cmd == "report" => {
            print!("{}", load(file, TraceSummary::from_json).analysis.render());
        }
        [cmd, a, b] if cmd == "diff" => {
            let base = load(a, TraceSummary::from_json).analysis;
            print!(
                "{}",
                base.render_diff(&load(b, TraceSummary::from_json).analysis)
            );
        }
        _ => usage(),
    }
}
