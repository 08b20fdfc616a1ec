//! `ps2-run` — run any PS2 workload from the command line: LR, DeepWalk,
//! GBDT, LDA, SVM, L-BFGS and FM on any backend, a consistency-mode run
//! (`--mode`), or the serving scenario (`serve`, implied by a leading
//! `--preset serve-*`), printing the loss curve and the cluster's virtual
//! time, and writing whichever `--*-json` sidecars are asked for. Every flag
//! but the six outputs is parsed by [`RunSpec::from_args`], so a flag the
//! chosen run does not read is an error, not a silent no-op.
//! `ps2-run --help` prints every workload and flag.
//!
//! Example:
//! ```text
//! ps2-run lr --backend petuum --dim 500000 --iters 50 --csv /tmp/petuum.csv
//! ```

use std::process::exit;

use ps2::ml::TrainingTrace;
use ps2::simnet::{
    export_trace_full, hostprof, render_slo, run_battery, slo_json, standard_battery, Alert,
    CausalDag, OpTails,
};
use ps2::slo::{preset_slos, SLO_WINDOW};
use ps2::{RunReport, RunSpec, SimBuilder};

/// The output flags: where a run's results go. Every other flag describes
/// the run itself and is [`RunSpec`]'s to parse.
const SINKS: &str = "csv metrics-json trace-json slo-json whatif-json host-prof-json";

fn die(msg: &str) -> ! {
    eprintln!("ps2-run: {msg}\nrun with no arguments for usage");
    exit(2)
}

const USAGE: &str = "\
usage: ps2-run <lr|deepwalk|gbdt|lda|svm|lbfgs|fm|serve> [flags]

Every flag but the outputs is the run's spec (ps2::RunSpec); a golden row keyed
by one (tests/golden_runs.txt) reruns as a ps2-run command line.

common flags:
  --workers N            executors (default 20; not serve)
  --servers N            PS-servers (default 20; serve: the preset's)
  --seed N               simulation seed (default 42)
  --iters N              training iterations (default 30; not gbdt or serve)
  --backend NAME         lr:       ps2|ps|spark|petuum|distml|mllib-star
                         lda:      ps2|petuum|glint|spark
                         gbdt:     ps2|xgboost
                         deepwalk: ps2|ps                (default ps2)
  --preset NAME          named dataset preset (overrides the shape flags below):
                           lr/svm/lbfgs/fm: kddb|kdd12|ctr|gender
                           lda:             pubmed|app
                           deepwalk:        graph1|graph2
                           serve:           serve-kddb|serve-kdd12
                                            (with no workload word, the run
                                            is serve)
  --lr X                 learning rate for lr/svm/fm; the default is the
                         library config's: lr 0.618, svm 0.1, fm 0.05,
                         --mode runs 2.0
  --mode NAME            consistency mode for lr/svm: bsp|ssp:<s>|async;
                         runs the Spark-free mode-gated worker loop instead
                         of the dataflow backend
  --straggler-ms N       mode-path straggler slowdown for worker 0 (default 0)

outputs:
  --csv PATH             write the (seconds, loss) trace as CSV
  --metrics-json PATH    write the flight-recorder run report as JSON and
                         print the per-op breakdown table
  --trace-json PATH      record the full event trace, print the critical-path
                         breakdown, and write a Perfetto/Chrome trace-event
                         JSON (open in ui.perfetto.dev or feed to ps2-trace);
                         SLO burn alerts appear as global instant events
  --slo-json PATH        trace every PS request end to end, judge the
                         preset's SLOs with burn-rate alerting as each 1 ms
                         window of virtual time closes, and write the
                         ps2-slo-v1 sidecar (see ps2-trace slo); the traced
                         run is bit-identical to an untraced one
  --whatif-json PATH     replay the run's causal DAG under counterfactual
                         speedups, print experiments ranked by estimated
                         makespan/p999 improvement (with alert payoffs), and
                         write the ps2-whatif-v1 sidecar
  --host-prof-json PATH  profile the host cost (wall-clock + allocations) of
                         running the simulator itself and write the sidecar
                         (never changes the simulated run; see ps2-trace host)

dataset shape flags (lr/svm/lbfgs/fm):
  --rows N --dim N --nnz N   (defaults 20000 / 100000 / 20)
lr flags:
  --optimizer NAME       sgd|adam|adagrad|rmsprop|ftrl (default sgd)
  --fraction X           mini-batch fraction (default 0.01)
lbfgs flags:
  --fraction X           gradient batch fraction (default 1, full batch)
deepwalk flags:
  --vertices N --walks N --embedding-dim N   (defaults 2000 / 4000 / 100)
gbdt flags:
  --rows N --dim N --nnz N       (defaults 10000 / 500 / 20)
  --trees N --depth N --bins N   (defaults 10 / 5 / 50)
lda flags:
  --docs N --vocab N --topics N  (defaults 4000 / 8000 / 50)
fm flags:
  --factors N            latent factors (default 8)
serving flags (serve; defaults come from the preset):
  --agents N             aggregate client agents (each models thousands of users)
  --users-per-agent N    simulated users per agent
  --duration-ms N        open-loop generation window, virtual ms

ps2-run --help | -h      print this usage text

A flag the chosen run does not read exits 2.";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        exit(2);
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        exit(0);
    }
    let mut sinks: [Option<String>; 6] = Default::default();
    let mut run_args = Vec::new();
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match SINKS
            .split(' ')
            .position(|s| arg.strip_prefix("--") == Some(s))
        {
            Some(i) => {
                let path = args.next();
                sinks[i] = Some(path.unwrap_or_else(|| die(&format!("flag {arg} needs a value"))));
            }
            None => run_args.push(arg),
        }
    }
    let spec = RunSpec::from_args(&run_args).unwrap_or_else(|e| die(&e));
    let [csv_path, metrics_path, trace_path, slo_path, whatif_path, host_path] = sinks;

    // Host profiling must be armed before the sim is built so the run's
    // reset/collect cycle sees it. The flag implies full profiling (timers +
    // allocator).
    if host_path.is_some() {
        hostprof::set_enabled(true);
        hostprof::set_alloc_counting(true);
    }
    // Tracing is off unless a trace is actually wanted: recording is
    // timing-neutral but costs memory proportional to event count. What-if
    // replay needs the recorded event DAG, so --whatif-json implies it.
    let want_trace = trace_path.is_some() || whatif_path.is_some();
    let want_slo = slo_path.is_some();
    // Request tracing rides along with any sink that can show it; like
    // event tracing it is non-yielding, so enabling it never moves a clock.
    // What-if tail estimates come from the reqtrace stage decomposition.
    let builder = SimBuilder::new()
        .trace(want_trace)
        .reqtrace(want_trace || want_slo);
    // SLO judging is likewise non-yielding, so the run itself is unaffected
    // either way. Its alerts land in the SLO report and sidecar, and in the
    // exported trace as global instants.
    let objectives = if want_slo {
        preset_slos(spec.preset())
    } else {
        Vec::new()
    };
    let builder = builder.timeseries(SLO_WINDOW).slo(objectives.clone());
    let out = spec.run(builder);
    let (trace, mut report) = (out.trace, out.report);
    if let Some(s) = out.serve {
        let us = |ns: u64| format!("{}.{:03}us", ns / 1_000, ns % 1_000);
        let (label, endpoints, issued) = (&trace.label, s.endpoints, s.issued);
        println!(
            "{label}: {endpoints} endpoints — {} pulls completed of {issued} issued",
            s.completed
        );
        println!("pull latency p99 {}  p999 {}", us(s.p99_ns), us(s.p999_ns));
    }

    // Retained for every traced run: the critical path is walked from it,
    // and the exported trace file carries it as the "ps2"."dag" section
    // every ps2-trace analysis of the file is recomputed from.
    let whatif_dag = want_trace.then(|| {
        CausalDag::from_report(&report)
            .unwrap_or_else(|e| die(&format!("causal DAG retention failed: {e}")))
    });

    let alerts = std::mem::take(&mut report.alerts);
    // The machine-readable SLO sidecar: per-op request summaries with
    // exemplars, the objectives, and any burn alerts. Also embedded in the
    // event trace so one file carries everything.
    let slo_sidecar = report
        .reqs
        .as_ref()
        .map(|r| slo_json(r, &objectives, &alerts));

    print_trace(&trace);
    // Wall time in fixed human units (ms, one decimal) — `{:?}` on a
    // Duration flips between ns/µs/ms/s with the magnitude, which makes
    // console output diff-unstable across hosts.
    println!(
        "\ncluster time {}   wall {:.1} ms   {} msgs   {:.1} MB",
        report.virtual_time,
        report.wall_time.as_secs_f64() * 1e3,
        report.total_msgs,
        report.total_bytes as f64 / 1e6
    );
    if let Some(path) = &csv_path {
        let mut csv = String::from("iteration,seconds,loss\n");
        for (i, (s, l)) in trace.points.iter().enumerate() {
            csv += &format!("{i},{s:.6},{l:.6}\n");
        }
        write(path, csv);
        println!("trace written to {path}");
    }
    if let Some(path) = &metrics_path {
        let run = RunReport::from_sim(&report);
        println!("\n{}", run.render_table());
        write(path, run.to_json());
        println!("metrics written to {path}");
    }
    if let Some(path) = &trace_path {
        let dag = whatif_dag.as_ref().expect("tracing was enabled");
        let analysis = dag
            .critical_path()
            .unwrap_or_else(|e| die(&format!("critical-path analysis failed: {e}")));
        println!("\n{}", analysis.render());
        let slo = slo_sidecar.as_deref().map(str::trim_end);
        write(
            path,
            export_trace_full(&report, Some(&analysis), &alerts, slo, Some(dag)),
        );
        println!("trace written to {path}  (open in ui.perfetto.dev, or: ps2-trace report {path})");
    }
    if let Some(path) = &slo_path {
        let reqs = report.reqs.as_ref().expect("request tracing was enabled");
        println!("\n{}", render_slo(reqs, &objectives, &alerts));
        write(path, slo_sidecar.as_deref().expect("reqtrace was enabled"));
        println!("slo report written to {path}  (inspect with: ps2-trace slo {path})");
    }
    if let Some(path) = &whatif_path {
        let dag = whatif_dag.as_ref().expect("tracing was enabled");
        let tails = report
            .reqs
            .as_ref()
            .map(OpTails::from_reqs)
            .unwrap_or_default();
        let wr = run_battery(dag, &tails, &standard_battery(dag))
            .unwrap_or_else(|e| die(&format!("what-if replay failed: {e}")));
        println!("\n{}", wr.render());
        // An SLO burn has no single counterfactual; each payoff line cites
        // the battery's best measured replay.
        for a in &alerts {
            if let Some(e) = wr.experiments.first() {
                println!(
                    "whatif: alert {} ({}) -> {} would save {:.6}s ({}.{}%)",
                    Alert::LABEL,
                    a.subject,
                    e.name,
                    e.delta_ns as f64 / 1e9,
                    e.improvement_milli / 10,
                    (e.improvement_milli % 10).abs(),
                );
            }
        }
        write(path, wr.to_json());
        println!(
            "what-if report written to {path}  (replay offline with: ps2-trace whatif <trace>)"
        );
    }
    // Last, after every export above, so post-run work done on this thread
    // (perfetto rendering, metrics serialization) is folded into the profile
    // rather than lost between run-end and process exit.
    if let Some(mut profile) = report.host.take() {
        hostprof::flush_thread();
        profile.merge(&hostprof::take_profile(0));
        println!("\n{}", profile.render());
        if let Some(path) = host_path {
            write(&path, profile.to_json(&spec.to_string()));
            println!("host profile written to {path}  (inspect with: ps2-trace host {path})");
        }
    }
}

fn write(path: &str, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

fn print_trace(trace: &TrainingTrace) {
    println!("{} — {} iterations", trace.label, trace.points.len());
    let stride = (trace.points.len() / 15).max(1);
    for (i, (secs, loss)) in trace.points.iter().enumerate() {
        if i % stride == 0 || i + 1 == trace.points.len() {
            println!("  iter {i:>4}: loss {loss:.5}   {secs:>9.3}s");
        }
    }
}
