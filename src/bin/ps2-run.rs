//! `ps2-run` — run any PS2 workload from the command line: LR, DeepWalk,
//! GBDT, LDA, SVM, L-BFGS and FM on any backend, a consistency-mode run
//! (`--mode`), or the serving scenario (`serve`, implied by a
//! `--preset serve-*`), printing the loss curve and the cluster's virtual
//! time, and writing whichever `--*-json` sidecars are asked for. A flag the
//! chosen run does not read is an error, not a silent no-op.
//! `ps2-run --help` prints every workload and flag.
//!
//! Example:
//! ```text
//! ps2-run lr --backend petuum --dim 500000 --iters 50 --csv /tmp/petuum.csv
//! ```

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::exit;

use ps2::ml::deepwalk::{train_deepwalk, DeepWalkBackend, DeepWalkConfig};
use ps2::ml::fm::{train_fm, FmConfig};
use ps2::ml::gbdt::{train_gbdt, GbdtBackend, GbdtConfig};
use ps2::ml::hyper::GbdtHyper;
use ps2::ml::lbfgs::{train_lbfgs, LbfgsConfig};
use ps2::ml::lda::{train_lda, LdaBackend, LdaConfig};
use ps2::ml::lr::{train_lr, train_lr_mllib_star, LrBackend, LrConfig};
use ps2::ml::modes::{run_mode_with, ModeAlgo, ModeConfig};
use ps2::ml::optim::Optimizer;
use ps2::ml::serve::{run_serve, serve_spec, SERVE_PRESETS};
use ps2::ml::svm::{train_svm, SvmConfig};
use ps2::ml::TrainingTrace;
use ps2::ps::ConsistencyMode;
use ps2::simnet::{
    evaluate_slo, export_trace_full, hostprof, render_slo, run_battery, slo_json, standard_battery,
    Alert, CausalDag, OpTails, SimTime,
};
use ps2::slo::{preset_slos, SCRAPE_WINDOW};
use ps2::{run_ps2_with, ClusterSpec, Ps2Context, RunReport, SimBuilder, SimCtx, SimReport};
use ps2_data::{presets, CorpusGen, GraphGen, RandomWalks, SparseDatasetGen};

/// The parsed `--name value` pairs, each with whether the run read it.
struct Args {
    flags: BTreeMap<String, (String, Cell<bool>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut flags = BTreeMap::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = argv.get(i + 1).cloned().unwrap_or_else(|| {
                    die(&format!("flag --{name} needs a value"));
                });
                flags.insert(name.to_string(), (value, Cell::new(false)));
                i += 2;
            } else {
                die(&format!("unexpected argument '{a}'"));
            }
        }
        Args { flags }
    }

    /// The flag's value, marking it read.
    fn value(&self, name: &str) -> Option<&String> {
        let (value, read) = self.flags.get(name)?;
        read.set(true);
        Some(value)
    }

    fn path(&self, name: &str) -> Option<String> {
        self.value(name).cloned()
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for --{name}: '{v}'"))),
        }
    }

    fn get_str(&self, name: &str, default: &str) -> String {
        self.value(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Exit 2 naming every flag the chosen run never read: a misspelt or
    /// inapplicable flag must not be silently ignored.
    fn reject_unread(&self) {
        let unread: Vec<String> = self
            .flags
            .iter()
            .filter(|(_, (_, read))| !read.get())
            .map(|(name, _)| format!("--{name}"))
            .collect();
        if !unread.is_empty() {
            die(&format!("this run does not read {}", unread.join(", ")));
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("ps2-run: {msg}\nrun with no arguments for usage");
    exit(2)
}

const USAGE: &str = "\
usage: ps2-run <lr|deepwalk|gbdt|lda|svm|lbfgs|fm|serve> [flags]

common flags:
  --workers N            executors (default 20)
  --servers N            PS-servers (default 20)
  --seed N               simulation seed (default 42)
  --iters N              training iterations (default 30)
  --backend NAME         ps2|ps|spark|petuum|distml|xgboost|glint|mllib-star (default ps2)
  --preset NAME          named dataset preset (overrides the shape flags below):
                           lr/svm/lbfgs/fm: kddb|kdd12|ctr|gender
                           lda:             pubmed|app
                           deepwalk:        graph1|graph2
                           serve:           serve-kddb|serve-kdd12
                                            (a serve-* preset implies the serve
                                            workload, so the word is optional)
  --mode NAME            consistency mode for lr/svm: bsp|ssp:<s>|async;
                         runs the Spark-free mode-gated worker loop instead
                         of the dataflow backend
  --mini-batch N         mode-path mini-batch rows per worker (default 64)
  --straggler-ms N       mode-path straggler slowdown for worker 0 (default 0)

outputs:
  --csv PATH             write the (seconds, loss) trace as CSV
  --metrics-json PATH    write the flight-recorder run report as JSON and
                         print the per-op breakdown table
  --trace-json PATH      record the full event trace, print the critical-path
                         breakdown, and write a Perfetto/Chrome trace-event
                         JSON (open in ui.perfetto.dev or feed to ps2-trace);
                         SLO burn alerts appear as global instant events
  --timeseries-json PATH scrape the metrics registry every 1 ms of virtual
                         time and write the windowed series as JSON
  --slo-json PATH        trace every PS request end to end, evaluate the
                         preset's SLOs with burn-rate alerting over 1 ms
                         windows, and write the ps2-slo-v1 sidecar (see
                         ps2-trace slo); the traced run is bit-identical to an
                         untraced one
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
  --lr X                 learning rate (default 1.0)
  --fraction X           mini-batch fraction (default 0.01)
deepwalk flags:
  --vertices N --walks N --embedding-dim N
gbdt flags:
  --trees N --depth N --bins N
lda flags:
  --docs N --vocab N --topics N
fm flags:
  --factors N            latent factors (default 8)
serving flags (serve; defaults come from the preset):
  --agents N             aggregate client agents (each models thousands of users)
  --users-per-agent N    simulated users per agent
  --duration-ms N        open-loop generation window, virtual ms
  --servers N            PS-server fleet size

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
    // `ps2-run --preset serve-kddb …` works without a workload word: when
    // the first token is already a flag, serving is the implied workload
    // (the only one whose preset names are self-identifying).
    let (workload, rest): (String, &[String]) = if argv[0].starts_with("--") {
        ("serve".to_string(), &argv[..])
    } else {
        (argv[0].clone(), &argv[1..])
    };
    let args = Args::parse(rest);

    // Host profiling must be armed before the sim is built so the run's
    // reset/collect cycle sees it. The flag implies full profiling (timers +
    // allocator).
    let host_path = args.path("host-prof-json");
    if host_path.is_some() {
        hostprof::set_enabled(true);
        hostprof::set_alloc_counting(true);
    }

    let spec = ClusterSpec {
        workers: args.get("workers", 20usize),
        servers: args.get("servers", 20usize),
    };
    let seed: u64 = args.get("seed", 42u64);
    let iters: usize = args.get("iters", 30usize);
    // Only the workloads with more than one backend read the flag.
    let backend = || args.get_str("backend", "ps2");
    let csv_path = args.path("csv");
    let metrics_path = args.path("metrics-json");
    let trace_path = args.path("trace-json");
    let ts_path = args.path("timeseries-json");
    let slo_path = args.path("slo-json");
    let whatif_path = args.path("whatif-json");
    // Tracing is off unless a trace is actually wanted: recording is
    // timing-neutral but costs memory proportional to event count. What-if
    // replay needs the recorded event DAG, so --whatif-json implies it.
    let want_trace = trace_path.is_some() || whatif_path.is_some();
    let want_slo = slo_path.is_some();
    // Request tracing rides along with any sink that can show it; like
    // event tracing it is non-yielding, so enabling it never moves a clock.
    // What-if tail estimates come from the reqtrace stage decomposition.
    let want_reqtrace = want_trace || want_slo;
    // Time-series scraping is likewise non-yielding, so the run itself is
    // unaffected either way. SLO burn rates are evaluated over its windows.
    let scrape = ts_path.is_some() || want_slo;
    let mk_builder = move || {
        let b = SimBuilder::new()
            .seed(seed)
            .trace(want_trace)
            .reqtrace(want_reqtrace);
        if scrape {
            b.timeseries(SCRAPE_WINDOW)
        } else {
            b
        }
    };

    let preset = args.path("preset");
    let sparse_gen = |parts: usize| match preset.as_deref() {
        None => SparseDatasetGen::new(
            args.get("rows", 20_000u64),
            args.get("dim", 100_000u64),
            args.get("nnz", 20u32),
            parts,
            seed,
        ),
        Some("kddb") => presets::kddb(parts, seed).gen,
        Some("kdd12") => presets::kdd12(parts, seed).gen,
        Some("ctr") => presets::ctr(parts, seed).gen,
        Some("gender") => presets::gender(parts, seed).gen,
        Some(other) => die(&format!(
            "unknown sparse preset '{other}' (want kddb|kdd12|ctr|gender; \
             serving presets: {})",
            SERVE_PRESETS.join("|")
        )),
    };

    let workers = spec.workers;
    // Dispatch reads every flag the chosen run uses and hands back the run
    // itself, so an unread flag is rejected before anything is simulated.
    // The consistency-mode path bypasses the dataflow engine entirely: a
    // Spark-free pull → gradient → push topology gated by the chosen mode
    // (BSP barrier, SSP staleness bound, or free-running async).
    type Run<'a> = Box<dyn FnOnce() -> (TrainingTrace, SimReport) + 'a>;
    type Job = Box<dyn FnOnce(&mut SimCtx, &mut Ps2Context) -> TrainingTrace + Send>;
    let run: Run =
        if workload == "serve" || preset.as_deref().is_some_and(|p| p.starts_with("serve-")) {
            // The serving scenario: geometry comes from the serve preset, with
            // load-shape flags as overrides. The training-trace slot carries
            // only a label — serving has no loss curve.
            let pname = preset.clone().unwrap_or_else(|| {
                die(&format!(
                    "serving needs --preset ({})",
                    SERVE_PRESETS.join("|")
                ))
            });
            let mut sspec = serve_spec(&pname).unwrap_or_else(|| {
                die(&format!(
                    "unknown serve preset '{pname}' (want {})",
                    SERVE_PRESETS.join("|")
                ))
            });
            sspec.servers = args.get("servers", sspec.servers);
            sspec.agents = args.get("agents", sspec.agents);
            sspec.users_per_agent = args.get("users-per-agent", sspec.users_per_agent);
            if args.value("duration-ms").is_some() {
                sspec.duration = SimTime::from_millis(args.get("duration-ms", 0u64));
            }
            Box::new(move || {
                let (summary, report) = run_serve(mk_builder(), &sspec);
                let us = |ns: u64| format!("{}.{:03}us", ns / 1_000, ns % 1_000);
                println!(
                    "serving {}: {} endpoints on {} servers — {} pulls completed of {} issued\n\
                 pull latency p99 {}  p999 {}",
                    sspec.name,
                    summary.endpoints,
                    sspec.servers,
                    summary.completed,
                    summary.issued,
                    us(summary.p99_ns),
                    us(summary.p999_ns),
                );
                (
                    TrainingTrace::new(format!("{} serving", sspec.name)),
                    report,
                )
            })
        } else if let Some(spelling) = args.path("mode") {
            let mode = ConsistencyMode::parse(&spelling).unwrap_or_else(|e| die(&e));
            let algo = match workload.as_str() {
                "lr" => ModeAlgo::Lr,
                "svm" => ModeAlgo::Svm,
                other => die(&format!("--mode supports lr|svm, not '{other}'")),
            };
            let mut cfg = ModeConfig::new(sparse_gen(workers), spec.workers, spec.servers, mode);
            cfg.iterations = iters as u32;
            cfg.learning_rate = args.get("lr", 1.0f64);
            cfg.mini_batch = args.get("mini-batch", 64usize);
            cfg.straggler_slowdown = SimTime::from_millis(args.get("straggler-ms", 0u64));
            cfg.seed = seed;
            Box::new(move || run_mode_with(mk_builder(), &cfg, algo))
        } else {
            let job: Job = match workload.as_str() {
                "lr" => {
                    let optimizer = match args.get_str("optimizer", "sgd").as_str() {
                        "sgd" => Optimizer::Sgd,
                        "adam" => Optimizer::Adam,
                        "adagrad" => Optimizer::Adagrad,
                        "rmsprop" => Optimizer::RmsProp,
                        "ftrl" => Optimizer::Ftrl,
                        other => die(&format!("unknown optimizer '{other}'")),
                    };
                    let lr_backend = match backend().as_str() {
                        "ps2" => Some(LrBackend::Ps2Dcv),
                        "ps" => Some(LrBackend::PsPullPush),
                        "spark" => Some(LrBackend::SparkDriver),
                        "petuum" => Some(LrBackend::PetuumStyle),
                        "distml" => Some(LrBackend::DistmlStyle),
                        "mllib-star" => None,
                        other => die(&format!("unknown LR backend '{other}'")),
                    };
                    let gen = sparse_gen(workers);
                    let lrate: f64 = args.get("lr", 1.0f64);
                    let fraction: f64 = args.get("fraction", 0.01f64);
                    Box::new(move |ctx, ps2| {
                        let mut cfg = LrConfig::new(gen, optimizer, iters);
                        cfg.hyper.learning_rate = lrate;
                        cfg.hyper.mini_batch_fraction = fraction;
                        match lr_backend {
                            Some(b) => train_lr(ctx, ps2, &cfg, b),
                            None => train_lr_mllib_star(ctx, ps2, &cfg),
                        }
                    })
                }
                "deepwalk" => {
                    let dw_backend = match backend().as_str() {
                        "ps2" => DeepWalkBackend::Ps2Dcv,
                        "ps" => DeepWalkBackend::PsPullPush,
                        other => die(&format!("unknown DeepWalk backend '{other}'")),
                    };
                    let (graph_gen, walks_n) = match preset.as_deref() {
                        None => (
                            GraphGen {
                                vertices: args.get("vertices", 2_000u32),
                                edges_per_vertex: 4,
                                seed,
                            },
                            args.get("walks", 4_000usize),
                        ),
                        Some("graph1") => {
                            let p = presets::graph1(seed);
                            (p.gen, p.num_walks)
                        }
                        Some("graph2") => {
                            let p = presets::graph2(seed);
                            (p.gen, p.num_walks)
                        }
                        Some(other) => die(&format!(
                            "unknown graph preset '{other}' (want graph1|graph2)"
                        )),
                    };
                    let dim: u64 = args.get("embedding-dim", 100u64);
                    Box::new(move |ctx, ps2| {
                        let g = graph_gen.generate();
                        let walks = RandomWalks::sample(&g, walks_n, presets::WALK_LEN, seed ^ 1);
                        let cfg = DeepWalkConfig {
                            vertices: graph_gen.vertices,
                            embedding_dim: dim,
                            batch_per_worker: 128,
                            iterations: iters,
                            seed,
                        };
                        train_deepwalk(ctx, ps2, &cfg, &walks, dw_backend)
                    })
                }
                "gbdt" => {
                    let gb_backend = match backend().as_str() {
                        "ps2" => GbdtBackend::Ps2Dcv,
                        "xgboost" => GbdtBackend::XgboostStyle,
                        other => die(&format!("unknown GBDT backend '{other}'")),
                    };
                    let gen = SparseDatasetGen::new(
                        args.get("rows", 10_000u64),
                        args.get("dim", 500u64),
                        args.get("nnz", 20u32),
                        workers,
                        seed,
                    )
                    .continuous();
                    let hyper = GbdtHyper {
                        num_trees: args.get("trees", 10usize),
                        max_depth: args.get("depth", 5usize),
                        histogram_bins: args.get("bins", 50usize),
                    };
                    Box::new(move |ctx, ps2| {
                        let cfg = GbdtConfig {
                            dataset: gen,
                            hyper,
                        };
                        train_gbdt(ctx, ps2, &cfg, gb_backend).0
                    })
                }
                "lda" => {
                    let lda_backend = match backend().as_str() {
                        "ps2" => LdaBackend::Ps2Dcv,
                        "petuum" => LdaBackend::PetuumStyle,
                        "glint" => LdaBackend::GlintStyle,
                        "spark" => LdaBackend::SparkDriver,
                        other => die(&format!("unknown LDA backend '{other}'")),
                    };
                    let corpus = match preset.as_deref() {
                        None => CorpusGen::new(
                            args.get("docs", 4_000u64),
                            args.get("vocab", 8_000u32),
                            16,
                            60,
                            workers,
                            seed,
                        ),
                        Some("pubmed") => presets::pubmed(workers, seed).gen,
                        Some("app") => presets::app(workers, seed).gen,
                        Some(other) => die(&format!(
                            "unknown corpus preset '{other}' (want pubmed|app)"
                        )),
                    };
                    let topics: u32 = args.get("topics", 50u32);
                    Box::new(move |ctx, ps2| {
                        let cfg = LdaConfig {
                            corpus,
                            topics,
                            iterations: iters,
                        };
                        train_lda(ctx, ps2, &cfg, lda_backend)
                    })
                }
                "svm" => {
                    let gen = sparse_gen(workers);
                    Box::new(move |ctx, ps2| {
                        let mut cfg = SvmConfig::new(gen, iters);
                        cfg.learning_rate = 1.0;
                        train_svm(ctx, ps2, &cfg)
                    })
                }
                "lbfgs" => {
                    let gen = sparse_gen(workers);
                    Box::new(move |ctx, ps2| train_lbfgs(ctx, ps2, &LbfgsConfig::new(gen, iters)))
                }
                "fm" => {
                    let gen = sparse_gen(workers);
                    let factors: u32 = args.get("factors", 8u32);
                    Box::new(move |ctx, ps2| {
                        let mut cfg = FmConfig::new(gen, factors, iters);
                        cfg.learning_rate = 1.0;
                        train_fm(ctx, ps2, &cfg)
                    })
                }
                other => die(&format!("unknown workload '{other}'")),
            };
            Box::new(move || run_ps2_with(mk_builder(), spec, job))
        };
    args.reject_unread();
    let (trace, mut report) = run();

    // Retained for every traced run: the critical path is walked from it,
    // and the exported trace file carries it as the "ps2"."dag" section
    // every ps2-trace analysis of the file is recomputed from.
    let whatif_dag = if want_trace {
        Some(
            CausalDag::from_report(&report)
                .unwrap_or_else(|e| die(&format!("causal DAG retention failed: {e}"))),
        )
    } else {
        None
    };

    // SLO burns are a pure pass over the windowed series; they land in the
    // SLO report and sidecar, and in the exported trace as global instants.
    let objectives = if want_slo {
        preset_slos(preset.as_deref())
    } else {
        Vec::new()
    };
    let alerts = evaluate_slo(&report, &objectives);
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
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
        writeln!(f, "iteration,seconds,loss")
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        for (i, (s, l)) in trace.points.iter().enumerate() {
            writeln!(f, "{i},{s:.6},{l:.6}")
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        }
        println!("trace written to {path}");
    }
    if let Some(path) = &metrics_path {
        let run = RunReport::from_sim(&report);
        println!("\n{}", run.render_table());
        std::fs::write(path, run.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("metrics written to {path}");
    }
    if let Some(path) = &trace_path {
        let dag = whatif_dag.as_ref().expect("tracing was enabled");
        let analysis = dag
            .critical_path()
            .unwrap_or_else(|e| die(&format!("critical-path analysis failed: {e}")));
        println!("\n{}", analysis.render());
        let slo = slo_sidecar.as_deref().map(str::trim_end);
        std::fs::write(
            path,
            export_trace_full(&report, Some(&analysis), &alerts, slo, Some(dag)),
        )
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("trace written to {path}  (open in ui.perfetto.dev, or: ps2-trace report {path})");
    }
    if let Some(path) = &ts_path {
        let ts = report.timeseries.as_ref().expect("timeseries was enabled");
        std::fs::write(path, ts.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!(
            "\ntime series written to {path}  ({} windows of {}, {} evicted)",
            ts.windows.len(),
            SimTime(ts.window_ns),
            ts.dropped_windows
        );
    }
    if let Some(path) = &slo_path {
        let reqs = report.reqs.as_ref().expect("request tracing was enabled");
        println!("\n{}", render_slo(reqs, &objectives, &alerts));
        std::fs::write(path, slo_sidecar.as_deref().expect("reqtrace was enabled"))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
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
        std::fs::write(path, wr.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
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
            std::fs::write(&path, profile.to_json(&workload))
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            println!("host profile written to {path}  (inspect with: ps2-trace host {path})");
        }
    }
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
