//! The determinism gate: `tests/golden_runs.txt` pins a grid of seeded
//! simulations to the last virtual-time byte, one row per run:
//!
//! ```text
//! name seed virtual_ns total_msgs total_bytes <exact columns> digest=<hex>
//! ```
//!
//! `digest` is FNV-1a-64 over the run report's JSON (`wall_ms` line dropped),
//! i.e. every counter, gauge and histogram; mode rows extend it with the bits
//! of every `(time, loss)` point of the convergence curve, and the `alerts`
//! row then with every watchdog alert's fields. A row that differs
//! in `digest` alone means a metric moved while the headline numbers held.
//!
//! Each test rewrites the fresh table under `CARGO_TARGET_TMPDIR`; a change
//! *meant* to move virtual time is blessed by copying that file over the
//! golden one (the failure prints the `cp`) — never by editing rows. One test
//! per group, so libtest overlaps them.

use std::sync::Mutex;

use ps2::data::{presets, CorpusGen, GraphGen, RandomWalks, SparseDatasetGen};
use ps2::dataflow::{deploy_executors, deploy_shuffle_services, SparkContext};
use ps2::ml::deepwalk::{train_deepwalk, DeepWalkBackend, DeepWalkConfig};
use ps2::ml::fm::{train_fm, FmConfig};
use ps2::ml::gbdt::{train_gbdt, GbdtBackend, GbdtConfig};
use ps2::ml::hyper::GbdtHyper;
use ps2::ml::lbfgs::{train_lbfgs, LbfgsConfig};
use ps2::ml::lda::{train_lda, LdaBackend, LdaConfig};
use ps2::ml::lr::{train_lr, LrBackend, LrConfig};
use ps2::ml::modes::{run_mode, run_mode_with, ModeAlgo, ModeConfig};
use ps2::ml::optim::Optimizer;
use ps2::ml::serve::{run_serve, serve_spec};
use ps2::ml::svm::{train_svm, SvmConfig};
use ps2::ps::{deploy_ps, ConsistencyMode, MatrixHandle, PsMaster};
use ps2::simnet::{ProcId, SloObjective, Watchdog};
use ps2::slo::preset_slos;
use ps2::{
    run_ps2_with, ClusterSpec, InitKind, Partitioning, Ps2Context, SimBuilder, SimCtx, SimReport,
    SimTime,
};

mod common;
use common::virtual_json;

const GOLDEN: &str = include_str!("golden_runs.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_runs.txt");
const FRESH_PATH: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/golden_runs.txt");

/// The fresh table: starts as the golden lines, and each group swaps in the
/// rows it just produced (matched on `name seed`), so the file is a complete
/// table whichever subset of the tests ran.
static FRESH: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Hold one group's fresh rows against the golden table.
fn check(rows: Vec<String>) {
    let mut diff = String::new();
    {
        let mut table = FRESH.lock().expect("no group panics holding the table");
        if table.is_empty() {
            *table = GOLDEN.lines().map(str::to_string).collect();
        }
        for row in rows {
            let key_len = row.match_indices(' ').nth(1).expect("name seed ...").0 + 1;
            match table.iter_mut().find(|l| l.starts_with(&row[..key_len])) {
                Some(golden) if *golden == row => {}
                Some(golden) => {
                    diff += &format!("  golden {golden}\n  fresh  {row}\n");
                    *golden = row;
                }
                None => {
                    diff += &format!("  golden (no such row)\n  fresh  {row}\n");
                    table.push(row);
                }
            }
        }
        std::fs::write(FRESH_PATH, table.join("\n") + "\n").expect("write the fresh table");
    }
    assert!(
        diff.is_empty(),
        "virtual-time results moved against tests/golden_runs.txt:\n{diff}\
         Only `digest` differs? A counter, gauge or histogram changed: diff \
         `ps2-run … --metrics-json` output across the two commits.\n\
         If the change is intended, run the whole of `cargo test --test golden_runs` and bless:\n  \
         cp {FRESH_PATH} {GOLDEN_PATH}\n"
    );
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Render one row. `curve` is empty except on mode rows.
fn row(name: &str, seed: u64, report: &SimReport, exact: &str, curve: &[(f64, f64)]) -> String {
    row_with(name, seed, report, exact, curve, &[])
}

/// [`row`] with `tail` folded into the digest last (the `alerts` row's
/// alert list).
fn row_with(
    name: &str,
    seed: u64,
    report: &SimReport,
    exact: &str,
    curve: &[(f64, f64)],
    tail: &[u8],
) -> String {
    let mut digest = fnv1a(0xcbf2_9ce4_8422_2325, virtual_json(report).as_bytes());
    for &(secs, loss) in curve {
        digest = fnv1a(digest, &secs.to_bits().to_le_bytes());
        digest = fnv1a(digest, &loss.to_bits().to_le_bytes());
    }
    digest = fnv1a(digest, tail);
    format!(
        "{name} {seed} {} {} {} {exact} digest={digest:016x}",
        report.virtual_time.as_nanos(),
        report.total_msgs,
        report.total_bytes
    )
}

fn cluster() -> ClusterSpec {
    ClusterSpec {
        workers: 4,
        servers: 4,
    }
}

/// A sparse preset split over the 4 workers every grid uses.
fn sparse(preset: &str, seed: u64) -> SparseDatasetGen {
    match preset {
        "kddb" => presets::kddb(4, seed).gen,
        "kdd12" => presets::kdd12(4, seed).gen,
        other => panic!("no golden preset '{other}'"),
    }
}

/// Makespan-shaped training runs through the dataflow engine: 4 workers ×
/// 4 servers × 4 iterations, seeds 1–3.
#[test]
fn training_grid() {
    let mut rows = Vec::new();
    for name in ["kddb-lr", "kddb-svm", "kdd12-lr", "kdd12-lbfgs"] {
        let (preset, algo) = name.split_once('-').expect("preset-algorithm");
        for seed in 1..=3 {
            let gen = sparse(preset, seed);
            let builder = SimBuilder::new().seed(seed);
            let (_, report) = match algo {
                "lr" => run_ps2_with(builder, cluster(), move |ctx, ps2| {
                    let cfg = LrConfig::new(gen, Optimizer::Sgd, 4);
                    train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv);
                }),
                "svm" => run_ps2_with(builder, cluster(), move |ctx, ps2| {
                    train_svm(ctx, ps2, &SvmConfig::new(gen, 4));
                }),
                _ => run_ps2_with(builder, cluster(), move |ctx, ps2| {
                    let mut cfg = LbfgsConfig::new(gen, 4);
                    // Full-batch gradients would dominate the test's wall
                    // time; a fixed fraction keeps the cell cheap and still
                    // exercises both round trips of an iteration: the
                    // envelope carrying the y zip and the Gram dots, and the
                    // step zip. Four iterations do not wrap the history ring.
                    cfg.batch_fraction = 0.25;
                    train_lbfgs(ctx, ps2, &cfg);
                }),
            };
            let iteration_spans = report.metrics.hist("ml.iteration");
            let train_ns = iteration_spans.map_or(0, |h| h.sum_ns());
            let iterations = report.metrics.counter("ml.iterations");
            let exact = format!("train_ns={train_ns} iterations={iterations}");
            rows.push(row(name, seed, &report, &exact, &[]));
        }
    }
    check(rows);
}

/// Convergence-shaped runs of the Spark-free worker loop under each
/// consistency mode: 4 workers × 3 servers × 6 iterations, seeds 1–2.
#[test]
fn mode_grid() {
    let mut rows = Vec::new();
    for preset in ["kddb", "kdd12"] {
        for algo in [ModeAlgo::Lr, ModeAlgo::Svm] {
            for mode in ["bsp", "ssp:2", "async"] {
                let mode = ConsistencyMode::parse(mode).expect("static mode");
                for seed in 1..=2 {
                    let (trace, report) = run_mode(&mode_config(preset, mode, seed), algo);
                    let iterations = report.metrics.counter("ml.iterations");
                    let loss_micro = (trace.final_loss() * 1e6).round() as i64;
                    let exact = format!("iterations={iterations} final_loss_micro={loss_micro}");
                    let name = format!("{preset}-{}-{}", algo.label(), mode.label());
                    rows.push(row(&name, seed, &report, &exact, &trace.points));
                }
            }
        }
    }
    check(rows);
}

/// The mode grid's shape: 4 workers × 3 servers × 6 iterations.
fn mode_config(preset: &str, mode: ConsistencyMode, seed: u64) -> ModeConfig {
    let mut cfg = ModeConfig::new(sparse(preset, seed), 4, 3, mode);
    cfg.iterations = 6;
    cfg.learning_rate = 1.0;
    cfg.seed = seed;
    // A mild fixed straggler, so the three modes differ in pacing.
    cfg.straggler_slowdown = SimTime::from_millis(20);
    cfg
}

/// The watchdog over `kddb-lr-ssp2`'s run scraped at 1 ms: every detector,
/// plus the `kddb` preset SLOs and one unattainable 1 µs pull p999 that must
/// burn. `alerts` is the alert count; each alert's fields are folded into
/// the digest.
#[test]
fn alerts() {
    let seed = 1;
    let cfg = mode_config("kddb", ConsistencyMode::Ssp { bound: 2 }, seed);
    let builder = SimBuilder::new().timeseries(SimTime::from_millis(1));
    let (trace, report) = run_mode_with(builder, &cfg, ModeAlgo::Lr);
    let mut objectives = preset_slos(Some("kddb"));
    objectives.push(SloObjective::latency_p999(
        "unattainable.pull.p999",
        "ps.client.op.pull.latency",
        SimTime::from_micros(1),
    ));
    let mut alerts = Watchdog::evaluate(&report);
    alerts.extend(Watchdog::evaluate_slo(&report, &objectives));
    let mut tail = String::new();
    for a in &alerts {
        let proc = a.proc.map_or(-1, |p| p as i64);
        tail += &format!(
            "{} {} {} {proc} {} {}\n",
            a.kind.label(),
            a.at.as_nanos(),
            a.window,
            a.subject,
            a.value_milli
        );
    }
    let exact = format!("alerts={}", alerts.len());
    let row = row_with(
        "alerts",
        seed,
        &report,
        &exact,
        &trace.points,
        tail.as_bytes(),
    );
    check(vec![row]);
}

/// `ps2-run lr --optimizer adam --rows 19000 --dim 290000 --nnz 31 --iters 3
/// --workers 4 --servers 4 --seed 42`. `envelopes` pins request coalescing:
/// 4 CREATE + 36 per iteration (16 pull, 16 push, 4 batched updates).
#[test]
fn lr_adam() {
    let gen = SparseDatasetGen::new(19_000, 290_000, 31, 4, 42);
    let (_, report) = run_ps2_with(SimBuilder::new().seed(42), cluster(), move |ctx, ps2| {
        let mut cfg = LrConfig::new(gen, Optimizer::Adam, 3);
        cfg.hyper.learning_rate = 1.0;
        train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv);
    });
    let envelopes = report.metrics.counter("ps.client.envelopes");
    let exact = format!("envelopes={envelopes}");
    check(vec![row("lr-adam", 42, &report, &exact, &[])]);
}

/// One shipped serving preset under seed 1: open-loop pulls against a fleet
/// of steppable server agents.
fn serve_row(preset: &str) -> String {
    let spec = serve_spec(preset).expect("shipped serve preset");
    let (s, report) = run_serve(SimBuilder::new().seed(1), &spec);
    assert_eq!(s.issued, s.completed, "{preset}: unanswered pulls");
    let (pulls, p99, p999) = (s.completed, s.p99_ns, s.p999_ns);
    let exact = format!("pulls={pulls} p99_ns={p99} p999_ns={p999}");
    row(preset, 1, &report, &exact, &[])
}

#[test]
fn serve_kddb() {
    check(vec![serve_row("serve-kddb")]);
}

#[test]
fn serve_kdd12() {
    check(vec![serve_row("serve-kdd12")]);
}

/// One coordinator body of the `backends` group.
type Body = Box<dyn FnOnce(&mut SimCtx, &mut Ps2Context) + Send>;

/// The PS paths no other group runs, each on a tiny shape at seed 1 on the
/// 4 × 4 cluster: the LR baselines' dense row access, the MLlib baseline's
/// driver-side gradient aggregation (`lr-mllib`, no PS), GBDT's `zip_map` /
/// `zip_argmax`, LDA's block and per-key access, FM's blocks, DeepWalk's
/// batched envelopes, misaligned DCV ops and row-plan pulls. `envelopes`
/// (`ps.client.envelopes`) pins how many requests each op fanned out to.
#[test]
fn backends() {
    let seed = 1;
    let run = |f: Body| run_ps2_with(SimBuilder::new().seed(seed), cluster(), f).1;
    let lr_with = |optimizer, backend| -> Body {
        let gen = SparseDatasetGen::new(2_000, 5_000, 10, 4, seed);
        Box::new(move |ctx, ps2| {
            train_lr(ctx, ps2, &LrConfig::new(gen, optimizer, 2), backend);
        })
    };
    let lr = |backend| lr_with(Optimizer::Sgd, backend);
    // The MLlib loop's gradient aggregation with more partitions than
    // executors: P = 16 on E = 4.
    let mllib: Body = Box::new(move |ctx, ps2| {
        let gen = SparseDatasetGen::new(2_000, 5_000, 10, 16, seed);
        let cfg = LrConfig::new(gen, Optimizer::Sgd, 2);
        train_lr(ctx, ps2, &cfg, LrBackend::SparkDriver);
    });
    // `ps2-run lr --optimizer …`'s stateful optimizers as server-side zips.
    let adagrad = Optimizer::Adagrad;
    let rmsprop = Optimizer::RmsProp;
    let ftrl = Optimizer::Ftrl;
    let gbdt = |backend| -> Body {
        let cfg = GbdtConfig {
            dataset: SparseDatasetGen::new(1_000, 30, 10, 4, seed).continuous(),
            hyper: GbdtHyper {
                num_trees: 1,
                max_depth: 3,
                histogram_bins: 8,
            },
        };
        Box::new(move |ctx, ps2| {
            train_gbdt(ctx, ps2, &cfg, backend);
        })
    };
    let lda = |backend| -> Body {
        let cfg = LdaConfig {
            corpus: CorpusGen::new(200, 500, 16, 60, 4, seed),
            topics: 4,
            iterations: 2,
        };
        Box::new(move |ctx, ps2| {
            train_lda(ctx, ps2, &cfg, backend);
        })
    };
    let deepwalk = |backend| -> Body {
        let graph = GraphGen {
            vertices: 200,
            edges_per_vertex: 4,
            seed,
        };
        let cfg = DeepWalkConfig {
            vertices: graph.vertices,
            embedding_dim: 8,
            batch_per_worker: 128,
            iterations: 2,
            seed,
        };
        Box::new(move |ctx, ps2| {
            let walks = RandomWalks::sample(&graph.generate(), 100, 8, seed ^ 1);
            train_deepwalk(ctx, ps2, &cfg, &walks, backend);
        })
    };
    let fm: Body = Box::new(move |ctx, ps2| {
        let gen = SparseDatasetGen::new(1_000, 2_000, 10, 4, seed);
        train_fm(ctx, ps2, &FmConfig::new(gen, 4, 2));
    });
    // Figure 4's misaligned pair: a cross-server dot, the pull/push
    // fallback of `iaxpy`, and `copy_from`'s cross-server element op.
    let misaligned: Body = Box::new(|ctx, ps2| {
        let a = ps2.dense_dcv(ctx, 10_000, 2);
        let b = ps2.dense_dcv_misaligned(ctx, 10_000, 1);
        a.fill(ctx, 1.0);
        b.fill(ctx, 2.0);
        assert_eq!(a.dot(ctx, &b), 20_000.0);
        a.iaxpy(ctx, &b, 0.5);
        a.derive(ctx).copy_from(ctx, &b);
    });
    let mut rows = Vec::new();
    for (name, f) in [
        ("lr-petuum", lr(LrBackend::PetuumStyle)),
        ("lr-ps", lr(LrBackend::PsPullPush)),
        ("lr-distml", lr(LrBackend::DistmlStyle)),
        ("lr-mllib", mllib),
        ("lr-adagrad", lr_with(adagrad, LrBackend::Ps2Dcv)),
        ("lr-rmsprop", lr_with(rmsprop, LrBackend::Ps2Dcv)),
        ("lr-ftrl", lr_with(ftrl, LrBackend::Ps2Dcv)),
        ("gbdt-ps2", gbdt(GbdtBackend::Ps2Dcv)),
        ("gbdt-xgboost", gbdt(GbdtBackend::XgboostStyle)),
        ("lda-ps2", lda(LdaBackend::Ps2Dcv)),
        ("lda-petuum", lda(LdaBackend::PetuumStyle)),
        ("lda-glint", lda(LdaBackend::GlintStyle)),
        ("fm", fm),
        ("deepwalk-ps2", deepwalk(DeepWalkBackend::Ps2Dcv)),
        ("deepwalk-ps", deepwalk(DeepWalkBackend::PsPullPush)),
        ("dcv-misaligned", misaligned),
    ] {
        rows.push(envelopes_row(name, seed, &run(f)));
    }
    rows.push(envelopes_row("row-pull", seed, &row_pull(seed)));
    check(rows);
}

fn envelopes_row(name: &str, seed: u64, report: &SimReport) -> String {
    let envelopes = report.metrics.counter("ps.client.envelopes");
    row(name, seed, report, &format!("envelopes={envelopes}"), &[])
}

/// `ablation_partitioning`'s body on a row plan: 4 workers concurrently
/// pull one 4 000-wide row, which sits whole on one of the 4 servers.
fn row_pull(seed: u64) -> SimReport {
    let (servers, workers, dim) = (4, 4, 4_000);
    let mut sim = SimBuilder::new().seed(seed).build();
    let (srv, storage) = deploy_ps(&mut sim, servers, 500e6);
    let worker_ids: Vec<ProcId> = (0..workers).map(|w| ProcId(servers + 2 + w)).collect();
    sim.spawn("coordinator", move |ctx| {
        let mut m = PsMaster::new(srv, storage);
        let h = m.create_matrix(ctx, dim, 1, Partitioning::Row, InitKind::Zero);
        for &w in &worker_ids {
            ctx.send(w, 7, h.clone(), 64);
        }
    });
    for i in 0..workers {
        sim.spawn(&format!("worker-{i}"), move |ctx| {
            let h: MatrixHandle = ctx.recv().downcast();
            assert_eq!(h.pull_row(ctx, 0), vec![0.0; dim as usize]);
        });
    }
    sim.run().expect("row-pull sim failed")
}

/// The two services no other group drives, at seed 1: the shuffle service
/// (`envelopes` = `shuffle.fabric.envelopes`, puts plus fetches) and
/// checkpoint storage (`recoveries` = `ps.fleet.recoveries`), the latter
/// once behind a blocking pull and once behind a split-phase push's hole
/// (`timeouts` = `ps.client.timeouts`).
#[test]
fn services() {
    let seed = 1;
    let report = shuffle(seed);
    let envelopes = report.metrics.counter("shuffle.fabric.envelopes");
    let mut rows = vec![row(
        "shuffle",
        seed,
        &report,
        &format!("envelopes={envelopes}"),
        &[],
    )];
    let report = recovery(seed);
    let recoveries = report.metrics.counter("ps.fleet.recoveries");
    let exact = format!("recoveries={recoveries}");
    rows.push(row("recovery", seed, &report, &exact, &[]));
    let report = push_hole(seed);
    let recoveries = report.metrics.counter("ps.fleet.recoveries");
    let timeouts = report.metrics.counter("ps.client.timeouts");
    let exact = format!("recoveries={recoveries} timeouts={timeouts}");
    rows.push(row("push-hole", seed, &report, &exact, &[]));
    check(rows);
}

/// `reduce_by_key` then `group_by_key` over 4 executors and 4 shuffle
/// services: 8 map partitions of 97 keys.
fn shuffle(seed: u64) -> SimReport {
    let mut sim = SimBuilder::new().seed(seed).build();
    let executors = deploy_executors(&mut sim, 4);
    let services = deploy_shuffle_services(&mut sim, 4);
    sim.spawn("driver", move |ctx| {
        let mut sc = SparkContext::new(executors);
        let pairs: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i % 97, i)).collect();
        let rdd = sc.parallelize(ctx, pairs, 8);
        let sums = sc
            .reduce_by_key(ctx, &services, &rdd, |a, b| a + b)
            .expect("reduce_by_key");
        let total: u64 = sc.collect(ctx, &sums).iter().map(|(_, s)| s).sum();
        assert_eq!(total, (0..2_000u64).sum::<u64>());
        let groups = sc.group_by_key(ctx, &services, &rdd).expect("group_by_key");
        assert_eq!(sc.count(ctx, &groups), 97);
    });
    sim.run().expect("shuffle sim failed")
}

/// A push, `checkpoint_all`, server 1 killed, then a pull through its slot:
/// the pull times out, the fleet respawns the server and `RESTORE`s it from
/// storage, and the retried pull reads the checkpointed values.
fn recovery(seed: u64) -> SimReport {
    let mut sim = SimBuilder::new().seed(seed).build();
    let (servers, storage) = deploy_ps(&mut sim, 4, 500e6);
    sim.spawn("coordinator", move |ctx| {
        let victim = servers[1];
        let mut m = PsMaster::new(servers, storage);
        let h = m.create_matrix(ctx, 4_000, 1, Partitioning::Column, InitKind::Zero);
        let pairs = [(10, 1.0), (1_500, 2.0), (3_999, 3.0)];
        h.push_sparse(ctx, 0, &pairs);
        m.checkpoint_all(ctx);
        ctx.kill(victim);
        assert_eq!(
            h.pull_cols(ctx, 0, &[10, 1_500, 3_999]),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!((m.recoveries(), m.silent_reinits()), (1, 0));
    });
    sim.run().expect("recovery sim failed")
}

/// `checkpoint_all`, server 1 killed, then a split-phase push over all four
/// slots: the sub-request to the dead server is a hole that `push_wait`
/// settles through recovery, and the pull reads every delta back.
fn push_hole(seed: u64) -> SimReport {
    let mut sim = SimBuilder::new().seed(seed).build();
    let (servers, storage) = deploy_ps(&mut sim, 4, 500e6);
    sim.spawn("coordinator", move |ctx| {
        let victim = servers[1];
        let mut m = PsMaster::new(servers, storage);
        let h = m.create_matrix(ctx, 4_000, 1, Partitioning::Column, InitKind::Zero);
        m.checkpoint_all(ctx);
        ctx.kill(victim);
        let cols = [10, 1_500, 2_500, 3_999];
        let pairs: Vec<(u64, f64)> = cols.iter().map(|&c| (c, c as f64)).collect();
        let pending = h.push_sparse_begin(ctx, 0, &pairs);
        h.push_wait(ctx, pending);
        let pulled = h.pull_cols(ctx, 0, &cols);
        assert_eq!(pulled, vec![10.0, 1_500.0, 2_500.0, 3_999.0]);
        assert_eq!((m.recoveries(), m.silent_reinits()), (1, 0));
    });
    sim.run().expect("push-hole sim failed")
}
