//! Behavioural tests for the ML workloads: every backend must actually
//! learn, and the virtual-time orderings the paper reports must hold at
//! test scale.

use ps2_core::{run_ps2, ClusterSpec};
use ps2_data::{presets, CorpusGen, GraphGen, RandomWalks, SparseDatasetGen};
use ps2_ml::deepwalk::{train_deepwalk, DeepWalkBackend, DeepWalkConfig};
use ps2_ml::gbdt::{train_gbdt, GbdtBackend, GbdtConfig};
use ps2_ml::hyper::GbdtHyper;
use ps2_ml::lbfgs::{train_lbfgs, LbfgsConfig};
use ps2_ml::lda::{train_lda, LdaBackend, LdaConfig};
use ps2_ml::lr::{train_lr, LrBackend, LrConfig};
use ps2_ml::optim::Optimizer;
use ps2_ml::svm::{train_svm, SvmConfig};
use ps2_ml::TrainingTrace;

fn spec(w: usize, s: usize) -> ClusterSpec {
    ClusterSpec {
        workers: w,
        servers: s,
    }
}

fn small_lr_dataset(parts: usize) -> SparseDatasetGen {
    SparseDatasetGen::new(4_000, 2_000, 12, parts, 7)
}

fn run_lr(backend: LrBackend, opt: Optimizer, iters: usize) -> TrainingTrace {
    let (trace, _) = run_ps2(spec(4, 4), 3, move |ctx, ps2| {
        let mut cfg = LrConfig::new(small_lr_dataset(4), opt, iters);
        cfg.hyper.mini_batch_fraction = 0.05;
        // Adaptive optimizers take ~unit steps per coordinate; plain SGD on
        // a 1/batch-normalized sparse gradient needs a larger rate.
        cfg.hyper.learning_rate = match opt {
            Optimizer::Sgd => 3.0,
            _ => 0.05,
        };
        train_lr(ctx, ps2, &cfg, backend)
    });
    trace
}

fn improves(trace: &TrainingTrace) -> bool {
    assert!(trace.is_sane(), "bad trace for {}", trace.label);
    let first = trace.points.first().unwrap().1;
    let last = trace.final_loss();
    last < first * 0.92
}

#[test]
fn lr_every_backend_converges_with_sgd() {
    for backend in [
        LrBackend::Ps2Dcv,
        LrBackend::SparkDriver,
        LrBackend::PetuumStyle,
        LrBackend::DistmlStyle,
    ] {
        let trace = run_lr(backend, Optimizer::Sgd, 25);
        assert!(
            improves(&trace),
            "{}: {:?} -> {:?}",
            trace.label,
            trace.points.first(),
            trace.points.last()
        );
    }
}

#[test]
fn lr_adam_backends_converge_and_agree() {
    let ps2 = run_lr(LrBackend::Ps2Dcv, Optimizer::Adam, 25);
    let pull = run_lr(LrBackend::PsPullPush, Optimizer::Adam, 25);
    let spark = run_lr(LrBackend::SparkDriver, Optimizer::Adam, 25);
    assert!(improves(&ps2), "{:?}", ps2.points.last());
    assert!(improves(&pull));
    assert!(improves(&spark));
    // Same math, same seed, same batches: identical loss sequences.
    for ((_, a), (_, b)) in ps2.points.iter().zip(&pull.points) {
        assert!((a - b).abs() < 1e-9, "PS2 {a} vs PS- {b}");
    }
    for ((_, a), (_, b)) in ps2.points.iter().zip(&spark.points) {
        assert!((a - b).abs() < 1e-9, "PS2 {a} vs Spark {b}");
    }
}

#[test]
fn lr_adam_ps2_is_fastest_spark_slowest() {
    // The Figure 9(a) ordering: Spark- > PS- > PS2- in time for the same
    // number of iterations. Use a wider model so communication dominates.
    let run = |backend| {
        let (trace, _) = run_ps2(spec(8, 8), 3, move |ctx, ps2| {
            let mut cfg = LrConfig::new(
                SparseDatasetGen::new(8_000, 200_000, 20, 8, 7),
                Optimizer::Adam,
                5,
            );
            cfg.hyper.mini_batch_fraction = 0.02;
            cfg.hyper.learning_rate = 0.05;
            train_lr(ctx, ps2, &cfg, backend)
        });
        trace.total_time()
    };
    let t_ps2 = run(LrBackend::Ps2Dcv);
    let t_ps = run(LrBackend::PsPullPush);
    let t_spark = run(LrBackend::SparkDriver);
    assert!(
        t_ps2 < t_ps && t_ps < t_spark,
        "expected PS2 < PS < Spark, got {t_ps2:.3} / {t_ps:.3} / {t_spark:.3}"
    );
}

#[test]
fn lr_sgd_ps2_beats_petuum_via_sparse_pulls() {
    // Figure 10's mechanism at test scale.
    let run = |backend| {
        let (trace, _) = run_ps2(spec(4, 4), 5, move |ctx, ps2| {
            let cfg = LrConfig::new(
                SparseDatasetGen::new(4_000, 100_000, 15, 4, 9),
                Optimizer::Sgd,
                6,
            );
            train_lr(ctx, ps2, &cfg, backend)
        });
        trace.total_time()
    };
    let t_ps2 = run(LrBackend::Ps2Dcv);
    let t_petuum = run(LrBackend::PetuumStyle);
    assert!(
        t_petuum > 1.2 * t_ps2,
        "Petuum full pulls should cost: {t_ps2:.3} vs {t_petuum:.3}"
    );
}

#[test]
fn lr_spark_breakdown_shows_aggregation_dominating_at_high_dim() {
    // Figure 1(b): at high dimension the aggregation step dominates.
    let (trace, _) = run_ps2(spec(8, 1), 3, move |ctx, ps2| {
        let mut cfg = LrConfig::new(
            SparseDatasetGen::new(2_000, 400_000, 10, 8, 7),
            Optimizer::Sgd,
            4,
        );
        cfg.hyper.mini_batch_fraction = 0.05;
        train_lr(ctx, ps2, &cfg, LrBackend::SparkDriver)
    });
    let b = trace.breakdown.expect("spark backend records breakdown");
    assert!(
        b.aggregation > b.gradient_calc && b.aggregation > b.model_update,
        "aggregation must dominate: {b:?}"
    );
    assert!(b.total() > 0.0);
}

#[test]
fn lr_adagrad_and_rmsprop_work_on_ps2() {
    for opt in [Optimizer::Adagrad, Optimizer::RmsProp] {
        let trace = run_lr(LrBackend::Ps2Dcv, opt, 25);
        assert!(improves(&trace), "{}", trace.label);
    }
}

#[test]
fn deepwalk_learns_and_ps2_beats_pullpush_on_few_servers() {
    let run = |backend| {
        let (trace, _) = run_ps2(spec(4, 2), 11, move |ctx, ps2| {
            let g = GraphGen {
                vertices: 600,
                edges_per_vertex: 3,
                seed: 5,
            }
            .generate();
            let walks = RandomWalks::sample(&g, 600, 8, 6);
            let cfg = DeepWalkConfig {
                vertices: 600,
                embedding_dim: 256,
                batch_per_worker: 256,
                // With word2vec's standard +-0.5/K init the initial dots are
                // ~2e-5, so per-iteration loss movement starts around 1e-7 —
                // below the negative-sampling noise floor of a 6-iteration
                // run. 32 iterations give the loss trend >10 sigma over that
                // noise while keeping the test fast.
                iterations: 32,
                seed: 13,
            };
            train_deepwalk(ctx, ps2, &cfg, &walks, backend)
        });
        trace
    };
    let ps2t = run(DeepWalkBackend::Ps2Dcv);
    let pst = run(DeepWalkBackend::PsPullPush);
    assert!(ps2t.is_sane() && pst.is_sane());
    assert!(
        ps2t.final_loss() < ps2t.points[0].1,
        "PS2-DeepWalk must reduce loss: {:?}",
        ps2t.points
    );
    assert!(
        pst.total_time() > 1.5 * ps2t.total_time(),
        "PS- must be slower with 2 servers: {:.3} vs {:.3}",
        ps2t.total_time(),
        pst.total_time()
    );
}

#[test]
fn deepwalk_advantage_shrinks_with_many_servers() {
    // Figure 9(d): more servers → the dot's partial-gather headers eat the
    // gain.
    let speedup = |servers: usize| {
        let run = |backend| {
            let (trace, _) = run_ps2(spec(4, servers), 11, move |ctx, ps2| {
                let g = GraphGen {
                    vertices: 200,
                    edges_per_vertex: 3,
                    seed: 5,
                }
                .generate();
                let walks = RandomWalks::sample(&g, 200, 8, 6);
                let cfg = DeepWalkConfig {
                    vertices: 200,
                    embedding_dim: 64,
                    batch_per_worker: 48,
                    iterations: 3,
                    seed: 13,
                };
                train_deepwalk(ctx, ps2, &cfg, &walks, backend)
            });
            trace.total_time()
        };
        run(DeepWalkBackend::PsPullPush) / run(DeepWalkBackend::Ps2Dcv)
    };
    let few = speedup(2);
    let many = speedup(16);
    assert!(
        few > many,
        "speedup should shrink with servers: {few:.2}x vs {many:.2}x"
    );
}

#[test]
fn gbdt_learns_and_ps2_beats_allreduce() {
    let dataset = SparseDatasetGen::new(2_000, 60, 12, 4, 21).continuous();
    let hyper = GbdtHyper {
        num_trees: 5,
        max_depth: 3,
        histogram_bins: 16,
    };
    let run = |backend| {
        let ds = dataset.clone();
        let (out, _) = run_ps2(spec(4, 4), 17, move |ctx, ps2| {
            let cfg = GbdtConfig { dataset: ds, hyper };
            train_gbdt(ctx, ps2, &cfg, backend)
        });
        out
    };
    let (t_ps2, trees) = run(GbdtBackend::Ps2Dcv);
    let (t_xgb, trees_xgb) = run(GbdtBackend::XgboostStyle);
    assert!(t_ps2.is_sane() && t_xgb.is_sane());
    assert_eq!(trees.len(), 5);
    assert_eq!(trees_xgb.len(), 5);
    assert!(
        t_ps2.final_loss() < t_ps2.points[0].1,
        "boosting must reduce loss: {:?}",
        t_ps2.points
    );
    // Identical math → identical losses, different clocks.
    for ((_, a), (_, b)) in t_ps2.points.iter().zip(&t_xgb.points) {
        assert!((a - b).abs() < 1e-9, "PS2 {a} vs XGB {b}");
    }
    assert!(
        t_xgb.total_time() > t_ps2.total_time(),
        "AllReduce should be slower: {:.1} vs {:.1}",
        t_ps2.total_time(),
        t_xgb.total_time()
    );
}

#[test]
fn lda_learns_topics_and_system_ordering_holds() {
    // Model big enough (V×K) that full pulls and driver aggregation hurt.
    let corpus = CorpusGen::new(800, 6_000, 10, 30, 8, 31);
    let run = |backend| {
        let c = corpus.clone();
        let (trace, _) = run_ps2(spec(8, 4), 23, move |ctx, ps2| {
            let cfg = LdaConfig {
                corpus: c,
                topics: 16,
                iterations: 6,
            };
            train_lda(ctx, ps2, &cfg, backend)
        });
        trace
    };
    let ps2t = run(LdaBackend::Ps2Dcv);
    assert!(ps2t.is_sane());
    assert!(
        ps2t.final_loss() < ps2t.points[0].1 * 0.9,
        "Gibbs must improve likelihood: {:?}",
        ps2t.points
    );
    let petuum = run(LdaBackend::PetuumStyle);
    let glint = run(LdaBackend::GlintStyle);
    let mllib = run(LdaBackend::SparkDriver);
    assert!(
        ps2t.total_time() < petuum.total_time(),
        "PS2 {:.1}s vs Petuum {:.1}s",
        ps2t.total_time(),
        petuum.total_time()
    );
    assert!(
        petuum.total_time() < glint.total_time(),
        "Petuum {:.1}s vs Glint {:.1}s",
        petuum.total_time(),
        glint.total_time()
    );
    assert!(
        ps2t.total_time() < mllib.total_time(),
        "PS2 {:.1}s vs MLlib {:.1}s",
        ps2t.total_time(),
        mllib.total_time()
    );
}

#[test]
fn svm_converges_on_ps2() {
    let (trace, _) = run_ps2(spec(4, 4), 41, |ctx, ps2| {
        let mut cfg = SvmConfig::new(small_lr_dataset(4), 40);
        cfg.learning_rate = 2.0;
        train_svm(ctx, ps2, &cfg)
    });
    assert!(trace.is_sane());
    assert!(
        trace.final_loss() < trace.points[0].1 * 0.9,
        "{:?}",
        trace.points
    );
}

#[test]
fn lbfgs_converges_faster_per_iteration_than_sgd() {
    let dataset = SparseDatasetGen::new(2_000, 500, 10, 4, 7);
    let iters = 10;
    let (lbfgs_trace, report) = run_ps2(spec(4, 4), 43, {
        let ds = dataset.clone();
        move |ctx, ps2| train_lbfgs(ctx, ps2, &LbfgsConfig::new(ds, iters))
    });
    // Two PS round trips per iteration after the gradient job: one envelope
    // (the y zip and the Gram dots; none on the first iteration) and one
    // step zip. No column op travels on its own.
    let m = &report.metrics;
    assert_eq!(m.counter("ps.client.op.envelope.count"), iters as u64 - 1);
    assert_eq!(m.counter("ps.client.op.zip.count"), iters as u64);
    for op in ["dot", "axpy", "scale", "elem"] {
        let name = format!("ps.client.op.{op}.count");
        assert!(m.counters().all(|(n, _)| n != name), "{name} present");
    }
    assert!(lbfgs_trace.is_sane());
    // The loss curve, bit for bit. Ten iterations wrap the m = 5 history
    // ring, which no golden row reaches, so this pins the step zip and the
    // Gram dots over a full, recycled ring.
    let curve: Vec<u64> = lbfgs_trace
        .points
        .iter()
        .map(|&(_, l)| l.to_bits())
        .collect();
    assert_eq!(
        curve,
        [
            0x3fe62e42fefa39fd,
            0x3fe61e6d1a4169d4,
            0x3fe31b2737b42789,
            0x3fe180802cedecb8,
            0x3fe10588f7da2523,
            0x3fdf4efc612e1e83,
            0x3fdd312938cec493,
            0x3fdbb6f6069761f7,
            0x3fda72c793dae97b,
            0x3fd9fcdf1a481c19,
        ]
    );
    let first = lbfgs_trace.points[0].1;
    let last = lbfgs_trace.final_loss();
    assert!(
        last < 0.8 * first,
        "L-BFGS should make strong progress: {first} -> {last}"
    );
    // Loss must be non-increasing-ish (allow small noise from batching).
    let min = lbfgs_trace
        .points
        .iter()
        .map(|&(_, l)| l)
        .fold(f64::INFINITY, f64::min);
    assert!(last <= min * 1.05);
}

#[test]
fn presets_run_end_to_end_at_tiny_iteration_counts() {
    // Smoke: the Table 2 presets plug into the trainers.
    let (ok, _) = run_ps2(spec(4, 4), 51, |ctx, ps2| {
        let kddb = presets::kddb(4, 1);
        let cfg = LrConfig::new(kddb.gen, Optimizer::Sgd, 2);
        let t1 = train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv);
        t1.is_sane()
    });
    assert!(ok);
}
