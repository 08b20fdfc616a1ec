//! Figures 1 and 9–13: MLlib's bottleneck, the DCV abstraction, the
//! end-to-end comparisons, and scalability / fault tolerance.

use ps2_bench::{
    banner, common_target, paper_says, print_time_to_loss, print_traces, Table, SERVERS, WORKERS,
};
use ps2_core::{run_ps2, run_ps2_with, ClusterSpec, ComputeConfig, SimBuilder, SimTime};
use ps2_data::{presets, SparseDatasetGen};
use ps2_ml::deepwalk::{train_deepwalk, DeepWalkBackend, DeepWalkConfig};
use ps2_ml::gbdt::{train_gbdt, GbdtBackend, GbdtConfig};
use ps2_ml::hyper::GbdtHyper;
use ps2_ml::lda::{train_lda, LdaBackend, LdaConfig};
use ps2_ml::lr::{train_lr, LrBackend, LrConfig};
use ps2_ml::optim::Optimizer;
use ps2_ml::TrainingTrace;

const FULL: ClusterSpec = ClusterSpec {
    workers: WORKERS,
    servers: SERVERS,
};

/// Figure 1 — empirical analysis of Spark MLlib (paper §2).
///
/// (a) Time per iteration of LR+SGD on MLlib as the number of features
///     grows (paper: 40K → 60,000K features, 168× degradation).
/// (b) Per-iteration breakdown into the four steps: model broadcast,
///     gradient calculation, gradient aggregation, model update — with
///     aggregation dominating at scale.
///
/// 20 executors, mini-batch fraction 0.01, features scaled ÷10.
pub fn fig1_mllib_analysis() {
    banner("Figure 1", "Spark MLlib's single-node bottleneck");
    paper_says("40K -> 60,000K features: 168x slower per iteration;");
    paper_says("gradient aggregation occupies most of each iteration.");

    let mut t = Table::new(
        "fig1.csv",
        "features,sec_per_iter,broadcast,gradient_calc,aggregation,model_update",
    );
    let mut per_iters = Vec::new();
    let mut last_breakdown = None;
    // Paper dims ÷10 so the largest model stays laptop-sized.
    for dim in [4_000u64, 300_000, 3_000_000, 6_000_000] {
        let (trace, _) = run_ps2(
            ClusterSpec {
                workers: WORKERS,
                servers: 1, // MLlib uses no parameter servers
            },
            1,
            move |ctx, ps2| {
                let mut cfg = LrConfig::new(
                    SparseDatasetGen::new(20_000, dim, 30, WORKERS, 7),
                    Optimizer::Sgd,
                    5,
                );
                cfg.hyper.mini_batch_fraction = 0.01;
                train_lr(ctx, ps2, &cfg, LrBackend::SparkDriver)
            },
        );
        let per_iter = trace.time_per_iteration();
        let b = trace.breakdown.expect("MLlib backend records a breakdown");
        t.row(&[
            dim.to_string(),
            format!("{per_iter:.6}"),
            format!("{:.6}", b.broadcast),
            format!("{:.6}", b.gradient_calc),
            format!("{:.6}", b.aggregation),
            format!("{:.6}", b.model_update),
        ]);
        per_iters.push(per_iter);
        last_breakdown = Some(b);
    }
    let degradation = per_iters[per_iters.len() - 1] / per_iters[0];
    println!("\n  degradation smallest -> largest: {degradation:.0}x (paper: 168x)");
    let b = last_breakdown.unwrap();
    let frac = b.aggregation / b.total();
    println!("  aggregation share at largest dim: {:.0}%", frac * 100.0);
}

/// One LR loss-curve panel: train `preset` on each backend at the full
/// cluster width, persist the traces as `{fig}.csv` and report the time
/// each takes to a loss every backend reaches.
fn lr_panel(
    fig: &str,
    preset: presets::SparsePreset,
    seed: u64,
    optimizer: Optimizer,
    learning_rate: f64,
    iterations: usize,
    backends: &[LrBackend],
) {
    let traces: Vec<TrainingTrace> = backends
        .iter()
        .map(|&backend| {
            let gen = preset.gen.clone();
            let (trace, _) = run_ps2(FULL, seed, move |ctx, ps2| {
                let mut cfg = LrConfig::new(gen, optimizer, iterations);
                cfg.hyper.learning_rate = learning_rate;
                train_lr(ctx, ps2, &cfg, backend)
            });
            trace
        })
        .collect();
    let refs: Vec<&TrainingTrace> = traces.iter().collect();
    print_traces(fig, &refs);
    print_time_to_loss(&refs, common_target(&refs));
}

fn deepwalk_panel(fig: &str, preset: presets::GraphPreset, servers: usize, iterations: usize) {
    let mut traces = Vec::new();
    for backend in [DeepWalkBackend::Ps2Dcv, DeepWalkBackend::PsPullPush] {
        let p = preset.clone();
        let (trace, _) = run_ps2(
            ClusterSpec {
                workers: WORKERS,
                servers,
            },
            13,
            move |ctx, ps2| {
                let g = p.gen.generate();
                let walks = ps2_data::RandomWalks::sample(&g, p.num_walks, presets::WALK_LEN, 6);
                let cfg = DeepWalkConfig {
                    vertices: p.gen.vertices,
                    embedding_dim: 100,
                    batch_per_worker: 512 / WORKERS * 8, // paper batch 512, spread wider
                    iterations,
                    seed: 17,
                };
                train_deepwalk(ctx, ps2, &cfg, &walks, backend)
            },
        );
        traces.push(trace);
    }
    let refs: Vec<&TrainingTrace> = traces.iter().collect();
    print_traces(fig, &refs);
    let t_ps2 = traces[0].total_time();
    let t_ps = traces[1].total_time();
    println!(
        "\n  PS2-DeepWalk speedup over PS-DeepWalk at {servers} servers: {:.2}x",
        t_ps / t_ps2
    );
}

/// Figure 9 — effectiveness of the DCV abstraction (paper §6.2).
///
/// (a) Adam-LR on KDDB: Spark- vs PS- vs PS2- (paper: PS2 15.7× vs Spark,
///     4.7× vs PS at 0.3 loss).
/// (b) Adam-LR on CTR (much wider model): 55.6× vs Spark, 5× vs PS.
/// (c) DeepWalk on Graph1, 20 servers→paper used few: PS2 5× vs PS.
/// (d) DeepWalk on Graph2 with 30 servers: speedup shrinks to 1.4×.
pub fn fig9_dcv() {
    let backends = [
        LrBackend::Ps2Dcv,
        LrBackend::PsPullPush,
        LrBackend::SparkDriver,
    ];
    banner("Figure 9(a)", "Adam-LR on KDDB: Spark- vs PS- vs PS2-");
    paper_says("to 0.3 loss: PS2 59s, PS 277s (4.7x), Spark 926s (15.7x)");
    let kddb = presets::kddb(WORKERS, 1);
    lr_panel("fig9a", kddb, 9, Optimizer::Adam, 0.01, 60, &backends);

    banner("Figure 9(b)", "Adam-LR on CTR (wide model)");
    paper_says("PS2 5x faster than PS-Adam, 55.6x faster than Spark-Adam");
    let ctr = presets::ctr(WORKERS, 2);
    lr_panel("fig9b", ctr, 9, Optimizer::Adam, 0.01, 20, &backends);

    banner("Figure 9(c)", "DeepWalk on Graph1 (few servers)");
    paper_says("PS2-DeepWalk 5x faster than PS-DeepWalk");
    deepwalk_panel("fig9c", presets::graph1(3), 4, 10);

    banner("Figure 9(d)", "DeepWalk on Graph2 with 30 servers");
    paper_says("speedup shrinks to 1.4x: dot partial-gathers grow with servers");
    deepwalk_panel("fig9d", presets::graph2(4), 30, 6);
}

/// Figure 10 — end-to-end LR (SGD) comparison: PS2 vs Spark MLlib vs DistML
/// vs Petuum on KDDB and KDD12 (paper §6.3.1).
///
/// Paper: PS2 converges fastest — 1.6× over Petuum on KDDB, 2.3× on KDD12;
/// MLlib slowest; DistML between and not robust. The mechanism: PS2's
/// sparse pulls move only the mini-batch's working set; Petuum pulls the
/// whole model; MLlib funnels everything through the driver.
///
/// Paper Table 4 uses learning_rate = 0.618 with ~2M-example mini-batches;
/// our scaled batches are ~1000x smaller, so a proportionally larger rate
/// (5.0) keeps per-iteration progress comparable (fraction stays at the
/// paper's 0.01).
pub fn fig10_lr_endtoend() {
    let backends = [
        LrBackend::Ps2Dcv,
        LrBackend::PetuumStyle,
        LrBackend::DistmlStyle,
        LrBackend::SparkDriver,
    ];
    banner(
        "Figure 10(a)",
        "LR-SGD on KDDB: PS2 vs Petuum vs DistML vs MLlib",
    );
    paper_says("PS2 fastest (1.6x over Petuum); MLlib slowest; DistML not robust");
    let kddb = presets::kddb(WORKERS, 1);
    lr_panel("fig10a", kddb, 11, Optimizer::Sgd, 5.0, 150, &backends);

    banner("Figure 10(b)", "LR-SGD on KDD12");
    paper_says("PS2 2.3x over Petuum");
    let kdd12 = presets::kdd12(WORKERS, 2);
    lr_panel("fig10b", kdd12, 11, Optimizer::Sgd, 5.0, 150, &backends);
}

/// Figure 11 — GBDT on the Gender dataset: PS2 vs XGBoost (paper §6.3.2).
///
/// Paper: PS2 builds 100 trees in 2435 s, XGBoost needs 7942 s (3.3×). The
/// bottleneck it blames is XGBoost's AllReduce-based split finding; PS2
/// pushes partial histograms to the servers and finds splits there.
///
/// Scaled: Gender ÷5000, 10 trees of depth 5 with 50-bin histograms (the
/// per-tree cost is what the figure compares; we also extrapolate to the
/// paper's 100 trees).
pub fn fig11_gbdt() {
    banner("Figure 11", "GBDT on Gender: PS2 vs XGBoost (AllReduce)");
    paper_says("100 trees: PS2 2435s vs XGBoost 7942s (3.3x)");

    let hyper = GbdtHyper {
        num_trees: 10,
        max_depth: 5,
        histogram_bins: 50,
    };
    let mut traces: Vec<TrainingTrace> = Vec::new();
    for backend in [GbdtBackend::Ps2Dcv, GbdtBackend::XgboostStyle] {
        let mut preset = presets::gender(WORKERS, 5);
        // Keep the histogram table laptop-sized: fewer features, same shape.
        preset.gen.dim = 800;
        preset.gen.rows = 16_000;
        let gen = preset.gen.clone();
        let ((trace, trees), _) = run_ps2(FULL, 21, move |ctx, ps2| {
            let cfg = GbdtConfig {
                dataset: gen,
                hyper,
            };
            train_gbdt(ctx, ps2, &cfg, backend)
        });
        assert_eq!(trees.len(), hyper.num_trees);
        traces.push(trace);
    }
    let refs: Vec<&TrainingTrace> = traces.iter().collect();
    print_traces("fig11", &refs);

    let per_tree: Vec<f64> = traces.iter().map(|t| t.time_per_iteration()).collect();
    let mut t = Table::new("fig11_summary.csv", "system,sec_per_tree,sec_100_trees");
    for (trace, &pt) in traces.iter().zip(&per_tree) {
        t.row(&[
            trace.label.to_string(),
            format!("{pt:.3}"),
            format!("{:.1}", pt * 100.0),
        ]);
    }
    println!(
        "\n  PS2 speedup over XGBoost: {:.2}x (paper: 3.3x)",
        per_tree[1] / per_tree[0]
    );
}

fn lda_run(
    corpus: ps2_data::CorpusGen,
    topics: u32,
    iterations: usize,
    backend: LdaBackend,
) -> TrainingTrace {
    let (trace, _) = run_ps2(FULL, 31, move |ctx, ps2| {
        let cfg = LdaConfig {
            corpus,
            topics, // α = 0.5, β = 0.01 (Table 4)
            iterations,
        };
        train_lda(ctx, ps2, &cfg, backend)
    });
    trace
}

/// Figure 12 — LDA comparison (paper §6.3.3).
///
/// (a) PubMED, K=1000 (scaled to 100): PS2 vs Petuum vs Glint.
///     Paper: 386 s / 1440 s / 3500 s to converge — PS2 3.7× over Petuum,
///     9× over Glint (sparse communication + message compression).
/// (b) PubMED, K=100 (scaled to 20): PS2 vs Spark MLlib. Paper: 17×.
/// (c) App (the corpus only PS2 can handle): PS2 alone.
pub fn fig12_lda() {
    banner(
        "Figure 12(a)",
        "LDA on PubMED (large K): PS2 vs Petuum vs Glint",
    );
    paper_says("converge: PS2 386s, Petuum 1440s (3.7x), Glint 3500s (9x)");
    let pubmed = presets::pubmed(WORKERS, 1);
    let traces: Vec<TrainingTrace> = [
        LdaBackend::Ps2Dcv,
        LdaBackend::PetuumStyle,
        LdaBackend::GlintStyle,
    ]
    .into_iter()
    .map(|b| lda_run(pubmed.gen.clone(), 100, 10, b))
    .collect();
    let refs: Vec<&TrainingTrace> = traces.iter().collect();
    print_traces("fig12a", &refs);
    print_time_to_loss(&refs, common_target(&refs));

    banner(
        "Figure 12(b)",
        "LDA on PubMED (small K): PS2 vs Spark MLlib",
    );
    paper_says("MLlib needs 6894s to converge; PS2 is 17x faster");
    let traces: Vec<TrainingTrace> = [LdaBackend::Ps2Dcv, LdaBackend::SparkDriver]
        .into_iter()
        .map(|b| lda_run(pubmed.gen.clone(), 20, 10, b))
        .collect();
    let refs: Vec<&TrainingTrace> = traces.iter().collect();
    print_traces("fig12b", &refs);
    print_time_to_loss(&refs, common_target(&refs));

    banner("Figure 12(c)", "LDA on App — the corpus only PS2 handles");
    paper_says("PS2 trains LDA on billions of documents");
    let app = presets::app(WORKERS, 2);
    let trace = lda_run(app.gen.clone(), 100, 6, LdaBackend::Ps2Dcv);
    print_traces("fig12c", &[&trace]);
}

/// Figure 13 — scalability and fault tolerance (paper §6.4, §6.5).
///
/// (a) LR on CTR with 50w/50s → 100w/50s → 100w/100s. Paper: 4519 s →
///     2865 s → 2199 s (2.05× doubling both); slightly super-linear because
///     the starved cluster also suffered network failures. The paper's CTR
///     runs are *compute-bound* (57B nnz per epoch); since our data is
///     scaled ÷1000 the bench scales the simulated CPU rate down to restore
///     the compute-bound regime, and injects the paper's observed failures
///     at the starved configuration.
/// (b) Time per iteration versus model size, PS2 vs MLlib (paper: MLlib
///     degrades 168×, PS2 only 8.5× over 40K → 60,000K features). Adam is
///     used (as in §6.2), so the model update is a dense server-side zip
///     whose cost grows with the model — the source of PS2's own (mild)
///     growth.
/// (c) Task-failure tolerance: p ∈ {0, 0.01, 0.1}. Paper: 66 s → 74 s →
///     127 s, all converging to the same solution.
pub fn fig13_scalability_ft() {
    fig13a();
    fig13b();
    fig13c();
}

fn fig13a() {
    banner("Figure 13(a)", "scaling workers/servers on CTR");
    paper_says("50w/50s 4519s -> 100w/50s 2865s -> 100w/100s 2199s (2.05x)");
    let mut t = Table::new("fig13a.csv", "workers,servers,seconds");
    let mut seconds = Vec::new();
    for (w, s, fail) in [(50usize, 50usize, 0.01), (100, 50, 0.0), (100, 100, 0.0)] {
        let builder = SimBuilder::new().seed(41).compute(ComputeConfig {
            // Restore the compute-bound regime of the unscaled workload
            // (data ÷1000, so CPU rate ÷1000).
            flops_per_sec: 2.0e6,
            ..ComputeConfig::default()
        });
        let (trace, _) = run_ps2_with(
            builder,
            ClusterSpec {
                workers: w,
                servers: s,
            },
            move |ctx, ps2| {
                // Starved clusters saw network failures in the paper's logs.
                ps2.spark.failure.task_failure_prob = fail;
                ps2.spark.failure.failure_waste = SimTime::from_millis(3);
                ps2.spark.failure.max_task_attempts = 100;
                let gen = presets::ctr(w, 3).gen;
                let cfg = LrConfig::new(gen, Optimizer::Sgd, 15);
                train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv)
            },
        );
        let secs = trace.total_time();
        t.row(&[w.to_string(), s.to_string(), format!("{secs:.4}")]);
        seconds.push(secs);
    }
    println!(
        "\n  speedup doubling both: {:.2}x (paper: 2.05x)",
        seconds[0] / seconds[2]
    );
}

fn fig13b() {
    banner(
        "Figure 13(b)",
        "time per iteration vs model size: PS2 vs MLlib",
    );
    paper_says("40K->60,000K features: MLlib 168x slower; PS2 only 8.5x (0.2s->1.7s)");
    let mut t = Table::new("fig13b.csv", "features,ps2_sec_per_iter,mllib_sec_per_iter");
    let mut rows = Vec::new();
    for dim in [4_000u64, 300_000, 3_000_000, 6_000_000] {
        let per_iter = |backend| {
            let (trace, _) = run_ps2(FULL, 43, move |ctx, ps2| {
                let mut cfg = LrConfig::new(
                    SparseDatasetGen::new(20_000, dim, 30, WORKERS, 7),
                    Optimizer::Adam,
                    5,
                );
                cfg.hyper.mini_batch_fraction = 0.01;
                cfg.hyper.learning_rate = 0.01;
                train_lr(ctx, ps2, &cfg, backend)
            });
            trace.time_per_iteration()
        };
        let (ps2, mllib) = (
            per_iter(LrBackend::Ps2Dcv),
            per_iter(LrBackend::SparkDriver),
        );
        t.row(&[dim.to_string(), format!("{ps2:.6}"), format!("{mllib:.6}")]);
        rows.push((ps2, mllib));
    }
    let ((p0, m0), (p1, m1)) = (rows[0], rows[rows.len() - 1]);
    println!(
        "\n  growth over the sweep: PS2 {:.1}x (paper 8.5x), MLlib {:.0}x (paper 168x)",
        p1 / p0,
        m1 / m0
    );
}

fn fig13c() {
    banner("Figure 13(c)", "task-failure tolerance");
    paper_says("p=0: 66s, p=0.01: 74s, p=0.1: 127s; same final solution");
    let mut t = Table::new("fig13c.csv", "failure_prob,seconds,final_loss,retries");
    for p in [0.0, 0.01, 0.1] {
        let ((trace, retries), _) = run_ps2(FULL, 47, move |ctx, ps2| {
            ps2.spark.failure.task_failure_prob = p;
            // A failed attempt wastes roughly half a gradient task.
            ps2.spark.failure.failure_waste = SimTime::from_millis(2);
            ps2.spark.failure.max_task_attempts = 1000;
            let gen = presets::kddb(WORKERS, 1).gen;
            let cfg = LrConfig::new(gen, Optimizer::Sgd, 30);
            let t = train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv);
            (t, ps2.spark.task_retries)
        });
        t.row(&[
            p.to_string(),
            format!("{:.4}", trace.total_time()),
            format!("{:.6}", trace.final_loss()),
            retries.to_string(),
        ]);
    }
    println!("\n  note: the gradient push is each task's final operation, so");
    println!("  retries never double-apply updates and all runs converge alike.");
}
