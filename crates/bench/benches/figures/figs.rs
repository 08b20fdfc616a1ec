//! Figures 1 and 9–13: MLlib's bottleneck, the DCV abstraction, the
//! end-to-end comparisons, and scalability / fault tolerance.

use ps2::core::ComputeConfig;
use ps2::data::{presets, RandomWalks};
use ps2::ml::deepwalk::{train_deepwalk, DeepWalkBackend, DeepWalkConfig};
use ps2::ml::lr::{train_lr, LrBackend, LrConfig};
use ps2::ml::optim::Optimizer;
use ps2::{run_ps2, run_ps2_with, ClusterSpec, SimBuilder, SimTime, TrainingTrace};
use ps2_bench::{
    banner, common_target, paper_says, print_time_to_loss, print_traces, run, Table, SERVERS,
    WORKERS,
};

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
    // Paper dims ÷10 so the largest model stays laptop-sized; MLlib uses no
    // parameter servers.
    for dim in [4_000u64, 300_000, 3_000_000, 6_000_000] {
        let spec = format!(
            "lr --rows 20000 --dim {dim} --nnz 30 --backend spark --servers 1 --iters 5 --seed 7"
        );
        let trace = run(&spec).trace;
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

/// The loss curves of `spec` run on each of `backends`, in order.
fn traces(spec: &str, backends: &[&str]) -> Vec<TrainingTrace> {
    backends
        .iter()
        .map(|b| run(&format!("{spec} --backend {b}")).trace)
        .collect()
}

/// One loss-curve panel: run `spec` on each backend, persist the traces as
/// `{fig}.csv` and report the time each takes to a loss every backend
/// reaches.
fn panel(fig: &str, spec: &str, backends: &[&str]) {
    let traces = traces(spec, backends);
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
                let walks = RandomWalks::sample(&g, p.num_walks, presets::WALK_LEN, 6);
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
    let backends = ["ps2", "ps", "spark"];
    banner("Figure 9(a)", "Adam-LR on KDDB: Spark- vs PS- vs PS2-");
    paper_says("to 0.3 loss: PS2 59s, PS 277s (4.7x), Spark 926s (15.7x)");
    let kddb = "lr --preset kddb --optimizer adam --iters 60 --seed 1 --lr 0.01";
    panel("fig9a", kddb, &backends);

    banner("Figure 9(b)", "Adam-LR on CTR (wide model)");
    paper_says("PS2 5x faster than PS-Adam, 55.6x faster than Spark-Adam");
    let ctr = "lr --preset ctr --optimizer adam --iters 20 --seed 2 --lr 0.01";
    panel("fig9b", ctr, &backends);

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
    let backends = ["ps2", "petuum", "distml", "spark"];
    banner(
        "Figure 10(a)",
        "LR-SGD on KDDB: PS2 vs Petuum vs DistML vs MLlib",
    );
    paper_says("PS2 fastest (1.6x over Petuum); MLlib slowest; DistML not robust");
    let kddb = "lr --preset kddb --iters 150 --seed 1 --lr 5";
    panel("fig10a", kddb, &backends);

    banner("Figure 10(b)", "LR-SGD on KDD12");
    paper_says("PS2 2.3x over Petuum");
    let kdd12 = "lr --preset kdd12 --iters 150 --seed 2 --lr 5";
    panel("fig10b", kdd12, &backends);
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

    // Gender's 100 nnz per row, with the histogram table kept laptop-sized:
    // fewer features, same shape. The tree shape is `gbdt`'s default.
    let gender = "gbdt --rows 16000 --dim 800 --nnz 100 --seed 5";
    let traces = traces(gender, &["ps2", "xgboost"]);
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
    let pubmed = "lda --preset pubmed --topics 100 --iters 10 --seed 1";
    panel("fig12a", pubmed, &["ps2", "petuum", "glint"]);

    banner(
        "Figure 12(b)",
        "LDA on PubMED (small K): PS2 vs Spark MLlib",
    );
    paper_says("MLlib needs 6894s to converge; PS2 is 17x faster");
    let pubmed = "lda --preset pubmed --topics 20 --iters 10 --seed 1";
    panel("fig12b", pubmed, &["ps2", "spark"]);

    banner("Figure 12(c)", "LDA on App — the corpus only PS2 handles");
    paper_says("PS2 trains LDA on billions of documents");
    let trace = run("lda --preset app --topics 100 --iters 6 --seed 2").trace;
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
        let per_iter = |b: &str| {
            let spec = format!(
                "lr --rows 20000 --dim {dim} --nnz 30 --backend {b} --optimizer adam --iters 5 --seed 7 --lr 0.01"
            );
            run(&spec).trace.time_per_iteration()
        };
        let (ps2, mllib) = (per_iter("ps2"), per_iter("spark"));
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
