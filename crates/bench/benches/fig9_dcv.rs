//! Figure 9 — effectiveness of the DCV abstraction (paper §6.2).
//!
//! (a) Adam-LR on KDDB: Spark- vs PS- vs PS2- (paper: PS2 15.7× vs Spark,
//!     4.7× vs PS at 0.3 loss).
//! (b) Adam-LR on CTR (much wider model): 55.6× vs Spark, 5× vs PS.
//! (c) DeepWalk on Graph1, 20 servers→paper used few: PS2 5× vs PS.
//! (d) DeepWalk on Graph2 with 30 servers: speedup shrinks to 1.4×.

use ps2_bench::{
    banner, common_target, paper_says, print_time_to_loss, print_traces, SERVERS, WORKERS,
};
use ps2_core::{run_ps2, ClusterSpec};
use ps2_data::presets;
use ps2_ml::deepwalk::{train_deepwalk, DeepWalkBackend, DeepWalkConfig};
use ps2_ml::lr::{train_lr, LrBackend, LrConfig};
use ps2_ml::optim::Optimizer;
use ps2_ml::TrainingTrace;

fn lr_panel(fig: &str, dataset: ps2_data::presets::SparsePreset, iterations: usize) {
    let backends = [
        (LrBackend::Ps2Dcv, "PS2-Adam"),
        (LrBackend::PsPullPush, "PS-Adam"),
        (LrBackend::SparkDriver, "Spark-Adam"),
    ];
    let mut traces: Vec<TrainingTrace> = Vec::new();
    for (backend, _) in backends {
        let gen = dataset.gen.clone();
        let (trace, _) = run_ps2(
            ClusterSpec {
                workers: WORKERS,
                servers: SERVERS,
            },
            9,
            move |ctx, ps2| {
                let mut cfg = LrConfig::new(gen, Optimizer::Adam, iterations);
                cfg.hyper.learning_rate = 0.01;
                train_lr(ctx, ps2, &cfg, backend)
            },
        );
        traces.push(trace);
    }
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

fn main() {
    banner("Figure 9(a)", "Adam-LR on KDDB: Spark- vs PS- vs PS2-");
    paper_says("to 0.3 loss: PS2 59s, PS 277s (4.7x), Spark 926s (15.7x)");
    lr_panel("fig9a", presets::kddb(WORKERS, 1), 60);

    banner("Figure 9(b)", "Adam-LR on CTR (wide model)");
    paper_says("PS2 5x faster than PS-Adam, 55.6x faster than Spark-Adam");
    lr_panel("fig9b", presets::ctr(WORKERS, 2), 20);

    banner("Figure 9(c)", "DeepWalk on Graph1 (few servers)");
    paper_says("PS2-DeepWalk 5x faster than PS-DeepWalk");
    deepwalk_panel("fig9c", presets::graph1(3), 4, 10);

    banner("Figure 9(d)", "DeepWalk on Graph2 with 30 servers");
    paper_says("speedup shrinks to 1.4x: dot partial-gathers grow with servers");
    deepwalk_panel("fig9d", presets::graph2(4), 30, 6);
}
