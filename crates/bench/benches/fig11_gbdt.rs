//! Figure 11 — GBDT on the Gender dataset: PS2 vs XGBoost (paper §6.3.2).
//!
//! Paper: PS2 builds 100 trees in 2435 s, XGBoost needs 7942 s (3.3×). The
//! bottleneck it blames is XGBoost's AllReduce-based split finding; PS2
//! pushes partial histograms to the servers and finds splits there.
//!
//! Scaled: Gender ÷5000, 10 trees of depth 5 with 50-bin histograms (the
//! per-tree cost is what the figure compares; we also extrapolate to the
//! paper's 100 trees).

use std::io::Write;

use ps2_bench::{banner, csv, paper_says, print_traces, SERVERS, WORKERS};
use ps2_core::{run_ps2, ClusterSpec};
use ps2_data::presets;
use ps2_ml::gbdt::{train_gbdt, GbdtBackend, GbdtConfig};
use ps2_ml::hyper::GbdtHyper;
use ps2_ml::TrainingTrace;

fn main() {
    banner("Figure 11", "GBDT on Gender: PS2 vs XGBoost (AllReduce)");
    paper_says("100 trees: PS2 2435s vs XGBoost 7942s (3.3x)");

    let hyper = GbdtHyper {
        num_trees: 10,
        max_depth: 5,
        histogram_bins: 50,
    };
    let mut traces: Vec<TrainingTrace> = Vec::new();
    let mut per_tree = Vec::new();
    for backend in [GbdtBackend::Ps2Dcv, GbdtBackend::XgboostStyle] {
        let mut preset = presets::gender(WORKERS, 5);
        // Keep the histogram table laptop-sized: fewer features, same shape.
        preset.gen.dim = 800;
        preset.gen.rows = 16_000;
        let gen = preset.gen.clone();
        let (out, _) = run_ps2(
            ClusterSpec {
                workers: WORKERS,
                servers: SERVERS,
            },
            21,
            move |ctx, ps2| {
                let cfg = GbdtConfig {
                    dataset: gen,
                    hyper,
                };
                train_gbdt(ctx, ps2, &cfg, backend)
            },
        );
        let (trace, trees) = out;
        assert_eq!(trees.len(), hyper.num_trees);
        per_tree.push(trace.time_per_iteration());
        traces.push(trace);
    }

    let refs: Vec<&TrainingTrace> = traces.iter().collect();
    print_traces("fig11", &refs);

    let mut f = csv("fig11_summary.csv");
    writeln!(f, "system,sec_per_tree,sec_100_trees").unwrap();
    println!(
        "\n  {:>12} {:>14} {:>18}",
        "system", "s/tree", "s for 100 trees"
    );
    for (t, &pt) in traces.iter().zip(&per_tree) {
        println!("  {:>12} {:>14.1} {:>18.0}", t.label, pt, pt * 100.0);
        writeln!(f, "{},{:.3},{:.1}", t.label, pt, pt * 100.0).unwrap();
    }
    println!(
        "\n  PS2 speedup over XGBoost: {:.2}x (paper: 3.3x)",
        per_tree[1] / per_tree[0]
    );
}
