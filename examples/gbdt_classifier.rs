//! GBDT classification on PS2 (paper §5.2.3): histogram construction pushed
//! to the parameter servers, split finding server-side, and a comparison
//! run against the AllReduce (XGBoost-style) execution of the same trees.
//!
//! ```text
//! cargo run --release --example gbdt_classifier
//! ```

use ps2::{run_ps2, ClusterSpec};
use ps2_data::SparseDatasetGen;
use ps2_ml::gbdt::{train_gbdt, GbdtBackend, GbdtConfig};
use ps2_ml::hyper::GbdtHyper;

fn main() {
    let spec = ClusterSpec {
        workers: 8,
        servers: 8,
    };
    let dataset = SparseDatasetGen::new(8_000, 200, 20, 8, 13).continuous();
    let hyper = GbdtHyper {
        num_trees: 8,
        max_depth: 4,
        histogram_bins: 32,
    };

    let mut summaries = Vec::new();
    for backend in [GbdtBackend::Ps2Dcv, GbdtBackend::XgboostStyle] {
        let ds = dataset.clone();
        let ((trace, trees), report) = run_ps2(spec.clone(), 3, move |ctx, ps2| {
            let cfg = GbdtConfig { dataset: ds, hyper };
            train_gbdt(ctx, ps2, &cfg, backend)
        });
        println!("\n== {} ==", trace.label);
        for (i, (secs, loss)) in trace.points.iter().enumerate() {
            println!(
                "  tree {:>2}: logloss {loss:.4}   ({secs:.1}s simulated)",
                i + 1
            );
        }
        // Use the model: classify the first few examples.
        let mut correct = 0;
        let n_eval = 200;
        for r in 0..n_eval {
            let ex = dataset.example(r);
            let margin: f64 = trees.iter().map(|t| t.predict(&ex)).sum();
            let pred = if margin >= 0.0 { 1.0 } else { -1.0 };
            if pred == ex.label {
                correct += 1;
            }
        }
        println!(
            "  training accuracy on {n_eval} rows: {:.1}%",
            100.0 * correct as f64 / n_eval as f64
        );
        println!(
            "  simulated {}, wall {:?}, {:.1} MB moved",
            report.virtual_time,
            report.wall_time,
            report.total_bytes as f64 / 1e6
        );
        summaries.push((trace.label.clone(), trace.total_time()));
    }
    println!(
        "\n{} was {:.2}x faster than {} on the simulated cluster",
        summaries[0].0,
        summaries[1].1 / summaries[0].1,
        summaries[1].0
    );
}
