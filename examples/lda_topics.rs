//! LDA topic modelling on PS2 (paper §5.2.4): collapsed Gibbs sampling with
//! the word-topic matrix block-pulled from the servers, compressed on the
//! wire, and sparse count deltas pushed back.
//!
//! ```text
//! cargo run --release --example lda_topics
//! ```

use ps2::{run_ps2, ClusterSpec};
use ps2_data::CorpusGen;
use ps2_ml::lda::{train_lda, LdaBackend, LdaConfig};

fn main() {
    let spec = ClusterSpec {
        workers: 8,
        servers: 4,
    };
    // A corpus generated from 12 ground-truth topics.
    let corpus = CorpusGen::new(1_500, 3_000, 12, 60, 8, 5);

    let (trace, report) = run_ps2(spec, 9, move |ctx, ps2| {
        let cfg = LdaConfig {
            corpus,
            topics: 12, // α = 0.5, β = 0.01 — paper Table 4
            iterations: 15,
        };
        train_lda(ctx, ps2, &cfg, LdaBackend::Ps2Dcv)
    });

    println!("Gibbs sweeps (negative mean token log-likelihood — lower is better):");
    for (i, (secs, loss)) in trace.points.iter().enumerate() {
        println!("  sweep {:>2}: {loss:.4}   ({secs:.1}s simulated)", i + 1);
    }
    let first = trace.points.first().unwrap().1;
    let last = trace.final_loss();
    println!(
        "\nlikelihood improved by {:.1}% over {} sweeps",
        100.0 * (first - last) / first,
        trace.points.len()
    );
    println!(
        "simulated {}, wall {:?}, {} msgs, {:.1} MB",
        report.virtual_time,
        report.wall_time,
        report.total_msgs,
        report.total_bytes as f64 / 1e6
    );
}
