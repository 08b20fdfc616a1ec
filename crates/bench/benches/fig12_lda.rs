//! Figure 12 — LDA comparison (paper §6.3.3).
//!
//! (a) PubMED, K=1000 (scaled to 100): PS2 vs Petuum vs Glint.
//!     Paper: 386 s / 1440 s / 3500 s to converge — PS2 3.7× over Petuum,
//!     9× over Glint (sparse communication + message compression).
//! (b) PubMED, K=100 (scaled to 20): PS2 vs Spark MLlib. Paper: 17×.
//! (c) App (the corpus only PS2 can handle): PS2 alone.

use ps2_bench::{
    banner, common_target, paper_says, print_time_to_loss, print_traces, SERVERS, WORKERS,
};
use ps2_core::{run_ps2, ClusterSpec};
use ps2_data::presets;
use ps2_ml::lda::{train_lda, LdaBackend, LdaConfig};
use ps2_ml::TrainingTrace;

fn run_backend(
    corpus: ps2_data::CorpusGen,
    topics: u32,
    iterations: usize,
    backend: LdaBackend,
) -> TrainingTrace {
    let (trace, _) = run_ps2(
        ClusterSpec {
            workers: WORKERS,
            servers: SERVERS,
        },
        31,
        move |ctx, ps2| {
            let cfg = LdaConfig {
                corpus,
                topics, // α = 0.5, β = 0.01 (Table 4)
                iterations,
            };
            train_lda(ctx, ps2, &cfg, backend)
        },
    );
    trace
}

fn main() {
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
    .map(|b| run_backend(pubmed.gen.clone(), 100, 10, b))
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
        .map(|b| run_backend(pubmed.gen.clone(), 20, 10, b))
        .collect();
    let refs: Vec<&TrainingTrace> = traces.iter().collect();
    print_traces("fig12b", &refs);
    print_time_to_loss(&refs, common_target(&refs));

    banner("Figure 12(c)", "LDA on App — the corpus only PS2 handles");
    paper_says("PS2 trains LDA on billions of documents");
    let app = presets::app(WORKERS, 2);
    let trace = run_backend(app.gen.clone(), 100, 6, LdaBackend::Ps2Dcv);
    print_traces("fig12c", &[&trace]);
}
