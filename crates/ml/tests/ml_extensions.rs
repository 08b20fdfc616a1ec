//! Tests for the extension workloads: Factorization Machines and the
//! MLlib* (AllReduce model-averaging) baseline.

use ps2_core::{run_ps2, ClusterSpec};
use ps2_data::SparseDatasetGen;
use ps2_ml::fm::{fm_margin, train_fm, FmConfig};
use ps2_ml::lr::{train_lr, train_lr_mllib_star, LrBackend, LrConfig};
use ps2_ml::optim::Optimizer;

fn spec(w: usize, s: usize) -> ClusterSpec {
    ClusterSpec {
        workers: w,
        servers: s,
    }
}

#[test]
fn fm_margin_matches_naive_pairwise_formula() {
    use std::sync::Arc;
    let ex = ps2_data::Example {
        label: 1.0,
        features: Arc::new(vec![(0, 1.0), (1, 2.0), (2, 0.5)]),
    };
    let w = vec![0.1, -0.2, 0.3];
    let v = vec![vec![0.5, 0.1, -0.3], vec![-0.2, 0.4, 0.6]]; // k = 2
    let fast = fm_margin(&ex, &w, &v);
    // Naive: Σ w_i x_i + Σ_{i<j} ⟨v_i, v_j⟩ x_i x_j.
    let xs = [1.0, 2.0, 0.5];
    let mut naive = w.iter().zip(&xs).map(|(a, b)| a * b).sum::<f64>();
    for i in 0..3 {
        for j in (i + 1)..3 {
            let dot: f64 = (0..2).map(|f| v[f][i] * v[f][j]).sum();
            naive += dot * xs[i] * xs[j];
        }
    }
    assert!((fast - naive).abs() < 1e-12, "{fast} vs {naive}");
}

#[test]
fn fm_converges_on_ps2() {
    let (trace, _) = run_ps2(spec(4, 4), 61, |ctx, ps2| {
        let gen = SparseDatasetGen::new(3_000, 1_500, 10, 4, 17);
        let mut cfg = FmConfig::new(gen, 4, 40);
        // Gradients are normalized by batch size; scale the rate to match.
        cfg.learning_rate = 2.0;
        train_fm(ctx, ps2, &cfg)
    });
    assert!(trace.is_sane());
    let first = trace.points[0].1;
    let last = trace.final_loss();
    assert!(last < 0.95 * first, "FM must learn: {first} -> {last}");
}

#[test]
fn fm_uses_block_access_not_full_pulls() {
    // The per-iteration bytes should scale with the batch working set, not
    // with (k+1) × dim.
    let ((bytes_small, bytes_big), _) = run_ps2(spec(2, 2), 61, |ctx, ps2| {
        let run = |ctx: &mut ps2_core::SimCtx, ps2: &mut ps2_core::Ps2Context, dim: u64| {
            let gen = SparseDatasetGen::new(500, dim, 8, 2, 3);
            let cfg = FmConfig::new(gen, 4, 3);
            let before = ctx.now();
            let _ = train_fm(ctx, ps2, &cfg);
            (ctx.now() - before).as_secs_f64()
        };
        let small = run(ctx, ps2, 2_000);
        let big = run(ctx, ps2, 2_000_000); // 1000x wider model
        (small, big)
    });
    assert!(
        bytes_big < 3.0 * bytes_small,
        "block access must not scale with model width: {bytes_small:.4}s vs {bytes_big:.4}s"
    );
}

#[test]
fn mllib_star_converges_and_beats_plain_mllib() {
    let gen = SparseDatasetGen::new(4_000, 150_000, 15, 8, 7);
    let star = {
        let g = gen.clone();
        let (t, _) = run_ps2(spec(8, 1), 3, move |ctx, ps2| {
            let mut cfg = LrConfig::new(g, Optimizer::Sgd, 10);
            cfg.hyper.learning_rate = 3.0;
            cfg.hyper.mini_batch_fraction = 0.05;
            train_lr_mllib_star(ctx, ps2, &cfg)
        });
        t
    };
    let plain = {
        let g = gen.clone();
        let (t, _) = run_ps2(spec(8, 1), 3, move |ctx, ps2| {
            let mut cfg = LrConfig::new(g, Optimizer::Sgd, 10);
            cfg.hyper.learning_rate = 3.0;
            cfg.hyper.mini_batch_fraction = 0.05;
            train_lr(ctx, ps2, &cfg, LrBackend::SparkDriver)
        });
        t
    };
    assert!(star.is_sane());
    assert!(star.final_loss() < star.points[0].1, "{:?}", star.points);
    assert!(
        star.total_time() < plain.total_time(),
        "AllReduce averaging must beat driver aggregation: {:.3} vs {:.3}",
        star.total_time(),
        plain.total_time()
    );
}

#[test]
fn mllib_star_still_loses_to_ps2_on_wide_sparse_models() {
    // Dense AllReduce moves 2×dim per worker; PS2 moves only the working
    // set. On wide sparse models PS2 wins — the niche MLlib* cannot cover.
    let gen = SparseDatasetGen::new(4_000, 800_000, 12, 8, 9);
    let time = |use_star: bool| {
        let g = gen.clone();
        let (t, _) = run_ps2(spec(8, 8), 3, move |ctx, ps2| {
            let mut cfg = LrConfig::new(g, Optimizer::Sgd, 6);
            cfg.hyper.mini_batch_fraction = 0.02;
            if use_star {
                train_lr_mllib_star(ctx, ps2, &cfg)
            } else {
                train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv)
            }
        });
        t.total_time()
    };
    let t_star = time(true);
    let t_ps2 = time(false);
    assert!(
        t_ps2 < t_star,
        "PS2 should win on wide sparse models: {t_ps2:.3} vs {t_star:.3}"
    );
}
