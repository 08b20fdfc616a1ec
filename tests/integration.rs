//! Cross-crate integration tests against the facade: full training
//! pipelines exercising dataflow + PS + DCV + ML together, end to end.

use ps2::ml::lr::{train_lr, LrBackend, LrConfig};
use ps2::ml::optim::Optimizer;
use ps2::{run_ps2, ClusterSpec, ElemOp, RunOutput, RunReport, RunSpec, SimBuilder, SimTime};
use ps2_data::{presets, SparseDatasetGen};

mod common;
use common::{assert_same_virtual_run, virtual_json};

/// The LR run three tests below repeat.
fn lr_5x3() -> RunOutput {
    let spec = "lr --rows 2000 --dim 5000 --nnz 10 --workers 5 --servers 3 --iters 10 --seed 7";
    spec.parse::<RunSpec>().unwrap().run(SimBuilder::new())
}

fn spec(w: usize, s: usize) -> ClusterSpec {
    ClusterSpec {
        workers: w,
        servers: s,
    }
}

#[test]
fn facade_quickstart_shape() {
    let (out, report) = run_ps2(spec(4, 4), 42, |ctx, ps2| {
        let w = ps2.dense_dcv(ctx, 10_000, 4);
        let g = w.derive(ctx);
        g.add_sparse(ctx, &[(1, 1.0), (9_999, -2.0)]);
        w.iaxpy(ctx, &g, -0.5);
        (w.nnz(ctx), w.sum(ctx), w.norm2(ctx))
    });
    assert_eq!(out.0, 2);
    assert!((out.1 - 0.5).abs() < 1e-12); // -0.5*1 + -0.5*-2
    assert!(out.2 > 0.0);
    assert!(report.total_msgs > 0);
}

#[test]
fn full_lr_pipeline_learns_on_a_preset() {
    let (trace, report) = run_ps2(spec(8, 8), 5, |ctx, ps2| {
        let mut preset = presets::kddb(8, 3);
        preset.gen.rows = 4_000; // trim for test speed
        preset.gen.dim = 50_000;
        let mut cfg = LrConfig::new(preset.gen, Optimizer::Sgd, 40);
        cfg.hyper.learning_rate = 5.0;
        cfg.hyper.mini_batch_fraction = 0.05;
        train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv)
    });
    assert!(trace.is_sane());
    assert!(
        trace.final_loss() < 0.95 * trace.points[0].1,
        "{:?} -> {:?}",
        trace.points.first(),
        trace.points.last()
    );
    assert!(report.virtual_time > SimTime::ZERO);
    assert_eq!(report.dropped_msgs, 0);
}

#[test]
fn end_to_end_run_is_deterministic_across_processes_of_the_harness() {
    let (a, b) = (lr_5x3(), lr_5x3());
    assert_eq!(
        a.trace.points, b.trace.points,
        "loss curves must be bit-identical"
    );
    assert_same_virtual_run(&a.report, &b.report);
}

#[test]
fn same_seed_runs_emit_byte_identical_metrics_json() {
    let a = lr_5x3().report;
    let b = lr_5x3().report;
    // `wall_ms` is the report's one deliberate wall-clock field; everything
    // else must be byte-identical across same-seed runs.
    let json = RunReport::from_sim(&a).to_json();
    assert!(json.contains("\"wall_ms\""), "report must carry wall_ms");
    assert_eq!(
        virtual_json(&a),
        virtual_json(&b),
        "same-seed JSON run reports must be byte-identical apart from wall_ms"
    );
    assert!(
        json.contains("\"ops\""),
        "report must carry the per-op breakdown"
    );
}

#[test]
fn per_op_shares_sum_to_virtual_time() {
    let run = RunReport::from_sim(&lr_5x3().report);
    assert!(!run.ops.is_empty(), "an LR run must record client op spans");
    let share_sum: u64 = run.ops.iter().map(|o| o.share_ns).sum();
    let vt = run.virtual_time.as_nanos();
    // Proportional allocation rounds each share down, so the sum may fall
    // short of the job's virtual time by at most one nanosecond per op row.
    assert!(
        vt - share_sum <= run.ops.len() as u64,
        "op shares must sum to the run's virtual time within rounding: \
         shares {share_sum} vs virtual {vt}"
    );
}

#[test]
fn training_survives_chaos() {
    // Task failures + an executor loss + a server loss mid-training.
    let (final_loss, _) = run_ps2(spec(6, 4), 13, |ctx, ps2| {
        ps2.spark.failure.task_failure_prob = 0.05;
        ps2.spark.failure.max_task_attempts = 100;
        let gen = SparseDatasetGen::new(3_000, 4_000, 12, 6, 3);
        let mut cfg = LrConfig::new(gen, Optimizer::Sgd, 8);
        cfg.hyper.learning_rate = 3.0;
        cfg.hyper.mini_batch_fraction = 0.05;
        let t1 = train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv);

        // Checkpoint, then kill one server and one executor.
        ps2.ps.checkpoint_all(ctx);
        let server = ps2.ps.route().resolve(0);
        ctx.kill(server);
        let exec = ps2.spark.executors()[1];
        ctx.kill(exec);
        ctx.advance(SimTime::from_millis(1));
        let recovered = ps2.ps.recover_dead_servers(ctx);
        assert_eq!(recovered, vec![0]);

        // Keep training after recovery.
        let t2 = train_lr(ctx, ps2, &cfg, LrBackend::Ps2Dcv);
        assert!(ps2.spark.task_retries > 0, "chaos must have caused retries");
        (t1.final_loss(), t2.final_loss())
    });
    assert!(final_loss.0.is_finite() && final_loss.1.is_finite());
}

#[test]
fn dcv_operator_table_is_complete() {
    // Every operator from the paper's Table 1 is callable on the facade.
    let ((), _) = run_ps2(spec(2, 3), 1, |ctx, ps2| {
        let v = ps2.dense_dcv(ctx, 100, 6);
        let u = v.derive(ctx); // creation: derive
        let x = v.derive(ctx).filled(ctx, 1.0);
        // row access
        v.add_dense(ctx, &vec![1.0; 100]); // push
        v.add_sparse(ctx, &[(5, 1.0)]);
        let _ = v.pull(ctx); // pull
        let _ = v.pull_indices(ctx, &[1, 5]);
        let _ = v.sum(ctx);
        let _ = v.nnz(ctx);
        let _ = v.norm2(ctx);
        // column access
        let _ = v.dot(ctx, &u);
        v.iaxpy(ctx, &u, 0.5); // axpy
        u.copy_from(ctx, &v); // copy
        let d = v.derive(ctx);
        d.assign_elem(ctx, &v, &x, ElemOp::Sub); // sub
        d.assign_elem(ctx, &v, &x, ElemOp::Add); // add
        d.assign_elem(ctx, &v, &x, ElemOp::Mul); // mul
        d.assign_elem(ctx, &v, &x, ElemOp::Div); // div
    });
}

#[test]
fn mllib_backend_runs_through_the_facade_too() {
    let (trace, _) = run_ps2(spec(4, 1), 3, |ctx, ps2| {
        let gen = SparseDatasetGen::new(1_000, 2_000, 8, 4, 1);
        let mut cfg = LrConfig::new(gen, Optimizer::Sgd, 5);
        cfg.hyper.mini_batch_fraction = 0.1;
        train_lr(ctx, ps2, &cfg, LrBackend::SparkDriver)
    });
    assert!(trace.is_sane());
    assert!(trace.breakdown.is_some());
}
