//! Behavioural tests for the DCV abstraction: the paper's Table 1 operators,
//! co-location semantics, and worker-side usage from RDD tasks.

use std::sync::Arc;

use ps2_core::{run_ps2, ClusterSpec, Dcv, ElemOp, PsBatch, SimCtx, ZipSegs};

fn spec(w: usize, s: usize) -> ClusterSpec {
    ClusterSpec {
        workers: w,
        servers: s,
    }
}

#[test]
fn derive_yields_colocated_rows_until_exhausted() {
    let ((), _) = run_ps2(spec(2, 3), 1, |ctx, ps2| {
        let a = ps2.dense_dcv(ctx, 100, 3);
        let b = a.derive(ctx);
        let c = b.derive(ctx);
        assert!(a.colocated_with(&b) && a.colocated_with(&c));
        assert_eq!((a.row(), b.row(), c.row()), (0, 1, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = c.derive(ctx);
        }));
        assert!(result.is_err(), "4th derive of dense(_, 3) must panic");
    });
}

#[test]
fn row_ops_pull_push_and_aggregate() {
    let (got, _) = run_ps2(spec(2, 4), 1, |ctx, ps2| {
        let v = ps2.dense_dcv(ctx, 200, 1);
        v.add_sparse(ctx, &[(0, 3.0), (100, 4.0)]);
        let dense: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        v.add_dense(ctx, &dense);
        (
            v.sum(ctx),
            v.nnz(ctx),
            v.norm2(ctx),
            v.pull_indices(ctx, &[0, 1, 100]),
            v.pull(ctx).len(),
        )
    });
    assert_eq!(got.0, 3.0 + 4.0 + 100.0);
    assert_eq!(got.1, 100); // evens, incl. 0 and 100 which also have sparse adds
    assert!(got.2 > 0.0);
    assert_eq!(got.3, vec![4.0, 0.0, 5.0]);
    assert_eq!(got.4, 200);
}

#[test]
fn adam_update_via_zip_matches_scalar_reference() {
    // One Adam step computed (a) server-side via zip and (b) locally.
    let dim = 512u64;
    let (beta1, beta2, eta, eps) = (0.9, 0.999, 0.1, 1e-8);
    let (got, _) = run_ps2(spec(2, 4), 1, move |ctx, ps2| {
        let w = ps2.dense_dcv(ctx, dim, 4);
        let s = w.derive(ctx);
        let v = w.derive(ctx);
        let g = w.derive(ctx);
        w.fill(ctx, 1.0);
        let grads: Vec<f64> = (0..dim).map(|i| (i as f64 / dim as f64) - 0.5).collect();
        g.add_dense(ctx, &grads);
        let t = 1i32;
        w.zip(&[&s, &v, &g]).map_partitions(
            ctx,
            Arc::new(move |zs: &mut ZipSegs<'_>| {
                let [w, s, v, g] = &mut zs.segs[..] else {
                    panic!("expected 4 segments")
                };
                for i in 0..w.len() {
                    s[i] = beta1 * s[i] + (1.0 - beta1) * g[i] * g[i];
                    v[i] = beta2 * v[i] + (1.0 - beta2) * g[i];
                    let s_hat = s[i] / (1.0 - beta1.powi(t));
                    let v_hat = v[i] / (1.0 - beta2.powi(t));
                    w[i] -= eta * v_hat / (s_hat.sqrt() + eps);
                }
            }),
            10,
        );
        (w.pull(ctx), grads)
    });
    let (w_ps, grads) = got;
    for (i, g) in grads.iter().enumerate() {
        let s = (1.0 - beta2) * g; // v in reference naming
        let sq = (1.0 - beta1) * g * g;
        let s_hat = sq / (1.0 - beta1);
        let v_hat = s / (1.0 - beta2);
        let expect = 1.0 - eta * v_hat / (s_hat.sqrt() + eps);
        assert!(
            (w_ps[i] - expect).abs() < 1e-9,
            "dim {i}: {} vs {expect}",
            w_ps[i]
        );
    }
}

#[test]
fn elementwise_assign_ops() {
    let (got, _) = run_ps2(spec(2, 3), 1, |ctx, ps2| {
        let a = ps2.dense_dcv(ctx, 60, 4);
        let b = a.derive(ctx).filled(ctx, 6.0);
        let c = a.derive(ctx).filled(ctx, 3.0);
        let d = a.derive(ctx);
        a.fill(ctx, 1.0);
        d.assign_add(ctx, &b, &c);
        let add = d.sum(ctx);
        d.assign_sub(ctx, &b, &c);
        let sub = d.sum(ctx);
        d.assign_mul(ctx, &b, &c);
        let mul = d.sum(ctx);
        d.assign_div(ctx, &b, &c);
        let div = d.sum(ctx);
        d.copy_from(ctx, &b);
        d.scale(ctx, 0.5);
        let half = d.sum(ctx);
        (add, sub, mul, div, half)
    });
    assert_eq!(got.0, 9.0 * 60.0);
    assert_eq!(got.1, 3.0 * 60.0);
    assert_eq!(got.2, 18.0 * 60.0);
    assert_eq!(got.3, 2.0 * 60.0);
    assert_eq!(got.4, 3.0 * 60.0);
}

#[test]
fn dot_and_iaxpy_between_derived_vectors() {
    let (got, _) = run_ps2(spec(2, 4), 1, |ctx, ps2| {
        let u = ps2.dense_dcv(ctx, 128, 2);
        let v = u.derive(ctx);
        u.fill(ctx, 0.5);
        v.fill(ctx, 4.0);
        let d = u.dot(ctx, &v);
        u.iaxpy(ctx, &v, 0.25);
        (d, u.pull(ctx))
    });
    assert_eq!(got.0, 0.5 * 4.0 * 128.0);
    assert!(got.1.iter().all(|&x| (x - 1.5).abs() < 1e-12));
}

/// `dot_in`s beside a `map_partitions_in` zip share one envelope per
/// server, run after the zip (subs run in order), and equal bare `dot`s.
#[test]
fn batched_dots_share_one_envelope_and_match_bare_dots() {
    let servers = 4;
    let ((batched, bare), report) = run_ps2(spec(2, servers), 1, |ctx, ps2| {
        let u = ps2.dense_dcv(ctx, 300, 3);
        let v = u.derive(ctx);
        let w = u.derive(ctx);
        let ramp: Vec<f64> = (0..300).map(|i| i as f64 / 7.0).collect();
        u.add_dense(ctx, &ramp);
        v.fill(ctx, 0.5);
        let mut batch = PsBatch::new();
        // w = u - v, then dots that read it.
        w.zip(&[&u, &v]).map_partitions_in(
            ctx,
            &mut batch,
            Arc::new(|zs: &mut ZipSegs<'_>| {
                for e in 0..zs.segs[0].len() {
                    zs.segs[0][e] = zs.segs[1][e] - zs.segs[2][e];
                }
            }),
            1,
        );
        let pairs = [(&u, &v), (&w, &u), (&w, &w)];
        let results: Vec<_> = pairs.iter().map(|(a, b)| a.dot_in(&mut batch, b)).collect();
        batch.flush(ctx);
        let batched: Vec<f64> = results.iter().map(|r| r.take()).collect();
        let bare: Vec<f64> = pairs.iter().map(|(a, b)| a.dot(ctx, b)).collect();
        (batched, bare)
    });
    assert_eq!(batched, bare);
    let ramp_sum: f64 = (0..300).map(|i| i as f64 / 7.0).sum();
    assert!((batched[0] - 0.5 * ramp_sum).abs() < 1e-9);
    let m = &report.metrics;
    assert_eq!(m.counter("ps.client.op.envelope.count"), 1);
    assert_eq!(m.counter("ps.client.op.envelope.reqs"), servers as u64);
    assert_eq!(m.counter("ps.client.op.dot.count"), 3, "only the bare dots");
    assert_eq!(m.counter("ps.client.op.zip.count"), 0);
}

#[test]
fn zip_map_reduce_finds_max_gain() {
    let (got, _) = run_ps2(spec(2, 4), 1, |ctx, ps2| {
        let grad = ps2.dense_dcv(ctx, 100, 2);
        let hess = grad.derive(ctx).filled(ctx, 2.0);
        grad.add_sparse(ctx, &[(42, 10.0), (7, 3.0)]);
        // gain(i) = g[i]^2 / h[i]; max at i=42: 100/2 = 50.
        grad.zip(&[&hess]).map_reduce(
            ctx,
            Arc::new(|segs: &[&[f64]], _lo| {
                segs[0]
                    .iter()
                    .zip(segs[1])
                    .map(|(g, h)| g * g / h)
                    .fold(f64::NEG_INFINITY, f64::max)
            }),
            3,
            f64::NEG_INFINITY,
            f64::max,
        )
    });
    assert_eq!(got, 50.0);
}

#[test]
fn misaligned_dcvs_are_correct_but_slower() {
    let dim = 300_000u64;
    let (got, _) = run_ps2(spec(2, 4), 1, move |ctx, ps2| {
        let a = ps2.dense_dcv(ctx, dim, 2);
        let a2 = a.derive(ctx).filled(ctx, 2.0);
        a.fill(ctx, 1.0);
        let b = ps2.dense_dcv_misaligned(ctx, dim, 1);
        b.fill(ctx, 2.0);
        assert!(!a.colocated_with(&b));

        let t0 = ctx.now();
        let fast = a.dot(ctx, &a2); // co-located
        let t1 = ctx.now();
        let slow = a.dot(ctx, &b); // misaligned
        let t2 = ctx.now();
        (fast, slow, (t1 - t0), (t2 - t1))
    });
    assert_eq!(got.0, 2.0 * dim as f64);
    assert_eq!(got.1, 2.0 * dim as f64);
    assert!(
        got.3.as_nanos() > 2 * got.2.as_nanos(),
        "misaligned dot must pay shuffle: {:?} vs {:?}",
        got.2,
        got.3
    );
}

#[test]
fn workers_use_dcvs_inside_rdd_tasks() {
    // The Figure 3 training-loop skeleton: workers pull the model, compute,
    // and push gradients from inside map_partitions; the barrier is the
    // action itself.
    let (got, _) = run_ps2(spec(4, 4), 1, |ctx, ps2| {
        let w: Dcv = ps2.dense_dcv(ctx, 64, 2);
        let g = w.derive(ctx);
        w.fill(ctx, 2.0);
        let data = ps2.spark.source(8, |part, _w| vec![part as u64 + 1]);
        let gg = g.clone();
        let ww = w.clone();
        ps2.spark
            .for_each_partition(ctx, &data, move |items, wctx| {
                let model = ww.pull(wctx.sim);
                assert_eq!(model[0], 2.0);
                let x = items[0] as f64;
                gg.add_sparse(wctx.sim, &[(0, x)]);
            })
            .unwrap();
        g.pull_indices(ctx, &[0])
    });
    // Sum over partitions of (part+1) = 1+2+...+8 = 36.
    assert_eq!(got, vec![36.0]);
}

#[test]
fn block_ops_roundtrip_on_shared_matrix() {
    let (got, _) = run_ps2(spec(2, 3), 1, |ctx, ps2| {
        let base = ps2.dense_dcv(ctx, 50, 4);
        let rows = [0u32, 1, 2, 3];
        base.push_block(ctx, &rows, &[(10, vec![1.0, 2.0, 3.0, 4.0])]);
        base.pull_block(ctx, &rows, &[9, 10, 11])
    });
    assert_eq!(got[0], vec![0.0; 4]);
    assert_eq!(got[1], vec![1.0, 2.0, 3.0, 4.0]);
    assert_eq!(got[2], vec![0.0; 4]);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (sum, report) = run_ps2(spec(3, 3), 77, |ctx, ps2| {
            let v = ps2.dense_dcv(ctx, 1000, 2);
            let u = v.derive(ctx);
            v.fill(ctx, 1.0);
            u.fill(ctx, 2.0);
            for _ in 0..5 {
                v.iaxpy(ctx, &u, 0.1);
            }
            v.dot(ctx, &u)
        });
        (sum, report.virtual_time, report.total_bytes)
    };
    assert_eq!(run(), run());
}

/// Regression guard: an op on a DCV must not disturb sibling rows.
#[test]
fn ops_are_row_isolated() {
    let (got, _) = run_ps2(spec(2, 4), 1, |ctx, ps2| {
        let a = ps2.dense_dcv(ctx, 40, 3);
        let b = a.derive(ctx).filled(ctx, 5.0);
        let c = a.derive(ctx).filled(ctx, 7.0);
        a.fill(ctx, 1.0);
        a.scale(ctx, 3.0);
        b.iaxpy(ctx, &c, 1.0);
        b.assign_elem(ctx, &b, &c, ElemOp::Sub);
        (a.sum(ctx), b.sum(ctx), c.sum(ctx))
    });
    assert_eq!(got.0, 120.0);
    assert_eq!(got.1, 200.0); // (5+7) - 7 = 5 per elem
    assert_eq!(got.2, 280.0);
}

/// SimCtx type is exposed for custom topologies.
#[allow(dead_code)]
fn type_check(_ctx: &mut SimCtx) {}
