//! Behavioural tests for the parameter-server substrate.

use std::sync::Arc;

use ps2_ps::{deploy_ps, AggKind, ElemOp, InitKind, MatrixHandle, Partitioning, PsMaster};
use ps2_simnet::{SimBuilder, SimCtx, SimTime};

const DISK: f64 = 500e6;

/// Run `f` in a coordinator process against `n` PS-servers.
fn with_ps<T, F>(n: usize, seed: u64, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(&mut SimCtx, &mut PsMaster) -> T + Send + 'static,
{
    let mut sim = SimBuilder::new().seed(seed).build();
    let (servers, storage) = deploy_ps(&mut sim, n, DISK);
    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut master = PsMaster::new(servers, storage);
        f(ctx, &mut master)
    });
    sim.run().unwrap();
    out.take()
}

fn dense(ctx: &mut SimCtx, m: &mut PsMaster, dim: u64, rows: u32) -> MatrixHandle {
    m.create_matrix(ctx, dim, rows, Partitioning::Column, InitKind::Zero)
}

#[test]
fn push_then_pull_round_trips_dense() {
    let got = with_ps(4, 1, |ctx, m| {
        let h = dense(ctx, m, 101, 2);
        let values: Vec<f64> = (0..101).map(|i| i as f64 * 0.5).collect();
        h.push_dense(ctx, 0, &values);
        (h.pull_row(ctx, 0), h.pull_row(ctx, 1), values)
    });
    assert_eq!(got.0, got.2);
    assert_eq!(got.1, vec![0.0; 101], "other rows must be untouched");
}

#[test]
fn sparse_push_and_pull_match_dense_state() {
    let got = with_ps(3, 1, |ctx, m| {
        let h = dense(ctx, m, 50, 1);
        let pairs = vec![(3u64, 1.5), (17, -2.0), (20, 4.0), (49, 9.0)];
        h.push_sparse(ctx, 0, &pairs);
        h.push_sparse(ctx, 0, &[(17, 1.0)]); // additive
        let cols: Vec<u64> = vec![0, 3, 17, 20, 49];
        let sparse = h.pull_cols(ctx, 0, &cols);
        let full = h.pull_row(ctx, 0);
        (sparse, full)
    });
    assert_eq!(got.0, vec![0.0, 1.5, -1.0, 4.0, 9.0]);
    assert_eq!(got.1[3], 1.5);
    assert_eq!(got.1[17], -1.0);
    assert_eq!(got.1.iter().filter(|&&v| v != 0.0).count(), 4);
}

#[test]
fn aggregations_sum_nnz_norm2_max() {
    let got = with_ps(4, 1, |ctx, m| {
        let h = dense(ctx, m, 64, 1);
        h.push_sparse(ctx, 0, &[(1, 3.0), (10, -4.0), (63, 12.0)]);
        (
            h.sum(ctx, 0),
            h.nnz(ctx, 0),
            h.norm2(ctx, 0),
            h.agg(ctx, 0, AggKind::Max),
        )
    });
    assert_eq!(got.0, 11.0);
    assert_eq!(got.1, 3);
    assert!((got.2 - 13.0).abs() < 1e-12); // sqrt(9+16+144)
    assert_eq!(got.3, 12.0);
}

#[test]
fn uniform_init_is_deterministic_and_in_range() {
    let pull = |seed: u64| {
        with_ps(3, 5, move |ctx, m| {
            let h = m.create_matrix(
                ctx,
                40,
                1,
                Partitioning::Column,
                InitKind::Uniform {
                    lo: -0.5,
                    hi: 0.5,
                    seed,
                },
            );
            h.pull_row(ctx, 0)
        })
    };
    let a = pull(7);
    let b = pull(7);
    let c = pull(8);
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert!(a.iter().all(|&v| (-0.5..0.5).contains(&v)));
    // Not all equal (it is actually random-ish).
    assert!(a.iter().any(|&v| (v - a[0]).abs() > 1e-9));
}

#[test]
fn server_side_dot_axpy_elem_scale() {
    let got = with_ps(4, 1, |ctx, m| {
        let h = dense(ctx, m, 100, 4);
        let ones = vec![1.0; 100];
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        h.push_dense(ctx, 0, &ones);
        h.push_dense(ctx, 1, &ramp);
        // dot(ones, ramp) = sum 0..99 = 4950
        let d = h.dot(ctx, 0, 1);
        // row2 = ones; row2 += 2*ramp
        h.push_dense(ctx, 2, &ones);
        h.axpy(ctx, 2, 1, 2.0);
        let r2 = h.pull_row(ctx, 2);
        // row3 = row0 * row1 (elementwise)
        h.elem(ctx, 3, 0, 1, ElemOp::Mul);
        h.scale(ctx, 3, 0.5);
        let r3 = h.pull_row(ctx, 3);
        (d, r2, r3)
    });
    assert_eq!(got.0, 4950.0);
    assert_eq!(got.1[10], 21.0);
    assert_eq!(got.2[10], 5.0);
}

#[test]
fn zip_runs_user_update_over_colocated_segments() {
    // Adam-style: w -= eta * g / (sqrt(s) + eps), across three rows.
    let got = with_ps(4, 1, |ctx, m| {
        let h = dense(ctx, m, 64, 3);
        h.fill(ctx, 0, 10.0); // w
        h.fill(ctx, 1, 4.0); // s
        h.fill(ctx, 2, 2.0); // g
        h.zip(
            ctx,
            &[0, 1, 2],
            Arc::new(|zs: &mut ps2_ps::ZipSegs<'_>| {
                let (w, rest) = zs.segs.split_at_mut(1);
                let (s, g) = rest.split_at_mut(1);
                for i in 0..w[0].len() {
                    w[0][i] -= 0.5 * g[0][i] / (s[0][i].sqrt() + 1e-8);
                }
            }),
            4,
        );
        h.pull_row(ctx, 0)
    });
    for v in got {
        assert!((v - 9.5).abs() < 1e-6, "got {v}");
    }
}

#[test]
fn zip_map_folds_partials_with_combiner() {
    let got = with_ps(4, 1, |ctx, m| {
        let h = dense(ctx, m, 100, 2);
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        h.push_dense(ctx, 0, &ramp);
        h.fill(ctx, 1, 2.0);
        // max over i of a[i]*b[i] = 99*2
        let mx = h.zip_map(
            ctx,
            &[0, 1],
            Arc::new(|segs: &[&[f64]], _lo| {
                segs[0]
                    .iter()
                    .zip(segs[1])
                    .map(|(a, b)| a * b)
                    .fold(f64::NEG_INFINITY, f64::max)
            }),
            2,
            f64::NEG_INFINITY,
            f64::max,
        );
        // sum over i of a[i]+b[i] = 4950 + 200
        let sm = h.zip_map(
            ctx,
            &[0, 1],
            Arc::new(|segs: &[&[f64]], _lo| segs[0].iter().zip(segs[1]).map(|(a, b)| a + b).sum()),
            1,
            0.0,
            |a, b| a + b,
        );
        (mx, sm)
    });
    assert_eq!(got.0, 198.0);
    assert_eq!(got.1, 5150.0);
}

#[test]
fn block_ops_serve_lda_access_pattern() {
    let got = with_ps(3, 1, |ctx, m| {
        let h = dense(ctx, m, 30, 4); // 4 topics × 30 words
        let rows = [0u32, 1, 2, 3];
        h.push_block(
            ctx,
            &rows,
            &[
                (2, vec![1.0, 2.0, 3.0, 4.0]),
                (29, vec![9.0, 0.0, 0.0, 1.0]),
            ],
        );

        h.pull_block(ctx, &rows, &[2, 5, 29])
    });
    assert_eq!(got[0], vec![1.0, 2.0, 3.0, 4.0]);
    assert_eq!(got[1], vec![0.0; 4]);
    assert_eq!(got[2], vec![9.0, 0.0, 0.0, 1.0]);
}

#[test]
fn row_partitioned_matrix_serves_petuum_pattern() {
    let got = with_ps(3, 1, |ctx, m| {
        let h = m.create_matrix(ctx, 40, 6, Partitioning::Row, InitKind::Zero);
        let vals: Vec<f64> = (0..40).map(|i| i as f64).collect();
        h.push_dense(ctx, 4, &vals);
        (h.pull_row(ctx, 4), h.sum(ctx, 4), h.pull_row(ctx, 0))
    });
    assert_eq!(got.0.len(), 40);
    assert_eq!(got.0[39], 39.0);
    assert_eq!(got.1, 780.0);
    assert_eq!(got.2, vec![0.0; 40]);
}

#[test]
fn colocated_cross_ops_match_plain_ops() {
    let got = with_ps(4, 1, |ctx, m| {
        let a = dense(ctx, m, 80, 1);
        let b = m.create_matrix(ctx, 80, 1, Partitioning::Column, InitKind::Const(2.0));
        a.push_dense(ctx, 0, &vec![3.0; 80]);
        let d = a.cross_dot(ctx, &b, 0, 0);
        a.cross_elem(ctx, &b, 0, 0, ElemOp::Mul);
        (d, a.pull_row(ctx, 0))
    });
    assert_eq!(got.0, 3.0 * 2.0 * 80.0);
    assert_eq!(got.1, vec![6.0; 80]);
}

#[test]
fn misaligned_cross_dot_is_correct_but_moves_bytes_between_servers() {
    let run = |rotated: bool| {
        let mut sim = SimBuilder::new().seed(3).build();
        let (servers, storage) = deploy_ps(&mut sim, 4, DISK);
        let out = sim.spawn_collect("coordinator", move |ctx| {
            let mut m = PsMaster::new(servers, storage);
            let dim = 400_000u64;
            let a = m.create_matrix(ctx, dim, 1, Partitioning::Column, InitKind::Const(1.0));
            let p = if rotated {
                Partitioning::ColumnRotated(1)
            } else {
                Partitioning::Column
            };
            let b = m.create_matrix(ctx, dim, 1, p, InitKind::Const(2.0));
            let before = ctx.now();
            let d = a.cross_dot(ctx, &b, 0, 0);
            (d, ctx.now() - before)
        });
        sim.run().unwrap();
        out.take()
    };
    let (d_co, t_co) = run(false);
    let (d_mis, t_mis) = run(true);
    assert_eq!(d_co, 800_000.0);
    assert_eq!(d_mis, 800_000.0, "misalignment must not change the result");
    assert!(
        t_mis.as_nanos() > 2 * t_co.as_nanos(),
        "misaligned dot should pay server-to-server transfers: {t_co:?} vs {t_mis:?}"
    );
}

#[test]
fn compression_halves_pull_bytes() {
    let pull_bytes = |compress: bool| {
        let mut sim = SimBuilder::new().seed(4).build();
        let (servers, storage) = deploy_ps(&mut sim, 2, DISK);
        let out = sim.spawn_collect("coordinator", move |ctx| {
            let mut m = PsMaster::new(servers, storage);
            let mut h = m.create_matrix(ctx, 100_000, 1, Partitioning::Column, InitKind::Zero);
            if compress {
                // What `Dcv::compressed` does: 4-byte values on this handle.
                h.value_bytes = 4;
            }
            let _ = h.pull_row(ctx, 0);
        });
        let report = sim.run().unwrap();
        out.take();
        report.total_bytes
    };
    let raw = pull_bytes(false);
    let packed = pull_bytes(true);
    assert!(
        packed < raw * 6 / 10,
        "compression should cut bytes roughly in half: {raw} vs {packed}"
    );
}

#[test]
fn checkpoint_and_restore_recover_server_state() {
    let got = with_ps(3, 9, |ctx, m| {
        let h = dense(ctx, m, 90, 2);
        let vals: Vec<f64> = (0..90).map(|i| (i * i) as f64).collect();
        h.push_dense(ctx, 0, &vals);
        h.fill(ctx, 1, 7.0);
        m.checkpoint_all(ctx);
        // Writes after the checkpoint are lost on failure.
        h.push_sparse(ctx, 0, &[(0, 1000.0)]);
        // Kill one server, recover it from the checkpoint.
        let victim = h.route.resolve(1);
        ctx.kill(victim);
        ctx.advance(SimTime::from_millis(10));
        let slots = m.recover_dead_servers(ctx);
        let row0 = h.pull_row(ctx, 0);
        let row1 = h.pull_row(ctx, 1);
        (slots, row0, row1, m.recoveries())
    });
    assert_eq!(got.0, vec![1]);
    // Row contents equal the checkpointed values everywhere.
    let expect: Vec<f64> = (0..90).map(|i| (i * i) as f64).collect();
    // Column 0 lives on slot 0 which never failed, so the post-checkpoint
    // push survives there.
    assert_eq!(got.1[0], 1000.0);
    assert_eq!(&got.1[1..], &expect[1..]);
    assert_eq!(got.2, vec![7.0; 90]);
    assert_eq!(got.3, 1);
}

#[test]
fn checkpointed_recovery_reports_no_silent_reinit() {
    let got = with_ps(3, 9, |ctx, m| {
        let h = dense(ctx, m, 90, 1);
        h.fill(ctx, 0, 2.0);
        m.checkpoint_all(ctx);
        ctx.kill(h.route.resolve(1));
        ctx.advance(SimTime::from_millis(1));
        m.recover_dead_servers(ctx);
        (h.pull_row(ctx, 0), m.recoveries(), m.silent_reinits())
    });
    assert_eq!(got.0, vec![2.0; 90]);
    assert_eq!(got.1, 1);
    assert_eq!(got.2, 0, "a checkpointed restore is not a re-init");
}

#[test]
fn recovery_without_checkpoint_reinitializes() {
    let got = with_ps(2, 9, |ctx, m| {
        let h = dense(ctx, m, 20, 1);
        h.push_dense(ctx, 0, &[5.0; 20]);
        let victim = h.route.resolve(0);
        ctx.kill(victim);
        ctx.advance(SimTime::from_millis(1));
        m.recover_dead_servers(ctx);
        (h.pull_row(ctx, 0), m.recoveries(), m.silent_reinits())
    });
    // Slot 0's half is re-initialized to zero; slot 1's half survives.
    assert_eq!(&got.0[0..10], &[0.0; 10]);
    assert_eq!(&got.0[10..20], &[5.0; 10]);
    // The restore found nothing in storage: that must be *visible*, not a
    // silently discarded RestoreReq result.
    assert_eq!((got.1, got.2), (1, 1));
}

#[test]
fn client_request_to_a_dead_server_triggers_recovery_and_retries() {
    // Nobody calls recover_dead_servers explicitly: the pull itself times
    // out, runs fleet recovery through the handle, re-resolves the slot and
    // retries against the replacement.
    let got = with_ps(3, 9, |ctx, m| {
        let h = dense(ctx, m, 90, 1);
        let vals: Vec<f64> = (0..90).map(|i| i as f64).collect();
        h.push_dense(ctx, 0, &vals);
        m.checkpoint_all(ctx);
        ctx.kill(h.route.resolve(1));
        let before = ctx.now();
        let row = h.pull_row(ctx, 0);
        (row, vals, m.recoveries(), ctx.now() - before)
    });
    assert_eq!(got.0, got.1, "retried pull must return the full row");
    assert_eq!(got.2, 1, "the client itself must have recovered the server");
    assert!(
        got.3 >= SimTime::from_secs_f64(10.0),
        "recovery is reached through the attempt deadline, got {:?}",
        got.3
    );
}

#[test]
fn client_push_retry_after_server_loss_is_not_double_applied() {
    // A push whose target dies mid-operation is retried; the op-id dedup
    // plus checkpoint restore must leave each surviving delta applied
    // exactly once on the replacement.
    let got = with_ps(2, 9, |ctx, m| {
        let h = dense(ctx, m, 20, 1);
        h.fill(ctx, 0, 1.0);
        m.checkpoint_all(ctx);
        ctx.kill(h.route.resolve(1));
        // This push times out on slot 1, recovers the server (restoring the
        // all-ones checkpoint) and resends the slot-1 segment.
        h.push_dense(ctx, 0, &[1.0; 20]);
        (h.pull_row(ctx, 0), m.recoveries())
    });
    assert_eq!(got.0, vec![2.0; 20], "exactly one application per element");
    assert_eq!(got.1, 1);
}

#[test]
fn row_access_parallelism_beats_single_server() {
    // Many workers pulling a wide dense row concurrently: with S servers the
    // aggregate server-side NIC bandwidth is S×, so the makespan drops (the
    // paper's fix for the single-point problem). A single server serializes
    // all workers on its out-NIC.
    let time_pull = |servers: usize| {
        let workers = 8usize;
        let mut sim = SimBuilder::new().seed(2).build();
        let (srv, storage) = deploy_ps(&mut sim, servers, DISK);
        // Worker ProcIds are deterministic: servers, storage, coordinator,
        // then the workers in spawn order.
        let worker_ids: Vec<ps2_simnet::ProcId> = (0..workers)
            .map(|w| ps2_simnet::ProcId(servers + 2 + w))
            .collect();
        sim.spawn("coordinator", move |ctx| {
            let mut m = PsMaster::new(srv, storage);
            let h = m.create_matrix(ctx, 4_000_000, 1, Partitioning::Column, InitKind::Zero);
            for &w in &worker_ids {
                ctx.send(w, 7, h.clone(), 64);
            }
        });
        let mut slots = Vec::new();
        for i in 0..workers {
            let slot = sim.spawn_collect(&format!("worker-{i}"), move |ctx| {
                let env = ctx.recv();
                let h: MatrixHandle = env.downcast::<MatrixHandle>();
                let _ = h.pull_row(ctx, 0);
                ctx.now()
            });
            slots.push(slot);
        }
        sim.run().unwrap();
        slots.into_iter().map(|s| s.take()).max().unwrap()
    };
    let t1 = time_pull(1);
    let t8 = time_pull(8);
    assert!(
        t1.as_nanos() > 3 * t8.as_nanos(),
        "8 servers should be much faster for 8 concurrent pullers: {t1:?} vs {t8:?}"
    );
}

#[test]
fn free_matrix_releases_server_memory() {
    let got = with_ps(2, 1, |ctx, m| {
        let h = dense(ctx, m, 10, 1);
        m.free_matrix(ctx, &h);
        // Creating a new matrix reuses the id space without clashing.
        let h2 = dense(ctx, m, 10, 1);
        h2.pull_row(ctx, 0)
    });
    assert_eq!(got, vec![0.0; 10]);
}
