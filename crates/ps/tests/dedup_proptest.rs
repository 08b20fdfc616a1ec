//! Duplicate-delivery idempotency (paper §5.3): when a push's reply misses
//! the attempt deadline the fabric resends the identical payload, so a
//! *slow-but-alive* server eventually receives the mutation twice. The
//! server-side op-id dedup table must apply it exactly once — both for a
//! bare request and for one riding an envelope.
//!
//! The episode is driven end-to-end, not by injecting duplicates: a jammer
//! process issues a server-side zip expensive enough (~15 s of simulated
//! compute per server) to outlast the fabric's 10 s attempt timeout, so the
//! push queued behind it genuinely times out, genuinely retries, and both
//! copies genuinely reach the server.

use std::sync::Arc;

use proptest::prelude::*;
use ps2_ps::{deploy_ps, InitKind, Partitioning, PsBatch, PsMaster, ZipMutFn, ZipSegs};
use ps2_simnet::{SimBuilder, SimTime};

/// Zip cost per element, chosen so each server burns ~15 s of virtual time
/// (1000 owned columns × 30 Mflops / 2 Gflops/s) — past the 10 s client
/// attempt timeout, short of the 5-stale-attempts abort.
const JAM_FLOPS_PER_ELEM: u64 = 30_000_000;

/// Returns (pulled row, fabric retries, fabric timeouts) after one
/// jam → push → retry → dedup episode.
fn run_episode(servers: usize, seed: u64, value: f64, enveloped: bool) -> (Vec<f64>, u64, u64) {
    let dim = servers as u64 * 1000;
    let mut sim = SimBuilder::new().seed(seed).build();
    let (server_procs, storage) = deploy_ps(&mut sim, servers, 500e6);
    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut master = PsMaster::new(server_procs, storage);
        let h = master.create_matrix(ctx, dim, 1, Partitioning::Column, InitKind::Zero);
        // Jam every server: a no-op zip whose compute charge keeps each
        // server busy well past the push's attempt deadline. The zip is
        // itself a retried mutation, so it doubles as dedup coverage for
        // the zip path (a double-applied no-op is invisible, but a panic
        // or missing reply is not).
        let jam = h.clone();
        ctx.spawn_daemon("jammer", move |jctx| {
            let f: ZipMutFn = Arc::new(|_zs: &mut ZipSegs<'_>| {});
            jam.zip(jctx, &[0], f, JAM_FLOPS_PER_ELEM);
        });
        // Let the jam reach the servers before the push does.
        ctx.advance(SimTime::from_secs_f64(1.0));
        let update = vec![value; dim as usize];
        if enveloped {
            // Two half-pushes make a two-op batch, which flushes as one
            // envelope per server.
            let half: Vec<f64> = update.iter().map(|v| v / 2.0).collect();
            let mut batch = PsBatch::new();
            h.push_dense_in(ctx, &mut batch, 0, &half);
            h.push_dense_in(ctx, &mut batch, 0, &half);
            batch.flush(ctx);
        } else {
            h.push_dense(ctx, 0, &update);
        }
        h.pull_row(ctx, 0)
    });
    let report = sim.run().unwrap();
    (
        out.take(),
        report.metrics.counter("ps.client.retries"),
        report.metrics.counter("ps.client.timeouts"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A bare push whose reply times out is retried and applied exactly
    /// once.
    #[test]
    fn retried_bare_push_applies_once(
        servers in 1usize..4,
        seed in 0u64..1_000,
        value in 0.5f64..10.0
    ) {
        let (pulled, retries, timeouts) = run_episode(servers, seed, value, false);
        // The episode must actually exercise the retry path — otherwise
        // this test silently degrades into plain push/pull.
        prop_assert!(retries >= 1, "no retry happened (timeouts={timeouts})");
        prop_assert!(timeouts >= 1);
        prop_assert_eq!(pulled.len() as u64, servers as u64 * 1000);
        for got in pulled {
            prop_assert!(got == value, "push applied {} times", got / value);
        }
    }

    /// The same episode with the push riding an envelope: the retried
    /// container must dedup per sub-request.
    #[test]
    fn retried_enveloped_push_applies_once(
        servers in 1usize..4,
        seed in 0u64..1_000,
        value in 0.5f64..10.0
    ) {
        let (pulled, retries, timeouts) = run_episode(servers, seed, value, true);
        prop_assert!(retries >= 1, "no retry happened (timeouts={timeouts})");
        prop_assert!(timeouts >= 1);
        prop_assert_eq!(pulled.len() as u64, servers as u64 * 1000);
        for got in pulled {
            prop_assert!(got == value, "push applied {} times", got / value);
        }
    }
}
