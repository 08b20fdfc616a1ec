//! Property tests for the consistency layer: the clock service's staleness
//! invariant and the parameter cache's coherence rules.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use ps2_ps::{
    clock_tags, deploy_ps, ClockClient, ClockGrant, ClockReportReq, ClockService, ClockWaitReq,
    ConsistencyMode, InitKind, ParamCache, Partitioning, PsMaster, ZipMutFn, ZipSegs,
};
use ps2_simnet::{ProcId, SimBuilder, SimCtx, SimRuntime, SimTime};

/// One observed grant: `(worker, iteration, min_clock witness)`, pushed in
/// the order the workers were actually released.
type Grant = (usize, u32, u32);

fn spawn_clock(sim: &mut SimRuntime, workers: usize) -> ProcId {
    sim.spawn_agent_daemon("clock", ClockService::new(workers))
}

/// Drive `workers` heterogeneous workers through `iters` iterations under
/// staleness `bound` and return every grant in release order.
fn run_clock_workers(workers: usize, bound: u32, iters: u32, seed: u64) -> Vec<Grant> {
    let mut sim = SimBuilder::new().seed(seed).build();
    let clock = spawn_clock(&mut sim, workers);
    let grants: Arc<Mutex<Vec<Grant>>> = Arc::new(Mutex::new(Vec::new()));
    for w in 0..workers {
        let grants = Arc::clone(&grants);
        sim.spawn(&format!("worker-{w}"), move |ctx| {
            let client = ClockClient::new(clock, w);
            for t in 1..=iters {
                let min = client.wait(ctx, t, bound);
                grants.lock().push((w, t, min));
                // Heterogeneous per-iteration compute: worker w takes
                // (w+1)·10ms, so the fleet spreads out fast.
                ctx.advance(SimTime::from_secs_f64((w + 1) as f64 * 0.010));
                client.report(ctx, t);
            }
        });
    }
    sim.run().expect("clock sim failed");
    let grants = grants.lock();
    grants.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The staleness invariant: under `Ssp { bound: s }` no worker ever
    /// starts iteration `t` unless the slowest clock is ≥ `t − s − 1`. The
    /// grant's `min_clock` is the daemon's own witness of the slowest clock
    /// at release time.
    #[test]
    fn no_grant_violates_the_staleness_bound(
        workers in 2usize..6,
        bound in 0u32..5,
        iters in 3u32..12,
        seed in 1u64..500,
    ) {
        let grants = run_clock_workers(workers, bound, iters, seed);
        // Every worker completed every iteration.
        prop_assert_eq!(grants.len(), workers * iters as usize);
        for &(w, t, min) in &grants {
            prop_assert!(
                min + bound + 1 >= t,
                "worker {} started iteration {} with min clock {} under bound {}",
                w, t, min, bound
            );
        }
    }

    /// `s = 0` reproduces BSP-identical iteration ordering: no worker is
    /// released into iteration `t + 1` before every worker has been
    /// released into (and therefore logged) iteration `t`.
    #[test]
    fn zero_bound_is_a_barrier(
        workers in 2usize..6,
        iters in 3u32..10,
        seed in 1u64..500,
    ) {
        let grants = run_clock_workers(workers, 0, iters, seed);
        for pair in grants.windows(2) {
            prop_assert!(
                pair[1].1 >= pair[0].1,
                "iteration went backwards across the barrier: {:?} then {:?}",
                pair[0], pair[1]
            );
        }
        // Each iteration releases the full fleet exactly once.
        for t in 1..=iters {
            let mut ws: Vec<usize> =
                grants.iter().filter(|g| g.1 == t).map(|g| g.0).collect();
            ws.sort_unstable();
            prop_assert_eq!(ws, (0..workers).collect::<Vec<_>>());
        }
    }
}

/// Raw WAIT for worker 0 with a fixed op id, as a fabric resend would send it.
fn send_wait(ctx: &mut SimCtx, clock: ProcId, start_iter: u32, op_id: u64) -> u64 {
    let req = ClockWaitReq {
        worker: 0,
        start_iter,
        bound: 0,
        op_id,
    };
    ctx.send_request(clock, clock_tags::WAIT, req, 24)
}

fn report_all(ctx: &mut SimCtx, clock: ProcId, workers: usize, done: u32) {
    for worker in 0..workers {
        let req = ClockReportReq { worker, done };
        let _ = ctx.call(clock, clock_tags::REPORT, req, 16);
    }
}

/// A resend of a *blocked* WAIT replaces the stored one: the grant goes to
/// the newest correlation id only, and a wait on the first runs out.
#[test]
fn resent_blocked_wait_is_answered_once_on_its_newest_id() {
    let mut sim = SimBuilder::new().seed(11).build();
    let clock = spawn_clock(&mut sim, 2);
    let out = sim.spawn_collect("worker-0", move |ctx| {
        // Iteration 2 under bound 0 needs every clock at 1: blocked.
        let first = send_wait(ctx, clock, 2, 7);
        let second = send_wait(ctx, clock, 2, 7);
        let deadline = ctx.now() + SimTime::from_millis(50);
        let stale = ctx.recv_reply(&[first], Some(deadline));
        let at_deadline = ctx.now();
        let grant = ctx.recv_reply(&[second], None).expect("newest id granted");
        let again = ctx.recv_reply(&[first], Some(ctx.now() + SimTime::from_secs_f64(1.0)));
        (
            stale.is_none(),
            at_deadline == deadline,
            grant.downcast_ref::<ClockGrant>().min_clock,
            again.is_none(),
        )
    });
    sim.spawn("reporter", move |ctx| {
        ctx.advance(SimTime::from_millis(1));
        report_all(ctx, clock, 2, 1);
    });
    sim.run().unwrap();
    assert_eq!(out.take(), (true, true, 1, true));
}

/// A resend that races its own grant is re-answered at once with the
/// recorded witness, not re-evaluated against the clocks of today.
#[test]
fn resent_granted_wait_is_reanswered_with_the_recorded_min_clock() {
    let mut sim = SimBuilder::new().seed(12).build();
    let clock = spawn_clock(&mut sim, 2);
    let out = sim.spawn_collect("worker-0", move |ctx| {
        let grant = |ctx: &mut SimCtx, op_id| {
            let corr = send_wait(ctx, clock, 1, op_id);
            let env = ctx.recv_reply(&[corr], None).expect("grantable wait");
            env.downcast_ref::<ClockGrant>().min_clock
        };
        let first = grant(ctx, 9);
        report_all(ctx, clock, 2, 3);
        let resend = grant(ctx, 9);
        let fresh = grant(ctx, 10);
        (first, resend, fresh)
    });
    sim.run().unwrap();
    assert_eq!(out.take(), (0, 0, 3));
}

#[test]
fn param_cache_serves_within_the_bound_and_expires_after_it() {
    let mut sim = SimBuilder::new().seed(7).build();
    let (servers, storage) = deploy_ps(&mut sim, 3, 500e6);
    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut master = PsMaster::new(servers, storage);
        let h = master.create_matrix(ctx, 1_000, 1, Partitioning::Column, InitKind::Zero);
        h.push_sparse(ctx, 0, &[(3, 1.0), (500, 2.0), (999, 3.0)]);

        let mut cache = ParamCache::new(ConsistencyMode::Ssp { bound: 2 });
        cache.advance_clock(1);
        let cols = [3u64, 500, 999];
        let v1 = cache.pull_cols(ctx, &h, 0, &cols);
        // Clocks 2 and 3 are within the bound of a clock-1 fetch: both
        // pulls must be cache hits (no change after a server-side write).
        h.push_sparse(ctx, 0, &[(3, 10.0)]);
        cache.advance_clock(2);
        let v2 = cache.pull_cols(ctx, &h, 0, &cols);
        cache.advance_clock(3);
        let v3 = cache.pull_cols(ctx, &h, 0, &cols);
        // Clock 4 is one past the ttl: the entries expire and the re-pull
        // observes the server-side write.
        cache.advance_clock(4);
        let v4 = cache.pull_cols(ctx, &h, 0, &cols);
        (v1, v2, v3, v4)
    });
    let report = sim.run().unwrap();
    let (v1, v2, v3, v4) = out.take();
    assert_eq!(v1, vec![1.0, 2.0, 3.0]);
    assert_eq!(v2, v1, "within the bound the cache must serve stale values");
    assert_eq!(v3, v1);
    assert_eq!(v4, vec![11.0, 2.0, 3.0]);
    // Two fully-cached pulls of three columns each.
    assert_eq!(report.metrics.counter("ps.cache.hit"), 6);
    assert_eq!(report.metrics.counter("ps.cache.miss"), 6);
}

#[test]
fn param_cache_under_bsp_never_serves_across_iterations() {
    let mut sim = SimBuilder::new().seed(8).build();
    let (servers, storage) = deploy_ps(&mut sim, 2, 500e6);
    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut master = PsMaster::new(servers, storage);
        let h = master.create_matrix(ctx, 100, 1, Partitioning::Column, InitKind::Zero);
        h.push_sparse(ctx, 0, &[(7, 1.0)]);
        let mut cache = ParamCache::new(ConsistencyMode::Bsp);
        cache.advance_clock(1);
        let a = cache.pull_cols(ctx, &h, 0, &[7]);
        h.push_sparse(ctx, 0, &[(7, 1.0)]);
        cache.advance_clock(2);
        let b = cache.pull_cols(ctx, &h, 0, &[7]);
        (a, b)
    });
    let report = sim.run().unwrap();
    let (a, b) = out.take();
    assert_eq!(a, vec![1.0]);
    assert_eq!(b, vec![2.0], "BSP must re-pull every iteration");
    assert_eq!(report.metrics.counter("ps.cache.hit"), 0);
}

#[test]
fn param_cache_reads_its_own_writes() {
    let mut sim = SimBuilder::new().seed(9).build();
    let (servers, storage) = deploy_ps(&mut sim, 2, 500e6);
    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut master = PsMaster::new(servers, storage);
        let h = master.create_matrix(ctx, 100, 1, Partitioning::Column, InitKind::Zero);
        let mut cache = ParamCache::new(ConsistencyMode::Ssp { bound: 3 });
        cache.advance_clock(1);
        let before = cache.pull_cols(ctx, &h, 0, &[7, 9]);
        // The worker's own push lands in the cache immediately, even while
        // the wire push is still settling.
        let pending = h.push_sparse_begin(ctx, 0, &[(7, 5.0)]);
        cache.note_push(0, &[(7, 5.0)]);
        let after = cache.pull_cols(ctx, &h, 0, &[7, 9]);
        h.push_wait(ctx, pending);
        (before, after)
    });
    sim.run().unwrap();
    let (before, after) = out.take();
    assert_eq!(before, vec![0.0, 0.0]);
    assert_eq!(after, vec![5.0, 0.0]);
}

/// Zip cost per element that keeps each of three servers (≈ 334 owned
/// columns at 2 Gflop/s) busy ≈ 15 s: past the 10 s attempt timeout, short
/// of the 5-stale-attempts abort.
const JAM_FLOPS_PER_ELEM: u64 = 90_000_000;

#[test]
fn split_phase_push_applies_exactly_once() {
    let mut sim = SimBuilder::new().seed(10).build();
    let (servers, storage) = deploy_ps(&mut sim, 3, 500e6);
    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut master = PsMaster::new(servers, storage);
        let h = master.create_matrix(ctx, 1_000, 1, Partitioning::Column, InitKind::Zero);
        // Jam every server with a no-op zip past the first push's attempt
        // deadline: its acknowledgements are holes that the settle resends,
        // and each server applies the copies of one op-id once.
        let jam = h.clone();
        ctx.spawn_daemon("jammer", move |jctx| {
            let f: ZipMutFn = Arc::new(|_zs: &mut ZipSegs<'_>| {});
            jam.zip(jctx, &[0], f, JAM_FLOPS_PER_ELEM);
        });
        ctx.advance(SimTime::from_secs_f64(1.0));
        // Overlapped pushes across "iterations": begin t+1 before waiting
        // on t, as the pipelined worker loop does.
        let mut inflight = None;
        for t in 1..=5u32 {
            let pairs = vec![(3u64, 1.0), (700, f64::from(t))];
            if let Some(p) = inflight.take() {
                h.push_wait(ctx, p);
            }
            inflight = Some(h.push_sparse_begin(ctx, 0, &pairs));
        }
        if let Some(p) = inflight.take() {
            h.push_wait(ctx, p);
        }
        h.pull_cols(ctx, 0, &[3, 700])
    });
    let report = sim.run().unwrap();
    let got = out.take();
    assert_eq!(got, vec![5.0, 15.0]);
    // Five pushes of two requests each, plus the resent holes.
    let reqs = report.metrics.counter("ps.client.op.push_async.reqs");
    assert!(
        reqs > 10,
        "no hole went through the settle ({reqs} requests)"
    );
}
