//! Property tests for the consistency layer: the clock service's staleness
//! invariant, its WAIT dedup paths, and the split-phase push's
//! read-my-writes and exactly-once guarantees.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use ps2_ps::{
    clock_tags, deploy_ps, ClockClient, ClockGrant, ClockReportReq, ClockService, ClockWaitReq,
    InitKind, Partitioning, PsMaster, ZipMutFn, ZipSegs,
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

/// Read-my-writes through server order: a worker's push is sent before its
/// next pull, simnet delivers one link in send order (a NIC's out- and
/// in-free clocks are monotone), and a server agent runs requests in
/// arrival order — so a pull issued after an unsettled push observes it,
/// with no client-side copy.
#[test]
fn a_pull_after_an_unsettled_push_reads_its_own_write() {
    let mut sim = SimBuilder::new().seed(9).build();
    let (servers, storage) = deploy_ps(&mut sim, 2, 500e6);
    let out = sim.spawn_collect("worker", move |ctx| {
        let mut master = PsMaster::new(servers, storage);
        let h = master.create_matrix(ctx, 100, 1, Partitioning::Column, InitKind::Zero);
        let pending = h.push_sparse_begin(ctx, 0, &[(7, 5.0), (90, 1.0)]);
        let got = h.pull_cols(ctx, 0, &[7, 90]);
        h.push_wait(ctx, pending);
        got
    });
    sim.run().unwrap();
    assert_eq!(out.take(), vec![5.0, 1.0]);
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
