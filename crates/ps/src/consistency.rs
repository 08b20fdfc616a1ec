//! Consistency modes and the generalized clock service.
//!
//! The paper evaluates BSP only — every iteration ends with a global
//! barrier. This module promotes the SSP prototype that used to live inside
//! `ps2-ml` into a first-class property of the PS client: a training run
//! picks a [`ConsistencyMode`] and the same worker loop executes under a
//! barrier (BSP), a bounded-staleness gate (SSP), or no gate at all
//! (async).
//!
//! ## The clock protocol
//!
//! A single *clock service* ([`ClockService`], a steppable agent) tracks
//! one logical clock per worker (iterations completed). Workers speak two
//! request kinds, both routed through the shared request fabric rather than
//! bare `ctx.call` so retries, timeouts and metrics come for free:
//!
//! * **REPORT** `(worker, done)` — idempotent: the service takes the max of
//!   the stored and reported clock, so a fabric resend cannot move a clock
//!   backwards.
//! * **WAIT** `(worker, start_iter, bound, op_id)` — permission to start
//!   iteration `t`. The service replies once `min_clock ≥ t − bound − 1`,
//!   i.e. the slowest worker is within the bound. The *request* carries the
//!   bound, which keeps the service mode-agnostic: BSP is `bound = 0`,
//!   SSP(s) is `bound = s`, and async workers simply never send WAIT.
//!
//! A WAIT may legitimately block far longer than one fabric attempt (it
//! waits on the slowest worker), so a resend of a still-pending WAIT must
//! not double-register: the service keys pending waits by worker and
//! replaces the stored envelope with the retry's (the fabric only listens
//! for the newest correlation id). Grants are remembered per worker by
//! `op_id` so a retry that races its own grant is re-answered immediately
//! instead of hanging the fabric.
//!
//! The grant reply carries the minimum clock observed at grant time —
//! that is the witness the staleness-invariant property tests check:
//! `min + bound + 1 ≥ start_iter` at every grant.

use ps2_simnet::fabric::{self, FabricPolicy, StaticRoutes};
use ps2_simnet::{Envelope, Proc, ProcId, SimCtx, SimTime, StepCtx};

/// How a training run synchronizes its workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsistencyMode {
    /// Bulk-synchronous: a global barrier after every iteration.
    Bsp,
    /// Stale-synchronous: a worker at iteration `t` may proceed while the
    /// slowest worker is at least at `t − bound − 1`. `bound = 0` is
    /// barrier-equivalent.
    Ssp { bound: u32 },
    /// No synchronization at all: workers free-run and gradients apply in
    /// arrival order.
    Async,
}

impl ConsistencyMode {
    /// Compact label used in bench case names, metric names and traces:
    /// `bsp`, `ssp<bound>`, `async`.
    pub fn label(&self) -> String {
        match self {
            ConsistencyMode::Bsp => "bsp".to_string(),
            ConsistencyMode::Ssp { bound } => format!("ssp{bound}"),
            ConsistencyMode::Async => "async".to_string(),
        }
    }

    /// Parse the CLI spelling: `bsp`, `async`, `ssp:<bound>` (bare `ssp`
    /// means `ssp:1`).
    pub fn parse(s: &str) -> Result<ConsistencyMode, String> {
        match s {
            "bsp" => Ok(ConsistencyMode::Bsp),
            "async" => Ok(ConsistencyMode::Async),
            "ssp" => Ok(ConsistencyMode::Ssp { bound: 1 }),
            other => match other.strip_prefix("ssp:") {
                Some(b) => b
                    .parse()
                    .map(|bound| ConsistencyMode::Ssp { bound })
                    .map_err(|_| format!("bad staleness bound in '{other}'")),
                None => Err(format!(
                    "unknown consistency mode '{other}' (want bsp|ssp:<s>|async)"
                )),
            },
        }
    }

    /// The staleness bound the clock gate enforces; `None` means no gate.
    pub fn bound(&self) -> Option<u32> {
        match self {
            ConsistencyMode::Bsp => Some(0),
            ConsistencyMode::Ssp { bound } => Some(*bound),
            ConsistencyMode::Async => None,
        }
    }

    /// Whether push(t) may overlap compute(t+1). Only modes that tolerate
    /// staleness can leave an unacknowledged push in flight across the
    /// iteration boundary.
    pub fn pipelined(&self) -> bool {
        match self {
            ConsistencyMode::Bsp => false,
            ConsistencyMode::Ssp { bound } => *bound > 0,
            ConsistencyMode::Async => true,
        }
    }
}

/// Clock-service message tags. They live above the PS op tag space
/// (10..=41); the numbers are the ones the SSP prototype used, kept stable
/// so old traces read the same.
pub mod clock_tags {
    /// Worker reports having *finished* iteration `t`.
    pub const REPORT: u32 = 60;
    /// Worker asks permission to *start* iteration `t`.
    pub const WAIT: u32 = 61;
}

/// WAIT request: may `worker` start `start_iter` under `bound`?
#[derive(Clone, Copy, Debug)]
pub struct ClockWaitReq {
    pub worker: usize,
    pub start_iter: u32,
    pub bound: u32,
    /// Dedup key for fabric resends of a still-blocked or already-granted
    /// wait.
    pub op_id: u64,
}

/// REPORT request: `worker` has completed `done` iterations.
#[derive(Clone, Copy, Debug)]
pub struct ClockReportReq {
    pub worker: usize,
    pub done: u32,
}

/// WAIT reply: the minimum worker clock at the moment the grant was issued
/// — the witness of the staleness invariant.
#[derive(Clone, Copy, Debug)]
pub struct ClockGrant {
    pub min_clock: u32,
}

/// Fabric tuning for clock traffic. A WAIT blocks until the slowest worker
/// catches up, which can dwarf any per-message latency, so the attempt
/// timeout is generous (one virtual minute) and many stale attempts are
/// tolerated before declaring the service unreachable — together they cover
/// hours of legitimate blocking while keeping the retry machinery (and its
/// `ps.clock.*` metrics) live.
pub fn clock_policy() -> FabricPolicy {
    FabricPolicy {
        attempt_timeout: SimTime::from_secs_f64(60.0),
        max_stale_attempts: 120,
        scope: "ps.clock",
    }
}

/// The clock service for `n` workers, a steppable agent: spawn it with
/// `sim.spawn_agent_daemon("clock", ClockService::new(n))`.
pub struct ClockService {
    /// Iterations completed, per worker.
    clocks: Vec<u32>,
    /// At most one blocked WAIT per worker; a resend replaces the stored
    /// envelope so the reply goes to the correlation id the fabric is
    /// actually listening on.
    pending: Vec<Option<(Envelope, ClockWaitReq)>>,
    /// Last grant per worker, keyed by op_id: a retry racing its own grant
    /// is re-answered with the recorded witness.
    granted: Vec<Option<(u64, u32)>>,
}

impl ClockService {
    pub fn new(workers: usize) -> ClockService {
        assert!(workers > 0, "clock service needs at least one worker");
        ClockService {
            clocks: vec![0; workers],
            pending: (0..workers).map(|_| None).collect(),
            granted: vec![None; workers],
        }
    }

    /// The minimum clock if `req` may start now: a worker may start
    /// iteration t when min >= t - bound - 1.
    fn grantable(&self, req: &ClockWaitReq) -> Option<u32> {
        let min = *self.clocks.iter().min().expect("workers > 0");
        (req.start_iter <= min + req.bound + 1).then_some(min)
    }

    fn grant(&mut self, ctx: &mut StepCtx<'_>, env: &Envelope, req: &ClockWaitReq, min: u32) {
        self.granted[req.worker] = Some((req.op_id, min));
        ctx.reply(env, ClockGrant { min_clock: min }, 8);
    }
}

impl Proc for ClockService {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        if env.is_reply() {
            return; // stray late reply, not for us
        }
        match env.tag {
            clock_tags::REPORT => {
                let req: ClockReportReq = *env.downcast_ref();
                // Max, not assignment: resends must not move time backwards.
                self.clocks[req.worker] = self.clocks[req.worker].max(req.done);
                ctx.reply(&env, (), 8);
                // Wake every waiter the new minimum unblocks.
                for w in 0..self.clocks.len() {
                    let Some((_, wreq)) = &self.pending[w] else {
                        continue;
                    };
                    if let Some(min) = self.grantable(wreq) {
                        let (wenv, wreq) = self.pending[w].take().expect("checked above");
                        self.grant(ctx, &wenv, &wreq, min);
                    }
                }
            }
            clock_tags::WAIT => {
                let req: ClockWaitReq = *env.downcast_ref();
                match self.granted[req.worker] {
                    // Retry of an already-granted wait.
                    Some((op_id, min)) if op_id == req.op_id => {
                        ctx.reply(&env, ClockGrant { min_clock: min }, 8);
                    }
                    _ => match self.grantable(&req) {
                        Some(min) => self.grant(ctx, &env, &req, min),
                        // Fresh wait or resend of a blocked one: (re)store.
                        None => self.pending[req.worker] = Some((env, req)),
                    },
                }
            }
            other => panic!("clock service: unknown tag {other}"),
        }
    }
}

/// A worker's handle on the clock service. All traffic goes through the
/// request fabric under [`clock_policy`], so timeouts, identical-payload
/// resends and `ps.clock.*` metrics follow the same rules as PS ops.
#[derive(Clone, Copy, Debug)]
pub struct ClockClient {
    pub proc: ProcId,
    pub worker: usize,
}

impl ClockClient {
    pub fn new(proc: ProcId, worker: usize) -> ClockClient {
        ClockClient { proc, worker }
    }

    /// Block until this worker may start `start_iter` under `bound`.
    /// Returns the minimum worker clock at grant time; the staleness
    /// invariant `min + bound + 1 >= start_iter` holds on every return.
    pub fn wait(&self, ctx: &mut SimCtx, start_iter: u32, bound: u32) -> u32 {
        let req = ClockWaitReq {
            worker: self.worker,
            start_iter,
            bound,
            op_id: ctx.alloc_reply_token(),
        };
        let routes = StaticRoutes(vec![self.proc]);
        let grant: ClockGrant = fabric::call_slot(
            ctx,
            &routes,
            &clock_policy(),
            "wait",
            clock_tags::WAIT,
            0,
            req,
            24,
            1,
        )
        .downcast();
        debug_assert!(
            grant.min_clock + bound + 1 >= start_iter,
            "clock grant violates the staleness bound: min {} bound {bound} start {start_iter}",
            grant.min_clock
        );
        grant.min_clock
    }

    /// Report this worker's clock as at least `done` iterations.
    pub fn report(&self, ctx: &mut SimCtx, done: u32) {
        let req = ClockReportReq {
            worker: self.worker,
            done,
        };
        let routes = StaticRoutes(vec![self.proc]);
        let _ = fabric::call_slot(
            ctx,
            &routes,
            &clock_policy(),
            "report",
            clock_tags::REPORT,
            0,
            req,
            16,
            1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_and_parse_round_trip() {
        for (s, m) in [
            ("bsp", ConsistencyMode::Bsp),
            ("ssp:0", ConsistencyMode::Ssp { bound: 0 }),
            ("ssp:3", ConsistencyMode::Ssp { bound: 3 }),
            ("async", ConsistencyMode::Async),
        ] {
            assert_eq!(ConsistencyMode::parse(s).unwrap(), m);
        }
        assert_eq!(
            ConsistencyMode::parse("ssp").unwrap(),
            ConsistencyMode::Ssp { bound: 1 }
        );
        assert_eq!(ConsistencyMode::Bsp.label(), "bsp");
        assert_eq!(ConsistencyMode::Ssp { bound: 2 }.label(), "ssp2");
        assert_eq!(ConsistencyMode::Async.label(), "async");
        assert!(ConsistencyMode::parse("ssp:x").is_err());
        assert!(ConsistencyMode::parse("eventual").is_err());
    }

    #[test]
    fn mode_policy_table() {
        assert_eq!(ConsistencyMode::Bsp.bound(), Some(0));
        assert_eq!(ConsistencyMode::Ssp { bound: 4 }.bound(), Some(4));
        assert_eq!(ConsistencyMode::Async.bound(), None);
        assert!(!ConsistencyMode::Bsp.pipelined());
        assert!(!ConsistencyMode::Ssp { bound: 0 }.pipelined());
        assert!(ConsistencyMode::Ssp { bound: 1 }.pipelined());
        assert!(ConsistencyMode::Async.pipelined());
    }
}
