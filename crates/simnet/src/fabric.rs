//! # The request fabric — one reliable-RPC pipeline for the whole stack
//!
//! Every layer of the system that talks to a remote process needs the same
//! machinery: resolve a logical destination to a live process, scatter a
//! batch of requests with a deadline, gather replies, and on timeout decide
//! whether the peer is *slow* (resend as-is) or *replaced* (re-resolve and
//! resend). Before this module existed that pipeline was hand-rolled once
//! per `MatrixHandle` op in the PS client and again in the dataflow
//! scheduler and shuffle reader. It now lives here, exactly once.
//!
//! Two shapes are provided:
//!
//! * [`call_slots`] — the blocking scatter/gather used by PS ops and
//!   shuffle fetches: send every request, wait out the attempt deadline,
//!   resend only the holes, consult the router about route changes, and
//!   give up (panic) after a bounded number of attempts with no route
//!   progress. Its halves, [`begin`] and [`settle`], may run apart: a
//!   split-phase push computes between them. Every attempt ships a clone
//!   of one `Arc` per payload, so a retry resends the *identical* payload
//!   (receiver-side dedup relies on that) without copying it;
//!   [`Envelope::downcast_ref`] sees through the `Arc`.
//! * [`Dispatcher`] — the streaming form used by the task scheduler: callers
//!   dispatch requests one at a time, harvest replies as they arrive, and
//!   use [`Dispatcher::take_dead`] to reclaim requests whose destination
//!   died so they can be re-dispatched elsewhere. The caller owns the
//!   what-to-do-on-timeout policy; the dispatcher owns correlation
//!   bookkeeping and deadline waits.
//!
//! Metric names are parameterized by [`FabricPolicy::scope`] so each layer
//! keeps its historical names (`ps.client.*`, `spark.fabric.*`, ...): per-op
//! spans `{scope}.op.{op}.{count,reqs,bytes,rows,latency}`, recovery
//! counters `{scope}.{timeouts,retries,reresolutions}`, and a flat
//! `{scope}.envelopes` counter of request messages put on the wire — the
//! number that per-server coalescing exists to shrink. Each proc resolves
//! a scope's counters and an op's span metrics to registry handles once
//! and keeps them, so recording them builds no name.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use crate::ctx::SimCtx;
use crate::hostprof::{self, Scope as ProfScope};
use crate::message::Envelope;
use crate::metrics::{Counter, Hist};
use crate::reqtrace::ReqToken;
use crate::runtime::ProcId;
use crate::time::SimTime;

/// Maps logical slots to live processes, with an epoch that advances
/// whenever any mapping changes. The fabric uses the epoch to distinguish a
/// *slow* destination (resend to the same process) from a *replaced* one
/// (re-resolve and resend), and calls [`SlotRouter::try_recover`] when a
/// deadline passes without any route movement.
pub trait SlotRouter {
    /// Current process serving `slot`.
    fn resolve(&self, slot: usize) -> ProcId;

    /// Route-table version; bump on any remapping. Static topologies keep 0.
    fn epoch(&self) -> u64 {
        0
    }

    /// Called after a timed-out attempt whose epoch saw no movement: the
    /// router may actively replace dead destinations (the PS fleet respawns
    /// servers from checkpoint here). Default: nothing to do.
    fn try_recover(&self, _ctx: &mut SimCtx) {}
}

/// A fixed slot→process mapping for services that are never replaced
/// (shuffle services, storage). Epoch stays 0; recovery is a no-op.
pub struct StaticRoutes(pub Vec<ProcId>);

impl SlotRouter for StaticRoutes {
    fn resolve(&self, slot: usize) -> ProcId {
        self.0[slot]
    }
}

/// The recovery and envelope counters of one [`FabricPolicy::scope`].
#[derive(Clone, Copy)]
struct ScopeCounters {
    envelopes: Counter,
    timeouts: Counter,
    retries: Counter,
    reresolutions: Counter,
}

/// The span metrics `{scope}.op.{op}.*` of one op.
#[derive(Clone, Copy)]
struct OpSpan {
    count: Counter,
    reqs: Counter,
    bytes: Counter,
    rows: Counter,
    latency: Hist,
}

/// The fabric metric handles one proc has resolved: its [`SimCtx`] keeps
/// them, per scope and per `(scope, op)`, for the rest of the run.
#[derive(Default)]
pub(crate) struct Handles {
    scopes: Vec<(&'static str, ScopeCounters)>,
    ops: Vec<(&'static str, String, OpSpan)>,
}

/// `scope`'s counters, resolved on this proc's first use.
fn scope_counters(ctx: &mut SimCtx, scope: &'static str) -> ScopeCounters {
    if let Some(&(_, c)) = ctx.fabric.scopes.iter().find(|(s, _)| *s == scope) {
        return c;
    }
    let c = ScopeCounters {
        envelopes: ctx.counter(&format!("{scope}.envelopes")),
        timeouts: ctx.counter(&format!("{scope}.timeouts")),
        retries: ctx.counter(&format!("{scope}.retries")),
        reresolutions: ctx.counter(&format!("{scope}.reresolutions")),
    };
    ctx.fabric.scopes.push((scope, c));
    c
}

/// `op`'s span metrics under `scope`, resolved on this proc's first use.
fn op_span(ctx: &mut SimCtx, scope: &'static str, op: &str) -> OpSpan {
    let cached = ctx
        .fabric
        .ops
        .iter()
        .find(|(s, o, _)| *s == scope && o == op);
    if let Some(&(_, _, span)) = cached {
        return span;
    }
    let span = OpSpan {
        count: ctx.counter(&format!("{scope}.op.{op}.count")),
        reqs: ctx.counter(&format!("{scope}.op.{op}.reqs")),
        bytes: ctx.counter(&format!("{scope}.op.{op}.bytes")),
        rows: ctx.counter(&format!("{scope}.op.{op}.rows")),
        latency: ctx.hist(&format!("{scope}.op.{op}.latency")),
    };
    ctx.fabric.ops.push((scope, op.to_string(), span));
    span
}

/// Per-layer tuning of the shared pipeline.
#[derive(Clone, Copy, Debug)]
pub struct FabricPolicy {
    /// How long one scatter attempt may wait before the holes are resent.
    pub attempt_timeout: SimTime,
    /// Consecutive timed-out attempts tolerated with no route-epoch
    /// movement before the fabric declares the destination unrecoverable.
    pub max_stale_attempts: u32,
    /// Metric-name prefix; also names the layer in panic diagnostics.
    pub scope: &'static str,
}

/// Scatter `reqs` (a `(slot, payload, wire_bytes)` triple per destination),
/// gather one reply per request, and return the replies in request order:
/// [`settle`] of [`begin`]. `op` labels the span metrics; `items` is an
/// op-defined work measure (rows touched for PS ops) recorded beside bytes.
pub fn call_slots<P: Any + Send + Sync>(
    ctx: &mut SimCtx,
    router: &dyn SlotRouter,
    policy: &FabricPolicy,
    op: &str,
    tag: u32,
    reqs: Vec<(usize, P, u64)>,
    items: u64,
) -> Vec<Envelope> {
    // Serialize once (the simulator's stand-in: one Arc), resend handles.
    let reqs = {
        let _prof = hostprof::scope(ProfScope::CodecEncode);
        reqs.into_iter()
            .map(|(slot, payload, bytes)| (slot, Arc::new(payload), bytes))
            .collect()
    };
    let inflight = begin(ctx, router, policy, op, tag, reqs, items);
    settle(ctx, router, policy, inflight)
}

/// A scatter [`begin`] put on the wire and [`settle`] has yet to gather:
/// the `Arc`'d payloads, resent identical on a hole, and the correlation
/// id of each request's latest attempt.
#[must_use = "gather an in-flight scatter with fabric::settle"]
pub struct InFlight<'a, P: ?Sized> {
    op: &'a str,
    tag: u32,
    items: u64,
    reqs: Vec<(usize, Arc<P>, u64)>,
    /// One trace token per logical request, kept across retries (empty
    /// when request tracing is off).
    tokens: Vec<ReqToken>,
    corrs: Vec<u64>,
    /// Route epoch the latest attempt was resolved under.
    epoch: u64,
    counters: ScopeCounters,
    span: OpSpan,
    started: SimTime,
    /// Requests issued and request bytes sent, over every attempt.
    issued: u64,
    bytes: u64,
}

impl<P: ?Sized + Send + Sync + 'static> InFlight<'_, P> {
    /// Put requests `idx` on the wire, each to its slot's current process.
    fn send(
        &mut self,
        ctx: &mut SimCtx,
        router: &dyn SlotRouter,
        idx: impl ExactSizeIterator<Item = usize>,
    ) {
        ctx.add(self.counters.envelopes, idx.len() as u64);
        self.issued += idx.len() as u64;
        for i in idx {
            let (slot, payload, bytes) = &self.reqs[i];
            let payload = Box::new(Arc::clone(payload)) as Box<dyn Any + Send>;
            let token = self.tokens.get(i).copied();
            self.corrs[i] = ctx.request(router.resolve(*slot), self.tag, payload, *bytes, token);
            self.bytes += bytes;
        }
    }
}

/// One request-trace token per request of an op, in one allocation; none,
/// and no allocation, when request tracing is off.
fn mint_tokens(ctx: &mut SimCtx, op: &str, n: usize) -> Vec<ReqToken> {
    let mut tokens = Vec::new();
    while tokens.len() < n {
        let Some(token) = ctx.req_begin(op) else {
            break;
        };
        tokens.reserve_exact(n - tokens.len());
        tokens.push(token);
    }
    tokens
}

/// The scatter half of [`call_slots`]: mint the trace tokens, send every
/// request, and return without waiting. The caller may compute, or issue
/// other calls, before it [`settle`]s — the split-phase push that pipelined
/// training overlaps with the next iteration's compute.
pub fn begin<'a, P: ?Sized + Send + Sync + 'static>(
    ctx: &mut SimCtx,
    router: &dyn SlotRouter,
    policy: &FabricPolicy,
    op: &'a str,
    tag: u32,
    reqs: Vec<(usize, Arc<P>, u64)>,
    items: u64,
) -> InFlight<'a, P> {
    let _prof = hostprof::scope(ProfScope::FabricCall);
    let n = reqs.len();
    let mut inflight = InFlight {
        op,
        tag,
        items,
        started: ctx.now(),
        tokens: mint_tokens(ctx, op, n),
        epoch: router.epoch(),
        counters: scope_counters(ctx, policy.scope),
        span: op_span(ctx, policy.scope, op),
        reqs,
        corrs: vec![0; n],
        issued: 0,
        bytes: 0,
    };
    inflight.send(ctx, router, 0..n);
    inflight
}

/// The gather half of [`call_slots`]: deadline-bounded attempts that
/// resend only the holes, router-driven recovery and re-resolution between
/// them, and a bounded-stale-attempts assert so an unreachable,
/// unreplaceable destination fails loudly instead of hanging the sim.
/// Returns the replies in request order and records the op's span
/// (latency from [`begin`]). The first deadline runs from entry here, so
/// compute overlapped since [`begin`] never counts against it.
pub fn settle<P: ?Sized + Send + Sync + 'static>(
    ctx: &mut SimCtx,
    router: &dyn SlotRouter,
    policy: &FabricPolicy,
    mut inflight: InFlight<'_, P>,
) -> Vec<Envelope> {
    // Self time here is the fabric's own bookkeeping: sends, receives and
    // parked time attribute to nested scopes.
    let _prof = hostprof::scope(ProfScope::FabricCall);
    let scope = policy.scope;
    let (op, tag, counters) = (inflight.op, inflight.tag, inflight.counters);
    let mut replies: Vec<Option<Envelope>> = inflight.reqs.iter().map(|_| None).collect();
    let mut stale_attempts = 0u32;
    let mut deadline = ctx.now() + policy.attempt_timeout;
    loop {
        // Gather the latest attempt until every reply is in or time is up.
        let mut holes: Vec<usize> = (0..replies.len())
            .filter(|&i| replies[i].is_none())
            .collect();
        let mut waiting: Vec<u64> = holes.iter().map(|&i| inflight.corrs[i]).collect();
        while !waiting.is_empty() {
            let Some(env) = ctx.recv_reply(&waiting, Some(deadline)) else {
                break;
            };
            if let Some(k) = waiting.iter().position(|&c| c == env.corr) {
                waiting.remove(k);
                replies[holes.remove(k)] = Some(env);
            }
        }
        if holes.is_empty() {
            break;
        }
        ctx.add(counters.timeouts, holes.len() as u64);
        ctx.add(counters.retries, 1);
        // No route movement since we sent: the destination may be dead, not
        // merely slow. Give the router a chance to replace it.
        if router.epoch() == inflight.epoch {
            router.try_recover(ctx);
        }
        let now_epoch = router.epoch();
        if now_epoch == inflight.epoch {
            stale_attempts += 1;
            assert!(
                stale_attempts < policy.max_stale_attempts,
                "{scope} op {op} (tag {tag}): {stale_attempts} straight timeouts \
                 with no route change; a destination is unreachable and recovery \
                 could not replace it"
            );
        } else {
            ctx.add(counters.reresolutions, 1);
            stale_attempts = 0;
            inflight.epoch = now_epoch;
        }
        // Resend exactly the identical payloads of the holes.
        deadline = ctx.now() + policy.attempt_timeout;
        inflight.send(ctx, router, holes.into_iter());
    }
    let replies: Vec<Envelope> = replies.into_iter().flatten().collect();
    let bytes = inflight.bytes + replies.iter().map(|e| e.bytes).sum::<u64>();
    let span = inflight.span;
    ctx.add(span.count, 1);
    ctx.add(span.reqs, inflight.issued);
    ctx.add(span.bytes, bytes);
    ctx.add(span.rows, inflight.items);
    ctx.observe(span.latency, ctx.now() - inflight.started);
    replies
}

/// Convenience single-destination form of [`call_slots`].
#[allow(clippy::too_many_arguments)]
pub fn call_slot<P: Any + Send + Sync>(
    ctx: &mut SimCtx,
    router: &dyn SlotRouter,
    policy: &FabricPolicy,
    op: &str,
    tag: u32,
    slot: usize,
    payload: P,
    bytes: u64,
    items: u64,
) -> Envelope {
    call_slots(
        ctx,
        router,
        policy,
        op,
        tag,
        vec![(slot, payload, bytes)],
        items,
    )
    .pop()
    .expect("one reply for one request")
}

/// Bookkeeping the streaming dispatcher keeps per in-flight request.
#[derive(Clone, Copy, Debug)]
pub struct Pending {
    /// Caller-defined work item this request carries (task partition).
    pub item: usize,
    /// Caller-defined destination slot (the task scheduler's is the
    /// destination proc's index).
    pub slot: usize,
    /// When the request went on the wire — latency = reply time − this.
    pub sent_at: SimTime,
}

/// Streaming request dispatcher for callers that interleave dispatch and
/// harvest (the task scheduler): replies arrive in any order, timeouts
/// surface as `None` so the caller can probe liveness, and requests whose
/// destination died are reclaimed with [`Dispatcher::take_dead`] for
/// re-dispatch. Correlation-token bookkeeping and deadline waits live here;
/// retry *policy* stays with the caller.
pub struct Dispatcher {
    policy: FabricPolicy,
    pending: HashMap<u64, Pending>,
}

impl Dispatcher {
    pub fn new(policy: FabricPolicy) -> Self {
        Dispatcher {
            policy,
            pending: HashMap::new(),
        }
    }

    /// Put one request on the wire and start tracking it.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch<P: Any + Send>(
        &mut self,
        ctx: &mut SimCtx,
        dst: ProcId,
        tag: u32,
        payload: P,
        bytes: u64,
        item: usize,
        slot: usize,
    ) {
        let _prof = hostprof::scope(ProfScope::FabricCall);
        let envelopes = scope_counters(ctx, self.policy.scope).envelopes;
        ctx.add(envelopes, 1);
        let corr = ctx.send_request(dst, tag, payload, bytes);
        self.pending.insert(
            corr,
            Pending {
                item,
                slot,
                sent_at: ctx.now(),
            },
        );
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Wait up to one attempt-timeout for any tracked reply. `None` means
    /// the deadline passed with nothing arriving — time for the caller to
    /// probe liveness.
    pub fn await_any(&mut self, ctx: &mut SimCtx) -> Option<(Pending, Envelope)> {
        let _prof = hostprof::scope(ProfScope::FabricCall);
        let corrs: Vec<u64> = self.pending.keys().copied().collect();
        let deadline = ctx.now() + self.policy.attempt_timeout;
        match ctx.recv_reply(&corrs, Some(deadline)) {
            Some(env) => {
                let entry = self
                    .pending
                    .remove(&env.corr)
                    .expect("reply matched a correlation token we stopped tracking");
                Some((entry, env))
            }
            None => {
                let timeouts = scope_counters(ctx, self.policy.scope).timeouts;
                ctx.add(timeouts, 1);
                None
            }
        }
    }

    /// Remove and return every in-flight request whose destination slot
    /// fails the `alive` predicate, in dispatch order, so the caller can
    /// re-dispatch them.
    pub fn take_dead(&mut self, mut alive: impl FnMut(usize) -> bool) -> Vec<Pending> {
        let mut dead_corrs: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| !alive(p.slot))
            .map(|(&c, _)| c)
            .collect();
        dead_corrs.sort_unstable();
        dead_corrs
            .into_iter()
            .map(|c| self.pending.remove(&c).unwrap())
            .collect()
    }
}
