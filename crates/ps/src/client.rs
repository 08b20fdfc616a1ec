//! The PS-client: typed, routed operations on a distributed matrix.
//!
//! A [`MatrixHandle`] is held by workers (inside RDD tasks) and by the
//! coordinator; all its methods scatter requests to the owning servers
//! through the caller's `SimCtx` and gather the replies. Row-access
//! operators parallelize across servers under column partitioning — the
//! paper's fix for the single-point problem — while column-access operators
//! run server-side over co-located segments.
//!
//! ## The request fabric
//!
//! Every op is a declarative *(plan, encode, decode)* triple: pick the
//! slots ([`PartitionPlan::pieces`] for row access, every slot holding the
//! rows for whole-segment ops), build one payload per slot, hand the batch
//! to the shared [`ps2_simnet::fabric`], decode the replies. The fabric
//! owns the whole reliability pipeline — deadline-bounded attempts,
//! epoch-tracked route re-resolution, identical-payload resend, bounded
//! retry — so no op in this file carries its own retry loop. [`PsRouter`]
//! adapts the [`RouteTable`] (and, for master-issued handles, [`PsFleet`]
//! recovery) to the fabric's `SlotRouter` trait. Mutating requests carry a
//! per-request `op_id` that servers deduplicate, so a resend racing a
//! slow-but-alive server is applied once.
//!
//! ## Envelope coalescing
//!
//! A [`PsBatch`] merges the sub-requests of *many* ops bound for the same
//! server into one `EnvelopeReq` per server per flush — the generalization
//! of the Angel-style batched psFuncs (DESIGN §4b.2). Ops enqueue with the
//! `*_in` methods and read results from [`BatchResult`]s after
//! [`PsBatch::flush`].

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use ps2_simnet::fabric::{self, FabricPolicy, SlotRouter};
use ps2_simnet::{Envelope, ProcId, SimCtx, SimTime};

use crate::consistency::ConsistencyMode;
use crate::master::PsFleet;
use crate::plan::{MatrixId, PartitionPlan, PlanKind, RouteTable};
use crate::protocol::{
    tags, AggKind, AggReq, AxpyReq, ColsSel, CrossDotReq, CrossElemReq, DotReq, ElemOp, ElemReq,
    EnvelopeReq, FillReq, PullBlockReq, PullReq, PushBlockReq, PushData, PushReq, ScaleReq, SubReq,
    ZipMapFn, ZipMapReq, ZipMutFn, ZipReq,
};

/// A handle to one distributed `rows × dim` matrix. Cheap to clone; safe to
/// capture in task closures.
#[derive(Clone)]
pub struct MatrixHandle {
    pub id: MatrixId,
    pub plan: Arc<PartitionPlan>,
    /// Slot → live server process mapping, shared with the master (which
    /// updates it when replacing failed servers).
    pub route: Arc<RouteTable>,
    /// Bytes per parameter on the wire: 8 for raw `f64`, 4 with the paper's
    /// message compression (§6.3.3).
    pub value_bytes: u64,
    /// The shared fleet view, when this handle came from a [`crate::PsMaster`]:
    /// lets a client whose request timed out run dead-server recovery
    /// directly. `None` for hand-assembled handles (tests), which then rely
    /// on someone else updating the route table.
    pub(crate) fleet: Option<Arc<PsFleet>>,
}

/// Request-header wire cost for PS ops.
const HDR: u64 = 48;

/// Per-sub-request header inside an envelope (tag + length framing).
const SUB_HDR: u64 = 8;

/// The PS layer's fabric tuning: a 10 s virtual-time attempt budget
/// (generous against micro- to millisecond op latency, so healthy runs
/// never pay it) and five straight timeouts without route movement before
/// giving up. Metrics stay under `ps.client.*`, the names the run report
/// and fault-tolerance tests consume.
pub(crate) fn ps_policy() -> FabricPolicy {
    FabricPolicy {
        attempt_timeout: SimTime::from_secs_f64(10.0),
        max_stale_attempts: 5,
        scope: "ps.client",
    }
}

/// Adapts the PS route table (+ optional fleet recovery) to the fabric's
/// router trait: timed-out attempts trigger client-side dead-server
/// recovery, and epoch movement tells the fabric to re-resolve.
pub(crate) struct PsRouter<'a> {
    pub route: &'a RouteTable,
    pub fleet: Option<&'a PsFleet>,
}

impl SlotRouter for PsRouter<'_> {
    fn resolve(&self, slot: usize) -> ProcId {
        self.route.resolve(slot)
    }

    fn epoch(&self) -> u64 {
        self.route.epoch()
    }

    fn try_recover(&self, ctx: &mut SimCtx) {
        // Any handle holder may run recovery; the fleet single-flights it.
        if let Some(fleet) = self.fleet {
            fleet.recover_dead_servers(ctx);
        }
    }
}

impl MatrixHandle {
    pub fn dim(&self) -> u64 {
        self.plan.dim
    }

    pub fn rows(&self) -> u32 {
        self.plan.rows
    }

    fn is_column(&self) -> bool {
        matches!(self.plan.kind, PlanKind::Column { .. })
    }

    /// Whether element-wise server-side ops between `self` and `other` need
    /// no cross-server traffic.
    pub fn colocated_with(&self, other: &MatrixHandle) -> bool {
        self.plan.colocated_with(&other.plan)
    }

    // ---- fabric entry points ------------------------------------------------

    /// Scatter slot-addressed requests through the shared fabric and gather
    /// every reply. One op span (`ps.client.op.{name}.*`) per call.
    fn fabric_call<P: Any + Send + Sync>(
        &self,
        ctx: &mut SimCtx,
        tag: u32,
        reqs: Vec<(usize, P, u64)>,
        rows_touched: u64,
    ) -> Vec<Envelope> {
        let router = PsRouter {
            route: &self.route,
            fleet: self.fleet.as_deref(),
        };
        fabric::call_slots(
            ctx,
            &router,
            &ps_policy(),
            tags::name(tag),
            tag,
            reqs,
            rows_touched,
        )
    }

    /// Single-request form of [`MatrixHandle::fabric_call`].
    fn fabric_one<P: Any + Send + Sync>(
        &self,
        ctx: &mut SimCtx,
        slot: usize,
        tag: u32,
        payload: P,
        bytes: u64,
        rows_touched: u64,
    ) -> Envelope {
        self.fabric_call(ctx, tag, vec![(slot, payload, bytes)], rows_touched)
            .pop()
            .expect("one reply for one request")
    }

    // ---- row access: pull -------------------------------------------------

    fn pull_req(&self, row: u32, cols: ColsSel) -> PullReq {
        PullReq {
            id: self.id,
            row,
            cols,
            value_bytes: self.value_bytes,
        }
    }

    /// Pull a full dense row, gathering segments from every server in
    /// parallel.
    pub fn pull_row(&self, ctx: &mut SimCtx, row: u32) -> Vec<f64> {
        assert!(row < self.rows());
        let reqs = self
            .plan
            .pieces(row, 0, self.dim())
            .into_iter()
            .map(|(slot, _, _)| (slot, self.pull_req(row, ColsSel::All), HDR))
            .collect();
        let out = concat(self.fabric_call(ctx, tags::PULL, reqs, 1), self.dim());
        debug_assert_eq!(out.len() as u64, self.dim());
        out
    }

    /// Sparse pull: only the requested columns travel — the mechanism behind
    /// PS2's advantage over Petuum's full-model pulls (§6.3.1). `cols` must
    /// be sorted ascending; values return in the same order.
    pub fn pull_cols(&self, ctx: &mut SimCtx, row: u32, cols: &[u64]) -> Vec<f64> {
        if cols.is_empty() {
            return Vec::new();
        }
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols must be sorted");
        let reqs = self
            .split(row, cols, |&c| c)
            .into_iter()
            .map(|(slot, span)| {
                let chunk = cols[span].to_vec();
                let bytes = HDR + 4 * chunk.len() as u64;
                let req = self.pull_req(row, ColsSel::List(Arc::new(chunk)));
                (slot, req, bytes)
            })
            .collect();
        let replies = self.fabric_call(ctx, tags::PULL, reqs, 1);
        concat(replies, cols.len() as u64)
    }

    /// Ranged pull: the contiguous columns `[lo, hi)` of a row — the dense
    /// worker-slice access the pull/push-only model-update path uses.
    pub fn pull_range(&self, ctx: &mut SimCtx, row: u32, lo: u64, hi: u64) -> Vec<f64> {
        assert!(lo <= hi && hi <= self.dim());
        if lo == hi {
            return Vec::new();
        }
        let reqs = self
            .plan
            .pieces(row, lo, hi)
            .into_iter()
            .map(|(slot, plo, phi)| (slot, self.pull_req(row, ColsSel::Range(plo, phi)), HDR + 16))
            .collect();
        let out = concat(self.fabric_call(ctx, tags::PULL, reqs, 1), hi - lo);
        debug_assert_eq!(out.len() as u64, hi - lo);
        out
    }

    // ---- row access: push (add) --------------------------------------------

    /// Dense additive push of a full row, split across servers.
    pub fn push_dense(&self, ctx: &mut SimCtx, row: u32, values: &[f64]) {
        assert_eq!(values.len() as u64, self.dim());
        self.push_dense_range(ctx, row, 0, values);
    }

    /// Dense additive push of the contiguous columns `[lo, lo+values.len())`
    /// of a row, split across the owning servers.
    pub fn push_dense_range(&self, ctx: &mut SimCtx, row: u32, lo: u64, values: &[f64]) {
        let hi = lo + values.len() as u64;
        assert!(hi <= self.dim());
        if values.is_empty() {
            return;
        }
        let reqs = self
            .plan
            .pieces(row, lo, hi)
            .into_iter()
            .map(|(slot, plo, phi)| {
                let seg: Vec<f64> = values[(plo - lo) as usize..(phi - lo) as usize].to_vec();
                let bytes = HDR + self.value_bytes * seg.len() as u64;
                let req = PushReq {
                    id: self.id,
                    row,
                    data: PushData::DenseSeg {
                        lo: plo,
                        values: Arc::new(seg),
                    },
                    op_id: ctx.alloc_reply_token(),
                };
                (slot, req, bytes)
            })
            .collect();
        let _ = self.fabric_call(ctx, tags::PUSH, reqs, 1);
    }

    /// Build the per-server requests of a sparse push — shared between the
    /// blocking [`MatrixHandle::push_sparse`] and the split-phase
    /// [`MatrixHandle::push_sparse_begin`].
    fn sparse_push_reqs(
        &self,
        ctx: &mut SimCtx,
        row: u32,
        pairs: &[(u64, f64)],
    ) -> Vec<(usize, PushReq, u64)> {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        let per_pair = 4 + self.value_bytes;
        self.split(row, pairs, |&(c, _)| c)
            .into_iter()
            .map(|(slot, span)| {
                let chunk = pairs[span].to_vec();
                let bytes = HDR + per_pair * chunk.len() as u64;
                let req = PushReq {
                    id: self.id,
                    row,
                    data: PushData::Sparse(Arc::new(chunk)),
                    op_id: ctx.alloc_reply_token(),
                };
                (slot, req, bytes)
            })
            .collect()
    }

    /// Sparse additive push (`(column, delta)` pairs, sorted by column).
    pub fn push_sparse(&self, ctx: &mut SimCtx, row: u32, pairs: &[(u64, f64)]) {
        if pairs.is_empty() {
            return;
        }
        let reqs = self.sparse_push_reqs(ctx, row, pairs);
        let _ = self.fabric_call(ctx, tags::PUSH, reqs, 1);
    }

    // ---- row access: split-phase (pipelined) push -----------------------------

    /// Start a sparse push without waiting for the acknowledgements, so the
    /// caller can overlap the next iteration's compute with the transfer —
    /// the pipelining that SSP/async training modes exploit. The returned
    /// [`PendingPush`] retains the exact payloads; [`MatrixHandle::push_wait`]
    /// settles it with the same hole-resend + dedup guarantees as the
    /// blocking path (servers dedup by `op_id`, so a resend racing a slow
    /// server applies once).
    pub fn push_sparse_begin(
        &self,
        ctx: &mut SimCtx,
        row: u32,
        pairs: &[(u64, f64)],
    ) -> PendingPush {
        let reqs = self.sparse_push_reqs(ctx, row, pairs);
        let scope = ps_policy().scope;
        ctx.metric_add(&format!("{scope}.envelopes"), reqs.len() as u64);
        let mut sent_bytes = 0u64;
        let corrs = reqs
            .iter()
            .map(|(slot, req, bytes)| {
                sent_bytes += bytes;
                ctx.send_request(self.route.resolve(*slot), tags::PUSH, req.clone(), *bytes)
            })
            .collect();
        PendingPush {
            reqs,
            corrs,
            sent_bytes,
            started: ctx.now(),
        }
    }

    /// Gather the acknowledgements of a [`MatrixHandle::push_sparse_begin`].
    /// Replies that fail to arrive within one attempt timeout are treated as
    /// holes and resent (identical payloads) through the shared fabric,
    /// which owns recovery and bounded retry from there.
    pub fn push_wait(&self, ctx: &mut SimCtx, pending: PendingPush) {
        let PendingPush {
            reqs,
            corrs,
            mut sent_bytes,
            started,
        } = pending;
        if reqs.is_empty() {
            return;
        }
        let policy = ps_policy();
        let scope = policy.scope;
        let deadline = ctx.now() + policy.attempt_timeout;
        let mut outstanding: Vec<(u64, usize)> = corrs.iter().copied().zip(0..reqs.len()).collect();
        while !outstanding.is_empty() {
            let waiting: Vec<u64> = outstanding.iter().map(|&(c, _)| c).collect();
            let Some(env) = ctx.recv_reply(&waiting, Some(deadline)) else {
                break;
            };
            sent_bytes += env.bytes;
            outstanding.retain(|&(c, _)| c != env.corr);
        }
        if !outstanding.is_empty() {
            // Holes: hand the identical payloads to the fabric, which runs
            // the full timeout/recovery/re-resolution pipeline (op-id dedup
            // makes the duplicate delivery harmless).
            ctx.metric_add(&format!("{scope}.timeouts"), outstanding.len() as u64);
            let router = PsRouter {
                route: &self.route,
                fleet: self.fleet.as_deref(),
            };
            let holes: Vec<(usize, PushReq, u64)> =
                outstanding.iter().map(|&(_, i)| reqs[i].clone()).collect();
            let _ = fabric::call_slots(ctx, &router, &policy, "push", tags::PUSH, holes, 1);
        }
        // The split-phase push records its own op span: latency measured
        // from the *begin*, which is what the pipeline actually hides.
        ctx.metric_add(&format!("{scope}.op.push_async.count"), 1);
        ctx.metric_add(&format!("{scope}.op.push_async.reqs"), reqs.len() as u64);
        ctx.metric_add(&format!("{scope}.op.push_async.bytes"), sent_bytes);
        ctx.metric_add(&format!("{scope}.op.push_async.rows"), 1);
        ctx.metric_observe(
            &format!("{scope}.op.push_async.latency"),
            ctx.now() - started,
        );
    }

    // ---- row access: aggregations -------------------------------------------

    /// Row aggregation (`sum`, `nnz`, `norm2`, `max`) computed server-side;
    /// only one scalar per server crosses the network.
    pub fn agg(&self, ctx: &mut SimCtx, row: u32, kind: AggKind) -> f64 {
        let req = |_: &mut SimCtx| AggReq {
            id: self.id,
            row,
            kind,
        };
        let partials = self
            .per_slot(ctx, tags::AGG, &[row], HDR, req)
            .into_iter()
            .map(|env| env.downcast::<f64>());
        match kind {
            AggKind::Max => partials.fold(f64::NEG_INFINITY, f64::max),
            _ => partials.sum(),
        }
    }

    pub fn sum(&self, ctx: &mut SimCtx, row: u32) -> f64 {
        self.agg(ctx, row, AggKind::Sum)
    }

    pub fn nnz(&self, ctx: &mut SimCtx, row: u32) -> u64 {
        self.agg(ctx, row, AggKind::Nnz) as u64
    }

    pub fn norm2(&self, ctx: &mut SimCtx, row: u32) -> f64 {
        self.agg(ctx, row, AggKind::Norm2Sq).sqrt()
    }

    // ---- column access: server-side computation --------------------------------

    /// Dot product of two rows of this matrix, computed server-side over
    /// co-located segments; only partial scalars travel.
    pub fn dot(&self, ctx: &mut SimCtx, row_a: u32, row_b: u32) -> f64 {
        let req = |_: &mut SimCtx| DotReq {
            id: self.id,
            row_a,
            row_b,
        };
        self.per_slot(ctx, tags::DOT, &[row_a, row_b], HDR, req)
            .into_iter()
            .map(|env| env.downcast::<f64>())
            .sum()
    }

    /// `dst += alpha * src`, server-side.
    pub fn axpy(&self, ctx: &mut SimCtx, dst_row: u32, src_row: u32, alpha: f64) {
        let req = |ctx: &mut SimCtx| AxpyReq {
            id: self.id,
            dst_row,
            src_row,
            alpha,
            op_id: ctx.alloc_reply_token(),
        };
        let _ = self.per_slot(ctx, tags::AXPY, &[dst_row, src_row], HDR, req);
    }

    /// `dst = a op b`, element-wise, server-side.
    pub fn elem(&self, ctx: &mut SimCtx, dst_row: u32, a_row: u32, b_row: u32, op: ElemOp) {
        let req = |ctx: &mut SimCtx| ElemReq {
            id: self.id,
            dst_row,
            a_row,
            b_row,
            op,
            op_id: ctx.alloc_reply_token(),
        };
        let _ = self.per_slot(ctx, tags::ELEM, &[dst_row, a_row, b_row], HDR, req);
    }

    /// Server-side multi-row update: on every server, `f` receives mutable
    /// co-located segments of `rows` (paper Figure 3's `zip(..).mapPartition`).
    /// `flops_per_elem` drives the simulated compute charge.
    pub fn zip(&self, ctx: &mut SimCtx, rows: &[u32], f: ZipMutFn, flops_per_elem: u64) {
        let req = |ctx: &mut SimCtx| ZipReq {
            id: self.id,
            rows: rows.to_vec(),
            f: Arc::clone(&f),
            flops_per_elem,
            op_id: ctx.alloc_reply_token(),
        };
        // UDF handle + row list.
        let _ = self.per_slot(ctx, tags::ZIP, rows, HDR + 64, req);
    }

    /// Server-side read-only fold over co-located segments: returns `f`'s
    /// per-server partials combined with `combine` (e.g. `f64::max` for GBDT
    /// split finding, `+` for losses).
    pub fn zip_map(
        &self,
        ctx: &mut SimCtx,
        rows: &[u32],
        f: ZipMapFn,
        flops_per_elem: u64,
        init: f64,
        combine: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        let req = |_: &mut SimCtx| ZipMapReq {
            id: self.id,
            rows: rows.to_vec(),
            f: Arc::clone(&f),
            flops_per_elem,
        };
        self.per_slot(ctx, tags::ZIP_MAP, rows, HDR + 64, req)
            .into_iter()
            .fold(init, |acc, env| combine(acc, env.downcast::<f64>()))
    }

    /// Server-side argmax scan: `f` maps each server's co-located segments
    /// to its best `(score, global index)`; the overall best (max score,
    /// ties to the smaller index) is returned. GBDT split finding runs this
    /// over the gradient/hessian histograms (paper §5.2.3).
    pub fn zip_argmax(
        &self,
        ctx: &mut SimCtx,
        rows: &[u32],
        f: crate::protocol::ZipArgmaxFn,
        flops_per_elem: u64,
    ) -> (f64, u64) {
        let req = |_: &mut SimCtx| crate::protocol::ZipArgmaxReq {
            id: self.id,
            rows: rows.to_vec(),
            f: Arc::clone(&f),
            flops_per_elem,
        };
        let mut partials = self
            .per_slot(ctx, tags::ZIP_ARGMAX, rows, HDR + 64, req)
            .into_iter()
            .map(|env| env.downcast::<(f64, u64)>());
        let first = partials
            .next()
            .unwrap_or_else(|| panic!("zip_argmax on matrix {:?}: no server answered", self.id));
        partials.fold(first, |(bs, bi), (score, idx)| {
            if score > bs || (score == bs && idx < bi) {
                (score, idx)
            } else {
                (bs, bi)
            }
        })
    }

    /// Set every element of a row to `value`.
    pub fn fill(&self, ctx: &mut SimCtx, row: u32, value: f64) {
        let req = |ctx: &mut SimCtx| FillReq {
            id: self.id,
            row,
            value,
            op_id: ctx.alloc_reply_token(),
        };
        let _ = self.per_slot(ctx, tags::FILL, &[row], HDR, req);
    }

    pub fn zero(&self, ctx: &mut SimCtx, row: u32) {
        self.fill(ctx, row, 0.0);
    }

    /// `row *= alpha`, server-side.
    pub fn scale(&self, ctx: &mut SimCtx, row: u32, alpha: f64) {
        let req = |ctx: &mut SimCtx| ScaleReq {
            id: self.id,
            row,
            alpha,
            op_id: ctx.alloc_reply_token(),
        };
        let _ = self.per_slot(ctx, tags::SCALE, &[row], HDR, req);
    }

    // ---- batch enqueue API ------------------------------------------------------

    /// Enqueue a [`MatrixHandle::zip`] into `batch` (one sub-request per
    /// owning server). Takes effect at [`PsBatch::flush`].
    pub fn zip_in(
        &self,
        ctx: &mut SimCtx,
        batch: &mut PsBatch,
        rows: &[u32],
        f: ZipMutFn,
        flops_per_elem: u64,
    ) {
        let req: Arc<dyn Any + Send + Sync> = Arc::new(ZipReq {
            id: self.id,
            rows: rows.to_vec(),
            f,
            flops_per_elem,
            op_id: ctx.alloc_reply_token(),
        });
        let subs = self
            .col_op_slots(rows)
            .into_iter()
            .map(|slot| (slot, tags::ZIP, Arc::clone(&req), 64))
            .collect();
        batch.enqueue(self, subs, rows.len() as u64, None);
    }

    /// Enqueue a [`MatrixHandle::fill`] into `batch`.
    pub fn fill_in(&self, ctx: &mut SimCtx, batch: &mut PsBatch, row: u32, value: f64) {
        let req: Arc<dyn Any + Send + Sync> = Arc::new(FillReq {
            id: self.id,
            row,
            value,
            op_id: ctx.alloc_reply_token(),
        });
        let subs = self
            .row_slots(row)
            .into_iter()
            .map(|slot| (slot, tags::FILL, Arc::clone(&req), 0))
            .collect();
        batch.enqueue(self, subs, 1, None);
    }

    /// Enqueue a [`MatrixHandle::zero`] into `batch`.
    pub fn zero_in(&self, ctx: &mut SimCtx, batch: &mut PsBatch, row: u32) {
        self.fill_in(ctx, batch, row, 0.0);
    }

    /// Enqueue many dot products into `batch`; the result is available after
    /// flush. Result `i` is the dot of `pairs[i]`.
    pub fn dot_many_in(&self, batch: &mut PsBatch, pairs: &[(u32, u32)]) -> BatchResult<Vec<f64>> {
        let result = BatchResult::empty();
        if pairs.is_empty() {
            result.fill(Vec::new());
            return result;
        }
        let pair_reqs: Vec<Arc<dyn Any + Send + Sync>> = pairs
            .iter()
            .map(|&(row_a, row_b)| {
                Arc::new(DotReq {
                    id: self.id,
                    row_a,
                    row_b,
                }) as Arc<dyn Any + Send + Sync>
            })
            .collect();
        let mut subs = Vec::new();
        for slot in self.col_op_slots(&[pairs[0].0]) {
            for req in &pair_reqs {
                subs.push((slot, tags::DOT, Arc::clone(req), 8));
            }
        }
        let n = pairs.len();
        let cell = result.clone();
        batch.enqueue(
            self,
            subs,
            2 * n as u64,
            Some(Box::new(move |collected| {
                // Slot-major order: sub k belongs to pair k % n.
                let mut out = vec![0.0; n];
                for (k, (_slot, reply)) in collected.into_iter().enumerate() {
                    out[k % n] += *reply.downcast::<f64>().expect("dot partial");
                }
                cell.fill(out);
            })),
        );
        result
    }

    /// Enqueue many independent zips into `batch`. Each job's closure
    /// typically captures one scalar coefficient, accounted at 16 bytes per
    /// job on the wire plus its row list.
    pub fn zip_many_in(
        &self,
        ctx: &mut SimCtx,
        batch: &mut PsBatch,
        jobs: Vec<(Vec<u32>, ZipMutFn)>,
        flops_per_elem: u64,
    ) {
        if jobs.is_empty() {
            return;
        }
        let first_row = jobs[0].0[0];
        let rows_total: u64 = jobs.iter().map(|(r, _)| r.len() as u64).sum();
        let job_reqs: Vec<(Arc<dyn Any + Send + Sync>, u64)> = jobs
            .into_iter()
            .map(|(rows, f)| {
                let body = 16 + 4 * rows.len() as u64;
                let req: Arc<dyn Any + Send + Sync> = Arc::new(ZipReq {
                    id: self.id,
                    rows,
                    f,
                    flops_per_elem,
                    op_id: ctx.alloc_reply_token(),
                });
                (req, body)
            })
            .collect();
        let mut subs = Vec::new();
        for slot in self.col_op_slots(&[first_row]) {
            for (req, body) in &job_reqs {
                subs.push((slot, tags::ZIP, Arc::clone(req), *body));
            }
        }
        batch.enqueue(self, subs, rows_total, None);
    }

    /// Enqueue pulls of many full dense rows into `batch`; results are
    /// available after flush, `rows[i]`'s values at index `i`.
    pub fn pull_rows_in(&self, batch: &mut PsBatch, rows: &[u32]) -> BatchResult<Vec<Vec<f64>>> {
        let result = BatchResult::empty();
        if rows.is_empty() {
            result.fill(Vec::new());
            return result;
        }
        assert!(
            self.is_column(),
            "pull_rows_in requires column partitioning"
        );
        let row_reqs: Vec<Arc<dyn Any + Send + Sync>> = rows
            .iter()
            .map(|&row| Arc::new(self.pull_req(row, ColsSel::All)) as Arc<dyn Any + Send + Sync>)
            .collect();
        let mut subs = Vec::new();
        for slot in self.row_slots(rows[0]) {
            for req in &row_reqs {
                subs.push((slot, tags::PULL, Arc::clone(req), 4));
            }
        }
        let n = rows.len();
        let dim = self.dim() as usize;
        let plan = Arc::clone(&self.plan);
        let cell = result.clone();
        batch.enqueue(
            self,
            subs,
            n as u64,
            Some(Box::new(move |collected| {
                let mut out: Vec<Vec<f64>> = vec![vec![0.0; dim]; n];
                for (k, (slot, reply)) in collected.into_iter().enumerate() {
                    let seg = *reply.downcast::<Vec<f64>>().expect("pulled segment");
                    let (lo, hi) = plan.cols_of(slot);
                    out[k % n][lo as usize..hi as usize].copy_from_slice(&seg);
                }
                cell.fill(out);
            })),
        );
        result
    }

    /// Enqueue dense additive pushes of many full rows into `batch`.
    pub fn push_dense_many_in(
        &self,
        ctx: &mut SimCtx,
        batch: &mut PsBatch,
        updates: &[(u32, Vec<f64>)],
    ) {
        if updates.is_empty() {
            return;
        }
        assert!(
            self.is_column(),
            "push_dense_many_in requires column partitioning"
        );
        let mut subs = Vec::new();
        for &(slot, lo, hi) in &self.plan.column_ranges() {
            for (row, values) in updates {
                let seg: Vec<f64> = values[lo as usize..hi as usize].to_vec();
                let body = 4 + self.value_bytes * seg.len() as u64;
                let req: Arc<dyn Any + Send + Sync> = Arc::new(PushReq {
                    id: self.id,
                    row: *row,
                    data: PushData::DenseSeg {
                        lo,
                        values: Arc::new(seg),
                    },
                    op_id: ctx.alloc_reply_token(),
                });
                subs.push((slot, tags::PUSH, req, body));
            }
        }
        batch.enqueue(self, subs, updates.len() as u64, None);
    }

    // ---- block access (LDA's by-column pattern) --------------------------------

    /// Pull the `rows × cols` block, `[col][row]`-ordered. Under column
    /// partitioning all rows of one column are co-located, so each column
    /// costs exactly one server's reply.
    pub fn pull_block(&self, ctx: &mut SimCtx, rows: &[u32], cols: &[u64]) -> Vec<Vec<f64>> {
        assert!(self.is_column(), "pull_block requires column partitioning");
        if cols.is_empty() {
            return Vec::new();
        }
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        let rows_arc = Arc::new(rows.to_vec());
        // Every row of a column plan has one layout, so row 0 routes them all.
        let reqs = self
            .split(0, cols, |&c| c)
            .into_iter()
            .map(|(slot, span)| {
                let chunk = cols[span].to_vec();
                let bytes = HDR + 4 * chunk.len() as u64 + 4 * rows.len() as u64;
                let req = PullBlockReq {
                    id: self.id,
                    rows: Arc::clone(&rows_arc),
                    cols: Arc::new(chunk),
                    value_bytes: self.value_bytes,
                };
                (slot, req, bytes)
            })
            .collect();
        let replies = self.fabric_call(ctx, tags::PULL_BLOCK, reqs, rows.len() as u64);
        concat(replies, cols.len() as u64)
    }

    /// Additive block push: `updates[(col, deltas aligned with rows)]`,
    /// sorted by column.
    pub fn push_block(&self, ctx: &mut SimCtx, rows: &[u32], updates: &[(u64, Vec<f64>)]) {
        assert!(self.is_column(), "push_block requires column partitioning");
        if updates.is_empty() {
            return;
        }
        debug_assert!(updates.windows(2).all(|w| w[0].0 < w[1].0));
        let rows_arc = Arc::new(rows.to_vec());
        let reqs = self
            .split(0, updates, |&(c, _)| c)
            .into_iter()
            .map(|(slot, span)| {
                let chunk = updates[span].to_vec();
                let cells: u64 = chunk.iter().map(|(_, d)| d.len() as u64).sum();
                let bytes = HDR + 4 * chunk.len() as u64 + self.value_bytes * cells;
                let req = PushBlockReq {
                    id: self.id,
                    rows: Arc::clone(&rows_arc),
                    updates: Arc::new(chunk),
                    op_id: ctx.alloc_reply_token(),
                };
                (slot, req, bytes)
            })
            .collect();
        let _ = self.fabric_call(ctx, tags::PUSH_BLOCK, reqs, rows.len() as u64);
    }

    /// Per-key block pulls: one request per column, all concurrently in
    /// flight (an *asynchronous* pull/push store's access pattern — no
    /// batched block protocol). Same result as [`MatrixHandle::pull_block`],
    /// different cost: per-request headers for every key.
    pub fn pull_cols_per_key(&self, ctx: &mut SimCtx, rows: &[u32], cols: &[u64]) -> Vec<Vec<f64>> {
        assert!(
            self.is_column(),
            "pull_cols_per_key requires column partitioning"
        );
        if cols.is_empty() {
            return Vec::new();
        }
        let rows_arc = Arc::new(rows.to_vec());
        let reqs = cols
            .iter()
            .map(|&c| {
                let req = PullBlockReq {
                    id: self.id,
                    rows: Arc::clone(&rows_arc),
                    cols: Arc::new(vec![c]),
                    value_bytes: self.value_bytes,
                };
                (self.plan.col_owner(c), req, HDR + 4 + 4 * rows.len() as u64)
            })
            .collect();
        self.fabric_call(ctx, tags::PULL_BLOCK, reqs, rows.len() as u64)
            .into_iter()
            .map(|env| {
                env.downcast::<Vec<Vec<f64>>>()
                    .into_iter()
                    .next()
                    .expect("one column per reply")
            })
            .collect()
    }

    /// Per-key additive pushes, dual of [`MatrixHandle::pull_cols_per_key`]:
    /// one request per updated column, all concurrently in flight.
    pub fn push_cols_per_key(&self, ctx: &mut SimCtx, rows: &[u32], updates: &[(u64, Vec<f64>)]) {
        assert!(
            self.is_column(),
            "push_cols_per_key requires column partitioning"
        );
        if updates.is_empty() {
            return;
        }
        let rows_arc = Arc::new(rows.to_vec());
        let per_cell = self.value_bytes;
        let reqs = updates
            .iter()
            .map(|(c, deltas)| {
                let bytes = HDR + 4 + per_cell * deltas.len() as u64;
                let req = PushBlockReq {
                    id: self.id,
                    rows: Arc::clone(&rows_arc),
                    updates: Arc::new(vec![(*c, deltas.clone())]),
                    op_id: ctx.alloc_reply_token(),
                };
                (self.plan.col_owner(*c), req, bytes)
            })
            .collect();
        let _ = self.fabric_call(ctx, tags::PUSH_BLOCK, reqs, rows.len() as u64);
    }

    // ---- cross-matrix ops (the Figure 4 story) -----------------------------------

    /// Dot between `self[row_self]` and `other[row_other]`.
    ///
    /// Co-located: runs like [`MatrixHandle::dot`] — no server↔server bytes.
    /// Misaligned: each of `self`'s servers fetches the matching remote
    /// segments before multiplying, paying the shuffle the paper's Figure 4
    /// warns about. Requests are issued sequentially to keep server↔server
    /// fetches acyclic. Retries re-resolve the *local* slot; a remote server
    /// dying mid-fetch is out of scope for client-side recovery (the local
    /// server stays parked on the fetch, taking no other request, without a
    /// deadline).
    pub fn cross_dot(
        &self,
        ctx: &mut SimCtx,
        other: &MatrixHandle,
        row_self: u32,
        row_other: u32,
    ) -> f64 {
        assert_eq!(self.dim(), other.dim());
        assert!(self.is_column() && other.is_column());
        let mut acc = 0.0;
        for (slot, lo, hi) in self.plan.pieces(row_self, 0, self.dim()) {
            let req = CrossDotReq {
                local_id: self.id,
                local_row: row_self,
                remote_id: other.id,
                remote_row: row_other,
                pieces: other.located(row_other, lo, hi),
                value_bytes: other.value_bytes,
            };
            let partial: f64 = self
                .fabric_one(ctx, slot, tags::CROSS_DOT, req, HDR + 24, 2)
                .downcast();
            acc += partial;
        }
        acc
    }

    /// `self[dst_row] = self[dst_row] op other[src_row]`, handling
    /// misaligned layouts by server↔server fetches (sequential, see
    /// [`MatrixHandle::cross_dot`]).
    pub fn cross_elem(
        &self,
        ctx: &mut SimCtx,
        other: &MatrixHandle,
        dst_row: u32,
        src_row: u32,
        op: ElemOp,
    ) {
        assert_eq!(self.dim(), other.dim());
        assert!(self.is_column() && other.is_column());
        for (slot, lo, hi) in self.plan.pieces(dst_row, 0, self.dim()) {
            let req = CrossElemReq {
                dst_id: self.id,
                dst_row,
                src_id: other.id,
                src_row,
                op,
                pieces: other.located(src_row, lo, hi),
                value_bytes: other.value_bytes,
                op_id: ctx.alloc_reply_token(),
            };
            let _ = self.fabric_one(ctx, slot, tags::CROSS_ELEM, req, HDR + 24, 2);
        }
    }

    // ---- routing helpers -----------------------------------------------------

    /// Split sorted `keys` by the slot holding each key's column `col(key)`
    /// of `row`: `(slot, span of keys)`, non-empty, in column order.
    fn split<K>(
        &self,
        row: u32,
        keys: &[K],
        col: impl Fn(&K) -> u64,
    ) -> Vec<(usize, Range<usize>)> {
        let (Some(first), Some(last)) = (keys.first(), keys.last()) else {
            return Vec::new();
        };
        let mut i = 0;
        self.plan
            .pieces(row, col(first), col(last) + 1)
            .into_iter()
            .filter_map(|(slot, _, hi)| {
                let start = i;
                while i < keys.len() && col(&keys[i]) < hi {
                    i += 1;
                }
                (i > start).then_some((slot, start..i))
            })
            .collect()
    }

    /// Slots that hold any part of `row`, slot-sorted: on a rotated plan
    /// column order is not slot order.
    fn row_slots(&self, row: u32) -> Vec<usize> {
        let mut slots: Vec<usize> = self
            .plan
            .pieces(row, 0, self.dim())
            .into_iter()
            .map(|(slot, _, _)| slot)
            .collect();
        slots.sort_unstable();
        slots
    }

    /// Slots participating in a column op over `rows`; for row plans this
    /// only works when all rows share one owner.
    fn col_op_slots(&self, rows: &[u32]) -> Vec<usize> {
        assert!(
            self.is_column()
                || rows
                    .iter()
                    .all(|&r| self.plan.row_owner(r) == self.plan.row_owner(rows[0])),
            "row-partitioned matrices only support column ops on co-owned rows \
             (the single-point limitation of row partitioning, paper §4.3)"
        );
        self.row_slots(rows[0])
    }

    /// Run a whole-segment op over `rows`: one request of `bytes`, built by
    /// `req`, to every slot holding them.
    fn per_slot<P: Any + Send + Sync>(
        &self,
        ctx: &mut SimCtx,
        tag: u32,
        rows: &[u32],
        bytes: u64,
        mut req: impl FnMut(&mut SimCtx) -> P,
    ) -> Vec<Envelope> {
        let reqs = self
            .col_op_slots(rows)
            .into_iter()
            .map(|slot| (slot, req(ctx), bytes))
            .collect();
        self.fabric_call(ctx, tag, reqs, rows.len() as u64)
    }

    /// Where `[lo, hi)` of `row` lives: `(lo, hi, server)` pieces for a
    /// server↔server fetch.
    fn located(&self, row: u32, lo: u64, hi: u64) -> Vec<(u64, u64, ProcId)> {
        self.plan
            .pieces(row, lo, hi)
            .into_iter()
            .map(|(slot, a, b)| (a, b, self.route.resolve(slot)))
            .collect()
    }
}

/// Concatenate the `Vec<T>` replies of a split op, which come back in
/// request (column) order, into `len` values.
fn concat<T: 'static>(replies: Vec<Envelope>, len: u64) -> Vec<T> {
    let mut out = Vec::with_capacity(len as usize);
    for env in replies {
        out.extend(env.downcast::<Vec<T>>());
    }
    out
}

// ---- split-phase push bookkeeping -------------------------------------------

/// An unacknowledged sparse push started with
/// [`MatrixHandle::push_sparse_begin`]. Retains the exact per-server
/// payloads so a hole can be resent byte-for-byte (the receiver dedups by
/// op-id). Settle with [`MatrixHandle::push_wait`]; dropping it without
/// waiting leaks nothing but forfeits the delivery guarantee.
#[must_use = "settle a pending push with MatrixHandle::push_wait"]
pub struct PendingPush {
    reqs: Vec<(usize, PushReq, u64)>,
    corrs: Vec<u64>,
    sent_bytes: u64,
    started: SimTime,
}

// ---- the client-side parameter cache ----------------------------------------

/// A worker-local parameter cache, the client half of the consistency
/// modes: `pull_cols` is served from local copies while the entries are
/// within the mode's staleness ttl, and only the misses travel.
///
/// Coherence rules (documented in DESIGN.md §consistency modes):
///
/// * An entry fetched at worker clock `f` may be served at clock `t` while
///   `t − f ≤ ttl`, where ttl is [`ConsistencyMode::cache_ttl`] — 0 under
///   BSP (an entry never survives its own iteration), the bound under SSP,
///   a fixed small ttl under async.
/// * The worker's own pushes are applied write-through via
///   [`ParamCache::note_push`], so a worker always reads its own writes
///   even when the push is still in flight.
/// * Any movement of the handle's route epoch (a server was replaced and
///   restored from checkpoint) invalidates the whole cache: restored state
///   may predate cached entries, and the bound must be re-established from
///   fresh pulls.
pub struct ParamCache {
    mode: ConsistencyMode,
    /// The owner's current iteration clock (set by [`ParamCache::advance_clock`]).
    clock: u32,
    /// Route epoch the entries were fetched under.
    epoch_seen: u64,
    /// Entries: `(row, col) → (value, fetched_at_clock)`.
    cols: BTreeMap<(u32, u64), (f64, u32)>,
}

impl ParamCache {
    pub fn new(mode: ConsistencyMode) -> ParamCache {
        ParamCache {
            mode,
            clock: 0,
            epoch_seen: 0,
            cols: BTreeMap::new(),
        }
    }

    /// Move the owner's clock to iteration `t` and evict every entry that
    /// can no longer be served under the ttl.
    pub fn advance_clock(&mut self, t: u32) {
        self.clock = t;
        let ttl = self.mode.cache_ttl();
        self.cols.retain(|_, &mut (_, f)| t - f.min(t) <= ttl);
    }

    /// Drop everything (used on route-epoch movement, available to tests).
    pub fn invalidate(&mut self) {
        self.cols.clear();
    }

    fn fresh(&self, fetched_at: u32) -> bool {
        self.clock - fetched_at.min(self.clock) <= self.mode.cache_ttl()
    }

    /// Invalidate on route-epoch movement: a replaced server was restored
    /// from checkpoint, so cached values may be newer than the server's.
    fn validate_epoch(&mut self, handle: &MatrixHandle) {
        let epoch = handle.route.epoch();
        if epoch != self.epoch_seen {
            self.invalidate();
            self.epoch_seen = epoch;
        }
    }

    /// [`MatrixHandle::pull_cols`] through the cache: hits are served
    /// locally (no messages, no virtual time), misses travel in one sparse
    /// pull, and the merged result comes back in `cols` order. Counters
    /// `ps.cache.hit` / `ps.cache.miss` record the split.
    pub fn pull_cols(
        &mut self,
        ctx: &mut SimCtx,
        handle: &MatrixHandle,
        row: u32,
        cols: &[u64],
    ) -> Vec<f64> {
        self.validate_epoch(handle);
        let mut missing: Vec<u64> = Vec::new();
        for &c in cols {
            match self.cols.get(&(row, c)) {
                Some(&(_, f)) if self.fresh(f) => {}
                _ => missing.push(c),
            }
        }
        ctx.metric_add("ps.cache.hit", (cols.len() - missing.len()) as u64);
        ctx.metric_add("ps.cache.miss", missing.len() as u64);
        if !missing.is_empty() {
            let fetched = handle.pull_cols(ctx, row, &missing);
            let t0 = ctx.now();
            for (&c, &v) in missing.iter().zip(&fetched) {
                self.cols.insert((row, c), (v, self.clock));
            }
            // Attribute the local merge to the pulls that fetched it (the
            // cache-fill stage of the request trace) and seal their records.
            // The merge is free under the current cost model, so this is
            // measured, not assumed.
            ctx.req_cache_fill(ctx.now() - t0);
        }
        cols.iter()
            .map(|&c| self.cols.get(&(row, c)).expect("filled above").0)
            .collect()
    }

    /// Apply the worker's own sparse push to the cached copies
    /// (read-my-writes): existing entries absorb the delta and count as
    /// refreshed at the current clock — the server's value is at least this
    /// new once the push lands. Columns not cached are left alone.
    pub fn note_push(&mut self, row: u32, pairs: &[(u64, f64)]) {
        for &(c, d) in pairs {
            if let Some(e) = self.cols.get_mut(&(row, c)) {
                e.0 += d;
                e.1 = self.clock;
            }
        }
    }
}

// ---- the coalescing batch context ------------------------------------------

/// The value an enqueued batched op will produce. Readable with
/// [`BatchResult::take`] only after the owning [`PsBatch`] has flushed.
pub struct BatchResult<T> {
    cell: Rc<RefCell<Option<T>>>,
}

impl<T> Clone for BatchResult<T> {
    fn clone(&self) -> Self {
        BatchResult {
            cell: Rc::clone(&self.cell),
        }
    }
}

impl<T> BatchResult<T> {
    fn empty() -> Self {
        BatchResult {
            cell: Rc::new(RefCell::new(None)),
        }
    }

    fn fill(&self, value: T) {
        *self.cell.borrow_mut() = Some(value);
    }

    /// The op's decoded result. Panics if the batch has not been flushed.
    pub fn take(&self) -> T {
        self.cell
            .borrow_mut()
            .take()
            .expect("PsBatch::flush must run before BatchResult::take")
    }
}

/// One queued sub-request: owning op, tag, payload, body bytes.
type QueuedSub = (usize, u32, Arc<dyn Any + Send + Sync>, u64);

/// Decoder of one op's sub-replies, delivered as `(slot, reply)` in
/// slot-major enqueue order.
type Decoder = Box<dyn FnOnce(Vec<(usize, Box<dyn Any + Send>)>)>;

/// Per-destination envelope coalescing: every op enqueued between flushes
/// contributes sub-requests, and [`PsBatch::flush`] sends **one**
/// `EnvelopeReq` per server carrying all of them — one round trip where the
/// bare ops would each have paid their own. Mutating sub-requests keep their
/// individual op-ids, so a retried envelope (fabric resends the identical
/// payload) re-applies nothing.
///
/// All enqueued ops must live on the same server fleet (share a route
/// table); the batch binds to the first handle's and asserts on the rest.
/// A batch may be reused: flush leaves it empty but bound.
#[derive(Default)]
pub struct PsBatch {
    route: Option<Arc<RouteTable>>,
    fleet: Option<Arc<PsFleet>>,
    by_slot: BTreeMap<usize, Vec<QueuedSub>>,
    decoders: Vec<Option<Decoder>>,
    rows_touched: u64,
}

impl PsBatch {
    pub fn new() -> PsBatch {
        PsBatch::default()
    }

    fn bind(&mut self, h: &MatrixHandle) {
        match &self.route {
            None => {
                self.route = Some(Arc::clone(&h.route));
                self.fleet = h.fleet.clone();
            }
            Some(route) => assert!(
                Arc::ptr_eq(route, &h.route),
                "a PsBatch coalesces per server: every enqueued op must target \
                 the same server fleet (shared route table)"
            ),
        }
    }

    /// Queue one op's sub-requests `(slot, tag, payload, body bytes)` and
    /// its reply decoder (None for fire-and-forget mutations).
    fn enqueue(
        &mut self,
        h: &MatrixHandle,
        subs: Vec<(usize, u32, Arc<dyn Any + Send + Sync>, u64)>,
        rows_touched: u64,
        decoder: Option<Decoder>,
    ) {
        self.bind(h);
        let op_idx = self.decoders.len();
        for (slot, tag, payload, body) in subs {
            self.by_slot
                .entry(slot)
                .or_default()
                .push((op_idx, tag, payload, body));
        }
        self.rows_touched += rows_touched;
        self.decoders.push(decoder);
    }

    /// Send one envelope per destination server through the fabric, wait for
    /// all replies, and run every enqueued op's decoder. The batch is left
    /// empty (but still bound) for reuse.
    pub fn flush(&mut self, ctx: &mut SimCtx) {
        let by_slot = std::mem::take(&mut self.by_slot);
        let decoders = std::mem::take(&mut self.decoders);
        let rows_touched = std::mem::replace(&mut self.rows_touched, 0);
        if by_slot.is_empty() {
            return;
        }
        let route = Arc::clone(self.route.as_ref().expect("non-empty batch is bound"));
        let fleet = self.fleet.clone();
        let slots: Vec<usize> = by_slot.keys().copied().collect();
        let reqs: Vec<(usize, EnvelopeReq, u64)> = slots
            .iter()
            .map(|&slot| {
                let subs: Vec<SubReq> = by_slot[&slot]
                    .iter()
                    .map(|(_, tag, payload, body)| (*tag, Arc::clone(payload), *body))
                    .collect();
                let bytes = HDR + subs.iter().map(|&(_, _, b)| SUB_HDR + b).sum::<u64>();
                let env = EnvelopeReq {
                    op_id: ctx.alloc_reply_token(),
                    subs: Arc::new(subs),
                };
                (slot, env, bytes)
            })
            .collect();
        let router = PsRouter {
            route: &route,
            fleet: fleet.as_deref(),
        };
        let replies = fabric::call_slots(
            ctx,
            &router,
            &ps_policy(),
            "envelope",
            tags::ENVELOPE,
            reqs,
            rows_touched,
        );
        // Split each server's reply vector back out to the owning ops.
        let mut per_op: Vec<Vec<(usize, Box<dyn Any + Send>)>> =
            (0..decoders.len()).map(|_| Vec::new()).collect();
        for (&slot, env) in slots.iter().zip(replies) {
            let sub_replies = env.downcast::<Vec<Box<dyn Any + Send>>>();
            debug_assert_eq!(sub_replies.len(), by_slot[&slot].len());
            for ((op_idx, _, _, _), reply) in by_slot[&slot].iter().zip(sub_replies) {
                per_op[*op_idx].push((slot, reply));
            }
        }
        for (decoder, collected) in decoders.into_iter().zip(per_op) {
            if let Some(d) = decoder {
                d(collected);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Partitioning;

    fn bare_handle(plan: PartitionPlan, route: Arc<RouteTable>) -> MatrixHandle {
        MatrixHandle {
            id: MatrixId(1),
            plan: Arc::new(plan),
            route,
            value_bytes: 8,
            fleet: None,
        }
    }

    #[test]
    fn row_slots_on_rotated_plans_stay_sorted() {
        let plan = PartitionPlan::new(90, 1, 3, Partitioning::ColumnRotated(1));
        // column order visits slots [1, 2, 0]; the helper must not depend
        // on visiting order.
        let h = bare_handle(plan, RouteTable::new(vec![ProcId(1), ProcId(2), ProcId(3)]));
        assert_eq!(h.row_slots(0), vec![0, 1, 2]);
    }
}
