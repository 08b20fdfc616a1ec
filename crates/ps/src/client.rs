//! The PS-client: typed, routed operations on a distributed matrix.
//!
//! A [`MatrixHandle`] is held by workers (inside RDD tasks) and by the
//! coordinator; all its methods scatter requests to the owning servers
//! through the caller's `SimCtx` and gather the replies. Row-access
//! operators parallelize across servers under column partitioning — the
//! paper's fix for the single-point problem — while column-access operators
//! run server-side over co-located segments.
//!
//! ## One request path
//!
//! Every op is planned once: the slots it touches
//! ([`PartitionPlan::pieces`] for row access, every slot holding the rows
//! for whole-segment ops), one payload per slot with its declared body, and
//! a decoder for the replies. Every op reaches the wire through a flush. A
//! blocking op is a one-op batch flushed at once; the `*_in` methods queue
//! it into the caller's [`PsBatch`] instead. A flush of one op sends it
//! bare, under its own tag and span (`ps.client.op.{name}.*`); a flush of
//! several sends **one** `EnvelopeReq` per server (the Angel-style batched
//! psFuncs generalized, DESIGN §4b.2), spanned `ps.client.op.envelope.*`.
//!
//! The shared [`ps2_simnet::fabric`] owns the reliability pipeline —
//! deadlines, route re-resolution, identical-payload resend, bounded retry
//! — and a split-phase push is a flush cut at its `begin` /`settle` seam
//! ([`MatrixHandle::push_sparse_begin`] / [`MatrixHandle::push_wait`]).
//! `PsRouter` adapts the [`RouteTable`] (and [`PsFleet`] recovery) to the
//! fabric. A mutating op's sub-requests share one `op_id`, which servers
//! deduplicate, so a resend racing a slow-but-alive server applies once.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use ps2_simnet::fabric::{self, FabricPolicy, SlotRouter};
use ps2_simnet::{ProcId, SimCtx, SimTime, WireSize};

use crate::master::PsFleet;
use crate::plan::{MatrixId, PartitionPlan, PlanKind, RouteTable};
use crate::protocol::{
    tags, AggKind, AggReq, AxpyReq, ColsSel, CrossDotReq, CrossElemReq, DotReq, ElemOp, ElemReq,
    EnvelopeReq, FillReq, PullBlockReq, PullReq, PushBlockReq, PushData, PushReq, ScaleReq, SubReq,
    ZipArgmaxFn, ZipArgmaxReq, ZipMapFn, ZipMapReq, ZipMutFn, ZipReq, HDR,
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
#[derive(Clone)]
pub(crate) struct PsRouter {
    pub route: Arc<RouteTable>,
    pub fleet: Option<Arc<PsFleet>>,
}

impl SlotRouter for PsRouter {
    fn resolve(&self, slot: usize) -> ProcId {
        self.route.resolve(slot)
    }

    fn epoch(&self) -> u64 {
        self.route.epoch()
    }

    fn try_recover(&self, ctx: &mut SimCtx) {
        // Any handle holder may run recovery; the fleet single-flights it.
        if let Some(fleet) = &self.fleet {
            fleet.recover_dead_servers(ctx);
        }
    }
}

// ---- planned ops ----------------------------------------------------------------

/// One sub-request reply, type-erased until its op's decoder reads it.
type Reply = Box<dyn Any + Send>;

/// One sub-request: destination slot, type-erased payload, declared body.
type Sub = (usize, Arc<dyn Any + Send + Sync>, u64);

/// What a flush sends for one op.
struct OpHead {
    /// Span name when the op is sent bare: `ps.client.op.{name}.*`.
    name: &'static str,
    tag: u32,
    /// In send order.
    subs: Vec<Sub>,
    /// Rows touched, the span's `rows`.
    rows: u64,
}

/// One logical op, planned once: its sub-requests and the decoder that
/// reads their replies, delivered in sub order. A mutation's replies are
/// bare acknowledgements, so its decoder is `drop`.
struct Op<D> {
    head: OpHead,
    decode: D,
}

impl<D> Op<D> {
    fn new(tag: u32, rows: u64, subs: Vec<Sub>, decode: D) -> Op<D> {
        let name = tags::name(tag);
        Op {
            head: OpHead {
                name,
                tag,
                subs,
                rows,
            },
            decode,
        }
    }
}

/// Sub-requests sending each slot its own request.
fn subs<P: Any + Send + Sync + WireSize>(reqs: impl IntoIterator<Item = (usize, P)>) -> Vec<Sub> {
    reqs.into_iter()
        .map(|(slot, req)| {
            let body = req.wire_size();
            (slot, Arc::new(req) as Arc<dyn Any + Send + Sync>, body)
        })
        .collect()
}

/// Sub-requests sending one request to every slot in `slots`.
fn shared<P: Any + Send + Sync + WireSize>(slots: Vec<usize>, req: P) -> Vec<Sub> {
    let body = req.wire_size();
    let req: Arc<dyn Any + Send + Sync> = Arc::new(req);
    slots
        .into_iter()
        .map(|slot| (slot, Arc::clone(&req), body))
        .collect()
}

/// Read every reply of a `tag` op on matrix `id` as a `T`; a mismatch
/// names the op and the matrix.
fn read_all<T: 'static>(replies: Vec<Reply>, tag: u32, id: MatrixId) -> impl Iterator<Item = T> {
    replies
        .into_iter()
        .map(move |reply| match reply.downcast::<T>() {
            Ok(value) => *value,
            Err(_) => panic!(
                "{} on matrix {id:?}: a reply is not a {}",
                tags::name(tag),
                std::any::type_name::<T>()
            ),
        })
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

    fn router(&self) -> PsRouter {
        PsRouter {
            route: Arc::clone(&self.route),
            fleet: self.fleet.clone(),
        }
    }

    /// Run `op` as a one-op batch flushed at once: sent bare, under its own
    /// tag and span. An op with no sub-requests (empty input) sends nothing.
    fn call<T>(&self, ctx: &mut SimCtx, op: Op<impl FnOnce(Vec<Reply>) -> T>) -> T {
        if op.head.subs.is_empty() {
            return (op.decode)(Vec::new());
        }
        let flight = Flight::bare(ctx, self.router(), op.head);
        let replies = flight.settle(ctx).into_iter().next().unwrap_or_default();
        (op.decode)(replies)
    }

    /// A whole-segment op over `rows`: `req` to every slot holding them.
    fn on_rows<P: Any + Send + Sync + WireSize, D>(
        &self,
        tag: u32,
        rows: &[u32],
        req: P,
        decode: D,
    ) -> Op<D> {
        let slots = self.col_op_slots(rows);
        Op::new(tag, rows.len() as u64, shared(slots, req), decode)
    }

    /// Decoder of a split row access: `Vec<T>` pieces in column order.
    fn joined<T: 'static>(&self, tag: u32) -> impl FnOnce(Vec<Reply>) -> Vec<T> {
        let id = self.id;
        move |replies| read_all::<Vec<T>>(replies, tag, id).flatten().collect()
    }

    // ---- row access: pull -------------------------------------------------

    /// A row pull over `(slot, columns)` pieces; values back in piece order.
    fn pull_op(
        &self,
        row: u32,
        pieces: impl IntoIterator<Item = (usize, ColsSel)>,
    ) -> Op<impl FnOnce(Vec<Reply>) -> Vec<f64>> {
        let reqs = pieces.into_iter().map(|(slot, cols)| {
            let req = PullReq {
                id: self.id,
                row,
                cols,
                value_bytes: self.value_bytes,
            };
            (slot, req)
        });
        Op::new(tags::PULL, 1, subs(reqs), self.joined(tags::PULL))
    }

    /// Pull a full dense row, gathering segments from every server in
    /// parallel.
    pub fn pull_row(&self, ctx: &mut SimCtx, row: u32) -> Vec<f64> {
        self.call(ctx, self.pull_row_op(row))
    }

    /// Enqueue a [`MatrixHandle::pull_row`] into `batch`.
    pub fn pull_row_in(&self, batch: &mut PsBatch, row: u32) -> BatchResult<Vec<f64>> {
        batch.add(self, self.pull_row_op(row))
    }

    fn pull_row_op(&self, row: u32) -> Op<impl FnOnce(Vec<Reply>) -> Vec<f64>> {
        assert!(row < self.rows());
        let pieces = self.plan.pieces(row, 0, self.dim());
        self.pull_op(
            row,
            pieces.into_iter().map(|(slot, _, _)| (slot, ColsSel::All)),
        )
    }

    /// Sparse pull: only the requested columns travel — the mechanism behind
    /// PS2's advantage over Petuum's full-model pulls (§6.3.1). `cols` must
    /// be sorted ascending; values return in the same order.
    pub fn pull_cols(&self, ctx: &mut SimCtx, row: u32, cols: &[u64]) -> Vec<f64> {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols must be sorted");
        let pieces = self.split(row, cols, |&c| c).into_iter();
        let pieces =
            pieces.map(|(slot, span)| (slot, ColsSel::List(Arc::new(cols[span].to_vec()))));
        self.call(ctx, self.pull_op(row, pieces))
    }

    /// Ranged pull: the contiguous columns `[lo, hi)` of a row — the dense
    /// worker-slice access the pull/push-only model-update path uses.
    pub fn pull_range(&self, ctx: &mut SimCtx, row: u32, lo: u64, hi: u64) -> Vec<f64> {
        assert!(lo <= hi && hi <= self.dim());
        let pieces = self.plan.pieces(row, lo, hi).into_iter();
        let pieces = pieces.map(|(slot, plo, phi)| (slot, ColsSel::Range(plo, phi)));
        self.call(ctx, self.pull_op(row, pieces))
    }

    // ---- row access: push (add) --------------------------------------------

    /// Dense additive push of a full row, split across servers.
    pub fn push_dense(&self, ctx: &mut SimCtx, row: u32, values: &[f64]) {
        assert_eq!(values.len() as u64, self.dim());
        self.push_dense_range(ctx, row, 0, values);
    }

    /// Enqueue a [`MatrixHandle::push_dense`] into `batch`.
    pub fn push_dense_in(&self, ctx: &mut SimCtx, batch: &mut PsBatch, row: u32, values: &[f64]) {
        assert_eq!(values.len() as u64, self.dim());
        let _ = batch.add(self, self.push_dense_op(ctx, row, 0, values));
    }

    /// Dense additive push of the contiguous columns `[lo, lo+values.len())`
    /// of a row, split across the owning servers.
    pub fn push_dense_range(&self, ctx: &mut SimCtx, row: u32, lo: u64, values: &[f64]) {
        let op = self.push_dense_op(ctx, row, lo, values);
        self.call(ctx, op)
    }

    fn push_dense_op(
        &self,
        ctx: &mut SimCtx,
        row: u32,
        lo: u64,
        values: &[f64],
    ) -> Op<fn(Vec<Reply>)> {
        let hi = lo + values.len() as u64;
        assert!(hi <= self.dim());
        let pieces = self
            .plan
            .pieces(row, lo, hi)
            .into_iter()
            .map(|(slot, plo, phi)| {
                let seg = values[(plo - lo) as usize..(phi - lo) as usize].to_vec();
                let data = PushData::DenseSeg {
                    lo: plo,
                    values: Arc::new(seg),
                };
                (slot, data)
            });
        self.push_op(ctx, row, pieces)
    }

    /// An additive push of `(slot, data)` pieces, one op-id for them all.
    fn push_op(
        &self,
        ctx: &mut SimCtx,
        row: u32,
        pieces: impl IntoIterator<Item = (usize, PushData)>,
    ) -> Op<fn(Vec<Reply>)> {
        let op_id = ctx.alloc_reply_token();
        let reqs = pieces.into_iter().map(|(slot, data)| {
            let req = PushReq {
                id: self.id,
                row,
                data,
                value_bytes: self.value_bytes,
                op_id,
            };
            (slot, req)
        });
        Op::new(tags::PUSH, 1, subs(reqs), drop)
    }

    /// Sparse additive push (`(column, delta)` pairs, sorted by column).
    pub fn push_sparse(&self, ctx: &mut SimCtx, row: u32, pairs: &[(u64, f64)]) {
        let op = self.push_sparse_op(ctx, row, pairs);
        self.call(ctx, op)
    }

    fn push_sparse_op(
        &self,
        ctx: &mut SimCtx,
        row: u32,
        pairs: &[(u64, f64)],
    ) -> Op<fn(Vec<Reply>)> {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        let pieces = self.split(row, pairs, |&(c, _)| c).into_iter();
        let pieces =
            pieces.map(|(slot, span)| (slot, PushData::Sparse(Arc::new(pairs[span].to_vec()))));
        self.push_op(ctx, row, pieces)
    }

    // ---- row access: split-phase (pipelined) push -----------------------------

    /// Start a sparse push without waiting for the acknowledgements, so the
    /// caller can overlap the next iteration's compute with the transfer —
    /// the pipelining that SSP/async training modes exploit. A one-op flush
    /// cut in two: this is its `begin`, under the span name `push_async`;
    /// [`MatrixHandle::push_wait`] is its `settle`, with the same
    /// hole-resend, recovery and dedup guarantees as a blocking push.
    pub fn push_sparse_begin(
        &self,
        ctx: &mut SimCtx,
        row: u32,
        pairs: &[(u64, f64)],
    ) -> PendingPush {
        let mut op = self.push_sparse_op(ctx, row, pairs);
        op.head.name = "push_async";
        PendingPush(Flight::bare(ctx, self.router(), op.head))
    }

    /// Gather the acknowledgements of a [`MatrixHandle::push_sparse_begin`].
    /// Latency in `ps.client.op.push_async.latency` runs from the begin,
    /// which is what the pipeline actually hides.
    pub fn push_wait(&self, ctx: &mut SimCtx, pending: PendingPush) {
        let _ = pending.0.settle(ctx);
    }

    // ---- row access: aggregations -------------------------------------------

    /// Row aggregation (`sum`, `nnz`, `norm2`, `max`) computed server-side;
    /// only one scalar per server crosses the network.
    pub fn agg(&self, ctx: &mut SimCtx, row: u32, kind: AggKind) -> f64 {
        let id = self.id;
        let req = AggReq { id, row, kind };
        let op = self.on_rows(tags::AGG, &[row], req, move |replies| {
            let partials = read_all::<f64>(replies, tags::AGG, id);
            match kind {
                AggKind::Max => partials.fold(f64::NEG_INFINITY, f64::max),
                _ => partials.sum(),
            }
        });
        self.call(ctx, op)
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
        self.call(ctx, self.dot_op(row_a, row_b))
    }

    /// Enqueue a [`MatrixHandle::dot`] into `batch`.
    pub fn dot_in(&self, batch: &mut PsBatch, row_a: u32, row_b: u32) -> BatchResult<f64> {
        batch.add(self, self.dot_op(row_a, row_b))
    }

    fn dot_op(&self, row_a: u32, row_b: u32) -> Op<impl FnOnce(Vec<Reply>) -> f64> {
        let id = self.id;
        let req = DotReq { id, row_a, row_b };
        let sum = move |replies| read_all::<f64>(replies, tags::DOT, id).sum();
        self.on_rows(tags::DOT, &[row_a, row_b], req, sum)
    }

    /// `dst += alpha * src`, server-side.
    pub fn axpy(&self, ctx: &mut SimCtx, dst_row: u32, src_row: u32, alpha: f64) {
        let req = AxpyReq {
            id: self.id,
            dst_row,
            src_row,
            alpha,
            op_id: ctx.alloc_reply_token(),
        };
        let rows = [dst_row, src_row];
        self.call(ctx, self.on_rows(tags::AXPY, &rows, req, drop))
    }

    /// `dst = a op b`, element-wise, server-side.
    pub fn elem(&self, ctx: &mut SimCtx, dst_row: u32, a_row: u32, b_row: u32, op: ElemOp) {
        let req = ElemReq {
            id: self.id,
            dst_row,
            a_row,
            b_row,
            op,
            op_id: ctx.alloc_reply_token(),
        };
        let rows = [dst_row, a_row, b_row];
        self.call(ctx, self.on_rows(tags::ELEM, &rows, req, drop))
    }

    /// Server-side multi-row update: on every server, `f` receives mutable
    /// co-located segments of `rows` (paper Figure 3's `zip(..).mapPartition`).
    /// `flops_per_elem` drives the simulated compute charge.
    pub fn zip(&self, ctx: &mut SimCtx, rows: &[u32], f: ZipMutFn, flops_per_elem: u64) {
        let op = self.zip_op(ctx, rows, f, flops_per_elem);
        self.call(ctx, op)
    }

    /// Enqueue a [`MatrixHandle::zip`] into `batch`.
    pub fn zip_in(
        &self,
        ctx: &mut SimCtx,
        batch: &mut PsBatch,
        rows: &[u32],
        f: ZipMutFn,
        flops_per_elem: u64,
    ) {
        let _ = batch.add(self, self.zip_op(ctx, rows, f, flops_per_elem));
    }

    fn zip_op(
        &self,
        ctx: &mut SimCtx,
        rows: &[u32],
        f: ZipMutFn,
        flops_per_elem: u64,
    ) -> Op<fn(Vec<Reply>)> {
        let req = ZipReq {
            id: self.id,
            rows: rows.to_vec(),
            f,
            flops_per_elem,
            op_id: ctx.alloc_reply_token(),
        };
        self.on_rows(tags::ZIP, rows, req, drop)
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
        let id = self.id;
        let req = ZipMapReq {
            id,
            rows: rows.to_vec(),
            f,
            flops_per_elem,
        };
        let op = self.on_rows(tags::ZIP_MAP, rows, req, |replies| {
            read_all::<f64>(replies, tags::ZIP_MAP, id).fold(init, combine)
        });
        self.call(ctx, op)
    }

    /// Server-side argmax scan: `f` maps each server's co-located segments
    /// to its best `(score, global index)`; the overall best (max score,
    /// ties to the smaller index) is returned. GBDT split finding runs this
    /// over the gradient/hessian histograms (paper §5.2.3).
    pub fn zip_argmax(
        &self,
        ctx: &mut SimCtx,
        rows: &[u32],
        f: ZipArgmaxFn,
        flops_per_elem: u64,
    ) -> (f64, u64) {
        let id = self.id;
        let req = ZipArgmaxReq {
            id,
            rows: rows.to_vec(),
            f,
            flops_per_elem,
        };
        let op = self.on_rows(tags::ZIP_ARGMAX, rows, req, move |replies| {
            let best = |(bs, bi): (f64, u64), (score, idx): (f64, u64)| {
                if score > bs || (score == bs && idx < bi) {
                    (score, idx)
                } else {
                    (bs, bi)
                }
            };
            read_all::<(f64, u64)>(replies, tags::ZIP_ARGMAX, id)
                .reduce(best)
                .unwrap_or((f64::NEG_INFINITY, u64::MAX))
        });
        self.call(ctx, op)
    }

    /// Set every element of a row to `value`.
    pub fn fill(&self, ctx: &mut SimCtx, row: u32, value: f64) {
        let op = self.fill_op(ctx, row, value);
        self.call(ctx, op)
    }

    /// Enqueue a [`MatrixHandle::fill`] into `batch`.
    pub fn fill_in(&self, ctx: &mut SimCtx, batch: &mut PsBatch, row: u32, value: f64) {
        let _ = batch.add(self, self.fill_op(ctx, row, value));
    }

    fn fill_op(&self, ctx: &mut SimCtx, row: u32, value: f64) -> Op<fn(Vec<Reply>)> {
        let req = FillReq {
            id: self.id,
            row,
            value,
            op_id: ctx.alloc_reply_token(),
        };
        self.on_rows(tags::FILL, &[row], req, drop)
    }

    pub fn zero(&self, ctx: &mut SimCtx, row: u32) {
        self.fill(ctx, row, 0.0);
    }

    /// `row *= alpha`, server-side.
    pub fn scale(&self, ctx: &mut SimCtx, row: u32, alpha: f64) {
        let req = ScaleReq {
            id: self.id,
            row,
            alpha,
            op_id: ctx.alloc_reply_token(),
        };
        self.call(ctx, self.on_rows(tags::SCALE, &[row], req, drop))
    }

    // ---- block access (LDA's by-column pattern) --------------------------------

    /// Pull the `rows × cols` block, `[col][row]`-ordered. Under column
    /// partitioning all rows of one column are co-located, so each column
    /// costs exactly one server's reply.
    pub fn pull_block(&self, ctx: &mut SimCtx, rows: &[u32], cols: &[u64]) -> Vec<Vec<f64>> {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        // Every row of a column plan has one layout, so row 0 routes them all.
        let pieces = self.split(0, cols, |&c| c).into_iter();
        self.pull_blocks(
            ctx,
            rows,
            pieces.map(|(slot, span)| (slot, cols[span].to_vec())),
        )
    }

    /// Per-key block pulls: one request per column, all concurrently in
    /// flight (an *asynchronous* pull/push store's access pattern — no
    /// batched block protocol). Same result as [`MatrixHandle::pull_block`],
    /// different cost: per-request headers for every key.
    pub fn pull_cols_per_key(&self, ctx: &mut SimCtx, rows: &[u32], cols: &[u64]) -> Vec<Vec<f64>> {
        let pieces = cols.iter().map(|&c| (self.plan.col_owner(c), vec![c]));
        self.pull_blocks(ctx, rows, pieces)
    }

    /// A block pull of `rows` over `(slot, columns)` pieces.
    fn pull_blocks(
        &self,
        ctx: &mut SimCtx,
        rows: &[u32],
        pieces: impl IntoIterator<Item = (usize, Vec<u64>)>,
    ) -> Vec<Vec<f64>> {
        assert!(
            self.is_column(),
            "block access requires column partitioning"
        );
        let rows_arc = Arc::new(rows.to_vec());
        let reqs = pieces.into_iter().map(|(slot, cols)| {
            let req = PullBlockReq {
                id: self.id,
                rows: Arc::clone(&rows_arc),
                cols: Arc::new(cols),
                value_bytes: self.value_bytes,
            };
            (slot, req)
        });
        let decode = self.joined(tags::PULL_BLOCK);
        self.call(
            ctx,
            Op::new(tags::PULL_BLOCK, rows.len() as u64, subs(reqs), decode),
        )
    }

    /// Additive block push: `updates[(col, deltas aligned with rows)]`,
    /// sorted by column.
    pub fn push_block(&self, ctx: &mut SimCtx, rows: &[u32], updates: &[(u64, Vec<f64>)]) {
        debug_assert!(updates.windows(2).all(|w| w[0].0 < w[1].0));
        let op_id = ctx.alloc_reply_token();
        let pieces = self.split(0, updates, |&(c, _)| c).into_iter();
        let pieces = pieces.map(|(slot, span)| (slot, updates[span].to_vec(), op_id));
        self.push_blocks(ctx, rows, pieces.collect())
    }

    /// Per-key additive pushes, dual of [`MatrixHandle::pull_cols_per_key`]:
    /// one request per updated column, all concurrently in flight. Each key
    /// is its own update with its own op-id, since several may land on one
    /// server.
    pub fn push_cols_per_key(&self, ctx: &mut SimCtx, rows: &[u32], updates: &[(u64, Vec<f64>)]) {
        let pieces = updates
            .iter()
            .map(|u| {
                (
                    self.plan.col_owner(u.0),
                    vec![u.clone()],
                    ctx.alloc_reply_token(),
                )
            })
            .collect();
        self.push_blocks(ctx, rows, pieces)
    }

    /// A block push of `rows` over `(slot, updates, op-id)` pieces.
    fn push_blocks(&self, ctx: &mut SimCtx, rows: &[u32], pieces: Vec<(usize, BlockUpdates, u64)>) {
        assert!(
            self.is_column(),
            "block access requires column partitioning"
        );
        let rows_arc = Arc::new(rows.to_vec());
        let reqs = pieces.into_iter().map(|(slot, updates, op_id)| {
            let req = PushBlockReq {
                id: self.id,
                rows: Arc::clone(&rows_arc),
                updates: Arc::new(updates),
                value_bytes: self.value_bytes,
                op_id,
            };
            (slot, req)
        });
        self.call(
            ctx,
            Op::new(tags::PUSH_BLOCK, rows.len() as u64, subs(reqs), drop),
        )
    }

    // ---- cross-matrix ops (the Figure 4 story) -----------------------------------

    /// Dot between `self[row_self]` and `other[row_other]`.
    ///
    /// Co-located: runs like [`MatrixHandle::dot`] — no server↔server bytes.
    /// Misaligned: each of `self`'s servers fetches the matching remote
    /// segments before multiplying, paying the shuffle the paper's Figure 4
    /// warns about. Requests are issued sequentially, one op per piece, to
    /// keep server↔server fetches acyclic. Retries re-resolve the *local*
    /// slot; a remote server dying mid-fetch is out of scope for client-side
    /// recovery (the local server stays parked on the fetch, taking no other
    /// request, without a deadline).
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
            let decode = |replies| read_all::<f64>(replies, tags::CROSS_DOT, self.id).sum::<f64>();
            acc += self.call(
                ctx,
                Op::new(tags::CROSS_DOT, 2, subs([(slot, req)]), decode),
            );
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
            self.call(ctx, Op::new(tags::CROSS_ELEM, 2, subs([(slot, req)]), drop));
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

/// `(column, deltas aligned with rows)` pairs of one block push request.
type BlockUpdates = Vec<(u64, Vec<f64>)>;

// ---- the flush ------------------------------------------------------------------

/// A flush on the wire: the fabric's in-flight requests, and how their
/// replies split back to the ops they answer. [`MatrixHandle::push_wait`]
/// settles one that [`MatrixHandle::push_sparse_begin`] began; every other
/// flush settles at once.
struct Flight {
    router: PsRouter,
    inflight: fabric::InFlight<'static, dyn Any + Send + Sync>,
    shape: Shape,
}

/// How a flight's requests map to its ops' sub-requests.
enum Shape {
    /// One op, sent bare: request `i` is its sub `i`.
    Bare,
    /// Several ops, one envelope per server: each op's sub count, and per
    /// envelope the `(op, sub)` each of its sub-replies answers.
    Enveloped {
        sizes: Vec<usize>,
        owners: Vec<Owners>,
    },
}

/// The `(op, sub)` each sub-request of one envelope belongs to.
type Owners = Vec<(usize, usize)>;

impl Flight {
    /// Put one op on the wire bare: one request per sub, under the op's own
    /// tag and span.
    fn bare(ctx: &mut SimCtx, router: PsRouter, head: OpHead) -> Flight {
        let (name, tag, rows) = (head.name, head.tag, head.rows);
        let reqs = head
            .subs
            .into_iter()
            .map(|(slot, req, body)| (slot, req, HDR + body));
        let inflight = fabric::begin(ctx, &router, &ps_policy(), name, tag, reqs.collect(), rows);
        Flight {
            router,
            inflight,
            shape: Shape::Bare,
        }
    }

    /// Put several ops on the wire as one `EnvelopeReq` per server,
    /// sub-requests in slot order and, within a slot, in enqueue order.
    fn enveloped(ctx: &mut SimCtx, router: PsRouter, heads: Vec<OpHead>) -> Flight {
        let rows = heads.iter().map(|h| h.rows).sum();
        let sizes = heads.iter().map(|h| h.subs.len()).collect();
        let mut by_slot: BTreeMap<usize, (Vec<SubReq>, Owners)> = BTreeMap::new();
        for (k, head) in heads.into_iter().enumerate() {
            for (j, (slot, req, body)) in head.subs.into_iter().enumerate() {
                let (subs, owners) = by_slot.entry(slot).or_default();
                subs.push((head.tag, req, body));
                owners.push((k, j));
            }
        }
        let mut reqs = Vec::with_capacity(by_slot.len());
        let mut owners = Vec::with_capacity(by_slot.len());
        for (slot, (subs, slot_owners)) in by_slot {
            let env = EnvelopeReq {
                op_id: ctx.alloc_reply_token(),
                subs: Arc::new(subs),
            };
            let bytes = HDR + env.wire_size();
            reqs.push((slot, Arc::new(env) as Arc<dyn Any + Send + Sync>, bytes));
            owners.push(slot_owners);
        }
        let (name, tag) = (tags::name(tags::ENVELOPE), tags::ENVELOPE);
        let inflight = fabric::begin(ctx, &router, &ps_policy(), name, tag, reqs, rows);
        Flight {
            router,
            inflight,
            shape: Shape::Enveloped { sizes, owners },
        }
    }

    /// Gather every reply and return each op's sub-replies, in sub order.
    fn settle(self, ctx: &mut SimCtx) -> Vec<Vec<Reply>> {
        let replies = fabric::settle(ctx, &self.router, &ps_policy(), self.inflight);
        match self.shape {
            Shape::Bare => vec![replies.into_iter().map(|env| env.payload).collect()],
            Shape::Enveloped { sizes, owners } => {
                let mut per_op: Vec<Vec<Option<Reply>>> = sizes
                    .into_iter()
                    .map(|n| (0..n).map(|_| None).collect())
                    .collect();
                for (env, owners) in replies.into_iter().zip(owners) {
                    let sub_replies = env.downcast::<Vec<Reply>>();
                    for (reply, (k, j)) in sub_replies.into_iter().zip(owners) {
                        per_op[k][j] = Some(reply);
                    }
                }
                per_op
                    .into_iter()
                    .map(|subs| subs.into_iter().flatten().collect())
                    .collect()
            }
        }
    }
}

/// An unacknowledged sparse push started with
/// [`MatrixHandle::push_sparse_begin`]: a one-op flush whose fabric
/// in-flight set retains the exact per-server payloads, so a hole is resent
/// byte-for-byte (the receiver dedups by op-id). Settle with
/// [`MatrixHandle::push_wait`]; dropping it without waiting leaks nothing
/// but forfeits the delivery guarantee.
#[must_use = "settle a pending push with MatrixHandle::push_wait"]
pub struct PendingPush(Flight);

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

/// Per-destination envelope coalescing: every op enqueued between flushes
/// contributes sub-requests, and [`PsBatch::flush`] sends **one**
/// `EnvelopeReq` per server carrying all of them — one round trip where the
/// bare ops would each have paid their own. A batch holding a single op
/// sends it bare, exactly as the blocking op would. Mutating sub-requests
/// keep their op's op-id, so a retried envelope (the fabric resends the
/// identical payload) re-applies nothing.
///
/// All enqueued ops must live on the same server fleet (share a route
/// table); the batch binds to the first handle's and asserts on the rest.
/// A batch may be reused: flush leaves it empty but bound.
#[derive(Default)]
pub struct PsBatch {
    router: Option<PsRouter>,
    heads: Vec<OpHead>,
    decoders: Vec<Box<dyn FnOnce(Vec<Reply>)>>,
}

impl PsBatch {
    pub fn new() -> PsBatch {
        PsBatch::default()
    }

    fn bind(&mut self, h: &MatrixHandle) {
        match &self.router {
            None => self.router = Some(h.router()),
            Some(router) => assert!(
                Arc::ptr_eq(&router.route, &h.route),
                "a PsBatch coalesces per server: every enqueued op must target \
                 the same server fleet (shared route table)"
            ),
        }
    }

    /// Queue one planned op; its decoded result is readable after flush.
    fn add<T: 'static>(
        &mut self,
        h: &MatrixHandle,
        op: Op<impl FnOnce(Vec<Reply>) -> T + 'static>,
    ) -> BatchResult<T> {
        self.bind(h);
        let result = BatchResult::empty();
        let cell = result.clone();
        let decode = op.decode;
        self.heads.push(op.head);
        self.decoders
            .push(Box::new(move |replies| cell.fill(decode(replies))));
        result
    }

    /// Send the queued ops through the fabric — one bare, several as one
    /// envelope per server — wait for all replies, and run every op's
    /// decoder. The batch is left empty (but still bound) for reuse.
    pub fn flush(&mut self, ctx: &mut SimCtx) {
        let (Some(router), false) = (&self.router, self.heads.is_empty()) else {
            return;
        };
        let flight = match <[OpHead; 1]>::try_from(std::mem::take(&mut self.heads)) {
            Ok([head]) => Flight::bare(ctx, router.clone(), head),
            Err(heads) => Flight::enveloped(ctx, router.clone(), heads),
        };
        let replies = flight.settle(ctx);
        for (decode, replies) in std::mem::take(&mut self.decoders).into_iter().zip(replies) {
            decode(replies);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Partitioning;
    use crate::protocol::SUB_HDR;
    use crate::server::deploy_ps;
    use crate::{InitKind, PsMaster};
    use ps2_simnet::SimBuilder;

    /// One size rule: per server, a bare `dot` costs `HDR + body`, and the
    /// same `dot` beside a `fill` one envelope of `HDR + Σ(SUB_HDR + body)`,
    /// both bodies from the declarations. Replies: a dot partial is 16 B, a
    /// fill ack 8 B, an envelope 16 B plus its subs' replies.
    #[test]
    fn bare_and_enveloped_requests_declare_one_body() {
        let mut sim = SimBuilder::new().seed(1).build();
        let (procs, storage) = deploy_ps(&mut sim, 4, 500e6);
        sim.spawn("coordinator", move |ctx| {
            let mut m = PsMaster::new(procs, storage);
            let h = m.create_matrix(ctx, 400, 2, Partitioning::Column, InitKind::Zero);
            h.dot(ctx, 0, 1);
            let mut batch = PsBatch::new();
            let _ = h.dot_in(&mut batch, 0, 1);
            h.fill_in(ctx, &mut batch, 1, 2.0);
            batch.flush(ctx);
        });
        let metrics = sim.run().expect("sim").metrics;
        let (id, row_a, row_b, value, op_id) = (MatrixId(1), 0, 1, 2.0, 0);
        let dot = DotReq { id, row_a, row_b }.wire_size();
        let fill = FillReq {
            id,
            row: 1,
            value,
            op_id,
        }
        .wire_size();
        let bare = metrics.counter("ps.client.op.dot.bytes");
        assert_eq!(bare, 4 * (HDR + dot + 16));
        let enveloped = metrics.counter("ps.client.op.envelope.bytes");
        let subs = (SUB_HDR + dot) + (SUB_HDR + fill);
        assert_eq!(enveloped, 4 * (HDR + subs + 16 + 16 + 8));
    }

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
