//! The Dimension Co-located Vector.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use ps2_ps::{
    AggKind, BatchResult, ElemOp, MatrixHandle, PsBatch, ZipArgmaxFn, ZipMapFn, ZipMutFn,
};
use ps2_simnet::SimCtx;

/// A distributed vector on the parameter servers (paper §4).
///
/// A DCV is one row of a column-partitioned raw matrix. DCVs
/// [`derive`](Dcv::derive)d from the same `dense` allocation share the
/// partition plan, so their equal dimensions are co-located on the same
/// server and all column-access operators run server-side without
/// server↔server communication.
///
/// Cloning is cheap and `Dcv` is `Send + Sync`, so handles can be captured
/// by RDD task closures — that is how workers pull models and push gradients
/// from inside a `map_partitions`.
#[derive(Clone)]
pub struct Dcv {
    handle: MatrixHandle,
    row: u32,
    /// Next free row of the raw matrix, shared among all DCVs derived from
    /// the same allocation.
    next_row: Arc<AtomicU32>,
}

impl Dcv {
    pub(crate) fn first_of(handle: MatrixHandle) -> Dcv {
        Dcv {
            handle,
            row: 0,
            next_row: Arc::new(AtomicU32::new(1)),
        }
    }

    /// The underlying PS matrix handle.
    pub fn matrix(&self) -> &MatrixHandle {
        &self.handle
    }

    /// Row of the raw matrix this DCV occupies.
    pub fn row(&self) -> u32 {
        self.row
    }

    /// Vector dimension.
    pub fn dim(&self) -> u64 {
        self.handle.dim()
    }

    /// Whether column ops between the two DCVs are free of cross-server
    /// traffic.
    pub fn colocated_with(&self, other: &Dcv) -> bool {
        self.handle.id == other.handle.id || self.handle.colocated_with(&other.handle)
    }

    // ---- creation ops -----------------------------------------------------

    /// `DCV.derive(v)` (paper §4.3): hand out the next pre-allocated row of
    /// the raw matrix. The derived DCV is guaranteed co-located with `self`.
    ///
    /// Panics when the raw matrix is exhausted — allocate a larger `k` in
    /// `dense(dim, k)`.
    pub fn derive(&self, _ctx: &mut SimCtx) -> Dcv {
        let row = self.next_row.fetch_add(1, Ordering::Relaxed);
        assert!(
            row < self.handle.rows(),
            "raw matrix exhausted: dense(dim, {}) rows all derived; \
             allocate more rows up front",
            self.handle.rows()
        );
        Dcv {
            handle: self.handle.clone(),
            row,
            next_row: Arc::clone(&self.next_row),
        }
    }

    /// Enable message compression for this handle: parameters travel as
    /// 4-byte floats (the paper's LDA engineering, §6.3.3). Derived DCVs
    /// inherit the setting.
    pub fn compressed(mut self) -> Dcv {
        self.handle.value_bytes = 4;
        self
    }

    /// `fill(value)` returning self — the paper's
    /// `DCV.derive(w).fill(0.0)` chaining style.
    pub fn filled(self, ctx: &mut SimCtx, value: f64) -> Dcv {
        self.fill(ctx, value);
        self
    }

    // ---- row access ops (pull / push / aggregations) ------------------------

    /// Pull the full dense vector, gathering from all servers in parallel.
    pub fn pull(&self, ctx: &mut SimCtx) -> Vec<f64> {
        self.handle.pull_row(ctx, self.row)
    }

    /// Sparse pull of the given (sorted) indices — only the needed
    /// parameters travel, the paper's advantage over full-model pulls.
    pub fn pull_indices(&self, ctx: &mut SimCtx, indices: &[u64]) -> Vec<f64> {
        self.handle.pull_cols(ctx, self.row, indices)
    }

    /// Ranged pull of contiguous columns `[lo, hi)` — the dense slice
    /// access the pull/push-only baselines use when workers split the model
    /// update among themselves.
    pub fn pull_range(&self, ctx: &mut SimCtx, lo: u64, hi: u64) -> Vec<f64> {
        self.handle.pull_range(ctx, self.row, lo, hi)
    }

    /// Dense additive push (`add` in Figure 3: workers pushing gradients).
    pub fn add_dense(&self, ctx: &mut SimCtx, values: &[f64]) {
        self.handle.push_dense(ctx, self.row, values);
    }

    /// Sparse additive push of `(index, delta)` pairs (sorted on your
    /// behalf if needed — addition is order-insensitive).
    pub fn add_sparse(&self, ctx: &mut SimCtx, pairs: &[(u64, f64)]) {
        if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            self.handle.push_sparse(ctx, self.row, pairs);
        } else {
            let mut sorted = pairs.to_vec();
            sorted.sort_by_key(|&(i, _)| i);
            // Merge duplicate indices (strictly increasing required below).
            sorted.dedup_by(|b, a| {
                if a.0 == b.0 {
                    a.1 += b.1;
                    true
                } else {
                    false
                }
            });
            self.handle.push_sparse(ctx, self.row, &sorted);
        }
    }

    pub fn sum(&self, ctx: &mut SimCtx) -> f64 {
        self.handle.agg(ctx, self.row, AggKind::Sum)
    }

    pub fn nnz(&self, ctx: &mut SimCtx) -> u64 {
        self.handle.agg(ctx, self.row, AggKind::Nnz) as u64
    }

    pub fn norm2(&self, ctx: &mut SimCtx) -> f64 {
        self.handle.agg(ctx, self.row, AggKind::Norm2Sq).sqrt()
    }

    // ---- column access ops (server-side) --------------------------------------

    /// Server-side dot product. Co-located pairs cost only one scalar per
    /// server; misaligned pairs pay server↔server segment fetches (the
    /// Figure 4 penalty) while still returning the right answer.
    pub fn dot(&self, ctx: &mut SimCtx, other: &Dcv) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dot of mismatched dimensions");
        if self.handle.id == other.handle.id {
            self.handle.dot(ctx, self.row, other.row)
        } else {
            self.handle
                .cross_dot(ctx, &other.handle, self.row, other.row)
        }
    }

    /// `self += alpha * other`, server-side (`iaxpy` of Figure 6).
    pub fn iaxpy(&self, ctx: &mut SimCtx, other: &Dcv, alpha: f64) {
        assert_eq!(self.dim(), other.dim());
        if self.handle.id == other.handle.id {
            self.handle.axpy(ctx, self.row, other.row, alpha);
        } else {
            // Misaligned fallback: scale-free pull/push through this client.
            let vals = other.pull(ctx);
            let scaled: Vec<f64> = vals.iter().map(|v| v * alpha).collect();
            self.add_dense(ctx, &scaled);
        }
    }

    /// `self = a op b`, element-wise server-side; all three DCVs must come
    /// from the same raw matrix (use `derive`).
    pub fn assign_elem(&self, ctx: &mut SimCtx, a: &Dcv, b: &Dcv, op: ElemOp) {
        assert!(
            self.handle.id == a.handle.id && self.handle.id == b.handle.id,
            "assign_elem requires DCVs derived from the same dense() allocation"
        );
        self.handle.elem(ctx, self.row, a.row, b.row, op);
    }

    pub fn assign_add(&self, ctx: &mut SimCtx, a: &Dcv, b: &Dcv) {
        self.assign_elem(ctx, a, b, ElemOp::Add);
    }

    pub fn assign_sub(&self, ctx: &mut SimCtx, a: &Dcv, b: &Dcv) {
        self.assign_elem(ctx, a, b, ElemOp::Sub);
    }

    pub fn assign_mul(&self, ctx: &mut SimCtx, a: &Dcv, b: &Dcv) {
        self.assign_elem(ctx, a, b, ElemOp::Mul);
    }

    pub fn assign_div(&self, ctx: &mut SimCtx, a: &Dcv, b: &Dcv) {
        self.assign_elem(ctx, a, b, ElemOp::Div);
    }

    /// `self = other` (element-wise copy). Same-matrix pairs run
    /// server-side; misaligned pairs pay cross-server movement.
    pub fn copy_from(&self, ctx: &mut SimCtx, other: &Dcv) {
        if self.handle.id == other.handle.id {
            // dst = other + 0: zero self then add.
            self.zero(ctx);
            self.handle.axpy(ctx, self.row, other.row, 1.0);
        } else {
            self.zero(ctx);
            self.handle
                .cross_elem(ctx, &other.handle, self.row, other.row, ElemOp::Add);
        }
    }

    /// `self *= alpha`, server-side.
    pub fn scale(&self, ctx: &mut SimCtx, alpha: f64) {
        self.handle.scale(ctx, self.row, alpha);
    }

    pub fn fill(&self, ctx: &mut SimCtx, value: f64) {
        self.handle.fill(ctx, self.row, value);
    }

    pub fn zero(&self, ctx: &mut SimCtx) {
        self.handle.zero(ctx, self.row);
    }

    /// Enqueue a [`Dcv::zero`] into `batch`: it shares the batch's one
    /// envelope per server at [`PsBatch::flush`] instead of paying its own
    /// round trip.
    pub fn zero_in(&self, ctx: &mut SimCtx, batch: &mut PsBatch) {
        self.handle.fill_in(ctx, batch, self.row, 0.0);
    }

    /// Enqueue a [`Dcv::dot`] into `batch`; the value is readable once the
    /// batch has flushed. Both DCVs must come from the same `dense()`
    /// allocation, so the dot stays server-side.
    pub fn dot_in(&self, batch: &mut PsBatch, other: &Dcv) -> BatchResult<f64> {
        assert!(
            self.handle.id == other.handle.id,
            "dot_in requires DCVs derived from the same dense() allocation"
        );
        self.handle.dot_in(batch, self.row, other.row)
    }

    /// Begin a multi-DCV server-side computation (paper Figure 3, line 22:
    /// `weight.zip(velocity, square, gradient).mapPartition { ... }`).
    pub fn zip(&self, others: &[&Dcv]) -> ZipBuilder {
        let mut rows = vec![self.row];
        for o in others {
            assert!(
                o.handle.id == self.handle.id,
                "zip requires DCVs derived from the same dense() allocation"
            );
            rows.push(o.row);
        }
        ZipBuilder {
            handle: self.handle.clone(),
            rows,
        }
    }

    // ---- block access (shared raw matrix as a set of column vectors) -------

    /// Pull a `rows × indices` block of the raw matrix (all derived rows at
    /// the given columns). Used by LDA's by-word access.
    pub fn pull_block(&self, ctx: &mut SimCtx, rows: &[u32], indices: &[u64]) -> Vec<Vec<f64>> {
        self.handle.pull_block(ctx, rows, indices)
    }

    /// Additive block push, dual of [`Dcv::pull_block`].
    pub fn push_block(&self, ctx: &mut SimCtx, rows: &[u32], updates: &[(u64, Vec<f64>)]) {
        self.handle.push_block(ctx, rows, updates)
    }

    /// Per-key (one request per column, all in flight) block pull — the
    /// access pattern of an asynchronous pull/push-only store; used to
    /// emulate such baselines. Results match [`Dcv::pull_block`].
    pub fn pull_cols_per_key(
        &self,
        ctx: &mut SimCtx,
        rows: &[u32],
        indices: &[u64],
    ) -> Vec<Vec<f64>> {
        self.handle.pull_cols_per_key(ctx, rows, indices)
    }

    /// Per-key additive push, dual of [`Dcv::pull_cols_per_key`].
    pub fn push_cols_per_key(&self, ctx: &mut SimCtx, rows: &[u32], updates: &[(u64, Vec<f64>)]) {
        self.handle.push_cols_per_key(ctx, rows, updates)
    }
}

/// A pending server-side multi-vector computation over co-located rows.
pub struct ZipBuilder {
    handle: MatrixHandle,
    rows: Vec<u32>,
}

impl ZipBuilder {
    /// Run `f` on every server over the co-located segments of the zipped
    /// DCVs (mutable, in zip order). `flops_per_elem` drives the simulated
    /// compute charge per column element.
    pub fn map_partitions(self, ctx: &mut SimCtx, f: ZipMutFn, flops_per_elem: u64) {
        self.handle.zip(ctx, &self.rows, f, flops_per_elem);
    }

    /// Enqueue this zip into `batch` instead of running it now; it executes
    /// (coalesced with the batch's other ops) at [`PsBatch::flush`].
    pub fn map_partitions_in(
        self,
        ctx: &mut SimCtx,
        batch: &mut PsBatch,
        f: ZipMutFn,
        flops_per_elem: u64,
    ) {
        self.handle
            .zip_in(ctx, batch, &self.rows, f, flops_per_elem);
    }

    /// Read-only fold: `f` maps each server's co-located segments to a
    /// scalar; partials are folded with `combine` (e.g. `+` for losses).
    pub fn map_reduce(
        self,
        ctx: &mut SimCtx,
        f: ZipMapFn,
        flops_per_elem: u64,
        init: f64,
        combine: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        self.handle
            .zip_map(ctx, &self.rows, f, flops_per_elem, init, combine)
    }

    /// Server-side argmax scan: `f` maps each server's segments to its best
    /// `(score, global index)`; the global best comes back (the paper's
    /// `max` operator for GBDT split finding, §5.2.3).
    pub fn map_argmax(self, ctx: &mut SimCtx, f: ZipArgmaxFn, flops_per_elem: u64) -> (f64, u64) {
        self.handle.zip_argmax(ctx, &self.rows, f, flops_per_elem)
    }
}
