//! Wire protocol between PS-clients, PS-servers, the master and storage.
//!
//! Every data request declares its body once, in the `bodies!` table. A
//! bare message costs [`HDR`] + body; an [`EnvelopeReq`] costs one [`HDR`]
//! plus [`SUB_HDR`] + body per sub-request (DESIGN §5d).

use std::sync::Arc;

use ps2_simnet::{ProcId, WireSize};

use crate::plan::{MatrixId, PartitionPlan};

/// Message tags on the PS port space (dataflow uses 1..10).
pub(crate) mod tags {
    pub const CREATE: u32 = 10;
    pub const FREE: u32 = 11;
    pub const PULL: u32 = 12;
    pub const PUSH: u32 = 13;
    pub const AGG: u32 = 14;
    pub const DOT: u32 = 15;
    pub const AXPY: u32 = 16;
    pub const ELEM: u32 = 17;
    pub const ZIP: u32 = 18;
    pub const ZIP_MAP: u32 = 19;
    pub const FILL: u32 = 20;
    pub const SCALE: u32 = 21;
    pub const PULL_BLOCK: u32 = 22;
    pub const PUSH_BLOCK: u32 = 23;
    pub const FETCH_SEG: u32 = 24;
    pub const CROSS_DOT: u32 = 25;
    pub const CROSS_ELEM: u32 = 26;
    pub const CHECKPOINT: u32 = 27;
    pub const RESTORE: u32 = 28;
    pub const ZIP_ARGMAX: u32 = 29;
    // 30..=33 were the ad-hoc batched psFuncs (DOT_BATCH, ZIP_BATCH,
    // PULL_ROWS, PUSH_ROWS), superseded by the generic ENVELOPE container;
    // 34 was the scheduler's liveness PING, superseded by the fabric's
    // timeout-triggered recovery. The numbers stay reserved so old traces
    // read unambiguously.
    /// Per-server coalescing container: many sub-requests, one message.
    pub const ENVELOPE: u32 = 35;
    pub const STORE_PUT: u32 = 40;
    pub const STORE_GET: u32 = 41;
    // 60..=61 are the consistency clock service (REPORT/WAIT); see
    // `crate::consistency::clock_tags`.

    /// Stable op name for metric keys and breakdown tables.
    pub fn name(tag: u32) -> &'static str {
        match tag {
            CREATE => "create",
            FREE => "free",
            PULL => "pull",
            PUSH => "push",
            AGG => "agg",
            DOT => "dot",
            AXPY => "axpy",
            ELEM => "elem",
            ZIP => "zip",
            ZIP_MAP => "zip_map",
            FILL => "fill",
            SCALE => "scale",
            PULL_BLOCK => "pull_block",
            PUSH_BLOCK => "push_block",
            FETCH_SEG => "fetch_seg",
            CROSS_DOT => "cross_dot",
            CROSS_ELEM => "cross_elem",
            CHECKPOINT => "checkpoint",
            RESTORE => "restore",
            ZIP_ARGMAX => "zip_argmax",
            ENVELOPE => "envelope",
            STORE_PUT => "store_put",
            STORE_GET => "store_get",
            _ => "unknown",
        }
    }
}

/// Header of every PS request message: tag, matrix id, op id, framing.
pub(crate) const HDR: u64 = 48;

/// Per-sub-request framing inside an envelope (tag + length).
pub(crate) const SUB_HDR: u64 = 8;

/// A row id, column index, matrix id or server id.
const ID: u64 = 4;

/// An `f64` scalar or an op parameter (`AggKind`, `ElemOp`).
const SCALAR: u64 = 8;

/// A server-side function (`zip`, `zip_map`, `zip_argmax`): functions are
/// registered with the servers ahead of time, as Angel's psFuncs ship in
/// the job jar, so the wire carries an 8-byte function id and the one
/// `f64` coefficient a closure typically captures (DeepWalk's SGNS step,
/// an optimizer's step size).
const UDF: u64 = 16;

/// The plan and init of a CREATE: one fixed-size matrix descriptor.
const MATRIX_DESC: u64 = 48;

/// How to initialize a fresh matrix.
#[derive(Clone, Debug)]
pub enum InitKind {
    Zero,
    Const(f64),
    /// Uniform in `[lo, hi)`, deterministic in `(seed, row, column)`.
    Uniform {
        lo: f64,
        hi: f64,
        seed: u64,
    },
}

/// Row-access aggregations (paper Table 1: `sum`, `nnz`, `norm2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    Sum,
    Nnz,
    /// Sum of squares; the client takes the square root.
    Norm2Sq,
    Max,
}

/// Binary element-wise column ops (paper Table 1: `add`, `sub`, `mul`,
/// `div`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElemOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ElemOp {
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ElemOp::Add => a + b,
            ElemOp::Sub => a - b,
            ElemOp::Mul => a * b,
            ElemOp::Div => a / b,
        }
    }
}

/// Mutable segments of the zipped rows, all covering the same column range
/// of one server — the argument of a server-side `zip` update.
pub struct ZipSegs<'a> {
    /// One mutable segment per zipped row, in request order.
    pub segs: Vec<&'a mut [f64]>,
    /// First global column of the segments.
    pub lo: u64,
}

/// Server-side multi-vector update (paper Figure 3, lines 21-26).
pub type ZipMutFn = Arc<dyn Fn(&mut ZipSegs<'_>) + Send + Sync>;

/// Server-side read-only fold over co-located segments, returning one
/// scalar per server (e.g. loss sums, embedding dot products).
pub type ZipMapFn = Arc<dyn Fn(&[&[f64]], u64) -> f64 + Send + Sync>;

/// Server-side read-only scan returning `(score, global index)` — the GBDT
/// split-finding shape (paper §5.2.3's `max` operator). The second argument
/// is the first global column of the segments.
pub type ZipArgmaxFn = Arc<dyn Fn(&[&[f64]], u64) -> (f64, u64) + Send + Sync>;

// ---- request payloads -------------------------------------------------------

#[derive(Clone)]
pub(crate) struct CreateReq {
    pub id: MatrixId,
    pub plan: Arc<PartitionPlan>,
    pub init: InitKind,
    /// Which logical slot the receiving server occupies.
    pub slot: usize,
}

#[derive(Clone)]
pub(crate) struct FreeReq {
    pub id: MatrixId,
}

/// Column selector for pulls, pre-filtered to the receiving server.
#[derive(Clone)]
pub(crate) enum ColsSel {
    /// All columns this server owns, answered as one segment.
    All,
    /// A contiguous range (dense worker-slice access).
    Range(u64, u64),
    /// An explicit sorted list (sparse access).
    List(Arc<Vec<u64>>),
}

#[derive(Clone)]
pub(crate) struct PullReq {
    pub id: MatrixId,
    pub row: u32,
    pub cols: ColsSel,
    /// Bytes per value on the wire (8, or 4 with message compression).
    pub value_bytes: u64,
}

#[derive(Clone)]
pub(crate) enum PushData {
    /// Dense values for `[lo, lo + values.len())`.
    DenseSeg { lo: u64, values: Arc<Vec<f64>> },
    /// Sparse `(column, delta)` pairs.
    Sparse(Arc<Vec<(u64, f64)>>),
}

#[derive(Clone)]
pub(crate) struct PushReq {
    pub id: MatrixId,
    pub row: u32,
    pub data: PushData,
    /// Bytes per value on the wire (8, or 4 with message compression).
    pub value_bytes: u64,
    /// Attempt id of the logical update, allocated once per client op and
    /// reused verbatim on timeout retries. Servers remember recently applied
    /// `(matrix, op_id)` pairs and skip duplicates, so a retry that races a
    /// slow-but-alive server does not double-apply the delta. Every mutating
    /// request carries one.
    pub op_id: u64,
}

#[derive(Clone)]
pub(crate) struct AggReq {
    pub id: MatrixId,
    pub row: u32,
    pub kind: AggKind,
}

#[derive(Clone)]
pub(crate) struct DotReq {
    pub id: MatrixId,
    pub row_a: u32,
    pub row_b: u32,
}

#[derive(Clone)]
pub(crate) struct AxpyReq {
    pub id: MatrixId,
    pub dst_row: u32,
    pub src_row: u32,
    pub alpha: f64,
    /// See [`PushReq::op_id`].
    pub op_id: u64,
}

#[derive(Clone)]
pub(crate) struct ElemReq {
    pub id: MatrixId,
    pub dst_row: u32,
    pub a_row: u32,
    pub b_row: u32,
    pub op: ElemOp,
    /// See [`PushReq::op_id`].
    pub op_id: u64,
}

#[derive(Clone)]
pub(crate) struct ZipReq {
    pub id: MatrixId,
    pub rows: Vec<u32>,
    pub f: ZipMutFn,
    /// Cost model: flops charged per column element touched.
    pub flops_per_elem: u64,
    /// See [`PushReq::op_id`].
    pub op_id: u64,
}

#[derive(Clone)]
pub(crate) struct ZipMapReq {
    pub id: MatrixId,
    pub rows: Vec<u32>,
    pub f: ZipMapFn,
    pub flops_per_elem: u64,
}

#[derive(Clone)]
pub(crate) struct ZipArgmaxReq {
    pub id: MatrixId,
    pub rows: Vec<u32>,
    pub f: ZipArgmaxFn,
    pub flops_per_elem: u64,
}

/// One sub-request inside an [`EnvelopeReq`]: its would-be tag, its payload
/// (type-erased so one container carries any mix of ops), and its declared
/// body bytes.
pub(crate) type SubReq = (u32, Arc<dyn std::any::Any + Send + Sync>, u64);

/// The per-server coalescing container (the Angel-style batched psFunc,
/// generalized): every sub-request a flush bound for one server rides in a
/// single message. Sub-requests execute in order; mutating subs carry their
/// own op-ids, so a retried envelope re-applies none of them. The envelope
/// itself is a pure container and is never deduped.
#[derive(Clone)]
pub(crate) struct EnvelopeReq {
    /// Identifies the flush attempt for tracing; not a dedup key.
    pub op_id: u64,
    pub subs: Arc<Vec<SubReq>>,
}

#[derive(Clone)]
pub(crate) struct FillReq {
    pub id: MatrixId,
    pub row: u32,
    pub value: f64,
    /// See [`PushReq::op_id`].
    pub op_id: u64,
}

#[derive(Clone)]
pub(crate) struct ScaleReq {
    pub id: MatrixId,
    pub row: u32,
    pub alpha: f64,
    /// See [`PushReq::op_id`].
    pub op_id: u64,
}

/// Pull a `rows × cols` block (LDA's by-word access pattern: all topic rows
/// of a set of word columns, served by one server thanks to co-location).
#[derive(Clone)]
pub(crate) struct PullBlockReq {
    pub id: MatrixId,
    pub rows: Arc<Vec<u32>>,
    pub cols: Arc<Vec<u64>>,
    pub value_bytes: u64,
}

#[derive(Clone)]
pub(crate) struct PushBlockReq {
    pub id: MatrixId,
    pub rows: Arc<Vec<u32>>,
    /// `(column, deltas-per-row)` — deltas aligned with `rows`.
    pub updates: Arc<Vec<(u64, Vec<f64>)>>,
    pub value_bytes: u64,
    /// See [`PushReq::op_id`].
    pub op_id: u64,
}

/// Server-to-server segment fetch (cross-matrix ops on misaligned plans).
pub(crate) struct FetchSegReq {
    pub id: MatrixId,
    pub row: u32,
    pub lo: u64,
    pub hi: u64,
    pub value_bytes: u64,
}

/// Dot between a local row and a remote (misaligned) matrix's row. The
/// client pre-computed where each local piece lives remotely.
#[derive(Clone)]
pub(crate) struct CrossDotReq {
    pub local_id: MatrixId,
    pub local_row: u32,
    pub remote_id: MatrixId,
    pub remote_row: u32,
    /// `(lo, hi, remote server)` pieces covering this server's range.
    pub pieces: Vec<(u64, u64, ProcId)>,
    pub value_bytes: u64,
}

/// `dst = dst op remote_src` for misaligned matrices; the local server
/// fetches the remote pieces.
#[derive(Clone)]
pub(crate) struct CrossElemReq {
    pub dst_id: MatrixId,
    pub dst_row: u32,
    pub src_id: MatrixId,
    pub src_row: u32,
    pub op: ElemOp,
    pub pieces: Vec<(u64, u64, ProcId)>,
    pub value_bytes: u64,
    /// See [`PushReq::op_id`].
    pub op_id: u64,
}

#[derive(Clone)]
pub(crate) struct CheckpointReq {
    pub storage: ProcId,
    /// Stable logical key of this server slot (survives respawns).
    pub key: u64,
}

#[derive(Clone)]
pub(crate) struct RestoreReq {
    pub storage: ProcId,
    pub key: u64,
}

// ---- declared request bodies ---------------------------------------------------

fn ids(n: usize) -> u64 {
    ID * n as u64
}

/// Implements [`WireSize`] for each request type: `Type(req) => body`.
macro_rules! bodies {
    ($($t:ident($r:tt) => $body:expr,)*) => {
        $(impl WireSize for $t {
            fn wire_size(&self) -> u64 {
                let $r = self;
                $body
            }
        })*
    };
}

bodies! {
    CreateReq(_) => MATRIX_DESC,
    PullReq(r) => ID + match &r.cols {
        ColsSel::All => 0,
        ColsSel::Range(..) => 2 * ID,
        ColsSel::List(cols) => ids(cols.len()),
    },
    PushReq(r) => ID + match &r.data {
        PushData::DenseSeg { values, .. } => ID + r.value_bytes * values.len() as u64,
        PushData::Sparse(pairs) => (ID + r.value_bytes) * pairs.len() as u64,
    },
    AggReq(_) => ID + SCALAR,
    DotReq(_) => 2 * ID,
    AxpyReq(_) => 2 * ID + SCALAR,
    ElemReq(_) => 3 * ID + SCALAR,
    ZipReq(r) => ids(r.rows.len()) + UDF,
    ZipMapReq(r) => ids(r.rows.len()) + UDF,
    ZipArgmaxReq(r) => ids(r.rows.len()) + UDF,
    FillReq(_) => ID + SCALAR,
    ScaleReq(_) => ID + SCALAR,
    PullBlockReq(r) => ids(r.rows.len() + r.cols.len()),
    PushBlockReq(r) => ids(r.rows.len() + r.updates.len())
        + r.value_bytes * r.updates.iter().map(|(_, d)| d.len() as u64).sum::<u64>(),
    FetchSegReq(_) => 3 * ID,
    // Cross ops: two rows, the other matrix, and `(lo, hi, server)` pieces.
    CrossDotReq(r) => 3 * ID + ids(3 * r.pieces.len()),
    CrossElemReq(r) => 3 * ID + SCALAR + ids(3 * r.pieces.len()),
    EnvelopeReq(r) => r.subs.iter().map(|&(_, _, body)| SUB_HDR + body).sum(),
}

// ---- storage process payloads ----------------------------------------------

/// A server's snapshot: every shard's segments, one per row held. Stored by
/// the storage process as an opaque value.
pub(crate) struct Snapshot {
    pub shards: Vec<(MatrixId, Vec<Vec<f64>>)>,
    pub bytes: u64,
}

pub(crate) struct StorePutReq {
    pub key: u64,
    pub snapshot: Arc<Snapshot>,
}

pub(crate) struct StoreGetReq {
    pub key: u64,
}

pub(crate) enum StoreGetResp {
    Found(Arc<Snapshot>),
    Missing,
}
