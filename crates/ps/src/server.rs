//! PS-server and checkpoint-storage agents.

use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use ps2_simnet::{payload_ref, Envelope, Proc, ProcId, SimRuntime, SimTime, StepCtx, WireSize};

use crate::plan::{MatrixId, PartitionPlan, PlanKind};
use crate::protocol::{
    tags, AggKind, AggReq, AxpyReq, CheckpointReq, ColsSel, CreateReq, CrossDotReq, CrossElemReq,
    DotReq, ElemReq, EnvelopeReq, FetchSegReq, FillReq, FreeReq, InitKind, PullBlockReq, PullReq,
    PushBlockReq, PushData, PushReq, RestoreReq, ScaleReq, Snapshot, StoreGetReq, StoreGetResp,
    StorePutReq, ZipMapReq, ZipReq, ZipSegs, HDR,
};

/// splitmix64: the deterministic per-element hash behind `InitKind::Uniform`,
/// so initialization is identical no matter which server materializes a cell.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn init_value(init: &InitKind, row: u32, col: u64) -> f64 {
    match init {
        InitKind::Zero => 0.0,
        InitKind::Const(c) => *c,
        InitKind::Uniform { lo, hi, seed } => {
            let h = mix64(seed ^ mix64((row as u64) << 40 ^ col));
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            lo + unit * (hi - lo)
        }
    }
}

/// One matrix's data on one server: the plan's one column range
/// `[lo, hi)` of every row this server holds.
struct Shard {
    plan: Arc<PartitionPlan>,
    lo: u64,
    hi: u64,
    /// Row plans only: the rows held, ascending. Column plans hold every row.
    owned_rows: Vec<u32>,
    /// One segment `[lo, hi)` per row held, indexed by [`Shard::slot`].
    data: Vec<Vec<f64>>,
}

impl Shard {
    fn build(slot: usize, plan: Arc<PartitionPlan>, init: &InitKind) -> Shard {
        let (lo, hi) = plan.cols_of(slot);
        let segment = |row| (lo..hi).map(|c| init_value(init, row, c)).collect();
        let (owned_rows, data): (Vec<u32>, _) = match &plan.kind {
            PlanKind::Column { .. } => (Vec::new(), (0..plan.rows).map(segment).collect()),
            PlanKind::Row { .. } => {
                let owned: Vec<u32> = (0..plan.rows)
                    .filter(|&r| plan.row_owner(r) == slot)
                    .collect();
                let data = owned.iter().map(|&row| segment(row)).collect();
                (owned, data)
            }
        };
        Shard {
            plan,
            lo,
            hi,
            owned_rows,
            data,
        }
    }

    fn is_column(&self) -> bool {
        matches!(self.plan.kind, PlanKind::Column { .. })
    }

    /// Resolve a row to its slot in `data`; panics if a row plan does not
    /// own the row (a routing bug).
    fn slot(&self, row: u32) -> usize {
        if self.is_column() {
            return row as usize;
        }
        // The plan's arithmetic says where the row would sit on its owner;
        // it sits there on this server only if this server is that owner.
        let idx = self.plan.row_index(row);
        if self.owned_rows.get(idx) != Some(&row) {
            panic!("row {row} not owned by this server");
        }
        idx
    }

    /// Offsets of the global columns `[lo, hi)` within a segment; panics if
    /// any of them lies outside this server's range (a routing bug).
    fn cols(&self, lo: u64, hi: u64) -> Range<usize> {
        if lo < self.lo || hi > self.hi {
            let col = if lo < self.lo { lo } else { hi - 1 };
            panic!("column {col} not owned by this server");
        }
        (lo - self.lo) as usize..(hi - self.lo) as usize
    }

    /// `row`'s values at columns `[lo, hi)`.
    fn seg(&self, row: u32, lo: u64, hi: u64) -> &[f64] {
        &self.data[self.slot(row)][self.cols(lo, hi)]
    }

    fn seg_mut(&mut self, row: u32, lo: u64, hi: u64) -> &mut [f64] {
        let (slot, cols) = (self.slot(row), self.cols(lo, hi));
        &mut self.data[slot][cols]
    }

    /// The whole segments of `rows`, in request order.
    fn segs(&self, rows: &[u32]) -> Vec<&[f64]> {
        rows.iter()
            .map(|&r| self.data[self.slot(r)].as_slice())
            .collect()
    }

    fn get(&self, row: u32, col: u64) -> f64 {
        self.seg(row, col, col + 1)[0]
    }

    fn add(&mut self, row: u32, col: u64, delta: f64) {
        self.seg_mut(row, col, col + 1)[0] += delta;
    }
}

/// Bounded memory of recently applied mutating op ids.
///
/// A client whose push timed out resends it with the same op id; if the
/// original was in fact applied (the server was slow, not dead), the server
/// recognizes the duplicate here, skips the re-apply, and still acknowledges
/// success. The memory is bounded (FIFO eviction), which is safe because a
/// retry of op `k` can only race the handful of ops in flight around `k` —
/// never something [`OP_LOG_CAP`] mutations in the past. A *replacement*
/// server starts with an empty log, so an update that was applied by the
/// dead server *and* retried against the replacement lands twice; that
/// bounded double-push window is the documented recovery tolerance.
struct OpLog {
    seen: HashSet<(MatrixId, u64)>,
    order: VecDeque<(MatrixId, u64)>,
}

const OP_LOG_CAP: usize = 4096;

impl OpLog {
    fn new() -> OpLog {
        OpLog {
            seen: HashSet::new(),
            order: VecDeque::new(),
        }
    }

    /// True when `(id, op_id)` was already applied; records it otherwise.
    fn check_and_record(&mut self, id: MatrixId, op_id: u64) -> bool {
        let key = (id, op_id);
        if self.seen.contains(&key) {
            return true;
        }
        if self.order.len() == OP_LOG_CAP {
            let oldest = self.order.pop_front().expect("cap > 0");
            self.seen.remove(&oldest);
        }
        self.order.push_back(key);
        self.seen.insert(key);
        false
    }
}

/// The `(matrix, op_id)` dedup key of a mutating request; `None` for
/// read-only requests, which are harmless to re-execute. Works on the bare
/// payload so envelope sub-requests dedup exactly like bare ones.
fn mutation_key(tag: u32, payload: &dyn Any) -> Option<(MatrixId, u64)> {
    macro_rules! key {
        ($t:ty) => {{
            let r: &$t = cast(tag, payload);
            Some((r.id, r.op_id))
        }};
    }
    match tag {
        tags::PUSH => key!(PushReq),
        tags::AXPY => key!(AxpyReq),
        tags::ELEM => key!(ElemReq),
        tags::ZIP => key!(ZipReq),
        tags::FILL => key!(FillReq),
        tags::SCALE => key!(ScaleReq),
        tags::PUSH_BLOCK => key!(PushBlockReq),
        _ => None,
    }
}

/// The PS server: stores shards, executes row- and column-access ops, runs
/// DCV column ops in place, checkpoints to storage and is restored from it.
/// A steppable agent — spawn one per server with
/// [`ps2_simnet::SimRuntime::spawn_agent_daemon`], as [`deploy_ps`] does.
///
/// Each request records its queue time (arrival → dequeue: how long it sat
/// behind earlier work) and service time (dequeue → reply sent) into
/// per-variant histograms `ps.server.{op}.queue` / `.service`.
///
/// The server handles one request at a time. The four ops that need an RPC
/// of their own mid-request (`CROSS_DOT` / `CROSS_ELEM` fetch remote
/// segments, `CHECKPOINT` / `RESTORE` talk to storage) park the request,
/// [`StepCtx::await_reply`] and resume on the reply; every other message
/// waits in the mailbox meanwhile, so a suspended op occupies the server for
/// as long as it takes and whatever queues behind it reports the wait.
pub struct PsServerAgent {
    shards: HashMap<MatrixId, Shard>,
    oplog: OpLog,
    parked: Option<Parked>,
    /// Metric names, built on first use (the proc id is not known at
    /// `new()`): this server's load counter and, per request tag, the
    /// `(queue, service)` histogram pair.
    served_name: String,
    op_names: HashMap<u32, (String, String)>,
}

/// A request being served, kept across its RPCs.
struct Parked {
    env: Envelope,
    /// Dequeue clock and queue time of `env`, for the histograms.
    t0: SimTime,
    queue: SimTime,
    /// `CROSS_*`: the piece whose remote segment is awaited.
    piece: usize,
    /// `CROSS_DOT`: the dot over the pieces before it.
    acc: f64,
}

/// Where running a request left it.
enum Step {
    /// Answer with `(payload, wire bytes)`.
    Reply(Box<dyn Any + Send>, u64),
    /// Park until the reply to this correlation id arrives.
    Await(u64),
}

impl Default for PsServerAgent {
    fn default() -> Self {
        Self::new()
    }
}

impl PsServerAgent {
    pub fn new() -> PsServerAgent {
        PsServerAgent {
            shards: HashMap::new(),
            oplog: OpLog::new(),
            parked: None,
            served_name: String::new(),
            op_names: HashMap::new(),
        }
    }

    /// Run `op` until it is answered or parks on an RPC; `reply` is the RPC
    /// reply a parked op was waiting for.
    fn run(&mut self, ctx: &mut StepCtx<'_>, mut op: Parked, reply: Option<Envelope>) {
        let name = tags::name(op.env.tag);
        // Tag the handler's compute charges with the op so trace analysis
        // can break server busy time down by request kind.
        ctx.op_label(name);
        let (shards, oplog) = (&mut self.shards, &mut self.oplog);
        let step = match (op.env.tag, reply) {
            (tags::CROSS_DOT | tags::CROSS_ELEM, fetched) => {
                cross(ctx, shards, oplog, &mut op, fetched)
            }
            (tags::CHECKPOINT, None) => checkpoint(ctx, shards, op.env.downcast_ref()),
            (tags::CHECKPOINT, Some(_stored)) => Step::Reply(Box::new(()), 8),
            (tags::RESTORE, None) => {
                let req: &RestoreReq = op.env.downcast_ref();
                let get = StoreGetReq { key: req.key };
                Step::Await(ctx.send_request(req.storage, tags::STORE_GET, get, 16))
            }
            (tags::RESTORE, Some(found)) => {
                Step::Reply(Box::new(restore(shards, found.downcast())), 8)
            }
            _ => handle(ctx, shards, oplog, &op.env),
        };
        let (answer, bytes) = match step {
            Step::Reply(answer, bytes) => (answer, bytes),
            Step::Await(corr) => {
                ctx.await_reply(corr);
                self.parked = Some(op);
                return;
            }
        };
        ctx.reply_boxed(&op.env, answer, bytes);
        ctx.op_label_clear();
        // Per-server load counter: the whole-run split of these across the
        // fleet measures access skew exactly.
        if self.served_name.is_empty() {
            self.served_name = format!("ps.server.p{}.served", ctx.id().0);
        }
        let (queue, service) = self.op_names.entry(op.env.tag).or_insert_with(|| {
            (
                format!("ps.server.{name}.queue"),
                format!("ps.server.{name}.service"),
            )
        });
        ctx.metric_add(&self.served_name, 1);
        ctx.metric_observe(queue, op.queue);
        ctx.metric_observe(service, ctx.now() - op.t0);
    }
}

impl Proc for PsServerAgent {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        if let Some(op) = self.parked.take() {
            // Parked on `await_reply`: this can only be the awaited reply.
            return self.run(ctx, op, Some(env));
        }
        if env.is_reply() {
            // Stray reply from a peer this server never calls; ignore.
            return;
        }
        let t0 = ctx.now();
        let op = Parked {
            queue: t0.saturating_sub(env.arrival),
            env,
            t0,
            piece: 0,
            acc: 0.0,
        };
        self.run(ctx, op, None);
    }
}

/// The two misaligned-vector requests, which differ in what they do with a
/// remote segment once it is here.
#[derive(Clone, Copy)]
enum Cross<'a> {
    Dot(&'a CrossDotReq),
    Elem(&'a CrossElemReq),
}

/// `CROSS_DOT` / `CROSS_ELEM` from piece `op.piece` on — the server↔server
/// shuffle misaligned vectors pay (the paper's Figure 4), one `FETCH_SEG`
/// per remote piece, in order. `fetched` is the reply a resumed op was
/// waiting for.
fn cross(
    ctx: &mut StepCtx<'_>,
    shards: &mut HashMap<MatrixId, Shard>,
    oplog: &mut OpLog,
    op: &mut Parked,
    mut fetched: Option<Envelope>,
) -> Step {
    let req = match op.env.tag {
        tags::CROSS_DOT => Cross::Dot(op.env.downcast_ref()),
        _ => Cross::Elem(op.env.downcast_ref()),
    };
    // The pieces, and where the other vector lives: matrix, row, bytes per
    // value on the wire.
    let (pieces, id, row, value_bytes) = match req {
        Cross::Dot(r) => (&r.pieces, r.remote_id, r.remote_row, r.value_bytes),
        Cross::Elem(r) => (&r.pieces, r.src_id, r.src_row, r.value_bytes),
    };
    if let (Cross::Elem(r), None) = (req, &fetched) {
        if oplog.check_and_record(r.dst_id, r.op_id) {
            // Duplicate of an update this server already applied.
            return Step::Reply(Box::new(()), 8);
        }
    }
    while let Some(&(lo, hi, remote)) = pieces.get(op.piece) {
        let theirs: Vec<f64> = if remote == ctx.id() {
            shard_of(shards, id).seg(row, lo, hi).to_vec()
        } else if let Some(reply) = fetched.take() {
            reply.downcast()
        } else {
            let fetch = FetchSegReq {
                id,
                row,
                lo,
                hi,
                value_bytes,
            };
            let bytes = HDR + fetch.wire_size();
            return Step::Await(ctx.send_request(remote, tags::FETCH_SEG, fetch, bytes));
        };
        match req {
            Cross::Dot(r) => {
                let mine = shard_of(shards, r.local_id).seg(r.local_row, lo, hi);
                let mut partial = 0.0;
                for (m, v) in mine.iter().zip(&theirs) {
                    partial += m * v;
                }
                op.acc += partial;
            }
            Cross::Elem(r) => {
                let mine = shard_mut(shards, r.dst_id).seg_mut(r.dst_row, lo, hi);
                for (cur, v) in mine.iter_mut().zip(&theirs) {
                    *cur += r.op.apply(*cur, *v) - *cur;
                }
            }
        }
        ctx.charge_flops(2 * (hi - lo));
        op.piece += 1;
    }
    match req {
        Cross::Dot(_) => Step::Reply(Box::new(op.acc), 16),
        Cross::Elem(_) => Step::Reply(Box::new(()), 8),
    }
}

/// Snapshot every shard and ship it to storage; the `STORE_PUT` reply
/// completes the checkpoint.
fn checkpoint(
    ctx: &mut StepCtx<'_>,
    shards: &HashMap<MatrixId, Shard>,
    req: &CheckpointReq,
) -> Step {
    let mut total = 0u64;
    let shard_data: Vec<(MatrixId, Vec<Vec<f64>>)> = shards
        .iter()
        .map(|(&id, sh)| {
            total += sh.data.iter().map(|seg| seg.len() as u64).sum::<u64>();
            (id, sh.data.clone())
        })
        .collect();
    let bytes = 32 + total * 8;
    ctx.charge_mem(total * 8);
    let snapshot = Arc::new(Snapshot {
        shards: shard_data,
        bytes,
    });
    let put = StorePutReq {
        key: req.key,
        snapshot,
    };
    Step::Await(ctx.send_request(req.storage, tags::STORE_PUT, put, bytes))
}

/// Load what storage answered a `STORE_GET` with; false when it had nothing.
fn restore(shards: &mut HashMap<MatrixId, Shard>, found: StoreGetResp) -> bool {
    match found {
        StoreGetResp::Found(snapshot) => {
            for (id, data) in &snapshot.shards {
                if let Some(shard) = shards.get_mut(id) {
                    shard.data = data.clone();
                }
            }
            true
        }
        StoreGetResp::Missing => false,
    }
}

/// Answer one request that needs no RPC of its own.
fn handle(
    ctx: &mut StepCtx<'_>,
    shards: &mut HashMap<MatrixId, Shard>,
    oplog: &mut OpLog,
    env: &Envelope,
) -> Step {
    let (reply, bytes) = if env.tag == tags::ENVELOPE {
        // The coalescing container: run each sub-request as if it had
        // arrived bare — own op label, own dedup check — and ship all the
        // replies back in one message.
        let req: &EnvelopeReq = env.downcast_ref();
        ctx.trace_mark_with("ps.server.envelope", req.op_id);
        let mut replies: Vec<Box<dyn Any + Send>> = Vec::with_capacity(req.subs.len());
        let mut bytes = 16u64;
        for (tag, payload, _) in req.subs.iter() {
            ctx.op_label(tags::name(*tag));
            let (reply, b) = dispatch_one(ctx, shards, oplog, *tag, payload.as_ref());
            replies.push(reply);
            bytes += b;
        }
        ctx.op_label("envelope");
        (Box::new(replies) as Box<dyn Any + Send>, bytes)
    } else {
        dispatch_one(ctx, shards, oplog, env.tag, env.payload.as_ref())
    };
    Step::Reply(reply, bytes)
}

/// Dedup-then-execute for one request, bare or enveloped.
fn dispatch_one(
    ctx: &mut StepCtx<'_>,
    shards: &mut HashMap<MatrixId, Shard>,
    oplog: &mut OpLog,
    tag: u32,
    payload: &dyn Any,
) -> (Box<dyn Any + Send>, u64) {
    if let Some((id, op_id)) = mutation_key(tag, payload) {
        if oplog.check_and_record(id, op_id) {
            // Duplicate of an update this server already applied (the client
            // timed out and resent): acknowledge without re-applying.
            return (Box::new(()), 8);
        }
    }
    execute(ctx, shards, tag, payload)
}

fn cast<T: 'static>(tag: u32, payload: &dyn Any) -> &T {
    payload_ref(payload).unwrap_or_else(|| panic!("ps-server: payload type mismatch for tag {tag}"))
}

/// Execute one request and return `(reply payload, reply wire bytes)`.
/// Pure of reliability concerns: dedup happened in the caller, the reply is
/// sent by the caller (so envelopes can collect many replies into one
/// message).
fn execute(
    ctx: &mut StepCtx<'_>,
    shards: &mut HashMap<MatrixId, Shard>,
    tag: u32,
    payload: &dyn Any,
) -> (Box<dyn Any + Send>, u64) {
    match tag {
        tags::CREATE => {
            let req: &CreateReq = cast(tag, payload);
            // Idempotent: fleet recovery replays creates into a replacement
            // server, and the fabric may then re-deliver the original
            // request — rebuilding here would wipe the restored values.
            if let std::collections::hash_map::Entry::Vacant(e) = shards.entry(req.id) {
                let shard = Shard::build(req.slot, Arc::clone(&req.plan), &req.init);
                // Materializing the shard touches every owned element.
                ctx.charge_mem((shard.hi - shard.lo) * shard.data.len() as u64 * 8);
                e.insert(shard);
            }
            (Box::new(()), 8)
        }
        tags::FREE => {
            let req: &FreeReq = cast(tag, payload);
            shards.remove(&req.id);
            (Box::new(()), 8)
        }
        tags::PULL => {
            let req: &PullReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let (values, mem_per_value): (Vec<f64>, u64) = match &req.cols {
                ColsSel::All => (shard.data[shard.slot(req.row)].clone(), 8),
                ColsSel::Range(lo, hi) => (shard.seg(req.row, *lo, *hi).to_vec(), 8),
                // A list pull also reads the index of every value.
                ColsSel::List(cols) => (cols.iter().map(|&c| shard.get(req.row, c)).collect(), 16),
            };
            let n = values.len() as u64;
            ctx.charge_mem(n * mem_per_value);
            (Box::new(values), 16 + n * req.value_bytes)
        }
        tags::PUSH => {
            let req: &PushReq = cast(tag, payload);
            let (id, row) = (req.id, req.row);
            let shard = shard_mut(shards, id);
            match &req.data {
                PushData::DenseSeg { lo, values } => {
                    let seg = shard.seg_mut(row, *lo, lo + values.len() as u64);
                    for (d, v) in seg.iter_mut().zip(values.iter()) {
                        *d += v;
                    }
                    ctx.charge_flops(values.len() as u64);
                }
                PushData::Sparse(pairs) => {
                    for &(c, v) in pairs.iter() {
                        shard.add(row, c, v);
                    }
                    ctx.charge_flops(2 * pairs.len() as u64);
                }
            }
            (Box::new(()), 8)
        }
        tags::AGG => {
            let req: &AggReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let seg = &shard.data[shard.slot(req.row)];
            let mut acc = match req.kind {
                AggKind::Max => f64::NEG_INFINITY,
                _ => 0.0,
            };
            for &v in seg {
                match req.kind {
                    AggKind::Sum => acc += v,
                    AggKind::Nnz => acc += if v != 0.0 { 1.0 } else { 0.0 },
                    AggKind::Norm2Sq => acc += v * v,
                    AggKind::Max => acc = acc.max(v),
                }
            }
            ctx.charge_flops(seg.len() as u64);
            (Box::new(acc), 16)
        }
        tags::DOT => {
            let req: &DotReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let a = &shard.data[shard.slot(req.row_a)];
            let b = &shard.data[shard.slot(req.row_b)];
            let mut acc = 0.0;
            for (x, y) in a.iter().zip(b) {
                acc += x * y;
            }
            ctx.charge_flops(2 * a.len() as u64);
            (Box::new(acc), 16)
        }
        tags::AXPY => {
            let req: &AxpyReq = cast(tag, payload);
            let alpha = req.alpha;
            let shard = shard_mut(shards, req.id);
            let src = shard.data[shard.slot(req.src_row)].clone();
            let dst = shard.slot(req.dst_row);
            for (d, s) in shard.data[dst].iter_mut().zip(&src) {
                *d += alpha * s;
            }
            ctx.charge_flops(2 * src.len() as u64);
            (Box::new(()), 8)
        }
        tags::ELEM => {
            let req: &ElemReq = cast(tag, payload);
            let op = req.op;
            let shard = shard_mut(shards, req.id);
            let a = shard.data[shard.slot(req.a_row)].clone();
            let b = shard.data[shard.slot(req.b_row)].clone();
            let dst = shard.slot(req.dst_row);
            for (d, (x, y)) in shard.data[dst].iter_mut().zip(a.iter().zip(&b)) {
                *d = op.apply(*x, *y);
            }
            ctx.charge_flops(a.len() as u64);
            (Box::new(()), 8)
        }
        tags::ZIP => {
            let req: &ZipReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let slots: Vec<usize> = req.rows.iter().map(|&r| shard.slot(r)).collect();
            assert_unique(&slots);
            let mut taken: Vec<Vec<f64>> = slots
                .iter()
                .map(|&s| std::mem::take(&mut shard.data[s]))
                .collect();
            let n = taken.first().map_or(0, |s| s.len() as u64);
            let mut zs = ZipSegs {
                segs: taken.iter_mut().map(Vec::as_mut_slice).collect(),
                lo: shard.lo,
            };
            (req.f)(&mut zs);
            for (s, seg) in slots.iter().zip(taken) {
                shard.data[*s] = seg;
            }
            ctx.charge_flops(req.flops_per_elem * n);
            (Box::new(()), 8)
        }
        tags::ZIP_MAP => {
            let req: &ZipMapReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let segs = shard.segs(&req.rows);
            let partial = (req.f)(&segs, shard.lo);
            ctx.charge_flops(req.flops_per_elem * segs.first().map_or(0, |s| s.len() as u64));
            (Box::new(partial), 16 + 8)
        }
        tags::ZIP_ARGMAX => {
            let req: &crate::protocol::ZipArgmaxReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let segs = shard.segs(&req.rows);
            let partial = (req.f)(&segs, shard.lo);
            ctx.charge_flops(req.flops_per_elem * segs.first().map_or(0, |s| s.len() as u64));
            (Box::new(partial), 16 + 16)
        }
        tags::FILL => {
            let req: &FillReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let slot = shard.slot(req.row);
            shard.data[slot].fill(req.value);
            ctx.charge_mem(shard.data[slot].len() as u64 * 8);
            (Box::new(()), 8)
        }
        tags::SCALE => {
            let req: &ScaleReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let slot = shard.slot(req.row);
            for v in shard.data[slot].iter_mut() {
                *v *= req.alpha;
            }
            ctx.charge_flops(shard.data[slot].len() as u64);
            (Box::new(()), 8)
        }
        tags::PULL_BLOCK => {
            let req: &PullBlockReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            // [col_idx][row_idx] layout.
            let block: Vec<Vec<f64>> = req
                .cols
                .iter()
                .map(|&c| req.rows.iter().map(|&r| shard.get(r, c)).collect())
                .collect();
            let n = (req.cols.len() * req.rows.len()) as u64;
            ctx.charge_mem(n * 16);
            (
                Box::new(block),
                16 + n * req.value_bytes + 4 * req.cols.len() as u64,
            )
        }
        tags::PUSH_BLOCK => {
            let req: &PushBlockReq = cast(tag, payload);
            let rows = Arc::clone(&req.rows);
            let updates = Arc::clone(&req.updates);
            let shard = shard_mut(shards, req.id);
            let mut n = 0u64;
            for (c, deltas) in updates.iter() {
                for (&r, &d) in rows.iter().zip(deltas) {
                    shard.add(r, *c, d);
                    n += 1;
                }
            }
            ctx.charge_flops(2 * n);
            (Box::new(()), 8)
        }
        tags::FETCH_SEG => {
            let req: &FetchSegReq = cast(tag, payload);
            let values = shard_of(shards, req.id)
                .seg(req.row, req.lo, req.hi)
                .to_vec();
            let n = values.len() as u64;
            ctx.charge_mem(n * 8);
            (Box::new(values), 16 + n * req.value_bytes)
        }
        other => panic!("ps-server: unknown tag {other}"),
    }
}

fn assert_unique(slots: &[usize]) {
    for (i, a) in slots.iter().enumerate() {
        for b in &slots[i + 1..] {
            assert_ne!(a, b, "zip rows must be distinct");
        }
    }
}

fn shard_of(shards: &HashMap<MatrixId, Shard>, id: MatrixId) -> &Shard {
    shards
        .get(&id)
        .unwrap_or_else(|| panic!("matrix {id:?} not present on this server"))
}

fn shard_mut(shards: &mut HashMap<MatrixId, Shard>, id: MatrixId) -> &mut Shard {
    shards
        .get_mut(&id)
        .unwrap_or_else(|| panic!("matrix {id:?} not present on this server"))
}

/// The checkpoint storage process ("reliable external storage", e.g. HDFS),
/// a steppable agent. Charges a disk-bandwidth cost per operation on top of
/// the network cost of getting bytes to it.
pub struct StorageAgent {
    disk_bytes_per_sec: f64,
    store: HashMap<u64, Arc<Snapshot>>,
}

impl StorageAgent {
    pub fn new(disk_bytes_per_sec: f64) -> StorageAgent {
        StorageAgent {
            disk_bytes_per_sec,
            store: HashMap::new(),
        }
    }

    /// Charge the disk time of moving `snapshot`.
    fn disk(&self, ctx: &mut StepCtx<'_>, snapshot: &Snapshot) {
        let secs = snapshot.bytes as f64 / self.disk_bytes_per_sec;
        ctx.advance(SimTime::from_secs_f64(secs));
    }
}

impl Proc for StorageAgent {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        match env.tag {
            tags::STORE_PUT => {
                let req: &StorePutReq = env.downcast_ref();
                self.disk(ctx, &req.snapshot);
                self.store.insert(req.key, Arc::clone(&req.snapshot));
                ctx.reply(&env, (), 8);
            }
            tags::STORE_GET => {
                let req: &StoreGetReq = env.downcast_ref();
                match self.store.get(&req.key) {
                    Some(snap) => {
                        self.disk(ctx, snap);
                        ctx.reply(&env, StoreGetResp::Found(Arc::clone(snap)), snap.bytes);
                    }
                    None => ctx.reply(&env, StoreGetResp::Missing, 8),
                }
            }
            other => panic!("storage: unknown tag {other}"),
        }
    }
}

/// Checkpoint-storage disk bandwidth of every deployment (bytes/s); tests
/// pass slower or faster disks to [`deploy_ps`].
pub const DISK_BYTES_PER_SEC: f64 = 500e6;

/// Spawn `n` PS-servers plus one storage process.
pub fn deploy_ps(sim: &mut SimRuntime, n: usize, disk_bytes_per_sec: f64) -> (Vec<ProcId>, ProcId) {
    let servers = (0..n)
        .map(|i| sim.spawn_agent_daemon(&format!("ps-server-{i}"), PsServerAgent::new()))
        .collect();
    let storage = sim.spawn_agent_daemon("ps-storage", StorageAgent::new(disk_bytes_per_sec));
    (servers, storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Partitioning;
    use crate::protocol::{ColsSel, PullReq, PushData, PushReq};
    use ps2_simnet::SimBuilder;

    #[test]
    fn op_log_recognizes_duplicates() {
        let mut log = OpLog::new();
        let id = MatrixId(1);
        assert!(!log.check_and_record(id, 7));
        assert!(log.check_and_record(id, 7));
        assert!(!log.check_and_record(MatrixId(2), 7));
        assert!(!log.check_and_record(id, 8));
    }

    #[test]
    fn op_log_evicts_oldest_at_capacity() {
        let mut log = OpLog::new();
        let id = MatrixId(1);
        for op in 0..OP_LOG_CAP as u64 {
            assert!(!log.check_and_record(id, op));
        }
        // One past capacity evicts the oldest entry (op 0)...
        assert!(!log.check_and_record(id, OP_LOG_CAP as u64));
        // ...so op 0 is forgotten, while the newest entry is remembered.
        assert!(!log.check_and_record(id, 0));
        assert!(log.check_and_record(id, OP_LOG_CAP as u64));
    }

    const UNIFORM: InitKind = InitKind::Uniform {
        lo: -1.0,
        hi: 1.0,
        seed: 5,
    };

    /// 10 rows on 4 slots: slots 0 and 1 own three rows, 2 and 3 own two.
    fn ragged_row_plan() -> Arc<PartitionPlan> {
        Arc::new(PartitionPlan::new(8, 10, 4, Partitioning::Row))
    }

    #[test]
    fn row_shard_slot_indexes_the_rows_own_data() {
        let plan = ragged_row_plan();
        for slot in 0..4 {
            let shard = Shard::build(slot, Arc::clone(&plan), &UNIFORM);
            let owned: Vec<u32> = (0..10).filter(|&r| plan.row_owner(r) == slot).collect();
            assert_eq!(shard.data.len(), owned.len());
            for row in owned {
                let want: Vec<f64> = (0..8).map(|c| init_value(&UNIFORM, row, c)).collect();
                assert_eq!(shard.data[shard.slot(row)], want, "row {row}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row 5 not owned by this server")]
    fn row_shard_rejects_a_row_it_does_not_own() {
        Shard::build(2, ragged_row_plan(), &UNIFORM).slot(5);
    }

    #[test]
    #[should_panic(expected = "row 12 not owned by this server")]
    fn row_shard_rejects_a_row_past_the_table() {
        Shard::build(0, ragged_row_plan(), &UNIFORM).slot(12);
    }

    /// Slot 1 of 8 columns on 2 slots holds `[4, 8)`; column 3 is slot 0's.
    #[test]
    #[should_panic(expected = "column 3 not owned by this server")]
    fn column_shard_rejects_a_column_outside_its_range() {
        let plan = Arc::new(PartitionPlan::new(8, 1, 2, Partitioning::Column));
        Shard::build(1, plan, &UNIFORM).get(0, 3);
    }

    /// Per-element access on a row plan (`ColsSel::List` pulls, sparse
    /// pushes) lands on the addressed row's cells and on no neighbour's.
    #[test]
    fn list_pull_and_sparse_push_address_cells_on_a_row_plan() {
        let mut sim = SimBuilder::new().seed(3).build();
        let server = sim.spawn_agent_daemon("ps-server-1", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            let id = MatrixId(1);
            let create = CreateReq {
                id,
                plan: ragged_row_plan(),
                init: UNIFORM,
                slot: 1,
            };
            let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            let push = PushReq {
                id,
                row: 5,
                data: PushData::Sparse(Arc::new(vec![(2, 1.0), (7, -2.0)])),
                value_bytes: 8,
                op_id: 1,
            };
            let _: () = ctx.call(server, tags::PUSH, push, 48).downcast();
            let pull = |row, cols| PullReq {
                id,
                row,
                cols,
                value_bytes: 8,
            };
            let list = pull(5, ColsSel::List(Arc::new(vec![7, 2, 4])));
            let picked: Vec<f64> = ctx.call(server, tags::PULL, list, 48).downcast();
            let all: Vec<f64> = ctx
                .call(server, tags::PULL, pull(9, ColsSel::All), 48)
                .downcast();
            (picked, all)
        });
        sim.run().unwrap();
        let (picked, neighbour) = out.take();
        let init = |row, col| init_value(&UNIFORM, row, col);
        assert_eq!(picked, vec![init(5, 7) - 2.0, init(5, 2) + 1.0, init(5, 4)]);
        let untouched: Vec<f64> = (0..8).map(|c| init(9, c)).collect();
        assert_eq!(neighbour, untouched);
    }

    #[test]
    fn duplicate_push_is_applied_once() {
        let mut sim = SimBuilder::new().seed(3).build();
        let server = sim.spawn_agent_daemon("ps-server-0", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            let plan = Arc::new(PartitionPlan::new(8, 1, 1, Partitioning::Column));
            let create = CreateReq {
                id: MatrixId(1),
                plan: Arc::clone(&plan),
                init: InitKind::Zero,
                slot: 0,
            };
            let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            let push = PushReq {
                id: MatrixId(1),
                row: 0,
                data: PushData::DenseSeg {
                    lo: 0,
                    values: Arc::new(vec![1.0; 8]),
                },
                value_bytes: 8,
                op_id: 77,
            };
            // Same op id twice — the model of a client retry racing a slow
            // server. Both must be acknowledged; only one may be applied.
            let _: () = ctx.call(server, tags::PUSH, push.clone(), 48).downcast();
            let _: () = ctx.call(server, tags::PUSH, push, 48).downcast();
            let pull = PullReq {
                id: MatrixId(1),
                row: 0,
                cols: ColsSel::All,
                value_bytes: 8,
            };
            let values: Vec<f64> = ctx.call(server, tags::PULL, pull, 48).downcast();
            values[0]
        });
        sim.run().unwrap();
        assert_eq!(out.take(), 1.0);
    }

    #[test]
    fn duplicate_envelope_subs_are_applied_once() {
        let mut sim = SimBuilder::new().seed(5).build();
        let server = sim.spawn_agent_daemon("ps-server-0", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            let plan = Arc::new(PartitionPlan::new(8, 1, 1, Partitioning::Column));
            let create = CreateReq {
                id: MatrixId(1),
                plan: Arc::clone(&plan),
                init: InitKind::Zero,
                slot: 0,
            };
            let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            let push = PushReq {
                id: MatrixId(1),
                row: 0,
                data: PushData::DenseSeg {
                    lo: 0,
                    values: Arc::new(vec![1.0; 8]),
                },
                value_bytes: 8,
                op_id: 91,
            };
            let env = EnvelopeReq {
                op_id: 1,
                subs: Arc::new(vec![(
                    tags::PUSH,
                    Arc::new(push) as Arc<dyn Any + Send + Sync>,
                    48,
                )]),
            };
            // An enveloped mutation retried whole must dedup per sub.
            let _ = ctx.call(server, tags::ENVELOPE, env.clone(), 64);
            let _ = ctx.call(server, tags::ENVELOPE, env, 64);
            let pull = PullReq {
                id: MatrixId(1),
                row: 0,
                cols: ColsSel::All,
                value_bytes: 8,
            };
            let values: Vec<f64> = ctx.call(server, tags::PULL, pull, 48).downcast();
            values[0]
        });
        sim.run().unwrap();
        assert_eq!(out.take(), 1.0);
    }

    fn create(id: u64, p: Partitioning, slot: usize, init: f64) -> CreateReq {
        CreateReq {
            id: MatrixId(id),
            plan: Arc::new(PartitionPlan::new(8, 1, 2, p)),
            init: InitKind::Const(init),
            slot,
        }
    }

    fn pull_all(id: u64) -> PullReq {
        PullReq {
            id: MatrixId(id),
            row: 0,
            cols: ColsSel::All,
            value_bytes: 8,
        }
    }

    /// The blocking contract of the four RPC ops: while a `CHECKPOINT` is
    /// parked on its `STORE_PUT` the server takes nothing else, so a `PULL`
    /// sent meanwhile is answered after the checkpoint and reports the wait
    /// as queue time.
    #[test]
    fn pull_behind_a_parked_checkpoint_waits_for_it() {
        let mut sim = SimBuilder::new().seed(9).build();
        // Slot 0's four columns make a 64-byte snapshot: 64 ms at 1 kB/s.
        let (servers, storage) = deploy_ps(&mut sim, 1, 1e3);
        let server = servers[0];
        let order = sim.spawn_collect("driver", move |ctx| {
            let _ = ctx.call(
                server,
                tags::CREATE,
                create(1, Partitioning::Column, 0, 1.0),
                96,
            );
            let ckpt = ctx.send_request(
                server,
                tags::CHECKPOINT,
                CheckpointReq { storage, key: 0 },
                48,
            );
            let pull = ctx.send_request(server, tags::PULL, pull_all(1), 48);
            let first = ctx.recv().corr;
            let second = ctx.recv().corr;
            (first == ckpt, second == pull)
        });
        let report = sim.run().unwrap();
        assert_eq!(order.take(), (true, true));
        let queue = report.metrics.hist("ps.server.pull.queue").unwrap();
        assert_eq!(queue.count(), 1);
        assert!(
            queue.max_ns() >= 64_000_000,
            "pull queued {} ns",
            queue.max_ns()
        );
        let service = report.metrics.hist("ps.server.checkpoint.service").unwrap();
        assert!(service.max_ns() >= 64_000_000);
        assert_eq!(
            report
                .metrics
                .counter(&format!("ps.server.p{}.served", server.0)),
            3
        );
    }

    /// A misaligned `CROSS_ELEM` (the source columns live on the other
    /// server, so the op parks on a `FETCH_SEG`) retried with its op id is
    /// acknowledged without fetching or applying again.
    #[test]
    fn duplicate_cross_elem_is_applied_once() {
        let mut sim = SimBuilder::new().seed(7).build();
        let (servers, _) = deploy_ps(&mut sim, 2, 1e9);
        let out = sim.spawn_collect("driver", move |ctx| {
            for (slot, &server) in servers.iter().enumerate() {
                let _ = ctx.call(
                    server,
                    tags::CREATE,
                    create(1, Partitioning::Column, slot, 1.0),
                    96,
                );
                let rotated = create(2, Partitioning::ColumnRotated(1), slot, 2.0);
                let _ = ctx.call(server, tags::CREATE, rotated, 96);
            }
            // Columns 0..4 are on server 0 in matrix 1, on server 1 in matrix 2.
            let add = CrossElemReq {
                dst_id: MatrixId(1),
                dst_row: 0,
                src_id: MatrixId(2),
                src_row: 0,
                op: crate::protocol::ElemOp::Add,
                pieces: vec![(0, 4, servers[1])],
                value_bytes: 8,
                op_id: 55,
            };
            let _: () = ctx
                .call(servers[0], tags::CROSS_ELEM, add.clone(), 72)
                .downcast();
            let _: () = ctx.call(servers[0], tags::CROSS_ELEM, add, 72).downcast();
            ctx.call(servers[0], tags::PULL, pull_all(1), 48)
                .downcast::<Vec<f64>>()
        });
        let report = sim.run().unwrap();
        assert_eq!(out.take(), vec![3.0; 4]);
        assert_eq!(
            report
                .metrics
                .hist("ps.server.fetch_seg.service")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            report
                .metrics
                .hist("ps.server.cross_elem.service")
                .unwrap()
                .count(),
            2
        );
    }
}
