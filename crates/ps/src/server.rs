//! PS-server and checkpoint-storage agents.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use ps2_simnet::{
    payload_ref, Counter, Envelope, Hist, Proc, ProcId, SimRuntime, SimTime, StepCtx, WireSize,
};

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
/// `[lo, hi)` of every row this server holds, in one buffer.
struct Shard {
    plan: Arc<PartitionPlan>,
    /// The plan slot this server occupies. On a row plan it holds rows
    /// `server_slot, server_slot + n_slots, …`; on a column plan every row.
    server_slot: usize,
    lo: u64,
    hi: u64,
    /// The rows held, back to back in row order: the one in slot `s` (see
    /// [`Shard::slot`]) is `data[s·width..(s+1)·width]`, `width = hi − lo`.
    data: Vec<f64>,
}

impl Shard {
    fn build(server_slot: usize, plan: Arc<PartitionPlan>, init: &InitKind) -> Shard {
        let (lo, hi) = plan.cols_of(server_slot);
        let (first, step) = match &plan.kind {
            PlanKind::Column { .. } => (0, 1),
            PlanKind::Row { n_slots } => (server_slot as u32, *n_slots),
        };
        let held = (first..plan.rows).step_by(step);
        let len = held.len() * (hi - lo) as usize;
        let data = match init {
            InitKind::Zero => vec![0.0; len],
            _ => {
                let mut data = Vec::with_capacity(len);
                for row in held {
                    data.extend((lo..hi).map(|c| init_value(init, row, c)));
                }
                data
            }
        };
        Shard {
            plan,
            server_slot,
            lo,
            hi,
            data,
        }
    }

    fn width(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Resolve a row to its slot in `data`; panics if this server does not
    /// hold the row (a routing bug).
    fn slot(&self, row: u32) -> usize {
        let s = match &self.plan.kind {
            PlanKind::Column { .. } => Some(row as usize),
            // This server holds rows `server_slot, server_slot + n_slots, …`,
            // so the plan's index arithmetic is the row's place here.
            PlanKind::Row { .. } => {
                (self.plan.row_owner(row) == self.server_slot).then(|| self.plan.row_index(row))
            }
        };
        match s {
            Some(s) if row < self.plan.rows => s,
            _ => panic!("row {row} not owned by this server"),
        }
    }

    /// Offsets of the global columns `[lo, hi)` within a row; panics if any
    /// of them lies outside this server's range (a routing bug).
    fn cols(&self, lo: u64, hi: u64) -> Range<usize> {
        if lo < self.lo || hi > self.hi {
            let col = if lo < self.lo { lo } else { hi - 1 };
            panic!("column {col} not owned by this server");
        }
        (lo - self.lo) as usize..(hi - self.lo) as usize
    }

    /// Index in `data` of global column `col` of the row in slot `s`.
    fn at(&self, s: usize, col: u64) -> usize {
        s * self.width() + self.cols(col, col + 1).start
    }

    fn row(&self, row: u32) -> &[f64] {
        let (s, w) = (self.slot(row), self.width());
        &self.data[s * w..(s + 1) * w]
    }

    fn row_mut(&mut self, row: u32) -> &mut [f64] {
        let (s, w) = (self.slot(row), self.width());
        &mut self.data[s * w..(s + 1) * w]
    }

    /// `row`'s values at columns `[lo, hi)`.
    fn seg(&self, row: u32, lo: u64, hi: u64) -> &[f64] {
        &self.row(row)[self.cols(lo, hi)]
    }

    fn seg_mut(&mut self, row: u32, lo: u64, hi: u64) -> &mut [f64] {
        let cols = self.cols(lo, hi);
        &mut self.row_mut(row)[cols]
    }

    /// The whole rows `rows`, in request order.
    fn rows(&self, rows: &[u32]) -> Vec<&[f64]> {
        rows.iter().map(|&r| self.row(r)).collect()
    }

    /// The row in slot `dst`, mutable, beside a reader of every other row.
    fn split_at_row(&mut self, dst: usize) -> (&mut [f64], Others<'_>) {
        let width = self.width();
        let (head, rest) = self.data.split_at_mut(dst * width);
        let (row, tail) = rest.split_at_mut(width);
        let others = Others {
            head,
            tail,
            dst,
            width,
        };
        (row, others)
    }

    /// The rows in `slots`, mutable and in the order given, cut from `data`
    /// by one walk in slot order; panics unless the slots are distinct.
    fn rows_mut(&mut self, slots: &[usize]) -> Vec<&mut [f64]> {
        let width = self.width();
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_unstable_by_key(|&i| slots[i]);
        let mut rows: Vec<Option<&mut [f64]>> = slots.iter().map(|_| None).collect();
        let (mut rest, mut next) = (self.data.as_mut_slice(), 0);
        for i in order {
            let skip = slots[i]
                .checked_sub(next)
                .expect("zip rows must be distinct");
            let (row, tail) = std::mem::take(&mut rest)[skip * width..].split_at_mut(width);
            rows[i] = Some(row);
            rest = tail;
            next = slots[i] + 1;
        }
        rows.into_iter()
            .map(|row| row.expect("every slot was cut"))
            .collect()
    }
}

/// Every row of a shard but the one [`Shard::split_at_row`] split off.
struct Others<'a> {
    head: &'a [f64],
    tail: &'a [f64],
    dst: usize,
    width: usize,
}

impl<'a> Others<'a> {
    /// The row in slot `s`, which must not be the split-off one.
    fn row(&self, s: usize) -> &'a [f64] {
        let w = self.width;
        match s.cmp(&self.dst) {
            std::cmp::Ordering::Less => &self.head[s * w..(s + 1) * w],
            std::cmp::Ordering::Greater => {
                let s = s - self.dst - 1;
                &self.tail[s * w..(s + 1) * w]
            }
            std::cmp::Ordering::Equal => unreachable!("slot {s} was split off"),
        }
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
    /// By id: a run holds one to a handful of matrices, and a checkpoint
    /// snapshots them in id order.
    shards: BTreeMap<MatrixId, Shard>,
    oplog: OpLog,
    parked: Option<Parked>,
    /// Metric handles, resolved on first use (the proc id is not known at
    /// `new()`): this server's load counter and, per request tag, the
    /// `(queue, service)` histogram pair.
    served: Option<Counter>,
    op_hists: Vec<(u32, Hist, Hist)>,
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
            shards: BTreeMap::new(),
            oplog: OpLog::new(),
            parked: None,
            served: None,
            op_hists: Vec::new(),
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
        let served = *self
            .served
            .get_or_insert_with(|| ctx.counter(&format!("ps.server.p{}.served", ctx.id().0)));
        let tag = op.env.tag;
        let (queue, service) = match self.op_hists.iter().find(|&&(t, ..)| t == tag) {
            Some(&(_, queue, service)) => (queue, service),
            None => {
                let queue = ctx.hist(&format!("ps.server.{name}.queue"));
                let service = ctx.hist(&format!("ps.server.{name}.service"));
                self.op_hists.push((tag, queue, service));
                (queue, service)
            }
        };
        ctx.add(served, 1);
        ctx.observe(queue, op.queue);
        ctx.observe(service, ctx.now() - op.t0);
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
    shards: &mut BTreeMap<MatrixId, Shard>,
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
    shards: &BTreeMap<MatrixId, Shard>,
    req: &CheckpointReq,
) -> Step {
    let mut total = 0u64;
    let shard_data: Vec<(MatrixId, Vec<f64>)> = shards
        .iter()
        .map(|(&id, sh)| {
            total += sh.data.len() as u64;
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
fn restore(shards: &mut BTreeMap<MatrixId, Shard>, found: StoreGetResp) -> bool {
    match found {
        StoreGetResp::Found(snapshot) => {
            for (id, data) in &snapshot.shards {
                if let Some(shard) = shards.get_mut(id) {
                    shard.data.clone_from(data);
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
    shards: &mut BTreeMap<MatrixId, Shard>,
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
        // Each run of consecutive dots is one chunk, every other sub its own.
        for run in req
            .subs
            .chunk_by(|x, y| x.0 == tags::DOT && y.0 == tags::DOT)
        {
            let (tag, payload, _) = &run[0];
            if *tag == tags::DOT {
                // One pass of the dot kernel; each dot is still charged and
                // answered as its own sub-request.
                let reqs: Vec<&DotReq> = run.iter().map(|(t, p, _)| cast(*t, p.as_ref())).collect();
                for (value, len) in dots(shards, &reqs) {
                    ctx.op_label(tags::name(tags::DOT));
                    ctx.charge_flops(2 * len);
                    replies.push(Box::new(value));
                    bytes += 16;
                }
                continue;
            }
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
    shards: &mut BTreeMap<MatrixId, Shard>,
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
    shards: &mut BTreeMap<MatrixId, Shard>,
    tag: u32,
    payload: &dyn Any,
) -> (Box<dyn Any + Send>, u64) {
    match tag {
        tags::CREATE => {
            let req: &CreateReq = cast(tag, payload);
            // Idempotent: fleet recovery replays creates into a replacement
            // server, and the fabric may then re-deliver the original
            // request — rebuilding here would wipe the restored values.
            if let std::collections::btree_map::Entry::Vacant(e) = shards.entry(req.id) {
                let shard = Shard::build(req.slot, Arc::clone(&req.plan), &req.init);
                // Materializing the shard touches every owned element.
                ctx.charge_mem(shard.data.len() as u64 * 8);
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
                ColsSel::All => (shard.row(req.row).to_vec(), 8),
                ColsSel::Range(lo, hi) => (shard.seg(req.row, *lo, *hi).to_vec(), 8),
                // A list pull also reads the index of every value.
                ColsSel::List(cols) => {
                    let s = shard.slot(req.row);
                    let values = cols.iter().map(|&c| shard.data[shard.at(s, c)]).collect();
                    (values, 16)
                }
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
                    let s = shard.slot(row);
                    for &(c, v) in pairs.iter() {
                        let i = shard.at(s, c);
                        shard.data[i] += v;
                    }
                    ctx.charge_flops(2 * pairs.len() as u64);
                }
            }
            (Box::new(()), 8)
        }
        tags::AGG => {
            let req: &AggReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let seg = shard.row(req.row);
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
            let [(value, len)] = dots(shards, &[req])[..] else {
                unreachable!("one dot, one value")
            };
            ctx.charge_flops(2 * len);
            (Box::new(value), 16)
        }
        tags::AXPY => {
            let req: &AxpyReq = cast(tag, payload);
            let alpha = req.alpha;
            let shard = shard_mut(shards, req.id);
            let (src, dst) = (shard.slot(req.src_row), shard.slot(req.dst_row));
            // In place: each element reads its source before its write, so
            // `dst == src` gives the bits a copied source would.
            let (d, others) = shard.split_at_row(dst);
            if src == dst {
                d.iter_mut().for_each(|d| *d += alpha * *d);
            } else {
                for (d, s) in d.iter_mut().zip(others.row(src)) {
                    *d += alpha * s;
                }
            }
            ctx.charge_flops(2 * d.len() as u64);
            (Box::new(()), 8)
        }
        tags::ELEM => {
            let req: &ElemReq = cast(tag, payload);
            let op = req.op;
            let shard = shard_mut(shards, req.id);
            let (a, b) = (shard.slot(req.a_row), shard.slot(req.b_row));
            let dst = shard.slot(req.dst_row);
            // In place, like `AXPY`: an operand aliased with `dst` reads the
            // element before it is overwritten.
            let (d, others) = shard.split_at_row(dst);
            match (a == dst, b == dst) {
                (true, true) => d.iter_mut().for_each(|d| *d = op.apply(*d, *d)),
                (true, false) => {
                    for (d, y) in d.iter_mut().zip(others.row(b)) {
                        *d = op.apply(*d, *y);
                    }
                }
                (false, true) => {
                    for (d, x) in d.iter_mut().zip(others.row(a)) {
                        *d = op.apply(*x, *d);
                    }
                }
                (false, false) => {
                    for (d, (x, y)) in d.iter_mut().zip(others.row(a).iter().zip(others.row(b))) {
                        *d = op.apply(*x, *y);
                    }
                }
            }
            ctx.charge_flops(d.len() as u64);
            (Box::new(()), 8)
        }
        tags::ZIP => {
            let req: &ZipReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let slots: Vec<usize> = req.rows.iter().map(|&r| shard.slot(r)).collect();
            let lo = shard.lo;
            let mut zs = ZipSegs {
                segs: shard.rows_mut(&slots),
                lo,
            };
            let n = zs.segs.first().map_or(0, |s| s.len() as u64);
            (req.f)(&mut zs);
            ctx.charge_flops(req.flops_per_elem * n);
            (Box::new(()), 8)
        }
        tags::ZIP_MAP => {
            let req: &ZipMapReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let segs = shard.rows(&req.rows);
            let partial = (req.f)(&segs, shard.lo);
            ctx.charge_flops(req.flops_per_elem * segs.first().map_or(0, |s| s.len() as u64));
            (Box::new(partial), 16 + 8)
        }
        tags::ZIP_ARGMAX => {
            let req: &crate::protocol::ZipArgmaxReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let segs = shard.rows(&req.rows);
            let partial = (req.f)(&segs, shard.lo);
            ctx.charge_flops(req.flops_per_elem * segs.first().map_or(0, |s| s.len() as u64));
            (Box::new(partial), 16 + 16)
        }
        tags::FILL => {
            let req: &FillReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let row = shard.row_mut(req.row);
            row.fill(req.value);
            ctx.charge_mem(row.len() as u64 * 8);
            (Box::new(()), 8)
        }
        tags::SCALE => {
            let req: &ScaleReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let row = shard.row_mut(req.row);
            for v in row.iter_mut() {
                *v *= req.alpha;
            }
            ctx.charge_flops(row.len() as u64);
            (Box::new(()), 8)
        }
        tags::PULL_BLOCK => {
            let req: &PullBlockReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let slots: Vec<usize> = req.rows.iter().map(|&r| shard.slot(r)).collect();
            // [col_idx][row_idx] layout.
            let block: Vec<Vec<f64>> = req
                .cols
                .iter()
                .map(|&c| slots.iter().map(|&s| shard.data[shard.at(s, c)]).collect())
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
            let shard = shard_mut(shards, req.id);
            let slots: Vec<usize> = req.rows.iter().map(|&r| shard.slot(r)).collect();
            let mut n = 0u64;
            for (c, deltas) in req.updates.iter() {
                for (&s, &d) in slots.iter().zip(deltas) {
                    let i = shard.at(s, *c);
                    shard.data[i] += d;
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

/// Columns per block of the [`dots`] pass: 8 KB of each row, so the rows of
/// a run stay in L1 while every dot of the run reads the block.
const DOT_BLOCK: usize = 1024;

/// Dots per lane group of the [`dots`] pass, each with its own accumulator.
const DOT_LANES: usize = 4;

/// The dot kernel: every `DotReq` of a run in one blocked pass over the
/// columns, `(value, len)` per request. Each dot folds `acc += x·y` over its
/// columns in order, exactly the sequential sum; the dots of a lane group
/// advance side by side, so one dot's adds never wait on another's.
/// Consecutive dots over rows of one length share the lane groups.
fn dots(shards: &BTreeMap<MatrixId, Shard>, reqs: &[&DotReq]) -> Vec<(f64, u64)> {
    let pairs: Vec<(&[f64], &[f64])> = reqs
        .iter()
        .map(|req| {
            let shard = shard_of(shards, req.id);
            (shard.row(req.row_a), shard.row(req.row_b))
        })
        .collect();
    let mut acc = vec![0.0; pairs.len()];
    let mut done = 0;
    for same in pairs.chunk_by(|x, y| x.0.len() == y.0.len()) {
        let acc = &mut acc[done..done + same.len()];
        let len = same[0].0.len();
        for lo in (0..len).step_by(DOT_BLOCK) {
            let cols = lo..(lo + DOT_BLOCK).min(len);
            for (group, acc) in same.chunks(DOT_LANES).zip(acc.chunks_mut(DOT_LANES)) {
                match (group.try_into(), acc.try_into()) {
                    (Ok(group), Ok(acc)) => dot_block::<DOT_LANES>(group, cols.clone(), acc),
                    _ => {
                        for (pair, acc) in group.iter().zip(acc) {
                            let (pair, acc) =
                                (std::array::from_ref(pair), std::array::from_mut(acc));
                            dot_block(pair, cols.clone(), acc);
                        }
                    }
                }
            }
        }
        done += same.len();
    }
    acc.into_iter()
        .zip(&pairs)
        .map(|(value, (a, _))| (value, a.len() as u64))
        .collect()
}

/// Columns `cols` of `K` dots, added to their accumulators.
fn dot_block<const K: usize>(
    group: &[(&[f64], &[f64]); K],
    cols: Range<usize>,
    acc: &mut [f64; K],
) {
    let a: [&[f64]; K] = std::array::from_fn(|k| &group[k].0[cols.clone()]);
    let b: [&[f64]; K] = std::array::from_fn(|k| &group[k].1[cols.clone()]);
    let mut sum = *acc;
    for e in 0..cols.len() {
        for k in 0..K {
            sum[k] += a[k][e] * b[k][e];
        }
    }
    *acc = sum;
}

fn shard_of(shards: &BTreeMap<MatrixId, Shard>, id: MatrixId) -> &Shard {
    shards
        .get(&id)
        .unwrap_or_else(|| panic!("matrix {id:?} not present on this server"))
}

fn shard_mut(shards: &mut BTreeMap<MatrixId, Shard>, id: MatrixId) -> &mut Shard {
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
    use crate::protocol::{ColsSel, PullReq, PushData, PushReq, SubReq};
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
            assert_eq!(shard.data.len(), owned.len() * 8);
            for row in owned {
                let want: Vec<f64> = (0..8).map(|c| init_value(&UNIFORM, row, c)).collect();
                assert_eq!(shard.row(row), want, "row {row}");
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
        Shard::build(1, plan, &UNIFORM).seg(0, 3, 4);
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

    /// An envelope of `[DOT×5, ZIP, DOT×3]` and a bare `DOT` after it: every
    /// dot equals a sequential fold over its two rows bit for bit, and the
    /// dots after the zip see the row it wrote. One dot of the first run
    /// reads a shorter matrix, so a run mixes row lengths.
    #[test]
    fn enveloped_dots_equal_sequential_folds_and_see_earlier_writes() {
        const DIM: u64 = 2_500;
        const SHORT: u64 = 700;
        let matrix = |id: u64, dim: u64| CreateReq {
            id: MatrixId(id),
            plan: Arc::new(PartitionPlan::new(dim, 4, 1, Partitioning::Column)),
            init: UNIFORM,
            slot: 0,
        };
        let dot = |id: u64, row_a: u32, row_b: u32| -> SubReq {
            let req = DotReq {
                id: MatrixId(id),
                row_a,
                row_b,
            };
            (tags::DOT, Arc::new(req), 16)
        };
        // Row 2 ← ½·row 2 + row 0.
        let zip = ZipReq {
            id: MatrixId(1),
            rows: vec![2, 0],
            f: Arc::new(|zs: &mut ZipSegs<'_>| {
                for e in 0..zs.segs[0].len() {
                    zs.segs[0][e] = 0.5 * zs.segs[0][e] + zs.segs[1][e];
                }
            }),
            flops_per_elem: 2,
            op_id: 1,
        };
        let subs = vec![
            dot(1, 0, 1),
            dot(1, 0, 2),
            dot(2, 1, 3),
            dot(1, 2, 2),
            dot(1, 3, 0),
            (tags::ZIP, Arc::new(zip) as Arc<dyn Any + Send + Sync>, 32),
            dot(1, 2, 0),
            dot(1, 2, 3),
            dot(1, 1, 1),
        ];
        let mut sim = SimBuilder::new().seed(13).build();
        let server = sim.spawn_agent_daemon("ps-server-0", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            for create in [matrix(1, DIM), matrix(2, SHORT)] {
                let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            }
            let env = EnvelopeReq {
                op_id: 1,
                subs: Arc::new(subs),
            };
            let replies: Vec<Box<dyn Any + Send>> =
                ctx.call(server, tags::ENVELOPE, env, 256).downcast();
            let mut got: Vec<Option<f64>> = replies
                .into_iter()
                .map(|r| r.downcast::<f64>().ok().map(|v| *v))
                .collect();
            let bare = DotReq {
                id: MatrixId(1),
                row_a: 2,
                row_b: 1,
            };
            got.push(Some(ctx.call(server, tags::DOT, bare, 32).downcast()));
            got
        });
        sim.run().unwrap();
        let row = |r: u32, dim: u64| -> Vec<f64> {
            (0..dim).map(|c| init_value(&UNIFORM, r, c)).collect()
        };
        let fold = |a: &[f64], b: &[f64]| a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y);
        let (r0, r1, r3) = (row(0, DIM), row(1, DIM), row(3, DIM));
        let r2 = row(2, DIM);
        let r2_zipped: Vec<f64> = r2.iter().zip(&r0).map(|(x, y)| 0.5 * x + y).collect();
        let want = [
            Some(fold(&r0, &r1)),
            Some(fold(&r0, &r2)),
            Some(fold(&row(1, SHORT), &row(3, SHORT))),
            Some(fold(&r2, &r2)),
            Some(fold(&r3, &r0)),
            None,
            Some(fold(&r2_zipped, &r0)),
            Some(fold(&r2_zipped, &r3)),
            Some(fold(&r1, &r1)),
            Some(fold(&r2_zipped, &r1)),
        ];
        let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
            v.iter().map(|x| x.map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&out.take()), bits(&want));
    }

    /// `AXPY` and `ELEM` with every aliasing of `dst` against an operand give
    /// the bits of an update computed from copies of the operands.
    #[test]
    fn in_place_axpy_and_elem_match_copied_operands() {
        const DIM: u64 = 300;
        let create = CreateReq {
            id: MatrixId(1),
            plan: Arc::new(PartitionPlan::new(DIM, 4, 1, Partitioning::Column)),
            init: UNIFORM,
            slot: 0,
        };
        let axpy = |dst_row, src_row, alpha, op_id| -> SubReq {
            let req = AxpyReq {
                id: MatrixId(1),
                dst_row,
                src_row,
                alpha,
                op_id,
            };
            (tags::AXPY, Arc::new(req), 32)
        };
        let elem = |dst_row, a_row, b_row, op, op_id| -> SubReq {
            let req = ElemReq {
                id: MatrixId(1),
                dst_row,
                a_row,
                b_row,
                op,
                op_id,
            };
            (tags::ELEM, Arc::new(req), 40)
        };
        use crate::protocol::ElemOp::{Add, Div, Mul, Sub};
        let subs = vec![
            axpy(0, 0, 0.5, 1),
            axpy(1, 2, -2.0, 2),
            elem(2, 2, 3, Mul, 3),
            elem(3, 1, 3, Sub, 4),
            elem(1, 1, 1, Add, 5),
            elem(0, 3, 1, Div, 6),
        ];
        let mut sim = SimBuilder::new().seed(17).build();
        let server = sim.spawn_agent_daemon("ps-server-0", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            let env = EnvelopeReq {
                op_id: 1,
                subs: Arc::new(subs),
            };
            let _ = ctx.call(server, tags::ENVELOPE, env, 256);
            (0..4)
                .map(|row| {
                    let pull = PullReq {
                        id: MatrixId(1),
                        row,
                        cols: ColsSel::All,
                        value_bytes: 8,
                    };
                    ctx.call(server, tags::PULL, pull, 48)
                        .downcast::<Vec<f64>>()
                })
                .collect::<Vec<_>>()
        });
        sim.run().unwrap();
        let mut rows: Vec<Vec<f64>> = (0..4)
            .map(|r| (0..DIM).map(|c| init_value(&UNIFORM, r, c)).collect())
            .collect();
        let update = |rows: &mut Vec<Vec<f64>>, dst: usize, f: &dyn Fn(usize) -> f64| {
            rows[dst] = (0..DIM as usize).map(f).collect();
        };
        let r = rows.clone();
        update(&mut rows, 0, &|e| r[0][e] + 0.5 * r[0][e]);
        let r = rows.clone();
        update(&mut rows, 1, &|e| r[1][e] + -2.0 * r[2][e]);
        let r = rows.clone();
        update(&mut rows, 2, &|e| Mul.apply(r[2][e], r[3][e]));
        let r = rows.clone();
        update(&mut rows, 3, &|e| Sub.apply(r[1][e], r[3][e]));
        let r = rows.clone();
        update(&mut rows, 1, &|e| Add.apply(r[1][e], r[1][e]));
        let r = rows.clone();
        update(&mut rows, 0, &|e| Div.apply(r[3][e], r[1][e]));
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&out.take()), bits(&rows));
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Every row of matrix `id` a driver can pull from `server`, in row order.
    fn pull_rows(
        ctx: &mut ps2_simnet::SimCtx,
        server: ProcId,
        id: u64,
        rows: &[u32],
    ) -> Vec<Vec<f64>> {
        rows.iter()
            .map(|&row| {
                let pull = PullReq {
                    id: MatrixId(id),
                    row,
                    cols: ColsSel::All,
                    value_bytes: 8,
                };
                ctx.call(server, tags::PULL, pull, 48).downcast()
            })
            .collect()
    }

    /// `ZIP` over rows named in descending, non-adjacent order hands the
    /// UDF each row's segment in request order, with the slot's first
    /// column, and leaves the rows it does not name alone.
    #[test]
    fn zip_over_descending_non_adjacent_rows_writes_each_named_row() {
        const DIM: u64 = 40;
        const ROWS: u32 = 6;
        let create = CreateReq {
            id: MatrixId(1),
            plan: Arc::new(PartitionPlan::new(DIM, ROWS, 2, Partitioning::Column)),
            init: UNIFORM,
            slot: 1,
        };
        // Row 5 ← 2·row 2 + row 0, row 2 ← row 2 + column, row 0 ← −row 0.
        let zip = ZipReq {
            id: MatrixId(1),
            rows: vec![5, 2, 0],
            f: Arc::new(|zs: &mut ZipSegs<'_>| {
                for e in 0..zs.segs[0].len() {
                    let col = (zs.lo + e as u64) as f64;
                    zs.segs[0][e] = 2.0 * zs.segs[1][e] + zs.segs[2][e];
                    zs.segs[1][e] += col;
                    zs.segs[2][e] = -zs.segs[2][e];
                }
            }),
            flops_per_elem: 4,
            op_id: 1,
        };
        let mut sim = SimBuilder::new().seed(19).build();
        let server = sim.spawn_agent_daemon("ps-server-1", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            let _: () = ctx.call(server, tags::ZIP, zip, 32).downcast();
            pull_rows(ctx, server, 1, &(0..ROWS).collect::<Vec<_>>())
        });
        sim.run().unwrap();
        let init =
            |r: u32| -> Vec<f64> { (DIM / 2..DIM).map(|c| init_value(&UNIFORM, r, c)).collect() };
        let mut want: Vec<Vec<f64>> = (0..ROWS).map(init).collect();
        let (r0, r2) = (init(0), init(2));
        want[5] = r2.iter().zip(&r0).map(|(x, y)| 2.0 * x + y).collect();
        want[2] = (DIM / 2..DIM).zip(&r2).map(|(c, x)| x + c as f64).collect();
        want[0] = r0.iter().map(|x| -x).collect();
        assert_eq!(bits(&out.take()), bits(&want));
    }

    /// A `CHECKPOINT` of a column shard and a row shard, then updates to
    /// both, then a `RESTORE`: every row reads back the checkpointed bits.
    #[test]
    fn checkpoint_then_restore_round_trips_every_row_bit_for_bit() {
        let mut sim = SimBuilder::new().seed(23).build();
        let (servers, storage) = deploy_ps(&mut sim, 1, 1e9);
        let server = servers[0];
        let out = sim.spawn_collect("driver", move |ctx| {
            let column = CreateReq {
                id: MatrixId(1),
                plan: Arc::new(PartitionPlan::new(8, 3, 1, Partitioning::Column)),
                init: UNIFORM,
                slot: 0,
            };
            // Slot 1 of the ragged row plan holds rows 1, 5 and 9.
            let row = CreateReq {
                id: MatrixId(2),
                plan: ragged_row_plan(),
                init: UNIFORM,
                slot: 1,
            };
            for create in [column, row] {
                let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            }
            let push = |id, row, op_id| PushReq {
                id: MatrixId(id),
                row,
                data: PushData::Sparse(Arc::new(vec![(3, 0.25), (6, -1.5)])),
                value_bytes: 8,
                op_id,
            };
            let _: () = ctx.call(server, tags::PUSH, push(1, 2, 1), 48).downcast();
            let _: () = ctx.call(server, tags::PUSH, push(2, 5, 2), 48).downcast();
            let read = |ctx: &mut ps2_simnet::SimCtx| {
                (
                    pull_rows(ctx, server, 1, &[0, 1, 2]),
                    pull_rows(ctx, server, 2, &[1, 5, 9]),
                )
            };
            let before = read(ctx);
            let ckpt = CheckpointReq { storage, key: 7 };
            let _: () = ctx.call(server, tags::CHECKPOINT, ckpt, 48).downcast();
            let fill = FillReq {
                id: MatrixId(1),
                row: 0,
                value: 0.0,
                op_id: 3,
            };
            let _: () = ctx.call(server, tags::FILL, fill, 48).downcast();
            let _: () = ctx.call(server, tags::PUSH, push(2, 9, 4), 48).downcast();
            let changed = read(ctx) != before;
            let restore = RestoreReq { storage, key: 7 };
            let found: bool = ctx.call(server, tags::RESTORE, restore, 48).downcast();
            (before, changed, found, read(ctx))
        });
        sim.run().unwrap();
        let (before, changed, found, after) = out.take();
        assert!(
            changed,
            "the updates between checkpoint and restore must show"
        );
        assert!(found);
        assert_eq!(bits(&after.0), bits(&before.0));
        assert_eq!(bits(&after.1), bits(&before.1));
    }

    /// `dim < servers` leaves some slots of a column plan without columns:
    /// `CREATE` there holds every row at width 0, and row reads and updates
    /// of such a shard answer as over empty rows.
    #[test]
    fn create_on_a_slot_without_columns_holds_empty_rows() {
        // Boundaries [0, 0, 1, 1, 2]: slot 2 holds no column.
        let plan = Arc::new(PartitionPlan::new(2, 3, 4, Partitioning::Column));
        assert_eq!(plan.cols_of(2), (1, 1));
        let mut sim = SimBuilder::new().seed(29).build();
        let server = sim.spawn_agent_daemon("ps-server-2", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            let create = CreateReq {
                id: MatrixId(1),
                plan,
                init: UNIFORM,
                slot: 2,
            };
            let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            let axpy = AxpyReq {
                id: MatrixId(1),
                dst_row: 2,
                src_row: 0,
                alpha: 3.0,
                op_id: 1,
            };
            let _: () = ctx.call(server, tags::AXPY, axpy, 32).downcast();
            let zip = ZipReq {
                id: MatrixId(1),
                rows: vec![2, 1, 0],
                f: Arc::new(|zs: &mut ZipSegs<'_>| assert!(zs.segs.iter().all(|s| s.is_empty()))),
                flops_per_elem: 1,
                op_id: 2,
            };
            let _: () = ctx.call(server, tags::ZIP, zip, 32).downcast();
            let agg = AggReq {
                id: MatrixId(1),
                row: 1,
                kind: AggKind::Sum,
            };
            let sum: f64 = ctx.call(server, tags::AGG, agg, 32).downcast();
            (pull_rows(ctx, server, 1, &[0, 1, 2]), sum)
        });
        sim.run().unwrap();
        let (rows, sum) = out.take();
        assert_eq!(rows, vec![Vec::<f64>::new(); 3]);
        assert_eq!(sum, 0.0);
    }

    /// `PUSH_BLOCK` and `PULL_BLOCK` on a row plan land on the addressed
    /// rows' cells and read them back `[column][row]`.
    #[test]
    fn block_push_and_pull_address_cells_on_a_row_plan() {
        let mut sim = SimBuilder::new().seed(31).build();
        let server = sim.spawn_agent_daemon("ps-server-1", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            let create = CreateReq {
                id: MatrixId(1),
                plan: ragged_row_plan(),
                init: UNIFORM,
                slot: 1,
            };
            let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            let push = PushBlockReq {
                id: MatrixId(1),
                rows: Arc::new(vec![9, 1]),
                updates: Arc::new(vec![(7, vec![1.0, 2.0]), (0, vec![-1.0, 0.5])]),
                value_bytes: 8,
                op_id: 1,
            };
            let _: () = ctx.call(server, tags::PUSH_BLOCK, push, 64).downcast();
            let pull = PullBlockReq {
                id: MatrixId(1),
                rows: Arc::new(vec![1, 5, 9]),
                cols: Arc::new(vec![7, 0, 3]),
                value_bytes: 8,
            };
            ctx.call(server, tags::PULL_BLOCK, pull, 64)
                .downcast::<Vec<Vec<f64>>>()
        });
        sim.run().unwrap();
        let init = |row, col| init_value(&UNIFORM, row, col);
        let want = vec![
            vec![init(1, 7) + 2.0, init(5, 7), init(9, 7) + 1.0],
            vec![init(1, 0) + 0.5, init(5, 0), init(9, 0) - 1.0],
            vec![init(1, 3), init(5, 3), init(9, 3)],
        ];
        assert_eq!(bits(&out.take()), bits(&want));
    }
}
