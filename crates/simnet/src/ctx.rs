//! The handle through which process code talks to the simulator.

use std::any::Any;
use std::sync::Arc;

use rand::rngs::StdRng;

use crate::message::Envelope;
use crate::reqtrace::ReqToken;
use crate::runtime::{proc_rng, MatchSpec, Outgoing, ProcId, Shared};
use crate::time::SimTime;

/// Per-process simulator handle: messaging, virtual time, RNG, spawning.
///
/// Obtained as the argument of the closure passed to
/// [`crate::SimRuntime::spawn`]. Sends, receives, compute charges, spawns
/// and kills are *yield points*: the scheduler may run other processes
/// before the call returns. The recorders (`metric_*`, `trace_mark*`,
/// `req_*`, `op_label*`) and `is_alive` are not.
pub struct SimCtx {
    shared: Arc<Shared>,
    me: ProcId,
    rng: StdRng,
}

impl SimCtx {
    pub(crate) fn new(shared: Arc<Shared>, me: ProcId) -> SimCtx {
        let rng = proc_rng(shared.cfg.seed, me.0);
        SimCtx { shared, me, rng }
    }

    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.me
    }

    /// This process's spawn-time name (e.g. `"server-2"`). Meant for
    /// diagnostics — panic messages that name the offending proc. Not a
    /// yield point.
    pub fn proc_name(&self) -> String {
        self.shared.proc_name(self.me.0)
    }

    /// Current virtual time of this process.
    pub fn now(&self) -> SimTime {
        self.shared.now(self.me.0)
    }

    /// Deterministic per-process random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    // ---- virtual time ----------------------------------------------------

    /// Advance this process's clock by `dt` of busy (compute) time.
    pub fn advance(&mut self, dt: SimTime) {
        self.shared.advance(self.me.0, dt);
    }

    /// Charge `flops` floating-point operations of compute time.
    pub fn charge_flops(&mut self, flops: u64) {
        let dt = self.shared.cfg.compute.flops_time(flops);
        self.advance(dt);
    }

    /// Charge a memory-bound scan over `bytes` bytes.
    pub fn charge_mem(&mut self, bytes: u64) {
        let dt = self.shared.cfg.compute.mem_time(bytes);
        self.advance(dt);
    }

    /// Charge one task-dispatch overhead (scheduling, task deserialization).
    pub fn charge_task_overhead(&mut self) {
        let dt = self.shared.cfg.compute.task_overhead;
        self.advance(dt);
    }

    // ---- plain messaging ---------------------------------------------------

    /// Send a one-way message of declared wire size `bytes`.
    pub fn send<P: Any + Send>(&mut self, dst: ProcId, tag: u32, payload: P, bytes: u64) {
        let out = Outgoing::to(dst, tag, 0, Box::new(payload), bytes, None);
        self.shared.send_env(self.me.0, out);
    }

    /// Receive the next message (any kind), blocking in virtual time.
    pub fn recv(&mut self) -> Envelope {
        self.shared
            .block_recv(self.me.0, MatchSpec::Any, None)
            .expect("recv without deadline returned None")
    }

    /// Receive the next message, or `None` once the virtual clock reaches
    /// `deadline` with nothing delivered.
    pub fn recv_deadline(&mut self, deadline: SimTime) -> Option<Envelope> {
        self.shared
            .block_recv(self.me.0, MatchSpec::Any, Some(deadline))
    }

    /// Receive the next message, waiting at most `dt` of virtual time.
    pub fn recv_timeout(&mut self, dt: SimTime) -> Option<Envelope> {
        let deadline = self.now() + dt;
        self.recv_deadline(deadline)
    }

    // ---- RPC ----------------------------------------------------------------

    /// Synchronous call: send a request, block for the matching reply.
    /// Unrelated messages arriving meanwhile stay queued.
    pub fn call<P: Any + Send>(
        &mut self,
        dst: ProcId,
        tag: u32,
        payload: P,
        bytes: u64,
    ) -> Envelope {
        let corr = self.send_request(dst, tag, payload, bytes);
        self.shared
            .block_recv(self.me.0, MatchSpec::Replies(vec![corr]), None)
            .expect("reply wait returned None")
    }

    /// Scatter-gather: issue all requests (transfers overlap in the network
    /// model), then gather the replies. The result is ordered like the
    /// request list regardless of arrival order.
    pub fn call_many(
        &mut self,
        requests: Vec<(ProcId, u32, Box<dyn Any + Send>, u64)>,
    ) -> Vec<Envelope> {
        let corr_order: Vec<u64> = requests
            .into_iter()
            .map(|(dst, tag, payload, bytes)| self.request(dst, tag, payload, bytes, None))
            .collect();
        let mut pending = corr_order.clone();
        let mut replies: Vec<Option<Envelope>> = corr_order.iter().map(|_| None).collect();
        while !pending.is_empty() {
            let env = self
                .shared
                .block_recv(self.me.0, MatchSpec::Replies(pending.clone()), None)
                .expect("missing reply");
            let idx = corr_order
                .iter()
                .position(|&c| c == env.corr)
                .expect("unknown correlation id");
            pending.retain(|&c| c != env.corr);
            replies[idx] = Some(env);
        }
        replies.into_iter().map(Option::unwrap).collect()
    }

    /// Low-level request send: like [`SimCtx::call`] but non-blocking;
    /// returns the correlation id to pass to [`SimCtx::recv_reply`].
    pub fn send_request<P: Any + Send>(
        &mut self,
        dst: ProcId,
        tag: u32,
        payload: P,
        bytes: u64,
    ) -> u64 {
        self.request(dst, tag, Box::new(payload), bytes, None)
    }

    /// Send one request under a fresh correlation id and return the id.
    pub(crate) fn request(
        &mut self,
        dst: ProcId,
        tag: u32,
        payload: Box<dyn Any + Send>,
        bytes: u64,
        req: Option<ReqToken>,
    ) -> u64 {
        let corr = self.shared.lock().next_corr();
        let out = Outgoing::to(dst, tag, corr, payload, bytes, req);
        self.shared.send_env(self.me.0, out);
        corr
    }

    /// Wait for a reply to any of the given correlation ids, optionally up
    /// to a virtual-time deadline. Unrelated messages stay queued. Used by
    /// schedulers that must detect dead peers via timeouts.
    pub fn recv_reply(&mut self, corrs: &[u64], deadline: Option<SimTime>) -> Option<Envelope> {
        self.shared
            .block_recv(self.me.0, MatchSpec::Replies(corrs.to_vec()), deadline)
    }

    /// Allocate a correlation token that a *different* process can later
    /// answer with [`SimCtx::send_token_reply`]; wait for it with
    /// [`SimCtx::recv_reply`]. Used for acknowledgement fan-ins that are
    /// not direct request/response pairs (e.g. relayed broadcasts).
    pub fn alloc_reply_token(&mut self) -> u64 {
        self.shared.lock().next_corr()
    }

    /// Complete a token allocated by `dst` via
    /// [`SimCtx::alloc_reply_token`].
    pub fn send_token_reply<P: Any + Send>(
        &mut self,
        dst: ProcId,
        tag: u32,
        token: u64,
        payload: P,
        bytes: u64,
    ) {
        let out = Outgoing::token_reply(dst, tag, token, Box::new(payload), bytes);
        self.shared.send_env(self.me.0, out);
    }

    /// Reply to a request received via [`SimCtx::recv`].
    pub fn reply<P: Any + Send>(&mut self, request: &Envelope, payload: P, bytes: u64) {
        self.reply_boxed(request, Box::new(payload), bytes);
    }

    /// Reply with an already type-erased payload. The fabric's envelope
    /// handler executes sub-requests generically and collects their replies
    /// as `Box<dyn Any>`; this avoids wrapping each in a second box.
    pub fn reply_boxed(&mut self, request: &Envelope, payload: Box<dyn Any + Send>, bytes: u64) {
        let out = Outgoing::reply(request, payload, bytes);
        self.shared.send_env(self.me.0, out);
    }

    // ---- flight recorder ---------------------------------------------------

    /// Increment a named counter in the run's metrics registry.
    ///
    /// Unlike a send or a receive this is **not** a yield point: no clock
    /// moves and no other process runs, so instrumented code keeps the
    /// exact timing of uninstrumented code.
    pub fn metric_add(&mut self, name: &str, delta: u64) {
        self.shared.lock().metric_add(self.me.0, name, delta);
    }

    /// Record a virtual-time duration into a named histogram. Not a yield
    /// point.
    pub fn metric_observe(&mut self, name: &str, dt: SimTime) {
        self.shared.lock().metric_observe(self.me.0, name, dt);
    }

    /// Annotate the event trace with a labeled timeline mark at this
    /// process's current clock (no-op unless tracing is enabled on the
    /// builder). Not a yield point.
    pub fn trace_mark(&mut self, label: &'static str) {
        self.shared.lock().trace_mark(self.me.0, label, None);
    }

    /// Like [`SimCtx::trace_mark`], with a machine-readable `u64` payload
    /// (task id, partition, slot — whatever the label's convention is).
    /// Not a yield point.
    pub fn trace_mark_with(&mut self, label: &'static str, payload: u64) {
        self.shared
            .lock()
            .trace_mark(self.me.0, label, Some(payload));
    }

    /// Mint request-trace tokens for one fabric op issued by this process:
    /// one token per request in the batch, to be attached by
    /// [`crate::fabric::begin`]. Returns an empty vec when request
    /// tracing is off ([`crate::SimBuilder::reqtrace`]). Not a yield point
    /// — ids come from the trace recorder's own counter, so traced runs keep
    /// the exact timing of untraced ones.
    pub fn req_begin_batch(&mut self, op: &str, n: usize) -> Vec<ReqToken> {
        self.shared.lock().req_begin_batch(self.me.0, op, n)
    }

    /// Label subsequent compute charges with an op name (e.g. the PS request
    /// kind being served) until [`SimCtx::op_label_clear`]. Recorded on
    /// `TraceEvent::Compute` so causal analysis can break compute down by
    /// op; no-op unless tracing is enabled. Not a yield point.
    pub fn op_label(&mut self, label: &'static str) {
        self.shared.lock().set_op_label(self.me.0, Some(label));
    }

    /// Clear the label set by [`SimCtx::op_label`]. Not a yield point.
    pub fn op_label_clear(&mut self) {
        self.shared.lock().set_op_label(self.me.0, None);
    }

    // ---- topology management -------------------------------------------------

    /// Spawn a new non-daemon process at this process's current clock.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&mut SimCtx) + Send + 'static,
    {
        let now = self.now();
        self.shared.spawn_impl(name, false, now, Box::new(f))
    }

    /// Spawn a new daemon process at this process's current clock.
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&mut SimCtx) + Send + 'static,
    {
        let now = self.now();
        self.shared.spawn_impl(name, true, now, Box::new(f))
    }

    /// Spawn a non-daemon steppable agent at this process's current clock
    /// (see [`crate::Proc`]). The agent holds no OS thread; the scheduler
    /// steps it inline on message delivery and timer expiry.
    pub fn spawn_agent<A: crate::Proc + 'static>(&mut self, name: &str, agent: A) -> ProcId {
        let now = self.now();
        self.shared
            .spawn_agent_impl(name, false, now, Box::new(agent))
    }

    /// Spawn a daemon steppable agent at this process's current clock.
    pub fn spawn_agent_daemon<A: crate::Proc + 'static>(&mut self, name: &str, agent: A) -> ProcId {
        let now = self.now();
        self.shared
            .spawn_agent_impl(name, true, now, Box::new(agent))
    }

    /// Forcibly terminate another process (models machine failure). The
    /// victim unwinds at its next scheduling point; in-flight mail to it is
    /// dropped.
    pub fn kill(&mut self, target: ProcId) {
        self.shared.kill(self.me.0, target);
    }

    /// Whether `target` has neither finished nor been killed. Not a yield
    /// point.
    pub fn is_alive(&self, target: ProcId) -> bool {
        self.shared.lock().is_alive(target)
    }
}
