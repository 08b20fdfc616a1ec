//! The sequential deterministic scheduler.
//!
//! Two kinds of logical process share one virtual clock and one scheduler:
//!
//! * **Thread procs** — the original direct-style closures. Each owns an OS
//!   thread; only one runs at a time, handing over at every simulator call
//!   by signalling the one condvar the next proc parks on. Natural for code
//!   that blocks mid-request.
//! * **Steppable agents** — explicit state machines implementing [`Proc`].
//!   They own *no* thread: whichever OS thread currently drives the
//!   scheduler steps them inline (one message delivery or timer expiry per
//!   step) while holding the state lock. Thousands of agents cost a few
//!   hundred bytes each, which is what makes many-client serving scenarios
//!   representable at all.
//!
//! Either way the scheduler always runs the *ready* process with the
//! smallest virtual clock (ties broken by process id), so a mixed run is
//! exactly as deterministic as a thread-only one. A blocked process is ready
//! when matching mail is in its mailbox (at the mail's arrival time), its
//! receive deadline has passed, or — agents only — a timer is due.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::SimConfig;
use crate::ctx::SimCtx;
use crate::hostprof::{self, Scope as ProfScope};
use crate::message::Envelope;
use crate::metrics::MetricsSnapshot;
use crate::report::{ProcStats, SimReport};
use crate::reqtrace::{ReqRecorder, ReqToken};
use crate::time::SimTime;
use crate::timeseries::TsRecorder;

/// Identifier of a logical process (one process == one machine/NIC).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Why a simulation failed.
#[derive(Clone, Debug)]
pub enum SimError {
    /// No process can make progress but non-daemon processes remain.
    Deadlock(String),
    /// A process panicked with a real (non-interrupt) panic.
    ProcPanic { name: String, message: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(d) => write!(f, "simulation deadlock: {d}"),
            SimError::ProcPanic { name, message } => {
                write!(f, "process '{name}' panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Panic payload used to unwind a process on shutdown or kill. Never leaks
/// out of the crate: process wrappers catch it.
pub(crate) struct Interrupt;

/// What a blocked process is waiting for.
#[derive(Clone)]
pub(crate) enum MatchSpec {
    /// Any message.
    Any,
    /// A reply whose correlation id is one of these.
    Replies(Vec<u64>),
}

impl MatchSpec {
    fn matches(&self, env: &Envelope) -> bool {
        match self {
            MatchSpec::Any => true,
            MatchSpec::Replies(ids) => env.is_reply && ids.contains(&env.corr),
        }
    }
}

enum Status {
    Runnable,
    Blocked {
        spec: MatchSpec,
        deadline: Option<SimTime>,
    },
    Finished,
}

/// An event-driven steppable process.
///
/// Unlike the closure passed to [`SimRuntime::spawn`], a `Proc` owns no OS
/// thread: the scheduler calls one of these hooks per scheduling turn, on
/// whatever thread currently drives the scheduler, while holding the global
/// state lock. The hooks therefore must not block — everything on
/// [`StepCtx`] is non-blocking — and should do bounded work per step.
/// Ordering between agents and thread procs still comes from the single
/// smallest-clock pick, so mixed runs stay bit-for-bit deterministic.
pub trait Proc: Send {
    /// Called once, at the agent's spawn clock, before any message or timer.
    fn on_start(&mut self, _ctx: &mut StepCtx<'_>) {}

    /// Called with each delivered message (requests and replies alike).
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope);

    /// Called when a timer set via [`StepCtx::set_timer`] fires; `timer` is
    /// the token `set_timer` returned.
    fn on_timer(&mut self, _ctx: &mut StepCtx<'_>, _timer: u64) {}
}

/// Runtime state of a steppable agent (boxed to keep thread procs lean).
struct AgentState {
    /// Taken out while a step is in flight, so callbacks can borrow the
    /// scheduler state mutably through [`StepCtx`].
    agent: Option<Box<dyn Proc>>,
    started: bool,
    /// Pending timers ordered by (fire ns, token).
    timers: BTreeMap<(u64, u64), ()>,
    next_timer: u64,
    /// Same per-proc seeding discipline as `SimCtx`.
    rng: StdRng,
    /// Set by [`StepCtx::finish`]; the scheduler retires the agent after the
    /// current step returns.
    finish: bool,
}

enum Engine {
    /// Direct-style closure on its own OS thread, which parks on this condvar
    /// (paired with the one state lock) until it is handed the turn.
    Thread(Arc<Condvar>),
    /// Steppable agent driven inline by the scheduler.
    Agent(Box<AgentState>),
}

struct ProcState {
    name: String,
    daemon: bool,
    killed: bool,
    clock: SimTime,
    status: Status,
    engine: Engine,
    /// Pending mail ordered by (arrival ns, global sequence).
    mailbox: BTreeMap<(u64, u64), Envelope>,
    stats: ProcStats,
}

impl ProcState {
    fn new(name: String, daemon: bool, clock: SimTime, engine: Engine) -> ProcState {
        ProcState {
            stats: ProcStats::new(name.clone(), daemon),
            name,
            daemon,
            killed: false,
            clock,
            status: Status::Runnable,
            engine,
            mailbox: BTreeMap::new(),
        }
    }

    /// Signal this proc's parked thread, if it has one (agents never park).
    /// Callers hold the state lock, so the wake-up cannot slip between the
    /// thread's check of `running`/`killed`/`shutdown` and its wait.
    fn wake(&self) {
        if let Engine::Thread(turn) = &self.engine {
            turn.notify_all();
        }
    }

    fn is_agent(&self) -> bool {
        matches!(self.engine, Engine::Agent(_))
    }

    /// Virtual time at which this process could next run, or `None` if it
    /// cannot run at all right now.
    fn ready_key(&self) -> Option<SimTime> {
        if matches!(self.status, Status::Finished) {
            return None;
        }
        if self.killed {
            // Schedulable so it gets a turn in which to unwind.
            return Some(self.clock);
        }
        if let Engine::Agent(ag) = &self.engine {
            // Agents consume any mail and additionally wake on timers; an
            // unstarted agent is ready for its `on_start` turn immediately.
            if !ag.started {
                return Some(self.clock);
            }
            let mail = self
                .mailbox
                .keys()
                .next()
                .map(|(arrival, _)| self.clock.max(SimTime(*arrival)));
            let timer = ag
                .timers
                .keys()
                .next()
                .map(|(fire, _)| self.clock.max(SimTime(*fire)));
            return match (mail, timer) {
                (Some(m), Some(t)) => Some(m.min(t)),
                (Some(m), None) => Some(m),
                (None, Some(t)) => Some(t),
                (None, None) => None,
            };
        }
        match &self.status {
            Status::Runnable => Some(self.clock),
            Status::Blocked { spec, deadline } => {
                let mail = self
                    .mailbox
                    .iter()
                    .find(|(_, env)| spec.matches(env))
                    .map(|((arrival, _), _)| self.clock.max(SimTime(*arrival)));
                match (mail, deadline) {
                    // Ready at whichever comes first: the matching mail's
                    // effective time or the deadline's effective time.
                    (Some(m), Some(d)) => Some(m.min(self.clock.max(*d))),
                    (Some(m), None) => Some(m),
                    (None, Some(d)) => Some(self.clock.max(*d)),
                    (None, None) => None,
                }
            }
            Status::Finished => None,
        }
    }
}

pub(crate) struct State {
    procs: Vec<ProcState>,
    nic_out_free: Vec<SimTime>,
    nic_in_free: Vec<SimTime>,
    running: Option<usize>,
    /// Unfinished non-daemon processes.
    live: usize,
    shutdown: bool,
    error: Option<SimError>,
    seq: u64,
    corr: u64,
    total_msgs: u64,
    total_bytes: u64,
    dropped_msgs: u64,
    handles: Vec<JoinHandle<()>>,
    tracing: bool,
    trace: Vec<crate::report::TraceEvent>,
    metrics: MetricsSnapshot,
    /// Interned trace labels in first-use order (only populated while
    /// tracing, so untraced runs pay nothing).
    labels: Vec<&'static str>,
    /// Per-process current op label applied to `Compute` events.
    op_labels: Vec<Option<crate::report::LabelId>>,
    /// Windowed-telemetry scraper (None unless enabled on the builder).
    ts: Option<TsRecorder>,
    /// Request-scoped trace recorder (None unless enabled on the builder).
    /// All its hooks run inside this lock and are non-yielding, so traced
    /// runs stay byte-identical to untraced same-seed runs.
    req: Option<ReqRecorder>,
    /// Times a parked thread woke to find it was neither its turn nor a
    /// shutdown/kill: the waste targeted hand-off exists to remove.
    #[cfg(test)]
    stale_wakes: u64,
}

impl State {
    /// Advance the windowed-telemetry scraper to virtual time `t`, emitting
    /// any window boundaries crossed since the last mutation. Called
    /// immediately *before* each registry/clock mutation so that "registry
    /// state at a boundary" is exactly the state left by the prior
    /// mutation. Not a yield point: no clock moves, no process wakes —
    /// scraped runs keep the exact timing of unscraped ones.
    fn ts_roll(&mut self, t: SimTime) {
        let Some(ts) = &mut self.ts else { return };
        if !ts.due(t) {
            return;
        }
        let _prof = hostprof::scope(ProfScope::ScrapeRoll);
        let procs: Vec<(u64, u64)> = self
            .procs
            .iter()
            .map(|p| (p.stats.busy.as_nanos(), p.mailbox.len() as u64))
            .collect();
        ts.roll(t, &self.metrics, &procs);
    }

    /// Intern a label, returning its stable id. First-use order, so the
    /// table is deterministic across same-seed runs. Linear scan: the label
    /// population is a couple dozen static strings.
    fn intern(&mut self, label: &'static str) -> crate::report::LabelId {
        if let Some(i) = self.labels.iter().position(|l| *l == label) {
            return crate::report::LabelId(i as u32);
        }
        self.labels.push(label);
        crate::report::LabelId((self.labels.len() - 1) as u32)
    }

    /// The send core shared by thread procs (`Shared::send_env`) and agent
    /// steps (`StepCtx`): NIC accounting, trace/reqtrace hooks, mailbox
    /// insert. Does not reschedule — the caller owns the handoff.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        cfg: &SimConfig,
        me: usize,
        dst: ProcId,
        tag: u32,
        corr: u64,
        is_reply: bool,
        payload: Box<dyn Any + Send>,
        bytes: u64,
        req: Option<ReqToken>,
    ) {
        let pre = self.procs[me].clock;
        self.ts_roll(pre);
        let net = &cfg.net;
        // Every send consumes a run-unique sequence number — dropped or not —
        // so traces carry explicit Send/Recv causal edges keyed by `seq`.
        self.seq += 1;
        let seq = self.seq;
        self.procs[me].clock += net.per_msg_overhead;
        let now = self.procs[me].clock;
        let arrival = if dst.0 == me {
            now + net.loopback
        } else {
            // Pipelined store-and-forward: receiving can begin once the first
            // bytes have crossed the link and the in-NIC is free.
            let wire = net.wire_time(bytes);
            let out_start = now.max(self.nic_out_free[me]);
            self.nic_out_free[me] = out_start + wire;
            let in_start = (out_start + net.latency).max(self.nic_in_free[dst.0]);
            let in_done = in_start + wire;
            self.nic_in_free[dst.0] = in_done;
            in_done
        };
        if self.tracing {
            self.trace.push(crate::report::TraceEvent::Send {
                at: now,
                src: ProcId(me),
                dst,
                tag,
                bytes,
                arrival,
                seq,
            });
        }
        if let (Some(tok), Some(rec)) = (req, &mut self.req) {
            rec.on_send(tok, now, arrival, is_reply);
        }
        self.procs[me].stats.msgs_sent += 1;
        self.procs[me].stats.bytes_sent += bytes;
        self.total_msgs += 1;
        self.total_bytes += bytes;
        if dst.0 != me {
            // Account virtual wire time as communication cost (loopback is
            // shared-memory, not the network).
            self.metrics
                .add("net.wire_ns", net.wire_time(bytes).as_nanos());
        } else {
            self.metrics.add("net.loopback_ns", net.loopback.as_nanos());
        }
        let dead = self.procs[dst.0].killed || matches!(self.procs[dst.0].status, Status::Finished);
        if dead {
            self.dropped_msgs += 1;
            self.procs[me].stats.msgs_dropped += 1;
            self.metrics.add(&format!("net.dropped.tag.{tag}"), 1);
            if self.tracing {
                self.trace.push(crate::report::TraceEvent::Drop {
                    at: now,
                    src: ProcId(me),
                    dst,
                    tag,
                    bytes,
                    seq,
                });
            }
        } else {
            let key = (arrival.as_nanos(), seq);
            self.procs[dst.0].mailbox.insert(
                key,
                Envelope {
                    src: ProcId(me),
                    dst,
                    tag,
                    corr,
                    is_reply,
                    payload,
                    bytes,
                    seq,
                    sent_at: now,
                    arrival,
                    req,
                },
            );
        }
    }
}

fn pick(st: &State) -> Option<usize> {
    let mut best: Option<(SimTime, usize)> = None;
    for (i, p) in st.procs.iter().enumerate() {
        if let Some(key) = p.ready_key() {
            if best.is_none_or(|(bk, _)| key < bk) {
                best = Some((key, i));
            }
        }
    }
    best.map(|(_, i)| i)
}

fn describe_blocked(st: &State) -> String {
    let mut parts = Vec::new();
    for p in &st.procs {
        if let Status::Blocked { .. } = p.status {
            parts.push(format!(
                "'{}'@{} (mailbox {})",
                p.name,
                p.clock,
                p.mailbox.len()
            ));
        }
    }
    if parts.is_empty() {
        "no blocked processes".to_string()
    } else {
        format!("blocked: {}", parts.join(", "))
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: SimConfig,
    state: Mutex<State>,
    /// Parks the `run()` thread only; signalled on shutdown.
    cv: Condvar,
}

impl Shared {
    fn interrupt_check(&self, st: &State, me: usize) {
        if st.shutdown || st.procs[me].killed {
            panic::panic_any(Interrupt);
        }
    }

    /// Park until it is `me`'s turn (or shutdown/kill unwinds us).
    fn wait_for_turn(&self, st: &mut MutexGuard<'_, State>, me: usize) {
        // Parked wall time is the time *other* procs spend running; giving
        // it a dedicated hostprof scope keeps it out of every enclosing
        // scope's self time (the guard also records during Interrupt
        // unwinds, so killed procs account their final park).
        let _prof = hostprof::scope(ProfScope::SchedPark);
        let Engine::Thread(turn) = &st.procs[me].engine else {
            unreachable!("agents own no thread to park")
        };
        let turn = Arc::clone(turn);
        loop {
            if st.shutdown || st.procs[me].killed {
                panic::panic_any(Interrupt);
            }
            if st.running == Some(me) {
                return;
            }
            turn.wait(st);
            #[cfg(test)]
            if !(st.shutdown || st.procs[me].killed || st.running == Some(me)) {
                st.stale_wakes += 1;
            }
        }
    }

    /// Give the turn to thread proc `next` and wake it — and only it.
    fn hand_to(&self, st: &mut State, next: usize) {
        st.running = Some(next);
        st.procs[next].wake();
    }

    /// Wake every parked thread proc and the `run()` thread. Only for state
    /// changes all of them must see: shutdown, failure, end of run.
    fn wake_all(&self, st: &State) {
        for p in &st.procs {
            p.wake();
        }
        self.cv.notify_all();
    }

    /// After any operation that may have advanced `me`'s clock: hand off to
    /// the globally minimal-clock ready process (possibly still `me`).
    /// Ready *agents* ahead of the next thread proc are stepped inline right
    /// here — `me`'s OS thread is the scheduler while it holds the lock.
    fn reschedule(&self, st: &mut MutexGuard<'_, State>, me: usize) {
        {
            let _prof = hostprof::scope(ProfScope::SchedDispatch);
            loop {
                let next = match pick(st) {
                    Some(n) => n,
                    None => {
                        // `me` is running, hence ready — pick can only fail if
                        // we just blocked, which this path never does.
                        unreachable!("reschedule with no ready process")
                    }
                };
                if next == me {
                    return;
                }
                if st.procs[next].is_agent() {
                    self.step_agent(st, next);
                    // A step can finish the last non-daemon (shutdown) — the
                    // usual interrupt discipline applies to `me`.
                    self.interrupt_check(st, me);
                    continue;
                }
                self.hand_to(st, next);
                break;
            }
        }
        self.wait_for_turn(st, me);
    }

    fn fail(&self, st: &mut MutexGuard<'_, State>, err: SimError) {
        if st.error.is_none() {
            st.error = Some(err);
        }
        st.shutdown = true;
        st.running = None;
        self.wake_all(st);
    }

    // ---- operations invoked through SimCtx ------------------------------

    pub(crate) fn now(&self, me: usize) -> SimTime {
        self.state.lock().procs[me].clock
    }

    pub(crate) fn advance(&self, me: usize, dt: SimTime) {
        let mut st = self.state.lock();
        self.interrupt_check(&st, me);
        let pre = st.procs[me].clock;
        st.ts_roll(pre);
        if st.tracing && dt > SimTime::ZERO {
            let at = st.procs[me].clock;
            let label = st.op_labels[me];
            st.trace.push(crate::report::TraceEvent::Compute {
                at,
                proc: ProcId(me),
                dt,
                label,
            });
        }
        let p = &mut st.procs[me];
        p.clock += dt;
        p.stats.busy += dt;
        self.reschedule(&mut st, me);
    }

    pub(crate) fn next_corr(&self) -> u64 {
        let mut st = self.state.lock();
        st.corr += 1;
        st.corr
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_env(
        &self,
        me: usize,
        dst: ProcId,
        tag: u32,
        corr: u64,
        is_reply: bool,
        payload: Box<dyn Any + Send>,
        bytes: u64,
        req: Option<ReqToken>,
    ) {
        let _prof = hostprof::scope(ProfScope::SchedSend);
        let mut st = self.state.lock();
        self.interrupt_check(&st, me);
        st.deliver(&self.cfg, me, dst, tag, corr, is_reply, payload, bytes, req);
        self.reschedule(&mut st, me);
    }

    pub(crate) fn block_recv(
        &self,
        me: usize,
        spec: MatchSpec,
        deadline: Option<SimTime>,
    ) -> Option<Envelope> {
        let _prof = hostprof::scope(ProfScope::SchedRecv);
        let mut st = self.state.lock();
        loop {
            self.interrupt_check(&st, me);
            let found = st.procs[me]
                .mailbox
                .iter()
                .find(|(_, env)| spec.matches(env))
                .map(|(k, _)| *k);
            if let Some(key) = found {
                let eff = st.procs[me].clock.max(st.procs[me].mailbox[&key].arrival);
                st.ts_roll(eff);
                let env = st.procs[me].mailbox.remove(&key).expect("mail vanished");
                let p = &mut st.procs[me];
                p.clock = p.clock.max(env.arrival);
                p.status = Status::Runnable;
                p.stats.msgs_recv += 1;
                p.stats.bytes_recv += env.bytes;
                if st.tracing {
                    let at = st.procs[me].clock;
                    st.trace.push(crate::report::TraceEvent::Recv {
                        at,
                        proc: ProcId(me),
                        src: env.src,
                        tag: env.tag,
                        seq: env.seq,
                    });
                }
                if let Some(tok) = env.req {
                    let clock = st.procs[me].clock;
                    if let Some(rec) = &mut st.req {
                        rec.on_dequeue(tok, clock, env.is_reply);
                    }
                }
                self.reschedule(&mut st, me);
                return Some(env);
            }
            if let Some(d) = deadline {
                if st.procs[me].clock >= d {
                    st.procs[me].status = Status::Runnable;
                    self.reschedule(&mut st, me);
                    return None;
                }
            }
            st.procs[me].status = Status::Blocked {
                spec: spec.clone(),
                deadline,
            };
            match pick(&st) {
                Some(next) if next == me => {
                    // Ready by deadline only (matching mail would have been
                    // consumed above).
                    let d = deadline.expect("self-ready without mail or deadline");
                    let eff = st.procs[me].clock.max(d);
                    st.ts_roll(eff);
                    let p = &mut st.procs[me];
                    p.clock = p.clock.max(d);
                    p.status = Status::Runnable;
                    self.reschedule(&mut st, me);
                    return None;
                }
                Some(next) if st.procs[next].is_agent() => {
                    // Step the agent on this thread and re-check the mailbox:
                    // the step may have mailed `me`.
                    self.step_agent(&mut st, next);
                }
                Some(next) => {
                    self.hand_to(&mut st, next);
                    self.wait_for_turn(&mut st, me);
                    // Loop re-checks the mailbox.
                }
                None => {
                    if st.live == 0 {
                        // Only daemons remain and all are blocked: the
                        // simulation is simply over.
                        st.shutdown = true;
                        st.running = None;
                        self.wake_all(&st);
                    } else {
                        let live = st.live;
                        let desc = format!("{} live non-daemons; {}", live, describe_blocked(&st));
                        self.fail(&mut st, SimError::Deadlock(desc));
                    }
                    panic::panic_any(Interrupt);
                }
            }
        }
    }

    // ---- flight-recorder operations --------------------------------------
    //
    // These are deliberately NOT yield points: they take the lock, update
    // the registry (or push a trace event), and return. No clock moves, no
    // sequence/correlation number is consumed, no other process is woken —
    // so an instrumented run is timing-identical to an uninstrumented one.

    /// The spawn-time name of a process — for diagnostics (panic messages,
    /// logs). Not a yield point.
    pub(crate) fn proc_name(&self, me: usize) -> String {
        self.state.lock().procs[me].name.clone()
    }

    pub(crate) fn metric_add(&self, me: usize, name: &str, delta: u64) {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let mut st = self.state.lock();
        let t = st.procs[me].clock;
        st.ts_roll(t);
        st.metrics.add(name, delta);
    }

    pub(crate) fn metric_gauge_set(&self, me: usize, name: &str, value: i64) {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let mut st = self.state.lock();
        let t = st.procs[me].clock;
        st.ts_roll(t);
        st.metrics.gauge_set(name, value);
    }

    pub(crate) fn metric_observe(&self, me: usize, name: &str, dt: SimTime) {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let mut st = self.state.lock();
        let t = st.procs[me].clock;
        st.ts_roll(t);
        st.metrics.observe(name, dt);
    }

    /// Mint request-trace tokens for one fabric op (empty when request
    /// tracing is off). Ids come from the recorder's own counter — no
    /// sequence or correlation number is consumed. Not a yield point.
    pub(crate) fn req_begin_batch(&self, me: usize, op: &str, n: usize) -> Vec<ReqToken> {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let mut st = self.state.lock();
        let now = st.procs[me].clock;
        match &mut st.req {
            Some(rec) => rec.begin_batch(me, op, n, now),
            None => Vec::new(),
        }
    }

    /// Attribute `dt` of post-gather client work to `me`'s open request
    /// batch and seal it. Not a yield point.
    pub(crate) fn req_cache_fill(&self, me: usize, dt: SimTime) {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let mut st = self.state.lock();
        if let Some(rec) = &mut st.req {
            rec.cache_fill(me, dt);
        }
    }

    pub(crate) fn trace_mark(&self, me: usize, label: &'static str, payload: Option<u64>) {
        let mut st = self.state.lock();
        if st.tracing {
            let label = st.intern(label);
            let at = st.procs[me].clock;
            st.trace.push(crate::report::TraceEvent::Mark {
                at,
                proc: ProcId(me),
                label,
                payload,
            });
        }
    }

    /// Set (or clear) the op label attached to `me`'s subsequent `Compute`
    /// events. Not a yield point; no-op when tracing is off.
    pub(crate) fn set_op_label(&self, me: usize, label: Option<&'static str>) {
        let mut st = self.state.lock();
        if st.tracing {
            let id = label.map(|l| st.intern(l));
            st.op_labels[me] = id;
        }
    }

    pub(crate) fn kill(&self, me: usize, target: ProcId) {
        assert_ne!(me, target.0, "a process cannot kill itself; just return");
        let mut st = self.state.lock();
        self.interrupt_check(&st, me);
        if !matches!(st.procs[target.0].status, Status::Finished) {
            st.procs[target.0].killed = true;
            // A parked victim wakes on this signal, sees `killed`, and
            // unwinds; an agent victim is retired at its next turn.
            st.procs[target.0].wake();
        }
        self.reschedule(&mut st, me);
    }

    pub(crate) fn is_alive(&self, target: ProcId) -> bool {
        let st = self.state.lock();
        let p = &st.procs[target.0];
        !p.killed && !matches!(p.status, Status::Finished)
    }

    // ---- steppable agents -------------------------------------------------

    /// Run one scheduling turn of agent `idx`: deliver its earliest event
    /// (start, mail, or timer — whichever has the smallest effective time,
    /// mail winning ties) into the corresponding [`Proc`] hook. Runs on the
    /// calling thread while the lock is held; the callback sees the
    /// scheduler state through [`StepCtx`] and cannot block.
    fn step_agent(&self, st: &mut MutexGuard<'_, State>, idx: usize) {
        let _prof = hostprof::scope(ProfScope::SchedStep);
        if st.procs[idx].killed {
            // Kills retire an agent at its next turn, mirroring the unwind
            // a thread proc performs.
            self.finish_agent(st, idx);
            return;
        }
        enum Ev {
            Start,
            Mail,
            Timer(u64),
        }
        let ev = {
            let p = &st.procs[idx];
            let Engine::Agent(ag) = &p.engine else {
                unreachable!("step_agent on a thread proc")
            };
            if !ag.started {
                Ev::Start
            } else {
                let mail = p
                    .mailbox
                    .keys()
                    .next()
                    .map(|(arrival, _)| p.clock.max(SimTime(*arrival)));
                let timer = ag.timers.keys().next().copied();
                match (mail, timer) {
                    (Some(m), Some((fire, tok))) => {
                        if m <= p.clock.max(SimTime(fire)) {
                            Ev::Mail
                        } else {
                            Ev::Timer(tok)
                        }
                    }
                    (Some(_), None) => Ev::Mail,
                    (None, Some((_, tok))) => Ev::Timer(tok),
                    (None, None) => unreachable!("agent picked with no pending event"),
                }
            }
        };
        // Event bookkeeping mirrors the thread paths exactly: roll the
        // telemetry window at the effective time, advance the clock, record
        // stats/trace/reqtrace.
        let mut env = None;
        match &ev {
            Ev::Start => {}
            Ev::Mail => {
                let key = *st.procs[idx].mailbox.keys().next().expect("mail vanished");
                let eff = st.procs[idx].clock.max(SimTime(key.0));
                st.ts_roll(eff);
                let e = st.procs[idx].mailbox.remove(&key).expect("mail vanished");
                let p = &mut st.procs[idx];
                p.clock = p.clock.max(e.arrival);
                p.stats.msgs_recv += 1;
                p.stats.bytes_recv += e.bytes;
                if st.tracing {
                    let at = st.procs[idx].clock;
                    st.trace.push(crate::report::TraceEvent::Recv {
                        at,
                        proc: ProcId(idx),
                        src: e.src,
                        tag: e.tag,
                        seq: e.seq,
                    });
                }
                if let Some(tok) = e.req {
                    let clock = st.procs[idx].clock;
                    if let Some(rec) = &mut st.req {
                        rec.on_dequeue(tok, clock, e.is_reply);
                    }
                }
                env = Some(e);
            }
            Ev::Timer(tok) => {
                let Engine::Agent(ag) = &mut st.procs[idx].engine else {
                    unreachable!()
                };
                let (fire, _) = *ag.timers.keys().next().expect("timer vanished");
                ag.timers.remove(&(fire, *tok));
                let eff = st.procs[idx].clock.max(SimTime(fire));
                st.ts_roll(eff);
                st.procs[idx].clock = eff;
            }
        }
        let mut agent = {
            let Engine::Agent(ag) = &mut st.procs[idx].engine else {
                unreachable!()
            };
            if let Ev::Start = ev {
                ag.started = true;
            }
            ag.agent.take().expect("agent stepped reentrantly")
        };
        {
            let mut ctx = StepCtx {
                cfg: &self.cfg,
                st,
                me: idx,
            };
            match ev {
                Ev::Start => agent.on_start(&mut ctx),
                Ev::Mail => agent.on_message(&mut ctx, env.expect("mail event without mail")),
                Ev::Timer(tok) => agent.on_timer(&mut ctx, tok),
            }
        }
        let finish = {
            let Engine::Agent(ag) = &mut st.procs[idx].engine else {
                unreachable!()
            };
            ag.agent = Some(agent);
            ag.finish || st.procs[idx].killed
        };
        if finish {
            self.finish_agent(st, idx);
        } else {
            // Parked between events; `ready_key` watches mail and timers.
            st.procs[idx].status = Status::Blocked {
                spec: MatchSpec::Any,
                deadline: None,
            };
        }
    }

    /// Retire an agent: the no-thread analogue of `on_proc_exit`.
    fn finish_agent(&self, st: &mut MutexGuard<'_, State>, idx: usize) {
        let p = &mut st.procs[idx];
        let daemon = p.daemon;
        let already_finished = matches!(p.status, Status::Finished);
        p.status = Status::Finished;
        p.stats.finished_at = p.clock;
        if let Engine::Agent(ag) = &mut p.engine {
            // Drop user state and pending timers now; the slot itself stays
            // (ids are stable).
            ag.agent = None;
            ag.timers.clear();
        }
        if st.tracing && !already_finished {
            let at = st.procs[idx].clock;
            st.trace.push(crate::report::TraceEvent::Finish {
                at,
                proc: ProcId(idx),
            });
        }
        if !daemon && !already_finished {
            st.live -= 1;
        }
        if st.live == 0 {
            st.shutdown = true;
            st.running = None;
            self.wake_all(st);
        }
    }

    pub(crate) fn spawn_agent_impl(
        &self,
        name: &str,
        daemon: bool,
        start_clock: SimTime,
        agent: Box<dyn Proc>,
    ) -> ProcId {
        let mut st = self.state.lock();
        let id = st.procs.len();
        let seed = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id as u64 + 1);
        let engine = Engine::Agent(Box::new(AgentState {
            agent: Some(agent),
            started: false,
            timers: BTreeMap::new(),
            next_timer: 0,
            rng: StdRng::seed_from_u64(seed),
            finish: false,
        }));
        st.procs.push(ProcState::new(
            name.to_string(),
            daemon,
            start_clock,
            engine,
        ));
        st.nic_out_free.push(SimTime::ZERO);
        st.nic_in_free.push(SimTime::ZERO);
        st.op_labels.push(None);
        if !daemon {
            st.live += 1;
        }
        ProcId(id)
    }

    pub(crate) fn spawn_impl(
        self: &Arc<Self>,
        name: &str,
        daemon: bool,
        start_clock: SimTime,
        f: Box<dyn FnOnce(&mut SimCtx) + Send>,
    ) -> ProcId {
        let mut st = self.state.lock();
        let id = st.procs.len();
        st.procs.push(ProcState::new(
            name.to_string(),
            daemon,
            start_clock,
            Engine::Thread(Arc::new(Condvar::new())),
        ));
        st.nic_out_free.push(SimTime::ZERO);
        st.nic_in_free.push(SimTime::ZERO);
        st.op_labels.push(None);
        if !daemon {
            st.live += 1;
        }
        let shared = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || proc_main(shared, id, f))
            .expect("failed to spawn simulation thread");
        st.handles.push(handle);
        ProcId(id)
    }

    fn on_proc_exit(&self, me: usize, result: Result<(), Box<dyn Any + Send>>) {
        let mut st = self.state.lock();
        if let Err(payload) = result {
            if !payload.is::<Interrupt>() && st.error.is_none() {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                let name = st.procs[me].name.clone();
                st.error = Some(SimError::ProcPanic { name, message });
                st.shutdown = true;
            }
        }
        let daemon = st.procs[me].daemon;
        let already_finished = matches!(st.procs[me].status, Status::Finished);
        st.procs[me].status = Status::Finished;
        st.procs[me].stats.finished_at = st.procs[me].clock;
        if st.tracing && !already_finished {
            let at = st.procs[me].clock;
            st.trace.push(crate::report::TraceEvent::Finish {
                at,
                proc: ProcId(me),
            });
        }
        if !daemon && !already_finished {
            st.live -= 1;
        }
        if st.live == 0 {
            st.shutdown = true;
        }
        if st.shutdown {
            st.running = None;
            self.wake_all(&st);
            return;
        }
        if st.running == Some(me) {
            loop {
                if st.shutdown {
                    st.running = None;
                    self.wake_all(&st);
                    break;
                }
                match pick(&st) {
                    Some(next) if st.procs[next].is_agent() => {
                        // The exiting thread keeps driving the schedule while
                        // agents are next in line.
                        self.step_agent(&mut st, next);
                    }
                    Some(next) => {
                        self.hand_to(&mut st, next);
                        break;
                    }
                    None => {
                        let desc = describe_blocked(&st);
                        self.fail(&mut st, SimError::Deadlock(desc));
                        break;
                    }
                }
            }
        }
    }
}

/// The handle a [`Proc`] hook sees during a step.
///
/// Everything here is **non-blocking**: sends enqueue mail, timers arm, the
/// clock only moves forward via [`StepCtx::advance`]. There is deliberately
/// no `recv`/`call` — an agent that needs a reply sends the request with
/// [`StepCtx::send_request`] and matches the reply's correlation id in
/// `on_message`. A whole step is atomic with respect to other processes:
/// no one else runs between two statements of a hook.
pub struct StepCtx<'a> {
    cfg: &'a SimConfig,
    st: &'a mut State,
    me: usize,
}

impl StepCtx<'_> {
    /// This agent's id.
    pub fn id(&self) -> ProcId {
        ProcId(self.me)
    }

    /// This agent's spawn-time name, for diagnostics.
    pub fn proc_name(&self) -> String {
        self.st.procs[self.me].name.clone()
    }

    /// Current virtual time of this agent.
    pub fn now(&self) -> SimTime {
        self.st.procs[self.me].clock
    }

    /// The simulation configuration (network and compute cost models).
    pub fn config(&self) -> &SimConfig {
        self.cfg
    }

    /// Deterministic per-agent random number generator (same seeding
    /// discipline as [`SimCtx::rng`](crate::SimCtx::rng)).
    pub fn rng(&mut self) -> &mut StdRng {
        let Engine::Agent(ag) = &mut self.st.procs[self.me].engine else {
            unreachable!("StepCtx on a thread proc")
        };
        &mut ag.rng
    }

    /// Advance this agent's clock by `dt` of busy (compute) time. Unlike
    /// [`SimCtx::advance`](crate::SimCtx::advance) this does not yield — the
    /// step stays atomic — so hooks should charge bounded work per step.
    pub fn advance(&mut self, dt: SimTime) {
        let pre = self.st.procs[self.me].clock;
        self.st.ts_roll(pre);
        if self.st.tracing && dt > SimTime::ZERO {
            let label = self.st.op_labels[self.me];
            self.st.trace.push(crate::report::TraceEvent::Compute {
                at: pre,
                proc: ProcId(self.me),
                dt,
                label,
            });
        }
        let p = &mut self.st.procs[self.me];
        p.clock += dt;
        p.stats.busy += dt;
    }

    /// Charge `flops` floating-point operations of compute time.
    pub fn charge_flops(&mut self, flops: u64) {
        let dt = self.cfg.compute.flops_time(flops);
        self.advance(dt);
    }

    /// Charge a memory-bound scan over `bytes` bytes.
    pub fn charge_mem(&mut self, bytes: u64) {
        let dt = self.cfg.compute.mem_time(bytes);
        self.advance(dt);
    }

    #[allow(clippy::too_many_arguments)]
    fn send_inner(
        &mut self,
        dst: ProcId,
        tag: u32,
        corr: u64,
        is_reply: bool,
        payload: Box<dyn Any + Send>,
        bytes: u64,
        req: Option<ReqToken>,
    ) {
        let _prof = hostprof::scope(ProfScope::SchedSend);
        self.st.deliver(
            self.cfg, self.me, dst, tag, corr, is_reply, payload, bytes, req,
        );
    }

    /// Send a one-way message of declared wire size `bytes`.
    pub fn send<P: Any + Send>(&mut self, dst: ProcId, tag: u32, payload: P, bytes: u64) {
        self.send_inner(dst, tag, 0, false, Box::new(payload), bytes, None);
    }

    /// Send a request and return its correlation id; the reply arrives in a
    /// later `on_message` with [`Envelope::corr`] equal to the returned id.
    pub fn send_request<P: Any + Send>(
        &mut self,
        dst: ProcId,
        tag: u32,
        payload: P,
        bytes: u64,
    ) -> u64 {
        self.send_request_traced(dst, tag, payload, bytes, None)
    }

    /// [`StepCtx::send_request`] with an optional request-trace token (mint
    /// with [`StepCtx::req_begin_batch`]; the reply carries it back).
    pub fn send_request_traced<P: Any + Send>(
        &mut self,
        dst: ProcId,
        tag: u32,
        payload: P,
        bytes: u64,
        req: Option<ReqToken>,
    ) -> u64 {
        self.st.corr += 1;
        let corr = self.st.corr;
        self.send_inner(dst, tag, corr, false, Box::new(payload), bytes, req);
        corr
    }

    /// Reply to a request received via `on_message`.
    pub fn reply<P: Any + Send>(&mut self, request: &Envelope, payload: P, bytes: u64) {
        self.reply_boxed(request, Box::new(payload), bytes);
    }

    /// Reply with an already type-erased payload.
    pub fn reply_boxed(&mut self, request: &Envelope, payload: Box<dyn Any + Send>, bytes: u64) {
        assert_ne!(request.corr, 0, "reply target was not sent with call()");
        self.send_inner(
            request.src,
            request.tag,
            request.corr,
            true,
            payload,
            bytes,
            request.req,
        );
    }

    /// Arm a timer `dt` from now; `on_timer` fires with the returned token.
    pub fn set_timer(&mut self, dt: SimTime) -> u64 {
        let fire = (self.st.procs[self.me].clock + dt).as_nanos();
        let Engine::Agent(ag) = &mut self.st.procs[self.me].engine else {
            unreachable!("StepCtx on a thread proc")
        };
        let tok = ag.next_timer;
        ag.next_timer += 1;
        ag.timers.insert((fire, tok), ());
        tok
    }

    /// Retire this agent after the current hook returns. Non-daemon agents
    /// must eventually call this (or be killed) for the simulation to end.
    pub fn finish(&mut self) {
        let Engine::Agent(ag) = &mut self.st.procs[self.me].engine else {
            unreachable!("StepCtx on a thread proc")
        };
        ag.finish = true;
    }

    /// Whether `target` has neither finished nor been killed.
    pub fn is_alive(&self, target: ProcId) -> bool {
        let p = &self.st.procs[target.0];
        !p.killed && !matches!(p.status, Status::Finished)
    }

    // ---- flight recorder (same non-yielding discipline as SimCtx) --------

    /// Increment a named counter in the run's metrics registry.
    pub fn metric_add(&mut self, name: &str, delta: u64) {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let t = self.st.procs[self.me].clock;
        self.st.ts_roll(t);
        self.st.metrics.add(name, delta);
    }

    /// Set a named gauge to an absolute value.
    pub fn metric_gauge_set(&mut self, name: &str, value: i64) {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let t = self.st.procs[self.me].clock;
        self.st.ts_roll(t);
        self.st.metrics.gauge_set(name, value);
    }

    /// Record a virtual-time duration into a named histogram.
    pub fn metric_observe(&mut self, name: &str, dt: SimTime) {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let t = self.st.procs[self.me].clock;
        self.st.ts_roll(t);
        self.st.metrics.observe(name, dt);
    }

    /// Mint request-trace tokens for one op issued by this agent (empty when
    /// request tracing is off). See
    /// [`SimCtx::req_begin_batch`](crate::SimCtx::req_begin_batch).
    pub fn req_begin_batch(&mut self, op: &str, n: usize) -> Vec<ReqToken> {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let now = self.st.procs[self.me].clock;
        match &mut self.st.req {
            Some(rec) => rec.begin_batch(self.me, op, n, now),
            None => Vec::new(),
        }
    }

    /// Timeline mark at this agent's clock (no-op unless tracing).
    pub fn trace_mark(&mut self, label: &'static str) {
        self.trace_mark_impl(label, None);
    }

    /// [`StepCtx::trace_mark`] with a `u64` payload.
    pub fn trace_mark_with(&mut self, label: &'static str, payload: u64) {
        self.trace_mark_impl(label, Some(payload));
    }

    fn trace_mark_impl(&mut self, label: &'static str, payload: Option<u64>) {
        if self.st.tracing {
            let label = self.st.intern(label);
            let at = self.st.procs[self.me].clock;
            self.st.trace.push(crate::report::TraceEvent::Mark {
                at,
                proc: ProcId(self.me),
                label,
                payload,
            });
        }
    }

    /// Label subsequent compute charges with an op name (trace-only).
    pub fn op_label(&mut self, label: &'static str) {
        if self.st.tracing {
            let id = self.st.intern(label);
            self.st.op_labels[self.me] = Some(id);
        }
    }

    /// Clear the label set by [`StepCtx::op_label`].
    pub fn op_label_clear(&mut self) {
        if self.st.tracing {
            self.st.op_labels[self.me] = None;
        }
    }
}

/// Suppress the default panic-hook noise for our internal `Interrupt`
/// unwinds while keeping real panics loud.
fn install_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<Interrupt>() {
                return;
            }
            default(info);
        }));
    });
}

fn proc_main(shared: Arc<Shared>, me: usize, f: Box<dyn FnOnce(&mut SimCtx) + Send>) {
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        {
            let mut st = shared.state.lock();
            shared.wait_for_turn(&mut st, me);
        }
        let mut ctx = SimCtx::new(Arc::clone(&shared), ProcId(me));
        f(&mut ctx);
    }));
    shared.on_proc_exit(me, result);
}

/// A write-once slot used to carry a process's return value out of the
/// simulation.
pub struct OutputSlot<T> {
    inner: Arc<Mutex<Option<T>>>,
}

impl<T> Clone for OutputSlot<T> {
    fn clone(&self) -> Self {
        OutputSlot {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> OutputSlot<T> {
    fn new() -> Self {
        OutputSlot {
            inner: Arc::new(Mutex::new(None)),
        }
    }

    fn put(&self, value: T) {
        *self.inner.lock() = Some(value);
    }

    /// Take the value. Panics if the producing process never finished.
    pub fn take(&self) -> T {
        self.inner
            .lock()
            .take()
            .expect("OutputSlot: producing process did not complete")
    }

    /// Non-panicking variant of [`OutputSlot::take`].
    pub fn try_take(&self) -> Option<T> {
        self.inner.lock().take()
    }
}

/// Builder for a [`SimRuntime`].
#[derive(Default)]
pub struct SimBuilder {
    cfg: SimConfig,
    tracing: bool,
    ts: Option<(SimTime, usize)>,
    reqtrace: bool,
}

impl SimBuilder {
    pub fn new() -> SimBuilder {
        SimBuilder::default()
    }

    pub fn seed(mut self, seed: u64) -> SimBuilder {
        self.cfg.seed = seed;
        self
    }

    pub fn network(mut self, net: crate::config::NetConfig) -> SimBuilder {
        self.cfg.net = net;
        self
    }

    pub fn compute(mut self, compute: crate::config::ComputeConfig) -> SimBuilder {
        self.cfg.compute = compute;
        self
    }

    pub fn config(mut self, cfg: SimConfig) -> SimBuilder {
        self.cfg = cfg;
        self
    }

    /// Record an event trace (sends, receives, compute, finishes) into the
    /// final report. Costs memory proportional to event count; intended for
    /// debugging and visualization, not for the large benches.
    pub fn trace(mut self, on: bool) -> SimBuilder {
        self.tracing = on;
        self
    }

    /// Scrape the metrics registry into windowed time-series every `window`
    /// of virtual time (ring capacity [`crate::timeseries::DEFAULT_CAPACITY`]
    /// windows). Scraping is non-yielding: a scraped run is byte-identical
    /// to an unscraped same-seed run.
    pub fn timeseries(self, window: SimTime) -> SimBuilder {
        self.timeseries_capacity(window, crate::timeseries::DEFAULT_CAPACITY)
    }

    /// [`SimBuilder::timeseries`] with an explicit ring capacity: once more
    /// than `capacity` windows complete, the oldest are evicted (counted in
    /// [`crate::timeseries::TimeSeries::dropped_windows`]).
    pub fn timeseries_capacity(mut self, window: SimTime, capacity: usize) -> SimBuilder {
        self.ts = Some((window, capacity));
        self
    }

    /// Record request-scoped traces: per-request stage latencies
    /// (issue/network/queue/service/reply/cache-fill) and deterministic
    /// slowest-request exemplars per op, exported on
    /// [`SimReport::reqs`](crate::SimReport::reqs). Recording is
    /// non-yielding: a traced run is byte-identical to an untraced
    /// same-seed run.
    pub fn reqtrace(mut self, on: bool) -> SimBuilder {
        self.reqtrace = on;
        self
    }

    pub fn build(self) -> SimRuntime {
        install_quiet_hook();
        SimRuntime {
            shared: Arc::new(Shared {
                cfg: self.cfg,
                state: Mutex::new(State {
                    procs: Vec::new(),
                    nic_out_free: Vec::new(),
                    nic_in_free: Vec::new(),
                    running: None,
                    live: 0,
                    shutdown: false,
                    error: None,
                    seq: 0,
                    corr: 0,
                    total_msgs: 0,
                    total_bytes: 0,
                    dropped_msgs: 0,
                    handles: Vec::new(),
                    tracing: self.tracing,
                    trace: Vec::new(),
                    metrics: MetricsSnapshot::default(),
                    labels: Vec::new(),
                    op_labels: Vec::new(),
                    ts: self.ts.map(|(w, c)| TsRecorder::new(w, c)),
                    req: self.reqtrace.then(ReqRecorder::new),
                    #[cfg(test)]
                    stale_wakes: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }
}

/// A configured simulation: spawn processes, then [`SimRuntime::run`].
pub struct SimRuntime {
    shared: Arc<Shared>,
}

impl SimRuntime {
    /// Spawn a non-daemon process. The simulation ends when all non-daemon
    /// processes finish.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&mut SimCtx) + Send + 'static,
    {
        self.shared
            .spawn_impl(name, false, SimTime::ZERO, Box::new(f))
    }

    /// Spawn a daemon process (e.g. a server loop). Daemons are interrupted
    /// when every non-daemon process has finished.
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&mut SimCtx) + Send + 'static,
    {
        self.shared
            .spawn_impl(name, true, SimTime::ZERO, Box::new(f))
    }

    /// Spawn a non-daemon steppable agent (no OS thread — stepped inline by
    /// the scheduler on message delivery and timer expiry). The simulation
    /// ends when all non-daemon processes finish; a non-daemon agent finishes
    /// by calling [`StepCtx::finish`].
    pub fn spawn_agent<A: Proc + 'static>(&mut self, name: &str, agent: A) -> ProcId {
        self.shared
            .spawn_agent_impl(name, false, SimTime::ZERO, Box::new(agent))
    }

    /// Spawn a daemon steppable agent (e.g. a server). Daemon agents are
    /// retired when every non-daemon process has finished.
    pub fn spawn_agent_daemon<A: Proc + 'static>(&mut self, name: &str, agent: A) -> ProcId {
        self.shared
            .spawn_agent_impl(name, true, SimTime::ZERO, Box::new(agent))
    }

    /// Spawn a non-daemon process whose return value is captured in an
    /// [`OutputSlot`], readable after [`SimRuntime::run`].
    pub fn spawn_collect<T, F>(&mut self, name: &str, f: F) -> OutputSlot<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut SimCtx) -> T + Send + 'static,
    {
        let slot = OutputSlot::new();
        let out = slot.clone();
        self.spawn(name, move |ctx| {
            let v = f(ctx);
            out.put(v);
        });
        slot
    }

    /// Run the simulation to completion.
    pub fn run(self) -> Result<SimReport, SimError> {
        let wall_start = Instant::now();
        let profiling = hostprof::enabled();
        if profiling {
            // Drop leftovers from earlier runs (e.g. a previous run's
            // post-run export scopes) so this report is self-contained.
            hostprof::reset();
        }
        {
            let mut st = self.shared.state.lock();
            // The run() thread drives the schedule until a thread proc takes
            // over (or the whole sim is agents and completes right here).
            loop {
                if st.shutdown {
                    break;
                }
                match pick(&st) {
                    Some(next) if st.procs[next].is_agent() => {
                        self.shared.step_agent(&mut st, next);
                    }
                    Some(next) => {
                        self.shared.hand_to(&mut st, next);
                        break;
                    }
                    None => {
                        if st.live > 0 {
                            let desc = describe_blocked(&st);
                            st.error = Some(SimError::Deadlock(desc));
                        }
                        st.shutdown = true;
                        self.shared.wake_all(&st);
                        break;
                    }
                }
            }
            while !st.shutdown {
                self.shared.cv.wait(&mut st);
            }
            st.running = None;
            self.shared.wake_all(&st);
        }
        // All threads unwind on shutdown; join them before reading stats.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut st = self.shared.state.lock();
                std::mem::take(&mut st.handles)
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        let mut st = self.shared.state.lock();
        if let Some(err) = st.error.clone() {
            return Err(err);
        }
        // Daemon agents have no thread to unwind at shutdown; stamp their
        // end the way `on_proc_exit` does for thread daemons.
        let mut finish_events = Vec::new();
        for (i, p) in st.procs.iter_mut().enumerate() {
            if p.is_agent() && !matches!(p.status, Status::Finished) {
                p.status = Status::Finished;
                p.stats.finished_at = p.clock;
                finish_events.push((p.clock, i));
            }
        }
        if st.tracing {
            for (at, i) in finish_events {
                st.trace.push(crate::report::TraceEvent::Finish {
                    at,
                    proc: ProcId(i),
                });
            }
        }
        let virtual_time = st
            .procs
            .iter()
            .filter(|p| !p.daemon)
            .map(|p| p.clock)
            .max()
            .unwrap_or(SimTime::ZERO);
        let reqs = st.req.take().map(ReqRecorder::finish);
        let timeseries = st.ts.take().map(|ts| {
            let procs: Vec<(u64, u64)> = st
                .procs
                .iter()
                .map(|p| (p.stats.busy.as_nanos(), p.mailbox.len() as u64))
                .collect();
            ts.finish(virtual_time, &st.metrics, &procs)
        });
        let trace = {
            let _prof = hostprof::scope(ProfScope::TraceExport);
            // The state is being discarded, so take the trace instead of
            // cloning it — the clone was a whole-trace copy on every run.
            let mut trace = std::mem::take(&mut st.trace);
            trace.sort_by_key(|e| e.at());
            trace
        };
        let wall_time = wall_start.elapsed();
        let host = if profiling {
            // Sim-proc threads merged their totals on exit (TLS drop); fold
            // in this thread's share before draining the global table.
            hostprof::flush_thread();
            Some(hostprof::take_profile(wall_time.as_nanos() as u64))
        } else {
            None
        };
        Ok(SimReport {
            virtual_time,
            wall_time,
            total_msgs: st.total_msgs,
            total_bytes: st.total_bytes,
            dropped_msgs: st.dropped_msgs,
            procs: st.procs.iter().map(|p| p.stats.clone()).collect(),
            trace,
            metrics: st.metrics.clone(),
            labels: st.labels.clone(),
            net: self.shared.cfg.net.clone(),
            timeseries,
            reqs,
            host,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// The mechanism itself, by count: a hand-off wakes the proc it picked
    /// and nobody else, so bystanders parked in `recv` never wake to find it
    /// is not their turn. A broadcast would wake all 32 on each of the 2 000
    /// hand-offs below.
    #[test]
    fn handoff_does_not_wake_bystanders() {
        let mut sim = SimBuilder::new().build();
        for i in 0..32 {
            sim.spawn_daemon(&format!("parked-{i}"), |ctx| loop {
                let _ = ctx.recv();
            });
        }
        let pong = sim.spawn_daemon("pong", |ctx| loop {
            let env = ctx.recv();
            ctx.reply(&env, (), 8);
        });
        sim.spawn("ping", move |ctx| {
            for _ in 0..1000 {
                let _ = ctx.call(pong, 0, (), 8);
            }
        });
        let shared = Arc::clone(&sim.shared);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(sim.run());
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("simulation did not finish within 30 s")
            .unwrap();
        let st = shared.state.lock();
        // The OS may wake a condvar waiter spuriously; allow one per proc.
        assert!(
            st.stale_wakes <= st.procs.len() as u64,
            "{} stale wake-ups across {} procs",
            st.stale_wakes,
            st.procs.len()
        );
    }
}
