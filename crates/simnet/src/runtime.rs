//! The sequential deterministic scheduler.
//!
//! Two ways to write a logical process share one virtual clock and one
//! scheduling rule:
//!
//! * **Thread procs** — direct-style closures. Each owns an OS thread; only
//!   one runs at a time, handing over at every simulator call by releasing
//!   the state lock, unparking the next proc's thread and parking its own.
//!   Natural for straight-line code.
//! * **Steppable agents** — explicit state machines implementing [`Proc`].
//!   They own *no* thread: whichever OS thread currently drives the
//!   scheduler steps them inline (one message, timer expiry or queued send
//!   per turn) while holding the state lock. Thousands of agents cost a few
//!   hundred bytes each, which is what makes many-client serving scenarios
//!   representable at all.
//!
//! Either way the scheduler always runs the *ready* process with the
//! smallest virtual clock (ties broken by process id), and the same program
//! written either way produces the same events at the same clocks. A blocked
//! process is ready when mail it is waiting for is in its mailbox (at the
//! mail's arrival time) or its deadline — a thread proc's receive deadline,
//! an agent's next timer — has passed.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};
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
use crate::watchdog::{SloJudge, SloObjective};

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
/// thread: the scheduler calls one of these hooks per event, on whatever
/// thread currently drives the scheduler, while holding the global state
/// lock. The hooks therefore must not block — everything on [`StepCtx`] is
/// non-blocking — and should do bounded work per step. What a hook sends
/// goes out in the turn the smallest-clock pick gives it (see
/// [`StepCtx::send`]), so swapping a thread proc for the equivalent agent
/// changes no event and no clock of a run.
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
    /// Pending timers ordered by (fire ns, token).
    timers: BTreeMap<(u64, u64), ()>,
    next_timer: u64,
    /// Same per-proc seeding discipline as `SimCtx`.
    rng: StdRng,
    /// Set by [`StepCtx::finish`]; the scheduler retires the agent once the
    /// hook has returned and `out` has drained.
    finish: bool,
    /// What the last hook sent and could not deliver on the spot, each with
    /// the clock it was issued at. One goes out per turn: a hook runs ahead
    /// of every other proc in virtual time, so a send claims its NICs only
    /// once the agent is again the `(clock, id)` minimum at the send's own
    /// clock — the turn a thread proc, which yields in `advance` and `send`,
    /// would make it in.
    out: VecDeque<(SimTime, Outgoing)>,
    /// The clock the last hook ended at, restored once `out` has drained;
    /// meanwhile the agent's clock sits at the head entry's.
    after: SimTime,
    /// The mail to park for: any, or — until it comes — the one reply named
    /// by [`StepCtx::await_reply`].
    wait: MatchSpec,
}

/// One message on its way into [`State::deliver`], built the same way by
/// both proc handles.
pub(crate) struct Outgoing {
    dst: ProcId,
    tag: u32,
    corr: u64,
    is_reply: bool,
    payload: Box<dyn Any + Send>,
    bytes: u64,
    req: Option<ReqToken>,
}

impl Outgoing {
    /// A request (`corr` from [`State::next_corr`]) or, with `corr == 0`, a
    /// one-way message.
    pub(crate) fn to(
        dst: ProcId,
        tag: u32,
        corr: u64,
        payload: Box<dyn Any + Send>,
        bytes: u64,
        req: Option<ReqToken>,
    ) -> Outgoing {
        Outgoing {
            dst,
            tag,
            corr,
            is_reply: false,
            payload,
            bytes,
            req,
        }
    }

    /// The reply to `request`: back to its sender, under its tag,
    /// correlation id and request-trace token.
    pub(crate) fn reply(request: &Envelope, payload: Box<dyn Any + Send>, bytes: u64) -> Outgoing {
        assert_ne!(request.corr, 0, "reply target was not sent with call()");
        Outgoing {
            is_reply: true,
            ..Outgoing::to(
                request.src,
                request.tag,
                request.corr,
                payload,
                bytes,
                request.req,
            )
        }
    }

    /// Completion of a reply token another proc allocated.
    pub(crate) fn token_reply(
        dst: ProcId,
        tag: u32,
        token: u64,
        payload: Box<dyn Any + Send>,
        bytes: u64,
    ) -> Outgoing {
        Outgoing {
            is_reply: true,
            ..Outgoing::to(dst, tag, token, payload, bytes, None)
        }
    }
}

/// The per-proc random number generator both engines seed the same way.
pub(crate) fn proc_rng(seed: u64, id: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id as u64 + 1),
    )
}

enum Engine {
    /// Direct-style closure on its own OS thread, which parks until it is
    /// handed the turn; the handle is what the hand-off unparks.
    Thread(Thread),
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

    /// Unpark this proc's thread, if it has one (agents never park). The
    /// thread re-checks `running`/`killed`/`shutdown` under the state lock
    /// before it parks again, and an unpark that lands before its `park`
    /// leaves the token that park returns on, so no wake-up is lost.
    fn wake(&self) {
        if let Engine::Thread(thread) = &self.engine {
            thread.unpark();
        }
    }

    fn is_agent(&self) -> bool {
        matches!(self.engine, Engine::Agent(_))
    }

    /// Mailbox key of the earliest mail `spec` accepts.
    fn first_match(&self, spec: &MatchSpec) -> Option<(u64, u64)> {
        self.mailbox
            .iter()
            .find(|(_, env)| spec.matches(env))
            .map(|(key, _)| *key)
    }

    /// Virtual time at which this process could next run, or `None` if it
    /// cannot run at all right now.
    fn ready_key(&self) -> Option<SimTime> {
        match &self.status {
            Status::Finished => None,
            // Schedulable so it gets a turn in which to unwind.
            _ if self.killed => Some(self.clock),
            // Includes an agent not yet started or with sends still queued.
            Status::Runnable => Some(self.clock),
            Status::Blocked { spec, deadline } => {
                let mail = self.first_match(spec).map(|(arrival, _)| SimTime(arrival));
                // Ready at whichever comes first, the matching mail or the
                // deadline (an agent's is its next timer), but never before
                // the proc's own clock.
                let first = match (mail, *deadline) {
                    (Some(m), Some(d)) => m.min(d),
                    (m, d) => m.or(d)?,
                };
                Some(self.clock.max(first))
            }
        }
    }
}

pub(crate) struct State {
    procs: Vec<ProcState>,
    /// Each proc's [`ProcState::ready_key`] in ns, `NOT_READY` for `None`:
    /// what [`pick`] scans. Exact for every proc not in `touched`.
    ready: Vec<u64>,
    /// Procs whose ready key may have changed since the last [`pick`]. A
    /// turn can change only the proc that took it, the destination of each
    /// send it made, and a proc it killed; whoever does so pushes here.
    /// Spawned procs need no entry — `ready` is shorter than `procs` by them.
    touched: Vec<usize>,
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
    /// SLO burn judge (None unless the builder was given both a window
    /// width and objectives).
    slo: Option<SloJudge>,
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
    /// Advance the SLO burn judge to virtual time `t`, judging every window
    /// that closed since the last mutation. Called immediately *before* each
    /// registry/clock mutation so that "registry state at a boundary" is
    /// exactly the state left by the prior mutation. Not a yield point: no
    /// clock moves, no process wakes — judged runs keep the exact timing of
    /// unjudged ones.
    fn slo_roll(&mut self, t: SimTime) {
        let Some(judge) = &mut self.slo else { return };
        if !judge.due(t) {
            return;
        }
        let _prof = hostprof::scope(ProfScope::SloRoll);
        judge.roll(t, &self.metrics);
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

    fn agent_mut(&mut self, idx: usize) -> &mut AgentState {
        match &mut self.procs[idx].engine {
            Engine::Agent(ag) => ag,
            Engine::Thread(_) => unreachable!("proc {idx} is a thread proc, not an agent"),
        }
    }

    /// Take mail `key` out of `me`'s mailbox: sync the clock to its arrival,
    /// record stats, trace and request trace. The receive core shared by
    /// thread procs (`Shared::block_recv`) and agent steps.
    fn receive(&mut self, me: usize, key: (u64, u64)) -> Envelope {
        let at = self.procs[me].clock.max(SimTime(key.0));
        self.slo_roll(at);
        let p = &mut self.procs[me];
        let env = p.mailbox.remove(&key).expect("mail vanished");
        p.clock = at;
        p.stats.msgs_recv += 1;
        p.stats.bytes_recv += env.bytes;
        if self.tracing {
            self.trace.push(crate::report::TraceEvent::Recv {
                at,
                proc: ProcId(me),
                src: env.src,
                tag: env.tag,
                seq: env.seq,
            });
        }
        if let (Some(tok), Some(rec)) = (env.req, &mut self.req) {
            rec.on_dequeue(tok, at, env.is_reply);
        }
        env
    }

    /// The send core shared by thread procs (`Shared::send_env`) and agent
    /// turns (`Shared::step_agent`): NIC accounting, trace/reqtrace hooks,
    /// mailbox insert. Does not reschedule — the caller owns the handoff.
    fn deliver(&mut self, cfg: &SimConfig, me: usize, out: Outgoing) {
        let Outgoing {
            dst,
            tag,
            corr,
            is_reply,
            payload,
            bytes,
            req,
        } = out;
        let pre = self.procs[me].clock;
        self.slo_roll(pre);
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
            self.touched.push(dst.0);
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

    /// Register a new proc at `clock` and return its id.
    fn add_proc(&mut self, name: &str, daemon: bool, clock: SimTime, engine: Engine) -> usize {
        self.procs
            .push(ProcState::new(name.to_string(), daemon, clock, engine));
        self.nic_out_free.push(SimTime::ZERO);
        self.nic_in_free.push(SimTime::ZERO);
        self.op_labels.push(None);
        if !daemon {
            self.live += 1;
        }
        self.procs.len() - 1
    }

    // ---- the non-yielding proc surface -----------------------------------
    //
    // Everything either handle does without giving up the turn: a thread
    // proc reaches these under the lock, an agent hook through the state its
    // `StepCtx` holds. None of them wakes anyone; only `charge` and
    // `next_corr` touch the clock or a counter a run's bytes depend on, and
    // the recorders consume no sequence or correlation number — so an
    // instrumented run is timing-identical to an uninstrumented one.

    /// Charge `dt` of busy (compute) time to `me`: the `Compute` trace
    /// event, then the clock and busy time. The one compute charge of both
    /// engines.
    pub(crate) fn charge(&mut self, me: usize, dt: SimTime) {
        let at = self.procs[me].clock;
        self.slo_roll(at);
        if self.tracing && dt > SimTime::ZERO {
            let label = self.op_labels[me];
            self.trace.push(crate::report::TraceEvent::Compute {
                at,
                proc: ProcId(me),
                dt,
                label,
            });
        }
        let p = &mut self.procs[me];
        p.clock += dt;
        p.stats.busy += dt;
    }

    /// A fresh run-unique correlation id.
    pub(crate) fn next_corr(&mut self) -> u64 {
        self.corr += 1;
        self.corr
    }

    /// Whether `target` has neither finished nor been killed.
    pub(crate) fn is_alive(&self, target: ProcId) -> bool {
        let p = &self.procs[target.0];
        !p.killed && !matches!(p.status, Status::Finished)
    }

    pub(crate) fn metric_add(&mut self, me: usize, name: &str, delta: u64) {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        self.slo_roll(self.procs[me].clock);
        self.metrics.add(name, delta);
    }

    pub(crate) fn metric_observe(&mut self, me: usize, name: &str, dt: SimTime) {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        self.slo_roll(self.procs[me].clock);
        self.metrics.observe(name, dt);
    }

    /// Request-trace tokens for one op of `me` (empty when request tracing
    /// is off); ids come from the recorder's own counter.
    pub(crate) fn req_begin_batch(&mut self, me: usize, op: &str, n: usize) -> Vec<ReqToken> {
        let _prof = hostprof::scope(ProfScope::MetricsRecord);
        let now = self.procs[me].clock;
        match &mut self.req {
            Some(rec) => rec.begin_batch(op, n, now),
            None => Vec::new(),
        }
    }

    /// A timeline mark at `me`'s clock (no-op unless tracing).
    pub(crate) fn trace_mark(&mut self, me: usize, label: &'static str, payload: Option<u64>) {
        if self.tracing {
            let label = self.intern(label);
            let at = self.procs[me].clock;
            self.trace.push(crate::report::TraceEvent::Mark {
                at,
                proc: ProcId(me),
                label,
                payload,
            });
        }
    }

    /// Set (or clear) the op label of `me`'s later `Compute` events (no-op
    /// unless tracing).
    pub(crate) fn set_op_label(&mut self, me: usize, label: Option<&'static str>) {
        if self.tracing {
            self.op_labels[me] = label.map(|l| self.intern(l));
        }
    }
}

/// `State::ready` entry of a proc that cannot run.
const NOT_READY: u64 = u64::MAX;

/// The ready proc with the smallest `(ready key, id)`. Brings the cached
/// keys up to date — touched and newly spawned procs only — then takes the
/// first minimum of the dense key slice.
fn pick(st: &mut State) -> Option<usize> {
    let State {
        procs,
        ready,
        touched,
        ..
    } = st;
    let key = |p: &ProcState| p.ready_key().map_or(NOT_READY, SimTime::as_nanos);
    ready.extend(procs[ready.len()..].iter().map(key));
    for i in touched.drain(..) {
        ready[i] = key(&procs[i]);
    }
    // Debug builds (`cargo test`) recompute every key on every pick, so a
    // mutation site that forgot to push to `touched` fails the first run
    // that reaches it.
    #[cfg(debug_assertions)]
    for (i, p) in procs.iter().enumerate() {
        assert_eq!(ready[i], key(p), "stale ready key for '{}'", p.name);
    }
    let mut best = (NOT_READY, None);
    for (i, &k) in ready.iter().enumerate() {
        if k < best.0 {
            best = (k, Some(i));
        }
    }
    best.1
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
}

impl Shared {
    fn interrupt_check(&self, st: &State, me: usize) {
        if st.shutdown || st.procs[me].killed {
            panic::panic_any(Interrupt);
        }
    }

    /// Unpark `next` (the thread [`Shared::hand_to`] gave the turn), then
    /// park until it is `me`'s turn (or shutdown/kill unwinds us). The lock
    /// is released first, so `next` never wakes into a lock still held.
    fn wait_for_turn(&self, st: &mut MutexGuard<'_, State>, me: usize, mut next: Option<Thread>) {
        // Parked wall time is the time *other* procs spend running; giving
        // it a dedicated hostprof scope keeps it out of every enclosing
        // scope's self time (the guard also records during Interrupt
        // unwinds, so killed procs account their final park).
        let _prof = hostprof::scope(ProfScope::SchedPark);
        loop {
            if st.shutdown || st.procs[me].killed {
                panic::panic_any(Interrupt);
            }
            if st.running == Some(me) {
                return;
            }
            MutexGuard::unlocked(st, || {
                if let Some(next) = next.take() {
                    next.unpark();
                }
                thread::park();
            });
            #[cfg(test)]
            if !(st.shutdown || st.procs[me].killed || st.running == Some(me)) {
                st.stale_wakes += 1;
            }
        }
    }

    /// Give the turn to thread proc `next` and return its thread, which the
    /// caller unparks — it alone — once the state lock is released.
    fn hand_to(&self, st: &mut State, next: usize) -> Thread {
        st.running = Some(next);
        match &st.procs[next].engine {
            Engine::Thread(thread) => thread.clone(),
            Engine::Agent(_) => unreachable!("agents are stepped, not handed the turn"),
        }
    }

    /// Wake every parked thread proc. Only for state changes all of them
    /// must see: shutdown and failure.
    fn wake_all(&self, st: &State) {
        for p in &st.procs {
            p.wake();
        }
    }

    /// After any operation that may have advanced `me`'s clock: hand off to
    /// the globally minimal-clock ready process (possibly still `me`).
    /// Ready *agents* ahead of the next thread proc are stepped inline right
    /// here — `me`'s OS thread is the scheduler while it holds the lock.
    fn reschedule(&self, st: &mut MutexGuard<'_, State>, me: usize) {
        st.touched.push(me);
        let next = {
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
                break self.hand_to(st, next);
            }
        };
        self.wait_for_turn(st, me, Some(next));
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

    /// The state, for the non-yielding operations on it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock()
    }

    pub(crate) fn advance(&self, me: usize, dt: SimTime) {
        let mut st = self.state.lock();
        self.interrupt_check(&st, me);
        st.charge(me, dt);
        self.reschedule(&mut st, me);
    }

    pub(crate) fn send_env(&self, me: usize, out: Outgoing) {
        let _prof = hostprof::scope(ProfScope::SchedSend);
        let mut st = self.state.lock();
        self.interrupt_check(&st, me);
        st.deliver(&self.cfg, me, out);
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
            // Mail that arrives after the deadline is not this call's: it
            // stays queued for the next receive. Mail wins a tie, as it does
            // against an agent's timer.
            let clock = st.procs[me].clock;
            let in_time =
                |key: &(u64, u64)| deadline.is_none_or(|d| SimTime(key.0) <= clock.max(d));
            if let Some(key) = st.procs[me].first_match(&spec).filter(in_time) {
                let env = st.receive(me, key);
                st.procs[me].status = Status::Runnable;
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
            st.touched.push(me);
            match pick(&mut st) {
                Some(next) if next == me => {
                    // Ready by deadline only (matching mail in time would
                    // have been consumed above).
                    let d = deadline.expect("self-ready without mail or deadline");
                    let eff = st.procs[me].clock.max(d);
                    st.slo_roll(eff);
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
                    let next = self.hand_to(&mut st, next);
                    self.wait_for_turn(&mut st, me, Some(next));
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

    /// The spawn-time name of a process — for diagnostics (panic messages,
    /// logs). Not a yield point.
    pub(crate) fn proc_name(&self, me: usize) -> String {
        self.state.lock().procs[me].name.clone()
    }

    pub(crate) fn kill(&self, me: usize, target: ProcId) {
        assert_ne!(me, target.0, "a process cannot kill itself; just return");
        let mut st = self.state.lock();
        self.interrupt_check(&st, me);
        if !matches!(st.procs[target.0].status, Status::Finished) {
            st.procs[target.0].killed = true;
            st.touched.push(target.0);
            // A parked victim wakes on this unpark, sees `killed`, and
            // unwinds; an agent victim is retired at its next turn.
            st.procs[target.0].wake();
        }
        self.reschedule(&mut st, me);
    }

    // ---- steppable agents -------------------------------------------------

    /// Run one scheduling turn of agent `idx`: put its next queued send on
    /// the wire, or deliver its earliest event (start, awaited mail, or
    /// timer — whichever has the smallest effective time, mail winning ties)
    /// into the corresponding [`Proc`] hook. Runs on the calling thread
    /// while the lock is held; the callback sees the scheduler state through
    /// [`StepCtx`] and cannot block.
    fn step_agent(&self, st: &mut MutexGuard<'_, State>, idx: usize) {
        let _prof = hostprof::scope(ProfScope::SchedStep);
        st.touched.push(idx);
        if st.procs[idx].killed {
            // Kills retire an agent at its next turn, mirroring the unwind
            // a thread proc performs.
            self.retire(st, idx);
            return;
        }
        if let Some((_, out)) = st.agent_mut(idx).out.pop_front() {
            {
                let _prof = hostprof::scope(ProfScope::SchedSend);
                st.deliver(&self.cfg, idx, out);
            }
            st.procs[idx].clock = st.agent_mut(idx).after;
            self.park_agent(st, idx);
            return;
        }
        enum Ev {
            Start,
            Mail((u64, u64)),
            Timer,
        }
        let p = &st.procs[idx];
        let ev = match &p.status {
            Status::Runnable => Ev::Start,
            Status::Blocked { spec, deadline } => {
                let due = |t: SimTime| p.clock.max(t);
                let mail = p
                    .first_match(spec)
                    .filter(|key| deadline.is_none_or(|d| due(SimTime(key.0)) <= due(d)));
                mail.map_or(Ev::Timer, Ev::Mail)
            }
            Status::Finished => unreachable!("finished agent picked"),
        };
        let mut agent = st.agent_mut(idx).agent.take();
        let hooks = agent.as_mut().expect("agent stepped reentrantly");
        match ev {
            Ev::Start => hooks.on_start(&mut self.step_ctx(st, idx)),
            Ev::Mail(key) => {
                let env = st.receive(idx, key);
                // Whatever was awaited has come; the hook may await anew.
                st.agent_mut(idx).wait = MatchSpec::Any;
                hooks.on_message(&mut self.step_ctx(st, idx), env);
            }
            Ev::Timer => {
                let timers = &mut st.agent_mut(idx).timers;
                let ((fire, tok), ()) = timers.pop_first().expect("agent picked with no event");
                let at = st.procs[idx].clock.max(SimTime(fire));
                st.slo_roll(at);
                st.procs[idx].clock = at;
                hooks.on_timer(&mut self.step_ctx(st, idx), tok);
            }
        }
        st.agent_mut(idx).agent = agent;
        self.park_agent(st, idx);
    }

    fn step_ctx<'a>(&'a self, st: &'a mut State, me: usize) -> StepCtx<'a> {
        StepCtx {
            cfg: &self.cfg,
            entered: Some(st.procs[me].clock),
            st,
            me,
        }
    }

    /// Where a turn leaves agent `idx`: at the clock of its next queued send,
    /// retired, or parked between events.
    fn park_agent(&self, st: &mut State, idx: usize) {
        let p = &mut st.procs[idx];
        let Engine::Agent(ag) = &mut p.engine else {
            unreachable!("proc {idx} is a thread proc, not an agent")
        };
        if let Some((at, _)) = ag.out.front() {
            ag.after = p.clock;
            p.clock = *at;
            p.status = Status::Runnable;
        } else if ag.finish {
            self.retire(st, idx);
        } else {
            p.status = Status::Blocked {
                spec: ag.wait.clone(),
                deadline: ag.timers.keys().next().map(|(fire, _)| SimTime(*fire)),
            };
        }
    }

    /// Retire proc `idx` at its current clock — the end of a thread proc's
    /// closure, an agent's `finish()`, a kill, or the end of the run for a
    /// daemon agent — and shut the simulation down with the last non-daemon.
    fn retire(&self, st: &mut State, idx: usize) {
        st.touched.push(idx);
        let p = &mut st.procs[idx];
        let first = !matches!(p.status, Status::Finished);
        p.status = Status::Finished;
        p.stats.finished_at = p.clock;
        if let Engine::Agent(ag) = &mut p.engine {
            // Drop user state and whatever was pending now; the slot itself
            // stays (ids are stable).
            ag.agent = None;
            ag.timers.clear();
            ag.out.clear();
        }
        if first {
            if !p.daemon {
                st.live -= 1;
            }
            if st.tracing {
                let at = st.procs[idx].clock;
                st.trace.push(crate::report::TraceEvent::Finish {
                    at,
                    proc: ProcId(idx),
                });
            }
        }
        if st.live == 0 {
            st.shutdown = true;
        }
        if st.shutdown {
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
        let engine = Engine::Agent(Box::new(AgentState {
            agent: Some(agent),
            timers: BTreeMap::new(),
            next_timer: 0,
            rng: proc_rng(self.cfg.seed, st.procs.len()),
            finish: false,
            out: VecDeque::new(),
            after: start_clock,
            wait: MatchSpec::Any,
        }));
        ProcId(st.add_proc(name, daemon, start_clock, engine))
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
        let shared = Arc::clone(self);
        // The thread's first act is to take the lock held here, so it finds
        // itself registered.
        let handle = thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || proc_main(shared, id, f))
            .expect("failed to spawn simulation thread");
        let engine = Engine::Thread(handle.thread().clone());
        assert_eq!(st.add_proc(name, daemon, start_clock, engine), id);
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
        self.retire(&mut st, me);
        if st.shutdown || st.running != Some(me) {
            return;
        }
        let next = loop {
            if st.shutdown {
                st.running = None;
                self.wake_all(&st);
                return;
            }
            match pick(&mut st) {
                Some(next) if st.procs[next].is_agent() => {
                    // The exiting thread keeps driving the schedule while
                    // agents are next in line.
                    self.step_agent(&mut st, next);
                }
                Some(next) => break self.hand_to(&mut st, next),
                None => {
                    let desc = describe_blocked(&st);
                    return self.fail(&mut st, SimError::Deadlock(desc));
                }
            }
        };
        drop(st);
        next.unpark();
    }
}

/// The handle a [`Proc`] hook sees during a step.
///
/// Everything here is **non-blocking**: sends queue, timers arm, the clock
/// only moves forward via [`StepCtx::advance`] and the per-message send
/// overhead. An agent that needs a reply sends the request with
/// [`StepCtx::send_request`] and takes the reply in a later `on_message`;
/// [`StepCtx::await_reply`] holds all other mail back until then, which is
/// what [`SimCtx::call`](crate::SimCtx::call) does for a thread proc. A
/// whole step is atomic with respect to other processes: no one else runs
/// between two statements of a hook.
pub struct StepCtx<'a> {
    cfg: &'a SimConfig,
    /// The clock the hook was entered at — the agent's ready key when it was
    /// picked — until the hook's first send takes it.
    entered: Option<SimTime>,
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

    /// Deterministic per-agent random number generator (same seeding
    /// discipline as [`SimCtx::rng`](crate::SimCtx::rng)).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.st.agent_mut(self.me).rng
    }

    /// Advance this agent's clock by `dt` of busy (compute) time. Unlike
    /// [`SimCtx::advance`](crate::SimCtx::advance) this does not yield — the
    /// step stays atomic — so hooks should charge bounded work per step.
    pub fn advance(&mut self, dt: SimTime) {
        self.st.charge(self.me, dt);
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

    /// Charge the send overhead now, so the hook's clock reads as it would
    /// after a thread proc's send, and queue the message for its own turn —
    /// unless this *is* its turn: the agent was picked as the `(clock, id)`
    /// minimum at `entered`, and a hook moves no other proc, so its first
    /// send, if still at that clock, would be the very next pick. It leaves
    /// at once.
    fn send_inner(&mut self, out: Outgoing) {
        let at = self.st.procs[self.me].clock;
        if self.entered.take() == Some(at) {
            let _prof = hostprof::scope(ProfScope::SchedSend);
            return self.st.deliver(self.cfg, self.me, out);
        }
        self.st.procs[self.me].clock += self.cfg.net.per_msg_overhead;
        self.st.agent_mut(self.me).out.push_back((at, out));
    }

    /// Send a one-way message of declared wire size `bytes`. Like every send
    /// of a hook it leaves — claims its NICs, takes its sequence number — in
    /// a turn of this agent at the clock it was issued at: the hook may be
    /// ahead of procs that still have earlier sends to make. Only a first
    /// send at the clock the hook was entered at is in that turn already.
    pub fn send<P: Any + Send>(&mut self, dst: ProcId, tag: u32, payload: P, bytes: u64) {
        self.send_inner(Outgoing::to(dst, tag, 0, Box::new(payload), bytes, None));
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
        let corr = self.st.next_corr();
        self.send_inner(Outgoing::to(dst, tag, corr, Box::new(payload), bytes, req));
        corr
    }

    /// Once this hook returns, take no mail but the reply to `corr` (an id
    /// [`StepCtx::send_request`] returned): other mail stays queued in
    /// arrival order until that reply has been handed to `on_message`;
    /// timers still fire. The selective receive a thread proc gets from
    /// [`SimCtx::call`](crate::SimCtx::call).
    pub fn await_reply(&mut self, corr: u64) {
        self.st.agent_mut(self.me).wait = MatchSpec::Replies(vec![corr]);
    }

    /// Reply to a request received via `on_message`.
    pub fn reply<P: Any + Send>(&mut self, request: &Envelope, payload: P, bytes: u64) {
        self.reply_boxed(request, Box::new(payload), bytes);
    }

    /// Reply with an already type-erased payload.
    pub fn reply_boxed(&mut self, request: &Envelope, payload: Box<dyn Any + Send>, bytes: u64) {
        self.send_inner(Outgoing::reply(request, payload, bytes));
    }

    /// Arm a timer `dt` from now; `on_timer` fires with the returned token.
    pub fn set_timer(&mut self, dt: SimTime) -> u64 {
        let fire = (self.st.procs[self.me].clock + dt).as_nanos();
        let ag = self.st.agent_mut(self.me);
        let tok = ag.next_timer;
        ag.next_timer += 1;
        ag.timers.insert((fire, tok), ());
        tok
    }

    /// Retire this agent once the current hook has returned and what it sent
    /// has left. Non-daemon agents must eventually call this (or be killed)
    /// for the simulation to end.
    pub fn finish(&mut self) {
        self.st.agent_mut(self.me).finish = true;
    }

    /// Whether `target` has neither finished nor been killed.
    pub fn is_alive(&self, target: ProcId) -> bool {
        self.st.is_alive(target)
    }

    // ---- flight recorder (same non-yielding discipline as SimCtx) --------

    /// Increment a named counter in the run's metrics registry.
    pub fn metric_add(&mut self, name: &str, delta: u64) {
        self.st.metric_add(self.me, name, delta);
    }

    /// Record a virtual-time duration into a named histogram.
    pub fn metric_observe(&mut self, name: &str, dt: SimTime) {
        self.st.metric_observe(self.me, name, dt);
    }

    /// Mint request-trace tokens for one op issued by this agent (empty when
    /// request tracing is off). See
    /// [`SimCtx::req_begin_batch`](crate::SimCtx::req_begin_batch).
    pub fn req_begin_batch(&mut self, op: &str, n: usize) -> Vec<ReqToken> {
        self.st.req_begin_batch(self.me, op, n)
    }

    /// Timeline mark at this agent's clock (no-op unless tracing).
    pub fn trace_mark(&mut self, label: &'static str) {
        self.st.trace_mark(self.me, label, None);
    }

    /// [`StepCtx::trace_mark`] with a `u64` payload.
    pub fn trace_mark_with(&mut self, label: &'static str, payload: u64) {
        self.st.trace_mark(self.me, label, Some(payload));
    }

    /// Label subsequent compute charges with an op name (trace-only).
    pub fn op_label(&mut self, label: &'static str) {
        self.st.set_op_label(self.me, Some(label));
    }

    /// Clear the label set by [`StepCtx::op_label`].
    pub fn op_label_clear(&mut self) {
        self.st.set_op_label(self.me, None);
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
            shared.wait_for_turn(&mut st, me, None);
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
}

/// Builder for a [`SimRuntime`].
#[derive(Default)]
pub struct SimBuilder {
    cfg: SimConfig,
    tracing: bool,
    window: Option<SimTime>,
    slo: Vec<SloObjective>,
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

    /// Record an event trace (sends, receives, compute, finishes) into the
    /// final report. Costs memory proportional to event count; intended for
    /// debugging and visualization, not for the large benches.
    pub fn trace(mut self, on: bool) -> SimBuilder {
        self.tracing = on;
        self
    }

    /// The width of the virtual-time windows [`SimBuilder::slo`]'s
    /// objectives are judged over. Without objectives it does nothing.
    pub fn timeseries(mut self, window: SimTime) -> SimBuilder {
        self.window = Some(window);
        self
    }

    /// Judge `objectives` with multi-window burn-rate alerting as each
    /// [`SimBuilder::timeseries`] window closes, whatever the run's length;
    /// the alerts land on [`SimReport::alerts`](crate::SimReport::alerts).
    /// Judging needs both calls. It is non-yielding: a judged run is
    /// byte-identical to an unjudged same-seed run.
    pub fn slo(mut self, objectives: Vec<SloObjective>) -> SimBuilder {
        self.slo = objectives;
        self
    }

    /// Record request-scoped traces: per-request stage latencies
    /// (issue/network/queue/service/reply/receive) and deterministic
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
                    ready: Vec::new(),
                    touched: Vec::new(),
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
                    slo: self
                        .window
                        .filter(|_| !self.slo.is_empty())
                        .map(|w| SloJudge::new(w, self.slo)),
                    req: self.reqtrace.then(ReqRecorder::new),
                    #[cfg(test)]
                    stale_wakes: 0,
                }),
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
        let first = {
            let mut st = self.shared.state.lock();
            // The run() thread drives the schedule until a thread proc takes
            // over (or the whole sim is agents and completes right here).
            loop {
                if st.shutdown {
                    break None;
                }
                match pick(&mut st) {
                    Some(next) if st.procs[next].is_agent() => {
                        self.shared.step_agent(&mut st, next);
                    }
                    Some(next) => break Some(self.shared.hand_to(&mut st, next)),
                    None => {
                        if st.live > 0 {
                            let desc = describe_blocked(&st);
                            st.error = Some(SimError::Deadlock(desc));
                        }
                        st.shutdown = true;
                        self.shared.wake_all(&st);
                        break None;
                    }
                }
            }
        };
        if let Some(first) = first {
            first.unpark();
        }
        // Whoever sets `shutdown` wakes every proc to unwind, so joining all
        // threads is how this one waits for the end of the run.
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
        // Daemon agents have no thread to unwind at shutdown; retire them
        // the way `on_proc_exit` does thread daemons.
        for i in 0..st.procs.len() {
            if st.procs[i].is_agent() && !matches!(st.procs[i].status, Status::Finished) {
                self.shared.retire(&mut st, i);
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
        let alerts = match st.slo.take() {
            Some(judge) => judge.finish(virtual_time, &st.metrics),
            None => Vec::new(),
        };
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
            alerts,
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
        // `park` may return spuriously, and a proc handed the turn before it
        // first parked keeps the token for its next park; allow one per proc.
        assert!(
            st.stale_wakes <= st.procs.len() as u64,
            "{} stale wake-ups across {} procs",
            st.stale_wakes,
            st.procs.len()
        );
    }
}
