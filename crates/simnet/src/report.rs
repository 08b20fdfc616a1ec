//! Post-run statistics and the optional event trace.

use std::time::Duration;

use crate::config::NetConfig;
use crate::metrics::MetricsSnapshot;
use crate::runtime::ProcId;
use crate::time::SimTime;

/// Index into [`SimReport::labels`], identifying an interned trace label.
///
/// Labels are interned in first-use order while the simulation runs, so the
/// mapping is deterministic across same-seed runs. Resolve with
/// [`SimReport::label_name`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LabelId(pub u32);

/// One recorded simulation event (when tracing is enabled via
/// [`crate::SimBuilder::trace`]).
///
/// `seq` is a run-unique message sequence number: every send consumes one,
/// and the matching `Recv` (or `Drop`) carries the same value, giving the
/// trace explicit causal message edges instead of FIFO-inferred pairing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// `src` sent `bytes` with `tag`, arriving at `dst` at `arrival`.
    Send {
        at: SimTime,
        src: ProcId,
        dst: ProcId,
        tag: u32,
        bytes: u64,
        arrival: SimTime,
        seq: u64,
    },
    /// `proc` consumed a message sent by `src` with `tag`.
    Recv {
        at: SimTime,
        proc: ProcId,
        src: ProcId,
        tag: u32,
        seq: u64,
    },
    /// `proc` charged `dt` of compute, optionally under an op label set via
    /// `SimCtx::op_label` (e.g. the PS request kind being served).
    Compute {
        at: SimTime,
        proc: ProcId,
        dt: SimTime,
        label: Option<LabelId>,
    },
    /// `proc` finished (or was interrupted).
    Finish { at: SimTime, proc: ProcId },
    /// `src`'s message was dropped because `dst` was dead.
    Drop {
        at: SimTime,
        src: ProcId,
        dst: ProcId,
        tag: u32,
        bytes: u64,
        seq: u64,
    },
    /// A labeled timeline annotation emitted by `proc` (e.g. scheduler
    /// stage/task events), with an optional machine-readable payload
    /// (task id, partition, slot — whatever the label's convention is).
    Mark {
        at: SimTime,
        proc: ProcId,
        label: LabelId,
        payload: Option<u64>,
    },
}

impl TraceEvent {
    /// Virtual time of the event.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Recv { at, .. }
            | TraceEvent::Compute { at, .. }
            | TraceEvent::Finish { at, .. }
            | TraceEvent::Drop { at, .. }
            | TraceEvent::Mark { at, .. } => *at,
        }
    }
}

/// Per-process counters, collected into the final [`SimReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcStats {
    pub name: String,
    pub daemon: bool,
    /// Virtual clock when the process finished (or was interrupted).
    pub finished_at: SimTime,
    /// Total compute time charged via `charge_*`/`advance`.
    pub busy: SimTime,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_recv: u64,
    pub bytes_recv: u64,
    /// Messages this process sent that were dropped because the destination
    /// was dead (attributed to the sender — the destination can no longer
    /// account for anything).
    pub msgs_dropped: u64,
}

impl ProcStats {
    pub(crate) fn new(name: String, daemon: bool) -> ProcStats {
        ProcStats {
            name,
            daemon,
            finished_at: SimTime::ZERO,
            busy: SimTime::ZERO,
            msgs_sent: 0,
            bytes_sent: 0,
            msgs_recv: 0,
            bytes_recv: 0,
            msgs_dropped: 0,
        }
    }
}

/// Result of a completed simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Latest virtual clock among non-daemon processes — "how long the job
    /// took on the simulated cluster".
    pub virtual_time: SimTime,
    /// Real time the simulation took to execute.
    pub wall_time: Duration,
    pub total_msgs: u64,
    pub total_bytes: u64,
    /// Messages dropped because the destination was dead.
    pub dropped_msgs: u64,
    pub procs: Vec<ProcStats>,
    /// Recorded events, in virtual-time order (empty unless tracing was
    /// enabled on the builder).
    pub trace: Vec<TraceEvent>,
    /// Final snapshot of the run's metrics registry (counters and
    /// virtual-time histograms recorded via `SimCtx::metric_*`).
    pub metrics: MetricsSnapshot,
    /// Interned trace labels, indexed by [`LabelId`]. Populated in first-use
    /// order while tracing; empty when tracing was off.
    pub labels: Vec<&'static str>,
    /// The network model the run used — needed by `simnet::causal` to split
    /// observed message waits into ideal transit vs. queueing.
    pub net: NetConfig,
    /// SLO burn alerts in `(at, subject)` order, judged as each window
    /// closed (empty unless objectives were given via
    /// [`crate::SimBuilder::slo`]).
    pub alerts: Vec<crate::watchdog::Alert>,
    /// Request-scoped trace summary: per-op request-latency histograms and
    /// slowest-request stage-breakdown exemplars (None unless enabled via
    /// [`crate::SimBuilder::reqtrace`]).
    pub reqs: Option<crate::reqtrace::ReqSummary>,
    /// Host-side self-profile: real wall-clock and allocation cost of the
    /// simulator itself, attributed to subsystem scopes (None unless
    /// [`crate::hostprof::set_enabled`] was on). Host data only — nothing in
    /// here affects, or is derived from, the virtual clock.
    pub host: Option<crate::hostprof::HostProfile>,
}

impl SimReport {
    /// Look up a process's stats by name.
    ///
    /// Debug-asserts the name is unique — with respawned/duplicate names use
    /// [`SimReport::procs_named`] instead, so one process can't silently
    /// shadow another's stats.
    pub fn proc(&self, name: &str) -> Option<&ProcStats> {
        debug_assert!(
            self.procs.iter().filter(|p| p.name == name).count() <= 1,
            "SimReport::proc(\"{name}\"): name is not unique; use procs_named"
        );
        self.procs.iter().find(|p| p.name == name)
    }

    /// All processes with this name, in spawn order.
    pub fn procs_named(&self, name: &str) -> Vec<&ProcStats> {
        self.procs.iter().filter(|p| p.name == name).collect()
    }

    /// Resolve an interned trace label.
    pub fn label_name(&self, id: LabelId) -> &'static str {
        self.labels
            .get(id.0 as usize)
            .copied()
            .unwrap_or("<unknown-label>")
    }

    /// Look up a label id by name, if the run ever emitted it.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.labels
            .iter()
            .position(|l| *l == name)
            .map(|i| LabelId(i as u32))
    }
}
