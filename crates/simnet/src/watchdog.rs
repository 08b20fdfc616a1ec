//! The SLO burn judge: holds a run to declared service-level objectives
//! with multi-window burn-rate alerting, as each telemetry window closes.
//!
//! Objectives and the window width are given at build time
//! ([`SimBuilder::slo`](crate::SimBuilder::slo) and
//! [`SimBuilder::timeseries`](crate::SimBuilder::timeseries)). The runtime
//! judges inside its own lock and never yields, so a judged run is
//! byte-identical to an unjudged one. Each objective keeps only its trailing
//! [`SLO_SLOW_WINDOWS`] windows, so a run of any length is judged whole in
//! O(objectives × 12) memory. Alerts carry *exact* virtual timestamps (the
//! window-end boundary at which the burn held) and land on
//! [`SimReport::alerts`](crate::SimReport::alerts).
//!
//! Which process or queue slows a run is not an alert's question: the
//! critical path ([`crate::causal`]) and the what-if battery
//! ([`crate::whatif::standard_battery`]) answer it exactly. Load skew across
//! servers is a whole-run property that the per-server `served` counters
//! measure exactly, and a loss plateau shows in the run's loss curve.

use std::collections::VecDeque;

use crate::json::{JsonValue, JsonWriter, Style};
use crate::metrics::{Counter, Hist, Registry};
use crate::time::SimTime;

/// What an SLO objective measures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// Per-window latency objective over a registry histogram: a request
    /// slower than `target_ns` is a bad event; `budget_milli`/1000 is the
    /// tolerated bad-event fraction (1 = p99.9, 10 = p99).
    Latency {
        /// Histogram metric name, e.g. `ps.client.op.pull_rows.latency`.
        hist: String,
        target_ns: u64,
        budget_milli: u64,
    },
    /// Error-rate objective over two counters: `errors`-per-`total` must
    /// stay under `budget_milli`/1000.
    ErrorRate {
        errors: String,
        total: String,
        budget_milli: u64,
    },
}

/// One declared service-level objective, judged as each telemetry window
/// closes (see [`SimBuilder::slo`](crate::SimBuilder::slo)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloObjective {
    /// Human-readable name, e.g. `pull_rows.p999`. Becomes the alert
    /// subject.
    pub name: String,
    pub kind: SloKind,
}

impl SloObjective {
    /// p999 latency objective: fewer than 0.1% of `hist`'s requests per
    /// window span may exceed `target`.
    pub fn latency_p999(name: &str, hist: &str, target: SimTime) -> SloObjective {
        SloObjective {
            name: name.to_string(),
            kind: SloKind::Latency {
                hist: hist.to_string(),
                target_ns: target.as_nanos(),
                budget_milli: 1,
            },
        }
    }

    /// Error-rate objective: `errors`/`total` must stay under
    /// `budget_milli`/1000.
    pub fn error_rate(name: &str, errors: &str, total: &str, budget_milli: u64) -> SloObjective {
        SloObjective {
            name: name.to_string(),
            kind: SloKind::ErrorRate {
                errors: errors.to_string(),
                total: total.to_string(),
                budget_milli,
            },
        }
    }

    /// One `Inline` object, fixed key order, integers and strings only.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.obj(Style::Inline).key("name").str(&self.name);
        let budget_milli = match &self.kind {
            SloKind::Latency {
                hist,
                target_ns,
                budget_milli,
            } => {
                w.key("kind").str("latency").key("hist").str(hist);
                w.key("target_ns").raw(target_ns);
                budget_milli
            }
            SloKind::ErrorRate {
                errors,
                total,
                budget_milli,
            } => {
                w.key("kind").str("error_rate");
                w.key("errors").str(errors).key("total").str(total);
                budget_milli
            }
        };
        w.key("budget_milli").raw(budget_milli).end();
    }

    /// The inverse of [`SloObjective::write_json`].
    pub(crate) fn read_json(v: &JsonValue) -> Result<SloObjective, String> {
        let budget_milli = v.u64_field("budget_milli")?;
        let kind = match v.str_field("kind")? {
            "latency" => SloKind::Latency {
                hist: v.str_field("hist")?.to_string(),
                target_ns: v.u64_field("target_ns")?,
                budget_milli,
            },
            "error_rate" => SloKind::ErrorRate {
                errors: v.str_field("errors")?.to_string(),
                total: v.str_field("total")?.to_string(),
                budget_milli,
            },
            other => return Err(format!("unknown objective kind {other:?}")),
        };
        Ok(SloObjective {
            name: v.str_field("name")?.to_string(),
            kind,
        })
    }
}

/// One SLO burn, pinned to a window boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alert {
    /// Virtual time of the alert: the end of the window it fired in.
    pub at: SimTime,
    /// Index of the window it fired in.
    pub window: u64,
    /// The burning objective's name.
    pub subject: String,
    /// The fast span's burn rate ×1000. Integer so alert lists serialize
    /// byte-identically.
    pub value_milli: i64,
}

impl Alert {
    /// The alert's name in the alert JSON and the Perfetto export.
    pub const LABEL: &'static str = "watchdog.slo_burn";
}

// Burn-rate thresholds, all integers.

/// Trailing windows of the fast SLO burn span (catches the spike).
const SLO_FAST_WINDOWS: usize = 3;
/// Trailing windows of the slow SLO burn span (confirms it is sustained).
pub const SLO_SLOW_WINDOWS: usize = 12;
/// Burn-rate threshold ×1000: both spans' bad-event rate must exceed
/// `SLO_BURN_MILLI/1000 ×` the objective's budget. 10000 = burning the
/// budget 10× too fast.
const SLO_BURN_MILLI: u64 = 10_000;

/// The online burn judge, in the runtime's shared state when the builder was
/// given both a window width and objectives. The runtime calls
/// [`SloJudge::due`] (one comparison) before every registry or clock
/// mutation and [`SloJudge::roll`] only when a window boundary has been
/// crossed. Between two mutations the registry is constant, so the registry
/// at a boundary is exactly the one the prior mutation left.
///
/// Per window and objective the bad-event fraction is computed over the
/// trailing 3-window fast span and [`SLO_SLOW_WINDOWS`] slow span. An alert
/// fires at the window's end only when **both** spans burn the objective's
/// error budget at least 10× too fast. After firing, the spans reset, so one
/// sustained violation raises one alert per episode, not one per window.
/// `value_milli` is the fast span's burn rate ×1000. A run that closes fewer
/// than [`SLO_SLOW_WINDOWS`] windows is judged once, at its last window, over
/// all of them.
#[derive(Debug)]
pub(crate) struct SloJudge {
    window_ns: u64,
    /// Windows closed so far (== index of the open one).
    closed: u64,
    /// End of the open window: `(closed + 1) * window_ns`.
    next_boundary: u64,
    burns: Vec<Burn>,
    alerts: Vec<Alert>,
}

/// One objective's judging state.
#[derive(Debug)]
struct Burn {
    objective: SloObjective,
    /// The registry slots the objective reads, resolved when the judge is
    /// built.
    source: Source,
    /// Cumulative `(bad, total)` as of the last closed window.
    last: (u64, u64),
    /// Trailing per-window `(bad, total)` pairs, newest last.
    span: VecDeque<(u64, u64)>,
}

/// An objective's metric names, as registry handles.
#[derive(Debug)]
enum Source {
    Latency { hist: Hist, target_ns: u64 },
    ErrorRate { errors: Counter, total: Counter },
}

impl Burn {
    fn new(objective: SloObjective, metrics: &mut Registry) -> Burn {
        let source = match &objective.kind {
            SloKind::Latency {
                hist, target_ns, ..
            } => Source::Latency {
                hist: metrics.hist(hist),
                target_ns: *target_ns,
            },
            SloKind::ErrorRate { errors, total, .. } => Source::ErrorRate {
                errors: metrics.counter(errors),
                total: metrics.counter(total),
            },
        };
        Burn {
            objective,
            source,
            last: (0, 0),
            span: VecDeque::with_capacity(SLO_SLOW_WINDOWS),
        }
    }

    /// `(bad, total)` of the window closing now: the registry's cumulative
    /// counts less those at the previous close.
    fn delta(&mut self, metrics: &Registry) -> (u64, u64) {
        let now = match self.source {
            Source::Latency { hist, target_ns } => {
                let h = metrics.hist_value(hist);
                (h.count_over(target_ns), h.count())
            }
            Source::ErrorRate { errors, total } => {
                (metrics.counter_value(errors), metrics.counter_value(total))
            }
        };
        let (bad, total) = std::mem::replace(&mut self.last, now);
        (now.0 - bad, now.1 - total)
    }

    fn push(&mut self, window: (u64, u64)) {
        if self.span.len() == SLO_SLOW_WINDOWS {
            self.span.pop_front();
        }
        self.span.push_back(window);
    }

    /// The fast span's burn rate ×1000 when both it and the trailing `slow`
    /// windows burn at the threshold; firing resets the spans. Fewer than
    /// `slow` windows since the start or the last alert is not enough
    /// evidence: a sustained violation must refill the slow span before it
    /// can page again.
    fn judge(&mut self, slow: usize) -> Option<u64> {
        if self.span.len() < slow {
            return None;
        }
        let budget_milli = match &self.objective.kind {
            SloKind::Latency { budget_milli, .. } | SloKind::ErrorRate { budget_milli, .. } => {
                (*budget_milli).max(1)
            }
        };
        let span_burn = |span: usize| -> Option<u64> {
            let (b, t) = self
                .span
                .iter()
                .rev()
                .take(span)
                .fold((0u64, 0u64), |(b, t), &(wb, wt)| (b + wb, t + wt));
            // burn ×1000 = (bad/total) / (budget_milli/1000) × 1000
            (t > 0).then(|| b.saturating_mul(1_000_000) / (t * budget_milli))
        };
        let fast = span_burn(SLO_FAST_WINDOWS)?;
        let burning = fast >= SLO_BURN_MILLI && span_burn(slow)? >= SLO_BURN_MILLI;
        burning.then(|| {
            self.span.clear();
            fast
        })
    }
}

impl SloJudge {
    /// A judge of `objectives` over `window`-wide windows, reading the
    /// objectives' metrics from `metrics`.
    pub(crate) fn new(
        window: SimTime,
        objectives: Vec<SloObjective>,
        metrics: &mut Registry,
    ) -> SloJudge {
        let window_ns = window.as_nanos().max(1);
        SloJudge {
            window_ns,
            closed: 0,
            next_boundary: window_ns,
            burns: objectives
                .into_iter()
                .map(|objective| Burn::new(objective, metrics))
                .collect(),
            alerts: Vec::new(),
        }
    }

    /// Has virtual time `t` crossed the open window's end?
    #[inline]
    pub(crate) fn due(&self, t: SimTime) -> bool {
        t.as_nanos() >= self.next_boundary
    }

    /// Close every window that ends at or before `t`. The registry has not
    /// changed since the previous roll, so the first window closed carries
    /// its counts and any further catch-up windows are empty.
    pub(crate) fn roll(&mut self, t: SimTime, metrics: &Registry) {
        let mut metrics = Some(metrics);
        while self.next_boundary <= t.as_nanos() {
            self.close(self.next_boundary, metrics.take(), SLO_SLOW_WINDOWS);
        }
    }

    /// Close the open window at `end_ns` with its counts read from
    /// `metrics` (a catch-up window, `None`, is empty) and judge it over
    /// `slow` trailing windows.
    fn close(&mut self, end_ns: u64, metrics: Option<&Registry>, slow: usize) {
        for b in &mut self.burns {
            let window = metrics.map_or((0, 0), |m| b.delta(m));
            b.push(window);
        }
        self.judge(self.closed, end_ns, slow);
        self.closed += 1;
        self.next_boundary = (self.closed + 1) * self.window_ns;
    }

    fn judge(&mut self, window: u64, end_ns: u64, slow: usize) {
        for b in &mut self.burns {
            if let Some(burn) = b.judge(slow) {
                self.alerts.push(Alert {
                    at: SimTime(end_ns),
                    window,
                    subject: b.objective.name.clone(),
                    value_milli: burn.min(i64::MAX as u64) as i64,
                });
            }
        }
    }

    /// Run end at `t`: close the complete windows, then the trailing partial
    /// window `[closed * window_ns, t]` if anything happened after the last
    /// boundary (or none was crossed). A run of fewer than
    /// [`SLO_SLOW_WINDOWS`] windows is judged at its last one over all of
    /// them. Alerts come out in `(at, subject)` order, a timeline.
    pub(crate) fn finish(mut self, t: SimTime, metrics: &Registry) -> Vec<Alert> {
        self.roll(t, metrics);
        let start = self.closed * self.window_ns;
        if t.as_nanos() > start || self.closed == 0 {
            let slow = SLO_SLOW_WINDOWS.min(self.closed as usize + 1);
            self.close(t.as_nanos().max(start), Some(metrics), slow);
        } else if self.closed < SLO_SLOW_WINDOWS as u64 {
            // The run ended on a boundary: `roll` closed its last window
            // against the full slow span, which it could not fill.
            self.judge(self.closed - 1, start, self.closed as usize);
        }
        self.alerts
            .sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.subject.cmp(&b.subject)));
        self.alerts
    }
}

/// An alert list, one `Inline` object per line (integers and fixed key order
/// only).
pub(crate) fn write_alerts(w: &mut JsonWriter, alerts: &[Alert]) {
    w.arr(Style::Block);
    for a in alerts {
        w.obj(Style::Inline).key("kind").str(Alert::LABEL);
        w.key("at_ns").raw(a.at.as_nanos());
        w.key("window").raw(a.window);
        w.key("subject").str(&a.subject);
        w.key("value_milli").raw(a.value_milli).end();
    }
    w.end();
}

/// The inverse of [`write_alerts`].
pub(crate) fn read_alerts(alerts: &[JsonValue]) -> Result<Vec<Alert>, String> {
    alerts
        .iter()
        .map(|a| {
            let label = a.str_field("kind")?;
            if label != Alert::LABEL {
                return Err(format!("unknown alert kind {label:?}"));
            }
            Ok(Alert {
                at: SimTime(a.u64_field("at_ns")?),
                window: a.u64_field("window")?,
                subject: a.str_field("subject")?.to_string(),
                value_milli: a.i64_field("value_milli")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Judge `objectives` over 1 ms windows until the run ends at `end`.
    /// Window `i` records `windows[i] = (bad, total)` as `bad` slow (1 ms)
    /// and `total - bad` fast (100 ns) `pull.latency` samples, and as `bad`
    /// `timeouts` of `total` `reqs`. An empty window records nothing, so
    /// the judge closes it as a catch-up window.
    fn judge(objectives: Vec<SloObjective>, windows: &[(u64, u64)], end: SimTime) -> Vec<Alert> {
        let mut m = Registry::default();
        let mut judge = SloJudge::new(SimTime::from_millis(1), objectives, &mut m);
        let (latency, timeouts, reqs) = (
            m.hist("pull.latency"),
            m.counter("timeouts"),
            m.counter("reqs"),
        );
        for (i, &(bad, total)) in windows.iter().enumerate() {
            if total == 0 {
                continue;
            }
            judge.roll(SimTime::from_millis(i as u64), &m);
            for k in 0..total {
                let ns = if k < bad { 1_000_000 } else { 100 };
                m.observe(latency, SimTime(ns));
            }
            m.add(timeouts, bad);
            m.add(reqs, total);
        }
        judge.finish(end, &m)
    }

    /// Each alert's `(window, at, subject)`.
    fn fired(alerts: &[Alert]) -> Vec<(u64, SimTime, &str)> {
        alerts
            .iter()
            .map(|a| (a.window, a.at, a.subject.as_str()))
            .collect()
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn p999_objective() -> SloObjective {
        SloObjective::latency_p999("pull.p999", "pull.latency", SimTime(1_000))
    }

    fn errors_objective() -> SloObjective {
        SloObjective::error_rate("pull.errors", "timeouts", "reqs", 10)
    }

    #[test]
    fn slo_burn_needs_both_fast_and_slow_spans() {
        // Eleven clean windows, one brief spike, then a sustained burn.
        let mut windows = vec![(0, 100); 11];
        windows.push((1, 100)); // spike: fast span stays under
        windows.extend([(10, 100); 3]);
        let alerts = judge(vec![p999_objective()], &windows, ms(15));
        // Window 13 is where the slow span finally confirms the burn the
        // fast span saw at 12, and the timestamp is its end. The fast span
        // (windows 11–13) holds 21 bad of 300: 70× the 0.1% budget.
        let want = Alert {
            at: ms(14),
            window: 13,
            subject: "pull.p999".to_string(),
            value_milli: 70_000,
        };
        assert_eq!(alerts, [want]);
    }

    #[test]
    fn slo_quiet_when_tail_is_within_budget() {
        // 0.05% of requests are slow: half the p999 budget.
        let alerts = judge(vec![p999_objective()], &[(1, 2000); 20], ms(20));
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn a_short_run_is_judged_once_at_its_end() {
        // 20% timeouts against a 1% budget for 4 windows: the slow span
        // shrinks to the whole run, which is judged as its last window
        // closes, whether the run ends on a boundary or inside a window.
        let at_end = judge(vec![errors_objective()], &[(20, 100); 4], ms(4));
        assert_eq!(fired(&at_end), [(3, ms(4), "pull.errors")]);
        let end = SimTime::from_micros(3_500);
        let partial = judge(vec![errors_objective()], &[(20, 100); 4], end);
        assert_eq!(fired(&partial), [(3, end, "pull.errors")]);
    }

    #[test]
    fn idle_windows_count_toward_the_slow_span() {
        // Windows 9 and 10 record nothing and close as catch-ups while
        // window 11 opens; they still fill the slow span, so the burn is
        // confirmed at window 11.
        let mut windows = vec![(5, 5); 9];
        windows.extend([(0, 0), (0, 0), (5, 5)]);
        let alerts = judge(vec![p999_objective()], &windows, ms(12));
        assert_eq!(fired(&alerts), [(11, ms(12), "pull.p999")]);
    }

    #[test]
    fn a_burn_refills_the_slow_span_before_it_pages_again() {
        let alerts = judge(vec![p999_objective()], &[(10, 100); 30], ms(30));
        let windows: Vec<u64> = alerts.iter().map(|a| a.window).collect();
        assert_eq!(windows, [11, 23]);
    }

    #[test]
    fn burns_in_one_window_come_out_in_subject_order() {
        // Declared latency first, errors second; both burn at window 11.
        // 10% bad is 100× the p999 budget and 10× the 1% error budget.
        let objectives = vec![
            SloObjective::latency_p999("b.pull.p999", "pull.latency", SimTime(1_000)),
            SloObjective::error_rate("a.errors", "timeouts", "reqs", 10),
        ];
        let alerts = judge(objectives, &[(10, 100); 12], ms(12));
        let want = [(11, ms(12), "a.errors"), (11, ms(12), "b.pull.p999")];
        assert_eq!(fired(&alerts), want);
    }

    #[test]
    fn slo_objective_json_has_fixed_keys() {
        let json = |o: SloObjective| {
            let mut w = JsonWriter::new();
            o.write_json(&mut w);
            w.finish()
        };
        let j = json(p999_objective());
        assert!(j.contains("\"kind\": \"latency\""));
        assert!(j.contains("\"target_ns\": 1000"));
        assert!(j.contains("\"budget_milli\": 1"));
        let j = json(SloObjective::error_rate("e", "a", "b", 5));
        assert!(j.contains("\"kind\": \"error_rate\""));
    }

    #[test]
    fn alerts_render_as_integer_json() {
        let alerts = vec![Alert {
            at: SimTime(5_000_000),
            window: 4,
            subject: "pull.p999".to_string(),
            value_milli: 25_000,
        }];
        let json = |alerts: &[Alert]| {
            let mut w = JsonWriter::new();
            write_alerts(&mut w, alerts);
            w.finish()
        };
        let j = json(&alerts);
        assert!(j.contains("\"kind\": \"watchdog.slo_burn\""));
        assert!(j.contains("\"at_ns\": 5000000"));
        assert!(!j.contains("\"proc\""), "{j}");
        assert_eq!(json(&[]), "[]");
    }
}
