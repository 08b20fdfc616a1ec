//! Declarative per-window detectors over a run's
//! [`TimeSeries`](crate::TimeSeries): parameter-access skew across the PS
//! servers, convergence stalls, and SLO error-budget burn.
//!
//! The watchdog is a pure post-processing pass: it reads the windowed
//! telemetry (`SimReport::timeseries`) and the final registry, never the live
//! simulation, so it cannot perturb determinism. Evaluating window-by-window
//! in index order is equivalent to evaluating online (each window is closed
//! before the next opens), which is why alerts carry *exact* virtual
//! timestamps — the window-end boundary at which the condition held.
//!
//! Which process or queue slows a run is not a detector's question: the
//! critical path ([`crate::causal`]) and the what-if battery
//! ([`crate::whatif::standard_battery`]) answer it exactly.

use crate::json::{JsonValue, JsonWriter, Style};
use crate::report::SimReport;
use crate::time::SimTime;
use crate::timeseries::TsWindow;

/// What a detector saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// Gini coefficient over per-PS-server request load exceeds threshold
    /// (non-uniform parameter access defeating the partitioning).
    ServerSkew,
    /// Training iterations ran but the loss moved less than epsilon for K
    /// consecutive active windows.
    ConvergenceStall,
    /// An SLO's error budget is burning too fast: the bad-event rate
    /// exceeded `burn × budget` over both the fast and the slow trailing
    /// window spans (multi-window burn-rate alerting — a short spike alone
    /// does not page, nor does a slow leak that the fast window has already
    /// recovered from).
    SloBurn,
}

impl AlertKind {
    /// The alert's name in console output, the alert JSON and the Perfetto
    /// export.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::ServerSkew => "watchdog.server_skew",
            AlertKind::ConvergenceStall => "watchdog.stall",
            AlertKind::SloBurn => "watchdog.slo_burn",
        }
    }
}

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

/// One declared service-level objective, evaluated over timeseries windows
/// by [`Watchdog::evaluate_slo`].
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

/// One fired detector, pinned to a window boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alert {
    pub kind: AlertKind,
    /// Virtual time of the alert: the end of the window it fired in.
    pub at: SimTime,
    /// Index of the window it fired in.
    pub window: u64,
    /// What the alert is about: `ps.server`, a loss gauge, an SLO name.
    pub subject: String,
    /// Integerized measure — Gini and burn rate ×1000 (milli), loss delta
    /// in micros. Integer so alert lists serialize byte-identically.
    pub value_milli: i64,
}

// Detector thresholds, all integers.

/// Gini threshold ×1000 for server skew.
const SKEW_GINI_MILLI: u64 = 600;
/// Minimum total served requests in the window for server skew.
const SKEW_MIN_TOTAL: u64 = 64;
/// Consecutive flat active windows before a stall fires.
const STALL_WINDOWS: usize = 3;
/// Loss-delta epsilon in micros, applied independently to each loss gauge
/// (`ml.loss_micro` and the per-mode `ml.loss_micro.<mode>`).
const STALL_EPS_MICRO: i64 = 100;
/// Trailing windows of the fast SLO burn span (catches the spike).
const SLO_FAST_WINDOWS: usize = 3;
/// Trailing windows of the slow SLO burn span (confirms it is sustained).
pub const SLO_SLOW_WINDOWS: usize = 12;
/// Burn-rate threshold ×1000: both spans' bad-event rate must exceed
/// `SLO_BURN_MILLI/1000 ×` the objective's budget. 10000 = burning the
/// budget 10× too fast.
const SLO_BURN_MILLI: u64 = 10_000;

/// The detectors, evaluated over a finished run.
pub struct Watchdog;

impl Watchdog {
    /// Run the server-skew and stall detectors over `report.timeseries`, in
    /// window order (empty when the run was not scraped). Within a window,
    /// skew runs before stall, so the alert list is deterministic.
    pub fn evaluate(report: &SimReport) -> Vec<Alert> {
        let Some(ts) = &report.timeseries else {
            return Vec::new();
        };
        // Enumerate the per-server load counters from the *final* registry:
        // zero-delta counters are omitted from windows, and a Gini over only
        // the servers that moved would understate the skew.
        let served_keys: Vec<String> = report
            .metrics
            .counters()
            .filter(|(k, _)| k.starts_with("ps.server.p") && k.ends_with(".served"))
            .map(|(k, _)| k.to_string())
            .collect();

        let mut alerts = Vec::new();
        let mut stall_state: std::collections::BTreeMap<String, (usize, Option<i64>)> =
            std::collections::BTreeMap::new();

        for w in &ts.windows {
            server_skew(w, &served_keys, &mut alerts);
            stall(w, &mut stall_state, &mut alerts);
        }
        alerts
    }

    /// Evaluate declared SLO objectives over `report.timeseries` with
    /// multi-window burn-rate alerting. Per window and objective the
    /// bad-event fraction is computed over the trailing 3-window fast span
    /// and [`SLO_SLOW_WINDOWS`] slow span; an alert fires — at the exact
    /// window-end virtual timestamp — only when **both** spans burn the
    /// objective's error budget at least 10× too fast. After firing, the
    /// spans reset so one sustained violation raises one alert per episode,
    /// not one per window. `value_milli` is the fast span's burn rate ×1000.
    pub fn evaluate_slo(report: &SimReport, objectives: &[SloObjective]) -> Vec<Alert> {
        let Some(ts) = &report.timeseries else {
            return Vec::new();
        };
        let mut alerts = Vec::new();
        // Short runs shrink the slow span to the whole run instead of
        // never accumulating enough evidence to alert at all.
        let slow_span = SLO_SLOW_WINDOWS.min(ts.windows.len().max(1));
        for obj in objectives {
            let budget_milli = match &obj.kind {
                SloKind::Latency { budget_milli, .. } => (*budget_milli).max(1),
                SloKind::ErrorRate { budget_milli, .. } => (*budget_milli).max(1),
            };
            // Trailing (bad, total) pairs, newest last, slow-span length.
            let mut ring: std::collections::VecDeque<(u64, u64)> =
                std::collections::VecDeque::new();
            for w in &ts.windows {
                let (bad, total) = match &obj.kind {
                    SloKind::Latency {
                        hist, target_ns, ..
                    } => w
                        .hists
                        .get(hist)
                        .map(|h| (h.over_target(*target_ns), h.count))
                        .unwrap_or((0, 0)),
                    SloKind::ErrorRate { errors, total, .. } => {
                        (w.counter(errors), w.counter(total))
                    }
                };
                ring.push_back((bad, total));
                if ring.len() > slow_span {
                    ring.pop_front();
                }
                if ring.len() < slow_span {
                    // Not enough trailing evidence yet — either the run just
                    // started or an alert fired and reset the spans. This is
                    // the episode-suppression mechanism: a sustained
                    // violation must refill the slow span before it can
                    // page again.
                    continue;
                }
                let span_burn = |span: usize| -> Option<u64> {
                    let (b, t) = ring
                        .iter()
                        .rev()
                        .take(span)
                        .fold((0u64, 0u64), |(b, t), &(wb, wt)| (b + wb, t + wt));
                    // burn ×1000 = (bad/total) / (budget_milli/1000) × 1000
                    (t > 0).then(|| b.saturating_mul(1_000_000) / (t * budget_milli))
                };
                let fast = span_burn(SLO_FAST_WINDOWS);
                let slow = span_burn(slow_span);
                if let (Some(f), Some(s)) = (fast, slow) {
                    if f >= SLO_BURN_MILLI && s >= SLO_BURN_MILLI {
                        alerts.push(Alert {
                            kind: AlertKind::SloBurn,
                            at: SimTime(w.end_ns),
                            window: w.index,
                            subject: obj.name.clone(),
                            value_milli: f.min(i64::MAX as u64) as i64,
                        });
                        ring.clear();
                    }
                }
            }
        }
        // Objectives are evaluated one at a time; restore global window
        // order (ties by subject) so the list is deterministic and reads
        // like a timeline.
        alerts.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.subject.cmp(&b.subject)));
        alerts
    }
}

fn server_skew(w: &TsWindow, served_keys: &[String], alerts: &mut Vec<Alert>) {
    if served_keys.len() < 2 {
        return;
    }
    let loads: Vec<u64> = served_keys.iter().map(|k| w.counter(k)).collect();
    let total: u64 = loads.iter().sum();
    if total < SKEW_MIN_TOTAL {
        return;
    }
    // Gini = Σᵢ Σⱼ |xᵢ − xⱼ| / (2 n Σ x); 0 = uniform, →1 = one server
    // takes everything.
    let n = loads.len() as u64;
    let mut abs_diff_sum: u64 = 0;
    for (i, &a) in loads.iter().enumerate() {
        for &b in &loads[i + 1..] {
            abs_diff_sum += a.abs_diff(b);
        }
    }
    let gini_milli = (2 * abs_diff_sum * 1000) / (2 * n * total);
    if gini_milli >= SKEW_GINI_MILLI {
        alerts.push(Alert {
            kind: AlertKind::ServerSkew,
            at: SimTime(w.end_ns),
            window: w.index,
            subject: "ps.server".to_string(),
            value_milli: gini_milli as i64,
        });
    }
}

fn stall(
    w: &TsWindow,
    state: &mut std::collections::BTreeMap<String, (usize, Option<i64>)>,
    alerts: &mut Vec<Alert>,
) {
    // Only windows in which training actually iterated count; idle or
    // setup windows neither advance nor reset the streaks.
    if w.counter("ml.iterations") == 0 {
        return;
    }
    // One independent (streak, previous-loss) track per loss gauge: the
    // classic dataflow path publishes `ml.loss_micro`, the consistency
    // modes publish `ml.loss_micro.<mode>` (e.g. `ml.loss_micro.ssp2`),
    // and concurrent runs of different modes must not mask each other's
    // stalls. BTreeMap order keeps the alert list deterministic.
    for (key, &loss) in w
        .gauges
        .iter()
        .filter(|(k, _)| k.as_str() == "ml.loss_micro" || k.starts_with("ml.loss_micro."))
    {
        let (streak, prev_loss) = state.entry(key.clone()).or_insert((0, None));
        if let Some(pl) = *prev_loss {
            let delta = (loss - pl).abs();
            if delta <= STALL_EPS_MICRO {
                *streak += 1;
                if *streak >= STALL_WINDOWS {
                    *streak = 0;
                    alerts.push(Alert {
                        kind: AlertKind::ConvergenceStall,
                        at: SimTime(w.end_ns),
                        window: w.index,
                        subject: key.clone(),
                        value_milli: delta,
                    });
                }
            } else {
                *streak = 0;
            }
        }
        *prev_loss = Some(loss);
    }
}

/// An alert list, one `Inline` object per line (integers and fixed key order
/// only).
pub(crate) fn write_alerts<'a>(w: &mut JsonWriter, alerts: impl IntoIterator<Item = &'a Alert>) {
    w.arr(Style::Block);
    for a in alerts {
        w.obj(Style::Inline).key("kind").str(a.kind.label());
        w.key("at_ns").raw(a.at.as_nanos());
        w.key("window").raw(a.window);
        w.key("subject").str(&a.subject);
        w.key("value_milli").raw(a.value_milli).end();
    }
    w.end();
}

/// The inverse of [`write_alerts`].
pub(crate) fn read_alerts(alerts: &[JsonValue]) -> Result<Vec<Alert>, String> {
    let kinds = [
        AlertKind::ServerSkew,
        AlertKind::ConvergenceStall,
        AlertKind::SloBurn,
    ];
    alerts
        .iter()
        .map(|a| {
            let label = a.str_field("kind")?;
            Ok(Alert {
                kind: *kinds
                    .iter()
                    .find(|k| k.label() == label)
                    .ok_or_else(|| format!("unknown alert kind {label:?}"))?,
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
    use crate::timeseries::{HistDelta, TimeSeries, TsWindow};
    use std::collections::BTreeMap;

    fn window(index: u64, end_ns: u64) -> TsWindow {
        TsWindow {
            index,
            end_ns,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn report_with(windows: Vec<TsWindow>) -> SimReport {
        SimReport {
            virtual_time: SimTime(windows.last().map(|w| w.end_ns).unwrap_or(0)),
            wall_time: std::time::Duration::ZERO,
            total_msgs: 0,
            total_bytes: 0,
            dropped_msgs: 0,
            procs: Vec::new(),
            trace: Vec::new(),
            metrics: crate::metrics::MetricsSnapshot::default(),
            labels: Vec::new(),
            net: crate::config::NetConfig::default(),
            timeseries: Some(TimeSeries {
                window_ns: 1_000_000,
                windows,
                dropped_windows: 0,
            }),
            reqs: None,
            host: None,
        }
    }

    #[test]
    fn server_skew_uses_final_registry_for_the_server_set() {
        let mut w = window(0, 1_000_000);
        // Only one server moved this window; the other two are silent and
        // therefore absent from the window's delta map.
        w.counters.insert("ps.server.p0.served".to_string(), 120);
        let mut report = report_with(vec![w]);
        report.metrics.add("ps.server.p0.served", 120);
        report.metrics.add("ps.server.p1.served", 1);
        report.metrics.add("ps.server.p2.served", 1);
        let alerts = Watchdog::evaluate(&report);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::ServerSkew);
        assert!(alerts[0].value_milli >= 600, "{}", alerts[0].value_milli);
    }

    #[test]
    fn stall_needs_flat_loss_across_active_windows() {
        let mut windows = Vec::new();
        for (i, loss) in [500_000i64, 499_990, 499_985, 499_980, 400_000]
            .iter()
            .enumerate()
        {
            let mut w = window(i as u64, (i as u64 + 1) * 1_000_000);
            w.counters.insert("ml.iterations".to_string(), 2);
            w.gauges.insert("ml.loss_micro".to_string(), *loss);
            windows.push(w);
        }
        let report = report_with(windows);
        let alerts = Watchdog::evaluate(&report);
        // Deltas 10, 5, 5 are all ≤ eps 100 → streak hits 3 at window 3;
        // window 4's big drop resets.
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::ConvergenceStall);
        assert_eq!(alerts[0].window, 3);
    }

    #[test]
    fn stall_tracks_per_mode_loss_gauges_independently() {
        let mut windows = Vec::new();
        for (i, (ssp, bsp)) in [
            (500_000i64, 900_000i64),
            (499_990, 800_000),
            (499_985, 700_000),
            (499_980, 600_000),
        ]
        .iter()
        .enumerate()
        {
            let mut w = window(i as u64, (i as u64 + 1) * 1_000_000);
            w.counters.insert("ml.iterations".to_string(), 4);
            // The SSP run is flat, the concurrently-scraped BSP run is
            // converging fast: only the SSP gauge may stall.
            w.gauges.insert("ml.loss_micro.ssp2".to_string(), *ssp);
            w.gauges.insert("ml.loss_micro.bsp".to_string(), *bsp);
            windows.push(w);
        }
        let report = report_with(windows);
        let alerts = Watchdog::evaluate(&report);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::ConvergenceStall);
        assert_eq!(alerts[0].subject, "ml.loss_micro.ssp2");
        assert_eq!(alerts[0].window, 3);
    }

    /// A window of the `pull.latency` histogram with `good` fast samples
    /// (~100 ns) and `bad` slow ones (~1 ms) against a 1 µs target.
    fn slo_window(index: u64, bad: u64, good: u64) -> TsWindow {
        let mut w = window(index, (index + 1) * 1_000_000);
        let mut buckets = Vec::new();
        if good > 0 {
            buckets.push((crate::metrics::bucket_of(100) as u32, good));
        }
        if bad > 0 {
            buckets.push((crate::metrics::bucket_of(1_000_000) as u32, bad));
        }
        w.hists.insert(
            "pull.latency".to_string(),
            HistDelta {
                count: bad + good,
                sum_ns: 0,
                buckets,
            },
        );
        w
    }

    fn p999_objective() -> SloObjective {
        SloObjective::latency_p999("pull.p999", "pull.latency", SimTime(1_000))
    }

    #[test]
    fn slo_burn_needs_both_fast_and_slow_spans() {
        // Eleven clean windows, one brief spike, then a sustained burn.
        let mut windows: Vec<TsWindow> = (0..11).map(|i| slo_window(i, 0, 100)).collect();
        windows.push(slo_window(11, 1, 99)); // spike: fast span stays under
        windows.push(slo_window(12, 10, 90));
        windows.push(slo_window(13, 10, 90));
        windows.push(slo_window(14, 10, 90));
        let report = report_with(windows);
        let alerts = Watchdog::evaluate_slo(&report, &[p999_objective()]);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        let a = &alerts[0];
        assert_eq!(a.kind, AlertKind::SloBurn);
        assert_eq!(a.subject, "pull.p999");
        // Window 13 is where the slow span finally confirms the burn the
        // fast span saw at 12 — and the timestamp is window-aligned.
        assert_eq!(a.window, 13);
        assert_eq!(a.at, SimTime(14 * 1_000_000));
        assert_eq!(a.at.as_nanos() % 1_000_000, 0);
        assert!(a.value_milli >= 10_000, "{}", a.value_milli);
    }

    #[test]
    fn slo_quiet_when_tail_is_within_budget() {
        // 0.05% of requests are slow — half the p999 budget.
        let windows: Vec<TsWindow> = (0..20).map(|i| slo_window(i, 1, 1999)).collect();
        let report = report_with(windows);
        let alerts = Watchdog::evaluate_slo(&report, &[p999_objective()]);
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn slo_error_rate_objective_counts_counters() {
        let obj = SloObjective::error_rate("pull.errors", "timeouts", "reqs", 10);
        let mut windows = Vec::new();
        for i in 0..4u64 {
            let mut w = window(i, (i + 1) * 1_000_000);
            w.counters.insert("reqs".to_string(), 100);
            // 20% timeout rate vs a 1% budget: burn 20×.
            w.counters.insert("timeouts".to_string(), 20);
            windows.push(w);
        }
        let report = report_with(windows);
        let alerts = Watchdog::evaluate_slo(&report, &[obj]);
        assert!(!alerts.is_empty());
        assert_eq!(alerts[0].kind, AlertKind::SloBurn);
        assert_eq!(alerts[0].subject, "pull.errors");
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
            kind: AlertKind::ServerSkew,
            at: SimTime(5_000_000),
            window: 4,
            subject: "ps.server".to_string(),
            value_milli: 900,
        }];
        let json = |alerts: &[Alert]| {
            let mut w = JsonWriter::new();
            write_alerts(&mut w, alerts);
            w.finish()
        };
        let j = json(&alerts);
        assert!(j.contains("\"kind\": \"watchdog.server_skew\""));
        assert!(j.contains("\"at_ns\": 5000000"));
        assert!(!j.contains("\"proc\""), "{j}");
        assert_eq!(json(&[]), "[]");
    }
}
