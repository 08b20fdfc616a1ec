//! The SLO burn evaluator: [`evaluate_slo`] holds a run's windowed
//! telemetry ([`TimeSeries`](crate::TimeSeries)) to declared service-level
//! objectives with multi-window burn-rate alerting.
//!
//! It is a pure post-processing pass: it reads `SimReport::timeseries`,
//! never the live simulation, so it cannot perturb determinism. Evaluating
//! window-by-window in index order is equivalent to evaluating online (each
//! window is closed before the next opens), which is why alerts carry
//! *exact* virtual timestamps — the window-end boundary at which the burn
//! held.
//!
//! Which process or queue slows a run is not an alert's question: the
//! critical path ([`crate::causal`]) and the what-if battery
//! ([`crate::whatif::standard_battery`]) answer it exactly. Load skew across
//! servers is a whole-run property that the per-server `served` counters
//! measure exactly, and a loss plateau shows in the run's loss curve.

use crate::json::{JsonValue, JsonWriter, Style};
use crate::report::SimReport;
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

/// One declared service-level objective, evaluated over timeseries windows
/// by [`evaluate_slo`].
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
        let mut ring: std::collections::VecDeque<(u64, u64)> = std::collections::VecDeque::new();
        for w in &ts.windows {
            let (bad, total) = match &obj.kind {
                SloKind::Latency {
                    hist, target_ns, ..
                } => w
                    .hists
                    .get(hist)
                    .map(|h| (h.over_target(*target_ns), h.count))
                    .unwrap_or((0, 0)),
                SloKind::ErrorRate { errors, total, .. } => (w.counter(errors), w.counter(total)),
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
        let alerts = evaluate_slo(&report, &[p999_objective()]);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        let a = &alerts[0];
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
        let alerts = evaluate_slo(&report, &[p999_objective()]);
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
        let alerts = evaluate_slo(&report, &[obj]);
        assert!(!alerts.is_empty());
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
