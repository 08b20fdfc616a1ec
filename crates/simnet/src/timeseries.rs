//! Windowed telemetry: a virtual-time scraper over the metrics registry.
//!
//! The flight recorder ([`crate::metrics`]) answers *how much* — whole-run
//! totals. This module answers *when*: the runtime snapshots the registry
//! every `window` of virtual time into per-metric series, so a phase-local
//! pathology (an SLO burn during recovery) stops being averaged away.
//!
//! ## Determinism constraints (same invariant as the flight recorder)
//!
//! Scraping is **not** a scheduler yield point and spawns no process: it is
//! driven lazily from inside the runtime's existing lock, immediately before
//! each registry/clock mutation. Between two mutations the registry is
//! constant, so "the registry state at window boundary `B`" is exactly "the
//! registry state at the last mutation before `B`" — no sampling process is
//! needed, and a scraped run is **byte-identical** (same `SimReport`
//! statistics, same trace, same metrics) to an unscraped same-seed run.
//! `crates/simnet/tests/sim_timeseries.rs` asserts this.
//!
//! ## What a window records
//!
//! * **Counters** become per-window deltas (a rate once divided by the
//!   window length).
//! * **Gauges** are sampled: the value as of the window's end.
//! * **Histograms** become per-window `(count, sum_ns)` deltas.
//!
//! Windows live in a ring buffer of [`CAPACITY`] windows; when a run
//! outlives it, the oldest windows are dropped (and counted), never resized — memory
//! stays bounded and layout never depends on the data.

use std::collections::{BTreeMap, VecDeque};

use crate::json::{JsonWriter, Style};
use crate::metrics::{write_pairs, MetricsSnapshot};
use crate::time::SimTime;

/// Ring capacity in windows: enough for the benches' runs at millisecond
/// windows without unbounded growth on pathological configs.
pub const CAPACITY: usize = 4096;

/// Per-window delta of one histogram.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistDelta {
    /// Observations recorded within the window.
    pub count: u64,
    /// Sum of the durations recorded within the window, in nanoseconds.
    pub sum_ns: u64,
    /// Sparse log-linear bucket deltas `(bucket index, count)` in index
    /// order — the window's own sample distribution, so the SLO burn
    /// evaluator can count each window's bad events.
    pub buckets: Vec<(u32, u64)>,
}

impl HistDelta {
    /// Samples in this window strictly above `target_ns`'s bucket — the
    /// "bad event" count of a latency SLO. Boundary samples inside the
    /// target's own bucket count as good (one-bucket blur, ≤ 3.1%).
    pub fn over_target(&self, target_ns: u64) -> u64 {
        let cut = crate::metrics::bucket_of(target_ns) as u32;
        self.buckets
            .iter()
            .filter(|&&(k, _)| k > cut)
            .map(|&(_, c)| c)
            .sum()
    }
}

/// Delta between two sparse bucket lists (both in index order; `cur` has
/// grown monotonically from `prev`).
fn sparse_delta(cur: &[(u32, u64)], prev: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    let mut pi = 0usize;
    for &(k, c) in cur {
        while pi < prev.len() && prev[pi].0 < k {
            pi += 1;
        }
        let p = if pi < prev.len() && prev[pi].0 == k {
            prev[pi].1
        } else {
            0
        };
        if c > p {
            out.push((k, c - p));
        }
    }
    out
}

/// One completed scrape window.
#[derive(Clone, Debug, PartialEq)]
pub struct TsWindow {
    /// Window index: the window covers virtual time
    /// `[index * window_ns, end_ns)`.
    pub index: u64,
    /// End of the window. `(index + 1) * window_ns` for complete windows;
    /// earlier for the final partial window flushed at run end.
    pub end_ns: u64,
    /// Counter deltas within the window (zero deltas omitted).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values as of the window's end (every gauge ever set).
    pub gauges: BTreeMap<String, i64>,
    /// Histogram deltas within the window (empty deltas omitted).
    pub hists: BTreeMap<String, HistDelta>,
}

impl TsWindow {
    /// Counter delta, zero when the counter did not move in this window.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value at the window's end, if set by then.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }
}

/// The scraped series of a finished run, carried on
/// [`SimReport::timeseries`](crate::SimReport::timeseries).
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    /// Scrape interval in virtual nanoseconds.
    pub window_ns: u64,
    /// Windows in index order. The first retained window's index is
    /// `dropped_windows` when the ring overflowed.
    pub windows: Vec<TsWindow>,
    /// Oldest windows evicted by the ring buffer.
    pub dropped_windows: u64,
}

impl TimeSeries {
    /// Serialize to JSON: integers and `BTreeMap` order only, one window per
    /// line, byte-identical across same-seed runs.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(Style::Block);
        w.key("window_ns").raw(self.window_ns);
        w.key("dropped_windows").raw(self.dropped_windows);
        w.key("windows").arr(Style::Block);
        for win in &self.windows {
            w.obj(Style::Inline);
            w.key("index").raw(win.index).key("end_ns").raw(win.end_ns);
            w.key("counters").counts(Style::Inline, &win.counters);
            w.key("gauges").counts(Style::Inline, &win.gauges);
            w.key("hists").obj(Style::Inline);
            for (k, h) in &win.hists {
                w.key(k).obj(Style::Inline);
                w.key("count").raw(h.count).key("sum_ns").raw(h.sum_ns);
                w.key("buckets");
                write_pairs(&mut w, h.buckets.iter().copied());
                w.end();
            }
            w.end().end();
        }
        w.end().end();
        w.finish_line()
    }
}

/// The in-run recorder. Lives inside the runtime's shared state; the
/// runtime calls [`TsRecorder::due`] (one comparison) before every registry
/// or clock mutation and [`TsRecorder::roll`] only when a window boundary
/// has been crossed.
#[derive(Debug)]
pub(crate) struct TsRecorder {
    window_ns: u64,
    /// Nanosecond timestamp of the next boundary to emit
    /// (`(completed + 1) * window_ns`).
    next_boundary: u64,
    /// Complete windows emitted so far (== index of the next one).
    completed: u64,
    /// Registry state as of the last emitted boundary.
    last: MetricsSnapshot,
    windows: VecDeque<TsWindow>,
    dropped: u64,
}

impl TsRecorder {
    pub(crate) fn new(window: SimTime) -> TsRecorder {
        let window_ns = window.as_nanos().max(1);
        TsRecorder {
            window_ns,
            next_boundary: window_ns,
            completed: 0,
            last: MetricsSnapshot::default(),
            windows: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Has virtual time `t` crossed the next window boundary?
    #[inline]
    pub(crate) fn due(&self, t: SimTime) -> bool {
        t.as_nanos() >= self.next_boundary
    }

    fn push(&mut self, w: TsWindow) {
        if self.windows.len() == CAPACITY {
            self.windows.pop_front();
            self.dropped += 1;
        }
        self.windows.push_back(w);
    }

    /// Build the delta window `[self.next_boundary - window_ns,
    /// self.next_boundary)` against `self.last`, then advance the baseline.
    fn emit(&mut self, end_ns: u64, metrics: &MetricsSnapshot) {
        let mut counters = BTreeMap::new();
        for (k, v) in metrics.counters() {
            let delta = v - self.last.counter(k);
            if delta > 0 {
                counters.insert(k.to_string(), delta);
            }
        }
        let gauges: BTreeMap<String, i64> =
            metrics.gauges().map(|(k, v)| (k.to_string(), v)).collect();
        let mut hists = BTreeMap::new();
        for (k, h) in metrics.hists() {
            let prev = self.last.hist(k);
            let (lc, ls) = prev.map(|p| (p.count(), p.sum_ns())).unwrap_or((0, 0));
            let count = h.count() - lc;
            if count > 0 {
                let prev_buckets = prev.map(|p| p.sparse_buckets()).unwrap_or_default();
                hists.insert(
                    k.to_string(),
                    HistDelta {
                        count,
                        sum_ns: h.sum_ns() - ls,
                        buckets: sparse_delta(&h.sparse_buckets(), &prev_buckets),
                    },
                );
            }
        }
        self.push(TsWindow {
            index: self.completed,
            end_ns,
            counters,
            gauges,
            hists,
        });
        self.last = metrics.clone();
    }

    /// Emit every complete window up to virtual time `t`. The registry has
    /// not changed since the previous `roll`, so the first catch-up window
    /// carries the deltas and any further ones are empty repeats of the
    /// same state.
    pub(crate) fn roll(&mut self, t: SimTime, metrics: &MetricsSnapshot) {
        let mut first = true;
        while self.next_boundary <= t.as_nanos() {
            if first {
                self.emit(self.next_boundary, metrics);
                first = false;
            } else {
                // Nothing moved between consecutive boundaries: an empty
                // delta window with the same sampled gauges.
                let gauges: BTreeMap<String, i64> =
                    metrics.gauges().map(|(k, v)| (k.to_string(), v)).collect();
                let w = TsWindow {
                    index: self.completed,
                    end_ns: self.next_boundary,
                    counters: BTreeMap::new(),
                    gauges,
                    hists: BTreeMap::new(),
                };
                self.push(w);
            }
            self.completed += 1;
            self.next_boundary = (self.completed + 1) * self.window_ns;
        }
    }

    /// Run-end flush: emit the complete windows below `t`, then the final
    /// partial window `[completed * window_ns, t]`, and hand the series out.
    pub(crate) fn finish(mut self, t: SimTime, metrics: &MetricsSnapshot) -> TimeSeries {
        self.roll(t, metrics);
        // The trailing partial window, if anything happened after the last
        // boundary (or nothing ever crossed one).
        let start = self.completed * self.window_ns;
        if t.as_nanos() > start || self.completed == 0 {
            self.emit(t.as_nanos().max(start), metrics);
        }
        TimeSeries {
            window_ns: self.window_ns,
            windows: self.windows.into_iter().collect(),
            dropped_windows: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        for &(k, v) in pairs {
            m.add(k, v);
        }
        m
    }

    #[test]
    fn counters_become_windowed_deltas() {
        let mut r = TsRecorder::new(SimTime::from_millis(1));
        let m1 = snap(&[("a", 3)]);
        assert!(!r.due(SimTime::from_micros(900)));
        assert!(r.due(SimTime::from_millis(1)));
        r.roll(SimTime::from_millis(1), &m1);
        let m2 = snap(&[("a", 8)]);
        let ts = r.finish(SimTime::from_micros(2_500), &m2);
        assert_eq!(ts.windows.len(), 3); // two complete + the partial tail
        assert_eq!(ts.windows[0].counter("a"), 3);
        // Window 1 closes at 2 ms with the registry already at a=8.
        assert_eq!(ts.windows[1].counter("a"), 5);
        assert_eq!(ts.windows[2].index, 2);
        assert_eq!(ts.windows[2].end_ns, 2_500_000);
        assert_eq!(ts.windows[2].counter("a"), 0);
    }

    #[test]
    fn idle_gaps_emit_empty_windows_and_ring_caps_them() {
        let mut r = TsRecorder::new(SimTime::from_millis(1));
        let mut m = snap(&[("a", 1)]);
        m.gauge_set("g", 7);
        // Jump six windows past the capacity at once: the ring keeps the
        // newest `CAPACITY`.
        let end = SimTime::from_millis(CAPACITY as u64 + 6);
        r.roll(end, &m);
        let ts = r.finish(end, &m);
        assert_eq!(ts.windows.len(), CAPACITY);
        assert_eq!(ts.dropped_windows, 6);
        assert_eq!(ts.windows.first().unwrap().index, 6);
        // Only the first emitted window carried the delta; it was dropped,
        // and the retained repeats are empty but keep the gauge sample.
        assert_eq!(ts.windows[0].counter("a"), 0);
        assert_eq!(ts.windows[0].gauge("g"), Some(7));
    }

    #[test]
    fn gauges_sample_and_hists_delta() {
        let mut r = TsRecorder::new(SimTime::from_millis(1));
        let mut m = MetricsSnapshot::default();
        m.gauge_set("g", 5);
        m.observe("h", SimTime(100));
        m.observe("h", SimTime(200));
        r.roll(SimTime::from_millis(1), &m);
        m.gauge_set("g", -2);
        m.observe("h", SimTime(50));
        let ts = r.finish(SimTime::from_micros(1_500), &m);
        assert_eq!(ts.windows[0].gauge("g"), Some(5));
        assert_eq!(
            ts.windows[0].hists["h"],
            HistDelta {
                count: 2,
                sum_ns: 300,
                buckets: vec![
                    (crate::metrics::bucket_of(100) as u32, 1),
                    (crate::metrics::bucket_of(200) as u32, 1),
                ],
            }
        );
        assert_eq!(ts.windows[1].gauge("g"), Some(-2));
        assert_eq!(
            ts.windows[1].hists["h"],
            HistDelta {
                count: 1,
                sum_ns: 50,
                buckets: vec![(crate::metrics::bucket_of(50) as u32, 1)],
            }
        );
        // Each window's delta buckets see only its own samples.
        assert_eq!(ts.windows[1].hists["h"].over_target(40), 1);
        assert_eq!(ts.windows[0].hists["h"].over_target(150), 1);
        assert_eq!(ts.windows[0].hists["h"].over_target(500), 0);
    }

    #[test]
    fn json_is_stable_and_integer_only() {
        let mut r = TsRecorder::new(SimTime::from_millis(1));
        let m = snap(&[("a.b", 2)]);
        r.roll(SimTime::from_millis(1), &m);
        let ts = r.finish(SimTime::from_millis(1), &m);
        let j = ts.to_json();
        assert!(j.contains("\"window_ns\": 1000000"));
        assert!(j.contains("\"a.b\": 2"));
        assert!(!j.contains("\"procs\""), "{j}");
        assert!(!j.contains('.') || j.contains("\"a.b\""), "{j}");
    }
}
