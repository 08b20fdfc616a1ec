//! The flight recorder: a deterministic registry of counters and
//! virtual-time histograms, plus the [`RunReport`] aggregation that turns a
//! finished [`SimReport`] into a per-op breakdown table
//! and a machine-readable JSON document.
//!
//! ## Determinism constraints
//!
//! Everything here must leave a run bit-for-bit reproducible:
//!
//! * All values are derived from **virtual** time or integer counters —
//!   wall-clock never enters a metric.
//! * Histograms use *fixed* log-linear (HDR-style) buckets — every power of
//!   two of nanoseconds is split into `2^SUB_BITS` equal linear sub-buckets —
//!   so the layout does not depend on the data and the relative quantile
//!   error is bounded by `2^-SUB_BITS` (3.125%), tight enough for p999.
//! * The name index is a `BTreeMap`; storage is dense slots, one per
//!   interned name, that a recorder reaches through a [`Counter`] or
//!   [`Hist`] handle resolved once. The report's [`MetricsSnapshot`] walks
//!   the index, so iteration (and therefore rendering and JSON
//!   serialization) order is the key order, not first-use or hash order.
//! * Recording a metric is **not** a scheduler yield point: it advances no
//!   clock, consumes no sequence number, and wakes no process, so an
//!   instrumented run has exactly the timing of an uninstrumented one.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

use crate::json::{JsonValue, JsonWriter, Style};
use crate::report::SimReport;
use crate::time::SimTime;

/// Sub-bucket resolution: each power-of-two range of nanoseconds is split
/// into `2^SUB_BITS` equal linear sub-buckets, bounding the relative
/// quantile error at `2^-SUB_BITS` = 3.125%.
pub const SUB_BITS: u32 = 5;

/// Linear sub-buckets per power-of-two range.
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total bucket count of the log-linear layout: values below `2^SUB_BITS`
/// get one exact bucket each; every higher power-of-two range contributes
/// `2^SUB_BITS` sub-buckets, up to the top bit of a `u64`.
pub const HIST_BUCKETS: usize = (SUB_COUNT + (64 - SUB_BITS as u64) * SUB_COUNT) as usize;

/// A fixed log-linear (HDR-style) histogram over virtual-time durations
/// (nanoseconds).
///
/// Quantiles are estimated deterministically as the upper bound of the
/// bucket containing the target rank, clamped to the observed maximum.
/// Values below `2^SUB_BITS` are exact; larger values have a relative
/// error of at most `2^-SUB_BITS` (3.125%).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct VtHistogram {
    /// Bucket counts, lazily grown to the highest touched index + 1 so a
    /// histogram only pays for the value range it actually observed.
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    /// Meaningless (0) while empty; the first observation overwrites it.
    min_ns: u64,
    max_ns: u64,
}

/// Log-linear bucket index of a duration: exact below `2^SUB_BITS`, then
/// `(value >> (msb - SUB_BITS))` selects the linear sub-bucket inside the
/// value's power-of-two range.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns < SUB_COUNT {
        ns as usize
    } else {
        let msb = 63 - ns.leading_zeros();
        let decade = (msb - SUB_BITS) as u64;
        let sub = (ns >> decade) - SUB_COUNT;
        (SUB_COUNT + decade * SUB_COUNT + sub) as usize
    }
}

/// Largest duration that lands in bucket `k` — what quantile estimation
/// reports for ranks inside that bucket.
#[inline]
pub fn bucket_upper_bound(k: usize) -> u64 {
    let k = k as u64;
    if k < SUB_COUNT {
        k
    } else {
        let decade = (k - SUB_COUNT) / SUB_COUNT;
        let sub = (k - SUB_COUNT) % SUB_COUNT;
        let lower = (SUB_COUNT + sub) << decade;
        lower + ((1u64 << decade) - 1)
    }
}

impl VtHistogram {
    /// Record one duration.
    pub fn observe(&mut self, dt: SimTime) {
        let ns = dt.as_nanos();
        let k = bucket_of(ns);
        if self.buckets.len() <= k {
            self.buckets.resize(k + 1, 0);
        }
        self.buckets[k] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.min_ns = if self.count == 1 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total of all recorded durations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Observations strictly above `target_ns`'s bucket: a latency SLO's
    /// bad events. Samples inside the target's own bucket count as good
    /// (one-bucket blur, ≤ 3.1%).
    pub fn count_over(&self, target_ns: u64) -> u64 {
        self.buckets.iter().skip(bucket_of(target_ns) + 1).sum()
    }

    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Deterministic quantile estimate (`q` in `[0, 1]`): the upper bound of
    /// the bucket holding the `ceil(q * count)`-th observation, clamped to
    /// the observed minimum and maximum. Returns 0 on an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(k).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// The non-empty buckets as ascending `(index, count)` pairs: the
    /// mergeable wire form of the SLO sidecar.
    pub fn sparse_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(k, &c)| (k as u32, c))
            .collect()
    }

    /// Rebuild a histogram from its serialized parts (the inverse of
    /// [`VtHistogram::to_json`]). `count` is derived from the bucket counts;
    /// inputs with out-of-range bucket indices are rejected.
    pub fn from_parts(
        sum_ns: u64,
        min_ns: u64,
        max_ns: u64,
        sparse: &[(u32, u64)],
    ) -> Result<VtHistogram, String> {
        let mut h = VtHistogram {
            sum_ns,
            max_ns,
            ..VtHistogram::default()
        };
        for &(k, c) in sparse {
            if k as usize >= HIST_BUCKETS {
                return Err(format!("histogram bucket index {k} out of range"));
            }
            if h.buckets.len() <= k as usize {
                h.buckets.resize(k as usize + 1, 0);
            }
            h.buckets[k as usize] += c;
            h.count += c;
        }
        h.min_ns = if h.count == 0 { 0 } else { min_ns };
        Ok(h)
    }

    /// Serialize the full histogram — summary fields plus the sparse
    /// log-linear buckets — as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w, true);
        w.finish()
    }

    /// One `Inline` object: the summary fields, plus the sparse buckets when
    /// `buckets` (the run report's rows go without).
    pub(crate) fn write_json(&self, w: &mut JsonWriter, buckets: bool) {
        w.obj(Style::Inline);
        for (k, v) in [
            ("count", self.count()),
            ("sum_ns", self.sum_ns()),
            ("min_ns", self.min_ns()),
            ("max_ns", self.max_ns()),
            ("p50_ns", self.quantile_ns(0.50)),
            ("p99_ns", self.quantile_ns(0.99)),
            ("p999_ns", self.quantile_ns(0.999)),
        ] {
            w.key(k).raw(v);
        }
        if buckets {
            w.key("buckets");
            write_pairs(w, self.sparse_buckets());
        }
        w.end();
    }

    /// The inverse of [`VtHistogram::write_json`] with `buckets`, through
    /// [`VtHistogram::from_parts`]: the count and the quantile fields are
    /// derived, so they are recomputed rather than read.
    pub(crate) fn read_json(v: &JsonValue) -> Result<VtHistogram, String> {
        let pair = |p: &JsonValue| -> Option<(u32, u64)> {
            let [k, c] = p.as_arr()? else {
                return None;
            };
            Some((u32::try_from(k.as_u64()?).ok()?, c.as_u64()?))
        };
        let sparse = v
            .arr_field("buckets")?
            .iter()
            .map(|p| pair(p).ok_or("bucket is not an [index, count] pair"))
            .collect::<Result<Vec<_>, _>>()?;
        VtHistogram::from_parts(
            v.u64_field("sum_ns")?,
            v.u64_field("min_ns")?,
            v.u64_field("max_ns")?,
            &sparse,
        )
    }

    /// Fold another histogram into this one. Bucket counts add; `min`/`max`
    /// combine emptiness-aware, so merging preserves every quantile's
    /// bucket-level bounds (a merged quantile never leaves the interval
    /// spanned by the inputs' same-`q` quantiles).
    pub fn merge(&mut self, other: &VtHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        // min_ns is a sentinel-free field now: pick by emptiness, not by
        // raw comparison, so merging into an empty histogram stays correct.
        self.min_ns = match (self.count, other.count) {
            (0, _) => other.min_ns,
            (_, 0) => self.min_ns,
            _ => self.min_ns.min(other.min_ns),
        };
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A counter of the run's registry, resolved once by name
/// ([`SimCtx::counter`](crate::SimCtx::counter)) and recorded through by
/// index. Valid only in the run that resolved it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter(usize);

/// A histogram of the run's registry, resolved once by name
/// ([`SimCtx::hist`](crate::SimCtx::hist)) and recorded through by index.
/// Valid only in the run that resolved it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist(usize);

/// The in-run registry. Lives inside the runtime's shared state; processes
/// reach it through `SimCtx::{counter, hist, add, observe}` or, on cold
/// paths, `SimCtx::metric_*`, and [`crate::SimRuntime::run`] snapshots it
/// into the final report.
///
/// Resolving a name interns it in a per-kind `BTreeMap` index and gives it
/// a dense slot; recording indexes the slot. A name is reported only once
/// recorded: a counter slot is `None` until its first `add`, and a
/// histogram with a count of 0 was never observed.
#[derive(Default)]
pub(crate) struct Registry {
    counter_index: BTreeMap<String, usize>,
    counters: Vec<Option<u64>>,
    hist_index: BTreeMap<String, usize>,
    hists: Vec<VtHistogram>,
}

impl Registry {
    #[inline]
    pub(crate) fn counter(&mut self, name: &str) -> Counter {
        Counter(intern(&mut self.counter_index, &mut self.counters, name))
    }

    #[inline]
    pub(crate) fn hist(&mut self, name: &str) -> Hist {
        Hist(intern(&mut self.hist_index, &mut self.hists, name))
    }

    #[inline]
    pub(crate) fn add(&mut self, c: Counter, delta: u64) {
        let v = &mut self.counters[c.0];
        *v = Some(v.unwrap_or(0) + delta);
    }

    #[inline]
    pub(crate) fn observe(&mut self, h: Hist, dt: SimTime) {
        self.hists[h.0].observe(dt);
    }

    /// Counter value, 0 when never incremented.
    pub(crate) fn counter_value(&self, c: Counter) -> u64 {
        self.counters[c.0].unwrap_or(0)
    }

    pub(crate) fn hist_value(&self, h: Hist) -> &VtHistogram {
        &self.hists[h.0]
    }

    /// The report's read-only view: every recorded name, in name order.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counter_index
                .iter()
                .filter_map(|(k, &i)| Some((k.clone(), self.counters[i]?)))
                .collect(),
            hists: self
                .hist_index
                .iter()
                .filter(|&(_, &i)| self.hists[i].count() > 0)
                .map(|(k, &i)| (k.clone(), self.hists[i].clone()))
                .collect(),
        }
    }
}

/// `name`'s slot in `slots`, appending a default one on first use.
#[inline]
fn intern<T: Default>(
    index: &mut BTreeMap<String, usize>,
    slots: &mut Vec<T>,
    name: &str,
) -> usize {
    if let Some(&i) = index.get(name) {
        return i;
    }
    let i = slots.len();
    slots.push(T::default());
    index.insert(name.to_string(), i);
    i
}

/// A finished run's metrics, as [`crate::SimReport::metrics`] carries them:
/// every recorded counter and histogram by name, in name order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, VtHistogram>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&VtHistogram> {
        self.hists.get(name)
    }

    /// All counters, in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, in key order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &VtHistogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// One row of the per-op breakdown: all PS-client spans of one op kind.
#[derive(Clone, Debug)]
pub struct OpRow {
    /// Op kind (protocol tag name, e.g. `pull`, `push`, `zip`).
    pub op: String,
    /// Completed client-side spans.
    pub count: u64,
    /// Request + reply bytes attributed to the op.
    pub bytes: u64,
    /// Matrix rows touched by the op's requests.
    pub rows: u64,
    /// Sum of span durations (virtual nanoseconds).
    pub sum_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    /// This op's slice of the job's `virtual_time`, normalized so that the
    /// shares of all ops sum to `virtual_time` (within integer rounding):
    /// `share_ns = sum_ns / Σ sum_ns * virtual_time`.
    pub share_ns: u64,
}

/// Key prefix under which PS-client op spans are recorded.
const OP_SPAN_PREFIX: &str = "ps.client.op.";
const OP_SPAN_SUFFIX: &str = ".latency";

/// Key prefix under which the runtime counts dropped sends per protocol tag.
const DROP_TAG_PREFIX: &str = "net.dropped.tag.";

/// Aggregated, render-ready view of a finished run: where the virtual
/// seconds went, per op kind and compute-vs-communication.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub virtual_time: SimTime,
    /// Real time the simulation took to execute on the host. The one
    /// wall-clock value in the report — everything else is virtual.
    pub wall: std::time::Duration,
    pub total_msgs: u64,
    pub total_bytes: u64,
    pub dropped_msgs: u64,
    /// Σ `ProcStats.busy` — virtual time spent in charged computation.
    pub compute_ns: u64,
    /// Σ per-transfer wire time — virtual time spent serializing bytes onto
    /// the network (the `net.wire_ns` counter).
    pub comm_ns: u64,
    /// Per-op rows, sorted by descending `sum_ns` (ties by op name).
    pub ops: Vec<OpRow>,
    /// The full metric snapshot the rows were derived from.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Aggregate a finished simulation into the breakdown report.
    pub fn from_sim(report: &SimReport) -> RunReport {
        let m = &report.metrics;
        let compute_ns: u64 = report.procs.iter().map(|p| p.busy.as_nanos()).sum();
        let comm_ns = m.counter("net.wire_ns");

        let mut ops: Vec<OpRow> = Vec::new();
        for (key, hist) in m.hists() {
            let Some(op) = key
                .strip_prefix(OP_SPAN_PREFIX)
                .and_then(|k| k.strip_suffix(OP_SPAN_SUFFIX))
            else {
                continue;
            };
            ops.push(OpRow {
                op: op.to_string(),
                count: hist.count(),
                bytes: m.counter(&format!("{OP_SPAN_PREFIX}{op}.bytes")),
                rows: m.counter(&format!("{OP_SPAN_PREFIX}{op}.rows")),
                sum_ns: hist.sum_ns(),
                p50_ns: hist.quantile_ns(0.50),
                p99_ns: hist.quantile_ns(0.99),
                p999_ns: hist.quantile_ns(0.999),
                share_ns: 0,
            });
        }
        // Normalize shares so they account for the whole job: the op spans
        // overlap (many clients in flight at once), so raw sums are not
        // additive wall-shares; scaled to virtual_time they are.
        let total_span: u128 = ops.iter().map(|o| o.sum_ns as u128).sum();
        let vt = report.virtual_time.as_nanos() as u128;
        for o in &mut ops {
            o.share_ns = (o.sum_ns as u128 * vt).checked_div(total_span).unwrap_or(0) as u64;
        }
        ops.sort_by(|a, b| b.sum_ns.cmp(&a.sum_ns).then_with(|| a.op.cmp(&b.op)));

        RunReport {
            virtual_time: report.virtual_time,
            wall: report.wall_time,
            total_msgs: report.total_msgs,
            total_bytes: report.total_bytes,
            dropped_msgs: report.dropped_msgs,
            compute_ns,
            comm_ns,
            ops,
            metrics: m.clone(),
        }
    }

    /// Fraction of `compute + comm` spent computing (0 when neither moved).
    pub fn compute_share(&self) -> f64 {
        let total = self.compute_ns + self.comm_ns;
        if total == 0 {
            0.0
        } else {
            self.compute_ns as f64 / total as f64
        }
    }

    /// The human-readable breakdown table (a Spark-UI-style stage summary).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "run breakdown — virtual time {}   {} msgs   {:.1} MB   {} dropped",
            self.virtual_time,
            self.total_msgs,
            self.total_bytes as f64 / 1e6,
            self.dropped_msgs,
        );
        let _ = writeln!(
            s,
            "compute {:.3}s ({:.1}%)   wire {:.3}s ({:.1}%)",
            self.compute_ns as f64 / 1e9,
            100.0 * self.compute_share(),
            self.comm_ns as f64 / 1e9,
            100.0 * (1.0 - self.compute_share()),
        );
        // Dropped sends per protocol tag, from the `net.dropped.tag.<tag>`
        // counters in tag order; they sum to `dropped_msgs`.
        let mut drops = self
            .metrics
            .counters()
            .filter_map(|(k, n)| Some((k.strip_prefix(DROP_TAG_PREFIX)?, n)))
            .peekable();
        if drops.peek().is_some() {
            let _ = write!(s, "dropped by tag:");
            for (tag, n) in drops {
                let _ = write!(s, "  {tag}={n}");
            }
            let _ = writeln!(s);
        }
        if self.ops.is_empty() {
            let _ = writeln!(s, "(no PS op spans recorded)");
            return s;
        }
        let _ = writeln!(
            s,
            "{:<12} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}",
            "op", "count", "bytes", "rows", "p50", "p99", "p999", "total", "share"
        );
        let vt = self.virtual_time.as_nanos().max(1) as f64;
        for o in &self.ops {
            let _ = writeln!(
                s,
                "{:<12} {:>8} {:>12} {:>10} {:>9.3}m {:>9.3}m {:>9.3}m {:>9.3}s {:>6.1}%",
                o.op,
                o.count,
                o.bytes,
                o.rows,
                o.p50_ns as f64 / 1e6,
                o.p99_ns as f64 / 1e6,
                o.p999_ns as f64 / 1e6,
                o.sum_ns as f64 / 1e9,
                100.0 * o.share_ns as f64 / vt,
            );
        }
        s
    }

    /// Serialize to JSON. Integer-only fields and `BTreeMap` ordering make
    /// the output byte-identical across same-seed runs — except `wall_ms`,
    /// the one deliberate wall-clock field (host speed, machine-readable for
    /// the hostprof tooling). Byte-level comparisons must strip `wall_ms` first.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(Style::Block);
        w.key("virtual_time_ns").raw(self.virtual_time.as_nanos());
        let wall_ms = self.wall.as_secs_f64() * 1e3;
        w.key("wall_ms").raw(format_args!("{wall_ms:.3}"));
        w.key("total_msgs").raw(self.total_msgs);
        w.key("total_bytes").raw(self.total_bytes);
        w.key("dropped_msgs").raw(self.dropped_msgs);
        w.key("compute_ns").raw(self.compute_ns);
        w.key("comm_ns").raw(self.comm_ns);
        w.key("ops").arr(Style::Block);
        for o in &self.ops {
            w.obj(Style::Inline).key("op").str(&o.op);
            for (k, v) in [
                ("count", o.count),
                ("bytes", o.bytes),
                ("rows", o.rows),
                ("sum_ns", o.sum_ns),
                ("p50_ns", o.p50_ns),
                ("p99_ns", o.p99_ns),
                ("p999_ns", o.p999_ns),
                ("share_ns", o.share_ns),
            ] {
                w.key(k).raw(v);
            }
            w.end();
        }
        w.end();
        w.key("counters")
            .counts(Style::Block, self.metrics.counters());
        w.key("hists").obj(Style::Block);
        for (k, h) in self.metrics.hists() {
            w.key(k);
            h.write_json(&mut w, false);
        }
        w.end().end();
        w.finish_line()
    }
}

/// `[[a, b], ...]` on one line: sparse histogram buckets, per-proc samples.
pub(crate) fn write_pairs<A: Display, B: Display>(
    w: &mut JsonWriter,
    pairs: impl IntoIterator<Item = (A, B)>,
) {
    w.arr(Style::Inline);
    for (a, b) in pairs {
        w.arr(Style::Inline).raw(a).raw(b).end();
    }
    w.end();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_linear() {
        // Values below 2^SUB_BITS are exact.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(31), 31);
        // First log decade: [32, 64) in 32 one-wide sub-buckets.
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(63), 63);
        // [64, 128) in 32 two-wide sub-buckets.
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_of(65), 64);
        assert_eq!(bucket_of(66), 65);
        assert_eq!(bucket_of(127), 95);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Upper bounds invert bucket_of: every value sits at or below its
        // bucket's upper bound, and within the relative-error envelope.
        for ns in [0u64, 1, 31, 32, 63, 64, 1000, 1023, 1024, 1 << 40, u64::MAX] {
            let k = bucket_of(ns);
            let upper = bucket_upper_bound(k);
            assert!(upper >= ns, "upper {upper} < value {ns}");
            assert_eq!(bucket_of(upper), k, "upper bound must stay in bucket");
            // Relative error bound: upper < ns * (1 + 2^-SUB_BITS).
            assert!(upper - ns <= ns / (1 << SUB_BITS) + 1, "value {ns}");
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let mut h = VtHistogram::default();
        for ns in [10u64, 20, 30, 1000] {
            h.observe(SimTime(ns));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 1060);
        assert_eq!(h.min_ns(), 10);
        assert_eq!(h.max_ns(), 1000);
        // Small values are exact under the log-linear layout.
        assert_eq!(h.quantile_ns(0.5), 20);
        // p99 → 4th observation (1000) → bucket [992,1024) clamped to max.
        assert_eq!(h.quantile_ns(0.99), 1000);
        // Empty histogram.
        assert_eq!(VtHistogram::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn p999_tracks_the_tail_within_a_few_percent() {
        // 999 fast requests and one 100 ms straggler: p999 must see the
        // straggler, and the log-linear estimate stays within 3.125%.
        let mut h = VtHistogram::default();
        for _ in 0..999 {
            h.observe(SimTime(1_000_000)); // 1 ms
        }
        h.observe(SimTime(100_000_000)); // 100 ms
        let p999 = h.quantile_ns(0.999);
        assert!(p999 >= 1_000_000, "p999 {p999} below the bulk");
        let p9995 = h.quantile_ns(0.9995);
        assert!(
            (100_000_000..=103_125_001).contains(&p9995),
            "tail estimate {p9995} outside the error envelope"
        );
    }

    #[test]
    fn histogram_json_round_trips_through_from_parts() {
        let mut h = VtHistogram::default();
        for ns in [0u64, 5, 33, 1000, 123_456_789] {
            h.observe(SimTime(ns));
        }
        let rebuilt =
            VtHistogram::from_parts(h.sum_ns(), h.min_ns(), h.max_ns(), &h.sparse_buckets())
                .unwrap();
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.to_json(), h.to_json());
        // Out-of-range bucket indices are rejected.
        assert!(VtHistogram::from_parts(0, 0, 0, &[(HIST_BUCKETS as u32, 1)]).is_err());
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero_at_every_q() {
        let h = VtHistogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 0);
        }
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample_at_every_q() {
        let mut h = VtHistogram::default();
        h.observe(SimTime(700));
        // One observation: every quantile's target rank is 1, and the
        // bucket upper bound (1023) clamps to the observed max.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 700);
        }
    }

    #[test]
    fn quantiles_collapse_when_all_samples_share_a_bucket() {
        // 513..=520 all land in bucket [512, 1024): every quantile reports
        // the same upper bound, clamped to the max sample.
        let mut h = VtHistogram::default();
        for ns in 513u64..=520 {
            h.observe(SimTime(ns));
        }
        for q in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(h.quantile_ns(q), 520);
        }
        assert_eq!(h.min_ns(), 513);
    }

    #[test]
    fn registry_counters_and_hists() {
        let mut r = Registry::default();
        let y = r.counter("a.y");
        let x = r.counter("a.x");
        assert_eq!(r.counter("a.x"), x, "a name resolves to one handle");
        r.add(x, 2);
        r.add(x, 3);
        r.add(y, 1);
        let h = r.hist("h");
        r.observe(h, SimTime(100));
        r.hist("never");
        r.counter("unrecorded");
        let m = r.snapshot();
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.hist("h").unwrap().count(), 1);
        // Key order is sorted, not first-use order, and a name resolved
        // but never recorded is not reported.
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a.x", "a.y"]);
        assert!(m.hist("never").is_none());
    }
}
