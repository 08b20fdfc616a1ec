//! What `ps2-run` and `ps2-trace` share beyond the simulator itself: the
//! per-preset service-level objectives, and the host-cost sidecar
//! (`ps2-hostprof-v1`) with its soft wall-clock gate.
//!
//! * [`preset_slos`] — the objectives `ps2-run --slo-json` holds a run to.
//! * [`HostReport`] — what `ps2-run --host-prof-json` writes and `ps2-trace
//!   host` reads: wall seconds plus the per-scope cost table of running the
//!   simulator itself. Wall time is host noise, so these files are never
//!   byte-compared; [`compare_host`] (`ps2-trace host diff`) flags only a
//!   median wall regression beyond a generous tolerance.
//!
//! Cross-commit exactness of *virtual-time* results is not this module's job:
//! `tests/golden_runs.rs` pins it, and `benchmark/` measures performance.

use std::fmt::Write as _;

use crate::simnet::hostprof::HostProfile;
use crate::simnet::SloObjective;
use crate::tracefile::{parse_json, render_json_string, JsonValue};
use crate::SimTime;

/// The service-level objectives a preset's PS traffic is held to, evaluated
/// by [`Watchdog::evaluate_slo`](crate::simnet::Watchdog::evaluate_slo) over
/// the run's telemetry windows.
///
/// Latency targets are calibrated from healthy seed-42 runs of each preset
/// at gate scale (4 workers / 4 servers): the target sits ~2× above the
/// observed p999, so a healthy run never burns budget while a straggling
/// server or a saturated NIC trips the multi-window burn alert. Unknown
/// presets (including ad-hoc `--rows/--dim` shapes) get the generic tier.
pub fn preset_slos(preset: Option<&str>) -> Vec<SloObjective> {
    // Serving presets gate the pull path only (serving issues no pushes) and
    // carry the preset name in the objective, so a watchdog burn alert says
    // *which* serving SLO is burning, not just "some pull somewhere".
    if let Some(p @ ("serve-kddb" | "serve-kdd12")) = preset {
        // ~2× above the healthy seed-1/2 pull p999 of each serve preset
        // (observed: serve-kddb 213 µs, serve-kdd12 221 µs).
        let pull_ns = match p {
            "serve-kddb" => 450_000,
            _ => 500_000,
        };
        return vec![
            SloObjective::latency_p999(
                &format!("{p}.pull.p999"),
                "ps.client.op.pull.latency",
                SimTime(pull_ns),
            ),
            SloObjective::error_rate(
                &format!("{p}.timeouts"),
                "ps.client.timeouts",
                "ps.client.envelopes",
                10,
            ),
        ];
    }
    // (pull p999 target, push p999 target), nanoseconds of virtual time.
    // Healthy p999s observed: kddb lr/svm 226–318 µs, kdd12 lr 214 µs.
    let (pull_ns, push_ns) = match preset {
        Some("kddb") => (1_000_000, 1_000_000),
        Some("kdd12") => (1_000_000, 1_000_000),
        // ctr / gender are interactive-scale presets; keep a roomy bound.
        Some("ctr") | Some("gender") => (2_000_000, 2_000_000),
        _ => (2_000_000, 2_000_000),
    };
    vec![
        SloObjective::latency_p999(
            "ps.pull.p999",
            "ps.client.op.pull.latency",
            SimTime(pull_ns),
        ),
        SloObjective::latency_p999(
            "ps.push.p999",
            "ps.client.op.push.latency",
            SimTime(push_ns),
        ),
        // At most 1% of fabric envelopes may time out.
        SloObjective::error_rate(
            "ps.timeouts",
            "ps.client.timeouts",
            "ps.client.envelopes",
            10,
        ),
    ]
}

/// min/median/max of one measurement across runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stat {
    pub min: u64,
    pub median: u64,
    pub max: u64,
}

impl Stat {
    /// Aggregate a non-empty sample; an even count takes the mean of the
    /// two central values (integer division — stays deterministic).
    pub fn of(mut vals: Vec<u64>) -> Stat {
        assert!(!vals.is_empty(), "Stat::of needs at least one sample");
        vals.sort_unstable();
        let n = vals.len();
        let median = if n % 2 == 1 {
            vals[n / 2]
        } else {
            (vals[n / 2 - 1] + vals[n / 2]) / 2
        };
        Stat {
            min: vals[0],
            median,
            max: vals[n - 1],
        }
    }
}

/// True when `cand` exceeds `base` by more than `tolerance_milli`
/// parts-per-thousand (integer arithmetic; a zero baseline tolerates
/// nothing).
fn exceeds(base: u64, cand: u64, tolerance_milli: u64) -> bool {
    let limit = base + base / 1000 * tolerance_milli + base % 1000 * tolerance_milli / 1000;
    cand > limit
}

/// One scope row of a host report. Mirrors
/// [`ScopeStat`](crate::simnet::ScopeStat) but owns
/// its name, since parsed sidecar files outlive the static name table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostScopeRow {
    pub scope: String,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Per-case host cost: wall stats across runs, scope table summed across
/// runs (sorted by `self_ns` descending, name as tiebreak).
#[derive(Clone, Debug, PartialEq)]
pub struct HostCase {
    pub name: String,
    pub wall_ns: Stat,
    pub scopes: Vec<HostScopeRow>,
}

impl HostCase {
    /// Aggregate one case's per-run profiles.
    pub fn of(name: String, profiles: &[HostProfile]) -> HostCase {
        assert!(!profiles.is_empty(), "HostCase::of needs at least one run");
        let wall_ns = Stat::of(profiles.iter().map(|p| p.wall_ns).collect());
        let mut scopes: Vec<HostScopeRow> = Vec::new();
        for p in profiles {
            for s in &p.scopes {
                match scopes.iter_mut().find(|r| r.scope == s.name) {
                    Some(r) => {
                        r.calls += s.calls;
                        r.total_ns += s.total_ns;
                        r.self_ns += s.self_ns;
                        r.allocs += s.allocs;
                        r.alloc_bytes += s.alloc_bytes;
                    }
                    None => scopes.push(HostScopeRow {
                        scope: s.name.to_string(),
                        calls: s.calls,
                        total_ns: s.total_ns,
                        self_ns: s.self_ns,
                        allocs: s.allocs,
                        alloc_bytes: s.alloc_bytes,
                    }),
                }
            }
        }
        scopes.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.scope.cmp(&b.scope)));
        HostCase {
            name,
            wall_ns,
            scopes,
        }
    }

    /// Median wall time in seconds — the headline number per case.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_ns.median as f64 / 1e9
    }
}

/// A host-cost sidecar report — the `ps2-hostprof-v1` document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostReport {
    /// Whether the counting allocator was on (alloc columns meaningful).
    pub alloc_counted: bool,
    pub cases: Vec<HostCase>,
}

impl HostReport {
    /// Wrap a single run's profile as a one-case report — what `ps2-run
    /// --host-prof-json` writes.
    pub fn single(name: &str, profile: &HostProfile) -> HostReport {
        HostReport {
            alloc_counted: profile.alloc_counted,
            cases: vec![HostCase::of(
                name.to_string(),
                std::slice::from_ref(profile),
            )],
        }
    }

    /// Serialize. Deterministic *given the measurements* (fixed key order,
    /// fixed float formatting) — but the measurements are wall-clock, so
    /// two runs produce different bytes. Never byte-compare host sidecars;
    /// that is what [`compare_host`]'s tolerance is for.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"ps2-hostprof-v1\",\n");
        let _ = write!(
            out,
            "  \"alloc_counted\": {},\n  \"cases\": [",
            self.alloc_counted
        );
        for (i, c) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"name\": ");
            render_json_string(&c.name, &mut out);
            let _ = write!(
                out,
                ",\n      \"wall_seconds\": {:.6},\n      \"wall_ns\": {{\"min\": {}, \"median\": {}, \"max\": {}}},\n      \"scopes\": [",
                c.wall_seconds(),
                c.wall_ns.min,
                c.wall_ns.median,
                c.wall_ns.max
            );
            for (j, s) in c.scopes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {\"scope\": ");
                render_json_string(&s.scope, &mut out);
                let _ = write!(
                    out,
                    ", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                    s.calls, s.total_ns, s.self_ns, s.allocs, s.alloc_bytes
                );
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a report written by [`HostReport::to_json`]. `wall_seconds` is
    /// derived from the median on render, so it is not read back.
    pub fn from_json(text: &str) -> Result<HostReport, String> {
        let doc = parse_json(text).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some("ps2-hostprof-v1") => {}
            other => return Err(format!("unsupported hostprof schema {other:?}")),
        }
        let u64_field = |obj: &JsonValue, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("host report: missing/invalid \"{key}\""))
        };
        let mut out = HostReport {
            alloc_counted: doc
                .get("alloc_counted")
                .and_then(JsonValue::as_bool)
                .ok_or("host report: missing \"alloc_counted\"")?,
            cases: Vec::new(),
        };
        for c in doc
            .get("cases")
            .and_then(JsonValue::as_arr)
            .ok_or("host report: missing \"cases\"")?
        {
            let name = c
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("host report: case missing \"name\"")?
                .to_string();
            let wall = c
                .get("wall_ns")
                .ok_or("host report: case missing \"wall_ns\"")?;
            let wall_ns = Stat {
                min: u64_field(wall, "min")?,
                median: u64_field(wall, "median")?,
                max: u64_field(wall, "max")?,
            };
            let scopes = c
                .get("scopes")
                .and_then(JsonValue::as_arr)
                .ok_or("host report: case missing \"scopes\"")?
                .iter()
                .map(|s| {
                    Ok(HostScopeRow {
                        scope: s
                            .get("scope")
                            .and_then(JsonValue::as_str)
                            .ok_or("host report: scope row missing \"scope\"")?
                            .to_string(),
                        calls: u64_field(s, "calls")?,
                        total_ns: u64_field(s, "total_ns")?,
                        self_ns: u64_field(s, "self_ns")?,
                        allocs: u64_field(s, "allocs")?,
                        alloc_bytes: u64_field(s, "alloc_bytes")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            out.cases.push(HostCase {
                name,
                wall_ns,
                scopes,
            });
        }
        Ok(out)
    }

    /// Human-readable report: per case, wall seconds and the top-cost
    /// scope table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "host cost (wall-clock; alloc counting {})",
            if self.alloc_counted { "on" } else { "off" }
        );
        for c in &self.cases {
            let _ = writeln!(
                out,
                "{}: wall {:.3}s median [{:.3}..{:.3}]",
                c.name,
                c.wall_seconds(),
                c.wall_ns.min as f64 / 1e9,
                c.wall_ns.max as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "  {:<16} {:>10} {:>12} {:>12} {:>12} {:>14}",
                "scope", "calls", "total_ms", "self_ms", "allocs", "alloc_bytes"
            );
            for s in &c.scopes {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>10} {:>12.3} {:>12.3} {:>12} {:>14}",
                    s.scope,
                    s.calls,
                    s.total_ns as f64 / 1e6,
                    s.self_ns as f64 / 1e6,
                    s.allocs,
                    s.alloc_bytes
                );
            }
        }
        out
    }
}

/// The simulator-speed soft gate: flag a baseline case that is missing from
/// the candidate, or whose median wall time grew beyond `tolerance_milli`
/// parts-per-thousand (1000 = +100%, i.e. 2× — deliberately generous,
/// because CI wall time is noisy). Scope rows are reported by [`HostReport::render`]
/// but never gated: only the headline wall regression fails a build.
pub fn compare_host(base: &HostReport, cand: &HostReport, tolerance_milli: u64) -> Vec<String> {
    let mut out = Vec::new();
    for b in &base.cases {
        let Some(c) = cand.cases.iter().find(|c| c.name == b.name) else {
            out.push(format!("host case {} missing from candidate", b.name));
            continue;
        };
        if exceeds(b.wall_ns.median, c.wall_ns.median, tolerance_milli) {
            let pct = if b.wall_ns.median == 0 {
                f64::INFINITY
            } else {
                100.0 * (c.wall_ns.median as f64 - b.wall_ns.median as f64)
                    / b.wall_ns.median as f64
            };
            out.push(format!(
                "{} wall_ns: median {} -> {} (+{pct:.1}%, tolerance {:.1}%)",
                b.name,
                b.wall_ns.median,
                c.wall_ns.median,
                tolerance_milli as f64 / 10.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::serve::SERVE_PRESETS;

    #[test]
    fn stat_median_odd_and_even() {
        assert_eq!(
            Stat::of(vec![3, 1, 2]),
            Stat {
                min: 1,
                median: 2,
                max: 3
            }
        );
        assert_eq!(
            Stat::of(vec![4, 1, 2, 3]),
            Stat {
                min: 1,
                median: 2,
                max: 4
            }
        );
    }

    #[test]
    fn serve_presets_have_named_slos() {
        for preset in SERVE_PRESETS {
            let objectives = preset_slos(Some(preset));
            assert!(
                objectives.iter().any(|o| o.name.contains(preset)),
                "{preset}: objectives must carry the preset name"
            );
        }
    }

    fn host_case(name: &str, wall_median: u64) -> HostCase {
        HostCase {
            name: name.to_string(),
            wall_ns: Stat {
                min: wall_median / 2,
                median: wall_median,
                max: wall_median * 2,
            },
            scopes: vec![
                HostScopeRow {
                    scope: "sched.dispatch".to_string(),
                    calls: 100,
                    total_ns: 9_000_000,
                    self_ns: 4_000_000,
                    allocs: 12,
                    alloc_bytes: 4096,
                },
                HostScopeRow {
                    scope: "codec.encode".to_string(),
                    calls: 50,
                    total_ns: 2_000_000,
                    self_ns: 2_000_000,
                    allocs: 0,
                    alloc_bytes: 0,
                },
            ],
        }
    }

    #[test]
    fn host_json_round_trip_preserves_scope_tables() {
        let report = HostReport {
            alloc_counted: true,
            cases: vec![
                host_case("lr-sgd \"quoted\"", 42_000_000),
                host_case("svm", 7),
            ],
        };
        let text = report.to_json();
        assert!(text.contains("\"schema\": \"ps2-hostprof-v1\""));
        // wall_seconds is the derived headline: median/1e9 at 6 decimals.
        assert!(text.contains("\"wall_seconds\": 0.042000"), "{text}");
        let parsed = HostReport::from_json(&text).unwrap();
        assert_eq!(parsed, report);
        // Render → parse → render is a fixed point.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(HostReport::from_json(r#"{"schema": "nope", "cases": []}"#).is_err());
        assert!(HostReport::from_json("[]").is_err());
    }

    #[test]
    fn host_case_aggregates_profiles_across_seeds() {
        use crate::simnet::ScopeStat;
        let p1 = HostProfile {
            wall_ns: 10,
            alloc_counted: true,
            scopes: vec![ScopeStat {
                name: "codec.encode",
                calls: 1,
                total_ns: 5,
                self_ns: 5,
                allocs: 2,
                alloc_bytes: 64,
            }],
        };
        let p2 = HostProfile {
            wall_ns: 30,
            alloc_counted: true,
            scopes: vec![
                ScopeStat {
                    name: "codec.encode",
                    calls: 3,
                    total_ns: 10,
                    self_ns: 7,
                    allocs: 1,
                    alloc_bytes: 32,
                },
                ScopeStat {
                    name: "sched.dispatch",
                    calls: 9,
                    total_ns: 100,
                    self_ns: 90,
                    allocs: 0,
                    alloc_bytes: 0,
                },
            ],
        };
        let c = HostCase::of("x".to_string(), &[p1, p2]);
        assert_eq!(
            c.wall_ns,
            Stat {
                min: 10,
                median: 20,
                max: 30
            }
        );
        // Rows summed by scope name, sorted by self_ns descending.
        assert_eq!(c.scopes.len(), 2);
        assert_eq!(c.scopes[0].scope, "sched.dispatch");
        assert_eq!(c.scopes[1].scope, "codec.encode");
        assert_eq!(c.scopes[1].calls, 4);
        assert_eq!(c.scopes[1].total_ns, 15);
        assert_eq!(c.scopes[1].self_ns, 12);
        assert_eq!(c.scopes[1].allocs, 3);
        assert_eq!(c.scopes[1].alloc_bytes, 96);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let report = |wall_median| HostReport {
            alloc_counted: true,
            cases: vec![host_case("lr", wall_median)],
        };
        let base = report(1_000_000);
        assert!(compare_host(&base, &report(1_049_000), 50).is_empty());
        let v = compare_host(&base, &report(1_051_000), 50);
        assert!(!v.is_empty(), "5.1% over a 5% gate must fail");
        assert!(v[0].contains("wall_ns"), "got: {}", v[0]);
    }

    #[test]
    fn host_gate_flags_wall_slowdowns_only() {
        let base = HostReport {
            alloc_counted: true,
            cases: vec![host_case("lr", 100_000_000)],
        };
        // 2x wall at 300% tolerance (the CI default): fine.
        let double = HostReport {
            alloc_counted: true,
            cases: vec![host_case("lr", 200_000_000)],
        };
        assert!(compare_host(&base, &double, 3000).is_empty());
        // 5x wall: flagged.
        let blowup = HostReport {
            alloc_counted: true,
            cases: vec![host_case("lr", 500_000_000)],
        };
        let v = compare_host(&base, &blowup, 3000);
        assert_eq!(v.len(), 1, "got: {v:?}");
        assert!(v[0].contains("wall_ns"), "got: {}", v[0]);
        // Scope-table drift alone never gates.
        let mut shuffled = base.clone();
        shuffled.cases[0].scopes[0].self_ns *= 100;
        assert!(compare_host(&base, &shuffled, 3000).is_empty());
        // Missing case: coverage must not shrink.
        let v = compare_host(&base, &HostReport::default(), 3000);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("missing"));
    }
}
