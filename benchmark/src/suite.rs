//! `all`: the whole set in child processes, gathered into one result file.
//! `compare`: two such files held against the end-to-end bounds.

use std::process::Command;

use ps2::tracefile::{parse_json, JsonValue};

use crate::layers::{END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use crate::{obj, Flags, RUN_SECONDS};

const DEFAULT_OUT: &str = "benchmark/out/results.json";

/// One child run: its stdout echoed, its last two lines parsed.
struct ChildRun {
    detail: JsonValue,
    result: JsonValue,
}

fn run_child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: u8,
    quick: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; stderr passes straight through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (human, machine) = lines.split_at(lines.len().saturating_sub(2));
    for line in human {
        println!("{line}");
    }
    if !out.status.success() || machine.len() != 2 {
        return Err(format!(
            "{} (trace {trace}) failed: {}",
            w.name(),
            out.status
        ));
    }
    let parse =
        |line: &str| parse_json(line).map_err(|e| format!("{} printed bad JSON: {e}", w.name()));
    let detail = parse(machine[0])?
        .get("detail")
        .cloned()
        .ok_or_else(|| format!("{} printed no detail line", w.name()))?;
    Ok(ChildRun {
        detail,
        result: parse(machine[1])?,
    })
}

pub fn run_all(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args)?;
    let seed: u64 = flags.num("seed", 1)?;
    let seconds: f64 = flags.num("seconds", RUN_SECONDS as f64)?;
    let out_path = flags.get("out").unwrap_or(DEFAULT_OUT).to_string();

    let mut workloads = Vec::new();
    let mut virtual_s = Vec::new();
    for w in Workload::ALL {
        let untraced = run_child(w, seed, seconds, 0, flags.quick)?;
        let traced = run_child(w, seed, seconds, 1, flags.quick)?;
        let field = |v: &JsonValue, key: &str| v.get(key).cloned().unwrap_or(JsonValue::Null);
        let stats = field(&untraced.detail, "stats");
        virtual_s.push(median(&stats, "virtual_s").unwrap_or(0.0));
        workloads.push((
            w.name().to_string(),
            obj([
                ("attempted", field(&untraced.result, "attempted")),
                ("failed", field(&untraced.result, "failed")),
                ("pinned", field(&untraced.detail, "pinned")),
                ("nproc", field(&untraced.detail, "nproc")),
                ("end_to_end", stats),
                ("per_layer", field(&traced.result, "metrics")),
            ]),
        ));
    }
    // The paper's Fig 10 ratio, printed for the reader; not a gated metric.
    let (ps2, mllib) = (virtual_s[0], virtual_s[1]);
    if ps2 > 0.0 {
        println!(
            "virtual_s(train-lr-mllib) / virtual_s(train-lr-ps2) = {:.2} (paper Fig 10 speed-up; base {ps2:.6} s)",
            mllib / ps2
        );
    }
    let doc = obj([
        ("schema", JsonValue::Str("ps2-benchmark-v1".into())),
        ("seed", JsonValue::Num(seed as f64)),
        ("seconds", JsonValue::Num(seconds)),
        ("quick", JsonValue::Bool(flags.quick)),
        ("workloads", JsonValue::Obj(workloads)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("results written to {out_path}");
    Ok(0)
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    match v.get(key)? {
        JsonValue::Num(n) => Some(*n),
        _ => None,
    }
}

fn median(stats: &JsonValue, metric: &str) -> Option<f64> {
    num(stats.get(metric)?, "median")
}

/// How one end-to-end pair compares. `worse` is the change in the metric's
/// bad direction as a share of A's median.
#[derive(Debug, PartialEq)]
enum Verdict {
    Regression,
    Improved,
    Unchanged,
    /// Within the bound, but a host metric's own min–max spread is wider
    /// than the bound, so "no change" cannot be told from noise.
    Unresolved,
}

fn judge(worse: f64, bound: f64, spread: f64, exact: bool) -> Verdict {
    if worse > bound {
        Verdict::Regression
    } else if !exact && spread > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("ps2-benchmark-v1") => Ok(doc),
        other => Err(format!("{path}: unsupported schema {other:?}")),
    }
}

pub fn compare(args: &[String]) -> Result<i32, String> {
    let [a_path, b_path] = args else {
        return Err("usage: ps2-benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = num(&a, "seed") == num(&b, "seed");
    let mut regressions = 0;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for w in Workload::ALL {
        let side = |doc: &JsonValue| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .cloned()
        };
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            return Err(format!("{} is missing from one of the files", w.name()));
        };
        for (d, bound) in END_TO_END {
            let stat =
                |side: &JsonValue| side.get("end_to_end").and_then(|s| s.get(d.name)).cloned();
            let (Some(sa), Some(sb)) = (stat(&wa), stat(&wb)) else {
                return Err(format!(
                    "{} has no {} in one of the files",
                    w.name(),
                    d.name
                ));
            };
            let field = |s: &JsonValue, k: &str| {
                num(s, k).ok_or_else(|| format!("{}: {} lacks {k}", w.name(), d.name))
            };
            let (ma, mb) = (field(&sa, "median")?, field(&sb, "median")?);
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let worse = if d.better == "lower" { change } else { -change };
            let mut spread = 0.0f64;
            for s in [&sa, &sb] {
                let m = field(s, "median")?;
                if m != 0.0 {
                    spread = spread.max((field(s, "max")? - field(s, "min")?) / m);
                }
            }
            let verdict = judge(worse, *bound, spread, d.exact);
            if verdict == Verdict::Regression {
                regressions += 1;
            }
            println!(
                "{:<18} {:<12} {:>14.6} {:>14.6} {:>+8.2}% {:>5.1}%  {}",
                w.name(),
                d.name,
                ma,
                mb,
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Regression => "REGRESSION",
                    Verdict::Improved => "improved",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // A host-only change must leave every exact number bit-identical.
        if same_seed {
            for d in PER_LAYER.iter().filter(|d| d.exact) {
                let value = |side: &JsonValue| {
                    side.get("per_layer")
                        .and_then(|p| p.get(d.name))
                        .and_then(|m| num(m, "value"))
                };
                let (va, vb) = (value(&wa), value(&wb));
                if va != vb {
                    println!(
                        "{:<18} exact per-layer metric {} differs: {va:?} vs {vb:?}",
                        w.name(),
                        d.name
                    );
                }
            }
        }
    }
    if regressions > 0 {
        println!("{regressions} end-to-end metric(s) outside their bound");
        return Ok(1);
    }
    println!("every end-to-end metric is within its bound");
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(judge(0.30, 0.20, 0.0, false), Verdict::Regression);
        assert_eq!(judge(0.30, 0.20, 0.5, false), Verdict::Regression);
        assert_eq!(judge(0.05, 0.20, 0.5, false), Verdict::Unresolved);
        assert_eq!(judge(0.05, 0.20, 0.1, false), Verdict::Unchanged);
        assert_eq!(judge(-0.30, 0.20, 0.1, false), Verdict::Improved);
        // An exact metric has no spread to hide behind.
        assert_eq!(judge(0.005, 0.01, 0.5, true), Verdict::Unchanged);
        assert_eq!(judge(0.02, 0.01, 0.0, true), Verdict::Regression);
    }
}
