//! Smoke test a later CI step can call: every workload, `--quick`, both trace
//! modes, and the emitted result object must carry exactly the metric and
//! workload names `BENCHMARK.json` lists, with their units.

use std::process::Command;

use ps2::tracefile::{parse_json, JsonValue};

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn spec() -> JsonValue {
    let path = format!("{REPO_ROOT}/BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing string {key}"))
}

fn keys(v: &JsonValue) -> Vec<&str> {
    match v {
        JsonValue::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn quick_runs_emit_exactly_the_names_benchmark_json_lists() {
    let spec = spec();
    let workloads = spec
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 6);
    for workload in workloads {
        let name = field(workload, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            // From the repo root, like run.sh, so the span file lands in
            // benchmark/out/.
            let out = Command::new(env!("CARGO_BIN_EXE_ps2-benchmark"))
                .current_dir(REPO_ROOT)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--quick",
                ])
                .output()
                .expect("benchmark binary starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result =
                parse_json(stdout.lines().last().expect("a result line")).expect("result parses");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(
                result
                    .get("attempted")
                    .and_then(JsonValue::as_u64)
                    .expect("attempted")
                    >= 1
            );

            let want: Vec<(&str, &str)> = spec
                .get(section)
                .and_then(JsonValue::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let metrics = result.get("metrics").expect("metrics");
            let got: Vec<(&str, &str)> = keys(metrics)
                .into_iter()
                .map(|k| (k, field(metrics.get(k).expect("metric"), "unit")))
                .collect();
            assert_eq!(got, want, "{name} --trace {trace}");
            for (metric, _) in &want {
                let m = metrics.get(metric).expect("metric");
                assert_eq!(keys(m), ["value", "unit"]);
                assert!(matches!(m.get("value"), Some(JsonValue::Num(v)) if v.is_finite()));
            }
        }
        let spans = format!("{REPO_ROOT}/benchmark/out/{name}.spans.jsonl");
        assert!(
            std::fs::metadata(&spans).is_ok_and(|m| m.len() > 0),
            "{spans} missing"
        );
    }
}
