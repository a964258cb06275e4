//! Tiny-size smoke test of every workload: each untraced run prints
//! exactly the end-to-end metrics of `BENCHMARK.json` with their units,
//! each traced run exactly the per-layer ones, both check out correct,
//! and a traced run simulates the same counts as an untraced one.

use std::path::Path;
use std::process::Command;

use kbcast_serve::json::Json;

const WORKLOADS: [&str; 3] = ["session-udg", "session-adverse", "serve-live"];

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    result: Json,
    /// `(pass, simulated output)` of every `# op` line, in unit order.
    ops: Vec<(String, String)>,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("kbbench-smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_kbbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny", "--out"])
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let ops = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# op "))
        .map(|l| {
            let (pass, rest) = l.split_once(' ').expect("op line names its pass");
            let counts = rest.split(" | ").next().expect("op line");
            (pass.to_string(), counts.to_string())
        })
        .collect();
    Run {
        result: Json::parse(last).expect("the last line is JSON"),
        ops,
    }
}

fn printed(result: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object missing");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name}: value is not a number"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn check_result(result: &Json) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
}

#[test]
fn every_workload_prints_every_declared_metric_and_traced_counts_agree() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let untraced = run(workload, 7, false);
        check_result(&untraced.result);
        assert_eq!(
            printed(&untraced.result),
            end_to_end,
            "{workload} end-to-end"
        );
        for (name, _) in &end_to_end {
            let value = untraced.result.get("metrics").and_then(|ms| ms.get(name));
            let value = value.and_then(|v| v.get("value")).and_then(Json::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload} {name}: {value:?}"
            );
        }

        let traced = run(workload, 7, true);
        check_result(&traced.result);
        assert_eq!(printed(&traced.result), per_layer, "{workload} per-layer");
        let first = |run: &Run, pass: &str| {
            run.ops
                .iter()
                .find(|op| op.0 == pass)
                .map(|op| op.1.clone())
                .unwrap_or_else(|| panic!("{workload}: no {pass} op line"))
        };
        assert_eq!(
            first(&traced, "traced"),
            first(&untraced, "untraced"),
            "{workload}: a traced run simulates what an untraced run does"
        );
    }
}
