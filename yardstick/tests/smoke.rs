//! The benchmark's own tests: every workload runs its checks in smoke
//! size, and every metric printed is declared in `BENCHMARK.json`.

use krr_core::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["model-deep", "model-sampled", "serve-rw"];

fn run(args: &[&str]) -> std::process::Output {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("yardstick-out");
    Command::new(env!("CARGO_BIN_EXE_yardstick"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs")
}

fn smoke(workload: &str, seed: &str, trace: &str) -> (String, Json) {
    let out = run(&[
        "--smoke",
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result =
        json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    (stdout, result)
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let mut v: Vec<(String, String)> = doc
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect();
    v.sort();
    v
}

fn printed(result: &Json) -> Vec<(String, String)> {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let mut v: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .expect("numeric value");
            assert!(value.is_finite(), "{name} is not finite");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    v.sort();
    v
}

#[test]
fn every_workload_passes_its_checks_and_prints_exactly_the_declared_metrics() {
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (stdout, result) = smoke(workload, "7", trace);
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{workload} trace {trace} failed a check:\n{stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_num)
                    .expect("attempted")
                    >= 1.0
            );
            assert_eq!(printed(&result), declared(key), "{workload} trace {trace}");
        }
    }
}

#[test]
fn model_deep_mrc_digest_repeats_for_one_seed() {
    let digest = || {
        let (stdout, _) = smoke("model-deep", "11", "0");
        stdout
            .lines()
            .find_map(|l| l.split("MRC digest ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .expect("digest check line")
            .to_string()
    };
    assert_eq!(digest(), digest());
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "serve-rw", "--seed", "x"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
