//! `krr model` feeds every run through one ingestion loop: a trace file,
//! the same file under checkpointing, and the generated workload the file
//! was written from must print byte-identical MRCs.

use std::process::Command;

/// Runs the `krr` binary and returns its stdout, failing on a nonzero exit.
fn krr(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_krr"))
        .args(args)
        .output()
        .expect("failed to run the krr binary");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "krr {args:?} failed: {err}");
    out.stdout
}

#[test]
fn file_checkpointed_and_generated_runs_print_one_mrc() {
    let dir = std::env::temp_dir().join(format!("krr-cli-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, ck) = (dir.join("t.csv"), dir.join("ck"));
    let (trace, ck) = (trace.to_str().unwrap(), ck.to_str().unwrap());
    let workload = ["--workload", "zipf:0.9:3000", "--requests", "30000"];
    krr(&[&["generate"], &workload[..], &["--out", trace]].concat());
    let plain = krr(&["model", trace]);
    let checkpointed = krr(&[
        "model",
        "--checkpoint-every",
        "1000",
        "--checkpoint-out",
        ck,
        trace,
    ]);
    let generated = krr(&[&["model"], &workload[..]].concat());
    std::fs::remove_dir_all(&dir).ok();
    assert!(plain.starts_with(b"cache_size,miss_ratio\n") && plain.len() > 100);
    assert!(plain == checkpointed, "checkpointing changed the MRC");
    assert!(plain == generated, "the generated workload's MRC differs");
}
