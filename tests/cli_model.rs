//! `krr model` feeds every run through one ingestion loop: a trace file,
//! the same file under checkpointing, and the generated workload the file
//! was written from must print byte-identical MRCs. Fleet mode
//! (`--tenants`) shares the loop, and every flag a run cannot honour, or
//! a subcommand does not read, fails the run with a message naming it,
//! as does a positional argument the subcommand does not read, a zero
//! count, an out-of-range sampling size or rate, or (for the simulators)
//! an empty trace.

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

/// Runs the `krr` binary, requires a nonzero exit and returns its stderr.
fn krr_fails(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_krr"))
        .args(args)
        .output()
        .expect("failed to run the krr binary");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "krr {args:?}: stderr {err:?}");
    err
}

/// A scratch directory holding a small generated trace, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("krr-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let scratch = Scratch(dir);
        let trace = scratch.path("t.csv");
        let workload = ["--workload", "zipf:0.9:3000", "--requests", "30000"];
        krr(&[&["generate"], &workload[..], &["--out", &trace]].concat());
        scratch
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn fleet_mode_rejects_the_flags_it_cannot_honour() {
    let dir = Scratch::new("cli-fleet-flags");
    let (trace, file) = (dir.path("t.csv"), dir.path("x"));
    for flag in [
        ["--shards", "2"],
        ["--checkpoint-out", &file],
        ["--checkpoint-every", "1000"],
        ["--resume", &file],
        ["--stats-every", "1000"],
        ["--stats-out", &file],
    ] {
        let err = krr_fails(&["model", "--tenants", "4", flag[0], flag[1], &trace]);
        assert!(err.contains(flag[0]), "{flag:?}: stderr {err:?}");
    }
    assert!(
        !std::path::Path::new(&file).exists(),
        "a rejected run wrote {file}"
    );
}

#[test]
fn fleet_flags_need_tenants() {
    let dir = Scratch::new("cli-bank-flags");
    let (trace, mrcs) = (dir.path("t.csv"), dir.path("mrcs"));
    for flag in [["--budget", "100"], ["--mrc-out", &mrcs]] {
        let err = krr_fails(&["model", flag[0], flag[1], &trace]);
        assert!(err.contains(flag[0]), "{flag:?}: stderr {err:?}");
    }
}

#[test]
fn unknown_flags_are_errors_naming_flag_and_subcommand() {
    let dir = Scratch::new("cli-unknown-flags");
    let trace = dir.path("t.csv");
    let err = krr_fails(&["model", "--thread", "2", &trace]);
    assert!(
        err.contains("--thread ") && err.contains("model"),
        "{err:?}"
    );
    let err = krr_fails(&["partition", "--budjet", "10", &trace]);
    assert!(
        err.contains("--budjet") && err.contains("partition"),
        "{err:?}"
    );
}

#[test]
fn unread_arguments_and_zero_counts_are_errors() {
    let dir = Scratch::new("cli-unread-args");
    let (trace, out) = (dir.path("t.csv"), dir.path("out.csv"));
    let workload = ["--workload", "zipf:0.9:100", "--requests", "3"];
    let err = krr_fails(&[&["generate"], &workload[..], &[&out]].concat());
    assert!(
        err.contains("out.csv") && err.contains("generate"),
        "{err:?}"
    );
    assert!(!std::path::Path::new(&out).exists(), "generate wrote {out}");
    let err = krr_fails(&["doctor", "--live", "127.0.0.1:1", "DIR"]);
    assert!(err.contains("\"DIR\"") && err.contains("doctor"), "{err:?}");
    let err = krr_fails(&["stats", &trace, &out]);
    assert!(err.contains("out.csv") && err.contains("stats"), "{err:?}");
    for flag in ["--connections", "--pipeline"] {
        let err = krr_fails(&["load", flag, "0", &trace]);
        assert!(err.contains(flag), "{flag}: stderr {err:?}");
    }
    // Out-of-range model and simulator parameters fail before any work,
    // naming the flag, instead of panicking or running unsampled.
    for (cmd, flag, value) in [
        ("model", "--k", "0"),
        ("model", "--k", "0.5"),
        ("model", "--rate", "0"),
        ("model", "--rate", "1.5"),
        ("model", "--rate", "nan"),
        ("compare", "--k", "0"),
        ("compare", "--sizes", "0"),
        ("simulate", "--sizes", "0"),
        ("simulate", "--policy", "klru:0"),
        ("simulate", "--policy", "klfu:0"),
        ("plot", "--width", "0"),
        ("plot", "--height", "0"),
    ] {
        let err = krr_fails(&[cmd, flag, value, &trace]);
        assert!(
            err.contains(flag),
            "krr {cmd} {flag} {value}: stderr {err:?}"
        );
    }
    for (flag, workload, scale) in [
        ("--workload", "zipf:0.9:0", "1"),
        ("--workload", "zipf:nan:100", "1"),
        ("--workload", "loop:0", "1"),
        ("--scale", "msr:web", "0"),
        ("--scale", "twitter:26.0", "-1"),
    ] {
        let args = ["--workload", workload, "--requests", "10", "--scale", scale];
        let err = krr_fails(&[&["generate"], &args[..]].concat());
        assert!(err.contains(flag), "krr generate {args:?}: stderr {err:?}");
    }
    let empty = dir.path("empty.csv");
    std::fs::write(&empty, "").unwrap();
    for cmd in ["simulate", "compare"] {
        let err = krr_fails(&[cmd, &empty]);
        assert!(err.contains("no requests"), "krr {cmd}: stderr {err:?}");
    }
}

#[test]
fn resume_rejects_model_flags_the_checkpoint_carries() {
    let dir = Scratch::new("cli-resume-flags");
    let (trace, ck) = (dir.path("t.csv"), dir.path("ck"));
    krr(&["model", "--shards", "2", "--checkpoint-out", &ck, &trace]);
    let err = krr_fails(&["model", "--resume", &ck, "--k", "7", &trace]);
    assert!(err.contains("--k"), "{err:?}");
    let err = krr_fails(&["model", "--resume", &ck, "--shards", "3", &trace]);
    assert!(err.contains("--shards"), "{err:?}");
    let resumed = krr(&["model", "--resume", &ck, "--shards", "2", &trace]);
    assert!(resumed == krr(&["model", "--shards", "2", &trace]));
}

#[test]
fn fleet_trace_out_writes_pipeline_rings() {
    let dir = Scratch::new("cli-fleet-trace");
    let (trace, out) = (dir.path("t.csv"), dir.path("trace.json"));
    let args = [
        "model",
        "--tenants",
        "4",
        "--threads",
        "2",
        "--trace-out",
        &out,
        &trace,
    ];
    let stdout = krr(&args);
    assert!(stdout.starts_with(b"tenant,refs,resident,resident_bytes,miss_ratio_at_budget\n"));
    let json = std::fs::read_to_string(&out).expect("--trace-out wrote no file");
    assert!(json.contains("krr-trace-v1"), "not a krr Chrome trace");
    for ring in [
        "\"name\":\"router\"",
        "\"name\":\"worker-0\"",
        "\"name\":\"worker-1\"",
    ] {
        assert!(json.contains(ring), "trace lacks the {ring} ring");
    }
}

#[test]
fn fleet_output_is_identical_across_thread_counts() {
    let dir = Scratch::new("cli-fleet-threads");
    let trace = dir.path("t.csv");
    let run = |threads: &str| {
        let mrcs = dir.path(&format!("mrcs-{threads}"));
        let stdout = krr(&[
            "model",
            "--tenants",
            "8",
            "--threads",
            threads,
            "--mrc-out",
            &mrcs,
            &trace,
        ]);
        let files: Vec<Vec<u8>> = (0..8)
            .map(|id| std::fs::read(format!("{mrcs}/tenant-{id}.csv")).unwrap())
            .collect();
        (stdout, files)
    };
    let (one, four) = (run("1"), run("4"));
    assert!(one.0.starts_with(b"tenant,") && one.0.len() > 100);
    assert!(
        one.0 == four.0,
        "fleet stdout differs between 1 and 4 threads"
    );
    assert!(
        one.1 == four.1,
        "--mrc-out files differ between 1 and 4 threads"
    );
}
