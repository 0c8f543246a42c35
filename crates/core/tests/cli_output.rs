//! `se_privgemb_cli` keeps its exit status when a write to stdout or
//! stderr fails. `/dev/full` fails every write with `ENOSPC`, the way
//! a closed pipe or a full disk does, without a pipe's timing race.

#![cfg(target_os = "linux")]

use std::fs::OpenOptions;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Six nodes, seven edges: two triangles joined by one edge.
const GRAPH: &str = "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3\n";

fn dev_full() -> Stdio {
    OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full")
        .into()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("se_privgemb_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the CLI with `args`, stdin closed.
fn cli(args: &[&str], stdout: Stdio, stderr: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_se_privgemb_cli"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .output()
        .expect("run se_privgemb_cli")
}

/// Trains 2 epochs on [`GRAPH`] into `output`.
fn fit(dir: &std::path::Path, output: &str, extra: &[&str], stderr: Stdio) -> Output {
    let graph = dir.join("graph.txt");
    std::fs::write(&graph, GRAPH).unwrap();
    let out = dir.join(output);
    let mut args = vec![
        "--input",
        graph.to_str().unwrap(),
        "--output",
        out.to_str().unwrap(),
        "--dim",
        "8",
        "--epochs",
        "2",
    ];
    args.extend_from_slice(extra);
    cli(&args, Stdio::null(), stderr)
}

#[test]
fn usage_error_exits_1_when_stderr_is_full() {
    let run = cli(&["--epsilon", "0"], Stdio::null(), dev_full());
    assert_eq!(run.status.code(), Some(1), "{run:?}");
}

#[test]
fn fit_writes_its_tsv_when_stderr_is_full() {
    let dir = temp_dir("fit");
    let run = fit(&dir, "emb.tsv", &[], dev_full());
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    let tsv = std::fs::read_to_string(dir.join("emb.tsv")).unwrap();
    assert_eq!(tsv.lines().count(), 6, "{tsv}");
    for line in tsv.lines() {
        assert_eq!(line.split('\t').count(), 1 + 8, "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_exits_1_when_stdout_is_full() {
    let dir = temp_dir("query");
    let run = fit(
        &dir,
        "model.spm",
        &["--output-format", "model"],
        Stdio::null(),
    );
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    let model = dir.join("model.spm");
    let query = [
        "query",
        "--model",
        model.to_str().unwrap(),
        "--node",
        "0",
        "--k",
        "3",
    ];
    let run = cli(&query, dev_full(), Stdio::piped());
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("cannot write the answer"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
