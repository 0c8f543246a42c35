//! `sp_served` keeps serving when a write to stderr fails. `/dev/full`
//! fails every write with `ENOSPC`, the way a closed pipe or a full
//! disk does, without a pipe's timing race.

#![cfg(target_os = "linux")]

use sp_model::{ModelFile, ModelPayload, Provenance};
use sp_serve::{synthetic, ServeClient};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// Kills the server if the test fails before it exits.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serves_and_drains_when_stderr_is_full() {
    let dir = std::env::temp_dir().join(format!("sp_served_output_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A small clustered model, as the benchmark writes its served one.
    let (nodes, dim, clusters, seed) = (200, 16, 10, 7);
    let model = dir.join("served.spm");
    ModelFile {
        payload: ModelPayload::SkipGram {
            w_in: synthetic::clustered_embedding(nodes, dim, clusters, seed),
            w_out: synthetic::clustered_embedding(nodes, dim, clusters, !seed),
        },
        provenance: Provenance::non_private(seed),
    }
    .write_atomic(&model)
    .unwrap();

    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let mut served = Served(
        Command::new(env!("CARGO_BIN_EXE_sp_served"))
            .args([
                "--model",
                model.to_str().unwrap(),
                "--listen",
                "127.0.0.1:0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(full)
            .spawn()
            .expect("start sp_served"),
    );
    let mut stdout = BufReader::new(served.0.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.starts_with("sp_served listening on "), "{line:?}");
    let addr: SocketAddr = line
        .split_whitespace()
        .find_map(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    let mut client = ServeClient::connect(addr).unwrap();
    let (_, answer) = client.top_k(0, 5).unwrap();
    assert_eq!(answer.len(), 5);
    client.shutdown_server().unwrap();

    line.clear();
    stdout.read_line(&mut line).unwrap();
    assert!(line.starts_with("sp_served drained: "), "{line:?}");
    assert!(served.0.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}
