//! The TCP front-end contract, end to end: every `SPSERVE 1` answer
//! must be **bit-identical** to the same query answered in-process,
//! and no input a client can send — truncated, oversized, binary
//! garbage, half-open, idle — may kill the server or tear a reload.
//!
//! The suite drives a real [`Server`] bound to a loopback port in
//! every test, mixing the typed [`ServeClient`] with raw
//! [`TcpStream`]s that deliberately violate the protocol.

use rand::rngs::StdRng;
use rand::SeedableRng;
use se_privgemb_suite::model::{ModelFile, Provenance};
use se_privgemb_suite::serve::{
    synthetic, EmbeddingStore, IvfConfig, IvfIndex, MetricsSnapshot, ServeClient, Server,
    ServerConfig, ServerMetrics, ServingStore, ShutdownHandle,
};
use se_privgemb_suite::skipgram::SkipGramModel;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 200;
const DIM: usize = 8;
const SEED: u64 = 0xC0DE;

fn store() -> EmbeddingStore {
    EmbeddingStore::from_f32(
        synthetic::clustered_embedding(NODES, DIM, 10, SEED),
        Provenance::non_private(SEED),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sp_served_tcp_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Binds a server on an ephemeral loopback port and runs it on its own
/// thread; the join handle yields the final counters, and the metrics
/// handle lets tests assert the STATS accounting invariants.
fn start(
    config: ServerConfig,
    serving: Arc<ServingStore>,
) -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<MetricsSnapshot>,
    Arc<ServerMetrics>,
) {
    let server = Server::bind("127.0.0.1:0", serving, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let metrics = server.metrics();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join, metrics)
}

/// Asserts the STATS accounting invariant that holds by construction:
/// every counted request is either a parsed command or malformed.
fn assert_stats_invariant(metrics: &ServerMetrics) {
    let s = metrics.snapshot();
    let per_command_sum: u64 = s.per_command.iter().map(|&(_, c)| c).sum();
    assert_eq!(
        s.requests,
        per_command_sum + s.malformed,
        "requests != sum(per_command) + malformed: {s:?}"
    );
}

/// A raw protocol-violating connection: greeting consumed, everything
/// else up to the caller.
fn raw_conn(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    assert_eq!(greeting.trim_end(), "SPSERVE 1 READY");
    (stream, reader)
}

fn read_response_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

#[test]
fn tcp_answers_are_bit_identical_to_in_process() {
    // Exercise both query paths: the exact oracle and the IVF index.
    for use_ivf in [false, true] {
        let base = store();
        let index = use_ivf.then(|| {
            IvfIndex::build(
                &base,
                IvfConfig {
                    nlist: 8,
                    nprobe: 4,
                    ..IvfConfig::default()
                },
                Some(1),
            )
        });
        let serving = Arc::new(ServingStore::new(store(), index));
        let (addr, handle, join, _metrics) = start(ServerConfig::default(), Arc::clone(&serving));

        let mut client = ServeClient::connect(addr).unwrap();
        let snapshot = serving.snapshot();
        for node in [0u32, 7, 63, 199] {
            let (version, tcp) = client.top_k(node, 10).unwrap();
            assert_eq!(version, snapshot.version);
            let local = snapshot.try_top_k_node(node, 10).unwrap();
            assert_eq!(tcp.len(), local.len(), "node {node} answer length");
            for (a, b) in tcp.iter().zip(local.iter()) {
                assert_eq!(a.node, b.node, "node {node}: neighbour mismatch");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "node {node}: score bits differ over TCP (ivf={use_ivf})"
                );
            }
        }
        for (u, v) in [(0u32, 1u32), (5, 180), (199, 3)] {
            let (_, tcp_score) = client.link(u, v).unwrap();
            let local_score = snapshot.try_link_score(u, v).unwrap();
            assert_eq!(tcp_score.to_bits(), local_score.to_bits());
        }
        let info = client.info().unwrap();
        assert_eq!(info.nodes, NODES);
        assert_eq!(info.dim, DIM);
        assert_eq!(info.seed, SEED);
        assert_eq!(
            info.index,
            if use_ivf {
                "ivf(nlist=8,nprobe=4)"
            } else {
                "exact"
            }
        );
        client.quit().unwrap();
        handle.shutdown();
        join.join().unwrap();
    }
}

#[test]
fn malformed_input_never_kills_the_server() {
    let serving = Arc::new(ServingStore::new(store(), None));
    let config = ServerConfig {
        max_line_bytes: 128,
        ..ServerConfig::default()
    };
    let (addr, handle, join, metrics) = start(config, serving);

    // Unknown command → ERR 400, connection stays usable.
    {
        let (mut stream, mut reader) = raw_conn(addr);
        stream.write_all(b"FROB 1 2\n").unwrap();
        assert!(read_response_line(&mut reader).starts_with("ERR 400 "));
        stream.write_all(b"TOPK 0 1\n").unwrap();
        assert!(read_response_line(&mut reader).starts_with("OK TOPK "));
    }

    // Binary garbage (invalid UTF-8) → ERR 400.
    {
        let (mut stream, mut reader) = raw_conn(addr);
        stream.write_all(b"\xff\xfe\x00garbage\x80\n").unwrap();
        assert!(read_response_line(&mut reader).starts_with("ERR 400 "));
    }

    // Oversized line → ERR 400 and the connection closes.
    {
        let (mut stream, mut reader) = raw_conn(addr);
        let huge = vec![b'A'; 4096];
        stream.write_all(&huge).unwrap();
        stream.write_all(b"\n").unwrap();
        assert!(read_response_line(&mut reader).starts_with("ERR 400 "));
        // The server closes the connection; with unread bytes still in
        // flight that close may surface as a reset rather than EOF.
        let mut rest = Vec::new();
        match reader.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "server must close after an oversized line"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
        }
    }

    // Bad argument shapes → ERR 400; out-of-range node → ERR 404.
    {
        let (mut stream, mut reader) = raw_conn(addr);
        for (req, code) in [
            ("TOPK abc 5", "ERR 400 "),
            ("TOPK 0", "ERR 400 "),
            ("LINK 0", "ERR 400 "),
            ("TOPK 0 0", "ERR 400 "),
            ("TOPK 999999 5", "ERR 404 "),
            ("LINK 0 999999", "ERR 404 "),
            ("RELOAD", "ERR 400 "), // no --model path configured
        ] {
            stream.write_all(req.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let line = read_response_line(&mut reader);
            assert!(
                line.starts_with(code),
                "{req:?} should answer {code:?}, got {line:?}"
            );
        }
    }

    // Truncated request (no terminator, then close) and a half-open
    // connection that never sends anything: both just go away.
    {
        let (mut stream, _reader) = raw_conn(addr);
        stream.write_all(b"TOPK 0").unwrap();
        drop(stream);
        let (_stream, _reader) = raw_conn(addr);
        // dropped immediately
    }

    // After all that abuse a typed client still gets exact answers.
    let mut client = ServeClient::connect(addr).unwrap();
    let (_, answer) = client.top_k(0, 5).unwrap();
    assert_eq!(answer.len(), 5);
    client.quit().unwrap();
    handle.shutdown();
    let report = join.join().unwrap();

    // Accounting after the barrage: every request above is either a
    // parsed command or malformed — never both, never dropped.
    // Malformed: FROB, binary garbage, the oversized line, and the
    // four bad-argument shapes that fail `Request::parse` (TOPK abc 5,
    // TOPK 0, LINK 0, TOPK 0 0). The 404s and the RELOAD parsed fine —
    // they are command errors, counted under their command.
    assert_stats_invariant(&metrics);
    let s = metrics.snapshot();
    assert_eq!(s.malformed, 7, "malformed census changed: {s:?}");
    assert_eq!(s.requests, report.requests);
    assert_eq!(s.conns_rejected, 0, "nothing hit the capacity bound");
}

#[test]
fn idle_connection_times_out_with_408() {
    let serving = Arc::new(ServingStore::new(store(), None));
    let config = ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (addr, handle, join, metrics) = start(config, serving);

    let (_stream, mut reader) = raw_conn(addr);
    // Say nothing: the server must evict us with ERR 408, then close.
    let line = read_response_line(&mut reader);
    assert!(line.starts_with("ERR 408 "), "got {line:?}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    handle.shutdown();
    join.join().unwrap();

    // The eviction is counted as a malformed request, but since no
    // request line was ever read there is nothing to time — the
    // latency histogram must stay empty rather than absorb a
    // fabricated 0µs sample that would drag p50 to the floor.
    assert_stats_invariant(&metrics);
    let s = metrics.snapshot();
    assert_eq!(s.malformed, 1, "{s:?}");
    assert_eq!(s.requests, 1, "{s:?}");
    assert_eq!(
        s.p50_us, 0,
        "timeout eviction must not fabricate latency samples: {s:?}"
    );
}

fn write_model(path: &std::path::Path, seed: u64) -> ModelFile {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SkipGramModel::new(60, DIM, &mut rng);
    let file = ModelFile::from_skipgram(&model, Provenance::non_private(seed));
    file.write_atomic(path).unwrap();
    file
}

#[test]
fn reload_swaps_complete_generations_and_rejects_torn_files() {
    let dir = temp_dir("reload");
    let path = dir.join("model.spm");
    write_model(&path, 1);
    let base = EmbeddingStore::open(&path).unwrap();
    let serving = Arc::new(ServingStore::new(base, None));
    let config = ServerConfig {
        model_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle, join, _metrics) = start(config, Arc::clone(&serving));

    let mut client = ServeClient::connect(addr).unwrap();

    // Concurrent republish: a writer keeps atomically replacing the
    // file while this client reloads and queries. Every reload must
    // land on a complete model (the atomic write + fsync contract) and
    // every answer must come from one whole generation.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let path = path.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seed = 2u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                write_model(&path, seed);
                seed += 1;
            }
        })
    };
    let mut last_version = 1u64;
    for _ in 0..20 {
        let version = client.reload().unwrap();
        assert!(version > last_version, "reload must advance the generation");
        last_version = version;
        let (answer_version, answer) = client.top_k(0, 5).unwrap();
        assert_eq!(answer_version, version);
        assert_eq!(answer.len(), 5);
        let info = client.info().unwrap();
        assert_eq!(info.nodes, 60, "reload must never expose a torn model");
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    writer.join().unwrap();

    // A torn publish on disk (simulated with a direct, non-atomic
    // truncated write) must fail RELOAD with ERR 500 and leave the
    // previous generation serving.
    let good = ModelFile::read(&path).unwrap();
    let bytes = good.to_bytes();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = client.reload().unwrap_err();
    match err {
        se_privgemb_suite::serve::ClientError::Server { code, .. } => assert_eq!(code, 500),
        other => panic!("expected ERR 500 from a torn model file, got {other}"),
    }
    let (version, answer) = client.top_k(0, 5).unwrap();
    assert_eq!(version, last_version, "failed reload must not swap");
    assert_eq!(answer.len(), 5);

    // Restoring a complete file makes RELOAD work again.
    se_privgemb_suite::model::write_bytes_atomic(&path, &bytes).unwrap();
    let version = client.reload().unwrap();
    assert!(version > last_version);

    client.quit().unwrap();
    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_rebuilds_the_index_the_served_generation_has() {
    // The server's configuration names only the model path: the index
    // a RELOAD builds comes from the generation being served.
    let dir = temp_dir("reload_index");
    let path = dir.join("model.spm");
    write_model(&path, 3);
    let cfg = IvfConfig {
        nlist: 8,
        nprobe: 4,
        iters: 2,
        seed: 99,
    };
    let base = EmbeddingStore::open(&path).unwrap();
    let index = IvfIndex::build(&base, cfg, Some(1));
    let serving = Arc::new(ServingStore::new(base, Some(index)));
    let config = ServerConfig {
        model_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle, join, _metrics) = start(config, Arc::clone(&serving));

    let mut client = ServeClient::connect(addr).unwrap();
    let before = client.info().unwrap();
    assert_eq!(before.index, "ivf(nlist=8,nprobe=4)");
    write_model(&path, 4);
    assert_eq!(client.reload().unwrap(), 2);
    let after = client.info().unwrap();
    assert_eq!(after.index, before.index, "RELOAD changed the index");

    // The rebuilt index is the one the same configuration builds over
    // the new file, bit for bit.
    let store = EmbeddingStore::open(&path).unwrap();
    let rebuilt = IvfIndex::build(&store, cfg, Some(1));
    for node in [0u32, 17, 59] {
        let (_, tcp) = client.top_k(node, 5).unwrap();
        let local = rebuilt.top_k_node(&store, node, 5, cfg.nprobe);
        assert_eq!(
            tcp.iter()
                .map(|n| (n.node, n.score.to_bits()))
                .collect::<Vec<_>>(),
            local
                .iter()
                .map(|n| (n.node, n.score.to_bits()))
                .collect::<Vec<_>>(),
            "node {node}"
        );
    }
    client.quit().unwrap();
    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_reload_keeps_last_good_generation_and_counts_reload_failed() {
    let dir = temp_dir("reload_failed");
    let path = dir.join("model.spm");
    write_model(&path, 5);
    let base = EmbeddingStore::open(&path).unwrap();
    let serving = Arc::new(ServingStore::new(base, None));
    let config = ServerConfig {
        model_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle, join, metrics) = start(config, Arc::clone(&serving));

    let mut client = ServeClient::connect(addr).unwrap();
    let (version_before, baseline) = client.top_k(0, 5).unwrap();
    assert_eq!(metrics.snapshot().reload_failed, 0);

    // Tear the file on disk (a non-atomic publisher would do this),
    // then fail RELOAD twice: the counter must track every failure.
    let good = ModelFile::read(&path).unwrap().to_bytes();
    std::fs::write(&path, &good[..good.len() / 3]).unwrap();
    for expected_failures in 1..=2u64 {
        match client.reload().unwrap_err() {
            se_privgemb_suite::serve::ClientError::Server { code, .. } => assert_eq!(code, 500),
            other => panic!("expected ERR 500 from a torn model file, got {other}"),
        }
        assert_eq!(metrics.snapshot().reload_failed, expected_failures);
    }

    // The last-good generation keeps answering, bit for bit.
    let (version_after, after) = client.top_k(0, 5).unwrap();
    assert_eq!(version_after, version_before, "failed reload must not swap");
    for (a, b) in baseline.iter().zip(after.iter()) {
        assert_eq!(a.node, b.node, "degraded answer changed neighbours");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "degraded answer changed score bits"
        );
    }

    // The counter is visible over the wire in STATS, and the request
    // invariant is untouched: the failed RELOADs are still ordinary
    // counted requests.
    let (mut stream, mut reader) = raw_conn(addr);
    stream.write_all(b"STATS\n").unwrap();
    let head = read_response_line(&mut reader);
    assert!(
        head.contains(" reload_failed=2"),
        "STATS must expose the failure count: {head:?}"
    );
    loop {
        if read_response_line(&mut reader) == "END" {
            break;
        }
    }
    assert_stats_invariant(&metrics);

    // A repaired file recovers without a restart.
    se_privgemb_suite::model::write_bytes_atomic(&path, &good).unwrap();
    assert!(client.reload().unwrap() > version_before);
    assert_eq!(
        metrics.snapshot().reload_failed,
        2,
        "success must not count"
    );

    client.quit().unwrap();
    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_drains_and_refuses_new_connections() {
    let serving = Arc::new(ServingStore::new(store(), None));
    let (addr, _handle, join, _metrics) = start(ServerConfig::default(), serving);

    // An idle bystander connection is open when SHUTDOWN arrives.
    let (_bystander, mut bystander_reader) = raw_conn(addr);

    let mut client = ServeClient::connect(addr).unwrap();
    let (_, answer) = client.top_k(3, 4).unwrap();
    assert_eq!(answer.len(), 4);
    client.shutdown_server().unwrap();

    // The server drains: run() returns with the requests counted, the
    // bystander is closed without a response, and fresh connections
    // are refused.
    let report = join.join().unwrap();
    assert!(report.requests >= 1);
    assert_eq!(report.errors, 0);
    let mut rest = Vec::new();
    bystander_reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "drain closes idle connections silently");
    assert!(
        TcpStream::connect(addr).is_err()
            || TcpStream::connect(addr)
                .and_then(|mut s| {
                    let mut byte = [0u8; 1];
                    s.read(&mut byte).map(|n| n == 0)
                })
                .unwrap_or(true),
        "a drained server must not accept new work"
    );
}
