//! `sp_served` — the std-only TCP front-end over a [`ServingStore`].
//!
//! Design: **no async runtime**. A nonblocking accept loop hands each
//! connection to a scoped thread (`std::thread::scope`, the same
//! primitive `sp_parallel` builds on), bounded by
//! [`ServerConfig::max_conns`] — connections beyond the bound are
//! turned away with `ERR 503` instead of queueing unboundedly. Each
//! connection gets read/write timeouts; a request that cannot be
//! parsed is answered with a protocol `ERR` line and **never**
//! terminates the process.
//!
//! Shutdown is SIGTERM-style: a shared flag (set by the protocol
//! `SHUTDOWN` command or a [`ShutdownHandle`]) stops the accept loop,
//! closes the listener, and lets every in-flight connection finish its
//! current request before [`Server::run`] returns the final counters.
//!
//! The correctness contract of the whole front-end: every `TOPK` and
//! `LINK` response is **bit-identical** to the same query answered
//! in-process against the same [`ServingStore`] generation — scores
//! travel as raw f32 bit patterns (`tests/served_tcp.rs` asserts
//! this; the privacy story is unchanged because serving a published
//! model is pure post-processing).

use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::protocol::{self, Request};
use crate::swap::ServingStore;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the accept loop wakes to check the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// How often an idle connection wakes to check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further clients get
    /// `ERR 503` and are disconnected.
    pub max_conns: usize,
    /// A connection idle longer than this is closed with `ERR 408`.
    pub read_timeout: Duration,
    /// A response write stalled longer than this drops the connection.
    pub write_timeout: Duration,
    /// Longest accepted request line; longer lines get `ERR 400` and
    /// the connection is closed (framing cannot resync).
    pub max_line_bytes: usize,
    /// The `.spm` file `RELOAD` republishes from; `None` disables
    /// `RELOAD` (`ERR 400`). A reload serves the new model with the
    /// index the served generation has: exact stays exact, and an IVF
    /// index is rebuilt from its own configuration
    /// ([`ServingStore::reload_from`]).
    pub model_path: Option<PathBuf>,
    /// Thread count for `RELOAD` index rebuilds (`None`: `SP_THREADS`
    /// / available parallelism).
    pub threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_conns: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: protocol::DEFAULT_MAX_LINE_BYTES,
            model_path: None,
            threads: None,
        }
    }
}

/// Sets the shutdown flag of a running [`Server`] from another thread
/// (the programmatic equivalent of the protocol `SHUTDOWN` command).
#[derive(Clone, Debug)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests a graceful drain: stop accepting, finish in-flight
    /// requests, return from [`Server::run`].
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Release);
    }
}

/// A bound (but not yet running) TCP server over a [`ServingStore`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    serving: Arc<ServingStore>,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener. The store is shared — `RELOAD`, or any
    /// caller of [`ServingStore::reload_from`], can keep swapping
    /// generations into `serving` while the server answers from it.
    pub fn bind(
        addr: impl ToSocketAddrs,
        serving: Arc<ServingStore>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            serving,
            config,
            metrics: Arc::new(ServerMetrics::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can request a graceful drain from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// The live metrics (shared with the running server).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The serving store this server answers from.
    pub fn serving(&self) -> Arc<ServingStore> {
        Arc::clone(&self.serving)
    }

    /// Runs the accept loop until shutdown, then drains: the listener
    /// closes first, every in-flight connection finishes its current
    /// request, and the final counters are returned.
    pub fn run(self) -> std::io::Result<MetricsSnapshot> {
        let Server {
            listener,
            serving,
            config,
            metrics,
            shutdown,
        } = self;
        listener.set_nonblocking(true)?;
        let serving = &*serving;
        let config = &config;
        let metrics_ref = &*metrics;
        let shutdown_ref = &*shutdown;
        std::thread::scope(|scope| {
            while !shutdown_ref.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if !metrics_ref.try_accept(config.max_conns as u64) {
                            reject_at_capacity(stream, config);
                            continue;
                        }
                        scope.spawn(move || {
                            handle_connection(stream, serving, config, metrics_ref, shutdown_ref);
                            metrics_ref.conn_closed();
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Transient accept failure (EMFILE, ECONNABORTED,
                        // …): keep serving; the offending socket is gone.
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }
            // Close the listening socket before draining, so clients
            // get connection-refused instead of a hang during drain.
            drop(listener);
        });
        Ok(metrics.snapshot())
    }
}

/// Best-effort `ERR 503` to a connection over the capacity bound.
fn reject_at_capacity(mut stream: TcpStream, config: &ServerConfig) {
    stream.set_write_timeout(Some(config.write_timeout)).ok();
    stream
        .write_all(protocol::err_line(503, "server at connection capacity").as_bytes())
        .ok();
}

/// Outcome of one line read, distinguishing every way a connection can
/// stop yielding requests.
enum LineEvent {
    Line(Vec<u8>),
    Eof,
    IdleTimeout,
    TooLong,
    ShuttingDown,
}

/// Bounded, shutdown-aware line framing over a blocking socket. Reads
/// happen in [`READ_POLL`] slices so an idle connection notices the
/// shutdown flag and the idle deadline without async machinery.
#[derive(Default)]
struct LineReader {
    buf: Vec<u8>,
}

impl LineReader {
    fn next_line(
        &mut self,
        stream: &mut TcpStream,
        max_line: usize,
        idle: Duration,
        shutdown: &AtomicBool,
    ) -> std::io::Result<LineEvent> {
        let deadline = Instant::now() + idle;
        let mut chunk = [0u8; 512];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(if line.len() > max_line {
                    LineEvent::TooLong
                } else {
                    LineEvent::Line(line)
                });
            }
            if self.buf.len() > max_line {
                return Ok(LineEvent::TooLong);
            }
            if shutdown.load(Ordering::Acquire) {
                return Ok(LineEvent::ShuttingDown);
            }
            if Instant::now() >= deadline {
                return Ok(LineEvent::IdleTimeout);
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(LineEvent::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One connection, greeting to close. Malformed input is answered with
/// `ERR` lines; only I/O failure, timeout, `QUIT`/`SHUTDOWN`, or the
/// drain flag end the loop.
fn handle_connection(
    mut stream: TcpStream,
    serving: &ServingStore,
    config: &ServerConfig,
    metrics: &ServerMetrics,
    shutdown: &AtomicBool,
) {
    // Deterministic fault seam: a plan targeting `serve.conn` drops the
    // connection before the greeting, as a crashed handler thread would.
    if sp_fault::inject(sp_fault::sites::SERVE_CONN).is_err() {
        return;
    }
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(READ_POLL)).is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
        || stream.write_all(protocol::greeting().as_bytes()).is_err()
    {
        return;
    }
    let mut reader = LineReader::default();
    loop {
        match reader.next_line(
            &mut stream,
            config.max_line_bytes,
            config.read_timeout,
            shutdown,
        ) {
            Ok(LineEvent::Line(raw)) => {
                let t0 = Instant::now();
                let parsed = std::str::from_utf8(&raw)
                    .map_err(|_| "request is not valid UTF-8".to_string())
                    .and_then(Request::parse);
                let req = match parsed {
                    Ok(req) => req,
                    Err(msg) => {
                        metrics.record_malformed(Some(t0.elapsed().as_micros() as u64));
                        if stream
                            .write_all(protocol::err_line(400, &msg).as_bytes())
                            .is_err()
                        {
                            return;
                        }
                        continue;
                    }
                };
                let (response, generation, ok) = match execute(&req, serving, config, metrics) {
                    Ok((response, generation)) => (response, generation, true),
                    Err(line) => (line, None, false),
                };
                metrics.record_request(&req, t0.elapsed().as_micros() as u64, generation, ok);
                if stream.write_all(response.as_bytes()).is_err() {
                    return;
                }
                match req {
                    Request::Quit => return,
                    Request::Shutdown => {
                        shutdown.store(true, Ordering::Release);
                        return;
                    }
                    _ => {}
                }
            }
            Ok(LineEvent::Eof) | Ok(LineEvent::ShuttingDown) | Err(_) => return,
            Ok(LineEvent::IdleTimeout) => {
                // Unattributed (no request line was read): counted in
                // `malformed`, no fabricated latency sample.
                metrics.record_malformed(None);
                stream
                    .write_all(protocol::err_line(408, "idle timeout").as_bytes())
                    .ok();
                return;
            }
            Ok(LineEvent::TooLong) => {
                metrics.record_malformed(None);
                stream
                    .write_all(
                        protocol::err_line(
                            400,
                            &format!("request line exceeds {} bytes", config.max_line_bytes),
                        )
                        .as_bytes(),
                    )
                    .ok();
                return;
            }
        }
    }
}

/// Answers one parsed request: its response and, for a query, the
/// generation that answered it, or the `ERR` line that refuses it.
/// Queries answer from one snapshot, so every block of a `TOPKN`
/// carries the same generation even if a `RELOAD` races it.
fn execute(
    req: &Request,
    serving: &ServingStore,
    config: &ServerConfig,
    metrics: &ServerMetrics,
) -> Result<(String, Option<u64>), String> {
    let generation = serving.snapshot();
    let version = generation.version;
    let answer = match req {
        Request::TopK { node, k } => generation
            .try_top_k_node(*node, *k)
            .map(|answer| protocol::format_topk(version, &answer)),
        // Any failing node fails the whole request with the first
        // failure: a partial response would leave the framing ambiguous.
        Request::TopKN { nodes, k } => nodes
            .iter()
            .map(|&node| Ok((node, generation.try_top_k_node(node, *k)?)))
            .collect::<Result<Vec<_>, _>>()
            .map(|answers| protocol::format_topkn(version, *k, &answers)),
        Request::Link { u, v } => generation
            .try_link_score(*u, *v)
            .map(|score| protocol::format_link(version, score)),
        Request::Info => {
            let p = generation.store.provenance();
            let index = match &generation.index {
                Some(idx) => format!("ivf(nlist={},nprobe={})", idx.nlist(), idx.nprobe_default()),
                None => "exact".to_string(),
            };
            Ok(protocol::format_info(
                version,
                generation.store.num_nodes(),
                generation.store.dim(),
                p.seed,
                p.epsilon,
                p.delta,
                &index,
            ))
        }
        Request::Stats => return Ok((metrics.snapshot().to_stats_block(), None)),
        Request::Reload => {
            let path = config
                .model_path
                .as_ref()
                .ok_or_else(|| protocol::err_line(400, "no model path configured for RELOAD"))?;
            return match serving.reload_from(path, config.threads) {
                Ok(version) => Ok((protocol::format_reload(version), None)),
                Err(e) => {
                    // The swap never happened: the last-good generation
                    // keeps serving. Surface the degradation in STATS.
                    metrics.record_reload_failed();
                    Err(protocol::err_line(500, &format!("reload failed: {e}")))
                }
            };
        }
        Request::Quit => return Ok(("OK BYE\n".to_string(), None)),
        Request::Shutdown => return Ok(("OK SHUTDOWN draining\n".to_string(), None)),
    };
    answer
        .map(|response| (response, Some(version)))
        .map_err(|e| protocol::err_line(protocol::query_error_code(&e), &e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EmbeddingStore;
    use sp_model::{F32Matrix, Provenance};
    use std::io::BufRead;

    fn tiny_serving() -> Arc<ServingStore> {
        let m = F32Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.0]);
        Arc::new(ServingStore::new(
            EmbeddingStore::from_f32(m, Provenance::non_private(5)),
            None,
        ))
    }

    fn start(
        config: ServerConfig,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<MetricsSnapshot>,
    ) {
        let server = Server::bind("127.0.0.1:0", tiny_serving(), config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    fn send_line(stream: &mut TcpStream, line: &str) {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }

    #[test]
    fn greets_answers_and_drains_on_handle() {
        let (addr, handle, join) = start(ServerConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "SPSERVE 1 READY");

        send_line(&mut stream, "INFO");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with("OK INFO version=1 nodes=4 dim=2 seed=5"),
            "{line}"
        );

        send_line(&mut stream, "QUIT");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK BYE");
        // Server closes its side after BYE.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);

        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.conns_total, 1);
        assert_eq!(report.requests, 2);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let (addr, _handle, join) = start(ServerConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // greeting
        send_line(&mut stream, "SHUTDOWN");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK SHUTDOWN draining");
        let report = join.join().unwrap();
        assert_eq!(report.requests, 1);
        // The listener is closed: new connections are refused (allow a
        // beat for the OS to tear the socket down).
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn topkn_matches_per_node_topk_and_keeps_stats_invariant() {
        use crate::client::{ClientError, ServeClient};
        let (addr, handle, join) = start(ServerConfig::default());
        let mut c = ServeClient::connect(addr).unwrap();
        let nodes = [0u32, 2, 3];
        let (bulk_version, bulk) = c.top_k_bulk(&nodes, 2).unwrap();
        assert_eq!(bulk.len(), nodes.len());
        for (queried, (node, answer)) in nodes.iter().zip(&bulk) {
            assert_eq!(queried, node, "blocks arrive in request order");
            let (v, single) = c.top_k(*node, 2).unwrap();
            assert_eq!(v, bulk_version, "one snapshot answers the batch");
            assert_eq!(single.len(), answer.len());
            for (a, b) in single.iter().zip(answer) {
                assert_eq!(a.node, b.node);
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "bulk and single answers are bit-identical"
                );
            }
        }
        // A failing node fails the whole batch with one ERR.
        match c.top_k_bulk(&[0, 999], 2) {
            Err(ClientError::Server { code: 404, .. }) => {}
            other => panic!("expected ERR 404, got {other:?}"),
        }
        // Malformed TOPKN lines are counted as malformed, and the
        // STATS invariant holds across every command kind.
        c.send_raw(b"TOPKN 2\n").unwrap();
        match c.read_line() {
            Ok(line) => assert!(line.starts_with("ERR 400"), "{line}"),
            Err(e) => panic!("{e}"),
        }
        let stats = c.stats().unwrap();
        let header = &stats[0];
        let get = |key: &str| -> u64 {
            header
                .split_ascii_whitespace()
                .find_map(|f| f.strip_prefix(key))
                .unwrap_or_else(|| panic!("missing {key} in {header}"))
                .parse()
                .unwrap()
        };
        assert_eq!(get("topkn="), 2, "one ok + one 404 bulk request");
        assert_eq!(get("topk="), nodes.len() as u64);
        assert_eq!(get("malformed="), 1);
        let per_command: u64 = [
            "topk=",
            "topkn=",
            "link=",
            "info=",
            "stats=",
            "reload=",
            "quit=",
            "shutdown=",
        ]
        .iter()
        .map(|k| get(k))
        .sum();
        assert_eq!(
            get("requests="),
            per_command + get("malformed="),
            "STATS invariant: requests == Σ per_command + malformed"
        );
        drop(c);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn capacity_bound_rejects_with_503() {
        let server = Server::bind(
            "127.0.0.1:0",
            tiny_serving(),
            ServerConfig {
                max_conns: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        let metrics = server.metrics();
        let join = std::thread::spawn(move || server.run().unwrap());
        let first = TcpStream::connect(addr).unwrap();
        let mut r1 = std::io::BufReader::new(first.try_clone().unwrap());
        let mut line = String::new();
        r1.read_line(&mut line).unwrap(); // greeting: slot taken
                                          // Second connection must be turned away.
        let second = TcpStream::connect(addr).unwrap();
        let mut r2 = std::io::BufReader::new(second);
        line.clear();
        r2.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR 503"), "{line}");
        drop(first);
        handle.shutdown();
        let s = join.join().unwrap();
        assert_eq!(s.conns_rejected, 1);
        // "Connections accepted over the server lifetime" means exactly
        // that: the rejected connection must not inflate the count.
        assert_eq!(
            s.conns_total, 1,
            "a 503-rejected connection was counted as accepted"
        );
        assert_eq!(s.conns_active, 0, "all accepted connections drained");
        assert_eq!(metrics.snapshot().conns_total, 1);
    }
}
