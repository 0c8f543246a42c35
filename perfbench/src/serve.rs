//! The serve stage: `sp_served` in a child process over a published
//! `.spm`, driven open-loop over TCP.
//!
//! Each connection is one client thread that sends on a fixed schedule
//! whether or not earlier answers have arrived (requests pipeline on
//! the connection) and reads answers as they come. Latency is timed
//! from when a request was *due*, so a stall also charges the requests
//! queued behind it; how late the sender itself ran is reported apart.

use crate::stats::{backlog_growing, median, percentile};
use crate::trace::{Span, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sp_model::{ModelFile, ModelPayload, Provenance};
use sp_serve::protocol::{self, Request};
use sp_serve::{EmbeddingStore, IvfConfig, IvfIndex, ServeClient, ServingStore};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `TOPK` answer size.
pub const K: usize = 10;
/// Offered `TOPK` rate of the steady and reload phases (about half the
/// single-connection capacity at BlogCatalog scale, r = 128).
pub const TOPK_RATE: f64 = 1_500.0;
/// Offered `LINK` rate of the steady phase.
pub const LINK_RATE: f64 = 1_000.0;
/// The capacity ladder's `TOPK` p99 limit: about 4× the unloaded p50
/// over loopback (≈500 µs on a 2-vCPU VM, where thread wake-ups cost
/// more than the 240 µs of scoring).
pub const P99_LIMIT_US: f64 = 2_000.0;
/// The ladder's first rate, requests/s.
pub const LADDER_START: f64 = TOPK_RATE / 2.0;
/// Ladder rate growth per step.
pub const LADDER_GROWTH: f64 = 0.10;
/// Requests per ladder step (enough for a p99 with 10 samples beyond).
pub const LADDER_REQUESTS: usize = 1_000;
/// Ladder steps at most.
const LADDER_MAX_STEPS: usize = 20;
/// IVF parameters `sp_served` is started with.
pub const IVF: IvfConfig = IvfConfig {
    nlist: 64,
    nprobe: 16,
    iters: 6,
    seed: 0x1DF5EED,
};
/// Probe requests compared bit-for-bit against in-process answers.
const PROBES: usize = 32;
/// Query nodes the recall is averaged over.
const RECALL_QUERIES: usize = 500;
/// Clusters of the synthetic served model.
const CLUSTERS: usize = 40;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a phase may overrun its schedule before it is abandoned.
const DRAIN_GRACE: Duration = Duration::from_secs(20);

/// How much serving a workload runs.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    /// Steady windows of `TOPK` + `LINK` at the nominal rates.
    pub windows: usize,
    /// Length of one steady window, seconds.
    pub window_s: f64,
    /// `RELOAD`s in the reload phase.
    pub reloads: usize,
}

/// The serving workload's schedule.
pub const FULL: ServeSpec = ServeSpec {
    windows: 3,
    window_s: 3.0,
    reloads: 8,
};

/// The serve stage of the fit workloads.
pub const SHORT: ServeSpec = ServeSpec {
    windows: 3,
    window_s: 2.0,
    reloads: 4,
};

/// Writes the seeded clustered skip-gram model (`W_in`, `W_out`) as a
/// `.spm`.
pub fn write_clustered_model(
    nodes: usize,
    dim: usize,
    seed: u64,
    path: &Path,
) -> Result<(), String> {
    let file = ModelFile {
        payload: ModelPayload::SkipGram {
            w_in: sp_serve::synthetic::clustered_embedding(nodes, dim, CLUSTERS, seed),
            w_out: sp_serve::synthetic::clustered_embedding(nodes, dim, CLUSTERS, !seed),
        },
        provenance: Provenance::non_private(seed),
    };
    file.write_atomic(path)
        .map_err(|e| format!("cannot publish {}: {e}", path.display()))
}

/// Counters `sp_served` prints when it drains.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Drain {
    /// Requests handled.
    pub requests: u64,
    /// Requests answered with `ERR`.
    pub errors: u64,
}

/// Parses `sp_served drained: R requests (E errors) over …`.
pub fn parse_drain(line: &str) -> Option<Drain> {
    let rest = line.split("drained:").nth(1)?;
    let mut words = rest.split_whitespace();
    let requests = words.next()?.parse().ok()?;
    let errors = words.nth(1)?.trim_start_matches('(').parse().ok()?;
    Some(Drain { requests, errors })
}

/// A running `sp_served` child. Dropping it kills and reaps the child.
pub struct Served {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Served {
    /// Starts `sp_served` on an ephemeral loopback port and waits for
    /// the first `TOPK` answer; returns the server and that cold start
    /// in seconds.
    pub fn start(exe: &Path, model: &Path) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .arg("--model")
            .arg(model)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--ivf-nlist")
            .arg(IVF.nlist.to_string())
            .arg("--nprobe")
            .arg(IVF.nprobe.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut served = Self {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        served
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("sp_served stdout: {e}"))?;
        served.addr = line
            .split_whitespace()
            .find_map(|w| w.parse().ok())
            .ok_or_else(|| format!("sp_served did not report an address: {line:?}"))?;
        let mut client = served.connect()?;
        client.top_k(0, K).map_err(|e| format!("first TOPK: {e}"))?;
        Ok((served, t0.elapsed().as_secs_f64()))
    }

    /// A typed client connection.
    pub fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect_timeout(self.addr, CONNECT_TIMEOUT)
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// `VmHWM` of the server process, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        crate::procfs::peak_rss_mib_of(&self.child.id().to_string())
    }

    /// Sends `SHUTDOWN`, waits for the drain, and returns its report.
    pub fn shutdown(mut self) -> Result<Drain, String> {
        self.connect()?
            .shutdown_server()
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("sp_served stdout: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("sp_served exited with {status}"));
        }
        rest.lines()
            .find_map(parse_drain)
            .ok_or_else(|| format!("no drain report in {rest:?}"))
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}

/// Which request a connection carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// `TOPK node 10`.
    TopK,
    /// `LINK u v`.
    Link,
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::TopK => "tcp.topk",
            Op::Link => "tcp.link",
        }
    }
}

/// Splits pipelined response lines into whole responses.
#[derive(Debug)]
pub struct Framer {
    op: Op,
    /// Lines still owed by the current `TOPK` block (neighbours + END).
    remaining: usize,
}

impl Framer {
    /// A framer for one connection's responses.
    pub fn new(op: Op) -> Self {
        Self { op, remaining: 0 }
    }

    /// Feeds one line; returns `Some(ok)` when it completes a response.
    pub fn push(&mut self, line: &str) -> Option<bool> {
        if self.remaining > 0 {
            self.remaining -= 1;
            return (self.remaining == 0).then_some(line == "END");
        }
        if line.starts_with("ERR") {
            return Some(false);
        }
        match self.op {
            Op::Link => Some(line.starts_with("OK LINK")),
            Op::TopK => {
                let count = line
                    .strip_prefix("OK TOPK ")
                    .and_then(|rest| {
                        rest.split_whitespace()
                            .find_map(|f| f.strip_prefix("count="))
                    })
                    .and_then(|c| c.parse::<usize>().ok());
                match count {
                    Some(c) => {
                        self.remaining = c + 1;
                        None
                    }
                    None => Some(false),
                }
            }
        }
    }
}

/// One open-loop request's timeline (ns since the phase start).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// When it was due.
    pub due_ns: u64,
    /// When its write began.
    pub sent_ns: u64,
    /// When its write finished (traced runs only).
    pub written_ns: u64,
    /// When its whole answer had arrived.
    pub done_ns: u64,
    /// Answered with `OK`.
    pub ok: bool,
}

impl Sample {
    /// Latency from the scheduled send, µs; a failure misses every
    /// limit.
    pub fn latency_us(&self) -> f64 {
        if self.ok {
            self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent it, µs.
    pub fn lag_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// Due offsets of `n` requests at `rate` per second.
pub fn schedule(n: usize, rate: f64) -> Vec<u64> {
    (0..n).map(|i| (i as f64 * 1e9 / rate) as u64).collect()
}

/// Seeded request lines for one connection.
pub fn requests(op: Op, n: usize, nodes: usize, seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u = rng.gen_range(0..nodes as u32);
            match op {
                Op::TopK => format!("TOPK {u} {K}\n"),
                Op::Link => format!("LINK {u} {}\n", rng.gen_range(0..nodes as u32)),
            }
        })
        .collect()
}

/// Result of one open-loop connection.
#[derive(Debug, Default)]
pub struct Run {
    /// One per request sent, in send order.
    pub samples: Vec<Sample>,
    /// The phase start, for lining samples up with other clocks.
    pub start: Option<Instant>,
}

impl Run {
    /// Latencies from the scheduled send, µs, in send order.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_us).collect()
    }

    /// Requests answered with `ERR` (or never answered).
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }
}

/// Drives one connection open-loop: request `i` is due at `due[i]` ns
/// after the start; sending stops early once `stop` is set. Returns
/// after every sent request is answered.
pub fn open_loop(
    addr: SocketAddr,
    op: Op,
    lines: &[String],
    due: &[u64],
    stop: Option<&AtomicBool>,
    trace: bool,
) -> Result<Run, String> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut conn = Conn::new(op);
    conn.read_greeting(&mut stream)?;

    let start = Instant::now() + Duration::from_millis(2);
    let at = |ns: u64| start + Duration::from_nanos(ns);
    let mut samples: Vec<Sample> = Vec::with_capacity(lines.len());
    let mut done = 0usize;
    let mut sending = true;
    loop {
        let now = Instant::now();
        if sending && stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            sending = false;
        }
        while sending && samples.len() < lines.len() && at(due[samples.len()]) <= now {
            let i = samples.len();
            let sent = Instant::now();
            stream
                .write_all(lines[i].as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            samples.push(Sample {
                due_ns: due[i],
                sent_ns: ns_since(start, sent),
                written_ns: if trace {
                    ns_since(start, Instant::now())
                } else {
                    0
                },
                ..Sample::default()
            });
        }
        if samples.len() == lines.len() {
            sending = false;
        }
        if !sending && done == samples.len() {
            break;
        }
        let wait = if sending {
            at(due[samples.len()]).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(5)
        };
        if Instant::now() > at(*due.last().unwrap_or(&0)) + DRAIN_GRACE {
            return Err(format!("{op:?} phase did not drain"));
        }
        for ok in conn.read_some(&mut stream, wait)? {
            let received = ns_since(start, Instant::now());
            let s = &mut samples[done];
            s.done_ns = received;
            s.ok = ok;
            done += 1;
        }
    }
    Ok(Run {
        samples,
        start: Some(start),
    })
}

fn ns_since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// The read side of one pipelined connection.
struct Conn {
    framer: Framer,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    fn new(op: Op) -> Self {
        Self {
            framer: Framer::new(op),
            buf: Vec::new(),
            chunk: vec![0; 64 * 1024],
        }
    }

    fn read_greeting(&mut self, stream: &mut TcpStream) -> Result<(), String> {
        stream
            .set_read_timeout(Some(CONNECT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut byte = [0u8; 1];
        let mut line = Vec::new();
        while byte[0] != b'\n' {
            stream
                .read_exact(&mut byte)
                .map_err(|e| format!("greeting: {e}"))?;
            line.push(byte[0]);
        }
        if !line.starts_with(b"SPSERVE") {
            return Err(format!("bad greeting {:?}", String::from_utf8_lossy(&line)));
        }
        Ok(())
    }

    /// Waits up to `wait` for bytes; returns the responses they
    /// complete, in order.
    fn read_some(&mut self, stream: &mut TcpStream, wait: Duration) -> Result<Vec<bool>, String> {
        if !poll::readable(stream, wait).map_err(|e| format!("poll: {e}"))? {
            return Ok(Vec::new());
        }
        let n = match stream.read(&mut self.chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                return Ok(Vec::new())
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        self.buf.extend_from_slice(&self.chunk[..n]);
        let mut completed = Vec::new();
        let mut consumed = 0;
        while let Some(pos) = self.buf[consumed..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.buf[consumed..consumed + pos]);
            if let Some(ok) = self.framer.push(line.trim_end_matches('\r')) {
                completed.push(ok);
            }
            consumed += pos + 1;
        }
        self.buf.drain(..consumed);
        Ok(completed)
    }
}

/// Readiness waits with a nanosecond timeout. `SO_RCVTIMEO` rounds up to
/// whole scheduler ticks (4 ms at 250 Hz), which would make the
/// generator oversleep its schedule; `ppoll` sleeps on a high-resolution
/// timer and wakes the moment an answer arrives.
mod poll {
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x001;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    /// Whether `fd` has bytes (or EOF, or an error) to read within
    /// `wait`.
    pub fn readable(fd: &impl AsRawFd, wait: Duration) -> std::io::Result<bool> {
        let mut pfd = PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: wait.as_secs() as i64,
            tv_nsec: wait.subsec_nanos() as i64,
        };
        // SAFETY: one valid pollfd, a valid timespec, no signal mask;
        // the kernel writes only `pfd.revents`.
        let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        match rc {
            0 => Ok(false),
            n if n > 0 => Ok(true),
            _ => {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    Ok(false)
                } else {
                    Err(e)
                }
            }
        }
    }
}

/// Spans of one connection's requests: a root per request (due →
/// answered) and its write as a child, all sharing the request id.
pub fn request_spans(tracer: &Tracer, op: Op, run: &Run) -> Vec<Span> {
    let Some(start) = run.start else {
        return Vec::new();
    };
    let base = tracer.ns(start);
    let mut spans = Vec::with_capacity(run.samples.len() * 2);
    for s in &run.samples {
        let request = tracer.next_id();
        let root = tracer.next_id();
        spans.push(Span {
            id: root,
            parent: None,
            request: Some(request),
            name: op.span_name(),
            start_ns: base + s.due_ns,
            end_ns: base + s.done_ns.max(s.due_ns),
        });
        spans.push(Span {
            id: tracer.next_id(),
            parent: Some(root),
            request: Some(request),
            name: "client.write",
            start_ns: base + s.sent_ns,
            end_ns: base + s.written_ns.max(s.sent_ns),
        });
    }
    spans
}

/// Latency summary of one window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// `TOPK` median / p99, µs.
    pub topk: (f64, f64),
    /// `LINK` median / p99, µs.
    pub link: (f64, f64),
    /// Generator lateness p99 over both connections, µs.
    pub lag_p99: f64,
}

/// One steady window: `TOPK` and `LINK` on two connections at once.
pub fn steady_window(
    phase: &'static str,
    addr: SocketAddr,
    nodes: usize,
    window_s: f64,
    seed: u64,
    tracer: &Tracer,
    book: &mut Book,
) -> Result<Window, String> {
    let n_topk = (TOPK_RATE * window_s) as usize;
    let n_link = (LINK_RATE * window_s) as usize;
    let topk_lines = requests(Op::TopK, n_topk, nodes, seed);
    let link_lines = requests(Op::Link, n_link, nodes, seed ^ 0x11CC);
    let (topk_due, link_due) = (schedule(n_topk, TOPK_RATE), schedule(n_link, LINK_RATE));
    let trace = tracer.enabled();
    let (topk, link) = std::thread::scope(|s| {
        let t = s.spawn(|| open_loop(addr, Op::TopK, &topk_lines, &topk_due, None, trace));
        let l = s.spawn(|| open_loop(addr, Op::Link, &link_lines, &link_due, None, trace));
        (
            t.join().expect("TOPK thread"),
            l.join().expect("LINK thread"),
        )
    });
    let (topk, link) = (topk?, link?);
    tracer.extend(request_spans(tracer, Op::TopK, &topk));
    tracer.extend(request_spans(tracer, Op::Link, &link));
    book.add_run(phase, &topk);
    book.add_run(phase, &link);
    let summary = |run: &Run| {
        let lat = run.latencies();
        (percentile(&lat, 50.0), percentile(&lat, 99.0))
    };
    let lags: Vec<f64> = topk
        .samples
        .iter()
        .chain(&link.samples)
        .map(Sample::lag_us)
        .collect();
    Ok(Window {
        topk: summary(&topk),
        link: summary(&link),
        lag_p99: percentile(&lags, 99.0),
    })
}

/// One ladder step's verdict.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// p99 latency, µs.
    pub p99_us: f64,
    /// Whether latency trended upward across the step.
    pub backlog: bool,
    /// Whether the step met the limit.
    pub passed: bool,
}

/// Whether a ladder step at this latency profile meets the limit:
/// p99 under [`P99_LIMIT_US`], no failed request, no growing backlog.
pub fn step_passes(latencies_in_send_order: &[f64]) -> (f64, bool, bool) {
    let p99 = percentile(latencies_in_send_order, 99.0);
    let backlog = backlog_growing(latencies_in_send_order, P99_LIMIT_US / 4.0);
    (p99, backlog, p99 <= P99_LIMIT_US && !backlog)
}

/// `TOPK` capacity ladder from [`LADDER_START`] upward; returns the
/// steps run (the last one failed unless the ladder topped out).
pub fn ladder(
    addr: SocketAddr,
    nodes: usize,
    seed: u64,
    book: &mut Book,
) -> Result<Vec<Step>, String> {
    let mut steps = Vec::new();
    for i in 0..LADDER_MAX_STEPS {
        let rate = LADDER_START * (1.0 + LADDER_GROWTH).powi(i as i32);
        let lines = requests(
            Op::TopK,
            LADDER_REQUESTS,
            nodes,
            seed ^ (i as u64 + 1) << 20,
        );
        let due = schedule(lines.len(), rate);
        let run = open_loop(addr, Op::TopK, &lines, &due, None, false)?;
        book.add_run("ladder", &run);
        let (p99_us, backlog, passed) = step_passes(&run.latencies());
        steps.push(Step {
            rate,
            p99_us,
            backlog,
            passed,
        });
        if !passed {
            break;
        }
    }
    Ok(steps)
}

/// Highest rate of the passing prefix of a ladder (0 when its first
/// step failed).
pub fn capacity(steps: &[Step]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.passed)
        .last()
        .map_or(0.0, |s| s.rate)
}

/// Result of the reload phase.
#[derive(Debug)]
pub struct ReloadPhase {
    /// `RELOAD` round trips, seconds.
    pub round_trips: Vec<f64>,
    /// p99 latency of `TOPK` requests in flight during a `RELOAD`, µs.
    pub topk_p99_during_us: f64,
    /// `TOPK` requests in flight during a `RELOAD`.
    pub topk_during: usize,
}

/// `RELOAD`s of an atomically republished `.spm` on one connection
/// while `TOPK` continues open-loop on another.
pub fn reload_phase(
    served: &Served,
    model: &Path,
    nodes: usize,
    spec: &ServeSpec,
    seed: u64,
    tracer: &Tracer,
    book: &mut Book,
) -> Result<ReloadPhase, String> {
    let republish = ModelFile::read(model).map_err(|e| format!("read {}: {e}", model.display()))?;
    let mut client = served.connect()?;
    let cap = (TOPK_RATE * 60.0) as usize;
    let lines = requests(Op::TopK, cap, nodes, seed ^ 0x7E10AD);
    let due = schedule(cap, TOPK_RATE);
    let stop = AtomicBool::new(false);
    let trace = tracer.enabled();
    let addr = served.addr;
    let (run, reloads) = std::thread::scope(|s| {
        let topk = s.spawn(|| open_loop(addr, Op::TopK, &lines, &due, Some(&stop), trace));
        let reloads = (|| -> Result<Vec<(Instant, Instant)>, String> {
            let mut out = Vec::new();
            for _ in 0..spec.reloads {
                std::thread::sleep(Duration::from_millis(150));
                republish
                    .write_atomic(model)
                    .map_err(|e| format!("republish: {e}"))?;
                let t = Instant::now();
                client.reload().map_err(|e| format!("RELOAD: {e}"))?;
                out.push((t, Instant::now()));
            }
            std::thread::sleep(Duration::from_millis(150));
            Ok(out)
        })();
        stop.store(true, Ordering::Release);
        (topk.join().expect("TOPK thread"), reloads)
    });
    let run = run?;
    book.add_run("reload", &run);
    book.add(
        "reload",
        spec.reloads,
        reloads.as_ref().map_or(spec.reloads, |_| 0),
    );
    let reloads = reloads?;
    tracer.extend(request_spans(tracer, Op::TopK, &run));
    if tracer.enabled() {
        tracer.extend(reloads.iter().map(|&(a, b)| Span {
            id: tracer.next_id(),
            parent: None,
            request: Some(tracer.next_id()),
            name: "tcp.reload",
            start_ns: tracer.ns(a),
            end_ns: tracer.ns(b),
        }));
    }
    let start = run.start.expect("phase start");
    let at = |ns: u64| start + Duration::from_nanos(ns);
    let during: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| {
            reloads
                .iter()
                .any(|&(a, b)| at(s.due_ns) <= b && at(s.done_ns) >= a)
        })
        .map(Sample::latency_us)
        .collect();
    Ok(ReloadPhase {
        round_trips: reloads
            .iter()
            .map(|(a, b)| (*b - *a).as_secs_f64())
            .collect(),
        topk_p99_during_us: if during.is_empty() {
            0.0
        } else {
            percentile(&during, 99.0)
        },
        topk_during: during.len(),
    })
}

/// Probe requests over TCP must be bit-identical to the in-process
/// answers of the same `.spm` and IVF configuration; returns the
/// requests sent.
pub fn check_probes(
    served: &Served,
    local: &ServingStore,
    nodes: usize,
    seed: u64,
) -> Result<usize, String> {
    let mut client = served.connect()?;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9B0B);
    for _ in 0..PROBES {
        let node = rng.gen_range(0..nodes as u32);
        let (_, tcp) = client
            .top_k(node, K)
            .map_err(|e| format!("probe TOPK: {e}"))?;
        let (_, mine) = local.top_k_node(node, K);
        let same = tcp.len() == mine.len()
            && tcp
                .iter()
                .zip(&mine)
                .all(|(a, b)| a.node == b.node && a.score.to_bits() == b.score.to_bits());
        if !same {
            return Err(format!(
                "TOPK {node} over TCP differs from the in-process answer"
            ));
        }
        let (u, v) = (
            rng.gen_range(0..nodes as u32),
            rng.gen_range(0..nodes as u32),
        );
        let (_, tcp) = client.link(u, v).map_err(|e| format!("probe LINK: {e}"))?;
        let (_, mine) = local.link_score(u, v);
        if tcp.to_bits() != mine.to_bits() {
            return Err(format!(
                "LINK {u} {v} over TCP differs from the in-process answer"
            ));
        }
    }
    Ok(2 * PROBES)
}

/// Mean recall@10 of the IVF answers against the exact oracle over a
/// seeded query set.
pub fn recall_at_10(local: &ServingStore, nodes: usize, seed: u64) -> f64 {
    let generation = local.snapshot();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x2EC4);
    let total: f64 = (0..RECALL_QUERIES)
        .map(|_| {
            let q = rng.gen_range(0..nodes as u32);
            let approx = generation.top_k_node(q, K);
            let exact = generation.store.exact_top_k_node(q, K);
            sp_serve::recall_at_k(&approx, &exact)
        })
        .sum();
    total / RECALL_QUERIES as f64
}

/// The in-process serving stack of a `.spm`, as `sp_served` builds it.
pub fn local_stack(model: &Path) -> Result<ServingStore, String> {
    let store =
        EmbeddingStore::open(model).map_err(|e| format!("open {}: {e}", model.display()))?;
    let index = IvfIndex::build(&store, IVF, None);
    Ok(ServingStore::new(store, Some(index)))
}

/// Attempted / failed operations per phase.
#[derive(Debug, Default)]
pub struct Book {
    /// `(phase, attempted, failed)` in first-seen order.
    pub phases: Vec<(&'static str, u64, u64)>,
    /// How late the generator sent each open-loop request, µs.
    pub lags_us: Vec<f64>,
}

impl Book {
    /// Counts `attempted` operations of `phase`, `failed` of them failed.
    pub fn add(&mut self, phase: &'static str, attempted: usize, failed: usize) {
        match self.phases.iter_mut().find(|p| p.0 == phase) {
            Some(p) => {
                p.1 += attempted as u64;
                p.2 += failed as u64;
            }
            None => self.phases.push((phase, attempted as u64, failed as u64)),
        }
    }

    /// Counts one open-loop connection's requests.
    pub fn add_run(&mut self, phase: &'static str, run: &Run) {
        self.add(phase, run.samples.len(), run.failed());
        self.lags_us.extend(run.samples.iter().map(Sample::lag_us));
    }

    /// Totals over every phase.
    pub fn totals(&self) -> (u64, u64) {
        self.phases
            .iter()
            .fold((0, 0), |(a, f), p| (a + p.1, f + p.2))
    }

    /// Attempted operations of the named phases.
    pub fn attempted(&self, names: &[&str]) -> u64 {
        self.phases
            .iter()
            .filter(|p| names.contains(&p.0))
            .map(|p| p.1)
            .sum()
    }
}

/// In-process timings of the serving layers (traced run).
pub fn layer_probes(
    model: &Path,
    nodes: usize,
    seed: u64,
    tracer: &Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let reps = 3;
    let mut read_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut store = None;
    let mut index = None;
    for _ in 0..reps {
        let (s, secs) = tracer.time("model.read", None, |_| EmbeddingStore::open(model));
        let s = s.map_err(|e| format!("open {}: {e}", model.display()))?;
        read_ms.push(secs * 1e3);
        let (i, secs) = tracer.time("ivf.build", None, |_| IvfIndex::build(&s, IVF, None));
        build_ms.push(secs * 1e3);
        store = Some(s);
        index = Some(i);
    }
    let (store, index) = (store.expect("reps > 0"), index.expect("reps > 0"));
    out.push(("model.read_ms", median(&read_ms)));
    out.push(("ivf.build_ms", median(&build_ms)));
    out.push((
        "ivf.list_size_max",
        index.list_sizes().into_iter().max().unwrap_or(0) as f64,
    ));

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1F0);
    let queries: Vec<u32> = (0..2_000).map(|_| rng.gen_range(0..nodes as u32)).collect();
    let mut query_us = Vec::with_capacity(queries.len());
    let mut answer = Vec::new();
    tracer.time("ivf.query", None, |_| {
        for &q in &queries {
            let t = Instant::now();
            answer = index.top_k_node(&store, q, K, IVF.nprobe);
            query_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    out.push(("ivf.query_p50_us", percentile(&query_us, 50.0)));
    out.push(("ivf.query_p99_us", percentile(&query_us, 99.0)));

    let per_call_ns = |name: &'static str, calls: usize, f: &mut dyn FnMut(usize)| {
        let (_, secs) = tracer.time(name, None, |_| {
            for i in 0..calls {
                f(i);
            }
        });
        secs * 1e9 / calls as f64
    };
    // Cache-resident rows, so this is the kernel's cost and not the
    // memory system's.
    let hot: Vec<&[f32]> = (0..64.min(nodes))
        .map(|i| store.embedding(i as u32))
        .collect();
    let calls = 4_000_000;
    let (acc, secs) = tracer.time("linalg.dot_f32", None, |_| {
        let mut acc = 0.0f32;
        for i in 0..calls {
            let (x, y) = (hot[i % hot.len()], hot[(i + 1) % hot.len()]);
            acc += sp_linalg::vector::dot_f32(std::hint::black_box(x), y);
        }
        acc
    });
    std::hint::black_box(acc);
    out.push(("linalg.dot_f32_ns", secs * 1e9 / calls as f64));

    let lines = ["TOPK 4821 10", "LINK 17 9031"];
    let mut parsed = 0usize;
    let parse_ns = per_call_ns("protocol.parse", 1_000_000, &mut |i| {
        parsed += Request::parse(lines[i % 2]).is_ok() as usize;
    });
    std::hint::black_box(parsed);
    out.push(("protocol.parse_ns", parse_ns));

    let mut bytes = 0usize;
    let format_ns = per_call_ns("protocol.format_topk", 200_000, &mut |i| {
        bytes += protocol::format_topk(i as u64, &answer).len();
    });
    out.push(("protocol.format_topk_us", format_ns / 1e3));

    let serving = ServingStore::new(store.clone(), None);
    let mut versions = 0u64;
    let snapshot_ns = per_call_ns("swap.snapshot", 2_000_000, &mut |_| {
        versions += serving.snapshot().version;
    });
    std::hint::black_box(versions);
    out.push(("swap.snapshot_ns", snapshot_ns));

    // The compute side of one LINK: snapshot, score, format.
    let link_ns = per_call_ns("link.inprocess", 1_000_000, &mut |i| {
        let g = serving.snapshot();
        let u = (i % nodes) as u32;
        let v = ((i * 31 + 7) % nodes) as u32;
        let score = g.try_link_score(u, v).unwrap_or(0.0);
        bytes += protocol::format_link(g.version, score).len();
    });
    std::hint::black_box(bytes);
    out.push(("link.inprocess_ns", link_ns + parse_ns));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn framer_splits_pipelined_answers() {
        let mut f = Framer::new(Op::TopK);
        assert_eq!(f.push("OK TOPK version=1 count=2"), None);
        assert_eq!(f.push("1 5 3f800000 1"), None);
        assert_eq!(f.push("2 9 3f000000 0.5"), None);
        assert_eq!(f.push("END"), Some(true));
        assert_eq!(f.push("ERR 404 node 99999 out of range"), Some(false));
        assert_eq!(f.push("OK TOPK version=1 count=0"), None);
        assert_eq!(f.push("END"), Some(true));
        let mut f = Framer::new(Op::Link);
        assert_eq!(
            f.push("OK LINK version=1 bits=3f000000 score=0.5"),
            Some(true)
        );
        assert_eq!(f.push("ERR 400 bad"), Some(false));
    }

    #[test]
    fn drain_report_parses() {
        let d = parse_drain(
            "sp_served drained: 1234 requests (2 errors) over 5 connections (0 rejected)",
        );
        assert_eq!(
            d,
            Some(Drain {
                requests: 1234,
                errors: 2
            })
        );
        assert_eq!(parse_drain("sp_served listening on 127.0.0.1:1"), None);
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        assert_eq!(schedule(3, 1_000.0), vec![0, 1_000_000, 2_000_000]);
        assert_eq!(requests(Op::Link, 5, 10, 7), requests(Op::Link, 5, 10, 7));
    }

    /// A one-connection server that answers every LINK line after a
    /// fixed delay, serially, like `sp_served` does on one connection.
    fn slow_link_server(delay: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            w.write_all(b"SPSERVE 1 READY\n").unwrap();
            for line in BufReader::new(stream).lines() {
                if line.is_err() {
                    break;
                }
                std::thread::sleep(delay);
                if w.write_all(b"OK LINK version=1 bits=0 score=0\n").is_err() {
                    break;
                }
            }
        });
        addr
    }

    #[test]
    fn open_loop_times_from_the_scheduled_send() {
        // Requests due every 1 ms, each taking 3 ms to serve: a closed
        // loop would report 3 ms for every request; the open loop must
        // charge the queueing, so latency grows ~2 ms per request.
        let addr = slow_link_server(Duration::from_millis(3));
        let n = 20;
        let lines = requests(Op::Link, n, 100, 1);
        let run = open_loop(addr, Op::Link, &lines, &schedule(n, 1_000.0), None, false).unwrap();
        assert_eq!(run.samples.len(), n);
        assert_eq!(run.failed(), 0);
        let lat = run.latencies();
        assert!(
            lat[0] >= 3_000.0,
            "first answer takes the service time: {}",
            lat[0]
        );
        assert!(
            lat[n - 1] >= 3_000.0 * n as f64 - 1_000.0 * (n - 1) as f64 - 1_000.0,
            "last request queued behind the others: {}",
            lat[n - 1]
        );
        // The generator kept its schedule even though answers lagged.
        for s in &run.samples {
            assert!(s.lag_us() < 20_000.0, "sender ran late: {} µs", s.lag_us());
        }
        assert!(
            step_passes(&lat).1,
            "a queue that keeps growing is a backlog"
        );
    }

    #[test]
    fn open_loop_reports_generator_lag() {
        // All requests due at once: only the first can be on time; the
        // rest are late by however long the writes before them took.
        let addr = slow_link_server(Duration::from_micros(10));
        let lines = requests(Op::Link, 50, 100, 2);
        let run = open_loop(addr, Op::Link, &lines, &[0; 50], None, false).unwrap();
        assert!(run.samples.windows(2).all(|w| w[1].sent_ns >= w[0].sent_ns));
        assert!(run.samples.iter().all(|s| s.latency_us() >= s.lag_us()));
    }

    #[test]
    fn capacity_is_the_last_passing_step() {
        let step = |rate, passed| Step {
            rate,
            p99_us: 0.0,
            backlog: false,
            passed,
        };
        assert_eq!(
            capacity(&[step(1.0, true), step(2.0, true), step(3.0, false)]),
            2.0
        );
        assert_eq!(capacity(&[step(1.0, false)]), 0.0);
        assert_eq!(
            capacity(&[step(1.0, true), step(2.0, false), step(3.0, true)]),
            1.0
        );
    }

    #[test]
    fn ladder_step_verdicts() {
        let flat = vec![300.0; 1_000];
        assert_eq!(step_passes(&flat), (300.0, false, true));
        let mut slow_tail = flat.clone();
        for v in &mut slow_tail[..20] {
            *v = 2.0 * P99_LIMIT_US;
        }
        assert!(!step_passes(&slow_tail).2, "p99 over the limit fails");
        let mut failed = flat.clone();
        for v in &mut failed[..11] {
            *v = f64::INFINITY;
        }
        assert!(!step_passes(&failed).2, "failures miss the limit");
        let rising: Vec<f64> = (0..1_000).map(|i| 100.0 + 0.8 * i as f64).collect();
        let (p99, backlog, passed) = step_passes(&rising);
        assert!(
            p99 <= P99_LIMIT_US && backlog && !passed,
            "a growing backlog fails"
        );
    }
}
