//! A small blocking client for the `SPSERVE 1` line protocol — the
//! counterpart of [`crate::server`], used by the TCP benchmark path,
//! the integration suites, and any tool that wants typed answers
//! instead of raw lines.
//!
//! The client parses the `bits=` field (raw f32 bit patterns), so the
//! scores it returns are **bit-identical** to what the server computed
//! — no decimal round-tripping on the wire.

use crate::protocol::{MAX_BULK_NODES, MAX_K, PROTOCOL_VERSION};
use crate::store::Neighbor;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Typed failure of a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (refused, reset, timeout, …).
    Io(std::io::Error),
    /// The server answered with an `ERR` line.
    Server {
        /// Protocol error code (`400`, `404`, `408`, `500`, `503`).
        code: u16,
        /// The server's message.
        message: String,
    },
    /// The server sent something the client cannot parse (version
    /// skew, truncated block, garbage).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Provenance and shape reported by `INFO`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerInfo {
    /// Served model generation.
    pub version: u64,
    /// Node count.
    pub nodes: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Training seed from the model's provenance header.
    pub seed: u64,
    /// ε spent by the run that produced the served model.
    pub epsilon: f64,
    /// δ spent by the run that produced the served model.
    pub delta: f64,
    /// Index description (`exact` or `ivf(nlist=…,nprobe=…)`).
    pub index: String,
}

/// One node's ranked answer inside a bulk [`ServeClient::top_k_bulk`]
/// response: `(queried node, neighbours)`.
pub type BulkAnswer = (u32, Vec<Neighbor>);

/// One connection speaking `SPSERVE 1`.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    /// Connects and validates the greeting.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Like [`ServeClient::connect`], but bounds the TCP connect to
    /// `timeout` **per resolved address** via
    /// `TcpStream::connect_timeout` — a dead or black-holed server
    /// fails fast instead of hanging on the OS default (minutes on
    /// most platforms). Addresses are tried in resolution order; the
    /// last failure is returned if none succeeds.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let mut last: Option<std::io::Error> = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to no socket addresses",
            )
        })))
    }

    fn from_stream(stream: TcpStream) -> Result<Self, ClientError> {
        stream.set_nodelay(true).ok();
        let mut client = Self {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        };
        let greeting = client.read_line()?;
        if let Some(rest) = greeting.strip_prefix("ERR ") {
            let (code, message) = split_err(rest);
            return Err(ClientError::Server { code, message });
        }
        let expected = format!("SPSERVE {PROTOCOL_VERSION} READY");
        if greeting != expected {
            return Err(ClientError::Protocol(format!(
                "unexpected greeting {greeting:?} (want {expected:?})"
            )));
        }
        Ok(client)
    }

    /// Sends raw bytes (failure-injection tests use this to speak
    /// garbage at the server).
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Reads one response line, stripped of the terminator.
    pub fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let mut raw = Vec::new();
        self.reader.read_until(b'\n', &mut raw)?;
        if raw.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        line.push_str(&String::from_utf8_lossy(&raw));
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn request_line(&mut self, request: &str) -> Result<String, ClientError> {
        self.stream.write_all(request.as_bytes())?;
        self.stream.write_all(b"\n")?;
        let line = self.read_line()?;
        if let Some(rest) = line.strip_prefix("ERR ") {
            let (code, message) = split_err(rest);
            return Err(ClientError::Server { code, message });
        }
        Ok(line)
    }

    /// `TOPK node k` → `(generation version, ranked neighbours)`,
    /// scores recovered bit-exactly from the wire.
    pub fn top_k(&mut self, node: u32, k: usize) -> Result<(u64, Vec<Neighbor>), ClientError> {
        let header = self.request_line(&format!("TOPK {node} {k}"))?;
        let version = field(&header, "version=")?;
        let answer = self.read_ranked(field(&header, "count=")?)?;
        self.expect_end()?;
        Ok((version, answer))
    }

    /// Reads `count` `<rank> <node> <bits> <score>` lines, ranks in
    /// order from 1, each score recovered from its bit pattern.
    fn read_ranked(&mut self, count: usize) -> Result<Vec<Neighbor>, ClientError> {
        // The count comes off the wire: a server answers at most MAX_K.
        let mut answer = Vec::with_capacity(count.min(MAX_K));
        for rank in 1..=count {
            let line = self.read_line()?;
            let mut parts = line.split_ascii_whitespace();
            let got_rank: usize = parse_next(&mut parts, "rank")?;
            if got_rank != rank {
                return Err(ClientError::Protocol(format!(
                    "rank {got_rank} out of order (expected {rank})"
                )));
            }
            let node = parse_next(&mut parts, "node")?;
            let bits = parts
                .next()
                .ok_or_else(|| ClientError::Protocol("missing bits field".to_string()))?;
            answer.push(Neighbor {
                node,
                score: parse_bits(bits)?,
            });
        }
        Ok(answer)
    }

    /// `TOPKN k node…` → `(generation version, per-node ranked
    /// neighbours in request order)`, all answered from one server-side
    /// snapshot; scores recovered bit-exactly from the wire.
    pub fn top_k_bulk(
        &mut self,
        nodes: &[u32],
        k: usize,
    ) -> Result<(u64, Vec<BulkAnswer>), ClientError> {
        let mut request = format!("TOPKN {k}");
        for node in nodes {
            request.push(' ');
            request.push_str(&node.to_string());
        }
        let header = self.request_line(&request)?;
        let version = field(&header, "version=")?;
        let count: usize = field(&header, "nodes=")?;
        let mut answers = Vec::with_capacity(count.min(MAX_BULK_NODES));
        for _ in 0..count {
            let sub = self.read_line()?;
            let rest = sub
                .strip_prefix("NODE ")
                .ok_or_else(|| ClientError::Protocol(format!("expected NODE, got {sub:?}")))?;
            let mut parts = rest.split_ascii_whitespace();
            let node = parse_next(&mut parts, "node")?;
            let answer = self.read_ranked(parse_next(&mut parts, "count")?)?;
            answers.push((node, answer));
        }
        self.expect_end()?;
        Ok((version, answers))
    }

    /// `LINK u v` → `(generation version, bit-exact score)`.
    pub fn link(&mut self, u: u32, v: u32) -> Result<(u64, f32), ClientError> {
        let line = self.request_line(&format!("LINK {u} {v}"))?;
        let version = field(&line, "version=")?;
        let bits: String = field(&line, "bits=")?;
        Ok((version, parse_bits(&bits)?))
    }

    /// `INFO` → provenance and serving parameters.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        let line = self.request_line("INFO")?;
        Ok(ServerInfo {
            version: field(&line, "version=")?,
            nodes: field(&line, "nodes=")?,
            dim: field(&line, "dim=")?,
            seed: field(&line, "seed=")?,
            epsilon: field(&line, "epsilon=")?,
            delta: field(&line, "delta=")?,
            index: field::<String>(&line, "index=")?,
        })
    }

    /// `STATS` → the raw response lines (header first, `END` stripped).
    pub fn stats(&mut self) -> Result<Vec<String>, ClientError> {
        let header = self.request_line("STATS")?;
        let mut lines = vec![header];
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    /// `RELOAD` → the new generation version.
    pub fn reload(&mut self) -> Result<u64, ClientError> {
        let line = self.request_line("RELOAD")?;
        field(&line, "version=")
    }

    /// `SHUTDOWN`: asks the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.request_line("SHUTDOWN").map(|_| ())
    }

    /// `QUIT`: closes this connection cleanly.
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.request_line("QUIT").map(|_| ())
    }

    fn expect_end(&mut self) -> Result<(), ClientError> {
        let line = self.read_line()?;
        if line == "END" {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!("expected END, got {line:?}")))
        }
    }
}

/// A score from its eight-hex-digit f32 bit pattern.
fn parse_bits(text: &str) -> Result<f32, ClientError> {
    u32::from_str_radix(text, 16)
        .map(f32::from_bits)
        .map_err(|e| ClientError::Protocol(format!("bad bits field: {e}")))
}

fn split_err(rest: &str) -> (u16, String) {
    let mut parts = rest.splitn(2, ' ');
    let code = parts.next().and_then(|c| c.parse().ok()).unwrap_or(0);
    let message = parts.next().unwrap_or("").to_string();
    (code, message)
}

/// Extracts `key=value` from a response line and parses the value.
fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, ClientError>
where
    T::Err: fmt::Display,
{
    let value = line
        .split_ascii_whitespace()
        .find_map(|part| part.strip_prefix(key))
        .ok_or_else(|| ClientError::Protocol(format!("missing {key} in {line:?}")))?;
    value
        .parse()
        .map_err(|e| ClientError::Protocol(format!("bad {key} field: {e}")))
}

fn parse_next<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, ClientError>
where
    T::Err: fmt::Display,
{
    parts
        .next()
        .ok_or_else(|| ClientError::Protocol(format!("missing {what} field")))?
        .parse()
        .map_err(|e| ClientError::Protocol(format!("bad {what} field: {e}")))
}
