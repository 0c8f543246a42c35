//! The `SPSERVE` line protocol version 1 — the wire format of the
//! [`sp_served`](crate::server) TCP front-end.
//!
//! Every request is one UTF-8 line (`\n`-terminated, `\r\n` tolerated)
//! and every response is either a single `OK …`/`ERR …` line or an
//! `OK …` header followed by payload lines and a terminating `END`.
//! On connect the server greets with `SPSERVE 1 READY` so clients can
//! verify the protocol version before sending anything.
//!
//! | Request | Response |
//! |---|---|
//! | `TOPK <node> <k>` | `OK TOPK version=<v> count=<n>`, then `<rank> <node> <bits> <score>` × n, then `END` |
//! | `TOPKN <k> <node…>` | `OK TOPKN version=<v> nodes=<n> k=<k>`, then per node `NODE <node> <count>` + `<rank> <node> <bits> <score>` × count, then `END` |
//! | `LINK <u> <v>` | `OK LINK version=<v> bits=<hex8> score=<dec>` |
//! | `INFO` | `OK INFO version=<v> nodes=<n> dim=<d> seed=<s> epsilon=<e> delta=<e> index=<desc>` |
//! | `STATS` | `OK STATS <counters…>`, then `GEN <version> <hits>` per generation, then `END` |
//! | `RELOAD` | `OK RELOAD version=<v>` |
//! | `QUIT` | `OK BYE`, connection closes |
//! | `SHUTDOWN` | `OK SHUTDOWN draining`, server drains and exits |
//!
//! Scores travel twice: as the exact **f32 bit pattern** (`bits`, eight
//! lowercase hex digits) and as a human-readable decimal. The bit
//! pattern is the contract — a client that parses it with
//! [`f32::from_bits`] recovers answers bit-identical to an in-process
//! query (asserted by `tests/served_tcp.rs`).
//!
//! Failures are `ERR <code> <message>` lines and never terminate the
//! server: `400` malformed request, `404` unknown node / dimension
//! mismatch, `408` idle timeout, `500` reload failure, `503` over
//! capacity or shutting down.

use crate::store::{Neighbor, QueryError};
use std::fmt::Write;

/// The protocol version this build speaks (greeting `SPSERVE 1`).
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on one request line; longer lines are rejected with
/// `ERR 400` and the connection is closed (the stream cannot resync).
/// Sized so a full `TOPKN` line ([`MAX_BULK_NODES`] ten-digit node
/// ids plus the command and `k`) fits with room to spare.
pub const DEFAULT_MAX_LINE_BYTES: usize = 4096;

/// Upper bound on `k` in a `TOPK` request — a single query must not be
/// able to pin a worker on an absurd result size.
pub const MAX_K: usize = 10_000;

/// Upper bound on the node count of one `TOPKN` request — bulk
/// queries amortise round-trips, they must not become a way to pin a
/// worker on an unbounded batch.
pub const MAX_BULK_NODES: usize = 128;

/// Every command, in protocol order, by the name `STATS` gives its
/// per-command counter; [`Request::command`] indexes it.
pub const COMMANDS: [&str; 8] = [
    "topk", "topkn", "link", "info", "stats", "reload", "quit", "shutdown",
];

/// One parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Top-k neighbours of a stored node.
    TopK {
        /// Query node id.
        node: u32,
        /// Result size.
        k: usize,
    },
    /// Top-k neighbours of several stored nodes, answered from one
    /// store snapshot (every per-node block carries the same
    /// generation version).
    TopKN {
        /// Query node ids, answered in request order.
        nodes: Vec<u32>,
        /// Result size per node.
        k: usize,
    },
    /// Link score between two stored nodes.
    Link {
        /// Source node.
        u: u32,
        /// Target node.
        v: u32,
    },
    /// Model provenance and serving parameters.
    Info,
    /// Server counters and latency quantiles.
    Stats,
    /// Atomic generation swap from the configured model path.
    Reload,
    /// Close this connection.
    Quit,
    /// Drain in-flight requests and stop the server.
    Shutdown,
}

impl Request {
    /// Parses one request line (already stripped of `\n`/`\r\n`).
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut parts = line.split_ascii_whitespace();
        let cmd = parts.next().ok_or_else(|| "empty request".to_string())?;
        let rest: Vec<&str> = parts.collect();
        let arg = |i: usize, what: &str| -> Result<&str, String> {
            rest.get(i)
                .copied()
                .ok_or_else(|| format!("{cmd} missing <{what}>"))
        };
        let exactly = |n: usize| -> Result<(), String> {
            if rest.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "{cmd} takes {n} argument{}, got {}",
                    if n == 1 { "" } else { "s" },
                    rest.len()
                ))
            }
        };
        match cmd.to_ascii_uppercase().as_str() {
            "TOPK" => {
                exactly(2)?;
                let node: u32 = arg(0, "node")?
                    .parse()
                    .map_err(|e| format!("TOPK node: {e}"))?;
                let k: usize = arg(1, "k")?.parse().map_err(|e| format!("TOPK k: {e}"))?;
                if k == 0 || k > MAX_K {
                    return Err(format!("TOPK k must be in 1..={MAX_K}, got {k}"));
                }
                Ok(Request::TopK { node, k })
            }
            "TOPKN" => {
                if rest.len() < 2 {
                    return Err(format!(
                        "TOPKN takes <k> and at least one <node>, got {} argument{}",
                        rest.len(),
                        if rest.len() == 1 { "" } else { "s" }
                    ));
                }
                let k: usize = arg(0, "k")?.parse().map_err(|e| format!("TOPKN k: {e}"))?;
                if k == 0 || k > MAX_K {
                    return Err(format!("TOPKN k must be in 1..={MAX_K}, got {k}"));
                }
                let node_args = &rest[1..];
                if node_args.len() > MAX_BULK_NODES {
                    return Err(format!(
                        "TOPKN takes at most {MAX_BULK_NODES} nodes, got {}",
                        node_args.len()
                    ));
                }
                let nodes = node_args
                    .iter()
                    .map(|s| s.parse::<u32>().map_err(|e| format!("TOPKN node: {e}")))
                    .collect::<Result<Vec<u32>, String>>()?;
                Ok(Request::TopKN { nodes, k })
            }
            "LINK" => {
                exactly(2)?;
                let u: u32 = arg(0, "u")?.parse().map_err(|e| format!("LINK u: {e}"))?;
                let v: u32 = arg(1, "v")?.parse().map_err(|e| format!("LINK v: {e}"))?;
                Ok(Request::Link { u, v })
            }
            "INFO" => exactly(0).map(|()| Request::Info),
            "STATS" => exactly(0).map(|()| Request::Stats),
            "RELOAD" => exactly(0).map(|()| Request::Reload),
            "QUIT" => exactly(0).map(|()| Request::Quit),
            "SHUTDOWN" => exactly(0).map(|()| Request::Shutdown),
            other => Err(format!("unknown command {other:?}")),
        }
    }

    /// This request's command: its position in [`COMMANDS`].
    pub fn command(&self) -> usize {
        match self {
            Request::TopK { .. } => 0,
            Request::TopKN { .. } => 1,
            Request::Link { .. } => 2,
            Request::Info => 3,
            Request::Stats => 4,
            Request::Reload => 5,
            Request::Quit => 6,
            Request::Shutdown => 7,
        }
    }
}

/// The connection greeting, newline-terminated.
pub fn greeting() -> String {
    format!("SPSERVE {PROTOCOL_VERSION} READY\n")
}

/// One `ERR` line. The message is flattened to a single line so a
/// multi-line error can never desynchronise the framing.
pub fn err_line(code: u16, message: &str) -> String {
    let flat: String = message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {code} {flat}\n")
}

/// The protocol error code a typed query rejection maps to.
pub fn query_error_code(err: &QueryError) -> u16 {
    match err {
        QueryError::DimensionMismatch { .. } | QueryError::NodeOutOfRange { .. } => 404,
    }
}

/// Appends one `<rank> <node> <bits> <score>` line per neighbour:
/// rank is 1-based, `bits` the exact f32 bit pattern in eight
/// lowercase hex digits, `score` its decimal rendering.
fn push_ranked(out: &mut String, answer: &[Neighbor]) {
    for (rank, n) in answer.iter().enumerate() {
        writeln!(
            out,
            "{} {} {:08x} {}",
            rank + 1,
            n.node,
            n.score.to_bits(),
            n.score
        )
        .expect("writing to a String cannot fail");
    }
}

/// The `TOPK` response block: header, one ranked line per neighbour,
/// `END`.
pub fn format_topk(version: u64, answer: &[Neighbor]) -> String {
    let mut out = format!("OK TOPK version={version} count={}\n", answer.len());
    push_ranked(&mut out, answer);
    out.push_str("END\n");
    out
}

/// The `TOPKN` response block: header, then one `NODE <node> <count>`
/// sub-header per queried node followed by its ranked lines (the
/// `TOPK` shape), then one `END`. Every block was answered from the
/// same store snapshot, so a single `version=` field covers them all.
pub fn format_topkn(version: u64, k: usize, answers: &[(u32, Vec<Neighbor>)]) -> String {
    let mut out = format!("OK TOPKN version={version} nodes={} k={k}\n", answers.len());
    for (node, answer) in answers {
        out.push_str(&format!("NODE {node} {}\n", answer.len()));
        push_ranked(&mut out, answer);
    }
    out.push_str("END\n");
    out
}

/// The `LINK` response line.
pub fn format_link(version: u64, score: f32) -> String {
    format!(
        "OK LINK version={version} bits={:08x} score={score}\n",
        score.to_bits()
    )
}

/// The `INFO` response line. `f64` fields use Rust's shortest
/// round-trip formatting, so `epsilon`/`delta` parse back exactly.
#[allow(clippy::too_many_arguments)]
pub fn format_info(
    version: u64,
    nodes: usize,
    dim: usize,
    seed: u64,
    epsilon: f64,
    delta: f64,
    index: &str,
) -> String {
    format!(
        "OK INFO version={version} nodes={nodes} dim={dim} seed={seed} \
         epsilon={epsilon} delta={delta} index={index}\n"
    )
}

/// The `RELOAD` acknowledgement.
pub fn format_reload(version: u64) -> String {
    format!("OK RELOAD version={version}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            Request::parse("TOPK 3 10"),
            Ok(Request::TopK { node: 3, k: 10 })
        );
        assert_eq!(
            Request::parse("TOPKN 5 1 2 3"),
            Ok(Request::TopKN {
                nodes: vec![1, 2, 3],
                k: 5
            })
        );
        assert_eq!(
            Request::parse("topkn 2 9"),
            Ok(Request::TopKN {
                nodes: vec![9],
                k: 2
            })
        );
        assert_eq!(Request::parse("link 1 2"), Ok(Request::Link { u: 1, v: 2 }));
        assert_eq!(Request::parse("INFO"), Ok(Request::Info));
        assert_eq!(Request::parse("STATS"), Ok(Request::Stats));
        assert_eq!(Request::parse("RELOAD"), Ok(Request::Reload));
        assert_eq!(Request::parse("QUIT"), Ok(Request::Quit));
        assert_eq!(Request::parse("SHUTDOWN"), Ok(Request::Shutdown));
        // Extra whitespace is tolerated.
        assert_eq!(
            Request::parse("  TOPK   7   2  "),
            Ok(Request::TopK { node: 7, k: 2 })
        );
        // Each command counts under its own name.
        for line in [
            "TOPK 3 10",
            "TOPKN 5 1 2",
            "LINK 1 2",
            "INFO",
            "STATS",
            "RELOAD",
            "QUIT",
            "SHUTDOWN",
        ] {
            let name = line.split(' ').next().unwrap().to_ascii_lowercase();
            assert_eq!(COMMANDS[Request::parse(line).unwrap().command()], name);
        }
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        assert!(Request::parse("").unwrap_err().contains("empty"));
        assert!(Request::parse("FROB 1").unwrap_err().contains("unknown"));
        assert!(Request::parse("TOPK").unwrap_err().contains("argument"));
        assert!(Request::parse("TOPK 1").unwrap_err().contains("argument"));
        assert!(Request::parse("TOPK 1 2 3")
            .unwrap_err()
            .contains("argument"));
        assert!(Request::parse("TOPK x 2").unwrap_err().contains("node"));
        assert!(Request::parse("TOPK 1 -2").unwrap_err().contains("k"));
        assert!(Request::parse("LINK 1 nope").unwrap_err().contains("v"));
        assert!(Request::parse("INFO now").unwrap_err().contains("argument"));
        let huge = format!("TOPK 1 {}", MAX_K + 1);
        assert!(Request::parse(&huge).unwrap_err().contains("1..="));
        assert!(Request::parse("TOPK 1 0").unwrap_err().contains("1..="));
    }

    #[test]
    fn topkn_bounds_are_enforced() {
        assert!(Request::parse("TOPKN").unwrap_err().contains("at least"));
        assert!(Request::parse("TOPKN 5").unwrap_err().contains("at least"));
        assert!(Request::parse("TOPKN 0 1").unwrap_err().contains("1..="));
        let huge_k = format!("TOPKN {} 1", MAX_K + 1);
        assert!(Request::parse(&huge_k).unwrap_err().contains("1..="));
        assert!(Request::parse("TOPKN x 1").unwrap_err().contains("k"));
        assert!(Request::parse("TOPKN 5 1 nope")
            .unwrap_err()
            .contains("node"));
        let ids: Vec<String> = (0..=MAX_BULK_NODES as u32).map(|i| i.to_string()).collect();
        let too_many = format!("TOPKN 3 {}", ids.join(" "));
        assert!(Request::parse(&too_many).unwrap_err().contains("at most"));
        // Exactly MAX_BULK_NODES is accepted — and fits the default
        // line cap even with worst-case ten-digit ids.
        let wide: Vec<String> = (0..MAX_BULK_NODES).map(|_| u32::MAX.to_string()).collect();
        let at_cap = format!("TOPKN {MAX_K} {}", wide.join(" "));
        assert!(at_cap.len() <= DEFAULT_MAX_LINE_BYTES, "{}", at_cap.len());
        match Request::parse(&at_cap) {
            Ok(Request::TopKN { nodes, k }) => {
                assert_eq!(nodes.len(), MAX_BULK_NODES);
                assert_eq!(k, MAX_K);
            }
            other => panic!("expected TopKN, got {other:?}"),
        }
    }

    #[test]
    fn topkn_block_round_trips_bits() {
        let answers = vec![
            (
                7u32,
                vec![
                    Neighbor {
                        node: 1,
                        score: 0.5,
                    },
                    Neighbor {
                        node: 2,
                        score: f32::NAN,
                    },
                ],
            ),
            (9u32, vec![]),
        ];
        let block = format_topkn(3, 2, &answers);
        let lines: Vec<&str> = block.lines().collect();
        assert_eq!(lines[0], "OK TOPKN version=3 nodes=2 k=2");
        assert_eq!(lines[1], "NODE 7 2");
        assert_eq!(lines[4], "NODE 9 0");
        assert_eq!(*lines.last().unwrap(), "END");
        let fields: Vec<&str> = lines[3].split(' ').collect();
        let bits = u32::from_str_radix(fields[2], 16).unwrap();
        assert_eq!(bits, f32::NAN.to_bits(), "bit pattern survives the wire");
    }

    #[test]
    fn topk_block_round_trips_bits() {
        let answer = vec![
            Neighbor {
                node: 5,
                score: f32::NAN,
            },
            Neighbor {
                node: 2,
                score: -0.0,
            },
        ];
        let block = format_topk(7, &answer);
        let lines: Vec<&str> = block.lines().collect();
        assert_eq!(lines[0], "OK TOPK version=7 count=2");
        assert_eq!(lines[3], "END");
        for (i, n) in answer.iter().enumerate() {
            let fields: Vec<&str> = lines[1 + i].split(' ').collect();
            assert_eq!(fields[0], (i + 1).to_string());
            assert_eq!(fields[1], n.node.to_string());
            let bits = u32::from_str_radix(fields[2], 16).unwrap();
            assert_eq!(bits, n.score.to_bits(), "bit pattern survives the wire");
        }
    }

    #[test]
    fn err_line_flattens_newlines() {
        let line = err_line(400, "bad\nrequest\r\nhere");
        assert_eq!(line.matches('\n').count(), 1);
        assert!(line.starts_with("ERR 400 "));
    }

    #[test]
    fn info_numbers_round_trip() {
        let line = format_info(3, 100, 16, 42, 3.5, 1e-5, "exact");
        let eps: f64 = line
            .split_whitespace()
            .find_map(|f| f.strip_prefix("epsilon="))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(eps, 3.5);
        let inf = format_info(1, 1, 1, 0, f64::INFINITY, 0.0, "exact");
        let eps: f64 = inf
            .split_whitespace()
            .find_map(|f| f.strip_prefix("epsilon="))
            .unwrap()
            .parse()
            .unwrap();
        assert!(eps.is_infinite());
    }
}
