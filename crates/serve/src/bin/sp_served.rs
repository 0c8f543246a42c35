//! `sp_served` — serve a published `.spm` model over TCP.
//!
//! ```text
//! sp_served --model model.spm --listen 127.0.0.1:7878 \
//!     [--ivf-nlist 64 [--nprobe 8]] [--max-conns 64] \
//!     [--read-timeout-ms 30000] [--write-timeout-ms 10000] [--threads N] \
//!     [--max-line-bytes 4096]
//! ```
//!
//! The server speaks the `SPSERVE 1` line protocol (`TOPK`, `TOPKN`,
//! `LINK`, `INFO`, `STATS`, `RELOAD`, `QUIT`, `SHUTDOWN`); serving a
//! published DP model is pure post-processing, so queries spend no
//! privacy budget. `--nprobe` defaults to ⌈nlist/4⌉. `RELOAD` re-reads
//! `--model`, rebuilds the index the served generation has, and swaps
//! the new generation in atomically; `SHUTDOWN` drains in-flight
//! requests and exits 0.

use sp_serve::{EmbeddingStore, IvfConfig, IvfIndex, Server, ServerConfig, ServingStore};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// `writeln!` to `out` that ignores a failed write: a status line lost
/// to a closed pipe or a full disk must not kill the server.
macro_rules! note {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

fn usage() -> &'static str {
    "usage: sp_served --model <file.spm> --listen <addr:port>\n\
     \t[--ivf-nlist <n> [--nprobe <p>]] [--max-conns 64] [--threads <n>]\n\
     \t[--read-timeout-ms 30000] [--write-timeout-ms 10000] [--max-line-bytes 4096]\n\
     \tServes TOPK/TOPKN/LINK/INFO/STATS/RELOAD/QUIT/SHUTDOWN over the\n\
     \tSPSERVE 1 line protocol; SHUTDOWN drains and exits 0."
}

struct Args {
    model: PathBuf,
    listen: String,
    ivf_nlist: Option<usize>,
    nprobe: Option<usize>,
    max_conns: usize,
    threads: Option<usize>,
    read_timeout_ms: u64,
    write_timeout_ms: u64,
    max_line_bytes: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        model: PathBuf::new(),
        listen: String::new(),
        ivf_nlist: None,
        nprobe: None,
        max_conns: 64,
        threads: None,
        read_timeout_ms: 30_000,
        write_timeout_ms: 10_000,
        max_line_bytes: sp_serve::protocol::DEFAULT_MAX_LINE_BYTES,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        let parse = |s: String, what: &str| -> Result<usize, String> {
            s.parse().map_err(|e| format!("{what}: {e}"))
        };
        match flag {
            "--model" => args.model = PathBuf::from(value(&mut i)?),
            "--listen" => args.listen = value(&mut i)?,
            "--ivf-nlist" => args.ivf_nlist = Some(parse(value(&mut i)?, "--ivf-nlist")?),
            "--nprobe" => args.nprobe = Some(parse(value(&mut i)?, "--nprobe")?),
            "--max-conns" => args.max_conns = parse(value(&mut i)?, "--max-conns")?,
            "--threads" => args.threads = Some(parse(value(&mut i)?, "--threads")?),
            "--read-timeout-ms" => {
                args.read_timeout_ms = parse(value(&mut i)?, "--read-timeout-ms")? as u64
            }
            "--write-timeout-ms" => {
                args.write_timeout_ms = parse(value(&mut i)?, "--write-timeout-ms")? as u64
            }
            "--max-line-bytes" => args.max_line_bytes = parse(value(&mut i)?, "--max-line-bytes")?,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
        i += 1;
    }
    if args.model.as_os_str().is_empty() {
        return Err(format!("--model is required\n{}", usage()));
    }
    if args.listen.is_empty() {
        return Err(format!("--listen is required\n{}", usage()));
    }
    if args.ivf_nlist.is_none() && args.nprobe.is_some() {
        return Err(format!("--nprobe requires --ivf-nlist\n{}", usage()));
    }
    if args.max_conns == 0 {
        return Err("--max-conns must be at least 1".to_string());
    }
    Ok(args)
}

fn run(args: Args) -> Result<(), String> {
    let store = EmbeddingStore::open(&args.model)
        .map_err(|e| format!("cannot load {}: {e}", args.model.display()))?;
    let p = store.provenance();
    note!(
        std::io::stderr(),
        "loaded {}: {} nodes, dim {}, seed {}, ε {:.4}, δ {:.2e}",
        args.model.display(),
        store.num_nodes(),
        store.dim(),
        p.seed,
        p.epsilon,
        p.delta
    );
    let ivf = args
        .ivf_nlist
        .map(|nlist| IvfConfig::with_lists(nlist, args.nprobe));
    let index = ivf.map(|cfg| IvfIndex::build(&store, cfg, args.threads));
    let serving = Arc::new(ServingStore::new(store, index));
    let config = ServerConfig {
        max_conns: args.max_conns,
        read_timeout: Duration::from_millis(args.read_timeout_ms),
        write_timeout: Duration::from_millis(args.write_timeout_ms),
        max_line_bytes: args.max_line_bytes,
        model_path: Some(args.model.clone()),
        threads: args.threads,
    };
    let server = Server::bind(args.listen.as_str(), serving, config)
        .map_err(|e| format!("cannot listen on {}: {e}", args.listen))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    note!(
        std::io::stdout(),
        "sp_served listening on {addr} (SPSERVE {})",
        sp_serve::protocol::PROTOCOL_VERSION
    );
    let stats = server.run().map_err(|e| format!("server failed: {e}"))?;
    note!(
        std::io::stdout(),
        "sp_served drained: {} requests ({} errors) over {} connections ({} rejected)",
        stats.requests,
        stats.errors,
        stats.conns_total,
        stats.conns_rejected
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            note!(std::io::stderr(), "{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// The message `parse_args` rejects `args` with.
    fn rejection(args: &[&str]) -> String {
        match parse_args(&argv(args)) {
            Ok(_) => panic!("{args:?} was accepted"),
            Err(e) => e,
        }
    }

    const BASE: [&str; 4] = ["--model", "m.spm", "--listen", "127.0.0.1:0"];

    #[test]
    fn full_command_line_parses_every_field() {
        let args = parse_args(&argv(&[
            "--model",
            "m.spm",
            "--listen",
            "127.0.0.1:7878",
            "--ivf-nlist",
            "32",
            "--nprobe",
            "4",
            "--max-conns",
            "8",
            "--threads",
            "2",
            "--read-timeout-ms",
            "1500",
            "--write-timeout-ms",
            "2500",
            "--max-line-bytes",
            "4096",
        ]))
        .unwrap();
        assert_eq!(args.model, PathBuf::from("m.spm"));
        assert_eq!(args.listen, "127.0.0.1:7878");
        assert_eq!(args.ivf_nlist, Some(32));
        assert_eq!(args.nprobe, Some(4));
        assert_eq!(args.max_conns, 8);
        assert_eq!(args.threads, Some(2));
        assert_eq!(args.read_timeout_ms, 1500);
        assert_eq!(args.write_timeout_ms, 2500);
        assert_eq!(args.max_line_bytes, 4096);
    }

    #[test]
    fn defaults_fill_the_optional_flags() {
        let args = parse_args(&argv(&BASE)).unwrap();
        assert_eq!(args.ivf_nlist, None);
        assert_eq!(args.nprobe, None);
        assert_eq!(args.max_conns, 64);
        assert_eq!(args.threads, None);
        assert_eq!(args.read_timeout_ms, 30_000);
        assert_eq!(args.write_timeout_ms, 10_000);
        assert_eq!(
            args.max_line_bytes,
            sp_serve::protocol::DEFAULT_MAX_LINE_BYTES
        );
    }

    #[test]
    fn each_bad_command_line_is_rejected_with_its_own_message() {
        let with = |extra: &[&'static str]| -> Vec<&'static str> {
            BASE.iter().chain(extra).copied().collect()
        };
        let cases: [(Vec<&str>, &str); 6] = [
            (with(&["--nprobe", "4"]), "--nprobe requires --ivf-nlist"),
            (
                with(&["--max-conns", "0"]),
                "--max-conns must be at least 1",
            ),
            (vec!["--listen", "127.0.0.1:0"], "--model is required"),
            (vec!["--model", "m.spm"], "--listen is required"),
            (with(&["--bogus"]), "unknown flag \"--bogus\""),
            (with(&["--ivf-nlist", "many"]), "--ivf-nlist: "),
        ];
        for (args, expected) in &cases {
            let message = rejection(args);
            assert!(
                message.starts_with(expected),
                "{args:?} was rejected with {message:?}, expected {expected:?}"
            );
        }
    }
}
