//! Real-dataset ingestion: SNAP and KONECT edge lists, gzip-transparent.
//!
//! SNAP distributes graphs as `#`-commented edge lists (often with a
//! `# Nodes: N Edges: M` banner); KONECT ships `out.<code>` files with
//! `%`-comment meta lines (`% <edges> <nodes> <nodes>`) and an optional
//! `meta.<code>` key-value sidecar. Both may be gzipped. Every source,
//! a file or bytes in memory, takes one path: [`text_stream`] inflates
//! gzip by magic sniff through the streaming decoder, and
//! [`read_edge_list_doc`] parses the lines as they arrive (separator-
//! and line-ending-tolerant, 0-/1-based ids compacted, invalid UTF-8
//! a typed error at its byte offset). For a KONECT `out.*` file a
//! `meta.*` sidecar supplies the counts the file itself does not
//! declare, and declared counts can be enforced
//! ([`LoadError::SizeMismatch`]).

use crate::inflate::InflateError;
use crate::stream::{open_edge_stream, text_stream};
use sp_graph::io::{read_edge_list_doc, EdgeListDoc, IoError, ReadOptions};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};

/// Typed failure of any dataset-loading step. Loaders never panic on
/// malformed input.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem failure (missing file, permissions, …).
    Io(std::io::Error),
    /// The `.gz` wrapper or DEFLATE stream is malformed or truncated.
    Gzip(InflateError),
    /// The (decompressed) file is not UTF-8 text.
    NonUtf8 {
        /// Bytes of valid UTF-8 before the offending byte.
        valid_up_to: usize,
    },
    /// A data line that is not an edge record.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A declared node/edge count that contradicts the data.
    SizeMismatch {
        /// `"nodes"` or `"edges"`.
        what: &'static str,
        /// Count declared by the file or its meta sidecar.
        declared: u64,
        /// Count found in the data.
        actual: u64,
    },
    /// More distinct node ids than the `u32` id space.
    TooManyNodes {
        /// Number of distinct ids seen.
        nodes: u64,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Gzip(e) => write!(f, "gzip error: {e}"),
            LoadError::NonUtf8 { valid_up_to } => {
                write!(f, "not utf-8 text (first invalid byte at {valid_up_to})")
            }
            LoadError::Parse { line, content } => {
                write!(f, "parse error at line {line}: {content:?}")
            }
            LoadError::SizeMismatch {
                what,
                declared,
                actual,
            } => write!(
                f,
                "integrity check failed: {declared} {what} declared, {actual} found"
            ),
            LoadError::TooManyNodes { nodes } => {
                write!(f, "{nodes} distinct node ids exceed the u32 id space")
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    /// An `io::Error` whose source is an [`InflateError`] (how the
    /// streaming gzip decoder reports a malformed stream) becomes
    /// [`LoadError::Gzip`]; any other is [`LoadError::Io`].
    fn from(e: std::io::Error) -> Self {
        match e
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<InflateError>())
        {
            Some(ge) => LoadError::Gzip(ge.clone()),
            None => LoadError::Io(e),
        }
    }
}

impl From<IoError> for LoadError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::Io(e) => e.into(),
            IoError::NonUtf8 { valid_up_to } => LoadError::NonUtf8 { valid_up_to },
            IoError::Parse { line, content } => LoadError::Parse { line, content },
            IoError::SizeMismatch {
                what,
                declared,
                actual,
            } => LoadError::SizeMismatch {
                what,
                declared,
                actual,
            },
            IoError::TooManyNodes { nodes } => LoadError::TooManyNodes { nodes },
        }
    }
}

/// Parses an edge list from in-memory bytes (gzipped or plain),
/// honouring `opts`.
pub fn load_edge_list_bytes(bytes: &[u8], opts: ReadOptions) -> Result<EdgeListDoc, LoadError> {
    Ok(read_edge_list_doc(text_stream(bytes)?, opts)?)
}

/// KONECT sidecar for `out.<code>[.gz]`: the sibling `meta.<code>`.
fn konect_meta_sidecar(path: &Path) -> Option<PathBuf> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".gz").unwrap_or(name);
    let code = stem.strip_prefix("out.")?;
    let meta = path.with_file_name(format!("meta.{code}"));
    meta.is_file().then_some(meta)
}

/// Parses a KONECT `meta.*` key-value sidecar for size declarations.
/// KONECT statistics name the node count `size` and the edge count
/// `volume`; plain `nodes`/`edges` keys are accepted too.
fn parse_meta_counts(text: &str) -> (Option<u64>, Option<u64>) {
    let mut nodes = None;
    let mut edges = None;
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim().replace([',', '_'], "");
        let Ok(v) = value.parse::<u64>() else {
            continue;
        };
        match key.trim().to_ascii_lowercase().as_str() {
            "nodes" | "vertices" | "size" => nodes = nodes.or(Some(v)),
            "edges" | "volume" => edges = edges.or(Some(v)),
            _ => {}
        }
    }
    (nodes, edges)
}

/// Loads an edge-list file from disk (gzip-transparent). For KONECT
/// `out.*` files, a sibling `meta.*` sidecar supplies declared counts
/// when the edge file itself carries none. Declared-count enforcement
/// (when requested) happens after the sidecar merge, so the typed
/// [`LoadError::SizeMismatch`] covers both sources.
///
/// The file is *streamed*: gzip members inflate incrementally through
/// [`crate::stream::GzipStreamReader`] and lines parse as they arrive,
/// so resident memory is the parsed graph plus fixed-size buffers —
/// never the raw or decompressed file.
pub fn load_edge_list_path(path: &Path, opts: ReadOptions) -> Result<EdgeListDoc, LoadError> {
    let parse_opts = ReadOptions {
        enforce_declared_counts: false,
        ..opts
    };
    let mut doc = read_edge_list_doc(open_edge_stream(path)?, parse_opts)?;
    if doc.declared_nodes.is_none() || doc.declared_edges.is_none() {
        if let Some(meta) = konect_meta_sidecar(path) {
            let mut bytes = Vec::new();
            text_stream(BufReader::new(File::open(&meta)?))?.read_to_end(&mut bytes)?;
            let text = std::str::from_utf8(&bytes).map_err(|e| LoadError::NonUtf8 {
                valid_up_to: e.valid_up_to(),
            })?;
            let (n, m) = parse_meta_counts(text);
            doc.declared_nodes = doc.declared_nodes.or(n);
            doc.declared_edges = doc.declared_edges.or(m);
        }
    }
    if opts.enforce_declared_counts {
        doc.check_declared_counts()?;
    }
    Ok(doc)
}

/// What a paper dataset looks like on disk: the filenames it is
/// distributed under and the published size for integrity reporting.
#[derive(Clone, Copy, Debug)]
pub struct DatasetManifest {
    /// Display name (matches [`crate::PaperDataset::name`]).
    pub name: &'static str,
    /// Edge-list filename candidates, in preference order. Each is
    /// also tried with a `.gz` suffix and inside a lower-cased
    /// `<name>/` subdirectory of the data dir.
    pub candidates: &'static [&'static str],
    /// Published `|V|` (for deviation reporting, not enforcement —
    /// mirrors vary slightly in preprocessing).
    pub expected_nodes: usize,
    /// Published `|E|`.
    pub expected_edges: usize,
}

impl DatasetManifest {
    /// All paths that will be probed for this dataset under `dir`, in
    /// order.
    pub fn probe_paths(&self, dir: &Path) -> Vec<PathBuf> {
        let sub = self.name.to_ascii_lowercase();
        let mut out = Vec::new();
        for base in [dir.to_path_buf(), dir.join(&sub)] {
            for name in self.candidates {
                out.push(base.join(name));
                out.push(base.join(format!("{name}.gz")));
            }
        }
        out
    }

    /// First existing edge-list candidate under `dir`, if any.
    pub fn locate(&self, dir: &Path) -> Option<PathBuf> {
        self.probe_paths(dir).into_iter().find(|p| p.is_file())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::gzip_store;

    #[test]
    fn plain_and_gzipped_bytes_parse_identically() {
        let text = b"% sym\n% 3 3 3\n1 2\n2 3\n3 1\n";
        let a = load_edge_list_bytes(text, ReadOptions::default()).unwrap();
        let b = load_edge_list_bytes(&gzip_store(text), ReadOptions::default()).unwrap();
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert_eq!(a.declared_edges, Some(3));
        assert_eq!(b.declared_nodes, Some(3));
    }

    #[test]
    fn non_utf8_is_typed() {
        let err = load_edge_list_bytes(&[0x31, 0x20, 0x32, 0xFF, 0xFE], ReadOptions::default())
            .unwrap_err();
        assert!(matches!(err, LoadError::NonUtf8 { valid_up_to: 3 }));
    }

    #[test]
    fn truncated_gzip_is_typed() {
        let z = gzip_store(b"1 2\n2 3\n");
        let err = load_edge_list_bytes(&z[..z.len() - 5], ReadOptions::default()).unwrap_err();
        assert!(matches!(err, LoadError::Gzip(InflateError::UnexpectedEof)));
    }

    #[test]
    fn meta_sidecar_counts_parsed() {
        let (n, m) = parse_meta_counts("name: Test\nsize: 4941\nvolume: 6594\n");
        assert_eq!(n, Some(4941));
        assert_eq!(m, Some(6594));
        let (n, m) = parse_meta_counts("nodes: 10\nedges: 20\n");
        assert_eq!((n, m), (Some(10), Some(20)));
        let (n, m) = parse_meta_counts("category: Social\n");
        assert_eq!((n, m), (None, None));
    }
}
