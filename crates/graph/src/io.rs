//! Edge-list I/O.
//!
//! The six paper datasets are distributed as SNAP / KONECT edge lists;
//! this module reads and writes that family of formats so real
//! datasets can be dropped in alongside the synthetic stand-ins.
//!
//! Accepted input shape:
//! - one edge per line, first two fields are the endpoints; extra
//!   fields (KONECT weight/timestamp columns) are ignored;
//! - fields separated by any mix of spaces, tabs, and commas;
//! - `\n` or `\r\n` line endings;
//! - `#` (SNAP) and `%` (KONECT) comment lines;
//! - node ids are arbitrary non-negative integers (0- or 1-based,
//!   sparse or dense) and are compacted to `0..|V|` in first-seen
//!   order — the returned id map witnesses the relabeling.
//!
//! The reader is *header-aware*: SNAP `# Nodes: N Edges: M` comments,
//! this module's own `# nodes N edges M` banner, and the KONECT
//! numeric `% M N N` meta line are parsed into declared counts, which
//! [`ReadOptions::enforce_declared_counts`] turns into an integrity
//! check ([`IoError::SizeMismatch`]).

use crate::graph::{Graph, NodeId};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Error type for edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The text is not UTF-8.
    NonUtf8 {
        /// Bytes of valid UTF-8 before the offending byte.
        valid_up_to: usize,
    },
    /// A line that is neither a comment nor a valid `u v` pair.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A self-loop on a line, with [`ReadOptions::forbid_self_loops`].
    SelfLoop {
        /// 1-based line number.
        line: usize,
    },
    /// A repeated edge (either orientation), with
    /// [`ReadOptions::forbid_duplicates`].
    DuplicateEdge {
        /// 1-based line number.
        line: usize,
    },
    /// A header-declared node or edge count that contradicts the data,
    /// with [`ReadOptions::enforce_declared_counts`].
    SizeMismatch {
        /// `"nodes"` or `"edges"`.
        what: &'static str,
        /// Count declared in the header.
        declared: u64,
        /// Count found in the data.
        actual: u64,
    },
    /// More distinct node ids than the `u32` id space can hold.
    TooManyNodes {
        /// Number of distinct ids seen.
        nodes: u64,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::NonUtf8 { valid_up_to } => {
                write!(f, "not utf-8 text (first invalid byte at {valid_up_to})")
            }
            IoError::Parse { line, content } => {
                write!(f, "parse error at line {line}: {content:?}")
            }
            IoError::SelfLoop { line } => write!(f, "self-loop at line {line}"),
            IoError::DuplicateEdge { line } => write!(f, "duplicate edge at line {line}"),
            IoError::SizeMismatch {
                what,
                declared,
                actual,
            } => write!(
                f,
                "header declares {declared} {what} but the data has {actual}"
            ),
            IoError::TooManyNodes { nodes } => {
                write!(f, "{nodes} distinct node ids exceed the u32 id space")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Knobs for [`read_edge_list_doc`]. The default is the lenient,
/// real-data posture: self-loops and duplicates are dropped (and
/// counted), declared counts are recorded but not enforced.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadOptions {
    /// Fail with [`IoError::SelfLoop`] instead of dropping self-loops.
    pub forbid_self_loops: bool,
    /// Fail with [`IoError::DuplicateEdge`] instead of deduplicating.
    pub forbid_duplicates: bool,
    /// Fail with [`IoError::SizeMismatch`] when a header-declared
    /// count contradicts the parsed data; see
    /// [`EdgeListDoc::check_declared_counts`] for the exact rules.
    pub enforce_declared_counts: bool,
    /// Silently skip the first data line when it is non-numeric — the
    /// `id1,id2` column banner of SNAP musae CSV exports. Off by
    /// default so a malformed first line stays a parse error.
    pub skip_column_header: bool,
}

impl ReadOptions {
    /// Strict simple-graph posture: any self-loop, duplicate edge, or
    /// declared-count mismatch is an error.
    pub fn strict() -> Self {
        Self {
            forbid_self_loops: true,
            forbid_duplicates: true,
            enforce_declared_counts: true,
            skip_column_header: false,
        }
    }
}

/// A parsed edge list plus everything the file said about itself.
#[derive(Debug)]
pub struct EdgeListDoc {
    /// The simple graph (self-loops and duplicates removed).
    pub graph: Graph,
    /// Original id → dense id, in first-seen order.
    pub id_map: HashMap<u64, NodeId>,
    /// Node count declared by a recognised header, if any.
    pub declared_nodes: Option<u64>,
    /// Edge count declared by a recognised header, if any.
    pub declared_edges: Option<u64>,
    /// Non-comment, non-blank lines (raw edge records, including
    /// self-loops and duplicates).
    pub data_lines: usize,
    /// Self-loop records dropped.
    pub self_loops: usize,
    /// Duplicate records dropped (any orientation).
    pub duplicate_edges: usize,
}

impl EdgeListDoc {
    /// Verifies the header/sidecar-declared counts against the parsed
    /// data — the single integrity check behind
    /// [`ReadOptions::enforce_declared_counts`] and the dataset
    /// loaders. A declared edge count must equal the raw data lines.
    /// A declared node count must not be *smaller* than the distinct
    /// ids seen; a larger one is legal, because isolated nodes are
    /// expressible in a header but not in an edge list (this reader
    /// drops them, keeping `0..|V|` dense).
    pub fn check_declared_counts(&self) -> Result<(), IoError> {
        if let Some(d) = self.declared_edges {
            if d != self.data_lines as u64 {
                return Err(IoError::SizeMismatch {
                    what: "edges",
                    declared: d,
                    actual: self.data_lines as u64,
                });
            }
        }
        if let Some(d) = self.declared_nodes {
            if d < self.id_map.len() as u64 {
                return Err(IoError::SizeMismatch {
                    what: "nodes",
                    declared: d,
                    actual: self.id_map.len() as u64,
                });
            }
        }
        Ok(())
    }
}

/// Splits a data line on the accepted separators (space, tab, comma),
/// tolerating runs and a trailing `\r`.
fn fields(line: &str) -> impl Iterator<Item = &str> {
    line.split([' ', '\t', ',', '\r']).filter(|s| !s.is_empty())
}

/// Scans a `#` comment body for `nodes <n>` / `edges <m>` pairs in
/// either SNAP (`Nodes: 4039`) or this module's (`nodes 4039`) form.
fn scan_hash_header(body: &str, nodes: &mut Option<u64>, edges: &mut Option<u64>) {
    let toks: Vec<&str> = fields(body).collect();
    for w in toks.windows(2) {
        let key = w[0].trim_end_matches(':').to_ascii_lowercase();
        if let Ok(v) = w[1].parse::<u64>() {
            if key == "nodes" && nodes.is_none() {
                *nodes = Some(v);
            } else if key == "edges" && edges.is_none() {
                *edges = Some(v);
            }
        }
    }
}

/// Interprets a KONECT numeric meta comment `% <edges> <rows> [<cols>]`.
/// The node count is only taken for unipartite shapes (missing or
/// equal row/column counts).
fn scan_percent_header(body: &str, nodes: &mut Option<u64>, edges: &mut Option<u64>) -> bool {
    let toks: Vec<&str> = fields(body).collect();
    if toks.is_empty() || toks.len() > 3 {
        return false;
    }
    let nums: Option<Vec<u64>> = toks.iter().map(|t| t.parse::<u64>().ok()).collect();
    let Some(nums) = nums else { return false };
    if edges.is_none() {
        *edges = Some(nums[0]);
    }
    if nodes.is_none() && nums.len() >= 2 && (nums.len() == 2 || nums[1] == nums[2]) {
        *nodes = Some(nums[1]);
    }
    true
}

/// Parses an edge list from any reader, honouring `opts`; returns the
/// graph together with the id map, header declarations, and cleaning
/// statistics. Lines are read into one reused buffer, so invalid UTF-8
/// is reported at its byte offset in the stream
/// ([`IoError::NonUtf8`]).
pub fn read_edge_list_doc<R: BufRead>(
    mut reader: R,
    opts: ReadOptions,
) -> Result<EdgeListDoc, IoError> {
    let mut id_map: HashMap<u64, NodeId> = HashMap::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut declared_nodes: Option<u64> = None;
    let mut declared_edges: Option<u64> = None;
    let mut konect_meta_done = false;
    let mut data_lines = 0usize;
    let mut self_loops = 0usize;
    let mut duplicate_edges = 0usize;
    let intern = |raw: u64, id_map: &mut HashMap<u64, NodeId>| -> NodeId {
        let next = id_map.len() as NodeId;
        *id_map.entry(raw).or_insert(next)
    };
    let mut buf = Vec::new();
    let mut offset = 0usize;
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        let line = std::str::from_utf8(&buf).map_err(|e| IoError::NonUtf8 {
            valid_up_to: offset + e.valid_up_to(),
        })?;
        offset += n;
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(body) = trimmed.strip_prefix('#') {
            scan_hash_header(body, &mut declared_nodes, &mut declared_edges);
            continue;
        }
        if let Some(body) = trimmed.strip_prefix('%') {
            // Only the first numeric %-line is the KONECT size meta;
            // later numeric comments (statistics) are ignored.
            if !konect_meta_done {
                konect_meta_done =
                    scan_percent_header(body, &mut declared_nodes, &mut declared_edges);
            }
            continue;
        }
        data_lines += 1;
        let mut parts = fields(trimmed);
        let (a, b) = match (parts.next(), parts.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(IoError::Parse {
                    line: lineno,
                    content: trimmed.to_string(),
                })
            }
        };
        let (pa, pb) = match (a.parse::<u64>(), b.parse::<u64>()) {
            (Ok(x), Ok(y)) => (x, y),
            _ => {
                if opts.skip_column_header && data_lines == 1 {
                    // `id1,id2`-style column banner: not an edge record.
                    data_lines = 0;
                    continue;
                }
                return Err(IoError::Parse {
                    line: lineno,
                    content: trimmed.to_string(),
                });
            }
        };
        if pa == pb {
            if opts.forbid_self_loops {
                return Err(IoError::SelfLoop { line: lineno });
            }
            self_loops += 1;
            // Still intern the id: an isolated self-looping node is a
            // node of the graph.
            intern(pa, &mut id_map);
            continue;
        }
        if id_map.len() + 2 > u32::MAX as usize {
            return Err(IoError::TooManyNodes {
                nodes: id_map.len() as u64 + 2,
            });
        }
        let u = intern(pa, &mut id_map);
        let v = intern(pb, &mut id_map);
        let key = if u < v { (u, v) } else { (v, u) };
        if !seen.insert(key) {
            if opts.forbid_duplicates {
                return Err(IoError::DuplicateEdge { line: lineno });
            }
            duplicate_edges += 1;
            continue;
        }
        edges.push(key);
    }
    // `seen` already deduplicated the canonical keys; sorting makes
    // them the CSR's edge list.
    edges.sort_unstable();
    let doc = EdgeListDoc {
        graph: Graph::from_canonical_edges(id_map.len(), edges),
        id_map,
        declared_nodes,
        declared_edges,
        data_lines,
        self_loops,
        duplicate_edges,
    };
    if opts.enforce_declared_counts {
        doc.check_declared_counts()?;
    }
    Ok(doc)
}

/// Parses an edge list from any reader; returns the graph and the map
/// from original ids to dense ids. Lenient: equivalent to
/// [`read_edge_list_doc`] with [`ReadOptions::default`].
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<(Graph, HashMap<u64, NodeId>), IoError> {
    let doc = read_edge_list_doc(reader, ReadOptions::default())?;
    Ok((doc.graph, doc.id_map))
}

/// Writes the canonical edge list (`u v` per line, `u < v`).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for &(u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Writes the canonical edge list to a file.
pub fn write_edge_list_file<P: AsRef<Path>>(g: &Graph, path: P) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_edge_list(g, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_comments_and_compacts_ids() {
        let text = "# a comment\n% another\n10 20\n20 30\n\n10 30\n";
        let (g, map) = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        // Ids assigned in first-seen order.
        assert_eq!(map[&10], 0);
        assert_eq!(map[&20], 1);
        assert_eq!(map[&30], 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "1 2\noops\n";
        match read_edge_list(Cursor::new(text)) {
            Err(IoError::Parse { line, content }) => {
                assert_eq!(line, 2);
                assert_eq!(content, "oops");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_error_on_non_numeric() {
        let text = "a b\n";
        assert!(matches!(
            read_edge_list(Cursor::new(text)),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn round_trip_up_to_relabeling() {
        // Reading compacts ids in first-seen order, so the round trip
        // is an isomorphism witnessed by the returned id map.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (g2, map) = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for &(u, v) in g.edges() {
            assert!(g2.has_edge(map[&(u as u64)], map[&(v as u64)]));
        }
    }

    #[test]
    fn self_loops_dropped_on_read() {
        let (g, _) = read_edge_list(Cursor::new("1 1\n1 2\n")).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    // --- separator and line-ending tolerance ---------------------------

    #[test]
    fn space_separated() {
        let (g, _) = read_edge_list(Cursor::new("1 2\n2 3\n")).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn tab_separated() {
        let (g, _) = read_edge_list(Cursor::new("1\t2\n2\t3\n")).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn comma_separated() {
        let (g, _) = read_edge_list(Cursor::new("1,2\n2,3\n")).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn crlf_line_endings() {
        let (g, map) = read_edge_list(Cursor::new("1 2\r\n2 3\r\n")).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn mixed_separators_and_runs() {
        let (g, _) = read_edge_list(Cursor::new("1,  2\r\n2\t \t3\n3 ,4\n")).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_nodes(), 4);
    }

    #[test]
    fn extra_columns_ignored() {
        // KONECT weighted/temporal rows: `u v weight timestamp`.
        let (g, _) = read_edge_list(Cursor::new("1 2 1 1083348000\n2 3 -1 1083348095\n")).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    // --- header awareness ----------------------------------------------

    #[test]
    fn snap_header_counts_parsed() {
        let text = "# Undirected graph (each unordered pair once)\n\
                    # Nodes: 3 Edges: 2\n# FromNodeId\tToNodeId\n1\t2\n2\t3\n";
        let doc = read_edge_list_doc(Cursor::new(text), ReadOptions::default()).unwrap();
        assert_eq!(doc.declared_nodes, Some(3));
        assert_eq!(doc.declared_edges, Some(2));
        assert_eq!(doc.data_lines, 2);
    }

    #[test]
    fn own_writer_header_counts_parsed() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let doc = read_edge_list_doc(Cursor::new(buf), ReadOptions::strict()).unwrap();
        assert_eq!(doc.declared_nodes, Some(3));
        assert_eq!(doc.declared_edges, Some(2));
        assert_eq!(doc.graph.num_edges(), 2);
    }

    #[test]
    fn konect_meta_line_parsed() {
        let text = "% sym unweighted\n% 2 3 3\n1 2\n2 3\n";
        let doc = read_edge_list_doc(Cursor::new(text), ReadOptions::strict()).unwrap();
        assert_eq!(doc.declared_edges, Some(2));
        assert_eq!(doc.declared_nodes, Some(3));
    }

    #[test]
    fn konect_bipartite_meta_skips_node_count() {
        let text = "% bip\n% 2 3 5\n1 2\n2 3\n";
        let doc = read_edge_list_doc(Cursor::new(text), ReadOptions::default()).unwrap();
        assert_eq!(doc.declared_edges, Some(2));
        assert_eq!(doc.declared_nodes, None);
    }

    #[test]
    fn declared_count_mismatch_enforced() {
        let text = "# nodes 3 edges 5\n1 2\n2 3\n";
        let err = read_edge_list_doc(Cursor::new(text), ReadOptions::strict()).unwrap_err();
        match err {
            IoError::SizeMismatch {
                what,
                declared,
                actual,
            } => {
                assert_eq!(what, "edges");
                assert_eq!(declared, 5);
                assert_eq!(actual, 2);
            }
            other => panic!("expected SizeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn declared_isolated_nodes_tolerated() {
        // A header may promise more nodes than the edge records can
        // express (isolated vertices) — our own writer does this for
        // graphs with degree-0 nodes. Not an integrity failure.
        let g = Graph::from_edges(5, [(0, 1), (1, 2)]); // nodes 3,4 isolated
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let doc = read_edge_list_doc(Cursor::new(buf), ReadOptions::strict()).unwrap();
        assert_eq!(doc.declared_nodes, Some(5));
        assert_eq!(doc.graph.num_nodes(), 3);
    }

    #[test]
    fn understated_node_count_rejected() {
        let text = "# nodes 2 edges 2\n1 2\n2 3\n";
        match read_edge_list_doc(Cursor::new(text), ReadOptions::strict()) {
            Err(IoError::SizeMismatch {
                what: "nodes",
                declared: 2,
                actual: 3,
            }) => {}
            other => panic!("expected node SizeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn declared_counts_not_enforced_by_default() {
        let text = "# nodes 3 edges 5\n1 2\n2 3\n";
        let doc = read_edge_list_doc(Cursor::new(text), ReadOptions::default()).unwrap();
        assert_eq!(doc.graph.num_edges(), 2);
        assert_eq!(doc.declared_edges, Some(5));
    }

    // --- strict-mode rejection -----------------------------------------

    #[test]
    fn strict_rejects_self_loop_with_line() {
        let text = "1 2\n3 3\n";
        assert!(matches!(
            read_edge_list_doc(Cursor::new(text), ReadOptions::strict()),
            Err(IoError::SelfLoop { line: 2 })
        ));
    }

    #[test]
    fn strict_rejects_duplicate_either_orientation() {
        let text = "1 2\n2 1\n";
        assert!(matches!(
            read_edge_list_doc(Cursor::new(text), ReadOptions::strict()),
            Err(IoError::DuplicateEdge { line: 2 })
        ));
    }

    #[test]
    fn lenient_counts_cleaning_stats() {
        let text = "% 5 3 3\n1 1\n1 2\n2 1\n1 2\n2 3\n";
        let doc = read_edge_list_doc(Cursor::new(text), ReadOptions::default()).unwrap();
        assert_eq!(doc.data_lines, 5);
        assert_eq!(doc.self_loops, 1);
        assert_eq!(doc.duplicate_edges, 2);
        assert_eq!(doc.graph.num_edges(), 2);
        // Declared counts match the raw records, so strict mode also
        // accepts this file apart from the loop/dup rejections.
        assert_eq!(doc.declared_edges, Some(5));
    }

    #[test]
    fn csv_column_header_skipped_when_allowed() {
        let text = "id1,id2\n0,1\n1,2\n";
        let err = read_edge_list_doc(Cursor::new(text), ReadOptions::default());
        assert!(matches!(err, Err(IoError::Parse { line: 1, .. })));
        let opts = ReadOptions {
            skip_column_header: true,
            ..ReadOptions::default()
        };
        let doc = read_edge_list_doc(Cursor::new(text), opts).unwrap();
        assert_eq!(doc.graph.num_edges(), 2);
        assert_eq!(doc.data_lines, 2);
        // Only the first line gets the banner treatment.
        let late = "0,1\nid1,id2\n";
        assert!(matches!(
            read_edge_list_doc(Cursor::new(late), opts),
            Err(IoError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn self_loop_still_interns_node() {
        // A node that only ever appears in a self-loop is still a node.
        let (g, map) = read_edge_list(Cursor::new("5 5\n1 2\n")).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(map.len(), 3);
        assert_eq!(g.degree(map[&5]), 0);
    }
}
