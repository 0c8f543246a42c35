//! Stand-ins for the six paper datasets (§VI-A).
//!
//! | Dataset     | |V|        | |E|        | family (stand-in)            |
//! |-------------|-----------|-----------|------------------------------|
//! | Chameleon   | 2 277     | 31 421    | BA, m=14 (dense hyperlink)   |
//! | PPI         | 3 890     | 76 584    | BA, m=20 (hub-heavy biology) |
//! | Power       | 4 941     | 6 594     | tree + shortcuts (grid)      |
//! | Arxiv       | 5 242     | 14 496    | Holme–Kim, m=3 (clustered)   |
//! | BlogCatalog | 10 312    | 333 983   | BA, m=33 (dense social)      |
//! | DBLP        | 2 244 021 | 4 354 534 | BA, m=2 (sparse scholarly)   |
//!
//! Each generator is steered to the *exact* published edge count with
//! [`generators::adjust_to_edge_count`] so the privacy accounting's
//! sampling rate `γ = B/|E|` matches the paper run for run. A `scale`
//! knob shrinks both counts proportionally for quick experiments
//! (DBLP at full scale is ~4.4M edges — supported, but the benches
//! default to 1%).

use crate::generators;
use crate::loaders::{self, DatasetManifest, LoadError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_graph::io::ReadOptions;
use sp_graph::Graph;
use std::path::{Path, PathBuf};

/// The six evaluation datasets of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// English-Wikipedia chameleon article network.
    Chameleon,
    /// Human protein–protein interaction network.
    Ppi,
    /// Western-US power grid.
    Power,
    /// arXiv astrophysics collaboration network.
    Arxiv,
    /// BlogCatalog social network.
    BlogCatalog,
    /// DBLP scholarly network.
    Dblp,
}

impl PaperDataset {
    /// All six, in the paper's order.
    pub fn all() -> [PaperDataset; 6] {
        [
            PaperDataset::Chameleon,
            PaperDataset::Ppi,
            PaperDataset::Power,
            PaperDataset::Arxiv,
            PaperDataset::BlogCatalog,
            PaperDataset::Dblp,
        ]
    }

    /// The three datasets used by the parameter studies (Tables II–VI)
    /// and the link-prediction figure (Fig. 4).
    pub fn parameter_study() -> [PaperDataset; 3] {
        [
            PaperDataset::Chameleon,
            PaperDataset::Power,
            PaperDataset::Arxiv,
        ]
    }

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            PaperDataset::Chameleon => "Chameleon",
            PaperDataset::Ppi => "PPI",
            PaperDataset::Power => "Power",
            PaperDataset::Arxiv => "Arxiv",
            PaperDataset::BlogCatalog => "BlogCatalog",
            PaperDataset::Dblp => "DBLP",
        }
    }

    /// Published `(|V|, |E|)`.
    pub fn published_size(&self) -> (usize, usize) {
        match self {
            PaperDataset::Chameleon => (2_277, 31_421),
            PaperDataset::Ppi => (3_890, 76_584),
            PaperDataset::Power => (4_941, 6_594),
            PaperDataset::Arxiv => (5_242, 14_496),
            PaperDataset::BlogCatalog => (10_312, 333_983),
            PaperDataset::Dblp => (2_244_021, 4_354_534),
        }
    }

    /// Generates the stand-in at `scale ∈ (0, 1]` of the published
    /// size (node and edge counts scaled together), deterministic in
    /// `seed`.
    pub fn generate(&self, scale: f64, seed: u64) -> Graph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
        let (n0, m0) = self.published_size();
        let n = ((n0 as f64 * scale).round() as usize).max(32);
        let m_target = ((m0 as f64 * scale).round() as usize)
            .max(n) // keep the graph at least tree-dense
            .min(n * (n - 1) / 2);
        let mut rng = StdRng::seed_from_u64(seed ^ self.seed_salt());
        let base = match self {
            PaperDataset::Chameleon => {
                let m = per_node(m_target, n).max(2);
                generators::barabasi_albert(n, m, &mut rng)
            }
            PaperDataset::Ppi => {
                let m = per_node(m_target, n).max(2);
                generators::barabasi_albert(n, m, &mut rng)
            }
            PaperDataset::Power => {
                return generators::tree_plus_shortcuts(n, m_target, &mut rng);
            }
            PaperDataset::Arxiv => {
                let m = per_node(m_target, n).max(2);
                generators::holme_kim(n, m, 0.7, &mut rng)
            }
            PaperDataset::BlogCatalog => {
                let m = per_node(m_target, n).max(2);
                generators::barabasi_albert(n, m, &mut rng)
            }
            PaperDataset::Dblp => {
                let m = per_node(m_target, n).max(1);
                generators::barabasi_albert(n, m, &mut rng)
            }
        };
        generators::adjust_to_edge_count(&base, m_target, &mut rng)
    }

    /// Generates at full published size.
    pub fn generate_full(&self, seed: u64) -> Graph {
        self.generate(1.0, seed)
    }

    /// On-disk manifest: the filenames this dataset is distributed
    /// under (SNAP exports and KONECT `out.*` codes, each also probed
    /// with `.gz` and inside a `<name>/` subdirectory) plus the
    /// published size for deviation reporting.
    pub fn manifest(&self) -> DatasetManifest {
        let (expected_nodes, expected_edges) = self.published_size();
        let (name, candidates): (_, &'static [&'static str]) = match self {
            PaperDataset::Chameleon => (
                "Chameleon",
                &[
                    "musae_chameleon_edges.csv",
                    "chameleon_edges.csv",
                    "chameleon.edges",
                    "chameleon.txt",
                    "out.chameleon",
                ],
            ),
            PaperDataset::Ppi => (
                "PPI",
                &["out.maayan-vidal", "ppi.edges", "ppi.txt", "ppi_edges.csv"],
            ),
            PaperDataset::Power => (
                "Power",
                &[
                    "out.opsahl-powergrid",
                    "power.edges",
                    "power.txt",
                    "uspowergrid.txt",
                ],
            ),
            PaperDataset::Arxiv => (
                "Arxiv",
                &[
                    "ca-GrQc.txt",
                    "CA-GrQc.txt",
                    "out.ca-GrQc",
                    "arxiv.edges",
                    "arxiv.txt",
                ],
            ),
            PaperDataset::BlogCatalog => (
                "BlogCatalog",
                &[
                    "out.soc-BlogCatalog-ASU",
                    "blogcatalog.edges",
                    "blogcatalog.txt",
                    "edges.csv",
                ],
            ),
            PaperDataset::Dblp => (
                "DBLP",
                &[
                    "out.dblp_coauthor",
                    "com-dblp.ungraph.txt",
                    "dblp.edges",
                    "dblp.txt",
                ],
            ),
        };
        DatasetManifest {
            name,
            candidates,
            expected_nodes,
            expected_edges,
        }
    }

    /// Loads this dataset from an on-disk edge list (SNAP or KONECT
    /// layout, gzip-transparent). Real datasets keep duplicate rows
    /// (directed listings) and self-loops, so those are dropped, but
    /// counts *declared by the file itself* — SNAP `# Nodes:`/`Edges:`
    /// banners, KONECT `%` meta lines or `meta.*` sidecars — are
    /// enforced and a contradiction is a [`LoadError::SizeMismatch`].
    ///
    /// ```no_run
    /// use sp_datasets::PaperDataset;
    /// use std::path::Path;
    ///
    /// let g = PaperDataset::Arxiv
    ///     .load(Path::new("data/ca-GrQc.txt.gz"))
    ///     .expect("download ca-GrQc from SNAP first");
    /// assert_eq!(g.num_nodes(), 5242);
    /// ```
    pub fn load(&self, path: &Path) -> Result<Graph, LoadError> {
        let opts = ReadOptions {
            enforce_declared_counts: true,
            skip_column_header: true,
            ..ReadOptions::default()
        };
        Ok(loaders::load_edge_list_path(path, opts)?.graph)
    }

    /// First existing edge-list candidate for this dataset under
    /// `data_dir`, if any (see [`PaperDataset::manifest`] for the
    /// probe order).
    pub fn locate(&self, data_dir: &Path) -> Option<PathBuf> {
        self.manifest().locate(data_dir)
    }

    /// Resolution fallback chain: the real edge list when `data_dir`
    /// holds one, the synthetic stand-in otherwise.
    ///
    /// With `data_dir = None` this is *exactly* [`PaperDataset::generate`]
    /// — bit-identical graphs, no logging — so callers that never
    /// configure a data dir keep their pre-existing behaviour. With a
    /// data dir, the chain logs (to stderr) which branch was taken:
    /// a located file that fails to load falls back to the stand-in
    /// rather than aborting an experiment sweep, and a loaded graph
    /// whose size deviates from the published `(|V|, |E|)` by more
    /// than 2 % is flagged. `scale` only applies to the synthetic
    /// branch; real data is never subsampled.
    pub fn resolve(&self, data_dir: Option<&Path>, scale: f64, seed: u64) -> Graph {
        let Some(dir) = data_dir else {
            return self.generate(scale, seed);
        };
        match self.locate(dir) {
            Some(path) => match self.load(&path) {
                Ok(g) => {
                    eprintln!(
                        "[data] {}: loaded {} ({} nodes, {} edges)",
                        self.name(),
                        path.display(),
                        g.num_nodes(),
                        g.num_edges()
                    );
                    let (n0, m0) = self.published_size();
                    let off = |a: usize, b: usize| (a as f64 - b as f64).abs() / b as f64 > 0.02;
                    if off(g.num_nodes(), n0) || off(g.num_edges(), m0) {
                        eprintln!(
                            "[data] {}: warning: size deviates from published ({n0} nodes, {m0} edges)",
                            self.name()
                        );
                    }
                    g
                }
                Err(e) => {
                    eprintln!(
                        "[data] {}: failed to load {}: {e}; using synthetic stand-in",
                        self.name(),
                        path.display()
                    );
                    self.generate(scale, seed)
                }
            },
            None => {
                eprintln!(
                    "[data] {}: no edge list under {}; using synthetic stand-in",
                    self.name(),
                    dir.display()
                );
                self.generate(scale, seed)
            }
        }
    }

    fn seed_salt(&self) -> u64 {
        match self {
            PaperDataset::Chameleon => 0x0c0a_0001,
            PaperDataset::Ppi => 0x0c0a_0002,
            PaperDataset::Power => 0x0c0a_0003,
            PaperDataset::Arxiv => 0x0c0a_0004,
            PaperDataset::BlogCatalog => 0x0c0a_0005,
            PaperDataset::Dblp => 0x0c0a_0006,
        }
    }
}

/// BA/HK attachment parameter that lands near the target density.
fn per_node(m_edges: usize, n: usize) -> usize {
    (m_edges as f64 / n as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::algo;

    #[test]
    fn full_scale_sizes_match_published() {
        for ds in [
            PaperDataset::Chameleon,
            PaperDataset::Power,
            PaperDataset::Arxiv,
        ] {
            let g = ds.generate_full(1);
            let (n, m) = ds.published_size();
            assert_eq!(g.num_nodes(), n, "{}", ds.name());
            assert_eq!(g.num_edges(), m, "{}", ds.name());
        }
    }

    #[test]
    fn scaled_sizes_are_proportional() {
        let g = PaperDataset::Chameleon.generate(0.25, 2);
        let (n, m) = PaperDataset::Chameleon.published_size();
        assert_eq!(g.num_nodes(), (n as f64 * 0.25).round() as usize);
        assert_eq!(g.num_edges(), (m as f64 * 0.25).round() as usize);
    }

    #[test]
    fn deterministic_per_seed_distinct_across_datasets() {
        let a = PaperDataset::Power.generate(0.2, 7);
        let b = PaperDataset::Power.generate(0.2, 7);
        assert_eq!(a.edges(), b.edges());
        let c = PaperDataset::Arxiv.generate(0.2, 7);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn power_is_sparse_and_connected() {
        let g = PaperDataset::Power.generate(0.5, 3);
        assert!(algo::is_connected(&g));
        assert!(g.avg_degree() < 3.5, "power grid must stay sparse");
    }

    #[test]
    fn chameleon_standin_is_hub_heavy() {
        let g = PaperDataset::Chameleon.generate(0.25, 4);
        assert!(g.max_degree() as f64 > 4.0 * g.avg_degree());
    }

    #[test]
    fn arxiv_standin_is_clustered() {
        let g = PaperDataset::Arxiv.generate(0.25, 5);
        let cc = algo::global_clustering_coefficient(&g);
        assert!(cc > 0.05, "HK stand-in should cluster, got {cc}");
    }

    #[test]
    fn parameter_study_subset() {
        let names: Vec<_> = PaperDataset::parameter_study()
            .iter()
            .map(|d| d.name())
            .collect();
        assert_eq!(names, vec!["Chameleon", "Power", "Arxiv"]);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn rejects_zero_scale() {
        PaperDataset::Ppi.generate(0.0, 1);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sp_datasets_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn resolve_without_data_dir_is_bit_identical_to_generate() {
        for ds in PaperDataset::all() {
            let scale = if ds == PaperDataset::Dblp {
                0.002
            } else {
                0.05
            };
            let a = ds.resolve(None, scale, 11);
            let b = ds.generate(scale, 11);
            assert_eq!(a.edges(), b.edges(), "{}", ds.name());
        }
    }

    #[test]
    fn resolve_with_empty_dir_falls_back_to_generate() {
        let dir = scratch_dir("empty");
        let a = PaperDataset::Power.resolve(Some(&dir), 0.1, 3);
        let b = PaperDataset::Power.generate(0.1, 3);
        assert_eq!(a.edges(), b.edges());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_prefers_real_file() {
        let dir = scratch_dir("real");
        std::fs::write(dir.join("power.edges"), "1 2\n2 3\n3 4\n").unwrap();
        let g = PaperDataset::Power.resolve(Some(&dir), 0.1, 3);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_enforces_declared_counts() {
        let dir = scratch_dir("mismatch");
        let path = dir.join("arxiv.txt");
        std::fs::write(&path, "# Nodes: 3 Edges: 99\n1 2\n2 3\n").unwrap();
        let err = PaperDataset::Arxiv.load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                crate::LoadError::SizeMismatch {
                    what: "edges",
                    declared: 99,
                    actual: 2,
                }
            ),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn locate_probes_subdirectory_and_gz() {
        let dir = scratch_dir("probe");
        let sub = dir.join("chameleon");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(sub.join("chameleon.txt.gz"), b"not really gz").unwrap();
        let found = PaperDataset::Chameleon.locate(&dir).unwrap();
        assert!(found.ends_with("chameleon/chameleon.txt.gz"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
