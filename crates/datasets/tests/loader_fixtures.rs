//! End-to-end loads of the checked-in dataset fixtures (< 5 KB each):
//! a plain SNAP edge list and a gzipped KONECT `out.*` file with a
//! `meta.*` sidecar, both driven through [`PaperDataset::load`].

use sp_datasets::inflate::gzip_store;
use sp_datasets::loaders::{load_edge_list_path, LoadError};
use sp_datasets::PaperDataset;
use sp_graph::io::ReadOptions;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

#[test]
fn snap_fixture_loads_end_to_end() {
    let g = PaperDataset::Arxiv
        .load(&fixture("snap_arxiv_sample.txt"))
        .unwrap();
    assert_eq!(g.num_nodes(), 11);
    assert_eq!(g.num_edges(), 18);
    // Tab-separated sparse ids were compacted; spot-check one edge by
    // re-reading with the id map exposed.
    let doc =
        load_edge_list_path(&fixture("snap_arxiv_sample.txt"), ReadOptions::default()).unwrap();
    assert_eq!(doc.declared_nodes, Some(11));
    assert_eq!(doc.declared_edges, Some(18));
    assert!(doc.graph.has_edge(doc.id_map[&3466], doc.id_map[&937]));
}

#[test]
fn gzipped_konect_fixture_loads_end_to_end() {
    let g = PaperDataset::Power
        .load(&fixture("out.power-sample.gz"))
        .unwrap();
    // 15 raw records: a 10-ring, 3 chords, 1 self-loop, 1 duplicate —
    // the simple graph keeps 13 edges on 10 nodes.
    assert_eq!(g.num_nodes(), 10);
    assert_eq!(g.num_edges(), 13);
}

#[test]
fn konect_meta_sidecar_supplies_declared_counts() {
    let doc = load_edge_list_path(&fixture("out.power-sample.gz"), ReadOptions::default()).unwrap();
    // The out.* file itself declares nothing (`% sym unweighted` only);
    // size/volume come from meta.power-sample.
    assert_eq!(doc.declared_nodes, Some(10));
    assert_eq!(doc.declared_edges, Some(15));
    assert_eq!(doc.data_lines, 15);
    assert_eq!(doc.self_loops, 1);
    assert_eq!(doc.duplicate_edges, 1);
}

#[test]
fn integrity_mismatch_is_a_size_mismatch_error() {
    // Same SNAP fixture, banner tampered to declare the wrong edge
    // count: PaperDataset::load must refuse with SizeMismatch.
    let text = std::fs::read_to_string(fixture("snap_arxiv_sample.txt")).unwrap();
    let tampered = text.replace("Edges: 18", "Edges: 17");
    assert_ne!(text, tampered, "fixture banner changed; update this test");
    let dir = std::env::temp_dir().join(format!("sp_fixture_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad_counts.txt");
    std::fs::write(&path, tampered).unwrap();
    let err = PaperDataset::Arxiv.load(&path).unwrap_err();
    std::fs::remove_dir_all(&dir).ok();
    match err {
        LoadError::SizeMismatch {
            what,
            declared,
            actual,
        } => {
            assert_eq!(what, "edges");
            assert_eq!(declared, 17);
            assert_eq!(actual, 18);
        }
        other => panic!("expected SizeMismatch, got {other:?}"),
    }
}

#[test]
fn non_utf8_file_reports_its_byte_offset() {
    // The second line starts at byte 4 with an invalid sequence, in a
    // plain file and in a gzipped one alike.
    let text = b"1 2\n\xFF\xFE 3\n";
    let dir = std::env::temp_dir().join(format!("sp_fixture_utf8_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plain = dir.join("bad_utf8.txt");
    let zipped = dir.join("bad_utf8.txt.gz");
    std::fs::write(&plain, text).unwrap();
    std::fs::write(&zipped, gzip_store(text)).unwrap();
    let errs = [&plain, &zipped].map(|p| load_edge_list_path(p, ReadOptions::default()));
    std::fs::remove_dir_all(&dir).ok();
    for err in errs {
        assert!(
            matches!(err, Err(LoadError::NonUtf8 { valid_up_to: 4 })),
            "got {err:?}"
        );
    }
}

#[test]
fn resolve_uses_fixture_dir_as_data_dir() {
    // tests/data doubles as a --data-dir: no Power candidate filename
    // matches (the fixture is deliberately named out.power-sample, not
    // out.opsahl-powergrid), so resolve falls back to the stand-in...
    let data_dir = fixture("");
    let fallback = PaperDataset::Power.resolve(Some(&data_dir), 0.1, 5);
    assert_eq!(
        fallback.edges(),
        PaperDataset::Power.generate(0.1, 5).edges()
    );
    // ...but a properly named copy is picked up and wins.
    let dir = std::env::temp_dir().join(format!("sp_fixture_resolve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(
        fixture("out.power-sample.gz"),
        dir.join("out.opsahl-powergrid.gz"),
    )
    .unwrap();
    let real = PaperDataset::Power.resolve(Some(&dir), 0.1, 5);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(real.num_nodes(), 10);
    assert_eq!(real.num_edges(), 13);
}

/// CI generates a KONECT-style fixture with the *system* gzip at build
/// time and points `SP_LOADER_FIXTURE` at it, so the loader suite
/// exercises a real zlib-compressed stream without network access.
/// Locally the test is a no-op unless the variable is set.
#[test]
fn external_gzip_fixture_if_provided() {
    let Some(path) = std::env::var_os("SP_LOADER_FIXTURE") else {
        eprintln!("SP_LOADER_FIXTURE unset; skipping external fixture check");
        return;
    };
    let opts = ReadOptions {
        enforce_declared_counts: true,
        ..ReadOptions::default()
    };
    let doc = load_edge_list_path(Path::new(&path), opts).expect("external fixture must load");
    assert!(doc.graph.num_edges() > 0, "external fixture has no edges");
}
