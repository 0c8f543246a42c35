//! Failure-injection tests: pathological inputs and extreme
//! hyper-parameters must either fail fast with a clear panic or
//! degrade gracefully — never produce NaN embeddings or hang. The
//! dataset loaders get the same treatment: corrupt archives and
//! malformed edge lists must surface as typed [`LoadError`]s, never
//! panics — and the `.spm` model readers mirror that discipline with
//! typed [`ModelError`]s for truncation, header corruption, version
//! skew, and checksum mismatches.

use rand::rngs::StdRng;
use rand::SeedableRng;
use se_privgemb_suite::core::{PerturbStrategy, ProximityKind, SePrivGEmb};
use se_privgemb_suite::datasets::generators;
use se_privgemb_suite::datasets::inflate::{gzip_store, InflateError};
use se_privgemb_suite::datasets::loaders::{load_edge_list_bytes, LoadError};
use se_privgemb_suite::graph::io::ReadOptions;
use se_privgemb_suite::model::checkpoint::{checkpoint_from_bytes, checkpoint_to_bytes};
use se_privgemb_suite::model::{F32Matrix, ModelError, ModelFile, Provenance};
use se_privgemb_suite::skipgram::trainer::TrainerState;
use sp_graph::Graph;

fn assert_finite(result: &se_privgemb_suite::core::pipeline::EmbeddingResult, label: &str) {
    assert!(
        result.embeddings().as_slice().iter().all(|v| v.is_finite()),
        "{label}: non-finite embedding values"
    );
}

#[test]
fn single_edge_graph_trains() {
    let g = Graph::from_edges(2, [(0, 1)]);
    let result = SePrivGEmb::builder()
        .dim(4)
        .epochs(3)
        .batch_size(4)
        .seed(1)
        .proximity(ProximityKind::Degree)
        .build()
        .fit(&g);
    assert_finite(&result, "single edge");
}

#[test]
fn graph_with_isolated_nodes_trains() {
    // Nodes 5..10 are isolated: they are never centres or positives,
    // but may be drawn as negatives.
    let g = Graph::from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
    let result = SePrivGEmb::builder()
        .dim(8)
        .epochs(10)
        .batch_size(4)
        .seed(2)
        .build()
        .fit(&g);
    assert_finite(&result, "isolated nodes");
}

#[test]
fn star_graph_trains_despite_saturated_centre() {
    // The hub is adjacent to everyone: Algorithm 1's non-neighbour
    // sampler has no valid negative for hub-centred edges and must
    // fall back instead of spinning.
    let g = Graph::from_edges(12, (1..12).map(|i| (0u32, i as u32)));
    let result = SePrivGEmb::builder()
        .dim(8)
        .epochs(5)
        .seed(3)
        .build()
        .fit(&g);
    assert_finite(&result, "star");
}

#[test]
fn extreme_learning_rate_stays_finite() {
    // Clipping bounds every per-example gradient, so even an absurd
    // learning rate cannot overflow within a few epochs.
    let mut rng = StdRng::seed_from_u64(4);
    let g = generators::barabasi_albert(60, 3, &mut rng);
    let result = SePrivGEmb::builder()
        .dim(8)
        .epochs(5)
        .learning_rate(50.0)
        .clip(1.0)
        .strategy(PerturbStrategy::None)
        .seed(4)
        .build()
        .fit(&g);
    assert_finite(&result, "lr=50");
}

#[test]
fn huge_sigma_destroys_utility_but_not_numerics() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = generators::barabasi_albert(60, 3, &mut rng);
    let result = SePrivGEmb::builder()
        .dim(8)
        .epochs(5)
        .sigma(1000.0)
        .epsilon(1000.0) // let it actually run despite the noise
        .seed(5)
        .build()
        .fit(&g);
    assert_finite(&result, "sigma=1000");
}

#[test]
fn tiny_epsilon_yields_zero_steps_not_a_hang() {
    let mut rng = StdRng::seed_from_u64(6);
    let g = generators::barabasi_albert(60, 3, &mut rng);
    let result = SePrivGEmb::builder()
        .dim(8)
        .epochs(100)
        .epsilon(1e-4)
        .batch_size(32)
        .seed(6)
        .build()
        .fit(&g);
    assert!(result.report.stopped_by_budget);
    assert_eq!(result.report.steps_run, 0, "nothing affordable at ε=1e-4");
    assert_finite(&result, "eps=1e-4"); // the untouched init is published
}

#[test]
fn k_larger_than_graph_still_terminates() {
    let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
    let result = SePrivGEmb::builder()
        .dim(4)
        .epochs(3)
        .negatives(50) // far more negatives than nodes
        .seed(7)
        .build()
        .fit(&g);
    assert_finite(&result, "k=50");
}

#[test]
#[should_panic(expected = "edgeless")]
fn edgeless_graph_fails_fast() {
    let g = Graph::from_edges(5, std::iter::empty());
    SePrivGEmb::builder()
        .dim(4)
        .epochs(1)
        .seed(8)
        .build()
        .fit(&g);
}

#[test]
fn disconnected_components_train_independently_without_nan() {
    // Two components; proximity matrices stay block-diagonal.
    let mut edges: Vec<(u32, u32)> = (0..10).map(|i| (i, (i + 1) % 10)).collect();
    edges.extend((0..10).map(|i| (10 + i, 10 + (i + 1) % 10)));
    let g = Graph::from_edges(20, edges);
    let result = SePrivGEmb::builder()
        .dim(8)
        .epochs(10)
        .proximity(ProximityKind::deepwalk_default())
        .seed(9)
        .build()
        .fit(&g);
    assert_finite(&result, "disconnected");
}

// --- dataset-loader failure injection ----------------------------------

#[test]
fn truncated_gzip_stream_is_typed_not_a_panic() {
    let z = gzip_store(b"1 2\n2 3\n3 4\n");
    for cut in 0..z.len() {
        match load_edge_list_bytes(&z[..cut], ReadOptions::default()) {
            Err(LoadError::Gzip(InflateError::UnexpectedEof)) => {}
            // A 0–1 byte prefix is not gzip-shaped at all and goes down
            // the plain-text path: empty parse or a typed parse error.
            Ok(_) | Err(LoadError::Parse { .. }) if cut < 2 => {}
            other => panic!("cut {cut}: expected typed EOF, got {other:?}"),
        }
    }
}

#[test]
fn gzip_crc_corruption_is_typed() {
    let mut z = gzip_store(b"1 2\n");
    let n = z.len();
    z[n - 7] ^= 0x10;
    assert!(matches!(
        load_edge_list_bytes(&z, ReadOptions::default()),
        Err(LoadError::Gzip(InflateError::CrcMismatch { .. }))
    ));
}

#[test]
fn non_utf8_bytes_are_typed() {
    // Plain bytes with an invalid UTF-8 sequence mid-stream…
    let err = load_edge_list_bytes(b"1 2\n\xFF\xFE 3\n", ReadOptions::default()).unwrap_err();
    assert!(matches!(err, LoadError::NonUtf8 { valid_up_to: 4 }));
    // …and the same bytes arriving through the gzip path.
    let err = load_edge_list_bytes(&gzip_store(b"1 2\n\xFF\xFE 3\n"), ReadOptions::default())
        .unwrap_err();
    assert!(matches!(err, LoadError::NonUtf8 { valid_up_to: 4 }));
}

#[test]
fn out_of_range_ids_are_typed() {
    // One past u64::MAX cannot be an id.
    let err =
        load_edge_list_bytes(b"18446744073709551616 1\n", ReadOptions::default()).unwrap_err();
    assert!(matches!(err, LoadError::Parse { line: 1, .. }));
    // Negative ids are likewise a parse error, not a wrap-around.
    let err = load_edge_list_bytes(b"-1 2\n", ReadOptions::default()).unwrap_err();
    assert!(matches!(err, LoadError::Parse { line: 1, .. }));
    // u64::MAX itself is representable and compacts fine.
    let doc = load_edge_list_bytes(b"18446744073709551615 1\n", ReadOptions::default()).unwrap();
    assert_eq!(doc.graph.num_edges(), 1);
}

#[test]
fn declared_count_lies_are_typed() {
    let text = b"% 9 3 3\n1 2\n2 3\n";
    let opts = ReadOptions {
        enforce_declared_counts: true,
        ..ReadOptions::default()
    };
    let err = load_edge_list_bytes(text, opts).unwrap_err();
    assert!(matches!(
        err,
        LoadError::SizeMismatch {
            what: "edges",
            declared: 9,
            actual: 2,
        }
    ));
}

// --- model-reader failure injection ------------------------------------

/// A small published model whose serialised form the tests corrupt.
fn model_bytes() -> Vec<u8> {
    let m = F32Matrix::from_vec(6, 4, (0..24).map(|i| i as f32 * 0.5 - 3.0).collect());
    ModelFile::dense(
        m,
        Provenance {
            seed: 11,
            epsilon: 2.0,
            delta: 1e-5,
        },
    )
    .to_bytes()
}

#[test]
fn truncation_at_every_cut_is_typed_not_a_panic() {
    let bytes = model_bytes();
    for cut in 0..bytes.len() {
        match ModelFile::from_bytes(&bytes[..cut]) {
            Err(ModelError::Truncated { expected, found }) => {
                assert_eq!(found, cut, "cut {cut}: wrong found length reported");
                assert!(expected > cut, "cut {cut}: expected must exceed found");
            }
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
    // The complete file, for contrast, parses.
    assert!(ModelFile::from_bytes(&bytes).is_ok());
}

#[test]
fn wrong_magic_is_typed() {
    let mut bytes = model_bytes();
    bytes[..4].copy_from_slice(b"NOPE");
    match ModelFile::from_bytes(&bytes) {
        Err(ModelError::BadMagic { found }) => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_typed() {
    let mut bytes = model_bytes();
    // Version lives right after the 4-byte magic (u16 LE).
    bytes[4] = 99;
    assert!(matches!(
        ModelFile::from_bytes(&bytes),
        Err(ModelError::UnsupportedVersion { found: 99 })
    ));
}

#[test]
fn unknown_payload_kind_is_typed() {
    let mut bytes = model_bytes();
    // Kind is the u16 after magic + version.
    bytes[6] = 7;
    assert!(matches!(
        ModelFile::from_bytes(&bytes),
        Err(ModelError::UnknownKind { found: 7 })
    ));
}

#[test]
fn payload_bit_flip_is_a_checksum_mismatch() {
    let mut bytes = model_bytes();
    let mid = 64 + (bytes.len() - 64 - 4) / 2;
    bytes[mid] ^= 0x01;
    match ModelFile::from_bytes(&bytes) {
        Err(ModelError::ChecksumMismatch { declared, actual }) => {
            assert_ne!(declared, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn header_shape_lie_is_typed() {
    // Inflating the declared row count makes the header inconsistent
    // with the actual payload length: a structural Corrupt error (the
    // size check), not an attempted over-read.
    let mut bytes = model_bytes();
    bytes[8] = 0xFF; // rows field (u64 LE at offset 8)
    assert!(matches!(
        ModelFile::from_bytes(&bytes),
        Err(ModelError::Corrupt { .. })
    ));
}

#[test]
fn provenance_tampering_is_a_checksum_mismatch() {
    // The header is under the CRC too: silently rewriting the recorded
    // privacy budget is detected even though the payload is untouched.
    let mut bytes = model_bytes();
    bytes[24] ^= 0x01; // seed field
    assert!(matches!(
        ModelFile::from_bytes(&bytes),
        Err(ModelError::ChecksumMismatch { .. })
    ));
}

#[test]
fn model_read_from_missing_path_is_io_typed() {
    let err = ModelFile::read(std::path::Path::new("/nonexistent/m.spm")).unwrap_err();
    assert!(matches!(err, ModelError::Io(_)));
    // And every ModelError formats a human-readable message.
    assert!(!err.to_string().is_empty());
}

// --- checkpoint (.spc) failure injection --------------------------------

/// A realistic serialised checkpoint the tests corrupt: full state with
/// accountant curve and the spare word set (the layout still carries
/// it, so its flag and field must survive corruption tests too).
fn checkpoint_bytes() -> Vec<u8> {
    use se_privgemb_suite::linalg::DenseMatrix;
    let st = TrainerState {
        fingerprint: 0x5EED_CAFE_0000_0001,
        steps_run: 17,
        epochs_run: 2,
        step_in_epoch: 3,
        rng: [9, 8, 7, 6],
        noise_spare: Some(0.25),
        loss_sum: -3.5,
        loss_count: 272,
        w_in: DenseMatrix::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.25 - 1.0).collect()),
        w_out: DenseMatrix::from_vec(4, 3, (0..12).map(|i| -(i as f64) * 0.5).collect()),
        accountant_orders_max: 8,
        accountant_rdp: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
        accountant_steps: 17,
    };
    checkpoint_to_bytes(&st)
}

#[test]
fn spc_truncation_at_every_cut_is_typed_not_a_panic() {
    let bytes = checkpoint_bytes();
    for cut in 0..bytes.len() {
        match checkpoint_from_bytes(&bytes[..cut]) {
            Err(ModelError::Truncated { expected, found }) => {
                assert_eq!(found, cut, "cut {cut}: wrong found length reported");
                assert!(expected > cut, "cut {cut}: expected must exceed found");
            }
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
    assert!(checkpoint_from_bytes(&bytes).is_ok());
}

#[test]
fn spc_single_bit_flips_are_always_detected() {
    // Flip one bit at a sample of positions across header, payload, and
    // trailer: every flip must surface as a typed error — usually a
    // checksum mismatch, or a structural error when the flip lands in a
    // field validated before the CRC. Never Ok, never a panic.
    let bytes = checkpoint_bytes();
    for pos in (0..bytes.len()).step_by(7) {
        for bit in [0u8, 3, 7] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert!(
                checkpoint_from_bytes(&corrupt).is_err(),
                "bit {bit} of byte {pos}: corruption not detected"
            );
        }
    }
}

#[test]
fn spc_version_skew_is_typed() {
    let mut bytes = checkpoint_bytes();
    bytes[4] = 99; // version u16 LE right after the 4-byte magic
    assert!(matches!(
        checkpoint_from_bytes(&bytes),
        Err(ModelError::UnsupportedVersion { found: 99 })
    ));
    let mut bytes = checkpoint_bytes();
    bytes[..4].copy_from_slice(b"SPMB"); // a model file is not a checkpoint
    assert!(matches!(
        checkpoint_from_bytes(&bytes),
        Err(ModelError::BadMagic { found }) if &found == b"SPMB"
    ));
}

#[test]
fn spc_unknown_flags_and_shape_lies_are_typed() {
    let mut bytes = checkpoint_bytes();
    bytes[6] |= 0x80; // undefined flag bit
    assert!(matches!(
        checkpoint_from_bytes(&bytes),
        Err(ModelError::Corrupt { .. })
    ));
    let mut bytes = checkpoint_bytes();
    bytes[96] = 0xFF; // declared row count no longer matches payload
    assert!(matches!(
        checkpoint_from_bytes(&bytes),
        Err(ModelError::Corrupt { .. })
    ));
}

#[test]
fn corrupting_newest_spc_leaves_previous_checkpoint_usable() {
    // Two checkpoints on disk; the newest gets torn. Resume-side
    // discovery must fall back to the intact predecessor — the
    // KEEP_CHECKPOINTS=2 retention exists exactly for this.
    use se_privgemb_suite::model::checkpoint::{
        checkpoint_file_name, latest_valid_checkpoint, write_checkpoint_atomic,
    };
    let dir = std::env::temp_dir().join(format!("spc_fi_fallback_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let older = checkpoint_from_bytes(&checkpoint_bytes()).unwrap();
    let mut newer = older.clone();
    newer.steps_run += 5;
    let older_path = dir.join(checkpoint_file_name(older.steps_run));
    let newer_path = dir.join(checkpoint_file_name(newer.steps_run));
    write_checkpoint_atomic(&older_path, &older).unwrap();
    write_checkpoint_atomic(&newer_path, &newer).unwrap();

    // Simulate a torn write of the newest file (truncate to half).
    let full = std::fs::read(&newer_path).unwrap();
    std::fs::write(&newer_path, &full[..full.len() / 2]).unwrap();

    let (found_path, found) = latest_valid_checkpoint(&dir).unwrap().expect("fallback");
    assert_eq!(found_path, older_path);
    assert_eq!(found.steps_run, older.steps_run);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dense_near_complete_graph_trains() {
    // K12 minus one edge: non-neighbour sampling is nearly impossible
    // for most centres; the fallback path must carry the run.
    let mut edges = Vec::new();
    for i in 0..12u32 {
        for j in (i + 1)..12 {
            if !(i == 0 && j == 1) {
                edges.push((i, j));
            }
        }
    }
    let g = Graph::from_edges(12, edges);
    let result = SePrivGEmb::builder()
        .dim(4)
        .epochs(3)
        .seed(10)
        .build()
        .fit(&g);
    assert_finite(&result, "near-complete");
}
