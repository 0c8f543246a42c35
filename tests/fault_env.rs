//! The env-driven global fault layer, exercised through the **real IO
//! seams** it guards: `SP_FAULT_PLAN` is parsed once per process, so
//! this file holds exactly one test and owns its whole process — the
//! in-process crash/resume suites (`tests/checkpoint_resume.rs`) use
//! explicit [`FaultPlan`] objects instead and stay plan-isolated.

use rand::rngs::StdRng;
use rand::SeedableRng;
use se_privgemb_suite::fault;
use se_privgemb_suite::model::checkpoint::write_checkpoint_atomic;
use se_privgemb_suite::model::{F32Matrix, ModelError, ModelFile, Provenance};
use se_privgemb_suite::serve::{
    synthetic, EmbeddingStore, ServeClient, ServerConfig, ServingStore,
};
use std::io::ErrorKind;

#[test]
fn global_plan_fires_each_seam_once_then_recovers() {
    // Must run before anything calls `sp_fault::inject` in this
    // process: the plan is latched on first consultation.
    std::env::set_var(
        fault::PLAN_ENV,
        "model.write@nth=1;datasets.read@nth=1;serve.conn@nth=1;checkpoint.write@nth=1",
    );

    let dir = std::env::temp_dir().join(format!("sp_fault_env_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // --- model.write: first publication dies -------------------------
    let spm = dir.join("model.spm");
    let file = ModelFile::dense(
        F32Matrix::from_vec(4, 2, vec![1.0; 8]),
        Provenance::non_private(1),
    );
    match file.write_atomic(&spm).unwrap_err() {
        ModelError::Io(e) => assert_eq!(e.kind(), ErrorKind::Other),
        other => panic!("expected an injected Io error, got {other:?}"),
    }
    assert!(!spm.exists(), "the injected crash must precede the write");
    // The second invocation is past the plan: publication succeeds.
    file.write_atomic(&spm).unwrap();
    assert_eq!(ModelFile::read(&spm).unwrap(), file);

    // --- checkpoint.write: first checkpoint dies ---------------------
    let spc = dir.join("ckpt-00000000000000000001.spc");
    let state = se_privgemb_suite::skipgram::trainer::TrainerState {
        fingerprint: 1,
        steps_run: 1,
        epochs_run: 0,
        step_in_epoch: 1,
        rng: [1, 2, 3, 4],
        noise_spare: None,
        loss_sum: 0.0,
        loss_count: 0,
        w_in: se_privgemb_suite::linalg::DenseMatrix::from_vec(2, 2, vec![0.0; 4]),
        w_out: se_privgemb_suite::linalg::DenseMatrix::from_vec(2, 2, vec![0.0; 4]),
        accountant_orders_max: 0,
        accountant_rdp: Vec::new(),
        accountant_steps: 0,
    };
    match write_checkpoint_atomic(&spc, &state).unwrap_err() {
        ModelError::Io(e) => assert_eq!(e.kind(), ErrorKind::Other),
        other => panic!("expected an injected Io error, got {other:?}"),
    }
    assert!(!spc.exists());
    write_checkpoint_atomic(&spc, &state).unwrap();
    assert!(spc.exists());

    // --- datasets.read: first open dies, stream and labels share the
    // site so the plan has already fired for both entry points --------
    let edges = dir.join("edges.txt");
    std::fs::write(&edges, b"0 1\n1 2\n").unwrap();
    let err = se_privgemb_suite::datasets::loaders::load_edge_list_path(
        &edges,
        se_privgemb_suite::graph::io::ReadOptions::default(),
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("injected"),
        "the loader must surface the injected fault: {err}"
    );
    let doc = se_privgemb_suite::datasets::loaders::load_edge_list_path(
        &edges,
        se_privgemb_suite::graph::io::ReadOptions::default(),
    )
    .unwrap();
    assert_eq!(doc.graph.num_edges(), 2);

    // --- serve.conn: the first connection is dropped pre-greeting;
    // the second is served -------------------------------------------
    let store = EmbeddingStore::from_f32(
        synthetic::clustered_embedding(50, 4, 5, 9),
        Provenance::non_private(9),
    );
    let serving = std::sync::Arc::new(ServingStore::new(store, None));
    let server = se_privgemb_suite::serve::Server::bind(
        "127.0.0.1:0",
        std::sync::Arc::clone(&serving),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());

    assert!(
        ServeClient::connect(addr).is_err(),
        "the first connection must be dropped before the greeting"
    );
    let mut client = ServeClient::connect(addr).unwrap();
    let (_, answer) = client.top_k(0, 5).unwrap();
    assert_eq!(answer.len(), 5);
    client.quit().unwrap();
    handle.shutdown();
    join.join().unwrap();

    // Determinism sanity for a seeded run: a fresh RNG stream is
    // unaffected by the fault layer being active.
    let mut rng = StdRng::seed_from_u64(1);
    let g = se_privgemb_suite::datasets::generators::barabasi_albert(30, 2, &mut rng);
    assert!(g.num_edges() > 0);

    std::fs::remove_dir_all(&dir).ok();
}
