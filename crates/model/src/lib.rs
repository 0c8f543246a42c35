//! # sp-model
//!
//! The `.spm` binary format for *published* embedding models — the
//! durable artefact of a DP training run. Under the paper's threat
//! model a published model is pure post-processing (Theorem 2): it can
//! be stored, copied, and queried forever at zero marginal privacy
//! cost, so the format records the provenance of the spend (seed, ε,
//! δ) alongside the payload.
//!
//! ## Layout (version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SPMB"
//! 4       2     format version (u16 LE) = 1
//! 6       2     payload kind (u16 LE): 1 = dense matrix, 2 = skip-gram pair
//! 8       8     rows (node count, u64 LE)
//! 16      8     cols (embedding dimension, u64 LE)
//! 24      8     provenance: training seed (u64 LE)
//! 32      8     provenance: epsilon spent (f64 bits LE)
//! 40      8     provenance: delta spent (f64 bits LE)
//! 48      8     reserved (must be 0)
//! 56      8     payload length in bytes (u64 LE)
//! 64      ...   payload: row-major f32 LE blocks
//!               kind 1: rows*cols values; kind 2: W_in then W_out
//! end-4   4     CRC32 (LE) over everything before it (header + payload)
//! ```
//!
//! The header is exactly 64 bytes, so on any page-aligned mapping the
//! f32 payload starts 64-byte aligned — the format is mmap-ready even
//! though this workspace's std-only readers bulk-read (`unsafe` is
//! forbidden workspace-wide and std has no mmap).
//!
//! Values are stored as **raw f32 bit patterns**: writers and readers
//! move `u32` bits, never converting through arithmetic, so NaN
//! payloads, signed zeros, and subnormals survive a round trip
//! bit-identically (property-tested in `tests/prop_roundtrip.rs`).
//! Publishing an `f64`-trained matrix rounds each entry to the nearest
//! f32 once, at write time — the documented publication precision.
//!
//! Every failure is a typed [`ModelError`] — truncation, version skew,
//! checksum mismatch — mirroring the `LoadError` discipline of the
//! dataset loaders. Readers never panic on malformed bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;

use sp_linalg::DenseMatrix;
use sp_parallel::crc32;
use sp_skipgram::SkipGramModel;
use std::fmt;
use std::path::Path;

/// File magic: "Structure-Preference Model Binary".
pub const MAGIC: [u8; 4] = *b"SPMB";
/// The single format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;
/// Header size in bytes; the f32 payload starts at this offset.
pub const HEADER_LEN: usize = 64;
/// Trailing checksum size in bytes.
pub const TRAILER_LEN: usize = 4;

const KIND_DENSE: u16 = 1;
const KIND_SKIPGRAM: u16 = 2;

/// Typed failure of any read or write of the `.spm` format. Readers
/// never panic on malformed bytes.
#[derive(Debug)]
pub enum ModelError {
    /// Filesystem failure (missing file, permissions, full disk, …).
    Io(std::io::Error),
    /// The byte stream ends before the declared content does.
    Truncated {
        /// Bytes the header (or the minimum header itself) requires.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// A version this build does not understand (it only speaks
    /// [`FORMAT_VERSION`]).
    UnsupportedVersion {
        /// Version declared by the file.
        found: u16,
    },
    /// A payload-kind tag this build does not understand.
    UnknownKind {
        /// Kind tag declared by the file.
        found: u16,
    },
    /// Header fields that contradict each other or the byte count
    /// (e.g. a bit-flipped row count).
    Corrupt {
        /// What was inconsistent.
        reason: &'static str,
    },
    /// The CRC32 trailer does not match the header + payload bytes.
    ChecksumMismatch {
        /// Checksum declared by the trailer.
        declared: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Io(e) => write!(f, "i/o error: {e}"),
            ModelError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated model file: need {expected} bytes, have {found}"
                )
            }
            ModelError::BadMagic { found } => {
                write!(f, "not an .spm model file (magic {found:02x?})")
            }
            ModelError::UnsupportedVersion { found } => write!(
                f,
                "model format version {found} not supported (this build reads {FORMAT_VERSION})"
            ),
            ModelError::UnknownKind { found } => {
                write!(f, "unknown model payload kind {found}")
            }
            ModelError::Corrupt { reason } => write!(f, "corrupt model header: {reason}"),
            ModelError::ChecksumMismatch { declared, actual } => write!(
                f,
                "checksum mismatch: trailer {declared:#010x}, data {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

/// Training provenance carried in the header: which seeded run spent
/// which budget to produce this model. For non-private runs store
/// `epsilon: f64::INFINITY`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Provenance {
    /// RNG seed of the training run.
    pub seed: u64,
    /// ε spent by the run that produced the payload.
    pub epsilon: f64,
    /// δ spent by the run that produced the payload.
    pub delta: f64,
}

impl Provenance {
    /// Provenance of a non-private run (ε = ∞, δ = 0).
    pub fn non_private(seed: u64) -> Self {
        Self {
            seed,
            epsilon: f64::INFINITY,
            delta: 0.0,
        }
    }
}

/// A row-major `rows x cols` matrix of f32 — the in-memory mirror of
/// one payload block. Serving reads these directly; nothing upcasts
/// back to f64 on the query path.
#[derive(Clone, Debug, PartialEq)]
pub struct F32Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl F32Matrix {
    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Rounds an `f64` matrix to publication precision (nearest f32,
    /// once). This is the exact conversion the writers apply, so a
    /// store built in memory from a trained model and one loaded back
    /// from disk hold bit-identical payloads.
    pub fn from_dense(m: &DenseMatrix) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole backing buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Exact (bit-level) upcast to the workspace's `f64` matrix type,
    /// for feeding a loaded model back into evaluation code.
    pub fn to_dense(&self) -> DenseMatrix {
        DenseMatrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| v as f64).collect(),
        )
    }
}

/// The payload of one model file.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelPayload {
    /// A single embedding matrix (`W_in` alone — the published node
    /// vectors).
    Dense(F32Matrix),
    /// Both skip-gram matrices, enabling directed link scores
    /// `σ(W_in[u] · W_out[v])` at serve time.
    SkipGram {
        /// Centre embeddings (the published node vectors).
        w_in: F32Matrix,
        /// Context embeddings.
        w_out: F32Matrix,
    },
}

impl ModelPayload {
    /// The published node-vector matrix (`W_in` for skip-gram pairs).
    pub fn vectors(&self) -> &F32Matrix {
        match self {
            ModelPayload::Dense(m) => m,
            ModelPayload::SkipGram { w_in, .. } => w_in,
        }
    }

    /// The context matrix, when the payload carries one.
    pub fn context(&self) -> Option<&F32Matrix> {
        match self {
            ModelPayload::Dense(_) => None,
            ModelPayload::SkipGram { w_out, .. } => Some(w_out),
        }
    }

    fn kind_tag(&self) -> u16 {
        match self {
            ModelPayload::Dense(_) => KIND_DENSE,
            ModelPayload::SkipGram { .. } => KIND_SKIPGRAM,
        }
    }

    fn blocks(&self) -> Vec<&F32Matrix> {
        match self {
            ModelPayload::Dense(m) => vec![m],
            ModelPayload::SkipGram { w_in, w_out } => vec![w_in, w_out],
        }
    }
}

/// One parsed (or to-be-written) model file: payload + provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelFile {
    /// The embedding payload.
    pub payload: ModelPayload,
    /// Training provenance from the header.
    pub provenance: Provenance,
}

impl ModelFile {
    /// Wraps a single published matrix.
    pub fn dense(m: F32Matrix, provenance: Provenance) -> Self {
        Self {
            payload: ModelPayload::Dense(m),
            provenance,
        }
    }

    /// Rounds a trained skip-gram model to publication precision.
    pub fn from_skipgram(model: &SkipGramModel, provenance: Provenance) -> Self {
        assert_eq!(
            model.w_in.shape(),
            model.w_out.shape(),
            "skip-gram matrices must share a shape"
        );
        Self {
            payload: ModelPayload::SkipGram {
                w_in: F32Matrix::from_dense(&model.w_in),
                w_out: F32Matrix::from_dense(&model.w_out),
            },
            provenance,
        }
    }

    /// Rounds a trained `f64` matrix to publication precision.
    pub fn from_dense(m: &DenseMatrix, provenance: Provenance) -> Self {
        Self::dense(F32Matrix::from_dense(m), provenance)
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.payload.vectors().rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.payload.vectors().cols()
    }

    /// Serialises to the version-1 byte layout (header + payload +
    /// CRC32 trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let blocks = self.payload.blocks();
        let rows = blocks[0].rows();
        let cols = blocks[0].cols();
        for b in &blocks {
            assert_eq!(
                (b.rows(), b.cols()),
                (rows, cols),
                "payload block shapes differ"
            );
        }
        let payload_len = blocks.len() * rows * cols * 4;
        let mut out = Vec::with_capacity(HEADER_LEN + payload_len + TRAILER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.payload.kind_tag().to_le_bytes());
        out.extend_from_slice(&(rows as u64).to_le_bytes());
        out.extend_from_slice(&(cols as u64).to_le_bytes());
        out.extend_from_slice(&self.provenance.seed.to_le_bytes());
        out.extend_from_slice(&self.provenance.epsilon.to_bits().to_le_bytes());
        out.extend_from_slice(&self.provenance.delta.to_bits().to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // reserved
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        for b in blocks {
            for &v in b.as_slice() {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates the version-1 byte layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelError> {
        let min = HEADER_LEN + TRAILER_LEN;
        if bytes.len() < min {
            return Err(ModelError::Truncated {
                expected: min,
                found: bytes.len(),
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
        if magic != MAGIC {
            return Err(ModelError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2-byte slice"));
        if version != FORMAT_VERSION {
            return Err(ModelError::UnsupportedVersion { found: version });
        }
        let kind = u16::from_le_bytes(bytes[6..8].try_into().expect("2-byte slice"));
        let nblocks = match kind {
            KIND_DENSE => 1usize,
            KIND_SKIPGRAM => 2,
            other => return Err(ModelError::UnknownKind { found: other }),
        };
        let read_u64 =
            |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"));
        let rows = read_u64(8);
        let cols = read_u64(16);
        let provenance = Provenance {
            seed: read_u64(24),
            epsilon: f64::from_bits(read_u64(32)),
            delta: f64::from_bits(read_u64(40)),
        };
        if read_u64(48) != 0 {
            return Err(ModelError::Corrupt {
                reason: "reserved header field is non-zero",
            });
        }
        let payload_len = read_u64(56);
        // All size arithmetic is checked: a bit-flipped row count must
        // surface as a typed error, not an overflow panic or a huge
        // allocation attempt.
        let values = rows
            .checked_mul(cols)
            .and_then(|v| v.checked_mul(nblocks as u64))
            .ok_or(ModelError::Corrupt {
                reason: "rows * cols overflows",
            })?;
        let expected_payload = values.checked_mul(4).ok_or(ModelError::Corrupt {
            reason: "payload size overflows",
        })?;
        if payload_len != expected_payload {
            return Err(ModelError::Corrupt {
                reason: "declared payload length does not match rows * cols",
            });
        }
        if expected_payload > (usize::MAX - min) as u64 {
            return Err(ModelError::Corrupt {
                reason: "payload size exceeds the address space",
            });
        }
        let total = min + expected_payload as usize;
        if bytes.len() < total {
            return Err(ModelError::Truncated {
                expected: total,
                found: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(ModelError::Corrupt {
                reason: "trailing bytes after the checksum",
            });
        }
        let declared = u32::from_le_bytes(bytes[total - 4..].try_into().expect("4-byte slice"));
        let actual = crc32(&bytes[..total - 4]);
        if declared != actual {
            return Err(ModelError::ChecksumMismatch { declared, actual });
        }
        let rows = rows as usize;
        let cols = cols as usize;
        let block_values = rows * cols;
        let mut blocks = Vec::with_capacity(nblocks);
        for b in 0..nblocks {
            let start = HEADER_LEN + b * block_values * 4;
            let data: Vec<f32> = bytes[start..start + block_values * 4]
                .chunks_exact(4)
                .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
                .collect();
            blocks.push(F32Matrix::from_vec(rows, cols, data));
        }
        let payload = match kind {
            KIND_DENSE => ModelPayload::Dense(blocks.pop().expect("one block")),
            _ => {
                let w_out = blocks.pop().expect("two blocks");
                let w_in = blocks.pop().expect("two blocks");
                ModelPayload::SkipGram { w_in, w_out }
            }
        };
        Ok(Self {
            payload,
            provenance,
        })
    }

    /// Reads and validates a model file from disk.
    pub fn read(path: &Path) -> Result<Self, ModelError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Writes the serialised model to `path` **atomically**: the bytes
    /// land in a temporary sibling first and are renamed into place, so
    /// a concurrent reader (or a crashed writer) sees either the old
    /// complete file or the new complete file, never a torn prefix.
    /// This is the republish primitive of the dynamic pipeline.
    pub fn write_atomic(&self, path: &Path) -> Result<(), ModelError> {
        write_bytes_atomic(path, &self.to_bytes())
    }
}

/// Atomically replaces `path` with `bytes` via a temporary sibling file
/// and a rename (atomic on POSIX when both live in the same directory).
///
/// Durability: the temporary file is `fsync`ed **before** the rename —
/// otherwise a crash after the rename could persist the new directory
/// entry pointing at never-flushed contents, violating the "old
/// complete file or new complete file" contract. After the rename the
/// parent directory is synced best-effort so the entry itself survives
/// a crash (failure to sync the directory is not an error: the data
/// rename already succeeded, and some filesystems reject `fsync` on
/// directory handles).
///
/// Concurrency: the temporary name carries a process-global counter in
/// addition to the pid, so any number of threads in one process can
/// republish the same path simultaneously — each write lands in its
/// own temp file and the last rename wins with a complete payload.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<(), ModelError> {
    write_bytes_atomic_site(sp_fault::sites::MODEL_WRITE, path, bytes)
}

/// [`write_bytes_atomic`] with an explicit fault-injection site, so
/// checkpoint writes and model writes can be killed independently by a
/// fault plan. A no-op single atomic load when `SP_FAULT_PLAN` is
/// unset.
pub(crate) fn write_bytes_atomic_site(
    site: &str,
    path: &Path,
    bytes: &[u8],
) -> Result<(), ModelError> {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

    sp_fault::inject(site).map_err(std::io::Error::from)?;

    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let write_and_sync = |tmp: &Path| -> std::io::Result<()> {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    };
    if let Err(e) = write_and_sync(&tmp) {
        std::fs::remove_file(&tmp).ok();
        return Err(ModelError::Io(e));
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => {
            if let Some(d) = dir {
                if let Ok(dh) = std::fs::File::open(d) {
                    dh.sync_all().ok();
                }
            }
            Ok(())
        }
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(ModelError::Io(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_provenance() -> Provenance {
        Provenance {
            seed: 0xD5EED,
            epsilon: 3.5,
            delta: 1e-5,
        }
    }

    fn sample_skipgram() -> SkipGramModel {
        let mut rng = StdRng::seed_from_u64(9);
        SkipGramModel::new(17, 6, &mut rng)
    }

    #[test]
    fn dense_round_trip_preserves_bits_and_provenance() {
        let m = F32Matrix::from_vec(3, 2, vec![1.5, -0.0, f32::MIN_POSITIVE, 2e-40, 7.25, -3.0]);
        let f = ModelFile::dense(m.clone(), sample_provenance());
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + 6 * 4 + TRAILER_LEN);
        let back = ModelFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.provenance, sample_provenance());
        let got = back.payload.vectors();
        assert_eq!(got.rows(), 3);
        assert_eq!(got.cols(), 2);
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.as_slice()), bits(m.as_slice()));
        assert!(back.payload.context().is_none());
    }

    #[test]
    fn skipgram_round_trip_keeps_both_matrices() {
        let model = sample_skipgram();
        let f = ModelFile::from_skipgram(&model, Provenance::non_private(42));
        let back = ModelFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back.num_nodes(), 17);
        assert_eq!(back.dim(), 6);
        assert_eq!(back.provenance.seed, 42);
        assert!(back.provenance.epsilon.is_infinite());
        let w_in = back.payload.vectors();
        let w_out = back.payload.context().expect("skip-gram payload");
        for i in 0..17 {
            for d in 0..6 {
                assert_eq!(w_in.row(i)[d], model.w_in.get(i, d) as f32);
                assert_eq!(w_out.row(i)[d], model.w_out.get(i, d) as f32);
            }
        }
    }

    #[test]
    fn empty_matrix_round_trips() {
        let f = ModelFile::dense(
            F32Matrix::from_vec(0, 4, Vec::new()),
            Provenance::non_private(0),
        );
        let back = ModelFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back.num_nodes(), 0);
        assert_eq!(back.dim(), 4);
    }

    #[test]
    fn to_dense_is_exact() {
        let m = F32Matrix::from_vec(2, 2, vec![0.1, -2.5, 3.0e-12, 1.0]);
        let d = m.to_dense();
        for (a, b) in m.as_slice().iter().zip(d.as_slice()) {
            assert_eq!(*a as f64, *b, "f32 -> f64 must be exact");
        }
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join(format!("sp_model_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.spm");
        let f = ModelFile::from_skipgram(&sample_skipgram(), sample_provenance());
        f.write_atomic(&path).unwrap();
        let back = ModelFile::read(&path).unwrap();
        assert_eq!(back, f);
        // Republishing over an existing file also succeeds (rename
        // replaces on POSIX).
        f.write_atomic(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_republish_same_path_never_corrupts() {
        // Regression for the shared-temp-file race: the temp name used
        // to be keyed only on the pid, so two threads republishing the
        // same path interleaved writes into ONE temp file and could
        // rename a torn mix into place. With the per-write counter,
        // every writer gets its own temp file: all writes succeed, all
        // concurrent reads parse complete checksum-valid models, and
        // no temp litter survives.
        let dir = std::env::temp_dir().join(format!("sp_model_race_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.spm");
        let make = |tag: u64| {
            ModelFile::dense(
                F32Matrix::from_vec(32, 8, vec![tag as f32; 32 * 8]),
                Provenance::non_private(tag),
            )
        };
        make(0).write_atomic(&path).unwrap();
        std::thread::scope(|scope| {
            let path = &path;
            let mut writers = Vec::new();
            for w in 0..4u64 {
                writers.push(scope.spawn(move || {
                    for i in 0..25u64 {
                        make(w * 1000 + i).write_atomic(path).unwrap();
                    }
                }));
            }
            let reader = scope.spawn(move || {
                for _ in 0..200 {
                    let f = ModelFile::read(path).expect("concurrent read must be complete");
                    // Payload and provenance always agree on one tag.
                    let tag = f.provenance.seed;
                    assert!(f
                        .payload
                        .vectors()
                        .as_slice()
                        .iter()
                        .all(|&v| v == tag as f32));
                }
            });
            for w in writers {
                w.join().unwrap();
            }
            reader.join().unwrap();
        });
        // Every temp file was renamed or cleaned up.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_survives_stale_temp_garbage() {
        // A writer killed mid-write leaves a stale temp file behind.
        // Later publishes must neither trip over it nor publish it.
        let dir = std::env::temp_dir().join(format!("sp_model_stale_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.spm");
        std::fs::write(dir.join(".model.spm.tmp-99999-0"), b"torn garbage").unwrap();
        let f = ModelFile::dense(
            F32Matrix::from_vec(2, 2, vec![1.0; 4]),
            Provenance::non_private(7),
        );
        f.write_atomic(&path).unwrap();
        assert_eq!(ModelFile::read(&path).unwrap(), f);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_typed_io() {
        let err = ModelFile::read(Path::new("/nonexistent/sp_model.spm")).unwrap_err();
        assert!(matches!(err, ModelError::Io(_)));
    }

    #[test]
    fn error_display_is_informative() {
        let s = ModelError::ChecksumMismatch {
            declared: 1,
            actual: 2,
        }
        .to_string();
        assert!(s.contains("checksum"), "{s}");
        let s = ModelError::UnsupportedVersion { found: 9 }.to_string();
        assert!(s.contains('9') && s.contains('1'), "{s}");
    }
}
