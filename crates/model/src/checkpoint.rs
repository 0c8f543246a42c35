//! The `.spc` binary format for crash-safe **training checkpoints**,
//! plus the orchestration that drives a checkpointed run.
//!
//! A checkpoint serialises a [`TrainerState`] — the trainer's full loop
//! state at a step boundary (counters, RNG, loss accumulator, both
//! matrices at **full `f64` precision**, and the raw RDP curve). The
//! noise-spare word is a leftover of the polar sampler: the trainer's
//! keyed noise never sets it, but the layout keeps the slot. Unlike the published `.spm` artefact, which rounds to
//! f32 once at publication, a checkpoint must restore the exact bits
//! the loop would have carried forward, so everything here is stored as
//! raw `f64`/`u64` bit patterns.
//!
//! ## Layout (version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SPCK"
//! 4       2     format version (u16 LE) = 1
//! 6       2     flags (u16 LE): bit 0 = noise spare present,
//!                               bit 1 = accountant present
//! 8       8     config/graph fingerprint (u64 LE)
//! 16      8     steps_run (u64 LE)
//! 24      8     epochs_run (u64 LE)
//! 32      8     step_in_epoch (u64 LE)
//! 40      32    run RNG state (4 × u64 LE, xoshiro256++)
//! 72      8     noise spare (f64 bits LE; 0 when absent)
//! 80      8     loss sum (f64 bits LE)
//! 88      8     loss count (u64 LE)
//! 96      8     rows (node count, u64 LE)
//! 104     8     cols (embedding dimension, u64 LE)
//! 112     8     accountant max order (u64 LE; 0 when non-private)
//! 120     8     accountant steps (u64 LE)
//! 128     8     payload length in bytes (u64 LE)
//! 136     ...   payload, all f64 bits LE:
//!               RDP curve (max_order - 1 values when present),
//!               then W_in (rows×cols), then W_out (rows×cols)
//! end-4   4     CRC32 (LE) over everything before it
//! ```
//!
//! Writes go through [`crate::write_bytes_atomic`]'s temp + fsync +
//! rename discipline under the `checkpoint.write` fault-injection site,
//! so a crash mid-write leaves the previous checkpoint untouched; and
//! [`latest_valid_checkpoint`] skips torn or corrupt files, so resume
//! falls back to the newest checkpoint that validates.

use crate::{write_bytes_atomic_site, ModelError, TRAILER_LEN};
use sp_graph::Graph;
use sp_linalg::DenseMatrix;
use sp_parallel::crc32;
use sp_proximity::EdgeProximity;
use sp_skipgram::trainer::TrainerState;
use sp_skipgram::{SkipGramModel, TrainReport, Trainer};
use std::path::{Path, PathBuf};

/// File magic: "Structure-Preference ChecKpoint".
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SPCK";
/// The single checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u16 = 1;
/// Header size in bytes; the f64 payload starts at this offset.
pub const CHECKPOINT_HEADER_LEN: usize = 136;
/// Checkpoint files newer generations keep around: the current one
/// plus its predecessor, so a torn newest file always leaves a valid
/// fallback on disk.
pub const KEEP_CHECKPOINTS: usize = 2;

const FLAG_SPARE: u16 = 1 << 0;
const FLAG_ACCOUNTANT: u16 = 1 << 1;

/// Canonical file name of the checkpoint taken after `steps` completed
/// steps. Zero-padded so lexicographic directory order equals step
/// order.
pub fn checkpoint_file_name(steps: u64) -> String {
    format!("ckpt-{steps:020}.spc")
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".spc")?
        .parse()
        .ok()
}

/// Serialises a [`TrainerState`] into `.spc` bytes.
pub fn checkpoint_to_bytes(st: &TrainerState) -> Vec<u8> {
    let rows = st.w_in.rows();
    let cols = st.w_in.cols();
    debug_assert_eq!(rows, st.w_out.rows());
    debug_assert_eq!(cols, st.w_out.cols());
    let has_accountant = st.accountant_orders_max != 0;
    let payload_words = st.accountant_rdp.len() + 2 * rows * cols;
    let payload_len = payload_words * 8;

    let mut flags = 0u16;
    if st.noise_spare.is_some() {
        flags |= FLAG_SPARE;
    }
    if has_accountant {
        flags |= FLAG_ACCOUNTANT;
    }

    let mut out = Vec::with_capacity(CHECKPOINT_HEADER_LEN + payload_len + TRAILER_LEN);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&st.fingerprint.to_le_bytes());
    out.extend_from_slice(&st.steps_run.to_le_bytes());
    out.extend_from_slice(&st.epochs_run.to_le_bytes());
    out.extend_from_slice(&st.step_in_epoch.to_le_bytes());
    for word in st.rng {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&st.noise_spare.unwrap_or(0.0).to_bits().to_le_bytes());
    out.extend_from_slice(&st.loss_sum.to_bits().to_le_bytes());
    out.extend_from_slice(&st.loss_count.to_le_bytes());
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&(cols as u64).to_le_bytes());
    out.extend_from_slice(&st.accountant_orders_max.to_le_bytes());
    out.extend_from_slice(&st.accountant_steps.to_le_bytes());
    out.extend_from_slice(&(payload_len as u64).to_le_bytes());
    debug_assert_eq!(out.len(), CHECKPOINT_HEADER_LEN);
    for &v in &st.accountant_rdp {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for &v in st.w_in.as_slice() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for &v in st.w_out.as_slice() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let checksum = crc32(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

/// Parses `.spc` bytes back into a [`TrainerState`]. Never panics on
/// malformed input — every failure is a typed [`ModelError`], matching
/// the `.spm` reader's discipline.
pub fn checkpoint_from_bytes(bytes: &[u8]) -> Result<TrainerState, ModelError> {
    let min = CHECKPOINT_HEADER_LEN + TRAILER_LEN;
    if bytes.len() < min {
        return Err(ModelError::Truncated {
            expected: min,
            found: bytes.len(),
        });
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&bytes[0..4]);
    if magic != CHECKPOINT_MAGIC {
        return Err(ModelError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(ModelError::UnsupportedVersion { found: version });
    }
    let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if flags & !(FLAG_SPARE | FLAG_ACCOUNTANT) != 0 {
        return Err(ModelError::Corrupt {
            reason: "unknown checkpoint flags",
        });
    }
    let fingerprint = read_u64(bytes, 8);
    let steps_run = read_u64(bytes, 16);
    let epochs_run = read_u64(bytes, 24);
    let step_in_epoch = read_u64(bytes, 32);
    let rng = [
        read_u64(bytes, 40),
        read_u64(bytes, 48),
        read_u64(bytes, 56),
        read_u64(bytes, 64),
    ];
    let spare_bits = read_u64(bytes, 72);
    let loss_sum = f64::from_bits(read_u64(bytes, 80));
    let loss_count = read_u64(bytes, 88);
    let rows = read_u64(bytes, 96);
    let cols = read_u64(bytes, 104);
    let accountant_orders_max = read_u64(bytes, 112);
    let accountant_steps = read_u64(bytes, 120);
    let payload_len = read_u64(bytes, 128);

    let has_accountant = flags & FLAG_ACCOUNTANT != 0;
    if !has_accountant && (accountant_orders_max != 0 || accountant_steps != 0) {
        return Err(ModelError::Corrupt {
            reason: "accountant fields set without the accountant flag",
        });
    }
    if has_accountant && accountant_orders_max < 2 {
        return Err(ModelError::Corrupt {
            reason: "accountant grid needs max order >= 2",
        });
    }
    let rdp_words = if has_accountant {
        accountant_orders_max - 1
    } else {
        0
    };
    let matrix_words = rows
        .checked_mul(cols)
        .and_then(|w| w.checked_mul(2))
        .ok_or(ModelError::Corrupt {
            reason: "matrix shape overflows",
        })?;
    let expected_payload = rdp_words
        .checked_add(matrix_words)
        .and_then(|w| w.checked_mul(8))
        .ok_or(ModelError::Corrupt {
            reason: "payload length overflows",
        })?;
    if payload_len != expected_payload {
        return Err(ModelError::Corrupt {
            reason: "payload length does not match declared shape",
        });
    }
    let expected_total = CHECKPOINT_HEADER_LEN as u64 + payload_len + TRAILER_LEN as u64;
    if (bytes.len() as u64) < expected_total {
        return Err(ModelError::Truncated {
            expected: expected_total as usize,
            found: bytes.len(),
        });
    }
    if bytes.len() as u64 != expected_total {
        return Err(ModelError::Corrupt {
            reason: "trailing bytes after checksum",
        });
    }
    let body_len = bytes.len() - TRAILER_LEN;
    let declared = u32::from_le_bytes(bytes[body_len..].try_into().expect("4 bytes"));
    let actual = crc32(&bytes[..body_len]);
    if declared != actual {
        return Err(ModelError::ChecksumMismatch { declared, actual });
    }

    let mut offset = CHECKPOINT_HEADER_LEN;
    let mut take_f64s = |n: usize| -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f64::from_bits(read_u64(bytes, offset)));
            offset += 8;
        }
        out
    };
    let accountant_rdp = take_f64s(rdp_words as usize);
    let per_matrix = (rows * cols) as usize;
    let w_in = DenseMatrix::from_vec(rows as usize, cols as usize, take_f64s(per_matrix));
    let w_out = DenseMatrix::from_vec(rows as usize, cols as usize, take_f64s(per_matrix));

    Ok(TrainerState {
        fingerprint,
        steps_run,
        epochs_run,
        step_in_epoch,
        rng,
        noise_spare: (flags & FLAG_SPARE != 0).then_some(f64::from_bits(spare_bits)),
        loss_sum,
        loss_count,
        w_in,
        w_out,
        accountant_orders_max,
        accountant_rdp,
        accountant_steps,
    })
}

/// Writes a checkpoint with the same atomic temp + fsync + rename
/// discipline as model publication, under the `checkpoint.write` fault
/// site: an injected (or real) crash mid-write never damages the
/// previous checkpoint at `path`.
pub fn write_checkpoint_atomic(path: &Path, st: &TrainerState) -> Result<(), ModelError> {
    write_bytes_atomic_site(
        sp_fault::sites::CHECKPOINT_WRITE,
        path,
        &checkpoint_to_bytes(st),
    )
}

/// Reads and validates one checkpoint file (fault site
/// `checkpoint.read`).
pub fn read_checkpoint(path: &Path) -> Result<TrainerState, ModelError> {
    sp_fault::inject(sp_fault::sites::CHECKPOINT_READ).map_err(std::io::Error::from)?;
    checkpoint_from_bytes(&std::fs::read(path)?)
}

/// Finds the newest checkpoint in `dir` that parses and validates,
/// scanning `ckpt-*.spc` files in descending step order and **skipping**
/// torn, corrupt, or unreadable ones — resume falls back to the best
/// surviving checkpoint rather than failing on a damaged newest file.
///
/// Returns `Ok(None)` when the directory does not exist or holds no
/// valid checkpoint. Only a directory-listing failure is an error.
pub fn latest_valid_checkpoint(dir: &Path) -> Result<Option<(PathBuf, TrainerState)>, ModelError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ModelError::Io(e)),
    };
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(ModelError::Io)?;
        let name = entry.file_name();
        if let Some(steps) = name.to_str().and_then(parse_checkpoint_name) {
            candidates.push((steps, entry.path()));
        }
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    for (_, path) in candidates {
        if let Ok(state) = read_checkpoint(&path) {
            return Ok(Some((path, state)));
        }
    }
    Ok(None)
}

/// Best-effort retention: deletes all but the newest
/// [`KEEP_CHECKPOINTS`] checkpoint files in `dir`. Deletion failures
/// are ignored — stale checkpoints are harmless, only missing ones
/// would hurt.
pub fn prune_checkpoints(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut files: Vec<(u64, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let steps = e.file_name().to_str().and_then(parse_checkpoint_name)?;
            Some((steps, e.path()))
        })
        .collect();
    files.sort_by_key(|f| std::cmp::Reverse(f.0));
    for (_, path) in files.into_iter().skip(KEEP_CHECKPOINTS) {
        std::fs::remove_file(path).ok();
    }
}

/// The result of a checkpointed (possibly resumed) training run.
#[derive(Clone, Debug)]
pub struct CheckpointedRun {
    /// The trained model.
    pub model: SkipGramModel,
    /// The training report; bit-identical to an uninterrupted run's.
    pub report: TrainReport,
    /// The checkpoint the run resumed from, when there was one.
    pub resumed_from: Option<PathBuf>,
}

/// Drives a crash-safe training run: resumes from the newest valid
/// checkpoint in `TrainConfig::checkpoint_dir` (when `resume` is set
/// and one exists), trains with a sink that persists a `.spc` every
/// `TrainConfig::checkpoint_every` steps, and prunes old checkpoints
/// after each successful write.
///
/// A checkpoint write failure aborts the run and surfaces as the
/// underlying [`ModelError`]: a run that cannot meet its durability
/// contract must not pretend to. A resume whose snapshot does not
/// match the config/graph fingerprint fails with `InvalidData` rather
/// than silently cold-starting — half of a different run's trajectory
/// is worse than an explicit error.
///
/// # Errors
/// `Io(InvalidInput)` when `checkpoint_dir` is unset; otherwise
/// checkpoint IO and resume-validation failures.
pub fn train_with_checkpoints(
    trainer: &Trainer,
    g: &Graph,
    prox: &EdgeProximity,
    initial: Option<SkipGramModel>,
    resume: bool,
) -> Result<CheckpointedRun, ModelError> {
    let cfg = trainer.config();
    let dir = cfg.checkpoint_dir.clone().ok_or_else(|| {
        ModelError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "TrainConfig::checkpoint_dir is not set",
        ))
    })?;
    std::fs::create_dir_all(&dir)?;
    let resumed = if resume {
        latest_valid_checkpoint(&dir)?
    } else {
        None
    };
    let resumed_from = resumed.as_ref().map(|(path, _)| path.clone());

    // The trainer's sink speaks io::Error; keep the typed ModelError on
    // the side so checksum/corruption detail survives the round trip.
    let mut write_err: Option<ModelError> = None;
    let mut sink = |st: &TrainerState| -> std::io::Result<()> {
        let path = dir.join(checkpoint_file_name(st.steps_run));
        match write_checkpoint_atomic(&path, st) {
            Ok(()) => {
                prune_checkpoints(&dir);
                Ok(())
            }
            Err(e) => {
                let err = std::io::Error::other(format!("checkpoint write failed: {e}"));
                write_err = Some(e);
                Err(err)
            }
        }
    };
    match trainer.train_checkpointed(
        g,
        prox,
        initial,
        resumed.as_ref().map(|(_, st)| st),
        &mut sink,
    ) {
        Ok((model, report)) => Ok(CheckpointedRun {
            model,
            report,
            resumed_from,
        }),
        Err(e) => Err(match write_err {
            Some(typed) => typed,
            None => ModelError::Io(e),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> TrainerState {
        TrainerState {
            fingerprint: 0xDEAD_BEEF_1234_5678,
            steps_run: 42,
            epochs_run: 3,
            step_in_epoch: 6,
            rng: [1, 2, 3, u64::MAX],
            noise_spare: Some(-0.75),
            loss_sum: 12.5,
            loss_count: 480,
            w_in: DenseMatrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, f64::MIN_POSITIVE, 0.0, -0.0]),
            w_out: DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, f64::NAN]),
            accountant_orders_max: 8,
            accountant_rdp: vec![0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07],
            accountant_steps: 42,
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let st = tiny_state();
        let bytes = checkpoint_to_bytes(&st);
        let back = checkpoint_from_bytes(&bytes).unwrap();
        assert_eq!(back.fingerprint, st.fingerprint);
        assert_eq!(back.steps_run, st.steps_run);
        assert_eq!(back.epochs_run, st.epochs_run);
        assert_eq!(back.step_in_epoch, st.step_in_epoch);
        assert_eq!(back.rng, st.rng);
        assert_eq!(
            back.noise_spare.map(f64::to_bits),
            st.noise_spare.map(f64::to_bits)
        );
        assert_eq!(back.loss_sum.to_bits(), st.loss_sum.to_bits());
        assert_eq!(back.loss_count, st.loss_count);
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.w_in), bits(&st.w_in), "NaN/−0.0 must survive");
        assert_eq!(bits(&back.w_out), bits(&st.w_out));
        assert_eq!(back.accountant_orders_max, st.accountant_orders_max);
        assert_eq!(back.accountant_rdp, st.accountant_rdp);
        assert_eq!(back.accountant_steps, st.accountant_steps);
    }

    #[test]
    fn roundtrip_without_accountant_or_spare() {
        let mut st = tiny_state();
        st.noise_spare = None;
        st.accountant_orders_max = 0;
        st.accountant_rdp = Vec::new();
        st.accountant_steps = 0;
        let back = checkpoint_from_bytes(&checkpoint_to_bytes(&st)).unwrap();
        assert_eq!(back.noise_spare, None);
        assert_eq!(back.accountant_orders_max, 0);
        assert!(back.accountant_rdp.is_empty());
    }

    #[test]
    fn file_names_sort_by_step() {
        let mut names = [
            checkpoint_file_name(100),
            checkpoint_file_name(2),
            checkpoint_file_name(30),
        ];
        names.sort();
        assert_eq!(parse_checkpoint_name(&names[0]), Some(2));
        assert_eq!(parse_checkpoint_name(&names[2]), Some(100));
        assert_eq!(parse_checkpoint_name("model.spm"), None);
        assert_eq!(parse_checkpoint_name("ckpt-x.spc"), None);
    }

    #[test]
    fn latest_valid_skips_missing_directory() {
        let missing = std::env::temp_dir().join("spc-definitely-missing-dir-xyz");
        assert!(latest_valid_checkpoint(&missing).unwrap().is_none());
    }
}
