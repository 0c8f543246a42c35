//! # sp-parallel
//!
//! Deterministic chunked worker-pool primitives shared by the proximity
//! builders (row-partitioned SpGEMM and wedge enumeration), the
//! walk-corpus generator, the IVF index build, and the bench harness's
//! experiment sweeps, plus the workspace's one [`splitmix64`] counter
//! hash and its one [`crc32`] checksum.
//!
//! ## Determinism contract
//!
//! Every primitive in this crate produces **bit-identical output for
//! any thread count**, which is what lets the DP training pipeline
//! parallelise its hot paths without perturbing the privacy accounting
//! or the reproducibility of a seeded run:
//!
//! - Work is split into *chunks* whose boundaries are a function of the
//!   item count and the chunk size only — never of the thread count or
//!   of scheduling order. Threads race to *claim* chunks, but each
//!   chunk's result is written to its own slot and the slots are
//!   concatenated in chunk-index order after the pool joins.
//! - [`par_map`] and [`par_map_chunks`] therefore preserve input order
//!   exactly; since item computations are independent, the output is
//!   identical to the serial map for any thread count.
//!
//! A panic inside a worker propagates to the caller when the scope
//! joins (the remaining chunks may or may not have run).
//!
//! Thread counts resolve through [`resolve_threads`]: an explicit
//! request wins, then the `SP_THREADS` environment variable, then
//! [`available_threads`]. The CI matrix runs the test suite under
//! `SP_THREADS=1` and `SP_THREADS=4` so any thread-count-dependent
//! nondeterminism fails there rather than in a paper table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One SplitMix64 step: the workspace's seed-expansion and counter
/// hash. Every seeded stream that must not depend on scheduling
/// (per-walk and per-edge RNGs, keyed noise rows, fault plans, IVF
/// seeding, synthetic stores) derives its randomness from a counter
/// through this bijection.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bytes per pass of [`crc32`]'s main loop, and its table count.
const CRC32_SLICES: usize = 16;

/// The slicing-by-16 tables of the reflected IEEE polynomial.
/// `T[0][b]` is the CRC of the byte `b`, the classic byte-at-a-time
/// table; `T[k][b] = (T[k-1][b] >> 8) ^ T[0][T[k-1][b] & 0xFF]` is the
/// CRC of `b` followed by `k` zero bytes, so one lookup per table
/// folds a whole 16-byte chunk into the state.
const fn crc32_tables() -> [[u32; 256]; CRC32_SLICES] {
    let mut t = [[0u32; 256]; CRC32_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC32_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// 16 KiB, built at compile time.
static CRC32_TABLES: [[u32; 256]; CRC32_SLICES] = crc32_tables();

/// One CRC-32 step over the *raw* (pre-inversion) state, for callers
/// that checksum incrementally: seed with `!0`, feed bytes, finish
/// with `!state`.
#[inline]
pub fn crc32_step(state: u32, byte: u8) -> u32 {
    CRC32_TABLES[0][((state ^ byte as u32) & 0xFF) as usize] ^ (state >> 8)
}

/// CRC-32 (IEEE 802.3, reflected) of `data`: the checksum in every
/// gzip trailer the dataset decoder validates and in every `.spm` and
/// `.spc` file the model crate writes.
///
/// Slicing-by-16: each pass folds 16 bytes into the state with one
/// lookup per table, and the tail of fewer than 16 bytes goes through
/// [`crc32_step`]. The value equals the [`crc32_step`] fold for every
/// input; only the number of dependent steps per byte falls.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(CRC32_SLICES);
    for chunk in &mut chunks {
        let mut bytes: [u8; CRC32_SLICES] = chunk.try_into().expect("exact chunk");
        for (b, s) in bytes.iter_mut().zip(c.to_le_bytes()) {
            *b ^= s;
        }
        c = 0;
        for (i, &b) in bytes.iter().enumerate() {
            c ^= CRC32_TABLES[CRC32_SLICES - 1 - i][b as usize];
        }
    }
    for &b in chunks.remainder() {
        c = crc32_step(c, b);
    }
    !c
}

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a thread-count request: `Some(n)` wins (clamped to ≥ 1),
/// then the `SP_THREADS` environment variable, then
/// [`available_threads`].
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(t) = requested {
        return t.max(1);
    }
    if let Ok(v) = std::env::var("SP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    available_threads()
}

/// Default chunk size for `n` items on `threads` workers: four chunks
/// per worker for work-stealing slack, at least one item per chunk.
pub fn default_chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1) * 4).max(1)
}

/// Splits `0..n` into `chunk_size`-sized ranges (the last may be
/// short), runs `f` on each over a claim-by-atomic-counter worker pool,
/// and returns the per-chunk results in chunk order.
///
/// Chunk boundaries depend only on `n` and `chunk_size`, so the output
/// is identical for every `threads` value (see the crate-level
/// determinism contract).
///
/// # Panics
/// Panics if `chunk_size == 0`, or propagates the first worker panic.
pub fn par_map_chunks<R, F>(n: usize, chunk_size: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk_size > 0, "par_map_chunks: chunk_size must be >= 1");
    if n == 0 {
        return Vec::new();
    }
    let nchunks = n.div_ceil(chunk_size);
    let chunk_range = |c: usize| (c * chunk_size)..(((c + 1) * chunk_size).min(n));
    let workers = threads.max(1).min(nchunks);

    if workers == 1 {
        // Inline fast path: same chunk boundaries, no thread spawn. The
        // per-step trainer pass relies on this being cheap.
        return (0..nchunks).map(|c| f(chunk_range(c))).collect();
    }

    // One slot per chunk: a whole chunk's result lands under a single
    // uncontended lock (each chunk index is claimed exactly once), in
    // contrast to the old harness design of one global mutex locked
    // once per item.
    let slots: Vec<Mutex<Option<R>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= nchunks {
                    break;
                }
                let r = f(chunk_range(c));
                *slots[c].lock().expect("slot lock poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock poisoned")
                .expect("claimed chunk left no result")
        })
        .collect()
}

/// Order-preserving parallel map over a slice: `out[i] = f(&items[i])`.
///
/// Items are processed in chunks (whole chunks are written to
/// per-chunk slots — no per-item locking) and reassembled in input
/// order, so the result is identical to `items.iter().map(f)` for any
/// thread count.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1);
    let chunk = default_chunk_size(items.len(), threads);
    let blocks = par_map_chunks(items.len(), chunk, threads, |range| {
        items[range].iter().map(&f).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for block in blocks {
        out.extend(block);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time CRC-32: [`crc32_step`] folded over `data`.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |c, &b| crc32_step(c, b))
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| splitmix64(seed ^ i) as u8)
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_fold_at_every_length_and_offset() {
        let buf = seeded_bytes(300 + CRC32_SLICES, 0xC5C3);
        for start in 0..CRC32_SLICES {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
        let big = seeded_bytes(1 << 20, 0xB16);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<i64> = (0..97).collect();
        for threads in [1, 2, 4, 7] {
            let out = par_map(&items, threads, |&x| x * 3 - 1);
            assert_eq!(out, items.iter().map(|&x| x * 3 - 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[41], 4, |&x: &i32| x + 1), vec![42]);
    }

    #[test]
    fn par_map_chunks_uneven_boundaries() {
        // 10 items in chunks of 4 -> ranges 0..4, 4..8, 8..10.
        let ranges = par_map_chunks(10, 4, 3, |r| r);
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn par_map_thread_count_invariant_on_floats() {
        let items: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let one = par_map(&items, 1, |&x| x.exp().ln_1p());
        for threads in [2, 3, 4, 8] {
            let many = par_map(&items, threads, |&x| x.exp().ln_1p());
            assert_eq!(
                one.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                many.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panic_propagates_inline() {
        // threads=1 runs inline, so the payload surfaces verbatim.
        par_map_chunks(100, 10, 1, |r| {
            if r.start >= 50 {
                panic!("worker exploded");
            }
            r.len()
        });
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates_from_pool() {
        // With a real pool the panic resurfaces when the scope joins.
        par_map_chunks(100, 10, 4, |r| {
            if r.start >= 50 {
                panic!("worker exploded");
            }
            r.len()
        });
    }

    #[test]
    #[should_panic(expected = "chunk_size must be >= 1")]
    fn zero_chunk_size_rejected() {
        par_map_chunks(10, 0, 2, |r| r.len());
    }

    #[test]
    fn ten_k_trivial_map_is_not_contention_bound() {
        // Regression guard for the old one-Mutex-per-item slot design:
        // a 10k-item map with a trivial body takes well under a
        // millisecond when it does not serialise on a lock. Generous
        // bound for noisy shared CI runners.
        let items: Vec<u64> = (0..10_000).collect();
        let t0 = Instant::now();
        let out = par_map(&items, 4, |&x| x ^ 0x5EED);
        let dt = t0.elapsed();
        assert_eq!(out.len(), 10_000);
        assert_eq!(out[9_999], 9_999 ^ 0x5EED);
        assert!(
            dt.as_millis() < 250,
            "10k trivial par_map took {dt:?} — slot contention regression?"
        );
    }

    #[test]
    fn resolve_threads_explicit_wins_and_clamps() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn default_chunk_size_covers_all_items() {
        for n in [0usize, 1, 5, 97, 1000] {
            for threads in [1usize, 2, 4, 16] {
                let c = default_chunk_size(n, threads);
                assert!(c >= 1);
                assert!(c * n.div_ceil(c.max(1)).max(1) >= n);
            }
        }
    }
}
