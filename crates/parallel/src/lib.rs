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
//! - [`par_reduce`] folds the per-chunk partials over a **fixed
//!   balanced binary tree** (adjacent pairs, repeated). Floating-point
//!   addition is not associative, so the *shape* of the reduction tree
//!   is part of the result; fixing the shape as a function of the chunk
//!   count alone makes the reduction thread-count-invariant. Callers
//!   that need the result to also be *chunk-size*-invariant must pass
//!   an explicit, fixed `chunk_size`.
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

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// One CRC-32 step over the *raw* (pre-inversion) state, for callers
/// that checksum incrementally: seed with `!0`, feed bytes, finish
/// with `!state`.
#[inline]
pub fn crc32_step(state: u32, byte: u8) -> u32 {
    CRC32_TABLE[((state ^ byte as u32) & 0xFF) as usize] ^ (state >> 8)
}

/// CRC-32 (IEEE 802.3, reflected) of `data`: the checksum in every
/// gzip trailer the dataset decoder validates and in every `.spm` and
/// `.spc` file the model crate writes.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
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

/// Deterministic parallel reduction: maps each fixed-boundary chunk of
/// `0..n` to a partial with `map`, then folds the partials over a
/// balanced binary tree (adjacent pairs, repeated) with `combine`.
///
/// The tree shape depends only on the chunk count `⌈n / chunk_size⌉`,
/// so for a fixed `chunk_size` the result is bit-identical for every
/// thread count — the property the proximity and gradient reductions
/// need for seeded reproducibility. Returns `None` when `n == 0`.
pub fn par_reduce<A, M, C>(
    n: usize,
    chunk_size: usize,
    threads: usize,
    map: M,
    combine: C,
) -> Option<A>
where
    A: Send,
    M: Fn(Range<usize>) -> A + Sync,
    C: Fn(A, A) -> A,
{
    let mut level: Vec<A> = par_map_chunks(n, chunk_size, threads, map);
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        level = next;
    }
    level.into_iter().next()
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
    fn par_reduce_empty_is_none() {
        assert!(par_reduce(0, 8, 4, |_| 0.0f64, |a, b| a + b).is_none());
    }

    #[test]
    fn par_reduce_sums_match_for_any_thread_count() {
        let xs: Vec<f64> = (0..10_000)
            .map(|i| ((i * 37) % 101) as f64 * 0.013)
            .collect();
        let reduce = |threads: usize| {
            par_reduce(
                xs.len(),
                256,
                threads,
                |r| xs[r].iter().sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let base = reduce(1);
        for threads in [2, 4, 8] {
            assert_eq!(
                base.to_bits(),
                reduce(threads).to_bits(),
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
        // a 10k-item map with a trivial body must complete well inside
        // the stub-criterion per-sample budget (~1 ms), not serialise
        // on a lock. Generous bound for noisy shared CI runners.
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
