//! Property-based tests for the deterministic worker-pool primitives:
//! order preservation under arbitrary chunking.

use proptest::prelude::*;
use sp_parallel::{par_map, par_map_chunks};

proptest! {
    #[test]
    fn par_map_matches_serial_map(
        items in proptest::collection::vec(-1e6f64..1e6, 0..200),
        threads in 1usize..6,
    ) {
        let expect: Vec<f64> = items.iter().map(|&x| x * 1.5 - 2.0).collect();
        let got = par_map(&items, threads, |&x| x * 1.5 - 2.0);
        prop_assert_eq!(
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chunk_ranges_partition_the_input(
        n in 0usize..500,
        chunk in 1usize..64,
        threads in 1usize..6,
    ) {
        let ranges = par_map_chunks(n, chunk, threads, |r| r);
        // Ranges tile 0..n in order with no gaps or overlaps.
        let mut cursor = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor);
            prop_assert!(r.end > r.start);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, n);
    }
}
