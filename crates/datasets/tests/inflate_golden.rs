//! Golden-vector tests for the pure-Rust gzip inflater.
//!
//! The three embedded members were produced by zlib (via CPython,
//! `mtime=0` for byte-stability) and cover the three DEFLATE block
//! types: stored (`gzip.compress(..., compresslevel=0)`), fixed
//! Huffman (`zlib.compressobj(..., strategy=Z_FIXED)`), and dynamic
//! Huffman (`compresslevel=9` on a large enough input). Each test
//! asserts the exact decompressed bytes; the trailer tests corrupt
//! CRC32/ISIZE and expect the typed failures.

use sp_datasets::inflate::{gunzip, InflateError};
use sp_datasets::stream::GzipStreamReader;
use sp_parallel::crc32;
use std::io::Read;

/// `gzip.compress(STORED_PLAIN, compresslevel=0, mtime=0)`.
const STORED_GZ: [u8; 53] = [
    0x1F, 0x8B, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x03, 0x01, 0x1E, 0x00, 0xE1, 0xFF, 0x23,
    0x20, 0x6E, 0x6F, 0x64, 0x65, 0x73, 0x20, 0x34, 0x20, 0x65, 0x64, 0x67, 0x65, 0x73, 0x20, 0x33,
    0x0A, 0x30, 0x20, 0x31, 0x0A, 0x31, 0x20, 0x32, 0x0A, 0x32, 0x20, 0x33, 0x0A, 0x12, 0xEA, 0x82,
    0xEA, 0x1E, 0x00, 0x00, 0x00,
];
const STORED_PLAIN: &[u8] = b"# nodes 4 edges 3\n0 1\n1 2\n2 3\n";

/// `zlib.compressobj(6, DEFLATED, wbits=31, 8, Z_FIXED)` over
/// `FIXED_PLAIN`.
const FIXED_GZ: [u8; 66] = [
    0x1F, 0x8B, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x03, 0x2B, 0xC9, 0x48, 0x55, 0x28, 0x2C,
    0xCD, 0x4C, 0xCE, 0x56, 0x48, 0x2A, 0xCA, 0x2F, 0xCF, 0x53, 0x48, 0xCB, 0xAF, 0x50, 0xC8, 0x2A,
    0xCD, 0x2D, 0x28, 0x56, 0xC8, 0x2F, 0x4B, 0x2D, 0x52, 0x28, 0x01, 0x4A, 0xE7, 0x24, 0x56, 0x55,
    0x2A, 0xA4, 0xE4, 0xA7, 0x73, 0x95, 0x90, 0xA0, 0x16, 0x00, 0x64, 0x07, 0xF7, 0x66, 0x58, 0x00,
    0x00, 0x00,
];

/// `gzip.compress(dyn_plain(), compresslevel=9, mtime=0)` — 695 input
/// bytes, enough repetition for zlib to emit a dynamic-Huffman block.
const DYN_GZ: [u8; 177] = [
    0x1F, 0x8B, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x03, 0xED, 0x8F, 0xBB, 0x4D, 0x44, 0x41,
    0x14, 0x43, 0x63, 0xBB, 0x8A, 0x97, 0x6C, 0x3E, 0xB6, 0xEF, 0xFC, 0xFA, 0x61, 0x05, 0x04, 0x90,
    0x00, 0x42, 0x74, 0xCF, 0x6C, 0x19, 0x48, 0x48, 0x4E, 0x8F, 0x8F, 0x7D, 0xBB, 0x3E, 0x7E, 0xDE,
    0xAE, 0xAF, 0xF7, 0xEF, 0xFB, 0xEB, 0xF3, 0xCB, 0xE7, 0xFD, 0x89, 0xB7, 0x4B, 0x6E, 0x57, 0x3D,
    0x42, 0xA1, 0xB8, 0xA0, 0x49, 0x75, 0xA4, 0xD1, 0x46, 0xE8, 0x0D, 0x0D, 0x66, 0xC0, 0x9B, 0x81,
    0xA9, 0x06, 0x75, 0x6A, 0xC2, 0x8B, 0x2E, 0x88, 0x11, 0x54, 0xCC, 0x82, 0x27, 0x3B, 0x1E, 0x2D,
    0x86, 0x42, 0x6D, 0x78, 0xD0, 0x03, 0x39, 0x5C, 0x20, 0xB3, 0x1A, 0xDC, 0x39, 0x91, 0x45, 0x1D,
    0x50, 0xB4, 0xE0, 0xA2, 0x17, 0x32, 0x99, 0x0E, 0x1D, 0x23, 0x1C, 0x6E, 0x64, 0x50, 0x03, 0x9B,
    0x3E, 0x42, 0x33, 0x0D, 0xE9, 0xCC, 0xC4, 0x62, 0xC1, 0xA2, 0x84, 0x14, 0xB5, 0x30, 0xE9, 0x0E,
    0x37, 0xE6, 0xEC, 0x0C, 0xB3, 0x31, 0x38, 0xA0, 0x4D, 0x05, 0x31, 0xDD, 0xD0, 0xE9, 0x09, 0x2D,
    0xA6, 0x10, 0xFD, 0xBF, 0xFB, 0xC3, 0xEF, 0x7E, 0x01, 0x43, 0x25, 0xCF, 0x6E, 0xB7, 0x02, 0x00,
    0x00,
];

fn fixed_plain() -> Vec<u8> {
    b"the quick brown fox jumps over the lazy dog\n".repeat(2)
}

fn dyn_plain() -> Vec<u8> {
    let mut lines = vec!["% sym unweighted".to_string(), "% 120 40 40".to_string()];
    for i in 0..120usize {
        let u = (i * 7) % 40 + 1;
        let v = (i * 13 + 3) % 40 + 1;
        lines.push(format!("{u}\t{v}"));
    }
    (lines.join("\n") + "\n").into_bytes()
}

/// BTYPE of the first block of a gzip member with an empty extra-field
/// set (payload starts at byte 10).
fn first_btype(gz: &[u8]) -> u8 {
    (gz[10] >> 1) & 0b11
}

#[test]
fn stored_block_member() {
    assert_eq!(first_btype(&STORED_GZ), 0, "fixture must be a stored block");
    assert_eq!(gunzip(&STORED_GZ).unwrap(), STORED_PLAIN);
}

#[test]
fn fixed_huffman_member() {
    assert_eq!(first_btype(&FIXED_GZ), 1, "fixture must be a fixed block");
    assert_eq!(gunzip(&FIXED_GZ).unwrap(), fixed_plain());
}

#[test]
fn dynamic_huffman_member() {
    assert_eq!(first_btype(&DYN_GZ), 2, "fixture must be a dynamic block");
    let out = gunzip(&DYN_GZ).unwrap();
    assert_eq!(out, dyn_plain());
    // Independently pin the payload checksum (computed by zlib).
    assert_eq!(crc32(&out), 0x6ECF_2543);
}

#[test]
fn crc_trailer_validated_on_every_block_type() {
    for gz in [&STORED_GZ[..], &FIXED_GZ[..], &DYN_GZ[..]] {
        let mut bad = gz.to_vec();
        let n = bad.len();
        bad[n - 6] ^= 0x40; // a CRC32 byte
        assert!(
            matches!(gunzip(&bad), Err(InflateError::CrcMismatch { .. })),
            "CRC corruption must be caught"
        );
    }
}

#[test]
fn isize_trailer_validated_on_every_block_type() {
    for gz in [&STORED_GZ[..], &FIXED_GZ[..], &DYN_GZ[..]] {
        let mut bad = gz.to_vec();
        let n = bad.len();
        bad[n - 2] ^= 0x01; // an ISIZE byte
        assert!(
            matches!(gunzip(&bad), Err(InflateError::IsizeMismatch { .. })),
            "ISIZE corruption must be caught"
        );
    }
}

#[test]
fn every_truncation_point_is_a_typed_eof() {
    for gz in [&STORED_GZ[..], &FIXED_GZ[..], &DYN_GZ[..]] {
        for cut in 0..gz.len() {
            match gunzip(&gz[..cut]) {
                Err(InflateError::UnexpectedEof) => {}
                // Cutting inside the final trailer can also surface as
                // a short-trailer read; both are typed, neither panics.
                Err(other) => panic!("cut {cut}: unexpected error {other}"),
                Ok(_) => panic!("cut {cut}: truncated stream accepted"),
            }
        }
    }
}

#[test]
fn concatenated_members_of_different_block_types() {
    let mut all = STORED_GZ.to_vec();
    all.extend_from_slice(&FIXED_GZ);
    all.extend_from_slice(&DYN_GZ);
    let mut expected = STORED_PLAIN.to_vec();
    expected.extend_from_slice(&fixed_plain());
    expected.extend_from_slice(&dyn_plain());
    assert_eq!(gunzip(&all).unwrap(), expected);
}

/// The decoder must reproduce zlib's plaintext for every block type,
/// and for all three members concatenated, at any read granularity.
#[test]
fn streaming_reader_matches_zlib_plaintexts() {
    let mut all_gz = STORED_GZ.to_vec();
    all_gz.extend_from_slice(&FIXED_GZ);
    all_gz.extend_from_slice(&DYN_GZ);
    let mut all_plain = STORED_PLAIN.to_vec();
    all_plain.extend_from_slice(&fixed_plain());
    all_plain.extend_from_slice(&dyn_plain());
    let cases = [
        (&STORED_GZ[..], STORED_PLAIN.to_vec()),
        (&FIXED_GZ[..], fixed_plain()),
        (&DYN_GZ[..], dyn_plain()),
        (&all_gz[..], all_plain),
    ];
    for (gz, plain) in cases {
        for chunk in [1usize, 7, 4096] {
            let mut r = GzipStreamReader::new(gz);
            let mut got = Vec::new();
            let mut buf = vec![0u8; chunk];
            loop {
                let n = r.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, plain, "chunk {chunk}");
        }
    }
}

/// Streaming trailer validation reports the corruption as a typed
/// `InvalidData` error carrying the `InflateError`.
#[test]
fn streaming_reader_validates_trailers() {
    for gz in [&STORED_GZ[..], &FIXED_GZ[..], &DYN_GZ[..]] {
        let mut bad = gz.to_vec();
        let n = bad.len();
        bad[n - 6] ^= 0x40; // a CRC32 byte
        let mut r = GzipStreamReader::new(&bad[..]);
        let mut sink = Vec::new();
        let err = r.read_to_end(&mut sink).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(matches!(
            err.get_ref().and_then(|e| e.downcast_ref::<InflateError>()),
            Some(InflateError::CrcMismatch { .. })
        ));
    }
}

#[test]
fn crc32_reference_values() {
    // The standard CRC-32/ISO-HDLC check value and a few anchors.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    assert_eq!(
        crc32(STORED_PLAIN),
        u32::from_le_bytes([0x12, 0xEA, 0x82, 0xEA])
    );
}
