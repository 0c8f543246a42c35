//! Pure-Rust DEFLATE (RFC 1951) and gzip (RFC 1952) decompression.
//!
//! The real SNAP/KONECT dataset archives ship as `.gz` files; this
//! build environment has no registry access, so `flate2` cannot be
//! vendored. This module holds the format: the typed
//! [`InflateError`]s, the canonical Huffman codes and their two-level
//! decode tables, the length/distance tables, the gzip header flags,
//! and a stored-block writer ([`gzip_store`]) for tests and fixtures.
//! The one decoder is [`crate::stream::GzipStreamReader`]: stored,
//! fixed- and dynamic-Huffman blocks, the 32 KiB LZ77 window,
//! multi-member files, and CRC32/ISIZE trailer validation.
//! [`gunzip`] reads it to the end.
//!
//! Codes are laid out in canonical order with the per-length counting
//! of Mark Adler's `puff.c`, then expanded into a two-level table: a
//! 512-entry primary table plus overflow subtables, so a symbol costs
//! one or two table probes. Incomplete codes are accepted (they occur
//! in legal streams with a single distance code); oversubscribed codes
//! are rejected at table-build time.

use crate::stream::GzipStreamReader;
use sp_parallel::crc32;
use std::fmt;
use std::io::Read;

/// Maximum Huffman code length (RFC 1951 §3.2.1).
const MAX_BITS: usize = 15;
/// Number of literal/length symbols (0..=285 plus two illegal).
const MAX_LIT_CODES: usize = 288;
/// Number of distance symbols (0..=29 plus two illegal).
const MAX_DIST_CODES: usize = 32;

/// Typed decompression failure. Every malformed input maps to one of
/// these variants; the decoder never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InflateError {
    /// Input ended before the stream was structurally complete.
    UnexpectedEof,
    /// The first two bytes are not the gzip magic `1f 8b`.
    BadMagic {
        /// The bytes actually found (zero-padded if truncated).
        found: [u8; 2],
    },
    /// Compression method byte other than 8 (DEFLATE).
    UnsupportedMethod(u8),
    /// Reserved gzip FLG bits (5–7) were set.
    ReservedFlags(u8),
    /// A block used the reserved block type `0b11`.
    ReservedBlockType,
    /// A stored block whose `LEN` and `NLEN` are not complements.
    StoredLengthMismatch,
    /// A Huffman code-length set that is oversubscribed.
    OversubscribedCode,
    /// A bit pattern that matches no code in the active table.
    InvalidCode,
    /// A decoded symbol outside its legal range (length 286/287,
    /// distance 30/31, or a repeat with no previous length).
    InvalidSymbol(u16),
    /// A back-reference reaching before the start of the output.
    DistanceTooFar {
        /// Requested distance.
        dist: usize,
        /// Bytes produced so far for this member.
        have: usize,
    },
    /// Trailer CRC32 does not match the decompressed bytes.
    CrcMismatch {
        /// CRC32 declared in the trailer.
        declared: u32,
        /// CRC32 of the actual output.
        actual: u32,
    },
    /// Trailer ISIZE does not match the decompressed length mod 2³².
    IsizeMismatch {
        /// ISIZE declared in the trailer.
        declared: u32,
        /// Actual output length mod 2³².
        actual: u32,
    },
    /// Non-gzip bytes followed a complete member.
    TrailingData {
        /// Offset of the first trailing byte.
        offset: usize,
    },
}

impl fmt::Display for InflateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InflateError::UnexpectedEof => write!(f, "unexpected end of compressed input"),
            InflateError::BadMagic { found } => {
                write!(
                    f,
                    "not a gzip stream (magic {:02x} {:02x})",
                    found[0], found[1]
                )
            }
            InflateError::UnsupportedMethod(m) => {
                write!(f, "unsupported compression method {m} (want 8 = deflate)")
            }
            InflateError::ReservedFlags(b) => write!(f, "reserved gzip FLG bits set: {b:#04x}"),
            InflateError::ReservedBlockType => write!(f, "reserved deflate block type 0b11"),
            InflateError::StoredLengthMismatch => {
                write!(f, "stored block LEN/NLEN are not complements")
            }
            InflateError::OversubscribedCode => write!(f, "oversubscribed huffman code lengths"),
            InflateError::InvalidCode => write!(f, "bit pattern matches no huffman code"),
            InflateError::InvalidSymbol(s) => write!(f, "symbol {s} is invalid in this context"),
            InflateError::DistanceTooFar { dist, have } => {
                write!(
                    f,
                    "back-reference distance {dist} exceeds {have} produced bytes"
                )
            }
            InflateError::CrcMismatch { declared, actual } => {
                write!(
                    f,
                    "crc32 mismatch: trailer {declared:#010x}, data {actual:#010x}"
                )
            }
            InflateError::IsizeMismatch { declared, actual } => {
                write!(f, "isize mismatch: trailer {declared}, data {actual}")
            }
            InflateError::TrailingData { offset } => {
                write!(f, "trailing non-gzip data at byte {offset}")
            }
        }
    }
}

impl std::error::Error for InflateError {}

/// Returns `true` if `data` starts with the gzip magic bytes.
pub fn is_gzip(data: &[u8]) -> bool {
    data.len() >= 2 && data[0] == 0x1F && data[1] == 0x8B
}

/// The encoding counterpart this module ships: frames `data` as a
/// valid single-member gzip file of *stored* (uncompressed) DEFLATE
/// blocks, with a correct CRC32/ISIZE trailer. No compression is
/// attempted — output is `input + 18 + 5·⌈len/65535⌉` bytes — but the
/// result round-trips through [`gunzip`] and any external gzip, which
/// is what the test suites and `.gz` fixture writers need.
pub fn gzip_store(data: &[u8]) -> Vec<u8> {
    // Header: magic, CM=8, FLG=0, MTIME=0, XFL=0, OS=255 (unknown).
    let mut out = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255];
    if data.is_empty() {
        // A member must contain at least one (final) block.
        out.extend_from_slice(&[0x01, 0, 0, 0xFF, 0xFF]);
    }
    let mut chunks = data.chunks(0xFFFF).peekable();
    while let Some(chunk) = chunks.next() {
        out.push(if chunks.peek().is_none() { 1 } else { 0 });
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

// --- Canonical Huffman tables -------------------------------------------

/// Per-length symbol counts plus symbols in canonical order (puff.c
/// layout): a validated code, which [`LutHuffman::new`] expands into
/// the decode tables.
struct Huffman {
    count: [u16; MAX_BITS + 1],
    symbol: Vec<u16>,
}

impl Huffman {
    /// Builds the canonical table from per-symbol code lengths
    /// (`lengths[s]` = bits for symbol `s`, 0 = unused). Rejects
    /// oversubscribed sets; incomplete sets are legal.
    fn new(lengths: &[u8]) -> Result<Self, InflateError> {
        let mut count = [0u16; MAX_BITS + 1];
        for &len in lengths {
            debug_assert!((len as usize) <= MAX_BITS);
            count[len as usize] += 1;
        }
        // Oversubscription check: `left` is the number of codes still
        // unassigned after each length; negative means too many codes.
        let mut left: i32 = 1;
        for &c in &count[1..] {
            left <<= 1;
            left -= c as i32;
            if left < 0 {
                return Err(InflateError::OversubscribedCode);
            }
        }
        // Symbols sorted by (length, symbol) — canonical order.
        let mut offs = [0usize; MAX_BITS + 2];
        for l in 1..=MAX_BITS {
            offs[l + 1] = offs[l] + count[l] as usize;
        }
        let mut symbol = vec![0u16; offs[MAX_BITS + 1]];
        for (s, &len) in lengths.iter().enumerate() {
            if len != 0 {
                symbol[offs[len as usize]] = s as u16;
                offs[len as usize] += 1;
            }
        }
        Ok(Self { count, symbol })
    }
}

// --- Two-level lookup-table decoder -------------------------------------

/// Width of the primary lookup table in bits: one probe resolves any
/// code of ≤ 9 bits (every code zlib emits for typical text inputs);
/// longer codes chain through exactly one overflow subtable.
const PRIMARY_BITS: u32 = 9;
const PRIMARY_MASK: u32 = (1 << PRIMARY_BITS) - 1;
/// Entry flag: this primary slot points at an overflow subtable.
const SUB_FLAG: u32 = 1 << 31;

/// Reverses the low `len` bits of `code`: canonical Huffman codes are
/// assigned MSB-first but arrive on the wire LSB-first, so table
/// indices are bit-reversed codes.
fn rev(code: u32, len: u32) -> u32 {
    code.reverse_bits() >> (32 - len)
}

/// Two-level lookup table built from a canonical [`Huffman`] code: a
/// 512-entry primary table indexed by the next 9 wire bits, with
/// per-prefix overflow subtables (appended to the same vector) for
/// codes of 10..=15 bits. Decoding is a peek + one or two indexed
/// loads + a consume — no per-bit loop.
///
/// Entry layout (u32): `0` = no code reaches this slot;
/// direct = `len << 16 | symbol`; subtable pointer =
/// `SUB_FLAG | offset << 4 | index_bits`.
pub(crate) struct LutHuffman {
    table: Vec<u32>,
}

impl LutHuffman {
    /// Builds the table set for per-symbol code `lengths` (0 = unused).
    /// Rejects oversubscribed sets; an incomplete set leaves the slots
    /// no code reaches at 0.
    pub(crate) fn new(lengths: &[u8]) -> Result<Self, InflateError> {
        let h = Huffman::new(lengths)?;
        // Enumerate (symbol, length, canonical code): codes of length L
        // occupy [first_L, first_L + count_L) in canonical symbol order.
        let mut entries: Vec<(u16, u32, u32)> = Vec::with_capacity(h.symbol.len());
        let mut first: u32 = 0;
        let mut index: usize = 0;
        for len in 1..=MAX_BITS {
            let cnt = h.count[len] as u32;
            for k in 0..cnt {
                entries.push((h.symbol[index + k as usize], len as u32, first + k));
            }
            index += cnt as usize;
            first = (first + cnt) << 1;
        }

        let mut table = vec![0u32; 1 << PRIMARY_BITS];
        // Size each overflow subtable by the longest code sharing its
        // 9-bit wire prefix, then append them after the primary table.
        let mut sub_bits = [0u8; 1 << PRIMARY_BITS];
        for &(_, len, code) in &entries {
            if len > PRIMARY_BITS {
                let low = (rev(code, len) & PRIMARY_MASK) as usize;
                sub_bits[low] = sub_bits[low].max((len - PRIMARY_BITS) as u8);
            }
        }
        for (i, &sb) in sub_bits.iter().enumerate() {
            if sb > 0 {
                let off = table.len() as u32;
                table[i] = SUB_FLAG | (off << 4) | sb as u32;
                let grown = table.len() + (1usize << sb);
                table.resize(grown, 0);
            }
        }
        // Fill: every index whose low `len` bits equal the reversed
        // code maps to that symbol (the prefix property guarantees no
        // two codes claim the same slot).
        for &(sym, len, code) in &entries {
            let wire = rev(code, len);
            let entry = (len << 16) | sym as u32;
            if len <= PRIMARY_BITS {
                let step = 1usize << len;
                let mut i = wire as usize;
                while i < (1 << PRIMARY_BITS) {
                    table[i] = entry;
                    i += step;
                }
            } else {
                let slot = table[(wire & PRIMARY_MASK) as usize];
                let sb = slot & 0xF;
                let off = ((slot >> 4) & !(SUB_FLAG >> 4)) as usize;
                let step = 1usize << (len - PRIMARY_BITS);
                let mut i = (wire >> PRIMARY_BITS) as usize;
                while i < (1usize << sb) {
                    table[off + i] = entry;
                    i += step;
                }
            }
        }
        Ok(Self { table })
    }

    /// Resolves one symbol from `avail` peeked wire bits in `v`
    /// (zero-padded above `avail`). Returns the symbol and the number
    /// of bits to consume. A pattern matching no code is
    /// [`InflateError::InvalidCode`] when 15 real bits were available;
    /// otherwise the input ended mid-code and it is
    /// [`InflateError::UnexpectedEof`].
    pub(crate) fn lookup(&self, v: u32, avail: u32) -> Result<(u16, u32), InflateError> {
        let mut e = self.table[(v & PRIMARY_MASK) as usize];
        if e & SUB_FLAG != 0 {
            let sb = e & 0xF;
            let off = ((e >> 4) & !(SUB_FLAG >> 4)) as usize;
            e = self.table[off + ((v >> PRIMARY_BITS) & ((1 << sb) - 1)) as usize];
        }
        let len = (e >> 16) & 0x1F;
        if len == 0 || len > avail {
            return Err(if avail < MAX_BITS as u32 {
                InflateError::UnexpectedEof
            } else {
                InflateError::InvalidCode
            });
        }
        Ok(((e & 0xFFFF) as u16, len))
    }
}

// --- DEFLATE block decoding ---------------------------------------------

pub(crate) const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
pub(crate) const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
pub(crate) const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
pub(crate) const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Order in which code-length code lengths are stored (RFC 1951 §3.2.7).
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Fixed-Huffman decode tables (RFC 1951 §3.2.6).
pub(crate) fn fixed_tables() -> (LutHuffman, LutHuffman) {
    let mut lit = [0u8; MAX_LIT_CODES];
    for (s, l) in lit.iter_mut().enumerate() {
        *l = match s {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    let dist = [5u8; MAX_DIST_CODES];
    // Fixed lengths are complete by construction; new() cannot fail.
    (
        LutHuffman::new(&lit).unwrap(),
        LutHuffman::new(&dist).unwrap(),
    )
}

/// Reads a dynamic block's table definition (RFC 1951 §3.2.7) and
/// returns its literal/length and distance decode tables.
pub(crate) fn dynamic_tables<R: Read>(
    br: &mut GzipStreamReader<R>,
) -> Result<(LutHuffman, LutHuffman), InflateError> {
    let hlit = br.bits(5)? as usize + 257;
    let hdist = br.bits(5)? as usize + 1;
    let hclen = br.bits(4)? as usize + 4;
    if hlit > MAX_LIT_CODES {
        return Err(InflateError::InvalidSymbol(hlit as u16));
    }
    let mut clen_lengths = [0u8; 19];
    for &ord in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[ord] = br.bits(3)? as u8;
    }
    let clen = LutHuffman::new(&clen_lengths)?;

    let mut lengths = [0u8; MAX_LIT_CODES + MAX_DIST_CODES];
    let total = hlit + hdist;
    let mut i = 0usize;
    while i < total {
        let sym = br.decode(&clen)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(InflateError::InvalidSymbol(16));
                }
                let prev = lengths[i - 1];
                let rep = 3 + br.bits(2)? as usize;
                if i + rep > total {
                    return Err(InflateError::InvalidSymbol(16));
                }
                for _ in 0..rep {
                    lengths[i] = prev;
                    i += 1;
                }
            }
            17 => {
                let rep = 3 + br.bits(3)? as usize;
                if i + rep > total {
                    return Err(InflateError::InvalidSymbol(17));
                }
                i += rep; // already zero
            }
            18 => {
                let rep = 11 + br.bits(7)? as usize;
                if i + rep > total {
                    return Err(InflateError::InvalidSymbol(18));
                }
                i += rep; // already zero
            }
            other => return Err(InflateError::InvalidSymbol(other)),
        }
    }
    // End-of-block must be codable, or the block can never terminate.
    if lengths[256] == 0 {
        return Err(InflateError::InvalidSymbol(256));
    }
    Ok((
        LutHuffman::new(&lengths[..hlit])?,
        LutHuffman::new(&lengths[hlit..total])?,
    ))
}

// --- gzip member framing ------------------------------------------------

pub(crate) const FHCRC: u8 = 1 << 1;
pub(crate) const FEXTRA: u8 = 1 << 2;
pub(crate) const FNAME: u8 = 1 << 3;
pub(crate) const FCOMMENT: u8 = 1 << 4;

/// Decompresses a whole gzip file held in memory: every member is
/// inflated and concatenated, and each member's CRC32 and ISIZE
/// trailer is validated against the bytes it produced. This is
/// [`GzipStreamReader`] read to the end.
pub fn gunzip(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut out = Vec::new();
    GzipStreamReader::new(data)
        .read_to_end(&mut out)
        .map_err(|e| {
            // Reading a slice cannot fail, so every error is a decode
            // error the reader wrapped.
            *e.into_inner()
                .and_then(|inner| inner.downcast::<InflateError>().ok())
                .expect("GzipStreamReader over a slice fails only with an InflateError")
        })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn stored_round_trip() {
        let data = b"hello stored world".to_vec();
        assert_eq!(gunzip(&gzip_store(&data)).unwrap(), data);
    }

    #[test]
    fn empty_stored_round_trip() {
        assert_eq!(gunzip(&gzip_store(b"")).unwrap(), b"");
    }

    #[test]
    fn multi_chunk_stored_round_trip() {
        // Payload over the 65535-byte stored-block limit forces the
        // writer to chain non-final blocks.
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(gunzip(&gzip_store(&data)).unwrap(), data);
    }

    #[test]
    fn multi_member_concatenation() {
        let mut both = gzip_store(b"first|");
        both.extend_from_slice(&gzip_store(b"second"));
        assert_eq!(gunzip(&both).unwrap(), b"first|second");
    }

    #[test]
    fn truncated_stream_is_eof() {
        let full = gzip_store(b"0123456789");
        for cut in 1..full.len() {
            let err = gunzip(&full[..cut]).unwrap_err();
            assert_eq!(err, InflateError::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_crc_detected() {
        let mut z = gzip_store(b"checksummed payload");
        let n = z.len();
        z[n - 8] ^= 0xFF; // CRC32 low byte
        assert!(matches!(
            gunzip(&z).unwrap_err(),
            InflateError::CrcMismatch { .. }
        ));
    }

    #[test]
    fn corrupt_isize_detected() {
        let mut z = gzip_store(b"sized payload");
        let n = z.len();
        z[n - 1] ^= 0x01; // ISIZE high byte
        assert!(matches!(
            gunzip(&z).unwrap_err(),
            InflateError::IsizeMismatch { .. }
        ));
    }

    #[test]
    fn bad_magic_detected() {
        assert!(matches!(
            gunzip(b"PK\x03\x04").unwrap_err(),
            InflateError::BadMagic {
                found: [0x50, 0x4B]
            }
        ));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut z = gzip_store(b"ok");
        z.extend_from_slice(b"junk");
        assert!(matches!(
            gunzip(&z).unwrap_err(),
            InflateError::TrailingData { .. }
        ));
    }

    #[test]
    fn stored_len_nlen_mismatch() {
        let mut z = gzip_store(b"abc");
        z[13] ^= 0xFF; // NLEN low byte of the stored header
        assert_eq!(gunzip(&z).unwrap_err(), InflateError::StoredLengthMismatch);
    }

    #[test]
    fn one_stray_byte_after_a_member_is_trailing_data() {
        let one = gzip_store(b"0123456789");
        let mut two = gzip_store(b"first|");
        two.extend_from_slice(&gzip_store(b"second"));
        for (members, stray) in [(&one, b'j'), (&one, 0x1F), (&one, 0x00), (&two, b'x')] {
            let mut z = members.clone();
            z.push(stray);
            assert_eq!(
                gunzip(&z).unwrap_err(),
                InflateError::TrailingData {
                    offset: members.len()
                },
                "stray byte {stray:#04x}"
            );
        }
    }

    /// Frames a raw DEFLATE stream as a gzip member whose trailer
    /// declares `plain`.
    fn member(deflate: &[u8], plain: &[u8]) -> Vec<u8> {
        let mut out = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255];
        out.extend_from_slice(deflate);
        out.extend_from_slice(&crc32(plain).to_le_bytes());
        out.extend_from_slice(&(plain.len() as u32).to_le_bytes());
        out
    }

    #[test]
    fn fixed_huffman_literals() {
        // zlib's raw fixed-Huffman encoding of "A".
        assert_eq!(gunzip(&member(&[0x73, 0x04, 0x00], b"A")).unwrap(), b"A");
    }

    #[test]
    fn reserved_block_type_rejected() {
        // BFINAL=1, BTYPE=11.
        assert_eq!(
            gunzip(&member(&[0x07], b"")).unwrap_err(),
            InflateError::ReservedBlockType
        );
    }

    #[test]
    fn distance_too_far_rejected() {
        // Hand-assembled fixed block: BFINAL=1 BTYPE=01, literal 'a'
        // (code 10010001), length symbol 257 (length 3, code 0000001),
        // distance symbol 3 (distance 4, code 00011), end of block.
        // Only one byte precedes the match, so it must be rejected.
        assert_eq!(
            gunzip(&member(&[0x4B, 0x04, 0x62, 0x00], b"a")).unwrap_err(),
            InflateError::DistanceTooFar { dist: 4, have: 1 }
        );
    }
}
