//! Incremental gzip decompression behind [`std::io::Read`], and the
//! openers every edge list goes through.
//!
//! [`GzipStreamReader`] is the crate's one DEFLATE decoder. It pulls
//! compressed bytes from any inner reader in fixed-size chunks,
//! inflates through the two-level Huffman tables of
//! [`crate::inflate`], and retains only the 32 KiB LZ77 window plus a
//! small staging buffer, so its memory is constant regardless of file
//! size. Multi-member files, CRC32 and ISIZE trailer validation, and
//! the full typed [`InflateError`] surface are covered; errors arrive
//! as `io::Error` with the `InflateError` as source.
//!
//! [`text_stream`] sniffs the gzip magic and returns a line-readable
//! stream either way; [`open_edge_stream`] applies it to a file.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;

use crate::inflate::{
    dynamic_tables, fixed_tables, is_gzip, InflateError, LutHuffman, DIST_BASE, DIST_EXTRA,
    FCOMMENT, FEXTRA, FHCRC, FNAME, LEN_BASE, LEN_EXTRA,
};
use sp_parallel::crc32_step;

/// LZ77 back-reference window size (RFC 1951 §2).
const WINDOW: usize = 32 * 1024;
/// Compressed-input chunk size pulled from the inner reader.
const IN_CHUNK: usize = 64 * 1024;
/// Decompressed bytes staged per state-machine step before yielding
/// to the caller (a match may overshoot by up to 258 bytes).
const OUT_STEP: usize = 16 * 1024;

fn to_io(e: InflateError) -> io::Error {
    let kind = if e == InflateError::UnexpectedEof {
        io::ErrorKind::UnexpectedEof
    } else {
        io::ErrorKind::InvalidData
    };
    io::Error::new(kind, e)
}

/// Decode progress, persisted across `read()` calls so a block can be
/// left half-decoded when the caller's buffer fills.
enum State {
    /// Expecting a member header (or clean EOF after ≥ 1 member).
    Header,
    /// Expecting a block header (BFINAL + BTYPE).
    BlockHeader,
    /// Copying the remaining payload of a stored block.
    Stored { remaining: usize },
    /// Inside a fixed- or dynamic-Huffman block.
    InBlock {
        litlen: LutHuffman,
        dist: LutHuffman,
    },
    /// Expecting the 8-byte CRC32 + ISIZE member trailer.
    Trailer,
    /// All members decoded and validated.
    Eof,
}

/// A streaming gzip decoder: wraps any `Read` of compressed bytes and
/// is itself a `Read` of the decompressed bytes, in constant memory.
pub struct GzipStreamReader<R: Read> {
    inner: R,
    /// Compressed chunk buffer (`buf[bpos..blen]` unread).
    buf: Vec<u8>,
    bpos: usize,
    blen: usize,
    inner_eof: bool,
    /// Total compressed bytes consumed (for trailing-data offsets).
    in_count: u64,
    /// An inner-reader failure observed while filling the bit
    /// accumulator, surfaced on the next fallible step.
    io_error: Option<io::Error>,
    /// LSB-first bit accumulator over the compressed stream.
    bitbuf: u32,
    bitcnt: u32,
    /// LZ77 ring: the last `WINDOW` decompressed bytes.
    window: Vec<u8>,
    wpos: usize,
    /// Decoded bytes not yet handed to the caller.
    pending: Vec<u8>,
    pstart: usize,
    state: State,
    final_block: bool,
    /// Running (pre-inversion) CRC32 of the current member.
    crc_state: u32,
    /// Current member output length mod 2³² (the ISIZE check).
    isize_count: u32,
    /// Current member output length, for distance validation.
    member_out: u64,
    members_done: u64,
}

impl<R: Read> GzipStreamReader<R> {
    /// Wraps `inner`, which must yield a well-formed (possibly
    /// multi-member) gzip stream. Nothing is read until the first
    /// `read()` call.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: vec![0u8; IN_CHUNK],
            bpos: 0,
            blen: 0,
            inner_eof: false,
            in_count: 0,
            io_error: None,
            bitbuf: 0,
            bitcnt: 0,
            window: vec![0u8; WINDOW],
            wpos: 0,
            pending: Vec::with_capacity(OUT_STEP + 258),
            pstart: 0,
            state: State::Header,
            final_block: false,
            crc_state: !0,
            isize_count: 0,
            member_out: 0,
            members_done: 0,
        }
    }

    /// Next raw compressed byte, refilling from the inner reader.
    fn next_byte(&mut self) -> io::Result<Option<u8>> {
        if self.bpos == self.blen {
            if self.inner_eof {
                return Ok(None);
            }
            loop {
                match self.inner.read(&mut self.buf) {
                    Ok(0) => {
                        self.inner_eof = true;
                        return Ok(None);
                    }
                    Ok(n) => {
                        self.blen = n;
                        self.bpos = 0;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        let b = self.buf[self.bpos];
        self.bpos += 1;
        self.in_count += 1;
        Ok(Some(b))
    }

    /// Next byte-aligned byte: drains whole bytes buffered in `bitbuf`
    /// before touching the raw stream.
    fn aligned_byte(&mut self) -> io::Result<Option<u8>> {
        debug_assert_eq!(self.bitcnt % 8, 0);
        if self.bitcnt >= 8 {
            let b = (self.bitbuf & 0xFF) as u8;
            self.bitbuf >>= 8;
            self.bitcnt -= 8;
            return Ok(Some(b));
        }
        self.next_byte()
    }

    fn require_byte(&mut self) -> io::Result<u8> {
        self.aligned_byte()?
            .ok_or_else(|| to_io(InflateError::UnexpectedEof))
    }

    /// Discards buffered bits up to the next byte boundary of the
    /// compressed stream (whole buffered bytes stay buffered).
    fn align(&mut self) {
        let drop = self.bitcnt % 8;
        self.bitbuf >>= drop;
        self.bitcnt -= drop;
    }

    /// Converts a decode-level failure, preferring a stashed inner
    /// I/O error (an EOF seen while filling the bit accumulator may
    /// really be a read error).
    fn lift(&mut self, e: InflateError) -> io::Error {
        match self.io_error.take() {
            Some(ioe) => ioe,
            None => to_io(e),
        }
    }

    /// Emits one decompressed byte into the window, checksum, and
    /// staging buffer.
    fn push_byte(&mut self, b: u8) {
        self.pending.push(b);
        self.window[self.wpos] = b;
        self.wpos = (self.wpos + 1) & (WINDOW - 1);
        self.crc_state = crc32_step(self.crc_state, b);
        self.isize_count = self.isize_count.wrapping_add(1);
        self.member_out += 1;
    }

    /// Replays a `len`-byte match at distance `dist` out of the ring
    /// (byte-by-byte: overlapping references read bytes the same copy
    /// just wrote).
    fn copy_match(&mut self, len: usize, dist: usize) -> Result<(), InflateError> {
        if dist as u64 > self.member_out {
            return Err(InflateError::DistanceTooFar {
                dist,
                have: self.member_out as usize,
            });
        }
        let mut rp = (self.wpos + WINDOW - dist) & (WINDOW - 1);
        for _ in 0..len {
            let b = self.window[rp];
            rp = (rp + 1) & (WINDOW - 1);
            self.push_byte(b);
        }
        Ok(())
    }

    /// Tops the bit accumulator up to at least `n` bits (`n` ≤ 25),
    /// unless the input ends first or the inner reader fails; a failure
    /// is stashed for [`Self::lift`].
    fn fill(&mut self, n: u32) {
        while self.bitcnt < n && self.io_error.is_none() {
            match self.next_byte() {
                Ok(Some(b)) => {
                    self.bitbuf |= (b as u32) << self.bitcnt;
                    self.bitcnt += 8;
                }
                Ok(None) => break,
                Err(e) => self.io_error = Some(e),
            }
        }
    }

    /// Reads `n` bits (0..=25), LSB-first, as DEFLATE packs them.
    pub(crate) fn bits(&mut self, n: u32) -> Result<u32, InflateError> {
        self.fill(n);
        if self.bitcnt < n {
            return Err(InflateError::UnexpectedEof);
        }
        let out = self.bitbuf & ((1u32 << n) - 1);
        self.bitbuf >>= n;
        self.bitcnt -= n;
        Ok(out)
    }

    /// Decodes one Huffman symbol: buffers up to 15 bits (fewer only
    /// at the end of the input), resolves them through `lut`, and
    /// consumes exactly the code's length.
    pub(crate) fn decode(&mut self, lut: &LutHuffman) -> Result<u16, InflateError> {
        self.fill(15);
        let (sym, len) = lut.lookup(self.bitbuf, self.bitcnt)?;
        self.bitbuf >>= len;
        self.bitcnt -= len;
        Ok(sym)
    }

    /// Parses one member header; `Ok(false)` is clean end-of-stream
    /// (EOF exactly at a member boundary, at least one member done).
    fn read_header(&mut self) -> io::Result<bool> {
        let b0 = match self.aligned_byte()? {
            Some(b) => b,
            None if self.members_done > 0 => return Ok(false),
            None => return Err(to_io(InflateError::UnexpectedEof)),
        };
        let b1 = match self.aligned_byte()? {
            Some(b) => b,
            // One stray byte after a complete member is trailing data,
            // not a truncated header.
            None if self.members_done > 0 => {
                return Err(to_io(InflateError::TrailingData {
                    offset: (self.in_count - 1) as usize,
                }))
            }
            None => return Err(to_io(InflateError::UnexpectedEof)),
        };
        if [b0, b1] != [0x1F, 0x8B] {
            let e = if self.members_done > 0 {
                InflateError::TrailingData {
                    offset: (self.in_count - 2) as usize,
                }
            } else {
                InflateError::BadMagic { found: [b0, b1] }
            };
            return Err(to_io(e));
        }
        let cm = self.require_byte()?;
        if cm != 8 {
            return Err(to_io(InflateError::UnsupportedMethod(cm)));
        }
        let flg = self.require_byte()?;
        if flg & 0b1110_0000 != 0 {
            return Err(to_io(InflateError::ReservedFlags(flg)));
        }
        for _ in 0..6 {
            self.require_byte()?; // MTIME(4) XFL(1) OS(1)
        }
        if flg & FEXTRA != 0 {
            let lo = self.require_byte()?;
            let hi = self.require_byte()?;
            for _ in 0..u16::from_le_bytes([lo, hi]) {
                self.require_byte()?;
            }
        }
        if flg & FNAME != 0 {
            while self.require_byte()? != 0 {}
        }
        if flg & FCOMMENT != 0 {
            while self.require_byte()? != 0 {}
        }
        if flg & FHCRC != 0 {
            self.require_byte()?;
            self.require_byte()?;
        }
        self.crc_state = !0;
        self.isize_count = 0;
        self.member_out = 0;
        self.final_block = false;
        Ok(true)
    }

    /// Reads one block header and transitions state.
    fn read_block_header(&mut self) -> io::Result<State> {
        let last = self.bits(1).map_err(|e| self.lift(e))? == 1;
        let btype = self.bits(2).map_err(|e| self.lift(e))?;
        self.final_block = last;
        match btype {
            0 => {
                self.align();
                let mut hdr = [0u8; 4];
                for slot in &mut hdr {
                    *slot = self.require_byte()?;
                }
                let len = u16::from_le_bytes([hdr[0], hdr[1]]);
                let nlen = u16::from_le_bytes([hdr[2], hdr[3]]);
                if len != !nlen {
                    return Err(to_io(InflateError::StoredLengthMismatch));
                }
                Ok(State::Stored {
                    remaining: len as usize,
                })
            }
            1 | 2 => {
                let (litlen, dist) = if btype == 1 {
                    fixed_tables()
                } else {
                    dynamic_tables(self).map_err(|e| self.lift(e))?
                };
                Ok(State::InBlock { litlen, dist })
            }
            _ => Err(to_io(InflateError::ReservedBlockType)),
        }
    }

    /// Decodes symbols until the block ends (`Ok(true)`) or `OUT_STEP`
    /// bytes are staged (`Ok(false)`).
    fn run_block(&mut self, litlen: &LutHuffman, dist: &LutHuffman) -> io::Result<bool> {
        while self.pending.len() < OUT_STEP {
            let sym = self.decode(litlen).map_err(|e| self.lift(e))?;
            match sym {
                0..=255 => self.push_byte(sym as u8),
                256 => return Ok(true),
                257..=285 => {
                    let idx = (sym - 257) as usize;
                    let len = LEN_BASE[idx] as usize
                        + self.bits(LEN_EXTRA[idx] as u32).map_err(|e| self.lift(e))? as usize;
                    let dsym = self.decode(dist).map_err(|e| self.lift(e))?;
                    if dsym >= 30 {
                        return Err(to_io(InflateError::InvalidSymbol(dsym)));
                    }
                    let didx = dsym as usize;
                    let d = DIST_BASE[didx] as usize
                        + self
                            .bits(DIST_EXTRA[didx] as u32)
                            .map_err(|e| self.lift(e))? as usize;
                    self.copy_match(len, d).map_err(|e| self.lift(e))?;
                }
                other => return Err(to_io(InflateError::InvalidSymbol(other))),
            }
        }
        Ok(false)
    }

    /// Validates the member trailer against the bytes produced.
    fn read_trailer(&mut self) -> io::Result<()> {
        self.align();
        let mut t = [0u8; 8];
        for slot in &mut t {
            *slot = self.require_byte()?;
        }
        let declared_crc = u32::from_le_bytes([t[0], t[1], t[2], t[3]]);
        let declared_isize = u32::from_le_bytes([t[4], t[5], t[6], t[7]]);
        let actual_crc = !self.crc_state;
        if declared_crc != actual_crc {
            return Err(to_io(InflateError::CrcMismatch {
                declared: declared_crc,
                actual: actual_crc,
            }));
        }
        if declared_isize != self.isize_count {
            return Err(to_io(InflateError::IsizeMismatch {
                declared: declared_isize,
                actual: self.isize_count,
            }));
        }
        self.members_done += 1;
        Ok(())
    }

    /// Advances the state machine once; may stage bytes in `pending`.
    fn step(&mut self) -> io::Result<()> {
        // Take the state out so block tables can be borrowed while
        // `self` decodes through them.
        let state = std::mem::replace(&mut self.state, State::Eof);
        self.state = match state {
            State::Header => {
                if self.read_header()? {
                    State::BlockHeader
                } else {
                    State::Eof
                }
            }
            State::BlockHeader => self.read_block_header()?,
            State::Stored { mut remaining } => {
                while remaining > 0 && self.pending.len() < OUT_STEP {
                    let b = self.require_byte()?;
                    self.push_byte(b);
                    remaining -= 1;
                }
                if remaining > 0 {
                    State::Stored { remaining }
                } else if self.final_block {
                    State::Trailer
                } else {
                    State::BlockHeader
                }
            }
            State::InBlock { litlen, dist } => {
                if self.run_block(&litlen, &dist)? {
                    if self.final_block {
                        State::Trailer
                    } else {
                        State::BlockHeader
                    }
                } else {
                    State::InBlock { litlen, dist }
                }
            }
            State::Trailer => {
                self.read_trailer()?;
                State::Header
            }
            State::Eof => State::Eof,
        };
        Ok(())
    }
}

impl<R: Read> Read for GzipStreamReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        loop {
            let staged = self.pending.len() - self.pstart;
            if staged > 0 {
                let n = staged.min(out.len());
                out[..n].copy_from_slice(&self.pending[self.pstart..self.pstart + n]);
                self.pstart += n;
                if self.pstart == self.pending.len() {
                    self.pending.clear();
                    self.pstart = 0;
                }
                return Ok(n);
            }
            if matches!(self.state, State::Eof) {
                return Ok(0);
            }
            self.step()?;
        }
    }
}

/// Wraps `raw` as a line-readable stream of decompressed bytes: input
/// that starts with the gzip magic inflates through
/// [`GzipStreamReader`], anything else passes through as-is. Detection
/// is by content, not file name, so a gzipped `.txt` and an
/// uncompressed `.gz` both load.
pub fn text_stream<'a>(mut raw: impl BufRead + 'a) -> io::Result<Box<dyn BufRead + 'a>> {
    if is_gzip(raw.fill_buf()?) {
        Ok(Box::new(BufReader::new(GzipStreamReader::new(raw))))
    } else {
        Ok(Box::new(raw))
    }
}

/// Opens `path` through [`text_stream`]: the memory held is a couple of
/// fixed-size buffers, not the file.
pub fn open_edge_stream(path: &Path) -> io::Result<Box<dyn BufRead>> {
    sp_fault::inject(sp_fault::sites::DATASET_READ)?;
    text_stream(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::gzip_store;

    fn read_all_chunked<R: Read>(mut r: R, chunk: usize) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; chunk];
        loop {
            let n = r.read(&mut buf)?;
            if n == 0 {
                return Ok(out);
            }
            out.extend_from_slice(&buf[..n]);
        }
    }

    #[test]
    fn stored_member_streams_identically() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 253) as u8).collect();
        let gz = gzip_store(&data);
        for chunk in [1, 7, 4096] {
            let got = read_all_chunked(GzipStreamReader::new(&gz[..]), chunk).unwrap();
            assert_eq!(got, data, "chunk {chunk}");
        }
    }

    #[test]
    fn multi_member_streams_identically() {
        let mut gz = gzip_store(b"alpha|");
        gz.extend_from_slice(&gzip_store(b"beta"));
        for chunk in [1, 3, 4096] {
            let got = read_all_chunked(GzipStreamReader::new(&gz[..]), chunk).unwrap();
            assert_eq!(got, b"alpha|beta", "chunk {chunk}");
        }
    }

    #[test]
    fn truncation_is_unexpected_eof() {
        let gz = gzip_store(b"0123456789");
        for cut in 0..gz.len() {
            let err = read_all_chunked(GzipStreamReader::new(&gz[..cut]), 16).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_crc_is_invalid_data() {
        let mut gz = gzip_store(b"checksummed");
        let n = gz.len();
        gz[n - 8] ^= 0xFF;
        let err = read_all_chunked(GzipStreamReader::new(&gz[..]), 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_garbage_is_invalid_data() {
        let mut gz = gzip_store(b"ok");
        gz.extend_from_slice(b"junk");
        let err = read_all_chunked(GzipStreamReader::new(&gz[..]), 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_payload_streams() {
        let gz = gzip_store(b"");
        let got = read_all_chunked(GzipStreamReader::new(&gz[..]), 16).unwrap();
        assert!(got.is_empty());
    }
}
