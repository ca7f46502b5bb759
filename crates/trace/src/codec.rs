//! Record-level encode/decode for the fixed-width `DTR1` binary format.
//!
//! [`crate::io`] streams whole traces through `std::io` readers and
//! writers; this module is the layer underneath — the pure byte layout of
//! one record and the 8-byte file header — shared by the buffered reader,
//! the memory-mapped reader ([`crate::mmap`]), and the corpus tooling.
//! Keeping the layout in one place is what lets the mmap path decode
//! straight out of the map with the exact same bit semantics as the
//! buffered path.
//!
//! Record layout (little-endian, [`RECORD_LEN`] bytes):
//!
//! | bytes | field | encoding |
//! |-------|-------|----------|
//! | 0..2  | cpu   | `u16` LE |
//! | 2     | kind  | 0 = instr, 1 = read, 2 = write |
//! | 3     | flags | [`RefFlags::bits`] |
//! | 4..8  | pid   | `u32` LE |
//! | 8..16 | addr  | `u64` LE |

use std::io::Write;

use crate::io::{TraceIoError, BINARY_MAGIC, BINARY_RECORD_LEN};
use crate::types::{AccessKind, Addr, CpuId, MemRef, ProcessId, RefFlags};

/// Size in bytes of one encoded record (re-export of
/// [`BINARY_RECORD_LEN`] under the codec's own name).
pub const RECORD_LEN: usize = BINARY_RECORD_LEN;

/// Size in bytes of the file header (magic plus version word).
pub const HEADER_LEN: usize = 8;

/// The binary access-kind byte for `kind`.
pub fn kind_byte(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::InstrFetch => 0,
        AccessKind::Read => 1,
        AccessKind::Write => 2,
    }
}

/// Decodes a binary access-kind byte.
///
/// # Errors
///
/// Returns [`TraceIoError::BadAccessKind`] for bytes outside `0..=2`.
pub fn kind_from_byte(b: u8) -> Result<AccessKind, TraceIoError> {
    match b {
        0 => Ok(AccessKind::InstrFetch),
        1 => Ok(AccessKind::Read),
        2 => Ok(AccessKind::Write),
        other => Err(TraceIoError::BadAccessKind(other)),
    }
}

/// The 8-byte `DTR1` file header: magic, format version 1, three
/// reserved bytes.
pub fn header_bytes() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&BINARY_MAGIC);
    h[4] = 1;
    h
}

/// Validates a `DTR1` file header.
///
/// Only the magic is checked; the version word is reserved for future
/// revisions (readers of version 1 accept every version-1-era file).
///
/// # Errors
///
/// Returns [`TraceIoError::BadMagic`] when the magic does not match.
pub fn check_header(header: &[u8; HEADER_LEN]) -> Result<(), TraceIoError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("slice length is 4");
    if magic != BINARY_MAGIC {
        return Err(TraceIoError::BadMagic {
            found: magic,
            expected: BINARY_MAGIC,
        });
    }
    Ok(())
}

/// Encodes one reference into `out`.
pub fn encode_record(r: &MemRef, out: &mut [u8; RECORD_LEN]) {
    out[0..2].copy_from_slice(&(r.cpu.index() as u16).to_le_bytes());
    out[2] = kind_byte(r.kind);
    out[3] = r.flags.bits();
    out[4..8].copy_from_slice(&(r.pid.index() as u32).to_le_bytes());
    out[8..16].copy_from_slice(&r.addr.raw().to_le_bytes());
}

/// Decodes one reference from a full record's bytes.
///
/// # Errors
///
/// Returns [`TraceIoError::BadAccessKind`] when the kind byte is invalid;
/// every other bit pattern decodes (unknown flag bits are dropped by
/// [`RefFlags::from_bits`]).
pub fn decode_record(rec: &[u8; RECORD_LEN]) -> Result<MemRef, TraceIoError> {
    let cpu = u16::from_le_bytes(rec[0..2].try_into().expect("len 2"));
    let kind = kind_from_byte(rec[2])?;
    let flags = RefFlags::from_bits(rec[3]);
    let pid = u32::from_le_bytes(rec[4..8].try_into().expect("len 4"));
    let addr = u64::from_le_bytes(rec[8..16].try_into().expect("len 8"));
    Ok(MemRef {
        cpu: CpuId::new(cpu),
        pid: ProcessId::new(pid),
        addr: Addr::new(addr),
        kind,
        flags,
    })
}

/// Streaming `DTR1` writer: header on construction, one record per
/// [`push`](Self::push).
///
/// The iterator-driven [`crate::io::write_binary`] needs the whole stream
/// up front; this writer is its incremental counterpart for tools that
/// produce references chunk by chunk (corpus `unpack`, format
/// conversion) without materialising the trace.
#[derive(Debug)]
pub struct BinaryWriter<W> {
    inner: W,
    count: u64,
}

impl<W: Write> BinaryWriter<W> {
    /// Writes the header and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns any error from the underlying writer.
    pub fn new(mut inner: W) -> Result<Self, TraceIoError> {
        inner.write_all(&header_bytes())?;
        Ok(BinaryWriter { inner, count: 0 })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns any error from the underlying writer.
    pub fn push(&mut self, r: &MemRef) -> Result<(), TraceIoError> {
        let mut rec = [0u8; RECORD_LEN];
        encode_record(r, &mut rec);
        self.inner.write_all(&rec)?;
        self.count += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flushes and returns the underlying writer and the record count.
    ///
    /// # Errors
    ///
    /// Returns any error from flushing the underlying writer.
    pub fn finish(mut self) -> Result<(W, u64), TraceIoError> {
        self.inner.flush()?;
        Ok((self.inner, self.count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_binary;

    fn sample() -> MemRef {
        MemRef::write(CpuId::new(3), ProcessId::new(9), Addr::new(0xdead_beef))
            .with_flags(RefFlags::empty().with_os())
    }

    #[test]
    fn record_round_trips() {
        let r = sample();
        let mut rec = [0u8; RECORD_LEN];
        encode_record(&r, &mut rec);
        assert_eq!(decode_record(&rec).unwrap(), r);
    }

    #[test]
    fn bad_kind_byte_is_typed() {
        let mut rec = [0u8; RECORD_LEN];
        rec[2] = 7;
        assert!(matches!(
            decode_record(&rec),
            Err(TraceIoError::BadAccessKind(7))
        ));
    }

    #[test]
    fn header_round_trips() {
        let h = header_bytes();
        check_header(&h).unwrap();
        let mut bad = h;
        bad[0] = b'X';
        assert!(matches!(
            check_header(&bad),
            Err(TraceIoError::BadMagic { .. })
        ));
    }

    #[test]
    fn streaming_writer_matches_write_binary() {
        let refs = vec![
            sample(),
            MemRef::read(CpuId::new(0), ProcessId::new(0), Addr::new(1)),
        ];
        let mut expect = Vec::new();
        crate::io::write_binary(&mut expect, refs.iter().copied()).unwrap();

        let mut writer = BinaryWriter::new(Vec::new()).unwrap();
        for r in &refs {
            writer.push(r).unwrap();
        }
        let (got, n) = writer.finish().unwrap();
        assert_eq!(n, 2);
        assert_eq!(got, expect);
        let back: Vec<_> = read_binary(&got[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(back, refs);
    }
}
