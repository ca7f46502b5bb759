//! Packed cold-storage corpus format (`DTR3`).
//!
//! A corpus file is a `DTR1` trace packed for archival: an 8-byte outer
//! header, a complete `DTR2` compressed stream as the payload, and a
//! 24-byte footer carrying the record count and an FNV-1a-64 checksum of
//! the payload bytes, so `verify` can prove a multi-gigabyte file intact
//! without trusting the decode alone.
//!
//! Layout:
//!
//! ```text
//! +--------------------+------------------------------+----------------------+
//! | "DTR3" 1 0 0 0     | DTR2 stream (own header)     | footer (24 bytes)    |
//! +--------------------+------------------------------+----------------------+
//! footer = record count u64 LE | payload FNV-1a-64 u64 LE | "END3" | 4 reserved
//! ```
//!
//! Everything streams: [`write_corpus`] pulls chunks from any
//! [`TraceSource`] and never materialises the trace, and
//! [`CorpusReader`] decodes record-by-record, verifying count and
//! checksum when the payload ends. Both run comfortably at the 10⁸-ref
//! scale the `trace_tool` subcommands target.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Take, Write};
use std::path::Path;

use crate::compress::{read_compressed, CompressedReader, Encoder};
use crate::io::TraceIoError;
use crate::source::{fill_from_results, TraceSource};
use crate::types::MemRef;

/// Magic bytes opening a corpus file.
pub const CORPUS_MAGIC: [u8; 4] = *b"DTR3";

/// Magic bytes inside the footer, marking an intact tail.
pub const FOOTER_MAGIC: [u8; 4] = *b"END3";

/// Size in bytes of the outer header.
pub const CORPUS_HEADER_LEN: usize = 8;

/// Size in bytes of the footer.
pub const CORPUS_FOOTER_LEN: usize = 24;

/// Streaming FNV-1a-64 over a byte stream.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// A writer adapter hashing and counting everything written through it.
#[derive(Debug)]
struct ChecksumWriter<W> {
    inner: W,
    hash: Fnv64,
    bytes: u64,
}

impl<W: Write> ChecksumWriter<W> {
    fn new(inner: W) -> Self {
        ChecksumWriter {
            inner,
            hash: Fnv64::new(),
            bytes: 0,
        }
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A reader adapter hashing and counting everything read through it.
#[derive(Debug)]
pub struct ChecksumReader<R> {
    inner: R,
    hash: Fnv64,
    bytes: u64,
}

impl<R: Read> ChecksumReader<R> {
    fn new(inner: R) -> Self {
        ChecksumReader {
            inner,
            hash: Fnv64::new(),
            bytes: 0,
        }
    }
}

impl<R: Read> Read for ChecksumReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.update(&buf[..n]);
        self.bytes += n as u64;
        Ok(n)
    }
}

fn footer_bytes(count: u64, checksum: u64) -> [u8; CORPUS_FOOTER_LEN] {
    let mut footer = [0u8; CORPUS_FOOTER_LEN];
    footer[0..8].copy_from_slice(&count.to_le_bytes());
    footer[8..16].copy_from_slice(&checksum.to_le_bytes());
    footer[16..20].copy_from_slice(&FOOTER_MAGIC);
    footer
}

/// Packs every reference from `source` into a corpus stream on `w`.
/// Returns the record count.
///
/// # Errors
///
/// Propagates decode errors from the source and write errors from `w`.
pub fn write_corpus<W, S>(w: &mut W, mut source: S) -> Result<u64, TraceIoError>
where
    W: Write,
    S: TraceSource,
{
    w.write_all(&CORPUS_MAGIC)?;
    w.write_all(&[1, 0, 0, 0])?;
    let mut cw = ChecksumWriter::new(&mut *w);
    let mut enc = Encoder::new(&mut cw)?;
    let mut chunk = Vec::new();
    while source.read_chunk(&mut chunk, 8192)? > 0 {
        for r in &chunk {
            enc.push(r)?;
        }
    }
    let (_, count) = enc.finish()?;
    let checksum = cw.hash.finish();
    w.write_all(&footer_bytes(count, checksum))?;
    w.flush()?;
    Ok(count)
}

/// What a [`CorpusReader`] knows after the stream is fully drained (also
/// the result of [`verify_corpus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSummary {
    /// Records decoded (equals the footer count once verified).
    pub records: u64,
    /// Compressed payload size in bytes.
    pub payload_bytes: u64,
    /// FNV-1a-64 checksum of the payload.
    pub checksum: u64,
}

#[derive(Debug, PartialEq, Eq)]
enum ReaderState {
    Streaming,
    Done,
    Failed,
}

/// Streaming reader over a corpus file.
///
/// Iterates `Result<MemRef, TraceIoError>` and is a [`TraceSource`]. The
/// footer is read (and its magic validated) up front; the count and
/// checksum are verified once the payload ends, surfacing
/// [`TraceIoError::BadChecksum`] / [`TraceIoError::CountMismatch`] as a
/// final stream item so corruption cannot pass silently.
#[derive(Debug)]
pub struct CorpusReader<R: Read> {
    inner: CompressedReader<ChecksumReader<Take<R>>>,
    expected_count: u64,
    expected_checksum: u64,
    decoded: u64,
    state: ReaderState,
}

impl CorpusReader<BufReader<File>> {
    /// Opens the corpus file at `path`.
    ///
    /// # Errors
    ///
    /// * [`TraceIoError::Io`] for filesystem failures.
    /// * [`TraceIoError::TruncatedRecord`] if the file is too short to
    ///   hold header plus footer, or the footer magic is damaged.
    /// * [`TraceIoError::BadMagic`] if the outer magic is not `DTR3`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let file = File::open(path)?;
        Self::new(BufReader::new(file))
    }
}

impl<R: Read + Seek> CorpusReader<R> {
    /// Wraps a seekable byte stream holding a whole corpus file.
    ///
    /// # Errors
    ///
    /// See [`CorpusReader::open`].
    pub fn new(mut r: R) -> Result<Self, TraceIoError> {
        let total = r.seek(SeekFrom::End(0))?;
        let overhead = (CORPUS_HEADER_LEN + CORPUS_FOOTER_LEN) as u64;
        if total < CORPUS_HEADER_LEN as u64 {
            return Err(TraceIoError::TruncatedRecord);
        }
        // The outer magic first, so a file that is no corpus at all says
        // so instead of reporting a torn footer.
        r.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; CORPUS_HEADER_LEN];
        r.read_exact(&mut header)?;
        let magic: [u8; 4] = header[0..4].try_into().expect("len 4");
        if magic != CORPUS_MAGIC {
            return Err(TraceIoError::BadMagic {
                found: magic,
                expected: CORPUS_MAGIC,
            });
        }
        if total < overhead {
            return Err(TraceIoError::TruncatedRecord);
        }
        r.seek(SeekFrom::End(-(CORPUS_FOOTER_LEN as i64)))?;
        let mut footer = [0u8; CORPUS_FOOTER_LEN];
        r.read_exact(&mut footer)?;
        let footer_magic: [u8; 4] = footer[16..20].try_into().expect("len 4");
        if footer_magic != FOOTER_MAGIC {
            return Err(TraceIoError::TruncatedRecord);
        }
        let expected_count = u64::from_le_bytes(footer[0..8].try_into().expect("len 8"));
        let expected_checksum = u64::from_le_bytes(footer[8..16].try_into().expect("len 8"));
        r.seek(SeekFrom::Start(CORPUS_HEADER_LEN as u64))?;
        let payload_len = total - overhead;
        let inner = read_compressed(ChecksumReader::new(r.take(payload_len)));
        Ok(CorpusReader {
            inner,
            expected_count,
            expected_checksum,
            decoded: 0,
            state: ReaderState::Streaming,
        })
    }
}

impl<R: Read> CorpusReader<R> {
    /// Record count promised by the footer.
    pub fn expected_records(&self) -> u64 {
        self.expected_count
    }

    /// Summary of the drained stream (checksum and byte count are only
    /// final once iteration has returned `None`).
    pub fn summary(&self) -> CorpusSummary {
        let cs = self.inner.get_ref();
        CorpusSummary {
            records: self.decoded,
            payload_bytes: cs.bytes,
            checksum: cs.hash.finish(),
        }
    }

    /// Verifies checksum and count at end of payload.
    fn check_footer(&self) -> Result<(), TraceIoError> {
        let summary = self.summary();
        if summary.checksum != self.expected_checksum {
            return Err(TraceIoError::BadChecksum {
                expected: self.expected_checksum,
                actual: summary.checksum,
            });
        }
        if summary.records != self.expected_count {
            return Err(TraceIoError::CountMismatch {
                expected: self.expected_count,
                actual: summary.records,
            });
        }
        Ok(())
    }
}

impl<R: Read> Iterator for CorpusReader<R> {
    type Item = Result<MemRef, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state != ReaderState::Streaming {
            return None;
        }
        match self.inner.next() {
            Some(Ok(r)) => {
                self.decoded += 1;
                Some(Ok(r))
            }
            Some(Err(e)) => {
                self.state = ReaderState::Failed;
                Some(Err(e))
            }
            None => match self.check_footer() {
                Ok(()) => {
                    self.state = ReaderState::Done;
                    None
                }
                Err(e) => {
                    self.state = ReaderState::Failed;
                    Some(Err(e))
                }
            },
        }
    }
}

impl<R: Read> TraceSource for CorpusReader<R> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        fill_from_results(self, buf, max)
    }
}

/// Fully verifies a corpus stream: magic, decodability, record count,
/// checksum footer. Streams — memory use is flat in file size.
///
/// # Errors
///
/// The first problem found, as the same typed errors the reader yields.
pub fn verify_corpus<R: Read + Seek>(r: R) -> Result<CorpusSummary, TraceIoError> {
    let mut reader = CorpusReader::new(r)?;
    for item in &mut reader {
        item?;
    }
    Ok(reader.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    use crate::source::IterSource;
    use crate::synth::PaperTrace;

    fn pack(refs: &[MemRef]) -> Vec<u8> {
        let mut buf = Vec::new();
        let n = write_corpus(&mut buf, IterSource::new(refs.iter().copied())).unwrap();
        assert_eq!(n, refs.len() as u64);
        buf
    }

    #[test]
    fn round_trips_and_verifies() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(10_000).collect();
        let buf = pack(&refs);
        let back: Vec<MemRef> = CorpusReader::new(Cursor::new(&buf))
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, refs);
        let summary = verify_corpus(Cursor::new(&buf)).unwrap();
        assert_eq!(summary.records, refs.len() as u64);
        assert_eq!(summary.payload_bytes as usize, buf.len() - 32);
    }

    #[test]
    fn empty_corpus_is_valid() {
        let buf = pack(&[]);
        assert_eq!(buf.len(), CORPUS_HEADER_LEN + 8 + CORPUS_FOOTER_LEN);
        assert_eq!(verify_corpus(Cursor::new(&buf)).unwrap().records, 0);
    }

    #[test]
    fn corrupt_payload_is_a_bad_checksum() {
        let refs: Vec<MemRef> = PaperTrace::Thor.workload().take(1000).collect();
        let mut buf = pack(&refs);
        // Flip a payload byte that keeps the DTR2 stream decodable in
        // length terms (an address-delta byte) — the checksum must still
        // catch it even when decode doesn't.
        let idx = buf.len() - CORPUS_FOOTER_LEN - 2;
        buf[idx] ^= 0x01;
        let outcome: Result<Vec<MemRef>, _> =
            CorpusReader::new(Cursor::new(&buf)).unwrap().collect();
        assert!(outcome.is_err(), "corruption must surface");
    }

    #[test]
    fn tampered_checksum_footer_is_detected() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(100).collect();
        let mut buf = pack(&refs);
        let idx = buf.len() - CORPUS_FOOTER_LEN + 8; // checksum field
        buf[idx] ^= 0xff;
        let err = verify_corpus(Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, TraceIoError::BadChecksum { .. }), "{err}");
    }

    #[test]
    fn tampered_count_footer_is_detected() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(100).collect();
        let mut buf = pack(&refs);
        let idx = buf.len() - CORPUS_FOOTER_LEN; // count field
        buf[idx] ^= 0xff;
        let err = verify_corpus(Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, TraceIoError::CountMismatch { .. }), "{err}");
    }

    #[test]
    fn bad_outer_magic_is_detected() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(10).collect();
        let mut buf = pack(&refs);
        buf[0] = b'X';
        assert!(matches!(
            CorpusReader::new(Cursor::new(&buf)),
            Err(TraceIoError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_tail_is_detected_at_open() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(10).collect();
        let mut buf = pack(&refs);
        buf.truncate(buf.len() - 3); // tear the footer
        assert!(matches!(
            CorpusReader::new(Cursor::new(&buf)),
            Err(TraceIoError::TruncatedRecord)
        ));
        assert!(matches!(
            CorpusReader::new(Cursor::new(&buf[..10])),
            Err(TraceIoError::TruncatedRecord)
        ));
    }

    #[test]
    fn corpus_reader_is_a_trace_source() {
        let refs: Vec<MemRef> = PaperTrace::Pops.workload().take(500).collect();
        let buf = pack(&refs);
        let collected =
            crate::source::collect_all(CorpusReader::new(Cursor::new(&buf)).unwrap()).unwrap();
        assert_eq!(collected, refs);
    }
}
