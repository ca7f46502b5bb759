//! The trace-format table and `open_trace` path sniffing.
//!
//! Every consumer of trace files (`simulate`, `trace_tool`,
//! `dirsim-sweep`) asks the same question — which format is this file?
//! — and [`TraceFormat`] is the one place that answers it. The table is
//! closed: each format's magic and extensions are listed here and
//! nowhere else.
//!
//! | format | magic | extensions | source | output |
//! |--------|-------|------------|--------|--------|
//! | [`Corpus`](TraceFormat::Corpus) | `DTR3` | `.dtrz` | [`crate::corpus::CorpusReader`] | yes |
//! | [`Compressed`](TraceFormat::Compressed) | `DTR2` | `.dtr2` | [`crate::compress::CompressedReader`] | no: read-only, the `DTR3` payload |
//! | [`Binary`](TraceFormat::Binary) | `DTR1` | `.dtr`, `.dtr1`, `.bin` | [`crate::mmap::MmapTraceSource`] | yes, and for any other name |
//! | [`Text`](TraceFormat::Text) | — | `.txt`, `.trace` | [`crate::io::TextReader`] | yes |
//! | [`Csv`](TraceFormat::Csv) | — | `.csv` | [`CsvReader`] (foreign `timestamp,cpu,op,addr[,pid]` rows) | yes |
//!
//! [`TraceFormat::detect`] checks every magic before any extension, so
//! a `DTR1`, `DTR2` or `DTR3` file opens under any name; the headerless
//! text and CSV formats are known by extension alone.
//!
//! ```no_run
//! use dirsim_trace::frontend::open_trace;
//! use dirsim_trace::source::collect_all;
//!
//! let source = open_trace("workload.csv")?;
//! let refs = collect_all(source)?;
//! # Ok::<(), dirsim_trace::TraceIoError>(())
//! ```

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::compress::{read_compressed, COMPRESSED_MAGIC};
use crate::corpus::{write_corpus, CorpusReader, CORPUS_MAGIC};
use crate::io::{read_text, write_binary, write_text, TraceIoError, BINARY_MAGIC};
use crate::mmap::MmapTraceSource;
use crate::source::{fill_from_results, IterSource, TraceSource};
use crate::types::{AccessKind, Addr, CpuId, MemRef, ProcessId, RefFlags};

/// A trace file format: the closed table of everything `dirsim` reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Packed `DTR3` corpus: a `DTR2` payload behind a checksum footer.
    Corpus,
    /// Delta-compressed `DTR2` stream. Read-only: it survives as the
    /// corpus payload, and `.dtrz` is the compressed output format.
    Compressed,
    /// Fixed-record `DTR1` trace, opened memory-mapped.
    Binary,
    /// Whitespace-separated text records.
    Text,
    /// Foreign `timestamp,cpu,op,addr[,pid]` rows (flag-lossy).
    Csv,
}

impl TraceFormat {
    /// Every format, in the order detection consults them.
    const ALL: [TraceFormat; 5] = [
        TraceFormat::Corpus,
        TraceFormat::Compressed,
        TraceFormat::Binary,
        TraceFormat::Text,
        TraceFormat::Csv,
    ];

    /// Short human-readable name (`DTR3 corpus`, `CSV`, ...).
    pub(crate) fn name(self) -> &'static str {
        match self {
            TraceFormat::Corpus => "DTR3 corpus",
            TraceFormat::Compressed => "DTR2 compressed",
            TraceFormat::Binary => "DTR1 binary",
            TraceFormat::Text => "text",
            TraceFormat::Csv => "CSV",
        }
    }

    /// The magic bytes opening a file of this format, if it has a header.
    fn magic(self) -> Option<[u8; 4]> {
        match self {
            TraceFormat::Corpus => Some(CORPUS_MAGIC),
            TraceFormat::Compressed => Some(COMPRESSED_MAGIC),
            TraceFormat::Binary => Some(BINARY_MAGIC),
            TraceFormat::Text | TraceFormat::Csv => None,
        }
    }

    /// The file extensions naming this format (lower case, no dot).
    fn extensions(self) -> &'static [&'static str] {
        match self {
            TraceFormat::Corpus => &["dtrz"],
            TraceFormat::Compressed => &["dtr2"],
            TraceFormat::Binary => &["dtr", "dtr1", "bin"],
            TraceFormat::Text => &["txt", "trace"],
            TraceFormat::Csv => &["csv"],
        }
    }

    fn from_magic(prefix: &[u8]) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|f| f.magic().is_some_and(|m| prefix.starts_with(&m)))
    }

    fn from_extension(path: &Path) -> Option<Self> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        Self::ALL
            .into_iter()
            .find(|f| f.extensions().contains(&ext.as_str()))
    }

    /// The format of the file at `path`: the format whose magic opens
    /// the file, else the one its extension names, else `None`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::Io`] if the file cannot be read.
    pub fn detect(path: impl AsRef<Path>) -> Result<Option<Self>, TraceIoError> {
        let path = path.as_ref();
        let prefix = read_prefix(path)?;
        Ok(Self::from_magic(&prefix).or_else(|| Self::from_extension(path)))
    }

    /// Opens `path` as a stream of this format.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] when the file cannot be opened or its
    /// header is invalid; later decode failures surface from the
    /// returned source.
    pub fn open(self, path: impl AsRef<Path>) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
        let path = path.as_ref();
        Ok(match self {
            TraceFormat::Corpus => Box::new(CorpusReader::open(path)?),
            TraceFormat::Compressed => Box::new(read_compressed(BufReader::new(File::open(path)?))),
            TraceFormat::Binary => Box::new(MmapTraceSource::open(path)?),
            TraceFormat::Text => Box::new(read_text(BufReader::new(File::open(path)?))),
            TraceFormat::Csv => Box::new(read_csv(BufReader::new(File::open(path)?))),
        })
    }

    /// The format written to `path`: the one its extension names, and
    /// fixed-record binary for any other name.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::ReadOnly`] for a `.dtr2` path.
    pub fn for_output(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        match Self::from_extension(path.as_ref()).unwrap_or(TraceFormat::Binary) {
            TraceFormat::Compressed => Err(TraceIoError::ReadOnly(TraceFormat::Compressed)),
            format => Ok(format),
        }
    }

    /// Streams `refs` to `w` in this format and returns the number
    /// written. Every writer encodes as it goes, so the trace is never
    /// held in memory.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError::ReadOnly`] for [`Compressed`](Self::Compressed),
    /// and any error from the underlying writer.
    pub fn write<W, I>(self, w: &mut W, refs: I) -> Result<u64, TraceIoError>
    where
        W: Write,
        I: IntoIterator<Item = MemRef>,
    {
        match self {
            TraceFormat::Corpus => write_corpus(w, IterSource::new(refs.into_iter())),
            TraceFormat::Compressed => Err(TraceIoError::ReadOnly(self)),
            TraceFormat::Binary => write_binary(w, refs),
            TraceFormat::Text => write_text(w, refs),
            TraceFormat::Csv => write_csv(w, refs),
        }
    }
}

fn read_prefix(path: &Path) -> Result<Vec<u8>, TraceIoError> {
    let mut prefix = Vec::with_capacity(4);
    File::open(path)?.take(4).read_to_end(&mut prefix)?;
    Ok(prefix)
}

/// Whether `path` names a trace file: an existing regular file whose
/// format [`TraceFormat::detect`] recognises. This is how `simulate
/// --scenario` and a `.sweep` `scenarios` axis tell a trace file from a
/// bundled scenario name or a `.scn` spec.
pub fn is_trace_file(path: impl AsRef<Path>) -> bool {
    let path = path.as_ref();
    path.is_file() && matches!(TraceFormat::detect(path), Ok(Some(_)))
}

/// Opens a trace file of any format (the one-call entry point the CLIs
/// use).
///
/// A file no format recognises is handed to the binary reader, so it
/// fails with the usual [`TraceIoError::BadMagic`].
///
/// # Errors
///
/// Any open or header error from the detected format.
pub fn open_trace(path: impl AsRef<Path>) -> Result<Box<dyn TraceSource + Send>, TraceIoError> {
    let path = path.as_ref();
    TraceFormat::detect(path)?
        .unwrap_or(TraceFormat::Binary)
        .open(path)
}

/// Streaming reader over foreign CSV rows.
///
/// Schema: `timestamp,cpu,op,addr[,pid]` with an optional header row.
/// `timestamp` must be numeric and is used only for ordering (rows are
/// expected already time-sorted; the value itself is not retained).
/// `op` accepts `r`/`read`/`load`, `w`/`write`/`store`, `i`/`ifetch`
/// (case-insensitive). `addr` is hex with an optional `0x` prefix, or
/// decimal. `pid` defaults to the cpu column — foreign traces rarely
/// distinguish the two. The schema has no flag column, so lock/OS
/// annotations do not survive a CSV round trip.
#[derive(Debug)]
pub struct CsvReader<R> {
    lines: io::Lines<R>,
    lineno: usize,
    failed: bool,
}

/// Opens a CSV trace stream for reading.
pub fn read_csv<R: BufRead>(reader: R) -> CsvReader<R> {
    CsvReader {
        lines: reader.lines(),
        lineno: 0,
        failed: false,
    }
}

fn parse_csv_op(token: &str) -> Option<AccessKind> {
    match token.to_ascii_lowercase().as_str() {
        "r" | "read" | "load" => Some(AccessKind::Read),
        "w" | "write" | "store" => Some(AccessKind::Write),
        "i" | "ifetch" | "instr" => Some(AccessKind::InstrFetch),
        _ => None,
    }
}

fn parse_csv_addr(token: &str) -> Option<u64> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token
            .parse::<u64>()
            .ok()
            .or_else(|| u64::from_str_radix(token, 16).ok())
    }
}

fn parse_csv_line(line: &str, lineno: usize) -> Result<Option<MemRef>, TraceIoError> {
    let bad = |reason: &str| TraceIoError::BadTextRecord {
        line: lineno,
        reason: reason.to_string(),
    };
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
    if fields.len() < 4 || fields.len() > 5 {
        return Err(bad("expected timestamp,cpu,op,addr[,pid]"));
    }
    if fields[0].parse::<f64>().is_err() {
        // A non-numeric timestamp on the first line is the header row.
        if lineno == 1 {
            return Ok(None);
        }
        return Err(bad("timestamp is not a number"));
    }
    let cpu: u16 = fields[1].parse().map_err(|_| bad("cpu is not a number"))?;
    let kind = parse_csv_op(fields[2]).ok_or_else(|| bad("op must be read/write/ifetch"))?;
    let addr = parse_csv_addr(fields[3]).ok_or_else(|| bad("address is not a number"))?;
    let pid: u32 = match fields.get(4) {
        Some(tok) => tok.parse().map_err(|_| bad("pid is not a number"))?,
        None => u32::from(cpu),
    };
    Ok(Some(MemRef {
        cpu: CpuId::new(cpu),
        pid: ProcessId::new(pid),
        addr: Addr::new(addr),
        kind,
        flags: RefFlags::empty(),
    }))
}

impl<R: BufRead> Iterator for CsvReader<R> {
    type Item = Result<MemRef, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            self.lineno += 1;
            match self.lines.next() {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
                Some(Ok(line)) => match parse_csv_line(&line, self.lineno) {
                    Ok(None) => continue,
                    Ok(Some(r)) => return Some(Ok(r)),
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                },
            }
        }
    }
}

impl<R: BufRead> TraceSource for CsvReader<R> {
    fn read_chunk(&mut self, buf: &mut Vec<MemRef>, max: usize) -> Result<usize, TraceIoError> {
        fill_from_results(self, buf, max)
    }
}

/// Writes references as CSV rows under a header, using the record index
/// as the timestamp. Lock/OS flags are not representable in the foreign
/// schema and are dropped.
///
/// # Errors
///
/// Returns any error from the underlying writer.
pub fn write_csv<W, I>(w: &mut W, refs: I) -> Result<u64, TraceIoError>
where
    W: std::io::Write,
    I: IntoIterator<Item = MemRef>,
{
    writeln!(w, "timestamp,cpu,op,addr,pid")?;
    let mut count = 0u64;
    for r in refs {
        writeln!(
            w,
            "{},{},{},0x{:x},{}",
            count,
            r.cpu.index(),
            r.kind.code(),
            r.addr.raw(),
            r.pid.index()
        )?;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_all;
    use crate::synth::PaperTrace;

    fn temp_path(name: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "dirsim-frontend-{}-{}-{name}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn encode(format: TraceFormat, refs: &[MemRef]) -> Vec<u8> {
        let mut bytes = Vec::new();
        match format {
            TraceFormat::Compressed => {
                crate::compress::write_compressed(&mut bytes, refs.iter().copied()).unwrap();
            }
            _ => {
                format.write(&mut bytes, refs.iter().copied()).unwrap();
            }
        }
        bytes
    }

    #[test]
    fn csv_round_trips_flagless_refs() {
        let refs: Vec<MemRef> = PaperTrace::Pops
            .workload()
            .take(2000)
            .map(|r| r.with_flags(RefFlags::empty()))
            .collect();
        let mut buf = Vec::new();
        let n = write_csv(&mut buf, refs.iter().copied()).unwrap();
        assert_eq!(n, refs.len() as u64);
        let back: Vec<MemRef> = read_csv(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(back, refs);
    }

    #[test]
    fn csv_accepts_spelled_out_ops_and_decimal_addresses() {
        let src = "timestamp,cpu,op,addr\n0,1,READ,255\n1.5,2,store,0x10\n2,0,ifetch,20\n";
        let back: Vec<MemRef> = read_csv(src.as_bytes()).collect::<Result<_, _>>().unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].kind, AccessKind::Read);
        assert_eq!(back[0].addr, Addr::new(255));
        assert_eq!(back[0].pid, ProcessId::new(1), "pid defaults to cpu");
        assert_eq!(back[1].kind, AccessKind::Write);
        assert_eq!(back[1].addr, Addr::new(0x10));
        assert_eq!(back[2].kind, AccessKind::InstrFetch);
    }

    #[test]
    fn csv_rejects_garbage_with_line_numbers() {
        for bad in [
            "0,1,r\n",               // too few fields
            "0,1,r,10,2,9\n",        // too many fields
            "0,x,r,10\n",            // cpu
            "0,1,q,10\n",            // op
            "0,1,r,zz\n",            // addr... note zz is not hex
            "0,1,r,10,pid\n",        // pid
            "t,1,r,10\nt2,1,r,10\n", // non-numeric timestamp past line 1
        ] {
            let results: Vec<_> = read_csv(bad.as_bytes()).collect();
            assert!(
                matches!(
                    results.last(),
                    Some(Err(TraceIoError::BadTextRecord { .. }))
                ),
                "input {bad:?} should fail, got {results:?}"
            );
        }
    }

    #[test]
    fn format_table_is_unambiguous() {
        let mut magics = Vec::new();
        let mut extensions = Vec::new();
        for format in TraceFormat::ALL {
            magics.extend(format.magic());
            extensions.extend_from_slice(format.extensions());
        }
        let (m, e) = (magics.len(), extensions.len());
        magics.sort_unstable();
        magics.dedup();
        extensions.sort_unstable();
        extensions.dedup();
        assert_eq!((magics.len(), extensions.len()), (m, e));
    }

    #[test]
    fn magic_wins_over_every_extension() {
        let refs: Vec<MemRef> = PaperTrace::Thor.workload().take(300).collect();
        for format in [
            TraceFormat::Binary,
            TraceFormat::Compressed,
            TraceFormat::Corpus,
        ] {
            let bytes = encode(format, &refs);
            for ext in ["dtr", "dtr2", "dtrz", "txt", "csv"] {
                let path = temp_path(&format!("magic.{ext}"));
                std::fs::write(&path, &bytes).unwrap();
                assert_eq!(TraceFormat::detect(&path).unwrap(), Some(format), "{ext}");
                let got = collect_all(open_trace(&path).unwrap()).unwrap();
                assert_eq!(got, refs, "{} bytes named .{ext}", format.name());
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn headerless_formats_open_by_extension() {
        let refs: Vec<MemRef> = PaperTrace::Thor
            .workload()
            .take(300)
            .map(|r| r.with_flags(RefFlags::empty()))
            .collect();
        for (format, ext) in [
            (TraceFormat::Text, "txt"),
            (TraceFormat::Text, "trace"),
            (TraceFormat::Csv, "csv"),
        ] {
            let path = temp_path(&format!("plain.{ext}"));
            std::fs::write(&path, encode(format, &refs)).unwrap();
            assert_eq!(TraceFormat::detect(&path).unwrap(), Some(format), "{ext}");
            let got = collect_all(open_trace(&path).unwrap()).unwrap();
            assert_eq!(got, refs, "{ext}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn unknown_files_fail_with_bad_magic() {
        let path = temp_path("mystery.bits");
        std::fs::write(&path, b"GARBAGE!").unwrap();
        assert_eq!(TraceFormat::detect(&path).unwrap(), None);
        assert!(!is_trace_file(&path));
        let err = match open_trace(&path) {
            Err(e) => e,
            Ok(_) => panic!("garbage file must not open"),
        };
        assert!(matches!(err, TraceIoError::BadMagic { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_names_the_magic_its_reader_expected() {
        for (ext, expected) in [("dtrz", "DTR3"), ("dtr2", "DTR2"), ("dtr", "DTR1")] {
            let path = temp_path(&format!("garbage.{ext}"));
            std::fs::write(&path, b"GARBAGE!".repeat(8)).unwrap();
            let err = match open_trace(&path) {
                Err(e) => e,
                Ok(source) => collect_all(source).expect_err("garbage must not decode"),
            };
            std::fs::remove_file(&path).unwrap();
            assert!(matches!(err, TraceIoError::BadMagic { .. }), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("expected \"{expected}\"")),
                "{ext}: {msg}"
            );
            assert!(msg.contains("\"GARB\""), "{ext}: {msg}");
        }
    }

    #[test]
    fn compressed_output_is_refused_with_a_pointer_to_dtrz() {
        let err = TraceFormat::for_output("out.dtr2").unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::ReadOnly(TraceFormat::Compressed)
        ));
        assert!(err.to_string().contains(".dtrz"), "{err}");
        let mut sink = Vec::new();
        assert!(TraceFormat::Compressed
            .write(&mut sink, std::iter::empty())
            .is_err());
        assert!(sink.is_empty());
        for (path, format) in [
            ("out.dtrz", TraceFormat::Corpus),
            ("out.TXT", TraceFormat::Text),
            ("out.csv", TraceFormat::Csv),
            ("out.dtr", TraceFormat::Binary),
            ("out", TraceFormat::Binary),
            ("out.scn", TraceFormat::Binary),
        ] {
            assert_eq!(TraceFormat::for_output(path).unwrap(), format, "{path}");
        }
    }
}
