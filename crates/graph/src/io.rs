//! Plain-text edge-list I/O.
//!
//! Format: one interaction per line, `from to time flow`, separated by
//! whitespace or commas. Lines starting with `#` or `%` and blank lines are
//! ignored. This covers the usual distribution format of temporal-network
//! datasets (SNAP, KONECT) with an extra flow column.

use crate::builder::{check_interaction, GraphBuilder, NodeIdRange};
use crate::error::GraphError;
use crate::event::{Flow, NodeId, Timestamp};
use crate::image::RankingImage;
use crate::mmap::Mmap;
use crate::multigraph::TemporalMultigraph;
use crate::segment::SegmentStore;
use crate::tsgraph::TimeSeriesGraph;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// One edge-list record: `(from, to, time, flow)`.
pub(crate) type Record = (NodeId, NodeId, Timestamp, Flow);

fn parse_line(line: &str, lineno: usize) -> Result<Option<Record>, GraphError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut fields =
        trimmed.split(|c: char| c.is_whitespace() || c == ',').filter(|s| !s.is_empty());
    let mut next = |name: &str| {
        fields.next().ok_or_else(|| GraphError::Parse {
            line: lineno,
            message: format!("missing field `{name}` (expected `from to time flow`)"),
        })
    };
    let from: u64 = next("from")?
        .parse()
        .map_err(|e| GraphError::Parse { line: lineno, message: format!("bad `from`: {e}") })?;
    let to: u64 = next("to")?
        .parse()
        .map_err(|e| GraphError::Parse { line: lineno, message: format!("bad `to`: {e}") })?;
    let time: i64 = next("time")?
        .parse()
        .map_err(|e| GraphError::Parse { line: lineno, message: format!("bad `time`: {e}") })?;
    let flow: f64 = next("flow")?
        .parse()
        .map_err(|e| GraphError::Parse { line: lineno, message: format!("bad `flow`: {e}") })?;
    let from = u32::try_from(from).map_err(|_| GraphError::NodeIdOverflow(from))?;
    let to = u32::try_from(to).map_err(|_| GraphError::NodeIdOverflow(to))?;
    Ok(Some((from, to, time, flow)))
}

/// Whether `b` is an ASCII character [`char::is_whitespace`] accepts
/// (`u8::is_ascii_whitespace` leaves out the vertical tab).
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
}

#[inline]
fn is_separator(b: u8) -> bool {
    is_space(b) || b == b','
}

/// A cursor over the separator-delimited fields of one line.
struct Fields<'a> {
    line: &'a [u8],
    at: usize,
}

impl<'a> Fields<'a> {
    /// Moves past separators to the start of the next field.
    #[inline]
    fn skip_separators(&mut self) {
        while self.line.get(self.at).is_some_and(|&b| is_separator(b)) {
            self.at += 1;
        }
    }

    /// The next field, whatever its bytes.
    fn text(&mut self) -> Option<&'a [u8]> {
        self.skip_separators();
        let start = self.at;
        while self.line.get(self.at).is_some_and(|&b| !is_separator(b)) {
            self.at += 1;
        }
        (self.at > start).then(|| &self.line[start..self.at])
    }

    /// The next field as a run of 1 to `max_len` decimal digits (at most
    /// 19, so the value fits), or `None` if it is anything else.
    #[inline]
    fn digits(&mut self, max_len: usize) -> Option<u64> {
        self.skip_separators();
        self.digits_here(max_len)
    }

    /// [`Fields::digits`] for a field that starts at the cursor.
    #[inline]
    fn digits_here(&mut self, max_len: usize) -> Option<u64> {
        let start = self.at;
        let mut v = 0u64;
        while let Some(&b) = self.line.get(self.at) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                if !is_separator(b) {
                    return None;
                }
                break;
            }
            v = v.wrapping_mul(10).wrapping_add(u64::from(d));
            self.at += 1;
        }
        let len = self.at - start;
        (len > 0 && len <= max_len).then_some(v)
    }
}

/// The byte-level fast path of [`parse_line`]. It settles the common
/// lines — ASCII, plain decimal ids, times and flows — and returns
/// `None` for every other line, which then goes through `parse_line` so
/// that its answers and errors stay exactly the same. Flows of at most
/// 15 digits are exact as `u64 as f64` (below 2^53); other flows go
/// through `str::parse::<f64>`, as in `parse_line`.
fn parse_record(line: &[u8]) -> Option<Option<Record>> {
    match line.iter().find(|&&b| !is_space(b)) {
        None => return Some(None), // blank
        // A comment must still be valid UTF-8, as `read_line` demands.
        Some(b'#' | b'%') => return line.is_ascii().then_some(None),
        Some(_) => {}
    }
    let mut fields = Fields { line, at: 0 };
    let from = u32::try_from(fields.digits(10)?).ok()?;
    let to = u32::try_from(fields.digits(10)?).ok()?;
    fields.skip_separators();
    let time = if line.get(fields.at) == Some(&b'-') {
        fields.at += 1;
        -(fields.digits_here(18)? as i64)
    } else {
        fields.digits(18)? as i64
    };
    let start = fields.at;
    let flow = match fields.digits(15) {
        Some(v) => v as f64,
        None => {
            fields.at = start;
            std::str::from_utf8(fields.text()?).ok()?.parse().ok()?
        }
    };
    // Extra columns are ignored, but must be valid UTF-8 too.
    line[fields.at..].is_ascii().then_some(Some((from, to, time, flow)))
}

/// The error `BufRead::read_line` gives for a line that is not UTF-8.
fn invalid_utf8() -> GraphError {
    std::io::Error::new(std::io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
        .into()
}

/// Parses one line (with its `\n`, if any) on 1-based line `lineno`:
/// the fast path, else the text parser. `None` is a comment or a blank
/// line.
fn parse_any(line: &[u8], lineno: usize) -> Result<Option<Record>, GraphError> {
    match parse_record(line) {
        Some(rec) => Ok(rec),
        None => match std::str::from_utf8(line) {
            Ok(text) => parse_line(text, lineno),
            Err(_) => Err(invalid_utf8()),
        },
    }
}

/// A newline-aligned chunk of an edge list, parsed and validated:
/// its records in input order, the node ids they span, its line count,
/// and its first error (parsing stops there). Line numbers
/// in `ids` and `error` count from the chunk's first line.
#[derive(Debug)]
pub(crate) struct ParsedChunk {
    pub(crate) records: Vec<Record>,
    pub(crate) ids: NodeIdRange,
    pub(crate) lines: usize,
    pub(crate) error: Option<GraphError>,
}

impl ParsedChunk {
    /// The chunk's error as reported for the whole input, where
    /// `lines_before` lines precede the chunk.
    pub(crate) fn take_error(&mut self, lines_before: usize) -> Option<GraphError> {
        self.error.take().map(|e| match e {
            GraphError::Parse { line, message } => {
                GraphError::Parse { line: line + lines_before, message }
            }
            e => e,
        })
    }
}

/// The index of the first `\n` in `bytes`, eight bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ (ONES * u64::from(b'\n'));
        // A byte of `w` is zero where the input holds `\n`. This flags
        // the first zero byte exactly (a borrow can only flag bytes after
        // it), and the lowest flag is the earliest byte.
        let zero = w.wrapping_sub(ONES) & !w & HIGHS;
        if zero != 0 {
            return Some(8 * i + (zero.trailing_zeros() / 8) as usize);
        }
    }
    let tail = words.remainder();
    tail.iter().position(|&b| b == b'\n').map(|at| bytes.len() - tail.len() + at)
}

/// Parses `bytes` (whole lines, the last one possibly without `\n`) as
/// a sequential read of them would: each line through the fast path or
/// the text parser, each record through [`check_interaction`], up to
/// the first error.
pub(crate) fn parse_chunk(bytes: &[u8]) -> ParsedChunk {
    let mut records = Vec::new();
    let mut ids = NodeIdRange::default();
    let mut lines = 0;
    let mut error = None;
    let mut rest = bytes;
    while !rest.is_empty() {
        let len = find_newline(rest).map_or(rest.len(), |at| at + 1);
        let (line, tail) = rest.split_at(len);
        rest = tail;
        lines += 1;
        let checked = parse_any(line, lines).and_then(|rec| match rec {
            Some((u, v, _, f)) => check_interaction(u, v, f, false).map(|()| rec),
            None => Ok(None),
        });
        match checked {
            Ok(Some((u, v, t, f))) => {
                ids.see(u, v, lines);
                records.push((u, v, t, f));
            }
            Ok(None) => {}
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    ParsedChunk { records, ids, lines, error }
}

/// Streaming iterator over the `(from, to, time, flow)` records of an
/// edge list: one buffered line at a time, never the whole file.
/// Comments and blank lines are skipped; parse failures surface as
/// [`GraphError::Parse`] with the 1-based line number.
///
/// Lines are parsed as bytes by a fast path for the common case; any
/// line it declines is parsed as text, so what is accepted and every
/// error are those of the text parser.
///
/// This is the shared front-end of every edge-list consumer — the
/// in-memory builders below and the segment builders, which sort the
/// records in memory or stream them into external-sort runs.
pub struct EdgeListRecords<R: Read> {
    reader: BufReader<R>,
    line: Vec<u8>,
    lineno: usize,
}

impl<R: Read> EdgeListRecords<R> {
    /// Wraps a reader in a buffered record iterator.
    pub fn new(reader: R) -> Self {
        Self { reader: BufReader::with_capacity(1 << 16, reader), line: Vec::new(), lineno: 0 }
    }

    /// 1-based number of the last line read (0 before the first line).
    pub fn line_number(&self) -> usize {
        self.lineno
    }
}

impl<R: Read> Iterator for EdgeListRecords<R> {
    type Item = Result<Record, GraphError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // A whole line inside the read buffer is parsed in place.
            if let Ok(buf) = self.reader.fill_buf() {
                let line = buf.iter().position(|&b| b == b'\n').map(|n| &buf[..=n]);
                if let Some((len, rec)) = line.and_then(|l| Some((l.len(), parse_record(l)?))) {
                    self.reader.consume(len);
                    self.lineno += 1;
                    match rec {
                        Some(rec) => return Some(Ok(rec)),
                        None => continue, // comment or blank line
                    }
                }
            }
            // Otherwise the line is copied out, which also covers lines
            // across buffer refills, the last line, errors and the text
            // parser's fallback.
            self.line.clear();
            match self.reader.read_until(b'\n', &mut self.line) {
                Err(e) => return Some(Err(e.into())),
                Ok(0) => return None,
                Ok(_) => {}
            }
            self.lineno += 1;
            let parsed = parse_any(&self.line, self.lineno);
            match parsed {
                Err(e) => return Some(Err(e)),
                Ok(Some(rec)) => return Some(Ok(rec)),
                Ok(None) => continue, // comment or blank line
            }
        }
    }
}

/// Reads an edge list into a [`GraphBuilder`]. An input whose largest
/// node id implies more nodes than [`crate::builder::max_dense_nodes`]
/// allows is refused with [`GraphError::SparseNodeId`].
pub fn read_edge_list<R: Read>(reader: R) -> Result<GraphBuilder, GraphError> {
    let mut builder = GraphBuilder::new();
    let mut ids = NodeIdRange::default();
    let mut records = EdgeListRecords::new(reader);
    while let Some(rec) = records.next() {
        let (u, v, t, f) = rec?;
        builder.try_add_interaction(u, v, t, f)?;
        ids.see(u, v, records.line_number());
    }
    ids.num_nodes(builder.num_interactions())?;
    Ok(builder)
}

/// Opens `path` and wraps any failure — including later read/parse
/// errors surfaced through the returned closure — with the file path.
fn open_with_context(path: &Path) -> Result<std::fs::File, GraphError> {
    std::fs::File::open(path).map_err(|e| GraphError::Io(e).in_file(path))
}

/// Loads a time-series graph from an edge-list file. Errors carry the
/// file path ([`GraphError::InFile`]) around the line-level detail.
pub fn load_time_series_graph<P: AsRef<Path>>(path: P) -> Result<TimeSeriesGraph, GraphError> {
    let path = path.as_ref();
    let file = open_with_context(path)?;
    let builder = read_edge_list(file).map_err(|e| e.in_file(path))?;
    Ok(builder.build_time_series_graph())
}

/// Builds an edge-list file into an in-memory segment on `threads`
/// workers (`0` = all cores; see [`crate::image`]): the
/// flat, read-only layout the search commands run on, byte-identical to
/// what `pack` writes at any thread count. A regular file is mapped,
/// not copied, and unmapped once parsed; anything else (a pipe, a
/// device) is read to the end. Errors carry the file path, as
/// [`load_time_series_graph`]'s do.
pub fn load_segment<P: AsRef<Path>>(path: P, threads: usize) -> Result<SegmentStore, GraphError> {
    let path = path.as_ref();
    file_bytes(path)
        .and_then(|bytes| crate::image::build_threaded(bytes, threads))
        .map_err(|e| e.in_file(path))
}

/// Parses and sorts an edge-list file on `threads` workers (`0` = all
/// cores) into a [`RankingImage`], which builds the segment of only the
/// pairs a ranking search's cutoff admits. Reads and errors as
/// [`load_segment`].
pub fn load_ranking_image<P: AsRef<Path>>(
    path: P,
    threads: usize,
) -> Result<RankingImage, GraphError> {
    let path = path.as_ref();
    file_bytes(path)
        .and_then(|bytes| RankingImage::build_threaded(bytes, threads))
        .map_err(|e| e.in_file(path))
}

/// The bytes of a file: a map of a regular file, or everything read
/// from anything else.
enum FileBytes {
    Mapped(Mmap),
    Read(Vec<u8>),
}

impl AsRef<[u8]> for FileBytes {
    fn as_ref(&self) -> &[u8] {
        match self {
            FileBytes::Mapped(map) => map.as_ref(),
            FileBytes::Read(bytes) => bytes,
        }
    }
}

/// Maps `path` if it is a regular file, and reads it to the end if not.
fn file_bytes(path: &Path) -> Result<FileBytes, GraphError> {
    let file = std::fs::File::open(path)?;
    Ok(match file.metadata() {
        Ok(meta) if meta.is_file() => FileBytes::Mapped(Mmap::map(&file)?),
        _ => {
            let mut bytes = Vec::new();
            (&file).read_to_end(&mut bytes)?;
            FileBytes::Read(bytes)
        }
    })
}

/// Loads a raw multigraph from an edge-list file. Errors carry the file
/// path ([`GraphError::InFile`]) around the line-level detail.
pub fn load_multigraph<P: AsRef<Path>>(path: P) -> Result<TemporalMultigraph, GraphError> {
    let path = path.as_ref();
    let file = open_with_context(path)?;
    let builder = read_edge_list(file).map_err(|e| e.in_file(path))?;
    Ok(builder.build_multigraph())
}

/// Writes a multigraph as a whitespace-separated edge list with a header
/// comment; round-trips through [`load_multigraph`].
pub fn write_edge_list<W: Write>(g: &TemporalMultigraph, mut w: W) -> Result<(), GraphError> {
    writeln!(w, "# from to time flow")?;
    for i in g.interactions() {
        writeln!(w, "{} {} {} {}", i.from, i.to, i.time, i.flow)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_whitespace_and_commas_and_comments() {
        let input = "# comment\n\n0 1 10 5.0\n1,2,11,2.5\n% another comment\n2\t0\t12\t1\n";
        let b = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(b.num_interactions(), 3);
        let g = b.build_time_series_graph();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_pairs(), 3);
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let err = read_edge_list("0 1 10 5.0\n0 x 11 1.0\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn reports_missing_fields() {
        let err = read_edge_list("0 1 10\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("flow"));
    }

    #[test]
    fn rejects_node_id_overflow() {
        let err = read_edge_list("5000000000 1 10 1.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::NodeIdOverflow(_)));
    }

    #[test]
    fn refuses_a_sparse_node_id_instead_of_sizing_arrays_by_it() {
        let input = "0 1 10 1.0\n# gap\n4294967295 1 11 1.0\n";
        let err = read_edge_list(input.as_bytes()).unwrap_err();
        assert!(
            matches!(err, GraphError::SparseNodeId { id: 4_294_967_295, line: 3, .. }),
            "{err}"
        );
        let path = std::env::temp_dir().join(format!("fm-sparse-{}.txt", std::process::id()));
        std::fs::write(&path, input).unwrap();
        let err = load_time_series_graph(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.to_string().contains("node id 4294967295 on line 3"), "{err}");
        // Dense ids up to the limit still load.
        let g = read_edge_list("0 1 10 1.0\n1048575 1 11 1.0\n".as_bytes()).unwrap();
        assert_eq!(g.build_time_series_graph().num_nodes(), 1 << 20);
    }

    #[test]
    fn rejects_invalid_flow_values() {
        let err = read_edge_list("0 1 10 -3.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::InvalidFlow { .. }));
    }

    #[test]
    fn record_iterator_streams_and_reports_line_numbers() {
        let input = "# header\n0 1 10 5.0\n\n1 2 11 2.5\nbad line\n";
        let mut it = EdgeListRecords::new(input.as_bytes());
        assert_eq!(it.next().unwrap().unwrap(), (0, 1, 10, 5.0));
        assert_eq!(it.line_number(), 2);
        assert_eq!(it.next().unwrap().unwrap(), (1, 2, 11, 2.5));
        let err = it.next().unwrap().unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 5, .. }), "{err}");
        assert!(it.next().is_none());
    }

    #[test]
    fn file_loaders_attach_the_path_to_errors() {
        let dir = std::env::temp_dir().join("flowmotif_io_ctx_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.txt");
        std::fs::write(&path, "0 1 10 5.0\n0 x 11 1.0\n").unwrap();
        let err = load_time_series_graph(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("broken.txt"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
        let missing = dir.join("does_not_exist.txt");
        let err = load_multigraph(&missing).unwrap_err();
        assert!(err.to_string().contains("does_not_exist.txt"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The edge-list reader as it was before the byte-level fast path:
    /// `read_line` and [`parse_line`] for every line, up to the first
    /// error. Records carry their flow as bits; errors are rendered with
    /// their variant.
    fn text_reader(input: &[u8]) -> Vec<Result<(u32, u32, i64, u64), String>> {
        let mut reader = BufReader::new(input);
        let (mut line, mut lineno, mut out) = (String::new(), 0, Vec::new());
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Err(e) => {
                    out.push(Err(rendered(&GraphError::from(e))));
                    return out;
                }
                Ok(0) => return out,
                Ok(_) => {}
            }
            lineno += 1;
            match parse_line(&line, lineno) {
                Err(e) => {
                    out.push(Err(rendered(&e)));
                    return out;
                }
                Ok(Some((u, v, t, f))) => out.push(Ok((u, v, t, f.to_bits()))),
                Ok(None) => {}
            }
        }
    }

    fn byte_reader(input: &[u8]) -> Vec<Result<(u32, u32, i64, u64), String>> {
        let mut out = Vec::new();
        for rec in EdgeListRecords::new(input) {
            match rec {
                Ok((u, v, t, f)) => out.push(Ok((u, v, t, f.to_bits()))),
                Err(e) => {
                    out.push(Err(rendered(&e)));
                    break;
                }
            }
        }
        out
    }

    fn rendered(e: &GraphError) -> String {
        let variant = format!("{e:?}");
        let variant = variant.split(['(', ' ', '{']).next().unwrap_or_default().to_string();
        format!("{variant}: {e}")
    }

    /// One edge-list line, well-formed or broken in the ways real files
    /// are: bad digits, u32 and i64 overflow, signs, non-finite or
    /// non-positive flows, self-loops, missing and extra fields, odd
    /// separators, non-ASCII and non-UTF-8 bytes, comments and blanks.
    fn mutated_line(rng: &mut flowmotif_util::StdRng) -> Vec<u8> {
        use flowmotif_util::RngExt;
        const SEPARATORS: [&str; 7] = [" ", "  ", "\t", ",", ", ", " ,", "\x0b"];
        const NODES: [&str; 10] = [
            "0",
            "7",
            "4294967295",
            "4294967296",
            "18446744073709551616",
            "007",
            "+3",
            "-1",
            "",
            "x",
        ];
        const TIMES: [&str; 10] = [
            "0",
            "-5",
            "1020",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "-",
            "+4",
            "--2",
            "12a",
        ];
        const FLOWS: [&str; 16] = [
            "3",
            "2.5",
            "0",
            "-1",
            "inf",
            "NaN",
            "1e309",
            "-0",
            ".5",
            "5.",
            "0x10",
            "1_0",
            "123456789012345",
            "1234567890123456789",
            "00000000000000000042",
            "e",
        ];
        const JUNK: [&str; 12] =
            ["x", "-", "+", ".", "#", "%", ",", " ", "\r", "é", "\u{a0}", "\u{2003}"];
        let pick = |rng: &mut flowmotif_util::StdRng, xs: &[&str]| {
            xs[rng.random_range(0..xs.len())].to_string()
        };
        let node = |rng: &mut flowmotif_util::StdRng| {
            if rng.random_bool(0.7) {
                rng.random_range(0u32..20).to_string()
            } else {
                pick(rng, &NODES)
            }
        };
        let mut fields = vec![node(rng), node(rng)];
        if rng.random_bool(0.1) {
            fields[1] = fields[0].clone(); // self-loop
        }
        fields.push(if rng.random_bool(0.7) {
            rng.random_range(-50i64..5000).to_string()
        } else {
            pick(rng, &TIMES)
        });
        fields.push(if rng.random_bool(0.6) {
            rng.random_range(1u32..100).to_string()
        } else {
            pick(rng, &FLOWS)
        });
        if rng.random_bool(0.15) {
            fields.truncate(rng.random_range(0..4)); // missing fields
        }
        if rng.random_bool(0.15) {
            fields.push(pick(rng, &["extra", "9", "é", "#"])); // extra column
        }
        let mut line = String::new();
        if rng.random_bool(0.1) {
            line.push_str(&pick(rng, &[" ", "\t", "\u{a0}", ","]));
        }
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                line.push_str(&pick(rng, &SEPARATORS));
            }
            line.push_str(f);
        }
        let mut line = line.into_bytes();
        match rng.random_range(0..12) {
            // Overwrite or insert one junk character.
            0 | 1 if !line.is_empty() => {
                let at = rng.random_range(0..line.len());
                let junk = pick(rng, &JUNK).into_bytes();
                line.splice(at..at + usize::from(rng.random_bool(0.5)), junk);
            }
            2 => line.insert(rng.random_range(0..=line.len()), 0xff), // not UTF-8
            3 => {
                let lead = pick(rng, &["#", "% ", " # ", ",#", "\u{a0}#"]).into_bytes();
                line.splice(0..0, lead);
            }
            4 => line.clear(),
            _ => {}
        }
        line.extend_from_slice(match rng.random_range(0..6) {
            0 => b"\r\n",
            1 => b" \n",
            _ => b"\n",
        });
        line
    }

    /// The fast path must accept and reject exactly what the text
    /// parser does, with the same records, error variants, messages and
    /// line numbers — and the in-memory segment build must reject
    /// exactly what the builder rejects. Iterations default to 20000;
    /// `FLOWMOTIF_PARSE_FUZZ_ITERS` sets another budget.
    #[test]
    fn byte_parser_agrees_with_the_text_parser_on_mutated_lines() {
        use flowmotif_util::{RngExt, SeedableRng, StdRng};
        let iters = std::env::var("FLOWMOTIF_PARSE_FUZZ_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20_000u64);
        let mut rng = StdRng::seed_from_u64(0x0ED6E);
        for i in 0..iters {
            let mut doc = Vec::new();
            for _ in 0..rng.random_range(1..5) {
                doc.extend(mutated_line(&mut rng));
            }
            if rng.random_bool(0.2) && doc.last() == Some(&b'\n') {
                doc.pop(); // no final newline
            }
            let want = text_reader(&doc);
            assert_eq!(
                byte_reader(&doc),
                want,
                "iteration {i}: {:?}",
                String::from_utf8_lossy(&doc)
            );
            // Node ids are dense array indexes: build only small graphs.
            if want.iter().flatten().any(|&(u, v, ..)| u.max(v) > 1000) {
                continue;
            }
            let builder = read_edge_list(doc.as_slice()).map(|b| b.num_interactions());
            let segment = SegmentStore::from_edge_list(doc.as_slice())
                .map(|s| crate::GraphStore::num_interactions(&s));
            assert_eq!(
                segment.map_err(|e| rendered(&e)),
                builder.map_err(|e| rendered(&e)),
                "iteration {i}: {:?}",
                String::from_utf8_lossy(&doc)
            );
        }
    }

    #[test]
    fn find_newline_finds_the_first_newline_anywhere() {
        for len in 0..40 {
            let mut bytes = vec![b'x'; len];
            assert_eq!(find_newline(&bytes), None, "len {len}");
            for at in (0..len).rev() {
                bytes[at] = b'\n';
                assert_eq!(find_newline(&bytes), Some(at), "len {len}");
            }
            // Bytes one off `\n` on either side are not newlines.
            bytes.iter_mut().for_each(|b| *b = [0x09, 0x0b, 0x8a, 0xff][len % 4]);
            assert_eq!(find_newline(&bytes), None, "len {len}");
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 10i64, 5.0), (1, 2, 11, 2.5), (2, 0, 12, 1.0)]);
        let g = b.build_multigraph();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap().build_multigraph();
        assert_eq!(g2.num_interactions(), 3);
        assert_eq!(g2.num_nodes(), 3);
        assert!((g2.total_flow() - g.total_flow()).abs() < 1e-9);
    }
}
