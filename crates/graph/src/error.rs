//! Error type shared by graph construction and I/O.

use std::fmt;
use std::io;

/// Errors raised while building or loading interaction graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An interaction referenced a node id that overflows `u32`.
    NodeIdOverflow(u64),
    /// An interaction carried a non-positive or non-finite flow value.
    InvalidFlow {
        /// Offending flow value.
        flow: f64,
        /// Source node of the interaction.
        from: u64,
        /// Target node of the interaction.
        to: u64,
    },
    /// A self-loop `u -> u` was supplied and the builder forbids them.
    SelfLoop(u64),
    /// An edge list names a node id so far beyond its size that the
    /// node-indexed arrays it implies (one slot per id up to the largest)
    /// exceed [`crate::builder::max_dense_nodes`].
    SparseNodeId {
        /// The largest node id in the input.
        id: u64,
        /// 1-based line that first names it.
        line: usize,
        /// Interactions in the input.
        interactions: usize,
    },
    /// A line of an edge-list file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A packed segment file was rejected (bad magic, checksum mismatch,
    /// truncation, out-of-bounds section, …).
    Segment {
        /// Description of the problem.
        message: String,
    },
    /// An error raised while reading a specific file, carrying the path.
    InFile {
        /// Path of the file being read.
        path: std::path::PathBuf,
        /// The underlying error.
        source: Box<GraphError>,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl GraphError {
    /// Wraps this error with the path of the file being processed, so
    /// callers juggling several inputs can tell which one failed.
    pub fn in_file(self, path: impl Into<std::path::PathBuf>) -> GraphError {
        GraphError::InFile { path: path.into(), source: Box::new(self) }
    }

    /// Builds a segment-format rejection error.
    pub(crate) fn segment(message: impl Into<String>) -> GraphError {
        GraphError::Segment { message: message.into() }
    }
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeIdOverflow(id) => {
                write!(f, "node id {id} exceeds the u32 node-id space")
            }
            GraphError::InvalidFlow { flow, from, to } => write!(
                f,
                "interaction {from}->{to} has invalid flow {flow}; flows must be finite and > 0"
            ),
            GraphError::SelfLoop(u) => write!(f, "self-loop on node {u} is not allowed"),
            GraphError::SparseNodeId { id, line, interactions } => write!(
                f,
                "node id {id} on line {line} is too sparse: node ids index dense arrays, and \
                 {} nodes exceed the limit of {} for {interactions} interactions \
                 (16 per interaction, at least 2^20)",
                id + 1,
                crate::builder::max_dense_nodes(*interactions)
            ),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Segment { message } => write!(f, "invalid segment file: {message}"),
            GraphError::InFile { path, source } => write!(f, "{}: {source}", path.display()),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::InFile { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::InvalidFlow { flow: -1.0, from: 3, to: 4 };
        assert!(e.to_string().contains("3->4"));
        assert!(e.to_string().contains("-1"));

        let e = GraphError::Parse { line: 7, message: "bad field".into() };
        assert!(e.to_string().contains("line 7"));

        let e = GraphError::NodeIdOverflow(1 << 40);
        assert!(e.to_string().contains("u32"));

        let e = GraphError::SparseNodeId { id: 4_294_967_295, line: 3, interactions: 2 };
        let msg = e.to_string();
        assert!(msg.contains("4294967295") && msg.contains("line 3"), "{msg}");
        assert!(msg.contains(&(1u64 << 20).to_string()), "{msg}");
    }

    #[test]
    fn in_file_adds_path_context_and_keeps_the_source() {
        use std::error::Error;
        let e = GraphError::Parse { line: 7, message: "bad field".into() }.in_file("data/x.txt");
        let msg = e.to_string();
        assert!(msg.contains("x.txt"), "{msg}");
        assert!(msg.contains("line 7"), "{msg}");
        assert!(e.source().unwrap().to_string().contains("line 7"));
    }

    #[test]
    fn segment_errors_describe_the_problem() {
        let e = GraphError::segment("checksum mismatch");
        assert!(e.to_string().contains("checksum mismatch"));
        assert!(e.to_string().contains("segment"));
    }

    #[test]
    fn io_error_is_wrapped_with_source() {
        use std::error::Error;
        let e: GraphError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
    }
}
