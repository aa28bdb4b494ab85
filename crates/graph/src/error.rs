//! Error type for graph construction, generation and I/O.

use std::error::Error as StdError;
use std::fmt;
use std::io;

/// Errors produced by the graph substrate.
///
/// Every fallible public function of [`ebv-graph`](crate) returns this type.
#[derive(Debug)]
pub enum GraphError {
    /// A vertex identifier referenced by an edge is outside the declared
    /// vertex range.
    VertexOutOfRange {
        /// The offending vertex identifier.
        vertex: u64,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// The graph has no edges but an operation required at least one.
    EmptyGraph,
    /// A generator or builder was configured with inconsistent parameters.
    InvalidParameter {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable description of the constraint that was violated.
        message: String,
    },
    /// A line of an edge-list file could not be parsed.
    ParseEdge {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        content: String,
    },
    /// A binary edge stream is malformed (bad magic, truncated varint, a
    /// pair cut off mid-edge or a vertex id past the 32-bit range).
    InvalidFormat {
        /// Byte offset at which the problem was detected.
        offset: u64,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An underlying I/O error while reading or writing a graph file.
    Io(io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} is out of range for a graph with {num_vertices} vertices"
            ),
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
            GraphError::InvalidParameter { parameter, message } => {
                write!(f, "invalid parameter `{parameter}`: {message}")
            }
            GraphError::ParseEdge { line, content } => {
                write!(f, "could not parse edge on line {line}: {content:?}")
            }
            GraphError::InvalidFormat { offset, message } => {
                write!(f, "invalid binary edge stream at byte {offset}: {message}")
            }
            GraphError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl StdError for GraphError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            GraphError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(err: io::Error) -> Self {
        GraphError::Io(err)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_meaningful() {
        let e = GraphError::VertexOutOfRange {
            vertex: 10,
            num_vertices: 4,
        };
        assert!(e.to_string().contains("out of range"));

        let e = GraphError::InvalidParameter {
            parameter: "num_vertices",
            message: "must be positive".to_string(),
        };
        assert!(e.to_string().contains("num_vertices"));

        let e = GraphError::ParseEdge {
            line: 3,
            content: "a b".to_string(),
        };
        assert!(e.to_string().contains("line 3"));

        let e = GraphError::InvalidFormat {
            offset: 12,
            message: "truncated varint".to_string(),
        };
        assert!(e.to_string().contains("byte 12"));

        assert!(GraphError::EmptyGraph.to_string().contains("non-empty"));
    }

    #[test]
    fn io_error_is_wrapped_with_source() {
        let io_err = io::Error::new(io::ErrorKind::NotFound, "missing");
        let e = GraphError::from(io_err);
        assert!(e.to_string().contains("i/o error"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
