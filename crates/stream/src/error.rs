//! Error type for reading and generating edge streams.

use std::error::Error as StdError;
use std::fmt;
use std::io;

use ebv_graph::GraphError;

/// Errors produced while reading or generating an edge stream.
#[derive(Debug)]
pub enum StreamError {
    /// A line of edge-list text could not be parsed, or names a vertex id
    /// past the 32-bit range.
    Parse {
        /// 1-based line number within the stream.
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
    /// An error bubbled up from the graph substrate.
    Graph(GraphError),
    /// An underlying I/O error.
    Io(io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Parse { line, content } => {
                write!(f, "could not parse edge on line {line}: {content:?}")
            }
            StreamError::InvalidFormat { offset, message } => {
                write!(f, "invalid binary edge stream at byte {offset}: {message}")
            }
            StreamError::Graph(err) => write!(f, "graph error: {err}"),
            StreamError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

impl StdError for StreamError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            StreamError::Graph(err) => Some(err),
            StreamError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(err: io::Error) -> Self {
        StreamError::Io(err)
    }
}

impl From<GraphError> for StreamError {
    fn from(err: GraphError) -> Self {
        // Parse errors keep their structured line/content form so callers
        // can report stream positions uniformly.
        match err {
            GraphError::ParseEdge { line, content } => StreamError::Parse { line, content },
            GraphError::Io(err) => StreamError::Io(err),
            other => StreamError::Graph(other),
        }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StreamError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_meaningful() {
        let e = StreamError::Parse {
            line: 7,
            content: "a b".to_string(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = StreamError::InvalidFormat {
            offset: 12,
            message: "truncated varint".to_string(),
        };
        assert!(e.to_string().contains("byte 12"));
    }

    #[test]
    fn graph_parse_errors_become_stream_parse_errors() {
        let err = StreamError::from(GraphError::ParseEdge {
            line: 3,
            content: "x".to_string(),
        });
        assert!(matches!(err, StreamError::Parse { line: 3, .. }));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StreamError>();
    }
}
