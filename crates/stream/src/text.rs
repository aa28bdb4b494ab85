//! Chunked reader for edge-list text (the SNAP-compatible format of
//! [`ebv_graph::io`]).

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

use ebv_graph::io::parse_edge_line;
use ebv_graph::Edge;

use crate::error::{Result, StreamError};
use crate::source::EdgeSource;

/// Streams edges out of whitespace-separated edge-list text without ever
/// materializing the file: one buffered line at a time, using the same line
/// grammar as the batch reader ([`ebv_graph::io::read_edge_list`]) — blank
/// lines and `#`/`%` comments are skipped, malformed lines report their
/// 1-based line number. Ids are not remapped, so a line naming an id past
/// the 32-bit [`VertexId`](ebv_graph::VertexId) range is malformed too.
///
/// # Examples
///
/// ```
/// use ebv_stream::{EdgeSource, TextEdgeReader};
///
/// let text = "# tiny graph\n0 1\n\n1 2\n";
/// let mut reader = TextEdgeReader::new(text.as_bytes());
/// let mut count = 0;
/// while let Some(edge) = reader.next_edge() {
///     edge.unwrap();
///     count += 1;
/// }
/// assert_eq!(count, 2);
/// ```
#[derive(Debug)]
pub struct TextEdgeReader<R> {
    reader: BufReader<R>,
    line_buffer: String,
    line_number: usize,
}

impl<R: Read> TextEdgeReader<R> {
    /// Creates a reader over any byte stream of edge-list text.
    pub fn new(inner: R) -> Self {
        TextEdgeReader {
            reader: BufReader::new(inner),
            line_buffer: String::new(),
            line_number: 0,
        }
    }
}

impl TextEdgeReader<File> {
    /// Opens an edge-list file for streaming.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Io`](crate::StreamError::Io) when the file
    /// cannot be opened.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Ok(TextEdgeReader::new(File::open(path)?))
    }
}

impl<R: Read> EdgeSource for TextEdgeReader<R> {
    fn next_edge(&mut self) -> Option<Result<Edge>> {
        loop {
            self.line_buffer.clear();
            match self.reader.read_line(&mut self.line_buffer) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(err) => return Some(Err(err.into())),
            }
            self.line_number += 1;
            match parse_edge_line(&self.line_buffer, self.line_number) {
                Ok(Some((src, dst))) => {
                    return Some(
                        Edge::try_from_raw(src, dst).ok_or_else(|| StreamError::Parse {
                            line: self.line_number,
                            content: self.line_buffer.trim().to_string(),
                        }),
                    )
                }
                Ok(None) => continue,
                Err(err) => return Some(Err(err.into())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(text: &str) -> Result<Vec<Edge>> {
        let mut reader = TextEdgeReader::new(text.as_bytes());
        let mut edges = Vec::new();
        while let Some(edge) = reader.next_edge() {
            edges.push(edge?);
        }
        Ok(edges)
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let edges = collect("# header\n\n% note\n0 1\n\n1\t2\n").unwrap();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], Edge::from((0u64, 1u64)));
        assert_eq!(edges[1], Edge::from((1u64, 2u64)));
    }

    #[test]
    fn malformed_lines_report_physical_line_numbers() {
        let err = collect("# one\n0 1\n\nbroken\n").unwrap_err();
        match err {
            StreamError::Parse { line, content } => {
                assert_eq!(line, 4);
                assert_eq!(content, "broken");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ids_past_the_32_bit_range_are_parse_errors() {
        let edges = collect("0 4294967295\n").unwrap();
        assert_eq!(edges[0].dst.raw(), u64::from(u32::MAX));
        match collect("0 1\n4294967296 2\n").unwrap_err() {
            StreamError::Parse { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "4294967296 2");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn agrees_with_the_batch_reader() {
        let text = "# c\n3 1\n0 2\n% c\n2 1\n";
        let streamed = collect(text).unwrap();
        let batch = ebv_graph::io::read_edge_list(
            text.as_bytes(),
            ebv_graph::io::EdgeListOptions::default(),
        )
        .unwrap();
        assert_eq!(streamed, batch.edges());
    }

    #[test]
    fn empty_input_is_an_empty_stream() {
        assert_eq!(collect("").unwrap(), Vec::new());
        assert_eq!(collect("# only comments\n\n").unwrap(), Vec::new());
    }
}
