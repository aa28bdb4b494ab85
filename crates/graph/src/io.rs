//! Reading and writing graphs as whitespace-separated edge lists.
//!
//! The format is compatible with the SNAP dumps the paper uses: one edge per
//! line as `src dst` (or `src\tdst`), with `#`-prefixed comment lines.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::types::GraphKind;
use crate::GraphBuilder;

/// Options controlling how an edge-list file is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeListOptions {
    /// Whether each line is a directed edge or an undirected pair.
    pub kind: GraphKind,
    /// Remap sparse vertex identifiers to a dense range (first-seen order).
    pub remap_ids: bool,
    /// Drop duplicate directed edges.
    pub dedup: bool,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions {
            kind: GraphKind::Directed,
            remap_ids: false,
            dedup: false,
        }
    }
}

/// Parses one line of edge-list text.
///
/// Returns `Ok(None)` for lines that carry no edge — blank lines and `#`- or
/// `%`-prefixed comments — and `Ok(Some((src, dst)))` for well-formed edges
/// (two whitespace-separated integers; extra trailing tokens, such as edge
/// weights in some SNAP dumps, are ignored), or [`GraphError::ParseEdge`]
/// carrying `line_number` and the offending content for malformed lines.
fn parse_edge_line(line: &str, line_number: usize) -> Result<Option<(u64, u64)>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut parts = trimmed.split_whitespace();
    let parse = |token: Option<&str>| -> Option<u64> { token.and_then(|t| t.parse().ok()) };
    match (parse(parts.next()), parse(parts.next())) {
        (Some(src), Some(dst)) => Ok(Some((src, dst))),
        _ => Err(GraphError::ParseEdge {
            line: line_number,
            content: trimmed.to_string(),
        }),
    }
}

/// Parses a graph from any reader producing edge-list text.
///
/// # Errors
///
/// Returns [`GraphError::ParseEdge`] for malformed lines, [`GraphError::Io`]
/// for underlying I/O failures, [`GraphError::EmptyGraph`] when the input
/// has no edges and [`GraphError::VertexOutOfRange`] for an id past
/// [`VertexId::MAX_RAW`](crate::VertexId::MAX_RAW) unless
/// [`EdgeListOptions::remap_ids`] is set.
///
/// # Examples
///
/// ```
/// use ebv_graph::io::{read_edge_list, EdgeListOptions};
///
/// # fn main() -> Result<(), ebv_graph::GraphError> {
/// let text = "# tiny graph\n0 1\n1 2\n";
/// let graph = read_edge_list(text.as_bytes(), EdgeListOptions::default())?;
/// assert_eq!(graph.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
pub fn read_edge_list<R: Read>(reader: R, options: EdgeListOptions) -> Result<Graph> {
    let buf = BufReader::new(reader);
    let mut builder = GraphBuilder::new(options.kind);
    builder.remap_ids(options.remap_ids).dedup(options.dedup);
    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        if let Some((src, dst)) = parse_edge_line(&line, idx + 1)? {
            builder.add_edge_ids(src, dst);
        }
    }
    builder.build()
}

/// Writes a graph's directed edge list to any writer, one `src dst` pair per
/// line, preceded by a comment header with the vertex and edge counts.
///
/// # Errors
///
/// Returns [`GraphError::Io`] when writing fails.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(
        out,
        "# ebv-graph edge list: {} vertices, {} directed edges ({})",
        graph.num_vertices(),
        graph.num_edges(),
        graph.kind()
    )?;
    for e in graph.edges() {
        writeln!(out, "{} {}", e.src.raw(), e.dst.raw())?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_simple_edge_list() {
        let text = "# comment\n% another comment\n0 1\n1\t2\n\n2 0\n";
        let g = read_edge_list(text.as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn undirected_option_doubles_edges() {
        let text = "0 1\n1 2\n";
        let opts = EdgeListOptions {
            kind: GraphKind::Undirected,
            ..EdgeListOptions::default()
        };
        let g = read_edge_list(text.as_bytes(), opts).unwrap();
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn remap_option_densifies() {
        let text = "100 200\n200 300\n";
        let opts = EdgeListOptions {
            remap_ids: true,
            ..EdgeListOptions::default()
        };
        let g = read_edge_list(text.as_bytes(), opts).unwrap();
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn ids_past_the_32_bit_range_need_the_remap() {
        let text = "0 1\n1 4294967296\n";
        let err = read_edge_list(text.as_bytes(), EdgeListOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::VertexOutOfRange {
                    vertex: 4_294_967_296,
                    ..
                }
            ),
            "{err}"
        );
        let opts = EdgeListOptions {
            remap_ids: true,
            ..EdgeListOptions::default()
        };
        let g = read_edge_list(text.as_bytes(), opts).unwrap();
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let text = "0 1\nnot an edge\n";
        let err = read_edge_list(text.as_bytes(), EdgeListOptions::default()).unwrap_err();
        match err {
            GraphError::ParseEdge { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn line_numbers_count_comments_and_blanks() {
        // The malformed line is physically line 5; skipped lines still count.
        let text = "# header\n\n% other comment\n0 1\nbroken line\n";
        let err = read_edge_list(text.as_bytes(), EdgeListOptions::default()).unwrap_err();
        match err {
            GraphError::ParseEdge { line, content } => {
                assert_eq!(line, 5);
                assert_eq!(content, "broken line");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_edge_line_classifies_lines() {
        assert_eq!(parse_edge_line("1 2", 1).unwrap(), Some((1, 2)));
        assert_eq!(parse_edge_line("1\t2\textra 9", 1).unwrap(), Some((1, 2)));
        assert_eq!(parse_edge_line("   ", 1).unwrap(), None);
        assert_eq!(parse_edge_line("# c", 1).unwrap(), None);
        assert_eq!(parse_edge_line("% c", 1).unwrap(), None);
        assert!(parse_edge_line("only_one", 7).is_err());
        assert!(parse_edge_line("1", 7).is_err());
        assert!(parse_edge_line("-1 2", 7).is_err());
    }

    #[test]
    fn roundtrip_through_memory() {
        let original = Graph::from_edges(vec![(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap();
        let mut buffer: Vec<u8> = Vec::new();
        write_edge_list(&original, &mut buffer).unwrap();
        let reread = read_edge_list(buffer.as_slice(), EdgeListOptions::default()).unwrap();
        assert_eq!(reread.num_vertices(), original.num_vertices());
        assert_eq!(reread.num_edges(), original.num_edges());
        assert_eq!(reread.edges(), original.edges());
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = read_edge_list("# nothing\n".as_bytes(), EdgeListOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::EmptyGraph));
    }
}
