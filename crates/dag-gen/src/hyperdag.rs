//! The hyperDAG text format of the paper's computational DAG database.
//!
//! The database stores DAGs as hypergraphs: every non-sink node `v` induces a
//! hyperedge containing `v` and all of its direct successors (the consumers of
//! its output value).  This emphasises that a value only has to be sent once
//! per target processor.  For scheduling, the hyperDAG is converted back into
//! an ordinary DAG — the formats are informationally equivalent.
//!
//! Text layout (lines starting with `%` are comments):
//!
//! ```text
//! % optional comments
//! <num_hyperedges> <num_nodes> <num_pins>
//! <hyperedge_index> <node_index>        (one line per pin)
//! ...
//! <node_index> <work_weight> <comm_weight>   (one line per node)
//! ```
//!
//! Hyperedge `h` is rooted at a node; by convention its first listed pin is
//! the source node whose value the hyperedge represents.
//!
//! ## Grammar
//!
//! Lines end in `\n` or `\r\n`.  Numbers are ASCII digits with an optional
//! leading `+` ([`bsp_model::decimal`]), separated by ASCII blanks (space,
//! tab, `\r`, vertical tab, form feed); blank lines and `%` comment lines may
//! appear anywhere and a comment may hold any UTF-8.  A non-ASCII byte
//! anywhere else is [`HyperDagError::Malformed`] — the parser scans bytes, so
//! Unicode blanks such as U+00A0 are not separators.
//!
//! ## Cost and allocation bounds
//!
//! [`read_hyperdag`] is one pass over `text.as_bytes()`: no line or token is
//! materialized, a second look at a line happens only to name an error.  It
//! allocates a fixed number of buffers whatever the size of the DAG — one
//! source slot per hyperedge, the edge list, the two weight vectors, and the
//! CSR arrays of [`Dag::from_edges`] — and each is sized from the header only
//! after the header has been held against the input's length: a data line
//! takes at least two bytes, so `pins + nodes` beyond half the remaining
//! bytes is rejected before anything is allocated, and every buffer is
//! `O(text.len())`.  [`write_hyperdag`] reserves its output once from the
//! node and pin counts and pushes decimals into it without `fmt`.

use bsp_model::decimal::{is_blank, parse_u64, push_line, push_u64, scan_u64};
use bsp_model::{Dag, DagError, NodeId};

/// Errors when parsing the hyperDAG text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HyperDagError {
    /// The header or a data line had the wrong number of fields.
    Malformed { line: usize, reason: String },
    /// A numeric field failed to parse.
    Number { line: usize },
    /// The resulting graph is not a DAG.
    Dag(DagError),
}

impl std::fmt::Display for HyperDagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HyperDagError::Malformed { line, reason } => {
                write!(f, "malformed hyperDAG file at line {line}: {reason}")
            }
            HyperDagError::Number { line } => write!(f, "invalid number at line {line}"),
            HyperDagError::Dag(e) => write!(f, "hyperDAG does not describe a DAG: {e}"),
        }
    }
}

impl std::error::Error for HyperDagError {}

impl From<DagError> for HyperDagError {
    fn from(e: DagError) -> Self {
        HyperDagError::Dag(e)
    }
}

/// `(hyperedges, pins)` of `dag`'s hyperDAG form: one hyperedge per non-sink
/// node, holding the node and its successors.
fn hyperedge_counts(dag: &Dag) -> (usize, usize) {
    (0..dag.n())
        .map(|v| dag.out_degree(v))
        .filter(|&d| d > 0)
        .fold((0, 0), |(he, pins), d| (he + 1, pins + 1 + d))
}

/// Number of lines [`append_hyperdag`] writes for `dag` (what a `DAG <n>`
/// wire header must announce).
pub fn hyperdag_line_count(dag: &Dag) -> usize {
    2 + hyperedge_counts(dag).1 + dag.n()
}

/// Serializes a DAG into the hyperDAG text format.
pub fn write_hyperdag(dag: &Dag) -> String {
    let mut out = Vec::new();
    append_hyperdag(&mut out, dag);
    String::from_utf8(out).expect("the hyperDAG encoder writes ASCII only")
}

/// Appends `dag` in the hyperDAG text format to `out`, every line
/// newline-terminated.
pub fn append_hyperdag(out: &mut Vec<u8>, dag: &Dag) {
    let n = dag.n();
    let (hyperedges, num_pins) = hyperedge_counts(dag);
    let digits = n.max(1).ilog10() as usize + 1;
    out.reserve(64 + num_pins * (2 * digits + 2) + n * (digits + 8));
    out.extend_from_slice(b"% hyperDAG export: ");
    push_u64(out, n as u64);
    out.extend_from_slice(b" nodes, ");
    push_u64(out, hyperedges as u64);
    out.extend_from_slice(b" hyperedges\n");
    push_line(out, [hyperedges as u64, n as u64, num_pins as u64]);
    let mut h = 0u64;
    for v in 0..n {
        let successors = dag.successors(v);
        if successors.len() == 0 {
            continue;
        }
        push_line(out, [h, v as u64]);
        for w in successors {
            push_line(out, [h, w as u64]);
        }
        h += 1;
    }
    for v in 0..n {
        push_line(out, [v as u64, dag.work(v), dag.comm(v)]);
    }
}

const HEADER_SHAPE: &str = "header must be `<hyperedges> <nodes> <pins>`";
const PIN_SHAPE: &str = "pin line must be `<hyperedge> <node>`";
const NODE_SHAPE: &str = "node line must be `<node> <work> <comm>`";

/// What is left of the text, and the 1-based number of the line it starts on.
#[derive(Clone)]
struct Cursor<'a> {
    rest: &'a [u8],
    line: usize,
}

impl Cursor<'_> {
    /// Skips blanks on the current line (its `\n` is not one).
    #[inline]
    fn skip_blanks(&mut self) {
        while let Some((&byte, tail)) = self.rest.split_first() {
            if !is_blank(byte) {
                break;
            }
            self.rest = tail;
        }
    }

    /// Moves past the end of the current line.
    fn end_line(&mut self) {
        match self.rest.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                self.rest = &self.rest[newline + 1..];
                self.line += 1;
            }
            None => self.rest = &[],
        }
    }

    /// Moves to the first token of the next data line, over blank lines and
    /// `%` comments; `false` at the end of the text.
    fn next_data_line(&mut self) -> bool {
        loop {
            self.skip_blanks();
            match self.rest.first() {
                None => return false,
                Some(b'\n' | b'%') => self.end_line(),
                Some(_) => return true,
            }
        }
    }

    /// Data lines from the cursor to the end of the text.  Only error paths
    /// count lines; a well-formed file is never looked at twice.
    fn data_lines(&self) -> usize {
        let mut rest = self.clone();
        let mut count = 0;
        while rest.next_data_line() {
            count += 1;
            rest.end_line();
        }
        count
    }

    /// Reads the data line at the cursor as exactly `K` numbers and moves
    /// past it; `None`, without moving, if it is anything else.
    #[inline]
    fn numbers<const K: usize>(&mut self) -> Option<[u64; K]> {
        let mut cur = self.clone();
        let mut fields = [0u64; K];
        for field in &mut fields {
            cur.skip_blanks();
            // A line that ends early has no number here.
            let (value, len) = scan_u64(cur.rest)?;
            cur.rest = &cur.rest[len..];
            if cur
                .rest
                .first()
                .is_some_and(|&b| b != b'\n' && !is_blank(b))
            {
                return None;
            }
            *field = value;
        }
        cur.skip_blanks();
        match cur.rest.split_first() {
            None => {}
            Some((b'\n', tail)) => {
                cur.rest = tail;
                cur.line += 1;
            }
            Some(_) => return None,
        }
        *self = cur;
        Some(fields)
    }

    /// Reads the data line at the cursor as a record of `K` numbers.
    /// `check(i, fields)` may reject the record once fields `0..=i` are
    /// known; errors come in the order a field-by-field reader would find
    /// them (field count, then per field: number, then `check`).
    #[inline]
    fn record<const K: usize>(
        &mut self,
        shape: &str,
        check: impl Fn(usize, &[u64; K]) -> Option<String>,
    ) -> Result<[u64; K], HyperDagError> {
        let line = self.line;
        match self.numbers::<K>() {
            Some(fields) => match (0..K).find_map(|i| check(i, &fields)) {
                None => Ok(fields),
                Some(reason) => Err(HyperDagError::Malformed { line, reason }),
            },
            None => Err(self.diagnose(shape, check)),
        }
    }

    /// The error of the line at the cursor, which [`Cursor::numbers`] could
    /// not read.
    #[cold]
    fn diagnose<const K: usize>(
        &self,
        shape: &str,
        check: impl Fn(usize, &[u64; K]) -> Option<String>,
    ) -> HyperDagError {
        let line = self.line;
        let malformed = |reason: String| HyperDagError::Malformed { line, reason };
        let end = self.rest.iter().position(|&b| b == b'\n');
        let text = &self.rest[..end.unwrap_or(self.rest.len())];
        if !text.is_ascii() {
            return malformed("non-ASCII byte outside a comment".into());
        }
        let mut tokens = text.split(|&b| is_blank(b)).filter(|t| !t.is_empty());
        let mut raw = [&text[..0]; K];
        for slot in &mut raw {
            match tokens.next() {
                Some(token) => *slot = token,
                None => return malformed(shape.into()),
            }
        }
        if tokens.next().is_some() {
            return malformed(shape.into());
        }
        let mut fields = [0u64; K];
        for (i, token) in raw.iter().enumerate() {
            match parse_u64(token) {
                Some(value) => fields[i] = value,
                None => return HyperDagError::Number { line },
            }
            if let Some(reason) = check(i, &fields) {
                return malformed(reason);
            }
        }
        malformed(shape.into())
    }
}

/// Marks a hyperedge whose source pin has not been read yet.
const NO_SOURCE: NodeId = NodeId::MAX;

/// Parses the hyperDAG text format back into a DAG.
///
/// The parser never panics and never trusts the header: declared hyperedge,
/// node and pin counts are checked against the amount of data actually
/// present *before* any allocation is sized from them, so a malformed (or
/// hostile) header is reported as [`HyperDagError::Malformed`] instead of
/// attempting a multi-gigabyte allocation.  This is the function the
/// `bsp_serve` service boundary parses untrusted request payloads with.
pub fn read_hyperdag(text: &str) -> Result<Dag, HyperDagError> {
    let mut cur = Cursor {
        rest: text.as_bytes(),
        line: 1,
    };
    if !cur.next_data_line() {
        return Err(HyperDagError::Malformed {
            line: 0,
            reason: "empty file".into(),
        });
    }
    let header_line = cur.line;
    let [he, nodes, pins] = cur.record::<3>(HEADER_SHAPE, |_, _| None)?;
    let (he, nodes, pins) = (he as usize, nodes as usize, pins as usize);

    // One line per pin plus one line per node must fit in the input, and
    // every hyperedge needs at least one pin.  A data line is at least one
    // byte and its newline, so the first test needs no line count when the
    // header is far off — and it is what makes every allocation below
    // proportional to the input size, whatever the header claims.  A header
    // that passes it is held against the real count as soon as a line goes
    // wrong (`too_short`), which a file with too few lines always does.
    let declared = pins.saturating_add(nodes);
    let too_short = |at: &Cursor, read: usize| {
        let body_lines = read + at.data_lines();
        (declared > body_lines).then(|| HyperDagError::Malformed {
            line: header_line,
            reason: format!(
                "header declares {pins} pins + {nodes} nodes but only {body_lines} data lines follow"
            ),
        })
    };
    if declared > cur.rest.len().div_ceil(2) {
        if let Some(err) = too_short(&cur, 0) {
            return Err(err);
        }
    }
    if he > pins {
        return Err(HyperDagError::Malformed {
            line: header_line,
            reason: format!("header declares {he} hyperedges but only {pins} pins"),
        });
    }

    // Pins.  The first pin of a hyperedge is its source; every later one is
    // an edge out of it, wherever in the pin list it comes.
    let mut source = vec![NO_SOURCE; he];
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(pins - he);
    let mut increasing = true;
    for read in 0..pins {
        let more = cur.next_data_line();
        let at = cur.clone();
        let pin = if more {
            cur.record::<2>(PIN_SHAPE, |i, &[h, v]| {
                (i == 1 && (h >= he as u64 || v >= nodes as u64))
                    .then(|| format!("pin ({h}, {v}) out of range"))
            })
        } else {
            Err(HyperDagError::Malformed {
                line: header_line,
                reason: "fewer pin lines than declared".into(),
            })
        };
        let [h, v] = pin.map_err(|err| too_short(&at, read).unwrap_or(err))?;
        let (h, v) = (h as usize, v as usize);
        let src = source[h];
        if src == NO_SOURCE {
            source[h] = v;
        } else if src != v {
            increasing &= edges.last().is_none_or(|&last| last < (src, v));
            edges.push((src, v));
        }
    }
    drop(source);

    // Node weights.
    let mut work = vec![1u64; nodes];
    let mut comm = vec![1u64; nodes];
    for read in 0..nodes {
        let more = cur.next_data_line();
        let at = cur.clone();
        let node = if more {
            cur.record::<3>(NODE_SHAPE, |i, &[v, _, _]| {
                (i == 0 && v >= nodes as u64).then(|| format!("node {v} out of range"))
            })
        } else {
            Err(HyperDagError::Malformed {
                line: header_line,
                reason: "fewer node lines than declared".into(),
            })
        };
        let [v, w, c] = node.map_err(|err| too_short(&at, pins + read).unwrap_or(err))?;
        work[v as usize] = w;
        comm[v as usize] = c;
    }

    if !increasing {
        edges.sort_unstable();
        edges.dedup();
    }
    Ok(Dag::from_edges(nodes, &edges, work, comm)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fine::{spmv, SpmvConfig};

    #[test]
    fn roundtrip_preserves_structure_and_weights() {
        let dag = spmv(&SpmvConfig {
            n: 12,
            density: 0.25,
            seed: 11,
        });
        let text = write_hyperdag(&dag);
        let back = read_hyperdag(&text).unwrap();
        // The format groups edges by source, so adjacency-list order may
        // differ; compare the canonical structure instead of `Dag` equality.
        assert_eq!(back.n(), dag.n());
        assert_eq!(back.work_weights(), dag.work_weights());
        assert_eq!(back.comm_weights(), dag.comm_weights());
        let canon = |d: &Dag| {
            let mut e: Vec<_> = d.edges().collect();
            e.sort_unstable();
            e
        };
        assert_eq!(canon(&back), canon(&dag));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "% comment\n\n1 2 2\n% another\n0 0\n0 1\n0 3 4\n1 5 6\n";
        let dag = read_hyperdag(text).unwrap();
        assert_eq!(dag.n(), 2);
        assert_eq!(dag.num_edges(), 1);
        assert_eq!(dag.work(0), 3);
        assert_eq!(dag.comm(1), 6);
    }

    #[test]
    fn malformed_header_is_rejected() {
        assert!(matches!(
            read_hyperdag("1 2\n"),
            Err(HyperDagError::Malformed { .. })
        ));
    }

    #[test]
    fn out_of_range_pin_is_rejected() {
        let text = "1 2 2\n0 0\n0 7\n0 1 1\n1 1 1\n";
        assert!(matches!(
            read_hyperdag(text),
            Err(HyperDagError::Malformed { .. })
        ));
    }

    #[test]
    fn hostile_header_counts_are_rejected_before_allocation() {
        // Declares ~10^18 hyperedges/nodes/pins with a four-line body; the
        // parser must reject the header instead of sizing buffers from it.
        let huge = u64::MAX / 4;
        let text = format!("{huge} {huge} {huge}\n0 0\n0 1\n0 1 1\n1 1 1\n");
        assert!(matches!(
            read_hyperdag(&text),
            Err(HyperDagError::Malformed { .. })
        ));
        // More hyperedges than pins is equally malformed (a hyperedge needs a
        // source pin), even when the counts are small.
        assert!(matches!(
            read_hyperdag("3 2 2\n0 0\n0 1\n0 1 1\n1 1 1\n"),
            Err(HyperDagError::Malformed { .. })
        ));
    }

    #[test]
    fn cyclic_hyperdag_is_rejected() {
        // Two hyperedges creating 0 -> 1 and 1 -> 0.
        let text = "2 2 4\n0 0\n0 1\n1 1\n1 0\n0 1 1\n1 1 1\n";
        assert!(matches!(read_hyperdag(text), Err(HyperDagError::Dag(_))));
    }
}
