//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer; nothing is added inside the program under test.  A span is
//! `(name, start, end, parent, id)`: `id` is the row or request the span
//! belongs to, `parent` the span that caused it.  Spans stay in memory and
//! are written out once, when the run ends.  A disabled recorder reads no
//! clock and stores nothing, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// Cap on stored spans per recorder; later spans are counted, not kept.
const SPAN_CAP: usize = 400_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
}

/// One thread's spans.  Recorders of several threads share an origin and
/// are merged when the run ends.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
    /// Nanoseconds spent inside this recorder's own methods.
    busy_ns: u64,
}

/// Handle of an open span (`None` when the recorder is disabled or full).
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

impl Open {
    pub fn root() -> Open {
        Open(None)
    }
}

impl Recorder {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
            busy_ns: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the shared origin (0 when disabled: no clock read).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a finished span from explicit times.  Pipelined requests
    /// overlap, so they cannot use the `begin`/`end` stack; `parent` is
    /// `Open::root()` for a request's own span.
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Open,
        start_ns: u64,
        end_ns: u64,
    ) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return Open(None);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: parent.0.unwrap_or(ROOT),
            id,
        });
        Open(Some(index))
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return Open(None);
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(index);
        self.busy_ns += self.now_ns() - start_ns;
        Open(Some(index))
    }

    /// Closes `span` (and anything left open beneath it).
    pub fn end(&mut self, span: Open) {
        let Some(index) = span.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == index {
                break;
            }
        }
        self.busy_ns += self.now_ns() - end_ns;
    }

    /// Records a finished child of `parent` from a duration the program
    /// reported itself (a solver phase, a server-side span): it starts
    /// `offset_ns` after the parent and lasts `dur_ns`.  Returns the handle
    /// so grandchildren can hang beneath it.
    pub fn child(&mut self, parent: Open, name: &'static str, offset_ns: u64, dur_ns: u64) -> Open {
        let Some(parent) = parent.0 else {
            return Open(None);
        };
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return Open(None);
        }
        let entered = self.now_ns();
        let p = self.spans[parent as usize];
        let start_ns = p.start_ns + offset_ns;
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            id: p.id,
        });
        self.busy_ns += self.now_ns() - entered;
        Open(Some(index))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Seconds spent inside `begin`, `end` and `child`: what recording
    /// cost the thread that was being traced.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    /// How many spans called `name` lasted at least `ns`.
    pub fn count_at_least(&self, name: &str, ns: u64) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns - s.start_ns >= ns)
            .count()
    }
}

/// Per-name totals over a set of recorders.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Sums spans by name.  A span's self time is its duration minus the
/// duration of its direct children (children of one parent do not overlap
/// here: they are sequential calls or sequential reported phases).
pub fn totals(recorders: &[Recorder]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for span in &rec.spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, covered) in rec.spans.iter().zip(&child_ns) {
            let dur = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += dur;
            entry.self_ns += dur.saturating_sub(*covered);
        }
    }
    out
}

/// Renders the trace file: the per-name summary, then every span.  Span
/// indices are local to their recorder (`thread`).
pub fn render_json(workload: &str, recorders: &[Recorder]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"workload\": \"{workload}\", \"summary\": {{");
    for (i, (name, t)) in totals(recorders).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    let dropped: u64 = recorders.iter().map(|r| r.dropped).sum();
    let _ = write!(out, "}}, \"dropped_spans\": {dropped}, \"spans\": [");
    let mut first = true;
    for (thread, rec) in recorders.iter().enumerate() {
        for (index, s) in rec.spans.iter().enumerate() {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{sep}{{\"thread\": {thread}, \"index\": {index}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
    }
    out.push_str("\n]}\n");
    out
}
