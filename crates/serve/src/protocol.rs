//! The line-delimited text protocol of the scheduling service.
//!
//! Everything on the wire is UTF-8 text, one token-separated record per
//! line — the same design choice as the hyperDAG database format, which is
//! reused verbatim for DAG payloads (see [`dag_gen::hyperdag`]).  A request:
//!
//! ```text
//! REQ <id>
//! MACHINE uniform <p> <g> <l>            (or: tree <p> <g> <l> <delta>)
//! OPTION deadline_ms <n>                 (optional; 0 = no deadline)
//! OPTION mode <default|fast|heuristics>  (optional; every mode is the same
//!                                         solve; `multilevel` is accepted too)
//! OPTION cache <on|off>                  (optional; default on)
//! OPTION trace <hex>                     (optional; router-assigned trace id)
//! DAG <num_lines>
//! <num_lines of hyperDAG text>
//! END
//! ```
//!
//! and the matching response:
//!
//! ```text
//! OK <id> cost <c> supersteps <s> source <cold|exact> micros <t> [trace <hex>]
//! PROC <pi(0)> <pi(1)> ... <pi(n-1)>
//! STEP <tau(0)> <tau(1)> ... <tau(n-1)>
//! COMM <k>
//! <node> <from> <to> <step>              (k lines)
//! END
//! ```
//!
//! Errors come back as a single `ERR <id> <kind> <message...>` line.  The
//! auxiliary verbs are `PING`/`PONG` and the observability verbs, whose
//! replies share one frame (a header declaring a line count, the lines,
//! `END`) and one reader:
//!
//! * `METRICS` — Prometheus-style text exposition, framed as
//!   `METRICS <n_lines>` + the lines + `END` (see [`crate::obs`]): the only
//!   way numbers leave a server or a router (the README maps every key of
//!   the former `STATS` line to its series).
//! * `TRACE <hex>` — one finished request's span tree:
//!   `TRACE <hex> source <src> shard <s> total_us <t> spans <n>` followed by
//!   `SPAN <depth> <start_us> <dur_us> <name>` lines and `END`; an unknown
//!   id answers `ERR 0 unknown-trace ...`.
//! * `STATS SLOW` — the slow-request journal: `SLOW <n>` +
//!   `TRACESUM <hex> <source> <shard> <total_us>` lines + `END` (fetch full
//!   span trees via `TRACE`).
//!
//! The content-addressed replay is `REQ <id>` + `FP <full_hex>
//! [<structure_hex>]` + `END`: the optional second token is the request's
//! 64-bit structure key, which the router's placement policy uses to route
//! the replay to the shard owning the structural family.  Parsers ignore
//! tokens beyond the ones they know, so the one-token legacy form and
//! new-form requests against old servers both keep working.
//!
//! Malformed input of any shape — bad verbs, hostile header
//! counts, cyclic DAGs, out-of-range machine parameters — is answered with a
//! typed [`ServeError`], never a panic: the parsing layer is the service's
//! trust boundary.
//!
//! ## Grammar
//!
//! Numbers are ASCII digits with an optional leading `+`
//! ([`bsp_model::decimal`]); tokens are separated by blanks or tabs; lines
//! end in `\n` or `\r\n`.  Inside a `DAG` block the hyperDAG grammar applies
//! (blank lines and `%` comments anywhere, non-ASCII text only in comments).
//!
//! ## Readers, cost and allocation bounds
//!
//! Each wire direction has one reader.  Every byte of a message is looked
//! at once, and no reader copies a line or a token just to parse it.
//!
//! **Requests** (the trust boundary).  Nothing is sized from a number the
//! peer declares.  A line is read into a buffer that stops growing at
//! `MAX_REQUEST_LINE_BYTES` and split by one token cursor that borrows it
//! (words, decimal and hex numbers, `<key> <value>` pairs; every error names
//! the line).  A `DAG <n>` block (`n` ≤ 4 M lines) is copied out of the
//! reader's buffer a buffer-full at a time into a text that grows only with
//! the bytes that have arrived — one ASCII test per buffer-full and one
//! UTF-8 check per block instead of one per line, the line cap and the
//! early-`END` check kept per line — and [`read_hyperdag`] bounds its own
//! buffers by that text's length.  [`read_incoming_verbatim`] keeps one
//! copy of the message's bytes so a proxy can forward a request as it was
//! received ([`reframe_request`]) instead of encoding it again; it and the
//! two request encoders write one `REQ` … `END` envelope.
//!
//! **Replies** (from a trusted server).  One walker reads every frame: the
//! header verb decides the body — `PROC`, `STEP`, `COMM <k>` and k lines for
//! `OK`, the line count a `TRACE`, `METRICS` or `SLOW` header declares
//! (capped per verb), nothing for `ERR` — and one line buffer serves the
//! whole frame.  Each body line is handed to the reader as bytes:
//! [`read_reply`] parses `PROC` / `STEP` from them into vectors sized from
//! the line being parsed and grows `Γ` one `COMM` line at a time,
//! [`read_raw_reply`] copies them verbatim for the router after reading only
//! the header, so the router accepts exactly the frames the client does, and
//! the control readers likewise grow only with the lines that arrive: no
//! reply reader sizes anything from a count the header declares.  The
//! encoders push decimals straight into the output buffer without `fmt`.

use bsp_model::decimal::{is_blank, push_line, push_u64, scan_u64, with_bytes};
use bsp_model::{Assignment, BspSchedule, CommSchedule, CommStep, Dag, Machine, NumaTopology};
use dag_gen::hyperdag::{append_hyperdag, hyperdag_line_count, read_hyperdag, HyperDagError};
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, Read, Write as _};
use std::str::FromStr;
use std::time::Duration;

/// How the service solved (or retrieved) a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSource {
    /// Full pipeline run; the request missed the cache (or bypassed it).
    Cold,
    /// Exact cache hit: the identical request was answered before.
    CacheExact,
    /// A wire value that still parses but that no server sends: a
    /// re-weighted request is a cold solve.  The frozen `benchmark/` matches
    /// on it; delete with ROADMAP item 1 (benchmark v2).
    #[doc(hidden)]
    CacheWarm,
}

impl ScheduleSource {
    /// Wire token for this source.
    pub fn as_str(&self) -> &'static str {
        match self {
            ScheduleSource::Cold => "cold",
            ScheduleSource::CacheExact => "exact",
            ScheduleSource::CacheWarm => "warm",
        }
    }

    fn parse(token: &str) -> Option<Self> {
        use ScheduleSource::*;
        [Cold, CacheExact, CacheWarm]
            .into_iter()
            .find(|source| source.as_str() == token)
    }
}

/// A request's `OPTION mode` token, read by no solve: there is one pipeline,
/// every search in it is bounded by a count, and the request's deadline is
/// its only clock.  The wire keeps the three tokens so that clients sending
/// them are understood; the frozen `benchmark/` sends `heuristics`.  Delete
/// with ROADMAP item 1 (benchmark v2).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    Default,
    Fast,
    #[default]
    HeuristicsOnly,
}

impl Mode {
    /// Wire token for this mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            Mode::Default => "default",
            Mode::Fast => "fast",
            Mode::HeuristicsOnly => "heuristics",
        }
    }

    fn parse(tok: &str) -> Option<Self> {
        match tok {
            "default" => Some(Mode::Default),
            "fast" => Some(Mode::Fast),
            // `multilevel` named the coarsen–solve–refine scheduler, which
            // was the pipeline plus members that never won; old clients may
            // still send it.
            "heuristics" | "multilevel" => Some(Mode::HeuristicsOnly),
            _ => None,
        }
    }
}

/// Per-request options (everything between `REQ` and `DAG`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Wall-clock budget for this request; the service returns its
    /// best-so-far valid schedule once it expires.  `None` = unbounded.
    pub deadline: Option<Duration>,
    /// The `OPTION mode` token, read by no solve (`Mode`).
    #[doc(hidden)]
    pub mode: Mode,
    /// Whether the schedule cache may be consulted and populated.
    pub use_cache: bool,
    /// Trace id this request runs under (`None` = untraced).  Assigned by
    /// the router (or the server when unsharded) and echoed in the `OK`
    /// header so clients can fetch the span tree with `TRACE <hex>`.
    pub trace: Option<u64>,
}

impl RequestOptions {
    /// Options with the cache enabled and no deadline (the wire defaults).
    pub fn new() -> Self {
        RequestOptions {
            deadline: None,
            mode: Mode::default(),
            use_cache: true,
            trace: None,
        }
    }

    /// Sets the deadline and returns the options.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the `OPTION mode` token, which no solve reads, and returns the
    /// options.
    #[doc(hidden)]
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables or disables cache use and returns the options.
    pub fn with_cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// Sets the trace id and returns the options.
    pub fn with_trace(mut self, trace_id: u64) -> Self {
        self.trace = Some(trace_id);
        self
    }
}

/// A parsed scheduling request.
#[derive(Debug, Clone)]
pub struct ScheduleRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The DAG to schedule.
    pub dag: Dag,
    /// The machine to schedule for.
    pub machine: Machine,
    /// Per-request options.
    pub options: RequestOptions,
}

/// A parsed scheduling response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleResponse {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// Cost of the returned schedule on the request's DAG and machine.
    pub cost: u64,
    /// Number of supersteps of the returned schedule.
    pub supersteps: usize,
    /// Where the schedule came from.
    pub source: ScheduleSource,
    /// Server-side handling time in microseconds (queueing excluded).
    pub micros: u64,
    /// Trace id the request ran under (0 = untraced); fetch the span tree
    /// with the `TRACE` verb.
    pub trace_id: u64,
    /// The schedule itself.
    pub schedule: BspSchedule,
}

/// Every non-`OK` outcome at the service boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A protocol line did not parse.
    Malformed { line: String, reason: String },
    /// The embedded hyperDAG payload was rejected.
    Dag(HyperDagError),
    /// The machine description was rejected (`p = 0`, tree size not a power
    /// of two, ...).
    Machine(String),
    /// A fingerprint-only request named a fingerprint the server does not
    /// (or no longer does) hold; the client must resend the full payload.
    UnknownFingerprint,
    /// A `TRACE <id>` query named a trace that has fallen out of (or never
    /// entered) the bounded trace journal.
    UnknownTrace,
    /// The request was rejected because the server's admission queue is full.
    Busy,
    /// The server is shutting down.
    ShuttingDown,
    /// The peer closed the connection mid-request.
    UnexpectedEof,
    /// Transport failure.
    Io(String),
    /// The solve panicked; the worker answered this request and lives on.
    Internal(String),
    /// The server answered `ERR` with a kind the client does not know.
    Remote { kind: String, message: String },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Malformed { line, reason } => {
                write!(f, "malformed protocol line {line:?}: {reason}")
            }
            ServeError::Dag(e) => write!(f, "bad DAG payload: {e}"),
            ServeError::Machine(msg) => write!(f, "bad machine description: {msg}"),
            ServeError::UnknownFingerprint => {
                write!(
                    f,
                    "fingerprint not in the schedule cache; resend the full payload"
                )
            }
            ServeError::UnknownTrace => {
                write!(f, "trace id not in the bounded trace journal")
            }
            ServeError::Busy => write!(f, "server admission queue is full"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::UnexpectedEof => write!(f, "connection closed mid-request"),
            ServeError::Io(msg) => write!(f, "transport error: {msg}"),
            ServeError::Internal(msg) => write!(f, "solver panicked: {msg}"),
            ServeError::Remote { kind, message } => write!(f, "server error [{kind}]: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<HyperDagError> for ServeError {
    fn from(e: HyperDagError) -> Self {
        ServeError::Dag(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl ServeError {
    /// The `<kind>` token of the `ERR` wire line.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Malformed { .. } => "malformed",
            ServeError::Dag(_) => "dag",
            ServeError::Machine(_) => "machine",
            ServeError::UnknownFingerprint => "unknown-fp",
            ServeError::UnknownTrace => "unknown-trace",
            ServeError::Busy => "busy",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::UnexpectedEof => "eof",
            ServeError::Io(_) => "io",
            ServeError::Internal(_) => "internal",
            ServeError::Remote { .. } => "remote",
        }
    }
}

/// One incoming protocol message, as seen by the server.
#[derive(Debug, Clone)]
pub enum Incoming {
    /// A scheduling request with a full DAG + machine payload.
    Request(Box<ScheduleRequest>),
    /// A content-addressed replay: `REQ <id>` + `FP <hex>` asks for the
    /// cached schedule of a previously submitted request, skipping the DAG
    /// payload entirely (answered with `ERR ... unknown-fp` on a miss).
    FingerprintRequest {
        /// Correlation id.
        id: u64,
        /// The full request key ([`bsp_model::RequestKey::full`]).
        fingerprint: u128,
        /// The structure key ([`bsp_model::RequestKey::structure`]), when
        /// the client sent one — lets the router route the replay to the
        /// structural family's home shard.  `None` on the legacy one-token
        /// wire form.
        structure: Option<u64>,
        /// Trace id the replay runs under (`None` = untraced).
        trace: Option<u64>,
    },
    /// The slow-request journal (`STATS SLOW`).
    SlowStats,
    /// A Prometheus-style metrics scrape (`METRICS`).
    Metrics,
    /// A span-tree query for one finished request (`TRACE <hex>`).
    Trace(u64),
    /// A liveness probe.
    Ping,
}

/// A blank or a line end: what separates the tokens of a message.
fn is_space(byte: &u8) -> bool {
    is_blank(*byte) || *byte == b'\n'
}

fn malformed(line: &str, reason: impl Into<String>) -> ServeError {
    ServeError::Malformed {
        line: line.to_string(),
        reason: reason.into(),
    }
}

/// The whitespace-separated tokens of one text line — a request line, a
/// reply header, a control reply's body line — read front to back.  Every
/// error names the whole line: `missing <what>`, `<what> is not a number`,
/// `<what> is not hex`.
struct Tokens<'a> {
    line: &'a str,
    rest: &'a str,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest.trim_start();
        let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
        self.rest = &rest[end..];
        (end > 0).then_some(&rest[..end])
    }
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Self {
        Tokens { line, rest: line }
    }

    fn malformed(&self, reason: impl Into<String>) -> ServeError {
        malformed(self.line, reason)
    }

    /// What is left of the line, without its leading blanks.
    fn rest(&self) -> &'a str {
        self.rest.trim_start()
    }

    fn word(&mut self, what: &str) -> Result<&'a str, ServeError> {
        self.next()
            .ok_or_else(|| self.malformed(format!("missing {what}")))
    }

    fn number<T: FromStr>(&mut self, what: &str) -> Result<T, ServeError> {
        let token = self.word(what)?;
        self.parse(token, what)
    }

    fn hex<T: TryFrom<u128>>(&mut self, what: &str) -> Result<T, ServeError> {
        let token = self.word(what)?;
        self.parse_hex(token, what)
    }

    fn parse<T: FromStr>(&self, token: &str, what: &str) -> Result<T, ServeError> {
        token
            .parse()
            .map_err(|_| self.malformed(format!("{what} is not a number")))
    }

    /// `token` as a hex number of type `T` (a `u64` or the `u128`
    /// fingerprint); a value `T` does not hold is not hex either.
    fn parse_hex<T: TryFrom<u128>>(&self, token: &str, what: &str) -> Result<T, ServeError> {
        u128::from_str_radix(token, 16)
            .ok()
            .and_then(|value| T::try_from(value).ok())
            .ok_or_else(|| self.malformed(format!("{what} is not hex")))
    }

    /// The next `<key> <value>` pair of a header line (`None` at its end).
    fn pair(&mut self) -> Result<Option<(&'a str, &'a str)>, ServeError> {
        let Some(key) = self.next() else {
            return Ok(None);
        };
        match self.next() {
            Some(value) => Ok(Some((key, value))),
            None => Err(self.malformed(format!("missing value for {key}"))),
        }
    }
}

/// Longest protocol line the *request* parser accepts.  Every legitimate
/// request line (verbs, machine parameters, hyperDAG records) is tiny; the
/// cap keeps a newline-free hostile stream from growing a `String` without
/// bound at the trust boundary.  Response parsing is not capped — `PROC`
/// lines of large schedules are legitimately megabytes, and the response
/// side reads from a trusted server.
const MAX_REQUEST_LINE_BYTES: u64 = 1 << 20;

/// The tokens of the next non-blank line of a request, read into `text`
/// with the request-boundary length cap (`None` at the end of the stream).
fn request_line<'t, R: BufRead>(
    reader: &mut R,
    text: &'t mut String,
) -> Result<Option<Tokens<'t>>, ServeError> {
    text.clear();
    while text.trim().is_empty() {
        text.clear();
        let n = reader
            .by_ref()
            .take(MAX_REQUEST_LINE_BYTES)
            .read_line(text)?;
        if n == 0 {
            return Ok(None);
        }
        if n as u64 == MAX_REQUEST_LINE_BYTES && !text.ends_with('\n') {
            return Err(malformed(
                "",
                format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
            ));
        }
    }
    Ok(Some(Tokens::new(text.trim())))
}

/// The machine of a `MACHINE` line's fields: the wire's kind names over
/// [`Machine::checked`], the typed-error face of the asserting constructors.
pub fn build_machine(
    kind: &str,
    p: u64,
    g: u64,
    l: u64,
    delta: Option<u64>,
) -> Result<Machine, ServeError> {
    let tree_delta = match kind {
        "uniform" => None,
        "tree" => {
            Some(delta.ok_or_else(|| ServeError::Machine("tree machine needs a delta".into()))?)
        }
        other => {
            return Err(ServeError::Machine(format!(
                "unknown machine kind {other:?} (expected uniform|tree)"
            )))
        }
    };
    Machine::checked(p, g, l, tree_delta).map_err(ServeError::Machine)
}

/// Serializes a machine description as its wire line (without `MACHINE `).
pub fn encode_machine(machine: &Machine) -> Result<String, ServeError> {
    match machine.topology() {
        NumaTopology::Uniform => Ok(format!(
            "uniform {} {} {}",
            machine.p(),
            machine.g(),
            machine.latency()
        )),
        NumaTopology::BinaryTree { delta } => Ok(format!(
            "tree {} {} {} {delta}",
            machine.p(),
            machine.g(),
            machine.latency()
        )),
        NumaTopology::Explicit(_) => Err(ServeError::Machine(
            "explicit NUMA matrices are not supported on the wire yet".into(),
        )),
    }
}

/// The machine of a `MACHINE <kind> <p> <g> <l> [<delta>]` line, its verb
/// read.
fn parse_machine(line: &mut Tokens<'_>) -> Result<Machine, ServeError> {
    let kind = line.word("machine kind")?;
    let (p, g, l) = (line.number("P")?, line.number("g")?, line.number("l")?);
    let delta = match line.next() {
        Some(token) => Some(line.parse(token, "delta")?),
        None => None,
    };
    build_machine(kind, p, g, l, delta)
}

/// Writes the envelope every request shares into `out`: `REQ <id>`, the
/// lines `head` writes, `OPTION trace <hex>` when traced, the lines `tail`
/// writes, `END`.
fn write_request(
    out: &mut Vec<u8>,
    id: u64,
    trace: Option<u64>,
    head: impl FnOnce(&mut Vec<u8>),
    tail: impl FnOnce(&mut Vec<u8>),
) {
    out.extend_from_slice(b"REQ ");
    push_u64(out, id);
    out.push(b'\n');
    head(out);
    if let Some(trace_id) = trace {
        let _ = writeln!(out, "OPTION trace {trace_id:x}");
    }
    tail(out);
    out.extend_from_slice(b"END\n");
}

/// Writes a request in wire form into `out` (borrowing its parts, so the
/// client does not clone the DAG).
pub fn encode_request(
    out: &mut String,
    id: u64,
    dag: &Dag,
    machine: &Machine,
    options: &RequestOptions,
) -> Result<(), ServeError> {
    let machine = encode_machine(machine)?;
    let head = |out: &mut Vec<u8>| {
        let _ = writeln!(out, "MACHINE {machine}");
        if let Some(d) = options.deadline {
            // Round up so a sub-millisecond deadline becomes 1 ms rather
            // than the wire's "0 = unbounded".
            let ms = d.as_micros().div_ceil(1000).max(1);
            let _ = writeln!(out, "OPTION deadline_ms {ms}");
        }
        let cache = if options.use_cache { "on" } else { "off" };
        let _ = writeln!(out, "OPTION mode {}", options.mode.as_str());
        let _ = writeln!(out, "OPTION cache {cache}");
    };
    let dag_block = |out: &mut Vec<u8>| {
        out.extend_from_slice(b"DAG ");
        push_u64(out, hyperdag_line_count(dag) as u64);
        out.push(b'\n');
        append_hyperdag(out, dag);
    };
    with_bytes(out, |out| {
        write_request(out, id, options.trace, head, dag_block)
    });
    Ok(())
}

/// Reads the next protocol message from `reader`.  Returns `Ok(None)` on a
/// clean end of stream (peer closed between messages).
pub fn read_incoming<R: BufRead>(reader: &mut R) -> Result<Option<Incoming>, ServeError> {
    let mut text = String::new();
    let Some(mut first) = request_line(reader, &mut text)? else {
        return Ok(None);
    };
    match first.next() {
        Some("STATS") if first.next() == Some("SLOW") => Ok(Some(Incoming::SlowStats)),
        Some("METRICS") => Ok(Some(Incoming::Metrics)),
        Some("TRACE") => Ok(Some(Incoming::Trace(first.hex("trace id")?))),
        Some("PING") => Ok(Some(Incoming::Ping)),
        Some("REQ") => {
            let id = first.number("request id")?;
            read_request_body(reader, id).map(Some)
        }
        _ => Err(first.malformed("expected REQ, STATS SLOW, METRICS, TRACE or PING")),
    }
}

/// A `BufRead` that keeps a copy of every byte read through it.
struct Tee<'a, R> {
    inner: &'a mut R,
    copy: &'a mut Vec<u8>,
}

impl<R: BufRead> Read for Tee<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for Tee<'_, R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amount: usize) {
        // `consume` follows a `fill_buf` that returned at least `amount`
        // bytes, so for `amount > 0` this one returns them without reading.
        if amount > 0 {
            if let Ok(buffered) = self.inner.fill_buf() {
                self.copy
                    .extend_from_slice(&buffered[..amount.min(buffered.len())]);
            }
        }
        self.inner.consume(amount);
    }
}

/// [`read_incoming`], which also leaves the message's bytes in `raw` exactly
/// as they were read (`raw` is cleared first).  A proxy parses a request
/// once — it needs the request key for placement — and forwards what it
/// received ([`reframe_request`]) instead of encoding it again.
pub fn read_incoming_verbatim<R: BufRead>(
    reader: &mut R,
    raw: &mut Vec<u8>,
) -> Result<Option<Incoming>, ServeError> {
    raw.clear();
    read_incoming(&mut Tee {
        inner: reader,
        copy: raw,
    })
}

/// Re-frames a full request captured by [`read_incoming_verbatim`] for
/// forwarding: the `REQ` line carries `id`, every line between it and `END`
/// is kept byte for byte, and `trace`, if given, is appended as the last
/// `OPTION trace` line before `END` (the last one wins).  `raw` must have
/// parsed as [`Incoming::Request`].
pub fn reframe_request(raw: &[u8], id: u64, trace: Option<u64>) -> Vec<u8> {
    // The body starts after the first non-blank line (`REQ <id>`) and stops
    // where the last one (`END`) starts.
    let req = raw.iter().position(|b| !is_space(b)).unwrap_or(raw.len());
    let body_start = raw[req..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(raw.len(), |i| req + i + 1);
    let end = raw.iter().rposition(|b| !is_space(b)).unwrap_or(body_start);
    let body_end = raw[..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(body_start, |i| (i + 1).max(body_start));
    let mut out = Vec::with_capacity(raw.len() + 64);
    let body = |out: &mut Vec<u8>| out.extend_from_slice(&raw[body_start..body_end]);
    write_request(&mut out, id, trace, body, |_| {});
    out
}

/// Parses the lines of a request after its `REQ <id>` line (either a full
/// payload or a fingerprint-only replay).
fn read_request_body<R: BufRead>(reader: &mut R, id: u64) -> Result<Incoming, ServeError> {
    let mut machine: Option<Machine> = None;
    let mut options = RequestOptions::new();
    let mut dag: Option<Dag> = None;
    let mut fingerprint: Option<u128> = None;
    let mut structure: Option<u64> = None;
    let mut text = String::new();
    loop {
        let Some(mut line) = request_line(reader, &mut text)? else {
            return Err(ServeError::UnexpectedEof);
        };
        match line.next() {
            Some("END") => break,
            Some("FP") => {
                fingerprint = Some(line.hex("fingerprint")?);
                // Optional second token: the structure key.  Tokens beyond
                // it are ignored for forward compatibility.
                if let Some(hex) = line.next() {
                    structure = Some(line.parse_hex(hex, "structure key")?);
                }
            }
            Some("MACHINE") => machine = Some(parse_machine(&mut line)?),
            Some("OPTION") => match line.next() {
                Some("deadline_ms") => {
                    let ms = line.number("deadline")?;
                    options.deadline = (ms > 0).then(|| Duration::from_millis(ms));
                }
                Some("mode") => {
                    let mode = Mode::parse(line.word("mode")?);
                    options.mode = mode.ok_or_else(|| line.malformed("unknown mode"))?;
                }
                Some("cache") => {
                    options.use_cache = match line.next() {
                        Some("on") => true,
                        Some("off") => false,
                        _ => return Err(line.malformed("cache must be on|off")),
                    };
                }
                Some("trace") => {
                    let trace_id = line.hex("trace id")?;
                    options.trace = (trace_id != 0).then_some(trace_id);
                }
                _ => return Err(line.malformed("unknown option")),
            },
            Some("DAG") => {
                let n_lines: u64 = line.number("DAG line count")?;
                if n_lines > 4_000_000 {
                    return Err(line.malformed("DAG payload exceeds the service limit"));
                }
                let text = read_dag_block(reader, n_lines as usize)?;
                dag = Some(read_hyperdag(&text)?);
            }
            _ => return Err(line.malformed("unknown request line")),
        }
    }
    if let Some(fingerprint) = fingerprint {
        if machine.is_some() || dag.is_some() {
            return Err(malformed(
                "FP",
                "a fingerprint request must not also carry MACHINE/DAG",
            ));
        }
        return Ok(Incoming::FingerprintRequest {
            id,
            fingerprint,
            structure,
            trace: options.trace,
        });
    }
    let machine = machine.ok_or_else(|| malformed("END", "request is missing MACHINE"))?;
    let dag = dag.ok_or_else(|| malformed("END", "request is missing DAG"))?;
    Ok(Incoming::Request(Box::new(ScheduleRequest {
        id,
        dag,
        machine,
        options,
    })))
}

/// The error the standard line reader raises on bytes that are not UTF-8.
fn invalid_utf8() -> ServeError {
    ServeError::Io("stream did not contain valid UTF-8".into())
}

/// The per-line checks of a `DAG` block: the line is UTF-8 (looked at only
/// when `ascii` could not vouch for it) and is not an early `END`.
fn check_dag_line(line: &[u8], ascii: bool) -> Result<(), ServeError> {
    if !ascii {
        utf8(line)?;
    }
    // `END` and blanks around it; a hyperDAG line starts with a digit or a
    // `%`, so this is settled at the first non-blank byte.
    let start = line.iter().position(|b| !is_space(b)).unwrap_or(line.len());
    if let Some(rest) = line[start..].strip_prefix(b"END") {
        if rest.iter().all(is_space) {
            return Err(malformed(
                "END",
                "DAG payload shorter than its declared line count",
            ));
        }
    }
    Ok(())
}

/// The error of a request line that reached [`MAX_REQUEST_LINE_BYTES`]
/// without a newline (`line` is those bytes).
fn line_too_long(line: &[u8], ascii: bool) -> ServeError {
    if !ascii && std::str::from_utf8(line).is_err() {
        return invalid_utf8();
    }
    malformed(
        "",
        format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
    )
}

/// Most bytes [`read_dag_block`] copies out of the reader's buffer before
/// looking at them.  A `BufReader` hands out less than this anyway; the cap
/// matters for a reader whose buffer is the whole stream (`&[u8]`), where
/// everything behind the block would be copied only to be dropped again.
const DAG_COPY_BYTES: usize = 64 << 10;

/// Reads the `n_lines` lines of a `DAG` block, copying them out of the
/// reader's buffer a buffer-full at a time instead of a line at a time.
///
/// What a line-at-a-time reader would check is still checked per line, and
/// the stream is left where such a reader would leave it: a line longer
/// than [`MAX_REQUEST_LINE_BYTES`] is an error once that many bytes are
/// read, an `END` inside the block is an error that reads nothing past it,
/// a line that is not UTF-8 is an error at that line.  The text grows only
/// with bytes that have arrived, never from `n_lines`.
fn read_dag_block<R: BufRead>(reader: &mut R, n_lines: usize) -> Result<String, ServeError> {
    let cap = MAX_REQUEST_LINE_BYTES as usize;
    // `text[..line_start]` is `lines` whole lines, the rest the line being
    // read; `line_ascii` says whether every buffer-full that line came from
    // was pure ASCII (one bulk test per buffer-full stands in for a UTF-8
    // check per line).
    let mut text: Vec<u8> = Vec::new();
    let (mut lines, mut line_start) = (0usize, 0usize);
    let mut line_ascii = true;
    while lines < n_lines {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if chunk.is_empty() {
            // End of stream: an unterminated last line still counts as one.
            if text.len() == line_start {
                return Err(ServeError::UnexpectedEof);
            }
            check_dag_line(&text[line_start..], line_ascii)?;
            lines += 1;
            line_start = text.len();
            continue;
        }
        // Copy first, look second; what lies behind the block's last line
        // is cut off again and stays in the reader.
        let chunk = &chunk[..chunk.len().min(DAG_COPY_BYTES)];
        let chunk_ascii = chunk.is_ascii();
        line_ascii &= chunk_ascii;
        let copied_from = text.len();
        text.extend_from_slice(chunk);
        let mut seen = copied_from;
        let mut outcome = Ok(());
        while outcome.is_ok() && lines < n_lines && seen < text.len() {
            let window = &text[seen..text.len().min(line_start + cap)];
            match window.iter().position(|&b| b == b'\n') {
                Some(newline) => {
                    seen += newline + 1;
                    outcome = check_dag_line(&text[line_start..seen], line_ascii);
                    lines += 1;
                    line_start = seen;
                    line_ascii = chunk_ascii;
                }
                None => {
                    seen += window.len();
                    if seen - line_start == cap {
                        outcome = Err(line_too_long(&text[line_start..seen], line_ascii));
                    }
                    break;
                }
            }
        }
        text.truncate(seen);
        reader.consume(seen - copied_from);
        outcome?;
    }
    String::from_utf8(text).map_err(|_| invalid_utf8())
}

/// Writes a fingerprint-only replay request in wire form into `out`.  With
/// `structure` the `FP` line carries the structure key as a second token
/// (routed by structural family when sharded); without it the legacy
/// one-token form is emitted.
pub fn encode_fingerprint_request(
    out: &mut String,
    id: u64,
    fingerprint: u128,
    structure: Option<u64>,
    trace: Option<u64>,
) {
    let fp_line = |out: &mut Vec<u8>| {
        let _ = write!(out, "FP {fingerprint:032x}");
        if let Some(s) = structure {
            let _ = write!(out, " {s:016x}");
        }
        out.push(b'\n');
    };
    with_bytes(out, |out| write_request(out, id, trace, fp_line, |_| {}));
}

/// Writes a response in wire form into `out` (borrowing the schedule, so
/// the server does not clone cached schedules to encode them).
pub fn encode_response_parts(
    out: &mut String,
    id: u64,
    cost: u64,
    source: ScheduleSource,
    micros: u64,
    trace_id: u64,
    schedule: &BspSchedule,
) {
    let _ = write!(
        out,
        "OK {id} cost {cost} supersteps {} source {} micros {micros}",
        schedule.num_supersteps(),
        source.as_str(),
    );
    if trace_id != 0 {
        let _ = write!(out, " trace {trace_id:x}");
    }
    out.push('\n');
    with_bytes(out, |bytes| {
        let steps = schedule.comm.steps();
        let n = schedule.assignment.proc.len();
        bytes.reserve(8 * n + 16 * steps.len() + 32);
        for (verb, list) in [
            (&b"PROC"[..], &schedule.assignment.proc),
            (&b"STEP"[..], &schedule.assignment.superstep),
        ] {
            bytes.extend_from_slice(verb);
            for &x in list {
                bytes.push(b' ');
                push_u64(bytes, x as u64);
            }
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(b"COMM ");
        push_u64(bytes, steps.len() as u64);
        bytes.push(b'\n');
        for cs in steps {
            push_line(bytes, [cs.node, cs.from, cs.to, cs.step].map(|x| x as u64));
        }
        bytes.extend_from_slice(b"END\n");
    });
}

/// Writes `response` in wire form into `out`.
pub fn encode_response(out: &mut String, response: &ScheduleResponse) {
    encode_response_parts(
        out,
        response.id,
        response.cost,
        response.source,
        response.micros,
        response.trace_id,
        &response.schedule,
    );
}

/// Writes an error reply for request `id` into `out`.
pub fn encode_error(out: &mut String, id: u64, error: &ServeError) {
    // The message is flattened to one line (the protocol is line-delimited).
    let msg: String = error
        .to_string()
        .chars()
        .map(|c| if c == '\n' { ' ' } else { c })
        .collect();
    let _ = writeln!(out, "ERR {id} {} {msg}", error.kind());
}

/// One span of a trace as read back off the wire (names are owned — the
/// receiving side has no `&'static` table for the sending side's names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Span name.
    pub name: String,
    /// Nesting depth.
    pub depth: u8,
    /// Microseconds from request acceptance to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// A full trace reply (`TRACE <hex>`): identity, outcome, and span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTrace {
    /// The trace id.
    pub trace_id: u64,
    /// Outcome source token (`cold` / `exact` / `error`).
    pub source: String,
    /// Shard index the request ran on (-1 = unsharded / local).
    pub shard: i32,
    /// End-to-end latency in microseconds.
    pub total_us: u64,
    /// `true` if spans were dropped for capacity.
    pub truncated: bool,
    /// The span tree, in recording order.
    pub spans: Vec<WireSpan>,
}

impl WireTrace {
    /// Converts a journal record into its wire form.
    pub fn from_record(rec: &crate::obs::TraceRecord) -> Self {
        WireTrace {
            trace_id: rec.trace_id,
            source: rec.source.to_string(),
            shard: rec.shard,
            total_us: rec.total_us,
            truncated: rec.spans.truncated(),
            spans: rec
                .spans
                .spans()
                .iter()
                .map(|s| WireSpan {
                    name: s.name.to_string(),
                    depth: s.depth,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                })
                .collect(),
        }
    }
}

/// Writes a `TRACE` reply in wire form into `out`.
pub fn encode_trace_reply(out: &mut String, trace: &WireTrace) {
    let _ = write!(
        out,
        "TRACE {:x} source {} shard {} total_us {} spans {}",
        trace.trace_id,
        trace.source,
        trace.shard,
        trace.total_us,
        trace.spans.len()
    );
    if trace.truncated {
        out.push_str(" truncated 1");
    }
    out.push('\n');
    for span in &trace.spans {
        let _ = writeln!(
            out,
            "SPAN {} {} {} {}",
            span.depth, span.start_us, span.dur_us, span.name
        );
    }
    out.push_str("END\n");
}

/// One body line of a reply frame, as [`walk_reply`] hands it on.
enum Part {
    /// `PROC <π(0)> ...` of an `OK` frame.
    Proc,
    /// `STEP <τ(0)> ...`.
    Step,
    /// `COMM <k>` (the walker then reads its k lines).
    Comm,
    /// One of the k `<node> <from> <to> <step>` lines of an `OK` frame, or
    /// of the lines a control header declares.
    Line,
    /// The closing `END`.
    End,
}

/// A reply frame as [`walk_reply`] read it.
enum Frame<T> {
    /// The expected verb: the reader's state after the whole body.
    Body(T),
    /// An `ERR <id> <kind> <message...>` line in place of the header.
    Err {
        /// The id, or why it is not one.
        id: Result<u64, ServeError>,
        /// The line after the id, verbatim.
        rest: String,
        /// `<kind> <message...>` as a [`ServeError::Remote`].
        error: ServeError,
    },
}

/// Reads one reply frame: the header, then the body its verb announces —
/// `PROC`, `STEP`, `COMM <k>` and k lines for `OK`, the number of lines the
/// header declares (at most `max_lines`) for `TRACE`, `METRICS` and `SLOW`,
/// nothing for `ERR` — and `END`.  `head` reads the header after `verb`,
/// returning the reader's state and the declared count (0 for `OK`); `body`
/// takes every body line as it is read, `END` included.  `Ok(None)` is a
/// clean end of stream before the header; a stream that ends anywhere later
/// is [`ServeError::UnexpectedEof`].  One line buffer serves the frame, and
/// nothing is sized from a count the header declares.
fn walk_reply<R: BufRead, T>(
    reader: &mut R,
    verb: &str,
    max_lines: u64,
    head: impl FnOnce(&mut Tokens<'_>) -> Result<(T, u64), ServeError>,
    mut body: impl FnMut(&mut T, Part, &[u8]) -> Result<(), ServeError>,
) -> Result<Option<Frame<T>>, ServeError> {
    let mut line = Vec::new();
    let mut next = |line: &mut Vec<u8>| {
        line.clear();
        match reader.read_until(b'\n', line)? {
            0 => Err(ServeError::UnexpectedEof),
            _ => Ok(()),
        }
    };
    match next(&mut line) {
        Err(ServeError::UnexpectedEof) => return Ok(None),
        read => read?,
    }
    let mut header = Tokens::new(utf8(&line)?.trim());
    let (mut state, mut lines) = match header.next() {
        Some("ERR") => {
            let (id, rest) = (header.number("reply id"), header.rest().to_string());
            let kind = header.next().unwrap_or("unknown").to_string();
            let message = header.collect::<Vec<_>>().join(" ");
            let error = ServeError::Remote { kind, message };
            return Ok(Some(Frame::Err { id, rest, error }));
        }
        Some(first) if first == verb => head(&mut header)?,
        _ => return Err(header.malformed(format!("expected {verb} or ERR"))),
    };
    if lines > max_lines {
        return Err(header.malformed(format!("{verb} line count exceeds sanity limit")));
    }
    if verb == "OK" {
        for (part, list) in [(Part::Proc, "PROC"), (Part::Step, "STEP")] {
            next(&mut line)?;
            list_body(&line, list)?;
            body(&mut state, part, &line)?;
        }
        next(&mut line)?;
        let k = comm_count(&line)?;
        body(&mut state, Part::Comm, &line)?;
        lines = k as u64;
    }
    for _ in 0..lines {
        next(&mut line)?;
        body(&mut state, Part::Line, &line)?;
    }
    next(&mut line)?;
    if line.trim_ascii() != b"END" {
        let after = match verb {
            "OK" => "response body".to_string(),
            verb => format!("{verb} reply"),
        };
        return Err(malformed_bytes(
            &line,
            format!("expected END after {after}"),
        ));
    }
    body(&mut state, Part::End, &line)?;
    Ok(Some(Frame::Body(state)))
}

/// A line of text; bytes that are not UTF-8 are `invalid_utf8`.
fn utf8(line: &[u8]) -> Result<&str, ServeError> {
    std::str::from_utf8(line).map_err(|_| invalid_utf8())
}

/// [`walk_reply`] for a control verb: each body line is handed to `body`
/// as text, and an `ERR` line is the error it carries.
fn walk_control<R: BufRead, T>(
    reader: &mut R,
    verb: &str,
    max_lines: u64,
    head: impl FnOnce(&mut Tokens<'_>) -> Result<(T, u64), ServeError>,
    mut body: impl FnMut(&mut T, &str) -> Result<(), ServeError>,
) -> Result<T, ServeError> {
    let text = |state: &mut T, part, line: &[u8]| match part {
        Part::End => Ok(()),
        _ => body(state, utf8(line)?),
    };
    match walk_reply(reader, verb, max_lines, head, text)?.ok_or(ServeError::UnexpectedEof)? {
        Frame::Body(state) => Ok(state),
        Frame::Err { error, .. } => Err(match error {
            ServeError::Remote { kind, .. } if kind == "unknown-trace" => ServeError::UnknownTrace,
            error => error,
        }),
    }
}

/// The tokens of a control reply's body line, whose first must be `verb`.
fn control_line<'l>(line: &'l str, verb: &str) -> Result<Tokens<'l>, ServeError> {
    let mut tokens = Tokens::new(line.trim());
    match tokens.next() {
        Some(first) if first == verb => Ok(tokens),
        _ => Err(tokens.malformed(format!("expected {verb} line"))),
    }
}

/// Reads a `TRACE` reply (or the `ERR` line answering an unknown id).
pub fn read_trace_reply<R: BufRead>(reader: &mut R) -> Result<WireTrace, ServeError> {
    let head = |header: &mut Tokens<'_>| {
        let mut trace = WireTrace {
            trace_id: header.hex("trace id")?,
            source: String::new(),
            shard: -1,
            total_us: 0,
            truncated: false,
            spans: Vec::new(),
        };
        let mut n_spans = 0;
        while let Some((key, value)) = header.pair()? {
            match key {
                "source" => trace.source = value.to_string(),
                "shard" => trace.shard = header.parse(value, "shard")?,
                "total_us" => trace.total_us = header.parse(value, "total_us")?,
                "spans" => n_spans = header.parse(value, "spans")?,
                "truncated" => trace.truncated = value != "0",
                _ => {} // forward-compatible: ignore unknown keys
            }
        }
        Ok((trace, n_spans))
    };
    walk_control(reader, "TRACE", 100_000, head, |trace, line| {
        let mut span = control_line(line, "SPAN")?;
        // A depth past `u8` is refused, not truncated.
        let depth: u64 = span.number("span depth")?;
        trace.spans.push(WireSpan {
            depth: u8::try_from(depth).map_err(|_| span.malformed("span depth is out of range"))?,
            start_us: span.number("span start")?,
            dur_us: span.number("span duration")?,
            name: span.word("span name")?.to_string(),
        });
        Ok(())
    })
}

/// Writes a `METRICS` reply (the exposition text, framed by a line count) in
/// wire form into `out`.
pub fn encode_metrics_reply(out: &mut String, exposition: &str) {
    let _ = writeln!(out, "METRICS {}", exposition.lines().count());
    out.push_str(exposition);
    if !exposition.is_empty() && !exposition.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("END\n");
}

/// Reads a `METRICS` reply, returning the exposition text.
pub fn read_metrics_reply<R: BufRead>(reader: &mut R) -> Result<String, ServeError> {
    let head = |header: &mut Tokens<'_>| Ok((String::new(), header.number("METRICS line count")?));
    walk_control(reader, "METRICS", 1_000_000, head, |text, line| {
        text.push_str(line);
        Ok(())
    })
}

/// One entry of the slow-request journal summary (`STATS SLOW`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// Trace id (fetch the span tree with `TRACE <hex>`).
    pub trace_id: u64,
    /// Outcome source token.
    pub source: String,
    /// Shard index (-1 = unsharded / local).
    pub shard: i32,
    /// End-to-end latency in microseconds.
    pub total_us: u64,
}

/// Writes a `STATS SLOW` reply in wire form into `out`.
pub fn encode_slow_reply(out: &mut String, entries: &[crate::obs::TraceRecord]) {
    let _ = writeln!(out, "SLOW {}", entries.len());
    for rec in entries {
        let _ = writeln!(
            out,
            "TRACESUM {:x} {} {} {}",
            rec.trace_id, rec.source, rec.shard, rec.total_us
        );
    }
    out.push_str("END\n");
}

/// Reads a `STATS SLOW` reply.
pub fn read_slow_reply<R: BufRead>(reader: &mut R) -> Result<Vec<SlowEntry>, ServeError> {
    let head = |header: &mut Tokens<'_>| Ok((Vec::new(), header.number("SLOW count")?));
    walk_control(reader, "SLOW", 100_000, head, |entries, line| {
        let mut entry = control_line(line, "TRACESUM")?;
        entries.push(SlowEntry {
            trace_id: entry.hex("trace id")?,
            source: entry.word("source")?.to_string(),
            shard: entry.number("shard")?,
            total_us: entry.number("total_us")?,
        });
        Ok(())
    })
}

/// The blank-separated tokens of one reply line, read off its bytes as
/// numbers (`None` for a token that is not one).
struct Numbers<'a>(&'a [u8]);

impl Iterator for Numbers<'_> {
    type Item = Option<u64>;

    fn next(&mut self) -> Option<Option<u64>> {
        let start = self.0.iter().position(|b| !is_space(b))?;
        let rest = &self.0[start..];
        match scan_u64(rest) {
            Some((value, len)) if rest.get(len).is_none_or(is_space) => {
                self.0 = &rest[len..];
                Some(Some(value))
            }
            _ => {
                let len = rest.iter().position(is_space).unwrap_or(rest.len());
                self.0 = &rest[len..];
                Some(None)
            }
        }
    }
}

/// [`malformed`] for a line held as bytes (error paths only).
fn malformed_bytes(line: &[u8], reason: impl Into<String>) -> ServeError {
    malformed(String::from_utf8_lossy(line).trim(), reason)
}

/// One schedule value of a reply line: `π`, `τ` and every `Γ` field are
/// `u32`, so a number of 2³² or more is refused rather than truncated.
fn schedule_entry(entry: Option<u64>) -> Result<u32, &'static str> {
    let entry = entry.ok_or("is not a number")?;
    u32::try_from(entry).map_err(|_| "is out of range")
}

/// The numbers of a `<verb> <x0> <x1> ...` line, after its verb.
fn list_body<'l>(line: &'l [u8], verb: &str) -> Result<&'l [u8], ServeError> {
    line.trim_ascii_start()
        .strip_prefix(verb.as_bytes())
        .filter(|rest| rest.first().is_none_or(is_space))
        .ok_or_else(|| malformed_bytes(line, format!("expected {verb} line")))
}

/// Parses `<verb> <x0> <x1> ...`.  The list is sized from the line it is
/// read from, never from a count the peer declares.
fn parse_u32_list(line: &[u8], verb: &str) -> Result<Vec<u32>, ServeError> {
    let body = list_body(line, verb)?;
    let mut list = Vec::with_capacity(body.len() / 2);
    for entry in Numbers(body) {
        let entry = schedule_entry(entry)
            .map_err(|why| malformed_bytes(line, format!("{verb} entry {why}")))?;
        list.push(entry);
    }
    Ok(list)
}

/// The `k` of a `COMM <k>` line.
fn comm_count(line: &[u8]) -> Result<usize, ServeError> {
    let text = String::from_utf8_lossy(line);
    let mut comm = Tokens::new(text.trim());
    if comm.next() != Some("COMM") {
        return Err(comm.malformed("expected COMM line"));
    }
    let k: u64 = comm.number("COMM count")?;
    if k > 64_000_000 {
        return Err(comm.malformed("COMM count exceeds sanity limit"));
    }
    Ok(k as usize)
}

/// One `<node> <from> <to> <step>` line; tokens beyond the four are
/// ignored, as everywhere.
fn comm_step(line: &[u8]) -> Result<CommStep, ServeError> {
    let mut fields = Numbers(line);
    let mut field = |what: &str| match fields.next() {
        Some(entry) => {
            schedule_entry(entry).map_err(|why| malformed_bytes(line, format!("{what} {why}")))
        }
        None => Err(malformed_bytes(line, format!("missing {what}"))),
    };
    Ok(CommStep {
        node: field("comm node")?,
        from: field("comm from")?,
        to: field("comm to")?,
        step: field("comm step")?,
    })
}

/// An `OK` header's `<key> <value>` pairs after its id, as a response with
/// an empty schedule.  Keys this side does not know are skipped, so a newer
/// server can add fields.
fn read_ok_header(id: u64, header: &mut Tokens<'_>) -> Result<ScheduleResponse, ServeError> {
    let (assignment, comm) = (Assignment::default(), CommSchedule::empty());
    let mut ok = ScheduleResponse {
        id,
        cost: 0,
        supersteps: 0,
        source: ScheduleSource::Cold,
        micros: 0,
        trace_id: 0,
        schedule: BspSchedule { assignment, comm },
    };
    while let Some((key, value)) = header.pair()? {
        match key {
            "cost" => ok.cost = header.parse(value, "cost")?,
            "supersteps" => ok.supersteps = header.parse(value, "supersteps")?,
            "source" => {
                let source = ScheduleSource::parse(value);
                ok.source = source.ok_or_else(|| header.malformed("unknown source"))?;
            }
            "micros" => ok.micros = header.parse(value, "micros")?,
            "trace" => ok.trace_id = header.parse_hex(value, "trace id")?,
            _ => {}
        }
    }
    Ok(ok)
}

/// A reply frame captured verbatim for proxying: the router reads a frame
/// off a backend connection, rewrites the correlation id, and forwards the
/// rest of the text untouched — no schedule re-parse, no re-encode.
#[derive(Debug, Clone)]
pub struct RawReply {
    /// The correlation id the frame carried on the wire.
    pub id: u64,
    /// Whether the frame was an `ERR` line (its body is then empty).
    pub is_err: bool,
    /// The header line's tokens after the id, verbatim (no leading space).
    pub header_rest: String,
    /// Every body line (`PROC` through `END`), verbatim, newline-terminated;
    /// empty for `ERR` frames.
    pub body: String,
    /// The `OK` header's `source` (`None` for `ERR`).
    pub(crate) source: Option<ScheduleSource>,
}

impl RawReply {
    /// Re-encodes the frame with a different correlation id.
    pub fn encode_with_id(&self, id: u64) -> String {
        let verb = if self.is_err { "ERR" } else { "OK" };
        let blank = if self.header_rest.is_empty() { "" } else { " " };
        format!("{verb} {id}{blank}{}\n{}", self.header_rest, self.body)
    }
}

/// Reads one reply frame without parsing the schedule (see [`RawReply`]):
/// the frames [`read_reply`] reads, the body kept as text.  Returns
/// `Ok(None)` on a clean end of stream between frames.
pub fn read_raw_reply<R: BufRead>(reader: &mut R) -> Result<Option<RawReply>, ServeError> {
    let head = |header: &mut Tokens<'_>| {
        let id = header.number("reply id")?;
        let rest = header.rest().to_string();
        let source = read_ok_header(id, header)?.source;
        Ok(((id, rest, Some(source), String::new()), 0))
    };
    let frame = walk_reply(reader, "OK", 0, head, |(.., body), _, line| {
        body.push_str(utf8(line)?);
        Ok(())
    })?;
    let (id, header_rest, source, body) = match frame {
        Some(Frame::Body(raw)) => raw,
        Some(Frame::Err { id, rest, .. }) => (id?, rest, None, String::new()),
        None => return Ok(None),
    };
    let is_err = source.is_none();
    Ok(Some(RawReply {
        id,
        is_err,
        header_rest,
        body,
        source,
    }))
}

/// One complete reply as seen by a pipelined reader: a schedule response, or
/// a per-request `ERR` that still carries its correlation id (a serial
/// client can discard the id; a pipelined client needs it to know *which*
/// in-flight request failed).
#[derive(Debug, Clone)]
pub enum Reply {
    /// An `OK` response with its schedule.
    Ok(ScheduleResponse),
    /// An `ERR` reply; `id` 0 means a connection-level error (e.g. framing).
    Err {
        /// Correlation id of the failed request.
        id: u64,
        /// The error, as a [`ServeError::Remote`].
        error: ServeError,
    },
}

/// Reads the next reply (in wire order, which under pipelining is completion
/// order, not submission order) from `reader`.  The schedule is parsed from
/// bytes: no UTF-8 pass and no tokenizer over what can be megabytes of
/// digits.
pub fn read_reply<R: BufRead>(reader: &mut R) -> Result<Reply, ServeError> {
    let mut steps = Vec::new();
    let head =
        |header: &mut Tokens<'_>| Ok((read_ok_header(header.number("response id")?, header)?, 0));
    let frame = walk_reply(reader, "OK", 0, head, |response, part, line| {
        let schedule = &mut response.schedule;
        match part {
            Part::Proc => schedule.assignment.proc = parse_u32_list(line, "PROC")?,
            Part::Step => {
                schedule.assignment.superstep = parse_u32_list(line, "STEP")?;
                if schedule.assignment.proc.len() != schedule.assignment.superstep.len() {
                    return Err(malformed_bytes(line, "PROC and STEP lengths differ"));
                }
            }
            Part::Comm => {}
            Part::Line => steps.push(comm_step(line)?),
            Part::End => schedule.comm = CommSchedule::from_steps(std::mem::take(&mut steps)),
        }
        Ok(())
    })?;
    match frame.ok_or(ServeError::UnexpectedEof)? {
        Frame::Body(response) => Ok(Reply::Ok(response)),
        Frame::Err { id, error, .. } => Ok(Reply::Err {
            id: id.unwrap_or(0),
            error,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_model::Assignment;
    use std::io::BufReader;

    fn diamond() -> Dag {
        Dag::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![1, 2, 3, 4],
            vec![5, 6, 7, 8],
        )
        .unwrap()
    }

    #[test]
    fn request_roundtrips_through_the_wire_encoding() {
        let request = ScheduleRequest {
            id: 42,
            dag: diamond(),
            machine: Machine::numa_binary_tree(8, 3, 5, 2),
            options: RequestOptions::new()
                .with_deadline(Duration::from_millis(250))
                .with_mode(Mode::Fast)
                .with_cache(false),
        };
        let mut wire = String::new();
        encode_request(
            &mut wire,
            request.id,
            &request.dag,
            &request.machine,
            &request.options,
        )
        .unwrap();
        let mut reader = BufReader::new(wire.as_bytes());
        let parsed = match read_incoming(&mut reader).unwrap().unwrap() {
            Incoming::Request(r) => *r,
            other => panic!("expected a request, got {other:?}"),
        };
        assert_eq!(parsed.id, 42);
        assert_eq!(parsed.options, request.options);
        assert_eq!(parsed.machine, request.machine);
        assert_eq!(parsed.dag.n(), request.dag.n());
        assert_eq!(parsed.dag.work_weights(), request.dag.work_weights());
        assert_eq!(parsed.dag.comm_weights(), request.dag.comm_weights());
        let canon = |d: &Dag| {
            let mut e: Vec<_> = d.edges().collect();
            e.sort_unstable();
            e
        };
        assert_eq!(canon(&parsed.dag), canon(&request.dag));
        // Nothing further on the stream.
        assert!(read_incoming(&mut reader).unwrap().is_none());
    }

    /// A response on [`diamond`] whose lazy `Γ` sends two values (nodes 0 and
    /// 2 to processor 1): two `COMM` lines on the wire.
    fn diamond_response() -> ScheduleResponse {
        let dag = diamond();
        let schedule = BspSchedule::from_assignment_lazy(
            &dag,
            Assignment {
                proc: vec![0, 1, 0, 1],
                superstep: vec![0, 1, 1, 2],
            },
        );
        ScheduleResponse {
            id: 7,
            cost: 1234,
            supersteps: 3,
            source: ScheduleSource::CacheWarm,
            micros: 987,
            trace_id: 0xabc123,
            schedule,
        }
    }

    /// [`diamond`] as the hyperDAG text of a `DAG` block (13 lines).
    const DIAMOND_DAG_BLOCK: &str = "DAG 13\n% hyperDAG export: 4 nodes, 3 hyperedges\n3 4 7\n\
        0 0\n0 1\n0 2\n1 1\n1 3\n2 2\n2 3\n0 1 5\n1 2 6\n2 3 7\n3 4 8\n";

    #[test]
    fn request_encoders_write_these_bytes() {
        let request = |id, machine: Machine, options: RequestOptions| {
            let mut wire = String::new();
            encode_request(&mut wire, id, &diamond(), &machine, &options).unwrap();
            wire
        };
        let expect = |head: &str| format!("{head}{DIAMOND_DAG_BLOCK}END\n");
        assert_eq!(
            request(1, Machine::uniform(2, 1, 1), RequestOptions::new()),
            expect("REQ 1\nMACHINE uniform 2 1 1\nOPTION mode heuristics\nOPTION cache on\n")
        );
        let options = RequestOptions::new()
            .with_deadline(Duration::from_millis(250))
            .with_mode(Mode::Fast)
            .with_cache(false)
            .with_trace(0xf00d);
        assert_eq!(
            request(42, Machine::numa_binary_tree(8, 3, 5, 2), options),
            expect(
                "REQ 42\nMACHINE tree 8 3 5 2\nOPTION deadline_ms 250\nOPTION mode fast\n\
                 OPTION cache off\nOPTION trace f00d\n"
            )
        );
        let options = RequestOptions::new()
            .with_deadline(Duration::from_micros(500))
            .with_mode(Mode::Default);
        assert_eq!(
            request(2, Machine::uniform(3, 4, 5), options),
            expect(
                "REQ 2\nMACHINE uniform 3 4 5\nOPTION deadline_ms 1\nOPTION mode default\n\
                 OPTION cache on\n"
            )
        );

        let fingerprint = |id, structure, trace| {
            let mut wire = String::new();
            encode_fingerprint_request(&mut wire, id, 0xdead_beef_0123_4567, structure, trace);
            wire
        };
        assert_eq!(
            fingerprint(9, Some(0xfeed), Some(0x77)),
            "REQ 9\nFP 0000000000000000deadbeef01234567 000000000000feed\nOPTION trace 77\nEND\n"
        );
        assert_eq!(
            fingerprint(3, None, None),
            "REQ 3\nFP 0000000000000000deadbeef01234567\nEND\n"
        );
        assert_eq!(
            fingerprint(5, None, Some(0x1f)),
            "REQ 5\nFP 0000000000000000deadbeef01234567\nOPTION trace 1f\nEND\n"
        );
        assert_eq!(
            fingerprint(6, Some(1), None),
            "REQ 6\nFP 0000000000000000deadbeef01234567 0000000000000001\nEND\n"
        );

        // The forwarded body is every byte between the `REQ` and `END`
        // lines, blank lines and `\r\n` endings included.
        let raw = b"\r\n  REQ 5\r\nMACHINE uniform 2 1 1\r\n\nDAG 1\r\n% x\r\n END \r\n\n";
        assert_eq!(
            reframe_request(raw, 9, Some(0x1f)),
            b"REQ 9\nMACHINE uniform 2 1 1\r\n\nDAG 1\r\n% x\r\nOPTION trace 1f\nEND\n"
        );
        assert_eq!(
            reframe_request(raw, 10, None),
            b"REQ 10\nMACHINE uniform 2 1 1\r\n\nDAG 1\r\n% x\r\nEND\n"
        );
    }

    #[test]
    fn reply_encoders_write_these_bytes() {
        let mut response = diamond_response();
        let body = "PROC 0 1 0 1\nSTEP 0 1 1 2\nCOMM 2\n0 0 1 0\n2 0 1 1\nEND\n";
        let mut wire = String::new();
        encode_response(&mut wire, &response);
        assert_eq!(
            wire,
            format!("OK 7 cost 1234 supersteps 3 source warm micros 987 trace abc123\n{body}")
        );
        response.trace_id = 0;
        response.source = ScheduleSource::Cold;
        wire.clear();
        encode_response(&mut wire, &response);
        assert_eq!(
            wire,
            format!("OK 7 cost 1234 supersteps 3 source cold micros 987\n{body}")
        );

        wire.clear();
        encode_error(
            &mut wire,
            3,
            &ServeError::Machine("P is\nnot\na power".into()),
        );
        assert_eq!(
            wire,
            "ERR 3 machine bad machine description: P is not a power\n"
        );

        let records = journal_records();
        let mut trace = WireTrace::from_record(&records[0]);
        wire.clear();
        encode_trace_reply(&mut wire, &trace);
        assert_eq!(
            wire,
            "TRACE 10 source cold shard 1 total_us 900 spans 2\n\
             SPAN 0 0 12 queue_wait\nSPAN 1 12 900 funnel\nEND\n"
        );
        trace.truncated = true;
        trace.spans.clear();
        wire.clear();
        encode_trace_reply(&mut wire, &trace);
        assert_eq!(
            wire,
            "TRACE 10 source cold shard 1 total_us 900 spans 0 truncated 1\nEND\n"
        );

        for (exposition, expected) in [
            (
                EXPOSITION,
                "METRICS 4\n# TYPE x counter\nx 7\n# TYPE lat histogram\nlat_bucket{le=\"40\"} 2\nEND\n",
            ),
            ("a 1\nb 2", "METRICS 2\na 1\nb 2\nEND\n"),
            ("", "METRICS 0\nEND\n"),
        ] {
            wire.clear();
            encode_metrics_reply(&mut wire, exposition);
            assert_eq!(wire, expected);
        }

        wire.clear();
        encode_slow_reply(&mut wire, &records);
        assert_eq!(
            wire,
            "SLOW 2\nTRACESUM 10 cold 1 900\nTRACESUM 11 warm -1 300\nEND\n"
        );
    }

    #[test]
    fn response_roundtrips_through_the_wire_encoding() {
        let response = diamond_response();
        let mut wire = String::new();
        encode_response(&mut wire, &response);
        match read_reply(&mut BufReader::new(wire.as_bytes())).unwrap() {
            Reply::Ok(parsed) => assert_eq!(parsed, response),
            other => panic!("expected the response back, got {other:?}"),
        }
    }

    #[test]
    fn schedule_entries_past_u32_are_malformed_not_truncated() {
        // 2³² would read back as 0 under a cast: each of the six fields is
        // set to it in turn, next to the largest value that still fits.
        let big = 1u64 << 32;
        let max = u32::MAX;
        let bodies = [
            format!("PROC 0 {big}\nSTEP 0 1\nCOMM 0\n"),
            format!("PROC 0 1\nSTEP {max} {big}\nCOMM 0\n"),
            format!("PROC 0 1\nSTEP 0 1\nCOMM 1\n{big} 0 1 0\n"),
            format!("PROC 0 1\nSTEP 0 1\nCOMM 1\n0 {big} 1 0\n"),
            format!("PROC 0 1\nSTEP 0 1\nCOMM 1\n0 0 {big} 0\n"),
            format!("PROC 0 1\nSTEP 0 1\nCOMM 1\n0 0 1 {big}\n"),
        ];
        for body in bodies {
            let wire = format!("OK 7 cost 5 supersteps 2\n{body}END\n");
            match read_reply(&mut wire.as_bytes()) {
                Err(ServeError::Malformed { reason, .. }) => {
                    assert!(reason.contains("out of range"), "{body:?}: {reason}")
                }
                other => panic!("{body:?}: expected a malformed reply, got {other:?}"),
            }
        }
        // The largest value that fits still reads back as itself.
        let wire = format!("OK 7 cost 5 supersteps 2\nPROC 0 {max}\nSTEP 0 1\nCOMM 0\nEND\n");
        match read_reply(&mut wire.as_bytes()).unwrap() {
            Reply::Ok(parsed) => assert_eq!(parsed.schedule.assignment.proc, [0, max]),
            other => panic!("expected the response back, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_requests_roundtrip() {
        let mut wire = String::new();
        encode_fingerprint_request(
            &mut wire,
            9,
            0xdead_beef_0123_4567,
            Some(0xfeed),
            Some(0x77),
        );
        let parsed = read_incoming(&mut BufReader::new(wire.as_bytes()))
            .unwrap()
            .unwrap();
        match parsed {
            Incoming::FingerprintRequest {
                id,
                fingerprint,
                structure,
                trace,
            } => {
                assert_eq!(id, 9);
                assert_eq!(fingerprint, 0xdead_beef_0123_4567);
                assert_eq!(structure, Some(0xfeed));
                assert_eq!(trace, Some(0x77));
            }
            other => panic!("expected a fingerprint request, got {other:?}"),
        }
        // The legacy one-token form still parses, with no structure key.
        let legacy = "REQ 3\nFP 00ff\nEND\n";
        match read_incoming(&mut BufReader::new(legacy.as_bytes()))
            .unwrap()
            .unwrap()
        {
            Incoming::FingerprintRequest {
                id,
                fingerprint,
                structure,
                trace,
            } => {
                assert_eq!(id, 3);
                assert_eq!(fingerprint, 0xff);
                assert_eq!(structure, None);
                assert_eq!(trace, None);
            }
            other => panic!("expected a legacy fingerprint request, got {other:?}"),
        }
        // A garbled structure token is malformed, not silently dropped.
        let bad = "REQ 4\nFP 00ff zz\nEND\n";
        assert!(read_incoming(&mut BufReader::new(bad.as_bytes())).is_err());
        // Mixing FP with a payload is malformed.
        let mixed = "REQ 1\nFP 00ff\nMACHINE uniform 2 1 1\nEND\n";
        assert!(read_incoming(&mut BufReader::new(mixed.as_bytes())).is_err());
    }

    #[test]
    fn observability_verbs_parse() {
        let parse_one = |wire: &str| {
            read_incoming(&mut BufReader::new(wire.as_bytes()))
                .unwrap()
                .unwrap()
        };
        assert!(matches!(parse_one("METRICS\n"), Incoming::Metrics));
        assert!(matches!(parse_one("STATS SLOW\n"), Incoming::SlowStats));
        match parse_one("TRACE ff0a\n") {
            Incoming::Trace(id) => assert_eq!(id, 0xff0a),
            other => panic!("expected a trace query, got {other:?}"),
        }
        assert!(read_incoming(&mut BufReader::new("TRACE zz\n".as_bytes())).is_err());
        // `STATS` exists only as `STATS SLOW`; the bare verb is as unknown
        // as any other.
        for wire in ["STATS\n", "STATS FAST\n", "BOGUS\n"] {
            match read_incoming(&mut BufReader::new(wire.as_bytes())) {
                Err(ServeError::Malformed { reason, .. }) => {
                    assert_eq!(reason, "expected REQ, STATS SLOW, METRICS, TRACE or PING")
                }
                other => panic!("{wire:?} was not refused as an unknown verb: {other:?}"),
            }
        }
    }

    /// Two journal records, the second from an unsharded server.
    fn journal_records() -> [crate::obs::TraceRecord; 2] {
        let mut spans = crate::obs::SpanSet::new();
        spans.push("queue_wait", 0, 0, 12);
        spans.push("funnel", 1, 12, 900);
        let cold = crate::obs::TraceRecord {
            trace_id: 0x10,
            source: "cold",
            shard: 1,
            total_us: 900,
            spans,
        };
        let warm = crate::obs::TraceRecord {
            trace_id: 0x11,
            source: "warm",
            shard: -1,
            total_us: 300,
            spans,
        };
        [cold, warm]
    }

    const EXPOSITION: &str =
        "# TYPE x counter\nx 7\n# TYPE lat histogram\nlat_bucket{le=\"40\"} 2\n";

    /// One well-formed reply per control verb, and its reader reduced to the
    /// error it returns (`None` = the reply was read).
    fn control_replies() -> [(String, fn(&[u8]) -> Option<ServeError>); 3] {
        let records = journal_records();
        let (mut trace, mut metrics, mut slow) = (String::new(), String::new(), String::new());
        encode_trace_reply(&mut trace, &WireTrace::from_record(&records[0]));
        encode_metrics_reply(&mut metrics, EXPOSITION);
        encode_slow_reply(&mut slow, &records);
        [
            (trace, |mut wire| read_trace_reply(&mut wire).err()),
            (metrics, |mut wire| read_metrics_reply(&mut wire).err()),
            (slow, |mut wire| read_slow_reply(&mut wire).err()),
        ]
    }

    /// One `OK` frame with two `COMM` lines and both readers of it, reduced
    /// as in [`control_replies`].  `read_raw_reply`'s `None` is the clean end
    /// between frames; to a caller owed this frame it is the EOF.
    fn ok_replies() -> [(String, fn(&[u8]) -> Option<ServeError>); 2] {
        let mut wire = String::new();
        encode_response(&mut wire, &diamond_response());
        assert_eq!(wire.matches('\n').count(), 7, "{wire:?}");
        [
            (wire.clone(), |mut wire| read_reply(&mut wire).err()),
            (wire, |mut wire| match read_raw_reply(&mut wire) {
                Ok(Some(_)) => None,
                Ok(None) => Some(ServeError::UnexpectedEof),
                Err(e) => Some(e),
            }),
        ]
    }

    #[test]
    fn a_control_reply_cut_off_at_any_line_boundary_is_an_unexpected_eof() {
        for (wire, read) in control_replies().into_iter().chain(ok_replies()) {
            assert_eq!(read(wire.as_bytes()), None, "{wire:?}");
            let boundaries = wire.match_indices('\n').map(|(i, _)| i + 1);
            for cut in std::iter::once(0).chain(boundaries.filter(|&cut| cut < wire.len())) {
                assert_eq!(
                    read(&wire.as_bytes()[..cut]),
                    Some(ServeError::UnexpectedEof),
                    "cut after {:?}",
                    &wire[..cut]
                );
            }
        }
    }

    /// How far `read` got into `wire` followed by a second, canonical frame:
    /// the bytes it consumed, or its error.
    fn consumed<T, E>(wire: &str, read: impl Fn(&mut &[u8]) -> Result<T, E>) -> Result<usize, E> {
        let stream = format!("{wire}OK 9 cost 1 supersteps 1\nPROC 0\nSTEP 0\nCOMM 0\nEND\n");
        let mut rest = stream.as_bytes();
        read(&mut rest).map(|_| stream.len() - rest.len())
    }

    #[test]
    fn the_router_and_the_client_accept_the_same_ok_frames() {
        let mut canonical = String::new();
        encode_response(&mut canonical, &diamond_response());
        let (header, body) = canonical.split_once('\n').unwrap();
        let mut frames = vec![
            canonical.clone(),
            format!("{}\n{body}", header.replace(' ', "\t")),
            format!(
                "  {header}\n {}",
                body.replace('\n', "\n ").trim_end_matches(' ')
            ),
            format!("{header} \r\n{}", body.replace('\n', " \r\n")),
            format!("{header}\nPROCX 0 1 0 1\nSTEP 0 1 1 2\nCOMM 0\nEND\n"),
            format!("{header}\nPROC 0 1 0 1\nSTEPS 0 1 1 2\nCOMM 0\nEND\n"),
            format!("{header}\nPROC 0 1 0 1\nSTEP 0 1 1 2\nCOMMA 0\nEND\n"),
            format!("{header}\nPROC 0 1 0 1\nSTEP 0 1 1 2\nCOMM 2\n0 0 1 0\nEND\n"),
            format!("{header}\nPROC 0 1 0 1\nSTEP 0 1 1 2\nCOMM 1\n0 0 1 0\n2 0 1 1\nEND\n"),
            format!("{header}\nPROC 0 1 0 1\nSTEP 0 1 1 2\nCOMM 0\nEND\n"),
            format!("{header}\nPROC\nSTEP\nCOMM 0\nEND\n"),
            format!("{header}\nPROC 0 1 0 1\nSTEP 0 1 1 2\nCOMM\nEND\n"),
            format!("{header}\nPROC 0 1 0 1\nSTEP 0 1 1 2\nCOMM 0\nEND x\n"),
            format!("{header} bogus\n{body}"),
            format!("{header} source bogus\n{body}"),
            format!("OKAY 7\n{body}"),
            format!("OK\n{body}"),
            format!("OK 7 cost\n{body}"),
        ];
        let boundaries = canonical.match_indices('\n').map(|(i, _)| i + 1);
        frames.extend(
            boundaries
                .filter(|&cut| cut < canonical.len())
                .map(|cut| canonical[..cut].to_string()),
        );
        let mut accepted = 0;
        for wire in &frames {
            let client = consumed(wire, |r| read_reply(r));
            let router = consumed(wire, |r| read_raw_reply(r).map(Option::unwrap));
            assert_eq!(
                client.is_ok(),
                router.is_ok(),
                "{wire:?}: {client:?} / {router:?}"
            );
            if let (Ok(client), Ok(router)) = (client, router) {
                assert_eq!((client, router), (wire.len(), wire.len()), "{wire:?}");
                accepted += 1;
            }
        }
        assert_eq!(
            accepted, 6,
            "the canonical frame, its three respacings and two bodies"
        );
        // What the router forwards of an accepted frame is what it read.
        let raw = read_raw_reply(&mut canonical.as_bytes()).unwrap().unwrap();
        assert_eq!(raw.encode_with_id(7), canonical);
        assert_eq!(raw.source, Some(ScheduleSource::CacheWarm));
    }

    #[test]
    fn span_depths_past_u8_are_malformed_not_truncated() {
        let trace = |depth: u64| {
            let wire = format!("TRACE 10 spans 1\nSPAN {depth} 0 5 solve\nEND\n");
            read_trace_reply(&mut wire.as_bytes())
        };
        assert_eq!(trace(255).unwrap().spans[0].depth, 255);
        match trace(300) {
            Err(ServeError::Malformed { line, reason }) => {
                assert_eq!(
                    (&*line, &*reason),
                    ("SPAN 300 0 5 solve", "span depth is out of range")
                )
            }
            other => panic!("depth 300 was not refused: {other:?}"),
        }
    }

    #[test]
    fn a_declared_count_is_a_bound_on_the_body_not_an_allocation() {
        // 100 000 spans declared, two sent: the reader finds `END` where the
        // third span should be, having grown its vector by two entries.
        let wire = "TRACE 10 source cold shard 0 total_us 9 spans 100000\n\
                    SPAN 0 0 5 solve\nSPAN 1 1 3 hc\nEND\n";
        match read_trace_reply(&mut wire.as_bytes()) {
            Err(ServeError::Malformed { line, reason }) => {
                assert_eq!((&*line, &*reason), ("END", "expected SPAN line"))
            }
            other => panic!("expected the early END to be refused, got {other:?}"),
        }
        // Past the sanity limit the header itself is refused.
        let headers = [
            "TRACE 10 spans 100001\n",
            "METRICS 1000001\n",
            "SLOW 100001\n",
        ];
        for ((_, read), header) in control_replies().into_iter().zip(headers) {
            let err = read(header.as_bytes());
            assert!(
                matches!(&err, Some(ServeError::Malformed { reason, .. }) if reason.contains("sanity limit")),
                "{header:?}: {err:?}"
            );
        }
    }

    #[test]
    fn trace_replies_roundtrip() {
        let trace = WireTrace::from_record(&journal_records()[0]);
        assert_eq!((trace.shard, trace.spans.len()), (1, 2));
        let mut wire = String::new();
        encode_trace_reply(&mut wire, &trace);
        let parsed = read_trace_reply(&mut BufReader::new(wire.as_bytes())).unwrap();
        assert_eq!(parsed, trace);
        // Unknown traces surface as the typed error.
        let mut err_wire = String::new();
        encode_error(&mut err_wire, 0, &ServeError::UnknownTrace);
        assert!(matches!(
            read_trace_reply(&mut BufReader::new(err_wire.as_bytes())),
            Err(ServeError::UnknownTrace)
        ));
    }

    #[test]
    fn metrics_replies_roundtrip() {
        let mut wire = String::new();
        encode_metrics_reply(&mut wire, EXPOSITION);
        let text = read_metrics_reply(&mut BufReader::new(wire.as_bytes())).unwrap();
        assert_eq!(text, EXPOSITION);
    }

    #[test]
    fn slow_replies_roundtrip() {
        let records = journal_records();
        let mut wire = String::new();
        encode_slow_reply(&mut wire, &records);
        let parsed = read_slow_reply(&mut BufReader::new(wire.as_bytes())).unwrap();
        assert_eq!(parsed.len(), records.len());
        for (entry, rec) in parsed.iter().zip(&records) {
            assert_eq!(
                (entry.trace_id, &*entry.source, entry.shard, entry.total_us),
                (rec.trace_id, rec.source, rec.shard, rec.total_us)
            );
        }
    }

    #[test]
    fn trace_option_roundtrips_and_zero_means_untraced() {
        let request = ScheduleRequest {
            id: 5,
            dag: diamond(),
            machine: Machine::uniform(2, 1, 1),
            options: RequestOptions::new().with_trace(0xf00d),
        };
        let mut wire = String::new();
        encode_request(
            &mut wire,
            request.id,
            &request.dag,
            &request.machine,
            &request.options,
        )
        .unwrap();
        let parsed = match read_incoming(&mut BufReader::new(wire.as_bytes()))
            .unwrap()
            .unwrap()
        {
            Incoming::Request(r) => *r,
            other => panic!("expected a request, got {other:?}"),
        };
        assert_eq!(parsed.options.trace, Some(0xf00d));
        // `OPTION trace 0` is accepted but means untraced.
        let mut zero_wire = String::new();
        encode_request(
            &mut zero_wire,
            6,
            &request.dag,
            &request.machine,
            &RequestOptions::new().with_trace(0),
        )
        .unwrap();
        match read_incoming(&mut BufReader::new(zero_wire.as_bytes()))
            .unwrap()
            .unwrap()
        {
            Incoming::Request(r) => assert_eq!(r.options.trace, None),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn error_responses_surface_as_remote_errors() {
        let mut wire = String::new();
        encode_error(&mut wire, 3, &ServeError::Busy);
        match read_reply(&mut BufReader::new(wire.as_bytes())).unwrap() {
            Reply::Err {
                id: 3,
                error: ServeError::Remote { kind, .. },
            } => assert_eq!(kind, "busy"),
            other => panic!("expected a remote error for request 3, got {other:?}"),
        }
    }

    #[test]
    fn machine_validation_rejects_bad_parameters_without_panicking() {
        assert!(matches!(
            build_machine("uniform", 0, 1, 1, None),
            Err(ServeError::Machine(_))
        ));
        assert!(matches!(
            build_machine("tree", 6, 1, 1, Some(2)),
            Err(ServeError::Machine(_))
        ));
        assert!(matches!(
            build_machine("tree", 8, 1, 1, None),
            Err(ServeError::Machine(_))
        ));
        assert!(matches!(
            build_machine("mesh", 4, 1, 1, None),
            Err(ServeError::Machine(_))
        ));
        // Every request key hashes all P² coefficients, so the boundary
        // bounds P.
        assert!(matches!(
            build_machine("uniform", 4096, 1, 1, None),
            Err(ServeError::Machine(_))
        ));
        assert!(build_machine("tree", 8, 1, 5, Some(3)).is_ok());
    }

    #[test]
    fn sub_millisecond_deadlines_round_up_instead_of_vanishing() {
        let request = ScheduleRequest {
            id: 2,
            dag: diamond(),
            machine: Machine::uniform(2, 1, 1),
            options: RequestOptions::new().with_deadline(Duration::from_micros(500)),
        };
        let mut wire = String::new();
        encode_request(
            &mut wire,
            request.id,
            &request.dag,
            &request.machine,
            &request.options,
        )
        .unwrap();
        let parsed = match read_incoming(&mut BufReader::new(wire.as_bytes()))
            .unwrap()
            .unwrap()
        {
            Incoming::Request(r) => *r,
            other => panic!("expected a request, got {other:?}"),
        };
        // 500 µs is not representable on the millisecond wire; it must
        // become the tightest representable bound (1 ms), never "unbounded".
        assert_eq!(parsed.options.deadline, Some(Duration::from_millis(1)));
    }

    #[test]
    fn oversized_request_lines_are_rejected_not_buffered() {
        // A newline-free hostile stream must hit the line cap as a typed
        // error instead of growing the line buffer without bound.
        let mut wire = String::from("REQ 1\nMACHINE uniform 2 1 1 ");
        wire.extend(std::iter::repeat_n('x', 2 << 20));
        match read_incoming(&mut BufReader::new(wire.as_bytes())) {
            Err(ServeError::Malformed { reason, .. }) => {
                assert!(reason.contains("exceeds"), "got {reason:?}")
            }
            other => panic!("expected a line-cap error, got {other:?}"),
        }
        // Same for the very first line of a message.
        let wire: String = std::iter::repeat_n('y', 2 << 20).collect();
        assert!(read_incoming(&mut BufReader::new(wire.as_bytes())).is_err());
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        for wire in [
            "BOGUS\n",
            "REQ nope\n",
            "REQ 1\nMACHINE uniform 0 1 1\nEND\n",
            "REQ 1\nOPTION mode warp\nEND\n",
            "REQ 1\nMACHINE uniform 2 1 1\nDAG 3\n1 2 2\n0 0\nEND\n",
            "REQ 1\nEND\n",
        ] {
            let res = read_incoming(&mut BufReader::new(wire.as_bytes()));
            assert!(res.is_err(), "accepted {wire:?}: {res:?}");
        }
        // A cyclic DAG payload surfaces the hyperDAG error.
        let wire =
            "REQ 1\nMACHINE uniform 2 1 1\nDAG 7\n2 2 4\n0 0\n0 1\n1 1\n1 0\n0 1 1\n1 1 1\nEND\n";
        match read_incoming(&mut BufReader::new(wire.as_bytes())) {
            Err(ServeError::Dag(_)) => {}
            other => panic!("expected a DAG error, got {other:?}"),
        }
    }
}
