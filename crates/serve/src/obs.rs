//! Workspace-wide observability: a unified metrics registry with
//! Prometheus-style text exposition, *mergeable* histogram snapshots so the
//! router can aggregate shard quantiles instead of summing scalars, and a
//! zero-allocation request-trace journal.
//!
//! Three pieces:
//!
//! - [`MetricsRegistry`] — named, labeled series (counters, gauges,
//!   [`LatencyHistogram`]s) behind `Arc` handles: registration takes a lock
//!   and may allocate, recording through a handle is a relaxed atomic.
//!   [`MetricsRegistry::render`] writes the Prometheus text exposition served
//!   by the `METRICS` wire verb.
//! - [`MetricsSnapshot`] — a parsed exposition.  The router scrapes each
//!   shard's `METRICS`, parses, and [`MetricsSnapshot::merge_from`]s them:
//!   counters and gauges sum, histograms merge bucket-wise, so an aggregated
//!   p99 is computed over the pooled observations rather than approximated
//!   from per-shard quantiles.
//! - [`SpanSet`] / [`TraceRecord`] / [`TraceJournal`] — request tracing.  A
//!   span set is a fixed, `Copy`-only array built on the stack; each
//!   [`Span`] is 12 bytes: its name as a `u8` index into [`SPAN_NAMES`] (the
//!   serving layer's own names, then the pipeline's [`PHASE_NAMES`]), its
//!   depth, and a `u32` microsecond offset from request acceptance and
//!   duration, each saturating at about 71 minutes.  A [`TraceRecord`] of
//!   [`MAX_SPANS`] spans is at most 640 bytes, so a 256-slot journal ring is
//!   at most 170 KB.  The journal is a pre-allocated ring plus a bounded
//!   worst-N-by-latency slow log.  Neither recording a span nor journaling a
//!   finished trace allocates, so the exact-cache-hit path stays
//!   allocation-free with tracing enabled.

use bsp_sched::pipeline::PHASE_NAMES;
use bsp_sched::PhaseSample;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::LatencyHistogram;

/// Maximum spans kept per trace.  A routed cold solve uses at most 15
/// (router dispatch, cache miss, queue wait, solve and the pipeline's nine
/// samples under it — funnel, each initializer's sweep and its
/// `init_schedule` child, `hc`, `relocate` and `refine`, each when its
/// block-move phase evaluates a proposal, `hccs` — then cache insert and
/// respond); anything beyond the cap sets the `truncated` flag instead of
/// allocating.
pub const MAX_SPANS: usize = 48;

/// The serving layer's own span names, the hit path's first.
const SERVE_SPANS: [&str; 7] = [
    "cache_exact_hit",
    "respond",
    "cache_miss",
    "queue_wait",
    "solve",
    "cache_insert",
    "router_dispatch",
];

/// Every name a [`Span`] can carry, in index order: the serving layer's own,
/// then the pipeline's [`PHASE_NAMES`], then `unknown` for a name outside
/// both (a debug build panics on one instead).
pub const SPAN_NAMES: [&str; SERVE_SPANS.len() + PHASE_NAMES.len() + 1] = {
    let mut names = ["unknown"; SERVE_SPANS.len() + PHASE_NAMES.len() + 1];
    let mut i = 0;
    while i < SERVE_SPANS.len() {
        names[i] = SERVE_SPANS[i];
        i += 1;
    }
    while i < SERVE_SPANS.len() + PHASE_NAMES.len() {
        names[i] = PHASE_NAMES[i - SERVE_SPANS.len()];
        i += 1;
    }
    names
};

/// `name`'s index in [`SPAN_NAMES`]; `unknown`'s for a name the table lacks.
fn span_index(name: &str) -> u8 {
    let unknown = SPAN_NAMES.len() - 1;
    let at = SPAN_NAMES[..unknown]
        .iter()
        .position(|&known| known == name);
    debug_assert!(at.is_some(), "span name {name:?} is not in SPAN_NAMES");
    at.unwrap_or(unknown) as u8
}

/// A microsecond count as a span field: saturates at `u32::MAX` (71 min).
fn span_micros(us: u64) -> u32 {
    u32::try_from(us).unwrap_or(u32::MAX)
}

/// One recorded span: 12 bytes.  The offset counts from the moment the
/// request's frame arrived, before it was parsed (at the router when
/// sharded, at the server otherwise), so spans from different layers
/// compose by offsetting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`SPAN_NAMES`]; read through [`Span::name`].
    name: u8,
    /// Nesting depth (0 = a direct child of the request).
    pub depth: u8,
    /// Microseconds from request acceptance to span start, saturating.
    pub start_us: u32,
    /// Span duration in microseconds, saturating.
    pub dur_us: u32,
}

const _: () = assert!(std::mem::size_of::<Span>() == 12);

impl Span {
    /// The span's name, read back through [`SPAN_NAMES`].
    pub fn name(&self) -> &'static str {
        SPAN_NAMES[self.name as usize]
    }
}

const EMPTY_SPAN: Span = Span {
    name: 0,
    depth: 0,
    start_us: 0,
    dur_us: 0,
};

/// A bounded, stack-allocated collection of [`Span`]s.  `Copy`, no heap.
#[derive(Debug, Clone, Copy)]
pub struct SpanSet {
    len: u8,
    truncated: bool,
    spans: [Span; MAX_SPANS],
}

impl Default for SpanSet {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanSet {
    /// An empty span set.
    pub const fn new() -> Self {
        SpanSet {
            len: 0,
            truncated: false,
            spans: [EMPTY_SPAN; MAX_SPANS],
        }
    }

    /// Appends a span named `name` (one of [`SPAN_NAMES`]); sets the
    /// truncation flag instead of growing past [`MAX_SPANS`].
    pub fn push(&mut self, name: &'static str, depth: u8, start_us: u64, dur_us: u64) {
        if (self.len as usize) < MAX_SPANS {
            self.spans[self.len as usize] = Span {
                name: span_index(name),
                depth,
                start_us: span_micros(start_us),
                dur_us: span_micros(dur_us),
            };
            self.len += 1;
        } else {
            self.truncated = true;
        }
    }

    /// Appends a solver phase as a child: shifted by `offset_us` and deepened
    /// by `extra_depth`.  Used to graft the solver's phase samples under the
    /// service's solve span.
    pub fn push_shifted(&mut self, sample: PhaseSample, extra_depth: u8, offset_us: u64) {
        self.push(
            sample.name,
            sample.depth.saturating_add(extra_depth),
            sample.start_us.saturating_add(offset_us),
            sample.dur_us,
        );
    }

    /// The recorded spans, in push order.
    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.len as usize]
    }

    /// Empties the set for reuse without touching the allocator.
    pub fn clear(&mut self) {
        self.len = 0;
        self.truncated = false;
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if at least one span was dropped for capacity.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

/// A finished request's trace: identity, outcome, and span tree.  `Copy` so
/// journaling is a memcpy into a pre-allocated slot.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    /// The trace id assigned at acceptance (hex on the wire).
    pub trace_id: u64,
    /// Request outcome source token (`cold` / `exact` / `error`).
    pub source: &'static str,
    /// Shard index the request was dispatched to; -1 when unsharded or
    /// answered locally.
    pub shard: i32,
    /// End-to-end latency in microseconds.
    pub total_us: u64,
    /// The span tree.
    pub spans: SpanSet,
}

/// What a journal slot may cost: 256 slots stay within 170 KB.
const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 640);

/// Bounded trace storage: a ring of the most recent traces plus a worst-N
/// slow log, both pre-allocated.  [`TraceJournal::record`] never allocates.
#[derive(Debug)]
pub struct TraceJournal {
    ring: Box<[Mutex<Option<TraceRecord>>]>,
    cursor: AtomicUsize,
    /// Worst-N by `total_us`; `Vec` pre-reserved to capacity so insertion
    /// and min-replacement never allocate.
    slow: Mutex<Vec<TraceRecord>>,
    slow_cap: usize,
}

impl TraceJournal {
    /// A journal keeping the last `ring_cap` traces and the `slow_cap`
    /// slowest.
    pub fn new(ring_cap: usize, slow_cap: usize) -> Self {
        let ring_cap = ring_cap.max(1);
        let mut slow = Vec::new();
        slow.reserve_exact(slow_cap);
        TraceJournal {
            ring: (0..ring_cap).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            slow: Mutex::new(slow),
            slow_cap,
        }
    }

    /// Journals a finished trace.  Lock-bounded, allocation-free.
    pub fn record(&self, rec: TraceRecord) {
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) % self.ring.len();
        *self.ring[slot].lock().unwrap() = Some(rec);
        if self.slow_cap == 0 {
            return;
        }
        let mut slow = self.slow.lock().unwrap();
        if slow.len() < self.slow_cap {
            slow.push(rec);
            return;
        }
        // Replace the fastest retained entry if this one is slower.
        if let Some(min_idx) = (0..slow.len()).min_by_key(|&i| slow[i].total_us) {
            if slow[min_idx].total_us < rec.total_us {
                slow[min_idx] = rec;
            }
        }
    }

    /// Finds a trace by id, searching the recent ring then the slow log.
    pub fn lookup(&self, trace_id: u64) -> Option<TraceRecord> {
        for slot in self.ring.iter() {
            if let Some(rec) = *slot.lock().unwrap() {
                if rec.trace_id == trace_id {
                    return Some(rec);
                }
            }
        }
        self.slow
            .lock()
            .unwrap()
            .iter()
            .find(|rec| rec.trace_id == trace_id)
            .copied()
    }

    /// The slow log, slowest first.
    pub fn snapshot_slow(&self) -> Vec<TraceRecord> {
        let mut slow = self.slow.lock().unwrap().clone();
        slow.sort_by_key(|rec| std::cmp::Reverse(rec.total_us));
        slow
    }
}

/// Trace-id generator: a per-process random-looking but collision-resistant
/// sequence (splitmix64 over a seeded counter), so ids minted independently
/// by the router and by standalone shards don't collide in practice.  Never
/// yields 0 (0 means "untraced" on the wire).
#[derive(Debug)]
pub struct TraceIdGen {
    next: AtomicU64,
}

impl TraceIdGen {
    /// A generator seeded from the clock and the process id.
    pub fn new() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seed = nanos ^ (u64::from(std::process::id()) << 32);
        TraceIdGen {
            next: AtomicU64::new(seed),
        }
    }

    /// Mints a fresh non-zero trace id.
    pub fn mint(&self) -> u64 {
        loop {
            let raw = self
                .next
                .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
            // splitmix64 finalizer: consecutive counter values map to
            // well-spread ids.
            let mut z = raw;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            if z != 0 {
                return z;
            }
        }
    }
}

impl Default for TraceIdGen {
    fn default() -> Self {
        Self::new()
    }
}

/// A live series handle plus its identity.
#[derive(Debug)]
struct Entry {
    name: String,
    /// Rendered label body (`kind="exact"`), empty for unlabeled series.
    labels: String,
    help: &'static str,
    series: Series,
}

#[derive(Debug)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<LatencyHistogram>),
}

impl Series {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

/// Renders a label slice to the exposition body form: `k1="v1",k2="v2"`.
fn label_body(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out
}

/// Writes one exposition sample line: `name{labels} value`.
pub fn write_sample(out: &mut String, name: &str, labels: &str, value: u64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Writes a `# TYPE` metadata line.
pub fn write_type(out: &mut String, name: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Renders one histogram's exposition series: cumulative `_bucket{le=…}`
/// lines, `_sum`, and `_count`.  `buckets` are non-cumulative
/// `(upper_edge, count)` pairs in ascending edge order.
fn render_histogram_series(
    out: &mut String,
    name: &str,
    labels: &str,
    buckets: &[(u64, u64)],
    sum: u64,
    count: u64,
) {
    let bucket_name = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for &(le, n) in buckets {
        cumulative = cumulative.saturating_add(n);
        let body = if labels.is_empty() {
            format!("le=\"{le}\"")
        } else {
            format!("{labels},le=\"{le}\"")
        };
        write_sample(out, &bucket_name, &body, cumulative);
    }
    let inf_body = if labels.is_empty() {
        "le=\"+Inf\"".to_string()
    } else {
        format!("{labels},le=\"+Inf\"")
    };
    write_sample(out, &bucket_name, &inf_body, count);
    write_sample(out, &format!("{name}_sum"), labels, sum);
    write_sample(out, &format!("{name}_count"), labels, count);
}

/// A registry of named, labeled metric series.  Get-or-register returns a
/// shared handle; rendering walks every entry.  Registration is locked and
/// may allocate — do it at startup or on cold paths only — while recording
/// through a returned handle is lock- and allocation-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn series(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: fn() -> Series,
    ) -> Series {
        let body = label_body(labels);
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.iter().find(|e| e.name == name && e.labels == body) {
            assert_eq!(
                entry.series.kind(),
                make().kind(),
                "metric {name} re-registered with a different kind"
            );
            return match &entry.series {
                Series::Counter(c) => Series::Counter(Arc::clone(c)),
                Series::Gauge(g) => Series::Gauge(Arc::clone(g)),
                Series::Histogram(h) => Series::Histogram(Arc::clone(h)),
            };
        }
        let series = make();
        let handle = match &series {
            Series::Counter(c) => Series::Counter(Arc::clone(c)),
            Series::Gauge(g) => Series::Gauge(Arc::clone(g)),
            Series::Histogram(h) => Series::Histogram(Arc::clone(h)),
        };
        entries.push(Entry {
            name: name.to_string(),
            labels: body,
            help,
            series,
        });
        handle
    }

    /// Get-or-register a monotonically increasing counter.
    pub fn counter(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<AtomicU64> {
        match self.series(name, help, labels, || {
            Series::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get-or-register a gauge (a settable value).
    pub fn gauge(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Arc<AtomicU64> {
        match self.series(name, help, labels, || {
            Series::Gauge(Arc::new(AtomicU64::new(0)))
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get-or-register a latency histogram.
    pub fn histogram(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<LatencyHistogram> {
        match self.series(name, help, labels, || {
            Series::Histogram(Arc::new(LatencyHistogram::new()))
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Renders every registered series as Prometheus text exposition,
    /// grouped by metric name with `# HELP` / `# TYPE` headers.
    pub fn render(&self, out: &mut String) {
        let entries = self.entries.lock().unwrap();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            (entries[a].name.as_str(), entries[a].labels.as_str())
                .cmp(&(entries[b].name.as_str(), entries[b].labels.as_str()))
        });
        let mut last_name = "";
        for &i in &order {
            let entry = &entries[i];
            if entry.name != last_name {
                if !entry.help.is_empty() {
                    out.push_str("# HELP ");
                    out.push_str(&entry.name);
                    out.push(' ');
                    out.push_str(entry.help);
                    out.push('\n');
                }
                write_type(out, &entry.name, entry.series.kind());
                last_name = &entry.name;
            }
            match &entry.series {
                Series::Counter(c) | Series::Gauge(c) => {
                    write_sample(out, &entry.name, &entry.labels, c.load(Ordering::Relaxed));
                }
                Series::Histogram(h) => {
                    let mut buckets = Vec::new();
                    h.for_each_bucket(|le, n| buckets.push((le, n)));
                    render_histogram_series(
                        out,
                        &entry.name,
                        &entry.labels,
                        &buckets,
                        h.total_micros(),
                        h.count(),
                    );
                }
            }
        }
    }
}

/// One histogram parsed back out of an exposition: non-cumulative
/// `(upper_edge, count)` buckets in ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-cumulative `(le, count)` pairs, ascending by `le`.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of observations (µs).
    pub sum: u64,
    /// Total observation count.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Rebuilds a [`LatencyHistogram`] holding these observations.  The
    /// rebuild is lossless: every bucket edge maps back to its own bucket
    /// ([`LatencyHistogram::add_bucket_with_le`]), so counts, sum and every
    /// quantile equal those of the histogram that was rendered.
    pub fn to_histogram(&self) -> LatencyHistogram {
        let h = LatencyHistogram::new();
        for &(le, n) in &self.buckets {
            h.add_bucket_with_le(le, n);
        }
        h.add_total_micros(self.sum);
        h
    }

    /// Quantile over the snapshot's pooled observations.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        self.to_histogram().quantile_micros(q)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn merge_from(&mut self, other: &HistogramSnapshot) {
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(le, n) in &other.buckets {
            let slot = merged.entry(le).or_insert(0);
            *slot = slot.saturating_add(n);
        }
        self.buckets = merged.into_iter().collect();
        self.sum = self.sum.saturating_add(other.sum);
        self.count = self.count.saturating_add(other.count);
    }
}

/// A parsed Prometheus-style exposition, mergeable across sources.  Keys are
/// the full series identity as rendered (`name{k="v"}` or bare `name`);
/// histogram keys drop the `le` label and the `_bucket` suffix.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter series by full key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge series by full key.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram series by full key (without `le`).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Splits a series key into `(name, label_body)`.
pub(crate) fn split_key(key: &str) -> (&str, &str) {
    match key.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}').unwrap_or(rest)),
        None => (key, ""),
    }
}

/// Removes the label `le` from a label body, returning `(rest, le_value)`.
/// Label values in this system never contain commas or escaped quotes, which
/// keeps this (and the exposition parser) a plain split.
fn extract_le(labels: &str) -> (String, Option<String>) {
    let mut rest = Vec::new();
    let mut le = None;
    for part in labels.split(',') {
        if part.is_empty() {
            continue;
        }
        if let Some(value) = part.strip_prefix("le=\"") {
            le = Some(value.trim_end_matches('"').to_string());
        } else {
            rest.push(part);
        }
    }
    (rest.join(","), le)
}

impl MetricsSnapshot {
    /// Parses a text exposition (as produced by [`MetricsRegistry::render`]
    /// or [`MetricsSnapshot::render`]).  Series without a preceding `# TYPE`
    /// line are treated as counters.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        // (key) -> cumulative (le, count) samples, in file order.
        let mut raw_buckets: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
        let mut snapshot = MetricsSnapshot::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or_else(|| format!("bad TYPE line: {line}"))?;
                let kind = it.next().ok_or_else(|| format!("bad TYPE line: {line}"))?;
                types.insert(name.to_string(), kind.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (key, value_str) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("bad sample line: {line}"))?;
            let (name, labels) = split_key(key);
            // Histogram sub-series?
            let hist_base = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                    .map(|base| (base, *suffix))
            });
            if let Some((base, suffix)) = hist_base {
                let (rest_labels, le) = extract_le(labels);
                let hist_key = if rest_labels.is_empty() {
                    base.to_string()
                } else {
                    format!("{base}{{{rest_labels}}}")
                };
                let value: u64 = value_str
                    .parse()
                    .map_err(|_| format!("bad value: {line}"))?;
                match suffix {
                    "_bucket" => {
                        let Some(le) = le else {
                            return Err(format!("bucket line without le: {line}"));
                        };
                        if le != "+Inf" {
                            let le: u64 =
                                le.parse().map_err(|_| format!("bad le value: {line}"))?;
                            raw_buckets.entry(hist_key).or_default().push((le, value));
                        }
                    }
                    "_sum" => snapshot.histograms.entry(hist_key).or_default().sum = value,
                    _ => snapshot.histograms.entry(hist_key).or_default().count = value,
                }
                continue;
            }
            let value: u64 = value_str
                .parse()
                .map_err(|_| format!("bad value: {line}"))?;
            match types.get(name).map(String::as_str) {
                Some("gauge") => {
                    snapshot.gauges.insert(key.to_string(), value);
                }
                _ => {
                    snapshot.counters.insert(key.to_string(), value);
                }
            }
        }
        // De-cumulate the bucket samples.
        for (key, mut cum) in raw_buckets {
            cum.sort_by_key(|&(le, _)| le);
            let entry = snapshot.histograms.entry(key).or_default();
            let mut prev = 0u64;
            entry.buckets = cum
                .into_iter()
                .map(|(le, c)| {
                    let n = c.saturating_sub(prev);
                    prev = c;
                    (le, n)
                })
                .collect();
        }
        Ok(snapshot)
    }

    /// Pools another snapshot into this one: counters and gauges sum
    /// (saturating: a shard's reply is input, not a trusted total),
    /// histograms merge bucket-wise (quantiles of the merge are quantiles of
    /// the pooled observations).
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (mine, theirs) in [
            (&mut self.counters, &other.counters),
            (&mut self.gauges, &other.gauges),
        ] {
            for (key, &value) in theirs {
                let slot = mine.entry(key.clone()).or_insert(0);
                *slot = slot.saturating_add(value);
            }
        }
        for (key, hist) in &other.histograms {
            self.histograms
                .entry(key.clone())
                .or_default()
                .merge_from(hist);
        }
    }

    /// Looks up a counter by full key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.get(key).copied()
    }

    /// Looks up a histogram by full key (without `le`).
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(key)
    }

    /// Sums every counter whose name part (before `{`) equals `name`.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(key, _)| split_key(key).0 == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Renders the snapshot back to text exposition (what the router serves
    /// for its aggregated `METRICS`).
    pub fn render(&self, out: &mut String) {
        let mut last_name = "";
        for (key, value) in &self.counters {
            let (name, labels) = split_key(key);
            if name != last_name {
                write_type(out, name, "counter");
                last_name = split_key(key).0;
            }
            write_sample(out, name, labels, *value);
        }
        last_name = "";
        for (key, value) in &self.gauges {
            let (name, labels) = split_key(key);
            if name != last_name {
                write_type(out, name, "gauge");
                last_name = split_key(key).0;
            }
            write_sample(out, name, labels, *value);
        }
        last_name = "";
        for (key, hist) in &self.histograms {
            let (name, labels) = split_key(key);
            if name != last_name {
                write_type(out, name, "histogram");
                last_name = split_key(key).0;
            }
            render_histogram_series(out, name, labels, &hist.buckets, hist.sum, hist.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn registry_render_parse_round_trip() {
        let registry = MetricsRegistry::new();
        let hits = registry.counter("bsp_cache_hits_total", "cache hits", &[("kind", "exact")]);
        hits.fetch_add(7, Ordering::Relaxed);
        let warm = registry.counter("bsp_cache_hits_total", "cache hits", &[("kind", "warm")]);
        warm.fetch_add(3, Ordering::Relaxed);
        let inflight = registry.gauge("bsp_inflight", "in-flight requests", &[]);
        inflight.store(2, Ordering::Relaxed);
        let lat = registry.histogram(
            "bsp_request_latency_micros",
            "request latency",
            &[("source", "exact")],
        );
        for micros in [3u64, 10, 1100, 5000] {
            lat.record(Duration::from_micros(micros));
        }

        let mut text = String::new();
        registry.render(&mut text);
        let snap = MetricsSnapshot::parse(&text).expect("parse");
        assert_eq!(
            snap.counter("bsp_cache_hits_total{kind=\"exact\"}"),
            Some(7)
        );
        assert_eq!(snap.counter_sum("bsp_cache_hits_total"), 10);
        assert_eq!(snap.gauges.get("bsp_inflight"), Some(&2));
        let hist = snap
            .histogram("bsp_request_latency_micros{source=\"exact\"}")
            .expect("histogram parsed");
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 3 + 10 + 1100 + 5000);
        // The parsed histogram answers the same quantiles as the source.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(hist.quantile_micros(q), lat.quantile_micros(q), "q={q}");
        }
    }

    #[test]
    fn registry_get_or_register_returns_same_handle() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x_total", "", &[("s", "1")]);
        let b = registry.counter("x_total", "", &[("s", "1")]);
        a.fetch_add(5, Ordering::Relaxed);
        assert_eq!(b.load(Ordering::Relaxed), 5);
        // Different labels are a different series.
        let c = registry.counter("x_total", "", &[("s", "2")]);
        assert_eq!(c.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn snapshot_merge_pools_histograms_and_sums_counters() {
        // Two "shards" record disjoint populations; the merged snapshot must
        // answer quantiles identical to a single histogram holding both.
        let make = |values: &[u64]| {
            let registry = MetricsRegistry::new();
            let h = registry.histogram("lat_micros", "", &[]);
            let c = registry.counter("req_total", "", &[]);
            for &v in values {
                h.record(Duration::from_micros(v));
                c.fetch_add(1, Ordering::Relaxed);
            }
            let mut text = String::new();
            registry.render(&mut text);
            MetricsSnapshot::parse(&text).unwrap()
        };
        let shard_a: Vec<u64> = (0..50).map(|i| i * 13 % 4000).collect();
        let shard_b: Vec<u64> = (0..70).map(|i| i * 101 % 9000).collect();
        let mut merged = make(&shard_a);
        merged.merge_from(&make(&shard_b));

        let pooled = LatencyHistogram::new();
        for &v in shard_a.iter().chain(&shard_b) {
            pooled.record(Duration::from_micros(v));
        }
        assert_eq!(merged.counter("req_total"), Some(120));
        let hist = merged.histogram("lat_micros").unwrap();
        assert_eq!(hist.count, 120);
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(hist.quantile_micros(q), pooled.quantile_micros(q), "q={q}");
        }
        // And the re-rendered merge parses back to the same state.
        let mut text = String::new();
        merged.render(&mut text);
        let reparsed = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(reparsed.histogram("lat_micros"), Some(hist));
    }

    #[test]
    fn span_set_caps_and_flags_truncation() {
        let mut set = SpanSet::new();
        for i in 0..MAX_SPANS {
            set.push("solve", 0, i as u64, 1);
        }
        assert!(!set.truncated());
        set.push("respond", 0, 0, 1);
        assert_eq!(set.len(), MAX_SPANS);
        assert!(set.truncated());
    }

    #[test]
    fn a_span_reads_its_name_back_and_saturates_its_clock() {
        let known = &SPAN_NAMES[..SPAN_NAMES.len() - 1];
        let mut set = SpanSet::new();
        for (depth, &name) in known.iter().enumerate() {
            set.push(name, depth as u8, depth as u64, 7);
        }
        let names: Vec<&str> = set.spans().iter().map(Span::name).collect();
        assert_eq!(names, known);
        let sample = PhaseSample {
            name: "hccs",
            depth: 0,
            start_us: 5,
            dur_us: u64::from(u32::MAX) + 1,
        };
        set.clear();
        set.push_shifted(sample, 1, u64::MAX - 2);
        let span = set.spans()[0];
        assert_eq!((span.name(), span.depth), ("hccs", 1));
        assert_eq!((span.start_us, span.dur_us), (u32::MAX, u32::MAX));
    }

    #[test]
    fn journal_lookup_and_slow_log() {
        let journal = TraceJournal::new(4, 2);
        let make = |id: u64, total: u64| {
            let mut spans = SpanSet::new();
            spans.push("respond", 0, 0, total);
            journal.record(TraceRecord {
                trace_id: id,
                source: "cold",
                shard: -1,
                total_us: total,
                spans,
            });
        };
        for (id, total) in [(1, 10), (2, 500), (3, 20), (4, 300), (5, 40), (6, 30)] {
            make(id, total);
        }
        // Ring of 4 keeps the last four (3..=6); slow log keeps worst two.
        assert!(journal.lookup(1).is_none());
        assert!(journal.lookup(6).is_some());
        let slow = journal.snapshot_slow();
        assert_eq!(
            slow.iter().map(|r| r.trace_id).collect::<Vec<_>>(),
            vec![2, 4]
        );
        // Slow entries stay findable after falling out of the ring.
        assert_eq!(journal.lookup(2).unwrap().total_us, 500);
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let gen = TraceIdGen::new();
        let a = gen.mint();
        let b = gen.mint();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }
}
