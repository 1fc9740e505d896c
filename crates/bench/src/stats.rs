//! Aggregation of experiment results.
//!
//! The paper evaluates every algorithm by the *ratio* of its schedule cost to
//! a baseline's cost on the same instance, aggregates ratios across instances
//! with the geometric mean (more faithful for ratios than the arithmetic
//! mean, §7), and reports either the mean ratio itself (figures, normalized to
//! `Cilk`) or the corresponding percentage reduction `1 − ratio` (tables).

/// Shared assembler for the repo's `BENCH_*.json` benchmark reports.
///
/// Every throughput experiment (`exp_hc`, `exp_multilevel --speedup`,
/// `exp_serve`) writes the same envelope — bench name, UNIX timestamp, a
/// config object, a result array, an optional summary object — and used to
/// hand-roll it.  The builder takes the per-experiment pieces as
/// already-encoded JSON fragments (the rows differ per experiment and stay
/// with their binaries) and assembles one consistently formatted document.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    name: String,
    config: Option<String>,
    results: Vec<String>,
    summary: Option<String>,
}

impl BenchReport {
    /// A report for the benchmark `name` (the envelope's `"bench"` field).
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Sets the `"config"` object (an already-encoded JSON value).
    pub fn set_config_json(&mut self, json: impl Into<String>) {
        self.config = Some(json.into());
    }

    /// Appends one entry to the `"results"` array (already-encoded JSON).
    pub fn push_result_json(&mut self, json: impl Into<String>) {
        self.results.push(json.into());
    }

    /// Sets the `"summary"` object (an already-encoded JSON value).
    pub fn set_summary_json(&mut self, json: impl Into<String>) {
        self.summary = Some(json.into());
    }

    /// Renders the complete JSON document.
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str(&format!("  \"bench\": \"{}\",\n", self.name));
        json.push_str(&format!(
            "  \"unix_time\": {},\n",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0)
        ));
        if let Some(config) = &self.config {
            json.push_str(&format!("  \"config\": {config},\n"));
        }
        json.push_str("  \"results\": [\n");
        json.push_str(&self.results.join(",\n"));
        json.push_str("\n  ]");
        if let Some(summary) = &self.summary {
            json.push_str(&format!(",\n  \"summary\": {summary}"));
        }
        json.push_str("\n}\n");
        json
    }

    /// Writes the document to `path`.  The `"frozen_…"` lines of the file
    /// being replaced — numbers recorded with engines that no longer exist to
    /// be re-run (`frozen_seed`, `frozen_ratio_members`) — are carried into
    /// the new document verbatim.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut json = self.to_json();
        let old = std::fs::read_to_string(path).unwrap_or_default();
        for frozen in old.lines().filter(|l| l.starts_with("  \"frozen_")) {
            json.truncate(json.len() - "\n}\n".len());
            json.push_str(",\n");
            json.push_str(frozen.trim_end_matches(','));
            json.push_str("\n}\n");
        }
        std::fs::write(path, json)
    }
}

/// Number of cores the benchmark host exposes.  Every `BENCH_*.json` config
/// object records it: wall-clock numbers (and especially parallel speedups)
/// are unreproducible without knowing how much hardware the run had.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Geometric mean of a sequence of positive values; `NaN` for an empty input.
pub fn geo_mean<I>(values: I) -> f64
where
    I: IntoIterator<Item = f64>,
{
    let mut log_sum = 0.0f64;
    let mut count = 0usize;
    for v in values {
        debug_assert!(v > 0.0, "geometric mean requires positive values, got {v}");
        log_sum += v.ln();
        count += 1;
    }
    if count == 0 {
        f64::NAN
    } else {
        (log_sum / count as f64).exp()
    }
}

/// Geometric mean of the ratios `ours[i] / baseline[i]`.
///
/// Instances where the baseline cost is zero are skipped (cannot happen for
/// non-empty DAGs, but keeps the harness robust).
pub fn geo_mean_ratio(ours: &[u64], baseline: &[u64]) -> f64 {
    assert_eq!(ours.len(), baseline.len());
    geo_mean(
        ours.iter()
            .zip(baseline)
            .filter(|&(_, &b)| b > 0)
            .map(|(&o, &b)| o.max(1) as f64 / b as f64),
    )
}

/// Percentage cost reduction corresponding to a mean cost ratio, i.e.
/// `100 · (1 − ratio)` — the quantity printed in the paper's tables.
pub fn reduction_pct(ratio: f64) -> f64 {
    100.0 * (1.0 - ratio)
}

/// An incrementally built collection of per-instance costs for one experiment
/// cell (one parameter combination), with ratio queries against any column.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    columns: Vec<(String, Vec<u64>)>,
}

impl Aggregate {
    /// Creates an empty aggregate with the given column names.
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> Self {
        Aggregate {
            columns: columns
                .into_iter()
                .map(|c| (c.into(), Vec::new()))
                .collect(),
        }
    }

    /// Appends one instance's costs; `costs` must match the column order.
    pub fn push(&mut self, costs: &[u64]) {
        assert_eq!(costs.len(), self.columns.len(), "column count mismatch");
        for (col, &c) in self.columns.iter_mut().zip(costs) {
            col.1.push(c);
        }
    }

    /// Number of instances recorded.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.1.len())
    }

    /// `true` when no instance has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn column(&self, name: &str) -> &[u64] {
        &self
            .columns
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown column {name}"))
            .1
    }

    /// The raw per-instance costs recorded under `name`.
    pub fn raw_column(&self, name: &str) -> &[u64] {
        self.column(name)
    }

    /// Appends every row of `other` (which must have the same columns in the
    /// same order); used to merge per-cell aggregates into coarser ones.
    pub fn extend_from(&mut self, other: &Aggregate) {
        assert_eq!(
            self.columns.len(),
            other.columns.len(),
            "column count mismatch"
        );
        for (mine, theirs) in self.columns.iter_mut().zip(&other.columns) {
            assert_eq!(mine.0, theirs.0, "column name mismatch");
            mine.1.extend_from_slice(&theirs.1);
        }
    }

    /// Geometric-mean ratio of column `ours` against column `baseline`.
    pub fn ratio(&self, ours: &str, baseline: &str) -> f64 {
        geo_mean_ratio(self.column(ours), self.column(baseline))
    }

    /// Percentage reduction of column `ours` against column `baseline`.
    pub fn reduction(&self, ours: &str, baseline: &str) -> f64 {
        reduction_pct(self.ratio(ours, baseline))
    }

    /// Number of instances where column `ours` is strictly cheaper than
    /// column `other`.
    pub fn wins(&self, ours: &str, other: &str) -> usize {
        self.column(ours)
            .iter()
            .zip(self.column(other))
            .filter(|&(&a, &b)| a < b)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_assembles_the_shared_envelope() {
        let mut report = BenchReport::new("demo");
        report.set_config_json("{\"target\": 10}");
        report.push_result_json("    {\"a\": 1}");
        report.push_result_json("    {\"a\": 2}");
        report.set_summary_json("{\"runs\": 2}");
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"unix_time\": "));
        assert!(json.contains("\"config\": {\"target\": 10}"));
        assert!(json.contains("{\"a\": 1},\n"));
        assert!(json.contains("\"summary\": {\"runs\": 2}\n}\n"));
    }

    #[test]
    fn write_carries_the_frozen_seed_block_over() {
        let path = std::env::temp_dir().join(format!("bench_report_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let frozen = "  \"frozen_seed\": {\"rows\": [1, 2]}";
        std::fs::write(path, format!("{{\n{frozen},\n  \"results\": []\n}}\n")).unwrap();
        let mut report = BenchReport::new("demo");
        report.push_result_json("    {\"a\": 1}");
        report.write(path).unwrap();
        report.write(path).unwrap();
        let json = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert!(json.ends_with(&format!("\n  ],\n{frozen}\n}}\n")), "{json}");
        assert_eq!(json.matches("frozen_seed").count(), 1);
    }

    #[test]
    fn geo_mean_of_constants_is_the_constant() {
        assert!((geo_mean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_of_reciprocal_pair_is_one() {
        assert!((geo_mean([4.0, 0.25]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_of_empty_input_is_nan() {
        assert!(geo_mean(std::iter::empty()).is_nan());
    }

    #[test]
    fn ratio_and_reduction_match_by_hand() {
        let ours = [50, 80];
        let base = [100, 100];
        let r = geo_mean_ratio(&ours, &base);
        assert!((r - (0.5f64 * 0.8).sqrt()).abs() < 1e-12);
        assert!((reduction_pct(0.75) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_tracks_columns_and_wins() {
        let mut agg = Aggregate::new(["ours", "cilk"]);
        agg.push(&[60, 100]);
        agg.push(&[90, 100]);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg.wins("ours", "cilk"), 2);
        let expected = (0.6f64 * 0.9).sqrt();
        assert!((agg.ratio("ours", "cilk") - expected).abs() < 1e-12);
        assert!((agg.reduction("ours", "cilk") - 100.0 * (1.0 - expected)).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn aggregate_rejects_mismatched_rows() {
        let mut agg = Aggregate::new(["a", "b"]);
        agg.push(&[1]);
    }

    #[test]
    fn extend_from_merges_rows_and_raw_column_exposes_them() {
        let mut a = Aggregate::new(["ours", "cilk"]);
        a.push(&[50, 100]);
        let mut b = Aggregate::new(["ours", "cilk"]);
        b.push(&[75, 100]);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.raw_column("ours"), &[50, 75]);
        let expected = (0.5f64 * 0.75).sqrt();
        assert!((a.ratio("ours", "cilk") - expected).abs() < 1e-12);
    }
}
