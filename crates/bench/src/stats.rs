//! Aggregation of experiment results.
//!
//! The paper evaluates every algorithm by the *ratio* of its schedule cost to
//! a baseline's cost on the same instance, aggregates ratios across instances
//! with the geometric mean (more faithful for ratios than the arithmetic
//! mean, §7), and reports either the mean ratio itself (figures, normalized to
//! `Cilk`) or the corresponding percentage reduction `1 − ratio` (tables).

use crate::eval::AlgoCosts;

/// Shared assembler for the repo's `BENCH_*.json` benchmark reports.
///
/// Every recorded experiment (`exp_multilevel`, `exp_serve`, `exp_paper`)
/// writes the same envelope — bench name, UNIX timestamp, a
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
    /// be re-run (`BENCH_pipeline.json`'s `frozen_seed`) — are carried into the new
    /// document verbatim.
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

/// Geometric mean over `rows` of the cost ratio `ours(row) / baseline(row)`,
/// e.g. `geo_mean_ratio(rows, |c| c.ours, |c| c.cilk)`.
///
/// Rows where the baseline cost is zero are skipped (cannot happen for
/// non-empty DAGs, but keeps the harness robust).
pub fn geo_mean_ratio(
    rows: &[AlgoCosts],
    ours: impl Fn(&AlgoCosts) -> u64,
    baseline: impl Fn(&AlgoCosts) -> u64,
) -> f64 {
    geo_mean(
        rows.iter()
            .filter(|&c| baseline(c) > 0)
            .map(|c| ours(c).max(1) as f64 / baseline(c) as f64),
    )
}

/// Percentage cost reduction corresponding to a mean cost ratio, i.e.
/// `100 · (1 − ratio)` — the quantity printed in the paper's tables.
pub fn reduction_pct(ratio: f64) -> f64 {
    100.0 * (1.0 - ratio)
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
        let row = |ours, cilk| AlgoCosts {
            cilk,
            bl_est: 0,
            etf: 0,
            hdagg: 0,
            init: ours,
            ours,
        };
        let rows = [row(50, 100), row(80, 100)];
        let r = geo_mean_ratio(&rows, |c| c.ours, |c| c.cilk);
        assert!((r - (0.5f64 * 0.8).sqrt()).abs() < 1e-12);
        assert!(geo_mean_ratio(&rows, |c| c.ours, |c| c.etf).is_nan());
        assert!((reduction_pct(0.75) - 25.0).abs() < 1e-12);
    }
}
