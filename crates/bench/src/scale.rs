//! Scale-bench bookkeeping: the `scale.tsv` schema and the
//! memory-regression gate shared by `sp_scale_bench` and the CI
//! `bench-gate` job.
//!
//! Unlike the kernel bench, the gated quantities here are
//! **deterministic byte counts** from the [`ByteTally`] accounting of
//! the blocked pipeline — not wall-clock medians — so the gate is
//! meaningful even on a noisy shared runner. Rows with
//! `unit == "bytes"` gate the build; `unit == "ns"` rows (wall time)
//! and `unit == "count"` rows are recorded for humans reading the
//! artefact but never gate.

/// Byte accounting for the blocked pipeline: `current` live tracked
/// bytes and their `peak` high-water mark. The workspace forbids
/// `unsafe`, so there is no allocator hook; the bench adds each
/// buffer's size when it is allocated and releases it when it is
/// dropped, which makes the peak a deterministic function of graph
/// shape and band height.
#[derive(Clone, Copy, Debug, Default)]
pub struct ByteTally {
    current: u64,
    peak: u64,
}

impl ByteTally {
    /// Accounts `bytes` as live.
    pub fn add(&mut self, bytes: u64) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
    }

    /// Releases `bytes` previously accounted with [`ByteTally::add`].
    pub fn release(&mut self, bytes: u64) {
        self.current = self
            .current
            .checked_sub(bytes)
            .expect("released more bytes than were added");
    }

    /// Bytes accounted as live right now.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// High-water mark of [`ByteTally::current`].
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

/// One recorded scale metric, i.e. one TSV row.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleRow {
    /// Metric name (`blocked_peak_bytes`, `graph_bytes`, …).
    pub metric: String,
    /// `bytes` (gated), `ns`, or `count` (informational).
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

/// Column order of `scale.tsv`.
pub const SCALE_TSV_HEADER: [&str; 3] = ["metric", "unit", "value"];

/// Parses `scale.tsv` text (header + rows) back into rows. Unknown
/// extra columns are rejected so a schema change cannot silently
/// disarm the gate.
pub fn parse_scale_tsv(text: &str) -> Result<Vec<ScaleRow>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty scale.tsv")?;
    let cols: Vec<&str> = header.split('\t').collect();
    if cols != SCALE_TSV_HEADER {
        return Err(format!(
            "scale.tsv header mismatch: expected {:?}, got {cols:?}",
            SCALE_TSV_HEADER
        ));
    }
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != SCALE_TSV_HEADER.len() {
            return Err(format!(
                "row {}: expected {} fields, got {}",
                i + 2,
                SCALE_TSV_HEADER.len(),
                f.len()
            ));
        }
        rows.push(ScaleRow {
            metric: f[0].to_string(),
            unit: f[1].to_string(),
            value: f[2]
                .parse()
                .map_err(|e| format!("row {}: bad value: {e}", i + 2))?,
        });
    }
    Ok(rows)
}

/// Outcome of a baseline-vs-fresh comparison over the byte metrics.
#[derive(Debug, Default)]
pub struct ScaleGateOutcome {
    /// Gated rows compared (baseline `bytes` rows found in fresh).
    pub compared: usize,
    /// Human-readable regression lines, one per failing metric.
    pub regressions: Vec<String>,
    /// Baseline `bytes` rows with no fresh counterpart — a removed
    /// metric also fails (it cannot be "not bigger").
    pub missing: Vec<String>,
}

impl ScaleGateOutcome {
    /// True when every gated metric is within tolerance and none
    /// disappeared.
    pub fn pass(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares fresh byte metrics against the committed baseline: a
/// `bytes` row regresses when `fresh > baseline * (1 + tolerance)`.
/// The counts are deterministic, but `Vec` growth capacities can shift
/// across toolchains, so the gate keeps a tolerance instead of
/// demanding equality. Fresh-only rows (a newly tracked metric) pass
/// until the baseline is re-committed.
pub fn compare_scale(
    baseline: &[ScaleRow],
    fresh: &[ScaleRow],
    tolerance: f64,
) -> ScaleGateOutcome {
    let mut out = ScaleGateOutcome::default();
    for b in baseline.iter().filter(|r| r.unit == "bytes") {
        let Some(f) = fresh
            .iter()
            .find(|r| r.metric == b.metric && r.unit == b.unit)
        else {
            out.missing
                .push(format!("{} missing from fresh run", b.metric));
            continue;
        };
        out.compared += 1;
        let limit = b.value * (1.0 + tolerance);
        if f.value > limit {
            out.regressions.push(format!(
                "{}: {:.0} bytes vs baseline {:.0} bytes (+{:.1}%, limit +{:.0}%)",
                b.metric,
                f.value,
                b.value,
                100.0 * (f.value / b.value - 1.0),
                100.0 * tolerance,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(metric: &str, unit: &str, value: f64) -> ScaleRow {
        ScaleRow {
            metric: metric.into(),
            unit: unit.into(),
            value,
        }
    }

    #[test]
    fn peak_is_high_water_mark() {
        let mut t = ByteTally::default();
        t.add(100);
        t.add(50);
        assert_eq!(t.current(), 150);
        t.release(50);
        assert_eq!(t.current(), 100);
        assert_eq!(t.peak(), 150);
        t.release(100);
        assert_eq!(t.current(), 0);
        assert_eq!(t.peak(), 150);
    }

    #[test]
    fn tsv_round_trips() {
        let rows = vec![
            row("blocked_peak_bytes", "bytes", 1048576.0),
            row("wall_ns", "ns", 12345.0),
        ];
        let mut text = SCALE_TSV_HEADER.join("\t") + "\n";
        for r in &rows {
            text += &format!("{}\t{}\t{}\n", r.metric, r.unit, r.value);
        }
        assert_eq!(parse_scale_tsv(&text).unwrap(), rows);
    }

    #[test]
    fn tsv_rejects_wrong_header_and_short_rows() {
        assert!(parse_scale_tsv("").is_err());
        assert!(parse_scale_tsv("a\tb\tc\n").is_err());
        let bad = SCALE_TSV_HEADER.join("\t") + "\nblocked_peak_bytes\tbytes\n";
        assert!(parse_scale_tsv(&bad).is_err());
    }

    #[test]
    fn gate_ignores_time_rows_and_gates_byte_rows() {
        let base = vec![
            row("blocked_peak_bytes", "bytes", 100.0),
            row("wall_ns", "ns", 100.0),
        ];
        // Bytes within tolerance; wall time wildly slower but ungated.
        let fresh = vec![
            row("blocked_peak_bytes", "bytes", 110.0),
            row("wall_ns", "ns", 9000.0),
        ];
        let out = compare_scale(&base, &fresh, 0.15);
        assert!(out.pass(), "{out:?}");
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn gate_fails_beyond_tolerance() {
        let base = vec![row("blocked_peak_bytes", "bytes", 100.0)];
        let fresh = vec![row("blocked_peak_bytes", "bytes", 116.0)];
        let out = compare_scale(&base, &fresh, 0.15);
        assert!(!out.pass());
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].contains("blocked_peak_bytes"));
    }

    #[test]
    fn gate_fails_when_a_gated_metric_disappears() {
        let base = vec![row("blocked_peak_bytes", "bytes", 100.0)];
        let out = compare_scale(&base, &[], 0.15);
        assert!(!out.pass());
        assert_eq!(out.missing.len(), 1);
    }

    #[test]
    fn fresh_only_metrics_do_not_gate_until_baselined() {
        let fresh = vec![row("new_metric", "bytes", 10.0)];
        let out = compare_scale(&[], &fresh, 0.15);
        assert!(out.pass());
        assert_eq!(out.compared, 0);
    }
}
