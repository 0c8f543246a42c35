//! Scale-bench bookkeeping: the byte tally behind `sp_scale_bench`'s
//! gated metrics, and how each metric becomes a [`crate::gate`] row.
//!
//! Unlike the kernel bench, the scale bench gates **deterministic byte
//! counts** from the [`ByteTally`] accounting of the blocked pipeline,
//! not wall-clock medians, so its gate is meaningful even on a noisy
//! shared runner. Its `bytes` rows carry `gate = 1` in the shared
//! [`crate::gate`] schema; its `ns` (wall time) and `count` rows are
//! recorded for humans reading the artefact but never gate. The counts
//! are deterministic, but `Vec` growth capacities can shift across
//! toolchains, so the gate keeps a tolerance instead of demanding
//! equality.

use crate::gate::Row;

/// The `scale.tsv` row of one metric. Gated exactly when `unit` is
/// `bytes`.
pub fn row(metric: &str, unit: &str, value: f64) -> Row {
    Row {
        metric: metric.to_string(),
        unit: unit.to_string(),
        value,
        gate: unit == "bytes",
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{compare, parse, render};

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
            row("bytes_per_edge", "bytes", 43.92668333333334),
            row("edges", "count", 480000.0),
            row("wall_ns", "ns", 12345.0),
        ];
        assert_eq!(parse(&render(&rows)).unwrap(), rows);
    }

    #[test]
    fn tsv_rejects_wrong_header_and_short_rows() {
        assert!(parse("").is_err());
        // The pre-gate scale.tsv schema: read as a baseline it would
        // gate nothing, so it must not parse.
        assert!(parse("metric\tunit\tvalue\nblocked_peak_bytes\tbytes\t1048576\n").is_err());
        // A byte row that lost its gate column.
        let text = render(&[row("blocked_peak_bytes", "bytes", 1048576.0)]);
        let short = text.trim_end().strip_suffix("\t1").unwrap();
        assert!(parse(short).is_err());
    }

    #[test]
    fn gate_ignores_time_rows_and_gates_byte_rows() {
        let base = vec![
            row("blocked_peak_bytes", "bytes", 100.0),
            row("edges", "count", 100.0),
            row("wall_ns", "ns", 100.0),
        ];
        // Wall time and counts far beyond tolerance never gate.
        let mut fresh = vec![
            row("blocked_peak_bytes", "bytes", 110.0),
            row("edges", "count", 1000.0),
            row("wall_ns", "ns", 1000.0),
        ];
        let out = compare(&base, &fresh, 0.15);
        assert!(out.pass(), "{out:?}");
        assert_eq!(out.compared, 1);
        // The byte row does.
        fresh[0].value = 200.0;
        assert!(!compare(&base, &fresh, 0.15).pass());
    }

    #[test]
    fn gate_fails_beyond_tolerance() {
        let base = vec![row("blocked_peak_bytes", "bytes", 100.0)];
        let fresh = vec![row("blocked_peak_bytes", "bytes", 116.0)];
        let out = compare(&base, &fresh, 0.15);
        assert!(!out.pass());
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("blocked_peak_bytes"));
    }

    #[test]
    fn gate_fails_when_a_gated_metric_disappears() {
        let base = vec![row("blocked_peak_bytes", "bytes", 100.0)];
        assert!(!compare(&base, &[], 0.15).pass());
        // Rows match on metric and unit: the same name in another unit
        // is not the gated row.
        let renamed_unit = vec![row("blocked_peak_bytes", "count", 1.0)];
        let out = compare(&base, &renamed_unit, 0.15);
        assert_eq!(out.compared, 0);
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("missing"), "{out:?}");
    }

    #[test]
    fn fresh_only_metrics_do_not_gate_until_baselined() {
        let fresh = vec![row("new_metric", "bytes", 10.0)];
        let out = compare(&[], &fresh, 0.15);
        assert!(out.pass());
        assert_eq!(out.compared, 0);
    }
}
