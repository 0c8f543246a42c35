//! Kernel-bench bookkeeping: the `kernels.tsv` schema, median helper,
//! and the regression-gate comparison shared by `sp_kernel_bench` and
//! the CI `bench-gate` job.
//!
//! The TSV is the gate's interface: CI re-runs the bench into a fresh
//! directory and diffs the new per-kernel medians against the
//! committed baseline at `crates/bench/results/kernels.tsv`. Only
//! `variant == "lanes"` rows (the shipping kernels) gate the build;
//! `scalar` rows are reference points for the speedup column and for
//! humans reading the artefact.

/// One measured kernel configuration, i.e. one TSV row.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelRow {
    /// Kernel name (`dot_f64`, `dot_rows_f64`, `axpy_f64`,
    /// `clip_norm_f64`, `dot_f32`, `dist2_sq_f32`, `noise_row`).
    pub kernel: String,
    /// `scalar` (reference loop) or `lanes` (shipping kernel).
    pub variant: String,
    /// Vector length the kernel was measured at.
    pub dim: usize,
    /// Median nanoseconds per kernel call across all repetitions.
    pub median_ns: f64,
}

impl KernelRow {
    /// Identity of the measurement: medians are only comparable
    /// between rows with equal keys.
    pub fn key(&self) -> (String, String, usize) {
        (self.kernel.clone(), self.variant.clone(), self.dim)
    }
}

/// Column order of `kernels.tsv`.
pub const TSV_HEADER: [&str; 4] = ["kernel", "variant", "dim", "median_ns"];

/// Median of a sample set (midpoint average for even counts).
/// Panics on an empty slice — a bench that produced no samples is a
/// harness bug, not a measurement.
pub fn median_ns(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median_ns: no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Parses `kernels.tsv` text (header + rows) back into rows.
/// Unknown extra columns are rejected so that a schema change cannot
/// silently disarm the gate.
pub fn parse_tsv(text: &str) -> Result<Vec<KernelRow>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty kernels.tsv")?;
    let cols: Vec<&str> = header.split('\t').collect();
    if cols != TSV_HEADER {
        return Err(format!(
            "kernels.tsv header mismatch: expected {:?}, got {cols:?}",
            TSV_HEADER
        ));
    }
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != TSV_HEADER.len() {
            return Err(format!(
                "row {}: expected {} fields, got {}",
                i + 2,
                TSV_HEADER.len(),
                f.len()
            ));
        }
        rows.push(KernelRow {
            kernel: f[0].to_string(),
            variant: f[1].to_string(),
            dim: f[2]
                .parse()
                .map_err(|e| format!("row {}: bad dim: {e}", i + 2))?,
            median_ns: f[3]
                .parse()
                .map_err(|e| format!("row {}: bad median_ns: {e}", i + 2))?,
        });
    }
    Ok(rows)
}

/// Outcome of a baseline-vs-fresh comparison.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Gated rows compared (baseline `lanes` rows found in fresh).
    pub compared: usize,
    /// Human-readable regression lines, one per failing kernel.
    pub regressions: Vec<String>,
    /// Baseline `lanes` rows with no fresh counterpart — a removed
    /// kernel also fails the gate (it cannot be "not slower").
    pub missing: Vec<String>,
}

impl GateOutcome {
    /// True when every gated kernel is within tolerance and none
    /// disappeared.
    pub fn pass(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares fresh medians against the committed baseline.
///
/// A `lanes` row regresses when
/// `fresh > baseline * (1 + tolerance)`; `tolerance` is fractional
/// (0.15 = the 15% gate). Fresh-only rows (a newly added kernel) are
/// fine: they become gated once the baseline is re-committed.
pub fn compare(baseline: &[KernelRow], fresh: &[KernelRow], tolerance: f64) -> GateOutcome {
    let mut out = GateOutcome::default();
    for b in baseline.iter().filter(|r| r.variant == "lanes") {
        let Some(f) = fresh.iter().find(|r| r.key() == b.key()) else {
            out.missing
                .push(format!("{} dim={} missing from fresh run", b.kernel, b.dim));
            continue;
        };
        out.compared += 1;
        let limit = b.median_ns * (1.0 + tolerance);
        if f.median_ns > limit {
            out.regressions.push(format!(
                "{} dim={}: {:.1} ns vs baseline {:.1} ns (+{:.0}%, limit +{:.0}%)",
                b.kernel,
                b.dim,
                f.median_ns,
                b.median_ns,
                100.0 * (f.median_ns / b.median_ns - 1.0),
                100.0 * tolerance,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kernel: &str, variant: &str, dim: usize, median_ns: f64) -> KernelRow {
        KernelRow {
            kernel: kernel.into(),
            variant: variant.into(),
            dim,
            median_ns,
        }
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median_ns(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_ns(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_ns(&mut [7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_rejects_empty() {
        median_ns(&mut []);
    }

    #[test]
    fn tsv_round_trips() {
        let rows = vec![
            row("dot_f64", "lanes", 128, 41.5),
            row("dot_f64", "scalar", 128, 103.0),
        ];
        let mut text = TSV_HEADER.join("\t") + "\n";
        for r in &rows {
            text += &format!("{}\t{}\t{}\t{}\n", r.kernel, r.variant, r.dim, r.median_ns);
        }
        assert_eq!(parse_tsv(&text).unwrap(), rows);
    }

    #[test]
    fn tsv_rejects_wrong_header_and_short_rows() {
        assert!(parse_tsv("").is_err());
        assert!(parse_tsv("a\tb\tc\td\n").is_err());
        let bad = TSV_HEADER.join("\t") + "\ndot_f64\tlanes\t128\n";
        assert!(parse_tsv(&bad).is_err());
    }

    #[test]
    fn gate_passes_within_tolerance_and_ignores_scalar_rows() {
        let base = vec![
            row("dot_f64", "lanes", 128, 100.0),
            row("dot_f64", "scalar", 128, 100.0),
        ];
        // lanes within 15%; scalar wildly slower but ungated.
        let fresh = vec![
            row("dot_f64", "lanes", 128, 114.0),
            row("dot_f64", "scalar", 128, 900.0),
        ];
        let out = compare(&base, &fresh, 0.15);
        assert!(out.pass(), "{out:?}");
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn gate_fails_beyond_tolerance() {
        let base = vec![row("dot_f64", "lanes", 128, 100.0)];
        let fresh = vec![row("dot_f64", "lanes", 128, 116.0)];
        let out = compare(&base, &fresh, 0.15);
        assert!(!out.pass());
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].contains("dot_f64"));
    }

    #[test]
    fn gate_fails_when_a_gated_kernel_disappears() {
        let base = vec![row("dot_f64", "lanes", 128, 100.0)];
        let out = compare(&base, &[], 0.15);
        assert!(!out.pass());
        assert_eq!(out.missing.len(), 1);
    }

    #[test]
    fn fresh_only_kernels_do_not_gate_until_baselined() {
        let fresh = vec![row("new_kernel", "lanes", 64, 10.0)];
        let out = compare(&[], &fresh, 0.15);
        assert!(out.pass());
        assert_eq!(out.compared, 0);
    }
}
