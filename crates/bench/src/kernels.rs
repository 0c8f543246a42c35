//! Kernel-bench bookkeeping: how `sp_kernel_bench` records one measured
//! kernel configuration as a row of the shared [`crate::gate`] schema.
//!
//! Each kernel/variant/dim median becomes the metric
//! `<kernel>.<variant>.<dim>` in `ns`. Only `lanes` rows (the shipping
//! kernels) gate the build; `scalar` rows are reference points for the
//! speedup column and for humans reading the artefact.

use crate::gate::Row;

/// The `kernels.tsv` row of one measured configuration: `kernel`
/// (`dot_f64`, `dot_rows_f64`, `axpy_f64`, `clip_norm_f64`, `dot_f32`,
/// `dist2_sq_f32`, `noise_row`) in `variant` (`scalar` reference loop or
/// `lanes` shipping kernel) at vector length `dim`, with its median
/// nanoseconds per call. Gated exactly when `variant` is `lanes`.
pub fn row(kernel: &str, variant: &str, dim: usize, median_ns: f64) -> Row {
    Row {
        metric: format!("{kernel}.{variant}.{dim}"),
        unit: "ns".to_string(),
        value: median_ns,
        gate: variant == "lanes",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{compare, parse, render};

    #[test]
    fn tsv_round_trips() {
        let rows = vec![
            row("dot_f64", "lanes", 128, 41.5),
            row("dot_f64", "scalar", 128, 103.0),
            row("noise_row", "lanes", 128, 1234.56),
        ];
        assert_eq!(rows[0].metric, "dot_f64.lanes.128");
        assert_eq!(parse(&render(&rows)).unwrap(), rows);
    }

    #[test]
    fn tsv_rejects_wrong_header_and_short_rows() {
        assert!(parse("").is_err());
        // The pre-gate kernels.tsv schema: read as a baseline it would
        // gate nothing, so it must not parse.
        assert!(parse("kernel\tvariant\tdim\tmedian_ns\ndot_f64\tlanes\t128\t44.26\n").is_err());
        // A kernel row that lost its gate column.
        let text = render(&[row("dot_f64", "lanes", 128, 41.5)]);
        let short = text.trim_end().strip_suffix("\t1").unwrap();
        assert!(parse(short).is_err());
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
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("dot_f64.lanes.128"));
    }

    #[test]
    fn gate_fails_when_a_gated_kernel_disappears() {
        let base = vec![row("dot_f64", "lanes", 128, 100.0)];
        assert!(!compare(&base, &[], 0.15).pass());
        // The same kernel at another dim is another metric.
        let other_dim = vec![row("dot_f64", "lanes", 64, 50.0)];
        let out = compare(&base, &other_dim, 0.15);
        assert_eq!(out.compared, 0);
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("missing"), "{out:?}");
    }

    #[test]
    fn fresh_only_kernels_do_not_gate_until_baselined() {
        let fresh = vec![row("new_kernel", "lanes", 64, 10.0)];
        let out = compare(&[], &fresh, 0.15);
        assert!(out.pass());
        assert_eq!(out.compared, 0);
    }
}
