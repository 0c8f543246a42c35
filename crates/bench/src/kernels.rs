//! Kernel-bench bookkeeping: how `sp_kernel_bench` records one kernel
//! as rows of the shared [`crate::gate`] schema.
//!
//! Each kernel is timed twice in the same run, as a reference and in
//! its shipping form; both medians are recorded in `ns` as the metrics
//! `<kernel>.reference.<dim>` and `<kernel>.shipping.<dim>`, ungated,
//! for humans reading the artefact. The gated row is their ratio,
//! `<kernel>.ratio.<dim>`: a box's speed moves both medians and
//! cancels from it, while a kernel that loses its lane shape moves it.

use crate::gate::Row;

/// The ungated `kernels.tsv` row of one measurement: `kernel`
/// (`dot_f64`, `dot_rows_f64`, `grad_clip_f64`, `dot_f32`,
/// `dist2_sq_f32`, `dist2_rows_f32`, `noise_row`, `crc32`) in
/// `variant` (`reference` or `shipping`) at vector length `dim` (bytes
/// for `crc32`), with its median nanoseconds per call.
pub fn row(kernel: &str, variant: &str, dim: usize, median_ns: f64) -> Row {
    Row {
        metric: format!("{kernel}.{variant}.{dim}"),
        unit: "ns".to_string(),
        value: median_ns,
        gate: false,
    }
}

/// The gated `kernels.tsv` row of `kernel` at `dim`: the shipping
/// median over the reference median, both as [`row`] records them, so
/// the ratio can be recomputed from the file.
pub fn ratio(kernel: &str, dim: usize, reference_ns: f64, shipping_ns: f64) -> Row {
    Row {
        metric: format!("{kernel}.ratio.{dim}"),
        unit: "ratio".to_string(),
        value: shipping_ns / reference_ns,
        gate: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{compare, parse, render};

    #[test]
    fn tsv_round_trips() {
        let rows = vec![
            row("dot_f64", "reference", 128, 103.0),
            row("dot_f64", "shipping", 128, 41.5),
            ratio("dot_f64", 128, 103.0, 41.5),
            row("noise_row", "shipping", 128, 1234.56),
        ];
        assert_eq!(rows[1].metric, "dot_f64.shipping.128");
        assert_eq!(rows[2].metric, "dot_f64.ratio.128");
        assert_eq!(rows[2].value, 41.5 / 103.0);
        assert_eq!(parse(&render(&rows)).unwrap(), rows);
    }

    #[test]
    fn tsv_rejects_wrong_header_and_short_rows() {
        assert!(parse("").is_err());
        // The pre-gate kernels.tsv schema: read as a baseline it would
        // gate nothing, so it must not parse.
        assert!(parse("kernel\tvariant\tdim\tmedian_ns\ndot_f64\tlanes\t128\t44.26\n").is_err());
        // A ratio row that lost its gate column.
        let text = render(&[ratio("dot_f64", 128, 100.0, 41.5)]);
        let short = text.trim_end().strip_suffix("\t1").unwrap();
        assert!(parse(short).is_err());
    }

    #[test]
    fn gate_passes_within_tolerance_and_ignores_scalar_rows() {
        let base = vec![
            row("dot_f64", "reference", 128, 100.0),
            row("dot_f64", "shipping", 128, 50.0),
            ratio("dot_f64", 128, 100.0, 50.0),
        ];
        // A box twice as slow: both medians double, the ratio holds and
        // the ungated medians do not fail the build.
        let fresh = vec![
            row("dot_f64", "reference", 128, 200.0),
            row("dot_f64", "shipping", 128, 100.0),
            ratio("dot_f64", 128, 200.0, 100.0),
        ];
        let out = compare(&base, &fresh, 0.15);
        assert!(out.pass(), "{out:?}");
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn gate_fails_beyond_tolerance() {
        // The shipping kernel lost its lanes: it now runs as slowly as
        // its reference.
        let base = vec![ratio("dot_f64", 128, 100.0, 50.0)];
        let fresh = vec![ratio("dot_f64", 128, 100.0, 100.0)];
        let out = compare(&base, &fresh, 0.5);
        assert!(!out.pass());
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("dot_f64.ratio.128"));
    }

    #[test]
    fn gate_fails_when_a_gated_kernel_disappears() {
        let base = vec![ratio("dot_f64", 128, 100.0, 50.0)];
        assert!(!compare(&base, &[], 0.15).pass());
        // The same kernel at another dim is another metric.
        let other_dim = vec![ratio("dot_f64", 64, 50.0, 25.0)];
        let out = compare(&base, &other_dim, 0.15);
        assert_eq!(out.compared, 0);
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("missing"), "{out:?}");
    }

    #[test]
    fn fresh_only_kernels_do_not_gate_until_baselined() {
        let fresh = vec![ratio("new_kernel", 128, 10.0, 5.0)];
        let out = compare(&[], &fresh, 0.15);
        assert!(out.pass());
        assert_eq!(out.compared, 0);
    }
}
