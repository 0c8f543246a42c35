//! The regression gate both gated benches share: one
//! `metric unit value gate` TSV schema, its parser, the
//! baseline-vs-fresh comparison and its report.
//!
//! `sp_kernel_bench` records each kernel's reference and shipping
//! medians and gates their same-run ratio; `sp_scale_bench` records the
//! blocked pipeline's byte, count and time metrics and gates the byte
//! counts. The TSV is the one record each bench writes: CI re-runs
//! the bench into a fresh directory and compares it with the committed
//! baseline under `crates/bench/results/`.
//!
//! The rule: rows match on metric and unit. A baseline row with
//! `gate = 1` fails when its fresh value exceeds
//! `baseline × (1 + tolerance)` (`tolerance` is fractional: 0.15 is the
//! 15% gate), and when the fresh run lacks it: a removed metric cannot
//! show it did not regress. Fresh-only rows pass until the baseline is
//! re-committed. Rows with `gate = 0` are recorded for humans reading
//! the artefact and never fail the build. Which rows gate is each
//! bench's choice, made by [`crate::kernels::row`],
//! [`crate::kernels::ratio`] and [`crate::scale::row`]; their tests
//! check the rule on those rows.

use crate::harness::{tsv_path, write_tsv};
use std::path::{Path, PathBuf};

/// One recorded metric, i.e. one TSV row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Metric name (`dot_f64.ratio.128`, `blocked_peak_bytes`, …).
    pub metric: String,
    /// Unit of `value` (`ns`, `ratio`, `bytes`, `count`).
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// Whether a baseline holding this row fails a fresh run that
    /// exceeds it.
    pub gate: bool,
}

/// Column order of every gated bench's TSV.
pub(crate) const HEADER: [&str; 4] = ["metric", "unit", "value", "gate"];

/// Parses gate TSV text (header + rows) back into rows. A wrong header,
/// a row with the wrong field count, a value that is not a finite
/// number and a gate that is not `0` or `1` are errors, so a schema
/// change cannot silently disarm the gate.
pub(crate) fn parse(text: &str) -> Result<Vec<Row>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty gate TSV")?;
    let cols: Vec<&str> = header.split('\t').collect();
    if cols != HEADER {
        return Err(format!(
            "header mismatch: expected {HEADER:?}, got {cols:?}"
        ));
    }
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != HEADER.len() {
            return Err(format!(
                "row {}: expected {} fields, got {}",
                i + 2,
                HEADER.len(),
                f.len()
            ));
        }
        let value = f[2]
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("row {}: bad value {:?}", i + 2, f[2]))?;
        let gate = match f[3] {
            "0" => false,
            "1" => true,
            other => return Err(format!("row {}: gate must be 0 or 1, got {other:?}", i + 2)),
        };
        rows.push(Row {
            metric: f[0].to_string(),
            unit: f[1].to_string(),
            value,
            gate,
        });
    }
    Ok(rows)
}

/// The TSV cells of `rows`, one `Vec` per row in [`HEADER`] order.
fn cells(rows: &[Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.metric.clone(),
                r.unit.clone(),
                r.value.to_string(),
                u8::from(r.gate).to_string(),
            ]
        })
        .collect()
}

/// Writes `rows` to `results/<name>.tsv` (`SP_RESULTS_DIR` respected).
pub fn write(name: &str, rows: &[Row]) {
    write_tsv(name, &HEADER, &cells(rows));
}

/// Outcome of a baseline-vs-fresh comparison.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Gated baseline rows found in the fresh run.
    pub(crate) compared: usize,
    /// One line per gated row that regressed or is missing.
    pub(crate) failures: Vec<String>,
}

impl Outcome {
    /// True when every gated row is present and within tolerance.
    pub(crate) fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Applies the gate rule (see the module docs) to a fresh run and its
/// committed baseline.
pub(crate) fn compare(baseline: &[Row], fresh: &[Row], tolerance: f64) -> Outcome {
    let mut out = Outcome::default();
    for b in baseline.iter().filter(|r| r.gate) {
        let Some(f) = fresh
            .iter()
            .find(|r| r.metric == b.metric && r.unit == b.unit)
        else {
            out.failures.push(format!(
                "{} ({}) missing from the fresh run",
                b.metric, b.unit
            ));
            continue;
        };
        out.compared += 1;
        if f.value > b.value * (1.0 + tolerance) {
            out.failures.push(format!(
                "regression: {}: {} {} vs baseline {} {} (+{:.1}%, limit +{:.0}%)",
                b.metric,
                f.value,
                f.unit,
                b.value,
                b.unit,
                100.0 * (f.value / b.value - 1.0),
                100.0 * tolerance,
            ));
        }
    }
    out
}

/// Applies the gate rule (see the module docs) to a fresh run and its
/// committed baseline, prints the report and returns whether the gate
/// passed.
pub fn check(baseline: &[Row], fresh: &[Row], tolerance: f64) -> bool {
    let out = compare(baseline, fresh, tolerance);
    println!(
        "[gate] compared {} gated metrics against baseline (tolerance +{:.0}%)",
        out.compared,
        100.0 * tolerance
    );
    for f in &out.failures {
        eprintln!("FAIL: {f}");
    }
    if out.pass() {
        println!("[gate] PASS");
    }
    out.pass()
}

/// The baseline named by `--baseline <tsv>` in `argv`, read and parsed
/// before the run writes its own `results/<name>.tsv`; `None` without
/// the flag. Exits the process with status 1 when the flag has no
/// value, when the baseline is the file this run writes or cannot be
/// read, or when it does not parse in the `metric unit value gate`
/// schema.
pub fn baseline(argv: &[String], name: &str) -> Option<Vec<Row>> {
    let i = argv.iter().position(|a| a == "--baseline")?;
    let parsed = match argv.get(i + 1) {
        None => Err("--baseline needs a path".to_string()),
        Some(path) => read_baseline(path.as_ref(), &tsv_path(name)).and_then(|text| {
            parse(&text).map_err(|e| format!("cannot parse baseline {path}: {e}"))
        }),
    };
    Some(parsed.unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }))
}

/// Reads a committed baseline before the bench writes its fresh
/// `output`. Refuses a `baseline` that resolves to `output` itself: the
/// run would overwrite the baseline and then compare it with itself,
/// so the gate could never fail.
///
/// # Errors
/// The refusal, or the error reading `baseline`.
pub(crate) fn read_baseline(baseline: &Path, output: &Path) -> Result<String, String> {
    // `output` need not exist yet: then resolve its directory instead.
    let resolve = |p: &Path| -> Option<PathBuf> {
        p.canonicalize().ok().or_else(|| {
            let dir = p.parent().filter(|d| !d.as_os_str().is_empty());
            let dir = dir.unwrap_or(Path::new(".")).canonicalize().ok()?;
            Some(dir.join(p.file_name()?))
        })
    };
    if let (Some(b), Some(o)) = (resolve(baseline), resolve(output)) {
        if b == o {
            return Err(format!(
                "baseline {} is the file this run writes; point SP_RESULTS_DIR elsewhere",
                baseline.display()
            ));
        }
    }
    std::fs::read_to_string(baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline.display()))
}

/// The gate tolerance: `SP_BENCH_GATE_TOLERANCE` as a fraction
/// (default `0.15`, the 15% gate), read before the run. Exits the
/// process with status 1 when the variable is set to anything but a
/// finite number ≥ 0, so a mistyped setting cannot change the gate
/// without a word.
pub fn tolerance() -> f64 {
    let value = std::env::var_os("SP_BENCH_GATE_TOLERANCE");
    parse_tolerance(value.as_deref().map(|v| v.to_string_lossy()).as_deref()).unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    })
}

/// Parses a `SP_BENCH_GATE_TOLERANCE` value. Unset is the 15% default
/// and a finite number ≥ 0 is used as given.
///
/// # Errors
/// Any other value, named in the message: a percentage (`50%`), a
/// decimal comma (`0,5`), the empty string, `NaN`, an infinity or a
/// negative number. `NaN` and `inf` would pass every row, a negative
/// tolerance would fail rows that did not regress.
pub(crate) fn parse_tolerance(value: Option<&str>) -> Result<f64, String> {
    let Some(v) = value else {
        return Ok(0.15);
    };
    v.parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| {
            format!("SP_BENCH_GATE_TOLERANCE must be a finite fraction >= 0 (0.5 gates at +50%), got {v:?}")
        })
}

/// Median of a sample set (midpoint average for even counts). Panics on
/// an empty slice: a bench that produced no samples is a harness bug,
/// not a measurement.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median: no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// The text [`write`] puts in the file for `rows`.
#[cfg(test)]
pub(crate) fn render(rows: &[Row]) -> String {
    std::iter::once(HEADER.join("\t"))
        .chain(cells(rows).iter().map(|c| c.join("\t")))
        .map(|line| line + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tsv(rows: &[&str]) -> String {
        std::iter::once(HEADER.join("\t"))
            .chain(rows.iter().map(|r| r.to_string()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_rejects_empty() {
        median(&mut []);
    }

    #[test]
    fn tolerance_takes_a_finite_fraction_and_refuses_the_rest() {
        assert_eq!(parse_tolerance(None), Ok(0.15));
        assert_eq!(parse_tolerance(Some("0.5")), Ok(0.5));
        assert_eq!(parse_tolerance(Some("0")), Ok(0.0));
        for bad in ["50%", "0,5", "NaN", "inf", "-0.1", ""] {
            let err = parse_tolerance(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_rejects_bad_headers_rows_values_and_gates() {
        assert!(parse("").is_err());
        assert!(parse("metric\tunit\tvalue\tgated\n").is_err());
        for bad in [
            "edges\tcount\t480000",
            "edges\tcount\t480000\t0\textra",
            "edges\tcount\tmany\t0",
            "edges\tcount\tNaN\t0",
            "edges\tcount\t480000\t2",
            "edges\tcount\t480000\tyes",
        ] {
            assert!(parse(&tsv(&[bad])).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn baseline_that_resolves_to_the_output_is_refused() {
        let dir = std::env::temp_dir().join(format!("sp_bench_gate_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let output = dir.join("scale.tsv");
        std::fs::write(&output, "metric\tunit\tvalue\tgate\n").unwrap();
        // The same file, spelled directly and through `..`.
        let err = read_baseline(&output, &output).unwrap_err();
        assert!(err.contains("is the file this run writes"), "{err}");
        assert!(read_baseline(&dir.join("sub/../scale.tsv"), &output).is_err());
        // An output that does not exist yet still resolves.
        let fresh = dir.join("fresh.tsv");
        assert!(read_baseline(&fresh, &fresh).is_err());
        // A different file is read.
        let other = dir.join("sub/scale.tsv");
        std::fs::write(&other, "baseline").unwrap();
        assert_eq!(read_baseline(&other, &output).unwrap(), "baseline");
        // A missing baseline is an error, not an empty gate.
        assert!(read_baseline(&dir.join("missing.tsv"), &output).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_baselines_gate_what_they_should() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        let read = |name: &str| {
            let text = std::fs::read_to_string(results.join(name)).unwrap();
            parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
        };

        let kernels = read("kernels.tsv");
        assert_eq!(kernels.len(), 24);
        for r in &kernels {
            assert_eq!(r.gate, r.unit == "ratio", "{r:?}");
            assert!(r.gate || r.unit == "ns", "{r:?}");
        }
        assert_eq!(kernels.iter().filter(|r| r.gate).count(), 8);
        assert_eq!(kernels.iter().filter(|r| r.unit == "ns").count(), 16);
        // Each pinned ratio is its shipping median over its reference
        // median, as the same file records them.
        let ns = |kernel: &str, variant: &str, dim: &str| {
            let metric = format!("{kernel}.{variant}.{dim}");
            let r = kernels.iter().find(|r| r.metric == metric);
            r.unwrap_or_else(|| panic!("{metric} missing")).value
        };
        for r in kernels.iter().filter(|r| r.gate) {
            let [kernel, "ratio", dim] = r.metric.split('.').collect::<Vec<_>>()[..] else {
                panic!("{r:?}")
            };
            let (reference, shipping) = (ns(kernel, "reference", dim), ns(kernel, "shipping", dim));
            assert_eq!(
                r,
                &crate::kernels::ratio(kernel, dim.parse().unwrap(), reference, shipping)
            );
        }

        let scale = read("scale.tsv");
        assert_eq!(scale.len(), 14);
        for r in &scale {
            assert_eq!(r.gate, r.unit == "bytes", "{r:?}");
        }
        assert_eq!(scale.iter().filter(|r| r.gate).count(), 10);

        for r in kernels.iter().chain(&scale).filter(|r| r.gate) {
            assert!(r.value > 0.0, "{r:?}");
        }
    }
}
