//! The repository benchmark: fit → publish → serve at the paper's
//! defaults, one workload per run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --served <sp_served>
//! ```
//!
//! Every workload generates its inputs from the seed, fits a model in a
//! child process (edge-list file → durable `.spm`), then serves a seeded
//! clustered r = 128 `.spm` from an `sp_served` child with open-loop
//! `TOPK` and `LINK` traffic and `RELOAD`s. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` the run
//! also repeats the fit and a steady window with spans around every
//! layer call, climbs the capacity ladder, and prints the per-layer
//! metrics instead. Outputs are checked in every run; a failed check
//! exits non-zero.
//!
//! `perfbench fit-child …` is the fit child itself (see [`fit`]).

mod fit;
mod procfs;
mod serve;
mod stats;
mod trace;

use fit::FitSpec;
use serve::{Book, ServeSpec, Served};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The served model's dimension (the paper's r).
const DIM: usize = 128;
/// BlogCatalog's published node count: the synthetic served model's size.
const SERVE_NODES: usize = 10_312;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Fits per untraced run (their median is `fit_s`). Fits within one run
/// agree to a few per cent; the spread worth guarding against is between
/// runs, so two suffice.
const FITS: usize = 2;
/// The run length the serving schedules are sized for.
const NOMINAL_SECONDS: f64 = 20.0;
/// Length of the discarded warm-up window, seconds.
const WARM_UP_S: f64 = 0.5;
/// Recall floor of the served clustered model.
const RECALL_FLOOR: f64 = 0.95;

/// One named workload: a fit, then a serving schedule over the seeded
/// clustered model. Every workload runs both stages so that every
/// end-to-end metric exists in every run; the workload's purpose sets
/// which stage is large.
struct Workload {
    name: &'static str,
    fit: FitSpec,
    serve: ServeSpec,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "power-private",
        fit: fit::POWER_PRIVATE,
        serve: serve::SHORT,
    },
    Workload {
        name: "blogcatalog-prep",
        fit: fit::BLOGCATALOG_PREP,
        serve: serve::SHORT,
    },
    Workload {
        name: "serve-r128",
        fit: fit::POWER_NONPRIVATE,
        serve: serve::FULL,
    },
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("fit-child") => parse_child_args(&argv[1..]).and_then(fit::run_child),
        _ => parse_args(&argv).and_then(|args| bench(&args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    served: PathBuf,
}

/// `--flag value` pairs into a map; every flag needs a value.
fn flags(argv: &[String]) -> Result<BTreeMap<String, String>, String> {
    if !argv.len().is_multiple_of(2) {
        return Err(format!("flags come in pairs: {argv:?}"));
    }
    argv.chunks(2)
        .map(|p| match p[0].strip_prefix("--") {
            Some(name) => Ok((name.to_string(), p[1].clone())),
            None => Err(format!("unexpected argument {:?}", p[0])),
        })
        .collect()
}

fn take<T: std::str::FromStr>(f: &BTreeMap<String, String>, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = f.get(name).ok_or_else(|| format!("--{name} is required"))?;
    raw.parse().map_err(|e| format!("--{name} {raw:?}: {e}"))
}

fn parse_trace(raw: &str) -> Result<bool, String> {
    match raw {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--trace takes 0 or 1, not {other:?}")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let f = flags(argv)?;
    let seconds: f64 = take(&f, "seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: take(&f, "workload")?,
        seed: take(&f, "seed")?,
        seconds,
        trace: parse_trace(&take::<String>(&f, "trace")?)?,
        served: take(&f, "served")?,
    })
}

fn parse_child_args(argv: &[String]) -> Result<fit::ChildArgs, String> {
    let f = flags(argv)?;
    let name: String = take(&f, "spec")?;
    Ok(fit::ChildArgs {
        spec: fit::spec(&name).ok_or_else(|| format!("unknown fit spec {name:?}"))?,
        graph: take(&f, "graph")?,
        out: take(&f, "out")?,
        ckpt_dir: take(&f, "ckpt-dir")?,
        seed: take(&f, "seed")?,
        trace: parse_trace(&take::<String>(&f, "trace")?)?,
        spans: f.get("spans").map(PathBuf::from),
    })
}

/// Removes a run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// What a run reports: metrics with units, plus stamps and checks.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    stamps: Vec<(String, String)>,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn stamp(&mut self, name: &str, value: impl std::fmt::Display) {
        self.stamps.push((name.to_string(), value.to_string()));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if !args.served.is_file() {
        return Err(format!("no sp_served binary at {}", args.served.display()));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let runs = Path::new(".bench_runs");
    let dir = runs.join(format!(
        "{}-s{}-t{}-{}",
        w.name,
        args.seed,
        args.trace as u8,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _scratch = Scratch(dir.clone());
    let traces = runs.join("traces");
    if args.trace {
        std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
    }
    let trace_file = |stage: &str| traces.join(format!("{}-s{}-{stage}.jsonl", w.name, args.seed));

    let mut r = Report::default();
    let mut book = Book::default();
    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);
    let reps = if args.trace { 1 } else { SETUP_REPS };

    // ---- Set-up: inputs from the seed. ----
    let graph = dir.join("input.edges");
    let model = dir.join("served.spm");
    let mut gen_s = Vec::new();
    let mut sizes = (0, 0);
    for _ in 0..reps {
        let t = Instant::now();
        sizes = fit::write_input(w.fit.dataset, args.seed, &graph)?;
        serve::write_clustered_model(SERVE_NODES, DIM, args.seed, &model)?;
        gen_s.push(t.elapsed().as_secs_f64());
    }

    // ---- Fit: edge list → .spm, each in its own child process. ----
    let fitted = dir.join("model.spm");
    let child = |trace: bool, spans: Option<PathBuf>| -> Result<BTreeMap<String, f64>, String> {
        let ckpt_dir = dir.join("ckpt");
        std::fs::remove_dir_all(&ckpt_dir).ok();
        fit::spawn_child(
            &exe,
            &fit::ChildArgs {
                spec: w.fit,
                graph: graph.clone(),
                out: fitted.clone(),
                ckpt_dir,
                seed: args.seed,
                trace,
                spans,
            },
        )
    };
    let mut fits = Vec::new();
    for _ in 0..if args.trace { 1 } else { FITS } {
        let out = child(false, None);
        book.add("fit", 1, out.is_err() as usize);
        fits.push(out?);
    }
    let first = &fits[0];
    for f in &fits[1..] {
        r.check(
            f["crc"] == first["crc"] && f["strucequ"] == first["strucequ"],
            || "repeated fits of one seed published different models".into(),
        );
    }
    let fit_s = median(&fits.iter().map(|f| f["fit_s"]).collect::<Vec<_>>());
    let fit_rss = fits.iter().map(|f| f["peak_rss_mib"]).fold(0.0, f64::max);
    let traced_fit = if args.trace {
        let out = child(true, Some(trace_file("fit")));
        book.add("fit-traced", 1, out.is_err() as usize);
        Some(out?)
    } else {
        None
    };

    // ---- Serve: sp_served over the clustered model. A fitted model's
    // IVF balance, and with it TOPK cost and recall, changes with the
    // seed; the clustered model's does not. ----
    let nodes = SERVE_NODES;
    let mut cold_s = Vec::new();
    let mut server = None;
    for i in 0..reps {
        let (srv, cold) = Served::start(&args.served, &model)?;
        book.add("cold-start", 1, 0);
        cold_s.push(cold);
        if i + 1 < reps {
            let drain = srv.shutdown()?;
            r.check(drain.requests == 2 && drain.errors == 0, || {
                format!("cold-start server drained {drain:?}, expected 2 requests")
            });
        } else {
            server = Some(srv);
        }
    }
    let server = server.expect("at least one cold start");
    let setup_s = median(&gen_s) + median(&cold_s);

    let local = serve::local_stack(&model)?;
    book.add(
        "probe",
        serve::check_probes(&server, &local, nodes, args.seed)?,
        0,
    );
    let recall = serve::recall_at_10(&local, nodes, args.seed);
    drop(local);

    let windows = if args.trace {
        1
    } else {
        ((args.seconds / NOMINAL_SECONDS) * w.serve.windows as f64)
            .round()
            .max(1.0) as usize
    };
    // A short discarded window first: the fit child's exit (freed pages,
    // write-back) and the server's first connections settle in it.
    serve::steady_window(
        "warm-up",
        server.addr,
        nodes,
        WARM_UP_S,
        !args.seed,
        &untraced,
        &mut book,
    )?;
    let mut steady = Vec::new();
    for i in 0..windows {
        steady.push(serve::steady_window(
            "steady",
            server.addr,
            nodes,
            w.serve.window_s,
            args.seed ^ (i as u64) << 32,
            &untraced,
            &mut book,
        )?);
    }
    let traced_window = if args.trace {
        Some(serve::steady_window(
            "steady-traced",
            server.addr,
            nodes,
            w.serve.window_s,
            args.seed ^ 0xACE << 32,
            &tracer,
            &mut book,
        )?)
    } else {
        None
    };
    // The ladder's p99s swing with the host's scheduling stalls, so
    // capacity is a per-layer figure of the traced run.
    let steps = if args.trace {
        serve::ladder(server.addr, nodes, args.seed, &mut book)?
    } else {
        Vec::new()
    };
    let reload = serve::reload_phase(
        &server, &model, nodes, &w.serve, args.seed, &tracer, &mut book,
    )?;
    let serve_rss = server
        .peak_rss_mib()
        .ok_or("cannot read the server's VmHWM")?;
    let drain = server.shutdown()?;
    let (attempted, failed) = book.totals();
    // Every line sent to the kept server: its cold-start TOPK, the
    // probes and load phases, and the SHUTDOWN.
    let sent = 2 + book.attempted(&[
        "probe",
        "warm-up",
        "steady",
        "steady-traced",
        "ladder",
        "reload",
    ]);
    r.check(drain.requests == sent, || {
        format!(
            "sp_served drained {} requests, the benchmark sent {sent}",
            drain.requests
        )
    });
    let load_phases = ["warm-up", "steady", "steady-traced", "ladder", "reload"];
    let serve_failed = book
        .phases
        .iter()
        .filter(|p| !p.0.starts_with("fit"))
        .map(|p| p.2)
        .sum::<u64>();
    r.check(drain.errors == serve_failed, || {
        format!(
            "sp_served counted {} errors, the benchmark saw {serve_failed}",
            drain.errors
        )
    });
    r.check(recall >= RECALL_FLOOR, || {
        format!("recall@10 {recall:.4} below {RECALL_FLOOR}")
    });

    // ---- Stamps. ----
    r.stamp("workload", w.name);
    r.stamp("seed", args.seed);
    r.stamp("trace", args.trace as u8);
    r.stamp(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    r.stamp("cpu", procfs::cpu_model());
    r.stamp("threads", first["threads"]);
    r.stamp("fit", w.fit.name);
    r.stamp("fit.nodes", sizes.0);
    r.stamp("fit.edges", sizes.1);
    r.stamp("fit.steps", first["steps"]);
    r.stamp("fit.epsilon", first["epsilon"]);
    r.stamp("fit.delta", first["delta"]);
    r.stamp("fit.spm_crc", format!("{:08x}", first["crc"] as u32));
    r.stamp("fit.strucequ", first["strucequ"]);
    r.stamp(
        "fit.runs_s",
        format!(
            "{:.3?}",
            fits.iter().map(|f| f["fit_s"]).collect::<Vec<_>>()
        ),
    );
    r.stamp("dim", DIM);
    r.stamp("serve.nodes", nodes);
    r.stamp(
        "serve.ivf",
        format!("nlist {} nprobe {}", serve::IVF.nlist, serve::IVF.nprobe),
    );
    r.stamp("serve.offered_topk_per_s", serve::TOPK_RATE);
    r.stamp("serve.offered_link_per_s", serve::LINK_RATE);
    r.stamp("serve.p99_limit_us", serve::P99_LIMIT_US);
    r.stamp(
        "serve.steady_windows",
        format!("{windows} x {} s", w.serve.window_s),
    );
    for (i, s) in steady.iter().enumerate() {
        r.stamp(
            &format!("serve.window.{i}"),
            format!(
                "topk p50 {:.0} p99 {:.0} us, link p50 {:.0} p99 {:.0} us, lag p99 {:.0} us",
                s.topk.0, s.topk.1, s.link.0, s.link.1, s.lag_p99
            ),
        );
    }
    for s in &steps {
        r.stamp(
            &format!("serve.ladder.{:.0}", s.rate),
            format!(
                "p99 {:.0} us, backlog {}, {}",
                s.p99_us,
                s.backlog,
                if s.passed { "pass" } else { "fail" }
            ),
        );
    }
    r.stamp(
        "serve.reload_round_trips_s",
        format!("{:.3?}", reload.round_trips),
    );
    for (phase, a, f) in &book.phases {
        r.stamp(
            &format!("ops.{phase}"),
            format!("{a} attempted, {} succeeded, {f} failed", a - f),
        );
    }
    r.stamp(
        "sp_served.drain",
        format!("{} requests, {} errors", drain.requests, drain.errors),
    );

    // ---- Metrics. ----
    let topk_n = (serve::TOPK_RATE * w.serve.window_s) as usize;
    let link_n = (serve::LINK_RATE * w.serve.window_s) as usize;
    r.stamp(
        "serve.samples_per_window",
        format!(
            "topk {topk_n} (tail p{}), link {link_n} (tail p{})",
            stats::tail_percentile(topk_n).unwrap_or(f64::NAN),
            stats::tail_percentile(link_n).unwrap_or(f64::NAN)
        ),
    );
    if let Some(t) = &traced_fit {
        for (name, unit) in [
            ("ingest.load_s", "s"),
            ("ingest.edges", "count"),
            ("proximity.compute_s", "s"),
            ("proximity.nnz", "count"),
            ("proximity.matrix_mib", "MiB"),
            ("subgraph.generate_s", "s"),
            ("trainer.steps", "count"),
            ("trainer.step_us", "us"),
            ("trainer.step_us.t1", "us"),
            ("trainer.thread_speedup", "ratio"),
            ("trainer.nonprivate_step_us", "us"),
            ("dp.noise_step_us", "us"),
            ("dp.noise_ns_per_draw", "ns"),
            ("dp.accountant_us_per_step", "us"),
            ("trainer.grad_clip_us_per_example", "us"),
            ("checkpoint.write_ms", "ms"),
            ("checkpoint.mib", "MiB"),
            ("publish.write_ms", "ms"),
            ("publish.mib", "MiB"),
        ] {
            r.metric(name, t[name], unit);
        }
        let layers = serve::layer_probes(&model, nodes, args.seed, &tracer)?;
        let layer = |name: &str| {
            layers
                .iter()
                .find(|l| l.0 == name)
                .map(|l| l.1)
                .expect("layer probe present")
        };
        for (name, unit) in [
            ("model.read_ms", "ms"),
            ("ivf.build_ms", "ms"),
            ("ivf.query_p50_us", "us"),
            ("ivf.query_p99_us", "us"),
            ("ivf.list_size_max", "count"),
            ("linalg.dot_f32_ns", "ns"),
            ("protocol.parse_ns", "ns"),
            ("protocol.format_topk_us", "us"),
            ("swap.snapshot_ns", "ns"),
        ] {
            r.metric(name, layer(name), unit);
        }
        let link_p50 = steady[0].link.0;
        r.metric(
            "net.link_overhead_us",
            link_p50 - layer("link.inprocess_ns") / 1e3,
            "us",
        );
        r.metric("serve.topk_p99_reload_us", reload.topk_p99_during_us, "us");
        r.metric(
            "serve.generator_lag_p99_us",
            percentile(&book.lags_us, 99.0),
            "us",
        );
        // Figures whose run-to-run spread on a shared 2-vCPU host exceeds
        // any usable bound: TOPK latency and RELOAD time drift ±20% with
        // the host's speed over minutes (queueing amplifies it), p99s
        // and the ladder follow its scheduling stalls, and StrucEqu sits
        // near 0 on the non-private fits. They are reported here, unbounded.
        r.metric("strucequ", first["strucequ"], "ratio");
        r.metric("serve.reload_s", median(&reload.round_trips), "s");
        r.metric("serve.topk_p50_us", steady[0].topk.0, "us");
        r.metric("serve.topk_p99_us", steady[0].topk.1, "us");
        r.metric("serve.link_p99_us", steady[0].link.1, "us");
        r.metric("serve.capacity_qps", serve::capacity(&steps), "1/s");
        let load_failed: u64 = book
            .phases
            .iter()
            .filter(|p| load_phases.contains(&p.0))
            .map(|p| p.2)
            .sum();
        r.metric(
            "serve.requests_sent",
            book.attempted(&load_phases) as f64,
            "count",
        );
        r.metric("serve.requests_failed", load_failed as f64, "count");
        r.metric("trace.fit_overhead_s", t["fit_s"] - fit_s, "s");
        let traced = traced_window.expect("traced window");
        r.metric(
            "trace.serve_overhead_us",
            traced.topk.0 - steady[0].topk.0,
            "us",
        );
        r.stamp("trace.topk_requests_during_reload", reload.topk_during);
        tracer
            .write_jsonl(&trace_file("serve"))
            .map_err(|e| format!("cannot write spans: {e}"))?;
        for (name, (count, total, own)) in tracer.totals() {
            r.stamp(
                &format!("span.{name}"),
                format!(
                    "{count} spans, {:.3} ms total, {:.3} ms self",
                    total as f64 * 1e-6,
                    own as f64 * 1e-6
                ),
            );
        }
    } else {
        let link_p50 = median(&steady.iter().map(|w| w.link.0).collect::<Vec<_>>());
        r.metric("setup_s", setup_s, "s");
        r.metric("fit_s", fit_s, "s");
        r.metric("peak_rss_mib", fit_rss.max(serve_rss), "MiB");
        r.metric("serve.link_p50_us", link_p50, "us");
        r.metric("serve.recall_at_10", recall, "ratio");
        r.stamp("peak_rss.fit_mib", fit_rss);
        r.stamp("peak_rss.server_mib", serve_rss);
    }
    let not_finite: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| format!("{} is not finite", m.0))
        .collect();
    r.problems.extend(not_finite);
    r.check(failed == 0, || format!("{failed} operations failed"));
    print_report(&r, attempted, failed);
    if r.problems.is_empty() {
        Ok(())
    } else {
        Err(format!("output checks failed: {}", r.problems.join("; ")))
    }
}

/// Human-readable report, then the one-line JSON result (last line).
fn print_report(r: &Report, attempted: u64, failed: u64) {
    for (name, value) in &r.stamps {
        println!("# {name}: {value}");
    }
    for (name, value, unit) in &r.metrics {
        println!("{name} = {value} {unit}");
    }
    for p in &r.problems {
        println!("# CHECK FAILED: {p}");
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        r.problems.is_empty(),
        metrics.join(", ")
    );
}
