//! Server-side observability: request counters, a lock-free latency
//! histogram, and per-generation hit counts — everything the `STATS`
//! protocol command reports.
//!
//! The histogram is log₂-bucketed in microseconds: recording is a
//! single relaxed atomic increment on the hot path, and quantiles are
//! read as the upper bound of the first bucket whose cumulative count
//! crosses the rank (an upper bound accurate to 2× — plenty for a
//! p50/p99 regression signal).

use crate::protocol::{Request, COMMANDS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of log₂ latency buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` µs (bucket 0 holds sub-microsecond samples), so
/// the top bucket saturates at ~2³⁸ µs — days.
const LATENCY_BUCKETS: usize = 39;

/// Live counters of one running server. All methods are safe to call
/// from any number of connection threads concurrently.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    conns_total: AtomicU64,
    conns_active: AtomicU64,
    conns_rejected: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    malformed: AtomicU64,
    reload_failed: AtomicU64,
    per_command: [AtomicU64; COMMANDS.len()],
    latency: [AtomicU64; LATENCY_BUCKETS],
    generation_hits: Mutex<BTreeMap<u64, u64>>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh counters; the uptime clock starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            conns_total: AtomicU64::new(0),
            conns_active: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            reload_failed: AtomicU64::new(0),
            per_command: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
            generation_hits: Mutex::new(BTreeMap::new()),
        }
    }

    /// Atomically claims a connection slot against `max_conns`.
    ///
    /// On success the connection counts as **accepted** (`conns_total`
    /// and `conns_active` advance; the caller must pair it with
    /// [`ServerMetrics::conn_closed`]). Over the bound nothing but
    /// `conns_rejected` advances — accepted and rejected connections
    /// are counted disjointly, so `conns_total` matches its
    /// documentation ("accepted over the server lifetime") by
    /// construction.
    pub(crate) fn try_accept(&self, max_conns: u64) -> bool {
        let active = self.conns_active.fetch_add(1, Ordering::Relaxed) + 1;
        if active > max_conns {
            self.conns_active.fetch_sub(1, Ordering::Relaxed);
            self.conns_rejected.fetch_add(1, Ordering::Relaxed);
            false
        } else {
            self.conns_total.fetch_add(1, Ordering::Relaxed);
            true
        }
    }

    /// A connection handler finished. Saturates at zero: a mismatched
    /// close (a bug, but one that must not poison `STATS`) leaves
    /// `conns_active` at 0 instead of wrapping to 2⁶⁴−1.
    pub(crate) fn conn_closed(&self) {
        let mut cur = self.conns_active.load(Ordering::Relaxed);
        while cur > 0 {
            match self.conns_active.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// One parsed request completed, counted under its command.
    /// `generation` is the model version that answered (query commands
    /// only), `ok` whether the response was an `OK`.
    pub(crate) fn record_request(
        &self,
        request: &Request,
        micros: u64,
        generation: Option<u64>,
        ok: bool,
    ) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.per_command[request.command()].fetch_add(1, Ordering::Relaxed);
        self.latency[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        if let Some(version) = generation {
            let mut hits = self.generation_hits.lock().expect("metrics lock poisoned");
            *hits.entry(version).or_insert(0) += 1;
        }
    }

    /// A request that failed before it could be attributed to any
    /// command (parse error, oversized line, idle-timeout eviction).
    ///
    /// Counts into `requests`, `errors`, and the dedicated `malformed`
    /// counter — so `requests == Σ per_command + malformed` holds by
    /// construction. `micros` is `Some` only when a request line was
    /// actually read and timed (parse errors); timeout and oversize
    /// events pass `None` and contribute **no** latency sample — the
    /// old code recorded them as fabricated 0µs samples that dragged
    /// p50 down.
    pub(crate) fn record_malformed(&self, micros: Option<u64>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.malformed.fetch_add(1, Ordering::Relaxed);
        if let Some(us) = micros {
            self.latency[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A `RELOAD` failed (missing, torn, or corrupt model file); the
    /// server kept answering from the last-good generation. Counted in
    /// addition to the request's normal `errors` attribution, so the
    /// `requests == Σ per_command + malformed` invariant is untouched —
    /// this is a dedicated degradation signal, not a request class.
    pub(crate) fn record_reload_failed(&self) {
        self.reload_failed.fetch_add(1, Ordering::Relaxed);
    }

    fn bucket_of(micros: u64) -> usize {
        ((64 - micros.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }

    /// A point-in-time copy of every counter, for `STATS` and tests.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latency: Vec<u64> = self
            .latency
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        MetricsSnapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            conns_total: self.conns_total.load(Ordering::Relaxed),
            conns_active: self.conns_active.load(Ordering::Relaxed),
            conns_rejected: self.conns_rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            reload_failed: self.reload_failed.load(Ordering::Relaxed),
            per_command: COMMANDS
                .iter()
                .zip(&self.per_command)
                .map(|(&name, c)| (name, c.load(Ordering::Relaxed)))
                .collect(),
            p50_us: quantile(&latency, 0.50),
            p99_us: quantile(&latency, 0.99),
            generation_hits: self
                .generation_hits
                .lock()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(&v, &h)| (v, h))
                .collect(),
        }
    }
}

/// The upper bound (µs) of the first bucket whose cumulative count
/// reaches quantile `q`; 0 when nothing was recorded.
fn quantile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = (q * total as f64).ceil() as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return if i == 0 { 1 } else { 1u64 << i };
        }
    }
    1u64 << (buckets.len() - 1)
}

/// One consistent reading of the server counters.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Milliseconds since the metrics (≈ the server) started.
    pub uptime_ms: u64,
    /// Connections accepted over the server lifetime.
    pub conns_total: u64,
    /// Connections currently open.
    pub conns_active: u64,
    /// Connections turned away at the `max_conns` limit.
    pub conns_rejected: u64,
    /// Requests handled. Invariant (held by construction):
    /// `requests == Σ per_command + malformed`.
    pub requests: u64,
    /// Requests answered with an `ERR` line (malformed ones included).
    pub errors: u64,
    /// Requests that could not be attributed to any command: parse
    /// errors, oversized lines, idle-timeout evictions.
    pub malformed: u64,
    /// `RELOAD` commands that failed (missing/torn/corrupt model file)
    /// while the server kept serving the last-good generation. A
    /// degradation signal on top of the request counters: each such
    /// request still counts once under `reload`/`errors`.
    pub reload_failed: u64,
    /// Requests per protocol command, `(name, count)` in
    /// [`COMMANDS`] order (`topk`, `topkn`, `link`, `info`, `stats`,
    /// `reload`, `quit`, `shutdown`). A bulk `TOPKN` counts as **one**
    /// request however many nodes it carries, so the STATS invariant
    /// `requests == Σ per_command + malformed` is unaffected by batch
    /// size.
    pub per_command: Vec<(&'static str, u64)>,
    /// Median request latency upper bound, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency upper bound, microseconds.
    pub p99_us: u64,
    /// `(generation version, queries answered by it)`, ascending.
    pub generation_hits: Vec<(u64, u64)>,
}

impl MetricsSnapshot {
    /// The `STATS` response block: one `OK STATS` counter line,
    /// one `GEN <version> <hits>` line per generation, `END`.
    pub fn to_stats_block(&self) -> String {
        let mut out = format!(
            "OK STATS uptime_ms={} conns_total={} conns_active={} conns_rejected={} \
             requests={} errors={} malformed={} reload_failed={}",
            self.uptime_ms,
            self.conns_total,
            self.conns_active,
            self.conns_rejected,
            self.requests,
            self.errors,
            self.malformed,
            self.reload_failed
        );
        for &(name, count) in &self.per_command {
            out.push_str(&format!(" {name}={count}"));
        }
        out.push_str(&format!(" p50_us={} p99_us={}\n", self.p50_us, self.p99_us));
        for &(version, hits) in &self.generation_hits {
            out.push_str(&format!("GEN {version} {hits}\n"));
        }
        out.push_str("END\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPK: Request = Request::TopK { node: 0, k: 1 };
    const LINK: Request = Request::Link { u: 0, v: 1 };

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = ServerMetrics::new();
        assert!(m.try_accept(2));
        assert!(m.try_accept(2));
        m.conn_closed();
        assert!(m.try_accept(2)); // the freed slot is reusable
        assert!(!m.try_accept(2)); // over the bound: rejected
        m.record_request(&TOPK, 12, Some(1), true);
        m.record_request(&TOPK, 700, Some(2), true);
        m.record_request(&LINK, 3, Some(2), true);
        m.record_request(&Request::Reload, 9000, None, false);
        m.record_malformed(Some(1));
        let s = m.snapshot();
        assert_eq!(
            s.conns_total, 3,
            "rejected conns must not count as accepted"
        );
        assert_eq!(s.conns_active, 2);
        assert_eq!(s.conns_rejected, 1);
        assert_eq!(s.requests, 5);
        assert_eq!(s.errors, 2);
        assert_eq!(s.malformed, 1);
        assert_eq!(s.per_command[TOPK.command()], ("topk", 2));
        assert_eq!(s.per_command[LINK.command()], ("link", 1));
        assert_eq!(s.per_command[Request::Reload.command()], ("reload", 1));
        assert_eq!(s.generation_hits, vec![(1, 1), (2, 2)]);
        assert!(s.p50_us > 0 && s.p99_us >= s.p50_us);
    }

    #[test]
    fn requests_equal_per_command_plus_malformed() {
        // The STATS invariant the server relies on, exercised across
        // every recording path (attributed, parse error, unattributed
        // timeout/oversize with no latency sample).
        let m = ServerMetrics::new();
        m.record_request(&TOPK, 10, Some(1), true);
        m.record_request(&Request::Stats, 5, None, true);
        m.record_malformed(Some(2)); // parse error: timed
        m.record_malformed(None); // idle timeout: no sample
        m.record_malformed(None); // oversized line: no sample
        let s = m.snapshot();
        let per_command_sum: u64 = s.per_command.iter().map(|&(_, c)| c).sum();
        assert_eq!(s.requests, per_command_sum + s.malformed);
        assert_eq!(s.malformed, 3);
    }

    #[test]
    fn unattributed_malformed_events_record_no_latency_sample() {
        // Regression: timeout/oversize used to inject fake 0µs samples
        // that dragged p50 toward zero. Now they leave the histogram
        // untouched.
        let m = ServerMetrics::new();
        for _ in 0..100 {
            m.record_malformed(None);
        }
        let s = m.snapshot();
        assert_eq!(s.malformed, 100);
        assert_eq!(s.p50_us, 0, "no samples means p50 stays 0");
        // Real samples are unaffected by interleaved timeouts.
        m.record_request(&TOPK, 1000, None, true);
        m.record_malformed(None);
        let s = m.snapshot();
        assert!(s.p50_us >= 1000, "p50={} dragged down", s.p50_us);
    }

    #[test]
    fn conn_closed_saturates_at_zero() {
        let m = ServerMetrics::new();
        m.conn_closed(); // mismatched close on a fresh server
        assert_eq!(m.snapshot().conns_active, 0, "must not wrap to 2^64-1");
        assert!(m.try_accept(1));
        m.conn_closed();
        m.conn_closed(); // double close
        let s = m.snapshot();
        assert_eq!(s.conns_active, 0);
        assert_eq!(s.conns_total, 1);
    }

    #[test]
    fn bucket_of_boundaries() {
        // Bucket i holds [2^(i-1), 2^i) µs; bucket 0 is sub-µs.
        assert_eq!(ServerMetrics::bucket_of(0), 0);
        assert_eq!(ServerMetrics::bucket_of(1), 1);
        for k in 0..38u32 {
            let v = 1u64 << k;
            assert_eq!(
                ServerMetrics::bucket_of(v),
                (k as usize + 1).min(LATENCY_BUCKETS - 1),
                "2^{k}"
            );
            if v > 1 {
                assert_eq!(ServerMetrics::bucket_of(v - 1), k as usize, "2^{k}-1");
            }
        }
        // Everything at or beyond the top bucket saturates there.
        assert_eq!(ServerMetrics::bucket_of(1u64 << 62), LATENCY_BUCKETS - 1);
        assert_eq!(ServerMetrics::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn quantile_boundary_samples() {
        // 0µs and 1µs land in distinguishable buckets; u64::MAX lands
        // in (and reports) the saturated top bucket instead of
        // overflowing the shift.
        let m = ServerMetrics::new();
        m.record_request(&Request::Info, 0, None, true);
        assert_eq!(m.snapshot().p50_us, 1, "bucket 0 reports 1µs upper bound");
        let m = ServerMetrics::new();
        m.record_request(&Request::Info, u64::MAX, None, true);
        let s = m.snapshot();
        assert_eq!(s.p50_us, 1u64 << (LATENCY_BUCKETS - 1));
        assert_eq!(s.p99_us, s.p50_us);
    }

    #[test]
    fn quantile_upper_bounds_are_monotone() {
        // 100 samples at ~16us, 1 at ~4096us.
        let m = ServerMetrics::new();
        for _ in 0..100 {
            m.record_request(&Request::Info, 16, None, true);
        }
        m.record_request(&Request::Info, 4096, None, true);
        let s = m.snapshot();
        assert!(s.p50_us >= 16 && s.p50_us <= 32, "p50={}", s.p50_us);
        assert!(s.p99_us <= 8192, "p99={}", s.p99_us);
        assert!(s.p99_us >= s.p50_us);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = ServerMetrics::new().snapshot();
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.p99_us, 0);
    }

    #[test]
    fn stats_block_is_end_terminated() {
        let m = ServerMetrics::new();
        m.record_request(&TOPK, 5, Some(3), true);
        let block = m.snapshot().to_stats_block();
        let lines: Vec<&str> = block.lines().collect();
        assert!(lines[0].starts_with("OK STATS "));
        assert!(lines[0].contains("topk=1"));
        assert_eq!(lines[1], "GEN 3 1");
        assert_eq!(*lines.last().unwrap(), "END");
    }
}
