//! Bounded retry with deterministic jittered backoff.
//!
//! The serving client, the dynamic publisher, and the CI harness all
//! need the same thing: absorb a transient IO failure without turning
//! one flaky write into a dead run, while keeping the schedule
//! deterministic so fault-plan tests stay reproducible. The jitter here
//! is a pure function of `(seed, attempt)` — two policies with the same
//! seed sleep the same amounts in the same order.

use sp_parallel::splitmix64;
use std::time::Duration;

/// Which `io::ErrorKind`s a retry policy should absorb.
///
/// Permanent conditions (`NotFound`, `PermissionDenied`, bad input…)
/// surface immediately: retrying a missing directory only delays the
/// real error.
pub fn transient_io(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        kind,
        Interrupted
            | WouldBlock
            | TimedOut
            | ConnectionRefused
            | ConnectionReset
            | ConnectionAborted
            | BrokenPipe
            | UnexpectedEof
    )
}

/// A bounded retry schedule: `attempts` tries total, sleeping an
/// exponentially growing, deterministically jittered backoff between
/// them.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (including the first); `1` disables retry.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Upper bound on the un-jittered backoff.
    pub cap: Duration,
    /// Jitter seed; same seed → same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The sleep after the (0-based) `attempt`-th failure:
    /// `min(base · 2^attempt, cap)` scaled by a deterministic jitter
    /// factor in `[0.75, 1.25)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .min(self.cap);
        let unit = (splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9)) >> 11)
            as f64
            * (1.0 / (1u64 << 53) as f64);
        exp.mul_f64(0.75 + 0.5 * unit)
    }

    /// Runs `op` up to `attempts` times, sleeping [`RetryPolicy::backoff`]
    /// between tries. Only errors `is_transient` accepts are retried;
    /// the last error is returned when attempts run out.
    pub fn run<T, E>(
        &self,
        mut is_transient: impl FnMut(&E) -> bool,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if attempt + 1 < attempts && is_transient(&e) => {
                    std::thread::sleep(self.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    fn quick(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(80),
            seed: 42,
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let a = quick(4);
        let b = quick(4);
        for attempt in 0..8 {
            assert_eq!(a.backoff(attempt), b.backoff(attempt));
            let d = a.backoff(attempt);
            assert!(d <= a.cap.mul_f64(1.25), "attempt {attempt}: {d:?}");
            assert!(d >= a.base.mul_f64(0.75), "attempt {attempt}: {d:?}");
        }
        let other = RetryPolicy {
            seed: 43,
            ..quick(4)
        };
        assert!(
            (0..8).any(|i| other.backoff(i) != a.backoff(i)),
            "different seeds should jitter differently"
        );
    }

    #[test]
    fn backoff_grows_until_the_cap() {
        let p = quick(8);
        // Un-jittered sequence: 10, 20, 40, 80, 80, … µs; jitter keeps
        // each within ±25%, so consecutive doublings stay ordered.
        assert!(p.backoff(1) > p.backoff(0));
        assert!(p.backoff(2) > p.backoff(1));
        assert!(p.backoff(30) <= p.cap.mul_f64(1.25));
    }

    #[test]
    fn run_retries_transient_errors_then_succeeds() {
        let mut calls = 0;
        let result: Result<u32, std::io::Error> = quick(4).run(
            |e: &std::io::Error| transient_io(e.kind()),
            || {
                calls += 1;
                if calls < 3 {
                    Err(std::io::Error::new(ErrorKind::TimedOut, "flaky"))
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(result.unwrap(), 7);
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_surfaces_permanent_errors_immediately() {
        let mut calls = 0;
        let result: Result<(), std::io::Error> = quick(4).run(
            |e: &std::io::Error| transient_io(e.kind()),
            || {
                calls += 1;
                Err(std::io::Error::new(ErrorKind::NotFound, "gone"))
            },
        );
        assert_eq!(result.unwrap_err().kind(), ErrorKind::NotFound);
        assert_eq!(calls, 1, "permanent errors must not be retried");
    }

    #[test]
    fn run_gives_up_after_attempts() {
        let mut calls = 0;
        let result: Result<(), std::io::Error> = quick(3).run(
            |e: &std::io::Error| transient_io(e.kind()),
            || {
                calls += 1;
                Err(std::io::Error::new(ErrorKind::ConnectionRefused, "down"))
            },
        );
        assert_eq!(result.unwrap_err().kind(), ErrorKind::ConnectionRefused);
        assert_eq!(calls, 3);
    }

    #[test]
    fn classification_matches_the_publish_contract() {
        assert!(!transient_io(ErrorKind::NotFound));
        assert!(!transient_io(ErrorKind::PermissionDenied));
        assert!(transient_io(ErrorKind::TimedOut));
        assert!(transient_io(ErrorKind::BrokenPipe));
        assert!(transient_io(ErrorKind::ConnectionRefused));
    }
}
