//! Deterministic fault injection for crash-safety testing.
//!
//! Production systems crash; a repo whose contract is *bit-identical*
//! determinism can test crashes deterministically too. This crate
//! provides **fault plans**: a tiny rule language that decides, purely
//! as a function of `(site, invocation)`, whether a named IO seam
//! should fail on its n-th call. The decision function is pure, so the
//! same plan produces the same kill schedule on every run and every
//! thread count — which is what lets the crash/resume suites assert
//! bit-identity against an uninterrupted run.
//!
//! # Plan grammar
//!
//! A plan is either a bare integer or `;`-separated rules:
//!
//! ```text
//! 3
//! checkpoint.write@nth=2;serve.conn@nth=1
//! ```
//!
//! | form         | meaning                                                 |
//! |--------------|---------------------------------------------------------|
//! | `S`          | seed-only plan: no rule fires; [`FaultPlan::seed`] is S |
//! | `site@nth=K` | call K (1-based, counted per site) at `site` fails once |
//!
//! A bare integer leaves the global injector inert, while test suites
//! read the seed to vary their own in-process kill schedules — this is
//! what the CI fault matrix uses. A rule plan's seed is 1. Sites are
//! exact names. Anything else (another selector, a key after `nth=K`,
//! a `*` in a site) is a [`PlanError`], never ignored.
//!
//! # Global injection
//!
//! Library seams call [`inject`] with a site name from [`sites`]. When
//! the `SP_FAULT_PLAN` environment variable is unset this is a single
//! relaxed atomic load — zero-cost in production. When set, the plan is
//! parsed once and per-site invocation counters drive the rules; a
//! matched rule makes [`inject`] return an [`InjectedFault`], which
//! converts into a `std::io::Error` of kind `Other`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable holding the global fault plan.
pub const PLAN_ENV: &str = "SP_FAULT_PLAN";

/// Named injection sites threaded behind the workspace's IO seams.
///
/// Sites are plain strings so downstream crates can add their own
/// without a dependency cycle; the constants here are the ones wired
/// into the workspace.
pub mod sites {
    /// `sp_model` atomic model-file writes (`.spm`).
    pub const MODEL_WRITE: &str = "model.write";
    /// `sp_model` checkpoint writes (`.spc`).
    pub const CHECKPOINT_WRITE: &str = "checkpoint.write";
    /// `sp_model` checkpoint reads (`.spc`).
    pub const CHECKPOINT_READ: &str = "checkpoint.read";
    /// `sp_datasets` edge-list / label reads.
    pub const DATASET_READ: &str = "datasets.read";
    /// `sp_served` per-connection handling (fault drops the connection
    /// before the greeting).
    pub const SERVE_CONN: &str = "serve.conn";
}

/// A fault produced by [`inject`].
#[derive(Debug)]
pub struct InjectedFault {
    /// The site that failed.
    pub site: String,
    /// The 1-based invocation that matched a rule.
    pub invocation: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected fault at {} (invocation {})",
            self.site, self.invocation
        )
    }
}

impl std::error::Error for InjectedFault {}

impl From<InjectedFault> for std::io::Error {
    fn from(fault: InjectedFault) -> Self {
        std::io::Error::other(fault.to_string())
    }
}

/// A malformed plan specification.
#[derive(Debug, PartialEq)]
pub struct PlanError(String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// A parsed fault plan. Decisions are pure functions of
/// `(site, invocation)` — no hidden state — so a plan can be consulted
/// from any thread in any order and still describe the same schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    /// `(site, K)`: the site's K-th invocation fails.
    rules: Vec<(String, u64)>,
}

impl FaultPlan {
    /// Parses a plan from the grammar in the crate docs.
    pub fn parse(spec: &str) -> Result<Self, PlanError> {
        let spec = spec.trim();
        // Bare integer: seed-only plan (the CI fault-matrix shape).
        if let Ok(seed) = spec.parse::<u64>() {
            return Ok(Self {
                seed,
                rules: Vec::new(),
            });
        }
        let mut rules = Vec::new();
        for item in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            let (site, selector) = item
                .split_once('@')
                .ok_or_else(|| PlanError(format!("rule {item:?} has no '@nth=K'")))?;
            if site.is_empty() {
                return Err(PlanError(format!("rule {item:?} has an empty site")));
            }
            if site.contains('*') {
                return Err(PlanError(format!("site {site:?} is not an exact name")));
            }
            let count = selector
                .strip_prefix("nth=")
                .ok_or_else(|| PlanError(format!("rule {item:?}: expected nth=K")))?;
            let k: u64 = count
                .parse()
                .map_err(|e| PlanError(format!("nth {count:?}: {e}")))?;
            if k == 0 {
                return Err(PlanError("nth=0 never fires".to_string()));
            }
            rules.push((site.to_string(), k));
        }
        Ok(Self { seed: 1, rules })
    }

    /// The plan's seed, which lets test suites derive their own kill
    /// schedules.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `site` should fail on its `invocation`-th call (1-based).
    pub fn should_fail(&self, site: &str, invocation: u64) -> bool {
        self.rules
            .iter()
            .any(|(rule_site, k)| rule_site == site && *k == invocation)
    }
}

// Global plan state. `ACTIVE` is the fast path: 0 = unknown, 1 = no
// plan (inject is a no-op), 2 = plan present.
static ACTIVE: AtomicU8 = AtomicU8::new(0);
static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
static COUNTERS: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();

fn load_plan() -> Option<&'static FaultPlan> {
    let plan = PLAN.get_or_init(|| match std::env::var(PLAN_ENV) {
        Ok(spec) if !spec.trim().is_empty() => match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            // A typo'd plan silently ignored would make a fault run
            // vacuously green; fail fast instead.
            Err(e) => panic!("{PLAN_ENV}={spec:?}: {e}"),
        },
        _ => None,
    });
    ACTIVE.store(if plan.is_some() { 2 } else { 1 }, Ordering::Relaxed);
    plan.as_ref()
}

/// The global plan parsed from `SP_FAULT_PLAN`, if any. First call
/// snapshots the environment; later changes to the variable are not
/// observed (each test binary is its own process, so suites that need
/// the env-driven path set the variable before the first injection).
fn plan() -> Option<&'static FaultPlan> {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => None,
        2 => PLAN.get().and_then(|p| p.as_ref()),
        _ => load_plan(),
    }
}

/// Consults the global plan at `site`, counting this call as one
/// invocation. `Ok(())` when no plan is set (a single atomic load) or
/// no rule fires; `Err` carries the injected fault.
pub fn inject(site: &str) -> Result<(), InjectedFault> {
    let Some(plan) = plan() else { return Ok(()) };
    if plan.rules.is_empty() {
        return Ok(());
    }
    let counters = COUNTERS.get_or_init(|| Mutex::new(HashMap::new()));
    let invocation = {
        let mut map = counters.lock().expect("fault counter lock poisoned");
        let slot = map.entry(site.to_string()).or_insert(0);
        *slot += 1;
        *slot
    };
    if plan.should_fail(site, invocation) {
        Err(InjectedFault {
            site: site.to_string(),
            invocation,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_integer_is_a_seed_only_plan() {
        let plan = FaultPlan::parse("3").unwrap();
        assert_eq!(plan.seed(), 3);
        assert!(plan.rules.is_empty());
        assert!(!plan.should_fail(sites::MODEL_WRITE, 1));
    }

    #[test]
    fn nth_fires_exactly_once() {
        let plan = FaultPlan::parse("checkpoint.write@nth=3").unwrap();
        let hits: Vec<u64> = (1..=10)
            .filter(|&i| plan.should_fail(sites::CHECKPOINT_WRITE, i))
            .collect();
        assert_eq!(hits, vec![3]);
        assert!(!plan.should_fail(sites::CHECKPOINT_READ, 3));
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "x",          // no selector
            "x@",         // empty selector
            "x@nth=zero", // unparsable count
            "x@nth=0",    // never fires
            "@nth=1",     // empty site
            "x@nth=1,kind=flaky",
            "seed=abc",
            // Forms an earlier grammar accepted: refused, never ignored.
            "x@every=7",
            "x@after=2",
            "x@p=0.5",
            "checkpoint.*@nth=1",
            "seed=42",
            "seed=42;x@nth=1",
            "x@nth=1,kind=permanent",
            "x@nth=1,kind=transient",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn seed_defaults_to_one() {
        assert_eq!(FaultPlan::parse("x@nth=1").unwrap().seed(), 1);
        assert_eq!(FaultPlan::parse("").unwrap().seed(), 1);
    }
}
