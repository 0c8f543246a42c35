//! Deterministic fault injection for crash-safety testing.
//!
//! Production systems crash; a repo whose contract is *bit-identical*
//! determinism can test crashes deterministically too. This crate
//! provides seeded **fault plans**: a tiny rule language that decides,
//! purely as a function of `(site, invocation, seed)`, whether a named
//! IO seam should fail on its n-th call. The decision function is pure,
//! so the same plan produces the same kill schedule on every run and
//! every thread count — which is what lets the crash/resume suites
//! assert bit-identity against an uninterrupted run.
//!
//! # Plan grammar
//!
//! A plan is `;`-separated items. Each item is either `seed=S` or a
//! rule `site@selector[,kind=transient|permanent]`:
//!
//! ```text
//! seed=3;checkpoint.write@nth=2;serve.conn@p=0.25,kind=transient
//! ```
//!
//! Selectors (invocations are 1-based, counted per site):
//!
//! | selector  | fails when…                                   |
//! |-----------|-----------------------------------------------|
//! | `nth=K`   | invocation == K (exactly once)                |
//! | `every=K` | invocation % K == 0                           |
//! | `after=K` | invocation > K (every call past the K-th)     |
//! | `p=X`     | a seeded hash of (site, invocation) < X       |
//!
//! A site pattern is either an exact site name or a prefix glob with a
//! trailing `*` (`checkpoint.*`). A bare integer plan (`SP_FAULT_PLAN=3`)
//! is shorthand for `seed=3` with no rules: the global injector stays
//! inert, while test suites read the seed to vary their own in-process
//! kill schedules — this is what the CI fault matrix uses.
//!
//! # Global injection
//!
//! Library seams call [`inject`] with a site name from [`sites`]. When
//! the `SP_FAULT_PLAN` environment variable is unset this is a single
//! relaxed atomic load — zero-cost in production. When set, the plan is
//! parsed once and per-site invocation counters drive the rules; a
//! matched rule makes [`inject`] return an [`InjectedFault`], which
//! converts into a `std::io::Error` (transient faults map to
//! `TimedOut`, permanent ones to `Other`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod retry;

use sp_parallel::splitmix64;
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

/// How an injected fault should present to the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A fault a retry policy should absorb (maps to `TimedOut`).
    Transient,
    /// A fault that must surface immediately (maps to `Other`).
    Permanent,
}

impl FaultKind {
    /// The `io::ErrorKind` this fault presents as.
    pub fn io_kind(self) -> std::io::ErrorKind {
        match self {
            FaultKind::Transient => std::io::ErrorKind::TimedOut,
            FaultKind::Permanent => std::io::ErrorKind::Other,
        }
    }
}

/// A fault produced by [`inject`] or [`FaultPlan::fault_for`].
#[derive(Debug)]
pub struct InjectedFault {
    /// The site that failed.
    pub site: String,
    /// The 1-based invocation that matched a rule.
    pub invocation: u64,
    /// Transient or permanent.
    pub kind: FaultKind,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {:?} fault at {} (invocation {})",
            self.kind, self.site, self.invocation
        )
    }
}

impl std::error::Error for InjectedFault {}

impl From<InjectedFault> for std::io::Error {
    fn from(fault: InjectedFault) -> Self {
        std::io::Error::new(fault.kind.io_kind(), fault.to_string())
    }
}

/// When within a site's invocation stream a rule fires.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Selector {
    Nth(u64),
    Every(u64),
    After(u64),
    Prob(f64),
}

#[derive(Clone, Debug)]
struct Rule {
    /// Exact site name, or prefix when `glob` is set (trailing `*`).
    site: String,
    glob: bool,
    selector: Selector,
    kind: FaultKind,
}

impl Rule {
    fn matches_site(&self, site: &str) -> bool {
        if self.glob {
            site.starts_with(&self.site)
        } else {
            site == self.site
        }
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

/// A parsed, seeded fault plan. Decisions are pure functions of
/// `(site, invocation, seed)` — no hidden state — so a plan can be
/// consulted from any thread in any order and still describe the same
/// schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
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
        let mut seed = 1u64;
        let mut rules = Vec::new();
        for item in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(value) = item.strip_prefix("seed=") {
                seed = value
                    .parse()
                    .map_err(|e| PlanError(format!("seed {value:?}: {e}")))?;
                continue;
            }
            let (site_pat, rest) = item
                .split_once('@')
                .ok_or_else(|| PlanError(format!("rule {item:?} has no '@selector'")))?;
            if site_pat.is_empty() {
                return Err(PlanError(format!("rule {item:?} has an empty site")));
            }
            let (glob, site) = match site_pat.strip_suffix('*') {
                Some(prefix) => (true, prefix.to_string()),
                None => (false, site_pat.to_string()),
            };
            let mut selector = None;
            let mut kind = FaultKind::Transient;
            for part in rest.split(',').map(str::trim) {
                let (key, value) = part
                    .split_once('=')
                    .ok_or_else(|| PlanError(format!("expected key=value, got {part:?}")))?;
                match key {
                    "nth" | "every" | "after" => {
                        let n: u64 = value
                            .parse()
                            .map_err(|e| PlanError(format!("{key} {value:?}: {e}")))?;
                        if n == 0 && key != "after" {
                            return Err(PlanError(format!("{key}=0 never fires")));
                        }
                        selector = Some(match key {
                            "nth" => Selector::Nth(n),
                            "every" => Selector::Every(n),
                            _ => Selector::After(n),
                        });
                    }
                    "p" => {
                        let p: f64 = value
                            .parse()
                            .map_err(|e| PlanError(format!("p {value:?}: {e}")))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(PlanError(format!("p={p} outside [0, 1]")));
                        }
                        selector = Some(Selector::Prob(p));
                    }
                    "kind" => {
                        kind = match value {
                            "transient" => FaultKind::Transient,
                            "permanent" => FaultKind::Permanent,
                            other => {
                                return Err(PlanError(format!("unknown kind {other:?}")));
                            }
                        };
                    }
                    other => return Err(PlanError(format!("unknown key {other:?}"))),
                }
            }
            let selector =
                selector.ok_or_else(|| PlanError(format!("rule {item:?} has no selector")))?;
            rules.push(Rule {
                site,
                glob,
                selector,
                kind,
            });
        }
        Ok(Self { seed, rules })
    }

    /// The plan's seed (drives `p=` rules and lets test suites derive
    /// their own kill schedules).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no rule can ever fire.
    pub fn is_inert(&self) -> bool {
        self.rules.is_empty()
    }

    /// Whether `site` should fail on its `invocation`-th call (1-based).
    pub fn should_fail(&self, site: &str, invocation: u64) -> bool {
        self.fault_for(site, invocation).is_some()
    }

    /// Like [`FaultPlan::should_fail`], but reports the matched rule's
    /// fault kind. The first matching rule wins.
    pub fn fault_for(&self, site: &str, invocation: u64) -> Option<FaultKind> {
        for rule in &self.rules {
            if !rule.matches_site(site) {
                continue;
            }
            let fires = match rule.selector {
                Selector::Nth(k) => invocation == k,
                Selector::Every(k) => invocation % k == 0,
                Selector::After(k) => invocation > k,
                Selector::Prob(p) => unit_hash(self.seed, site, invocation) < p,
            };
            if fires {
                return Some(rule.kind);
            }
        }
        None
    }
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a, the same shape the loaders use for fingerprints.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in site.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic uniform draw in `[0, 1)` from (seed, site, invocation).
fn unit_hash(seed: u64, site: &str, invocation: u64) -> f64 {
    let mixed = splitmix64(seed ^ site_hash(site) ^ splitmix64(invocation));
    // Top 53 bits → [0, 1), the standard double construction.
    (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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
pub fn plan() -> Option<&'static FaultPlan> {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => None,
        2 => PLAN.get().and_then(|p| p.as_ref()),
        _ => load_plan(),
    }
}

/// True when a global fault plan is installed.
pub fn enabled() -> bool {
    plan().is_some()
}

/// Consults the global plan at `site`, counting this call as one
/// invocation. `Ok(())` when no plan is set (a single atomic load) or
/// no rule fires; `Err` carries the injected fault.
pub fn inject(site: &str) -> Result<(), InjectedFault> {
    let Some(plan) = plan() else { return Ok(()) };
    if plan.is_inert() {
        return Ok(());
    }
    let counters = COUNTERS.get_or_init(|| Mutex::new(HashMap::new()));
    let invocation = {
        let mut map = counters.lock().expect("fault counter lock poisoned");
        let slot = map.entry(site.to_string()).or_insert(0);
        *slot += 1;
        *slot
    };
    match plan.fault_for(site, invocation) {
        Some(kind) => Err(InjectedFault {
            site: site.to_string(),
            invocation,
            kind,
        }),
        None => Ok(()),
    }
}

/// How many times [`inject`] has been consulted at `site` in this
/// process (0 when no plan is active). For fault-log reporting.
pub fn invocations(site: &str) -> u64 {
    COUNTERS
        .get()
        .and_then(|c| c.lock().ok().map(|m| m.get(site).copied().unwrap_or(0)))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_integer_is_a_seed_only_plan() {
        let plan = FaultPlan::parse("3").unwrap();
        assert_eq!(plan.seed(), 3);
        assert!(plan.is_inert());
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
    fn every_and_after_selectors() {
        let plan = FaultPlan::parse("a@every=4;b@after=2").unwrap();
        let every: Vec<u64> = (1..=9).filter(|&i| plan.should_fail("a", i)).collect();
        assert_eq!(every, vec![4, 8]);
        let after: Vec<u64> = (1..=5).filter(|&i| plan.should_fail("b", i)).collect();
        assert_eq!(after, vec![3, 4, 5]);
    }

    #[test]
    fn glob_matches_prefix() {
        let plan = FaultPlan::parse("checkpoint.*@nth=1").unwrap();
        assert!(plan.should_fail(sites::CHECKPOINT_WRITE, 1));
        assert!(plan.should_fail(sites::CHECKPOINT_READ, 1));
        assert!(!plan.should_fail(sites::MODEL_WRITE, 1));
    }

    #[test]
    fn probabilistic_rules_are_seed_deterministic() {
        let a = FaultPlan::parse("seed=7;x@p=0.5").unwrap();
        let b = FaultPlan::parse("seed=7;x@p=0.5").unwrap();
        let c = FaultPlan::parse("seed=8;x@p=0.5").unwrap();
        let draws = |p: &FaultPlan| (1..=64).map(|i| p.should_fail("x", i)).collect::<Vec<_>>();
        assert_eq!(draws(&a), draws(&b));
        assert_ne!(draws(&a), draws(&c), "different seeds, different schedule");
        let hits = draws(&a).iter().filter(|&&h| h).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64 draws hit {hits}");
    }

    #[test]
    fn p_zero_never_fires_and_p_one_always_fires() {
        let plan = FaultPlan::parse("x@p=0;y@p=1").unwrap();
        assert!((1..=100).all(|i| !plan.should_fail("x", i)));
        assert!((1..=100).all(|i| plan.should_fail("y", i)));
    }

    #[test]
    fn kind_controls_io_error_mapping() {
        let plan = FaultPlan::parse("x@nth=1,kind=permanent;y@nth=1").unwrap();
        assert_eq!(plan.fault_for("x", 1), Some(FaultKind::Permanent));
        assert_eq!(plan.fault_for("y", 1), Some(FaultKind::Transient));
        let err: std::io::Error = InjectedFault {
            site: "y".into(),
            invocation: 1,
            kind: FaultKind::Transient,
        }
        .into();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(retry::transient_io(err.kind()));
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "x",          // no selector
            "x@",         // empty selector
            "x@nth=zero", // unparsable count
            "x@nth=0",    // never fires
            "x@p=1.5",    // out of range
            "x@nth=1,kind=flaky",
            "@nth=1", // empty site
            "seed=abc",
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
