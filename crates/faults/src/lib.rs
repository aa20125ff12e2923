//! `na-faults` — failure-domain primitives: deterministic fault
//! injection and cooperative deadlines.
//!
//! Production code plants named **failpoint sites** on its failure
//! boundaries (`faults::point("engine.compile")?`). Disabled — the
//! default — a site costs a single relaxed atomic load. Armed
//! (programmatically via [`arm`]/[`arm_spec`], or through the
//! `NATOMS_FAULTS` environment variable via [`arm_from_env`]) a site
//! deterministically injects a panic, a typed [`InjectedFault`] error,
//! or a delay on its Nth hit, so chaos tests can prove the panic
//! isolation / cache recovery / drain behavior of the layers above.
//!
//! # Spec grammar
//!
//! ```text
//! NATOMS_FAULTS = plan (';' plan)*
//! plan          = site ['#' scope] '=' action ['@' hit]
//! action        = 'panic' | 'error' | 'delay:<ms>'
//! ```
//!
//! `hit` is 1-based and defaults to 1. Examples:
//!
//! ```text
//! engine.compile=panic@2          # panic on the 2nd compile of a scope
//! loss.shot#job3=error@10         # typed error, 10th shot of job 3 only
//! engine.sink.write=delay:50      # 50 ms stall on the first sink write
//! ```
//!
//! # Determinism and scopes
//!
//! Hit counts are kept **per enclosing scope** ([`scope`]), not
//! globally: the engine wraps every job in `faults::scope("job<id>")`,
//! so "the 3rd hit of `engine.compile`" means the 3rd within one job,
//! no matter how jobs interleave across worker threads. Outside any
//! scope, counts are per thread. A `#scope` filter pins a plan to one
//! scope label; plans without a filter match every scope.
//!
//! Cooperative **deadlines** share the crate because they are the same
//! mechanism viewed from the clock: a cheap ambient token
//! ([`push_deadline`]) checked at stage boundaries
//! ([`check_deadline`]), costing one relaxed atomic load when no
//! deadline is active anywhere in the process.
//!
//! Everything here is process-global state; tests that arm faults must
//! serialize through [`exclusive`] and disarm with [`reset`].

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Environment variable read by [`arm_from_env`].
pub const ENV_VAR: &str = "NATOMS_FAULTS";

// ---------------------------------------------------------------------------
// Failpoints
// ---------------------------------------------------------------------------

/// The typed error a failpoint injects for the `error` action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

impl Error for InjectedFault {}

/// What an armed site does when its hit index matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a deterministic message (tests panic isolation).
    Panic,
    /// Return [`InjectedFault`] through the site's error channel.
    Error,
    /// Sleep, then succeed (tests deadlines and slow-path hygiene).
    Delay(Duration),
}

/// One armed injection: site, optional scope filter, action, hit index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The failpoint site name, e.g. `"engine.compile"`.
    pub site: String,
    /// Only fire inside a [`scope`] with this exact label.
    pub scope: Option<String>,
    /// What to inject.
    pub action: FaultAction,
    /// 1-based hit index within the matching scope.
    pub hit: u64,
}

impl FaultPlan {
    /// A plan firing on the first hit of `site` in any scope.
    pub fn new(site: impl Into<String>, action: FaultAction) -> Self {
        FaultPlan {
            site: site.into(),
            scope: None,
            action,
            hit: 1,
        }
    }

    /// Restricts the plan to one scope label.
    pub fn in_scope(mut self, scope: impl Into<String>) -> Self {
        self.scope = Some(scope.into());
        self
    }

    /// Replaces the 1-based hit index.
    #[cfg(test)]
    pub(crate) fn on_hit(mut self, hit: u64) -> Self {
        assert!(hit >= 1, "hit indices are 1-based");
        self.hit = hit;
        self
    }
}

/// A malformed `NATOMS_FAULTS` / [`arm_spec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl Error for FaultSpecError {}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLANS: Mutex<Vec<FaultPlan>> = Mutex::new(Vec::new());
static TEST_SERIAL: Mutex<()> = Mutex::new(());

fn lock_plans() -> MutexGuard<'static, Vec<FaultPlan>> {
    // Fault state must survive a panicking (injected!) test thread;
    // recover the data instead of propagating the poison marker.
    PLANS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes tests that arm process-global fault state. The guard is
/// panic-tolerant: an injected panic in the previous holder does not
/// poison it for the next.
pub fn exclusive() -> MutexGuard<'static, ()> {
    TEST_SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms one plan. Takes effect for hits observed after the call; arm
/// before starting the run under test.
pub fn arm(plan: FaultPlan) {
    lock_plans().push(plan);
    ARMED.store(true, Ordering::Relaxed);
}

/// Parses a spec string (see the module docs for the grammar) and arms
/// every plan in it. Returns the number of plans armed.
///
/// # Errors
///
/// [`FaultSpecError`] describing the first malformed plan.
pub fn arm_spec(spec: &str) -> Result<usize, FaultSpecError> {
    let plans = parse_spec(spec)?;
    let n = plans.len();
    for plan in plans {
        arm(plan);
    }
    Ok(n)
}

/// [`arm_spec`] on the `NATOMS_FAULTS` environment variable; unset or
/// blank arms nothing.
///
/// # Errors
///
/// [`FaultSpecError`] if the variable is set but malformed.
pub fn arm_from_env() -> Result<usize, FaultSpecError> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => arm_spec(&spec),
        _ => Ok(0),
    }
}

/// Disarms every plan and returns sites to the disabled fast path.
/// (Scope frames and their hit counts live on the stack of whoever
/// pushed them and are unaffected.)
pub fn reset() {
    ARMED.store(false, Ordering::Relaxed);
    lock_plans().clear();
}

/// Parses a spec string into plans without arming them.
///
/// # Errors
///
/// [`FaultSpecError`] describing the first malformed plan.
pub fn parse_spec(spec: &str) -> Result<Vec<FaultPlan>, FaultSpecError> {
    let mut plans = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (lhs, rhs) = part
            .split_once('=')
            .ok_or_else(|| FaultSpecError(format!("missing '=' in {part:?}")))?;
        let (site, scope) = match lhs.split_once('#') {
            Some((site, scope)) => (site.trim(), Some(scope.trim().to_string())),
            None => (lhs.trim(), None),
        };
        if site.is_empty() {
            return Err(FaultSpecError(format!("empty site in {part:?}")));
        }
        if let Some(s) = &scope {
            if s.is_empty() {
                return Err(FaultSpecError(format!("empty scope in {part:?}")));
            }
        }
        let (action_str, hit) = match rhs.split_once('@') {
            Some((action, n)) => {
                let hit: u64 = n.trim().parse().map_err(|_| {
                    FaultSpecError(format!("bad hit index {:?} in {part:?}", n.trim()))
                })?;
                (action.trim(), hit)
            }
            None => (rhs.trim(), 1),
        };
        if hit == 0 {
            return Err(FaultSpecError(format!(
                "hit indices are 1-based (got 0) in {part:?}"
            )));
        }
        let action = if action_str == "panic" {
            FaultAction::Panic
        } else if action_str == "error" {
            FaultAction::Error
        } else if let Some(ms) = action_str.strip_prefix("delay:") {
            let ms: u64 = ms.trim().parse().map_err(|_| {
                FaultSpecError(format!("bad delay millis {:?} in {part:?}", ms.trim()))
            })?;
            FaultAction::Delay(Duration::from_millis(ms))
        } else {
            return Err(FaultSpecError(format!(
                "unknown action {action_str:?} in {part:?} \
                 (expected panic, error, or delay:<ms>)"
            )));
        };
        plans.push(FaultPlan {
            site: site.to_string(),
            scope,
            action,
            hit,
        });
    }
    Ok(plans)
}

struct Frame {
    label: String,
    hits: HashMap<&'static str, u64>,
}

thread_local! {
    /// Scope stack; the bottom frame is the thread's implicit root.
    static FRAMES: RefCell<Vec<Frame>> = RefCell::new(vec![Frame {
        label: String::new(),
        hits: HashMap::new(),
    }]);
}

/// RAII guard of one fault scope; see [`scope`].
pub struct FaultScope {
    pushed: bool,
    // Frames are thread-local: the guard must drop on its own thread.
    _not_send: PhantomData<*const ()>,
}

/// Enters a named fault scope: hit counts inside it start from zero
/// and are discarded when the guard drops, and `#label`-filtered plans
/// match only inside it. No-op (and allocation-free) while disarmed.
pub fn scope(label: impl Into<String>) -> FaultScope {
    if !ARMED.load(Ordering::Relaxed) {
        return FaultScope {
            pushed: false,
            _not_send: PhantomData,
        };
    }
    FRAMES.with(|f| {
        f.borrow_mut().push(Frame {
            label: label.into(),
            hits: HashMap::new(),
        });
    });
    FaultScope {
        pushed: true,
        _not_send: PhantomData,
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        if self.pushed {
            FRAMES.with(|f| {
                f.borrow_mut().pop();
            });
        }
    }
}

/// A failpoint site. Disabled: one relaxed atomic load, always `Ok`.
/// Armed: counts the hit in the current scope and runs any matching
/// plan's action.
///
/// Sites whose callers have no error channel `unwrap()` the result,
/// escalating an injected `error` into an (isolated) panic.
///
/// # Errors
///
/// [`InjectedFault`] when a matching `error` plan fires.
///
/// # Panics
///
/// When a matching `panic` plan fires — that is the point.
#[inline]
pub fn point(site: &'static str) -> Result<(), InjectedFault> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    point_armed(site)
}

#[cold]
fn point_armed(site: &'static str) -> Result<(), InjectedFault> {
    let (hit, action) = FRAMES.with(|f| {
        let mut frames = f.borrow_mut();
        let frame = frames.last_mut().expect("root frame always present");
        let hit = frame.hits.entry(site).or_insert(0);
        *hit += 1;
        let hit = *hit;
        let plans = lock_plans();
        let action = plans
            .iter()
            .find(|p| {
                p.site == site
                    && p.hit == hit
                    && p.scope.as_deref().is_none_or(|s| s == frame.label)
            })
            .map(|p| p.action);
        (hit, action)
    });
    if action.is_some() {
        // Mark the injection on the causal timeline *before* the
        // action fires — a panic unwinds past this frame, but the
        // thread's trace buffer survives to the worker's flush.
        na_telemetry::trace::instant("fault", "fault_injected", || {
            vec![("site", site.into()), ("hit", hit.into())]
        });
    }
    match action {
        None => Ok(()),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(FaultAction::Error) => Err(InjectedFault {
            site: site.to_string(),
        }),
        Some(FaultAction::Panic) => panic!("injected panic at {site} (hit {hit})"),
    }
}

// ---------------------------------------------------------------------------
// Cooperative deadlines
// ---------------------------------------------------------------------------

/// The error a stage boundary returns when its job ran out of budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job deadline exceeded")
    }
}

impl Error for DeadlineExceeded {}

/// A wall-clock budget; `UNBOUNDED` means no limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No limit (the default).
    pub const UNBOUNDED: Deadline = Deadline(None);

    /// Expires `budget` from now (saturating to unbounded on overflow).
    pub fn after(budget: Duration) -> Self {
        Deadline(Instant::now().checked_add(budget))
    }

    /// Expires at `instant`.
    pub fn at(instant: Instant) -> Self {
        Deadline(Some(instant))
    }

    /// `true` once the budget has elapsed (never for unbounded).
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }
}

static ACTIVE_DEADLINES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The innermost active deadline of this thread.
    static CURRENT_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// RAII guard of one ambient deadline; see [`push_deadline`].
pub struct DeadlineGuard {
    prev: Option<Instant>,
    counted: bool,
    // The ambient slot is thread-local: drop on the pushing thread.
    _not_send: PhantomData<*const ()>,
}

/// Installs `deadline` as the current thread's ambient deadline until
/// the guard drops. Nested pushes tighten (the effective deadline is
/// the earliest active one); pushing `UNBOUNDED` is free and changes
/// nothing.
#[must_use = "the deadline is active only while the guard lives"]
pub fn push_deadline(deadline: Deadline) -> DeadlineGuard {
    let Some(t) = deadline.0 else {
        return DeadlineGuard {
            prev: None,
            counted: false,
            _not_send: PhantomData,
        };
    };
    let prev = CURRENT_DEADLINE.with(|c| c.get());
    let effective = match prev {
        Some(p) => p.min(t),
        None => t,
    };
    CURRENT_DEADLINE.with(|c| c.set(Some(effective)));
    ACTIVE_DEADLINES.fetch_add(1, Ordering::Relaxed);
    DeadlineGuard {
        prev,
        counted: true,
        _not_send: PhantomData,
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        if self.counted {
            CURRENT_DEADLINE.with(|c| c.set(self.prev));
            ACTIVE_DEADLINES.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A deadline checkpoint. With no deadline active anywhere in the
/// process this is one relaxed atomic load; with one installed on this
/// thread it reads the clock and reports expiry.
///
/// # Errors
///
/// [`DeadlineExceeded`] once the ambient deadline has elapsed.
#[inline]
pub fn check_deadline() -> Result<(), DeadlineExceeded> {
    if ACTIVE_DEADLINES.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    check_deadline_slow()
}

#[cold]
fn check_deadline_slow() -> Result<(), DeadlineExceeded> {
    CURRENT_DEADLINE.with(|c| match c.get() {
        Some(t) if Instant::now() >= t => {
            na_telemetry::trace::instant("fault", "deadline_expired", Vec::new);
            Err(DeadlineExceeded)
        }
        _ => Ok(()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` while any plan is armed.
    fn is_armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    #[test]
    fn disabled_points_are_ok_and_free() {
        let _serial = exclusive();
        reset();
        for _ in 0..1000 {
            assert!(point("engine.compile").is_ok());
        }
    }

    #[test]
    fn error_action_fires_on_exact_hit() {
        let _serial = exclusive();
        reset();
        arm(FaultPlan::new("t.site", FaultAction::Error).on_hit(3));
        let _scope = scope("unit");
        assert!(point("t.site").is_ok());
        assert!(point("t.site").is_ok());
        let err = point("t.site").unwrap_err();
        assert_eq!(err.site, "t.site");
        assert!(err.to_string().contains("t.site"));
        assert!(point("t.site").is_ok(), "fires once, not from hit 3 on");
        reset();
    }

    #[test]
    fn panic_action_panics_with_site_in_message() {
        let _serial = exclusive();
        reset();
        arm(FaultPlan::new("t.boom", FaultAction::Panic));
        let result = std::panic::catch_unwind(|| {
            let _scope = scope("unit");
            let _ = point("t.boom");
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "injected panic at t.boom (hit 1)");
        reset();
    }

    #[test]
    fn delay_action_sleeps_then_succeeds() {
        let _serial = exclusive();
        reset();
        arm(FaultPlan::new(
            "t.slow",
            FaultAction::Delay(Duration::from_millis(30)),
        ));
        let _scope = scope("unit");
        let t0 = Instant::now();
        assert!(point("t.slow").is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(30));
        reset();
    }

    #[test]
    fn scope_filter_pins_a_plan_to_one_label() {
        let _serial = exclusive();
        reset();
        arm(FaultPlan::new("t.scoped", FaultAction::Error).in_scope("job2"));
        {
            let _scope = scope("job1");
            assert!(point("t.scoped").is_ok());
        }
        {
            let _scope = scope("job2");
            assert!(point("t.scoped").is_err());
        }
        reset();
    }

    #[test]
    fn hit_counts_reset_per_scope() {
        let _serial = exclusive();
        reset();
        arm(FaultPlan::new("t.counted", FaultAction::Error).on_hit(2));
        for _ in 0..3 {
            let _scope = scope("fresh");
            assert!(point("t.counted").is_ok(), "hit 1 never fires");
            assert!(point("t.counted").is_err(), "hit 2 fires in every scope");
        }
        reset();
    }

    #[test]
    fn spec_grammar_round_trips() {
        let plans =
            parse_spec("engine.compile=panic@2; loss.shot#job3=error@10;sink=delay:50").unwrap();
        assert_eq!(
            plans,
            vec![
                FaultPlan::new("engine.compile", FaultAction::Panic).on_hit(2),
                FaultPlan::new("loss.shot", FaultAction::Error)
                    .in_scope("job3")
                    .on_hit(10),
                FaultPlan::new("sink", FaultAction::Delay(Duration::from_millis(50))),
            ]
        );
        assert_eq!(parse_spec("").unwrap(), vec![]);
        assert_eq!(parse_spec(" ; ; ").unwrap(), vec![]);
    }

    #[test]
    fn spec_grammar_rejects_malformed_plans() {
        for bad in [
            "engine.compile", // no '='
            "=panic",         // empty site
            "a#=panic",       // empty scope
            "a=explode",      // unknown action
            "a=panic@x",      // bad hit index
            "a=panic@0",      // hits are 1-based
            "a=delay:many",   // bad millis
        ] {
            let err = parse_spec(bad).unwrap_err();
            assert!(err.to_string().starts_with("bad fault spec:"), "{bad}");
        }
    }

    #[test]
    fn arm_spec_arms_and_reset_disarms() {
        let _serial = exclusive();
        reset();
        assert!(!is_armed());
        assert_eq!(arm_spec("t.armed=error").unwrap(), 1);
        assert!(is_armed());
        {
            let _scope = scope("unit");
            assert!(point("t.armed").is_err());
        }
        reset();
        assert!(!is_armed());
        let _scope = scope("unit");
        assert!(point("t.armed").is_ok());
    }

    #[test]
    fn unbounded_deadline_is_free_and_never_expires() {
        assert!(Deadline::UNBOUNDED.0.is_none());
        assert!(!Deadline::UNBOUNDED.expired());
        let _guard = push_deadline(Deadline::UNBOUNDED);
        assert!(check_deadline().is_ok());
    }

    #[test]
    fn expired_deadline_fails_checkpoints_until_popped() {
        assert!(check_deadline().is_ok(), "no ambient deadline");
        {
            let _guard = push_deadline(Deadline::after(Duration::ZERO));
            assert_eq!(check_deadline(), Err(DeadlineExceeded));
            assert_eq!(DeadlineExceeded.to_string(), "job deadline exceeded");
        }
        assert!(check_deadline().is_ok(), "guard drop restores the slot");
    }

    #[test]
    fn nested_deadlines_tighten() {
        let _outer = push_deadline(Deadline::after(Duration::from_secs(3600)));
        assert!(check_deadline().is_ok());
        {
            let _inner = push_deadline(Deadline::after(Duration::ZERO));
            assert!(check_deadline().is_err());
        }
        assert!(check_deadline().is_ok());
        {
            // An unbounded inner push must not loosen the outer budget.
            let _inner = push_deadline(Deadline::UNBOUNDED);
            assert!(check_deadline().is_ok());
        }
    }
}
