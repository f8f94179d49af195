//! Verification harness: invariant checking and refinement auditing.
//!
//! In the paper, two theorems are proven statically for every kernel entry
//! point (§4): *well-formedness* (`total_wf()` holds after every
//! transition) and *refinement* (the transition satisfies its abstract
//! system-call specification). This module provides the executable
//! machinery that checks the same obligations dynamically:
//!
//! * [`VerifResult`] / [`InvariantViolation`] — the outcome of checking one
//!   obligation; a violation corresponds to a proof Verus would reject.
//! * [`Invariant`] — implemented by every subsystem; `wf()` is the
//!   executable `total_wf()`.
//! * [`Obligations`] — a ledger counting discharged obligations, so test
//!   runs can report how many checks backed a passing verdict.
//! * [`check`] / [`check_all`] — helpers that turn boolean spec functions
//!   into labelled results.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A refuted proof obligation.
///
/// Carries the subsystem that owns the invariant and a human-readable
/// description of which conjunct failed. Audit-producing call sites
/// additionally attach *structured* diagnostics — which lock domain the
/// failing state lives in, which global equation was refuted, and (for
/// the incremental ledger audit) the ledger entry whose fold broke the
/// equation — so a failing fuzz run names the culprit instead of a bare
/// boolean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Subsystem owning the violated invariant (e.g. `"container_tree"`).
    pub subsystem: &'static str,
    /// Which conjunct failed and for which object.
    pub detail: String,
    /// Lock domain owning the failing state (`"pm"`, `"mem"`, …).
    pub domain: Option<&'static str>,
    /// Which global equation was refuted (e.g. `"closure-partition"`).
    pub equation: Option<&'static str>,
    /// The ledger entry (rendered delta) whose fold broke the equation.
    pub ledger_entry: Option<String>,
}

impl InvariantViolation {
    /// Creates a violation record.
    pub fn new(subsystem: &'static str, detail: impl Into<String>) -> Self {
        InvariantViolation {
            subsystem,
            detail: detail.into(),
            domain: None,
            equation: None,
            ledger_entry: None,
        }
    }

    /// Attributes the violation to a lock domain.
    pub fn in_domain(mut self, domain: &'static str) -> Self {
        self.domain = Some(domain);
        self
    }

    /// Names the refuted global equation.
    pub fn on_equation(mut self, equation: &'static str) -> Self {
        self.equation = Some(equation);
        self
    }

    /// Attaches the ledger entry that broke the fold.
    pub fn with_ledger_entry(mut self, entry: impl Into<String>) -> Self {
        self.ledger_entry = Some(entry.into());
        self
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] invariant violated: {}",
            self.subsystem, self.detail
        )?;
        if let Some(d) = self.domain {
            write!(f, " [domain: {d}]")?;
        }
        if let Some(e) = self.equation {
            write!(f, " [equation: {e}]")?;
        }
        if let Some(l) = &self.ledger_entry {
            write!(f, " [ledger entry: {l}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for InvariantViolation {}

/// The result of checking a proof obligation.
pub type VerifResult = Result<(), InvariantViolation>;

/// Discharges one labelled obligation.
///
/// Returns `Ok(())` when `cond` holds (and records the obligation in the
/// global ledger); otherwise returns the violation. `detail` is rendered
/// only on failure, so a passing check never formats: pass a literal or
/// `format_args!(..)`, not a `format!(..)` built up front.
pub fn check(cond: bool, subsystem: &'static str, detail: impl fmt::Display) -> VerifResult {
    Obligations::record();
    if cond {
        Ok(())
    } else {
        Err(InvariantViolation::new(subsystem, detail.to_string()))
    }
}

/// Discharges one obligation of a named global equation, attributing
/// the failure to a lock domain. Same lazy `detail` as [`check`].
pub fn check_eqn(
    cond: bool,
    subsystem: &'static str,
    domain: &'static str,
    equation: &'static str,
    detail: impl fmt::Display,
) -> VerifResult {
    check(cond, subsystem, detail).map_err(|e| e.in_domain(domain).on_equation(equation))
}

/// Discharges a conjunction of obligations, stopping at the first failure.
pub fn check_all(results: impl IntoIterator<Item = VerifResult>) -> VerifResult {
    for r in results {
        r?;
    }
    Ok(())
}

/// A subsystem with a well-formedness invariant.
///
/// `wf()` is the executable analogue of the paper's `total_wf()` hierarchy:
/// each subsystem checks its own invariants and the kernel conjoins them.
pub trait Invariant {
    /// Checks all invariants of the subsystem.
    fn wf(&self) -> VerifResult;

    /// Convenience: `true` when well-formed.
    fn is_wf(&self) -> bool {
        self.wf().is_ok()
    }
}

/// Global ledger of discharged proof obligations.
///
/// Purely diagnostic: lets test binaries report "N obligations checked"
/// next to a passing verdict, the dynamic counterpart of a verification
/// report.
pub struct Obligations;

static OBLIGATIONS: AtomicU64 = AtomicU64::new(0);

impl Obligations {
    /// Records one discharged obligation.
    pub fn record() {
        Self::record_n(1);
    }

    /// Records `n` discharged obligations at once: a checker that tallies
    /// its passing obligations locally and calls [`check`] only for a
    /// failing one reports the tally here.
    pub fn record_n(n: u64) {
        OBLIGATIONS.fetch_add(n, Ordering::Relaxed);
    }

    /// Total obligations discharged so far in this process.
    pub fn count() -> u64 {
        OBLIGATIONS.load(Ordering::Relaxed)
    }
}

/// A state with an abstract view, used to state refinement.
///
/// The concrete kernel state implements this; `view()` projects the
/// abstract kernel Ψ the specifications quantify over.
pub trait View {
    /// The abstract-state type.
    type Abs;

    /// Projects the abstract state (Verus `@` / interpretation function).
    fn view(&self) -> Self::Abs;
}

/// Audits one transition of a concrete system against its spec.
///
/// `spec` is the paper-style transition specification over (pre, post)
/// abstract states — e.g. `syscall_mmap_spec(Ψ, Ψ', ...)`. The audit checks
/// (1) the post-state is well-formed, and (2) the spec relation holds.
pub fn audit_transition<S, F>(name: &'static str, pre: &S::Abs, post: &S, spec: F) -> VerifResult
where
    S: View + Invariant,
    F: FnOnce(&S::Abs, &S::Abs) -> bool,
{
    post.wf()?;
    let post_view = post.view();
    check(
        spec(pre, &post_view),
        "refinement",
        format_args!("transition `{name}` does not satisfy its specification"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        n: u64,
        cap: u64,
    }

    impl Invariant for Counter {
        fn wf(&self) -> VerifResult {
            check(self.n <= self.cap, "counter", "n exceeds cap")
        }
    }

    impl View for Counter {
        type Abs = u64;

        fn view(&self) -> u64 {
            self.n
        }
    }

    #[test]
    fn check_passes_and_fails() {
        assert!(check(true, "t", "ok").is_ok());
        let e = check(false, "t", "bad").unwrap_err();
        assert_eq!(e.subsystem, "t");
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn check_all_stops_at_first_failure() {
        let r = check_all([
            check(true, "a", ""),
            check(false, "b", "first"),
            check(false, "c", "second"),
        ]);
        assert_eq!(r.unwrap_err().subsystem, "b");
    }

    #[test]
    fn invariant_trait_reports() {
        assert!(Counter { n: 1, cap: 2 }.is_wf());
        assert!(!Counter { n: 3, cap: 2 }.is_wf());
    }

    #[test]
    fn audit_checks_wf_then_spec() {
        let pre = Counter { n: 1, cap: 10 };
        let pre_view = pre.view();
        let post = Counter { n: 2, cap: 10 };
        // Spec: the counter increments by exactly one.
        let ok = audit_transition("incr", &pre_view, &post, |a, b| *b == *a + 1);
        assert!(ok.is_ok());
        let bad = audit_transition("incr", &pre_view, &post, |a, b| *b == *a + 2);
        assert_eq!(bad.unwrap_err().subsystem, "refinement");
    }

    #[test]
    fn audit_rejects_ill_formed_post_state() {
        let pre_view = 1u64;
        let post = Counter { n: 99, cap: 2 };
        let r = audit_transition("incr", &pre_view, &post, |_, _| true);
        assert_eq!(r.unwrap_err().subsystem, "counter");
    }

    #[test]
    fn obligations_ledger_monotone() {
        let before = Obligations::count();
        let _ = check(true, "t", "");
        assert!(Obligations::count() > before);
        let before = Obligations::count();
        Obligations::record_n(5);
        assert!(Obligations::count() >= before + 5);
    }
}
