//! Deterministic compute budgets and cooperative cancellation.
//!
//! A multi-tenant compile service needs two guarantees the raw restart
//! engine cannot give: a pathological compile must not run away, and an
//! abandoned one must stop promptly. Both must preserve the engine's
//! core property — bit-identical output on every machine — which rules
//! wall-clock deadlines out entirely (a deadline observed 1 µs earlier
//! on a faster box changes the result).
//!
//! [`Fuel`] counts *deterministic work units* instead: one unit is one
//! scheduling attempt, one justification pass, or one branch-and-bound
//! node expansion. Charges happen at round barriers, so the set of
//! attempts that runs is a pure function of `(input, fuel limit)`.
//! Exhaustion is graceful by construction: the mandatory baseline round
//! always runs, and everything after it only ever *improves* the
//! best-so-far schedule, so truncating the search yields a valid (merely
//! possibly longer) result plus a structured [`Degradation`] report
//! saying what was skipped.
//!
//! [`CancelToken`] is the complementary *non*-deterministic stop: a flag
//! checked at stage boundaries and round barriers. Cancellation aborts
//! with [`crate::SchedError::Cancelled`] rather than degrading — an
//! abandoned compile has no consumer for a best-effort result.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A deterministic compute budget, counted in abstract work units.
///
/// One unit is one scheduling attempt (restart engine), one
/// justification pass (compaction / iterated local search), or one
/// branch-and-bound node expansion (exact scheduler). Wall-clock never
/// enters: the same `(input, limit)` pair consumes the same units and
/// produces the same schedule on every machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fuel {
    limit: u64,
    used: u64,
}

impl Fuel {
    /// A budget that never runs out.
    pub const fn unlimited() -> Self {
        Fuel {
            limit: u64::MAX,
            used: 0,
        }
    }

    /// A budget of `limit` work units.
    pub const fn limited(limit: u64) -> Self {
        Fuel { limit, used: 0 }
    }

    /// Whether this budget can ever be exhausted.
    pub fn is_unlimited(&self) -> bool {
        self.limit == u64::MAX
    }

    /// Tries to pay for `units` of optional work. On success the units
    /// are consumed; on failure *nothing* is consumed and the caller
    /// must skip the work. All-or-nothing keeps rounds atomic: a round
    /// either runs in full or not at all, so the attempts that run — and
    /// with them the budgeted output — depend on the limit alone.
    #[must_use]
    pub fn try_charge(&mut self, units: u64) -> bool {
        match self.used.checked_add(units) {
            Some(next) if next <= self.limit => {
                self.used = next;
                true
            }
            _ => false,
        }
    }

    /// Pays for mandatory work: consumes up to `units`, clamped at the
    /// limit, and never fails. Used for the baseline round that must run
    /// even under a zero budget so exhaustion still yields a schedule.
    pub fn charge_saturating(&mut self, units: u64) {
        self.used = self.used.saturating_add(units).min(self.limit);
    }

    /// Units consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Units still available.
    pub fn remaining(&self) -> u64 {
        self.limit - self.used
    }

    /// Whether the budget is fully spent (always `false` for
    /// [`Fuel::unlimited`]).
    pub fn exhausted(&self) -> bool {
        self.used >= self.limit
    }
}

impl Default for Fuel {
    fn default() -> Self {
        Fuel::unlimited()
    }
}

/// A cooperative cancellation flag, shared between the caller and a
/// running compile.
///
/// Cloning shares the flag. The compile pipeline checks it at stage
/// boundaries and the schedulers at round barriers / every few hundred
/// branch-and-bound nodes, so cancellation lands promptly without any
/// preemption machinery. A cancelled compile aborts with a typed
/// `Cancelled` error — its partial artifacts are discarded, never
/// cached.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// What a fuel-exhausted compile gave up, reported on the compile stats
/// instead of silently returning a weaker result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// The pipeline stage that ran out ("schedule" today; the unit
    /// accounting is per-stage so future stages report their own).
    pub stage: &'static str,
    /// Work units consumed by the time the stage finished.
    pub spent: u64,
    /// The specific downgrade that was taken.
    pub action: DegradeAction,
}

/// The downgrade ladder: each variant names a strictly-weaker-but-valid
/// result the stage fell back to when fuel ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// The exact branch-and-bound scheduler could not finish within the
    /// fuel and the heuristic scheduler's result was used instead.
    ExactToHeuristic {
        /// Nodes the exact search explored before giving up.
        nodes_explored: u64,
    },
    /// The heuristic search (restart rounds, justification passes,
    /// iterated local search) was cut short; the best schedule found
    /// before the cut is returned.
    SearchTruncated {
        /// Work units that were skipped (attempts, passes, seeds).
        skipped: u64,
    },
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.action {
            DegradeAction::ExactToHeuristic { nodes_explored } => write!(
                f,
                "{}: fuel exhausted after {} units; exact search stopped at \
                 {nodes_explored} nodes, heuristic result used",
                self.stage, self.spent
            ),
            DegradeAction::SearchTruncated { skipped } => write!(
                f,
                "{}: fuel exhausted after {} units; {skipped} search unit(s) skipped, \
                 best-so-far returned",
                self.stage, self.spent
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_charge_is_all_or_nothing() {
        let mut fuel = Fuel::limited(5);
        assert!(fuel.try_charge(3));
        assert_eq!(fuel.used(), 3);
        // A charge that would overshoot consumes nothing.
        assert!(!fuel.try_charge(3));
        assert_eq!(fuel.used(), 3);
        assert_eq!(fuel.remaining(), 2);
        assert!(fuel.try_charge(2));
        assert!(fuel.exhausted());
        assert!(!fuel.try_charge(1));
    }

    #[test]
    fn zero_charges_always_succeed() {
        let mut fuel = Fuel::limited(0);
        assert!(fuel.try_charge(0));
        assert!(fuel.exhausted());
    }

    #[test]
    fn saturating_charge_clamps_and_never_fails() {
        let mut fuel = Fuel::limited(4);
        fuel.charge_saturating(12);
        assert_eq!(fuel.used(), 4);
        assert!(fuel.exhausted());
        assert_eq!(fuel.remaining(), 0);
        fuel.charge_saturating(1);
        assert_eq!(fuel.used(), 4);
    }

    #[test]
    fn unlimited_never_exhausts() {
        let mut fuel = Fuel::unlimited();
        assert!(fuel.is_unlimited());
        fuel.charge_saturating(u64::MAX / 2);
        assert!(fuel.try_charge(u64::MAX / 4));
        assert!(!fuel.exhausted());
    }

    #[test]
    fn cancel_token_is_shared_by_clone() {
        let token = CancelToken::new();
        let observer = token.clone();
        assert!(!observer.is_cancelled());
        token.cancel();
        assert!(observer.is_cancelled());
        token.cancel();
        assert!(observer.is_cancelled());
    }
}
