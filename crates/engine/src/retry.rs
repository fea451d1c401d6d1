//! Validated retry/backoff/deadline policy for the serving layer.
//!
//! The `cds-server` front-end's deadline-aware retry/hedging layer
//! consumes a [`RetryPolicy`]. Its budgets are *validated*: a zero or
//! negative budget is a configuration bug and is rejected with a typed
//! [`RetryPolicyError`] instead of silently producing a policy that
//! never retries (or never stops).
//!
//! The batch failover path does not use this type. Its only knob is a
//! count of fault-free re-shard rounds after the first round
//! ([`crate::multi::BATCH_RETRY_ROUNDS`]), which is not an attempt
//! count and may legitimately be zero.
//!
//! # Retry budget math
//!
//! A request arriving with budget `D = deadline_micros` is allowed up to
//! `max_attempts` tries. Attempt `k` (1-based) is preceded by an
//! exponential backoff of nominally
//! `backoff_base_micros · backoff_multiplier^(k−1)` microseconds,
//! jittered deterministically into `[½·nominal, nominal]` by hashing the
//! request id (so replays are reproducible and co-arriving retries
//! decorrelate). A hedged attempt — the same request raced on a second
//! engine shard — is launched once the first attempt has been in flight
//! for `hedge_after_micros` without an answer. No backoff, hedge, or
//! attempt may start once `D` is exhausted: the worst-case time a
//! request can occupy the server is `D` plus one service time.

use crate::error::CdsError;
use dataflow_sim::fault::splitmix64;

/// A rejected [`RetryPolicy`] parameter (zero or negative budget, or an
/// inconsistent combination). Typed so callers can match on the exact
/// mistake; converts into [`CdsError::Config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicyError {
    /// `max_attempts` was zero or negative: the policy could never price
    /// anything.
    NoAttempts,
    /// `deadline_micros` was zero or negative: every request would be
    /// dead on arrival.
    NoDeadline,
    /// `backoff_base_micros` was zero or negative: retries would hammer
    /// a struggling engine with no spacing at all.
    NoBackoff,
    /// `backoff_multiplier` was zero or negative: the backoff sequence
    /// would collapse to zero instead of growing.
    NoMultiplier,
    /// `hedge_after_micros` was zero or negative: the hedge would race
    /// every request immediately, doubling load for no tail benefit.
    NoHedgeDelay,
    /// `hedge_after_micros` was not below `deadline_micros`: the hedge
    /// could never fire before the request expired.
    HedgeBeyondDeadline,
}

impl RetryPolicyError {
    /// Static description, also used as the [`CdsError::Config`] reason.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            RetryPolicyError::NoAttempts => "retry policy needs at least one attempt",
            RetryPolicyError::NoDeadline => "retry deadline budget must be positive",
            RetryPolicyError::NoBackoff => "retry backoff base must be positive",
            RetryPolicyError::NoMultiplier => "retry backoff multiplier must be positive",
            RetryPolicyError::NoHedgeDelay => "hedge delay must be positive",
            RetryPolicyError::HedgeBeyondDeadline => "hedge delay must be below the deadline",
        }
    }
}

impl std::fmt::Display for RetryPolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for RetryPolicyError {}

impl From<RetryPolicyError> for CdsError {
    fn from(e: RetryPolicyError) -> Self {
        CdsError::Config { reason: e.reason() }
    }
}

/// Validated retry/backoff/deadline parameters.
///
/// Construct with [`RetryPolicy::validated`] (or the serving preset
/// [`RetryPolicy::server_default`]); the fields are public for inspection
/// but every consumer re-checks [`RetryPolicy::validate`] at its entry
/// point, so a hand-mutated invalid policy is caught there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum pricing attempts per request (initial try included).
    pub max_attempts: usize,
    /// Total per-request latency budget, microseconds.
    pub deadline_micros: u64,
    /// Nominal backoff before the second attempt, microseconds.
    pub backoff_base_micros: u64,
    /// Exponential growth factor of successive backoffs.
    pub backoff_multiplier: u64,
    /// In-flight time after which a single hedged attempt is raced on a
    /// different engine shard, microseconds.
    pub hedge_after_micros: u64,
}

impl RetryPolicy {
    /// Build a policy, rejecting zero/negative budgets and inconsistent
    /// combinations with a typed [`RetryPolicyError`].
    ///
    /// Parameters are signed so that a caller computing budgets (e.g.
    /// subtracting a safety margin) cannot smuggle a negative value in
    /// through an unsigned cast.
    pub fn validated(
        max_attempts: i64,
        deadline_micros: i64,
        backoff_base_micros: i64,
        backoff_multiplier: i64,
        hedge_after_micros: i64,
    ) -> Result<RetryPolicy, RetryPolicyError> {
        if max_attempts <= 0 {
            return Err(RetryPolicyError::NoAttempts);
        }
        if deadline_micros <= 0 {
            return Err(RetryPolicyError::NoDeadline);
        }
        if backoff_base_micros <= 0 {
            return Err(RetryPolicyError::NoBackoff);
        }
        if backoff_multiplier <= 0 {
            return Err(RetryPolicyError::NoMultiplier);
        }
        if hedge_after_micros <= 0 {
            return Err(RetryPolicyError::NoHedgeDelay);
        }
        let policy = RetryPolicy {
            max_attempts: max_attempts as usize,
            deadline_micros: deadline_micros as u64,
            backoff_base_micros: backoff_base_micros as u64,
            backoff_multiplier: backoff_multiplier as u64,
            hedge_after_micros: hedge_after_micros as u64,
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Re-check the invariants of an already-built policy.
    pub fn validate(&self) -> Result<(), RetryPolicyError> {
        if self.max_attempts == 0 {
            return Err(RetryPolicyError::NoAttempts);
        }
        if self.deadline_micros == 0 {
            return Err(RetryPolicyError::NoDeadline);
        }
        if self.backoff_base_micros == 0 {
            return Err(RetryPolicyError::NoBackoff);
        }
        if self.backoff_multiplier == 0 {
            return Err(RetryPolicyError::NoMultiplier);
        }
        if self.hedge_after_micros == 0 {
            return Err(RetryPolicyError::NoHedgeDelay);
        }
        if self.hedge_after_micros >= self.deadline_micros {
            return Err(RetryPolicyError::HedgeBeyondDeadline);
        }
        Ok(())
    }

    /// Serving-layer preset: per-quote budget of 250 ms, three attempts,
    /// 2 ms exponential backoff, hedge after 20 ms. Generous against CPU
    /// pricing times (microseconds) so the gate never trips on scheduler
    /// noise, tight enough that a dead shard is hedged around quickly.
    #[must_use]
    pub fn server_default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            deadline_micros: 250_000,
            backoff_base_micros: 2_000,
            backoff_multiplier: 2,
            hedge_after_micros: 20_000,
        }
    }

    /// Nominal (un-jittered) backoff before 1-based attempt `attempt`,
    /// microseconds; zero before the first attempt. Saturates instead of
    /// overflowing for absurd attempt numbers.
    #[must_use]
    pub fn backoff_micros(&self, attempt: usize) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let mut backoff = self.backoff_base_micros;
        for _ in 2..attempt {
            backoff = backoff.saturating_mul(self.backoff_multiplier);
        }
        backoff
    }

    /// Deterministically jittered backoff in `[½·nominal, nominal]`,
    /// keyed on the request id and attempt number — replayable, and two
    /// requests shed by the same event back off at different times.
    #[must_use]
    pub fn jittered_backoff_micros(&self, attempt: usize, request_id: u64) -> u64 {
        let nominal = self.backoff_micros(attempt);
        if nominal == 0 {
            return 0;
        }
        let half = nominal / 2;
        let jitter_span = nominal - half + 1;
        half + splitmix64(request_id ^ ((attempt as u64) << 48)) % jitter_span
    }

    /// Budget left after `elapsed_micros` in flight (zero when spent).
    #[must_use]
    pub fn remaining_micros(&self, elapsed_micros: u64) -> u64 {
        self.deadline_micros.saturating_sub(elapsed_micros)
    }

    /// Whether 1-based attempt `attempt` may still start: within the
    /// attempt count, and with its backoff fitting the remaining budget.
    #[must_use]
    pub fn allows_attempt(&self, attempt: usize, elapsed_micros: u64) -> bool {
        attempt <= self.max_attempts
            && self.remaining_micros(elapsed_micros) > self.backoff_micros(attempt)
    }

    /// Whether a hedge may be launched after `in_flight_micros` of
    /// silence, `elapsed_micros` into the overall budget.
    #[must_use]
    pub fn should_hedge(&self, in_flight_micros: u64, elapsed_micros: u64) -> bool {
        in_flight_micros >= self.hedge_after_micros && self.remaining_micros(elapsed_micros) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        if let Err(e) = RetryPolicy::server_default().validate() {
            panic!("preset must validate: {e}");
        }
    }

    #[test]
    fn zero_and_negative_budgets_are_typed_errors() {
        let cases = [
            ((0, 100, 10, 2, 50), RetryPolicyError::NoAttempts),
            ((-3, 100, 10, 2, 50), RetryPolicyError::NoAttempts),
            ((2, 0, 10, 2, 50), RetryPolicyError::NoDeadline),
            ((2, -1, 10, 2, 50), RetryPolicyError::NoDeadline),
            ((2, 100, 0, 2, 50), RetryPolicyError::NoBackoff),
            ((2, 100, -10, 2, 50), RetryPolicyError::NoBackoff),
            ((2, 100, 10, 0, 50), RetryPolicyError::NoMultiplier),
            ((2, 100, 10, -2, 50), RetryPolicyError::NoMultiplier),
            ((2, 100, 10, 2, 0), RetryPolicyError::NoHedgeDelay),
            ((2, 100, 10, 2, -7), RetryPolicyError::NoHedgeDelay),
            ((2, 100, 10, 2, 100), RetryPolicyError::HedgeBeyondDeadline),
            ((2, 100, 10, 2, 150), RetryPolicyError::HedgeBeyondDeadline),
        ];
        for ((a, d, b, m, h), want) in cases {
            match RetryPolicy::validated(a, d, b, m, h) {
                Err(got) => assert_eq!(got, want, "({a},{d},{b},{m},{h})"),
                Ok(p) => panic!("({a},{d},{b},{m},{h}) must be rejected, got {p:?}"),
            }
        }
        // The error converts into the engine's typed error layer.
        let e: CdsError = RetryPolicyError::NoDeadline.into();
        assert!(matches!(e, CdsError::Config { .. }), "got {e:?}");
        assert!(e.to_string().contains("deadline"));
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let p = match RetryPolicy::validated(5, 1_000_000, 100, 2, 500) {
            Ok(p) => p,
            Err(e) => panic!("valid policy rejected: {e}"),
        };
        assert_eq!(p.backoff_micros(1), 0);
        assert_eq!(p.backoff_micros(2), 100);
        assert_eq!(p.backoff_micros(3), 200);
        assert_eq!(p.backoff_micros(4), 400);
        // Saturation, not overflow, at absurd attempt counts.
        assert_eq!(p.backoff_micros(10_000), u64::MAX);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::server_default();
        for attempt in 2..=p.max_attempts {
            for id in [0u64, 1, 42, u64::MAX] {
                let nominal = p.backoff_micros(attempt);
                let j = p.jittered_backoff_micros(attempt, id);
                assert_eq!(j, p.jittered_backoff_micros(attempt, id), "deterministic");
                assert!(
                    j >= nominal / 2 && j <= nominal,
                    "jitter {j} outside [{}, {nominal}]",
                    nominal / 2
                );
            }
        }
        // Different ids decorrelate (not all equal).
        let js: std::collections::BTreeSet<u64> =
            (0..32).map(|id| p.jittered_backoff_micros(2, id)).collect();
        assert!(js.len() > 1, "jitter must vary with the request id");
    }

    #[test]
    fn budget_gating() {
        let p = match RetryPolicy::validated(3, 10_000, 1_000, 2, 2_000) {
            Ok(p) => p,
            Err(e) => panic!("valid policy rejected: {e}"),
        };
        assert!(p.allows_attempt(1, 0));
        assert!(p.allows_attempt(3, 0));
        assert!(!p.allows_attempt(4, 0), "beyond max_attempts");
        assert!(!p.allows_attempt(2, 9_500), "backoff no longer fits the budget");
        assert!(!p.allows_attempt(1, 10_000), "budget spent");
        assert_eq!(p.remaining_micros(4_000), 6_000);
        assert_eq!(p.remaining_micros(20_000), 0);
        assert!(!p.should_hedge(1_999, 0));
        assert!(p.should_hedge(2_000, 0));
        assert!(!p.should_hedge(2_000, 10_000), "no hedge once the budget is spent");
    }
}
