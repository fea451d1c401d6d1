//! Per-tenant bulkheads: identity, token-bucket rate limits, and
//! in-flight quotas.
//!
//! A connection starts bound to the [`DEFAULT_TENANT`] and may rebind
//! with the `TENANT <name>` verb. Each tenant owns:
//!
//! - a **token bucket** (`rate_per_s` refill, `burst` capacity) charged
//!   one token per quote *before* the request touches the ladder or the
//!   shard queues — throttled traffic never becomes queue pressure;
//! - an **in-flight quota** (`max_inflight`) bounding how many of the
//!   tenant's quotes may occupy shard queues at once — the bulkhead
//!   that keeps one tenant from filling the global capacity;
//! - a **DRR weight** consumed by [`crate::fair::FairQueue`] so shard
//!   dequeue shares stay proportional when several tenants are
//!   backlogged.
//!
//! Both rejections reply `THROTTLE <id> retry_after_ms=<hint> ...`, the
//! tenant-scoped sibling of the ladder's `REJECT ... RETRY-AFTER`: the
//! hint is derived from the bucket's own refill rate, so a compliant
//! client that honors it stops being throttled.
//!
//! The registry is bounded (`max_tenants`): an attacker cannot grow
//! server memory by inventing names — past the cap, `TENANT` binds fail
//! with a typed `ERR`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock_recover;
use crate::proto::valid_tenant_name;

/// The tenant every unbound connection belongs to. Always registered,
/// always slot 0.
pub const DEFAULT_TENANT: &str = "default";

/// Per-tenant limits. The defaults are deliberately generous — a
/// single-tenant deployment (every existing test, loadgen run, and
/// chaos scenario) must never observe a throttle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLimits {
    /// Sustained quote admission rate, tokens per second.
    pub rate_per_s: f64,
    /// Bucket capacity: how far a tenant may burst above the sustained
    /// rate after an idle period.
    pub burst: f64,
    /// Maximum quotes of this tenant in flight (accepted but not yet
    /// answered) at once.
    pub max_inflight: u64,
    /// Deficit-round-robin weight for shard dequeue shares.
    pub weight: u64,
}

impl Default for TenantLimits {
    fn default() -> Self {
        TenantLimits {
            rate_per_s: 1_000_000.0,
            burst: 1_000_000.0,
            max_inflight: u64::MAX / 2,
            weight: 1,
        }
    }
}

impl TenantLimits {
    /// Validate the limits; every field must leave the tenant able to
    /// make progress.
    pub fn validate(&self) -> Result<(), TenantError> {
        if !(self.rate_per_s.is_finite() && self.rate_per_s > 0.0) {
            return Err(TenantError::BadLimits("rate_per_s must be finite and positive"));
        }
        if !(self.burst.is_finite() && self.burst >= 1.0) {
            return Err(TenantError::BadLimits("burst must be at least 1 token"));
        }
        if self.max_inflight == 0 {
            return Err(TenantError::BadLimits("max_inflight must be at least 1"));
        }
        if self.weight == 0 {
            return Err(TenantError::BadLimits("weight must be at least 1"));
        }
        Ok(())
    }
}

/// Typed tenant-layer failures, all surfaced to clients as `ERR` or
/// `THROTTLE` lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantError {
    /// The name fails [`valid_tenant_name`].
    BadName(String),
    /// Registering would exceed `max_tenants`.
    TableFull {
        /// The registry bound that was hit.
        max_tenants: usize,
    },
    /// A limits field is out of range.
    BadLimits(&'static str),
}

impl std::fmt::Display for TenantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantError::BadName(name) => {
                write!(f, "invalid tenant name `{name}`: want 1..=32 chars of [A-Za-z0-9_.-]")
            }
            TenantError::TableFull { max_tenants } => {
                write!(f, "tenant table full ({max_tenants} max)")
            }
            TenantError::BadLimits(why) => write!(f, "invalid tenant limits: {why}"),
        }
    }
}

impl std::error::Error for TenantError {}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last_micros: u64,
}

/// One tenant's live state: limits, bucket, quota, and counters.
#[derive(Debug)]
pub struct TenantState {
    /// The bound name (registry key).
    pub name: String,
    /// Dense index used as the DRR slot in the fair shard queues.
    pub slot: usize,
    /// The limits this tenant was registered with.
    pub limits: TenantLimits,
    bucket: Mutex<Bucket>,
    /// Quotes currently occupying shard queues for this tenant.
    pub inflight: AtomicU64,
    /// Quotes that passed both tenant gates.
    pub admitted: AtomicU64,
    /// Quotes bounced by the bucket or the in-flight quota.
    pub throttled: AtomicU64,
}

impl TenantState {
    fn new(name: &str, slot: usize, limits: TenantLimits, now_micros: u64) -> TenantState {
        TenantState {
            name: name.to_string(),
            slot,
            limits,
            // A fresh tenant starts with a full bucket.
            bucket: Mutex::new(Bucket { tokens: limits.burst, last_micros: now_micros }),
            inflight: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
        }
    }

    /// The `retry_after_ms` hint a compliant client should honor: the
    /// time the bucket needs to refill `deficit` tokens, floored at
    /// 1 ms so the hint is never a busy-loop invitation.
    fn retry_after_ms(&self, deficit: f64) -> u64 {
        let secs = deficit.max(0.0) / self.limits.rate_per_s;
        ((secs * 1e3).ceil() as u64).max(1)
    }

    /// Charge one token at `now_micros`. `Err(retry_after_ms)` means
    /// the bucket is empty and the client should back off.
    pub fn try_take_token(&self, now_micros: u64) -> Result<(), u64> {
        let mut b = lock_recover(&self.bucket);
        // Multiply before dividing by 1e6 (exactly representable): with
        // `micros * 1e-6` a client that waited exactly `retry_after_ms`
        // refills 0.999.. tokens and is throttled again.
        let elapsed = now_micros.saturating_sub(b.last_micros) as f64;
        b.tokens = (b.tokens + elapsed * self.limits.rate_per_s / 1e6).min(self.limits.burst);
        b.last_micros = now_micros.max(b.last_micros);
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - b.tokens;
            drop(b);
            self.throttled.fetch_add(1, Ordering::Relaxed);
            Err(self.retry_after_ms(deficit))
        }
    }

    /// Reserve one in-flight slot. `Err(retry_after_ms)` means the
    /// quota is saturated; the hint assumes roughly one slot frees per
    /// refill interval.
    pub fn try_reserve_inflight(&self) -> Result<(), u64> {
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= self.limits.max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            self.throttled.fetch_add(1, Ordering::Relaxed);
            return Err(self.retry_after_ms(1.0));
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Release an in-flight slot (quote answered, shed, or failed after
    /// reservation).
    pub fn release_inflight(&self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The bounded name → tenant map. `default` is pre-registered at slot 0
/// and kept on a fast path; configured overrides are pre-registered at
/// boot; unknown names self-register on first `TENANT` bind until
/// `max_tenants` is reached.
#[derive(Debug)]
pub struct TenantRegistry {
    defaults: TenantLimits,
    max_tenants: usize,
    default_tenant: Arc<TenantState>,
    by_name: Mutex<HashMap<String, Arc<TenantState>>>,
}

impl TenantRegistry {
    /// A registry holding only the pre-registered `default` tenant.
    pub fn new(
        defaults: TenantLimits,
        max_tenants: usize,
        now_micros: u64,
    ) -> Result<TenantRegistry, TenantError> {
        defaults.validate()?;
        if max_tenants == 0 {
            return Err(TenantError::BadLimits("max_tenants must be at least 1"));
        }
        let default_tenant = Arc::new(TenantState::new(DEFAULT_TENANT, 0, defaults, now_micros));
        let mut by_name = HashMap::new();
        by_name.insert(DEFAULT_TENANT.to_string(), Arc::clone(&default_tenant));
        Ok(TenantRegistry { defaults, max_tenants, default_tenant, by_name: Mutex::new(by_name) })
    }

    /// The tenant unbound connections use.
    pub fn default_tenant(&self) -> Arc<TenantState> {
        Arc::clone(&self.default_tenant)
    }

    /// Pre-register `name` with explicit limits (boot-time overrides).
    /// Re-registering an existing name replaces its limits and resets
    /// its bucket.
    pub fn register(
        &self,
        name: &str,
        limits: TenantLimits,
        now_micros: u64,
    ) -> Result<Arc<TenantState>, TenantError> {
        if !valid_tenant_name(name) {
            return Err(TenantError::BadName(name.to_string()));
        }
        limits.validate()?;
        let mut map = lock_recover(&self.by_name);
        let slot = match map.get(name) {
            Some(existing) => existing.slot,
            None if map.len() >= self.max_tenants => {
                return Err(TenantError::TableFull { max_tenants: self.max_tenants });
            }
            None => map.len(),
        };
        let state = Arc::new(TenantState::new(name, slot, limits, now_micros));
        map.insert(name.to_string(), Arc::clone(&state));
        Ok(state)
    }

    /// Resolve a `TENANT` bind: return the existing tenant or
    /// self-register one with the default limits. Bounded by
    /// `max_tenants`.
    pub fn bind(&self, name: &str, now_micros: u64) -> Result<Arc<TenantState>, TenantError> {
        if !valid_tenant_name(name) {
            return Err(TenantError::BadName(name.to_string()));
        }
        let mut map = lock_recover(&self.by_name);
        if let Some(existing) = map.get(name) {
            return Ok(Arc::clone(existing));
        }
        if map.len() >= self.max_tenants {
            return Err(TenantError::TableFull { max_tenants: self.max_tenants });
        }
        let state = Arc::new(TenantState::new(name, map.len(), self.defaults, now_micros));
        map.insert(name.to_string(), Arc::clone(&state));
        Ok(state)
    }

    /// Distinct tenants currently registered.
    pub fn len(&self) -> usize {
        lock_recover(&self.by_name).len()
    }

    /// Always false: `default` is pre-registered.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> TenantLimits {
        TenantLimits { rate_per_s: 10.0, burst: 2.0, max_inflight: 2, weight: 1 }
    }

    #[test]
    fn bucket_burst_then_throttle_then_refill() {
        let t = TenantState::new("t", 1, tight(), 0);
        assert!(t.try_take_token(0).is_ok());
        assert!(t.try_take_token(0).is_ok());
        let retry = t.try_take_token(0).expect_err("bucket must be empty");
        // One token at 10/s is 100 ms away.
        assert_eq!(retry, 100);
        // 100 ms later the token is back.
        assert!(t.try_take_token(100_000).is_ok());
        assert_eq!(t.throttled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bucket_never_exceeds_burst_after_idle() {
        let t = TenantState::new("t", 1, tight(), 0);
        // A long sleep must cap at `burst`, not bank unbounded credit.
        assert!(t.try_take_token(10_000_000).is_ok());
        assert!(t.try_take_token(10_000_000).is_ok());
        assert!(t.try_take_token(10_000_000).is_err());
    }

    #[test]
    fn clock_regression_is_tolerated() {
        let t = TenantState::new("t", 1, tight(), 1_000_000);
        assert!(t.try_take_token(500_000).is_ok()); // now < last: no refill, no panic
    }

    #[test]
    fn inflight_quota_reserve_release() {
        let t = TenantState::new("t", 1, tight(), 0);
        assert!(t.try_reserve_inflight().is_ok());
        assert!(t.try_reserve_inflight().is_ok());
        assert!(t.try_reserve_inflight().is_err());
        t.release_inflight();
        assert!(t.try_reserve_inflight().is_ok());
        assert_eq!(t.admitted.load(Ordering::Relaxed), 3);
        assert_eq!(t.throttled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn registry_binds_and_bounds() {
        let reg = TenantRegistry::new(TenantLimits::default(), 3, 0).expect("registry");
        assert_eq!(reg.default_tenant().slot, 0);
        let a = reg.bind("alpha", 0).expect("bind alpha");
        assert_eq!(a.slot, 1);
        // Rebinding resolves to the same state.
        assert_eq!(reg.bind("alpha", 0).expect("rebind").slot, 1);
        let b = reg.bind("beta", 0).expect("bind beta");
        assert_eq!(b.slot, 2);
        assert!(matches!(reg.bind("gamma", 0), Err(TenantError::TableFull { max_tenants: 3 })));
        assert!(matches!(reg.bind("bad name!", 0), Err(TenantError::BadName(_))));
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn register_overrides_keep_slot() {
        let reg = TenantRegistry::new(TenantLimits::default(), 8, 0).expect("registry");
        let v1 = reg.register("victim", tight(), 0).expect("register");
        let v2 =
            reg.register("victim", TenantLimits { weight: 4, ..tight() }, 0).expect("re-register");
        assert_eq!(v1.slot, v2.slot);
        assert_eq!(reg.bind("victim", 0).expect("bind").limits.weight, 4);
    }

    #[test]
    fn default_limits_never_throttle_normal_traffic() {
        let t = TenantState::new("default", 0, TenantLimits::default(), 0);
        for i in 0..10_000u64 {
            assert!(t.try_take_token(i).is_ok(), "default tenant throttled at {i}");
            assert!(t.try_reserve_inflight().is_ok());
        }
    }

    #[test]
    fn limits_validation_rejects_degenerate_fields() {
        let bad = [
            TenantLimits { rate_per_s: 0.0, ..TenantLimits::default() },
            TenantLimits { rate_per_s: f64::NAN, ..TenantLimits::default() },
            TenantLimits { burst: 0.5, ..TenantLimits::default() },
            TenantLimits { max_inflight: 0, ..TenantLimits::default() },
            TenantLimits { weight: 0, ..TenantLimits::default() },
        ];
        for limits in bad {
            assert!(limits.validate().is_err(), "{limits:?} must not validate");
        }
        assert!(TenantLimits::default().validate().is_ok());
    }
}
