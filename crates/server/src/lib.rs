//! `cds-server`: a resilient quote-serving front-end for the CDS engine.
//!
//! The serving stack layers the repo's robustness machinery behind a
//! minimal std-only TCP line protocol:
//!
//! - [`proto`] — the wire protocol (`QUOTE`/`TICK`/`FAULT`/`STATS`/
//!   `DRAIN`/`PING`) with bit-exact f64 transport via hex bit patterns.
//! - [`snapshot`] — epoch-swapped immutable curve snapshots: a `TICK`
//!   publishes a new [`std::sync::Arc`] epoch; readers never lock on the
//!   hot path.
//! - [`ladder`] — the explicit degradation ladder (healthy →
//!   shed-low-priority → CPU-fallback-on-engine-death →
//!   reject-with-Retry-After) driven by telemetry counters.
//! - [`hedge`] — the idempotence ledger that makes deadline-aware
//!   retries and hedged attempts safe: a request id is priced once no
//!   matter how many attempts race.
//! - [`wal`] — the serving write-ahead journal; accepted requests are
//!   durable before dispatch and completions are journalled with their
//!   exact spread bits, so the journal is its own checkpoint and a
//!   `SIGTERM` mid-burst drains or leaves a bit-identically resumable
//!   journal.
//! - [`tenant`] — per-tenant bulkheads: token-bucket rate limits,
//!   in-flight quotas, and a bounded name registry; connections bind
//!   with `TENANT <name>` and over-limit quotes get `THROTTLE` with a
//!   retry-after hint.
//! - [`fair`] — deficit-weighted round-robin shard queues, so one
//!   flooding tenant cannot starve compliant tenants' dequeue share.
//! - [`fuzz`] — the seeded wire-level fuzzer used by the hostile-client
//!   tests and the isolation chaos scenarios.
//! - [`server`] — sharded per-core ingestion queues feeding the
//!   admission control, the retry/hedge executor, and graceful drain.
//! - [`signal`] — a libc-free `SIGTERM`/`SIGINT` flag for the binary.

#![warn(missing_docs)]

pub mod fair;
pub mod fuzz;
pub mod hedge;
pub mod ladder;
pub mod proto;
pub mod server;
pub mod signal;
pub mod snapshot;
pub mod tenant;
pub mod wal;

pub use crate::fair::{DrrScheduler, FairQueue};
pub use crate::hedge::QuoteLedger;
pub use crate::ladder::{DegradationLadder, LadderConfig, LadderTelemetry, Rung};
pub use crate::proto::{Priority, QuoteRequest, Request, Response};
pub use crate::server::{serve, ServerConfig, ServerError, ServerHandle};
pub use crate::snapshot::{CurveBook, EpochSnapshot};
pub use crate::tenant::{TenantLimits, TenantRegistry, TenantState};
pub use crate::wal::{AcceptRecord, WalState, WalWriter};

/// Lock a mutex, recovering the inner value if a holder panicked.
/// Server state mutated under these locks is a set of monotone counters
/// and append-only journals, all safe to observe mid-update.
pub(crate) fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
