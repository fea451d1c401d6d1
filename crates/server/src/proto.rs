//! The `cds-server` line protocol.
//!
//! One request per line, one response line per request, UTF-8, newline
//! terminated. Floats that must survive the wire bit-exactly travel as
//! `0x` + exactly 16 hex digits, decoded by [`cds_engine::codec`]; any
//! other `0x` token is an error, never a different float. Decimals are
//! accepted only in request floats (`QUOTE`, `TICKPT`), for human use.
//! Responses carry the spread both ways: a decimal for eyeballs and a
//! strict `bits=` token for machines. Integers are ASCII digits only.
//!
//! ```text
//! QUOTE <id> <maturity> <A|S|Q|M> <recovery> [HI|LO]
//! TENANT <name>
//! TICK <seed>
//! TICKPT <interest|hazard> <knot> <value>
//! FAULT KILL|REVIVE <shard> | FAULT STALL <shard> <millis>
//! STATS | DRAIN | PING
//! ```
//!
//! Request lines are bounded: the server reads at most its configured
//! `max_line_bytes` per line and answers an over-long or non-UTF-8 line
//! with a typed `ERR` instead of buffering it (see [`decode_line`] and
//! [`oversize_error`]). A connection is bound to the `default` tenant
//! until it sends `TENANT <name>`; tenant-level throttling replies
//! `THROTTLE <id> retry_after_ms=<m> tenant=<t>`, the tenant-scoped
//! sibling of the ladder's `REJECT ... retry_after_ms=`.

use crate::ladder::Rung;
use cds_engine::codec::{self, f64_to_token, CodecError, Fields};
use cds_engine::incremental::CurveKind;
use cds_quant::option::PaymentFrequency;
use std::fmt;

/// Quote priority; the shed-low-priority rung drops `Low` quotes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Served on every rung below reject.
    High,
    /// First to be shed under pressure.
    Low,
}

impl Priority {
    /// Stable wire name (`HI` / `LO`).
    pub fn wire(self) -> &'static str {
        match self {
            Priority::High => "HI",
            Priority::Low => "LO",
        }
    }
}

/// A parsed `QUOTE` line. Parameters are raw (not yet validated against
/// the quant domain) so the server can answer invalid quotes with a
/// typed `ERR` instead of a parse failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuoteRequest {
    /// Client-chosen request id; retries and hedges of the same logical
    /// quote reuse it, and the ledger makes it idempotent.
    pub id: u64,
    /// Contract maturity in years.
    pub maturity: f64,
    /// Premium payment frequency.
    pub frequency: PaymentFrequency,
    /// Recovery rate in `[0, 1)`.
    pub recovery: f64,
    /// Shedding priority (defaults to `High` on the wire).
    pub priority: Priority,
}

/// A fault-injection command (test/chaos surface, mirrors
/// `dataflow_sim::fault` semantics at the serving layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCmd {
    /// Mark a shard dead: its queue stops being serviced.
    Kill {
        /// Target shard index.
        shard: usize,
    },
    /// Revive a dead shard.
    Revive {
        /// Target shard index.
        shard: usize,
    },
    /// Make a shard sleep this long per quote (0 clears the stall).
    Stall {
        /// Target shard index.
        shard: usize,
        /// Added service time per quote, in milliseconds.
        millis: u64,
    },
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Telemetry snapshot.
    Stats,
    /// Begin graceful drain.
    Drain,
    /// Bind this connection to a tenant.
    Tenant {
        /// Tenant name; must satisfy [`valid_tenant_name`].
        name: String,
    },
    /// Publish a new curve epoch from this seed.
    Tick {
        /// `MarketData::paper_workload` seed for the new epoch.
        seed: u64,
    },
    /// Publish a new epoch by replacing one curve knot's *value*
    /// (tenors are immutable): the incremental-repricing tick path.
    TickPoint {
        /// Target curve.
        curve: CurveKind,
        /// Knot index into that curve.
        knot: usize,
        /// New value at the knot (bit-exact on the wire).
        value: f64,
    },
    /// Fault injection.
    Fault(FaultCmd),
    /// Price a quote.
    Quote(QuoteRequest),
}

/// Post-fault shard state reported by `OK FAULT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving normally.
    Live,
    /// Killed; not serviced.
    Dead,
    /// Serving with an injected per-quote stall.
    Stalled,
}

impl ShardState {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Live => "live",
            ShardState::Dead => "dead",
            ShardState::Stalled => "stalled",
        }
    }

    /// Inverse of [`ShardState::name`].
    pub fn from_name(s: &str) -> Option<ShardState> {
        [ShardState::Live, ShardState::Dead, ShardState::Stalled]
            .into_iter()
            .find(|v| v.name() == s)
    }
}

/// A successful quote reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuoteReply {
    /// Echoed request id.
    pub id: u64,
    /// Par spread in basis points; travels bit-exactly via `bits=`.
    pub spread_bps: f64,
    /// Curve epoch the quote was priced under.
    pub epoch: u64,
    /// Shard that priced it; `None` means the inline CPU-fallback path.
    pub shard: Option<usize>,
    /// Pricing attempts consumed (1 = first try; 0 = served from the
    /// idempotence ledger).
    pub attempts: u32,
    /// Whether a hedged attempt was launched for this quote.
    pub hedged: bool,
    /// Whether the reply was served from the ledger (duplicate id).
    pub cached: bool,
}

/// A telemetry snapshot (`OK STATS` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Current degradation rung index (see [`Rung::index`]).
    pub rung: u8,
    /// Quotes accepted (admitted and journalled).
    pub accepted: u64,
    /// Quotes completed (priced and answered).
    pub completed: u64,
    /// Quotes shed: the sum of the four gates below.
    pub shed: u64,
    /// Low-priority quotes shed by the ladder's shed rung.
    pub shed_ladder: u64,
    /// Quotes shed at the per-connection in-flight cap.
    pub shed_conn: u64,
    /// Quotes shed at the global in-flight cap.
    pub shed_global: u64,
    /// Quotes shed by the home shard's virtual queue.
    pub shed_queue: u64,
    /// Quotes rejected (reject rung or draining).
    pub rejected: u64,
    /// Hedged attempts launched.
    pub hedges: u64,
    /// Retry attempts scheduled after shard failures.
    pub retries: u64,
    /// Duplicate pricings suppressed by the idempotence ledger.
    pub dedup_hits: u64,
    /// Quotes that exhausted their deadline budget.
    pub deadline_misses: u64,
    /// Accepted-but-unanswered quotes right now.
    pub inflight: u64,
    /// Dead shards right now.
    pub dead_shards: u64,
    /// Total shards.
    pub shards: u64,
    /// Current curve epoch.
    pub epoch: u64,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// Quotes throttled by tenant rate limits or in-flight quotas.
    pub throttled: u64,
    /// Distinct tenants registered (including `default`).
    pub tenants: u64,
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `PONG`.
    Pong,
    /// `OK DRAIN` — drain initiated.
    DrainAck,
    /// `OK TICK epoch=<n>` — new epoch published.
    TickAck {
        /// The newly published epoch.
        epoch: u64,
    },
    /// `OK TICKPT epoch=<n> zero_delta=<0|1>` — point tick published.
    /// `zero_delta=1` means the re-published value bits were identical:
    /// the epoch advanced but no cached quote was invalidated.
    TickPointAck {
        /// The newly published epoch.
        epoch: u64,
        /// Whether the tick re-published identical value bits.
        zero_delta: bool,
    },
    /// `OK FAULT shard=<k> state=<s>`.
    FaultAck {
        /// Target shard.
        shard: usize,
        /// Its state after the command.
        state: ShardState,
    },
    /// `OK STATS ...`.
    Stats(StatsReply),
    /// `OK <id> ...` — a priced quote.
    Quote(QuoteReply),
    /// `OK TENANT name=<n>` — connection rebound to a tenant.
    TenantAck {
        /// The tenant now bound.
        name: String,
    },
    /// `THROTTLE <id> retry_after_ms=<m> tenant=<t>` — bounced by the
    /// tenant's token bucket or in-flight quota (not by the ladder).
    Throttle {
        /// Echoed request id.
        id: u64,
        /// Back-off hint derived from the tenant's own refill rate.
        retry_after_ms: u64,
        /// The tenant that exceeded its limits.
        tenant: String,
    },
    /// `SHED <id> retry_after_ms=<m> rung=<r>`.
    Shed {
        /// Echoed request id.
        id: u64,
        /// Client back-off hint, milliseconds.
        retry_after_ms: u64,
        /// Rung that shed the quote.
        rung: Rung,
    },
    /// `REJECT <id> retry_after_ms=<m> rung=<r>` (also used while
    /// draining).
    Reject {
        /// Echoed request id.
        id: u64,
        /// Client back-off hint, milliseconds.
        retry_after_ms: u64,
        /// Rung that rejected the quote.
        rung: Rung,
    },
    /// `ERR <id|-> <reason>`.
    Error {
        /// Request id when the error is tied to one.
        id: Option<u64>,
        /// Human-readable reason (single line).
        reason: String,
    },
}

/// A protocol parse failure; the offending line is answered with `ERR`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was malformed.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol parse error: {}", self.reason)
    }
}

impl std::error::Error for ParseError {}

impl From<CodecError> for ParseError {
    fn from(e: CodecError) -> Self {
        bad(e.to_string())
    }
}

pub(crate) fn bad(reason: impl Into<String>) -> ParseError {
    ParseError { reason: reason.into() }
}

/// Default cap on one request line, in bytes (excluding the newline).
/// The longest legitimate line (`QUOTE` with hex floats) is under 64
/// bytes; the cap bounds what a hostile client can make the server
/// buffer per connection.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1024;

/// Tenant names are short and filesystem/log-safe: 1..=32 chars of
/// `[A-Za-z0-9_.-]`.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 32
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Decode one raw request line. Non-UTF-8 bytes are a typed error —
/// never a silent drop, never a panic.
pub fn decode_line(bytes: &[u8]) -> Result<&str, ParseError> {
    std::str::from_utf8(bytes).map_err(|_| bad("request line is not valid UTF-8"))
}

/// The typed error for a request line longer than `max_line_bytes`.
/// The connection reader sends exactly one of these per oversized line
/// and discards the remainder without buffering it.
pub fn oversize_error(max_line_bytes: usize) -> ParseError {
    bad(format!("request line exceeds {max_line_bytes} bytes"))
}

/// Decode the request float `field`: a strict `0x` bit pattern, or a
/// decimal typed by a human.
fn request_f64(tok: &str, field: &str) -> Result<f64, ParseError> {
    if tok.starts_with("0x") {
        Ok(codec::f64_from_token(tok).map_err(|e| e.in_field(field))?)
    } else {
        tok.parse::<f64>().map_err(|_| bad(format!("field `{field}`: bad float `{tok}`")))
    }
}

/// Decode the positional unsigned integer `field`.
fn dec<T: TryFrom<u64>>(tok: &str, field: &str) -> Result<T, ParseError> {
    Ok(codec::dec(tok).map_err(|e| e.in_field(field))?)
}

pub(crate) fn frequency_from_wire(tok: &str) -> Result<PaymentFrequency, ParseError> {
    let freq = PaymentFrequency::ALL.into_iter().find(|&f| frequency_to_wire(f) == tok);
    freq.ok_or_else(|| bad(format!("bad frequency `{tok}` (want A|S|Q|M)")))
}

pub(crate) fn frequency_to_wire(f: PaymentFrequency) -> &'static str {
    match f {
        PaymentFrequency::Annual => "A",
        PaymentFrequency::SemiAnnual => "S",
        PaymentFrequency::Quarterly => "Q",
        PaymentFrequency::Monthly => "M",
    }
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.split_first() {
        None => Err(bad("empty request")),
        Some((&"PING", [])) => Ok(Request::Ping),
        Some((&"STATS", [])) => Ok(Request::Stats),
        Some((&"DRAIN", [])) => Ok(Request::Drain),
        Some((&"TENANT", [name])) => {
            if valid_tenant_name(name) {
                Ok(Request::Tenant { name: (*name).to_string() })
            } else {
                Err(bad(format!(
                    "invalid tenant name `{name}`: want 1..=32 chars of [A-Za-z0-9_.-]"
                )))
            }
        }
        Some((&"TENANT", _)) => Err(bad("usage: TENANT <name>")),
        Some((&"TICK", [seed])) => Ok(Request::Tick { seed: dec(seed, "seed")? }),
        Some((&"TICKPT", [curve, knot, value])) => Ok(Request::TickPoint {
            curve: curve.parse::<CurveKind>().map_err(bad)?,
            knot: dec(knot, "knot")?,
            value: request_f64(value, "value")?,
        }),
        Some((&"TICKPT", _)) => Err(bad("usage: TICKPT <interest|hazard> <knot> <value>")),
        Some((&"FAULT", rest)) => match rest {
            ["KILL", shard] => Ok(Request::Fault(FaultCmd::Kill { shard: dec(shard, "shard")? })),
            ["REVIVE", shard] => {
                Ok(Request::Fault(FaultCmd::Revive { shard: dec(shard, "shard")? }))
            }
            ["STALL", shard, millis] => Ok(Request::Fault(FaultCmd::Stall {
                shard: dec(shard, "shard")?,
                millis: dec(millis, "stall millis")?,
            })),
            _ => Err(bad("usage: FAULT KILL|REVIVE <shard> | FAULT STALL <shard> <millis>")),
        },
        Some((&"QUOTE", rest)) => {
            let (core, priority) = match rest {
                [a, b, c, d] => ((a, b, c, d), Priority::High),
                [a, b, c, d, "HI"] => ((a, b, c, d), Priority::High),
                [a, b, c, d, "LO"] => ((a, b, c, d), Priority::Low),
                _ => return Err(bad("usage: QUOTE <id> <maturity> <A|S|Q|M> <recovery> [HI|LO]")),
            };
            let (id, maturity, freq, recovery) = core;
            Ok(Request::Quote(QuoteRequest {
                id: dec(id, "request id")?,
                maturity: request_f64(maturity, "maturity")?,
                frequency: frequency_from_wire(freq)?,
                recovery: request_f64(recovery, "recovery")?,
                priority,
            }))
        }
        Some((verb, _)) => Err(bad(format!("unknown verb `{verb}`"))),
    }
}

/// Format one request line (no trailing newline). Floats travel as
/// exact bit patterns.
pub fn format_request(req: &Request) -> String {
    match req {
        Request::Ping => "PING".to_string(),
        Request::Stats => "STATS".to_string(),
        Request::Drain => "DRAIN".to_string(),
        Request::Tenant { name } => format!("TENANT {name}"),
        Request::Tick { seed } => format!("TICK {seed}"),
        Request::TickPoint { curve, knot, value } => {
            format!("TICKPT {curve} {knot} {}", f64_to_token(*value))
        }
        Request::Fault(FaultCmd::Kill { shard }) => format!("FAULT KILL {shard}"),
        Request::Fault(FaultCmd::Revive { shard }) => format!("FAULT REVIVE {shard}"),
        Request::Fault(FaultCmd::Stall { shard, millis }) => {
            format!("FAULT STALL {shard} {millis}")
        }
        Request::Quote(q) => {
            format!(
                "QUOTE {} {} {} {} {}",
                q.id,
                f64_to_token(q.maturity),
                frequency_to_wire(q.frequency),
                f64_to_token(q.recovery),
                q.priority.wire(),
            )
        }
    }
}

/// Format one response line (no trailing newline).
pub fn format_response(resp: &Response) -> String {
    match resp {
        Response::Pong => "PONG".to_string(),
        Response::DrainAck => "OK DRAIN".to_string(),
        Response::TickAck { epoch } => format!("OK TICK epoch={epoch}"),
        Response::TickPointAck { epoch, zero_delta } => {
            format!("OK TICKPT epoch={epoch} zero_delta={}", u8::from(*zero_delta))
        }
        Response::FaultAck { shard, state } => {
            format!("OK FAULT shard={shard} state={}", state.name())
        }
        Response::Stats(s) => format!(
            "OK STATS rung={} accepted={} completed={} shed={} shed_ladder={} shed_conn={} \
             shed_global={} shed_queue={} rejected={} hedges={} retries={} dedup={} \
             deadline_misses={} inflight={} dead_shards={} shards={} epoch={} draining={} \
             throttled={} tenants={}",
            Rung::from_index(s.rung as usize).name(),
            s.accepted,
            s.completed,
            s.shed,
            s.shed_ladder,
            s.shed_conn,
            s.shed_global,
            s.shed_queue,
            s.rejected,
            s.hedges,
            s.retries,
            s.dedup_hits,
            s.deadline_misses,
            s.inflight,
            s.dead_shards,
            s.shards,
            s.epoch,
            u8::from(s.draining),
            s.throttled,
            s.tenants,
        ),
        Response::TenantAck { name } => format!("OK TENANT name={name}"),
        Response::Throttle { id, retry_after_ms, tenant } => {
            format!("THROTTLE {id} retry_after_ms={retry_after_ms} tenant={tenant}")
        }
        Response::Quote(q) => {
            let shard = match q.shard {
                Some(k) => k.to_string(),
                None => "cpu".to_string(),
            };
            format!(
                "OK {} spread={} bits={} epoch={} shard={shard} attempts={} hedged={} cached={}",
                q.id,
                q.spread_bps,
                f64_to_token(q.spread_bps),
                q.epoch,
                q.attempts,
                u8::from(q.hedged),
                u8::from(q.cached),
            )
        }
        Response::Shed { id, retry_after_ms, rung } => {
            format!("SHED {id} retry_after_ms={retry_after_ms} rung={}", rung.name())
        }
        Response::Reject { id, retry_after_ms, rung } => {
            format!("REJECT {id} retry_after_ms={retry_after_ms} rung={}", rung.name())
        }
        Response::Error { id, reason } => {
            let id = id.map_or_else(|| "-".to_string(), |i| i.to_string());
            format!("ERR {id} {reason}")
        }
    }
}

fn rung_from_wire(tok: &str) -> Result<Rung, ParseError> {
    Rung::from_name(tok).ok_or_else(|| bad(format!("unknown rung `{tok}`")))
}

/// Parse one response line (the client half of the protocol).
pub fn parse_response(line: &str) -> Result<Response, ParseError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.split_first() {
        None => Err(bad("empty response")),
        Some((&"PONG", [])) => Ok(Response::Pong),
        Some((&"THROTTLE", [id, rest @ ..])) => {
            let f = Fields::parse(rest.iter().copied())?;
            Ok(Response::Throttle {
                id: dec(id, "request id")?,
                retry_after_ms: f.dec("retry_after_ms")?,
                tenant: f.get("tenant")?.to_string(),
            })
        }
        Some((&verb @ ("SHED" | "REJECT"), [id, rest @ ..])) => {
            let f = Fields::parse(rest.iter().copied())?;
            let (id, retry_after_ms) = (dec(id, "request id")?, f.dec("retry_after_ms")?);
            let rung = rung_from_wire(f.get("rung")?)?;
            Ok(if verb == "SHED" {
                Response::Shed { id, retry_after_ms, rung }
            } else {
                Response::Reject { id, retry_after_ms, rung }
            })
        }
        Some((&"ERR", [id, reason @ ..])) => Ok(Response::Error {
            id: if *id == "-" { None } else { Some(dec(id, "request id")?) },
            reason: reason.join(" "),
        }),
        Some((&"OK", ["DRAIN"])) => Ok(Response::DrainAck),
        Some((&"OK", ["TENANT", rest @ ..])) => Ok(Response::TenantAck {
            name: Fields::parse(rest.iter().copied())?.get("name")?.to_string(),
        }),
        Some((&"OK", ["TICK", rest @ ..])) => {
            Ok(Response::TickAck { epoch: Fields::parse(rest.iter().copied())?.dec("epoch")? })
        }
        Some((&"OK", ["TICKPT", rest @ ..])) => {
            let f = Fields::parse(rest.iter().copied())?;
            Ok(Response::TickPointAck {
                epoch: f.dec("epoch")?,
                zero_delta: f.dec::<u64>("zero_delta")? != 0,
            })
        }
        Some((&"OK", ["FAULT", rest @ ..])) => {
            let f = Fields::parse(rest.iter().copied())?;
            let state = f.get("state")?;
            Ok(Response::FaultAck {
                shard: f.dec("shard")?,
                state: ShardState::from_name(state)
                    .ok_or_else(|| bad(format!("unknown shard state `{state}`")))?,
            })
        }
        Some((&"OK", ["STATS", rest @ ..])) => {
            let f = Fields::parse(rest.iter().copied())?;
            let field = |k: &str| f.dec::<u64>(k);
            Ok(Response::Stats(StatsReply {
                rung: rung_from_wire(f.get("rung")?)?.index() as u8,
                accepted: field("accepted")?,
                completed: field("completed")?,
                shed: field("shed")?,
                shed_ladder: field("shed_ladder")?,
                shed_conn: field("shed_conn")?,
                shed_global: field("shed_global")?,
                shed_queue: field("shed_queue")?,
                rejected: field("rejected")?,
                hedges: field("hedges")?,
                retries: field("retries")?,
                dedup_hits: field("dedup")?,
                deadline_misses: field("deadline_misses")?,
                inflight: field("inflight")?,
                dead_shards: field("dead_shards")?,
                shards: field("shards")?,
                epoch: field("epoch")?,
                draining: field("draining")? != 0,
                throttled: field("throttled")?,
                tenants: field("tenants")?,
            }))
        }
        Some((&"OK", [id, rest @ ..])) => {
            let f = Fields::parse(rest.iter().copied())?;
            let shard = match f.get("shard")? {
                "cpu" => None,
                k => Some(dec(k, "shard")?),
            };
            Ok(Response::Quote(QuoteReply {
                id: dec(id, "request id")?,
                // bits= is authoritative; the decimal field is display-only.
                spread_bps: f.f64("bits")?,
                epoch: f.dec("epoch")?,
                shard,
                attempts: f.dec("attempts")?,
                hedged: f.dec::<u64>("hedged")? != 0,
                cached: f.dec::<u64>("cached")? != 0,
            }))
        }
        Some((verb, _)) => Err(bad(format!("unknown response `{verb}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let cases = [
            Request::Ping,
            Request::Stats,
            Request::Drain,
            Request::Tick { seed: 99 },
            Request::TickPoint { curve: CurveKind::Interest, knot: 511, value: 0.0213 },
            Request::TickPoint {
                curve: CurveKind::Hazard,
                knot: 0,
                value: f64::from_bits(0x3f94_7ae1_47ae_147b),
            },
            Request::Fault(FaultCmd::Kill { shard: 2 }),
            Request::Fault(FaultCmd::Revive { shard: 0 }),
            Request::Fault(FaultCmd::Stall { shard: 1, millis: 250 }),
            Request::Tenant { name: "hedge-desk_7.eu".to_string() },
            Request::Quote(QuoteRequest {
                id: 7,
                maturity: 5.37,
                frequency: PaymentFrequency::Quarterly,
                recovery: 0.4,
                priority: Priority::Low,
            }),
        ];
        for req in cases {
            let line = format_request(&req);
            assert_eq!(parse_request(&line), Ok(req), "line: {line}");
        }
    }

    #[test]
    fn quote_floats_survive_the_wire_bit_exactly() {
        let maturity = f64::from_bits(0x400a_3333_3333_3334); // an awkward 3.275…
        let req = Request::Quote(QuoteRequest {
            id: 1,
            maturity,
            frequency: PaymentFrequency::Monthly,
            recovery: 0.123_456_789_012_345_68,
            priority: Priority::High,
        });
        match parse_request(&format_request(&req)) {
            Ok(Request::Quote(q)) => {
                assert_eq!(q.maturity.to_bits(), maturity.to_bits());
            }
            other => panic!("expected quote, got {other:?}"),
        }
        // Human decimals still parse.
        match parse_request("QUOTE 3 5.0 Q 0.4") {
            Ok(Request::Quote(q)) => {
                assert_eq!(q.priority, Priority::High);
                assert_eq!(q.maturity, 5.0);
            }
            other => panic!("expected quote, got {other:?}"),
        }
    }

    #[test]
    fn response_lines_round_trip() {
        let cases = [
            Response::Pong,
            Response::DrainAck,
            Response::TickAck { epoch: 3 },
            Response::TickPointAck { epoch: 4, zero_delta: false },
            Response::TickPointAck { epoch: 5, zero_delta: true },
            Response::FaultAck { shard: 1, state: ShardState::Dead },
            Response::Stats(StatsReply {
                rung: 2,
                accepted: 10,
                completed: 8,
                shed: 10,
                shed_ladder: 1,
                shed_conn: 2,
                shed_global: 3,
                shed_queue: 4,
                rejected: 1,
                hedges: 2,
                retries: 3,
                dedup_hits: 1,
                deadline_misses: 0,
                inflight: 2,
                dead_shards: 1,
                shards: 4,
                epoch: 5,
                draining: true,
                throttled: 7,
                tenants: 3,
            }),
            Response::Quote(QuoteReply {
                id: 42,
                spread_bps: 101.25,
                epoch: 2,
                shard: Some(3),
                attempts: 2,
                hedged: true,
                cached: false,
            }),
            Response::Quote(QuoteReply {
                id: 43,
                spread_bps: -0.5,
                epoch: 0,
                shard: None,
                attempts: 1,
                hedged: false,
                cached: true,
            }),
            Response::TenantAck { name: "hedge-desk_7.eu".to_string() },
            Response::Throttle { id: 11, retry_after_ms: 250, tenant: "abuser".to_string() },
            Response::Shed { id: 9, retry_after_ms: 12, rung: Rung::ShedLowPriority },
            Response::Reject { id: 9, retry_after_ms: 40, rung: Rung::RejectRetryAfter },
            Response::Error { id: Some(5), reason: "recovery rate out of range".to_string() },
            Response::Error { id: None, reason: "unknown verb `QUOT`".to_string() },
        ];
        for resp in cases {
            let line = format_response(&resp);
            assert_eq!(parse_response(&line), Ok(resp.clone()), "line: {line}");
        }
    }

    #[test]
    fn malformed_lines_fail_typed() {
        for line in [
            "",
            "QUOT 1 5.0 Q 0.4",
            "QUOTE x 5.0 Q 0.4",
            "QUOTE 1 5.0 X 0.4",
            "QUOTE 1 5.0 Q",
            "FAULT KILL",
            "FAULT STALL 1",
            "TICK",
            "TICKPT",
            "TICKPT interest 3",
            "TICKPT INTEREST 3 0.02",
            "TICKPT interest x 0.02",
            "TICKPT hazard 3 0xzz",
            "TENANT",
            "TENANT two names",
            "TENANT bad/name",
            "TENANT ../../etc/passwd",
            "TENANT a_name_that_is_way_too_long_for_the_thirty_two_char_cap",
        ] {
            assert!(parse_request(line).is_err(), "must reject `{line}`");
        }
        assert!(parse_response("OK 1 spread=1.0").is_err(), "missing bits field");
        // Non-canonical numbers are typed errors naming their field: a
        // `0x` token is exactly 16 hex digits and an integer has no sign.
        for (line, field) in [
            ("QUOTE 1 0x4014 Q 0x3fd9", "maturity"),
            ("QUOTE 1 0x4014000000000000 Q 0x3fd9", "recovery"),
            ("QUOTE 7 0x4014 Q 0x3fd0000000000000", "maturity"),
            ("QUOTE +7 0x3ff0000000000000 Q 0x3fd0000000000000", "request id"),
            ("TICKPT hazard 3 0x+f847ae147ae147b", "value"),
            ("TICKPT hazard +3 0x3f847ae147ae147b", "knot"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.reason.contains(&format!("field `{field}`")), "{line}: {err}");
        }
        let quote = "OK 1 spread=1.0 epoch=0 shard=cpu attempts=1 hedged=0 cached=0";
        for (line, field) in [
            (format!("{quote} bits=0x4059"), "bits"),
            (format!("{quote} bits=0x+405900000000000"), "bits"),
            (format!("{quote} bits=101.25"), "bits"),
            (format!("{quote} bits=0x4059000000000000 bits=0x4059000000000000"), "bits"),
            ("OK TICK epoch=+1".to_string(), "epoch"),
        ] {
            let err = parse_response(&line).expect_err(&line);
            assert!(err.reason.contains(&format!("field `{field}`")), "{line}: {err}");
        }
    }

    #[test]
    fn tenant_name_validation() {
        for good in ["a", "default", "hedge-desk_7.eu", "A.B-C_9", &"x".repeat(32)] {
            assert!(valid_tenant_name(good), "must accept `{good}`");
        }
        for bad in ["", " ", "a b", "a/b", "λ", "name!", &"x".repeat(33)] {
            assert!(!valid_tenant_name(bad), "must reject `{bad}`");
        }
    }

    #[test]
    fn raw_line_decoding_is_typed() {
        assert_eq!(decode_line(b"PING"), Ok("PING"));
        let err = decode_line(&[0x51, 0xff, 0xfe]).expect_err("non-UTF-8 must fail");
        assert!(err.reason.contains("UTF-8"), "{err}");
        let err = oversize_error(1024);
        assert!(err.reason.contains("1024"), "{err}");
    }
}
