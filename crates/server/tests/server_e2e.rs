//! In-process end-to-end tests of the serving stack over real TCP:
//! bit-identical pricing, epoch swaps, idempotent duplicates, shard
//! death (retry/hedge + CPU fallback), and graceful drain semantics.

use cds_cpu::engine::CpuCdsEngine;
use cds_engine::codec::f64_to_token;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_server::proto::{parse_response, QuoteReply, Response, StatsReply};
use cds_server::server::{serve, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone");
        Client { reader: BufReader::new(stream), writer }
    }

    fn roundtrip(&mut self, line: &str) -> Response {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        parse_response(reply.trim()).unwrap_or_else(|e| panic!("bad reply `{reply}`: {e}"))
    }

    fn quote(&mut self, id: u64, maturity: f64, recovery: f64) -> Response {
        self.roundtrip(&format!(
            "QUOTE {id} {} Q {}",
            f64_to_token(maturity),
            f64_to_token(recovery)
        ))
    }

    fn stats(&mut self) -> StatsReply {
        match self.roundtrip("STATS") {
            Response::Stats(s) => s,
            other => panic!("expected stats, got {other:?}"),
        }
    }
}

fn expect_quote(resp: Response) -> QuoteReply {
    match resp {
        Response::Quote(q) => q,
        other => panic!("expected a priced quote, got {other:?}"),
    }
}

fn reference_spread(seed: u64, maturity: f64, recovery: f64) -> f64 {
    let engine = CpuCdsEngine::new(&MarketData::paper_workload(seed));
    engine.price(&CdsOption::new(maturity, PaymentFrequency::Quarterly, recovery)).spread_bps
}

#[test]
fn point_ticks_publish_incremental_epochs_over_the_wire() {
    let handle = serve(ServerConfig { shards: 1, seed: 7, ..Default::default() }).expect("serve");
    let mut client = Client::connect(handle.addr());

    let q0 = expect_quote(client.quote(1, 5.0, 0.4));
    assert_eq!(q0.epoch, 0);

    // Tick one hazard knot; the server must price later quotes against
    // the mutated curve, bit-identically to a local engine over the
    // same mutation.
    let mut market = MarketData::paper_workload(7);
    let knot = 12usize;
    let new_value = market.hazard.points()[knot].value * 1.5;
    match client.roundtrip(&format!("TICKPT hazard {knot} {}", f64_to_token(new_value))) {
        Response::TickPointAck { epoch: 1, zero_delta: false } => {}
        other => panic!("expected point-tick ack, got {other:?}"),
    }
    let mut points = market.hazard.points().to_vec();
    points[knot].value = new_value;
    market.hazard = cds_quant::curve::Curve::new(points).expect("curve");
    let local = CpuCdsEngine::new(&market);
    let q1 = expect_quote(client.quote(2, 5.0, 0.4));
    assert_eq!(q1.epoch, 1);
    assert_eq!(
        q1.spread_bps.to_bits(),
        local.price(&CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.4)).spread_bps.to_bits()
    );
    assert_ne!(q0.spread_bps.to_bits(), q1.spread_bps.to_bits());

    // A zero-delta re-publish advances the epoch but changes no quote.
    match client.roundtrip(&format!("TICKPT hazard {knot} {}", f64_to_token(new_value))) {
        Response::TickPointAck { epoch: 2, zero_delta: true } => {}
        other => panic!("expected zero-delta ack, got {other:?}"),
    }
    let q2 = expect_quote(client.quote(3, 5.0, 0.4));
    assert_eq!(q2.epoch, 2);
    assert_eq!(q2.spread_bps.to_bits(), q1.spread_bps.to_bits());

    // Out-of-range knots are a typed error, not a publish.
    match client.roundtrip("TICKPT interest 99999 0.02") {
        Response::Error { id: None, reason } => {
            assert!(reason.contains("out of bounds"), "reason: {reason}");
        }
        other => panic!("expected typed error, got {other:?}"),
    }
    let stats = client.stats();
    assert_eq!(stats.epoch, 2);

    assert_eq!(client.roundtrip("DRAIN"), Response::DrainAck);
    handle.wait();
}

#[test]
fn quotes_price_bit_identically_across_epochs_and_duplicates() {
    let handle = serve(ServerConfig { shards: 2, seed: 42, ..Default::default() }).expect("serve");
    let mut client = Client::connect(handle.addr());

    assert_eq!(client.roundtrip("PING"), Response::Pong);

    // Epoch 0 pricing is bit-identical to a direct CPU engine.
    let q = expect_quote(client.quote(1, 5.0, 0.4));
    assert_eq!(q.epoch, 0);
    assert!(!q.cached);
    assert_eq!(q.spread_bps.to_bits(), reference_spread(42, 5.0, 0.4).to_bits());

    // A tick publishes a new epoch; new quotes price under it.
    assert_eq!(client.roundtrip("TICK 99"), Response::TickAck { epoch: 1 });
    let q2 = expect_quote(client.quote(2, 5.0, 0.4));
    assert_eq!(q2.epoch, 1);
    assert_eq!(q2.spread_bps.to_bits(), reference_spread(99, 5.0, 0.4).to_bits());
    assert_ne!(q.spread_bps.to_bits(), q2.spread_bps.to_bits());

    // Re-sending an answered id is idempotent: served from the ledger,
    // canonical bits, nothing re-priced or re-counted.
    let dup = expect_quote(client.quote(1, 5.0, 0.4));
    assert!(dup.cached);
    assert_eq!(dup.attempts, 0);
    assert_eq!(dup.spread_bps.to_bits(), q.spread_bps.to_bits());

    // Invalid parameters get a typed ERR tied to the id.
    match client.quote(7, -1.0, 0.4) {
        Response::Error { id: Some(7), reason } => {
            assert!(reason.contains("invalid quote"), "reason: {reason}");
        }
        other => panic!("expected typed error, got {other:?}"),
    }

    let stats = client.stats();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.dedup_hits, 1);
    assert_eq!(stats.epoch, 1);

    // Drain: quotes are rejected with a Retry-After hint, then the
    // server exits cleanly with nothing pending.
    assert_eq!(client.roundtrip("DRAIN"), Response::DrainAck);
    match client.quote(8, 5.0, 0.4) {
        Response::Reject { id: 8, retry_after_ms, .. } => assert!(retry_after_ms > 0),
        other => panic!("expected draining reject, got {other:?}"),
    }
    let summary = handle.wait();
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.pending, 0);
}

#[test]
fn dead_shards_are_survived_by_retries_and_cpu_fallback() {
    let handle = serve(ServerConfig { shards: 2, seed: 7, ..Default::default() }).expect("serve");
    let mut client = Client::connect(handle.addr());

    // Kill shard 0. The first quote homed there (even id) bounces to
    // the hedger and is retried on shard 1 — same bits, extra attempt.
    match client.roundtrip("FAULT KILL 0") {
        Response::FaultAck { shard: 0, state } => {
            assert_eq!(state, cds_server::proto::ShardState::Dead);
        }
        other => panic!("expected fault ack, got {other:?}"),
    }
    let q = expect_quote(client.quote(4, 3.0, 0.25));
    assert_eq!(q.spread_bps.to_bits(), reference_spread(7, 3.0, 0.25).to_bits());
    assert!(q.attempts >= 2 || q.shard.is_none(), "dead home must not price: {q:?}");
    assert_ne!(q.shard, Some(0));

    // Kill the other shard too: the ladder reaches CPU fallback and
    // every quote still prices, bit-identically, with no shard at all.
    match client.roundtrip("FAULT KILL 1") {
        Response::FaultAck { shard: 1, state } => {
            assert_eq!(state, cds_server::proto::ShardState::Dead);
        }
        other => panic!("expected fault ack, got {other:?}"),
    }
    for id in 10..16u64 {
        let q = expect_quote(client.quote(id, 5.0, 0.4));
        assert_eq!(q.spread_bps.to_bits(), reference_spread(7, 5.0, 0.4).to_bits());
    }
    let stats = client.stats();
    assert_eq!(stats.dead_shards, 2);
    assert!(stats.rung >= 1, "ladder must have degraded: {stats:?}");
    assert_eq!(stats.completed, stats.accepted);

    // Revive both shards: service continues (possibly still on the
    // fallback rung until the hysteresis streak clears it). A
    // back-to-back burst can legitimately trip the virtual-queue
    // admission bound, so act like a compliant client: honor the
    // Retry-After hint and re-send.
    client.roundtrip("FAULT REVIVE 0");
    client.roundtrip("FAULT REVIVE 1");
    for id in 20..60u64 {
        let q = loop {
            match client.quote(id, 5.0, 0.4) {
                Response::Quote(q) => break q,
                Response::Shed { retry_after_ms, .. } => {
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                }
                other => panic!("expected a priced quote, got {other:?}"),
            }
        };
        assert_eq!(q.spread_bps.to_bits(), reference_spread(7, 5.0, 0.4).to_bits());
    }
    let stats = client.stats();
    assert_eq!(stats.dead_shards, 0);
    assert_eq!(stats.rung, 0, "calm traffic must walk the ladder home: {stats:?}");

    client.roundtrip("DRAIN");
    let summary = handle.wait();
    assert_eq!(summary.pending, 0);
    assert_eq!(summary.completed, summary.accepted);
}

#[test]
fn low_priority_quotes_shed_under_queue_pressure() {
    // Tiny capacity plus a stalled shard forces queue pressure above
    // the shed watermark quickly.
    let handle = serve(ServerConfig {
        shards: 1,
        seed: 42,
        capacity: 4,
        ladder: cds_server::ladder::LadderConfig {
            shed_watermark: 0.25,
            reject_watermark: 0.95,
            recovery_observations: 64,
        },
        ..Default::default()
    })
    .expect("serve");
    let mut client = Client::connect(handle.addr());
    client.roundtrip("FAULT STALL 0 40");

    // Pipeline a burst of low-priority quotes without reading replies:
    // the stalled shard backs the queue up, the ladder crosses the shed
    // watermark, and later LO quotes are shed with Retry-After.
    let mut sent = 0u64;
    for id in 0..24u64 {
        writeln!(client.writer, "QUOTE {id} {} Q {} LO", f64_to_token(5.0), f64_to_token(0.4))
            .expect("send");
        sent += 1;
    }
    client.writer.flush().expect("flush");
    let mut shed = 0u64;
    let mut priced = 0u64;
    for _ in 0..sent {
        let mut reply = String::new();
        client.reader.read_line(&mut reply).expect("recv");
        match parse_response(reply.trim()).expect("parse") {
            Response::Shed { retry_after_ms, .. } => {
                assert!(retry_after_ms > 0);
                shed += 1;
            }
            Response::Quote(_) => priced += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(shed > 0, "pressure must shed low-priority quotes");
    assert!(priced > 0, "early quotes must still have priced");
    let stats = client.stats();
    assert!(stats.inflight <= 4, "in-flight bound must hold: {stats:?}");
    client.roundtrip("DRAIN");
    let summary = handle.wait();
    assert_eq!(summary.accepted, priced);
}

#[test]
fn server_rejects_invalid_configs_typed() {
    for (config, needle) in [
        (ServerConfig { shards: 0, ..Default::default() }, "shard"),
        (ServerConfig { capacity: 0, ..Default::default() }, "capacity"),
        (ServerConfig { cadence: 0, ..Default::default() }, "cadence"),
    ] {
        match serve(config) {
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains(needle), "`{msg}` should mention {needle}");
            }
            Ok(_) => panic!("invalid config must not serve"),
        }
    }
}

#[test]
fn drain_deadline_checkpoints_stuck_quotes_as_pending() {
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("cds-server-e2e-pending-{}.wal", std::process::id()));
    let handle = serve(ServerConfig {
        shards: 1,
        seed: 42,
        journal: Some(journal.clone()),
        cadence: 2,
        drain_deadline: Duration::from_millis(120),
        ..Default::default()
    })
    .expect("serve");
    let mut client = Client::connect(handle.addr());
    // 400ms per quote on the only shard: a burst cannot finish inside
    // the 120ms drain budget.
    client.roundtrip("FAULT STALL 0 400");
    for id in 0..4u64 {
        writeln!(client.writer, "QUOTE {id} {} Q {}", f64_to_token(5.0), f64_to_token(0.4))
            .expect("send");
    }
    client.writer.flush().expect("flush");
    // Wait until the burst is accepted (and journalled) before starting
    // the drain; the 400ms stall keeps it from completing.
    let t0 = std::time::Instant::now();
    while handle.stats().accepted < 4 {
        assert!(t0.elapsed() < Duration::from_secs(5), "burst was never accepted");
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.drain();
    let summary = handle.wait();
    assert_eq!(summary.accepted, 4);
    assert!(summary.pending > 0, "stall must leave pending work: {summary:?}");

    // The journal finishes the work deterministically.
    let report = cds_server::server::resume_journal(&journal).expect("resume");
    assert!(report.drained);
    assert_eq!(report.spreads.len(), 4);
    // Quotes mid-service at shutdown may still have completed after the
    // drain commit; everything else repriced on resume.
    assert!(report.repriced > 0 && report.repriced <= summary.pending as usize);
    let want = reference_spread(42, 5.0, 0.4).to_bits();
    for (seq, _id, spread, _repriced) in &report.spreads {
        assert_eq!(spread.to_bits(), want, "seq {seq} diverged");
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn refusals_release_what_they_reserved() {
    // Three tenants refused at three gates while every shard is stalled:
    // `q` at its in-flight quota, `v` at the home shard's virtual queue
    // (a pipelined burst homed on shard 0), and `default` at the global
    // capacity. Once the shards resume, nothing may stay reserved.
    const CAPACITY: u64 = 48;
    let limits = |max_inflight| cds_server::tenant::TenantLimits {
        rate_per_s: 1e6,
        burst: 1e6,
        max_inflight,
        weight: 1,
    };
    let handle = serve(ServerConfig {
        shards: 2,
        seed: 42,
        capacity: CAPACITY,
        // The ladder stays healthy until the global cap is full.
        ladder: cds_server::ladder::LadderConfig {
            shed_watermark: 0.99,
            reject_watermark: 1.0,
            recovery_observations: 1,
        },
        tenant_overrides: vec![("q".to_string(), limits(2)), ("v".to_string(), limits(32))],
        ..Default::default()
    })
    .expect("serve");
    let quote_line = |id: u64| format!("QUOTE {id} {} Q {}", f64_to_token(5.0), f64_to_token(0.4));
    let recv = |client: &mut Client| {
        let mut reply = String::new();
        client.reader.read_line(&mut reply).expect("recv");
        parse_response(reply.trim()).unwrap_or_else(|e| panic!("bad reply `{reply}`: {e}"))
    };
    // Every quote sent so far has passed or failed admission.
    let mut sent = 0u64;
    let settle = |sent: u64| {
        let t0 = std::time::Instant::now();
        loop {
            let s = handle.stats();
            if s.accepted + s.shed + s.throttled + s.rejected == sent {
                return s;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "quotes never settled: {s:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut admin = Client::connect(handle.addr());
    for shard in 0..2 {
        admin.roundtrip(&format!("FAULT STALL {shard} 1500"));
    }

    // Tenant quota: two quotes in flight, the next two throttled.
    let mut q = Client::connect(handle.addr());
    assert_eq!(q.roundtrip("TENANT q"), Response::TenantAck { name: "q".to_string() });
    for id in 0..4u64 {
        writeln!(q.writer, "{}", quote_line(100 + id)).expect("send");
        q.writer.flush().expect("flush");
        sent += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    for _ in 0..2 {
        assert!(matches!(recv(&mut q), Response::Throttle { .. }), "quota must throttle");
    }
    settle(sent);

    // Virtual queue: a burst homed on shard 0 outruns its 200 us service
    // estimate long before `v` fills its quota or the global cap.
    let mut v = Client::connect(handle.addr());
    assert_eq!(v.roundtrip("TENANT v"), Response::TenantAck { name: "v".to_string() });
    let burst: String = (0..64u64).map(|i| quote_line(1000 + 2 * i) + "\n").collect();
    v.writer.write_all(burst.as_bytes()).expect("send");
    v.writer.flush().expect("flush");
    sent += 64;
    let before_global = settle(sent);
    assert!(before_global.shed > 0, "the burst must meet the virtual queue: {before_global:?}");
    assert_eq!(before_global.shed, before_global.shed_queue, "{before_global:?}");
    assert!(before_global.inflight < CAPACITY);
    std::thread::sleep(Duration::from_millis(5));

    // Global capacity: fill it at a pace the virtual queues admit, then
    // two more quotes are shed at the cap (the third would meet the
    // ladder's reject rung, which reserves nothing).
    let mut g = Client::connect(handle.addr());
    let fill = CAPACITY - before_global.inflight;
    for i in 0..fill + 2 {
        if i == fill {
            assert_eq!(settle(sent).inflight, CAPACITY);
        }
        writeln!(g.writer, "{}", quote_line(5000 + i)).expect("send");
        g.writer.flush().expect("flush");
        sent += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..2 {
        assert!(matches!(recv(&mut g), Response::Shed { .. }), "the full cap must shed");
    }
    let refused = settle(sent);
    assert_eq!(refused.shed, before_global.shed + 2);
    // STATS says which gate shed each quote.
    assert_eq!(refused.shed_global, 2, "{refused:?}");
    assert!(refused.shed_queue > 0, "{refused:?}");
    assert_eq!(
        refused.shed,
        refused.shed_ladder + refused.shed_conn + refused.shed_global + refused.shed_queue
    );

    // Resume the shards and collect every outstanding reply.
    for shard in 0..2 {
        admin.roundtrip(&format!("FAULT STALL {shard} 0"));
    }
    for _ in 0..2 {
        expect_quote(recv(&mut q));
    }
    for _ in 0..64 {
        let reply = recv(&mut v);
        assert!(matches!(
            reply,
            Response::Quote(_) | Response::Shed { .. } | Response::Throttle { .. }
        ));
    }
    for _ in 0..fill {
        expect_quote(recv(&mut g));
    }
    let stats = admin.stats();
    assert_eq!(stats.inflight, 0, "a refusal kept a reservation: {stats:?}");
    assert_eq!(stats.accepted, stats.completed, "{stats:?}");
    for (client, id) in [(&mut q, 9001), (&mut v, 9002), (&mut g, 9003)] {
        expect_quote(client.quote(id, 5.0, 0.4));
    }
    admin.roundtrip("DRAIN");
    assert_eq!(handle.wait().pending, 0);
}
