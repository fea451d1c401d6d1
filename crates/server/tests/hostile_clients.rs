//! Hostile-client hardening, end to end against the real binary: every
//! garbage, torn, oversized, or non-UTF-8 line gets exactly one typed
//! `ERR` (or a deliberate silent skip for blank lines), slowloris
//! connections are reaped, tenant quotas throttle with a Retry-After
//! hint, and through all of it the connection — or a fresh one — keeps
//! pricing bit-identically.

#![cfg(unix)]

use cds_cpu::engine::CpuCdsEngine;
use cds_engine::codec::f64_to_token;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_server::fuzz::{fuzz_lines, torn_lines};
use cds_server::proto::{decode_line, parse_request, parse_response, Request, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const MAX_LINE: usize = 256;

/// Boot the real binary with hostile-client-sized knobs: a small line
/// cap, a fast slowloris reaper, and one deliberately tiny tenant.
fn spawn_server(extra: &[&str]) -> (Child, std::net::SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cds-server"));
    cmd.args([
        "--shards",
        "2",
        "--seed",
        &SEED.to_string(),
        "--max-line-bytes",
        &MAX_LINE.to_string(),
        "--read-timeout-ms",
        "20",
        "--idle-timeout-ms",
        "250",
        "--tenant",
        "tiny=2:1:4:1",
    ]);
    cmd.args(extra);
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::null()).spawn().expect("spawn");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("readiness line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable readiness line `{line}`"));
    (child, addr)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        Client { reader: BufReader::new(stream), writer }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Response {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        assert!(!reply.is_empty(), "connection closed unexpectedly");
        parse_response(reply.trim()).unwrap_or_else(|e| panic!("bad reply `{reply}`: {e}"))
    }

    fn roundtrip(&mut self, line: &str) -> Response {
        self.send(line);
        self.recv()
    }
}

fn reference_bits(maturity: f64, recovery: f64) -> u64 {
    CpuCdsEngine::new(&MarketData::paper_workload(SEED))
        .price(&CdsOption::new(maturity, PaymentFrequency::Quarterly, recovery))
        .spread_bps
        .to_bits()
}

fn assert_prices(client: &mut Client, id: u64) {
    match client.roundtrip(&format!("QUOTE {id} {} Q {}", f64_to_token(5.0), f64_to_token(0.4))) {
        Response::Quote(q) => {
            assert_eq!(q.spread_bps.to_bits(), reference_bits(5.0, 0.4), "spread diverged")
        }
        other => panic!("expected a priced quote, got {other:?}"),
    }
}

#[test]
fn oversized_and_non_utf8_lines_get_one_typed_err_each() {
    let (mut child, addr) = spawn_server(&[]);
    let mut client = Client::connect(addr);

    // A line over the cap: exactly one ERR, and the connection lives.
    let long = "A".repeat(MAX_LINE * 4);
    match client.roundtrip(&long) {
        Response::Error { id: None, reason } => {
            assert!(reason.contains("exceeds"), "reason: {reason}")
        }
        other => panic!("expected oversize error, got {other:?}"),
    }
    assert_eq!(client.roundtrip("PING"), Response::Pong);

    // Non-UTF-8 bytes: one typed ERR, not a dropped connection.
    client.writer.write_all(b"QUOTE \xf8\xfe\xff\n").expect("send");
    client.writer.flush().expect("flush");
    match client.recv() {
        Response::Error { id: None, reason } => {
            assert!(reason.to_lowercase().contains("utf-8"), "reason: {reason}")
        }
        other => panic!("expected utf-8 error, got {other:?}"),
    }
    assert_prices(&mut client, 1);

    client.send("DRAIN");
    assert!(wait_exit(&mut child).success());
}

#[test]
fn every_fuzz_line_gets_exactly_one_err_and_pricing_survives() {
    let (mut child, addr) = spawn_server(&[]);
    let mut client = Client::connect(addr);

    let corpus = fuzz_lines(SEED, 300, MAX_LINE);
    let expected: usize = corpus.iter().filter(|l| l.expect_reply).count();
    for line in &corpus {
        client.writer.write_all(&line.bytes).expect("send");
    }
    client.writer.flush().expect("flush");
    // The sentinel: everything before the PONG must be a typed ERR,
    // and there must be exactly one per reply-owing fuzz line.
    client.send("PING");
    let mut errs = 0usize;
    loop {
        match client.recv() {
            Response::Pong => break,
            Response::Error { .. } => errs += 1,
            other => panic!("fuzz line produced a non-ERR reply: {other:?}"),
        }
    }
    assert_eq!(errs, expected, "fuzz reply accounting must be 1:1");

    // The connection is still a working quote channel, bit-identically.
    assert_prices(&mut client, 7);

    client.send("DRAIN");
    assert!(wait_exit(&mut child).success());
}

#[test]
fn torn_lines_and_abrupt_disconnects_leave_the_server_serving() {
    let (mut child, addr) = spawn_server(&[]);

    // A torn prefix can legitimately complete as a valid command (e.g.
    // `TICK 99` cut to `TICK 9`) and republish the curve epoch.
    let torn = torn_lines(SEED, 16);
    let torn_ticks = torn
        .iter()
        .filter(|l| matches!(decode_line(l).and_then(parse_request), Ok(Request::Tick { .. })))
        .count() as u64;
    for line in &torn {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(line).expect("send torn prefix");
        // Drop with the line unterminated: the server must treat the
        // EOF'd partial line as one request and move on.
        drop(stream);
    }

    let mut client = Client::connect(addr);
    assert_eq!(client.roundtrip("PING"), Response::Pong);
    // Each partial line is served on its own connection's reader
    // thread, so a torn `TICK` can land after this client's requests:
    // wait for all of them before re-publishing the boot epoch and
    // checking bit-exactness.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.roundtrip("STATS") {
            Response::Stats(s) if s.epoch == torn_ticks => break,
            Response::Stats(s) => assert!(
                Instant::now() < deadline,
                "curve epoch is {}, want {torn_ticks} torn TICKs",
                s.epoch
            ),
            other => panic!("expected stats, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    match client.roundtrip(&format!("TICK {SEED}")) {
        Response::TickAck { .. } => {}
        other => panic!("expected tick ack, got {other:?}"),
    }
    assert_prices(&mut client, 9);

    client.send("DRAIN");
    assert!(wait_exit(&mut child).success());
}

#[test]
fn slowloris_connections_are_reaped_and_clean_clients_are_not() {
    let (mut child, addr) = spawn_server(&[]);

    // Three trickling connections: a byte every 60ms never completes a
    // line, so the 250ms idle reaper must close each of them.
    let trickles: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(Duration::from_millis(50))).expect("timeout");
                let started = Instant::now();
                let mut reaped = false;
                while started.elapsed() < Duration::from_secs(3) {
                    if stream.write_all(b"Q").is_err() {
                        reaped = true; // server closed on us mid-trickle
                        break;
                    }
                    let mut buf = [0u8; 256];
                    match stream.read(&mut buf) {
                        Ok(0) => {
                            reaped = true; // clean server-side close
                            break;
                        }
                        Ok(_) => {} // the idle-timeout ERR notice
                        Err(_) => {}
                    }
                    std::thread::sleep(Duration::from_millis(60));
                }
                reaped
            })
        })
        .collect();

    // Meanwhile a compliant client keeps getting served.
    let mut client = Client::connect(addr);
    for id in 0..10u64 {
        assert_prices(&mut client, id);
        std::thread::sleep(Duration::from_millis(30));
    }
    for t in trickles {
        assert!(t.join().expect("trickle thread"), "slowloris connection outlived the reaper");
    }
    assert_eq!(client.roundtrip("PING"), Response::Pong);

    client.send("DRAIN");
    assert!(wait_exit(&mut child).success());
}

#[test]
fn tenant_binding_quotas_throttle_the_abuser_not_the_default_tenant() {
    let (mut child, addr) = spawn_server(&[]);

    // Bind the deliberately tiny tenant: 2 tokens/s, burst 1.
    let mut tiny = Client::connect(addr);
    match tiny.roundtrip("TENANT tiny") {
        Response::TenantAck { name } => assert_eq!(name, "tiny"),
        other => panic!("expected tenant ack, got {other:?}"),
    }
    // Bad names are a typed ERR, not a broken connection.
    match tiny.roundtrip("TENANT bad!name") {
        Response::Error { id: None, reason } => {
            assert!(reason.contains("tenant"), "reason: {reason}")
        }
        other => panic!("expected tenant name error, got {other:?}"),
    }

    // First quote spends the single burst token; an immediate second is
    // throttled with a positive Retry-After naming the tenant.
    assert_prices(&mut tiny, 1);
    let mut throttled = false;
    for id in 2..6u64 {
        match tiny.roundtrip(&format!("QUOTE {id} {} Q {}", f64_to_token(5.0), f64_to_token(0.4))) {
            Response::Throttle { id: got, retry_after_ms, tenant } => {
                assert_eq!(got, id);
                assert!(retry_after_ms > 0, "retry hint must not invite a busy loop");
                assert_eq!(tenant, "tiny");
                throttled = true;
                break;
            }
            Response::Quote(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(throttled, "a 1-token burst must throttle an immediate follow-up");

    // An unbound (default-tenant) connection never sees the throttle.
    let mut clean = Client::connect(addr);
    for id in 0..8u64 {
        assert_prices(&mut clean, 100 + id);
    }
    // STATS carries the tenant-layer counters.
    match clean.roundtrip("STATS") {
        Response::Stats(s) => {
            assert!(s.throttled > 0, "stats must count the throttle: {s:?}");
            assert!(s.tenants >= 2, "default + tiny must be registered: {s:?}");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    clean.send("DRAIN");
    assert!(wait_exit(&mut child).success());
}

fn wait_exit(child: &mut Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("server did not exit after DRAIN");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
