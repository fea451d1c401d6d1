//! Drain under storage exhaustion, end to end against the real binary:
//! the journal's fault layer starts rejecting appends (`--wal-fault
//! enospc@N`) mid-burst, SIGTERM lands, and the process must still exit
//! with the documented drain code (0) while the on-disk journal either
//! resumes bit-identically for its durable prefix or refuses with a
//! typed error — never a panic, never silently wrong spreads.

#![cfg(unix)]

use cds_cpu::engine::CpuCdsEngine;
use cds_engine::codec::f64_to_token;
use cds_quant::option::MarketData;
use cds_server::proto::{parse_response, Response};
use cds_server::server::resume_journal;
use cds_server::wal::read_wal;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SEED: u64 = 42;

#[test]
fn sigterm_with_enospc_journal_exits_0_and_leaves_a_resumable_prefix() {
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("cds-server-enospc-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    // Append index 0 is the journal header; the shards are stalled so
    // the burst's accept appends land first — enospc@6 fails the sixth
    // quote's acceptance and fail-stops the writer.
    let mut child = Command::new(env!("CARGO_BIN_EXE_cds-server"))
        .args([
            "--shards",
            "2",
            "--seed",
            &SEED.to_string(),
            "--cadence",
            "4",
            "--drain-deadline-ms",
            "300",
            "--wal-fault",
            "enospc@6",
            "--journal",
        ])
        .arg(&journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cds-server");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut ready = BufReader::new(stdout);
    let mut line = String::new();
    ready.read_line(&mut line).expect("readiness line");
    let addr: std::net::SocketAddr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable readiness line `{line}`"));

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    writeln!(writer, "FAULT STALL 0 150").expect("send");
    writeln!(writer, "FAULT STALL 1 150").expect("send");
    let total = 12u64;
    for id in 0..total {
        let maturity = 1.0 + (id % 7) as f64 * 0.75;
        let recovery = 0.1 + (id % 4) as f64 * 0.1;
        writeln!(writer, "QUOTE {id} {} Q {}", f64_to_token(maturity), f64_to_token(recovery))
            .expect("send");
    }
    writer.flush().expect("flush");

    std::thread::sleep(Duration::from_millis(250));
    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill -TERM");
    assert!(term.success(), "kill must be delivered");

    // The storage failure must surface to the client as typed journal
    // errors (or sheds once the ladder reacts) — never fake QUOTE acks
    // for work that was not durably accepted.
    let mut journal_errors = 0usize;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => match parse_response(line.trim()) {
                Ok(Response::Error { reason, .. }) if reason.contains("journal") => {
                    journal_errors += 1;
                }
                Ok(_) => {}
                Err(e) => panic!("bad reply `{line}`: {e}"),
            },
        }
    }
    assert!(journal_errors > 0, "the failed acceptance must be reported to the client");

    // Documented contract: SIGTERM drains and exits 0 even with the
    // journal degraded — the durable prefix is the recovery artifact.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "server did not exit after SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "drain under ENOSPC must still exit 0");

    // The degradation is announced on stderr, attributably.
    let mut stderr = String::new();
    child.stderr.take().expect("stderr piped").read_to_string(&mut stderr).expect("read stderr");
    assert!(stderr.contains("journal degraded"), "stderr must announce the degradation: {stderr}");

    // The on-disk prefix must resume — every journalled quote repriced
    // bit-identically against the deterministic reference — or refuse
    // with a typed error. (With a fail-stop writer the tail is torn at
    // worst, so resume succeeds on the durable prefix.)
    let state = read_wal(&journal).expect("fail-stop journal prefix must stay readable");
    assert!(!state.drained, "the degraded drain cannot have written a commit record");
    assert!(!state.accepted.is_empty(), "quotes accepted before the fault must be durable");
    assert!(
        (state.accepted.len() as u64) < total,
        "the fault must have cut the burst short, not vanished"
    );
    let report = resume_journal(&journal).expect("durable prefix resumes");
    assert_eq!(report.spreads.len(), state.accepted.len());
    let reference = CpuCdsEngine::new(&MarketData::paper_workload(SEED));
    for (rec, (seq, id, spread, _repriced)) in state.accepted.iter().zip(&report.spreads) {
        assert_eq!(rec.seq, *seq);
        assert_eq!(rec.id, *id);
        let want = reference.price(&rec.option().expect("journalled quote validates"));
        assert_eq!(
            spread.to_bits(),
            want.spread_bps.to_bits(),
            "resumed spread for seq {seq} diverged after the ENOSPC drain"
        );
    }

    let _ = std::fs::remove_file(&journal);
}
