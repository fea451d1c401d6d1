//! The headline robustness guarantee, end to end against the real
//! binary: `kill -TERM` mid-burst makes the server drain gracefully
//! (exit 0), and every accepted quote either completed before the drain
//! or is checkpoint-resumable from the write-ahead journal with spreads
//! **bit-identical** to an uninterrupted run.

#![cfg(unix)]

use cds_cpu::engine::CpuCdsEngine;
use cds_engine::codec::f64_to_token;
use cds_quant::option::MarketData;
use cds_server::proto::{parse_response, Response};
use cds_server::server::resume_journal;
use cds_server::wal::read_wal;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SEED: u64 = 42;

fn spawn_server(journal: &std::path::Path) -> (Child, std::net::SocketAddr) {
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
            "--journal",
        ])
        .arg(journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cds-server");
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

fn wait_exit(child: &mut Child, budget: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + budget;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("server did not exit within {budget:?} after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigterm_mid_burst_drains_and_resumes_bit_identically() {
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("cds-server-sigterm-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let (mut child, addr) = spawn_server(&journal);
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Stall both shards so the burst is still in flight when the signal
    // lands, then pipeline a burst of mixed-maturity quotes.
    writeln!(writer, "FAULT STALL 0 150").expect("send");
    writeln!(writer, "FAULT STALL 1 150").expect("send");
    let total = 16u64;
    for id in 0..total {
        let maturity = 1.0 + (id % 7) as f64 * 0.75;
        let recovery = 0.1 + (id % 4) as f64 * 0.1;
        writeln!(writer, "QUOTE {id} {} Q {}", f64_to_token(maturity), f64_to_token(recovery))
            .expect("send");
    }
    writer.flush().expect("flush");

    // Let some quotes complete, then SIGTERM mid-burst.
    std::thread::sleep(Duration::from_millis(250));
    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill -TERM");
    assert!(term.success(), "kill must be delivered");

    // Collect whatever the client was answered before the socket closed.
    let mut answered: Vec<(u64, u64)> = Vec::new(); // (id, spread bits)
    let mut faults_acked = 0;
    let mut shed = 0;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => match parse_response(line.trim()) {
                Ok(Response::Quote(q)) => answered.push((q.id, q.spread_bps.to_bits())),
                Ok(Response::FaultAck { .. }) => faults_acked += 1,
                // The instantaneous burst can overrun the per-shard
                // admission bound; shed quotes never enter the journal.
                Ok(Response::Shed { .. }) => shed += 1,
                Ok(other) => panic!("unexpected reply {other:?}"),
                Err(e) => panic!("bad reply `{line}`: {e}"),
            },
            Err(_) => break,
        }
    }
    assert_eq!(faults_acked, 2);
    assert!(shed < total as usize, "the whole burst must not be shed");

    // Graceful drain: exit code 0, no crash.
    let status = wait_exit(&mut child, Duration::from_secs(10));
    assert!(status.success(), "SIGTERM must drain cleanly, got {status:?}");

    // The journal accounts for every accepted quote and carries the
    // terminal drain record.
    let state = read_wal(&journal).expect("journal must be readable");
    assert!(state.drained, "drain must leave a terminal commit record");
    assert!(!state.accepted.is_empty(), "the burst must have been accepted");
    // The journal is its own checkpoint: the drain leaves no sidecar.
    let mut sidecar = journal.clone().into_os_string();
    sidecar.push(".ckpt");
    assert!(!std::path::Path::new(&sidecar).exists(), "the drain wrote a checkpoint sidecar");
    for (id, bits) in &answered {
        let rec = state
            .accepted
            .iter()
            .find(|r| r.id == *id)
            .unwrap_or_else(|| panic!("answered id {id} missing from journal"));
        let durable = state
            .done
            .get(&rec.seq)
            .unwrap_or_else(|| panic!("answered id {id} has no durable completion"));
        assert_eq!(durable.to_bits(), *bits, "journalled spread diverged for id {id}");
    }

    // Resume finishes the pending quotes; the merged result is
    // bit-identical to an uninterrupted run (the deterministic CPU
    // reference at the same epoch seed).
    let report = resume_journal(&journal).expect("resume");
    assert!(report.drained);
    assert_eq!(report.spreads.len(), state.accepted.len());
    let reference = CpuCdsEngine::new(&MarketData::paper_workload(SEED));
    for (rec, (seq, id, spread, _repriced)) in state.accepted.iter().zip(&report.spreads) {
        assert_eq!(rec.seq, *seq);
        assert_eq!(rec.id, *id);
        let want = reference.price(&rec.option().expect("journalled quote validates"));
        assert_eq!(
            spread.to_bits(),
            want.spread_bps.to_bits(),
            "resumed spread for seq {seq} is not bit-identical to the uninterrupted run"
        );
    }
    // The signal genuinely interrupted work: something was repriced on
    // resume OR everything completed pre-deadline — either way, every
    // accepted quote is accounted for. With two 150ms-stalled shards
    // and a 300ms drain budget, a 16-quote burst cannot have finished.
    assert!(report.repriced > 0, "expected pending work at the drain deadline");

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn sigterm_under_abuse_load_still_drains_and_resumes_bit_identically() {
    // The bulkhead version of the headline guarantee: a hostile tenant
    // is flooding at many times its quota when the SIGTERM lands. The
    // drain must still exit 0, and the journal must resume every
    // accepted quote bit-identically — abuse never reaches durability.
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("cds-server-abuse-drain-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);

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
            "--tenant",
            "abuser=50:8:16:1",
            "--journal",
        ])
        .arg(&journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
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

    // The abuser: bind the throttled tenant and flood it, draining
    // replies so the server's write path never blocks on us.
    let abuse_stream = TcpStream::connect(addr).expect("connect abuser");
    abuse_stream.set_nodelay(true).expect("nodelay");
    let mut abuse_writer = abuse_stream.try_clone().expect("clone");
    let abuse_reader = BufReader::new(abuse_stream);
    let drainer = std::thread::spawn(move || {
        let mut reader = abuse_reader;
        let mut sink = String::new();
        while {
            sink.clear();
            matches!(reader.read_line(&mut sink), Ok(n) if n > 0)
        } {}
    });
    let flooder = std::thread::spawn(move || {
        let _ = writeln!(abuse_writer, "TENANT abuser");
        for id in 0..3000u64 {
            if writeln!(abuse_writer, "QUOTE {id} {} Q {}", f64_to_token(3.0), f64_to_token(0.2))
                .is_err()
            {
                break; // drain closed the socket mid-flood: expected
            }
            let _ = abuse_writer.flush();
        }
    });

    // The victim: stalled shards keep its burst in flight at SIGTERM.
    let victim_stream = TcpStream::connect(addr).expect("connect victim");
    victim_stream.set_nodelay(true).expect("nodelay");
    let mut victim_writer = victim_stream.try_clone().expect("clone");
    let victim_reader = BufReader::new(victim_stream);
    writeln!(victim_writer, "FAULT STALL 0 150").expect("send");
    writeln!(victim_writer, "FAULT STALL 1 150").expect("send");
    for id in 0..12u64 {
        let maturity = 1.0 + (id % 7) as f64 * 0.75;
        writeln!(victim_writer, "QUOTE {id} {} Q {}", f64_to_token(maturity), f64_to_token(0.3))
            .expect("send");
    }
    victim_writer.flush().expect("flush");

    std::thread::sleep(Duration::from_millis(200));
    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill -TERM");
    assert!(term.success(), "kill must be delivered");

    let status = wait_exit(&mut child, Duration::from_secs(10));
    assert!(status.success(), "SIGTERM under abuse must still drain cleanly, got {status:?}");
    drop(victim_reader);
    flooder.join().expect("flooder thread");
    drainer.join().expect("drainer thread");

    // Every accepted quote — victim and whatever trickle of abuser
    // quotes passed the throttle — resumes bit-identically.
    let state = read_wal(&journal).expect("journal must be readable");
    assert!(state.drained, "drain must leave a terminal commit record");
    assert!(!state.accepted.is_empty(), "the victim burst must have been accepted");
    let report = resume_journal(&journal).expect("resume");
    assert!(report.drained);
    assert_eq!(report.spreads.len(), state.accepted.len());
    let reference = CpuCdsEngine::new(&MarketData::paper_workload(SEED));
    for (rec, (seq, _id, spread, _)) in state.accepted.iter().zip(&report.spreads) {
        let want = reference.price(&rec.option().expect("journalled quote validates"));
        assert_eq!(
            spread.to_bits(),
            want.spread_bps.to_bits(),
            "resumed spread for seq {seq} diverged under abuse load"
        );
    }

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn kill_during_drain_leaves_a_resumable_journal() {
    // A second kill arriving *during* the drain (after SIGTERM already
    // started one) must not corrupt the journal: SIGKILL the process
    // mid-drain, then resume from whatever was durable.
    let dir = std::env::temp_dir();
    let journal = dir.join(format!("cds-server-kill9-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let (mut child, addr) = spawn_server(&journal);
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let reader = BufReader::new(stream);
    writeln!(writer, "FAULT STALL 0 200").expect("send");
    writeln!(writer, "FAULT STALL 1 200").expect("send");
    for id in 0..12u64 {
        writeln!(writer, "QUOTE {id} {} Q {}", f64_to_token(4.0), f64_to_token(0.3)).expect("send");
    }
    writer.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(150));
    // Start the graceful drain, then kill it dead before it can finish.
    let _ = Command::new("kill").args(["-TERM", &child.id().to_string()]).status();
    std::thread::sleep(Duration::from_millis(50));
    let _ = Command::new("kill").args(["-KILL", &child.id().to_string()]).status();
    let _ = child.wait();
    drop(reader);

    // No terminal record — but every accepted quote is still in the
    // journal and the resume completes the run deterministically.
    let state = read_wal(&journal).expect("journal survives SIGKILL");
    assert!(!state.accepted.is_empty());
    let report = resume_journal(&journal).expect("resume");
    assert_eq!(report.spreads.len(), state.accepted.len());
    let reference = CpuCdsEngine::new(&MarketData::paper_workload(SEED));
    for (rec, (_seq, _id, spread, _)) in state.accepted.iter().zip(&report.spreads) {
        let want = reference.price(&rec.option().expect("validates")).spread_bps;
        assert_eq!(spread.to_bits(), want.to_bits());
    }

    let _ = std::fs::remove_file(&journal);
}
