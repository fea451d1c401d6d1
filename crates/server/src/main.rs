//! `cds-server` binary: bind, serve, drain gracefully on `SIGTERM`.

use cds_server::server::{serve, ServerConfig};
use cds_server::signal;
use cds_server::tenant::TenantLimits;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: cds-server [options]

options:
  --addr <host:port>        bind address (default 127.0.0.1:0; port 0 = ephemeral)
  --shards <n>              engine shards (default 4)
  --seed <n>                boot curve epoch seed (default 42)
  --capacity <n>            in-flight quote cap (default 256)
  --journal <path>          write-ahead journal path (durability off when absent)
  --cadence <n>             completions per journal fsync (default 64)
  --wal-fault <kind>@<n>    inject a journal storage fault (testing): kind is
                            enospc|eio|short (at append index n) or liar
                            (fsyncs lie from fsync index n); requires --journal
  --drain-deadline-ms <n>   drain budget before checkpointing pending (default 5000)
  --read-timeout-ms <n>     accepted-stream read timeout (default 100)
  --idle-timeout-ms <n>     close connections with no complete request line
                            for this long (slowloris reaper, default 30000)
  --max-line-bytes <n>      request-line byte cap (default 1024, min 64)
  --tenant <name>=<spec>    per-tenant limit override (repeatable)

<spec> is <rate_per_s>:<burst>:<max_inflight>:<weight>, e.g. 500:32:64:2.

SIGTERM or the DRAIN command begins a graceful drain; the process exits 0
once in-flight quotes complete or are durably checkpointed as pending.";

fn parse_limits(spec: &str) -> Result<TenantLimits, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [rate, burst, inflight, weight] = parts.as_slice() else {
        return Err(format!("bad tenant spec `{spec}` (want rate:burst:inflight:weight)"));
    };
    let limits = TenantLimits {
        rate_per_s: rate.parse().map_err(|_| format!("bad rate `{rate}` in `{spec}`"))?,
        burst: burst.parse().map_err(|_| format!("bad burst `{burst}` in `{spec}`"))?,
        max_inflight: inflight
            .parse()
            .map_err(|_| format!("bad max_inflight `{inflight}` in `{spec}`"))?,
        weight: weight.parse().map_err(|_| format!("bad weight `{weight}` in `{spec}`"))?,
    };
    limits.validate().map_err(|e| e.to_string())?;
    Ok(limits)
}

fn fatal(msg: &str) -> ExitCode {
    eprintln!("cds-server: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut std::iter::Peekable<std::env::Args>,
    flag: &str,
) -> Result<T, String> {
    let Some(value) = args.next() else {
        return Err(format!("{flag} requires a value"));
    };
    value.parse::<T>().map_err(|_| format!("bad value `{value}` for {flag}"))
}

fn main() -> ExitCode {
    let mut config = ServerConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() };
    let mut args = std::env::args().peekable();
    let _argv0 = args.next();
    while let Some(arg) = args.next() {
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => parse_flag(&mut args, "--addr").map(|v| config.addr = v),
            "--shards" => parse_flag(&mut args, "--shards").map(|v| config.shards = v),
            "--seed" => parse_flag(&mut args, "--seed").map(|v| config.seed = v),
            "--capacity" => parse_flag(&mut args, "--capacity").map(|v| config.capacity = v),
            "--journal" => {
                parse_flag(&mut args, "--journal").map(|v: String| config.journal = Some(v.into()))
            }
            "--cadence" => parse_flag(&mut args, "--cadence").map(|v| config.cadence = v),
            "--wal-fault" => {
                parse_flag(&mut args, "--wal-fault").map(|v| config.wal_fault = Some(v))
            }
            "--drain-deadline-ms" => parse_flag(&mut args, "--drain-deadline-ms")
                .map(|v: u64| config.drain_deadline = Duration::from_millis(v)),
            "--read-timeout-ms" => parse_flag(&mut args, "--read-timeout-ms")
                .map(|v: u64| config.read_timeout = Duration::from_millis(v)),
            "--idle-timeout-ms" => parse_flag(&mut args, "--idle-timeout-ms")
                .map(|v: u64| config.idle_timeout = Duration::from_millis(v)),
            "--max-line-bytes" => {
                parse_flag(&mut args, "--max-line-bytes").map(|v| config.max_line_bytes = v)
            }
            "--tenant" => parse_flag(&mut args, "--tenant").and_then(|v: String| {
                let Some((name, spec)) = v.split_once('=') else {
                    return Err(format!(
                        "bad --tenant `{v}` (want name=rate:burst:inflight:weight)"
                    ));
                };
                let limits = parse_limits(spec)?;
                config.tenant_overrides.push((name.to_string(), limits));
                Ok(())
            }),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(msg) = result {
            return fatal(&msg);
        }
    }

    signal::install();
    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => return fatal(&format!("startup failed: {e}")),
    };
    // The parseable readiness line tests and tooling wait for.
    println!("cds-server listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    while !signal::termination_requested() && !handle.is_draining() {
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.drain();
    let summary = handle.wait();
    eprintln!(
        "cds-server: drained (accepted={} completed={} pending={})",
        summary.accepted, summary.completed, summary.pending
    );
    ExitCode::SUCCESS
}
