//! The `cds-server` USAGE text and its flag parser agree: every flag
//! USAGE names parses with a sample value (`--flag <sample> --help`
//! exits 0), and flags that are no longer configurable are rejected
//! (exit 2, `unknown flag`). `--help` returns before the server binds,
//! so no server starts.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cds-server"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn cds-server {args:?}: {e}"))
}

/// A value the parser accepts for each USAGE placeholder.
fn sample(placeholder: &str) -> &'static str {
    match placeholder {
        "<host:port>" => "127.0.0.1:0",
        "<n>" => "64",
        "<path>" => "usage-test.wal",
        "<kind>@<n>" => "enospc@1",
        "<name>=<spec>" => "acme=500:32:64:2",
        other => panic!("no sample value for USAGE placeholder {other}"),
    }
}

/// `(flag, placeholder)` for every option line of the USAGE text.
fn usage_flags() -> Vec<(String, String)> {
    let help = run(&["--help"]);
    assert!(help.status.success(), "--help: {:?}", help.status);
    let text = String::from_utf8(help.stdout).expect("USAGE is UTF-8");
    text.lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let flag = words.next().filter(|w| w.starts_with("--"))?;
            Some((flag.to_string(), words.next()?.to_string()))
        })
        .collect()
}

#[test]
fn every_usage_flag_parses_with_a_sample_value() {
    let flags = usage_flags();
    assert!(flags.len() >= 10, "USAGE lists only {flags:?}");
    for (flag, placeholder) in flags {
        let out = run(&[&flag, sample(&placeholder), "--help"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{flag} {placeholder}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn fixed_settings_are_not_flags() {
    let listed: Vec<String> = usage_flags().into_iter().map(|(flag, _)| flag).collect();
    for (flag, value) in [
        ("--service-micros", "200"),
        ("--conn-capacity", "256"),
        ("--max-tenants", "64"),
        ("--write-timeout-ms", "2000"),
        ("--tenant-default", "500:32:64:2"),
    ] {
        assert!(!listed.contains(&flag.to_string()), "USAGE still lists {flag}");
        let out = run(&[flag, value, "--help"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}
