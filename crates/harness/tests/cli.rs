//! Black-box tests of the `cds-harness` binary's exit-code contract:
//! usage and IO errors exit 2 with an `error:` message, gate failures
//! exit 1, success exits 0. Uses fast subcommands only.

use std::process::Command;

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cds-harness"))
}

#[test]
fn missing_command_exits_2() {
    let out = harness().output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn unknown_command_exits_2() {
    let out = harness().arg("no-such-command").output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn bad_flag_value_exits_2() {
    let out = harness().args(["fit", "--options", "minus-one"]).output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--options"));
}

#[test]
fn chaos_with_nonexistent_baseline_exits_2_fast() {
    // The baseline is read before the matrix runs, so a bad path fails
    // immediately instead of after the full fault sweep.
    let out = harness()
        .args(["chaos", "--check", "/nonexistent/dir/chaos_baseline.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read baseline"), "{stderr}");
}

#[test]
fn bench_with_nonexistent_baseline_exits_2_fast() {
    let out = harness()
        .args(["bench", "--check", "/nonexistent/dir/bench_baseline.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read baseline"), "{stderr}");
}

#[test]
fn bench_with_malformed_baseline_exits_2() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("malformed.json");
    std::fs::write(&path, "{ not json").expect("write malformed baseline");
    let out = harness()
        .args(["bench", "--check", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed baseline"));
}

#[test]
fn bench_check_with_a_foreign_seed_names_the_seed() {
    // A different seed changes every number of the ladder; the gate must
    // name the cause instead of only listing the drifted metrics.
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bench_baseline.json");
    let out = harness()
        .args(["bench", "--seed", "7", "--check", baseline])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("seed"), "{stderr}");
}

#[test]
fn tolerance_flag_is_unknown() {
    let out = harness().args(["bench", "--tolerance", "0.10"]).output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --tolerance"));
}

#[test]
fn abuser_flag_is_unknown() {
    let out = harness().args(["loadgen", "--abuser"]).output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --abuser"));
}

#[test]
fn throughput_with_nonexistent_baseline_exits_2_fast() {
    let out = harness()
        .args(["bench", "--throughput", "--check", "/nonexistent/dir/throughput_baseline.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
}

#[test]
fn throughput_zero_threads_exits_2() {
    let out = harness()
        .args(["bench", "--throughput", "--threads", "0"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}

/// A permissive baseline (floors near zero, no speedup requirement) that
/// any machine passes, and a sabotaged one (absurd floors) that none
/// can: exercises gate exit codes without depending on machine speed.
fn throughput_baseline(ops_floor: f64, min_speedup: f64) -> String {
    format!(
        concat!(
            "{{\"schema_version\": 1, \"seed\": 42, \"batch\": 64, ",
            "\"pinned_threads\": 2, \"lane_speedup_1t\": 5.0, ",
            "\"min_lane_speedup\": {}, \"rows\": [",
            "{{\"name\": \"cpu/scalar-1t\", \"options_per_second\": {}}}, ",
            "{{\"name\": \"cpu/lanes-1t\", \"options_per_second\": {}}}, ",
            "{{\"name\": \"cpu/lanes-mt\", \"options_per_second\": {}}}]}}"
        ),
        min_speedup, ops_floor, ops_floor, ops_floor
    )
}

#[test]
fn throughput_check_against_permissive_baseline_exits_0() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("throughput-permissive.json");
    std::fs::write(&path, throughput_baseline(1.0, 0.0)).expect("write baseline");
    let out = harness()
        .args([
            "bench",
            "--throughput",
            "--options",
            "64",
            "--threads",
            "2",
            "--check",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
}

#[test]
fn throughput_check_against_impossible_baseline_exits_1() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("throughput-impossible.json");
    // No machine reaches 1e15 options/s; the gate must fail with exit 1.
    std::fs::write(&path, throughput_baseline(1.0e15, 0.0)).expect("write baseline");
    let out = harness()
        .args([
            "bench",
            "--throughput",
            "--options",
            "64",
            "--threads",
            "2",
            "--check",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("throughput regressed"));
}

/// A tick-storm baseline with controllable floors: permissive
/// (`min_speedup` 0, rate floors near zero) passes on any machine,
/// impossible (`min_speedup` astronomically high) fails on all of them —
/// the ratio gate is machine-independent, so both verdicts are
/// deterministic.
fn tick_storm_baseline(rate_floor: f64, min_speedup: f64) -> String {
    format!(
        concat!(
            "{{\"schema_version\": 1, \"seed\": 42, \"residents\": 512, ",
            "\"knots\": 1024, \"free_knots\": 1, \"mean_affected\": 1.0, ",
            "\"incremental_speedup\": 1.0, \"min_tick_speedup\": {}, ",
            "\"bit_mismatches\": 0, \"zero_delta_clean\": true, \"rows\": [",
            "{{\"name\": \"full/reprice\", \"per_second\": {}}}, ",
            "{{\"name\": \"incremental/off-lattice-1pt\", \"per_second\": {}}}, ",
            "{{\"name\": \"incremental/hazard-mid\", \"per_second\": {}}}]}}"
        ),
        min_speedup, rate_floor, rate_floor, rate_floor
    )
}

#[test]
fn tick_storm_with_nonexistent_baseline_exits_2_fast() {
    let out = harness()
        .args(["bench", "--tick-storm", "--check", "/nonexistent/dir/tick_storm_baseline.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
}

#[test]
fn tick_storm_check_against_permissive_baseline_exits_0() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tick-storm-permissive.json");
    std::fs::write(&path, tick_storm_baseline(0.001, 0.0)).expect("write baseline");
    let out = harness()
        .args([
            "bench",
            "--tick-storm",
            "--options",
            "512",
            "--check",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
}

#[test]
fn tick_storm_check_against_impossible_speedup_floor_exits_1() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tick-storm-impossible.json");
    // No machine reprices the book 1e9x slower than it ticks.
    std::fs::write(&path, tick_storm_baseline(0.001, 1.0e9)).expect("write baseline");
    let out = harness()
        .args([
            "bench",
            "--tick-storm",
            "--options",
            "512",
            "--check",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fell below"));
}

#[test]
fn fit_succeeds_with_exit_0() {
    let out = harness().args(["fit", "--options", "4"]).output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("maximum engines"));
}

#[test]
fn replay_without_flags_exits_2() {
    // `replay` is meaningless with nothing to record and nothing to
    // check; that is a usage error, not a gate failure.
    let out = harness().arg("replay").output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--json") && stderr.contains("--check"), "{stderr}");
}

#[test]
fn replay_with_nonexistent_journal_exits_2() {
    let out = harness()
        .args(["replay", "--check", "/nonexistent/dir/replay.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
}

#[test]
fn replay_record_then_check_round_trips_with_exit_0() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("replay-roundtrip.json");
    let rec = harness()
        .args(["replay", "--json", path.to_str().expect("utf8 path"), "--options", "6"])
        .output()
        .expect("spawn harness");
    assert_eq!(rec.status.code(), Some(0), "{}", String::from_utf8_lossy(&rec.stderr));
    let chk = harness()
        .args(["replay", "--check", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn harness");
    assert_eq!(chk.status.code(), Some(0), "{}", String::from_utf8_lossy(&chk.stderr));
    assert!(String::from_utf8_lossy(&chk.stdout).contains("PASS"));
}

#[test]
fn replay_check_of_tampered_journal_exits_1() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("replay-tampered.json");
    let rec = harness()
        .args(["replay", "--json", path.to_str().expect("utf8 path"), "--options", "6"])
        .output()
        .expect("spawn harness");
    assert_eq!(rec.status.code(), Some(0), "{}", String::from_utf8_lossy(&rec.stderr));
    // Flip the low mantissa bit of the first journalled spread: the
    // determinism gate must catch a single-ulp divergence.
    let text = std::fs::read_to_string(&path).expect("read journal");
    let list = text.find("\"spread_bits\"").expect("journal has spread bits");
    let open = list + text[list..].find('[').expect("spread bits array");
    let at = open + text[open..].find('"').expect("first spread entry") + 1;
    let bits = u64::from_str_radix(&text[at..at + 16], 16).expect("hex bits");
    // Replace at that position: the same digits also appear in the
    // write-ahead journal text, which must stay intact here.
    let tampered = format!("{}{:016x}{}", &text[..at], bits ^ 1, &text[at + 16..]);
    std::fs::write(&path, tampered).expect("write tampered journal");
    let chk = harness()
        .args(["replay", "--check", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn harness");
    assert_eq!(chk.status.code(), Some(1), "{}", String::from_utf8_lossy(&chk.stderr));
    assert!(String::from_utf8_lossy(&chk.stderr).contains("spread 0 diverged"));
}

#[test]
fn replay_of_a_seed_above_2_pow_53_round_trips_with_exit_0() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("replay-big-seed.json");
    let path = path.to_str().expect("utf8 path");
    let seed = "9007199254740993"; // 2^53 + 1: no f64 holds it
    let out = harness()
        .args(["replay", "--seed", seed, "--scenario", "none", "--options", "6"])
        .args(["--json", path, "--check", path])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(path).expect("read journal");
    assert!(text.contains(&format!("\"seed\": \"{seed}\"")), "{text}");
}

#[test]
fn replay_check_of_a_version_1_journal_exits_2() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("replay-v1.json");
    let rec = harness()
        .args(["replay", "--json", path.to_str().expect("utf8 path"), "--options", "6"])
        .output()
        .expect("spawn harness");
    assert_eq!(rec.status.code(), Some(0), "{}", String::from_utf8_lossy(&rec.stderr));
    let text = std::fs::read_to_string(&path).expect("read journal");
    let v1 = text.replace("\"schema_version\": 2", "\"schema_version\": 1");
    assert_ne!(v1, text, "the journal must carry schema version 2");
    std::fs::write(&path, v1).expect("write v1 journal");
    let chk = harness()
        .args(["replay", "--check", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn harness");
    assert_eq!(chk.status.code(), Some(2), "{}", String::from_utf8_lossy(&chk.stderr));
    assert!(String::from_utf8_lossy(&chk.stderr).contains("schema version 1"));
}

#[test]
fn csv_write_to_unwritable_dir_exits_2() {
    let out = harness()
        .args(["listing1", "--csv", "/proc/no-such-dir/csv"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn loadgen_with_nonexistent_baseline_exits_2_fast() {
    let out = harness()
        .args(["loadgen", "--check", "/nonexistent/dir/server_slo_baseline.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
}

#[test]
fn loadgen_bad_rate_exits_2() {
    let out = harness().args(["loadgen", "--rate", "-5"]).output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--rate"));
}

#[test]
fn loadgen_small_run_exits_0() {
    let out = harness()
        .args(["loadgen", "--options", "40", "--rate", "4000", "--no-faults"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("priced"));
}

#[test]
fn loadgen_check_against_impossible_slo_exits_1() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("slo-impossible.json");
    // A 0us p99 ceiling is unreachable; the SLO gate must exit 1.
    std::fs::write(
        &path,
        concat!(
            "{\"schema_version\": 1, \"p50_micros_max\": 0, \"p99_micros_max\": 0, ",
            "\"p999_micros_max\": 0, \"min_answer_fraction\": 1.0, ",
            "\"min_priced_fraction\": 0.0}"
        ),
    )
    .expect("write baseline");
    let out = harness()
        .args([
            "loadgen",
            "--options",
            "40",
            "--rate",
            "4000",
            "--no-faults",
            "--check",
            path.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("SLO"));
}

#[test]
fn loadgen_malformed_baseline_exits_2() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("slo-malformed.json");
    std::fs::write(&path, "{ not json").expect("write malformed baseline");
    let out = harness()
        .args(["loadgen", "--check", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed baseline"));
}

#[test]
fn server_chaos_with_nonexistent_baseline_exits_2_fast() {
    let out = harness()
        .args(["server-chaos", "--check", "/nonexistent/dir/server_chaos_baseline.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
}

#[test]
fn server_chaos_check_against_foreign_baseline_exits_1() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("server-chaos-foreign.json");
    // A baseline naming a scenario the matrix does not run: the exact
    // verdict comparison must flag both directions and exit 1.
    std::fs::write(
        &path,
        concat!(
            "{\"schema_version\": 1, \"seed\": 42, \"cases\": [",
            "{\"name\": \"server/no-such-scenario\", \"degraded\": false, ",
            "\"shed_occurred\": false, \"spreads_match_clean\": true, ",
            "\"survived\": true}]}"
        ),
    )
    .expect("write baseline");
    let out = harness()
        .args(["server-chaos", "--check", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-scenario"), "{stderr}");
}

#[test]
fn isolation_with_nonexistent_baseline_exits_2_fast() {
    let out = harness()
        .args(["server-chaos", "--isolation", "--check", "/nonexistent/dir/tenant_isolation.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
}

#[test]
fn isolation_check_against_foreign_baseline_exits_1() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tenant-isolation-foreign.json");
    std::fs::write(
        &path,
        concat!(
            "{\"schema_version\": 1, \"seed\": 42, \"cases\": [",
            "{\"name\": \"server/no-such-isolation-scenario\", \"degraded\": false, ",
            "\"shed_occurred\": false, \"spreads_match_clean\": true, ",
            "\"survived\": true}]}"
        ),
    )
    .expect("write baseline");
    let out = harness()
        .args(["server-chaos", "--isolation", "--check", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-isolation-scenario"), "{stderr}");
}

#[test]
fn isolation_run_passes_the_committed_baseline() {
    let baseline =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/tenant_isolation_baseline.json");
    let out = harness()
        .args(["server-chaos", "--isolation", "--check", baseline])
        .output()
        .expect("spawn harness");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("violated"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("server/noisy-neighbor-flood"), "{stdout}");
    assert!(stdout.contains("check against") && stdout.contains("PASS"), "{stdout}");
}

#[test]
fn server_chaos_against_committed_baseline_exits_0() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/server_chaos_baseline.json");
    let out =
        harness().args(["server-chaos", "--check", baseline]).output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
}

#[test]
fn storage_chaos_with_nonexistent_baseline_exits_2_fast() {
    let out = harness()
        .args(["storage-chaos", "--check", "/nonexistent/dir/storage_chaos_baseline.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"));
}

#[test]
fn storage_chaos_check_against_foreign_baseline_exits_1() {
    let dir = std::env::temp_dir().join("cds-harness-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("storage-chaos-foreign.json");
    // A baseline naming a scenario the matrix does not run: the exact
    // verdict comparison must flag both directions and exit 1.
    std::fs::write(
        &path,
        concat!(
            "{\"schema_version\": 1, \"seed\": 42, \"cases\": [",
            "{\"name\": \"storage/no-such-scenario\", ",
            "\"zero_silent_corruption\": true, \"ordering_held\": true, ",
            "\"survived\": true}]}"
        ),
    )
    .expect("write baseline");
    let out = harness()
        .args(["storage-chaos", "--check", path.to_str().expect("utf8 path")])
        .output()
        .expect("spawn harness");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-scenario"), "{stderr}");
}

#[test]
fn storage_chaos_against_committed_baseline_exits_0() {
    let baseline =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/storage_chaos_baseline.json");
    let out =
        harness().args(["storage-chaos", "--check", baseline]).output().expect("spawn harness");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
}
