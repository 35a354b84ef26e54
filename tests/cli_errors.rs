//! CLI flags are hostile input: every command rejects an unknown flag, a
//! flag missing its value and a malformed number with a message on stderr
//! and exit code 2, before running anything — a typo must never silently
//! fall back to a default.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_skrt-repro"))
        .args(args)
        .output()
        .expect("spawn skrt-repro");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], needle: &str) {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, 2, "{args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr lacks {needle:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?} ran something before rejecting: {stdout}");
}

#[test]
fn every_command_rejects_an_unknown_flag() {
    for cmd in [
        &["campaign"][..],
        &["campaign", "sweep"],
        &["campaign", "sequences"],
        &["campaign", "fuzz"],
        &["campaign", "check"],
        &["campaign", "report"],
        &["sweep"],
        &["suite", "XM_set_timer"],
        &["triage", "XM_set_timer", "2"],
        &["specgen"],
        &["coverage"],
    ] {
        let mut args = cmd.to_vec();
        args.push("--bogus");
        assert_rejected(&args, "unknown flag '--bogus'");
    }
}

#[test]
fn the_removed_no_memo_flag_is_rejected() {
    for sub in [&[][..], &["sweep"], &["sequences"]] {
        let mut args = vec!["campaign"];
        args.extend_from_slice(sub);
        args.push("--no-memo");
        assert_rejected(&args, "unknown flag '--no-memo'");
    }
}

#[test]
fn malformed_numbers_are_rejected() {
    assert_rejected(&["campaign", "--threads", "two"], "--threads: 'two' is not a valid number");
    assert_rejected(&["campaign", "sweep", "--chunk", "-1"], "--chunk: '-1' is not a valid number");
    assert_rejected(&["campaign", "sequences", "--count", "abc"], "--count: 'abc'");
    assert_rejected(&["campaign", "fuzz", "--execs", "1e3"], "--execs: '1e3'");
    assert_rejected(&["campaign", "check", "--slots", "2.5"], "--slots: '2.5'");
    assert_rejected(&["campaign", "report", "--seed", "0x7"], "--seed: '0x7'");
    assert_rejected(&["campaign", "--live-stats", "x.jsonl", "--live-interval", "soon"], "soon");
}

#[test]
fn a_flag_missing_its_value_is_rejected() {
    assert_rejected(&["campaign", "--threads"], "--threads needs a value");
    assert_rejected(&["campaign", "fuzz", "--seed"], "--seed needs a value");
}

/// Work-unit indices are 32-bit, so `--tests` above `u32::MAX` is refused
/// at parse time rather than after materialising billions of cases.
#[test]
fn sweep_tests_beyond_u32_are_rejected_at_parse_time() {
    for n in ["4294967296", "18446744073709551616", "0"] {
        assert_rejected(&["campaign", "sweep", "--tests", n], "--tests must be an integer in 1..=");
    }
    assert_rejected(&["campaign", "--tests", "10"], "unknown flag '--tests'");
}
