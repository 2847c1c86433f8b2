//! CLI contract tests: JSON output, the baseline ratchet, severity flags,
//! and the documented exit codes (0 clean, 1 new deny findings, 2 usage/IO).

use std::path::PathBuf;
use std::process::{Command, Output};

use cordoba_lint::json::{self, Value};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cordoba-lint")
}

fn bad_fixture(name: &str) -> String {
    format!("{}/fixtures/bad/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("lint binary runs")
}

#[test]
fn json_report_parses_and_matches_summary() {
    let out = run(&["check", "--format", "json", &bad_fixture("wall_clock.rs")]);
    assert_eq!(out.status.code(), Some(1), "deny findings must exit 1");
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("stdout is valid JSON");

    let Some(Value::Arr(findings)) = doc.get("findings") else {
        panic!("report has a findings array: {doc:?}");
    };
    assert_eq!(findings.len(), 3, "wall_clock fixture has three findings");
    for f in findings {
        assert_eq!(f.get("rule").and_then(Value::as_str), Some("wall-clock"));
        assert_eq!(f.get("severity").and_then(Value::as_str), Some("deny"));
        assert!(f
            .get("file")
            .and_then(Value::as_str)
            .is_some_and(|p| p.ends_with("fixtures/bad/wall_clock.rs")));
    }
    let summary = doc.get("summary").expect("summary object");
    assert_eq!(summary.get("deny"), Some(&Value::Num(3.0)));
    assert_eq!(summary.get("warn"), Some(&Value::Num(0.0)));
    assert_eq!(
        summary.get("by_rule").and_then(|b| b.get("wall-clock")),
        Some(&Value::Num(3.0))
    );
}

#[test]
fn warn_only_findings_exit_zero_and_deny_flag_escalates() {
    // atomic-ordering defaults to warn: reported, but not a failure.
    let warn_only = run(&[
        "check",
        "--format",
        "json",
        &bad_fixture("atomic_ordering.rs"),
    ]);
    assert_eq!(
        warn_only.status.code(),
        Some(0),
        "warn-severity findings alone must not fail the run"
    );
    let doc =
        json::parse(&String::from_utf8_lossy(&warn_only.stdout)).expect("stdout is valid JSON");
    let summary = doc.get("summary").expect("summary object");
    assert_eq!(summary.get("deny"), Some(&Value::Num(0.0)));
    assert_eq!(summary.get("warn"), Some(&Value::Num(2.0)));

    // `--deny determinism` escalates the whole family.
    let escalated = run(&[
        "check",
        "--deny",
        "determinism",
        &bad_fixture("atomic_ordering.rs"),
    ]);
    assert_eq!(escalated.status.code(), Some(1), "--deny must escalate");

    // And `--warn` demotes a deny rule back to advisory.
    let demoted = run(&[
        "check",
        "--warn",
        "global-state",
        &bad_fixture("global_state.rs"),
    ]);
    assert_eq!(demoted.status.code(), Some(0), "--warn must demote");
}

#[test]
fn baseline_round_trip_tolerates_recorded_findings() {
    let baseline: PathBuf =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_json_baseline.json");
    let target = bad_fixture("ambient_input.rs");

    let write = run(&[
        "check",
        "--write-baseline",
        &baseline.to_string_lossy(),
        &target,
    ]);
    assert_eq!(
        write.status.code(),
        Some(0),
        "--write-baseline records and exits 0: {}",
        String::from_utf8_lossy(&write.stderr)
    );

    let gated = run(&[
        "check",
        "--format",
        "json",
        "--baseline",
        &baseline.to_string_lossy(),
        &target,
    ]);
    assert_eq!(
        gated.status.code(),
        Some(0),
        "baselined findings must not fail the run"
    );
    let doc = json::parse(&String::from_utf8_lossy(&gated.stdout)).expect("stdout is valid JSON");
    assert_eq!(doc.get("baselined"), Some(&Value::Num(3.0)));
    let Some(Value::Arr(findings)) = doc.get("findings") else {
        panic!("report has a findings array: {doc:?}");
    };
    assert!(findings.is_empty(), "no fresh findings: {findings:?}");

    // The ratchet only absorbs what was recorded: a second dirty file still
    // fails against the same baseline.
    let two_files = run(&[
        "check",
        "--baseline",
        &baseline.to_string_lossy(),
        &target,
        &bad_fixture("raw_thread.rs"),
    ]);
    assert_eq!(
        two_files.status.code(),
        Some(1),
        "non-baselined findings must still fail"
    );
}

#[test]
fn io_and_usage_errors_exit_two() {
    let missing = run(&[
        "check",
        "--baseline",
        "/nonexistent/baseline.json",
        &bad_fixture("wall_clock.rs"),
    ]);
    assert_eq!(
        missing.status.code(),
        Some(2),
        "unreadable baseline is an IO error"
    );

    let bad_format = run(&["check", "--format", "yaml"]);
    assert_eq!(
        bad_format.status.code(),
        Some(2),
        "unknown format is a usage error"
    );

    let bad_family = run(&["check", "--deny", "not-a-rule"]);
    assert_eq!(
        bad_family.status.code(),
        Some(2),
        "unknown rule is a usage error"
    );
}

#[test]
fn hostile_deeply_nested_baseline_is_malformed_not_a_crash() {
    // 200,000 nested arrays used to recurse until the stack overflowed
    // (abort, exit 134); the depth cap turns it into the malformed-baseline
    // path: a message and exit 2.
    let baseline: PathBuf = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_json_deep.json");
    std::fs::write(&baseline, "[".repeat(200_000)).expect("write baseline");
    let out = run(&[
        "check",
        "--baseline",
        &baseline.to_string_lossy(),
        &bad_fixture("wall_clock.rs"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than 64 levels"), "{stderr}");
}

#[test]
fn help_documents_exit_codes_and_flags() {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8_lossy(&help.stderr).to_string();
    for needle in [
        "--format",
        "--baseline",
        "--write-baseline",
        "--deny",
        "--warn",
        "exit codes",
    ] {
        assert!(text.contains(needle), "help must mention {needle}:\n{text}");
    }
}
