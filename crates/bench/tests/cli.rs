//! The `campaign` binary rejects bad input with exit 2 and a message naming
//! the valid choices, instead of panicking, and `describe` prints a spec
//! block that parses as JSON.
//!
//! Each case spawns the built binary with its own environment, so nothing
//! here sets a process-global variable in the test process.  The binary runs
//! in a scratch directory, so nothing it creates lands in the checkout.

use std::fs;
use std::process::{Command, Output};

fn campaign(tag: &str, args: &[&str], profile_env: Option<&str>) -> Output {
    let dir = std::env::temp_dir().join(format!("charisma-cli-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(args)
        .current_dir(&dir)
        .env_remove("CHARISMA_BENCH_PROFILE");
    if let Some(value) = profile_env {
        cmd.env("CHARISMA_BENCH_PROFILE", value);
    }
    let output = cmd.output().expect("the campaign binary must start");
    fs::remove_dir_all(&dir).ok();
    output
}

fn assert_usage_error(output: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "missing {needle:?} in: {stderr}");
    }
}

#[test]
fn an_unrecognised_profile_variable_exits_2_with_the_valid_choices() {
    for command in ["run", "gate"] {
        let output = campaign(command, &[command, "table1"], Some("ful"));
        assert_usage_error(
            &output,
            &["CHARISMA_BENCH_PROFILE", "\"ful\"", "quick, standard, full"],
        );
    }
}

#[test]
fn gating_an_unknown_entry_exits_2_with_the_registry() {
    let output = campaign(
        "unknown",
        &["gate", "bench_frame_loop", "--profile", "quick"],
        None,
    );
    assert_usage_error(&output, &["unknown scenario \"bench_frame_loop\"", "fig11"]);
}

#[test]
fn describe_prints_a_spec_block_that_parses_as_json() {
    let output = campaign("describe", &["describe", "fig11"], None);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let (_, spec) = stdout
        .split_once("spec (standard-profile grids):\n")
        .unwrap_or_else(|| panic!("no spec block in: {stdout}"));
    let json = charisma::Json::parse(spec).unwrap_or_else(|e| panic!("{e}: {spec}"));
    assert_eq!(json.get("name"), Some(&charisma::Json::Str("fig11".into())));
}
