//! The `netchain` binary end to end: exit codes, and that a command-line
//! mistake shows the subcommand table.

use std::process::{Command, Output};

fn netchain(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_netchain"))
        .args(args)
        .output()
        .expect("run the netchain binary")
}

/// Every line of the table `help` prints.
fn table() -> Vec<String> {
    let help = netchain(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    let text = String::from_utf8(help.stdout).expect("utf-8");
    let rows: Vec<String> = text
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(String::from)
        .collect();
    assert_eq!(rows.len(), netchain::experiments::cli::COMMANDS.len());
    assert_eq!(rows.len(), 10);
    rows
}

#[test]
fn mistakes_exit_two_and_print_the_table() {
    let rows = table();
    for args in [
        &[][..],
        &["fig9a"],
        &["all_experiments"],
        &["fabric_scale"],
        &["telemetry_overhead"],
        &["failover_live"],
        &["fig9", "--panel", "g"],
        &["fig9", "--panel"],
    ] {
        let out = netchain(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        for row in &rows {
            assert!(stderr.contains(row.as_str()), "{args:?}: no {row:?}");
        }
    }
}

#[test]
fn a_subcommand_runs_and_its_exit_code_is_the_process_exit_code() {
    let out = netchain(&["table1"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
    // bench_gate's own usage error (no files) passes through unchanged.
    assert_eq!(netchain(&["bench_gate"]).status.code(), Some(2));
    // ...and so does its verdict: a file gated against itself passes.
    let same = netchain(&["bench_gate", "BENCH_net.json", "BENCH_net.json"]);
    assert_eq!(same.status.code(), Some(0));
}
