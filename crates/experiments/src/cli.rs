//! The `netchain` command line: one table of subcommands, one dispatcher.
//!
//! Every experiment, gate and tool is an entry of [`COMMANDS`]; the root
//! package's `src/main.rs` hands its arguments to [`run`]. `all` and `help`
//! are entries like any other and walk the same table, so neither can drift
//! from what the single subcommands do.

use crate::{bench_gate, chain_audit, fig10, fig11, fig9, net_scale, ops_top, table1};

/// One subcommand: its name, a one-line description, and its entry point
/// (the arguments after the name → the process exit code).
pub type Command = (&'static str, &'static str, fn(&[String]) -> i32);

/// Every subcommand, in the order `help` lists them.
pub static COMMANDS: [Command; 10] = [
    (
        "table1",
        "Table 1: server vs switch packet processing",
        table1::run_cli,
    ),
    (
        "fig9",
        "Figure 9: throughput, latency, scalability [--panel a..f]",
        fig9::run_cli,
    ),
    (
        "fig10",
        "Figure 10: failure handling, measured on the live fabric [--smoke]",
        fig10::run_cli,
    ),
    (
        "fig11",
        "Figure 11: transaction throughput vs contention",
        fig11::run_cli,
    ),
    (
        "net_scale",
        "open-loop load over real sockets; writes BENCH_net.json [--smoke]",
        net_scale::run_cli,
    ),
    (
        "ops_top",
        "live dashboard over the net or fabric dataplane [--fabric] [--once] [--json]",
        ops_top::run_cli,
    ),
    (
        "chain_audit",
        "offline chain-consistency audit of exported traces <dir|files>",
        chain_audit::run_cli,
    ),
    (
        "bench_gate",
        "regression gate <baseline.json> <fresh.json> [--tolerance T]",
        bench_gate::run_cli,
    ),
    (
        "all",
        "every table and figure in sequence (several minutes)",
        all,
    ),
    ("help", "this list", help),
];

/// What `all` runs, by name: the reproductions, each exactly as its own
/// subcommand runs with no arguments.
const ALL: [&str; 4] = ["table1", "fig9", "fig10", "fig11"];

fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|(n, ..)| *n == name)
}

fn all(_args: &[String]) -> i32 {
    ALL.iter()
        .map(|name| find(name).expect("`all` names table entries").2(&[]))
        .find(|&code| code != 0)
        .unwrap_or(0)
}

/// The table as text: one line per subcommand.
fn usage() -> String {
    let mut out = String::from("usage: netchain <subcommand> [args]\n\nsubcommands:\n");
    for (name, about, _) in &COMMANDS {
        out.push_str(&format!("  {name:<20}{about}\n"));
    }
    out
}

fn help(_args: &[String]) -> i32 {
    print!("{}", usage());
    0
}

/// Reports a command-line mistake: `what`, then the table, on stderr.
/// Returns the usage exit code, 2.
pub(crate) fn usage_error(what: &str) -> i32 {
    eprintln!("{what}\n\n{}", usage());
    2
}

/// The value following `flag` in `args`: `None` when the flag is absent, the
/// empty string when nothing follows it.
pub(crate) fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    Some(args.get(at + 1).map_or("", String::as_str))
}

/// Runs `args[0]` with the remaining arguments and returns the process exit
/// code; an unknown or missing subcommand is a usage error.
pub fn run(args: &[String]) -> i32 {
    let Some((name, rest)) = args.split_first() else {
        return usage_error("netchain: no subcommand given");
    };
    match find(name) {
        Some((_, _, entry)) => entry(rest),
        None => usage_error(&format!("netchain: unknown subcommand {name:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_former_bin_name_resolves() {
        // The experiment bins that are still measured here: the fig9 panels
        // became `fig9 --panel`, `all_experiments` is `all`.
        for name in [
            "table1",
            "fig9",
            "fig10",
            "fig11",
            "net_scale",
            "ops_top",
            "chain_audit",
            "bench_gate",
            "all",
        ] {
            assert!(find(name).is_some(), "{name} is not a subcommand");
        }
        for name in ALL {
            assert!(find(name).is_some(), "`all` names {name}");
        }
        // The two harnesses `benchmark/` replaced, and `failover_live`, which
        // `fig10` became, are unknown names now: exit 2 and the table, like
        // any other.
        for name in ["fabric_scale", "telemetry_overhead", "failover_live"] {
            assert!(find(name).is_none(), "{name} is still a subcommand");
            assert_eq!(run(&[name.to_string()]), 2);
        }
    }

    #[test]
    fn a_panel_letter_selects_that_panel() {
        // (f) is the capacity model: milliseconds.
        assert_eq!(run(&["fig9", "--panel", "f"].map(String::from)), 0);
    }

    #[test]
    fn help_lists_every_entry_exactly_once() {
        assert_eq!(run(&["help".to_string()]), 0);
        let text = usage();
        for (name, ..) in &COMMANDS {
            let listed = text
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(name))
                .count();
            assert_eq!(listed, 1, "{name} listed {listed} times");
        }
    }
}
