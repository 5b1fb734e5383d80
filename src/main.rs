//! The `netchain` binary: every experiment, gate and tool as a subcommand.
//! `cargo run --release -- help` lists them.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(netchain_experiments::cli::run(&args));
}
