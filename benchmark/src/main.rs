//! One benchmark for the three execution modes.
//!
//! ```text
//! netchain-benchmark run [--workload W] [--seed N] [--seconds N] [--trace 0|1]
//!                        [--quick] [--out DIR]
//! netchain-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! `run` drives only public items of the crates, from outside them. Without
//! `--workload` it runs all four, interleaved round-robin so host drift hits
//! them equally; without `--trace` it runs the timed pass and then the
//! traced one. See `README.md` beside this crate for the metrics.

mod compare;
mod fabric;
mod failover;
mod host;
mod net;
mod report;
mod spans;
mod spec;
mod stats;
mod traced;
mod workload;

use report::{Header, Outcome};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Rep, Workload};

/// One timed, untraced repetition of `workload`, with the host's state
/// around it.
fn timed_rep(workload: Workload, seed: u64, quick: bool) -> Rep {
    let calib_mops = host::calib_mops();
    let before = host::cpu_jiffies();
    let mut rep = match workload {
        Workload::FabricRead | Workload::FabricWrite => fabric::timed_rep(workload, seed, quick),
        Workload::NetOpen => net::timed_rep(seed, quick),
        Workload::Failover => failover::timed_rep(seed, quick),
    };
    rep.steal_share = host::steal_share(before, host::cpu_jiffies());
    rep.calib_mops = calib_mops;
    rep
}

/// The seed of repetition `index` of an invocation seeded `seed`: distinct
/// for every pair while an invocation makes under 10 000 repetitions.
fn rep_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(10_000).wrapping_add(index as u64)
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    /// `Some(false)`: timed pass only; `Some(true)`: traced pass only.
    trace: Option<bool>,
    quick: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 25,
        trace: None,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}`; one of {names:?}")
                })?;
                parsed.workloads = vec![w];
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: 0 or 1")),
                })
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(parsed)
}

/// The timed pass: repetitions of every selected workload, round-robin,
/// each workload until another repetition would overrun its `budget`.
fn timed_pass(outcomes: &mut [Outcome], seed: u64, budget: Duration, quick: bool) {
    let mut used = vec![Duration::ZERO; outcomes.len()];
    let mut last = vec![Duration::ZERO; outcomes.len()];
    loop {
        let mut ran = false;
        for (i, outcome) in outcomes.iter_mut().enumerate() {
            let fits = !quick && used[i] + last[i] <= budget;
            if !(outcome.reps.is_empty() || fits) {
                continue;
            }
            let t = Instant::now();
            let rep = timed_rep(outcome.workload, rep_seed(seed, outcome.reps.len()), quick);
            last[i] = t.elapsed();
            used[i] += last[i];
            outcome.absorb(&rep);
            outcome.reps.push(rep);
            ran = true;
        }
        if !ran {
            return;
        }
    }
}

fn run(args: RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    // A live monitor that flags an anomaly dumps its flight recorder into
    // this directory rather than wherever the process happens to run.
    std::env::set_var("NETCHAIN_ARTIFACT_DIR", &args.out);
    let budget = Duration::from_secs(args.seconds);
    let mut outcomes: Vec<Outcome> = args.workloads.iter().map(|&w| Outcome::new(w)).collect();
    if args.trace != Some(true) {
        timed_pass(&mut outcomes, args.seed, budget, args.quick);
    }
    if args.trace != Some(false) {
        let path = args.out.join("spans.jsonl");
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut spans = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
        for outcome in &mut outcomes {
            let w = outcome.workload;
            traced::run(w, args.seed, budget, args.quick, outcome, &mut spans).map_err(io)?;
        }
        spans.flush().map_err(io)?;
    }
    let header = Header {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        trace: match args.trace {
            Some(false) => "0",
            Some(true) => "1",
            None => "both",
        },
    };
    let path = args.out.join("result.json");
    std::fs::write(&path, report::document(&header, &outcomes).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report::print_table(&outcomes);
    println!("{}", report::summary_line(&outcomes));
    Ok(outcomes.iter().all(Outcome::correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(run),
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare::run("BENCHMARK.json", a, b),
            [a, b, flag, spec] if flag == "--spec" => compare::run(spec, a, b),
            _ => Err("compare takes two result documents, then optionally --spec FILE".into()),
        },
        _ => Err(
            "usage: netchain-benchmark run [--workload W] [--seed N] [--seconds N] \
                  [--trace 0|1] [--quick] [--out DIR] | compare A.json B.json [--spec FILE]"
                .into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("netchain-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
