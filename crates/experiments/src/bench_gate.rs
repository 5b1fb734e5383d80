//! CI perf gate: compares a freshly measured `BENCH_net.json` against the
//! committed baseline and fails on regression.
//!
//! Absolute rates (ops/sec, ns) are machine-dependent — CI runners and dev
//! boxes disagree by integer factors — so the gate only judges **scale-free
//! ratios** the repo's own optimisations claim (batched-vs-single syscall
//! speedup, the open-loop median over the syscall round trip) plus
//! **must-be-zero** protocol counters (abandoned ops, version regressions).
//! A ratio check passes when `fresh >= baseline * (1 - tolerance)`, a
//! ceiling check when `fresh <= baseline * (1 + tolerance)`; a zero check
//! passes only at exactly zero.
//!
//! The rule set is auto-selected from the file's `"experiment"` field, and
//! the tolerance doubles when the fresh file is a `--smoke` run (smoke
//! measurements are short and noisy by design).

use std::path::Path;

use netchain_telemetry::Json;

/// What one gate rule demands of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Demand {
    /// Fresh must be at least `baseline * (1 - tolerance)`.
    Ratio,
    /// Fresh must be at most `baseline * (1 + tolerance)` — for
    /// lower-is-better metrics like latency quantiles.
    Ceiling,
    /// Fresh must be exactly zero (the baseline is ignored).
    Zero,
}

/// One metric the gate inspects: a key path into the bench JSON plus the
/// kind of demand made of it.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Dotted key path with indices, e.g. `"latency[0].abandoned"`.
    pub path: &'static str,
    /// How the fresh value is judged.
    pub demand: Demand,
}

/// The scale-free rule set for `BENCH_net.json` (`"experiment":"net_scale"`).
pub const NET_RULES: &[Rule] = &[
    Rule {
        path: "capacity.burst_vs_single_speedup",
        demand: Demand::Ratio,
    },
    Rule {
        path: "syscall_microbench.speedup",
        demand: Demand::Ratio,
    },
    Rule {
        path: "latency[0].abandoned",
        demand: Demand::Zero,
    },
    Rule {
        path: "latency[0].version_regressions",
        demand: Demand::Zero,
    },
    // The open-loop median in units of what the kernel charges a query and
    // its reply on the same box: about 3 while nothing on the query path
    // sleeps, above 20 when the generator or the worker does.
    Rule {
        path: "latency[0].p50_over_syscall_rtt",
        demand: Demand::Ceiling,
    },
];

/// Rule set for a bench file, keyed off its `"experiment"` field.
pub fn rules_for(experiment: &str) -> Option<&'static [Rule]> {
    match experiment {
        "net_scale" => Some(NET_RULES),
        _ => None,
    }
}

/// The verdict on one rule.
#[derive(Debug, Clone)]
pub struct Check {
    /// The metric's key path.
    pub path: String,
    /// The demand that was applied.
    pub demand: Demand,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// The passing bound: the lowest passing fresh value for [`Demand::Ratio`]
    /// and [`Demand::Zero`], the highest for [`Demand::Ceiling`].
    pub floor: f64,
    /// Whether the fresh value satisfies the demand.
    pub pass: bool,
}

impl Check {
    /// One aligned report line: metric, baseline, fresh, bound, verdict.
    pub fn to_line(&self) -> String {
        format!(
            "{:<38} baseline {:>9.4}  fresh {:>9.4}  bound {:>9.4}  {}",
            self.path,
            self.baseline,
            self.fresh,
            self.floor,
            if self.pass { "ok" } else { "REGRESSION" }
        )
    }
}

fn metric(doc: &Json, path: &str, which: &str) -> Result<f64, String> {
    doc.get(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{which} file has no numeric metric at '{path}'"))
}

/// Judges `fresh` against `baseline` with the rule set selected by the
/// baseline's `"experiment"` field. `tolerance` is the fractional slack on
/// ratio demands (0.2 = fresh may be 20% below baseline); it is doubled
/// when the fresh file marks itself `"smoke":true`. Errors (not failed
/// checks) signal a malformed or mismatched file pair.
pub fn run_gate(baseline: &Json, fresh: &Json, tolerance: f64) -> Result<Vec<Check>, String> {
    let experiment = baseline
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("baseline file has no \"experiment\" field")?;
    let fresh_experiment = fresh.get("experiment").and_then(Json::as_str).unwrap_or("");
    if experiment != fresh_experiment {
        return Err(format!(
            "experiment mismatch: baseline is '{experiment}', fresh is '{fresh_experiment}'"
        ));
    }
    let rules = rules_for(experiment)
        .ok_or_else(|| format!("no gate rules for experiment '{experiment}'"))?;
    let smoke = matches!(fresh.get("smoke"), Some(Json::Bool(true)));
    let slack = if smoke { tolerance * 2.0 } else { tolerance };

    let mut checks = Vec::with_capacity(rules.len());
    for rule in rules {
        let baseline_v = metric(baseline, rule.path, "baseline")?;
        let fresh_v = metric(fresh, rule.path, "fresh")?;
        let (floor, pass) = match rule.demand {
            Demand::Ratio => {
                let floor = baseline_v * (1.0 - slack);
                (floor, fresh_v >= floor)
            }
            Demand::Ceiling => {
                let ceiling = baseline_v * (1.0 + slack);
                (ceiling, fresh_v <= ceiling)
            }
            Demand::Zero => (0.0, fresh_v == 0.0),
        };
        checks.push(Check {
            path: rule.path.to_string(),
            demand: rule.demand,
            baseline: baseline_v,
            fresh: fresh_v,
            floor,
            pass,
        });
    }
    Ok(checks)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn usage() -> i32 {
    eprintln!("usage: bench_gate <baseline.json> <fresh.json> [--tolerance FRAC]");
    eprintln!("  exits 0 when every gated metric holds, 1 on regression or error");
    2
}

/// CLI entry: `bench_gate <baseline.json> <fresh.json> [--tolerance 0.2]`.
/// Prints one line per gated metric and returns the process exit code:
/// 0 all checks pass, 1 regression or bad input, 2 usage error.
pub fn run_cli(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut tolerance = 0.2f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if (0.0..1.0).contains(&v) => tolerance = v,
                _ => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ => files.push(arg.clone()),
        }
    }
    let [baseline_path, fresh_path] = files.as_slice() else {
        return usage();
    };

    let gated = load(Path::new(baseline_path))
        .and_then(|baseline| load(Path::new(fresh_path)).map(|fresh| (baseline, fresh)))
        .and_then(|(baseline, fresh)| run_gate(&baseline, &fresh, tolerance));
    let checks = match gated {
        Ok(checks) => checks,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return 1;
        }
    };

    println!(
        "bench gate: {baseline_path} (baseline) vs {fresh_path} (fresh), tolerance {tolerance}"
    );
    let mut failed = 0;
    for check in &checks {
        println!("  {}", check.to_line());
        if !check.pass {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("bench_gate: {failed}/{} checks FAILED", checks.len());
        1
    } else {
        println!("bench_gate: all {} checks pass", checks.len());
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_doc(burst: f64, syscall: f64, abandoned: u64, smoke: bool) -> Json {
        net_doc_at(burst, syscall, abandoned, smoke, 3.0)
    }

    /// [`net_doc`] with the latency run's median at `rtts` syscall round trips.
    fn net_doc_at(burst: f64, syscall: f64, abandoned: u64, smoke: bool, rtts: f64) -> Json {
        Json::parse(&format!(
            r#"{{"experiment":"net_scale","smoke":{smoke},
                "capacity":{{"burst_vs_single_speedup":{burst}}},
                "syscall_microbench":{{"speedup":{syscall}}},
                "latency":[{{"abandoned":{abandoned},"version_regressions":0,
                             "p50_over_syscall_rtt":{rtts}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn healthy_fresh_run_passes_all_net_checks() {
        let baseline = net_doc(0.87, 1.12, 0, false);
        let fresh = net_doc(0.85, 1.10, 0, false);
        let checks = run_gate(&baseline, &fresh, 0.2).unwrap();
        assert_eq!(checks.len(), NET_RULES.len());
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }

    #[test]
    fn ratio_regression_beyond_tolerance_fails() {
        let baseline = net_doc(0.87, 1.12, 0, false);
        let fresh = net_doc(0.60, 1.12, 0, false); // 31% drop > 20% slack
        let checks = run_gate(&baseline, &fresh, 0.2).unwrap();
        let burst = &checks[0];
        assert_eq!(burst.path, "capacity.burst_vs_single_speedup");
        assert!(!burst.pass);
        assert!(burst.to_line().contains("REGRESSION"));
        assert!(checks[1..].iter().all(|c| c.pass));
    }

    #[test]
    fn smoke_fresh_runs_get_double_slack() {
        let baseline = net_doc(0.87, 1.12, 0, false);
        // A 31% dip fails at full strictness but passes a smoke run, where
        // the tolerance doubles to 40%.
        let dip = net_doc(0.60, 1.12, 0, true);
        let checks = run_gate(&baseline, &dip, 0.2).unwrap();
        assert!(checks[0].pass, "{:?}", checks[0]);
    }

    #[test]
    fn zero_demand_is_exact_even_under_smoke_slack() {
        let baseline = net_doc(0.87, 1.12, 0, false);
        let fresh = net_doc(0.87, 1.12, 1, true);
        let checks = run_gate(&baseline, &fresh, 0.2).unwrap();
        let abandoned = checks
            .iter()
            .find(|c| c.path == "latency[0].abandoned")
            .unwrap();
        assert_eq!(abandoned.demand, Demand::Zero);
        assert!(!abandoned.pass);
    }

    #[test]
    fn a_doubled_latency_ratio_breaks_the_ceiling_even_for_a_smoke_run() {
        let baseline = net_doc(0.87, 1.12, 0, false);
        // A sleep back on the query path multiplies the ratio (3 → 20 and
        // more); double is already past the smoke run's 40 % slack.
        let doubled = net_doc_at(0.87, 1.12, 0, true, 6.0);
        let checks = run_gate(&baseline, &doubled, 0.2).unwrap();
        let ratio = checks
            .iter()
            .find(|c| c.path == "latency[0].p50_over_syscall_rtt")
            .unwrap();
        assert_eq!(ratio.demand, Demand::Ceiling);
        assert!(!ratio.pass, "{ratio:?}");
        assert!(checks.iter().filter(|c| !c.pass).count() == 1, "{checks:?}");
        // Inside the slack, and any improvement, passes.
        for rtts in [3.9, 1.5] {
            let fresh = net_doc_at(0.87, 1.12, 0, true, rtts);
            let checks = run_gate(&baseline, &fresh, 0.2).unwrap();
            assert!(checks.iter().all(|c| c.pass), "{rtts}: {checks:?}");
        }
    }

    #[test]
    fn mismatched_or_malformed_pairs_error_instead_of_passing() {
        let net = net_doc(0.87, 1.12, 0, false);
        let other = Json::parse(r#"{"experiment":"other"}"#).unwrap();
        assert!(run_gate(&net, &other, 0.2).is_err());
        // A baseline missing a gated metric is an error, not a silent pass.
        let hollow = Json::parse(r#"{"experiment":"net_scale"}"#).unwrap();
        assert!(run_gate(&hollow, &net, 0.2).is_err());
        let unknown = Json::parse(r#"{"experiment":"mystery"}"#).unwrap();
        assert!(run_gate(&unknown, &unknown, 0.2).is_err());
    }

    #[test]
    fn gate_accepts_the_committed_bench_file_against_itself() {
        // Self-comparison of the real committed baseline must pass: this
        // pins the rule paths to the actual file shape.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
        let doc = load(Path::new(path)).unwrap();
        let checks = run_gate(&doc, &doc, 0.2).unwrap();
        assert_eq!(checks.len(), NET_RULES.len());
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }
}
