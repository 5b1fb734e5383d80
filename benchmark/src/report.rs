//! What a run hands back: the table on stdout, the self-describing result
//! document, and the one-line summary the acceptance driver reads.

use crate::host;
use crate::stats::Quartiles;
use crate::workload::{end_to_end, Rep, Row, Workload, STEAL_FLAG};
use netchain_telemetry::Json;

/// Version of the result document's layout.
pub const SCHEMA: u64 = 1;

/// Everything measured for one workload in one invocation.
pub struct Outcome {
    pub workload: Workload,
    /// Timed, untraced repetitions (empty under `--trace 1`).
    pub reps: Vec<Rep>,
    /// Per-layer `(name, unit, value)` of the traced pass (empty under
    /// `--trace 0`).
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Operations issued, over everything the invocation ran.
    pub attempted: u64,
    /// Of those, never answered.
    pub failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn new(workload: Workload) -> Outcome {
        Outcome {
            workload,
            reps: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Folds a finished run's counts and failed checks into the outcome.
    pub fn absorb(&mut self, rep: &Rep) {
        self.attempted += rep.issued;
        self.failed += rep.failed();
        self.failures.extend(
            rep.failures
                .iter()
                .map(|f| format!("seed {}: {f}", rep.seed)),
        );
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Each end-to-end metric with the quartiles of its samples; empty when
    /// no timed repetition ran.
    pub fn end_to_end(&self) -> Vec<(Row, Quartiles)> {
        end_to_end(self.workload, &self.reps)
            .into_iter()
            .filter_map(|row| Quartiles::of(&row.samples).map(|q| (row, q)))
            .collect()
    }
}

/// What describes the invocation itself.
pub struct Header {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub trace: &'static str,
}

/// The revision of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a repository.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// The result document.
pub fn document(header: &Header, outcomes: &[Outcome]) -> Json {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let end_to_end = o
                .end_to_end()
                .into_iter()
                .map(|(row, q)| {
                    Json::obj(vec![
                        ("name", Json::str(row.name)),
                        ("unit", Json::str(row.unit)),
                        ("value", Json::F64(row.value)),
                        ("median", Json::F64(q.median)),
                        ("q1", Json::F64(q.q1)),
                        ("q3", Json::F64(q.q3)),
                        ("samples", Json::U64(q.samples as u64)),
                        (
                            "values",
                            Json::Arr(row.samples.into_iter().map(Json::F64).collect()),
                        ),
                    ])
                })
                .collect();
            let per_layer = o
                .layers
                .iter()
                .map(|&(name, unit, value)| {
                    Json::obj(vec![
                        ("name", Json::str(name)),
                        ("unit", Json::str(unit)),
                        ("value", Json::F64(value)),
                    ])
                })
                .collect();
            let repetitions = o
                .reps
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("seed", Json::U64(r.seed)),
                        ("issued", Json::U64(r.issued)),
                        ("completed", Json::U64(r.completed)),
                        ("host.calib_mops", Json::F64(r.calib_mops)),
                        ("host.steal_share", Json::F64(r.steal_share)),
                        ("steal_flag", Json::Bool(r.steal_share > STEAL_FLAG)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("name", Json::str(o.workload.name())),
                ("correct", Json::Bool(o.correct())),
                ("attempted", Json::U64(o.attempted)),
                ("failed", Json::U64(o.failed)),
                (
                    "failures",
                    Json::Arr(o.failures.iter().map(Json::str).collect()),
                ),
                ("end_to_end", Json::Arr(end_to_end)),
                ("per_layer", Json::Arr(per_layer)),
                ("repetitions", Json::Arr(repetitions)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::U64(SCHEMA)),
        ("git_rev", Json::str(git_rev())),
        (
            "mode",
            Json::str(if header.quick { "quick" } else { "full" }),
        ),
        ("seed", Json::U64(header.seed)),
        ("seconds", Json::U64(header.seconds)),
        ("trace", Json::str(header.trace)),
        ("host.cores", Json::U64(host::cores() as u64)),
        // Every workload runs unpinned on `FabricConfig::new(1)` /
        // `NetConfig::new(ring, 1, …)` defaults.
        ("pinned_threads", Json::U64(0)),
        ("io_mode", Json::str(netchain_net::IoMode::Burst.label())),
        ("burst_syscalls", Json::Bool(mmsg::BURST_SYSCALLS)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// Prints every metric by name and unit.
pub fn print_table(outcomes: &[Outcome]) {
    for o in outcomes {
        println!(
            "== {} — {} attempted, {} failed, {}",
            o.workload.name(),
            o.attempted,
            o.failed,
            if o.correct() { "correct" } else { "INCORRECT" }
        );
        for failure in &o.failures {
            println!("   check failed: {failure}");
        }
        for (row, q) in o.end_to_end() {
            println!(
                "   {:<28} {:>14.4} {:<12} samples: q1 {:.4}  median {:.4}  q3 {:.4}  n {}",
                row.name, row.value, row.unit, q.q1, q.median, q.q3, q.samples
            );
        }
        let flagged = o.reps.iter().filter(|r| r.steal_share > STEAL_FLAG).count();
        if flagged > 0 {
            println!(
                "   host.steal_share above {STEAL_FLAG} in {flagged} of {} repetitions (kept)",
                o.reps.len()
            );
        }
        for &(name, unit, value) in &o.layers {
            println!("   {name:<28} {value:>14.4} {unit}");
        }
    }
}

/// The last line of stdout: `correct`, `attempted`, `failed` and the metrics
/// by name. With several workloads in one invocation the names carry the
/// workload as a prefix.
pub fn summary_line(outcomes: &[Outcome]) -> String {
    let prefix = |o: &Outcome, name: &str| {
        if outcomes.len() == 1 {
            name.to_string()
        } else {
            format!("{}:{name}", o.workload.name())
        }
    };
    let entry = |value: f64, unit: &str| {
        Json::obj(vec![("value", Json::F64(value)), ("unit", Json::str(unit))])
    };
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for o in outcomes {
        for (row, _) in o.end_to_end() {
            metrics.push((prefix(o, row.name), entry(row.value, row.unit)));
        }
        for &(name, unit, value) in &o.layers {
            metrics.push((prefix(o, name), entry(value, unit)));
        }
    }
    Json::obj(vec![
        ("correct", Json::Bool(outcomes.iter().all(Outcome::correct))),
        (
            "attempted",
            Json::U64(outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1)),
        ),
        ("failed", Json::U64(outcomes.iter().map(|o| o.failed).sum())),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_telemetry::LatencyHistogram;
    use std::time::Duration;

    fn outcome() -> Outcome {
        let mut hist = LatencyHistogram::new();
        hist.record(30_000);
        let mut rep = Rep::new(
            9,
            4,
            3,
            Duration::from_secs(1),
            Duration::from_millis(5),
            hist.snapshot(),
        );
        rep.failures.push("1 version regressions".into());
        rep.steal_share = 0.2;
        let mut o = Outcome::new(Workload::NetOpen);
        o.absorb(&rep);
        o.reps.push(rep);
        o.layers.push(("net.batch_factor", "ratio", 1.25));
        o
    }

    #[test]
    fn summary_line_has_exactly_the_four_keys_and_every_metric() {
        let line = summary_line(&[outcome()]);
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "ops_s",
                "p50_us",
                "slo_miss_index",
                "served_ratio",
                "setup_s",
                "net.batch_factor"
            ]
        );
        let (_, ops) = &metrics[0];
        assert_eq!(ops.get("value").and_then(Json::as_f64), Some(3.0));
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("1/s"));
    }

    #[test]
    fn document_describes_itself_and_flags_stolen_repetitions() {
        let header = Header {
            seed: 9,
            seconds: 20,
            quick: true,
            trace: "0",
        };
        let doc = Json::parse(&document(&header, &[outcome()]).render()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(SCHEMA));
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("quick"));
        assert!(doc.get("git_rev").and_then(Json::as_str).is_some());
        let w = doc.get("workloads[0]").unwrap();
        assert_eq!(w.get("name").and_then(Json::as_str), Some("net-open"));
        assert_eq!(w.get("repetitions[0].steal_flag"), Some(&Json::Bool(true)));
        assert_eq!(
            w.get("end_to_end[3].name").and_then(Json::as_str),
            Some("served_ratio")
        );
        assert_eq!(
            w.get("end_to_end[3].value").and_then(Json::as_f64),
            Some(0.75)
        );
        assert_eq!(
            w.get("end_to_end[0].values[0]").and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            w.get("failures[0]").and_then(Json::as_str),
            Some("seed 9: 1 version regressions")
        );
    }
}
