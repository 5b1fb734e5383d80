//! `compare A.json B.json`: one row per workload and end-to-end metric of two
//! result documents, judged by the bounds in `BENCHMARK.json`.

use crate::spec::{Bound, Spec};
use crate::stats::Quartiles;
use netchain_telemetry::Json;

/// One document's side of a row: the figure reported and the quartiles of the
/// samples it was drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub samples: Quartiles,
}

/// The verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's figure is within the bound of A's, and both are known more
    /// narrowly than the bound.
    Ok,
    /// B's figure is worse than A's by more than the bound.
    Worse,
    /// The figures agree but one of them is itself uncertain by more than
    /// the bound, so the row cannot show that nothing changed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's figure B is worse (negative: better).
pub fn worse_by(bound: &Bound, a: &Side, b: &Side) -> f64 {
    let delta = (b.value - a.value) / a.value.abs().max(f64::MIN_POSITIVE);
    if bound.higher_is_better {
        -delta
    } else {
        delta
    }
}

pub fn judge(bound: &Bound, a: &Side, b: &Side) -> Verdict {
    if worse_by(bound, a, b) > bound.bound {
        Verdict::Worse
    } else if a.samples.median_spread().max(b.samples.median_spread()) > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    match doc.get("workloads") {
        Some(Json::Arr(items)) => items
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name)),
        _ => None,
    }
}

/// The figure and the sample quartiles of `metric` in one document.
fn side(workload: &Json, metric: &str) -> Option<Side> {
    let Some(Json::Arr(rows)) = workload.get("end_to_end") else {
        return None;
    };
    let row = rows
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(metric))?;
    let field = |key: &str| row.get(key).and_then(Json::as_f64);
    Some(Side {
        value: field("value")?,
        samples: Quartiles {
            q1: field("q1")?,
            median: field("median")?,
            q3: field("q3")?,
            samples: row.get("samples").and_then(Json::as_u64)? as usize,
        },
    })
}

/// One judged row.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Side,
    pub b: Side,
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Every (workload, end-to-end metric) both documents measured.
pub fn rows(spec: &Spec, a: &Json, b: &Json) -> Vec<Row> {
    let mut out = Vec::new();
    for name in &spec.workloads {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            continue;
        };
        for bound in &spec.end_to_end {
            let (Some(sa), Some(sb)) = (side(wa, &bound.name), side(wb, &bound.name)) else {
                continue;
            };
            out.push(Row {
                workload: name.clone(),
                metric: bound.name.clone(),
                a: sa,
                b: sb,
                worse_by: worse_by(bound, &sa, &sb),
                bound: bound.bound,
                verdict: judge(bound, &sa, &sb),
            });
        }
    }
    out
}

/// Runs the subcommand; `Ok(true)` when no row is `worse`.
pub fn run(spec_path: &str, a_path: &str, b_path: &str) -> Result<bool, String> {
    let spec = Spec::load(spec_path)?;
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let rows = rows(&spec, &a, &b);
    if rows.is_empty() {
        return Err("the two documents share no workload with end-to-end metrics".into());
    }
    println!(
        "{:<13} {:<15} {:>13} {:>23} {:>13} {:>23} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "A",
        "A samples [q1, q3]",
        "B",
        "B samples [q1, q3]",
        "worse by",
        "bound"
    );
    for r in &rows {
        println!(
            "{:<13} {:<15} {:>13.4} {:>23} {:>13.4} {:>23} {:>+9.4} {:>6.3}  {}",
            r.workload,
            r.metric,
            r.a.value,
            format!("[{:.4}, {:.4}]", r.a.samples.q1, r.a.samples.q3),
            r.b.value,
            format!("[{:.4}, {:.4}]", r.b.samples.q1, r.b.samples.q3),
            r.worse_by,
            r.bound,
            r.verdict.label()
        );
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound,
        }
    }

    fn tight(value: f64) -> Side {
        Side {
            value,
            samples: Quartiles {
                median: value,
                q1: value * 0.99,
                q3: value * 1.01,
                samples: 9,
            },
        }
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        let throughput = bound(true, 0.10);
        assert_eq!(judge(&throughput, &tight(100.0), &tight(95.0)), Verdict::Ok);
        assert_eq!(
            judge(&throughput, &tight(100.0), &tight(85.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&throughput, &tight(100.0), &tight(150.0)),
            Verdict::Ok
        );
        let latency = bound(false, 0.10);
        assert_eq!(judge(&latency, &tight(100.0), &tight(85.0)), Verdict::Ok);
        assert_eq!(
            judge(&latency, &tight(100.0), &tight(115.0)),
            Verdict::Worse
        );
        assert!((worse_by(&latency, &tight(100.0), &tight(115.0)) - 0.15).abs() < 1e-12);
        assert!((worse_by(&throughput, &tight(100.0), &tight(115.0)) + 0.15).abs() < 1e-12);
    }

    #[test]
    fn a_median_less_certain_than_the_bound_is_unresolved_not_ok() {
        // Four repetitions spread over 44 % of their median: the median is
        // good to 22 %.
        let spread = |samples: usize| Side {
            value: 100.0,
            samples: Quartiles {
                median: 100.0,
                q1: 80.0,
                q3: 124.0,
                samples,
            },
        };
        let wide = spread(4);
        let b = bound(true, 0.10);
        // The same spread over a hundred repetitions pins it to 4.4 %.
        let many = spread(100);
        assert_eq!(judge(&b, &tight(100.0), &many), Verdict::Ok);
        assert_eq!(judge(&b, &tight(100.0), &wide), Verdict::Unresolved);
        assert_eq!(judge(&b, &wide, &tight(100.0)), Verdict::Unresolved);
        // A regression beyond the bound is still a regression.
        assert_eq!(judge(&b, &wide, &tight(80.0)), Verdict::Worse);
    }

    #[test]
    fn rows_pair_the_documents_by_workload_and_metric() {
        let spec = Spec {
            workloads: vec!["fabric-read".into(), "failover".into()],
            end_to_end: vec![bound(true, 0.10)],
            per_layer: Vec::new(),
        };
        let doc = |median: f64| {
            Json::parse(&format!(
                r#"{{"workloads":[{{"name":"fabric-read","end_to_end":
                [{{"name":"m","value":{median},"median":{median},"q1":{median},"q3":{median},"samples":5}}]}}]}}"#
            ))
            .unwrap()
        };
        let rows = rows(&spec, &doc(10.0), &doc(8.0));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].workload, "fabric-read");
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!((rows[0].worse_by - 0.2).abs() < 1e-12);
    }
}
