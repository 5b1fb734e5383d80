//! The reader of `BENCHMARK.json`: the direction and the regression bound of
//! every end-to-end metric, which `compare` judges by.

use netchain_telemetry::Json;

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

/// What `compare` needs of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bound>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

fn items<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("`{key}` is missing or not an array")),
    }
}

fn text(item: &Json, key: &str) -> Result<String, String> {
    item.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("an entry lacks a string `{key}`"))
}

impl Spec {
    pub fn parse(json: &str) -> Result<Spec, String> {
        let doc = Json::parse(json)?;
        let workloads = items(&doc, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = items(&doc, "end_to_end")?
            .iter()
            .map(|m| {
                let better = text(m, "better")?;
                let higher_is_better = match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` is `{other}`")),
                };
                let bound = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .filter(|b| (0.0..=0.25).contains(b))
                    .ok_or("a bound is missing or outside 0..=0.25")?;
                Ok(Bound {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    higher_is_better,
                    bound,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = items(&doc, "per_layer")?
            .iter()
            .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end,
            per_layer,
        })
    }

    pub fn load(path: &str) -> Result<Spec, String> {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Spec::parse(&json).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, END_TO_END, PER_LAYER};

    /// The file the driver reads and the names the code emits must agree:
    /// a metric in one and not the other fails every run.
    #[test]
    fn benchmark_json_lists_exactly_what_the_code_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Spec::load(path).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, workloads);
        let e2e: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|b| (b.name.as_str(), b.unit.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(layers, PER_LAYER);
        let setup = spec
            .end_to_end
            .iter()
            .find(|b| b.name == "setup_s")
            .unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(spec.end_to_end.iter().all(|b| b.bound <= setup.bound));
    }

    #[test]
    fn rejects_a_bound_over_a_quarter_and_an_unknown_direction() {
        let doc = |better: &str, bound: &str| {
            format!(
                r#"{{"workloads":[{{"name":"w","why":"x"}}],"per_layer":[],
                "end_to_end":[{{"name":"m","unit":"s","better":"{better}","bound":{bound}}}]}}"#
            )
        };
        assert!(Spec::parse(&doc("lower", "0.1")).is_ok());
        assert!(Spec::parse(&doc("lower", "0.3")).is_err());
        assert!(Spec::parse(&doc("sideways", "0.1")).is_err());
        assert!(Spec::parse("{}").is_err());
    }
}
