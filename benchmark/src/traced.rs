//! The traced invocation (`--trace 1`): everything that yields per-layer
//! metrics. End-to-end numbers never come from here.
//!
//! Each workload's recipe spends its time budget on, in order: a few
//! untraced live repetitions (counts off the public reports, and the live
//! figures the ledger is held against), one live repetition with in-band
//! tracing on (audited), the probes particular to the mode, and the
//! single-thread stepped pass that records the spans.

use crate::report::Outcome;
use crate::spans::{span_overhead_ns, Spans};
use crate::stats::{self, Quartiles};
use crate::workload::{Rep, Workload, PER_LAYER};
use crate::{fabric, failover, host, net, rep_seed, timed_rep};
use netchain_telemetry::HistSnapshot;
use std::time::{Duration, Instant};

/// Values by per-layer name; whatever a recipe does not set stays 0, which
/// reads "this workload does not cross that layer".
struct Layers(Vec<(&'static str, &'static str, f64)>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(n, u)| (n, u, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        slot.2 = value;
    }

    fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.set(name, value);
        }
    }
}

/// Median of each count the repetitions read off their reports.
fn median_counts(reps: &[Rep]) -> Vec<(&'static str, f64)> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .layer
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.layer.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            (name, stats::median(&values))
        })
        .collect()
}

/// Runs `workload`'s recipe within `budget` and fills `outcome.layers`.
pub fn run(
    workload: Workload,
    seed: u64,
    budget: Duration,
    quick: bool,
    outcome: &mut Outcome,
    spans_out: &mut impl std::io::Write,
) -> std::io::Result<()> {
    let started = Instant::now();
    let mut layers = Layers::new();
    let mut spans = Spans::new();

    // 1. Untraced live repetitions.
    let live_until = started
        + budget.mul_f64(match workload {
            Workload::FabricRead | Workload::FabricWrite => 0.30,
            Workload::NetOpen => 0.35,
            Workload::Failover => 0.45,
        });
    let mut reps: Vec<Rep> = Vec::new();
    let mut last = Duration::ZERO;
    while reps.is_empty() || (!quick && Instant::now() + last < live_until) {
        let t = Instant::now();
        let rep = timed_rep(workload, rep_seed(seed, reps.len()), quick);
        last = t.elapsed();
        outcome.absorb(&rep);
        reps.push(rep);
    }
    let rates: Vec<f64> = reps.iter().map(Rep::ops_s).collect();
    let live = Quartiles::of(&rates).expect("at least one repetition ran");
    // What the ledger is held against: the live figures at their calm-host
    // edge, like the end-to-end rows, because the stepped pass runs on one
    // thread and hardly feels the neighbours that slow two spinning ones.
    let rate_samples: Vec<f64> = reps.iter().flat_map(|r| r.rates.iter().copied()).collect();
    let calm_ops_s = stats::calm(&rate_samples, true);
    let calm_p50 = stats::calm(&reps.iter().map(Rep::p50_us).collect::<Vec<_>>(), false);
    let merged = HistSnapshot::merged(reps.iter().map(|r| &r.latency));
    let us = |q: f64| stats::hist_quantile_ns(&merged, q).unwrap_or(0.0) / 1e3;
    let med = |f: &dyn Fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    layers.extend(median_counts(&reps));
    layers.extend([
        ("latency.p50_us", us(0.5)),
        ("latency.p90_us", us(0.9)),
        ("latency.p99_us", us(0.99)),
        ("latency.p999_us", us(0.999)),
        ("latency.max_us", merged.max().unwrap_or(0) as f64 / 1e3),
        ("latency.samples", merged.count() as f64),
        (
            "latency.slo_miss_share",
            med(&|r| r.slo_miss_share(workload)),
        ),
        ("latency.fail_share", med(&Rep::fail_share)),
        ("host.cores", host::cores() as f64),
        ("host.calib_mops", med(&|r| r.calib_mops)),
        ("host.steal_share", med(&|r| r.steal_share)),
        ("host.rep_iqr_share", live.iqr_share()),
        ("host.live_reps", reps.len() as f64),
        ("host.live_ops_s", live.median),
    ]);

    // 2–3. Traced live repetition and the mode's probes.
    let trace_seed = rep_seed(seed, 9_999);
    match workload {
        Workload::FabricRead | Workload::FabricWrite => {
            let (ops_s, verdict) = fabric::traced_live(workload, trace_seed, quick);
            layers.extend(verdict.layer());
            outcome.failures.extend(verdict.failures);
            let (handoff, failures) = fabric::handoff_p50_ns(workload, trace_seed, quick);
            outcome.failures.extend(failures);
            layers.extend([
                ("telemetry.trace_on_ops_ratio", ops_s / live.median),
                ("ring.handoff_p50_ns", handoff),
            ]);
        }
        Workload::NetOpen => {
            let verdict = net::traced_live(trace_seed, quick);
            layers.extend(verdict.layer());
            outcome.failures.extend(verdict.failures);
            layers.set("net.syscall_single_ns", net::syscall_single_ns(quick));
            let (probe, failures) = net::overload_probe(trace_seed, quick);
            outcome.failures.extend(failures);
            layers.extend(probe);
        }
        Workload::Failover => {
            let rep = failover::traced_live(trace_seed, quick);
            outcome.absorb(&rep);
            layers.set("telemetry.trace_on_ops_ratio", rep.ops_s() / live.median);
            let (control, failures) =
                failover::control_plane(&mut spans, if quick { 1 } else { 5 });
            outcome.failures.extend(failures);
            layers.extend(control);
        }
    }

    // 4. The stepped pass, for whatever is left of the budget (but never
    // nothing: a late start still steps a little).
    let now = Instant::now();
    let deadline = if quick {
        now + Duration::from_secs(1)
    } else {
        (started + budget).max(now + budget.mul_f64(0.05))
    };
    let (stepped_ops, failures) = match workload {
        Workload::NetOpen => {
            let out = net::stepped_pass(net::spec(seed), deadline, &mut spans);
            layers.extend(net::layer_metrics(&spans));
            out
        }
        _ => {
            let spec = fabric::spec(workload, seed, u64::MAX);
            let out = fabric::stepped_pass(spec, deadline, &mut spans);
            layers.extend(fabric::ledger(&spans, calm_ops_s, calm_p50, spec.window));
            out
        }
    };
    outcome.failures.extend(failures);

    // 5. What watching costs.
    layers.extend([
        ("telemetry.hist_record_ns", fabric::hist_record_ns()),
        ("bench.span_overhead_ns", span_overhead_ns()),
        ("bench.spans", spans.recorded() as f64),
        ("bench.stepped_ops", stepped_ops as f64),
    ]);
    spans.write_jsonl(spans_out, workload.name())?;
    outcome.layers = layers.0;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn an_unlisted_layer_name_is_a_bug() {
        Layers::new().set("shard.typo_ns", 1.0);
    }

    #[test]
    fn unset_layers_read_zero() {
        let mut layers = Layers::new();
        layers.set("net.batch_factor", 1.5);
        assert_eq!(layers.0.len(), PER_LAYER.len());
        let value = |name: &str| layers.0.iter().find(|l| l.0 == name).unwrap().2;
        assert_eq!(value("net.batch_factor"), 1.5);
        assert_eq!(value("ring.push_pop_ns"), 0.0);
    }
}
