//! The telemetry overhead guard: measures the fabric's capacity fast path
//! with tracing disabled (the default) against the same run with in-band
//! trace sampling enabled, and asserts the disabled path costs nothing.
//!
//! Tracing off is the shipping configuration: the only residue of the
//! telemetry layer on the hot path is one branch per wave group, so the
//! throughput delta between an untraced run and the pre-telemetry fabric
//! must be indistinguishable from run-to-run noise. The guard measures that
//! noise explicitly (off-vs-off) and then bounds the off-vs-on delta, so a
//! future change that accidentally drags stamping into the untraced path
//! fails CI instead of quietly taxing every run.

use netchain_fabric::{run_capacity, FabricConfig, WorkloadSpec};
use netchain_telemetry::{ArtifactWriter, Json, TraceConfig};

/// Shape of one overhead measurement.
#[derive(Debug, Clone, Copy)]
pub struct OverheadParams {
    /// Worker shards.
    pub shards: usize,
    /// Operations per run.
    pub ops: u64,
    /// Distinct keys.
    pub num_keys: u64,
    /// Interleaved rounds per configuration (the median is reported).
    pub rounds: usize,
    /// Maximum tolerated relative slowdown of the traced run, e.g. `0.02`.
    pub max_delta: f64,
}

impl Default for OverheadParams {
    fn default() -> Self {
        OverheadParams {
            shards: 4,
            ops: 200_000,
            num_keys: 1024,
            rounds: 5,
            max_delta: 0.02,
        }
    }
}

impl OverheadParams {
    /// A fast CI configuration. The threshold is loose: a smoke run is too
    /// short to resolve 2%, so it only guards against gross regressions.
    pub fn smoke() -> Self {
        OverheadParams {
            shards: 2,
            ops: 30_000,
            rounds: 3,
            max_delta: 0.25,
            ..Default::default()
        }
    }
}

/// The measured medians and the derived deltas.
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Median aggregate ops/sec with tracing disabled.
    pub off_ops_per_sec: f64,
    /// Median aggregate ops/sec with tracing enabled (1 in 256 sampled).
    pub on_ops_per_sec: f64,
    /// Relative slowdown of the traced run: `1 - on/off` (negative when the
    /// traced run happened to be faster — pure noise).
    pub delta: f64,
    /// Relative spread of the disabled runs (max/min - 1): the noise floor
    /// the delta should be judged against.
    pub off_noise: f64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Runs the interleaved off/on measurement and returns the report.
pub fn measure(params: OverheadParams) -> OverheadReport {
    assert!(params.rounds > 0);
    let workload = WorkloadSpec::mixed(params.num_keys, params.ops, 50, 40);
    let off_config = FabricConfig::new(params.shards);
    let on_config = FabricConfig::new(params.shards).with_trace(TraceConfig::sampled(8, 4096));
    let mut off = Vec::new();
    let mut on = Vec::new();
    // Interleave so slow drift (thermal, other tenants) hits both equally.
    for _ in 0..params.rounds {
        off.push(run_capacity(off_config, workload).aggregate_ops_per_sec);
        on.push(run_capacity(on_config, workload).aggregate_ops_per_sec);
    }
    let off_min = off.iter().copied().fold(f64::INFINITY, f64::min);
    let off_max = off.iter().copied().fold(0.0, f64::max);
    let off_med = median(off);
    let on_med = median(on);
    OverheadReport {
        off_ops_per_sec: off_med,
        on_ops_per_sec: on_med,
        delta: 1.0 - on_med / off_med.max(1e-9),
        off_noise: off_max / off_min.max(1e-9) - 1.0,
    }
}

/// The `telemetry_overhead` CLI entry point: measures, prints, exports the
/// artifact, and asserts the bound. `--smoke` runs a short configuration
/// with a loose threshold (CI).
pub fn run_cli(args: &[String]) -> i32 {
    let smoke = args.iter().any(|a| a == "--smoke");
    let params = if smoke {
        OverheadParams::smoke()
    } else {
        OverheadParams::default()
    };
    let report = measure(params);
    println!(
        "telemetry overhead: tracing off {:.0} ops/s | tracing on (1/256 sampled) {:.0} ops/s | \
         delta {:+.2}% | off-run noise {:.2}%",
        report.off_ops_per_sec,
        report.on_ops_per_sec,
        report.delta * 100.0,
        report.off_noise * 100.0,
    );
    let mut artifact = ArtifactWriter::new("telemetry_overhead");
    artifact.record(
        "summary",
        vec![
            ("shards", Json::U64(params.shards as u64)),
            ("ops", Json::U64(params.ops)),
            ("rounds", Json::U64(params.rounds as u64)),
            ("off_ops_per_sec", Json::F64(report.off_ops_per_sec)),
            ("on_ops_per_sec", Json::F64(report.on_ops_per_sec)),
            ("delta", Json::F64(report.delta)),
            ("off_noise", Json::F64(report.off_noise)),
            ("max_delta", Json::F64(params.max_delta)),
        ],
    );
    if let Some(path) = artifact.write() {
        println!("artifact: {}", path.display());
    }
    assert!(
        report.delta < params.max_delta,
        "sampled tracing costs {:.2}% > {:.2}% budget (off noise {:.2}%)",
        report.delta * 100.0,
        params.max_delta * 100.0,
        report.off_noise * 100.0,
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_positive_rates_and_finite_delta() {
        let report = measure(OverheadParams {
            shards: 1,
            ops: 5_000,
            num_keys: 128,
            rounds: 1,
            max_delta: 1.0,
        });
        assert!(report.off_ops_per_sec > 0.0);
        assert!(report.on_ops_per_sec > 0.0);
        assert!(report.delta.is_finite());
    }
}
