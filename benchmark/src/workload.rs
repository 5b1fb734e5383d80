//! The four workloads, the metric names, and what one repetition yields.
//!
//! `BENCHMARK.json` at the root of the repository lists the same names with
//! their direction and bound; a unit test keeps the two in step.

use crate::stats;
use netchain_telemetry::HistSnapshot;
use std::time::Duration;

/// The workloads, in the order a full run interleaves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, window 64, uniform reads: the client and the rings do
    /// most of the work.
    FabricRead,
    /// Same fabric, 50 % read / 40 % write / 10 % CAS: the shard is the
    /// bottleneck.
    FabricWrite,
    /// Loopback UDP, open loop at 20 k ops/s: one or two datagrams per
    /// syscall, kernel-bound.
    NetOpen,
    /// Kill, detection, fast failover and group-by-group repair under load.
    Failover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FabricRead,
        Workload::FabricWrite,
        Workload::NetOpen,
        Workload::Failover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricRead => "fabric-read",
            Workload::FabricWrite => "fabric-write",
            Workload::NetOpen => "net-open",
            Workload::Failover => "failover",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the load waits for replies. A closed loop's rate is what the
    /// system achieves and moves with the host; an open loop's is what was
    /// offered, and its samples scatter around that with the Poisson draw.
    pub fn closed_loop(self) -> bool {
        self != Workload::NetOpen
    }

    /// The latency limit `slo_miss_index` counts against.
    pub fn slo_limit(self) -> Duration {
        match self {
            Workload::FabricRead | Workload::FabricWrite => Duration::from_micros(250),
            Workload::Failover => Duration::from_millis(1),
            // Far enough above the host's scheduling noise (3–6 % of
            // operations take over 1 ms in a bad minute) that what it counts
            // is stalls and retransmissions.
            Workload::NetOpen => Duration::from_millis(10),
        }
    }
}

/// End-to-end metrics, `(name, unit)`, printed by `--trace 0`; see
/// [`end_to_end`] for how samples become the figure.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_s", "1/s"),
    ("p50_us", "us"),
    ("slo_miss_index", "1_plus_share"),
    ("served_ratio", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`, printed by `--trace 1`. A layer a
/// workload does not cross reports 0.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("loadgen.issue_ns", "ns"),
    ("loadgen.absorb_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.reply_copy_ns", "ns"),
    ("wire.parse_ns", "ns"),
    ("ring.push_pop_ns", "ns"),
    ("ring.handoff_p50_ns", "ns"),
    ("switch.hash_ns", "ns"),
    ("switch.probe_ns", "ns"),
    ("shard.burst_ns", "ns"),
    ("shard.execute_ns", "ns"),
    ("shard.waves_per_burst", "ratio"),
    ("shard.frames_per_burst", "ratio"),
    ("ledger.client_ns", "ns"),
    ("ledger.shard_ns", "ns"),
    ("ledger.live_ns", "ns"),
    ("ledger.shard_is_bottleneck", "count"),
    ("ledger.unattributed_share", "share"),
    ("ledger.little_p50_us", "us"),
    ("ledger.live_p50_us", "us"),
    ("net.syscall_send_ns", "ns"),
    ("net.syscall_recv_ns", "ns"),
    ("net.syscall_single_ns", "ns"),
    ("net.worker_ns_per_dgram", "ns"),
    ("net.gen_ns_per_op", "ns"),
    ("net.batch_factor", "ratio"),
    ("net.recv_calls_per_op", "ratio"),
    ("net.recv_fill_le1_share", "share"),
    ("net.retries_per_op", "ratio"),
    ("net.useful_share", "share"),
    ("net.stale_per_op", "ratio"),
    ("net.send_errors", "count"),
    ("net.unrouted", "count"),
    ("openloop.issued_share", "share"),
    ("overload.offered_ops_s", "1/s"),
    ("overload.goodput_ops_s", "1/s"),
    ("overload.slo_miss_share", "share"),
    ("overload.fail_share", "share"),
    ("overload.retries_per_op", "ratio"),
    ("livectl.served_ratio", "ratio"),
    ("livectl.install_us", "us"),
    ("livectl.unavail_ms", "ms"),
    ("livectl.degraded_ratio", "ratio"),
    ("livectl.repair_ratio", "ratio"),
    ("livectl.repair_ms", "ms"),
    ("livectl.retries_per_op", "ratio"),
    ("livectl.blocked", "count"),
    ("livectl.unroutable", "count"),
    ("livectl.anomalies", "count"),
    ("livectl.failover_plan_us", "us"),
    ("livectl.group_sync_us", "us"),
    ("latency.p50_us", "us"),
    ("latency.p90_us", "us"),
    ("latency.p99_us", "us"),
    ("latency.p999_us", "us"),
    ("latency.max_us", "us"),
    ("latency.samples", "count"),
    ("latency.slo_miss_share", "share"),
    ("latency.fail_share", "share"),
    ("telemetry.trace_on_ops_ratio", "ratio"),
    ("telemetry.hist_record_ns", "ns"),
    ("telemetry.audited_ops", "count"),
    ("telemetry.audit_violations", "count"),
    ("telemetry.audit_ignored", "count"),
    ("telemetry.audit_collided_keys", "count"),
    ("bench.span_overhead_ns", "ns"),
    ("bench.spans", "count"),
    ("bench.stepped_ops", "count"),
    ("host.cores", "count"),
    ("host.calib_mops", "1/us"),
    ("host.steal_share", "share"),
    ("host.rep_iqr_share", "share"),
    ("host.live_reps", "count"),
    ("host.live_ops_s", "1/s"),
];

/// One timed repetition of a workload: a fresh system, set up, driven and
/// torn down.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Seed the repetition's op stream was drawn from.
    pub seed: u64,
    /// Operations issued.
    pub issued: u64,
    /// Operations answered.
    pub completed: u64,
    /// The window [`Rep::ops_s`] divides by.
    pub measured: Duration,
    /// Samples of the service rate, in operations per second, that the
    /// `ops_s` metric is drawn from: the repetition's own rate, or, where a
    /// fault is injected, the rate of each time slice before it.
    pub rates: Vec<f64>,
    /// From the call to the system being ready for its first operation.
    pub setup: Duration,
    /// Issue→reply latency of the completed operations.
    pub latency: HistSnapshot,
    /// Operations the workload asked for: what was issued, or, in the
    /// closed loop under a fault (where a stalled system is asked less), what
    /// the pre-fault rate would have issued over the same time.
    pub demanded: f64,
    /// Counts and ratios read off the run's public reports.
    pub layer: Vec<(&'static str, f64)>,
    /// Output checks that failed (empty on a correct repetition).
    pub failures: Vec<String>,
    /// [`crate::host::calib_mops`] taken just before the repetition.
    pub calib_mops: f64,
    /// Share of CPU time stolen by the hypervisor during the repetition.
    pub steal_share: f64,
}

impl Rep {
    /// A repetition that demanded what it issued, with nothing read off the
    /// reports and no check failed yet.
    pub fn new(
        seed: u64,
        issued: u64,
        completed: u64,
        measured: Duration,
        setup: Duration,
        latency: HistSnapshot,
    ) -> Rep {
        Rep {
            seed,
            issued,
            completed,
            measured,
            rates: vec![completed as f64 / measured.as_secs_f64().max(1e-9)],
            setup,
            latency,
            demanded: issued as f64,
            layer: Vec::new(),
            failures: Vec::new(),
            calib_mops: 0.0,
            steal_share: 0.0,
        }
    }

    /// Operations that were never answered: abandoned, or still outstanding
    /// when the drain ended.
    pub fn failed(&self) -> u64 {
        self.issued.saturating_sub(self.completed)
    }

    /// Operations completed per second of the whole repetition.
    pub fn ops_s(&self) -> f64 {
        self.completed as f64 / self.measured.as_secs_f64().max(1e-9)
    }

    pub fn p50_us(&self) -> f64 {
        stats::hist_quantile_ns(&self.latency, 0.5).unwrap_or(0.0) / 1e3
    }

    pub fn slo_miss_share(&self, workload: Workload) -> f64 {
        let limit = workload.slo_limit().as_nanos() as u64;
        stats::slo_miss_share(&self.latency, limit, self.issued)
    }

    pub fn served_ratio(&self) -> f64 {
        self.completed as f64 / self.demanded.max(1e-9)
    }

    pub fn fail_share(&self) -> f64 {
        self.failed() as f64 / self.issued.max(1) as f64
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Repetitions whose stolen-CPU share exceeds this are flagged in the
/// output (kept, not dropped).
pub const STEAL_FLAG: f64 = 0.05;

/// One end-to-end metric of one invocation.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    /// The figure reported and gated.
    pub value: f64,
    /// The samples it is drawn from.
    pub samples: Vec<f64>,
}

/// Every end-to-end metric, in [`END_TO_END`] order. A closed loop's `ops_s`
/// and every `p50_us` move with the host, so their figure is the calm-host
/// edge of the samples; the shares, the ratio, the set-up time and the open
/// loop's rate are medians over repetitions.
pub fn end_to_end(workload: Workload, reps: &[Rep]) -> Vec<Row> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let samples: [Vec<f64>; 5] = [
        reps.iter().flat_map(|r| r.rates.iter().copied()).collect(),
        per_rep(&Rep::p50_us),
        per_rep(&|r| 1.0 + r.slo_miss_share(workload)),
        per_rep(&Rep::served_ratio),
        per_rep(&|r| r.setup.as_secs_f64()),
    ];
    END_TO_END
        .iter()
        .zip(samples)
        .map(|(&(name, unit), samples)| {
            let value = match name {
                "ops_s" if workload.closed_loop() => stats::calm(&samples, true),
                "p50_us" => stats::calm(&samples, false),
                _ => stats::median(&samples),
            };
            Row {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_telemetry::LatencyHistogram;

    fn rep(completed: u64, issued: u64, secs: f64, lat_ns: u64) -> Rep {
        let mut h = LatencyHistogram::new();
        for _ in 0..completed {
            h.record(lat_ns);
        }
        Rep::new(
            1,
            issued,
            completed,
            Duration::from_secs_f64(secs),
            Duration::from_millis(10),
            h.snapshot(),
        )
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("net-overload"), None);
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
    }

    #[test]
    fn rates_and_latency_are_calm_figures_the_rest_medians() {
        // Two fast repetitions and one that took twice as long; ten ops of
        // the slow one were never answered.
        let reps = [
            rep(1000, 1000, 1.0, 40_000),
            rep(1000, 1000, 1.0, 40_000),
            rep(990, 1000, 2.0, 400_000),
        ];
        let e2e = end_to_end(Workload::FabricRead, &reps);
        let value = |name: &str| e2e.iter().find(|r| r.name == name).unwrap().value;
        assert_eq!(value("ops_s"), 1000.0);
        assert_eq!(e2e[0].samples, [1000.0, 1000.0, 495.0]);
        assert_eq!(value("served_ratio"), 1.0);
        assert_eq!(reps[2].served_ratio(), 0.99);
        // The median repetition missed nothing; the slow one missed all.
        assert_eq!(value("slo_miss_index"), 1.0);
        assert_eq!(reps[2].slo_miss_share(Workload::FabricRead), 1.0);
        assert_eq!(reps[2].failed(), 10);
        assert!((value("setup_s") - 0.010).abs() < 1e-12);
        assert!((value("p50_us") - 40.0).abs() / 40.0 < 0.04);
        // One slow repetition in two drags a median, not the calm figure.
        let half_slow = [reps[0].clone(), reps[2].clone()];
        let e2e = end_to_end(Workload::FabricRead, &half_slow);
        assert_eq!(e2e[0].value, 1000.0);
        assert!((e2e[1].value - 40.0).abs() / 40.0 < 0.04);
        // The open loop's rate is a median like the rest.
        let e2e = end_to_end(Workload::NetOpen, &half_slow);
        assert_eq!(e2e[0].value, (1000.0 + 495.0) / 2.0);
    }

    #[test]
    fn under_a_fault_demand_is_the_pre_fault_rate() {
        let mut r = rep(1500, 1500, 3.0, 50_000);
        r.demanded = 1000.0 * 3.0;
        // The rate samples are the slices before the fault, not the run's.
        r.rates = vec![990.0, 1000.0, 1010.0];
        let e2e = end_to_end(Workload::Failover, &[r]);
        assert_eq!(e2e[3].name, "served_ratio");
        assert!((e2e[3].value - 0.5).abs() < 1e-9);
        assert_eq!((e2e[0].name, e2e[0].value), ("ops_s", 1010.0));
    }
}
