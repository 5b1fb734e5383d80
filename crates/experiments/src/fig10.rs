//! Figure 10: failure handling — the throughput time series of one client
//! while a chain switch fails, fast failover kicks in, and failure recovery
//! copies state to a replacement switch, with 1 vs 100 virtual groups.
//!
//! The experiment mirrors §8.4: a three-switch chain over S0–S2 with S3 held
//! out of the ring as the replacement, a 50 % write workload from H0, failure
//! injected at t = 20 s, recovery starting ~20 s later and taking
//! `sync_duration` in total. The offered load is scaled down (the paper
//! drives 20.5 MQPS; simulating that packet by packet is pointless), so the
//! series is reported both in absolute scaled QPS and normalised to the
//! pre-failure plateau — the *shape* is the reproduction target.

use crate::series::Series;
use netchain_core::{ClusterConfig, FaultOp, NetChainCluster, Reactions, Schedule, WorkloadSpec};
use netchain_sim::SimDuration;
use netchain_wire::Ipv4Addr;
use std::time::Duration;

/// Parameters of the failure-handling experiment.
#[derive(Debug, Clone)]
pub struct Fig10Params {
    /// What fails, and when: by default S1 (a middle switch for most chains)
    /// at t = 20 s.
    pub schedule: Schedule,
    /// How the controller reacts: the paper's 10 ms detection, the delay
    /// before recovery starts after failover, the total state-synchronisation
    /// time across all groups, the replacement (S3) and the number of
    /// virtual groups recovery uses (1 for Figure 10(a), 100 for 10(b)).
    pub reactions: Reactions,
    /// Offered load from the observed client, queries per second (scaled).
    pub offered_qps: f64,
    /// Total simulated time.
    pub total: SimDuration,
}

impl Fig10Params {
    /// The paper's timings (failure at 20 s, recovery 20 s later, 150 s of
    /// synchronisation) with recovery in `virtual_groups` groups.
    pub fn paper(virtual_groups: u32) -> Self {
        Self::scaled(virtual_groups, 20, 20, 150, 230)
    }

    /// S1 killed at `fail_at` s, recovery `recovery_delay` s later taking
    /// `sync` s, `total` s in all.
    fn scaled(
        virtual_groups: u32,
        fail_at: u64,
        recovery_delay: u64,
        sync: u64,
        total: u64,
    ) -> Self {
        let kill = FaultOp::Kill(Ipv4Addr::for_switch(1));
        Fig10Params {
            schedule: Schedule::new(0).at(Duration::from_secs(fail_at), kill),
            reactions: Reactions {
                recovery_delay: Duration::from_secs(recovery_delay),
                sync_duration: Duration::from_secs(sync),
                replacement: Some(Ipv4Addr::for_switch(3)),
                recovery_groups: Some(virtual_groups),
                ..ClusterConfig::default().reactions
            },
            offered_qps: 10_000.0,
            total: SimDuration::from_secs(total),
        }
    }

    /// When the first failure is injected, in seconds.
    fn fail_s(&self) -> f64 {
        self.schedule
            .kills()
            .next()
            .map_or(0.0, |(at, _)| at.as_secs_f64())
    }

    fn virtual_groups(&self) -> u32 {
        self.reactions.recovery_groups.unwrap_or(0)
    }
}

/// Runs the experiment and returns the client's completed-query throughput
/// time series: one absolute series ("throughput (QPS)") and one normalised
/// to the pre-failure plateau ("normalised").
pub fn fig10(params: &Fig10Params) -> Vec<Series> {
    let config = ClusterConfig {
        // S0–S2 form the ring; S3 is the spare that replaces the failed
        // switch.
        ring_switches: Some(3),
        reactions: params.reactions,
        ..Default::default()
    };
    let mut cluster = NetChainCluster::testbed(config);
    cluster.populate_store(2_000, 64);
    cluster.install_workload_client(
        0,
        WorkloadSpec::mixed(2_000, u64::MAX, 50, 50),
        params.offered_qps,
        params.total,
        SimDuration::from_secs(1),
    );
    cluster.inject(&params.schedule);
    cluster
        .sim
        .run_for(params.total + SimDuration::from_secs(2));

    let client = cluster.workload_client(0).expect("installed");
    let series = client.throughput().rate_series();
    // Plateau = average rate over the seconds strictly before the failure.
    let fail_s = params.fail_s();
    let plateau: f64 = {
        let before: Vec<f64> = series
            .iter()
            .filter(|(t, _)| *t + 1.0 < fail_s)
            .map(|&(_, r)| r)
            .collect();
        if before.is_empty() {
            1.0
        } else {
            before.iter().sum::<f64>() / before.len() as f64
        }
    };
    let absolute = Series::new(
        format!("throughput (QPS), {} vgroup(s)", params.virtual_groups()),
        series.clone(),
    );
    let normalised = Series::new(
        format!("normalised, {} vgroup(s)", params.virtual_groups()),
        series
            .iter()
            .map(|&(t, r)| (t, if plateau > 0.0 { r / plateau } else { 0.0 }))
            .collect(),
    );
    vec![absolute, normalised]
}

/// Summary statistics extracted from a normalised Figure 10 series, printed
/// by the subcommand and asserted by the tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Summary {
    /// Mean normalised throughput during the recovery window.
    pub recovery_mean: f64,
    /// Minimum normalised throughput right after the failure (before
    /// failover completes).
    pub failover_dip: f64,
    /// Mean normalised throughput after recovery completes.
    pub post_recovery_mean: f64,
}

/// Extracts summary statistics from the normalised series produced by
/// [`fig10`].
pub fn summarise(params: &Fig10Params, normalised: &Series) -> Fig10Summary {
    let fail_s = params.fail_s();
    let recovery_start = fail_s + params.reactions.recovery_delay.as_secs_f64();
    let recovery_end = recovery_start + params.reactions.sync_duration.as_secs_f64();
    let window_mean = |from: f64, to: f64| {
        let values: Vec<f64> = normalised
            .points
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|&(_, v)| v)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    };
    let failover_dip = normalised
        .points
        .iter()
        .filter(|(t, _)| *t >= fail_s && *t < recovery_start)
        .map(|&(_, v)| v)
        .fold(f64::INFINITY, f64::min);
    Fig10Summary {
        recovery_mean: window_mean(recovery_start + 5.0, recovery_end - 5.0),
        failover_dip: if failover_dip.is_finite() {
            failover_dip
        } else {
            0.0
        },
        post_recovery_mean: window_mean(recovery_end + 2.0, params.total.as_secs_f64()),
    }
}

/// CLI entry: `fig10 [--vgroups N]`; without `--vgroups`, 1 then 100.
pub fn run_cli(args: &[String]) -> i32 {
    let vgroups = crate::cli::flag_value(args, "--vgroups").and_then(|v| v.parse::<u32>().ok());
    let runs = match vgroups {
        None | Some(0) => vec![1, 100],
        Some(groups) => vec![groups],
    };
    for groups in runs {
        let params = Fig10Params::paper(groups);
        let series = fig10(&params);
        let summary = summarise(&params, &series[1]);
        crate::print_series(
            &format!("Figure 10: failure handling, {groups} virtual group(s)"),
            "time (s)",
            "client throughput",
            &series,
        );
        println!("summary: {summary:?}\n");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params(vgroups: u32) -> Fig10Params {
        Fig10Params {
            offered_qps: 2_000.0,
            ..Fig10Params::scaled(vgroups, 3, 3, 12, 24)
        }
    }

    #[test]
    fn one_virtual_group_halves_throughput_during_recovery() {
        let params = small_params(1);
        let series = fig10(&params);
        let summary = summarise(&params, &series[1]);
        // 50 % writes all blocked during the single group's sync: the mean
        // normalised throughput during recovery should sit near 0.5.
        assert!(
            summary.recovery_mean < 0.75,
            "expected a large drop, got {summary:?}"
        );
        assert!(
            summary.post_recovery_mean > 0.8,
            "throughput must recover, got {summary:?}"
        );
    }

    #[test]
    fn many_virtual_groups_barely_dent_throughput() {
        let params = small_params(50);
        let series = fig10(&params);
        let summary = summarise(&params, &series[1]);
        assert!(
            summary.recovery_mean > 0.9,
            "with many virtual groups recovery should be almost invisible, got {summary:?}"
        );
    }
}
