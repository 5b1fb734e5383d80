//! Figure 9: throughput, latency and scalability of NetChain vs the
//! server-based baseline.
//!
//! * (a) throughput vs value size, (b) vs store size, (c) vs write ratio —
//!   NetChain lines come from the capacity model (they are client-bound at
//!   82 MQPS on the testbed, exactly as measured in the paper), the baseline
//!   from the calibrated analytic model.
//! * (d) throughput vs packet loss rate — NetChain simulated packet by packet
//!   at a scaled offered load and reported as goodput fraction × the
//!   loss-free plateau; ZooKeeper modelled by [`zk::zk_loss_qps`] (the
//!   retransmit stalls of an in-order transport).
//! * (e) latency vs throughput — NetChain simulated packet by packet, plus the
//!   calibrated client-stack delay; ZooKeeper modelled by
//!   [`zk::zk_load_point`] (server queueing below and past saturation).
//! * (f) scalability on spine–leaf fabrics — capacity model, the same method
//!   the paper's own §8.3 simulator uses.

use crate::calib;
use crate::capacity::CapacityModel;
use crate::series::{print_series, Series};
use crate::zk::{self, ServerCostModel};
use netchain_core::{ClusterConfig, NetChainCluster, WorkloadConfig};
use netchain_sim::{LinkParams, SimDuration};
use netchain_switch::PipelineConfig;

fn testbed_cluster() -> NetChainCluster {
    NetChainCluster::testbed(ClusterConfig::default())
}

fn netchain_plateau_qps(
    cluster: &NetChainCluster,
    write_ratio: f64,
    passes: usize,
    servers: usize,
) -> f64 {
    let model = CapacityModel {
        switch_pps: calib::SWITCH_PPS,
        client_injection_qps: 0.0,
    };
    let switch_bound = model.max_throughput(
        cluster.sim.topology(),
        cluster.sim.routing(),
        cluster.ring(),
        &cluster.layout.switches,
        &cluster.layout.hosts,
        write_ratio,
        passes,
    );
    switch_bound.min(calib::CLIENT_INJECTION_QPS * servers as f64)
}

/// Figure 9(a): throughput vs value size (bytes).
pub fn fig9a(value_sizes: &[usize]) -> Vec<Series> {
    let cluster = testbed_cluster();
    let pipeline = PipelineConfig::tofino_prototype();
    let zk_qps = zk::zk_saturation_qps(&ServerCostModel::zookeeper_calibrated(), 3, 0.01);
    let mut series: Vec<Series> = Vec::new();
    for servers in 1..=4 {
        let points = value_sizes
            .iter()
            .map(|&size| {
                let passes = pipeline.passes_for_value(size);
                (
                    size as f64,
                    netchain_plateau_qps(&cluster, 0.01, passes, servers),
                )
            })
            .collect();
        series.push(Series::new(format!("NetChain({servers})"), points));
    }
    let max_points = value_sizes
        .iter()
        .map(|&size| {
            let passes = pipeline.passes_for_value(size);
            let model = CapacityModel {
                switch_pps: calib::SWITCH_PPS,
                client_injection_qps: 0.0,
            };
            (
                size as f64,
                model.max_throughput(
                    cluster.sim.topology(),
                    cluster.sim.routing(),
                    cluster.ring(),
                    &cluster.layout.switches,
                    &cluster.layout.hosts,
                    0.01,
                    passes,
                ),
            )
        })
        .collect();
    series.push(Series::new("NetChain(max)", max_points));
    series.push(Series::new(
        "ZooKeeper",
        value_sizes.iter().map(|&s| (s as f64, zk_qps)).collect(),
    ));
    series
}

/// Figure 9(b): throughput vs store size (number of key-value items).
pub fn fig9b(store_sizes: &[u64]) -> Vec<Series> {
    let cluster = testbed_cluster();
    let pipeline = PipelineConfig::tofino_prototype();
    let zk_qps = zk::zk_saturation_qps(&ServerCostModel::zookeeper_calibrated(), 3, 0.01);
    let capacity_items = pipeline.slots_per_stage as u64;
    let mut series: Vec<Series> = Vec::new();
    for servers in 1..=4 {
        let plateau = netchain_plateau_qps(&cluster, 0.01, 1, servers);
        let points = store_sizes
            .iter()
            .map(|&n| {
                // Store sizes beyond the provisioned slots cannot be installed;
                // within the provisioned range throughput is flat (on-chip
                // lookups are O(1)).
                let y = if n <= capacity_items { plateau } else { 0.0 };
                (n as f64, y)
            })
            .collect();
        series.push(Series::new(format!("NetChain({servers})"), points));
    }
    series.push(Series::new(
        "NetChain(max)",
        store_sizes
            .iter()
            .map(|&n| {
                let y = if n <= capacity_items {
                    netchain_plateau_qps(&cluster, 0.01, 1, usize::MAX / 2)
                } else {
                    0.0
                };
                (n as f64, y)
            })
            .collect(),
    ));
    series.push(Series::new(
        "ZooKeeper",
        store_sizes.iter().map(|&n| (n as f64, zk_qps)).collect(),
    ));
    series
}

/// Figure 9(c): throughput vs write ratio (fraction of writes, 0–1).
pub fn fig9c(write_ratios: &[f64]) -> Vec<Series> {
    let cluster = testbed_cluster();
    let cost = ServerCostModel::zookeeper_calibrated();
    let mut series: Vec<Series> = Vec::new();
    for servers in 1..=4 {
        let points = write_ratios
            .iter()
            .map(|&w| (w * 100.0, netchain_plateau_qps(&cluster, w, 1, servers)))
            .collect();
        series.push(Series::new(format!("NetChain({servers})"), points));
    }
    series.push(Series::new(
        "NetChain(max)",
        write_ratios
            .iter()
            .map(|&w| {
                (
                    w * 100.0,
                    netchain_plateau_qps(&cluster, w, 1, usize::MAX / 2),
                )
            })
            .collect(),
    ));
    series.push(Series::new(
        "ZooKeeper",
        write_ratios
            .iter()
            .map(|&w| (w * 100.0, zk::zk_saturation_qps(&cost, 3, w)))
            .collect(),
    ));
    series
}

/// Figure 9(d): throughput vs packet loss rate (fraction, e.g. 0.01 = 1 %).
///
/// NetChain is measured with the packet-level simulator; `sim_duration`
/// bounds the simulated time per point (the `fig9` subcommand uses 200 ms).
pub fn fig9d(loss_rates: &[f64], sim_duration: SimDuration) -> Vec<Series> {
    let cost = ServerCostModel::zookeeper_calibrated();
    let mut netchain_points = Vec::new();
    let mut zookeeper_points = Vec::new();
    for &loss in loss_rates {
        // --- NetChain: goodput fraction at a scaled offered load. ---
        let config = ClusterConfig {
            link: LinkParams::datacenter_40g().with_loss(loss),
            ..Default::default()
        };
        let mut cluster = NetChainCluster::testbed(config);
        cluster.populate_store(1_000, 64);
        let offered_per_client = 50_000.0;
        for host in 0..4 {
            cluster.install_workload_client(
                host,
                WorkloadConfig {
                    duration: sim_duration,
                    rate_qps: offered_per_client,
                    write_ratio: 0.01,
                    num_keys: 1_000,
                    throughput_bucket: sim_duration,
                    ..Default::default()
                },
            );
        }
        cluster
            .sim
            .run_for(sim_duration + SimDuration::from_millis(50));
        let mut issued = 0u64;
        let mut completed = 0u64;
        for host in 0..4 {
            let client = cluster.workload_client(host).expect("installed");
            issued += client.issued();
            completed += client.agent_stats().completed;
        }
        let goodput_fraction = if issued == 0 {
            0.0
        } else {
            completed as f64 / issued as f64
        };
        let plateau = calib::CLIENT_INJECTION_QPS * 4.0;
        netchain_points.push((loss * 100.0, plateau * goodput_fraction));

        zookeeper_points.push((loss * 100.0, zk::zk_loss_qps(&cost, loss)));
    }
    vec![
        Series::new("NetChain(4)", netchain_points),
        Series::new("ZooKeeper", zookeeper_points),
    ]
}

/// Figure 9(e): latency vs throughput. Returns (NetChain read/write,
/// ZooKeeper read, ZooKeeper write) series with x = delivered QPS and
/// y = latency in µs.
pub fn fig9e(sim_duration: SimDuration) -> Vec<Series> {
    // --- NetChain: latency is flat until saturation; measure at a few
    // offered loads on the simulated testbed and add the calibrated
    // client-stack delay. ---
    let mut netchain_points = Vec::new();
    for &rate in &[1_000.0, 10_000.0, 50_000.0, 200_000.0] {
        let mut cluster = NetChainCluster::testbed(ClusterConfig::default());
        cluster.populate_store(1_000, 64);
        cluster.install_workload_client(
            0,
            WorkloadConfig {
                duration: sim_duration,
                rate_qps: rate,
                write_ratio: 0.5,
                num_keys: 1_000,
                throughput_bucket: sim_duration,
                ..Default::default()
            },
        );
        cluster
            .sim
            .run_for(sim_duration + SimDuration::from_millis(10));
        let host = cluster.layout.hosts[0];
        let client = cluster
            .sim
            .node_as::<netchain_core::WorkloadClient>(host)
            .expect("installed");
        let completed = client.agent_stats().completed;
        let reads = client.read_latency();
        let fabric_latency = if reads.count() > 0 {
            reads.mean()
        } else {
            client.write_latency().mean()
        } / 1e3;
        let latency = fabric_latency + calib::NETCHAIN_CLIENT_LATENCY.as_micros_f64();
        // Report the x axis at the *unscaled* equivalent: the measured point
        // demonstrates flatness; the plateau comes from Figure 9(a-c).
        netchain_points.push((completed as f64 / sim_duration.as_secs_f64(), latency));
    }

    // --- ZooKeeper: the queueing model at increasing offered load. ---
    let cost = ServerCostModel::zookeeper_calibrated();
    let mut zk_read_points = Vec::new();
    let mut zk_write_points = Vec::new();
    for &rate in &[1_000.0, 5_000.0, 20_000.0, 80_000.0, 200_000.0] {
        let (delivered, read_us, write_us) = zk::zk_load_point(&cost, rate, sim_duration);
        zk_read_points.push((delivered, read_us));
        zk_write_points.push((delivered, write_us));
    }
    vec![
        Series::new("NetChain (read/write)", netchain_points),
        Series::new("ZooKeeper (read)", zk_read_points),
        Series::new("ZooKeeper (write)", zk_write_points),
    ]
}

/// Figure 9(f): read-only and write-only saturation throughput (BQPS) of
/// spine–leaf fabrics with the given total switch counts.
pub fn fig9f(switch_counts: &[usize]) -> Vec<Series> {
    let mut read_points = Vec::new();
    let mut write_points = Vec::new();
    for &total in switch_counts {
        // Non-blocking fabric: spines = half the leaves (paper §8.3), so a
        // total of n switches splits into n/3 spines and 2n/3 leaves.
        let spines = (total / 3).max(1);
        let leaves = total - spines;
        // Keep the modelled host count moderate: the capacity model samples
        // hosts anyway, and the client bound is disabled here.
        let hosts_per_leaf = 4;
        let config = ClusterConfig {
            vnodes_per_switch: 8,
            ..Default::default()
        };
        let cluster = NetChainCluster::spine_leaf(spines, leaves, hosts_per_leaf, config);
        let model = CapacityModel {
            switch_pps: calib::SWITCH_PPS,
            client_injection_qps: 0.0,
        };
        let read = model.max_throughput(
            cluster.sim.topology(),
            cluster.sim.routing(),
            cluster.ring(),
            &cluster.layout.switches,
            &cluster.layout.hosts,
            0.0,
            1,
        );
        let write = model.max_throughput(
            cluster.sim.topology(),
            cluster.sim.routing(),
            cluster.ring(),
            &cluster.layout.switches,
            &cluster.layout.hosts,
            1.0,
            1,
        );
        read_points.push((total as f64, read / 1e9));
        write_points.push((total as f64, write / 1e9));
    }
    vec![
        Series::new("NetChain (read)", read_points),
        Series::new("NetChain (write)", write_points),
    ]
}

/// One panel of Figure 9: its letter, `[title, x label, y label]` and the run
/// that measures it with the figure's parameters.
type Panel = (&'static str, [&'static str; 3], fn() -> Vec<Series>);

/// The six panels, the one place their parameters are written down.
const PANELS: [Panel; 6] = [
    (
        "a",
        [
            "Figure 9(a): throughput vs value size",
            "value size (B)",
            "throughput (QPS)",
        ],
        || fig9a(&[0, 16, 32, 64, 96, 128]),
    ),
    (
        "b",
        [
            "Figure 9(b): throughput vs store size",
            "store size (items)",
            "throughput (QPS)",
        ],
        || fig9b(&[1_000, 20_000, 40_000, 60_000, 80_000, 100_000]),
    ),
    (
        "c",
        [
            "Figure 9(c): throughput vs write ratio",
            "write ratio (%)",
            "throughput (QPS)",
        ],
        || fig9c(&[0.0, 0.01, 0.2, 0.4, 0.6, 0.8, 1.0]),
    ),
    (
        "d",
        [
            "Figure 9(d): throughput vs packet loss rate",
            "loss rate (%)",
            "throughput (QPS)",
        ],
        || {
            fig9d(
                &[0.00001, 0.0001, 0.001, 0.01, 0.1],
                SimDuration::from_millis(200),
            )
        },
    ),
    (
        "e",
        [
            "Figure 9(e): latency vs throughput",
            "throughput (QPS)",
            "latency (µs)",
        ],
        || fig9e(SimDuration::from_millis(200)),
    ),
    (
        "f",
        [
            "Figure 9(f): scalability",
            "number of switches",
            "throughput (BQPS)",
        ],
        || fig9f(&[6, 12, 24, 48, 96]),
    ),
];

/// The panels `--panel` selects: all six without the flag, none for a letter
/// that names no panel.
fn panels(wanted: Option<&str>) -> Vec<&'static Panel> {
    let keep = |(letter, ..): &&Panel| wanted.is_none_or(|w| w == *letter);
    PANELS.iter().filter(keep).collect()
}

/// CLI entry: `fig9 [--panel a..f]`; without `--panel`, all six in order.
pub fn run_cli(args: &[String]) -> i32 {
    let wanted = crate::cli::flag_value(args, "--panel");
    let chosen = panels(wanted);
    if chosen.is_empty() {
        return crate::cli::usage_error(&format!("fig9: --panel takes a..f, got {wanted:?}"));
    }
    for (_, [title, x_label, y_label], run) in chosen {
        print_series(title, x_label, y_label, &run());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_former_panel_bin_is_a_panel_letter() {
        for letter in ["a", "b", "c", "d", "e", "f"] {
            let chosen = panels(Some(letter));
            assert_eq!(chosen.len(), 1, "fig9{letter}");
            assert!(chosen[0].1[0].contains(&format!("9({letter})")));
        }
        assert_eq!(panels(None).len(), 6);
        assert!(panels(Some("g")).is_empty());
    }

    #[test]
    fn fig9a_netchain4_is_flat_at_82mqps_and_beats_zookeeper() {
        let series = fig9a(&[0, 64, 128]);
        let nc4 = series.iter().find(|s| s.name == "NetChain(4)").unwrap();
        for &(_, y) in &nc4.points {
            assert!(
                (y - 82.0e6).abs() < 1.0,
                "NetChain(4) should stay at 82 MQPS, got {y}"
            );
        }
        let zk = series.iter().find(|s| s.name == "ZooKeeper").unwrap();
        assert!(
            nc4.points[0].1 / zk.points[0].1 > 100.0,
            "orders of magnitude gap"
        );
    }

    #[test]
    fn fig9c_zookeeper_collapses_with_writes_netchain_does_not() {
        let series = fig9c(&[0.0, 0.5, 1.0]);
        let zk = series.iter().find(|s| s.name == "ZooKeeper").unwrap();
        assert!(zk.points[0].1 > 5.0 * zk.points[2].1);
        let nc4 = series.iter().find(|s| s.name == "NetChain(4)").unwrap();
        assert!((nc4.points[0].1 - nc4.points[2].1).abs() < 1.0);
    }

    #[test]
    fn fig9f_scales_linearly_and_reads_beat_writes() {
        let series = fig9f(&[6, 12, 24]);
        let read = &series[0];
        let write = &series[1];
        for (r, w) in read.points.iter().zip(&write.points) {
            assert!(r.1 > w.1, "reads must outpace writes");
        }
        // Roughly linear growth: quadrupling switches should at least triple
        // throughput.
        assert!(read.points[2].1 > read.points[0].1 * 3.0);
        assert!(write.points[2].1 > write.points[0].1 * 3.0);
    }

    #[test]
    fn fig9d_small_run_shows_zookeeper_hurt_more() {
        let series = fig9d(&[0.0, 0.05], SimDuration::from_millis(50));
        let nc = &series[0];
        let zk = &series[1];
        let nc_drop = nc.points[1].1 / nc.points[0].1.max(1.0);
        let zk_drop = zk.points[1].1 / zk.points[0].1.max(1.0);
        assert!(
            zk_drop < nc_drop,
            "loss should hurt the reliable-transport baseline more (zk {zk_drop:.3} vs nc {nc_drop:.3})"
        );
    }
}
