//! Gray-failure detection: flagging a shard that is *slow but alive*.
//!
//! Fail-stop failures are easy — the paper's controller hears a BFD timeout
//! and runs Algorithm 2. The harder production case is the gray failure: a
//! worker that still answers (so nothing times out) but at a fraction of its
//! peers' rate, silently dragging tail latency. The fabric's shards are
//! symmetric by construction — the keyspace is spread uniformly over virtual
//! groups — so peer comparison is a sound detector: in a healthy run every
//! shard's per-slice throughput tracks the peer median closely.
//!
//! [`GrayFailureDetector`] is a pure function over per-slice counts (the
//! replies each shard served in the slice, which the live monitor gets by
//! diffing two samples of the shards' `ShardStats`): a shard whose ops fall
//! below half its peers' median for two slices in a row is flagged.
//! Operating on explicit slice indices keeps the detector fully
//! deterministic — tests feed synthetic slices and the detector cannot tell
//! the difference — and a global dip (overload, a fault script's repair
//! window) never trips it, because the median dips with the victim.

/// Slices are only judged when the peers' median ops reaches this floor
/// (warm-up, drain and idle slices are unjudgeable noise).
const MIN_PEER_MEDIAN: u64 = 50;

/// A shard is suspect in a slice when its ops fall strictly below this share
/// of its peers' median.
const RATIO: f64 = 0.5;

/// Consecutive suspect slices before the shard is flagged. With 2, a
/// straggler is flagged on the second bad slice — within 3 slices of onset.
const CONSECUTIVE: usize = 2;

/// Slices during which a flagged shard is not flagged again.
pub(crate) const COOLDOWN: u64 = 32;

/// One flagged gray failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// The straggler shard.
    pub shard: usize,
    /// The slice the detection fired in.
    pub slice: u64,
    /// The shard's ops in that slice.
    pub ops: u64,
    /// Its peers' median ops in that slice.
    pub peer_median: u64,
    /// `ops / peer_median` — how far behind the straggler is.
    pub severity: f64,
}

impl Anomaly {
    /// One-line human-readable description.
    pub fn describe(&self) -> String {
        format!(
            "gray failure: shard {} at {:.0}% of peer median ({} vs {} ops) in slice {}",
            self.shard,
            self.severity * 100.0,
            self.ops,
            self.peer_median,
            self.slice,
        )
    }
}

/// Streak-tracking peer-comparison detector. Feed it every completed slice
/// in order via [`GrayFailureDetector::observe_slice`].
#[derive(Debug)]
pub struct GrayFailureDetector {
    /// Consecutive suspect slices per shard.
    streak: Vec<usize>,
    /// Earliest slice each shard may be flagged again.
    quiet_until: Vec<u64>,
}

impl GrayFailureDetector {
    /// A detector over `num_shards` peers.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "detector needs at least one shard");
        GrayFailureDetector {
            streak: vec![0; num_shards],
            quiet_until: vec![0; num_shards],
        }
    }

    /// Judges one completed slice (the ops each shard served in it) and
    /// returns any anomalies fired. With fewer than 3 shards there are no
    /// meaningful peers and the detector never fires.
    pub fn observe_slice(&mut self, slice: u64, ops: &[u64]) -> Vec<Anomaly> {
        assert_eq!(ops.len(), self.streak.len(), "shard count changed");
        let mut anomalies = Vec::new();
        if ops.len() < 3 {
            return anomalies;
        }
        let mut peers = Vec::with_capacity(ops.len() - 1);
        for (shard, &own) in ops.iter().enumerate() {
            peers.clear();
            peers.extend(
                ops.iter()
                    .enumerate()
                    .filter(|&(j, _)| j != shard)
                    .map(|(_, &o)| o),
            );
            peers.sort_unstable();
            // Of an even count, the mean of the two middle peers: with three
            // shards, the larger of two peers would make one favoured shard
            // the yardstick of both others.
            let mid = peers.len() / 2;
            let median = if peers.len() % 2 == 0 {
                (peers[mid - 1] + peers[mid]) / 2
            } else {
                peers[mid]
            };
            let suspect = median >= MIN_PEER_MEDIAN && (own as f64) < RATIO * median as f64;
            if !suspect {
                self.streak[shard] = 0;
                continue;
            }
            self.streak[shard] += 1;
            if self.streak[shard] >= CONSECUTIVE && slice >= self.quiet_until[shard] {
                self.quiet_until[shard] = slice + COOLDOWN;
                self.streak[shard] = 0;
                anomalies.push(Anomaly {
                    shard,
                    slice,
                    ops: own,
                    peer_median: median,
                    severity: own as f64 / median as f64,
                });
            }
        }
        anomalies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::flight_dump;
    use crate::runner::tests::ARTIFACT_ENV;
    use netchain_core::{ClusterConfig, FaultOp, NetChainCluster, Schedule, WorkloadSpec};
    use netchain_sim::SimDuration;
    use netchain_telemetry::Json;
    use netchain_wire::Ipv4Addr;
    use std::collections::VecDeque;
    use std::time::Duration;

    #[test]
    fn healthy_symmetric_shards_never_fire() {
        let mut d = GrayFailureDetector::new(4);
        for slice in 0..50 {
            let ops: Vec<u64> = (0..4).map(|s| 100 + (slice + s) % 7).collect();
            assert!(d.observe_slice(slice, &ops).is_empty());
        }
    }

    #[test]
    fn global_dip_is_not_a_gray_failure() {
        // A fault script's repair window drags every shard down together;
        // the peer median dips too, so nobody is flagged.
        let mut d = GrayFailureDetector::new(4);
        for slice in 0..20 {
            let ops = if (5..10).contains(&slice) { 10 } else { 200 };
            assert!(d.observe_slice(slice, &[ops; 4]).is_empty());
        }
    }

    #[test]
    fn idle_slices_are_unjudgeable() {
        let mut d = GrayFailureDetector::new(3);
        for slice in 0..10 {
            // Below the floor: even a 0-ops shard stays unflagged.
            assert!(d.observe_slice(slice, &[0, 20, 20]).is_empty());
        }
    }

    #[test]
    fn one_favoured_shard_of_three_makes_no_suspect() {
        // Counts seen in a live run beside a CPU hog: shard 0 served twice
        // what shards 1 and 2 did. Each of those is at about two thirds of
        // its peers' median, not below half of the favoured shard.
        let mut d = GrayFailureDetector::new(3);
        for slice in 0..10 {
            assert_eq!(d.observe_slice(slice, &[1_291, 639, 598]), []);
        }
    }

    #[test]
    fn cooldown_suppresses_refiring() {
        let mut d = GrayFailureDetector::new(3);
        let mut fired = Vec::new();
        for slice in 0..COOLDOWN + 8 {
            fired.extend(d.observe_slice(slice, &[10, 200, 200]));
        }
        // Fires once at slice 1 (streak of 2), then stays quiet through the
        // cooldown; the still-running streak refires as soon as it lifts.
        let slices: Vec<u64> = fired.iter().map(|a| a.slice).collect();
        assert_eq!(slices, [1, 1 + COOLDOWN]);
    }

    /// The acceptance path end to end, fully deterministic: a shard slowed
    /// from slice 1 on is flagged within 3 slices of onset, and the monitor's
    /// flight dump carries the history leading up to the anomaly.
    #[test]
    fn slowed_shard_is_detected_within_three_slices_with_flight_dump() {
        let _env = ARTIFACT_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("netchain-gray-test-{}", std::process::id()));
        std::env::set_var("NETCHAIN_ARTIFACT_DIR", &dir);

        let slice_ns = 100_000_000;
        let mut detector = GrayFailureDetector::new(4);
        let mut recent = VecDeque::new();
        let onset = 1u64;
        let mut detection = None;
        for slice in 0..8u64 {
            // The injected gray failure: shard 2 runs at 15% of its peers
            // from `onset` on (slow, not dead).
            let slowed = slice >= onset;
            let ops: Vec<u64> = (0..4)
                .map(|s| if s == 2 && slowed { 30 } else { 200 })
                .collect();
            let at_ns = slice * slice_ns;
            recent.push_back((at_ns, ops.clone()));
            if let Some(anomaly) = detector.observe_slice(slice, &ops).pop() {
                let what = anomaly.describe();
                let detail = vec![("at_ns", Json::U64(at_ns)), ("detail", Json::str(&what))];
                let path = flight_dump("gray_test", &recent, &what, "anomaly", detail);
                detection = Some((slice, anomaly, path.expect("dump written")));
                break;
            }
        }
        std::env::remove_var("NETCHAIN_ARTIFACT_DIR");

        let (slice, anomaly, path) = detection.expect("the slowed shard must be detected");
        assert_eq!(anomaly.shard, 2);
        assert!(
            slice <= onset + 2,
            "detected at slice {slice}, more than 3 slices after onset {onset}"
        );
        assert!(anomaly.severity < 0.5);
        assert_eq!(path, dir.join("FLIGHT_gray_test.jsonl"));
        let dump = std::fs::read_to_string(&path).expect("dump readable");
        // An ordinary artifact: every line is a record.
        for line in dump.lines() {
            let record = Json::parse(line).expect("one JSON object per line");
            assert!(record.get("record").is_some(), "{line}");
        }
        assert!(dump.contains("\"record\":\"anomaly\""));
        assert!(dump.contains("shard 2"));
        // The dump carries the history leading up to the anomaly, not just
        // the verdict.
        assert!(dump.matches("\"record\":\"slice\"").count() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stalled_switch_is_flagged_in_virtual_time() {
        // `live_run`'s stalled shard on the simulator's clock: one switch of five
        // stalls for 150 ms from 150 ms, and every 10 ms slice the detector is
        // fed each switch's replies in it, what the live monitor feeds it. The
        // switch is a leaf whose host issues nothing (one spine, so no chain hop
        // crosses a leaf), so the stall touches no other switch's traffic.
        let mut cluster = NetChainCluster::spine_leaf(1, 4, 1, ClusterConfig::default());
        cluster.populate_store(256, 8);
        for host in 0..3 {
            cluster.install_workload_client(
                host,
                WorkloadSpec::uniform_read(256, 0),
                20_000.0,
                SimDuration::from_millis(500),
                SimDuration::from_millis(10),
            );
        }
        let leaf = Ipv4Addr::for_switch(4);
        let stall = FaultOp::Stall(leaf, Duration::from_millis(150));
        cluster.inject(&Schedule::new(0).at(Duration::from_millis(150), stall));
        let switches = cluster.layout.switches.len();
        let mut detector = GrayFailureDetector::new(switches);
        let mut last = vec![0; switches];
        let mut gray = Vec::new();
        for slice in 0..50 {
            cluster.sim.run_for(SimDuration::from_millis(10));
            let ops: Vec<u64> = (0..switches)
                .map(|s| {
                    let replies = cluster.switch(s).switch().stats().replies_generated;
                    replies - std::mem::replace(&mut last[s], replies)
                })
                .collect();
            gray.extend(detector.observe_slice(slice, &ops));
        }
        let verdicts: Vec<_> = gray.iter().map(|a| (a.shard, a.ops, a.slice)).collect();
        assert_eq!(verdicts, [(4, 0, 16)], "{gray:?}");
    }
}
