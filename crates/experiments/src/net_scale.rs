//! The net-mode scale run: *measured* ops/sec and open-loop latency
//! quantiles of the real-socket dataplane (`netchain-net`) on the machine it
//! runs on.
//!
//! This is not a reproduction of a paper figure — kernel UDP on one box is orders of magnitude slower than a
//! Tofino — but it is the honest measurement of what the repo's socket
//! deployment sustains, and of where batching engages: the batch-capable
//! discipline (the vendored `mmsg` shim takes `recvmmsg`/`sendmmsg` once it
//! sees a backlog) against the forced `recv_from`/`send_to` discipline, on
//! the *identical* sharded pipeline, with the call mix printed per rung.
//!
//! Two runs per I/O mode:
//!
//! * a **latency run** at a modest offered rate, where the open-loop
//!   generator's coordinated-omission-free p50/p99/p999 is the result;
//! * a **saturation run** at an offered rate chosen above what the
//!   single-packet path sustains, where achieved ops/sec is the result and
//!   the burst/single ratio is the measured speedup.
//!
//! Results print as a table and land in the repo-top-level `BENCH_net.json`
//! so the perf trajectory is machine-diffable across PRs.

use netchain_net::{
    run_open_loop, syscall_microbench, IoMode, IoStats, NetConfig, NetDataplane, OpenLoopConfig,
    OpenLoopReport,
};
use netchain_switch::PipelineConfig;
use netchain_telemetry::{
    merge_thinned, trace_record_fields, ArtifactWriter, Json, PacketTrace, Quantiles, TraceConfig,
};
use netchain_wire::{Ipv4Addr, Key, Value};
use std::time::Duration;

use netchain_core::{HashRing, WorkloadSpec};

/// Trace sampling of the latency runs: sampled queries carry in-band
/// evidence stamps end to end (client issue → shard register read → client
/// ack), enough for `chain_audit` to replay the run offline; 1 key in 64 to
/// start with, and a sink that fills at 4096 traces thins itself. Saturation runs
/// stay untraced — they measure capacity, not consistency.
const TRACE_SAMPLING: TraceConfig = TraceConfig::sampled(6, 4096);

/// Shape of one net-scale measurement.
#[derive(Debug, Clone, Copy)]
pub struct NetScaleParams {
    /// Distinct keys, pre-populated and sampled by the workload.
    pub num_keys: u64,
    /// Dataplane worker shards (threads, each with its own socket).
    pub shards: usize,
    /// Concurrent sans-IO client agents in the generator.
    pub agents: usize,
    /// Generator threads.
    pub threads: usize,
    /// Offered rate of the latency run (ops/s) — modest, below saturation.
    pub latency_rate: f64,
    /// The saturation ladder: offered rates swept per I/O mode, capacity
    /// being the best achieved rate over the ladder. A ladder (rather than
    /// one "high enough" rate) keeps the measurement honest across machines:
    /// offering far beyond what co-located generators and workers sustain
    /// collapses *both* modes into scheduler thrash, so each mode's capacity
    /// is read at whichever rung it actually peaks.
    pub saturation_rates: [f64; 4],
    /// Issue window of each run.
    pub duration: Duration,
}

impl Default for NetScaleParams {
    fn default() -> Self {
        NetScaleParams {
            num_keys: 1024,
            shards: 2,
            agents: 128,
            threads: 2,
            latency_rate: 20_000.0,
            saturation_rates: [50_000.0, 100_000.0, 200_000.0, 400_000.0],
            duration: Duration::from_secs(1),
        }
    }
}

impl NetScaleParams {
    /// A fast CI configuration (finishes in a few seconds).
    pub fn smoke() -> Self {
        NetScaleParams {
            num_keys: 64,
            shards: 2,
            agents: 64,
            threads: 2,
            latency_rate: 20_000.0,
            saturation_rates: [25_000.0, 50_000.0, 100_000.0, 200_000.0],
            duration: Duration::from_millis(200),
        }
    }
}

/// One measured run: the open-loop report plus the dataplane's aggregated
/// syscall-layer counters.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// Which I/O discipline the dataplane workers used.
    pub io_mode: IoMode,
    /// The generator's aggregated report.
    pub open: OpenLoopReport,
    /// The dataplane workers' I/O counters, summed over shards.
    pub io: IoStats,
    /// Mean datagrams returned per successful receive call — the batching
    /// factor the burst path actually achieved (1.0 by construction for the
    /// single-packet path).
    pub batch_factor: f64,
    /// Merged client + worker trace fragments (empty unless the run was
    /// traced): full per-hop evidence paths on the dataplane's shared clock.
    pub traces: Vec<PacketTrace>,
}

fn sum_io(stats: &[IoStats]) -> IoStats {
    let mut total = IoStats::default();
    for s in stats {
        total.recv_calls += s.recv_calls;
        total.datagrams_in += s.datagrams_in;
        total.datagrams_out += s.datagrams_out;
        total.oversized += s.oversized;
        total.shim_dropped += s.shim_dropped;
        total.shim_duplicated += s.shim_duplicated;
        total.unrouted_replies += s.unrouted_replies;
        total.send_errors += s.send_errors;
        total.empty_polls += s.empty_polls;
        total.idle_blocks += s.idle_blocks;
        for (t, &f) in total.recv_fill.iter_mut().zip(&s.recv_fill) {
            *t += f;
        }
        total.single_calls += s.single_calls;
        total.burst_calls += s.burst_calls;
    }
    total
}

/// Starts a fresh dataplane in `io_mode`, offers `rate` ops/s of a
/// read-heavy mix (80% read / 15% write / 5% CAS) for the configured
/// duration, and returns the measured run.
pub fn run_mode(params: NetScaleParams, io_mode: IoMode, rate: f64) -> ModeRun {
    run_mode_traced(params, io_mode, rate, None)
}

/// [`run_mode`] with optional in-band trace sampling: workers and generator
/// clients stamp evidence against the dataplane's shared clock, and the
/// merged end-to-end traces come back in [`ModeRun::traces`].
pub fn run_mode_traced(
    params: NetScaleParams,
    io_mode: IoMode,
    rate: f64,
    trace: Option<TraceConfig>,
) -> ModeRun {
    let ring = HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7);
    let populate: Vec<(Key, Value)> = (0..params.num_keys)
        .map(|k| (Key::from_u64(k), Value::from_u64(0)))
        .collect();
    let config = NetConfig {
        io_mode,
        trace,
        ..NetConfig::new(ring, params.shards, PipelineConfig::tiny(1 << 16))
    };
    let plane = NetDataplane::start(config, &populate).expect("start dataplane");

    let spec = WorkloadSpec::mixed(params.num_keys, u64::MAX, 80, 15);
    let mut open_config = OpenLoopConfig::new(params.agents, params.threads, rate, params.duration);
    open_config.drain_grace = Duration::from_secs(2);
    open_config.trace = trace;
    let mut open = run_open_loop(&plane, spec, open_config);
    let report = plane.shutdown();
    let io = sum_io(&report.io);
    let batch_factor = io.batch_factor();
    // Client fragments (issue/ack) and worker fragments (switch hops) carry
    // the same trace ids; merging yields whole per-query paths.
    let client = (open.trace_shift, std::mem::take(&mut open.traces));
    let (_, traces) = merge_thinned([client, (report.trace_shift, report.traces)]);
    ModeRun {
        io_mode,
        open,
        io,
        batch_factor,
        traces,
    }
}

/// Sweeps the saturation ladder in `io_mode` and returns every run plus the
/// index of the capacity point (best achieved rate).
pub fn capacity_sweep(params: NetScaleParams, io_mode: IoMode) -> (Vec<ModeRun>, usize) {
    let runs: Vec<ModeRun> = params
        .saturation_rates
        .iter()
        .map(|&rate| run_mode(params, io_mode, rate))
        .collect();
    let best = runs
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.open
                .achieved_rate
                .partial_cmp(&b.1.open.achieved_rate)
                .expect("achieved rates are finite")
        })
        .map(|(i, _)| i)
        .expect("ladder is non-empty");
    (runs, best)
}

fn print_run(label: &str, run: &ModeRun) {
    let q = run.open.latency.quantiles();
    let lag = run.open.issue_lag.quantiles();
    println!(
        "  {label:<28} offered {:>9.0} ops/s  achieved {:>9.0} ops/s  \
         p50 {:>7.1}us  p99 {:>8.1}us  p999 {:>8.1}us  batch {:>4.1}  \
         calls {:>6.2}% mmsg  issue lag p50 {:>5.1}us p99 {:>7.1}us",
        run.open.offered_rate,
        run.open.achieved_rate,
        q.p50_ns as f64 / 1e3,
        q.p99_ns as f64 / 1e3,
        q.p999_ns as f64 / 1e3,
        run.batch_factor,
        // Of the workers' calls that moved a datagram, the share made through
        // `recvmmsg` / `sendmmsg`: where in the ladder batching engages.
        100.0 * run.io.burst_calls as f64
            / (run.io.single_calls + run.io.burst_calls).max(1) as f64,
        lag.p50_ns as f64 / 1e3,
        lag.p99_ns as f64 / 1e3,
    );
}

fn quantiles_json(q: &Quantiles) -> Json {
    Json::from(*q)
}

/// One run as JSON. `syscall_rtt_ns` is what the kernel charges a query and
/// its reply on this box (two single-datagram send + receive pairs of the
/// syscall microbench): the median over it is the scale-free latency figure
/// `bench_gate` puts a ceiling on.
fn run_json(run: &ModeRun, syscall_rtt_ns: f64) -> Json {
    let q = run.open.latency.quantiles();
    Json::obj(vec![
        ("io_mode", Json::str(run.io_mode.label())),
        ("offered_ops_per_sec", Json::F64(run.open.offered_rate)),
        ("achieved_ops_per_sec", Json::F64(run.open.achieved_rate)),
        ("issued", Json::U64(run.open.issued)),
        ("completed", Json::U64(run.open.completed)),
        ("retries", Json::U64(run.open.retries)),
        ("abandoned", Json::U64(run.open.abandoned)),
        (
            "version_regressions",
            Json::U64(run.open.version_regressions),
        ),
        ("quantiles", quantiles_json(&q)),
        (
            "p50_over_syscall_rtt",
            Json::F64(q.p50_ns as f64 / syscall_rtt_ns),
        ),
        ("issue_lag", quantiles_json(&run.open.issue_lag.quantiles())),
        ("send_errors", Json::U64(run.open.send_errors)),
        ("empty_polls", Json::U64(run.io.empty_polls)),
        ("idle_blocks", Json::U64(run.io.idle_blocks)),
        ("recv_calls", Json::U64(run.io.recv_calls)),
        ("datagrams_in", Json::U64(run.io.datagrams_in)),
        ("datagrams_out", Json::U64(run.io.datagrams_out)),
        ("batch_factor", Json::F64(run.batch_factor)),
        ("single_calls", Json::U64(run.io.single_calls)),
        ("burst_calls", Json::U64(run.io.burst_calls)),
        (
            "recv_fill",
            Json::Arr(run.io.recv_fill.iter().map(|&c| Json::U64(c)).collect()),
        ),
    ])
}

/// Renders the recv-batch-occupancy histogram as per-bucket percentages of
/// all recv calls, e.g. `≤1:82% ≤2:9% ≤4:5% ...` (empty buckets omitted).
fn fill_summary(io: &IoStats) -> String {
    let total: u64 = io.recv_fill.iter().sum();
    if total == 0 {
        return "n/a".to_string();
    }
    netchain_net::RECV_FILL_BOUNDS
        .iter()
        .zip(&io.recv_fill)
        .filter(|(_, &c)| c > 0)
        .map(|(b, &c)| format!("≤{b}:{:.0}%", 100.0 * c as f64 / total as f64))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs the full net-scale measurement (both I/O modes, latency and
/// saturation points), prints the table, and writes `BENCH_net.json`.
/// `--smoke` runs a sub-second configuration (CI).
pub fn run_cli(args: &[String]) -> i32 {
    let smoke = args.iter().any(|a| a == "--smoke");
    let params = if smoke {
        NetScaleParams::smoke()
    } else {
        NetScaleParams::default()
    };
    let mut artifact = ArtifactWriter::new("net_scale");

    println!(
        "Net scale: {} shards, {} agents on {} generator threads, {} keys, {:?} per run{}",
        params.shards,
        params.agents,
        params.threads,
        params.num_keys,
        params.duration,
        if smoke { " (smoke)" } else { "" },
    );

    println!("Saturation ladder (capacity = best achieved rate per mode):");
    let (burst_runs, burst_best) = capacity_sweep(params, IoMode::Burst);
    for run in &burst_runs {
        print_run("burst (mmsg on a backlog)", run);
    }
    let (single_runs, single_best) = capacity_sweep(params, IoMode::Single);
    for run in &single_runs {
        print_run("single (recv_from/send_to)", run);
    }

    // After the ladder, which doubles as the warm-up: for the first ~3 s of
    // load after an idle minute the reference VM runs everything (syscalls
    // included) half as fast again, and a median taken then, over a syscall
    // cost taken warm at the end of the run, reads 4.5 instead of 3.
    println!("Latency runs (open loop, coordinated-omission-free, traced):");
    let lat_burst = run_mode_traced(
        params,
        IoMode::Burst,
        params.latency_rate,
        Some(TRACE_SAMPLING),
    );
    print_run("burst (mmsg on a backlog)", &lat_burst);
    let lat_single = run_mode_traced(
        params,
        IoMode::Single,
        params.latency_rate,
        Some(TRACE_SAMPLING),
    );
    print_run("single (recv_from/send_to)", &lat_single);

    let burst_capacity = burst_runs[burst_best].open.achieved_rate;
    let single_capacity = single_runs[single_best].open.achieved_rate;
    let speedup = burst_capacity / single_capacity.max(1.0);
    println!(
        "Capacity: batched {:.0} ops/s vs single-packet {:.0} ops/s ({speedup:.2}x); \
         burst batch factor at capacity {:.1} datagrams/recv call",
        burst_capacity, single_capacity, burst_runs[burst_best].batch_factor,
    );
    // The batch-fill distribution explains the speedup (or its absence): a
    // recvmmsg that mostly returns 1–2 datagrams pays its extra setup cost
    // without amortising anything.
    println!(
        "Burst recv fill at capacity: {}",
        fill_summary(&burst_runs[burst_best].io),
    );

    // The controlled syscall comparison: one thread, one socket pair, the
    // same frames — the per-datagram cost the mmsg shim actually changes,
    // free of the scheduler placement noise the co-located system runs are
    // subject to on small machines.
    let bench = syscall_microbench(if smoke { 100 } else { 2_000 }, 5);
    println!(
        "Syscall microbench: single {:.0} ns/datagram, batched {:.0} ns/datagram \
         ({:.2}x) over {}-datagram bursts",
        bench.single_ns_per_datagram,
        bench.burst_ns_per_datagram,
        bench.speedup(),
        netchain_net::iobench::MAX_BURST,
    );
    let run_json = |run: &ModeRun| run_json(run, 2.0 * bench.single_ns_per_datagram);

    for run in [&lat_burst, &lat_single]
        .into_iter()
        .chain(&burst_runs)
        .chain(&single_runs)
    {
        artifact.record("run", vec![("data", run_json(run))]);
    }
    // Per-trace evidence records from the traced latency runs, for offline
    // consistency auditing (`chain_audit`) of the real-socket path. The two
    // runs are separate dataplanes with separate timebases and version
    // histories; the `run` label keeps the auditor from mixing them.
    for (label, run) in [
        ("latency-burst", &lat_burst),
        ("latency-single", &lat_single),
    ] {
        let ops = Json::U64(run.open.completed);
        artifact.record("sampling", vec![("run", Json::str(label)), ("ops", ops)]);
        for trace in &run.traces {
            let mut fields = trace_record_fields(trace);
            fields.push(("run", Json::str(label)));
            artifact.record("trace", fields);
        }
    }

    let summary = Json::obj(vec![
        ("experiment", Json::str("net_scale")),
        ("smoke", Json::Bool(smoke)),
        (
            "latency",
            Json::Arr(vec![run_json(&lat_burst), run_json(&lat_single)]),
        ),
        (
            "saturation_ladder",
            Json::obj(vec![
                (
                    "burst",
                    Json::Arr(burst_runs.iter().map(&run_json).collect()),
                ),
                (
                    "single",
                    Json::Arr(single_runs.iter().map(&run_json).collect()),
                ),
            ]),
        ),
        (
            "capacity",
            Json::obj(vec![
                ("burst_ops_per_sec", Json::F64(burst_capacity)),
                ("single_ops_per_sec", Json::F64(single_capacity)),
                ("burst_vs_single_speedup", Json::F64(speedup)),
            ]),
        ),
        (
            "syscall_microbench",
            Json::obj(vec![
                (
                    "burst_size",
                    Json::U64(netchain_net::iobench::MAX_BURST as u64),
                ),
                (
                    "single_ns_per_datagram",
                    Json::F64(bench.single_ns_per_datagram),
                ),
                (
                    "burst_ns_per_datagram",
                    Json::F64(bench.burst_ns_per_datagram),
                ),
                ("speedup", Json::F64(bench.speedup())),
                ("burst_recv_fill", Json::F64(bench.burst_recv_fill)),
            ]),
        ),
    ]);
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    match std::fs::write(bench_path, summary.render() + "\n") {
        Ok(()) => println!("bench summary: {bench_path}"),
        Err(e) => eprintln!("bench summary not written ({bench_path}): {e}"),
    }

    if let Some(path) = artifact.write() {
        println!("artifact: {}", path.display());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_measures_both_modes() {
        let mut params = NetScaleParams::smoke();
        params.duration = Duration::from_millis(100);
        let burst = run_mode(params, IoMode::Burst, params.latency_rate);
        let single = run_mode(params, IoMode::Single, params.latency_rate);
        for run in [&burst, &single] {
            assert!(run.open.issued > 0);
            assert!(run.open.achieved_rate > 0.0);
            assert_eq!(run.open.version_regressions, 0);
            assert!(run.io.datagrams_in > 0);
        }
        // The single-packet path is one datagram per call by construction,
        // and every call that moved one is counted under one name or the
        // other (two a datagram when nothing batches: its receive, its send).
        assert!((single.batch_factor - 1.0).abs() < 1e-9);
        assert_eq!(single.io.burst_calls, 0);
        assert_eq!(single.io.single_calls, 2 * single.io.datagrams_in);
        assert!(burst.batch_factor >= 1.0);
        assert!(burst.io.single_calls + burst.io.burst_calls >= burst.io.recv_calls);
    }

    #[test]
    fn traced_latency_run_yields_clean_auditable_traces() {
        let mut params = NetScaleParams::smoke();
        params.duration = Duration::from_millis(100);
        let run = run_mode_traced(
            params,
            IoMode::Burst,
            params.latency_rate,
            Some(TRACE_SAMPLING),
        );
        assert!(!run.traces.is_empty(), "sampled traces were recorded");
        // The merged traces must pass the full offline audit: no fault was
        // injected, so any violation here is a bug in the stamps, the merge,
        // or the dataplane itself.
        let journal = netchain_telemetry::Journal::new();
        let report = netchain_telemetry::audit(&run.traces, &journal, &());
        assert!(report.checked > 0, "the auditor judged real operations");
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }
}
