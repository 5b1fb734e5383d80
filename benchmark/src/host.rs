//! What the host was doing while the benchmark ran: validity of the run, not
//! a property of the program.

use std::time::Instant;

/// Cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed integer loop (xorshift over a dependent chain, so it can neither
/// be vectorised nor folded away), in millions of iterations per second.
/// Run before each repetition: a repetition that lands on a slow stretch of
/// a shared host shows it here, independently of the program under test.
pub fn calib_mops() -> f64 {
    const ITERS: u64 = 400_000;
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    let start = Instant::now();
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    ITERS as f64 / start.elapsed().as_secs_f64().max(1e-9) / 1e6
}

/// Cumulative `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`; `None` where the file or the field does not exist.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields.map_while(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *values.get(7)?;
    Some((steal, values.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor took between two [`cpu_jiffies`]
/// readings (0 when either is missing or no time passed).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_field_over_the_first_eight() {
        let before = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0");
        assert_eq!(before, Some((35, 1000)));
        let after = parse_cpu_line("cpu  150 0 70 860 10 0 5 105 0 0");
        assert!((steal_share(before, after) - 70.0 / 200.0).abs() < 1e-12);
        assert_eq!(parse_cpu_line("cpu0 1 2 3"), None);
        assert_eq!(steal_share(None, after), 0.0);
    }
}
