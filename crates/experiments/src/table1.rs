//! Table 1: comparison of packet-processing capabilities of a server and a
//! programmable switch. The rows are reproduced from the calibration
//! constants (spec-sheet numbers, not measurements this repository can make).

use crate::calib;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Metric name.
    pub metric: &'static str,
    /// Value for a highly-optimised server (NetBricks-class).
    pub server: String,
    /// Value for a Tofino-class switch.
    pub switch: String,
}

/// Produces the three rows of Table 1.
pub fn table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            metric: "Packets per second",
            server: format!("{:.0} million", calib::SERVER_PPS / 1e6),
            switch: format!("{:.1} billion", calib::SWITCH_PPS / 1e9),
        },
        Table1Row {
            metric: "Bandwidth",
            server: format!("{:.0} Gbps", calib::SERVER_BANDWIDTH_BPS / 1e9),
            switch: format!("{:.1} Tbps", calib::SWITCH_BANDWIDTH_BPS / 1e12),
        },
        Table1Row {
            metric: "Processing delay",
            server: format!("{:.0} µs", calib::SERVER_DELAY.as_micros_f64()),
            switch: format!("{:.1} µs", calib::SWITCH_DELAY.as_micros_f64()),
        },
    ]
}

/// CLI entry: prints Table 1.
pub fn run_cli(_args: &[String]) -> i32 {
    println!("== Table 1: packet-processing capabilities (server vs switch) ==");
    println!("{:<22}{:>18}{:>18}", "Metric", "Server", "Switch");
    for row in table1() {
        println!("{:<22}{:>18}{:>18}", row.metric, row.server, row.switch);
    }
    println!();
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_three_rows_and_switch_wins() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        assert_eq!(run_cli(&[]), 0);
    }
}
