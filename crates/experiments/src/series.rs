//! Result series and plain-text/JSON reporting.

/// One named data series: `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (matches the paper's legend, e.g. "NetChain(4)").
    pub name: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }

    /// The y value at the given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }
}

/// Prints a figure's series as an aligned table followed by a JSON blob
/// (machine-readable).
pub fn print_series(title: &str, x_label: &str, y_label: &str, series: &[Series]) {
    println!("== {title} ==");
    println!("   ({y_label} as a function of {x_label})");
    // Collect the union of x values, preserving order of first appearance.
    let mut xs: Vec<f64> = Vec::new();
    for s in series {
        for &(x, _) in &s.points {
            if !xs.iter().any(|&e| (e - x).abs() < 1e-9) {
                xs.push(x);
            }
        }
    }
    print!("{:>16}", x_label);
    for s in series {
        print!("{:>22}", s.name);
    }
    println!();
    for &x in &xs {
        print!("{x:>16.6}");
        for s in series {
            match s.y_at(x) {
                Some(y) => print!("{y:>22.3}"),
                None => print!("{:>22}", "-"),
            }
        }
        println!();
    }
    println!("JSON: {}", series_to_json(series));
    println!();
}

/// Serialises series to JSON by hand (the build is offline, so no serde).
/// The structure matches what `serde_json` would emit for the same struct —
/// `[{"name":"…","points":[[x,y],…]},…]` — though number *formatting* may
/// differ from serde's shortest-representation output for extreme
/// magnitudes (both parse to the same `f64`).
pub fn series_to_json(series: &[Series]) -> String {
    let mut out = String::from("[");
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        for c in s.name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str("\",\"points\":[");
        for (j, &(x, y)) in s.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&json_f64(x));
            out.push(',');
            out.push_str(&json_f64(y));
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// JSON number formatting: integral floats keep a trailing `.0`, like serde.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no NaN/inf; null is what serde_json emits for them.
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup() {
        let s = Series::new("a", vec![(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(s.y_at(2.0), Some(20.0));
        assert_eq!(s.y_at(3.0), None);
    }

    #[test]
    fn printing_does_not_panic() {
        let series = vec![
            Series::new("x", vec![(1.0, 1.0)]),
            Series::new("y", vec![(1.0, 2.0), (2.0, 3.0)]),
        ];
        print_series("test", "param", "value", &series);
    }
}
