//! Result series and plain-text/JSON reporting.

use netchain_telemetry::Json;

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
    println!("JSON: {}", series_json(series).render());
    println!();
}

/// The series as one JSON document, `[{"name":"…","points":[[x,y],…]},…]`
/// (non-finite numbers render as `null`).
fn series_json(series: &[Series]) -> Json {
    let point = |&(x, y): &(f64, f64)| Json::Arr(vec![Json::F64(x), Json::F64(y)]);
    let one = |s: &Series| {
        Json::obj(vec![
            ("name", Json::str(s.name.as_str())),
            ("points", Json::Arr(s.points.iter().map(point).collect())),
        ])
    };
    Json::Arr(series.iter().map(one).collect())
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
    fn json_document_keeps_its_shape() {
        let series = [Series::new("a \"b\"", vec![(1.0, 2.5), (2.0, f64::NAN)])];
        assert_eq!(
            series_json(&series).render(),
            r#"[{"name":"a \"b\"","points":[[1,2.5],[2,null]]}]"#
        );
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
