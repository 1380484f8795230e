//! Experiment harness shared by the per-figure binaries and the
//! Criterion benchmarks.
//!
//! Each binary under `src/bin/` regenerates one exhibit of the paper
//! (`exp_fig1`, `exp_fig6`, `exp_pamap`, `exp_bipartite`, `exp_enron`,
//! `exp_ablation`); this library holds the shared reporting utilities:
//! CSV writers, ASCII series rendering, and detection-quality metrics.

use bagcpd::{Detection, ScorePoint};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The workspace root, `crates/bench/../..`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Directory where experiment CSVs are written
/// (`<workspace>/target/experiments`, independent of the cwd).
pub fn output_dir() -> PathBuf {
    let dir = workspace_root().join("target").join("experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// `path` relative to the workspace root (`target/experiments/<name>.csv`
/// for the CSV writers' paths), for printing: what a binary prints does
/// not depend on where the checkout lives.
pub fn relative(path: &Path) -> &Path {
    path.strip_prefix(workspace_root()).unwrap_or(path)
}

/// Write the per-inspection-point series of a detection to CSV.
///
/// Columns: `t, score, ci_lo, ci_up, xi, alert`.
pub fn write_detection_csv(name: &str, detection: &Detection) -> PathBuf {
    let path = output_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "t,score,ci_lo,ci_up,xi,alert").expect("write header");
    for p in &detection.points {
        writeln!(
            f,
            "{},{},{},{},{},{}",
            p.t,
            p.score,
            p.ci.lo,
            p.ci.up,
            p.xi.map_or(String::new(), |x| x.to_string()),
            u8::from(p.alert),
        )
        .expect("write row");
    }
    path
}

/// Write a generic numeric table to CSV.
pub fn write_table_csv(name: &str, header: &str, rows: &[Vec<f64>]) -> PathBuf {
    let path = output_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        writeln!(f, "{}", line.join(",")).expect("write row");
    }
    path
}

/// ASCII rendering of a score series with CI shading and alert marks —
/// the terminal equivalent of the paper's figures.
pub fn render_series(points: &[ScorePoint], truth: &[usize], width: usize) -> String {
    if points.is_empty() {
        return String::from("(no inspection points)\n");
    }
    let max = points
        .iter()
        .map(|p| p.ci.up)
        .fold(f64::NEG_INFINITY, f64::max)
        .max(1e-12);
    let min = points.iter().map(|p| p.ci.lo).fold(f64::INFINITY, f64::min);
    let span = (max - min).max(1e-12);
    let mut out = String::new();
    for p in points {
        let pos = |v: f64| (((v - min) / span) * (width as f64 - 1.0)).round() as usize;
        let mut line: Vec<char> = vec![' '; width];
        let (lo, hi) = (pos(p.ci.lo), pos(p.ci.up));
        for c in line.iter_mut().take(hi + 1).skip(lo) {
            *c = '-';
        }
        line[pos(p.score).min(width - 1)] = '*';
        let marker = if p.alert {
            " ALERT"
        } else if truth.contains(&p.t) {
            " (true cp)"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:>4} |{}|{}\n",
            p.t,
            line.iter().collect::<String>(),
            marker
        ));
    }
    out
}

/// Detection-quality metrics of alerts against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionQuality {
    /// True change points matched by at least one alert within tolerance.
    pub detected: usize,
    /// Total true change points (inside the scored range).
    pub total_true: usize,
    /// Alerts not matching any true change point.
    pub false_alarms: usize,
    /// Total alerts.
    pub total_alerts: usize,
}

impl DetectionQuality {
    /// Evaluate with a symmetric tolerance in time steps.
    pub fn evaluate(alerts: &[usize], truth: &[usize], tol: usize) -> Self {
        let matched = |cp: usize| {
            alerts
                .iter()
                .any(|&a| (a as i64 - cp as i64).unsigned_abs() as usize <= tol)
        };
        let detected = truth.iter().filter(|&&cp| matched(cp)).count();
        let false_alarms = alerts
            .iter()
            .filter(|&&a| {
                !truth
                    .iter()
                    .any(|&cp| (a as i64 - cp as i64).unsigned_abs() as usize <= tol)
            })
            .count();
        DetectionQuality {
            detected,
            total_true: truth.len(),
            false_alarms,
            total_alerts: alerts.len(),
        }
    }

    /// Recall of true change points.
    pub fn recall(&self) -> f64 {
        if self.total_true == 0 {
            return 1.0;
        }
        self.detected as f64 / self.total_true as f64
    }

    /// Precision of alerts.
    pub fn precision(&self) -> f64 {
        if self.total_alerts == 0 {
            return 1.0;
        }
        (self.total_alerts - self.false_alarms) as f64 / self.total_alerts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_metrics() {
        let q = DetectionQuality::evaluate(&[10, 50, 90], &[11, 52, 70], 2);
        assert_eq!(q.detected, 2); // 11 (by 10), 52 (by 50); 70 missed
        assert_eq!(q.false_alarms, 1); // 90
        assert!((q.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.precision() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quality_empty_edge_cases() {
        let q = DetectionQuality::evaluate(&[], &[], 3);
        assert_eq!(q.recall(), 1.0);
        assert_eq!(q.precision(), 1.0);
        let q2 = DetectionQuality::evaluate(&[5], &[], 3);
        assert_eq!(q2.precision(), 0.0);
    }

    #[test]
    fn render_series_shapes() {
        use bagcpd::ConfidenceInterval;
        let points = vec![
            ScorePoint {
                t: 5,
                score: 0.5,
                ci: ConfidenceInterval { lo: 0.2, up: 0.9 },
                xi: None,
                alert: false,
            },
            ScorePoint {
                t: 6,
                score: 2.0,
                ci: ConfidenceInterval { lo: 1.5, up: 2.5 },
                xi: Some(0.6),
                alert: true,
            },
        ];
        let s = render_series(&points, &[6], 40);
        assert!(s.contains("ALERT"));
        assert!(s.lines().count() == 2);
        assert!(s.contains('*'));
    }
}
