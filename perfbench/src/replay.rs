//! The layer replay: a single-threaded pass over a fleet through each
//! layer's public functions, timing every call.
//!
//! Its points are also the correctness reference for every pipeline
//! session. They bypass the engine, the Mux and the window cache: the
//! band of EMDs is solved directly (as `Detector::analyze` does), so a
//! fault in the online path cannot hide in the reference too.

use crate::fleet::{stream_name, Workload};
use bagcpd::{signature_at_with, Bag, Detector, EvalScratch, ScorePoint, SignatureScratch};
use bagcpd::{SolverScratch, WindowScorer};
use infoest::DistanceMatrix;
use std::path::Path;
use std::time::Instant;
use stream::ingest::{BagAssembler, SourceItem};

/// Reference points of one stream, in `t` order.
#[derive(Debug, Clone)]
pub struct StreamRef {
    /// Stream name (file stem).
    pub name: String,
    /// Every inspection point `t = τ ..= n - τ'`.
    pub points: Vec<ScorePoint>,
}

/// Time spent in each replayed layer, with the work counts behind it.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Reading the CSV files plus `BagAssembler::line` (which parses
    /// every row with `parse_row`).
    pub ingest_s: f64,
    /// Data rows parsed.
    pub rows: u64,
    /// `signature_at_with` calls.
    pub signature_s: f64,
    /// Signatures built.
    pub builds: u64,
    /// Atoms over all signatures built.
    pub atoms: u64,
    /// `EmdSolver::distance_with` over the band pairs.
    pub emd_s: f64,
    /// Exact simplex solves.
    pub solves: u64,
    /// Simplex pivots over those solves.
    pub pivots: u64,
    /// Window scorer construction plus `Detector::evaluate_point_with`.
    pub bootstrap_s: f64,
    /// Inspection points evaluated.
    pub points: u64,
    /// Wall time of the whole replay.
    pub wall_s: f64,
}

impl LayerTimes {
    /// Self time of the four timed layers together.
    pub fn covered_s(&self) -> f64 {
        self.ingest_s + self.signature_s + self.emd_s + self.bootstrap_s
    }
}

/// Replay every stream of the fleet in `dir` under the engine master
/// seed `master_seed` (each stream runs under the seed the engine
/// derives for its name).
///
/// # Errors
/// A malformed CSV or a detector failure, as text.
pub fn replay(
    workload: &Workload,
    dir: &Path,
    master_seed: u64,
) -> Result<(Vec<StreamRef>, LayerTimes), String> {
    let detector = Detector::new(workload.detector()).map_err(|e| e.to_string())?;
    let mut times = LayerTimes::default();
    let mut sig_scratch = SignatureScratch::new();
    let mut solver = SolverScratch::new();
    let mut eval = EvalScratch::new();
    let start = Instant::now();
    let mut refs = Vec::with_capacity(workload.streams);
    for s in 0..workload.streams {
        let name = stream_name(s);
        let path = dir.join(format!("{name}.csv"));
        let bags = ingest(&path, &name, &mut times)?;
        let seed = stream::derive_stream_seed(master_seed, &name);
        let points = detect(
            &detector,
            &bags,
            seed,
            &mut times,
            &mut sig_scratch,
            &mut solver,
            &mut eval,
        )?;
        refs.push(StreamRef { name, points });
    }
    let stats = solver.stats();
    times.solves = stats.exact_solves;
    times.pivots = stats.pivots;
    times.wall_s = start.elapsed().as_secs_f64();
    Ok((refs, times))
}

/// Read one CSV file through a `BagAssembler`, as a file source does.
fn ingest(path: &Path, name: &str, times: &mut LayerTimes) -> Result<Vec<Bag>, String> {
    let t0 = Instant::now();
    let origin = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{origin}: {e}"))?;
    let mut assembler = BagAssembler::new(name.into(), true);
    let mut items = Vec::new();
    let mut rows = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        assembler
            .line(line, lineno, &origin, &mut items)
            .map_err(|e| e.to_string())?;
        rows += 1;
    }
    assembler.flush(&mut items);
    let bags: Vec<Bag> = items
        .into_iter()
        .filter_map(|item| match item {
            SourceItem::Bag { rows, .. } => Some(Bag::new(rows)),
            _ => None,
        })
        .collect();
    times.ingest_s += t0.elapsed().as_secs_f64();
    times.rows += rows.saturating_sub(1); // the header line
    Ok(bags)
}

/// Signatures, the EMD band, and every inspection point of one stream.
fn detect(
    detector: &Detector,
    bags: &[Bag],
    seed: u64,
    times: &mut LayerTimes,
    sig_scratch: &mut SignatureScratch,
    solver: &mut SolverScratch,
    eval: &mut EvalScratch,
) -> Result<Vec<ScorePoint>, String> {
    let cfg = detector.config();
    let (tau, tau_prime) = (cfg.tau, cfg.tau_prime);
    let width = tau + tau_prime;
    let n = bags.len();
    if n < width {
        return Err(format!("{n} bags is shorter than one window ({width})"));
    }

    let t0 = Instant::now();
    let sigs: Vec<_> = bags
        .iter()
        .enumerate()
        .map(|(i, bag)| signature_at_with(bag, &cfg.signature, seed, i as u64, sig_scratch))
        .collect();
    times.signature_s += t0.elapsed().as_secs_f64();
    times.builds += n as u64;
    times.atoms += sigs.iter().map(|s| s.len() as u64).sum::<u64>();

    // Only pairs inside one window are ever read: the band.
    let t0 = Instant::now();
    let mut band = vec![0.0; n * n];
    for j in 1..n {
        for i in j.saturating_sub(width - 1)..j {
            let d = cfg
                .solver
                .distance_with(&sigs[i], &sigs[j], &cfg.metric, solver)
                .map_err(|e| e.to_string())?;
            band[i * n + j] = d;
            band[j * n + i] = d;
        }
    }
    times.emd_s += t0.elapsed().as_secs_f64();
    let band = DistanceMatrix::from_vec(n, n, band);

    let t0 = Instant::now();
    let mut points: Vec<ScorePoint> = Vec::with_capacity(n + 1 - width);
    for t in tau..=n - tau_prime {
        let block = band.block(t - tau..t + tau_prime, t - tau..t + tau_prime);
        let scorer = WindowScorer::from_distances(block, tau, tau_prime, cfg.estimator);
        let prev_ci_up = t
            .checked_sub(tau_prime)
            .filter(|prev| *prev >= tau)
            .map(|prev| points[prev - tau].ci.up);
        points.push(detector.evaluate_point_with(&scorer, t, prev_ci_up, seed, eval));
    }
    times.bootstrap_s += t0.elapsed().as_secs_f64();
    times.points += points.len() as u64;
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{generate, WORKLOADS};

    #[test]
    fn replay_equals_detector_analyze() {
        let root = crate::testdir("replay-vs-analyze");
        for workload in WORKLOADS {
            let w = workload.tiny();
            let dir = root.join(w.name);
            generate(&w, 11, &dir).unwrap();
            let (refs, times) = replay(&w, &dir, 42).unwrap();
            assert_eq!(times.points as usize, w.streams * w.points_per_stream());
            let detector = Detector::new(w.detector()).unwrap();
            for stream in &refs {
                let mut scratch = LayerTimes::default();
                let bags = ingest(
                    &dir.join(format!("{}.csv", stream.name)),
                    &stream.name,
                    &mut scratch,
                )
                .unwrap();
                let seed = stream::derive_stream_seed(42, &stream.name);
                let batch = detector.analyze(&bags, seed).unwrap();
                assert_eq!(batch.points, stream.points, "{} / {}", w.name, stream.name);
            }
        }
        let _ = std::fs::remove_dir_all(root);
    }
}
