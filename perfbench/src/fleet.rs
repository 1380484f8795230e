//! Workload shapes and the seeded CSV fleet generator.
//!
//! A fleet is a directory of `s0000.csv`, `s0001.csv`, … files in the
//! `t,x1,…,xd` layout `serve --dir` reads, one stream per file. Every
//! byte is a pure function of the workload and the seed.

use bagcpd::{BootstrapConfig, DetectorConfig, SignatureMethod};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Reference window length τ (detector default).
pub const TAU: usize = 5;
/// Test window length τ' (detector default).
pub const TAU_PRIME: usize = 5;
/// Bootstrap replicates (detector default).
pub const REPLICATES: usize = 200;
/// Level shift applied to dimension 0 of every even stream halfway
/// through.
pub const SHIFT: f64 = 3.0;

/// One benchmark workload: a fleet shape plus the session wiring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses.
    pub why: &'static str,
    /// Streams (CSV files) in the fleet.
    pub streams: usize,
    /// Bags per stream.
    pub bags: usize,
    /// Rows per bag.
    pub rows: usize,
    /// Coordinates per row.
    pub dim: usize,
    /// k-means signature size.
    pub k: usize,
    /// Periodic checkpoints plus a score log (the production serve shape).
    pub durable: bool,
}

/// Every workload the benchmark runs.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fleet-durable",
        why: "many small 2-D streams with periodic checkpoints and a score log: \
              bootstrap, checkpoint, score-log and many-stream ingest costs",
        streams: 256,
        bags: 48,
        rows: 24,
        dim: 2,
        k: 8,
        durable: true,
    },
    Workload {
        name: "emd-k32",
        why: "few streams with k=32 signatures and no durability: the exact \
              transport simplex dominates, bootstrap does not",
        streams: 16,
        bags: 48,
        rows: 128,
        dim: 2,
        k: 32,
        durable: false,
    },
    Workload {
        name: "bigbag-ingest",
        why: "few streams of large 8-D bags with k=4 and no durability: CSV \
              parsing and k-means dominate, EMD does not",
        streams: 8,
        bags: 128,
        rows: 1024,
        dim: 8,
        k: 4,
        durable: false,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The detector every stream runs: defaults except the signature size.
    pub fn detector(&self) -> DetectorConfig {
        DetectorConfig {
            tau: TAU,
            tau_prime: TAU_PRIME,
            signature: SignatureMethod::KMeans { k: self.k },
            bootstrap: BootstrapConfig {
                replicates: REPLICATES,
                ..Default::default()
            },
            ..DetectorConfig::default()
        }
    }

    /// First bag of the shifted regime on even streams.
    pub fn shift_at(&self) -> usize {
        self.bags / 2
    }

    /// Score points per stream when every bag is scored.
    #[cfg(test)]
    pub fn points_per_stream(&self) -> usize {
        self.bags + 1 - TAU - TAU_PRIME
    }

    /// This workload scaled down to a handful of small bags per stream
    /// (same wiring, dimension and k) — the shape the tests run.
    #[cfg(test)]
    pub fn tiny(&self) -> Workload {
        Workload {
            streams: 4,
            bags: 16,
            rows: self.k.max(8) + 4,
            ..*self
        }
    }
}

/// Name of stream `i` (and stem of its CSV file).
pub fn stream_name(i: usize) -> String {
    format!("s{i:04}")
}

/// SplitMix64: a tiny, fully specified generator, so fleets do not
/// depend on any RNG crate's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller, one draw per call).
    fn normal(&mut self) -> f64 {
        let (u1, u2) = (self.unit(), self.unit());
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Write the fleet of `workload` under `seed` into `dir` (created if
/// missing). Returns the bytes written.
///
/// Each stream draws from its own generator keyed by `(seed, stream)`:
/// rows are Gaussian around a per-stream centre in [-1, 1]^d, and even
/// streams shift dimension 0 by [`SHIFT`] from [`Workload::shift_at`] on.
/// Values are written in full (shortest round-trip) precision, as a
/// program logging `f64`s would write them.
///
/// # Errors
/// Any I/O failure creating or writing the files.
pub fn generate(workload: &Workload, seed: u64, dir: &Path) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut total = 0u64;
    let mut line = String::new();
    for s in 0..workload.streams {
        let mut rng =
            SplitMix(SplitMix(seed).next() ^ (s as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
        let centre: Vec<f64> = (0..workload.dim).map(|_| 2.0 * rng.unit() - 1.0).collect();
        let path = dir.join(format!("{}.csv", stream_name(s)));
        let mut out = BufWriter::with_capacity(1 << 16, std::fs::File::create(path)?);
        line.clear();
        line.push('t');
        for d in 0..workload.dim {
            line.push_str(&format!(",x{}", d + 1));
        }
        line.push('\n');
        out.write_all(line.as_bytes())?;
        total += line.len() as u64;
        for t in 0..workload.bags {
            let shift = if s % 2 == 0 && t >= workload.shift_at() {
                SHIFT
            } else {
                0.0
            };
            for _ in 0..workload.rows {
                line.clear();
                line.push_str(&t.to_string());
                for (d, c) in centre.iter().enumerate() {
                    let x = c + rng.normal() + if d == 0 { shift } else { 0.0 };
                    line.push_str(&format!(",{x}"));
                }
                line.push('\n');
                out.write_all(line.as_bytes())?;
                total += line.len() as u64;
            }
        }
        out.flush()?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_bytes(workload: &Workload, seed: u64, dir: &Path) -> Vec<Vec<u8>> {
        generate(workload, seed, dir).unwrap();
        (0..workload.streams)
            .map(|s| std::fs::read(dir.join(format!("{}.csv", stream_name(s)))).unwrap())
            .collect()
    }

    #[test]
    fn generator_is_deterministic_in_the_seed() {
        let root = crate::testdir("fleet-determinism");
        let w = WORKLOADS[0].tiny();
        let a = fleet_bytes(&w, 7, &root.join("a"));
        let b = fleet_bytes(&w, 7, &root.join("b"));
        let c = fleet_bytes(&w, 8, &root.join("c"));
        assert_eq!(a, b, "same seed, byte-identical fleet");
        for (x, z) in a.iter().zip(&c) {
            assert_ne!(x, z, "a different seed changes every stream");
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn fleet_has_the_declared_shape() {
        let root = crate::testdir("fleet-shape");
        let w = WORKLOADS[2].tiny();
        let files = fleet_bytes(&w, 1, &root);
        assert_eq!(files.len(), w.streams);
        let text = String::from_utf8(files[0].clone()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("t,x1,x2,x3,x4,x5,x6,x7,x8"));
        assert_eq!(lines.clone().count(), w.bags * w.rows);
        assert!(lines.all(|l| l.split(',').count() == w.dim + 1));
        let _ = std::fs::remove_dir_all(root);
    }
}
