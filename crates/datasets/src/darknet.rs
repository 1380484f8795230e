//! Darknet traffic simulator.
//!
//! §6 of the paper notes: "we have used this method to detect cyber
//! attacks in a darknet, and it has performed very well." No darknet
//! trace ships with the paper, so this module simulates one: a network
//! telescope records unsolicited packets; each hour's packets form a
//! bag of per-packet feature vectors `(log2 destination port,
//! normalized packet size)`. Attack campaigns perturb the joint
//! distribution at known hours:
//!
//! - **PortScan** — a scanner sweeps the port space: port mass spreads
//!   to the uniform background and sizes collapse to minimal SYN-probe
//!   packets;
//! - **WormOutbreak** — one service port abruptly dominates;
//! - **DdosBackscatter** — response packets from a victim: a single
//!   source port reflected as concentrated high-port traffic with
//!   characteristic sizes.
//!
//! The traffic *volume* is kept roughly constant across regimes, so a
//! packets-per-hour counter sees nothing: the change is in the shape of
//! the distribution, exactly the regime where bags-of-data wins.

use crate::LabeledBags;
use bagcpd::Bag;
use rand::Rng;
use stats::{Categorical, Normal, Poisson};

/// Kind of simulated attack campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Sequential/uniform port sweep with tiny probe packets.
    PortScan,
    /// Exploit traffic concentrating on one service port.
    WormOutbreak,
    /// Backscatter from a spoofed-source flood at a victim.
    DdosBackscatter,
}

/// One scripted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign {
    /// First hour of the campaign.
    pub start: usize,
    /// Duration in hours.
    pub duration: usize,
    /// Attack kind.
    pub kind: Attack,
}

/// Configuration of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct DarknetConfig {
    /// Number of simulated hours.
    pub hours: usize,
    /// Mean packets per hour (volume is regime-independent by design).
    pub mean_packets: f64,
    /// Scripted campaigns.
    pub campaigns: Vec<Campaign>,
}

impl Default for DarknetConfig {
    fn default() -> Self {
        DarknetConfig {
            hours: 96,
            mean_packets: 400.0,
            campaigns: vec![
                Campaign {
                    start: 24,
                    duration: 6,
                    kind: Attack::PortScan,
                },
                Campaign {
                    start: 48,
                    duration: 8,
                    kind: Attack::WormOutbreak,
                },
                Campaign {
                    start: 72,
                    duration: 6,
                    kind: Attack::DdosBackscatter,
                },
            ],
        }
    }
}

/// Generate the labeled hourly bags.
///
/// # Panics
/// Panics on a degenerate configuration.
pub fn generate(cfg: &DarknetConfig, rng: &mut impl Rng) -> LabeledBags {
    assert!(
        cfg.hours > 0 && cfg.mean_packets > 0.0,
        "darknet: degenerate config"
    );
    let volume = Poisson::new(cfg.mean_packets);
    let mut bags = Vec::with_capacity(cfg.hours);
    for hour in 0..cfg.hours {
        let attack = cfg
            .campaigns
            .iter()
            .find(|c| hour >= c.start && hour < c.start + c.duration)
            .map(|c| c.kind);
        let n = volume.sample(rng).max(20) as usize;
        let points: Vec<Vec<f64>> = (0..n).map(|_| sample_packet(attack, rng)).collect();
        bags.push(Bag::new(points));
    }
    let mut change_points: Vec<usize> = cfg
        .campaigns
        .iter()
        .flat_map(|c| [c.start, c.start + c.duration])
        .filter(|&t| t < cfg.hours)
        .collect();
    change_points.sort_unstable();
    change_points.dedup();
    LabeledBags {
        bags,
        change_points,
        name: "darknet-synthetic".into(),
    }
}

/// One packet's feature vector under the active regime.
fn sample_packet(attack: Option<Attack>, rng: &mut impl Rng) -> Vec<f64> {
    // Background: mixture of scanning noise toward common service ports
    // plus uniform junk; sizes bimodal (small probes / MTU-ish).
    const SERVICE_PORTS: [f64; 6] = [22.0, 23.0, 80.0, 443.0, 445.0, 3389.0];
    match attack {
        None => {
            let pick = Categorical::new(&[0.6, 0.4]).sample(rng);
            let port = if pick == 0 {
                SERVICE_PORTS[rng.gen_range(0..SERVICE_PORTS.len())]
            } else {
                rng.gen_range(1.0..65535.0)
            };
            let size = if rng.gen::<f64>() < 0.7 {
                Normal::new(60.0, 8.0).sample(rng)
            } else {
                Normal::new(1200.0, 150.0).sample(rng)
            };
            packet(port, size)
        }
        Some(Attack::PortScan) => {
            // Uniform sweep, minimal probes.
            let port = rng.gen_range(1.0..65535.0);
            let size = Normal::new(44.0, 2.0).sample(rng);
            packet(port, size)
        }
        Some(Attack::WormOutbreak) => {
            // 85% of packets hit the exploited service.
            let port = if rng.gen::<f64>() < 0.85 {
                445.0
            } else {
                rng.gen_range(1.0..65535.0)
            };
            let size = Normal::new(380.0, 30.0).sample(rng);
            packet(port, size)
        }
        Some(Attack::DdosBackscatter) => {
            // Reflected responses: ephemeral high ports, SYN-ACK sizes.
            let port = rng.gen_range(32768.0..61000.0);
            let size = Normal::new(58.0, 4.0).sample(rng);
            packet(port, size)
        }
    }
}

fn packet(port: f64, size: f64) -> Vec<f64> {
    vec![port.max(1.0).log2(), (size.clamp(40.0, 1500.0)) / 1500.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::seeded_rng;

    #[test]
    fn structure_and_labels() {
        let data = generate(&DarknetConfig::default(), &mut seeded_rng(61));
        assert_eq!(data.bags.len(), 96);
        assert_eq!(data.change_points, vec![24, 30, 48, 56, 72, 78]);
        assert!(data.bags.iter().all(|b| b.dim() == 2));
    }

    #[test]
    fn volume_is_regime_independent() {
        // The attacks must not be detectable from packet counts alone.
        let data = generate(&DarknetConfig::default(), &mut seeded_rng(62));
        let mean_of = |r: std::ops::Range<usize>| {
            data.bags[r.clone()]
                .iter()
                .map(|b| b.len() as f64)
                .sum::<f64>()
                / r.len() as f64
        };
        let normal = mean_of(0..24);
        let scan = mean_of(24..30);
        assert!(
            (normal - scan).abs() < 0.15 * normal,
            "volume shift {normal} -> {scan} would leak the attack"
        );
    }

    #[test]
    fn port_scan_flattens_port_distribution() {
        let data = generate(&DarknetConfig::default(), &mut seeded_rng(63));
        // Fraction of packets at the six service ports: high in
        // background, low during the scan.
        let service_frac = |r: std::ops::Range<usize>| {
            let mut hits = 0usize;
            let mut total = 0usize;
            for b in &data.bags[r] {
                for p in b.rows() {
                    total += 1;
                    let port = 2f64.powf(p[0]);
                    if [22.0, 23.0, 80.0, 443.0, 445.0, 3389.0]
                        .iter()
                        .any(|&s| (port - s).abs() < 0.5)
                    {
                        hits += 1;
                    }
                }
            }
            hits as f64 / total as f64
        };
        assert!(service_frac(0..24) > 0.4);
        assert!(service_frac(24..30) < 0.05);
    }

    #[test]
    fn worm_concentrates_on_port_445() {
        let data = generate(&DarknetConfig::default(), &mut seeded_rng(64));
        let frac_445 = |r: std::ops::Range<usize>| {
            let mut hits = 0usize;
            let mut total = 0usize;
            for b in &data.bags[r] {
                for p in b.rows() {
                    total += 1;
                    if (2f64.powf(p[0]) - 445.0).abs() < 0.5 {
                        hits += 1;
                    }
                }
            }
            hits as f64 / total as f64
        };
        assert!(frac_445(48..56) > 0.7, "worm hours {}", frac_445(48..56));
        assert!(frac_445(10..20) < 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&DarknetConfig::default(), &mut seeded_rng(65));
        let b = generate(&DarknetConfig::default(), &mut seeded_rng(65));
        assert_eq!(a.bags, b.bags);
    }
}
