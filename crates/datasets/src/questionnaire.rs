//! Periodic questionnaire surveys — the paper's *first* motivating
//! scenario (§1): "conduct a questionnaire survey periodically, and
//! monitor for any changes in the overall characteristic of the group."
//!
//! Each survey wave polls a different, varying-size sample of
//! respondents; each respondent answers `q` Likert-scale questions
//! (1–7), so a wave is a bag of `q`-dimensional vectors. The population
//! is a mixture of latent opinion segments; scripted shifts move
//! segment proportions or segment opinions at known waves. Because
//! respondents differ per wave and sample sizes fluctuate, this is
//! irreducibly a bags-of-data problem.

use crate::LabeledBags;
use bagcpd::Bag;
use rand::Rng;
use stats::{Categorical, Normal, Poisson};

/// A latent opinion segment: mean answer per question (on the 1–7
/// scale) and a response noise level.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Mean answer per question.
    pub means: Vec<f64>,
    /// Response noise (standard deviation).
    pub sd: f64,
}

/// A scripted population shift starting at a given wave.
#[derive(Debug, Clone, PartialEq)]
pub struct Shift {
    /// Wave index at which the new regime starts.
    pub wave: usize,
    /// New segment mixture weights (same length as the segment list).
    pub mix: Vec<f64>,
}

/// Configuration of the survey simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct QuestionnaireConfig {
    /// Number of survey waves.
    pub waves: usize,
    /// Mean respondents per wave (Poisson).
    pub mean_respondents: f64,
    /// The latent segments.
    pub segments: Vec<Segment>,
    /// Initial segment mixture weights.
    pub initial_mix: Vec<f64>,
    /// Scripted shifts (sorted by wave).
    pub shifts: Vec<Shift>,
}

impl Default for QuestionnaireConfig {
    fn default() -> Self {
        // Three segments over 4 questions: satisfied, neutral, and a
        // small dissatisfied segment that grows after wave 20 and
        // polarizes after wave 40 — mean answers barely move, the
        // *composition* does.
        QuestionnaireConfig {
            waves: 60,
            mean_respondents: 120.0,
            segments: vec![
                Segment {
                    means: vec![6.0, 5.5, 6.0, 5.0],
                    sd: 0.7,
                },
                Segment {
                    means: vec![4.0, 4.0, 4.0, 4.0],
                    sd: 0.8,
                },
                Segment {
                    means: vec![2.0, 2.5, 2.0, 3.0],
                    sd: 0.7,
                },
            ],
            initial_mix: vec![0.45, 0.45, 0.10],
            shifts: vec![
                Shift {
                    wave: 20,
                    mix: vec![0.35, 0.35, 0.30],
                },
                Shift {
                    wave: 40,
                    mix: vec![0.45, 0.10, 0.45],
                },
            ],
        }
    }
}

impl QuestionnaireConfig {
    /// Check parameters.
    ///
    /// # Errors
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.waves == 0 || self.segments.is_empty() {
            return Err("waves and segments must be non-empty".into());
        }
        let q = self.segments[0].means.len();
        if q == 0 || self.segments.iter().any(|s| s.means.len() != q) {
            return Err("segments must share a non-zero question count".into());
        }
        if self.initial_mix.len() != self.segments.len()
            || self
                .shifts
                .iter()
                .any(|s| s.mix.len() != self.segments.len())
        {
            return Err("mixture weights must match the segment count".into());
        }
        Ok(())
    }
}

/// Generate the survey waves.
///
/// # Panics
/// Panics on an invalid configuration.
pub fn generate(cfg: &QuestionnaireConfig, rng: &mut impl Rng) -> LabeledBags {
    cfg.validate().expect("invalid QuestionnaireConfig");
    let sizes = Poisson::new(cfg.mean_respondents);
    let noise = Normal::new(0.0, 1.0);
    let mut bags = Vec::with_capacity(cfg.waves);
    for wave in 0..cfg.waves {
        let mix = cfg
            .shifts
            .iter()
            .rev()
            .find(|s| wave >= s.wave)
            .map_or(&cfg.initial_mix, |s| &s.mix);
        let choose = Categorical::new(mix);
        let n = sizes.sample(rng).max(5) as usize;
        let points: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let seg = &cfg.segments[choose.sample(rng)];
                seg.means
                    .iter()
                    .map(|&m| (m + seg.sd * noise.sample(rng)).clamp(1.0, 7.0))
                    .collect()
            })
            .collect();
        bags.push(Bag::new(points));
    }
    LabeledBags {
        bags,
        change_points: cfg.shifts.iter().map(|s| s.wave).collect(),
        name: "questionnaire-synthetic".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::seeded_rng;

    #[test]
    fn structure_and_labels() {
        let data = generate(&QuestionnaireConfig::default(), &mut seeded_rng(71));
        assert_eq!(data.bags.len(), 60);
        assert_eq!(data.change_points, vec![20, 40]);
        assert!(data.bags.iter().all(|b| b.dim() == 4));
        let sizes: Vec<usize> = data.bags.iter().map(Bag::len).collect();
        assert!(sizes.iter().max() != sizes.iter().min(), "sizes must vary");
    }

    #[test]
    fn answers_stay_on_likert_scale() {
        let data = generate(&QuestionnaireConfig::default(), &mut seeded_rng(72));
        for b in &data.bags {
            for p in b.rows() {
                assert!(p.iter().all(|&x| (1.0..=7.0).contains(&x)));
            }
        }
    }

    #[test]
    fn composition_shift_changes_segment_fractions() {
        let data = generate(&QuestionnaireConfig::default(), &mut seeded_rng(73));
        // Fraction of clearly dissatisfied respondents (q1 <= 3).
        let dissat = |r: std::ops::Range<usize>| {
            let mut low = 0usize;
            let mut total = 0usize;
            for b in &data.bags[r] {
                for p in b.rows() {
                    total += 1;
                    if p[0] <= 3.0 {
                        low += 1;
                    }
                }
            }
            low as f64 / total as f64
        };
        let early = dissat(0..20);
        let mid = dissat(20..40);
        let late = dissat(40..60);
        assert!(mid > early + 0.1, "shift 1 visible: {early} -> {mid}");
        assert!(late > mid + 0.05, "shift 2 visible: {mid} -> {late}");
    }

    #[test]
    fn second_shift_keeps_mean_but_polarizes() {
        // Regime 2 -> 3: the neutral segment splits to the extremes. The
        // wave mean moves much less than the spread does.
        let data = generate(&QuestionnaireConfig::default(), &mut seeded_rng(74));
        let stats_of = |r: std::ops::Range<usize>| {
            let vals: Vec<f64> = data.bags[r]
                .iter()
                .flat_map(|b| b.rows().map(|p| p[0]))
                .collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            let v = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / vals.len() as f64;
            (m, v)
        };
        let (m2, v2) = stats_of(20..40);
        let (m3, v3) = stats_of(40..60);
        assert!((m3 - m2).abs() < 0.5, "mean barely moves: {m2} vs {m3}");
        assert!(v3 > v2 + 0.5, "variance jumps: {v2} vs {v3}");
    }

    #[test]
    fn validation_rejects_mismatched_mix() {
        let mut cfg = QuestionnaireConfig::default();
        cfg.initial_mix.pop();
        assert!(cfg.validate().is_err());
    }
}
