//! The correctness gate: every delivered point against the replay
//! reference.

use crate::fleet::{Workload, TAU, TAU_PRIME};
use crate::replay::StreamRef;
use crate::session::Session;
use bagcpd::ScorePoint;
use std::collections::HashMap;

/// Relative tolerance beyond which a delivered value counts as wrong.
pub const REL_TOL: f64 = 1e-9;

/// Outcome of checking one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Points the session should have delivered.
    pub expected: u64,
    /// Stream errors + quarantines + missing + extra + mismatched points.
    pub failed: u64,
    /// Expected points never delivered.
    pub missing: u64,
    /// Delivered points the reference does not have (or duplicates).
    pub extra: u64,
    /// Points off the reference by more than [`REL_TOL`] relative, or
    /// carrying a different alert.
    pub mismatched: u64,
    /// Points within tolerance whose bits still differ somewhere.
    pub bit_diffs: u64,
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Every field of a point, floats as their bits.
fn bits(p: &ScorePoint) -> (usize, u64, u64, u64, Option<u64>, bool) {
    (
        p.t,
        p.score.to_bits(),
        p.ci.lo.to_bits(),
        p.ci.up.to_bits(),
        p.xi.map(f64::to_bits),
        p.alert,
    )
}

/// Compare everything `session` delivered with the reference. A
/// checkpointing session holds each stream's trailing bag back (its
/// input is not known to be final), so it owes one point fewer per
/// stream.
pub fn check(refs: &[StreamRef], session: &Session, held_back: bool) -> Check {
    let index: HashMap<&str, usize> = refs
        .iter()
        .enumerate()
        .map(|(i, r)| (r.name.as_str(), i))
        .collect();
    let owed = |r: &StreamRef| r.points.len().saturating_sub(usize::from(held_back));
    let mut seen: Vec<Vec<bool>> = refs.iter().map(|r| vec![false; owed(r)]).collect();
    let mut c = Check {
        expected: refs.iter().map(|r| owed(r) as u64).sum(),
        ..Check::default()
    };
    for (stream, got, _) in &session.points {
        let slot = index.get(stream.as_ref()).and_then(|&s| {
            let k = got.t.checked_sub(TAU)?;
            (k < seen[s].len() && !seen[s][k]).then_some((s, k))
        });
        let Some((s, k)) = slot else {
            c.extra += 1;
            continue;
        };
        seen[s][k] = true;
        let want = &refs[s].points[k];
        let xi_close = match (got.xi, want.xi) {
            (Some(a), Some(b)) => close(a, b),
            (None, None) => true,
            _ => false,
        };
        if !(close(got.score, want.score)
            && close(got.ci.lo, want.ci.lo)
            && close(got.ci.up, want.ci.up)
            && xi_close
            && got.alert == want.alert)
        {
            c.mismatched += 1;
        } else if bits(got) != bits(want) {
            c.bit_diffs += 1;
        }
    }
    c.missing = seen.iter().flatten().filter(|s| !**s).count() as u64;
    c.failed = session.stream_errors + session.quarantines + c.missing + c.extra + c.mismatched;
    c
}

/// Even streams (the shifted ones) whose reference alerts within ±τ' of
/// the shift.
pub fn shift_alerts(workload: &Workload, refs: &[StreamRef]) -> u64 {
    let at = workload.shift_at();
    refs.iter()
        .step_by(2)
        .filter(|r| {
            r.points
                .iter()
                .any(|p| p.alert && p.t.abs_diff(at) <= TAU_PRIME)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcpd::ConfidenceInterval;
    use std::sync::Arc;
    use std::time::Instant;

    fn point(t: usize, score: f64, alert: bool) -> ScorePoint {
        ScorePoint {
            t,
            score,
            ci: ConfidenceInterval {
                lo: score - 1.0,
                up: score + 1.0,
            },
            xi: None,
            alert,
        }
    }

    fn session(points: Vec<(&str, ScorePoint)>) -> Session {
        let now = Instant::now();
        Session {
            setup_s: 0.0,
            run_s: 1.0,
            cpu_s: 1.0,
            peak_rss_mb: 1.0,
            bags: 0,
            points: points
                .into_iter()
                .map(|(s, p)| (Arc::from(s), p, now))
                .collect(),
            latencies_ms: Vec::new(),
            points_delivered: 0,
            stream_errors: 0,
            quarantines: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            scorelog_bytes: 0,
            exact_solves: 0,
            trace: None,
        }
    }

    #[test]
    fn counts_every_kind_of_failure() {
        let refs = vec![StreamRef {
            name: "a".into(),
            points: (TAU..TAU + 4).map(|t| point(t, t as f64, false)).collect(),
        }];
        let exact = session(refs[0].points.iter().map(|p| ("a", *p)).collect());
        assert_eq!(check(&refs, &exact, false).failed, 0);
        // Held back: the last point is not owed, so delivering it is extra.
        assert_eq!(check(&refs, &exact, true).extra, 1);

        let mut bad = refs[0].points.clone();
        bad[0].score += 1e-6; // mismatched
        bad[1].alert = true; // mismatched
        bad[2].score = f64::from_bits(bad[2].score.to_bits() + 1); // bit diff only
        let mut s = session(bad[..3].iter().map(|p| ("a", *p)).collect()); // one missing
        s.points.push((Arc::from("zz"), bad[0], Instant::now())); // unknown stream
        s.stream_errors = 2;
        let c = check(&refs, &s, false);
        assert_eq!(
            (c.mismatched, c.bit_diffs, c.missing, c.extra),
            (2, 1, 1, 1),
            "{c:?}"
        );
        assert_eq!(c.failed, 2 + 1 + 1 + 2);
        assert_eq!(c.expected, 4);
    }
}
