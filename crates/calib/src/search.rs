//! Derivative-free calibration search.
//!
//! Nelder–Mead over the selected axes (normalized to the unit box, with
//! clamping), followed by a bounded coordinate-descent polish that
//! spends whatever evaluation budget remains. Fully deterministic: the
//! only randomness is a seeded [`SmallRng`] jittering the initial
//! simplex, and nothing reads the wall clock.

use crate::eval::Evaluator;
use crate::Result;
use corescope_machine::{Axis, CalibParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Search configuration.
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Axes to fit; every other field is pinned at its starting value.
    pub axes: Vec<Axis>,
    /// Maximum number of [`Evaluator::evaluate`] calls.
    pub budget: usize,
    /// RNG seed for the initial-simplex jitter.
    pub seed: u64,
    /// Converged when the best score drops below this.
    pub tolerance: f64,
}

impl FitConfig {
    /// Fits `axes` with a 60-evaluation budget (the CI smoke budget).
    pub fn new(axes: Vec<Axis>) -> Self {
        Self { axes, budget: 60, seed: 0x5ca1ab1e, tolerance: 1e-4 }
    }

    /// Sets the evaluation budget.
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }
}

/// One point on the best-score trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// 1-based evaluation index.
    pub evaluation: usize,
    /// Best score seen so far.
    pub best_score: f64,
}

/// The result of a fit.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// Where the search started.
    pub start: CalibParams,
    /// The best point found.
    pub fitted: CalibParams,
    /// Score at the start.
    pub start_score: f64,
    /// Score at the best point.
    pub best_score: f64,
    /// Evaluations spent.
    pub evaluations: usize,
    /// Best-score-so-far after each evaluation.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Whether the best score dropped below the configured tolerance.
    pub converged: bool,
}

/// Search state shared by the two phases: budget accounting, the
/// incumbent, and the normalized coordinate maps.
struct Search<'a, 's> {
    eval: &'a Evaluator<'s>,
    config: &'a FitConfig,
    base: CalibParams,
    evaluations: usize,
    trajectory: Vec<TrajectoryPoint>,
    best: (Vec<f64>, f64),
}

impl Search<'_, '_> {
    /// Denormalizes a unit-box point into a full parameter set.
    fn params_at(&self, x: &[f64]) -> CalibParams {
        let mut p = self.base;
        for (&axis, &xi) in self.config.axes.iter().zip(x) {
            let f = axis.field();
            f.write(&mut p, f.lo + xi.clamp(0.0, 1.0) * (f.hi - f.lo));
        }
        p
    }

    fn budget_left(&self) -> bool {
        self.evaluations < self.config.budget
    }

    /// Scores a unit-box point, charging the budget and updating the
    /// incumbent and trajectory.
    fn score(&mut self, x: &[f64]) -> Result<f64> {
        let p = self.params_at(x);
        let graded = self.eval.evaluate(&p)?;
        self.evaluations += 1;
        if graded.total < self.best.1 {
            self.best = (x.iter().map(|v| v.clamp(0.0, 1.0)).collect(), graded.total);
        }
        self.trajectory
            .push(TrajectoryPoint { evaluation: self.evaluations, best_score: self.best.1 });
        Ok(graded.total)
    }

    fn converged(&self) -> bool {
        self.best.1 <= self.config.tolerance
    }
}

/// Fits the configured axes to the evaluator's targets, starting from
/// `start` (out-of-bounds starts are clamped into the box).
///
/// # Errors
///
/// Propagates engine errors from candidate evaluations.
pub fn fit(eval: &Evaluator<'_>, start: CalibParams, config: &FitConfig) -> Result<FitResult> {
    assert!(!config.axes.is_empty(), "fit needs at least one axis");
    assert!(config.budget >= 2 * (config.axes.len() + 1), "budget too small for a simplex");
    let start = start.clamped();
    let x0: Vec<f64> = config
        .axes
        .iter()
        .map(|&axis| {
            let f = axis.field();
            (f.read(&start) - f.lo) / (f.hi - f.lo)
        })
        .collect();

    let mut search = Search {
        eval,
        config,
        base: start,
        evaluations: 0,
        trajectory: Vec::new(),
        best: (x0.clone(), f64::INFINITY),
    };
    let start_score = search.score(&x0)?;

    nelder_mead(&mut search, &x0)?;
    coordinate_polish(&mut search)?;

    let fitted = search.params_at(&search.best.0.clone());
    let converged = search.converged();
    Ok(FitResult {
        start,
        fitted,
        start_score,
        best_score: search.best.1,
        evaluations: search.evaluations,
        trajectory: search.trajectory,
        converged,
    })
}

/// Standard Nelder–Mead (reflection/expansion/contraction/shrink) on the
/// unit box. Spends at most ~70% of the budget, leaving room for the
/// polish phase.
fn nelder_mead(search: &mut Search<'_, '_>, x0: &[f64]) -> Result<()> {
    let n = x0.len();
    let phase_cap = (search.config.budget * 7) / 10;
    let mut rng = SmallRng::seed_from_u64(search.config.seed);

    // Initial simplex: x0 plus one jittered step per axis, reflected
    // back inside the box when a step would leave it.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    simplex.push((x0.to_vec(), search.best.1));
    for i in 0..n {
        let mut x = x0.to_vec();
        let step = 0.15 * rng.gen_range(0.8..1.2);
        x[i] = if x[i] + step <= 1.0 { x[i] + step } else { x[i] - step };
        let s = search.score(&x)?;
        simplex.push((x, s));
        if search.converged() {
            return Ok(());
        }
    }

    while search.evaluations < phase_cap && search.budget_left() && !search.converged() {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let worst = simplex[n].clone();
        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (x, _) in &simplex[..n] {
            for (c, xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }
        let blend = |a: f64| -> Vec<f64> {
            centroid.iter().zip(&worst.0).map(|(c, w)| (c + a * (c - w)).clamp(0.0, 1.0)).collect()
        };

        let reflected = blend(1.0);
        let fr = search.score(&reflected)?;
        if fr < simplex[0].1 && search.budget_left() {
            // Try to expand past the reflection.
            let expanded = blend(2.0);
            let fe = search.score(&expanded)?;
            simplex[n] = if fe < fr { (expanded, fe) } else { (reflected, fr) };
        } else if fr < simplex[n - 1].1 {
            simplex[n] = (reflected, fr);
        } else if search.budget_left() {
            let contracted = blend(-0.5);
            let fc = search.score(&contracted)?;
            if fc < worst.1 {
                simplex[n] = (contracted, fc);
            } else {
                // Shrink toward the best vertex.
                let best = simplex[0].0.clone();
                for vertex in simplex.iter_mut().skip(1) {
                    if !search.budget_left() || search.converged() {
                        break;
                    }
                    let x: Vec<f64> =
                        vertex.0.iter().zip(&best).map(|(v, b)| b + 0.5 * (v - b)).collect();
                    let s = search.score(&x)?;
                    *vertex = (x, s);
                }
            }
        }
    }
    Ok(())
}

/// Bounded coordinate descent from the incumbent: per axis, probe ± a
/// shrinking step and keep improvements. Spends the rest of the budget.
fn coordinate_polish(search: &mut Search<'_, '_>) -> Result<()> {
    let n = search.config.axes.len();
    let mut step = 0.05;
    while search.budget_left() && !search.converged() && step > 1e-5 {
        let mut improved = false;
        for i in 0..n {
            for dir in [1.0, -1.0] {
                if !search.budget_left() || search.converged() {
                    return Ok(());
                }
                let mut x = search.best.0.clone();
                x[i] = (x[i] + dir * step).clamp(0.0, 1.0);
                let before = search.best.1;
                search.score(&x)?;
                if search.best.1 < before {
                    improved = true;
                    break; // re-probe this axis at the new incumbent
                }
            }
        }
        if !improved {
            step *= 0.5;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::Family;
    use corescope_sched::{Fidelity, Scheduler};

    #[test]
    fn fit_recovers_dram_latency_from_latency_targets() {
        // Analytic targets only: fast, and exactly identified.
        let s = Scheduler::new(1);
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Latency]);
        let mut start = CalibParams::paper_2006();
        start.dram_latency *= 1.3;
        let config = FitConfig::new(vec![Axis::DramLatency]).with_budget(40);
        let fit = fit(&eval, start, &config).unwrap();
        assert!(fit.converged, "best score {}", fit.best_score);
        let rel = (fit.fitted.dram_latency - 70e-9).abs() / 70e-9;
        assert!(rel < 0.02, "fitted {} vs shipped 70ns", fit.fitted.dram_latency);
        assert!(fit.best_score < fit.start_score);
        assert_eq!(s.stats().engine_runs, 0, "latency-only fits are analytic");
    }

    #[test]
    fn fit_is_deterministic() {
        let s = Scheduler::new(1);
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Latency]);
        let mut start = CalibParams::paper_2006();
        start.dram_latency *= 0.7;
        let config = FitConfig::new(vec![Axis::DramLatency]).with_budget(30);
        let a = fit(&eval, start, &config).unwrap();
        let b = fit(&eval, start, &config).unwrap();
        assert_eq!(a.fitted.dram_latency.to_bits(), b.fitted.dram_latency.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.trajectory, b.trajectory);
    }

    #[test]
    fn budget_is_respected_and_trajectory_is_monotone() {
        let s = Scheduler::new(1);
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Latency]);
        let mut start = CalibParams::paper_2006();
        start.dram_latency = 150e-9;
        start.ht_hop_latency = 100e-9;
        let config = FitConfig {
            axes: vec![Axis::DramLatency, Axis::HtHopLatency],
            budget: 25,
            seed: 7,
            tolerance: 0.0, // never converges: must stop on budget
        };
        let r = fit(&eval, start, &config).unwrap();
        assert!(r.evaluations <= 25);
        assert_eq!(r.trajectory.len(), r.evaluations);
        for w in r.trajectory.windows(2) {
            assert!(w[1].best_score <= w[0].best_score, "best-so-far must never rise");
        }
        // Unfitted fields stay pinned at the start.
        assert_eq!(r.fitted.ht_bandwidth.to_bits(), r.start.ht_bandwidth.to_bits());
    }

    #[test]
    fn out_of_bounds_start_is_clamped() {
        let s = Scheduler::new(1);
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Latency]);
        let mut start = CalibParams::paper_2006();
        start.dram_latency = 1.0; // absurd
        let config = FitConfig::new(vec![Axis::DramLatency]).with_budget(30);
        let r = fit(&eval, start, &config).unwrap();
        assert!(r.start.in_bounds());
        assert!(r.fitted.in_bounds());
    }
}
