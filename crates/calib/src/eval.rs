//! Batched evaluation of a calibration point against the target
//! registry.
//!
//! All engine scenarios across all targets are collected into ONE
//! [`Scheduler::run_batch`] call, so a candidate point is evaluated with
//! maximal work-stealing parallelism and in-flight deduplication, and a
//! repeated evaluation (same point, warm cache) performs zero engine
//! runs.

use crate::cells::{observe, Batch};
use crate::targets::{self, Family, Target};
use crate::Result;
use corescope_machine::CalibParams;
use corescope_sched::{Fidelity, Scheduler};

/// The outcome of grading one target at one parameter point.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetOutcome {
    /// Target id.
    pub id: &'static str,
    /// Target family.
    pub family: Family,
    /// Predicted value, in the target's units.
    pub predicted: f64,
    /// Signed (equality) or hinge (inequality) relative error.
    pub rel_err: f64,
    /// Weighted squared relative error.
    pub score: f64,
    /// Whether the prediction lands inside the tolerance/bound.
    pub satisfied: bool,
}

/// A graded parameter point.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The evaluated point.
    pub params: CalibParams,
    /// Sum of all per-target scores.
    pub total: f64,
    /// Per-target breakdown, in registry order.
    pub outcomes: Vec<TargetOutcome>,
}

impl Evaluation {
    /// Sum of the scores of one family.
    pub fn family_score(&self, family: Family) -> f64 {
        self.outcomes.iter().filter(|o| o.family == family).map(|o| o.score).sum()
    }

    /// Per-family score totals, in [`Family::all`] order.
    pub fn family_scores(&self) -> Vec<(Family, f64)> {
        Family::all().into_iter().map(|f| (f, self.family_score(f))).collect()
    }

    /// Targets whose predictions violate their tolerance/bound.
    pub fn misses(&self) -> Vec<&TargetOutcome> {
        self.outcomes.iter().filter(|o| !o.satisfied).collect()
    }
}

/// Evaluates calibration points against a target set by batching every
/// engine scenario through a [`Scheduler`].
pub struct Evaluator<'s> {
    sched: &'s Scheduler,
    fidelity: Fidelity,
    targets: Vec<Target>,
}

impl<'s> Evaluator<'s> {
    /// An evaluator over the full registry.
    pub fn new(sched: &'s Scheduler, fidelity: Fidelity) -> Self {
        Self::with_targets(sched, fidelity, targets::registry())
    }

    /// An evaluator over an explicit target set (e.g. the fit subset).
    pub fn with_targets(sched: &'s Scheduler, fidelity: Fidelity, targets: Vec<Target>) -> Self {
        Self { sched, fidelity, targets }
    }

    /// An evaluator restricted to the given families.
    pub fn with_families(sched: &'s Scheduler, fidelity: Fidelity, families: &[Family]) -> Self {
        let targets =
            targets::registry().into_iter().filter(|t| families.contains(&t.family)).collect();
        Self::with_targets(sched, fidelity, targets)
    }

    /// The target set being graded.
    pub fn targets(&self) -> &[Target] {
        &self.targets
    }

    /// The fidelity scenarios are enumerated at.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Grades one parameter point: enumerates every target's scenarios,
    /// runs them as a single batch, reduces and scores.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (an unplaceable probe or an invalid
    /// parameter point fails the whole evaluation).
    pub fn evaluate(&self, params: &CalibParams) -> Result<Evaluation> {
        // Enumerate every target's cells, remembering each one's slice.
        let mut batch = Batch::default();
        let mut spans = Vec::with_capacity(self.targets.len());
        for target in &self.targets {
            let start = batch.len();
            batch.extend(target.probe.observables(params, self.fidelity));
            spans.push(start..batch.len());
        }
        let reduced = observe(self.sched, &batch)?;

        let mut outcomes = Vec::with_capacity(self.targets.len());
        let mut total = 0.0;
        for (target, span) in self.targets.iter().zip(spans) {
            let predicted = target.probe.predict(params, &reduced[span])?;
            let rel_err = target.rel_err(predicted);
            let score = target.score(predicted);
            total += score;
            outcomes.push(TargetOutcome {
                id: target.id,
                family: target.family,
                predicted,
                rel_err,
                score,
                satisfied: target.satisfied(predicted),
            });
        }
        Ok(Evaluation { params: *params, total, outcomes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::Family;

    fn sched() -> Scheduler {
        Scheduler::new(2)
    }

    #[test]
    fn latency_family_needs_no_engine_runs() {
        let s = sched();
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Latency]);
        let graded = eval.evaluate(&CalibParams::paper_2006()).unwrap();
        assert_eq!(s.stats().engine_runs, 0, "analytic probes must not hit the engine");
        assert_eq!(graded.outcomes.len(), 6);
        // The plateaus are exact at the shipped point.
        for o in &graded.outcomes {
            assert!(o.satisfied, "{}: predicted {}", o.id, o.predicted);
            assert!(o.rel_err.abs() < 1e-9, "{}: rel {}", o.id, o.rel_err);
        }
    }

    #[test]
    fn shipped_point_satisfies_stream_targets() {
        let s = sched();
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Stream]);
        let graded = eval.evaluate(&CalibParams::paper_2006()).unwrap();
        for o in &graded.outcomes {
            assert!(o.satisfied, "{}: predicted {:.4}", o.id, o.predicted);
        }
        assert!(graded.total < 0.05, "near-zero residual at shipped: {}", graded.total);
    }

    #[test]
    fn perturbed_point_scores_worse_and_misses_targets() {
        let s = sched();
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Stream]);
        let shipped = eval.evaluate(&CalibParams::paper_2006()).unwrap();
        let mut p = CalibParams::paper_2006();
        p.dram_latency *= 1.25;
        let perturbed = eval.evaluate(&p).unwrap();
        assert!(perturbed.total > 4.0 * shipped.total.max(1e-6));
        assert!(!perturbed.misses().is_empty());
    }

    #[test]
    fn repeated_evaluation_is_fully_cached() {
        let s = sched();
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Stream]);
        let a = eval.evaluate(&CalibParams::paper_2006()).unwrap();
        let runs = s.stats().engine_runs;
        let b = eval.evaluate(&CalibParams::paper_2006()).unwrap();
        assert_eq!(s.stats().engine_runs, runs, "second evaluation must be pure cache hits");
        assert_eq!(a, b);
    }

    #[test]
    fn family_scores_partition_the_total() {
        let s = sched();
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Latency]);
        let graded = eval.evaluate(&CalibParams::paper_2006()).unwrap();
        let sum: f64 = graded.family_scores().iter().map(|(_, v)| v).sum();
        assert!((sum - graded.total).abs() < 1e-12);
    }
}
