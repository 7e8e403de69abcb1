//! Sensitivity analysis: Morris-style one-at-a-time elementary effects
//! over the calibration box, plus one-knob sweeps of a single cell.
//!
//! The elementary-effect pass answers "which parameter moves which
//! target family"; [`sweep_field`] answers "how does this one cell move
//! with this one knob". The tests below hold the four modelling choices
//! the paper's shapes rest on (probe-fabric capacity, page misplacement,
//! lock cost, same-socket copy boost) to what each must do to its cell.

use crate::cells::{observe, Observable};
use crate::eval::Evaluator;
use crate::targets::Family;
use crate::Result;
use corescope_machine::{Axis, CalibParams};
use corescope_sched::Scheduler;

/// The elementary effect of one parameter on one target family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effect {
    /// Parameter name (a [`CalibParams::FIELDS`] entry).
    pub param: &'static str,
    /// Target family whose score moved.
    pub family: Family,
    /// |Δ family score| per unit step in normalized coordinates.
    pub magnitude: f64,
}

/// One-at-a-time elementary effects: every axis is stepped by
/// `step` × (hi − lo) from `base` (down when the step would leave the
/// box) and the per-family score deltas are recorded.
///
/// Cost: `axes.len() + 1` evaluator calls.
///
/// # Errors
///
/// Propagates engine errors.
pub fn elementary_effects(
    eval: &Evaluator<'_>,
    base: &CalibParams,
    axes: &[Axis],
    step: f64,
) -> Result<Vec<Effect>> {
    assert!(step > 0.0 && step < 1.0, "step is a fraction of the box");
    let baseline = eval.evaluate(base)?;
    let mut effects = Vec::new();
    for &axis in axes {
        let f = axis.field();
        let x = (f.read(base) - f.lo) / (f.hi - f.lo);
        let stepped = if x + step <= 1.0 { x + step } else { x - step };
        let mut p = *base;
        f.write(&mut p, f.lo + stepped * (f.hi - f.lo));
        let moved = eval.evaluate(&p)?;
        for family in Family::all() {
            let delta = moved.family_score(family) - baseline.family_score(family);
            effects.push(Effect { param: f.name, family, magnitude: (delta / step).abs() });
        }
    }
    Ok(effects)
}

/// Parameters ranked by their effect on one family, strongest first;
/// zero-effect parameters are dropped.
pub fn ranking(effects: &[Effect], family: Family) -> Vec<Effect> {
    let mut rows: Vec<Effect> =
        effects.iter().filter(|e| e.family == family && e.magnitude > 0.0).copied().collect();
    rows.sort_by(|a, b| b.magnitude.total_cmp(&a.magnitude));
    rows
}

/// Sweeps one calibration axis over explicit values, measuring one cell
/// at each point, in one batch. Values are not clamped here; the
/// scenario layer rejects out-of-bounds points, so callers sweep within
/// the box.
///
/// # Errors
///
/// Propagates engine errors.
pub fn sweep_field(
    sched: &Scheduler,
    base: &Observable,
    axis: Axis,
    values: &[f64],
) -> Result<Vec<f64>> {
    let batch = values
        .iter()
        .map(|&v| {
            let mut p = *base.scenario.params;
            axis.field().write(&mut p, v);
            base.clone().at(p)
        })
        .collect();
    observe(sched, &batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{self, Batch};
    use corescope_affinity::Scheme;
    use corescope_kernels::cg::CgClass;
    use corescope_sched::{Fidelity, Placement, System, Workload};
    use corescope_smpi::{LockLayer, MpiImpl};

    #[test]
    fn latency_effects_single_out_the_latency_knobs() {
        let s = Scheduler::new(1);
        let eval = Evaluator::with_families(&s, Fidelity::Quick, &[Family::Latency]);
        let base = CalibParams::paper_2006();
        let axes = [Axis::DramLatency, Axis::HtBandwidth, Axis::LockSysv];
        let effects = elementary_effects(&eval, &base, &axes, 0.1).unwrap();
        let ranked = ranking(&effects, Family::Latency);
        assert_eq!(ranked[0].param, "dram_latency");
        // Bandwidth and lock knobs cannot move an analytic latency.
        assert!(ranked.iter().all(|e| e.param == "dram_latency"));
    }

    /// The Longs probe fabric binds 16-core Star STREAM: doubling it
    /// doubles the bandwidth while it binds, and without it (the top of
    /// the box) the ladder would scale like sixteen independent cores,
    /// the shape the paper refutes.
    #[test]
    fn probe_capacity_is_the_binding_constraint() {
        let s = Scheduler::new(2);
        let placement = Placement::Scheme(Scheme::TwoMpiLocalAlloc);
        let base = cells::stream_star(System::Longs, 16, placement, Fidelity::Quick);
        let caps = [7e9, 14e9, 28e9, 1e12];
        let bw = sweep_field(&s, &base, Axis::ProbeCapacityLadder, &caps).unwrap();
        assert!(bw[1] > 1.8 * bw[0], "{bw:?}");
        assert!(bw[2] > 1.8 * bw[1], "{bw:?}");
        assert!((bw[1] / 1e9 - 14.0).abs() < 0.5, "14 GB/s fabric binds: {bw:?}");
        assert!(bw[3] > 1.5 * bw[1], "without the fabric the ladder would scale: {bw:?}");
    }

    /// Pages the default scheme leaves on the wrong node cost NAS CG
    /// time (class A, 8 ranks, Longs): with none misplaced "Default" is
    /// localalloc.
    #[test]
    fn misplacement_strictly_degrades_cg() {
        let s = Scheduler::new(2);
        let cg = Workload::NasCg { class: CgClass::A };
        let base = cells::app(System::Longs, 8, Scheme::Default, cg, Fidelity::Quick);
        let t = sweep_field(&s, &base, Axis::Misplacement, &[0.0, 0.4]).unwrap();
        assert!(t[1] > t[0], "misplaced pages must cost time: {t:?}");
    }

    /// The per-message lock cost dominates small-message latency: an
    /// 8-byte PingPong on Longs over SysV semaphores takes over three
    /// times as long as over spin locks, and its latency follows the
    /// semaphore's cost.
    #[test]
    fn lock_cost_dominates_latency() {
        let s = Scheduler::new(2);
        let pingpong = |lock| {
            let (scheme, mpi) = (Scheme::TwoMpiLocalAlloc, MpiImpl::Lam);
            cells::pingpong(System::Longs, 16, scheme, mpi, lock, 8.0, Fidelity::Quick)
        };
        let spin: Batch = [pingpong(LockLayer::USysV)].into_iter().collect();
        let spin = observe(&s, &spin).unwrap()[0];
        let costs = [0.5e-6, CalibParams::paper_2006().lock_sysv, 10e-6];
        let sem = sweep_field(&s, &pingpong(LockLayer::SysV), Axis::LockSysv, &costs).unwrap();
        assert!(sem[1] > 3.0 * spin, "{sem:?} vs {spin}");
        assert!(sem[0] < sem[1] && sem[1] < sem[2], "{sem:?}");
    }

    /// The intra-socket copy boost is the whole bound:unbound PingPong
    /// gap on DMZ at 1 MB: none without it, the paper's 10–13% with the
    /// shipped 1.12.
    #[test]
    fn boost_sweep_brackets_the_paper_value() {
        let s = Scheduler::new(2);
        let pingpong = |scheme| {
            let (mpi, lock) = (MpiImpl::OpenMpi, LockLayer::USysV);
            cells::pingpong(System::Dmz, 2, scheme, mpi, lock, 1e6, Fidelity::Quick)
        };
        let near = pingpong(Scheme::TwoMpiLocalAlloc);
        let t_near = sweep_field(&s, &near, Axis::SameSocketBoost, &[1.0, 1.12]).unwrap();
        // The cross-socket pair never sees the boost.
        let far: Batch = [pingpong(Scheme::OneMpiLocalAlloc)].into_iter().collect();
        let t_far = observe(&s, &far).unwrap()[0];
        let (none, paper) = (t_far / t_near[0], t_far / t_near[1]);
        assert!(none < 1.02, "without the boost there is no bound benefit: {none}");
        assert!(paper > 1.05 && paper < 1.20, "paper-calibrated ratio: {paper}");
    }
}
